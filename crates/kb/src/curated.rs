//! A curated COVID-19 / geography knowledge base covering the entities of
//! the paper's worked examples (Figs. 2–3 and 7–8): cities, countries,
//! vaccines, manufacturers and regulatory agencies, with `located_in`,
//! `approved_by` and `made_in` relationship facts plus the abbreviations
//! ("USA", "JnJ", "J&J") that the entity-resolution demo exercises.

use crate::base::{KbBuilder, KnowledgeBase};

/// Build the curated demo KB.
pub fn covid_kb() -> KnowledgeBase {
    let mut b = KbBuilder::new();

    // Type lattice.
    b.add_type("entity", None);
    b.add_type("place", Some("entity"));
    b.add_type("city", Some("place"));
    b.add_type("capital", Some("city"));
    b.add_type("country", Some("place"));
    b.add_type("organization", Some("entity"));
    b.add_type("agency", Some("organization"));
    b.add_type("company", Some("organization"));
    b.add_type("product", Some("entity"));
    b.add_type("vaccine", Some("product"));

    // Cities of Figs. 2–3 (plus a few more for datagen lakes).
    let cities: &[(&str, bool, &str)] = &[
        ("Berlin", true, "Germany"),
        ("Manchester", false, "England"),
        ("Barcelona", false, "Spain"),
        ("Toronto", false, "Canada"),
        ("Mexico City", true, "Mexico"),
        ("Boston", false, "United States"),
        ("New Delhi", true, "India"),
        ("Madrid", true, "Spain"),
        ("Hamburg", false, "Germany"),
        ("Ottawa", true, "Canada"),
        ("Chicago", false, "United States"),
        ("Mumbai", false, "India"),
        ("London", true, "England"),
        ("Guadalajara", false, "Mexico"),
    ];
    for (city, capital, country) in cities {
        b.add_entity(city, if *capital { &["capital"] } else { &["city"] });
        b.add_entity(country, &["country"]);
        b.add_fact(city, "located_in", country);
    }

    // Country aliases exercised by the ER demo (Fig. 8).
    b.add_alias("USA", "United States");
    b.add_alias("US", "United States");
    b.add_alias("United States of America", "United States");
    b.add_alias("UK", "England");
    b.add_alias("Great Britain", "England");
    b.add_alias("Deutschland", "Germany");

    // Vaccines, manufacturers and agencies of Figs. 7–8.
    for v in [
        "Pfizer",
        "Moderna",
        "Johnson & Johnson",
        "AstraZeneca",
        "Sputnik V",
    ] {
        b.add_entity(v, &["vaccine", "company"]);
    }
    b.add_alias("JnJ", "Johnson & Johnson");
    b.add_alias("J&J", "Johnson & Johnson");
    b.add_alias("Janssen", "Johnson & Johnson");
    b.add_alias("BioNTech", "Pfizer");

    for a in ["FDA", "EMA", "Health Canada", "COFEPRIS", "MHRA", "CDSCO"] {
        b.add_entity(a, &["agency"]);
    }
    b.add_alias("Food and Drug Administration", "FDA");
    b.add_alias("European Medicines Agency", "EMA");

    let approvals: &[(&str, &str)] = &[
        ("Pfizer", "FDA"),
        ("Pfizer", "EMA"),
        ("Pfizer", "Health Canada"),
        ("Moderna", "FDA"),
        ("Moderna", "EMA"),
        ("Johnson & Johnson", "FDA"),
        ("AstraZeneca", "EMA"),
        ("AstraZeneca", "MHRA"),
        ("Sputnik V", "COFEPRIS"),
    ];
    for (vaccine, agency) in approvals {
        b.add_fact(vaccine, "approved_by", agency);
    }

    let origins: &[(&str, &str)] = &[
        ("Pfizer", "United States"),
        ("Moderna", "United States"),
        ("Johnson & Johnson", "United States"),
        ("AstraZeneca", "England"),
        ("Sputnik V", "Russia"),
    ];
    b.add_entity("Russia", &["country"]);
    for (vaccine, country) in origins {
        b.add_fact(vaccine, "made_in", country);
    }

    // Agencies regulate in countries — gives agency columns a relationship
    // with country columns, which the SANTOS scorer can exploit.
    let jurisdictions: &[(&str, &str)] = &[
        ("FDA", "United States"),
        ("EMA", "Spain"),
        ("EMA", "Germany"),
        ("Health Canada", "Canada"),
        ("COFEPRIS", "Mexico"),
        ("MHRA", "England"),
        ("CDSCO", "India"),
    ];
    for (agency, country) in jurisdictions {
        b.add_fact(agency, "regulates_in", country);
    }

    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotate::Direction;

    #[test]
    fn covers_paper_fig2_entities() {
        let kb = covid_kb();
        for e in [
            "Berlin",
            "Manchester",
            "Barcelona",
            "Toronto",
            "Mexico City",
            "Boston",
            "New Delhi",
            "Germany",
            "England",
            "Spain",
            "Canada",
            "Mexico",
            "USA",
        ] {
            assert!(kb.knows(e), "KB should know {e}");
        }
    }

    #[test]
    fn covers_paper_fig7_entities_via_aliases() {
        let kb = covid_kb();
        assert_eq!(kb.resolve("JnJ"), kb.resolve("J&J"));
        assert_eq!(kb.resolve("USA"), kb.resolve("United States"));
        assert!(kb.knows("FDA"));
    }

    #[test]
    fn city_columns_annotate_as_cities() {
        let kb = covid_kb();
        let city = kb.type_id("city").unwrap();
        for value in ["Berlin", "Manchester", "Barcelona"] {
            assert!(kb.types_of(value).contains(&city), "{value}");
        }
    }

    #[test]
    fn city_country_pairs_annotate_located_in() {
        let kb = covid_kb();
        let ann = kb.annotate_pair([
            ("Berlin", "Germany"),
            ("Manchester", "England"),
            ("Barcelona", "Spain"),
        ]);
        let ((rel, dir), conf) = ann.top().unwrap();
        assert_eq!(Some(rel), kb.relation_id("located_in"));
        assert_eq!(dir, Direction::Forward);
        assert!((conf - 1.0).abs() < 1e-12);
    }

    #[test]
    fn vaccine_approver_pairs_annotate_approved_by() {
        let kb = covid_kb();
        let ann = kb.annotate_pair([("Pfizer", "FDA"), ("JnJ", "FDA")]);
        let ((rel, _), _) = ann.top().unwrap();
        assert_eq!(Some(rel), kb.relation_id("approved_by"));
    }

    #[test]
    fn stats_are_plausible() {
        let kb = covid_kb();
        let s = kb.stats();
        assert!(s.types >= 10);
        assert!(s.entities >= 25);
        assert!(s.fact_pairs >= 25);
        assert!(s.relations >= 4);
    }
}
