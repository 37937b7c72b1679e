//! The semantic signal of the holistic matcher.
//!
//! ALITE's matcher feeds *pretrained* value embeddings to its clustering, so
//! columns over disjoint-but-same-type domains (two sets of city names with
//! no city in common — exactly the unionable pair of paper Fig. 2) still
//! land close together. Hashed n-gram embeddings cannot provide that world
//! knowledge, so this reproduction restores it through an explicit
//! [`SemanticAnnotator`]: a pluggable component that maps a column's value
//! domain to a distribution over semantic type labels. The KB-backed
//! implementation ([`KbAnnotator`]) uses the mini knowledge base
//! (`dialite-kb`); when no annotator is configured the matcher degrades
//! gracefully to its lexical signals (ARCHITECTURE.md § Substitutions
//! documents the substitution).

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use dialite_kb::KnowledgeBase;

/// Maps a column's distinct value tokens to `type label → confidence`.
pub trait SemanticAnnotator: Send + Sync {
    /// Confidence per semantic type (fraction of values carrying it).
    /// Return an empty map when nothing is known about the domain.
    fn annotate(&self, tokens: &HashSet<String>) -> HashMap<String, f64>;
}

/// A `label → confidence` distribution sorted by label, with its norm,
/// built once per column by the matcher. [`SemanticVector::cosine`] runs
/// every sum in label order, so the result does not depend on either map's
/// iteration order.
pub(crate) struct SemanticVector<'a> {
    entries: Vec<(&'a str, f64)>,
    norm: f64,
}

impl<'a> SemanticVector<'a> {
    pub(crate) fn new(dist: &'a HashMap<String, f64>) -> SemanticVector<'a> {
        let mut entries: Vec<(&str, f64)> = dist.iter().map(|(k, &v)| (k.as_str(), v)).collect();
        entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
        let norm = entries.iter().map(|(_, v)| v * v).sum::<f64>().sqrt();
        SemanticVector { entries, norm }
    }

    fn get(&self, label: &str) -> Option<f64> {
        self.entries
            .binary_search_by(|(k, _)| (*k).cmp(label))
            .ok()
            .map(|i| self.entries[i].1)
    }

    pub(crate) fn cosine(&self, other: &SemanticVector) -> f64 {
        if self.entries.is_empty() || other.entries.is_empty() {
            return 0.0;
        }
        let dot: f64 = self
            .entries
            .iter()
            .filter_map(|&(k, va)| other.get(k).map(|vb| va * vb))
            .sum();
        if self.norm == 0.0 || other.norm == 0.0 {
            0.0
        } else {
            dot / (self.norm * other.norm)
        }
    }
}

/// Knowledge-base-backed annotator using *leaf* types (most specific
/// classification; a shared distant ancestor must not make city and country
/// columns look alike).
#[derive(Clone)]
pub struct KbAnnotator {
    kb: Arc<KnowledgeBase>,
    /// Minimum fraction of values that must be known to emit any annotation;
    /// guards against spurious matches on columns the KB barely covers.
    min_coverage: f64,
}

impl KbAnnotator {
    /// Annotator over a shared KB with default minimum coverage (0.5).
    pub fn new(kb: Arc<KnowledgeBase>) -> KbAnnotator {
        KbAnnotator {
            kb,
            min_coverage: 0.5,
        }
    }
}

impl SemanticAnnotator for KbAnnotator {
    fn annotate(&self, tokens: &HashSet<String>) -> HashMap<String, f64> {
        if tokens.is_empty() {
            return HashMap::new();
        }
        let mut votes: HashMap<String, usize> = HashMap::new();
        let mut known = 0usize;
        for tok in tokens {
            let leafs = self.kb.leaf_types_of(tok).unwrap_or_default();
            if !leafs.is_empty() {
                known += 1;
            }
            for &t in leafs {
                *votes.entry(self.kb.type_name(t).to_string()).or_insert(0) += 1;
            }
        }
        if (known as f64) < self.min_coverage * tokens.len() as f64 {
            return HashMap::new();
        }
        votes
            .into_iter()
            .map(|(name, v)| (name, v as f64 / tokens.len() as f64))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dialite_kb::curated::covid_kb;

    /// Cosine similarity of two `label → confidence` distributions.
    fn semantic_cosine(a: &HashMap<String, f64>, b: &HashMap<String, f64>) -> f64 {
        SemanticVector::new(a).cosine(&SemanticVector::new(b))
    }

    fn toks(items: &[&str]) -> HashSet<String> {
        items.iter().map(|s| s.to_lowercase()).collect()
    }

    #[test]
    fn city_columns_annotate_alike_country_columns_differently() {
        let ann = KbAnnotator::new(Arc::new(covid_kb()));
        let cities_a = ann.annotate(&toks(&["berlin", "manchester", "barcelona"]));
        let cities_b = ann.annotate(&toks(&["toronto", "mexico city", "boston"]));
        let countries = ann.annotate(&toks(&["germany", "england", "spain"]));
        let city_city = semantic_cosine(&cities_a, &cities_b);
        let city_country = semantic_cosine(&cities_a, &countries);
        assert!(
            city_city > 0.8,
            "disjoint city domains must still look alike: {city_city}"
        );
        assert!(
            city_country < 0.3,
            "city and country domains must separate: {city_country}"
        );
    }

    #[test]
    fn unknown_domains_annotate_empty() {
        let ann = KbAnnotator::new(Arc::new(covid_kb()));
        assert!(ann.annotate(&toks(&["qwerty", "asdf"])).is_empty());
        assert!(ann.annotate(&HashSet::new()).is_empty());
    }

    #[test]
    fn coverage_gate_blocks_sparse_matches() {
        let ann = KbAnnotator::new(Arc::new(covid_kb()));
        // Only 1 of 4 values known → below the 0.5 coverage gate.
        let sparse = ann.annotate(&toks(&["berlin", "aa", "bb", "cc"]));
        assert!(sparse.is_empty());
        // Lowering the gate admits it.
        let lax = KbAnnotator {
            min_coverage: 0.2,
            ..KbAnnotator::new(Arc::new(covid_kb()))
        };
        assert!(!lax
            .annotate(&toks(&["berlin", "aa", "bb", "cc"]))
            .is_empty());
    }

    #[test]
    fn semantic_cosine_identities() {
        let a: HashMap<String, f64> = [("city".to_string(), 1.0)].into_iter().collect();
        let b: HashMap<String, f64> = [("country".to_string(), 1.0)].into_iter().collect();
        assert_eq!(semantic_cosine(&a, &b), 0.0);
        assert!((semantic_cosine(&a, &a) - 1.0).abs() < 1e-12);
        assert_eq!(semantic_cosine(&a, &HashMap::new()), 0.0);
    }

    #[test]
    fn semantic_cosine_ignores_map_iteration_order() {
        // Every HashMap draws its own hash seed, so these maps iterate in
        // different orders; labels and confidences chosen so that a sum in
        // a different order rounds differently.
        let dist = || -> HashMap<String, f64> {
            (0..24)
                .map(|i| (format!("type{i}"), 1.0 / f64::from(i + 3)))
                .collect()
        };
        let other: HashMap<String, f64> = (0..24)
            .map(|i| (format!("type{}", i * 2), 0.1 * f64::from(i + 1)))
            .collect();
        let forth = semantic_cosine(&dist(), &other).to_bits();
        let back = semantic_cosine(&other, &dist()).to_bits();
        for _ in 0..32 {
            assert_eq!(semantic_cosine(&dist(), &other).to_bits(), forth);
            assert_eq!(semantic_cosine(&other, &dist()).to_bits(), back);
        }
    }

    #[test]
    fn aliases_count_toward_annotation() {
        let ann = KbAnnotator::new(Arc::new(covid_kb()));
        let with_alias = ann.annotate(&toks(&["usa", "germany"]));
        assert!(with_alias.contains_key("country"), "{with_alias:?}");
        assert!((with_alias["country"] - 1.0).abs() < 1e-12);
    }
}
