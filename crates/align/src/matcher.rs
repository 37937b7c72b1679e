//! The holistic schema matcher: column similarity + constrained clustering
//! → integration IDs.

use std::collections::HashMap;
use std::sync::Arc;

use dialite_table::Table;
use dialite_text::{
    cosine_dense_normed, dense_norm, jaccard, levenshtein_sim_chars, NgramEmbedder,
};

use crate::alignment::Alignment;
use crate::cluster::{average_linkage_cluster, average_linkage_sweep, silhouette_score};
use crate::semantic::{SemanticAnnotator, SemanticVector};
use crate::signature::{column_signature_with, ColumnSignature};

/// The parts of [`HolisticMatcher::similarity`] that depend on one column
/// only, computed once per column instead of once per pair.
struct Prepared<'a> {
    sig: &'a ColumnSignature,
    embedding_norm: f64,
    /// Lowercased header characters.
    header: Vec<char>,
    semantics: SemanticVector<'a>,
}

impl<'a> Prepared<'a> {
    fn new(sig: &'a ColumnSignature) -> Prepared<'a> {
        Prepared {
            sig,
            embedding_norm: dense_norm(&sig.embedding),
            header: sig.header.to_lowercase().chars().collect(),
            semantics: SemanticVector::new(&sig.semantics),
        }
    }
}

/// Weights and cut policy of the holistic matcher.
#[derive(Debug, Clone)]
pub(crate) struct MatcherConfig {
    /// Weight of embedding-centroid cosine similarity.
    pub embedding_weight: f64,
    /// Weight of distinct-value Jaccard overlap.
    pub overlap_weight: f64,
    /// Weight of the semantic-type distribution cosine (only when an
    /// annotator is configured and both domains annotate non-empty).
    pub semantic_weight: f64,
    /// Weight of numeric-distribution proximity (only when both numeric).
    pub numeric_weight: f64,
    /// Weight of header similarity. Low by default: data-lake headers are
    /// unreliable (paper §2.2); set to 0 for purely instance-based matching.
    pub header_weight: f64,
    /// Fixed clustering cut; `None` selects the cut by silhouette sweep,
    /// mirroring ALITE's cluster-count selection.
    pub threshold: Option<f64>,
    /// Candidate cuts for the silhouette sweep.
    pub sweep: Vec<f64>,
    /// Multiplier applied when column types are incompatible
    /// (numeric vs. text); a soft gate rather than a hard one because type
    /// inference on dirty data errs.
    pub type_mismatch_penalty: f64,
}

impl Default for MatcherConfig {
    fn default() -> Self {
        MatcherConfig {
            embedding_weight: 0.30,
            overlap_weight: 0.25,
            semantic_weight: 0.40,
            numeric_weight: 0.15,
            header_weight: 0.10,
            threshold: None,
            sweep: vec![0.25, 0.30, 0.35, 0.40, 0.45, 0.50, 0.55, 0.60],
            type_mismatch_penalty: 0.1,
        }
    }
}

/// ALITE's Align stage. See the crate docs for the full construction.
#[derive(Clone, Default)]
pub struct HolisticMatcher {
    config: MatcherConfig,
    embedder: NgramEmbedder,
    annotator: Option<Arc<dyn SemanticAnnotator>>,
}

impl std::fmt::Debug for HolisticMatcher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HolisticMatcher")
            .field("config", &self.config)
            .field("annotator", &self.annotator.is_some())
            .finish()
    }
}

impl HolisticMatcher {
    /// Attach a semantic annotator (builder style).
    pub fn with_annotator(mut self, annotator: Arc<dyn SemanticAnnotator>) -> HolisticMatcher {
        self.annotator = Some(annotator);
        self
    }

    /// Similarity of two column signatures in `[0, 1]` — the weighted
    /// combination described in the crate docs. Terms without evidence
    /// (empty token sets, missing annotations, non-numeric pairs) drop out
    /// of both numerator and denominator.
    pub fn similarity(&self, a: &ColumnSignature, b: &ColumnSignature) -> f64 {
        self.similarity_of(&Prepared::new(a), &Prepared::new(b))
    }

    /// [`HolisticMatcher::similarity`] over signatures with their per-column
    /// parts already computed.
    fn similarity_of(&self, pa: &Prepared, pb: &Prepared) -> f64 {
        let (a, b) = (pa.sig, pb.sig);
        let c = &self.config;
        let both_numeric = a.ctype.is_numeric() && b.ctype.is_numeric();

        let mut score = 0.0;
        let mut weight = 0.0;

        let e = cosine_dense_normed(
            &a.embedding,
            pa.embedding_norm,
            &b.embedding,
            pb.embedding_norm,
        )
        .max(0.0);
        score += c.embedding_weight * e;
        weight += c.embedding_weight;

        // Jaccard of two empty token sets is 1 by convention, but two empty
        // columns are no evidence of a match — skip the term instead.
        if !(a.tokens.is_empty() && b.tokens.is_empty()) {
            score += c.overlap_weight * jaccard(&a.tokens, &b.tokens);
            weight += c.overlap_weight;
        }

        if !a.semantics.is_empty() && !b.semantics.is_empty() {
            score += c.semantic_weight * pa.semantics.cosine(&pb.semantics);
            weight += c.semantic_weight;
        }

        if both_numeric {
            score += c.numeric_weight * a.range_overlap(b);
            weight += c.numeric_weight;
        }

        if c.header_weight > 0.0 && !a.header.is_empty() && !b.header.is_empty() {
            score += c.header_weight * levenshtein_sim_chars(&pa.header, &pb.header);
            weight += c.header_weight;
        }

        let mut s = if weight > 0.0 { score / weight } else { 0.0 };

        // Soft type gate.
        if a.ctype.is_numeric() != b.ctype.is_numeric() {
            s *= c.type_mismatch_penalty;
        }
        s.clamp(0.0, 1.0)
    }

    /// Build the signatures of every column in the integration set.
    pub fn signatures(&self, tables: &[&Table]) -> Vec<ColumnSignature> {
        let mut sigs = Vec::new();
        for (t, table) in tables.iter().enumerate() {
            for c in 0..table.column_count() {
                sigs.push(column_signature_with(
                    &self.embedder,
                    self.annotator.as_deref(),
                    tables,
                    t,
                    c,
                ));
            }
        }
        sigs
    }

    /// Align an integration set: returns the integration-ID assignment.
    pub fn align(&self, tables: &[&Table]) -> Alignment {
        let sigs = self.signatures(tables);
        let n = sigs.len();
        let groups: Vec<usize> = sigs.iter().map(|s| s.col.table).collect();
        let prepared: Vec<Prepared> = sigs.iter().map(Prepared::new).collect();

        let mut sim = vec![vec![0.0f64; n]; n];
        for i in 0..n {
            sim[i][i] = 1.0;
            for j in i + 1..n {
                let s = if groups[i] == groups[j] {
                    0.0 // never merged anyway; keep the matrix cheap
                } else {
                    self.similarity_of(&prepared[i], &prepared[j])
                };
                sim[i][j] = s;
                sim[j][i] = s;
            }
        }

        let labels = match self.config.threshold {
            Some(t) => average_linkage_cluster(&sim, &groups, t),
            None => {
                // Silhouette sweep (ALITE's cut selection): evaluate each
                // candidate cut, keep the best-scoring clustering; fall back
                // to the middle candidate when no cut produces structure.
                let mut cuts = average_linkage_sweep(&sim, &groups, &self.config.sweep);
                let mut best: Option<(f64, usize)> = None;
                for (i, labels) in cuts.iter().enumerate() {
                    // A clustering an earlier cut produced scores the same
                    // and so cannot strictly beat the best.
                    if cuts[..i].contains(labels) {
                        continue;
                    }
                    let score = silhouette_score(&sim, labels);
                    if best.is_none_or(|(bs, _)| score > bs) {
                        best = Some((score, i));
                    }
                }
                match best {
                    Some((score, i)) if score > 0.0 => cuts.swap_remove(i),
                    _ if !cuts.is_empty() => cuts.swap_remove(cuts.len() / 2),
                    _ => average_linkage_cluster(&sim, &groups, 0.5),
                }
            }
        };

        // Name each integration ID after the most frequent member header.
        let num_ids = labels.iter().copied().max().map_or(0, |m| m as usize + 1);
        let mut header_votes: Vec<HashMap<String, usize>> = vec![HashMap::new(); num_ids];
        for (i, sig) in sigs.iter().enumerate() {
            *header_votes[labels[i] as usize]
                .entry(sig.header.clone())
                .or_insert(0) += 1;
        }
        let mut names: Vec<String> = Vec::with_capacity(num_ids);
        let mut used: HashMap<String, usize> = HashMap::new();
        for votes in header_votes {
            let mut candidates: Vec<(&String, &usize)> = votes.iter().collect();
            candidates.sort_by(|a, b| b.1.cmp(a.1).then(a.0.cmp(b.0)));
            let base = candidates
                .first()
                .map(|(h, _)| (*h).clone())
                .unwrap_or_else(|| "col".to_string());
            let count = used.entry(base.clone()).or_insert(0);
            *count += 1;
            names.push(if *count == 1 {
                base
            } else {
                format!("{base}_{count}")
            });
        }

        // Repackage flat labels per table.
        let mut assignments: Vec<Vec<u32>> = Vec::with_capacity(tables.len());
        let mut idx = 0usize;
        for table in tables {
            let mut row = Vec::with_capacity(table.column_count());
            for _ in 0..table.column_count() {
                row.push(labels[idx]);
                idx += 1;
            }
            assignments.push(row);
        }
        Alignment::new(assignments, names)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semantic::KbAnnotator;
    use crate::signature::column_signature;
    use dialite_kb::curated::covid_kb;
    use dialite_table::table;

    fn demo_matcher() -> HolisticMatcher {
        HolisticMatcher::default().with_annotator(Arc::new(KbAnnotator::new(Arc::new(covid_kb()))))
    }

    /// The paper's Fig. 2 tables with deliberately unreliable headers on T3:
    /// holistic matching must align City columns by *values*, not names.
    fn covid_tables() -> (Table, Table, Table) {
        let t1 = table! {
            "T1"; ["Country", "City", "Vaccination Rate"];
            ["Germany", "Berlin", 0.63],
            ["England", "Manchester", 0.78],
            ["Spain", "Barcelona", 0.82],
        };
        let t2 = table! {
            "T2"; ["Country", "City", "Vaccination Rate"];
            ["Canada", "Toronto", 0.83],
            ["USA", "Boston", 0.62],
        };
        let t3 = table! {
            // Headers scrambled — the data lake reality the paper stresses.
            "T3"; ["a", "b", "c"];
            ["Berlin", 1_400_000, 147],
            ["Barcelona", 2_680_000, 275],
            ["Boston", 263_000, 335],
            ["New Delhi", 2_000_000, 158],
        };
        (t1, t2, t3)
    }

    #[test]
    fn aligns_city_columns_despite_scrambled_headers() {
        let (t1, t2, t3) = covid_tables();
        let al = demo_matcher().align(&[&t1, &t2, &t3]);
        let city1 = al.id_of(0, 1);
        let city2 = al.id_of(1, 1);
        let city3 = al.id_of(2, 0);
        assert_eq!(city1, city2, "T1.City must align with T2.City");
        assert_eq!(city1, city3, "T1.City must align with T3.a by values");
        // Case/Death-rate columns of T3 must not leak into City.
        assert_ne!(al.id_of(2, 1), city1);
        assert_ne!(al.id_of(2, 2), city1);
    }

    #[test]
    fn unionable_tables_align_column_for_column() {
        let (t1, t2, _) = covid_tables();
        let al = demo_matcher().align(&[&t1, &t2]);
        for c in 0..3 {
            assert_eq!(
                al.id_of(0, c),
                al.id_of(1, c),
                "column {c} of the unionable pair must align"
            );
        }
        assert_eq!(al.num_ids(), 3);
    }

    #[test]
    fn overlapping_values_align_without_any_annotator() {
        // Pure lexical evidence: strong value overlap.
        let a = table! { "a"; ["x"]; ["berlin"], ["boston"], ["barcelona"] };
        let b = table! { "b"; ["y"]; ["berlin"], ["boston"], ["new delhi"] };
        let al = HolisticMatcher::default().align(&[&a, &b]);
        assert_eq!(al.id_of(0, 0), al.id_of(1, 0));
    }

    #[test]
    fn same_table_columns_are_never_merged() {
        // Two identical columns inside one table plus a matching one outside.
        let a = table! { "a"; ["x", "y"]; ["p", "p"], ["q", "q"] };
        let b = table! { "b"; ["z"]; ["p"], ["q"] };
        let matcher = HolisticMatcher {
            config: MatcherConfig {
                threshold: Some(0.1),
                ..MatcherConfig::default()
            },
            ..HolisticMatcher::default()
        };
        let al = matcher.align(&[&a, &b]);
        assert_ne!(al.id_of(0, 0), al.id_of(0, 1));
    }

    #[test]
    fn numeric_columns_with_disjoint_ranges_stay_apart() {
        let a = table! { "a"; ["rate"]; [0.63], [0.78], [0.82] };
        let b = table! { "b"; ["cases"]; [1_400_000], [2_680_000], [263_000] };
        let al = demo_matcher().align(&[&a, &b]);
        assert_ne!(al.id_of(0, 0), al.id_of(1, 0));
    }

    #[test]
    fn similarity_is_symmetric_and_bounded() {
        let (t1, _, t3) = covid_tables();
        let matcher = demo_matcher();
        let e = NgramEmbedder::default();
        let tables = [&t1, &t3];
        for i in 0..3 {
            for j in 0..3 {
                let a = column_signature(&e, &tables, 0, i);
                let b = column_signature(&e, &tables, 1, j);
                let s1 = matcher.similarity(&a, &b);
                let s2 = matcher.similarity(&b, &a);
                assert!((s1 - s2).abs() < 1e-12);
                assert!((0.0..=1.0).contains(&s1));
            }
        }
    }

    #[test]
    fn single_table_gets_one_id_per_column() {
        let (t1, _, _) = covid_tables();
        let al = demo_matcher().align(&[&t1]);
        assert_eq!(al.num_ids(), 3);
        let ids: std::collections::HashSet<u32> = (0..3).map(|c| al.id_of(0, c)).collect();
        assert_eq!(ids.len(), 3);
    }

    #[test]
    fn empty_integration_set() {
        let al = demo_matcher().align(&[]);
        assert_eq!(al.num_ids(), 0);
    }

    #[test]
    fn names_are_unique_and_derived_from_headers() {
        let (t1, t2, _) = covid_tables();
        let al = demo_matcher().align(&[&t1, &t2]);
        let names: std::collections::HashSet<&str> =
            (0..al.num_ids() as u32).map(|i| al.name_of(i)).collect();
        assert_eq!(names.len(), al.num_ids());
        assert!(names.contains("City"));
        assert!(names.contains("Country"));
    }

    #[test]
    fn silhouette_sweep_finds_five_semantic_columns() {
        let (t1, t2, t3) = covid_tables();
        let al = demo_matcher().align(&[&t1, &t2, &t3]);
        // Country, City, Vaccination Rate, Total Cases, Death Rate = 5.
        assert_eq!(al.num_ids(), 5, "expected 5 integration ids");
    }

    #[test]
    fn header_weight_zero_still_aligns_by_values() {
        let (t1, t2, _) = covid_tables();
        let matcher = HolisticMatcher {
            config: MatcherConfig {
                header_weight: 0.0,
                ..MatcherConfig::default()
            },
            ..HolisticMatcher::default()
        }
        .with_annotator(Arc::new(KbAnnotator::new(Arc::new(covid_kb()))));
        let al = matcher.align(&[&t1, &t2]);
        assert_eq!(al.id_of(0, 1), al.id_of(1, 1));
    }

    #[test]
    fn fig7_vaccine_tables_align() {
        // Paper Fig. 7: T4(Vaccine, Approver), T5(Country, Approver),
        // T6(Vaccine, Country) — with neutral headers.
        let t4 = table! { "T4"; ["p", "q"]; ["Pfizer", "FDA"], ["JnJ", Value::null_missing()] };
        let t5 =
            table! { "T5"; ["r", "s"]; ["United States", "FDA"], ["USA", Value::null_missing()] };
        let t6 = table! { "T6"; ["u", "v"]; ["J&J", "United States"], ["JnJ", "USA"] };
        use dialite_table::Value;
        let al = demo_matcher().align(&[&t4, &t5, &t6]);
        assert_eq!(al.id_of(0, 0), al.id_of(2, 0), "Vaccine columns align");
        assert_eq!(al.id_of(0, 1), al.id_of(1, 1), "Approver columns align");
        assert_eq!(al.id_of(1, 0), al.id_of(2, 1), "Country columns align");
        assert_eq!(al.num_ids(), 3);
    }
}
