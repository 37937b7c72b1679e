//! Entity resolution over integrated tables — the downstream application of
//! paper §3.2 (Fig. 8(c)/(d)), standing in for `py_entitymatching`.
//!
//! Pipeline: **block** (candidate pairs share a canonical value in some key
//! column) → **match** (per-attribute similarity features with an
//! agree/conflict rule) → **cluster** (union-find over matches) →
//! **consolidate** (one tuple per entity, non-null values win).
//!
//! The matcher is deliberately *conservative with nulls*: a null attribute
//! can neither support nor veto a match. That is exactly why ER over the
//! outer-join result of Fig. 8(a) cannot resolve the fragmented JnJ/USA
//! tuples (too few agreements), while over the FD result it can — the
//! paper's demonstration.

use std::collections::{HashMap, HashSet};

use dialite_table::{NullKind, Table, Value};
use dialite_text::{acronym_of, jaccard, levenshtein_sim, word_tokens};

/// A synonym dictionary mapping aliases to canonical forms, applied after
/// whitespace/case normalization. The stand-in for the synonymy a trained
/// py_entitymatching matcher learns from labeled pairs (ARCHITECTURE.md
/// § Substitutions).
#[derive(Debug, Clone, Default)]
pub struct Gazetteer {
    canon: HashMap<String, String>,
}

fn normalize(s: &str) -> String {
    word_tokens(s).join(" ")
}

impl Gazetteer {
    /// Empty gazetteer (string similarity only).
    pub fn new() -> Gazetteer {
        Gazetteer::default()
    }

    /// Register an alias → canonical pair.
    pub(crate) fn add(&mut self, alias: &str, canonical: &str) {
        self.canon.insert(normalize(alias), normalize(canonical));
    }

    /// The COVID/geo gazetteer used by the demo scenarios.
    pub(crate) fn covid_default() -> Gazetteer {
        let mut g = Gazetteer::new();
        for (alias, canon) in [
            ("USA", "United States"),
            ("US", "United States"),
            ("United States of America", "United States"),
            ("UK", "United Kingdom"),
            ("Great Britain", "United Kingdom"),
            ("JnJ", "Johnson & Johnson"),
            ("J&J", "Johnson & Johnson"),
            ("Janssen", "Johnson & Johnson"),
            ("BioNTech", "Pfizer"),
            ("Food and Drug Administration", "FDA"),
            ("European Medicines Agency", "EMA"),
        ] {
            g.add(alias, canon);
        }
        g
    }

    /// Canonical form of a string (normalized; mapped if an alias).
    pub(crate) fn canonical(&self, s: &str) -> String {
        let n = normalize(s);
        self.canon.get(&n).cloned().unwrap_or(n)
    }
}

/// Matcher thresholds.
#[derive(Debug, Clone)]
pub struct ErConfig {
    /// Attribute similarity at or above this counts as an *agreement*.
    pub agree_threshold: f64,
    /// Attribute similarity strictly below this is a *conflict* (vetoes the
    /// match: two entities with clearly different names are different even
    /// if everything else matches).
    pub conflict_threshold: f64,
    /// Minimum number of agreeing attributes for a match. Two by default —
    /// one shared attribute is co-reference evidence, not identity.
    pub min_agreements: usize,
    /// Columns considered by blocking and matching (`None` = all).
    pub key_columns: Option<Vec<usize>>,
}

impl Default for ErConfig {
    fn default() -> Self {
        ErConfig {
            agree_threshold: 0.8,
            conflict_threshold: 0.35,
            min_agreements: 2,
            key_columns: None,
        }
    }
}

/// The result of resolution: a consolidated table plus, for every output
/// row, the input row indices merged into it.
#[derive(Debug, Clone)]
pub struct ErResult {
    /// One consolidated tuple per entity.
    pub table: Table,
    /// `clusters[i]` = input rows merged into output row `i` (sorted).
    pub clusters: Vec<Vec<usize>>,
}

impl ErResult {
    /// Number of entities found.
    pub fn entity_count(&self) -> usize {
        self.clusters.len()
    }
}

/// The entity resolver. See the module docs for the pipeline.
#[derive(Debug, Clone)]
pub struct EntityResolver {
    config: ErConfig,
    gazetteer: Gazetteer,
}

impl EntityResolver {
    /// Resolver with explicit configuration and gazetteer.
    pub fn new(config: ErConfig, gazetteer: Gazetteer) -> EntityResolver {
        EntityResolver { config, gazetteer }
    }

    /// Default thresholds with the COVID gazetteer — the demo setup.
    pub fn demo_default() -> EntityResolver {
        EntityResolver::new(ErConfig::default(), Gazetteer::covid_default())
    }

    /// Similarity of two cell values in `[0, 1]`; `None` when either is
    /// null (nulls neither support nor veto).
    pub(crate) fn value_sim(&self, a: &Value, b: &Value) -> Option<f64> {
        if a.is_null() || b.is_null() {
            return None;
        }
        if a == b {
            return Some(1.0);
        }
        match (a, b) {
            (Value::Text(x), Value::Text(y)) => {
                let cx = self.gazetteer.canonical(x);
                let cy = self.gazetteer.canonical(y);
                if cx == cy && !cx.is_empty() {
                    return Some(1.0);
                }
                let lev = levenshtein_sim(&cx, &cy);
                let toks_x: HashSet<String> = word_tokens(x).into_iter().collect();
                let toks_y: HashSet<String> = word_tokens(y).into_iter().collect();
                let jac = if toks_x.is_empty() && toks_y.is_empty() {
                    0.0
                } else {
                    jaccard(&toks_x, &toks_y)
                };
                let acr = if acronym_of(x, y) || acronym_of(y, x) {
                    0.9
                } else {
                    0.0
                };
                Some(lev.max(jac).max(acr))
            }
            _ => {
                // Numeric / mixed: relative closeness.
                match (a.as_f64(), b.as_f64()) {
                    (Some(x), Some(y)) => {
                        let denom = x.abs().max(y.abs());
                        if denom == 0.0 {
                            Some(1.0)
                        } else {
                            Some((1.0 - (x - y).abs() / denom).max(0.0))
                        }
                    }
                    _ => Some(levenshtein_sim(&a.to_string(), &b.to_string())),
                }
            }
        }
    }

    fn key_columns(&self, table: &Table) -> Vec<usize> {
        match &self.config.key_columns {
            Some(cols) => cols.clone(),
            None => (0..table.column_count()).collect(),
        }
    }

    /// The agree/conflict match rule over the key columns.
    pub(crate) fn rows_match(&self, a: &[Value], b: &[Value], key_columns: &[usize]) -> bool {
        let mut agreements = 0usize;
        for &c in key_columns {
            match self.value_sim(&a[c], &b[c]) {
                None => {}
                Some(s) if s >= self.config.agree_threshold => agreements += 1,
                Some(s) if s < self.config.conflict_threshold => return false,
                Some(_) => {}
            }
        }
        agreements >= self.config.min_agreements
    }

    /// Resolve a table into entities.
    pub fn resolve(&self, table: &Table) -> ErResult {
        let n = table.row_count();
        let keys = self.key_columns(table);

        // Blocking: rows sharing a canonical value in any key column.
        let mut blocks: HashMap<(usize, String), Vec<usize>> = HashMap::new();
        for (i, row) in table.rows().enumerate() {
            for &c in &keys {
                if let Some(tok) = row[c].overlap_token() {
                    blocks
                        .entry((c, self.gazetteer.canonical(&tok)))
                        .or_default()
                        .push(i);
                }
            }
        }
        let mut candidate_pairs: HashSet<(usize, usize)> = HashSet::new();
        for rows in blocks.values() {
            for (x, &i) in rows.iter().enumerate() {
                for &j in rows.iter().skip(x + 1) {
                    candidate_pairs.insert((i.min(j), i.max(j)));
                }
            }
        }

        // Match + union-find clustering.
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(parent: &mut [usize], x: usize) -> usize {
            let mut r = x;
            while parent[r] != r {
                r = parent[r];
            }
            let mut c = x;
            while parent[c] != r {
                let next = parent[c];
                parent[c] = r;
                c = next;
            }
            r
        }
        let mut pairs: Vec<(usize, usize)> = candidate_pairs.into_iter().collect();
        pairs.sort_unstable();
        for (i, j) in pairs {
            let (ra, rb) = (table.row(i).unwrap(), table.row(j).unwrap());
            if self.rows_match(ra, rb, &keys) {
                let (pi, pj) = (find(&mut parent, i), find(&mut parent, j));
                if pi != pj {
                    parent[pi.max(pj)] = pi.min(pj);
                }
            }
        }

        // Collect clusters in first-row order.
        let mut cluster_of: HashMap<usize, usize> = HashMap::new();
        let mut clusters: Vec<Vec<usize>> = Vec::new();
        for i in 0..n {
            let root = find(&mut parent, i);
            let idx = *cluster_of.entry(root).or_insert_with(|| {
                clusters.push(Vec::new());
                clusters.len() - 1
            });
            clusters[idx].push(i);
        }

        // Consolidate each cluster.
        let columns: Vec<String> = table.schema().names().map(str::to_string).collect();
        let mut out = Table::new(&format!("ER({})", table.name()), &columns)
            .expect("schema names are unique");
        for cluster in &clusters {
            let row = consolidate(table, cluster);
            out.push_row(row)
                .expect("consolidated row has schema arity");
        }
        out.infer_types();
        ErResult {
            table: out,
            clusters,
        }
    }
}

/// Merge a cluster into one tuple: per column, prefer non-null values; among
/// non-nulls pick the most informative representative (longest rendering,
/// ties broken lexicographically — "United States" beats "USA", "J&J" beats
/// "JnJ"); among nulls, missing (`±`) dominates produced (`⊥`).
fn consolidate(table: &Table, cluster: &[usize]) -> Vec<Value> {
    let ncols = table.column_count();
    let mut out = Vec::with_capacity(ncols);
    for c in 0..ncols {
        let mut best: Option<&Value> = None;
        let mut any_missing = false;
        for &r in cluster {
            let v = &table.row(r).unwrap()[c];
            match v {
                Value::Null(NullKind::Missing) => any_missing = true,
                Value::Null(NullKind::Produced) => {}
                v => {
                    best = Some(match best {
                        None => v,
                        Some(cur) => {
                            let (lv, lc) = (v.to_string(), cur.to_string());
                            match lv.chars().count().cmp(&lc.chars().count()) {
                                std::cmp::Ordering::Greater => v,
                                std::cmp::Ordering::Less => cur,
                                std::cmp::Ordering::Equal => {
                                    if lv < lc {
                                        v
                                    } else {
                                        cur
                                    }
                                }
                            }
                        }
                    });
                }
            }
        }
        out.push(match best {
            Some(v) => v.clone(),
            None if any_missing => Value::null_missing(),
            None => Value::null_produced(),
        });
    }
    out
}

/// Pairwise precision/recall/F1 of predicted clusters against ground-truth
/// entity labels — the standard ER quality metric.
pub fn pairwise_f1(clusters: &[Vec<usize>], truth: &[usize]) -> (f64, f64, f64) {
    let mut predicted: HashSet<(usize, usize)> = HashSet::new();
    for c in clusters {
        for (x, &i) in c.iter().enumerate() {
            for &j in c.iter().skip(x + 1) {
                predicted.insert((i.min(j), i.max(j)));
            }
        }
    }
    let mut actual: HashSet<(usize, usize)> = HashSet::new();
    for i in 0..truth.len() {
        for j in (i + 1)..truth.len() {
            if truth[i] == truth[j] {
                actual.insert((i, j));
            }
        }
    }
    let tp = predicted.intersection(&actual).count() as f64;
    let precision = if predicted.is_empty() {
        1.0
    } else {
        tp / predicted.len() as f64
    };
    let recall = if actual.is_empty() {
        1.0
    } else {
        tp / actual.len() as f64
    };
    let f1 = if precision + recall == 0.0 {
        0.0
    } else {
        2.0 * precision * recall / (precision + recall)
    };
    (precision, recall, f1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dialite_table::table;

    /// Paper Fig. 8(b): the FD result over the vaccine tables.
    fn fd_result() -> Table {
        table! {
            "FD"; ["Vaccine", "Approver", "Country"];
            ["Pfizer", "FDA", "United States"],
            ["JnJ", Value::null_produced(), "USA"],
            ["J&J", "FDA", "United States"],
        }
    }

    /// Paper Fig. 8(a): the outer-join result.
    fn oj_result() -> Table {
        table! {
            "OJ"; ["Vaccine", "Approver", "Country"];
            ["Pfizer", "FDA", "United States"],
            ["JnJ", Value::null_missing(), Value::null_produced()],
            [Value::null_produced(), Value::null_missing(), "USA"],
            ["J&J", Value::null_produced(), "United States"],
            ["JnJ", Value::null_produced(), "USA"],
        }
    }

    #[test]
    fn reproduces_paper_fig8d_er_over_fd() {
        let er = EntityResolver::demo_default();
        let out = er.resolve(&fd_result());
        let expected = table! {
            "ER(FD)"; ["Vaccine", "Approver", "Country"];
            ["Pfizer", "FDA", "United States"],
            ["J&J", "FDA", "United States"],
        };
        assert!(
            out.table.same_content(&expected),
            "got:\n{}\nexpected:\n{}",
            out.table,
            expected
        );
        assert_eq!(out.entity_count(), 2);
    }

    #[test]
    fn reproduces_paper_fig8c_er_over_outer_join() {
        // Paper Fig. 8(c), exactly: f11/f12 (J&J/JnJ over United States/USA)
        // do resolve, but the incomplete tuples f9 and f10 cannot be merged
        // with anything — and no tuple carries the J&J approver.
        let er = EntityResolver::demo_default();
        let out = er.resolve(&oj_result());
        let expected = table! {
            "ER(OJ)"; ["Vaccine", "Approver", "Country"];
            ["Pfizer", "FDA", "United States"],
            ["JnJ", Value::null_missing(), Value::null_produced()],
            [Value::null_produced(), Value::null_missing(), "USA"],
            ["J&J", Value::null_produced(), "United States"],
        };
        assert!(
            out.table.same_content(&expected),
            "got:\n{}\nexpected:\n{}",
            out.table,
            expected
        );
        let jnj_with_approver = out.table.rows().any(|r| {
            matches!(&r[0], Value::Text(s) if er.gazetteer.canonical(s) == "johnson johnson")
                && !r[1].is_null()
        });
        assert!(
            !jnj_with_approver,
            "outer join cannot derive J&J's approver"
        );
    }

    #[test]
    fn fd_er_output_is_smaller_and_more_complete_than_oj_er() {
        let er = EntityResolver::demo_default();
        let fd = er.resolve(&fd_result());
        let oj = er.resolve(&oj_result());
        assert!(fd.table.row_count() < oj.table.row_count());
        assert!(fd.table.null_rate() < oj.table.null_rate());
    }

    #[test]
    fn gazetteer_canonicalizes() {
        let g = Gazetteer::covid_default();
        assert_eq!(g.canonical("USA"), g.canonical("United States"));
        assert_eq!(g.canonical("J&J"), g.canonical("JnJ"));
        assert_eq!(g.canonical("  pfizer "), "pfizer");
    }

    #[test]
    fn value_sim_rules() {
        let er = EntityResolver::demo_default();
        // Nulls: no evidence either way.
        assert_eq!(er.value_sim(&Value::null_missing(), &Value::Int(1)), None);
        // Exact.
        assert_eq!(er.value_sim(&Value::Int(3), &Value::Int(3)), Some(1.0));
        // Synonyms.
        assert_eq!(
            er.value_sim(
                &Value::Text("USA".into()),
                &Value::Text("United States".into())
            ),
            Some(1.0)
        );
        // Acronym fallback for unseen pairs.
        let s = er
            .value_sim(
                &Value::Text("WHO".into()),
                &Value::Text("World Health Organization".into()),
            )
            .unwrap();
        assert!(s >= 0.9, "acronym feature should fire: {s}");
        // Numeric closeness.
        let s = er.value_sim(&Value::Int(100), &Value::Int(90)).unwrap();
        assert!((s - 0.9).abs() < 1e-12);
        // Clear conflicts are low.
        let s = er
            .value_sim(&Value::Text("Pfizer".into()), &Value::Text("J&J".into()))
            .unwrap();
        assert!(s < 0.35, "Pfizer vs J&J must conflict: {s}");
    }

    #[test]
    fn conflict_vetoes_match_despite_agreements() {
        let er = EntityResolver::demo_default();
        let t = table! {
            "t"; ["name", "agency", "country"];
            ["Pfizer", "FDA", "United States"],
            ["J&J", "FDA", "United States"],
        };
        let out = er.resolve(&t);
        assert_eq!(out.entity_count(), 2, "conflicting names must not merge");
    }

    #[test]
    fn min_agreements_is_enforced() {
        let er = EntityResolver::demo_default();
        let t = table! {
            "t"; ["name", "x", "y"];
            ["alpha", 1, Value::null_missing()],
            ["alpha", Value::null_missing(), 2],
        };
        // Only one agreement (name); x/y are null-disjoint.
        let out = er.resolve(&t);
        assert_eq!(out.entity_count(), 2);
        // Lowering the bar to 1 merges them.
        let lax = EntityResolver::new(
            ErConfig {
                min_agreements: 1,
                ..ErConfig::default()
            },
            Gazetteer::covid_default(),
        );
        let out = lax.resolve(&t);
        assert_eq!(out.entity_count(), 1);
        // And consolidation fills both x and y.
        let row = out.table.row(0).unwrap();
        assert_eq!(row[1], Value::Int(1));
        assert_eq!(row[2], Value::Int(2));
    }

    #[test]
    fn consolidation_prefers_informative_values() {
        let t = table! {
            "t"; ["country", "code"];
            ["USA", 1],
            ["United States", 1],
        };
        let er = EntityResolver::demo_default();
        let out = er.resolve(&t);
        assert_eq!(out.entity_count(), 1);
        assert_eq!(
            out.table.row(0).unwrap()[0],
            Value::Text("United States".into()),
            "longest representative wins"
        );
    }

    #[test]
    fn transitive_clusters_via_union_find() {
        let er = EntityResolver::new(
            ErConfig {
                min_agreements: 1,
                ..ErConfig::default()
            },
            Gazetteer::covid_default(),
        );
        let t = table! {
            "t"; ["a"];
            ["USA"],
            ["United States"],
            ["United States of America"],
        };
        let out = er.resolve(&t);
        assert_eq!(out.entity_count(), 1);
        assert_eq!(out.clusters[0], vec![0, 1, 2]);
    }

    #[test]
    fn empty_table() {
        let er = EntityResolver::demo_default();
        let t = Table::new("e", &["a"]).unwrap();
        let out = er.resolve(&t);
        assert_eq!(out.entity_count(), 0);
        assert_eq!(out.table.row_count(), 0);
    }

    #[test]
    fn pairwise_f1_metric() {
        // Truth: {0,1} and {2}; prediction: {0,1,2} → P=1/3, R=1, F1=0.5.
        let (p, r, f1) = pairwise_f1(&[vec![0, 1, 2]], &[7, 7, 9]);
        assert!((p - 1.0 / 3.0).abs() < 1e-12);
        assert!((r - 1.0).abs() < 1e-12);
        assert!((f1 - 0.5).abs() < 1e-12);
        // Perfect prediction.
        let (p, r, f1) = pairwise_f1(&[vec![0, 1], vec![2]], &[7, 7, 9]);
        assert_eq!((p, r, f1), (1.0, 1.0, 1.0));
        // No pairs anywhere.
        let (p, r, f1) = pairwise_f1(&[vec![0], vec![1]], &[1, 2]);
        assert_eq!((p, r, f1), (1.0, 1.0, 1.0));
    }
}
