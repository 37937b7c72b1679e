//! Metadata-aware discovery: match tables on their column **headers**.
//!
//! Real open-data corpora carry most of their reusable signal in the
//! *annotations* — column names, labels, schema fragments shared across
//! topically related datasets (cf. TableNet) — and a header probe is often
//! the only query a user can pose before any data is downloaded. This
//! engine answers exactly that query mode:
//!
//! 1. **Index.** For every lake table, tokenize each column header with
//!    [`dialite_text::word_tokens`] and keep it as a sorted id run. An
//!    inverted index `header token → tables` — the same token posting
//!    index, with the same runs and retire/compact machinery, as the
//!    SANTOS leg's synthesized signal — provides candidate retrieval.
//! 2. **Query.** Tokenize the query table's headers the same way (query
//!    tokens resolve through the pool, never intern — the query is not
//!    part of the lake).
//! 3. **Score.** Mean over query columns of the best header-token Jaccard
//!    against any candidate column, normalized to `[0, 1]`. Every query
//!    column counts the same: a header probe carries no intent column, so
//!    the score is deliberately symmetric across columns.
//!
//! Retrieval follows the same **candidate-cap contract** as the SANTOS
//! leg: under any finite cap, candidates are ranked by a sound upper bound
//! and scored best-bound-first; `cap == usize::MAX` is the exhaustive
//! full-header-scan oracle path the bounded path is pinned against
//! (`tests/metadata_oracle.rs`).

use std::collections::HashSet;

use dialite_table::{DataLake, Table};
use dialite_text::word_tokens;

use crate::pool::QueryColumn;
use crate::retrieval::{
    bounded_top_k, score_all, Report, RetrievalStats, Runs, SlotTable, TokenPostings,
    POOL_COMPACT_MIN,
};
use crate::shard::ShardScope;
use crate::types::{Discovered, Discovery, TableQuery};

/// Configuration of the metadata (header-match) engine.
#[derive(Debug, Clone)]
pub struct MetadataConfig {
    /// Minimum candidate score to be reported at all; keeps tables that
    /// share only one boilerplate header token (`id`, `name`, …) out of
    /// the integration set.
    pub min_score: f64,
}

impl Default for MetadataConfig {
    fn default() -> Self {
        MetadataConfig { min_score: 0.2 }
    }
}

/// The metadata-aware discovery engine. Build once per lake, then either
/// query as-is or keep it warm across churn inside a
/// [`LakeIndex`](crate::LakeIndex), which upserts and removes single
/// tables — header metadata is independent per table, so incremental
/// maintenance is exactly equivalent to a fresh build.
pub struct MetadataDiscovery {
    config: MetadataConfig,
    /// Table names by the lake's stable slot index, iterated in slot
    /// order, so the full-scan oracle is deterministic.
    tables: SlotTable<String>,
    /// Per-table header-token runs (one per column, the unit the score
    /// compares), and header token → table slots whose headers contain it.
    headers: TokenPostings,
}

impl MetadataDiscovery {
    /// Index the headers of the whole lake.
    pub fn build(lake: &DataLake, config: MetadataConfig) -> MetadataDiscovery {
        MetadataDiscovery::build_scoped(lake, config, ShardScope::all())
    }

    /// Index one shard's stripe of the lake (the slots `scope`
    /// [`admits`](ShardScope::admits)). Header metadata is per-table, so a
    /// scoped build is exactly a full build restricted to the stripe;
    /// [`ShardScope::all`] reproduces [`MetadataDiscovery::build`].
    pub(crate) fn build_scoped(
        lake: &DataLake,
        config: MetadataConfig,
        scope: ShardScope,
    ) -> MetadataDiscovery {
        let mut engine = MetadataDiscovery {
            config,
            tables: SlotTable::new(scope),
            headers: TokenPostings::new(POOL_COMPACT_MIN, scope),
        };
        for (slot, table) in lake.entries_routed(scope.shard(), scope.of()) {
            engine.upsert_table(slot, table);
        }
        engine
    }

    /// Index (or re-index) one table's headers under its lake slot.
    /// `O(that table's schema)` — row data is never touched.
    pub(crate) fn upsert_table(&mut self, slot: u32, table: &Table) {
        self.remove_table(slot);
        self.headers.insert(slot, &header_tokens(table));
        self.tables.insert(slot, table.name().to_string());
    }

    /// Drop the header metadata of the table occupying a lake slot.
    pub(crate) fn remove_table(&mut self, slot: u32) {
        self.tables.remove(slot);
        self.headers.remove(slot);
    }

    /// Number of indexed tables.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// `true` when no table is indexed.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// Header similarity: mean over query columns of the best Jaccard
    /// against any candidate column's header-token run.
    fn score_candidate(&self, q_cols: &[QueryColumn], c_runs: Runs) -> f64 {
        if q_cols.is_empty() || c_runs.is_empty() {
            return 0.0;
        }
        let total: f64 = q_cols
            .iter()
            .map(|qc| c_runs.iter().map(|cc| qc.jaccard(cc)).fold(0.0, f64::max))
            .sum();
        total / q_cols.len() as f64
    }

    /// [`Discovery::discover`] with a **candidate cap**: under any finite
    /// `cap`, candidates are ranked by a cheap per-table *header-overlap
    /// upper bound* on the full score and scored best-bound-first;
    /// retrieval stops once `cap` candidates are scored, or earlier when
    /// the k-th best kept score provably (strictly) beats every remaining
    /// bound. Any finite `cap >= lake size` therefore equals the
    /// exhaustive output exactly — tables the bound prunes can never enter
    /// the top-k, and score ties are still scored so name tie-breaking is
    /// preserved.
    ///
    /// `cap == usize::MAX` is the **exhaustive oracle path**: every
    /// indexed table is scored in slot order with no ranking or pruning
    /// (`full_scan` in the stats) — the baseline the capped path's
    /// equality and recall are measured against, pinned by
    /// `tests/metadata_oracle.rs`.
    ///
    /// The bound is sound because per query column `j`,
    /// `jaccard(Qj, Cc) <= min(1, |Q ∩ T| / |Qj|)` where `|Q ∩ T|` is the
    /// *table-level* header-token overlap the postings count
    /// (`Qj ∩ Cc ⊆ Q ∩ T` and `|Qj ∪ Cc| >= |Qj|`); an empty query column
    /// can reach `jaccard == 1` against an empty candidate header, so its
    /// ceiling stays `1.0`. Candidates the postings never saw share the
    /// zero-overlap bound and are ranked only when that bound could clear
    /// the reporting filter at all — otherwise their true score fails the
    /// same filter and they are exactly the tables the full scan would
    /// drop too.
    pub fn discover_capped(
        &self,
        query: &TableQuery,
        k: usize,
        cap: usize,
    ) -> (Vec<Discovered>, RetrievalStats) {
        let q_cols: Vec<QueryColumn> = header_tokens(&query.table)
            .iter()
            .map(|col| self.headers.resolve(col))
            .collect();
        if q_cols.is_empty() || k == 0 {
            return (Vec::new(), RetrievalStats::default());
        }
        let report = Report {
            k,
            min_score: self.config.min_score,
            exclude: query.table.name(),
        };
        let score = |slot: u32| self.score_candidate(&q_cols, self.headers.runs(slot));
        let (hits, mut stats) = if cap == usize::MAX {
            score_all(self.tables.iter(), report, |slot, _| score(slot))
        } else {
            let bound = |ov: usize| {
                let total: f64 = q_cols
                    .iter()
                    .map(|qc| {
                        if qc.len == 0 {
                            // jaccard(∅, ∅) == 1: an empty candidate header
                            // matches an empty query header, overlap or not.
                            1.0
                        } else {
                            (ov as f64 / qc.len as f64).min(1.0)
                        }
                    })
                    .sum();
                total / q_cols.len() as f64
            };
            // Header runs are short and header postings heavy: a merge per
            // scored pair beats counting every posting per domain.
            let ranked = self
                .headers
                .ranked(&q_cols, self.config.min_score, bound, &mut ());
            bounded_top_k(&self.tables, ranked, cap, report, |slot, _, ()| score(slot))
        };
        stats.full_scan = cap == usize::MAX;
        (hits, stats)
    }
}

/// Per-column header token sets of a table.
fn header_tokens(table: &Table) -> Vec<HashSet<String>> {
    table
        .schema()
        .columns()
        .iter()
        .map(|col| word_tokens(&col.name).into_iter().collect())
        .collect()
}

impl Discovery for MetadataDiscovery {
    fn name(&self) -> &str {
        "metadata"
    }

    fn discover(&self, query: &TableQuery, k: usize) -> Vec<Discovered> {
        self.discover_capped(query, k, usize::MAX).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dialite_table::{table, Value};

    fn demo_lake() -> DataLake {
        let covid = table! {
            "covid_na"; ["country name", "city", "vaccination rate"];
            ["Canada", "Toronto", 0.83],
            ["USA", "Boston", 0.62],
        };
        let weather = table! {
            "weather"; ["city", "temperature", "humidity"];
            ["Toronto", 21, 60],
            ["Boston", 24, 55],
        };
        let noise = table! {
            "numbers"; ["a", "b"];
            [1, 2],
            [3, 4],
        };
        DataLake::from_tables([covid, weather, noise]).unwrap()
    }

    fn query() -> TableQuery {
        TableQuery::new(table! {
            "Q"; ["country name", "vaccination rate"];
            ["Germany", 0.63],
        })
    }

    fn engine() -> MetadataDiscovery {
        MetadataDiscovery::build(&demo_lake(), MetadataConfig::default())
    }

    #[test]
    fn headers_drive_the_match_regardless_of_values() {
        // The query shares no *values* with the lake at all — only
        // headers. The header-compatible table must win.
        let hits = engine().discover(&query(), 3);
        assert!(!hits.is_empty());
        assert_eq!(hits[0].table, "covid_na", "{hits:?}");
        assert!(hits.iter().all(|d| d.table != "numbers"));
    }

    #[test]
    fn finite_cap_covering_the_lake_equals_exhaustive() {
        let engine = engine();
        for k in [1, 2, 10, usize::MAX] {
            let (oracle, ostats) = engine.discover_capped(&query(), k, usize::MAX);
            assert!(ostats.full_scan);
            let (capped, stats) = engine.discover_capped(&query(), k, 1000);
            assert!(!stats.full_scan, "finite cap takes the bounded path");
            assert!(!stats.cap_hit);
            assert_eq!(capped, oracle, "k={k}");
        }
    }

    #[test]
    fn cap_is_honored_and_results_stay_sound() {
        let engine = engine();
        let (hits, stats) = engine.discover_capped(&query(), 5, 1);
        assert!(stats.candidates_scored <= 1, "{stats:?}");
        let (oracle, _) = engine.discover_capped(&query(), 5, usize::MAX);
        for hit in &hits {
            assert!(
                oracle.contains(hit),
                "capped hit {hit:?} not in oracle {oracle:?}"
            );
        }
    }

    #[test]
    fn bound_prunes_weakly_overlapping_headers() {
        // Many tables share only the boilerplate token `name` with the
        // query; with a perfect verified match at k=1 their overlap
        // ceiling (0.5) can't win, so they must be pruned, not scored.
        let mut tables = vec![table! {
            "match"; ["country name", "vaccination rate"];
            ["X", 1.0],
        }];
        for i in 0..20 {
            tables.push(
                Table::from_rows(
                    &format!("noise{i}"),
                    &[&format!("name zzz{i}"), &format!("yyy{i}")],
                    vec![vec![Value::Int(1), Value::Int(2)]],
                )
                .unwrap(),
            );
        }
        let lake = DataLake::from_tables(tables).unwrap();
        let engine = MetadataDiscovery::build(&lake, MetadataConfig::default());
        let (hits, stats) = engine.discover_capped(&query(), 1, 1000);
        assert_eq!(hits[0].table, "match");
        assert!(stats.bound_pruned > 0, "{stats:?}");
        let (oracle, _) = engine.discover_capped(&query(), 1, usize::MAX);
        assert_eq!(hits, oracle);
    }

    #[test]
    fn incremental_maintenance_matches_fresh_build_through_compaction() {
        let mut lake = demo_lake();
        let mut engine = MetadataDiscovery::build(&lake, MetadataConfig::default());

        // Churn a wide table in and out; postings must retire with it and
        // the pool must eventually compact (overtake rule), without
        // changing any answer.
        let headers: Vec<String> = (0..3000).map(|i| format!("dead{i}")).collect();
        let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
        let row: Vec<Value> = (0..3000).map(Value::Int).collect();
        let big = Table::from_rows("big", &header_refs, vec![row]).unwrap();
        let slot = lake.add_table(big.clone()).unwrap();
        engine.upsert_table(slot, &big);
        lake.remove_table("big").unwrap();
        engine.remove_table(slot);

        let newcomer = table! {
            "covid_eu"; ["country name", "vaccination rate"];
            ["Germany", 0.63],
        };
        let slot = lake.add_table(newcomer.clone()).unwrap();
        engine.upsert_table(slot, &newcomer);

        let fresh = MetadataDiscovery::build(&lake, MetadataConfig::default());
        assert_eq!(engine.len(), fresh.len());
        let (_, entries) = engine.headers.posting_stats();
        let pool_len = engine.headers.pool_len();
        let (_, fresh_entries) = fresh.headers.posting_stats();
        assert_eq!(entries, fresh_entries, "retired postings must be gone");
        assert!(pool_len < 3000, "the pool must have compacted");
        assert_eq!(
            engine.discover_capped(&query(), 10, 100),
            fresh.discover_capped(&query(), 10, 100),
            "post-compaction bounded retrieval must answer like a rebuild"
        );
        assert_eq!(
            engine.discover(&query(), 10),
            fresh.discover(&query(), 10),
            "incremental index must answer exactly like a rebuild"
        );
    }

    #[test]
    fn query_table_itself_is_excluded() {
        let mut lake = demo_lake();
        lake.add(query().table.as_ref().clone().renamed("Q"))
            .unwrap();
        let engine = MetadataDiscovery::build(&lake, MetadataConfig::default());
        let hits = engine.discover(&query(), 10);
        assert!(hits.iter().all(|d| d.table != "Q"));
    }

    #[test]
    fn empty_lake_is_fine() {
        let engine = MetadataDiscovery::build(&DataLake::new(), MetadataConfig::default());
        assert!(engine.is_empty());
        assert!(engine.discover(&query(), 5).is_empty());
    }
}
