//! Exact-route oracle: the bounded retrieval paths must collapse to
//! brute force exactly whenever nothing binds, and degrade to *sound
//! subsets at exact scores* when a budget does bind — never to
//! approximations.
//!
//! Three properties, over random churn traces (mirroring
//! `pipeline_oracle.rs`):
//!
//! * **Unlimited == brute force, byte-for-byte**: with the sketch
//!   bypassed (`exact_mass_per_token = usize::MAX`) the top-k search's exact
//!   posting merge at an unlimited — or merely *covering* — postings
//!   budget must reproduce the brute-force containment top-k
//!   ([`common::brute_containment`] over `Table::column_token_set`, ranked
//!   by the shared `top_k` rule) on keys, scores, order and tie-breaks,
//!   at every `k`.
//! * **Finite budgets are sound**: any postings cap yields a subset of
//!   the brute-force answer whose scores are *exactly* the brute-force
//!   scores (every reported containment is verified, never estimated),
//!   and exhaustion is reported whenever the answer differs.
//! * **The default route is exact**: on a heterogeneous lake under the
//!   default engine config and default joinable budget, every query the
//!   mass router sends to the exact merge equals the brute-force top-k
//!   byte-for-byte, and the budget never binds. On a hub lake whose
//!   posting lists outweigh the routing line, queries take the sketch and
//!   stay within the default budget.
//! * **Typeless capped == full scan at covering caps**: on a KB-empty
//!   lake the SANTOS synthesized-signal posting index at any covering
//!   cap equals the `cap == usize::MAX` exhaustive full scan
//!   byte-for-byte, and smaller caps stay sound subsets.
//!
//! CI runs this with `PROPTEST_CASES=64` on push and 1024 in the
//! scheduled deep job.

use std::collections::HashMap;
use std::sync::Arc;

use dialite_datagen::workloads::{ChurnOp, ChurnWorkload, HeterogeneousLakeWorkload};
use dialite_discovery::{
    top_k_discovered, Discovered, DiscoveryBudget, LshEnsembleConfig, LshEnsembleDiscovery,
    QueryBudget, SantosConfig, SantosDiscovery, TableQuery,
};
use dialite_kb::KbBuilder;
use dialite_table::{DataLake, Table, Value};
use proptest::prelude::*;

mod common;
use common::brute_containment;

/// Sketch-free engine config: every query takes the exact posting path,
/// so output is a pure function of lake state and budget — the regime
/// where the exact route's equality with brute force is bit-exact.
fn exact_config() -> LshEnsembleConfig {
    LshEnsembleConfig {
        num_perm: 32,
        num_partitions: 2,
        exact_mass_per_token: usize::MAX,
        ..LshEnsembleConfig::default()
    }
}

fn churn(seed: u64, ops: usize) -> dialite_datagen::ChurnTrace {
    ChurnWorkload {
        initial_tables: 8,
        rows_per_table: 12,
        vocab: 150,
        ops,
        seed,
    }
    .generate()
}

/// Brute-force per-table best scores at or above the engine threshold
/// (the engine's reporting filter), keyed for subset checks.
fn full_scores(lake: &DataLake, query: &Table, threshold: f64) -> HashMap<String, f64> {
    brute_containment(lake, query)
        .into_iter()
        .filter(|(_, score)| score + 1e-12 >= threshold)
        .collect()
}

/// The brute-force top-`k`: [`full_scores`] ranked like every engine.
fn brute_top_k(lake: &DataLake, query: &Table, threshold: f64, k: usize) -> Vec<Discovered> {
    let hits = full_scores(lake, query, threshold)
        .into_iter()
        .map(|(table, score)| Discovered { table, score })
        .collect();
    top_k_discovered(hits, k)
}

/// Every query the default config routes exact (posting mass below
/// `exact_mass_per_token × |Q|`) is answered exactly under the default
/// joinable budget: the brute-force top-k, no posting list left unscanned.
/// On this lake every one of the 64 queries is that light.
#[test]
fn default_config_exact_route_equals_brute_force() {
    let spec = HeterogeneousLakeWorkload {
        tables: 400,
        queries: 64,
        ..HeterogeneousLakeWorkload::default()
    };
    let lake = spec.lake();
    let config = LshEnsembleConfig::default();
    let threshold = config.threshold;
    let engine = LshEnsembleDiscovery::build(&lake, config);
    let budget = DiscoveryBudget::default().joinable;
    let k = 10;
    let mut exact = 0usize;
    for q in spec.queries() {
        let query = TableQuery::with_column(q.clone(), 0);
        let (hits, stats) = engine.discover_top_k_with_stats(&query, k, &budget);
        if !stats.exact_path {
            continue;
        }
        exact += 1;
        assert_eq!(hits, brute_top_k(&lake, &q, threshold, k), "{}", q.name());
        assert_eq!(stats.postings_skipped, 0, "{}: {stats:?}", q.name());
        assert!(!stats.budget_exhausted, "{}: {stats:?}", q.name());
    }
    assert_eq!(exact, 64, "queries routed exact");
}

/// A hub lake: every table holds the same four hub tokens beside private
/// ones, so a query over the hubs and `extra` private tokens has a posting
/// mass of `4 × tables + extra`, over the default line of
/// `256 × (4 + extra)`. Such a query takes the sketch path and stays
/// within the default joinable budget, and every table it reports carries
/// its exact brute-force score.
#[test]
fn heavy_mass_queries_take_the_sketch_within_the_default_budget() {
    let tables = 400;
    let mut lake = DataLake::new();
    for t in 0..tables {
        let rows = (0..4)
            .map(|h| format!("hub{h}"))
            .chain((0..8).map(|i| format!("t{t}_v{i}")))
            .map(|tok| vec![Value::Text(tok)])
            .collect();
        lake.add(Table::from_rows(&format!("t{t}"), &["k"], rows).unwrap())
            .unwrap();
    }
    let config = LshEnsembleConfig::default();
    let threshold = config.threshold;
    let engine = LshEnsembleDiscovery::build(&lake, config);
    let budget = DiscoveryBudget::default().joinable;
    let k = 10;
    for extra in 0..3 {
        // The four hubs, plus `extra` private tokens of one table.
        let rows = (0..4)
            .map(|h| format!("hub{h}"))
            .chain((0..extra).map(|i| format!("t7_v{i}")))
            .map(|tok| vec![Value::Text(tok)])
            .collect();
        let q = Table::from_rows("q", &["k"], rows).unwrap();
        let line = LshEnsembleConfig::default().exact_mass_per_token * (4 + extra);
        assert!(
            4 * tables + extra > line,
            "extra {extra}: the mass is under the line"
        );
        let query = TableQuery::with_column(q.clone(), 0);
        let (hits, stats) = engine.discover_top_k_with_stats(&query, k, &budget);
        assert!(!stats.exact_path, "extra {extra}: {stats:?}");
        assert!(!stats.budget_exhausted, "extra {extra}: {stats:?}");
        assert!(stats.partitions_probed <= budget.max_partitions);
        assert!(stats.candidates_verified <= budget.max_verifications);
        assert_eq!(hits.len(), k, "extra {extra}");
        let full = full_scores(&lake, &q, threshold);
        for d in &hits {
            assert_eq!(full.get(&d.table), Some(&d.score), "{}", d.table);
        }
    }
}

proptest! {
    /// Unlimited and covering postings budgets reproduce the brute-force
    /// top-k exactly, at every query point of a churn trace and every `k`.
    #[test]
    fn unlimited_budget_equals_the_full_posting_merge(
        seed in any::<u64>(),
        ops in 10usize..22,
    ) {
        let trace = churn(seed, ops);
        // Finite but covering: larger than any posting volume these small
        // lakes can reach, so the budget arm is exercised without binding.
        let covering = QueryBudget::unlimited().with_max_postings(1 << 40);
        let mut lake = DataLake::from_tables(trace.initial).unwrap();
        let mut compared = 0usize;
        for op in trace.ops {
            if let ChurnOp::Query(q) = op {
                let engine = LshEnsembleDiscovery::build(&lake, exact_config());
                let threshold = exact_config().threshold;
                let query = TableQuery::with_column(q.clone(), 0);
                for k in [1usize, 6, usize::MAX] {
                    let oracle = brute_top_k(&lake, &q, threshold, k);
                    let (hits, stats) = engine.discover_top_k_with_stats(
                        &query,
                        k,
                        &QueryBudget::unlimited(),
                    );
                    prop_assert!(stats.exact_path, "sketch must stay bypassed");
                    prop_assert!(!stats.budget_exhausted);
                    prop_assert_eq!(
                        &hits, &oracle,
                        "unlimited exact route diverged from brute force at k={}",
                        k
                    );
                    let (budgeted, _) = engine.discover_top_k_with_stats(&query, k, &covering);
                    prop_assert_eq!(
                        &budgeted, &oracle,
                        "covering postings budget diverged from brute force at k={}",
                        k
                    );
                }
                compared += 1;
            } else {
                op.apply(&mut lake);
            }
        }
        prop_assert!(compared > 0, "trace contained no queries");
    }

    /// Any finite postings budget returns a sound subset: every reported
    /// table carries its *exact* brute-force score (subset semantics, not
    /// approximation), the list is within `k`, and exhaustion is reported
    /// whenever results were dropped.
    #[test]
    fn finite_postings_budgets_are_sound_subsets_at_exact_scores(
        seed in any::<u64>(),
        ops in 10usize..22,
        postings in 0usize..64,
    ) {
        let trace = churn(seed, ops);
        let budget = QueryBudget::unlimited().with_max_postings(postings);
        let mut lake = DataLake::from_tables(trace.initial).unwrap();
        for op in trace.ops {
            if let ChurnOp::Query(q) = op {
                let engine = LshEnsembleDiscovery::build(&lake, exact_config());
                let threshold = exact_config().threshold;
                let full = full_scores(&lake, &q, threshold);
                let k = 6usize;
                let oracle = brute_top_k(&lake, &q, threshold, k);
                let query = TableQuery::with_column(q, 0);
                let (hits, stats) =
                    engine.discover_top_k_with_stats(&query, k, &budget);
                prop_assert!(hits.len() <= k);
                for d in &hits {
                    let exact = full.get(&d.table);
                    prop_assert_eq!(
                        exact,
                        Some(&d.score),
                        "budgeted hit {} must carry its exact brute-force score",
                        d.table
                    );
                }
                // Dropping results without flagging exhaustion would make
                // the budget invisible to telemetry.
                if hits != oracle {
                    prop_assert!(
                        stats.budget_exhausted,
                        "a binding budget must be reported (postings={})",
                        postings
                    );
                }
            } else {
                op.apply(&mut lake);
            }
        }
    }

    /// Typeless SANTOS (KB-empty lake): any covering candidate cap equals
    /// the `usize::MAX` exhaustive full scan byte-for-byte, and tighter
    /// caps return sound subsets at exact scores.
    #[test]
    fn typeless_covering_cap_equals_the_full_scan(
        seed in any::<u64>(),
        ops in 10usize..22,
    ) {
        let trace = churn(seed, ops);
        let kb = Arc::new(KbBuilder::new().build());
        let mut lake = DataLake::from_tables(trace.initial).unwrap();
        let mut compared = 0usize;
        for op in trace.ops {
            if let ChurnOp::Query(q) = op {
                let engine =
                    SantosDiscovery::build(&lake, kb.clone(), SantosConfig::default());
                let query = TableQuery::with_column(q, 0);
                let full: HashMap<String, f64> = engine
                    .discover_capped(&query, usize::MAX, usize::MAX)
                    .0
                    .into_iter()
                    .map(|d: Discovered| (d.table, d.score))
                    .collect();
                for k in [1usize, 6, usize::MAX] {
                    let (oracle, oracle_stats) =
                        engine.discover_capped(&query, k, usize::MAX);
                    prop_assert!(
                        oracle_stats.full_scan,
                        "usize::MAX must stay the exhaustive full-scan oracle"
                    );
                    let (capped, stats) = engine.discover_capped(&query, k, lake.len() + 8);
                    prop_assert!(!stats.full_scan, "finite caps must use the posting index");
                    prop_assert!(!stats.cap_hit, "a covering cap must never bind");
                    prop_assert_eq!(
                        &capped, &oracle,
                        "covering cap diverged from the full scan at k={}",
                        k
                    );
                    let (tight, _) = engine.discover_capped(&query, k, 2);
                    prop_assert!(tight.len() <= k.min(2));
                    for d in &tight {
                        prop_assert_eq!(
                            full.get(&d.table),
                            Some(&d.score),
                            "tight-cap hit {} must carry its exact score",
                            &d.table
                        );
                    }
                }
                compared += 1;
            } else {
                op.apply(&mut lake);
            }
        }
        prop_assert!(compared > 0, "trace contained no queries");
    }
}
