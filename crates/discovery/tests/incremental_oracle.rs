//! Incremental-vs-rebuild oracle: a `LakeIndex` maintained through a random
//! churn trace must answer discovery queries exactly like a fresh `build()`
//! over the lake's final state — including after tombstone-triggered
//! ensemble rebalances.
//!
//! Two regimes are pinned:
//!
//! * **Exact-verification semantics** (the main oracle): with the LSH
//!   sketch bypassed (`exact_mass_per_token = usize::MAX`), discovery
//!   output is a pure function of the maintained domain/annotation state,
//!   so incremental and rebuilt indexes must agree bit-for-bit on keys
//!   *and* scores. Any drift in tombstoning, pool interning, slot keying
//!   or the SANTOS inverted index surfaces here.
//! * **Sketch-path soundness**: with the real LSH candidate path, reported
//!   results must still be a subset of the brute-force truth at exact
//!   scores (candidates are verified), and a *freshly churned-in* table —
//!   staged since the last rebalance — must never be a false negative for
//!   a query it fully contains.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use dialite_datagen::workloads::{ChurnOp, ChurnWorkload};
use dialite_discovery::{
    merge_best_scores, top_k_discovered, Discovered, Discovery, DiscoveryBudget,
    DiscoveryTelemetry, LakeIndex, LakeIndexConfig, LshEnsembleConfig, QueryBudget, SantosConfig,
    TableQuery,
};
use dialite_kb::curated::covid_kb;
use dialite_table::{DataLake, Table};
use proptest::prelude::*;

mod common;
use common::brute_containment;

fn exact_config() -> LakeIndexConfig {
    LakeIndexConfig {
        santos: SantosConfig::default(),
        lshe: LshEnsembleConfig {
            num_perm: 64,
            num_partitions: 4,
            // Bypass the sketch: every stored domain is verified exactly,
            // making discovery output deterministic given the lake state.
            exact_mass_per_token: usize::MAX,
            // Tiny dirtiness budget → frequent tombstone-triggered
            // rebalances inside the trace, exercising re-partitioning.
            rebalance_dirtiness: 0.15,
            ..LshEnsembleConfig::default()
        },
        // Three legs: incremental maintenance of the metadata engine must
        // match a fresh build at every query point, like the other two.
        metadata: Some(dialite_discovery::MetadataConfig::default()),
    }
}

/// The probe-all reference of the discovery stage: each of the index's
/// engines queried with its own scan-then-truncate `discover`, in the
/// stage's engine order — no planner, no caps, no telemetry.
fn probe_all(index: &LakeIndex, query: &TableQuery, k: usize) -> Vec<(String, Vec<Discovered>)> {
    let mut legs: Vec<&dyn Discovery> = vec![index.santos(), index.lshe()];
    legs.extend(index.metadata().map(|m| m as &dyn Discovery));
    legs.into_iter()
        .map(|leg| (leg.name().to_string(), leg.discover(query, k)))
        .collect()
}

proptest! {
    /// The main oracle: `sync` after every mutation, and at every query
    /// point the incrementally maintained index and a fresh build of the
    /// current lake return identical (engine, table, score) results.
    #[test]
    fn incremental_lake_index_equals_fresh_rebuild(seed in any::<u64>(), ops in 12usize..32) {
        let trace = ChurnWorkload {
            initial_tables: 8,
            rows_per_table: 12,
            vocab: 150,
            ops,
            seed,
        }
        .generate();
        let kb = Arc::new(covid_kb());
        let config = exact_config();
        let mut lake = DataLake::from_tables(trace.initial).unwrap();
        let mut index = LakeIndex::build(&lake, kb.clone(), config.clone());
        let mut compared = 0usize;
        for op in trace.ops {
            if let ChurnOp::Query(q) = &op {
                index.sync(&lake);
                prop_assert!(index.is_current(&lake));
                let fresh = LakeIndex::build(&lake, kb.clone(), config.clone());
                let query = TableQuery::with_column(q.clone(), 0);
                let got = probe_all(&index, &query, 6);
                let want = probe_all(&fresh, &query, 6);
                prop_assert_eq!(
                    got,
                    want,
                    "incremental index diverged from rebuild at op {}",
                    compared
                );
                compared += 1;
            } else {
                op.apply(&mut lake);
            }
        }
        prop_assert!(compared > 0, "trace contained no queries");
    }

    /// `LakeIndex`'s own `Discovery::discover` — the budgeted stage at an
    /// unlimited budget, legs unioned at their best score — equals the
    /// best-score union of the per-leg probe-all references at every
    /// query point of a churn trace, and folds exactly one query per leg
    /// into the index's telemetry.
    #[test]
    fn lake_index_discover_is_the_union_of_probe_all_legs(
        seed in any::<u64>(),
        ops in 12usize..28,
    ) {
        let trace = ChurnWorkload {
            initial_tables: 8,
            rows_per_table: 12,
            vocab: 150,
            ops,
            seed,
        }
        .generate();
        let kb = Arc::new(covid_kb());
        let mut lake = DataLake::from_tables(trace.initial).unwrap();
        let mut index = LakeIndex::build(&lake, kb, exact_config());
        let mut compared = 0usize;
        for op in trace.ops {
            if let ChurnOp::Query(q) = &op {
                index.sync(&lake);
                let query = TableQuery::with_column(q.clone(), 0);
                for k in [1, 6] {
                    let mut best = HashMap::new();
                    for (_, hits) in probe_all(&index, &query, k) {
                        merge_best_scores(&mut best, hits);
                    }
                    let want = top_k_discovered(
                        best.into_iter()
                            .map(|(table, score)| Discovered { table, score })
                            .collect(),
                        k,
                    );
                    let before = index.telemetry();
                    prop_assert_eq!(
                        index.discover(&query, k),
                        want,
                        "union diverged from the probe-all legs at query {}, k={}",
                        compared,
                        k
                    );
                    let after = index.telemetry();
                    prop_assert_eq!(after.santos.queries, before.santos.queries + 1);
                    prop_assert_eq!(after.topk.queries, before.topk.queries + 1);
                    prop_assert_eq!(after.metadata.queries, before.metadata.queries + 1);
                }
                compared += 1;
            } else {
                op.apply(&mut lake);
            }
        }
        prop_assert!(compared > 0, "trace contained no queries");
    }

    /// Top-k planner + posting-list + signature-cache oracle under churn:
    /// an incrementally maintained `LakeIndex` (planner cache staying warm
    /// across syncs, pool compaction forced on) answers `discover_top_k`
    /// exactly like a freshly built index AND exactly like the probe-all
    /// path, repeat queries hit the cache without changing results, and
    /// the posting lists stay in lockstep with the live domains.
    #[test]
    fn planner_postings_and_cache_survive_churn(seed in any::<u64>(), ops in 12usize..32) {
        let trace = ChurnWorkload {
            initial_tables: 8,
            rows_per_table: 14,
            vocab: 160,
            ops,
            seed,
        }
        .generate();
        let kb = Arc::new(covid_kb());
        let config = LakeIndexConfig {
            santos: SantosConfig::default(),
            lshe: LshEnsembleConfig {
                num_perm: 64,
                num_partitions: 4,
                rebalance_dirtiness: 0.2,
                // Compact on every overtake, so churn traces exercise the
                // id-remap path (domains, postings, verification) often.
                pool_compact_min: 0,
                ..LshEnsembleConfig::default()
            },
            metadata: None,
        };
        let budget = QueryBudget::unlimited();
        let mut lake = DataLake::from_tables(trace.initial).unwrap();
        let mut index = LakeIndex::build(&lake, kb.clone(), config.clone());
        let mut compared = 0usize;
        for op in trace.ops {
            if let ChurnOp::Query(q) = &op {
                index.sync(&lake);
                let fresh = LakeIndex::build(&lake, kb.clone(), config.clone());
                let query = TableQuery::with_column(q.clone(), 0);
                let got = index.discover_top_k(&query, 6, &budget);
                prop_assert_eq!(
                    &got,
                    &fresh.discover_top_k(&query, 6, &budget),
                    "incremental planner diverged from fresh build at query {}",
                    compared
                );
                prop_assert_eq!(
                    &got,
                    &index.lshe().discover(&query, 6),
                    "planner diverged from probe-all at query {}",
                    compared
                );
                // Repeat query: served from the signature cache (or the
                // exact path), identical results.
                prop_assert_eq!(
                    &got,
                    &index.discover_top_k(&query, 6, &budget),
                    "cached repeat diverged at query {}",
                    compared
                );
                // Postings mirror the live domains exactly, dead weight
                // included (fresh build has none by construction).
                prop_assert_eq!(
                    index.lshe().posting_stats(),
                    fresh.lshe().posting_stats(),
                    "posting lists diverged from rebuild at query {}",
                    compared
                );
                compared += 1;
            } else {
                op.apply(&mut lake);
                // Sync per mutation: maximal churn stress on postings,
                // compaction and the planner cache.
                index.sync(&lake);
            }
        }
        prop_assert!(compared > 0, "trace contained no queries");
    }

    /// Telemetry lockstep under churn: the index's rolling
    /// `DiscoveryTelemetry` counters must equal an independently
    /// accumulated sum of the per-query `TopKStats` / `RetrievalStats` the
    /// same calls returned — across syncs, forced `StringPool`
    /// compactions, and even a full rebuild (which must carry the window
    /// over, not zero it). Latency histograms are checked for sample
    /// counts only (durations are wall-clock).
    #[test]
    fn telemetry_stays_in_lockstep_with_per_query_stats(seed in any::<u64>(), ops in 12usize..28) {
        let trace = ChurnWorkload {
            initial_tables: 8,
            rows_per_table: 14,
            vocab: 160,
            ops,
            seed,
        }
        .generate();
        let kb = Arc::new(covid_kb());
        let config = LakeIndexConfig {
            santos: SantosConfig::default(),
            lshe: LshEnsembleConfig {
                num_perm: 64,
                num_partitions: 4,
                rebalance_dirtiness: 0.2,
                // Compact on every overtake: the id-remap path must not
                // disturb (or double-count) telemetry.
                pool_compact_min: 0,
                ..LshEnsembleConfig::default()
            },
            metadata: None,
        };
        let budget = QueryBudget::unlimited().with_max_verifications(6);
        let stage_budget = DiscoveryBudget::default();
        let mut lake = DataLake::from_tables(trace.initial).unwrap();
        let mut index = LakeIndex::build(&lake, kb.clone(), config.clone());
        let mut expected = DiscoveryTelemetry::default();
        let mut compared = 0usize;
        for op in trace.ops {
            if let ChurnOp::Query(q) = &op {
                index.sync(&lake);
                let query = TableQuery::with_column(q.clone(), 0);
                // Interactive joinable queries record the topk leg only...
                let (_, stats) = index.discover_top_k_with_stats(&query, 6, &budget);
                expected.record_topk(&stats, Duration::ZERO);
                // ...while the budgeted stage records both legs; its
                // returned lists must be consistent with independently
                // capped engine calls whose stats we fold by hand.
                let staged = index.discover_all_budgeted(&query, 6, &stage_budget);
                let (santos_hits, santos_stats) =
                    index.santos().discover_capped(&query, 6, stage_budget.santos_candidates);
                prop_assert_eq!(&staged[0].1, &santos_hits);
                expected.record_santos(&santos_stats, Duration::ZERO);
                let (join_hits, join_stats) = index.discover_top_k_with_stats(
                    &query,
                    6,
                    &stage_budget.joinable,
                );
                prop_assert_eq!(&staged[1].1, &join_hits);
                // The by-hand stage replay recorded one extra topk query
                // into the index; mirror both it and the stage's own.
                expected.record_topk(&join_stats, Duration::ZERO);
                expected.record_topk(&join_stats, Duration::ZERO);

                let got = index.telemetry();
                prop_assert_eq!(got.topk, expected.topk, "topk counters diverged");
                prop_assert_eq!(got.santos, expected.santos, "santos counters diverged");
                prop_assert_eq!(
                    got.joinable_latency.samples,
                    expected.joinable_latency.samples
                );
                prop_assert_eq!(got.santos_latency.samples, expected.santos_latency.samples);
                compared += 1;
            } else {
                op.apply(&mut lake);
                index.sync(&lake);
            }
        }
        prop_assert!(compared > 0, "trace contained no queries");

        // A full rebuild (handing the index an older lineage of the lake)
        // keeps the telemetry window instead of zeroing it.
        let pre_churn = lake.clone();
        let probe = Table::from_rows(
            "telemetry_rebuild_probe",
            &["key"],
            vec![vec!["probe_tok".into()]],
        )
        .unwrap();
        lake.add_table(probe).unwrap();
        index.sync(&lake);
        index.sync(&pre_churn); // pre-fork version → changelog miss → rebuild
        prop_assert!(index.is_current(&pre_churn));
        prop_assert_eq!(index.telemetry().topk, expected.topk);
        prop_assert_eq!(index.telemetry().santos, expected.santos);
        index.reset_telemetry();
        prop_assert_eq!(index.telemetry(), DiscoveryTelemetry::default());
    }

    /// Sketch-path soundness under churn: every reported table carries its
    /// exact brute-force containment score, nothing below the threshold is
    /// reported, and a just-added full superset is found immediately.
    #[test]
    fn sketch_path_stays_sound_under_churn(seed in any::<u64>(), ops in 8usize..24) {
        let trace = ChurnWorkload {
            initial_tables: 8,
            rows_per_table: 20,
            vocab: 200,
            ops,
            seed,
        }
        .generate();
        let kb = Arc::new(covid_kb());
        let config = LakeIndexConfig {
            santos: SantosConfig::default(),
            lshe: LshEnsembleConfig {
                num_perm: 64,
                num_partitions: 4,
                rebalance_dirtiness: 0.3,
                ..LshEnsembleConfig::default()
            },
            metadata: None,
        };
        let threshold = config.lshe.threshold;
        let mut lake = DataLake::from_tables(trace.initial).unwrap();
        let mut index = LakeIndex::build(&lake, kb.clone(), config.clone());
        for op in trace.ops {
            match &op {
                ChurnOp::Query(q) => {
                    index.sync(&lake);
                    let truth = brute_containment(&lake, q);
                    let query = TableQuery::with_column(q.clone(), 0);
                    for hit in index.lshe().discover(&query, usize::MAX) {
                        let brute = truth.get(&hit.table).copied().unwrap_or(0.0);
                        prop_assert!(
                            hit.score >= threshold - 1e-12,
                            "{} reported below threshold: {}",
                            hit.table,
                            hit.score
                        );
                        prop_assert!(
                            hit.score <= brute + 1e-12,
                            "{} reported {} above its true containment {}",
                            hit.table,
                            hit.score,
                            brute
                        );
                    }
                }
                ChurnOp::Add(t) => {
                    op.apply(&mut lake);
                    index.sync(&lake);
                    // Churn safety: the new table fully contains a query
                    // over its own keys; staged domains are exact-scanned,
                    // so it must surface at containment 1.0 at once.
                    let probe = Table::from_rows(
                        "staged_probe",
                        &["key"],
                        t.rows().map(|r| vec![r[0].clone()]).collect(),
                    )
                    .unwrap();
                    let hits = index
                        .lshe()
                        .discover(&TableQuery::with_column(probe, 0), usize::MAX);
                    prop_assert!(
                        hits.iter()
                            .any(|d| d.table == t.name() && (d.score - 1.0).abs() < 1e-12),
                        "freshly added {} not discovered: {:?}",
                        t.name(),
                        hits
                    );
                }
                _ => {
                    op.apply(&mut lake);
                }
            }
        }
    }
}

/// The concurrent case of `telemetry_stays_in_lockstep_with_per_query_stats`:
/// the index's sharded telemetry under N threads must equal the sum of the
/// per-request stats those same calls returned — no lost updates, no
/// double counts, regardless of which shard each thread landed on.
/// (Latency histograms are checked for sample counts; durations are
/// wall-clock.)
#[test]
fn telemetry_lockstep_holds_under_concurrent_queries() {
    let trace = ChurnWorkload {
        initial_tables: 10,
        rows_per_table: 14,
        vocab: 160,
        ops: 24,
        seed: 83,
    }
    .generate();
    let kb = Arc::new(covid_kb());
    let mut lake = DataLake::from_tables(trace.initial).unwrap();
    // Apply the whole trace up front: this test is about concurrent
    // *recording*, so the lake stays fixed while threads query.
    for op in trace.ops {
        op.apply(&mut lake);
    }
    let queries: Vec<TableQuery> = lake
        .tables()
        .take(4)
        .map(|t| TableQuery::with_column(t.as_ref().clone(), 0))
        .collect();
    let index = LakeIndex::build(&lake, kb, exact_config());
    let budget = QueryBudget::unlimited().with_max_verifications(6);
    let stage_budget = DiscoveryBudget::default();

    const THREADS: usize = 8;
    const PER_THREAD: usize = 12;
    let per_thread_expected: Vec<DiscoveryTelemetry> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let index = &index;
                let queries = &queries;
                let budget = &budget;
                let stage_budget = &stage_budget;
                scope.spawn(move || {
                    let mut expected = DiscoveryTelemetry::default();
                    for i in 0..PER_THREAD {
                        let q = &queries[(t + i) % queries.len()];
                        let (_, stats) = index.discover_top_k_with_stats(q, 6, budget);
                        expected.record_topk(&stats, Duration::ZERO);
                        // The budgeted stage records both legs; fold the
                        // equivalent per-leg stats by hand (deterministic
                        // given the fixed lake + exact config).
                        let _ = index.discover_all_budgeted(q, 6, stage_budget);
                        let (_, santos_stats) =
                            index
                                .santos()
                                .discover_capped(q, 6, stage_budget.santos_candidates);
                        expected.record_santos(&santos_stats, Duration::ZERO);
                        let (_, join_stats) =
                            index.discover_top_k_with_stats(q, 6, &stage_budget.joinable);
                        expected.record_topk(&join_stats, Duration::ZERO);
                        expected.record_topk(&join_stats, Duration::ZERO);
                    }
                    expected
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let mut expected = DiscoveryTelemetry::default();
    for e in &per_thread_expected {
        expected.merge(e);
    }
    let got = index.telemetry();
    assert_eq!(
        got.topk, expected.topk,
        "topk counters diverged under threads"
    );
    assert_eq!(
        got.santos, expected.santos,
        "santos counters diverged under threads"
    );
    assert_eq!(
        got.joinable_latency.samples,
        expected.joinable_latency.samples
    );
    assert_eq!(got.santos_latency.samples, expected.santos_latency.samples);
}

/// Deterministic spot-check of the rebalance boundary: enough removals to
/// trip the dirtiness budget repeatedly, then equality with a rebuild.
#[test]
fn tombstone_triggered_rebalance_matches_rebuild() {
    let trace = ChurnWorkload {
        initial_tables: 12,
        rows_per_table: 10,
        vocab: 120,
        ops: 0,
        seed: 7,
    }
    .generate();
    let kb = Arc::new(covid_kb());
    let config = exact_config();
    let mut lake = DataLake::from_tables(trace.initial.clone()).unwrap();
    let mut index = LakeIndex::build(&lake, kb.clone(), config.clone());

    // Remove half the lake one table at a time (each sync applies one
    // tombstone; the 0.15 budget forces several rebalances along the way).
    let names: Vec<String> = lake.names().map(str::to_string).collect();
    for name in names.iter().take(6) {
        lake.remove(name).unwrap();
        index.sync(&lake);
    }
    let fresh = LakeIndex::build(&lake, kb, config);
    let probe = TableQuery::with_column(trace.initial[7].clone(), 0);
    assert_eq!(
        probe_all(&index, &probe, 8),
        probe_all(&fresh, &probe, 8),
        "index after tombstone-triggered rebalances must match a rebuild"
    );
}
