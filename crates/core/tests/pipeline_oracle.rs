//! End-to-end equivalence oracle for the planner-routed discovery stage:
//! `Pipeline::run` with [`DiscoveryBudget::unlimited`] must produce
//! **byte-identical** `Discovered` sets — per-engine lists, order and
//! tie-breaks included — to the pre-routing probe-all path (each engine's
//! own scan-then-truncate `discover`), across churned and freshly built
//! indexes.
//!
//! This is the contract that lets the routing ship at all: the budgeted
//! machinery (signature cache, partition scheduling, posting-list
//! verification, bound-ranked capped SANTOS retrieval) collapses to the
//! legacy output exactly when nothing is capped, so any drift here is a
//! planner/cap bug, not a tuning choice.

use std::sync::Arc;

use dialite_core::Pipeline;
use dialite_datagen::lake::{LakeSpec, SyntheticLake};
use dialite_datagen::workloads::{ChurnOp, ChurnWorkload};
use dialite_discovery::{
    Discovered, Discovery, DiscoveryBudget, LakeIndex, LakeIndexConfig, LshEnsembleConfig,
    SantosConfig, TableQuery,
};
use dialite_kb::curated::covid_kb;
use dialite_kb::KnowledgeBase;
use dialite_table::DataLake;
use proptest::prelude::*;

/// The legacy scan-then-truncate discovery stage: each engine of a freshly
/// built `LakeIndex` probed with its own `discover`, in the stage's engine
/// order — no planner, no caps and no telemetry.
fn legacy_stage(
    lake: &DataLake,
    kb: Arc<KnowledgeBase>,
    config: &LakeIndexConfig,
    query: &TableQuery,
    k: usize,
) -> Vec<(String, Vec<Discovered>)> {
    let index = LakeIndex::build(lake, kb, config.clone());
    let mut legs: Vec<&dyn Discovery> = vec![index.santos(), index.lshe()];
    legs.extend(index.metadata().map(|m| m as &dyn Discovery));
    legs.into_iter()
        .map(|leg| (leg.name().to_string(), leg.discover(query, k)))
        .collect()
}

fn configs() -> Vec<LakeIndexConfig> {
    vec![
        // The real sketch path (both stages see the same sketches, so
        // LSH randomness cancels out of the comparison).
        LakeIndexConfig {
            santos: SantosConfig::default(),
            lshe: LshEnsembleConfig {
                num_perm: 64,
                num_partitions: 4,
                rebalance_dirtiness: 0.2,
                pool_compact_min: 0,
                ..LshEnsembleConfig::default()
            },
            metadata: None,
        },
        // The exact-verification regime: output is a pure function of the
        // lake state, so equality here pins scores bit-for-bit. The
        // metadata leg is pure too, so it rides along here and the oracle
        // pins its churn-sync equality at the pipeline level as well.
        LakeIndexConfig {
            santos: SantosConfig::default(),
            lshe: LshEnsembleConfig {
                num_perm: 64,
                num_partitions: 4,
                exact_mass_per_token: usize::MAX,
                rebalance_dirtiness: 0.15,
                ..LshEnsembleConfig::default()
            },
            metadata: Some(dialite_discovery::MetadataConfig::default()),
        },
    ]
}

proptest! {
    /// Random churn traces: one pipeline keeps its index warm across the
    /// whole trace (syncing per mutation via `run`), and at every query
    /// point its unlimited-budget `run` output equals the legacy
    /// probe-all stage over a freshly built index.
    #[test]
    fn unlimited_budgeted_run_equals_legacy_probe_all(seed in any::<u64>(), ops in 12usize..28) {
        let trace = ChurnWorkload {
            initial_tables: 8,
            rows_per_table: 12,
            vocab: 150,
            ops,
            seed,
        }
        .generate();
        let kb = Arc::new(covid_kb());
        for config in configs() {
            let mut lake = DataLake::from_tables(trace.initial.clone()).unwrap();
            let pipeline = Pipeline::builder()
                .indexed_discovery(kb.clone(), config.clone())
                .discovery_budget(DiscoveryBudget::unlimited())
                .top_k(6)
                .build();
            let mut compared = 0usize;
            for op in &trace.ops {
                if let ChurnOp::Query(q) = op {
                    let query = TableQuery::with_column(q.clone(), 0);
                    // The churn-maintained, planner-routed stage...
                    let got = pipeline.discover_stage(&lake, &query);
                    // ...vs the legacy probe-all scan over a fresh build.
                    let want = legacy_stage(&lake, kb.clone(), &config, &query, 6);
                    prop_assert_eq!(
                        &got,
                        &want,
                        "budgeted stage diverged from probe-all at query {}",
                        compared
                    );
                    // And `run` reports exactly that stage (when it has an
                    // integration set to build at all).
                    if let Ok(run) = pipeline.run(&lake, &query) {
                        prop_assert_eq!(
                            &run.discovered,
                            &want,
                            "run.discovered diverged at query {}",
                            compared
                        );
                    }
                    compared += 1;
                } else {
                    op.apply(&mut lake);
                }
            }
            prop_assert!(compared > 0, "trace contained no queries");
        }
    }
}

/// Deterministic datagen-lake spot check: unlimited-budget `run` equals
/// the legacy stage on a synthetic lake with its own ground-truth KB —
/// the KB-rich regime where the SANTOS type index (and therefore the
/// capped-retrieval machinery) actually drives candidate retrieval.
#[test]
fn unlimited_run_matches_legacy_on_a_synthetic_lake() {
    let synth = SyntheticLake::generate(&LakeSpec {
        universes: 4,
        fragments_per_universe: 4,
        rows_per_universe: 50,
        categorical_cols: 2,
        numeric_cols: 1,
        null_rate: 0.05,
        value_dirt_rate: 0.0,
        scramble_headers: false,
        seed: 97,
    });
    let kb = Arc::new(synth.truth.kb.clone());
    let config = LakeIndexConfig::default();
    let pipeline = Pipeline::builder()
        .indexed_discovery(kb.clone(), config.clone())
        .discovery_budget(DiscoveryBudget::unlimited())
        .top_k(5)
        .build();
    let mut compared = 0usize;
    for table in synth.lake.tables().take(8) {
        let query = TableQuery::with_column(table.as_ref().clone(), 0);
        let got = pipeline.discover_stage(&synth.lake, &query);
        let want = legacy_stage(&synth.lake, kb.clone(), &config, &query, 5);
        assert_eq!(got, want, "diverged on query {}", table.name());
        compared += 1;
    }
    assert!(compared > 0);
}

/// The flip side of the oracle: a *finite* budget may legitimately trim
/// results, but what it reports stays a subset of the legacy truth at
/// identical scores — budgets drop work, they never invent results.
#[test]
fn finite_budgets_stay_a_sound_subset_of_legacy() {
    let trace = ChurnWorkload {
        initial_tables: 12,
        rows_per_table: 14,
        vocab: 160,
        ops: 0,
        seed: 5,
    }
    .generate();
    let lake = DataLake::from_tables(trace.initial.clone()).unwrap();
    let kb = Arc::new(covid_kb());
    let config = LakeIndexConfig {
        santos: SantosConfig::default(),
        lshe: LshEnsembleConfig {
            exact_mass_per_token: usize::MAX,
            ..LshEnsembleConfig::default()
        },
        metadata: None,
    };
    let tight = DiscoveryBudget::default()
        .with_santos_candidates(2)
        .with_joinable(
            dialite_discovery::QueryBudget::unlimited()
                .with_max_partitions(1)
                .with_max_verifications(4),
        );
    let pipeline = Pipeline::builder()
        .indexed_discovery(kb.clone(), config.clone())
        .discovery_budget(tight)
        .top_k(6)
        .build();
    for q in trace.initial.iter().take(6) {
        let query = TableQuery::with_column(q.clone(), 0);
        let got = pipeline.discover_stage(&lake, &query);
        let want = legacy_stage(&lake, kb.clone(), &config, &query, usize::MAX);
        for ((engine, hits), (w_engine, truth)) in got.iter().zip(&want) {
            assert_eq!(engine, w_engine);
            for hit in hits {
                let full = truth
                    .iter()
                    .find(|d| d.table == hit.table)
                    .unwrap_or_else(|| panic!("{engine} invented {} for {}", hit.table, q.name()));
                assert_eq!(
                    hit.score, full.score,
                    "{engine} reported a drifted score for {}",
                    hit.table
                );
            }
        }
    }
}
