//! Shard oracle: a [`ShardedLakeIndex`] at any shard count must be
//! observationally identical to the single index — the storage/execution
//! split is an implementation detail, never a semantics change.
//!
//! Three properties are pinned:
//!
//! * **Byte-identity across shard counts**: with the LSH sketch bypassed
//!   (`exact_mass_per_token = usize::MAX`, the same regime as the
//!   incremental oracle), discovery output is a pure function of lake
//!   state, so N ∈ {1, 2, 4, 8} shards must agree bit-for-bit with the
//!   single index on keys *and* scores — across churn traces (per-shard
//!   incremental `sync` included), at unlimited *and* finite budgets, on
//!   the full two-leg stage and on the joinable top-k leg alone.
//! * **Telemetry lockstep**: the merged window equals the fold of the
//!   per-shard windows, counter for counter, at every query point.
//!
//! The per-thread accumulator behind each shard's window is pinned by its
//! own thread-churn merge property in `src/telemetry.rs`.

use std::sync::Arc;

use dialite_datagen::workloads::{ChurnOp, ChurnWorkload};
use dialite_discovery::{
    DiscoveryBudget, DiscoveryTelemetry, LakeIndexConfig, LshEnsembleConfig, MetadataConfig,
    QueryBudget, SantosConfig, ShardedLakeIndex, TableQuery,
};
use dialite_kb::curated::covid_kb;
use dialite_table::DataLake;
use proptest::prelude::*;

/// Sketch-free config (the incremental oracle's): every stored domain is
/// verified exactly, so discovery output is deterministic given the lake —
/// the precondition for byte-identity across shardings. The metadata leg
/// is enabled so the oracle covers the full three-leg stage.
fn exact_config() -> LakeIndexConfig {
    LakeIndexConfig {
        santos: SantosConfig::default(),
        lshe: LshEnsembleConfig {
            num_perm: 64,
            num_partitions: 4,
            exact_mass_per_token: usize::MAX,
            ..LshEnsembleConfig::default()
        },
        metadata: Some(MetadataConfig::default()),
    }
}

/// Merged telemetry must equal the fold of the per-shard windows —
/// counters, latency sample counts, everything.
fn assert_telemetry_lockstep(index: &ShardedLakeIndex) {
    let merged = index.telemetry();
    let mut folded = DiscoveryTelemetry::default();
    for window in index.telemetry_per_shard() {
        folded.merge(&window);
    }
    assert_eq!(merged.topk, folded.topk, "topk counters out of lockstep");
    assert_eq!(
        merged.santos, folded.santos,
        "santos counters out of lockstep"
    );
    assert_eq!(
        merged.metadata, folded.metadata,
        "metadata counters out of lockstep"
    );
    assert_eq!(
        merged.joinable_latency.samples,
        folded.joinable_latency.samples
    );
    assert_eq!(merged.santos_latency.samples, folded.santos_latency.samples);
    assert_eq!(
        merged.metadata_latency.samples,
        folded.metadata_latency.samples
    );
}

proptest! {
    /// The main oracle: every shard count answers every query point of a
    /// random churn trace exactly like the single index — both legs,
    /// budgeted and unlimited — and merged telemetry stays in lockstep
    /// with the per-shard sums throughout.
    #[test]
    fn sharded_discovery_equals_single_index_across_churn(
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
        let config = exact_config();
        let mut lake = DataLake::from_tables(trace.initial).unwrap();
        let single = ShardedLakeIndex::build(&lake, kb.clone(), config.clone(), 1);
        let sharded: Vec<ShardedLakeIndex> = [2usize, 4, 8]
            .iter()
            .map(|&n| ShardedLakeIndex::build(&lake, kb.clone(), config.clone(), n))
            .collect();
        // Finite but covering on these small lakes (every split slice
        // still admits the whole stripe), so budget-splitting itself is
        // exercised without perturbing the exact-path output.
        let budgets = [DiscoveryBudget::unlimited(), DiscoveryBudget::default()];
        let topk_budget = QueryBudget::unlimited();
        let mut compared = 0usize;
        for op in trace.ops {
            if let ChurnOp::Query(q) = &op {
                single.sync(&lake);
                let query = TableQuery::with_column(q.clone(), 0);
                for index in &sharded {
                    index.sync(&lake);
                    prop_assert!(index.is_current(&lake));
                    for budget in &budgets {
                        prop_assert_eq!(
                            index.discover_all_budgeted(&query, 6, budget),
                            single.discover_all_budgeted(&query, 6, budget),
                            "{}-shard stage diverged from single index at query {}",
                            index.shard_count(),
                            compared
                        );
                    }
                    prop_assert_eq!(
                        index.discover_top_k(&query, 6, &topk_budget),
                        single.discover_top_k(&query, 6, &topk_budget),
                        "{}-shard top-k diverged from single index at query {}",
                        index.shard_count(),
                        compared
                    );
                    assert_telemetry_lockstep(index);
                }
                compared += 1;
            } else {
                op.apply(&mut lake);
            }
        }
        prop_assert!(compared > 0, "trace contained no queries");
    }
}
