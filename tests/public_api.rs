//! The public API the benchmark package (`benchmark/`) is built against.
//!
//! The benchmark path-depends on the workspace crates and is not part of
//! the workspace, so without this file a rename of any item below would
//! only fail the benchmark's own build. Each item is named by path (and
//! each method coerced to a value), so a rename or removal fails
//! `cargo test` here instead. Nothing is called: this is a compile-time
//! contract.

use dialite_align::{HolisticMatcher, KbAnnotator};
use dialite_analyze::EntityResolver;
use dialite_core::{demo, DurableService, Pipeline, PipelineError, PipelineRun};
use dialite_datagen::workloads::{ChurnOp, HeterogeneousLakeWorkload, ServingOp};
use dialite_discovery::{
    union_integration_set, Discovered, Discovery, DiscoveryBudget, DiscoveryService,
    DiscoveryTelemetry, LakeIndex, LakeIndexConfig, MetadataConfig, MetadataDiscovery,
    SantosConfig, SantosDiscovery, ShardedLakeIndex, TableQuery,
};
use dialite_durable::{DurableConfig, DurableLake};
use dialite_integrate::{AliteFd, Integrator, OuterJoinIntegrator};
use dialite_kb::curated::covid_kb;
use dialite_table::{table_to_csv, DataLake, Table, Value};

#[test]
fn benchmark_api_paths_resolve() {
    // Pipeline: construction, the stages, durability and telemetry.
    let _ = Pipeline::run;
    let _ = Pipeline::discover_stage;
    let _ = Pipeline::demo_default;
    let _ = Pipeline::demo_configured;
    let _ = Pipeline::open_durable_configured;
    let _ = Pipeline::serve_durable;
    let _ = Pipeline::snapshot;
    let _ = Pipeline::telemetry;
    let _ = Pipeline::sketch_work;
    let _ = Pipeline::set_top_k;
    let _ = Pipeline::set_discovery_budget;
    let _ = Pipeline::serve;
    let _ = |run: PipelineRun| run.alternatives;
    let _: Option<PipelineError> = None;
    let _ = demo::covid_lake;

    // Discovery: the index, its shards and the two capped legs.
    let _ = LakeIndex::build;
    let _ = LakeIndex::discover_top_k_with_stats;
    let _ = LakeIndex::discover_all_budgeted;
    let _ = LakeIndex::sketch_work;
    let _ = LakeIndex::discover_top_k;
    let _ = LakeIndex::santos;
    let _ = LakeIndex::lshe;
    let _ = LakeIndex::metadata;
    let _ = LakeIndex::telemetry;
    let _ = ShardedLakeIndex::build;
    let _ = ShardedLakeIndex::discover_all_budgeted;
    let _ = ShardedLakeIndex::sketch_work;
    let _ = ShardedLakeIndex::kb;
    let _ = ShardedLakeIndex::config;
    let _ = SantosDiscovery::build;
    let _ = SantosDiscovery::discover_capped;
    let _ = MetadataDiscovery::build;
    let _ = MetadataDiscovery::discover_capped;
    let _ = <LakeIndex as Discovery>::discover;
    let _ = DiscoveryService::query_default;
    let _ = DiscoveryService::telemetry;
    let _ = DiscoveryService::discovery_telemetry;
    let _ = union_integration_set;
    let _ = DiscoveryBudget::unlimited;
    let _ = TableQuery::with_column;
    let _: Option<(Discovered, DiscoveryTelemetry)> = None;

    // Telemetry: the per-leg record paths a harness-owned window folds
    // into, and every field its per-leg metrics read.
    let _ = DiscoveryTelemetry::record_topk;
    let _ = DiscoveryTelemetry::record_santos;
    let _ = DiscoveryTelemetry::record_metadata;
    let _ = |t: &DiscoveryTelemetry| {
        let latency = [&t.joinable_latency, &t.santos_latency, &t.metadata_latency];
        let _ = latency.map(|h| (h.total_micros, h.samples));
        let _ = (
            t.topk.queries,
            t.topk.candidates_verified,
            t.topk.partitions_probed,
            t.topk.partitions_pruned,
            t.topk.postings_skipped,
            t.topk.cache_hits,
            t.topk.cache_misses,
            t.topk.exact_path,
            t.topk.budget_exhausted,
        );
        let _ = [&t.santos, &t.metadata].map(|leg| {
            (
                leg.queries,
                leg.candidates_retrieved,
                leg.candidates_scored,
                leg.bound_pruned,
                leg.cap_hits,
            )
        });
    };
    let _ = (
        LakeIndexConfig::default,
        MetadataConfig::default,
        SantosConfig::default,
    );

    // Durability: the commitlog store and the durable service.
    let _ = DurableLake::open;
    let _ = DurableLake::append_since;
    let _ = DurableConfig::default;
    let _ = |service: &DurableService| service.mutate(|_: &mut DataLake| ());
    let _ = DurableService::service;

    // Align, integrate, analyze.
    let _ = HolisticMatcher::align;
    let _: Option<KbAnnotator> = None;
    let _ = <AliteFd as Integrator>::integrate;
    let _ = <OuterJoinIntegrator as Integrator>::integrate;
    let _ = EntityResolver::resolve;

    // Inputs: the lake, tables and the generated workloads.
    let _ = DataLake::load_dir;
    let _ = Table::from_rows::<&str>;
    let _ = table_to_csv;
    let _ = covid_kb;
    let _ = HeterogeneousLakeWorkload::default;
    let _: Option<(ChurnOp, ServingOp, Value)> = None;
}
