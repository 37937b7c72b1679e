//! The pipeline runner.

use std::fmt;
use std::io;
use std::path::Path;
use std::sync::{Arc, RwLock};

use dialite_align::{Alignment, HolisticMatcher, KbAnnotator};
use dialite_discovery::{
    top_k_discovered, union_integration_set, Discovered, Discovery, DiscoveryBudget,
    DiscoveryService, DiscoveryTelemetry, LakeIndexConfig, QueryBudget, ServingConfig,
    ShardedLakeIndex, TableQuery,
};
use dialite_durable::{DurableConfig, DurableLake};
use dialite_integrate::{
    AliteFd, IntegrateError, IntegratedTable, Integrator, OuterJoinIntegrator,
};
use dialite_kb::curated::covid_kb;
use dialite_kb::KnowledgeBase;
use dialite_table::{DataLake, Table, TableError};

use crate::durable::DurableService;

/// Pipeline failures.
#[derive(Debug)]
pub enum PipelineError {
    /// An integration engine failed.
    Integrate(IntegrateError),
    /// A table-level failure (unknown table etc.).
    Table(TableError),
    /// The discovery stage produced an empty integration set and the query
    /// alone cannot be integrated meaningfully.
    EmptyIntegrationSet,
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Integrate(e) => write!(f, "integration failed: {e}"),
            PipelineError::Table(e) => write!(f, "table error: {e}"),
            PipelineError::EmptyIntegrationSet => {
                write!(f, "discovery produced an empty integration set")
            }
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<IntegrateError> for PipelineError {
    fn from(e: IntegrateError) -> Self {
        PipelineError::Integrate(e)
    }
}

impl From<TableError> for PipelineError {
    fn from(e: TableError) -> Self {
        PipelineError::Table(e)
    }
}

/// Everything a pipeline run produced, stage by stage — the demo lets users
/// "interact with the system after each step so that they can validate the
/// intermediate results" (§2.4), so every intermediate is kept.
pub struct PipelineRun {
    /// Per-engine discovery results, under the pipeline's **one ordering
    /// rule**: engines appear in registration order (indexed engines
    /// first — `santos`, then `lsh-ensemble` — followed by plain engines
    /// in builder order), and every engine's hit list is ranked by
    /// [`top_k_discovered`] (descending score, NaN last, ties broken by
    /// table name) and truncated to the pipeline's `top_k`. Merged views
    /// ([`Pipeline::discover_top_k`]) fold the per-engine lists they span
    /// (the planned joinable leg plus the plain engines) through a
    /// best-score union (NaN propagates, never fabricated) and re-rank
    /// with the same rule, so the two orderings can never drift apart.
    pub discovered: Vec<(String, Vec<Discovered>)>,
    /// The integration set: the query table first, then discovered tables.
    pub integration_set: Vec<Arc<Table>>,
    /// The integration-ID assignment.
    pub alignment: Alignment,
    /// The primary integration result.
    pub integrated: IntegratedTable,
    /// Results of the alternative integration operators, by engine name.
    pub alternatives: Vec<(String, IntegratedTable)>,
}

impl PipelineRun {
    /// A human-readable per-stage report.
    pub fn report(&self) -> String {
        let mut out = String::new();
        out.push_str("== Discover ==\n");
        for (engine, hits) in &self.discovered {
            let names: Vec<String> = hits
                .iter()
                .map(|d| format!("{} ({:.3})", d.table, d.score))
                .collect();
            out.push_str(&format!("{engine}: [{}]\n", names.join(", ")));
        }
        let set: Vec<&str> = self.integration_set.iter().map(|t| t.name()).collect();
        out.push_str(&format!("integration set: [{}]\n", set.join(", ")));
        out.push_str("\n== Align ==\n");
        for (t, table) in self.integration_set.iter().enumerate() {
            let ids: Vec<String> = (0..table.column_count())
                .map(|c| {
                    format!(
                        "{} → {}",
                        table.schema().column(c).name,
                        self.alignment.name_of(self.alignment.id_of(t, c))
                    )
                })
                .collect();
            out.push_str(&format!("{}: {}\n", table.name(), ids.join(", ")));
        }
        out.push_str("\n== Integrate ==\n");
        out.push_str(&self.integrated.table().to_string());
        for (name, alt) in &self.alternatives {
            out.push_str(&format!("\n-- alternative: {name} --\n"));
            out.push_str(&alt.table().to_string());
        }
        out
    }
}

/// The lazily built, churn-following [`ShardedLakeIndex`] a pipeline keeps
/// warm across runs, keyed on [`DataLake::version`]. With the default
/// single shard the execution layer is a byte-for-byte passthrough over
/// one `LakeIndex` (no threads, no budget splits, no re-rank); with
/// [`PipelineBuilder::shards`]` > 1` the lake is striped across shards and
/// each query probes them in order on the caller's thread.
struct IndexedDiscovery {
    kb: Arc<KnowledgeBase>,
    config: LakeIndexConfig,
    shards: usize,
    index: Option<ShardedLakeIndex>,
}

impl IndexedDiscovery {
    /// Make the index reflect the lake's current version: build on first
    /// use, apply the changelog delta on a version mismatch (each shard
    /// replays only its own stripe's events), no-op when already current.
    fn ensure_current(&mut self, lake: &DataLake) -> &ShardedLakeIndex {
        match &self.index {
            Some(index) => index.sync(lake),
            None => {
                self.index = Some(ShardedLakeIndex::build(
                    lake,
                    self.kb.clone(),
                    self.config.clone(),
                    self.shards,
                ));
            }
        }
        self.index.as_ref().expect("index just ensured")
    }

    /// The index, if it already reflects the lake's current version.
    fn current(&self, lake: &DataLake) -> Option<&ShardedLakeIndex> {
        self.index.as_ref().filter(|ix| ix.is_current(lake))
    }
}

/// The DIALITE pipeline. Build with [`Pipeline::builder`], or use
/// [`Pipeline::demo_default`] for the paper's demo configuration.
pub struct Pipeline {
    /// Maintained discovery over the (mutable) lake, if configured.
    /// `RwLock`, not `Mutex`: the steady state is many concurrent queries
    /// over an unchanged lake (read guard); the write guard is taken only
    /// to build or delta-sync after churn.
    indexed: Option<RwLock<IndexedDiscovery>>,
    discoveries: Vec<Box<dyn Discovery>>,
    matcher: HolisticMatcher,
    integrator: Box<dyn Integrator>,
    alternatives: Vec<Box<dyn Integrator>>,
    top_k: usize,
    budget: DiscoveryBudget,
}

/// Builder for [`Pipeline`].
pub struct PipelineBuilder {
    indexed: Option<IndexedDiscovery>,
    discoveries: Vec<Box<dyn Discovery>>,
    matcher: HolisticMatcher,
    integrator: Box<dyn Integrator>,
    alternatives: Vec<Box<dyn Integrator>>,
    top_k: usize,
    budget: DiscoveryBudget,
    shards: usize,
}

impl Default for PipelineBuilder {
    fn default() -> Self {
        PipelineBuilder {
            indexed: None,
            discoveries: Vec::new(),
            matcher: HolisticMatcher::default(),
            integrator: Box::new(AliteFd::default()),
            alternatives: Vec::new(),
            top_k: 5,
            budget: DiscoveryBudget::default(),
            shards: 1,
        }
    }
}

impl PipelineBuilder {
    /// Add a discovery engine (run in order; results unioned).
    pub fn discovery(mut self, d: Box<dyn Discovery>) -> Self {
        self.discoveries.push(d);
        self
    }

    /// Use a maintained index (SANTOS + LSH Ensemble behind a
    /// [`ShardedLakeIndex`]) as the discovery stage. The index is built
    /// lazily on the first [`Pipeline::run`] and then *kept* across runs:
    /// each run checks [`DataLake::version`] and applies only the lake's
    /// changelog delta instead of rebuilding — the churn-safe path for
    /// mutable lakes. [`PipelineBuilder::shards`] sets how many stripes
    /// the lake is partitioned into (default 1: the classic single
    /// `LakeIndex`, byte-for-byte).
    pub fn indexed_discovery(mut self, kb: Arc<KnowledgeBase>, config: LakeIndexConfig) -> Self {
        self.indexed = Some(IndexedDiscovery {
            kb,
            config,
            shards: 1,
            index: None,
        });
        self
    }

    /// Number of index shards the maintained discovery stage stripes the
    /// lake across (clamped to at least 1; default 1). A query probes the
    /// shards in order on the caller's thread with per-shard
    /// [`QueryBudget::split`] slices and merges under the pipeline's one
    /// ordering rule; `shards(1)` is byte-for-byte the unsharded index.
    /// Sharding buys write-lock granularity under churn, not read speed.
    /// Only meaningful together with
    /// [`PipelineBuilder::indexed_discovery`]; plain engines are never
    /// sharded.
    pub fn shards(mut self, n: usize) -> Self {
        self.shards = n.max(1);
        self
    }

    /// Replace the alignment matcher.
    pub fn matcher(mut self, m: HolisticMatcher) -> Self {
        self.matcher = m;
        self
    }

    /// Replace the primary integration operator (default: ALITE's FD).
    pub fn integrator(mut self, i: Box<dyn Integrator>) -> Self {
        self.integrator = i;
        self
    }

    /// Add an alternative integration operator for comparison (Fig. 6).
    pub fn alternative(mut self, i: Box<dyn Integrator>) -> Self {
        self.alternatives.push(i);
        self
    }

    /// Number of tables each discovery engine returns (§2.1: "users can
    /// control the number of tables returned").
    pub fn top_k(mut self, k: usize) -> Self {
        self.top_k = k;
        self
    }

    /// Work limits of the indexed discovery stage: the joinable leg's
    /// per-query [`QueryBudget`] and the SANTOS candidate cap. The default
    /// is generous but finite; [`DiscoveryBudget::unlimited`] reproduces
    /// the legacy probe-all stage exactly. Plain engines added via
    /// [`PipelineBuilder::discovery`] are not plannable and ignore the
    /// budget.
    pub fn discovery_budget(mut self, budget: DiscoveryBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Finalize.
    pub fn build(self) -> Pipeline {
        let shards = self.shards;
        Pipeline {
            indexed: self.indexed.map(|mut ix| {
                ix.shards = shards;
                RwLock::new(ix)
            }),
            discoveries: self.discoveries,
            matcher: self.matcher,
            integrator: self.integrator,
            alternatives: self.alternatives,
            top_k: self.top_k,
            budget: self.budget,
        }
    }
}

impl Pipeline {
    /// Start building a pipeline.
    pub fn builder() -> PipelineBuilder {
        PipelineBuilder::default()
    }

    /// Adjust the per-engine result count after construction.
    pub fn set_top_k(&mut self, k: usize) {
        self.top_k = k;
    }

    /// Adjust the discovery-stage budget after construction.
    pub fn set_discovery_budget(&mut self, budget: DiscoveryBudget) {
        self.budget = budget;
    }

    /// The discovery-stage budget [`Pipeline::run`] applies.
    pub fn discovery_budget(&self) -> DiscoveryBudget {
        self.budget
    }

    /// A snapshot of the rolling [`DiscoveryTelemetry`] the maintained
    /// index has accumulated across budgeted discovery calls — cache hit
    /// rate, partitions pruned, verification counts, budget-exhaustion
    /// rate and per-engine latency buckets. `None` when the pipeline has
    /// no indexed discovery or the index has not been built yet (no run
    /// has touched it).
    ///
    /// ```
    /// use dialite_core::{demo, Pipeline};
    /// use dialite_discovery::TableQuery;
    ///
    /// let lake = demo::covid_lake();
    /// let pipeline = Pipeline::demo_default(&lake);
    /// let query = TableQuery::with_column(demo::fig2_query(), 1);
    /// pipeline.run(&lake, &query).unwrap();
    ///
    /// let telemetry = pipeline.telemetry().expect("indexed pipeline");
    /// assert_eq!(telemetry.topk.queries, 1);
    /// assert_eq!(telemetry.santos.queries, 1);
    /// println!("{}", telemetry.summary());
    /// ```
    pub fn telemetry(&self) -> Option<DiscoveryTelemetry> {
        let guard = self
            .indexed
            .as_ref()?
            .read()
            .expect("indexed discovery lock");
        guard.index.as_ref().map(ShardedLakeIndex::telemetry)
    }

    /// The merged telemetry window as one JSON object
    /// ([`DiscoveryTelemetry::to_json`]): per-leg counters plus per-engine
    /// latency percentiles, with empty-window percentiles exported as
    /// `null`. Shard windows are merged *before* export (per-shard JSON
    /// rows would not be mergeable). `None` exactly when
    /// [`Pipeline::telemetry`] is `None`.
    ///
    /// ```
    /// use dialite_core::{demo, Pipeline};
    /// use dialite_discovery::TableQuery;
    ///
    /// let lake = demo::covid_lake();
    /// let pipeline = Pipeline::demo_default(&lake);
    /// let query = TableQuery::with_column(demo::fig2_query(), 1);
    /// pipeline.run(&lake, &query).unwrap();
    ///
    /// let json = pipeline.telemetry_json().expect("indexed pipeline");
    /// assert!(json.contains("\"topk\":{\"queries\":1"));
    /// assert!(json.contains("\"joinable_latency\""));
    /// ```
    pub fn telemetry_json(&self) -> Option<String> {
        self.telemetry().map(|t| t.to_json())
    }

    /// Total MinHash signatures the maintained index has computed so far
    /// (summed across shards). `None` without indexed discovery or before
    /// the first build. This is the warm-start metric the recovery oracle
    /// pins: after [`Pipeline::open_durable`] with a sketch-bearing
    /// snapshot, the count is `O(events since snapshot)`, not `O(lake)`.
    pub fn sketch_work(&self) -> Option<u64> {
        let guard = self
            .indexed
            .as_ref()?
            .read()
            .expect("indexed discovery lock");
        guard.index.as_ref().map(ShardedLakeIndex::sketch_work)
    }

    /// Zero the maintained index's telemetry window (no-op when no index
    /// exists yet).
    pub fn reset_telemetry(&self) {
        if let Some(indexed) = &self.indexed {
            let guard = indexed.read().expect("indexed discovery lock");
            if let Some(index) = guard.index.as_ref() {
                index.reset_telemetry();
            }
        }
    }

    /// Promote the pipeline's discovery stage to a standalone
    /// [`DiscoveryService`] — the concurrent serving layer: the service
    /// takes ownership of `lake`, indexes it with the pipeline's KB,
    /// index configuration and shard count
    /// ([`PipelineBuilder::shards`]), and serves version-stamped budgeted
    /// queries from many threads behind bounded admission
    /// (`max_in_flight`; see [`ServingConfig`]). The pipeline's own
    /// `top_k` and discovery budget become the service defaults; with
    /// more than one shard, writers lock one shard at a time while
    /// queries fan out over consistent snapshots.
    ///
    /// Returns `None` when the pipeline has no indexed discovery
    /// configured ([`PipelineBuilder::indexed_discovery`]) — plain
    /// engines are not churn-safe and cannot be served.
    ///
    /// ```
    /// use dialite_core::{demo, Pipeline};
    /// use dialite_discovery::TableQuery;
    ///
    /// let lake = demo::covid_lake();
    /// let pipeline = Pipeline::demo_default(&lake);
    /// let service = pipeline.serve(lake, 64).expect("indexed pipeline");
    /// let query = TableQuery::with_column(demo::fig2_query(), 1);
    /// let response = service.query_default(&query).expect("capacity");
    /// assert!(!response.results.is_empty());
    /// ```
    pub fn serve(&self, lake: DataLake, max_in_flight: usize) -> Option<DiscoveryService> {
        let guard = self
            .indexed
            .as_ref()?
            .read()
            .expect("indexed discovery lock");
        let serving = ServingConfig::default()
            .with_max_in_flight(max_in_flight)
            .with_budget(self.budget)
            .with_k(self.top_k);
        Some(DiscoveryService::with_shards(
            lake,
            guard.kb.clone(),
            guard.config.clone(),
            serving,
            guard.shards,
        ))
    }

    /// The paper's demo configuration over a given lake: a maintained
    /// index (SANTOS-style + LSH Ensemble discovery, built eagerly
    /// here and kept in sync with lake churn across runs) backed by the
    /// curated COVID KB, KB-assisted holistic matching, ALITE FD as the
    /// integrator and outer join as the comparison alternative.
    pub fn demo_default(lake: &DataLake) -> Pipeline {
        Pipeline::demo_sharded(lake, 1)
    }

    /// [`Pipeline::demo_default`] with the maintained index striped across
    /// `shards` index shards ([`PipelineBuilder::shards`]; clamped to at
    /// least 1) — what the CLI's `--shards` flag builds. `shards == 1` is
    /// exactly [`Pipeline::demo_default`].
    pub fn demo_sharded(lake: &DataLake, shards: usize) -> Pipeline {
        Pipeline::demo_configured(lake, shards, LakeIndexConfig::default())
    }

    /// [`Pipeline::demo_sharded`] with an explicit index configuration —
    /// what the CLI's `--metadata` flag builds (a third, header-matching
    /// discovery leg via `LakeIndexConfig::metadata`). The default config
    /// is exactly [`Pipeline::demo_sharded`].
    pub fn demo_configured(lake: &DataLake, shards: usize, config: LakeIndexConfig) -> Pipeline {
        let kb = Arc::new(covid_kb());
        let pipeline = Pipeline::builder()
            .indexed_discovery(kb.clone(), config)
            .shards(shards)
            .matcher(HolisticMatcher::default().with_annotator(Arc::new(KbAnnotator::new(kb))))
            .integrator(Box::new(AliteFd::default()))
            .alternative(Box::new(OuterJoinIntegrator))
            .build();
        if let Some(indexed) = &pipeline.indexed {
            indexed.write().expect("fresh lock").ensure_current(lake);
        }
        pipeline
    }

    /// Open (or create) a durable demo pipeline rooted at `dir`: recover
    /// the lake from the latest snapshot plus the commitlog tail
    /// (tolerating a torn tail), warm-start the maintained index from the
    /// persisted MinHash sketches instead of re-hashing the whole lake,
    /// and re-seed the process stamp source strictly past everything
    /// recovered — so versions minted after a restart can never collide
    /// with persisted history.
    ///
    /// Returns the pipeline (demo configuration, `shards` index stripes),
    /// the recovered lake, and the open durability handle, positioned for
    /// appending. Mutate-and-append through
    /// [`Pipeline::serve_durable`] or append manually with
    /// [`DurableLake::append_since`](dialite_durable::DurableLake::append_since).
    pub fn open_durable(
        dir: &Path,
        shards: usize,
        config: DurableConfig,
    ) -> io::Result<(Pipeline, DataLake, DurableLake)> {
        Pipeline::open_durable_configured(dir, shards, config, LakeIndexConfig::default())
    }

    /// [`Pipeline::open_durable`] with an explicit index configuration
    /// (e.g. the metadata leg enabled). The persisted sketches only cover
    /// the LSH leg, so warm-starting is config-agnostic: any extra legs
    /// are built fresh over the recovered snapshot.
    pub fn open_durable_configured(
        dir: &Path,
        shards: usize,
        config: DurableConfig,
        index_config: LakeIndexConfig,
    ) -> io::Result<(Pipeline, DataLake, DurableLake)> {
        let (durable, recovery) = DurableLake::open(dir, config)?;
        let kb = Arc::new(covid_kb());
        let pipeline = Pipeline::builder()
            .indexed_discovery(kb.clone(), index_config)
            .shards(shards)
            .matcher(HolisticMatcher::default().with_annotator(Arc::new(KbAnnotator::new(kb))))
            .integrator(Box::new(AliteFd::default()))
            .alternative(Box::new(OuterJoinIntegrator))
            .build();
        if let Some(indexed) = &pipeline.indexed {
            let mut guard = indexed.write().expect("fresh lock");
            // Build over the snapshot state — reusing persisted sketches
            // where they still match — then replay the commitlog tail as
            // an ordinary changelog delta: the restored snapshot lake's
            // log floor makes `sync` see exactly the replayed records.
            let index = ShardedLakeIndex::build_reusing(
                &recovery.snapshot,
                guard.kb.clone(),
                guard.config.clone(),
                guard.shards,
                recovery.sketches.as_ref(),
            );
            index.sync(&recovery.lake);
            guard.index = Some(index);
        }
        Ok((pipeline, recovery.lake, durable))
    }

    /// Write a durable snapshot of `lake` — including the maintained
    /// index's MinHash sketches, so the next [`Pipeline::open_durable`]
    /// warm-starts in `O(events since snapshot)` sketch work instead of
    /// `O(lake)` — and truncate the now-covered commitlog. The index is
    /// first caught up with the lake so the exported sketches match the
    /// snapshotted state.
    pub fn snapshot(&self, lake: &DataLake, durable: &mut DurableLake) -> io::Result<()> {
        let sketches = self.indexed.as_ref().map(|indexed| {
            let mut guard = indexed.write().expect("indexed discovery lock");
            guard.ensure_current(lake).export_sketches()
        });
        durable.write_snapshot(lake, sketches.as_ref())
    }

    /// [`Pipeline::serve`] with write-ahead durability: the returned
    /// [`DurableService`] appends every mutation's events to `durable`'s
    /// commitlog under the lake write lock (log order == serialization
    /// order) and can checkpoint on demand. When the pipeline's own index
    /// is current for `lake`, its sketches warm-start the serving index
    /// so handover does not re-hash the lake.
    ///
    /// Returns `None` when the pipeline has no indexed discovery
    /// configured, exactly like [`Pipeline::serve`].
    pub fn serve_durable(
        &self,
        lake: DataLake,
        max_in_flight: usize,
        durable: DurableLake,
    ) -> Option<DurableService> {
        let guard = self
            .indexed
            .as_ref()?
            .read()
            .expect("indexed discovery lock");
        let serving = ServingConfig::default()
            .with_max_in_flight(max_in_flight)
            .with_budget(self.budget)
            .with_k(self.top_k);
        let sketches = guard.current(&lake).map(ShardedLakeIndex::export_sketches);
        let index = ShardedLakeIndex::build_reusing(
            &lake,
            guard.kb.clone(),
            guard.config.clone(),
            guard.shards,
            sketches.as_ref(),
        );
        let service = DiscoveryService::with_prebuilt(lake, index, serving);
        Some(crate::durable::DurableService::new(service, durable))
    }

    /// Budgeted top-k joinable discovery — the interactive hot path, run
    /// *without* the align/integrate stages.
    ///
    /// Routes through the maintained index's `TopKPlanner` (fanned out
    /// per shard when [`PipelineBuilder::shards`]` > 1`): the
    /// query-column signature is served from a small LRU on repeat
    /// queries, LSH partitions are probed best-bound-first with early
    /// termination, and candidates are verified on exact token posting
    /// lists. `budget` caps per-query work ([`QueryBudget::unlimited`]
    /// reproduces the probe-all results exactly). Like [`Pipeline::run`],
    /// the index first catches up with any lake churn.
    ///
    /// Plain discovery engines added via [`PipelineBuilder::discovery`]
    /// are merged in too (best score per table wins, as in
    /// [`Pipeline::run`]); the budget does not apply to them — they are
    /// not plannable — so a pipeline without indexed discovery degrades
    /// to an unbudgeted engine union.
    ///
    /// ```
    /// use dialite_core::{demo, Pipeline};
    /// use dialite_discovery::{QueryBudget, TableQuery};
    ///
    /// let lake = demo::covid_lake();
    /// let pipeline = Pipeline::demo_default(&lake);
    /// let query = TableQuery::with_column(demo::fig2_query(), 1); // City
    /// let hits = pipeline.discover_top_k(&lake, &query, 3, &QueryBudget::unlimited());
    /// assert_eq!(hits[0].table, "T3"); // joins on City
    /// ```
    pub fn discover_top_k(
        &self,
        lake: &DataLake,
        query: &TableQuery,
        k: usize,
        budget: &QueryBudget,
    ) -> Vec<Discovered> {
        let mut merged: Vec<Discovered> = Vec::new();
        if let Some(indexed) = &self.indexed {
            let guard = indexed.read().expect("indexed discovery lock");
            match guard.current(lake) {
                Some(index) => merged.extend(index.discover_top_k(query, k, budget)),
                None => {
                    drop(guard);
                    let mut guard = indexed.write().expect("indexed discovery lock");
                    merged.extend(guard.ensure_current(lake).discover_top_k(query, k, budget));
                }
            }
        }
        for engine in &self.discoveries {
            // The same sanitation `run` applies: rank + truncate each
            // engine's list before merging, so a table only a plain
            // engine's k+1-th slot would surface cannot appear here while
            // being absent from `run`'s integration set (the one-ordering
            // rule on [`PipelineRun::discovered`]).
            merged.extend(top_k_discovered(engine.discover(query, k), k));
        }
        // NaN-safe best-score union: degenerate engine scores propagate
        // as-is (ranked last) instead of becoming fabricated `-inf`s.
        let mut best: std::collections::HashMap<String, f64> = std::collections::HashMap::new();
        dialite_discovery::merge_best_scores(&mut best, merged);
        top_k_discovered(
            best.into_iter()
                .map(|(table, score)| Discovered { table, score })
                .collect(),
            k,
        )
    }

    /// The discovery stage exactly as [`Pipeline::run`] executes it: the
    /// maintained index (caught up with lake churn, queried under the
    /// configured [`DiscoveryBudget`] through the planner and the capped
    /// SANTOS retrieval) followed by the plain engines, every hit list
    /// under the one ordering rule of [`PipelineRun::discovered`].
    /// Exposed so benchmarks and oracle tests can race the stage without
    /// paying for alignment and integration.
    pub fn discover_stage(
        &self,
        lake: &DataLake,
        query: &TableQuery,
    ) -> Vec<(String, Vec<Discovered>)> {
        let mut discovered = Vec::with_capacity(self.discoveries.len() + 2);
        if let Some(indexed) = &self.indexed {
            // Fast path: the index already matches the lake → query under
            // the shared read guard, so concurrent runs stay parallel.
            let guard = indexed.read().expect("indexed discovery lock");
            match guard.current(lake) {
                Some(index) => {
                    discovered.extend(index.discover_all_budgeted(query, self.top_k, &self.budget))
                }
                None => {
                    drop(guard);
                    // Slow path after churn: take the write guard, catch
                    // up (another thread may have done so meanwhile —
                    // ensure_current then no-ops) and query under it.
                    let mut guard = indexed.write().expect("indexed discovery lock");
                    let index = guard.ensure_current(lake);
                    discovered.extend(index.discover_all_budgeted(query, self.top_k, &self.budget));
                }
            }
        }
        for engine in &self.discoveries {
            // Plain engines are trusted for *scores*, not for shape: the
            // ordering rule re-ranks (NaN-last, name tie-breaks) and
            // truncates, so a misbehaving engine cannot leak an unsorted
            // or over-long list into the report or the integration set.
            discovered.push((
                engine.name().to_string(),
                top_k_discovered(engine.discover(query, self.top_k), self.top_k),
            ));
        }
        discovered
    }

    /// Run the full pipeline: discover an integration set for the query,
    /// align it, integrate it (plus alternatives).
    pub fn run(&self, lake: &DataLake, query: &TableQuery) -> Result<PipelineRun, PipelineError> {
        // Discover. The maintained index (if configured) first catches up
        // with any lake churn since the previous run; its joinable leg is
        // planner-routed and its SANTOS leg capped per `self.budget`.
        let discovered = self.discover_stage(lake, query);
        let results: Vec<Vec<Discovered>> =
            discovered.iter().map(|(_, hits)| hits.clone()).collect();
        let names = union_integration_set(&results);

        // Integration set = query + discovered tables.
        let mut integration_set: Vec<Arc<Table>> = vec![query.table.clone()];
        for name in &names {
            integration_set.push(lake.require(name)?);
        }
        if integration_set.len() == 1 && (self.indexed.is_some() || !self.discoveries.is_empty()) {
            return Err(PipelineError::EmptyIntegrationSet);
        }
        self.integrate_run(discovered, integration_set)
    }

    /// The "traditional data integration scenario" (§2.2): the integration
    /// set is given directly; discovery is skipped.
    pub fn integrate_set(&self, tables: Vec<Table>) -> Result<PipelineRun, PipelineError> {
        if tables.is_empty() {
            return Err(PipelineError::EmptyIntegrationSet);
        }
        let set: Vec<Arc<Table>> = tables.into_iter().map(Arc::new).collect();
        self.integrate_run(Vec::new(), set)
    }

    fn integrate_run(
        &self,
        discovered: Vec<(String, Vec<Discovered>)>,
        integration_set: Vec<Arc<Table>>,
    ) -> Result<PipelineRun, PipelineError> {
        // Align.
        let refs: Vec<&Table> = integration_set.iter().map(|t| t.as_ref()).collect();
        let alignment = self.matcher.align(&refs);

        // Integrate.
        let integrated = self.integrator.integrate(&refs, &alignment)?;
        let mut alternatives = Vec::with_capacity(self.alternatives.len());
        for alt in &self.alternatives {
            alternatives.push((alt.name().to_string(), alt.integrate(&refs, &alignment)?));
        }
        Ok(PipelineRun {
            discovered,
            integration_set,
            alignment,
            integrated,
            alternatives,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demo;
    use dialite_analyze::{extremes, pearson_columns};
    use dialite_discovery::SimilarityDiscovery;
    use dialite_table::{table, Value};

    fn demo_run() -> PipelineRun {
        let lake = demo::covid_lake();
        let pipeline = Pipeline::demo_default(&lake);
        let query = TableQuery::with_column(demo::fig2_query(), 1);
        pipeline.run(&lake, &query).unwrap()
    }

    #[test]
    fn serve_promotes_indexed_discovery_to_a_service() {
        let lake = demo::covid_lake();
        let pipeline = Pipeline::demo_default(&lake);
        let service = pipeline.serve(lake, 16).expect("indexed pipeline serves");
        assert_eq!(service.config().max_in_flight, 16);
        assert_eq!(service.config().k, pipeline.top_k);
        let query = TableQuery::with_column(demo::fig2_query(), 1);
        let response = service.query_default(&query).unwrap();
        assert_eq!(response.version, service.version());
        assert!(response
            .results
            .iter()
            .any(|(_, hits)| hits.iter().any(|d| d.table == "T3")));
        // Churn through the service stays self-contained: the service owns
        // its lake copy and keeps serving the new state.
        let v = service.mutate(|lake| {
            lake.remove("T2");
        });
        assert!(v > response.version);
        assert!(service.query_default(&query).unwrap().version == v);

        // A pipeline without indexed discovery cannot serve.
        let plain = Pipeline::builder()
            .discovery(Box::new(SimilarityDiscovery::new(
                "noop",
                &demo::covid_lake(),
                |_: &Table, _: &Table| 0.0,
            )))
            .build();
        assert!(plain.serve(demo::covid_lake(), 16).is_none());
    }

    #[test]
    fn end_to_end_discovers_t2_and_t3() {
        let run = demo_run();
        let set: Vec<&str> = run.integration_set.iter().map(|t| t.name()).collect();
        assert!(set.contains(&"T1"), "{set:?}");
        assert!(
            set.contains(&"T2"),
            "unionable T2 must be discovered: {set:?}"
        );
        assert!(
            set.contains(&"T3"),
            "joinable T3 must be discovered: {set:?}"
        );
        assert!(!set.contains(&"animals"), "{set:?}");
    }

    #[test]
    fn end_to_end_reproduces_fig3_exactly() {
        let run = demo_run();
        let out = run.integrated.table();
        let expected = demo::fig3_expected();
        assert!(
            out.same_content(&expected),
            "pipeline output:\n{out}\nexpected (paper Fig. 3):\n{expected}"
        );
    }

    #[test]
    fn example3_analysis_over_pipeline_output() {
        let run = demo_run();
        let out = run.integrated.table();
        let col = |name: &str| {
            out.schema()
                .names()
                .position(|n| n.eq_ignore_ascii_case(name))
                .unwrap_or_else(|| panic!("column {name} missing"))
        };
        let rate = col("vaccination rate");
        let death = col("death rate");
        let cases = col("total cases");
        let r1 = pearson_columns(out, rate, death).unwrap();
        assert!((r1 - 0.16).abs() < 0.02, "paper says 0.16, got {r1:.3}");
        let r2 = pearson_columns(out, cases, rate).unwrap();
        assert!((r2 - 0.9).abs() < 0.02, "paper says 0.9, got {r2:.3}");
        // Boston lowest, Toronto highest.
        let (lo, hi) = extremes(out, rate).unwrap();
        let city = col("city");
        assert_eq!(out.row(lo).unwrap()[city], Value::Text("Boston".into()));
        assert_eq!(out.row(hi).unwrap()[city], Value::Text("Toronto".into()));
    }

    #[test]
    fn alternatives_are_computed() {
        let run = demo_run();
        assert_eq!(run.alternatives.len(), 1);
        assert_eq!(run.alternatives[0].0, "outer-join");
    }

    #[test]
    fn report_mentions_every_stage() {
        let run = demo_run();
        let report = run.report();
        for needle in ["== Discover ==", "== Align ==", "== Integrate ==", "santos"] {
            assert!(
                report.contains(needle),
                "report missing {needle}:\n{report}"
            );
        }
    }

    #[test]
    fn integrate_set_skips_discovery() {
        let (t4, t5, t6) = demo::fig7_tables();
        let pipeline = Pipeline::demo_default(&demo::covid_lake());
        let run = pipeline.integrate_set(vec![t4, t5, t6]).unwrap();
        assert!(run.discovered.is_empty());
        assert_eq!(run.integrated.table().row_count(), 3, "Fig. 8(b)");
    }

    #[test]
    fn empty_integration_set_is_an_error() {
        let pipeline = Pipeline::demo_default(&demo::covid_lake());
        assert!(matches!(
            pipeline.integrate_set(vec![]),
            Err(PipelineError::EmptyIntegrationSet)
        ));
    }

    #[test]
    fn user_defined_discovery_plugs_in() {
        // Fig. 4: an inner-join-size similarity as a user algorithm.
        let lake = demo::covid_lake();
        let custom = SimilarityDiscovery::new("inner-join-size", &lake, |q, t| {
            let mut best = 0usize;
            for qc in 0..q.column_count() {
                for tc in 0..t.column_count() {
                    let qs = q.column_token_set(qc);
                    let ts = t.column_token_set(tc);
                    best = best.max(qs.intersection(&ts).count());
                }
            }
            best as f64
        });
        let pipeline = Pipeline::builder()
            .discovery(Box::new(custom))
            .top_k(2)
            .build();
        let query = TableQuery::with_column(demo::fig2_query(), 1);
        let run = pipeline.run(&lake, &query).unwrap();
        assert_eq!(run.discovered.len(), 1);
        assert_eq!(run.discovered[0].0, "inner-join-size");
        let set: Vec<&str> = run.integration_set.iter().map(|t| t.name()).collect();
        assert!(set.contains(&"T3"), "T3 shares the most values: {set:?}");
    }

    #[test]
    fn custom_integrator_as_primary() {
        let pipeline = Pipeline::builder()
            .integrator(Box::new(OuterJoinIntegrator))
            .build();
        let (t4, t5, t6) = demo::fig7_tables();
        let run = pipeline.integrate_set(vec![t4, t5, t6]).unwrap();
        assert_eq!(run.integrated.table().row_count(), 5, "Fig. 8(a)");
    }

    #[test]
    fn discover_top_k_merges_plain_engines_with_the_index() {
        // A hybrid pipeline (indexed discovery + a plain engine): tables
        // only the plain engine can see must still surface from
        // discover_top_k, exactly as they do from run().
        let lake = demo::covid_lake();
        let always_gdp =
            SimilarityDiscovery::new(
                "gdp-fan",
                &lake,
                |_, t| {
                    if t.name() == "gdp" {
                        42.0
                    } else {
                        0.0
                    }
                },
            );
        let pipeline = Pipeline::builder()
            .indexed_discovery(
                Arc::new(covid_kb()),
                dialite_discovery::LakeIndexConfig::default(),
            )
            .discovery(Box::new(always_gdp))
            .build();
        let query = TableQuery::with_column(demo::fig2_query(), 1);
        let hits = pipeline.discover_top_k(
            &lake,
            &query,
            10,
            &dialite_discovery::QueryBudget::unlimited(),
        );
        assert!(
            hits.iter().any(|d| d.table == "gdp" && d.score == 42.0),
            "plain-engine result must not be dropped: {hits:?}"
        );
        assert!(
            hits.iter().any(|d| d.table == "T3"),
            "indexed joinable result must still be there: {hits:?}"
        );
    }

    #[test]
    fn pipeline_follows_lake_churn_across_runs() {
        // One pipeline, one maintained index: mutate the lake between runs
        // and the discovery stage must reflect the new state without being
        // rebuilt from scratch.
        let mut lake = demo::covid_lake();
        let pipeline = Pipeline::demo_default(&lake);
        let query = TableQuery::with_column(demo::fig2_query(), 1);

        let run1 = pipeline.run(&lake, &query).unwrap();
        let set1: Vec<&str> = run1.integration_set.iter().map(|t| t.name()).collect();
        assert!(set1.contains(&"T2") && set1.contains(&"T3"), "{set1:?}");

        // Churn: T2 (the unionable table) is withdrawn.
        lake.remove("T2").unwrap();
        let run2 = pipeline.run(&lake, &query).unwrap();
        let set2: Vec<&str> = run2.integration_set.iter().map(|t| t.name()).collect();
        assert!(
            !set2.contains(&"T2"),
            "withdrawn table discovered: {set2:?}"
        );
        assert!(set2.contains(&"T3"), "{set2:?}");

        // Churn: T2 comes back.
        lake.add(demo::fig2_unionable()).unwrap();
        let run3 = pipeline.run(&lake, &query).unwrap();
        let set3: Vec<&str> = run3.integration_set.iter().map(|t| t.name()).collect();
        assert!(set3.contains(&"T2"), "re-added table missing: {set3:?}");
        assert!(
            run3.integrated.table().same_content(&demo::fig3_expected()),
            "round-trip churn must restore the Fig. 3 output"
        );
    }

    #[test]
    fn indexed_pipeline_with_unrelated_query_errors_like_before() {
        let lake = demo::covid_lake();
        let pipeline = Pipeline::builder()
            .indexed_discovery(
                Arc::new(covid_kb()),
                dialite_discovery::LakeIndexConfig::default(),
            )
            .build();
        let query = TableQuery::new(table! {
            "offtopic"; ["isotope"];
            ["U-235"], ["C-14"],
        });
        // Indexed discovery counts as a discovery stage: an empty
        // integration set is an error, not a silent single-table run.
        match pipeline.run(&lake, &query) {
            Err(PipelineError::EmptyIntegrationSet) | Ok(_) => {}
            Err(other) => panic!("unexpected error: {other}"),
        }
    }

    /// A deliberately misbehaving plain engine: ignores `k`, returns an
    /// unsorted list with a NaN score — the shape the one-ordering rule
    /// must sanitize identically in `run` and `discover_top_k`.
    struct MessyEngine;

    impl Discovery for MessyEngine {
        fn name(&self) -> &str {
            "messy"
        }

        fn discover(&self, _query: &TableQuery, _k: usize) -> Vec<Discovered> {
            vec![
                Discovered {
                    table: "animals".into(),
                    score: f64::NAN,
                },
                Discovered {
                    table: "gdp".into(),
                    score: 0.1,
                },
                Discovered {
                    table: "T3".into(),
                    score: 0.9,
                },
                Discovered {
                    table: "T2".into(),
                    score: 0.05,
                },
            ]
        }
    }

    fn hybrid_messy_pipeline(k: usize) -> Pipeline {
        Pipeline::builder()
            .indexed_discovery(
                Arc::new(covid_kb()),
                dialite_discovery::LakeIndexConfig::default(),
            )
            .discovery(Box::new(MessyEngine))
            .top_k(k)
            .build()
    }

    #[test]
    fn hybrid_pipeline_orderings_follow_one_rule() {
        // Regression for the run-vs-discover_top_k ordering drift: both
        // paths must rank and truncate a plain engine's raw output with
        // the same NaN-last, name-tie-broken rule before using it.
        let lake = demo::covid_lake();
        let pipeline = hybrid_messy_pipeline(2);
        let query = TableQuery::with_column(demo::fig2_query(), 1);

        let run = pipeline.run(&lake, &query).unwrap();
        // Engine registration order: indexed legs first, then plain.
        let engines: Vec<&str> = run.discovered.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(engines, vec!["santos", "lsh-ensemble", "messy"]);
        // The messy list is re-ranked and truncated to top_k: the NaN and
        // the over-long tail are gone, scores descend.
        let messy = &run.discovered[2].1;
        assert_eq!(
            messy,
            &vec![
                Discovered {
                    table: "T3".into(),
                    score: 0.9
                },
                Discovered {
                    table: "gdp".into(),
                    score: 0.1
                },
            ]
        );
        // The engine's k+1-th slot (T2 at 0.05) must not leak into the
        // integration set through the raw list either.
        let set: Vec<&str> = run.integration_set.iter().map(|t| t.name()).collect();
        assert!(!set.contains(&"animals"), "NaN row leaked: {set:?}");

        // discover_top_k applies the identical sanitation: at k=2 the
        // messy tail cannot surface a table `run` would not.
        let hits = pipeline.discover_top_k(&lake, &query, 2, &QueryBudget::unlimited());
        assert_eq!(hits.len(), 2);
        assert!(
            hits.iter().all(|d| d.table != "T2" && d.table != "animals"),
            "sanitized tail leaked into the merged view: {hits:?}"
        );
        // Determinism: repeat calls agree exactly.
        assert_eq!(
            hits,
            pipeline.discover_top_k(&lake, &query, 2, &QueryBudget::unlimited())
        );
    }

    #[test]
    fn hybrid_merge_propagates_nan_without_outranking_real_scores() {
        let lake = demo::covid_lake();
        let pipeline = hybrid_messy_pipeline(10);
        let query = TableQuery::with_column(demo::fig2_query(), 1);
        let hits = pipeline.discover_top_k(&lake, &query, 10, &QueryBudget::unlimited());
        let animals = hits.iter().find(|d| d.table == "animals");
        match animals {
            Some(d) => {
                assert!(d.score.is_nan(), "NaN must propagate verbatim: {d:?}");
                assert_eq!(
                    hits.last().unwrap().table,
                    "animals",
                    "NaN ranks below every real score: {hits:?}"
                );
            }
            None => panic!("NaN-scored table dropped instead of propagated: {hits:?}"),
        }
    }

    #[test]
    fn default_budget_equals_unlimited_on_the_demo_lake() {
        // The default budget is generous: on a small lake it must not
        // change a single byte of the discovery stage.
        let lake = demo::covid_lake();
        let query = TableQuery::with_column(demo::fig2_query(), 1);
        let defaulted = Pipeline::demo_default(&lake);
        assert_eq!(defaulted.discovery_budget(), DiscoveryBudget::default());
        let mut unlimited = Pipeline::demo_default(&lake);
        unlimited.set_discovery_budget(DiscoveryBudget::unlimited());
        assert_eq!(
            defaulted.discover_stage(&lake, &query),
            unlimited.discover_stage(&lake, &query),
        );
    }

    #[test]
    fn telemetry_accumulates_across_runs_and_resets() {
        let lake = demo::covid_lake();
        let pipeline = Pipeline::demo_default(&lake);
        let query = TableQuery::with_column(demo::fig2_query(), 1);
        assert_eq!(
            pipeline.telemetry().expect("index built eagerly"),
            DiscoveryTelemetry::default(),
            "no queries recorded yet"
        );

        pipeline.run(&lake, &query).unwrap();
        pipeline.run(&lake, &query).unwrap();
        pipeline.discover_top_k(&lake, &query, 3, &QueryBudget::unlimited());
        let t = pipeline.telemetry().unwrap();
        assert_eq!(t.topk.queries, 3, "2 runs + 1 interactive top-k");
        assert_eq!(t.santos.queries, 2, "santos leg runs only in run()");
        assert_eq!(t.joinable_latency.samples, 3);

        pipeline.reset_telemetry();
        assert_eq!(pipeline.telemetry().unwrap(), DiscoveryTelemetry::default());

        // A pipeline without indexed discovery has nothing to report.
        let plain = Pipeline::builder().build();
        assert!(plain.telemetry().is_none());
        plain.reset_telemetry(); // and resetting it is a no-op, not a panic
    }

    /// The sketch-free index config of the oracle suites: discovery
    /// output becomes a pure function of lake state, so single-shard and
    /// sharded pipelines can be compared byte-for-byte (the sketch path is
    /// only *statistically* stable across shardings — per-shard ensembles
    /// partition their own domains).
    fn exact_index_config() -> LakeIndexConfig {
        LakeIndexConfig {
            santos: dialite_discovery::SantosConfig::default(),
            lshe: dialite_discovery::LshEnsembleConfig {
                num_perm: 64,
                num_partitions: 4,
                exact_mass_per_token: usize::MAX,
                ..dialite_discovery::LshEnsembleConfig::default()
            },
            metadata: None,
        }
    }

    #[test]
    fn sharded_pipeline_is_byte_identical_to_single_shard() {
        let mut lake = demo::covid_lake();
        let single = Pipeline::builder()
            .indexed_discovery(Arc::new(covid_kb()), exact_index_config())
            .build();
        let sharded = Pipeline::builder()
            .indexed_discovery(Arc::new(covid_kb()), exact_index_config())
            .shards(3)
            .build();
        let query = TableQuery::with_column(demo::fig2_query(), 1);
        assert_eq!(
            single.discover_stage(&lake, &query),
            sharded.discover_stage(&lake, &query),
            "fan-out + merge must reproduce the single index exactly"
        );

        // Churn between runs: each shard replays only its own stripe of
        // the changelog, and the outputs stay in lockstep.
        lake.remove("T2").unwrap();
        assert_eq!(
            single.discover_stage(&lake, &query),
            sharded.discover_stage(&lake, &query),
        );
        assert_eq!(
            single.discover_top_k(&lake, &query, 4, &QueryBudget::unlimited()),
            sharded.discover_top_k(&lake, &query, 4, &QueryBudget::unlimited()),
        );

        // serve() carries the shard count into the service.
        let service = sharded.serve(lake, 16).expect("indexed pipeline");
        assert_eq!(service.shard_count(), 3);
        let response = service.query_default(&query).unwrap();
        assert!(response
            .results
            .iter()
            .any(|(_, hits)| hits.iter().any(|d| d.table == "T3")));
    }

    #[test]
    fn shards_zero_clamps_to_one() {
        let lake = demo::covid_lake();
        let pipeline = Pipeline::builder()
            .indexed_discovery(Arc::new(covid_kb()), exact_index_config())
            .shards(0)
            .build();
        let service = pipeline.serve(lake, 16).expect("indexed pipeline");
        assert_eq!(service.shard_count(), 1);
    }

    #[test]
    fn telemetry_json_exports_the_merged_window() {
        let lake = demo::covid_lake();
        let pipeline = Pipeline::demo_default(&lake);
        let fresh = pipeline.telemetry_json().expect("index built eagerly");
        assert!(fresh.contains("\"queries\":0"), "{fresh}");

        let query = TableQuery::with_column(demo::fig2_query(), 1);
        pipeline.run(&lake, &query).unwrap();
        let json = pipeline.telemetry_json().unwrap();
        assert!(json.contains("\"topk\":{\"queries\":1"), "{json}");
        assert!(json.contains("\"santos\":{\"queries\":1"), "{json}");
        assert!(json.contains("\"joinable_latency\""), "{json}");

        // No indexed discovery → nothing to export.
        assert!(Pipeline::builder().build().telemetry_json().is_none());
    }

    #[test]
    fn pipeline_error_display() {
        let e = PipelineError::EmptyIntegrationSet;
        assert!(e.to_string().contains("empty"));
        let e = PipelineError::Table(TableError::UnknownTable { table: "x".into() });
        assert!(e.to_string().contains('x'));
    }

    #[test]
    fn off_topic_query_may_yield_no_results() {
        // §3.1 footnote: an off-topic query "may yield no results".
        let lake = demo::covid_lake();
        let pipeline = Pipeline::demo_default(&lake);
        let query = TableQuery::new(table! {
            "offtopic"; ["isotope", "half_life"];
            ["U-235", 7.04e8],
            ["C-14", 5.73e3],
        });
        match pipeline.run(&lake, &query) {
            Err(PipelineError::EmptyIntegrationSet) => {}
            Ok(run) => {
                // Anything that *was* discovered must at least be scored.
                assert!(run
                    .discovered
                    .iter()
                    .all(|(_, hits)| hits.iter().all(|d| d.score > 0.0)));
            }
            Err(other) => panic!("unexpected error: {other}"),
        }
    }
}
