//! `LakeIndex`: churn-safe discovery over a mutable [`DataLake`].
//!
//! Discovery engines are expensive to build (annotate every table, hash
//! every column domain) but open-data lakes churn: tables are added,
//! corrected and withdrawn while query traffic keeps flowing. A
//! [`LakeIndex`] owns the SANTOS-style, LSH Ensemble and optional
//! metadata engines behind one maintenance point: [`LakeIndex::sync`]
//! reads the lake changelog ([`DataLake::events_since`]) and applies each
//! delta with `O(changed tables)` work — tokenising each changed table
//! once into the shard's one value token store, which SANTOS and the
//! joinable leg both read (metadata keeps its header store), retiring dead
//! `(table_slot, col)` domain keys, staging ensemble inserts — falling
//! back to a full rebuild only when
//! the index is further behind than the bounded changelog reaches (or
//! when handed an older lineage of the lake).
//!
//! Consistency contract, pinned by `tests/incremental_oracle.rs`: after
//! `sync`, discovery output is equivalent to a fresh build over the lake's
//! current state — exactly equal for the SANTOS and metadata engines and
//! for the LSH engine's exact-verification semantics; the sketch
//! candidate path additionally guarantees that domains staged since the
//! last partition rebalance are exact-scanned, so fresh churn is never a
//! false negative.

use std::sync::Arc;
use std::time::{Duration, Instant};

use dialite_kb::KnowledgeBase;
use dialite_minhash::SketchSnapshot;
use dialite_table::{DataLake, LakeEvent};

use crate::lshe::{LshEnsembleConfig, LshEnsembleDiscovery};
use crate::metadata::{MetadataConfig, MetadataDiscovery};
use crate::retrieval::column_token_sets;
use crate::santos::{SantosConfig, SantosDiscovery};
use crate::shard::ShardScope;
use crate::telemetry::{DiscoveryTelemetry, ShardedTelemetry};
use crate::topk::{DiscoveryBudget, QueryBudget, TopKPlanner, TopKStats};
use crate::types::{merge_best_scores, top_k, Discovered, Discovery, TableQuery};

/// Configuration of the wrapped engines.
#[derive(Debug, Clone, Default)]
pub struct LakeIndexConfig {
    /// SANTOS-style semantic union search.
    pub santos: SantosConfig,
    /// LSH Ensemble joinable search.
    pub lshe: LshEnsembleConfig,
    /// Optional metadata (header-match) leg. `None` (the default) leaves
    /// the index exactly two-legged — existing engine-order contracts are
    /// untouched; `Some` appends a third `"metadata"` leg maintained
    /// through the same sync/churn machinery.
    pub metadata: Option<MetadataConfig>,
}

/// The maintained discovery index over a mutable lake. Build once, then
/// [`sync`](LakeIndex::sync) after lake mutations; queries run against the
/// engines as of the last sync.
///
/// ```
/// use std::sync::Arc;
/// use dialite_discovery::{Discovery, LakeIndex, LakeIndexConfig, TableQuery};
/// use dialite_kb::curated::covid_kb;
/// use dialite_table::fixtures;
///
/// let mut lake = fixtures::covid_lake();
/// let mut index = LakeIndex::build(&lake, Arc::new(covid_kb()), LakeIndexConfig::default());
///
/// // The lake churns; one sync applies just the delta.
/// lake.remove("animals").unwrap();
/// index.sync(&lake);
/// assert!(index.is_current(&lake));
///
/// let query = TableQuery::with_column(fixtures::fig2_query(), 1); // City
/// let hits = index.discover(&query, 5);
/// assert!(hits.iter().any(|d| d.table == "T3"));
/// ```
pub struct LakeIndex {
    kb: Arc<KnowledgeBase>,
    config: LakeIndexConfig,
    /// Both hold the shard's one value token store; nothing else does.
    santos: SantosDiscovery,
    lshe: LshEnsembleDiscovery,
    /// The optional metadata (header-match) leg, present only when the
    /// config enables it.
    metadata: Option<MetadataDiscovery>,
    /// Budget-aware top-k planning over the LSH engine; holds the query
    /// signature cache, which stays warm across syncs and even rebuilds
    /// (cache entries are content-addressed, not version-addressed).
    planner: TopKPlanner,
    /// Rolling aggregate of what budgeted queries actually did. Sharded:
    /// queries run under `&self` from many serving threads at once, and a
    /// single `Mutex` here was the one point every concurrent query
    /// serialized on — each thread now records into its own shard and
    /// [`LakeIndex::telemetry`] merges on demand.
    telemetry: ShardedTelemetry,
    /// The slot stripe this index owns (all slots for a standalone index;
    /// one stripe when the index is a shard of a
    /// [`ShardedLakeIndex`](crate::ShardedLakeIndex)). Both the build and
    /// every changelog replay are filtered through it.
    scope: ShardScope,
    /// Lake version the engines reflect.
    synced: u64,
}

impl LakeIndex {
    /// Build every configured engine over the lake's current state.
    pub fn build(lake: &DataLake, kb: Arc<KnowledgeBase>, config: LakeIndexConfig) -> LakeIndex {
        LakeIndex::build_scoped(lake, kb, config, ShardScope::all(), None)
    }

    /// Build every configured engine over one shard's stripe of the lake.
    /// The index behaves exactly like [`LakeIndex::build`] over a lake
    /// containing only the admitted slots: [`sync`](LakeIndex::sync)
    /// replays the changelog filtered to the stripe (and a forced rebuild
    /// re-applies the same scope), so the incremental contract carries
    /// over per shard. [`ShardScope::all`] reproduces the unscoped build.
    ///
    /// There is one value store per shard, read by SANTOS and the joinable
    /// leg; metadata keeps its header store. One pass tokenises each table
    /// once for the store, SANTOS annotation and the ensemble builder.
    ///
    /// `sketches` warm-starts the LSH engine from persisted MinHash
    /// sketches (see [`LshEnsembleDiscovery::build_scoped`]); the SANTOS
    /// and metadata engines and the exact verification structures are
    /// always rebuilt from the lake.
    pub fn build_scoped(
        lake: &DataLake,
        kb: Arc<KnowledgeBase>,
        config: LakeIndexConfig,
        scope: ShardScope,
        sketches: Option<&SketchSnapshot>,
    ) -> LakeIndex {
        let mut santos = SantosDiscovery::empty(kb.clone(), config.santos.clone());
        let lshe = LshEnsembleDiscovery::build_feeding(
            lake,
            config.lshe.clone(),
            scope,
            sketches,
            |slot, table, columns| santos.annotate(slot, table, columns),
        );
        santos.tokens = Arc::clone(&lshe.tokens);
        LakeIndex {
            santos,
            lshe,
            metadata: config
                .metadata
                .clone()
                .map(|mc| MetadataDiscovery::build_scoped(lake, mc, scope)),
            planner: TopKPlanner::new(),
            telemetry: ShardedTelemetry::default(),
            kb,
            config,
            scope,
            synced: lake.version(),
        }
    }

    /// Export the LSH engine's domain sketches for durable snapshotting.
    pub fn export_sketches(&self) -> SketchSnapshot {
        self.lshe.export_sketches()
    }

    /// MinHash signatures this index's hash family has computed so far —
    /// the work a warm start keeps proportional to the replayed tail.
    pub fn sketch_work(&self) -> u64 {
        self.lshe.sketch_work()
    }

    /// The slot stripe this index covers ([`ShardScope::all`] unless it
    /// was built as a shard via [`LakeIndex::build_scoped`]).
    pub fn scope(&self) -> ShardScope {
        self.scope
    }

    /// The lake version this index reflects.
    pub fn version(&self) -> u64 {
        self.synced
    }

    /// The knowledge base the SANTOS engine annotates with — what a
    /// verifier needs to rebuild an equivalent index from scratch.
    pub fn kb(&self) -> Arc<KnowledgeBase> {
        Arc::clone(&self.kb)
    }

    /// The configuration the engines were built with.
    pub fn config(&self) -> &LakeIndexConfig {
        &self.config
    }

    /// `true` when the index reflects the lake's current version.
    pub fn is_current(&self, lake: &DataLake) -> bool {
        self.synced == lake.version()
    }

    /// Catch up with the lake. Applies the changelog delta-by-delta when
    /// possible (`O(changed tables)`); rebuilds from scratch when the lake
    /// cannot serve the delta — the index trails the bounded changelog, or
    /// the lake is a *different lineage* (a clone that forked before or
    /// after the index's sync point; `events_since` detects both because
    /// version stamps are globally unique to the history that minted them).
    pub fn sync(&mut self, lake: &DataLake) {
        if self.is_current(lake) {
            return;
        }
        let Some(events) = lake.events_since(self.synced) else {
            // Full rebuild — but carry the planner across (its cached
            // signatures are keyed on content + hash-family identity, so
            // they stay valid for the rebuilt engine — same config) and
            // the telemetry window (a rebuild is maintenance, not a
            // reason to lose the observation history).
            let planner = std::mem::take(&mut self.planner);
            let telemetry = self.telemetry.snapshot();
            *self = LakeIndex::build_scoped(
                lake,
                self.kb.clone(),
                self.config.clone(),
                self.scope,
                None,
            );
            self.planner = planner;
            self.telemetry.restore(telemetry);
            return;
        };
        // The batch owns the value store: with both legs' handles taken it
        // is unique, so unwrapping it copies nothing.
        drop(std::mem::take(&mut self.santos.tokens));
        let mut store = Arc::unwrap_or_clone(std::mem::take(&mut self.lshe.tokens));
        for (_, event) in events {
            let slot = event.slot();
            // Slots outside this index's stripe belong to other shards;
            // their events are not ours to apply.
            if !self.scope.admits(slot) {
                continue;
            }
            // The joinable leg reads the slot's old runs, so it retires
            // its domains before the store drops them.
            self.lshe.unsketch(slot, &store);
            self.santos.unannotate(slot);
            store.remove(slot);
            // The slot's *current* content is what matters: later events
            // for the same slot re-apply it idempotently.
            let upserted = match event {
                LakeEvent::Added(_) | LakeEvent::Replaced(_) => lake.table_at(slot),
                _ => None,
            };
            if let Some(table) = upserted {
                let columns = column_token_sets(table);
                store.insert(slot, &columns);
                self.santos.annotate(slot, table, &columns);
                self.lshe.sketch(slot, table.name(), &columns);
            }
            if let Some(metadata) = &mut self.metadata {
                match upserted {
                    Some(table) => metadata.upsert_table(slot, table),
                    None => metadata.remove_table(slot),
                }
            }
        }
        let store = Arc::new(store);
        self.santos.tokens = Arc::clone(&store);
        self.lshe.tokens = store;
        self.synced = lake.version();
    }

    /// The budgeted discovery stage — the index's one query path. Returns
    /// `(engine name, hits)` per leg in the pipeline's engine order: the
    /// SANTOS leg under the budget's candidate cap, the joinable leg
    /// through the [`TopKPlanner`] under the budget's [`QueryBudget`], and
    /// — when enabled — the metadata leg under its own candidate cap.
    /// Under [`DiscoveryBudget::unlimited`] every leg is byte-identical to
    /// its engine's probe-all [`Discovery::discover`] (pinned by
    /// `crates/core/tests/pipeline_oracle.rs`). Every call folds its
    /// per-query stats and latency into the index's
    /// [`DiscoveryTelemetry`].
    pub fn discover_all_budgeted(
        &self,
        query: &TableQuery,
        k: usize,
        budget: &DiscoveryBudget,
    ) -> Vec<(String, Vec<Discovered>)> {
        let ((santos_hits, stats), elapsed) = timed(|| {
            self.santos
                .discover_capped(query, k, budget.santos_candidates)
        });
        self.telemetry.record(|t| t.record_santos(&stats, elapsed));
        let (join_hits, _) = self.discover_top_k_with_stats(query, k, &budget.joinable);
        let mut legs = vec![
            (self.santos.name().to_string(), santos_hits),
            (self.lshe.name().to_string(), join_hits),
        ];
        if let Some(metadata) = &self.metadata {
            let ((meta_hits, stats), elapsed) =
                timed(|| metadata.discover_capped(query, k, budget.metadata_candidates));
            self.telemetry
                .record(|t| t.record_metadata(&stats, elapsed));
            legs.push((metadata.name().to_string(), meta_hits));
        }
        legs
    }

    /// A snapshot of the rolling [`DiscoveryTelemetry`] this index has
    /// accumulated across budgeted queries (it survives syncs and even
    /// full rebuilds). Pair with [`LakeIndex::reset_telemetry`] for
    /// non-overlapping scrape windows.
    pub fn telemetry(&self) -> DiscoveryTelemetry {
        self.telemetry.snapshot()
    }

    /// Zero the rolling telemetry window.
    pub fn reset_telemetry(&self) {
        self.telemetry.reset();
    }

    /// Budgeted top-k joinable search over the LSH engine, planned by the
    /// index's [`TopKPlanner`]: cached query signatures, best-bound-first
    /// partition probing with early termination, posting-list
    /// verification. With an unlimited budget the results equal the
    /// probe-all `lshe().discover(query, k)` exactly.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use dialite_discovery::{LakeIndex, LakeIndexConfig, QueryBudget, TableQuery};
    /// use dialite_kb::curated::covid_kb;
    /// use dialite_table::fixtures;
    ///
    /// let lake = fixtures::covid_lake();
    /// let index = LakeIndex::build(&lake, Arc::new(covid_kb()), LakeIndexConfig::default());
    /// let query = TableQuery::with_column(fixtures::fig2_query(), 1); // City
    /// let hits = index.discover_top_k(&query, 3, &QueryBudget::unlimited());
    /// assert_eq!(hits[0].table, "T3"); // joins on City at containment 2/3
    /// ```
    pub fn discover_top_k(
        &self,
        query: &TableQuery,
        k: usize,
        budget: &QueryBudget,
    ) -> Vec<Discovered> {
        self.discover_top_k_with_stats(query, k, budget).0
    }

    /// [`LakeIndex::discover_top_k`] plus the per-query [`TopKStats`].
    /// Like every budgeted entry point, the stats (and the measured
    /// latency) are also folded into the index's rolling telemetry.
    pub fn discover_top_k_with_stats(
        &self,
        query: &TableQuery,
        k: usize,
        budget: &QueryBudget,
    ) -> (Vec<Discovered>, TopKStats) {
        let ((hits, stats), elapsed) = timed(|| {
            self.planner
                .discover_top_k_with_stats(&self.lshe, query, k, budget)
        });
        self.telemetry.record(|t| t.record_topk(&stats, elapsed));
        (hits, stats)
    }

    /// The SANTOS-style engine.
    pub fn santos(&self) -> &SantosDiscovery {
        &self.santos
    }

    /// The LSH Ensemble engine.
    pub fn lshe(&self) -> &LshEnsembleDiscovery {
        &self.lshe
    }

    /// The optional metadata (header-match) engine, `Some` only when
    /// [`LakeIndexConfig::metadata`] enabled it.
    pub fn metadata(&self) -> Option<&MetadataDiscovery> {
        self.metadata.as_ref()
    }
}

/// Run `f`, returning its result and how long it took.
fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed())
}

impl Discovery for LakeIndex {
    fn name(&self) -> &str {
        "lake-index"
    }

    /// Union of every leg's results from
    /// [`discover_all_budgeted`](LakeIndex::discover_all_budgeted) at
    /// [`DiscoveryBudget::unlimited`]; a table found by several legs keeps
    /// its best score (NaN-safe: a degenerate score propagates rather than
    /// being replaced by an invented one). Like every query through the
    /// index, it folds its per-leg stats into the index's telemetry.
    fn discover(&self, query: &TableQuery, k: usize) -> Vec<Discovered> {
        let mut best: std::collections::HashMap<String, f64> = std::collections::HashMap::new();
        for (_, hits) in self.discover_all_budgeted(query, k, &DiscoveryBudget::unlimited()) {
            merge_best_scores(&mut best, hits);
        }
        top_k(
            best.into_iter()
                .map(|(table, score)| Discovered { table, score })
                .collect(),
            k,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ShardedLakeIndex;
    use dialite_datagen::workloads::HeterogeneousLakeWorkload;
    use dialite_kb::curated::covid_kb;
    use dialite_table::{table, Table, Value};

    fn demo_lake() -> DataLake {
        DataLake::from_tables([
            table! {
                "cases_by_city"; ["city", "rate"];
                ["berlin", 1], ["barcelona", 2], ["boston", 3], ["madrid", 4],
            },
            table! {
                "noise"; ["animal"];
                ["cat"], ["dog"],
            },
        ])
        .unwrap()
    }

    fn query() -> TableQuery {
        TableQuery::with_column(
            table! {
                "Q"; ["City"];
                ["berlin"], ["barcelona"], ["boston"], ["madrid"],
            },
            0,
        )
    }

    fn build(lake: &DataLake) -> LakeIndex {
        LakeIndex::build(lake, Arc::new(covid_kb()), LakeIndexConfig::default())
    }

    #[test]
    fn build_reports_both_engines() {
        let lake = demo_lake();
        let index = build(&lake);
        assert!(index.is_current(&lake));
        let all = index.discover_all_budgeted(&query(), 5, &DiscoveryBudget::unlimited());
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].0, "santos");
        assert_eq!(all[1].0, "lsh-ensemble");
        assert!(all[1].1.iter().any(|d| d.table == "cases_by_city"));
    }

    #[test]
    fn metadata_leg_is_config_gated_and_syncs_with_churn() {
        let mut lake = demo_lake();
        let config = LakeIndexConfig {
            metadata: Some(MetadataConfig::default()),
            ..LakeIndexConfig::default()
        };
        let mut index = LakeIndex::build(&lake, Arc::new(covid_kb()), config.clone());
        let q = TableQuery::new(table! { "HQ"; ["city", "rate"]; ["x", 1] });
        let unlimited = DiscoveryBudget::unlimited();
        let all = index.discover_all_budgeted(&q, 5, &unlimited);
        assert_eq!(all.len(), 3, "metadata appends a third leg");
        assert_eq!(all[2].0, "metadata");
        assert!(all[2].1.iter().any(|d| d.table == "cases_by_city"));
        index.reset_telemetry();

        // Churn flows through sync into the metadata leg too.
        lake.add(table! { "city_pop"; ["city", "rate"]; ["lima", 9] })
            .unwrap();
        lake.remove("cases_by_city").unwrap();
        index.sync(&lake);
        let budgeted = index.discover_all_budgeted(&q, 5, &unlimited);
        assert_eq!(budgeted[2].0, "metadata");
        assert!(budgeted[2].1.iter().any(|d| d.table == "city_pop"));
        assert!(budgeted[2].1.iter().all(|d| d.table != "cases_by_city"));
        assert_eq!(index.telemetry().metadata.queries, 1);
        assert_eq!(index.telemetry().metadata.full_scans, 1);

        // A diverged lineage forces a rebuild; the metadata leg must
        // survive it (the config carries across).
        let fresh = LakeIndex::build(&lake, Arc::new(covid_kb()), config);
        assert_eq!(
            fresh.discover_all_budgeted(&q, 5, &unlimited),
            index.discover_all_budgeted(&q, 5, &unlimited),
            "synced metadata leg must answer like a rebuild"
        );
        assert!(index.metadata().is_some());
    }

    #[test]
    fn sync_is_a_noop_when_current() {
        let lake = demo_lake();
        let mut index = build(&lake);
        let v = index.version();
        index.sync(&lake);
        assert_eq!(index.version(), v);
    }

    #[test]
    fn sync_applies_adds_removes_and_replaces() {
        let mut lake = demo_lake();
        let mut index = build(&lake);

        lake.add(table! {
            "more_cities"; ["place"];
            ["berlin"], ["barcelona"], ["boston"], ["madrid"], ["mumbai"],
        })
        .unwrap();
        lake.remove("cases_by_city").unwrap();
        lake.upsert(table! { "noise"; ["animal"]; ["emu"] });
        index.sync(&lake);
        assert!(index.is_current(&lake));

        let hits = index.discover(&query(), 5);
        assert!(hits.iter().any(|d| d.table == "more_cities"), "{hits:?}");
        assert!(
            hits.iter().all(|d| d.table != "cases_by_city"),
            "removed table must vanish: {hits:?}"
        );
        assert_eq!(index.santos().len(), lake.len());
    }

    #[test]
    fn sync_with_a_diverged_newer_clone_rebuilds_not_ghosts() {
        // Regression: fork the lake, advance the original, build the index
        // on the original, then diverge the clone past the index's sync
        // stamp. The clone's changelog does not contain the sync stamp, so
        // sync must rebuild — not splice the clone's tail events onto the
        // original's state and leave ghost tables behind.
        let a = demo_lake();
        let mut b = a.clone();
        let mut a = a;
        a.add(table! {
            "ghost_cities"; ["place"];
            ["berlin"], ["barcelona"], ["boston"], ["madrid"],
        })
        .unwrap();
        let mut index = build(&a);
        // Diverge b so its version overtakes the index's sync point.
        b.remove("noise").unwrap();
        b.add(table! { "b_only"; ["x"]; [1] }).unwrap();
        assert!(b.version() > index.version());

        index.sync(&b);
        assert!(index.is_current(&b));
        assert_eq!(index.santos().len(), b.len());
        let hits = index.discover(&query(), 10);
        assert!(
            hits.iter().all(|d| d.table != "ghost_cities"),
            "table from the other lineage must not survive sync: {hits:?}"
        );
    }

    #[test]
    fn sync_with_an_older_lineage_rebuilds() {
        let mut lake = demo_lake();
        let pre_churn = lake.clone();
        lake.add(table! { "extra"; ["x"]; [1] }).unwrap();
        let mut index = build(&lake);
        // Handing the index the pre-churn clone must roll it back.
        index.sync(&pre_churn);
        assert!(index.is_current(&pre_churn));
        assert_eq!(index.santos().len(), pre_churn.len());
    }

    #[test]
    fn union_keeps_best_score_per_table() {
        let lake = demo_lake();
        let index = build(&lake);
        let hits = index.discover(&query(), 5);
        let mut seen = std::collections::HashSet::new();
        for d in &hits {
            assert!(seen.insert(d.table.clone()), "duplicate {d:?}");
        }
    }

    /// SANTOS and the joinable leg hold the one value store of the shard
    /// and no other handle exists; its postings and pool equal a fresh
    /// build's over the same stripe.
    fn assert_one_store(index: &LakeIndex, lake: &DataLake) {
        assert!(Arc::ptr_eq(&index.santos.tokens, &index.lshe.tokens));
        assert_eq!(Arc::strong_count(&index.lshe.tokens), 2, "a stray handle");
        let fresh = LakeIndex::build_scoped(
            lake,
            index.kb(),
            index.config().clone(),
            index.scope(),
            None,
        );
        assert_eq!(index.lshe.posting_stats(), fresh.lshe.posting_stats());
        assert_eq!(index.lshe.pool_len(), fresh.lshe.pool_len());
    }

    #[test]
    fn one_value_store_per_shard() {
        let config = LakeIndexConfig {
            lshe: LshEnsembleConfig {
                pool_compact_min: 0,
                ..LshEnsembleConfig::default()
            },
            metadata: Some(MetadataConfig::default()),
            ..LakeIndexConfig::default()
        };
        let kb = Arc::new(covid_kb());
        let mut lake = demo_lake();
        let dead = (0..200).map(|i| vec![Value::Text(format!("dead{i}"))]);
        lake.add(Table::from_rows("big", &["k"], dead.collect()).unwrap())
            .unwrap();
        let mut index = LakeIndex::build(&lake, kb.clone(), config.clone());
        assert_one_store(&index, &lake);

        // One batch adds, replaces and removes; dropping `big` retires more
        // weight than stays live, so the batch compacts the store.
        let pool = index.lshe.pool_len();
        lake.add(table! { "more_cities"; ["place"]; ["berlin"], ["lima"] })
            .unwrap();
        lake.upsert(table! { "noise"; ["animal"]; ["emu"] });
        lake.remove("big").unwrap();
        index.sync(&lake);
        assert!(index.lshe.pool_len() + 200 <= pool, "the batch compacts");
        assert_one_store(&index, &lake);

        // Past the changelog horizon the sync rebuilds.
        for i in 0..4100 {
            lake.upsert(table! { "noise"; ["animal"]; [format!("emu{i}")] });
        }
        assert!(lake.events_since(index.version()).is_none());
        index.sync(&lake);
        assert!(index.is_current(&lake));
        assert_one_store(&index, &lake);

        // Each shard of a sharded index, after its build and after a sync
        // that retires nothing (so no dead weight stays uncompacted).
        let sharded = ShardedLakeIndex::build(&lake, kb, config, 2);
        let each_shard = |lake: &DataLake| {
            for shard in &sharded.shards {
                assert_one_store(&shard.read().unwrap(), lake);
            }
        };
        each_shard(&lake);
        lake.add(table! { "fresh"; ["place"]; ["berlin"], ["quito"] })
            .unwrap();
        sharded.sync(&lake);
        each_shard(&lake);
    }

    #[test]
    fn warm_start_through_the_one_pass_build() {
        let spec = HeterogeneousLakeWorkload {
            tables: 60,
            max_rows: 32,
            queries: 4,
            ..HeterogeneousLakeWorkload::default()
        };
        let lake = spec.lake();
        let kb = Arc::new(covid_kb());
        // Every query takes the sketch, so a probe signs domains.
        let config = LakeIndexConfig {
            lshe: LshEnsembleConfig {
                exact_mass_per_token: 0,
                ..LshEnsembleConfig::default()
            },
            metadata: Some(MetadataConfig::default()),
            ..LakeIndexConfig::default()
        };
        let build = |sketches| {
            LakeIndex::build_scoped(
                &lake,
                kb.clone(),
                config.clone(),
                ShardScope::all(),
                sketches,
            )
        };
        // Signatures a probe-all sketch query computes: the query's, and
        // every domain's that neither an earlier probe nor the snapshot
        // signed.
        let probe = TableQuery::new(spec.queries().remove(0));
        let probe_work = |index: &LakeIndex| {
            let before = index.sketch_work();
            index.lshe().discover(&probe, 10);
            index.sketch_work() - before
        };
        let cold = build(None);
        assert_eq!(cold.sketch_work(), 0, "the build hashed");
        let domains = cold.lshe().indexed_domains() as u64;
        assert_eq!(probe_work(&cold), 1 + domains);
        let snapshot = cold.export_sketches();
        assert_eq!(snapshot.domains.len() as u64, domains);
        let warm = build(Some(&snapshot));
        assert_eq!(probe_work(&warm), 1, "full coverage signs no domain");
        let mut foreign = snapshot.clone();
        foreign.seed ^= 1;
        let rehashed = build(Some(&foreign));
        assert_eq!(probe_work(&rehashed), 1 + domains);

        let queries = spec.queries().into_iter().chain(spec.header_queries());
        for query in queries.map(TableQuery::new) {
            for budget in [DiscoveryBudget::default(), DiscoveryBudget::unlimited()] {
                let want = cold.discover_all_budgeted(&query, 10, &budget);
                assert_eq!(want.len(), 3);
                for index in [&warm, &rehashed] {
                    assert_eq!(index.discover_all_budgeted(&query, 10, &budget), want);
                }
            }
        }
    }
}
