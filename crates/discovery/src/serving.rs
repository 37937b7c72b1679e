//! Discovery-as-a-service: the concurrent serving layer over a shared
//! [`ShardedLakeIndex`].
//!
//! The rest of this crate is a one-caller library: an index answers
//! queries under `&self`, but nothing owns the lake, serializes churn
//! against reads, bounds how many requests run at once, or measures tail
//! latency under load. [`DiscoveryService`] is that missing layer:
//!
//! * **Lake lock + sharded index.** The service owns the lake behind its
//!   own `RwLock` and serves a [`ShardedLakeIndex`] beside it. Queries
//!   never touch the lake lock at all — they fan out across the index
//!   shards under per-shard read guards, with the version-stamped
//!   consistent-snapshot fan-out keeping every response attributable to
//!   exactly one lake state. Mutations take the lake write guard, apply
//!   the change and [`sync`](ShardedLakeIndex::sync) the shards before
//!   releasing it — write-locking **one shard at a time**, so concurrent
//!   queries keep flowing on every other shard. Responses are stamped
//!   with the version of the snapshot they saw, which is what makes the
//!   linearization oracle (`tests/serving_oracle.rs`) checkable: every
//!   concurrent response must be byte-identical to a single-threaded
//!   [`LakeIndex::discover_all_budgeted`](crate::LakeIndex::discover_all_budgeted)
//!   against the stamped version.
//! * **Admission control.** A bounded in-flight permit counter rejects
//!   over-capacity queries immediately with [`ServingError::Busy`] —
//!   never a block, never a partial result — so saturated serving degrades
//!   by shedding load instead of by unbounded queueing.
//! * **Per-request budgets.** Every query carries its own
//!   [`DiscoveryBudget`], so one expensive caller cannot starve the rest
//!   by monopolizing engine work inside the shard read guards.
//! * **[`ServingTelemetry`].** Request counts, `Busy` rejections and
//!   query/churn latency histograms with exact percentile export
//!   ([`LatencyHistogram::percentile`]), accumulated per-thread (sharded)
//!   and merged on snapshot, so the hot path never serializes on a
//!   telemetry lock.

use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

use dialite_kb::KnowledgeBase;
use dialite_table::DataLake;

use crate::index::LakeIndexConfig;
use crate::shard::ShardedLakeIndex;
use crate::telemetry::{telemetry_shard, LatencyHistogram, TELEMETRY_SHARDS};
use crate::topk::DiscoveryBudget;
use crate::types::{Discovered, TableQuery};

/// Configuration of a [`DiscoveryService`].
#[derive(Debug, Clone, PartialEq)]
pub struct ServingConfig {
    /// Maximum queries in flight at once; the `max_in_flight + 1`-th
    /// concurrent query is rejected with [`ServingError::Busy`]. The
    /// default is generous — small deployments never reject — while still
    /// bounding worst-case memory and lock-queue depth.
    pub max_in_flight: usize,
    /// Default per-request budget for [`DiscoveryService::query_default`].
    pub budget: DiscoveryBudget,
    /// Default per-engine result count for
    /// [`DiscoveryService::query_default`].
    pub k: usize,
}

impl Default for ServingConfig {
    fn default() -> Self {
        ServingConfig {
            max_in_flight: 1024,
            budget: DiscoveryBudget::default(),
            k: 5,
        }
    }
}

impl ServingConfig {
    /// Replace the in-flight admission capacity.
    pub fn with_max_in_flight(mut self, n: usize) -> ServingConfig {
        self.max_in_flight = n;
        self
    }

    /// Replace the default per-request budget.
    pub fn with_budget(mut self, budget: DiscoveryBudget) -> ServingConfig {
        self.budget = budget;
        self
    }

    /// Replace the default per-engine result count.
    pub fn with_k(mut self, k: usize) -> ServingConfig {
        self.k = k;
        self
    }
}

/// Why a serving request was not answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServingError {
    /// Admission control rejected the request: `max_in_flight` queries
    /// were already running. The request did no engine work and holds no
    /// partial result — retry is safe.
    Busy,
}

impl fmt::Display for ServingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServingError::Busy => write!(f, "service busy: in-flight request limit reached"),
        }
    }
}

impl std::error::Error for ServingError {}

/// One answered discovery request: the per-engine results plus the lake
/// version they were computed against. The version stamp is the
/// serving-layer consistency contract — the results are exactly what a
/// single-threaded
/// [`LakeIndex::discover_all_budgeted`](crate::LakeIndex::discover_all_budgeted)
/// returns against the lake state that version names (pinned by
/// `tests/serving_oracle.rs`).
#[derive(Debug, Clone, PartialEq)]
pub struct ServingResponse {
    /// The lake version the query was served against.
    pub version: u64,
    /// Per-engine hit lists, in the same shape and order as
    /// [`ShardedLakeIndex::discover_all_budgeted`].
    pub results: Vec<(String, Vec<Discovered>)>,
}

/// One window of serving-layer observations: request outcomes plus
/// query/churn latency histograms ([`LatencyHistogram`], so tail
/// percentiles export via [`LatencyHistogram::percentiles`]). Mergeable
/// like [`DiscoveryTelemetry`](crate::DiscoveryTelemetry): per-thread
/// shards merge into the one view [`DiscoveryService::telemetry`]
/// returns.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServingTelemetry {
    /// Queries answered.
    pub served: u64,
    /// Queries rejected with [`ServingError::Busy`].
    pub rejected: u64,
    /// Mutations applied (each one lake change + index sync).
    pub mutations: u64,
    /// End-to-end query latency (admission to response, read-guard wait
    /// included — this is what a caller experiences).
    pub query_latency: LatencyHistogram,
    /// End-to-end mutation latency (write-guard wait + apply + sync).
    pub churn_latency: LatencyHistogram,
}

impl ServingTelemetry {
    /// Add another window into this one.
    pub(crate) fn merge(&mut self, other: &ServingTelemetry) {
        self.served += other.served;
        self.rejected += other.rejected;
        self.mutations += other.mutations;
        self.query_latency.merge(&other.query_latency);
        self.churn_latency.merge(&other.churn_latency);
    }

    /// Compact human-readable report: outcomes plus query tail latency.
    pub fn summary(&self) -> String {
        format!(
            "served {} / rejected {} / mutations {}\n  query latency: {}\n  churn latency: {}",
            self.served,
            self.rejected,
            self.mutations,
            self.query_latency.percentiles().render(),
            self.churn_latency.percentiles().render(),
        )
    }
}

/// Decrements the in-flight counter on drop, so a panicking query cannot
/// leak its permit.
struct AdmissionPermit<'a>(&'a AtomicUsize);

impl Drop for AdmissionPermit<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Release);
    }
}

/// The concurrent discovery service — a shared, churn-following
/// [`ShardedLakeIndex`] behind admission control, serving version-stamped
/// budgeted queries from many threads at once.
/// [`DiscoveryService::with_shards`] stripes the lake across N shards so
/// writers only write-lock one shard at a time (one shard is the plain
/// [`LakeIndex`](crate::LakeIndex), byte-for-byte); and
/// [`DiscoveryService::from_index`] takes over an index the caller already
/// built, so a process holds one index, not two.
///
/// ```
/// use std::sync::Arc;
/// use dialite_discovery::{
///     DiscoveryBudget, DiscoveryService, LakeIndexConfig, ServingConfig, TableQuery,
/// };
/// use dialite_kb::curated::covid_kb;
/// use dialite_table::fixtures;
///
/// let service = DiscoveryService::with_shards(
///     fixtures::covid_lake(),
///     Arc::new(covid_kb()),
///     LakeIndexConfig::default(),
///     ServingConfig::default(),
///     1,
/// );
///
/// let query = TableQuery::with_column(fixtures::fig2_query(), 1); // City
/// let response = service
///     .query(&query, 3, &DiscoveryBudget::default())
///     .expect("capacity available");
/// assert_eq!(response.version, service.version());
/// assert!(response.results.iter().any(|(_, hits)| {
///     hits.iter().any(|d| d.table == "T3")
/// }));
///
/// // Churn is serialized against reads; the version stamp advances.
/// let v = service.mutate(|lake| lake.remove("animals"));
/// assert!(v > response.version);
/// assert_eq!(service.telemetry().served, 1);
/// ```
pub struct DiscoveryService {
    /// The served lake. Mutations hold the write guard across the lake
    /// change *and* the index sync, so the index is never behind a state
    /// a reader of this lock can observe; queries never take it at all.
    lake: RwLock<DataLake>,
    /// The sharded execution layer queries fan out over. Its own
    /// consistent-snapshot protocol (per-shard version stamps) replaces
    /// the old single state lock on the query path.
    index: ShardedLakeIndex,
    config: ServingConfig,
    in_flight: AtomicUsize,
    /// Per-thread telemetry shards — the hot path locks only the calling
    /// thread's shard; snapshots merge.
    telemetry: [Mutex<ServingTelemetry>; TELEMETRY_SHARDS],
}

impl DiscoveryService {
    /// Build the service: index the lake eagerly, striped across `shards`
    /// index shards (0 is clamped to 1), and take ownership of it. One
    /// shard is byte-for-byte the single-`LakeIndex` service; use
    /// [`DiscoveryService::from_index`] to serve an existing index. With
    /// more than one shard a query probes the shards in
    /// order on its own thread, and mutations write-lock one shard at a
    /// time instead of the world — sharding buys write-lock granularity,
    /// not read speed. Builds the index and hands it to
    /// [`DiscoveryService::from_index`].
    pub fn with_shards(
        lake: DataLake,
        kb: Arc<KnowledgeBase>,
        index_config: LakeIndexConfig,
        config: ServingConfig,
        shards: usize,
    ) -> DiscoveryService {
        let index = ShardedLakeIndex::build(&lake, kb, index_config, shards);
        DiscoveryService::from_index(lake, index, config)
    }

    /// Serve `lake` through an index built earlier — the service takes
    /// ownership of both, and no second index is built. The index is
    /// first brought current with [`ShardedLakeIndex::sync`]: a no-op when
    /// it already reflects `lake`, a changelog delta when the lake moved
    /// on since, a rebuild when `lake` is another lineage. The index's
    /// KB, configuration, shard count and telemetry window carry over.
    pub fn from_index(
        lake: DataLake,
        index: ShardedLakeIndex,
        config: ServingConfig,
    ) -> DiscoveryService {
        index.sync(&lake);
        DiscoveryService {
            lake: RwLock::new(lake),
            index,
            config,
            in_flight: AtomicUsize::new(0),
            telemetry: std::array::from_fn(|_| Mutex::new(ServingTelemetry::default())),
        }
    }

    /// The serving configuration.
    pub fn config(&self) -> &ServingConfig {
        &self.config
    }

    /// Number of storage shards the served index stripes the lake across.
    pub fn shard_count(&self) -> usize {
        self.index.shard_count()
    }

    /// The lake version the service currently serves.
    pub fn version(&self) -> u64 {
        self.index.version()
    }

    /// Try to take an in-flight permit; `None` means over capacity.
    fn try_admit(&self) -> Option<AdmissionPermit<'_>> {
        let mut current = self.in_flight.load(Ordering::Relaxed);
        loop {
            if current >= self.config.max_in_flight {
                return None;
            }
            match self.in_flight.compare_exchange_weak(
                current,
                current + 1,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Some(AdmissionPermit(&self.in_flight)),
                Err(observed) => current = observed,
            }
        }
    }

    /// The calling thread's telemetry shard.
    fn shard(&self) -> &Mutex<ServingTelemetry> {
        &self.telemetry[telemetry_shard()]
    }

    /// Answer one discovery request under an explicit per-request budget.
    ///
    /// Admission control runs first: over capacity, the request is
    /// rejected with [`ServingError::Busy`] without touching any index
    /// shard or doing any engine work. Admitted requests fan out through
    /// [`ShardedLakeIndex::discover_all_budgeted`]'s consistent-snapshot
    /// protocol — never taking the lake lock — and return results stamped
    /// with the version of the shard snapshot they saw.
    pub fn query(
        &self,
        query: &TableQuery,
        k: usize,
        budget: &DiscoveryBudget,
    ) -> Result<ServingResponse, ServingError> {
        let Some(_permit) = self.try_admit() else {
            self.shard().lock().expect("serving telemetry").rejected += 1;
            return Err(ServingError::Busy);
        };
        let t0 = Instant::now();
        let (version, results) = self.index.discover_all_budgeted_versioned(query, k, budget);
        let elapsed = t0.elapsed();
        let mut shard = self.shard().lock().expect("serving telemetry");
        shard.served += 1;
        shard.query_latency.record(elapsed);
        Ok(ServingResponse { version, results })
    }

    /// [`DiscoveryService::query`] with the configured default `k` and
    /// budget.
    pub fn query_default(&self, query: &TableQuery) -> Result<ServingResponse, ServingError> {
        self.query(query, self.config.k, &self.config.budget.clone())
    }

    /// Apply one lake mutation and sync every index shard before
    /// releasing the lake write guard; returns the post-mutation lake
    /// version. Mutations serialize on the lake write guard (they are
    /// maintenance, not traffic) and are not admission-controlled. The
    /// shard sync write-locks one shard at a time, so concurrent queries
    /// keep flowing on every shard not currently being updated — their
    /// consistent-snapshot fan-out keeps mid-sync states unobservable.
    ///
    /// The closure runs under the write guard — keep it to lake calls
    /// (`add_table` / `replace_table` / `remove_table` / `upsert`);
    /// everything it changes becomes visible to queries atomically with
    /// the per-shard index sync.
    pub fn mutate<R>(&self, f: impl FnOnce(&mut DataLake) -> R) -> u64 {
        let t0 = Instant::now();
        let mut guard = self.lake.write().expect("lake lock");
        let _ = f(&mut guard);
        self.index.sync(&guard);
        let version = guard.version();
        drop(guard);
        let elapsed = t0.elapsed();
        let mut shard = self.shard().lock().expect("serving telemetry");
        shard.mutations += 1;
        shard.churn_latency.record(elapsed);
        version
    }

    /// Run a closure over a consistent view of lake and index together —
    /// the escape hatch for callers like the load harness validating a
    /// response against the exact version it was served from. Holding the
    /// lake read guard blocks [`DiscoveryService::mutate`] (and with it
    /// every shard sync), so the index cannot advance under `f`.
    pub fn with_state<R>(&self, f: impl FnOnce(&DataLake, &ShardedLakeIndex) -> R) -> R {
        let guard = self.lake.read().expect("lake lock");
        f(&guard, &self.index)
    }

    /// Merged snapshot of the serving telemetry across all thread shards.
    /// The inner discovery telemetry (planner counters etc.) is separate:
    /// [`DiscoveryService::discovery_telemetry`].
    pub fn telemetry(&self) -> ServingTelemetry {
        let mut out = ServingTelemetry::default();
        for shard in &self.telemetry {
            out.merge(&shard.lock().expect("serving telemetry"));
        }
        out
    }

    /// Merged snapshot of the wrapped index's rolling
    /// [`DiscoveryTelemetry`](crate::DiscoveryTelemetry) across all
    /// storage shards.
    pub fn discovery_telemetry(&self) -> crate::DiscoveryTelemetry {
        self.index.telemetry()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dialite_kb::curated::covid_kb;
    use dialite_table::{fixtures, table};
    use std::time::Duration;

    fn service_with(config: ServingConfig) -> DiscoveryService {
        DiscoveryService::with_shards(
            fixtures::covid_lake(),
            Arc::new(covid_kb()),
            LakeIndexConfig::default(),
            config,
            1,
        )
    }

    fn city_query() -> TableQuery {
        TableQuery::with_column(fixtures::fig2_query(), 1)
    }

    #[test]
    fn responses_are_version_stamped_and_match_direct_index_calls() {
        let service = service_with(ServingConfig::default());
        let response = service.query_default(&city_query()).unwrap();
        assert_eq!(response.version, service.version());
        let direct = service.with_state(|_, index| {
            index.discover_all_budgeted(&city_query(), 5, &DiscoveryBudget::default())
        });
        assert_eq!(response.results, direct);
    }

    #[test]
    fn mutations_advance_the_version_and_queries_see_them() {
        let service = service_with(ServingConfig::default());
        let before = service.query_default(&city_query()).unwrap();
        let v = service.mutate(|lake| {
            lake.upsert(table! {
                "fresh_cities"; ["place"];
                ["berlin"], ["barcelona"], ["boston"], ["madrid"], ["toronto"],
            });
        });
        assert!(v > before.version);
        let after = service.query_default(&city_query()).unwrap();
        assert_eq!(after.version, v);
        assert!(
            after
                .results
                .iter()
                .any(|(_, hits)| hits.iter().any(|d| d.table == "fresh_cities")),
            "churned-in table must be served immediately: {:?}",
            after.results
        );
    }

    #[test]
    fn zero_capacity_rejects_with_busy_and_counts_it() {
        let service = service_with(ServingConfig::default().with_max_in_flight(0));
        assert_eq!(
            service.query_default(&city_query()),
            Err(ServingError::Busy)
        );
        let t = service.telemetry();
        assert_eq!(t.served, 0);
        assert_eq!(t.rejected, 1);
        assert_eq!(t.query_latency.samples, 0, "rejections record no latency");
        assert!(ServingError::Busy.to_string().contains("busy"));
    }

    #[test]
    fn telemetry_counts_and_latency_accumulate_and_reset() {
        let service = service_with(ServingConfig::default());
        service.query_default(&city_query()).unwrap();
        service.query_default(&city_query()).unwrap();
        service.mutate(|lake| lake.remove("animals"));
        let t = service.telemetry();
        assert_eq!(t.served, 2);
        assert_eq!(t.mutations, 1);
        assert_eq!(t.query_latency.samples, 2);
        assert_eq!(t.churn_latency.samples, 1);
        assert!(t.query_latency.percentile(0.5).is_some());
        assert!(t.summary().contains("served 2"));
        // The inner discovery telemetry is its own window.
        assert_eq!(service.discovery_telemetry().topk.queries, 2);
    }

    #[test]
    fn serving_telemetry_merge_is_commutative() {
        let mut a = ServingTelemetry {
            served: 3,
            rejected: 1,
            mutations: 2,
            ..ServingTelemetry::default()
        };
        a.query_latency.record(Duration::from_micros(40));
        let mut b = ServingTelemetry::default();
        b.query_latency.record(Duration::from_micros(4_000));
        b.served = 1;
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.served, 4);
        assert_eq!(ab.query_latency.samples, 2);
    }

    #[test]
    fn len_and_is_empty_track_the_served_lake() {
        let service = service_with(ServingConfig::default());
        let served = || service.lake.read().expect("lake lock").len();
        let n = served();
        assert!(n > 0);
        service.mutate(|lake| lake.remove("animals"));
        assert_eq!(served(), n - 1);
    }
}
