//! Rolling discovery telemetry — the observability half of the budgeted
//! pipeline.
//!
//! The budgeted joinable search returns per-query
//! [`TopKStats`](crate::TopKStats) and the capped SANTOS and metadata
//! engines return per-query [`RetrievalStats`](crate::RetrievalStats), but
//! one query's numbers are weather, not climate: production tuning needs
//! the *rates* — how often a query takes the exact route, how many
//! partitions the search proves irrelevant, how often a budget cap (not
//! the optimality bound) ends a search. [`DiscoveryTelemetry`] is that
//! aggregate: counter blocks per engine leg plus coarse per-engine latency
//! histograms, owned by `LakeIndex` (every budgeted query folds its stats
//! in) and surfaced through `Pipeline::telemetry()`.
//!
//! Telemetry is *mergeable* and *resettable*: shards serving the same lake
//! can [`DiscoveryTelemetry::merge`] their windows into a fleet view, and a
//! scrape-and-reset loop gets non-overlapping windows from
//! [`DiscoveryTelemetry::reset`]. Counter blocks are plain `PartialEq`
//! data, so tests can pin them in lockstep against independently
//! accumulated [`TopKStats`](crate::TopKStats).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use crate::retrieval::RetrievalStats;
use crate::topk::TopKStats;

/// Upper bounds (exclusive, in microseconds) of the latency buckets; the
/// last bucket is unbounded. Decade-spaced: interactive discovery spans
/// ~10µs (cached exact-path hits) to ~100ms (probe-all over a cold lake).
pub const LATENCY_BUCKET_BOUNDS_US: [u64; 6] = [10, 100, 1_000, 10_000, 100_000, 1_000_000];

/// A fixed-bucket latency histogram (decade buckets over microseconds)
/// plus exact totals, so both tail shape and mean survive aggregation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LatencyHistogram {
    /// Sample counts per bucket: `buckets[i]` counts samples below
    /// [`LATENCY_BUCKET_BOUNDS_US`]`[i]` (and at or above the previous
    /// bound); the final slot counts everything slower.
    pub buckets: [u64; LATENCY_BUCKET_BOUNDS_US.len() + 1],
    /// Total recorded samples.
    pub samples: u64,
    /// Sum of all recorded latencies, in microseconds.
    pub total_micros: u64,
}

impl LatencyHistogram {
    /// Fold one measured latency in.
    pub(crate) fn record(&mut self, latency: Duration) {
        let us = latency.as_micros().min(u64::MAX as u128) as u64;
        let slot = LATENCY_BUCKET_BOUNDS_US
            .iter()
            .position(|&bound| us < bound)
            .unwrap_or(LATENCY_BUCKET_BOUNDS_US.len());
        self.buckets[slot] += 1;
        self.samples += 1;
        self.total_micros = self.total_micros.saturating_add(us);
    }

    /// Mean latency in microseconds (0 with no samples).
    pub fn mean_micros(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.total_micros as f64 / self.samples as f64
        }
    }

    /// Add another histogram's samples into this one.
    pub(crate) fn merge(&mut self, other: &LatencyHistogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets) {
            *mine += theirs;
        }
        self.samples += other.samples;
        self.total_micros = self.total_micros.saturating_add(other.total_micros);
    }

    /// The `q`-quantile of the recorded samples in microseconds
    /// (`q` in `[0, 1]`), linearly interpolated *within* the decade bucket
    /// holding the quantile rank. `None` when no samples were recorded or
    /// `q` is out of range — never `0` or `NaN`, so an empty window cannot
    /// masquerade as a fast one.
    ///
    /// The bucket holding the rank is exact; the position inside it is
    /// interpolated, so the absolute error is bounded by one bucket width.
    /// The final unbounded bucket reports its lower bound (a conservative
    /// under-estimate for extreme tails).
    pub fn percentile(&self, q: f64) -> Option<f64> {
        if self.samples == 0 || !(0.0..=1.0).contains(&q) {
            return None;
        }
        // 1-based rank of the sample the quantile lands on (nearest-rank).
        let rank = ((q * self.samples as f64).ceil() as u64).clamp(1, self.samples);
        let mut seen = 0u64;
        for (i, &count) in self.buckets.iter().enumerate() {
            if count == 0 {
                continue;
            }
            if seen + count >= rank {
                let lo = if i == 0 {
                    0
                } else {
                    LATENCY_BUCKET_BOUNDS_US[i - 1]
                };
                return Some(match LATENCY_BUCKET_BOUNDS_US.get(i) {
                    Some(&hi) => {
                        // Midpoint-rank interpolation: treat the rank-th
                        // sample as sitting at the middle of its 1/count
                        // slice so exports stay strictly inside the
                        // half-open bucket `[lo, hi)`.
                        let frac = ((rank - seen) as f64 - 0.5) / count as f64;
                        lo as f64 + (hi - lo) as f64 * frac
                    }
                    None => lo as f64,
                });
            }
            seen += count;
        }
        None
    }

    /// The standard serving-tail snapshot: p50/p90/p99/p999 (see
    /// [`LatencyHistogram::percentile`]) plus mean and sample count. The
    /// histogram itself is the merge-compatible form — shard snapshots
    /// merge first, *then* export percentiles
    /// (percentiles of merged windows are not sums of per-window
    /// percentiles).
    ///
    /// An empty window exports `None` in every percentile field (the
    /// [`LatencyHistogram::percentile`] contract) — never `0` or `NaN` —
    /// so a shard that served nothing cannot masquerade as a fast one:
    ///
    /// ```
    /// use dialite_discovery::LatencyHistogram;
    ///
    /// let p = LatencyHistogram::default().percentiles();
    /// assert_eq!(p.samples, 0);
    /// assert_eq!(p.p50_us, None);
    /// assert_eq!(p.p999_us, None);
    /// assert_eq!(p.mean_us, 0.0);
    /// ```
    pub fn percentiles(&self) -> LatencyPercentiles {
        LatencyPercentiles {
            samples: self.samples,
            mean_us: self.mean_micros(),
            p50_us: self.percentile(0.50),
            p90_us: self.percentile(0.90),
            p99_us: self.percentile(0.99),
            p999_us: self.percentile(0.999),
        }
    }

    /// One-line bucket rendering, e.g. `<10us:3 <100us:12 ... >=1s:0`.
    pub fn render(&self) -> String {
        let mut parts = Vec::with_capacity(self.buckets.len());
        let label = |us: u64| -> String {
            if us >= 1_000_000 {
                format!("{}s", us / 1_000_000)
            } else if us >= 1_000 {
                format!("{}ms", us / 1_000)
            } else {
                format!("{us}us")
            }
        };
        for (i, count) in self.buckets.iter().enumerate() {
            match LATENCY_BUCKET_BOUNDS_US.get(i) {
                Some(&bound) => parts.push(format!("<{}:{count}", label(bound))),
                None => parts.push(format!(
                    ">={}:{count}",
                    label(*LATENCY_BUCKET_BOUNDS_US.last().expect("non-empty"))
                )),
            }
        }
        parts.join(" ")
    }
}

/// Exported tail-latency summary of one [`LatencyHistogram`] window —
/// what a serving dashboard reads. All percentile fields are `None` on an
/// empty window (never `0` / `NaN`).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LatencyPercentiles {
    /// Samples the window holds.
    pub samples: u64,
    /// Mean latency in microseconds (0 with no samples).
    pub mean_us: f64,
    /// Median, microseconds.
    pub p50_us: Option<f64>,
    /// 90th percentile, microseconds.
    pub p90_us: Option<f64>,
    /// 99th percentile, microseconds.
    pub p99_us: Option<f64>,
    /// 99.9th percentile, microseconds.
    pub p999_us: Option<f64>,
}

impl LatencyPercentiles {
    /// Compact one-line rendering, e.g.
    /// `p50 0.9ms p90 1.2ms p99 4.1ms p999 9.8ms (mean 1.1ms, n=1280)`;
    /// `-` stands for an empty window's `None`.
    pub fn render(&self) -> String {
        let fmt = |p: Option<f64>| -> String {
            match p {
                Some(us) if us >= 1_000.0 => format!("{:.1}ms", us / 1_000.0),
                Some(us) => format!("{us:.0}us"),
                None => "-".to_string(),
            }
        };
        format!(
            "p50 {} p90 {} p99 {} p999 {} (mean {}, n={})",
            fmt(self.p50_us),
            fmt(self.p90_us),
            fmt(self.p99_us),
            fmt(self.p999_us),
            fmt(if self.samples == 0 {
                None
            } else {
                Some(self.mean_us)
            }),
            self.samples,
        )
    }

    /// One JSON object, e.g.
    /// `{"samples":128,"mean_us":412.5,"p50_us":390.1,...}`. Empty-window
    /// `None` percentiles export as JSON `null`, preserving the
    /// [`LatencyHistogram::percentile`] contract across serialization.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"samples\":{},\"mean_us\":{:.1},\"p50_us\":{},\"p90_us\":{},\
             \"p99_us\":{},\"p999_us\":{}}}",
            self.samples,
            self.mean_us,
            json_opt_us(self.p50_us),
            json_opt_us(self.p90_us),
            json_opt_us(self.p99_us),
            json_opt_us(self.p999_us),
        )
    }
}

/// `Option<f64>` microseconds as a JSON fragment: `null` for `None`.
fn json_opt_us(v: Option<f64>) -> String {
    match v {
        Some(us) => format!("{us:.1}"),
        None => "null".to_string(),
    }
}

/// Number of independent telemetry shards. A small power of two comfortably
/// above the concurrent-client counts the serving bench drives (32), so
/// threads rarely contend on the same shard lock.
pub(crate) const TELEMETRY_SHARDS: usize = 16;

/// The shard a thread's telemetry lands in: assigned once per thread from a
/// process-wide counter, so each of the first [`TELEMETRY_SHARDS`] threads
/// gets a private shard and later threads wrap around.
pub(crate) fn telemetry_shard() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SHARD: usize = NEXT.fetch_add(1, Ordering::Relaxed) % TELEMETRY_SHARDS;
    }
    SHARD.with(|s| *s)
}

/// Sharded [`DiscoveryTelemetry`] accumulator, so concurrent queries do
/// not serialize on one telemetry `Mutex`. Each thread records into its
/// own shard (a handful of counter adds under an uncontended lock);
/// [`ShardedTelemetry::snapshot`] merges the shards into one window on
/// demand. Counter sums and histogram merges are order-independent, so a
/// snapshot equals a single-`Mutex` window exactly — pinned by the
/// concurrent lockstep test in `tests/incremental_oracle.rs` and the
/// thread-churn merge property below.
#[derive(Debug, Default)]
pub(crate) struct ShardedTelemetry {
    shards: [Mutex<DiscoveryTelemetry>; TELEMETRY_SHARDS],
}

impl ShardedTelemetry {
    /// Fold one query into the calling thread's shard: `f` applies one of
    /// the [`DiscoveryTelemetry`] `record_*` methods to it.
    pub(crate) fn record(&self, f: impl FnOnce(&mut DiscoveryTelemetry)) {
        f(&mut self.shards[telemetry_shard()]
            .lock()
            .expect("telemetry shard"));
    }

    /// Merge every shard into one window. Counter sums and histogram
    /// merges are order-independent, so the snapshot equals a
    /// single-threaded fold of the same recordings in any order.
    pub(crate) fn snapshot(&self) -> DiscoveryTelemetry {
        let mut out = DiscoveryTelemetry::default();
        for shard in &self.shards {
            out.merge(&shard.lock().expect("telemetry shard"));
        }
        out
    }

    /// Zero every shard.
    pub(crate) fn reset(&self) {
        for shard in &self.shards {
            shard.lock().expect("telemetry shard").reset();
        }
    }

    /// Replace the whole window (used when a rebuild carries telemetry
    /// across): everything lands in shard 0; snapshots are merge-order
    /// independent, so placement does not matter.
    pub(crate) fn restore(&mut self, window: DiscoveryTelemetry) {
        for shard in &mut self.shards {
            shard.get_mut().expect("telemetry shard").reset();
        }
        *self.shards[0].get_mut().expect("telemetry shard") = window;
    }
}

/// Aggregated counters of the planned joinable leg — the rolling sum of
/// every [`TopKStats`](crate::TopKStats) folded in. Plain data with
/// `PartialEq`, so lockstep tests can compare against an independently
/// accumulated sum.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TopKCounters {
    /// Planned queries recorded.
    pub queries: u64,
    /// Always 0: no query-signature cache exists. Kept, with its JSON
    /// key, for readers of the telemetry format.
    pub cache_hits: u64,
    /// Queries that took the sketch route (each hashes its own column).
    pub cache_misses: u64,
    /// Queries answered exactly by the posting merge (no sketch work).
    pub exact_path: u64,
    /// LSH partitions actually probed, summed.
    pub partitions_probed: u64,
    /// LSH partitions proven irrelevant (threshold/optimality/budget),
    /// summed.
    pub partitions_pruned: u64,
    /// Candidate domains whose containment was computed exactly (sketch
    /// path verification or exact-path posting merge), summed.
    pub candidates_verified: u64,
    /// Queries ended by the provable optimality bound.
    pub terminated_early: u64,
    /// Queries cut short by a budget cap (best-effort results).
    pub budget_exhausted: u64,
    /// Posting entries the postings budget left unscanned on the exact
    /// path, summed.
    pub postings_skipped: u64,
}

impl TopKCounters {
    /// Fold one query's stats in.
    pub(crate) fn record(&mut self, stats: &TopKStats) {
        self.queries += 1;
        if stats.exact_path {
            self.exact_path += 1;
        } else {
            self.cache_misses += 1;
        }
        self.partitions_probed += stats.partitions_probed as u64;
        self.partitions_pruned += stats.partitions_pruned as u64;
        self.candidates_verified += stats.candidates_verified as u64;
        if stats.terminated_early {
            self.terminated_early += 1;
        }
        if stats.budget_exhausted {
            self.budget_exhausted += 1;
        }
        self.postings_skipped += stats.postings_skipped as u64;
    }

    /// Add another window's counters into this one.
    pub(crate) fn merge(&mut self, other: &TopKCounters) {
        self.queries += other.queries;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.exact_path += other.exact_path;
        self.partitions_probed += other.partitions_probed;
        self.partitions_pruned += other.partitions_pruned;
        self.candidates_verified += other.candidates_verified;
        self.terminated_early += other.terminated_early;
        self.budget_exhausted += other.budget_exhausted;
        self.postings_skipped += other.postings_skipped;
    }

    /// Fraction of queries a budget cap cut short (0 when none ran).
    pub fn budget_exhaustion_rate(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.budget_exhausted as f64 / self.queries as f64
        }
    }
}

/// Aggregated counters of one capped leg (SANTOS or metadata) — the
/// rolling sum of every [`RetrievalStats`](crate::RetrievalStats) folded
/// in.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetrievalCounters {
    /// Capped-retrieval queries recorded.
    pub queries: u64,
    /// Candidate tables surfaced by the leg's inverted index (or the full
    /// scan), summed.
    pub candidates_retrieved: u64,
    /// Candidates actually scored, summed.
    pub candidates_scored: u64,
    /// Candidates skipped because the k-th score provably beat their
    /// upper bound, summed.
    pub bound_pruned: u64,
    /// Queries whose retrieval stopped at the candidate cap.
    pub cap_hits: u64,
    /// Queries that ran the leg's exhaustive full scan (its oracle path,
    /// taken only at an unlimited cap).
    pub full_scans: u64,
    /// SANTOS only (always 0 for metadata): typeless candidates skipped
    /// because the k-th score provably beat their synthesized-signal upper
    /// bound, summed.
    pub typeless_pruned: u64,
}

impl RetrievalCounters {
    /// Fold one query's stats in.
    pub(crate) fn record(&mut self, stats: &RetrievalStats) {
        self.queries += 1;
        self.candidates_retrieved += stats.candidates_retrieved as u64;
        self.candidates_scored += stats.candidates_scored as u64;
        self.bound_pruned += stats.bound_pruned as u64;
        if stats.cap_hit {
            self.cap_hits += 1;
        }
        if stats.full_scan {
            self.full_scans += 1;
        }
        self.typeless_pruned += stats.typeless_pruned as u64;
    }

    /// Add another window's counters into this one.
    pub(crate) fn merge(&mut self, other: &RetrievalCounters) {
        self.queries += other.queries;
        self.candidates_retrieved += other.candidates_retrieved;
        self.candidates_scored += other.candidates_scored;
        self.bound_pruned += other.bound_pruned;
        self.cap_hits += other.cap_hits;
        self.full_scans += other.full_scans;
        self.typeless_pruned += other.typeless_pruned;
    }

    /// The leg's block of [`DiscoveryTelemetry::summary`]: one counter
    /// line and one latency line.
    fn summary(&self, leg: &str, latency: &LatencyHistogram) -> String {
        format!(
            "{leg}: {} queries ({} full-scan), candidates {} retrieved / \
             {} scored / {} bound-pruned / {} typeless-pruned, {} cap-hits\n  \
             latency: {} (mean {:.0}us)",
            self.queries,
            self.full_scans,
            self.candidates_retrieved,
            self.candidates_scored,
            self.bound_pruned,
            self.typeless_pruned,
            self.cap_hits,
            latency.render(),
            latency.mean_micros(),
        )
    }

    /// The leg's object in [`DiscoveryTelemetry::to_json`].
    fn to_json(self) -> String {
        format!(
            "{{\"queries\":{},\"candidates_retrieved\":{},\"candidates_scored\":{},\
             \"bound_pruned\":{},\"cap_hits\":{},\"full_scans\":{},\"typeless_pruned\":{}}}",
            self.queries,
            self.candidates_retrieved,
            self.candidates_scored,
            self.bound_pruned,
            self.cap_hits,
            self.full_scans,
            self.typeless_pruned,
        )
    }
}

/// The rolling aggregate of what the budgeted discovery stage actually did:
/// per-leg counters plus per-engine latency histograms. `LakeIndex` owns
/// one and folds every budgeted query in; `Pipeline::telemetry()` hands out
/// snapshots.
///
/// ```
/// use std::time::Duration;
/// use dialite_discovery::{DiscoveryTelemetry, TopKStats};
///
/// let mut window_a = DiscoveryTelemetry::default();
/// window_a.record_topk(
///     &TopKStats { partitions_probed: 2, ..TopKStats::default() },
///     Duration::from_micros(120),
/// );
/// let mut window_b = DiscoveryTelemetry::default();
/// window_b.record_topk(&TopKStats::default(), Duration::from_micros(80));
///
/// // Windows merge into a fleet view; reset opens a fresh window.
/// window_a.merge(&window_b);
/// assert_eq!(window_a.topk.queries, 2);
/// assert_eq!(window_a.topk.partitions_probed, 2);
/// window_a.reset();
/// assert_eq!(window_a.topk.queries, 0);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DiscoveryTelemetry {
    /// Planned joinable-leg counters.
    pub topk: TopKCounters,
    /// Capped SANTOS-leg counters.
    pub santos: RetrievalCounters,
    /// Capped metadata-leg counters (all zero unless the optional
    /// metadata leg is enabled).
    pub metadata: RetrievalCounters,
    /// Joinable-leg query latency.
    pub joinable_latency: LatencyHistogram,
    /// SANTOS-leg query latency.
    pub santos_latency: LatencyHistogram,
    /// Metadata-leg query latency.
    pub metadata_latency: LatencyHistogram,
}

impl DiscoveryTelemetry {
    /// Fold one planned joinable query in.
    pub fn record_topk(&mut self, stats: &TopKStats, latency: Duration) {
        self.topk.record(stats);
        self.joinable_latency.record(latency);
    }

    /// Fold one capped SANTOS query in.
    pub fn record_santos(&mut self, stats: &RetrievalStats, latency: Duration) {
        self.santos.record(stats);
        self.santos_latency.record(latency);
    }

    /// Fold one capped metadata query in.
    pub fn record_metadata(&mut self, stats: &RetrievalStats, latency: Duration) {
        self.metadata.record(stats);
        self.metadata_latency.record(latency);
    }

    /// Add another telemetry window into this one (counters sum, latency
    /// histograms concatenate). Merging is commutative up to counter
    /// arithmetic, so shard order does not matter.
    pub fn merge(&mut self, other: &DiscoveryTelemetry) {
        self.topk.merge(&other.topk);
        self.santos.merge(&other.santos);
        self.metadata.merge(&other.metadata);
        self.joinable_latency.merge(&other.joinable_latency);
        self.santos_latency.merge(&other.santos_latency);
        self.metadata_latency.merge(&other.metadata_latency);
    }

    /// Zero every counter and histogram — the start of a fresh window.
    pub fn reset(&mut self) {
        *self = DiscoveryTelemetry::default();
    }

    /// A compact human-readable report, the form `dialite demo` and
    /// `dialite discover` print.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "joinable: {} queries ({} exact-path), \
             partitions {} probed / {} pruned, {} verified, \
             {} postings-skipped, {} early-terminated, \
             budget exhaustion rate {:.2}\n",
            self.topk.queries,
            self.topk.exact_path,
            self.topk.partitions_probed,
            self.topk.partitions_pruned,
            self.topk.candidates_verified,
            self.topk.postings_skipped,
            self.topk.terminated_early,
            self.topk.budget_exhaustion_rate(),
        ));
        out.push_str(&format!(
            "  latency: {} (mean {:.0}us)\n",
            self.joinable_latency.render(),
            self.joinable_latency.mean_micros(),
        ));
        out.push_str(&self.santos.summary("santos", &self.santos_latency));
        if self.metadata.queries > 0 {
            out.push('\n');
            out.push_str(&self.metadata.summary("metadata", &self.metadata_latency));
        }
        out
    }

    /// The whole window as one JSON object — counters per leg plus each
    /// leg's latency percentiles ([`LatencyPercentiles::to_json`]). This is
    /// the machine-readable sibling of [`DiscoveryTelemetry::summary`],
    /// what `Pipeline::telemetry_json()` and the `dialite telemetry`
    /// subcommand emit. Merge shard windows first, then export: JSON rows
    /// are a terminal form, not mergeable.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"topk\":{{\"queries\":{},\"cache_hits\":{},\"cache_misses\":{},\
             \"exact_path\":{},\"partitions_probed\":{},\"partitions_pruned\":{},\
             \"candidates_verified\":{},\"terminated_early\":{},\
             \"budget_exhausted\":{},\"postings_skipped\":{}}},\
             \"santos\":{},\"metadata\":{},\
             \"joinable_latency\":{},\"santos_latency\":{},\
             \"metadata_latency\":{}}}",
            self.topk.queries,
            self.topk.cache_hits,
            self.topk.cache_misses,
            self.topk.exact_path,
            self.topk.partitions_probed,
            self.topk.partitions_pruned,
            self.topk.candidates_verified,
            self.topk.terminated_early,
            self.topk.budget_exhausted,
            self.topk.postings_skipped,
            self.santos.to_json(),
            self.metadata.to_json(),
            self.joinable_latency.percentiles().to_json(),
            self.santos_latency.percentiles().to_json(),
            self.metadata_latency.percentiles().to_json(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn topk_stats(probed: usize, verified: usize) -> TopKStats {
        TopKStats {
            exact_path: false,
            partitions_probed: probed,
            partitions_pruned: 1,
            candidates_verified: verified,
            terminated_early: probed > 1,
            budget_exhausted: false,
            postings_skipped: probed * 2,
        }
    }

    #[test]
    fn histogram_buckets_by_decade_and_tracks_mean() {
        let mut h = LatencyHistogram::default();
        h.record(Duration::from_micros(3)); // <10us
        h.record(Duration::from_micros(50)); // <100us
        h.record(Duration::from_micros(999)); // <1ms
        h.record(Duration::from_millis(5)); // <10ms
        h.record(Duration::from_secs(2)); // >=1s
        assert_eq!(h.buckets, [1, 1, 1, 1, 0, 0, 1]);
        assert_eq!(h.samples, 5);
        let mean = h.mean_micros();
        assert!((mean - (3 + 50 + 999 + 5_000 + 2_000_000) as f64 / 5.0).abs() < 1e-9);
        assert!(h.render().contains("<10us:1"));
        assert!(h.render().contains(">=1s:1"));
    }

    #[test]
    fn record_classifies_cache_and_exact_paths() {
        let mut t = DiscoveryTelemetry::default();
        t.record_topk(&TopKStats::default(), Duration::from_micros(1));
        t.record_topk(&TopKStats::default(), Duration::from_micros(1));
        t.record_topk(
            &TopKStats {
                exact_path: true,
                ..TopKStats::default()
            },
            Duration::from_micros(1),
        );
        assert_eq!(t.topk.queries, 3);
        // No signature cache: every sketch-route query counts as a miss,
        // and an exact-route query as neither.
        assert_eq!(t.topk.cache_hits, 0);
        assert_eq!(t.topk.cache_misses, 2);
        assert_eq!(t.topk.exact_path, 1);
    }

    #[test]
    fn merge_sums_counters_and_histograms() {
        let mut a = DiscoveryTelemetry::default();
        a.record_topk(&topk_stats(3, 7), Duration::from_micros(30));
        a.record_santos(
            &RetrievalStats {
                candidates_retrieved: 10,
                candidates_scored: 4,
                bound_pruned: 6,
                cap_hit: true,
                full_scan: false,
                typeless_pruned: 2,
            },
            Duration::from_micros(500),
        );
        let mut b = DiscoveryTelemetry::default();
        b.record_topk(&topk_stats(1, 2), Duration::from_micros(70));

        let mut merged_ab = a.clone();
        merged_ab.merge(&b);
        let mut merged_ba = b.clone();
        merged_ba.merge(&a);
        assert_eq!(merged_ab, merged_ba, "merge must be commutative");

        assert_eq!(merged_ab.topk.queries, 2);
        assert_eq!(merged_ab.topk.partitions_probed, 4);
        assert_eq!(merged_ab.topk.candidates_verified, 9);
        assert_eq!(merged_ab.topk.terminated_early, 1);
        assert_eq!(merged_ab.topk.postings_skipped, 8);
        assert_eq!(merged_ab.santos.candidates_retrieved, 10);
        assert_eq!(merged_ab.santos.cap_hits, 1);
        assert_eq!(merged_ab.santos.typeless_pruned, 2);
        assert_eq!(merged_ab.joinable_latency.samples, 2);
        assert_eq!(merged_ab.joinable_latency.total_micros, 100);
    }

    #[test]
    fn reset_opens_a_fresh_window() {
        let mut t = DiscoveryTelemetry::default();
        t.record_topk(&topk_stats(2, 5), Duration::from_micros(10));
        t.record_santos(&RetrievalStats::default(), Duration::from_micros(10));
        assert_ne!(t, DiscoveryTelemetry::default());
        t.reset();
        assert_eq!(t, DiscoveryTelemetry::default());
    }

    #[test]
    fn rates_are_zero_on_empty_windows_not_nan() {
        let t = DiscoveryTelemetry::default();
        assert_eq!(t.topk.budget_exhaustion_rate(), 0.0);
        assert_eq!(t.joinable_latency.mean_micros(), 0.0);
        assert!(!t.summary().is_empty());
    }

    /// The decade bucket that holds a sample — the resolution bound the
    /// percentile tests assert within.
    fn bucket_bounds(us: u64) -> (f64, f64) {
        let slot = LATENCY_BUCKET_BOUNDS_US
            .iter()
            .position(|&b| us < b)
            .unwrap_or(LATENCY_BUCKET_BOUNDS_US.len());
        let lo = if slot == 0 {
            0.0
        } else {
            LATENCY_BUCKET_BOUNDS_US[slot - 1] as f64
        };
        let hi = LATENCY_BUCKET_BOUNDS_US
            .get(slot)
            .map(|&b| b as f64)
            .unwrap_or(f64::INFINITY);
        (lo, hi)
    }

    #[test]
    fn percentiles_of_known_samples_land_in_the_right_bucket() {
        // 1000 samples: 500 at ~50us, 400 at ~500us, 90 at ~5ms, 9 at
        // ~50ms, 1 at ~500ms → true p50=50us, p90=500us, p99=5ms,
        // p999=50ms. Each export must land within the decade bucket of the
        // true value (one-bucket error bound).
        let mut h = LatencyHistogram::default();
        let spec: &[(u64, usize)] = &[
            (50, 500),
            (500, 400),
            (5_000, 90),
            (50_000, 9),
            (500_000, 1),
        ];
        for &(us, n) in spec {
            for _ in 0..n {
                h.record(Duration::from_micros(us));
            }
        }
        assert_eq!(h.samples, 1000);
        for (q, true_us) in [(0.50, 50u64), (0.90, 500), (0.99, 5_000), (0.999, 50_000)] {
            let got = h.percentile(q).unwrap();
            let (lo, hi) = bucket_bounds(true_us);
            assert!(
                got >= lo && got < hi,
                "p{q}: got {got}us, want within [{lo}, {hi}) around {true_us}us"
            );
        }
        // The snapshot form agrees with the direct calls.
        let p = h.percentiles();
        assert_eq!(p.p50_us, h.percentile(0.50));
        assert_eq!(p.p999_us, h.percentile(0.999));
        assert_eq!(p.samples, 1000);
        assert!(p.render().contains("n=1000"));
    }

    #[test]
    fn percentile_interpolates_within_a_bucket() {
        // All 10 samples in the [100us, 1ms) bucket: ranks interpolate
        // linearly across the bucket, so p50 sits mid-bucket, well below
        // p99 — the export is not just the bucket edge.
        let mut h = LatencyHistogram::default();
        for _ in 0..10 {
            h.record(Duration::from_micros(300));
        }
        let p50 = h.percentile(0.50).unwrap();
        let p99 = h.percentile(0.99).unwrap();
        assert!(
            (100.0..1_000.0).contains(&p50) && (100.0..1_000.0).contains(&p99),
            "both within the bucket: p50={p50} p99={p99}"
        );
        assert!(p50 < p99, "ranks must order within the bucket");
    }

    #[test]
    fn percentile_merge_of_shards_equals_concatenated_samples() {
        // Split one sample stream across 3 "shard" histograms; merging the
        // shard snapshots must reproduce the concatenated histogram (and
        // therefore identical percentile exports).
        let samples: Vec<u64> = (0..300).map(|i| (i * 37) % 20_000 + 3).collect();
        let mut whole = LatencyHistogram::default();
        let mut shards = vec![LatencyHistogram::default(); 3];
        for (i, &us) in samples.iter().enumerate() {
            whole.record(Duration::from_micros(us));
            shards[i % 3].record(Duration::from_micros(us));
        }
        let mut merged = LatencyHistogram::default();
        for s in &shards {
            merged.merge(s);
        }
        assert_eq!(merged, whole, "merge must equal the concatenated stream");
        for q in [0.5, 0.9, 0.99, 0.999] {
            assert_eq!(merged.percentile(q), whole.percentile(q));
        }
    }

    #[test]
    fn empty_histogram_exports_none_not_zero_or_nan() {
        let h = LatencyHistogram::default();
        for q in [0.0, 0.5, 0.99, 0.999, 1.0] {
            assert_eq!(h.percentile(q), None, "q={q}");
        }
        let p = h.percentiles();
        assert_eq!(p.p50_us, None);
        assert_eq!(p.p999_us, None);
        assert_eq!(p.samples, 0);
        assert!(p.render().contains('-'), "{}", p.render());
        // Out-of-range quantiles are None even on non-empty windows.
        let mut h = LatencyHistogram::default();
        h.record(Duration::from_micros(5));
        assert_eq!(h.percentile(-0.1), None);
        assert_eq!(h.percentile(1.5), None);
        assert!(h.percentile(1.0).is_some());
    }

    #[test]
    fn unbounded_tail_bucket_reports_its_lower_bound() {
        let mut h = LatencyHistogram::default();
        h.record(Duration::from_secs(30));
        assert_eq!(h.percentile(0.5), Some(1_000_000.0));
    }

    #[test]
    fn sharded_snapshot_equals_serial_window() {
        let sharded = ShardedTelemetry::default();
        let mut serial = DiscoveryTelemetry::default();
        for i in 0..20 {
            let stats = topk_stats(i % 3, i % 5);
            sharded.record(|t| t.record_topk(&stats, Duration::from_micros(i as u64)));
            serial.record_topk(&stats, Duration::from_micros(i as u64));
        }
        sharded.record(|t| t.record_santos(&RetrievalStats::default(), Duration::from_micros(7)));
        serial.record_santos(&RetrievalStats::default(), Duration::from_micros(7));
        assert_eq!(sharded.snapshot(), serial);
        sharded.reset();
        assert_eq!(sharded.snapshot(), DiscoveryTelemetry::default());
    }

    #[test]
    fn metadata_leg_records_merges_and_exports() {
        let mut a = DiscoveryTelemetry::default();
        a.record_metadata(
            &RetrievalStats {
                candidates_retrieved: 12,
                candidates_scored: 5,
                bound_pruned: 7,
                cap_hit: true,
                full_scan: false,
                typeless_pruned: 0,
            },
            Duration::from_micros(40),
        );
        let mut b = DiscoveryTelemetry::default();
        b.record_metadata(&RetrievalStats::default(), Duration::from_micros(60));
        a.merge(&b);
        assert_eq!(a.metadata.queries, 2);
        assert_eq!(a.metadata.candidates_retrieved, 12);
        assert_eq!(a.metadata.bound_pruned, 7);
        assert_eq!(a.metadata.cap_hits, 1);
        assert_eq!(a.metadata_latency.samples, 2);
        assert_eq!(a.metadata_latency.total_micros, 100);
        assert!(a.summary().contains("metadata: 2 queries"));
        let json = a.to_json();
        assert!(
            json.contains("\"metadata\":{\"queries\":2"),
            "missing metadata block:\n{json}"
        );
        assert!(
            json.contains("\"metadata_latency\":{\"samples\":2"),
            "missing metadata latency:\n{json}"
        );
        // The sharded accumulator routes the metadata leg too.
        let sharded = ShardedTelemetry::default();
        sharded.record(|t| t.record_metadata(&RetrievalStats::default(), Duration::from_micros(9)));
        assert_eq!(sharded.snapshot().metadata.queries, 1);
    }

    #[test]
    fn json_export_carries_counters_and_null_percentiles() {
        let mut t = DiscoveryTelemetry::default();
        t.record_topk(&topk_stats(3, 7), Duration::from_micros(250));
        let json = t.to_json();
        for needle in [
            "\"topk\":{\"queries\":1",
            "\"partitions_probed\":3",
            "\"candidates_verified\":7",
            "\"santos\":{\"queries\":0",
            "\"joinable_latency\":{\"samples\":1",
            // The santos leg saw nothing: its percentiles must be JSON
            // null, not 0 (the empty-window contract survives export).
            "\"santos_latency\":{\"samples\":0,\"mean_us\":0.0,\"p50_us\":null",
        ] {
            assert!(json.contains(needle), "missing {needle}:\n{json}");
        }
        // Valid-JSON smoke: balanced braces, no trailing commas.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
        assert!(!json.contains(",}"), "{json}");
    }

    #[test]
    fn summary_mentions_the_headline_fields() {
        let mut t = DiscoveryTelemetry::default();
        t.record_topk(&topk_stats(2, 5), Duration::from_micros(10));
        let s = t.summary();
        for needle in ["exact-path", "pruned", "budget exhaustion", "santos"] {
            assert!(s.contains(needle), "summary missing {needle}:\n{s}");
        }
    }

    proptest! {
        /// Thread-churn merge property: however the recordings are spread
        /// over concurrent threads, the sharded snapshot equals the
        /// single-threaded fold of the exact same recordings. Durations are
        /// whole microseconds, so even the histograms' f64 mean accumulation
        /// is exact and the windows compare equal as a whole.
        #[test]
        fn sharded_telemetry_snapshot_equals_single_threaded_fold(
            seed in any::<u64>(),
            threads in 1usize..9,
            per_thread in 1usize..24,
        ) {
            // Deterministic per-(thread, i) recordings derived from the seed.
            let stats_at = |t: usize, i: usize| {
                let x = seed
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .wrapping_add((t * 1_000 + i) as u64);
                let topk = TopKStats {
                    exact_path: x & 2 == 0,
                    partitions_probed: (x % 7) as usize,
                    partitions_pruned: (x % 5) as usize,
                    candidates_verified: (x % 97) as usize,
                    terminated_early: x & 4 == 0,
                    budget_exhausted: x & 8 == 0,
                    postings_skipped: (x % 31) as usize,
                };
                let santos = RetrievalStats {
                    candidates_retrieved: (x % 211) as usize,
                    candidates_scored: (x % 89) as usize,
                    bound_pruned: (x % 13) as usize,
                    cap_hit: x & 16 == 0,
                    full_scan: x & 32 == 0,
                    typeless_pruned: (x % 17) as usize,
                };
                let metadata = RetrievalStats {
                    candidates_retrieved: (x % 151) as usize,
                    candidates_scored: (x % 67) as usize,
                    bound_pruned: (x % 11) as usize,
                    cap_hit: x & 64 == 0,
                    full_scan: x & 128 == 0,
                    typeless_pruned: 0,
                };
                let latency = Duration::from_micros(x % 2_000_000);
                (topk, santos, metadata, latency)
            };

            let mut expected = DiscoveryTelemetry::default();
            for t in 0..threads {
                for i in 0..per_thread {
                    let (topk, santos, metadata, latency) = stats_at(t, i);
                    expected.record_topk(&topk, latency);
                    expected.record_santos(&santos, latency);
                    expected.record_metadata(&metadata, latency);
                }
            }

            let sharded = ShardedTelemetry::default();
            std::thread::scope(|scope| {
                for t in 0..threads {
                    let sharded = &sharded;
                    scope.spawn(move || {
                        for i in 0..per_thread {
                            let (topk, santos, metadata, latency) = stats_at(t, i);
                            sharded.record(|w| {
                                w.record_topk(&topk, latency);
                                w.record_santos(&santos, latency);
                                w.record_metadata(&metadata, latency);
                            });
                        }
                    });
                }
            });

            prop_assert_eq!(sharded.snapshot(), expected);

            // Reset zeroes every shard, whichever threads recorded into them.
            sharded.reset();
            prop_assert_eq!(sharded.snapshot(), DiscoveryTelemetry::default());
        }
    }
}
