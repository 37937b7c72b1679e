//! What the four workloads share: run arguments, the outcome of a run,
//! and the metric arithmetic over latency samples and telemetry windows.

use std::collections::BTreeMap;
use std::time::Instant;

use dialite_discovery::DiscoveryTelemetry;

use crate::inputs::peak_rss_mb;
use crate::metrics::Metrics;
use crate::stats::{median, quantile_sorted, ratio, sorted};
use crate::trace::Tracer;

/// Arguments of one run (one workload, one process).
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// ~1/50 of the full size, every check on.
    pub smoke: bool,
}

impl RunArgs {
    /// `full` at full size, about a fiftieth (at least `floor`) in smoke.
    pub fn scaled(&self, full: usize, floor: usize) -> usize {
        if self.smoke {
            (full / 50).max(floor)
        } else {
            full
        }
    }

    /// Times a set-up is repeated: `full` in an untraced run (the reported
    /// `setup_s` is the median), once in traced and smoke runs.
    pub fn setups(&self, full: usize) -> usize {
        if self.trace || self.smoke {
            1
        } else {
            full
        }
    }
}

/// What one run produced.
pub struct Outcome {
    pub tally: Tally,
    pub metrics: Metrics,
    pub fingerprint: u64,
    /// Spans of the traced window (`--trace 1` only).
    pub trace: Option<Tracer>,
}

/// Attempted and failed operations (checks included).
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Failures by the name of the op or check that failed.
    pub failures: BTreeMap<&'static str, u64>,
}

impl Tally {
    /// Count one attempted operation or check named `what`; `ok == false`
    /// fails it.
    pub fn record(&mut self, what: &'static str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            *self.failures.entry(what).or_default() += 1;
        }
    }

    pub fn add(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for (what, n) in &other.failures {
            *self.failures.entry(what).or_default() += n;
        }
    }
}

/// Set-ups per untraced run unless a workload says otherwise.
pub const SETUPS: usize = 3;

/// Set a workload up `times` times (see [`RunArgs::setups`]), keeping the
/// last fixture; returns it with the seconds each set-up took.
pub fn set_up_repeatedly<F>(
    args: &RunArgs,
    times: usize,
    set_up: impl Fn() -> Result<F, String>,
) -> Result<(F, Vec<f64>), String> {
    let mut setups_s = Vec::new();
    let mut fixture: Option<F> = None;
    for _ in 0..args.setups(times) {
        drop(fixture.take());
        let (fx, s) = timed(&set_up);
        setups_s.push(s);
        fixture = Some(fx?);
    }
    Ok((fixture.expect("at least one set-up"), setups_s))
}

/// Client threads any workload may run at once (`nproc` of the host the
/// sizes were scoped on); only `serve-churn` uses more than one.
pub const MAX_THREADS: usize = 2;

/// `map_err` adapter naming the step an I/O error came from.
pub fn io_err(what: &str) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// Run `f`, returning its result and the seconds it took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Slices a timed window is cut into. Rates and p99s are the median of
/// per-slice values (per pass or per cycle where a workload has those),
/// which a transient stall of the host cannot move.
pub const SLICES: usize = 10;

/// Latency samples of one timed window with the time each op ended.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    /// Seconds since the window opened at which the op completed.
    at_s: Vec<f64>,
    ms: Vec<f64>,
}

impl Samples {
    pub fn push(&mut self, at_s: f64, ms: f64) {
        self.at_s.push(at_s);
        self.ms.push(ms);
    }

    pub fn len(&self) -> usize {
        self.ms.len()
    }

    pub fn ms(&self) -> &[f64] {
        &self.ms
    }

    pub fn extend(&mut self, other: Samples) {
        self.at_s.extend(other.at_s);
        self.ms.extend(other.ms);
    }

    /// Latencies grouped into `SLICES` equal spans of `wall_s`.
    pub fn slices(&self, wall_s: f64) -> Vec<Vec<f64>> {
        let mut out = vec![Vec::new(); SLICES];
        for (at, ms) in self.at_s.iter().zip(&self.ms) {
            let slot = ((at / wall_s) * SLICES as f64) as usize;
            out[slot.min(SLICES - 1)].push(*ms);
        }
        out
    }
}

/// Median over groups (slices, passes, cycles) of a per-group statistic;
/// empty groups are skipped.
pub fn median_of(groups: &[Vec<f64>], stat: impl Fn(&[f64]) -> f64) -> f64 {
    let per_group: Vec<f64> = groups
        .iter()
        .filter(|g| !g.is_empty())
        .map(|g| stat(g))
        .collect();
    median(&per_group)
}

/// p99 of latency samples in ms (`0.0` when empty).
pub fn p99(samples: &[f64]) -> f64 {
    quantile_sorted(&sorted(samples.to_vec()), 0.99).unwrap_or(0.0)
}

/// Fill in the end-to-end metrics every workload reports.
pub fn end_to_end(
    m: &mut Metrics,
    setups_s: &[f64],
    ops_per_s: f64,
    query_groups: &[Vec<f64>],
    recall_at_k: f64,
) {
    m.set("setup_s", median(setups_s));
    m.set("ops_per_s", ops_per_s);
    // A stall moves few samples and so not the median: the p50 is taken
    // over the whole window, which a tenth of the samples could not give
    // as steadily (the latency CDF is steep around it).
    m.set("query_p50_ms", median(&query_groups.concat()));
    m.set("query_p99_ms", median_of(query_groups, p99));
    m.set("recall_at_k", recall_at_k);
    m.set("peak_rss_mb", peak_rss_mb());
}

/// Per-leg work and time of one window, from the difference of two
/// snapshots of the index's own rolling telemetry.
pub fn leg_metrics(m: &mut Metrics, before: &DiscoveryTelemetry, after: &DiscoveryTelemetry) {
    leg_times(m, before, after);
    leg_counts(m, before, after);
}

/// The timing half of [`leg_metrics`]: mean time per query of each leg.
pub fn leg_times(m: &mut Metrics, before: &DiscoveryTelemetry, after: &DiscoveryTelemetry) {
    let d = |a: u64, b: u64| a.saturating_sub(b) as f64;
    for (name, a, b) in [
        (
            "topk.query_us",
            &after.joinable_latency,
            &before.joinable_latency,
        ),
        (
            "santos.query_us",
            &after.santos_latency,
            &before.santos_latency,
        ),
        (
            "metadata.query_us",
            &after.metadata_latency,
            &before.metadata_latency,
        ),
    ] {
        m.set(
            name,
            ratio(d(a.total_micros, b.total_micros), d(a.samples, b.samples)),
        );
    }
}

/// The counting half of [`leg_metrics`]: work per query of each leg. Over
/// a fixed sequence of ops these repeat exactly from run to run.
pub fn leg_counts(m: &mut Metrics, before: &DiscoveryTelemetry, after: &DiscoveryTelemetry) {
    let d = |a: u64, b: u64| a.saturating_sub(b) as f64;

    let (a, b) = (&after.topk, &before.topk);
    let queries = d(a.queries, b.queries);
    let probed = d(a.partitions_probed, b.partitions_probed);
    let pruned = d(a.partitions_pruned, b.partitions_pruned);
    let hits = d(a.cache_hits, b.cache_hits);
    let misses = d(a.cache_misses, b.cache_misses);
    m.set(
        "topk.verified_per_query",
        ratio(d(a.candidates_verified, b.candidates_verified), queries),
    );
    m.set("topk.partitions_probed_per_query", ratio(probed, queries));
    m.set(
        "topk.partitions_pruned_ratio",
        ratio(pruned, probed + pruned),
    );
    m.set(
        "topk.postings_skipped_per_query",
        ratio(d(a.postings_skipped, b.postings_skipped), queries),
    );
    m.set("topk.cache_hit_ratio", ratio(hits, hits + misses));
    m.set(
        "topk.exact_path_ratio",
        ratio(d(a.exact_path, b.exact_path), queries),
    );
    m.set(
        "topk.budget_exhausted_ratio",
        ratio(d(a.budget_exhausted, b.budget_exhausted), queries),
    );

    let (a, b) = (&after.santos, &before.santos);
    let queries = d(a.queries, b.queries);
    let scored = d(a.candidates_scored, b.candidates_scored);
    let pruned = d(a.bound_pruned, b.bound_pruned);
    m.set(
        "santos.retrieved_per_query",
        ratio(d(a.candidates_retrieved, b.candidates_retrieved), queries),
    );
    m.set("santos.scored_per_query", ratio(scored, queries));
    m.set("santos.bound_pruned_ratio", ratio(pruned, scored + pruned));
    m.set(
        "santos.cap_hit_ratio",
        ratio(d(a.cap_hits, b.cap_hits), queries),
    );

    let (a, b) = (&after.metadata, &before.metadata);
    let queries = d(a.queries, b.queries);
    let scored = d(a.candidates_scored, b.candidates_scored);
    let pruned = d(a.bound_pruned, b.bound_pruned);
    m.set("metadata.scored_per_query", ratio(scored, queries));
    m.set(
        "metadata.bound_pruned_ratio",
        ratio(pruned, scored + pruned),
    );
    m.set(
        "metadata.cap_hit_ratio",
        ratio(d(a.cap_hits, b.cap_hits), queries),
    );
}
