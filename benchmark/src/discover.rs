//! `discover-hetero`: the largest lake, `Pipeline::discover_stage` only —
//! value-mode and header-mode queries drawn zipf(1.1) 80:20 from a pool
//! whose popularity ranking drifts (`inputs::drifting`),
//! one caller, closed loop. Discovery does all the work; alignment and
//! integration never run, so a change to them must leave every number of
//! this workload where it was. Zipf reuse lets the 64-entry signature LRU
//! hit; the lake and its postings are far larger than the CPU caches.

use std::sync::Arc;
use std::time::{Duration, Instant};

use dialite_core::Pipeline;
use dialite_discovery::{
    Discovery, DiscoveryBudget, DiscoveryTelemetry, LakeIndex, MetadataConfig, MetadataDiscovery,
    SantosConfig, SantosDiscovery, TableQuery,
};
use dialite_kb::curated::covid_kb;
use dialite_table::DataLake;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::checks::{hash_legs, leg_contains, pipeline_budget_checks, Legs, JOINABLE};
use crate::common::{
    end_to_end, leg_counts, leg_times, median_of, set_up_repeatedly, timed, Outcome, RunArgs,
    Samples, Tally, SETUPS, SLICES,
};
use crate::inputs::{
    check_pin, corpus, drifting, mix, three_leg_config, value_pool, zipf_draws, Fingerprint,
    PoolQuery, Scratch,
};
use crate::metrics::Metrics;
use crate::stats::ratio;
use crate::trace::Tracer;

pub const NAME: &str = "discover-hetero";

const TABLES: usize = 6000;
/// The generator's default row cap: discovery is not sensitive to the
/// integration blow-ups that force `pipeline-hetero` to cap rows.
const MAX_ROWS: usize = 256;
const VALUE_POOL: usize = 256;
const HEADER_POOL: usize = 64;
const HEADER_SHARE: f64 = 0.2;
const ZIPF_S: f64 = 1.1;
const TOP_K: usize = 10;
/// Length of the pre-drawn op sequence (cycled if a window outlasts it).
const DRAWS: usize = 1 << 16;
/// Ops of the traced window the per-leg *counts* are taken over: a fixed
/// prefix of a fixed sequence, so they repeat exactly for a seed however
/// many ops the window's seconds allow.
const COUNTED_OPS: u64 = 4096;

struct Fixture {
    lake: DataLake,
    pipeline: Pipeline,
    /// Value-mode queries first, then header-mode ones.
    pool: Vec<PoolQuery>,
    /// Pool indices in the order the client asks them.
    draws: Vec<usize>,
    reference: Vec<u64>,
    fingerprint: u64,
}

fn set_up(args: &RunArgs) -> Result<Fixture, String> {
    let mut spec = corpus(args.scaled(TABLES, 80), MAX_ROWS);
    spec.queries = args.scaled(HEADER_POOL, 8);
    let lake = spec.lake();
    let mut pool = value_pool(&spec, args.seed, args.scaled(VALUE_POOL, 16));
    let values = pool.len();
    pool.extend(spec.header_queries().into_iter().map(|t| PoolQuery {
        query: TableQuery::new(t),
        source: None,
    }));

    let mut rng = StdRng::seed_from_u64(mix(args.seed, 2));
    let value_ranks = zipf_draws(values, ZIPF_S, DRAWS, &mut rng);
    let headers = pool.len() - values;
    let header_ranks = zipf_draws(headers, ZIPF_S, DRAWS, &mut rng);
    let draws: Vec<usize> = (0..DRAWS)
        .map(|i| {
            if rng.gen_bool(HEADER_SHARE) {
                values + drifting(header_ranks[i], i, headers)
            } else {
                drifting(value_ranks[i], i, values)
            }
        })
        .collect();

    let mut fp = Fingerprint::default();
    lake.tables().for_each(|t| fp.table(t));
    pool.iter().for_each(|p| fp.query(&p.query));
    draws.iter().for_each(|&d| fp.number(d as u64));
    fp.number(TOP_K as u64);
    let fingerprint = fp.finish();
    check_pin(&args.workload, args.seed, args.smoke, fingerprint)?;

    let mut pipeline = Pipeline::demo_configured(&lake, 1, three_leg_config());
    pipeline.set_top_k(TOP_K);
    let reference = pool
        .iter()
        .map(|p| hash_legs(&pipeline.discover_stage(&lake, &p.query)))
        .collect();
    Ok(Fixture {
        lake,
        pipeline,
        pool,
        draws,
        reference,
        fingerprint,
    })
}

#[derive(Default)]
struct Window {
    samples: Samples,
    tally: Tally,
    wall_s: f64,
}

fn untraced_window(fx: &Fixture, seconds: f64) -> Window {
    let mut w = Window::default();
    let t0 = Instant::now();
    for &i in fx.draws.iter().cycle() {
        if t0.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let (legs, s) = timed(|| fx.pipeline.discover_stage(&fx.lake, &fx.pool[i].query));
        w.samples.push(t0.elapsed().as_secs_f64(), s * 1e3);
        w.tally
            .record("discover", hash_legs(&legs) == fx.reference[i]);
    }
    w.wall_s = t0.elapsed().as_secs_f64();
    w
}

/// `discover_stage` recomposed from the three legs of a harness-owned
/// `LakeIndex`, each under its own span, its stats folded into `window`.
fn traced_op(
    index: &LakeIndex,
    query: &TableQuery,
    op: u64,
    t: &mut Tracer,
    window: &mut DiscoveryTelemetry,
) -> Legs {
    let budget = DiscoveryBudget::default();
    t.span(op, "discover", |t| {
        let ((santos, stats), s) = timed(|| {
            t.span(op, "santos", |_| {
                index
                    .santos()
                    .discover_capped(query, TOP_K, budget.santos_candidates)
            })
        });
        window.record_santos(&stats, Duration::from_secs_f64(s));
        let ((joinable, stats), s) = timed(|| {
            t.span(op, "topk", |_| {
                index.discover_top_k_with_stats(query, TOP_K, &budget.joinable)
            })
        });
        window.record_topk(&stats, Duration::from_secs_f64(s));
        t.count(op, "topk.verified", stats.candidates_verified as f64);
        let metadata = index.metadata().expect("three-leg index");
        let ((headers, stats), s) = timed(|| {
            t.span(op, "metadata", |_| {
                metadata.discover_capped(query, TOP_K, budget.metadata_candidates)
            })
        });
        window.record_metadata(&stats, Duration::from_secs_f64(s));
        vec![
            (index.santos().name().to_string(), santos),
            (index.lshe().name().to_string(), joinable),
            (metadata.name().to_string(), headers),
        ]
    })
}

pub fn run(args: &RunArgs, _scratch: &Scratch) -> Result<Outcome, String> {
    let (mut fx, setups_s) = set_up_repeatedly(args, SETUPS, || set_up(args))?;

    let mut m = Metrics::default();
    let mut tally = Tally::default();
    let mut trace = None;
    if args.trace {
        let plain = untraced_window(&fx, args.seconds * 0.3);
        tally.add(&plain.tally);

        let kb = Arc::new(covid_kb());
        let (index, build_s) = timed(|| LakeIndex::build(&fx.lake, kb.clone(), three_leg_config()));
        m.set("index.build_s", build_s);
        m.set(
            "santos.build_s",
            timed(|| SantosDiscovery::build(&fx.lake, kb, SantosConfig::default())).1,
        );
        m.set(
            "metadata.build_s",
            timed(|| MetadataDiscovery::build(&fx.lake, MetadataConfig::default())).1,
        );
        m.set(
            "minhash.signatures_per_table",
            ratio(index.sketch_work() as f64, fx.lake.len() as f64),
        );
        // The harness-owned index starts with a cold signature cache.
        for p in &fx.pool {
            index.discover_top_k(&p.query, TOP_K, &DiscoveryBudget::default().joinable);
        }

        let mut window = DiscoveryTelemetry::default();
        let mut counted = None;
        let mut tracer = Tracer::new(Instant::now());
        let t0 = Instant::now();
        let (mut ops, mut value_ops, mut source_hits) = (0u64, 0u64, 0u64);
        for &i in fx.draws.iter().cycle() {
            if t0.elapsed().as_secs_f64() >= args.seconds * 0.5 {
                break;
            }
            if ops == COUNTED_OPS {
                counted = Some(window.clone());
            }
            let legs = traced_op(&index, &fx.pool[i].query, ops, &mut tracer, &mut window);
            tally.record("discover recomposed", hash_legs(&legs) == fx.reference[i]);
            if let (Some(source), true) = (&fx.pool[i].source, ops < COUNTED_OPS) {
                value_ops += 1;
                source_hits += u64::from(leg_contains(&legs, JOINABLE, source));
            }
            ops += 1;
        }
        m.set(
            "discovery.source_hit_ratio",
            ratio(source_hits as f64, value_ops as f64),
        );
        let traced_ops_per_s = ops as f64 / t0.elapsed().as_secs_f64();
        let none = DiscoveryTelemetry::default();
        leg_times(&mut m, &none, &window);
        leg_counts(&mut m, &none, counted.as_ref().unwrap_or(&window));
        m.set(
            "bench.trace_overhead_ratio",
            ratio(traced_ops_per_s, plain.samples.len() as f64 / plain.wall_s),
        );
        trace = Some(tracer);
    } else {
        let w = untraced_window(&fx, args.seconds);
        tally.add(&w.tally);
        let recall_at_k = pipeline_budget_checks(&mut fx.pipeline, &fx.lake, &fx.pool, &mut tally);
        let slices = w.samples.slices(w.wall_s);
        let slice_s = w.wall_s / SLICES as f64;
        end_to_end(
            &mut m,
            &setups_s,
            median_of(&slices, |s| s.len() as f64 / slice_s),
            &slices,
            recall_at_k,
        );
    }
    Ok(Outcome {
        tally,
        metrics: m,
        fingerprint: fx.fingerprint,
        trace,
    })
}
