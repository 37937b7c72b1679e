//! `pipeline-hetero`: CSV directory → `DataLake::load_dir` → three-leg
//! index → `Pipeline::run` per query (discover → align → FD integrate +
//! outer-join alternative), one caller, closed loop.
//!
//! Sizes: `top_k = 2` and a 32-row cap keep the outer-join alternative —
//! a cross product of every discovered table that shares no aligned
//! column — from becoming the whole metric: at the CLI default `top_k = 3`
//! one query in a thousand takes seconds and a run's mean is whatever
//! those few cost.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use dialite_align::{HolisticMatcher, KbAnnotator};
use dialite_analyze::EntityResolver;
use dialite_core::{Pipeline, PipelineError, PipelineRun};
use dialite_discovery::{union_integration_set, Discovered};
use dialite_integrate::{AliteFd, Integrator, OuterJoinIntegrator};
use dialite_kb::curated::covid_kb;
use dialite_table::{DataLake, Table};

use crate::checks::{hash_parts, hash_run, pipeline_budget_checks};
use crate::common::{
    end_to_end, io_err, leg_metrics, p99, set_up_repeatedly, timed, Outcome, RunArgs, Tally, SETUPS,
};
use crate::inputs::{
    check_pin, corpus, three_leg_config, value_pool, write_csv_dir, Fingerprint, PoolQuery, Scratch,
};
use crate::metrics::Metrics;
use crate::stats::{median, ratio};
use crate::trace::{durations_ms, summarize, Tracer};

pub const NAME: &str = "pipeline-hetero";

const TABLES: usize = 4000;
const MAX_ROWS: usize = 32;
const POOL: usize = 1024;
const TOP_K: usize = 2;

/// The workload's inputs on disk and in memory, made once per process and
/// outside `setup_s`: generating tables and creating 4 000 files is the
/// harness's work, not the program's, and file creation alone takes 0.1 s
/// or 1.6 s depending on how many deletes the host's file system (ext4,
/// mounted `discard`) has yet to digest.
struct Inputs {
    csv_dir: PathBuf,
    tables: usize,
    csv_bytes: u64,
    pool: Vec<PoolQuery>,
    fingerprint: u64,
}

fn materialise(args: &RunArgs, scratch: &Scratch) -> Result<Inputs, String> {
    let spec = corpus(args.scaled(TABLES, 60), MAX_ROWS);
    let tables: Vec<Table> = spec.stream().collect();
    let pool = value_pool(&spec, args.seed, args.scaled(POOL, 24));

    let mut fp = Fingerprint::default();
    tables.iter().for_each(|t| fp.table(t));
    pool.iter().for_each(|p| fp.query(&p.query));
    fp.number(TOP_K as u64);
    let fingerprint = fp.finish();
    check_pin(&args.workload, args.seed, args.smoke, fingerprint)?;

    let csv_dir = scratch.clean_dir("csv").map_err(io_err("scratch dir"))?;
    let csv_bytes = write_csv_dir(&tables, &csv_dir).map_err(io_err("write csv"))?;
    Ok(Inputs {
        csv_dir,
        tables: tables.len(),
        csv_bytes,
        pool,
        fingerprint,
    })
}

struct Fixture<'a> {
    inputs: &'a Inputs,
    lake: DataLake,
    pipeline: Pipeline,
    /// `hash_run` of each pool query's warm-pass answer (`None`: it failed).
    reference: Vec<Option<u64>>,
    parse_s: f64,
    build_s: f64,
    load_failed: usize,
}

/// What the program does before the first timed op: parse the CSV
/// directory, build the index, answer every pool query once.
fn set_up(inputs: &Inputs) -> Result<Fixture<'_>, String> {
    let mut lake = DataLake::new();
    let (loaded, parse_s) = timed(|| lake.load_dir(&inputs.csv_dir));
    let loaded = loaded.map_err(|e| format!("load_dir: {e}"))?;

    let (mut pipeline, build_s) = timed(|| Pipeline::demo_configured(&lake, 1, three_leg_config()));
    pipeline.set_top_k(TOP_K);
    let reference = inputs
        .pool
        .iter()
        .map(|p| pipeline.run(&lake, &p.query).ok().map(|r| hash_run(&r)))
        .collect();
    Ok(Fixture {
        inputs,
        lake,
        pipeline,
        reference,
        parse_s,
        build_s,
        load_failed: inputs.tables - loaded,
    })
}

/// A run is correct when it succeeded and hashes like the warm pass
/// answered the same query. (Whether it integrates the table the query
/// was cut from is a quality the approximate legs do not promise; the
/// traced run reports it as `discovery.source_hit_ratio`.)
fn run_is_correct(fx: &Fixture, i: usize, result: &Result<PipelineRun, PipelineError>) -> bool {
    result
        .as_ref()
        .is_ok_and(|run| fx.reference[i] == Some(hash_run(run)))
}

#[derive(Default)]
struct Window {
    /// Latencies of each whole pass over the pool.
    passes_ms: Vec<Vec<f64>>,
    /// Seconds each pass took, checks included.
    passes_s: Vec<f64>,
    tally: Tally,
}

impl Window {
    /// Median over passes of runs completed per second.
    fn ops_per_s(&self) -> f64 {
        let rates: Vec<f64> = self
            .passes_ms
            .iter()
            .zip(&self.passes_s)
            .map(|(pass, s)| pass.len() as f64 / s)
            .collect();
        median(&rates)
    }
}

/// Whole passes over the pool, in pool order, until `seconds` have gone
/// by — so every pass times the same mix of cheap and costly queries and
/// the pass is the natural slice to take medians over.
fn untraced_window(fx: &Fixture, seconds: f64) -> Window {
    let mut w = Window::default();
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < seconds {
        let mut pass_ms = Vec::with_capacity(fx.inputs.pool.len());
        let pass_t0 = Instant::now();
        for (i, p) in fx.inputs.pool.iter().enumerate() {
            let (result, s) = timed(|| fx.pipeline.run(&fx.lake, &p.query));
            pass_ms.push(s * 1e3);
            w.tally.record("run", run_is_correct(fx, i, &result));
        }
        w.passes_s.push(pass_t0.elapsed().as_secs_f64());
        w.passes_ms.push(pass_ms);
    }
    w
}

/// The stages `Pipeline::demo_configured` wires up, rebuilt here so the
/// traced window can call them one by one.
struct Stages {
    matcher: HolisticMatcher,
    fd: AliteFd,
    alternative: OuterJoinIntegrator,
    resolver: EntityResolver,
}

impl Stages {
    fn new() -> Stages {
        let kb = Arc::new(covid_kb());
        Stages {
            matcher: HolisticMatcher::default().with_annotator(Arc::new(KbAnnotator::new(kb))),
            fd: AliteFd::default(),
            alternative: OuterJoinIntegrator,
            resolver: EntityResolver::demo_default(),
        }
    }
}

/// One traced op: `Pipeline::run` as a whole, then the same run recomposed
/// from its public parts (which must give the same answer), then entity
/// resolution over the integrated table (not part of `run`).
fn traced_op(fx: &Fixture, stages: &Stages, i: usize, op: u64, t: &mut Tracer) -> bool {
    let query = &fx.inputs.pool[i].query;
    let whole = t.span(op, "run", |_| fx.pipeline.run(&fx.lake, query));
    let mut ok = run_is_correct(fx, i, &whole);
    if let (Ok(run), Some(source)) = (&whole, &fx.inputs.pool[i].source) {
        let hit = run.integration_set.iter().any(|t| t.name() == source);
        t.count(op, "discovery.source_hit", f64::from(u8::from(hit)));
    }

    let parts = t.span(op, "run.parts", |t| -> Result<_, PipelineError> {
        let discovered = t.span(op, "discover", |_| {
            fx.pipeline.discover_stage(&fx.lake, query)
        });
        let set = t.span(op, "set", |_| -> Result<Vec<Arc<Table>>, PipelineError> {
            let hits: Vec<Vec<Discovered>> = discovered.iter().map(|(_, h)| h.clone()).collect();
            let mut set = vec![query.table.clone()];
            for name in union_integration_set(&hits) {
                set.push(fx.lake.require(&name)?);
            }
            Ok(set)
        })?;
        let refs: Vec<&Table> = set.iter().map(|t| t.as_ref()).collect();
        let alignment = t.span(op, "align", |_| stages.matcher.align(&refs));
        let fd = t.span(op, "integrate.fd", |_| {
            stages.fd.integrate(&refs, &alignment)
        })?;
        let alt = t.span(op, "integrate.alt", |_| {
            stages.alternative.integrate(&refs, &alignment)
        })?;
        t.count(
            op,
            "align.columns",
            refs.iter().map(|t| t.column_count()).sum::<usize>() as f64,
        );
        t.count(
            op,
            "integrate.input_rows",
            refs.iter().map(|t| t.row_count()).sum::<usize>() as f64,
        );
        t.count(op, "integrate.output_rows", fd.row_count() as f64);
        let hash = hash_parts(
            &discovered,
            &set,
            fd.table(),
            &[(stages.alternative.name(), alt.table())],
        );
        Ok((hash, fd))
    });
    match parts {
        Ok((hash, fd)) => {
            ok &= Some(hash) == fx.reference[i];
            t.span(op, "analyze.er", |_| stages.resolver.resolve(fd.table()));
        }
        Err(_) => ok = false,
    }
    ok
}

pub fn run(args: &RunArgs, scratch: &Scratch) -> Result<Outcome, String> {
    let inputs = materialise(args, scratch)?;
    let (mut fx, setups_s) = set_up_repeatedly(args, SETUPS, || set_up(&inputs))?;

    let mut m = Metrics::default();
    let mut tally = Tally::default();
    let mut trace = None;
    if args.trace {
        // A short untraced window first, so the cost of decomposing every
        // run is reported against the same process's plain speed.
        let plain = untraced_window(&fx, args.seconds * 0.3);
        tally.add(&plain.tally);
        let stages = Stages::new();
        let before = fx.pipeline.telemetry().expect("indexed pipeline");
        let mut tracer = Tracer::new(Instant::now());
        let t0 = Instant::now();
        let mut ops = 0u64;
        while t0.elapsed().as_secs_f64() < args.seconds * 0.5 {
            for i in 0..fx.inputs.pool.len() {
                tally.record(
                    "run recomposed",
                    traced_op(&fx, &stages, i, ops, &mut tracer),
                );
                ops += 1;
            }
        }
        let traced_ops_per_s = ops as f64 / t0.elapsed().as_secs_f64();
        let after = fx.pipeline.telemetry().expect("indexed pipeline");
        leg_metrics(&mut m, &before, &after);

        let by_name = summarize(tracer.spans());
        let mean_ms = |name: &str| by_name.get(name).map_or(0.0, |s| s.mean_ms());
        let total_ns = |name: &str| by_name.get(name).map_or(0.0, |s| s.total_ns as f64);
        let run_ms = mean_ms("run");
        let stage_ms = mean_ms("discover")
            + mean_ms("align")
            + mean_ms("integrate.fd")
            + mean_ms("integrate.alt");
        m.set("align.ms_per_run", mean_ms("align"));
        m.set("integrate.fd_ms_per_run", mean_ms("integrate.fd"));
        m.set(
            "integrate.fd_p99_ms",
            p99(&durations_ms(tracer.spans(), "integrate.fd")),
        );
        m.set("integrate.alt_ms_per_run", mean_ms("integrate.alt"));
        m.set(
            "core.discover_share",
            ratio(total_ns("discover"), total_ns("run")),
        );
        m.set("core.glue_ms_per_run", run_ms - stage_ms);
        m.set("analyze.er_ms_per_run", mean_ms("analyze.er"));
        for (metric, counter) in [
            ("discovery.source_hit_ratio", "discovery.source_hit"),
            ("align.columns_per_run", "align.columns"),
            ("integrate.input_rows_per_run", "integrate.input_rows"),
            ("integrate.output_rows_per_run", "integrate.output_rows"),
        ] {
            m.set(metric, ratio(tracer.counter_total(counter), ops as f64));
        }
        m.set(
            "bench.trace_overhead_ratio",
            ratio(traced_ops_per_s, plain.ops_per_s()),
        );
        m.set(
            "table.csv_parse_mb_per_s",
            ratio(fx.inputs.csv_bytes as f64 / 1e6, fx.parse_s),
        );
        m.set("table.load_failed", fx.load_failed as f64);
        m.set("index.build_s", fx.build_s);
        m.set(
            "minhash.signatures_per_table",
            ratio(
                fx.pipeline.sketch_work().unwrap_or(0) as f64,
                fx.lake.len() as f64,
            ),
        );
        trace = Some(tracer);
    } else {
        let w = untraced_window(&fx, args.seconds);
        tally.add(&w.tally);
        let recall_at_k =
            pipeline_budget_checks(&mut fx.pipeline, &fx.lake, &inputs.pool, &mut tally);
        end_to_end(&mut m, &setups_s, w.ops_per_s(), &w.passes_ms, recall_at_k);
    }
    tally.record("load_dir", fx.load_failed == 0);
    Ok(Outcome {
        tally,
        metrics: m,
        fingerprint: inputs.fingerprint,
        trace,
    })
}
