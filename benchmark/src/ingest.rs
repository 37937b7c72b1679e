//! `ingest-restart`: CSV files ingested into an empty durable lake —
//! per table `load_dir` parse, `upsert`, `append_since` (fsync); per batch
//! an index catch-up — then `Pipeline::snapshot`, one more batch left in
//! the commitlog, shutdown, `open_durable_configured` and the query pool
//! answered by the recovered pipeline: once to verify it (the end of
//! recovery), then `WARM_PASSES` times for its latency. One cycle is one
//! such life; a run repeats cycles on fresh directories. Write-, build-
//! and recovery-dominated: queries do almost nothing.

use std::path::{Path, PathBuf};
use std::time::Instant;

use dialite_core::{DurableConfig, Pipeline};
use dialite_discovery::DiscoveryTelemetry;
use dialite_durable::DurableLake;
use dialite_table::{DataLake, Table};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::checks::{pipeline_budget_checks, same_answer, Legs};
use crate::common::{
    end_to_end, io_err, leg_metrics, set_up_repeatedly, timed, Outcome, RunArgs, Tally, SETUPS,
};
use crate::inputs::{
    check_pin, corpus, dir_bytes, file_bytes, mix, three_leg_config, value_pool, write_csv_dir,
    Fingerprint, PoolQuery, Scratch,
};
use crate::metrics::Metrics;
use crate::stats::{median, ratio};
use crate::trace::{durations_ms, summarize, Tracer};

pub const NAME: &str = "ingest-restart";

const TABLES: usize = 1000;
const MAX_ROWS: usize = 256;
const BATCH: usize = 250;
const POOL: usize = 256;
const TOP_K: usize = 5;
/// Timed passes over the pool after the recovered pipeline has answered
/// it once (that first, cold pass is part of `recover_s`).
const WARM_PASSES: usize = 4;

/// The workload's inputs, made once per process and outside `setup_s`:
/// creating 1 000 small files is the harness's work, not the program's,
/// and takes 0.03 s or 0.4 s depending on how many deletes the host's file
/// system (ext4, mounted `discard`) has yet to digest.
struct Inputs {
    /// One directory of CSV files per ingest batch, in ingest order.
    batches: Vec<PathBuf>,
    tables: usize,
    csv_bytes: u64,
    pool: Vec<PoolQuery>,
    fingerprint: u64,
}

/// Generate the corpus and write it out as batch directories in the order
/// `--seed` shuffles it into; draw the pool.
fn materialise(args: &RunArgs, scratch: &Scratch) -> Result<Inputs, String> {
    let spec = corpus(args.scaled(TABLES, 60), MAX_ROWS);
    // Which batch a table arrives in is the workload's; `--seed` decides
    // the order inside a batch. Shuffled across batches, ten seeds fell
    // into two modes 12 % apart in tables per second (and 6 % in peak
    // memory) by what the snapshot and the replayed tail happened to hold.
    let batch = args.scaled(BATCH, 20);
    let mut tables: Vec<Table> = spec.stream().collect();
    let mut rng = StdRng::seed_from_u64(mix(args.seed, 4));
    tables.chunks_mut(batch).for_each(|b| b.shuffle(&mut rng));
    let pool = value_pool(&spec, args.seed, args.scaled(POOL, 16));

    let mut fp = Fingerprint::default();
    tables.iter().for_each(|t| fp.table(t));
    pool.iter().for_each(|p| fp.query(&p.query));
    let fingerprint = fp.finish();
    check_pin(&args.workload, args.seed, args.smoke, fingerprint)?;

    let root = scratch.clean_dir("csv").map_err(io_err("scratch dir"))?;
    let mut batches = Vec::new();
    let mut csv_bytes = 0u64;
    for (b, chunk) in tables.chunks(batch).enumerate() {
        let dir = root.join(format!("batch-{b:03}"));
        std::fs::create_dir_all(&dir).map_err(io_err("batch dir"))?;
        csv_bytes += write_csv_dir(chunk, &dir).map_err(io_err("write csv"))?;
        batches.push(dir);
    }
    Ok(Inputs {
        batches,
        tables: tables.len(),
        csv_bytes,
        pool,
        fingerprint,
    })
}

fn open(dir: &Path) -> Result<(Pipeline, DataLake, DurableLake), String> {
    let (mut pipeline, lake, durable) =
        Pipeline::open_durable_configured(dir, 1, DurableConfig::default(), three_leg_config())
            .map_err(io_err("open_durable"))?;
    pipeline.set_top_k(TOP_K);
    Ok((pipeline, lake, durable))
}

/// What one cycle measured.
#[derive(Default)]
struct Cycle {
    /// Open → last batch caught up, snapshot included.
    ingest_s: f64,
    batch_ms: Vec<f64>,
    /// `open_durable_configured` → pool answered and verified.
    recover_s: f64,
    /// Pool latencies on the recovered pipeline, `WARM_PASSES` passes.
    query_ms: Vec<f64>,
    snapshot_s: f64,
    snapshot_bytes: u64,
    stored_bytes: u64,
    open_s: f64,
    replayed: usize,
    signatures: u64,
    recover_signatures: u64,
    load_failed: usize,
    recall: f64,
    /// The recovered index's telemetry after answering the pool.
    telemetry: DiscoveryTelemetry,
    tally: Tally,
}

impl Cycle {
    fn tables_per_s(&self, tables: usize) -> f64 {
        ratio(tables as f64, self.ingest_s + self.recover_s)
    }
}

/// One life of a durable lake; spans go to `t`.
fn cycle(fx: &Inputs, scratch: &Scratch, op: u64, t: &mut Tracer) -> Result<Cycle, String> {
    let dir = scratch.clean_dir("lake").map_err(io_err("scratch dir"))?;
    let mut c = Cycle::default();
    let probe = &fx.pool[0].query;

    let t0 = Instant::now();
    let (pipeline, mut lake, mut durable) = t.span(op, "open", |_| open(&dir))?;
    let snapshot_before = fx.batches.len().saturating_sub(1);
    for (b, batch_dir) in fx.batches.iter().enumerate() {
        if b == snapshot_before && b > 0 {
            // Everything but the last batch is snapshotted; the last one
            // stays in the commitlog so recovery replays a tail.
            let (snap, s) =
                timed(|| t.span(op, "snapshot", |_| pipeline.snapshot(&lake, &mut durable)));
            snap.map_err(io_err("snapshot"))?;
            c.snapshot_s = s;
            c.snapshot_bytes = file_bytes(&dir.join("snapshot.bin"));
        }
        let (done, s) = timed(|| {
            t.span(op, "batch", |t| -> Result<usize, String> {
                let mut staged = DataLake::new();
                let loaded = t
                    .span(op, "parse", |_| staged.load_dir(batch_dir))
                    .map_err(|e| format!("load_dir: {e}"))?;
                for table in staged.tables() {
                    let since = lake.version();
                    t.span(op, "upsert", |_| lake.upsert(table.as_ref().clone()));
                    t.span(op, "append", |_| durable.append_since(&lake, since))
                        .map_err(io_err("append_since"))?;
                }
                t.span(op, "catchup", |_| pipeline.discover_stage(&lake, probe));
                Ok(loaded)
            })
        });
        let loaded = done?;
        c.load_failed += std::fs::read_dir(batch_dir).map_or(0, |d| d.count()) - loaded;
        c.batch_ms.push(s * 1e3);
    }
    c.ingest_s = t0.elapsed().as_secs_f64();
    c.signatures = pipeline.sketch_work().unwrap_or(0);
    c.stored_bytes = dir_bytes(&dir).map_err(io_err("data dir"))?;
    c.tally.record("tables ingested", lake.len() == fx.tables);

    let before: Vec<Legs> = fx
        .pool
        .iter()
        .map(|p| pipeline.discover_stage(&lake, &p.query))
        .collect();
    drop((pipeline, lake, durable));

    // `DurableLake::open` alone (decode + replay), then the real restart.
    let (opened, open_s) = timed(|| DurableLake::open(&dir, DurableConfig::default()));
    let (handle, recovery) = opened.map_err(io_err("DurableLake::open"))?;
    c.open_s = open_s;
    c.replayed = recovery.replayed;
    drop((handle, recovery));

    let t0 = Instant::now();
    let (mut recovered, lake, _durable) = t.span(op, "recover", |_| open(&dir))?;
    c.recover_signatures = recovered.sketch_work().unwrap_or(0);
    c.tally.record("tables recovered", lake.len() == fx.tables);
    for (p, before) in fx.pool.iter().zip(&before) {
        let legs = t.span(op, "query", |_| recovered.discover_stage(&lake, &p.query));
        c.tally
            .record("recovered == before", same_answer(&legs, before));
    }
    c.recover_s = t0.elapsed().as_secs_f64();
    for _ in 0..WARM_PASSES {
        for p in &fx.pool {
            let (_, s) = timed(|| recovered.discover_stage(&lake, &p.query));
            c.query_ms.push(s * 1e3);
        }
    }
    c.telemetry = recovered.telemetry().unwrap_or_default();

    // Soundness against an unlimited budget, untimed.
    c.recall = pipeline_budget_checks(&mut recovered, &lake, &fx.pool, &mut c.tally);
    Ok(c)
}

pub fn run(args: &RunArgs, scratch: &Scratch) -> Result<Outcome, String> {
    let fx = materialise(args, scratch)?;
    // A set-up is one untimed life of the lake: it warms what the timed
    // cycles reuse (page cache, allocator) and its checks count.
    let (mut tally, setups_s) = set_up_repeatedly(args, SETUPS, || {
        cycle(&fx, scratch, 0, &mut Tracer::off()).map(|c| c.tally)
    })?;

    let mut m = Metrics::default();
    let mut trace = None;
    if args.trace {
        let plain = cycle(&fx, scratch, 0, &mut Tracer::off())?;
        tally.add(&plain.tally);
        let mut tracer = Tracer::new(Instant::now());
        let mut cycles = Vec::new();
        let t0 = Instant::now();
        while cycles.is_empty() || t0.elapsed().as_secs_f64() < args.seconds * 0.5 {
            cycles.push(cycle(&fx, scratch, 1 + cycles.len() as u64, &mut tracer)?);
        }
        cycles.iter().for_each(|c| tally.add(&c.tally));
        let med = |f: fn(&Cycle) -> f64| median(&cycles.iter().map(f).collect::<Vec<f64>>());
        let last = cycles.last().expect("at least one cycle");

        let by_name = summarize(tracer.spans());
        let total_s = |name: &str| by_name.get(name).map_or(0.0, |s| s.total_ns as f64 / 1e9);
        let mean_us = |name: &str| by_name.get(name).map_or(0.0, |s| s.mean_ms() * 1e3);
        let catchup_ms = durations_ms(tracer.spans(), "catchup");
        let batch_ms: Vec<f64> = cycles
            .iter()
            .flat_map(|c| c.batch_ms.iter().copied())
            .collect();
        m.set("mutate_p50_ms", median(&batch_ms));
        m.set("recover_s", med(|c| c.recover_s));
        m.set(
            "stored_bytes_per_csv_byte",
            ratio(last.stored_bytes as f64, fx.csv_bytes as f64),
        );
        m.set(
            "table.csv_parse_mb_per_s",
            ratio(
                fx.csv_bytes as f64 * cycles.len() as f64 / 1e6,
                total_s("parse"),
            ),
        );
        m.set("table.upsert_us", mean_us("upsert"));
        m.set("table.load_failed", last.load_failed as f64);
        m.set("durable.ingest_append_us_per_table", mean_us("append"));
        m.set("index.sync_ms_per_batch", median(&catchup_ms));
        m.set(
            "index.sync_batch_max_ms",
            catchup_ms.iter().copied().fold(0.0, f64::max),
        );
        m.set("durable.snapshot_s", med(|c| c.snapshot_s));
        m.set("durable.snapshot_bytes", last.snapshot_bytes as f64);
        m.set("durable.open_s", med(|c| c.open_s));
        m.set("durable.replayed_records", last.replayed as f64);
        m.set(
            "minhash.signatures_per_table",
            ratio(last.signatures as f64, fx.tables as f64),
        );
        m.set("minhash.recover_signatures", last.recover_signatures as f64);
        m.set(
            "bench.trace_overhead_ratio",
            ratio(med(|c| c.tables_per_s(1)), plain.tables_per_s(1)),
        );
        leg_metrics(&mut m, &DiscoveryTelemetry::default(), &last.telemetry);
        trace = Some(tracer);
    } else {
        let mut cycles = Vec::new();
        let t0 = Instant::now();
        while cycles.is_empty() || t0.elapsed().as_secs_f64() < args.seconds {
            cycles.push(cycle(
                &fx,
                scratch,
                cycles.len() as u64,
                &mut Tracer::off(),
            )?);
        }
        cycles.iter().for_each(|c| tally.add(&c.tally));
        let rates: Vec<f64> = cycles.iter().map(|c| c.tables_per_s(fx.tables)).collect();
        let query_ms: Vec<Vec<f64>> = cycles.iter().map(|c| c.query_ms.clone()).collect();
        let recall_at_k = cycles.iter().map(|c| c.recall).sum::<f64>() / cycles.len() as f64;
        end_to_end(&mut m, &setups_s, median(&rates), &query_ms, recall_at_k);
    }
    Ok(Outcome {
        tally,
        metrics: m,
        fingerprint: fx.fingerprint,
        trace,
    })
}
