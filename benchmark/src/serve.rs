//! `serve-churn`: a snapshotted lake served by `Pipeline::serve_durable`
//! over 2 index shards; 2 client threads drain one zipfian trace of 90 %
//! reads (`DiscoveryService::query_default`) and 10 % durable writes
//! (`DurableService::mutate`: lake change + index sync + log append +
//! fsync) from a shared cursor, closed loop. The only workload where the
//! serving layer, shard fan-out and the commitlog sit on a caller's path.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use dialite_core::{DurableConfig, DurableLake, DurableService, Pipeline};
use dialite_datagen::workloads::{ChurnOp, HeterogeneousLakeWorkload, ServingOp};
use dialite_discovery::{DiscoveryBudget, ShardedLakeIndex, TableQuery};

use crate::checks::{budget_check, same_answer, tally_budget_checks, Legs};
use crate::common::{
    end_to_end, io_err, leg_metrics, p99, set_up_repeatedly, timed, Outcome, RunArgs, Samples,
    Tally, MAX_THREADS, SETUPS, SLICES,
};
use crate::inputs::{
    check_pin, corpus, drifting, file_bytes, mix, three_leg_config, value_pool, Fingerprint,
    PoolQuery, Scratch,
};
use crate::metrics::Metrics;
use crate::stats::{median, ratio};
use crate::trace::Tracer;

pub const NAME: &str = "serve-churn";

const TABLES: usize = 3000;
const MAX_ROWS: usize = 256;
const POOL: usize = 256;
const SHARDS: usize = 2;
const CLIENTS: usize = MAX_THREADS;
const MAX_IN_FLIGHT: usize = 64;
const READ_RATIO: f64 = 0.9;
/// Ops generated per run; a window ends early if it drains them all.
const OPS: usize = 60_000;

struct Fixture {
    spec: HeterogeneousLakeWorkload,
    dir: PathBuf,
    service: DurableService,
    pool: Vec<PoolQuery>,
    ops: Vec<ServingOp>,
    fingerprint: u64,
    snapshot_s: f64,
    handover_s: f64,
}

impl Fixture {
    /// The query of read op `i`, which drew zipf rank `rank`.
    fn read_query(&self, rank: usize, i: usize) -> &TableQuery {
        &self.pool[drifting(rank, i, self.pool.len())].query
    }
}

/// Index the corpus, snapshot it into an empty data dir, hand lake and
/// log to the durable service, answer every pool query once.
fn set_up(args: &RunArgs, scratch: &Scratch) -> Result<Fixture, String> {
    let spec = corpus(args.scaled(TABLES, 60), MAX_ROWS);
    let pool = value_pool(&spec, args.seed, args.scaled(POOL, 16));
    // The trace generator draws reads over its own pool of `queries`
    // tables; only the indices are used, against `pool`.
    let client = HeterogeneousLakeWorkload {
        seed: mix(args.seed, 3),
        queries: pool.len(),
        ..spec.clone()
    };
    let (_, ops) = client.serving_ops(args.scaled(OPS, 600), READ_RATIO);

    let mut fp = Fingerprint::default();
    spec.stream().for_each(|t| fp.table(&t));
    pool.iter().for_each(|p| fp.query(&p.query));
    for op in &ops {
        match op {
            ServingOp::Query(rank) => fp.number(*rank as u64),
            ServingOp::Mutate(ChurnOp::Query(t)) => {
                fp.text("query");
                fp.table(t);
            }
            ServingOp::Mutate(ChurnOp::Add(t)) => {
                fp.text("add");
                fp.table(t);
            }
            ServingOp::Mutate(ChurnOp::Replace(t)) => {
                fp.text("replace");
                fp.table(t);
            }
            ServingOp::Mutate(ChurnOp::Remove(name)) => {
                fp.text("remove");
                fp.text(name);
            }
        }
    }

    let fingerprint = fp.finish();
    check_pin(&args.workload, args.seed, args.smoke, fingerprint)?;

    // A fresh build over the full lake, not `open_durable` + incremental
    // sync: replaying 3 000 adds through `sync` costs three times the build
    // (the `ingest-restart` workload measures that path).
    let dir = scratch.clean_dir("serve").map_err(io_err("scratch dir"))?;
    let lake = spec.lake();
    let pipeline = Pipeline::demo_configured(&lake, SHARDS, three_leg_config());
    let (mut durable, _) =
        DurableLake::open(&dir, DurableConfig::default()).map_err(io_err("DurableLake::open"))?;
    let (snap, snapshot_s) = timed(|| pipeline.snapshot(&lake, &mut durable));
    snap.map_err(io_err("snapshot"))?;
    let (service, handover_s) = timed(|| pipeline.serve_durable(lake, MAX_IN_FLIGHT, durable));
    let service = service.expect("indexed pipeline");
    for p in &pool {
        let _ = service.service().query_default(&p.query);
    }
    Ok(Fixture {
        spec,
        dir,
        service,
        pool,
        ops,
        fingerprint,
        snapshot_s,
        handover_s,
    })
}

/// What the clients of one window saw.
#[derive(Default)]
struct Window {
    reads: Samples,
    writes: Samples,
    tally: Tally,
    wall_s: f64,
    /// Op indices of the applied mutations, in serialization order
    /// (pushed under the service's write lock).
    mutation_order: Vec<usize>,
    /// Index one past the last op any client took.
    consumed: usize,
}

impl Window {
    /// Median over time slices of reads + writes completed per second.
    fn ops_per_s(&self) -> f64 {
        let slice_s = self.wall_s / SLICES as f64;
        let per_slice: Vec<f64> = self
            .reads
            .slices(self.wall_s)
            .iter()
            .zip(self.writes.slices(self.wall_s))
            .map(|(r, w)| (r.len() + w.len()) as f64 / slice_s)
            .collect();
        median(&per_slice)
    }
}

/// `CLIENTS` threads drain `fx.ops[from..]` through one cursor until
/// `seconds` have gone by. A refused read (`Busy`) or a failed append is
/// a failed op. With an `epoch`, every op is wrapped in a span.
fn window(fx: &Fixture, from: usize, seconds: f64, epoch: Option<Instant>) -> (Window, Tracer) {
    let cursor = AtomicUsize::new(from);
    let order: Mutex<Vec<usize>> = Mutex::new(Vec::new());
    let t0 = Instant::now();
    let per_client: Vec<(Window, Tracer)> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (cursor, order) = (&cursor, &order);
                scope.spawn(move || {
                    let mut w = Window::default();
                    let mut tracer =
                        epoch.map_or_else(Tracer::off, |e| Tracer::for_thread(e, c as u32));
                    while t0.elapsed().as_secs_f64() < seconds {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(op) = fx.ops.get(i) else { break };
                        client_op(fx, i, op, order, t0, &mut w, &mut tracer);
                    }
                    (w, tracer)
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("client thread panicked"))
            .collect()
    });
    let mut merged = Window {
        wall_s: t0.elapsed().as_secs_f64(),
        mutation_order: order.into_inner().expect("mutation order lock"),
        consumed: cursor.load(Ordering::Relaxed).min(fx.ops.len()),
        ..Window::default()
    };
    let mut tracer = epoch.map_or_else(Tracer::off, Tracer::new);
    for (w, t) in per_client {
        merged.reads.extend(w.reads);
        merged.writes.extend(w.writes);
        merged.tally.add(&w.tally);
        tracer.merge(t);
    }
    (merged, tracer)
}

fn client_op(
    fx: &Fixture,
    i: usize,
    op: &ServingOp,
    order: &Mutex<Vec<usize>>,
    t0: Instant,
    w: &mut Window,
    t: &mut Tracer,
) {
    let id = i as u64;
    match op {
        ServingOp::Query(p) => {
            let query = fx.read_query(*p, i);
            let (answer, s) =
                timed(|| t.span(id, "read", |_| fx.service.service().query_default(query)));
            w.reads.push(t0.elapsed().as_secs_f64(), s * 1e3);
            w.tally.record("read", answer.is_ok());
        }
        ServingOp::Mutate(_) => {
            let (applied, s) = timed(|| {
                t.span(id, "write", |t| {
                    fx.service.mutate(|lake| {
                        t.span(id, "write.apply", |_| op.apply_tolerant(lake));
                        order.lock().expect("mutation order lock").push(i);
                    })
                })
            });
            w.writes.push(t0.elapsed().as_secs_f64(), s * 1e3);
            w.tally.record("write", applied.is_ok());
        }
    }
}

/// The service's current answer to every pool query.
fn pool_answers(fx: &Fixture, tally: &mut Tally) -> Vec<Legs> {
    fx.pool
        .iter()
        .map(|p| match fx.service.service().query_default(&p.query) {
            Ok(response) => response.results,
            Err(_) => {
                tally.record("read", false);
                Vec::new()
            }
        })
        .collect()
}

/// Default-budget answers against unlimited-budget ones on the served
/// index; returns recall@k.
fn budget_checks(fx: &Fixture, answers: &[Legs], tally: &mut Tally) -> f64 {
    let k = fx.service.service().config().k;
    let checks: Vec<_> = fx.service.service().with_state(|_, index| {
        fx.pool
            .iter()
            .zip(answers)
            .map(|(p, default)| {
                let unlimited =
                    index.discover_all_budgeted(&p.query, k, &DiscoveryBudget::unlimited());
                budget_check(default, &unlimited)
            })
            .collect()
    });
    tally_budget_checks(&checks, tally)
}

/// Shut the service down, reopen its data dir and compare the recovered
/// pipeline's answers with the ones the service gave last.
fn reopen_check(fx: Fixture, answers: &[Legs], tally: &mut Tally) -> Result<(), String> {
    let Fixture {
        dir, service, pool, ..
    } = fx;
    drop(service);
    let (reopened, lake, _durable) = Pipeline::open_durable_configured(
        &dir,
        SHARDS,
        DurableConfig::default(),
        three_leg_config(),
    )
    .map_err(io_err("reopen"))?;
    for (p, served) in pool.iter().zip(answers) {
        tally.record(
            "reopen == served",
            same_answer(&reopened.discover_stage(&lake, &p.query), served),
        );
    }
    Ok(())
}

/// Replay the logged mutation order single-threaded through a plain
/// (non-durable) service over a fresh copy of the corpus: its answers must
/// equal the durable service's, and its per-mutation time is the cost of
/// lake change + index sync without the log.
fn replay(fx: &Fixture, order: &[usize], answers: &[Legs], tally: &mut Tally) -> Vec<f64> {
    let lake = fx.spec.lake();
    let pipeline = Pipeline::demo_configured(&lake, SHARDS, three_leg_config());
    let plain = pipeline
        .serve(lake, MAX_IN_FLIGHT)
        .expect("indexed pipeline");
    let sync_us: Vec<f64> = order
        .iter()
        .map(|&i| timed(|| plain.mutate(|lake| fx.ops[i].apply_tolerant(lake))).1 * 1e6)
        .collect();
    for (p, served) in fx.pool.iter().zip(answers) {
        let replayed = plain.query_default(&p.query);
        tally.record(
            "replay == served",
            replayed.is_ok_and(|r| same_answer(&r.results, served)),
        );
    }
    sync_us
}

/// Pool p50 on the served 2-shard index over a 1-shard index built from
/// the same lake, and whether the two answer identically.
fn shard_probe(fx: &Fixture, m: &mut Metrics) {
    let service = fx.service.service();
    let (k, budget) = (service.config().k, service.config().budget);
    service.with_state(|lake, sharded| {
        let single = ShardedLakeIndex::build(lake, sharded.kb(), sharded.config(), 1);
        let pass = |index: &ShardedLakeIndex| -> (Vec<f64>, Vec<Legs>) {
            // Once untimed (signature cache), once timed.
            for p in &fx.pool {
                index.discover_all_budgeted(&p.query, k, &budget);
            }
            fx.pool
                .iter()
                .map(|p| {
                    let (legs, s) = timed(|| index.discover_all_budgeted(&p.query, k, &budget));
                    (s * 1e3, legs)
                })
                .unzip()
        };
        let (sharded_ms, sharded_legs) = pass(sharded);
        let (single_ms, single_legs) = pass(&single);
        m.set(
            "shard.fanout_ratio",
            ratio(median(&sharded_ms), median(&single_ms)),
        );
        m.set(
            "shard.identical",
            f64::from(u8::from(sharded_legs == single_legs)),
        );
    });
}

pub fn run(args: &RunArgs, scratch: &Scratch) -> Result<Outcome, String> {
    let (fx, setups_s) = set_up_repeatedly(args, SETUPS, || set_up(args, scratch))?;

    let fingerprint = fx.fingerprint;
    let mut m = Metrics::default();
    let mut tally = Tally::default();
    let mut trace = None;
    if args.trace {
        let before = fx.service.service().discovery_telemetry();
        let (plain, _) = window(&fx, 0, args.seconds * 0.3, None);
        let (traced, tracer) = window(
            &fx,
            plain.consumed,
            args.seconds * 0.4,
            Some(Instant::now()),
        );
        let after = fx.service.service().discovery_telemetry();
        tally.add(&plain.tally);
        tally.add(&traced.tally);
        leg_metrics(&mut m, &before, &after);
        m.set(
            "bench.trace_overhead_ratio",
            ratio(traced.ops_per_s(), plain.ops_per_s()),
        );

        let writes: Vec<f64> = [plain.writes.ms(), traced.writes.ms()].concat();
        m.set("mutate_p50_ms", median(&writes));
        m.set("mutate_p99_ms", p99(&writes));

        // The same reads again, one client, nobody writing: what is left
        // of the loaded median is time spent waiting on writers.
        let quiet_ms: Vec<f64> = fx.ops[..traced.consumed]
            .iter()
            .enumerate()
            .filter_map(|(i, op)| match op {
                ServingOp::Query(p) => Some(fx.read_query(*p, i)),
                ServingOp::Mutate(_) => None,
            })
            .take(5000)
            .map(|q| timed(|| fx.service.service().query_default(q)).1 * 1e3)
            .collect();
        let loaded_ms: Vec<f64> = [plain.reads.ms(), traced.reads.ms()].concat();
        m.set(
            "serving.query_wait_us",
            (median(&loaded_ms) - median(&quiet_ms)) * 1e3,
        );
        let telemetry = fx.service.service().telemetry();
        m.set(
            "serving.rejected_ratio",
            ratio(
                telemetry.rejected as f64,
                (telemetry.served + telemetry.rejected) as f64,
            ),
        );
        m.set("serving.handover_s", fx.handover_s);
        m.set("durable.snapshot_s", fx.snapshot_s);

        let order: Vec<usize> = plain
            .mutation_order
            .iter()
            .chain(&traced.mutation_order)
            .copied()
            .collect();
        let answers = pool_answers(&fx, &mut tally);
        let sync_us = replay(&fx, &order, &answers, &mut tally);
        m.set("index.sync_us_per_mutation", median(&sync_us));
        m.set(
            "durable.append_us_per_mutation",
            median(&writes) * 1e3 - median(&sync_us),
        );
        m.set(
            "durable.log_bytes_per_mutation",
            ratio(
                file_bytes(&fx.dir.join("events.log")) as f64,
                order.len() as f64,
            ),
        );
        m.set(
            "durable.snapshot_bytes",
            file_bytes(&fx.dir.join("snapshot.bin")) as f64,
        );
        shard_probe(&fx, &mut m);
        trace = Some(tracer);
    } else {
        let (w, _) = window(&fx, 0, args.seconds, None);
        tally.add(&w.tally);
        let answers = pool_answers(&fx, &mut tally);
        let recall_at_k = budget_checks(&fx, &answers, &mut tally);
        // Peak memory is the service's, not the reopened copy's beside it.
        end_to_end(
            &mut m,
            &setups_s,
            w.ops_per_s(),
            &w.reads.slices(w.wall_s),
            recall_at_k,
        );
        reopen_check(fx, &answers, &mut tally)?;
    }
    Ok(Outcome {
        tally,
        metrics: m,
        fingerprint,
        trace,
    })
}
