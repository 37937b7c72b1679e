//! Concurrency oracle for the serving layer: whatever interleaving the
//! scheduler produces, `DiscoveryService` must behave like *some*
//! single-threaded execution.
//!
//! Three properties are pinned:
//!
//! * **Linearization** (the main oracle): every concurrently served
//!   response is byte-identical to a fresh single-threaded
//!   `discover_all_budgeted` against the lake state named by the version
//!   the response reports. The mutation serialization order is captured
//!   inside the `mutate` closure — under the service's write lock — so
//!   the replay walks the exact state sequence the service produced.
//!   Run with the exact (sketch-free) index config and an unlimited
//!   budget, the regime where discovery output is a pure function of
//!   lake state (see `incremental_oracle.rs`).
//! * **No reader starvation**: under continuous churn from a writer,
//!   every reader keeps completing queries (catches writer-preferring
//!   `RwLock` pathologies).
//! * **Admission control**: over-capacity requests get `Busy` — never a
//!   deadlock, never a partial result — permits are never leaked, and
//!   capacity recovers after a rejection storm.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dialite_datagen::workloads::{ServingOp, ServingTrace, ServingWorkload};
use dialite_discovery::{
    Discovered, DiscoveryBudget, DiscoveryService, LakeIndex, LakeIndexConfig, LshEnsembleConfig,
    MetadataConfig, SantosConfig, ServingConfig, ServingError, TableQuery,
};
use dialite_kb::curated::covid_kb;
use dialite_table::DataLake;
use proptest::prelude::*;

/// Sketch-free config: discovery output is a pure function of lake state,
/// so "byte-identical to a single-threaded run" is well-defined.
fn exact_config() -> LakeIndexConfig {
    LakeIndexConfig {
        santos: SantosConfig::default(),
        lshe: LshEnsembleConfig {
            num_perm: 64,
            num_partitions: 4,
            exact_mass_per_token: usize::MAX,
            rebalance_dirtiness: 0.15,
            ..LshEnsembleConfig::default()
        },
        // Serve all three legs: the metadata engine must stay coherent
        // under the same concurrent read/churn interleavings as the rest.
        metadata: Some(MetadataConfig::default()),
    }
}

fn service_over(trace: &ServingTrace, serving: ServingConfig, shards: usize) -> DiscoveryService {
    let mut lake = DataLake::new();
    for t in &trace.initial {
        lake.add(t.clone()).expect("unique initial names");
    }
    DiscoveryService::with_shards(lake, Arc::new(covid_kb()), exact_config(), serving, shards)
}

/// One concurrently served response, as the replay needs it.
struct Answered {
    pool_idx: usize,
    version: u64,
    results: Vec<(String, Vec<Discovered>)>,
}

/// Drive the trace through the service from `threads` clients; return the
/// serialized mutation log (op indices, in write-lock order) and every
/// answered response.
fn drive(
    service: &DiscoveryService,
    trace: &ServingTrace,
    queries: &[TableQuery],
    threads: usize,
    k: usize,
    budget: &DiscoveryBudget,
) -> (Vec<usize>, Vec<Answered>) {
    let cursor = AtomicUsize::new(0);
    let mutation_log: Mutex<Vec<usize>> = Mutex::new(Vec::new());
    let answered: Mutex<Vec<Answered>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut local: Vec<Answered> = Vec::new();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(op) = trace.ops.get(i) else { break };
                    match op {
                        ServingOp::Query(p) => {
                            let response = service
                                .query(&queries[*p], k, budget)
                                .expect("generous capacity never rejects");
                            local.push(Answered {
                                pool_idx: *p,
                                version: response.version,
                                results: response.results,
                            });
                        }
                        ServingOp::Mutate(_) => {
                            service.mutate(|lake| {
                                op.apply_tolerant(lake);
                                // Under the write lock: log order is the
                                // serialization order.
                                mutation_log.lock().unwrap().push(i);
                            });
                        }
                    }
                }
                answered.lock().unwrap().append(&mut local);
            });
        }
    });
    (
        mutation_log.into_inner().unwrap(),
        answered.into_inner().unwrap(),
    )
}

proptest! {
    /// The linearization oracle (see module docs). Each version-group of
    /// responses must match a *fresh* `LakeIndex::build` over exactly one
    /// state of the serialized replay — states advance monotonically with
    /// versions, so the walk never rewinds; a response matching no state
    /// is a linearization violation. The service runs at 1–3 shards, so
    /// the consistent-snapshot fan-out (version-mismatch retry, churn-lock
    /// fallback) is pinned under a concurrent writer: with the exact
    /// config every shard count answers like the single `LakeIndex`. It is
    /// driven by 2, 4 or 8 client threads, and the default admission
    /// capacity must admit every one of them (`drive` expects no `Busy`).
    #[test]
    fn concurrent_serving_equals_single_threaded_linearization(
        seed in any::<u64>(),
        ops in 16usize..40,
        shards in 1usize..4,
        threads in prop_oneof![Just(2usize), Just(4), Just(8)],
    ) {
        let trace = ServingWorkload {
            tables: 8,
            hub_tables: 2,
            hub_rows: 48,
            tail_rows: 6,
            vocab: 300,
            query_pool: 4,
            query_rows: 16,
            ops,
            read_ratio: 0.75,
            zipf_s: 1.0,
            seed,
        }
        .generate();
        let service = service_over(&trace, ServingConfig::default(), shards);
        let queries: Vec<TableQuery> = trace
            .pool
            .iter()
            .map(|t| TableQuery::with_column(t.clone(), 0))
            .collect();
        let budget = DiscoveryBudget::unlimited();
        let (log, mut answered) = drive(&service, &trace, &queries, threads, 6, &budget);
        prop_assert!(!answered.is_empty(), "trace served no queries");

        answered.sort_by_key(|a| a.version);
        let kb = Arc::new(covid_kb());
        let mut replay = DataLake::new();
        for t in &trace.initial {
            replay.upsert(t.clone());
        }
        let mut log_pos = 0usize;
        let mut index = LakeIndex::build(&replay, kb.clone(), exact_config());
        let mut remaining = answered.as_slice();
        while !remaining.is_empty() {
            let version = remaining[0].version;
            let n = remaining.iter().take_while(|a| a.version == version).count();
            let (group, rest) = remaining.split_at(n);
            loop {
                let all_match = group.iter().all(|a| {
                    index.discover_all_budgeted(&queries[a.pool_idx], 6, &budget) == a.results
                });
                if all_match {
                    break;
                }
                prop_assert!(
                    log_pos < log.len(),
                    "linearization violated: {} response(s) stamped v{} match no \
                     serialized lake state",
                    group.len(),
                    version
                );
                trace.ops[log[log_pos]].apply_tolerant(&mut replay);
                // Fresh build per state: this oracle must not depend on
                // incremental sync (that equivalence has its own oracle).
                index = LakeIndex::build(&replay, kb.clone(), exact_config());
                log_pos += 1;
            }
            remaining = rest;
        }
    }
}

/// Under continuous churn from one writer, 8 readers each keep completing
/// queries — a writer-preferring lock (or a sync that holds the write
/// guard unfairly long) would starve some reader below the floor.
#[test]
fn readers_are_not_starved_by_a_churning_writer() {
    let trace = ServingWorkload {
        tables: 12,
        hub_tables: 2,
        hub_rows: 48,
        tail_rows: 6,
        vocab: 300,
        query_pool: 4,
        query_rows: 16,
        ops: 0,
        read_ratio: 1.0,
        zipf_s: 1.0,
        seed: 71,
    }
    .generate();
    let service = service_over(&trace, ServingConfig::default(), 1);
    let queries: Vec<TableQuery> = trace
        .pool
        .iter()
        .map(|t| TableQuery::with_column(t.clone(), 0))
        .collect();
    let budget = DiscoveryBudget::default();
    const READERS: usize = 8;
    const FLOOR: usize = 5;
    let window = Duration::from_millis(400);
    let deadline = Instant::now() + window;
    let service = &service;

    let counts: Vec<usize> = std::thread::scope(|scope| {
        // Writer: churn one table in and out until the window closes.
        let churn_table = trace.initial[0].clone();
        let writer = scope.spawn(move || {
            let mut churned = 0usize;
            while Instant::now() < deadline {
                service.mutate(|lake| {
                    if lake.remove(churn_table.name()).is_none() {
                        lake.upsert(churn_table.clone());
                    }
                });
                churned += 1;
            }
            churned
        });
        let readers: Vec<_> = (0..READERS)
            .map(|r| {
                let queries = &queries;
                let budget = &budget;
                scope.spawn(move || {
                    let mut done = 0usize;
                    while Instant::now() < deadline {
                        service
                            .query(&queries[r % queries.len()], 5, budget)
                            .expect("generous capacity");
                        done += 1;
                    }
                    done
                })
            })
            .collect();
        let churned = writer.join().unwrap();
        assert!(churned > 0, "writer never got the write lock");
        readers.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (r, done) in counts.iter().enumerate() {
        assert!(
            *done >= FLOOR,
            "reader {r} starved: completed {done} < {FLOOR} queries in the \
             window (all counts: {counts:?})"
        );
    }
}

/// Zero capacity: every request is `Busy`, immediately, with no engine
/// work and no partial result — and the rejection is counted.
#[test]
fn zero_capacity_always_rejects_without_deadlock() {
    let trace = ServingWorkload {
        tables: 6,
        query_pool: 2,
        ops: 0,
        seed: 73,
        ..ServingWorkload::default()
    }
    .generate();
    let service = service_over(&trace, ServingConfig::default().with_max_in_flight(0), 1);
    let query = TableQuery::with_column(trace.pool[0].clone(), 0);
    for _ in 0..16 {
        assert_eq!(
            service.query(&query, 5, &DiscoveryBudget::default()),
            Err(ServingError::Busy)
        );
    }
    let t = service.telemetry();
    assert_eq!(t.rejected, 16);
    assert_eq!(t.served, 0);
    assert_eq!(t.query_latency.samples, 0, "rejections record no latency");
}

/// Tiny capacity under a thread storm: every outcome is a full response
/// or `Busy` (nothing in between), the telemetry accounts for every
/// attempt, and — because permits release on drop, panic included —
/// capacity always recovers afterwards.
#[test]
fn over_capacity_storm_yields_busy_and_capacity_recovers() {
    let trace = ServingWorkload {
        tables: 10,
        hub_tables: 2,
        hub_rows: 48,
        tail_rows: 6,
        vocab: 300,
        query_pool: 4,
        query_rows: 16,
        ops: 0,
        read_ratio: 1.0,
        zipf_s: 1.0,
        seed: 79,
    }
    .generate();
    let service = service_over(&trace, ServingConfig::default().with_max_in_flight(2), 1);
    let queries: Vec<TableQuery> = trace
        .pool
        .iter()
        .map(|t| TableQuery::with_column(t.clone(), 0))
        .collect();
    let budget = DiscoveryBudget::default();
    const THREADS: usize = 8;
    const PER_THREAD: usize = 20;

    let ok = AtomicUsize::new(0);
    let busy = AtomicUsize::new(0);
    let service = &service;
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let queries = &queries;
            let budget = &budget;
            let (ok, busy) = (&ok, &busy);
            scope.spawn(move || {
                for i in 0..PER_THREAD {
                    match service.query(&queries[(t + i) % queries.len()], 5, budget) {
                        Ok(response) => {
                            // Full response, never partial: the result
                            // shape is the complete per-engine list
                            // (santos, lsh-ensemble, metadata).
                            assert_eq!(response.results.len(), 3);
                            ok.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(ServingError::Busy) => {
                            busy.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
    });
    let (ok, busy) = (ok.load(Ordering::Relaxed), busy.load(Ordering::Relaxed));
    assert_eq!(ok + busy, THREADS * PER_THREAD, "every attempt accounted");
    assert!(ok >= 2, "capacity 2 must admit some requests: ok={ok}");
    let t = service.telemetry();
    assert_eq!(t.served, ok as u64);
    assert_eq!(t.rejected, busy as u64);

    // Permits were all released: a lone request now always succeeds.
    for q in &queries {
        assert!(service.query(q, 5, &budget).is_ok(), "capacity leaked");
    }
}
