//! Recovery oracle for the durability layer: crash-replay at arbitrary
//! trace prefixes must reproduce the never-restarted lake **byte for
//! byte** — same version stamps, same table set, same discovery output —
//! and version stamps must stay strictly monotone across the simulated
//! restart (the restart-unsafe stamp bug this PR fixes).
//!
//! The replay runs on both routes of the joinable leg — the default mass
//! router and the sketch route (`exact_mass_per_token = 0`) — because the
//! index is a function of the lake: recovery builds it once over the
//! recovered lake, and it must answer like a cold build over the live one
//! whichever route a query takes. A deterministic companion test pins
//! that recovery hashes nothing.

use std::path::PathBuf;

use dialite_core::{DurableConfig, Pipeline};
use dialite_datagen::workloads::{ChurnOp, ChurnWorkload};
use dialite_discovery::{LakeIndexConfig, LshEnsembleConfig, QueryBudget, TableQuery};
use dialite_table::{table, DataLake};
use proptest::prelude::*;

/// A scratch data dir, unique per test case, wiped on entry.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "dialite_recovery_oracle_{}_{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The index config with every joinable query routed to the sketch, at
/// the small signature length and partition count of the oracle suites.
fn sketch_config() -> LakeIndexConfig {
    LakeIndexConfig {
        lshe: LshEnsembleConfig {
            num_perm: 64,
            num_partitions: 4,
            exact_mass_per_token: 0,
            ..LshEnsembleConfig::default()
        },
        ..LakeIndexConfig::default()
    }
}

/// The observable lake state equality the oracle pins: version stamp and
/// the full name → rows mapping. (Plain panics; proptest catches them.)
fn assert_same_lake(live: &DataLake, recovered: &DataLake) {
    assert_eq!(live.version(), recovered.version(), "version stamp drift");
    assert_eq!(live.len(), recovered.len(), "table count drift");
    for (_, t) in live.entries() {
        let r = recovered
            .get(t.name())
            .unwrap_or_else(|| panic!("recovered lake lost {}", t.name()));
        assert_eq!(
            t.rows().collect::<Vec<_>>(),
            r.rows().collect::<Vec<_>>(),
            "rows drift in {}",
            t.name()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random churn traces, snapshot at an arbitrary mutation prefix,
    /// crash at an arbitrary later prefix: reopening from disk must equal
    /// the live (never-restarted) lake byte for byte, discovery output
    /// included, and a post-restart mutation must mint a strictly newer
    /// stamp that the recovered changelog serves as an ordinary delta.
    #[test]
    fn crash_replay_equals_live_lake(
        seed in any::<u64>(),
        ops in 8usize..18,
        snap_frac in 0.0f64..1.0,
        crash_frac in 0.0f64..1.0,
        shards in 1usize..3,
        sketch_route in any::<bool>(),
    ) {
        let config = if sketch_route { sketch_config() } else { LakeIndexConfig::default() };
        let trace = ChurnWorkload {
            initial_tables: 5,
            rows_per_table: 8,
            vocab: 80,
            ops,
            seed,
        }
        .generate();
        // Flatten the whole trace into one mutation list; queries are
        // kept aside as probes.
        let mutations: Vec<&ChurnOp> = trace.ops.iter().filter(|op| !matches!(op, ChurnOp::Query(_))).collect();
        let queries: Vec<&ChurnOp> = trace.ops.iter().filter(|op| matches!(op, ChurnOp::Query(_))).collect();
        let crash_at = ((mutations.len() as f64) * crash_frac) as usize;
        let snap_at = ((crash_at as f64) * snap_frac) as usize;

        let dir = scratch(&format!("crash_{seed}_{ops}_{shards}_{sketch_route}"));
        let open = |dir: &PathBuf| {
            Pipeline::open_durable_configured(dir, shards, DurableConfig::default(), config.clone())
        };
        let (pipeline, mut lake, mut durable) = open(&dir).expect("fresh dir opens");
        for t in &trace.initial {
            let since = lake.version();
            lake.add_table(t.clone()).expect("unique trace names");
            durable.append_since(&lake, since).expect("append");
        }
        for (i, op) in mutations.iter().take(crash_at).enumerate() {
            let since = lake.version();
            op.apply(&mut lake);
            durable.append_since(&lake, since).expect("append");
            if i + 1 == snap_at {
                pipeline.snapshot(&lake, &mut durable).expect("snapshot");
            }
        }
        // Crash: drop the handle with no further checkpoint.
        drop(durable);
        drop(pipeline);

        let (reopened, recovered, mut durable) = open(&dir).expect("reopen");
        assert_same_lake(&lake, &recovered);

        // Discovery over the recovered lake is byte-identical to a cold
        // pipeline over the live lake.
        let cold = Pipeline::demo_configured(&lake, shards, config.clone());
        for (qi, op) in queries.iter().enumerate() {
            let ChurnOp::Query(q) = op else { unreachable!() };
            let query = TableQuery::with_column(q.clone(), 0);
            prop_assert_eq!(
                reopened.discover_stage(&recovered, &query),
                cold.discover_stage(&lake, &query),
                "discovery drift at query {}",
                qi
            );
        }

        // Post-restart mutations mint strictly newer stamps and flow
        // through the recovered changelog as an ordinary delta.
        let before = recovered.version();
        let mut recovered = recovered;
        let since = recovered.version();
        recovered
            .add_table(table! { "post_restart"; ["k"]; ["zeta"] })
            .expect("fresh name");
        durable.append_since(&recovered, since).expect("append after reopen");
        prop_assert!(recovered.version() > before, "stamp went backwards across restart");
        let delta = recovered.events_since(before).expect("changelog serves the delta");
        prop_assert_eq!(delta.len(), 1, "exactly the post-restart event");

        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Recovery hashes nothing: reopening from a snapshot plus a commitlog
/// tail builds the index over the recovered lake without computing a
/// single MinHash signature, on the sketch route too. Only a sketch-route
/// query signs, the same work as on a cold build over the same lake.
#[test]
fn reopen_computes_no_signatures() {
    let dir = scratch("reopen_work");
    let config = sketch_config();
    let open =
        || Pipeline::open_durable_configured(&dir, 1, DurableConfig::default(), config.clone());
    let (pipeline, mut lake, mut durable) = open().expect("fresh dir opens");
    let add = |lake: &mut DataLake, durable: &mut dialite_core::DurableLake, name: &str| {
        let since = lake.version();
        let (ka, kb) = (format!("{name}a"), format!("{name}b"));
        lake.add_table(table! { name; ["k", "v"]; [ka.as_str(), 1], [kb.as_str(), 2] })
            .expect("unique names");
        durable.append_since(lake, since).expect("append");
    };
    for i in 0..40 {
        add(&mut lake, &mut durable, &format!("big_t{i}"));
    }
    pipeline.snapshot(&lake, &mut durable).expect("snapshot");
    for i in 0..3 {
        add(&mut lake, &mut durable, &format!("tail_t{i}"));
    }
    drop(durable);
    drop(pipeline);

    let (reopened, recovered, _durable) = open().expect("reopen");
    assert_eq!(recovered.version(), lake.version());
    assert_eq!(reopened.sketch_work(), Some(0), "recovery hashed");

    // A two-token query: each partition's bound `min(1, upper / 2)` reaches
    // the threshold and no k-th score beats it, so the search probes every
    // partition and signs every domain.
    let probe = TableQuery::with_column(table! { "probe"; ["k"]; ["big_t0a"], ["big_t0b"] }, 0);
    let probe_work = |pipeline: &Pipeline, lake: &DataLake| {
        let hits = pipeline.discover_top_k(lake, &probe, 10, &QueryBudget::unlimited());
        (hits, pipeline.sketch_work().expect("indexed pipeline"))
    };
    let cold = Pipeline::demo_configured(&lake, 1, config.clone());
    assert_eq!(cold.sketch_work(), Some(0), "the build hashed");
    let (hits, work) = probe_work(&reopened, &recovered);
    assert_eq!((hits, work), probe_work(&cold, &lake));
    assert!(work > 80, "the probe skipped the sketch: {work}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The serving layer with write-ahead durability: mutations applied
/// through [`dialite_core::DurableService::mutate`] land in the commitlog
/// under the write lock, a checkpoint truncates it, and a restart serves
/// everything back.
#[test]
fn durable_service_mutations_survive_restart() {
    let dir = scratch("service");
    let (pipeline, lake, durable) =
        Pipeline::open_durable(&dir, 2, DurableConfig::default()).expect("fresh dir opens");
    let service = pipeline
        .serve_durable(lake, 16, durable)
        .expect("indexed pipeline");
    for i in 0..6 {
        let name = format!("svc_t{i}");
        let tok = format!("s{i}");
        service
            .mutate(|lake| lake.add_table(table! { &name; ["k"]; [tok.as_str()] }))
            .expect("durable mutate");
    }
    service.snapshot().expect("checkpoint");
    assert_eq!(service.log_len(), 0, "checkpoint truncates the log");
    service
        .mutate(|lake| lake.add_table(table! { "svc_after"; ["k"]; ["late"] }))
        .expect("durable mutate");
    assert_eq!(service.log_len(), 1, "tail after the checkpoint");
    let served_version = service.service().version();
    drop(service);

    let (_warm, recovered, _durable) =
        Pipeline::open_durable(&dir, 2, DurableConfig::default()).expect("reopen");
    assert_eq!(recovered.version(), served_version);
    assert_eq!(recovered.len(), 7);
    assert!(recovered.get("svc_after").is_some());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A torn tail at the end-to-end level: chopping bytes off the commitlog
/// recovers the longest valid prefix, and the recovered lake equals the
/// live lake as of that prefix.
#[test]
fn torn_log_tail_recovers_the_longest_valid_prefix() {
    let dir = scratch("torn_e2e");
    let (_pipeline, mut lake, mut durable) =
        Pipeline::open_durable(&dir, 1, DurableConfig::default()).expect("fresh dir opens");
    let mut versions = vec![lake.version()];
    for i in 0..5 {
        let since = lake.version();
        let name = format!("torn_t{i}");
        let wk = format!("w{i}");
        lake.add_table(table! { &name; ["k"]; [wk.as_str()] })
            .expect("unique names");
        durable.append_since(&lake, since).expect("append");
        versions.push(lake.version());
    }
    drop(durable);

    // Tear mid-record: chop 3 bytes off the log. The last record dies,
    // the first four survive.
    let log_path = dir.join("events.log");
    let bytes = std::fs::read(&log_path).expect("log exists");
    std::fs::write(&log_path, &bytes[..bytes.len() - 3]).expect("chop");

    let (_warm, recovered, _durable) =
        Pipeline::open_durable(&dir, 1, DurableConfig::default()).expect("reopen tolerates tear");
    assert_eq!(recovered.version(), versions[4], "longest valid prefix");
    assert_eq!(recovered.len(), 4);
    assert!(recovered.get("torn_t3").is_some());
    assert!(
        recovered.get("torn_t4").is_none(),
        "torn record must not be served"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
