//! `dialite` — a command-line interface to the DIALITE pipeline, standing in
//! for the paper's interactive web demo (§2.4). Users point it at a
//! directory of CSV files (the data lake) and drive the three stages:
//!
//! ```text
//! dialite demo
//! dialite discover  --lake DIR|--data-dir DIR --query Q.csv [--column N] [--k K] [--shards N] [--max-postings P] [--metadata]
//! dialite serve     --lake DIR|--data-dir DIR --query Q.csv [--column N] [--clients N] [--requests M] [--shards N] [--max-postings P] [--metadata]
//! dialite telemetry --lake DIR --query Q.csv [--column N] [--k K] [--requests M] [--shards N] [--max-postings P] [--metadata]
//! dialite integrate --lake DIR --tables a,b,c [--operator fd|outer-join|inner-join|union]
//! dialite analyze   --table T.csv --corr colA,colB
//! dialite generate  --prompt "covid cases" [--rows N] [--cols N]
//! dialite snapshot  --data-dir DIR [--lake CSVDIR]
//! ```
//!
//! `--shards N` stripes the maintained discovery index across N shards
//! (each query probes the shards in order and merges; `--shards 1`, the
//! default, is byte-for-byte the single index; more shards buy write-lock
//! granularity, not read speed). `telemetry` replays the query and
//! dumps the merged discovery telemetry window as one JSON object.
//!
//! `--max-postings P` caps the posting entries the exact top-k path's
//! posting merge may scan per query (default 2²⁰; `unlimited` removes the
//! cap, so every exact-routed query merges all of its posting lists).
//!
//! `--metadata` enables the third, metadata-aware discovery leg: tables
//! are retrieved by header/annotation match (column-name token overlap)
//! instead of cell values, so sparse or value-disjoint tables that share
//! a schema still surface. Results appear as a separate `[metadata]`
//! engine block alongside `[santos]` and `[lsh-ensemble]`.
//!
//! `--data-dir DIR` points at a **durable** lake: a checksummed snapshot
//! plus commitlog that survive restarts. `dialite snapshot` ingests CSVs
//! into it (appending to the log) and writes a checkpoint of the lake, so
//! the next open replays only the log written since. `discover`/`serve`
//! with `--data-dir` recover snapshot + log tail, build the discovery
//! index once over the recovered lake and serve it.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

use dialite::align::{HolisticMatcher, KbAnnotator};
use dialite::analyze::{column_summary, pearson_columns};
use dialite::datagen::TableSynth;
use dialite::discovery::DiscoveryService;
use dialite::discovery::TableQuery;
use dialite::discovery::{LakeIndexConfig, MetadataConfig};
use dialite::kb::curated::covid_kb;
use dialite::pipeline::{demo, DurableConfig, DurableLake, Pipeline};
use dialite::table::{read_csv_str, CsvOptions, DataLake, Table};
use dialite_integrate::{
    AliteFd, InnerJoinIntegrator, Integrator, OuterJoinIntegrator, OuterUnionIntegrator,
};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("dialite: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  dialite demo
  dialite discover  --lake DIR|--data-dir DIR --query FILE.csv [--column N] [--k K] [--shards N] [--max-postings P|unlimited] [--metadata]
  dialite serve     --lake DIR|--data-dir DIR --query FILE.csv [--column N] [--k K] [--clients N] [--requests M] [--shards N] [--max-postings P|unlimited] [--metadata]
  dialite telemetry --lake DIR --query FILE.csv [--column N] [--k K] [--requests M] [--shards N] [--max-postings P|unlimited] [--metadata]
  dialite integrate --lake DIR --tables a,b,c [--operator fd|outer-join|inner-join|union]
  dialite analyze   --table FILE.csv [--corr colA,colB] [--summary]
  dialite generate  --prompt TEXT [--rows N] [--cols N] [--seed S]
  dialite snapshot  --data-dir DIR [--lake CSVDIR]";

/// Minimal `--flag value` argument reader.
fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn load_lake(dir: &str) -> Result<DataLake, String> {
    let mut lake = DataLake::new();
    let n = lake
        .load_dir(Path::new(dir))
        .map_err(|e| format!("loading lake from {dir}: {e}"))?;
    if n == 0 {
        return Err(format!("no .csv files found in {dir}"));
    }
    Ok(lake)
}

/// Parse `--shards` (default 1; the pipeline clamps 0 up to 1). Shard ids
/// are `u32` throughout the routing layer, so anything past `u32::MAX` is
/// a usage error here rather than a panic deep inside the router.
fn shards_flag(args: &[String]) -> Result<usize, String> {
    let shards: usize = flag(args, "--shards")
        .unwrap_or("1")
        .parse()
        .map_err(|_| "--shards must be a number".to_string())?;
    if u32::try_from(shards).is_err() {
        return Err(format!(
            "--shards {shards} is out of range (max {})",
            u32::MAX
        ));
    }
    Ok(shards)
}

/// Build the index configuration for the commands that maintain one:
/// defaults everywhere, plus the third header-matching discovery leg
/// when `--metadata` is given.
fn index_config(args: &[String]) -> LakeIndexConfig {
    let mut config = LakeIndexConfig::default();
    if args.iter().any(|a| a == "--metadata") {
        config.metadata = Some(MetadataConfig::default());
    }
    config
}

/// Apply `--max-postings` to the pipeline's discovery budget: the cap on
/// posting entries the exact top-k path's merge may scan per query.
/// Absent, the default budget (2²⁰ entries) stands; `unlimited` removes
/// the cap so the exact path merges every posting list.
fn apply_max_postings(args: &[String], pipeline: &mut Pipeline) -> Result<(), String> {
    let Some(raw) = flag(args, "--max-postings") else {
        return Ok(());
    };
    let postings = match raw {
        "unlimited" => usize::MAX,
        n => n
            .parse()
            .map_err(|_| "--max-postings must be a number or 'unlimited'".to_string())?,
    };
    let mut budget = pipeline.discovery_budget();
    budget.joinable = budget.joinable.with_max_postings(postings);
    pipeline.set_discovery_budget(budget);
    Ok(())
}

/// Resolve the lake for a read command. `--data-dir` opens the durable
/// store (recovering snapshot + commitlog tail, then building the index
/// over the recovered lake); `--lake` loads CSVs fresh and builds the
/// index over them. Exactly one must be given.
fn open_lake_source(
    args: &[String],
    shards: usize,
) -> Result<(Pipeline, DataLake, Option<DurableLake>), String> {
    match (flag(args, "--data-dir"), flag(args, "--lake")) {
        (Some(dir), None) => {
            let (pipeline, lake, durable) = Pipeline::open_durable_configured(
                Path::new(dir),
                shards,
                DurableConfig::default(),
                index_config(args),
            )
            .map_err(|e| format!("opening durable lake at {dir}: {e}"))?;
            if lake.is_empty() {
                return Err(format!(
                    "durable lake at {dir} is empty; seed it with \
                     `dialite snapshot --data-dir {dir} --lake CSVDIR`"
                ));
            }
            Ok((pipeline, lake, Some(durable)))
        }
        (None, Some(dir)) => {
            let lake = load_lake(dir)?;
            let pipeline = Pipeline::demo_configured(&lake, shards, index_config(args));
            Ok((pipeline, lake, None))
        }
        (Some(_), Some(_)) => Err("--data-dir and --lake are mutually exclusive here".to_string()),
        (None, None) => Err("--lake DIR or --data-dir DIR is required".to_string()),
    }
}

/// Turn a loaded query table into a [`TableQuery`], honoring `--column`.
fn query_from(args: &[String], table: Table) -> Result<TableQuery, String> {
    match flag(args, "--column") {
        Some(c) => {
            let col: usize = c.parse().map_err(|_| "--column must be a number")?;
            if col >= table.column_count() {
                return Err(format!("--column {col} out of range"));
            }
            Ok(TableQuery::with_column(table, col))
        }
        None => Ok(TableQuery::new(table)),
    }
}

fn load_table(path: &str) -> Result<Table, String> {
    let text =
        std::fs::read_to_string(PathBuf::from(path)).map_err(|e| format!("reading {path}: {e}"))?;
    let name = Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("query");
    read_csv_str(name, &text, &CsvOptions::default()).map_err(|e| e.to_string())
}

fn run(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("demo") => cmd_demo(),
        Some("discover") => cmd_discover(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("telemetry") => cmd_telemetry(&args[1..]),
        Some("integrate") => cmd_integrate(&args[1..]),
        Some("analyze") => cmd_analyze(&args[1..]),
        Some("generate") => cmd_generate(&args[1..]),
        Some("snapshot") => cmd_snapshot(&args[1..]),
        Some(other) => Err(format!("unknown command '{other}'")),
        None => Err("missing command".to_string()),
    }
}

fn cmd_demo() -> Result<(), String> {
    let lake = demo::covid_lake();
    let pipeline = Pipeline::demo_default(&lake);
    let query = TableQuery::with_column(demo::fig2_query(), 1);
    println!("Query table:\n{}", query.table);
    let run = pipeline.run(&lake, &query).map_err(|e| e.to_string())?;
    println!("{}", run.report());
    print_telemetry(&pipeline);
    Ok(())
}

/// Print the budgeted discovery stage's rolling telemetry, if the
/// pipeline maintains an index (the demo and discover commands do).
fn print_telemetry(pipeline: &Pipeline) {
    if let Some(telemetry) = pipeline.telemetry() {
        println!("\n== Discovery telemetry ==");
        println!("{}", telemetry.summary());
    }
}

fn cmd_discover(args: &[String]) -> Result<(), String> {
    let (pipeline, lake, _durable) = open_lake_source(args, shards_flag(args)?)?;
    let table = load_table(flag(args, "--query").ok_or("--query FILE is required")?)?;
    let k: usize = flag(args, "--k")
        .unwrap_or("5")
        .parse()
        .map_err(|_| "--k must be a number")?;
    let query = query_from(args, table)?;
    let mut pipeline = pipeline;
    pipeline.set_top_k(k);
    apply_max_postings(args, &mut pipeline)?;
    let run = pipeline.run(&lake, &query).map_err(|e| e.to_string())?;
    println!("{}", run.report());
    print_telemetry(&pipeline);
    Ok(())
}

/// Replay the query through the (optionally sharded) discovery stage and
/// dump the merged telemetry window as one JSON object on stdout — the
/// machine-readable sibling of the human summary the other commands print.
fn cmd_telemetry(args: &[String]) -> Result<(), String> {
    let lake = load_lake(flag(args, "--lake").ok_or("--lake DIR is required")?)?;
    let table = load_table(flag(args, "--query").ok_or("--query FILE is required")?)?;
    let k: usize = flag(args, "--k")
        .unwrap_or("5")
        .parse()
        .map_err(|_| "--k must be a number")?;
    let requests: usize = flag(args, "--requests")
        .unwrap_or("8")
        .parse()
        .map_err(|_| "--requests must be a number")?;
    let query = query_from(args, table)?;
    let mut pipeline = Pipeline::demo_configured(&lake, shards_flag(args)?, index_config(args));
    pipeline.set_top_k(k);
    apply_max_postings(args, &mut pipeline)?;
    for _ in 0..requests.max(1) {
        pipeline.discover_stage(&lake, &query);
    }
    let json = pipeline
        .telemetry_json()
        .expect("demo pipeline maintains an index");
    println!("{json}");
    Ok(())
}

/// Serve the query from N concurrent clients against a `DiscoveryService`
/// over the lake — the CLI face of discovery-as-a-service: admission
/// control, version-stamped responses and a tail-latency report.
fn cmd_serve(args: &[String]) -> Result<(), String> {
    let shards = shards_flag(args)?;
    let (pipeline, lake, durable) = open_lake_source(args, shards)?;
    let table = load_table(flag(args, "--query").ok_or("--query FILE is required")?)?;
    let k: usize = flag(args, "--k")
        .unwrap_or("5")
        .parse()
        .map_err(|_| "--k must be a number")?;
    let clients: usize = flag(args, "--clients")
        .unwrap_or("8")
        .parse()
        .map_err(|_| "--clients must be a number")?;
    let requests: usize = flag(args, "--requests")
        .unwrap_or("64")
        .parse()
        .map_err(|_| "--requests must be a number")?;
    let query = query_from(args, table)?;
    let mut pipeline = pipeline;
    pipeline.set_top_k(k);
    apply_max_postings(args, &mut pipeline)?;
    // With --data-dir the service keeps write-ahead durability; with
    // --lake it serves in memory only.
    let durable_service;
    let plain_service;
    let service: &DiscoveryService = match durable {
        Some(d) => {
            durable_service = pipeline
                .serve_durable(lake, 1024, d)
                .expect("demo pipeline maintains an index");
            durable_service.service()
        }
        None => {
            plain_service = pipeline
                .serve(lake, 1024)
                .expect("demo pipeline maintains an index");
            &plain_service
        }
    };

    let done = std::sync::atomic::AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..clients.max(1) {
            scope.spawn(|| loop {
                let i = done.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= requests {
                    break;
                }
                let _ = service.query_default(&query);
            });
        }
    });

    let response = service
        .query_default(&query)
        .map_err(|e| format!("serving failed: {e}"))?;
    println!("Results (lake version {}):", response.version);
    for (engine, hits) in &response.results {
        println!("  [{engine}]");
        for d in hits {
            println!("    {:<24} score {:.3}", d.table, d.score);
        }
    }
    let t = service.telemetry();
    println!(
        "\n== Serving telemetry ({clients} clients, {requests} requests, {} shard(s)) ==",
        service.shard_count()
    );
    println!("{}", t.summary());
    Ok(())
}

/// Ingest CSVs into the durable lake (each upsert appended to the
/// commitlog) and write a checkpoint — a snapshot of the lake — so
/// subsequent `--data-dir` opens replay only what follows it. A snapshot
/// holds the lake alone, so no discovery index is built.
fn cmd_snapshot(args: &[String]) -> Result<(), String> {
    let dir = flag(args, "--data-dir").ok_or("--data-dir DIR is required")?;
    let (mut durable, recovery) = DurableLake::open(Path::new(dir), DurableConfig::default())
        .map_err(|e| format!("opening durable lake at {dir}: {e}"))?;
    let mut lake = recovery.lake;
    let mut ingested = 0usize;
    if let Some(csv_dir) = flag(args, "--lake") {
        let fresh = load_lake(csv_dir)?;
        for t in fresh.tables() {
            let since = lake.version();
            lake.upsert(t.as_ref().clone());
            durable
                .append_since(&lake, since)
                .map_err(|e| format!("appending to commitlog: {e}"))?;
            ingested += 1;
        }
    }
    if lake.is_empty() {
        return Err(format!(
            "nothing to snapshot: durable lake at {dir} is empty and no --lake CSVDIR was given"
        ));
    }
    durable
        .write_snapshot(&lake)
        .map_err(|e| format!("writing snapshot: {e}"))?;
    println!(
        "snapshot written to {dir}: {} tables at lake version {} ({} ingested this run)",
        lake.len(),
        lake.version(),
        ingested
    );
    Ok(())
}

fn parse_operator(name: Option<&str>) -> Result<Box<dyn Integrator>, String> {
    Ok(match name.unwrap_or("fd") {
        "fd" => Box::new(AliteFd::default()),
        "outer-join" => Box::new(OuterJoinIntegrator),
        "inner-join" => Box::new(InnerJoinIntegrator),
        "union" => Box::new(OuterUnionIntegrator { subsume: true }),
        other => return Err(format!("unknown operator '{other}'")),
    })
}

fn cmd_integrate(args: &[String]) -> Result<(), String> {
    let lake = load_lake(flag(args, "--lake").ok_or("--lake DIR is required")?)?;
    let names = flag(args, "--tables").ok_or("--tables a,b,c is required")?;
    let operator = parse_operator(flag(args, "--operator"))?;
    let tables: Vec<Arc<Table>> = names
        .split(',')
        .map(|n| lake.require(n.trim()).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let refs: Vec<&Table> = tables.iter().map(|t| t.as_ref()).collect();
    let matcher =
        HolisticMatcher::default().with_annotator(Arc::new(KbAnnotator::new(Arc::new(covid_kb()))));
    let alignment = matcher.align(&refs);
    println!("Integration IDs:");
    for (t, table) in refs.iter().enumerate() {
        for c in 0..table.column_count() {
            println!(
                "  {}.{} → {}",
                table.name(),
                table.schema().column(c).name,
                alignment.name_of(alignment.id_of(t, c))
            );
        }
    }
    let out = operator
        .integrate(&refs, &alignment)
        .map_err(|e| e.to_string())?;
    println!("\n{}", out.table());
    Ok(())
}

fn cmd_analyze(args: &[String]) -> Result<(), String> {
    let table = load_table(flag(args, "--table").ok_or("--table FILE is required")?)?;
    if let Some(pair) = flag(args, "--corr") {
        let (a, b) = pair.split_once(',').ok_or("--corr expects colA,colB")?;
        let ca = table
            .column_index(a.trim())
            .ok_or_else(|| format!("unknown column '{a}'"))?;
        let cb = table
            .column_index(b.trim())
            .ok_or_else(|| format!("unknown column '{b}'"))?;
        match pearson_columns(&table, ca, cb) {
            Some(r) => println!("pearson({a}, {b}) = {r:.4}"),
            None => println!("pearson({a}, {b}) undefined (insufficient pairs or zero variance)"),
        }
    }
    // Summary is the default action (and runs alongside --corr with --summary).
    if flag(args, "--corr").is_none() || args.iter().any(|a| a == "--summary") {
        println!("{table}");
        for c in 0..table.column_count() {
            let s = column_summary(&table, c).map_err(|e| e.to_string())?;
            println!(
                "{:<20} rows={} nulls={} distinct={} mean={} min={} max={}",
                s.column,
                s.rows,
                s.nulls,
                s.distinct,
                s.mean.map_or("-".into(), |x| format!("{x:.3}")),
                s.min.map_or("-".into(), |x| format!("{x:.3}")),
                s.max.map_or("-".into(), |x| format!("{x:.3}")),
            );
        }
    }
    Ok(())
}

fn cmd_generate(args: &[String]) -> Result<(), String> {
    let prompt = flag(args, "--prompt").ok_or("--prompt TEXT is required")?;
    let rows: usize = flag(args, "--rows")
        .unwrap_or("5")
        .parse()
        .map_err(|_| "--rows must be a number")?;
    let cols: usize = flag(args, "--cols")
        .unwrap_or("5")
        .parse()
        .map_err(|_| "--cols must be a number")?;
    let seed: u64 = flag(args, "--seed")
        .unwrap_or("42")
        .parse()
        .map_err(|_| "--seed must be a number")?;
    let table = TableSynth::new(seed).generate(prompt, rows, cols);
    print!("{}", dialite::table::table_to_csv(&table));
    Ok(())
}
