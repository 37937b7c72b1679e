//! CLI argument hardening: every malformed numeric flag must exit with a
//! usage error (status 1, message + usage on stderr), never a panic. PR 9
//! left `--shards` able to reach a `u32` conversion panic deep inside the
//! shard router on absurd values; this suite drives the real release
//! binary over the bad-flag matrix so a regression trips in CI, and
//! smoke-tests the `--metadata` discovery leg end to end.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A scratch lake directory holding one tiny CSV (removed on drop), so
/// flag parsing that happens *after* the lake loads is reachable too.
struct ScratchLake(PathBuf);

impl ScratchLake {
    fn new(name: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("dialite_cli_{}_{name}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch lake dir");
        std::fs::write(
            dir.join("cities.csv"),
            "city,population\noslo,700000\nbergen,280000\n",
        )
        .expect("scratch lake csv");
        ScratchLake(dir)
    }

    fn dir(&self) -> &str {
        self.0.to_str().expect("utf-8 temp path")
    }

    fn query(&self) -> String {
        self.0.join("cities.csv").to_string_lossy().into_owned()
    }
}

impl Drop for ScratchLake {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn dialite(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dialite"))
        .args(args)
        .output()
        .expect("spawn dialite binary")
}

/// The binary must refuse with a usage error: exit status 1, the message
/// and the usage block on stderr, and no panic anywhere.
fn assert_usage_error(args: &[&str], message: &str) {
    let out = dialite(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(1),
        "{args:?} should exit 1, got {:?}\n{stderr}",
        out.status
    );
    assert!(!stderr.contains("panicked"), "{args:?} panicked:\n{stderr}");
    assert!(
        stderr.contains(message),
        "{args:?} missing {message:?}:\n{stderr}"
    );
    assert!(
        stderr.contains("usage:"),
        "{args:?} missing usage block:\n{stderr}"
    );
}

#[test]
fn non_numeric_shards_is_a_usage_error() {
    let lake = ScratchLake::new("shards_nan");
    assert_usage_error(
        &[
            "discover",
            "--lake",
            lake.dir(),
            "--query",
            &lake.query(),
            "--shards",
            "abc",
        ],
        "--shards must be a number",
    );
}

#[test]
fn overflowing_shards_is_a_usage_error() {
    let lake = ScratchLake::new("shards_overflow");
    // Larger than u64: the usize parse itself fails.
    assert_usage_error(
        &[
            "discover",
            "--lake",
            lake.dir(),
            "--query",
            &lake.query(),
            "--shards",
            "99999999999999999999",
        ],
        "--shards must be a number",
    );
}

#[test]
fn shards_past_the_router_width_is_a_usage_error_not_a_panic() {
    // Fits in usize but not in the router's u32 shard ids — exactly the
    // value that used to panic where the shard count is cut into stripes
    // (`ShardScope::stripes`).
    let lake = ScratchLake::new("shards_wide");
    assert_usage_error(
        &[
            "serve",
            "--lake",
            lake.dir(),
            "--query",
            &lake.query(),
            "--shards",
            "5000000000",
        ],
        "out of range",
    );
}

#[test]
fn non_numeric_k_is_a_usage_error() {
    let lake = ScratchLake::new("k");
    assert_usage_error(
        &[
            "discover",
            "--lake",
            lake.dir(),
            "--query",
            &lake.query(),
            "--k",
            "abc",
        ],
        "--k must be a number",
    );
}

#[test]
fn non_numeric_clients_and_requests_are_usage_errors() {
    let lake = ScratchLake::new("serve_flags");
    assert_usage_error(
        &[
            "serve",
            "--lake",
            lake.dir(),
            "--query",
            &lake.query(),
            "--clients",
            "abc",
        ],
        "--clients must be a number",
    );
    assert_usage_error(
        &[
            "serve",
            "--lake",
            lake.dir(),
            "--query",
            &lake.query(),
            "--requests",
            "-3",
        ],
        "--requests must be a number",
    );
}

#[test]
fn non_numeric_max_postings_is_a_usage_error() {
    let lake = ScratchLake::new("postings");
    assert_usage_error(
        &[
            "discover",
            "--lake",
            lake.dir(),
            "--query",
            &lake.query(),
            "--max-postings",
            "lots",
        ],
        "--max-postings must be a number or 'unlimited'",
    );
}

#[test]
fn non_numeric_generate_flags_are_usage_errors() {
    assert_usage_error(
        &["generate", "--prompt", "x", "--rows", "abc"],
        "--rows must be a number",
    );
    assert_usage_error(
        &["generate", "--prompt", "x", "--seed", "abc"],
        "--seed must be a number",
    );
}

#[test]
fn unknown_command_is_a_usage_error() {
    assert_usage_error(&["frobnicate"], "unknown command");
}

#[test]
fn missing_query_file_is_an_error_not_a_panic() {
    let lake = ScratchLake::new("missing_query");
    let missing = Path::new(lake.dir()).join("nope.csv");
    let out = dialite(&[
        "discover",
        "--lake",
        lake.dir(),
        "--query",
        missing.to_str().unwrap(),
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

/// End-to-end smoke of the new discovery leg. The scratch lake is the
/// metadata leg's home turf: a value-disjoint table sharing the query's
/// headers, which the value-based engines cannot surface at all — so the
/// default run ends with an empty integration set, and `--metadata`
/// turns the same invocation into a full pipeline run.
#[test]
fn metadata_flag_adds_the_header_matching_engine() {
    let lake = ScratchLake::new("metadata");
    std::fs::write(
        Path::new(lake.dir()).join("towns.csv"),
        "city,population\nkirkenes,3500\nalta,15000\n",
    )
    .expect("second lake csv");

    let without = dialite(&["discover", "--lake", lake.dir(), "--query", &lake.query()]);
    let stderr = String::from_utf8_lossy(&without.stderr);
    assert_eq!(without.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("empty integration set"),
        "value engines alone find nothing here:\n{stderr}"
    );

    let with = dialite(&[
        "discover",
        "--lake",
        lake.dir(),
        "--query",
        &lake.query(),
        "--metadata",
    ]);
    assert!(with.status.success(), "{:?}", with);
    let stdout = String::from_utf8_lossy(&with.stdout);
    assert!(
        stdout.contains("metadata:"),
        "metadata engine block:\n{stdout}"
    );
    assert!(
        stdout.contains("towns (1.000)"),
        "header-identical table surfaces via metadata at full score:\n{stdout}"
    );
    assert!(
        stdout.contains("== Integrate =="),
        "discovery feeds integration:\n{stdout}"
    );
}
