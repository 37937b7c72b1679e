//! The DIALITE pipeline benchmark. See `README.md` beside `Cargo.toml`.
//!
//! Two ways in, both through `run.sh`:
//!
//! * `--workload W --seed N --seconds S --trace 0|1` — one run of one
//!   workload in this process; the last stdout line is the result object
//!   `BENCHMARK.json`'s driver reads.
//! * without `--trace` — the whole suite: every workload in a process of
//!   its own, untraced then traced, written to `out/results.json`.

mod checks;
mod common;
mod discover;
mod ingest;
mod inputs;
mod metrics;
mod pipeline;
mod serve;
mod stats;
mod suite;
mod trace;

use std::process::ExitCode;

use common::{Outcome, RunArgs};
use inputs::{Scratch, DEFAULT_SEED};
use metrics::{result_line, RUN_SECONDS, WORKLOADS};

/// Seconds a smoke run measures when `--seconds` is not given.
const SMOKE_SECONDS: f64 = 1.0;

/// Command line of both modes.
#[derive(Debug, Default, PartialEq)]
pub struct Cli {
    pub workload: Option<String>,
    pub seed: Option<u64>,
    pub seconds: Option<f64>,
    pub trace: Option<bool>,
    pub smoke: bool,
    pub sets: Option<usize>,
    pub manifest: bool,
}

impl Cli {
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Cli, String> {
        let mut cli = Cli::default();
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let mut value = || args.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => {
                    let name = value()?;
                    if !WORKLOADS.iter().any(|w| w.name == name) {
                        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                        return Err(format!(
                            "unknown workload {name}; known: {}",
                            known.join(", ")
                        ));
                    }
                    cli.workload = Some(name);
                }
                "--seed" => cli.seed = Some(number(&flag, &value()?)?),
                "--seconds" => {
                    let s: f64 = number(&flag, &value()?)?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err(format!("--seconds must be in (0, 600], got {s}"));
                    }
                    cli.seconds = Some(s);
                }
                "--trace" => {
                    cli.trace = Some(match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, got {other}")),
                    })
                }
                "--sets" => {
                    let n: usize = number(&flag, &value()?)?;
                    if n == 0 {
                        return Err("--sets must be at least 1".into());
                    }
                    cli.sets = Some(n);
                }
                "--smoke" => cli.smoke = true,
                "--manifest" => cli.manifest = true,
                other => return Err(format!("unknown argument {other}")),
            }
        }
        Ok(cli)
    }

    pub fn seconds(&self) -> f64 {
        self.seconds.unwrap_or(if self.smoke {
            SMOKE_SECONDS
        } else {
            RUN_SECONDS as f64
        })
    }
}

fn number<T: std::str::FromStr>(flag: &str, text: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("{flag}: cannot read {text:?} as a number"))
}

/// One run of one workload: metric lines, then the result object. Failed
/// output checks are part of the result (`correct`, `failed`), not of the
/// exit code; only a run that could not measure at all returns an error.
fn single_run(args: &RunArgs) -> Result<(), String> {
    checks::fixture_gate()?;
    std::fs::create_dir_all(inputs::out_dir()).map_err(|e| e.to_string())?;
    let scratch = Scratch::new().map_err(|e| format!("scratch space: {e}"))?;
    let outcome: Outcome = match args.workload.as_str() {
        pipeline::NAME => pipeline::run(args, &scratch),
        discover::NAME => discover::run(args, &scratch),
        serve::NAME => serve::run(args, &scratch),
        ingest::NAME => ingest::run(args, &scratch),
        other => Err(format!("unknown workload {other}")),
    }?;
    drop(scratch);

    let w = &args.workload;
    println!(
        "# {w} seed={} seconds={} trace={} smoke={} threads<={} flush=DurableConfig::default() (fsync_every=1)",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.smoke,
        common::MAX_THREADS,
    );
    println!("# {w} fingerprint {:016x}", outcome.fingerprint);
    let tally = &outcome.tally;
    println!(
        "# {w} attempted {} failed {}",
        tally.attempted, tally.failed
    );
    for (what, n) in &tally.failures {
        println!("# {w} failed check: {what} x{n}");
    }
    if let Some(tracer) = &outcome.trace {
        let path = inputs::out_dir().join(format!("trace-{w}.jsonl"));
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!(
            "# {w} trace {} spans -> {}",
            tracer.spans().len(),
            path.display()
        );
    }
    let reported = outcome.metrics.reported(args.trace);
    for (name, value, unit) in &reported {
        println!("{w} {name} {value} {unit}");
    }
    println!(
        "{}",
        result_line(
            tally.failed == 0,
            tally.attempted.max(1),
            tally.failed,
            &reported
        )
    );
    Ok(())
}

fn real_main() -> Result<bool, String> {
    let cli = Cli::parse(std::env::args().skip(1))?;
    if cli.manifest {
        print!("{}", metrics::manifest());
        return Ok(true);
    }
    match cli.trace {
        Some(trace) => single_run(&RunArgs {
            workload: cli
                .workload
                .clone()
                .ok_or("--trace needs --workload (one run measures one workload)")?,
            seed: cli.seed.unwrap_or(DEFAULT_SEED),
            seconds: cli.seconds(),
            trace,
            smoke: cli.smoke,
        })
        .map(|()| true),
        None => suite::run(&cli),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(2),
        Err(message) => {
            eprintln!("dialite-benchmark: {message}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Cli, String> {
        Cli::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_driver_command_line() {
        let cli = parse(&[
            "--workload",
            "serve-churn",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(cli.workload.as_deref(), Some("serve-churn"));
        assert_eq!((cli.seed, cli.trace), (Some(7), Some(true)));
        assert_eq!(cli.seconds(), 10.0);
    }

    #[test]
    fn defaults_follow_the_mode() {
        assert_eq!(parse(&[]).unwrap().seconds(), RUN_SECONDS as f64);
        assert_eq!(parse(&["--smoke"]).unwrap().seconds(), SMOKE_SECONDS);
        assert_eq!(parse(&["--sets", "2"]).unwrap().sets, Some(2));
    }

    #[test]
    fn rejects_what_it_cannot_run() {
        for bad in [
            &["--workload", "nope"][..],
            &["--seed", "x"],
            &["--seconds", "0"],
            &["--trace", "2"],
            &["--sets", "0"],
            &["--seed"],
            &["--frobnicate"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }
}
