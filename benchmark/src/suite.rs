//! The whole benchmark from one command: every workload in a process of
//! its own (so `peak_rss_mb` is per workload), untraced for the
//! end-to-end metrics and then traced for the per-layer ones; results go
//! to `out/results.json`. With `--sets N` the suite runs N times on the
//! same build (set `i` on seed + `i`) and fails when the values of an
//! end-to-end metric spread by more than its bound — with `--sets 10` the
//! very computation the driver of `BENCHMARK.json` accepts a benchmark by.

use std::collections::BTreeMap;
use std::fmt::Write;
use std::process::Command;

use crate::inputs::{out_dir, DEFAULT_SEED};
use crate::metrics::{END_TO_END, WORKLOADS};
use crate::stats::spread;
use crate::Cli;

/// One child run, as parsed back from its metric lines.
#[derive(Debug, Default, Clone, PartialEq)]
struct RunResult {
    fingerprint: String,
    attempted: u64,
    failed: u64,
    /// `(metric, value, unit)` in reported order.
    metrics: Vec<(String, f64, String)>,
}

/// Parse the `# w …` notes and `w metric value unit` lines of one child.
fn parse_run(workload: &str, stdout: &str) -> Result<RunResult, String> {
    let mut out = RunResult::default();
    for line in stdout.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        match fields.as_slice() {
            ["#", w, "fingerprint", hex] if *w == workload => out.fingerprint = hex.to_string(),
            ["#", w, "attempted", a, "failed", f] if *w == workload => {
                out.attempted = a.parse().map_err(|_| format!("bad count in {line:?}"))?;
                out.failed = f.parse().map_err(|_| format!("bad count in {line:?}"))?;
            }
            [w, metric, value, unit] if *w == workload => out.metrics.push((
                metric.to_string(),
                value
                    .parse()
                    .map_err(|_| format!("bad value in {line:?}"))?,
                unit.to_string(),
            )),
            _ => {}
        }
    }
    if out.metrics.is_empty() || out.attempted == 0 {
        return Err(format!("{workload}: the run printed no result"));
    }
    Ok(out)
}

fn child(cli: &Cli, workload: &str, seed: u64, trace: bool) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &cli.seconds().to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if cli.smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child to end; its stderr passes through.
    let output = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("{workload}: cannot start a run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!("{workload}: run exited with {}", output.status));
    }
    for line in stdout.lines().filter(|l| !l.starts_with('{')) {
        println!("{line}");
    }
    parse_run(workload, &stdout)
}

/// Both runs of one workload in one set.
#[derive(Debug, Default, Clone)]
struct WorkloadResult {
    untraced: RunResult,
    traced: RunResult,
}

type Set = BTreeMap<&'static str, WorkloadResult>;

fn json_metrics(out: &mut String, metrics: &[(String, f64, String)]) {
    out.push('{');
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        )
        .expect("write to String");
    }
    out.push('}');
}

fn results_json(seed: u64, smoke: bool, sets: &[Set]) -> String {
    let mut out = format!("{{\"seed\": {seed}, \"smoke\": {smoke}, \"sets\": [");
    for (i, set) in sets.iter().enumerate() {
        out.push_str(if i == 0 { "\n  {" } else { ",\n  {" });
        write!(out, "\"seed\": {}, \"workloads\": {{", seed + i as u64).expect("write to String");
        for (j, (name, r)) in set.iter().enumerate() {
            out.push_str(if j == 0 { "\n    " } else { ",\n    " });
            write!(
                out,
                "\"{name}\": {{\"fingerprint\": \"{}\", \"attempted\": {}, \"failed\": {}, \"end_to_end\": ",
                r.untraced.fingerprint,
                r.untraced.attempted + r.traced.attempted,
                r.untraced.failed + r.traced.failed,
            )
            .expect("write to String");
            json_metrics(&mut out, &r.untraced.metrics);
            out.push_str(", \"per_layer\": ");
            json_metrics(&mut out, &r.traced.metrics);
            out.push('}');
        }
        out.push_str("\n  }}");
    }
    out.push_str("\n]}\n");
    out
}

/// End-to-end metrics whose values spread over the sets by more than
/// their bound ([`spread`]), as printable lines.
fn disagreements(sets: &[Set]) -> Vec<String> {
    let mut out = Vec::new();
    let Some(first) = sets.first() else {
        return out;
    };
    for workload in first.keys() {
        for m in END_TO_END {
            let values: Vec<f64> = sets
                .iter()
                .filter_map(|set| set.get(workload))
                .filter_map(|r| {
                    r.untraced
                        .metrics
                        .iter()
                        .find(|(name, _, _)| name == m.name)
                })
                .map(|(_, value, _)| *value)
                .collect();
            let spread = spread(&values);
            if spread > m.bound {
                out.push(format!(
                    "{workload} {}: {values:?} spread {spread:.3} (bound {})",
                    m.name, m.bound
                ));
            }
        }
    }
    out
}

pub fn run(cli: &Cli) -> Result<bool, String> {
    let seed = cli.seed.unwrap_or(DEFAULT_SEED);
    let mut sets: Vec<Set> = Vec::new();
    let mut ok = true;
    for i in 0..cli.sets.unwrap_or(1) {
        let mut set = Set::new();
        for w in WORKLOADS {
            if cli.workload.as_deref().is_some_and(|only| only != w.name) {
                continue;
            }
            let result = WorkloadResult {
                untraced: child(cli, w.name, seed + i as u64, false)?,
                traced: child(cli, w.name, seed + i as u64, true)?,
            };
            ok &= result.untraced.failed == 0 && result.traced.failed == 0;
            set.insert(w.name, result);
        }
        sets.push(set);
    }
    std::fs::create_dir_all(out_dir()).map_err(|e| e.to_string())?;
    let path = out_dir().join("results.json");
    std::fs::write(&path, results_json(seed, cli.smoke, &sets))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("# results -> {}", path.display());

    for line in disagreements(&sets) {
        println!("# A/A disagreement: {line}");
        ok = false;
    }
    if !ok {
        println!("# FAILED: an output check failed or two sets disagree (see above)");
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    const CHILD: &str = "\
# serve-churn seed=1 seconds=10 trace=0 smoke=false threads<=2 flush=x
# serve-churn fingerprint 00ff00ff00ff00ff
# serve-churn attempted 120 failed 1
serve-churn setup_s 1.5 s
serve-churn ops_per_s 2000.25 1/s
{\"correct\": false}
";

    fn set_with(ops_per_s: f64) -> Set {
        let run = RunResult {
            metrics: vec![
                ("setup_s".into(), 1.0, "s".into()),
                ("ops_per_s".into(), ops_per_s, "1/s".into()),
            ],
            ..RunResult::default()
        };
        Set::from([(
            "serve-churn",
            WorkloadResult {
                untraced: run.clone(),
                traced: run,
            },
        )])
    }

    #[test]
    fn parses_a_child_run_back() {
        let r = parse_run("serve-churn", CHILD).unwrap();
        assert_eq!(r.fingerprint, "00ff00ff00ff00ff");
        assert_eq!((r.attempted, r.failed), (120, 1));
        assert_eq!(
            r.metrics,
            vec![
                ("setup_s".to_string(), 1.5, "s".to_string()),
                ("ops_per_s".to_string(), 2000.25, "1/s".to_string()),
            ]
        );
        assert!(
            parse_run("pipeline-hetero", CHILD).is_err(),
            "other workload's lines"
        );
    }

    #[test]
    fn results_json_nests_sets_workloads_and_metrics() {
        let json = results_json(5, true, &[set_with(10.0), set_with(11.0)]);
        assert!(json.starts_with("{\"seed\": 5, \"smoke\": true, \"sets\": ["));
        assert_eq!(json.matches("\"serve-churn\": {").count(), 2);
        assert!(json.contains("\"seed\": 6, \"workloads\""));
        assert!(json.contains("\"ops_per_s\": {\"value\": 11, \"unit\": \"1/s\"}"));
        let opens = json.matches(['{', '[']).count();
        let closes = json.matches(['}', ']']).count();
        assert_eq!(opens, closes, "{json}");
    }

    #[test]
    fn sets_disagree_only_beyond_the_bound() {
        let bound = END_TO_END
            .iter()
            .find(|m| m.name == "ops_per_s")
            .unwrap()
            .bound;
        // Two values a and b spread by (b - a) / ((a + b) / 2).
        let apart = |share: f64| 1000.0 * (2.0 + share) / (2.0 - share);
        assert!(disagreements(&[set_with(1000.0), set_with(apart(bound * 0.9))]).is_empty());
        let lines = disagreements(&[set_with(1000.0), set_with(apart(bound * 1.1))]);
        assert_eq!(lines.len(), 1, "{lines:?}");
        assert!(lines[0].starts_with("serve-churn ops_per_s"));
        assert!(disagreements(&[]).is_empty() && disagreements(&[set_with(1.0)]).is_empty());
    }
}
