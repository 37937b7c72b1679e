//! The benchmark's contract in one place: workloads, metric names, units,
//! directions and regression bounds. `../BENCHMARK.json` is generated from
//! these tables (`--manifest`) and a unit test keeps the two identical.

use std::collections::BTreeMap;
use std::fmt::Write;

/// Seconds one run measures (`run_seconds` in the manifest); the default
/// of `--seconds`.
pub const RUN_SECONDS: u64 = 16;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "pipeline-hetero",
        why: "CSV-loaded heterogeneous lake, full Pipeline::run per query: the paper's discover, align, FD-integrate path; align and integrate carry weight here and nowhere else",
    },
    Workload {
        name: "discover-hetero",
        why: "largest lake, zipf-repeated value and header queries through Pipeline::discover_stage only: discovery does all the work, so align/integrate changes must not move it",
    },
    Workload {
        name: "serve-churn",
        why: "2-shard durable service, 2 clients, 90% reads beside 10% durable writes: the only workload where serving, shard fan-out, index sync and the commitlog block a caller",
    },
    Workload {
        name: "ingest-restart",
        why: "CSV files ingested table by table into an empty durable lake, snapshotted, reopened and queried: write-, build- and recovery-dominated, queries do almost nothing",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

/// Every workload reports every one of these from the untraced run.
/// Timing bounds are the widest the contract allows: the sandbox host
/// runs in two speed regimes ≈ 25 % apart (see README, "Bounds and noise").
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "query_p50_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "query_p99_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "recall_at_k",
        unit: "ratio",
        better: "higher",
        bound: 0.01,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.2,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Every workload reports every one of these from the traced run; a
/// metric of a layer the workload does not exercise reads 0.
pub const PER_LAYER: &[PerLayer] = &[
    // Caller-visible numbers only some workloads have (see README).
    layer("mutate_p50_ms", "ms", "lower"),
    layer("mutate_p99_ms", "ms", "lower"),
    layer("recover_s", "s", "lower"),
    layer("stored_bytes_per_csv_byte", "ratio", "lower"),
    // table
    layer("table.csv_parse_mb_per_s", "MB/s", "higher"),
    layer("table.upsert_us", "us", "lower"),
    layer("table.load_failed", "count", "lower"),
    // minhash
    layer("minhash.signatures_per_table", "count", "lower"),
    layer("minhash.recover_signatures", "count", "lower"),
    // discovery (all legs)
    layer("discovery.source_hit_ratio", "ratio", "higher"),
    // discovery.index
    layer("index.build_s", "s", "lower"),
    layer("index.sync_ms_per_batch", "ms", "lower"),
    layer("index.sync_batch_max_ms", "ms", "lower"),
    layer("index.sync_us_per_mutation", "us", "lower"),
    // discovery.topk
    layer("topk.query_us", "us", "lower"),
    layer("topk.verified_per_query", "count", "lower"),
    layer("topk.partitions_probed_per_query", "count", "lower"),
    layer("topk.partitions_pruned_ratio", "ratio", "higher"),
    layer("topk.postings_skipped_per_query", "count", "higher"),
    layer("topk.cache_hit_ratio", "ratio", "higher"),
    layer("topk.exact_path_ratio", "ratio", "higher"),
    layer("topk.budget_exhausted_ratio", "ratio", "lower"),
    // discovery.santos
    layer("santos.query_us", "us", "lower"),
    layer("santos.retrieved_per_query", "count", "lower"),
    layer("santos.scored_per_query", "count", "lower"),
    layer("santos.bound_pruned_ratio", "ratio", "higher"),
    layer("santos.cap_hit_ratio", "ratio", "lower"),
    layer("santos.build_s", "s", "lower"),
    // discovery.metadata
    layer("metadata.query_us", "us", "lower"),
    layer("metadata.scored_per_query", "count", "lower"),
    layer("metadata.bound_pruned_ratio", "ratio", "higher"),
    layer("metadata.cap_hit_ratio", "ratio", "lower"),
    layer("metadata.build_s", "s", "lower"),
    // discovery.shard
    layer("shard.fanout_ratio", "ratio", "lower"),
    layer("shard.identical", "count", "higher"),
    // discovery.serving
    layer("serving.rejected_ratio", "ratio", "lower"),
    layer("serving.query_wait_us", "us", "lower"),
    layer("serving.handover_s", "s", "lower"),
    // durable
    layer("durable.append_us_per_mutation", "us", "lower"),
    layer("durable.log_bytes_per_mutation", "count", "lower"),
    layer("durable.ingest_append_us_per_table", "us", "lower"),
    layer("durable.snapshot_s", "s", "lower"),
    layer("durable.snapshot_bytes", "count", "lower"),
    layer("durable.open_s", "s", "lower"),
    layer("durable.replayed_records", "count", "lower"),
    // align
    layer("align.ms_per_run", "ms", "lower"),
    layer("align.columns_per_run", "count", "lower"),
    // integrate
    layer("integrate.fd_ms_per_run", "ms", "lower"),
    layer("integrate.fd_p99_ms", "ms", "lower"),
    layer("integrate.alt_ms_per_run", "ms", "lower"),
    layer("integrate.input_rows_per_run", "count", "lower"),
    layer("integrate.output_rows_per_run", "count", "lower"),
    // core
    layer("core.discover_share", "ratio", "lower"),
    layer("core.glue_ms_per_run", "ms", "lower"),
    // analyze
    layer("analyze.er_ms_per_run", "ms", "lower"),
    // bench
    layer("bench.trace_overhead_ratio", "ratio", "higher"),
];

/// Unit of a metric of either table.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| unit)
}

/// Values one run measured, keyed by metric name.
#[derive(Debug, Default, Clone)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Record a value. Names must come from the tables above and values
    /// must be finite — anything else is a harness bug, not a result.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(unit_of(name).is_some(), "unknown metric {name}");
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// The values the driver expects for this kind of run, in table
    /// order: all end-to-end metrics (each must have been measured) or
    /// all per-layer metrics (0 where the workload has no such layer).
    pub fn reported(&self, traced: bool) -> Vec<(&'static str, f64, &'static str)> {
        if traced {
            PER_LAYER
                .iter()
                .map(|m| (m.name, self.get(m.name).unwrap_or(0.0), m.unit))
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|m| {
                    let value = self
                        .get(m.name)
                        .unwrap_or_else(|| panic!("end-to-end metric {} not measured", m.name));
                    (m.name, value, m.unit)
                })
                .collect()
        }
    }
}

/// The result object the driver reads from the last line of stdout.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&'static str, f64, &'static str)],
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        )
        .expect("write to String");
    }
    out.push_str("}}");
    out
}

/// `BENCHMARK.json`, generated from the tables above.
pub fn manifest() -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    writeln!(out, "  \"run_seconds\": {RUN_SECONDS},").expect("write to String");
    let rows = |out: &mut String, key: &str, rows: Vec<String>, last: bool| {
        writeln!(out, "  \"{key}\": [").expect("write to String");
        out.push_str(&rows.join(",\n"));
        out.push_str(if last { "\n  ]\n" } else { "\n  ],\n" });
    };
    rows(
        &mut out,
        "workloads",
        WORKLOADS
            .iter()
            .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
            .collect(),
        false,
    );
    rows(
        &mut out,
        "end_to_end",
        END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                    m.name, m.unit, m.better, m.bound
                )
            })
            .collect(),
        false,
    );
    rows(
        &mut out,
        "per_layer",
        PER_LAYER
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                    m.name, m.unit, m.better
                )
            })
            .collect(),
        true,
    );
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_manifest_matches_the_tables() {
        assert_eq!(
            include_str!("../../BENCHMARK.json"),
            manifest(),
            "regenerate with `benchmark/run.sh --manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let ok_name = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        assert!(names.iter().all(|n| ok_name(n)), "{names:?}");
        let distinct: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(distinct.len(), names.len(), "a name is used twice");
        assert!(END_TO_END.iter().all(|m| ok_unit(m.unit)));
        assert!(PER_LAYER.iter().all(|m| ok_unit(m.unit)));
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
    }

    #[test]
    fn result_line_is_one_json_object_with_the_four_keys() {
        let line = result_line(
            true,
            10,
            0,
            &[("setup_s", 0.8127, "s"), ("ops_per_s", 1234.5, "1/s")],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}, \
             \"ops_per_s\": {\"value\": 1234.5, \"unit\": \"1/s\"}}}"
        );
        assert!(!line.contains('\n'));
    }

    #[test]
    fn traced_report_fills_absent_layers_with_zero() {
        let mut m = Metrics::default();
        m.set("align.ms_per_run", 1.5);
        let reported = m.reported(true);
        assert_eq!(reported.len(), PER_LAYER.len());
        assert!(reported.contains(&("align.ms_per_run", 1.5, "ms")));
        assert!(reported.contains(&("recover_s", 0.0, "s")));
    }

    #[test]
    #[should_panic(expected = "not measured")]
    fn untraced_report_demands_every_end_to_end_metric() {
        Metrics::default().reported(false);
    }
}
