//! Recall oracle for the LSH Ensemble discovery engine: candidates are
//! checked against a brute-force exact-containment scan over datagen
//! lakes.
//!
//! Pinned guarantees:
//!
//! * **Soundness (always):** post-verification never reports a table below
//!   the containment threshold, and never above its true best containment
//!   — reported scores are exact containments of verified columns.
//! * **Exact route:** a query routed to the exact posting merge (every
//!   query at `exact_mass_per_token = usize::MAX`, a light one by
//!   default) gets the brute-force truth, keys and scores.
//! * **Recall (quantified):** on the sketch path, decisively-above-
//!   threshold tables are recalled at ≥ 90%, and overall above-threshold
//!   recall is reported and floored. Fixed seeds keep this deterministic.
//! * **Typeless SANTOS recall (quantified):** on a typeless-heavy skewed
//!   lake (no KB coverage at all), the synthesized-signal posting index
//!   at the default candidate cap recalls ≥ 90% of the exhaustive full
//!   scan's top-k, at exact scores.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use dialite_datagen::lake::{LakeSpec, SyntheticLake};
use dialite_datagen::workloads::TopKWorkload;
use dialite_discovery::{
    Discovery, DiscoveryBudget, LshEnsembleConfig, LshEnsembleDiscovery, SantosConfig,
    SantosDiscovery, TableQuery,
};
use dialite_kb::KbBuilder;
use dialite_table::{DataLake, Table};

mod common;
use common::brute_containment;

fn lake() -> DataLake {
    SyntheticLake::generate(&LakeSpec {
        universes: 5,
        fragments_per_universe: 5,
        rows_per_universe: 60,
        categorical_cols: 2,
        numeric_cols: 1,
        null_rate: 0.05,
        value_dirt_rate: 0.0,
        scramble_headers: true,
        seed: 4242,
    })
    .lake
}

/// Every lake fragment doubles as a query (probe column 0, the universe
/// key), yielding sibling containments across the whole (0, 1] spectrum.
fn queries(lake: &DataLake) -> Vec<Table> {
    lake.tables().map(|t| t.as_ref().clone()).collect()
}

#[test]
fn sketch_path_is_sound_and_recall_is_quantified() {
    let lake = lake();
    let threshold = 0.5;
    let config = LshEnsembleConfig {
        threshold,
        exact_mass_per_token: 0, // force the sketch path for every query
        ..LshEnsembleConfig::default()
    };
    let engine = LshEnsembleDiscovery::build(&lake, config);

    let margin = 0.2;
    let mut above = 0usize;
    let mut above_found = 0usize;
    let mut decisive = 0usize;
    let mut decisive_found = 0usize;
    for q in queries(&lake) {
        let truth = brute_containment(&lake, &q);
        let work = engine.sketch_work();
        let hits = engine.discover(&TableQuery::with_column(q, 0), usize::MAX);
        assert!(
            engine.sketch_work() > work,
            "the query took the exact route"
        );
        let found: HashMap<&str, f64> = hits.iter().map(|d| (d.table.as_str(), d.score)).collect();

        // Soundness: threshold floor + no overstated score, ever.
        for (table, score) in &found {
            assert!(
                *score >= threshold - 1e-12,
                "{table} reported below threshold: {score}"
            );
            let brute = truth.get(*table).copied().unwrap_or(0.0);
            assert!(
                *score <= brute + 1e-12,
                "{table} reported {score}, true best containment {brute}"
            );
        }

        for (table, brute) in &truth {
            if *brute + 1e-12 >= threshold {
                above += 1;
                above_found += usize::from(found.contains_key(table.as_str()));
            }
            if *brute >= threshold + margin {
                decisive += 1;
                decisive_found += usize::from(found.contains_key(table.as_str()));
            }
        }
    }
    assert!(above >= 40, "workload too thin to quantify recall: {above}");
    assert!(decisive >= 20, "no decisive pairs generated: {decisive}");
    let recall_above = above_found as f64 / above as f64;
    let recall_decisive = decisive_found as f64 / decisive as f64;
    println!(
        "lsh-ensemble recall: {recall_above:.3} over {above} pairs ≥ threshold, \
         {recall_decisive:.3} over {decisive} pairs ≥ threshold+{margin}"
    );
    assert!(
        recall_decisive >= 0.9,
        "decisively-above-threshold recall degraded: {recall_decisive:.3}"
    );
    assert!(
        recall_above >= 0.6,
        "above-threshold recall degraded: {recall_above:.3}"
    );
}

#[test]
fn exact_fallback_reproduces_brute_force_truth_exactly() {
    let lake = lake();
    let threshold = 0.5;
    let config = LshEnsembleConfig {
        threshold,
        exact_mass_per_token: usize::MAX, // every query takes the exact scan
        ..LshEnsembleConfig::default()
    };
    let engine = LshEnsembleDiscovery::build(&lake, config);

    for q in queries(&lake) {
        let truth: Vec<(String, f64)> = {
            let mut v: Vec<(String, f64)> = brute_containment(&lake, &q)
                .into_iter()
                .filter(|(_, s)| *s + 1e-12 >= threshold)
                .collect();
            v.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
            v
        };
        let hits: Vec<(String, f64)> = engine
            .discover(&TableQuery::with_column(q.clone(), 0), usize::MAX)
            .into_iter()
            .map(|d| (d.table, d.score))
            .collect();
        assert_eq!(
            hits,
            truth,
            "exact path must equal brute force for {}",
            q.name()
        );
    }
}

#[test]
fn small_queries_bypass_the_sketch_for_perfect_recall() {
    let lake = lake();
    let threshold = 0.5;
    // Default routing: a 3-token query's posting mass is far below the
    // line, so it is merged exactly.
    let engine = LshEnsembleDiscovery::build(
        &lake,
        LshEnsembleConfig {
            threshold,
            ..LshEnsembleConfig::default()
        },
    );
    let source = lake.tables().next().unwrap();
    let keys: Vec<_> = {
        let mut v: Vec<String> = source.column_token_set(0).into_iter().collect();
        v.sort();
        v.truncate(3);
        v
    };
    assert_eq!(keys.len(), 3);
    let q = Table::from_rows(
        "tiny_q",
        &["key"],
        keys.iter()
            .map(|k| vec![dialite_table::Value::Text(k.clone())])
            .collect(),
    )
    .unwrap();
    let truth = brute_containment(&lake, &q);
    let hits = engine.discover(&TableQuery::with_column(q, 0), usize::MAX);
    let found: HashMap<&str, f64> = hits.iter().map(|d| (d.table.as_str(), d.score)).collect();
    for (table, brute) in &truth {
        if *brute + 1e-12 >= threshold {
            assert!(
                found.contains_key(table.as_str()),
                "tiny query must have perfect recall; missing {table} ({brute})"
            );
        }
    }
    for (table, score) in &found {
        assert!((truth[*table] - score).abs() < 1e-12, "{table}: {score}");
    }
}

/// Typeless-heavy skewed lake: 1000 tables of pure token data with zero
/// KB coverage, so every SANTOS query takes the synthesized-signal path.
/// The bounded posting-index retrieval at the default candidate cap must
/// recall ≥ 90% of the exhaustive full scan's top-k — and every hit it
/// does report must carry the full scan's exact score (the bound reorders
/// retrieval, it never invents or perturbs scores).
#[test]
fn typeless_santos_recall_floor_at_default_cap() {
    let trace = TopKWorkload {
        tables: 1000,
        hub_tables: 8,
        hub_rows: 256,
        tail_rows: 12,
        vocab: 1000,
        queries: 8,
        query_rows: 128,
        seed: 67,
    }
    .generate();
    let lake = DataLake::from_tables(trace.tables).unwrap();
    let kb = Arc::new(KbBuilder::new().build());
    // Synthesized scores on a pure-token lake are jaccard-scaled, so the
    // demo default `min_score` (0.2) keeps only near-duplicates; lower it
    // so each query's full-scan top-k is actually k deep and recall is
    // measured over a real candidate band, not a single obvious hit.
    let engine = SantosDiscovery::build(
        &lake,
        kb,
        SantosConfig {
            min_score: 0.02,
            ..SantosConfig::default()
        },
    );
    let cap = DiscoveryBudget::default().santos_candidates;
    let k = 10usize;

    let mut oracle_total = 0usize;
    let mut found_total = 0usize;
    for q in trace.queries {
        let query = TableQuery::with_column(q, 0);
        // Exhaustive truth: the full scan, with its full score map for
        // the exactness check below.
        let (oracle, oracle_stats) = engine.discover_capped(&query, k, usize::MAX);
        assert!(
            oracle_stats.full_scan,
            "a KB-empty lake must take the typeless full-scan oracle path"
        );
        let truth: HashMap<String, f64> = engine
            .discover_capped(&query, usize::MAX, usize::MAX)
            .0
            .into_iter()
            .map(|d| (d.table, d.score))
            .collect();

        let (capped, stats) = engine.discover_capped(&query, k, cap);
        assert!(
            !stats.full_scan,
            "the default cap must route through the posting index"
        );
        for d in &capped {
            assert_eq!(
                truth.get(&d.table),
                Some(&d.score),
                "{} must carry its exact full-scan score",
                d.table
            );
        }

        let oracle_set: HashSet<&str> = oracle.iter().map(|d| d.table.as_str()).collect();
        oracle_total += oracle_set.len();
        found_total += capped
            .iter()
            .filter(|d| oracle_set.contains(d.table.as_str()))
            .count();
    }
    assert!(
        oracle_total >= 40,
        "workload too thin to quantify recall: {oracle_total}"
    );
    let recall = found_total as f64 / oracle_total as f64;
    println!(
        "typeless santos recall at cap {cap}: {recall:.3} over {oracle_total} \
         full-scan top-{k} pairs"
    );
    assert!(
        recall >= 0.9,
        "typeless recall at the default cap degraded: {recall:.3}"
    );
}
