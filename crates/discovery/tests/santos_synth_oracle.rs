//! SANTOS synthesized-signal oracle: on a lake the KB cannot type, a
//! single-column query scores every table through the synthesized signal
//! alone, so each score must be exactly
//! `synth_weight × max_c jaccard(Q, C_c)` — written here from the
//! definition over the tables' string token sets with
//! [`dialite_text::jaccard`], independent of the engine's id runs.
//!
//! Pinned, bit for bit (`f64::to_bits`), at `cap == usize::MAX` (the
//! exhaustive full scan) and at a finite cap covering the lake (the
//! token-posting, best-bound-first path): the full ranked answer equals
//! the naive scan, for query columns carrying tokens the lake never saw,
//! on a fresh build and after churn that retires a 5 000-token table —
//! far more dead weight than live, so the engine's token pool compacts
//! and every stored run is remapped.

use std::sync::Arc;

use dialite_discovery::{Discovered, SantosConfig, SantosDiscovery, TableQuery};
use dialite_kb::curated::covid_kb;
use dialite_table::{DataLake, Table, Value};
use dialite_text::jaccard;
use proptest::prelude::*;

/// Low enough that weak overlaps are reported too, so more scores are
/// pinned than the default filter would show.
fn config() -> SantosConfig {
    SantosConfig {
        min_score: 0.05,
        ..SantosConfig::default()
    }
}

/// A table whose columns hold the given tokens, one per row; shorter
/// columns are padded with nulls, which carry no token.
fn table(name: &str, columns: &[Vec<String>]) -> Table {
    let rows = columns.iter().map(Vec::len).max().unwrap_or(0);
    let headers: Vec<String> = (0..columns.len()).map(|c| format!("c{c}")).collect();
    let headers: Vec<&str> = headers.iter().map(String::as_str).collect();
    let rows: Vec<Vec<Value>> = (0..rows)
        .map(|r| {
            columns
                .iter()
                .map(|col| {
                    col.get(r)
                        .map_or(Value::null_missing(), |t| Value::Text(t.clone()))
                })
                .collect()
        })
        .collect();
    Table::from_rows(name, &headers, rows).unwrap()
}

/// The naive scan: every lake table at `synth_weight × max_c jaccard`,
/// filtered and ranked as the engine reports (score desc, name asc).
fn naive(lake: &DataLake, query: &TableQuery, k: usize, config: &SantosConfig) -> Vec<Discovered> {
    let q = query.table.column_token_set(0);
    let mut hits: Vec<Discovered> = lake
        .tables()
        .filter(|t| t.name() != query.table.name() && t.column_count() > 0)
        .filter_map(|t| {
            let best = (0..t.column_count())
                .map(|c| jaccard(&q, &t.column_token_set(c)))
                .fold(0.0, f64::max);
            let score = config.synth_weight * best;
            (score >= config.min_score && score > 0.0).then(|| Discovered {
                table: t.name().to_string(),
                score,
            })
        })
        .collect();
    hits.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.table.cmp(&b.table)));
    hits.truncate(k);
    hits
}

fn bits(hits: &[Discovered]) -> Vec<(String, u64)> {
    hits.iter()
        .map(|d| (d.table.clone(), d.score.to_bits()))
        .collect()
}

/// Both retrieval paths against the naive scan, for every query.
fn check(lake: &DataLake, engine: &SantosDiscovery, queries: &[TableQuery]) {
    let config = config();
    for query in queries {
        for k in [3, usize::MAX] {
            let truth = bits(&naive(lake, query, k, &config));
            for cap in [usize::MAX, lake.len()] {
                let (hits, stats) = engine.discover_capped(query, k, cap);
                assert_eq!(stats.full_scan, cap == usize::MAX, "query must be typeless");
                assert!(!stats.cap_hit, "{stats:?}");
                assert_eq!(bits(&hits), truth, "cap {cap} k {k}");
            }
        }
    }
}

/// A column of tokens `v{n}` drawn from a small vocabulary, so columns
/// overlap often and partially.
fn column() -> impl Strategy<Value = Vec<String>> {
    prop::collection::hash_set(0u8..24, 0..10)
        .prop_map(|ns| ns.into_iter().map(|n| format!("v{n}")).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn synthesized_scores_equal_the_jaccard_definition_across_compaction(
        tables in prop::collection::vec(prop::collection::vec(column(), 1..4), 4..16),
        query_cols in prop::collection::vec(column(), 1..6),
        unseen in 0usize..3,
        churned in 0usize..4,
    ) {
        let mut lake = DataLake::new();
        for (i, columns) in tables.iter().enumerate() {
            lake.add_table(table(&format!("t{i:02}"), columns)).unwrap();
        }
        let queries: Vec<TableQuery> = query_cols
            .iter()
            .enumerate()
            .map(|(i, col)| {
                let mut col = col.clone();
                col.extend((0..unseen).map(|u| format!("never_seen_{u}")));
                TableQuery::with_column(table(&format!("q{i}"), &[col]), 0)
            })
            .collect();
        let kb = Arc::new(covid_kb());
        let mut engine = SantosDiscovery::build(&lake, kb.clone(), config());
        check(&lake, &engine, &queries);

        // Churn: a big table in and out compacts the pool; a few tables
        // are replaced by fresh content and one is dropped.
        let big: Vec<String> = (0..5000).map(|i| format!("dead{i}")).collect();
        let big = table("big", &[big]);
        let slot = lake.add_table(big.clone()).unwrap();
        engine.upsert_table(slot, &big);
        lake.remove_table("big").unwrap();
        engine.remove_table(slot);
        for (i, columns) in tables.iter().enumerate().take(churned) {
            let name = format!("t{i:02}");
            let mut columns = columns.clone();
            columns.reverse();
            columns[0].push(format!("fresh{i}"));
            let replaced = table(&name, &columns);
            let slot = lake.replace_table(replaced.clone());
            engine.upsert_table(slot, &replaced);
        }
        let (slot, _) = lake.remove_table("t03").unwrap();
        engine.remove_table(slot);
        check(&lake, &engine, &queries);

        let rebuilt = SantosDiscovery::build(&lake, kb, config());
        check(&lake, &rebuilt, &queries);
    }
}

/// Typeless multi-column queries: the covering cap, which scores from the
/// posting walk's per-domain overlap counts, against the exhaustive full
/// scan, which merges runs, bit for bit.
fn covering_cap_equals_full_scan(
    lake: &DataLake,
    engine: &SantosDiscovery,
    queries: &[TableQuery],
) {
    for query in queries {
        for k in [1, 3, usize::MAX] {
            let (full, stats) = engine.discover_capped(query, k, usize::MAX);
            assert!(stats.full_scan, "query must be typeless");
            let (capped, stats) = engine.discover_capped(query, k, lake.len());
            assert!(!stats.full_scan && !stats.cap_hit, "{stats:?}");
            assert_eq!(bits(&capped), bits(&full), "k {k}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// 2–4-column typeless queries, one column emptied to nulls when
    /// `token_free` points at it and another holding a token the lake never
    /// saw, at every intent column, over tables with
    /// an all-null column spliced in at `nulls`: a finite cap covering the
    /// lake equals `cap == usize::MAX` on a fresh build and after churn
    /// that compacts the pool and replaces and drops tables.
    #[test]
    fn multi_column_covering_cap_equals_the_full_scan_across_compaction(
        tables in prop::collection::vec((prop::collection::vec(column(), 1..4), 0usize..5), 4..16),
        query_cols in prop::collection::vec(column(), 2..5),
        token_free in 0usize..6,
        churned in 0usize..4,
    ) {
        let tables: Vec<Vec<Vec<String>>> = tables
            .into_iter()
            .map(|(mut columns, nulls)| {
                if nulls <= columns.len() {
                    columns.insert(nulls, Vec::new());
                }
                columns
            })
            .collect();
        let mut lake = DataLake::new();
        for (i, columns) in tables.iter().enumerate() {
            lake.add_table(table(&format!("t{i:02}"), columns)).unwrap();
        }
        let mut query_cols = query_cols;
        if let Some(col) = query_cols.get_mut(token_free) {
            col.clear();
        }
        query_cols[usize::from(token_free == 0)].push("never_seen".to_string());
        let queries: Vec<TableQuery> = (0..query_cols.len())
            .map(|intent| TableQuery::with_column(table("q", &query_cols), intent))
            .collect();
        let kb = Arc::new(covid_kb());
        let mut engine = SantosDiscovery::build(&lake, kb.clone(), config());
        covering_cap_equals_full_scan(&lake, &engine, &queries);

        let big: Vec<String> = (0..5000).map(|i| format!("dead{i}")).collect();
        let big = table("big", &[big]);
        let slot = lake.add_table(big.clone()).unwrap();
        engine.upsert_table(slot, &big);
        lake.remove_table("big").unwrap();
        engine.remove_table(slot);
        for (i, columns) in tables.iter().enumerate().take(churned) {
            let mut columns = columns.clone();
            columns.reverse();
            columns[0].push(format!("fresh{i}"));
            let replaced = table(&format!("t{i:02}"), &columns);
            let slot = lake.replace_table(replaced.clone());
            engine.upsert_table(slot, &replaced);
        }
        let (slot, _) = lake.remove_table("t03").unwrap();
        engine.remove_table(slot);
        covering_cap_equals_full_scan(&lake, &engine, &queries);
    }
}
