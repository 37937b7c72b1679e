//! JOSIE-style cost-based scheduling of the exact posting-list path.
//!
//! The pre-cost exact path ([`LshEnsembleDiscovery::exact_best_per_table`])
//! merges **every** posting list of the query's tokens, so its cost is the
//! summed length of all those lists — on skewed lakes a handful of hub
//! tokens (present in almost every table) dominate that sum even though
//! they contribute almost nothing to the top-k. [`exact_search`] turns the
//! merge into a planned search over the same postings:
//!
//! 1. **Cheapest-list-first merge.** Posting lists are processed in
//!    ascending length order (ties broken by token id, so the schedule is
//!    deterministic). After `i` of `L` lists, a domain the merge has not
//!    seen can overlap the query in at most the `L - i` remaining lists —
//!    one token each — so its containment is at most `(L - i) / |Q|`. The
//!    merge stops as soon as that residual bound falls below the engine
//!    threshold: every domain that can still qualify has already surfaced,
//!    and the longest (most expensive, least informative) lists are never
//!    scanned at all.
//! 2. **Best-bound-first verification.** Candidates the truncated merge
//!    did see carry only partial overlaps, so each is finished by exact
//!    verification against its stored token-id set, in descending order of
//!    its upper bound `min(partial + L - i, |domain|) / |Q|` — capped by
//!    the domain's own size, so a small domain that provably cannot reach
//!    the threshold is dropped without verification at all. Verification
//!    stops when the k-th best verified table score strictly beats the
//!    best remaining bound — strictly, so score ties are still verified
//!    and name tie-breaking matches the exhaustive merge byte-for-byte.
//! 3. **Postings budget.** [`QueryBudget::postings`](crate::QueryBudget)
//!    caps the posting entries the merge may scan. A budget stop skips the
//!    unscanned lists and reports `budget_exhausted`; whatever was seen is
//!    still verified exactly, so budgeted output is a sound subset of the
//!    exhaustive answer at identical scores.
//!
//! With an unlimited budget the output equals the full posting merge
//! exactly (same tables, scores and tie-breaks after top-k truncation) —
//! pinned against [`LshEnsembleDiscovery::exact_best_per_table`] by
//! `tests/cost_oracle.rs`. That equality is what lets the exact path scale
//! past `exact_fallback_below`: raising the fallback makes mid-size
//! queries exact (perfect recall) at a fraction of the naive merge cost,
//! replacing the sketch where the cost model wins.

use std::collections::HashMap;

use crate::lshe::LshEnsembleDiscovery;
use crate::pool::intersect_count;
use crate::retrieval::DomainKey;

/// What one cost-bounded exact search actually did — folded into
/// [`TopKStats`](crate::TopKStats) by the planner's exact path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct ExactSearchStats {
    /// Domains whose containment was resolved exactly — by a complete
    /// merge, or by per-candidate verification after a truncated one.
    pub(crate) verified: usize,
    /// Posting entries never scanned: the summed length of the lists the
    /// threshold bound or the postings budget proved unnecessary.
    pub(crate) postings_skipped: usize,
    /// The postings budget cut the merge short (results are a sound
    /// subset of the exhaustive answer).
    pub(crate) budget_exhausted: bool,
}

/// The k-th best verified table score, once at least `k` tables scored.
/// Shared by the partition planner and the cost-bounded exact search —
/// both prune on "the k-th verified score strictly beats the bound".
/// `None` at `k == 0`: there is no k-th score to prune against.
pub(crate) fn kth_best(best: &HashMap<&str, f64>, k: usize) -> Option<f64> {
    let i = k.checked_sub(1)?;
    if best.len() < k {
        return None;
    }
    let mut scores: Vec<f64> = best.values().copied().collect();
    scores.sort_by(|a, b| b.total_cmp(a));
    scores.get(i).copied()
}

/// Cost-bounded exact top-k over the engine's posting lists (module docs
/// have the full schedule). Requires a positive threshold — the residual
/// bound cannot see zero-overlap domains, which a non-positive threshold
/// would admit; [`LshEnsembleDiscovery::exact_discover`] routes that
/// degenerate case to the full-domain scan instead.
pub(crate) fn exact_search<'a>(
    engine: &'a LshEnsembleDiscovery,
    q_ids: &[u32],
    q_len: usize,
    exclude_table: &str,
    k: usize,
    max_postings: usize,
) -> (HashMap<&'a str, f64>, ExactSearchStats) {
    debug_assert!(
        engine.config.threshold > 0.0,
        "cost model needs postings to see every candidate"
    );
    let mut stats = ExactSearchStats::default();
    let mut best: HashMap<&str, f64> = HashMap::new();

    // Cheapest-first schedule; (length, token id) keys make it total.
    let mut lists: Vec<(u32, &[DomainKey])> = q_ids
        .iter()
        .filter_map(|&id| engine.tokens.posting(id).map(|list| (id, list)))
        .collect();
    lists.sort_unstable_by_key(|(id, list)| (list.len(), *id));
    let total_lists = lists.len();

    let mut overlap: HashMap<DomainKey, usize> = HashMap::new();
    let mut scanned = 0usize;
    let mut processed = 0usize;
    for (_, list) in &lists {
        // Threshold bound: a domain unseen so far overlaps at most the
        // remaining lists, one token each — below threshold, it can never
        // verify, so the remaining (longest) lists need not be scanned.
        let residual = (total_lists - processed) as f64 / q_len as f64;
        if residual + 1e-12 < engine.config.threshold {
            break;
        }
        if scanned + list.len() > max_postings {
            stats.budget_exhausted = true;
            break;
        }
        for key in *list {
            *overlap.entry(*key).or_insert(0) += 1;
        }
        scanned += list.len();
        processed += 1;
    }
    stats.postings_skipped = lists[processed..].iter().map(|(_, list)| list.len()).sum();

    let remaining = total_lists - processed;
    if remaining == 0 {
        // Complete merge: every overlap is exact, so this is the full
        // posting merge verbatim.
        stats.verified = overlap.len();
        for (key, hits) in overlap {
            engine.fold_best(key, hits as f64 / q_len as f64, exclude_table, &mut best);
        }
        return (best, stats);
    }

    // Truncated merge: finish the seen candidates by exact verification,
    // best upper bound first. Each candidate's upper bound is capped by
    // its own domain size — the unscanned lists can add at most one token
    // each, but never lift the overlap past `|domain|` — so a small
    // domain provably below threshold is dropped *unverified*: the same
    // filter the exhaustive merge applies only after paying to scan it.
    // Domain keys break bound ties, keeping the verified prefix
    // deterministic.
    let mut ranked: Vec<(DomainKey, f64)> = overlap
        .into_iter()
        .filter_map(|(key, partial)| {
            let dom_len = engine.tokens.run(key).map_or(partial, <[u32]>::len);
            let bound = (partial + remaining).min(dom_len) as f64 / q_len as f64;
            (bound + 1e-12 >= engine.config.threshold).then_some((key, bound))
        })
        .collect();
    ranked.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    for (key, bound) in ranked {
        // Optimality: strictly `>` so bound ties with the k-th verified
        // score are still verified and tie-breaks stay exhaustive-exact.
        if let Some(kth) = kth_best(&best, k) {
            if kth > bound {
                break;
            }
        }
        let Some(domain) = engine.tokens.run(key) else {
            continue;
        };
        stats.verified += 1;
        let hits = intersect_count(q_ids, domain);
        engine.fold_best(key, hits as f64 / q_len as f64, exclude_table, &mut best);
    }
    (best, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lshe::LshEnsembleConfig;
    use crate::types::{Discovery, TableQuery};
    use dialite_table::{DataLake, Table, Value};

    /// A skewed lake with hub tokens shared by every table: the shape
    /// where cheapest-first scheduling skips the dominant lists.
    fn hub_lake(tables: usize) -> DataLake {
        let mut lake = DataLake::new();
        for t in 0..tables {
            let mut rows: Vec<Vec<Value>> = (0..4)
                .map(|h| vec![Value::Text(format!("hub{h}"))])
                .collect();
            for i in 0..8 {
                rows.push(vec![Value::Text(format!("t{t}_v{i}"))]);
            }
            lake.add(Table::from_rows(&format!("t{t}"), &["k"], rows).unwrap())
                .unwrap();
        }
        lake
    }

    fn query_over(lake: &DataLake, source: &str, tokens: usize) -> TableQuery {
        let table = lake.get(source).unwrap();
        let mut toks: Vec<String> = table.column_token_set(0).into_iter().collect();
        toks.sort();
        toks.truncate(tokens);
        let rows: Vec<Vec<Value>> = toks.into_iter().map(|t| vec![Value::Text(t)]).collect();
        TableQuery::with_column(Table::from_rows("q", &["k"], rows).unwrap(), 0)
    }

    fn exact_args(engine: &LshEnsembleDiscovery, q: &TableQuery) -> (Vec<u32>, usize, String) {
        let toks = q.table.column_token_set(0);
        (
            engine.query_token_ids(&toks),
            toks.len(),
            q.table.name().to_string(),
        )
    }

    #[test]
    fn unlimited_search_equals_the_full_posting_merge() {
        let lake = hub_lake(12);
        let engine = LshEnsembleDiscovery::build(&lake, LshEnsembleConfig::default());
        let q = query_over(&lake, "t3", 10);
        let (ids, q_len, name) = exact_args(&engine, &q);
        let (oracle, _) = engine.exact_best_per_table(&ids, q_len, &name);
        for k in [1, 3, usize::MAX] {
            let (got, stats) = exact_search(&engine, &ids, q_len, &name, k, usize::MAX);
            // The k-bound may trim sub-top-k tables from the map, but
            // every reported score is the oracle's, and at k=MAX the maps
            // are identical.
            for (table, score) in &got {
                assert_eq!(oracle.get(table), Some(score), "k={k}");
            }
            if k == usize::MAX {
                assert_eq!(got, oracle);
            }
            assert!(!stats.budget_exhausted);
        }
    }

    #[test]
    fn threshold_stop_skips_the_longest_lists() {
        let lake = hub_lake(12);
        let engine = LshEnsembleDiscovery::build(&lake, LshEnsembleConfig::default());
        // 4 hub tokens (12-entry lists) + 6 private tokens (1-entry lists):
        // with threshold 0.5 the residual bound kills the merge before the
        // hub lists are touched.
        let q = query_over(&lake, "t3", 10);
        let (ids, q_len, name) = exact_args(&engine, &q);
        let (_, stats) = exact_search(&engine, &ids, q_len, &name, usize::MAX, usize::MAX);
        assert!(
            stats.postings_skipped >= 12,
            "hub lists must be skipped: {stats:?}"
        );
    }

    #[test]
    fn postings_budget_yields_a_sound_subset_and_reports_exhaustion() {
        let lake = hub_lake(12);
        let engine = LshEnsembleDiscovery::build(&lake, LshEnsembleConfig::default());
        let q = query_over(&lake, "t3", 10);
        let (ids, q_len, name) = exact_args(&engine, &q);
        let (oracle, _) = engine.exact_best_per_table(&ids, q_len, &name);
        let (got, stats) = exact_search(&engine, &ids, q_len, &name, usize::MAX, 2);
        assert!(stats.budget_exhausted, "{stats:?}");
        for (table, score) in &got {
            assert_eq!(oracle.get(table), Some(score), "budgeted scores stay exact");
        }
        // Zero budget: empty but sound, never a panic.
        let (got, stats) = exact_search(&engine, &ids, q_len, &name, 5, 0);
        assert!(got.is_empty());
        assert!(stats.budget_exhausted);
        assert_eq!(stats.verified, 0);
    }

    #[test]
    fn zero_k_is_an_empty_answer_not_an_underflow() {
        // The threshold stop truncates this merge, so verification asks
        // for the k-th best score: at k = 0 there is none to ask for.
        let lake = hub_lake(12);
        let engine = LshEnsembleDiscovery::build(&lake, LshEnsembleConfig::default());
        let q = query_over(&lake, "t3", 10);
        assert!(engine.discover(&q, 0).is_empty());
        let (ids, q_len, name) = exact_args(&engine, &q);
        let (got, stats) = exact_search(&engine, &ids, q_len, &name, 0, usize::MAX);
        assert!(
            stats.postings_skipped > 0,
            "the merge must truncate: {stats:?}"
        );
        let (oracle, _) = engine.exact_best_per_table(&ids, q_len, &name);
        for (table, score) in &got {
            assert_eq!(oracle.get(table), Some(score));
        }
    }

    #[test]
    fn no_postings_is_an_empty_exact_answer() {
        let lake = hub_lake(3);
        let engine = LshEnsembleDiscovery::build(&lake, LshEnsembleConfig::default());
        let (got, stats) = exact_search(&engine, &[], 5, "q", 3, usize::MAX);
        assert!(got.is_empty());
        assert_eq!(stats, ExactSearchStats::default());
    }
}
