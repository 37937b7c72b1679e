//! The discovery trait and result types.

use std::collections::HashSet;
use std::sync::Arc;

use dialite_table::Table;

/// A discovery query: the query table plus an optional *intent / query
/// column* (paper §3.1: "a user selects City as an intent column and query
/// column"). Engines that need a column (joinable search) fall back to the
/// first column when none is given.
#[derive(Debug, Clone)]
pub struct TableQuery {
    /// The query table `Q`.
    pub table: Arc<Table>,
    /// Index of the intent/query column, if the user marked one.
    pub column: Option<usize>,
}

impl TableQuery {
    /// Query over a whole table (no marked column).
    pub fn new(table: Table) -> TableQuery {
        TableQuery {
            table: Arc::new(table),
            column: None,
        }
    }

    /// Query with a marked intent/query column.
    pub fn with_column(table: Table, column: usize) -> TableQuery {
        assert!(
            column < table.column_count(),
            "query column {column} out of range"
        );
        TableQuery {
            table: Arc::new(table),
            column: Some(column),
        }
    }

    /// The effective query column (marked, or 0).
    pub(crate) fn effective_column(&self) -> usize {
        self.column.unwrap_or(0)
    }
}

/// One discovered table with its relevance score (engine-specific scale,
/// always "higher is better"; results come sorted descending).
#[derive(Debug, Clone, PartialEq)]
pub struct Discovered {
    /// Name of the table in the lake.
    pub table: String,
    /// Relevance score.
    pub score: f64,
}

/// A table-discovery algorithm over a fixed, pre-indexed data lake.
pub trait Discovery: Send + Sync {
    /// Short identifier used in reports (e.g. `"santos"`).
    fn name(&self) -> &str;

    /// The top-`k` most relevant lake tables for the query, sorted by
    /// descending score. May return fewer than `k`.
    fn discover(&self, query: &TableQuery, k: usize) -> Vec<Discovered>;
}

/// Total order for relevance scores: higher is better, and a NaN score
/// (e.g. from a `0.0 / 0.0` weight upstream) ranks *below every real
/// score* — it must never panic a discovery run (the old
/// `partial_cmp().unwrap()` did) nor silently outrank genuine results
/// (raw `total_cmp` would put `+NaN` first).
pub(crate) fn score_cmp(a: f64, b: f64) -> std::cmp::Ordering {
    let key = |s: f64| if s.is_nan() { f64::NEG_INFINITY } else { s };
    key(a).total_cmp(&key(b))
}

/// Sort candidates by descending score (NaN last; ties broken by name for
/// determinism) and truncate to `k`. Shared by all engines.
pub(crate) fn top_k(mut candidates: Vec<Discovered>, k: usize) -> Vec<Discovered> {
    candidates.sort_by(|a, b| score_cmp(b.score, a.score).then_with(|| a.table.cmp(&b.table)));
    candidates.truncate(k);
    candidates
}

/// Sort discovered candidates by descending score (NaN-safe, ties broken
/// by table name for determinism) and truncate to `k` — the shared
/// ranking every engine applies before returning. Public so downstream
/// layers merging several engines' results rank identically.
pub fn top_k_discovered(candidates: Vec<Discovered>, k: usize) -> Vec<Discovered> {
    top_k(candidates, k)
}

/// Fold discovery hits into a per-table best-score map without inventing
/// scores: a table's first hit stores its score verbatim (NaN included,
/// so degenerate engine output propagates instead of being replaced by a
/// fabricated `-inf`), and a later hit displaces it only when genuinely
/// better under the same NaN-last total order [`top_k_discovered`] ranks
/// with. Shared by every layer that unions several engines' results.
pub fn merge_best_scores(
    best: &mut std::collections::HashMap<String, f64>,
    hits: impl IntoIterator<Item = Discovered>,
) {
    use std::collections::hash_map::Entry;
    for d in hits {
        match best.entry(d.table) {
            Entry::Vacant(v) => {
                v.insert(d.score);
            }
            Entry::Occupied(mut o) => {
                if score_cmp(d.score, *o.get()) == std::cmp::Ordering::Greater {
                    o.insert(d.score);
                }
            }
        }
    }
}

/// Union the results of several discovery runs into one integration set
/// (table names, deduplicated, in first-seen score order) — the demo
/// persists "the set of tables found by all techniques".
pub fn union_integration_set(results: &[Vec<Discovered>]) -> Vec<String> {
    let mut seen: HashSet<&str> = HashSet::new();
    let mut out: Vec<String> = Vec::new();
    for run in results {
        for d in run {
            if seen.insert(d.table.as_str()) {
                out.push(d.table.clone());
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dialite_table::table;

    #[test]
    fn top_k_sorts_and_truncates_deterministically() {
        let c = vec![
            Discovered {
                table: "b".into(),
                score: 0.5,
            },
            Discovered {
                table: "a".into(),
                score: 0.5,
            },
            Discovered {
                table: "c".into(),
                score: 0.9,
            },
        ];
        let out = top_k(c, 2);
        assert_eq!(out[0].table, "c");
        assert_eq!(out[1].table, "a", "ties break by name");
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn top_k_with_nan_scores_does_not_panic_and_is_deterministic() {
        // Regression: a NaN score (0.0/0.0 weight upstream) used to panic
        // engines that sorted with partial_cmp().unwrap(); score_cmp makes
        // the sort well-defined, repeatable, and NaN-last.
        let mk = || {
            vec![
                Discovered {
                    table: "nan".into(),
                    score: f64::NAN,
                },
                Discovered {
                    table: "best".into(),
                    score: 0.9,
                },
                Discovered {
                    table: "neg-nan".into(),
                    score: -f64::NAN,
                },
                Discovered {
                    table: "low".into(),
                    score: 0.1,
                },
            ]
        };
        let out = top_k(mk(), 10);
        assert_eq!(out.len(), 4);
        let order: Vec<&str> = out.iter().map(|d| d.table.as_str()).collect();
        // NaNs of either sign rank below every real score (tied among
        // themselves, broken by name) — a degenerate candidate must never
        // evict a genuine result from the top slots.
        assert_eq!(order, vec!["best", "low", "nan", "neg-nan"]);
        assert_eq!(
            top_k(mk(), 1)[0].table,
            "best",
            "k=1 must keep the real match, not a NaN"
        );
        let rerun = top_k(mk(), 10);
        let again: Vec<&str> = rerun.iter().map(|d| d.table.as_str()).collect();
        assert_eq!(order, again);
    }

    #[test]
    fn merge_best_scores_propagates_nan_and_prefers_real_scores() {
        let hit = |s: f64| {
            vec![Discovered {
                table: "t".into(),
                score: s,
            }]
        };
        let mut best = std::collections::HashMap::new();
        merge_best_scores(&mut best, hit(f64::NAN));
        assert!(best["t"].is_nan(), "NaN must propagate, not become -inf");
        merge_best_scores(&mut best, hit(0.2));
        assert_eq!(best["t"], 0.2, "a real score beats NaN");
        merge_best_scores(&mut best, hit(f64::NAN));
        assert_eq!(best["t"], 0.2, "NaN must not displace a real score");
        merge_best_scores(&mut best, hit(0.9));
        assert_eq!(best["t"], 0.9, "higher real score wins");
        merge_best_scores(&mut best, hit(0.5));
        assert_eq!(best["t"], 0.9, "lower real score loses");
    }

    #[test]
    fn union_preserves_first_seen_order() {
        let r1 = vec![
            Discovered {
                table: "x".into(),
                score: 1.0,
            },
            Discovered {
                table: "y".into(),
                score: 0.5,
            },
        ];
        let r2 = vec![
            Discovered {
                table: "y".into(),
                score: 0.9,
            },
            Discovered {
                table: "z".into(),
                score: 0.8,
            },
        ];
        assert_eq!(union_integration_set(&[r1, r2]), vec!["x", "y", "z"]);
    }

    #[test]
    fn effective_column_defaults_to_zero() {
        let q = TableQuery::new(table! { "q"; ["a", "b"]; [1, 2] });
        assert_eq!(q.effective_column(), 0);
        let q = TableQuery::with_column(table! { "q"; ["a", "b"]; [1, 2] }, 1);
        assert_eq!(q.effective_column(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn query_column_out_of_range_panics() {
        let _ = TableQuery::with_column(table! { "q"; ["a"]; [1] }, 5);
    }

    mod budget_split {
        //! Edge cases of [`QueryBudget::split`] / [`DiscoveryBudget::split`]
        //! — the budget-slicing contract every sharded fan-out relies on:
        //! `split(1)` is the identity, unlimited (`usize::MAX`) caps stay
        //! unlimited through any split (the `postings` knob included), no
        //! finite cap is ever rounded down to starvation, and the fleet's
        //! total budget (`per_shard × shards`) always covers the original.

        use crate::topk::{DiscoveryBudget, QueryBudget};
        use proptest::prelude::*;

        /// Finite caps plus the two interesting extremes.
        fn cap() -> impl Strategy<Value = usize> {
            prop_oneof![
                Just(0usize),
                Just(usize::MAX),
                1usize..10_000,
                Just(usize::MAX - 1),
            ]
        }

        fn query_budget() -> impl Strategy<Value = QueryBudget> {
            (cap(), cap(), cap()).prop_map(|(p, v, postings)| QueryBudget {
                max_partitions: p,
                max_verifications: v,
                postings,
            })
        }

        fn check_cap(orig: usize, shard: usize, shards: usize) {
            if orig == usize::MAX {
                assert_eq!(shard, usize::MAX, "unlimited must survive split");
            } else {
                assert_eq!(shard, orig.div_ceil(shards.max(1)));
                // Round-up: the fleet never gets less than the original
                // budget in total, and a nonzero cap never starves a shard.
                assert!(shard.checked_mul(shards.max(1)).is_none_or(|t| t >= orig));
                assert!(orig == 0 || shard >= 1);
            }
        }

        proptest! {
            #[test]
            fn query_split_is_sound_for_any_shard_count(
                budget in query_budget(),
                shards in 0usize..64,
            ) {
                let per_shard = budget.split(shards);
                check_cap(budget.max_partitions, per_shard.max_partitions, shards);
                check_cap(budget.max_verifications, per_shard.max_verifications, shards);
                check_cap(budget.postings, per_shard.postings, shards);
            }

            /// `split(1)` (and the degenerate `split(0)`) must be the exact
            /// identity — the `shards == 1` byte-for-byte oracle depends on
            /// the budget reaching the lone shard untouched.
            #[test]
            fn split_one_is_the_identity(
                budget in query_budget(),
                cap in cap(),
                meta_cap in cap(),
            ) {
                prop_assert_eq!(budget.split(1), budget);
                prop_assert_eq!(budget.split(0), budget);
                let stage = DiscoveryBudget {
                    metadata_candidates: meta_cap,
                    ..DiscoveryBudget::default()
                }
                .with_joinable(budget)
                .with_santos_candidates(cap);
                prop_assert_eq!(stage.split(1), stage);
            }

            /// A split count larger than any finite cap degrades to
            /// one-unit shard slices, never to zero-starved shards.
            /// (Caps stay small here so `max cap + extra` shards cannot
            /// overflow; `usize::MAX - 1` belongs to the soundness test.)
            #[test]
            fn oversplit_leaves_every_finite_cap_at_least_one(
                budget in (
                    prop_oneof![Just(0usize), Just(usize::MAX), 1usize..10_000],
                    prop_oneof![Just(0usize), Just(usize::MAX), 1usize..10_000],
                    prop_oneof![Just(0usize), Just(usize::MAX), 1usize..10_000],
                )
                    .prop_map(|(p, v, postings)| QueryBudget {
                        max_partitions: p,
                        max_verifications: v,
                        postings,
                    }),
                extra in 1usize..1_000,
            ) {
                let finite: Vec<usize> = [
                    budget.max_partitions,
                    budget.max_verifications,
                    budget.postings,
                ]
                .into_iter()
                .filter(|&c| c != usize::MAX && c > 0)
                .collect();
                let shards = finite.iter().max().copied().unwrap_or(1) + extra;
                let per_shard = budget.split(shards);
                for (orig, shard) in [
                    (budget.max_partitions, per_shard.max_partitions),
                    (budget.max_verifications, per_shard.max_verifications),
                    (budget.postings, per_shard.postings),
                ] {
                    match orig {
                        usize::MAX => prop_assert_eq!(shard, usize::MAX),
                        0 => prop_assert_eq!(shard, 0, "zero budget stays zero"),
                        _ => prop_assert_eq!(shard, 1, "oversplit floors at 1"),
                    }
                }
            }

            /// The stage budget splits every leg with the same rule, and
            /// `unlimited()` is a fixed point of any split.
            #[test]
            fn stage_split_covers_every_leg(
                joinable in query_budget(),
                santos in cap(),
                metadata in cap(),
                shards in 1usize..64,
            ) {
                let stage = DiscoveryBudget {
                    metadata_candidates: metadata,
                    ..DiscoveryBudget::unlimited()
                }
                .with_joinable(joinable)
                .with_santos_candidates(santos);
                let per_shard = stage.split(shards);
                prop_assert_eq!(per_shard.joinable, joinable.split(shards));
                check_cap(santos, per_shard.santos_candidates, shards);
                check_cap(metadata, per_shard.metadata_candidates, shards);
                prop_assert_eq!(
                    DiscoveryBudget::unlimited().split(shards),
                    DiscoveryBudget::unlimited()
                );
            }
        }
    }
}
