//! Output checks. Every failed check counts as a failed operation.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use dialite_core::{demo, Pipeline, PipelineRun};
use dialite_discovery::{Discovered, DiscoveryBudget, TableQuery};
use dialite_table::{DataLake, Table};

use crate::common::Tally;
use crate::inputs::{Fnv64, PoolQuery};

/// Per-engine hit lists, the shape every discovery entry point returns.
pub type Legs = Vec<(String, Vec<Discovered>)>;

/// The paper's Fig. 2 query must integrate to exactly Fig. 3 before any
/// number is worth reading.
pub fn fixture_gate() -> Result<(), String> {
    let lake = demo::covid_lake();
    let pipeline = Pipeline::demo_default(&lake);
    let query = TableQuery::with_column(demo::fig2_query(), 1);
    let run = pipeline
        .run(&lake, &query)
        .map_err(|e| format!("fixture gate: Fig. 2 pipeline failed: {e}"))?;
    let (out, expected) = (run.integrated.table(), demo::fig3_expected());
    if out.same_content(&expected) {
        Ok(())
    } else {
        Err(format!(
            "fixture gate: Fig. 2 did not integrate to Fig. 3\ngot:\n{out}\nexpected:\n{expected}"
        ))
    }
}

fn hash_table(t: &Table, h: &mut Fnv64) {
    for name in t.schema().names() {
        name.hash(h);
    }
    for row in t.rows() {
        row.hash(h);
    }
}

/// Hash of everything a pipeline run returns that a user reads: the
/// discovery answer, the integration set, the integrated table and the
/// alternatives. Takes the parts so a run recomposed from its stages can
/// be compared with `Pipeline::run`'s own.
pub fn hash_parts(
    discovered: &Legs,
    integration_set: &[Arc<Table>],
    integrated: &Table,
    alternatives: &[(&str, &Table)],
) -> u64 {
    let mut h = Fnv64::default();
    hash_legs_into(discovered, &mut h);
    for t in integration_set {
        t.name().hash(&mut h);
    }
    hash_table(integrated, &mut h);
    for (name, alt) in alternatives {
        name.hash(&mut h);
        hash_table(alt, &mut h);
    }
    h.finish()
}

pub fn hash_run(run: &PipelineRun) -> u64 {
    let alternatives: Vec<(&str, &Table)> = run
        .alternatives
        .iter()
        .map(|(name, alt)| (name.as_str(), alt.table()))
        .collect();
    hash_parts(
        &run.discovered,
        &run.integration_set,
        run.integrated.table(),
        &alternatives,
    )
}

fn hash_legs_into(legs: &Legs, h: &mut Fnv64) {
    for (engine, hits) in legs {
        engine.hash(h);
        for d in hits {
            d.table.hash(h);
            d.score.to_bits().hash(h);
        }
    }
}

/// Hash of a discovery answer: engines, tables, order and exact scores.
pub fn hash_legs(legs: &Legs) -> u64 {
    let mut h = Fnv64::default();
    hash_legs_into(legs, &mut h);
    h.finish()
}

/// `true` when `table` appears in the hit list of engine `engine`.
pub fn leg_contains(legs: &Legs, engine: &str, table: &str) -> bool {
    legs.iter()
        .any(|(name, hits)| name == engine && hits.iter().any(|d| d.table == table))
}

/// The joinable leg's engine name.
pub const JOINABLE: &str = "lsh-ensemble";

/// Two answers to one query from indexes over the *same lake state* but
/// with different histories (served incrementally, replayed, recovered
/// from snapshot + log). SANTOS and metadata answers are pure functions of
/// the lake and must be identical. The joinable leg's sketch path is not:
/// which candidates an LSH ensemble surfaces depends on how its partitions
/// came to be (a recovered index lost a containment-1.0 hit the
/// incrementally built one found, `ingest-restart` seed 3), so there the
/// check is what the engine does promise — a table both answers name
/// carries the same exactly verified score.
pub fn same_answer(a: &Legs, b: &Legs) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|((engine_a, hits_a), (engine_b, hits_b))| {
                if engine_a != engine_b {
                    false
                } else if engine_a == JOINABLE {
                    hits_a.iter().all(|x| {
                        hits_b
                            .iter()
                            .all(|y| x.table != y.table || x.score.to_bits() == y.score.to_bits())
                    })
                } else {
                    hits_a == hits_b
                }
            })
}

/// Recall and soundness of a default-budget answer against the
/// unlimited-budget answer to the same query.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct BudgetCheck {
    /// Σ over legs of |default ∩ unlimited|.
    pub found: usize,
    /// Σ over legs of |unlimited|.
    pub wanted: usize,
    /// Every default hit also in the unlimited list carries the same
    /// score, and rank by rank the default list never beats the unlimited
    /// one — a finite budget may lose hits but not invent or inflate them.
    pub sound: bool,
}

pub fn budget_check(default: &Legs, unlimited: &Legs) -> BudgetCheck {
    let mut out = BudgetCheck {
        sound: default.len() == unlimited.len(),
        ..BudgetCheck::default()
    };
    for ((d_engine, d_hits), (u_engine, u_hits)) in default.iter().zip(unlimited) {
        let best: HashMap<&str, f64> = u_hits.iter().map(|d| (d.table.as_str(), d.score)).collect();
        out.wanted += u_hits.len();
        out.sound &= d_engine == u_engine && d_hits.len() <= u_hits.len();
        for (rank, d) in d_hits.iter().enumerate() {
            match best.get(d.table.as_str()) {
                Some(score) => {
                    out.found += 1;
                    out.sound &= score.to_bits() == d.score.to_bits();
                }
                None => out.sound &= u_hits.get(rank).is_some_and(|u| d.score <= u.score),
            }
        }
    }
    out
}

/// Count one soundness check per pool query and return recall@k over the
/// pool; `1.0` when the unlimited budget found nothing anywhere (nothing
/// to lose).
pub fn tally_budget_checks(checks: &[BudgetCheck], tally: &mut Tally) -> f64 {
    for c in checks {
        tally.record("budget soundness", c.sound);
    }
    let wanted: usize = checks.iter().map(|c| c.wanted).sum();
    let found: usize = checks.iter().map(|c| c.found).sum();
    if wanted == 0 {
        1.0
    } else {
        found as f64 / wanted as f64
    }
}

/// Answer every pool query under the pipeline's default budget and again
/// under an unlimited one; tally soundness, return recall@k.
pub fn pipeline_budget_checks(
    pipeline: &mut Pipeline,
    lake: &DataLake,
    pool: &[PoolQuery],
    tally: &mut Tally,
) -> f64 {
    let default: Vec<Legs> = pool
        .iter()
        .map(|p| pipeline.discover_stage(lake, &p.query))
        .collect();
    pipeline.set_discovery_budget(DiscoveryBudget::unlimited());
    let checks: Vec<BudgetCheck> = pool
        .iter()
        .zip(&default)
        .map(|(p, d)| budget_check(d, &pipeline.discover_stage(lake, &p.query)))
        .collect();
    pipeline.set_discovery_budget(DiscoveryBudget::default());
    tally_budget_checks(&checks, tally)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn legs(hits: &[(&str, f64)]) -> Legs {
        vec![(
            "lsh-ensemble".to_string(),
            hits.iter()
                .map(|(t, s)| Discovered {
                    table: t.to_string(),
                    score: *s,
                })
                .collect(),
        )]
    }

    #[test]
    fn fixture_gate_passes_on_the_seed_pipeline() {
        fixture_gate().unwrap();
    }

    #[test]
    fn budget_check_counts_recall_and_flags_unsound_answers() {
        let unlimited = legs(&[("a", 0.9), ("b", 0.8), ("c", 0.7)]);
        let same = budget_check(&unlimited, &unlimited);
        assert_eq!((same.found, same.wanted, same.sound), (3, 3, true));

        // A lost hit replaced by a lower-ranked table: sound, recall 2/3.
        let lossy = budget_check(&legs(&[("a", 0.9), ("c", 0.7), ("d", 0.5)]), &unlimited);
        assert_eq!((lossy.found, lossy.wanted, lossy.sound), (2, 3, true));
        let mut tally = Tally::default();
        let recall = tally_budget_checks(&[same, lossy], &mut tally);
        assert!((recall - 5.0 / 6.0).abs() < 1e-12);
        assert_eq!((tally.attempted, tally.failed), (2, 0));

        // An inflated score, an invented better hit, an extra hit.
        assert!(!budget_check(&legs(&[("a", 0.95)]), &unlimited).sound);
        assert!(!budget_check(&legs(&[("z", 0.99)]), &unlimited).sound);
        assert!(!budget_check(&unlimited, &legs(&[("a", 0.9)])).sound);
        assert_eq!(tally_budget_checks(&[], &mut tally), 1.0);
        let unsound = budget_check(&legs(&[("a", 0.95)]), &unlimited);
        tally_budget_checks(&[unsound], &mut tally);
        assert_eq!(tally.failures.get("budget soundness"), Some(&1));
    }

    #[test]
    fn answers_from_different_histories_may_differ_only_in_joinable_membership() {
        let answer = |joinable: &[(&str, f64)], santos: &[(&str, f64)]| -> Legs {
            let mut legs = legs(santos);
            legs[0].0 = "santos".to_string();
            legs.extend(super::tests::legs(joinable));
            legs
        };
        let base = answer(&[("a", 1.0), ("b", 0.5)], &[("s", 0.9)]);
        assert!(same_answer(&base, &base));
        assert!(
            same_answer(&base, &answer(&[("b", 0.5)], &[("s", 0.9)])),
            "lost hit"
        );
        assert!(
            !same_answer(&base, &answer(&[("a", 0.9)], &[("s", 0.9)])),
            "score moved"
        );
        assert!(!same_answer(
            &base,
            &answer(&[("a", 1.0), ("b", 0.5)], &[("t", 0.9)])
        ));
        assert!(!same_answer(&base, &base[..1].to_vec()));
    }

    #[test]
    fn leg_hashes_see_order_and_scores() {
        let a = legs(&[("a", 0.9), ("b", 0.8)]);
        assert_eq!(hash_legs(&a), hash_legs(&a.clone()));
        assert_ne!(hash_legs(&a), hash_legs(&legs(&[("b", 0.8), ("a", 0.9)])));
        assert_ne!(hash_legs(&a), hash_legs(&legs(&[("a", 0.9), ("b", 0.81)])));
        assert!(leg_contains(&a, JOINABLE, "b"));
        assert!(!leg_contains(&a, "santos", "b"));
    }
}
