//! Equivalence suite over the dictionary-encoded integration core: on
//! randomly generated datagen lakes, every FD engine must produce the same
//! integrated table (content *and* provenance), and the two subsumption
//! passes must keep exactly the same tuples.
//!
//! This is the guard rail for the interned rework — if value-id semantics
//! ever diverge from `Value` semantics (null wildcards, null-kind merging,
//! content dedup), the engines drift apart here first.

use dialite_align::Alignment;
use dialite_datagen::workloads::FdWorkload;
use dialite_integrate::{
    outer_union, remove_subsumed_indexed, remove_subsumed_naive, AlignedTuple, AliteFd,
    IntegratedTable, Integrator, NaiveFd,
};
use dialite_table::Table;

/// The workload grid: enough shared keys that complementation chains fire,
/// plus nulls so subsumption has real work to do.
fn workloads() -> Vec<FdWorkload> {
    let mut out = Vec::new();
    for seed in [1u64, 7, 42] {
        out.push(FdWorkload {
            tables: 3,
            rows: 40,
            key_domain: 25,
            null_rate: 0.2,
            seed,
        });
        out.push(FdWorkload {
            tables: 4,
            rows: 60,
            key_domain: 120,
            null_rate: 0.1,
            seed,
        });
    }
    // A dense pathological-ish lake: few keys, many nulls.
    out.push(FdWorkload {
        tables: 3,
        rows: 25,
        key_domain: 6,
        null_rate: 0.35,
        seed: 99,
    });
    out
}

fn integrate(engine: &dyn Integrator, tables: &[Table]) -> IntegratedTable {
    let refs: Vec<&Table> = tables.iter().collect();
    let al = Alignment::by_headers(&refs);
    engine.integrate(&refs, &al).expect("within budget")
}

#[test]
fn all_fd_engines_agree_on_datagen_lakes() {
    for w in workloads() {
        let tables = w.generate();
        let naive = integrate(&NaiveFd::default(), &tables);
        let alite = integrate(&AliteFd::default(), &tables);
        assert!(
            alite.table().same_content(naive.table()),
            "alite != naive on {w:?}"
        );
        // Canonical row order is shared, so provenance must align 1:1.
        assert_eq!(
            alite.provenances(),
            naive.provenances(),
            "provenance drift (alite vs naive) on {w:?}"
        );
    }
}

/// Normalize a tuple set for comparison: sort by content then witness set.
fn canon(mut tuples: Vec<AlignedTuple>) -> Vec<AlignedTuple> {
    tuples.sort_by(|a, b| a.values.cmp(&b.values).then_with(|| a.tids.cmp(&b.tids)));
    tuples
}

#[test]
fn naive_and_indexed_subsumption_agree_on_datagen_lakes() {
    for w in workloads() {
        let tables = w.generate();
        let refs: Vec<&Table> = tables.iter().collect();
        let al = Alignment::by_headers(&refs);
        // The raw outer union (no complementation) exercises subsumption on
        // realistic padded tuples.
        let (_, tuples, _interner) = outer_union(&refs, &al);
        let naive = canon(remove_subsumed_naive(tuples.clone()));
        let indexed = canon(remove_subsumed_indexed(tuples));
        assert_eq!(naive, indexed, "subsumption passes diverged on {w:?}");
    }
}

#[test]
fn subsumption_passes_agree_after_complementation() {
    // Run the fixpoint via the engines, then re-check the passes agree on
    // the *integrated* tuples too (denser value sharing than the raw
    // union): integrating the FD output again must be a fixpoint for both.
    for w in workloads().into_iter().take(3) {
        let tables = w.generate();
        let fd = integrate(&AliteFd::default(), &tables).into_table();
        let refs = [&fd];
        let al = Alignment::by_headers(&refs);
        let (_, tuples, _interner) = outer_union(&refs, &al);
        let naive = canon(remove_subsumed_naive(tuples.clone()));
        let indexed = canon(remove_subsumed_indexed(tuples));
        assert_eq!(naive, indexed, "post-FD subsumption diverged on {w:?}");
        assert_eq!(
            naive.len(),
            fd.row_count(),
            "FD output must already be subsumption-free on {w:?}"
        );
    }
}
