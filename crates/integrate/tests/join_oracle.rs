//! Differential oracle for the join operators: `OuterJoinIntegrator`,
//! `InnerJoinIntegrator` and `OuterUnionIntegrator` (both ways) must return
//! exactly what a straightforward tuple-at-a-time evaluation returns — the
//! rows with their null kinds, the provenance, the column names and types
//! and the display name — as `NaiveFd` is the reference for FD.
//!
//! The reference below builds an `AlignedTuple` per input row, hash-joins
//! on `Vec<u32>` keys, clones unmatched tuples forward, deduplicates
//! through a `HashMap` on the null-collapsed content and sorts the resolved
//! rows by `Value`, then by witness set.

use std::cmp::Ordering;
use std::collections::{BTreeSet, HashMap, HashSet};

use dialite_align::Alignment;
use dialite_integrate::{
    AlignedTuple, InnerJoinIntegrator, IntegratedTable, Integrator, OuterJoinIntegrator,
    OuterUnionIntegrator,
};
use dialite_table::{Table, Tid, Value, ValueInterner};
use proptest::prelude::*;

/// The reference's result: the table and its row-aligned witness sets.
struct Output {
    table: Table,
    provenance: Vec<BTreeSet<Tid>>,
}

/// Integrated column names, one aligned tuple per input row, and the
/// dictionary, with integration IDs ordered by first appearance.
fn reference_union(
    tables: &[&Table],
    alignment: &Alignment,
) -> (Vec<String>, Vec<AlignedTuple>, ValueInterner) {
    let mut order: Vec<u32> = Vec::new();
    let mut seen = vec![false; alignment.num_ids()];
    for (t, table) in tables.iter().enumerate() {
        for c in 0..table.column_count() {
            let id = alignment.id_of(t, c);
            if !seen[id as usize] {
                seen[id as usize] = true;
                order.push(id);
            }
        }
    }
    let mut slot_of = vec![usize::MAX; alignment.num_ids()];
    for (slot, &id) in order.iter().enumerate() {
        slot_of[id as usize] = slot;
    }
    let names = order
        .iter()
        .map(|&id| alignment.name_of(id).to_string())
        .collect();
    let mut interner = ValueInterner::new();
    let mut tuples = Vec::new();
    for (t, table) in tables.iter().enumerate() {
        for (r, row) in table.rows().enumerate() {
            let mut values = vec![ValueInterner::NULL_PRODUCED; order.len()];
            for (c, v) in row.iter().enumerate() {
                values[slot_of[alignment.id_of(t, c) as usize]] = interner.intern(v);
            }
            let tids = BTreeSet::from([Tid::new(t as u32, r as u32)]);
            tuples.push(AlignedTuple { values, tids });
        }
    }
    (names, tuples, interner)
}

type Operand = (Vec<AlignedTuple>, HashSet<usize>);

fn per_table(
    tables: &[&Table],
    alignment: &Alignment,
) -> (Vec<String>, Vec<Operand>, ValueInterner) {
    let (names, all, interner) = reference_union(tables, alignment);
    let mut slot_of: HashMap<u32, usize> = HashMap::new();
    for (t, table) in tables.iter().enumerate() {
        for c in 0..table.column_count() {
            let next = slot_of.len();
            slot_of.entry(alignment.id_of(t, c)).or_insert(next);
        }
    }
    let mut operands: Vec<Operand> = tables
        .iter()
        .enumerate()
        .map(|(t, table)| {
            let slots = (0..table.column_count())
                .map(|c| slot_of[&alignment.id_of(t, c)])
                .collect();
            (Vec::new(), slots)
        })
        .collect();
    for tup in all {
        let t = tup.tids.iter().next().expect("one tid").table as usize;
        operands[t].0.push(tup);
    }
    (names, operands, interner)
}

/// Natural join on `shared` (null-rejecting); cross product when empty.
fn natural_match(
    left: &[AlignedTuple],
    right: &[AlignedTuple],
    shared: &[usize],
) -> (Vec<AlignedTuple>, Vec<bool>, Vec<bool>) {
    let mut joined = Vec::new();
    let mut lm = vec![false; left.len()];
    let mut rm = vec![false; right.len()];
    let key_of = |t: &AlignedTuple| -> Option<Vec<u32>> {
        let key: Vec<u32> = shared.iter().map(|&s| t.values[s]).collect();
        (!key.iter().any(|&v| ValueInterner::is_null_id(v))).then_some(key)
    };
    let mut table: HashMap<Vec<u32>, Vec<usize>> = HashMap::new();
    for (j, r) in right.iter().enumerate() {
        if let Some(k) = key_of(r) {
            table.entry(k).or_default().push(j);
        }
    }
    for (i, l) in left.iter().enumerate() {
        let Some(k) = key_of(l) else { continue };
        for &j in table.get(&k).into_iter().flatten() {
            joined.push(l.merge(&right[j]));
            lm[i] = true;
            rm[j] = true;
        }
    }
    (joined, lm, rm)
}

fn reference_join_chain(
    tables: &[&Table],
    alignment: &Alignment,
    keep_unmatched: bool,
    op: &str,
) -> Output {
    let (names, operands, interner) = per_table(tables, alignment);
    let mut iter = operands.into_iter();
    let Some((mut acc, mut present)) = iter.next() else {
        let name = if keep_unmatched {
            "OuterJoin()"
        } else {
            "InnerJoin()"
        };
        return finish(name, &names, Vec::new(), &interner);
    };
    for (right, right_slots) in iter {
        let mut shared: Vec<usize> = present.intersection(&right_slots).copied().collect();
        shared.sort_unstable();
        let (mut next, lm, rm) = natural_match(&acc, &right, &shared);
        if keep_unmatched {
            next.extend(
                acc.iter()
                    .zip(&lm)
                    .filter(|(_, &m)| !m)
                    .map(|(t, _)| t.clone()),
            );
            next.extend(
                right
                    .iter()
                    .zip(&rm)
                    .filter(|(_, &m)| !m)
                    .map(|(t, _)| t.clone()),
            );
        }
        acc = next;
        present.extend(right_slots);
    }
    let table_names: Vec<&str> = tables.iter().map(|t| t.name()).collect();
    let name = table_names.join(&format!(" {op} "));
    finish(&name, &names, dedup_content(acc), &interner)
}

fn reference_outer_union(tables: &[&Table], alignment: &Alignment, subsume: bool) -> Output {
    let (names, tuples, interner) = reference_union(tables, alignment);
    let tuples = if subsume {
        remove_subsumed(tuples)
    } else {
        dedup_content(tuples)
    };
    let table_names: Vec<&str> = tables.iter().map(|t| t.name()).collect();
    let name = format!("OuterUnion({})", table_names.join(", "));
    finish(&name, &names, tuples, &interner)
}

/// Keep the first tuple per null-collapsed content, with the smallest
/// `(len, tids)` witness set of its content.
fn dedup_content(tuples: Vec<AlignedTuple>) -> Vec<AlignedTuple> {
    let mut by_content: HashMap<Vec<u32>, AlignedTuple> = HashMap::new();
    for t in tuples {
        use std::collections::hash_map::Entry;
        match by_content.entry(t.content_key()) {
            Entry::Occupied(mut e) => {
                let existing = e.get_mut();
                if (t.tids.len(), &t.tids) < (existing.tids.len(), &existing.tids) {
                    existing.tids = t.tids;
                }
            }
            Entry::Vacant(e) => {
                e.insert(t);
            }
        }
    }
    by_content.into_values().collect()
}

/// Decreasing non-null count; drop a tuple some kept tuple subsumes.
fn remove_subsumed(tuples: Vec<AlignedTuple>) -> Vec<AlignedTuple> {
    let mut tuples = dedup_content(tuples);
    tuples.sort_by(|a, b| {
        b.non_null_count()
            .cmp(&a.non_null_count())
            .then_with(|| a.values.cmp(&b.values))
    });
    let mut kept: Vec<AlignedTuple> = Vec::new();
    for t in tuples {
        if !kept.iter().any(|k| k.subsumes(&t)) {
            kept.push(t);
        }
    }
    kept
}

/// Resolve, sort by `(Vec<Value>, tids)` and build the table.
fn finish(
    name: &str,
    names: &[String],
    tuples: Vec<AlignedTuple>,
    interner: &ValueInterner,
) -> Output {
    let mut rows: Vec<(Vec<Value>, BTreeSet<Tid>)> = tuples
        .into_iter()
        .map(|t| (t.resolve(interner), t.tids))
        .collect();
    rows.sort_by(|a, b| match a.0.cmp(&b.0) {
        Ordering::Equal => a.1.cmp(&b.1),
        o => o,
    });
    let mut table = Table::new(name, names).expect("unique names");
    let mut provenance = Vec::new();
    for (row, tids) in rows {
        table.push_row(row).expect("schema arity");
        provenance.push(tids);
    }
    table.infer_types();
    Output { table, provenance }
}
/// Small domains so that joins, repeats and content ties are common: both
/// null kinds, `-0.0`/`0.0` and two NaNs (one id each pair, different
/// bits), and every non-null type.
fn arb_cell() -> impl Strategy<Value = Value> {
    prop_oneof![
        2 => Just(Value::null_missing()),
        1 => Just(Value::null_produced()),
        3 => (0i64..2).prop_map(Value::Int),
        1 => (0u32..2).prop_map(|b| Value::Bool(b == 1)),
        1 => "[ab]{0,1}".prop_map(Value::Text),
        1 => Just(Value::Float(0.0)),
        1 => Just(Value::Float(-0.0)),
        1 => Just(Value::Float(f64::NAN)),
        1 => Just(Value::Float(-f64::NAN)),
    ]
}

/// 0–4 tables of 0–4 rows over 1–3 columns from a pool of 5 names, so some
/// chain steps share IDs and some are cross products; row 0 is sometimes
/// repeated at the end.
fn arb_integration_set() -> impl Strategy<Value = Vec<Table>> {
    let pool = ["a", "b", "c", "d", "e"];
    prop::collection::vec(
        (
            prop::sample::subsequence(pool.to_vec(), 1..=3),
            0usize..5,
            any::<bool>(),
        ),
        0..=4,
    )
    .prop_flat_map(move |specs| {
        let strategies: Vec<_> = specs
            .into_iter()
            .enumerate()
            .map(|(i, (cols, rows, repeat))| {
                let width = cols.len();
                prop::collection::vec(prop::collection::vec(arb_cell(), width), rows).prop_map(
                    move |mut data| {
                        if repeat && !data.is_empty() {
                            data.push(data[0].clone());
                        }
                        Table::from_rows(&format!("T{i}"), &cols, data).expect("fixed arity")
                    },
                )
            })
            .collect();
        strategies
    })
}

/// Assert `got` equals the reference exactly: `{:?}` tells apart what
/// `Value`'s `==` does not (null kinds, `-0.0`).
fn assert_same(got: &IntegratedTable, want: &Output) {
    assert_eq!(got.table().name(), want.table.name());
    assert_eq!(got.table().schema(), want.table.schema());
    let rows = |t: &Table| t.rows().map(|r| format!("{r:?}")).collect::<Vec<_>>();
    assert_eq!(rows(got.table()), rows(&want.table));
    assert_eq!(got.provenances(), &want.provenance[..]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn join_operators_match_the_tuple_at_a_time_reference(tables in arb_integration_set()) {
        let refs: Vec<&Table> = tables.iter().collect();
        let al = Alignment::by_headers(&refs);
        let outer = OuterJoinIntegrator.integrate(&refs, &al).unwrap();
        assert_same(&outer, &reference_join_chain(&refs, &al, true, "⟗"));
        let inner = InnerJoinIntegrator.integrate(&refs, &al).unwrap();
        assert_same(&inner, &reference_join_chain(&refs, &al, false, "⋈"));
        for subsume in [false, true] {
            let union = OuterUnionIntegrator { subsume }.integrate(&refs, &al).unwrap();
            assert_same(&union, &reference_outer_union(&refs, &al, subsume));
        }
    }
}

/// Content-equal tuples that differ only in null kind, where the
/// first-inserted one does not hold the smallest witness set: T0 × T1 is a
/// cross product giving `(±, ±, 7) {T0[0], T1[0]}`; T2's row `(±, ⊥, 7)
/// {T2[0]}` cannot join it (null in the shared `s`). Both stay unmatched,
/// left first. The output keeps the first tuple's values — `±` in `b`, not
/// `⊥` — and the smaller witness set `{T2[0]}`, although `{T0[0], T1[0]}`
/// sorts first lexicographically.
#[test]
fn dedup_keeps_first_values_and_smallest_witness_set_across_null_kinds() {
    let missing = Value::null_missing;
    let t0 = Table::from_rows("T0", &["s", "b"], vec![vec![missing(), missing()]]).unwrap();
    let t1 = Table::from_rows("T1", &["x"], vec![vec![Value::Int(7)]]).unwrap();
    let t2 = Table::from_rows("T2", &["s", "x"], vec![vec![missing(), Value::Int(7)]]).unwrap();
    let refs = [&t0, &t1, &t2];
    let al = Alignment::by_headers(&refs);
    let out = OuterJoinIntegrator.integrate(&refs, &al).unwrap();
    assert_eq!(out.row_count(), 1, "{}", out.display_with_provenance(None));
    assert_eq!(
        format!("{:?}", out.table().row(0).unwrap()),
        format!("{:?}", [missing(), missing(), Value::Int(7)])
    );
    assert_eq!(out.provenance(0), &BTreeSet::from([Tid::new(2, 0)]));
    assert_same(&out, &reference_join_chain(&refs, &al, true, "⟗"));
}
