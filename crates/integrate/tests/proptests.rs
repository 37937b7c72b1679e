//! Property-based tests of the Full Disjunction engines: the optimized
//! engines must agree with the reference on arbitrary small integration
//! sets, and FD invariants must hold.

use std::collections::BTreeSet;

use dialite_align::Alignment;
use dialite_integrate::{
    AlignedTuple, AliteFd, IntegratedTable, Integrator, NaiveFd, OuterUnionIntegrator,
};
use dialite_table::{Table, Tid, Value, ValueInterner};
use proptest::prelude::*;

/// Small value domain so that joins actually happen.
fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        2 => (0i64..4).prop_map(Value::Int),
        1 => Just(Value::null_missing()),
    ]
}

/// 2–3 tables over overlapping schemas drawn from a pool of 4 column names.
fn arb_integration_set() -> impl Strategy<Value = Vec<Table>> {
    let col_pool = ["a", "b", "c", "d"];
    prop::collection::vec(
        (
            prop::sample::subsequence(col_pool.to_vec(), 1..=3),
            0usize..4,
        ),
        1..=3,
    )
    .prop_flat_map(move |specs| {
        let strategies: Vec<_> = specs
            .into_iter()
            .enumerate()
            .map(|(i, (cols, rows))| {
                let ncols = cols.len();
                prop::collection::vec(prop::collection::vec(arb_value(), ncols), rows).prop_map(
                    move |data| {
                        Table::from_rows(&format!("T{i}"), &cols, data)
                            .expect("fixed arity by construction")
                    },
                )
            })
            .collect();
        strategies
    })
}

/// Cells that stress `Value::cmp` against value-id equality: both null
/// kinds (ids differ, values compare equal), `-0.0`/`0.0` and two NaNs
/// (one id each pair, different bits), and every non-null type.
fn arb_cell() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::null_missing()),
        Just(Value::null_produced()),
        (0i64..3).prop_map(Value::Int),
        (0u32..2).prop_map(|b| Value::Bool(b == 1)),
        "[ab]{0,2}".prop_map(Value::Text),
        Just(Value::Float(0.0)),
        Just(Value::Float(-0.0)),
        Just(Value::Float(f64::NAN)),
        Just(Value::Float(-f64::NAN)),
        Just(Value::Float(-1.5)),
    ]
}

/// A row's cells and its witnesses as `(table, row)` pairs.
type RawRow = (Vec<Value>, Vec<(u32, u32)>);

/// Rows of one width with small witness sets, so value ties are common
/// and provenance decides them.
fn arb_rows() -> impl Strategy<Value = Vec<RawRow>> {
    (1usize..4).prop_flat_map(|width| {
        prop::collection::vec(
            (
                prop::collection::vec(arb_cell(), width),
                prop::collection::vec((0u32..2, 0u32..2), 1..3),
            ),
            0..14,
        )
    })
}

fn fd_of(engine: &dyn Integrator, tables: &[Table]) -> Table {
    let refs: Vec<&Table> = tables.iter().collect();
    let al = Alignment::by_headers(&refs);
    engine
        .integrate(&refs, &al)
        .expect("small inputs fit any budget")
        .into_table()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn alite_matches_naive(tables in arb_integration_set()) {
        let fast = fd_of(&AliteFd::default(), &tables);
        let slow = fd_of(&NaiveFd::default(), &tables);
        prop_assert!(fast.same_content(&slow), "alite:\n{fast}\nnaive:\n{slow}");
    }

    #[test]
    fn fd_output_is_subsumption_free(tables in arb_integration_set()) {
        let fd = fd_of(&AliteFd::default(), &tables);
        let rows: Vec<&[Value]> = fd.rows().collect();
        for (i, a) in rows.iter().enumerate() {
            for (j, b) in rows.iter().enumerate() {
                if i != j {
                    let b_subsumed_by_a = b
                        .iter()
                        .zip(a.iter())
                        .all(|(bv, av)| bv.is_null() || bv == av);
                    prop_assert!(!b_subsumed_by_a, "row {j} subsumed by {i} in\n{fd}");
                }
            }
        }
    }

    #[test]
    fn fd_is_idempotent(tables in arb_integration_set()) {
        // FD(FD(S)) = FD(S): integrating the integrated table again (as a
        // single-table set) changes nothing.
        let fd = fd_of(&AliteFd::default(), &tables);
        let again = fd_of(&AliteFd::default(), std::slice::from_ref(&fd));
        prop_assert!(
            again.same_content(&fd.clone().renamed(again.name())),
            "first:\n{fd}\nagain:\n{again}"
        );
    }

    #[test]
    fn every_input_tuple_subsumed_by_some_output(tables in arb_integration_set()) {
        let refs: Vec<&Table> = tables.iter().collect();
        let al = Alignment::by_headers(&refs);
        let fd = AliteFd::default().integrate(&refs, &al).unwrap();
        // The outer union gives the aligned view of each input tuple.
        let union = OuterUnionIntegrator::default().integrate(&refs, &al).unwrap();
        // Column orders agree (both derive from the same alignment).
        for urow in union.table().rows() {
            let covered = fd.table().rows().any(|frow| {
                urow.iter().zip(frow.iter()).all(|(u, f)| u.is_null() || u == f)
            });
            prop_assert!(covered, "input tuple {urow:?} lost\nfd:\n{}", fd.table());
        }
    }

    #[test]
    fn fd_never_invents_values(tables in arb_integration_set()) {
        use std::collections::HashSet;
        let mut input_values: HashSet<Value> = HashSet::new();
        for t in &tables {
            for row in t.rows() {
                for v in row {
                    if !v.is_null() {
                        input_values.insert(v.clone());
                    }
                }
            }
        }
        let fd = fd_of(&AliteFd::default(), &tables);
        for row in fd.rows() {
            for v in row {
                if !v.is_null() {
                    prop_assert!(input_values.contains(v), "invented value {v:?}");
                }
            }
        }
    }

    /// `from_tuples` sorts ids and resolves once; its rows and provenance
    /// must come out exactly as resolving every tuple first and sorting by
    /// `(Vec<Value>, tids)` orders them.
    #[test]
    fn from_tuples_orders_like_sorting_resolved_rows(rows in arb_rows()) {
        let mut interner = ValueInterner::new();
        let tuples: Vec<AlignedTuple> = rows
            .iter()
            .map(|(values, tids)| AlignedTuple {
                values: values.iter().map(|v| interner.intern(v)).collect(),
                tids: tids.iter().map(|&(t, r)| Tid::new(t, r)).collect(),
            })
            .collect();
        let mut expected: Vec<(Vec<Value>, BTreeSet<Tid>)> = tuples
            .iter()
            .map(|t| (t.resolve(&interner), t.tids.clone()))
            .collect();
        expected.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));

        let width = rows.first().map_or(1, |(values, _)| values.len());
        let columns: Vec<String> = (0..width).map(|c| format!("c{c}")).collect();
        let it = IntegratedTable::from_tuples("r", &columns, tuples, &interner);
        // `{:?}` tells apart what `Value`'s `==` does not: null kinds, -0.0.
        let got: Vec<String> = it.table().rows().map(|r| format!("{r:?}")).collect();
        let want: Vec<String> = expected.iter().map(|(r, _)| format!("{r:?}")).collect();
        prop_assert_eq!(got, want);
        let want_tids: Vec<BTreeSet<Tid>> = expected.into_iter().map(|(_, t)| t).collect();
        prop_assert_eq!(it.provenances(), &want_tids[..]);
    }

    #[test]
    fn fd_row_count_at_most_product_bound_for_two_tables(
        tables in arb_integration_set().prop_filter("exactly two", |t| t.len() == 2)
    ) {
        // For two tables, FD ⊆ (outer join results ∪ singletons), so the
        // output cannot exceed |A|·|B| + |A| + |B| tuples.
        let a = tables[0].row_count();
        let b = tables[1].row_count();
        let fd = fd_of(&AliteFd::default(), &tables);
        prop_assert!(fd.row_count() <= a * b + a + b);
    }
}
