//! The alternative integration operators of the demo: natural outer join
//! (paper Fig. 6, evaluated in Fig. 8(a)), inner join and outer union.
//!
//! Natural join semantics over the integrated schema: tuples join when they
//! agree — with **null-rejecting** equality — on *every* integration ID
//! present in both operands' schemas. Operands with no shared IDs produce a
//! cross product (the textbook natural-join degenerate case). Evaluation is
//! left-to-right, which is exactly why outer join is not associative and
//! loses derivable facts — the demo's motivating contrast with FD.
//!
//! The two joins run on the flat outer union (`Flat`); only returned rows
//! are resolved to `Value`s and given a `BTreeSet<Tid>`. The outer union
//! dedups [`crate::AlignedTuple`]s, as FD does. All three dedup with
//! [`dedup_groups`] and order their output by [`cmp_rows`].

use dialite_align::Alignment;
use dialite_table::{Table, Tid, ValueInterner};

use crate::engine::{check_alignment, IntegrateError, Integrator};
use crate::result::{cmp_rows, IntegratedTable};
use crate::subsume::{dedup_content, dedup_groups, remove_subsumed_indexed};
use crate::tuple::{flat_union, outer_union, Flat};

impl Flat {
    /// The output: [`dedup_groups`] by [`cmp_rows`], which calls rows
    /// equal exactly for equal content (the null kinds compare equal,
    /// distinct values never do) and orders groups as
    /// [`IntegratedTable::from_tuples`] does. Only the kept rows are
    /// resolved and given a `BTreeSet<Tid>`.
    fn finish(self, name: &str, columns: &[String], interner: &ValueInterner) -> IntegratedTable {
        let witness = |i: usize| (self.tids(i).count(), self.tids(i));
        let kept = dedup_groups(
            self.len(),
            |a, b| cmp_rows(self.values(a), self.values(b), interner),
            |a, b| {
                let ((la, ta), (lb, tb)) = (witness(a), witness(b));
                la.cmp(&lb).then_with(|| ta.cmp(tb))
            },
        );
        let rows = kept.into_iter().map(|(head, best)| {
            let values = self.values(head).iter();
            let tids = self.tids(best).map(|(t, r)| Tid::new(t, r)).collect();
            (values.map(|&v| interner.resolve(v).clone()).collect(), tids)
        });
        IntegratedTable::from_rows(name, columns, rows)
    }
}

/// A tuple's value-ids at the `shared` slots: its natural-join key.
fn shared_ids<'a>(shared: &'a [usize], values: &'a [u32]) -> impl Iterator<Item = u32> + 'a {
    shared.iter().map(move |&s| values[s])
}

/// Left-to-right natural join of `tables` over their flat outer union,
/// keeping the unmatched tuples of both operands at every step when
/// `keep_unmatched` (outer join).
fn join_chain(
    tables: &[&Table],
    alignment: &Alignment,
    keep_unmatched: bool,
    display: &str,
) -> Result<IntegratedTable, IntegrateError> {
    check_alignment(tables, alignment)?;
    let (names, coverage, base, interner) = flat_union(tables, alignment);
    let mut acc = Flat::new(base.width, base.tables);
    let mut present = vec![false; names.len()];
    let mut end = 0;
    for (t, slots) in coverage.iter().enumerate() {
        let shared: Vec<usize> = slots.iter().copied().filter(|&s| present[s]).collect();
        for &s in slots {
            present[s] = true;
        }
        let right = end..end + tables[t].row_count();
        end = right.end;
        if t == 0 {
            right.for_each(|j| acc.push(&base, j, None));
            continue;
        }
        // Null-rejecting natural join on the shared slots; with none it is
        // the cross product. Right rows sorted by (key, row) give each left
        // tuple its matches, in row order, by binary search.
        let key = |j: usize| shared_ids(&shared, base.values(j));
        let joins =
            |values: &[u32]| shared_ids(&shared, values).all(|v| !ValueInterner::is_null_id(v));
        let mut sorted: Vec<usize> = right.clone().filter(|&j| joins(base.values(j))).collect();
        sorted.sort_unstable_by(|&a, &b| key(a).cmp(key(b)).then(a.cmp(&b)));
        let mut next = Flat::new(acc.width, acc.tables);
        let mut left_matched = vec![false; acc.len()];
        let mut right_matched = vec![false; right.len()];
        for (i, matched) in left_matched.iter_mut().enumerate() {
            let left = acc.values(i);
            if !joins(left) {
                continue;
            }
            let lo = sorted.partition_point(|&j| key(j).lt(shared_ids(&shared, left)));
            let hi = lo + sorted[lo..].partition_point(|&j| key(j).eq(shared_ids(&shared, left)));
            for &j in &sorted[lo..hi] {
                next.push(&acc, i, Some((&base, j)));
                *matched = true;
                right_matched[j - right.start] = true;
            }
        }
        if keep_unmatched {
            for i in (0..acc.len()).filter(|&i| !left_matched[i]) {
                next.push(&acc, i, None);
            }
            for j in right.clone().filter(|&j| !right_matched[j - right.start]) {
                next.push(&base, j, None);
            }
        }
        acc = next;
    }
    Ok(acc.finish(display, &names, &interner))
}

/// `T1 ⟗ T2 ⟗ T3`, or `empty` for a chain of no tables.
fn chain_name(tables: &[&Table], op: &str, empty: &str) -> String {
    if tables.is_empty() {
        return empty.to_string();
    }
    let names: Vec<&str> = tables.iter().map(|t| t.name()).collect();
    names.join(&format!(" {op} "))
}

/// Left-to-right natural **full outer join** — the demo's user-defined
/// alternative operator (Fig. 6), shown non-maximal in Fig. 8(a).
#[derive(Debug, Clone, Default)]
pub struct OuterJoinIntegrator;

impl Integrator for OuterJoinIntegrator {
    fn name(&self) -> &str {
        "outer-join"
    }

    fn integrate(
        &self,
        tables: &[&Table],
        alignment: &Alignment,
    ) -> Result<IntegratedTable, IntegrateError> {
        let display = chain_name(tables, "⟗", "OuterJoin()");
        join_chain(tables, alignment, true, &display)
    }
}

/// Left-to-right natural **inner join** (the integration Auctus applies to
/// joinable pairs; loses all unmatched facts).
#[derive(Debug, Clone, Default)]
pub struct InnerJoinIntegrator;

impl Integrator for InnerJoinIntegrator {
    fn name(&self) -> &str {
        "inner-join"
    }

    fn integrate(
        &self,
        tables: &[&Table],
        alignment: &Alignment,
    ) -> Result<IntegratedTable, IntegrateError> {
        let display = chain_name(tables, "⋈", "InnerJoin()");
        join_chain(tables, alignment, false, &display)
    }
}

/// Outer union: align, pad, deduplicate — optionally also subsumption-free.
/// With `subsume = true` this is FD *minus the complementation step*, a
/// useful ablation of how much work the merges do.
#[derive(Debug, Clone, Default)]
pub struct OuterUnionIntegrator {
    /// Also remove subsumed tuples.
    pub subsume: bool,
}

impl Integrator for OuterUnionIntegrator {
    fn name(&self) -> &str {
        if self.subsume {
            "outer-union-subsumed"
        } else {
            "outer-union"
        }
    }

    fn integrate(
        &self,
        tables: &[&Table],
        alignment: &Alignment,
    ) -> Result<IntegratedTable, IntegrateError> {
        check_alignment(tables, alignment)?;
        let (names, tuples, interner) = outer_union(tables, alignment);
        let tuples = if self.subsume {
            remove_subsumed_indexed(tuples)
        } else {
            dedup_content(tuples)
        };
        let table_names: Vec<&str> = tables.iter().map(|t| t.name()).collect();
        let display = format!("OuterUnion({})", table_names.join(", "));
        Ok(IntegratedTable::from_tuples(
            &display, &names, tuples, &interner,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{fig2_tables, fig7_tables};
    use dialite_table::{table, Tid};

    fn fig7_alignment(tables: &[&Table; 3]) -> Alignment {
        Alignment::by_headers(tables)
    }

    #[test]
    fn reproduces_paper_fig8a_outer_join() {
        let (t4, t5, t6) = fig7_tables();
        let al = fig7_alignment(&[&t4, &t5, &t6]);
        let out = OuterJoinIntegrator
            .integrate(&[&t4, &t5, &t6], &al)
            .unwrap();
        let expected = table! {
            "T4 ⟗ T5 ⟗ T6";
            ["Vaccine", "Approver", "Country"];
            ["Pfizer", "FDA", "United States"],
            ["JnJ", Value::null_missing(), Value::null_produced()],
            [Value::null_produced(), Value::null_missing(), "USA"],
            ["J&J", Value::null_produced(), "United States"],
            ["JnJ", Value::null_produced(), "USA"],
        };
        use dialite_table::Value;
        assert!(
            out.table().same_content(&expected),
            "got:\n{}\nexpected:\n{}",
            out.table(),
            expected
        );
        assert_eq!(out.row_count(), 5, "paper Fig. 8(a) has f8–f12");
    }

    #[test]
    fn outer_join_is_order_sensitive_unlike_fd() {
        // The motivation for FD: outer join is not associative. Reordering
        // T4, T5, T6 changes the result (J&J's approver is only derivable
        // when T6 links first).
        let (t4, t5, t6) = fig7_tables();
        let a = OuterJoinIntegrator
            .integrate(&[&t4, &t5, &t6], &Alignment::by_headers(&[&t4, &t5, &t6]))
            .unwrap();
        let b = OuterJoinIntegrator
            .integrate(&[&t6, &t5, &t4], &Alignment::by_headers(&[&t6, &t5, &t4]))
            .unwrap();
        // Compare as value multisets over the same column order.
        let cols_b: Vec<usize> = ["Vaccine", "Approver", "Country"]
            .iter()
            .map(|n| b.table().column_index(n).unwrap())
            .collect();
        let b_reordered = b.table().project(&cols_b, "b").unwrap();
        let a_named = a.table().clone().renamed("b");
        assert!(
            !a_named.same_content(&b_reordered),
            "outer join should be order-sensitive on Fig. 7:\n{}\nvs\n{}",
            a_named,
            b_reordered
        );
    }

    #[test]
    fn inner_join_keeps_only_full_matches() {
        let (t1, _, t3) = fig2_tables();
        let al = Alignment::by_headers(&[&t1, &t3]);
        let out = InnerJoinIntegrator.integrate(&[&t1, &t3], &al).unwrap();
        // Berlin and Barcelona join; Manchester/Boston/New Delhi drop.
        assert_eq!(out.row_count(), 2);
        for row in out.table().rows() {
            assert!(row.iter().all(|v| !v.is_null()));
        }
    }

    #[test]
    fn outer_join_with_no_shared_columns_is_cross_product() {
        let a = table! { "A"; ["x"]; [1], [2] };
        let b = table! { "B"; ["y"]; ["p"], ["q"], ["r"] };
        let al = Alignment::by_headers(&[&a, &b]);
        let out = OuterJoinIntegrator.integrate(&[&a, &b], &al).unwrap();
        assert_eq!(out.row_count(), 6);
    }

    #[test]
    fn outer_union_stacks_and_dedups() {
        let a = table! { "A"; ["x", "y"]; [1, 2], [3, 4] };
        let b = table! { "B"; ["x", "y"]; [1, 2] };
        let al = Alignment::by_headers(&[&a, &b]);
        let out = OuterUnionIntegrator::default()
            .integrate(&[&a, &b], &al)
            .unwrap();
        assert_eq!(out.row_count(), 2);
    }

    #[test]
    fn outer_union_subsumed_removes_partial_rows() {
        let a = table! { "A"; ["x", "y"]; [1, 2] };
        let b = table! { "B"; ["x"]; [1] };
        let al = Alignment::by_headers(&[&a, &b]);
        let plain = OuterUnionIntegrator { subsume: false }
            .integrate(&[&a, &b], &al)
            .unwrap();
        assert_eq!(plain.row_count(), 2);
        let subsumed = OuterUnionIntegrator { subsume: true }
            .integrate(&[&a, &b], &al)
            .unwrap();
        assert_eq!(subsumed.row_count(), 1);
    }

    #[test]
    fn provenance_propagates_through_joins() {
        let (t4, t5, t6) = fig7_tables();
        let al = fig7_alignment(&[&t4, &t5, &t6]);
        let out = OuterJoinIntegrator
            .integrate(&[&t4, &t5, &t6], &al)
            .unwrap();
        // The Pfizer row is witnessed by t11 (T4 row 0) and t13 (T5 row 0).
        let (i, _) = out
            .table()
            .rows()
            .enumerate()
            .find(|(_, r)| r[0] == Value::Text("Pfizer".into()))
            .unwrap();
        use dialite_table::Value;
        let tids: Vec<Tid> = out.provenance(i).iter().copied().collect();
        assert_eq!(tids, vec![Tid::new(0, 0), Tid::new(1, 0)]);
    }

    #[test]
    fn empty_chain() {
        let out = OuterJoinIntegrator
            .integrate(&[], &Alignment::by_headers(&[]))
            .unwrap();
        assert_eq!(out.row_count(), 0);
        let out = InnerJoinIntegrator
            .integrate(&[], &Alignment::by_headers(&[]))
            .unwrap();
        assert_eq!(out.row_count(), 0);
    }

    #[test]
    fn engine_names() {
        assert_eq!(OuterJoinIntegrator.name(), "outer-join");
        assert_eq!(InnerJoinIntegrator.name(), "inner-join");
        assert_eq!(OuterUnionIntegrator::default().name(), "outer-union");
        assert_eq!(
            OuterUnionIntegrator { subsume: true }.name(),
            "outer-union-subsumed"
        );
    }
}
