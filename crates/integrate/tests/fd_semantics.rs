//! Cross-engine semantic tests: the paper's Fig. 8 contrast between outer
//! join and Full Disjunction, and FD invariants on hand-built cases.

use dialite_align::Alignment;
use dialite_integrate::{AliteFd, Integrator, NaiveFd, OuterJoinIntegrator};
use dialite_table::{table, Table, Tid, Value};

fn fig7_tables() -> (Table, Table, Table) {
    let t4 = table! {
        "T4"; ["Vaccine", "Approver"];
        ["Pfizer", "FDA"],
        ["JnJ", Value::null_missing()],
    };
    let t5 = table! {
        "T5"; ["Country", "Approver"];
        ["United States", "FDA"],
        ["USA", Value::null_missing()],
    };
    let t6 = table! {
        "T6"; ["Vaccine", "Country"];
        ["J&J", "United States"],
        ["JnJ", "USA"],
    };
    (t4, t5, t6)
}

fn engines() -> Vec<Box<dyn Integrator>> {
    vec![Box::new(NaiveFd::default()), Box::new(AliteFd::default())]
}

#[test]
fn reproduces_paper_fig8b_fd() {
    let (t4, t5, t6) = fig7_tables();
    let al = Alignment::by_headers(&[&t4, &t5, &t6]);
    let expected = table! {
        "FD(T4, T5, T6)";
        ["Vaccine", "Approver", "Country"];
        ["Pfizer", "FDA", "United States"],
        ["JnJ", Value::null_produced(), "USA"],
        ["J&J", "FDA", "United States"],
    };
    for engine in engines() {
        let out = engine.integrate(&[&t4, &t5, &t6], &al).unwrap();
        assert!(
            out.table().same_content(&expected),
            "{}:\ngot\n{}\nexpected\n{}",
            engine.name(),
            out.table(),
            expected
        );
        assert_eq!(out.row_count(), 3, "paper Fig. 8(b) has f8, f12, f13");
    }
}

#[test]
fn fig8b_f13_derives_jnj_approver_which_outer_join_misses() {
    // The paper's headline contrast: FD produces the tuple connecting the
    // J&J vaccine to its approver (f13 = {t13, t15}); outer join does not.
    let (t4, t5, t6) = fig7_tables();
    let al = Alignment::by_headers(&[&t4, &t5, &t6]);

    let fd = AliteFd::default().integrate(&[&t4, &t5, &t6], &al).unwrap();
    let has_jnj_approver = |t: &Table| {
        t.rows()
            .any(|r| matches!(&r[0], Value::Text(s) if s == "J&J" || s == "JnJ") && !r[1].is_null())
    };
    assert!(
        has_jnj_approver(fd.table()),
        "FD must derive J&J's approver:\n{}",
        fd.table()
    );

    let oj = OuterJoinIntegrator
        .integrate(&[&t4, &t5, &t6], &al)
        .unwrap();
    assert!(
        !has_jnj_approver(oj.table()),
        "outer join must NOT derive J&J's approver:\n{}",
        oj.table()
    );
}

#[test]
fn fig8b_f13_provenance_is_t13_t15() {
    let (t4, t5, t6) = fig7_tables();
    let al = Alignment::by_headers(&[&t4, &t5, &t6]);
    let out = AliteFd::default().integrate(&[&t4, &t5, &t6], &al).unwrap();
    let (i, _) = out
        .table()
        .rows()
        .enumerate()
        .find(|(_, r)| r[0] == Value::Text("J&J".into()))
        .expect("f13 present");
    let tids: Vec<Tid> = out.provenance(i).iter().copied().collect();
    // t13 = T5 row 0 (table index 1), t15 = T6 row 0 (table index 2).
    assert_eq!(tids, vec![Tid::new(1, 0), Tid::new(2, 0)]);
}

#[test]
fn fig8b_f12_keeps_minimal_witness_set() {
    // {t16} and {t12, t16} merge to the same content; the reported witness
    // set is the minimal one {t16}, as printed in the paper.
    let (t4, t5, t6) = fig7_tables();
    let al = Alignment::by_headers(&[&t4, &t5, &t6]);
    let out = AliteFd::default().integrate(&[&t4, &t5, &t6], &al).unwrap();
    let (i, _) = out
        .table()
        .rows()
        .enumerate()
        .find(|(_, r)| r[0] == Value::Text("JnJ".into()))
        .expect("f12 present");
    let tids: Vec<Tid> = out.provenance(i).iter().copied().collect();
    assert_eq!(tids, vec![Tid::new(2, 1)], "witness should be t16 alone");
}

#[test]
fn fd_output_is_subsumption_free() {
    let (t4, t5, t6) = fig7_tables();
    let al = Alignment::by_headers(&[&t4, &t5, &t6]);
    let out = AliteFd::default().integrate(&[&t4, &t5, &t6], &al).unwrap();
    let rows: Vec<&[Value]> = out.table().rows().collect();
    for (i, a) in rows.iter().enumerate() {
        for (j, b) in rows.iter().enumerate() {
            if i == j {
                continue;
            }
            let subsumes = b
                .iter()
                .zip(a.iter())
                .all(|(bv, av)| bv.is_null() || bv == av);
            assert!(!subsumes, "row {j} is subsumed by row {i}");
        }
    }
}

#[test]
fn fd_is_order_invariant() {
    // FD is an associative/commutative semantics — permuting the
    // integration set must not change the result (unlike outer join).
    let (t4, t5, t6) = fig7_tables();
    let orders: Vec<Vec<&Table>> = vec![
        vec![&t4, &t5, &t6],
        vec![&t6, &t5, &t4],
        vec![&t5, &t6, &t4],
    ];
    let mut results: Vec<Table> = Vec::new();
    for tables in &orders {
        let al = Alignment::by_headers(tables);
        let out = AliteFd::default().integrate(tables, &al).unwrap();
        // Normalize column order by name for comparison.
        let mut names: Vec<&str> = out.table().schema().names().collect();
        names.sort_unstable();
        let idx: Vec<usize> = names
            .iter()
            .map(|n| out.table().column_index(n).unwrap())
            .collect();
        results.push(out.table().project(&idx, "norm").unwrap());
    }
    for r in &results[1..] {
        assert!(
            results[0].same_content(r),
            "FD changed under permutation:\n{}\nvs\n{}",
            results[0],
            r
        );
    }
}

#[test]
fn every_input_tuple_is_represented_in_fd() {
    // Soundness of maximality: each input tuple must be subsumed by some
    // output tuple (no fact is lost).
    let (t4, t5, t6) = fig7_tables();
    let tables = [&t4, &t5, &t6];
    let al = Alignment::by_headers(&tables);
    let out = AliteFd::default().integrate(&tables, &al).unwrap();

    // Rebuild each input tuple over the integrated schema by hand.
    let slots: Vec<Vec<usize>> = tables
        .iter()
        .enumerate()
        .map(|(t, table)| {
            (0..table.column_count())
                .map(|c| {
                    let name = al.name_of(al.id_of(t, c));
                    out.table().column_index(name).unwrap()
                })
                .collect()
        })
        .collect();
    for (t, table) in tables.iter().enumerate() {
        for row in table.rows() {
            let found = out.table().rows().any(|orow| {
                row.iter()
                    .enumerate()
                    .all(|(c, v)| v.is_null() || orow[slots[t][c]] == *v)
            });
            assert!(found, "input tuple {row:?} of table {t} lost");
        }
    }
}

#[test]
fn diamond_case_produces_both_maximal_merges() {
    // One hub row joins two incompatible spokes → two maximal tuples, both
    // containing the hub. Classic FD multiplicity.
    let hub = table! { "H"; ["k", "a"]; [1, "hub"] };
    let s1 = table! { "S1"; ["k", "b"]; [1, "left"] };
    let s2 = table! { "S2"; ["k", "b"]; [1, "right"] };
    let al = Alignment::by_headers(&[&hub, &s1, &s2]);
    let out = AliteFd::default()
        .integrate(&[&hub, &s1, &s2], &al)
        .unwrap();
    let expected = table! {
        "x"; ["k", "a", "b"];
        [1, "hub", "left"],
        [1, "hub", "right"],
    };
    assert!(
        out.table().same_content(&expected.renamed("FD(H, S1, S2)")),
        "got:\n{}",
        out.table()
    );
}

#[test]
fn all_engines_agree_on_fig2() {
    let t1 = table! {
        "T1"; ["Country", "City", "Rate"];
        ["Germany", "Berlin", 0.63],
        ["Spain", "Barcelona", 0.82],
    };
    let t3 = table! {
        "T3"; ["City", "Cases"];
        ["Berlin", 1_400_000],
        ["New Delhi", 2_000_000],
    };
    let al = Alignment::by_headers(&[&t1, &t3]);
    let reference = NaiveFd::default().integrate(&[&t1, &t3], &al).unwrap();
    for engine in engines() {
        let out = engine.integrate(&[&t1, &t3], &al).unwrap();
        assert!(
            out.table().same_content(reference.table()),
            "{} disagrees with reference",
            engine.name()
        );
    }
}
