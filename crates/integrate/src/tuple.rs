//! Aligned tuples over the integrated schema, and the core FD relations:
//! consistency, connection, merge and subsumption.
//!
//! Tuples are **dictionary-encoded**: every cell is a `u32` value-id from a
//! [`ValueInterner`] built once by [`outer_union`] at ingest. The FD
//! relations are then pure integer compares — no `Value` is cloned or
//! hashed anywhere in the complementation fixpoint or the subsumption pass.
//! Ids are resolved back to [`dialite_table::Value`]s only at the result
//! boundary, so the crate's public engine APIs stay `Value`-typed. The
//! join operators hold the same outer union as `Flat` arenas instead of
//! [`AlignedTuple`]s: a left-to-right chain joins each table once.

use std::collections::BTreeSet;

use dialite_align::Alignment;
use dialite_table::{Table, Tid, ValueInterner};

/// A tuple over the integrated schema (one slot per integration ID), with
/// its witness TID set — the `{t1, t7}` provenance of paper Fig. 3.
///
/// `values` holds interned value-ids: `ValueInterner::NULL_PRODUCED` (`⊥`),
/// `ValueInterner::NULL_MISSING` (`±`), or an id ≥
/// `ValueInterner::FIRST_VALUE_ID` for a concrete value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlignedTuple {
    /// One interned value-id per integration ID.
    pub values: Vec<u32>,
    /// Source tuples merged into this one (sorted set for determinism).
    pub tids: BTreeSet<Tid>,
}

/// Packed inverted-index key: `(column << 32) | value_id`. One `u64` compare
/// and hash replaces the seed's `(u32, Value)` key that cloned a `Value`
/// (often a heap string) on every probe.
#[inline]
pub(crate) fn slot_key(col: usize, vid: u32) -> u64 {
    ((col as u64) << 32) | u64::from(vid)
}

/// One slot of [`AlignedTuple::merge`]: a non-null `a` wins, else the
/// larger id, so a missing null (`±`) dominates a produced one (`⊥`).
#[inline]
pub(crate) fn merge_id(a: u32, b: u32) -> u32 {
    if ValueInterner::is_null_id(a) {
        a.max(b)
    } else {
        a
    }
}

impl AlignedTuple {
    /// Consistency: agree wherever both are non-null (nulls are wildcards).
    pub(crate) fn consistent(&self, other: &AlignedTuple) -> bool {
        self.values
            .iter()
            .zip(&other.values)
            .all(|(&a, &b)| a == b || ValueInterner::is_null_id(a) || ValueInterner::is_null_id(b))
    }

    /// Connection: at least one attribute where both are non-null and equal
    /// (null-rejecting equality, as in the join semantics of §3.2).
    pub(crate) fn connected(&self, other: &AlignedTuple) -> bool {
        self.values
            .iter()
            .zip(&other.values)
            .any(|(&a, &b)| a == b && !ValueInterner::is_null_id(a))
    }

    /// Complementable = consistent ∧ connected: the merge condition of
    /// ALITE's complementation step.
    pub(crate) fn complementable(&self, other: &AlignedTuple) -> bool {
        self.consistent(other) && self.connected(other)
    }

    /// Merge two (complementable) tuples: non-null values win; a *missing*
    /// null dominates a *produced* null so that the output distinguishes
    /// "source said null" (`±`) from "no source had the attribute" (`⊥`),
    /// as in paper Figs. 2–3. Over value-ids this is a single branch per
    /// slot: the reserved null ids order produced < missing < values, so
    /// the two-null case is `max`.
    pub fn merge(&self, other: &AlignedTuple) -> AlignedTuple {
        debug_assert!(self.consistent(other), "merging inconsistent tuples");
        let values = self
            .values
            .iter()
            .zip(&other.values)
            .map(|(&a, &b)| merge_id(a, b))
            .collect();
        let tids = self.tids.union(&other.tids).copied().collect();
        AlignedTuple { values, tids }
    }

    /// Subsumption: `self ⊒ other` — self agrees with other on every
    /// attribute where other is non-null (so other adds no information).
    pub fn subsumes(&self, other: &AlignedTuple) -> bool {
        other
            .values
            .iter()
            .zip(&self.values)
            .all(|(&o, &s)| ValueInterner::is_null_id(o) || o == s)
    }

    /// Content key for deduplication: the value-ids with both null kinds
    /// collapsed to one id, because content equality treats any null as
    /// equal to any other null (paper Fig. 8(b)).
    pub fn content_key(&self) -> Vec<u32> {
        self.values
            .iter()
            .map(|&v| {
                if ValueInterner::is_null_id(v) {
                    ValueInterner::NULL_PRODUCED
                } else {
                    v
                }
            })
            .collect()
    }

    /// Number of non-null attributes.
    pub fn non_null_count(&self) -> usize {
        self.values
            .iter()
            .filter(|&&v| !ValueInterner::is_null_id(v))
            .count()
    }

    /// Resolve the value-ids back to owned [`dialite_table::Value`]s.
    pub fn resolve(&self, interner: &ValueInterner) -> Vec<dialite_table::Value> {
        self.values
            .iter()
            .map(|&v| interner.resolve(v).clone())
            .collect()
    }
}

/// Row slot of a table that did not contribute to a tuple.
const ABSENT: u32 = u32::MAX;

/// Tuples in two flat arenas: `width` value-ids and one row slot per input
/// table each. An input row, or a tuple of a left-to-right join chain,
/// holds at most one row of each table, so its slots *are* its witness set.
pub(crate) struct Flat {
    pub(crate) width: usize,
    pub(crate) tables: usize,
    pub(crate) values: Vec<u32>,
    rows: Vec<u32>,
}

impl Flat {
    pub(crate) fn new(width: usize, tables: usize) -> Flat {
        Flat {
            width,
            tables: tables.max(1),
            values: Vec::new(),
            rows: Vec::new(),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.rows.len() / self.tables
    }

    pub(crate) fn values(&self, i: usize) -> &[u32] {
        &self.values[i * self.width..(i + 1) * self.width]
    }

    fn slots(&self, i: usize) -> &[u32] {
        &self.rows[i * self.tables..(i + 1) * self.tables]
    }

    /// The witness set of tuple `i` as ordered `(table, row)` pairs.
    pub(crate) fn tids(&self, i: usize) -> impl Iterator<Item = (u32, u32)> + Clone + '_ {
        let slots = (0u32..).zip(self.slots(i));
        slots.filter(|&(_, &r)| r != ABSENT).map(|(t, &r)| (t, r))
    }

    /// Append tuple `i` of `from`, merged with tuple `j` of `with` when
    /// given: [`AlignedTuple::merge`] without building either tuple. The
    /// two witness sets are disjoint, so the slots merge by `min`.
    pub(crate) fn push(&mut self, from: &Flat, i: usize, with: Option<(&Flat, usize)>) {
        match with {
            Some((other, j)) => {
                let slots = from.slots(i).iter().zip(other.slots(j));
                self.rows.extend(slots.map(|(&a, &b)| a.min(b)));
                let values = from.values(i).iter().zip(other.values(j));
                self.values.extend(values.map(|(&a, &b)| merge_id(a, b)));
            }
            None => {
                self.rows.extend_from_slice(from.slots(i));
                self.values.extend_from_slice(from.values(i));
            }
        }
    }
}

/// [`outer_union`] laid out flat, before any [`AlignedTuple`] is built:
/// the column names, the schema slots each table covers, one tuple per
/// input row (tables in order, then rows), and the interner.
///
/// # Panics
/// If `alignment` does not cover exactly the given tables/columns.
pub(crate) fn flat_union(
    tables: &[&Table],
    alignment: &Alignment,
) -> (Vec<String>, Vec<Vec<usize>>, Flat, ValueInterner) {
    assert_eq!(
        alignment.assignments().len(),
        tables.len(),
        "alignment covers a different number of tables"
    );
    // Order integration IDs by first appearance (paper figures' order).
    let mut slot_of = vec![usize::MAX; alignment.num_ids()];
    let mut names = Vec::new();
    let mut coverage = Vec::with_capacity(tables.len());
    for (t, table) in tables.iter().enumerate() {
        assert_eq!(
            alignment.assignments()[t].len(),
            table.column_count(),
            "alignment covers a different number of columns for table {t}"
        );
        let slots = (0..table.column_count()).map(|c| {
            let id = alignment.id_of(t, c) as usize;
            if slot_of[id] == usize::MAX {
                slot_of[id] = names.len();
                names.push(alignment.name_of(id as u32).to_string());
            }
            slot_of[id]
        });
        coverage.push(slots.collect());
    }

    let mut flat = Flat::new(names.len(), tables.len());
    let mut interner = ValueInterner::new();
    for (t, table) in tables.iter().enumerate() {
        for (r, row) in table.rows().enumerate() {
            let start = flat.values.len();
            flat.values
                .resize(start + flat.width, ValueInterner::NULL_PRODUCED);
            for (c, v) in row.iter().enumerate() {
                let slot = slot_of[alignment.id_of(t, c) as usize];
                flat.values[start + slot] = interner.intern(v);
            }
            let slots = (0..flat.tables).map(|u| if u == t { r as u32 } else { ABSENT });
            flat.rows.extend(slots);
        }
    }
    (names, coverage, flat, interner)
}

/// Compute the outer union of an integration set over the aligned schema:
/// every input row becomes an [`AlignedTuple`] with produced nulls in the
/// attributes its table does not have. Returns the integrated column names
/// (integration IDs ordered by first appearance), the tuples, and the
/// [`ValueInterner`] their value-ids refer to. Each distinct cell value is
/// interned exactly once here; the fixpoint never creates new values, so
/// the interner is immutable downstream.
///
/// # Panics
/// If `alignment` does not cover exactly the given tables/columns.
pub fn outer_union(
    tables: &[&Table],
    alignment: &Alignment,
) -> (Vec<String>, Vec<AlignedTuple>, ValueInterner) {
    let (names, _, flat, interner) = flat_union(tables, alignment);
    let tuples = (0..flat.len())
        .map(|i| AlignedTuple {
            values: flat.values(i).to_vec(),
            tids: flat.tids(i).map(|(t, r)| Tid::new(t, r)).collect(),
        })
        .collect();
    (names, tuples, interner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dialite_align::Alignment;
    use dialite_table::{table, NullKind, Value};

    fn tup(values: Vec<u32>) -> AlignedTuple {
        AlignedTuple {
            values,
            tids: BTreeSet::new(),
        }
    }

    /// Intern a row of `Value`s for the id-level tests.
    fn row(interner: &mut ValueInterner, values: &[Value]) -> Vec<u32> {
        values.iter().map(|v| interner.intern(v)).collect()
    }

    #[test]
    fn consistency_treats_nulls_as_wildcards() {
        let mut it = ValueInterner::new();
        let a = tup(row(&mut it, &[Value::Int(1), Value::null_missing()]));
        let b = tup(row(&mut it, &[Value::Int(1), Value::Int(2)]));
        let c = tup(row(&mut it, &[Value::Int(9), Value::Int(2)]));
        assert!(a.consistent(&b));
        assert!(b.consistent(&a));
        assert!(!b.consistent(&c));
    }

    #[test]
    fn consistency_detects_conflicts() {
        let mut it = ValueInterner::new();
        let a = tup(row(&mut it, &[Value::Int(1), Value::null_missing()]));
        let c = tup(row(&mut it, &[Value::Int(9), Value::Int(2)]));
        assert!(!a.consistent(&c));
    }

    #[test]
    fn connection_requires_shared_non_null_equal() {
        let mut it = ValueInterner::new();
        let a = tup(row(&mut it, &[Value::Int(1), Value::null_missing()]));
        let b = tup(row(&mut it, &[Value::Int(1), Value::Int(2)]));
        let c = tup(row(&mut it, &[Value::null_produced(), Value::Int(2)]));
        assert!(a.connected(&b));
        assert!(!a.connected(&c), "nulls never connect");
        let d = tup(row(
            &mut it,
            &[Value::null_missing(), Value::null_missing()],
        ));
        assert!(!d.connected(&d), "all-null tuples connect to nothing");
    }

    #[test]
    fn merge_prefers_values_then_missing_nulls() {
        let mut it = ValueInterner::new();
        let a = AlignedTuple {
            values: row(
                &mut it,
                &[Value::Int(1), Value::null_missing(), Value::null_produced()],
            ),
            tids: [Tid::new(0, 0)].into_iter().collect(),
        };
        let b = AlignedTuple {
            values: row(
                &mut it,
                &[
                    Value::Int(1),
                    Value::null_produced(),
                    Value::null_produced(),
                ],
            ),
            tids: [Tid::new(1, 0)].into_iter().collect(),
        };
        let m = a.merge(&b);
        assert_eq!(it.resolve(m.values[0]), &Value::Int(1));
        assert_eq!(m.values[1], ValueInterner::NULL_MISSING);
        assert_eq!(m.values[2], ValueInterner::NULL_PRODUCED);
        assert_eq!(m.tids.len(), 2);
    }

    #[test]
    fn subsumption_examples_from_fig8() {
        let mut it = ValueInterner::new();
        // f12 = (JnJ, ⊥, USA) subsumes t12-as-aligned = (JnJ, ±, ⊥).
        let f12 = tup(row(
            &mut it,
            &["JnJ".into(), Value::null_produced(), "USA".into()],
        ));
        let t12 = tup(row(
            &mut it,
            &["JnJ".into(), Value::null_missing(), Value::null_produced()],
        ));
        assert!(f12.subsumes(&t12));
        assert!(!t12.subsumes(&f12));
        // Every tuple subsumes itself.
        assert!(f12.subsumes(&f12));
        // f13 (J&J,…) does not subsume f12 (JnJ,…).
        let f13 = tup(row(
            &mut it,
            &["J&J".into(), "FDA".into(), "United States".into()],
        ));
        assert!(!f13.subsumes(&f12));
    }

    #[test]
    fn content_key_collapses_null_kinds() {
        let mut it = ValueInterner::new();
        let a = tup(row(&mut it, &[Value::Int(1), Value::null_missing()]));
        let b = tup(row(&mut it, &[Value::Int(1), Value::null_produced()]));
        assert_ne!(a.values, b.values, "ids keep the null kinds apart");
        assert_eq!(a.content_key(), b.content_key());
    }

    #[test]
    fn masks_and_counts() {
        let mut it = ValueInterner::new();
        let t = tup(row(
            &mut it,
            &[Value::Int(1), Value::null_missing(), Value::Int(3)],
        ));
        assert_eq!(t.non_null_count(), 2);
        let one = it.intern(&Value::Int(1));
        let wide = tup(vec![one; 65]);
        assert_eq!(wide.non_null_count(), 65);
    }

    #[test]
    fn slot_key_packs_column_and_id() {
        assert_eq!(slot_key(0, 2), 2);
        assert_eq!(slot_key(1, 0), 1 << 32);
        assert_ne!(slot_key(1, 2), slot_key(2, 1));
    }

    #[test]
    fn outer_union_pads_with_produced_nulls_and_orders_by_first_appearance() {
        let t1 = table! { "T1"; ["country", "city"]; ["Germany", "Berlin"] };
        let t3 = table! { "T3"; ["city", "cases"]; ["Berlin", 1_400_000] };
        let al = Alignment::by_headers(&[&t1, &t3]);
        let (names, tuples, interner) = outer_union(&[&t1, &t3], &al);
        assert_eq!(names, vec!["country", "city", "cases"]);
        assert_eq!(tuples.len(), 2);
        // T1 row: cases is produced-null.
        assert_eq!(tuples[0].values[2], ValueInterner::NULL_PRODUCED);
        // T3 row: country is produced-null, city set.
        assert!(ValueInterner::is_null_id(tuples[1].values[0]));
        assert_eq!(
            interner.resolve(tuples[1].values[1]),
            &Value::Text("Berlin".into())
        );
        // "Berlin" appears in both tables but is interned once.
        assert_eq!(tuples[0].values[1], tuples[1].values[1]);
        assert_eq!(tuples[1].tids.iter().next().copied(), Some(Tid::new(1, 0)));
    }

    #[test]
    fn outer_union_preserves_missing_nulls() {
        let t = dialite_table::Table::from_rows("t", &["a"], vec![vec![Value::null_missing()]])
            .unwrap();
        let al = Alignment::by_headers(&[&t]);
        let (_, tuples, interner) = outer_union(&[&t], &al);
        assert_eq!(tuples[0].values[0], ValueInterner::NULL_MISSING);
        assert!(matches!(
            interner.resolve(tuples[0].values[0]),
            Value::Null(NullKind::Missing)
        ));
    }

    #[test]
    #[should_panic(expected = "different number of tables")]
    fn alignment_table_count_mismatch_panics() {
        let t = table! { "t"; ["a"]; [1] };
        let al = Alignment::by_headers(&[&t]);
        let other = table! { "o"; ["a"]; [1] };
        let _ = outer_union(&[&t, &other], &al);
    }
}
