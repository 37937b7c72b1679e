//! Subsumption removal: dropping output tuples that add no information.
//!
//! Two variants share semantics and differ in cost: a quadratic reference
//! scan and ALITE's index-accelerated pass.
//! Both operate on dictionary-encoded tuples: content dedup sorts by
//! value-ids and the inverted index keys on packed `(col, id)` words, so
//! neither pass touches a [`dialite_table::Value`].

use std::cmp::Ordering;
use std::collections::HashMap;

use crate::tuple::{slot_key, AlignedTuple};
use dialite_table::ValueInterner;

/// A tuple's content: its value-ids with both null kinds as one id
/// ([`AlignedTuple::content_key`], in the same order, without allocating).
fn content(values: &[u32]) -> impl Iterator<Item = u32> + '_ {
    values.iter().map(|&v| v.max(ValueInterner::NULL_MISSING))
}

/// Content dedup by one sort (paper Fig. 8(b): `f12 = {t16}`, not
/// `{t12, t16}`): tuple indices `0..n` sorted by `content`, then insertion
/// order, lay content-equal tuples side by side with the first-inserted at
/// the head. Each group yields `(head, best)`: the head keeps its values,
/// and `best` is the tuple whose witness set is least by `witness`
/// (smallest `(len, tids)`). Groups come out in `content` order.
pub(crate) fn dedup_groups(
    n: usize,
    content: impl Fn(usize, usize) -> Ordering,
    witness: impl Fn(usize, usize) -> Ordering,
) -> Vec<(usize, usize)> {
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_unstable_by(|&a, &b| content(a, b).then(a.cmp(&b)));
    order
        .chunk_by(|&a, &b| content(a, b).is_eq())
        .map(|group| {
            let best = group.iter().copied().min_by(|&a, &b| witness(a, b));
            (group[0], best.expect("groups are non-empty"))
        })
        .collect()
}

/// Deduplicate by content with [`dedup_groups`], ordered by decreasing
/// non-null count first: the order the indexed pass probes in.
pub(crate) fn dedup_content(mut tuples: Vec<AlignedTuple>) -> Vec<AlignedTuple> {
    let non_null: Vec<usize> = tuples.iter().map(AlignedTuple::non_null_count).collect();
    let kept = dedup_groups(
        tuples.len(),
        |a, b| {
            let by_content = || content(&tuples[a].values).cmp(content(&tuples[b].values));
            non_null[b].cmp(&non_null[a]).then_with(by_content)
        },
        |a, b| {
            (tuples[a].tids.len(), &tuples[a].tids).cmp(&(tuples[b].tids.len(), &tuples[b].tids))
        },
    );
    kept.into_iter()
        .map(|(head, best)| {
            let tids = std::mem::take(&mut tuples[best].tids);
            let values = std::mem::take(&mut tuples[head].values);
            AlignedTuple { values, tids }
        })
        .collect()
}

/// Quadratic reference implementation: keep `t` unless some other tuple with
/// different content subsumes it. Input is content-deduplicated first.
pub fn remove_subsumed_naive(tuples: Vec<AlignedTuple>) -> Vec<AlignedTuple> {
    let tuples = dedup_content(tuples);
    let mut keep = Vec::with_capacity(tuples.len());
    'outer: for (i, t) in tuples.iter().enumerate() {
        for (j, other) in tuples.iter().enumerate() {
            if i != j && other.subsumes(t) {
                // Content is deduplicated, so subsumption here is strict
                // unless both subsume each other with equal content — which
                // dedup ruled out.
                continue 'outer;
            }
        }
        keep.push(t.clone());
    }
    keep
}

/// ALITE's accelerated pass: process tuples in decreasing non-null count; a
/// subsumer of `t` must agree with `t` on *every* non-null attribute, so it
/// must appear in the posting list of any one of them — we probe the first.
/// All-null tuples are subsumed by anything non-empty.
pub fn remove_subsumed_indexed(tuples: Vec<AlignedTuple>) -> Vec<AlignedTuple> {
    let tuples = dedup_content(tuples);
    let mut kept: Vec<AlignedTuple> = Vec::with_capacity(tuples.len());
    let mut index: HashMap<u64, Vec<usize>> = HashMap::new();
    for t in tuples {
        let first_non_null = t
            .values
            .iter()
            .enumerate()
            .find(|(_, &v)| !ValueInterner::is_null_id(v))
            .map(|(c, &v)| slot_key(c, v));
        let subsumed = match first_non_null {
            Some(key) => index
                .get(&key)
                .map(|cands| cands.iter().any(|&k| kept[k].subsumes(&t)))
                .unwrap_or(false),
            // All-null tuple: subsumed by any kept tuple (vacuous agreement).
            None => !kept.is_empty(),
        };
        if subsumed {
            continue;
        }
        let idx = kept.len();
        for (c, &v) in t.values.iter().enumerate() {
            if !ValueInterner::is_null_id(v) {
                index.entry(slot_key(c, v)).or_default().push(idx);
            }
        }
        kept.push(t);
    }
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use dialite_table::{Tid, Value};
    use std::collections::BTreeSet;

    /// A tiny fixed dictionary so tests can write ids directly: id 2 ↔ 1,
    /// id 3 ↔ 2, id 4 ↔ 3, id 5 ↔ 9.
    fn interner() -> ValueInterner {
        let mut it = ValueInterner::new();
        for v in [1i64, 2, 3, 9] {
            it.intern(&Value::Int(v));
        }
        it
    }

    fn vid(it: &ValueInterner, v: i64) -> u32 {
        it.get(&Value::Int(v)).expect("in the fixed dictionary")
    }

    fn tup(values: Vec<u32>, tids: &[(u32, u32)]) -> AlignedTuple {
        AlignedTuple {
            values,
            tids: tids.iter().map(|&(t, r)| Tid::new(t, r)).collect(),
        }
    }

    fn contents(mut tuples: Vec<AlignedTuple>) -> Vec<Vec<u32>> {
        tuples.sort_by(|a, b| a.values.cmp(&b.values));
        tuples.into_iter().map(|t| t.values).collect()
    }

    const MISSING: u32 = ValueInterner::NULL_MISSING;
    const PRODUCED: u32 = ValueInterner::NULL_PRODUCED;

    #[test]
    fn dedup_keeps_smallest_witness_set() {
        let it = interner();
        let a = tup(vec![vid(&it, 1)], &[(0, 0), (1, 0)]);
        let b = tup(vec![vid(&it, 1)], &[(2, 0)]);
        let out = dedup_content(vec![a, b]);
        assert_eq!(out.len(), 1);
        assert_eq!(
            out[0].tids,
            [Tid::new(2, 0)].into_iter().collect::<BTreeSet<_>>()
        );
    }

    #[test]
    fn dedup_treats_null_kinds_as_equal_content() {
        let it = interner();
        let a = tup(vec![vid(&it, 1), MISSING], &[(0, 0)]);
        let b = tup(vec![vid(&it, 1), PRODUCED], &[(1, 0)]);
        assert_eq!(dedup_content(vec![a, b]).len(), 1);
    }

    #[test]
    fn dedup_keeps_first_values_with_the_smallest_witness_set() {
        let it = interner();
        let a = tup(vec![vid(&it, 1), MISSING], &[(0, 0), (1, 0)]);
        let b = tup(vec![vid(&it, 1), PRODUCED], &[(2, 0)]);
        let out = dedup_content(vec![a, b]);
        assert_eq!(out, vec![tup(vec![vid(&it, 1), MISSING], &[(2, 0)])]);
    }

    #[test]
    fn strictly_subsumed_tuples_are_removed() {
        let it = interner();
        let full = tup(vec![vid(&it, 1), vid(&it, 2)], &[(0, 0), (1, 0)]);
        let part = tup(vec![vid(&it, 1), PRODUCED], &[(0, 0)]);
        let out = remove_subsumed_naive(vec![full.clone(), part.clone()]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].values, full.values);
        let out = remove_subsumed_indexed(vec![part, full.clone()]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].values, full.values);
    }

    #[test]
    fn incomparable_tuples_all_kept() {
        let it = interner();
        let a = tup(vec![vid(&it, 1), PRODUCED], &[(0, 0)]);
        let b = tup(vec![PRODUCED, vid(&it, 2)], &[(1, 0)]);
        let c = tup(vec![vid(&it, 9), vid(&it, 2)], &[(2, 0)]);
        let naive = remove_subsumed_naive(vec![a.clone(), b.clone(), c.clone()]);
        // b IS subsumed by c (b non-null only at col1, c agrees there).
        assert_eq!(naive.len(), 2);
        let indexed = remove_subsumed_indexed(vec![a, b, c]);
        assert_eq!(contents(naive), contents(indexed));
    }

    #[test]
    fn all_null_tuple_subsumed_by_anything() {
        let it = interner();
        let empty = tup(vec![MISSING, MISSING], &[(0, 0)]);
        let something = tup(vec![vid(&it, 1), PRODUCED], &[(1, 0)]);
        assert_eq!(
            remove_subsumed_naive(vec![empty.clone(), something.clone()]).len(),
            1
        );
        assert_eq!(
            remove_subsumed_indexed(vec![empty.clone(), something]).len(),
            1
        );
        // …but kept when alone.
        assert_eq!(remove_subsumed_indexed(vec![empty]).len(), 1);
    }

    #[test]
    fn naive_and_indexed_agree_on_chains() {
        let it = interner();
        // a ⊑ b ⊑ c chain plus an incomparable d.
        let a = tup(vec![vid(&it, 1), PRODUCED, PRODUCED], &[(0, 0)]);
        let b = tup(vec![vid(&it, 1), vid(&it, 2), PRODUCED], &[(1, 0)]);
        let c = tup(vec![vid(&it, 1), vid(&it, 2), vid(&it, 3)], &[(2, 0)]);
        let d = tup(vec![vid(&it, 9), PRODUCED, PRODUCED], &[(3, 0)]);
        let input = vec![a, b, c.clone(), d.clone()];
        let naive = remove_subsumed_naive(input.clone());
        let indexed = remove_subsumed_indexed(input);
        assert_eq!(contents(naive.clone()), contents(indexed));
        assert_eq!(naive.len(), 2);
        let cs = contents(naive);
        assert!(cs.contains(&c.values));
        assert!(cs.contains(&d.values));
    }
}
