//! Property-based tests for schema matching: the cannot-link invariant,
//! clustering determinism and similarity bounds on arbitrary small
//! integration sets.

use std::sync::Arc;

use dialite_align::{
    average_linkage_cluster, average_linkage_sweep, silhouette_score, HolisticMatcher, KbAnnotator,
};
use dialite_kb::curated::covid_kb;
use dialite_table::{Table, Value};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Average-linkage clustering as one merge loop per threshold — the
/// clustering the single-sequence sweep must reproduce at every cut.
fn per_cut_reference(sim: &[Vec<f64>], groups: &[usize], threshold: f64) -> Vec<u32> {
    let n = sim.len();
    if n == 0 {
        return Vec::new();
    }
    let mut members: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
    let mut cluster_groups: Vec<Vec<usize>> = (0..n).map(|i| vec![groups[i]]).collect();
    let mut active = vec![true; n];
    let avg_sim = |a: &[usize], b: &[usize]| -> f64 {
        let mut acc = 0.0;
        for &i in a {
            for &j in b {
                acc += sim[i][j];
            }
        }
        acc / (a.len() * b.len()) as f64
    };
    loop {
        let mut best: Option<(usize, usize, f64)> = None;
        for i in 0..n {
            if !active[i] {
                continue;
            }
            for j in i + 1..n {
                if !active[j]
                    || cluster_groups[i]
                        .iter()
                        .any(|g| cluster_groups[j].contains(g))
                {
                    continue;
                }
                let s = avg_sim(&members[i], &members[j]);
                if best.is_none_or(|(_, _, bs)| s > bs) {
                    best = Some((i, j, s));
                }
            }
        }
        match best {
            Some((i, j, s)) if s >= threshold => {
                let mj = std::mem::take(&mut members[j]);
                let gj = std::mem::take(&mut cluster_groups[j]);
                members[i].extend(mj);
                cluster_groups[i].extend(gj);
                active[j] = false;
            }
            _ => break,
        }
    }
    let mut order: Vec<&Vec<usize>> = (0..n).filter(|&i| active[i]).map(|i| &members[i]).collect();
    order.sort_by_key(|m| *m.iter().min().unwrap());
    let mut labels = vec![0u32; n];
    for (next, m) in order.into_iter().enumerate() {
        for &item in m {
            labels[item] = next as u32;
        }
    }
    labels
}

/// Silhouette with one scan per (item, cluster) — the score the one-pass
/// `silhouette_score` must reproduce to the bit.
fn silhouette_reference(sim: &[Vec<f64>], labels: &[u32]) -> f64 {
    let n = sim.len();
    let k = labels.iter().copied().max().map_or(0, |m| m as usize + 1);
    if n == 0 || k <= 1 || k == n {
        return 0.0;
    }
    let mut total = 0.0;
    for i in 0..n {
        let own = labels[i];
        let own_size = labels.iter().filter(|&&l| l == own).count();
        if own_size == 1 {
            continue;
        }
        let mut a = 0.0;
        for j in 0..n {
            if j != i && labels[j] == own {
                a += 1.0 - sim[i][j];
            }
        }
        a /= (own_size - 1) as f64;
        let mut b = f64::INFINITY;
        for other in (0..k as u32).filter(|&o| o != own) {
            let (mut d, mut cnt) = (0.0, 0usize);
            for j in 0..n {
                if labels[j] == other {
                    d += 1.0 - sim[i][j];
                    cnt += 1;
                }
            }
            if cnt > 0 {
                b = b.min(d / cnt as f64);
            }
        }
        let denom = a.max(b);
        if denom > 0.0 && b.is_finite() {
            total += (b - a) / denom;
        }
    }
    total / n as f64
}

/// A similarity or cut drawn to collide: a few fixed values (ties), NaN,
/// or uniform.
fn tie_prone(rng: &mut StdRng) -> f64 {
    match rng.gen_range(0..8u32) {
        0 => f64::NAN,
        1..=4 => [0.0, 0.25, 0.5, 1.0][rng.gen_range(0..4usize)],
        _ => rng.gen(),
    }
}

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        3 => "[a-z]{1,6}".prop_map(Value::Text),
        1 => (0i64..50).prop_map(Value::Int),
        1 => Just(Value::null_missing()),
    ]
}

fn arb_tables() -> impl Strategy<Value = Vec<Table>> {
    prop::collection::vec((1usize..4, 0usize..5), 1..4).prop_flat_map(|shapes| {
        let strategies: Vec<_> = shapes
            .into_iter()
            .enumerate()
            .map(|(i, (cols, rows))| {
                let names: Vec<String> = (0..cols).map(|c| format!("t{i}c{c}")).collect();
                prop::collection::vec(prop::collection::vec(arb_value(), cols), rows).prop_map(
                    move |data| {
                        Table::from_rows(&format!("T{i}"), &names, data).expect("fixed arity")
                    },
                )
            })
            .collect();
        strategies
    })
}

/// One long text column mixing knowledge-base entities of several leaf
/// types with random words: enough distinct values, and enough semantic
/// labels, that summing them in a different order changes low bits.
fn arb_wide_table() -> impl Strategy<Value = Table> {
    const KNOWN: [&str; 10] = [
        "Berlin", "Madrid", "Boston", "Toronto", "Mumbai", "Germany", "Spain", "India", "Canada",
        "Mexico",
    ];
    let cell = prop_oneof![
        (0usize..KNOWN.len()).prop_map(|i| Value::Text(KNOWN[i].to_string())),
        "[a-z]{1,6}".prop_map(Value::Text),
    ];
    prop::collection::vec(prop::collection::vec(cell, 1), 16..48)
        .prop_map(|rows| Table::from_rows("W", &["w"], rows).expect("one column"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Two columns of the same table must never share an integration ID
    /// (the core ALITE constraint), whatever the data looks like.
    #[test]
    fn cannot_link_invariant_holds(tables in arb_tables()) {
        let refs: Vec<&Table> = tables.iter().collect();
        let al = HolisticMatcher::default().align(&refs);
        for (t, table) in refs.iter().enumerate() {
            let mut seen = std::collections::HashSet::new();
            for c in 0..table.column_count() {
                prop_assert!(
                    seen.insert(al.id_of(t, c)),
                    "table {t} repeats an integration id"
                );
            }
        }
        // Every ID is used and named.
        for id in 0..al.num_ids() as u32 {
            prop_assert!(!al.columns_of(id).is_empty());
            prop_assert!(!al.name_of(id).is_empty());
        }
    }

    #[test]
    fn alignment_is_deterministic(tables in arb_tables(), wide in arb_wide_table()) {
        let refs: Vec<&Table> = tables.iter().collect();
        let a = HolisticMatcher::default().align(&refs);
        let b = HolisticMatcher::default().align(&refs);
        prop_assert_eq!(a, b);

        // Signatures rebuilt from the same tables (fresh token sets and
        // annotations, each with its own hash seed) agree to the bit, and
        // so does every pairwise similarity.
        let matcher = HolisticMatcher::default()
            .with_annotator(Arc::new(KbAnnotator::new(Arc::new(covid_kb()))));
        let refs: Vec<&Table> = refs.into_iter().chain([&wide]).collect();
        let first = matcher.signatures(&refs);
        let second = matcher.signatures(&refs);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (x, y) in first.iter().zip(&second) {
            prop_assert_eq!(bits(&x.embedding), bits(&y.embedding));
        }
        for i in 0..first.len() {
            for j in 0..first.len() {
                prop_assert_eq!(
                    matcher.similarity(&first[i], &first[j]).to_bits(),
                    matcher.similarity(&second[i], &second[j]).to_bits()
                );
            }
        }
    }

    /// One merge sequence read at each cut == one full merge loop per cut,
    /// on matrices with ties and NaNs, random cannot-link groups and cut
    /// lists (unsorted, repeated, NaN).
    #[test]
    fn sweep_equals_a_merge_loop_per_cut(
        n in 0usize..9,
        num_groups in 1usize..5,
        num_cuts in 0usize..6,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sim = vec![vec![1.0; n]; n];
        #[allow(clippy::needless_range_loop)] // symmetric fill needs both indices
        for i in 0..n {
            // Clustering never reads the diagonal; the silhouette must not.
            sim[i][i] = tie_prone(&mut rng);
            for j in i + 1..n {
                let s = tie_prone(&mut rng);
                sim[i][j] = s;
                sim[j][i] = s;
            }
        }
        let groups: Vec<usize> = (0..n).map(|_| rng.gen_range(0..num_groups)).collect();
        let cuts: Vec<f64> = (0..num_cuts).map(|_| tie_prone(&mut rng)).collect();
        let swept = average_linkage_sweep(&sim, &groups, &cuts);
        prop_assert_eq!(swept.len(), cuts.len());
        for (labels, &t) in swept.iter().zip(&cuts) {
            let reference = per_cut_reference(&sim, &groups, t);
            prop_assert_eq!(labels, &reference, "cut {}", t);
            prop_assert_eq!(&average_linkage_cluster(&sim, &groups, t), &reference);
            prop_assert_eq!(
                silhouette_score(&sim, labels).to_bits(),
                silhouette_reference(&sim, labels).to_bits()
            );
        }
    }

    #[test]
    fn cluster_labels_are_compact(
        n in 1usize..8,
        threshold in 0.0f64..1.0,
        seed in 0u64..1000,
    ) {
        // Random symmetric similarity matrix.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sim = vec![vec![0.0; n]; n];
        #[allow(clippy::needless_range_loop)] // symmetric fill needs both indices
        for i in 0..n {
            sim[i][i] = 1.0;
            for j in i + 1..n {
                let s: f64 = rng.gen();
                sim[i][j] = s;
                sim[j][i] = s;
            }
        }
        let groups: Vec<usize> = (0..n).map(|i| i % 3).collect();
        let labels = average_linkage_cluster(&sim, &groups, threshold);
        prop_assert_eq!(labels.len(), n);
        // Labels form a compact 0..k range.
        let max = labels.iter().copied().max().unwrap_or(0) as usize;
        for l in 0..=max {
            prop_assert!(labels.contains(&(l as u32)), "gap at label {l}");
        }
        // Cannot-link respected.
        for i in 0..n {
            for j in i + 1..n {
                if groups[i] == groups[j] {
                    prop_assert_ne!(labels[i], labels[j]);
                }
            }
        }
        // Silhouette is bounded.
        let s = silhouette_score(&sim, &labels);
        prop_assert!((-1.0..=1.0).contains(&s));
    }
}
