//! Constrained average-linkage agglomerative clustering and a silhouette
//! criterion — the machinery behind ALITE's integration-ID assignment.
//!
//! The cut threshold never changes *which* pair average linkage merges
//! next, only where merging stops. So a silhouette sweep runs the merge
//! sequence once, down to its lowest cut, and reads every cut's clustering
//! off a prefix of that one sequence ([`average_linkage_sweep`]).

/// Average-linkage agglomerative clustering with cannot-link groups.
///
/// * `sim` — symmetric pairwise similarity matrix in `[0, 1]`.
/// * `groups` — items with equal group id can never share a cluster
///   (columns of the same table).
/// * `threshold` — merging stops when the best average inter-cluster
///   similarity falls below it.
///
/// Returns compact cluster labels `0..k` in first-appearance order.
pub fn average_linkage_cluster(sim: &[Vec<f64>], groups: &[usize], threshold: f64) -> Vec<u32> {
    labels_after(sim.len(), &merge_sequence(sim, groups, threshold))
}

/// [`average_linkage_cluster`] at every threshold of `cuts`, in `cuts`
/// order, from one merge sequence: cut `t` keeps every merge before the
/// first whose similarity is not `>= t`.
///
/// ```
/// use dialite_align::{average_linkage_cluster, average_linkage_sweep};
/// let sim = vec![
///     vec![1.0, 0.9, 0.2],
///     vec![0.9, 1.0, 0.4],
///     vec![0.2, 0.4, 1.0],
/// ];
/// let groups = [0, 1, 2];
/// let cuts = [0.95, 0.5, 0.1];
/// let swept = average_linkage_sweep(&sim, &groups, &cuts);
/// assert_eq!(swept, vec![vec![0, 1, 2], vec![0, 0, 1], vec![0, 0, 0]]);
/// for (labels, &t) in swept.iter().zip(&cuts) {
///     assert_eq!(labels, &average_linkage_cluster(&sim, &groups, t));
/// }
/// ```
pub fn average_linkage_sweep(sim: &[Vec<f64>], groups: &[usize], cuts: &[f64]) -> Vec<Vec<u32>> {
    if cuts.is_empty() {
        return Vec::new();
    }
    // `f64::min` skips NaN cuts; they keep no merge whatever the floor.
    let floor = cuts.iter().copied().fold(f64::INFINITY, f64::min);
    let merges = merge_sequence(sim, groups, floor);
    cuts.iter()
        .map(|&t| {
            let kept = merges.iter().take_while(|m| m.sim >= t).count();
            labels_after(sim.len(), &merges[..kept])
        })
        .collect()
}

/// One step of the merge sequence: cluster `absorbed` joins cluster `kept`
/// at average similarity `sim`. A cluster is named by its smallest member,
/// and `kept < absorbed`.
struct Merge {
    kept: usize,
    absorbed: usize,
    sim: f64,
}

/// The average-linkage merge sequence, stopped at the first best merge
/// whose similarity is not `>= floor`.
fn merge_sequence(sim: &[Vec<f64>], groups: &[usize], floor: f64) -> Vec<Merge> {
    let n = sim.len();
    assert_eq!(groups.len(), n, "one group id per item");
    for row in sim {
        assert_eq!(row.len(), n, "similarity matrix must be square");
    }
    // Each cluster: member list + set of groups represented.
    let mut members: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
    let mut cluster_groups: Vec<Vec<usize>> = (0..n).map(|i| vec![groups[i]]).collect();
    let mut active: Vec<bool> = vec![true; n];
    let mut merges = Vec::new();

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
        for i in 0..members.len() {
            if !active[i] {
                continue;
            }
            for j in i + 1..members.len() {
                if !active[j] {
                    continue;
                }
                // Cannot-link: clusters sharing any group cannot merge.
                if cluster_groups[i]
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
            Some((i, j, s)) if s >= floor => {
                let (mj, gj) = (
                    std::mem::take(&mut members[j]),
                    std::mem::take(&mut cluster_groups[j]),
                );
                members[i].extend(mj);
                cluster_groups[i].extend(gj);
                active[j] = false;
                merges.push(Merge {
                    kept: i,
                    absorbed: j,
                    sim: s,
                });
            }
            _ => break,
        }
    }
    merges
}

/// Labels of `n` items after replaying `merges`: compact, in order of each
/// cluster's smallest member.
fn labels_after(n: usize, merges: &[Merge]) -> Vec<u32> {
    // `cluster[x]` names x's cluster by its smallest member, so the first
    // item seen of each cluster is the one that names it.
    let mut cluster: Vec<usize> = (0..n).collect();
    for m in merges {
        for c in cluster.iter_mut().filter(|c| **c == m.absorbed) {
            *c = m.kept;
        }
    }
    let mut label_of = vec![u32::MAX; n];
    let mut next = 0u32;
    cluster
        .iter()
        .map(|&c| {
            if label_of[c] == u32::MAX {
                label_of[c] = next;
                next += 1;
            }
            label_of[c]
        })
        .collect()
}

/// Mean silhouette score of a clustering, computed on `1 − sim` distances.
///
/// Singletons score 0 (the convention of scikit-learn). Returns 0 when all
/// items share one cluster or every item is a singleton — both cuts carry no
/// structure to score.
pub fn silhouette_score(sim: &[Vec<f64>], labels: &[u32]) -> f64 {
    let n = sim.len();
    if n == 0 {
        return 0.0;
    }
    let k = labels.iter().copied().max().map_or(0, |m| m as usize + 1);
    if k <= 1 || k == n {
        return 0.0;
    }
    let mut size = vec![0usize; k];
    for &l in labels {
        size[l as usize] += 1;
    }
    // Per item, one pass sums its distance to every cluster; each cluster's
    // sum still adds its members in index order.
    let mut dist = vec![0.0f64; k];
    let mut total = 0.0;
    for i in 0..n {
        let own = labels[i] as usize;
        if size[own] == 1 {
            continue; // silhouette 0
        }
        dist.iter_mut().for_each(|d| *d = 0.0);
        for j in 0..n {
            if j != i {
                dist[labels[j] as usize] += 1.0 - sim[i][j];
            }
        }
        let a = dist[own] / (size[own] - 1) as f64;
        let mut b = f64::INFINITY;
        for other in 0..k {
            if other != own && size[other] > 0 {
                b = b.min(dist[other] / size[other] as f64);
            }
        }
        let denom = a.max(b);
        if denom > 0.0 && b.is_finite() {
            total += (b - a) / denom;
        }
    }
    total / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two obvious blobs: items 0-1 similar, 2-3 similar, across ~0.
    fn two_blobs() -> Vec<Vec<f64>> {
        vec![
            vec![1.0, 0.9, 0.1, 0.0],
            vec![0.9, 1.0, 0.0, 0.1],
            vec![0.1, 0.0, 1.0, 0.8],
            vec![0.0, 0.1, 0.8, 1.0],
        ]
    }

    #[test]
    fn clusters_obvious_blobs() {
        let labels = average_linkage_cluster(&two_blobs(), &[0, 1, 0, 1], 0.5);
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[2], labels[3]);
        assert_ne!(labels[0], labels[2]);
    }

    #[test]
    fn cannot_link_blocks_same_group_merges() {
        // Items 0 and 1 are nearly identical but share a group.
        let sim = vec![vec![1.0, 0.99], vec![0.99, 1.0]];
        let labels = average_linkage_cluster(&sim, &[7, 7], 0.1);
        assert_ne!(labels[0], labels[1]);
    }

    #[test]
    fn cannot_link_propagates_through_merges() {
        // 0 (group A) merges with 1 (group B); then 2 (group A) may not join
        // the merged cluster even though it is similar to 1.
        let sim = vec![
            vec![1.0, 0.95, 0.0],
            vec![0.95, 1.0, 0.94],
            vec![0.0, 0.94, 1.0],
        ];
        let labels = average_linkage_cluster(&sim, &[0, 1, 0], 0.5);
        assert_eq!(labels[0], labels[1]);
        assert_ne!(labels[2], labels[0]);
    }

    #[test]
    fn threshold_stops_merging() {
        let labels = average_linkage_cluster(&two_blobs(), &[0, 1, 0, 1], 0.95);
        // Nothing reaches 0.95 average similarity.
        let unique: std::collections::HashSet<u32> = labels.iter().copied().collect();
        assert_eq!(unique.len(), 4);
    }

    #[test]
    fn zero_threshold_merges_all_compatible() {
        let labels = average_linkage_cluster(&two_blobs(), &[0, 1, 2, 3], 0.0);
        let unique: std::collections::HashSet<u32> = labels.iter().copied().collect();
        assert_eq!(unique.len(), 1);
    }

    #[test]
    fn empty_input() {
        let labels = average_linkage_cluster(&[], &[], 0.5);
        assert!(labels.is_empty());
        assert_eq!(silhouette_score(&[], &[]), 0.0);
    }

    #[test]
    fn labels_are_compact_and_deterministic() {
        let labels = average_linkage_cluster(&two_blobs(), &[0, 1, 0, 1], 0.5);
        assert_eq!(labels, vec![0, 0, 1, 1]);
    }

    #[test]
    fn silhouette_prefers_true_structure() {
        let sim = two_blobs();
        let good = silhouette_score(&sim, &[0, 0, 1, 1]);
        let bad = silhouette_score(&sim, &[0, 1, 0, 1]);
        assert!(good > bad, "good {good} should beat bad {bad}");
        assert!(good > 0.0);
    }

    #[test]
    fn silhouette_degenerate_cuts_are_zero() {
        let sim = two_blobs();
        assert_eq!(silhouette_score(&sim, &[0, 0, 0, 0]), 0.0);
        assert_eq!(silhouette_score(&sim, &[0, 1, 2, 3]), 0.0);
    }

    #[test]
    #[should_panic(expected = "square")]
    fn non_square_matrix_panics() {
        let _ = average_linkage_cluster(&[vec![1.0, 0.5]], &[0], 0.5);
    }
}
