//! Cluster extraction from a score vector.
//!
//! The paper's evaluation protocol (Section VI-B) extracts the `|Cs| = |Ys|`
//! nodes with the largest BDD values. The classic alternative — the sweep
//! cut minimizing conductance along the score order — is also provided; the
//! LGC baselines use it when a target size is not imposed.

use laca_diffusion::SparseVec;
use laca_graph::{CsrGraph, NodeId};
use rustc_hash::FxHashSet;

/// The `size` nodes with the largest scores, seed always included.
///
/// Deterministic: ties break by node id. If the score support is smaller
/// than `size`, the result is simply shorter (the caller decides whether to
/// pad; precision evaluation does not reward padding with random nodes).
pub fn top_k_cluster(score: &SparseVec, seed: NodeId, size: usize) -> Vec<NodeId> {
    top_k_of(score.iter().collect(), seed, size)
}

/// Same extraction from a dense score vector (global baselines produce
/// dense scores); zero scores are not candidates.
pub fn top_k_cluster_dense(score: &[f64], seed: NodeId, size: usize) -> Vec<NodeId> {
    let pairs = score.iter().enumerate().filter(|&(_, &v)| v != 0.0);
    top_k_of(pairs.map(|(i, &v)| (i as NodeId, v)).collect(), seed, size)
}

/// Rank order of [`SparseVec::to_ranked_pairs`]: value descending, ties
/// by node id — a total order over distinct nodes.
fn by_rank(a: &(NodeId, f64), b: &(NodeId, f64)) -> std::cmp::Ordering {
    b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0))
}

/// The top `size` of `pairs` (distinct nodes) in rank order, with the
/// seed rule of [`top_k_cluster`]. Selects the top `size` in `O(|pairs|)`
/// and sorts only those — the same prefix a full sort would give, since
/// [`by_rank`] is a total order.
fn top_k_of(mut pairs: Vec<(NodeId, f64)>, seed: NodeId, size: usize) -> Vec<NodeId> {
    if size == 0 {
        return vec![seed];
    }
    if pairs.len() > size {
        pairs.select_nth_unstable_by(size - 1, by_rank);
        pairs.truncate(size);
    }
    pairs.sort_unstable_by(by_rank);
    let mut cluster: Vec<NodeId> = pairs.into_iter().map(|(v, _)| v).collect();
    if !cluster.contains(&seed) {
        if cluster.len() == size {
            cluster.pop();
        }
        cluster.insert(0, seed);
    }
    cluster
}

/// Sweep cut: scans prefixes of the score order and returns the prefix with
/// the smallest conductance, together with that conductance.
///
/// Runs in `O(vol(supp(score)))` using incremental cut/volume maintenance.
pub fn sweep_cut(graph: &CsrGraph, score: &SparseVec) -> (Vec<NodeId>, f64) {
    let ranked = score.to_ranked_pairs();
    if ranked.is_empty() {
        return (Vec::new(), 1.0);
    }
    let total_vol = graph.total_volume();
    let mut in_set: FxHashSet<NodeId> = FxHashSet::default();
    let mut cut = 0.0;
    let mut vol = 0.0;
    let mut best_phi = f64::INFINITY;
    let mut best_len = 1usize;
    for (idx, &(v, _)) in ranked.iter().enumerate() {
        let d = graph.weighted_degree(v);
        vol += d;
        // Adding v: edges to the current set stop being cut; the rest start.
        let mut to_set = 0.0;
        for (u, w) in graph.edges_of(v) {
            if in_set.contains(&u) {
                to_set += w;
            }
        }
        cut += d - 2.0 * to_set;
        in_set.insert(v);
        let denom = vol.min(total_vol - vol);
        let phi = if denom <= 0.0 { 1.0 } else { cut / denom };
        if phi < best_phi {
            best_phi = phi;
            best_len = idx + 1;
        }
    }
    let cluster = ranked.iter().take(best_len).map(|&(v, _)| v).collect();
    (cluster, best_phi.min(1.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn two_triangles() -> CsrGraph {
        // Two triangles joined by one edge: the sweep must find a triangle.
        CsrGraph::from_edges(6, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)]).unwrap()
    }

    #[test]
    fn top_k_takes_largest() {
        let score = SparseVec::from_pairs([(0, 0.9), (1, 0.5), (2, 0.7), (3, 0.1)]);
        assert_eq!(top_k_cluster(&score, 0, 2), vec![0, 2]);
    }

    #[test]
    fn top_k_forces_seed_membership() {
        let score = SparseVec::from_pairs([(1, 0.9), (2, 0.8), (3, 0.7)]);
        let c = top_k_cluster(&score, 5, 2);
        assert!(c.contains(&5));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn top_k_handles_small_support() {
        let score = SparseVec::from_pairs([(0, 1.0)]);
        let c = top_k_cluster(&score, 0, 10);
        assert_eq!(c, vec![0]);
    }

    #[test]
    fn top_k_zero_size() {
        let score = SparseVec::from_pairs([(1, 1.0)]);
        assert_eq!(top_k_cluster(&score, 7, 0), vec![7]);
    }

    #[test]
    fn dense_extraction_matches_sparse() {
        let dense = vec![0.9, 0.5, 0.7, 0.1];
        let sparse = SparseVec::from_pairs([(0, 0.9), (1, 0.5), (2, 0.7), (3, 0.1)]);
        assert_eq!(top_k_cluster_dense(&dense, 0, 3), top_k_cluster(&sparse, 0, 3));
    }

    /// The full-sort extraction: rank everything, keep the first `size`,
    /// force the seed in at the front (dropping the last) if it is absent.
    fn full_sort_top_k(score: &SparseVec, seed: NodeId, size: usize) -> Vec<NodeId> {
        if size == 0 {
            return vec![seed];
        }
        let ranked = score.to_ranked_pairs();
        let mut top: Vec<NodeId> = ranked.iter().take(size).map(|&(v, _)| v).collect();
        if !top.contains(&seed) {
            top.truncate(size - 1);
            top.insert(0, seed);
        }
        top
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn selection_matches_a_full_sort(
            // Scores from six levels, so ties are common.
            entries in proptest::collection::vec((0u32..40, 1u32..7), 0..40),
            seed in 0u32..48,
            size in 0usize..48,
        ) {
            let mut score = SparseVec::new();
            let mut dense = vec![0.0; 40];
            for (v, level) in entries {
                score.set(v, f64::from(level) * 0.125);
                dense[v as usize] = f64::from(level) * 0.125;
            }
            let want = full_sort_top_k(&score, seed, size);
            prop_assert_eq!(top_k_cluster(&score, seed, size), want.clone());
            prop_assert_eq!(top_k_cluster_dense(&dense, seed, size), want);
        }
    }

    #[test]
    fn sweep_finds_the_triangle() {
        let g = two_triangles();
        let score = SparseVec::from_pairs([(0, 1.0), (1, 0.9), (2, 0.8), (3, 0.2), (4, 0.1)]);
        let (cluster, phi) = sweep_cut(&g, &score);
        let mut sorted = cluster.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2]);
        // Triangle: cut 1, vol 7 (node 2 has degree 3) → φ = 1/7.
        assert!((phi - 1.0 / 7.0).abs() < 1e-12, "phi {phi}");
    }

    #[test]
    fn sweep_on_empty_score() {
        let g = two_triangles();
        let (cluster, phi) = sweep_cut(&g, &SparseVec::new());
        assert!(cluster.is_empty());
        assert_eq!(phi, 1.0);
    }

    #[test]
    fn sweep_conductance_matches_graph_conductance() {
        let g = two_triangles();
        let score = SparseVec::from_pairs([(3, 1.0), (4, 0.9), (5, 0.8), (0, 0.05)]);
        let (cluster, phi) = sweep_cut(&g, &score);
        assert!((g.conductance(&cluster) - phi).abs() < 1e-12);
    }
}
