//! p-Norm Flow Diffusion (Fountoulakis, Wang & Yang, ICML'20 — citation
//! \[21\]) and WFD, its attribute-weighted instance (Yang & Fountoulakis,
//! ICML'23 — citation \[33\]).
//!
//! Source mass `Δ` is placed on the seed; every node can absorb `T(v) =
//! d(v)`; the diffusion solves the p-norm flow problem by coordinate
//! descent on the dual variables `x`: repeatedly pick a node with excess
//! mass and raise its potential until its net outflow removes the excess.
//! For `p = 2` the flow is linear in the potentials and the update has the
//! closed form `Δx = ex(v)/d(v)`; for general `p` the update is found by
//! binary search on the monotone outflow function. The cluster is read off
//! the support of `x` (sweep or top-k by potential).
//!
//! Coordinate descent proceeds in ascending Gauss-Seidel sweeps: each
//! sweep visits every node flagged with excess by the previous one,
//! smallest id first.
//!
//! WFD = the same solver on the Gaussian-kernel reweighted graph
//! ([`crate::kernel::gaussian_reweighted`]).

use crate::{BaselineError, Score};
use laca_diffusion::SparseVec;
use laca_graph::{CsrGraph, NodeId};

/// Net outflow of `v` at potential `xv`, given neighbor potentials:
/// `Σ_u w·sgn(xv − x_u)·|xv − x_u|^{1/(p−1)}`.
// lint: hot-path — outflow over the adjacency of `v`; the p>2 binary
// search calls this ~60× per coordinate update.
fn outflow(g: &CsrGraph, x: &[f64], q: f64, v: NodeId, xv: f64) -> f64 {
    let mut out = 0.0;
    for (u, w) in g.edges_of(v) {
        let diff = xv - x[u as usize];
        out += w * diff.signum() * diff.abs().powf(q);
    }
    out
}

/// p-norm flow diffusion solver.
#[derive(Debug, Clone)]
pub struct FlowDiffusion<'g> {
    graph: &'g CsrGraph,
    /// The norm `p ≥ 2` (2 = classic quadratic flow diffusion).
    pub p: f64,
    /// Source mass as a multiple of the target cluster volume; the FD
    /// papers recommend overshooting the target volume by 2–5×.
    pub mass_factor: f64,
    /// Convergence tolerance on per-node excess (relative to `d(v)`).
    pub tol: f64,
    /// Hard cap on coordinate updates per solve (safety valve).
    pub max_updates: usize,
}

impl<'g> FlowDiffusion<'g> {
    /// Creates a `p = 2` flow diffusion with standard parameters.
    pub fn new(graph: &'g CsrGraph) -> Self {
        FlowDiffusion { graph, p: 2.0, mass_factor: 3.0, tol: 1e-6, max_updates: 2_000_000 }
    }

    /// Sets the norm `p`.
    pub fn with_p(mut self, p: f64) -> Self {
        self.p = p;
        self
    }

    /// Dual potentials `x` for a seed; `size_hint` scales the source mass.
    pub fn score(&self, seed: NodeId, size_hint: usize) -> Result<Score, BaselineError> {
        if self.p < 2.0 {
            return Err(BaselineError::BadParameter("p must be >= 2"));
        }
        let g = self.graph;
        let n = g.n();
        if seed as usize >= n {
            return Err(BaselineError::BadSeed(seed));
        }
        let q = 1.0 / (self.p - 1.0);
        let linear = (self.p - 2.0).abs() < 1e-12;
        let avg_degree = g.total_volume() / n as f64;
        // Source mass must stay well below the total sink capacity
        // (Σ T(v) = vol(G)) or the excess can never be absorbed.
        let desired = self.mass_factor * (size_hint.max(1) as f64) * avg_degree;
        let source = desired.min(0.45 * g.total_volume()).max(2.0 * g.weighted_degree(seed));

        let mut x = vec![0.0f64; n];
        let mut mass = vec![0.0f64; n];
        mass[seed as usize] = source;
        // `queued[v]` ⇔ `v` is already in the next sweep's list.
        let mut queued = vec![false; n];
        let mut cur_nodes: Vec<NodeId> = vec![seed];
        let mut nxt_nodes: Vec<NodeId> = Vec::new();
        let mut updates = 0usize;
        while !cur_nodes.is_empty() {
            cur_nodes.sort_unstable();
            for &v in &cur_nodes {
                queued[v as usize] = false;
            }
            for &v in &cur_nodes {
                let vi = v as usize;
                if updates >= self.max_updates {
                    // Capped: stop scheduling, keep what we have.
                    continue;
                }
                updates += 1;
                let dv = g.weighted_degree(v);
                let excess = mass[vi] - dv;
                if excess <= self.tol * dv {
                    continue;
                }
                let xv = x[vi];
                let delta = if linear {
                    // Linear case: outflow increases exactly by d(v)·Δx.
                    excess / dv
                } else {
                    // Binary search the monotone outflow for Δ with
                    // outflow(xv + Δ) − outflow(xv) = excess.
                    let old_out = outflow(g, &x, q, v, xv);
                    let mut lo = 0.0f64;
                    let mut hi = (excess / dv).max(1e-12);
                    while outflow(g, &x, q, v, xv + hi) - old_out < excess {
                        hi *= 2.0;
                        if hi > 1e12 {
                            break;
                        }
                    }
                    for _ in 0..60 {
                        let mid = 0.5 * (lo + hi);
                        if outflow(g, &x, q, v, xv + mid) - old_out < excess {
                            lo = mid;
                        } else {
                            hi = mid;
                        }
                    }
                    hi
                };
                // Apply: mass moves along each edge by the flow change.
                // lint: hot-path — edge relaxation of the flow sweep.
                let new_xv = xv + delta;
                for (u, w) in g.edges_of(v) {
                    let ui = u as usize;
                    let xu = x[ui];
                    let f_old = {
                        let d0 = xv - xu;
                        w * d0.signum() * d0.abs().powf(q)
                    };
                    let f_new = {
                        let d1 = new_xv - xu;
                        w * d1.signum() * d1.abs().powf(q)
                    };
                    let moved = f_new - f_old;
                    mass[vi] -= moved;
                    mass[ui] += moved;
                    if mass[ui] > g.weighted_degree(u) * (1.0 + self.tol) && !queued[ui] {
                        queued[ui] = true;
                        nxt_nodes.push(u);
                    }
                }
                x[vi] = new_xv;
                if mass[vi] > dv * (1.0 + self.tol) && !queued[vi] {
                    queued[vi] = true;
                    nxt_nodes.push(v);
                }
            }
            cur_nodes.clear();
            std::mem::swap(&mut cur_nodes, &mut nxt_nodes);
        }

        let mut out = SparseVec::new();
        for (v, &xv) in x.iter().enumerate() {
            if xv != 0.0 {
                out.set(v as NodeId, xv);
            }
        }
        Ok(Score::Sparse(out))
    }

    /// Top-`size` cluster by dual potential.
    pub fn cluster(&self, seed: NodeId, size: usize) -> Result<Vec<NodeId>, BaselineError> {
        Ok(self.score(seed, size)?.top_k(seed, size))
    }

    /// Sweep-cut cluster over the potentials.
    pub fn sweep(
        &self,
        seed: NodeId,
        size_hint: usize,
    ) -> Result<(Vec<NodeId>, f64), BaselineError> {
        let score = match self.score(seed, size_hint)? {
            Score::Sparse(s) => s,
            Score::Dense(_) => unreachable!("flow-diffusion potentials are sparse"),
        };
        Ok(laca_core::extract::sweep_cut(self.graph, &score))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use laca_graph::gen::AttributedGraphSpec;
    use laca_graph::AttributedDataset;

    fn dataset() -> AttributedDataset {
        AttributedGraphSpec {
            n: 200,
            n_clusters: 2,
            avg_degree: 8.0,
            p_intra: 0.92,
            missing_intra: 0.0,
            degree_exponent: 2.0,
            cluster_size_skew: 0.0,
            attributes: None,
            seed: 13,
        }
        .generate("fd")
        .unwrap()
    }

    fn bits(score: &Score) -> Vec<(NodeId, u64)> {
        match score {
            Score::Sparse(x) => {
                x.to_sorted_pairs().into_iter().map(|(i, v)| (i, v.to_bits())).collect()
            }
            Score::Dense(_) => panic!("flow-diffusion potentials are sparse"),
        }
    }

    #[test]
    fn excess_is_cleared_at_convergence() {
        let ds = dataset();
        let fd = FlowDiffusion::new(&ds.graph);
        // Re-run the solve manually to check the mass invariant via the
        // public API: support of x must absorb all source mass.
        if let Score::Sparse(x) = fd.score(0, 20).unwrap() {
            assert!(!x.is_empty());
            // All potentials are positive.
            for (_, v) in x.iter() {
                assert!(v > 0.0);
            }
        } else {
            panic!("expected sparse")
        }
    }

    #[test]
    fn potentials_are_local() {
        let ds = dataset();
        let fd = FlowDiffusion::new(&ds.graph);
        if let Score::Sparse(x) = fd.score(0, 5).unwrap() {
            assert!(x.support_size() < ds.graph.n(), "support covers whole graph");
        } else {
            panic!("expected sparse")
        }
    }

    #[test]
    fn recovers_planted_community() {
        let ds = dataset();
        let fd = FlowDiffusion::new(&ds.graph);
        let truth = ds.ground_truth(0);
        let cluster = fd.cluster(0, truth.len()).unwrap();
        let tset: std::collections::HashSet<_> = truth.iter().collect();
        let precision =
            cluster.iter().filter(|v| tset.contains(v)).count() as f64 / cluster.len() as f64;
        assert!(precision > 0.7, "precision {precision}");
    }

    #[test]
    fn p4_also_works() {
        let ds = dataset();
        let fd = FlowDiffusion::new(&ds.graph).with_p(4.0);
        let truth = ds.ground_truth(0);
        let cluster = fd.cluster(0, truth.len()).unwrap();
        let tset: std::collections::HashSet<_> = truth.iter().collect();
        let precision =
            cluster.iter().filter(|v| tset.contains(v)).count() as f64 / cluster.len() as f64;
        assert!(precision > 0.6, "precision {precision}");
    }

    #[test]
    fn seed_gets_highest_potential() {
        let ds = dataset();
        let fd = FlowDiffusion::new(&ds.graph);
        let score = fd.score(3, 20).unwrap();
        if let Score::Sparse(x) = score {
            let ranked = x.to_ranked_pairs();
            assert_eq!(ranked[0].0, 3, "seed not at the top: {:?}", &ranked[..3]);
        }
    }

    #[test]
    fn sweep_produces_low_conductance() {
        let ds = dataset();
        let fd = FlowDiffusion::new(&ds.graph);
        let (cluster, phi) = fd.sweep(0, 50).unwrap();
        assert!(!cluster.is_empty());
        assert!(phi < 0.6, "conductance {phi}");
    }

    #[test]
    fn rejects_bad_parameters() {
        let ds = dataset();
        assert!(FlowDiffusion::new(&ds.graph).with_p(1.0).score(0, 10).is_err());
        assert!(FlowDiffusion::new(&ds.graph).score(9999, 10).is_err());
    }

    /// FNV-1a over sorted `(node, f64 bits)` pairs.
    fn digest(pairs: &[(NodeId, u64)]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &(v, x) in pairs {
            for byte in u64::from(v).to_le_bytes().into_iter().chain(x.to_le_bytes()) {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    #[test]
    fn score_bits_are_pinned() {
        // (p, seed, support size, digest of the potentials' bits): the
        // closed-form p = 2 update and the p = 4 binary search must keep
        // landing exactly these f64s, so a refactor that reorders the
        // sweeps or the float ops fails here.
        const PINS: [(f64, NodeId, usize, u64); 10] = [
            (2.0, 0, 24, 0xc59d_bb73_44b2_9b20),
            (2.0, 3, 19, 0x59e0_f356_a9b5_a02d),
            (2.0, 57, 21, 0x6140_f9ee_b510_75a6),
            (2.0, 131, 26, 0xceaf_9c08_23b8_1d4b),
            (2.0, 199, 30, 0x6851_8ab5_cca7_5013),
            (4.0, 0, 25, 0x362a_0029_d6e7_6e71),
            (4.0, 3, 18, 0xa38e_2119_62e5_249d),
            (4.0, 57, 21, 0x3abc_f8d2_04cf_3c73),
            (4.0, 131, 25, 0x2fb9_4ea6_58b9_7307),
            (4.0, 199, 28, 0xe9aa_3113_80b9_3dc8),
        ];
        let ds = dataset();
        for (p, seed, len, want) in PINS {
            let got = bits(&FlowDiffusion::new(&ds.graph).with_p(p).score(seed, 20).unwrap());
            assert_eq!(got.len(), len, "p={p} seed {seed}: support size");
            assert_eq!(digest(&got), want, "p={p} seed {seed}: potential bits moved");
        }
    }
}
