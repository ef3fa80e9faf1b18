//! The LACA algorithm (Algo. 4): three-step online BDD estimation.
//!
//! 1. **Estimate RWR** — `π' = AdaptiveDiffuse(P, α, σ, ε, 1⁽ˢ⁾)`;
//! 2. **RWR–SNAS vector** — `ψ = Σ_{i∈supp(π')} π'_i · z⁽ⁱ⁾` (Eq. 12), then
//!    `φ'_i = (ψ · z⁽ⁱ⁾) · d(v_i)` on `supp(π')` (Eq. 13);
//! 3. **Estimate BDD** — `ρ' = AdaptiveDiffuse(P, α, σ, ε·‖φ'‖₁, φ')`,
//!    then divide each entry by its degree.
//!
//! The predicted local cluster is the top-`|Cs|` nodes of `ρ'`
//! (Section II-D). Total time `O(k / ((1−α)·ε))` — Theorem V.4 gives the
//! approximation bound, Lemma IV.3 the output-volume bound.
//!
//! Steps 1→3 stay in the [`DiffusionWorkspace`]: `π'` is read back in
//! ascending node order into the workspace's
//! [`PairBuffers`](laca_diffusion::PairBuffers), `φ'` is
//! built there as an ascending pair slice and diffused as is, and `ρ'` is
//! the only hash map a query builds.

use crate::extract::top_k_cluster;
use crate::{CoreError, Tnam};
use laca_diffusion::workspace::with_thread_workspace;
use laca_diffusion::{
    adaptive_diffuse_pairs_in, greedy_diffuse_pairs_in, nongreedy_diffuse_pairs_in,
    DiffusionParams, DiffusionStats, DiffusionWorkspace, SparseVec,
};
use laca_graph::{CsrGraph, NodeId};
use std::sync::Arc;

/// Which diffusion solver Algo. 4 invokes (the "w/o AdaptiveDiffuse"
/// ablation of Table VI swaps in GreedyDiffuse).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DiffusionBackend {
    /// Algo. 2 (the paper's choice).
    #[default]
    Adaptive,
    /// Algo. 1 (ablation).
    Greedy,
    /// Pure Eq. 17 iteration (reference; no locality bound).
    NonGreedy,
}

/// LACA query parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct LacaParams {
    /// RWR continue probability `α ∈ (0, 1)`; the paper's sweeps favor 0.8–0.9.
    pub alpha: f64,
    /// Diffusion threshold `ε`; output volume and cost are `O(1/ε)`.
    pub epsilon: f64,
    /// Greedy/non-greedy balance `σ ∈ [0, 1]` of AdaptiveDiffuse.
    pub sigma: f64,
    /// Diffusion solver selection.
    pub backend: DiffusionBackend,
    /// `false` disables attribute information entirely — the
    /// "LACA (w/o SNAS)" configuration, where the BDD degenerates to the
    /// CoSimRank-style topology-only measure (Section II-C remark).
    pub use_snas: bool,
}

impl LacaParams {
    /// Paper-typical defaults: `α = 0.8`, `σ = 0.1`.
    pub fn new(epsilon: f64) -> Self {
        LacaParams {
            alpha: 0.8,
            epsilon,
            sigma: 0.1,
            backend: DiffusionBackend::Adaptive,
            use_snas: true,
        }
    }

    /// Sets `α`.
    pub fn with_alpha(mut self, alpha: f64) -> Self {
        self.alpha = alpha;
        self
    }

    /// Sets `σ`.
    pub fn with_sigma(mut self, sigma: f64) -> Self {
        self.sigma = sigma;
        self
    }

    /// Selects the diffusion backend.
    pub fn with_backend(mut self, backend: DiffusionBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Disables the SNAS (topology-only BDD).
    pub fn without_snas(mut self) -> Self {
        self.use_snas = false;
        self
    }

    /// The solver parameters of a diffusion at threshold `epsilon`.
    fn diffusion(&self, epsilon: f64) -> DiffusionParams {
        DiffusionParams { alpha: self.alpha, epsilon, sigma: self.sigma, record_residuals: false }
    }

    /// Stable digest of every field that affects query results. Float
    /// params are hashed by bit pattern, so any observable change — even
    /// in the last ulp — changes the fingerprint. This is the *identity*
    /// of a parameterization: serving layers key result caches and
    /// routing tables on it (`laca-service` pairs it with a dataset name
    /// to form a route key), guaranteeing a params change can never serve
    /// stale answers.
    pub fn fingerprint(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = rustc_hash::FxHasher::default();
        self.alpha.to_bits().hash(&mut h);
        self.epsilon.to_bits().hash(&mut h);
        self.sigma.to_bits().hash(&mut h);
        let backend: u8 = match self.backend {
            DiffusionBackend::Adaptive => 0,
            DiffusionBackend::Greedy => 1,
            DiffusionBackend::NonGreedy => 2,
        };
        backend.hash(&mut h);
        self.use_snas.hash(&mut h);
        h.finish()
    }
}

/// Telemetry from one LACA query.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LacaQueryStats {
    /// Stats of the Step-1 RWR diffusion.
    pub rwr: DiffusionStats,
    /// Stats of the Step-3 BDD diffusion.
    pub bdd: DiffusionStats,
    /// `|supp(π')|`.
    pub rwr_support: usize,
    /// `‖φ'‖₁` fed to Step 3, summed in ascending node order.
    pub phi_l1: f64,
}

/// Either a borrowed or an `Arc`-shared handle to an immutable artifact.
///
/// [`Laca`] historically borrowed its graph and TNAM from the caller
/// (`Laca<'g>`), which is zero-cost for single-threaded loops but cannot
/// cross thread boundaries. The serving layer (`laca-service`) needs one
/// immutable index shared by many worker threads, so each handle can also
/// be an `Arc` — `Laca<'static>` built from Arcs is `Send + Sync`
/// (statically asserted below) and freely clonable across a pool.
#[derive(Debug, Clone)]
enum SharedRef<'g, T> {
    Borrowed(&'g T),
    Owned(Arc<T>),
}

impl<T> SharedRef<'_, T> {
    #[inline]
    fn get(&self) -> &T {
        match self {
            SharedRef::Borrowed(t) => t,
            SharedRef::Owned(t) => t,
        }
    }
}

/// A LACA instance bound to a graph and (optionally) a prebuilt TNAM.
///
/// The TNAM is the reusable preprocessing artifact: build it once per
/// dataset ([`Tnam::build`]), then answer any number of seed queries.
///
/// Construction is either borrowing ([`Laca::new`] — the lifetime ties
/// the engine to the caller's graph) or shared ([`Laca::new_shared`] —
/// `Arc`-backed, `'static`, `Send + Sync`, for cross-thread serving).
#[derive(Debug, Clone)]
pub struct Laca<'g> {
    graph: SharedRef<'g, CsrGraph>,
    tnam: Option<SharedRef<'g, Tnam>>,
    params: LacaParams,
}

fn validate_index(
    graph: &CsrGraph,
    tnam: Option<&Tnam>,
    params: &LacaParams,
) -> Result<(), CoreError> {
    // The same α/ε/σ ranges every diffusion checks, caught once here
    // rather than by every query.
    params.diffusion(params.epsilon).validate()?;
    if params.use_snas {
        match tnam {
            None => return Err(CoreError::NoAttributes),
            Some(t) if t.n() != graph.n() => {
                return Err(CoreError::BadParameter("TNAM size does not match graph"))
            }
            _ => {}
        }
    }
    Ok(())
}

impl<'g> Laca<'g> {
    /// Creates a query engine borrowing the caller's graph/TNAM.
    /// `tnam = None` is only valid together with `params.use_snas = false`;
    /// `α ∉ (0, 1)`, `ε ≤ 0` or NaN, and `σ ∉ [0, 1]` fail with
    /// [`CoreError::Diffusion`].
    pub fn new(
        graph: &'g CsrGraph,
        tnam: Option<&'g Tnam>,
        params: LacaParams,
    ) -> Result<Self, CoreError> {
        validate_index(graph, tnam, &params)?;
        Ok(Laca { graph: SharedRef::Borrowed(graph), tnam: tnam.map(SharedRef::Borrowed), params })
    }

    /// Creates a query engine co-owning its graph/TNAM through `Arc`s.
    ///
    /// The result is `Laca<'static>`: it can move into worker threads and
    /// be queried concurrently (all query paths take `&self`). Same
    /// validation rules as [`Laca::new`].
    pub fn new_shared(
        graph: Arc<CsrGraph>,
        tnam: Option<Arc<Tnam>>,
        params: LacaParams,
    ) -> Result<Laca<'static>, CoreError> {
        validate_index(&graph, tnam.as_deref(), &params)?;
        Ok(Laca { graph: SharedRef::Owned(graph), tnam: tnam.map(SharedRef::Owned), params })
    }

    /// The graph this engine queries.
    pub fn graph(&self) -> &CsrGraph {
        self.graph.get()
    }

    /// The TNAM in use, if any.
    pub fn tnam(&self) -> Option<&Tnam> {
        self.tnam.as_ref().map(SharedRef::get)
    }

    /// The parameters in use.
    pub fn params(&self) -> &LacaParams {
        &self.params
    }

    /// Runs the configured solver from `f` at threshold `epsilon`; the
    /// result stays in `ws`.
    fn diffuse(
        &self,
        f: &[(NodeId, f64)],
        epsilon: f64,
        ws: &mut DiffusionWorkspace,
    ) -> Result<DiffusionStats, CoreError> {
        let dp = self.params.diffusion(epsilon);
        let graph = self.graph.get();
        let stats = match self.params.backend {
            DiffusionBackend::Adaptive => adaptive_diffuse_pairs_in(graph, f, &dp, ws)?,
            DiffusionBackend::Greedy => greedy_diffuse_pairs_in(graph, f, &dp, ws)?,
            DiffusionBackend::NonGreedy => nongreedy_diffuse_pairs_in(graph, f, &dp, ws)?,
        };
        Ok(stats)
    }

    /// Approximate BDD vector `ρ'` for a seed node, with telemetry.
    ///
    /// Both diffusions (Steps 1 and 3) run on the calling thread's cached
    /// [`DiffusionWorkspace`], so repeated queries — the evaluation
    /// harness's per-seed loops in particular — do no per-query scratch
    /// allocation.
    pub fn bdd_with_stats(&self, seed: NodeId) -> Result<(SparseVec, LacaQueryStats), CoreError> {
        with_thread_workspace(|ws| self.bdd_with_stats_in(seed, ws))
    }

    /// [`Laca::bdd_with_stats`] on a caller-managed workspace. After
    /// warm-up a query allocates only its `ρ'` (and the TNAM's `ψ`
    /// accumulator).
    pub fn bdd_with_stats_in(
        &self,
        seed: NodeId,
        ws: &mut DiffusionWorkspace,
    ) -> Result<(SparseVec, LacaQueryStats), CoreError> {
        let graph = self.graph.get();
        if seed as usize >= graph.n() {
            return Err(CoreError::BadParameter("seed node out of range"));
        }
        // Step 1: π' = AdaptiveDiffuse(1⁽ˢ⁾), read back in ascending node
        // order.
        let rwr = self.diffuse(&[(seed, 1.0)], self.params.epsilon, ws)?;
        let mut stats = LacaQueryStats { rwr, ..LacaQueryStats::default() };
        let mut bufs = ws.take_pair_buffers();
        ws.reserve_sorted_into(&mut bufs.reserve);
        stats.rwr_support = bufs.reserve.len();

        // Step 2: φ' over the ascending π' support.
        step2_phi(graph, self.tnam_for_query(), &bufs.reserve, &mut bufs.input);
        let phi_l1: f64 = bufs.input.iter().map(|&(_, v)| v).sum();
        stats.phi_l1 = phi_l1;
        if phi_l1 == 0.0 {
            ws.restore_pair_buffers(bufs);
            return Ok((SparseVec::new(), stats));
        }

        // Step 3: diffuse φ' with threshold ε·‖φ'‖₁, then divide by degree.
        let bdd = self.diffuse(&bufs.input, self.params.epsilon * phi_l1, ws);
        ws.restore_pair_buffers(bufs);
        stats.bdd = bdd?;
        let mut rho = SparseVec::with_capacity(ws.reserve_len());
        ws.for_each_reserve(|i, q| rho.set(i, q / graph.weighted_degree(i)));
        Ok((rho, stats))
    }

    /// The TNAM Step 2 should use: `Some` iff SNAS is enabled.
    fn tnam_for_query(&self) -> Option<&Tnam> {
        if self.params.use_snas {
            self.tnam()
        } else {
            None
        }
    }

    /// Approximate BDD vector `ρ'` for a seed node.
    ///
    /// # Example
    ///
    /// ```
    /// use laca_core::{Laca, LacaParams, MetricFn, Tnam, TnamConfig};
    /// use laca_graph::{AttributeMatrix, CsrGraph};
    ///
    /// // Two triangles joined by a bridge.
    /// let graph = CsrGraph::from_edges(6, &[
    ///     (0, 1), (1, 2), (0, 2), // community A
    ///     (3, 4), (4, 5), (3, 5), // community B
    ///     (2, 3),                 // bridge
    /// ]).unwrap();
    /// let rows: Vec<Vec<(u32, f64)>> = (0..6)
    ///     .map(|i| {
    ///         let base: u32 = if i < 3 { 0 } else { 2 };
    ///         vec![(base, 1.0), (base + 1, 0.5)]
    ///     })
    ///     .collect();
    /// let attrs = AttributeMatrix::from_rows(4, &rows).unwrap();
    /// let tnam = Tnam::build(&attrs, &TnamConfig::new(4, MetricFn::Cosine)).unwrap();
    ///
    /// // Online: one diffusion query (Algo. 4) per seed.
    /// let engine = Laca::new(&graph, Some(&tnam), LacaParams::new(1e-4)).unwrap();
    /// let rho = engine.bdd(0).unwrap();
    /// // The seed's own community carries more BDD mass than the other one.
    /// assert!(rho.get(1) > rho.get(5));
    /// ```
    pub fn bdd(&self, seed: NodeId) -> Result<SparseVec, CoreError> {
        Ok(self.bdd_with_stats(seed)?.0)
    }

    /// Predicted local cluster: the `size` nodes with the largest BDD
    /// values (the seed is always included).
    pub fn cluster(&self, seed: NodeId, size: usize) -> Result<Vec<NodeId>, CoreError> {
        let rho = self.bdd(seed)?;
        Ok(top_k_cluster(&rho, seed, size))
    }
}

/// Step 2 (Eq. 12/13) over the ascending `π'` support `pi`, written to
/// `phi` (cleared first) in the same order: `ψ = Σ π'_i · z⁽ⁱ⁾`, then
/// `φ'_i = max(ψ·z⁽ⁱ⁾, 0) · d(v_i)`; without a TNAM the identity-SNAS
/// degenerate form `φ'_i = π'_i · d(v_i)`. Zero entries are left out, so
/// `phi` is exactly `supp(φ')`.
///
/// The ascending order fixes the float op sequence for a seed — of `ψ`,
/// of `‖φ'‖₁`, and of Step 3's seeding.
fn step2_phi(
    graph: &CsrGraph,
    tnam: Option<&Tnam>,
    pi: &[(NodeId, f64)],
    phi: &mut Vec<(NodeId, f64)>,
) {
    phi.clear();
    let nonzero = |&(_, v): &(NodeId, f64)| v != 0.0;
    match tnam {
        Some(tnam) => {
            let mut psi = tnam.new_accumulator();
            for &(i, v) in pi {
                tnam.accumulate_into(&mut psi, i as usize, v);
            }
            // Random-feature noise can push ψ·z⁽ⁱ⁾ slightly below zero;
            // clamp so Step 3's input stays a valid non-negative diffusion
            // vector.
            let phi_i = |&(i, _): &(NodeId, f64)| {
                (i, tnam.dot_row(&psi, i as usize).max(0.0) * graph.weighted_degree(i))
            };
            phi.extend(pi.iter().map(phi_i).filter(nonzero));
        }
        // w/o SNAS: s(v_i, v_j) = [i = j], so φ'_i = π'_i · d(v_i).
        None => {
            phi.extend(pi.iter().map(|&(i, v)| (i, v * graph.weighted_degree(i))).filter(nonzero))
        }
    }
}

// An Arc-built engine must be shareable across a worker pool. If a future
// change introduces interior mutability (Cell/RefCell/raw pointers) into
// the graph, the TNAM or the engine itself, this stops compiling instead
// of surfacing as a data race at runtime.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Laca<'static>>();
    assert_send_sync::<LacaParams>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::exact_bdd_with_tnam;
    use crate::tnam::TnamConfig;
    use crate::MetricFn;
    use laca_graph::gen::{AttributeSpec, AttributedGraphSpec};
    use laca_graph::AttributedDataset;

    fn dataset() -> AttributedDataset {
        AttributedGraphSpec {
            n: 200,
            n_clusters: 4,
            avg_degree: 8.0,
            p_intra: 0.85,
            missing_intra: 0.05,
            degree_exponent: 2.5,
            cluster_size_skew: 0.2,
            attributes: Some(AttributeSpec {
                dim: 64,
                topic_words: 12,
                tokens_per_node: 25,
                attr_noise: 0.2,
            }),
            seed: 77,
        }
        .generate("laca-test")
        .unwrap()
    }

    /// FNV-1a over `(node, ρ′ bits)` in ascending node order.
    fn rho_digest(rho: &SparseVec) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for (i, v) in rho.to_sorted_pairs() {
            for b in i.to_le_bytes().into_iter().chain(v.to_bits().to_le_bytes()) {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    #[test]
    fn answers_are_pinned_for_every_backend() {
        // (|supp ρ′|, digest of ρ′ bits, Step 1 pushes/iterations, Step 3
        // pushes/iterations) per seed, for each backend with and without
        // SNAS. Any change to these is a change of answers, not of speed.
        type Pin = (usize, u64, usize, usize, usize, usize);
        let ds = dataset();
        let tnam = Tnam::build(&ds.attributes, &TnamConfig::new(16, MetricFn::Cosine)).unwrap();
        let seeds = [0, 3, 57, 142];
        let mut got: Vec<Pin> = Vec::new();
        let backends =
            [DiffusionBackend::Adaptive, DiffusionBackend::Greedy, DiffusionBackend::NonGreedy];
        for eps in [1e-3, 1e-5] {
            for backend in backends {
                for use_snas in [true, false] {
                    let mut params = LacaParams::new(eps).with_backend(backend);
                    if !use_snas {
                        params = params.without_snas();
                    }
                    let engine = Laca::new(&ds.graph, Some(&tnam), params).unwrap();
                    for seed in seeds {
                        let (rho, s) = engine.bdd_with_stats(seed).unwrap();
                        got.push((
                            rho.support_size(),
                            rho_digest(&rho),
                            s.rwr.push_operations,
                            s.rwr.iterations,
                            s.bdd.push_operations,
                            s.bdd.iterations,
                        ));
                    }
                }
            }
        }
        #[rustfmt::skip]
        let want: [Pin; 48] = [
            // ε = 1e-3, then 1e-5; within each: Adaptive, Greedy, NonGreedy,
            // each with then without SNAS, over `seeds`.
            (155, 12292869925969466121, 2137, 6, 1749, 11),
            (200, 11936876422212318724, 1830, 12, 4313, 3),
            (160, 9248534200680061864, 761, 5, 2528, 9),
            (199, 188098098658175001, 2304, 12, 3338, 6),
            (197, 365074712738252396, 2137, 6, 3573, 11),
            (200, 7663693558414133215, 1830, 12, 4722, 8),
            (198, 11566250590023828147, 761, 5, 3871, 6),
            (199, 10405770257304977287, 2304, 12, 3506, 9),
            (61, 4043472951748651857, 812, 8, 1547, 7),
            (61, 12909859294573929465, 907, 15, 1538, 7),
            (74, 648542759956439995, 616, 8, 1493, 6),
            (58, 8980174517246084345, 795, 10, 1397, 9),
            (58, 11139775320634174536, 812, 8, 1289, 11),
            (55, 14571954717418893016, 907, 15, 1361, 9),
            (73, 17836962352941249878, 616, 8, 1283, 9),
            (55, 4106894784995083054, 795, 10, 1162, 7),
            (200, 1446792869967424999, 5215, 6, 1602, 1),
            (200, 5421230088845949282, 4659, 6, 4806, 3),
            (198, 539689997821968392, 3665, 5, 1600, 1),
            (200, 15615022811374678728, 5197, 6, 4806, 3),
            (200, 11948511990947253471, 5215, 6, 6408, 4),
            (200, 1243638070170502483, 4659, 6, 8010, 5),
            (200, 4834473149283086948, 3665, 5, 6406, 4),
            (200, 15113792257729450794, 5197, 6, 8010, 5),
            (200, 11015571078431867667, 27643, 20, 30438, 19),
            (200, 6349377704647434665, 27087, 20, 30438, 19),
            (200, 141229112658047696, 26093, 19, 30438, 19),
            (200, 15976510754480398917, 27625, 20, 30438, 19),
            (200, 6136395045056780780, 27643, 20, 30438, 19),
            (200, 13971534859702459963, 27087, 20, 32072, 21),
            (200, 11492365676564392360, 26093, 19, 30438, 19),
            (200, 2784602517350041140, 27625, 20, 32147, 23),
            (200, 6729769135927340644, 27630, 25, 30438, 19),
            (200, 17492089087122638636, 27066, 25, 30438, 19),
            (200, 141229112658047696, 26093, 19, 30438, 19),
            (200, 12206463898931271174, 27627, 25, 30438, 19),
            (200, 15449905571849468481, 27630, 25, 30436, 19),
            (200, 15167530174636122718, 27066, 25, 32039, 26),
            (200, 18066753941432169980, 26093, 19, 30435, 19),
            (200, 11743079701672919184, 27627, 25, 32043, 28),
            (200, 11015571078431867667, 27643, 20, 30438, 19),
            (200, 6349377704647434665, 27087, 20, 30438, 19),
            (200, 141229112658047696, 26093, 19, 30438, 19),
            (200, 15976510754480398917, 27625, 20, 30438, 19),
            (200, 6136395045056780780, 27643, 20, 30438, 19),
            (200, 118900678496110078, 27087, 20, 32040, 20),
            (200, 11492365676564392360, 26093, 19, 30438, 19),
            (200, 5783250621225884789, 27625, 20, 32040, 20),
        ];
        assert_eq!(got, want);
    }

    #[test]
    fn bdd_satisfies_theorem_v4_bound() {
        // When Eq. 10 holds (s := z·z from the TNAM itself), Theorem V.4:
        // 0 ≤ ρ_t − ρ'_t ≤ (1 + Σ_i d_i · max_j s(i,j)) · ε.
        let ds = dataset();
        let tnam = Tnam::build(&ds.attributes, &TnamConfig::new(16, MetricFn::Cosine)).unwrap();
        let eps = 1e-4;
        let params = LacaParams::new(eps);
        let engine = Laca::new(&ds.graph, Some(&tnam), params).unwrap();
        let seed = 3;
        let rho_approx = engine.bdd(seed).unwrap();
        let rho_exact = exact_bdd_with_tnam(&ds.graph, &tnam, seed, 0.8, 1e-12);
        // Slack term of the bound.
        let mut slack = 1.0;
        for i in 0..ds.graph.n() {
            let max_s = (0..ds.graph.n()).map(|j| tnam.s_approx(i, j)).fold(0.0f64, f64::max);
            slack += ds.graph.weighted_degree(i as u32) * max_s;
        }
        let bound = slack * eps;
        for t in 0..ds.graph.n() as NodeId {
            let gap = rho_exact[t as usize] - rho_approx.get(t);
            assert!(gap >= -1e-8, "t={t}: ρ'_t exceeds ρ_t by {}", -gap);
            assert!(gap <= bound + 1e-8, "t={t}: gap {gap} > bound {bound}");
        }
    }

    #[test]
    fn cluster_recovers_planted_community() {
        let ds = dataset();
        let tnam = Tnam::build(&ds.attributes, &TnamConfig::new(16, MetricFn::Cosine)).unwrap();
        let engine = Laca::new(&ds.graph, Some(&tnam), LacaParams::new(1e-5)).unwrap();
        let seed = 0;
        let truth = ds.ground_truth(seed);
        let cluster = engine.cluster(seed, truth.len()).unwrap();
        let truth_set: std::collections::HashSet<_> = truth.iter().copied().collect();
        let hits = cluster.iter().filter(|v| truth_set.contains(v)).count();
        let precision = hits as f64 / cluster.len() as f64;
        assert!(precision > 0.7, "precision {precision}");
        assert!(cluster.contains(&seed));
    }

    #[test]
    fn exp_cosine_variant_also_recovers_community() {
        let ds = dataset();
        let tnam =
            Tnam::build(&ds.attributes, &TnamConfig::new(16, MetricFn::ExpCosine { delta: 1.0 }))
                .unwrap();
        let engine = Laca::new(&ds.graph, Some(&tnam), LacaParams::new(1e-5)).unwrap();
        let seed = 10;
        let truth = ds.ground_truth(seed);
        let cluster = engine.cluster(seed, truth.len()).unwrap();
        let truth_set: std::collections::HashSet<_> = truth.iter().copied().collect();
        let precision =
            cluster.iter().filter(|v| truth_set.contains(v)).count() as f64 / cluster.len() as f64;
        assert!(precision > 0.6, "precision {precision}");
    }

    #[test]
    fn without_snas_matches_identity_snas_semantics() {
        let ds = dataset();
        let engine = Laca::new(&ds.graph, None, LacaParams::new(1e-5).without_snas()).unwrap();
        let rho = engine.bdd(5).unwrap();
        assert!(!rho.is_empty());
        // Seed should be among its own top nodes.
        let ranked = rho.to_ranked_pairs();
        let pos = ranked.iter().position(|&(v, _)| v == 5).unwrap();
        assert!(pos < 20, "seed ranked at {pos}");
    }

    type Answer = (Vec<(NodeId, u64)>, LacaQueryStats);

    fn answer(engine: &Laca<'_>, seed: NodeId, ws: &mut DiffusionWorkspace) -> Answer {
        let (rho, stats) = engine.bdd_with_stats_in(seed, ws).unwrap();
        let bits = rho.to_sorted_pairs().into_iter().map(|(i, v)| (i, v.to_bits())).collect();
        (bits, stats)
    }

    #[test]
    fn warm_queries_do_not_grow_the_workspace() {
        let ds = dataset();
        let tnam = Tnam::build(&ds.attributes, &TnamConfig::new(16, MetricFn::Cosine)).unwrap();
        let seeds = [0, 3, 57, 142];
        for backend in [DiffusionBackend::Adaptive, DiffusionBackend::Greedy] {
            for params in [LacaParams::new(1e-4), LacaParams::new(1e-4).without_snas()] {
                let engine =
                    Laca::new(&ds.graph, Some(&tnam), params.with_backend(backend)).unwrap();
                let mut ws = DiffusionWorkspace::for_graph(&ds.graph);
                for seed in seeds {
                    engine.bdd_with_stats_in(seed, &mut ws).unwrap();
                }
                let warm = ws.capacity_signature();
                assert!(warm[4] > 0 && warm[5] > 0, "π′/φ′ buffers were not kept: {warm:?}");
                for seed in seeds {
                    engine.bdd_with_stats_in(seed, &mut ws).unwrap();
                    assert_eq!(ws.capacity_signature(), warm, "{backend:?} seed {seed} grew");
                }
            }
        }
    }

    #[test]
    fn isolated_seed_returns_empty_and_leaves_the_workspace_clean() {
        // Node 4 has no edges: π′ = {4: 1−α}, so φ′ = π′·d = 0 and Step 3
        // never runs.
        let g = CsrGraph::from_edges(5, &[(0, 1), (1, 2), (2, 0), (2, 3)]).unwrap();
        let engine = Laca::new(&g, None, LacaParams::new(1e-4).without_snas()).unwrap();
        let mut ws = DiffusionWorkspace::new();
        let (rho, stats) = engine.bdd_with_stats_in(4, &mut ws).unwrap();
        assert!(rho.is_empty());
        assert_eq!((stats.rwr_support, stats.phi_l1, stats.bdd.iterations), (1, 0.0, 0));
        let fresh = answer(&engine, 0, &mut DiffusionWorkspace::new());
        assert!(!fresh.0.is_empty());
        assert_eq!(answer(&engine, 0, &mut ws), fresh);
    }

    #[test]
    fn failed_and_panicked_queries_leave_no_trace() {
        let ds = dataset();
        let tnam = Tnam::build(&ds.attributes, &TnamConfig::new(16, MetricFn::Cosine)).unwrap();
        let engine = Laca::new(&ds.graph, Some(&tnam), LacaParams::new(1e-4)).unwrap();
        let fresh = answer(&engine, 3, &mut DiffusionWorkspace::new());
        let mut ws = DiffusionWorkspace::new();
        answer(&engine, 57, &mut ws);

        // An out-of-range seed fails before touching the workspace.
        assert!(engine.bdd_with_stats_in(10_000, &mut ws).is_err());
        assert_eq!(answer(&engine, 3, &mut ws), fresh);

        // A panic between Step 1 and Step 3 leaves Step 1's state in the
        // workspace and drops the lent π′/φ′ buffers on unwind.
        let step1 = DiffusionParams::new(0.8, 1e-4);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            adaptive_diffuse_pairs_in(&ds.graph, &[(142, 1.0)], &step1, &mut ws).unwrap();
            let mut bufs = ws.take_pair_buffers();
            ws.reserve_sorted_into(&mut bufs.reserve);
            panic!("query dies in Step 2");
        }));
        assert!(unwound.is_err());
        assert_eq!(answer(&engine, 3, &mut ws), fresh);
    }

    #[test]
    fn support_is_bounded_by_lemma_iv3() {
        let ds = dataset();
        let tnam = Tnam::build(&ds.attributes, &TnamConfig::new(8, MetricFn::Cosine)).unwrap();
        let eps = 1e-3;
        let engine = Laca::new(&ds.graph, Some(&tnam), LacaParams::new(eps)).unwrap();
        let (rho, stats) = engine.bdd_with_stats(1).unwrap();
        // Step 3 ran with threshold ε·‖φ'‖₁ on input of mass ‖φ'‖₁, so its
        // support is ≤ 2/( (1−α)·ε ) regardless of ‖φ'‖₁.
        let cap = 2.0 / ((1.0 - 0.8) * eps);
        assert!((rho.support_size() as f64) <= cap, "support {}", rho.support_size());
        assert!(stats.rwr_support > 0);
        assert!(stats.phi_l1 > 0.0);
    }

    #[test]
    fn greedy_backend_is_usable_but_not_better() {
        let ds = dataset();
        let tnam = Tnam::build(&ds.attributes, &TnamConfig::new(8, MetricFn::Cosine)).unwrap();
        let adaptive = Laca::new(&ds.graph, Some(&tnam), LacaParams::new(1e-5)).unwrap();
        let greedy = Laca::new(
            &ds.graph,
            Some(&tnam),
            LacaParams::new(1e-5).with_backend(DiffusionBackend::Greedy),
        )
        .unwrap();
        let (_, sa) = adaptive.bdd_with_stats(2).unwrap();
        let (_, sg) = greedy.bdd_with_stats(2).unwrap();
        assert!(sa.rwr.iterations <= sg.rwr.iterations);
    }

    #[test]
    fn shared_engine_matches_borrowed_engine_across_threads() {
        let ds = dataset();
        let tnam = Tnam::build(&ds.attributes, &TnamConfig::new(16, MetricFn::Cosine)).unwrap();
        let params = LacaParams::new(1e-4);
        let borrowed = Laca::new(&ds.graph, Some(&tnam), params.clone()).unwrap();
        let shared =
            Laca::new_shared(Arc::new(ds.graph.clone()), Some(Arc::new(tnam.clone())), params)
                .unwrap();
        let expected: Vec<_> = (0..4u32)
            .map(|s| {
                let (rho, stats) = borrowed.bdd_with_stats(s).unwrap();
                (rho.to_sorted_pairs(), stats.bdd.push_operations)
            })
            .collect();
        let handles: Vec<_> = (0..4u32)
            .map(|s| {
                let engine = shared.clone();
                std::thread::spawn(move || {
                    let (rho, stats) = engine.bdd_with_stats(s).unwrap();
                    (rho.to_sorted_pairs(), stats.bdd.push_operations)
                })
            })
            .collect();
        for (s, h) in handles.into_iter().enumerate() {
            assert_eq!(h.join().unwrap(), expected[s], "seed {s} diverged across threads");
        }
    }

    #[test]
    fn shared_construction_validates_like_borrowed() {
        let ds = dataset();
        let graph = Arc::new(ds.graph.clone());
        assert!(Laca::new_shared(Arc::clone(&graph), None, LacaParams::new(1e-4)).is_err());
        assert!(Laca::new_shared(graph, None, LacaParams::new(1e-4).without_snas()).is_ok());
    }

    #[test]
    fn rejects_inconsistent_construction() {
        let ds = dataset();
        // use_snas without a TNAM.
        assert!(Laca::new(&ds.graph, None, LacaParams::new(1e-4)).is_err());
        // Seed out of range.
        let tnam = Tnam::build(&ds.attributes, &TnamConfig::new(8, MetricFn::Cosine)).unwrap();
        let engine = Laca::new(&ds.graph, Some(&tnam), LacaParams::new(1e-4)).unwrap();
        assert!(engine.bdd(10_000).is_err());
    }

    #[test]
    fn construction_rejects_out_of_range_params() {
        let ds = dataset();
        let graph = Arc::new(ds.graph.clone());
        let tnam = Tnam::build(&ds.attributes, &TnamConfig::new(8, MetricFn::Cosine)).unwrap();
        let shared_tnam = Arc::new(tnam.clone());
        let base = LacaParams::new(1e-4);
        let bad = [
            base.clone().with_alpha(0.0),
            base.clone().with_alpha(1.0),
            base.clone().with_alpha(-0.5),
            base.clone().with_alpha(f64::NAN),
            LacaParams::new(0.0),
            LacaParams::new(-1e-4),
            LacaParams::new(f64::NAN),
            base.clone().with_sigma(-0.1),
            base.clone().with_sigma(1.5),
            base.clone().with_sigma(f64::NAN),
        ];
        for params in bad {
            let borrowed = Laca::new(&ds.graph, Some(&tnam), params.clone());
            assert!(
                matches!(borrowed, Err(CoreError::Diffusion(_))),
                "{params:?} built a borrowed engine"
            );
            let shared = Laca::new_shared(
                Arc::clone(&graph),
                Some(Arc::clone(&shared_tnam)),
                params.clone(),
            );
            assert!(
                matches!(shared, Err(CoreError::Diffusion(_))),
                "{params:?} built a shared engine"
            );
        }
        // The edges of the valid ranges still build.
        for params in [base.clone().with_sigma(0.0), base.with_sigma(1.0).with_alpha(0.99)] {
            assert!(Laca::new(&ds.graph, Some(&tnam), params).is_ok());
        }
    }
}
