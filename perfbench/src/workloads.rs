//! The two workloads, driven through the public API the way a user
//! drives it: `ServiceRouter::submit` → `QueryHandle::wait` →
//! `top_k_cluster` for queries, and spec → `generate` → `Tnam::build` →
//! `ClusterIndex::new` → `write_index_bytes` → `read_index_bytes` →
//! `ServiceRouter::register` for the builds around the timed window. Each
//! has one closed-loop client with one request outstanding. Why each
//! workload exists is in `perfbench/README.md`.

use crate::expected::{self, Counts};
use crate::report::Report;
use crate::stats::{mean, median, min_samples, percentile};
use crate::trace::Tracer;
use crate::zipf::Zipf;
use crate::{host, Args};
use laca_core::extract::top_k_cluster;
use laca_core::laca::LacaQueryStats;
use laca_core::{Laca, LacaParams, MetricFn, Tnam, TnamConfig};
use laca_diffusion::{adaptive_diffuse_in, DiffusionParams, DiffusionWorkspace, SparseVec};
use laca_eval::harness::sample_seeds;
use laca_eval::metrics::precision_at;
use laca_graph::{datasets, AttributedDataset, NodeId};
use laca_persist::{read_index_bytes, write_index_bytes};
use laca_service::{
    ClusterIndex, QueryAnswer, RouteKey, ServiceConfig, ServiceRouter, ServiceStats, ShardedCache,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// TNAM width; the paper's default.
const TNAM_K: usize = 32;
/// Service workers: one per core of the 2-core reference host.
const WORKERS: usize = 2;
/// Build repetitions in set-up (`setup_s` is their median), and as many
/// again after the window, so that `build_s` samples span the run.
const SETUP_REPS: usize = 8;
const POST_BUILDS: usize = 8;
/// Restarts from the image, for `restart_ms`: this many before the
/// window and again after it, so the samples span the run.
const RESTARTS: usize = 8;
/// Fixed check sample: answers checked bit for bit and scored for
/// `precision`. Independent of `--seed`, so its counts and precision are
/// committed constants.
const CHECK_SEEDS: usize = 64;
const CHECK_RNG: u64 = 0xC4EC_5EED;
/// Every this-many-th timed request of an untraced run is replayed
/// directly after the window and compared bit for bit.
const REPLAY_EVERY: usize = 64;
/// flickr-zipf: seed pool, cache budget per worker and the untimed
/// cache-filling prefix.
const ZIPF_POOL: usize = 2000;
const ZIPF_S: f64 = 1.0;
const ZIPF_CACHE_PER_WORKER: usize = 512;
const ZIPF_PREFIX: usize = 2000;
const POOL_SALT: u64 = 0x9E37_79B9_7F4A_7C15;
/// A window runs at least `--seconds`, and on past it (up to this factor)
/// until its samples support a p99.
const MAX_STRETCH: f64 = 2.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PubmedCold,
    FlickrZipf,
}

struct Dataset {
    name: &'static str,
    epsilon: f64,
}

const PUBMED: Dataset = Dataset { name: "pubmed", epsilon: 1e-5 };
const FLICKR: Dataset = Dataset { name: "flickr", epsilon: 1e-6 };

impl Workload {
    const ALL: [Workload; 2] = [Workload::PubmedCold, Workload::FlickrZipf];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PubmedCold => "pubmed-cold",
            Workload::FlickrZipf => "flickr-zipf",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    fn dataset(self) -> &'static Dataset {
        match self {
            Workload::PubmedCold => &PUBMED,
            Workload::FlickrZipf => &FLICKR,
        }
    }

    fn service_config(self) -> ServiceConfig {
        let cache = if self == Workload::FlickrZipf { ZIPF_CACHE_PER_WORKER } else { 0 };
        ServiceConfig::default().with_workers(WORKERS).with_cache_per_worker(cache)
    }
}

/// A registered route with what the benchmark keeps beside it: the
/// dataset (ground truth), the freshly built index (the oracle for direct
/// replays), its image (for restarts) and a model of the result cache.
struct Route {
    ds: AttributedDataset,
    built: ClusterIndex,
    engine: Laca<'static>,
    ws: DiffusionWorkspace,
    image: Vec<u8>,
    key: RouteKey,
    /// Replays the request keys through a cache of the service's
    /// geometry: with one client, the service's hits must match it
    /// exactly.
    model: Option<ShardedCache<(NodeId, u64), ()>>,
}

/// Offline-layer times of one build of a workload's dataset.
#[derive(Debug, Default, Clone, Copy)]
struct Build {
    total: Duration,
    generate: Duration,
    tnam: Duration,
    save: Duration,
    load: Duration,
    register: Duration,
}

impl Build {
    fn restart(&self) -> Duration {
        self.load + self.register
    }
}

/// What a computed (not cache-hit) answer reports about its diffusions.
#[derive(Debug, Clone, Copy)]
struct Work {
    pushes_step1: usize,
    pushes_step3: usize,
    rwr_support: usize,
    rho_support: usize,
    greedy_iterations: usize,
    iterations: usize,
}

/// One timed request.
struct Sample {
    hit: bool,
    traced: bool,
    latency_ms: f64,
    /// CPU time the process spent on the request, over the same span.
    cpu_ms: f64,
    submit_us: f64,
    service_ms: f64,
    work: Option<Work>,
}

struct Bench<'a> {
    args: &'a Args,
    workload: Workload,
    router: ServiceRouter,
    config: ServiceConfig,
    tracer: Tracer,
    next_req: u64,
    /// Correctness failures; any makes the run incorrect.
    problems: Vec<String>,
    /// Counters of routes retired so far (restarts replace routes).
    retired: ServiceStats,
    builds: Vec<Build>,
    restarts_ms: Vec<f64>,
    setups_s: Vec<f64>,
    samples: Vec<Sample>,
    failed: u64,
    /// `(core.bdd, diffusion.step1)` times of traced replays, in ms.
    replays_ms: Vec<(f64, f64)>,
    /// Timed requests kept for the post-window replay check.
    kept: Vec<(NodeId, Arc<QueryAnswer>)>,
    hit_mismatches: u64,
}

/// Runs `args.workload` and fills `report`; returns
/// `(correct, attempted, failed)`.
pub fn run(args: &Args, report: &mut Report) -> Result<(bool, u64, u64), String> {
    let workload = args.workload;
    let mut bench = Bench {
        args,
        workload,
        router: ServiceRouter::new(),
        config: workload.service_config(),
        tracer: Tracer::new(args.trace),
        next_req: 0,
        problems: Vec::new(),
        retired: ServiceStats::default(),
        builds: Vec::new(),
        restarts_ms: Vec::new(),
        setups_s: Vec::new(),
        samples: Vec::new(),
        failed: 0,
        replays_ms: Vec::new(),
        kept: Vec::new(),
        hit_mismatches: 0,
    };

    // Set-up: bring the workload's route up from its spec, several times.
    let mut route = None;
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        route = Some(bench.rebuild(route)?);
        bench.setups_s.push(start.elapsed().as_secs_f64());
    }
    let mut route = route.ok_or("no set-up")?;
    bench.restarts(&mut route, RESTARTS)?;

    let ds = &route.ds;
    let mut next: Box<dyn FnMut() -> Option<NodeId>> = match workload {
        Workload::PubmedCold => {
            // Every request a distinct seed: a permutation of all nodes.
            let mut order = sample_seeds(ds, ds.graph.n(), args.seed).into_iter();
            Box::new(move || order.next())
        }
        Workload::FlickrZipf => {
            let pool = sample_seeds(ds, ZIPF_POOL, args.seed ^ POOL_SALT);
            let mut zipf = Zipf::new(pool.len(), ZIPF_S, args.seed);
            Box::new(move || Some(pool[zipf.next_rank()]))
        }
    };
    if workload == Workload::FlickrZipf {
        // The cache fills in an untimed prefix of the same stream.
        for _ in 0..ZIPF_PREFIX {
            let seed = next().expect("Zipf streams are endless");
            bench.request(&mut route, seed, false).map_err(|e| format!("prefix: {e}"))?;
        }
    }

    let before = bench.service_totals(&route);
    let host_before = host::CpuTimes::now()?;
    let cpu_start = host::process_cpu_ms();
    let start = Instant::now();
    bench.query_window(&mut route, start, &mut *next);
    let window = Window {
        stats: bench.service_totals(&route).delta_since(&before),
        seconds: start.elapsed().as_secs_f64(),
        cpu_seconds: (host::process_cpu_ms() - cpu_start) / 1e3,
        steal_pct: host::CpuTimes::now()?.steal_pct_since(&host_before),
    };
    bench.check_kept(&mut route);
    for _ in 0..POST_BUILDS {
        route = bench.rebuild(Some(route))?;
    }
    bench.restarts(&mut route, RESTARTS)?;
    bench.finish(report, route, window)
}

/// What the timed window measured, apart from the request samples.
struct Window {
    stats: ServiceStats,
    seconds: f64,
    /// CPU time of the whole process over the window.
    cpu_seconds: f64,
    steal_pct: f64,
}

impl Bench<'_> {
    fn next_req(&mut self) -> u64 {
        self.next_req += 1;
        self.next_req
    }

    /// spec → generate → TNAM → index → image → load → register for the
    /// workload's dataset, retiring the live route first.
    fn rebuild(&mut self, live: Option<Route>) -> Result<Route, String> {
        if let Some(live) = live {
            self.retire(&live);
        }
        let d = self.workload.dataset();
        let req = self.next_req();
        let spec = datasets::by_name(d.name, 1.0)
            .ok_or_else(|| format!("{}: not in the registry", d.name))?;
        let start = Instant::now();
        let (ds, generate) =
            self.tracer.time(req, "graph.generate", "build", || spec.generate(d.name));
        let ds = ds.map_err(|e| format!("{}: generate: {e}", d.name))?;
        let config = TnamConfig::new(TNAM_K, MetricFn::Cosine);
        let (tnam, tnam_time) =
            self.tracer.time(req, "tnam.build", "build", || Tnam::build(&ds.attributes, &config));
        let tnam = tnam.map_err(|e| format!("{}: TNAM: {e}", d.name))?;
        let built = ClusterIndex::new(
            Arc::new(ds.graph.clone()),
            Some(Arc::new(tnam)),
            LacaParams::new(d.epsilon),
        )
        .map_err(|e| format!("{}: index: {e}", d.name))?
        .with_dataset(d.name);
        let (image, save) =
            self.tracer.time(req, "persist.save", "build", || write_index_bytes(&built));
        let (key, load, register) = self.restart_from(&image, &built, req, "build")?;
        let end = Instant::now();
        self.tracer.record(req, "build", "", start, end);
        let engine = built.engine();
        let ws = DiffusionWorkspace::for_graph(built.graph());
        let model = self.new_model();
        let build = Build { total: end - start, generate, tnam: tnam_time, save, load, register };
        self.builds.push(build);
        self.restarts_ms.push(ms(build.restart()));
        Ok(Route { ds, built, engine, ws, image, key, model })
    }

    /// Image bytes → `read_index_bytes` → `register`; the loaded index's
    /// fingerprint must equal the built one's.
    fn restart_from(
        &mut self,
        image: &[u8],
        built: &ClusterIndex,
        req: u64,
        parent: &'static str,
    ) -> Result<(RouteKey, Duration, Duration), String> {
        let start = Instant::now();
        let (loaded, load) =
            self.tracer.time(req, "persist.load", "restart", || read_index_bytes(image));
        let loaded = loaded.map_err(|e| format!("{}: load: {e}", built.dataset()))?;
        if loaded.fingerprint() != built.fingerprint() {
            self.problems.push(format!(
                "{}: loaded fingerprint {:#x} != built {:#x}",
                built.dataset(),
                loaded.fingerprint(),
                built.fingerprint()
            ));
        }
        let config = self.config.clone();
        let router = &self.router;
        let (key, register) = self
            .tracer
            .time(req, "service.register", "restart", || router.register(loaded, config));
        self.tracer.record(req, "restart", parent, start, Instant::now());
        let key = key.map_err(|e| format!("{}: register: {e}", built.dataset()))?;
        Ok((key, load, register))
    }

    fn new_model(&self) -> Option<ShardedCache<(NodeId, u64), ()>> {
        let capacity = self.config.workers * self.config.cache_per_worker;
        (capacity > 0).then(|| ShardedCache::new(capacity, self.config.cache_shards))
    }

    /// Restarts the route from its image, `times` times.
    fn restarts(&mut self, route: &mut Route, times: usize) -> Result<(), String> {
        for _ in 0..times {
            self.retire(route);
            let req = self.next_req();
            let (key, load, register) = self.restart_from(&route.image, &route.built, req, "")?;
            route.key = key;
            route.model = self.new_model();
            self.restarts_ms.push(ms(load + register));
        }
        Ok(())
    }

    fn retire(&mut self, route: &Route) {
        if let Some(stats) = self.router.stats(&route.key) {
            self.retired.merge(&stats);
        }
        self.router.retire(&route.key);
    }

    fn service_totals(&self, route: &Route) -> ServiceStats {
        let mut total = self.retired.clone();
        if let Some(stats) = self.router.stats(&route.key) {
            total.merge(&stats);
        }
        total
    }

    /// One seed → cluster request. Traced requests record their spans and,
    /// when the answer was computed, are replayed directly right away.
    fn request(
        &mut self,
        route: &mut Route,
        seed: NodeId,
        traced: bool,
    ) -> Result<(Sample, Arc<QueryAnswer>), String> {
        let req = self.next_req();
        let c0 = host::process_cpu_ms();
        let t0 = Instant::now();
        let handle =
            self.router.submit(&route.key, seed).map_err(|e| format!("seed {seed}: {e}"))?;
        let t1 = Instant::now();
        let hit = matches!(handle.immediate(), Some(Ok(_)));
        let answer = handle.wait().map_err(|e| format!("seed {seed}: {e}"))?;
        let t2 = Instant::now();
        let truth_len = route.ds.ground_truth(seed).len();
        let cluster = top_k_cluster(&answer.rho, seed, truth_len);
        let t3 = Instant::now();
        let c3 = host::process_cpu_ms();
        if traced {
            self.tracer.record(req, "request", "", t0, t3);
            self.tracer.record(req, "service.submit", "request", t0, t1);
            self.tracer.record(req, "service.wait", "request", t1, t2);
            self.tracer.record(req, "extract.topk", "request", t2, t3);
        }
        if !cluster.contains(&seed) || cluster.len() > truth_len.max(1) {
            self.problems
                .push(format!("seed {seed}: malformed cluster of {} nodes", cluster.len()));
        }
        // The service keys its cache on (seed, index fingerprint); the key
        // also picks the shard, so the model must use the same one.
        let key = (seed, route.built.fingerprint());
        let expected_hit = match &route.model {
            Some(model) => {
                let cached = model.get(&key).is_some();
                if !cached {
                    model.insert(key, ());
                }
                cached
            }
            None => false,
        };
        if hit != expected_hit {
            self.hit_mismatches += 1;
        }
        let work = (!hit).then(|| work_of(&answer.rho, &answer.stats));
        if traced && !hit {
            self.replay(route, seed, &answer, Some(req));
        }
        let sample = Sample {
            hit,
            traced,
            latency_ms: ms(t3 - t0),
            cpu_ms: c3 - c0,
            submit_us: (t1 - t0).as_secs_f64() * 1e6,
            service_ms: ms(t2 - t0),
            work,
        };
        Ok((sample, answer))
    }

    /// Recomputes `seed` with `Laca::bdd_with_stats_in` on the built index
    /// and checks the served answer against it bit for bit. With a request
    /// id, the replay is traced and also times Step 1 alone
    /// (`adaptive_diffuse_in` on the unit seed).
    fn replay(&mut self, route: &mut Route, seed: NodeId, served: &QueryAnswer, req: Option<u64>) {
        let Route { engine, ws, built, .. } = route;
        let id = req.unwrap_or(0);
        let (direct, bdd) =
            self.tracer.time(id, "core.bdd", "replay", || engine.bdd_with_stats_in(seed, ws));
        let (rho, stats) = match direct {
            Ok(direct) => direct,
            Err(e) => return self.problems.push(format!("seed {seed}: direct replay failed: {e}")),
        };
        if let Some(why) = mismatch(served, &rho, &stats) {
            self.problems.push(format!(
                "{}: seed {seed}: served answer differs from direct: {why}",
                built.dataset()
            ));
        }
        if req.is_some() {
            let p = built.params();
            let dp = DiffusionParams {
                alpha: p.alpha,
                epsilon: p.epsilon,
                sigma: p.sigma,
                record_residuals: false,
            };
            let graph = built.graph();
            let (rwr, step1) = self.tracer.time(id, "diffusion.step1", "replay", || {
                adaptive_diffuse_in(graph, &SparseVec::unit(seed), &dp, ws)
            });
            match rwr {
                Ok(rwr) if rwr.stats.push_operations == stats.rwr.push_operations => {}
                _ => self
                    .problems
                    .push(format!("seed {seed}: Step 1 replay differs from the query's Step 1")),
            }
            self.replays_ms.push((ms(bdd), ms(step1)));
        }
    }

    /// Whether request `i` of the window is traced: every other one, so
    /// traced and untraced requests see the same conditions.
    fn traced(&self, i: usize) -> bool {
        self.tracer.enabled() && i % 2 == 1
    }

    fn window_done(&self, start: Instant) -> bool {
        let elapsed = start.elapsed().as_secs_f64();
        let supported = self.samples.len() >= min_samples(99);
        (elapsed >= self.args.seconds && supported) || elapsed >= MAX_STRETCH * self.args.seconds
    }

    fn record(&mut self, route: &mut Route, seed: NodeId, traced: bool) {
        let i = self.samples.len();
        match self.request(route, seed, traced) {
            Ok((sample, answer)) => {
                if !self.tracer.enabled() && i.is_multiple_of(REPLAY_EVERY) {
                    self.kept.push((seed, answer));
                }
                self.samples.push(sample);
            }
            Err(e) => {
                self.failed += 1;
                eprintln!("perfbench: request failed: {e}");
            }
        }
    }

    fn query_window(
        &mut self,
        route: &mut Route,
        start: Instant,
        next: &mut dyn FnMut() -> Option<NodeId>,
    ) {
        while !self.window_done(start) {
            let Some(seed) = next() else { break };
            let traced = self.traced(self.samples.len());
            self.record(route, seed, traced);
        }
    }

    /// Replays the kept requests on the final route's built index (every
    /// rebuild is identical, fingerprint-checked).
    fn check_kept(&mut self, route: &mut Route) {
        for (seed, answer) in std::mem::take(&mut self.kept) {
            self.replay(route, seed, &answer, None);
        }
    }

    /// The fixed check sample: bit identity against direct compute,
    /// precision at |C_s| = |Y_s|, and the exact counts.
    fn check_sample(&mut self, route: &mut Route) -> Result<(f64, Counts), String> {
        let mut counts = Counts { image_bytes: route.image.len() as u64, ..Counts::default() };
        let seeds = sample_seeds(&route.ds, CHECK_SEEDS, CHECK_RNG);
        let mut sum = 0.0;
        for &seed in &seeds {
            let (_, answer) =
                self.request(route, seed, false).map_err(|e| format!("check sample: {e}"))?;
            self.replay(route, seed, &answer, None);
            let truth = route.ds.ground_truth(seed);
            sum += precision_at(&top_k_cluster(&answer.rho, seed, truth.len()), truth, truth.len());
            let w = work_of(&answer.rho, &answer.stats);
            counts.pushes_step1 += w.pushes_step1 as u64;
            counts.pushes_step3 += w.pushes_step3 as u64;
            counts.rwr_support += w.rwr_support as u64;
            counts.rho_support += w.rho_support as u64;
        }
        Ok((sum / seeds.len() as f64, counts))
    }

    fn finish(
        mut self,
        report: &mut Report,
        mut route: Route,
        w: Window,
    ) -> Result<(bool, u64, u64), String> {
        let (window, elapsed, steal_pct) = (&w.stats, w.seconds, w.steal_pct);
        let n = self.samples.len();
        let hits = self.samples.iter().filter(|s| s.hit).count() as u64;
        let (precision, counts) = self.check_sample(&mut route)?;

        // Hit/miss counts are exact with one client: the service's own
        // counters must agree with the client and with the cache model.
        if window.cache_hits != hits || window.cache_misses != n as u64 - hits + self.failed {
            self.nondeterministic(format!(
                "service counted {} hits / {} misses, client saw {hits} / {}",
                window.cache_hits,
                window.cache_misses,
                n as u64 - hits
            ));
        }
        if self.hit_mismatches > 0 {
            self.nondeterministic(format!(
                "{} requests disagree with the cache model",
                self.hit_mismatches
            ));
        }
        let committed = expected::for_workload(self.workload);
        if precision.to_bits() != committed.precision_bits {
            self.problems.push(format!(
                "precision {precision:?} (bits {:#x}) != committed {:?}",
                precision.to_bits(),
                f64::from_bits(committed.precision_bits)
            ));
        }
        for (name, got, want) in counts.compare(&committed.counts) {
            self.nondeterministic(format!("check-sample {name} = {got}, committed {want}"));
        }

        let builds_ms = |f: fn(&Build) -> Duration| -> Vec<f64> {
            self.builds.iter().map(|b| ms(f(b))).collect()
        };
        let latencies: Vec<f64> = self.samples.iter().map(|s| s.latency_ms).collect();
        let p99 = |v: &[f64]| percentile(v, 99).ok_or("too few samples for p99");
        if self.tracer.enabled() {
            let lat = |traced: bool| -> Vec<f64> {
                self.samples.iter().filter(|s| s.traced == traced).map(|s| s.latency_ms).collect()
            };
            let p50 = |v: &[f64], what: &str| {
                percentile(v, 50).ok_or_else(|| format!("too few samples for {what}"))
            };
            let span_p50 = |name: &str| p50(&self.tracer.durations_ms(name), name);
            let computed: Vec<Work> = self.samples.iter().filter_map(|s| s.work).collect();
            let avg = |f: fn(&Work) -> usize| {
                mean(&computed.iter().map(|w| f(w) as f64).collect::<Vec<_>>())
            };
            let hit_submit: Vec<f64> =
                self.samples.iter().filter(|s| s.hit).map(|s| s.submit_us).collect();
            let per = |total_ns: u64, count: u64| {
                if count == 0 {
                    0.0
                } else {
                    total_ns as f64 / count as f64 / 1e6
                }
            };
            let service_ms: f64 = self.samples.iter().map(|s| s.service_ms).sum();
            let iterations: usize = computed.iter().map(|w| w.iterations).sum();

            report.set(
                "service.submit_hit_us",
                if hit_submit.is_empty() { 0.0 } else { p50(&hit_submit, "hit submits")? },
            );
            report.set("service.hit_ratio", hits as f64 / n.max(1) as f64);
            report
                .set("service.queue_wait_ms", per(window.queue_wait_ns, window.queue_wait_samples));
            report.set("service.compute_ms", per(window.compute_ns, window.compute_samples));
            report.set(
                "service.overhead_ms",
                (service_ms - window.compute_ns as f64 / 1e6) / n.max(1) as f64,
            );
            report.set("service.register_ms", median(&builds_ms(|b| b.register)).unwrap_or(0.0));
            report.set("core.bdd_ms", span_p50("core.bdd")?);
            report.set(
                "core.step23_ms",
                p50(&self.replays_ms.iter().map(|(b, s)| b - s).collect::<Vec<_>>(), "Steps 2-3")?,
            );
            report.set("core.rwr_support", avg(|w| w.rwr_support));
            report.set("core.rho_support", avg(|w| w.rho_support));
            report.set("extract.topk_ms", span_p50("extract.topk")?);
            report.set("diffusion.step1_ms", span_p50("diffusion.step1")?);
            report.set("diffusion.pushes_step1", avg(|w| w.pushes_step1));
            report.set("diffusion.pushes_step3", avg(|w| w.pushes_step3));
            report.set(
                "diffusion.greedy_frac",
                computed.iter().map(|w| w.greedy_iterations).sum::<usize>() as f64
                    / iterations.max(1) as f64,
            );
            report.set("graph.generate_ms", median(&builds_ms(|b| b.generate)).unwrap_or(0.0));
            report.set("tnam.build_ms", median(&builds_ms(|b| b.tnam)).unwrap_or(0.0));
            report.set("persist.save_ms", median(&builds_ms(|b| b.save)).unwrap_or(0.0));
            report.set("persist.load_ms", median(&builds_ms(|b| b.load)).unwrap_or(0.0));
            report.set("persist.image_bytes", counts.image_bytes as f64);
            report.set("host.nproc", host::nproc() as f64);
            report.set("host.steal_pct", steal_pct);
            report.set(
                "trace.overhead_ms",
                p50(&lat(true), "traced requests")? - p50(&lat(false), "untraced requests")?,
            );
            report.set("trace.samples", n as f64);
            let path = std::path::PathBuf::from(format!(
                ".perfbench/trace-{}-seed{}.jsonl",
                self.workload.name(),
                self.args.seed
            ));
            self.tracer.write_jsonl(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        } else {
            let secs = |v: &[f64]| median(v).ok_or("no set-up samples");
            report.set("setup_s", secs(&self.setups_s)?);
            report.set("p50_ms", percentile(&latencies, 50).ok_or("too few samples for p50")?);
            let cpu: Vec<f64> = self.samples.iter().map(|s| s.cpu_ms).collect();
            report.set("p99_cpu_ms", p99(&cpu)?);
            report.set("qps_cpu", n as f64 / w.cpu_seconds);
            report.set("precision", precision);
            report.set(
                "build_s",
                secs(&self.builds.iter().map(|b| b.total.as_secs_f64()).collect::<Vec<_>>())?,
            );
            report.set("restart_ms", secs(&self.restarts_ms)?);
            report.set("peak_rss_mb", host::peak_rss_mb()?);
        }

        // The wall-clock tail and rate, which follow the host's steal: shown
        // beside it, not reported as metrics.
        println!(
            "# {} seed={} trace={} nproc={} steal_pct={steal_pct:.2} samples={n} hits={hits} window_s={elapsed:.2} builds={} wall_p99_ms={:.3} wall_qps={:.1}",
            self.workload.name(),
            self.args.seed,
            u8::from(self.tracer.enabled()),
            host::nproc(),
            self.builds.len(),
            p99(&latencies)?,
            n as f64 / elapsed,
        );
        eprintln!(
            "perfbench: check sample: precision {precision:?} (bits {:#x}), {counts:?}",
            precision.to_bits()
        );
        for problem in &self.problems {
            eprintln!("perfbench: FAILED CHECK: {problem}");
        }
        let attempted = n as u64 + self.failed;
        Ok((self.problems.is_empty(), attempted, self.failed))
    }

    /// A count that must repeat bit for bit did not: the run is reported
    /// as nondeterministic, not as noise.
    fn nondeterministic(&mut self, what: String) {
        self.problems.push(format!("nondeterministic: {what}"));
    }
}

fn work_of(rho: &SparseVec, stats: &LacaQueryStats) -> Work {
    Work {
        pushes_step1: stats.rwr.push_operations,
        pushes_step3: stats.bdd.push_operations,
        rwr_support: stats.rwr_support,
        rho_support: rho.support_size(),
        greedy_iterations: stats.rwr.greedy_iterations + stats.bdd.greedy_iterations,
        iterations: stats.rwr.iterations + stats.bdd.iterations,
    }
}

/// Why a served answer differs from a direct one, if it does: ρ′ must
/// match bit for bit and the push counts exactly.
fn mismatch(served: &QueryAnswer, rho: &SparseVec, stats: &LacaQueryStats) -> Option<String> {
    let bits = |v: &SparseVec| {
        v.to_sorted_pairs().into_iter().map(|(i, x)| (i, x.to_bits())).collect::<Vec<_>>()
    };
    if bits(&served.rho) != bits(rho) {
        return Some("rho' bits".into());
    }
    let s = &served.stats;
    let counts = |s: &LacaQueryStats| {
        (
            s.rwr.push_operations,
            s.bdd.push_operations,
            s.rwr.iterations,
            s.bdd.iterations,
            s.rwr_support,
            s.phi_l1.to_bits(),
        )
    };
    (counts(s) != counts(stats)).then(|| format!("counts {:?} vs {:?}", counts(s), counts(stats)))
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
