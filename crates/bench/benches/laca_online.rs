//! Criterion micro-benchmarks for the LACA online phase (Algo. 4): one
//! full seed query across diffusion thresholds — the `O(k/((1−α)ε))`
//! claim behind Fig. 10 — plus the cluster extraction that follows it.
//!
//! * `laca_online/{cora,pubmed}/{1e-4,1e-6}` — `Laca::bdd` from seed 0
//!   (Steps 1–3) on a warm thread workspace.
//! * `laca_online/topk/pubmed` — `top_k_cluster` on one fixed pubmed-like
//!   `ρ′` (seed 0, `ε = 1e-5`, the cold-traffic setting of the repo
//!   benchmark) at `k = |Y_s|`, the paper's `|C_s|`.
//!
//! Writes `BENCH_laca_online.json` at the repo root (override with
//! `BENCH_LACA_ONLINE_JSON`): all timings plus the derived support size
//! of the extraction input, `k`, and `host/threads`.

use criterion::{criterion_group, BenchmarkId, Criterion};
use laca_core::extract::top_k_cluster;
use laca_core::{Laca, LacaParams, MetricFn, Tnam, TnamConfig};
use laca_graph::datasets::{cora_like, pubmed_like};
use std::sync::OnceLock;

/// `(|supp ρ′|, k)` of the extraction leg, for the derived section.
static TOPK_SHAPE: OnceLock<(usize, usize)> = OnceLock::new();

fn bench_online(c: &mut Criterion) {
    let mut group = c.benchmark_group("laca_online");
    group.sample_size(20);
    for (name, spec) in [("cora", cora_like()), ("pubmed", pubmed_like())] {
        let ds = spec.generate(name).unwrap();
        let tnam = Tnam::build(&ds.attributes, &TnamConfig::new(32, MetricFn::Cosine)).unwrap();
        for eps in [1e-4f64, 1e-6f64] {
            let engine = Laca::new(&ds.graph, Some(&tnam), LacaParams::new(eps)).unwrap();
            group.bench_with_input(
                BenchmarkId::new(name, format!("{eps:.0e}")),
                &engine,
                |b, e| b.iter(|| e.bdd(0).unwrap()),
            );
        }
        if name == "pubmed" {
            let engine = Laca::new(&ds.graph, Some(&tnam), LacaParams::new(1e-5)).unwrap();
            let rho = engine.bdd(0).unwrap();
            let k = ds.ground_truth(0).len();
            TOPK_SHAPE.get_or_init(|| (rho.support_size(), k));
            group.bench_with_input(BenchmarkId::new("topk", name), &rho, |b, rho| {
                b.iter(|| top_k_cluster(rho, 0, k))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_online);

fn main() {
    benches();
    let results = criterion::take_results();
    let (support, k) = TOPK_SHAPE.get().copied().unwrap_or_default();
    let derived = vec![
        ("topk/rho_support".to_string(), support as f64),
        ("topk/k".to_string(), k as f64),
        ("host/threads".to_string(), rayon::current_num_threads() as f64),
    ];
    let path = std::env::var("BENCH_LACA_ONLINE_JSON")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|_| {
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_laca_online.json")
        });
    criterion::write_json(&path, &results, &derived).expect("failed to write bench JSON");
    // This custom main bypasses `criterion_main!`, so honor the generic
    // CRITERION_JSON hook here too.
    if let Ok(generic) = std::env::var("CRITERION_JSON") {
        if !generic.is_empty() {
            criterion::write_json(std::path::Path::new(&generic), &results, &derived)
                .expect("failed to write CRITERION_JSON");
        }
    }
    println!("\nwrote {} results to {}", results.len(), path.display());
}
