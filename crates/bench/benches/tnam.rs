//! Preprocessing benchmark for the multi-threaded TNAM build (Algo. 3):
//! serial versus parallel wall-clock of `Tnam::build` on two registry
//! substrates — **pubmed-like** (n ≈ 19.7k, d = 500, the diffusion/serving
//! bench substrate) and an **amazon-scale slice** (`amazon2m` at 2 %,
//! n ≈ 49k, d = 100) — for both the k-SVD (cosine) and ORF (exp-cosine)
//! paths at the paper's default `k = 32`.
//!
//! The serial leg runs the *same* code under `rayon::run_sequential`
//! (every parallel kernel forced inline, same split order); the parallel
//! leg uses the work-stealing pool at `RAYON_NUM_THREADS`. Outputs are
//! bit-identical by construction (asserted once per dataset here, and
//! exhaustively in `crates/core/tests/parallel_determinism.rs`), so the
//! speedup is pure scheduling.
//!
//! Writes `BENCH_tnam.json` at the repo root (override with
//! `BENCH_TNAM_JSON`): raw timings plus derived `speedup/*` ratios and
//! `host/threads`. **Read speedups together with `host/threads`**: the
//! committed baseline comes from a 2-core host (`host/threads = 2`), so
//! the parallel leg can at best halve the serial one; on one core the
//! legs tie (speedup ≈ 1.0, the small gap being scheduler overhead) — the
//! same caveat as the cold legs of `BENCH_serving.json`. ≥2× at 4 threads
//! is the target for the k-SVD path.

use criterion::Criterion;
use laca_core::tnam::TnamConfig;
use laca_core::{MetricFn, Tnam};
use laca_graph::datasets::{amazon2m_like, pubmed_like};
use laca_graph::AttributeMatrix;

const K: usize = 32;

fn build_cfgs() -> Vec<(&'static str, TnamConfig)> {
    vec![
        ("cosine_ksvd", TnamConfig::new(K, MetricFn::Cosine)),
        ("exp_orf", TnamConfig::new(K, MetricFn::ExpCosine { delta: 1.0 })),
    ]
}

fn assert_serial_parallel_bits_match(attrs: &AttributeMatrix, cfg: &TnamConfig) {
    let par = Tnam::build(attrs, cfg).unwrap();
    let seq = rayon::run_sequential(|| Tnam::build(attrs, cfg).unwrap());
    for (i, j) in [(0usize, 1usize), (3, 7), (11, 2)] {
        assert_eq!(
            par.s_approx(i, j).to_bits(),
            seq.s_approx(i, j).to_bits(),
            "serial/parallel TNAM divergence — determinism contract broken"
        );
    }
}

fn bench_dataset(c: &mut Criterion, name: &str, attrs: &AttributeMatrix) {
    let mut group = c.benchmark_group("tnam_build");
    group.sample_size(20);
    for (metric, cfg) in build_cfgs() {
        assert_serial_parallel_bits_match(attrs, &cfg);
        group.bench_function(format!("serial/{name}/{metric}"), |b| {
            b.iter(|| rayon::run_sequential(|| Tnam::build(attrs, &cfg).unwrap()))
        });
        group.bench_function(format!("parallel/{name}/{metric}"), |b| {
            b.iter(|| Tnam::build(attrs, &cfg).unwrap())
        });
    }
    group.finish();
}

fn main() {
    eprintln!("[tnam bench] generating pubmed-like (n=19.7k, d=500)...");
    let pubmed = pubmed_like().generate("pubmed").unwrap();
    eprintln!("[tnam bench] generating amazon2m-like at 2% (n~49k, d=100)...");
    let amazon = amazon2m_like(0.02).generate("amazon2m").unwrap();

    let mut criterion = Criterion::default();
    bench_dataset(&mut criterion, "pubmed", &pubmed.attributes);
    bench_dataset(&mut criterion, "amazon2m", &amazon.attributes);

    let results = criterion::take_results();
    let min_of =
        |label: String| results.iter().find(|r| r.label == label).map(|r| r.tmin_ns as f64);
    let mut derived: Vec<(String, f64)> = Vec::new();
    for ds in ["pubmed", "amazon2m"] {
        for (metric, _) in build_cfgs() {
            let serial = min_of(format!("tnam_build/serial/{ds}/{metric}"));
            let parallel = min_of(format!("tnam_build/parallel/{ds}/{metric}"));
            if let (Some(s), Some(p)) = (serial, parallel) {
                if p > 0.0 {
                    derived.push((format!("speedup/{ds}/{metric}"), s / p));
                }
            }
        }
    }
    derived.push(("host/threads".to_string(), rayon::current_num_threads() as f64));

    let path =
        std::env::var("BENCH_TNAM_JSON").map(std::path::PathBuf::from).unwrap_or_else(|_| {
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_tnam.json")
        });
    criterion::write_json(&path, &results, &derived).expect("failed to write bench JSON");
    if let Ok(generic) = std::env::var("CRITERION_JSON") {
        if !generic.is_empty() {
            criterion::write_json(std::path::Path::new(&generic), &results, &derived)
                .expect("failed to write CRITERION_JSON");
        }
    }
    println!(
        "\nwrote {} results and {} derived entries to {}",
        results.len(),
        derived.len(),
        path.display()
    );
    for (k, v) in &derived {
        println!("{k:<28} {v:.3}");
    }
}
