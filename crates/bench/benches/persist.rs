//! Persistence benchmark: cold `ClusterIndex` rebuild versus loading the
//! persisted image back from an [`laca_persist::IndexStore`], on the
//! registry's mid-size graph (pubmed-like, n ≈ 19.7k — the same substrate
//! as the diffusion and serving benches).
//!
//! Four legs:
//!
//! * **rebuild** — the full offline pipeline: TNAM construction over the
//!   attribute matrix plus all index plumbing. This is what every service
//!   restart pays without a store.
//! * **store_load** — `IndexStore::load`: read the image from disk, run
//!   the complete fail-closed validation pipeline (checksums, structural
//!   validators, fingerprint re-verification) and reconstruct the index.
//!   The ISSUE acceptance bar — and the release-mode assertion in the
//!   `persist` CI job — is rebuild/store_load ≥ 10×.
//! * **write_bytes / read_bytes** — the in-memory serializer and parser
//!   alone, isolating format cost from filesystem cost.
//!
//! Writes `BENCH_persist.json` at the repo root (override with
//! `BENCH_PERSIST_JSON`): the timings plus derived `speedup/*`,
//! `throughput/*` and `image/bytes` entries. The committed copy is the
//! perf-trajectory baseline `bench_compare` diffs against.

use criterion::Criterion;
use laca_bench::load_dataset;
use laca_core::tnam::TnamConfig;
use laca_core::{LacaParams, MetricFn};
use laca_persist::{read_index_bytes, write_index_bytes, IndexStore};
use laca_service::ClusterIndex;

fn main() {
    eprintln!("[persist bench] building pubmed-like index (TNAM k=32)...");
    let ds = load_dataset("pubmed", 1.0);
    let tnam = TnamConfig::new(32, MetricFn::Cosine);
    let params = LacaParams::new(1e-4);

    // Reference index and its published on-disk image, built outside any
    // timed region.
    let index = ClusterIndex::from_dataset(&ds, &tnam, params.clone()).expect("build index");
    let dir = std::env::temp_dir().join(format!("laca-bench-persist-{}", std::process::id()));
    let store = IndexStore::open(&dir).expect("open store");
    let path = store.save(&index).expect("publish index");
    let image_len = std::fs::metadata(&path).expect("stat image").len() as f64;
    let (dataset, fp) = (index.dataset().to_string(), index.fingerprint());
    let bytes = write_index_bytes(&index);

    let mut c = Criterion::default();
    let mut group = c.benchmark_group("persist");
    // The rebuild leg runs for seconds per sample; the vendored harness's
    // per-benchmark time budget trims the sample count, so ask for few.
    group.sample_size(10);
    group.bench_function("rebuild/pubmed", |b| {
        b.iter(|| {
            let rebuilt =
                ClusterIndex::from_dataset(&ds, &tnam, params.clone()).expect("rebuild index");
            criterion::black_box(rebuilt.fingerprint())
        })
    });
    group.bench_function("store_load/pubmed", |b| {
        b.iter(|| {
            let loaded = store.load(&dataset, fp).expect("load index");
            criterion::black_box(loaded.fingerprint())
        })
    });
    group.bench_function("write_bytes/pubmed", |b| {
        b.iter(|| criterion::black_box(write_index_bytes(&index).len()))
    });
    group.bench_function("read_bytes/pubmed", |b| {
        b.iter(|| {
            let parsed = read_index_bytes(&bytes).expect("parse image");
            criterion::black_box(parsed.fingerprint())
        })
    });
    group.finish();
    std::fs::remove_dir_all(&dir).ok();

    let results = criterion::take_results();
    // Derived ratios use the trimmed min — the same statistic the CI perf
    // gate compares, so the committed speedup matches the gate's view.
    let min_of = |label: &str| results.iter().find(|r| r.label == label).map(|r| r.tmin_ns as f64);
    let mut derived: Vec<(String, f64)> = Vec::new();
    if let (Some(rebuild), Some(load)) =
        (min_of("persist/rebuild/pubmed"), min_of("persist/store_load/pubmed"))
    {
        derived.push(("speedup/load_over_rebuild".to_string(), rebuild / load));
    }
    if let (Some(rebuild), Some(parse)) =
        (min_of("persist/rebuild/pubmed"), min_of("persist/read_bytes/pubmed"))
    {
        derived.push(("speedup/parse_over_rebuild".to_string(), rebuild / parse));
    }
    if let Some(parse) = min_of("persist/read_bytes/pubmed") {
        derived.push((
            "throughput/parse_gib_per_s".to_string(),
            image_len / (parse * 1e-9) / f64::from(1u32 << 30),
        ));
    }
    derived.push(("image/bytes".to_string(), image_len));
    derived.push(("host/threads".to_string(), rayon::current_num_threads() as f64));

    let path =
        std::env::var("BENCH_PERSIST_JSON").map(std::path::PathBuf::from).unwrap_or_else(|_| {
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_persist.json")
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
        println!("{k:<32} {v:.2}");
    }
}
