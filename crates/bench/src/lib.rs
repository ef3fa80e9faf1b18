//! Shared plumbing for the experiment binaries (one binary per paper table
//! or figure; see DESIGN.md §4 for the index).
//!
//! Every binary accepts:
//!
//! * `--seeds N` — seed nodes per dataset (paper: 500; defaults here are
//!   smaller so the whole suite finishes on a laptop),
//! * `--scale X` — multiplier on the registry's default dataset scale
//!   factors (1.0 = the documented defaults; see EXPERIMENTS.md),
//! * `--datasets a,b,c` — restrict to named datasets,
//! * `--out DIR` — also write CSVs (default `results/`).

use laca_graph::datasets::{by_name, default_scale};
use laca_graph::AttributedDataset;
use std::path::PathBuf;

pub mod bench_json;

/// Parsed command-line options shared by all experiment binaries.
#[derive(Debug, Clone)]
pub struct ExpArgs {
    /// Seeds per dataset.
    pub seeds: usize,
    /// Multiplier applied to the default dataset scale factors.
    pub scale: f64,
    /// Dataset-name filter (empty = binary's default set).
    pub datasets: Vec<String>,
    /// CSV output directory.
    pub out_dir: PathBuf,
    /// Free-form parameter selector (e.g. `--param alpha`).
    pub param: Option<String>,
}

impl ExpArgs {
    /// Parses `std::env::args`, with a default seed count per binary.
    /// A malformed line prints its error and exits with status 2.
    pub fn parse(default_seeds: usize) -> ExpArgs {
        ExpArgs::parse_from(std::env::args().skip(1), default_seeds).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2)
        })
    }

    /// Parses an argument list (without the program name). A flag with a
    /// missing or malformed value is an error: `--seeds` needs an
    /// integer ≥ 1, `--scale` a finite number > 0. Unknown flags only
    /// warn.
    pub fn parse_from(
        args: impl IntoIterator<Item = String>,
        default_seeds: usize,
    ) -> Result<ExpArgs, String> {
        let mut out = ExpArgs {
            seeds: default_seeds,
            scale: 1.0,
            datasets: Vec::new(),
            out_dir: PathBuf::from("results"),
            param: None,
        };
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--seeds" => {
                    let v = value()?;
                    out.seeds = match v.parse::<usize>() {
                        Ok(n) if n >= 1 => n,
                        _ => return Err(format!("--seeds must be an integer >= 1, got '{v}'")),
                    };
                }
                "--scale" => {
                    let v = value()?;
                    out.scale = match v.parse::<f64>() {
                        Ok(x) if x.is_finite() && x > 0.0 => x,
                        _ => return Err(format!("--scale must be a finite number > 0, got '{v}'")),
                    };
                }
                "--datasets" => {
                    out.datasets = value()?.split(',').map(|s| s.trim().to_string()).collect();
                }
                "--out" => out.out_dir = PathBuf::from(value()?),
                "--param" => out.param = Some(value()?),
                other => eprintln!("warning: ignoring unknown argument {other}"),
            }
        }
        Ok(out)
    }

    /// The dataset list to use: the CLI filter, or the given default.
    pub fn dataset_names(&self, default: &[&str]) -> Vec<String> {
        if self.datasets.is_empty() {
            default.iter().map(|s| s.to_string()).collect()
        } else {
            self.datasets.clone()
        }
    }
}

/// Generates a registry dataset at `default_scale × extra_scale` — or
/// loads it from the on-disk store named by `LACA_INDEX_STORE` when a
/// previous run already cached the identical spec (keyed by
/// [`laca_graph::gen::AttributedGraphSpec::fingerprint`], so any spec or
/// scale change regenerates). CI points every test/bench job at a shared
/// cached store directory; generation is bit-identical for any thread
/// count, so the cache is safely shared across matrix legs.
pub fn load_dataset(name: &str, extra_scale: f64) -> AttributedDataset {
    let scale = default_scale(name) * extra_scale;
    let spec = by_name(name, scale)
        .unwrap_or_else(|| panic!("unknown dataset '{name}' (see laca_graph::datasets)"));
    let t0 = std::time::Instant::now();
    let ds = laca_persist::cached_dataset(&spec, &format!("{name}-like"))
        .expect("dataset generation failed");
    let stats = ds.stats();
    eprintln!(
        "[gen] {name}: n={} m={} d={} |Ys|~{:.0} ({:.1}s)",
        stats.n,
        stats.m,
        stats.dim,
        stats.avg_cluster_size,
        t0.elapsed().as_secs_f64()
    );
    ds
}

/// Prints a section header in the experiment binaries' output.
pub fn banner(title: &str) {
    println!("\n==== {title} ====");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &[&str]) -> Result<ExpArgs, String> {
        ExpArgs::parse_from(line.iter().map(|s| s.to_string()), 7)
    }

    #[test]
    fn parses_a_good_line() {
        let args = parse(&[
            "--seeds",
            "12",
            "--scale",
            "0.02",
            "--datasets",
            "cora, arxiv",
            "--out",
            "tmp",
            "--param",
            "alpha",
        ])
        .unwrap();
        assert_eq!(args.seeds, 12);
        assert_eq!(args.scale, 0.02);
        assert_eq!(args.datasets, vec!["cora", "arxiv"]);
        assert_eq!(args.out_dir, PathBuf::from("tmp"));
        assert_eq!(args.param.as_deref(), Some("alpha"));
        // Defaults survive an empty line.
        let args = parse(&[]).unwrap();
        assert_eq!((args.seeds, args.scale), (7, 1.0));
    }

    #[test]
    fn rejects_malformed_values() {
        for line in [
            &["--seeds", "abc"][..],
            &["--seeds", "0"],
            &["--seeds", "-3"],
            &["--seeds", "2.5"],
            &["--seeds"],
            &["--scale", "abc"],
            &["--scale", "0"],
            &["--scale", "-1"],
            &["--scale", "NaN"],
            &["--scale", "inf"],
            &["--scale"],
            &["--datasets"],
            &["--out"],
            &["--param"],
        ] {
            assert!(parse(line).is_err(), "{line:?} was accepted");
        }
    }
}
