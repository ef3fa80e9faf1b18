//! The repository benchmark: seed → cluster latency on cold and
//! Zipf-cached traffic, and spec → served index builds around it, with
//! per-layer timings from a separate traced run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <pubmed-cold|flickr-zipf> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}` — the end-to-end
//! metrics when untraced, the per-layer metrics when traced.

mod expected;
mod host;
mod report;
mod stats;
mod trace;
mod workloads;
mod zipf;

use workloads::Workload;

/// Parsed command line.
#[derive(Debug)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <pubmed-cold|flickr-zipf> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => {
                seed = Some(value.parse::<u64>().map_err(|_| bad("expected a whole number"))?)
            }
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("expected a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("expected 0 < seconds <= 600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let mut report = report::Report::default();
    let line = workloads::run(&args, &mut report).and_then(|(correct, attempted, failed)| {
        report.render(args.trace, correct, attempted, failed)
    });
    match line {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_command_line() {
        let args = parse("--workload flickr-zipf --seed 7 --seconds 10 --trace 1").expect("valid");
        assert_eq!(args.workload, Workload::FlickrZipf);
        assert_eq!((args.seed, args.seconds, args.trace), (7, 10.0, true));
        assert!(parse("--workload nope --seed 1 --seconds 1").is_err());
        assert!(parse("--workload pubmed-cold --seed -1 --seconds 1").is_err());
        assert!(parse("--workload pubmed-cold --seed 1 --seconds 0").is_err());
        assert!(parse("--workload pubmed-cold --seed 1 --seconds 1 --trace 2").is_err());
        assert!(parse("--workload pubmed-cold --seconds 1").is_err());
        assert!(parse("--workload pubmed-cold --seed 1 --seconds 1 --bogus 1").is_err());
    }
}
