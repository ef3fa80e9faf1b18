//! The metric catalog and the one-line JSON result.
//!
//! Every metric the benchmark can print is declared here with its unit.
//! An untraced run prints exactly [`END_TO_END`]; a traced run prints
//! exactly [`PER_LAYER`]. `BENCHMARK.json` at the repository root lists
//! the same names (a test keeps the two in step).

use std::collections::BTreeMap;

/// `(name, unit)` of every end-to-end metric.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("p99_cpu_ms", "ms"),
    ("qps_cpu", "1/cpu-s"),
    ("precision", "ratio"),
    ("build_s", "s"),
    ("restart_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// `(name, unit)` of every per-layer metric, grouped by crate.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("service.submit_hit_us", "us"),
    ("service.hit_ratio", "ratio"),
    ("service.queue_wait_ms", "ms"),
    ("service.compute_ms", "ms"),
    ("service.overhead_ms", "ms"),
    ("service.register_ms", "ms"),
    ("core.bdd_ms", "ms"),
    ("core.step23_ms", "ms"),
    ("core.rwr_support", "count"),
    ("core.rho_support", "count"),
    ("extract.topk_ms", "ms"),
    ("diffusion.step1_ms", "ms"),
    ("diffusion.pushes_step1", "count"),
    ("diffusion.pushes_step3", "count"),
    ("diffusion.greedy_frac", "ratio"),
    ("graph.generate_ms", "ms"),
    ("tnam.build_ms", "ms"),
    ("persist.save_ms", "ms"),
    ("persist.load_ms", "ms"),
    ("persist.image_bytes", "bytes"),
    ("host.nproc", "count"),
    ("host.steal_pct", "%"),
    ("trace.overhead_ms", "ms"),
    ("trace.samples", "count"),
];

/// `true` when `name` is 1–64 characters of `[A-Za-z0-9_.-]` starting
/// with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    (1..=64).contains(&name.len())
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// `true` when `unit` is 1–16 characters of `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

/// Collects one run's metrics and renders the result line.
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Records `name`; it must be declared in [`END_TO_END`] or [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        let unit = unit_of(name).unwrap_or_else(|| panic!("undeclared metric {name}"));
        assert!(valid_name(name) && valid_unit(unit), "metric {name} [{unit}] breaks the charset");
        self.values.insert(name, value);
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`
    /// with exactly the catalog of the run's mode. Fails when a metric of
    /// that catalog is missing or not finite.
    pub fn render(
        &self,
        traced: bool,
        correct: bool,
        attempted: u64,
        failed: u64,
    ) -> Result<String, String> {
        let catalog = if traced { PER_LAYER } else { END_TO_END };
        let mut fields = Vec::with_capacity(catalog.len());
        for &(name, unit) in catalog {
            let value = *self.values.get(name).ok_or_else(|| format!("metric {name} missing"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is {value}"));
            }
            fields.push(format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"));
        }
        Ok(format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            fields.join(", ")
        ))
    }
}

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END.iter().chain(PER_LAYER).find(|(n, _)| *n == name).map(|&(_, u)| u)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_names_and_units_follow_the_charset() {
        let all: Vec<_> = END_TO_END.iter().chain(PER_LAYER).collect();
        for &&(name, unit) in &all {
            assert!(valid_name(name), "bad name {name}");
            assert!(valid_unit(unit), "bad unit {unit} of {name}");
        }
        let mut names: Vec<_> = all.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "a metric name is declared twice");
    }

    #[test]
    fn charset_rejects_malformed_names() {
        assert!(valid_name("p50_ms") && valid_name("core.bdd_ms") && valid_name("9lives"));
        assert!(!valid_name(""));
        assert!(!valid_name("_leading"));
        assert!(!valid_name(".leading"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/name"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(
            valid_unit("1/s") && valid_unit("1/cpu-s") && valid_unit("%") && valid_unit("count")
        );
        assert!(!valid_unit("") && !valid_unit("µs") && !valid_unit(&"u".repeat(17)));
    }

    /// `BENCHMARK.json` must declare the same metrics, with the same
    /// units, in the same sections.
    #[test]
    fn benchmark_json_matches_the_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let section = |key: &str| {
            let start = json.find(&format!("\"{key}\"")).expect("section present");
            let body = &json[start..];
            body[..body.find(']').expect("section closes")].to_string()
        };
        let declared = |body: &str| -> Vec<(String, String)> {
            body.split("\"name\"")
                .skip(1)
                .map(|entry| {
                    let field = |key: &str| {
                        let at = entry.find(&format!("\"{key}\"")).expect("field present");
                        entry[at + key.len() + 2..].split('"').nth(1).expect("quoted").to_string()
                    };
                    let name = entry.split('"').nth(1).expect("quoted name").to_string();
                    (name, field("unit"))
                })
                .collect()
        };
        let expect = |catalog: &[(&str, &str)]| -> Vec<(String, String)> {
            catalog.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(declared(&section("end_to_end")), expect(END_TO_END));
        assert_eq!(declared(&section("per_layer")), expect(PER_LAYER));
    }

    #[test]
    fn render_requires_every_metric_of_the_mode() {
        let mut report = Report::default();
        for &(name, _) in END_TO_END {
            report.set(name, 1.5);
        }
        let line = report.render(false, true, 10, 0).expect("complete");
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0"));
        assert!(line.contains("\"qps_cpu\": {\"value\": 1.5, \"unit\": \"1/cpu-s\"}"));
        assert!(report.render(true, true, 10, 0).is_err(), "per-layer metrics missing");
        report.set("p50_ms", f64::NAN);
        assert!(report.render(false, true, 10, 0).is_err());
    }
}
