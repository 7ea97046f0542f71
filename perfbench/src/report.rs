//! Metric definitions, output checks and the report format.
//!
//! The metric lists here and in `BENCHMARK.json` are the same; a test
//! keeps them in step.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A named metric with its unit.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Metric name, matching `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
}

const fn def(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

use Better::{Higher, Lower};

/// The end-to-end metrics, reported by every untraced run.
pub const END_TO_END: &[MetricDef] = &[
    def("setup_s", "s", Lower),
    def("ms_per_legal_pattern", "ms", Lower),
    def("legal_pct", "%", Higher),
    def("fulfilled_pct", "%", Higher),
    def("unique_pct", "%", Higher),
    def("first_item_p50_ms", "ms", Lower),
    def("first_item_tail_ms", "ms", Lower),
    def("request_p50_ms", "ms", Lower),
    def("request_tail_ms", "ms", Lower),
    def("max_rate_rps", "1/s", Higher),
    def("peak_rss_mb", "MB", Lower),
];

/// The per-layer metrics, reported by every traced run.
pub const PER_LAYER: &[MetricDef] = &[
    def("dp_datagen.dataset_ms", "ms", Lower),
    def("dp_nn.train_s", "s", Lower),
    def("diffpattern.freeze_ms", "ms", Lower),
    def("dp_nn.forward_us_per_call", "us", Lower),
    def("dp_nn.items_per_call", "count", Higher),
    def("dp_nn.forward_calls_per_item", "count", Lower),
    def("dp_nn.gemm_calibration_ms", "ms", Lower),
    def("dp_diffusion.chain_self_us_per_item", "us", Lower),
    def("dp_diffusion.conditioned_overhead_pct", "%", Lower),
    def("dp_squish.unfold_us_per_sample", "us", Lower),
    def("dp_geometry.prefilter_us_per_sample", "us", Lower),
    def("dp_legalize.solve_us_per_call", "us", Lower),
    def("diffpattern.replay_coverage_pct", "%", Higher),
    def("diffpattern.attempts_per_legal", "count", Lower),
    def("dp_geometry.prefilter_repaired_pct", "%", Lower),
    def("dp_geometry.prefilter_rejected_pct", "%", Lower),
    def("dp_legalize.iters_per_solve", "count", Lower),
    def("dp_legalize.restarts_per_solve", "count", Lower),
    def("dp_legalize.failures_pct", "%", Lower),
    def("diffpattern.submit_us.p50", "us", Lower),
    def("diffpattern.submit_us.tail", "us", Lower),
    def("diffpattern.queued_lanes_mean", "count", Lower),
    def("diffpattern.lanes_in_flight_mean", "count", Higher),
    def("diffpattern.batch_fill_pct", "%", Higher),
    def("diffpattern.queue_wait_ms", "ms", Lower),
    def("dp_serve.first_chunk_ms", "ms", Lower),
    def("dp_serve.server_admit_us", "us", Lower),
    def("dp_serve.server_first_item_ms", "ms", Lower),
    def("dp_serve.server_stream_ms", "ms", Lower),
    def("dp_serve.wire_overhead_ms", "ms", Lower),
    def("dp_drc.audit_us_per_pattern", "us", Lower),
    def("dp_drc.violations", "count", Lower),
    def("dp_library.ingest_us_per_item", "us", Lower),
    def("dp_library.duplicates", "count", Lower),
    def("dp_library.finish_ms", "ms", Lower),
    def("dp_library.reopen_ms", "ms", Lower),
    def("dp_library.read_us_per_record", "us", Lower),
    def("diversity_bits", "bits", Higher),
    def("harness.generator_lag_tail_ms", "ms", Lower),
    def("harness.tracing_overhead_pct", "%", Lower),
];

/// Whether `name` is a valid metric name: `[A-Za-z0-9_.-]+`, starting
/// with a letter or digit, at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// One output check.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub passed: bool,
    /// Evidence, for the human-readable report.
    pub detail: String,
}

/// Everything one run prints.
#[derive(Debug)]
pub struct Report {
    trace: bool,
    values: BTreeMap<&'static str, (f64, String)>,
    checks: Vec<Check>,
    details: Vec<String>,
    /// Requests the run attempted.
    pub attempted: u64,
    /// Requests that failed or were refused.
    pub failed: u64,
}

impl Report {
    /// An empty report for an untraced (`trace = false`) or traced run.
    pub fn new(trace: bool) -> Self {
        Report {
            trace,
            values: BTreeMap::new(),
            checks: Vec::new(),
            details: Vec::new(),
            attempted: 0,
            failed: 0,
        }
    }

    /// The metric list this run reports.
    pub fn defs(&self) -> &'static [MetricDef] {
        if self.trace {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// Sets a metric of this run's list (metrics of the other list are
    /// ignored, so workload code can set both unconditionally).
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.set_noted(name, value, String::new());
    }

    /// Sets a metric with a note for the human-readable report (such as
    /// a tail's percentile and sample count).
    pub fn set_noted(&mut self, name: &'static str, value: f64, note: String) {
        let known = END_TO_END.iter().chain(PER_LAYER).any(|d| d.name == name);
        assert!(known, "metric {name} is not declared");
        if self.defs().iter().any(|d| d.name == name) {
            self.values.insert(name, (value, note));
        }
    }

    /// A metric's value, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|(v, _)| *v)
    }

    /// Records an output check.
    pub fn check(&mut self, name: &str, passed: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name: name.to_string(),
            passed,
            detail: detail.into(),
        });
    }

    /// The checks recorded so far.
    pub fn checks(&self) -> &[Check] {
        &self.checks
    }

    /// Adds a line to the human-readable report.
    pub fn detail(&mut self, line: impl Into<String>) {
        self.details.push(line.into());
    }

    /// Checks that every metric of this run's list was set to a finite
    /// number.
    pub fn seal(&mut self) {
        let missing: Vec<&str> = self
            .defs()
            .iter()
            .filter(|d| !self.values.get(d.name).is_some_and(|(v, _)| v.is_finite()))
            .map(|d| d.name)
            .collect();
        self.check(
            "every metric reported as a finite number",
            missing.is_empty(),
            if missing.is_empty() {
                format!("{} metrics", self.defs().len())
            } else {
                format!("missing or not finite: {}", missing.join(", "))
            },
        );
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.passed)
    }

    /// The human-readable report.
    pub fn human(&self) -> String {
        let mut out = String::new();
        for line in &self.details {
            let _ = writeln!(out, "{line}");
        }
        for d in self.defs() {
            match self.values.get(d.name) {
                Some((v, note)) if note.is_empty() => {
                    let _ = writeln!(out, "metric {:<40} {:>14.4} {}", d.name, v, d.unit);
                }
                Some((v, note)) => {
                    let _ = writeln!(out, "metric {:<40} {:>14.4} {} ({note})", d.name, v, d.unit);
                }
                None => {
                    let _ = writeln!(out, "metric {:<40} {:>14} {}", d.name, "missing", d.unit);
                }
            }
        }
        for c in &self.checks {
            let verdict = if c.passed { "ok  " } else { "FAIL" };
            let _ = writeln!(out, "check {verdict} {}: {}", c.name, c.detail);
        }
        out
    }

    /// The final JSON line: `correct`, `attempted`, `failed` and every
    /// metric of this run's list with its unit.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .defs()
            .iter()
            .filter_map(|d| {
                let (v, _) = self.values.get(d.name)?;
                v.is_finite().then(|| {
                    format!(
                        "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                        d.name, d.unit
                    )
                })
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_valid_and_unique() {
        let all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        for name in &all {
            assert!(valid_name(name), "{name}");
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "duplicate metric name");
        assert!(!valid_name("bad name"));
        assert!(!valid_name("_leading"));
        assert!(!valid_name(""));
    }

    #[test]
    fn json_line_carries_every_metric_with_its_unit() {
        let mut report = Report::new(false);
        for d in END_TO_END {
            report.set(d.name, 1.5);
        }
        report.set("dp_drc.violations", 3.0); // other list: ignored
        report.seal();
        assert!(report.correct());
        let line = report.json_line();
        let parsed = dp_serve::json::parse(&line).expect("valid JSON");
        let metrics = parsed.get("metrics").expect("metrics");
        for d in END_TO_END {
            let m = metrics.get(d.name).expect(d.name);
            assert_eq!(m.get("unit").and_then(|u| u.as_str()), Some(d.unit));
        }
        assert!(metrics.get("dp_drc.violations").is_none());
    }

    #[test]
    fn a_missing_metric_fails_the_report() {
        let mut report = Report::new(true);
        report.set("dp_nn.train_s", 0.5);
        report.seal();
        assert!(!report.correct());
        assert!(report.json_line().starts_with("{\"correct\": false"));
    }

    #[test]
    fn lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        let json = dp_serve::json::parse(&text).expect("valid JSON");
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = match json.get(key) {
                Some(dp_serve::Json::Arr(items)) => items.clone(),
                other => panic!("{key}: {other:?}"),
            };
            assert_eq!(listed.len(), defs.len(), "{key}");
            for (entry, d) in listed.iter().zip(defs) {
                assert_eq!(entry.get("name").and_then(|v| v.as_str()), Some(d.name));
                assert_eq!(entry.get("unit").and_then(|v| v.as_str()), Some(d.unit));
                assert_eq!(
                    entry.get("better").and_then(|v| v.as_str()),
                    Some(d.better.as_str())
                );
            }
        }
    }
}
