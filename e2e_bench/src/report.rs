//! Metric names, the per-run report, and the result line.

use std::collections::BTreeMap;

use crate::trace::{by_layer, Span};

/// End-to-end metrics, printed by an untraced run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("rank_corr_mean", "rho"),
];

/// Layers timed by spans in a traced run. Each yields `<layer>_us` (mean
/// self time per call; `_ms` for the generator), `<layer>.calls` and
/// `<layer>.failed`.
pub const SPAN_LAYERS: [&str; 16] = [
    "serve_net.protocol.parse",
    "serve_net.protocol.render",
    "core.cache.lookup",
    "core.serve.request",
    "core.serve.evaluate",
    "dataset.query.plan",
    "core.serve.approx",
    "dataset.bucket.build",
    "core.task.gather",
    "core.model.nnt",
    "core.model.mlpt",
    "core.model.gaknn",
    "core.ranking.rank",
    "stats.rank.confidence",
    "dataset.database.push",
    "dataset.generator.generate",
];

/// Per-layer metrics that are not span times: `(name, unit)`.
pub const LAYER_EXTRAS: [(&str, &str); 8] = [
    ("serve_net.server.wait_us", "us"),
    ("serve_net.server.batch_len_mean", "count"),
    ("core.cache.hit_ratio", "ratio"),
    ("core.cache.invalidations", "count"),
    ("core.serve.approx_pruned_ratio", "ratio"),
    ("core.serve.approx_recall_at_k", "ratio"),
    ("parallel.fanout_gain", "ratio"),
    ("trace.overhead_pct", "%"),
];

/// The time metric of a span layer and its unit.
fn time_metric(layer: &str) -> (String, &'static str) {
    if layer == "dataset.generator.generate" {
        (format!("{layer}_ms"), "ms")
    } else {
        (format!("{layer}_us"), "us")
    }
}

/// Every per-layer metric, `(name, unit)`, in a fixed order.
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    for layer in SPAN_LAYERS {
        out.push(time_metric(layer));
        out.push((format!("{layer}.calls"), "count"));
        out.push((format!("{layer}.failed"), "count"));
    }
    out.extend(LAYER_EXTRAS.iter().map(|&(n, u)| (n.to_owned(), u)));
    out
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted in the measured phases.
    pub attempted: u64,
    /// Attempted operations that failed: error responses, byte
    /// mismatches, missing responses.
    pub failed: u64,
    /// Named correctness checks and whether each held.
    pub checks: Vec<(String, bool)>,
    /// Metric values by name (end-to-end or per-layer).
    pub values: BTreeMap<String, f64>,
}

impl Report {
    /// Records a correctness check and prints it.
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        let name = name.into();
        println!("check {name}: {}", if ok { "ok" } else { "FAILED" });
        self.checks.push((name, ok));
    }

    /// Sets a metric value.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_owned(), value);
    }

    /// Sets every span layer's time, call and failure metrics from
    /// `spans` (layers without spans read zero calls).
    pub fn set_span_layers(&mut self, spans: &[Span]) {
        let layers = by_layer(spans);
        for layer in SPAN_LAYERS {
            let totals = layers.get(layer).copied().unwrap_or_default();
            let (name, _) = time_metric(layer);
            let time = if layer == "dataset.generator.generate" {
                totals.mean_self_us() / 1e3
            } else {
                totals.mean_self_us()
            };
            self.set(&name, time);
            self.set(&format!("{layer}.calls"), totals.calls as f64);
            self.set(&format!("{layer}.failed"), totals.failed as f64);
        }
    }

    /// Whether every check held and nothing failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.checks.iter().all(|(_, ok)| *ok)
    }

    /// The result line: the metrics of `names` (missing ones are an
    /// error, reported as a failed check by the caller).
    pub fn result_line(&self, names: &[(String, &'static str)]) -> Result<String, String> {
        let mut metrics = Vec::with_capacity(names.len());
        for (name, unit) in names {
            let value = self
                .values
                .get(name)
                .copied()
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            metrics.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        ))
    }
}

/// A finite float as a JSON number with every digit of Rust's shortest
/// round-trip formatting (integral values keep a `.0`).
fn json_number(value: f64) -> String {
    format!("{value:?}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut names: Vec<String> = END_TO_END.iter().map(|(n, _)| (*n).to_owned()).collect();
        names.extend(per_layer_metrics().into_iter().map(|(n, _)| n));
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total);
        for name in &names {
            assert!(name.len() <= 64, "{name}");
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }

    #[test]
    fn benchmark_manifest_lists_exactly_these_workloads_and_metrics() {
        let manifest =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .unwrap();
        let mut expected: Vec<String> = crate::WORKLOADS.iter().map(|&w| w.to_owned()).collect();
        expected.extend(END_TO_END.iter().map(|(n, _)| (*n).to_owned()));
        expected.extend(per_layer_metrics().into_iter().map(|(n, _)| n));
        let listed: Vec<String> = manifest
            .split("\"name\": \"")
            .skip(1)
            .filter_map(|rest| rest.split('"').next())
            .map(str::to_owned)
            .collect();
        assert_eq!(listed, expected);
    }

    #[test]
    fn result_line_has_the_four_keys_and_full_precision() {
        let mut report = Report {
            attempted: 3,
            ..Report::default()
        };
        report.set("setup_s", 0.812_734_5);
        let line = report.result_line(&[("setup_s".to_owned(), "s")]).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.8127345, \"unit\": \"s\"}}}"
        );
        assert!(report.result_line(&[("p50_ms".to_owned(), "ms")]).is_err());
        report.failed = 1;
        assert!(!report.correct());
        assert_eq!(json_number(2.0), "2.0");
        assert_eq!(json_number(1e-12), "1e-12");
    }
}
