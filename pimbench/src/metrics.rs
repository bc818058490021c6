//! The benchmark's metric catalogue and its one-line JSON result.
//!
//! The names and units here are the ones `BENCHMARK.json` lists; the
//! `catalogue_matches_benchmark_json` test keeps the two in step.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    /// Metric name, as printed.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// Whether the value is a pure function of the seed (model time,
    /// counters): bit-identical across runs and sim thread counts.
    pub model: bool,
}

const fn host(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        model: false,
    }
}

const fn model(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        model: true,
    }
}

/// End-to-end metrics of the untraced run (`--trace 0`).
pub const END_TO_END: &[Def] = &[
    host("setup_s", "s"),
    host("ops_per_s", "op/s"),
    host("peak_rss_mb", "MiB"),
    model("model_s", "s"),
    model("model_p50_ms", "ms"),
    model("model_err_pct", "%"),
    model("served_frac", "ratio"),
];

/// Per-layer metrics of the traced run (`--trace 1`). A layer a workload
/// does not exercise reports 0. `host_per_model` (host seconds per
/// simulated second) leads the list: it divides two end-to-end figures, so
/// it carries the drift of both and spreads too widely across runs to
/// hold a regression bound. `model_p99_ms` follows: on paper-replay it is
/// the slowest of six calls, which the seeded sources swing by more than
/// any bound allows. So does `recovery_s`: a resume builds a fresh engine,
/// and its page-fault-heavy preparation swings with the host machine.
pub const PER_LAYER: &[Def] = &[
    host("host_per_model", "s/s"),
    model("model_p99_ms", "ms"),
    host("recovery_s", "s"),
    host("sparse.generate_s", "s"),
    host("sparse.transpose_ms", "ms"),
    host("sparse.delta_apply_ms", "ms"),
    model("sparse.delta_ops", "count"),
    host("kernel.prepare_ms", "ms"),
    model("kernel.prepares", "count"),
    host("kernel.launch_ms", "ms"),
    host("kernel.launch_tail_ms", "ms"),
    host("kernel.replay_ms", "ms"),
    model("kernel.instructions", "count"),
    host("kernel.host_ns_per_instr", "ns"),
    host("apps.call_ms", "ms"),
    host("apps.call_tail_ms", "ms"),
    model("apps.supersteps", "count"),
    model("apps.spmspv_share", "ratio"),
    host("serve.batch_ms", "ms"),
    host("serve.batch_tail_ms", "ms"),
    model("serve.supersteps", "count"),
    host("serve.step_over_launch", "ratio"),
    model("serve.cache_hit_ratio", "ratio"),
    model("serve.evictions", "count"),
    model("serve.broadcast_bytes_saved", "B"),
    host("service.run_s", "s"),
    model("service.queries_per_batch", "query/batch"),
    model("queue.admitted", "count"),
    model("queue.rejected", "count"),
    model("queue.shed", "count"),
    model("delta.epochs", "count"),
    model("delta.dirty_share", "ratio"),
    model("recover.snapshots", "count"),
    model("recover.snapshot_bytes", "B"),
    model("recover.reexecuted_batches", "count"),
    model("sdc.detected", "count"),
    model("sdc.escaped", "count"),
    model("sdc.recompute_cycles", "cycles"),
    model("fault.retries", "count"),
    host("bench.trace_overhead_pct", "%"),
    host("bench.referee_s", "s"),
    host("bench.spans", "count"),
    host("bench.busy_s", "s"),
    host("bench.self_s", "s"),
    host("sparse.spans", "count"),
    host("sparse.busy_s", "s"),
    host("sparse.self_s", "s"),
    host("kernel.spans", "count"),
    host("kernel.busy_s", "s"),
    host("kernel.self_s", "s"),
    host("apps.spans", "count"),
    host("apps.busy_s", "s"),
    host("apps.self_s", "s"),
    host("serve.spans", "count"),
    host("serve.busy_s", "s"),
    host("serve.self_s", "s"),
    host("service.spans", "count"),
    host("service.busy_s", "s"),
    host("service.self_s", "s"),
    host("recover.spans", "count"),
    host("recover.busy_s", "s"),
    host("recover.self_s", "s"),
];

/// Metric values by name; only catalogued names are accepted.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// Sets a catalogued metric.
    ///
    /// # Panics
    ///
    /// On a name missing from the catalogue: that is a benchmark bug.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|d| d.name == name),
            "metric {name} is not catalogued"
        );
        self.values.insert(name, value);
    }

    /// A metric's value, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Whether every value set is finite.
    pub fn all_finite(&self) -> bool {
        self.values.values().all(|v| v.is_finite())
    }

    /// The `model` metrics among `defs` as exact bit patterns, for
    /// determinism comparisons.
    pub fn model_bits(&self, defs: &[Def]) -> Vec<(&'static str, u64)> {
        defs.iter()
            .filter(|d| d.model)
            .map(|d| (d.name, self.get(d.name).unwrap_or(0.0).to_bits()))
            .collect()
    }
}

/// The result line: `correct`, `attempted`, `failed`, and every metric of
/// `defs` with its unit. Unset metrics print as 0, and so do non-finite
/// values, which JSON cannot hold (callers check [`Metrics::all_finite`]).
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &Metrics,
    defs: &[Def],
) -> String {
    let mut body = String::new();
    for (i, d) in defs.iter().enumerate() {
        let v = metrics.get(d.name).filter(|v| v.is_finite()).unwrap_or(0.0);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            body,
            "{sep}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            d.name, d.unit
        );
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate metric name");
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                d.name.len() <= 64 && d.unit.len() <= 16,
                "{} too long",
                d.name
            );
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(manifest).expect("BENCHMARK.json beside the benchmark");
        for d in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{}\", \"unit\": \"{}\"", d.name, d.unit);
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = json.matches("\"unit\":").count();
        assert_eq!(
            listed,
            END_TO_END.len() + PER_LAYER.len(),
            "BENCHMARK.json lists extra metrics"
        );
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut m = Metrics::default();
        m.set("setup_s", 0.5);
        let line = result_json(true, 3, 0, &m, END_TO_END);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {")
        );
        assert!(line.contains("\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}"));
        m.set("ops_per_s", f64::NAN);
        assert!(!m.all_finite());
        let line = result_json(false, 3, 0, &m, END_TO_END);
        assert!(line.contains("\"ops_per_s\": {\"value\": 0, \"unit\": \"op/s\"}"));
    }
}
