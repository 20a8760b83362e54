//! What a run reports: the named end-to-end and per-layer metrics, the
//! workload-specific figures printed for people, and the final JSON line.

use std::collections::BTreeMap;

/// The end-to-end metrics every workload reports, in `BENCHMARK.json`
/// order. Each workload maps its own figures onto these names; see
/// README.md for the mapping.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p95", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics every traced run reports. A layer a workload does
/// not reach from outside reads 0.
pub const PER_LAYER: [(&str, &str); 45] = [
    ("instances.build_ms", "ms"),
    ("runner.starts_ms", "ms"),
    ("goto.reduction_ms", "ms"),
    ("linarr.propose_calls", "count"),
    ("linarr.apply_calls", "count"),
    ("linarr.undo_calls", "count"),
    ("linarr.cost_calls", "count"),
    ("linarr.improving_move_calls", "count"),
    ("linarr.busy_ms", "ms"),
    ("linarr.ns_per_eval", "ns"),
    ("linarr.wasted_ms", "ms"),
    ("linarr.improving_move_ms", "ms"),
    ("strategy.self_ms", "ms"),
    ("strategy.evals", "count"),
    ("strategy.proposals", "count"),
    ("strategy.stages", "count"),
    ("accept.uphill_accept_ratio", "ratio"),
    ("chain.useful_ratio", "ratio"),
    ("runner.cell_ms_p50", "ms"),
    ("runner.cell_ms_max", "ms"),
    ("scheduler.idle_frac", "ratio"),
    ("scheduler.residual_ms", "ms"),
    ("runner.overhead_ms", "ms"),
    ("telemetry.records", "count"),
    ("telemetry.wal_bytes", "bytes"),
    ("ops.requests.post_jobs", "count"),
    ("ops.requests.get_job", "count"),
    ("ops.requests.healthz", "count"),
    ("ops.requests.metrics", "count"),
    ("ops.polls_per_job", "ratio"),
    ("ops.healthz_ms_p50", "ms"),
    ("ops.metrics_ms_p50", "ms"),
    ("ops.metrics_bytes", "bytes"),
    ("jobs.submit_ms_p50", "ms"),
    ("jobs.submit_ms_p95", "ms"),
    ("jobs.parse_us_p50", "us"),
    ("jobs.execute_ms_p50", "ms"),
    ("jobs.execute_ms_p95", "ms"),
    ("jobs.unexplained_ms_p50", "ms"),
    ("jobs.replay_ms", "ms"),
    ("jobs.journal_bytes_per_job", "bytes"),
    ("jobs.queued_max", "count"),
    ("loadgen.late_ms_p95", "ms"),
    ("loadgen.late_ms_max", "ms"),
    ("trace.overhead_frac", "ratio"),
];

/// One figure printed for people, under the workload's own name for it.
#[derive(Debug, Clone)]
pub struct Line {
    /// Metric name as the workload rationale uses it.
    pub name: String,
    /// Value, or why it was not reported (a refused percentile).
    pub value: Result<f64, String>,
    /// Unit.
    pub unit: &'static str,
    /// Samples behind the value, for percentiles and medians.
    pub samples: Option<usize>,
}

/// Everything one run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Correctness failures; any entry fails the run.
    pub errors: Vec<String>,
    /// Operations attempted (instances run, or requests sent).
    pub attempted: u64,
    /// Operations that failed, were refused or timed out.
    pub failed: u64,
    /// End-to-end metrics by [`END_TO_END`] name.
    pub end_to_end: BTreeMap<&'static str, f64>,
    /// Per-layer metrics by [`PER_LAYER`] name (traced runs only).
    pub per_layer: BTreeMap<&'static str, f64>,
    /// Workload-named figures, printed in order.
    pub lines: Vec<Line>,
    /// Unexplained residual per layer (traced runs only), in ms.
    pub residuals: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// Adds a printed figure.
    pub fn line(
        &mut self,
        name: &str,
        value: Result<f64, String>,
        unit: &'static str,
        samples: Option<usize>,
    ) {
        self.lines.push(Line {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    /// Records a correctness failure.
    pub fn error(&mut self, message: impl Into<String>) {
        self.errors.push(message.into());
    }

    /// Records a correctness check: `ok` or the message.
    pub fn check(&mut self, ok: bool, message: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(message());
        }
    }

    /// Sets a per-layer metric; the name must be in [`PER_LAYER`].
    pub fn layer(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unknown per-layer metric {name}"
        );
        self.per_layer.insert(name, value);
    }

    /// Sets every per-layer metric not yet set to 0: the layers this
    /// workload does not reach from outside.
    pub fn zero_unreached_layers(&mut self) {
        for (name, _) in PER_LAYER {
            self.per_layer.entry(name).or_insert(0.0);
        }
    }

    /// Sets an end-to-end metric; the name must be in [`END_TO_END`].
    pub fn e2e(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().any(|(n, _)| *n == name),
            "unknown end-to-end metric {name}"
        );
        self.end_to_end.insert(name, value);
    }
}

/// Formats a finite number with every digit it has (shortest round trip).
fn number(v: f64) -> String {
    format!("{v}")
}

/// Prints the human-readable figures, then the JSON result as the last
/// line of stdout. Returns whether the run was correct.
pub fn print(workload: &str, trace: bool, outcome: &mut Outcome) -> bool {
    for l in &outcome.lines {
        let value = match &l.value {
            Ok(v) => format!("{v:.4} {}", l.unit),
            Err(why) => format!("refused: {why}"),
        };
        let n = l.samples.map_or(String::new(), |n| format!(" (n={n})"));
        println!("{workload}  {:<24} {value}{n}", l.name);
    }
    let (defs, values): (&[(&str, &str)], &BTreeMap<&str, f64>) = if trace {
        for (layer, ms) in &outcome.residuals {
            println!("{workload}  residual {layer:<15} {ms:.4} ms unexplained");
        }
        (&PER_LAYER, &outcome.per_layer)
    } else {
        (&END_TO_END, &outcome.end_to_end)
    };
    let mut fields = Vec::new();
    let mut missing = Vec::new();
    for (name, unit) in defs {
        match values.get(name) {
            Some(v) if v.is_finite() => fields.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                number(*v)
            )),
            Some(v) => missing.push(format!("metric {name} is not finite: {v}")),
            None => missing.push(format!("metric {name} was not measured")),
        }
    }
    if trace {
        for (name, unit) in defs {
            if let Some(v) = values.get(name) {
                println!("{workload}  {name:<30} {v} {unit}");
            }
        }
    }
    outcome.errors.extend(missing);
    for e in &outcome.errors {
        eprintln!("{workload}: INCORRECT: {e}");
    }
    let correct = outcome.errors.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        fields.join(", ")
    );
    correct
}

/// Peak resident set size of process `pid` (`"self"` for this one), in
/// MiB, from the `VmHWM` line of `/proc/PID/status`.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no VmHWM line in {path}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _)| *n)
            .collect();
        for (i, n) in names.iter().enumerate() {
            assert!(!names[..i].contains(n), "{n} listed twice");
            assert!(n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let json = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            json.matches("\"name\":").count(),
            END_TO_END.len() + PER_LAYER.len() + 4,
            "four workloads plus the metrics"
        );
    }

    #[test]
    fn own_peak_rss_is_positive() {
        assert!(peak_rss_mb("self").unwrap() > 0.0);
    }
}
