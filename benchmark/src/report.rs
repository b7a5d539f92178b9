//! The metric registry and the two renderings of a run: the one JSON
//! line the driver reads and the table a person reads.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Seed used when `--seed` is not given; `expected/` holds its digests.
pub const DEFAULT_SEED: u64 = 2004;
/// A seed to confirm a claim on that was not used while making it.
pub const HELD_OUT_SEED: u64 = 4002;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 6] = [
    "paper_grid",
    "deep_queue",
    "chaos",
    "federation",
    "service_mem",
    "service_wal",
];

/// End-to-end metrics `(name, unit)`: printed by every workload's
/// untraced run, never 0.
pub const END_TO_END: [(&str, &str); 5] = [
    ("jobs_per_s", "1/s"),
    ("job_p50_us", "us"),
    ("cpu_us_per_job", "us"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics `(name, unit)`: printed by every workload's traced
/// run; a layer the workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 66] = [
    // What the pass was (exact counts: must repeat).
    ("sim.events", "count"),
    ("core.replans", "count"),
    ("core.switches", "count"),
    ("sim.peak_queue", "count"),
    ("sim.mean_queue", "count"),
    ("sim.alloc_per_event", "count"),
    // Where a pass's wall time went (ns per event; they sum to the wall).
    ("core.replan_ns_per_event", "ns"),
    ("core.replan_share", "share"),
    ("sim.driver_ns_per_event", "ns"),
    ("sim.span.event_self_ns", "ns"),
    ("core.span.replan_self_ns", "ns"),
    ("rms.span.prepare_ns", "ns"),
    ("rms.span.plan_ns", "ns"),
    ("rms.span.admission_self_ns", "ns"),
    ("des.loop_residual_ns", "ns"),
    // Whether the numbers above can be trusted.
    ("obs.trace_overhead_pct", "%"),
    ("obs.dropped", "count"),
    ("obs.records", "count"),
    ("host.speed", "share"),
    // rms.planner and its reference twin, one 3-policy step.
    ("rms.planner.plan_ns_d64", "ns"),
    ("rms.planner.plan_ns_d1024", "ns"),
    ("rms.planner.plan_ns_d4096", "ns"),
    ("rms.reference.plan_ns_d64", "ns"),
    ("rms.reference.plan_ns_d1024", "ns"),
    ("rms.reference.plan_ns_d4096", "ns"),
    ("rms.planner.prepare_ns_r64", "ns"),
    ("rms.planner.prepare_ns_r256", "ns"),
    ("rms.planner.fanout_ratio_d4096", "ratio"),
    // des event-queue backends, one push + one pop.
    ("des.heap.push_pop_ns_1k", "ns"),
    ("des.heap.push_pop_ns_64k", "ns"),
    ("des.calendar.push_pop_ns_1k", "ns"),
    ("des.calendar.push_pop_ns_64k", "ns"),
    // Single calls.
    ("rms.state.transition_ns", "ns"),
    ("rms.admission.evaluate_ns", "ns"),
    ("core.decide_ns", "ns"),
    ("metrics.finalize_ns_per_job", "ns"),
    ("sim.snapshot_ns", "ns"),
    ("sim.restore_ns", "ns"),
    ("sim.snapshot_bytes", "count"),
    ("sim.federation.epochs", "count"),
    ("sim.federation.events_per_epoch", "count"),
    ("sim.federation.t2_ratio", "ratio"),
    ("workload.generate_ns_per_job", "ns"),
    ("workload.fault_plan_ns_per_job", "ns"),
    ("workload.swf_parse_ns_per_job", "ns"),
    // serve: the daemon's path, piece by piece.
    ("serve.proto.parse_ns", "ns"),
    ("serve.proto.render_ns", "ns"),
    ("serve.inproc.submit_rtt_ns", "ns"),
    ("serve.wire_residual_us", "us"),
    ("serve.admit_p50_us", "us"),
    ("serve.admit_p99_us", "us"),
    ("serve.admit_max_us", "us"),
    ("serve.gen_lag_p99_us", "us"),
    ("serve.backlog_at_end", "count"),
    ("serve.knee_eps", "1/s"),
    ("serve.journal.append_ns_never", "ns"),
    ("serve.journal.append_ns_rotate", "ns"),
    ("serve.journal.append_ns_always", "ns"),
    ("serve.fsync_always_p50_us", "us"),
    ("serve.journal.read_ns_per_record", "ns"),
    ("serve.checkpoint.write_ns", "ns"),
    ("serve.checkpoint.load_ns", "ns"),
    ("serve.checkpoint.bytes", "count"),
    ("serve.replay_ns_per_record", "ns"),
    ("serve.recover_s", "s"),
    ("serve.recover_records", "count"),
];

/// One run's results.
#[derive(Default)]
pub struct Report {
    values: BTreeMap<&'static str, f64>,
    samples: BTreeMap<&'static str, usize>,
    checks: Vec<(String, bool)>,
    /// Operations attempted (jobs simulated, submits sent).
    pub attempted: u64,
    /// Operations that failed (a job of a pass whose checks failed; a
    /// rejected, unanswered or lost submit).
    pub failed: u64,
}

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| *unit)
}

impl Report {
    /// Records a metric with the number of samples behind it.
    ///
    /// # Panics
    /// Panics on a name missing from the registry — a typo here would
    /// otherwise surface as a silent 0 in the output.
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        assert!(unit_of(name).is_some(), "unregistered metric {name}");
        self.values.insert(name, value);
        self.samples.insert(name, samples);
    }

    /// A recorded value.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Records the outcome of one correctness check.
    pub fn check(&mut self, label: impl Into<String>, ok: bool) {
        self.checks.push((label.into(), ok));
    }

    /// True when every check passed and nothing failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|(_, ok)| *ok)
    }

    /// The driver's line: every metric of the run's kind, in registry
    /// order. An end-to-end metric that is missing, zero or not finite
    /// makes the run incorrect rather than silently wrong.
    pub fn render_json(&mut self, traced: bool) -> String {
        let list: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        let mut metrics = String::new();
        for (i, (name, unit)) in list.iter().enumerate() {
            let mut value = self.values.get(name).copied().unwrap_or(0.0);
            if !value.is_finite() {
                self.check(format!("{name} is finite"), false);
                value = 0.0;
            }
            if !traced && value <= 0.0 {
                self.check(format!("{name} is positive"), false);
            }
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                metrics,
                "{sep}\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
        )
    }

    /// The table for people: every metric set, with unit and sample
    /// count, then every check with its verdict.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        for (name, _) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            if let Some(value) = self.values.get(name) {
                let unit = unit_of(name).unwrap_or("");
                let n = self.samples.get(name).copied().unwrap_or(0);
                let _ = writeln!(out, "{name:<34} {value:>16.4} {unit:<6} n={n}");
            }
        }
        for (label, ok) in &self.checks {
            let _ = writeln!(out, "check {:<4} {label}", if *ok { "ok" } else { "FAIL" });
        }
        let _ = writeln!(
            out,
            "failed {} of {} operations (failed_share {})",
            self.failed,
            self.attempted,
            self.failed as f64 / self.attempted.max(1) as f64
        );
        out
    }

    /// The per-layer table as a JSON object (written beside the trace).
    pub fn render_layers_json(&self) -> String {
        let mut out = String::from("{\n");
        let set: Vec<_> = PER_LAYER
            .iter()
            .filter_map(|(name, unit)| self.values.get(name).map(|v| (name, unit, v)))
            .collect();
        for (i, (name, unit, value)) in set.iter().enumerate() {
            let comma = if i + 1 < set.len() { "," } else { "" };
            let n = self.samples.get(*name).copied().unwrap_or(0);
            let value = if value.is_finite() { **value } else { 0.0 };
            let _ = writeln!(
                out,
                "  \"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\", \"samples\": {n}}}{comma}"
            );
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynp_obs::parse::Json;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _)| *n)
            .chain(WORKLOADS)
            .collect();
        for name in &names {
            assert!(name.len() <= 64, "{name}");
            assert!(
                name.starts_with(|c: char| c.is_ascii_alphanumeric()),
                "{name}"
            );
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
        }
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate name");
        for (_, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(unit.len() <= 16);
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }

    #[test]
    fn the_driver_line_carries_every_metric_of_its_kind() {
        let mut report = Report::default();
        for (name, _) in END_TO_END {
            report.set(name, 1.5, 3);
        }
        report.attempted = 10;
        let line = report.render_json(false);
        let json = Json::parse(&line).unwrap();
        assert_eq!(json.get("correct"), Some(&Json::Bool(true)));
        let metrics = json.get("metrics").unwrap();
        for (name, unit) in END_TO_END {
            let m = metrics.get(name).unwrap();
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit));
        }
        // A missing end-to-end metric is an incorrect run, not a 0.
        let mut empty = Report::default();
        let line = empty.render_json(false);
        assert!(line.starts_with("{\"correct\":false"));
        // Per-layer metrics a workload does not exercise read 0.
        let line = Report::default().render_json(true);
        let json = Json::parse(&line).unwrap();
        assert_eq!(json.get("correct"), Some(&Json::Bool(true)));
        let metrics = json.get("metrics").unwrap();
        assert!(PER_LAYER
            .iter()
            .all(|(name, _)| metrics.get(name).is_some()));
    }

    #[test]
    fn benchmark_json_and_layers_json_agree_with_the_registry() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
        let text = std::fs::read_to_string(format!("{root}/BENCHMARK.json")).unwrap();
        let json = Json::parse(&text).unwrap();
        let names = |key: &str| -> Vec<String> {
            json.get(key)
                .and_then(Json::as_array)
                .unwrap()
                .iter()
                .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
                .collect()
        };
        assert_eq!(names("workloads"), WORKLOADS);
        let registry =
            |list: &[(&str, &str)]| list.iter().map(|(n, _)| n.to_string()).collect::<Vec<_>>();
        assert_eq!(names("end_to_end"), registry(&END_TO_END));
        assert_eq!(names("per_layer"), registry(&PER_LAYER));
        for m in json.get("end_to_end").and_then(Json::as_array).unwrap() {
            let name = m.get("name").and_then(Json::as_str).unwrap();
            assert_eq!(m.get("unit").and_then(Json::as_str), unit_of(name));
        }

        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/layers.json")).unwrap();
        let layers = Json::parse(&text).unwrap();
        let listed: Vec<String> = layers
            .get("per_layer")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect();
        assert_eq!(listed, registry(&PER_LAYER));
        assert_eq!(
            layers.get("default_seed").and_then(Json::as_u64),
            Some(DEFAULT_SEED)
        );
        assert_eq!(
            layers.get("held_out_seed").and_then(Json::as_u64),
            Some(HELD_OUT_SEED)
        );
    }
}
