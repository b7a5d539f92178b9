//! trace_report — the analysis end of the observability toolchain.
//!
//! Post-processes one or more structured traces (`*.jsonl`, written via
//! `--trace-out`) into:
//!
//! * a **switch timeline** — one horizontal band per trace showing which
//!   policy was active over simulated time (SVG, with `--out DIR`);
//! * **phase-time histograms** — wall-clock cost of every recorded span
//!   and per-policy plan construction (requires `--trace-level spans`
//!   or `all` at record time);
//! * a **decision audit** — every recorded decider verdict classified
//!   into its Table 1 case, with the tie-break rules that fired;
//! * a **switch attribution check** — every policy switch must trace
//!   back to a decider verdict recorded at the same instant. Exits
//!   non-zero when a switch is unattributable (the audit invariant);
//! * a **fault attribution** section — node outages (with per-node
//!   downtime), job faults by cause, retry backoff paid, lost jobs and
//!   reservation repairs, so SLDwA loss under chaos can be split into
//!   outage damage vs. scheduling;
//! * a **migration attribution** section — when the inputs are the
//!   per-cluster traces of one federation run (`BASE.cluster{i}.jsonl`),
//!   cross-shard traffic is audited across the files: every
//!   `migrate_depart` must pair with a `migrate_arrive` for the same job
//!   and cluster pair (and vice versa). Exits non-zero on an unpaired
//!   migration half.
//!
//! Empty or unreadable trace files are a clear error (exit 2), never a
//! panic.
//!
//! ```text
//! cargo run --release -p dynp-sim --bin trace_report -- \
//!     [--out DIR] run_a.jsonl [run_b.jsonl ...]
//! ```
//!
//! With a federation's per-cluster files, each cluster gets its own
//! switch-timeline panel in the shared SVG.

use dynp_core::table1;
use dynp_metrics::LatencyHistogram;
use dynp_obs::{parse_jsonl, ParsedEvent, ParsedRecord};
use dynp_sim::cli::Flags;
use dynp_sim::svg::{write_switch_timeline, SwitchBand};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

fn main() {
    let mut flags = Flags::from_env("usage: trace_report [--out DIR] FILE.jsonl [FILE2.jsonl ...]");
    let (mut out, mut files) = (None, Vec::new());
    while let Some(arg) = flags.next_flag() {
        match arg.as_str() {
            "--out" => out = Some(PathBuf::from(flags.value(&arg))),
            flag if flag.starts_with('-') => flags.unknown(flag),
            _ => files.push(arg),
        }
    }
    if files.is_empty() {
        flags.bail("name at least one trace file");
    }

    let mut bands: Vec<SwitchBand> = Vec::new();
    let mut end_secs = 0.0f64;
    let mut unattributed_total = 0usize;
    let mut federation = FederationTraffic::default();

    for path in &files {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: cannot read {path}: {e}");
                std::process::exit(2);
            }
        };
        let records = match parse_jsonl(&text) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("error: {path}: {e}");
                std::process::exit(2);
            }
        };
        if records.is_empty() {
            eprintln!(
                "error: {path}: trace is empty (no records) — was it written with --trace-out?"
            );
            std::process::exit(2);
        }
        let label = Path::new(path)
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| path.clone());
        println!("=== {label} ({} records) ===", records.len());
        summarize(&records);
        phase_histograms(&records);
        decision_audit(&records);
        fault_attribution(&records);
        unattributed_total += attribution_check(&records);
        federation.collect(&records);

        bands.push(switch_band(&label, &records));
        let last = records.last().map_or(0.0, |r| r.sim_ms as f64 / 1000.0);
        end_secs = end_secs.max(last);
        println!();
    }

    let unpaired_migrations = federation.report();
    if let Some(dir) = &out {
        if let Err(e) = write_switch_timeline(&bands, end_secs, dir, "switch_timeline") {
            eprintln!(
                "error: cannot write {}/switch_timeline.svg: {e}",
                dir.display()
            );
            std::process::exit(1);
        }
        eprintln!("wrote {}/switch_timeline.svg", dir.display());
    }
    if unattributed_total > 0 {
        eprintln!("error: {unattributed_total} switch(es) without a matching decider verdict");
    }
    if unpaired_migrations > 0 {
        eprintln!("error: {unpaired_migrations} migration half(s) without a matching partner");
    }
    if unattributed_total > 0 || unpaired_migrations > 0 {
        std::process::exit(1);
    }
}

/// Cross-file federation traffic: remote routes and migration halves
/// accumulated over every input trace (a federation writes one trace
/// per cluster, and a migration's depart/arrive land in different
/// files, so pairing only makes sense across the whole set).
#[derive(Default)]
struct FederationTraffic {
    remote_routes: usize,
    transfer_ms: u64,
    /// (job, from, to) → (depart count, arrive count).
    halves: BTreeMap<(u32, u32, u32), (usize, usize)>,
}

impl FederationTraffic {
    fn collect(&mut self, records: &[ParsedRecord]) {
        for r in records {
            match &r.event {
                ParsedEvent::JobRouted { transfer_ms, .. } => {
                    self.remote_routes += 1;
                    self.transfer_ms += transfer_ms;
                }
                ParsedEvent::MigrateDepart { job, from, to } => {
                    self.halves.entry((*job, *from, *to)).or_default().0 += 1;
                }
                ParsedEvent::MigrateArrive { job, from, to } => {
                    self.halves.entry((*job, *from, *to)).or_default().1 += 1;
                }
                _ => {}
            }
        }
    }

    /// Prints the migration-attribution section (when any federation
    /// traffic was traced) and returns the number of unpaired halves:
    /// every `migrate_depart` must pair with a `migrate_arrive` for the
    /// same job and cluster pair, and vice versa.
    fn report(&self) -> usize {
        if self.remote_routes == 0 && self.halves.is_empty() {
            return 0;
        }
        println!("=== migration attribution (all files) ===");
        if self.remote_routes > 0 {
            println!(
                "remote routes: {}, {:.0} s total transfer latency",
                self.remote_routes,
                self.transfer_ms as f64 / 1000.0
            );
        }
        let mut unpaired = 0usize;
        let paired: usize = self.halves.values().map(|(dep, arr)| dep.min(arr)).sum();
        for ((job, from, to), (departs, arrives)) in &self.halves {
            if departs != arrives {
                unpaired += departs.abs_diff(*arrives);
                println!(
                    "  UNPAIRED migration job #{job} c{from}->c{to}: \
                     {departs} depart(s) vs {arrives} arrive(s)"
                );
            }
        }
        if unpaired == 0 {
            println!("migrations: all {paired} depart/arrive pair(s) matched across clusters");
        } else {
            println!("migrations: {paired} paired, {unpaired} UNPAIRED half(s)");
        }
        unpaired
    }
}

/// Record counts by type, in taxonomy order.
fn summarize(records: &[ParsedRecord]) {
    let mut counts: BTreeMap<&'static str, usize> = BTreeMap::new();
    for r in records {
        *counts.entry(r.event.type_tag()).or_default() += 1;
    }
    let line: Vec<String> = counts.iter().map(|(t, n)| format!("{t} {n}")).collect();
    println!("records: {}", line.join(", "));
}

/// Wall-clock histograms of every span name and per-policy plan build.
fn phase_histograms(records: &[ParsedRecord]) {
    // Key → histogram of durations in nanoseconds (≈ 3 % quantile error,
    // exact count, mean and max).
    let mut phases: BTreeMap<String, LatencyHistogram> = BTreeMap::new();
    let mut push = |key: String, dur_ns: u64| phases.entry(key).or_default().record(dur_ns);
    // How many plan builds ran at each fan-out worker count: per-policy
    // `plan:*` durations overlap in wall time when workers > 1, so the
    // extra `plan:wall` phase divides each build by its worker count —
    // that is the series whose sum is attributable wall clock.
    let mut plan_workers: BTreeMap<u32, usize> = BTreeMap::new();
    for r in records {
        match &r.event {
            ParsedEvent::Span { name, dur_ns } => push(name.clone(), *dur_ns),
            ParsedEvent::PlanBuilt {
                policy,
                workers,
                dur_ns,
                ..
            } => {
                let w = (*workers).max(1);
                *plan_workers.entry(w).or_default() += 1;
                push(format!("plan:{policy}"), *dur_ns);
                push("plan:wall".into(), *dur_ns / w as u64);
            }
            _ => {}
        }
    }
    if phases.is_empty() {
        println!("phase times: none recorded (need --trace-level spans|all)");
        return;
    }
    if !plan_workers.is_empty() {
        let line: Vec<String> = plan_workers
            .iter()
            .map(|(w, n)| format!("{n} build(s) on {w} worker(s)"))
            .collect();
        println!(
            "plan fan-out: {} (plan:wall = per-build time / workers)",
            line.join(", ")
        );
    }
    println!("phase times [µs]:");
    println!("  phase           count       mean     p50≤     p90≤     p99≤       max");
    let us = |ns: u64| ns as f64 / 1_000.0;
    for (name, hist) in &phases {
        println!(
            "  {:<14} {:>6} {:>10.1} {:>8.1} {:>8.1} {:>8.1} {:>9.1}",
            name,
            hist.count(),
            hist.mean() / 1_000.0,
            us(hist.quantile(0.5)),
            us(hist.quantile(0.9)),
            us(hist.quantile(0.99)),
            us(hist.max())
        );
    }
}

/// Replays Table 1 over the recorded decider inputs: classifies each
/// decision's score vector into its table case and tallies the rules
/// that fired and the verdicts reached.
fn decision_audit(records: &[ParsedRecord]) {
    // case → (count, rule → count, verdict → count)
    type Tally = (usize, BTreeMap<String, usize>, BTreeMap<String, usize>);
    let mut cases: BTreeMap<&'static str, Tally> = BTreeMap::new();
    let mut decisions = 0usize;
    let mut unclassified = 0usize;
    for r in records {
        let ParsedEvent::Decision {
            old,
            verdict,
            rule,
            scores,
        } = &r.event
        else {
            continue;
        };
        decisions += 1;
        let Some(case) = classify_decision(old, scores) else {
            unclassified += 1;
            continue;
        };
        let entry = cases.entry(case).or_default();
        entry.0 += 1;
        *entry.1.entry(rule.clone()).or_default() += 1;
        *entry.2.entry(verdict.clone()).or_default() += 1;
    }
    if decisions == 0 {
        println!("decision audit: no decisions recorded");
        return;
    }
    println!("decision audit ({decisions} decisions over Table 1 cases):");
    println!("  case   count  rules fired                verdicts");
    for (case, (count, rules, verdicts)) in &cases {
        let fmt = |m: &BTreeMap<String, usize>| {
            m.iter()
                .map(|(k, v)| format!("{k}×{v}"))
                .collect::<Vec<_>>()
                .join(" ")
        };
        println!(
            "  {:<5} {:>6}  {:<26} {}",
            case,
            count,
            fmt(rules),
            fmt(verdicts)
        );
    }
    if unclassified > 0 {
        println!("  ({unclassified} decisions outside the basic FCFS/SJF/LJF table)");
    }
}

/// Maps one recorded decision back onto Table 1, if its inputs are the
/// three basic policies.
fn classify_decision(old: &str, scores: &[(String, f64)]) -> Option<&'static str> {
    use dynp_rms::Policy;
    let old = Policy::BASIC.into_iter().find(|p| p.name() == old)?;
    let score_of = |p: Policy| {
        scores
            .iter()
            .find(|(name, _)| name == p.name())
            .map(|(_, v)| *v)
            .filter(|v| v.is_finite())
    };
    let values = (
        score_of(Policy::Fcfs)?,
        score_of(Policy::Sjf)?,
        score_of(Policy::Ljf)?,
    );
    table1::classify(values, old)
}

/// Fault attribution: splits what the trace says about chaos into the
/// outage side (per-node downtime) and the job side (faults by cause,
/// retry backoff paid, lost jobs, reservation repairs) — the part of
/// the SLDwA that scheduling cannot win back.
fn fault_attribution(records: &[ParsedRecord]) {
    // node → (accumulated downtime ms, open down_at if currently down).
    let mut nodes: BTreeMap<u32, (u64, Option<u64>)> = BTreeMap::new();
    let mut reasons: BTreeMap<String, usize> = BTreeMap::new();
    let mut retries = 0usize;
    let mut backoff_ms = 0u64;
    let mut lost: Vec<(u32, u32)> = Vec::new();
    let mut repairs: BTreeMap<String, usize> = BTreeMap::new();
    let mut end_ms = 0u64;
    for r in records {
        end_ms = end_ms.max(r.sim_ms);
        match &r.event {
            ParsedEvent::NodeDown { node } => {
                nodes.entry(*node).or_default().1 = Some(r.sim_ms);
            }
            ParsedEvent::NodeUp { node } => {
                let entry = nodes.entry(*node).or_default();
                if let Some(down_at) = entry.1.take() {
                    entry.0 += r.sim_ms.saturating_sub(down_at);
                }
            }
            ParsedEvent::JobFault { reason, .. } => {
                *reasons.entry(reason.clone()).or_default() += 1;
            }
            ParsedEvent::JobRetry { delay_ms, .. } => {
                retries += 1;
                backoff_ms += delay_ms;
            }
            ParsedEvent::JobLost { job, attempts } => lost.push((*job, *attempts)),
            ParsedEvent::ReservationRepair { action, .. } => {
                *repairs.entry(action.clone()).or_default() += 1;
            }
            _ => {}
        }
    }
    if nodes.is_empty() && reasons.is_empty() && lost.is_empty() && repairs.is_empty() {
        println!("fault attribution: fault-free trace");
        return;
    }
    println!("fault attribution:");
    if !nodes.is_empty() {
        // A node still down at the last record contributes up to there.
        let total_ms: u64 = nodes
            .values()
            .map(|(acc, open)| acc + open.map_or(0, |d| end_ms.saturating_sub(d)))
            .sum();
        println!(
            "  outages: {} node(s) affected, {:.0} s total downtime",
            nodes.len(),
            total_ms as f64 / 1000.0
        );
        for (node, (acc, open)) in &nodes {
            let ms = acc + open.map_or(0, |d| end_ms.saturating_sub(d));
            println!(
                "    node {node}: {:.0} s down{}",
                ms as f64 / 1000.0,
                if open.is_some() {
                    " (still down at trace end)"
                } else {
                    ""
                }
            );
        }
    }
    if !reasons.is_empty() {
        let line: Vec<String> = reasons.iter().map(|(k, v)| format!("{k}×{v}")).collect();
        println!("  job faults by cause: {}", line.join(", "));
    }
    if retries > 0 {
        println!(
            "  retries: {retries}, {:.0} s backoff paid",
            backoff_ms as f64 / 1000.0
        );
    }
    if !lost.is_empty() {
        let ids: Vec<String> = lost
            .iter()
            .map(|(j, a)| format!("#{j} ({a} attempts)"))
            .collect();
        println!("  lost jobs: {} — {}", lost.len(), ids.join(", "));
    }
    if !repairs.is_empty() {
        let line: Vec<String> = repairs.iter().map(|(k, v)| format!("{k}×{v}")).collect();
        println!("  reservation repairs: {}", line.join(", "));
    }
}

/// The audit invariant: every `switch` record must be preceded by a
/// `decision` record at the same simulated instant whose `old`/`verdict`
/// match the switch's `from`/`to`. Returns the number of violations.
fn attribution_check(records: &[ParsedRecord]) -> usize {
    let mut last_decision: Option<&ParsedRecord> = None;
    let mut switches = 0usize;
    let mut bad = 0usize;
    for r in records {
        match &r.event {
            ParsedEvent::Decision { .. } => last_decision = Some(r),
            ParsedEvent::PolicySwitch { from, to } => {
                switches += 1;
                let attributed = matches!(
                    last_decision,
                    Some(ParsedRecord {
                        sim_ms,
                        event: ParsedEvent::Decision { old, verdict, .. },
                        ..
                    }) if *sim_ms == r.sim_ms && old == from && verdict == to
                );
                if !attributed {
                    bad += 1;
                    println!(
                        "  UNATTRIBUTED switch {} -> {} at seq {} (sim {} ms)",
                        from, to, r.seq, r.sim_ms
                    );
                }
            }
            _ => {}
        }
    }
    if bad == 0 {
        println!("switch attribution: all {switches} switches trace to a decider verdict");
    } else {
        println!("switch attribution: {bad}/{switches} switches UNATTRIBUTED");
    }
    bad
}

/// Builds one timeline band from a trace's switch log. The initial
/// policy comes from the first decision's `old` field (falling back to
/// the first switch's `from`, then FCFS — the simulator's start policy).
fn switch_band(label: &str, records: &[ParsedRecord]) -> SwitchBand {
    let initial = records
        .iter()
        .find_map(|r| match &r.event {
            ParsedEvent::Decision { old, .. } => Some(old.clone()),
            ParsedEvent::PolicySwitch { from, .. } => Some(from.clone()),
            _ => None,
        })
        .unwrap_or_else(|| "FCFS".into());
    let switches = records
        .iter()
        .filter_map(|r| match &r.event {
            ParsedEvent::PolicySwitch { to, .. } => Some((r.sim_ms as f64 / 1000.0, to.clone())),
            _ => None,
        })
        .collect();
    SwitchBand {
        label: label.to_string(),
        initial,
        switches,
    }
}
