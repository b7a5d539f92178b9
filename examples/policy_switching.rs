//! Watch the self-tuning dynP scheduler switch policies on a workload
//! with an abrupt phase change — the scenario the paper's introduction
//! motivates (interactive day traffic vs batch night traffic).
//!
//! Builds a two-phase workload: a burst of short, narrow "interactive"
//! jobs followed by long, wide "batch" jobs, then prints the decider's
//! switch log and the share of decisions each policy won.
//!
//! ```text
//! cargo run --release --example policy_switching
//! ```

use dynp_suite::prelude::*;
use dynp_suite::workload::dist::{AccuracyModel, DurationDist, WidthDist};
use dynp_suite::workload::regime::Regime;
use dynp_suite::workload::transform;

/// A single-regime model (every job from one distribution).
fn phase_model(
    name: &str,
    width: WidthDist,
    estimate: DurationDist,
    mean_interarrival_secs: f64,
) -> TraceModel {
    TraceModel {
        name: name.into(),
        machine_size: 64,
        regimes: vec![Regime {
            name: name.into(),
            weight: 1.0,
            mean_session_jobs: 1.0,
            width,
            estimate,
            arrival_scale: 1.0,
        }],
        accuracy: AccuracyModel::from_overestimation(1.5, 0.2),
        mean_interarrival_secs,
        min_estimate_secs: 30.0,
        max_estimate_secs: 86_400.0,
    }
}

fn main() {
    // Phase 1: interactive — short narrow jobs arriving quickly.
    let interactive = phase_model(
        "interactive",
        WidthDist::Weighted(vec![(1, 5.0), (2, 3.0), (4, 2.0)]),
        DurationDist::LogUniform {
            min: 60.0,
            max: 900.0,
        },
        20.0,
    )
    .generate(400, 1);

    // Phase 2: batch — long wide jobs, sparser arrivals.
    let batch = phase_model(
        "batch",
        WidthDist::Weighted(vec![(8, 4.0), (16, 4.0), (32, 2.0)]),
        DurationDist::LogUniform {
            min: 7_200.0,
            max: 43_200.0,
        },
        600.0,
    )
    .generate(150, 2);

    // Concatenate with a quiet gap between the phases.
    let set = transform::concat(&interactive, &batch, 1_800.0);
    println!(
        "two-phase workload: {} interactive + {} batch jobs on {} processors\n",
        interactive.len(),
        batch.len(),
        set.machine_size
    );

    let mut scheduler = SelfTuningScheduler::new(DynPConfig::paper(DeciderKind::Advanced));
    let run = simulate(&set, &mut scheduler);

    println!(
        "dynP[advanced]: SLDwA {:.2}, utilization {:.1} %",
        run.result.metrics.sldwa,
        run.result.metrics.utilization * 100.0
    );
    println!(
        "decisions: {}   switches: {}",
        scheduler.stats.decisions, scheduler.stats.switches
    );
    for policy in Policy::BASIC {
        println!(
            "  {:<5} won {:>5.1} % of decisions",
            policy.name(),
            scheduler.stats.share(policy) * 100.0
        );
    }

    println!("\nswitch log (first 20 switches):");
    for (time, policy) in scheduler.stats.log.iter().take(20) {
        println!("  t = {:>9.0} s → {policy}", time.as_secs_f64());
    }
    if scheduler.stats.log.len() > 20 {
        println!("  … {} more", scheduler.stats.log.len() - 20);
    }

    // Reference: what would each static policy have achieved?
    println!();
    for policy in Policy::BASIC {
        let mut s = StaticScheduler::new(policy);
        let r = simulate(&set, &mut s);
        println!(
            "static {:<5} SLDwA {:>7.2}, utilization {:>5.1} %",
            policy.name(),
            r.result.metrics.sldwa,
            r.result.metrics.utilization * 100.0
        );
    }
}
