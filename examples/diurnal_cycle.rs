//! Day/night policy switching on a Lublin–Feitelson-style workload.
//!
//! The related work the paper builds on (Ramme & Kremer's Implicit Voting
//! System) switches between interactive (SJF) and batch (LJF) operation
//! with the time of day. This example generates a workload with a strong
//! diurnal arrival cycle and reconstructs dynP's policy timeline to show
//! the scheduler discovering the same rhythm on its own.
//!
//! ```text
//! cargo run --release --example diurnal_cycle
//! ```

use dynp_suite::core::PolicyHistory;
use dynp_suite::metrics::timeline;
use dynp_suite::prelude::*;
use dynp_suite::workload::lublin::{LublinModel, DAY_SECS};

fn main() {
    let model = LublinModel {
        machine_size: 64,
        diurnal_amplitude: 0.8,
        mean_interarrival_secs: 180.0,
        ..LublinModel::default()
    };
    let set = model.generate(3_000, 21);
    println!(
        "Lublin-style workload: {} jobs on {} processors, diurnal amplitude {}\n",
        set.len(),
        set.machine_size,
        model.diurnal_amplitude
    );

    let mut scheduler = SelfTuningScheduler::new(DynPConfig::paper(DeciderKind::Advanced));
    let run = simulate(&set, &mut scheduler);
    println!(
        "dynP[advanced]: SLDwA {:.2}, utilization {:.1} % ({} switches)\n",
        run.result.metrics.sldwa,
        run.result.metrics.utilization * 100.0,
        scheduler.stats.switches
    );

    // Reconstruct the policy timeline and fold it onto the 24 h cycle.
    let end = SimTime::from_secs_f64(run.result.metrics.last_end_secs);
    let history = PolicyHistory::reconstruct(Policy::Fcfs, &scheduler.stats, SimTime::ZERO, end);
    println!("time share per policy over the whole run:");
    for (name, share) in history.shares() {
        println!("  {name:<5} {:>5.1} %", share * 100.0);
    }
    println!(
        "mean policy residence: {:.0} s, flapping share (<60 s): {:.0} %",
        history.mean_residence_secs(),
        history.flapping_share(SimDuration::from_secs(60)) * 100.0
    );

    // Hour-of-day histogram of SJF usage: in which hours does the decider
    // prefer the interactive-friendly policy?
    let mut sjf_secs = [0.0f64; 24];
    let mut total_secs = [0.0f64; 24];
    for seg in history.segments() {
        // Split each segment into one-minute slices and attribute them
        // to their hour of the simulated day.
        let mut t = seg.start.as_secs_f64();
        let seg_end = seg.end.as_secs_f64();
        while t < seg_end {
            let next = (t + 60.0).min(seg_end);
            let hour = ((t % DAY_SECS) / 3_600.0) as usize % 24;
            total_secs[hour] += next - t;
            if seg.policy == Policy::Sjf {
                sjf_secs[hour] += next - t;
            }
            t = next;
        }
    }
    println!("\nSJF usage by simulated hour (arrival peak around hour 6):");
    for hour in 0..24 {
        let share = if total_secs[hour] > 0.0 {
            sjf_secs[hour] / total_secs[hour]
        } else {
            0.0
        };
        let bar = "#".repeat((share * 40.0) as usize);
        println!("  {hour:>2}h {:>5.1}% {bar}", share * 100.0);
    }

    // Utilization over the first three days, bucketed hourly.
    let buckets = timeline::bucketed_utilization(
        set.machine_size,
        &run.completed,
        SimTime::ZERO,
        SimTime::from_secs_f64(DAY_SECS * 3.0),
        3_600.0,
    );
    println!("\nmachine utilization, hourly buckets, first 3 days:");
    for (i, u) in buckets.iter().enumerate() {
        let bar = "=".repeat((u * 40.0) as usize);
        println!("  d{} {:>2}h {:>5.1}% {bar}", i / 24, i % 24, u * 100.0);
    }
}
