//! Quickstart: schedule one synthetic workload with a static policy and
//! with the self-tuning dynP scheduler, and compare the paper's two
//! headline metrics.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use dynp_suite::prelude::*;

fn main() {
    // 1. A workload: 2,000 jobs drawn from the CTC trace model (Cornell
    //    Theory Center IBM SP2, 430 processors), scaled to a heavier load
    //    with the paper's shrinking-factor transform.
    let model = dynp_suite::workload::traces::ctc();
    let base = model.generate(2_000, 7);
    let set = dynp_suite::workload::transform::shrink(&base, 0.8);
    println!(
        "workload: {} jobs on {} processors (offered load {:.2})\n",
        set.len(),
        set.machine_size,
        set.offered_load()
    );

    // 2. The three static baselines.
    println!("{:<24} {:>8} {:>8}", "scheduler", "SLDwA", "util %");
    for policy in Policy::BASIC {
        let mut scheduler = StaticScheduler::new(policy);
        let run = simulate(&set, &mut scheduler);
        println!(
            "{:<24} {:>8.2} {:>8.2}",
            run.result.scheduler,
            run.result.metrics.sldwa,
            run.result.metrics.utilization * 100.0
        );
    }

    // 3. The self-tuning dynP scheduler with the paper's fair (advanced)
    //    and unfair (SJF-preferred) deciders.
    for decider in [
        DeciderKind::Advanced,
        DeciderKind::Preferred {
            policy: Policy::Sjf,
            threshold: 0.0,
        },
    ] {
        let mut scheduler = SelfTuningScheduler::new(DynPConfig::paper(decider));
        let run = simulate(&set, &mut scheduler);
        println!(
            "{:<24} {:>8.2} {:>8.2}   ({} policy switches over {} decisions)",
            run.result.scheduler,
            run.result.metrics.sldwa,
            run.result.metrics.utilization * 100.0,
            scheduler.stats.switches,
            scheduler.stats.decisions,
        );
    }

    println!("\nLower SLDwA is better; higher utilization is better. dynP should sit");
    println!("at or below the best static policy on both, by switching between them.");
}
