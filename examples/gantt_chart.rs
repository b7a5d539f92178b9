//! Render the realized execution of a workload as SVG Gantt charts, one
//! per scheduler — FCFS vs SJF vs dynP side by side makes the policy
//! differences visible: SJF packs the short jobs early, LJF front-loads
//! the monsters, dynP blends.
//!
//! ```text
//! cargo run --release --example gantt_chart [-- OUT_DIR]
//! ```

use dynp_suite::prelude::*;
use dynp_suite::sim::svg::write_gantt;
use dynp_suite::workload::transform;
use std::path::PathBuf;

fn main() {
    let out = PathBuf::from(
        std::env::args()
            .nth(1)
            .unwrap_or_else(|| "gantt_out".to_string()),
    );

    // A small, busy SDSC slice so the chart stays readable.
    let model = dynp_suite::workload::traces::sdsc();
    let set = transform::shrink(&model.generate(160, 12), 0.7);
    println!(
        "workload: {} jobs on {} processors\n",
        set.len(),
        set.machine_size
    );

    for spec in [
        SchedulerSpec::Static(Policy::Fcfs),
        SchedulerSpec::Static(Policy::Sjf),
        SchedulerSpec::Static(Policy::Ljf),
        SchedulerSpec::dynp(dynp_suite::core::DeciderKind::Preferred {
            policy: Policy::Sjf,
            threshold: 0.0,
        }),
    ] {
        let mut scheduler = spec.build();
        let detail = dynp_suite::sim::simulate(&set, scheduler.as_mut());
        let name = spec
            .name()
            .to_lowercase()
            .replace(['[', ']'], "_")
            .replace('-', "_");
        write_gantt(&detail.completed, set.machine_size, &out, &name).expect("write gantt SVG");
        println!(
            "{:<24} SLDwA {:>7.2}  util {:>5.1} %  makespan {:>8.0} s  -> {}/{}.svg",
            detail.result.scheduler,
            detail.result.metrics.sldwa,
            detail.result.metrics.utilization * 100.0,
            detail.result.metrics.last_end_secs,
            out.display(),
            name,
        );
    }
    println!("\nopen the SVGs in a browser; hover a rectangle for job id and times.");
}
