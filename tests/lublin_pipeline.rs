//! Integration: the Lublin–Feitelson-style parametric model feeds the
//! whole pipeline — generation, SWF export, simulation under every
//! scheduler family, history reconstruction.

use dynp_suite::core::PolicyHistory;
use dynp_suite::prelude::*;
use dynp_suite::workload::lublin::LublinModel;
use dynp_suite::workload::swf;
use std::io::BufReader;

fn small_model() -> LublinModel {
    LublinModel {
        machine_size: 64,
        mean_interarrival_secs: 240.0,
        ..LublinModel::default()
    }
}

#[test]
fn lublin_workload_runs_under_every_scheduler() {
    let set = small_model().generate(400, 3);
    for spec in [
        SchedulerSpec::Static(Policy::Fcfs),
        SchedulerSpec::Static(Policy::Sjf),
        SchedulerSpec::Static(Policy::Ljf),
        SchedulerSpec::Easy(Policy::Fcfs),
        SchedulerSpec::dynp(DeciderKind::Advanced),
    ] {
        let mut s = spec.build();
        let r = simulate(&set, s.as_mut());
        assert_eq!(r.result.metrics.jobs, 400, "{}", spec.name());
        assert!(r.result.metrics.utilization > 0.0 && r.result.metrics.utilization <= 1.0);
        assert!(r.result.metrics.sldwa >= 1.0 - 1e-9);
    }
}

#[test]
fn lublin_swf_export_is_simulatable() {
    let set = small_model().generate(300, 4);
    let mut buf = Vec::new();
    swf::write_swf(&set, &mut buf).unwrap();
    let back = swf::read_swf(BufReader::new(buf.as_slice()), "lublin", 64).unwrap();
    assert_eq!(back.len(), set.len());
    let mut s = StaticScheduler::new(Policy::Sjf);
    let r = simulate(&back, &mut s);
    assert_eq!(r.result.metrics.jobs, 300);
}

#[test]
fn dynp_history_reconstructs_over_lublin_run() {
    let set = small_model().generate(600, 5);
    let mut scheduler = SelfTuningScheduler::new(DynPConfig::paper(DeciderKind::Advanced));
    let detail = simulate(&set, &mut scheduler);
    let end = SimTime::from_secs_f64(detail.result.metrics.last_end_secs);
    let history = PolicyHistory::reconstruct(Policy::Fcfs, &scheduler.stats, SimTime::ZERO, end);
    // Shares sum to 1 over the policies that occurred.
    let total: f64 = history.shares().values().sum();
    assert!((total - 1.0).abs() < 1e-9, "shares sum to {total}");
    // Switch count in the history equals the scheduler's own count.
    assert_eq!(history.switches() as u64, scheduler.stats.switches);
    // Observations are consistent with the machine.
    assert!(detail.observations.mean_busy <= 64.0);
    assert!(detail.observations.peak_queue <= 600);
}

#[test]
fn diurnal_amplitude_changes_the_execution() {
    // Same seed, different amplitude → genuinely different workloads and
    // results (guards against the modulation being a no-op).
    let calm = LublinModel {
        diurnal_amplitude: 0.0,
        ..small_model()
    }
    .generate(500, 6);
    let cyclic = LublinModel {
        diurnal_amplitude: 0.9,
        ..small_model()
    }
    .generate(500, 6);
    let mut a = StaticScheduler::new(Policy::Fcfs);
    let mut b = StaticScheduler::new(Policy::Fcfs);
    let ra = simulate(&calm, &mut a);
    let rb = simulate(&cyclic, &mut b);
    assert_ne!(
        ra.result.metrics.sldwa.to_bits(),
        rb.result.metrics.sldwa.to_bits()
    );
    // Bursty day-time arrivals should queue more than smooth arrivals.
    assert!(
        rb.result.metrics.avg_wait_secs > ra.result.metrics.avg_wait_secs * 0.5,
        "cyclic {} vs calm {}",
        rb.result.metrics.avg_wait_secs,
        ra.result.metrics.avg_wait_secs
    );
}
