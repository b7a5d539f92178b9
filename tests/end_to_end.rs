//! Cross-crate integration tests: the full pipeline from trace model
//! through the event-driven simulation to the measured metrics.

use dynp_suite::prelude::*;
use dynp_suite::workload::{traces, transform};

/// Every scheduler of the paper's line-up completes every job of every
/// trace model and produces sane metrics.
#[test]
fn full_lineup_runs_every_trace() {
    for model in traces::standard_models() {
        let set = model.generate(250, 11);
        for spec in SchedulerSpec::paper_lineup() {
            let mut scheduler = spec.build();
            let run = simulate(&set, scheduler.as_mut());
            assert_eq!(
                run.result.metrics.jobs,
                250,
                "{}/{}",
                model.name,
                spec.name()
            );
            assert!(
                run.result.metrics.sldwa >= 1.0 - 1e-9,
                "{}/{}: SLDwA {} < 1",
                model.name,
                spec.name(),
                run.result.metrics.sldwa
            );
            assert!(
                run.result.metrics.utilization > 0.0
                    && run.result.metrics.utilization <= 1.0 + 1e-9,
                "{}/{}: utilization {}",
                model.name,
                spec.name(),
                run.result.metrics.utilization
            );
            assert!(
                run.result.metrics.avg_slowdown >= run.result.metrics.avg_bounded_slowdown - 1e-9
            );
            // Arrival + completion per job.
            assert_eq!(run.result.events, 2 * 250);
        }
    }
}

/// The whole pipeline is deterministic: same model, seed and scheduler
/// give bit-identical metrics.
#[test]
fn pipeline_is_deterministic() {
    let model = traces::ctc();
    let a = {
        let set = transform::shrink(&model.generate(400, 5), 0.8);
        let mut s = SelfTuningScheduler::new(DynPConfig::paper(DeciderKind::Advanced));
        simulate(&set, &mut s)
    };
    let b = {
        let set = transform::shrink(&model.generate(400, 5), 0.8);
        let mut s = SelfTuningScheduler::new(DynPConfig::paper(DeciderKind::Advanced));
        simulate(&set, &mut s)
    };
    assert_eq!(
        a.result.metrics.sldwa.to_bits(),
        b.result.metrics.sldwa.to_bits()
    );
    assert_eq!(
        a.result.metrics.utilization.to_bits(),
        b.result.metrics.utilization.to_bits()
    );
    assert_eq!(
        a.result.metrics.artww.to_bits(),
        b.result.metrics.artww.to_bits()
    );
}

/// Shrinking the workload (more load) must not decrease utilization on a
/// saturating trace, and must not improve the slowdown.
#[test]
fn shrinking_increases_pressure() {
    let model = traces::sdsc();
    let base = model.generate(800, 23);
    let mut results = Vec::new();
    for factor in [1.0, 0.8, 0.6] {
        let set = transform::shrink(&base, factor);
        let mut s = StaticScheduler::new(Policy::Fcfs);
        results.push(simulate(&set, &mut s).result.metrics);
    }
    assert!(
        results[2].sldwa >= results[0].sldwa * 0.8,
        "slowdown should not fall with load: {} → {}",
        results[0].sldwa,
        results[2].sldwa
    );
    assert!(
        results[2].utilization >= results[0].utilization - 0.05,
        "utilization should not fall with load: {} → {}",
        results[0].utilization,
        results[2].utilization
    );
}

/// dynP restricted to a single candidate policy is exactly that static
/// policy, end to end.
#[test]
fn dynp_with_one_policy_is_static() {
    let model = traces::kth();
    let set = model.generate(300, 13);
    for policy in Policy::BASIC {
        let mut config = DynPConfig::paper(DeciderKind::Advanced);
        config.policies = vec![policy];
        config.initial_policy = policy;
        let mut dynp = SelfTuningScheduler::new(config);
        let mut stat = StaticScheduler::new(policy);
        let a = simulate(&set, &mut dynp);
        let b = simulate(&set, &mut stat);
        assert_eq!(
            a.result.metrics.sldwa.to_bits(),
            b.result.metrics.sldwa.to_bits(),
            "{policy}"
        );
        assert_eq!(
            a.result.metrics.last_end_secs, b.result.metrics.last_end_secs,
            "{policy}"
        );
    }
}

/// The advanced and preferred deciders may differ per event but must stay
/// in the same performance ballpark (the paper finds them nearly
/// indistinguishable).
#[test]
fn deciders_land_in_the_same_ballpark() {
    let model = traces::ctc();
    let set = transform::shrink(&model.generate(600, 3), 0.8);
    let run = |decider| {
        let mut s = SelfTuningScheduler::new(DynPConfig::paper(decider));
        simulate(&set, &mut s).result.metrics
    };
    let adv = run(DeciderKind::Advanced);
    let pref = run(DeciderKind::Preferred {
        policy: Policy::Sjf,
        threshold: 0.0,
    });
    assert!(
        (adv.sldwa - pref.sldwa).abs() / adv.sldwa < 0.5,
        "advanced {} vs preferred {}",
        adv.sldwa,
        pref.sldwa
    );
    assert!((adv.utilization - pref.utilization).abs() < 0.1);
}

/// The decider actually switches policies on regime-switching workloads
/// (otherwise the self-tuning machinery is dead weight).
#[test]
fn dynp_switches_on_real_workloads() {
    let model = traces::sdsc();
    let set = transform::shrink(&model.generate(800, 17), 0.8);
    let mut s = SelfTuningScheduler::new(DynPConfig::paper(DeciderKind::Advanced));
    let _ = simulate(&set, &mut s);
    assert!(
        s.stats.switches > 0,
        "no policy switch in {} decisions",
        s.stats.decisions
    );
    assert_eq!(s.stats.decisions, 2 * 800);
    // Every decision is accounted to some policy.
    let total: u64 = s.stats.chosen.iter().sum();
    assert_eq!(total, s.stats.decisions);
}

/// Utilization never exceeds 1 even at extreme overload.
#[test]
fn extreme_overload_is_stable() {
    let model = traces::kth();
    let set = transform::shrink(&model.generate(400, 29), 0.2);
    let mut s = StaticScheduler::new(Policy::Ljf);
    let run = simulate(&set, &mut s);
    assert_eq!(run.result.metrics.jobs, 400);
    assert!(run.result.metrics.utilization <= 1.0 + 1e-9);
    assert!(run.result.metrics.sldwa >= 1.0);
}
