//! Policy-history report: run the self-tuning dynP scheduler on one
//! workload and print everything about its decisions — time shares,
//! residence times, flap rate, switch log, and tail percentiles of the
//! realized job outcomes.
//!
//! ```text
//! cargo run --release -p dynp-sim --bin history_report -- \
//!     --trace SDSC --jobs 4000 [--shrink 0.8] [--scheduler dynp:preferred:SJF]
//! ```

use dynp_core::{DeciderKind, DynPConfig, PolicyHistory, SelfTuningScheduler};
use dynp_des::{SimDuration, SimTime};
use dynp_metrics::OutcomeDistributions;
use dynp_rms::{AdmissionConfig, Policy};
use dynp_sim::cli::{usage, CommonArgs, Flags, TRACING};
use dynp_sim::{simulate_chaos, SchedulerSpec};
use dynp_workload::{traces, transform, FaultPlan};

fn main() {
    let accepts = [&["--jobs", "--seed", "--out"][..], &TRACING].concat();
    let mut flags = Flags::from_env(usage(
        "usage: history_report [--trace NAME] [--scheduler SPEC] [--shrink F] [flags]\n  \
         --trace NAME         CTC|KTH|LANL|SDSC, given at most once (default CTC)\n  \
         --scheduler SPEC     a dynP spec, given at most once (default dynp:advanced)\n  \
         --shrink F           shrinking factor of the workload (default 0.8)",
        &accepts,
    ));
    let mut shrink_factor = 0.8f64;
    let mut model = None;
    let mut spec = None;
    let args = CommonArgs::read(&mut flags, &accepts, |flags, flag| {
        let twice = match flag {
            "--shrink" => {
                shrink_factor = flags.positive(flag);
                false
            }
            "--trace" => {
                let name = flags.value(flag);
                let m = traces::by_name(&name)
                    .unwrap_or_else(|| flags.bail(&format!("--trace: unknown trace {name:?}")));
                model.replace(m).is_some()
            }
            "--scheduler" => spec.replace(flags.scheduler(flag)).is_some(),
            _ => return false,
        };
        if twice {
            flags.bail(&format!("{flag} given twice"));
        }
        true
    });
    let spec = spec.unwrap_or(SchedulerSpec::dynp(DeciderKind::Advanced));
    let SchedulerSpec::DynP { decider, .. } = spec else {
        flags.bail(&format!(
            "--scheduler must be a dynP spec, got {}",
            spec.name()
        ));
    };

    let model = model.unwrap_or_else(traces::ctc);
    let set = transform::shrink(&model.generate(args.jobs, args.seed), shrink_factor);
    println!(
        "workload: {} ({} jobs, machine {}, shrinking factor {shrink_factor})",
        set.name,
        set.len(),
        set.machine_size
    );

    let mut scheduler = SelfTuningScheduler::new(DynPConfig::paper(decider));
    let tracer = args.tracer();
    let detail = simulate_chaos(
        &set,
        &mut scheduler,
        &[],
        AdmissionConfig::default(),
        &FaultPlan::none(),
        tracer.clone(),
    );
    let m = &detail.result.metrics;
    println!(
        "\n{}: SLDwA {:.2}, utilization {:.2} %, ARTwW {:.0} s",
        detail.result.scheduler,
        m.sldwa,
        m.utilization * 100.0,
        m.artww
    );
    println!(
        "queue: peak {} jobs, time-weighted mean {:.1}; mean busy {:.1}/{} processors",
        detail.observations.peak_queue,
        detail.observations.mean_queue,
        detail.observations.mean_busy,
        set.machine_size
    );

    // Decisions.
    println!(
        "\ndecisions: {} total, {} switches ({:.2} % switch rate)",
        scheduler.stats.decisions,
        scheduler.stats.switches,
        scheduler.stats.switches as f64 / scheduler.stats.decisions.max(1) as f64 * 100.0
    );
    // Switch counts come from the keyed SwitchStats counters, not from
    // re-deriving them off the reconstructed history: history segments
    // collapse switches that share a timestamp, so segment-derived counts
    // undercount on busy traces.
    for policy in Policy::BASIC {
        println!(
            "  {:<5} won {:>5.1} % of decisions, entered by {} switches",
            policy.name(),
            scheduler.stats.share(policy) * 100.0,
            scheduler.stats.switches_into(policy)
        );
    }

    // Timeline.
    let end = SimTime::from_secs_f64(m.last_end_secs);
    let history = PolicyHistory::reconstruct(Policy::Fcfs, &scheduler.stats, SimTime::ZERO, end);
    println!("\npolicy time shares over the run:");
    for (name, share) in history.shares() {
        println!("  {name:<5} {:>5.1} %", share * 100.0);
    }
    println!(
        "residence segments: {} (≤ switches + 1: coincident switch times collapse), \
         mean residence {:.0} s, flapping share (<5 min) {:.0} %",
        history.segments().len(),
        history.mean_residence_secs(),
        history.flapping_share(SimDuration::from_secs(300)) * 100.0
    );

    // Outcome tails.
    let d = OutcomeDistributions::measure(&detail.completed);
    println!("\nper-job outcome distributions:");
    println!(
        "  wait [s]   p50 {:>8.0}  p90 {:>8.0}  p99 {:>8.0}  max {:>8.0}",
        d.wait_secs.p50, d.wait_secs.p90, d.wait_secs.p99, d.wait_secs.max
    );
    println!(
        "  slowdown   p50 {:>8.2}  p90 {:>8.2}  p99 {:>8.2}  max {:>8.2}",
        d.slowdown.p50, d.slowdown.p90, d.slowdown.p99, d.slowdown.max
    );
    println!(
        "  bounded    p50 {:>8.2}  p90 {:>8.2}  p99 {:>8.2}  max {:>8.2}",
        d.bounded_slowdown.p50,
        d.bounded_slowdown.p90,
        d.bounded_slowdown.p99,
        d.bounded_slowdown.max
    );

    if let Some(dir) = &args.out {
        if let Err(e) =
            dynp_sim::svg::write_gantt(&detail.completed, set.machine_size, dir, "gantt")
        {
            eprintln!("error: cannot write {}/gantt.svg: {e}", dir.display());
            std::process::exit(1);
        }
        eprintln!("wrote {}/gantt.svg", dir.display());
    }
    match args.write_trace(&tracer) {
        Ok(Some((jsonl, chrome))) => {
            eprintln!("wrote {} and {}", jsonl.display(), chrome.display())
        }
        Ok(None) => {}
        Err(e) => {
            eprintln!("error: cannot write the trace: {e}");
            std::process::exit(1);
        }
    }
}
