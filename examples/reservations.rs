//! Advance reservations in the planning-based RMS: block out a
//! maintenance window and watch the planner backfill around it — then
//! run a full simulation with a feasibility-checked request stream and
//! watch admission admit, reject and honor windows.
//!
//! ```text
//! cargo run --release --example reservations
//! ```

use dynp_suite::prelude::*;
use dynp_suite::rms::{Planner, ReservationBook};
use dynp_suite::workload::dist::{AccuracyModel, DurationDist, WidthDist};
use dynp_suite::workload::regime::Regime;
use dynp_suite::workload::traces;

fn main() {
    // A 32-processor machine with a full-machine maintenance window
    // reserved over [2 h, 3 h).
    let machine = 32;
    let mut book = ReservationBook::new();
    let res_id = book.add(
        SimTime::from_secs(7_200),
        SimDuration::from_secs(3_600),
        machine,
    );
    println!("reservation {res_id}: all {machine} processors blocked over [2h, 3h)\n");

    // A queue of mixed jobs, all submitted at t = 0.
    let model = TraceModel {
        name: "demo".into(),
        machine_size: machine,
        regimes: vec![Regime {
            name: "mixed".into(),
            weight: 1.0,
            mean_session_jobs: 1.0,
            width: WidthDist::Weighted(vec![(2, 3.0), (4, 3.0), (8, 2.0), (16, 1.0)]),
            estimate: DurationDist::LogUniform {
                min: 600.0,
                max: 14_400.0,
            },
            arrival_scale: 1.0,
        }],
        accuracy: AccuracyModel::from_overestimation(1.8, 0.2),
        mean_interarrival_secs: 1.0,
        min_estimate_secs: 600.0,
        max_estimate_secs: 14_400.0,
    };
    let mut queue: Vec<Job> = model.generate(12, 5).into_jobs();
    for job in &mut queue {
        *job = Job::new(job.id, SimTime::ZERO, job.width, job.estimate, job.actual);
    }
    Policy::Fcfs.sort_queue(&mut queue);

    let mut planner = Planner::new();
    let schedule = planner.plan_with_reservations(machine, SimTime::ZERO, &[], book.all(), &queue);

    println!(
        "{:<5} {:>6} {:>10} {:>12} {:>12}  note",
        "job", "width", "est [s]", "start [s]", "end [s]"
    );
    for entry in &schedule.entries {
        let start = entry.start.as_secs_f64();
        let end = entry.planned_end().as_secs_f64();
        let note = if end <= 7_200.0 {
            "fits before the window"
        } else if start >= 10_800.0 {
            "pushed past the window"
        } else {
            "runs alongside (partial width)"
        };
        println!(
            "{:<5} {:>6} {:>10.0} {:>12.0} {:>12.0}  {note}",
            entry.job.id.to_string(),
            entry.job.width,
            entry.job.estimate.as_secs_f64(),
            start,
            end,
        );
    }

    // Invariant: nothing may overlap the reservation window.
    for entry in &schedule.entries {
        let start = entry.start.as_secs_f64();
        let end = entry.planned_end().as_secs_f64();
        assert!(
            end <= 7_200.0 || start >= 10_800.0,
            "job {} overlaps the full-machine reservation",
            entry.job.id
        );
    }
    println!("\nno planned job overlaps the full-machine window — the planner treats");
    println!("the reservation as zero available capacity and backfills the short jobs");
    println!("in front of it.");

    // ---------------------------------------------------------------
    // Part 2: the admission subsystem end to end. A synthetic request
    // stream (Poisson arrivals, ~20% offered booked area) rides on a
    // CTC-like workload; every request is feasibility-checked at its
    // submission instant, and the self-tuning scheduler plans the batch
    // jobs around whatever was admitted.
    // ---------------------------------------------------------------
    println!("\n=== feasibility-checked admission under the dynP scheduler ===\n");
    let set = traces::ctc().generate(400, 7);
    let requests = ReservationModel::typical(0.2).generate(&set, 1);
    println!(
        "{} jobs + {} reservation requests on {} processors",
        set.len(),
        requests.len(),
        set.machine_size
    );

    let mut plain = SelfTuningScheduler::new(DynPConfig::paper(DeciderKind::Advanced));
    let baseline = simulate(&set, &mut plain);

    let mut sched = SelfTuningScheduler::new(DynPConfig::paper(DeciderKind::Advanced));
    let d = simulate_chaos(
        &set,
        &mut sched,
        &requests,
        AdmissionConfig::default(),
        &FaultPlan::none(),
        Tracer::disabled(),
    );
    let st = &d.reservations.stats;
    println!(
        "admitted {}/{} ({:.0}% acceptance), {} honored, {} cancelled",
        st.admitted,
        st.requests,
        st.acceptance_rate() * 100.0,
        st.honored,
        st.cancelled
    );
    println!(
        "rejected: {} capacity, {} guarantee, {} invalid",
        st.rejected_capacity, st.rejected_guarantee, st.rejected_invalid
    );
    println!(
        "batch SLDwA {:.2} → {:.2} — the price the batch queue pays for guarantees",
        baseline.result.metrics.sldwa, d.result.metrics.sldwa
    );
}
