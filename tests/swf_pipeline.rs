//! Integration: the SWF round trip composes with the simulator — a job
//! set serialized to the Standard Workload Format and read back is the
//! same set and produces the identical simulation outcome.

use dynp_suite::prelude::*;
use dynp_suite::workload::{swf, traces};
use std::io::BufReader;

#[test]
fn swf_round_trip_preserves_simulation_results() {
    let model = traces::sdsc();
    let set = model.generate(300, 77);

    let mut buf = Vec::new();
    swf::write_swf(&set, &mut buf).expect("serialize");
    let reread = swf::read_swf(
        BufReader::new(buf.as_slice()),
        set.name.clone(),
        set.machine_size,
    )
    .expect("parse back");
    // The generators keep their instants and run times at millisecond
    // resolution, off whole seconds; the writer's fractional fields carry
    // them, so the set reads back job for job.
    assert!(set.jobs().iter().any(|j| j.submit.as_millis() % 1000 != 0));
    assert_eq!(set.jobs(), reread.jobs());

    for spec in [
        SchedulerSpec::Static(Policy::Fcfs),
        SchedulerSpec::dynp(DeciderKind::Advanced),
    ] {
        let mut a = spec.build();
        let mut b = spec.build();
        let ra = simulate(&set, a.as_mut());
        let rb = simulate(&reread, b.as_mut());
        assert_eq!(
            ra.result.metrics.sldwa.to_bits(),
            rb.result.metrics.sldwa.to_bits(),
            "{}",
            spec.name()
        );
        assert_eq!(
            ra.result.metrics.utilization.to_bits(),
            rb.result.metrics.utilization.to_bits(),
            "{}",
            spec.name()
        );
    }
}

#[test]
fn swf_jobs_survive_with_exact_fields_when_times_are_whole_seconds() {
    // A set built directly on whole seconds round-trips exactly.
    let jobs: Vec<Job> = (0..50)
        .map(|i| {
            Job::new(
                JobId(i),
                SimTime::from_secs(u64::from(i) * 13),
                (i % 7) + 1,
                SimDuration::from_secs(60 + u64::from(i) * 10),
                SimDuration::from_secs(30 + u64::from(i) * 10),
            )
        })
        .collect();
    let set = JobSet::new("exact", 8, jobs);
    let mut buf = Vec::new();
    swf::write_swf(&set, &mut buf).unwrap();
    let back = swf::read_swf(BufReader::new(buf.as_slice()), "exact", 8).unwrap();
    for (a, b) in set.jobs().iter().zip(back.jobs()) {
        assert_eq!(a.submit, b.submit);
        assert_eq!(a.width, b.width);
        assert_eq!(a.estimate, b.estimate);
        assert_eq!(a.actual, b.actual);
    }

    let mut sa = StaticScheduler::new(Policy::Sjf);
    let mut sb = StaticScheduler::new(Policy::Sjf);
    let ra = simulate(&set, &mut sa);
    let rb = simulate(&back, &mut sb);
    assert_eq!(
        ra.result.metrics.sldwa.to_bits(),
        rb.result.metrics.sldwa.to_bits()
    );
}
