//! Integration: the SWF round trip composes with the simulator — a job
//! set serialized to the Standard Workload Format and read back produces
//! the identical simulation outcome.

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
    assert_eq!(set.len(), reread.len());

    for spec in [
        SchedulerSpec::Static(Policy::Fcfs),
        SchedulerSpec::dynp(DeciderKind::Advanced),
    ] {
        let mut a = spec.build();
        let mut b = spec.build();
        let ra = simulate(&set, a.as_mut());
        let rb = simulate(&reread, b.as_mut());
        // SWF stores whole seconds; the generator emits whole-millisecond
        // times derived from f64 seconds, so allow the second-rounding to
        // shift metrics marginally.
        assert!(
            (ra.result.metrics.sldwa - rb.result.metrics.sldwa).abs() / ra.result.metrics.sldwa
                < 0.02,
            "{}: {} vs {}",
            spec.name(),
            ra.result.metrics.sldwa,
            rb.result.metrics.sldwa
        );
        assert!(
            (ra.result.metrics.utilization - rb.result.metrics.utilization).abs() < 0.01,
            "{}: {} vs {}",
            spec.name(),
            ra.result.metrics.utilization,
            rb.result.metrics.utilization
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
