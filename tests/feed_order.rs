//! Fed order ≡ preloaded order.
//!
//! The drivers feed the three exogenous streams into the event heap as
//! they come due instead of pushing all of them before the first pop.
//! The oracle here is the loop they replaced, kept as a test-only
//! reference: preload every stream with `schedule_at` in seeding order
//! (arrivals, requests, then `NodeDown`/`NodeUp` per outage), step the
//! engine, hand each event to the same [`ShardCore::handle`]. On
//! scenarios built so that ties are the rule (see `common`), the fed
//! driver must dispatch the very same `(time, event)` sequence and
//! measure the very same run — for sorted streams and for streams handed
//! over out of time order, which the heap used to sort and the cursors
//! must.

mod common;

use common::{assert_same_run, collisions, slot, slots, Collisions, MACHINE};
use dynp_suite::des::Engine;
use dynp_suite::obs::Tracer;
use dynp_suite::prelude::*;
use dynp_suite::sim::{ChaosDriver, DetailedRun, Event, ShardCore};
use dynp_suite::workload::{FaultPlan, NodeOutage};
use proptest::prelude::*;

type Dispatched = Vec<(SimTime, Event)>;

/// The reference: every exogenous event in the heap before the first pop.
fn preloaded(c: &Collisions) -> (Dispatched, DetailedRun) {
    let (set, requests, faults) = (&c.set, &c.requests[..], &c.faults);
    let mut scheduler = c.spec.build();
    let mut engine: Engine<Event> = Engine::new();
    for job in set.jobs() {
        engine.schedule_at(job.submit, Event::Arrive(job.id));
    }
    for (i, r) in requests.iter().enumerate() {
        engine.schedule_at(r.submit, Event::ResRequest(i as u32));
    }
    for o in &faults.outages {
        engine.schedule_at(o.down_at, Event::NodeDown(o.node));
        engine.schedule_at(o.up_at, Event::NodeUp(o.node));
    }
    let t0 = requests
        .iter()
        .map(|r| r.submit)
        .chain(faults.outages.iter().map(|o| o.down_at))
        .fold(set.first_submit(), |a, b| a.min(b));
    let mut core = ShardCore::new(
        set.machine_size,
        AdmissionConfig::default(),
        set.len(),
        faults.retry,
        t0,
        Tracer::disabled(),
        0,
    );
    let mut dispatched = Vec::new();
    while let Some((t, event)) = engine.step() {
        dispatched.push((t, event));
        core.handle(
            &mut engine,
            event,
            scheduler.as_mut(),
            set.jobs(),
            requests,
            faults,
        );
    }
    let run = core.finish(
        &engine,
        scheduler.name(),
        set.name.clone(),
        faults,
        Some(set.len()),
    );
    (dispatched, run)
}

/// The driver under test, stepped so the dispatch sequence is visible.
fn fed(c: &Collisions) -> (Dispatched, DetailedRun) {
    let mut scheduler = c.spec.build();
    let mut driver = ChaosDriver::new(
        &c.set,
        scheduler.as_mut(),
        &c.requests,
        AdmissionConfig::default(),
        &c.faults,
        Tracer::disabled(),
    );
    let mut dispatched = Vec::new();
    while let Some(step) = driver.step() {
        dispatched.push(step);
    }
    assert!(driver.is_done());
    (dispatched, driver.run_to_end())
}

fn assert_fed_equals_preloaded(c: &Collisions) {
    let (expected_order, expected_run) = preloaded(c);
    let (order, run) = fed(c);
    assert_eq!(order, expected_order);
    assert_same_run(&run, &expected_run);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn fed_driver_dispatches_the_preloaded_sequence(c in collisions(false)) {
        assert_fed_equals_preloaded(&c);
    }

    // Requests latest-first and outages node by node: the heap sorted
    // whatever it was given, and ties went to the lower seeding index.
    #[test]
    fn unsorted_streams_dispatch_the_preloaded_sequence(c in collisions(true)) {
        assert_fed_equals_preloaded(&c);
    }
}

fn outage(node: u32, down: u64, up: u64) -> NodeOutage {
    NodeOutage {
        node,
        down_at: slot(down),
        up_at: slot(up),
    }
}

fn request(id: u32, submit: u64, start: u64) -> ReservationRequest {
    ReservationRequest {
        id,
        submit: slot(submit),
        start: slot(start),
        duration: slots(2),
        width: 1,
        cancel_at: None,
    }
}

// One instant (slot 3) that holds an arrival, a request, a `NodeDown`,
// another node's `NodeUp`, node 1's `NodeUp` together with its next
// `NodeDown`, and a `Finish` — and an outage that outlasts every job. The
// order is pinned event by event: seeded ranks first, in stream order,
// then the run's own events.
#[test]
fn one_crowded_instant_dispatches_in_seeding_order() {
    let job = |id, submit, act| Job::new(JobId(id), slot(submit), 1, slots(act), slots(act));
    let c = Collisions {
        set: JobSet::new("crowded", MACHINE, vec![job(0, 0, 3), job(1, 3, 1)]),
        requests: vec![request(0, 3, 6)],
        faults: FaultPlan {
            outages: vec![
                outage(1, 1, 3),
                outage(2, 2, 3),
                outage(1, 3, 4),
                outage(3, 3, 90),
            ],
            ..FaultPlan::none()
        },
        spec: SchedulerSpec::Static(Policy::Fcfs),
    };
    let (order, _) = fed(&c);
    let at_slot_3: Vec<Event> = order
        .iter()
        .filter(|(t, _)| *t == slot(3))
        .map(|(_, e)| *e)
        .collect();
    assert_eq!(
        at_slot_3,
        vec![
            Event::Arrive(JobId(1)),
            Event::ResRequest(0),
            Event::NodeUp(1),
            Event::NodeUp(2),
            Event::NodeDown(1),
            Event::NodeDown(3),
            Event::Finish(JobId(0), 1),
        ]
    );
    assert_eq!(order.last(), Some(&(slot(90), Event::NodeUp(3))));
    assert_fed_equals_preloaded(&c);
}

// A hand-built plan in no particular order is the run of the same plan
// sorted. (No `NodeUp` shares its instant with another outage's
// `NodeDown` here: between *those* the seeding index decides, and sorting
// the plan renumbers it — the proptest above pins that case against the
// heap.)
#[test]
fn out_of_order_streams_give_the_run_of_the_sorted_plan() {
    let job = |id, submit, width, act| {
        Job::new(JobId(id), slot(submit), width, slots(act + 1), slots(act))
    };
    let set = JobSet::new(
        "shuffled",
        MACHINE,
        vec![
            job(0, 0, 2, 4),
            job(1, 1, 3, 2),
            job(2, 2, 1, 6),
            job(3, 7, 4, 1),
        ],
    );
    let sorted_outages = vec![
        outage(0, 1, 3),
        outage(3, 2, 9),
        outage(0, 4, 5),
        outage(1, 6, 8),
    ];
    let sorted_requests = vec![request(0, 0, 5), request(1, 2, 12), request(2, 2, 3)];
    let shuffled_outages = [3, 0, 2, 1].map(|i| sorted_outages[i]).to_vec();
    // Latest first, except that the two requests of slot 2 keep their
    // relative order — as a stable sort by time would leave them.
    let shuffled_requests = [1, 2, 0].map(|i| sorted_requests[i]).to_vec();

    for spec in [
        SchedulerSpec::Static(Policy::Fcfs),
        SchedulerSpec::dynp(DeciderKind::Advanced),
    ] {
        let run = |requests: &[ReservationRequest], outages: &[NodeOutage]| {
            let c = Collisions {
                set: set.clone(),
                requests: requests.to_vec(),
                faults: FaultPlan {
                    outages: outages.to_vec(),
                    ..FaultPlan::none()
                },
                spec: spec.clone(),
            };
            assert_fed_equals_preloaded(&c);
            fed(&c).1
        };
        let sorted = run(&sorted_requests, &sorted_outages);
        assert!(sorted.faults.evictions > 0 && sorted.reservations.stats.admitted > 0);
        assert_same_run(&run(&shuffled_requests, &shuffled_outages), &sorted);
        assert_same_run(&run(&sorted_requests, &shuffled_outages), &sorted);
        assert_same_run(&run(&shuffled_requests, &sorted_outages), &sorted);
    }
}
