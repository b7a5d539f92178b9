//! Small chaos scenarios built to collide, shared by the feed-order and
//! federation-equivalence suites.
//!
//! Every instant is a multiple of 100 s on a twelve-slot grid, so the
//! three exogenous streams and the run's own events (finishes, window
//! boundaries, 300 s retry backoffs) keep landing on each other: an
//! arrival, a reservation request, a `NodeDown`, another node's `NodeUp`
//! and a `Finish` at one instant are the common case, a node's `NodeUp`
//! and its next `NodeDown` share an instant whenever a gap is drawn as
//! zero, and one outage may outlast every job. Tie order is then all that
//! separates a correct event feed from a wrong one.

#![allow(dead_code)]

use dynp_suite::prelude::*;
use dynp_suite::sim::DetailedRun;
use dynp_suite::workload::{FaultKind, FaultPlan, NodeOutage};
use proptest::prelude::*;

pub const MACHINE: u32 = 4;

pub fn slot(n: u64) -> SimTime {
    SimTime::from_secs(n * 100)
}

pub fn slots(n: u64) -> SimDuration {
    SimDuration::from_secs(n * 100)
}

#[derive(Debug, Clone)]
pub struct Collisions {
    pub set: JobSet,
    pub requests: Vec<ReservationRequest>,
    pub faults: FaultPlan,
    pub spec: SchedulerSpec,
}

/// One node's outages: a start slot, then `(down slots, gap slots)`.
type Chain = (u64, Vec<(u64, u64)>);

/// Per-node outage chains on nodes 0 and 1 plus, optionally, one outage
/// on node 2 that ends long after the last job. At most three of the
/// four nodes are ever down.
fn outages(chains: (Chain, Chain), late: Option<u64>, node_major: bool) -> Vec<NodeOutage> {
    let mut out = Vec::new();
    for (node, (start, segments)) in [chains.0, chains.1].into_iter().enumerate() {
        let mut t = start;
        for (down, gap) in segments {
            out.push(NodeOutage {
                node: node as u32,
                down_at: slot(t),
                up_at: slot(t + down),
            });
            t += down + gap;
        }
    }
    if let Some(at) = late {
        out.push(NodeOutage {
            node: 2,
            down_at: slot(at),
            up_at: slot(200),
        });
    }
    // Node-major is the order they were drawn in: out of time order as
    // soon as both chains have an outage, and still repair-before-failure
    // per node. Otherwise the generator's own order.
    if !node_major {
        out.sort_by_key(|o| (o.down_at, o.node));
    }
    out
}

/// `unsorted` lists the requests latest first and the outages node by
/// node instead of by time.
pub fn collisions(unsorted: bool) -> impl Strategy<Value = Collisions> {
    let coin = || (0u32..2).prop_map(|c| c == 1);
    let jobs = proptest::collection::vec((0u64..12, 1u32..4, 1u64..6, 1u64..6), 2..8);
    let requests = proptest::collection::vec(
        (0u64..12, 0u64..4, 1u64..4, 1u32..MACHINE + 1, coin()),
        0..4,
    );
    let chain = || (0u64..6, proptest::collection::vec((1u64..4, 0u64..3), 0..3));
    let job_faults = proptest::collection::vec(
        (
            0u32..8,
            prop_oneof![
                Just(FaultKind::Overrun),
                (1u32..10).prop_map(|f| FaultKind::Crash {
                    fraction: f as f64 / 10.0,
                }),
            ],
        ),
        0..3,
    );
    (
        jobs,
        requests,
        (chain(), chain()),
        prop_oneof![Just(None), (5u64..12).prop_map(Some)],
        job_faults,
        coin(),
    )
        .prop_map(
            move |(jobs, requests, chains, late, mut job_faults, dynp)| {
                let jobs = jobs
                    .into_iter()
                    .enumerate()
                    .map(|(i, (submit, width, est, act))| {
                        Job::new(
                            JobId(i as u32),
                            slot(submit),
                            width,
                            slots(est),
                            slots(act.min(est)),
                        )
                    })
                    .collect();
                let mut requests: Vec<(u64, u64, u64, u32, bool)> = requests;
                requests.sort_by_key(|r| r.0);
                if unsorted {
                    requests.reverse();
                }
                let requests = requests
                    .into_iter()
                    .enumerate()
                    .map(
                        |(i, (submit, lead, dur, width, cancel))| ReservationRequest {
                            id: i as u32,
                            submit: slot(submit),
                            start: slot(submit + lead),
                            duration: slots(dur),
                            width,
                            // Withdrawn halfway through a lead of two slots or
                            // more: on the grid and strictly inside it.
                            cancel_at: (cancel && lead >= 2).then(|| slot(submit + lead / 2)),
                        },
                    )
                    .collect();
                job_faults.sort_by_key(|(id, _)| *id);
                job_faults.dedup_by_key(|(id, _)| *id);
                Collisions {
                    set: JobSet::new("collide", MACHINE, jobs),
                    requests,
                    faults: FaultPlan {
                        outages: outages(chains, late, unsorted),
                        job_faults,
                        ..FaultPlan::none()
                    },
                    spec: if dynp {
                        SchedulerSpec::dynp(DeciderKind::Advanced)
                    } else {
                        SchedulerSpec::Static(Policy::Fcfs)
                    },
                }
            },
        )
}

/// Every field of two runs that is not a label, bit for bit.
pub fn assert_same_run(a: &DetailedRun, b: &DetailedRun) {
    assert_eq!(a.completed, b.completed);
    assert_eq!(a.faults, b.faults);
    assert_eq!(a.reservations, b.reservations);
    assert_eq!(a.result.events, b.result.events);
    assert_eq!(
        a.result.metrics.sldwa.to_bits(),
        b.result.metrics.sldwa.to_bits()
    );
    assert_eq!(
        a.result.metrics.utilization.to_bits(),
        b.result.metrics.utilization.to_bits()
    );
    assert_eq!(a.observations.peak_queue, b.observations.peak_queue);
    assert_eq!(
        a.observations.mean_queue.to_bits(),
        b.observations.mean_queue.to_bits()
    );
    assert_eq!(
        a.observations.mean_busy.to_bits(),
        b.observations.mean_busy.to_bits()
    );
}
