//! Federation equivalence and conservation properties.
//!
//! The parallel epoch executor must be a pure performance knob: for any
//! workload, fault plan, route policy and worker count, its results are
//! bit-identical to the sequential reference executor. And a one-cluster
//! federation is the single-cluster chaos driver, bit for bit — the
//! sharded path adds nothing but structure.

mod common;

use dynp_suite::obs::Tracer;
use dynp_suite::prelude::*;
use dynp_suite::sim::simulate_chaos;
use dynp_suite::sim::FederationResult;
use dynp_suite::workload::{traces, FaultKind, FaultPlan, NodeOutage};
use proptest::prelude::*;

fn dynp_spec(machine: u32) -> ClusterSpec {
    ClusterSpec::new(machine, SchedulerSpec::dynp(DeciderKind::Advanced))
}

/// One-cluster federation ≡ the plain driver, bit for bit.
#[test]
fn one_cluster_federation_matches_simulate() {
    let set = traces::ctc().generate(200, 5);
    let mut scheduler = SchedulerSpec::dynp(DeciderKind::Advanced).build();
    let plain = simulate(&set, &mut *scheduler);
    let workload = MultiClusterWorkload::single(&set);
    let fed = run_federation(
        &workload,
        vec![dynp_spec(set.machine_size)],
        &FederationConfig::default(),
    );
    assert_eq!(plain.completed, fed.clusters[0].completed);
    let m = &fed.clusters[0].result.metrics;
    assert_eq!(m.sldwa.to_bits(), plain.result.metrics.sldwa.to_bits());
    assert_eq!(
        m.utilization.to_bits(),
        plain.result.metrics.utilization.to_bits()
    );
    assert_eq!(fed.events, plain.result.events);
}

/// One-cluster federation ≡ the chaos driver under job faults, node
/// outages and retries, bit for bit.
#[test]
fn one_cluster_federation_matches_simulate_chaos() {
    let set = traces::kth().generate(150, 11);
    let faults = FaultPlan {
        outages: vec![
            NodeOutage {
                node: 0,
                down_at: SimTime::from_secs(2_000),
                up_at: SimTime::from_secs(9_000),
            },
            NodeOutage {
                node: 3,
                down_at: SimTime::from_secs(40_000),
                up_at: SimTime::from_secs(55_000),
            },
        ],
        job_faults: vec![
            (7, FaultKind::Crash { fraction: 0.5 }),
            (23, FaultKind::Overrun),
            (61, FaultKind::Crash { fraction: 0.25 }),
        ],
        ..FaultPlan::none()
    };
    let mut scheduler = SchedulerSpec::dynp(DeciderKind::Advanced).build();
    let plain = simulate_chaos(
        &set,
        &mut *scheduler,
        &[],
        AdmissionConfig::default(),
        &faults,
        Tracer::disabled(),
    );
    let workload = MultiClusterWorkload::single(&set);
    let mut spec = dynp_spec(set.machine_size);
    spec.faults = faults;
    let fed = run_federation(&workload, vec![spec], &FederationConfig::default());
    assert_eq!(plain.completed, fed.clusters[0].completed);
    let m = &fed.clusters[0].result.metrics;
    assert_eq!(m.sldwa.to_bits(), plain.result.metrics.sldwa.to_bits());
    assert_eq!(fed.clusters[0].faults, plain.faults);
    assert_eq!(fed.events, plain.result.events);
}

/// A small federation input: per-cluster job sets plus a shared fault
/// plan (global job ids) and one cluster-0 outage.
#[derive(Debug, Clone)]
struct FedInput {
    sets: Vec<JobSet>,
    faults: FaultPlan,
}

fn arbitrary_federation(clusters: usize) -> impl Strategy<Value = FedInput> {
    let cluster = (
        4u32..12, // machine size
        proptest::collection::vec(
            (
                0u64..4_000, // submit (s)
                1u32..12,    // width (clamped to machine)
                1u64..1_500, // estimate (s)
                1u64..1_500, // actual (clamped to estimate)
            ),
            1..18,
        ),
    );
    (
        proptest::collection::vec(cluster, clusters..clusters + 1),
        proptest::collection::vec(
            (
                0u32..54,
                prop_oneof![
                    Just(FaultKind::Overrun),
                    (1u32..10).prop_map(|f| FaultKind::Crash {
                        fraction: f as f64 / 10.0,
                    }),
                ],
            ),
            0..5,
        ),
        0u64..3, // outage count on cluster 0
    )
        .prop_map(|(raw_sets, mut raw_faults, outages)| {
            let sets: Vec<JobSet> = raw_sets
                .into_iter()
                .enumerate()
                .map(|(c, (machine, raw))| {
                    let jobs: Vec<Job> = raw
                        .into_iter()
                        .enumerate()
                        .map(|(i, (submit, width, est, act))| {
                            Job::new(
                                JobId(i as u32),
                                SimTime::from_secs(submit),
                                width.min(machine),
                                SimDuration::from_secs(est),
                                SimDuration::from_secs(act),
                            )
                        })
                        .collect();
                    JobSet::new(format!("c{c}"), machine, jobs)
                })
                .collect();
            raw_faults.sort_by_key(|(id, _)| *id);
            raw_faults.dedup_by_key(|(id, _)| *id);
            let outages = (0..outages)
                .map(|i| NodeOutage {
                    node: 0,
                    down_at: SimTime::from_secs(1_000 + 20_000 * i),
                    up_at: SimTime::from_secs(6_000 + 20_000 * i),
                })
                .collect();
            FedInput {
                sets,
                faults: FaultPlan {
                    outages,
                    job_faults: raw_faults,
                    ..FaultPlan::none()
                },
            }
        })
}

fn run_input(input: &FedInput, shard_threads: usize, route: RoutePolicy) -> FederationResult {
    let workload = MultiClusterWorkload::merge("prop", &input.sets);
    let specs: Vec<ClusterSpec> = input
        .sets
        .iter()
        .enumerate()
        .map(|(c, set)| {
            let mut spec = dynp_spec(set.machine_size);
            // Job faults are keyed by global id and follow the job;
            // the outage trace stays local to cluster 0.
            spec.faults.job_faults = input.faults.job_faults.clone();
            spec.faults.retry = input.faults.retry;
            if c == 0 {
                spec.faults.outages = input.faults.outages.clone();
            }
            spec
        })
        .collect();
    let config = FederationConfig {
        route,
        shard_threads,
        migration_factor: Some(2),
        ..FederationConfig::default()
    };
    run_federation(&workload, specs, &config)
}

fn assert_bit_identical(a: &FederationResult, b: &FederationResult) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.epochs, b.epochs);
    prop_assert_eq!(a.events, b.events);
    prop_assert_eq!(a.remote_routes, b.remote_routes);
    prop_assert_eq!(a.migrations, b.migrations);
    prop_assert_eq!(
        a.federated.sldwa.to_bits(),
        b.federated.sldwa.to_bits(),
        "federated SLDwA diverged"
    );
    for (x, y) in a.clusters.iter().zip(&b.clusters) {
        prop_assert_eq!(&x.completed, &y.completed);
        prop_assert_eq!(&x.faults, &y.faults);
        prop_assert_eq!(
            x.result.metrics.sldwa.to_bits(),
            y.result.metrics.sldwa.to_bits()
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// One-cluster federation ≡ the chaos driver where ties are the rule
    /// (`common::collisions`: every instant on a 100 s grid), for sorted
    /// and unsorted streams. The shard feeds its requests and outages
    /// through the same cursors as the driver while the router injects
    /// the arrivals, and an epoch ends `Δ` after its first event: with
    /// `Δ` = 30 s the horizon falls before the next stream event, with
    /// 100 s exactly on it (the horizon is exclusive), with 250 s two
    /// instants past it.
    #[test]
    fn one_cluster_federation_matches_simulate_chaos_at_any_epoch_width(
        sorted in common::collisions(false),
        unsorted in common::collisions(true),
    ) {
        for c in [sorted, unsorted] {
            let mut scheduler = c.spec.build();
            let plain = simulate_chaos(
                &c.set,
                &mut *scheduler,
                &c.requests,
                AdmissionConfig::default(),
                &c.faults,
                Tracer::disabled(),
            );
            for delta_secs in [30, 100, 250] {
                let mut spec = ClusterSpec::new(c.set.machine_size, c.spec.clone());
                spec.requests = c.requests.clone();
                spec.faults = c.faults.clone();
                let config = FederationConfig {
                    link: LinkModel::Constant {
                        latency: SimDuration::from_secs(delta_secs),
                    },
                    ..FederationConfig::default()
                };
                let fed = run_federation(&MultiClusterWorkload::single(&c.set), vec![spec], &config);
                common::assert_same_run(&fed.clusters[0], &plain);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The threaded epoch executor is bit-identical to the sequential
    /// reference for worker counts {2, 8}, every route policy, arbitrary
    /// workloads and fault plans.
    #[test]
    fn parallel_executor_matches_sequential_reference(
        input in arbitrary_federation(3),
        seed in 0u64..1_000,
    ) {
        for route in [
            RoutePolicy::LeastLoaded,
            RoutePolicy::LocalityAffine,
            RoutePolicy::RandomSeeded { seed },
        ] {
            let reference = run_input(&input, 1, route);
            for threads in [2, 8] {
                let parallel = run_input(&input, threads, route);
                assert_bit_identical(&reference, &parallel)?;
            }
        }
    }

    /// Every submitted job completes exactly once somewhere in the
    /// federation (or is counted lost), under routing and migration.
    #[test]
    fn jobs_are_conserved_across_migrations(
        input in arbitrary_federation(2),
    ) {
        let total: usize = input.sets.iter().map(JobSet::len).sum();
        let fed = run_input(&input, 1, RoutePolicy::LocalityAffine);
        let mut seen = vec![0u32; total];
        for cluster in &fed.clusters {
            for done in &cluster.completed {
                seen[done.job.id.0 as usize] += 1;
            }
        }
        let lost: u64 = fed.reports.iter().map(|r| r.lost).sum();
        let completed: usize = seen.iter().map(|&n| n as usize).sum();
        prop_assert_eq!(completed as u64 + lost, total as u64, "jobs leaked");
        for (id, &n) in seen.iter().enumerate() {
            prop_assert!(n <= 1, "job {id} completed {n} times");
        }
        let moved_in: u64 = fed.reports.iter().map(|r| r.migrated_in).sum();
        let moved_out: u64 = fed.reports.iter().map(|r| r.migrated_out).sum();
        prop_assert_eq!(moved_in, fed.migrations);
        prop_assert_eq!(moved_out, fed.migrations);
        prop_assert_eq!(fed.routed, total as u64);
    }
}
