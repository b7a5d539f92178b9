//! Sharded multi-cluster federation: per-shard event loops with
//! deterministic cross-shard routing.
//!
//! A federation runs `N` clusters, each a `ClusterShard` — the full
//! single-cluster driver state (RMS state, scheduler, admission
//! controller, fault handling, reservation book) behind its own event
//! queue. The executor advances all shards in lockstep *epochs* of width
//! `Δ = ` `LinkModel::min_latency`: at each epoch barrier it runs the
//! sequential federation logic (routing arriving jobs to clusters,
//! optionally migrating waiting jobs), then lets every shard process its
//! own events up to the epoch horizon — independently, so shards can run
//! on parallel worker threads.
//!
//! ## Determinism argument
//!
//! The executor is bit-identical for every `shard_threads` value because
//! cross-shard communication happens *only* at the sequential barriers:
//!
//! * every cross-shard effect (a remote arrival, a migrated job) pays a
//!   transfer latency of at least `Δ`, so an event injected at barrier
//!   time `H` lands at or after `H + Δ` — beyond the epoch horizon — and
//!   can never be observed by a shard mid-epoch;
//! * within an epoch each shard touches only its own state, so the
//!   per-shard event sequences are independent of worker count and
//!   scheduling order;
//! * barrier decisions (routing, migration) read shard states that are
//!   identical under any worker count, and are executed on one thread in
//!   cluster order.
//!
//! `shard_threads <= 1` runs the shards in a plain loop on the calling
//! thread — the *sequential reference executor* the property tests use
//! as the oracle for the threaded runs.
//!
//! ## Executor
//!
//! The threaded executor keeps a persistent pool of `shard_threads - 1`
//! scoped workers (plus the calling thread), parked on a barrier between
//! epochs — epochs are often microseconds of work, so spawning threads
//! per epoch would dwarf the simulation itself. Each worker owns a fixed
//! contiguous range of shards behind per-shard mutexes (uncontended by
//! construction: the epoch barriers separate the sequential federation
//! logic from the parallel shard runs). Epochs in which fewer than two
//! shards have events due skip the pool hand-off entirely and run inline
//! on the calling thread — work distribution never changes *what* runs,
//! only *where*, so results stay bit-identical.
//!
//! ## Seeded arrival ranks
//!
//! Arrivals are injected at barriers — after dynamic events from earlier
//! epochs exist — via [`dynp_des::Engine::schedule_seeded`] with the
//! job's dense global id as rank. Reservation requests and outages take
//! the rank ranges after and reach each shard's heap through the same
//! feed as in the single-cluster driver (see `ClusterShard::new`).
//! Seeded ranks sort below every dynamic sequence number at equal
//! instants, so a 1-cluster federation dispatches exactly the sequence
//! of [`crate::simulate_chaos`] and is bit-identical to it.

use crate::runner::DetailedRun;
use crate::shard::{ClusterShard, Event, ShardCore};
use crate::spec::SchedulerSpec;
use dynp_des::{SimDuration, SimTime};
use dynp_metrics::{ClusterReport, FederatedMetrics};
use dynp_obs::{TraceEvent, Tracer};
use dynp_rms::AdmissionConfig;
use dynp_workload::{FaultPlan, Job, MultiClusterWorkload, ReservationRequest};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering as MemOrdering};
use std::sync::{Barrier, Mutex, MutexGuard};

/// The cost model of the inter-cluster links (in the spirit of simulation
/// frameworks that model constant and shared-bandwidth networks).
///
/// The minimum latency doubles as the epoch width `Δ` of the conservative
/// executor, so it must be positive.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum LinkModel {
    /// Every transfer takes the same latency, regardless of size or
    /// contention.
    Constant {
        /// One-way transfer latency (must be positive).
        latency: SimDuration,
    },
    /// Transfers share each source's uplink: the `k`-th transfer leaving
    /// one cluster within a single barrier takes
    /// `latency + width·k / width_per_ms` milliseconds — the more a
    /// cluster ships at once, the slower each shipment gets.
    SharedBandwidth {
        /// Base one-way latency (must be positive).
        latency: SimDuration,
        /// Uplink bandwidth in job-width units per millisecond.
        width_per_ms: u64,
    },
}

impl LinkModel {
    /// The smallest possible transfer time — the epoch width `Δ` of the
    /// conservative executor.
    ///
    /// # Panics
    /// Panics on a zero latency: a zero-width epoch cannot make progress.
    pub(crate) fn min_latency(&self) -> SimDuration {
        let latency = match *self {
            LinkModel::Constant { latency } => latency,
            LinkModel::SharedBandwidth { latency, .. } => latency,
        };
        assert!(
            !latency.is_zero(),
            "link latency must be positive (it is the epoch width)"
        );
        latency
    }

    /// Transfer time of a job of `width` that is the `nth` transfer (1-
    /// based) leaving its source cluster within the current barrier.
    fn transfer_time(&self, width: u32, nth: u64) -> SimDuration {
        match *self {
            LinkModel::Constant { latency } => latency,
            LinkModel::SharedBandwidth {
                latency,
                width_per_ms,
            } => {
                let extra = (width as u64).saturating_mul(nth) / width_per_ms.max(1);
                latency + SimDuration::from_millis(extra)
            }
        }
    }
}

impl Default for LinkModel {
    fn default() -> Self {
        LinkModel::Constant {
            latency: SimDuration::from_secs(30),
        }
    }
}

/// How the federation routes an arriving job to a cluster. All policies
/// only consider clusters whose machine is wide enough for the job, and
/// all are fully deterministic (the random policy is a seeded PRNG
/// advanced once per routed job, in global arrival order).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum RoutePolicy {
    /// Send the job to the cluster with the smallest backlog relative to
    /// its current usable capacity (ties break to the lowest cluster
    /// index).
    LeastLoaded,
    /// Keep the job at its submission cluster unless that cluster's
    /// relative backlog exceeds twice the least-loaded cluster's; then
    /// fall through to least-loaded.
    LocalityAffine,
    /// Uniform choice among the eligible clusters from a seeded
    /// xorshift64 stream.
    RandomSeeded {
        /// PRNG seed (0 is replaced by a fixed non-zero constant).
        seed: u64,
    },
}

impl RoutePolicy {
    /// Parses a `--route-policy` argument: `least-loaded`, `locality`,
    /// `random` or `random:SEED`.
    pub fn parse(s: &str) -> Option<RoutePolicy> {
        match s {
            "least-loaded" => Some(RoutePolicy::LeastLoaded),
            "locality" => Some(RoutePolicy::LocalityAffine),
            "random" => Some(RoutePolicy::RandomSeeded { seed: 1 }),
            _ => {
                let seed = s.strip_prefix("random:")?.parse().ok()?;
                Some(RoutePolicy::RandomSeeded { seed })
            }
        }
    }

    /// Display name (round-trips through [`RoutePolicy::parse`]).
    pub fn name(&self) -> String {
        match self {
            RoutePolicy::LeastLoaded => "least-loaded".to_string(),
            RoutePolicy::LocalityAffine => "locality".to_string(),
            RoutePolicy::RandomSeeded { seed } => format!("random:{seed}"),
        }
    }
}

/// One cluster of a federation: its machine, scheduler recipe and
/// exogenous streams.
///
/// Reservation request indices and fault-plan *job* ids are in the
/// **global** dense id space of the [`MultiClusterWorkload`] — a fault
/// plan entry fires on whichever cluster the job runs its first attempt
/// on, so sharing one `job_faults` list across all clusters makes faults
/// follow the job through routing and migration.
pub struct ClusterSpec {
    /// Number of processors of this cluster.
    pub machine_size: u32,
    /// Scheduler recipe (instantiated once per run).
    pub scheduler: SchedulerSpec,
    /// Plan fan-out threads for dynP schedulers (default 1).
    pub planner_threads: usize,
    /// Advance-reservation requests submitted at this cluster.
    pub requests: Vec<ReservationRequest>,
    /// Fault trace of this cluster (node outages are local node indices).
    pub faults: FaultPlan,
    /// Admission-control configuration.
    pub admission: AdmissionConfig,
    /// Observability tracer for this cluster (each shard records into its
    /// own ring).
    pub tracer: Tracer,
}

impl ClusterSpec {
    /// A cluster with no reservation or fault traffic and tracing off.
    pub fn new(machine_size: u32, scheduler: SchedulerSpec) -> ClusterSpec {
        ClusterSpec {
            machine_size,
            scheduler,
            planner_threads: 1,
            requests: Vec::new(),
            faults: FaultPlan::none(),
            admission: AdmissionConfig::default(),
            tracer: Tracer::disabled(),
        }
    }
}

/// Federation-level knobs.
#[derive(Clone, Copy, Debug)]
pub struct FederationConfig {
    /// Routing policy for arriving jobs.
    pub route: RoutePolicy,
    /// Inter-cluster link cost model (its minimum latency is the epoch
    /// width).
    pub link: LinkModel,
    /// Worker threads the per-epoch shard runs fan out over (`<= 1` =
    /// the sequential reference executor). Results are bit-identical for
    /// every value.
    pub shard_threads: usize,
    /// When set, at each barrier one never-started waiting job migrates
    /// from the most- to the least-loaded cluster if the relative backlog
    /// ratio exceeds this factor. `None` disables migration.
    pub migration_factor: Option<u64>,
}

impl Default for FederationConfig {
    fn default() -> Self {
        FederationConfig {
            route: RoutePolicy::LeastLoaded,
            link: LinkModel::default(),
            shard_threads: 1,
            migration_factor: None,
        }
    }
}

/// The outcome of a federation run.
pub struct FederationResult {
    /// Per-cluster detailed runs, by cluster index.
    pub clusters: Vec<DetailedRun>,
    /// Per-cluster metric/traffic reports, by cluster index.
    pub reports: Vec<ClusterReport>,
    /// Federation-wide aggregates.
    pub federated: FederatedMetrics,
    /// Epoch barriers executed.
    pub epochs: u64,
    /// Total simulation events processed across all shards.
    pub events: u64,
    /// Jobs routed (every job, local or remote).
    pub routed: u64,
    /// Jobs routed to a cluster other than their submission cluster.
    pub remote_routes: u64,
    /// Waiting-job migrations performed.
    pub migrations: u64,
    /// Total job width shipped across links (remote routes + migrations).
    pub transferred_width: u64,
}

/// `(backlog, usable capacity)` of one cluster, the unit the routing
/// comparisons work on. Backlog is integer work: `Σ width × estimate_ms`
/// over waiting jobs plus `Σ width × remaining_estimate_ms` over running
/// jobs — u128 so cross-multiplied comparisons cannot overflow.
type Load = (u128, u32);

/// Compares relative loads `a.0/a.1 ? b.0/b.1` by cross-multiplication —
/// exact integer math, no float rounding. A cluster with zero usable
/// capacity is more loaded than any cluster with capacity.
fn rel_load_cmp(a: Load, b: Load) -> Ordering {
    match (a.1, b.1) {
        (0, 0) => a.0.cmp(&b.0),
        (0, _) => Ordering::Greater,
        (_, 0) => Ordering::Less,
        (ca, cb) => (a.0 * cb as u128).cmp(&(b.0 * ca as u128)),
    }
}

/// The backlog half of [`Load`] for one shard at instant `at`.
fn backlog(core: &ShardCore, at: SimTime) -> u128 {
    let waiting: u128 = core
        .state
        .waiting()
        .iter()
        .map(|j| j.width as u128 * j.estimate.as_millis() as u128)
        .sum();
    let running: u128 = core
        .state
        .running()
        .iter()
        .map(|r| r.job.width as u128 * (r.estimated_end() - at).as_millis() as u128)
        .sum();
    waiting + running
}

/// xorshift64 step — the deterministic stream behind
/// [`RoutePolicy::RandomSeeded`].
fn xorshift64(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// The sequential routing decision state (PRNG stream position).
struct Router {
    policy: RoutePolicy,
    rng: u64,
}

impl Router {
    fn new(policy: RoutePolicy) -> Router {
        let rng = match policy {
            // A zero xorshift state is a fixed point; substitute a
            // non-zero constant so `random:0` still mixes.
            RoutePolicy::RandomSeeded { seed: 0 } => 0x9E37_79B9_7F4A_7C15,
            RoutePolicy::RandomSeeded { seed } => seed,
            _ => 0,
        };
        Router { policy, rng }
    }

    /// Picks the destination cluster for `job`. `loads` is indexed by
    /// cluster; only clusters whose machine fits the job are eligible
    /// (the origin always does, so the eligible set is never empty).
    fn pick(&mut self, job: &Job, origin: u32, loads: &[Load], machine_sizes: &[u32]) -> u32 {
        let eligible: Vec<u32> = (0..machine_sizes.len() as u32)
            .filter(|&c| machine_sizes[c as usize] >= job.width)
            .collect();
        debug_assert!(eligible.contains(&origin), "origin cannot fit its own job");
        let least = *eligible
            .iter()
            .reduce(|best, c| {
                if rel_load_cmp(loads[*c as usize], loads[*best as usize]) == Ordering::Less {
                    c
                } else {
                    best
                }
            })
            .expect("eligible set is never empty");
        match self.policy {
            RoutePolicy::LeastLoaded => least,
            RoutePolicy::LocalityAffine => {
                let (lo, co) = loads[origin as usize];
                let (lb, cb) = loads[least as usize];
                // Stay home unless origin's relative backlog exceeds
                // twice the least-loaded cluster's: lo/co > 2·lb/cb.
                let overloaded = match (co, cb) {
                    (0, _) => true,
                    (_, 0) => false,
                    (co, cb) => lo * cb as u128 > 2 * lb * co as u128,
                };
                if overloaded {
                    least
                } else {
                    origin
                }
            }
            RoutePolicy::RandomSeeded { .. } => {
                let r = xorshift64(&mut self.rng);
                eligible[(r % eligible.len() as u64) as usize]
            }
        }
    }
}

/// Runs a federation of `specs.len()` clusters over the merged
/// `workload` and returns per-cluster and federation-wide results.
///
/// The run is deterministic and bit-identical for every
/// `config.shard_threads` value; with one cluster it is bit-identical to
/// [`crate::simulate_chaos`] on the same inputs.
///
/// # Panics
/// Panics when `specs` doesn't match the workload's cluster count or
/// machine sizes, and on global job-conservation violations (every job
/// must end completed or lost on exactly one cluster).
pub fn run_federation(
    workload: &MultiClusterWorkload,
    specs: Vec<ClusterSpec>,
    config: &FederationConfig,
) -> FederationResult {
    let n = specs.len();
    assert_eq!(
        n,
        workload.clusters(),
        "one ClusterSpec per workload cluster"
    );
    for (c, spec) in specs.iter().enumerate() {
        assert_eq!(
            spec.machine_size,
            workload.machine_sizes()[c],
            "cluster {c} machine size disagrees with the workload"
        );
    }
    let jobs = workload.jobs();
    let machine_sizes: Vec<u32> = workload.machine_sizes().to_vec();
    let delta = config.link.min_latency();

    // Seeded FIFO ranks: arrivals take 0..n_jobs (their global ids),
    // then each cluster's reservation requests, then each cluster's
    // outages (two ranks per outage) — the same relative order as in the
    // single-cluster driver. The last shard's feed checks that the total
    // fits the seeded rank space.
    let n_jobs = jobs.len() as u64;
    let total_requests: u64 = specs.iter().map(|s| s.requests.len() as u64).sum();

    // Observation clocks start at the earliest exogenous instant of the
    // whole federation (matches the single-cluster driver's t0 when
    // there is one cluster).
    let t0 = specs
        .iter()
        .flat_map(|s| {
            let requests = s.requests.iter().map(|r| r.submit);
            let outages = s.faults.outages.iter().map(|o| o.down_at);
            requests.chain(outages)
        })
        .fold(workload.first_submit(), |a, b| a.min(b));

    let mut shards: Vec<ClusterShard> = Vec::with_capacity(n);
    let mut request_base = n_jobs;
    let mut outage_base = n_jobs + total_requests;
    for (c, spec) in specs.into_iter().enumerate() {
        let core = ShardCore::new(
            spec.machine_size,
            spec.admission,
            jobs.len(),
            spec.faults.retry,
            t0,
            spec.tracer,
            c as u32,
        );
        let scheduler = spec.scheduler.build_with_threads(spec.planner_threads);
        let next_request_base = request_base + spec.requests.len() as u64;
        let next_outage_base = outage_base + 2 * spec.faults.outages.len() as u64;
        shards.push(ClusterShard::new(
            core,
            scheduler,
            spec.requests,
            spec.faults,
            request_base,
            outage_base,
        ));
        request_base = next_request_base;
        outage_base = next_outage_base;
    }

    let mut router = Router::new(config.route);
    let mut next = 0usize; // next unrouted job, in global arrival order
    let mut epochs = 0u64;
    let mut routed = 0u64;
    let mut remote_routes = 0u64;
    let mut migrations = 0u64;
    let mut transferred_width = 0u64;
    let mut routed_in = vec![0u64; n];
    let mut remote_in = vec![0u64; n];

    // The persistent epoch pool (see the module docs): shards live
    // behind per-shard mutexes so the parked workers can share them with
    // the sequential barrier logic; the epoch protocol keeps every lock
    // uncontended.
    let workers = config.shard_threads.max(1).min(n);
    let cells: Vec<Mutex<ClusterShard>> = shards.into_iter().map(Mutex::new).collect();
    fn lock(cell: &Mutex<ClusterShard>) -> MutexGuard<'_, ClusterShard> {
        cell.lock().expect("shard lock poisoned")
    }
    let horizon_ms = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    let gate = Barrier::new(workers);
    let done = Barrier::new(workers);
    let chunk = n.div_ceil(workers);

    std::thread::scope(|scope| {
        for w in 1..workers {
            let (cells, horizon_ms, stop, gate, done) = (&cells, &horizon_ms, &stop, &gate, &done);
            let range = (w * chunk)..((w + 1) * chunk).min(n);
            scope.spawn(move || loop {
                gate.wait();
                if stop.load(MemOrdering::Acquire) {
                    break;
                }
                let horizon = SimTime::from_millis(horizon_ms.load(MemOrdering::Acquire));
                for c in range.clone() {
                    cells[c]
                        .lock()
                        .expect("shard lock poisoned")
                        .run_epoch(horizon, jobs);
                }
                done.wait();
            });
        }

        loop {
            // The epoch start: the earliest thing that can happen anywhere.
            let mut barrier: Option<SimTime> = None;
            for cell in &cells {
                if let Some(t) = lock(cell).peek_time() {
                    barrier = Some(barrier.map_or(t, |b: SimTime| b.min(t)));
                }
            }
            if let Some(job) = jobs.get(next) {
                barrier = Some(barrier.map_or(job.submit, |t| t.min(job.submit)));
            }
            let Some(barrier) = barrier else { break };
            let horizon = barrier.saturating_add(delta);
            epochs += 1;

            // ---- sequential barrier: routing ----
            // Per-source transfer counters for the shared-bandwidth model;
            // reset every barrier.
            let mut sent = vec![0u64; n];
            if next < jobs.len() && jobs[next].submit < horizon {
                let mut loads: Vec<Load> = cells
                    .iter()
                    .map(|cell| {
                        let s = lock(cell);
                        (backlog(&s.core, barrier), s.core.state.plan_capacity())
                    })
                    .collect();
                while next < jobs.len() && jobs[next].submit < horizon {
                    let job = jobs[next];
                    next += 1;
                    routed += 1;
                    let origin = workload.origin_of(job.id);
                    let target = router.pick(&job, origin, &loads, &machine_sizes);
                    // The routed job becomes backlog of its target, so later
                    // arrivals at the same barrier see it.
                    loads[target as usize].0 +=
                        job.width as u128 * job.estimate.as_millis() as u128;
                    routed_in[target as usize] += 1;
                    if target == origin {
                        lock(&cells[target as usize]).engine.schedule_seeded(
                            job.submit,
                            job.id.0 as u64,
                            Event::Arrive(job.id),
                        );
                    } else {
                        remote_routes += 1;
                        remote_in[target as usize] += 1;
                        transferred_width += job.width as u64;
                        sent[origin as usize] += 1;
                        let cost = config.link.transfer_time(job.width, sent[origin as usize]);
                        lock(&cells[origin as usize]).core.tracer.record(
                            job.submit,
                            TraceEvent::JobRouted {
                                job: job.id.0,
                                from: origin,
                                to: target,
                                transfer_ms: cost.as_millis(),
                            },
                        );
                        lock(&cells[target as usize]).engine.schedule_seeded(
                            job.submit.saturating_add(cost),
                            job.id.0 as u64,
                            Event::Arrive(job.id),
                        );
                    }
                }
            }

            // ---- sequential barrier: migration ----
            if let Some(factor) = config.migration_factor {
                if n > 1 {
                    let loads: Vec<Load> = cells
                        .iter()
                        .map(|cell| {
                            let s = lock(cell);
                            (backlog(&s.core, barrier), s.core.state.plan_capacity())
                        })
                        .collect();
                    let busiest = (0..n)
                        .reduce(|best, c| {
                            if rel_load_cmp(loads[c], loads[best]) == Ordering::Greater {
                                c
                            } else {
                                best
                            }
                        })
                        .expect("at least one cluster");
                    let idlest = (0..n)
                        .reduce(|best, c| {
                            if rel_load_cmp(loads[c], loads[best]) == Ordering::Less {
                                c
                            } else {
                                best
                            }
                        })
                        .expect("at least one cluster");
                    let (lb, cb) = loads[busiest];
                    let (li, ci) = loads[idlest];
                    let imbalanced = busiest != idlest
                        && match (cb, ci) {
                            (0, _) => lb > 0,
                            (_, 0) => false,
                            (cb, ci) => lb * ci as u128 > factor as u128 * li * cb as u128,
                        };
                    if imbalanced {
                        // One never-started waiting job that fits the idle
                        // cluster, oldest first — deterministic pick.
                        let candidate = {
                            let hot = lock(&cells[busiest]);
                            hot.core
                                .state
                                .waiting()
                                .iter()
                                .find(|j| {
                                    hot.core.attempts_of(j.id) == 0
                                        && j.width <= machine_sizes[idlest]
                                })
                                .map(|j| j.id)
                        };
                        if let Some(id) = candidate {
                            let mut hot = lock(&cells[busiest]);
                            let job = hot.core.withdraw_for_migration(id);
                            migrations += 1;
                            transferred_width += job.width as u64;
                            sent[busiest] += 1;
                            let cost = config.link.transfer_time(job.width, sent[busiest]);
                            hot.engine
                                .schedule_at(barrier, Event::Depart(id, idlest as u32));
                            drop(hot);
                            lock(&cells[idlest]).engine.schedule_at(
                                barrier.saturating_add(cost),
                                Event::MigrateIn(id, busiest as u32),
                            );
                        }
                    }
                }
            }

            // ---- parallel epoch: each shard runs its own events ----
            //
            // Most epochs are sparse — one or zero shards actually have an
            // event before the horizon — and handing those to the pool costs
            // two barrier round-trips for nothing. Count the busy shards and
            // only wake the pool when at least two have work; the per-shard
            // event sequence (and thus the result) is identical either way.
            let active = cells
                .iter()
                .filter(|cell| lock(cell).peek_time().is_some_and(|t| t < horizon))
                .count();
            if workers <= 1 || active < 2 {
                for cell in &cells {
                    lock(cell).run_epoch(horizon, jobs);
                }
            } else {
                horizon_ms.store(horizon.as_millis(), MemOrdering::Release);
                gate.wait();
                for cell in cells.iter().take(chunk) {
                    lock(cell).run_epoch(horizon, jobs);
                }
                done.wait();
            }
        }

        // Release the parked helpers before the scope joins them.
        stop.store(true, MemOrdering::Release);
        gate.wait();
    });

    // ---- drain ----
    let mut clusters = Vec::with_capacity(n);
    let mut reports = Vec::with_capacity(n);
    let mut events = 0u64;
    let mut accounted = 0usize;
    for (c, cell) in cells.into_iter().enumerate() {
        let shard = cell.into_inner().expect("shard lock poisoned");
        let ClusterShard {
            engine,
            core,
            scheduler,
            faults,
            ..
        } = shard;
        let migrated_out = core.migrated_out;
        let migrated_in = core.migrated_in;
        let lost = core.fstats.lost;
        let run = core.finish(
            &engine,
            scheduler.name(),
            format!("{}:c{c}", workload.name),
            &faults,
            None,
        );
        events += run.result.events;
        accounted += run.completed.len() + lost as usize;
        reports.push(ClusterReport {
            cluster: c as u32,
            machine_size: machine_sizes[c],
            metrics: run.result.metrics,
            routed_in: routed_in[c],
            remote_in: remote_in[c],
            migrated_out,
            migrated_in,
            lost,
        });
        clusters.push(run);
    }
    assert_eq!(
        accounted,
        jobs.len(),
        "federated job conservation violated: {accounted} accounted of {} jobs",
        jobs.len()
    );
    let federated = FederatedMetrics::combine(&reports);
    FederationResult {
        clusters,
        reports,
        federated,
        epochs,
        events,
        routed,
        remote_routes,
        migrations,
        transferred_width,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::simulate;
    use dynp_core::DeciderKind;
    use dynp_workload::{traces, JobId, JobSet};

    fn dynp_spec(machine: u32) -> ClusterSpec {
        ClusterSpec::new(machine, SchedulerSpec::dynp(DeciderKind::Advanced))
    }

    #[test]
    fn one_cluster_federation_is_bit_identical_to_the_driver() {
        let set = traces::ctc().generate(200, 5);
        let mut scheduler = SchedulerSpec::dynp(DeciderKind::Advanced).build();
        let plain = simulate(&set, &mut *scheduler);
        let workload = MultiClusterWorkload::single(&set);
        let fed = run_federation(
            &workload,
            vec![dynp_spec(set.machine_size)],
            &FederationConfig::default(),
        );
        assert_eq!(fed.clusters.len(), 1);
        let m = &fed.clusters[0].result.metrics;
        assert_eq!(plain.completed, fed.clusters[0].completed);
        assert_eq!(m.sldwa.to_bits(), plain.result.metrics.sldwa.to_bits());
        assert_eq!(
            m.utilization.to_bits(),
            plain.result.metrics.utilization.to_bits()
        );
        assert_eq!(fed.events, plain.result.events);
        assert_eq!(fed.remote_routes, 0);
        assert_eq!(fed.migrations, 0);
        assert_eq!(fed.routed, 200);
        // The federated aggregate of one cluster is that cluster.
        assert_eq!(fed.federated.sldwa.to_bits(), m.sldwa.to_bits());
    }

    fn four_cluster_inputs() -> (MultiClusterWorkload, Vec<JobSet>) {
        let sets: Vec<JobSet> = (0..4u64)
            .map(|c| traces::kth().generate(60, 100 + c))
            .collect();
        (MultiClusterWorkload::merge("kth×4", &sets), sets)
    }

    fn run_with_threads(threads: usize, route: RoutePolicy) -> FederationResult {
        let (workload, sets) = four_cluster_inputs();
        let specs = sets.iter().map(|s| dynp_spec(s.machine_size)).collect();
        let config = FederationConfig {
            route,
            shard_threads: threads,
            migration_factor: Some(2),
            ..FederationConfig::default()
        };
        run_federation(&workload, specs, &config)
    }

    #[test]
    fn threaded_executor_matches_the_sequential_reference() {
        for route in [
            RoutePolicy::LeastLoaded,
            RoutePolicy::LocalityAffine,
            RoutePolicy::RandomSeeded { seed: 42 },
        ] {
            let seq = run_with_threads(1, route);
            let par = run_with_threads(3, route);
            assert_eq!(seq.epochs, par.epochs);
            assert_eq!(seq.events, par.events);
            assert_eq!(seq.migrations, par.migrations);
            for (a, b) in seq.clusters.iter().zip(&par.clusters) {
                assert_eq!(
                    a.result.metrics.sldwa.to_bits(),
                    b.result.metrics.sldwa.to_bits()
                );
                assert_eq!(a.result.events, b.result.events);
                assert_eq!(a.completed.len(), b.completed.len());
            }
            assert_eq!(seq.federated.sldwa.to_bits(), par.federated.sldwa.to_bits());
        }
    }

    #[test]
    fn least_loaded_routing_spreads_a_hot_cluster() {
        // All jobs submitted at cluster 0; least-loaded routing must ship
        // a good share of them to the three idle clusters.
        let hot = traces::kth().generate(120, 7);
        let machine = hot.machine_size;
        let idle = JobSet::new("idle", machine, vec![]);
        let workload = MultiClusterWorkload::merge("hot", &[hot, idle.clone(), idle.clone(), idle]);
        let specs = (0..4).map(|_| dynp_spec(machine)).collect();
        let fed = run_federation(&workload, specs, &FederationConfig::default());
        assert_eq!(fed.routed, 120);
        assert!(
            fed.remote_routes > 0,
            "no job left the hot cluster under least-loaded routing"
        );
        let done: usize = fed.reports.iter().map(|r| r.metrics.jobs).sum();
        assert_eq!(done, 120);
        assert_eq!(fed.federated.remote_routes, fed.remote_routes);
    }

    #[test]
    fn locality_routing_keeps_balanced_clusters_home() {
        let (workload, sets) = four_cluster_inputs();
        let specs = sets.iter().map(|s| dynp_spec(s.machine_size)).collect();
        let config = FederationConfig {
            route: RoutePolicy::LocalityAffine,
            ..FederationConfig::default()
        };
        let fed = run_federation(&workload, specs, &config);
        // Equal per-cluster offered load: most jobs stay at their origin.
        assert!(fed.remote_routes < fed.routed / 2);
    }

    #[test]
    fn migration_relieves_an_imbalanced_federation() {
        // Routing sees identical *estimates* on both clusters, so the
        // burst stays home under locality. Cluster 1's jobs then finish
        // in 10s of their 10 000s estimate, leaving it idle while
        // cluster 0 still holds a serial backlog — an imbalance only
        // the migration path can relieve.
        let estimate = SimDuration::from_secs(10_000);
        let mk = |actual: SimDuration| -> Vec<Job> {
            (0..12)
                .map(|i| Job::new(JobId(i), SimTime::from_secs(i as u64), 8, estimate, actual))
                .collect()
        };
        let slow = JobSet::new("slow", 8, mk(estimate));
        let fast = JobSet::new("fast", 8, mk(SimDuration::from_secs(10)));
        let workload = MultiClusterWorkload::merge("imb", &[slow, fast]);
        let specs = (0..2).map(|_| dynp_spec(8)).collect();
        let config = FederationConfig {
            route: RoutePolicy::LocalityAffine,
            migration_factor: Some(2),
            ..FederationConfig::default()
        };
        let fed = run_federation(&workload, specs, &config);
        assert!(fed.migrations > 0, "imbalance never triggered migration");
        let moved_in: u64 = fed.reports.iter().map(|r| r.migrated_in).sum();
        let moved_out: u64 = fed.reports.iter().map(|r| r.migrated_out).sum();
        assert_eq!(moved_in, fed.migrations);
        assert_eq!(moved_out, fed.migrations);
        assert!(fed.reports[1].migrated_in > 0, "idle cluster took no work");
        let done: usize = fed.reports.iter().map(|r| r.metrics.jobs).sum();
        assert_eq!(done, 24);
    }

    #[test]
    fn shared_bandwidth_link_charges_per_barrier_contention() {
        let link = LinkModel::SharedBandwidth {
            latency: SimDuration::from_secs(10),
            width_per_ms: 2,
        };
        assert_eq!(link.min_latency(), SimDuration::from_secs(10));
        // Width 8, first transfer: 10s + 8·1/2 ms.
        assert_eq!(
            link.transfer_time(8, 1),
            SimDuration::from_millis(10_000 + 4)
        );
        // Third transfer from the same source pays triple the extra.
        assert_eq!(
            link.transfer_time(8, 3),
            SimDuration::from_millis(10_000 + 12)
        );
        let constant = LinkModel::default();
        assert_eq!(constant.transfer_time(64, 9), constant.min_latency());
    }

    #[test]
    #[should_panic(expected = "latency must be positive")]
    fn zero_latency_links_are_rejected() {
        LinkModel::Constant {
            latency: SimDuration::ZERO,
        }
        .min_latency();
    }

    #[test]
    fn route_policy_names_round_trip() {
        for policy in [
            RoutePolicy::LeastLoaded,
            RoutePolicy::LocalityAffine,
            RoutePolicy::RandomSeeded { seed: 7 },
        ] {
            assert_eq!(RoutePolicy::parse(&policy.name()), Some(policy));
        }
        assert_eq!(
            RoutePolicy::parse("random"),
            Some(RoutePolicy::RandomSeeded { seed: 1 })
        );
        assert_eq!(RoutePolicy::parse("bogus"), None);
        assert_eq!(RoutePolicy::parse("random:x"), None);
    }

    #[test]
    fn relative_load_comparison_is_exact() {
        // 10/4 < 11/4, equal ratios tie, capacity 0 is infinitely loaded.
        assert_eq!(rel_load_cmp((10, 4), (11, 4)), Ordering::Less);
        assert_eq!(rel_load_cmp((10, 4), (5, 2)), Ordering::Equal);
        assert_eq!(rel_load_cmp((1, 0), (1_000_000, 1)), Ordering::Greater);
        assert_eq!(rel_load_cmp((0, 0), (0, 0)), Ordering::Equal);
    }
}
