//! The four batch workloads: inputs from a seed, one pass, its checks.

use crate::digest::Digest;
use crate::hostspeed::{self, Section};
use crate::probe::{self, Probe, SpanTotal};
use dynp_core::{DeciderKind, DynPConfig, SelfTuningScheduler};
use dynp_des::SimDuration;
use dynp_obs::{TraceLevel, TraceSnapshot, Tracer};
use dynp_rms::{AdmissionConfig, Policy};
use dynp_sim::{
    run_federation, simulate_chaos, ClusterSpec, FederationConfig, LinkModel, RoutePolicy,
    SchedulerSpec,
};
use dynp_workload::{
    traces, transform, FaultModel, FaultPlan, JobSet, MultiClusterWorkload, ReservationModel,
    ReservationRequest, TraceModel,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// The batch workloads, by their `--workload` names.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// 4 traces × 10 000 jobs × factor 0.8 × two deciders.
    PaperGrid,
    /// One 5 000-job burst: queue depth in the thousands.
    DeepQueue,
    /// Reservations, node outages and job crashes at a shallow queue.
    Chaos,
    /// Four clusters behind a router with migration.
    Federation,
}

impl Kind {
    /// The `--workload` spelling.
    pub fn name(self) -> &'static str {
        match self {
            Kind::PaperGrid => "paper_grid",
            Kind::DeepQueue => "deep_queue",
            Kind::Chaos => "chaos",
            Kind::Federation => "federation",
        }
    }
}

/// How the seed enters a job set: every job set is the workload's
/// base-seed set in which, under `--seed`, one pair of neighbouring jobs
/// in this many trades places (each keeps its submission time and takes
/// the other's width, estimate and run time) — about ten pairs in a
/// 10 000-job set.
///
/// Fully independent 10 000-job sets differ in pass time by ±10 % for the
/// whole paper grid and by a factor of three for single cells — queue
/// depth is heavy-tailed in the arrival bursts — which no regression
/// bound survives. Trading neighbours keeps the load exactly and the
/// arrival pattern almost, but the schedule diverges at the first traded
/// pair (the digest differs from seed to seed), and how far the pass time
/// moves grows with the number of pairs: ±4 % at one in 64 (±6 % for the
/// federation, where routing and migration carry every difference to all
/// four clusters), ±2 % at one in 1 024.
pub const SWAP_ONE_IN: u64 = 1_024;

/// `n` jobs of `model` at `base_seed`, with neighbouring jobs trading
/// places under `seed`.
pub fn seeded_set(model: &TraceModel, n: usize, base_seed: u64, seed: u64) -> JobSet {
    let base = model.generate(n, base_seed);
    let mut pick = StdRng::seed_from_u64(seed.wrapping_add(base_seed));
    let mut jobs = base.jobs().to_vec();
    let mut i = 0;
    while i + 1 < jobs.len() {
        if pick.gen_range_u64(0, SWAP_ONE_IN) == 0 {
            let (a, b) = (jobs[i], jobs[i + 1]);
            jobs[i] = dynp_workload::Job::new(a.id, a.submit, b.width, b.estimate, b.actual);
            jobs[i + 1] = dynp_workload::Job::new(b.id, b.submit, a.width, a.estimate, a.actual);
            i += 1;
        }
        i += 1;
    }
    JobSet::new(base.name.clone(), base.machine_size, jobs)
}

/// One single-cluster simulation of a pass.
#[derive(Clone)]
pub struct Cell {
    /// What the cell is, for the human-readable report.
    pub label: String,
    /// The job set.
    pub set: JobSet,
    /// Advance-reservation requests (chaos only).
    pub requests: Vec<ReservationRequest>,
    /// Fault trace (chaos only).
    pub faults: FaultPlan,
    /// The dynP decider.
    pub decider: DeciderKind,
}

/// The federation workload's inputs.
pub struct Federated {
    /// One job set per cluster (kept for the cluster specs).
    pub sets: Vec<JobSet>,
    /// The merged global stream.
    pub workload: MultiClusterWorkload,
}

/// Everything one pass reads.
pub struct Inputs {
    /// Which workload this is.
    pub kind: Kind,
    /// Single-cluster cells (empty for the federation).
    pub cells: Vec<Cell>,
    /// Federation inputs, one per variant (the federation only).
    pub federated: Vec<Federated>,
}

impl Inputs {
    /// Input jobs of one pass — the numerator of `jobs_per_s`.
    pub fn jobs(&self) -> usize {
        self.cells.iter().map(|c| c.set.len()).sum::<usize>()
            + self
                .federated
                .iter()
                .map(|f| f.workload.len())
                .sum::<usize>()
    }
}

fn sjf_preferred() -> DeciderKind {
    DeciderKind::Preferred {
        policy: Policy::Sjf,
        threshold: 0.0,
    }
}

/// Builds the inputs of `kind` from `seed`; `scale` divides every job
/// count (1 = the benchmark's size, larger values are for tests).
pub fn build_inputs(kind: Kind, seed: u64, scale: usize) -> Inputs {
    let plain = |label: String, set: JobSet, decider| Cell {
        label,
        set,
        requests: Vec::new(),
        faults: FaultPlan::none(),
        decider,
    };
    let mut inputs = Inputs {
        kind,
        cells: Vec::new(),
        federated: Vec::new(),
    };
    match kind {
        Kind::PaperGrid => {
            for (i, model) in traces::standard_models().iter().enumerate() {
                let set = seeded_set(model, 10_000 / scale, 1_000 + i as u64, seed);
                let set = transform::shrink(&set, 0.8);
                for decider in [DeciderKind::Advanced, sjf_preferred()] {
                    let label = format!("{}@0.8 dynP[{}]", model.name, decider.name());
                    inputs.cells.push(plain(label, set.clone(), decider));
                }
            }
        }
        Kind::DeepQueue => {
            let set = seeded_set(&traces::kth(), 5_000 / scale, 2_000, seed);
            let set = transform::shrink(&set, 0.005);
            inputs
                .cells
                .push(plain("KTH@0.005 burst".into(), set, DeciderKind::Advanced));
        }
        Kind::Chaos => {
            let set = seeded_set(&traces::kth(), 10_000 / scale, 3_000, seed);
            let set = transform::shrink(&set, 0.8);
            // The reservation requests and the fault trace (92 000 node
            // outages, ~750 crashing or overrunning jobs) come from the
            // base seed: drawn afresh they move the event count, and with
            // it the pass time, by several percent. `seed` enters through
            // the job set alone, as everywhere else.
            let requests = ReservationModel::typical(0.15).generate(&set, 3_000);
            let faults = FaultModel::typical(20_000.0, 3_600.0, 0.05).generate(&set, 3_000);
            inputs.cells.push(Cell {
                label: "KTH@0.8 res=0.15 mtbf=20000s".into(),
                set,
                requests,
                faults,
                decider: DeciderKind::Advanced,
            });
        }
        Kind::Federation => {
            for variant in 0..FEDERATION_VARIANTS {
                let sets: Vec<JobSet> = (0..4)
                    .map(|c| {
                        let base_seed = 4_000 + 16 * variant + c;
                        seeded_set(&traces::kth(), 2_500 / scale, base_seed, seed)
                    })
                    .collect();
                let workload = MultiClusterWorkload::merge("KTH×4", &sets);
                inputs.federated.push(Federated { sets, workload });
            }
        }
    }
    inputs
}

/// The federation's cluster specs (one tracer per cluster) and executor
/// settings.
fn federation_setup(
    fed: &Federated,
    shard_threads: usize,
    tracers: &[Tracer],
) -> (Vec<ClusterSpec>, FederationConfig) {
    let specs = fed
        .sets
        .iter()
        .zip(tracers)
        .map(|(set, tracer)| {
            let mut spec =
                ClusterSpec::new(set.machine_size, SchedulerSpec::dynp(DeciderKind::Advanced));
            spec.planner_threads = 1;
            spec.tracer = tracer.clone();
            spec
        })
        .collect();
    let config = FederationConfig {
        route: RoutePolicy::LeastLoaded,
        shard_threads,
        migration_factor: Some(3),
        // A wide link coarsens the conservative epochs (Δ = the link's
        // minimum latency) so an epoch carries more than a handful of
        // events.
        link: LinkModel::Constant {
            latency: SimDuration::from_secs(600),
        },
    };
    (specs, config)
}

/// Independent federations per pass, each from base seeds of its own.
/// One 4 × 2 500-job federation is 20 ms of work and its run time moves
/// by several percent with every traded pair (routing and migration
/// carry a one-job difference to all four clusters); sixteen make a pass
/// long against its two host-speed samples and average the seed's share
/// down fourfold.
pub const FEDERATION_VARIANTS: u64 = 16;

/// How a pass is instrumented.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Nothing but the replan counter and the host-speed samples.
    Untraced,
    /// Untraced, with the probe timing every `replan` call.
    Timed,
    /// `Tracer` at `TraceLevel::Spans`.
    Traced,
    /// Untraced, with dynP in from-scratch reference mode (the oracle).
    Reference,
}

/// Ring capacity of a traced cell: the chaos cell records ~1.6 M records
/// (seven per event), four times the tracer's default ring.
const TRACE_CAPACITY: usize = 1 << 22;

/// Records kept for the Chrome trace file: the whole chaos trace would
/// be a 250 MB file.
const TRACE_FILE_RECORDS: usize = 100_000;

/// What one pass measured and computed.
#[derive(Default)]
pub struct Pass {
    /// Its duration, with host-speed samples.
    pub section: Section,
    /// Digest of everything the pass computed.
    pub digest: Digest,
    /// `completed + lost == submitted` held in every cell.
    pub conserved: bool,
    /// Simulation events processed.
    pub events: u64,
    /// `replan` calls.
    pub replans: u64,
    /// Policy switches.
    pub switches: u64,
    /// Largest waiting-queue depth of any cell.
    pub peak_queue: usize,
    /// Event-weighted mean of the cells' time-weighted mean queue depth.
    pub mean_queue: f64,
    /// Wall nanoseconds inside `replan` (timed passes; for the
    /// federation, traced passes).
    pub replan_ns: u64,
    /// Federation epochs (the federation only).
    pub epochs: u64,
    /// Per-span totals (traced passes only).
    pub spans: BTreeMap<&'static str, SpanTotal>,
    /// Trace records lost to ring overflow (traced passes only).
    pub dropped: u64,
    /// Trace records kept (traced passes only).
    pub records: u64,
    /// The tail of the last traced cell's records, for the Chrome trace
    /// file.
    pub last_trace: Option<TraceSnapshot>,
}

fn run_cell(cell: &Cell, mode: Mode, pass: &mut Pass) {
    // One planner thread, like the federation's one shard thread: the
    // end-to-end numbers must not depend on how many CPUs the host has
    // (and the host-speed correction sees this thread only). The plan
    // fan-out is measured beside it as a layer ratio.
    let mut config = DynPConfig::paper(cell.decider);
    config.planner_threads = 1;
    let mut scheduler = SelfTuningScheduler::new(config);
    scheduler.set_reference_mode(mode == Mode::Reference);
    let tracer = match mode {
        Mode::Traced => Tracer::with_capacity(TraceLevel::Spans, TRACE_CAPACITY),
        _ => Tracer::disabled(),
    };
    let mut probe = Probe::new(&mut scheduler, mode == Mode::Timed);
    if mode == Mode::Traced {
        probe = probe.without_in_pass_samples();
    }
    let (run, section) = probe.section(|probe| {
        simulate_chaos(
            &cell.set,
            probe,
            &cell.requests,
            AdmissionConfig::default(),
            &cell.faults,
            tracer.clone(),
        )
    });
    pass.replans += probe.replans;
    pass.replan_ns += probe.replan_ns;
    pass.section.absorb(&section);
    pass.conserved &= run.completed.len() as u64 + run.faults.lost == cell.set.len() as u64;
    pass.digest.run(&run, Some(&scheduler.stats));
    pass.mean_queue += run.observations.mean_queue * run.result.events as f64;
    pass.events += run.result.events;
    pass.switches += scheduler.stats.switches;
    pass.peak_queue = pass.peak_queue.max(run.observations.peak_queue);
    if mode == Mode::Traced {
        pass.absorb_trace(tracer.snapshot());
    }
}

impl Pass {
    /// Folds one tracer's records into the per-span totals.
    fn absorb_trace(&mut self, mut snapshot: TraceSnapshot) {
        for (name, total) in probe::self_times(&snapshot.records) {
            let t = self.spans.entry(name).or_default();
            t.count += total.count;
            t.total_ns += total.total_ns;
            t.self_ns += total.self_ns;
        }
        self.dropped += snapshot.dropped;
        self.records += snapshot.records.len() as u64;
        let beyond = snapshot.records.len().saturating_sub(TRACE_FILE_RECORDS);
        snapshot.records.drain(..beyond);
        self.last_trace = Some(snapshot);
    }
}

/// One federation run, folded into `pass`. The executor builds its own
/// schedulers, so there is no place for a [`Probe`]: a traced pass gives
/// every cluster a tracer and takes replan time from its `replan` spans.
pub fn run_federation_into(fed: &Federated, mode: Mode, shard_threads: usize, pass: &mut Pass) {
    let tracers: Vec<Tracer> = fed
        .sets
        .iter()
        .map(|_| match mode {
            Mode::Traced => Tracer::enabled(TraceLevel::Spans),
            _ => Tracer::disabled(),
        })
        .collect();
    let (specs, config) = federation_setup(fed, shard_threads, &tracers);
    let (result, section) = hostspeed::bracketed(|| run_federation(&fed.workload, specs, &config));
    if mode == Mode::Traced {
        let before = pass.spans.get("replan").map_or(0, |t| t.total_ns);
        for tracer in &tracers {
            pass.absorb_trace(tracer.snapshot());
        }
        pass.replan_ns += pass.spans.get("replan").map_or(0, |t| t.total_ns) - before;
    }
    pass.section.absorb(&section);
    pass.events += result.events;
    pass.epochs += result.epochs;
    let mut done = 0u64;
    for run in &result.clusters {
        pass.digest.run(run, None);
        done += run.completed.len() as u64 + run.faults.lost;
        pass.peak_queue = pass.peak_queue.max(run.observations.peak_queue);
        pass.mean_queue += run.observations.mean_queue * run.result.events as f64;
    }
    pass.digest.word(result.federated.sldwa.to_bits());
    pass.digest.word(result.epochs);
    pass.digest.word(result.migrations);
    pass.digest.word(result.remote_routes);
    pass.conserved &= done == fed.workload.len() as u64;
}

/// Runs every cell of `inputs` once.
pub fn run_pass(inputs: &Inputs, mode: Mode) -> Pass {
    run_pass_on(inputs, mode, 1)
}

/// [`run_pass`] with the federation executor on `shard_threads` threads.
pub fn run_pass_on(inputs: &Inputs, mode: Mode, shard_threads: usize) -> Pass {
    let mut pass = Pass {
        conserved: true,
        ..Pass::default()
    };
    for cell in &inputs.cells {
        run_cell(cell, mode, &mut pass);
    }
    for fed in &inputs.federated {
        run_federation_into(fed, mode, shard_threads, &mut pass);
    }
    pass.mean_queue /= (pass.events as f64).max(1.0);
    pass
}

/// The warm-up pass of set-up: the first 400 jobs of every cell, enough
/// to page the code in and grow the allocator's arenas.
pub fn warm_up(inputs: &Inputs) {
    let small = Inputs {
        kind: inputs.kind,
        cells: inputs
            .cells
            .iter()
            .map(|c| Cell {
                label: c.label.clone(),
                set: transform::truncate(&c.set, 400),
                requests: c.requests.clone(),
                faults: c.faults.clone(),
                decider: c.decider,
            })
            .collect(),
        federated: inputs
            .federated
            .first()
            .map(|f| {
                let sets: Vec<JobSet> =
                    f.sets.iter().map(|s| transform::truncate(s, 400)).collect();
                let workload = MultiClusterWorkload::merge("warm-up", &sets);
                Federated { sets, workload }
            })
            .into_iter()
            .collect(),
    };
    std::hint::black_box(run_pass(&small, Mode::Untraced).events);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_a_pure_function_of_the_seed() {
        // (jobs, which of them fault) of every cell and federation.
        let shape = |i: &Inputs| {
            let jobs: Vec<dynp_workload::Job> = i
                .cells
                .iter()
                .flat_map(|c| c.set.jobs().to_vec())
                .chain(i.federated.iter().flat_map(|f| f.workload.jobs().to_vec()))
                .collect();
            let faults: Vec<_> = i
                .cells
                .iter()
                .map(|c| c.faults.job_faults.clone())
                .collect();
            (jobs, faults)
        };
        for (kind, scale) in [
            (Kind::PaperGrid, 1),
            (Kind::Chaos, 10),
            (Kind::Federation, 1),
        ] {
            let a = build_inputs(kind, 7, scale);
            let b = build_inputs(kind, 7, scale);
            let c = build_inputs(kind, 8, scale);
            assert_eq!(shape(&a), shape(&b), "{kind:?}");
            assert_ne!(shape(&a), shape(&c), "{kind:?}");
            assert_eq!(a.jobs(), shape(&a).0.len());
        }
    }

    #[test]
    fn the_seed_trades_neighbours_and_keeps_the_load() {
        let model = traces::kth();
        let a = seeded_set(&model, 40_000, 5, 1);
        let b = seeded_set(&model, 40_000, 5, 2);
        let changed = a
            .jobs()
            .iter()
            .zip(b.jobs())
            .filter(|(x, y)| x != y)
            .count();
        // Each seed trades ~39 pairs of 40 000 jobs, two jobs a pair.
        assert!((60..300).contains(&changed), "{changed}");
        let submits = |s: &JobSet| s.jobs().iter().map(|j| j.submit).collect::<Vec<_>>();
        assert_eq!(submits(&a), submits(&b));
        let sizes = |s: &JobSet| {
            let mut v: Vec<_> = s
                .jobs()
                .iter()
                .map(|j| (j.width, j.estimate, j.actual))
                .collect();
            v.sort();
            v
        };
        assert_eq!(sizes(&a), sizes(&b));
    }

    #[test]
    fn passes_repeat_exactly_and_tracing_does_not_change_them() {
        let inputs = build_inputs(Kind::Chaos, 3, 25);
        let a = run_pass(&inputs, Mode::Untraced);
        let b = run_pass(&inputs, Mode::Untraced);
        let t = run_pass(&inputs, Mode::Traced);
        let r = run_pass(&inputs, Mode::Reference);
        assert!(a.conserved && t.conserved && r.conserved);
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.digest, t.digest);
        assert_eq!(a.digest, r.digest);
        assert_eq!(
            (a.events, a.replans, a.switches),
            (t.events, t.replans, t.switches)
        );
        assert_eq!(t.dropped, 0);
        assert!(t.spans["event"].count >= t.events);
        assert!(t.spans.contains_key("admission"));
    }

    #[test]
    fn replan_plus_driver_residual_is_the_wall() {
        // The probe's clock is read inside the section's, so replan time
        // can only fall short of the wall — by the driver's share.
        let inputs = build_inputs(Kind::PaperGrid, 3, 25);
        let t = run_pass(&inputs, Mode::Timed);
        let wall = t.section.raw_ns;
        let replan = t.replan_ns as f64;
        let residual = wall - replan;
        assert!(residual >= 0.0 && replan > 0.0);
        assert!(((replan + residual) - wall).abs() <= 0.01 * wall);
        // The tracer's view of the same pass: its `replan` spans are the
        // same calls, its `event` spans contain them, and self times
        // plus what lies outside any event add up to the wall.
        let s = run_pass(&inputs, Mode::Traced);
        assert_eq!(s.spans["replan"].count, t.replans);
        assert!(s.spans["replan"].total_ns <= s.spans["event"].total_ns);
        let selfs: u64 = s.spans.values().map(|x| x.self_ns).sum();
        assert_eq!(selfs, s.spans["event"].total_ns);
        assert!(s.spans["event"].total_ns as f64 <= s.section.raw_ns);
    }

    #[test]
    fn federation_threads_agree() {
        let inputs = build_inputs(Kind::Federation, 3, 10);
        let one = run_pass_on(&inputs, Mode::Untraced, 1);
        let two = run_pass_on(&inputs, Mode::Untraced, 2);
        assert!(one.conserved);
        assert_eq!(one.digest, two.digest);
        assert!(one.epochs > 0);
    }
}
