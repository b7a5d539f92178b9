//! Open-loop load generator for the `dynp-serve` daemon.
//!
//! Modeled on berserker-style generators: arrivals are scheduled by the
//! clock, **never** by the service's responses, so a slow daemon cannot
//! throttle its own load (the coordinated-omission trap closed-loop
//! generators fall into). The workload is a Zipfian population of users
//! — a few heavy hitters, a long tail — each submitting jobs from a
//! per-user profile (width, run-time scale, overestimation factor);
//! per-user arrivals are Poisson because the global Poisson stream is
//! thinned by the Zipf pick (superposition), and users churn: after each
//! submission a user departs with probability `--departure` and is
//! replaced by a fresh profile.
//!
//! Workers fan the target rate out (`--rate / --workers` each), one
//! Unix-socket connection each, submit NDJSON without waiting for
//! verdicts, and a per-worker reader measures admission latency (submit
//! → accept/reject roundtrip) into a log-bucketed [`LatencyHistogram`];
//! the per-worker histograms are merged for the report. Latency and
//! rejections are additionally broken down by user group — the Zipf head
//! (user 0) versus the tail — which is how the fairness claim of
//! quota-based overload control is measured: with the daemon's `--quota`
//! set, the head hits `user_quota` backpressure first and tail p99 stays
//! near the uncontended baseline.
//!
//! The daemon is a separate process, started with the `daemon` bin's own
//! flags (machine, scheduler, queue bound, speedup, journal, quota);
//! `--connect SOCK` names its socket. Connections retry with bounded
//! exponential backoff (a restarting daemon is reachable within a few
//! hundred ms), replies carry a per-request timeout (`--timeout-ms`,
//! reported separately from rejections), the machine size comes from a
//! first `status` query and the completion counts from one after each
//! rate, and `--shutdown-after` asks the daemon to drain.
//!
//! The report — sustained throughput, p50/p99/p999 admission latency
//! (overall and per user group), rejection rates by reason, and
//! `speedup = achieved_eps / target_eps` (the open-loop health ratio,
//! ~1.0 on any host that keeps up) — is printed to stdout and written
//! to `--out`.

use dynp_des::SimDuration;
use dynp_metrics::LatencyHistogram;
use dynp_obs::parse::Json;
use dynp_serve::SubmitSpec;
use dynp_sim::cli::Flags;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, Exp};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

const USAGE: &str = "\
usage: loadgen --connect SOCK [--rate R1[,R2,…]] [--duration SECS]
               [--workers N] [--users N] [--zipf S] [--departure P]
               [--seed N] [--out PATH] [--timeout-ms N] [--shutdown-after]

  --connect SOCK      the daemon's Unix socket (required; retries with
                      exponential backoff while it starts)
  --rate R1[,R2,…]    target submissions/sec, one report row per rate
                      (default 100,200)
  --duration SECS     open-loop send window per rate (default 3)
  --workers N         sender threads sharing the rate (default 4)
  --users N           Zipfian user population (default 100)
  --zipf S            Zipf exponent (default 1.1)
  --departure P       per-submission user churn probability (default 0.02)
  --seed N            workload seed (default 24301)
  --out PATH          write the JSON report here
  --timeout-ms N      per-reply timeout in wall ms (default 5000;
                      timeouts are reported separately)
  --shutdown-after    ask the daemon to drain at the end";

struct Args {
    rates: Vec<f64>,
    duration: f64,
    workers: usize,
    users: usize,
    zipf: f64,
    departure: f64,
    seed: u64,
    out: Option<PathBuf>,
    connect: PathBuf,
    timeout_ms: u64,
    shutdown_after: bool,
}

fn parse_args() -> Args {
    let mut connect = None;
    let mut args = Args {
        rates: vec![100.0, 200.0],
        duration: 3.0,
        workers: 4,
        users: 100,
        zipf: 1.1,
        departure: 0.02,
        seed: 24301,
        out: None,
        connect: PathBuf::new(),
        timeout_ms: 5000,
        shutdown_after: false,
    };
    let mut flags = Flags::from_env(USAGE);
    while let Some(flag) = flags.next_flag() {
        match flag.as_str() {
            "--rate" => {
                args.rates = flags
                    .value(&flag)
                    .split(',')
                    .map(|r| flags.positive_of(r, &flag))
                    .collect();
            }
            "--duration" => args.duration = flags.positive(&flag),
            "--workers" => args.workers = flags.positive(&flag),
            "--users" => args.users = flags.positive(&flag),
            "--zipf" => args.zipf = flags.num_in(&flag, 0.0..f64::INFINITY),
            "--departure" => args.departure = flags.num_in(&flag, 0.0..=1.0),
            "--seed" => args.seed = flags.num(&flag),
            "--out" => args.out = Some(PathBuf::from(flags.value(&flag))),
            "--connect" => connect = Some(PathBuf::from(flags.value(&flag))),
            "--timeout-ms" => args.timeout_ms = flags.num(&flag),
            "--shutdown-after" => args.shutdown_after = true,
            other => flags.unknown(other),
        }
    }
    args.connect = connect.unwrap_or_else(|| flags.bail("--connect SOCK is required"));
    args
}

/// Normalized Zipf CDF over ranks `1..=users` with exponent `s`.
fn zipf_cdf(users: usize, s: f64) -> Vec<f64> {
    let mut acc = 0.0;
    let mut cdf: Vec<f64> = (1..=users)
        .map(|k| {
            acc += 1.0 / (k as f64).powf(s);
            acc
        })
        .collect();
    for v in &mut cdf {
        *v /= acc;
    }
    cdf
}

fn pick_user(cdf: &[f64], rng: &mut StdRng) -> u32 {
    let u: f64 = rng.gen();
    cdf.partition_point(|&c| c <= u).min(cdf.len() - 1) as u32
}

/// What a user's jobs look like. Deterministic in (seed, user,
/// generation): a departing user's replacement rolls a fresh profile by
/// bumping the generation.
#[derive(Clone, Copy)]
struct Profile {
    width: u32,
    mean_ms: f64,
    overestimate: f64,
}

fn profile(seed: u64, user: u32, generation: u64, machine: u32) -> Profile {
    let mix = seed ^ ((user as u64) << 24) ^ generation.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut rng = StdRng::seed_from_u64(mix);
    Profile {
        // Powers of two from 1 to 16, capped at the machine.
        width: (1u32 << rng.gen_range_u64(0, 5)).min(machine),
        // Mean run time 30–300 simulated seconds.
        mean_ms: 30_000.0 + rng.gen::<f64>() * 270_000.0,
        // Users over-request by 1.2–3×, like real SWF traces.
        overestimate: 1.2 + rng.gen::<f64>() * 1.8,
    }
}

fn sample_spec(p: Profile, user: u32, rng: &mut StdRng) -> SubmitSpec {
    let exp = Exp::new(1.0 / p.mean_ms).expect("positive rate");
    let actual_ms = exp.sample(rng).clamp(1_000.0, 3_600_000.0) as u64;
    let estimate_ms = (actual_ms as f64 * p.overestimate) as u64;
    SubmitSpec {
        width: p.width,
        estimate: SimDuration::from_millis(estimate_ms),
        actual: SimDuration::from_millis(actual_ms),
        user,
    }
}

/// Everything a sender thread needs to generate its share of the load.
#[derive(Clone)]
struct GenParams {
    seed: u64,
    rate_per_worker: f64,
    duration: f64,
    zipf: Arc<Vec<f64>>,
    departure: f64,
    machine: u32,
}

/// One submission the sender hands its reader: the send instant and the
/// submitting user (for the head/tail breakdown).
struct InFlight {
    sent_at: Instant,
    user: u32,
}

/// Per-user-group tallies: the Zipf head (user 0) is tracked separately
/// from the tail, because fairness-aware overload control is *about*
/// the difference between the two.
#[derive(Default)]
struct GroupStats {
    accepted: u64,
    rejected: u64,
    hist: LatencyHistogram,
}

impl GroupStats {
    fn absorb(&mut self, other: &GroupStats) {
        self.accepted += other.accepted;
        self.rejected += other.rejected;
        self.hist.merge(&other.hist);
    }
}

/// Collector-side tallies for one worker.
#[derive(Default)]
struct WorkerStats {
    accepted: u64,
    rejected_queue_full: u64,
    rejected_shutdown: u64,
    rejected_invalid: u64,
    rejected_user_quota: u64,
    /// Replies that missed the per-request timeout.
    timeouts: u64,
    hist: LatencyHistogram,
    head: GroupStats,
    tail: GroupStats,
}

impl WorkerStats {
    fn absorb(&mut self, other: &WorkerStats) {
        self.accepted += other.accepted;
        self.rejected_queue_full += other.rejected_queue_full;
        self.rejected_shutdown += other.rejected_shutdown;
        self.rejected_invalid += other.rejected_invalid;
        self.rejected_user_quota += other.rejected_user_quota;
        self.timeouts += other.timeouts;
        self.hist.merge(&other.hist);
        self.head.absorb(&other.head);
        self.tail.absorb(&other.tail);
    }

    fn group(&mut self, user: u32) -> &mut GroupStats {
        if user == 0 {
            &mut self.head
        } else {
            &mut self.tail
        }
    }

    /// Records one verdict: latency into the overall and group
    /// histograms, the outcome into the matching counters.
    fn tally(&mut self, user: u32, latency_us: u64, accepted: bool) {
        self.hist.record(latency_us);
        let group = self.group(user);
        group.hist.record(latency_us);
        if accepted {
            group.accepted += 1;
            self.accepted += 1;
        } else {
            group.rejected += 1;
        }
    }
}

/// The open-loop send schedule: sleeps out exponential gaps and calls
/// `submit` once per arrival until the window closes. Returns the number
/// of submissions sent.
fn send_loop(params: &GenParams, worker: usize, mut submit: impl FnMut(SubmitSpec) -> bool) -> u64 {
    let mut rng = StdRng::seed_from_u64(params.seed.wrapping_add(worker as u64 * 0x9E37));
    let inter = Exp::new(params.rate_per_worker).expect("positive rate");
    let mut generations: HashMap<u32, u64> = HashMap::new();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(params.duration);
    let mut next_at = 0.0f64;
    let mut sent = 0u64;
    loop {
        next_at += inter.sample(&mut rng);
        let target = start + Duration::from_secs_f64(next_at);
        if target >= deadline {
            return sent;
        }
        let now = Instant::now();
        if target > now {
            std::thread::sleep(target - now);
        }
        let user = pick_user(&params.zipf, &mut rng);
        let generation = generations.entry(user).or_insert(0);
        let p = profile(params.seed, user, *generation, params.machine);
        if !submit(sample_spec(p, user, &mut rng)) {
            return sent;
        }
        sent += 1;
        if rng.gen_bool(params.departure) {
            *generation += 1;
        }
    }
}

/// One report row: the outcome of one rate step.
struct Row {
    target_eps: f64,
    achieved_eps: f64,
    sent: u64,
    stats: WorkerStats,
    completed: u64,
    lost: u64,
}

impl Row {
    fn render(&self) -> String {
        let s = &self.stats;
        let h = &s.hist;
        format!(
            "{{\"target_eps\": {}, \"achieved_eps\": {}, \"sent\": {}, \"accepted\": {}, \
             \"rejected_queue_full\": {}, \"rejected_shutdown\": {}, \"rejected_invalid\": {}, \
             \"rejected_user_quota\": {}, \"timeouts\": {}, \
             \"completed\": {}, \"lost\": {}, \"p50_us\": {}, \"p99_us\": {}, \"p999_us\": {}, \
             \"max_us\": {}, \"mean_us\": {}, \
             \"head_accepted\": {}, \"head_rejected\": {}, \"head_p99_us\": {}, \
             \"tail_accepted\": {}, \"tail_rejected\": {}, \"tail_p99_us\": {}, \
             \"speedup\": {}}}",
            self.target_eps,
            self.achieved_eps,
            self.sent,
            s.accepted,
            s.rejected_queue_full,
            s.rejected_shutdown,
            s.rejected_invalid,
            s.rejected_user_quota,
            s.timeouts,
            self.completed,
            self.lost,
            h.quantile(0.50),
            h.quantile(0.99),
            h.quantile(0.999),
            h.max(),
            h.mean(),
            s.head.accepted,
            s.head.rejected,
            s.head.hist.quantile(0.99),
            s.tail.accepted,
            s.tail.rejected,
            s.tail.hist.quantile(0.99),
            self.achieved_eps / self.target_eps,
        )
    }
}

fn render_submit(spec: &SubmitSpec) -> String {
    format!(
        "{{\"cmd\":\"submit\",\"width\":{},\"estimate_ms\":{},\"actual_ms\":{},\"user\":{}}}",
        spec.width,
        spec.estimate.as_millis(),
        spec.actual.as_millis(),
        spec.user
    )
}

fn classify_reply(line: &str, user: u32, latency_us: u64, stats: &mut WorkerStats) {
    let Ok(json) = Json::parse(line) else {
        stats.tally(user, latency_us, false);
        stats.rejected_invalid += 1;
        return;
    };
    if json.get("job").is_some() {
        stats.tally(user, latency_us, true);
        return;
    }
    stats.tally(user, latency_us, false);
    match json.get("reason").and_then(Json::as_str) {
        Some("queue_full") => stats.rejected_queue_full += 1,
        Some("user_quota") => stats.rejected_user_quota += 1,
        Some("shutting_down") => stats.rejected_shutdown += 1,
        _ => stats.rejected_invalid += 1,
    }
}

/// Connects to the daemon's socket, retrying with bounded exponential
/// backoff (50 ms doubling to 1.6 s, 8 attempts ≈ 6 s total) — a daemon
/// that is still starting, or restarting with `--recover`, becomes
/// reachable without the load generator giving up.
fn connect_with_retry(path: &Path) -> std::io::Result<UnixStream> {
    let mut backoff = Duration::from_millis(50);
    let mut last_err = None;
    for attempt in 0..8 {
        match UnixStream::connect(path) {
            Ok(stream) => return Ok(stream),
            Err(e) => {
                if attempt > 0 {
                    eprintln!(
                        "loadgen: connect to {} failed ({e}), retrying in {}ms",
                        path.display(),
                        backoff.as_millis()
                    );
                }
                last_err = Some(e);
                std::thread::sleep(backoff);
                backoff *= 2;
            }
        }
    }
    Err(last_err.expect("at least one attempt"))
}

/// One request/one reply over a fresh connection (status, shutdown).
fn socket_roundtrip(path: &Path, request: &str) -> Option<String> {
    let mut stream = connect_with_retry(path).ok()?;
    writeln!(stream, "{request}").ok()?;
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line).ok()?;
    Some(line)
}

/// The daemon's `status` reply, parsed; `None` when it cannot be had.
fn status(path: &Path) -> Option<Json> {
    Json::parse(socket_roundtrip(path, "{\"cmd\":\"status\"}")?.trim()).ok()
}

/// Runs one rate step against the daemon of `machine` processors, one
/// connection per worker.
fn run_rate(args: &Args, rate: f64, machine: u32) -> Row {
    let path = args.connect.as_path();
    let params = GenParams {
        seed: args.seed,
        rate_per_worker: rate / args.workers as f64,
        duration: args.duration,
        zipf: Arc::new(zipf_cdf(args.users, args.zipf)),
        departure: args.departure,
        machine,
    };
    let timeout = Duration::from_millis(args.timeout_ms.max(1));
    let start = Instant::now();
    let mut senders = Vec::new();
    let mut readers = Vec::new();
    for worker in 0..args.workers {
        let stream = connect_with_retry(path).unwrap_or_else(|e| {
            eprintln!("cannot connect to {}: {e}", path.display());
            std::process::exit(2);
        });
        let read_half = stream.try_clone().expect("clone socket");
        read_half
            .set_read_timeout(Some(timeout))
            .expect("set_read_timeout");
        let (pending_tx, pending_rx) = mpsc::channel::<InFlight>();
        readers.push(std::thread::spawn(move || {
            let mut stats = WorkerStats::default();
            let mut reader = BufReader::new(read_half);
            // One pending entry per reply, in order. A read that trips
            // the timeout abandons its entry (counted separately); the
            // late reply, if it ever lands, then matches the *next*
            // entry — counts stay right, one latency sample is skewed.
            // The line buffer survives timeouts because read_line
            // appends: a partially received reply is completed by a
            // later read, never dropped mid-frame.
            let mut line = String::new();
            while let Ok(inflight) = pending_rx.recv() {
                match reader.read_line(&mut line) {
                    Ok(0) => break, // daemon hung up
                    Ok(_) => {
                        let latency_us = inflight.sent_at.elapsed().as_micros() as u64;
                        classify_reply(line.trim(), inflight.user, latency_us, &mut stats);
                        line.clear();
                    }
                    Err(e)
                        if e.kind() == std::io::ErrorKind::WouldBlock
                            || e.kind() == std::io::ErrorKind::TimedOut =>
                    {
                        stats.timeouts += 1;
                    }
                    Err(_) => break,
                }
            }
            stats
        }));
        let params = params.clone();
        let mut stream = stream;
        senders.push(std::thread::spawn(move || {
            let sent = send_loop(&params, worker, |spec| {
                let inflight = InFlight {
                    sent_at: Instant::now(),
                    user: spec.user,
                };
                if pending_tx.send(inflight).is_err() {
                    return false;
                }
                writeln!(stream, "{}", render_submit(&spec)).is_ok()
            });
            // Half-close so the daemon answers everything then hangs up,
            // which ends the reader at exactly the last reply.
            let _ = stream.shutdown(std::net::Shutdown::Write);
            sent
        }));
    }
    let sent: u64 = senders.into_iter().map(|h| h.join().unwrap()).sum();
    let send_elapsed = start.elapsed().as_secs_f64();
    let mut stats = WorkerStats::default();
    for r in readers {
        stats.absorb(&r.join().unwrap());
    }
    // Completion counts from the daemon itself (jobs may still be
    // running — the external daemon's lifetime is not ours to drain).
    let (mut completed, mut lost) = (0, 0);
    if let Some(json) = status(path) {
        completed = json.get("completed").and_then(Json::as_u64).unwrap_or(0);
        lost = json.get("lost").and_then(Json::as_u64).unwrap_or(0);
    }
    Row {
        target_eps: rate,
        achieved_eps: sent as f64 / send_elapsed,
        sent,
        stats,
        completed,
        lost,
    }
}

fn render_report(args: &Args, machine: u32, rows: &[Row]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"report\": \"service\",\n");
    out.push_str(&format!("  \"machine\": {machine},\n"));
    out.push_str(&format!("  \"workers\": {},\n", args.workers));
    out.push_str(&format!("  \"users\": {},\n", args.users));
    out.push_str(&format!("  \"zipf_s\": {},\n", args.zipf));
    out.push_str(&format!("  \"duration_secs\": {},\n", args.duration));
    out.push_str(&format!("  \"seed\": {},\n", args.seed));
    out.push_str(
        "  \"unit\": \"admission latency in wall microseconds; \
         speedup = achieved_eps / target_eps (open-loop health)\",\n",
    );
    out.push_str("  \"rows\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        out.push_str(&format!("    {}{comma}\n", row.render()));
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let args = parse_args();
    // Profiles cap job widths at the daemon's machine, which its status
    // reply names.
    let machine = status(&args.connect)
        .and_then(|json| json.get("machine").and_then(Json::as_u64))
        .and_then(|m| u32::try_from(m).ok())
        .unwrap_or_else(|| {
            eprintln!("no status reply from {}", args.connect.display());
            std::process::exit(2);
        });
    let rows: Vec<Row> = args
        .rates
        .iter()
        .map(|&rate| run_rate(&args, rate, machine))
        .collect();
    if args.shutdown_after {
        let _ = socket_roundtrip(&args.connect, "{\"cmd\":\"shutdown\"}");
    }
    for row in &rows {
        let s = &row.stats;
        eprintln!(
            "rate {:.0}/s: sent {} ({:.1}/s achieved), accepted {}, overloaded {}, \
             quota {}, invalid {}, timeouts {}, completed {}, lost {} — admission \
             p50 {}µs p99 {}µs p999 {}µs (head p99 {}µs, tail p99 {}µs)",
            row.target_eps,
            row.sent,
            row.achieved_eps,
            s.accepted,
            s.rejected_queue_full + s.rejected_shutdown,
            s.rejected_user_quota,
            s.rejected_invalid,
            s.timeouts,
            row.completed,
            row.lost,
            s.hist.quantile(0.50),
            s.hist.quantile(0.99),
            s.hist.quantile(0.999),
            s.head.hist.quantile(0.99),
            s.tail.hist.quantile(0.99),
        );
    }
    let report = render_report(&args, machine, &rows);
    print!("{report}");
    if let Some(out) = &args.out {
        if let Err(e) = std::fs::write(out, &report) {
            eprintln!("cannot write {}: {e}", out.display());
            std::process::exit(2);
        }
        eprintln!("wrote {}", out.display());
    }
    let healthy = rows
        .iter()
        .all(|r| r.stats.accepted > 0 && r.lost == 0 && r.sent > 0);
    if !healthy {
        eprintln!("loadgen: unhealthy run (no accepted submissions or lost jobs)");
        std::process::exit(1);
    }
}
