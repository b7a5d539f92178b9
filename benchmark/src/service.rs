//! The service workloads: the release `daemon` binary as a child process
//! on a Unix socket, driven open-loop over one pipelined NDJSON
//! connection by one sender and one reader thread.

use crate::procfs;
use dynp_obs::parse::Json;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, Exp};
use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Machine size of the simulated cluster behind the daemon.
pub const MACHINE: u32 = 128;
/// Users in the Zipf population.
pub const USERS: usize = 100;
/// Zipf exponent of the user pick.
pub const ZIPF_S: f64 = 1.1;
/// Seed of the user profiles. The profiles set the mean job area and
/// with it the daemon's standing queue; they are the same for every
/// `--seed`, which draws the arrivals, the user picks and the run times.
const PROFILE_SEED: u64 = 24_301;

/// What one user's jobs look like (the `loadgen` bin's profile shape).
#[derive(Clone, Copy, Debug)]
struct Profile {
    width: u32,
    mean_ms: f64,
    overestimate: f64,
}

fn profile(user: u32) -> Profile {
    let mut rng = StdRng::seed_from_u64(PROFILE_SEED ^ (u64::from(user) << 24));
    Profile {
        // Powers of two from 1 to 16.
        width: 1u32 << rng.gen_range_u64(0, 5),
        // Mean run time 30–300 simulated seconds.
        mean_ms: 30_000.0 + rng.gen::<f64>() * 270_000.0,
        // Users over-request by 1.2–3×, like real SWF traces.
        overestimate: 1.2 + rng.gen::<f64>() * 1.8,
    }
}

/// Normalised Zipf CDF over ranks `1..=USERS`.
fn zipf_cdf() -> Vec<f64> {
    let mut acc = 0.0;
    let mut cdf: Vec<f64> = (1..=USERS)
        .map(|k| {
            acc += 1.0 / (k as f64).powf(ZIPF_S);
            acc
        })
        .collect();
    for v in &mut cdf {
        *v /= acc;
    }
    cdf
}

/// The open-loop send schedule: when each submit is due and what it
/// says. A pure function of `(seed, rate, seconds, utilisation)`.
#[derive(Clone, Debug, PartialEq)]
pub struct Schedule {
    /// Microseconds after the window opens at which submit `i` is due.
    pub due_us: Vec<u64>,
    /// Every request line, newline-terminated, back to back.
    pub wire: Vec<u8>,
    /// `wire[ends[i-1]..ends[i]]` is request `i`.
    pub ends: Vec<usize>,
    /// Simulated milliseconds per wall millisecond, derived from the
    /// generated jobs so the *simulated* machine runs at the asked
    /// utilisation at this send rate.
    pub speedup: u64,
}

impl Schedule {
    /// Poisson arrivals at `rate` per second over `seconds`, users by
    /// Zipf, run times exponential around the user's mean.
    pub fn generate(seed: u64, rate: f64, seconds: f64, utilisation: f64) -> Schedule {
        let mut rng = StdRng::seed_from_u64(seed);
        let gap = Exp::new(rate).expect("positive rate");
        let cdf = zipf_cdf();
        let profiles: Vec<Profile> = (0..USERS as u32).map(profile).collect();
        let mut schedule = Schedule {
            due_us: Vec::new(),
            wire: Vec::new(),
            ends: Vec::new(),
            speedup: 1,
        };
        let mut at = 0.0f64;
        let mut area_ms = 0.0f64;
        loop {
            at += gap.sample(&mut rng);
            if at >= seconds {
                break;
            }
            let u: f64 = rng.gen();
            let user = cdf.partition_point(|&c| c <= u).min(USERS - 1);
            let p = profiles[user];
            let run = Exp::new(1.0 / p.mean_ms).expect("positive mean");
            let actual_ms = run.sample(&mut rng).clamp(1_000.0, 3_600_000.0) as u64;
            let estimate_ms = (actual_ms as f64 * p.overestimate) as u64;
            area_ms += f64::from(p.width) * actual_ms as f64;
            schedule.due_us.push((at * 1e6) as u64);
            writeln!(
                schedule.wire,
                "{{\"cmd\":\"submit\",\"width\":{},\"estimate_ms\":{estimate_ms},\
                 \"actual_ms\":{actual_ms},\"user\":{user}}}",
                p.width
            )
            .expect("writing to a Vec cannot fail");
            schedule.ends.push(schedule.wire.len());
        }
        // Offered simulated load = (rate / speedup) × mean area ÷ machine.
        let mean_area_ms = area_ms / schedule.due_us.len().max(1) as f64;
        let speedup = rate * mean_area_ms / 1_000.0 / (f64::from(MACHINE) * utilisation);
        schedule.speedup = speedup.round().max(1.0) as u64;
        schedule
    }

    /// Submits in the schedule.
    pub fn len(&self) -> usize {
        self.due_us.len()
    }

    /// True for an empty schedule.
    pub fn is_empty(&self) -> bool {
        self.due_us.is_empty()
    }
}

/// Where the `daemon` and `replay` binaries live and where runs may
/// write: everything stays inside the checkout.
pub struct Site {
    /// The release `daemon` binary.
    pub daemon: PathBuf,
    /// The release `replay` binary.
    pub replay: PathBuf,
    /// Scratch directory of this invocation (sockets, journals).
    pub scratch: PathBuf,
    /// The CPUs every daemon is confined to (a mask; 0 = wherever).
    pub daemon_cpus: u64,
    /// The CPUs the load generator's threads run on, which the daemon is
    /// kept off so the generator never takes CPU from what it measures.
    pub generator_cpus: u64,
}

impl Site {
    /// Builds the two binaries from the root workspace (a no-op when
    /// they are current) and creates the scratch directory.
    pub fn prepare() -> Result<Site, String> {
        let status = Command::new("cargo")
            .args(["build", "--release", "--offline", "--quiet"])
            .args(["-p", "dynp-serve", "--bin", "daemon", "--bin", "replay"])
            .stdout(Stdio::null())
            .status()
            .map_err(|e| format!("cannot run cargo: {e}"))?;
        if !status.success() {
            return Err(format!("building the daemon failed: {status}"));
        }
        let target = std::env::var_os("CARGO_TARGET_DIR")
            .map_or_else(|| PathBuf::from("target"), PathBuf::from);
        let scratch = PathBuf::from(format!("benchmark/out/run-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&scratch);
        std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
        let (daemon_cpus, generator_cpus) = crate::sys::daemon_and_generator_cpus();
        let site = Site {
            daemon: target.join("release/daemon"),
            replay: target.join("release/replay"),
            scratch,
            daemon_cpus,
            generator_cpus,
        };
        for bin in [&site.daemon, &site.replay] {
            if !bin.is_file() {
                return Err(format!("{} was not built", bin.display()));
            }
        }
        Ok(site)
    }

    /// Removes the scratch directory.
    pub fn clean(&self) {
        let _ = std::fs::remove_dir_all(&self.scratch);
    }
}

/// A running daemon child.
pub struct Daemon {
    child: Child,
    /// Its listening socket (relative, so it fits `sun_path`).
    pub socket: PathBuf,
    spawned_at: Instant,
}

/// The fields of the daemon's (and the `replay` bin's) summary line the
/// checks read. Two summaries are equal when they describe the same
/// session: the `events` field is left out because it also counts the
/// `status` and `shutdown` commands a live daemon was sent.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Summary {
    /// Submissions accepted.
    pub accepted: u64,
    /// Jobs completed.
    pub completed: u64,
    /// Jobs lost.
    pub lost: u64,
    /// Waiting jobs withdrawn by cancel commands.
    pub cancelled: u64,
    /// SLDwA of the drained session (as printed: six decimals).
    pub sldwa: f64,
    /// Fingerprint of the drained state (`null` for a scheduler that
    /// cannot be snapshotted).
    pub fingerprint: Option<String>,
}

impl Summary {
    fn parse(line: &str) -> Result<Summary, String> {
        let json = Json::parse(line).map_err(|e| format!("bad summary {line:?}: {e}"))?;
        let field = |key: &str| {
            json.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("summary without {key:?}: {line}"))
        };
        Ok(Summary {
            accepted: field("accepted")?,
            completed: field("completed")?,
            lost: field("lost")?,
            cancelled: field("cancelled")?,
            sldwa: json
                .get("sldwa")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("summary without \"sldwa\": {line}"))?,
            fingerprint: json
                .get("fingerprint")
                .and_then(Json::as_str)
                .map(str::to_string),
        })
    }
}

/// One request, one reply, over a fresh connection.
fn roundtrip(socket: &Path, request: &str) -> Result<String, String> {
    let mut stream = UnixStream::connect(socket).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| e.to_string())?;
    writeln!(stream, "{request}").map_err(|e| format!("send {request}: {e}"))?;
    let mut line = String::new();
    BufReader::new(stream)
        .read_line(&mut line)
        .map_err(|e| format!("reply to {request}: {e}"))?;
    Ok(line)
}

impl Daemon {
    /// Starts `daemon <args> --socket <scratch>/<name>.sock` with every
    /// thread of it confined to `site.daemon_cpus`.
    pub fn spawn(site: &Site, name: &str, args: &[String]) -> Result<Daemon, String> {
        let socket = site.scratch.join(format!("{name}.sock"));
        // A child inherits the affinity of the thread that starts it.
        let before = crate::sys::allowed_cpus();
        let pinned = site.daemon_cpus != 0 && crate::sys::pin_to(site.daemon_cpus);
        let spawned = Self::spawn_here(site, socket, args);
        if pinned {
            crate::sys::pin_to(before);
        }
        spawned
    }

    fn spawn_here(site: &Site, socket: PathBuf, args: &[String]) -> Result<Daemon, String> {
        let spawned_at = Instant::now();
        let child = Command::new(&site.daemon)
            .args(args)
            .arg("--socket")
            .arg(&socket)
            // The standing queue never reaches the fan-out depth; pinned
            // so it cannot start to on a host with more CPUs.
            .env("DYNP_PLANNER_THREADS", "1")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", site.daemon.display()))?;
        Ok(Daemon {
            child,
            socket,
            spawned_at,
        })
    }

    /// The child's pid as `/proc` spells it.
    pub fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Waits for the first `status` reply and returns it with the time
    /// since spawn. The daemon's accept loop polls every 25 ms, which is
    /// part of what a client waits for.
    pub fn first_status(&mut self) -> Result<(Json, Duration), String> {
        let deadline = self.spawned_at + Duration::from_secs(60);
        loop {
            if let Some(status) = self.child.try_wait().map_err(|e| e.to_string())? {
                return Err(format!("daemon exited before serving: {status}"));
            }
            if let Ok(line) = roundtrip(&self.socket, "{\"cmd\":\"status\"}") {
                let took = self.spawned_at.elapsed();
                let json = Json::parse(line.trim()).map_err(|e| format!("bad status: {e}"))?;
                return Ok((json, took));
            }
            if Instant::now() > deadline {
                return Err("daemon did not answer within 60 s".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// A `status` query.
    pub fn status(&self) -> Result<Json, String> {
        let line = roundtrip(&self.socket, "{\"cmd\":\"status\"}")?;
        Json::parse(line.trim()).map_err(|e| format!("bad status: {e}"))
    }

    /// Asks for a graceful drain, waits for the child to end and returns
    /// its summary line.
    pub fn shutdown(mut self) -> Result<Summary, String> {
        roundtrip(&self.socket, "{\"cmd\":\"shutdown\"}")?;
        let mut out = String::new();
        self.child
            .stdout
            .take()
            .expect("stdout is piped")
            .read_to_string(&mut out)
            .map_err(|e| format!("daemon stdout: {e}"))?;
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if !status.success() {
            return Err(format!("daemon exited with {status}"));
        }
        Summary::parse(out.lines().last().unwrap_or(""))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Only reached with a live child on an error path; `shutdown`
        // has already reaped it otherwise.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Runs the `replay` bin on a journal and returns its summary.
pub fn replay_summary(site: &Site, journal: &Path) -> Result<Summary, String> {
    let out = Command::new(&site.replay)
        .arg("--journal")
        .arg(journal)
        .stderr(Stdio::null())
        .output()
        .map_err(|e| format!("cannot run replay: {e}"))?;
    if !out.status.success() {
        return Err(format!("replay exited with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    Summary::parse(text.lines().last().unwrap_or(""))
}

/// What one open-loop window measured.
#[derive(Clone, Debug, Default)]
pub struct Window {
    /// Submit due time → reply read, microseconds, one per reply.
    pub latency_us: Vec<f64>,
    /// How late each request left, microseconds after its due time.
    pub lag_us: Vec<f64>,
    /// Replies that accepted the job.
    pub accepted: u64,
    /// Replies that refused it.
    pub rejected: u64,
    /// Requests whose reply never came (timeout or hang-up).
    pub unanswered: u64,
    /// First due time → last reply read, seconds.
    pub elapsed_s: f64,
    /// Daemon CPU seconds (user + system) over the window.
    pub daemon_cpu_s: f64,
    /// Requests sent but not yet answered when the last one left.
    pub backlog_at_end: u64,
}

/// How long the reader waits for any one reply.
const REPLY_TIMEOUT: Duration = Duration::from_secs(5);

/// Sends `schedule` to the daemon open-loop — each request at its due
/// time, never waiting on a reply — and times every reply from the
/// request's *due* time, so a stall is charged to every request it
/// delayed.
///
/// The sender and the reader run on the CPUs in `generator_cpus` (0 =
/// wherever; see [`Site::generator_cpus`]).
pub fn open_loop(
    daemon: &Daemon,
    schedule: &Schedule,
    generator_cpus: u64,
) -> Result<Window, String> {
    use std::sync::atomic::{AtomicU64, Ordering};
    let stream = UnixStream::connect(&daemon.socket).map_err(|e| format!("connect: {e}"))?;
    let read_half = stream.try_clone().map_err(|e| e.to_string())?;
    read_half
        .set_read_timeout(Some(REPLY_TIMEOUT))
        .map_err(|e| e.to_string())?;
    let n = schedule.len();
    let pid = daemon.pid();
    let cpu_before = procfs::cpu_seconds(&pid).ok_or("daemon has no /proc entry")?;
    let opens_at = Instant::now() + Duration::from_millis(20);
    let due = |i: usize| opens_at + Duration::from_micros(schedule.due_us[i]);
    // A statistic only: replies read so far, for the end-of-send backlog.
    let replies = AtomicU64::new(0);

    let (mut window, lag_us, backlog_at_end) = std::thread::scope(|scope| {
        let replies = &replies;
        let reader = scope.spawn(move || {
            if generator_cpus != 0 {
                crate::sys::pin_to(generator_cpus);
            }
            let mut window = Window::default();
            let mut reader = BufReader::new(read_half);
            let mut line = String::new();
            for i in 0..n {
                line.clear();
                match reader.read_line(&mut line) {
                    Ok(0) | Err(_) => break,
                    Ok(_) => {}
                }
                let at = Instant::now();
                replies.fetch_add(1, Ordering::Relaxed);
                window
                    .latency_us
                    .push(at.saturating_duration_since(due(i)).as_nanos() as f64 / 1e3);
                if line.starts_with("{\"ok\":true,\"job\":") {
                    window.accepted += 1;
                } else {
                    window.rejected += 1;
                }
                window.elapsed_s = at.saturating_duration_since(due(0)).as_secs_f64();
            }
            window
        });
        let sender = scope.spawn(move || {
            if generator_cpus != 0 {
                crate::sys::pin_to(generator_cpus);
            }
            crate::sys::minimise_timer_slack();
            let mut stream = stream;
            let mut lag_us = Vec::with_capacity(n);
            let mut next = 0;
            while next < n {
                let now = Instant::now();
                let wake = due(next);
                if wake > now {
                    std::thread::sleep(wake - now);
                }
                // Everything due by now leaves in one write.
                let now = Instant::now();
                let mut last = next;
                while last + 1 < n && due(last + 1) <= now {
                    last += 1;
                }
                let from = if next == 0 {
                    0
                } else {
                    schedule.ends[next - 1]
                };
                if stream
                    .write_all(&schedule.wire[from..schedule.ends[last]])
                    .is_err()
                {
                    break;
                }
                for i in next..=last {
                    lag_us.push(now.saturating_duration_since(due(i)).as_nanos() as f64 / 1e3);
                }
                next = last + 1;
            }
            let backlog = next as u64 - replies.load(Ordering::Relaxed).min(next as u64);
            // Half-close: the daemon answers what it has and hangs up,
            // which ends the reader at the last reply.
            let _ = stream.shutdown(std::net::Shutdown::Write);
            (lag_us, backlog)
        });
        let (lag_us, backlog) = sender.join().expect("sender thread panicked");
        (
            reader.join().expect("reader thread panicked"),
            lag_us,
            backlog,
        )
    });

    window.lag_us = lag_us;
    window.backlog_at_end = backlog_at_end;
    window.unanswered = n as u64 - window.accepted - window.rejected;
    window.daemon_cpu_s =
        procfs::cpu_seconds(&pid).ok_or("daemon died in the window")? - cpu_before;
    Ok(window)
}

/// Copies a journal directory (flat: segments and checkpoints), leaving
/// the checkpoints behind so a recovery replays the whole journal — the
/// work is then the record count, not whether this seed's byte count
/// happened to cross the 1 MiB rotation that writes a checkpoint.
pub fn copy_journal_without_checkpoints(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| format!("{}: {e}", to.display()))?;
    for entry in std::fs::read_dir(from).map_err(|e| format!("{}: {e}", from.display()))? {
        let entry = entry.map_err(|e| e.to_string())?;
        let name = entry.file_name();
        if Path::new(&name).extension().is_some_and(|ext| ext == "wal") {
            std::fs::copy(entry.path(), to.join(&name)).map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_a_pure_function_of_the_seed() {
        let a = Schedule::generate(5, 2_000.0, 1.0, 0.5);
        let b = Schedule::generate(5, 2_000.0, 1.0, 0.5);
        let c = Schedule::generate(6, 2_000.0, 1.0, 0.5);
        assert_eq!(a, b);
        assert_ne!(a.due_us, c.due_us);
        assert_ne!(a.wire, c.wire);
        assert!((1_800..2_200).contains(&a.len()), "{}", a.len());
        assert!(a.due_us.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(a.ends.len(), a.len());
        assert_eq!(*a.ends.last().unwrap(), a.wire.len());
    }

    #[test]
    fn every_request_line_parses_as_a_submit() {
        let s = Schedule::generate(1, 500.0, 1.0, 0.9);
        let text = std::str::from_utf8(&s.wire).unwrap();
        assert_eq!(text.lines().count(), s.len());
        for line in text.lines() {
            match dynp_serve::parse_request(line).unwrap() {
                dynp_serve::Request::Submit(spec) => {
                    assert!(spec.width >= 1 && spec.width <= 16);
                    assert!(spec.actual <= spec.estimate);
                }
                other => panic!("not a submit: {other:?}"),
            }
        }
    }

    #[test]
    fn speedup_follows_rate_and_utilisation() {
        let slow = Schedule::generate(1, 1_000.0, 2.0, 0.9);
        let fast = Schedule::generate(1, 4_000.0, 2.0, 0.9);
        let idle = Schedule::generate(1, 1_000.0, 2.0, 0.45);
        // Same job mix, four times the rate: four times the speedup
        // (within the sampling noise of the mean area).
        let ratio = fast.speedup as f64 / slow.speedup as f64;
        assert!((3.5..4.5).contains(&ratio), "{ratio}");
        let ratio = idle.speedup as f64 / slow.speedup as f64;
        assert!((1.9..2.1).contains(&ratio), "{ratio}");
    }

    #[test]
    fn summary_lines_parse() {
        let live = "{\"accepted\":3,\"completed\":3,\"lost\":0,\"rejected_invalid\":0,\
                    \"cancelled\":0,\"events\":8,\"sldwa\":1.010423,\"fingerprint\":\"13c4\"}";
        let s = Summary::parse(live).unwrap();
        assert_eq!((s.accepted, s.completed, s.lost, s.cancelled), (3, 3, 0, 0));
        assert_eq!(
            (s.sldwa, s.fingerprint.as_deref()),
            (1.010423, Some("13c4"))
        );
        // The replay of the same session dispatched two commands fewer.
        let replayed = live.replace("\"events\":8", "\"events\":6");
        assert_eq!(Summary::parse(&replayed).unwrap(), s);
        let other = live.replace("13c4", "13c5");
        assert_ne!(Summary::parse(&other).unwrap(), s);
        assert!(Summary::parse("{}").is_err());
        assert!(Summary::parse("").is_err());
    }
}
