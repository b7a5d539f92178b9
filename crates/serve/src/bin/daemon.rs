//! The `dynp-serve` daemon: the planning core as a long-running,
//! crash-safe service.
//!
//! ```text
//! cargo run --release -p dynp-serve --bin daemon -- \
//!     --machine 128 --scheduler dynp --socket /tmp/dynp.sock \
//!     --journal /var/lib/dynp/journal
//! ```
//!
//! Transports (newline-delimited JSON, see `dynp_serve::proto`):
//!
//! * `--socket PATH` — listen on a Unix domain socket; any number of
//!   concurrent connections, one reply per request line in order;
//! * default — read requests from stdin, write replies to stdout
//!   (EOF drains and exits, so `loadgen | daemon` style pipes work).
//!
//! With `--journal DIR` every accepted command is durably journaled
//! before the client sees the acknowledgement; after a crash,
//! `--journal DIR --recover` rebuilds the exact pre-crash state from
//! the newest checkpoint plus the journal suffix and resumes serving
//! (the machine size, speedup, and scheduler come from the journal
//! header — flags may be omitted). `--recover --drain` instead drains
//! the recovered jobs and exits with the summary, which is how the CI
//! crash-recovery job verifies no acknowledged work was lost.
//!
//! Shutdown is always graceful: a `{"cmd":"shutdown"}` request, SIGINT,
//! SIGTERM, or stdin EOF stops admissions, drains the in-flight jobs in
//! virtual time, fsyncs the journal, prints a summary JSON line to
//! stdout and exits 0.

use dynp_serve::{
    parse_request, parse_scheduler, read_journal_header, recover, render_reply, render_summary,
    spawn, Command, FsyncPolicy, JournalError, OverloadReason, QuotaConfig, Reply, Request,
    ServiceConfig, ServiceHandle, SubmitError,
};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

const USAGE: &str = "\
usage: daemon [--machine N] [--scheduler SPEC] [--max-queue N]
              [--speedup N] [--journal DIR] [--recover] [--drain]
              [--fsync POLICY] [--checkpoint-every N] [--compact]
              [--quota RATE:BURST] [--socket PATH]

  --machine N          machine size in processors (default 128)
  --scheduler SPEC     FCFS|SJF|LJF|easy[:P]|dynp[:simple|:advanced|:preferred:P[:T]]
                       (default dynp)
  --max-queue N        bounded-queue backpressure limit (default 1024)
  --speedup N          simulated ms per wall ms (default 1 = real time)
  --journal DIR        durable write-ahead log + checkpoints in DIR
  --recover            rebuild state from the journal in DIR and resume
                       (machine/scheduler/speedup default to the journal
                       header's values)
  --drain              begin shutdown immediately after start: drain the
                       (recovered) jobs, print the summary, exit
  --fsync POLICY       when journal writes reach disk: always (default),
                       rotate, never
  --checkpoint-every N checkpoint every N journaled records
                       (default 0 = only at segment rotations)
  --compact            delete rotated segments once a checkpoint covers them
  --quota RATE:BURST   per-user token bucket: RATE millitokens/sim-second,
                       BURST millitokens capacity (1000 mtok = 1 submission)
  --socket PATH        serve NDJSON on a Unix socket (default: stdin/stdout)";

struct Args {
    config: ServiceConfig,
    socket: Option<PathBuf>,
    recover: bool,
    drain: bool,
}

fn bail(why: &str) -> ! {
    eprintln!("{why}\n{USAGE}");
    std::process::exit(2);
}

fn next_value<'a>(it: &mut std::slice::Iter<'a, String>, flag: &str) -> &'a str {
    match it.next() {
        Some(v) => v,
        None => bail(&format!("{flag} needs a value")),
    }
}

fn parse_num<T: std::str::FromStr>(raw: &str, flag: &str) -> T {
    raw.parse()
        .unwrap_or_else(|_| bail(&format!("{flag} needs a number, got {raw:?}")))
}

fn parse_quota(raw: &str) -> QuotaConfig {
    let Some((rate, burst)) = raw.split_once(':') else {
        bail(&format!("--quota needs RATE:BURST, got {raw:?}"));
    };
    QuotaConfig {
        rate_mtok_per_sec: parse_num(rate, "--quota RATE"),
        burst_mtok: parse_num(burst, "--quota BURST"),
    }
}

fn parse_args() -> Args {
    let mut machine: Option<u32> = None;
    let mut scheduler: Option<String> = None;
    let mut max_queue = 1024usize;
    let mut speedup: Option<u64> = None;
    let mut journal: Option<PathBuf> = None;
    let mut recover = false;
    let mut drain = false;
    let mut fsync = FsyncPolicy::Always;
    let mut checkpoint_every = 0u64;
    let mut compact = false;
    let mut quota = QuotaConfig::disabled();
    let mut socket: Option<PathBuf> = None;

    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--machine" => machine = Some(parse_num(next_value(&mut it, flag), flag)),
            "--scheduler" => scheduler = Some(next_value(&mut it, flag).to_string()),
            "--max-queue" => max_queue = parse_num(next_value(&mut it, flag), flag),
            "--speedup" => speedup = Some(parse_num(next_value(&mut it, flag), flag)),
            "--journal" => journal = Some(PathBuf::from(next_value(&mut it, flag))),
            "--recover" => recover = true,
            "--drain" => drain = true,
            "--fsync" => {
                let raw = next_value(&mut it, flag);
                fsync = FsyncPolicy::parse(raw)
                    .unwrap_or_else(|| bail(&format!("unknown fsync policy {raw:?}")));
            }
            "--checkpoint-every" => checkpoint_every = parse_num(next_value(&mut it, flag), flag),
            "--compact" => compact = true,
            "--quota" => quota = parse_quota(next_value(&mut it, flag)),
            "--socket" => socket = Some(PathBuf::from(next_value(&mut it, flag))),
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => bail(&format!("unknown flag {other:?}")),
        }
    }

    // Recovery reads the service shape from the journal header, so the
    // restart command line needs nothing but the directory; explicit
    // flags still win (and recover() rejects them if they disagree).
    // Only the first segment's header is read here — recover() does the
    // full journal read exactly once.
    if recover {
        let Some(dir) = &journal else {
            bail("--recover needs --journal DIR");
        };
        match read_journal_header(dir) {
            Ok(header) => {
                machine = machine.or(Some(header.machine_size));
                speedup = speedup.or(Some(header.speedup));
                scheduler = scheduler.or(Some(header.scheduler));
            }
            // Nothing was ever journaled; recover() removes the torn
            // file and starts fresh on the flag defaults.
            Err(JournalError::TornGenesis { .. }) => {}
            Err(e) => {
                eprintln!("cannot recover from {}: {e}", dir.display());
                std::process::exit(2);
            }
        }
    }

    let spec =
        parse_scheduler(scheduler.as_deref().unwrap_or("dynp")).unwrap_or_else(|why| bail(&why));
    let mut config = ServiceConfig::new(machine.unwrap_or(128), spec);
    config.max_queue = max_queue;
    config.speedup = speedup.unwrap_or(1);
    config.journal = journal;
    config.fsync = fsync;
    config.checkpoint_every = checkpoint_every;
    config.compact = compact;
    config.quota = quota;
    Args {
        config,
        socket,
        recover,
        drain,
    }
}

/// Set by the SIGINT/SIGTERM handlers; polled by the watcher thread (a
/// signal handler may only do async-signal-safe work, and an atomic
/// store is).
static SHUTDOWN_SIGNAL: AtomicBool = AtomicBool::new(false);

extern "C" fn on_shutdown_signal(_signum: i32) {
    SHUTDOWN_SIGNAL.store(true, Ordering::SeqCst);
}

extern "C" {
    // POSIX signal(2); the return value (previous handler) is unused.
    fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
}

fn install_signal_handlers() {
    const SIGINT_NO: i32 = 2;
    const SIGTERM_NO: i32 = 15;
    unsafe {
        signal(SIGINT_NO, on_shutdown_signal);
        signal(SIGTERM_NO, on_shutdown_signal);
    }
}

/// Sends one command and waits for its reply; a closed daemon channel
/// becomes the typed shutting-down overload.
fn roundtrip(
    tx: &mpsc::Sender<Command>,
    make: impl FnOnce(mpsc::Sender<Reply>) -> Command,
) -> String {
    let refused = || {
        render_reply(&Reply::Rejected(SubmitError::Overload(
            OverloadReason::ShuttingDown,
        )))
    };
    let (reply_tx, reply_rx) = mpsc::channel();
    if tx.send(make(reply_tx)).is_err() {
        return refused();
    }
    match reply_rx.recv() {
        Ok(reply) => render_reply(&reply),
        Err(_) => refused(),
    }
}

/// Handles one request line and returns the reply line.
fn handle_line(tx: &mpsc::Sender<Command>, line: &str, done: &AtomicBool) -> String {
    match parse_request(line) {
        Err(why) => render_reply(&Reply::Rejected(SubmitError::Invalid(why))),
        Ok(Request::Submit(spec)) => roundtrip(tx, |r| Command::Submit(spec, r)),
        Ok(Request::Cancel(job)) => roundtrip(tx, |r| Command::Cancel(job, r)),
        Ok(Request::Status) => roundtrip(tx, Command::Status),
        Ok(Request::Shutdown) => {
            done.store(true, Ordering::SeqCst);
            roundtrip(tx, |r| Command::Shutdown(Some(r)))
        }
    }
}

/// One socket connection: request lines in, reply lines out, in order.
fn serve_connection(stream: UnixStream, handle: ServiceHandle, done: Arc<AtomicBool>) {
    let Ok(reader) = stream.try_clone() else {
        return;
    };
    let tx = handle.sender();
    let mut writer = stream;
    for line in BufReader::new(reader).lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        let reply = handle_line(&tx, &line, &done);
        if writeln!(writer, "{reply}").is_err() {
            break;
        }
    }
}

fn serve_socket(path: PathBuf, handle: ServiceHandle, done: Arc<AtomicBool>) {
    let _ = std::fs::remove_file(&path);
    let listener = UnixListener::bind(&path).unwrap_or_else(|e| {
        eprintln!("cannot bind {}: {e}", path.display());
        std::process::exit(2);
    });
    listener.set_nonblocking(true).expect("set_nonblocking");
    eprintln!("dynp-serve: listening on {}", path.display());
    std::thread::spawn(move || {
        while !done.load(Ordering::SeqCst) {
            match listener.accept() {
                Ok((stream, _)) => {
                    let _ = stream.set_nonblocking(false);
                    let handle = handle.clone();
                    let done = done.clone();
                    std::thread::spawn(move || serve_connection(stream, handle, done));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(25));
                }
                Err(_) => break,
            }
        }
    });
}

fn serve_stdin(handle: ServiceHandle, done: Arc<AtomicBool>) {
    std::thread::spawn(move || {
        let tx = handle.sender();
        let stdin = std::io::stdin();
        for line in stdin.lock().lines() {
            let Ok(line) = line else { break };
            if line.trim().is_empty() {
                continue;
            }
            let reply = handle_line(&tx, &line, &done);
            let mut out = std::io::stdout().lock();
            if writeln!(out, "{reply}").and_then(|()| out.flush()).is_err() {
                break;
            }
            if done.load(Ordering::SeqCst) {
                return;
            }
        }
        // EOF: the client hung up; drain and exit like a shutdown.
        handle.shutdown();
        done.store(true, Ordering::SeqCst);
    });
}

fn main() {
    let args = parse_args();
    let socket = args.socket.clone();
    let (handle, join) = if args.recover {
        recover(args.config).unwrap_or_else(|e| {
            eprintln!("cannot recover daemon: {e}");
            std::process::exit(2);
        })
    } else {
        spawn(args.config).unwrap_or_else(|e| {
            eprintln!("cannot start daemon: {e}");
            std::process::exit(2);
        })
    };
    install_signal_handlers();
    let done = Arc::new(AtomicBool::new(false));

    if args.drain {
        // Drain mode: no transport — finish the (recovered) session and
        // report. Used by the CI crash-recovery job and by operators
        // closing out a journal.
        handle.shutdown();
        drop(handle);
        let report = join.join().expect("daemon thread panicked");
        println!("{}", render_summary(&report));
        std::process::exit(0);
    }

    // Signal watcher: turns SIGINT/SIGTERM into a graceful drain.
    {
        let handle = handle.clone();
        let done = done.clone();
        std::thread::spawn(move || loop {
            if SHUTDOWN_SIGNAL.load(Ordering::SeqCst) {
                handle.shutdown();
                done.store(true, Ordering::SeqCst);
                return;
            }
            if done.load(Ordering::SeqCst) {
                return;
            }
            std::thread::sleep(Duration::from_millis(25));
        });
    }

    match socket.clone() {
        Some(path) => serve_socket(path, handle.clone(), done.clone()),
        None => serve_stdin(handle.clone(), done.clone()),
    }
    drop(handle);

    // Block until the daemon drains (shutdown command, signal, or EOF).
    let report = join.join().expect("daemon thread panicked");
    done.store(true, Ordering::SeqCst);
    if let Some(path) = socket {
        let _ = std::fs::remove_file(path);
    }
    println!("{}", render_summary(&report));
    // Transport threads may still be blocked in reads; exiting the
    // process is the clean way out once the drain has finished.
    std::process::exit(0);
}
