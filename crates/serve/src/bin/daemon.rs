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
    parse_request, parse_scheduler, read_journal_header, read_request_line, recover, render_reply,
    render_summary, spawn, FsyncPolicy, JournalError, OverloadReason, QuotaConfig, Reply, Request,
    ServiceConfig, ServiceHandle, SubmitError,
};
use dynp_sim::cli::Flags;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
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

fn parse_args() -> Args {
    let mut machine: Option<u32> = None;
    let mut scheduler: Option<String> = None;
    let mut max_queue = 1024usize;
    let mut speedup: Option<u64> = None;
    let mut journal: Option<PathBuf> = None;
    let mut recover = false;
    let mut drain = false;
    let mut fsync_policy = FsyncPolicy::Always;
    let mut checkpoint_every = 0u64;
    let mut compact = false;
    let mut quota_config = QuotaConfig::disabled();
    let mut socket: Option<PathBuf> = None;

    let mut flags = Flags::from_env(USAGE);
    while let Some(flag) = flags.next_flag() {
        match flag.as_str() {
            "--machine" => machine = Some(flags.positive(&flag)),
            "--scheduler" => scheduler = Some(flags.value(&flag)),
            "--max-queue" => max_queue = flags.num(&flag),
            "--speedup" => speedup = Some(flags.positive(&flag)),
            "--journal" => journal = Some(PathBuf::from(flags.value(&flag))),
            "--recover" => recover = true,
            "--drain" => drain = true,
            "--fsync" => {
                let raw = flags.value(&flag);
                fsync_policy = FsyncPolicy::parse(&raw).unwrap_or_else(|| {
                    flags.bail(&format!("--fsync: unknown fsync policy {raw:?}"))
                });
            }
            "--checkpoint-every" => checkpoint_every = flags.num(&flag),
            "--compact" => compact = true,
            "--quota" => {
                let raw = flags.value(&flag);
                let Some((rate, burst)) = raw.split_once(':') else {
                    flags.bail(&format!("--quota needs RATE:BURST, got {raw:?}"));
                };
                quota_config = QuotaConfig {
                    rate_mtok_per_sec: flags.parse(rate, "--quota RATE"),
                    burst_mtok: flags.parse(burst, "--quota BURST"),
                };
            }
            "--socket" => socket = Some(PathBuf::from(flags.value(&flag))),
            other => flags.unknown(other),
        }
    }

    // Recovery reads the service shape from the journal header, so the
    // restart command line needs nothing but the directory; explicit
    // flags still win (and recover() rejects them if they disagree).
    // Only the first segment's header is read here — recover() does the
    // full journal read exactly once.
    if recover {
        let Some(dir) = &journal else {
            flags.bail("--recover needs --journal DIR");
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

    let spec = parse_scheduler(scheduler.as_deref().unwrap_or("dynp"))
        .unwrap_or_else(|why| flags.bail(&format!("--scheduler: {why}")));
    let mut config = ServiceConfig::new(machine.unwrap_or(128), spec);
    config.max_queue = max_queue;
    config.speedup = speedup.unwrap_or(1);
    config.journal = journal;
    config.fsync = fsync_policy;
    config.checkpoint_every = checkpoint_every;
    config.compact = compact;
    config.quota = quota_config;
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

/// The reply line to a request that cannot be read as one.
fn invalid(why: String) -> String {
    render_reply(&Reply::Rejected(SubmitError::Invalid(why)))
}

/// Handles one request line on this thread and returns the reply line.
fn handle_line(handle: &ServiceHandle, line: &str) -> String {
    let reply = match parse_request(line) {
        Err(why) => return invalid(why),
        Ok(Request::Submit(spec)) => match handle.submit(spec) {
            Ok(ticket) => Reply::Accepted(ticket),
            Err(e) => Reply::Rejected(e),
        },
        Ok(Request::Cancel(job)) => Reply::Cancelled {
            job,
            found: handle.cancel(job),
        },
        Ok(Request::Status) => match handle.status() {
            Some(status) => Reply::Status(status),
            None => Reply::Rejected(SubmitError::Overload(OverloadReason::ShuttingDown)),
        },
        Ok(Request::Shutdown) => {
            handle.shutdown();
            Reply::Draining
        }
    };
    render_reply(&reply)
}

/// Pumps one transport: request lines in, reply lines out, in order,
/// until end of input or a transport error. Each reply leaves in one
/// `write`, newline included, after the daemon's lock is released. A
/// line over the length bound is answered and ends the transport too —
/// the rest of it is not worth reading — without disturbing the daemon
/// or any other connection.
fn serve_lines(mut reader: impl BufRead, mut writer: impl Write, handle: &ServiceHandle) {
    loop {
        let (mut reply, last) = match read_request_line(&mut reader) {
            Ok(None) => return,
            Ok(Some(line)) if line.trim().is_empty() => continue,
            Ok(Some(line)) => (handle_line(handle, &line), false),
            Err(e) => (invalid(e.to_string()), true),
        };
        reply.push('\n');
        let sent = writer
            .write_all(reply.as_bytes())
            .and_then(|()| writer.flush());
        if sent.is_err() || last {
            return;
        }
    }
}

/// One socket connection.
fn serve_connection(stream: UnixStream, handle: ServiceHandle) {
    if let Ok(reader) = stream.try_clone() {
        serve_lines(BufReader::new(reader), stream, &handle);
    }
}

/// Binds the socket, replacing a stale file. `main` binds it before the
/// daemon starts, so a client can connect while a recovery replays the
/// journal: its first request waits in the backlog and is answered once
/// the daemon is live.
fn bind(path: &Path) -> UnixListener {
    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path).unwrap_or_else(|e| {
        eprintln!("cannot bind {}: {e}", path.display());
        std::process::exit(2);
    });
    eprintln!("dynp-serve: listening on {}", path.display());
    listener
}

/// Accepts connections, blocking, until the process exits after the
/// drain; each one is served on a thread of its own.
fn serve_socket(listener: UnixListener, handle: ServiceHandle) {
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(stream) = stream else { break };
            let handle = handle.clone();
            std::thread::spawn(move || serve_connection(stream, handle));
        }
    });
}

fn serve_stdin(handle: ServiceHandle) {
    std::thread::spawn(move || {
        let stdin = std::io::stdin();
        serve_lines(stdin.lock(), std::io::stdout(), &handle);
        // EOF: the client hung up; drain and exit like a shutdown.
        handle.shutdown();
    });
}

fn main() {
    let args = parse_args();
    let socket = args.socket.clone();
    let listener = socket.as_deref().filter(|_| !args.drain).map(bind);
    let started = if args.recover {
        recover(args.config).map_err(|e| format!("cannot recover daemon: {e}"))
    } else {
        spawn(args.config).map_err(|e| format!("cannot start daemon: {e}"))
    };
    let (handle, join) = started.unwrap_or_else(|why| {
        if let (Some(path), Some(_)) = (&socket, &listener) {
            let _ = std::fs::remove_file(path);
        }
        eprintln!("{why}");
        std::process::exit(2);
    });
    install_signal_handlers();

    if args.drain {
        // Drain mode: no transport — finish the (recovered) session and
        // report. Used by the CI crash-recovery job and by operators
        // closing out a journal.
        handle.shutdown();
        drop(handle);
        let report = join.join().expect("the daemon panicked");
        println!("{}", render_summary(&report));
        std::process::exit(0);
    }

    // Signal watcher: turns SIGINT/SIGTERM into a graceful drain.
    {
        let handle = handle.clone();
        std::thread::spawn(move || {
            while !SHUTDOWN_SIGNAL.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(25));
            }
            handle.shutdown();
        });
    }

    match listener {
        Some(listener) => serve_socket(listener, handle),
        None => serve_stdin(handle),
    }

    // Block until the daemon drains (shutdown command, signal, or EOF).
    let report = join.join().expect("the daemon panicked");
    if let Some(path) = socket {
        let _ = std::fs::remove_file(path);
    }
    println!("{}", render_summary(&report));
    // Transport threads may still be blocked in reads or in `accept`;
    // exiting the process is the clean way out once the drain has
    // finished.
    std::process::exit(0);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `input` through one transport of an in-process daemon that
    /// must never hear of it, and returns the reply lines.
    fn replies_to(input: Vec<u8>) -> Vec<String> {
        let fcfs = parse_scheduler("FCFS").unwrap();
        let (handle, join) = spawn(ServiceConfig::new(8, fcfs)).unwrap();
        let mut out = Vec::new();
        serve_lines(&input[..], &mut out, &handle);
        let status = handle.status().unwrap();
        assert_eq!(
            (status.accepted, status.rejected),
            (0, 0),
            "a bad line reached the daemon"
        );
        handle.shutdown();
        join.join().unwrap();
        String::from_utf8(out)
            .unwrap()
            .lines()
            .map(str::to_owned)
            .collect()
    }

    #[test]
    fn a_deeply_nested_line_is_answered_and_the_transport_lives() {
        let input = format!("{}\n\n{{\"cmd\":\"fly\"}}\n", "[".repeat(1_000));
        let replies = replies_to(input.into_bytes());
        assert_eq!(replies.len(), 2, "{replies:?}");
        assert!(replies[0].contains("nesting"), "{}", replies[0]);
        assert!(replies[1].contains("fly"), "{}", replies[1]);
        for reply in replies {
            assert!(reply.starts_with("{\"ok\":false,\"error\":\"invalid\",\"reason\":"));
        }
    }

    #[test]
    fn an_over_long_line_is_answered_and_ends_the_transport() {
        for flood in [vec![b'['; 100_000], vec![0u8; 1 << 20]] {
            let mut input = b"{\"cmd\":\"fly\"}\n".to_vec();
            input.extend(flood);
            input.extend(b"\n{\"cmd\":\"fly\"}\n");
            let replies = replies_to(input);
            assert_eq!(replies.len(), 2, "{replies:?}");
            assert!(replies[0].contains("fly"), "{}", replies[0]);
            assert!(replies[1].contains("\"error\":\"invalid\""));
            assert!(replies[1].contains("longer than"), "{}", replies[1]);
        }
    }
}
