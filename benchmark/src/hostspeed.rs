//! Host-speed correction.
//!
//! The hosts this benchmark runs on are shared virtual machines whose
//! per-CPU speed moves by ±30 % in phases that last seconds (the same
//! 20 000-event cell was measured at 0.245 s and at 0.44 s within one
//! minute, CPU time tracking wall time). No run length the driver allows
//! averages that out, so every timed section is bracketed — and, when it
//! is long, interrupted — by a fixed calibration kernel on the *same*
//! thread, and its duration is scaled to what it would have been had the
//! kernel run at [`NOMINAL_NS`] throughout. The kernel's mix (sort,
//! binary search, ordered-map insert/remove over ~0.6 MB) resembles the
//! planner's; measured on this host, section ÷ kernel stays within ±5 %
//! per sample while the raw section time moves by 70 %.
//!
//! Only time spent on the sampling thread can be corrected. The same
//! was tried for the daemon child — pinned to one CPU, with a sampler
//! thread on that CPU between one-second slices of the send window — and
//! did not help: the daemon works in ~50 µs bursts out of idle, which do
//! not slow down the way a busy thread does, and the corrected latencies
//! spread as widely as the raw ones (8 %). Service latencies and daemon
//! CPU time are therefore reported as measured, with a wider bound.

use std::time::Instant;

/// The kernel's duration on the reference host's fast phase. A constant:
/// corrected times from different runs, hosts and commits are comparable
/// because they are all expressed at this one speed.
pub const NOMINAL_NS: f64 = 2_500_000.0;

/// A section longer than this is interrupted for a calibration sample.
pub const RESAMPLE_EVERY_NS: u128 = 250_000_000;

/// The fixed calibration work; its result only defeats dead-code removal.
fn kernel() -> u64 {
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut v: Vec<u64> = (0..40_000).map(|_| next()).collect();
    v.sort_unstable();
    let mut acc = 0u64;
    for _ in 0..40_000 {
        let probe = next();
        acc = acc.wrapping_add(v.partition_point(|&y| y < probe) as u64);
    }
    let mut map = std::collections::BTreeMap::new();
    for (i, y) in v.iter().enumerate().take(20_000) {
        map.insert(*y, i);
    }
    for y in v.iter().take(20_000).step_by(2) {
        map.remove(y);
    }
    acc.wrapping_add(map.len() as u64)
}

/// Runs the kernel once and returns the host's speed relative to nominal
/// (1.0 = nominal, 0.6 = a slow phase).
pub fn sample() -> f64 {
    let t = Instant::now();
    std::hint::black_box(kernel());
    NOMINAL_NS / t.elapsed().as_nanos().max(1) as f64
}

/// CPU nanoseconds the calling thread has run so far (the first field of
/// `/proc/thread-self/schedstat`); `None` where the kernel keeps no
/// scheduler statistics. Reads into a stack buffer: it is called between
/// two readings of the allocation counter and must not move it.
pub fn thread_cpu_ns() -> Option<u64> {
    use std::io::Read;
    let mut buf = [0u8; 96];
    let n = std::fs::File::open("/proc/thread-self/schedstat")
        .ok()?
        .read(&mut buf)
        .ok()?;
    let text = std::str::from_utf8(&buf[..n]).ok()?;
    text.split_whitespace().next()?.parse().ok()
}

/// What a stretch of this thread's work cost: wall time, CPU time and
/// heap allocations, read together.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Spent {
    /// Wall nanoseconds.
    pub wall_ns: f64,
    /// CPU nanoseconds (equal to `wall_ns` where the kernel keeps no
    /// scheduler statistics).
    pub cpu_ns: f64,
    /// Heap allocations.
    pub allocations: u64,
}

impl std::ops::AddAssign for Spent {
    fn add_assign(&mut self, other: Spent) {
        self.wall_ns += other.wall_ns;
        self.cpu_ns += other.cpu_ns;
        self.allocations += other.allocations;
    }
}

impl std::ops::Sub for Spent {
    type Output = Spent;
    fn sub(self, other: Spent) -> Spent {
        Spent {
            wall_ns: self.wall_ns - other.wall_ns,
            cpu_ns: (self.cpu_ns - other.cpu_ns).max(0.0),
            allocations: self.allocations - other.allocations,
        }
    }
}

/// A running measurement of [`Spent`].
pub struct Stopwatch {
    at: Instant,
    cpu_ns: Option<u64>,
    allocations: u64,
}

impl Stopwatch {
    /// Starts measuring.
    pub fn start() -> Stopwatch {
        Stopwatch {
            cpu_ns: thread_cpu_ns(),
            allocations: crate::alloc::count(),
            at: Instant::now(),
        }
    }

    /// What was spent since [`Stopwatch::start`].
    pub fn stop(self) -> Spent {
        let wall_ns = self.at.elapsed().as_nanos() as f64;
        let allocations = crate::alloc::count() - self.allocations;
        let cpu_ns = match (self.cpu_ns, thread_cpu_ns()) {
            (Some(a), Some(b)) => (b - a) as f64,
            _ => wall_ns,
        };
        Spent {
            wall_ns,
            cpu_ns,
            allocations,
        }
    }
}

/// A timed section with its speed samples.
#[derive(Clone, Debug, Default)]
pub struct Section {
    /// Wall nanoseconds the section's own work took (calibration pauses
    /// excluded).
    pub raw_ns: f64,
    /// CPU nanoseconds this thread spent on it (equal to `raw_ns` where
    /// the kernel keeps no scheduler statistics).
    pub cpu_ns: f64,
    /// Heap allocations this thread made for it (the speed samples' own
    /// allocations excluded, like their time).
    pub allocations: u64,
    /// Relative host speed, one entry per calibration sample taken
    /// before, during and after the section.
    pub speeds: Vec<f64>,
}

impl Section {
    /// Mean relative speed over the section.
    pub fn speed(&self) -> f64 {
        if self.speeds.is_empty() {
            return 1.0;
        }
        self.speeds.iter().sum::<f64>() / self.speeds.len() as f64
    }

    /// The section's duration at nominal host speed: work done is
    /// `∫ speed dt`, which uniform sampling estimates as `raw × mean`.
    pub fn corrected_ns(&self) -> f64 {
        self.raw_ns * self.speed()
    }

    /// The section's CPU time at nominal host speed.
    pub fn corrected_cpu_ns(&self) -> f64 {
        self.cpu_ns * self.speed()
    }

    /// Folds another section into this one (cells of one pass).
    pub fn absorb(&mut self, other: &Section) {
        self.raw_ns += other.raw_ns;
        self.cpu_ns += other.cpu_ns;
        self.allocations += other.allocations;
        self.speeds.extend_from_slice(&other.speeds);
    }
}

impl Section {
    /// A section that cost `spent` under the given speed samples.
    pub fn new(spent: Spent, speeds: Vec<f64>) -> Section {
        Section {
            raw_ns: spent.wall_ns,
            cpu_ns: spent.cpu_ns,
            allocations: spent.allocations,
            speeds,
        }
    }
}

/// Times `work` bracketed by one calibration sample on each side.
pub fn bracketed<T>(work: impl FnOnce() -> T) -> (T, Section) {
    let before = sample();
    let watch = Stopwatch::start();
    let out = work();
    let spent = watch.stop();
    (out, Section::new(spent, vec![before, sample()]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn correction_scales_by_the_mean_speed() {
        let s = Section {
            raw_ns: 1_000.0,
            cpu_ns: 900.0,
            allocations: 7,
            speeds: vec![0.5, 0.7],
        };
        assert!((s.corrected_ns() - 600.0).abs() < 1e-9);
        assert!((s.corrected_cpu_ns() - 540.0).abs() < 1e-9);
        let mut a = Section {
            raw_ns: 100.0,
            cpu_ns: 100.0,
            allocations: 1,
            speeds: vec![1.0],
        };
        a.absorb(&s);
        assert_eq!(a.raw_ns, 1_100.0);
        assert_eq!(a.allocations, 8);
        assert_eq!(a.speeds.len(), 3);
        assert_eq!(Section::default().corrected_ns(), 0.0);
    }

    #[test]
    fn pauses_come_out_of_what_was_spent() {
        let whole = Spent {
            wall_ns: 10.0,
            cpu_ns: 9.0,
            allocations: 5,
        };
        let mut paused = Spent::default();
        paused += Spent {
            wall_ns: 4.0,
            cpu_ns: 4.0,
            allocations: 2,
        };
        let own = whole - paused;
        assert_eq!((own.wall_ns, own.cpu_ns, own.allocations), (6.0, 5.0, 3));
        let (_, section) = bracketed(|| std::hint::black_box(vec![1u8; 64]));
        assert!(section.raw_ns > 0.0);
        assert_eq!(section.speeds.len(), 2);
    }

    #[test]
    fn kernel_is_deterministic() {
        assert_eq!(kernel(), kernel());
    }
}
