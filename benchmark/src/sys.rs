//! The two Linux calls the standard library has no wrapper for: timer
//! slack (so an open-loop sender wakes when its request is due, not
//! 50 µs later) and CPU affinity (so the daemon, the load generator and
//! the host-speed samples each know which CPU they are on).

use std::os::raw::{c_int, c_ulong};

extern "C" {
    fn prctl(option: c_int, arg2: c_ulong, arg3: c_ulong, arg4: c_ulong, arg5: c_ulong) -> c_int;
    fn sched_setaffinity(pid: c_int, cpusetsize: usize, mask: *const u64) -> c_int;
    fn sched_getaffinity(pid: c_int, cpusetsize: usize, mask: *mut u64) -> c_int;
}

const PR_SET_TIMERSLACK: c_int = 29;

/// Sets the calling thread's timer slack to the minimum (1 ns). The
/// default 50 µs is added to every `sleep`, which an open-loop generator
/// at 250 µs spacing would report as admission latency.
pub fn minimise_timer_slack() {
    // SAFETY: PR_SET_TIMERSLACK takes a plain integer and affects only
    // the calling thread's timers; the remaining arguments are ignored.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0);
    }
}

/// CPUs the calling thread may run on, as a bit mask of the first 64.
pub fn allowed_cpus() -> u64 {
    let mut mask = 0u64;
    // SAFETY: `mask` is a valid, writable 8-byte buffer and the size
    // passed is its size; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<u64>(), &mut mask) };
    if rc == 0 {
        mask
    } else {
        0
    }
}

/// Restricts the calling thread (and every thread or process it starts
/// afterwards) to the CPUs in `mask`; false when the kernel refused.
pub fn pin_to(mask: u64) -> bool {
    // SAFETY: `mask` is a valid 8-byte buffer and the size passed is its
    // size; pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<u64>(), &mask) == 0 }
}

/// The lowest and the highest allowed CPU as single-CPU masks: the
/// daemon's CPU and the load generator's. Equal on a one-CPU host.
pub fn daemon_and_generator_cpus() -> (u64, u64) {
    let allowed = allowed_cpus();
    if allowed == 0 {
        return (0, 0);
    }
    let low = 1u64 << allowed.trailing_zeros();
    let high = 1u64 << (63 - allowed.leading_zeros());
    (low, high)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinning_round_trips() {
        let before = allowed_cpus();
        assert_ne!(before, 0);
        let (low, high) = daemon_and_generator_cpus();
        assert_eq!(low.count_ones(), 1);
        assert_eq!(high.count_ones(), 1);
        assert!(pin_to(low));
        assert_eq!(allowed_cpus(), low);
        assert!(pin_to(before));
        assert_eq!(allowed_cpus(), before);
    }
}
