//! The simulation digest: a stable hash of what a run *computed*, so a
//! pass that got faster by computing something else fails its check.

use dynp_core::SwitchStats;
use dynp_sim::DetailedRun;

/// FNV-1a, written out so the digest does not depend on the standard
/// library's (unspecified) default hasher.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one 64-bit word in.
    pub fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds one finished single-cluster run in: SLDwA bits, utilisation
    /// bits, event count, job outcome counts and — for dynP — the switch
    /// count into each policy.
    pub fn run(&mut self, run: &DetailedRun, switches: Option<&SwitchStats>) {
        self.word(run.result.metrics.sldwa.to_bits());
        self.word(run.result.metrics.utilization.to_bits());
        self.word(run.result.events);
        self.word(run.completed.len() as u64);
        self.word(run.faults.lost);
        if let Some(stats) = switches {
            self.word(stats.decisions);
            for &n in &stats.switched_to {
                self.word(n);
            }
        }
    }

    /// The digest as the 16 hex digits stored under `expected/`.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_stable_and_order_sensitive() {
        let mut a = Digest::default();
        a.word(1);
        a.word(2);
        // Pinned: FNV-1a over the 16 little-endian bytes of (1, 2).
        assert_eq!(a.hex(), "7717980363c8e066");
        let mut b = Digest::default();
        b.word(2);
        b.word(1);
        assert_ne!(a, b);
        assert_eq!(Digest::default().hex(), "cbf29ce484222325");
    }
}
