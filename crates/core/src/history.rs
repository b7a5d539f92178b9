//! Post-hoc analysis of a dynP run's policy-switch history.
//!
//! The switch log ([`crate::SwitchStats::log`]) records *when* the active
//! policy changed; this module turns it into the quantities one asks
//! about a policy-switching scheduler: how long was each policy in force,
//! how often did it switch, did it oscillate?

use dynp_des::{SimDuration, SimTime};
use dynp_rms::{Policy, SwitchStats};
use std::collections::BTreeMap;

/// One interval during which a single policy was active.
#[derive(Clone, Debug, PartialEq)]
pub struct PolicySegment {
    /// Segment start.
    pub start: SimTime,
    /// Segment end (exclusive).
    pub end: SimTime,
    /// Active policy.
    pub policy: Policy,
}

impl PolicySegment {
    /// Length of the segment.
    pub(crate) fn duration(&self) -> SimDuration {
        self.end.saturating_since(self.start)
    }
}

/// The reconstructed policy timeline of one run.
#[derive(Clone, Debug, Default)]
pub struct PolicyHistory {
    segments: Vec<PolicySegment>,
}

impl PolicyHistory {
    /// Reconstructs the timeline from a run's switch statistics: the
    /// initial policy holds from `start` until the first logged switch,
    /// and the last policy holds until `end`.
    pub fn reconstruct(
        initial: Policy,
        stats: &SwitchStats,
        start: SimTime,
        end: SimTime,
    ) -> PolicyHistory {
        let mut segments = Vec::with_capacity(stats.log.len() + 1);
        let mut current = initial;
        let mut seg_start = start;
        for &(time, next) in &stats.log {
            if time > seg_start {
                segments.push(PolicySegment {
                    start: seg_start,
                    end: time,
                    policy: current,
                });
                seg_start = time;
            }
            current = next;
        }
        if end > seg_start {
            segments.push(PolicySegment {
                start: seg_start,
                end,
                policy: current,
            });
        }
        PolicyHistory { segments }
    }

    /// The timeline segments, in order.
    pub fn segments(&self) -> &[PolicySegment] {
        &self.segments
    }

    /// Total simulated time covered.
    pub(crate) fn span(&self) -> SimDuration {
        match (self.segments.first(), self.segments.last()) {
            (Some(first), Some(last)) => last.end.saturating_since(first.start),
            _ => SimDuration::ZERO,
        }
    }

    /// Time the given policy was in force.
    pub(crate) fn time_in(&self, policy: Policy) -> SimDuration {
        self.segments
            .iter()
            .filter(|s| s.policy == policy)
            .fold(SimDuration::ZERO, |acc, s| acc + s.duration())
    }

    /// Fraction of the span the given policy was in force (0 when the
    /// span is empty).
    pub(crate) fn fraction_in(&self, policy: Policy) -> f64 {
        let span = self.span().as_secs_f64();
        if span <= 0.0 {
            return 0.0;
        }
        self.time_in(policy).as_secs_f64() / span
    }

    /// Number of policy changes.
    pub fn switches(&self) -> usize {
        self.segments.len().saturating_sub(1)
    }

    /// Mean time between switches; the whole span when there were none.
    pub fn mean_residence_secs(&self) -> f64 {
        if self.segments.is_empty() {
            return 0.0;
        }
        self.span().as_secs_f64() / self.segments.len() as f64
    }

    /// Per-policy time shares, by policy name, for reporting.
    pub fn shares(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for policy in Policy::ALL {
            let f = self.fraction_in(policy);
            if f > 0.0 {
                out.insert(policy.name(), f);
            }
        }
        out
    }

    /// Detects rapid oscillation: the share of segments shorter than
    /// `window`. A value near 1 means the decider flaps.
    pub fn flapping_share(&self, window: SimDuration) -> f64 {
        if self.segments.is_empty() {
            return 0.0;
        }
        let short = self
            .segments
            .iter()
            .filter(|s| s.duration() < window)
            .count();
        short as f64 / self.segments.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    fn stats_with_log(entries: &[(u64, Policy)]) -> SwitchStats {
        SwitchStats {
            decisions: entries.len() as u64,
            switches: entries.len() as u64,
            chosen: Default::default(),
            switched_to: Default::default(),
            log: entries.iter().map(|&(s, p)| (t(s), p)).collect(),
        }
    }

    #[test]
    fn reconstructs_segments_with_boundaries() {
        let stats = stats_with_log(&[(100, Policy::Sjf), (300, Policy::Ljf)]);
        let h = PolicyHistory::reconstruct(Policy::Fcfs, &stats, t(0), t(1_000));
        assert_eq!(h.segments().len(), 3);
        assert_eq!(h.segments()[0].policy, Policy::Fcfs);
        assert_eq!(h.segments()[0].duration(), SimDuration::from_secs(100));
        assert_eq!(h.segments()[1].policy, Policy::Sjf);
        assert_eq!(h.segments()[1].duration(), SimDuration::from_secs(200));
        assert_eq!(h.segments()[2].policy, Policy::Ljf);
        assert_eq!(h.segments()[2].duration(), SimDuration::from_secs(700));
        assert_eq!(h.switches(), 2);
        assert_eq!(h.span(), SimDuration::from_secs(1_000));
    }

    #[test]
    fn time_accounting_sums_split_segments() {
        let stats = stats_with_log(&[(100, Policy::Sjf), (200, Policy::Fcfs), (400, Policy::Sjf)]);
        let h = PolicyHistory::reconstruct(Policy::Fcfs, &stats, t(0), t(500));
        // FCFS: [0,100) + [200,400) = 300; SJF: [100,200) + [400,500) = 200.
        assert_eq!(h.time_in(Policy::Fcfs), SimDuration::from_secs(300));
        assert_eq!(h.time_in(Policy::Sjf), SimDuration::from_secs(200));
        assert_eq!(h.time_in(Policy::Ljf), SimDuration::ZERO);
        assert!((h.fraction_in(Policy::Fcfs) - 0.6).abs() < 1e-12);
        let shares = h.shares();
        assert_eq!(shares.len(), 2);
        assert!((shares["SJF"] - 0.4).abs() < 1e-12);
    }

    #[test]
    fn no_switches_is_one_segment() {
        let stats = SwitchStats::default();
        let h = PolicyHistory::reconstruct(Policy::Sjf, &stats, t(0), t(100));
        assert_eq!(h.segments().len(), 1);
        assert_eq!(h.switches(), 0);
        assert_eq!(h.fraction_in(Policy::Sjf), 1.0);
        assert_eq!(h.mean_residence_secs(), 100.0);
    }

    #[test]
    fn empty_span_is_benign() {
        let stats = SwitchStats::default();
        let h = PolicyHistory::reconstruct(Policy::Sjf, &stats, t(5), t(5));
        assert!(h.segments().is_empty());
        assert_eq!(h.fraction_in(Policy::Sjf), 0.0);
        assert_eq!(h.flapping_share(SimDuration::from_secs(1)), 0.0);
    }

    #[test]
    fn flapping_detection() {
        // Three 1-second segments then a long one.
        let stats = stats_with_log(&[(1, Policy::Sjf), (2, Policy::Fcfs), (3, Policy::Ljf)]);
        let h = PolicyHistory::reconstruct(Policy::Fcfs, &stats, t(0), t(1_000));
        let share = h.flapping_share(SimDuration::from_secs(5));
        assert!((share - 0.75).abs() < 1e-12, "{share}");
    }

    #[test]
    fn coincident_switch_times_collapse() {
        // A switch logged at the same instant as the previous one
        // produces no zero-length segment.
        let stats = stats_with_log(&[(10, Policy::Sjf), (10, Policy::Ljf)]);
        let h = PolicyHistory::reconstruct(Policy::Fcfs, &stats, t(0), t(100));
        assert_eq!(h.segments().len(), 2);
        assert_eq!(h.segments()[1].policy, Policy::Ljf);
    }
}
