//! The decider mechanisms: simple, advanced, and the paper's new
//! preferred decider.
//!
//! A decider receives one score per candidate policy (lower = better; see
//! [`dynp_metrics::Objective`]) plus the currently active ("old") policy,
//! and returns the policy to use next together with the rule that fired
//! (the decision audit trail's label).
//!
//! Conventions shared by all deciders:
//! * scores arrive in the canonical candidate order (FCFS, SJF, LJF for
//!   the paper's setup) — ties that must break *somewhere* break towards
//!   the earlier candidate, which reproduces the FCFS/SJF preferences in
//!   the paper's Table 1;
//! * a candidate ties for best when its score is within ε of the best
//!   one, the one relation of `compare.rs`.

use crate::compare::{approx_le, approx_lt, tied_for_best, EPSILON};
use dynp_rms::Policy;
use serde::{Deserialize, Serialize};

fn position(scores: &[(Policy, f64)], p: Policy) -> Option<usize> {
    scores.iter().position(|&(q, _)| q == p)
}

/// The **simple decider** of the earlier dynP work: pure argmin with
/// candidate-order tie-break, ignoring the old policy. Equivalent to the
/// paper's three if-then-else constructs
/// (`FCFS if vF ≤ vS ∧ vF ≤ vL, else SJF if vS ≤ vL, else LJF`) —
/// and therefore wrong in the four tie cases of Table 1. The rule is
/// `"argmin"` for a unique minimum, `"tie-first-candidate"` when the
/// candidate-order tie-break (the flaw Table 1 documents) picked among
/// equals.
fn simple(scores: &[(Policy, f64)], tied: u32) -> (Policy, &'static str) {
    let (chosen, _) = *scores
        .get(tied.trailing_zeros() as usize)
        .expect("a candidate scored other than NaN ties for best");
    if tied.count_ones() > 1 {
        (chosen, "tie-first-candidate")
    } else {
        (chosen, "argmin")
    }
}

/// The **advanced decider**: the "correct decision" column of Table 1.
/// Stays with the old policy whenever it ties for best; otherwise picks
/// the best policy (candidate-order tie-break among equals). The rule is
/// `"argmin"` (unique best, incumbent or not), `"stay-incumbent-tied"`
/// (the incumbent tied for best and was kept — the Table 1 correction),
/// or `"tie-first-candidate"` (incumbent out of the argmin set, which has
/// a tie among the others).
fn advanced(scores: &[(Policy, f64)], old: Policy, tied: u32) -> (Policy, &'static str) {
    match position(scores, old) {
        Some(i) if tied & 1 << i != 0 && tied.count_ones() > 1 => (old, "stay-incumbent-tied"),
        Some(i) if tied & 1 << i != 0 => (old, "argmin"),
        _ => simple(scores, tied),
    }
}

/// The **preferred decider** — the paper's contribution. "The new
/// preferred decider stays with its preferred policy, unless any other
/// policy is clearly better. Whenever any of the other, non-preferred
/// policies are currently used, the preferred policy has to achieve only
/// an equal performance and the preferred decider switches back."
///
/// `threshold` quantifies "clearly better" as a relative margin: while
/// the preferred policy is active, another policy only wins if its score
/// undercuts the preferred score by more than `threshold` (relative).
/// The paper does not quantify the margin; `threshold = 0` makes
/// "clearly better" mean "strictly better", which is the setting used for
/// the headline experiments (an ablation sweeps it).
///
/// The rule is `"preferred-best"` (the preferred policy ties for best),
/// `"preferred-holds"` (it is active and no other policy is clearly
/// better), `"clearly-better"` (another policy beat it past the
/// threshold), `"switch-back-parity"` (a non-preferred policy was active
/// and the preferred one matched it), `"advanced-fallback"` (preferred
/// policy not among the candidates), or an advanced-decider rule when
/// none of the unfair rules applied.
fn preferred(
    scores: &[(Policy, f64)],
    old: Policy,
    tied: u32,
    preferred: Policy,
    threshold: f64,
) -> (Policy, &'static str) {
    let Some(p) = position(scores, preferred) else {
        return (advanced(scores, old, tied).0, "advanced-fallback");
    };
    // Preferred ties for best → use it (covers both "stay" and "switch
    // back on equal performance").
    if tied & 1 << p != 0 {
        return (preferred, "preferred-best");
    }
    let v_pref = scores[p].1;
    if old == preferred {
        // Leave the preferred policy only for a CLEARLY better one.
        let best = scores.iter().map(|&(_, v)| v).fold(f64::INFINITY, f64::min);
        if approx_lt(best, v_pref - v_pref.abs() * threshold) {
            return (advanced(scores, old, tied).0, "clearly-better");
        }
        return (preferred, "preferred-holds");
    }
    // A non-preferred policy is active. Switching back needs only equal
    // performance *against the active policy*.
    match position(scores, old) {
        Some(i) if approx_le(v_pref, scores[i].1) => (preferred, "switch-back-parity"),
        _ => advanced(scores, old, tied),
    }
}

/// A decider selection, carried by experiment configurations.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum DeciderKind {
    /// The prior-work simple decider.
    Simple,
    /// The fair advanced decider.
    Advanced,
    /// The unfair preferred decider with its preferred policy and
    /// "clearly better" threshold.
    Preferred {
        /// The policy the decider is unfair towards.
        policy: Policy,
        /// Relative margin another policy must beat the preferred one by
        /// while it is active (0 = strictly better).
        threshold: f64,
    },
}

impl DeciderKind {
    /// Applies the decider: its verdict, and the rule that produced it
    /// (for the decision audit trail; the labels are listed on the
    /// private `simple`, `advanced` and `preferred`).
    pub(crate) fn verdict(self, scores: &[(Policy, f64)], old: Policy) -> (Policy, &'static str) {
        let tied = tied_for_best(scores);
        match self {
            DeciderKind::Simple => simple(scores, tied),
            DeciderKind::Advanced => advanced(scores, old, tied),
            DeciderKind::Preferred { policy, threshold } => {
                preferred(scores, old, tied, policy, threshold)
            }
        }
    }

    /// The verdict alone. `eps` must be 1e-9: the tie tolerance is not a
    /// setting, and a debug build checks that the caller passes the one
    /// every decision uses. The parameter stays for the benchmark's
    /// `core.decide_ns` measure, which passes it.
    pub fn decide(self, scores: &[(Policy, f64)], old: Policy, eps: f64) -> Policy {
        debug_assert_eq!(eps, EPSILON, "the tie tolerance is not a setting");
        self.verdict(scores, old).0
    }

    /// Display name, e.g. `"advanced"` or `"SJF-preferred"`.
    pub fn name(self) -> String {
        match self {
            DeciderKind::Simple => "simple".to_string(),
            DeciderKind::Advanced => "advanced".to_string(),
            DeciderKind::Preferred { policy, threshold } => {
                if threshold == 0.0 {
                    format!("{}-preferred", policy.name())
                } else {
                    format!("{}-preferred(th={threshold})", policy.name())
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use Policy::{Fcfs, Ljf, Sjf};

    fn scores(f: f64, s: f64, l: f64) -> Vec<(Policy, f64)> {
        vec![(Fcfs, f), (Sjf, s), (Ljf, l)]
    }

    fn preferred_of(policy: Policy, threshold: f64) -> DeciderKind {
        DeciderKind::Preferred { policy, threshold }
    }

    fn simple_decide(scores: &[(Policy, f64)], old: Policy) -> Policy {
        DeciderKind::Simple.verdict(scores, old).0
    }

    fn advanced_decide(scores: &[(Policy, f64)], old: Policy) -> Policy {
        DeciderKind::Advanced.verdict(scores, old).0
    }

    fn preferred_decide(s: &[(Policy, f64)], old: Policy, p: Policy, threshold: f64) -> Policy {
        preferred_of(p, threshold).verdict(s, old).0
    }

    #[test]
    fn simple_picks_strict_minimum() {
        assert_eq!(simple_decide(&scores(3.0, 1.0, 2.0), Fcfs), Sjf);
        assert_eq!(simple_decide(&scores(1.0, 3.0, 2.0), Ljf), Fcfs);
        assert_eq!(simple_decide(&scores(3.0, 2.0, 1.0), Sjf), Ljf);
    }

    #[test]
    fn simple_breaks_ties_towards_fcfs_then_sjf() {
        // All equal → FCFS regardless of old (the Table 1 case-1 flaw).
        assert_eq!(simple_decide(&scores(2.0, 2.0, 2.0), Ljf), Fcfs);
        // SJF = LJF < FCFS → SJF.
        assert_eq!(simple_decide(&scores(3.0, 2.0, 2.0), Ljf), Sjf);
    }

    #[test]
    fn advanced_stays_with_old_on_ties() {
        assert_eq!(advanced_decide(&scores(2.0, 2.0, 2.0), Ljf), Ljf);
        assert_eq!(advanced_decide(&scores(2.0, 2.0, 3.0), Sjf), Sjf);
        // Old not in the argmin → best wins.
        assert_eq!(advanced_decide(&scores(2.0, 1.0, 3.0), Fcfs), Sjf);
    }

    #[test]
    fn preferred_stays_unless_clearly_better() {
        // Preferred SJF active and tied with FCFS → stay on SJF (the
        // simple/advanced deciders would both leave for FCFS here only if
        // FCFS were better; with a tie advanced also stays — the
        // difference shows when SJF is slightly WORSE).
        assert_eq!(preferred_decide(&scores(2.0, 2.0, 3.0), Sjf, Sjf, 0.0), Sjf);
        // FCFS strictly better → with threshold 0 that is "clearly
        // better": leave.
        assert_eq!(
            preferred_decide(&scores(1.9, 2.0, 3.0), Sjf, Sjf, 0.0),
            Fcfs
        );
        // With a 10% threshold a 5% advantage is not clear enough.
        assert_eq!(
            preferred_decide(&scores(1.9, 2.0, 3.0), Sjf, Sjf, 0.10),
            Sjf
        );
        // A 20% advantage is.
        assert_eq!(
            preferred_decide(&scores(1.6, 2.0, 3.0), Sjf, Sjf, 0.10),
            Fcfs
        );
    }

    #[test]
    fn preferred_switches_back_on_equal_performance() {
        // FCFS active; SJF merely EQUAL to FCFS → switch back to SJF.
        assert_eq!(
            preferred_decide(&scores(2.0, 2.0, 3.0), Fcfs, Sjf, 0.0),
            Sjf
        );
        // SJF even slightly worse than the active FCFS → no switch;
        // advanced semantics keep FCFS (it is the argmin).
        assert_eq!(
            preferred_decide(&scores(2.0, 2.1, 3.0), Fcfs, Sjf, 0.0),
            Fcfs
        );
        // SJF worse than active FCFS but LJF best → go to LJF.
        assert_eq!(
            preferred_decide(&scores(2.0, 2.5, 1.0), Fcfs, Sjf, 0.0),
            Ljf
        );
        // SJF beats the ACTIVE policy but a third policy is even better:
        // the paper's rule only requires parity with the active policy,
        // so the preferred policy wins.
        assert_eq!(
            preferred_decide(&scores(2.5, 2.0, 1.8), Fcfs, Sjf, 0.0),
            Sjf
        );
    }

    #[test]
    fn preferred_is_argmin_when_it_ties_the_best() {
        assert_eq!(preferred_decide(&scores(2.0, 2.0, 2.0), Ljf, Sjf, 0.0), Sjf);
    }

    #[test]
    fn preferred_without_candidate_falls_back_to_advanced() {
        let two = vec![(Fcfs, 2.0), (Ljf, 1.0)];
        assert_eq!(preferred_decide(&two, Fcfs, Sjf, 0.0), Ljf);
    }

    #[test]
    fn kinds_dispatch_and_name() {
        let s = scores(2.0, 2.0, 2.0);
        assert_eq!(DeciderKind::Simple.decide(&s, Ljf, EPSILON), Fcfs);
        assert_eq!(DeciderKind::Advanced.decide(&s, Ljf, EPSILON), Ljf);
        let pref = DeciderKind::Preferred {
            policy: Sjf,
            threshold: 0.0,
        };
        assert_eq!(pref.decide(&s, Ljf, EPSILON), Sjf);
        assert_eq!(pref.name(), "SJF-preferred");
        assert_eq!(DeciderKind::Advanced.name(), "advanced");
        assert_eq!(
            DeciderKind::Preferred {
                policy: Fcfs,
                threshold: 0.05
            }
            .name(),
            "FCFS-preferred(th=0.05)"
        );
    }

    #[test]
    fn each_verdict_names_the_branch_taken() {
        // Unique minimum: plain argmin for everyone.
        let s = scores(3.0, 1.0, 2.0);
        assert_eq!(DeciderKind::Simple.verdict(&s, Fcfs), (Sjf, "argmin"));
        assert_eq!(DeciderKind::Advanced.verdict(&s, Fcfs), (Sjf, "argmin"));

        // Three-way tie: the simple decider's flawed tie-break vs the
        // advanced decider's stay rule (Table 1 case 1).
        let tie = scores(2.0, 2.0, 2.0);
        assert_eq!(
            DeciderKind::Simple.verdict(&tie, Ljf),
            (Fcfs, "tie-first-candidate")
        );
        assert_eq!(
            DeciderKind::Advanced.verdict(&tie, Ljf),
            (Ljf, "stay-incumbent-tied")
        );
        // Incumbent out of a tied argmin set → the tie-break fires.
        let pair = scores(2.0, 2.0, 3.0);
        assert_eq!(
            DeciderKind::Advanced.verdict(&pair, Ljf),
            (Fcfs, "tie-first-candidate")
        );

        // Preferred-decider rules.
        assert_eq!(
            preferred_of(Sjf, 0.0).verdict(&tie, Ljf),
            (Sjf, "preferred-best")
        );
        assert_eq!(
            preferred_of(Sjf, 0.10).verdict(&scores(1.9, 2.0, 3.0), Sjf),
            (Sjf, "preferred-holds")
        );
        assert_eq!(
            preferred_of(Sjf, 0.10).verdict(&scores(1.6, 2.0, 3.0), Sjf),
            (Fcfs, "clearly-better")
        );
        assert_eq!(
            preferred_of(Sjf, 0.0).verdict(&scores(2.5, 2.0, 1.8), Fcfs),
            (Sjf, "switch-back-parity")
        );
        let two = vec![(Fcfs, 2.0), (Ljf, 1.0)];
        assert_eq!(
            preferred_of(Sjf, 0.0).verdict(&two, Fcfs),
            (Ljf, "advanced-fallback")
        );
    }

    mod properties {
        use super::*;
        use crate::compare::LOST_MARGIN;
        use proptest::prelude::*;

        fn score_of(scores: &[(Policy, f64)], p: Policy) -> f64 {
            scores.iter().find(|&&(q, _)| q == p).unwrap().1
        }

        fn arb_scores() -> impl Strategy<Value = Vec<(Policy, f64)>> {
            // Draw from a small grid so exact ties happen often — the
            // tie cases are where the deciders differ.
            let v = prop_oneof![Just(1.0f64), Just(2.0), Just(3.0), 0.5f64..5.0];
            (v.clone(), v.clone(), v).prop_map(|(f, s, l)| vec![(Fcfs, f), (Sjf, s), (Ljf, l)])
        }

        fn arb_old() -> impl Strategy<Value = Policy> {
            prop_oneof![Just(Fcfs), Just(Sjf), Just(Ljf)]
        }

        proptest! {
            /// No decider ever installs a policy scored worse than the
            /// incumbent: dynP can only keep or improve the planned
            /// metric at each step.
            #[test]
            fn never_worse_than_the_incumbent(
                scores in arb_scores(),
                old in arb_old(),
                threshold in 0.0f64..0.5,
            ) {
                let v_old = score_of(&scores, old);
                for (label, chosen) in [
                    ("simple", simple_decide(&scores, old)),
                    ("advanced", advanced_decide(&scores, old)),
                    (
                        "preferred",
                        preferred_decide(&scores, old, Sjf, threshold),
                    ),
                ] {
                    let v_new = score_of(&scores, chosen);
                    prop_assert!(
                        v_new <= v_old + 1e-9,
                        "{label} switched {old}→{chosen}: {v_old} → {v_new}"
                    );
                }
            }

            /// Simple and advanced always return an argmin policy; they
            /// only differ in WHICH argmin member they pick.
            #[test]
            fn simple_and_advanced_return_argmin(
                scores in arb_scores(),
                old in arb_old(),
            ) {
                let best = scores.iter().map(|&(_, v)| v).fold(f64::INFINITY, f64::min);
                for chosen in [
                    simple_decide(&scores, old),
                    advanced_decide(&scores, old),
                ] {
                    prop_assert!(score_of(&scores, chosen) <= best + 1e-9);
                }
            }

            /// The preferred decider with the preferred policy in the
            /// argmin set always returns it, whatever was active.
            #[test]
            fn preferred_takes_ties(
                scores in arb_scores(),
                old in arb_old(),
            ) {
                let best = scores.iter().map(|&(_, v)| v).fold(f64::INFINITY, f64::min);
                let chosen = preferred_decide(&scores, old, Sjf, 0.0);
                if (score_of(&scores, Sjf) - best).abs() < 1e-12 {
                    prop_assert_eq!(chosen, Sjf);
                }
            }

            /// What lets the scheduler stop planning a policy that has
            /// lost: a decider reads a score only through how it compares
            /// with the best one, the incumbent's and the preferred
            /// policy's. With those two exact, a score past the best by
            /// the scheduler's margin (`LOST_MARGIN`, relative to the
            /// larger of the best score and 1) can be replaced by any larger one —
            /// the lower bound by the true score — without changing the
            /// verdict or the rule that gave it.
            #[test]
            fn a_lost_score_can_be_any_larger_score(
                scores in arb_scores(),
                old in arb_old(),
                raise in proptest::collection::vec(1.0f64..1e6, 3..4),
                by_sum in prop_oneof![Just(false), Just(true)],
            ) {
                let best = scores.iter().map(|&(_, v)| v).fold(f64::INFINITY, f64::min);
                let lost = best + LOST_MARGIN * best.max(1.0);
                for kind in [
                    DeciderKind::Simple,
                    DeciderKind::Advanced,
                    DeciderKind::Preferred { policy: Sjf, threshold: 0.0 },
                    DeciderKind::Preferred { policy: Sjf, threshold: 0.1 },
                ] {
                    let exact = |p: Policy| {
                        p == old || matches!(kind, DeciderKind::Preferred { policy, .. } if p == policy)
                    };
                    let mut raised = scores.clone();
                    for ((p, v), r) in raised.iter_mut().zip(&raise) {
                        if !exact(*p) && *v > lost {
                            *v = if by_sum { *v + r } else { *v * r };
                        }
                    }
                    prop_assert_eq!(
                        kind.verdict(&scores, old),
                        kind.verdict(&raised, old),
                        "{:?}: {:?} -> {:?}", kind, scores, raised
                    );
                }
            }

            /// Deciders are deterministic and total over their inputs.
            #[test]
            fn decisions_are_deterministic(
                scores in arb_scores(),
                old in arb_old(),
            ) {
                for kind in [
                    DeciderKind::Simple,
                    DeciderKind::Advanced,
                    DeciderKind::Preferred { policy: Sjf, threshold: 0.1 },
                ] {
                    let a = kind.verdict(&scores, old).0;
                    let b = kind.verdict(&scores, old).0;
                    prop_assert_eq!(a, b);
                    prop_assert!(scores.iter().any(|&(p, _)| p == a));
                }
            }
        }
    }

    #[test]
    fn epsilon_ties_are_respected() {
        // Scores differing by round-off count as equal: advanced stays.
        let s = vec![(Fcfs, 0.1 + 0.2), (Sjf, 0.3), (Ljf, 0.5)];
        assert_eq!(advanced_decide(&s, Sjf), Sjf);
        assert_eq!(simple_decide(&s, Sjf), Fcfs);
    }
}
