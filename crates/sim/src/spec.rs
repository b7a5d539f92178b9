//! Serializable scheduler specifications — experiments as data.

use dynp_core::{DecideOn, DeciderKind, DynPConfig, SelfTuningScheduler};
use dynp_metrics::Objective;
use dynp_rms::{EasyBackfillScheduler, Policy, Scheduler, StaticScheduler};
use serde::{Deserialize, Serialize};

/// A scheduler recipe that can be stored in experiment configurations and
/// instantiated per run.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum SchedulerSpec {
    /// A static single-policy scheduler (the paper's baselines).
    Static(Policy),
    /// The self-tuning dynP scheduler.
    DynP {
        /// Decider mechanism.
        decider: DeciderKind,
        /// Objective the plans are scored with.
        objective: Objective,
        /// Which events trigger decisions.
        decide_on: DecideOn,
    },
    /// Queueing scheduler with EASY backfilling in the given queue order
    /// (the non-planning comparator, ablation A4).
    Easy(Policy),
}

impl SchedulerSpec {
    /// dynP with the paper's defaults (SLDwA objective, decisions at
    /// every event) and the given decider.
    pub fn dynp(decider: DeciderKind) -> Self {
        SchedulerSpec::DynP {
            decider,
            objective: Objective::SlowdownWeightedByArea,
            decide_on: DecideOn::AllEvents,
        }
    }

    /// The paper's headline line-up: FCFS, SJF, LJF, dynP-advanced,
    /// dynP-SJF-preferred.
    pub fn paper_lineup() -> Vec<SchedulerSpec> {
        vec![
            SchedulerSpec::Static(Policy::Fcfs),
            SchedulerSpec::Static(Policy::Sjf),
            SchedulerSpec::Static(Policy::Ljf),
            SchedulerSpec::dynp(DeciderKind::Advanced),
            SchedulerSpec::dynp(DeciderKind::Preferred {
                policy: Policy::Sjf,
                threshold: 0.0,
            }),
        ]
    }

    /// Instantiates a fresh scheduler (schedulers are stateful, one per
    /// run). A dynP scheduler plans on the calling thread.
    pub fn build(&self) -> Box<dyn Scheduler> {
        self.build_with_threads(1)
    }

    /// Like [`SchedulerSpec::build`], but fans the dynP plan passes out
    /// over `threads` workers. Static and EASY schedulers don't plan per
    /// policy, so the count is a no-op for them.
    pub fn build_with_threads(&self, threads: usize) -> Box<dyn Scheduler> {
        match self {
            SchedulerSpec::Static(policy) => Box::new(StaticScheduler::new(*policy)),
            SchedulerSpec::DynP {
                decider,
                objective,
                decide_on,
            } => {
                let mut config = DynPConfig::paper(*decider);
                config.objective = *objective;
                config.decide_on = *decide_on;
                config.planner_threads = threads;
                Box::new(SelfTuningScheduler::new(config))
            }
            SchedulerSpec::Easy(policy) => Box::new(EasyBackfillScheduler::new(*policy)),
        }
    }

    /// Display name, matching the paper's column heads where applicable.
    pub fn name(&self) -> String {
        match self {
            SchedulerSpec::Static(p) => p.name().to_string(),
            SchedulerSpec::DynP { decider, .. } => format!("dynP[{}]", decider.name()),
            SchedulerSpec::Easy(Policy::Fcfs) => "EASY".to_string(),
            SchedulerSpec::Easy(p) => format!("EASY[{}]", p.name()),
        }
    }
}

/// Parses a scheduler recipe from its command-line spelling — the one
/// syntax of `experiment sweep`, `history_report`, the service bins and
/// `model_check`:
///
/// | spec                                   | meaning                         |
/// |----------------------------------------|---------------------------------|
/// | `FCFS` / `SJF` / `LJF` / `SAF` / `LAF` | static policy (planning)        |
/// | `easy` / `easy:SJF`                    | EASY backfilling (queue order)  |
/// | `dynp` / `dynp:advanced`               | dynP with the advanced decider  |
/// | `dynp:simple`                          | dynP with the simple decider    |
/// | `dynp:preferred:SJF`                   | dynP, SJF-preferred decider     |
/// | `dynp:preferred:SJF:0.05`              | …with a 5 % threshold           |
pub fn parse_scheduler(spec: &str) -> Result<SchedulerSpec, String> {
    let parts: Vec<&str> = spec.split(':').collect();
    match parts.as_slice() {
        [p] if Policy::parse(p).is_some() => Ok(SchedulerSpec::Static(Policy::parse(p).unwrap())),
        ["easy"] => Ok(SchedulerSpec::Easy(Policy::Fcfs)),
        ["easy", p] => Policy::parse(p)
            .map(SchedulerSpec::Easy)
            .ok_or_else(|| format!("unknown policy {p:?}")),
        ["dynp"] | ["dynp", "advanced"] => Ok(SchedulerSpec::dynp(DeciderKind::Advanced)),
        ["dynp", "simple"] => Ok(SchedulerSpec::dynp(DeciderKind::Simple)),
        ["dynp", "preferred", p] => Policy::parse(p)
            .map(|policy| {
                SchedulerSpec::dynp(DeciderKind::Preferred {
                    policy,
                    threshold: 0.0,
                })
            })
            .ok_or_else(|| format!("unknown policy {p:?}")),
        ["dynp", "preferred", p, th] => {
            let policy = Policy::parse(p).ok_or_else(|| format!("unknown policy {p:?}"))?;
            let threshold: f64 = th.parse().map_err(|_| format!("bad threshold {th:?}"))?;
            Ok(SchedulerSpec::dynp(DeciderKind::Preferred {
                policy,
                threshold,
            }))
        }
        _ => Err(format!("unrecognized scheduler spec {spec:?}")),
    }
}

/// Renders a spec back into the command-line spelling [`parse_scheduler`]
/// accepts — the round-trippable textual form the journal headers store,
/// so `--recover` can rebuild the scheduler from the journal alone.
/// (dynP objectives and decision triggers have no CLI spelling; the
/// service only builds paper-default dynP specs, which do.)
pub fn render_scheduler(spec: &SchedulerSpec) -> String {
    match spec {
        SchedulerSpec::Static(p) => p.name().to_string(),
        SchedulerSpec::Easy(Policy::Fcfs) => "easy".to_string(),
        SchedulerSpec::Easy(p) => format!("easy:{}", p.name()),
        SchedulerSpec::DynP { decider, .. } => match decider {
            DeciderKind::Advanced => "dynp".to_string(),
            DeciderKind::Simple => "dynp:simple".to_string(),
            DeciderKind::Preferred { policy, threshold } => {
                if *threshold == 0.0 {
                    format!("dynp:preferred:{}", policy.name())
                } else {
                    format!("dynp:preferred:{}:{}", policy.name(), threshold)
                }
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lineup_matches_the_paper() {
        let names: Vec<String> = SchedulerSpec::paper_lineup()
            .iter()
            .map(SchedulerSpec::name)
            .collect();
        assert_eq!(
            names,
            vec![
                "FCFS",
                "SJF",
                "LJF",
                "dynP[advanced]",
                "dynP[SJF-preferred]"
            ]
        );
    }

    #[test]
    fn build_produces_matching_schedulers() {
        let s = SchedulerSpec::Static(Policy::Ljf).build();
        assert_eq!(s.name(), "LJF");
        let d = SchedulerSpec::dynp(DeciderKind::Simple).build();
        assert_eq!(d.name(), "dynP[simple]");
        let e = SchedulerSpec::Easy(Policy::Fcfs).build();
        assert_eq!(e.name(), "EASY");
        assert_eq!(SchedulerSpec::Easy(Policy::Sjf).name(), "EASY[SJF]");
    }

    #[test]
    fn names_identify_specs_uniquely() {
        // Names are the stable textual form of a spec (the rows of the
        // results tables); the line-up must not alias.
        let lineup = SchedulerSpec::paper_lineup();
        let names: Vec<String> = lineup.iter().map(SchedulerSpec::name).collect();
        let mut deduped = names.clone();
        deduped.sort();
        deduped.dedup();
        assert_eq!(deduped.len(), lineup.len(), "aliased names: {names:?}");
        // And a fresh build answers to the same name.
        for spec in &lineup {
            assert_eq!(spec.build().name(), spec.name());
        }
    }

    #[test]
    fn recognizes_the_lineup() {
        assert_eq!(parse_scheduler("FCFS").unwrap().name(), "FCFS");
        assert_eq!(parse_scheduler("easy").unwrap().name(), "EASY");
        assert_eq!(parse_scheduler("easy:SJF").unwrap().name(), "EASY[SJF]");
        assert_eq!(parse_scheduler("dynp").unwrap().name(), "dynP[advanced]");
        assert_eq!(
            parse_scheduler("dynp:simple").unwrap().name(),
            "dynP[simple]"
        );
        assert_eq!(
            parse_scheduler("dynp:preferred:SJF").unwrap().name(),
            "dynP[SJF-preferred]"
        );
        assert!(parse_scheduler("round-robin").is_err());
        assert!(parse_scheduler("dynp:preferred:XYZ").is_err());
    }

    #[test]
    fn render_round_trips_through_parse() {
        for spelling in [
            "FCFS",
            "SJF",
            "LJF",
            "easy",
            "easy:SJF",
            "dynp",
            "dynp:simple",
            "dynp:preferred:SJF",
            "dynp:preferred:LJF:0.05",
        ] {
            let spec = parse_scheduler(spelling).unwrap();
            assert_eq!(
                parse_scheduler(&render_scheduler(&spec)).unwrap(),
                spec,
                "spelling {spelling:?} did not round-trip"
            );
        }
    }
}
