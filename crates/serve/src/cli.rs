//! Command-line helpers shared by the `daemon`, `loadgen` and `replay`
//! bins.

use crate::api::QuotaConfig;
use crate::journal::FsyncPolicy;
use dynp_core::DeciderKind;
use dynp_rms::Policy;
use dynp_sim::SchedulerSpec;
use std::str::FromStr;

/// Prints `why` and the bin's usage text to stderr and exits with 2.
pub fn bail(usage: &str, why: &str) -> ! {
    eprintln!("{why}\n{usage}");
    std::process::exit(2);
}

/// A bin's command line: a cursor over the flags, with the typed reads
/// the bins share. A malformed command line ends the process through
/// [`bail`] with the bin's usage text.
pub struct Flags {
    usage: &'static str,
    argv: std::vec::IntoIter<String>,
}

impl Flags {
    /// The process arguments, to be explained by `usage` when they are
    /// wrong.
    pub fn from_env(usage: &'static str) -> Flags {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let argv = argv.into_iter();
        Flags { usage, argv }
    }

    /// The next flag; `--help` / `-h` prints the usage text and exits 0.
    pub fn next_flag(&mut self) -> Option<String> {
        let flag = self.argv.next()?;
        if flag == "--help" || flag == "-h" {
            println!("{}", self.usage);
            std::process::exit(0);
        }
        Some(flag)
    }

    /// Exits over a flag no arm of the bin's match knows.
    pub fn unknown(&self, flag: &str) -> ! {
        bail(self.usage, &format!("unknown flag {flag:?}"))
    }

    /// The value following `flag`.
    pub fn value(&mut self, flag: &str) -> String {
        match self.argv.next() {
            Some(v) => v,
            None => bail(self.usage, &format!("{flag} needs a value")),
        }
    }

    /// `raw`, the value (or part of the value) of `flag`, as a number.
    pub fn parse<T: FromStr>(&self, raw: &str, flag: &str) -> T {
        raw.parse()
            .unwrap_or_else(|_| bail(self.usage, &format!("{flag} needs a number, got {raw:?}")))
    }

    /// The value following `flag`, as a number.
    pub fn num<T: FromStr>(&mut self, flag: &str) -> T {
        let raw = self.value(flag);
        self.parse(&raw, flag)
    }

    /// The `always|rotate|never` value following `flag`.
    pub fn fsync(&mut self, flag: &str) -> FsyncPolicy {
        let raw = self.value(flag);
        FsyncPolicy::parse(&raw)
            .unwrap_or_else(|| bail(self.usage, &format!("unknown fsync policy {raw:?}")))
    }

    /// The `RATE:BURST` value following `--quota`.
    pub fn quota(&mut self) -> QuotaConfig {
        let raw = self.value("--quota");
        let Some((rate, burst)) = raw.split_once(':') else {
            bail(
                self.usage,
                &format!("--quota needs RATE:BURST, got {raw:?}"),
            );
        };
        QuotaConfig {
            rate_mtok_per_sec: self.parse(rate, "--quota RATE"),
            burst_mtok: self.parse(burst, "--quota BURST"),
        }
    }
}

/// Parses a scheduler recipe from its command-line spelling — the same
/// syntax the batch `sweep` bin accepts:
///
/// | spec                          | meaning                                |
/// |-------------------------------|----------------------------------------|
/// | `FCFS` / `SJF` / `LJF` / …    | static policy (planning)               |
/// | `easy` / `easy:SJF`           | EASY backfilling (queue order)         |
/// | `dynp` / `dynp:advanced`      | dynP with the advanced decider         |
/// | `dynp:simple`                 | dynP with the simple decider           |
/// | `dynp:preferred:SJF`          | dynP, SJF-preferred decider            |
/// | `dynp:preferred:SJF:0.05`     | …with a 5 % threshold                  |
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
