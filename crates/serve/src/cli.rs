//! Command-line helpers shared by the `daemon`, `loadgen` and `replay`
//! bins.

use crate::api::QuotaConfig;
use crate::journal::FsyncPolicy;
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
