//! The readers of serve types, on the shared flag reader
//! [`dynp_sim::cli::Flags`] the `daemon`, `loadgen` and `replay` bins
//! parse through.

use crate::api::QuotaConfig;
use crate::journal::FsyncPolicy;
use dynp_sim::cli::Flags;

/// The `always|rotate|never` value following `flag`.
pub fn fsync(flags: &mut Flags, flag: &str) -> FsyncPolicy {
    let raw = flags.value(flag);
    FsyncPolicy::parse(&raw)
        .unwrap_or_else(|| flags.bail(&format!("{flag}: unknown fsync policy {raw:?}")))
}

/// The `RATE:BURST` value following `--quota`.
pub fn quota(flags: &mut Flags) -> QuotaConfig {
    let raw = flags.value("--quota");
    let Some((rate, burst)) = raw.split_once(':') else {
        flags.bail(&format!("--quota needs RATE:BURST, got {raw:?}"));
    };
    QuotaConfig {
        rate_mtok_per_sec: flags.parse(rate, "--quota RATE"),
        burst_mtok: flags.parse(burst, "--quota BURST"),
    }
}
