//! Tier-1-sized goldens of the reproduction, pinned byte for byte.
//!
//! `run_experiments.sh` regenerates `results/` at full scale and CI
//! compares it with the committed files, but that takes minutes. The
//! first test runs the line-up of the `table5` study (what `experiment
//! table5` runs) on KTH at 1 000 jobs × 3 sets and compares SLDwA and
//! utilization per (factor, scheduler), at full precision, with
//! `tests/fixtures/golden_kth.csv` — so a change that shifts a
//! tie-break anywhere on the paper's path fails `cargo test`. The second
//! runs the same trace under the `typical` reservation and fault
//! streams and pins, beside the job metrics, every counter the two
//! streams drive (`tests/fixtures/golden_kth_loads.csv`): a change to
//! what either generator draws, or in which order, fails it.
//!
//! To regenerate a fixture after an intended change, run the test: on a
//! mismatch it writes what it got to the path its failure message
//! names, and copying that file over the fixture accepts it.

use dynp_suite::prelude::*;
use dynp_suite::sim::{parse_scheduler, study};
use dynp_suite::workload::{traces, FaultModel};
use std::fmt::Write as _;
use std::path::Path;

/// Shrinking factors the golden covers: the paper's lightest, middle and
/// heaviest loads (Table 5 has 1.0, 0.9, … 0.6). Fewer factors, not
/// fewer jobs, keep the test near a second in a debug build.
const FACTORS: [f64; 3] = [1.0, 0.8, 0.6];

/// Compares `got` with the fixture `name`; on a mismatch writes `got`
/// under the test target directory and fails naming both files.
fn assert_matches_fixture(name: &str, got: &str) {
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let want = std::fs::read_to_string(&fixture).unwrap_or_default();
    if got != want {
        let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
        std::fs::write(&out, got).unwrap();
        panic!(
            "{name} moved; this run's values are in {} \
             (copy it over {} if the change is intended)\n--- want\n{want}--- got\n{got}",
            out.display(),
            fixture.display()
        );
    }
}

#[test]
fn kth_table5_lineup_matches_the_golden_csv() {
    let lineup = study::find("table5").expect("the table5 study").lineup;
    let mut exp = Experiment::new(vec![traces::kth()], lineup, 1_000, 3);
    exp.factors = FACTORS.to_vec();
    let result = exp.run();

    let mut got = String::from("factor,scheduler,sldwa,utilization\n");
    for factor in FACTORS {
        for (name, _) in &exp.lineup {
            let sldwa = result.sldwa("KTH", factor, name);
            let util = result.utilization("KTH", factor, name);
            // `{:?}` prints the shortest string that parses back to the
            // same f64: full precision, no rounding.
            writeln!(got, "{factor:?},{name},{sldwa:?},{util:?}").unwrap();
        }
    }
    assert_matches_fixture("golden_kth.csv", &got);
}

#[test]
fn kth_under_both_typical_loads_matches_the_golden_csv() {
    let lineup = ["FCFS", "dynp"]
        .map(|s| (s.to_string(), parse_scheduler(s).unwrap()))
        .to_vec();
    let mut exp = Experiment::new(vec![traces::kth()], lineup, 1_000, 2);
    exp.factors = vec![1.0, 0.8];
    exp.reservations = Some(ReservationLoad {
        booked_fraction: 0.15,
        guarantee_slack_secs: 0,
    });
    exp.faults = Some(FaultModel::typical(20_000.0, 3_600.0, 0.05));
    let result = exp.run();

    let mut got = String::from(
        "factor,scheduler,sldwa,utilization,\
         requests,admitted,rejected_capacity,rejected_guarantee,rejected_invalid,\
         cancelled,honored,downgraded,revoked,requested_area_pms,admitted_area_pms,\
         node_downs,node_ups,evictions,crashes,overruns,retries,lost,\
         down_node_allocations,downtime_ms\n",
    );
    for c in &result.cells {
        let (m, r, f) = (&c.combined, &c.reservations, &c.faults);
        writeln!(
            got,
            "{:?},{},{:?},{:?},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
            c.cell.factor,
            c.cell.scheduler,
            m.sldwa,
            m.utilization,
            r.requests,
            r.admitted,
            r.rejected_capacity,
            r.rejected_guarantee,
            r.rejected_invalid,
            r.cancelled,
            r.honored,
            r.downgraded,
            r.revoked,
            r.requested_area_pms,
            r.admitted_area_pms,
            f.node_downs,
            f.node_ups,
            f.evictions,
            f.crashes,
            f.overruns,
            f.retries,
            f.lost,
            f.down_node_allocations,
            f.downtime_ms,
        )
        .unwrap();
    }
    assert_matches_fixture("golden_kth_loads.csv", &got);
}
