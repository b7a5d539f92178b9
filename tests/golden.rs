//! A tier-1-sized golden of the reproduction: one trace of the paper's
//! grid, scheduled by the Table 5 line-up, pinned byte for byte.
//!
//! `run_experiments.sh` regenerates `results/` at full scale and CI
//! compares it with the committed files, but that takes minutes. This
//! test runs the line-up of the `table5` study (what `experiment table5`
//! runs) on KTH at 1 000 jobs × 3 sets and compares SLDwA and
//! utilization per (factor, scheduler), at full precision, with
//! `tests/fixtures/golden_kth.csv` — so a change that shifts a
//! tie-break anywhere on the paper's path fails `cargo test`.
//!
//! To regenerate the fixture after an intended change, run the test: on
//! a mismatch it writes what it got to the path its failure message
//! names, and copying that file over the fixture accepts it.

use dynp_suite::prelude::*;
use dynp_suite::sim::study;
use dynp_suite::workload::traces;
use std::fmt::Write as _;
use std::path::Path;

/// Shrinking factors the golden covers: the paper's lightest, middle and
/// heaviest loads (Table 5 has 1.0, 0.9, … 0.6). Fewer factors, not
/// fewer jobs, keep the test near a second in a debug build.
const FACTORS: [f64; 3] = [1.0, 0.8, 0.6];

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

    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden_kth.csv");
    let want = std::fs::read_to_string(&fixture).unwrap_or_default();
    if got != want {
        let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("golden_kth.csv");
        std::fs::write(&out, &got).unwrap();
        panic!(
            "KTH golden moved; this run's values are in {} \
             (copy it over {} if the change is intended)\n--- want\n{want}--- got\n{got}",
            out.display(),
            fixture.display()
        );
    }
}
