//! The paper's Table 1: the complete case analysis of the simple decider.
//!
//! The table enumerates every ordering/tie pattern of the three per-policy
//! values together with the old policy, the simple decider's choice and
//! the correct decision. "In four cases (1, 6b, 8c, and 10c) a wrong
//! decision is made by the simple decider" — this module encodes all
//! rows so tests can assert our simple and advanced deciders reproduce
//! both columns exactly, and `experiment table1` re-prints the table.

use crate::compare::EPSILON;
use crate::decider::{advanced_decide, simple_decide};
use dynp_rms::Policy;

/// One row of Table 1: a value pattern, an old policy, and the two
/// expected decisions.
#[derive(Clone, Copy, Debug)]
pub struct Table1Row {
    /// Case label as printed in the paper ("6b" etc.).
    pub case: &'static str,
    /// Human-readable description of the value combination.
    pub combination: &'static str,
    /// Concrete (FCFS, SJF, LJF) values realizing the pattern.
    pub values: (f64, f64, f64),
    /// The currently active policy.
    pub old: Policy,
    /// The simple decider's (sometimes wrong) choice.
    pub simple: Policy,
    /// The correct decision (the advanced decider's choice).
    pub correct: Policy,
    /// True for the four rows where the simple decider errs.
    pub simple_is_wrong: bool,
}

use Policy::{Fcfs, Ljf, Sjf};

/// All rows of Table 1. Cases without an explicit old-policy split are
/// expanded to all three old policies when the decisions depend on it
/// (case 1) and kept as one row per old policy otherwise (the decision is
/// old-independent, asserted by tests).
pub fn table1_rows() -> Vec<Table1Row> {
    let row = |case, combination, values, old, simple, correct| Table1Row {
        case,
        combination,
        values,
        old,
        simple,
        correct,
        simple_is_wrong: simple != correct,
    };
    vec![
        // Case 1: FCFS = SJF = LJF → simple picks FCFS, correct keeps old.
        row("1", "FCFS = SJF = LJF", (2.0, 2.0, 2.0), Fcfs, Fcfs, Fcfs),
        row("1", "FCFS = SJF = LJF", (2.0, 2.0, 2.0), Sjf, Fcfs, Sjf),
        row("1", "FCFS = SJF = LJF", (2.0, 2.0, 2.0), Ljf, Fcfs, Ljf),
        // Case 2: SJF strictly best.
        row(
            "2",
            "SJF < FCFS, SJF < LJF",
            (3.0, 1.0, 2.0),
            Fcfs,
            Sjf,
            Sjf,
        ),
        // Case 3: FCFS strictly best.
        row(
            "3",
            "FCFS < SJF, FCFS < LJF",
            (1.0, 3.0, 2.0),
            Sjf,
            Fcfs,
            Fcfs,
        ),
        // Case 4: LJF strictly best, FCFS/SJF in any relation.
        row("4a", "LJF < *, FCFS < SJF", (2.0, 3.0, 1.0), Fcfs, Ljf, Ljf),
        row("4b", "LJF < *, FCFS = SJF", (2.0, 2.0, 1.0), Fcfs, Ljf, Ljf),
        row("4c", "LJF < *, FCFS > SJF", (3.0, 2.0, 1.0), Fcfs, Ljf, Ljf),
        // Case 5: FCFS = SJF, LJF below both.
        row(
            "5",
            "FCFS = SJF, LJF < FCFS",
            (2.0, 2.0, 1.0),
            Sjf,
            Ljf,
            Ljf,
        ),
        // Case 6: FCFS = SJF, both below LJF — the old policy decides.
        row("6a", "FCFS = SJF < LJF", (1.0, 1.0, 2.0), Fcfs, Fcfs, Fcfs),
        row("6b", "FCFS = SJF < LJF", (1.0, 1.0, 2.0), Sjf, Fcfs, Sjf),
        row("6c", "FCFS = SJF < LJF", (1.0, 1.0, 2.0), Ljf, Fcfs, Fcfs),
        // Case 7: FCFS = LJF, SJF below both.
        row(
            "7",
            "FCFS = LJF, SJF < FCFS",
            (2.0, 1.0, 2.0),
            Fcfs,
            Sjf,
            Sjf,
        ),
        // Case 8: FCFS = LJF, both below SJF.
        row("8a", "FCFS = LJF < SJF", (1.0, 2.0, 1.0), Fcfs, Fcfs, Fcfs),
        row("8b", "FCFS = LJF < SJF", (1.0, 2.0, 1.0), Sjf, Fcfs, Fcfs),
        row("8c", "FCFS = LJF < SJF", (1.0, 2.0, 1.0), Ljf, Fcfs, Ljf),
        // Case 9: SJF = LJF, FCFS below both.
        row(
            "9",
            "SJF = LJF, FCFS < SJF",
            (1.0, 2.0, 2.0),
            Ljf,
            Fcfs,
            Fcfs,
        ),
        // Case 10: SJF = LJF, both below FCFS.
        row("10a", "SJF = LJF < FCFS", (2.0, 1.0, 1.0), Fcfs, Sjf, Sjf),
        row("10b", "SJF = LJF < FCFS", (2.0, 1.0, 1.0), Sjf, Sjf, Sjf),
        row("10c", "SJF = LJF < FCFS", (2.0, 1.0, 1.0), Ljf, Sjf, Ljf),
    ]
}

/// The reverse lookup for the trace audit: classifies a live `(FCFS,
/// SJF, LJF)` score triple plus the active policy into its Table 1 case
/// label, so `trace_report` can replay the table against recorded
/// decider inputs.
///
/// Ties use the same `epsilon` the deciders use. Cases 4b and 5
/// describe the identical value pattern (FCFS = SJF with LJF strictly
/// below), so that pattern reports as the combined label `"4b/5"`.
/// Returns `None` when `old` is not one of the three basic policies —
/// Table 1 only covers those.
pub fn classify(values: (f64, f64, f64), old: Policy, epsilon: f64) -> Option<&'static str> {
    let sub = |a: &'static str, b: &'static str, c: &'static str| match old {
        Fcfs => Some(a),
        Sjf => Some(b),
        Ljf => Some(c),
        _ => None,
    };
    if !Policy::BASIC.contains(&old) {
        return None;
    }
    let (f, s, l) = values;
    let eq = |a: f64, b: f64| (a - b).abs() <= epsilon;
    if eq(f, s) && eq(s, l) && eq(f, l) {
        Some("1")
    } else if eq(f, s) {
        if l < f {
            Some("4b/5")
        } else {
            sub("6a", "6b", "6c")
        }
    } else if eq(f, l) {
        if s < f {
            Some("7")
        } else {
            sub("8a", "8b", "8c")
        }
    } else if eq(s, l) {
        if f < s {
            Some("9")
        } else {
            sub("10a", "10b", "10c")
        }
    } else if s < f && s < l {
        Some("2")
    } else if f < s && f < l {
        Some("3")
    } else if f < s {
        Some("4a")
    } else {
        Some("4c")
    }
}

/// Runs both deciders over every row and renders the table, flagging the
/// rows where the simple decider errs (the paper prints them bold).
pub fn render_table1() -> String {
    let mut out = String::new();
    out.push_str("case | combination              | old  | simple | correct | simple errs\n");
    out.push_str("-----+--------------------------+------+--------+---------+------------\n");
    for r in table1_rows() {
        let scores = vec![(Fcfs, r.values.0), (Sjf, r.values.1), (Ljf, r.values.2)];
        let simple = simple_decide(&scores, r.old, EPSILON);
        let advanced = advanced_decide(&scores, r.old, EPSILON);
        out.push_str(&format!(
            "{:<4} | {:<24} | {:<4} | {:<6} | {:<7} | {}\n",
            r.case,
            r.combination,
            r.old.name(),
            simple.name(),
            advanced.name(),
            if simple != advanced { "  ** wrong" } else { "" },
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scores(r: &Table1Row) -> Vec<(Policy, f64)> {
        vec![(Fcfs, r.values.0), (Sjf, r.values.1), (Ljf, r.values.2)]
    }

    /// The headline check: our simple decider reproduces the paper's
    /// "simple decider" column for all 20 rows.
    #[test]
    fn simple_decider_matches_table1_column() {
        for r in table1_rows() {
            let got = simple_decide(&scores(&r), r.old, EPSILON);
            assert_eq!(
                got,
                r.simple,
                "case {} (old={}): simple decider chose {}, table says {}",
                r.case,
                r.old.name(),
                got.name(),
                r.simple.name()
            );
        }
    }

    /// The advanced decider reproduces the "correct decision" column for
    /// all 20 rows.
    #[test]
    fn advanced_decider_matches_correct_column() {
        for r in table1_rows() {
            let got = advanced_decide(&scores(&r), r.old, EPSILON);
            assert_eq!(
                got,
                r.correct,
                "case {} (old={}): advanced decider chose {}, table says {}",
                r.case,
                r.old.name(),
                got.name(),
                r.correct.name()
            );
        }
    }

    /// "In four cases (1, 6b, 8c, and 10c) a wrong decision is made by
    /// the simple decider" — case 1 errs for two of its three old
    /// policies, plus 6b, 8c, 10c: five wrong rows over four case labels.
    #[test]
    fn exactly_the_papers_cases_are_wrong() {
        let wrong: Vec<(&str, Policy)> = table1_rows()
            .iter()
            .filter(|r| r.simple_is_wrong)
            .map(|r| (r.case, r.old))
            .collect();
        assert_eq!(
            wrong,
            vec![
                ("1", Sjf),
                ("1", Ljf),
                ("6b", Sjf),
                ("8c", Ljf),
                ("10c", Ljf),
            ]
        );
        let wrong_cases: std::collections::BTreeSet<&str> = table1_rows()
            .iter()
            .filter(|r| r.simple_is_wrong)
            .map(|r| {
                // Strip the sub-case letter to compare against the
                // paper's "cases 1, 6b, 8c, 10c" list at case granularity.
                r.case
            })
            .collect();
        assert_eq!(
            wrong_cases.into_iter().collect::<Vec<_>>(),
            vec!["1", "10c", "6b", "8c"]
        );
    }

    /// "FCFS is favored in three and SJF in one case" (among the wrong
    /// decisions, counted per case label as the paper counts).
    #[test]
    fn simple_favoritism_counts() {
        let rows = table1_rows();
        let wrong: Vec<&Table1Row> = rows.iter().filter(|r| r.simple_is_wrong).collect();
        // Per case label: 1 → FCFS, 6b → FCFS, 8c → FCFS, 10c → SJF.
        let mut by_case: std::collections::BTreeMap<&str, Policy> =
            std::collections::BTreeMap::new();
        for r in &wrong {
            by_case.insert(r.case, r.simple);
        }
        let fcfs = by_case.values().filter(|&&p| p == Fcfs).count();
        let sjf = by_case.values().filter(|&&p| p == Sjf).count();
        assert_eq!(fcfs, 3);
        assert_eq!(sjf, 1);
    }

    /// Rows not split by old policy must not depend on it.
    #[test]
    fn unsplit_rows_are_old_independent() {
        for r in table1_rows() {
            if r.case.len() == 1 || matches!(r.case, "4a" | "4b" | "4c") {
                // Cases 2,3,4,5,7,9 (and 1 which IS split) — check both
                // deciders give the same answer for every old policy
                // except where the table splits.
                if r.case == "1" {
                    continue;
                }
                for old in Policy::BASIC {
                    let s = simple_decide(&scores(&r), old, EPSILON);
                    assert_eq!(s, r.simple, "case {} simple varies with old", r.case);
                    let a = advanced_decide(&scores(&r), old, EPSILON);
                    // Advanced may keep `old` when it ties the best; the
                    // unsplit rows have a strict unique minimum or the
                    // tie excludes the winner, so the answer is fixed.
                    assert_eq!(a, r.correct, "case {} advanced varies with old", r.case);
                }
            }
        }
    }

    /// `classify` inverts the table: every row's value pattern + old
    /// policy maps back to its own case label (4b and 5 share a pattern
    /// and map to the combined label).
    #[test]
    fn classify_recovers_every_rows_case() {
        for r in table1_rows() {
            let got = classify(r.values, r.old, EPSILON).unwrap();
            let expected = match r.case {
                "4b" | "5" => "4b/5",
                other => other,
            };
            assert_eq!(got, expected, "values {:?} old {}", r.values, r.old.name());
        }
    }

    #[test]
    fn classify_rejects_non_basic_policies() {
        assert_eq!(classify((1.0, 2.0, 3.0), Policy::Saf, EPSILON), None);
    }

    #[test]
    fn rendered_table_flags_five_wrong_rows() {
        let table = render_table1();
        assert_eq!(table.matches("** wrong").count(), 5);
        assert!(table.contains("6b"));
    }
}
