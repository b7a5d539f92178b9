//! Trace-calibrated workload models for CTC, KTH, LANL and SDSC.
//!
//! The paper's job sets are synthetic sets generated from four Parallel
//! Workload Archive traces; only the aggregate statistics of those traces
//! (its Table 2) are published. Each model below is a three-regime
//! session mixture (interactive / batch / parameter-study) whose
//! *aggregate* width, estimated-run-time and overestimation statistics are
//! tuned to the published values, and whose arrival rate is calibrated so
//! the offered load matches the paper's measured utilization at shrinking
//! factor 1.0 (Table 4, FCFS row) — see DESIGN.md §4 for the full
//! substitution argument.
//!
//! | trace | machine | avg width (max) | avg est s (cap) | overest | load @1.0 |
//! |-------|---------|-----------------|-----------------|---------|-----------|
//! | CTC   | 430     | 10.72 (336)     | 24,324 (64,800) | 2.220   | 0.762     |
//! | KTH   | 100     |  7.66 (100)     | 13,678 (216,000)| 1.544   | 0.693     |
//! | LANL  | 1024    | 104.95 (1,024)  |  3,683 (30,000) | 2.220   | 0.636     |
//! | SDSC  | 128     | 10.54 (128)     | 14,344 (172,800)| 2.360   | 0.794     |
//!
//! Published statistics our models reproduce (verified by unit tests and
//! `experiment table2`): the measured aggregate values land within a few
//! percent of the targets.

use crate::dist::{AccuracyModel, DurationDist, WidthDist};
use crate::model::TraceModel;
use crate::regime::Regime;

/// The shrinking factors applied in the paper's evaluation.
pub const SHRINKING_FACTORS: [f64; 5] = [1.0, 0.9, 0.8, 0.7, 0.6];

/// Jobs per synthetic set in the paper.
pub const PAPER_JOBS_PER_SET: usize = 10_000;

/// Synthetic sets per trace in the paper.
pub const PAPER_SETS_PER_TRACE: usize = 10;

fn regime(
    name: &str,
    weight: f64,
    session: f64,
    width: WidthDist,
    estimate: DurationDist,
    arrival_scale: f64,
) -> Regime {
    Regime {
        name: name.to_string(),
        weight,
        mean_session_jobs: session,
        width,
        estimate,
        arrival_scale,
    }
}

/// Assembles a model and calibrates its arrival rate to `target_load`.
fn build(
    name: &str,
    machine_size: u32,
    regimes: Vec<Regime>,
    accuracy: AccuracyModel,
    min_estimate_secs: f64,
    max_estimate_secs: f64,
    target_load: f64,
) -> TraceModel {
    let mut model = TraceModel {
        name: name.to_string(),
        machine_size,
        regimes,
        accuracy,
        mean_interarrival_secs: 1.0, // placeholder until calibrated below
        min_estimate_secs,
        max_estimate_secs,
    };
    let area = model.predicted_mean_area();
    model.mean_interarrival_secs = area / (machine_size as f64 * target_load);
    model
}

/// CTC — Cornell Theory Center IBM SP2, 430 processors. Mixed workload
/// with an 18-hour queue cap; a large share of long batch jobs pushes the
/// mean estimate to ~6.8 h.
pub fn ctc() -> TraceModel {
    build(
        "CTC",
        430,
        vec![
            regime(
                "interactive",
                3.5,
                10.0,
                WidthDist::Weighted(vec![(1, 6.0), (2, 2.0), (4, 1.5), (8, 0.5)]),
                DurationDist::Weighted(vec![
                    (600.0, 2.0),
                    (1_800.0, 2.0),
                    (3_600.0, 3.0),
                    (7_200.0, 3.0),
                ]),
                0.35,
            ),
            regime(
                "batch",
                5.25,
                8.0,
                WidthDist::Weighted(vec![
                    (4, 2.0),
                    (8, 3.0),
                    (16, 2.5),
                    (32, 1.5),
                    (64, 0.7),
                    (128, 0.22),
                    (256, 0.06),
                    (336, 0.02),
                ]),
                DurationDist::Weighted(vec![
                    (14_400.0, 1.0),
                    (28_800.0, 2.0),
                    (43_200.0, 2.0),
                    (64_800.0, 5.0),
                ]),
                3.0,
            ),
            regime(
                "study",
                0.575,
                40.0,
                WidthDist::Weighted(vec![(1, 5.0), (2, 3.0), (4, 2.0)]),
                DurationDist::Weighted(vec![(3_600.0, 3.0), (7_200.0, 4.0), (14_400.0, 3.0)]),
                0.04,
            ),
        ],
        AccuracyModel::from_overestimation(2.220, 0.10),
        60.0,
        64_800.0,
        0.762,
    )
}

/// KTH — Royal Institute of Technology IBM SP2, 100 processors. Narrow
/// jobs with a very heavy run-time tail (60-hour cap): the trace where
/// SJF wins at every load in the paper.
pub fn kth() -> TraceModel {
    build(
        "KTH",
        100,
        vec![
            // KTH's width and run-time distributions are only weakly
            // correlated: the long batch tail is NOT wider than the rest
            // of the mix. That is what makes SJF dominate in SLDwA
            // (= 1 + Σ widthᵢ·waitᵢ / Σ areaᵢ): deferring a long narrow
            // job is cheap, making a short job wait behind it is not.
            regime(
                "interactive",
                5.5,
                10.0,
                WidthDist::Weighted(vec![
                    (1, 3.0),
                    (2, 2.0),
                    (4, 2.0),
                    (8, 1.5),
                    (16, 1.0),
                    (32, 0.5),
                ]),
                DurationDist::Weighted(vec![
                    (60.0, 1.0),
                    (300.0, 3.0),
                    (900.0, 3.0),
                    (3_600.0, 3.0),
                ]),
                0.35,
            ),
            regime(
                "batch",
                1.375,
                8.0,
                WidthDist::Weighted(vec![
                    (4, 2.0),
                    (8, 3.0),
                    (16, 3.0),
                    (32, 1.6),
                    (64, 0.3),
                    (100, 0.1),
                ]),
                DurationDist::Weighted(vec![(21_600.0, 3.0), (86_400.0, 4.0), (216_000.0, 3.0)]),
                3.0,
            ),
            regime(
                "study",
                0.85,
                40.0,
                WidthDist::Weighted(vec![(1, 2.0), (2, 2.0), (4, 3.0), (8, 2.0), (16, 1.0)]),
                DurationDist::Weighted(vec![(900.0, 3.0), (1_800.0, 4.0), (3_600.0, 3.0)]),
                0.04,
            ),
        ],
        AccuracyModel::from_overestimation(1.544, 0.30),
        60.0,
        216_000.0,
        0.693,
    )
}

/// LANL — Los Alamos CM-5, 1024 processors. Widths are powers of two and
/// at least 32 (the CM-5 partition granularity); run times are short and
/// capped at 30,000 s. The trace where all policies perform alike in the
/// paper.
pub fn lanl() -> TraceModel {
    let cm5_widths = WidthDist::Weighted(vec![
        (32, 5.0),
        (64, 2.4),
        (128, 1.4),
        (256, 0.7),
        (512, 0.35),
        (1_024, 0.15),
    ]);
    build(
        "LANL",
        1_024,
        vec![
            // LANL run times are short and compressed (30,000 s cap on a
            // fast machine): the regimes' estimate ranges overlap much
            // more than on the other traces, which is what makes the
            // three policies nearly indistinguishable in the paper.
            regime(
                "interactive",
                4.3,
                8.0,
                cm5_widths.clone(),
                DurationDist::Weighted(vec![(120.0, 2.0), (600.0, 4.0), (1_800.0, 4.0)]),
                0.75,
            ),
            regime(
                "batch",
                2.5,
                8.0,
                cm5_widths.clone(),
                DurationDist::Weighted(vec![
                    (3_600.0, 5.0),
                    (7_200.0, 3.0),
                    (14_400.0, 1.0),
                    (30_000.0, 1.0),
                ]),
                1.4,
            ),
            regime(
                "study",
                0.925,
                15.0,
                cm5_widths,
                DurationDist::Weighted(vec![(1_800.0, 3.0), (3_600.0, 4.0), (7_200.0, 3.0)]),
                0.55,
            ),
        ],
        AccuracyModel::from_overestimation(2.220, 0.10),
        1.0,
        30_000.0,
        0.636,
    )
}

/// SDSC — San Diego Supercomputer Center IBM SP2, 128 processors. Mixed
/// widths with a 48-hour cap and the strongest overestimation of the four
/// traces.
pub fn sdsc() -> TraceModel {
    build(
        "SDSC",
        128,
        vec![
            regime(
                "interactive",
                4.5,
                10.0,
                WidthDist::Weighted(vec![(1, 5.0), (2, 2.0), (4, 2.0), (8, 1.0)]),
                DurationDist::Weighted(vec![(300.0, 2.0), (1_200.0, 3.0), (3_600.0, 5.0)]),
                0.35,
            ),
            regime(
                "batch",
                1.625,
                8.0,
                WidthDist::Weighted(vec![(16, 2.0), (32, 3.0), (64, 3.0), (128, 2.0)]),
                DurationDist::Weighted(vec![(43_200.0, 4.0), (86_400.0, 4.0), (172_800.0, 2.0)]),
                3.0,
            ),
            regime(
                "study",
                1.05,
                40.0,
                WidthDist::Weighted(vec![(2, 3.0), (4, 4.0), (8, 3.0)]),
                DurationDist::Weighted(vec![(1_800.0, 3.0), (3_600.0, 4.0), (7_200.0, 3.0)]),
                0.04,
            ),
        ],
        AccuracyModel::from_overestimation(2.360, 0.10),
        2.0,
        172_800.0,
        0.794,
    )
}

/// All four models in the order the paper lists them.
pub fn standard_models() -> Vec<TraceModel> {
    vec![ctc(), kth(), lanl(), sdsc()]
}

/// Looks a model up by (case-insensitive) name.
pub fn by_name(name: &str) -> Option<TraceModel> {
    match name.to_ascii_uppercase().as_str() {
        "CTC" => Some(ctc()),
        "KTH" => Some(kth()),
        "LANL" => Some(lanl()),
        "SDSC" => Some(sdsc()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::TraceStats;

    struct Target {
        mean_width: f64,
        max_width: u32,
        mean_estimate: f64,
        overestimation: f64,
        load: f64,
    }

    /// Averages the Table-2 statistics over several generated sets — the
    /// experiments themselves combine 10 sets, so per-set noise (the
    /// batch regime has heavy-tailed areas) is expected and tolerated.
    fn check(model: &TraceModel, t: Target) {
        let sets = model.generate_sets(10_000, 6, 4242);
        let stats: Vec<TraceStats> = sets.iter().map(TraceStats::measure).collect();
        let avg =
            |f: &dyn Fn(&TraceStats) -> f64| stats.iter().map(f).sum::<f64>() / stats.len() as f64;
        let mean_width = avg(&|s| s.width.mean);
        let max_width = stats.iter().map(|s| s.width.max).fold(0.0, f64::max);
        let mean_estimate = avg(&|s| s.estimate.mean);
        let overest = avg(&|s| s.overestimation_factor);
        let load = avg(&|s| s.offered_load);
        let interarrival = avg(&|s| s.interarrival.mean);
        let rel = |a: f64, b: f64| (a - b).abs() / b;
        assert!(
            rel(mean_width, t.mean_width) < 0.15,
            "{}: mean width {mean_width:.2} vs target {:.2}",
            model.name,
            t.mean_width
        );
        assert!(
            max_width <= t.max_width as f64 + 0.5,
            "{}: max width {max_width} over cap {}",
            model.name,
            t.max_width
        );
        assert!(
            rel(mean_estimate, t.mean_estimate) < 0.15,
            "{}: mean estimate {mean_estimate:.0} vs target {:.0}",
            model.name,
            t.mean_estimate
        );
        assert!(
            rel(overest, t.overestimation) < 0.10,
            "{}: overestimation {overest:.3} vs target {:.3}",
            model.name,
            t.overestimation
        );
        assert!(
            rel(load, t.load) < 0.10,
            "{}: offered load {load:.3} vs target {:.3}",
            model.name,
            t.load
        );
        // Interarrival mean is pinned exactly (up to ms rounding).
        assert!(
            rel(interarrival, model.mean_interarrival_secs) < 0.01,
            "{}: interarrival {interarrival:.1} vs calibrated {:.1}",
            model.name,
            model.mean_interarrival_secs
        );
    }

    #[test]
    fn ctc_matches_published_statistics() {
        check(
            &ctc(),
            Target {
                mean_width: 10.72,
                max_width: 336,
                mean_estimate: 24_324.0,
                overestimation: 2.220,
                load: 0.762,
            },
        );
    }

    #[test]
    fn kth_matches_published_statistics() {
        check(
            &kth(),
            Target {
                mean_width: 7.66,
                max_width: 100,
                mean_estimate: 13_678.0,
                overestimation: 1.544,
                load: 0.693,
            },
        );
    }

    #[test]
    fn lanl_matches_published_statistics() {
        check(
            &lanl(),
            Target {
                mean_width: 104.95,
                max_width: 1_024,
                mean_estimate: 3_683.0,
                overestimation: 2.220,
                load: 0.636,
            },
        );
    }

    #[test]
    fn sdsc_matches_published_statistics() {
        check(
            &sdsc(),
            Target {
                mean_width: 10.54,
                max_width: 128,
                mean_estimate: 14_344.0,
                overestimation: 2.360,
                load: 0.794,
            },
        );
    }

    #[test]
    fn lanl_widths_are_cm5_partitions() {
        let set = lanl().generate(5_000, 1);
        for j in set.jobs() {
            assert!(
                j.width >= 32 && j.width.is_power_of_two(),
                "width {}",
                j.width
            );
        }
    }

    #[test]
    fn by_name_is_case_insensitive_and_total() {
        assert_eq!(by_name("ctc").unwrap().name, "CTC");
        assert_eq!(by_name("Kth").unwrap().name, "KTH");
        assert!(by_name("XXX").is_none());
        assert_eq!(standard_models().len(), 4);
    }
}
