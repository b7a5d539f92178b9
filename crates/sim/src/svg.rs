//! A small self-contained SVG line-chart renderer.
//!
//! The paper's Figures 1–4 are line charts of SLDwA/utilization against
//! the shrinking factor. The study that computes a figure draws it here,
//! beside its `.dat` file, so the reproduction regenerates the *figures*,
//! not just their data, without any external plotting dependency.
//!
//! The renderer is deliberately minimal: linear axes, automatic range,
//! tick labels, legend, distinguishable stroke styles. An optional
//! log-scale y-axis serves the slowdown figures, whose series span two
//! orders of magnitude.

use crate::report::FigureData;
use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// Chart canvas size in pixels.
const WIDTH: f64 = 640.0;
const HEIGHT: f64 = 420.0;

/// The scale and axis labels of one figure kind.
#[derive(Debug)]
pub(crate) struct ChartOptions {
    /// Use a log₁₀ y-axis (for slowdown plots).
    pub log_y: bool,
    /// Y-axis label.
    pub y_label: &'static str,
    /// X-axis label.
    pub x_label: &'static str,
}

const MARGIN_L: f64 = 64.0;
const MARGIN_R: f64 = 16.0;
const MARGIN_T: f64 = 40.0;
const MARGIN_B: f64 = 48.0;

/// Line colors cycled per series (solid for measured, dashed handled
/// separately for `paper_*` series).
const COLORS: [&str; 6] = [
    "#1f77b4", "#d62728", "#2ca02c", "#1f77b4", "#d62728", "#2ca02c",
];

/// Renders a [`FigureData`] as an SVG document string.
///
/// Series whose label starts with `paper_` are drawn dashed in the same
/// color rotation, visually pairing each measured line with its
/// published counterpart.
pub(crate) fn render_chart(fig: &FigureData, opts: &ChartOptions) -> String {
    let plot_w = WIDTH - MARGIN_L - MARGIN_R;
    let plot_h = HEIGHT - MARGIN_T - MARGIN_B;

    // Data ranges.
    let xs: Vec<f64> = fig.rows.iter().map(|(x, _)| *x).collect();
    let mut ys: Vec<f64> = fig
        .rows
        .iter()
        .flat_map(|(_, v)| v.iter().copied())
        .filter(|y| y.is_finite())
        .collect();
    if xs.is_empty() || ys.is_empty() {
        return format!(
            "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{}\" height=\"{}\"><text x=\"10\" y=\"20\">no data</text></svg>",
            WIDTH, HEIGHT
        );
    }
    let (x_min, x_max) = (
        xs.iter().cloned().fold(f64::INFINITY, f64::min),
        xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
    );
    ys.retain(|&y| !opts.log_y || y > 0.0);
    let (mut y_min, mut y_max) = (
        ys.iter().cloned().fold(f64::INFINITY, f64::min),
        ys.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
    );
    if opts.log_y {
        y_min = y_min.log10().floor();
        y_max = y_max.log10().ceil().max(y_min + 1.0);
    } else {
        let pad = (y_max - y_min).max(1e-9) * 0.08;
        y_min -= pad;
        y_max += pad;
    }

    let x_span = (x_max - x_min).max(1e-12);
    let to_px = |x: f64, y: f64| -> (f64, f64) {
        let yv = if opts.log_y { y.log10() } else { y };
        let px = MARGIN_L + (x - x_min) / x_span * plot_w;
        let py = MARGIN_T + (1.0 - (yv - y_min) / (y_max - y_min)) * plot_h;
        (px, py)
    };

    let mut svg = String::new();
    let _ = writeln!(
        svg,
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{}\" height=\"{}\" \
         font-family=\"sans-serif\" font-size=\"12\">",
        WIDTH, HEIGHT
    );
    // Background and frame.
    let _ = writeln!(
        svg,
        "<rect x=\"{MARGIN_L}\" y=\"{MARGIN_T}\" width=\"{plot_w}\" height=\"{plot_h}\" \
         fill=\"white\" stroke=\"#444\"/>"
    );
    // Title.
    let _ = writeln!(
        svg,
        "<text x=\"{}\" y=\"20\" text-anchor=\"middle\" font-size=\"14\">{}</text>",
        WIDTH / 2.0,
        escape(&fig.title)
    );

    // X ticks at each data x (shrinking factors are few and discrete).
    let mut xticks = xs.clone();
    xticks.sort_by(f64::total_cmp);
    xticks.dedup();
    for &x in &xticks {
        let (px, _) = to_px(x, if opts.log_y { 10f64.powf(y_min) } else { y_min });
        let y0 = MARGIN_T + plot_h;
        let _ = writeln!(
            svg,
            "<line x1=\"{px:.1}\" y1=\"{y0}\" x2=\"{px:.1}\" y2=\"{}\" stroke=\"#444\"/>",
            y0 + 4.0
        );
        // At most two decimals: an unavailability in % is not round.
        let label = format!("{x:.2}");
        let label = label.trim_end_matches('0').trim_end_matches('.');
        let _ = writeln!(
            svg,
            "<text x=\"{px:.1}\" y=\"{}\" text-anchor=\"middle\">{label}</text>",
            y0 + 18.0
        );
    }
    let _ = writeln!(
        svg,
        "<text x=\"{}\" y=\"{}\" text-anchor=\"middle\">{}</text>",
        MARGIN_L + plot_w / 2.0,
        HEIGHT - 10.0,
        escape(opts.x_label)
    );

    // Y ticks: 5 linear ticks, or decade ticks on log scale.
    if opts.log_y {
        let mut d = y_min;
        while d <= y_max + 1e-9 {
            let y_val = 10f64.powf(d);
            let (_, py) = to_px(x_min, y_val);
            let _ = writeln!(
                svg,
                "<line x1=\"{}\" y1=\"{py:.1}\" x2=\"{MARGIN_L}\" y2=\"{py:.1}\" stroke=\"#444\"/>",
                MARGIN_L - 4.0
            );
            let _ = writeln!(
                svg,
                "<text x=\"{}\" y=\"{:.1}\" text-anchor=\"end\">{}</text>",
                MARGIN_L - 8.0,
                py + 4.0,
                format_tick(y_val)
            );
            d += 1.0;
        }
    } else {
        for i in 0..=4 {
            let y_val = y_min + (y_max - y_min) * i as f64 / 4.0;
            let (_, py) = to_px(x_min, y_val);
            let _ = writeln!(
                svg,
                "<line x1=\"{}\" y1=\"{py:.1}\" x2=\"{MARGIN_L}\" y2=\"{py:.1}\" stroke=\"#444\"/>",
                MARGIN_L - 4.0
            );
            let _ = writeln!(
                svg,
                "<text x=\"{}\" y=\"{:.1}\" text-anchor=\"end\">{}</text>",
                MARGIN_L - 8.0,
                py + 4.0,
                format_tick(y_val)
            );
        }
    }
    let _ = writeln!(
        svg,
        "<text x=\"14\" y=\"{}\" text-anchor=\"middle\" transform=\"rotate(-90 14 {})\">{}</text>",
        MARGIN_T + plot_h / 2.0,
        MARGIN_T + plot_h / 2.0,
        escape(opts.y_label)
    );

    // Series polylines + legend.
    for (si, label) in fig.series.iter().enumerate() {
        let color = COLORS[si % COLORS.len()];
        let dashed = label.starts_with("paper_");
        let mut points = String::new();
        for (x, vals) in &fig.rows {
            let y = vals[si];
            if !y.is_finite() || (opts.log_y && y <= 0.0) {
                continue;
            }
            let (px, py) = to_px(*x, y);
            let _ = write!(points, "{px:.1},{py:.1} ");
        }
        let dash = if dashed {
            " stroke-dasharray=\"6 4\""
        } else {
            ""
        };
        let _ = writeln!(
            svg,
            "<polyline fill=\"none\" stroke=\"{color}\" stroke-width=\"1.8\"{dash} points=\"{points}\"/>"
        );
        // Point markers on measured series only.
        if !dashed {
            for (x, vals) in &fig.rows {
                let y = vals[si];
                if !y.is_finite() || (opts.log_y && y <= 0.0) {
                    continue;
                }
                let (px, py) = to_px(*x, y);
                let _ = writeln!(
                    svg,
                    "<circle cx=\"{px:.1}\" cy=\"{py:.1}\" r=\"2.6\" fill=\"{color}\"/>"
                );
            }
        }
        // Legend entry.
        let ly = MARGIN_T + 14.0 + si as f64 * 16.0;
        let lx = MARGIN_L + 10.0;
        let _ = writeln!(
            svg,
            "<line x1=\"{lx}\" y1=\"{ly}\" x2=\"{}\" y2=\"{ly}\" stroke=\"{color}\" stroke-width=\"1.8\"{dash}/>",
            lx + 22.0
        );
        let _ = writeln!(
            svg,
            "<text x=\"{}\" y=\"{}\">{}</text>",
            lx + 28.0,
            ly + 4.0,
            escape(label)
        );
    }

    svg.push_str("</svg>\n");
    svg
}

/// Renders and writes the chart to `dir/<name>.svg`.
pub(crate) fn write_chart(
    fig: &FigureData,
    opts: &ChartOptions,
    dir: &Path,
    name: &str,
) -> io::Result<()> {
    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join(format!("{name}.svg")), render_chart(fig, opts))
}

// ---------------------------------------------------------------------------
// Gantt rendering of a realized schedule
// ---------------------------------------------------------------------------

use dynp_rms::CompletedJob;

/// Renders the realized execution of a job set as a Gantt chart: time on
/// the x-axis, processors on the y-axis, one rectangle per job. Jobs are
/// assigned display rows greedily (first free contiguous block), which
/// matches how a real machine would place them.
///
/// Rectangles are colored by job width class so wide jobs stand out;
/// hovering shows the job id and times (SVG `<title>` tooltips).
pub(crate) fn render_gantt(
    completed: &[CompletedJob],
    machine_size: u32,
    width_px: f64,
    height_px: f64,
) -> String {
    let mut svg = String::new();
    let _ = writeln!(
        svg,
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{width_px}\" height=\"{height_px}\" \
         font-family=\"sans-serif\" font-size=\"10\">"
    );
    if completed.is_empty() {
        let _ = writeln!(svg, "<text x=\"10\" y=\"20\">no jobs</text></svg>");
        return svg;
    }

    let t0 = completed
        .iter()
        .map(|c| c.start.as_secs_f64())
        .fold(f64::INFINITY, f64::min);
    let t1 = completed
        .iter()
        .map(|c| c.end.as_secs_f64())
        .fold(f64::NEG_INFINITY, f64::max);
    let span = (t1 - t0).max(1e-9);

    let plot_l = 40.0;
    let plot_t = 24.0;
    let plot_w = width_px - plot_l - 10.0;
    let plot_h = height_px - plot_t - 30.0;
    let x_of = |t: f64| plot_l + (t - t0) / span * plot_w;
    let row_h = plot_h / machine_size as f64;

    // Greedy contiguous row assignment: rows[i] = time until which
    // display row i is occupied.
    let mut rows: Vec<f64> = vec![f64::NEG_INFINITY; machine_size as usize];
    let mut by_start: Vec<&CompletedJob> = completed.iter().collect();
    by_start.sort_by_key(|a| (a.start, a.job.id));

    let _ = writeln!(
        svg,
        "<rect x=\"{plot_l}\" y=\"{plot_t}\" width=\"{plot_w}\" height=\"{plot_h}\" \
         fill=\"#fafafa\" stroke=\"#444\"/>"
    );

    for done in by_start {
        let need = done.job.width as usize;
        let start = done.start.as_secs_f64();
        // First contiguous block of `need` rows free at `start`.
        let mut base = None;
        'search: for lo in 0..=(rows.len().saturating_sub(need)) {
            for r in &rows[lo..lo + need] {
                if *r > start + 1e-9 {
                    continue 'search;
                }
            }
            base = Some(lo);
            break;
        }
        // Fall back to the least-loaded block (visual only; physics are
        // guaranteed by the simulation, rows are just a drawing aid).
        let base = base.unwrap_or(0);
        let end = done.end.as_secs_f64();
        let hi = (base + need).min(rows.len());
        for r in &mut rows[base..hi] {
            *r = end;
        }
        let x = x_of(start);
        let w = (x_of(end) - x).max(0.5);
        let y = plot_t + base as f64 * row_h;
        let h = (need as f64 * row_h - 0.5).max(0.5);
        let hue = match done.job.width {
            0..=1 => "#9ecae1",
            2..=7 => "#6baed6",
            8..=31 => "#3182bd",
            _ => "#08519c",
        };
        let _ = writeln!(
            svg,
            "<rect x=\"{x:.1}\" y=\"{y:.1}\" width=\"{w:.1}\" height=\"{h:.1}\" \
             fill=\"{hue}\" stroke=\"white\" stroke-width=\"0.4\">\
             <title>{} w={} [{:.0}s, {:.0}s)</title></rect>",
            done.job.id, done.job.width, start, end
        );
    }

    // Axis labels.
    let _ = writeln!(
        svg,
        "<text x=\"{}\" y=\"{}\" text-anchor=\"middle\">time [s] ({:.0} … {:.0})</text>",
        plot_l + plot_w / 2.0,
        height_px - 8.0,
        t0,
        t1
    );
    let _ = writeln!(
        svg,
        "<text x=\"14\" y=\"{}\" text-anchor=\"middle\" transform=\"rotate(-90 14 {})\">processors (0 … {machine_size})</text>",
        plot_t + plot_h / 2.0,
        plot_t + plot_h / 2.0
    );
    svg.push_str("</svg>\n");
    svg
}

/// Writes a Gantt chart of the realized execution to `dir/<name>.svg`.
pub fn write_gantt(
    completed: &[CompletedJob],
    machine_size: u32,
    dir: &Path,
    name: &str,
) -> io::Result<()> {
    std::fs::create_dir_all(dir)?;
    std::fs::write(
        dir.join(format!("{name}.svg")),
        render_gantt(completed, machine_size, 960.0, 480.0),
    )
}

// ---------------------------------------------------------------------------
// Policy-switch timeline (trace_report)
// ---------------------------------------------------------------------------

/// One horizontal band of a policy-switch timeline: which policy one
/// (decider, run) pair had active over simulated time, reconstructed
/// from the `switch` records of a structured trace.
#[derive(Clone, Debug)]
pub struct SwitchBand {
    /// Band label drawn to the left (decider name or trace-file stem).
    pub label: String,
    /// Policy active at the start of the run.
    pub initial: String,
    /// Recorded switches as `(sim-seconds, new-policy)` pairs, in time
    /// order.
    pub switches: Vec<(f64, String)>,
}

/// The fixed policy color scheme shared by timeline segments and the
/// legend; unknown policies render gray.
fn policy_color(name: &str) -> &'static str {
    match name {
        "FCFS" => "#1f77b4",
        "SJF" => "#d62728",
        "LJF" => "#2ca02c",
        "SAF" => "#9467bd",
        "LAF" => "#8c564b",
        _ => "#7f7f7f",
    }
}

/// Renders per-decider switch timelines as stacked horizontal bands:
/// time on the x-axis, one band per trace, segments colored by the
/// active policy. Switch instants are the segment boundaries; hovering
/// a segment shows policy and interval (SVG `<title>` tooltips).
pub(crate) fn render_switch_timeline(bands: &[SwitchBand], end_secs: f64, width_px: f64) -> String {
    const LABEL_W: f64 = 96.0;
    const LEGEND_H: f64 = 26.0;
    const BAND_H: f64 = 26.0;
    const BAND_GAP: f64 = 10.0;
    const AXIS_H: f64 = 34.0;

    let height_px = LEGEND_H + bands.len() as f64 * (BAND_H + BAND_GAP) + AXIS_H;
    let mut svg = String::new();
    let _ = writeln!(
        svg,
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{width_px}\" height=\"{height_px}\" \
         font-family=\"sans-serif\" font-size=\"11\">"
    );
    if bands.is_empty() || end_secs <= 0.0 {
        let _ = writeln!(svg, "<text x=\"10\" y=\"20\">no switches</text></svg>");
        return svg;
    }

    let plot_w = width_px - LABEL_W - 12.0;
    let x_of = |t: f64| LABEL_W + t.clamp(0.0, end_secs) / end_secs * plot_w;

    // Legend: one swatch per policy that actually appears.
    let mut legend: Vec<&str> = Vec::new();
    for band in bands {
        for name in std::iter::once(band.initial.as_str())
            .chain(band.switches.iter().map(|(_, p)| p.as_str()))
        {
            if !legend.contains(&name) {
                legend.push(name);
            }
        }
    }
    let mut lx = LABEL_W;
    for name in &legend {
        let _ = writeln!(
            svg,
            "<rect x=\"{lx}\" y=\"6\" width=\"12\" height=\"12\" fill=\"{}\"/>",
            policy_color(name)
        );
        let _ = writeln!(
            svg,
            "<text x=\"{}\" y=\"16\">{}</text>",
            lx + 16.0,
            escape(name)
        );
        lx += 16.0 + 10.0 * name.len() as f64 + 18.0;
    }

    for (bi, band) in bands.iter().enumerate() {
        let y = LEGEND_H + bi as f64 * (BAND_H + BAND_GAP);
        let _ = writeln!(
            svg,
            "<text x=\"{}\" y=\"{:.1}\" text-anchor=\"end\">{}</text>",
            LABEL_W - 6.0,
            y + BAND_H / 2.0 + 4.0,
            escape(&band.label)
        );
        // Walk the switch log into contiguous residence segments.
        let mut t = 0.0f64;
        let mut active = band.initial.as_str();
        let mut segments: Vec<(f64, f64, &str)> = Vec::new();
        for (at, to) in &band.switches {
            segments.push((t, *at, active));
            t = *at;
            active = to;
        }
        segments.push((t, end_secs, active));
        for (t0, t1, policy) in segments {
            if t1 <= t0 {
                continue;
            }
            let x = x_of(t0);
            let w = (x_of(t1) - x).max(0.5);
            let _ = writeln!(
                svg,
                "<rect x=\"{x:.1}\" y=\"{y:.1}\" width=\"{w:.1}\" height=\"{BAND_H}\" \
                 fill=\"{}\" stroke=\"white\" stroke-width=\"0.4\">\
                 <title>{} [{t0:.0}s, {t1:.0}s)</title></rect>",
                policy_color(policy),
                escape(policy)
            );
        }
        // Tick marks at switch instants make rapid flapping visible even
        // when segments collapse below a pixel.
        for (at, _) in &band.switches {
            let x = x_of(*at);
            let _ = writeln!(
                svg,
                "<line x1=\"{x:.1}\" y1=\"{:.1}\" x2=\"{x:.1}\" y2=\"{:.1}\" stroke=\"#333\"/>",
                y + BAND_H,
                y + BAND_H + 4.0
            );
        }
    }

    // Time axis: 5 evenly spaced ticks.
    let axis_y = LEGEND_H + bands.len() as f64 * (BAND_H + BAND_GAP) + 4.0;
    for i in 0..=4 {
        let t = end_secs * i as f64 / 4.0;
        let x = x_of(t);
        let _ = writeln!(
            svg,
            "<text x=\"{x:.1}\" y=\"{:.1}\" text-anchor=\"middle\">{}</text>",
            axis_y + 12.0,
            format_tick(t)
        );
    }
    let _ = writeln!(
        svg,
        "<text x=\"{}\" y=\"{:.1}\" text-anchor=\"middle\">time [s]</text>",
        LABEL_W + plot_w / 2.0,
        axis_y + 28.0
    );
    svg.push_str("</svg>\n");
    svg
}

/// Writes a switch timeline to `dir/<name>.svg`.
pub fn write_switch_timeline(
    bands: &[SwitchBand],
    end_secs: f64,
    dir: &Path,
    name: &str,
) -> io::Result<()> {
    std::fs::create_dir_all(dir)?;
    std::fs::write(
        dir.join(format!("{name}.svg")),
        render_switch_timeline(bands, end_secs, 960.0),
    )
}

fn format_tick(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 100.0 {
        format!("{v:.0}")
    } else if v.abs() >= 1.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.2}")
    }
}

fn escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FigureData {
        let mut f = FigureData::new("Fig (CTC) — SLDwA", &["FCFS", "SJF", "paper_FCFS"]);
        f.push(1.0, vec![2.61, 2.78, 2.61]);
        f.push(0.8, vec![7.51, 8.36, 7.51]);
        f.push(0.6, vec![19.61, 17.46, 19.61]);
        f
    }

    fn linear() -> ChartOptions {
        ChartOptions {
            log_y: false,
            y_label: "",
            x_label: "shrinking factor",
        }
    }

    #[test]
    fn renders_valid_svg_with_all_series() {
        let svg = render_chart(&sample(), &linear());
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>\n"));
        assert_eq!(svg.matches("<polyline").count(), 3);
        assert!(svg.contains("FCFS"));
        assert!(svg.contains("stroke-dasharray"), "paper series is dashed");
        // Measured series carry point markers, the dashed one does not:
        // 2 measured × 3 points = 6 circles.
        assert_eq!(svg.matches("<circle").count(), 6);
    }

    #[test]
    fn log_scale_uses_decade_ticks() {
        let opts = ChartOptions {
            log_y: true,
            y_label: "SLDwA",
            ..linear()
        };
        let svg = render_chart(&sample(), &opts);
        // Range 2.61..19.61 → decades 1 and 10 and 100.
        assert!(svg.contains(">1.0<") || svg.contains(">1<"));
        assert!(svg.contains(">10<") || svg.contains(">10.0<"));
    }

    #[test]
    fn coordinates_stay_inside_the_canvas() {
        let svg = render_chart(&sample(), &linear());
        for cap in svg.split("cx=\"").skip(1) {
            let x: f64 = cap.split('"').next().unwrap().parse().unwrap();
            assert!((0.0..=WIDTH).contains(&x), "x {x} outside");
        }
    }

    #[test]
    fn empty_data_renders_placeholder() {
        let f = FigureData::new("empty", &["a"]);
        let svg = render_chart(&f, &linear());
        assert!(svg.contains("no data"));
    }

    #[test]
    fn escape_handles_markup() {
        assert_eq!(escape("a<b&c>d"), "a&lt;b&amp;c&gt;d");
    }

    mod gantt {
        use super::super::*;
        use dynp_des::{SimDuration, SimTime};
        use dynp_workload::{Job, JobId};

        fn done(id: u32, start_s: u64, width: u32, run_s: u64) -> CompletedJob {
            CompletedJob {
                job: Job::new(
                    JobId(id),
                    SimTime::ZERO,
                    width,
                    SimDuration::from_secs(run_s),
                    SimDuration::from_secs(run_s),
                ),
                start: SimTime::from_secs(start_s),
                end: SimTime::from_secs(start_s + run_s),
            }
        }

        #[test]
        fn renders_one_rect_per_job_with_tooltips() {
            let jobs = [done(0, 0, 2, 100), done(1, 0, 2, 50), done(2, 100, 4, 25)];
            let svg = render_gantt(&jobs, 4, 800.0, 400.0);
            // Frame rect + 3 job rects.
            assert_eq!(svg.matches("<rect").count(), 4);
            assert_eq!(svg.matches("<title>").count(), 3);
            assert!(svg.contains("j2 w=4"));
        }

        #[test]
        fn concurrent_jobs_get_disjoint_rows() {
            // Two width-2 jobs running concurrently on a 4-proc machine
            // must land on different row bases (y coordinates differ).
            let jobs = [done(0, 0, 2, 100), done(1, 0, 2, 100)];
            let svg = render_gantt(&jobs, 4, 800.0, 400.0);
            let ys: Vec<&str> = svg.split("<title>").skip(1).map(|_| "").collect();
            assert_eq!(ys.len(), 2);
            // Extract the y=".." of the two job rects (skip the frame).
            let mut y_vals = Vec::new();
            for part in svg.split("<rect ").skip(2) {
                let y = part.split("y=\"").nth(1).unwrap();
                let y: f64 = y.split('"').next().unwrap().parse().unwrap();
                y_vals.push(y);
            }
            assert_ne!(y_vals[0], y_vals[1]);
        }

        #[test]
        fn empty_gantt_is_placeholder() {
            let svg = render_gantt(&[], 4, 800.0, 400.0);
            assert!(svg.contains("no jobs"));
        }
    }

    mod timeline {
        use super::super::*;

        fn band() -> SwitchBand {
            SwitchBand {
                label: "advanced".into(),
                initial: "FCFS".into(),
                switches: vec![(100.0, "SJF".into()), (250.0, "LJF".into())],
            }
        }

        #[test]
        fn renders_one_segment_per_residence() {
            let svg = render_switch_timeline(&[band()], 400.0, 960.0);
            assert!(svg.starts_with("<svg"));
            assert!(svg.ends_with("</svg>\n"));
            // 3 residence segments + 3 legend swatches.
            assert_eq!(svg.matches("<rect").count(), 6);
            assert_eq!(svg.matches("<title>").count(), 3);
            assert!(svg.contains("advanced"));
            // One color per policy, used by both segment and legend.
            for color in ["#1f77b4", "#d62728", "#2ca02c"] {
                assert_eq!(svg.matches(color).count(), 2, "{color}");
            }
            // Switch instants get tick marks.
            assert_eq!(svg.matches("<line").count(), 2);
        }

        #[test]
        fn stacks_bands_and_shares_the_legend() {
            let second = SwitchBand {
                label: "simple".into(),
                initial: "FCFS".into(),
                switches: vec![],
            };
            let svg = render_switch_timeline(&[band(), second], 400.0, 960.0);
            assert!(svg.contains("simple"));
            // 3 + 1 segments, 3 legend swatches (FCFS not duplicated).
            assert_eq!(svg.matches("<rect").count(), 7);
        }

        #[test]
        fn empty_timeline_is_placeholder() {
            let svg = render_switch_timeline(&[], 400.0, 960.0);
            assert!(svg.contains("no switches"));
            let svg = render_switch_timeline(&[band()], 0.0, 960.0);
            assert!(svg.contains("no switches"));
        }
    }

    #[test]
    fn file_output_works() {
        let dir = std::env::temp_dir().join("dynp_svg_test");
        write_chart(&sample(), &linear(), &dir, "fig").unwrap();
        let content = std::fs::read_to_string(dir.join("fig.svg")).unwrap();
        assert!(content.contains("<svg"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
