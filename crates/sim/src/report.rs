//! Result rendering: aligned text tables, CSV, and gnuplot-ready data
//! files for the figures.

use serde::{Deserialize, Serialize};
use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// A simple rectangular table with a title and column headers.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub(crate) struct Table {
    /// Caption printed above the table.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of cells (ragged rows are padded when rendering).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub(crate) fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub(crate) fn push_row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Renders as an aligned plain-text table.
    pub(crate) fn to_text(&self) -> String {
        let ncols = self
            .rows
            .iter()
            .map(Vec::len)
            .chain([self.headers.len()])
            .max()
            .unwrap_or(0);
        let mut widths = vec![0usize; ncols];
        fn cell(row: &[String], i: usize) -> &str {
            row.get(i).map_or("", |s| s.as_str())
        }
        for (i, w) in widths.iter_mut().enumerate() {
            *w = self
                .rows
                .iter()
                .map(|r| cell(r, i).len())
                .chain([self.headers.get(i).map_or(0, String::len)])
                .max()
                .unwrap_or(0);
        }
        let mut out = String::new();
        if !self.title.is_empty() {
            let _ = writeln!(out, "{}", self.title);
        }
        let fmt_row = |row: &[String]| -> String {
            let mut line = String::new();
            for (i, w) in widths.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                let _ = write!(line, "{:>w$}", cell(row, i), w = w);
            }
            line
        };
        let _ = writeln!(out, "{}", fmt_row(&self.headers));
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1);
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row));
        }
        out
    }

    /// Renders as CSV (RFC-4180-ish; cells with commas or quotes are
    /// quoted).
    pub(crate) fn to_csv(&self) -> String {
        let esc = |s: &str| -> String {
            if s.contains(',') || s.contains('"') || s.contains('\n') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}",
            self.headers
                .iter()
                .map(|h| esc(h))
                .collect::<Vec<_>>()
                .join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(",")
            );
        }
        out
    }

    /// Writes the CSV form to `dir/<name>.csv`.
    pub(crate) fn write_csv(&self, dir: &Path, name: &str) -> io::Result<()> {
        std::fs::create_dir_all(dir)?;
        std::fs::write(dir.join(format!("{name}.csv")), self.to_csv())
    }
}

/// A figure data series: x values (shrinking factors) and one y column
/// per labeled series — written as whitespace-separated gnuplot data.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct FigureData {
    /// Figure caption.
    pub title: String,
    /// Series labels (column names after `x`).
    pub series: Vec<String>,
    /// Rows: (x, y per series).
    pub rows: Vec<(f64, Vec<f64>)>,
}

impl FigureData {
    /// Creates an empty figure.
    pub(crate) fn new(title: impl Into<String>, series: &[&str]) -> Self {
        FigureData {
            title: title.into(),
            series: series.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a data row.
    pub(crate) fn push(&mut self, x: f64, ys: Vec<f64>) {
        debug_assert_eq!(ys.len(), self.series.len());
        self.rows.push((x, ys));
    }

    /// Renders as a gnuplot-ready data block with a comment header.
    pub(crate) fn to_dat(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# {}", self.title);
        let _ = writeln!(out, "# x {}", self.series.join(" "));
        for (x, ys) in &self.rows {
            let _ = write!(out, "{x}");
            for y in ys {
                let _ = write!(out, " {y:.6}");
            }
            out.push('\n');
        }
        out
    }

    /// Writes the data block to `dir/<name>.dat`.
    pub(crate) fn write_dat(&self, dir: &Path, name: &str) -> io::Result<()> {
        std::fs::create_dir_all(dir)?;
        std::fs::write(dir.join(format!("{name}.dat")), self.to_dat())
    }

    /// Parses a data block produced by `FigureData::to_dat` (used by
    /// the `figures` binary to re-render stored results as SVG).
    pub fn from_dat(text: &str) -> Result<FigureData, String> {
        let mut lines = text.lines();
        let title = lines
            .next()
            .and_then(|l| l.strip_prefix("# "))
            .ok_or("missing title line")?
            .to_string();
        let header = lines
            .next()
            .and_then(|l| l.strip_prefix("# x "))
            .ok_or("missing series header line")?;
        let series: Vec<String> = header.split_whitespace().map(str::to_string).collect();
        if series.is_empty() {
            return Err("no series in header".into());
        }
        let mut fig = FigureData {
            title,
            series,
            rows: Vec::new(),
        };
        for (i, line) in lines.enumerate() {
            if line.trim().is_empty() || line.starts_with('#') {
                continue;
            }
            let mut nums = line.split_whitespace().map(|t| {
                t.parse::<f64>()
                    .map_err(|_| format!("line {}: bad number {t:?}", i + 3))
            });
            let x = nums.next().ok_or(format!("line {}: empty", i + 3))??;
            let ys: Result<Vec<f64>, String> = nums.collect();
            let ys = ys?;
            if ys.len() != fig.series.len() {
                return Err(format!(
                    "line {}: {} values for {} series",
                    i + 3,
                    ys.len(),
                    fig.series.len()
                ));
            }
            fig.rows.push((x, ys));
        }
        Ok(fig)
    }
}

/// Formats a float with `digits` decimals, or `"-"` for NaN.
pub(crate) fn num(v: f64, digits: usize) -> String {
    if v.is_nan() {
        "-".to_string()
    } else {
        format!("{v:.digits$}")
    }
}

/// Formats a signed percentage with two decimals (e.g. `"+10.92"`).
pub(crate) fn signed(v: f64, digits: usize) -> String {
    if v.is_nan() {
        "-".to_string()
    } else {
        format!("{v:+.digits$}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("Demo", &["trace", "SLDwA", "util"]);
        t.push_row(vec!["CTC".into(), "2.61".into(), "76.20".into()]);
        t.push_row(vec!["KTH".into(), "4.06".into(), "69.33".into()]);
        t
    }

    #[test]
    fn text_is_aligned_and_complete() {
        let s = sample().to_text();
        assert!(s.contains("Demo"));
        assert!(s.contains("trace"));
        assert!(s.contains("CTC"));
        assert!(s.lines().count() >= 5);
        // All data lines align to the same width.
        let lines: Vec<&str> = s.lines().skip(1).collect();
        assert_eq!(lines[1].len(), lines[2].len().max(lines[1].len()));
    }

    #[test]
    fn csv_escapes_delimiters() {
        let mut t = Table::new("", &["a", "b"]);
        t.push_row(vec!["x,y".into(), "say \"hi\"".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"x,y\""));
        assert!(csv.contains("\"say \"\"hi\"\"\""));
    }

    #[test]
    fn figure_dat_format() {
        let mut f = FigureData::new("Fig 1 CTC", &["FCFS", "SJF", "LJF"]);
        f.push(1.0, vec![2.61, 2.78, 3.55]);
        f.push(0.9, vec![3.99, 4.80, 5.99]);
        let dat = f.to_dat();
        assert!(dat.starts_with("# Fig 1 CTC"));
        assert!(dat.contains("1 2.610000 2.780000 3.550000"));
        assert_eq!(dat.lines().count(), 4);
    }

    #[test]
    fn files_round_trip() {
        let dir = std::env::temp_dir().join("dynp_report_test");
        sample().write_csv(&dir, "t").unwrap();
        let read = std::fs::read_to_string(dir.join("t.csv")).unwrap();
        assert!(read.contains("CTC"));
        let mut f = FigureData::new("x", &["s"]);
        f.push(0.5, vec![1.0]);
        f.write_dat(&dir, "f").unwrap();
        assert!(std::fs::read_to_string(dir.join("f.dat"))
            .unwrap()
            .contains("0.5"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dat_round_trips() {
        let mut f = FigureData::new("Fig 1 CTC", &["FCFS", "SJF"]);
        f.push(1.0, vec![2.61, 2.78]);
        f.push(0.9, vec![3.99, 4.80]);
        let back = FigureData::from_dat(&f.to_dat()).unwrap();
        assert_eq!(back.title, f.title);
        assert_eq!(back.series, f.series);
        assert_eq!(back.rows.len(), 2);
        assert!((back.rows[1].1[1] - 4.80).abs() < 1e-9);
    }

    #[test]
    fn from_dat_rejects_malformed_input() {
        assert!(FigureData::from_dat("").is_err());
        assert!(FigureData::from_dat("# t\n# x a\n1 x\n").is_err());
        assert!(FigureData::from_dat("# t\n# x a b\n1 2\n").is_err());
    }

    #[test]
    fn num_and_signed_handle_nan() {
        assert_eq!(num(1.23456, 2), "1.23");
        assert_eq!(num(f64::NAN, 2), "-");
        assert_eq!(signed(10.9234, 2), "+10.92");
        assert_eq!(signed(-0.72, 2), "-0.72");
        assert_eq!(signed(f64::NAN, 1), "-");
    }
}
