//! Measurement records and report rendering.
//!
//! Every figure/table regenerator emits [`Measurement`] rows once and
//! renders those rows through [`render_pivot`] or [`Table`] (fixed-width
//! text) or CSV, so EXPERIMENTS.md can diff paper values against produced
//! values mechanically.

use crate::stats::Stats;
use serde::{Deserialize, Serialize};

/// One measured/modeled data point.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Measurement {
    /// Experiment id, e.g. "fig1", "table2".
    pub experiment: String,
    /// Workload/kernel label, e.g. "simple", "NPB BT".
    pub workload: String,
    /// Machine label, e.g. "Ookami A64FX".
    pub machine: String,
    /// Toolchain/library label, e.g. "fujitsu", "gcc", "OpenBLAS".
    pub toolchain: String,
    /// Thread (or node) count.
    pub threads: usize,
    /// Primary value (seconds, ratio, GFLOP/s — see `unit`).
    pub value: f64,
    /// Standard deviation of `value` if sampled (else 0).
    pub stddev: f64,
    /// Unit label for `value`.
    pub unit: String,
}

impl Measurement {
    pub fn new(
        experiment: &str,
        workload: &str,
        machine: &str,
        toolchain: &str,
        threads: usize,
        value: f64,
        unit: &str,
    ) -> Self {
        Measurement {
            experiment: experiment.into(),
            workload: workload.into(),
            machine: machine.into(),
            toolchain: toolchain.into(),
            threads,
            value,
            stddev: 0.0,
            unit: unit.into(),
        }
    }

    pub fn with_stats(mut self, s: &Stats) -> Self {
        self.value = s.mean();
        self.stddev = s.stddev();
        self
    }

    /// CSV row (header in [`csv_header`]).
    pub fn csv_row(&self) -> String {
        format!(
            "{},{},{},{},{},{:.6e},{:.3e},{}",
            self.experiment,
            self.workload,
            self.machine,
            self.toolchain,
            self.threads,
            self.value,
            self.stddev,
            self.unit
        )
    }
}

/// CSV header matching [`Measurement::csv_row`].
pub fn csv_header() -> &'static str {
    "experiment,workload,machine,toolchain,threads,value,stddev,unit"
}

/// Render a list of measurements as CSV.
pub fn to_csv(rows: &[Measurement]) -> String {
    let mut s = String::from(csv_header());
    s.push('\n');
    for r in rows {
        s.push_str(&r.csv_row());
        s.push('\n');
    }
    s
}

/// Render `rows` as a workload × column text table: one line per workload
/// and one column per toolchain (per thread count for efficiency rows),
/// both in order of first appearance. `row_header` heads the workload
/// column; values print with `decimals` places, `NaN` where a cell is
/// missing.
pub fn render_pivot(
    rows: &[Measurement],
    title: &str,
    row_header: &str,
    decimals: usize,
) -> String {
    let column = |r: &Measurement| {
        if r.unit == "efficiency" {
            format!("{}t", r.threads)
        } else {
            r.toolchain.clone()
        }
    };
    let keyed: Vec<(&str, String, f64)> = rows
        .iter()
        .map(|r| (r.workload.as_str(), column(r), r.value))
        .collect();
    let mut works: Vec<&str> = Vec::new();
    let mut cols: Vec<&str> = Vec::new();
    for (w, c, _) in &keyed {
        if !works.contains(w) {
            works.push(w);
        }
        if !cols.contains(&c.as_str()) {
            cols.push(c);
        }
    }
    let header: Vec<&str> = std::iter::once(row_header)
        .chain(cols.iter().copied())
        .collect();
    let mut t = Table::new(title, &header);
    for w in works {
        let mut cells = vec![w.to_string()];
        for col in &cols {
            let v = keyed
                .iter()
                .find(|(kw, kc, _)| *kw == w && kc == col)
                .map_or(f64::NAN, |k| k.2);
            cells.push(format!("{v:.decimals$}"));
        }
        t.row(&cells);
    }
    t.render()
}

/// A simple fixed-width text table builder for figure output.
#[derive(Debug, Default)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Table {
            title: title.into(),
            header: header
                .iter()
                .map(std::string::ToString::to_string)
                .collect(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(cells.len(), self.header.len(), "column count mismatch");
        self.rows.push(cells.to_vec());
        self
    }

    pub fn render(&self) -> String {
        let ncol = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(std::string::String::len).collect();
        for r in &self.rows {
            for c in 0..ncol {
                widths[c] = widths[c].max(r[c].len());
            }
        }
        let mut out = String::new();
        if !self.title.is_empty() {
            out.push_str(&format!("== {} ==\n", self.title));
        }
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (c, cell) in cells.iter().enumerate() {
                if c > 0 {
                    line.push_str("  ");
                }
                // Right-align numeric-looking cells, left-align labels.
                if cell.parse::<f64>().is_ok() {
                    line.push_str(&format!("{:>w$}", cell, w = widths[c]));
                } else {
                    line.push_str(&format!("{:<w$}", cell, w = widths[c]));
                }
            }
            line.push('\n');
            line
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push_str(&format!(
            "{}\n",
            "-".repeat(widths.iter().sum::<usize>() + 2 * (ncol - 1))
        ));
        for r in &self.rows {
            out.push_str(&fmt_row(r, &widths));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_round_shape() {
        let m = Measurement::new("fig1", "simple", "A64FX", "fujitsu", 1, 2.0, "x_skx");
        let csv = to_csv(&[m]);
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some(csv_header()));
        let row = lines.next().expect("row");
        assert!(row.starts_with("fig1,simple,A64FX,fujitsu,1,"));
        assert!(row.ends_with("x_skx"));
    }

    #[test]
    fn with_stats_fills_mean_and_stddev() {
        let s = Stats::from_slice(&[1.0, 2.0, 3.0]);
        let m = Measurement::new("e", "w", "m", "t", 4, 0.0, "s").with_stats(&s);
        assert!((m.value - 2.0).abs() < 1e-12);
        assert!((m.stddev - 1.0).abs() < 1e-12);
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("Demo", &["kernel", "value"]);
        t.row(&["simple".into(), "2.00".into()]);
        t.row(&["short gather".into(), "1.50".into()]);
        let s = t.render();
        assert!(s.contains("== Demo =="));
        assert!(s.contains("simple"));
        assert!(s.contains("1.50"));
        // all data lines have equal length (fixed-width)
        let lens: Vec<usize> = s
            .lines()
            .skip(1)
            .map(|l| l.trim_end().len())
            .filter(|&l| l > 0)
            .collect();
        assert!(lens.windows(2).all(|w| w[0] == w[1]), "{s}");
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn table_column_mismatch_panics() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(&["only-one".into()]);
    }
}
