//! Text-report formatting helpers shared by the experiment regenerators.

use alpha_pim_sim::report::PhaseBreakdown;

/// Version of the shared `BENCH_*.json` schema: every benchmark artifact
/// starts with `schema_version`, `commit`, `tier` and `nproc` so
/// `scripts/bench_summary.sh` can build a trajectory table across files.
pub const BENCH_SCHEMA_VERSION: u32 = 1;

/// The shared leading fields of a `BENCH_*.json` object (no surrounding
/// braces, no trailing comma): `"schema_version": …, "commit": …,
/// "tier": …, "nproc": …`. `tier` names the producing stage
/// (`"perfsmoke"`, `"serve"`, `"analytic-serve"`, `"calibration"`, …);
/// `nproc` is the host's available parallelism (`null` if unknown), the
/// context any host wall time in the artifact was measured in.
pub fn bench_schema_fields(tier: &str) -> String {
    let nproc =
        std::thread::available_parallelism().map_or_else(|_| "null".to_string(), |n| n.to_string());
    format!(
        "\"schema_version\": {BENCH_SCHEMA_VERSION}, \"commit\": \"{}\", \"tier\": \"{tier}\", \
         \"nproc\": {nproc}",
        git_commit()
    )
}

/// Short hash of the checked-out commit, or `"unknown"` outside a git
/// checkout (benchmarks must run from exported tarballs too).
fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// A fixed-width text table builder.
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Starts a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Table { header: header.iter().map(|s| s.to_string()).collect(), rows: Vec::new() }
    }

    /// Appends one row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.header.len().max(
            self.rows.iter().map(|r| r.len()).max().unwrap_or(0),
        );
        let mut widths = vec![0usize; cols];
        for (i, h) in self.header.iter().enumerate() {
            widths[i] = widths[i].max(h.len());
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:<width$}", c, width = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
                .trim_end()
                .to_string()
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Formats a phase breakdown as four normalized cells.
pub fn phase_cells(p: &PhaseBreakdown, reference_total: f64) -> Vec<String> {
    let n = p.normalized_to(reference_total);
    vec![
        format!("{:.3}", n.load),
        format!("{:.3}", n.kernel),
        format!("{:.3}", n.retrieve),
        format!("{:.3}", n.merge),
        format!("{:.3}", n.total()),
    ]
}

/// Geometric mean of positive values; 0 for an empty slice.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(1e-300).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Formats seconds as engineering-readable milliseconds.
pub fn ms(seconds: f64) -> String {
    format!("{:.3}", seconds * 1e3)
}

/// Formats a ratio as `x.xx×`.
pub fn speedup(r: f64) -> String {
    format!("{r:.2}x")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let mut t = Table::new(&["a", "long-header"]);
        t.row(vec!["xxxx".into(), "1".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert!(lines[0].starts_with("a     long-header"));
        assert!(lines[2].starts_with("xxxx"));
    }

    #[test]
    fn geomean_of_identical_values_is_the_value() {
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
        // geomean(1, 4) = 2
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn phase_cells_normalize() {
        let p = PhaseBreakdown { load: 1.0, kernel: 1.0, retrieve: 1.0, merge: 1.0 };
        let cells = phase_cells(&p, 4.0);
        assert_eq!(cells[0], "0.250");
        assert_eq!(cells[4], "1.000");
    }
}
