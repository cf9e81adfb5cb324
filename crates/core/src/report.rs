//! Plain-text and CSV rendering for experiment results.
//!
//! Every experiment returns a typed result; these helpers turn series and
//! tables into the aligned text the example binaries and EXPERIMENTS.md
//! print, plus CSV for external plotting.

use std::fmt::Write as _;

/// A simple aligned text table.
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Start a table with a header row.
    pub fn new<S: Into<String>>(header: impl IntoIterator<Item = S>) -> TextTable {
        TextTable {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (padded/truncated to the header width).
    pub fn row<S: Into<String>>(&mut self, cells: impl IntoIterator<Item = S>) -> &mut Self {
        let mut row: Vec<String> = cells.into_iter().map(Into::into).collect();
        row.resize(self.header.len(), String::new());
        self.rows.push(row);
        self
    }

    /// Render with aligned columns.
    pub(crate) fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(cols) {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |out: &mut String, cells: &[String]| {
            for (i, cell) in cells.iter().enumerate().take(cols) {
                if i > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{cell:<width$}", width = widths[i]);
            }
            // Trim trailing padding.
            while out.ends_with(' ') {
                out.pop();
            }
            out.push('\n');
        };
        fmt_row(&mut out, &self.header);
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            fmt_row(&mut out, row);
        }
        out
    }

    /// Render as CSV (naive quoting: cells with commas get quoted).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let csv_row = |out: &mut String, cells: &[String]| {
            let encoded: Vec<String> = cells
                .iter()
                .map(|c| {
                    if c.contains(',') || c.contains('"') {
                        format!("\"{}\"", c.replace('"', "\"\""))
                    } else {
                        c.clone()
                    }
                })
                .collect();
            out.push_str(&encoded.join(","));
            out.push('\n');
        };
        csv_row(&mut out, &self.header);
        for row in &self.rows {
            csv_row(&mut out, row);
        }
        out
    }
}

/// Format an optional normalized value ("1.23" or "-").
pub(crate) fn opt_norm(v: Option<f64>) -> String {
    v.map(|x| format!("{x:.3}")).unwrap_or_else(|| "-".into())
}

/// Render a compact sparkline of a normalized series (for terminal
/// output), mapping `[0, max]` onto eight block glyphs.
pub(crate) fn sparkline(values: &[f64]) -> String {
    const GLYPHS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    if values.is_empty() || max <= 0.0 {
        return String::new();
    }
    values
        .iter()
        .map(|&v| {
            let idx = ((v / max) * 7.0).round().clamp(0.0, 7.0) as usize;
            GLYPHS[idx]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_render_aligned() {
        let mut t = TextTable::new(["week", "value"]);
        t.row(["3", "1.000"]);
        t.row(["12", "1.214"]);
        let s = t.render();
        assert!(s.contains("week  value"));
        assert!(s.lines().count() == 4);
        assert_eq!(t.rows.len(), 2);
    }

    #[test]
    fn csv_quoting() {
        let mut t = TextTable::new(["a", "b"]);
        t.row(["x,y", "he said \"hi\""]);
        let csv = t.to_csv();
        assert!(csv.contains("\"x,y\""));
        assert!(csv.contains("\"he said \"\"hi\"\"\""));
    }

    #[test]
    fn short_rows_padded() {
        let mut t = TextTable::new(["a", "b", "c"]);
        t.row(["only"]);
        assert!(t.render().lines().count() == 3);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(opt_norm(Some(1.5)), "1.500");
        assert_eq!(opt_norm(None), "-");
    }

    #[test]
    fn sparkline_shapes() {
        let s = sparkline(&[0.0, 0.5, 1.0]);
        assert_eq!(s.chars().count(), 3);
        assert!(s.ends_with('█'));
        assert_eq!(sparkline(&[]), "");
    }
}
