//! Dependency-free table/series emitters (CSV and Markdown).
//!
//! The experiment binaries print the paper's Table I and Figure 1 data with
//! these helpers; no serde needed.

use std::fmt::Write as _;

/// A rectangular table with a header row.
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        Table {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; must match the header width.
    ///
    /// # Panics
    /// If the row width differs from the header width.
    pub fn push_row<S: Into<String>>(&mut self, row: Vec<S>) {
        let row: Vec<String> = row.into_iter().map(Into::into).collect();
        assert_eq!(
            row.len(),
            self.header.len(),
            "row width {} != header width {}",
            row.len(),
            self.header.len()
        );
        self.rows.push(row);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` if there are no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders as CSV (RFC-4180-style quoting for fields containing commas,
    /// quotes or newlines).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let escape = |f: &str| -> String {
            if f.contains([',', '"', '\n']) {
                format!("\"{}\"", f.replace('"', "\"\""))
            } else {
                f.to_string()
            }
        };
        let emit = |out: &mut String, row: &[String]| {
            let line: Vec<String> = row.iter().map(|f| escape(f)).collect();
            out.push_str(&line.join(","));
            out.push('\n');
        };
        emit(&mut out, &self.header);
        for row in &self.rows {
            emit(&mut out, row);
        }
        out
    }

    /// Renders as a GitHub-flavoured Markdown table with aligned columns.
    pub fn to_markdown(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, f) in row.iter().enumerate() {
                widths[i] = widths[i].max(f.len());
            }
        }
        let mut out = String::new();
        let emit = |out: &mut String, row: &[String]| {
            out.push('|');
            for (i, &w) in widths.iter().enumerate() {
                let f = row.get(i).map(String::as_str).unwrap_or("");
                let _ = write!(out, " {f:<w$} |");
            }
            out.push('\n');
        };
        emit(&mut out, &self.header);
        out.push('|');
        for w in &widths {
            let _ = write!(out, "{}|", "-".repeat(w + 2));
        }
        out.push('\n');
        for row in &self.rows {
            emit(&mut out, row);
        }
        out
    }
}

/// Formats a float with `prec` decimals (helper for table cells).
pub fn fnum(x: f64, prec: usize) -> String {
    format!("{x:.prec$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_round_trip_simple() {
        let mut t = Table::new(vec!["a", "b"]);
        t.push_row(vec!["1", "2"]);
        t.push_row(vec!["x,y", "q\"z"]);
        let csv = t.to_csv();
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.contains("\"x,y\""));
        assert!(csv.contains("\"q\"\"z\""));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn markdown_is_aligned() {
        let mut t = Table::new(vec!["lambda", "gain"]);
        t.push_row(vec!["4", "8.74"]);
        t.push_row(vec!["12", "7.69"]);
        let md = t.to_markdown();
        let lines: Vec<&str> = md.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[1].starts_with("|--"));
        // All lines same width thanks to padding.
        assert_eq!(lines[0].len(), lines[2].len());
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let mut t = Table::new(vec!["a", "b"]);
        t.push_row(vec!["only-one"]);
    }

    #[test]
    fn fnum_precision() {
        assert_eq!(fnum(1.23456, 2), "1.23");
        assert_eq!(fnum(50.0, 4), "50.0000");
    }
}
