//! Text tables and JSON-lines output for the figure binaries.

/// A simple right-aligned table printer.
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Table {
        Table {
            header: header
                .iter()
                .map(std::string::ToString::to_string)
                .collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header length).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let ncols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(std::string::String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let line = |out: &mut String, cells: &[String]| {
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                for _ in 0..widths[i].saturating_sub(c.len()) {
                    out.push(' ');
                }
                out.push_str(c);
            }
            out.push('\n');
        };
        line(&mut out, &self.header);
        let total: usize = widths.iter().sum::<usize>() + 2 * (ncols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            line(&mut out, row);
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Formats a float with 3 significant decimals.
pub fn f3(v: f64) -> String {
    format!("{v:.3}")
}

/// Emits one JSON line: `{"figure": ..., key: value, ...}`.
pub fn json_line(figure: &str, fields: &[(&str, String)]) {
    let mut s = format!("{{\"figure\":\"{figure}\"");
    for (k, v) in fields {
        // Values that parse as numbers are emitted bare.
        if v.parse::<f64>().is_ok() {
            s.push_str(&format!(",\"{k}\":{v}"));
        } else {
            s.push_str(&format!(",\"{k}\":\"{v}\""));
        }
    }
    s.push('}');
    println!("{s}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new(&["sys", "mops"]);
        t.row(vec!["respct".into(), "1.234".into()]);
        t.row(vec!["pm".into(), "0.5".into()]);
        let r = t.render();
        assert!(r.contains("respct"));
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0].len(), lines[2].len());
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn rejects_bad_rows() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["x".into()]);
    }

    #[test]
    fn f3_formats() {
        assert_eq!(f3(1.23456), "1.235");
    }
}
