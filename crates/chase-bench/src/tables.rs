//! Plain-text table/series printers shared by the benchmark targets.
//!
//! Criterion measures time; the *shape* results the paper reports
//! (classification matrices, chase-length series, hierarchy levels) are
//! printed by these helpers so a `cargo bench` run reproduces them
//! verbatim.

/// One row of a printed table: label plus cells.
#[derive(Debug, Clone)]
pub struct Row {
    /// Row label (first column).
    pub label: String,
    /// Remaining cells.
    pub cells: Vec<String>,
}

impl Row {
    /// Build a row from anything displayable.
    pub fn new(label: impl Into<String>, cells: Vec<String>) -> Row {
        Row {
            label: label.into(),
            cells,
        }
    }
}

/// Print an aligned table with a title and header.
pub fn print_table(title: &str, header: &[&str], rows: &[Row]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        widths[0] = widths[0].max(row.label.len());
        for (i, c) in row.cells.iter().enumerate() {
            if i + 1 < widths.len() {
                widths[i + 1] = widths[i + 1].max(c.len());
            }
        }
    }
    let fmt_row = |label: &str, cells: &[String]| {
        let mut line = format!("{label:<width$}", width = widths[0]);
        for (i, c) in cells.iter().enumerate() {
            let w = widths.get(i + 1).copied().unwrap_or(c.len());
            line.push_str(&format!("  {c:>w$}"));
        }
        line
    };
    let header_cells: Vec<String> = header[1..].iter().map(|s| s.to_string()).collect();
    println!("{}", fmt_row(header[0], &header_cells));
    for row in rows {
        println!("{}", fmt_row(&row.label, &row.cells));
    }
}

/// Print an `(x, y)` series, one point per line, for growth-shape
/// eyeballing.
pub fn print_series(title: &str, x_name: &str, y_name: &str, points: &[(f64, f64)]) {
    println!("\n=== {title} ===");
    println!("{x_name:>12}  {y_name:>14}");
    for &(x, y) in points {
        println!("{x:>12.1}  {y:>14.2}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_printing_does_not_panic() {
        print_table(
            "demo",
            &["set", "WA", "safe"],
            &[
                Row::new("fig2", vec!["no".into(), "no".into()]),
                Row::new("example10", vec!["no".into(), "no".into()]),
            ],
        );
        print_series("growth", "n", "steps", &[(1.0, 2.0), (2.0, 4.0)]);
    }
}
