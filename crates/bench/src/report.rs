//! Timing and table-formatting helpers for the reproduction binaries.

use std::time::Instant;

/// Runs `f`, returning its result and the elapsed milliseconds.
pub fn time_millis<R>(mut f: impl FnMut() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1_000.0)
}

/// Runs `f` `reps` times, returning the last result and the **median**
/// elapsed milliseconds (robust to warm-up noise).
pub fn time_median<R>(reps: usize, mut f: impl FnMut() -> R) -> (R, f64) {
    assert!(reps > 0, "need at least one repetition");
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let (out, ms) = time_millis(&mut f);
        times.push(ms);
        last = Some(out);
    }
    times.sort_by(f64::total_cmp);
    (last.expect("reps > 0"), times[times.len() / 2])
}

/// One case of a `benches/` program: prints the median milliseconds of
/// `reps` runs of `f`, or of a single run when the program was passed
/// `--test` (the smoke mode of `cargo bench -- --test`).
pub fn bench<R>(name: &str, reps: usize, f: impl FnMut() -> R) {
    let smoke = std::env::args().any(|a| a == "--test");
    let reps = if smoke { 1 } else { reps };
    let (out, ms) = time_median(reps, f);
    std::hint::black_box(out);
    println!("{name:<48} {ms:>14.6} ms  (median of {reps})");
}

/// A plain-text table printer with right-padded columns.
#[derive(Debug, Default)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (must match the header count).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells);
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for i in 0..cols {
                line.push_str(&format!("{:<w$}", cells[i], w = widths[i]));
                if i + 1 < cols {
                    line.push_str("  ");
                }
            }
            line.push('\n');
            line
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Scientific notation with three significant digits, `"n/a"` for `None`.
pub fn sci(x: Option<f64>) -> String {
    match x {
        Some(v) => format!("{v:.3e}"),
        None => "n/a".to_string(),
    }
}

/// Percentage with two decimals.
pub fn pct(x: f64) -> String {
    format!("{:.2}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_columns() {
        let mut t = Table::new(&["query", "value"]);
        t.row(vec!["TPCH1".into(), "1.0".into()]);
        t.row(vec!["LinearRegression".into(), "0.5".into()]);
        let text = t.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("query"));
        assert!(lines[3].starts_with("LinearRegression"));
        // All value cells start at the same column.
        let col = lines[2].find("1.0").unwrap();
        assert_eq!(lines[3].find("0.5").unwrap(), col);
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn row_arity_checked() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["x".into()]);
    }

    #[test]
    fn timing_returns_positive_duration() {
        let (v, ms) = time_millis(|| {
            std::thread::sleep(std::time::Duration::from_millis(5));
            42
        });
        assert_eq!(v, 42);
        assert!(ms >= 4.0);
        let (_, med) = time_median(3, || ());
        assert!(med >= 0.0);
    }

    #[test]
    fn formatters() {
        assert_eq!(sci(None), "n/a");
        assert!(sci(Some(12345.0)).contains('e'));
        assert_eq!(pct(0.5), "50.00%");
    }
}
