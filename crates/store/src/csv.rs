//! A minimal, dependency-free CSV reader (RFC 4180 subset).
//!
//! Supports comma separation, `"`-quoted fields with embedded commas,
//! doubled-quote escapes and both `\n` and `\r\n` line endings. This
//! lives in the store crate (it is the ingest parser) and is
//! re-exported by `upa-cli` for its own column extraction.

/// A parsed CSV document: header plus records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsvDocument {
    /// Column names from the first row.
    pub header: Vec<String>,
    /// Data rows (each the same arity as the header).
    pub rows: Vec<Vec<String>>,
    /// The 1-based file line of each row: blank lines are skipped, so a
    /// row's index does not give its line.
    lines: Vec<usize>,
}

/// CSV parsing errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CsvError {
    /// The input had no header row.
    Empty,
    /// A row's field count differed from the header's; payload is the
    /// 1-based line number.
    ArityMismatch(usize),
    /// A quoted field was never closed.
    UnterminatedQuote,
    /// The requested column does not exist; payload is the column name.
    UnknownColumn(String),
    /// A cell could not be parsed as a number. Carries the 1-based file
    /// line, the column name and the raw cell text, so the user can go
    /// straight to the offending value.
    NotNumeric {
        /// 1-based line number in the file (header is line 1).
        line: usize,
        /// Column the cell sits in.
        column: String,
        /// The raw, unparsed cell text.
        cell: String,
    },
}

impl std::fmt::Display for CsvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CsvError::Empty => write!(f, "input has no header row"),
            CsvError::ArityMismatch(line) => {
                write!(f, "line {line}: field count differs from header")
            }
            CsvError::UnterminatedQuote => write!(f, "unterminated quoted field"),
            CsvError::UnknownColumn(c) => write!(f, "no column named '{c}'"),
            CsvError::NotNumeric { line, column, cell } => {
                write!(
                    f,
                    "line {line}, column '{column}': '{cell}' is not a number"
                )
            }
        }
    }
}

impl std::error::Error for CsvError {}

/// Splits one logical CSV line (no newline handling — the caller feeds
/// whole records).
fn parse_record(line: &str) -> Result<Vec<String>, CsvError> {
    let mut fields = Vec::new();
    let mut field = String::new();
    let mut chars = line.chars().peekable();
    let mut in_quotes = false;
    loop {
        match chars.next() {
            None => {
                if in_quotes {
                    return Err(CsvError::UnterminatedQuote);
                }
                fields.push(std::mem::take(&mut field));
                return Ok(fields);
            }
            Some('"') if in_quotes => {
                if chars.peek() == Some(&'"') {
                    chars.next();
                    field.push('"');
                } else {
                    in_quotes = false;
                }
            }
            Some('"') if field.is_empty() && !in_quotes => in_quotes = true,
            Some(',') if !in_quotes => fields.push(std::mem::take(&mut field)),
            Some(c) => field.push(c),
        }
    }
}

/// Parses a CSV document with a header row.
///
/// # Errors
///
/// Returns a [`CsvError`] for an empty input, ragged rows or unclosed
/// quotes. Blank lines are skipped.
pub fn parse(text: &str) -> Result<CsvDocument, CsvError> {
    let mut lines = text
        .lines()
        .map(|l| l.strip_suffix('\r').unwrap_or(l))
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty());
    let (_, header_line) = lines.next().ok_or(CsvError::Empty)?;
    let header = parse_record(header_line)?;
    let mut rows = Vec::new();
    let mut row_lines = Vec::new();
    for (i, line) in lines {
        let row = parse_record(line)?;
        if row.len() != header.len() {
            return Err(CsvError::ArityMismatch(i + 1));
        }
        rows.push(row);
        row_lines.push(i + 1);
    }
    Ok(CsvDocument {
        header,
        rows,
        lines: row_lines,
    })
}

impl CsvDocument {
    /// Extracts a column as `f64` values.
    ///
    /// # Errors
    ///
    /// Returns [`CsvError::UnknownColumn`] or [`CsvError::NotNumeric`]
    /// (which names the line, column and raw cell).
    pub fn numeric_column(&self, name: &str) -> Result<Vec<f64>, CsvError> {
        let idx = self
            .header
            .iter()
            .position(|h| h == name)
            .ok_or_else(|| CsvError::UnknownColumn(name.to_string()))?;
        self.rows
            .iter()
            .zip(&self.lines)
            .map(|(row, &line)| {
                row[idx]
                    .trim()
                    .parse::<f64>()
                    .map_err(|_| CsvError::NotNumeric {
                        line,
                        column: name.to_string(),
                        cell: row[idx].clone(),
                    })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_document() {
        let doc = parse("a,b\n1,2\n3,4\n").unwrap();
        assert_eq!(doc.header, vec!["a", "b"]);
        assert_eq!(doc.rows, vec![vec!["1", "2"], vec!["3", "4"]]);
    }

    #[test]
    fn handles_quotes_and_escapes() {
        let doc = parse("name,note\nalice,\"hello, world\"\nbob,\"say \"\"hi\"\"\"\n").unwrap();
        assert_eq!(doc.rows[0][1], "hello, world");
        assert_eq!(doc.rows[1][1], "say \"hi\"");
    }

    #[test]
    fn handles_crlf_and_blank_lines() {
        let doc = parse("a,b\r\n1,2\r\n\r\n3,4\r\n").unwrap();
        assert_eq!(doc.rows.len(), 2);
    }

    #[test]
    fn rejects_bad_inputs() {
        assert_eq!(parse(""), Err(CsvError::Empty));
        assert!(matches!(parse("a,b\n1\n"), Err(CsvError::ArityMismatch(_))));
        assert_eq!(parse("a\n\"oops\n"), Err(CsvError::UnterminatedQuote));
    }

    #[test]
    fn numeric_column_extraction() {
        let doc = parse("age,name\n41,alice\n17,bob\n").unwrap();
        assert_eq!(doc.numeric_column("age").unwrap(), vec![41.0, 17.0]);
        assert!(matches!(
            doc.numeric_column("name"),
            Err(CsvError::NotNumeric { line: 2, .. })
        ));
        assert!(matches!(
            doc.numeric_column("zz"),
            Err(CsvError::UnknownColumn(_))
        ));
    }

    #[test]
    fn not_numeric_error_names_line_column_and_cell() {
        let doc = parse("age,name\n41,alice\nx7,bob\n").unwrap();
        let err = doc.numeric_column("age").unwrap_err();
        // The message must point the user at the exact offending cell:
        // file line (header is line 1), column name, and the raw text.
        assert_eq!(
            err.to_string(),
            "line 3, column 'age': 'x7' is not a number"
        );
        assert!(matches!(
            err,
            CsvError::NotNumeric { line: 3, ref column, ref cell }
                if column == "age" && cell == "x7"
        ));
    }

    /// Blank lines are skipped but still counted: the error names the
    /// cell's line in the file, not its row index.
    #[test]
    fn not_numeric_line_counts_skipped_blank_lines() {
        let line_of = |text: &str| match parse(text).unwrap().numeric_column("age") {
            Err(CsvError::NotNumeric { line, .. }) => line,
            other => panic!("expected NotNumeric, got {other:?}"),
        };
        assert_eq!(line_of("age\n\n41\nx7\n"), 4);
        assert_eq!(line_of("age\r\n41\r\n\r\n\r\n7\r\nbad\r\n"), 6);
    }

    #[test]
    fn empty_field_is_empty_string() {
        let doc = parse("a,b\n,2\n");
        assert_eq!(doc.unwrap().rows[0][0], "");
    }
}
