//! Plain-CSV I/O for point sets (the CLI's interchange format).
//!
//! Format: one point per line, coordinates separated by commas; blank
//! lines and lines starting with `#` are skipped. No quoting or
//! escaping — this is numeric data.

use std::fmt::Write as _;
use treeemb_geom::PointSet;

/// Errors from CSV parsing.
#[derive(Debug, Clone, PartialEq)]
pub enum CsvError {
    /// The input contained no data rows.
    Empty,
    /// A row had a different number of columns than the first row.
    RaggedRow {
        /// 1-based line number.
        line: usize,
        /// Columns found.
        got: usize,
        /// Columns expected.
        expected: usize,
    },
    /// A cell failed to parse as a float.
    BadNumber {
        /// 1-based line number.
        line: usize,
        /// Offending cell text.
        cell: String,
    },
}

impl std::fmt::Display for CsvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CsvError::Empty => write!(f, "no data rows"),
            CsvError::RaggedRow {
                line,
                got,
                expected,
            } => {
                write!(f, "line {line}: {got} columns, expected {expected}")
            }
            CsvError::BadNumber { line, cell } => {
                write!(f, "line {line}: cannot parse {cell:?} as a number")
            }
        }
    }
}

impl std::error::Error for CsvError {}

/// Parses a CSV string into a point set.
pub fn points_from_csv(text: &str) -> Result<PointSet, CsvError> {
    let mut dim: Option<usize> = None;
    let mut data: Vec<f64> = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut cols = 0usize;
        for cell in line.split(',') {
            let cell = cell.trim();
            let v: f64 = cell.parse().map_err(|_| CsvError::BadNumber {
                line: idx + 1,
                cell: cell.to_string(),
            })?;
            data.push(v);
            cols += 1;
        }
        match dim {
            None => dim = Some(cols),
            Some(d) if d != cols => {
                return Err(CsvError::RaggedRow {
                    line: idx + 1,
                    got: cols,
                    expected: d,
                })
            }
            _ => {}
        }
    }
    let dim = dim.ok_or(CsvError::Empty)?;
    Ok(PointSet::from_flat(dim, data))
}

/// Renders a point set as CSV.
pub fn points_to_csv(ps: &PointSet) -> String {
    let mut s = String::new();
    for p in ps.iter() {
        for (j, x) in p.iter().enumerate() {
            if j > 0 {
                s.push(',');
            }
            let _ = write!(s, "{x}");
        }
        s.push('\n');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let ps = PointSet::from_rows(&[vec![1.0, 2.5], vec![-3.0, 4.0]]);
        let csv = points_to_csv(&ps);
        let back = points_from_csv(&csv).unwrap();
        assert_eq!(back, ps);
    }

    #[test]
    fn comments_and_blanks_are_skipped() {
        let ps = points_from_csv("# header\n1,2\n\n3,4\n").unwrap();
        assert_eq!(ps.len(), 2);
        assert_eq!(ps.point(1), &[3.0, 4.0]);
    }

    #[test]
    fn ragged_rows_are_rejected() {
        let err = points_from_csv("1,2\n3\n").unwrap_err();
        assert!(matches!(
            err,
            CsvError::RaggedRow {
                line: 2,
                got: 1,
                expected: 2
            }
        ));
    }

    #[test]
    fn bad_numbers_are_rejected() {
        let err = points_from_csv("1,zebra\n").unwrap_err();
        assert!(matches!(err, CsvError::BadNumber { line: 1, .. }));
    }

    #[test]
    fn empty_input_is_rejected() {
        assert_eq!(points_from_csv("# nothing\n").unwrap_err(), CsvError::Empty);
    }
}
