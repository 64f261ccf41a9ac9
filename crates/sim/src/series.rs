//! Plain-text table rendering.
//!
//! The experiment harness regenerates each of the paper's tables/figures as
//! a [`Table`] (fixed-width text, one row per parameter point), which
//! serialises to JSON so EXPERIMENTS.md can be produced mechanically.

use crate::report::{field, FromReport, ReportError, ToReport, Value};
use std::fmt::Write as _;

/// A table cell: either text or a number (formatted on render).
#[derive(Debug, Clone)]
pub enum Cell {
    /// Verbatim text.
    Text(String),
    /// A number rendered with dynamic precision.
    Num(f64),
    /// An integer rendered without decimals.
    Int(i64),
}

impl Cell {
    fn render(&self) -> String {
        match self {
            Cell::Text(s) => s.clone(),
            Cell::Int(i) => format!("{i}"),
            Cell::Num(x) => {
                let a = x.abs();
                if *x == 0.0 {
                    "0".to_owned()
                } else if !(0.001..100_000.0).contains(&a) {
                    format!("{x:.3e}")
                } else if a >= 100.0 {
                    format!("{x:.1}")
                } else if a >= 1.0 {
                    format!("{x:.2}")
                } else {
                    format!("{x:.4}")
                }
            }
        }
    }
}

impl From<&str> for Cell {
    fn from(s: &str) -> Cell {
        Cell::Text(s.to_owned())
    }
}
impl From<String> for Cell {
    fn from(s: String) -> Cell {
        Cell::Text(s)
    }
}
impl From<f64> for Cell {
    fn from(x: f64) -> Cell {
        Cell::Num(x)
    }
}
impl From<i64> for Cell {
    fn from(i: i64) -> Cell {
        Cell::Int(i)
    }
}
impl From<u64> for Cell {
    fn from(i: u64) -> Cell {
        Cell::Int(i64::try_from(i).unwrap_or(i64::MAX))
    }
}
impl From<usize> for Cell {
    fn from(i: usize) -> Cell {
        Cell::Int(i64::try_from(i).unwrap_or(i64::MAX))
    }
}

// Cells keep the externally tagged encoding the serde derive produced —
// `{"Text": "flash"}`, `{"Num": 0.5}`, `{"Int": 7}` — because checked-in
// `results/*.json` files use it.
impl ToReport for Cell {
    fn to_report(&self) -> Value {
        match self {
            Cell::Text(s) => Value::object(vec![("Text", s.to_report())]),
            Cell::Num(x) => Value::object(vec![("Num", x.to_report())]),
            Cell::Int(i) => Value::object(vec![("Int", i.to_report())]),
        }
    }
}

impl FromReport for Cell {
    fn from_report(v: &Value) -> Result<Self, ReportError> {
        match v.as_object() {
            Some([(tag, inner)]) => match tag.as_str() {
                "Text" => Ok(Cell::Text(String::from_report(inner)?)),
                "Num" => Ok(Cell::Num(f64::from_report(inner)?)),
                "Int" => Ok(Cell::Int(i64::from_report(inner)?)),
                other => Err(ReportError::schema(format!(
                    "unknown Cell variant `{other}`"
                ))),
            },
            _ => Err(ReportError::schema("expected single-variant Cell object")),
        }
    }
}

/// A titled fixed-width text table.
#[derive(Debug, Clone)]
pub struct Table {
    /// Table title, e.g. `"T1: device characteristics"`.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of cells; each row should match `headers` in length.
    pub rows: Vec<Vec<Cell>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| (*s).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row length differs from the header length.
    pub fn row(&mut self, cells: Vec<Cell>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match headers"
        );
        self.rows.push(cells);
    }

    /// Renders the table as fixed-width text.
    pub fn render(&self) -> String {
        let rendered: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| r.iter().map(Cell::render).collect())
            .collect();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let mut line = String::new();
        for (h, w) in self.headers.iter().zip(&widths) {
            let _ = write!(line, "{h:<w$}  ", w = *w);
        }
        let _ = writeln!(out, "{}", line.trim_end());
        let _ = writeln!(out, "{}", "-".repeat(line.trim_end().len()));
        for row in &rendered {
            let mut line = String::new();
            for (c, w) in row.iter().zip(&widths) {
                let _ = write!(line, "{c:<w$}  ", w = *w);
            }
            let _ = writeln!(out, "{}", line.trim_end());
        }
        out
    }
}

impl ToReport for Table {
    fn to_report(&self) -> Value {
        Value::object(vec![
            ("title", self.title.to_report()),
            ("headers", self.headers.to_report()),
            ("rows", self.rows.to_report()),
        ])
    }
}

impl FromReport for Table {
    fn from_report(v: &Value) -> Result<Self, ReportError> {
        Ok(Table {
            title: field(v, "title")?,
            headers: field(v, "headers")?,
            rows: field(v, "rows")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_columns() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.row(vec!["flash".into(), Cell::Num(123.456)]);
        t.row(vec!["dram-long-name".into(), Cell::Int(7)]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("flash"));
        assert!(s.contains("dram-long-name"));
        // Every data line is at least as wide as the widest cell.
        let lines: Vec<&str> = s.lines().collect();
        assert!(lines.len() >= 5);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn json_shapes_match_checked_in_results() {
        // The encoding contract the results/*.json archives rely on.
        assert_eq!(Cell::Int(7).to_report().encode(), "{\"Int\":7}");
        assert_eq!(Cell::Num(0.5).to_report().encode(), "{\"Num\":0.5}");
        assert_eq!(
            Cell::Text("flash".into()).to_report().encode(),
            "{\"Text\":\"flash\"}"
        );
        let mut t = Table::new("demo", &["a"]);
        t.row(vec![Cell::Int(1)]);
        assert_eq!(
            t.to_report().encode(),
            "{\"title\":\"demo\",\"headers\":[\"a\"],\"rows\":[[{\"Int\":1}]]}"
        );
        let decoded = Table::from_report(&Value::decode(&t.to_report().encode()).expect("json"))
            .expect("table");
        assert_eq!(decoded.title, "demo");
        assert_eq!(decoded.rows.len(), 1);
    }

    #[test]
    fn cell_number_formatting() {
        assert_eq!(Cell::Num(0.0).render(), "0");
        assert_eq!(Cell::Num(3.17159).render(), "3.17");
        assert_eq!(Cell::Num(1234.5).render(), "1234.5");
        assert_eq!(Cell::Num(0.25).render(), "0.2500");
        assert!(Cell::Num(1e9).render().contains('e'));
    }
}
