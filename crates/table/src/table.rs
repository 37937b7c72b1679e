use std::collections::HashSet;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::error::TableError;
use crate::schema::{ColumnType, Schema};
use crate::value::Value;

/// A tuple identifier: `(table index, row index)` within a fixed list of
/// tables (an *integration set*). Integration carries sets of `Tid`s as
/// provenance — the `{t1, t7}` annotations of paper Fig. 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Tid {
    /// Index of the source table in the integration set.
    pub table: u32,
    /// Row index within that table.
    pub row: u32,
}

impl Tid {
    /// Construct a tuple id.
    pub fn new(table: u32, row: u32) -> Tid {
        Tid { table, row }
    }
}

impl fmt::Display for Tid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}.{}", self.table, self.row)
    }
}

/// A named relational table: a [`Schema`] plus row-major tuples.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table {
    name: String,
    schema: Schema,
    rows: Vec<Vec<Value>>,
}

impl Table {
    /// Create an empty table with the given column names.
    pub fn new<S: AsRef<str>>(name: &str, columns: &[S]) -> Result<Table, TableError> {
        Ok(Table {
            name: name.to_string(),
            schema: Schema::new(name, columns)?,
            rows: Vec::new(),
        })
    }

    /// Create a table from rows, checking arity and inferring column types.
    pub fn from_rows<S: AsRef<str>>(
        name: &str,
        columns: &[S],
        rows: Vec<Vec<Value>>,
    ) -> Result<Table, TableError> {
        let mut t = Table::new(name, columns)?;
        for row in rows {
            t.push_row(row)?;
        }
        t.infer_types();
        Ok(t)
    }

    /// Create a table from an existing schema (used by integration engines
    /// that assemble schemas out of integration IDs).
    pub fn with_schema(name: &str, schema: Schema) -> Table {
        Table {
            name: name.to_string(),
            schema,
            rows: Vec::new(),
        }
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Rename, returning `self` for chaining.
    pub fn renamed(mut self, name: &str) -> Table {
        self.name = name.to_string();
        self
    }

    /// The table schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// Number of columns.
    pub fn column_count(&self) -> usize {
        self.schema.len()
    }

    /// Append a row; fails if the arity does not match the schema.
    pub fn push_row(&mut self, row: Vec<Value>) -> Result<(), TableError> {
        if row.len() != self.schema.len() {
            return Err(TableError::ArityMismatch {
                table: self.name.clone(),
                expected: self.schema.len(),
                got: row.len(),
            });
        }
        self.rows.push(row);
        Ok(())
    }

    /// Borrow a row.
    pub fn row(&self, idx: usize) -> Result<&[Value], TableError> {
        self.rows
            .get(idx)
            .map(|r| r.as_slice())
            .ok_or(TableError::RowOutOfBounds {
                table: self.name.clone(),
                row: idx,
            })
    }

    /// Iterate all rows.
    pub fn rows(&self) -> impl Iterator<Item = &[Value]> {
        self.rows.iter().map(|r| r.as_slice())
    }

    /// Position of a column by header name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.schema.index_of(name)
    }

    /// Iterate the values of one column.
    pub fn column_values(&self, idx: usize) -> impl Iterator<Item = &Value> {
        self.rows.iter().map(move |r| &r[idx])
    }

    /// Normalized non-null value tokens of one column, as a set — the
    /// "domain" that joinable-table search and value-overlap matching use.
    pub fn column_token_set(&self, idx: usize) -> HashSet<String> {
        self.column_values(idx)
            .filter_map(Value::overlap_token)
            .collect()
    }

    /// Re-infer all column types from current contents.
    pub fn infer_types(&mut self) {
        for c in 0..self.schema.len() {
            let t = ColumnType::infer(self.rows.iter().map(|r| &r[c]));
            self.schema.set_type(c, t);
        }
    }

    /// Project onto a subset of columns (by index), in the given order.
    pub fn project(&self, indices: &[usize], name: &str) -> Result<Table, TableError> {
        for &i in indices {
            if i >= self.schema.len() {
                return Err(TableError::UnknownColumn {
                    table: self.name.clone(),
                    column: format!("#{i}"),
                });
            }
        }
        let names: Vec<&str> = indices
            .iter()
            .map(|&i| self.schema.column(i).name.as_str())
            .collect();
        let rows = self
            .rows
            .iter()
            .map(|r| indices.iter().map(|&i| r[i].clone()).collect())
            .collect();
        Table::from_rows(name, &names, rows)
    }

    /// Remove duplicate rows (content equality, so `±` and `⊥` coincide),
    /// preserving first occurrence order.
    pub fn distinct(&self) -> Table {
        let mut seen: HashSet<&[Value]> = HashSet::with_capacity(self.rows.len());
        let mut t = Table::with_schema(&self.name, self.schema.clone());
        for row in &self.rows {
            if seen.insert(row.as_slice()) {
                t.rows.push(row.clone());
            }
        }
        t
    }

    /// Total number of null cells.
    pub fn null_count(&self) -> usize {
        self.rows
            .iter()
            .map(|r| r.iter().filter(|v| v.is_null()).count())
            .sum()
    }

    /// Fraction of cells that are null (0 for an empty table).
    pub fn null_rate(&self) -> f64 {
        let cells = self.rows.len() * self.schema.len();
        if cells == 0 {
            0.0
        } else {
            self.null_count() as f64 / cells as f64
        }
    }

    /// A copy with rows sorted in the total [`Value`] order — a canonical
    /// form so two tables can be compared regardless of row order.
    pub fn sorted(&self) -> Table {
        let mut t = self.clone();
        t.rows.sort();
        t
    }

    /// `true` if both tables have the same column names (in order) and the
    /// same multiset of rows. This is the equality used by the experiment
    /// harness to check reproduced figures.
    pub fn same_content(&self, other: &Table) -> bool {
        if self.schema.len() != other.schema.len() {
            return false;
        }
        if !self.schema.names().eq(other.schema.names()) {
            return false;
        }
        let mut a = self.rows.clone();
        let mut b = other.rows.clone();
        a.sort();
        b.sort();
        a == b
    }
}

impl fmt::Display for Table {
    /// Pretty-print with aligned columns, in the style of the paper figures.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let headers: Vec<String> = self.schema.names().map(str::to_string).collect();
        let mut widths: Vec<usize> = headers.iter().map(|h| h.chars().count()).collect();
        let rendered: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| r.iter().map(|v| v.to_string()).collect())
            .collect();
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        writeln!(f, "# {} ({} rows)", self.name, self.rows.len())?;
        let line = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            write!(f, "|")?;
            for (i, cell) in cells.iter().enumerate() {
                let pad = widths[i] - cell.chars().count();
                write!(f, " {}{} |", cell, " ".repeat(pad))?;
            }
            writeln!(f)
        };
        line(f, &headers)?;
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        line(f, &sep)?;
        for row in &rendered {
            line(f, row)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table;

    #[test]
    fn arity_mismatch_rejected() {
        let mut t = Table::new("t", &["a", "b"]).unwrap();
        let err = t.push_row(vec![Value::Int(1)]).unwrap_err();
        assert!(matches!(
            err,
            TableError::ArityMismatch {
                expected: 2,
                got: 1,
                ..
            }
        ));
    }

    #[test]
    fn macro_builds_and_infers_types() {
        let t = table! {
            "mix"; ["city", "pop", "rate"];
            ["Berlin", 3_600_000, 0.63],
            ["Boston", 690_000, 0.62],
        };
        assert_eq!(t.schema().column(0).ctype, ColumnType::Text);
        assert_eq!(t.schema().column(1).ctype, ColumnType::Int);
        assert_eq!(t.schema().column(2).ctype, ColumnType::Float);
    }

    #[test]
    fn int_and_float_mix_infers_float() {
        let t = Table::from_rows(
            "n",
            &["x"],
            vec![vec![Value::Int(1)], vec![Value::Float(2.5)]],
        )
        .unwrap();
        assert_eq!(t.schema().column(0).ctype, ColumnType::Float);
    }

    #[test]
    fn project_reorders_columns() {
        let t = table! { "t"; ["a", "b", "c"]; [1, 2, 3], [4, 5, 6] };
        let p = t.project(&[2, 0], "p").unwrap();
        let names: Vec<_> = p.schema().names().collect();
        assert_eq!(names, vec!["c", "a"]);
        assert_eq!(p.row(0).unwrap(), &[Value::Int(3), Value::Int(1)]);
    }

    #[test]
    fn project_out_of_range_errors() {
        let t = table! { "t"; ["a"]; [1] };
        assert!(t.project(&[3], "p").is_err());
    }

    #[test]
    fn distinct_uses_content_equality_across_null_kinds() {
        let t = Table::from_rows(
            "t",
            &["a", "b"],
            vec![
                vec![Value::Int(1), Value::null_missing()],
                vec![Value::Int(1), Value::null_produced()],
                vec![Value::Int(2), Value::null_missing()],
            ],
        )
        .unwrap();
        assert_eq!(t.distinct().row_count(), 2);
    }

    #[test]
    fn same_content_ignores_row_order() {
        let a = table! { "a"; ["x", "y"]; [1, "p"], [2, "q"] };
        let b = table! { "b"; ["x", "y"]; [2, "q"], [1, "p"] };
        assert!(a.same_content(&b));
        let c = table! { "c"; ["x", "y"]; [2, "q"], [2, "q"] };
        assert!(!a.same_content(&c));
        let d = table! { "d"; ["x", "z"]; [1, "p"], [2, "q"] };
        assert!(!a.same_content(&d));
    }

    #[test]
    fn null_statistics() {
        let t = Table::from_rows(
            "t",
            &["a", "b"],
            vec![
                vec![Value::Int(1), Value::null_missing()],
                vec![Value::null_produced(), Value::Int(2)],
            ],
        )
        .unwrap();
        assert_eq!(t.null_count(), 2);
        assert!((t.null_rate() - 0.5).abs() < 1e-12);
        let empty = Table::new("e", &["a"]).unwrap();
        assert_eq!(empty.null_rate(), 0.0);
    }

    #[test]
    fn column_token_set_skips_nulls_and_normalizes() {
        let t = Table::from_rows(
            "t",
            &["city"],
            vec![
                vec![Value::Text("Berlin".into())],
                vec![Value::Text(" BERLIN ".into())],
                vec![Value::null_missing()],
                vec![Value::Text("Boston".into())],
            ],
        )
        .unwrap();
        let set = t.column_token_set(0);
        assert_eq!(set.len(), 2);
        assert!(set.contains("berlin"));
        assert!(set.contains("boston"));
    }

    #[test]
    fn display_contains_headers_and_null_glyphs() {
        let t = Table::from_rows(
            "t",
            &["city", "rate"],
            vec![vec![Value::Text("Berlin".into()), Value::null_produced()]],
        )
        .unwrap();
        let s = t.to_string();
        assert!(s.contains("city"));
        assert!(s.contains("⊥"));
    }

    #[test]
    fn tid_display_and_order() {
        let a = Tid::new(0, 1);
        let b = Tid::new(1, 0);
        assert!(a < b);
        assert_eq!(a.to_string(), "t0.1");
    }

    #[test]
    fn row_out_of_bounds_is_error() {
        let t = table! { "t"; ["x"]; [1] };
        assert!(t.row(0).is_ok());
        assert!(matches!(
            t.row(5),
            Err(TableError::RowOutOfBounds { row: 5, .. })
        ));
    }
}
