use std::collections::HashMap;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::error::TableError;
use crate::value::Value;

/// Inferred type of a column.
///
/// Data-lake tables carry no reliable type metadata, so types are inferred
/// from the values actually present. Nulls are transparent for inference:
/// a column of `{1, ±, 3}` is `Int`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ColumnType {
    /// All non-null values are integers.
    Int,
    /// All non-null values are numeric and at least one is a float.
    Float,
    /// All non-null values are booleans.
    Bool,
    /// All non-null values are text.
    Text,
    /// Non-null values of more than one incompatible type.
    Mixed,
    /// No non-null values observed.
    Unknown,
}

impl ColumnType {
    /// The type of a single value (`Unknown` for nulls).
    pub(crate) fn of(v: &Value) -> ColumnType {
        match v {
            Value::Null(_) => ColumnType::Unknown,
            Value::Bool(_) => ColumnType::Bool,
            Value::Int(_) => ColumnType::Int,
            Value::Float(_) => ColumnType::Float,
            Value::Text(_) => ColumnType::Text,
        }
    }

    /// Combine the evidence of two observations.
    /// `Int ⊔ Float = Float`; any other mixture of distinct concrete types is `Mixed`.
    pub(crate) fn merge(self, other: ColumnType) -> ColumnType {
        use ColumnType::*;
        match (self, other) {
            (Unknown, t) | (t, Unknown) => t,
            (a, b) if a == b => a,
            (Int, Float) | (Float, Int) => Float,
            _ => Mixed,
        }
    }

    /// Whether the column is numeric (int or float).
    pub fn is_numeric(self) -> bool {
        matches!(self, ColumnType::Int | ColumnType::Float)
    }

    /// Infer the type of a column from an iterator of values.
    pub(crate) fn infer<'a>(values: impl IntoIterator<Item = &'a Value>) -> ColumnType {
        values
            .into_iter()
            .fold(ColumnType::Unknown, |acc, v| acc.merge(ColumnType::of(v)))
    }
}

impl fmt::Display for ColumnType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ColumnType::Int => "int",
            ColumnType::Float => "float",
            ColumnType::Bool => "bool",
            ColumnType::Text => "text",
            ColumnType::Mixed => "mixed",
            ColumnType::Unknown => "unknown",
        };
        f.write_str(s)
    }
}

/// Name and inferred type of one column.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ColumnMeta {
    /// Column header. Data-lake headers are unreliable; discovery and
    /// alignment never *depend* on them, but they are kept for display.
    pub name: String,
    /// Inferred value type.
    pub ctype: ColumnType,
}

/// An ordered list of uniquely named columns.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Schema {
    columns: Vec<ColumnMeta>,
    #[serde(skip)]
    by_name: HashMap<String, usize>,
}

impl Schema {
    /// Build a schema from column names. Fails on duplicates.
    pub(crate) fn new<S: AsRef<str>>(table: &str, names: &[S]) -> Result<Schema, TableError> {
        let mut columns = Vec::with_capacity(names.len());
        let mut by_name = HashMap::with_capacity(names.len());
        for (i, n) in names.iter().enumerate() {
            let name = n.as_ref().to_string();
            if by_name.insert(name.clone(), i).is_some() {
                return Err(TableError::DuplicateColumn {
                    table: table.to_string(),
                    column: name,
                });
            }
            columns.push(ColumnMeta {
                name,
                ctype: ColumnType::Unknown,
            });
        }
        Ok(Schema { columns, by_name })
    }

    /// Build a schema from fully specified columns — names *and* types —
    /// the way persisted durable state carries them. Unlike the inference
    /// path, the given types are kept verbatim, so a table restored from
    /// a snapshot or commitlog record is byte-for-byte the table that was
    /// persisted even when its schema did not come from inference.
    /// Fails on duplicate names.
    pub fn from_columns(table: &str, columns: Vec<ColumnMeta>) -> Result<Schema, TableError> {
        let mut by_name = HashMap::with_capacity(columns.len());
        for (i, c) in columns.iter().enumerate() {
            if by_name.insert(c.name.clone(), i).is_some() {
                return Err(TableError::DuplicateColumn {
                    table: table.to_string(),
                    column: c.name.clone(),
                });
            }
        }
        Ok(Schema { columns, by_name })
    }

    /// Build a schema deduplicating repeated headers by suffixing `_2`, `_3`, …
    /// (real open-data CSVs do repeat headers).
    pub(crate) fn new_deduped<S: AsRef<str>>(names: &[S]) -> Schema {
        let mut seen: HashMap<String, usize> = HashMap::new();
        let mut columns = Vec::with_capacity(names.len());
        let mut by_name = HashMap::with_capacity(names.len());
        for n in names {
            let base = n.as_ref().to_string();
            let count = seen.entry(base.clone()).or_insert(0);
            *count += 1;
            let mut name = if *count == 1 {
                base.clone()
            } else {
                format!("{base}_{count}")
            };
            // Guard against a pre-existing column literally named `base_2`.
            while by_name.contains_key(&name) {
                *count += 1;
                name = format!("{base}_{count}");
            }
            by_name.insert(name.clone(), columns.len());
            columns.push(ColumnMeta {
                name,
                ctype: ColumnType::Unknown,
            });
        }
        Schema { columns, by_name }
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// `true` when the schema has no columns.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Position of a column by name.
    pub(crate) fn index_of(&self, name: &str) -> Option<usize> {
        self.by_name.get(name).copied()
    }

    /// Column metadata at a position.
    pub fn column(&self, idx: usize) -> &ColumnMeta {
        &self.columns[idx]
    }

    /// All column metadata in order.
    pub fn columns(&self) -> &[ColumnMeta] {
        &self.columns
    }

    /// All column names in order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.columns.iter().map(|c| c.name.as_str())
    }

    /// Set the inferred type of a column.
    pub(crate) fn set_type(&mut self, idx: usize, t: ColumnType) {
        self.columns[idx].ctype = t;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicate_columns_rejected() {
        let err = Schema::new("t", &["a", "b", "a"]).unwrap_err();
        assert_eq!(
            err,
            TableError::DuplicateColumn {
                table: "t".into(),
                column: "a".into()
            }
        );
    }

    #[test]
    fn dedup_suffixes_repeats() {
        let s = Schema::new_deduped(&["a", "b", "a", "a"]);
        let names: Vec<_> = s.names().collect();
        assert_eq!(names, vec!["a", "b", "a_2", "a_3"]);
        assert_eq!(s.index_of("a_3"), Some(3));
    }

    #[test]
    fn dedup_avoids_preexisting_collision() {
        let s = Schema::new_deduped(&["a_2", "a", "a"]);
        let names: Vec<_> = s.names().collect();
        assert_eq!(names.len(), 3);
        let unique: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(unique.len(), 3, "{names:?}");
    }

    #[test]
    fn type_merge_lattice() {
        use ColumnType::*;
        assert_eq!(Int.merge(Float), Float);
        assert_eq!(Float.merge(Int), Float);
        assert_eq!(Int.merge(Int), Int);
        assert_eq!(Unknown.merge(Text), Text);
        assert_eq!(Text.merge(Int), Mixed);
        assert_eq!(Mixed.merge(Int), Mixed);
        assert_eq!(Bool.merge(Text), Mixed);
    }

    #[test]
    fn infer_ignores_nulls() {
        let vals = vec![Value::Int(1), Value::null_missing(), Value::Int(2)];
        assert_eq!(ColumnType::infer(&vals), ColumnType::Int);
        let empty: Vec<Value> = vec![];
        assert_eq!(ColumnType::infer(&empty), ColumnType::Unknown);
        let nulls = vec![Value::null_missing(), Value::null_produced()];
        assert_eq!(ColumnType::infer(&nulls), ColumnType::Unknown);
    }

    #[test]
    fn index_of_finds_columns() {
        let s = Schema::new("t", &["country", "city"]).unwrap();
        assert_eq!(s.index_of("city"), Some(1));
        assert_eq!(s.index_of("state"), None);
        assert_eq!(s.len(), 2);
    }
}
