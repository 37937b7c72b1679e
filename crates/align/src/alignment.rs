//! The output of schema matching: integration-ID assignments.

use std::collections::HashMap;

use dialite_table::Table;

/// An assignment of one integration ID to every column of every table in an
/// integration set. Produced by [`crate::HolisticMatcher`] (or baselines),
/// consumed by the integration engines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Alignment {
    /// `assignments[t][c]` = integration ID of column `c` of table `t`.
    assignments: Vec<Vec<u32>>,
    /// Human-readable name per integration ID (unique).
    names: Vec<String>,
}

impl Alignment {
    /// Build from raw assignments and per-ID names.
    ///
    /// # Panics
    /// If any assignment references an ID ≥ `names.len()`, or two columns of
    /// the same table share an ID (the cannot-link invariant).
    pub(crate) fn new(assignments: Vec<Vec<u32>>, names: Vec<String>) -> Alignment {
        for (t, cols) in assignments.iter().enumerate() {
            let mut seen = std::collections::HashSet::new();
            for &id in cols {
                assert!(
                    (id as usize) < names.len(),
                    "assignment references unknown integration id {id}"
                );
                assert!(
                    seen.insert(id),
                    "table {t} has two columns with integration id {id}"
                );
            }
        }
        Alignment { assignments, names }
    }

    /// The header-equality baseline: columns match iff their (trimmed,
    /// lower-cased) headers are identical. This is the naive matcher the
    /// holistic matcher is evaluated against.
    pub fn by_headers(tables: &[&Table]) -> Alignment {
        let mut ids: HashMap<String, u32> = HashMap::new();
        let mut names: Vec<String> = Vec::new();
        let mut assignments = Vec::with_capacity(tables.len());
        for table in tables {
            let mut row = Vec::with_capacity(table.column_count());
            let mut used = std::collections::HashSet::new();
            for meta in table.schema().columns() {
                let key = meta.name.trim().to_lowercase();
                let mut id = *ids.entry(key.clone()).or_insert_with(|| {
                    names.push(meta.name.clone());
                    (names.len() - 1) as u32
                });
                // Cannot-link: a header repeated within one table (e.g.
                // "City" and "city") gets a fresh ID rather than violating
                // the invariant.
                if used.contains(&id) {
                    names.push(format!("{}*", meta.name));
                    id = (names.len() - 1) as u32;
                }
                used.insert(id);
                row.push(id);
            }
            assignments.push(row);
        }
        Alignment::new(assignments, names)
    }

    /// Integration ID of a column.
    pub fn id_of(&self, table: usize, column: usize) -> u32 {
        self.assignments[table][column]
    }

    /// Number of distinct integration IDs.
    pub fn num_ids(&self) -> usize {
        self.names.len()
    }

    /// Name of an integration ID.
    pub fn name_of(&self, id: u32) -> &str {
        &self.names[id as usize]
    }

    /// All `(table, column)` pairs carrying an integration ID.
    pub fn columns_of(&self, id: u32) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for (t, cols) in self.assignments.iter().enumerate() {
            for (c, &cid) in cols.iter().enumerate() {
                if cid == id {
                    out.push((t, c));
                }
            }
        }
        out
    }

    /// Per-table assignment rows.
    pub fn assignments(&self) -> &[Vec<u32>] {
        &self.assignments
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dialite_table::table;

    #[test]
    fn by_headers_matches_same_names_case_insensitively() {
        let a = table! { "a"; ["City", "Rate"]; ["x", 1] };
        let b = table! { "b"; ["city", "Cases"]; ["y", 2] };
        let al = Alignment::by_headers(&[&a, &b]);
        assert_eq!(al.id_of(0, 0), al.id_of(1, 0));
        assert_ne!(al.id_of(0, 1), al.id_of(1, 1));
        assert_eq!(al.num_ids(), 3);
    }

    #[test]
    fn columns_of_lists_members() {
        let a = table! { "a"; ["x"]; [1] };
        let b = table! { "b"; ["x"]; [2] };
        let al = Alignment::by_headers(&[&a, &b]);
        assert_eq!(al.columns_of(0), vec![(0, 0), (1, 0)]);
    }

    #[test]
    #[should_panic(expected = "two columns with integration id")]
    fn same_table_duplicate_id_panics() {
        let _ = Alignment::new(vec![vec![0, 0]], vec!["x".into()]);
    }

    #[test]
    #[should_panic(expected = "unknown integration id")]
    fn out_of_range_id_panics() {
        let _ = Alignment::new(vec![vec![3]], vec!["x".into()]);
    }

    #[test]
    fn name_lookup_round_trips() {
        let al = Alignment::new(vec![vec![0], vec![1]], vec!["city".into(), "rate".into()]);
        assert_eq!(al.name_of(0), "city");
        assert_eq!(al.name_of(1), "rate");
        assert_eq!(al.num_ids(), 2);
    }
}
