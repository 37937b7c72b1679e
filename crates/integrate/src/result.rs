//! The output of an integration operator: an integrated table plus
//! per-tuple provenance.

use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::fmt;

use dialite_table::{Table, Tid, Value, ValueInterner};

use crate::tuple::AlignedTuple;

/// The one output order of every operator: id rows compare as their
/// resolved `Value` rows do. Equal ids are the same interned `Value`, so
/// only differing id pairs are resolved; where those two values still
/// compare equal (the two null kinds), the next pair decides.
pub(crate) fn cmp_rows(a: &[u32], b: &[u32], interner: &ValueInterner) -> Ordering {
    a.iter()
        .zip(b)
        .filter(|(x, y)| x != y)
        .map(|(&x, &y)| interner.resolve(x).cmp(interner.resolve(y)))
        .find(|o| o.is_ne())
        .unwrap_or(Ordering::Equal)
        .then(a.len().cmp(&b.len()))
}

/// An integrated table: the data (a [`Table`] over the integration IDs) plus
/// the witness TID set of every output tuple, as displayed in the paper's
/// figures (`f1 = {t1, t7}` …).
#[derive(Debug, Clone)]
pub struct IntegratedTable {
    table: Table,
    provenance: Vec<BTreeSet<Tid>>,
}

impl IntegratedTable {
    /// Assemble from the integrated column names and dictionary-encoded
    /// tuples, resolving value-ids back to `Value`s through `interner` (the
    /// one [`crate::outer_union`] built) and sorting rows into canonical
    /// (value) order for deterministic output. This is the boundary where
    /// ids leave the integration core — everything downstream is
    /// `Value`-typed.
    ///
    /// Tuples are sorted while still ids, by `cmp_rows` then provenance,
    /// and each is resolved once, after.
    pub fn from_tuples(
        name: &str,
        columns: &[String],
        mut tuples: Vec<AlignedTuple>,
        interner: &ValueInterner,
    ) -> IntegratedTable {
        tuples.sort_by(|a, b| {
            cmp_rows(&a.values, &b.values, interner).then_with(|| a.tids.cmp(&b.tids))
        });
        let rows = tuples.into_iter().map(|t| (t.resolve(interner), t.tids));
        IntegratedTable::from_rows(name, columns, rows)
    }

    /// Assemble from rows already in output order, each with its witness
    /// set; [`Table::from_rows`] infers the column types.
    pub(crate) fn from_rows(
        name: &str,
        columns: &[String],
        rows: impl Iterator<Item = (Vec<Value>, BTreeSet<Tid>)>,
    ) -> IntegratedTable {
        let (rows, provenance) = rows.unzip();
        let table = Table::from_rows(name, columns, rows).expect("unique IDs, schema arity");
        IntegratedTable { table, provenance }
    }

    /// The integrated data table.
    pub fn table(&self) -> &Table {
        &self.table
    }

    /// Consume into the data table (dropping provenance).
    pub fn into_table(self) -> Table {
        self.table
    }

    /// Witness TIDs of output row `i`.
    pub fn provenance(&self, i: usize) -> &BTreeSet<Tid> {
        &self.provenance[i]
    }

    /// All provenance sets, row-aligned with the table.
    pub fn provenances(&self) -> &[BTreeSet<Tid>] {
        &self.provenance
    }

    /// Number of output tuples.
    pub fn row_count(&self) -> usize {
        self.table.row_count()
    }

    /// Render with OID/TID columns in the style of paper Figs. 3 and 8.
    /// `table_names` (optional) maps table indices to display names.
    pub fn display_with_provenance(&self, table_names: Option<&[&str]>) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "# {} ({} rows)\n",
            self.table.name(),
            self.row_count()
        ));
        for (i, row) in self.table.rows().enumerate() {
            let tids: Vec<String> = self.provenance[i]
                .iter()
                .map(|tid| match table_names {
                    Some(names) => format!("{}[{}]", names[tid.table as usize], tid.row),
                    None => tid.to_string(),
                })
                .collect();
            let values: Vec<String> = row.iter().map(|v| v.to_string()).collect();
            out.push_str(&format!(
                "f{} {{{}}} | {}\n",
                i + 1,
                tids.join(", "),
                values.join(" | ")
            ));
        }
        out
    }
}

impl fmt::Display for IntegratedTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tuples() -> (Vec<AlignedTuple>, ValueInterner) {
        let mut interner = ValueInterner::new();
        let tuples = vec![
            AlignedTuple {
                values: vec![
                    interner.intern(&Value::Text("b".into())),
                    interner.intern(&Value::Int(2)),
                ],
                tids: [Tid::new(1, 0)].into_iter().collect(),
            },
            AlignedTuple {
                values: vec![
                    interner.intern(&Value::Text("a".into())),
                    interner.intern(&Value::Int(1)),
                ],
                tids: [Tid::new(0, 0), Tid::new(1, 1)].into_iter().collect(),
            },
        ];
        (tuples, interner)
    }

    #[test]
    fn rows_are_sorted_canonically_with_aligned_provenance() {
        let (tuples, interner) = tuples();
        let it = IntegratedTable::from_tuples(
            "r",
            &["x".to_string(), "y".to_string()],
            tuples,
            &interner,
        );
        assert_eq!(it.row_count(), 2);
        assert_eq!(it.table().row(0).unwrap()[0], Value::Text("a".into()));
        assert_eq!(it.provenance(0).len(), 2);
        assert_eq!(it.provenance(1).len(), 1);
    }

    #[test]
    fn display_with_provenance_shows_tids() {
        let (tuples, interner) = tuples();
        let it = IntegratedTable::from_tuples(
            "r",
            &["x".to_string(), "y".to_string()],
            tuples,
            &interner,
        );
        let plain = it.display_with_provenance(None);
        assert!(plain.contains("t0.0"), "{plain}");
        let named = it.display_with_provenance(Some(&["T1", "T2"]));
        assert!(named.contains("T1[0]"), "{named}");
        assert!(named.contains("T2[1]"), "{named}");
    }

    #[test]
    fn empty_result() {
        let it =
            IntegratedTable::from_tuples("r", &["x".to_string()], vec![], &ValueInterner::new());
        assert_eq!(it.row_count(), 0);
        assert!(it.provenances().is_empty());
    }
}
