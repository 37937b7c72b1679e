//! Column signatures: the per-column evidence the holistic matcher
//! clusters on.

use std::collections::{HashMap, HashSet};

use dialite_table::{ColumnType, Table};
use dialite_text::NgramEmbedder;

use crate::semantic::SemanticAnnotator;

/// Identifies a column within an integration set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ColumnRef {
    /// Table index within the integration set.
    pub table: usize,
    /// Column index within the table.
    pub column: usize,
}

/// Everything the matcher knows about one column.
#[derive(Debug, Clone)]
pub struct ColumnSignature {
    /// Which column this describes.
    pub col: ColumnRef,
    /// Header (unreliable in data lakes; used with low weight).
    pub header: String,
    /// Inferred type.
    pub ctype: ColumnType,
    /// Normalized distinct value tokens.
    pub tokens: HashSet<String>,
    /// Hashed n-gram embedding centroid of the values.
    pub embedding: Vec<f32>,
    /// Semantic type distribution of the domain (empty without an
    /// annotator or for unknown domains).
    pub semantics: HashMap<String, f64>,
    /// Mean of numeric values (0 when not numeric).
    pub mean: f64,
    /// Standard deviation of numeric values (0 when not numeric).
    pub std: f64,
    /// Minimum / maximum of numeric values.
    pub range: (f64, f64),
    /// Number of non-null cells.
    pub non_null: usize,
}

/// [`column_signature_with`] without a semantic annotator.
#[cfg(test)]
pub(crate) fn column_signature(
    embedder: &NgramEmbedder,
    tables: &[&Table],
    table: usize,
    column: usize,
) -> ColumnSignature {
    column_signature_with(embedder, None, tables, table, column)
}

/// Build the signature of table `t`'s column `c`. Pass an annotator to add
/// the semantic type distribution (see [`crate::SemanticAnnotator`]).
pub(crate) fn column_signature_with(
    embedder: &NgramEmbedder,
    annotator: Option<&dyn SemanticAnnotator>,
    tables: &[&Table],
    table: usize,
    column: usize,
) -> ColumnSignature {
    let t = tables[table];
    let tokens = t.column_token_set(column);
    // Sorted, not `HashSet` order: the centroid's float sums then do not
    // depend on the set's per-instance hash seed.
    let mut sorted: Vec<&str> = tokens.iter().map(String::as_str).collect();
    sorted.sort_unstable();
    let embedding = embedder.embed_bag(sorted);
    let semantics = annotator.map(|a| a.annotate(&tokens)).unwrap_or_default();
    let numerics: Vec<f64> = t.column_values(column).filter_map(|v| v.as_f64()).collect();
    let non_null = t.column_values(column).filter(|v| !v.is_null()).count();
    let (mean, std, range) = if numerics.is_empty() {
        (0.0, 0.0, (0.0, 0.0))
    } else {
        let n = numerics.len() as f64;
        let mean = numerics.iter().sum::<f64>() / n;
        let var = numerics.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        let min = numerics.iter().copied().fold(f64::INFINITY, f64::min);
        let max = numerics.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        (mean, var.sqrt(), (min, max))
    };
    ColumnSignature {
        col: ColumnRef { table, column },
        header: t.schema().column(column).name.clone(),
        ctype: t.schema().column(column).ctype,
        tokens,
        embedding,
        semantics,
        mean,
        std,
        range,
        non_null,
    }
}

impl ColumnSignature {
    /// Overlap ratio of the two numeric ranges in [0, 1]
    /// (|intersection| / |union|; 1 when both are single points that agree).
    pub(crate) fn range_overlap(&self, other: &ColumnSignature) -> f64 {
        let (a_lo, a_hi) = self.range;
        let (b_lo, b_hi) = other.range;
        let inter = (a_hi.min(b_hi) - a_lo.max(b_lo)).max(0.0);
        let union = (a_hi.max(b_hi) - a_lo.min(b_lo)).max(0.0);
        if union == 0.0 {
            // Both ranges are points; equal points overlap fully.
            if a_lo == b_lo && inter == 0.0 && a_hi == a_lo && b_hi == b_lo {
                1.0
            } else {
                0.0
            }
        } else {
            inter / union
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dialite_table::table;
    use dialite_text::NgramEmbedder;

    #[test]
    fn signature_captures_numeric_stats() {
        let t = table! { "t"; ["x"]; [1.0], [2.0], [3.0] };
        let e = NgramEmbedder::default();
        let tables = [&t];
        let sig = column_signature(&e, &tables, 0, 0);
        assert!((sig.mean - 2.0).abs() < 1e-12);
        assert!((sig.std - (2.0f64 / 3.0).sqrt()).abs() < 1e-9);
        assert_eq!(sig.range, (1.0, 3.0));
        assert_eq!(sig.non_null, 3);
        assert_eq!(sig.ctype, ColumnType::Float);
    }

    #[test]
    fn signature_of_text_column_has_zero_numeric_stats() {
        let t = table! { "t"; ["city"]; ["Berlin"], ["Boston"] };
        let e = NgramEmbedder::default();
        let tables = [&t];
        let sig = column_signature(&e, &tables, 0, 0);
        assert_eq!(sig.mean, 0.0);
        assert_eq!(sig.tokens.len(), 2);
        assert_eq!(sig.header, "city");
    }

    #[test]
    fn range_overlap_cases() {
        let t1 = table! { "a"; ["x"]; [0.0], [10.0] };
        let t2 = table! { "b"; ["x"]; [5.0], [15.0] };
        let t3 = table! { "c"; ["x"]; [100.0], [200.0] };
        let e = NgramEmbedder::default();
        let tables = [&t1, &t2, &t3];
        let s1 = column_signature(&e, &tables, 0, 0);
        let s2 = column_signature(&e, &tables, 1, 0);
        let s3 = column_signature(&e, &tables, 2, 0);
        assert!((s1.range_overlap(&s2) - 5.0 / 15.0).abs() < 1e-12);
        assert_eq!(s1.range_overlap(&s3), 0.0);
        assert!((s1.range_overlap(&s1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn point_ranges() {
        let t1 = table! { "a"; ["x"]; [5.0] };
        let t2 = table! { "b"; ["x"]; [5.0] };
        let t3 = table! { "c"; ["x"]; [7.0] };
        let e = NgramEmbedder::default();
        let tables = [&t1, &t2, &t3];
        let s1 = column_signature(&e, &tables, 0, 0);
        let s2 = column_signature(&e, &tables, 1, 0);
        let s3 = column_signature(&e, &tables, 2, 0);
        assert_eq!(s1.range_overlap(&s2), 1.0);
        assert_eq!(s1.range_overlap(&s3), 0.0);
    }

    #[test]
    fn nulls_do_not_count_as_values() {
        let t = dialite_table::Table::from_rows(
            "t",
            &["x"],
            vec![
                vec![dialite_table::Value::Int(1)],
                vec![dialite_table::Value::null_missing()],
            ],
        )
        .unwrap();
        let e = NgramEmbedder::default();
        let tables = [&t];
        let sig = column_signature(&e, &tables, 0, 0);
        assert_eq!(sig.non_null, 1);
        assert_eq!(sig.tokens.len(), 1);
    }
}
