//! Null-aware statistics over table columns.

use dialite_table::{Table, TableError, Value};

/// Summary statistics of one column.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnSummary {
    /// Column name.
    pub column: String,
    /// Total rows.
    pub rows: usize,
    /// Null cells (either kind).
    pub nulls: usize,
    /// Distinct non-null values.
    pub distinct: usize,
    /// Mean of numeric values (`None` for non-numeric columns).
    pub mean: Option<f64>,
    /// Population standard deviation of numeric values.
    pub std: Option<f64>,
    /// Minimum numeric value.
    pub min: Option<f64>,
    /// Maximum numeric value.
    pub max: Option<f64>,
}

/// Compute a [`ColumnSummary`].
pub fn column_summary(table: &Table, column: usize) -> Result<ColumnSummary, TableError> {
    if column >= table.column_count() {
        return Err(TableError::UnknownColumn {
            table: table.name().to_string(),
            column: format!("#{column}"),
        });
    }
    let rows = table.row_count();
    let nulls = table.column_values(column).filter(|v| v.is_null()).count();
    let distinct = table.column_token_set(column).len();
    let nums: Vec<f64> = table
        .column_values(column)
        .filter_map(Value::as_f64)
        .collect();
    let (mean, std, min, max) = if nums.is_empty() {
        (None, None, None, None)
    } else {
        let n = nums.len() as f64;
        let mean = nums.iter().sum::<f64>() / n;
        let var = nums.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        let min = nums.iter().copied().fold(f64::INFINITY, f64::min);
        let max = nums.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        (Some(mean), Some(var.sqrt()), Some(min), Some(max))
    };
    Ok(ColumnSummary {
        column: table.schema().column(column).name.clone(),
        rows,
        nulls,
        distinct,
        mean,
        std,
        min,
        max,
    })
}

/// Pearson correlation of paired observations. `None` when fewer than two
/// pairs or when either side has zero variance.
pub fn pearson(pairs: &[(f64, f64)]) -> Option<f64> {
    if pairs.len() < 2 {
        return None;
    }
    let n = pairs.len() as f64;
    let mean_x = pairs.iter().map(|p| p.0).sum::<f64>() / n;
    let mean_y = pairs.iter().map(|p| p.1).sum::<f64>() / n;
    let mut cov = 0.0;
    let mut var_x = 0.0;
    let mut var_y = 0.0;
    for (x, y) in pairs {
        let dx = x - mean_x;
        let dy = y - mean_y;
        cov += dx * dy;
        var_x += dx * dx;
        var_y += dy * dy;
    }
    if var_x == 0.0 || var_y == 0.0 {
        return None;
    }
    // Clamp: the value is mathematically in [-1, 1]; floating-point rounding
    // can exceed it by an epsilon on perfectly correlated inputs.
    Some((cov / (var_x.sqrt() * var_y.sqrt())).clamp(-1.0, 1.0))
}

/// Pearson correlation of two table columns over *pairwise-complete*
/// observations (rows where both values are numeric and non-null) — the
/// paper's Example 3 runs exactly this over the integrated COVID table,
/// where integration introduced nulls. `None` also when either column is
/// out of range.
pub fn pearson_columns(table: &Table, col_x: usize, col_y: usize) -> Option<f64> {
    if col_x.max(col_y) >= table.column_count() {
        return None;
    }
    let pairs: Vec<(f64, f64)> = table
        .rows()
        .filter_map(|row| Some((row[col_x].as_f64()?, row[col_y].as_f64()?)))
        .collect();
    pearson(&pairs)
}

/// Spearman rank correlation of paired observations: Pearson over the
/// average ranks (ties averaged). Robust to monotone transformations, a
/// useful companion to [`pearson`] when integrated columns mix scales.
pub fn spearman(pairs: &[(f64, f64)]) -> Option<f64> {
    if pairs.len() < 2 {
        return None;
    }
    fn ranks(values: &[f64]) -> Vec<f64> {
        let mut idx: Vec<usize> = (0..values.len()).collect();
        idx.sort_by(|&a, &b| values[a].total_cmp(&values[b]));
        let mut out = vec![0.0; values.len()];
        let mut i = 0;
        while i < idx.len() {
            let mut j = i;
            while j + 1 < idx.len() && values[idx[j + 1]] == values[idx[i]] {
                j += 1;
            }
            // Average rank for the tie run [i, j].
            let avg = (i + j) as f64 / 2.0 + 1.0;
            for &k in &idx[i..=j] {
                out[k] = avg;
            }
            i = j + 1;
        }
        out
    }
    let xs: Vec<f64> = pairs.iter().map(|p| p.0).collect();
    let ys: Vec<f64> = pairs.iter().map(|p| p.1).collect();
    let rx = ranks(&xs);
    let ry = ranks(&ys);
    let ranked: Vec<(f64, f64)> = rx.into_iter().zip(ry).collect();
    pearson(&ranked)
}

/// Profile every column of a table — the "common aggregations and
/// statistics" panel of the demo's Analyze stage. Returns a summary table
/// with one row per column.
pub fn describe(table: &Table) -> Table {
    let mut out = Table::new(
        &format!("describe({})", table.name()),
        &[
            "column", "type", "rows", "nulls", "distinct", "mean", "min", "max",
        ],
    )
    .expect("static schema");
    for c in 0..table.column_count() {
        let s = column_summary(table, c).expect("index in range");
        let opt = |v: Option<f64>| v.map_or(Value::null_produced(), Value::Float);
        out.push_row(vec![
            Value::Text(s.column),
            Value::Text(table.schema().column(c).ctype.to_string()),
            Value::Int(s.rows as i64),
            Value::Int(s.nulls as i64),
            Value::Int(s.distinct as i64),
            opt(s.mean),
            opt(s.min),
            opt(s.max),
        ])
        .expect("static arity");
    }
    out.infer_types();
    out
}

/// The rows holding the minimum and maximum (numeric) value of a column —
/// Example 3's "Boston is the city with the lowest vaccination rate and
/// Toronto has the highest". Returns `(argmin_row, argmax_row)` indices;
/// `None` when the column holds no number or is out of range.
pub fn extremes(table: &Table, column: usize) -> Option<(usize, usize)> {
    if column >= table.column_count() {
        return None;
    }
    let mut min: Option<(usize, f64)> = None;
    let mut max: Option<(usize, f64)> = None;
    for (i, row) in table.rows().enumerate() {
        if let Some(x) = row[column].as_f64() {
            if min.is_none_or(|(_, m)| x < m) {
                min = Some((i, x));
            }
            if max.is_none_or(|(_, m)| x > m) {
                max = Some((i, x));
            }
        }
    }
    Some((min?.0, max?.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dialite_table::table;

    /// The integrated COVID table of paper Fig. 3 (typed values).
    fn fig3_integrated() -> Table {
        table! {
            "FD"; ["Country", "City", "Vaccination Rate", "Total Cases", "Death Rate"];
            ["Germany", "Berlin", 0.63, 1_400_000, 147],
            ["England", "Manchester", 0.78, Value::null_produced(), Value::null_produced()],
            ["Spain", "Barcelona", 0.82, 2_680_000, 275],
            ["Canada", "Toronto", 0.83, Value::null_produced(), Value::null_produced()],
            ["Mexico", "Mexico City", Value::null_missing(), Value::null_produced(), Value::null_produced()],
            ["USA", "Boston", 0.62, 263_000, 335],
            [Value::null_produced(), "New Delhi", Value::null_produced(), 2_000_000, 158],
        }
    }

    #[test]
    fn example3_vaccination_death_rate_correlation_is_0_16() {
        let t = fig3_integrated();
        let r = pearson_columns(&t, 2, 4).unwrap();
        assert!(
            (r - 0.16).abs() < 0.005,
            "paper Example 3 reports 0.16, got {r:.4}"
        );
    }

    #[test]
    fn example3_cases_vaccination_correlation_is_0_9() {
        let t = fig3_integrated();
        let r = pearson_columns(&t, 3, 2).unwrap();
        assert!(
            (r - 0.9).abs() < 0.01,
            "paper Example 3 reports 0.9, got {r:.4}"
        );
    }

    #[test]
    fn example3_extremes_boston_lowest_toronto_highest() {
        let t = fig3_integrated();
        let (lo, hi) = extremes(&t, 2).unwrap();
        assert_eq!(t.row(lo).unwrap()[1], Value::Text("Boston".into()));
        assert_eq!(t.row(hi).unwrap()[1], Value::Text("Toronto".into()));
    }

    #[test]
    fn pearson_known_values() {
        // Perfect positive and negative correlation.
        assert!((pearson(&[(1.0, 2.0), (2.0, 4.0), (3.0, 6.0)]).unwrap() - 1.0).abs() < 1e-12);
        assert!((pearson(&[(1.0, 3.0), (2.0, 2.0), (3.0, 1.0)]).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_degenerate_cases() {
        assert_eq!(pearson(&[]), None);
        assert_eq!(pearson(&[(1.0, 1.0)]), None);
        assert_eq!(pearson(&[(1.0, 5.0), (1.0, 7.0)]), None, "zero x variance");
    }

    #[test]
    fn pearson_columns_skips_nulls_pairwise() {
        let t = fig3_integrated();
        // Only 3 rows have both rate and death-rate → n = 3 behind the 0.16.
        let pairs: Vec<(f64, f64)> = t
            .rows()
            .filter_map(|r| Some((r[2].as_f64()?, r[4].as_f64()?)))
            .collect();
        assert_eq!(pairs.len(), 3);
    }

    #[test]
    fn summary_counts_nulls_and_stats() {
        let t = fig3_integrated();
        let s = column_summary(&t, 2).unwrap();
        assert_eq!(s.rows, 7);
        assert_eq!(s.nulls, 2);
        assert_eq!(s.distinct, 5);
        assert!((s.min.unwrap() - 0.62).abs() < 1e-12);
        assert!((s.max.unwrap() - 0.83).abs() < 1e-12);
        let text = column_summary(&t, 1).unwrap();
        assert_eq!(text.mean, None);
        assert_eq!(text.distinct, 7);
    }

    #[test]
    fn summary_unknown_column_errors() {
        let t = fig3_integrated();
        assert!(column_summary(&t, 99).is_err());
    }

    #[test]
    fn extremes_none_for_non_numeric() {
        let t = table! { "t"; ["name"]; ["a"], ["b"] };
        assert_eq!(extremes(&t, 0), None);
    }

    #[test]
    fn pearson_columns_none_for_out_of_range_column() {
        let t = fig3_integrated();
        let n = t.column_count();
        assert_eq!(pearson_columns(&t, 2, n), None);
        assert_eq!(pearson_columns(&t, n, 2), None);
    }

    #[test]
    fn extremes_none_for_out_of_range_column() {
        let t = fig3_integrated();
        assert_eq!(extremes(&t, t.column_count()), None);
    }

    #[test]
    fn spearman_detects_monotone_relations() {
        // Perfectly monotone but non-linear: spearman 1, pearson < 1.
        let pairs: Vec<(f64, f64)> = (1..=8).map(|i| (i as f64, (i as f64).exp())).collect();
        let s = spearman(&pairs).unwrap();
        let p = pearson(&pairs).unwrap();
        assert!((s - 1.0).abs() < 1e-12, "spearman {s}");
        assert!(p < s, "pearson {p} should be below spearman {s}");
    }

    #[test]
    fn spearman_handles_ties() {
        let pairs = [(1.0, 2.0), (1.0, 2.0), (3.0, 5.0), (4.0, 7.0)];
        let s = spearman(&pairs).unwrap();
        assert!((0.0..=1.0).contains(&s));
        assert!(s > 0.9, "strongly increasing despite ties: {s}");
    }

    #[test]
    fn spearman_degenerate() {
        assert_eq!(spearman(&[]), None);
        assert_eq!(spearman(&[(1.0, 1.0)]), None);
        assert_eq!(
            spearman(&[(2.0, 1.0), (2.0, 3.0)]),
            None,
            "tied x has no rank variance"
        );
    }

    #[test]
    fn describe_profiles_all_columns() {
        let t = fig3_integrated();
        let d = describe(&t);
        assert_eq!(d.row_count(), 5);
        let rate_row = d
            .rows()
            .find(|r| r[0] == Value::Text("Vaccination Rate".into()))
            .unwrap();
        assert_eq!(rate_row[2], Value::Int(7)); // rows
        assert_eq!(rate_row[3], Value::Int(2)); // nulls
        assert_eq!(rate_row[4], Value::Int(5)); // distinct
        let city_row = d
            .rows()
            .find(|r| r[0] == Value::Text("City".into()))
            .unwrap();
        assert!(city_row[5].is_null(), "text column has no mean");
    }
}
