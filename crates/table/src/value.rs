use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

use serde::{Deserialize, Serialize};

/// The two flavours of null distinguished by the DIALITE paper.
///
/// * [`NullKind::Missing`] (`±`) — a null that was already present in the
///   source table ("missing nulls", Fig. 2 of the paper).
/// * [`NullKind::Produced`] (`⊥`) — a null introduced by an integration
///   operator because the source table did not have the attribute at all
///   ("produced nulls", Fig. 3).
///
/// The distinction is *presentational and provenance-related only*: for
/// equality, hashing and all integration semantics the two kinds are
/// interchangeable wildcards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NullKind {
    /// `±` — null present in the input data.
    Missing,
    /// `⊥` — null created during integration.
    Produced,
}

/// A dynamically typed cell value.
///
/// Equality is *content equality*: any null equals any other null (regardless
/// of [`NullKind`]), floats compare by total order with `NaN == NaN`, and
/// values of different non-null types are never equal. This is exactly the
/// notion of "same content" used when full disjunction deduplicates its
/// output (paper Fig. 8(b), where `{t16}` and the merge of `{t12, t16}` are
/// the same tuple).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Value {
    /// A null; see [`NullKind`].
    Null(NullKind),
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 text.
    Text(String),
}

impl Value {
    /// A null that was present in the source data (`±`).
    pub const fn null_missing() -> Self {
        Value::Null(NullKind::Missing)
    }

    /// A null produced by integration (`⊥`).
    pub const fn null_produced() -> Self {
        Value::Null(NullKind::Produced)
    }

    /// Returns `true` for either flavour of null.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null(_))
    }

    /// Numeric view: `Int` and `Float` coerce to `f64`; everything else is `None`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Integer view (only for `Int` values).
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Canonical token for set-based similarity: lower-cased trimmed text,
    /// numbers rendered canonically, nulls yield `None` (nulls never
    /// contribute to value overlap, per the join semantics of the paper).
    pub fn overlap_token(&self) -> Option<String> {
        match self {
            Value::Null(_) => None,
            Value::Bool(b) => Some(b.to_string()),
            Value::Int(i) => Some(i.to_string()),
            Value::Float(f) => Some(canonical_float(*f)),
            Value::Text(s) => {
                let t = s.trim();
                if t.is_empty() {
                    None
                } else {
                    Some(t.to_lowercase())
                }
            }
        }
    }

    /// Parse a raw text field (e.g. from CSV) into the most specific value.
    ///
    /// Empty strings and the conventional null spellings (`null`, `na`,
    /// `n/a`, `nan`, `±`) become *missing* nulls; `⊥` becomes a *produced*
    /// null (so integrated tables survive a CSV round-trip).
    pub fn parse_str(raw: &str) -> Value {
        let s = raw.trim();
        if s.is_empty() {
            return Value::null_missing();
        }
        match s.to_ascii_lowercase().as_str() {
            "null" | "na" | "n/a" | "nan" | "none" | "±" => return Value::null_missing(),
            "⊥" => return Value::null_produced(),
            "true" => return Value::Bool(true),
            "false" => return Value::Bool(false),
            _ => {}
        }
        if let Ok(i) = s.parse::<i64>() {
            return Value::Int(i);
        }
        if let Ok(f) = s.parse::<f64>() {
            return Value::Float(f);
        }
        Value::Text(s.to_string())
    }
}

fn canonical_float(f: f64) -> String {
    if f == f.trunc() && f.abs() < 1e15 {
        format!("{}", f as i64)
    } else {
        format!("{f}")
    }
}

/// Normalized bit pattern for float hashing/equality: all NaNs collapse to
/// one pattern and `-0.0` collapses to `0.0`.
fn float_bits(f: f64) -> u64 {
    if f.is_nan() {
        f64::NAN.to_bits()
    } else if f == 0.0 {
        0u64
    } else {
        f.to_bits()
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Null(_), Value::Null(_)) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => float_bits(*a) == float_bits(*b),
            (Value::Text(a), Value::Text(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null(_) => 0u8.hash(state),
            Value::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            Value::Int(i) => {
                2u8.hash(state);
                i.hash(state);
            }
            Value::Float(f) => {
                3u8.hash(state);
                float_bits(*f).hash(state);
            }
            Value::Text(s) => {
                4u8.hash(state);
                s.hash(state);
            }
        }
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    /// Total order used for deterministic output: nulls sort first, then
    /// bools, ints, floats (by `total_cmp`), then text lexicographically.
    fn cmp(&self, other: &Self) -> Ordering {
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Null(_) => 0,
                Value::Bool(_) => 1,
                Value::Int(_) => 2,
                Value::Float(_) => 3,
                Value::Text(_) => 4,
            }
        }
        match (self, other) {
            (Value::Null(_), Value::Null(_)) => Ordering::Equal,
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Float(a), Value::Float(b)) => a.total_cmp(b),
            (Value::Text(a), Value::Text(b)) => a.cmp(b),
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null(NullKind::Missing) => write!(f, "±"),
            Value::Null(NullKind::Produced) => write!(f, "⊥"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            // `{:?}` keeps a decimal point on integral floats ("2.0"), so a
            // displayed float never reparses as an integer.
            Value::Float(x) => write!(f, "{x:?}"),
            Value::Text(s) => write!(f, "{s}"),
        }
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Text(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Text(s)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::Int(i64::from(i))
    }
}

impl From<u32> for Value {
    fn from(i: u32) -> Self {
        Value::Int(i64::from(i))
    }
}

impl From<f64> for Value {
    fn from(f: f64) -> Self {
        Value::Float(f)
    }
}

impl From<f32> for Value {
    fn from(f: f32) -> Self {
        Value::Float(f64::from(f))
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<NullKind> for Value {
    fn from(k: NullKind) -> Self {
        Value::Null(k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn nulls_of_both_kinds_are_content_equal() {
        assert_eq!(Value::null_missing(), Value::null_produced());
        assert_eq!(
            hash_of(&Value::null_missing()),
            hash_of(&Value::null_produced())
        );
    }

    #[test]
    fn cross_type_values_are_not_equal() {
        assert_ne!(Value::Int(3), Value::Float(3.0));
        assert_ne!(Value::Text("3".into()), Value::Int(3));
        assert_ne!(Value::Bool(true), Value::Int(1));
    }

    #[test]
    fn float_equality_is_total() {
        assert_eq!(Value::Float(f64::NAN), Value::Float(f64::NAN));
        assert_eq!(Value::Float(0.0), Value::Float(-0.0));
        assert_eq!(hash_of(&Value::Float(0.0)), hash_of(&Value::Float(-0.0)));
        assert_eq!(
            hash_of(&Value::Float(f64::NAN)),
            hash_of(&Value::Float(-f64::NAN))
        );
    }

    #[test]
    fn parse_recognizes_null_spellings() {
        for s in ["", "  ", "null", "NA", "n/a", "NaN", "none", "±"] {
            assert_eq!(Value::parse_str(s), Value::null_missing(), "input {s:?}");
        }
        assert!(matches!(
            Value::parse_str("⊥"),
            Value::Null(NullKind::Produced)
        ));
    }

    #[test]
    fn parse_infers_types() {
        assert_eq!(Value::parse_str("42"), Value::Int(42));
        assert_eq!(Value::parse_str("-17"), Value::Int(-17));
        assert_eq!(Value::parse_str("3.5"), Value::Float(3.5));
        assert_eq!(Value::parse_str("1e3"), Value::Float(1000.0));
        assert_eq!(Value::parse_str("true"), Value::Bool(true));
        assert_eq!(Value::parse_str("FALSE"), Value::Bool(false));
        assert_eq!(Value::parse_str(" Berlin "), Value::Text("Berlin".into()));
    }

    #[test]
    fn display_round_trips_through_parse() {
        for v in [
            Value::Int(7),
            Value::Float(2.5),
            Value::Bool(true),
            Value::Text("Boston".into()),
            Value::null_missing(),
            Value::null_produced(),
        ] {
            let shown = v.to_string();
            let reparsed = Value::parse_str(&shown);
            assert_eq!(v, reparsed, "value {v:?} via {shown:?}");
        }
    }

    #[test]
    fn display_uses_paper_null_glyphs() {
        assert_eq!(Value::null_missing().to_string(), "±");
        assert_eq!(Value::null_produced().to_string(), "⊥");
    }

    #[test]
    fn ordering_is_total_and_ranks_types() {
        let mut vals = [
            Value::Text("a".into()),
            Value::Int(1),
            Value::null_produced(),
            Value::Float(0.5),
            Value::Bool(false),
        ];
        vals.sort();
        assert!(vals[0].is_null());
        assert_eq!(vals[1], Value::Bool(false));
        assert_eq!(vals[2], Value::Int(1));
        assert_eq!(vals[3], Value::Float(0.5));
        assert_eq!(vals[4], Value::Text("a".into()));
    }

    #[test]
    fn overlap_token_normalizes() {
        assert_eq!(
            Value::Text(" Berlin ".into()).overlap_token().unwrap(),
            "berlin"
        );
        assert_eq!(Value::Int(5).overlap_token().unwrap(), "5");
        assert_eq!(Value::Float(5.0).overlap_token().unwrap(), "5");
        assert_eq!(Value::Float(5.5).overlap_token().unwrap(), "5.5");
        assert!(Value::null_missing().overlap_token().is_none());
        assert!(Value::Text("   ".into()).overlap_token().is_none());
    }

    #[test]
    fn as_f64_coerces_ints() {
        assert_eq!(Value::Int(4).as_f64(), Some(4.0));
        assert_eq!(Value::Float(2.5).as_f64(), Some(2.5));
        assert_eq!(Value::Text("x".into()).as_f64(), None);
        assert_eq!(Value::null_missing().as_f64(), None);
    }

    #[test]
    fn from_impls_cover_common_literals() {
        assert_eq!(Value::from("x"), Value::Text("x".into()));
        assert_eq!(Value::from(3i64), Value::Int(3));
        assert_eq!(Value::from(3i32), Value::Int(3));
        assert_eq!(Value::from(3u32), Value::Int(3));
        assert_eq!(Value::from(0.5f64), Value::Float(0.5));
        assert_eq!(Value::from(true), Value::Bool(true));
    }
}
