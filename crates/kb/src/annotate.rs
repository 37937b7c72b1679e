//! Confidence-weighted annotation of columns and column pairs — the KB-side
//! half of SANTOS-style semantic table search.
//!
//! A *pair annotation* scores each directed relationship by the fraction
//! of the rows of two columns that exhibit it, which is SANTOS's
//! "relationship semantics" between a table's columns. Column types are
//! voted by the SANTOS engine itself, from the KB's leaf and parent types.

use std::collections::HashMap;

use crate::base::{KnowledgeBase, RelationId};

/// Direction of a relationship between two columns (left column plays
/// subject in `Forward`, object in `Backward`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Direction {
    /// left → right facts.
    Forward,
    /// right → left facts.
    Backward,
}

/// Directed relationships between two columns with confidence scores.
#[derive(Debug, Clone, Default)]
pub struct PairAnnotation {
    /// `((relation, direction), confidence)` sorted by descending
    /// confidence. Confidence is the fraction of value pairs exhibiting the
    /// relationship.
    pub scores: Vec<((RelationId, Direction), f64)>,
    /// Fraction of value pairs where both sides resolved to known entities.
    pub coverage: f64,
}

impl PairAnnotation {
    /// The highest-confidence relationship, if any.
    pub fn top(&self) -> Option<((RelationId, Direction), f64)> {
        self.scores.first().copied()
    }
}

impl KnowledgeBase {
    /// Annotate the relationship between two columns given their row-aligned
    /// value pairs (nulls should be filtered by the caller; empty strings
    /// are skipped here). Votes are per distinct pair.
    pub fn annotate_pair<'a, I>(&self, pairs: I) -> PairAnnotation
    where
        I: IntoIterator<Item = (&'a str, &'a str)>,
    {
        let mut distinct: HashMap<(String, String), ()> = HashMap::new();
        for (a, b) in pairs {
            if !a.trim().is_empty() && !b.trim().is_empty() {
                distinct
                    .entry((
                        crate::base::normalize(a).into_owned(),
                        crate::base::normalize(b).into_owned(),
                    ))
                    .or_insert(());
            }
        }
        let total = distinct.len();
        if total == 0 {
            return PairAnnotation::default();
        }
        let mut votes: HashMap<(RelationId, Direction), usize> = HashMap::new();
        let mut covered = 0usize;
        for (a, b) in distinct.keys() {
            let fwd = self.relations_between(a, b);
            let bwd = self.relations_between(b, a);
            if self.knows(a) && self.knows(b) {
                covered += 1;
            }
            for r in fwd {
                *votes.entry((r, Direction::Forward)).or_insert(0) += 1;
            }
            for r in bwd {
                *votes.entry((r, Direction::Backward)).or_insert(0) += 1;
            }
        }
        let mut scores: Vec<((RelationId, Direction), f64)> = votes
            .into_iter()
            .map(|(k, v)| (k, v as f64 / total as f64))
            .collect();
        scores.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        PairAnnotation {
            scores,
            coverage: covered as f64 / total as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::base::KbBuilder;

    fn kb() -> KnowledgeBase {
        let mut b = KbBuilder::new();
        b.add_type("place", None);
        b.add_type("city", Some("place"));
        b.add_type("country", Some("place"));
        for c in ["berlin", "boston", "barcelona"] {
            b.add_entity(c, &["city"]);
        }
        for c in ["germany", "spain"] {
            b.add_entity(c, &["country"]);
        }
        b.add_fact("berlin", "located_in", "germany");
        b.add_fact("barcelona", "located_in", "spain");
        b.build()
    }

    #[test]
    fn pair_annotation_detects_direction() {
        let kb = kb();
        let rel = kb.relation_id("located_in").unwrap();
        // city → country order: forward
        let fwd = kb.annotate_pair([("Berlin", "Germany"), ("Barcelona", "Spain")]);
        let ((r, d), conf) = fwd.top().unwrap();
        assert_eq!(r, rel);
        assert_eq!(d, Direction::Forward);
        assert!((conf - 1.0).abs() < 1e-12);
        // reversed order: backward
        let bwd = kb.annotate_pair([("Germany", "Berlin")]);
        assert_eq!(bwd.top().unwrap().0 .1, Direction::Backward);
    }

    #[test]
    fn pair_annotation_confidence_is_fraction_of_pairs() {
        let kb = kb();
        let ann = kb.annotate_pair([
            ("Berlin", "Germany"),
            ("Boston", "Germany"), // no fact
        ]);
        assert!((ann.top().unwrap().1 - 0.5).abs() < 1e-12);
        assert!((ann.coverage - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pair_annotation_empty_for_unknowns() {
        let kb = kb();
        let ann = kb.annotate_pair([("a", "b")]);
        assert!(ann.scores.is_empty());
        assert_eq!(ann.coverage, 0.0);
    }
}
