//! Property-based tests for entity resolution: normalization is
//! idempotent over arbitrary Unicode, the borrowing `resolve` agrees with
//! the allocate-then-look-up definition, and a column pair whose one side
//! never resolves votes no relationship. SANTOS's covered-pair skip is
//! exact only because of these.

use std::collections::{HashMap, HashSet};

use dialite_kb::{KbBuilder, KnowledgeBase};
use proptest::prelude::*;

/// Characters whose case or whitespace handling is easy to get wrong:
/// dotted capital I (lowercases to two chars), sigma and final sigma,
/// NBSP, line/paragraph separators, ideographic space, tab and newline.
const TRICKY: &[char] = &[
    'İ', 'ı', 'Σ', 'σ', 'ς', '\u{a0}', '\u{2028}', '\u{2029}', '\u{3000}', '\u{307}', ' ', ' ',
    '\t', '\n', 'A', 'a', 'ẞ', 'ß', 'Ǆ', 'ǅ', 'ǆ',
];

fn arb_char() -> impl Strategy<Value = char> {
    prop_oneof![
        3 => (0..TRICKY.len()).prop_map(|i| TRICKY[i]),
        2 => any::<char>(),
        1 => (0u32..0x11_0000).prop_map(|u| char::from_u32(u).unwrap_or('\u{fffd}')),
    ]
}

fn arb_text() -> impl Strategy<Value = String> {
    prop::collection::vec(arb_char(), 0..10).prop_map(|cs| cs.into_iter().collect())
}

/// The original definition of mention normalization: trim, lowercase
/// char by char, collapse every whitespace run to one space.
fn reference_normalize(label: &str) -> String {
    let mut out = String::new();
    let mut last_space = true;
    for c in label.trim().chars() {
        if c.is_whitespace() {
            if !last_space {
                out.push(' ');
                last_space = true;
            }
        } else {
            out.extend(c.to_lowercase());
            last_space = false;
        }
    }
    out
}

/// Spelling variants of `label` that normalize alike.
fn variant(label: &str, how: usize) -> String {
    match how % 4 {
        0 => label.to_string(),
        1 => label.to_uppercase(),
        2 => format!(" \u{a0}{label}\t"),
        _ => label.replace(' ', " \u{2028} "),
    }
}

/// A KB over `entities` (typed when their index is even), `aliases`
/// (`(alias, canonical)` by index into `entities`, or to an unknown
/// name past its end) and one fact between each neighbouring pair.
struct Model {
    kb: KnowledgeBase,
    entities: HashSet<String>,
    aliases: HashMap<String, String>,
}

fn model(entities: &[String], aliases: &[(String, usize)]) -> Model {
    let mut b = KbBuilder::new();
    b.add_type("thing", None);
    for (i, e) in entities.iter().enumerate() {
        if i % 2 == 0 {
            b.add_entity(e, &["thing"]);
        }
    }
    for pair in entities.windows(2) {
        b.add_fact(&pair[0], "next", &pair[1]);
    }
    if let [only] = entities {
        b.add_fact(only, "self", only);
    }
    let canonical = |i: usize| {
        entities
            .get(i)
            .cloned()
            .unwrap_or_else(|| format!("unknown canonical {i}"))
    };
    let mut model_aliases = HashMap::new();
    for (alias, i) in aliases {
        b.add_alias(alias, &canonical(*i));
        model_aliases.insert(
            reference_normalize(alias),
            reference_normalize(&canonical(*i)),
        );
    }
    Model {
        kb: b.build(),
        entities: entities.iter().map(|e| reference_normalize(e)).collect(),
        aliases: model_aliases,
    }
}

impl Model {
    /// Resolution as first defined: normalize into a fresh `String`, look
    /// it up, else follow one alias to a known entity.
    fn resolve(&self, mention: &str) -> Option<String> {
        let norm = reference_normalize(mention);
        if self.entities.contains(&norm) {
            return Some(norm);
        }
        let via_alias = self.aliases.get(&norm)?;
        self.entities.contains(via_alias).then(|| via_alias.clone())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn normalize_is_idempotent(label in arb_text()) {
        let once = reference_normalize(&label);
        prop_assert_eq!(reference_normalize(&once), once.clone());
        // The KB stores `normalize(label)` as the entity key and `resolve`
        // returns it, so the crate's own normalization is observable.
        let mut b = KbBuilder::new();
        b.add_entity(&label, &[]);
        let kb = b.build();
        let key = kb.resolve(&label).map(str::to_string);
        prop_assert_eq!(key.as_deref(), Some(once.as_str()));
        prop_assert_eq!(kb.resolve(&once), Some(once.as_str()));
    }

    #[test]
    fn borrowed_resolve_equals_allocating_lookup(
        entities in prop::collection::vec(arb_text(), 0..6),
        aliases in prop::collection::vec((arb_text(), 0usize..8), 0..4),
        mentions in prop::collection::vec((0usize..8, 0usize..4, arb_text()), 1..8),
    ) {
        let m = model(&entities, &aliases);
        for (pick, how, free) in &mentions {
            let mention = match entities.get(*pick) {
                Some(e) => variant(e, *how),
                None => match aliases.get(pick - entities.len()) {
                    Some((alias, _)) => variant(alias, *how),
                    None => free.clone(),
                },
            };
            let expected = m.resolve(&mention);
            prop_assert_eq!(m.kb.resolve(&mention), expected.as_deref());
            prop_assert_eq!(m.kb.knows(&mention), expected.is_some());
            prop_assert_eq!(m.kb.leaf_types_of(&mention).is_some(), expected.is_some());
        }
    }

    #[test]
    fn a_side_that_never_resolves_votes_nothing(
        entities in prop::collection::vec(arb_text(), 1..6),
        rows in prop::collection::vec((0usize..6, 0usize..4, arb_text()), 1..8),
        unknown_left in any::<bool>(),
    ) {
        let m = model(&entities, &[]);
        let pairs: Vec<(String, String)> = rows
            .iter()
            .map(|(pick, how, free)| {
                let known = variant(&entities[pick % entities.len()], *how);
                let unknown = format!("never {free}");
                (known, unknown)
            })
            .filter(|(_, unknown)| !m.kb.knows(unknown))
            .map(|(known, unknown)| if unknown_left { (unknown, known) } else { (known, unknown) })
            .collect();
        let ann = m.kb.annotate_pair(pairs.iter().map(|(a, b)| (a.as_str(), b.as_str())));
        prop_assert!(ann.scores.is_empty(), "{:?}", ann.scores);
        prop_assert_eq!(ann.coverage, 0.0);
    }
}
