//! The knowledge-base storage: interned types, entities, aliases and facts.

use std::borrow::Cow;
use std::collections::{HashMap, HashSet};

/// Interned identifier of a semantic type (class).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TypeId(pub u32);

/// Interned identifier of a relationship (property).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RelationId(pub u32);

/// Normalize an entity mention for dictionary lookup: trim, lowercase,
/// collapse internal whitespace. A mention already in normal form is
/// borrowed, not copied — the common case for lake tokens, which arrive
/// trimmed and lower-cased.
pub(crate) fn normalize(label: &str) -> Cow<'_, str> {
    if is_normal(label) {
        return Cow::Borrowed(label);
    }
    let mut out = String::with_capacity(label.len());
    let mut last_space = true;
    for c in label.trim().chars() {
        if c.is_whitespace() {
            if !last_space {
                out.push(' ');
                last_space = true;
            }
        } else {
            for lc in c.to_lowercase() {
                out.push(lc);
            }
            last_space = false;
        }
    }
    Cow::Owned(out)
}

/// `true` when [`normalize`] would return `label` unchanged: no leading,
/// trailing or repeated whitespace, no whitespace but `' '`, and every
/// character its own lowercase.
fn is_normal(label: &str) -> bool {
    let mut last_space = true;
    for c in label.chars() {
        if c.is_whitespace() {
            if c != ' ' || last_space {
                return false;
            }
            last_space = true;
        } else {
            let own_lowercase = if c.is_ascii() {
                !c.is_ascii_uppercase()
            } else {
                let mut lower = c.to_lowercase();
                lower.next() == Some(c) && lower.next().is_none()
            };
            if !own_lowercase {
                return false;
            }
            last_space = false;
        }
    }
    label.is_empty() || !last_space
}

/// Builder for a [`KnowledgeBase`].
#[derive(Debug, Default)]
pub struct KbBuilder {
    type_names: Vec<String>,
    type_ids: HashMap<String, TypeId>,
    type_parents: HashMap<TypeId, Vec<TypeId>>,
    rel_names: Vec<String>,
    rel_ids: HashMap<String, RelationId>,
    entity_types: HashMap<String, Vec<TypeId>>,
    aliases: HashMap<String, String>,
    facts: HashMap<(String, String), HashSet<RelationId>>,
}

impl KbBuilder {
    /// Empty builder.
    pub fn new() -> KbBuilder {
        KbBuilder::default()
    }

    /// Intern a type name, optionally declaring a subclass edge.
    /// Re-declaring an existing type with a new parent adds the edge.
    pub fn add_type(&mut self, name: &str, parent: Option<&str>) -> TypeId {
        let id = self.intern_type(name);
        if let Some(p) = parent {
            let pid = self.intern_type(p);
            let parents = self.type_parents.entry(id).or_default();
            if !parents.contains(&pid) {
                parents.push(pid);
            }
        }
        id
    }

    fn intern_type(&mut self, name: &str) -> TypeId {
        let key = normalize(name).into_owned();
        if let Some(&id) = self.type_ids.get(&key) {
            return id;
        }
        let id = TypeId(self.type_names.len() as u32);
        self.type_names.push(key.clone());
        self.type_ids.insert(key, id);
        id
    }

    fn intern_relation(&mut self, name: &str) -> RelationId {
        let key = normalize(name).into_owned();
        if let Some(&id) = self.rel_ids.get(&key) {
            return id;
        }
        let id = RelationId(self.rel_names.len() as u32);
        self.rel_names.push(key.clone());
        self.rel_ids.insert(key, id);
        id
    }

    /// Register an entity with its (leaf) types. Repeated calls merge types.
    pub fn add_entity(&mut self, label: &str, types: &[&str]) {
        let ids: Vec<TypeId> = types.iter().map(|t| self.intern_type(t)).collect();
        let leafs = self
            .entity_types
            .entry(normalize(label).into_owned())
            .or_default();
        for id in ids {
            if !leafs.contains(&id) {
                leafs.push(id);
            }
        }
    }

    /// Register an alias (e.g. "USA" → "United States"). Alias resolution is
    /// one level deep, matching how gazetteer aliases work in practice.
    pub fn add_alias(&mut self, alias: &str, canonical: &str) {
        self.aliases.insert(
            normalize(alias).into_owned(),
            normalize(canonical).into_owned(),
        );
    }

    /// Record a directed relationship fact `subject --relation--> object`.
    /// Entities are auto-registered (with no types) if unknown.
    pub fn add_fact(&mut self, subject: &str, relation: &str, object: &str) {
        let rel = self.intern_relation(relation);
        let s = normalize(subject).into_owned();
        let o = normalize(object).into_owned();
        self.entity_types.entry(s.clone()).or_default();
        self.entity_types.entry(o.clone()).or_default();
        self.facts.entry((s, o)).or_default().insert(rel);
    }

    /// Finalize: computes the ancestor closure of the type lattice.
    pub fn build(self) -> KnowledgeBase {
        // Transitive closure over the (small) type DAG by fixpoint.
        let mut closure: HashMap<TypeId, HashSet<TypeId>> = HashMap::new();
        for id in (0..self.type_names.len() as u32).map(TypeId) {
            let mut seen: HashSet<TypeId> = HashSet::new();
            let mut stack: Vec<TypeId> = vec![id];
            while let Some(t) = stack.pop() {
                if !seen.insert(t) {
                    continue;
                }
                if let Some(ps) = self.type_parents.get(&t) {
                    stack.extend(ps.iter().copied());
                }
            }
            closure.insert(id, seen);
        }
        KnowledgeBase {
            type_names: self.type_names,
            type_ids: self.type_ids,
            ancestors: closure,
            type_parents: self.type_parents,
            rel_names: self.rel_names,
            rel_ids: self.rel_ids,
            entity_types: self.entity_types,
            aliases: self.aliases,
            facts: self.facts,
        }
    }
}

/// Size statistics of a knowledge base.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KbStats {
    /// Number of interned types.
    pub types: usize,
    /// Number of interned relationships.
    pub relations: usize,
    /// Number of entities (including fact-only entities).
    pub entities: usize,
    /// Number of (subject, object) pairs with at least one fact.
    pub fact_pairs: usize,
    /// Number of aliases.
    pub aliases: usize,
}

/// The finalized knowledge base. See the crate docs for the role it plays.
#[derive(Debug, Clone)]
pub struct KnowledgeBase {
    type_names: Vec<String>,
    type_ids: HashMap<String, TypeId>,
    /// Reflexive-transitive ancestor sets.
    ancestors: HashMap<TypeId, HashSet<TypeId>>,
    /// Direct subclass edges (child → parents).
    type_parents: HashMap<TypeId, Vec<TypeId>>,
    rel_names: Vec<String>,
    rel_ids: HashMap<String, RelationId>,
    entity_types: HashMap<String, Vec<TypeId>>,
    aliases: HashMap<String, String>,
    facts: HashMap<(String, String), HashSet<RelationId>>,
}

impl KnowledgeBase {
    /// The canonical key and leaf types of a mention, through
    /// normalization and (one-level) aliasing. Allocates nothing for a
    /// mention already in normal form.
    pub(crate) fn entity(&self, mention: &str) -> Option<(&str, &[TypeId])> {
        let norm = normalize(mention);
        let (key, leafs) = match self.entity_types.get_key_value(norm.as_ref()) {
            Some(hit) => hit,
            None => {
                let canonical = self.aliases.get(norm.as_ref())?;
                self.entity_types.get_key_value(canonical.as_str())?
            }
        };
        Some((key, leafs))
    }

    /// Resolve a mention through normalization and (one-level) aliasing to
    /// the canonical entity key, if the entity is known.
    pub fn resolve(&self, mention: &str) -> Option<&str> {
        self.entity(mention).map(|(key, _)| key)
    }

    /// `true` if the mention resolves to a known entity.
    pub fn knows(&self, mention: &str) -> bool {
        self.entity(mention).is_some()
    }

    /// All types of a mention *including ancestors*; empty if unknown.
    pub fn types_of(&self, mention: &str) -> HashSet<TypeId> {
        let Some((_, leafs)) = self.entity(mention) else {
            return HashSet::new();
        };
        let mut out = HashSet::new();
        for t in leafs {
            if let Some(anc) = self.ancestors.get(t) {
                out.extend(anc.iter().copied());
            }
        }
        out
    }

    /// Only the *direct* (leaf) types of a mention, without ancestor
    /// expansion — the most specific classification. Schema matching uses
    /// these so that a shared distant ancestor ("place") does not make city
    /// and country columns look alike. `None` when the mention does not
    /// resolve; a known entity without types (one registered only by a
    /// fact) yields an empty slice.
    pub fn leaf_types_of(&self, mention: &str) -> Option<&[TypeId]> {
        self.entity(mention).map(|(_, leafs)| leafs)
    }

    /// Direct parent types (one subclass step up); empty for roots.
    pub fn parent_types(&self, id: TypeId) -> &[TypeId] {
        self.type_parents.get(&id).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Directed relationships from `a` to `b` (after resolution).
    pub(crate) fn relations_between(&self, a: &str, b: &str) -> HashSet<RelationId> {
        let (Some(ka), Some(kb)) = (self.resolve(a), self.resolve(b)) else {
            return HashSet::new();
        };
        let key = (ka.to_owned(), kb.to_owned());
        self.facts.get(&key).cloned().unwrap_or_default()
    }

    /// Name of a type id.
    pub fn type_name(&self, id: TypeId) -> &str {
        &self.type_names[id.0 as usize]
    }

    /// Look up a type id by name.
    pub fn type_id(&self, name: &str) -> Option<TypeId> {
        self.type_ids.get(normalize(name).as_ref()).copied()
    }

    /// Look up a relationship id by name.
    pub fn relation_id(&self, name: &str) -> Option<RelationId> {
        self.rel_ids.get(normalize(name).as_ref()).copied()
    }

    /// Size statistics.
    pub fn stats(&self) -> KbStats {
        KbStats {
            types: self.type_names.len(),
            relations: self.rel_names.len(),
            entities: self.entity_types.len(),
            fact_pairs: self.facts.len(),
            aliases: self.aliases.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geo_kb() -> KnowledgeBase {
        let mut b = KbBuilder::new();
        b.add_type("place", None);
        b.add_type("city", Some("place"));
        b.add_type("capital", Some("city"));
        b.add_type("country", Some("place"));
        b.add_entity("Berlin", &["capital"]);
        b.add_entity("Boston", &["city"]);
        b.add_entity("Germany", &["country"]);
        b.add_alias("Beantown", "Boston");
        b.add_fact("Berlin", "capital_of", "Germany");
        b.build()
    }

    #[test]
    fn type_closure_includes_ancestors() {
        let kb = geo_kb();
        let berlin = kb.types_of("Berlin");
        for t in ["capital", "city", "place"] {
            assert!(
                berlin.contains(&kb.type_id(t).unwrap()),
                "Berlin should be a {t}"
            );
        }
        assert!(!berlin.contains(&kb.type_id("country").unwrap()));
    }

    #[test]
    fn normalization_and_aliases_resolve() {
        let kb = geo_kb();
        assert!(kb.knows("  BERLIN "));
        assert!(kb.knows("beantown"));
        assert_eq!(kb.resolve("Beantown").unwrap(), "boston");
        assert!(!kb.knows("Atlantis"));
        assert!(kb.types_of("Atlantis").is_empty());
    }

    #[test]
    fn whitespace_collapses_in_normalization() {
        assert_eq!(normalize("  New   Delhi "), "new delhi");
        assert_eq!(normalize("ABC"), "abc");
    }

    #[test]
    fn normal_forms_are_borrowed() {
        for normal in ["", "berlin", "new delhi", "straße", "i\u{307}"] {
            assert!(matches!(normalize(normal), Cow::Borrowed(_)), "{normal:?}");
        }
        for other in [
            " a", "a ", "a  b", "a\tb", "a\u{a0}b", "Berlin", "\u{130}", "Σ",
        ] {
            assert!(matches!(normalize(other), Cow::Owned(_)), "{other:?}");
        }
    }

    #[test]
    fn parent_types_are_one_step() {
        let kb = geo_kb();
        let capital = kb.type_id("capital").unwrap();
        let city = kb.type_id("city").unwrap();
        let place = kb.type_id("place").unwrap();
        assert_eq!(kb.parent_types(capital), &[city]);
        assert_eq!(kb.parent_types(city), &[place]);
        assert!(kb.parent_types(place).is_empty());
    }

    #[test]
    fn leaf_types_exclude_ancestors() {
        let kb = geo_kb();
        let leafs = kb.leaf_types_of("Berlin").unwrap();
        assert_eq!(leafs.len(), 1);
        assert!(leafs.contains(&kb.type_id("capital").unwrap()));
        assert!(kb.leaf_types_of("Atlantis").is_none());
        // alias resolution applies
        assert_eq!(kb.leaf_types_of("beantown"), kb.leaf_types_of("Boston"));
    }

    #[test]
    fn facts_are_directed() {
        let kb = geo_kb();
        let rel = kb.relation_id("capital_of").unwrap();
        assert!(kb.relations_between("Berlin", "Germany").contains(&rel));
        assert!(kb.relations_between("Germany", "Berlin").is_empty());
        assert!(kb.relations_between("Berlin", "Atlantis").is_empty());
    }

    #[test]
    fn fact_entities_are_auto_registered() {
        let mut b = KbBuilder::new();
        b.add_fact("pfizer", "approved_by", "fda");
        let kb = b.build();
        assert!(kb.knows("Pfizer"));
        assert!(kb.knows("FDA"));
        // ... but with no types.
        assert!(kb.types_of("pfizer").is_empty());
        assert_eq!(kb.leaf_types_of("pfizer"), Some(&[][..]));
    }

    #[test]
    fn repeated_entity_registration_merges_types() {
        let mut b = KbBuilder::new();
        b.add_type("a", None);
        b.add_type("b", None);
        b.add_entity("x", &["a"]);
        b.add_entity("x", &["b"]);
        let kb = b.build();
        let ts = kb.types_of("x");
        assert_eq!(ts.len(), 2);
    }

    #[test]
    fn diamond_hierarchy_closure_terminates() {
        let mut b = KbBuilder::new();
        b.add_type("top", None);
        b.add_type("l", Some("top"));
        b.add_type("r", Some("top"));
        b.add_type("bottom", Some("l"));
        b.add_type("bottom", Some("r"));
        b.add_entity("e", &["bottom"]);
        let kb = b.build();
        assert_eq!(kb.types_of("e").len(), 4);
    }

    #[test]
    fn cyclic_hierarchy_terminates() {
        // Defensive: closure must not loop on malformed (cyclic) input.
        let mut b = KbBuilder::new();
        b.add_type("a", Some("b"));
        b.add_type("b", Some("a"));
        b.add_entity("e", &["a"]);
        let kb = b.build();
        assert_eq!(kb.types_of("e").len(), 2);
    }

    #[test]
    fn stats_count_everything() {
        let kb = geo_kb();
        let s = kb.stats();
        assert_eq!(s.types, 4);
        assert_eq!(s.relations, 1);
        assert_eq!(s.entities, 3);
        assert_eq!(s.fact_pairs, 1);
        assert_eq!(s.aliases, 1);
    }
}
