//! The read-side abstraction over snapshot representations.
//!
//! [`TaxonomyRead`] is the query surface the serving layer compiles
//! against: every Table II primitive, expressed so both the owned
//! [`FrozenTaxonomy`] (slice-backed: the freeze output and the test
//! oracle) and the borrowed [`FrozenTaxonomyView`] (varint-decoded on the
//! fly: the one serving representation) can implement it without
//! allocating adapters. Listing methods return iterators — slices iterate
//! for free, the view decodes lazily.
//!
//! [`AnySnapshot`] names the serving representation: a v3 file boots as
//! the zero-copy view, a v1 build store is frozen and re-encoded as v3 on
//! the way in. [`BootSnapshot`] is the boot constructor the service's
//! hot-swap `reload` path needs to rebuild a snapshot of the same
//! representation from a file.

use crate::frozen::FrozenTaxonomy;
use crate::interner::Symbol;
use crate::persist::{PersistError, Snapshot};
use crate::store::{ConceptId, EntityId, EntityRecord, IsAMeta};
use crate::view::FrozenTaxonomyView;
use std::path::Path;

/// Read-only Table II query surface over a frozen snapshot.
///
/// `Send + Sync` is part of the contract: implementations are served
/// concurrently behind an `Arc` by `TaxonomyService`.
pub trait TaxonomyRead: Send + Sync {
    /// Resolves an interned symbol to its string.
    fn resolve(&self, sym: Symbol) -> &str;

    /// Record for an entity id.
    fn entity(&self, id: EntityId) -> EntityRecord;

    /// Full display key: `name（disambig）` or just `name`.
    fn entity_key(&self, id: EntityId) -> String {
        let rec = self.entity(id);
        let name = self.resolve(rec.name);
        if rec.disambig == Symbol(0) {
            name.to_string()
        } else {
            format!("{name}（{}）", self.resolve(rec.disambig))
        }
    }

    /// Finds an entity by exact name + disambiguation.
    fn find_entity(&self, name: &str, disambig: Option<&str>) -> Option<EntityId>;

    /// Finds a concept by name.
    fn find_concept(&self, name: &str) -> Option<ConceptId>;

    /// Concept name.
    fn concept_name(&self, id: ConceptId) -> &str;

    /// Number of entities.
    fn num_entities(&self) -> usize;

    /// Number of concepts.
    fn num_concepts(&self) -> usize;

    /// Total isA edges.
    fn num_is_a(&self) -> usize;

    /// Number of distinct mention keys (names + aliases).
    fn num_mentions(&self) -> usize;

    /// Resolves a mention to candidate entity senses (every sense for a
    /// bare name or alias, exactly one for a disambiguated key).
    fn men2ent(&self, mention: &str) -> Vec<EntityId>;

    /// Direct concepts of an entity, with edge metadata.
    fn concepts_of(&self, e: EntityId) -> impl Iterator<Item = (ConceptId, IsAMeta)> + '_;

    /// Direct entities of a concept, confidence-ranked.
    fn entities_of(&self, c: ConceptId) -> impl Iterator<Item = EntityId> + '_;

    /// Direct entities of a concept with each edge's confidence — the
    /// `getEntity` ranking input. The default probes the entity-side
    /// adjacency per hit; the view serves both from one `CENT` row.
    fn entities_with_confidence(&self, c: ConceptId) -> impl Iterator<Item = (EntityId, f32)> + '_ {
        self.entities_of(c)
            .map(move |e| (e, self.entity_edge(e, c).map_or(0.0, |m| m.confidence)))
    }

    /// Metadata of the entity→concept isA edge, if present.
    fn entity_edge(&self, e: EntityId, c: ConceptId) -> Option<IsAMeta> {
        self.concepts_of(e).find(|&(cc, _)| cc == c).map(|(_, m)| m)
    }

    /// Direct parent concepts, with edge metadata.
    fn parents_of(&self, c: ConceptId) -> impl Iterator<Item = (ConceptId, IsAMeta)> + '_;

    /// Direct child concepts.
    fn children_of(&self, c: ConceptId) -> impl Iterator<Item = ConceptId> + '_;

    /// All transitive ancestors of a concept, ascending by id.
    fn ancestors(&self, c: ConceptId) -> impl Iterator<Item = ConceptId> + '_;

    /// Whether `sup` is a transitive ancestor of `c`.
    fn ancestor_contains(&self, c: ConceptId, sup: ConceptId) -> bool;

    /// Exact depth of a concept (0 for roots).
    fn depth(&self, c: ConceptId) -> usize;

    /// All transitive descendant concepts in BFS order.
    fn descendants(&self, start: ConceptId) -> Vec<ConceptId>;
}

impl TaxonomyRead for FrozenTaxonomy {
    fn resolve(&self, sym: Symbol) -> &str {
        FrozenTaxonomy::resolve(self, sym)
    }

    fn entity(&self, id: EntityId) -> EntityRecord {
        FrozenTaxonomy::entity(self, id)
    }

    fn entity_key(&self, id: EntityId) -> String {
        FrozenTaxonomy::entity_key(self, id)
    }

    fn find_entity(&self, name: &str, disambig: Option<&str>) -> Option<EntityId> {
        FrozenTaxonomy::find_entity(self, name, disambig)
    }

    fn find_concept(&self, name: &str) -> Option<ConceptId> {
        FrozenTaxonomy::find_concept(self, name)
    }

    fn concept_name(&self, id: ConceptId) -> &str {
        FrozenTaxonomy::concept_name(self, id)
    }

    fn num_entities(&self) -> usize {
        FrozenTaxonomy::num_entities(self)
    }

    fn num_concepts(&self) -> usize {
        FrozenTaxonomy::num_concepts(self)
    }

    fn num_is_a(&self) -> usize {
        FrozenTaxonomy::num_is_a(self)
    }

    fn num_mentions(&self) -> usize {
        FrozenTaxonomy::num_mentions(self)
    }

    fn men2ent(&self, mention: &str) -> Vec<EntityId> {
        FrozenTaxonomy::men2ent(self, mention).to_vec()
    }

    fn concepts_of(&self, e: EntityId) -> impl Iterator<Item = (ConceptId, IsAMeta)> + '_ {
        FrozenTaxonomy::concepts_of(self, e).iter().copied()
    }

    fn entities_of(&self, c: ConceptId) -> impl Iterator<Item = EntityId> + '_ {
        FrozenTaxonomy::entities_of(self, c).iter().copied()
    }

    fn entity_edge(&self, e: EntityId, c: ConceptId) -> Option<IsAMeta> {
        FrozenTaxonomy::entity_edge(self, e, c)
    }

    fn parents_of(&self, c: ConceptId) -> impl Iterator<Item = (ConceptId, IsAMeta)> + '_ {
        FrozenTaxonomy::parents_of(self, c).iter().copied()
    }

    fn children_of(&self, c: ConceptId) -> impl Iterator<Item = ConceptId> + '_ {
        FrozenTaxonomy::children_of(self, c).iter().copied()
    }

    fn ancestors(&self, c: ConceptId) -> impl Iterator<Item = ConceptId> + '_ {
        FrozenTaxonomy::ancestors(self, c)
    }

    fn ancestor_contains(&self, c: ConceptId, sup: ConceptId) -> bool {
        FrozenTaxonomy::ancestors_of(self, c)
            .binary_search(&sup)
            .is_ok()
    }

    fn depth(&self, c: ConceptId) -> usize {
        FrozenTaxonomy::depth(self, c)
    }

    fn descendants(&self, start: ConceptId) -> Vec<ConceptId> {
        FrozenTaxonomy::descendants(self, start)
    }
}

impl TaxonomyRead for FrozenTaxonomyView {
    fn resolve(&self, sym: Symbol) -> &str {
        FrozenTaxonomyView::resolve(self, sym)
    }

    fn entity(&self, id: EntityId) -> EntityRecord {
        FrozenTaxonomyView::entity(self, id)
    }

    fn entity_key(&self, id: EntityId) -> String {
        FrozenTaxonomyView::entity_key(self, id)
    }

    fn find_entity(&self, name: &str, disambig: Option<&str>) -> Option<EntityId> {
        FrozenTaxonomyView::find_entity(self, name, disambig)
    }

    fn find_concept(&self, name: &str) -> Option<ConceptId> {
        FrozenTaxonomyView::find_concept(self, name)
    }

    fn concept_name(&self, id: ConceptId) -> &str {
        FrozenTaxonomyView::concept_name(self, id)
    }

    fn num_entities(&self) -> usize {
        FrozenTaxonomyView::num_entities(self)
    }

    fn num_concepts(&self) -> usize {
        FrozenTaxonomyView::num_concepts(self)
    }

    fn num_is_a(&self) -> usize {
        FrozenTaxonomyView::num_is_a(self)
    }

    fn num_mentions(&self) -> usize {
        FrozenTaxonomyView::num_mentions(self)
    }

    fn men2ent(&self, mention: &str) -> Vec<EntityId> {
        FrozenTaxonomyView::men2ent(self, mention)
    }

    fn concepts_of(&self, e: EntityId) -> impl Iterator<Item = (ConceptId, IsAMeta)> + '_ {
        FrozenTaxonomyView::concepts_of(self, e)
    }

    fn entities_of(&self, c: ConceptId) -> impl Iterator<Item = EntityId> + '_ {
        FrozenTaxonomyView::entities_of(self, c)
    }

    fn entities_with_confidence(&self, c: ConceptId) -> impl Iterator<Item = (EntityId, f32)> + '_ {
        FrozenTaxonomyView::entities_with_confidence(self, c)
    }

    fn entity_edge(&self, e: EntityId, c: ConceptId) -> Option<IsAMeta> {
        FrozenTaxonomyView::entity_edge(self, e, c)
    }

    fn parents_of(&self, c: ConceptId) -> impl Iterator<Item = (ConceptId, IsAMeta)> + '_ {
        FrozenTaxonomyView::parents_of(self, c)
    }

    fn children_of(&self, c: ConceptId) -> impl Iterator<Item = ConceptId> + '_ {
        FrozenTaxonomyView::children_of(self, c)
    }

    fn ancestors(&self, c: ConceptId) -> impl Iterator<Item = ConceptId> + '_ {
        FrozenTaxonomyView::ancestors(self, c)
    }

    fn ancestor_contains(&self, c: ConceptId, sup: ConceptId) -> bool {
        FrozenTaxonomyView::ancestor_contains(self, c, sup)
    }

    fn depth(&self, c: ConceptId) -> usize {
        FrozenTaxonomyView::depth(self, c)
    }

    fn descendants(&self, start: ConceptId) -> Vec<ConceptId> {
        FrozenTaxonomyView::descendants(self, start)
    }
}

/// Boots a snapshot of this representation from a file — the constructor
/// behind `TaxonomyService::reload`'s zero-downtime hot swap.
pub trait BootSnapshot: Sized {
    /// Loads a snapshot file into this representation.
    fn boot_from_file(path: &Path) -> Result<Self, PersistError>;
}

impl BootSnapshot for FrozenTaxonomy {
    /// Accepts any snapshot version, materialising to the owned form.
    fn boot_from_file(path: &Path) -> Result<Self, PersistError> {
        Snapshot::load_from_file(path)?.into_frozen()
    }
}

impl BootSnapshot for FrozenTaxonomyView {
    /// Reads the file once: v3 opens zero-copy over the read buffer, a v1
    /// build store is frozen and encoded as v3 first. Any other version
    /// fails with [`PersistError::BadVersion`].
    fn boot_from_file(path: &Path) -> Result<Self, PersistError> {
        Snapshot::load_from_file(path)?.into_view()
    }
}

/// The serving snapshot: whatever format the file holds, served through
/// the zero-copy view.
pub type AnySnapshot = FrozenTaxonomyView;

/// Iterator sum type for [`crate::overlay::OverlayView`]'s delegated
/// listings.
pub(crate) enum Either<L, R> {
    L(L),
    R(R),
}

impl<T, L: Iterator<Item = T>, R: Iterator<Item = T>> Iterator for Either<L, R> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        match self {
            Either::L(l) => l.next(),
            Either::R(r) => r.next(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist::encode_frozen_v3;
    use crate::store::{Source, TaxonomyStore};

    fn demo_store() -> TaxonomyStore {
        let mut s = TaxonomyStore::new();
        let liu = s.add_entity("刘德华", Some("中国香港男演员"));
        let actor = s.add_concept("演员");
        let person = s.add_concept("人物");
        s.add_concept_is_a(actor, person, IsAMeta::new(Source::SubConcept, 0.8));
        s.add_entity_is_a(liu, actor, IsAMeta::new(Source::Bracket, 0.96));
        s
    }

    fn demo() -> FrozenTaxonomy {
        FrozenTaxonomy::freeze(&demo_store())
    }

    /// Generic query code must produce identical answers over both
    /// `TaxonomyRead` implementations.
    fn describe<T: TaxonomyRead>(t: &T) -> Vec<String> {
        let mut out = Vec::new();
        out.push(format!(
            "{} {} {} {}",
            t.num_entities(),
            t.num_concepts(),
            t.num_is_a(),
            t.num_mentions()
        ));
        for e in t.men2ent("刘德华") {
            out.push(t.entity_key(e));
            for (c, m) in t.concepts_of(e) {
                out.push(format!(
                    "{} {:?} {}",
                    t.concept_name(c),
                    m.source,
                    m.confidence
                ));
                out.push(format!(
                    "anc {:?} depth {}",
                    t.ancestors(c).collect::<Vec<_>>(),
                    t.depth(c)
                ));
            }
        }
        if let Some(c) = t.find_concept("人物") {
            out.push(format!("desc {:?}", t.descendants(c)));
            out.push(format!("hypo {:?}", t.entities_of(c).collect::<Vec<_>>()));
        }
        out
    }

    #[test]
    fn all_representations_answer_identically() {
        let frozen = demo();
        let view = FrozenTaxonomyView::open(encode_frozen_v3(&frozen)).expect("open");
        assert_eq!(describe(&view), describe(&frozen));
    }

    #[test]
    fn any_snapshot_boots_every_version_from_file() {
        let frozen = demo();
        let dir = std::env::temp_dir().join(format!("cnp_read_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmpdir");
        let v1 = dir.join("v1.cnpb");
        let v2 = dir.join("v2.cnpb");
        let v3 = dir.join("v3.cnpb");
        crate::persist::save_to_file(&demo_store(), &v1).expect("save v1");
        std::fs::write(&v2, b"CNPB\x02\x00\x00\x00").expect("save v2 header");
        std::fs::write(&v3, encode_frozen_v3(&frozen)).expect("save v3");
        let a = AnySnapshot::boot_from_file(&v1).expect("boot v1");
        let b = AnySnapshot::boot_from_file(&v3).expect("boot v3");
        let refused = AnySnapshot::boot_from_file(&v2).unwrap_err();
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(describe(&a), describe(&frozen));
        assert_eq!(describe(&b), describe(&frozen));
        assert!(matches!(refused, PersistError::BadVersion(2)), "{refused}");
    }
}
