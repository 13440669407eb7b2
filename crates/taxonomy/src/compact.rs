//! Compaction: folding base + delta overlays back into a fresh base.
//!
//! The LSM-flavoured write path (`crate::overlay`) accumulates small
//! immutable deltas on top of an immutable base; compaction is the
//! background step that re-materialises the merged content as a plain
//! snapshot, resetting the overlay depth to zero. The correctness bar is
//! the determinism contract (PR 3): a compacted base must be
//! **byte-identical** to a from-scratch freeze of the same logical
//! content, so that `snapshot(build ∪ delta)` and
//! `compact(snapshot(build) + delta)` cannot drift apart —
//! `tests/determinism.rs` asserts exactly this.
//!
//! The pivot is `thaw`: a [`FrozenTaxonomy`] reconstructed into a
//! [`TaxonomyStore`] *verbatim* — raw adjacency rows copied, the interner
//! cloned — so that replaying an overlay's op log onto the thawed store
//! takes the same branches (same dedup hits, same intern order, same row
//! positions) as replaying it onto the original build store. Only the
//! hyponym rows (`concept_entities`) come back in ranked rather than
//! insertion order, which is sound because the freeze re-ranks them under
//! a total order (descending confidence, entity id tie-break): that table
//! is the one adjacency whose build-store row order is not observable in
//! a frozen snapshot.

use crate::frozen::FrozenTaxonomy;
use crate::overlay::{DeltaOverlay, IngestDelta, OverlayView};
use crate::persist::{self, PersistError};
use crate::read::TaxonomyRead;
use crate::store::{RawStoreParts, TaxonomyStore};
use crate::view::FrozenTaxonomyView;
use cnp_runtime::Runtime;

/// Reconstructs the build store a snapshot was frozen from, up to the one
/// non-observable row order described in the module docs. `O(size)`.
pub(crate) fn thaw(f: &FrozenTaxonomy) -> TaxonomyStore {
    let n_e = f.entities.len();
    let n_c = f.concepts.len();
    TaxonomyStore::from_raw_parts(RawStoreParts {
        interner: f.interner.clone(),
        entities: f.entities.clone(),
        concepts: f.concepts.clone(),
        entity_concepts: (0..n_e)
            .map(|i| f.entity_concepts.row(i).to_vec())
            .collect(),
        concept_entities: (0..n_c)
            .map(|i| f.concept_entities.row(i).to_vec())
            .collect(),
        concept_parents: (0..n_c)
            .map(|i| f.concept_parents.row(i).to_vec())
            .collect(),
        concept_children: (0..n_c)
            .map(|i| f.concept_children.row(i).to_vec())
            .collect(),
        entity_attrs: (0..n_e).map(|i| f.entity_attrs.row(i).to_vec()).collect(),
        entity_aliases: (0..n_e).map(|i| f.entity_aliases.row(i).to_vec()).collect(),
    })
}

/// Materialises a serving snapshot back into a mutable build store, the
/// first half of a compaction (or of a write to an overlay-less backend).
pub(crate) trait ToStore {
    fn to_store(&self) -> Result<TaxonomyStore, PersistError>;
}

/// Rebuilds `Self`'s representation from a freshly frozen taxonomy, the
/// last half of a compaction.
pub(crate) trait FromFrozen: Sized {
    fn from_frozen(f: FrozenTaxonomy) -> Result<Self, PersistError>;
}

impl ToStore for FrozenTaxonomy {
    fn to_store(&self) -> Result<TaxonomyStore, PersistError> {
        Ok(thaw(self))
    }
}

impl FromFrozen for FrozenTaxonomy {
    fn from_frozen(f: FrozenTaxonomy) -> Result<Self, PersistError> {
        Ok(f)
    }
}

impl ToStore for FrozenTaxonomyView {
    fn to_store(&self) -> Result<TaxonomyStore, PersistError> {
        Ok(thaw(&self.to_frozen()?))
    }
}

impl FromFrozen for FrozenTaxonomyView {
    fn from_frozen(f: FrozenTaxonomy) -> Result<Self, PersistError> {
        FrozenTaxonomyView::open(persist::encode_frozen_v3(&f))
    }
}

/// Writes to a plain (overlay-less) snapshot materialise immediately:
/// thaw, replay the delta, re-freeze in the same representation.
fn materialize<T: ToStore + FromFrozen>(
    snap: &T,
    delta: &DeltaOverlay,
    rt: &Runtime,
) -> Result<T, PersistError> {
    let mut store = snap.to_store()?;
    delta.apply_to_store(&mut store);
    T::from_frozen(FrozenTaxonomy::freeze_with(&store, rt))
}

impl IngestDelta for FrozenTaxonomy {
    fn ingest_delta(&self, delta: &DeltaOverlay) -> Result<Self, PersistError> {
        materialize(self, delta, &Runtime::default())
    }

    fn compacted(&self, _rt: &Runtime) -> Result<Self, PersistError> {
        // A plain snapshot *is* a fully compacted base.
        Ok(self.clone())
    }
}

impl IngestDelta for FrozenTaxonomyView {
    fn ingest_delta(&self, delta: &DeltaOverlay) -> Result<Self, PersistError> {
        materialize(self, delta, &Runtime::default())
    }

    fn compacted(&self, _rt: &Runtime) -> Result<Self, PersistError> {
        FrozenTaxonomyView::open(self.bytes_handle())
    }
}

impl<B> IngestDelta for OverlayView<B>
where
    B: TaxonomyRead + ToStore + FromFrozen + Send + Sync,
{
    /// Overlay apply: cheap, no materialisation. The base stays shared.
    fn ingest_delta(&self, delta: &DeltaOverlay) -> Result<Self, PersistError> {
        Ok(self.apply(delta))
    }

    fn overlay_depth(&self) -> usize {
        OverlayView::overlay_depth(self)
    }

    /// Folds base + accumulated deltas into a fresh base of the same
    /// representation: thaw the base, replay the full op log (the same
    /// log, in the same order, the overlay folded), re-freeze on `rt`.
    fn compacted(&self, rt: &Runtime) -> Result<Self, PersistError> {
        if OverlayView::overlay_depth(self) == 0 {
            return Ok(self.clone());
        }
        let mut store = self.base().to_store()?;
        let log = DeltaOverlay {
            ops: self.log_ops().to_vec(),
        };
        log.apply_to_store(&mut store);
        let frozen = FrozenTaxonomy::freeze_with(&store, rt);
        Ok(OverlayView::new(B::from_frozen(frozen)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{IsAMeta, Source};

    fn build_store() -> TaxonomyStore {
        let mut s = TaxonomyStore::new();
        let liu = s.add_entity("刘德华", Some("中国香港男演员"));
        let actor = s.add_concept("演员");
        let person = s.add_concept("人物");
        s.add_concept_is_a(actor, person, IsAMeta::new(Source::SubConcept, 0.8));
        s.add_entity_is_a(liu, actor, IsAMeta::new(Source::Bracket, 0.96));
        s.add_alias(liu, "华仔");
        s.add_attribute(liu, "出生日期");
        let zhang = s.add_entity("张学友", None);
        let singer = s.add_concept("歌手");
        s.add_concept_is_a(singer, person, IsAMeta::new(Source::SubConcept, 0.85));
        s.add_entity_is_a(zhang, singer, IsAMeta::new(Source::Tag, 0.9));
        s.add_entity_is_a(liu, singer, IsAMeta::new(Source::Infobox, 0.7));
        s
    }

    fn sample_delta() -> DeltaOverlay {
        let mut d = DeltaOverlay::new();
        d.add_entity("周杰伦", None);
        d.add_alias("周杰伦", None, "Jay Chou");
        d.upsert_entity_is_a("周杰伦", None, "歌手", IsAMeta::new(Source::Tag, 0.97));
        d.upsert_entity_is_a(
            "刘德华",
            Some("中国香港男演员"),
            "歌手",
            IsAMeta::new(Source::Tag, 0.5),
        );
        d.upsert_concept_is_a("歌手", "艺人", IsAMeta::new(Source::SubConcept, 0.75));
        d.retract_entity_is_a("张学友", None, "歌手");
        d
    }

    #[test]
    fn thaw_refreeze_is_byte_identical() {
        let store = build_store();
        let frozen = FrozenTaxonomy::freeze(&store);
        let refrozen = FrozenTaxonomy::freeze(&thaw(&frozen));
        assert_eq!(
            persist::encode_frozen_v3(&frozen),
            persist::encode_frozen_v3(&refrozen)
        );
    }

    #[test]
    fn replay_on_thawed_equals_replay_on_original() {
        let mut original = build_store();
        let frozen = FrozenTaxonomy::freeze(&original);
        let delta = sample_delta();

        let mut thawed = thaw(&frozen);
        delta.apply_to_store(&mut thawed);
        delta.apply_to_store(&mut original);

        assert_eq!(
            persist::encode_frozen_v3(&FrozenTaxonomy::freeze(&original)),
            persist::encode_frozen_v3(&FrozenTaxonomy::freeze(&thawed))
        );
    }

    #[test]
    fn overlay_compaction_is_byte_identical_to_fresh_union() {
        let mut union_store = build_store();
        let delta = sample_delta();
        let rt = Runtime::default();

        let view = OverlayView::new(FrozenTaxonomy::freeze(&build_store()));
        let ingested = view.ingest_delta(&delta).expect("overlay apply");
        assert_eq!(IngestDelta::overlay_depth(&ingested), 1);
        let compacted = ingested.compacted(&rt).expect("compaction");
        assert_eq!(IngestDelta::overlay_depth(&compacted), 0);

        delta.apply_to_store(&mut union_store);
        let fresh = FrozenTaxonomy::freeze(&union_store);
        assert_eq!(
            persist::encode_frozen_v3(compacted.base()),
            persist::encode_frozen_v3(&fresh)
        );
    }

    #[test]
    fn plain_snapshot_ingest_materialises() {
        let frozen = FrozenTaxonomy::freeze(&build_store());
        let delta = sample_delta();
        let next = frozen.ingest_delta(&delta).expect("materialising ingest");
        assert_eq!(IngestDelta::overlay_depth(&next), 0);
        let jay = next.find_entity("周杰伦", None).expect("ingested entity");
        assert_eq!(TaxonomyRead::men2ent(&next, "Jay Chou"), vec![jay]);
    }

    #[test]
    fn view_backend_round_trips_through_compaction() {
        let frozen = FrozenTaxonomy::freeze(&build_store());
        let view_snap =
            FrozenTaxonomyView::open(persist::encode_frozen_v3(&frozen)).expect("open v3 snapshot");
        let overlay = OverlayView::new(view_snap);
        let compacted = overlay
            .apply(&sample_delta())
            .compacted(&Runtime::default())
            .expect("view compaction");
        assert!(compacted.base().find_entity("周杰伦", None).is_some());
    }
}
