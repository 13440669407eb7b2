#![forbid(unsafe_code)]
//! # cnp-taxonomy — taxonomy storage engine for CN-Probase
//!
//! CN-Probase is deployed as a service (paper §V): the taxonomy lives in a
//! store answering three public APIs — `men2ent`, `getConcept`, `getEntity`
//! (Table II). This crate is that storage engine:
//!
//! * [`interner`] — string interning with a fast FxHash-style hasher; every
//!   entity name, concept and attribute is a 4-byte [`Symbol`].
//! * [`store`] — the isA graph: disambiguated entities, concepts,
//!   entity→concept and subconcept→concept edges with per-edge
//!   [`Source`] provenance and confidence, plus entity attribute sets
//!   (needed by the incompatible-concept verification).
//! * [`mention`] — the mention index behind `men2ent` (entity names,
//!   bracket-stripped names, aliases).
//! * [`closure`] — transitive hypernym closure with cycle handling and a
//!   memoized ancestor cache.
//! * [`topo`] — SCC condensation of the concept graph: topological order
//!   and exact one-pass depths.
//! * [`frozen`] — [`FrozenTaxonomy`], the immutable CSR-packed serving
//!   snapshot: freeze a finished store once, then answer every Table II
//!   query lock-free from flat arrays and a precomputed ancestor closure.
//!   (The public serving protocol — `TaxonomyService`, the typed `Query`
//!   enum and the `ProbaseApi` compatibility wrapper — lives in the
//!   `cnp_serve` crate, layered on this snapshot.)
//! * [`query`] — higher-level queries: concept depth, lowest common
//!   ancestors, siblings, Wu–Palmer similarity, conceptualisation.
//! * [`persist`] — compact binary snapshots in two formats: v1 persists
//!   the mutable build store (load, then freeze), v3 is the sectioned,
//!   checksummed, delta/varint-compressed serving layout the zero-copy
//!   view boots from; [`persist::Snapshot`] dispatches on the version
//!   header.
//! * [`varint`] — the LEB128/zigzag primitives of the v3 codec.
//! * [`view`] — [`FrozenTaxonomyView`], the borrowed serving snapshot:
//!   open a v3 buffer with in-place validation and answer every Table II
//!   query straight off the bytes, zero per-section allocation on boot.
//! * [`read`] — [`TaxonomyRead`], the query trait the serving layer is
//!   generic over, plus [`AnySnapshot`], the serving representation (the
//!   view) that boots from either format.
//! * [`stats`] — the size metrics reported in Table I.

pub mod closure;
pub mod compact;
pub mod frozen;
pub mod hash;
pub mod interner;
pub mod mention;
pub mod overlay;
pub mod persist;
pub mod query;
pub mod read;
pub mod stats;
pub mod store;
pub mod topo;
pub mod varint;
pub mod view;

// `FrozenTaxonomyView::open` takes a `Bytes` buffer; re-export the type so
// callers don't need their own dependency on the buffer crate.
pub use bytes::Bytes;
pub use frozen::FrozenTaxonomy;
pub use interner::{Interner, Symbol};
pub use overlay::{DeltaOverlay, IngestDelta, OverlayView};
pub use persist::{PersistError, Snapshot};
pub use read::{AnySnapshot, BootSnapshot, TaxonomyRead};
pub use stats::TaxonomyStats;
pub use store::{ConceptId, EntityId, IsAMeta, Source, TaxonomyStore};
pub use view::FrozenTaxonomyView;
