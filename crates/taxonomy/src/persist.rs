//! Compact binary snapshots of the taxonomy, in two formats.
//!
//! A production taxonomy service loads its state from a snapshot at boot.
//! Both formats share the `CNPB` magic and a little-endian codec over
//! [`bytes`]; they differ in *what* they persist:
//!
//! * **v1** is the build format. It persists the mutable build-time
//!   [`TaxonomyStore`], so booting the serving path from it costs a full
//!   [`FrozenTaxonomy::freeze`] (Tarjan SCC condensation, depth DP,
//!   ancestor-closure materialisation) before the first query.
//! * **v3** is the serving format. It persists the frozen snapshot for
//!   [`crate::view::FrozenTaxonomyView`]: queries are answered by
//!   borrowing directly out of the one loaded buffer, so boot allocates
//!   nothing per section and validation reduces to a single
//!   bounds/invariant sweep over the raw bytes. CSR rows are
//!   delta+varint-encoded ([`crate::varint`]) and the ancestor closure
//!   uses a succinct run/bitset encoding decoded on the query path.
//!
//! Version 2 was an owned, uncompressed serving format; it is retired and
//! refused with [`PersistError::BadVersion`].
//!
//! v3 layout:
//!
//! ```text
//! magic "CNPB" | version u32 = 3
//!   | section*          section = tag [u8;4] | byte-length u64 | payload
//!   | "CKSM" section    FNV-1a of every byte before the CKSM tag
//! ```
//!
//! Readers skip sections with unknown tags, so future writers can add
//! sections (before `CKSM`) without breaking old readers. Opening
//! validates the magic and version, the framing, every string, symbol and
//! id bound, the row invariants and finally the content checksum — a
//! truncated or bit-flipped snapshot fails loudly instead of producing a
//! broken service. Pre-allocations are capped by the remaining buffer
//! length, so a hostile length field cannot trigger an OOM.
//!
//! [`Snapshot::load`] is the single entry point that dispatches on the
//! version word: v1 loads a store (freeze before serving), v3 opens the
//! borrowed view.

use crate::frozen::{Csr, FrozenTaxonomy};
use crate::hash::{FxHashMap, FxHashSet};
use crate::interner::{Interner, Symbol};
use crate::overlay::{DeltaOp, DeltaOverlay};
use crate::store::{ConceptId, EntityId, EntityRecord, IsAMeta, Source, TaxonomyStore};
use crate::varint::{put_varint, varint_len, zigzag};
use crate::view::FrozenTaxonomyView;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use cnp_runtime::stable_hash;
use std::fmt;
use std::path::Path;

pub(crate) const MAGIC: &[u8; 4] = b"CNPB";
/// v1: the mutable [`TaxonomyStore`] (load, then freeze).
pub const VERSION_STORE: u32 = 1;
/// v3: the zero-copy [`FrozenTaxonomyView`] snapshot (borrow-and-go).
pub const VERSION_VIEW: u32 = 3;

// ----- v3 section tags ----------------------------------------------------

pub(crate) const SEC_INTERNER: [u8; 4] = *b"INTR";
pub(crate) const SEC_ENTITIES: [u8; 4] = *b"ENTS";
pub(crate) const SEC_CONCEPTS: [u8; 4] = *b"CNPT";
pub(crate) const SEC_ENTITY_CONCEPTS: [u8; 4] = *b"ECON";
pub(crate) const SEC_CONCEPT_ENTITIES: [u8; 4] = *b"CENT";
pub(crate) const SEC_CONCEPT_PARENTS: [u8; 4] = *b"CPAR";
pub(crate) const SEC_CONCEPT_CHILDREN: [u8; 4] = *b"CCHD";
pub(crate) const SEC_ENTITY_ATTRS: [u8; 4] = *b"EATT";
pub(crate) const SEC_ENTITY_ALIASES: [u8; 4] = *b"EALS";
pub(crate) const SEC_TOPO: [u8; 4] = *b"TOPO";
pub(crate) const SEC_DEPTH: [u8; 4] = *b"DPTH";
pub(crate) const SEC_MENTIONS: [u8; 4] = *b"MENT";
/// Interner symbols sorted by string bytes (binary-search index).
pub(crate) const SEC_STR_SORT: [u8; 4] = *b"SSRT";
/// Concept ids sorted by name symbol (binary-search index).
pub(crate) const SEC_CONCEPT_SORT: [u8; 4] = *b"CSRT";
/// Succinct ancestor closure (run/bitset rows).
pub(crate) const SEC_ANCESTOR_SUCC: [u8; 4] = *b"ANCC";
/// The deduplicated `(source, confidence)` dictionary every meta row
/// indexes into — real corpora carry a handful of distinct edge
/// provenances, so one varint per edge replaces five raw bytes.
pub(crate) const SEC_META_DICT: [u8; 4] = *b"MDCT";
/// Mention-key hash index — `(stable_hash32, symbol)` pairs for every
/// non-empty mention row, sorted by hash. `men2ent` resolves a mention
/// with one hash plus a binary search over fixed-width rows instead of
/// `log n` string comparisons through the interner.
pub(crate) const SEC_MENTION_HASH: [u8; 4] = *b"MHSH";
pub(crate) const SEC_CHECKSUM: [u8; 4] = *b"CKSM";

/// Rows per directory entry in a v3 varint-CSR section: row `i` is reached
/// by one directory jump plus at most `VCSR_BLOCK - 1` length skips.
///
/// 8 keeps the skip loop short enough that random row access (the
/// `getEntity` hyponym walk, `entity_edge` confidence probes) stays within
/// ~2x of the owned CSR, while the directory still costs only half a byte
/// per row.
pub(crate) const VCSR_BLOCK: usize = 8;

/// v3 succinct-closure row flavors: strictly ascending (gap, run-length)
/// pairs, or a base id plus a bitmap spanning the row.
pub(crate) const ANCC_RANGES: u8 = 0;
pub(crate) const ANCC_BITSET: u8 = 1;

/// Errors produced while decoding a snapshot.
#[derive(Debug)]
pub enum PersistError {
    /// The snapshot does not start with the `CNPB` magic.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u32),
    /// The buffer ended before the structure was complete.
    Truncated(&'static str),
    /// A string was not valid UTF-8.
    BadUtf8,
    /// An id/symbol referenced an out-of-range table index, or a structural
    /// invariant (CSR offsets, closure/depth consistency, …) failed.
    BadIndex(&'static str),
    /// The content checksum of a v3 snapshot or a delta sidecar did not
    /// match the payload.
    BadChecksum,
    /// A required v3 section was absent.
    MissingSection(&'static str),
    /// Underlying I/O error.
    Io(std::io::Error),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::BadMagic => write!(f, "snapshot magic mismatch"),
            PersistError::BadVersion(v) => write!(f, "unsupported snapshot version {v}"),
            PersistError::Truncated(what) => write!(f, "snapshot truncated while reading {what}"),
            PersistError::BadUtf8 => write!(f, "snapshot contains invalid UTF-8"),
            PersistError::BadIndex(what) => write!(f, "snapshot contains out-of-range {what}"),
            PersistError::BadChecksum => write!(f, "snapshot checksum mismatch"),
            PersistError::MissingSection(tag) => write!(f, "snapshot is missing section {tag}"),
            PersistError::Io(e) => write!(f, "snapshot I/O error: {e}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

// ----- version dispatch ---------------------------------------------------

/// Reads the magic + version header without decoding the body.
pub fn peek_version(buf: &[u8]) -> Result<u32, PersistError> {
    if buf.len() < 8 {
        return Err(PersistError::Truncated("header"));
    }
    if &buf[..4] != MAGIC {
        return Err(PersistError::BadMagic);
    }
    Ok(u32::from_le_bytes([buf[4], buf[5], buf[6], buf[7]]))
}

/// A decoded snapshot of either format, from the one [`Snapshot::load`]
/// entry point that dispatches on the version header.
#[derive(Debug)]
pub enum Snapshot {
    /// A v1 snapshot: the mutable build store. Freeze before serving.
    Store(Box<TaxonomyStore>),
    /// A v3 snapshot: the borrowed zero-copy view, ready to serve.
    View(Box<FrozenTaxonomyView>),
}

impl Snapshot {
    /// Decodes a v1 or v3 snapshot; any other version fails with
    /// [`PersistError::BadVersion`].
    ///
    /// A v3 payload is copied once into the view's backing buffer (the
    /// slice may not outlive the snapshot); [`Snapshot::load_from_file`]
    /// avoids even that copy by handing the read buffer to the view.
    pub fn load(bytes: &[u8]) -> Result<Self, PersistError> {
        match peek_version(bytes)? {
            VERSION_STORE => Ok(Snapshot::Store(Box::new(decode(bytes)?))),
            VERSION_VIEW => Ok(Snapshot::View(Box::new(FrozenTaxonomyView::open(
                Bytes::copy_from_slice(bytes),
            )?))),
            v => Err(PersistError::BadVersion(v)),
        }
    }

    /// Loads a snapshot from `path` with one read. A v3 file boots
    /// zero-copy: the read buffer *is* the view's backing storage.
    pub fn load_from_file(path: &Path) -> Result<Self, PersistError> {
        let bytes = std::fs::read(path)?;
        if peek_version(&bytes)? == VERSION_VIEW {
            let view = FrozenTaxonomyView::open(Bytes::from(bytes))?;
            return Ok(Snapshot::View(Box::new(view)));
        }
        Self::load(&bytes)
    }

    /// Format version of the decoded snapshot.
    pub fn version(&self) -> u32 {
        match self {
            Snapshot::Store(_) => VERSION_STORE,
            Snapshot::View(_) => VERSION_VIEW,
        }
    }

    /// The owned serving snapshot: a v1 store pays the freeze (Tarjan +
    /// depth DP + closure) here, and a v3 view is fully decoded and
    /// deep-validated (a v3 boot defers the semantic cross-checks to this
    /// materialisation).
    pub fn into_frozen(self) -> Result<FrozenTaxonomy, PersistError> {
        match self {
            Snapshot::Store(store) => Ok(FrozenTaxonomy::freeze(&store)),
            Snapshot::View(view) => view.to_frozen(),
        }
    }

    /// The zero-copy serving view: a v3 view is returned as-is, a v1 store
    /// is frozen and encoded as v3 first.
    pub fn into_view(self) -> Result<FrozenTaxonomyView, PersistError> {
        match self {
            Snapshot::Store(store) => {
                FrozenTaxonomyView::open(encode_frozen_v3(&FrozenTaxonomy::freeze(&store)))
            }
            Snapshot::View(view) => Ok(*view),
        }
    }
}

// ----- v1: the mutable store ----------------------------------------------

/// Serializes the store to bytes (format v1).
pub fn encode(store: &TaxonomyStore) -> Bytes {
    let mut buf = BytesMut::with_capacity(1 << 16);
    buf.put_slice(MAGIC);
    buf.put_u32_le(VERSION_STORE);

    // Interner strings, in symbol order (Symbol(0) == "").
    let strings: Vec<&str> = store.interner().iter().map(|(_, s)| s).collect();
    buf.put_u32_le(strings.len() as u32);
    for s in &strings {
        put_str(&mut buf, s);
    }

    // Entities.
    buf.put_u32_le(store.num_entities() as u32);
    for id in store.entity_ids() {
        let rec = store.entity(id);
        buf.put_u32_le(rec.name.0);
        buf.put_u32_le(rec.disambig.0);
    }

    // Concepts (by name symbol).
    buf.put_u32_le(store.num_concepts() as u32);
    for id in store.concept_ids() {
        let name = store.concept_name(id);
        let sym = store.interner().get(name).expect("concept name interned");
        buf.put_u32_le(sym.0);
    }

    // Per-entity: concept edges, attributes, aliases.
    for id in store.entity_ids() {
        let edges = store.concepts_of(id);
        buf.put_u32_le(edges.len() as u32);
        for &(c, meta) in edges {
            buf.put_u32_le(c.0);
            buf.put_u8(meta.source.to_u8());
            buf.put_f32_le(meta.confidence);
        }
        let attrs = store.attributes_of(id);
        buf.put_u32_le(attrs.len() as u32);
        for a in attrs {
            buf.put_u32_le(a.0);
        }
        let aliases = store.aliases_of(id);
        buf.put_u32_le(aliases.len() as u32);
        for a in aliases {
            buf.put_u32_le(a.0);
        }
    }

    // Per-concept parent edges.
    for id in store.concept_ids() {
        let parents = store.parents_of(id);
        buf.put_u32_le(parents.len() as u32);
        for &(p, meta) in parents {
            buf.put_u32_le(p.0);
            buf.put_u8(meta.source.to_u8());
            buf.put_f32_le(meta.confidence);
        }
    }

    buf.freeze()
}

/// Deserializes a store from bytes (format v1).
///
/// Every count-prefixed pre-allocation is clamped by the bytes actually
/// remaining in the buffer, so a corrupt count field costs at most one
/// small allocation before the truncation is detected — never an OOM.
pub fn decode(mut buf: &[u8]) -> Result<TaxonomyStore, PersistError> {
    if buf.remaining() < 8 {
        return Err(PersistError::Truncated("header"));
    }
    let mut magic = [0u8; 4];
    buf.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(PersistError::BadMagic);
    }
    let version = buf.get_u32_le();
    if version != VERSION_STORE {
        return Err(PersistError::BadVersion(version));
    }

    let n_strings = get_u32(&mut buf, "string count")? as usize;
    // Each string costs at least its 4-byte length prefix.
    let mut strings = Vec::with_capacity(n_strings.min(buf.remaining() / 4));
    for _ in 0..n_strings {
        strings.push(get_str(&mut buf)?);
    }
    let resolve = |sym: u32, what: &'static str| -> Result<&str, PersistError> {
        strings
            .get(sym as usize)
            .map(|s| s.as_str())
            .ok_or(PersistError::BadIndex(what))
    };

    let mut store = TaxonomyStore::new();

    let n_entities = get_u32(&mut buf, "entity count")? as usize;
    // Each entity record is 8 bytes on the wire.
    let mut entity_ids = Vec::with_capacity(n_entities.min(buf.remaining() / 8));
    for _ in 0..n_entities {
        let name = get_u32(&mut buf, "entity name")?;
        let disambig = get_u32(&mut buf, "entity disambig")?;
        let name_s = resolve(name, "entity name symbol")?;
        let dis_s = resolve(disambig, "entity disambig symbol")?;
        let id = store.add_entity(name_s, if dis_s.is_empty() { None } else { Some(dis_s) });
        entity_ids.push(id);
    }

    let n_concepts = get_u32(&mut buf, "concept count")? as usize;
    // Each concept is a 4-byte symbol on the wire.
    let mut concept_ids = Vec::with_capacity(n_concepts.min(buf.remaining() / 4));
    for _ in 0..n_concepts {
        let sym = get_u32(&mut buf, "concept name")?;
        let name = resolve(sym, "concept name symbol")?;
        concept_ids.push(store.add_concept(name));
    }

    for &e in &entity_ids {
        let n_edges = get_u32(&mut buf, "entity edge count")? as usize;
        for _ in 0..n_edges {
            let c = get_u32(&mut buf, "edge concept")? as usize;
            let src = get_u8(&mut buf, "edge source")?;
            let conf = get_f32(&mut buf, "edge confidence")?;
            let &cid = concept_ids
                .get(c)
                .ok_or(PersistError::BadIndex("edge concept id"))?;
            let source = Source::from_u8(src).ok_or(PersistError::BadIndex("edge source tag"))?;
            store.add_entity_is_a(e, cid, IsAMeta::new(source, conf));
        }
        let n_attrs = get_u32(&mut buf, "attr count")? as usize;
        for _ in 0..n_attrs {
            let a = get_u32(&mut buf, "attr symbol")?;
            let s = resolve(a, "attr symbol")?.to_string();
            store.add_attribute(e, &s);
        }
        let n_aliases = get_u32(&mut buf, "alias count")? as usize;
        for _ in 0..n_aliases {
            let a = get_u32(&mut buf, "alias symbol")?;
            let s = resolve(a, "alias symbol")?.to_string();
            store.add_alias(e, &s);
        }
    }

    for &c in &concept_ids {
        let n_parents = get_u32(&mut buf, "parent count")? as usize;
        for _ in 0..n_parents {
            let p = get_u32(&mut buf, "parent concept")? as usize;
            let src = get_u8(&mut buf, "parent source")?;
            let conf = get_f32(&mut buf, "parent confidence")?;
            let &pid = concept_ids
                .get(p)
                .ok_or(PersistError::BadIndex("parent concept id"))?;
            let source = Source::from_u8(src).ok_or(PersistError::BadIndex("parent source tag"))?;
            store.add_concept_is_a(c, pid, IsAMeta::new(source, conf));
        }
    }

    Ok(store)
}

/// Writes a v1 store snapshot to `path`.
pub fn save_to_file(store: &TaxonomyStore, path: &Path) -> Result<(), PersistError> {
    std::fs::write(path, encode(store))?;
    Ok(())
}

/// Loads a v1 store snapshot from `path`.
pub fn load_from_file(path: &Path) -> Result<TaxonomyStore, PersistError> {
    let bytes = std::fs::read(path)?;
    decode(&bytes)
}

/// Every section of a decoded snapshot, before cross-section validation:
/// the hand-off from [`FrozenTaxonomyView::to_frozen`], which decodes its
/// borrowed sections into this shape and funnels them through
/// [`validate_frozen`].
pub(crate) struct RawSections {
    pub(crate) interner: Interner,
    pub(crate) entities: Vec<EntityRecord>,
    pub(crate) concepts: Vec<Symbol>,
    pub(crate) entity_concepts: Csr<(ConceptId, IsAMeta)>,
    pub(crate) concept_entities: Csr<EntityId>,
    pub(crate) concept_parents: Csr<(ConceptId, IsAMeta)>,
    pub(crate) concept_children: Csr<ConceptId>,
    pub(crate) entity_attrs: Csr<Symbol>,
    pub(crate) entity_aliases: Csr<Symbol>,
    pub(crate) ancestors: Csr<ConceptId>,
    pub(crate) topo: Vec<ConceptId>,
    pub(crate) depth: Vec<u32>,
    pub(crate) by_mention: Csr<EntityId>,
}

/// Cross-section validation + derived-map rebuild. Everything the freeze
/// computes that is *not* on the wire (the three hash maps) is rebuilt
/// here; everything that is on the wire is checked for mutual consistency
/// so a decoded snapshot upholds the same invariants a freshly frozen one
/// does.
pub(crate) fn validate_frozen(raw: RawSections) -> Result<FrozenTaxonomy, PersistError> {
    let RawSections {
        interner,
        entities,
        concepts,
        entity_concepts,
        concept_entities,
        concept_parents,
        concept_children,
        entity_attrs,
        entity_aliases,
        ancestors,
        topo,
        depth,
        by_mention,
    } = raw;

    let n_strings = interner.len();
    let n_entities = entities.len();
    let n_concepts = concepts.len();
    let sym_ok = |s: Symbol| s.index() < n_strings;

    // Entity and concept tables: symbol bounds + unique keys.
    let mut entity_by_key = FxHashMap::default();
    for (i, rec) in entities.iter().enumerate() {
        if !sym_ok(rec.name) || !sym_ok(rec.disambig) {
            return Err(PersistError::BadIndex("entity symbol"));
        }
        if entity_by_key
            .insert((rec.name, rec.disambig), EntityId(i as u32))
            .is_some()
        {
            return Err(PersistError::BadIndex("duplicate entity key"));
        }
    }
    let mut concept_by_sym = FxHashMap::default();
    for (i, &sym) in concepts.iter().enumerate() {
        if !sym_ok(sym) {
            return Err(PersistError::BadIndex("concept symbol"));
        }
        if concept_by_sym.insert(sym, ConceptId(i as u32)).is_some() {
            return Err(PersistError::BadIndex("duplicate concept symbol"));
        }
    }

    // CSR shape: row counts must match their owning tables.
    let rows = [
        (
            entity_concepts.num_rows(),
            n_entities,
            "entity-concept rows",
        ),
        (entity_attrs.num_rows(), n_entities, "entity-attribute rows"),
        (entity_aliases.num_rows(), n_entities, "entity-alias rows"),
        (
            concept_entities.num_rows(),
            n_concepts,
            "concept-entity rows",
        ),
        (
            concept_parents.num_rows(),
            n_concepts,
            "concept-parent rows",
        ),
        (
            concept_children.num_rows(),
            n_concepts,
            "concept-child rows",
        ),
        (ancestors.num_rows(), n_concepts, "ancestor rows"),
        (by_mention.num_rows(), n_strings, "mention rows"),
    ];
    for (got, want, what) in rows {
        if got != want {
            return Err(PersistError::BadIndex(what));
        }
    }
    if topo.len() != n_concepts || depth.len() != n_concepts {
        return Err(PersistError::BadIndex("topo/depth length"));
    }

    // Column-id bounds per relation.
    let concept_ok = |c: ConceptId| c.index() < n_concepts;
    let entity_ok = |e: EntityId| e.index() < n_entities;
    if !entity_concepts.data().iter().all(|&(c, _)| concept_ok(c)) {
        return Err(PersistError::BadIndex("entity-concept column"));
    }
    if !concept_entities.data().iter().all(|&e| entity_ok(e)) {
        return Err(PersistError::BadIndex("concept-entity column"));
    }
    if !concept_parents.data().iter().all(|&(c, _)| concept_ok(c)) {
        return Err(PersistError::BadIndex("concept-parent column"));
    }
    if !concept_children.data().iter().all(|&c| concept_ok(c)) {
        return Err(PersistError::BadIndex("concept-child column"));
    }
    if !entity_attrs.data().iter().all(|&s| sym_ok(s)) {
        return Err(PersistError::BadIndex("entity-attribute column"));
    }
    if !entity_aliases.data().iter().all(|&s| sym_ok(s)) {
        return Err(PersistError::BadIndex("entity-alias column"));
    }
    if !ancestors.data().iter().all(|&c| concept_ok(c)) {
        return Err(PersistError::BadIndex("ancestor column"));
    }
    if !by_mention.data().iter().all(|&e| entity_ok(e)) {
        return Err(PersistError::BadIndex("mention column"));
    }

    // Topological order must be a permutation of the concepts.
    // cnp-lint: allow(capped-decode) reason="n_concepts is the length of the already-capped decoded concept table, not a raw wire value"
    let mut seen = vec![false; n_concepts];
    for &c in &topo {
        if !concept_ok(c) || std::mem::replace(&mut seen[c.index()], true) {
            return Err(PersistError::BadIndex("topo permutation"));
        }
    }

    // Relation symmetry: parents ↔ children and entity-edges ↔ entity
    // rows must describe the same edge sets (no edge lost or invented).
    let mut child_edges = FxHashSet::default();
    for p in 0..n_concepts {
        for &c in concept_children.row(p) {
            if !child_edges.insert((c, ConceptId(p as u32))) {
                return Err(PersistError::BadIndex("duplicate child edge"));
            }
        }
    }
    let mut n_parent_edges = 0usize;
    for c in 0..n_concepts {
        for &(p, _) in concept_parents.row(c) {
            n_parent_edges += 1;
            if p.index() == c {
                return Err(PersistError::BadIndex("self parent edge"));
            }
            if !child_edges.contains(&(ConceptId(c as u32), p)) {
                return Err(PersistError::BadIndex("parent edge without child edge"));
            }
        }
    }
    if n_parent_edges != child_edges.len() {
        return Err(PersistError::BadIndex("parent/child edge count"));
    }
    let mut entity_edges = FxHashSet::default();
    for c in 0..n_concepts {
        for &e in concept_entities.row(c) {
            if !entity_edges.insert((e, ConceptId(c as u32))) {
                return Err(PersistError::BadIndex("duplicate concept-entity edge"));
            }
        }
    }
    let mut n_entity_edges = 0usize;
    for e in 0..n_entities {
        for &(c, _) in entity_concepts.row(e) {
            n_entity_edges += 1;
            if !entity_edges.contains(&(EntityId(e as u32), c)) {
                return Err(PersistError::BadIndex("entity edge without concept edge"));
            }
        }
    }
    if n_entity_edges != entity_edges.len() {
        return Err(PersistError::BadIndex("entity/concept edge count"));
    }

    // Closure & depth consistency with the parent edges: ancestor rows are
    // strictly sorted, never contain the concept itself, and contain every
    // direct parent; a parent's depth never exceeds its child's, and a
    // parentless concept sits at depth 0.
    for c in 0..n_concepts {
        let row = ancestors.row(c);
        if !row.windows(2).all(|w| w[0] < w[1]) {
            return Err(PersistError::BadIndex("unsorted ancestor row"));
        }
        if row.binary_search(&ConceptId(c as u32)).is_ok() {
            return Err(PersistError::BadIndex("self ancestor"));
        }
        let parents = concept_parents.row(c);
        for &(p, _) in parents {
            if row.binary_search(&p).is_err() {
                return Err(PersistError::BadIndex("parent missing from closure"));
            }
            if depth[p.index()] > depth[c] {
                return Err(PersistError::BadIndex("depth inversion"));
            }
        }
        if parents.is_empty() && depth[c] != 0 {
            return Err(PersistError::BadIndex("parentless depth"));
        }
    }

    // Mention rows: strictly sorted, and every listed sense actually
    // carries the mention symbol as its name or one of its aliases.
    for sym in 0..n_strings {
        let row = by_mention.row(sym);
        if !row.windows(2).all(|w| w[0] < w[1]) {
            return Err(PersistError::BadIndex("unsorted mention row"));
        }
        let sym = Symbol(sym as u32);
        for &e in row {
            let rec = entities[e.index()];
            if rec.name != sym && !entity_aliases.row(e.index()).contains(&sym) {
                return Err(PersistError::BadIndex("mention without name or alias"));
            }
        }
    }

    // Rebuild the disambiguated full-key table (`name（disambig）` → sense).
    let mut full_keys = FxHashMap::default();
    for (i, rec) in entities.iter().enumerate() {
        if rec.disambig != Symbol(0) {
            let key = format!(
                "{}（{}）",
                interner.resolve(rec.name),
                interner.resolve(rec.disambig)
            );
            full_keys.insert(key, EntityId(i as u32));
        }
    }

    Ok(FrozenTaxonomy {
        interner,
        entities,
        entity_by_key,
        concepts,
        concept_by_sym,
        entity_concepts,
        concept_entities,
        concept_parents,
        concept_children,
        entity_attrs,
        entity_aliases,
        ancestors,
        topo,
        depth,
        by_mention,
        full_keys,
    })
}

// ----- section framing ----------------------------------------------------

fn section(buf: &mut BytesMut, tag: [u8; 4], write: impl FnOnce(&mut BytesMut)) {
    // Write the payload in place and patch the length slot afterwards —
    // staging it in a scratch buffer would copy every payload byte twice
    // and transiently double the memory of the largest section.
    buf.put_slice(&tag);
    let len_at = buf.len();
    buf.put_u64_le(0);
    let start = buf.len();
    write(buf);
    let len = (buf.len() - start) as u64;
    buf[len_at..len_at + 8].copy_from_slice(&len.to_le_bytes());
}

fn expect_consumed(body: &[u8], what: &'static str) -> Result<(), PersistError> {
    if body.is_empty() {
        Ok(())
    } else {
        Err(PersistError::BadIndex(what))
    }
}

// ----- v3: the zero-copy view snapshot ------------------------------------
//
// Section bodies are designed so `FrozenTaxonomyView` can answer every
// query straight off the buffer:
//
// * `INTR` — `n u32 | n×u32 cumulative byte ends | concatenated UTF-8` —
//   string `i` is `blob[end[i-1]..end[i]]`, no per-string length prefix.
// * `SSRT` / `CSRT` — symbols sorted by string bytes / concept ids sorted
//   by name symbol: the binary-search indexes that stand in for the
//   owned snapshot's hash maps.
// * `MDCT` — `n u32 | n×(source u8 | conf f32)` — the deduplicated edge
//   metadata dictionary, sorted by `(source tag, confidence bits)`.
// * CSR relations — varint-CSR ("VCSR"): `rows u32 | entries u32 |
//   dir ceil(rows/VCSR_BLOCK)×u32 | payload_len u32 | payload`, each row
//   a `varint(byte_len)` prefix plus delta+varint-encoded ids (first id
//   raw, then zigzag deltas). Meta rows (`ECON`, `CPAR`) follow each id
//   with a varint `MDCT` index; `CENT` rows carry the same index for the
//   mirrored entity→concept edge, so the `getEntity` hyponym walk reads
//   its confidences inline instead of probing the entity's `ECON` row per
//   hit. The directory holds every `VCSR_BLOCK`th row's payload offset,
//   so random row access is one jump plus at most `VCSR_BLOCK - 1`
//   length skips.
// * `ANCC` — the succinct ancestor closure: per row either strictly
//   ascending `(gap, run_len-1)` pairs (closures over topo-ordered ids
//   are usually a handful of intervals) or `base + bitmap` where the
//   interval structure breaks down; the encoder picks whichever is
//   smaller. An empty row is zero bytes.

/// Serializes a frozen snapshot to bytes (format v3, for
/// [`FrozenTaxonomyView`]).
pub fn encode_frozen_v3(f: &FrozenTaxonomy) -> Bytes {
    let mut buf = BytesMut::with_capacity(1 << 16);
    buf.put_slice(MAGIC);
    buf.put_u32_le(VERSION_VIEW);

    section(&mut buf, SEC_INTERNER, |b| {
        b.put_u32_le(f.interner.len() as u32);
        let mut end = 0u32;
        for (_, s) in f.interner.iter() {
            end += s.len() as u32;
            b.put_u32_le(end);
        }
        for (_, s) in f.interner.iter() {
            b.put_slice(s.as_bytes());
        }
    });
    section(&mut buf, SEC_STR_SORT, |b| {
        let mut order: Vec<u32> = (0..f.interner.len() as u32).collect();
        order.sort_unstable_by_key(|&s| f.interner.resolve(Symbol(s)));
        for s in order {
            b.put_u32_le(s);
        }
    });
    section(&mut buf, SEC_ENTITIES, |b| {
        b.put_u32_le(f.entities.len() as u32);
        for rec in &f.entities {
            b.put_u32_le(rec.name.0);
            b.put_u32_le(rec.disambig.0);
        }
    });
    section(&mut buf, SEC_CONCEPTS, |b| {
        b.put_u32_le(f.concepts.len() as u32);
        for sym in &f.concepts {
            b.put_u32_le(sym.0);
        }
    });
    section(&mut buf, SEC_CONCEPT_SORT, |b| {
        let mut order: Vec<u32> = (0..f.concepts.len() as u32).collect();
        order.sort_unstable_by_key(|&c| f.concepts[c as usize].0);
        for c in order {
            b.put_u32_le(c);
        }
    });
    let dict = meta_dict(f);
    section(&mut buf, SEC_META_DICT, |b| {
        b.put_u32_le(dict.len() as u32);
        for &(src, conf_bits) in &dict {
            b.put_u8(src);
            b.put_u32_le(conf_bits);
        }
    });
    section(&mut buf, SEC_ENTITY_CONCEPTS, |b| {
        put_vcsr(b, &f.entity_concepts, |p, _, row| {
            put_meta_row(p, row, &dict);
        });
    });
    section(&mut buf, SEC_CONCEPT_ENTITIES, |b| {
        // Hyponym rows mirror the entity→concept edge's dictionary index
        // inline, so `getEntity` never probes `ECON` per hit.
        put_vcsr(b, &f.concept_entities, |p, c, row| {
            let mut prev = 0i64;
            let mut first = true;
            for &e in row {
                if first {
                    put_varint(p, u64::from(e.0));
                    first = false;
                } else {
                    put_varint(p, zigzag(i64::from(e.0) - prev));
                }
                prev = i64::from(e.0);
                let idx = f
                    .entity_concepts
                    .row(e.index())
                    .iter()
                    .find(|(cc, _)| cc.index() == c)
                    .map(|(_, m)| dict_index(&dict, m))
                    .unwrap_or(0);
                put_varint(p, idx);
            }
        });
    });
    section(&mut buf, SEC_CONCEPT_PARENTS, |b| {
        put_vcsr(b, &f.concept_parents, |p, _, row| {
            put_meta_row(p, row, &dict);
        });
    });
    section(&mut buf, SEC_CONCEPT_CHILDREN, |b| {
        put_vcsr(b, &f.concept_children, |p, _, row| {
            put_delta_ids(p, row.iter().map(|c| c.0));
        });
    });
    section(&mut buf, SEC_ENTITY_ATTRS, |b| {
        put_vcsr(b, &f.entity_attrs, |p, _, row| {
            put_delta_ids(p, row.iter().map(|s| s.0));
        });
    });
    section(&mut buf, SEC_ENTITY_ALIASES, |b| {
        put_vcsr(b, &f.entity_aliases, |p, _, row| {
            put_delta_ids(p, row.iter().map(|s| s.0));
        });
    });
    section(&mut buf, SEC_ANCESTOR_SUCC, |b| {
        put_vcsr(b, &f.ancestors, |p, _, row| put_ancc_row(p, row));
    });
    section(&mut buf, SEC_TOPO, |b| {
        b.put_u32_le(f.topo.len() as u32);
        for c in &f.topo {
            b.put_u32_le(c.0);
        }
    });
    section(&mut buf, SEC_DEPTH, |b| {
        b.put_u32_le(f.depth.len() as u32);
        for &d in &f.depth {
            b.put_u32_le(d);
        }
    });
    section(&mut buf, SEC_MENTIONS, |b| {
        put_vcsr(b, &f.by_mention, |p, _, row| {
            put_delta_ids(p, row.iter().map(|e| e.0));
        });
    });
    section(&mut buf, SEC_MENTION_HASH, |b| {
        let mut rows: Vec<(u32, u32)> = (0..f.interner.len())
            .filter(|&s| !f.by_mention.row(s).is_empty())
            .map(|s| {
                let hash = stable_hash(f.interner.resolve(Symbol(s as u32)).as_bytes());
                (hash as u32, s as u32)
            })
            .collect();
        rows.sort_unstable();
        b.put_u32_le(rows.len() as u32);
        for (hash, sym) in rows {
            b.put_u32_le(hash);
            b.put_u32_le(sym);
        }
    });

    let digest = stable_hash(&buf);
    buf.put_slice(&SEC_CHECKSUM);
    buf.put_u64_le(8);
    buf.put_u64_le(digest);
    buf.freeze()
}

/// Writes a v3 snapshot to `path`.
pub fn save_frozen_v3_to_file(f: &FrozenTaxonomy, path: &Path) -> Result<(), PersistError> {
    std::fs::write(path, encode_frozen_v3(f))?;
    Ok(())
}

fn put_vcsr<T: Copy>(
    buf: &mut BytesMut,
    csr: &Csr<T>,
    write_row: impl Fn(&mut BytesMut, usize, &[T]),
) {
    let rows = csr.num_rows();
    buf.put_u32_le(rows as u32);
    buf.put_u32_le(csr.num_entries() as u32);
    let mut payload = BytesMut::new();
    let mut dir: Vec<u32> = Vec::new();
    let mut row_buf = BytesMut::new();
    for i in 0..rows {
        if i % VCSR_BLOCK == 0 {
            dir.push(payload.len() as u32);
        }
        row_buf.clear();
        write_row(&mut row_buf, i, csr.row(i));
        put_varint(&mut payload, row_buf.len() as u64);
        payload.put_slice(&row_buf);
    }
    for o in dir {
        buf.put_u32_le(o);
    }
    buf.put_u32_le(payload.len() as u32);
    buf.put_slice(&payload);
}

fn put_delta_ids(b: &mut BytesMut, ids: impl Iterator<Item = u32>) {
    let mut prev = 0i64;
    let mut first = true;
    for id in ids {
        if first {
            put_varint(b, u64::from(id));
            first = false;
        } else {
            put_varint(b, zigzag(i64::from(id) - prev));
        }
        prev = i64::from(id);
    }
}

/// `IsAMeta`'s fields are public, so an unclamped or NaN confidence can
/// reach a store without passing `IsAMeta::new`. Clamp on the way out
/// (NaN → 0.0, the `IsAMeta::new` convention): the decoder rejects
/// out-of-range confidences as corruption, and a snapshot that saved
/// successfully must always load.
fn clamp_conf(c: f32) -> f32 {
    if c.is_nan() {
        0.0
    } else {
        c.clamp(0.0, 1.0)
    }
}

/// Builds the deduplicated `(source tag, confidence bits)` dictionary the
/// v3 meta rows index into, sorted so re-encoding a decoded snapshot is
/// byte-identical.
fn meta_dict(f: &FrozenTaxonomy) -> Vec<(u8, u32)> {
    let mut dict: Vec<(u8, u32)> = f
        .entity_concepts
        .data()
        .iter()
        .chain(f.concept_parents.data().iter())
        .map(|(_, m)| (m.source.to_u8(), clamp_conf(m.confidence).to_bits()))
        .collect();
    dict.sort_unstable();
    dict.dedup();
    dict
}

/// Dictionary index of an edge's metadata; 0 only ever falls out for a
/// meta value absent from the dictionary, which cannot happen for the
/// frozen snapshot the dictionary was built from.
fn dict_index(dict: &[(u8, u32)], m: &IsAMeta) -> u64 {
    let key = (m.source.to_u8(), clamp_conf(m.confidence).to_bits());
    dict.binary_search(&key).map_or(0, |i| i as u64)
}

fn put_meta_row(b: &mut BytesMut, row: &[(ConceptId, IsAMeta)], dict: &[(u8, u32)]) {
    let mut prev = 0i64;
    let mut first = true;
    for &(c, meta) in row {
        if first {
            put_varint(b, u64::from(c.0));
            first = false;
        } else {
            put_varint(b, zigzag(i64::from(c.0) - prev));
        }
        prev = i64::from(c.0);
        put_varint(b, dict_index(dict, &meta));
    }
}

fn put_ancc_row(b: &mut BytesMut, row: &[ConceptId]) {
    if row.is_empty() {
        return;
    }
    // Maximal runs of consecutive ids (rows are strictly ascending).
    let mut runs: Vec<(u32, u32)> = Vec::new();
    for &c in row {
        match runs.last_mut() {
            Some((start, len)) if *start + *len == c.0 => *len += 1,
            _ => runs.push((c.0, 1)),
        }
    }
    let mut ranges_size = 1usize;
    let mut cursor = 0u32;
    for &(start, len) in &runs {
        ranges_size += varint_len(u64::from(start - cursor)) + varint_len(u64::from(len - 1));
        cursor = start + len;
    }
    let first = row[0].0;
    let span = (row[row.len() - 1].0 - first) as usize + 1;
    let bitset_size = 1 + varint_len(u64::from(first)) + span.div_ceil(8);
    if ranges_size <= bitset_size {
        b.put_u8(ANCC_RANGES);
        let mut cursor = 0u32;
        for &(start, len) in &runs {
            put_varint(b, u64::from(start - cursor));
            put_varint(b, u64::from(len - 1));
            cursor = start + len;
        }
    } else {
        b.put_u8(ANCC_BITSET);
        put_varint(b, u64::from(first));
        // cnp-lint: allow(capped-decode) reason="encoder-side scratch sized by the trusted in-memory closure row, not by a wire count"
        let mut bits = vec![0u8; span.div_ceil(8)];
        for &c in row {
            let off = (c.0 - first) as usize;
            bits[off / 8] |= 1 << (off % 8);
        }
        b.put_slice(&bits);
    }
}

// ----- delta sidecar (CNPD) -----------------------------------------------

/// Magic for the delta sidecar format ([`crate::overlay::DeltaOverlay`]).
/// Deltas are not snapshots — they are shipped next to one (or POSTed to
/// `/admin/ingest`), so they carry their own magic instead of a `CNPB`
/// version.
pub(crate) const DELTA_MAGIC: &[u8; 4] = b"CNPD";
/// Delta sidecar format version.
pub const VERSION_DELTA: u32 = 1;

const OP_ENTITY: u8 = 0;
const OP_CONCEPT: u8 = 1;
const OP_ALIAS: u8 = 2;
const OP_ATTRIBUTE: u8 = 3;
const OP_ENTITY_IS_A: u8 = 4;
const OP_CONCEPT_IS_A: u8 = 5;
const OP_RETRACT_ENTITY_IS_A: u8 = 6;
const OP_RETRACT_CONCEPT_IS_A: u8 = 7;

fn put_opt_str(buf: &mut BytesMut, s: Option<&str>) {
    match s {
        None => buf.put_u8(0),
        Some(s) => {
            buf.put_u8(1);
            put_str(buf, s);
        }
    }
}

fn get_opt_str(buf: &mut &[u8]) -> Result<Option<String>, PersistError> {
    match get_u8(buf, "option tag")? {
        0 => Ok(None),
        1 => Ok(Some(get_str(buf)?)),
        _ => Err(PersistError::BadIndex("option tag")),
    }
}

fn put_meta(buf: &mut BytesMut, meta: &IsAMeta) {
    buf.put_u8(meta.source.to_u8());
    buf.put_f32_le(meta.confidence);
}

fn get_meta(buf: &mut &[u8]) -> Result<IsAMeta, PersistError> {
    let src = get_u8(buf, "edge source")?;
    let source = Source::from_u8(src).ok_or(PersistError::BadIndex("edge source tag"))?;
    let confidence = get_f32(buf, "edge confidence")?;
    Ok(IsAMeta::new(source, confidence))
}

/// Serializes a delta overlay:
///
/// ```text
/// magic "CNPD" | version u32 = 1 | op-count u32 | op* | checksum u64
/// ```
///
/// Each op is a tag byte followed by its string keys (u32-length-prefixed)
/// and, for upserts, the edge metadata; the trailing checksum is the
/// FNV-1a [`stable_hash`] of every preceding byte.
pub(crate) fn encode_delta(d: &DeltaOverlay) -> Bytes {
    let mut buf = BytesMut::new();
    buf.put_slice(DELTA_MAGIC);
    buf.put_u32_le(VERSION_DELTA);
    buf.put_u32_le(d.ops.len() as u32);
    for op in &d.ops {
        match op {
            DeltaOp::Entity { name, disambig } => {
                buf.put_u8(OP_ENTITY);
                put_str(&mut buf, name);
                put_opt_str(&mut buf, disambig.as_deref());
            }
            DeltaOp::Concept { name } => {
                buf.put_u8(OP_CONCEPT);
                put_str(&mut buf, name);
            }
            DeltaOp::Alias {
                name,
                disambig,
                alias,
            } => {
                buf.put_u8(OP_ALIAS);
                put_str(&mut buf, name);
                put_opt_str(&mut buf, disambig.as_deref());
                put_str(&mut buf, alias);
            }
            DeltaOp::Attribute {
                name,
                disambig,
                attr,
            } => {
                buf.put_u8(OP_ATTRIBUTE);
                put_str(&mut buf, name);
                put_opt_str(&mut buf, disambig.as_deref());
                put_str(&mut buf, attr);
            }
            DeltaOp::EntityIsA {
                name,
                disambig,
                concept,
                meta,
            } => {
                buf.put_u8(OP_ENTITY_IS_A);
                put_str(&mut buf, name);
                put_opt_str(&mut buf, disambig.as_deref());
                put_str(&mut buf, concept);
                put_meta(&mut buf, meta);
            }
            DeltaOp::ConceptIsA { sub, sup, meta } => {
                buf.put_u8(OP_CONCEPT_IS_A);
                put_str(&mut buf, sub);
                put_str(&mut buf, sup);
                put_meta(&mut buf, meta);
            }
            DeltaOp::RetractEntityIsA {
                name,
                disambig,
                concept,
            } => {
                buf.put_u8(OP_RETRACT_ENTITY_IS_A);
                put_str(&mut buf, name);
                put_opt_str(&mut buf, disambig.as_deref());
                put_str(&mut buf, concept);
            }
            DeltaOp::RetractConceptIsA { sub, sup } => {
                buf.put_u8(OP_RETRACT_CONCEPT_IS_A);
                put_str(&mut buf, sub);
                put_str(&mut buf, sup);
            }
        }
    }
    let digest = stable_hash(&buf);
    buf.put_u64_le(digest);
    buf.freeze()
}

/// Deserializes a delta overlay, validating magic, version, structure and
/// the trailing content checksum. Like the snapshot decoders, every read
/// is capped by the remaining buffer, so hostile length fields fail with
/// [`PersistError::Truncated`] instead of over-allocating.
pub(crate) fn decode_delta(bytes: &[u8]) -> Result<DeltaOverlay, PersistError> {
    if bytes.len() < 4 {
        return Err(PersistError::Truncated("delta header"));
    }
    if &bytes[..4] != DELTA_MAGIC {
        return Err(PersistError::BadMagic);
    }
    // magic + version + op count before the body, checksum u64 after it.
    if bytes.len() < 12 + 8 {
        return Err(PersistError::Truncated("delta header"));
    }
    let (body, mut tail) = bytes.split_at(bytes.len() - 8);
    if tail.get_u64_le() != stable_hash(body) {
        return Err(PersistError::BadChecksum);
    }
    let mut buf = &body[4..];
    let version = get_u32(&mut buf, "delta version")?;
    if version != VERSION_DELTA {
        return Err(PersistError::BadVersion(version));
    }
    let count = get_u32(&mut buf, "delta op count")? as usize;
    let mut ops = Vec::new();
    for _ in 0..count {
        let op = match get_u8(&mut buf, "delta op tag")? {
            OP_ENTITY => DeltaOp::Entity {
                name: get_str(&mut buf)?,
                disambig: get_opt_str(&mut buf)?,
            },
            OP_CONCEPT => DeltaOp::Concept {
                name: get_str(&mut buf)?,
            },
            OP_ALIAS => DeltaOp::Alias {
                name: get_str(&mut buf)?,
                disambig: get_opt_str(&mut buf)?,
                alias: get_str(&mut buf)?,
            },
            OP_ATTRIBUTE => DeltaOp::Attribute {
                name: get_str(&mut buf)?,
                disambig: get_opt_str(&mut buf)?,
                attr: get_str(&mut buf)?,
            },
            OP_ENTITY_IS_A => DeltaOp::EntityIsA {
                name: get_str(&mut buf)?,
                disambig: get_opt_str(&mut buf)?,
                concept: get_str(&mut buf)?,
                meta: get_meta(&mut buf)?,
            },
            OP_CONCEPT_IS_A => DeltaOp::ConceptIsA {
                sub: get_str(&mut buf)?,
                sup: get_str(&mut buf)?,
                meta: get_meta(&mut buf)?,
            },
            OP_RETRACT_ENTITY_IS_A => DeltaOp::RetractEntityIsA {
                name: get_str(&mut buf)?,
                disambig: get_opt_str(&mut buf)?,
                concept: get_str(&mut buf)?,
            },
            OP_RETRACT_CONCEPT_IS_A => DeltaOp::RetractConceptIsA {
                sub: get_str(&mut buf)?,
                sup: get_str(&mut buf)?,
            },
            _ => return Err(PersistError::BadIndex("delta op tag")),
        };
        ops.push(op);
    }
    expect_consumed(buf, "delta ops")?;
    Ok(DeltaOverlay { ops })
}

// ----- shared primitives --------------------------------------------------

fn put_str(buf: &mut BytesMut, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

fn get_u32(buf: &mut &[u8], what: &'static str) -> Result<u32, PersistError> {
    if buf.remaining() < 4 {
        return Err(PersistError::Truncated(what));
    }
    Ok(buf.get_u32_le())
}

fn get_u8(buf: &mut &[u8], what: &'static str) -> Result<u8, PersistError> {
    if buf.remaining() < 1 {
        return Err(PersistError::Truncated(what));
    }
    Ok(buf.get_u8())
}

fn get_f32(buf: &mut &[u8], what: &'static str) -> Result<f32, PersistError> {
    if buf.remaining() < 4 {
        return Err(PersistError::Truncated(what));
    }
    Ok(buf.get_f32_le())
}

fn get_str(buf: &mut &[u8]) -> Result<String, PersistError> {
    let len = get_u32(buf, "string length")? as usize;
    if buf.remaining() < len {
        return Err(PersistError::Truncated("string body"));
    }
    let mut bytes = vec![0u8; len.min(buf.remaining())];
    buf.copy_to_slice(&mut bytes);
    String::from_utf8(bytes).map_err(|_| PersistError::BadUtf8)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{IsAMeta, Source};
    use proptest::prelude::*;

    fn demo_delta() -> DeltaOverlay {
        let mut d = DeltaOverlay::new();
        d.add_entity("周杰伦", None);
        d.add_entity("刘德华", Some("中国香港男演员"));
        d.add_concept("艺人");
        d.add_alias("周杰伦", None, "Jay Chou");
        d.add_attribute("周杰伦", None, "出生日期");
        d.upsert_entity_is_a("周杰伦", None, "歌手", IsAMeta::new(Source::Tag, 0.97));
        d.upsert_concept_is_a("歌手", "艺人", IsAMeta::new(Source::SubConcept, 0.75));
        d.retract_entity_is_a("张学友", None, "歌手");
        d.retract_concept_is_a("演员", "人物");
        d
    }

    #[test]
    fn delta_round_trips() {
        let d = demo_delta();
        let bytes = encode_delta(&d);
        assert_eq!(decode_delta(&bytes).expect("decode delta"), d);
    }

    #[test]
    fn delta_decode_rejects_corruption() {
        let d = demo_delta();
        let bytes = encode_delta(&d);
        assert!(matches!(
            decode_delta(&bytes[..bytes.len() - 1]),
            Err(PersistError::BadChecksum)
        ));
        assert!(matches!(
            decode_delta(&bytes[..10]),
            Err(PersistError::Truncated(_))
        ));
        let mut flipped = bytes.to_vec();
        flipped[13] ^= 0xff;
        assert!(decode_delta(&flipped).is_err());
        let mut wrong_magic = bytes.to_vec();
        wrong_magic[0] = b'X';
        assert!(matches!(
            decode_delta(&wrong_magic),
            Err(PersistError::BadMagic)
        ));
    }

    #[test]
    fn delta_decode_rejects_snapshot_magic() {
        let store = demo_store();
        assert!(matches!(
            decode_delta(&encode(&store)),
            Err(PersistError::BadMagic)
        ));
    }

    fn demo_store() -> TaxonomyStore {
        let mut s = TaxonomyStore::new();
        let liu = s.add_entity("刘德华", Some("中国香港男演员"));
        let zhang = s.add_entity("张学友", None);
        s.add_alias(liu, "Andy Lau");
        s.add_attribute(liu, "职业");
        s.add_attribute(liu, "代表作品");
        let actor = s.add_concept("演员");
        let singer = s.add_concept("歌手");
        let person = s.add_concept("人物");
        s.add_concept_is_a(actor, person, IsAMeta::new(Source::SubConcept, 0.8));
        s.add_concept_is_a(singer, person, IsAMeta::new(Source::SubConcept, 0.8));
        s.add_entity_is_a(liu, actor, IsAMeta::new(Source::Bracket, 0.96));
        s.add_entity_is_a(liu, singer, IsAMeta::new(Source::Tag, 0.97));
        s.add_entity_is_a(zhang, singer, IsAMeta::new(Source::Infobox, 0.9));
        s
    }

    fn assert_stores_equal(a: &TaxonomyStore, b: &TaxonomyStore) {
        assert_eq!(a.num_entities(), b.num_entities());
        assert_eq!(a.num_concepts(), b.num_concepts());
        assert_eq!(a.num_is_a(), b.num_is_a());
        for id in a.entity_ids() {
            assert_eq!(a.entity_key(id), b.entity_key(id));
            let ea: Vec<_> = a
                .concepts_of(id)
                .iter()
                .map(|(c, m)| (a.concept_name(*c).to_string(), m.source, m.confidence))
                .collect();
            let eb: Vec<_> = b
                .concepts_of(id)
                .iter()
                .map(|(c, m)| (b.concept_name(*c).to_string(), m.source, m.confidence))
                .collect();
            assert_eq!(ea, eb);
            let attrs_a: Vec<_> = a.attributes_of(id).iter().map(|&s| a.resolve(s)).collect();
            let attrs_b: Vec<_> = b.attributes_of(id).iter().map(|&s| b.resolve(s)).collect();
            assert_eq!(attrs_a, attrs_b);
        }
        for id in a.concept_ids() {
            assert_eq!(a.concept_name(id), b.concept_name(id));
        }
    }

    fn assert_frozen_equal(a: &FrozenTaxonomy, b: &FrozenTaxonomy) {
        assert_eq!(a.num_entities(), b.num_entities());
        assert_eq!(a.num_concepts(), b.num_concepts());
        assert_eq!(a.num_is_a(), b.num_is_a());
        assert_eq!(a.topo_order(), b.topo_order());
        for e in a.entity_ids() {
            assert_eq!(a.concepts_of(e), b.concepts_of(e));
            assert_eq!(a.attributes_of(e), b.attributes_of(e));
            assert_eq!(a.aliases_of(e), b.aliases_of(e));
            assert_eq!(a.entity_key(e), b.entity_key(e));
        }
        for c in a.concept_ids() {
            assert_eq!(a.entities_of(c), b.entities_of(c));
            assert_eq!(a.parents_of(c), b.parents_of(c));
            assert_eq!(a.children_of(c), b.children_of(c));
            assert_eq!(a.ancestors_of(c), b.ancestors_of(c));
            assert_eq!(a.depth(c), b.depth(c));
            assert_eq!(a.concept_name(c), b.concept_name(c));
        }
    }

    // ----- v1 -------------------------------------------------------------

    #[test]
    fn roundtrip_demo_store() {
        let store = demo_store();
        let bytes = encode(&store);
        let loaded = decode(&bytes).expect("decode");
        assert_stores_equal(&store, &loaded);
    }

    #[test]
    fn file_roundtrip() {
        let store = demo_store();
        let dir = std::env::temp_dir().join("cnp_persist_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snapshot.cnpb");
        save_to_file(&store, &path).expect("save");
        let loaded = load_from_file(&path).expect("load");
        assert_stores_equal(&store, &loaded);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_magic_rejected() {
        let err = decode(b"XXXX\x01\x00\x00\x00").unwrap_err();
        assert!(matches!(err, PersistError::BadMagic));
    }

    #[test]
    fn bad_version_rejected() {
        let mut buf = BytesMut::new();
        buf.put_slice(MAGIC);
        buf.put_u32_le(999);
        let err = decode(&buf).unwrap_err();
        assert!(matches!(err, PersistError::BadVersion(999)));
    }

    #[test]
    fn truncation_rejected_everywhere() {
        let bytes = encode(&demo_store());
        // Chop the snapshot at several points; each must error, not panic.
        for cut in [0, 3, 8, 9, 20, bytes.len() / 2, bytes.len() - 1] {
            let res = decode(&bytes[..cut]);
            assert!(res.is_err(), "cut at {cut} unexpectedly decoded");
        }
    }

    #[test]
    fn empty_store_roundtrip() {
        let store = TaxonomyStore::new();
        let loaded = decode(&encode(&store)).unwrap();
        assert_eq!(loaded.num_entities(), 0);
        assert_eq!(loaded.num_concepts(), 0);
        assert_eq!(loaded.num_is_a(), 0);
    }

    /// Regression (pre-fix this could over-allocate): a v1 header whose
    /// count field claims u32::MAX records over a near-empty body must fail
    /// with a truncation error after at most a tiny bounded allocation.
    #[test]
    fn v1_hostile_count_is_clamped_by_remaining_bytes() {
        for section in 0..3 {
            let mut buf = BytesMut::new();
            buf.put_slice(MAGIC);
            buf.put_u32_le(VERSION_STORE);
            if section >= 1 {
                buf.put_u32_le(1); // one string: ""
                put_str(&mut buf, "");
            }
            if section >= 2 {
                buf.put_u32_le(0); // zero entities
            }
            // The hostile count (strings / entities / concepts by turn).
            buf.put_u32_le(u32::MAX);
            let err = decode(&buf).unwrap_err();
            assert!(
                matches!(err, PersistError::Truncated(_)),
                "section {section}: {err}"
            );
        }
    }

    // ----- v3 -------------------------------------------------------------

    /// Encodes `frozen` as v3, opens the view and materialises it back
    /// through the deep `to_frozen` validation.
    fn roundtrip_v3(frozen: &FrozenTaxonomy) -> FrozenTaxonomy {
        FrozenTaxonomyView::open(encode_frozen_v3(frozen))
            .and_then(|view| view.to_frozen())
            .expect("v3 round-trip")
    }

    /// `(tag, header start, section end)` for every section of a snapshot.
    fn section_spans(bytes: &[u8]) -> Vec<([u8; 4], usize, usize)> {
        let mut spans = Vec::new();
        let mut cursor = &bytes[8..];
        while cursor.remaining() >= 12 {
            let start = bytes.len() - cursor.remaining();
            let mut tag = [0u8; 4];
            cursor.copy_to_slice(&mut tag);
            let end = start + 12 + cursor.get_u64_le() as usize;
            cursor = &bytes[end..];
            spans.push((tag, start, end));
        }
        spans
    }

    /// A v2 header: the format is retired, so a version word is all it
    /// takes to exercise the refusal.
    fn v2_header() -> Vec<u8> {
        let mut buf = MAGIC.to_vec();
        buf.put_u32_le(2);
        buf
    }

    #[test]
    fn frozen_roundtrip_demo_store() {
        let frozen = FrozenTaxonomy::freeze(&demo_store());
        let bytes = encode_frozen_v3(&frozen);
        let loaded = roundtrip_v3(&frozen);
        assert_frozen_equal(&frozen, &loaded);
        // Re-encode is byte-identical: the codec is a pure function of the
        // snapshot contents and the derived maps never reach the wire.
        assert_eq!(encode_frozen_v3(&loaded), bytes);
    }

    #[test]
    fn frozen_roundtrip_preserves_queries() {
        let frozen = FrozenTaxonomy::freeze(&demo_store());
        let loaded = roundtrip_v3(&frozen);
        for m in ["刘德华", "张学友", "Andy Lau", "刘德华（中国香港男演员）"] {
            assert_eq!(frozen.men2ent(m), loaded.men2ent(m), "mention {m}");
        }
        let actor = loaded.find_concept("演员").unwrap();
        let person = loaded.find_concept("人物").unwrap();
        assert_eq!(loaded.ancestors_of(actor), &[person]);
        assert_eq!(loaded.depth(actor), 1);
    }

    #[test]
    fn frozen_roundtrip_tolerates_cycles() {
        let mut store = demo_store();
        let actor = store.find_concept("演员").unwrap();
        let person = store.find_concept("人物").unwrap();
        store.add_concept_is_a(person, actor, IsAMeta::new(Source::SubConcept, 0.1));
        let frozen = FrozenTaxonomy::freeze(&store);
        assert_frozen_equal(&frozen, &roundtrip_v3(&frozen));
    }

    /// Regression: `IsAMeta`'s fields are public, so a NaN or out-of-range
    /// confidence can enter a store without passing `IsAMeta::new`. The
    /// encoder must clamp on the way out — otherwise it writes a snapshot
    /// that saves successfully but fails to load
    /// (`BadIndex("edge confidence")`).
    #[test]
    fn frozen_encode_clamps_unclamped_confidence() {
        let mut store = demo_store();
        let e = store.find_entity("张学友", None).unwrap();
        let c = store.find_concept("演员").unwrap();
        store.add_entity_is_a(
            e,
            c,
            IsAMeta {
                source: Source::Tag,
                confidence: f32::NAN,
            },
        );
        let c2 = store.find_concept("歌手").unwrap();
        store.add_concept_is_a(
            c2,
            c,
            IsAMeta {
                source: Source::SubConcept,
                confidence: 7.5,
            },
        );
        let loaded = roundtrip_v3(&FrozenTaxonomy::freeze(&store));
        let nan_edge = loaded
            .concepts_of(e)
            .iter()
            .find(|&&(cc, _)| cc == c)
            .unwrap();
        assert_eq!(nan_edge.1.confidence, 0.0);
        let hot_edge = loaded
            .parents_of(c2)
            .iter()
            .find(|&&(cc, _)| cc == c)
            .unwrap();
        assert_eq!(hot_edge.1.confidence, 1.0);
    }

    #[test]
    fn frozen_empty_roundtrip() {
        let loaded = roundtrip_v3(&FrozenTaxonomy::freeze(&TaxonomyStore::new()));
        assert_eq!(loaded.num_entities(), 0);
        assert_eq!(loaded.num_concepts(), 0);
    }

    #[test]
    fn frozen_file_roundtrip() {
        let frozen = FrozenTaxonomy::freeze(&demo_store());
        let dir = std::env::temp_dir().join("cnp_persist_test_v3");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snapshot.cnpb");
        save_frozen_v3_to_file(&frozen, &path).expect("save");
        let loaded = Snapshot::load_from_file(&path)
            .and_then(Snapshot::into_frozen)
            .expect("load");
        assert_frozen_equal(&frozen, &loaded);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn snapshot_dispatches_on_version() {
        let store = demo_store();
        let frozen = FrozenTaxonomy::freeze(&store);
        let s1 = Snapshot::load(&encode(&store)).unwrap();
        assert_eq!(s1.version(), VERSION_STORE);
        let s3 = Snapshot::load(&encode_frozen_v3(&frozen)).unwrap();
        assert_eq!(s3.version(), VERSION_VIEW);
        assert_frozen_equal(&frozen, &s3.into_frozen().expect("materialise v3"));
        // A v1 store lands on an equivalent serving snapshot. The v1 path
        // re-interns strings in rebuild order, so symbols are compared
        // through `resolve`, not numerically.
        let a = s1.into_frozen().unwrap();
        let b = &frozen;
        assert_eq!(a.num_entities(), b.num_entities());
        assert_eq!(a.num_is_a(), b.num_is_a());
        let resolve_all = |f: &FrozenTaxonomy, syms: &[Symbol]| -> Vec<String> {
            syms.iter().map(|&s| f.resolve(s).to_string()).collect()
        };
        for e in a.entity_ids() {
            assert_eq!(a.entity_key(e), b.entity_key(e));
            assert_eq!(a.concepts_of(e), b.concepts_of(e));
            assert_eq!(
                resolve_all(&a, a.attributes_of(e)),
                resolve_all(b, b.attributes_of(e))
            );
            assert_eq!(
                resolve_all(&a, a.aliases_of(e)),
                resolve_all(b, b.aliases_of(e))
            );
        }
        for c in a.concept_ids() {
            assert_eq!(a.concept_name(c), b.concept_name(c));
            assert_eq!(a.entities_of(c), b.entities_of(c));
            assert_eq!(a.ancestors_of(c), b.ancestors_of(c));
            assert_eq!(a.depth(c), b.depth(c));
        }
        // The retired v2 format and unknown versions are refused by number.
        assert!(matches!(
            Snapshot::load(&v2_header()),
            Err(PersistError::BadVersion(2))
        ));
        let mut bad = BytesMut::new();
        bad.put_slice(MAGIC);
        bad.put_u32_le(77);
        assert!(matches!(
            Snapshot::load(&bad),
            Err(PersistError::BadVersion(77))
        ));
    }

    /// Rebuilds the trailing CKSM section after the test mutated the body.
    fn reseal(mut bytes: Vec<u8>) -> Bytes {
        bytes.truncate(bytes.len() - 20); // tag + u64 len + u64 digest
        let digest = stable_hash(&bytes);
        bytes.put_slice(&SEC_CHECKSUM);
        bytes.put_u64_le(8);
        bytes.put_u64_le(digest);
        Bytes::from(bytes)
    }

    #[test]
    fn unknown_sections_are_skipped() {
        let frozen = FrozenTaxonomy::freeze(&demo_store());
        let encoded = encode_frozen_v3(&frozen);
        // Splice an unknown section right after the header, re-seal.
        let mut bytes = encoded[..8].to_vec();
        bytes.put_slice(b"XTRA");
        bytes.put_u64_le(3);
        bytes.put_slice(b"\xAA\xBB\xCC");
        bytes.extend_from_slice(&encoded[8..]);
        let view = FrozenTaxonomyView::open(reseal(bytes)).expect("skip unknown section");
        assert_frozen_equal(&frozen, &view.to_frozen().expect("materialise"));
    }

    #[test]
    fn missing_section_is_reported() {
        let encoded = encode_frozen_v3(&FrozenTaxonomy::freeze(&demo_store()));
        // Drop the DPTH section wholesale, re-seal: structurally valid
        // framing, but a required section is gone.
        let mut bytes = encoded[..8].to_vec();
        for (tag, start, end) in section_spans(&encoded) {
            if tag != SEC_DEPTH {
                bytes.extend_from_slice(&encoded[start..end]);
            }
        }
        let err = FrozenTaxonomyView::open(reseal(bytes)).unwrap_err();
        assert!(matches!(err, PersistError::MissingSection("DPTH")), "{err}");
    }

    #[test]
    fn checksum_mismatch_is_detected() {
        let frozen = FrozenTaxonomy::freeze(&demo_store());
        let mut bytes = encode_frozen_v3(&frozen).to_vec();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF; // corrupt the stored digest itself
        assert!(matches!(
            FrozenTaxonomyView::open(Bytes::from(bytes)),
            Err(PersistError::BadChecksum)
        ));
    }

    #[test]
    fn hostile_section_length_is_rejected() {
        let mut buf = BytesMut::new();
        buf.put_slice(MAGIC);
        buf.put_u32_le(VERSION_VIEW);
        buf.put_slice(&SEC_INTERNER);
        buf.put_u64_le(u64::MAX);
        assert!(matches!(
            FrozenTaxonomyView::open(buf.freeze()),
            Err(PersistError::Truncated(_))
        ));
    }

    #[test]
    fn hostile_csr_counts_are_rejected() {
        // The ANCC section's row count, then its entry count, claims
        // u32::MAX under a valid checksum: the bounds checks fire before
        // any per-row work or allocation happens.
        let encoded = encode_frozen_v3(&FrozenTaxonomy::freeze(&demo_store()));
        let (_, start, _) = section_spans(&encoded)
            .into_iter()
            .find(|&(tag, _, _)| tag == SEC_ANCESTOR_SUCC)
            .expect("ANCC section");
        for word in [start + 12, start + 16] {
            let mut bytes = encoded.to_vec();
            bytes[word..word + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            let err = FrozenTaxonomyView::open(reseal(bytes)).unwrap_err();
            assert!(
                matches!(err, PersistError::BadIndex(_) | PersistError::Truncated(_)),
                "{err}"
            );
        }
    }

    /// A store over 12 concepts and 6 entities with drawn concept edges
    /// (cycles included), entity links, aliases and disambiguations.
    fn arbitrary_store(
        concept_edges: &[(u32, u32, u32)],
        entity_links: &[(u32, u32)],
        aliased: &[u32],
        disambiguated: &[u32],
    ) -> TaxonomyStore {
        let mut store = TaxonomyStore::new();
        for i in 0..12 {
            store.add_concept(&format!("概念{i}"));
        }
        for i in 0..6u32 {
            let dis = disambiguated.contains(&i).then(|| format!("义项{i}"));
            store.add_entity(&format!("实体{i}"), dis.as_deref());
        }
        for &(a, b, conf) in concept_edges {
            if a != b {
                store.add_concept_is_a(
                    ConceptId(a),
                    ConceptId(b),
                    IsAMeta::new(Source::SubConcept, conf as f32 / 100.0),
                );
            }
        }
        for &(e, c) in entity_links {
            store.add_entity_is_a(EntityId(e), ConceptId(c), IsAMeta::new(Source::Tag, 0.8));
        }
        for &e in aliased {
            store.add_alias(EntityId(e), &format!("别名{e}"));
            store.add_attribute(EntityId(e), "职业");
        }
        store
    }

    proptest! {
        /// Arbitrary small stores round-trip exactly (v1).
        #[test]
        fn roundtrip_arbitrary(
            entities in proptest::collection::vec("[一-龥]{1,4}", 1..10),
            concepts in proptest::collection::vec("[一-龥]{1,4}", 1..8),
            edges in proptest::collection::vec((0usize..10, 0usize..8, 0.0f32..=1.0), 0..30),
        ) {
            let mut store = TaxonomyStore::new();
            let eids: Vec<_> = entities.iter().map(|n| store.add_entity(n, None)).collect();
            let cids: Vec<_> = concepts.iter().map(|n| store.add_concept(n)).collect();
            for (e, c, conf) in edges {
                if e < eids.len() && c < cids.len() {
                    store.add_entity_is_a(eids[e], cids[c], IsAMeta::new(Source::Tag, conf));
                }
            }
            let loaded = decode(&encode(&store)).unwrap();
            prop_assert_eq!(store.num_entities(), loaded.num_entities());
            prop_assert_eq!(store.num_concepts(), loaded.num_concepts());
            prop_assert_eq!(store.num_is_a(), loaded.num_is_a());
        }

        /// Arbitrary stores (cycles included): freeze → v3 → `to_frozen`
        /// re-encodes byte-identically (the canonical-closure-form
        /// guarantee) and answers identical `concepts_of` / `entities_of`
        /// / `ancestors_of` / `men2ent` queries.
        #[test]
        fn frozen_roundtrip_arbitrary(
            concept_edges in proptest::collection::vec((0u32..12, 0u32..12, 0u32..100), 0..40),
            entity_links in proptest::collection::vec((0u32..6, 0u32..12), 0..18),
            aliased in proptest::collection::vec(0u32..6, 0..4),
            disambiguated in proptest::collection::vec(0u32..6, 0..4),
        ) {
            let store = arbitrary_store(&concept_edges, &entity_links, &aliased, &disambiguated);
            let frozen = FrozenTaxonomy::freeze(&store);
            let bytes = encode_frozen_v3(&frozen);
            let loaded = roundtrip_v3(&frozen);
            prop_assert_eq!(encode_frozen_v3(&loaded), bytes);
            for e in frozen.entity_ids() {
                prop_assert_eq!(frozen.concepts_of(e), loaded.concepts_of(e));
            }
            for c in frozen.concept_ids() {
                prop_assert_eq!(frozen.entities_of(c), loaded.entities_of(c));
                prop_assert_eq!(frozen.ancestors_of(c), loaded.ancestors_of(c));
            }
            for e in 0..6 {
                let m = format!("实体{e}");
                prop_assert_eq!(frozen.men2ent(&m), loaded.men2ent(&m));
            }
        }

        /// Arbitrary stores through the zero-copy view: every query the
        /// view decodes off the buffer matches the owned snapshot.
        #[test]
        fn view_roundtrip_arbitrary(
            concept_edges in proptest::collection::vec((0u32..12, 0u32..12, 0u32..100), 0..40),
            entity_links in proptest::collection::vec((0u32..6, 0u32..12), 0..18),
            aliased in proptest::collection::vec(0u32..6, 0..4),
            disambiguated in proptest::collection::vec(0u32..6, 0..4),
        ) {
            let store = arbitrary_store(&concept_edges, &entity_links, &aliased, &disambiguated);
            let frozen = FrozenTaxonomy::freeze(&store);
            let view = FrozenTaxonomyView::open(encode_frozen_v3(&frozen)).unwrap();
            for e in frozen.entity_ids() {
                prop_assert_eq!(
                    view.concepts_of(e).collect::<Vec<_>>(),
                    frozen.concepts_of(e).to_vec()
                );
                prop_assert_eq!(view.entity_key(e), frozen.entity_key(e));
                prop_assert_eq!(
                    view.attributes_of(e).collect::<Vec<_>>(),
                    frozen.attributes_of(e).to_vec()
                );
            }
            for c in frozen.concept_ids() {
                prop_assert_eq!(
                    view.entities_of(c).collect::<Vec<_>>(),
                    frozen.entities_of(c).to_vec()
                );
                prop_assert_eq!(
                    view.ancestors(c).collect::<Vec<_>>(),
                    frozen.ancestors_of(c).to_vec()
                );
                prop_assert_eq!(view.depth(c), frozen.depth(c));
                for sup in frozen.concept_ids() {
                    prop_assert_eq!(
                        view.ancestor_contains(c, sup),
                        frozen.ancestors_of(c).binary_search(&sup).is_ok()
                    );
                }
            }
            for e in 0..6u32 {
                for m in [format!("实体{e}"), format!("别名{e}"), format!("实体{e}（义项{e}）")] {
                    prop_assert_eq!(view.men2ent(&m), frozen.men2ent(&m).to_vec());
                }
            }
        }
    }
}
