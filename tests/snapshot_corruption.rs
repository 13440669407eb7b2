//! Hostile-input suite for the snapshot codecs (ISSUE 4 satellite).
//!
//! A serving fleet reloads snapshots constantly; a truncated upload, a
//! bit-flipped block or a hand-crafted hostile file must produce an
//! `Err(PersistError::…)` — never a panic, and never an OOM from trusting
//! a length field. The v3 suite is exhaustive: *every* truncation prefix
//! and *every* single-byte flip of a valid snapshot must fail decode (the
//! FNV-1a content checksum guarantees flips are caught even where the
//! structure would still parse). It also re-seals hostile varint/length
//! fields under a *valid* checksum, so the structural bounds checks are
//! what rejects them — proving no allocation-before-validation window
//! hides behind the checksum.

use cn_probase::taxonomy::persist::{self, PersistError};
use cn_probase::taxonomy::{FrozenTaxonomy, IsAMeta, Snapshot, Source, TaxonomyStore};

/// Small but section-complete store: a disambiguated sense, an alias, an
/// attribute, entity edges from three sources and a concept chain.
fn demo_store() -> TaxonomyStore {
    let mut s = TaxonomyStore::new();
    let liu = s.add_entity("刘德华", Some("中国香港男演员"));
    let liu_bare = s.add_entity("刘德华", None);
    let zhang = s.add_entity("张学友", None);
    s.add_alias(liu, "Andy Lau");
    s.add_attribute(liu, "职业");
    let male_actor = s.add_concept("男演员");
    let actor = s.add_concept("演员");
    let singer = s.add_concept("歌手");
    let person = s.add_concept("人物");
    s.add_concept_is_a(male_actor, actor, IsAMeta::new(Source::SubConcept, 0.9));
    s.add_concept_is_a(actor, person, IsAMeta::new(Source::SubConcept, 0.9));
    s.add_concept_is_a(singer, person, IsAMeta::new(Source::SubConcept, 0.9));
    s.add_entity_is_a(liu, male_actor, IsAMeta::new(Source::Bracket, 0.95));
    s.add_entity_is_a(liu, singer, IsAMeta::new(Source::Tag, 0.9));
    s.add_entity_is_a(liu_bare, singer, IsAMeta::new(Source::Tag, 0.5));
    s.add_entity_is_a(zhang, singer, IsAMeta::new(Source::Infobox, 0.9));
    s
}

#[test]
fn v1_every_truncation_prefix_errors() {
    let bytes = persist::encode(&demo_store()).to_vec();
    assert!(persist::decode(&bytes).is_ok(), "baseline decodes");
    for cut in 0..bytes.len() {
        let res = persist::decode(&bytes[..cut]);
        assert!(res.is_err(), "truncation at {cut}/{} decoded", bytes.len());
    }
}

/// Regression for the v1 pre-allocation bug: count fields used to be
/// trusted before bounds-checking the remaining buffer, so a hostile
/// count triggered a giant `Vec::with_capacity`. Allocations are now
/// clamped by the bytes actually remaining.
#[test]
fn v1_hostile_counts_error_without_overallocating() {
    let mut bytes = b"CNPB".to_vec();
    bytes.extend_from_slice(&1u32.to_le_bytes());
    bytes.extend_from_slice(&u32::MAX.to_le_bytes()); // string count
    assert!(matches!(
        persist::decode(&bytes),
        Err(PersistError::Truncated(_))
    ));
}

#[test]
fn snapshot_load_rejects_garbage() {
    assert!(matches!(
        Snapshot::load(b"not a snapshot at all"),
        Err(PersistError::BadMagic)
    ));
    assert!(matches!(
        Snapshot::load(b"CNPB"),
        Err(PersistError::Truncated(_))
    ));
    // The retired v2 format is refused by version, like any unknown one.
    for version in [2u32, 99] {
        let mut header = b"CNPB".to_vec();
        header.extend_from_slice(&version.to_le_bytes());
        assert!(
            matches!(Snapshot::load(&header), Err(PersistError::BadVersion(v)) if v == version),
            "version {version} accepted"
        );
    }
}

// ----- v3: the zero-copy view format ----------------------------------------

fn v3_bytes() -> Vec<u8> {
    persist::encode_frozen_v3(&FrozenTaxonomy::freeze(&demo_store())).to_vec()
}

/// `(tag, payload_range)` for every section of a well-formed snapshot.
fn v3_sections(bytes: &[u8]) -> Vec<([u8; 4], std::ops::Range<usize>)> {
    let mut sections = Vec::new();
    let mut pos = 8; // skip magic + version
    while pos + 12 <= bytes.len() {
        let tag: [u8; 4] = bytes[pos..pos + 4].try_into().unwrap();
        let len = u64::from_le_bytes(bytes[pos + 4..pos + 12].try_into().unwrap()) as usize;
        sections.push((tag, pos + 12..pos + 12 + len));
        pos += 12 + len;
    }
    assert_eq!(pos, bytes.len(), "section framing walk must consume all");
    sections
}

/// Recomputes the trailing CKSM digest after a mutation, so the checksum
/// is *valid* and structural validation alone must reject the content.
fn reseal_v3(bytes: &mut [u8]) {
    let digest_at = bytes.len() - 8;
    let cksm_tag_at = bytes.len() - 20;
    let digest = cn_probase::runtime::stable_hash(&bytes[..cksm_tag_at]);
    bytes[digest_at..].copy_from_slice(&digest.to_le_bytes());
}

#[test]
fn v3_every_truncation_prefix_errors() {
    let bytes = v3_bytes();
    assert!(Snapshot::load(&bytes).is_ok(), "baseline decodes");
    for cut in 0..bytes.len() {
        let res = Snapshot::load(&bytes[..cut]);
        assert!(res.is_err(), "truncation at {cut}/{} decoded", bytes.len());
    }
}

#[test]
fn v3_every_single_byte_flip_errors() {
    let bytes = v3_bytes();
    let mut mutated = bytes.clone();
    for i in 0..bytes.len() {
        mutated[i] ^= 0xFF;
        let res = Snapshot::load(&mutated);
        assert!(res.is_err(), "byte flip at {i}/{} decoded", bytes.len());
        mutated[i] = bytes[i];
    }
}

/// Flips restricted to section headers (tag + length words), the
/// locations a framing bug would mis-handle most catastrophically.
#[test]
fn v3_section_header_flips_error() {
    let bytes = v3_bytes();
    let sections = v3_sections(&bytes);
    assert!(sections.len() >= 16, "v3 writes 15 sections + CKSM");
    let mut mutated = bytes.clone();
    for (_, payload) in &sections {
        for i in payload.start - 12..payload.start {
            for flip in [0x01, 0x80, 0xFF] {
                mutated[i] ^= flip;
                assert!(
                    Snapshot::load(&mutated).is_err(),
                    "header byte {i} ^ {flip:#04x} decoded"
                );
                mutated[i] = bytes[i];
            }
        }
    }
}

/// Hostile section lengths claiming more payload than the file holds must
/// be rejected by the framing walk, before any allocation.
#[test]
fn v3_hostile_lengths_do_not_overallocate() {
    let mut base = b"CNPB".to_vec();
    base.extend_from_slice(&3u32.to_le_bytes());
    for (tag, claimed) in [
        (*b"INTR", u64::MAX),
        (*b"ANCC", u64::MAX / 2),
        (*b"ECON", u64::from(u32::MAX)),
    ] {
        let mut bytes = base.clone();
        bytes.extend_from_slice(&tag);
        bytes.extend_from_slice(&claimed.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 8]); // far less body than claimed
        assert!(
            Snapshot::load(&bytes).is_err(),
            "claimed length {claimed} accepted"
        );
    }
}

/// Hostile *count* fields under a valid checksum: the first word of every
/// table and varint-CSR section (string count, row count) and the second
/// word of every VCSR (entry count) are set to `u32::MAX`, the checksum is
/// re-sealed, and the load must fail on bounds checks — never OOM on the
/// claimed size, never panic.
#[test]
fn v3_hostile_counts_error_without_overallocating() {
    let bytes = v3_bytes();
    let vcsr_tags: &[[u8; 4]] = &[
        *b"ECON", *b"CENT", *b"CPAR", *b"CCHD", *b"EATT", *b"EALS", *b"ANCC", *b"MENT",
    ];
    for (tag, payload) in v3_sections(&bytes) {
        if tag == *b"CKSM" {
            continue;
        }
        // Word 0: the leading count of INTR/ENTS/CNPT/TOPO/DPTH and the
        // row count of every VCSR (SSRT/CSRT have no leading count — the
        // flip lands in table content and must still be rejected).
        let mut word_offsets = vec![0usize];
        if vcsr_tags.contains(&tag) {
            word_offsets.push(4); // the VCSR entry count
        }
        for off in word_offsets {
            if payload.start + off + 4 > payload.end {
                continue;
            }
            let mut mutated = bytes.clone();
            mutated[payload.start + off..payload.start + off + 4]
                .copy_from_slice(&u32::MAX.to_le_bytes());
            reseal_v3(&mut mutated);
            let res = Snapshot::load(&mutated);
            assert!(
                res.is_err(),
                "{} word at +{off} = u32::MAX decoded",
                String::from_utf8_lossy(&tag)
            );
        }
    }
}

/// Hostile varint row bodies under a valid checksum: overwrite the first
/// bytes of a VCSR payload with maximal continuation bytes (a varint
/// claiming a huge row length) and with an overlong encoding; both must be
/// typed errors.
#[test]
fn v3_hostile_varints_error_cleanly() {
    let bytes = v3_bytes();
    for (tag, payload) in v3_sections(&bytes) {
        if !matches!(&tag, b"ECON" | b"MENT" | b"ANCC") {
            continue;
        }
        // The payload area sits after rows/entries words + directory;
        // stomp the *last* 4 bytes of the section, which always land
        // inside row data for these non-empty sections.
        for stomp in [[0xFF, 0xFF, 0xFF, 0xFF], [0x80, 0x80, 0x80, 0x80]] {
            if payload.len() < 4 {
                continue;
            }
            let mut mutated = bytes.clone();
            mutated[payload.end - 4..payload.end].copy_from_slice(&stomp);
            reseal_v3(&mut mutated);
            assert!(
                Snapshot::load(&mutated).is_err(),
                "{} with stomped varint tail decoded",
                String::from_utf8_lossy(&tag)
            );
        }
    }
}
