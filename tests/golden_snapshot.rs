//! Golden-format lock for the v3 serving snapshot.
//!
//! `tests/fixtures/golden_v3.cnpb` is a committed snapshot of the small
//! deterministic taxonomy below. Two locks hold the format down:
//!
//! 1. the fixture must keep decoding and answering the known queries, so
//!    an accidental codec change that would orphan deployed snapshots
//!    fails CI instead of surfacing at the next production boot;
//! 2. re-encoding today's freeze of the same store must reproduce the
//!    fixture byte-for-byte, so silent encoder drift is caught too.
//!
//! An *intentional* format change bumps the version and regenerates the
//! fixture via the ignored `regenerate_golden_fixture` test:
//!
//! ```sh
//! cargo test --test golden_snapshot -- --ignored regenerate_golden_fixture
//! ```

use cn_probase::serve::TaxonomyService;
use cn_probase::taxonomy::persist::encode_frozen_v3;
use cn_probase::taxonomy::{
    FrozenTaxonomy, IsAMeta, Snapshot, Source, TaxonomyRead, TaxonomyStore,
};
use cn_probase::ProbaseApi;
use std::path::PathBuf;

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden_v3.cnpb")
}

/// The fixture taxonomy: 男演员 → 演员 → 人物, 歌手 → 人物, two 刘德华
/// senses (one disambiguated, with alias + attributes), 张学友.
fn golden_store() -> TaxonomyStore {
    let mut s = TaxonomyStore::new();
    let liu = s.add_entity("刘德华", Some("中国香港男演员"));
    let liu_bare = s.add_entity("刘德华", None);
    let zhang = s.add_entity("张学友", None);
    s.add_alias(liu, "Andy Lau");
    s.add_attribute(liu, "职业");
    s.add_attribute(liu, "代表作品");
    let male_actor = s.add_concept("男演员");
    let actor = s.add_concept("演员");
    let singer = s.add_concept("歌手");
    let person = s.add_concept("人物");
    s.add_concept_is_a(male_actor, actor, IsAMeta::new(Source::SubConcept, 0.9));
    s.add_concept_is_a(actor, person, IsAMeta::new(Source::SubConcept, 0.9));
    s.add_concept_is_a(singer, person, IsAMeta::new(Source::SubConcept, 0.85));
    s.add_entity_is_a(liu, male_actor, IsAMeta::new(Source::Bracket, 0.95));
    s.add_entity_is_a(liu, singer, IsAMeta::new(Source::Tag, 0.9));
    s.add_entity_is_a(liu_bare, singer, IsAMeta::new(Source::Tag, 0.5));
    s.add_entity_is_a(zhang, singer, IsAMeta::new(Source::Infobox, 0.92));
    s
}

fn fixture_bytes() -> Vec<u8> {
    std::fs::read(fixture_path()).expect("v3 fixture exists and is committed")
}

/// The fixture's known answers, through the Table II wrapper over either
/// backend.
fn assert_known_answers<T: TaxonomyRead>(api: &ProbaseApi<T>) {
    let f = api.frozen();
    assert_eq!(f.num_entities(), 3);
    assert_eq!(f.num_concepts(), 4);
    assert_eq!(f.num_is_a(), 7);

    // men2ent: bare name resolves every sense, full key exactly one,
    // alias one.
    assert_eq!(api.men2ent("刘德华").len(), 2);
    let hits = api.men2ent("刘德华（中国香港男演员）");
    assert_eq!(hits.len(), 1);
    assert_eq!(hits[0].key, "刘德华（中国香港男演员）");
    assert_eq!(api.men2ent("Andy Lau").len(), 1);
    assert!(api.men2ent("不存在").is_empty());

    // getConcept: direct then transitive, nearest-first.
    let liu = hits[0].id;
    assert_eq!(api.get_concept(liu, false), vec!["男演员", "歌手"]);
    assert_eq!(
        api.get_concept(liu, true),
        vec!["男演员", "歌手", "演员", "人物"]
    );

    // getEntity: transitive reach through the concept chain, each entity
    // reported once.
    assert!(api.get_entity("人物", false, usize::MAX).is_empty());
    let all = api.get_entity("人物", true, usize::MAX);
    assert_eq!(all.len(), 3);
    assert!(all.contains(&"刘德华（中国香港男演员）".to_string()));
    assert!(all.contains(&"刘德华".to_string()));
    assert!(all.contains(&"张学友".to_string()));

    // Precomputed topology survives the disk round-trip.
    let male_actor = f.find_concept("男演员").unwrap();
    let person = f.find_concept("人物").unwrap();
    assert_eq!(f.depth(male_actor), 2);
    assert_eq!(f.depth(person), 0);
    assert_eq!(f.ancestors(male_actor).count(), 2);
    assert!(f.ancestor_contains(male_actor, person));
    assert!(!f.ancestor_contains(person, male_actor));
}

/// The owned path: the fixture materialised through the deep validation
/// (`Snapshot::into_frozen`) and served from the owned backend.
#[test]
fn golden_fixture_decodes_and_answers_known_queries() {
    let owned = Snapshot::load(&fixture_bytes())
        .and_then(Snapshot::into_frozen)
        .expect("fixture materialises");
    assert_known_answers(&ProbaseApi::from_frozen(owned));
}

/// Decoding then re-encoding the committed fixture reproduces it: the
/// decoder keeps everything the encoder writes.
#[test]
fn golden_fixture_matches_current_encoder_byte_for_byte() {
    let committed = fixture_bytes();
    let owned = Snapshot::load(&committed)
        .and_then(Snapshot::into_frozen)
        .expect("fixture materialises");
    assert_eq!(encode_frozen_v3(&owned).as_ref(), committed.as_slice());
}

/// The serving path: the fixture opened as the zero-copy view.
#[test]
fn golden_v3_fixture_decodes_and_answers_known_queries() {
    let snapshot = Snapshot::load(&fixture_bytes()).expect("v3 fixture decodes");
    assert_eq!(snapshot.version(), 3);
    let Snapshot::View(view) = snapshot else {
        panic!("a v3 snapshot must decode to the borrowed view");
    };
    assert_known_answers(&ProbaseApi::from_service(TaxonomyService::new(*view)));
}

#[test]
fn golden_v3_fixture_matches_current_encoder_byte_for_byte() {
    let committed = fixture_bytes();
    let fresh = encode_frozen_v3(&FrozenTaxonomy::freeze(&golden_store()));
    assert_eq!(
        fresh.as_ref(),
        committed.as_slice(),
        "v3 encoder output drifted from the committed golden fixture; if          the format change is intentional, bump the snapshot version and          regenerate via `cargo test --test golden_snapshot -- --ignored          regenerate_golden_fixture`"
    );
}

/// Not a check — regenerates the committed fixture after an intentional
/// format change. Run explicitly with `-- --ignored`.
#[test]
#[ignore]
fn regenerate_golden_fixture() {
    let path = fixture_path();
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    let frozen = FrozenTaxonomy::freeze(&golden_store());
    cn_probase::taxonomy::persist::save_frozen_v3_to_file(&frozen, &path).unwrap();
    println!("regenerated {}", path.display());
}
