//! Tagging equivalence (ISSUE 10 acceptance).
//!
//! `Query::Tag` and `Query::Classify` must produce *byte-identical* wire
//! responses across every snapshot representation — owned
//! [`FrozenTaxonomy`], borrowed [`FrozenTaxonomyView`], and an
//! [`OverlayView`] whose folded delta completes the same logical content —
//! and at 1/2/8 executor threads, on the committed golden fixtures. The
//! tag index is rebuilt per generation from the snapshot's own
//! vocabulary, so any representation-dependent drift (id order, closure
//! rows, mention tables) would surface here as a diverging byte.

use cn_probase::runtime::Runtime;
use cn_probase::serve::wire;
use cn_probase::taxonomy::{IsAMeta, Source, TaxonomyStore};
use cn_probase::{
    DeltaOverlay, FrozenTaxonomy, FrozenTaxonomyView, OverlayView, Query, Response, Snapshot,
    TagOptions, TaxonomyRead, TaxonomyService,
};
use std::path::PathBuf;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn frozen() -> FrozenTaxonomy {
    view().to_frozen().expect("fixture materialises")
}

fn view() -> FrozenTaxonomyView {
    let bytes = std::fs::read(fixture("golden_v3.cnpb")).expect("golden v3 fixture");
    let Snapshot::View(view) = Snapshot::load(&bytes).expect("v3 fixture decodes") else {
        panic!("a v3 snapshot must decode to the borrowed view");
    };
    *view
}

/// The golden fixture's content minus 张学友 — the overlay backend folds
/// the missing entity back in through a delta, landing on the same dense
/// ids (appends replay in log order) and the same logical answers.
fn overlay() -> OverlayView<FrozenTaxonomy> {
    let mut s = TaxonomyStore::new();
    let liu = s.add_entity("刘德华", Some("中国香港男演员"));
    let liu_bare = s.add_entity("刘德华", None);
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

    let mut d = DeltaOverlay::new();
    d.add_entity("张学友", None);
    d.upsert_entity_is_a("张学友", None, "歌手", IsAMeta::new(Source::Infobox, 0.92));
    OverlayView::new(FrozenTaxonomy::freeze(&s)).apply(&d)
}

/// Golden documents × option shapes, as both query kinds. Covers resolved
/// mentions, the disambiguated full key, an alias, concept-name spans,
/// out-of-vocabulary text, and the empty document.
fn probes() -> Vec<Query> {
    let docs = [
        "刘德华和张学友。",
        "歌手张学友在香港开演唱会。",
        "刘德华（中国香港男演员）的代表作品。",
        "Andy Lau 是演员。",
        "火星话xyzzy没有词典词。",
        "",
    ];
    let options = [
        TagOptions::default(),
        TagOptions::default().with_top_k(1),
        TagOptions::default().with_top_k(2).with_beam(1),
        TagOptions::default().with_min_score(0.5),
    ];
    let mut queries = Vec::new();
    for doc in docs {
        for opts in &options {
            queries.push(Query::Tag {
                text: doc.to_string(),
                options: opts.clone(),
            });
            queries.push(Query::Classify {
                text: doc.to_string(),
                options: opts.clone(),
            });
        }
    }
    queries
}

/// Executes every probe and renders each response to its wire bytes.
fn rendered<T: TaxonomyRead>(service: &TaxonomyService<T>) -> Vec<String> {
    probes()
        .iter()
        .map(|q| wire::encode_response(&service.execute(q)).write())
        .collect()
}

#[test]
fn tag_responses_are_byte_identical_across_backends_and_threads() {
    let mut renders: Vec<(String, Vec<String>)> = Vec::new();
    for threads in [1usize, 2, 8] {
        renders.push((
            format!("frozen x{threads}"),
            rendered(&TaxonomyService::with_runtime(
                frozen(),
                Runtime::new(threads),
            )),
        ));
        renders.push((
            format!("view x{threads}"),
            rendered(&TaxonomyService::with_runtime(
                view(),
                Runtime::new(threads),
            )),
        ));
        renders.push((
            format!("overlay x{threads}"),
            rendered(&TaxonomyService::with_runtime(
                overlay(),
                Runtime::new(threads),
            )),
        ));
    }
    let (name0, baseline) = &renders[0];
    assert!(
        baseline.iter().any(|r| r.contains("歌手")),
        "baseline never tagged 歌手 — probes are not exercising the scorer"
    );
    for (name, r) in &renders[1..] {
        assert_eq!(r, baseline, "{name} diverged from {name0}");
    }
}

#[test]
fn batched_tag_queries_match_single_execution() {
    let service = TaxonomyService::new(frozen());
    let queries = probes();
    let batched = service.execute_batch(&queries);
    assert_eq!(batched.len(), queries.len());
    for (q, b) in queries.iter().zip(&batched) {
        let single = service.execute(q);
        assert_eq!(
            wire::encode_response(b).write(),
            wire::encode_response(&single).write(),
            "batch and single execution disagree on {q:?}"
        );
    }
}

#[test]
fn golden_documents_actually_tag() {
    let service = TaxonomyService::new(frozen());
    let query = Query::Tag {
        text: "刘德华和张学友。".to_string(),
        options: TagOptions::default(),
    };
    match service.execute(&query).result {
        Ok(Response::Tags(output)) => {
            assert!(!output.spans.is_empty(), "no spans resolved");
            assert!(
                output.concepts.iter().any(|h| h.name == "歌手"),
                "shared concept 歌手 missing from {:?}",
                output.concepts
            );
        }
        other => panic!("unexpected {other:?}"),
    }
}
