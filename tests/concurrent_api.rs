//! Lock-free serving under concurrency: a shared [`ProbaseApi`] hammered
//! from 8 threads must return exactly the single-threaded answers.
//!
//! The frozen snapshot has no interior mutability (the old serving path
//! memoized ancestors behind a mutex), so the only thing threads share is
//! immutable data — this test locks that claim in, via both
//! `std::thread::scope` and the shared [`cn_probase::runtime::Runtime`]
//! worker pool every pipeline stage runs on.

use cn_probase::encyclopedia::{CorpusConfig, CorpusGenerator};
use cn_probase::pipeline::{Pipeline, PipelineConfig};
use cn_probase::taxonomy::{persist, IsAMeta, Source, TaxonomyStore};
use cn_probase::{
    FrozenTaxonomy, ListOptions, ProbaseApi, Query, QueryResponse, Response, TaxonomyService,
};
use std::sync::atomic::{AtomicBool, Ordering};

const THREADS: usize = 8;

struct Golden {
    api: ProbaseApi,
    mentions: Vec<String>,
    concepts: Vec<String>,
    /// Per-mention single-threaded answers: senses and transitive concepts.
    men2ent: Vec<Vec<String>>,
    get_concept: Vec<Vec<String>>,
    /// Per-concept single-threaded `getEntity` answers.
    get_entity: Vec<Vec<String>>,
}

fn build_golden() -> Golden {
    let corpus = CorpusGenerator::new(CorpusConfig::tiny(9)).generate();
    let outcome = Pipeline::new(PipelineConfig::fast()).run(&corpus);
    let api = ProbaseApi::from_frozen(outcome.freeze());
    let mentions: Vec<String> = corpus.pages.iter().map(|p| p.name.clone()).collect();
    let concepts: Vec<String> = api
        .frozen()
        .concept_ids()
        .map(|c| api.frozen().concept_name(c).to_string())
        .collect();
    let men2ent = mentions
        .iter()
        .map(|m| api.men2ent(m).into_iter().map(|s| s.key).collect())
        .collect();
    let get_concept = mentions
        .iter()
        .map(|m| api.get_concept_by_mention(m, true))
        .collect();
    let get_entity = concepts
        .iter()
        .map(|c| api.get_entity(c, true, 50))
        .collect();
    Golden {
        api,
        mentions,
        concepts,
        men2ent,
        get_concept,
        get_entity,
    }
}

/// One worker pass over every query, asserting against the golden answers.
/// Offsetting the start index per thread makes the threads interleave
/// different queries instead of marching in lockstep.
fn hammer(g: &Golden, offset: usize) {
    let n = g.mentions.len();
    for i in 0..n {
        let i = (i + offset) % n;
        let m = &g.mentions[i];
        let senses: Vec<String> = g.api.men2ent(m).into_iter().map(|s| s.key).collect();
        assert_eq!(senses, g.men2ent[i], "men2ent({m}) diverged across threads");
        assert_eq!(
            g.api.get_concept_by_mention(m, true),
            g.get_concept[i],
            "getConcept({m}) diverged across threads"
        );
    }
    let nc = g.concepts.len();
    for j in 0..nc {
        let j = (j + offset) % nc;
        assert_eq!(
            g.api.get_entity(&g.concepts[j], true, 50),
            g.get_entity[j],
            "getEntity({}) diverged across threads",
            g.concepts[j]
        );
    }
}

#[test]
fn eight_std_threads_match_single_threaded_answers() {
    let g = build_golden();
    assert!(g.mentions.len() > 100 && g.concepts.len() > 20);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let g = &g;
            s.spawn(move || hammer(g, t * 37));
        }
    });
}

#[test]
fn runtime_workers_match_single_threaded_answers() {
    let g = build_golden();
    let rt = cn_probase::runtime::Runtime::new(THREADS);
    // Enough tasks that every worker runs several hammer passes.
    rt.par_tasks(4 * THREADS, |t| hammer(&g, t * 53));
}

/// Snapshot-boot concurrency: persist the frozen taxonomy (format v3),
/// boot a fresh `ProbaseApi` from the file, and hammer it from 8 threads
/// against the answers of the directly-frozen single-threaded API. The
/// disk round-trip must be invisible to concurrent Table II traffic.
#[test]
fn snapshot_booted_api_matches_across_threads() {
    let g = build_golden();
    let dir = std::env::temp_dir().join("cnp_concurrent_api_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("boot.cnpb");
    persist::save_frozen_v3_to_file(g.api.frozen(), &path).expect("save snapshot");
    let booted = ProbaseApi::from_snapshot_file(&path).expect("boot from snapshot");
    std::fs::remove_file(&path).ok();
    // Same golden answers, snapshot-booted service.
    let g = Golden { api: booted, ..g };
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let g = &g;
            s.spawn(move || hammer(g, t * 41));
        }
    });
}

// ----- hot-swap under load (ISSUE 5 satellite) -----------------------------

/// World A: 刘德华 sings, 张学友 is unknown.
fn swap_store_a() -> TaxonomyStore {
    let mut s = TaxonomyStore::new();
    let liu = s.add_entity("刘德华", None);
    let singer = s.add_concept("歌手");
    let person = s.add_concept("人物");
    s.add_concept_is_a(singer, person, IsAMeta::new(Source::SubConcept, 0.9));
    s.add_entity_is_a(liu, singer, IsAMeta::new(Source::Tag, 0.9));
    s
}

/// World B: 张学友 exists and out-ranks 刘德华 in 歌手's hyponym row, and
/// 歌手 gains a second ancestor — every probe below answers differently
/// than in world A.
fn swap_store_b() -> TaxonomyStore {
    let mut s = swap_store_a();
    let zhang = s.add_entity("张学友", None);
    let singer = s.find_concept("歌手").unwrap();
    s.add_entity_is_a(zhang, singer, IsAMeta::new(Source::Tag, 0.95));
    let artist = s.add_concept("艺人");
    s.add_concept_is_a(singer, artist, IsAMeta::new(Source::SubConcept, 0.8));
    s
}

/// The per-generation golden answers of the probe queries.
#[derive(PartialEq, Debug)]
struct SwapGolden {
    men2ent_zhang: usize,
    get_entity_singer: Vec<String>,
    get_concept_liu: Vec<String>,
}

fn swap_golden(frozen: &FrozenTaxonomy) -> SwapGolden {
    let api = ProbaseApi::from_frozen(frozen.clone());
    SwapGolden {
        men2ent_zhang: api.men2ent("张学友").len(),
        get_entity_singer: api.get_entity("歌手", true, usize::MAX),
        get_concept_liu: api.get_concept_by_mention("刘德华", true),
    }
}

fn swap_probes() -> Vec<Query> {
    vec![
        Query::men2ent("张学友"),
        Query::GetEntity {
            concept: "歌手".to_string(),
            options: ListOptions::transitive(),
        },
        Query::GetConceptByMention {
            mention: "刘德华".to_string(),
            options: ListOptions::transitive(),
        },
    ]
}

/// Asserts one response is internally consistent with exactly one
/// generation: the payload must equal the golden answer of the world its
/// generation stamp names (generation parity: odd = A, even = B) — and
/// since every probe differs between the worlds, a torn read (stamp from
/// one generation, payload from the other) cannot pass.
fn assert_swap_consistent(i: usize, r: &QueryResponse, a: &SwapGolden, b: &SwapGolden) {
    let want = if r.generation % 2 == 1 { a } else { b };
    match (i, &r.result) {
        (0, Ok(Response::Senses(senses))) => {
            assert_eq!(senses.len(), want.men2ent_zhang, "gen {}", r.generation)
        }
        (0, Err(_)) => assert_eq!(0, want.men2ent_zhang, "gen {}", r.generation),
        (1, Ok(Response::Entities(page))) => {
            let keys: Vec<String> = page.items.iter().map(|h| h.key.clone()).collect();
            assert_eq!(keys, want.get_entity_singer, "gen {}", r.generation);
        }
        (2, Ok(Response::Concepts(page))) => {
            let names: Vec<String> = page.items.iter().map(|h| h.name.clone()).collect();
            assert_eq!(names, want.get_concept_liu, "gen {}", r.generation);
        }
        other => panic!("probe {i}: unexpected response {other:?}"),
    }
}

/// 8 reader threads hammer the service (singles and batches) while a
/// writer thread swaps between two snapshots. Every response must be
/// internally consistent with exactly one generation, and a batch must
/// answer entirely from one pinned generation.
#[test]
fn hot_swap_under_load_never_tears_a_generation() {
    const SWAPS: u64 = 200;
    let frozen_a = FrozenTaxonomy::freeze(&swap_store_a());
    let frozen_b = FrozenTaxonomy::freeze(&swap_store_b());
    let golden_a = swap_golden(&frozen_a);
    let golden_b = swap_golden(&frozen_b);
    assert_ne!(
        golden_a, golden_b,
        "the two worlds must answer every probe differently"
    );
    let probes = swap_probes();
    let service =
        TaxonomyService::with_runtime(frozen_a.clone(), cn_probase::runtime::Runtime::new(2));
    let stop = AtomicBool::new(false);

    std::thread::scope(|s| {
        // Writer: generation g serves A when g is odd, B when even.
        s.spawn(|| {
            for i in 0..SWAPS {
                let next = if i % 2 == 0 { &frozen_b } else { &frozen_a };
                let gen = service.swap(next.clone());
                assert_eq!(gen, i + 2, "generations are sequential");
            }
            stop.store(true, Ordering::Release);
        });
        for t in 0..THREADS {
            let (service, probes, stop) = (&service, &probes, &stop);
            let (golden_a, golden_b) = (&golden_a, &golden_b);
            s.spawn(move || {
                let mut rounds = 0usize;
                while !stop.load(Ordering::Acquire) || rounds < 20 {
                    // Singles: each pins its own generation.
                    for (i, q) in probes.iter().enumerate() {
                        let r = service.execute(q);
                        assert!(r.generation >= 1 && r.generation <= SWAPS + 1);
                        assert_swap_consistent(i, &r, golden_a, golden_b);
                    }
                    // A batch must pin exactly one generation for all its
                    // queries, interleaved probe order included.
                    let batch: Vec<Query> = probes
                        .iter()
                        .cycle()
                        .take(probes.len() * (2 + t % 3))
                        .cloned()
                        .collect();
                    let responses = service.execute_batch(&batch);
                    let gen = responses[0].generation;
                    for (j, r) in responses.iter().enumerate() {
                        assert_eq!(r.generation, gen, "batch answered from two generations");
                        assert_swap_consistent(j % probes.len(), r, golden_a, golden_b);
                    }
                    rounds += 1;
                }
            });
        }
    });
    assert_eq!(service.generation(), SWAPS + 1);
}
