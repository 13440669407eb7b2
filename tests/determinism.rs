//! The runtime's determinism contract, asserted end to end: a pipeline run
//! with `threads = 1`, `2` and `8` must produce **identical** output —
//! same taxonomy statistics, same verified candidate sequence, same
//! bracket chains, and an equivalent frozen serving snapshot.
//!
//! This is what makes `PipelineConfig::threads` a pure performance knob:
//! chunk boundaries depend only on input length, reductions fold in chunk
//! order, and sharded accumulators restore first-occurrence order (see
//! `cnp_runtime`).

use cn_probase::encyclopedia::{CorpusConfig, CorpusGenerator};
use cn_probase::pipeline::{Pipeline, PipelineConfig, PipelineOutcome};
use cn_probase::runtime::Runtime;
use cn_probase::taxonomy::persist::encode_frozen_v3;
use cn_probase::{FrozenTaxonomy, IngestDelta, OverlayView};

fn run_with_threads(corpus: &cn_probase::encyclopedia::Corpus, threads: usize) -> PipelineOutcome {
    let config = PipelineConfig {
        threads,
        ..PipelineConfig::fast()
    };
    Pipeline::new(config).run(corpus)
}

fn assert_frozen_equivalent(a: &FrozenTaxonomy, b: &FrozenTaxonomy, label: &str) {
    assert_eq!(a.num_entities(), b.num_entities(), "{label}: entities");
    assert_eq!(a.num_concepts(), b.num_concepts(), "{label}: concepts");
    assert_eq!(a.num_is_a(), b.num_is_a(), "{label}: isA edges");
    assert_eq!(a.num_mentions(), b.num_mentions(), "{label}: mentions");
    assert_eq!(a.topo_order(), b.topo_order(), "{label}: topo order");
    for c in a.concept_ids() {
        assert_eq!(a.concept_name(c), b.concept_name(c), "{label}: name {c:?}");
        assert_eq!(
            a.ancestors_of(c),
            b.ancestors_of(c),
            "{label}: ancestors {c:?}"
        );
        assert_eq!(a.depth(c), b.depth(c), "{label}: depth {c:?}");
        assert_eq!(a.entities_of(c), b.entities_of(c), "{label}: extent {c:?}");
    }
    for e in a.entity_ids() {
        assert_eq!(
            a.concepts_of(e),
            b.concepts_of(e),
            "{label}: concepts {e:?}"
        );
        assert_eq!(a.entity_key(e), b.entity_key(e), "{label}: key {e:?}");
    }
}

#[test]
fn pipeline_output_is_identical_at_1_2_and_8_threads() {
    let corpus = CorpusGenerator::new(CorpusConfig::tiny(901)).generate();
    let base = run_with_threads(&corpus, 1);
    let base_frozen = base.freeze();
    assert!(base.report.final_candidates > 0, "empty baseline run");

    for threads in [2, 8] {
        let other = run_with_threads(&corpus, threads);
        // Construction statistics: every Figure 2 counter.
        assert_eq!(
            other.report.stats, base.report.stats,
            "TaxonomyStats diverged at {threads} threads"
        );
        assert_eq!(other.report.pages, base.report.pages);
        assert_eq!(
            other.report.bracket_candidates,
            base.report.bracket_candidates
        );
        assert_eq!(
            other.report.abstract_candidates,
            base.report.abstract_candidates
        );
        assert_eq!(
            other.report.infobox_candidates,
            base.report.infobox_candidates
        );
        assert_eq!(other.report.tag_candidates, base.report.tag_candidates);
        assert_eq!(
            other.report.merged_candidates,
            base.report.merged_candidates
        );
        assert_eq!(other.report.verification, base.report.verification);
        assert_eq!(other.report.final_candidates, base.report.final_candidates);
        assert_eq!(
            other.report.predicates_selected,
            base.report.predicates_selected
        );
        assert_eq!(
            other.report.cycle_edges_removed,
            base.report.cycle_edges_removed
        );
        // The verified candidate set: same candidates, same order.
        assert_eq!(
            other.candidates.items, base.candidates.items,
            "verified candidates diverged at {threads} threads"
        );
        assert_eq!(
            other.chains, base.chains,
            "chains diverged at {threads} threads"
        );
        // The frozen serving snapshot answers every query identically.
        assert_frozen_equivalent(&other.freeze(), &base_frozen, &format!("{threads} threads"));
    }
}

#[test]
fn incremental_mode_is_thread_count_independent_too() {
    let batch1 = CorpusGenerator::new(CorpusConfig::tiny(902)).generate();
    let batch2 = CorpusGenerator::new(CorpusConfig::tiny(903)).generate();
    let run_both = |threads: usize| {
        let config = PipelineConfig {
            threads,
            ..PipelineConfig::fast()
        };
        let pipeline = Pipeline::new(config);
        let mut store = pipeline.run(&batch1).taxonomy;
        let (report, _) = pipeline.run_into(&batch2, &mut store);
        (
            report.stats,
            FrozenTaxonomy::freeze_with(&store, &Runtime::new(threads)),
        )
    };
    let (stats1, frozen1) = run_both(1);
    let (stats8, frozen8) = run_both(8);
    assert_eq!(stats1, stats8);
    assert_frozen_equivalent(&frozen1, &frozen8, "incremental 1 vs 8");
}

/// The write path's determinism contract: folding a delta overlay into its
/// base (compaction) produces the **byte-identical** snapshot a from-scratch
/// freeze of the same logical content produces, at every thread count.
#[test]
fn compaction_is_byte_identical_to_a_fresh_freeze_at_any_thread_count() {
    let batch1 = CorpusGenerator::new(CorpusConfig::tiny(904)).generate();
    let batch2 = CorpusGenerator::new(CorpusConfig::tiny(905)).generate();
    for threads in [1, 2, 8] {
        let config = PipelineConfig {
            threads,
            ..PipelineConfig::fast()
        };
        let pipeline = Pipeline::new(config);
        let rt = Runtime::new(threads);
        let outcome1 = pipeline.run(&batch1);
        let base = FrozenTaxonomy::freeze_with(&outcome1.taxonomy, &rt);
        let outcome2 = pipeline.run(&batch2);
        let delta = outcome2.delta_against(&base);
        assert!(!delta.is_empty(), "disjoint batch produced no delta");

        // Serve base + delta through an overlay, then fold it down.
        let view = OverlayView::new(base).apply(&delta);
        let compacted = view.compacted(&rt).expect("compaction failed");
        assert_eq!(compacted.overlay_depth(), 0, "fold left an overlay");

        // A from-scratch freeze of the same logical content...
        let mut union = outcome1.taxonomy.clone();
        delta.apply_to_store(&mut union);
        let fresh = FrozenTaxonomy::freeze_with(&union, &rt);

        // ...is byte-identical, not merely query-identical.
        assert_eq!(
            encode_frozen_v3(compacted.base()),
            encode_frozen_v3(&fresh),
            "compacted snapshot diverges from fresh freeze at {threads} threads"
        );
        assert_frozen_equivalent(
            compacted.base(),
            &fresh,
            &format!("compacted vs fresh, {threads} threads"),
        );
    }
}

/// Same contract with a *stack* of overlays (never-ending mode: each corpus
/// batch lands as one delta) — one fold collapses the whole stack, and the
/// result does not depend on the thread count either.
#[test]
fn stacked_overlays_compact_identically_across_thread_counts() {
    let batches: Vec<_> = [906, 907, 908]
        .iter()
        .map(|&seed| CorpusGenerator::new(CorpusConfig::tiny(seed)).generate())
        .collect();
    let mut encodings = Vec::new();
    for threads in [1, 2, 8] {
        let config = PipelineConfig {
            threads,
            ..PipelineConfig::fast()
        };
        let pipeline = Pipeline::new(config);
        let rt = Runtime::new(threads);
        let outcome1 = pipeline.run(&batches[0]);
        let base = FrozenTaxonomy::freeze_with(&outcome1.taxonomy, &rt);
        let mut view = OverlayView::new(base);
        let mut union = outcome1.taxonomy.clone();
        for batch in &batches[1..] {
            let outcome = pipeline.run(batch);
            // Diff against the *live overlay* — exactly what a producer
            // talking to a serving node between compactions sees.
            let delta = outcome.delta_against(&view);
            delta.apply_to_store(&mut union);
            view = view.apply(&delta);
        }
        assert_eq!(view.overlay_depth(), 2);
        let compacted = view.compacted(&rt).expect("compaction failed");
        let fresh = FrozenTaxonomy::freeze_with(&union, &rt);
        let bytes = encode_frozen_v3(compacted.base());
        assert_eq!(
            bytes,
            encode_frozen_v3(&fresh),
            "stacked compaction diverges from fresh freeze at {threads} threads"
        );
        encodings.push(bytes);
    }
    assert!(
        encodings.windows(2).all(|w| w[0] == w[1]),
        "compacted bytes differ across thread counts"
    );
}
