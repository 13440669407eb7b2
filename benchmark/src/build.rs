//! The build: a seeded corpus through `Pipeline::run(PipelineConfig::fast())`
//! on two threads, then freeze, `encode_frozen_v3` and write. The serving
//! workloads boot from its output.

use cnp_core::generation::{self, abstract_gen};
use cnp_core::{Pipeline, PipelineConfig, PipelineContext, PipelineOutcome};
use cnp_encyclopedia::{Corpus, CorpusConfig, CorpusGenerator};
use cnp_runtime::Runtime;
use cnp_taxonomy::FrozenTaxonomy;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Entity pages of the generated corpus (concept pages come on top).
pub const CORPUS_PAGES: usize = 6000;

/// Builds per run: the build runs twice on the same corpus, which both
/// steadies `build_s` and checks that it repeats byte for byte.
pub const BUILDS: usize = 2;

pub struct Built {
    pub corpus: Corpus,
    pub outcome: PipelineOutcome,
    pub frozen: FrozenTaxonomy,
    pub snapshot: PathBuf,
    pub snapshot_bytes: usize,
    pub digest: u64,
    pub generate_ms: f64,
    /// Per build: pipeline + freeze + encode + write, in seconds.
    pub build_s: Vec<f64>,
    /// Per build, in milliseconds.
    pub freeze_ms: Vec<f64>,
    pub encode_ms: Vec<f64>,
    /// Per stage name, one time per build, in milliseconds.
    pub stage_ms: Vec<(&'static str, Vec<f64>)>,
    /// Digests of the builds after the first that differ from it.
    pub digest_mismatches: usize,
    pub precision: f64,
    pub precision_sampled: usize,
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Generates the corpus for `seed` and builds the snapshot into `dir`
/// [`BUILDS`] times.
pub fn build(seed: u64, dir: &Path) -> Result<Built, String> {
    let t = Instant::now();
    let corpus = CorpusGenerator::new(CorpusConfig {
        num_pages: CORPUS_PAGES,
        ..CorpusConfig::standard(seed)
    })
    .generate();
    let generate_ms = ms_since(t);

    let snapshot = dir.join(format!("snapshot-{seed}.cnpb"));
    let mut first: Option<(PipelineOutcome, FrozenTaxonomy, usize, u64)> = None;
    let mut build_s = Vec::with_capacity(BUILDS);
    let mut freeze_ms = Vec::with_capacity(BUILDS);
    let mut encode_ms = Vec::with_capacity(BUILDS);
    let mut stage_ms: Vec<(&'static str, Vec<f64>)> = Vec::new();
    let mut digest_mismatches = 0;
    for _ in 0..BUILDS {
        let t = Instant::now();
        let outcome = Pipeline::new(PipelineConfig::fast()).run(&corpus);
        let t_freeze = Instant::now();
        let frozen = outcome.freeze();
        freeze_ms.push(ms_since(t_freeze));
        let t_encode = Instant::now();
        let bytes = cnp_taxonomy::persist::encode_frozen_v3(&frozen);
        encode_ms.push(ms_since(t_encode));
        std::fs::write(&snapshot, &bytes)
            .map_err(|e| format!("cannot write {}: {e}", snapshot.display()))?;
        build_s.push(t.elapsed().as_secs_f64());

        for (stage, took) in &outcome.report.stage_timings {
            let ms = took.as_secs_f64() * 1e3;
            match stage_ms
                .iter_mut()
                .find(|(name, _)| *name == stage.as_str())
            {
                Some((_, times)) => times.push(ms),
                None => stage_ms.push((stage.as_str(), vec![ms])),
            }
        }
        let digest = cnp_runtime::stable_hash(&bytes);
        match &first {
            None => first = Some((outcome, frozen, bytes.len(), digest)),
            Some((_, _, _, first_digest)) => {
                digest_mismatches += usize::from(digest != *first_digest);
            }
        }
    }
    let (outcome, frozen, snapshot_bytes, digest) = first.ok_or("no build ran")?;

    let estimate = cnp_eval::estimate(&outcome.candidates, &corpus.gold, 2000, seed);
    Ok(Built {
        snapshot_bytes,
        digest,
        corpus,
        outcome,
        frozen,
        snapshot,
        generate_ms,
        build_s,
        freeze_ms,
        encode_ms,
        stage_ms,
        digest_mismatches,
        precision: estimate.precision(),
        precision_sampled: estimate.sampled,
    })
}

impl Built {
    pub fn entities(&self) -> usize {
        self.frozen.num_entities()
    }
    pub fn concepts(&self) -> usize {
        self.frozen.num_concepts()
    }
    pub fn is_a(&self) -> usize {
        self.frozen.num_is_a()
    }

    /// Times the abstract stage's two halves apart: the serial CopyNet
    /// training and the two-thread extraction. Returns milliseconds.
    pub fn abstract_split(&self) -> (f64, f64) {
        let config = PipelineConfig::fast();
        let rt = Runtime::new(config.threads);
        let ctx = PipelineContext::build_with(&self.corpus, &rt);
        let (bracket, _) = generation::extract_bracket(&self.corpus.pages, &ctx, &rt);
        let pairs = generation::bracket_pairs_by_entity(&bracket);
        let samples = abstract_gen::build_dataset(
            &self.corpus.pages,
            &ctx.segmenter,
            &pairs,
            config.neural.max_samples,
        );
        let t = Instant::now();
        let (model, _) = abstract_gen::train(&samples, &config.neural);
        let train_ms = ms_since(t);
        let t = Instant::now();
        let extracted = abstract_gen::extract(&self.corpus.pages, &ctx.segmenter, &model, &rt);
        let extract_ms = ms_since(t);
        std::hint::black_box(extracted);
        (train_ms, extract_ms)
    }
}

/// Checks that `digest` is the digest every earlier run of this checkout
/// recorded for the same seed and sources, and records it if it is new.
pub fn check_digest(state: &Path, seed: u64, sources: u64, digest: u64) -> Result<(), String> {
    let path = state.join("digests.txt");
    let key = format!("pages={CORPUS_PAGES} seed={seed} sources={sources:016x}");
    let known = std::fs::read_to_string(&path).unwrap_or_default();
    for line in known.lines() {
        if let Some(rest) = line.strip_prefix(&key) {
            let recorded = rest.trim().trim_start_matches("digest=");
            return if recorded == format!("{digest:016x}") {
                Ok(())
            } else {
                Err(format!(
                    "snapshot digest {digest:016x} differs from {recorded} recorded for {key}"
                ))
            };
        }
    }
    let line = format!("{key} digest={digest:016x}\n");
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut f| std::io::Write::write_all(&mut f, line.as_bytes()))
        .map_err(|e| format!("cannot record the digest in {}: {e}", path.display()))
}
