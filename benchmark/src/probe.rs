//! In-process layer probes, run in the traced run of every workload so each
//! per-layer metric is measured on every workload: execution per query
//! kind, tagging's three stages, the tag index build, boot, overlay decode
//! and apply at several depths, and compaction.

use crate::report::Report;
use crate::stats;
use crate::streams::{self, Vocab, OPS};
use crate::trace::{Service, COMPACT_THRESHOLD};
use cnp_serve::{Query, TagIndex, TagOptions};
use cnp_tag::score::{resolve_spans, score_spans};
use cnp_taxonomy::{AnySnapshot, BootSnapshot, DeltaOverlay, OverlayView};
use std::path::Path;
use std::time::Instant;

fn us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

fn put_p50(report: &mut Report, name: &str, values: &[f64], unit: &'static str) {
    let q = stats::of(values, 0.5);
    report.put(name, q.value, unit, q.samples);
}

/// Runs every probe and records its metrics.
pub fn run(report: &mut Report, snapshot: &Path, vocab: &Vocab, seed: u64) -> Result<(), String> {
    let boot = || Service::boot_from_file(snapshot).map_err(|e| format!("boot: {e}"));

    let mut boot_ms = Vec::new();
    for _ in 0..9 {
        let t = Instant::now();
        std::hint::black_box(boot()?);
        boot_ms.push(us(t) / 1e3);
    }
    put_p50(report, "taxonomy.boot_ms", &boot_ms, "ms");

    let service = boot()?;
    let pinned = service.pin();
    let mut build_ms = Vec::new();
    for _ in 0..7 {
        let t = Instant::now();
        std::hint::black_box(TagIndex::build(pinned.frozen()));
        build_ms.push(us(t) / 1e3);
    }
    put_p50(report, "tag.index.build_ms", &build_ms, "ms");

    // Execution per query kind, on the booted service with a warm index.
    let (lookups, docs) = streams::probe_queries(vocab, seed, 7000, 1500);
    let index = pinned.tag_index();
    let mut per_op: Vec<Vec<f64>> = vec![Vec::new(); OPS.len()];
    for (op, query) in &lookups {
        let t = Instant::now();
        std::hint::black_box(pinned.execute(query));
        per_op[*op].push(us(t));
    }
    for (op, values) in OPS.iter().zip(&per_op) {
        put_p50(report, &format!("serve.execute_us.{op}"), values, "us");
    }
    let (mut tag_us, mut segment_us, mut resolve_us, mut score_us) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut spans_per_doc, mut hits_per_doc) = (0usize, 0usize);
    let options = TagOptions::default();
    for doc in &docs {
        let t = Instant::now();
        std::hint::black_box(pinned.execute(doc));
        tag_us.push(us(t));
        let Query::Tag { text, .. } = doc else {
            continue;
        };
        let t = Instant::now();
        std::hint::black_box(index.segmenter().segment(text));
        let segment = us(t);
        let t = Instant::now();
        let spans = resolve_spans(pinned.frozen(), index, text);
        let resolve = us(t);
        let t = Instant::now();
        let hits = score_spans(pinned.frozen(), &spans, &options);
        score_us.push(us(t));
        segment_us.push(segment);
        // Resolution re-segments the text; its own share excludes that.
        resolve_us.push((resolve - segment).max(0.0));
        spans_per_doc += spans.len();
        hits_per_doc += hits.len();
    }
    put_p50(report, "serve.execute_us.tag", &tag_us, "us");
    put_p50(report, "text.segment_us", &segment_us, "us");
    put_p50(report, "tag.resolve_us", &resolve_us, "us");
    put_p50(report, "tag.score_us", &score_us, "us");
    let n_docs = docs.len().max(1);
    report.put(
        "tag.spans_per_doc",
        spans_per_doc as f64 / n_docs as f64,
        "count",
        docs.len(),
    );
    report.put(
        "tag.hits_per_doc",
        hits_per_doc as f64 / n_docs as f64,
        "count",
        docs.len(),
    );

    // Overlay deltas: decode, and apply at depth 1, 4 and 16 (16 lies
    // beyond the compaction threshold, which the server would not reach).
    let deltas: Vec<DeltaOverlay> = (0..16)
        .map(|k| streams::delta(vocab, "探", seed, k).0)
        .collect();
    let encoded: Vec<_> = deltas.iter().map(DeltaOverlay::encode).collect();
    let mut decode_us = Vec::new();
    for _ in 0..8 {
        for bytes in &encoded {
            let t = Instant::now();
            let decoded = DeltaOverlay::decode(bytes).map_err(|e| format!("delta decode: {e}"))?;
            decode_us.push(us(t));
            std::hint::black_box(decoded);
        }
    }
    put_p50(report, "taxonomy.overlay.decode_us", &decode_us, "us");

    let base =
        OverlayView::new(AnySnapshot::boot_from_file(snapshot).map_err(|e| format!("boot: {e}"))?);
    let mut apply_us: [Vec<f64>; 3] = Default::default();
    for _ in 0..24 {
        let mut view = base.clone();
        for (k, delta) in deltas.iter().enumerate() {
            let t = Instant::now();
            view = view.apply(delta);
            let took = us(t);
            match k + 1 {
                1 => apply_us[0].push(took),
                4 => apply_us[1].push(took),
                16 => apply_us[2].push(took),
                _ => {}
            }
        }
        std::hint::black_box(view);
    }
    for (depth, values) in ["d1", "d4", "d16"].iter().zip(&apply_us) {
        put_p50(
            report,
            &format!("taxonomy.overlay.apply_us.{depth}"),
            values,
            "us",
        );
    }

    // Lookups at overlay depth 4, then compaction of that depth.
    let layered = boot()?;
    for delta in &deltas[..COMPACT_THRESHOLD] {
        layered.ingest(delta).map_err(|e| format!("ingest: {e}"))?;
    }
    let layered_pin = layered.pin();
    let mut overlay_us = Vec::new();
    for (_, query) in &lookups {
        let t = Instant::now();
        std::hint::black_box(layered_pin.execute(query));
        overlay_us.push(us(t));
    }
    put_p50(report, "serve.execute_us.overlay", &overlay_us, "us");

    let mut compact_ms = Vec::new();
    for _ in 0..5 {
        let service = boot()?;
        for delta in &deltas[..COMPACT_THRESHOLD] {
            service.ingest(delta).map_err(|e| format!("ingest: {e}"))?;
        }
        let t = Instant::now();
        let published = service.compact().map_err(|e| format!("compact: {e}"))?;
        compact_ms.push(us(t) / 1e3);
        if published.is_none() || service.overlay_depth() != 0 {
            return Err("an uncontended compaction published nothing".into());
        }
    }
    put_p50(report, "taxonomy.compact_ms", &compact_ms, "ms");
    Ok(())
}
