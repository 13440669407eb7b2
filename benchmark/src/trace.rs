//! The traced in-process replay.
//!
//! It feeds the exact request bytes of a stream through the public
//! functions `cnp_server` calls, in the order it calls them:
//! `http::read_request` → `Json::parse` → `wire::decode_query` (or
//! `decode_tag_query`) → `TaxonomyService::execute` →
//! `wire::encode_response` → `Json::write` → `http::write_response`, and for
//! ingest posts `DeltaOverlay::decode` → `TaxonomyService::ingest` →
//! `compact`. Each call can record one span; spans stay in memory until the
//! run ends. With tracing off the same calls run without clock reads, which
//! is how the tracing overhead is measured.

use crate::streams::{Kind, Stream, OPS};
use cnp_serve::json::Json;
use cnp_serve::{wire, TaxonomyService};
use cnp_server::http;
use cnp_taxonomy::{AnySnapshot, DeltaOverlay, OverlayView};
use std::io::BufReader;
use std::time::Instant;

/// The service type `cnp_server` boots.
pub type Service = TaxonomyService<OverlayView<AnySnapshot>>;

/// The server's default `--compact-threshold`.
pub const COMPACT_THRESHOLD: usize = 4;

/// A layer boundary a span is recorded at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// The whole request; its self time is the glue between layers.
    Request,
    HttpRead,
    JsonParse,
    WireDecode,
    /// `TaxonomyService::execute`, by [`OPS`] index; 7 is a tag document.
    Execute(u8),
    WireEncode,
    JsonWrite,
    HttpWrite,
    DeltaDecode,
    Ingest,
    Compact,
}

impl Layer {
    pub fn name(self) -> String {
        match self {
            Layer::Request => "request".into(),
            Layer::HttpRead => "server.http.read".into(),
            Layer::JsonParse => "serve.json.parse".into(),
            Layer::WireDecode => "serve.wire.decode".into(),
            Layer::Execute(op) => format!(
                "serve.execute.{}",
                OPS.get(op as usize).copied().unwrap_or("tag")
            ),
            Layer::WireEncode => "serve.wire.encode".into(),
            Layer::JsonWrite => "serve.json.write".into(),
            Layer::HttpWrite => "server.http.write".into(),
            Layer::DeltaDecode => "taxonomy.overlay.decode".into(),
            Layer::Ingest => "serve.ingest".into(),
            Layer::Compact => "taxonomy.compact".into(),
        }
    }
}

/// No parent.
pub const ROOT: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub layer: Layer,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span, or [`ROOT`].
    pub parent: u32,
    /// The request the span belongs to.
    pub request: u32,
}

/// An in-memory span recorder.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool, capacity: usize) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::with_capacity(if on { capacity } else { 0 }),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its index ([`ROOT`] when tracing is off).
    pub fn open(&mut self, layer: Layer, parent: u32, request: u32) -> u32 {
        if !self.on {
            return ROOT;
        }
        let start_ns = self.now();
        self.spans.push(Span {
            layer,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn close(&mut self, span: u32) {
        if self.on {
            let end = self.now();
            self.spans[span as usize].end_ns = end;
        }
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, layer: Layer, parent: u32, request: u32, f: impl FnOnce() -> R) -> R {
        let span = self.open(layer, parent, request);
        let out = f();
        self.close(span);
        out
    }

    /// Self time of every span, in microseconds: its duration minus the
    /// time its children cover.
    pub fn self_us(&self) -> Vec<f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .map(|(s, child)| (s.end_ns - s.start_ns).saturating_sub(child) as f64 / 1e3)
            .collect()
    }
}

/// Per-request facts the replay learns that the tracer does not hold.
#[derive(Debug, Default)]
pub struct ReplayOutcome {
    /// Response body sizes of read requests, in bytes.
    pub response_bytes: Vec<f64>,
    /// Requests whose replay failed (unparseable, refused, wrong status).
    pub errors: Vec<String>,
    pub wall_s: f64,
}

/// Replays the first `count` requests of `stream` in-process on `service`;
/// `on_body(i, status, body)` sees the response of each read request.
pub fn replay(
    service: &Service,
    stream: &Stream,
    count: usize,
    tracer: &mut Tracer,
    mut on_body: impl FnMut(usize, u16, &[u8]),
) -> ReplayOutcome {
    let mut outcome = ReplayOutcome::default();
    let mut out = Vec::with_capacity(16 * 1024);
    let started = Instant::now();
    for i in 0..count.min(stream.len()) {
        let id = i as u32;
        let root = tracer.open(Layer::Request, ROOT, id);
        let parsed = tracer.span(Layer::HttpRead, root, id, || {
            http::read_request(&mut BufReader::new(stream.raw(i)), http::MAX_BODY_BYTES)
        });
        let request = match parsed {
            Ok(Some(request)) => request,
            other => {
                tracer.close(root);
                outcome
                    .errors
                    .push(format!("request {i}: http parse {other:?}"));
                continue;
            }
        };
        let (status, body) = match stream.kinds[i] {
            Kind::Ingest(_) => {
                let delta = tracer.span(Layer::DeltaDecode, root, id, || {
                    DeltaOverlay::decode(&request.body)
                });
                let Ok(delta) = delta else {
                    tracer.close(root);
                    outcome
                        .errors
                        .push(format!("request {i}: delta decode failed"));
                    continue;
                };
                let generation = tracer.span(Layer::Ingest, root, id, || service.ingest(&delta));
                if service.overlay_depth() >= COMPACT_THRESHOLD {
                    let compacted = tracer.span(Layer::Compact, root, id, || service.compact());
                    if compacted.is_err() {
                        outcome
                            .errors
                            .push(format!("request {i}: compaction failed"));
                    }
                }
                match generation {
                    Ok(generation) => {
                        let body = Json::Obj(vec![
                            ("status".to_string(), Json::str("ingested")),
                            ("generation".to_string(), Json::num(generation as f64)),
                        ]);
                        (200, body.write())
                    }
                    Err(e) => {
                        outcome.errors.push(format!("request {i}: ingest {e}"));
                        (500, String::new())
                    }
                }
            }
            kind => {
                let doc = std::str::from_utf8(&request.body)
                    .map_err(|e| e.to_string())
                    .and_then(|text| {
                        tracer.span(Layer::JsonParse, root, id, || {
                            Json::parse(text).map_err(|e| e.to_string())
                        })
                    });
                let query = doc.and_then(|doc| {
                    tracer.span(Layer::WireDecode, root, id, || {
                        if kind == Kind::Tag {
                            wire::decode_tag_query(&doc)
                        } else {
                            wire::decode_query(&doc)
                        }
                        .map_err(|e| e.to_string())
                    })
                });
                let query = match query {
                    Ok(query) => query,
                    Err(e) => {
                        tracer.close(root);
                        outcome.errors.push(format!("request {i}: {e}"));
                        continue;
                    }
                };
                let op = match kind {
                    Kind::Lookup(op) => op,
                    _ => 7,
                };
                let response =
                    tracer.span(Layer::Execute(op), root, id, || service.execute(&query));
                let status = wire::status_for(&response.result);
                let json = tracer.span(Layer::WireEncode, root, id, || {
                    wire::encode_response(&response)
                });
                let body = tracer.span(Layer::JsonWrite, root, id, || json.write());
                (status, body)
            }
        };
        out.clear();
        let written = tracer.span(Layer::HttpWrite, root, id, || {
            http::write_response(&mut out, status, body.as_bytes(), true)
        });
        tracer.close(root);
        if written.is_err() {
            outcome
                .errors
                .push(format!("request {i}: response write failed"));
        }
        if stream.kinds[i].is_read() {
            outcome.response_bytes.push(body.len() as f64);
            on_body(i, status, body.as_bytes());
        }
    }
    outcome.wall_s = started.elapsed().as_secs_f64();
    outcome
}
