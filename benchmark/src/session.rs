//! The server sessions of one run: the set-up spawns, then one server that
//! gets the warm-up, the timed open-loop phase and what follows it.

use crate::load::{self, WireRun};
use crate::pin::{self, Place};
use crate::report::Report;
use crate::server::{Conn, Health, ProcSample, ServerProcess};
use crate::streams::{self, Kind, Stream, Vocab};
use cnp_serve::json::Json;
use cnp_serve::{wire, ListOptions, Query, Response};
use cnp_server::http;
use std::path::Path;
use std::time::{Duration, Instant};

/// Server spawns per set-up block, and the pause before each. A run
/// measures three blocks. The pauses spread each block over most of a
/// second, so one burst of load elsewhere on the machine moves a few
/// spawns, not the median.
const SETUP_SPAWNS: usize = 16;
const SETUP_GAP: Duration = Duration::from_millis(40);
/// Deltas posted to an otherwise idle server after the timed phase of the
/// read-only workloads, and the gap between them. The gap outlasts a
/// compaction (~25 ms), so each fold publishes before the next delta.
const IDLE_APPLIES: usize = 60;
const IDLE_APPLY_GAP: Duration = Duration::from_millis(40);
/// The timed phase is cut into windows of this length; latency quantiles
/// and per-request costs are taken per window and reported as the median
/// over windows, so one stall of the machine moves one window, not the run.
pub const WINDOW: Duration = Duration::from_secs(1);

/// Starts the server on its CPUs; the calling thread, and so the load
/// generator it starts, stays on the client's.
fn spawn(server: &Path, snapshot: &Path) -> Result<ServerProcess, String> {
    pin::to(Place::Server);
    let process = ServerProcess::spawn(server, snapshot);
    pin::to(Place::Client);
    process
}

/// One block of spawn-to-first-response times: each spawn answers the first
/// request of every kind the stream sends. The server and the client share
/// the client's CPU here: set-up is one chain of hand-offs, so neither
/// side waits on the other's core to wake, and the timing is the work
/// rather than how long a halted vCPU takes to be scheduled again.
pub fn measure_setup(server: &Path, snapshot: &Path, stream: &Stream) -> Result<Vec<f64>, String> {
    let mut firsts: Vec<usize> = Vec::new();
    let mut seen: Vec<std::mem::Discriminant<Kind>> = Vec::new();
    for (i, kind) in stream.kinds.iter().enumerate() {
        let d = std::mem::discriminant(kind);
        if !seen.contains(&d) {
            seen.push(d);
            firsts.push(i);
        }
    }
    let mut times = Vec::with_capacity(SETUP_SPAWNS);
    for _ in 0..SETUP_SPAWNS {
        std::thread::sleep(SETUP_GAP);
        let t = Instant::now();
        let process = ServerProcess::spawn(server, snapshot)?;
        let mut conn = Conn::connect(process.addr).map_err(|e| format!("connect: {e}"))?;
        for &i in &firsts {
            match conn.exchange(stream.raw(i)) {
                Ok(r) if r.status == 200 => {}
                other => return Err(format!("set-up request {i} failed: {other:?}")),
            }
        }
        times.push(t.elapsed().as_secs_f64());
    }
    Ok(times)
}

/// One `/admin/ingest` acknowledgement.
#[derive(Debug, Clone, Copy)]
pub struct Ack {
    /// From sending the delta to its acknowledgement.
    pub latency_us: f64,
    pub ok: bool,
    pub generation: u64,
    pub depth: u64,
}

impl Ack {
    fn parse(latency_us: f64, status: u16, body: &[u8]) -> Ack {
        let doc = std::str::from_utf8(body)
            .ok()
            .and_then(|t| Json::parse(t).ok());
        let field = |key: &str| doc.as_ref().and_then(|d| d.get(key));
        let generation = field("generation").and_then(Json::as_u64);
        Ack {
            latency_us,
            ok: status == 200
                && field("status").and_then(Json::as_str) == Some("ingested")
                && generation.is_some(),
            generation: generation.unwrap_or(0),
            depth: field("overlayDepth").and_then(Json::as_u64).unwrap_or(0),
        }
    }
}

/// What the timed server session observed.
pub struct Session {
    pub wire: WireRun,
    /// Server counters at the start and at the end of every window.
    pub probes: Vec<ProcSample>,
    pub before: Health,
    pub after: Health,
    pub acks: Vec<Ack>,
}

/// Warms a fresh server, runs `stream` open-loop, then posts the idle
/// applies (read-only workloads) or checks the ingested entities.
pub fn run(
    report: &mut Report,
    server: &Path,
    snapshot: &Path,
    stream: &Stream,
    warmup: &Stream,
    vocab: &Vocab,
    seed: u64,
) -> Result<Session, String> {
    let process = spawn(server, snapshot)?;
    let connect = || Conn::connect(process.addr).map_err(|e| format!("connect: {e}"));
    let mut conns = [connect()?, connect()?];
    let warm_failures = load::closed_loop(&mut conns, warmup);
    if warm_failures > 0 {
        report.fail(format!("{warm_failures} warm-up requests failed"));
    }
    let before = conns[0].health()?;
    let (wire, probes) = load::open_loop(&mut conns, stream, WINDOW, || process.sample());
    let probes = probes.into_iter().collect::<Result<Vec<_>, _>>()?;
    let after = conns[0].health()?;

    let acks = if stream.deltas.is_empty() {
        idle_applies(&mut conns[0], vocab, seed)
    } else {
        check_ingested(report, &mut conns[0], stream, &wire);
        stream
            .kinds
            .iter()
            .enumerate()
            .filter(|(_, kind)| matches!(kind, Kind::Ingest(_)))
            .map(|(i, _)| {
                // Waiting behind the connection's previous request is in
                // `loadgen.late_*`, not in the apply.
                let sample = wire.samples[i];
                let from_send_us = (sample.latency_ns - sample.late_ns) as f64 / 1e3;
                Ack::parse(from_send_us, sample.status, wire.body(i))
            })
            .collect()
    };
    Ok(Session {
        wire,
        probes,
        before,
        after,
        acks,
    })
}

fn idle_applies(conn: &mut Conn, vocab: &Vocab, seed: u64) -> Vec<Ack> {
    (0..IDLE_APPLIES)
        .map(|k| {
            let (delta, _) = streams::delta(vocab, "闲", seed, k);
            let mut raw = Vec::new();
            let _ = http::write_request(
                &mut raw,
                "POST",
                "/admin/ingest",
                Some(&delta.encode()),
                true,
            );
            std::thread::sleep(IDLE_APPLY_GAP);
            let t = Instant::now();
            match conn.exchange(&raw) {
                Ok(r) => Ack::parse(t.elapsed().as_secs_f64() * 1e6, r.status, &r.body),
                Err(_) => Ack::parse(f64::INFINITY, 0, &[]),
            }
        })
        .collect()
}

/// Ingest checks: read generations never fall per connection, and every
/// ingested entity resolves to its concept through `men2ent`.
fn check_ingested(report: &mut Report, conn: &mut Conn, stream: &Stream, wire: &WireRun) {
    let mut last = [0u64; 2];
    let mut falls = 0usize;
    for i in 0..stream.len() {
        if !stream.kinds[i].is_read() || wire.samples[i].status != 200 {
            continue;
        }
        let generation = std::str::from_utf8(wire.body(i))
            .ok()
            .and_then(|t| Json::parse(t).ok())
            .and_then(|d| d.get("generation").and_then(Json::as_u64));
        match generation {
            Some(g) if g >= last[i % 2] => last[i % 2] = g,
            _ => falls += 1,
        }
    }
    if falls > 0 {
        report.failed += falls as u64;
        report.fail(format!(
            "{falls} reads saw an older generation than an earlier read on their connection"
        ));
    }

    let mut unresolved = 0usize;
    let mut checked = 0usize;
    for (name, concept) in stream.deltas.iter().flatten() {
        checked += 1;
        let query = Query::GetConceptByMention {
            mention: name.clone(),
            options: ListOptions::default(),
        };
        let body = wire::encode_query(&query).write();
        let mut raw = Vec::new();
        let _ = http::write_request(&mut raw, "POST", "/v1/query", Some(body.as_bytes()), true);
        let resolved = conn
            .exchange(&raw)
            .ok()
            .filter(|r| r.status == 200)
            .and_then(|r| {
                let doc = Json::parse(std::str::from_utf8(&r.body).ok()?).ok()?;
                wire::decode_response(&doc).ok()
            })
            .and_then(|r| r.result.ok())
            .is_some_and(|r| match r {
                Response::Concepts(page) => page.items.iter().any(|h| &h.name == concept),
                _ => false,
            });
        if !resolved {
            unresolved += 1;
        }
    }
    if unresolved > 0 {
        report.failed += unresolved as u64;
        report.fail(format!(
            "{unresolved} of {checked} ingested entities do not resolve to their concept"
        ));
    }
}
