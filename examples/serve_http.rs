//! The serving stack on a wire, end to end: boot `cnp_server` on an
//! ephemeral port, talk to it over real TCP with the typed JSON protocol,
//! hot-swap the snapshot mid-traffic, and run a miniature `cnp_load`
//! workload against it.
//!
//! Uses `CNP_SNAPSHOT` when set (CI runs it against the snapshot the
//! `build_taxonomy` example just wrote), otherwise builds a small
//! taxonomy in-process. Exits non-zero on any inconsistency, so CI can
//! use it as the wire smoke test.
//!
//! ```sh
//! CNP_SNAPSHOT=/tmp/cnp.snapshot cargo run --release --example build_taxonomy
//! CNP_SNAPSHOT=/tmp/cnp.snapshot cargo run --release --example serve_http
//! ```

use cn_probase::encyclopedia::{CorpusConfig, CorpusGenerator};
use cn_probase::pipeline::{Pipeline, PipelineConfig};
use cn_probase::serve::json::Json;
use cn_probase::serve::wire;
use cn_probase::server::{http, load, serve, LoadConfig, ProbeVocab, ServerConfig};
use cn_probase::{FrozenTaxonomy, Query, TaxonomyService};
use std::io::{BufReader, BufWriter};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

#[allow(clippy::disallowed_methods)] // diverging demo helper; the examples hold no state worth unwinding
fn fail(msg: &str) -> ! {
    eprintln!("serve_http: {msg}");
    std::process::exit(1);
}

fn build_snapshot(seed: u64, name: &str) -> PathBuf {
    let corpus = CorpusGenerator::new(CorpusConfig::tiny(seed)).generate();
    let outcome = Pipeline::new(PipelineConfig::fast()).run(&corpus);
    let path = std::env::temp_dir().join(name);
    outcome
        .save_view(&path)
        .unwrap_or_else(|e| fail(&format!("cannot write snapshot: {e}")));
    path
}

/// One HTTP exchange on a fresh connection; returns `(status, body)`.
fn exchange(addr: std::net::SocketAddr, method: &str, path: &str, body: &str) -> (u16, Json) {
    let stream = TcpStream::connect(addr).unwrap_or_else(|e| fail(&format!("connect: {e}")));
    let read_half = stream
        .try_clone()
        .unwrap_or_else(|e| fail(&format!("clone: {e}")));
    let mut writer = BufWriter::new(stream);
    let mut reader = BufReader::new(read_half);
    let payload = (!body.is_empty()).then_some(body.as_bytes());
    http::write_request(&mut writer, method, path, payload, false)
        .unwrap_or_else(|e| fail(&format!("{method} {path}: write: {e}")));
    let response = http::read_client_response(&mut reader, http::MAX_BODY_BYTES)
        .unwrap_or_else(|e| fail(&format!("{method} {path}: read: {e}")))
        .unwrap_or_else(|| fail(&format!("{method} {path}: server closed early")));
    let text = std::str::from_utf8(&response.body)
        .unwrap_or_else(|_| fail(&format!("{method} {path}: non-UTF-8 body")));
    let doc = Json::parse(text)
        .unwrap_or_else(|e| fail(&format!("{method} {path}: unparseable body: {e}")));
    (response.status, doc)
}

fn main() {
    let boot_path = match std::env::var("CNP_SNAPSHOT") {
        Ok(p) if std::path::Path::new(&p).exists() => PathBuf::from(p),
        _ => build_snapshot(21, "cnp_serve_http_a.cnpb"),
    };

    // ----- boot the wire ---------------------------------------------------
    let service = Arc::new(
        TaxonomyService::<FrozenTaxonomy>::boot_from_file(&boot_path)
            .unwrap_or_else(|e| fail(&format!("boot from {}: {e}", boot_path.display()))),
    );
    let boot_generation = service.generation();
    let config = ServerConfig {
        snapshot_path: Some(boot_path.clone()),
        ..ServerConfig::default()
    };
    let handle =
        serve(Arc::clone(&service), config).unwrap_or_else(|e| fail(&format!("bind: {e}")));
    let addr = handle.addr();
    println!("cnp_server on {addr}, generation {boot_generation}");

    // ----- health ----------------------------------------------------------
    let (status, doc) = exchange(addr, "GET", "/v1/health", "");
    if status != 200 || doc.get("status").and_then(Json::as_str) != Some("ok") {
        fail(&format!("health: status {status}, body {}", doc.write()));
    }

    // ----- a typed query over the wire -------------------------------------
    let vocab =
        ProbeVocab::from_snapshot_file(&boot_path).unwrap_or_else(|e| fail(&format!("vocab: {e}")));
    if !vocab.is_usable() {
        fail("snapshot yields an empty probe vocabulary");
    }
    let mention = vocab.mentions[0].clone();
    let query = Query::men2ent(mention.clone());
    let (status, doc) = exchange(
        addr,
        "POST",
        "/v1/query",
        &wire::encode_query(&query).write(),
    );
    if status != 200 {
        fail(&format!("men2ent({mention}): status {status}"));
    }
    let response = wire::decode_response(&doc)
        .unwrap_or_else(|e| fail(&format!("men2ent({mention}): bad envelope: {e}")));
    if response.generation != boot_generation || response.result.is_err() {
        fail(&format!("men2ent({mention}): {response:?}"));
    }
    // Wire round-trip matches the in-process answer exactly.
    if response.result != service.execute(&query).result {
        fail("wire answer diverges from the in-process answer");
    }
    println!("men2ent({mention}): OK over the wire, matches in-process");

    // ----- a batch ---------------------------------------------------------
    let queries: Vec<Query> = vocab
        .mentions
        .iter()
        .take(16)
        .cloned()
        .map(Query::men2ent)
        .collect();
    let batch_body = Json::Obj(vec![(
        "queries".to_string(),
        Json::Arr(queries.iter().map(wire::encode_query).collect()),
    )]);
    let (status, doc) = exchange(addr, "POST", "/v1/batch", &batch_body.write());
    let responses = doc.get("responses").and_then(Json::as_arr);
    if status != 200 || responses.map_or(true, |r| r.len() != queries.len()) {
        fail(&format!("batch: status {status}, body {}", doc.write()));
    }
    println!("batch: {} queries in one request", queries.len());

    // ----- hostile input is refused, connection-by-connection --------------
    let (status, _) = exchange(addr, "POST", "/v1/query", "this is not json");
    if status != 400 {
        fail(&format!("malformed body: expected 400, got {status}"));
    }
    let (status, _) = exchange(addr, "POST", "/v1/nope", "{}");
    if status != 404 {
        fail(&format!("unknown endpoint: expected 404, got {status}"));
    }

    // ----- hot-swap over the wire ------------------------------------------
    let (status, doc) = exchange(addr, "POST", "/admin/reload", "");
    let reloaded = doc.get("generation").and_then(Json::as_u64);
    if status != 200 || reloaded != Some(boot_generation + 1) {
        fail(&format!("reload: status {status}, body {}", doc.write()));
    }
    let (_, doc) = exchange(
        addr,
        "POST",
        "/v1/query",
        &wire::encode_query(&query).write(),
    );
    let served =
        wire::decode_response(&doc).unwrap_or_else(|e| fail(&format!("post-reload query: {e}")));
    if served.generation != boot_generation + 1 {
        fail("post-reload traffic not on the new generation");
    }
    println!(
        "reload over the wire: generation {} -> {}",
        boot_generation, served.generation
    );

    // ----- a miniature load run against the live server --------------------
    let load_config = LoadConfig {
        addr: addr.to_string(),
        connections: 4,
        requests: 400,
        seed: 7,
        ingest_deltas: 1,
        tag_ratio: 0.25,
    };
    let t = Instant::now();
    let report = load::run(&load_config, &vocab);
    println!(
        "load: {} requests in {:.1?}: ok={} queryError={} overloaded={} protocolError={} p99={}us",
        load_config.requests,
        t.elapsed(),
        report.counts.ok,
        report.counts.query_error,
        report.counts.overloaded,
        report.counts.protocol_error,
        report.percentile_us(0.99),
    );
    if let Some(ingest) = &report.ingest {
        println!(
            "ingest under load: ok={} failed={} generations={:?}",
            ingest.ok, ingest.failed, ingest.generations
        );
    }
    if report.tag_issued > 0 {
        println!(
            "tag under load: issued={} served={} p99={}us",
            report.tag_issued,
            report.tag_latencies_us.len(),
            report.tag_percentile_us(0.99),
        );
    }
    if let Err(e) = report.check(None) {
        fail(&format!("load run: {e}"));
    }
    if report.counts.ok == 0 {
        fail("load run served nothing");
    }

    handle.shutdown();
    println!("serving over HTTP smoke: OK");
}
