//! Wire-level integration tests: a real `cnp_server` on an ephemeral
//! port, real TCP clients, hostile bytes, admission-control saturation,
//! and a live snapshot hot-swap under concurrent traffic.

use cnp_serve::json::Json;
use cnp_serve::{
    wire, ListOptions, PageRequest, Query, QueryError, Response, TagOptions, TaxonomyService,
};
use cnp_server::{http, load, serve, LoadConfig, ProbeVocab, ServerConfig, ServerHandle};
use cnp_taxonomy::{
    persist, AnySnapshot, DeltaOverlay, FrozenTaxonomy, IsAMeta, OverlayView, Source, TaxonomyStore,
};
use std::io::{BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Generation 1: 刘德华 is a 歌手, 张学友 does not exist yet.
fn store_a() -> TaxonomyStore {
    let mut s = TaxonomyStore::new();
    let liu = s.add_entity("刘德华", None);
    let singer = s.add_concept("歌手");
    let person = s.add_concept("人物");
    s.add_concept_is_a(singer, person, IsAMeta::new(Source::SubConcept, 0.9));
    s.add_entity_is_a(liu, singer, IsAMeta::new(Source::Tag, 0.9));
    s
}

/// Generation 2: 张学友 joins the taxonomy.
fn store_b() -> TaxonomyStore {
    let mut s = store_a();
    let zhang = s.add_entity("张学友", None);
    let singer = s.find_concept("歌手").unwrap();
    s.add_entity_is_a(zhang, singer, IsAMeta::new(Source::Tag, 0.95));
    s
}

fn snapshot_file(name: &str, store: &TaxonomyStore) -> PathBuf {
    let path = std::env::temp_dir().join(format!("cnp_wire_{}_{name}.cnpb", std::process::id()));
    persist::save_frozen_v3_to_file(&FrozenTaxonomy::freeze(store), &path).unwrap();
    path
}

fn boot(store: TaxonomyStore, config: ServerConfig) -> ServerHandle {
    let service = Arc::new(TaxonomyService::from_store(store));
    serve(service, config).unwrap()
}

/// One request/response on a fresh connection.
fn exchange(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, Json) {
    exchange_bytes(addr, method, path, body.as_bytes())
}

/// Like [`exchange`] but with a binary payload (delta sidecars).
fn exchange_bytes(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> (u16, Json) {
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = BufWriter::new(stream);
    let payload = (!body.is_empty()).then_some(body);
    http::write_request(&mut writer, method, path, payload, false).unwrap();
    let response = http::read_client_response(&mut reader, http::MAX_BODY_BYTES)
        .unwrap()
        .expect("server closed without responding");
    let doc = Json::parse(std::str::from_utf8(&response.body).unwrap()).unwrap();
    (response.status, doc)
}

fn post_query(addr: SocketAddr, query: &Query) -> (u16, Json) {
    exchange(
        addr,
        "POST",
        "/v1/query",
        &wire::encode_query(query).write(),
    )
}

#[test]
fn mixed_traffic_stays_generation_consistent_across_live_reload() {
    let path = snapshot_file("reload", &store_a());
    let handle = boot(
        store_a(),
        ServerConfig {
            // One worker per client plus headroom for the reload requests,
            // so persistent connections never starve each other.
            workers: 10,
            queue_capacity: 20,
            snapshot_path: Some(path.clone()),
            ..ServerConfig::default()
        },
    );
    let addr = handle.addr();

    let stop = Arc::new(AtomicBool::new(false));
    let clients: Vec<_> = (0..8)
        .map(|i| {
            let stop = Arc::clone(&stop);
            #[allow(clippy::disallowed_methods)]
            // raw client threads: this test attacks the server from outside the runtime
            std::thread::spawn(move || {
                // One persistent keep-alive connection per client thread.
                let stream = TcpStream::connect(addr).unwrap();
                stream
                    .set_read_timeout(Some(Duration::from_secs(10)))
                    .unwrap();
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut writer = BufWriter::new(stream);
                let mut observed = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    // Mixed traffic: half the threads probe the entity that
                    // only exists from generation 2, half a stable one.
                    let mention = if i % 2 == 0 { "张学友" } else { "刘德华" };
                    let body = wire::encode_query(&Query::men2ent(mention)).write();
                    http::write_request(
                        &mut writer,
                        "POST",
                        "/v1/query",
                        Some(body.as_bytes()),
                        true,
                    )
                    .unwrap();
                    let raw = http::read_client_response(&mut reader, http::MAX_BODY_BYTES)
                        .unwrap()
                        .expect("server closed a keep-alive connection");
                    let status = raw.status;
                    let doc = Json::parse(std::str::from_utf8(&raw.body).unwrap()).unwrap();
                    let response = wire::decode_response(&doc).unwrap();
                    // The answer must match the generation that served it.
                    match (mention, response.generation, &response.result) {
                        ("刘德华", _, Ok(Response::Senses(_))) => {}
                        ("张学友", 1, Err(QueryError::UnknownMention(_))) => {
                            assert_eq!(status, 404);
                        }
                        ("张学友", g, Ok(Response::Senses(_))) if g >= 2 => {}
                        other => panic!("generation-inconsistent answer: {other:?}"),
                    }
                    observed.push(response.generation);
                }
                observed
            })
        })
        .collect();

    // Let traffic flow on generation 1, then swap the snapshot file and
    // reload over the wire, mid-flight.
    std::thread::sleep(Duration::from_millis(100));
    persist::save_frozen_v3_to_file(&FrozenTaxonomy::freeze(&store_b()), &path).unwrap();
    let (status, doc) = exchange(addr, "POST", "/admin/reload", "");
    assert_eq!(status, 200, "reload: {}", doc.write());
    assert_eq!(doc.get("generation").and_then(Json::as_u64), Some(2));
    std::thread::sleep(Duration::from_millis(100));
    stop.store(true, Ordering::Relaxed);

    let mut saw_both = (false, false);
    for client in clients {
        let observed = client.join().unwrap();
        assert!(!observed.is_empty());
        // Generations are monotonic per client and span the swap.
        assert!(observed.windows(2).all(|w| w[0] <= w[1]));
        saw_both.0 |= observed.contains(&1);
        saw_both.1 |= observed.contains(&2);
    }
    assert!(
        saw_both.0 && saw_both.1,
        "traffic missed one side of the swap"
    );
    std::fs::remove_file(&path).ok();
    handle.shutdown();
}

/// The ingest-under-load gate: deltas land over the wire while eight
/// persistent clients hammer the server, with background compaction armed
/// at depth 2. Every answer must match the generation that served it —
/// readers see generation N or N+1, never a torn merge — and the stats
/// invariant `requests == ok + error` must hold once traffic drains.
#[test]
fn ingest_under_load_never_tears_a_generation() {
    let base = FrozenTaxonomy::freeze(&store_a());
    let service = Arc::new(TaxonomyService::new(OverlayView::new(base)));
    let handle = serve(
        service,
        ServerConfig {
            workers: 10,
            queue_capacity: 20,
            compact_threshold: 2,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = handle.addr();

    let stop = Arc::new(AtomicBool::new(false));
    let clients: Vec<_> = (0..8)
        .map(|i| {
            let stop = Arc::clone(&stop);
            #[allow(clippy::disallowed_methods)]
            // raw client threads: this test attacks the server from outside the runtime
            std::thread::spawn(move || {
                let stream = TcpStream::connect(addr).unwrap();
                stream
                    .set_read_timeout(Some(Duration::from_secs(10)))
                    .unwrap();
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut writer = BufWriter::new(stream);
                let mut observed = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    // Half the threads probe the entity only the first
                    // delta introduces, half a stable one.
                    let mention = if i % 2 == 0 { "张学友" } else { "刘德华" };
                    let body = wire::encode_query(&Query::men2ent(mention)).write();
                    http::write_request(
                        &mut writer,
                        "POST",
                        "/v1/query",
                        Some(body.as_bytes()),
                        true,
                    )
                    .unwrap();
                    let raw = http::read_client_response(&mut reader, http::MAX_BODY_BYTES)
                        .unwrap()
                        .expect("server closed a keep-alive connection");
                    let doc = Json::parse(std::str::from_utf8(&raw.body).unwrap()).unwrap();
                    let response = wire::decode_response(&doc).unwrap();
                    // The answer must match the generation that served it:
                    // 张学友 exists exactly from the first ingest onwards.
                    match (mention, response.generation, &response.result) {
                        ("刘德华", _, Ok(Response::Senses(_))) => {}
                        ("张学友", 1, Err(QueryError::UnknownMention(_))) => {}
                        ("张学友", g, Ok(Response::Senses(_))) if g >= 2 => {}
                        other => panic!("generation-inconsistent answer: {other:?}"),
                    }
                    observed.push(response.generation);
                }
                observed
            })
        })
        .collect();

    // Let traffic flow on generation 1, then land two deltas mid-flight;
    // the second crosses the compaction threshold.
    std::thread::sleep(Duration::from_millis(100));
    let mut delta = DeltaOverlay::new();
    delta.add_entity("张学友", None);
    delta.upsert_entity_is_a("张学友", None, "歌手", IsAMeta::new(Source::Tag, 0.95));
    let (status, doc) = exchange_bytes(addr, "POST", "/admin/ingest", &delta.encode());
    assert_eq!(status, 200, "ingest: {}", doc.write());
    assert_eq!(doc.get("status").and_then(Json::as_str), Some("ingested"));
    assert_eq!(doc.get("generation").and_then(Json::as_u64), Some(2));
    assert_eq!(doc.get("ops").and_then(Json::as_u64), Some(2));

    let mut delta = DeltaOverlay::new();
    delta.add_entity("王菲", None);
    delta.upsert_entity_is_a("王菲", None, "歌手", IsAMeta::new(Source::Tag, 0.9));
    let (status, doc) = exchange_bytes(addr, "POST", "/admin/ingest", &delta.encode());
    assert_eq!(status, 200, "ingest: {}", doc.write());
    assert_eq!(doc.get("generation").and_then(Json::as_u64), Some(3));

    // The background fold publishes as one more generation bump; wait for
    // it while the clients keep hammering.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while handle.service().overlay_depth() > 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "compaction never landed"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    std::thread::sleep(Duration::from_millis(100));
    stop.store(true, Ordering::Relaxed);

    let mut saw_both = (false, false);
    for client in clients {
        let observed = client.join().unwrap();
        assert!(!observed.is_empty());
        // Generations are monotonic per connection and span the ingest.
        assert!(observed.windows(2).all(|w| w[0] <= w[1]));
        saw_both.0 |= observed.contains(&1);
        saw_both.1 |= observed.iter().any(|&g| g >= 2);
    }
    assert!(
        saw_both.0 && saw_both.1,
        "traffic missed one side of the ingest"
    );

    // The compacted world still serves both deltas' entities.
    let (status, doc) = post_query(addr, &Query::men2ent("王菲"));
    assert_eq!(status, 200);
    let response = wire::decode_response(&doc).unwrap();
    assert!(response.generation >= 4, "compaction did not bump");
    assert!(matches!(response.result, Ok(Response::Senses(_))));

    // A corrupt sidecar is refused with a typed 400 and no swap.
    let generation = handle.service().generation();
    let (status, doc) = exchange_bytes(addr, "POST", "/admin/ingest", b"CNPDgarbage");
    assert_eq!(status, 400);
    assert_eq!(
        doc.get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str),
        Some("badDelta")
    );
    assert_eq!(handle.service().generation(), generation);

    // Drained traffic satisfies the stats invariant.
    let stats = handle.stats();
    assert_eq!(stats.requests, stats.responses_ok + stats.responses_error);
    assert_eq!(stats.overloaded, 0);
    handle.shutdown();
}

/// A reload that cannot decode its file is a typed 500 and changes
/// nothing: the server keeps answering from the generation it booted. The
/// file here is a retired v2 snapshot, refused by version number.
#[test]
fn failed_reload_keeps_serving_the_old_generation() {
    let path = snapshot_file("reload_refused", &store_a());
    let service =
        Arc::new(TaxonomyService::<OverlayView<AnySnapshot>>::boot_from_file(&path).unwrap());
    let handle = serve(
        service,
        ServerConfig {
            snapshot_path: Some(path.clone()),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = handle.addr();
    let query = Query::men2ent("刘德华");
    let (status, before) = post_query(addr, &query);
    assert_eq!(status, 200, "{}", before.write());

    std::fs::write(&path, b"CNPB\x02\x00\x00\x00").unwrap();
    let (status, doc) = exchange(addr, "POST", "/admin/reload", "");
    std::fs::remove_file(&path).ok();
    assert_eq!(status, 500, "reload: {}", doc.write());
    let error = doc.get("error").expect("typed error body");
    assert_eq!(
        error.get("kind").and_then(Json::as_str),
        Some("reloadFailed")
    );
    let detail = error.get("detail").and_then(Json::as_str).unwrap_or("");
    assert!(detail.contains("version 2"), "detail: {detail}");

    let (status, after) = post_query(addr, &query);
    assert_eq!(status, 200, "{}", after.write());
    assert_eq!(after.get("generation").and_then(Json::as_u64), Some(1));
    assert_eq!(after.write(), before.write());
    handle.shutdown();
}

#[test]
fn stale_cursor_is_refused_with_409_over_the_wire() {
    let path = snapshot_file("cursor", &store_b());
    let handle = boot(
        store_b(),
        ServerConfig {
            snapshot_path: Some(path.clone()),
            ..ServerConfig::default()
        },
    );
    let addr = handle.addr();

    // Mint a cursor on generation 1: page through 歌手's two entities.
    let page_one = Query::GetEntity {
        concept: "歌手".to_string(),
        options: ListOptions::transitive().with_page(PageRequest::first(1)),
    };
    let (status, doc) = post_query(addr, &page_one);
    assert_eq!(status, 200);
    let token = doc
        .get("result")
        .and_then(|r| r.get("next"))
        .and_then(Json::as_str)
        .expect("first page should have a next cursor")
        .to_string();

    // Hot-swap to generation 2, then replay the stale cursor.
    let (status, _) = exchange(addr, "POST", "/admin/reload", "");
    assert_eq!(status, 200);
    let stale = format!(
        r#"{{"op":"getEntity","concept":"歌手","options":{{"transitive":true,"limit":1,"cursor":"{token}"}}}}"#
    );
    let (status, doc) = exchange(addr, "POST", "/v1/query", &stale);
    assert_eq!(status, 409, "stale cursor: {}", doc.write());
    let error = doc.get("error").expect("typed error body");
    assert_eq!(
        error.get("kind").and_then(Json::as_str),
        Some("invalidCursor")
    );
    let cursor = error.get("cursor").expect("cursor detail");
    assert_eq!(
        cursor.get("kind").and_then(Json::as_str),
        Some("wrongGeneration")
    );
    assert_eq!(cursor.get("cursor").and_then(Json::as_u64), Some(1));
    assert_eq!(cursor.get("serving").and_then(Json::as_u64), Some(2));
    std::fs::remove_file(&path).ok();
    handle.shutdown();
}

#[test]
fn saturated_queue_returns_429_and_recovers() {
    // One worker, one queue slot: the third concurrent connection must be
    // refused by admission control, not buffered.
    let handle = boot(
        store_a(),
        ServerConfig {
            workers: 1,
            queue_capacity: 1,
            read_timeout: Duration::from_secs(10),
            ..ServerConfig::default()
        },
    );
    let addr = handle.addr();
    let body = wire::encode_query(&Query::men2ent("刘德华")).write();

    // Connection A parks the only worker: full headers, missing body.
    let mut park_worker = TcpStream::connect(addr).unwrap();
    write!(
        park_worker,
        "POST /v1/query HTTP/1.1\r\nconnection: close\r\ncontent-length: {}\r\n\r\n",
        body.len()
    )
    .unwrap();
    park_worker.flush().unwrap();
    std::thread::sleep(Duration::from_millis(200));

    // Connection B occupies the single queue slot.
    let fill_queue = TcpStream::connect(addr).unwrap();
    std::thread::sleep(Duration::from_millis(200));

    // Connection C: queue full -> canned 429 from the accept thread.
    let refused = TcpStream::connect(addr).unwrap();
    refused
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reader = BufReader::new(refused);
    let response = http::read_client_response(&mut reader, http::MAX_BODY_BYTES)
        .unwrap()
        .expect("refused connection should still get a response");
    assert_eq!(response.status, 429);
    let doc = Json::parse(std::str::from_utf8(&response.body).unwrap()).unwrap();
    assert_eq!(
        doc.get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str),
        Some("overloaded")
    );
    assert!(!response.keep_alive);

    // Unblock A and B; both admitted connections are still served.
    park_worker.write_all(body.as_bytes()).unwrap();
    park_worker.flush().unwrap();
    park_worker
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reader = BufReader::new(park_worker.try_clone().unwrap());
    let served = http::read_client_response(&mut reader, http::MAX_BODY_BYTES)
        .unwrap()
        .expect("parked connection should be served");
    assert_eq!(served.status, 200);

    let mut writer = BufWriter::new(fill_queue.try_clone().unwrap());
    http::write_request(
        &mut writer,
        "POST",
        "/v1/query",
        Some(body.as_bytes()),
        false,
    )
    .unwrap();
    fill_queue
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reader = BufReader::new(fill_queue);
    let served = http::read_client_response(&mut reader, http::MAX_BODY_BYTES)
        .unwrap()
        .expect("queued connection should be served");
    assert_eq!(served.status, 200);

    assert_eq!(handle.stats().overloaded, 1);
    handle.shutdown();
}

#[test]
fn hostile_bytes_get_typed_refusals_and_the_server_survives() {
    let handle = boot(
        store_a(),
        ServerConfig {
            read_timeout: Duration::from_millis(500),
            ..ServerConfig::default()
        },
    );
    let addr = handle.addr();

    let hostile: &[(&[u8], u16)] = &[
        (b"GARBAGE\r\n\r\n", 400),
        (b"\x00\x01\x02\x03\r\n\r\n", 400),
        (
            b"POST /v1/query HTTP/1.1\r\ncontent-length: 999999999\r\n\r\n",
            413,
        ),
        (b"DELETE /v1/query HTTP/1.1\r\n\r\n", 405),
        (
            b"POST /v1/query HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n",
            400,
        ),
        (b"POST /v1/query HTTP/1.1\r\nno-colon-here\r\n\r\n", 400),
    ];
    for (bytes, expected) in hostile {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream.write_all(bytes).unwrap();
        stream.flush().unwrap();
        let mut reader = BufReader::new(stream);
        let response = http::read_client_response(&mut reader, http::MAX_BODY_BYTES)
            .unwrap()
            .unwrap_or_else(|| panic!("no response for {bytes:?}"));
        assert_eq!(response.status, *expected, "for {bytes:?}");
        assert!(
            !response.keep_alive,
            "hostile input must close the connection"
        );
    }

    // A truncated request (headers never finish) just times out and closes.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .write_all(b"POST /v1/query HTTP/1.1\r\ncontent-le")
        .unwrap();
    stream.flush().unwrap();
    let mut sink = Vec::new();
    stream.read_to_end(&mut sink).unwrap();
    assert!(sink.is_empty(), "truncated request got a reply: {sink:?}");

    // After all of that, the server still serves clean traffic.
    let (status, doc) = post_query(addr, &Query::men2ent("刘德华"));
    assert_eq!(status, 200);
    assert!(wire::decode_response(&doc).unwrap().result.is_ok());
    assert!(handle.stats().malformed >= hostile.len() as u64);
    handle.shutdown();
}

#[test]
fn keep_alive_serves_many_requests_on_one_connection() {
    let handle = boot(store_a(), ServerConfig::default());
    let addr = handle.addr();

    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = BufWriter::new(stream);
    let body = wire::encode_query(&Query::men2ent("刘德华")).write();
    for i in 0..50 {
        http::write_request(
            &mut writer,
            "POST",
            "/v1/query",
            Some(body.as_bytes()),
            true,
        )
        .unwrap();
        let response = http::read_client_response(&mut reader, http::MAX_BODY_BYTES)
            .unwrap()
            .unwrap_or_else(|| panic!("request {i}: connection dropped"));
        assert_eq!(response.status, 200);
        assert!(response.keep_alive);
    }
    let stats = handle.stats();
    assert_eq!(stats.connections, 1, "keep-alive reused the connection");
    assert_eq!(stats.requests, 50);
    assert_eq!(stats.responses_ok, 50);
    handle.shutdown();
}

#[test]
fn batch_endpoint_answers_from_one_generation() {
    let handle = boot(store_b(), ServerConfig::default());
    let addr = handle.addr();
    let queries = [
        Query::men2ent("刘德华"),
        Query::men2ent("张学友"),
        Query::IsA {
            sub: "刘德华".to_string(),
            sup: "人物".to_string(),
            transitive: true,
        },
    ];
    let body = Json::Obj(vec![(
        "queries".to_string(),
        Json::Arr(queries.iter().map(wire::encode_query).collect()),
    )]);
    let (status, doc) = exchange(addr, "POST", "/v1/batch", &body.write());
    assert_eq!(status, 200);
    assert_eq!(doc.get("generation").and_then(Json::as_u64), Some(1));
    let responses = doc.get("responses").and_then(Json::as_arr).unwrap();
    assert_eq!(responses.len(), queries.len());
    for item in responses {
        let response = wire::decode_response(item).unwrap();
        assert_eq!(response.generation, 1);
        assert!(response.result.is_ok());
    }
    // Oversized batches are refused with 413.
    let huge = format!(
        r#"{{"queries":[{}]}}"#,
        vec![wire::encode_query(&queries[0]).write(); cnp_server::MAX_BATCH + 1].join(",")
    );
    let (status, _) = exchange(addr, "POST", "/v1/batch", &huge);
    assert_eq!(status, 413);
    handle.shutdown();
}

/// The tagging workload, end to end on the wire: the dedicated `/v1/tag`
/// endpoint, the same ops through `/v1/query` and `/v1/batch`, hostile
/// bodies, and the per-kind serving counters in `/v1/health`.
#[test]
fn tag_endpoint_serves_documents_and_counts_its_kind() {
    let handle = boot(store_b(), ServerConfig::default());
    let addr = handle.addr();

    // Tag a document over the dedicated endpoint (op defaults to "tag").
    let (status, doc) = exchange(addr, "POST", "/v1/tag", r#"{"text":"刘德华和张学友。"}"#);
    assert_eq!(status, 200, "tag: {}", doc.write());
    let response = wire::decode_response(&doc).unwrap();
    assert_eq!(response.generation, 1);
    let Ok(Response::Tags(output)) = response.result else {
        panic!("expected a tags result: {:?}", response.result);
    };
    assert!(!output.spans.is_empty(), "no evidence spans");
    assert!(
        output.concepts.iter().any(|hit| hit.name == "歌手"),
        "tagger missed 歌手: {:?}",
        output.concepts
    );

    // op:"classify" selects the concepts-only variant on the same route.
    let (status, doc) = exchange(
        addr,
        "POST",
        "/v1/tag",
        r#"{"op":"classify","text":"刘德华","options":{"topK":1}}"#,
    );
    assert_eq!(status, 200);
    let response = wire::decode_response(&doc).unwrap();
    let Ok(Response::Classified(hits)) = response.result else {
        panic!("expected a classified result: {:?}", response.result);
    };
    assert_eq!(hits.len(), 1);

    // The same query family flows through /v1/query …
    let tag_query = Query::Tag {
        text: "刘德华".to_string(),
        options: TagOptions::default(),
    };
    let (status, doc) = post_query(addr, &tag_query);
    assert_eq!(status, 200);
    assert!(matches!(
        wire::decode_response(&doc).unwrap().result,
        Ok(Response::Tags(_))
    ));

    // … and /v1/batch, mixed with lookup traffic, on one generation.
    let batch = Json::Obj(vec![(
        "queries".to_string(),
        Json::Arr(vec![
            wire::encode_query(&Query::men2ent("刘德华")),
            wire::encode_query(&tag_query),
        ]),
    )]);
    let (status, doc) = exchange(addr, "POST", "/v1/batch", &batch.write());
    assert_eq!(status, 200);
    let responses = doc.get("responses").and_then(Json::as_arr).unwrap();
    assert_eq!(responses.len(), 2);
    assert!(matches!(
        wire::decode_response(&responses[1]).unwrap().result,
        Ok(Response::Tags(_))
    ));

    // Unknown text is an *empty* answer, never an error.
    let (status, doc) = exchange(addr, "POST", "/v1/tag", r#"{"text":"火星话xyzzy"}"#);
    assert_eq!(status, 200);
    let response = wire::decode_response(&doc).unwrap();
    let Ok(Response::Tags(output)) = response.result else {
        panic!("unknown text must still answer Ok");
    };
    assert!(output.concepts.is_empty());

    // Hostile bodies get typed 400s; the wrong method gets 405.
    let hostile = [
        "not json at all",
        r#"{"nota":"tagquery"}"#,
        r#"{"text":7}"#,
        r#"{"op":"men2ent","text":"刘德华"}"#,
        r#"{"text":"刘德华","options":{"topK":"many"}}"#,
        "{\"text\":\"\u{0}\\u0000黑客\u{7}\"",
    ];
    for bad in hostile {
        let (status, doc) = exchange(addr, "POST", "/v1/tag", bad);
        assert_eq!(
            status,
            400,
            "accepted hostile body {bad:?}: {}",
            doc.write()
        );
    }
    let (status, _) = exchange(addr, "GET", "/v1/tag", "");
    assert_eq!(status, 405);

    // The per-kind counters: 4 tag-kind requests (3 on /v1/tag that
    // decoded, 1 tag op on /v1/query), 1 lookup (inside the batch does
    // not count — the batch itself is the unit), 1 batch. Hostile bodies
    // and the 405 carry no kind.
    let stats = handle.stats();
    assert_eq!(stats.kind_tag, 4);
    assert_eq!(stats.kind_lookup, 0);
    assert_eq!(stats.kind_batch, 1);
    assert!(stats.kinds_total() <= stats.requests);

    // /v1/health reports the same counters over the wire.
    let (status, doc) = exchange(addr, "GET", "/v1/health", "");
    assert_eq!(status, 200);
    let reported = doc.get("stats").expect("stats section");
    assert_eq!(reported.get("kindTag").and_then(Json::as_u64), Some(4));
    assert_eq!(reported.get("kindBatch").and_then(Json::as_u64), Some(1));
    // The health probe itself is a request with no kind, so the sum of
    // kinds stays strictly below requests here.
    let requests = reported.get("requests").and_then(Json::as_u64).unwrap();
    assert!(requests > 5);
    handle.shutdown();
}

#[test]
fn load_harness_completes_on_runtime_tasks_and_survives_dead_servers() {
    let handle = boot(store_a(), ServerConfig::default());
    let vocab = ProbeVocab {
        mentions: vec!["刘德华".to_string()],
        entity_keys: vec!["刘德华（歌手）".to_string()],
        concepts: vec!["歌手".to_string()],
    };
    // More connections than the remainder exercises the uneven split
    // (10 requests over 4 tasks = 3 + 3 + 2 + 2). Two deltas ride along
    // on the ingest task and must land as generations 2 and 3.
    let report = load::run(
        &LoadConfig {
            addr: handle.addr().to_string(),
            connections: 4,
            requests: 10,
            seed: 7,
            ingest_deltas: 2,
            tag_ratio: 0.0,
        },
        &vocab,
    );
    assert_eq!(report.counts.protocol_error, 0);
    assert_eq!(report.counts.overloaded, 0);
    assert_eq!(report.counts.ok + report.counts.query_error, 10);
    assert_eq!(report.latencies_us.len(), 10);
    let ingest = report.ingest.as_ref().expect("ingest stats");
    assert_eq!((ingest.ok, ingest.failed), (2, 0));
    assert_eq!(ingest.generations, [2, 3]);
    assert!(report.check(None).is_ok());

    // A mixed tag/lookup run drives /v1/tag through the harness: every
    // request served, zero tag protocol errors, and the per-kind buckets
    // partition the latencies.
    let report = load::run(
        &LoadConfig {
            addr: handle.addr().to_string(),
            connections: 2,
            requests: 40,
            seed: 11,
            ingest_deltas: 0,
            tag_ratio: 0.5,
        },
        &vocab,
    );
    assert_eq!(report.counts.protocol_error, 0);
    assert_eq!(report.counts.tag_protocol_error, 0);
    assert_eq!(report.counts.ok + report.counts.query_error, 40);
    assert!(report.tag_issued > 0, "tag ratio 0.5 issued no tag traffic");
    assert_eq!(report.tag_latencies_us.len() as u64, report.tag_issued);
    assert_eq!(
        report.lookup_latencies_us.len() + report.tag_latencies_us.len(),
        report.latencies_us.len()
    );
    assert!(report.check(None).is_ok());
    handle.shutdown();

    // Nobody listening: every exchange must come back as a typed wire
    // failure. (The pre-fix client expected a live connection and
    // panicked instead of reporting.)
    let report = load::run(
        &LoadConfig {
            addr: "127.0.0.1:9".to_string(),
            connections: 2,
            requests: 6,
            seed: 7,
            ingest_deltas: 0,
            tag_ratio: 0.0,
        },
        &vocab,
    );
    assert_eq!(report.counts.protocol_error, 6);
    assert_eq!(report.counts.ok, 0);
    assert!(report.latencies_us.is_empty());
}
