//! The network front-end: a `TcpListener` accept loop feeding a bounded
//! connection queue drained by persistent worker threads.
//!
//! The flow is deliberately boring — and bounded at every step:
//!
//! 1. The accept thread takes a connection and offers it to the
//!    [`cnp_runtime::BoundedQueue`]. A **full queue refuses the
//!    connection**: the accept thread writes a canned `429` with
//!    `Retry-After` and closes — saturation becomes an explicit, typed
//!    `Overloaded` signal instead of an ever-growing backlog ([admission
//!    control]).
//! 2. A worker pops the connection and serves its keep-alive request
//!    loop: parse (hard size caps, typed 400/413/405 on hostile input),
//!    route, execute on the [`TaxonomyService`], write the JSON response.
//! 3. Snapshot reloads (`POST /admin/reload`) go through the service's
//!    generation hot-swap: the load happens on the worker, **no lock is
//!    held**, in-flight queries drain on the generation they pinned, and
//!    every response carries its generation — the drain-on-reload story
//!    is the one PR 5 built, now reachable over the wire.
//! 4. [`ServerHandle::shutdown`] closes the queue (admitted connections
//!    still drain), unblocks the accept loop, and joins every thread.
//!
//! [admission control]: crate::ServerConfig::queue_capacity

use crate::http::{self, HttpError, Request};
use crate::stats::{QueryKind, ServerStats};
use cnp_runtime::{BoundedQueue, PushError, WorkerPool};
use cnp_serve::json::Json;
use cnp_serve::{wire, Query, TaxonomyService};
use cnp_taxonomy::{BootSnapshot, DeltaOverlay, FrozenTaxonomy, IngestDelta, TaxonomyRead};
use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Upper bound on queries per `/v1/batch` request.
pub const MAX_BATCH: usize = 1024;

/// Tuning knobs for [`serve`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port `0` picks an ephemeral port (see
    /// [`ServerHandle::addr`]).
    pub addr: String,
    /// Connection-handling worker threads.
    pub workers: usize,
    /// Admission bound: connections queued but not yet picked up by a
    /// worker. Beyond this, new connections get `429 Overloaded`.
    pub queue_capacity: usize,
    /// Per-request body cap (clamped to [`http::MAX_BODY_BYTES`]).
    pub max_body_bytes: usize,
    /// Socket read timeout. Doubles as the keep-alive idle timeout and
    /// bounds how long shutdown waits for parked workers.
    pub read_timeout: Duration,
    /// Snapshot file `POST /admin/reload` re-reads. `None` disables the
    /// endpoint.
    pub snapshot_path: Option<PathBuf>,
    /// Overlay segments a `POST /admin/ingest` may accumulate before the
    /// server schedules a background compaction (base + overlays folded
    /// into a fresh base on a dedicated worker; queries and ingests keep
    /// flowing the whole time). `0` disables automatic compaction.
    pub compact_threshold: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        let workers = cnp_runtime::default_threads();
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers,
            queue_capacity: workers * 2,
            max_body_bytes: http::MAX_BODY_BYTES,
            read_timeout: Duration::from_secs(5),
            snapshot_path: None,
            compact_threshold: 4,
        }
    }
}

struct Shared<T> {
    service: Arc<TaxonomyService<T>>,
    stats: ServerStats,
    shutdown: AtomicBool,
    config: ServerConfig,
    /// One background worker with a one-slot queue: at most one
    /// compaction runs, at most one more is pending. `try_execute`'s
    /// "queue full" just means a fold is already scheduled — the next
    /// over-threshold ingest will try again.
    compactor: WorkerPool,
}

/// A running server. Dropping the handle shuts the server down; call
/// [`ServerHandle::shutdown`] for an explicit graceful stop or
/// [`ServerHandle::wait`] to park the calling thread (the `cnp_server`
/// binary does).
///
/// `T` is the snapshot backend the service answers from — the owned
/// [`FrozenTaxonomy`] default or the zero-copy `AnySnapshot` view.
pub struct ServerHandle<T = FrozenTaxonomy> {
    addr: SocketAddr,
    shared: Arc<Shared<T>>,
    queue: Arc<BoundedQueue<TcpStream>>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl<T> std::fmt::Debug for ServerHandle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle")
            .field("addr", &self.addr)
            .field("workers", &self.workers.len())
            .finish()
    }
}

impl<T> ServerHandle<T> {
    /// The bound address (resolves port `0` to the actual ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A point-in-time copy of the serving counters.
    pub fn stats(&self) -> crate::stats::StatsSnapshot {
        self.shared.stats.snapshot()
    }

    /// The service behind the wire — the embedding process can keep
    /// executing in-process queries and hot-swaps on it.
    pub fn service(&self) -> &Arc<TaxonomyService<T>> {
        &self.shared.service
    }

    /// Blocks until the accept loop exits (i.e. until another thread
    /// triggers shutdown or the process dies).
    pub fn wait(mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        self.finish();
    }

    /// Graceful stop: refuse new connections, drain admitted ones, join
    /// every thread.
    pub fn shutdown(mut self) {
        self.begin_shutdown();
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        self.finish();
    }

    fn begin_shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.queue.close();
        // Unblock the accept loop with a throwaway connection; it checks
        // the flag before admitting anything.
        let _ = TcpStream::connect(self.addr);
    }

    fn finish(&mut self) {
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl<T> Drop for ServerHandle<T> {
    fn drop(&mut self) {
        self.begin_shutdown();
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        self.finish();
    }
}

/// Binds `config.addr` and serves `service` until the returned handle is
/// shut down or dropped.
///
/// Generic over the snapshot backend: a service holding the owned
/// `FrozenTaxonomy`, the zero-copy `AnySnapshot` view, or an
/// `OverlayView` over either goes on the wire unchanged. `BootSnapshot` is required because
/// `/admin/reload` rebuilds a snapshot of the same representation from
/// the configured file; `IngestDelta` because `/admin/ingest` applies
/// delta overlays (every snapshot backend implements it — overlay views
/// fold cheaply, plain snapshots materialise).
pub fn serve<T: TaxonomyRead + BootSnapshot + IngestDelta + 'static>(
    service: Arc<TaxonomyService<T>>,
    config: ServerConfig,
) -> std::io::Result<ServerHandle<T>> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let queue: Arc<BoundedQueue<TcpStream>> = Arc::new(BoundedQueue::new(config.queue_capacity));
    let shared = Arc::new(Shared {
        service,
        stats: ServerStats::default(),
        shutdown: AtomicBool::new(false),
        config,
        compactor: WorkerPool::new("cnp-compact", 1, 1),
    });

    // A failed spawn propagates as io::Error after closing the queue so
    // any workers already running drain out and exit instead of leaking.
    let n_workers = shared.config.workers.max(1);
    let mut workers = Vec::with_capacity(n_workers);
    for i in 0..n_workers {
        let queue_w = Arc::clone(&queue);
        let shared_w = Arc::clone(&shared);
        let spawned = std::thread::Builder::new()
            .name(format!("cnp-http-{i}"))
            .spawn(move || {
                while let Some(stream) = queue_w.pop() {
                    handle_connection(stream, &shared_w);
                }
            });
        match spawned {
            Ok(handle) => workers.push(handle),
            Err(e) => {
                abandon_workers(&queue, workers);
                return Err(e);
            }
        }
    }

    let accept = {
        let queue_a = Arc::clone(&queue);
        let shared_a = Arc::clone(&shared);
        let spawned = std::thread::Builder::new()
            .name("cnp-accept".to_string())
            .spawn(move || {
                for stream in listener.incoming() {
                    if shared_a.shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    match queue_a.try_push(stream) {
                        Ok(()) => shared_a.stats.connection(),
                        Err(PushError::Full(stream)) => refuse_overloaded(stream, &shared_a),
                        Err(PushError::Closed(_)) => break,
                    }
                }
            });
        match spawned {
            Ok(handle) => handle,
            Err(e) => {
                abandon_workers(&queue, workers);
                return Err(e);
            }
        }
    };

    Ok(ServerHandle {
        addr,
        shared,
        queue,
        accept: Some(accept),
        workers,
    })
}

/// Boot-failure cleanup: closes the queue so every already-spawned worker
/// sees `pop() == None` and exits, then joins them.
fn abandon_workers(queue: &BoundedQueue<TcpStream>, workers: Vec<std::thread::JoinHandle<()>>) {
    queue.close();
    for worker in workers {
        let _ = worker.join();
    }
}

/// Admission control's refusal path: a canned `429` written on the accept
/// thread (never blocks on a worker), then close.
fn refuse_overloaded<T>(stream: TcpStream, shared: &Shared<T>) {
    shared.stats.refused();
    let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));
    let mut writer = BufWriter::new(stream);
    let body = error_body("overloaded", "server work queue is full; retry later");
    let _ = http::write_response(&mut writer, 429, body.as_bytes(), false);
}

fn error_body(kind: &str, detail: &str) -> String {
    Json::Obj(vec![(
        "error".to_string(),
        Json::Obj(vec![
            ("kind".to_string(), Json::str(kind)),
            ("detail".to_string(), Json::str(detail)),
        ]),
    )])
    .write()
}

/// One worker's whole tenure on one connection: the keep-alive loop.
fn handle_connection<T: TaxonomyRead + BootSnapshot + IngestDelta + 'static>(
    stream: TcpStream,
    shared: &Shared<T>,
) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(shared.config.read_timeout));
    let _ = stream.set_write_timeout(Some(shared.config.read_timeout));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = BufWriter::new(stream);

    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let request = match http::read_request(&mut reader, shared.config.max_body_bytes) {
            Ok(None) => break, // clean keep-alive end
            Ok(Some(request)) => request,
            Err(error) => {
                // Typed refusal where HTTP allows one; a socket error
                // (including the idle timeout) just closes.
                let status = match &error {
                    HttpError::Malformed(_) => 400,
                    HttpError::TooLarge(_) => 400,
                    HttpError::BodyTooLarge => 413,
                    HttpError::UnsupportedMethod => 405,
                    HttpError::Io(_) => break,
                };
                // An HTTP-layer rejection is still a request the worker
                // read and answered: count it, so `requests ==
                // responses_ok + responses_error` holds in /v1/health.
                shared.stats.request();
                shared.stats.malformed();
                shared.stats.response(status);
                let body = error_body("badRequest", &error.to_string());
                let _ = http::write_response(&mut writer, status, body.as_bytes(), false);
                break; // framing is unreliable after any of these
            }
        };
        shared.stats.request();
        let keep_alive = request.keep_alive() && !shared.shutdown.load(Ordering::SeqCst);
        let (status, body) = route(&request, shared);
        shared.stats.response(status);
        if http::write_response(&mut writer, status, body.as_bytes(), keep_alive).is_err() {
            break;
        }
        if !keep_alive {
            break;
        }
    }
    let _ = writer.flush();
}

/// Maps one parsed request to `(status, JSON body)`.
fn route<T: TaxonomyRead + BootSnapshot + IngestDelta + 'static>(
    request: &Request,
    shared: &Shared<T>,
) -> (u16, String) {
    match (request.method.as_str(), request.target.as_str()) {
        ("GET", "/v1/health") => health(shared),
        ("POST", "/v1/query") => query(&request.body, shared),
        ("POST", "/v1/tag") => tag(&request.body, shared),
        ("POST", "/v1/batch") => batch(&request.body, shared),
        ("POST", "/admin/reload") => reload(shared),
        ("POST", "/admin/ingest") => ingest(&request.body, shared),
        ("GET", "/v1/query" | "/v1/tag" | "/v1/batch" | "/admin/reload" | "/admin/ingest")
        | ("POST", "/v1/health") => (
            405,
            error_body("methodNotAllowed", "wrong method for this endpoint"),
        ),
        _ => (404, error_body("notFound", "unknown endpoint")),
    }
}

fn health<T: TaxonomyRead>(shared: &Shared<T>) -> (u16, String) {
    let stats = shared.stats.snapshot();
    let body = Json::Obj(vec![
        ("status".to_string(), Json::str("ok")),
        (
            "generation".to_string(),
            Json::num(shared.service.generation() as f64),
        ),
        (
            "stats".to_string(),
            Json::Obj(vec![
                (
                    "connections".to_string(),
                    Json::num(stats.connections as f64),
                ),
                ("requests".to_string(), Json::num(stats.requests as f64)),
                (
                    "responsesOk".to_string(),
                    Json::num(stats.responses_ok as f64),
                ),
                (
                    "responsesError".to_string(),
                    Json::num(stats.responses_error as f64),
                ),
                ("overloaded".to_string(), Json::num(stats.overloaded as f64)),
                ("malformed".to_string(), Json::num(stats.malformed as f64)),
                (
                    "kindLookup".to_string(),
                    Json::num(stats.kind_lookup as f64),
                ),
                ("kindTag".to_string(), Json::num(stats.kind_tag as f64)),
                ("kindBatch".to_string(), Json::num(stats.kind_batch as f64)),
            ]),
        ),
    ]);
    (200, body.write())
}

fn parse_body(body: &[u8]) -> Result<Json, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    Json::parse(text).map_err(|e| e.to_string())
}

fn query<T: TaxonomyRead>(body: &[u8], shared: &Shared<T>) -> (u16, String) {
    let query: Query = match parse_body(body)
        .and_then(|doc| wire::decode_query(&doc).map_err(|e| e.to_string()))
    {
        Ok(query) => query,
        Err(detail) => return (400, error_body("badRequest", &detail)),
    };
    shared.stats.kind(match query {
        Query::Tag { .. } | Query::Classify { .. } => QueryKind::Tag,
        _ => QueryKind::Lookup,
    });
    let response = shared.service.execute(&query);
    let status = wire::status_for(&response.result);
    (status, wire::encode_response(&response).write())
}

/// `POST /v1/tag`: the tagging workload's dedicated endpoint. The body is
/// the tag query without the `op` envelope (`{"text":…,"options":…}`,
/// with `"op":"classify"` selecting the concepts-only variant); the
/// response is the same generation-stamped envelope `/v1/query` writes.
fn tag<T: TaxonomyRead>(body: &[u8], shared: &Shared<T>) -> (u16, String) {
    let query: Query = match parse_body(body)
        .and_then(|doc| wire::decode_tag_query(&doc).map_err(|e| e.to_string()))
    {
        Ok(query) => query,
        Err(detail) => return (400, error_body("badRequest", &detail)),
    };
    shared.stats.kind(QueryKind::Tag);
    let response = shared.service.execute(&query);
    let status = wire::status_for(&response.result);
    (status, wire::encode_response(&response).write())
}

fn batch<T: TaxonomyRead>(body: &[u8], shared: &Shared<T>) -> (u16, String) {
    let doc = match parse_body(body) {
        Ok(doc) => doc,
        Err(detail) => return (400, error_body("badRequest", &detail)),
    };
    let Some(items) = doc.get("queries").and_then(Json::as_arr) else {
        return (
            400,
            error_body("badRequest", "field \"queries\" missing or not an array"),
        );
    };
    if items.len() > MAX_BATCH {
        return (
            413,
            error_body("badRequest", "batch exceeds the query-count cap"),
        );
    }
    let queries: Vec<Query> = match items.iter().map(wire::decode_query).collect() {
        Ok(queries) => queries,
        Err(e) => return (400, error_body("badRequest", &e.to_string())),
    };
    shared.stats.kind(QueryKind::Batch);
    let responses = shared.service.execute_batch(&queries);
    let generation = responses.first().map_or_else(
        || shared.service.generation(),
        |response| response.generation,
    );
    let body = Json::Obj(vec![
        ("generation".to_string(), Json::num(generation as f64)),
        (
            "responses".to_string(),
            Json::Arr(responses.iter().map(wire::encode_response).collect()),
        ),
    ]);
    (200, body.write())
}

/// `POST /admin/reload`: re-read the configured snapshot file and hot-swap
/// it in. The load and validation run right here on the worker — no lock
/// held, traffic keeps flowing on the old generation — and the swap is
/// the single pointer store from PR 5; in-flight queries drain on the
/// generation they pinned.
fn reload<T: TaxonomyRead + BootSnapshot>(shared: &Shared<T>) -> (u16, String) {
    let Some(path) = &shared.config.snapshot_path else {
        return (
            404,
            error_body("reloadDisabled", "server started without a snapshot path"),
        );
    };
    match shared.service.reload(path) {
        Ok(generation) => {
            let body = Json::Obj(vec![
                ("status".to_string(), Json::str("reloaded")),
                ("generation".to_string(), Json::num(generation as f64)),
            ]);
            (200, body.write())
        }
        Err(e) => (500, error_body("reloadFailed", &e.to_string())),
    }
}

/// `POST /admin/ingest`: apply one binary [`DeltaOverlay`] (the `CNPD`
/// sidecar format) to the serving snapshot. Decode, fold and swap all run
/// on this worker with no lock held against readers — the swap is one
/// generation bump, in-flight queries drain on the generation they
/// pinned, so clients see either generation N or N+1, never a torn
/// merge. Once the overlay depth crosses the configured threshold, a
/// background compaction is scheduled (see [`maybe_compact`]).
fn ingest<T: TaxonomyRead + IngestDelta + 'static>(
    body: &[u8],
    shared: &Shared<T>,
) -> (u16, String) {
    let delta = match DeltaOverlay::decode(body) {
        Ok(delta) => delta,
        Err(e) => return (400, error_body("badDelta", &e.to_string())),
    };
    match shared.service.ingest(&delta) {
        Ok(generation) => {
            maybe_compact(shared);
            let body = Json::Obj(vec![
                ("status".to_string(), Json::str("ingested")),
                ("generation".to_string(), Json::num(generation as f64)),
                ("ops".to_string(), Json::num(delta.num_ops() as f64)),
                (
                    "overlayDepth".to_string(),
                    Json::num(shared.service.overlay_depth() as f64),
                ),
            ]);
            (200, body.write())
        }
        Err(e) => (500, error_body("ingestFailed", &e.to_string())),
    }
}

/// Schedules a background compaction when the overlay depth has reached
/// the configured threshold. The fold runs on the dedicated compactor
/// worker and publishes through the service's compare-and-swap
/// ([`TaxonomyService::swap_if_current`]): if more deltas arrive while it
/// runs, the stale fold is discarded and the next ingest reschedules. A
/// full compactor queue means a fold is already pending — nothing to do.
fn maybe_compact<T: TaxonomyRead + IngestDelta + 'static>(shared: &Shared<T>) {
    let threshold = shared.config.compact_threshold;
    if threshold == 0 || shared.service.overlay_depth() < threshold {
        return;
    }
    let service = Arc::clone(&shared.service);
    let _ = shared.compactor.try_execute(move || {
        // A lost race or a failed fold keeps serving the overlay — the
        // next over-threshold ingest schedules a retry.
        let _ = service.compact();
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abandon_workers_closes_the_queue_so_workers_drain_out() {
        let queue: BoundedQueue<TcpStream> = BoundedQueue::new(4);
        abandon_workers(&queue, Vec::new());
        assert!(queue.is_closed());
        // What a parked worker's next pop() sees: None, i.e. "exit now".
        assert!(queue.pop().is_none());
    }
}
