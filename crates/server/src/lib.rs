#![forbid(unsafe_code)]
//! `cnp_server` — the network front-end that puts the CN-Probase serving
//! stack on a wire (Chen et al., ICDE 2019, §V: the taxonomy "has been
//! used in applications" — this crate is the application-facing edge).
//!
//! The crate is deliberately dependency-free above `std`: a hand-rolled
//! HTTP/1.1 subset over [`std::net::TcpListener`], the existing
//! `cnp_serve` typed protocol on the wire as JSON, and admission control
//! built on `cnp_runtime`'s [`cnp_runtime::BoundedQueue`].
//!
//! # Architecture
//!
//! ```text
//! TcpListener ── accept thread ──try_push──► BoundedQueue<TcpStream>
//!                     │ Full(stream)                 │ pop
//!                     ▼                              ▼
//!              canned 429 reply            cnp-http-{i} workers
//!                                          parse → route → TaxonomyService
//! ```
//!
//! * **Bounded everything.** The connection queue has a fixed capacity;
//!   when it is full the accept thread itself writes a canned
//!   `429 Too Many Requests` and closes — no unbounded buffering, no
//!   silent drops ([`server::ServerConfig::queue_capacity`]).
//! * **Hardened parsing.** Request lines, header counts, and bodies are
//!   capped *before* allocation; malformed or oversized input maps to
//!   `400`/`413`/`405`, never a panic ([`http`]).
//! * **Generation-aware.** Responses carry the snapshot generation from
//!   `cnp_serve`'s hot-swap layer, so clients observe atomic reloads and
//!   stale cursors are refused with `409` over the wire.
//!
//! # Endpoints
//!
//! | Method | Path            | Purpose                                   |
//! |--------|-----------------|-------------------------------------------|
//! | GET    | `/v1/health`    | liveness + generation + serving counters  |
//! | POST   | `/v1/query`     | one typed query, JSON in / JSON out       |
//! | POST   | `/v1/tag`       | tag/classify one document against the taxonomy |
//! | POST   | `/v1/batch`     | up to [`MAX_BATCH`] queries, one snapshot |
//! | POST   | `/admin/reload` | re-read the boot snapshot, swap atomically|
//!
//! # Quick start
//!
//! ```no_run
//! use cnp_serve::{Query, TaxonomyService};
//! use cnp_server::{serve, ServerConfig};
//! use cnp_taxonomy::AnySnapshot;
//! use std::sync::Arc;
//!
//! let service = Arc::new(TaxonomyService::<AnySnapshot>::boot_from_file(
//!     std::path::Path::new("/tmp/cnp.snapshot"),
//! )?);
//! let handle = serve(service, ServerConfig::default())?;
//! println!("listening on {}", handle.addr());
//! handle.wait(); // blocks until shutdown() is called elsewhere
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! The paired `cnp_load` binary (library form in [`load`]) replays a
//! deterministic mix of Table II traffic against a running server and
//! emits the JSON latency report CI gates on.

pub mod http;
pub mod load;
pub mod server;
pub mod stats;

pub use load::{LoadConfig, LoadCounts, LoadReport, ProbeVocab};
pub use server::{serve, ServerConfig, ServerHandle, MAX_BATCH};
pub use stats::{QueryKind, ServerStats, StatsSnapshot};
