//! Metrics of the timed session: latency from the client's side, cost from
//! the server's `/proc` counters, and the checks that the two sides agree.

use crate::report::Report;
use crate::server::ProcSample;
use crate::session::{Ack, Session, WINDOW};
use crate::stats;
use crate::streams::{Kind, Stream};
use crate::trace::COMPACT_THRESHOLD;

/// A read slower than this, or failed, misses the latency limit.
const LATENCY_LIMIT_US: f64 = 10_000.0;

/// Records every metric of the session; returns the reads' windowed p50,
/// timed from the send.
pub fn record(report: &mut Report, stream: &Stream, session: &Session) -> f64 {
    let wire = &session.wire;
    report.attempted = stream.len() as u64;
    let failed = wire.samples.iter().filter(|s| s.status != 200).count();
    if failed > 0 {
        report.fail(format!("{failed} requests did not answer 200"));
    }
    report.failed += failed as u64;

    let windows = session.probes.len().saturating_sub(1).max(1);
    let window_ns = WINDOW.as_nanos() as u64;
    let window_of = |i: usize| ((stream.due_ns[i] / window_ns) as usize).min(windows - 1);

    // Records the latency quantiles of the reads `pred` selects: per
    // window, then the median over windows. A failed read counts as
    // infinitely slow. Latency runs from the send, or with `from_due` from
    // the time the schedule set for the send, which adds any wait behind a
    // late generator. Returns every selected latency.
    let latencies = |report: &mut Report,
                     quantiles: &[(&str, f64)],
                     pred: &dyn Fn(Kind) -> bool,
                     from_due: bool| {
        let mut per_window = vec![Vec::new(); windows];
        let mut all = Vec::new();
        for (i, s) in wire.samples.iter().enumerate() {
            if pred(stream.kinds[i]) {
                let ns = if from_due {
                    s.latency_ns
                } else {
                    s.latency_ns - s.late_ns
                };
                let us = if s.status == 200 {
                    ns as f64 / 1e3
                } else {
                    f64::INFINITY
                };
                per_window[window_of(i)].push(us);
                all.push(us);
            }
        }
        if !all.is_empty() {
            for &(name, q) in quantiles {
                let by_window: Vec<f64> = per_window
                    .iter()
                    .filter(|w| !w.is_empty())
                    .map(|w| stats::of(w, q).value)
                    .collect();
                report.put(name, stats::median(&by_window), "us", all.len());
            }
        }
        all
    };
    let is_read = |k: Kind| k.is_read();
    latencies(
        report,
        &[
            ("p50_us", 0.5),
            ("loadgen.p90_us", 0.9),
            ("loadgen.p99_us", 0.99),
        ],
        &is_read,
        false,
    );
    let due_reads = latencies(
        report,
        &[("loadgen.due_p50_us", 0.5), ("loadgen.due_p99_us", 0.99)],
        &is_read,
        true,
    );
    latencies(
        report,
        &[("lookup_p50_us", 0.5), ("lookup_p99_us", 0.99)],
        &|k| matches!(k, Kind::Lookup(_)),
        false,
    );
    latencies(
        report,
        &[("tag_p50_us", 0.5), ("tag_p99_us", 0.99)],
        &|k| k == Kind::Tag,
        false,
    );
    let over_limit = due_reads.iter().filter(|&&l| l > LATENCY_LIMIT_US).count();
    report.put(
        "loadgen.over_limit",
        over_limit as f64,
        "count",
        due_reads.len(),
    );

    let late: Vec<f64> = wire
        .samples
        .iter()
        .map(|s| s.late_ns as f64 / 1e3)
        .collect();
    let late_p99 = stats::of(&late, 0.99);
    report.put(
        "loadgen.late_p99_us",
        late_p99.value,
        "us",
        late_p99.samples,
    );
    let tenth = late.len() / 10;
    if tenth > 0 {
        let first = stats::median(&late[..tenth]);
        let last = stats::median(&late[late.len() - tenth..]);
        report.stamp(
            "backlog_growing",
            last > 1000.0 && last > 4.0 * first.max(1.0),
        );
    }

    // Server cost per request: per window, then the median over windows.
    let mut requests = vec![0usize; windows];
    for i in 0..stream.len() {
        requests[window_of(i)] += 1;
    }
    let per_request = |f: &dyn Fn(&ProcSample) -> f64| -> f64 {
        let values: Vec<f64> = session
            .probes
            .windows(2)
            .zip(&requests)
            .filter(|(_, &n)| n > 0)
            .map(|(pair, &n)| (f(&pair[1]) - f(&pair[0])) / n as f64)
            .collect();
        stats::median(&values)
    };
    let n = stream.len();
    report.put(
        "server_cpu_us_per_req",
        per_request(&|p| p.cpu_s * 1e6),
        "us",
        n,
    );
    let last = session.probes[session.probes.len() - 1];
    report.put("server_rss_mb", last.peak_rss_kb as f64 / 1024.0, "MB", 1);
    report.put(
        "server.ctx_switches_per_req.voluntary",
        per_request(&|p| p.voluntary as f64),
        "count",
        n,
    );
    report.put(
        "server.ctx_switches_per_req.involuntary",
        per_request(&|p| p.involuntary as f64),
        "count",
        n,
    );
    cross_check(report, stream, session);
    ack_metrics(report, &session.acks);
    report.get("p50_us").unwrap_or(f64::NAN)
}

/// `/v1/health` deltas must agree with what the client sent and received.
fn cross_check(report: &mut Report, stream: &Stream, session: &Session) {
    let d = session.before.delta(&session.after);
    let samples = &session.wire.samples;
    let count =
        |pred: &dyn Fn(u16) -> bool| samples.iter().filter(|s| pred(s.status)).count() as u64;
    let ok = count(&|s| s == 200);
    let refused = count(&|s| s == 429);
    let answered_error = count(&|s| s != 200 && s != 429 && s != 0);
    report.put("server.requests", d.requests as f64, "count", 1);
    report.put("server.overloaded", d.overloaded as f64, "count", 1);
    report.put("server.malformed", d.malformed as f64, "count", 1);
    // The closing health request counts in `requests`; the opening one's
    // response is counted only after its body was written. A refused
    // connection never reaches a worker, so it is not a request.
    let checks = [
        (
            "requests == responsesOk + responsesError",
            d.requests,
            d.ok + d.error,
        ),
        (
            "requests == client attempts + 1",
            d.requests,
            stream.len() as u64 + 1 - refused,
        ),
        ("responsesOk == client 200s + 1", d.ok, ok + 1),
        ("responsesError == client errors", d.error, answered_error),
        ("overloaded == client 429s", d.overloaded, refused),
        (
            "kindLookup == client lookups",
            d.lookup,
            stream.count(|k| matches!(k, Kind::Lookup(_))) as u64,
        ),
        (
            "kindTag == client tag documents",
            d.tag,
            stream.count(|k| k == Kind::Tag) as u64,
        ),
    ];
    for (what, server, client) in checks {
        if server != client {
            report.fail(format!(
                "health cross-check {what}: server {server}, client {client}"
            ));
        }
    }
}

/// Apply latency, and the compactions seen between acknowledgements.
fn ack_metrics(report: &mut Report, acks: &[Ack]) {
    let failed = acks.iter().filter(|a| !a.ok).count();
    if failed > 0 {
        report.fail(format!("{failed} delta ingests failed"));
    }
    let latencies: Vec<f64> = acks
        .iter()
        .map(|a| if a.ok { a.latency_us } else { f64::INFINITY })
        .collect();
    for (name, q) in [("loadgen.apply_p50_us", 0.5), ("loadgen.apply_p90_us", 0.9)] {
        let v = stats::of(&latencies, q);
        report.put(name, v.value, "us", v.samples);
    }
    let mut compactions = 0u64;
    let mut lost = 0u64;
    for pair in acks.windows(2) {
        let (a, b) = (pair[0], pair[1]);
        if b.generation <= a.generation {
            report.fail(format!(
                "acknowledged generations do not increase: {} then {}",
                a.generation, b.generation
            ));
            continue;
        }
        let published = b.generation - a.generation - 1;
        compactions += published;
        if a.depth >= COMPACT_THRESHOLD as u64 && published == 0 {
            lost += 1;
        }
    }
    report.put(
        "server.compactions",
        compactions as f64,
        "count",
        acks.len(),
    );
    report.put("taxonomy.compact_lost", lost as f64, "count", acks.len());
}
