//! The open-loop load generator: one process, two threads, two keep-alive
//! connections. Request `i` is due at a fixed offset from the start and
//! goes out on connection `i % 2` as soon as it is due and the connection
//! is free. Each sample keeps both times: from the send, which the bounded
//! `p50_us` and the read tails use, and from the due time, which the
//! `loadgen.due_*` quantiles and lateness use; the latter also charges a
//! stall with the wait it imposes on the requests behind it.

use crate::server::Conn;
use crate::streams::Stream;
use std::time::{Duration, Instant};

/// The outcome of one request on the wire.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sample {
    /// Nanoseconds from the due time to the actual send.
    pub late_ns: u64,
    /// Nanoseconds from the due time to the full response.
    pub latency_ns: u64,
    /// HTTP status; 0 when the exchange failed on the wire.
    pub status: u16,
}

/// Every sample of a run plus every response body, indexed like the stream.
#[derive(Debug, Default)]
pub struct WireRun {
    pub samples: Vec<Sample>,
    bodies: Vec<u8>,
    spans: Vec<(usize, usize)>,
}

impl WireRun {
    pub fn body(&self, i: usize) -> &[u8] {
        let (start, len) = self.spans[i];
        &self.bodies[start..start + len]
    }
}

struct Part {
    index: Vec<usize>,
    samples: Vec<Sample>,
    bodies: Vec<u8>,
    spans: Vec<(usize, usize)>,
}

extern "C" {
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
}

/// Asks the kernel to wake this thread's sleeps on time instead of up to
/// the default 50 µs late, so the generator sends close to the schedule.
fn tighten_timer_slack() {
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: prctl(PR_SET_TIMERSLACK, ns) reads no memory through its
    // arguments and changes only the calling thread's timer slack; the
    // unused arguments are passed as zero as the interface asks.
    let _ = unsafe { prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0) };
}

fn drive(conn: &mut Conn, stream: &Stream, lane: usize, start: Instant) -> Part {
    tighten_timer_slack();
    let n = stream.len().div_ceil(2);
    let mut part = Part {
        index: Vec::with_capacity(n),
        samples: Vec::with_capacity(n),
        bodies: Vec::new(),
        spans: Vec::with_capacity(n),
    };
    for i in (lane..stream.len()).step_by(2) {
        let due = start + Duration::from_nanos(stream.due_ns[i]);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let sent = Instant::now();
        let result = conn.exchange(stream.raw(i));
        let done = Instant::now();
        let (status, body) = match &result {
            Ok(response) => (response.status, response.body.as_slice()),
            Err(_) => (0, &[][..]),
        };
        part.index.push(i);
        part.samples.push(Sample {
            late_ns: sent.saturating_duration_since(due).as_nanos() as u64,
            latency_ns: done.saturating_duration_since(due).as_nanos() as u64,
            status,
        });
        part.spans.push((part.bodies.len(), body.len()));
        part.bodies.extend_from_slice(body);
    }
    part
}

/// Runs `stream` open-loop over the two connections. Meanwhile the calling
/// thread, which sends nothing, calls `probe` at the start and at the end
/// of every `window` of the schedule; its results come back in order.
pub fn open_loop<T>(
    conns: &mut [Conn; 2],
    stream: &Stream,
    window: Duration,
    mut probe: impl FnMut() -> T,
) -> (WireRun, Vec<T>) {
    let start = Instant::now() + Duration::from_millis(2);
    let span_ns = stream.due_ns.last().copied().unwrap_or(0);
    let windows = (span_ns as u128).div_ceil(window.as_nanos().max(1)) as u32;
    let [c0, c1] = conns;
    let mut probes = Vec::with_capacity(windows as usize + 1);
    let parts = std::thread::scope(|s| {
        let a = s.spawn(|| drive(c0, stream, 0, start));
        let b = s.spawn(|| drive(c1, stream, 1, start));
        for k in 0..=windows {
            let at = start + window * k;
            let now = Instant::now();
            if at > now {
                std::thread::sleep(at - now);
            }
            probes.push(probe());
        }
        [
            a.join().expect("load thread 0 panicked"),
            b.join().expect("load thread 1 panicked"),
        ]
    });
    let mut run = WireRun {
        samples: vec![Sample::default(); stream.len()],
        bodies: Vec::new(),
        spans: vec![(0, 0); stream.len()],
    };
    for part in parts {
        let base = run.bodies.len();
        run.bodies.extend_from_slice(&part.bodies);
        for (k, &i) in part.index.iter().enumerate() {
            run.samples[i] = part.samples[k];
            let (start, len) = part.spans[k];
            run.spans[i] = (base + start, len);
        }
    }
    (run, probes)
}

/// Sends `stream` back to back (no schedule) to warm the server and the
/// client; returns how many exchanges did not answer 200.
pub fn closed_loop(conns: &mut [Conn; 2], stream: &Stream) -> usize {
    let mut bad = 0;
    for i in 0..stream.len() {
        match conns[i % 2].exchange(stream.raw(i)) {
            Ok(r) if r.status == 200 => {}
            _ => bad += 1,
        }
    }
    bad
}
