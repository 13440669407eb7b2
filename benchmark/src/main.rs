//! The repository benchmark for CN-Probase.
//!
//! ```text
//! cnp_repobench --workload lookup|tag|ingest --seed N --seconds S --trace 0|1
//!               --server PATH/TO/cnp_server
//! ```
//!
//! One run builds the seeded corpus into a v3 snapshot in-process, boots
//! the real `cnp_server` binary on it (`--workers 2`), drives one serving
//! workload open-loop over two keep-alive connections, checks every output,
//! and prints each metric by name with its unit and sample count. The last
//! line of standard output is the JSON result: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. The traced run also
//! replays the same stream in-process with spans and runs the layer probes.
//! `benchmark/NOTES.md` says why each workload exists.

mod build;
mod load;
mod pin;
mod probe;
mod report;
mod server;
mod session;
mod stats;
mod streams;
mod trace;
mod wire_metrics;

use report::{Declarations, Report};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use streams::{Shape, Stream, Vocab};
use trace::{Layer, Service, Tracer};

/// Snapshots and the digest record, relative to the checkout root.
const STATE_DIR: &str = ".bench_state";
/// Back-to-back requests sent before the timed phase.
const WARMUP_REQUESTS: usize = 3000;
/// Requests and repeats of the spans-off/spans-on replays that measure
/// the tracing overhead.
const OVERHEAD_REQUESTS: usize = 5000;
const OVERHEAD_REPEATS: usize = 5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Lookup,
    Tag,
    Ingest,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "lookup" => Some(Workload::Lookup),
            "tag" => Some(Workload::Tag),
            "ingest" => Some(Workload::Ingest),
            _ => None,
        }
    }

    /// Offered rates and mixes; `NOTES.md` gives the reasons.
    fn shape(self) -> Shape {
        match self {
            Workload::Lookup => Shape {
                rate: 8000.0,
                tag_share: 0.0,
                zipf: true,
                ingest_every: 0,
            },
            Workload::Tag => Shape {
                rate: 2500.0,
                tag_share: 1.0,
                zipf: false,
                ingest_every: 0,
            },
            // Connection 0 carries half the rate, so a delta every 200 of
            // its slots is one every 100 ms.
            Workload::Ingest => Shape {
                rate: 4000.0,
                tag_share: 0.25,
                zipf: false,
                ingest_every: 200,
            },
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    server: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut server) =
        (None, None, None, false, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => trace = value == "1",
            "--server" => server = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        server: server.ok_or("--server is required")?,
    })
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| {
        let declared = Declarations::load(Path::new("BENCHMARK.json"))?;
        let report = run(&args)?;
        Ok(report.finish(&declared, args.trace))
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("cnp_repobench: {e}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &Args) -> Result<Report, String> {
    let state = Path::new(STATE_DIR);
    std::fs::create_dir_all(state).map_err(|e| format!("cannot create {STATE_DIR}: {e}"))?;
    let mut report = Report::default();
    let sources = stamp_environment(&mut report, args);

    let built = build::build(args.seed, state)?;
    if let Err(e) = build::check_digest(state, args.seed, sources, built.digest) {
        report.fail(e);
    }
    record_build(&mut report, &built);

    let vocab = Vocab::from_frozen(&built.frozen);
    let shape = args.workload.shape();
    let count = (shape.rate * args.seconds).round().max(2.0) as usize;
    let stream = streams::generate(&vocab, shape, args.seed, 1, count);
    let warmup_shape = Shape {
        ingest_every: 0,
        ..shape
    };
    let warmup = streams::generate(&vocab, warmup_shape, args.seed, 2, WARMUP_REQUESTS);
    report.stamp("offered_rate_per_s", shape.rate);
    report.stamp("tag_share", shape.tag_share);
    report.stamp(
        "key_skew",
        if shape.zipf {
            format!("zipf({})", streams::ZIPF_EXPONENT)
        } else {
            "uniform".to_string()
        },
    );
    report.stamp("requests", stream.len());
    report.stamp(
        "ingest_rate_per_s",
        stream.deltas.len() as f64 / args.seconds,
    );
    report.stamp(
        "vocabulary",
        format!(
            "{} mentions, {} entity keys, {} concepts",
            vocab.mentions.len(),
            vocab.keys.len(),
            vocab.concepts.len()
        ),
    );

    let pinned = pin::to(pin::Place::Client);
    report.stamp(
        "placement",
        if pinned {
            "load generator on CPU 0, server on CPUs 1 and up"
        } else {
            "unpinned"
        },
    );
    let mut setup = Vec::new();
    let served = serve(
        &mut report,
        args,
        &mut setup,
        &built.snapshot,
        &stream,
        &warmup,
        &vocab,
    );
    pin::to(pin::Place::Anywhere);
    let session = served?;
    let wire_p50_us = wire_metrics::record(&mut report, &stream, &session);

    if args.workload != Workload::Ingest {
        check_replay(&mut report, &built.snapshot, &stream, &session.wire)?;
    }
    // The last set-up block comes after the checks, so the three blocks
    // sample the machine at the start, the middle and the end of the run,
    // not in one burst; `setup_s` is the median over all of them.
    pin::to(pin::Place::Client);
    let last = session::measure_setup(&args.server, &built.snapshot, &stream);
    pin::to(pin::Place::Anywhere);
    setup.extend(last?);
    let q = stats::of(&setup, 0.5);
    report.put("setup_s", q.value, "s", q.samples);
    if args.trace {
        traced(&mut report, args, &built, &stream, &vocab, wire_p50_us)?;
    }
    Ok(report)
}

/// The server sessions: a block of set-up spawns into `setup`, the timed
/// session, and a second block.
fn serve(
    report: &mut Report,
    args: &Args,
    setup: &mut Vec<f64>,
    snapshot: &Path,
    stream: &Stream,
    warmup: &Stream,
    vocab: &Vocab,
) -> Result<session::Session, String> {
    setup.extend(session::measure_setup(&args.server, snapshot, stream)?);
    let served = session::run(
        report,
        &args.server,
        snapshot,
        stream,
        warmup,
        vocab,
        args.seed,
    )?;
    setup.extend(session::measure_setup(&args.server, snapshot, stream)?);
    Ok(served)
}

/// Stamps what the numbers depend on besides the code; returns a digest of
/// the sources, which names the code even outside a git checkout.
fn stamp_environment(report: &mut Report, args: &Args) -> u64 {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else {
                files.push(path);
            }
        }
    }
    fn command_output(program: &str, args: &[&str]) -> String {
        std::process::Command::new(program)
            .args(args)
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".to_string())
    }

    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    walk(Path::new("crates"), &mut files);
    walk(Path::new("vendor"), &mut files);
    files.sort();
    let mut all = Vec::new();
    for file in files {
        all.extend_from_slice(file.to_string_lossy().as_bytes());
        all.extend(std::fs::read(&file).unwrap_or_default());
    }
    let sources = cnp_runtime::stable_hash(&all);

    report.stamp("workload", format!("{:?}", args.workload).to_lowercase());
    report.stamp("seed", args.seed);
    report.stamp("seconds", args.seconds);
    report.stamp("trace", u8::from(args.trace));
    report.stamp("nproc", pin::cpus());
    report.stamp("rustc", command_output("rustc", &["-V"]));
    report.stamp(
        "git_revision",
        command_output("git", &["rev-parse", "HEAD"]),
    );
    report.stamp("source_digest", format!("{sources:016x}"));
    sources
}

fn record_build(report: &mut Report, built: &build::Built) {
    report.stamp("corpus_pages", built.corpus.pages.len());
    report.stamp("entities", built.entities());
    report.stamp("concepts", built.concepts());
    report.stamp("is_a", built.is_a());
    report.stamp("snapshot_digest", format!("{:016x}", built.digest));
    if built.digest_mismatches > 0 {
        report.fail(format!(
            "{} of {} builds of one corpus gave different snapshot bytes",
            built.digest_mismatches,
            build::BUILDS
        ));
    }
    let median = |name: &str, values: &[f64], unit: &'static str, report: &mut Report| {
        report.put(name, stats::median(values), unit, values.len());
    };
    median("build_s", &built.build_s, "s", report);
    median("taxonomy.freeze_ms", &built.freeze_ms, "ms", report);
    median("taxonomy.encode_v3_ms", &built.encode_ms, "ms", report);
    for (stage, times) in &built.stage_ms {
        median(&format!("core.stage_ms.{stage}"), times, "ms", report);
    }
    report.put(
        "build_precision",
        built.precision,
        "ratio",
        built.precision_sampled,
    );
    report.put("snapshot_bytes", built.snapshot_bytes as f64, "bytes", 1);
    report.put("encyclopedia.generate_ms", built.generate_ms, "ms", 1);
    let pipeline = &built.outcome.report;
    report.put(
        "core.keep_ratio",
        pipeline.final_candidates as f64 / pipeline.merged_candidates.max(1) as f64,
        "ratio",
        pipeline.merged_candidates,
    );
}

/// Boots the service type `cnp_server` boots, with its tag index built.
fn boot_warm(snapshot: &Path) -> Result<Service, String> {
    let service = Service::boot_from_file(snapshot).map_err(|e| format!("boot: {e}"))?;
    service.pin().tag_index();
    Ok(service)
}

/// Every wire response must equal, byte for byte, the in-process replay's
/// response to the same request bytes.
fn check_replay(
    report: &mut Report,
    snapshot: &Path,
    stream: &Stream,
    wire: &load::WireRun,
) -> Result<(), String> {
    let service = boot_warm(snapshot)?;
    let mut mismatches = 0u64;
    let mut first_mismatch = None;
    let mut tracer = Tracer::new(false, 0);
    let outcome = trace::replay(
        &service,
        stream,
        stream.len(),
        &mut tracer,
        |i, status, body| {
            if status != wire.samples[i].status || body != wire.body(i) {
                mismatches += 1;
                first_mismatch.get_or_insert(i);
            }
        },
    );
    for e in outcome.errors.iter().take(3) {
        report.fail(format!("replay: {e}"));
    }
    if let Some(first) = first_mismatch {
        report.failed += mismatches;
        report.fail(format!(
            "{mismatches} wire responses differ from the replay's (first: request {first})"
        ));
    }
    Ok(())
}

/// The traced run: the replay with spans, its overhead, then the probes.
fn traced(
    report: &mut Report,
    args: &Args,
    built: &build::Built,
    stream: &Stream,
    vocab: &Vocab,
    wire_p50_us: f64,
) -> Result<(), String> {
    let service = boot_warm(&built.snapshot)?;
    let mut tracer = Tracer::new(true, stream.len() * 9);
    let outcome = trace::replay(&service, stream, stream.len(), &mut tracer, |_, _, _| {});
    drop(service);
    for e in outcome.errors.iter().take(3) {
        report.fail(format!("traced replay: {e}"));
    }
    let q = stats::of(&outcome.response_bytes, 0.5);
    report.put("serve.response_bytes", q.value, "bytes", q.samples);

    // Tracing overhead: the same prefix replayed with spans off and on,
    // alternating, each on a freshly booted service.
    let prefix = stream.len().min(OVERHEAD_REQUESTS);
    let mut per_request = [Vec::new(), Vec::new()];
    for _ in 0..OVERHEAD_REPEATS {
        for on in [false, true] {
            let service = boot_warm(&built.snapshot)?;
            let mut probe = Tracer::new(on, prefix * 9);
            let outcome = trace::replay(&service, stream, prefix, &mut probe, |_, _, _| {});
            per_request[usize::from(on)].push(outcome.wall_s * 1e6 / prefix as f64);
        }
    }
    report.put(
        "trace.overhead_us",
        stats::median(&per_request[1]) - stats::median(&per_request[0]),
        "us",
        prefix * OVERHEAD_REPEATS,
    );

    // Self time per layer: every span for the printed table; read requests
    // only, with execution merged over kinds, for the in-process sum.
    let mut all_layers: std::collections::BTreeMap<String, Vec<f64>> = Default::default();
    let mut reads: std::collections::BTreeMap<String, Vec<f64>> = Default::default();
    for (s, own) in tracer.spans.iter().zip(tracer.self_us()) {
        all_layers.entry(s.layer.name()).or_default().push(own);
        if stream.kinds[s.request as usize].is_read() {
            let key = match s.layer {
                Layer::Execute(_) => "serve.execute".to_string(),
                other => other.name(),
            };
            reads.entry(key).or_default().push(own);
        }
    }
    for (layer, values) in &all_layers {
        let q = stats::of(values, 0.5);
        report.put(&format!("trace.self_us.{layer}"), q.value, "us", q.samples);
    }
    let p50 = |layer: &str| reads.get(layer).map_or(0.0, |v| stats::of(v, 0.5).value);
    let samples = |layer: &str| reads.get(layer).map_or(0, Vec::len);
    for (metric, layer) in [
        ("server.http.read_us", "server.http.read"),
        ("server.http.write_us", "server.http.write"),
        ("serve.json.parse_us", "serve.json.parse"),
        ("serve.json.write_us", "serve.json.write"),
        ("serve.wire.decode_us", "serve.wire.decode"),
        ("serve.wire.encode_us", "serve.wire.encode"),
        ("trace.request_self_us", "request"),
    ] {
        report.put(metric, p50(layer), "us", samples(layer));
    }
    let in_process: f64 = [
        "request",
        "server.http.read",
        "serve.json.parse",
        "serve.wire.decode",
        "serve.execute",
        "serve.wire.encode",
        "serve.json.write",
        "server.http.write",
    ]
    .iter()
    .map(|layer| p50(layer))
    .sum();
    report.put("trace.in_process_us", in_process, "us", samples("request"));
    report.put(
        "server.transport_us",
        wire_p50_us - in_process,
        "us",
        samples("request"),
    );

    probe::run(report, &built.snapshot, vocab, args.seed)?;
    let (train_ms, extract_ms) = built.abstract_split();
    report.put("nn.copynet_train_ms", train_ms, "ms", 1);
    report.put("core.abstract_extract_ms", extract_ms, "ms", 1);
    Ok(())
}
