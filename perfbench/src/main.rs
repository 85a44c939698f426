//! End-to-end and per-layer benchmark of sigstr.
//!
//! ```text
//! sigstr-perfbench --workload hit|miss-k2|miss-k4|live --seed N --seconds S --trace 0|1
//! ```
//!
//! Every run builds its documents from `--seed`, serves them from
//! snapshot corpora through two shard servers behind a router (all in
//! this process, over loopback), and drives one closed-loop client: the
//! next operation is sent when the previous one has been answered.
//!
//! * `--trace 0` times the routed fleet with the program's own tracing
//!   off and reports what a client sees: latency median and p99, and
//!   the set-up time. The run is split over several freshly set-up
//!   fleets: latency percentiles pool their operations, set-up time is
//!   the median over them.
//! * `--trace 1` climbs the ladder instead, giving each rung a fifth of
//!   the time: the engine with its result cache cleared (the scan
//!   kernel), the engine, an in-process corpus, one HTTP server holding
//!   every document, and the routed fleet. Each rung runs the same
//!   operations, timed around the call into that layer; the fleet also
//!   reports the stage spans its flight recorders kept and counter
//!   deltas from `/metrics`.
//!
//! A sample of replies from every rung is checked bit for bit against
//! engines built here from the generated content. The last line on
//! standard output is the result as one JSON object.

mod fleet;
mod layers;
mod workload;

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use sigstr_corpus::WatchSpec;
use sigstr_server::json::Json;

use fleet::Fleet;
use layers::{decode, CorpusLayer, EngineLayer, HttpLayer, Layer};
use workload::{documents, Doc, OpStream, Reference, Reply, Workload};

const USAGE: &str =
    "usage: sigstr-perfbench --workload hit|miss-k2|miss-k4|live --seed N --seconds S --trace 0|1";

/// Fleets per end-to-end run. Each is set up from scratch, measured for
/// an equal share of the run and torn down; the run reports percentiles
/// over all their operations and the median set-up time. Threads and
/// connections land differently on every fleet, so one fleet that landed
/// badly carries a sixteenth of the samples.
const FLEETS: usize = 16;
/// Replies kept for the correctness check: the first few, then every
/// `KEEP_EVERY`-th, at most `KEEP_MAX` per drive (the engine rungs
/// answer millions of cached operations).
const KEEP_FIRST: usize = 32;
const KEEP_EVERY: usize = 16;
const KEEP_MAX: usize = 4_096;
/// Operations per drive at most: the cached engine rungs would otherwise
/// record tens of millions of sub-microsecond samples.
const MAX_OPS: usize = 1_000_000;
/// The watch every live document carries, so appends pay for
/// re-scoring their tail: the threshold and `t` of the workloads'
/// queries, over a sliding window of 64 symbols (not from the matrix).
fn watch(doc: &Doc) -> WatchSpec {
    WatchSpec {
        window: 64,
        threshold: workload::alpha(doc.k),
        top_t: workload::TOP_T,
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && s.is_finite())
                        .ok_or_else(|| format!("bad value for {flag}: {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad value for {flag}: {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// A scratch directory inside the working directory, removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new() -> Result<WorkDir, String> {
        let path = std::env::current_dir()
            .map_err(|e| format!("working directory: {e}"))?
            .join(".bench_work")
            .join(format!("run-{}", std::process::id()));
        std::fs::remove_dir_all(&path).ok();
        std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(WorkDir(path))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
        if let Some(parent) = self.0.parent() {
            // Only succeeds once no other run is using it.
            std::fs::remove_dir(parent).ok();
        }
    }
}

/// What one drive of a layer measured.
#[derive(Default)]
struct Sample {
    latencies_ns: Vec<u64>,
    attempted: u64,
    failed: u64,
    examined: u64,
    n15: f64,
    busy_ns: u64,
    replies: Vec<Reply>,
}

impl Sample {
    fn percentile_ns(&mut self, p: f64) -> f64 {
        let sorted = &mut self.latencies_ns;
        sorted.sort_unstable();
        if sorted.is_empty() {
            return 0.0;
        }
        sorted[((sorted.len() - 1) as f64 * p).round() as usize] as f64
    }
}

/// Send operations one after another for `budget` (a closed loop), or
/// until [`MAX_OPS`] have been sent.
fn drive(layer: &mut dyn Layer, stream: &mut OpStream, docs: &[Doc], budget: Duration) -> Sample {
    let mut sample = Sample::default();
    let start = Instant::now();
    let mut i = 0usize;
    while start.elapsed() < budget && i < MAX_OPS {
        let op = stream.next_op(docs);
        let keep =
            sample.replies.len() < KEEP_MAX && (i < KEEP_FIRST || i.is_multiple_of(KEEP_EVERY));
        i += 1;
        sample.attempted += 1;
        match layer.run(&op, keep) {
            Ok(timed) => {
                sample.latencies_ns.push(timed.ns);
                sample.busy_ns += timed.ns;
                sample.examined += timed.examined;
                sample.n15 += timed.n15;
                sample.replies.extend(timed.reply);
            }
            Err(e) => {
                if sample.failed < 5 {
                    eprintln!("perfbench: operation failed: {e}");
                }
                sample.failed += 1;
            }
        }
    }
    sample
}

/// Fill the caches the workload relies on (untimed).
fn warm(layer: &mut dyn Layer, stream: &OpStream, docs: &[Doc]) -> Result<(), String> {
    for op in stream.warmup(docs) {
        layer.run(&op, false)?;
    }
    Ok(())
}

fn watch_http(client: &mut HttpLayer, docs: &[Doc]) -> Result<(), String> {
    for doc in docs.iter().filter(|d| d.live) {
        let spec = watch(doc);
        let body = Json::Obj(vec![
            ("doc".into(), Json::Str(doc.name.clone())),
            ("window".into(), Json::Int(spec.window as u64)),
            ("threshold".into(), Json::Num(spec.threshold)),
            ("top_t".into(), Json::Int(spec.top_t as u64)),
        ])
        .encode()
        .expect("finite watch spec");
        client.call("POST", "/v1/watch", Some(&body))?;
    }
    Ok(())
}

/// The ring must place documents on every shard, or the routed fleet
/// would not fan out.
fn check_placement(docs: &[Doc]) -> Result<(), String> {
    let mut used = [false; fleet::SHARDS];
    for doc in docs {
        used[fleet::owner(&doc.name)] = true;
    }
    if used.iter().all(|&u| u) {
        Ok(())
    } else {
        Err("the hash ring left a shard without documents".into())
    }
}

fn verify(reference: &Reference, replies: &[Reply]) -> bool {
    let mut ok = true;
    for reply in replies {
        if let Err(e) = reference.check(reply) {
            if ok {
                eprintln!("perfbench: wrong answer: {e}");
            }
            ok = false;
        }
    }
    ok
}

/// Metrics in output order: `(name, value, unit)`.
type Metrics = Vec<(&'static str, f64, &'static str)>;

struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Metrics,
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

fn end_to_end(args: &Args, docs: &[Doc], work: &Path) -> Result<Outcome, String> {
    let window = Duration::from_secs_f64(args.seconds / FLEETS as f64);
    let mut setups = Vec::with_capacity(FLEETS);
    let mut pooled = Sample::default();
    let mut correct = true;
    for rep in 0..FLEETS {
        // Each fleet gets its own operations, drawn from the run's seed.
        let mut stream = OpStream::new(args.workload, args.seed ^ ((rep as u64 + 1) << 40), docs);
        let dir = work.join(format!("fleet{rep}"));
        let start = Instant::now();
        let fleet = Fleet::start(&dir, docs, false)?;
        let mut client = HttpLayer::connect(&fleet.router.addr, docs)?;
        watch_http(&mut client, docs)?;
        warm(&mut client, &stream, docs)?;
        setups.push(start.elapsed().as_secs_f64());
        let sample = drive(&mut client, &mut stream, docs, window);
        drop(client);
        fleet.stop()?;
        std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;

        correct &= !sample.latencies_ns.is_empty()
            && verify(&Reference::new(docs, &stream.content), &sample.replies);
        pooled.attempted += sample.attempted;
        pooled.failed += sample.failed;
        pooled.latencies_ns.extend(sample.latencies_ns);
    }
    Ok(Outcome {
        correct,
        attempted: pooled.attempted,
        failed: pooled.failed,
        metrics: vec![
            ("p50_ms", pooled.percentile_ns(0.50) / 1e6, "ms"),
            ("p99_ms", pooled.percentile_ns(0.99) / 1e6, "ms"),
            ("setup_s", median(&mut setups), "s"),
        ],
    })
}

/// Sum of the samples of `name` on a `/metrics` page: the unlabelled
/// sample when there is one, else every labelled series.
fn scrape(text: &str, name: &str) -> f64 {
    let mut plain = None;
    let mut labelled = 0.0;
    for line in text.lines().filter(|l| !l.starts_with('#')) {
        let Some((series, value)) = line.rsplit_once(' ') else {
            continue;
        };
        let value: f64 = value.parse().unwrap_or(0.0);
        if series == name {
            plain = Some(value);
        } else if series
            .strip_prefix(name)
            .is_some_and(|r| r.starts_with('{'))
        {
            labelled += value;
        }
    }
    plain.unwrap_or(labelled)
}

/// Span durations (µs) by stage name, over every data-route trace a
/// process's flight recorder holds.
fn spans(client: &mut HttpLayer) -> Result<HashMap<String, Vec<f64>>, String> {
    let target = format!("/debug/traces?limit={}", fleet::RECORDER_CAPACITY);
    let body = decode(&client.call("GET", &target, None)?)?;
    let mut out: HashMap<String, Vec<f64>> = HashMap::new();
    let traces = body
        .get("traces")
        .and_then(Json::as_array)
        .ok_or("no `traces` in /debug/traces")?;
    for trace in traces {
        let route = trace.get("route").and_then(Json::as_str).unwrap_or("");
        if route == "/v1/watch" || !route.starts_with("/v1/") {
            continue;
        }
        for span in trace.get("spans").and_then(Json::as_array).unwrap_or(&[]) {
            if let (Some(name), Some(dur)) = (
                span.get("name").and_then(Json::as_str),
                span.get("dur_us").and_then(Json::as_u64),
            ) {
                out.entry(name.to_string()).or_default().push(dur as f64);
            }
        }
    }
    Ok(out)
}

/// Admission time per request (µs): queue wait plus parse, over the
/// requests parsed. A queue span is recorded only on a connection's
/// first request, so a mean over queue spans alone would describe the
/// rare long waits rather than a request.
fn admit_us(spans: &HashMap<String, Vec<f64>>) -> f64 {
    let requests = spans.get("parse").map_or(0, Vec::len).max(1);
    let total: f64 = ["queue", "parse"]
        .iter()
        .filter_map(|name| spans.get(*name))
        .flatten()
        .sum();
    total / requests as f64
}

/// Mean duration (µs) of the spans named `name`. Spans are recorded in
/// whole microseconds, so a median would read the same on most runs;
/// the mean keeps the fraction.
fn span_mean(spans: &HashMap<String, Vec<f64>>, name: &str) -> f64 {
    match spans.get(name) {
        Some(values) if !values.is_empty() => values.iter().sum::<f64>() / values.len() as f64,
        _ => 0.0,
    }
}

/// Counter deltas and stage spans of the routed fleet, read from the
/// program's own `/metrics` and `/debug/traces`.
struct FleetView {
    router_metrics: String,
    shard_metrics: String,
}

impl FleetView {
    fn read(fleet: &Fleet, docs: &[Doc]) -> Result<FleetView, String> {
        let mut router = HttpLayer::connect(&fleet.router.addr, docs)?;
        let router_metrics = router.call("GET", "/metrics", None)?;
        let mut shard_metrics = String::new();
        for shard in &fleet.shards {
            shard_metrics +=
                &HttpLayer::connect(&shard.addr, docs)?.call("GET", "/metrics", None)?;
        }
        Ok(FleetView {
            router_metrics,
            shard_metrics,
        })
    }

    fn router_delta(&self, before: &FleetView, name: &str) -> f64 {
        scrape(&self.router_metrics, name) - scrape(&before.router_metrics, name)
    }

    fn shard_delta(&self, before: &FleetView, name: &str) -> f64 {
        scrape(&self.shard_metrics, name) - scrape(&before.shard_metrics, name)
    }
}

fn ladder(args: &Args, docs: &[Doc], work: &Path) -> Result<Outcome, String> {
    let rung = Duration::from_secs_f64(args.seconds / 5.0);
    let fresh = || OpStream::new(args.workload, args.seed, docs);
    let mut content: Vec<Vec<u8>> = docs.iter().map(|d| d.symbols.clone()).collect();
    let mut replies = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    // `writes`: the layer applies the stream's appends, so the reference
    // must cover what it appended. Every stream draws the same appends,
    // so the longest content is a superset of the others.
    let mut run = |layer: &mut dyn Layer, writes: bool| -> Result<Sample, String> {
        let mut stream = fresh();
        warm(layer, &stream, docs)?;
        let mut sample = drive(layer, &mut stream, docs, rung);
        if writes {
            for (have, seen) in content.iter_mut().zip(stream.content) {
                if seen.len() > have.len() {
                    *have = seen;
                }
            }
        }
        attempted += sample.attempted;
        failed += sample.failed;
        replies.append(&mut sample.replies);
        Ok(sample)
    };

    let mut kernel = run(&mut EngineLayer::new(docs, true), false)?;

    let mut engine_layer = EngineLayer::new(docs, false);
    let mut engine = run(&mut engine_layer, false)?;
    let (hits, misses) = engine_layer.cache_stats();

    let corpus_dir = work.join("corpus");
    fleet::write_corpus(&corpus_dir, docs, |_| true)?;
    let opened = fleet::open_corpus(&corpus_dir)?;
    for doc in docs.iter().filter(|d| d.live) {
        opened
            .watch_register(&doc.name, watch(doc))
            .map_err(|e| e.to_string())?;
    }
    let mut corpus = run(&mut CorpusLayer::new(opened, docs), true)?;

    let server_dir = work.join("server");
    fleet::write_corpus(&server_dir, docs, |_| true)?;
    let single = fleet::boot_server(&server_dir, true)?;
    let server = {
        let mut client = HttpLayer::connect(&single.addr, docs)?;
        watch_http(&mut client, docs)?;
        run(&mut client, true)
    };
    single.stop()?;
    let mut server = server?;

    let fleet = Fleet::start(&work.join("fleet"), docs, true)?;
    let routed = (|| {
        let mut client = HttpLayer::connect(&fleet.router.addr, docs)?;
        watch_http(&mut client, docs)?;
        let before = FleetView::read(&fleet, docs)?;
        let sample = run(&mut client, true)?;
        let after = FleetView::read(&fleet, docs)?;
        let mut shard_spans: HashMap<String, Vec<f64>> = HashMap::new();
        for shard in &fleet.shards {
            for (name, mut values) in spans(&mut HttpLayer::connect(&shard.addr, docs)?)? {
                shard_spans.entry(name).or_default().append(&mut values);
            }
        }
        let router_spans = spans(&mut HttpLayer::connect(&fleet.router.addr, docs)?)?;
        Ok::<_, String>((sample, before, after, shard_spans, router_spans))
    })();
    fleet.stop()?;
    let (mut router, before, after, shard_spans, router_spans) = routed?;

    let reference = Reference::new(docs, &content);
    let correct = verify(&reference, &replies);
    let p50_us = |s: &mut Sample| s.percentile_ns(0.50) / 1e3;
    let p99_us = |s: &mut Sample| s.percentile_ns(0.99) / 1e3;
    // Share of the routed rung's busy time the shards spent paused in
    // live freezes (none on the static workloads).
    let freeze_share = after.shard_delta(&before, "sigstr_live_freeze_duration_us_sum") * 1e3
        / router.busy_ns.max(1) as f64;
    let metrics: Metrics = vec![
        ("kernel_p50_us", p50_us(&mut kernel), "us"),
        ("engine_p50_us", p50_us(&mut engine), "us"),
        ("corpus_p50_us", p50_us(&mut corpus), "us"),
        ("server_p50_us", p50_us(&mut server), "us"),
        ("router_p50_us", p50_us(&mut router), "us"),
        ("kernel_p99_us", p99_us(&mut kernel), "us"),
        ("engine_p99_us", p99_us(&mut engine), "us"),
        ("corpus_p99_us", p99_us(&mut corpus), "us"),
        ("server_p99_us", p99_us(&mut server), "us"),
        ("router_p99_us", p99_us(&mut router), "us"),
        (
            "corpus_over_engine_us",
            p50_us(&mut corpus) - p50_us(&mut engine),
            "us",
        ),
        (
            "server_over_corpus_us",
            p50_us(&mut server) - p50_us(&mut corpus),
            "us",
        ),
        (
            "router_over_server_us",
            p50_us(&mut router) - p50_us(&mut server),
            "us",
        ),
        (
            "kernel_ns_per_examined",
            kernel.busy_ns as f64 / kernel.examined.max(1) as f64,
            "ns",
        ),
        (
            "kernel_examined_per_n15",
            kernel.examined as f64 / kernel.n15.max(1.0),
            "ratio",
        ),
        (
            "engine_cache_hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
            "ratio",
        ),
        ("server_admit_us", admit_us(&shard_spans), "us"),
        ("server_cache_us", span_mean(&shard_spans, "cache"), "us"),
        ("server_scan_us", span_mean(&shard_spans, "scan"), "us"),
        ("server_write_us", span_mean(&shard_spans, "write"), "us"),
        (
            "router_attempt_us",
            span_mean(&router_spans, "attempt"),
            "us",
        ),
        (
            "router_hedges",
            after.router_delta(&before, "sigstr_router_hedges_total"),
            "count",
        ),
        (
            "router_retries",
            after.router_delta(&before, "sigstr_router_retries_total"),
            "count",
        ),
        (
            "shard_engine_loads",
            after.shard_delta(&before, "sigstr_cache_loads_total"),
            "count",
        ),
        ("live_freeze_share", freeze_share, "ratio"),
    ];
    Ok(Outcome {
        correct,
        attempted,
        failed,
        metrics,
    })
}

fn report(outcome: &Outcome) -> String {
    let metrics = outcome
        .metrics
        .iter()
        .map(|&(name, value, unit)| {
            (
                name.to_string(),
                Json::Obj(vec![
                    ("value".into(), Json::Num(value)),
                    ("unit".into(), Json::Str(unit.into())),
                ]),
            )
        })
        .collect();
    Json::Obj(vec![
        ("correct".into(), Json::Bool(outcome.correct)),
        ("attempted".into(), Json::Int(outcome.attempted)),
        ("failed".into(), Json::Int(outcome.failed)),
        ("metrics".into(), Json::Obj(metrics)),
    ])
    .encode()
    .expect("finite metrics")
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let result = WorkDir::new().and_then(|work| {
        let docs = documents(args.workload, args.seed);
        check_placement(&docs)?;
        if args.trace {
            ladder(&args, &docs, &work.0)
        } else {
            end_to_end(&args, &docs, &work.0)
        }
    });
    match result {
        Ok(outcome) => println!("{}", report(&outcome)),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
