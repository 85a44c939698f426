//! `sigstr-router` — a fault-tolerant scatter-gather router over
//! `sigstr-server` shards.
//!
//! PR 5 made one corpus servable; this crate makes *many* servable as
//! one. Documents are partitioned across shard servers by consistent
//! hashing of the document name ([`hash::Ring`]), and the router
//! presents the same HTTP surface as a single server — `/v1/query`,
//! `/v1/batch`, `/v1/merged/top`, `/v1/merged/threshold` — fanning
//! requests out over pooled keep-alive connections and merging shard
//! answers with the exact deterministic merge the corpus layer uses, so
//! a routed answer is **bit-identical** to the answer one big corpus
//! would have produced.
//!
//! # Robustness model
//!
//! Every shard carries a [`health::Health`] state machine driven by a
//! background `/healthz` prober (exponential backoff while down,
//! half-open recovery). Data calls get a per-request deadline, a
//! bounded retry budget on transport failures, and optional *hedging*:
//! when an attempt outlives a latency-percentile trigger, a duplicate
//! is raced against it and the first response wins. When a shard stays
//! unreachable past the budget the router degrades instead of failing:
//! fan-out routes answer `200` with `"degraded": true` and the list of
//! unreachable shards, single-document routes answer `503` with
//! `Retry-After`. Nothing ever blocks past its deadline.
//!
//! # Global document order
//!
//! The merged routes reconstruct the *global* document index — the
//! `doc` field of every hit — as the **lexicographic rank of the
//! document name** across all shards. A single-corpus reference must
//! therefore ingest documents in sorted-name order to compare
//! bit-for-bit (the integration tests and CI do exactly that).
//!
//! [`fault::FaultProxy`] is a deterministic fault-injection TCP proxy
//! (delays, mid-response cuts, black holes) used by the integration
//! tests and the `router_fanout` benchmark to exercise all of the
//! above on real sockets.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod fault;
pub mod hash;
pub mod health;
pub mod metrics;
mod poll;
pub mod pool;
pub mod rebalance;

use std::collections::HashMap;
use std::io;
use std::net::SocketAddr;
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::thread;
use std::time::{Duration, Instant};

use sigstr_core::Scored;
use sigstr_corpus::{merge_ranked, DocHit};
use sigstr_obs::{self as obs, TraceHandle};
use sigstr_server::client::{ClientConfig, ClientConn, HttpResponse};
use sigstr_server::http::{Request, Response};
use sigstr_server::json::Json;
use sigstr_server::service::{json_response, text_response, Handler, Service, ServiceCore};
use sigstr_server::{wire, ServeSummary, ServiceConfig, ServiceHandle};

use hash::Ring;
use health::{Health, HealthPolicy, State};
use metrics::{RouterMetrics, ShardCounters};
use pool::Pool;

// ---------------------------------------------------------------------------
// Configuration.
// ---------------------------------------------------------------------------

/// When a request attempt is duplicated ("hedged") against a slow
/// shard.
#[derive(Debug, Clone, Copy)]
pub enum HedgePolicy {
    /// Never hedge.
    Disabled,
    /// Hedge when the first attempt outlives this fixed delay.
    Fixed(Duration),
    /// Hedge when the first attempt outlives the shard's observed p95
    /// latency, clamped to `[min, max]`. Until enough samples exist the
    /// trigger sits at `max` (hedge conservatively before there is
    /// evidence the shard is usually fast).
    P95 {
        /// Lower clamp on the trigger.
        min: Duration,
        /// Upper clamp on the trigger (and the cold-start trigger).
        max: Duration,
    },
}

/// Default virtual nodes per shard on the consistent-hash ring.
/// `sigstr route` and `sigstr rebalance` must agree on this (and on
/// the shard-list order) or they will disagree about placement.
pub const DEFAULT_VNODES: usize = 64;

/// Full router configuration.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Listener/worker-pool settings for the router's own HTTP service.
    pub service: ServiceConfig,
    /// Shard addresses, e.g. `["127.0.0.1:9001", "127.0.0.1:9002"]`.
    /// **Order is part of the placement contract** — the consistent
    /// hash ring names shards by position in this list.
    pub shards: Vec<String>,
    /// Virtual nodes per shard on the hash ring.
    pub vnodes: usize,
    /// End-to-end budget for one routed request (including retries and
    /// hedges). No route blocks past this.
    pub deadline: Duration,
    /// Extra attempts after a transport failure (connect/read errors on
    /// these read-only routes are safe to retry).
    pub retries: u32,
    /// Hedging policy for slow attempts.
    pub hedge: HedgePolicy,
    /// Probe cadence for shards that are not down.
    pub probe_interval: Duration,
    /// Connect/read budget for one `/healthz` probe.
    pub probe_timeout: Duration,
    /// Consecutive data failures that take a healthy shard down.
    pub failure_threshold: u32,
    /// First probe backoff after a shard goes down.
    pub backoff_base: Duration,
    /// Probe backoff ceiling.
    pub backoff_max: Duration,
    /// Timeouts for data-path shard connections.
    pub client: ClientConfig,
    /// Idle keep-alive connections parked per shard.
    pub max_idle_per_shard: usize,
}

impl RouterConfig {
    /// Defaults tuned for LAN shards: 2 s deadline, 2 retries, p95
    /// hedging clamped to `[1 ms, 25 ms]`, 200 ms probes.
    pub fn new(shards: Vec<String>) -> RouterConfig {
        RouterConfig {
            service: ServiceConfig::default(),
            shards,
            vnodes: DEFAULT_VNODES,
            deadline: Duration::from_secs(2),
            retries: 2,
            hedge: HedgePolicy::P95 {
                min: Duration::from_millis(1),
                max: Duration::from_millis(25),
            },
            probe_interval: Duration::from_millis(200),
            probe_timeout: Duration::from_secs(1),
            failure_threshold: 3,
            backoff_base: Duration::from_millis(250),
            backoff_max: Duration::from_secs(4),
            client: ClientConfig::default(),
            max_idle_per_shard: 4,
        }
    }

    fn health_policy(&self) -> HealthPolicy {
        HealthPolicy {
            probe_interval: self.probe_interval,
            failure_threshold: self.failure_threshold,
            backoff_base: self.backoff_base,
            backoff_max: self.backoff_max,
        }
    }

    /// Probes use their own, tighter timeouts so a dead host costs one
    /// `probe_timeout`, not a full data-path `connect_timeout`.
    fn probe_client(&self) -> ClientConfig {
        ClientConfig {
            connect_timeout: self.probe_timeout,
            read_timeout: self.probe_timeout,
            write_timeout: self.probe_timeout,
        }
    }
}

// ---------------------------------------------------------------------------
// Shard runtime state.
// ---------------------------------------------------------------------------

/// Ring buffer of winning-attempt latencies used by the p95 hedge
/// trigger. Only *winners* are recorded: recording a hedged loser's
/// slow latency would drag the p95 up and progressively disable the
/// very hedging that routed around it.
#[derive(Debug, Default)]
struct LatencyWindow {
    samples: Vec<u64>,
    next: usize,
}

const LATENCY_WINDOW: usize = 64;

impl LatencyWindow {
    fn record(&mut self, us: u64) {
        if self.samples.len() < LATENCY_WINDOW {
            self.samples.push(us);
        } else {
            self.samples[self.next] = us;
        }
        self.next = (self.next + 1) % LATENCY_WINDOW;
    }

    fn p95(&self) -> Option<u64> {
        if self.samples.is_empty() {
            return None;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        Some(sorted[(sorted.len() * 95 / 100).min(sorted.len() - 1)])
    }
}

#[derive(Debug)]
struct ShardRuntime {
    index: usize,
    addr: String,
    pool: Pool,
    health: Health,
    counters: ShardCounters,
    latency: Mutex<LatencyWindow>,
    /// Last manifest generation seen by a probe; a change marks the
    /// document directory stale.
    generation: AtomicU64,
}

/// The routing directory: which document lives where, and the global
/// (lexicographic) document order. Entries for unreachable shards are
/// retained from the last good fetch, so a query for a document on a
/// down shard answers `503` ("its shard is down") instead of being
/// misrouted to a shard that never held it.
#[derive(Debug, Default, Clone)]
struct Directory {
    /// `(name, shard index, manifest entry)` sorted by name.
    entries: Vec<(String, usize, Json)>,
    /// name → lexicographic rank (the global `doc` index).
    global: HashMap<String, usize>,
    /// name → shard index.
    shard_of: HashMap<String, usize>,
}

impl Directory {
    fn build(mut entries: Vec<(String, usize, Json)>) -> Directory {
        entries.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
        entries.dedup_by(|a, b| a.0 == b.0);
        let mut global = HashMap::with_capacity(entries.len());
        let mut shard_of = HashMap::with_capacity(entries.len());
        for (rank, (name, shard, _)) in entries.iter().enumerate() {
            global.insert(name.clone(), rank);
            shard_of.insert(name.clone(), *shard);
        }
        Directory {
            entries,
            global,
            shard_of,
        }
    }
}

struct RouterShared {
    config: RouterConfig,
    shards: Vec<Arc<ShardRuntime>>,
    ring: Ring,
    metrics: RouterMetrics,
    directory: RwLock<Directory>,
    /// Serializes [`refresh_directory`]: without it, a refresh that
    /// fetched membership *before* a rebalance step could publish its
    /// stale view *after* a fresher refresh, regressing the owner map
    /// a `410 Gone` re-route just depended on.
    directory_refresh: Mutex<()>,
    directory_stale: AtomicBool,
    stop: AtomicBool,
    checker: Mutex<Option<thread::JoinHandle<()>>>,
}

// ---------------------------------------------------------------------------
// Server shell.
// ---------------------------------------------------------------------------

/// The router's [`Handler`]; normally constructed through
/// [`RouterServer::bind`].
pub struct RouterHandler {
    shared: Arc<RouterShared>,
}

impl Handler for RouterHandler {
    fn handle(&self, request: &Request, core: &ServiceCore) -> Response {
        route(&self.shared, request, core)
    }

    fn on_shutdown(&self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.shared.checker.lock().unwrap().take() {
            let _ = handle.join();
        }
    }
}

/// A bound scatter-gather router: the health checker is already
/// running; call [`RouterServer::run`] to serve.
pub struct RouterServer {
    inner: Service<RouterHandler>,
}

impl RouterServer {
    /// Bind the listener, probe every shard once (synchronously, so
    /// routing works from the first request), build the document
    /// directory and start the background health checker.
    pub fn bind(config: RouterConfig) -> io::Result<RouterServer> {
        if config.shards.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "a router needs at least one shard address",
            ));
        }
        let policy = config.health_policy();
        let now = Instant::now();
        let shards: Vec<Arc<ShardRuntime>> = config
            .shards
            .iter()
            .enumerate()
            .map(|(index, addr)| {
                Arc::new(ShardRuntime {
                    index,
                    addr: addr.clone(),
                    pool: Pool::new(addr.clone(), config.client, config.max_idle_per_shard),
                    // Jitter seed: distinct per shard address, so a
                    // correlated fleet outage does not probe in lockstep.
                    health: Health::new(policy, now, hash::fnv1a(addr.as_bytes())),
                    counters: ShardCounters::default(),
                    latency: Mutex::new(LatencyWindow::default()),
                    generation: AtomicU64::new(0),
                })
            })
            .collect();
        let ring = Ring::new(config.shards.len(), config.vnodes);
        let service_config = config.service.clone();
        let shared = Arc::new(RouterShared {
            config,
            shards,
            ring,
            metrics: RouterMetrics::default(),
            directory: RwLock::new(Directory::default()),
            directory_refresh: Mutex::new(()),
            directory_stale: AtomicBool::new(false),
            stop: AtomicBool::new(false),
            checker: Mutex::new(None),
        });
        let inner = Service::bind(
            RouterHandler {
                shared: Arc::clone(&shared),
            },
            service_config,
        )?;
        for shard in &shared.shards {
            probe_shard(&shared, shard);
        }
        refresh_directory(&shared);
        shared.directory_stale.store(false, Ordering::SeqCst);
        let checker_shared = Arc::clone(&shared);
        *shared.checker.lock().unwrap() = Some(thread::spawn(move || checker_loop(checker_shared)));
        Ok(RouterServer { inner })
    }

    /// The bound listening address.
    pub fn local_addr(&self) -> SocketAddr {
        self.inner.local_addr()
    }

    /// A shutdown handle, safe to use from signal handlers/threads.
    pub fn handle(&self) -> ServiceHandle {
        self.inner.handle()
    }

    /// Serve until shutdown; drains in-flight requests and stops the
    /// health checker.
    pub fn run(self) -> io::Result<ServeSummary> {
        self.inner.run()
    }
}

// ---------------------------------------------------------------------------
// Health checking.
// ---------------------------------------------------------------------------

/// Checker wake-up cadence; also bounds how quickly `on_shutdown`
/// observes the stop flag.
const CHECKER_TICK: Duration = Duration::from_millis(25);

fn checker_loop(shared: Arc<RouterShared>) {
    while !shared.stop.load(Ordering::SeqCst) {
        let now = Instant::now();
        for shard in &shared.shards {
            if shared.stop.load(Ordering::SeqCst) {
                return;
            }
            if shard.health.probe_due(now) {
                probe_shard(&shared, shard);
            }
        }
        if shared.directory_stale.swap(false, Ordering::SeqCst) {
            refresh_directory(&shared);
        }
        thread::sleep(CHECKER_TICK);
    }
}

/// Probe one shard's `/healthz` and feed the result into its state
/// machine. A draining shard (HTTP 503) counts as a failure, so the
/// router stops routing to shards that announced shutdown.
fn probe_shard(shared: &RouterShared, shard: &Arc<ShardRuntime>) {
    shard.counters.probes.fetch_add(1, Ordering::Relaxed);
    match probe_healthz(shard, &shared.config) {
        Ok(generation) => {
            let before = shard.health.state();
            shard.health.record_probe_success(Instant::now());
            let previous = shard.generation.swap(generation, Ordering::Relaxed);
            if previous != generation || before == State::Down {
                shared.directory_stale.store(true, Ordering::SeqCst);
            }
        }
        Err(_) => {
            shard
                .counters
                .probe_failures
                .fetch_add(1, Ordering::Relaxed);
            let was_routable = shard.health.routable();
            shard.health.record_probe_failure(Instant::now());
            if was_routable {
                // Parked keep-alive sockets to a failed shard are dead
                // weight; recovery starts from fresh connections.
                shard.pool.drain();
            }
        }
    }
}

/// One probe round-trip on a fresh connection. Success means HTTP 200
/// with `"status": "ok"`; the shard's manifest generation is returned
/// so directory refreshes can be driven by actual membership changes.
fn probe_healthz(shard: &ShardRuntime, config: &RouterConfig) -> io::Result<u64> {
    let mut conn = ClientConn::connect_with(&shard.addr, config.probe_client())?;
    let response = conn.request("GET", "/healthz", None)?;
    let not_ready = || io::Error::other("shard not ready");
    if response.status != 200 {
        return Err(not_ready());
    }
    let text = std::str::from_utf8(&response.body).map_err(|_| not_ready())?;
    let body = Json::decode(text.trim()).map_err(|_| not_ready())?;
    if body.get("status").and_then(Json::as_str) != Some("ok") {
        return Err(not_ready());
    }
    Ok(body.get("generation").and_then(Json::as_u64).unwrap_or(0))
}

/// Rebuild the document directory from every routable shard's
/// `/v1/documents`, keeping the previous entries of shards that could
/// not be asked (see [`Directory`]). Each successful fetch also records
/// the placement generation the membership list reflects, so the next
/// health probe reporting the same generation does not re-mark the
/// directory stale.
fn refresh_directory(shared: &RouterShared) {
    // One refresh at a time: the last directory written must be the
    // last membership fetched, or a slow stale fetch would undo a
    // fresher view (and strand a 410 re-route on the old owner).
    let _serialized = shared.directory_refresh.lock().unwrap();
    shared
        .metrics
        .directory_refreshes
        .fetch_add(1, Ordering::Relaxed);
    let previous = shared.directory.read().unwrap().entries.clone();
    let mut entries: Vec<(String, usize, Json)> = Vec::new();
    for shard in &shared.shards {
        let fetched = if shard.health.routable() {
            fetch_documents(shard, &shared.config).ok()
        } else {
            None
        };
        match fetched {
            Some((generation, list)) => {
                shard.generation.store(generation, Ordering::Relaxed);
                entries.extend(list.into_iter().map(|(name, doc)| (name, shard.index, doc)));
            }
            None => {
                entries.extend(
                    previous
                        .iter()
                        .filter(|(_, s, _)| *s == shard.index)
                        .cloned(),
                );
            }
        }
    }
    *shared.directory.write().unwrap() = Directory::build(entries);
}

/// Fetch one shard's membership: `(placement generation, documents)`.
/// A pre-elasticity shard without a `generation` field reads as 0.
fn fetch_documents(
    shard: &ShardRuntime,
    config: &RouterConfig,
) -> io::Result<(u64, Vec<(String, Json)>)> {
    let bad = |m: &str| io::Error::new(io::ErrorKind::InvalidData, m.to_string());
    let mut conn = ClientConn::connect_with(&shard.addr, config.probe_client())?;
    let response = conn.request("GET", "/v1/documents", None)?;
    if response.status != 200 {
        return Err(bad("documents route failed"));
    }
    let text = std::str::from_utf8(&response.body).map_err(|_| bad("body not UTF-8"))?;
    let body = Json::decode(text.trim()).map_err(|_| bad("body not JSON"))?;
    let generation = body.get("generation").and_then(Json::as_u64).unwrap_or(0);
    let docs = body
        .get("documents")
        .and_then(Json::as_array)
        .ok_or_else(|| bad("missing `documents`"))?;
    let list = docs
        .iter()
        .map(|doc| {
            doc.get("name")
                .and_then(Json::as_str)
                .map(|name| (name.to_string(), doc.clone()))
                .ok_or_else(|| bad("document without a name"))
        })
        .collect::<io::Result<Vec<_>>>()?;
    Ok((generation, list))
}

// ---------------------------------------------------------------------------
// Shard calls: deadline, retries, hedging — one poll loop per request.
// ---------------------------------------------------------------------------

/// One logical request to a shard: `(shard, method, target, body)`.
type ShardRequest<'a> = (&'a Arc<ShardRuntime>, &'a str, &'a str, Option<&'a str>);

fn shard_down(shard: &ShardRuntime) -> io::Error {
    io::Error::new(
        io::ErrorKind::NotConnected,
        format!("shard {} is down", shard.addr),
    )
}

/// Issue one logical request to a shard with the full robustness
/// stack (see [`shard_calls`]). An `Ok` carries whatever HTTP response
/// the shard produced (including 4xx/5xx — those are *its* answers, not
/// transport failures).
fn shard_call(
    shared: &RouterShared,
    shard: &Arc<ShardRuntime>,
    method: &str,
    target: &str,
    body: Option<&str>,
    deadline: Instant,
) -> io::Result<HttpResponse> {
    let mut outcomes = shard_calls(shared, &[(shard, method, target, body)], deadline);
    outcomes.pop().expect("one outcome per request")
}

/// Issue several logical shard requests at once, each with the full
/// robustness stack — routability gate, hedging, bounded retries, hard
/// deadline — entirely on the calling worker: every attempt's socket is
/// multiplexed with `poll(2)`, so no thread is spawned. Nothing here
/// waits on the network outside that poll: dials, request writes and
/// stale reconnects are all non-blocking steps (see [`send_attempt`]),
/// so one shard that never answers a dial cannot hold up another
/// shard's answer. One outcome per request, in order.
///
/// Per request, a *round* is a primary attempt plus at most one hedge,
/// launched once the primary outlives the hedge trigger; the first
/// response wins and the rest of the round is abandoned (its sockets
/// closed — they still carry an unread response, so they are never
/// parked). A transport failure with no other attempt outstanding fails
/// the round: it counts against the shard's health, and a fresh round
/// starts within the retry budget. A dial is bounded by
/// `min(connect_timeout, deadline)`. Past the deadline every unresolved
/// request fails with `TimedOut`, which is not held against the shard.
fn shard_calls(
    shared: &RouterShared,
    requests: &[ShardRequest],
    deadline: Instant,
) -> Vec<io::Result<HttpResponse>> {
    let trace = obs::current();
    let run = CallLoop {
        shared,
        trace_hex: trace.as_ref().map(|t| t.id().to_hex()),
        trace,
        deadline,
    };
    let mut calls: Vec<Call> = requests
        .iter()
        .map(|&request| Call {
            request,
            attempts: Vec::with_capacity(2),
            hedge_at: None,
            retries: 0,
            outcome: None,
        })
        .collect();
    for call in &mut calls {
        let shard = call.request.0;
        if shard.health.routable() {
            run.start_round(call);
        } else {
            call.outcome = Some(Err(shard_down(shard)));
        }
    }
    let mut fds = Vec::new();
    let mut owners = Vec::new();
    loop {
        let now = Instant::now();
        for call in calls.iter_mut().filter(|c| c.outcome.is_none()) {
            if call.hedge_at.is_some_and(|at| at <= now && now < deadline) {
                call.hedge_at = None;
                shared.metrics.hedges.fetch_add(1, Ordering::Relaxed);
                run.launch(call, "hedge");
            }
        }
        fds.clear();
        owners.clear();
        let mut wake = deadline;
        for (c, call) in calls.iter().enumerate() {
            if call.outcome.is_some() {
                continue;
            }
            wake = wake.min(call.hedge_at.unwrap_or(deadline));
            for (a, attempt) in call.attempts.iter().enumerate() {
                let conn = &attempt.conn;
                wake = wake.min(conn.connect_deadline().unwrap_or(deadline));
                fds.push((conn.as_raw_fd(), conn.wants_write()));
                owners.push((c, a));
            }
        }
        if owners.is_empty() {
            break;
        }
        // The wait is measured after the launches above, so their cost
        // never stretches it past a hedge trigger or the deadline. Past
        // the deadline it is a zero-timeout poll: answers that already
        // arrived still win before the rest time out.
        let ready = match poll::ready(&fds, wake.saturating_duration_since(Instant::now())) {
            Ok(ready) => ready,
            Err(e) => {
                for call in calls.iter_mut().filter(|c| c.outcome.is_none()) {
                    run.abandon(call);
                    call.outcome = Some(Err(io::Error::new(e.kind(), e.to_string())));
                }
                break;
            }
        };
        let now = Instant::now();
        // Later attempts first, so removing one never shifts the index
        // of an attempt still to be handled. A dial past its connect
        // deadline takes a step too, and fails in it.
        for (i, &(c, a)) in owners.iter().enumerate().rev() {
            let call = &mut calls[c];
            if call.outcome.is_some() {
                continue;
            }
            let conn = &mut call.attempts[a].conn;
            let due = ready.contains(&i) || conn.connect_deadline().is_some_and(|by| by <= now);
            if !due {
                continue;
            }
            match conn.recv_with() {
                Ok(None) => {}
                Ok(Some(response)) => run.won(call, a, response),
                Err(e) => {
                    let attempt = call.attempts.remove(a);
                    run.failed(call, attempt.started, attempt.kind, e);
                }
            }
        }
        if Instant::now() >= deadline {
            for call in calls.iter_mut().filter(|c| c.outcome.is_none()) {
                run.abandon(call);
                call.outcome = Some(Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "deadline exceeded",
                )));
            }
            break;
        }
    }
    calls
        .into_iter()
        .map(|call| call.outcome.expect("every call resolved"))
        .collect()
}

/// One launched attempt: the connection its request went out on.
struct Attempt {
    conn: ClientConn,
    started: Instant,
    /// `primary` or `hedge`.
    kind: &'static str,
}

/// The state of one logical request inside [`shard_calls`].
struct Call<'a> {
    request: ShardRequest<'a>,
    /// The current round's attempts still in flight.
    attempts: Vec<Attempt>,
    /// When the current round's hedge is due (`None`: hedging disabled,
    /// or the hedge already went out).
    hedge_at: Option<Instant>,
    retries: u32,
    outcome: Option<io::Result<HttpResponse>>,
}

/// What every call of one [`shard_calls`] shares: the router, the
/// deadline, and the request's trace — attempt spans are recorded here,
/// on the worker that owns the trace, as each attempt resolves.
struct CallLoop<'a> {
    shared: &'a RouterShared,
    trace: Option<TraceHandle>,
    trace_hex: Option<String>,
    deadline: Instant,
}

impl CallLoop<'_> {
    /// Start a round: a fresh primary, its hedge due one trigger later.
    fn start_round(&self, call: &mut Call) {
        call.hedge_at = hedge_trigger(self.shared, call.request.0).map(|t| Instant::now() + t);
        self.launch(call, "primary");
    }

    /// Launch one attempt; it never waits on the network (see
    /// [`send_attempt`]). A launch that fails is an attempt that failed
    /// at once.
    fn launch(&self, call: &mut Call, kind: &'static str) {
        let (shard, method, target, body) = call.request;
        let started = Instant::now();
        match send_attempt(shard, method, target, body, self.trace_hex.as_deref()) {
            Ok(conn) => call.attempts.push(Attempt {
                conn,
                started,
                kind,
            }),
            Err(e) => self.failed(call, started, kind, e),
        }
    }

    /// An attempt failed with a transport error. While another attempt
    /// of the round is out the race goes on; otherwise the round failed:
    /// it counts against the shard's health, and a fresh round starts
    /// within the retry budget.
    fn failed(&self, call: &mut Call, started: Instant, kind: &str, e: io::Error) {
        let shard = call.request.0;
        shard.counters.errors.fetch_add(1, Ordering::Relaxed);
        record_attempt(self.trace.as_ref(), shard, started, kind, "error", false);
        if !call.attempts.is_empty() {
            return;
        }
        if shard.health.record_data_failure(Instant::now()) == State::Down {
            shard.pool.drain();
        } else if call.retries < self.shared.config.retries && Instant::now() < self.deadline {
            call.retries += 1;
            self.shared.metrics.retries.fetch_add(1, Ordering::Relaxed);
            self.start_round(call);
            return;
        }
        call.outcome = Some(Err(e));
    }

    /// Attempt `index` answered first: record it, park its connection,
    /// and abandon the rest of the round.
    fn won(&self, call: &mut Call, index: usize, response: HttpResponse) {
        let shard = call.request.0;
        let attempt = call.attempts.remove(index);
        let us = duration_us(attempt.started.elapsed());
        shard.counters.latency.observe_us(us);
        shard.latency.lock().unwrap().record(us);
        if attempt.kind == "hedge" {
            self.shared
                .metrics
                .hedge_wins
                .fetch_add(1, Ordering::Relaxed);
        }
        record_attempt(
            self.trace.as_ref(),
            shard,
            attempt.started,
            attempt.kind,
            "ok",
            true,
        );
        park(shard, attempt.conn, &response);
        shard.health.record_data_success();
        self.abandon(call);
        call.outcome = Some(Ok(response));
    }

    /// Close every attempt still out, recording each as `abandoned`.
    fn abandon(&self, call: &mut Call) {
        for attempt in call.attempts.drain(..) {
            record_attempt(
                self.trace.as_ref(),
                call.request.0,
                attempt.started,
                attempt.kind,
                "abandoned",
                false,
            );
        }
    }
}

/// Record one `attempt` span on the request's trace, if it is traced:
/// its shard, kind (primary/hedge/forward), outcome, and winner flag.
fn record_attempt(
    trace: Option<&TraceHandle>,
    shard: &ShardRuntime,
    started: Instant,
    kind: &str,
    outcome: &str,
    win: bool,
) {
    let Some(trace) = trace else { return };
    let mut attrs = vec![
        ("shard", shard.addr.clone()),
        ("kind", kind.to_string()),
        ("outcome", outcome.to_string()),
    ];
    if win {
        attrs.push(("win", "true".to_string()));
    }
    trace.record("attempt", started, Instant::now(), attrs);
}

/// Take a pooled connection and queue the request on it, carrying the
/// edge-minted trace ID so the shard logs its spans under the same
/// trace. Pooled connections are poll-driven: a fresh dial only starts
/// here, and the request goes out as far as the socket takes it now —
/// the caller's `poll(2)` loop finishes both under its deadline.
fn send_attempt(
    shard: &ShardRuntime,
    method: &str,
    target: &str,
    body: Option<&str>,
    trace_hex: Option<&str>,
) -> io::Result<ClientConn> {
    shard.counters.calls.fetch_add(1, Ordering::Relaxed);
    let mut conn = shard.pool.get()?;
    let headers: Vec<(&str, &str)> = trace_hex
        .map(|hex| (obs::TRACE_HEADER, hex))
        .into_iter()
        .collect();
    conn.send_with(method, target, body, &headers)?;
    Ok(conn)
}

/// Drive one attempt to its response on the calling worker, waiting in
/// `poll(2)` until `deadline` at the latest.
fn await_response(conn: &mut ClientConn, deadline: Instant) -> io::Result<HttpResponse> {
    loop {
        let wake = conn.connect_deadline().unwrap_or(deadline).min(deadline);
        let wait = wake.saturating_duration_since(Instant::now());
        poll::ready(&[(conn.as_raw_fd(), conn.wants_write())], wait)?;
        if let Some(response) = conn.recv_with()? {
            return Ok(response);
        }
        if Instant::now() >= deadline {
            return Err(io::Error::new(io::ErrorKind::TimedOut, "deadline exceeded"));
        }
    }
}

/// Park a connection whose exchange completed — unless the shard
/// answered `Connection: close` (a contended shard is about to serve
/// whoever waits in its admission queue; parking that socket would hand
/// the next attempt a dead one), or sent bytes past its response (the
/// next attempt would read them as its answer).
fn park(shard: &ShardRuntime, conn: ClientConn, response: &HttpResponse) {
    let closing = response
        .header("connection")
        .is_some_and(|v| v.eq_ignore_ascii_case("close"));
    if !closing && conn.buffered() == 0 {
        shard.pool.put(conn);
    }
}

fn hedge_trigger(shared: &RouterShared, shard: &ShardRuntime) -> Option<Duration> {
    match shared.config.hedge {
        HedgePolicy::Disabled => None,
        HedgePolicy::Fixed(trigger) => Some(trigger),
        HedgePolicy::P95 { min, max } => {
            let p95 = shard
                .latency
                .lock()
                .unwrap()
                .p95()
                .map(Duration::from_micros);
            Some(p95.unwrap_or(max).clamp(min, max))
        }
    }
}

fn duration_us(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

// ---------------------------------------------------------------------------
// Routing.
// ---------------------------------------------------------------------------

fn route(shared: &Arc<RouterShared>, request: &Request, core: &ServiceCore) -> Response {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => handle_healthz(shared, core),
        ("GET", "/metrics") => handle_metrics(shared, core),
        ("GET", "/debug/traces") => handle_traces(shared, core, request),
        ("GET", "/v1/documents") => handle_documents(shared),
        ("POST", "/v1/query") => handle_query(shared, request),
        ("POST", "/v1/batch") => handle_batch(shared, request),
        ("GET", "/v1/merged/top") => handle_merged_top(shared, request),
        ("GET", "/v1/merged/threshold") => handle_merged_threshold(shared, request),
        ("POST", path) if append_route_doc(path).is_some() => {
            handle_append(shared, request, append_route_doc(path).expect("guarded"))
        }
        ("POST", "/v1/watch") => handle_watch_register(shared, request),
        ("DELETE", "/v1/watch") => handle_watch_forward_by_param(shared, request, "DELETE"),
        ("GET", "/v1/watch") => handle_watch_poll(shared, request),
        ("GET", "/v1/live") => handle_live(shared),
        (
            _,
            "/healthz"
            | "/metrics"
            | "/v1/documents"
            | "/v1/merged/top"
            | "/v1/merged/threshold"
            | "/v1/live",
        ) => json_response(405, wire::error_json("method not allowed")).with_header("Allow", "GET"),
        (_, "/v1/query" | "/v1/batch") => {
            json_response(405, wire::error_json("method not allowed")).with_header("Allow", "POST")
        }
        (_, "/v1/watch") => json_response(405, wire::error_json("method not allowed"))
            .with_header("Allow", "GET, POST, DELETE"),
        (_, path) if append_route_doc(path).is_some() => {
            json_response(405, wire::error_json("method not allowed")).with_header("Allow", "POST")
        }
        _ => json_response(
            404,
            wire::error_json(&format!("no route for {}", request.path)),
        ),
    }
}

/// Router readiness: alive as long as the process runs; `"ok"` even
/// with every shard down (degradation is reported per-request — a
/// router with zero healthy shards still answers, structurally). The
/// healthy-shard count lets a load balancer weigh routers.
fn handle_healthz(shared: &RouterShared, core: &ServiceCore) -> Response {
    let draining = core.is_shutting_down();
    let healthy = shared.shards.iter().filter(|s| s.health.routable()).count();
    let documents = shared.directory.read().unwrap().entries.len();
    let body = Json::Obj(vec![
        (
            "status".into(),
            Json::Str(if draining { "draining" } else { "ok" }.into()),
        ),
        ("shards".into(), Json::Int(shared.shards.len() as u64)),
        ("healthy".into(), Json::Int(healthy as u64)),
        ("documents".into(), Json::Int(documents as u64)),
    ]);
    if draining {
        json_response(503, body).with_header("Retry-After", "1")
    } else {
        json_response(200, body)
    }
}

fn handle_metrics(shared: &RouterShared, core: &ServiceCore) -> Response {
    let mut text = core.metrics().render_http(core.queue_depth());
    sigstr_server::metrics::render_trace(&mut text, core.recorder());
    let states: Vec<(String, u64, &ShardCounters)> = shared
        .shards
        .iter()
        .map(|s| (s.addr.clone(), s.health.state().code(), &s.counters))
        .collect();
    shared.metrics.render(&mut text, &states);
    text_response(200, text)
}

/// `GET /debug/traces` — the router's own flight recorder. With
/// `join=1`, each trace is augmented with the shard-side traces that
/// carry the same ID: the shard addresses are read off the trace's own
/// attempt spans, each is asked `GET /debug/traces?id=…` over a fresh
/// short-timeout connection, and whatever comes back is spliced in
/// under `"shards"`. Join failures degrade silently — the router-side
/// trace is always served.
fn handle_traces(shared: &RouterShared, core: &ServiceCore, request: &Request) -> Response {
    let join = request
        .query_param("join")
        .is_some_and(|v| !v.is_empty() && v != "0");
    if !join {
        return sigstr_server::service::traces_response(core, request);
    }
    let filter = sigstr_server::service::trace_filter_from(request);
    let traces = core.recorder().snapshot(&filter);
    let rendered: Vec<String> = traces
        .iter()
        .map(|trace| {
            let mut addrs: Vec<&str> = trace
                .spans
                .iter()
                .flat_map(|span| span.attrs.iter())
                .filter(|(key, _)| *key == "shard")
                .map(|(_, value)| value.as_str())
                .collect();
            addrs.sort_unstable();
            addrs.dedup();
            let mut shard_traces: Vec<Json> = Vec::new();
            for addr in addrs {
                shard_traces.extend(fetch_shard_traces(shared, addr, &trace.id.to_hex()));
            }
            if shard_traces.is_empty() {
                trace.to_json()
            } else {
                let joined = Json::Arr(shard_traces)
                    .encode()
                    .unwrap_or_else(|_| "[]".to_string());
                trace.to_json_with(&format!(",\"shards\":{joined}"))
            }
        })
        .collect();
    Response::new(
        200,
        "application/json",
        obs::render_traces_body(&rendered).into_bytes(),
    )
}

/// Ask one shard for the traces matching `id`. A dedicated connection
/// (not the data-path pool) with a tight timeout: a slow or dead shard
/// costs the join a beat, never a pooled socket.
fn fetch_shard_traces(shared: &RouterShared, addr: &str, id: &str) -> Vec<Json> {
    let fetch = || -> io::Result<Vec<Json>> {
        let mut conn = ClientConn::connect_with(
            addr,
            ClientConfig {
                connect_timeout: Duration::from_millis(250),
                read_timeout: Duration::from_millis(500),
                ..shared.config.client
            },
        )?;
        let response = conn.request("GET", &format!("/debug/traces?id={id}"), None)?;
        if response.status != 200 {
            return Ok(Vec::new());
        }
        let text = std::str::from_utf8(&response.body)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 trace body"))?;
        let body = Json::decode(text.trim())
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        Ok(body
            .get("traces")
            .and_then(Json::as_array)
            .map(<[Json]>::to_vec)
            .unwrap_or_default())
    };
    fetch().unwrap_or_default()
}

/// The list of currently-unreachable shard addresses; a non-empty list
/// means fan-out answers are flagged `"degraded"`.
fn unreachable_shards(shared: &RouterShared) -> Vec<String> {
    shared
        .shards
        .iter()
        .filter(|s| !s.health.routable())
        .map(|s| s.addr.clone())
        .collect()
}

fn degraded_fields(shared: &RouterShared, unreachable: Vec<String>) -> Vec<(String, Json)> {
    let degraded = !unreachable.is_empty();
    if degraded {
        shared
            .metrics
            .degraded_responses
            .fetch_add(1, Ordering::Relaxed);
    }
    vec![
        ("degraded".into(), Json::Bool(degraded)),
        (
            "unreachable".into(),
            Json::Arr(unreachable.into_iter().map(Json::Str).collect()),
        ),
    ]
}

fn handle_documents(shared: &RouterShared) -> Response {
    let docs: Vec<Json> = {
        let directory = shared.directory.read().unwrap();
        directory
            .entries
            .iter()
            .map(|(_, _, doc)| doc.clone())
            .collect()
    };
    let mut fields = vec![("documents".to_string(), Json::Arr(docs))];
    fields.extend(degraded_fields(shared, unreachable_shards(shared)));
    json_response(200, Json::Obj(fields))
}

fn body_json(request: &Request) -> Result<Json, Response> {
    let text = std::str::from_utf8(&request.body)
        .map_err(|_| json_response(400, wire::error_json("request body is not UTF-8")))?;
    Json::decode(text).map_err(|e| json_response(400, wire::error_json(&e.to_string())))
}

fn shard_for_doc(shared: &RouterShared, name: &str) -> Arc<ShardRuntime> {
    let index = {
        let directory = shared.directory.read().unwrap();
        directory.shard_of.get(name).copied()
    }
    .unwrap_or_else(|| shared.ring.shard_for(name));
    Arc::clone(&shared.shards[index])
}

fn unavailable(message: String) -> Response {
    json_response(503, wire::error_json(&message)).with_header("Retry-After", "1")
}

/// Single-document query: routed by the directory (ring as fallback for
/// unknown names), shard answer passed through verbatim — bit-identity
/// by construction. A down shard means this *specific* document is
/// unavailable, so the honest answer is `503` + `Retry-After`, not a
/// degraded 200.
///
/// A `410 Gone` means the shard *used to* hold the document and a live
/// rebalance moved it: the router refreshes its directory synchronously
/// and re-routes once to the new owner, so a moved document is served
/// without waiting for the background checker to notice — the client
/// never sees the move.
fn handle_query(shared: &RouterShared, request: &Request) -> Response {
    let json = match body_json(request) {
        Ok(json) => json,
        Err(response) => return response,
    };
    let Some(doc) = json.get("doc").and_then(Json::as_str) else {
        return json_response(400, wire::error_json("missing string field `doc`"));
    };
    let body = std::str::from_utf8(&request.body).expect("validated above");
    let deadline = Instant::now() + shared.config.deadline;
    let mut shard = shard_for_doc(shared, doc);
    let mut rerouted = false;
    loop {
        match shard_call(shared, &shard, "POST", "/v1/query", Some(body), deadline) {
            Ok(response) if response.status == 410 && !rerouted => {
                let mut span = obs::span("reroute");
                span.attr("doc", doc);
                span.attr("from", shard.addr.as_str());
                shared
                    .metrics
                    .moved_rerouted
                    .fetch_add(1, Ordering::Relaxed);
                refresh_directory(shared);
                let next = shard_for_doc(shared, doc);
                span.attr("to", next.addr.as_str());
                if next.index == shard.index {
                    // The refreshed directory still points here — the
                    // shard's word stands.
                    return passthrough(response);
                }
                shard = next;
                rerouted = true;
            }
            Ok(response) => return passthrough(response),
            Err(e) => return unavailable(format!("shard {} unreachable: {e}", shard.addr)),
        }
    }
}

fn passthrough(response: HttpResponse) -> Response {
    Response::new(response.status, "application/json", response.body)
}

// ---------------------------------------------------------------------------
// Live documents: append / watch forwarding.
// ---------------------------------------------------------------------------

/// The document name from a live-append path
/// (`/v1/documents/{name}/append`).
fn append_route_doc(path: &str) -> Option<&str> {
    path.strip_prefix("/v1/documents/")?
        .strip_suffix("/append")
        .filter(|name| !name.is_empty() && !name.contains('/'))
}

/// One unhedged, unretried forward to a shard, inline on the calling
/// worker, the whole exchange (dial included) bounded by `budget`. The
/// write path (appends, watch registration) must never duplicate side
/// effects, so there is exactly **one** attempt — a transport failure
/// surfaces as `503` and the client owns the retry decision. Also used
/// for long-polls, whose budget exceeds anything the hedging machinery
/// would tolerate; those skip the p95 window (`record_latency: false`)
/// so a 10-second hold doesn't read as a slow shard and blunt the query
/// path's hedge trigger.
fn forward_once(
    shard: &Arc<ShardRuntime>,
    method: &str,
    target: &str,
    body: Option<&str>,
    budget: Duration,
    record_latency: bool,
) -> io::Result<HttpResponse> {
    if !shard.health.routable() {
        return Err(shard_down(shard));
    }
    let started = Instant::now();
    let result = (|| {
        let trace_hex = obs::current_id_hex();
        let mut conn = send_attempt(shard, method, target, body, trace_hex.as_deref())?;
        let response = await_response(&mut conn, started + budget)?;
        park(shard, conn, &response);
        Ok(response)
    })();
    let outcome = if result.is_ok() { "ok" } else { "error" };
    let trace = obs::current();
    record_attempt(trace.as_ref(), shard, started, "forward", outcome, false);
    match &result {
        Ok(_) => {
            shard.health.record_data_success();
            if record_latency {
                let us = duration_us(started.elapsed());
                shard.counters.latency.observe_us(us);
                shard.latency.lock().unwrap().record(us);
            }
        }
        Err(_) => {
            shard.counters.errors.fetch_add(1, Ordering::Relaxed);
            shard.health.record_data_failure(Instant::now());
            if !shard.health.routable() {
                shard.pool.drain();
            }
        }
    }
    result
}

/// Bump `sigstr_router_alerts_delivered_total` by however many alerts a
/// shard's append/poll response carries.
fn count_delivered_alerts(shared: &RouterShared, response: &HttpResponse) {
    if response.status != 200 {
        return;
    }
    let delivered = std::str::from_utf8(&response.body)
        .ok()
        .and_then(|text| Json::decode(text.trim()).ok())
        .and_then(|body| {
            body.get("alerts")
                .and_then(Json::as_array)
                .map(<[Json]>::len)
        })
        .unwrap_or(0);
    if delivered > 0 {
        shared
            .metrics
            .alerts_delivered
            .fetch_add(delivered as u64, Ordering::Relaxed);
    }
}

/// Forward a write-path request to the document's owning shard, with
/// the same `410 Gone` handling as queries: a shard that just released
/// the document to a rebalance triggers one synchronous directory
/// refresh and one re-route. Safe even though the request is a write —
/// `410` is answered *before* any state changes.
fn forward_to_owner(
    shared: &RouterShared,
    doc: &str,
    method: &str,
    target: &str,
    body: Option<&str>,
    count_alerts: bool,
) -> Response {
    let mut shard = shard_for_doc(shared, doc);
    let mut rerouted = false;
    loop {
        match forward_once(
            &shard,
            method,
            target,
            body,
            shared.config.client.read_timeout,
            true,
        ) {
            Ok(response) if response.status == 410 && !rerouted => {
                let mut span = obs::span("reroute");
                span.attr("doc", doc);
                span.attr("from", shard.addr.as_str());
                shared
                    .metrics
                    .moved_rerouted
                    .fetch_add(1, Ordering::Relaxed);
                refresh_directory(shared);
                let next = shard_for_doc(shared, doc);
                span.attr("to", next.addr.as_str());
                if next.index == shard.index {
                    return passthrough(response);
                }
                shard = next;
                rerouted = true;
            }
            Ok(response) => {
                if count_alerts {
                    count_delivered_alerts(shared, &response);
                }
                return passthrough(response);
            }
            Err(e) => return unavailable(format!("shard {} unreachable: {e}", shard.addr)),
        }
    }
}

/// `POST /v1/documents/{name}/append` — routed to the owning shard,
/// exactly one attempt (appends are not idempotent; see
/// [`forward_once`]).
fn handle_append(shared: &RouterShared, request: &Request, doc: &str) -> Response {
    let Ok(body) = std::str::from_utf8(&request.body) else {
        return json_response(400, wire::error_json("request body is not UTF-8"));
    };
    shared
        .metrics
        .appends_routed
        .fetch_add(1, Ordering::Relaxed);
    forward_to_owner(
        shared,
        doc,
        "POST",
        &format!("/v1/documents/{doc}/append"),
        Some(body),
        true,
    )
}

/// `POST /v1/watch` — routed by the `doc` field of the body.
fn handle_watch_register(shared: &RouterShared, request: &Request) -> Response {
    let json = match body_json(request) {
        Ok(json) => json,
        Err(response) => return response,
    };
    let Some(doc) = json.get("doc").and_then(Json::as_str) else {
        return json_response(400, wire::error_json("missing string field `doc`"));
    };
    let body = std::str::from_utf8(&request.body).expect("validated above");
    shared
        .metrics
        .watch_registers
        .fetch_add(1, Ordering::Relaxed);
    forward_to_owner(shared, doc, "POST", "/v1/watch", Some(body), false)
}

/// `DELETE /v1/watch?doc=&watch=` — forwarded to the owning shard with
/// the query string rebuilt from the validated parameters.
fn handle_watch_forward_by_param(
    shared: &RouterShared,
    request: &Request,
    method: &str,
) -> Response {
    let Some(doc) = request.query_param("doc") else {
        return json_response(400, wire::error_json("missing query parameter `doc`"));
    };
    let Some(watch) = request
        .query_param("watch")
        .and_then(|w| w.parse::<u64>().ok())
    else {
        return json_response(
            400,
            wire::error_json("missing or unparseable query parameter `watch`"),
        );
    };
    shared
        .metrics
        .watch_registers
        .fetch_add(1, Ordering::Relaxed);
    forward_to_owner(
        shared,
        doc,
        method,
        &format!("/v1/watch?doc={doc}&watch={watch}"),
        None,
        false,
    )
}

/// The ceiling on a forwarded long-poll's hold (mirrors the shard's own
/// cap) and the transport slack allowed past it before the forward
/// times out.
const WATCH_POLL_MAX_MS: u64 = 30_000;
const WATCH_POLL_SLACK: Duration = Duration::from_secs(5);

/// `GET /v1/watch?doc=&since=&timeout_ms=` — forwarded to the owning
/// shard as a blocking hold: the shard parks the request until an alert
/// arrives or `timeout_ms` elapses, so the forward's budget must
/// outlive the hold (not the 2-second data-path deadline). Long-poll
/// latencies deliberately stay out of the hedge window.
fn handle_watch_poll(shared: &RouterShared, request: &Request) -> Response {
    let Some(doc) = request.query_param("doc") else {
        return json_response(400, wire::error_json("missing query parameter `doc`"));
    };
    let timeout_ms = request
        .query_param("timeout_ms")
        .and_then(|t| t.parse::<u64>().ok())
        .unwrap_or(10_000)
        .min(WATCH_POLL_MAX_MS);
    let since = match request.query_param("since") {
        None => 0,
        Some(raw) => match raw.parse::<u64>() {
            Ok(since) => since,
            Err(_) => {
                return json_response(
                    400,
                    wire::error_json("query parameter `since` must be a non-negative integer"),
                )
            }
        },
    };
    let target = format!("/v1/watch?doc={doc}&since={since}&timeout_ms={timeout_ms}");
    let shard = shard_for_doc(shared, doc);
    let budget = Duration::from_millis(timeout_ms) + WATCH_POLL_SLACK;
    let response = forward_once(&shard, "GET", &target, None, budget, false);
    shared.metrics.watch_polls.fetch_add(1, Ordering::Relaxed);
    match response {
        Ok(response) => {
            count_delivered_alerts(shared, &response);
            passthrough(response)
        }
        Err(e) => unavailable(format!("shard {} unreachable: {e}", shard.addr)),
    }
}

/// `GET /v1/live` — every shard's live documents, merged in name order.
fn handle_live(shared: &RouterShared) -> Response {
    let results = fan_out(shared, "/v1/live");
    let mut docs: Vec<Json> = Vec::new();
    let mut unreachable: Vec<String> = Vec::new();
    let mut reached = 0usize;
    for (shard, call) in results {
        let parsed = call.ok().filter(|r| r.status == 200).and_then(|r| {
            let body = Json::decode(std::str::from_utf8(&r.body).ok()?.trim()).ok()?;
            body.get("docs")
                .and_then(Json::as_array)
                .map(<[Json]>::to_vec)
        });
        match parsed {
            Some(list) => {
                reached += 1;
                docs.extend(list);
            }
            None => unreachable.push(shard.addr.clone()),
        }
    }
    if reached == 0 {
        return unavailable("all shards unreachable".to_string());
    }
    docs.sort_by(|a, b| {
        let name = |j: &Json| {
            j.get("name")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string()
        };
        name(a).cmp(&name(b))
    });
    let mut fields = vec![("docs".to_string(), Json::Arr(docs))];
    fields.extend(degraded_fields(shared, unreachable));
    json_response(200, Json::Obj(fields))
}

/// Scatter a batch across shards and gather the slots back in request
/// order. Jobs whose shard is unreachable come back as per-slot
/// `{"status": 503}` objects inside a `200` envelope flagged
/// `"degraded"` — partial answers beat none. All jobs are validated
/// up front so a malformed job fails the whole request with the same
/// `400` a single server would give.
fn handle_batch(shared: &RouterShared, request: &Request) -> Response {
    let json = match body_json(request) {
        Ok(json) => json,
        Err(response) => return response,
    };
    let Some(jobs) = json.get("jobs").and_then(Json::as_array) else {
        return json_response(400, wire::error_json("missing array field `jobs`"));
    };
    let mut slot_docs: Vec<&str> = Vec::with_capacity(jobs.len());
    for (i, job) in jobs.iter().enumerate() {
        let Some(doc) = job.get("doc").and_then(Json::as_str) else {
            return json_response(
                400,
                wire::error_json(&format!("job {i}: missing string field `doc`")),
            );
        };
        if let Err(message) = job
            .get("query")
            .ok_or_else(|| "missing field `query`".to_string())
            .and_then(wire::query_from_json)
        {
            return json_response(400, wire::error_json(&format!("job {i}: {message}")));
        }
        slot_docs.push(doc);
    }
    let started = Instant::now();
    let deadline = started + shared.config.deadline;
    let mut results: Vec<Option<Json>> = vec![None; jobs.len()];
    let mut failed: Vec<String> = Vec::new();
    let groups = scatter_slots(
        shared,
        jobs,
        &slot_docs,
        (0..jobs.len()).collect(),
        deadline,
        &mut results,
        &mut failed,
    );
    // Slots answered `410 Gone` hit a shard that just released their
    // document to a rebalance: refresh the directory once and re-route
    // exactly those slots to their new owners.
    let moved: Vec<usize> = results
        .iter()
        .enumerate()
        .filter(|(_, r)| {
            r.as_ref()
                .and_then(|json| json.get("status"))
                .and_then(Json::as_u64)
                == Some(410)
        })
        .map(|(slot, _)| slot)
        .collect();
    if !moved.is_empty() {
        shared
            .metrics
            .moved_rerouted
            .fetch_add(moved.len() as u64, Ordering::Relaxed);
        refresh_directory(shared);
        scatter_slots(
            shared,
            jobs,
            &slot_docs,
            moved,
            deadline,
            &mut results,
            &mut failed,
        );
    }
    shared
        .metrics
        .fanout_latency
        .observe_us(duration_us(started.elapsed()));
    if !failed.is_empty() && failed.len() == groups {
        return unavailable("all shards unreachable".to_string());
    }
    let results: Vec<Json> = results
        .into_iter()
        .map(|r| r.expect("every slot filled"))
        .collect();
    let mut fields = vec![("results".to_string(), Json::Arr(results))];
    fields.extend(degraded_fields(shared, failed));
    json_response(200, Json::Obj(fields))
}

/// One scatter pass: group `slots` by their owning shard (directory
/// first, ring fallback), fan the sub-batches out concurrently, and
/// write each slot's answer into `results`. Unreachable shards fill
/// their slots with `{"status": 503}` objects and are pushed onto
/// `failed`. Returns the number of shard groups contacted.
fn scatter_slots(
    shared: &RouterShared,
    jobs: &[Json],
    slot_docs: &[&str],
    slots: Vec<usize>,
    deadline: Instant,
    results: &mut [Option<Json>],
    failed: &mut Vec<String>,
) -> usize {
    let mut grouped: HashMap<usize, Vec<usize>> = HashMap::new();
    for slot in slots {
        grouped
            .entry(shard_for_doc(shared, slot_docs[slot]).index)
            .or_default()
            .push(slot);
    }
    let mut groups: Vec<(usize, Vec<usize>)> = grouped.into_iter().collect();
    groups.sort_by_key(|&(shard_index, _)| shard_index);
    let bodies: Vec<String> = groups
        .iter()
        .map(|(_, slots)| {
            let sub_jobs: Vec<Json> = slots.iter().map(|&s| jobs[s].clone()).collect();
            Json::Obj(vec![("jobs".into(), Json::Arr(sub_jobs))])
                .encode()
                .expect("batch body re-encodes")
        })
        .collect();
    let requests: Vec<ShardRequest> = groups
        .iter()
        .zip(&bodies)
        .map(|((shard_index, _), body)| {
            (
                &shared.shards[*shard_index],
                "POST",
                "/v1/batch",
                Some(body.as_str()),
            )
        })
        .collect();
    let calls = shard_calls(shared, &requests, deadline);
    for (call, (shard_index, slots)) in calls.into_iter().zip(&groups) {
        let shard = &shared.shards[*shard_index];
        let parsed = call
            .ok()
            .and_then(|response| parse_batch_results(&response, slots.len()));
        match parsed {
            Some(shard_results) => {
                for (&slot, result) in slots.iter().zip(shard_results) {
                    results[slot] = Some(result);
                }
            }
            None => {
                for &slot in slots {
                    results[slot] = Some(Json::Obj(vec![
                        ("doc".into(), Json::Str(slot_docs[slot].to_string())),
                        ("status".into(), Json::Int(503)),
                        (
                            "error".into(),
                            Json::Str(format!("shard {} unreachable", shard.addr)),
                        ),
                    ]));
                }
                failed.push(shard.addr.clone());
            }
        }
    }
    groups.len()
}

/// A shard's `/v1/batch` answer, iff it is well-formed and has exactly
/// the expected number of results.
fn parse_batch_results(response: &HttpResponse, expected: usize) -> Option<Vec<Json>> {
    if response.status != 200 {
        return None;
    }
    let text = std::str::from_utf8(&response.body).ok()?;
    let body = Json::decode(text.trim()).ok()?;
    let results = body.get("results").and_then(Json::as_array)?;
    (results.len() == expected).then(|| results.to_vec())
}

// ---------------------------------------------------------------------------
// Merged fan-out routes.
// ---------------------------------------------------------------------------

/// Fan a GET out to every shard concurrently. Returns each shard's
/// outcome in shard-index order.
fn fan_out(
    shared: &RouterShared,
    target: &str,
) -> Vec<(Arc<ShardRuntime>, io::Result<HttpResponse>)> {
    let deadline = Instant::now() + shared.config.deadline;
    let requests: Vec<ShardRequest> = shared
        .shards
        .iter()
        .map(|shard| (shard, "GET", target, None))
        .collect();
    let calls = shard_calls(shared, &requests, deadline);
    shared.shards.iter().cloned().zip(calls).collect()
}

/// Decode the `hits` array of a shard's merged answer.
fn parse_hits(response: &HttpResponse) -> Option<Vec<DocHit>> {
    if response.status != 200 {
        return None;
    }
    let text = std::str::from_utf8(&response.body).ok()?;
    let body = Json::decode(text.trim()).ok()?;
    let hits = body.get("hits").and_then(Json::as_array)?;
    hits.iter().map(|h| wire::hit_from_json(h).ok()).collect()
}

/// Regroup shard-local hits into global per-document lists: group by
/// name (preserving each shard's within-document rank order), index
/// documents by lexicographic rank — the global document order contract
/// — and sort the groups by that rank. The output feeds
/// [`merge_ranked`] (top-t) or a plain concatenation (threshold), both
/// of which then behave exactly as they would over one big corpus.
///
/// During a rebalance's transition window a document can be reported by
/// **both** its old and new shard (the copy is committed on the
/// destination before the source releases it). The two copies are
/// bit-identical by the rebalance's checksum contract, so exactly one
/// contribution per name is kept — the directory owner's when it is
/// among the contributors, the lowest shard index otherwise (the same
/// tie-break [`Directory::build`] uses) — and merged answers stay
/// bit-identical to a single corpus throughout the move.
/// One document's hit items from each shard that reported it.
type PerShard = Vec<(usize, Vec<Scored>)>;

fn regroup(shared: &RouterShared, shard_hits: ShardHits) -> Vec<(usize, String, Vec<Scored>)> {
    let mut contributions: Vec<(String, PerShard)> = Vec::new();
    let mut by_name: HashMap<String, usize> = HashMap::new();
    for (shard, hits) in shard_hits {
        for hit in hits {
            let slot = match by_name.get(&hit.name) {
                Some(&slot) => slot,
                None => {
                    by_name.insert(hit.name.clone(), contributions.len());
                    contributions.push((hit.name, Vec::new()));
                    contributions.len() - 1
                }
            };
            let per_shard = &mut contributions[slot].1;
            match per_shard.iter_mut().find(|(s, _)| *s == shard) {
                Some((_, items)) => items.push(hit.item),
                None => per_shard.push((shard, vec![hit.item])),
            }
        }
    }
    let owner_of: HashMap<String, usize> = {
        let directory = shared.directory.read().unwrap();
        contributions
            .iter()
            .filter_map(|(name, _)| {
                directory
                    .shard_of
                    .get(name)
                    .map(|&shard| (name.clone(), shard))
            })
            .collect()
    };
    let groups: Vec<(String, Vec<Scored>)> = contributions
        .into_iter()
        .map(|(name, mut per_shard)| {
            let chosen = if per_shard.len() == 1 {
                0
            } else {
                let owner = owner_of
                    .get(&name)
                    .copied()
                    .filter(|o| per_shard.iter().any(|(s, _)| s == o))
                    .unwrap_or_else(|| per_shard.iter().map(|(s, _)| *s).min().expect("non-empty"));
                per_shard
                    .iter()
                    .position(|(s, _)| *s == owner)
                    .expect("owner is a contributor")
            };
            let items = per_shard.swap_remove(chosen).1;
            (name, items)
        })
        .collect();
    // Global index: lexicographic rank over the *whole* corpus (the
    // directory), not just documents with hits — a hitless document
    // still occupies a rank, exactly as it would in a single corpus.
    let directory = shared.directory.read().unwrap();
    let stale = groups
        .iter()
        .any(|(name, _)| !directory.global.contains_key(name));
    let rank: HashMap<String, usize> = if stale {
        // The directory hasn't caught up with a membership change; fall
        // back to ranking over the union of known and observed names.
        let mut all: Vec<String> = directory
            .global
            .keys()
            .cloned()
            .chain(groups.iter().map(|(name, _)| name.clone()))
            .collect();
        all.sort_unstable();
        all.dedup();
        all.into_iter().enumerate().map(|(i, n)| (n, i)).collect()
    } else {
        HashMap::new()
    };
    let mut per_doc: Vec<(usize, String, Vec<Scored>)> = groups
        .into_iter()
        .map(|(name, items)| {
            let index = if stale {
                rank[&name]
            } else {
                directory.global[&name]
            };
            (index, name, items)
        })
        .collect();
    per_doc.sort_by_key(|&(index, _, _)| index);
    per_doc
}

/// Shard-local hits, keyed by the contributing shard's index.
type ShardHits = Vec<(usize, Vec<DocHit>)>;

/// Shared scaffolding for the two merged routes: fan out, split
/// successes from failures, and bail out `503` when *no* shard
/// answered.
fn gather_hits(shared: &RouterShared, target: &str) -> Result<(ShardHits, Vec<String>), Response> {
    let results = fan_out(shared, target);
    let mut shard_hits: ShardHits = Vec::new();
    let mut unreachable: Vec<String> = Vec::new();
    for (shard, call) in results {
        match call.ok().and_then(|response| parse_hits(&response)) {
            Some(hits) => shard_hits.push((shard.index, hits)),
            None => unreachable.push(shard.addr.clone()),
        }
    }
    if shard_hits.is_empty() {
        return Err(unavailable("all shards unreachable".to_string()));
    }
    Ok((shard_hits, unreachable))
}

fn handle_merged_top(shared: &RouterShared, request: &Request) -> Response {
    let Some(t) = request
        .query_param("t")
        .and_then(|t| t.parse::<usize>().ok())
    else {
        return json_response(
            400,
            wire::error_json("missing or unparseable query parameter `t`"),
        );
    };
    let started = Instant::now();
    let (shard_hits, unreachable) = match gather_hits(shared, &format!("/v1/merged/top?t={t}")) {
        Ok(gathered) => gathered,
        Err(response) => return response,
    };
    let mut merge_span = obs::span("merge");
    let per_doc = regroup(shared, shard_hits);
    let borrowed: Vec<(usize, &str, &[Scored])> = per_doc
        .iter()
        .map(|(i, n, s)| (*i, n.as_str(), s.as_slice()))
        .collect();
    let hits = merge_ranked(&borrowed, t);
    merge_span.attr_u64("documents", per_doc.len() as u64);
    merge_span.attr_u64("hits", hits.len() as u64);
    drop(merge_span);
    shared
        .metrics
        .fanout_latency
        .observe_us(duration_us(started.elapsed()));
    let mut fields = vec![
        ("t".to_string(), Json::Int(t as u64)),
        (
            "hits".to_string(),
            Json::Arr(hits.iter().map(wire::hit_to_json).collect()),
        ),
    ];
    fields.extend(degraded_fields(shared, unreachable));
    json_response(200, Json::Obj(fields))
}

fn handle_merged_threshold(shared: &RouterShared, request: &Request) -> Response {
    let Some(alpha) = request
        .query_param("alpha")
        .and_then(|a| a.parse::<f64>().ok())
    else {
        return json_response(
            400,
            wire::error_json("missing or unparseable query parameter `alpha`"),
        );
    };
    if !alpha.is_finite() {
        return json_response(400, wire::error_json("`alpha` must be finite"));
    }
    let started = Instant::now();
    let (shard_hits, unreachable) =
        match gather_hits(shared, &format!("/v1/merged/threshold?alpha={alpha}")) {
            Ok(gathered) => gathered,
            Err(response) => return response,
        };
    // Threshold semantics: every hit, in global document order, each
    // document's hits in its shard-reported order.
    let mut merge_span = obs::span("merge");
    let per_doc = regroup(shared, shard_hits);
    merge_span.attr_u64("documents", per_doc.len() as u64);
    let hits: Vec<DocHit> = per_doc
        .into_iter()
        .flat_map(|(index, name, items)| {
            items.into_iter().map(move |item| DocHit {
                doc: index,
                name: name.clone(),
                item,
            })
        })
        .collect();
    merge_span.attr_u64("hits", hits.len() as u64);
    drop(merge_span);
    shared
        .metrics
        .fanout_latency
        .observe_us(duration_us(started.elapsed()));
    let mut fields = vec![
        ("alpha".to_string(), Json::Num(alpha)),
        ("count".to_string(), Json::Int(hits.len() as u64)),
        (
            "hits".to_string(),
            Json::Arr(hits.iter().map(wire::hit_to_json).collect()),
        ),
    ];
    fields.extend(degraded_fields(shared, unreachable));
    json_response(200, Json::Obj(fields))
}

// ---------------------------------------------------------------------------
// Compile-time thread-safety contract (mirrors the server crate).
// ---------------------------------------------------------------------------

const _: () = {
    const fn require_send_sync<T: Send + Sync>() {}
    require_send_sync::<RouterHandler>();
    require_send_sync::<RouterShared>();
    require_send_sync::<ShardRuntime>();
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_window_p95_tracks_the_tail() {
        let mut window = LatencyWindow::default();
        assert_eq!(window.p95(), None);
        for _ in 0..19 {
            window.record(100);
        }
        window.record(9_000);
        // 20 samples, index 19 → the single outlier.
        assert_eq!(window.p95(), Some(9_000));
        // The window is bounded: old samples roll off.
        for _ in 0..LATENCY_WINDOW {
            window.record(50);
        }
        assert_eq!(window.p95(), Some(50));
    }

    #[test]
    fn directory_build_sorts_dedups_and_ranks() {
        let directory = Directory::build(vec![
            ("beta".into(), 1, Json::Null),
            ("alpha".into(), 0, Json::Null),
            ("beta".into(), 0, Json::Null),
            ("gamma".into(), 1, Json::Null),
        ]);
        assert_eq!(directory.entries.len(), 3);
        assert_eq!(directory.global["alpha"], 0);
        assert_eq!(directory.global["beta"], 1);
        assert_eq!(directory.global["gamma"], 2);
        // Duplicate name resolves to the lowest shard index.
        assert_eq!(directory.shard_of["beta"], 0);
    }

    #[test]
    fn bind_rejects_an_empty_shard_list() {
        let err = RouterServer::bind(RouterConfig::new(Vec::new()))
            .map(|_| ())
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    fn shard_at(addr: &str, config: &RouterConfig) -> ShardRuntime {
        ShardRuntime {
            index: 0,
            addr: addr.into(),
            pool: Pool::new(addr.into(), config.client, 4),
            health: Health::new(config.health_policy(), Instant::now(), 1),
            counters: ShardCounters::default(),
            latency: Mutex::new(LatencyWindow::default()),
            generation: AtomicU64::new(0),
        }
    }

    #[test]
    fn park_keeps_only_connections_in_step_with_the_shard() {
        use std::io::{Read, Write};
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let replies: [&[u8]; 3] = [
            b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok",
            b"HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 2\r\n\r\nok",
            // A second, unrequested response behind the first.
            b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nokHTTP/1.1 200 OK\r\n\r\n",
        ];
        let server = thread::spawn(move || {
            let mut streams = Vec::new();
            for reply in replies {
                let (mut stream, _) = listener.accept().unwrap();
                let mut request = [0u8; 1024];
                assert!(stream.read(&mut request).unwrap() > 0);
                stream.write_all(reply).unwrap();
                streams.push(stream);
            }
            streams
        });
        let config = RouterConfig::new(vec![addr.clone()]);
        let shard = shard_at(&addr, &config);
        let conns: Vec<ClientConn> = (0..replies.len())
            .map(|_| ClientConn::connect(&addr).unwrap())
            .collect();
        for mut conn in conns {
            let response = conn.request("GET", "/x", None).unwrap();
            assert_eq!(response.body_str(), "ok");
            park(&shard, conn, &response);
            // Only the first, clean exchange is parked.
            assert_eq!(shard.pool.idle_len(), 1);
        }
        drop(server.join().unwrap());
    }

    #[test]
    fn hedge_trigger_clamps_and_cold_starts_at_max() {
        let mut config = RouterConfig::new(vec!["127.0.0.1:1".into()]);
        config.hedge = HedgePolicy::P95 {
            min: Duration::from_millis(2),
            max: Duration::from_millis(20),
        };
        let shard = shard_at("127.0.0.1:1", &config);
        let shared = RouterShared {
            ring: Ring::new(1, 8),
            config,
            shards: Vec::new(),
            metrics: RouterMetrics::default(),
            directory: RwLock::new(Directory::default()),
            directory_refresh: Mutex::new(()),
            directory_stale: AtomicBool::new(false),
            stop: AtomicBool::new(false),
            checker: Mutex::new(None),
        };
        // No samples yet: conservative trigger at max.
        assert_eq!(
            hedge_trigger(&shared, &shard),
            Some(Duration::from_millis(20))
        );
        // Fast shard: trigger clamps up to min.
        for _ in 0..LATENCY_WINDOW {
            shard.latency.lock().unwrap().record(100); // 0.1 ms
        }
        assert_eq!(
            hedge_trigger(&shared, &shard),
            Some(Duration::from_millis(2))
        );
        // Slow shard: clamps down to max.
        for _ in 0..LATENCY_WINDOW {
            shard.latency.lock().unwrap().record(1_000_000);
        }
        assert_eq!(
            hedge_trigger(&shared, &shard),
            Some(Duration::from_millis(20))
        );
    }
}
