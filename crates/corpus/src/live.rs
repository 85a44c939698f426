//! Live documents: streaming ingestion with snapshot generations and
//! sliding-window alerting.
//!
//! A *live* document is mutable: its byte stream keeps growing through
//! [`Corpus::append_live`] while readers keep querying. The write path is
//! deliberately split from the read path:
//!
//! * **Appends** land in an in-memory [`GrowableCounts`] tail plus a
//!   durable sidecar file (`{name}.live`) that records the model, the
//!   byte→symbol alphabet, and the full symbol stream — a restart replays
//!   the sidecar, so appends made after the last freeze survive.
//! * **Freezes** turn the consumed stream into a checksummed snapshot
//!   *generation* (`{name}.g{N}.snap`) behind the atomic manifest: the
//!   manifest entry flips from generation `N` to `N+1` in one rename, the
//!   corpus generation bumps (so routers notice via `/healthz` exactly as
//!   they do for a rebalance), and the previous generation's file stays on
//!   disk under a retention count — a reader holding a point-in-time entry
//!   clone, or a warm `Arc<Engine>`, keeps answering **bit-identically**
//!   to the generation it started with. Readers are never blocked: the
//!   expensive work (index compaction, snapshot write) happens before the
//!   brief membership write lock.
//! * **Watches** re-score only the appended tail: a registered watch
//!   (`window`, `threshold`, `top_t`) runs
//!   [`sigstr_core::streaming::score_tail_windows`] over the new symbols
//!   against the model fixed at creation, and above-threshold hits become
//!   [`Alert`]s delivered through the long-polling [`Corpus::watch_poll`].
//!
//! Queries always serve the **latest frozen generation** — the unfrozen
//! tail is visible to watches immediately but enters the query path at the
//! next freeze. That is what makes the read race benign: any answer is
//! bit-identical to *some* fully-frozen generation by construction.
//!
//! The in-memory tails are charged against the warm-engine cache budget
//! ([`Corpus::effective_budget`]): a corpus carrying large live tails
//! retains fewer warm static engines, so the total resident footprint
//! stays bounded.

use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use sigstr_core::streaming::score_tail_windows;
use sigstr_core::{CountsLayout, Engine, Model, Scored, Sequence};

use crate::manifest::{self, DocumentEntry};
use crate::{io_error, Corpus, CorpusError, LoadKind, Result};

/// Sidecar magic: the first four bytes of every `{name}.live` file.
const SIDECAR_MAGIC: &[u8; 4] = b"SGLV";

/// Sidecar format version.
const SIDECAR_VERSION: u32 = 1;

/// Longest live-document name: the generation suffix (`.g{N}.snap`) must
/// still fit the manifest's 140-character file-field limit.
const MAX_LIVE_NAME: usize = 100;

/// Alerts retained per document; the oldest are dropped first, so a slow
/// poller loses the tail of history, never blocks the appender.
const ALERT_CAP: usize = 4096;

/// Alerts returned by a single poll.
const POLL_BATCH: usize = 256;

/// Freeze-pause histogram bucket upper bounds, in microseconds.
pub const FREEZE_BUCKETS_US: [u64; 8] =
    [100, 500, 1_000, 5_000, 25_000, 100_000, 500_000, 2_500_000];

/// Freeze policy and generation retention for a corpus's live documents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LiveOptions {
    /// Freeze when the unfrozen tail reaches this many symbols (checked
    /// inline on append).
    pub freeze_tail: usize,
    /// Freeze when the oldest unfrozen symbol is at least this old
    /// (checked by [`Corpus::freeze_due`] — the serving layer's ticker).
    pub freeze_age: Duration,
    /// Snapshot generations kept on disk per document (≥ 2, so the
    /// generation a racing reader is loading always survives its own
    /// replacement).
    pub retain: usize,
}

impl Default for LiveOptions {
    fn default() -> Self {
        Self {
            freeze_tail: 64 * 1024,
            freeze_age: Duration::from_secs(2),
            retain: 3,
        }
    }
}

/// A registered sliding-window watch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WatchSpec {
    /// Longest substring (window) the watch scores, in symbols.
    pub window: usize,
    /// Alert on `X² > threshold` (strict, like `above_threshold`).
    pub threshold: f64,
    /// At most this many alerts per append (best-first).
    pub top_t: usize,
}

/// One above-threshold hit pushed by a watch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Alert {
    /// Monotonic per-document sequence number (resumption cursor).
    pub seq: u64,
    /// The watch that produced it.
    pub watch: u64,
    /// The document's freeze generation when the alert fired.
    pub generation: u64,
    /// The scored substring (positions are document-absolute).
    pub item: Scored,
}

/// What [`Corpus::watch_poll`] returns.
#[derive(Debug, Clone, PartialEq)]
pub struct WatchBatch {
    /// Alerts with `seq > since`, oldest first (possibly empty on
    /// timeout).
    pub alerts: Vec<Alert>,
    /// Pass this as the next poll's `since` to resume without gaps.
    pub next_since: u64,
    /// The document's freeze generation at delivery time.
    pub generation: u64,
    /// Stream length (frozen prefix + unfrozen tail) at delivery time.
    pub n: usize,
}

/// The result of one append.
#[derive(Debug, Clone, PartialEq)]
pub struct AppendOutcome {
    /// Stream length after the append.
    pub n: usize,
    /// Unfrozen tail length after the append (0 if it triggered a
    /// freeze).
    pub tail: usize,
    /// Freeze generation after the append.
    pub generation: u64,
    /// Whether this append crossed the tail threshold and froze.
    pub frozen: bool,
    /// Alerts emitted by registered watches for this append.
    pub alerts: Vec<Alert>,
}

/// Per-document observability snapshot (see [`Corpus::live_status`]).
#[derive(Debug, Clone, PartialEq)]
pub struct LiveDocStatus {
    /// Document name.
    pub name: String,
    /// Freeze generation (1 = the creation snapshot).
    pub generation: u64,
    /// Stream length (frozen prefix + unfrozen tail).
    pub n: usize,
    /// Unfrozen tail length in symbols.
    pub tail: usize,
    /// Appends accepted.
    pub appends: u64,
    /// Symbols accepted across all appends.
    pub appended_symbols: u64,
    /// Freezes performed (excluding the creation snapshot).
    pub freezes: u64,
    /// Registered watches.
    pub watches: usize,
    /// Alerts pushed into the ring by watches.
    pub alerts_emitted: u64,
    /// Alerts handed out by polls.
    pub alerts_delivered: u64,
    /// Bytes of in-memory live state (growable table + symbols),
    /// charged against the cache budget.
    pub live_bytes: usize,
}

/// Corpus-wide live-document observability (see [`Corpus::live_stats`]).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LiveStats {
    /// Per-document snapshots, in name order.
    pub docs: Vec<LiveDocStatus>,
    /// Freeze-pause histogram: counts per [`FREEZE_BUCKETS_US`] bucket,
    /// plus one overflow bucket.
    pub freeze_buckets: [u64; FREEZE_BUCKETS_US.len() + 1],
    /// Total freezes observed by the histogram.
    pub freeze_count: u64,
    /// Sum of freeze pauses in microseconds.
    pub freeze_sum_us: u64,
    /// Total in-memory live bytes across documents.
    pub live_bytes: usize,
}

/// Corpus-level freeze-pause histogram (lock-free, updated at the end of
/// every freeze).
#[derive(Debug, Default)]
pub(crate) struct FreezeHist {
    buckets: [AtomicU64; FREEZE_BUCKETS_US.len() + 1],
    count: AtomicU64,
    sum_us: AtomicU64,
}

impl FreezeHist {
    fn observe(&self, us: u64) {
        let slot = FREEZE_BUCKETS_US
            .iter()
            .position(|&b| us <= b)
            .unwrap_or(FREEZE_BUCKETS_US.len());
        self.buckets[slot].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
    }

    fn snapshot(&self) -> ([u64; FREEZE_BUCKETS_US.len() + 1], u64, u64) {
        let mut buckets = [0u64; FREEZE_BUCKETS_US.len() + 1];
        for (out, b) in buckets.iter_mut().zip(&self.buckets) {
            *out = b.load(Ordering::Relaxed);
        }
        (
            buckets,
            self.count.load(Ordering::Relaxed),
            self.sum_us.load(Ordering::Relaxed),
        )
    }
}

struct Watch {
    id: u64,
    spec: WatchSpec,
}

/// The mutable half of a live document, guarded by one mutex: the
/// appender, the freezer, and pollers all synchronize here, while
/// queries never touch it (they go through the manifest entry and the
/// warm-engine cache like any static document).
struct LiveState {
    counts: sigstr_core::GrowableCounts,
    model: Model,
    layout: CountsLayout,
    /// symbol → original byte (sidecar header; answers render through it).
    alphabet: Vec<u8>,
    /// byte → symbol + 1 (0 = not in the alphabet).
    sym_of: [u16; 256],
    /// Open append handle on the sidecar.
    file: std::fs::File,
    generation: u64,
    frozen_len: usize,
    last_freeze: Instant,
    appends: u64,
    appended_symbols: u64,
    freezes: u64,
    watches: Vec<Watch>,
    next_watch: u64,
    alerts: VecDeque<Alert>,
    alert_seq: u64,
    alerts_emitted: u64,
    alerts_delivered: u64,
    /// Set by `remove_document` so a parked poller stops waiting on a
    /// document that no longer exists.
    closed: bool,
}

impl LiveState {
    fn tail(&self) -> usize {
        self.counts.n() - self.frozen_len
    }

    fn live_bytes(&self) -> usize {
        self.counts.index_bytes() + self.counts.n()
    }
}

pub(crate) struct LiveDoc {
    name: String,
    state: Mutex<LiveState>,
    notify: Condvar,
}

impl std::fmt::Debug for LiveDoc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LiveDoc").field("name", &self.name).finish()
    }
}

fn sym_table(alphabet: &[u8]) -> [u16; 256] {
    let mut table = [0u16; 256];
    for (sym, &b) in alphabet.iter().enumerate() {
        table[b as usize] = sym as u16 + 1;
    }
    table
}

fn layout_code(layout: CountsLayout) -> u8 {
    match layout {
        CountsLayout::Blocked => 1,
        _ => 0,
    }
}

fn layout_from_code(code: u8) -> CountsLayout {
    if code == 1 {
        CountsLayout::Blocked
    } else {
        CountsLayout::Flat
    }
}

fn sidecar_path(dir: &std::path::Path, name: &str) -> PathBuf {
    dir.join(format!("{name}.live"))
}

fn generation_file(name: &str, generation: u64) -> String {
    format!("{name}.g{generation}.snap")
}

/// The generation encoded in a live document's snapshot file name
/// (`{name}.g{N}.snap`), or `None` for static-document file names.
fn parse_generation_file(name: &str, file: &str) -> Option<u64> {
    file.strip_prefix(name)?
        .strip_prefix(".g")?
        .strip_suffix(".snap")?
        .parse()
        .ok()
}

/// Render the sidecar header: magic, version, geometry, alphabet, model.
fn sidecar_header(k: usize, layout: CountsLayout, alphabet: &[u8], model: &Model) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + alphabet.len() + k * 8);
    out.extend_from_slice(SIDECAR_MAGIC);
    out.extend_from_slice(&SIDECAR_VERSION.to_le_bytes());
    out.extend_from_slice(&(k as u32).to_le_bytes());
    out.push(layout_code(layout));
    out.extend_from_slice(alphabet);
    for &p in model.probs() {
        out.extend_from_slice(&p.to_le_bytes());
    }
    out
}

struct SidecarContents {
    layout: CountsLayout,
    alphabet: Vec<u8>,
    model: Model,
    symbols: Vec<u8>,
}

fn corrupt(path: &std::path::Path, what: &str) -> CorpusError {
    CorpusError::Manifest {
        details: format!("live sidecar {}: {what}", path.display()),
    }
}

fn read_sidecar(path: &std::path::Path) -> Result<SidecarContents> {
    let mut bytes = Vec::new();
    std::fs::File::open(path)
        .and_then(|mut f| f.read_to_end(&mut bytes))
        .map_err(io_error(path))?;
    if bytes.len() < 13 || &bytes[..4] != SIDECAR_MAGIC {
        return Err(corrupt(path, "bad magic"));
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
    if version != SIDECAR_VERSION {
        return Err(corrupt(path, &format!("unsupported version {version}")));
    }
    let k = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes")) as usize;
    let layout = layout_from_code(bytes[12]);
    let header_len = 13 + k + k * 8;
    if k == 0 || bytes.len() < header_len {
        return Err(corrupt(path, "truncated header"));
    }
    let alphabet = bytes[13..13 + k].to_vec();
    let mut probs = Vec::with_capacity(k);
    for i in 0..k {
        let at = 13 + k + i * 8;
        probs.push(f64::from_le_bytes(
            bytes[at..at + 8].try_into().expect("8 bytes"),
        ));
    }
    let model = Model::from_probs(probs).map_err(CorpusError::Core)?;
    let symbols = bytes[header_len..].to_vec();
    if symbols.iter().any(|&s| s as usize >= k) {
        return Err(corrupt(path, "symbol out of alphabet range"));
    }
    Ok(SidecarContents {
        layout,
        alphabet,
        model,
        symbols,
    })
}

impl Corpus {
    // -- Creation and recovery ---------------------------------------------

    /// Set the live-document freeze policy (tail size, age, generation
    /// retention). `retain` is clamped to ≥ 2 so the generation a racing
    /// reader may still be loading is never garbage-collected by its own
    /// replacement.
    pub fn with_live_options(mut self, opts: LiveOptions) -> Self {
        self.live_opts = LiveOptions {
            retain: opts.retain.max(2),
            ..opts
        };
        self
    }

    /// The live-document freeze policy.
    pub fn live_options(&self) -> LiveOptions {
        self.live_opts
    }

    /// Register a **live** (appendable) document. Like
    /// [`Corpus::add_document`], but the document stays open for
    /// [`Corpus::append_live`]: the initial sequence becomes snapshot
    /// generation 1 (`{name}.g1.snap`), and a durable sidecar
    /// (`{name}.live`) records the fixed model, the byte→symbol
    /// `alphabet` (`alphabet[s]` is the byte rendered for symbol `s`, as
    /// returned by [`Sequence::from_text`]), and the symbol stream, so a
    /// reopened corpus resumes with the unfrozen tail intact.
    ///
    /// The model is **fixed at creation** — that is the point: the null
    /// model is the hypothesis, and appended data is scored against it.
    pub fn add_live_document(
        &mut self,
        name: &str,
        seq: &Sequence,
        alphabet: &[u8],
        model: Model,
        layout: CountsLayout,
    ) -> Result<()> {
        manifest::validate_name(name)?;
        if name.len() > MAX_LIVE_NAME {
            return Err(CorpusError::InvalidName {
                name: name.to_string(),
                details: "live document names are limited to 100 characters \
                          (the generation suffix must fit the manifest)",
            });
        }
        if self.position(name).is_some() {
            return Err(CorpusError::DuplicateDocument {
                name: name.to_string(),
            });
        }
        let k = seq.k();
        if alphabet.len() != k || model.k() != k {
            return Err(CorpusError::Core(sigstr_core::Error::AlphabetMismatch {
                model_k: if model.k() != k {
                    model.k()
                } else {
                    alphabet.len()
                },
                seq_k: k,
            }));
        }
        let mut counts = sigstr_core::GrowableCounts::new(k);
        for &s in seq.symbols() {
            counts.push(s);
        }
        let engine = Engine::from_index(counts.freeze_index(layout), model.clone())?;

        // Sidecar first (tmp + rename): if anything later fails, an
        // orphan sidecar without a manifest entry is inert.
        let sidecar = sidecar_path(&self.dir, name);
        let tmp = self.dir.join(format!("{name}.live.tmp"));
        let mut header = sidecar_header(k, layout, alphabet, &model);
        header.extend_from_slice(seq.symbols());
        std::fs::write(&tmp, &header).map_err(io_error(&tmp))?;
        std::fs::rename(&tmp, &sidecar).map_err(io_error(&sidecar))?;

        let file = generation_file(name, 1);
        if let Err(e) = self.install_document_as(name, file, engine) {
            std::fs::remove_file(&sidecar).ok();
            return Err(e);
        }
        let handle = std::fs::OpenOptions::new()
            .append(true)
            .open(&sidecar)
            .map_err(io_error(&sidecar))?;
        let state = LiveState {
            counts,
            model,
            layout,
            alphabet: alphabet.to_vec(),
            sym_of: sym_table(alphabet),
            file: handle,
            generation: 1,
            frozen_len: seq.len(),
            last_freeze: Instant::now(),
            appends: 0,
            appended_symbols: 0,
            freezes: 0,
            watches: Vec::new(),
            next_watch: 1,
            alerts: VecDeque::new(),
            alert_seq: 0,
            alerts_emitted: 0,
            alerts_delivered: 0,
            closed: false,
        };
        self.adopt_live_doc(name, state);
        Ok(())
    }

    fn adopt_live_doc(&self, name: &str, state: LiveState) {
        self.live_bytes
            .fetch_add(state.live_bytes(), Ordering::Relaxed);
        self.live.write().expect("live map poisoned").insert(
            name.to_string(),
            Arc::new(LiveDoc {
                name: name.to_string(),
                state: Mutex::new(state),
                notify: Condvar::new(),
            }),
        );
    }

    /// Rebuild live-document state from sidecars after [`Corpus::open`]:
    /// for every manifest entry with a `{name}.live` sidecar, replay the
    /// symbol stream. The frozen prefix length comes from the manifest
    /// (`entry.n`); anything beyond it in the sidecar is the unfrozen
    /// tail — appends made after the last freeze survive the restart.
    pub(crate) fn recover_live_docs(&self) -> Result<()> {
        let entries = self.entries();
        for entry in entries {
            if self.is_live(&entry.name) {
                continue;
            }
            let sidecar = sidecar_path(&self.dir, &entry.name);
            if !sidecar.exists() {
                continue;
            }
            let contents = read_sidecar(&sidecar)?;
            if contents.alphabet.len() != entry.k {
                return Err(corrupt(&sidecar, "alphabet disagrees with the manifest"));
            }
            if contents.symbols.len() < entry.n {
                return Err(corrupt(
                    &sidecar,
                    "shorter than the manifest's frozen prefix",
                ));
            }
            let generation = parse_generation_file(&entry.name, &entry.file).unwrap_or(1);
            let mut counts = sigstr_core::GrowableCounts::new(entry.k);
            for &s in &contents.symbols {
                counts.push(s);
            }
            let handle = std::fs::OpenOptions::new()
                .append(true)
                .open(&sidecar)
                .map_err(io_error(&sidecar))?;
            let state = LiveState {
                counts,
                model: contents.model,
                layout: contents.layout,
                sym_of: sym_table(&contents.alphabet),
                alphabet: contents.alphabet,
                file: handle,
                generation,
                frozen_len: entry.n,
                last_freeze: Instant::now(),
                appends: 0,
                appended_symbols: 0,
                freezes: 0,
                watches: Vec::new(),
                next_watch: 1,
                alerts: VecDeque::new(),
                alert_seq: 0,
                alerts_emitted: 0,
                alerts_delivered: 0,
                closed: false,
            };
            self.adopt_live_doc(&entry.name, state);
        }
        Ok(())
    }

    /// Whether `name` is a live (appendable) document.
    pub fn is_live(&self, name: &str) -> bool {
        self.live
            .read()
            .expect("live map poisoned")
            .contains_key(name)
    }

    fn live_doc(&self, name: &str) -> Result<Arc<LiveDoc>> {
        let live = self.live.read().expect("live map poisoned");
        if let Some(doc) = live.get(name) {
            return Ok(Arc::clone(doc));
        }
        drop(live);
        if self.position(name).is_some() {
            Err(CorpusError::NotLive {
                name: name.to_string(),
            })
        } else {
            Err(CorpusError::UnknownDocument {
                name: name.to_string(),
            })
        }
    }

    /// Drop live state for a removed document and delete its sidecar and
    /// generation files. Called by `remove_document` (which already
    /// deleted the manifest entry and the current snapshot).
    pub(crate) fn remove_live_doc(&self, name: &str) {
        let doc = self.live.write().expect("live map poisoned").remove(name);
        if let Some(doc) = doc {
            let mut state = doc.state.lock().expect("live state poisoned");
            state.closed = true;
            self.live_bytes
                .fetch_sub(state.live_bytes(), Ordering::Relaxed);
            let top = state.generation;
            drop(state);
            doc.notify.notify_all();
            for g in 1..=top {
                std::fs::remove_file(self.dir.join(generation_file(name, g))).ok();
            }
            std::fs::remove_file(sidecar_path(&self.dir, name)).ok();
        }
    }

    /// Detach a live document without touching its files: the on-disk
    /// manifest no longer lists this name (an external rebalance moved
    /// it away), so appends and polls must stop here, but the sidecar
    /// and generation snapshots now belong to whoever rewrote the
    /// manifest. Parked long-polls wake and answer `UnknownDocument`.
    pub(crate) fn detach_live_doc(&self, name: &str) {
        let doc = self.live.write().expect("live map poisoned").remove(name);
        if let Some(doc) = doc {
            let mut state = doc.state.lock().expect("live state poisoned");
            state.closed = true;
            self.live_bytes
                .fetch_sub(state.live_bytes(), Ordering::Relaxed);
            drop(state);
            doc.notify.notify_all();
        }
    }

    // -- The write path ----------------------------------------------------

    /// Append raw bytes to a live document. ASCII whitespace is skipped;
    /// every other byte must be in the document's fixed alphabet
    /// (all-or-nothing: an invalid byte rejects the whole append before
    /// any state changes). Registered watches re-score the appended tail
    /// and their alerts come back in the outcome (and through
    /// [`Corpus::watch_poll`]). Crossing the configured tail threshold
    /// freezes inline — the caller pays the freeze pause, readers don't.
    pub fn append_live(&self, name: &str, bytes: &[u8]) -> Result<AppendOutcome> {
        let doc = self.live_doc(name)?;
        let mut state = doc.state.lock().expect("live state poisoned");
        let mut symbols = Vec::with_capacity(bytes.len());
        for &b in bytes {
            if b.is_ascii_whitespace() {
                continue;
            }
            match state.sym_of[b as usize] {
                0 => {
                    return Err(CorpusError::InvalidAppend {
                        name: name.to_string(),
                        details: format!(
                            "byte 0x{b:02x} is not in the document's alphabet ({} symbols)",
                            state.alphabet.len()
                        ),
                    })
                }
                s => symbols.push((s - 1) as u8),
            }
        }
        let before_bytes = state.live_bytes();
        let old_n = state.counts.n();
        for &s in &symbols {
            state.counts.push(s);
        }
        // Durability: the sidecar grows before we acknowledge. A torn
        // trailing write surfaces on recovery as an out-of-range symbol.
        state
            .file
            .write_all(&symbols)
            .map_err(|e| CorpusError::Io {
                path: sidecar_path(&self.dir, name).display().to_string(),
                details: e.to_string(),
            })?;
        state.appends += 1;
        state.appended_symbols += symbols.len() as u64;
        self.live_bytes
            .fetch_add(state.live_bytes() - before_bytes, Ordering::Relaxed);

        // Sliding-window monitor: score only the windows that end in the
        // appended tail, against the model fixed at creation.
        let mut alerts = Vec::new();
        if !symbols.is_empty() && !state.watches.is_empty() {
            let generation = state.generation;
            let watch_runs: Vec<(u64, WatchSpec)> =
                state.watches.iter().map(|w| (w.id, w.spec)).collect();
            for (id, spec) in watch_runs {
                for item in score_tail_windows(
                    &state.counts,
                    &state.model,
                    old_n,
                    spec.window,
                    spec.threshold,
                    spec.top_t,
                ) {
                    state.alert_seq += 1;
                    let alert = Alert {
                        seq: state.alert_seq,
                        watch: id,
                        generation,
                        item,
                    };
                    state.alerts.push_back(alert);
                    if state.alerts.len() > ALERT_CAP {
                        state.alerts.pop_front();
                    }
                    state.alerts_emitted += 1;
                    alerts.push(alert);
                }
            }
        }

        let mut frozen = false;
        if state.tail() >= self.live_opts.freeze_tail && state.tail() > 0 {
            self.freeze_locked(&doc, &mut state)?;
            frozen = true;
        }
        let outcome = AppendOutcome {
            n: state.counts.n(),
            tail: state.tail(),
            generation: state.generation,
            frozen,
            alerts,
        };
        let emitted = !outcome.alerts.is_empty();
        drop(state);
        if emitted {
            doc.notify.notify_all();
        }
        Ok(outcome)
    }

    /// Freeze a live document's unfrozen tail into the next snapshot
    /// generation now, regardless of thresholds. Returns the new
    /// generation, or `None` when the tail was empty (nothing to do).
    pub fn freeze_live(&self, name: &str) -> Result<Option<u64>> {
        let doc = self.live_doc(name)?;
        let mut state = doc.state.lock().expect("live state poisoned");
        if state.tail() == 0 {
            return Ok(None);
        }
        self.freeze_locked(&doc, &mut state)?;
        Ok(Some(state.generation))
    }

    /// Freeze every live document whose unfrozen tail is older than the
    /// configured age (or larger than the tail threshold — covers a tail
    /// that grew while freezes were failing). The serving layer calls
    /// this from a ticker thread. Returns how many documents froze.
    pub fn freeze_due(&self) -> usize {
        let docs: Vec<Arc<LiveDoc>> = self
            .live
            .read()
            .expect("live map poisoned")
            .values()
            .cloned()
            .collect();
        let mut froze = 0;
        for doc in docs {
            let mut state = doc.state.lock().expect("live state poisoned");
            if state.closed || state.tail() == 0 {
                continue;
            }
            let due = state.last_freeze.elapsed() >= self.live_opts.freeze_age
                || state.tail() >= self.live_opts.freeze_tail;
            if due && self.freeze_locked(&doc, &mut state).is_ok() {
                froze += 1;
            }
        }
        froze
    }

    /// The freeze itself. Expensive work (index compaction, snapshot
    /// write) happens while holding only this document's state lock —
    /// queries never take it — and the membership write lock is held just
    /// long enough to swap one manifest entry. Readers racing this keep
    /// serving the previous generation bit-exactly: its file stays on
    /// disk under the retention count and their warm `Arc<Engine>`
    /// handles are immune to eviction.
    fn freeze_locked(&self, doc: &LiveDoc, state: &mut LiveState) -> Result<()> {
        let mut span = sigstr_obs::span("freeze");
        span.attr("doc", doc.name.as_str());
        span.attr_u64("tail_symbols", state.tail() as u64);
        let t0 = Instant::now();
        let engine =
            Engine::from_index(state.counts.freeze_index(state.layout), state.model.clone())?;
        let next = state.generation + 1;
        let file = generation_file(&doc.name, next);
        let path = self.dir.join(&file);
        let tmp = self.dir.join(format!("{file}.tmp"));
        engine.write_snapshot_path(&tmp)?;
        std::fs::rename(&tmp, &path).map_err(io_error(&path))?;
        // Make the sidecar's view of the frozen prefix durable alongside
        // the generation it belongs to; if that fails, the generation must
        // not be published.
        if let Err(e) = state.file.sync_data() {
            std::fs::remove_file(&path).ok();
            return Err(io_error(&sidecar_path(&self.dir, &doc.name))(e));
        }
        let entry = DocumentEntry {
            name: doc.name.clone(),
            file,
            k: engine.k(),
            n: engine.n(),
            layout: engine.layout(),
        };
        if let Err(e) = self.replace_entry(&doc.name, entry) {
            std::fs::remove_file(&path).ok();
            return Err(e);
        }
        let budget = self.effective_budget();
        {
            let mut cache = self.cache.lock().expect("corpus cache poisoned");
            // Retire the previous generation's warm engine first so its
            // bytes leave the accounting before the new one is charged
            // (handles already handed out keep answering).
            cache.remove(&doc.name);
            cache.insert(
                doc.name.to_string(),
                Arc::new(engine),
                budget,
                LoadKind::Built,
            );
        }
        state.generation = next;
        state.frozen_len = state.counts.n();
        state.last_freeze = Instant::now();
        state.freezes += 1;
        self.freeze_hist
            .observe(t0.elapsed().as_micros().min(u64::MAX as u128) as u64);
        // Generation GC: keep the newest `retain` generations so racing
        // readers of the previous one never lose their file mid-load.
        if next > self.live_opts.retain as u64 {
            let expired = next - self.live_opts.retain as u64;
            for g in expired.saturating_sub(8)..=expired {
                std::fs::remove_file(self.dir.join(generation_file(&doc.name, g))).ok();
            }
        }
        Ok(())
    }

    // -- Watches -----------------------------------------------------------

    /// Register a sliding-window watch on a live document. Every
    /// subsequent append re-scores its tail under `spec` and pushes
    /// above-threshold alerts, retrievable via [`Corpus::watch_poll`].
    pub fn watch_register(&self, name: &str, spec: WatchSpec) -> Result<u64> {
        if spec.window == 0
            || spec.top_t == 0
            || !spec.threshold.is_finite()
            || spec.threshold < 0.0
        {
            return Err(CorpusError::InvalidAppend {
                name: name.to_string(),
                details: "watch requires window ≥ 1, top_t ≥ 1, and a finite threshold ≥ 0"
                    .to_string(),
            });
        }
        let doc = self.live_doc(name)?;
        let mut state = doc.state.lock().expect("live state poisoned");
        let id = state.next_watch;
        state.next_watch += 1;
        state.watches.push(Watch { id, spec });
        Ok(id)
    }

    /// Remove a watch. Returns whether it existed.
    pub fn watch_unregister(&self, name: &str, id: u64) -> Result<bool> {
        let doc = self.live_doc(name)?;
        let mut state = doc.state.lock().expect("live state poisoned");
        let before = state.watches.len();
        state.watches.retain(|w| w.id != id);
        Ok(state.watches.len() < before)
    }

    /// Long-poll for alerts with `seq > since`. Returns as soon as such
    /// alerts exist (oldest first, bounded batch), or with an empty batch
    /// once `timeout` elapses. The wait parks on a condvar — it holds no
    /// lock that the appender, the freezer, or queries contend on beyond
    /// this document's own state mutex, which the wait releases.
    pub fn watch_poll(&self, name: &str, since: u64, timeout: Duration) -> Result<WatchBatch> {
        let doc = self.live_doc(name)?;
        let deadline = Instant::now() + timeout;
        let mut state = doc.state.lock().expect("live state poisoned");
        loop {
            if state.closed {
                return Err(CorpusError::UnknownDocument {
                    name: name.to_string(),
                });
            }
            if state.alerts.back().is_some_and(|a| a.seq > since) {
                let alerts: Vec<Alert> = state
                    .alerts
                    .iter()
                    .filter(|a| a.seq > since)
                    .take(POLL_BATCH)
                    .copied()
                    .collect();
                let next_since = alerts.last().map_or(since, |a| a.seq);
                state.alerts_delivered += alerts.len() as u64;
                return Ok(WatchBatch {
                    alerts,
                    next_since,
                    generation: state.generation,
                    n: state.counts.n(),
                });
            }
            let now = Instant::now();
            if now >= deadline {
                return Ok(WatchBatch {
                    alerts: Vec::new(),
                    next_since: since.min(state.alert_seq),
                    generation: state.generation,
                    n: state.counts.n(),
                });
            }
            let (guard, _) = doc
                .notify
                .wait_timeout(state, deadline - now)
                .expect("live state poisoned");
            state = guard;
        }
    }

    // -- Observability -----------------------------------------------------

    /// Per-document live status, in name order.
    pub fn live_status(&self) -> Vec<LiveDocStatus> {
        let docs: Vec<Arc<LiveDoc>> = self
            .live
            .read()
            .expect("live map poisoned")
            .values()
            .cloned()
            .collect();
        let mut out: Vec<LiveDocStatus> = docs
            .iter()
            .map(|doc| {
                let state = doc.state.lock().expect("live state poisoned");
                LiveDocStatus {
                    name: doc.name.clone(),
                    generation: state.generation,
                    n: state.counts.n(),
                    tail: state.tail(),
                    appends: state.appends,
                    appended_symbols: state.appended_symbols,
                    freezes: state.freezes,
                    watches: state.watches.len(),
                    alerts_emitted: state.alerts_emitted,
                    alerts_delivered: state.alerts_delivered,
                    live_bytes: state.live_bytes(),
                }
            })
            .collect();
        out.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }

    /// One live document's status.
    pub fn live_doc_status(&self, name: &str) -> Option<LiveDocStatus> {
        self.live_status().into_iter().find(|s| s.name == name)
    }

    /// Corpus-wide live-document stats: per-doc status plus the freeze
    /// pause histogram and the total in-memory tail bytes charged against
    /// the cache budget.
    pub fn live_stats(&self) -> LiveStats {
        let docs = self.live_status();
        let (freeze_buckets, freeze_count, freeze_sum_us) = self.freeze_hist.snapshot();
        let live_bytes = docs.iter().map(|d| d.live_bytes).sum();
        LiveStats {
            docs,
            freeze_buckets,
            freeze_count,
            freeze_sum_us,
            live_bytes,
        }
    }

    /// The cache budget available to warm engines once in-memory live
    /// tails are charged: live documents and the LRU cache share one
    /// byte budget, so a corpus carrying big unfrozen tails retains
    /// fewer warm static engines instead of blowing past its limit.
    pub fn effective_budget(&self) -> usize {
        self.budget
            .saturating_sub(self.live_bytes.load(Ordering::Relaxed))
    }

    /// Swap one document's manifest entry (same name, new file/geometry)
    /// and bump the generation — the `&self` sibling of the add/remove
    /// paths, used by freezes, which run on serving (shared) corpora.
    fn replace_entry(&self, name: &str, entry: DocumentEntry) -> Result<()> {
        let mut membership = self.membership.write().expect("membership poisoned");
        let index = membership
            .entries
            .iter()
            .position(|e| e.name == name)
            .ok_or_else(|| CorpusError::UnknownDocument {
                name: name.to_string(),
            })?;
        let previous = std::mem::replace(&mut membership.entries[index], entry);
        if let Err(e) = manifest::write(&self.dir, &membership.entries, membership.generation + 1) {
            membership.entries[index] = previous;
            return Err(e);
        }
        membership.generation += 1;
        Ok(())
    }
}

pub(crate) type LiveMap = HashMap<String, Arc<LiveDoc>>;
pub(crate) type LiveBytes = AtomicUsize;
