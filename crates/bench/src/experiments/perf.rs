//! Kernel performance smoke experiment — the machine-readable perf
//! trajectory CI appends to (`BENCH_1.json`, `BENCH_2.json`, …).
//!
//! Times the sequential MSS scan through three engines on the paper's
//! dominant workloads:
//!
//! * `reference` — the pre-rewrite generic engine (row-major count
//!   reconstruction per substring, division-and-square-root-per-character
//!   skip solve),
//! * `specialized` — the incremental alphabet-specialized kernel
//!   (`k = 2` / `k = 4` monomorphized, two interleaved scan lanes), or
//!   the incremental generic kernel for other alphabets,
//! * `parallel` — the work-stealing parallel scan at auto thread count.
//!
//! The reported `speedup` column is reference-time / engine-time on the
//! same input; the CI gate reads the `k2_sequential` speedup row.

use sigstr_core::{
    find_mss, find_mss_parallel, find_mss_reference, CountsLayout, Engine, Model, Sequence,
};
use sigstr_gen::{generate_iid, seeded_rng};

use crate::report::{cell_f, Report};
use crate::{time, Scale};

fn input(k: usize, n: usize) -> (Sequence, Model) {
    let model = Model::uniform(k).expect("model");
    let mut rng = seeded_rng(0xBE7C_00FF ^ (k as u64) << 32 ^ n as u64);
    let seq = generate_iid(n, &model, &mut rng).expect("generation");
    (seq, model)
}

/// Median-of-`reps` wall-clock of one closure, in seconds.
fn median_secs<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let (result, elapsed) = time(&mut f);
            std::hint::black_box(result);
            elapsed.as_secs_f64()
        })
        .collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

/// The `bench_smoke` experiment: kernel timings and reference-relative
/// speedups on k = 2 and k = 4 MSS workloads.
pub fn bench_smoke(scale: Scale) -> Report {
    let mut report = Report::new(
        "bench_smoke",
        "scan-kernel timings: reference vs specialized vs parallel MSS",
        &["workload", "engine", "ms", "speedup_vs_reference"],
    );
    let n = scale.pick(65_536, 16_384);
    let reps = scale.pick(9, 5);
    for &k in &[2usize, 4] {
        let (seq, model) = input(k, n);
        let reference = median_secs(reps, || find_mss_reference(&seq, &model).expect("mss"));
        let specialized = median_secs(reps, || find_mss(&seq, &model).expect("mss"));
        let parallel = median_secs(reps, || find_mss_parallel(&seq, &model, 0).expect("mss"));
        let workload = format!("k{k}_n{n}");
        for (engine, secs) in [
            ("reference", reference),
            ("specialized", specialized),
            ("parallel", parallel),
        ] {
            report.push_row(vec![
                workload.clone(),
                engine.to_string(),
                cell_f(secs * 1e3, 3),
                cell_f(reference / secs, 2),
            ]);
        }
        // The results must agree while we are here (cheap end-to-end
        // cross-check of the engines under bench conditions).
        let a = find_mss_reference(&seq, &model).expect("mss");
        let b = find_mss(&seq, &model).expect("mss");
        assert_eq!(
            a.best.chi_square.to_bits(),
            b.best.chi_square.to_bits(),
            "bench_smoke: engines disagree on k = {k}"
        );
    }
    report.note(format!(
        "median of {reps} runs per cell, n = {n}; speedup = reference_ms / engine_ms"
    ));
    report.note("acceptance gate: specialized k2 speedup >= 2.0 (single-threaded)");
    report
}

/// The `engine_amortization` experiment (`BENCH_2.json`): per-query cost
/// of a reused [`Engine`] vs the one-shot API at growing query counts.
///
/// The one-shot `find_mss` rebuilds the prefix-count index, reallocates
/// scan scratch and rescans on every call; the engine builds the index
/// once and serves repeated queries from its result cache. The
/// `amortization` column is `oneshot_ms_per_query / engine_ms_per_query`
/// — the CI gate requires ≥ 5 at 100 queries (in practice it approaches
/// the query count itself once the cache absorbs the repeats).
pub fn engine_amortization(scale: Scale) -> Report {
    let mut report = Report::new(
        "engine_amortization",
        "per-query cost: reused Engine vs one-shot find_mss",
        &[
            "queries",
            "oneshot_ms_per_query",
            "engine_ms_per_query",
            "amortization",
        ],
    );
    let n = scale.pick(1_048_576, 32_768);
    let reps = scale.pick(3, 3);
    let (seq, model) = input(2, n);

    // One-shot calls are i.i.d.: measure one call's median and charge it
    // per query (running 100 full one-shot scans at the 1M-symbol scale
    // would only re-measure the same constant).
    let oneshot_per_query = median_secs(reps, || find_mss(&seq, &model).expect("mss"));

    for &queries in &[1usize, 10, 100] {
        let engine_total = median_secs(reps, || {
            let engine = Engine::new(&seq, model.clone()).expect("engine");
            for _ in 0..queries {
                std::hint::black_box(engine.mss().expect("mss"));
            }
            engine
        });
        let engine_per_query = engine_total / queries as f64;
        report.push_row(vec![
            queries.to_string(),
            cell_f(oneshot_per_query * 1e3, 3),
            cell_f(engine_per_query * 1e3, 3),
            cell_f(oneshot_per_query / engine_per_query, 2),
        ]);
    }

    // Exactness while we are here: the engine path must be bit-identical
    // to the one-shot path under bench conditions.
    let engine = Engine::new(&seq, model.clone()).expect("engine");
    let a = engine.mss().expect("mss");
    let b = find_mss(&seq, &model).expect("mss");
    assert_eq!(
        a.best.chi_square.to_bits(),
        b.best.chi_square.to_bits(),
        "engine_amortization: engine and one-shot MSS disagree"
    );

    report.note(format!(
        "median of {reps} runs per cell, n = {n}, k = 2; engine cell = build index + answer Q \
         repeated mss() queries (cache-served after the first)"
    ));
    report.note("acceptance gate: amortization >= 5.0 at 100 queries");
    report
}

/// The `counts_footprint` experiment (`BENCH_3.json`): two-level blocked
/// count index vs the flat table — bytes and end-to-end MSS runtime.
///
/// For each workload the same sequence is indexed twice
/// ([`CountsLayout::Flat`] and [`CountsLayout::Blocked`]) and the same
/// `mss()` query timed through each engine (result cache cleared between
/// reps, so every rep is a full scan). Reported per row:
///
/// * `index_mb` — bytes held by the count tables (the symbol string,
///   shared by both layouts, is excluded),
/// * `footprint_ratio` — flat bytes / this layout's bytes,
/// * `mss_ms` — median end-to-end `mss()` wall clock,
/// * `runtime_vs_flat` — this layout's time / the flat layout's time.
///
/// The CI gate reads the quick-size blocked rows: `footprint_ratio ≥ 3`
/// and `runtime_vs_flat ≤ 1.1`. Sizes below ~1 MB of flat table are
/// deliberately not benched: there the whole index is cache-resident
/// either way and the blocked layout's extra resync arithmetic shows as
/// a constant-factor penalty with no bandwidth to win back (which is
/// exactly why `CountsLayout::Auto` keeps small inputs flat). At full
/// scale the ≥ 16M-symbol row uses the parallel scan (auto threads) so
/// the run stays tractable — the bandwidth relief is, if anything, more
/// visible with every core hammering memory.
pub fn counts_footprint(scale: Scale) -> Report {
    let mut report = Report::new(
        "counts_footprint",
        "two-level blocked count index vs flat: bytes and end-to-end mss runtime",
        &[
            "workload",
            "layout",
            "index_mb",
            "footprint_ratio",
            "mss_ms",
            "runtime_vs_flat",
        ],
    );
    // (n, parallel): quick sizes are sequential; the full tier adds the
    // LLC-spill regime and runs parallel to keep wall clock tractable.
    let sizes: &[(usize, bool)] = scale.pick(
        &[(4_194_304, false), (16_777_216, true)][..],
        &[(262_144, false), (1_048_576, false)][..],
    );
    let k = 4; // DNA-scale alphabet, the paper's motivating workload.
    for &(n, parallel) in sizes {
        let (seq, model) = input(k, n);
        let reps = if n > 500_000 { 1 } else { 3 };
        let mut flat_ms = 0.0;
        let mut flat_bytes = 0usize;
        let mut flat_answer = None;
        for (layout, label) in [
            (CountsLayout::Flat, "flat"),
            (CountsLayout::Blocked, "blocked"),
        ] {
            let engine = Engine::with_layout(&seq, model.clone(), layout).expect("engine builds");
            let secs = median_secs(reps, || {
                engine.clear_cache();
                if parallel {
                    engine.mss_parallel().expect("mss")
                } else {
                    engine.mss().expect("mss")
                }
            });
            let ms = secs * 1e3;
            let bytes = engine.index_bytes();
            if label == "flat" {
                flat_ms = ms;
                flat_bytes = bytes;
            }
            // Exactness across layouts while we are here: the blocked
            // index must reproduce the flat scan bit-for-bit (values,
            // positions, and stats). Sequential sizes only — there the
            // answer is a cache hit from the timed reps; the parallel
            // tier would need an extra full scan per layout, and its
            // tie-breaking is position-unpinned anyway (cross-layout
            // bit-identity is already gated at the quick sizes and in
            // kernel_equivalence).
            if !parallel {
                let answer = engine.mss().expect("mss");
                match &flat_answer {
                    None => flat_answer = Some(answer),
                    Some(flat) => {
                        assert_eq!(
                            *flat, answer,
                            "counts_footprint: layouts disagree at n = {n}"
                        );
                    }
                }
            }
            let workload = format!("k{k}_n{n}{}", if parallel { "_par" } else { "" });
            report.push_row(vec![
                workload,
                label.to_string(),
                cell_f(bytes as f64 / (1024.0 * 1024.0), 2),
                cell_f(flat_bytes as f64 / bytes as f64, 2),
                cell_f(ms, 3),
                cell_f(ms / flat_ms, 3),
            ]);
        }
    }
    report.note(format!(
        "k = {k}; index_mb excludes the shared symbol string; mss timed through a reused \
         Engine with the result cache cleared per rep (full scan every time)"
    ));
    report.note(
        "acceptance gate (quick blocked rows): footprint_ratio >= 3.0 and runtime_vs_flat <= 1.1",
    );
    report
}

/// The `snapshot_load` experiment (`BENCH_4.json`): cold-starting an
/// engine from a persisted index snapshot vs rebuilding it from the raw
/// document.
///
/// Both paths start from a file on disk and end with a warm
/// [`Engine`] — exactly the choice a serving process faces at startup:
///
/// * `rebuild_ms` — read the raw text document, parse/validate the
///   sequence, estimate the empirical model, and build the count index
///   (`Engine::with_layout`): the per-position `O(k·n)` pipeline every
///   process start pays without snapshots,
/// * `load_ms` — [`Engine::load_snapshot_path`]: header validation,
///   checksums, and bulk section reads into the index storage,
/// * `speedup` — `rebuild_ms / load_ms`,
/// * `snapshot_mb` — on-disk snapshot size.
///
/// The CI gate reads the **blocked** rows (the production layout at
/// serving scale — `CountsLayout::Auto` picks it above the cache
/// threshold): load must be ≥ 10× cheaper than rebuild at the 1M-symbol
/// quick size. Flat rows are reported for the trajectory but not gated —
/// a flat table is one big memcpy away from its snapshot, so its win is
/// structurally smaller. Loaded engines are checked bit-identical to the
/// rebuilt ones on the sequential sizes while we are here.
pub fn snapshot_load(scale: Scale) -> Report {
    let mut report = Report::new(
        "snapshot_load",
        "engine cold start: load persisted snapshot vs rebuild from the raw document",
        &[
            "workload",
            "layout",
            "snapshot_mb",
            "rebuild_ms",
            "load_ms",
            "speedup",
        ],
    );
    let sizes: &[usize] = scale.pick(&[4_194_304, 16_777_216][..], &[262_144, 1_048_576][..]);
    // k = 2: the paper's primary workload (§7.5's stock, baseball and
    // RNG applications are all binary strings) and the alphabet a
    // corpus-scale deployment serves most.
    let k = 2;
    let dir = std::env::temp_dir().join(format!("sigstr-snapshot-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create bench temp dir");
    for &n in sizes {
        let (seq, _model) = input(k, n);
        let reps = if n > 2_000_000 { 5 } else { 9 };
        // The raw document a snapshot-less service would start from:
        // symbol bytes wrapped into 80-column lines, exactly what the
        // CLI's document pipeline ingests.
        let text_path = dir.join(format!("k{k}_n{n}.txt"));
        let mut text: Vec<u8> = Vec::with_capacity(n + n / 80 + 1);
        for (i, &s) in seq.symbols().iter().enumerate() {
            text.push(b'a' + s);
            if i % 80 == 79 {
                text.push(b'\n');
            }
        }
        std::fs::write(&text_path, &text).expect("write document");
        for (layout, label) in [
            (CountsLayout::Flat, "flat"),
            (CountsLayout::Blocked, "blocked"),
        ] {
            let rebuild = || {
                // The CLI's cold-start pipeline: read, strip whitespace,
                // map bytes to the dense alphabet, estimate the
                // empirical model, build the count index.
                let raw = std::fs::read(&text_path).expect("read document");
                let cleaned: Vec<u8> = raw
                    .iter()
                    .copied()
                    .filter(|b| !b.is_ascii_whitespace())
                    .collect();
                let (seq, _alphabet) = Sequence::from_text(&cleaned).expect("parse document");
                let model = Model::estimate(&seq).expect("estimate model");
                Engine::with_layout(&seq, model, layout).expect("engine builds")
            };
            let rebuild_secs = median_secs(reps, rebuild);
            let engine = rebuild();
            let path = dir.join(format!("k{k}_n{n}_{label}.snap"));
            engine.write_snapshot_path(&path).expect("snapshot writes");
            let snapshot_bytes = std::fs::metadata(&path).expect("snapshot exists").len();
            let load_secs = median_secs(reps, || {
                Engine::load_snapshot_path(&path).expect("snapshot loads")
            });
            // Exactness while we are here: the loaded engine must answer
            // bit-identically to the rebuilt one (cheap at quick sizes;
            // the full tier relies on the gated quick runs + the
            // round-trip property tests).
            if n <= 2_000_000 {
                let loaded = Engine::load_snapshot_path(&path).expect("snapshot loads");
                assert_eq!(
                    loaded.mss().expect("mss"),
                    engine.mss().expect("mss"),
                    "snapshot_load: loaded engine disagrees at n = {n} ({label})"
                );
            }
            std::fs::remove_file(&path).ok();
            report.push_row(vec![
                format!("k{k}_n{n}"),
                label.to_string(),
                cell_f(snapshot_bytes as f64 / (1024.0 * 1024.0), 2),
                cell_f(rebuild_secs * 1e3, 3),
                cell_f(load_secs * 1e3, 3),
                cell_f(rebuild_secs / load_secs, 2),
            ]);
        }
        std::fs::remove_file(&text_path).ok();
    }
    std::fs::remove_dir_all(&dir).ok();
    report.note(format!(
        "k = {k} (the paper's binary application workloads); rebuild = the CLI cold-start \
         pipeline (read 80-column document + strip whitespace + Sequence::from_text + \
         Model::estimate + Engine::with_layout), load = Engine::load_snapshot_path \
         (validate + checksum + bulk section reads); both cold-start from disk; \
         median of 5-9 runs per cell"
    ));
    report.note("acceptance gate (blocked row, 1M-symbol quick size): speedup >= 10.0");
    report
}

/// The `server_throughput` experiment (`BENCH_5.json`): requests/sec of
/// the HTTP service at 1, 8 and 32 concurrent keep-alive clients.
///
/// One in-process [`sigstr_server::Server`] serves a 2-document corpus;
/// each client thread drives one keep-alive connection as fast as the
/// round trip allows, cycling through `mss` and `top` queries on both
/// documents (cache-served after the first round — the replay-heavy
/// pattern of a production endpoint). The `scaling` column is this
/// row's throughput over the single-client row: a single client is
/// round-trip-latency-bound, so a healthy concurrent server must
/// overlap connections into several times that. The CI gate requires
/// the 32-client row to scale ≥ 4x.
pub fn server_throughput(scale: Scale) -> Report {
    use sigstr_server::client::ClientConn;
    use sigstr_server::{Server, ServerConfig};

    let mut report = Report::new(
        "server_throughput",
        "HTTP service requests/sec at 1/8/32 concurrent keep-alive clients",
        &["clients", "requests", "secs", "rps", "scaling_vs_1"],
    );
    let n = scale.pick(65_536, 16_384);
    let window = scale.pick(2.0f64, 0.5f64);

    // A corpus of two documents, one per layout.
    let dir = std::env::temp_dir().join(format!(
        "sigstr-server-bench-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    let mut corpus = sigstr_corpus::Corpus::create(&dir).expect("corpus");
    for (i, layout) in [CountsLayout::Flat, CountsLayout::Blocked]
        .into_iter()
        .enumerate()
    {
        let (seq, model) = input(2, n + i * 512);
        corpus
            .add_document(&format!("doc{i}"), &seq, model, layout)
            .expect("add document");
    }
    drop(corpus);

    let server = Server::bind(
        sigstr_corpus::Corpus::open(&dir).expect("corpus reopens"),
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            threads: 40, // >= max clients: workers mostly block on reads
            queue_depth: 256,
            ..ServerConfig::default()
        },
    )
    .expect("server binds");
    let addr = server.local_addr();
    let handle = server.handle();
    let server_thread = std::thread::spawn(move || server.run().expect("server runs"));

    let bodies: Vec<String> = (0..2)
        .flat_map(|doc| {
            [
                format!("{{\"doc\":\"doc{doc}\",\"query\":{{\"kind\":\"mss\"}}}}"),
                format!("{{\"doc\":\"doc{doc}\",\"query\":{{\"kind\":\"top\",\"t\":3}}}}"),
            ]
        })
        .collect();

    let mut single_rps = 0.0f64;
    for &clients in &[1usize, 8, 32] {
        let barrier = std::sync::Barrier::new(clients + 1);
        let total: u64 = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..clients)
                .map(|c| {
                    let barrier = &barrier;
                    let bodies = &bodies;
                    scope.spawn(move || {
                        let mut conn = ClientConn::connect(addr).expect("client connects");
                        // Warm up the connection and *every* query's
                        // engine/result-cache entry outside the timed
                        // window — the single-client baseline row must
                        // never pay a cold snapshot load mid-window
                        // (the CI gate is a ratio against it).
                        for body in bodies.iter() {
                            let response = conn
                                .request("POST", "/v1/query", Some(body))
                                .expect("warmup");
                            assert_eq!(response.status, 200, "{}", response.body_str());
                        }
                        barrier.wait();
                        let start = std::time::Instant::now();
                        let mut sent = 0u64;
                        while start.elapsed().as_secs_f64() < window {
                            let body = &bodies[(c + sent as usize) % bodies.len()];
                            let response = conn
                                .request("POST", "/v1/query", Some(body))
                                .expect("request");
                            assert_eq!(response.status, 200);
                            sent += 1;
                        }
                        sent
                    })
                })
                .collect();
            barrier.wait();
            workers.into_iter().map(|w| w.join().expect("client")).sum()
        });
        let rps = total as f64 / window;
        if clients == 1 {
            single_rps = rps;
        }
        report.push_row(vec![
            clients.to_string(),
            total.to_string(),
            cell_f(window, 2),
            cell_f(rps, 1),
            cell_f(rps / single_rps, 2),
        ]);
    }

    handle.shutdown();
    server_thread.join().expect("server thread");
    std::fs::remove_dir_all(&dir).ok();

    report.note(format!(
        "in-process server (40 workers, queue depth 256) over a 2-document corpus \
         (n = {n}, k = 2, flat + blocked); each client drives one keep-alive connection \
         with POST /v1/query (mss and top:3 on both documents) for a {window:.1}s window"
    ));
    report.note(
        "acceptance gate: 32-client scaling_vs_1 >= 4.0 (a single client is \
         round-trip-bound, leaving cores idle; the gate assumes a multi-core runner — \
         on a single-core machine the closed loop has no idle time to reclaim and \
         scaling pins near 1.0)",
    );
    report
}

/// The `simd_scan` experiment (`BENCH_7.json`): the vectorized scan
/// kernels and the zero-copy snapshot loader against their portable
/// counterparts.
///
/// Two contrasts, on the paper's binary and DNA alphabets:
///
/// * **dispatch rows** — for k = 2 and k = 4, sequential `mss()` through
///   a blocked-index engine, and `mss_in` over sixteen 4096-symbol
///   windows of a flat-index n = 65,536 document (the `simd_mss_flat`
///   rows), with runtime SIMD dispatch active vs forced-scalar kernels
///   (`sigstr_core::simd::set_force_scalar`, the same switch the
///   `SIGSTR_FORCE_SCALAR` env override flips). The scalar mode runs the
///   portable per-lane path of the same kernel — the `SIMD = false`
///   monomorphization has no packed rounds — so the `speedup_vs_scalar`
///   column isolates the vector tier, gathered resync included.
/// * **loader rows** — time-to-first-answer from a cold engine:
///   `Engine::load_snapshot_mmap` (map the file, verify sections lazily
///   on first touch) vs `Engine::load_snapshot_path` (bulk reads +
///   eager checksums), each followed by one *small range query*
///   (`mss_in` over the first 256 positions). A full-document scan
///   would bury the loader contrast under seconds of kernel work both
///   loaders pay identically; the range query is the serving pattern
///   the mmap loader exists for — answer a shard-local question before
///   the whole index has been paged in. Page-cache cold starts cannot
///   be forced portably, so both paths read a warm-cache file — the
///   mmap win measured here is the allocation + bulk-copy work it
///   skips, a lower bound on the cold-cache win.
///
/// Answers are asserted bit-identical within each pair of cells. The CI
/// gate reads every `simd_mss` `speedup_vs_scalar` ≥ 1.3 (AVX2 runners)
/// and `mmap_ttfa` `speedup_vs_scalar` ≥ 2.0.
pub fn simd_scan(scale: Scale) -> Report {
    use sigstr_core::simd;

    let mut report = Report::new(
        "simd_scan",
        "SIMD scan kernels and mmap snapshot loads vs portable scalar / bulk-read paths",
        &["workload", "mode", "ms", "speedup_vs_scalar"],
    );
    let n = scale.pick(4_194_304, 1_048_576);
    let reps = scale.pick(9, 7);

    // Restore the dispatch the process came in with (the env override
    // must survive the experiment: CI's force-scalar job runs these
    // binaries too).
    let env_scalar =
        std::env::var_os(simd::FORCE_SCALAR_ENV).is_some_and(|v| !v.is_empty() && v != *"0");

    // The k = 2 input and engine stay alive through the loader rows: freeing
    // megabyte-sized buffers before them would raise the allocator's mmap
    // threshold and hand the bulk-read loader pre-faulted heap pages, which
    // a freshly started server does not have.
    let k = 2;
    let (seq, model) = input(k, n);
    let engine = Engine::with_layout(&seq, model, CountsLayout::Blocked).expect("engine");
    dispatch_rows(
        &mut report,
        &format!("simd_mss_k{k}_n{n}"),
        &engine,
        reps,
        |e| e.mss().expect("mss"),
    );

    // Loader contrast: cold engine + first answer, bulk read vs mmap.
    let dir = std::env::temp_dir().join(format!("sigstr-simd-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create bench temp dir");
    let path = dir.join(format!("k{k}_n{n}.snap"));
    engine.write_snapshot_path(&path).expect("snapshot writes");
    let ttfa_range = 0..256.min(n);
    let mut read_ms = 0.0;
    let mut loaded_answers = Vec::new();
    for mode in ["read", "mmap"] {
        let secs = median_secs(reps, || {
            let loaded = if mode == "mmap" {
                Engine::load_snapshot_mmap(&path).expect("snapshot maps")
            } else {
                Engine::load_snapshot_path(&path).expect("snapshot loads")
            };
            loaded.mss_in(ttfa_range.clone()).expect("mss_in")
        });
        let loaded = if mode == "mmap" {
            Engine::load_snapshot_mmap(&path).expect("snapshot maps")
        } else {
            Engine::load_snapshot_path(&path).expect("snapshot loads")
        };
        loaded_answers.push(loaded.mss_in(ttfa_range.clone()).expect("mss_in"));
        let ms = secs * 1e3;
        if mode == "read" {
            read_ms = ms;
        }
        report.push_row(vec![
            format!("mmap_ttfa_k{k}_n{n}"),
            mode.to_string(),
            cell_f(ms, 3),
            cell_f(read_ms / ms, 2),
        ]);
    }
    assert_eq!(
        loaded_answers[0], loaded_answers[1],
        "simd_scan: mmap and read loaders disagree at n = {n}"
    );
    assert_eq!(
        engine.mss_in(ttfa_range.clone()).expect("mss_in"),
        loaded_answers[0],
        "simd_scan: loaded engines disagree with the built engine at n = {n}"
    );
    std::fs::remove_file(&path).ok();
    std::fs::remove_dir_all(&dir).ok();

    let (seq4, model4) = input(4, n);
    let engine4 = Engine::with_layout(&seq4, model4, CountsLayout::Blocked).expect("engine");
    dispatch_rows(
        &mut report,
        &format!("simd_mss_k4_n{n}"),
        &engine4,
        reps,
        |e| e.mss().expect("mss"),
    );
    for k in [2, 4] {
        window_rows(&mut report, k, reps);
    }
    simd::set_force_scalar(env_scalar);

    report.note(format!(
        "k = 2 and 4, n = {n}, blocked index, sequential mss; simd_mss_flat rows run \
         mss_in over sixteen 4096-symbol windows of a flat n = 65536 document; dispatch \
         rows toggle the runtime kernel selection on one engine per workload (scalar mode \
         is the portable per-lane path); k = 2 loader rows time cold-engine load + a first mss_in answer over the leading \
         256 positions of a warm-page-cache snapshot (the mmap win is the skipped \
         allocation + bulk-copy passes; both loaders pay the integrity checks); \
         median of {reps} runs per cell; active dispatch: {}",
        simd::level().name()
    ));
    report.note(
        "acceptance gates: every simd_mss speedup_vs_scalar >= 1.3 (AVX2 runners) and \
         mmap_ttfa speedup_vs_scalar >= 2.0; each pair of cells answers bit-identically",
    );
    report
}

/// One `simd_scan` dispatch row pair: `scan` on `engine` (result cache
/// cleared per rep) under forced-scalar and then auto dispatch, answers
/// asserted bit-identical.
fn dispatch_rows<T: PartialEq + std::fmt::Debug>(
    report: &mut Report,
    workload: &str,
    engine: &Engine,
    reps: usize,
    scan: impl Fn(&Engine) -> T,
) {
    use sigstr_core::simd;

    let mut scalar_ms = 0.0;
    let mut answers = Vec::new();
    for (mode, force) in [
        ("scalar".to_string(), true),
        (simd::level().name().to_string(), false),
    ] {
        simd::set_force_scalar(force);
        let secs = median_secs(reps, || {
            engine.clear_cache();
            scan(engine)
        });
        answers.push(scan(engine));
        let ms = secs * 1e3;
        if force {
            scalar_ms = ms;
        }
        report.push_row(vec![
            workload.to_string(),
            mode,
            cell_f(ms, 3),
            cell_f(scalar_ms / ms, 2),
        ]);
    }
    assert_eq!(
        answers[0], answers[1],
        "simd_scan: scalar and SIMD kernels disagree on {workload}"
    );
}

/// The `simd_scan` flat-window row pair for alphabet `k`: `mss_in` over
/// sixteen 4096-symbol windows of a flat-index n = 65,536 document — the
/// cache-miss shape of the serving benchmark's `miss` workloads, where
/// the scan resyncs from the flat table.
fn window_rows(report: &mut Report, k: usize, reps: usize) {
    const N: usize = 65_536;
    const W: usize = 4096;
    let (seq, model) = input(k, N);
    let engine = Engine::with_layout(&seq, model, CountsLayout::Flat).expect("engine");
    let windows: Vec<std::ops::Range<usize>> = (0..16)
        .map(|i| {
            let l = (i * 3_989) % (N - W);
            l..l + W
        })
        .collect();
    dispatch_rows(
        report,
        &format!("simd_mss_flat_w{W}_k{k}_n{N}"),
        &engine,
        reps,
        |e| {
            windows
                .iter()
                .map(|r| e.mss_in(r.clone()).expect("mss_in"))
                .collect::<Vec<_>>()
        },
    );
}

/// Request-latency percentiles (µs) over one keep-alive connection.
fn latencies_us(addr: &str, target: &str, warmups: usize, requests: usize) -> Vec<u64> {
    use sigstr_server::client::ClientConn;
    let mut conn = ClientConn::connect(addr).expect("bench client connects");
    for _ in 0..warmups {
        let response = conn.request("GET", target, None).expect("warmup");
        assert_eq!(response.status, 200, "{}", response.body_str());
    }
    (0..requests)
        .map(|_| {
            let start = std::time::Instant::now();
            let response = conn.request("GET", target, None).expect("request");
            assert_eq!(response.status, 200, "{}", response.body_str());
            start.elapsed().as_micros() as u64
        })
        .collect()
}

fn percentile_us(samples: &mut [u64], p: f64) -> u64 {
    samples.sort_unstable();
    samples[(((samples.len() - 1) as f64) * p).round() as usize]
}

/// The `router_fanout` experiment (`BENCH_6.json`): merged top-t latency
/// through the scatter-gather router over two shards, against one server
/// holding the whole corpus — healthy, and with the path to one shard
/// delayed 50 ms by the fault-injection proxy.
///
/// Two router instances front the same shard pair, each through its own
/// [`FaultProxy`](sigstr_router::fault::FaultProxy) so connection
/// numbering (which decides which connections the proxy delays) stays
/// deterministic per router. The hedged router's fixed trigger is
/// calibrated to the measured healthy p99, so the `delayed+hedged` row
/// shows what hedging buys: the duplicate attempt lands on a fast
/// connection and wins, keeping p99 near `trigger + RTT` instead of the
/// 50 ms delay the no-hedge router eats on every request. The CI gate
/// requires `delayed+hedged` p99 ≤ 2× the healthy routed p99.
pub fn router_fanout(scale: Scale) -> Report {
    use sigstr_router::fault::{FaultMode, FaultProxy};
    use sigstr_router::{HedgePolicy, RouterConfig, RouterServer};
    use sigstr_server::{Server, ServerConfig};
    use std::time::Duration;

    let mut report = Report::new(
        "router_fanout",
        "routed 2-shard merged top-t vs single server, healthy and with one shard delayed 50 ms",
        &[
            "scenario",
            "requests",
            "p50_us",
            "p99_us",
            "p99_vs_healthy",
            "p50_vs_single",
        ],
    );
    let n = scale.pick(16_384, 4_096);
    // At least 1000 samples, so each p99 rests on 10+ samples beyond it.
    let requests = scale.pick(2_000, 1_000);
    let delayed_requests = scale.pick(100, 40); // 50 ms each: keep the row bounded
    const DELAY_MS: u64 = 50;
    const DOCS: usize = 6;

    // Ring-partitioned shard corpora plus the all-documents reference
    // (sorted-name ingest keeps the global document order identical).
    let tag = format!("{}-{:?}", std::process::id(), std::thread::current().id());
    let dirs: Vec<std::path::PathBuf> = ["s0", "s1", "all"]
        .iter()
        .map(|which| {
            let dir = std::env::temp_dir().join(format!("sigstr-router-bench-{which}-{tag}"));
            std::fs::remove_dir_all(&dir).ok();
            dir
        })
        .collect();
    let ring = sigstr_router::hash::Ring::new(2, RouterConfig::new(vec!["x".into()]).vnodes);
    {
        let mut shards: Vec<_> = dirs[..2]
            .iter()
            .map(|d| sigstr_corpus::Corpus::create(d).expect("corpus"))
            .collect();
        let mut all = sigstr_corpus::Corpus::create(&dirs[2]).expect("corpus");
        for i in 0..DOCS {
            let name = format!("doc{i}");
            let (seq, model) = input(2 + i % 2 * 2, n + i * 256);
            let owner = ring.shard_for(&name);
            shards[owner]
                .add_document(&name, &seq, model.clone(), CountsLayout::Auto)
                .expect("add to shard");
            all.add_document(&name, &seq, model, CountsLayout::Auto)
                .expect("add to reference");
        }
        assert!(
            shards.iter().all(|s| !s.is_empty()),
            "ring left a shard empty — change the document names"
        );
    }

    let boot_server = |dir: &std::path::Path| {
        let server = Server::bind(
            sigstr_corpus::Corpus::open(dir).expect("corpus reopens"),
            ServerConfig {
                addr: "127.0.0.1:0".into(),
                threads: 4,
                ..ServerConfig::default()
            },
        )
        .expect("server binds");
        let addr = server.local_addr().to_string();
        let handle = server.handle();
        let thread = std::thread::spawn(move || server.run().expect("server runs"));
        (addr, handle, thread)
    };
    let servers: Vec<_> = dirs.iter().map(|d| boot_server(d)).collect();
    let shard_b: std::net::SocketAddr = servers[1].0.parse().expect("shard address");

    // One proxy per router: accept-order connection numbering (which
    // selects delayed connections) must not interleave across routers.
    let mut proxy_plain = FaultProxy::start(shard_b).expect("proxy");
    let mut proxy_hedge = FaultProxy::start(shard_b).expect("proxy");
    let boot_router = |proxy: &FaultProxy, hedge: HedgePolicy| {
        let mut config = RouterConfig::new(vec![servers[0].0.clone(), proxy.addr().to_string()]);
        config.service.addr = "127.0.0.1:0".into();
        config.service.threads = 4;
        config.hedge = hedge;
        // Only the bind-time probe round: background probes would dial
        // extra proxy connections and scramble the delay parity.
        config.probe_interval = Duration::from_secs(600);
        let router = RouterServer::bind(config).expect("router binds");
        let addr = router.local_addr().to_string();
        let handle = router.handle();
        let thread = std::thread::spawn(move || router.run().expect("router runs"));
        (addr, handle, thread)
    };

    let target = "/v1/merged/top?t=5";
    let mut single = latencies_us(&servers[2].0, target, 10, requests);

    let plain = boot_router(&proxy_plain, HedgePolicy::Disabled);
    let mut healthy = latencies_us(&plain.0, target, 10, requests);
    let healthy_p99 = percentile_us(&mut healthy, 0.99);

    // Routed answers must match the single server before any latency
    // claim means anything (bit-identity is pinned by the router's
    // integration tests; this guards the bench wiring itself).
    {
        use sigstr_server::client::ClientConn;
        let routed = ClientConn::connect(&plain.0)
            .and_then(|mut c| c.request("GET", target, None))
            .expect("routed");
        let direct = ClientConn::connect(&servers[2].0)
            .and_then(|mut c| c.request("GET", target, None))
            .expect("direct");
        let hits = |raw: &[u8]| {
            sigstr_server::json::Json::decode(std::str::from_utf8(raw).unwrap().trim())
                .unwrap()
                .get("hits")
                .unwrap()
                .encode()
                .unwrap()
        };
        assert_eq!(
            hits(&routed.body),
            hits(&direct.body),
            "routed != single-server answer"
        );
    }

    // Hedge trigger: the measured healthy p99, clamped to sane bounds —
    // late enough to stay quiet when healthy, early enough to beat the
    // injected 50 ms delay by an order of magnitude.
    let trigger_us = healthy_p99.clamp(1_000, 25_000);
    let hedged = boot_router(
        &proxy_hedge,
        HedgePolicy::Fixed(Duration::from_micros(trigger_us)),
    );
    latencies_us(&hedged.0, target, 10, 10); // warm the pool before the fault
    proxy_hedge.set_mode(FaultMode::DelayConns {
        every: 2,
        delay_ms: DELAY_MS,
    });
    let mut delayed_hedged = latencies_us(&hedged.0, target, 0, requests);

    proxy_plain.set_mode(FaultMode::DelayConns {
        every: 1,
        delay_ms: DELAY_MS,
    });
    let mut delayed_plain = latencies_us(&plain.0, target, 0, delayed_requests);

    let hedge_metrics = {
        use sigstr_server::client::ClientConn;
        let response = ClientConn::connect(&hedged.0)
            .and_then(|mut c| c.request("GET", "/metrics", None))
            .expect("metrics");
        let text = response.body_str().to_string();
        let value = |name: &str| {
            text.lines()
                .find_map(|l| {
                    l.strip_prefix(name)
                        .and_then(|r| r.trim().parse::<u64>().ok())
                })
                .unwrap_or(0)
        };
        (
            value("sigstr_router_hedges_total"),
            value("sigstr_router_hedge_wins_total"),
        )
    };

    let single_p50 = percentile_us(&mut single, 0.50);
    for (scenario, samples, count) in [
        ("single", &mut single, requests),
        ("routed_healthy", &mut healthy, requests),
        ("routed_delayed_hedged", &mut delayed_hedged, requests),
        (
            "routed_delayed_nohedge",
            &mut delayed_plain,
            delayed_requests,
        ),
    ] {
        let p50 = percentile_us(samples, 0.50);
        let p99 = percentile_us(samples, 0.99);
        report.push_row(vec![
            scenario.to_string(),
            count.to_string(),
            p50.to_string(),
            p99.to_string(),
            cell_f(p99 as f64 / healthy_p99 as f64, 2),
            if scenario == "routed_healthy" {
                cell_f(p50 as f64 / single_p50 as f64, 2)
            } else {
                "-".to_string()
            },
        ]);
    }

    for (_, handle, thread) in [plain, hedged] {
        handle.shutdown();
        thread.join().expect("router thread");
    }
    proxy_plain.stop();
    proxy_hedge.stop();
    for (_, handle, thread) in servers {
        handle.shutdown();
        thread.join().expect("server thread");
    }
    for dir in &dirs {
        std::fs::remove_dir_all(dir).ok();
    }

    report.note(format!(
        "2 shards ({DOCS} documents, n ≈ {n}), merged GET {target}; delayed rows put \
         {DELAY_MS} ms on the proxied path to shard 1 (every 2nd connection for the hedged \
         router, every connection for the no-hedge router); hedge trigger fixed at the \
         healthy p99 = {trigger_us} µs; hedged router launched {} hedges, {} won",
        hedge_metrics.0, hedge_metrics.1
    ));
    report.note(
        "acceptance gate: routed_delayed_hedged p99_vs_healthy <= 2.0 (the hedge lands on \
         a fast connection and wins, so the injected 50 ms delay never reaches the caller); \
         routed_delayed_nohedge documents the counterfactual: every request eats the delay; \
         routed_healthy p50_vs_single tracks the router hop's cost (reported, not gated)",
    );
    report
}

/// The `trace_overhead` experiment (`BENCH_10.json`): merged top-t
/// latency through a 2-shard routed fleet with end-to-end request
/// tracing enabled versus disabled (`--no-trace`).
///
/// Both fleets (shards + router each) run simultaneously over the same
/// corpus directories, and the measurement loop alternates between them
/// request by request so machine drift hits both scenarios equally.
/// Tracing on the hot path is one branch when disabled and, when
/// enabled, span bookkeeping on thread-local state plus one short
/// mutex-guarded ring-buffer push at seal — the CI gate pins the traced
/// p50 at ≤ 1.1× the untraced p50.
pub fn trace_overhead(scale: Scale) -> Report {
    use sigstr_router::{HedgePolicy, RouterConfig, RouterServer};
    use sigstr_server::client::ClientConn;
    use sigstr_server::{Server, ServerConfig};
    use std::time::Duration;

    let mut report = Report::new(
        "trace_overhead",
        "routed 2-shard merged top-t latency, request tracing on vs off",
        &[
            "scenario",
            "requests",
            "p50_us",
            "p99_us",
            "p50_vs_untraced",
        ],
    );
    let n = scale.pick(16_384, 4_096);
    let requests = scale.pick(600, 150);
    const DOCS: usize = 4;

    // Ring-partitioned shard corpora, shared by both fleets (opened
    // read-only by each server).
    let tag = format!("{}-{:?}", std::process::id(), std::thread::current().id());
    let dirs: Vec<std::path::PathBuf> = (0..2)
        .map(|i| {
            let dir = std::env::temp_dir().join(format!("sigstr-trace-bench-s{i}-{tag}"));
            std::fs::remove_dir_all(&dir).ok();
            dir
        })
        .collect();
    let ring = sigstr_router::hash::Ring::new(2, RouterConfig::new(vec!["x".into()]).vnodes);
    {
        let mut shards: Vec<_> = dirs
            .iter()
            .map(|d| sigstr_corpus::Corpus::create(d).expect("corpus"))
            .collect();
        for i in 0..DOCS {
            let name = format!("doc{i}");
            let (seq, model) = input(2 + i % 2 * 2, n + i * 256);
            shards[ring.shard_for(&name)]
                .add_document(&name, &seq, model, CountsLayout::Auto)
                .expect("add to shard");
        }
        assert!(
            shards.iter().all(|s| !s.is_empty()),
            "ring left a shard empty — change the document names"
        );
    }

    // One full fleet per scenario: tracing is a process-wide switch, so
    // the shards differ too, not just the router.
    let boot_fleet = |traced: bool| {
        let servers: Vec<_> = dirs
            .iter()
            .map(|dir| {
                let mut config = ServerConfig {
                    addr: "127.0.0.1:0".into(),
                    threads: 4,
                    ..ServerConfig::default()
                };
                config.trace.enabled = traced;
                let server = Server::bind(
                    sigstr_corpus::Corpus::open(dir).expect("corpus reopens"),
                    config,
                )
                .expect("server binds");
                let addr = server.local_addr().to_string();
                let handle = server.handle();
                let thread = std::thread::spawn(move || server.run().expect("server runs"));
                (addr, handle, thread)
            })
            .collect::<Vec<_>>();
        let mut config = RouterConfig::new(servers.iter().map(|(a, _, _)| a.clone()).collect());
        config.service.addr = "127.0.0.1:0".into();
        config.service.threads = 4;
        config.service.trace.enabled = traced;
        config.hedge = HedgePolicy::Disabled;
        config.probe_interval = Duration::from_secs(600);
        let router = RouterServer::bind(config).expect("router binds");
        let addr = router.local_addr().to_string();
        let handle = router.handle();
        let thread = std::thread::spawn(move || router.run().expect("router runs"));
        (addr, handle, thread, servers)
    };
    let traced_fleet = boot_fleet(true);
    let untraced_fleet = boot_fleet(false);

    let target = "/v1/merged/top?t=5";
    let mut traced_conn = ClientConn::connect(&traced_fleet.0).expect("client connects");
    let mut untraced_conn = ClientConn::connect(&untraced_fleet.0).expect("client connects");
    let timed_request = |conn: &mut ClientConn| {
        let start = std::time::Instant::now();
        let response = conn.request("GET", target, None).expect("request");
        assert_eq!(response.status, 200, "{}", response.body_str());
        start.elapsed().as_micros() as u64
    };
    for _ in 0..20 {
        timed_request(&mut traced_conn);
        timed_request(&mut untraced_conn);
    }
    let mut traced = Vec::with_capacity(requests);
    let mut untraced = Vec::with_capacity(requests);
    for _ in 0..requests {
        traced.push(timed_request(&mut traced_conn));
        untraced.push(timed_request(&mut untraced_conn));
    }

    // The traced fleet really traced: its recorder holds the requests.
    {
        let response = ClientConn::connect(&traced_fleet.0)
            .and_then(|mut c| c.request("GET", "/debug/traces?limit=1", None))
            .expect("traces");
        assert!(
            response.body_str().contains("\"spans\""),
            "traced router recorded nothing"
        );
        let response = ClientConn::connect(&untraced_fleet.0)
            .and_then(|mut c| c.request("GET", "/debug/traces?limit=1", None))
            .expect("traces");
        assert!(
            !response.body_str().contains("\"spans\""),
            "untraced router recorded a trace"
        );
    }

    let untraced_p50 = percentile_us(&mut untraced, 0.50);
    for (scenario, samples) in [("traced", &mut traced), ("untraced", &mut untraced)] {
        let p50 = percentile_us(samples, 0.50);
        let p99 = percentile_us(samples, 0.99);
        report.push_row(vec![
            scenario.to_string(),
            requests.to_string(),
            p50.to_string(),
            p99.to_string(),
            cell_f(p50 as f64 / untraced_p50 as f64, 3),
        ]);
    }

    for (_, handle, thread, servers) in [traced_fleet, untraced_fleet] {
        handle.shutdown();
        thread.join().expect("router thread");
        for (_, handle, thread) in servers {
            handle.shutdown();
            thread.join().expect("server thread");
        }
    }
    for dir in &dirs {
        std::fs::remove_dir_all(dir).ok();
    }

    report.note(format!(
        "2 shards ({DOCS} documents, n ≈ {n}), merged GET {target}, no hedging; both fleets \
         live simultaneously and the measurement loop alternates between them request by \
         request, so drift cancels; the traced fleet mints a trace per request at the router, \
         propagates it to every shard, and seals spans into each process's flight recorder"
    ));
    report.note(
        "acceptance gate: traced p50_vs_untraced <= 1.1 (tracing must stay within 10% of \
         the untraced data path at the median)",
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_smoke_shape_and_speedup_sanity() {
        // One tiny run: shape checks only (timing noise is not asserted
        // here; the CI gate reads the real run's JSON).
        let r = bench_smoke(Scale::Quick);
        assert_eq!(r.rows.len(), 6);
        assert_eq!(r.columns.len(), 4);
        for row in &r.rows {
            let ms: f64 = row[2].parse().unwrap();
            let speedup: f64 = row[3].parse().unwrap();
            assert!(ms > 0.0);
            assert!(speedup > 0.0);
        }
        // Reference rows are speedup 1.00 by construction.
        assert_eq!(r.rows[0][3], "1.00");
    }

    #[test]
    fn counts_footprint_shape_and_ratio() {
        // Shape-check at a reduced hand-rolled scale: run the real
        // experiment only in Quick (CI) / Full (soak) contexts — here we
        // just assert the report contract on the quick run's first size
        // by building the engines directly.
        let (seq, model) = input(4, 8_192);
        let flat = Engine::with_layout(&seq, model.clone(), CountsLayout::Flat).unwrap();
        let blocked = Engine::with_layout(&seq, model.clone(), CountsLayout::Blocked).unwrap();
        let ratio = flat.index_bytes() as f64 / blocked.index_bytes() as f64;
        assert!(ratio >= 4.0, "footprint ratio {ratio} below 4x at k = 4");
        assert_eq!(flat.mss().unwrap(), blocked.mss().unwrap());
    }

    #[test]
    fn snapshot_load_roundtrip_and_win() {
        // Hand-rolled small-scale version of the experiment contract: a
        // written snapshot loads into a bit-identical engine, and the
        // blocked snapshot is much smaller than the flat one (the real
        // speedup gate reads the CI run's JSON at the quick sizes).
        let dir =
            std::env::temp_dir().join(format!("sigstr-snapshot-bench-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (seq, model) = input(4, 16_384);
        let mut sizes = Vec::new();
        for (layout, label) in [
            (CountsLayout::Flat, "flat"),
            (CountsLayout::Blocked, "blocked"),
        ] {
            let engine = Engine::with_layout(&seq, model.clone(), layout).unwrap();
            let path = dir.join(format!("{label}.snap"));
            engine.write_snapshot_path(&path).unwrap();
            let loaded = Engine::load_snapshot_path(&path).unwrap();
            assert_eq!(loaded.mss().unwrap(), engine.mss().unwrap());
            assert_eq!(loaded.top_t(3).unwrap(), engine.top_t(3).unwrap());
            sizes.push(std::fs::metadata(&path).unwrap().len());
        }
        assert!(
            sizes[1] * 3 < sizes[0],
            "blocked snapshot {} not ≥3x smaller than flat {}",
            sizes[1],
            sizes[0]
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn server_throughput_shape_and_liveness() {
        // The real scaling gate reads the CI run's JSON; here we assert
        // the report contract and that every concurrency level actually
        // moved traffic.
        let r = server_throughput(Scale::Quick);
        assert_eq!(r.rows.len(), 3);
        assert_eq!(r.columns.len(), 5);
        for row in &r.rows {
            let requests: u64 = row[1].parse().unwrap();
            let rps: f64 = row[3].parse().unwrap();
            let scaling: f64 = row[4].parse().unwrap();
            assert!(requests > 0, "no traffic at {} clients", row[0]);
            assert!(rps > 0.0 && scaling > 0.0);
        }
        assert_eq!(r.rows[0][4], "1.00"); // single client is the baseline
    }

    #[test]
    fn engine_amortization_shape_and_cache_win() {
        let r = engine_amortization(Scale::Quick);
        assert_eq!(r.rows.len(), 3);
        assert_eq!(r.columns.len(), 4);
        for row in &r.rows {
            let oneshot: f64 = row[1].parse().unwrap();
            let engine: f64 = row[2].parse().unwrap();
            let ratio: f64 = row[3].parse().unwrap();
            assert!(oneshot > 0.0 && engine > 0.0 && ratio > 0.0);
        }
        // At 100 repeated queries the cache absorbs 99 scans: the
        // amortization must comfortably clear the CI gate even on a noisy
        // machine (the true value approaches ~100).
        let at_100: f64 = r.rows[2][3].parse().unwrap();
        let at_1: f64 = r.rows[0][3].parse().unwrap();
        assert!(at_100 >= 3.0, "amortization at 100 queries: {at_100}");
        assert!(at_100 > at_1, "no amortization gain: {at_1} -> {at_100}");
    }
}
