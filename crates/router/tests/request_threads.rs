//! The request path spawns no threads: every shard attempt of a routed
//! request — primary, hedge, retry, and every shard of a fan-out — runs
//! on the router worker that owns the request, multiplexed with
//! `poll(2)`.
//!
//! Pinned by counting the process's threads (`/proc/self/status`) while
//! a merged request is held in flight by a black-holed shard. This file
//! holds a single test on purpose: the test harness runs the tests of
//! one binary in parallel threads, which would perturb the count.

#![cfg(target_os = "linux")]

use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::time::Duration;

use sigstr_core::{CountsLayout, Model, Sequence};
use sigstr_corpus::Corpus;
use sigstr_router::fault::{FaultMode, FaultProxy};
use sigstr_router::hash::Ring;
use sigstr_router::{HedgePolicy, RouterConfig, RouterServer};
use sigstr_server::client::ClientConn;
use sigstr_server::json::Json;
use sigstr_server::{Server, ServerConfig, ServiceHandle};

const VNODES: usize = 64;

type Booted = (String, ServiceHandle, std::thread::JoinHandle<()>);

fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .and_then(|count| count.trim().parse().ok())
        .expect("a Threads: line")
}

/// Two shard corpora, each owning at least one small document.
fn build() -> Vec<PathBuf> {
    let ring = Ring::new(2, VNODES);
    let dirs: Vec<PathBuf> = (0..2)
        .map(|s| {
            let dir = std::env::temp_dir()
                .join(format!("sigstr-router-threads-s{s}-{}", std::process::id()));
            std::fs::remove_dir_all(&dir).ok();
            dir
        })
        .collect();
    let mut corpora: Vec<Corpus> = dirs.iter().map(|d| Corpus::create(d).unwrap()).collect();
    for i in 0..8u8 {
        let symbols: Vec<u8> = (0..300u32)
            .map(|j| ((j * 7 + u32::from(i)) % 5 % 2) as u8)
            .collect();
        let sequence = Sequence::from_symbols(symbols, 2).unwrap();
        let name = format!("doc-{i}");
        corpora[ring.shard_for(&name)]
            .add_document(
                &name,
                &sequence,
                Model::uniform(2).unwrap(),
                CountsLayout::Flat,
            )
            .unwrap();
    }
    assert!(
        corpora.iter().all(|c| !c.is_empty()),
        "a shard got no document"
    );
    dirs
}

fn boot_shard(dir: &Path) -> Booted {
    let server = Server::bind(
        Corpus::open(dir).unwrap(),
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            threads: 2,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr().to_string();
    let handle = server.handle();
    (
        addr,
        handle,
        std::thread::spawn(move || server.run().map(drop).unwrap()),
    )
}

fn degraded(body: &str) -> Option<Json> {
    Json::decode(body.trim()).unwrap().get("degraded").cloned()
}

#[test]
fn a_merged_request_in_flight_spawns_no_threads() {
    let dirs = build();
    let shards: Vec<Booted> = dirs.iter().map(|d| boot_shard(d)).collect();
    let mut proxy = FaultProxy::start(shards[1].0.parse().unwrap()).unwrap();

    let mut config = RouterConfig::new(vec![shards[0].0.clone(), proxy.addr().to_string()]);
    config.service.addr = "127.0.0.1:0".into();
    config.service.threads = 2;
    config.vnodes = VNODES;
    config.deadline = Duration::from_millis(500);
    config.retries = 0;
    config.hedge = HedgePolicy::Disabled;
    // No background probes: they would dial the proxy, which spawns
    // relay threads of its own.
    config.probe_interval = Duration::from_secs(600);
    let router = RouterServer::bind(config).unwrap();
    let router_addr = router.local_addr().to_string();
    let router_handle = router.handle();
    let router_join = std::thread::spawn(move || router.run().map(drop).unwrap());

    // Warm both shard pools (and the shards' result caches) with the
    // very request measured below.
    let target = "/v1/merged/top?t=3";
    let mut conn = ClientConn::connect(&router_addr).unwrap();
    for _ in 0..3 {
        let response = conn.request("GET", target, None).unwrap();
        assert_eq!(response.status, 200, "{}", response.body_str());
        assert_eq!(degraded(response.body_str()), Some(Json::Bool(false)));
    }

    // The proxy now swallows bytes on the pooled connection too, so the
    // merged request below waits out its full deadline on shard 1.
    proxy.set_mode(FaultMode::Blackhole);
    let (go, wait) = mpsc::channel::<()>();
    let client = std::thread::spawn(move || {
        wait.recv().unwrap();
        conn.request("GET", target, None).unwrap()
    });
    let idle = threads();
    go.send(()).unwrap();
    std::thread::sleep(Duration::from_millis(200));
    let in_flight = threads();
    assert!(!client.is_finished(), "the request must still be in flight");
    let response = client.join().unwrap();

    assert_eq!(
        in_flight, idle,
        "threads while a merged request was in flight vs just before it"
    );
    assert_eq!(response.status, 200);
    assert_eq!(degraded(response.body_str()), Some(Json::Bool(true)));

    proxy.stop();
    router_handle.shutdown();
    router_join.join().unwrap();
    for (_, handle, join) in shards {
        handle.shutdown();
        join.join().unwrap();
    }
    for dir in &dirs {
        std::fs::remove_dir_all(dir).ok();
    }
}
