//! A shard whose host stops answering dials — it vanished, or sits
//! behind a partition that drops SYNs — must cost the router nothing
//! but that shard's share of the answer. The router runs every shard
//! attempt of a request on one worker, so a dial that waited there
//! would hold up every other shard's answer until the deadline. Pinned
//! with a merged request: the healthy shard's hits must come back
//! degraded, within the deadline, never as "all shards unreachable".
//!
//! A dial hangs for real here: the stand-in host stops accepting and
//! its listen queue is filled, so the kernel drops further SYNs and a
//! connect stays in SYN-sent (linux behaviour, hence the gate).

#![cfg(target_os = "linux")]

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use sigstr_core::{CountsLayout, Model, Sequence};
use sigstr_corpus::Corpus;
use sigstr_router::hash::Ring;
use sigstr_router::{HedgePolicy, RouterConfig, RouterServer};
use sigstr_server::client::ClientConn;
use sigstr_server::json::Json;
use sigstr_server::{Server, ServerConfig, ServiceHandle};

const VNODES: usize = 64;

type Booted = (String, ServiceHandle, JoinHandle<()>);

/// Two shard corpora, each owning at least one small document.
fn build() -> Vec<PathBuf> {
    let ring = Ring::new(2, VNODES);
    let dirs: Vec<PathBuf> = (0..2)
        .map(|s| {
            let dir = std::env::temp_dir().join(format!(
                "sigstr-router-hung-dial-s{s}-{}",
                std::process::id()
            ));
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
        thread::spawn(move || server.run().map(drop).unwrap()),
    )
}

/// A host in front of a shard that can vanish: until [`Host::vanish`]
/// it relays each connection to the shard; from then on it accepts
/// nothing and its listen queue is full, so a dial to it hangs.
struct Host {
    addr: SocketAddr,
    vanished: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<TcpListener>>,
    /// Connections parked in the listen queue to fill it.
    queued: Vec<TcpStream>,
}

impl Host {
    fn start(upstream: SocketAddr) -> Host {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let addr = listener.local_addr().unwrap();
        let vanished = Arc::new(AtomicBool::new(false));
        let stop = Arc::clone(&vanished);
        let acceptor = thread::spawn(move || {
            while !stop.load(Ordering::SeqCst) {
                match listener.accept() {
                    Ok((client, _)) => relay(client, upstream),
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        thread::sleep(Duration::from_millis(2));
                    }
                    Err(e) => panic!("accept: {e}"),
                }
            }
            // Handed back so the port stays bound, and stops accepting.
            listener
        });
        Host {
            addr,
            vanished,
            acceptor: Some(acceptor),
            queued: Vec::new(),
        }
    }

    /// Stop accepting, then fill the listen queue until a dial hangs.
    fn vanish(&mut self) -> TcpListener {
        self.vanished.store(true, Ordering::SeqCst);
        let listener = self.acceptor.take().unwrap().join().unwrap();
        for _ in 0..4096 {
            match TcpStream::connect_timeout(&self.addr, Duration::from_millis(200)) {
                Ok(stream) => self.queued.push(stream),
                Err(e) if e.kind() == io::ErrorKind::TimedOut => return listener,
                Err(e) => panic!("filling the listen queue: {e}"),
            }
        }
        panic!("the listen queue never filled");
    }
}

/// Copy bytes both ways between `client` and a fresh upstream
/// connection until either side closes.
fn relay(client: TcpStream, upstream: SocketAddr) {
    client.set_nonblocking(false).unwrap();
    let server = TcpStream::connect(upstream).unwrap();
    let pipe = |mut from: TcpStream, mut to: TcpStream| {
        thread::spawn(move || {
            let _ = io::copy(&mut from, &mut to);
            let _ = to.shutdown(std::net::Shutdown::Both);
        })
    };
    pipe(client.try_clone().unwrap(), server.try_clone().unwrap());
    pipe(server, client);
}

fn merged(addr: &str) -> (u16, Json, Duration) {
    let mut conn = ClientConn::connect(addr).unwrap();
    let start = Instant::now();
    let response = conn.request("GET", "/v1/merged/top?t=3", None).unwrap();
    let elapsed = start.elapsed();
    let body = Json::decode(response.body_str().trim()).unwrap();
    (response.status, body, elapsed)
}

#[test]
fn a_shard_whose_dial_hangs_leaves_the_merged_answer_degraded_in_time() {
    let dirs = build();
    let shards: Vec<Booted> = dirs.iter().map(|d| boot_shard(d)).collect();
    let mut host = Host::start(shards[1].0.parse().unwrap());

    let deadline = Duration::from_millis(500);
    let mut config = RouterConfig::new(vec![shards[0].0.clone(), host.addr.to_string()]);
    config.service.addr = "127.0.0.1:0".into();
    config.vnodes = VNODES;
    config.deadline = deadline;
    config.retries = 0;
    config.hedge = HedgePolicy::Disabled;
    // No background probe would notice the vanished host in time; and
    // no parked sockets, so every attempt dials (the default 5 s
    // connect timeout outlasts the deadline).
    config.probe_interval = Duration::from_secs(600);
    config.max_idle_per_shard = 0;
    let router = RouterServer::bind(config).unwrap();
    let router_addr = router.local_addr().to_string();
    let router_handle = router.handle();
    let router_join = thread::spawn(move || router.run().map(drop).unwrap());

    let (status, body, _) = merged(&router_addr);
    assert_eq!(status, 200, "{body:?}");
    assert_eq!(body.get("degraded"), Some(&Json::Bool(false)));

    let _listener = host.vanish();
    let (status, body, elapsed) = merged(&router_addr);
    assert_eq!(status, 200, "{body:?}");
    assert_eq!(body.get("degraded"), Some(&Json::Bool(true)), "{body:?}");
    let hits = body.get("hits").and_then(Json::as_array).unwrap();
    assert!(!hits.is_empty(), "the healthy shard's hits: {body:?}");
    assert!(
        elapsed < deadline + Duration::from_millis(500),
        "answered after {elapsed:?}"
    );

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
