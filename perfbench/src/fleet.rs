//! The system under test: corpus directories on disk, shard servers and
//! a router, all served from this process over loopback.

use std::path::Path;
use std::thread::JoinHandle;
use std::time::Duration;

use sigstr_core::CountsLayout;
use sigstr_corpus::{Corpus, LiveOptions};
use sigstr_router::hash::Ring;
use sigstr_router::{RouterConfig, RouterServer, DEFAULT_VNODES};
use sigstr_server::{ServeSummary, Server, ServerConfig, ServiceHandle};

use crate::workload::{Doc, FREEZE_TAIL};

/// Shards in the routed fleet.
pub const SHARDS: usize = 2;

/// Live tails freeze by size only: an age-triggered freeze would make
/// the number of freezes in a run depend on timing rather than on the
/// operations sent.
pub fn live_options() -> LiveOptions {
    LiveOptions {
        freeze_tail: FREEZE_TAIL,
        freeze_age: Duration::from_secs(3_600),
        ..LiveOptions::default()
    }
}

/// The shard the router's consistent-hash ring places `name` on.
pub fn owner(name: &str) -> usize {
    Ring::new(SHARDS, DEFAULT_VNODES).shard_for(name)
}

/// Create a corpus at `dir` holding the documents `keep` selects.
pub fn write_corpus(dir: &Path, docs: &[Doc], keep: impl Fn(&Doc) -> bool) -> Result<(), String> {
    let mut corpus = Corpus::create(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    for doc in docs.iter().filter(|d| keep(d)) {
        let seq = doc.sequence();
        let added = if doc.live {
            corpus.add_live_document(
                &doc.name,
                &seq,
                doc.alphabet,
                doc.model(),
                CountsLayout::Auto,
            )
        } else {
            corpus.add_document(&doc.name, &seq, doc.model(), CountsLayout::Auto)
        };
        added.map_err(|e| format!("add {}: {e}", doc.name))?;
    }
    Ok(())
}

pub fn open_corpus(dir: &Path) -> Result<Corpus, String> {
    Corpus::open(dir)
        .map(|c| c.with_live_options(live_options()))
        .map_err(|e| format!("open {}: {e}", dir.display()))
}

/// A running server or router thread.
pub struct Service {
    pub addr: String,
    handle: ServiceHandle,
    thread: JoinHandle<std::io::Result<ServeSummary>>,
}

impl Service {
    /// Shut down, drain and join.
    pub fn stop(self) -> Result<(), String> {
        self.handle.shutdown();
        match self.thread.join() {
            Ok(Ok(_)) => Ok(()),
            Ok(Err(e)) => Err(format!("{}: {e}", self.addr)),
            Err(_) => Err(format!("{}: service thread panicked", self.addr)),
        }
    }
}

/// Traces a traced process keeps: more than a ladder rung sends, so the
/// stage spans cover the whole rung rather than its last moments.
pub const RECORDER_CAPACITY: usize = 1 << 17;

/// The shipped service configuration (worker threads = all cores) on an
/// ephemeral loopback port.
fn service_config(traced: bool) -> ServerConfig {
    let mut config = ServerConfig {
        addr: "127.0.0.1:0".into(),
        ..ServerConfig::default()
    };
    config.trace.enabled = traced;
    config.trace.recorder_capacity = RECORDER_CAPACITY;
    config
}

pub fn boot_server(dir: &Path, traced: bool) -> Result<Service, String> {
    let server = Server::bind(open_corpus(dir)?, service_config(traced))
        .map_err(|e| format!("bind server: {e}"))?;
    let addr = server.local_addr().to_string();
    let handle = server.handle();
    let thread = std::thread::spawn(move || server.run());
    Ok(Service {
        addr,
        handle,
        thread,
    })
}

/// A router with the defaults `sigstr route` ships (deadline, retries,
/// p95 hedging, probe cadence); only the listener is set here.
pub fn boot_router(shards: Vec<String>, traced: bool) -> Result<Service, String> {
    let mut config = RouterConfig::new(shards);
    config.service = service_config(traced);
    let router = RouterServer::bind(config).map_err(|e| format!("bind router: {e}"))?;
    let addr = router.local_addr().to_string();
    let handle = router.handle();
    let thread = std::thread::spawn(move || router.run());
    Ok(Service {
        addr,
        handle,
        thread,
    })
}

/// Two shard servers, each holding the documents the ring gives it,
/// behind one router.
pub struct Fleet {
    pub shards: Vec<Service>,
    pub router: Service,
}

impl Fleet {
    pub fn start(root: &Path, docs: &[Doc], traced: bool) -> Result<Fleet, String> {
        let mut shards = Vec::with_capacity(SHARDS);
        for shard in 0..SHARDS {
            let dir = root.join(format!("shard{shard}"));
            write_corpus(&dir, docs, |d| owner(&d.name) == shard)?;
            shards.push(boot_server(&dir, traced)?);
        }
        let addrs = shards.iter().map(|s| s.addr.clone()).collect();
        let router = boot_router(addrs, traced)?;
        Ok(Fleet { shards, router })
    }

    pub fn stop(self) -> Result<(), String> {
        let mut result = self.router.stop();
        for shard in self.shards {
            result = result.and(shard.stop());
        }
        result
    }
}
