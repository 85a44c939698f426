//! Keep-alive connection pool, one per shard.
//!
//! A `get`/`put` pair brackets every shard call: `get` pops the most
//! recently parked connection (LIFO — the warmest socket, least likely
//! to have been idled out by the shard's keep-alive timer) or starts
//! dialing a fresh one; `put` parks it again after a successful
//! exchange. Every connection here is poll-driven
//! ([`ClientConn::dial`]), so `get` never waits on the network: the
//! caller's `poll(2)` loop completes the dial under its own deadline.
//! Failed connections are simply dropped, never parked — the pool only ever
//! holds sockets whose last exchange completed cleanly, and
//! [`ClientConn`]'s transparent stale-reconnect covers the window where
//! the shard closed a parked socket while it idled here.

use std::io;
use std::sync::Mutex;

use sigstr_server::client::{ClientConfig, ClientConn};

/// A LIFO pool of keep-alive connections to one shard.
#[derive(Debug)]
pub struct Pool {
    addr: String,
    config: ClientConfig,
    idle: Mutex<Vec<ClientConn>>,
    max_idle: usize,
}

impl Pool {
    /// An empty pool dialing `addr`, parking at most `max_idle` sockets.
    pub fn new(addr: String, config: ClientConfig, max_idle: usize) -> Pool {
        Pool {
            addr,
            config,
            idle: Mutex::new(Vec::new()),
            max_idle,
        }
    }

    /// The shard address this pool dials.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Pop an idle connection or start dialing a fresh one.
    pub fn get(&self) -> io::Result<ClientConn> {
        if let Some(conn) = self.idle.lock().unwrap().pop() {
            return Ok(conn);
        }
        ClientConn::dial(&self.addr, self.config)
    }

    /// Park a connection after a clean exchange.
    pub fn put(&self, conn: ClientConn) {
        let mut idle = self.idle.lock().unwrap();
        if idle.len() < self.max_idle {
            idle.push(conn);
        }
    }

    /// Drop every parked connection (e.g. after the shard goes down, so
    /// recovery starts from fresh sockets).
    pub fn drain(&self) {
        self.idle.lock().unwrap().clear();
    }

    /// Number of parked connections (test observability).
    #[cfg(test)]
    pub fn idle_len(&self) -> usize {
        self.idle.lock().unwrap().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::TcpListener;
    use std::time::{Duration, Instant};

    fn config() -> ClientConfig {
        ClientConfig {
            connect_timeout: Duration::from_secs(2),
            read_timeout: Duration::from_secs(2),
            write_timeout: Duration::from_secs(2),
        }
    }

    #[test]
    fn reuses_parked_connections_and_caps_the_idle_list() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let mut accepted = Vec::new();
            for _ in 0..3 {
                let (stream, _) = listener.accept().unwrap();
                accepted.push(stream);
            }
            accepted
        });

        let pool = Pool::new(addr.to_string(), config(), 2);
        let a = pool.get().unwrap();
        let b = pool.get().unwrap();
        let c = pool.get().unwrap();
        let _streams = server.join().unwrap();

        let b_peer = b.peer_addr();
        pool.put(a);
        pool.put(b);
        pool.put(c); // over the cap of 2: dropped
        assert_eq!(pool.idle_len(), 2);

        // LIFO: the most recently parked surviving connection comes back first.
        let reused = pool.get().unwrap();
        assert_eq!(reused.peer_addr(), b_peer);
        assert_eq!(pool.idle_len(), 1);

        pool.drain();
        assert_eq!(pool.idle_len(), 0);
    }

    #[test]
    fn get_dials_when_the_pool_is_empty() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            stream
                .write_all(
                    b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Type: text/plain\r\n\r\nhi",
                )
                .unwrap();
        });
        let pool = Pool::new(addr.to_string(), config(), 4);
        let mut conn = pool.get().unwrap();
        conn.send_with("GET", "/x", None, &[]).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        let response = crate::await_response(&mut conn, deadline).unwrap();
        assert_eq!(response.status, 200);
        assert_eq!(response.body_str(), "hi");
        server.join().unwrap();
    }
}
