//! A minimal HTTP/1.1 client for one keep-alive connection.
//!
//! This exists so the fidelity tests, the throughput bench, the CI
//! smoke job and the scatter-gather router all drive the server through
//! one real TCP code path instead of several hand-rolled response
//! parsers. It is deliberately tiny: one connection, sequential
//! request/response, `Content-Length` bodies only — exactly the dialect
//! the server speaks.
//!
//! A connection is either *blocking* ([`ClientConn::connect`]: every
//! call waits, bounded by the [`ClientConfig`] timeouts) or
//! *poll-driven* ([`ClientConn::dial`]: no call ever waits on the
//! network). A caller multiplexing many connections on one thread (the
//! router) dials poll-driven connections, queues a request with
//! [`ClientConn::send_with`], and takes one [`ClientConn::recv_with`]
//! step whenever `poll(2)` reports the socket ready in the direction
//! [`ClientConn::wants_write`] names.
//!
//! Two hardening guarantees matter to callers that *pool* connections:
//!
//! * **Every wait is bounded**: a blocking connection's connect, read
//!   and write all carry timeouts, so a wedged or black-holed peer
//!   surfaces as a timeout error instead of a hang; a poll-driven one
//!   never waits, and its dial gives up at
//!   [`ClientConn::connect_deadline`].
//! * **Stale keep-alive connections heal transparently**: a pooled
//!   connection whose peer closed it while idle (keep-alive timeout,
//!   server restart) fails on the *next* request with a reset or an
//!   immediate EOF. [`ClientConn::request`] detects that exact shape —
//!   at least one response already served on this connection, zero
//!   bytes of the current response received — reconnects once, and
//!   resends. Anything past that first response byte is never retried
//!   here (the caller decides; the router retries idempotent reads).

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Timeouts for every blocking operation on a [`ClientConn`].
#[derive(Debug, Clone, Copy)]
pub struct ClientConfig {
    /// TCP connect timeout.
    pub connect_timeout: Duration,
    /// Per-`read(2)` timeout while waiting for response bytes.
    pub read_timeout: Duration,
    /// Per-`write(2)` timeout while sending a request.
    pub write_timeout: Duration,
}

impl Default for ClientConfig {
    fn default() -> Self {
        Self {
            connect_timeout: Duration::from_secs(5),
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
        }
    }
}

/// A parsed response.
#[derive(Debug, Clone)]
pub struct HttpResponse {
    /// Status code from the status line.
    pub status: u16,
    /// Headers with lower-cased names.
    pub headers: Vec<(String, String)>,
    /// The body (`Content-Length` bytes).
    pub body: Vec<u8>,
}

impl HttpResponse {
    /// First header value under `name` (lower-case).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 (panics on invalid UTF-8 — server bodies are
    /// JSON or plain text).
    pub fn body_str(&self) -> &str {
        std::str::from_utf8(&self.body).expect("response body is UTF-8")
    }
}

/// One keep-alive client connection.
#[derive(Debug)]
pub struct ClientConn {
    stream: TcpStream,
    buf: Vec<u8>,
    addr: SocketAddr,
    config: ClientConfig,
    /// Responses completed on the *current* TCP connection. A stale
    /// reconnect is only attempted when this is non-zero — a fresh
    /// connection that fails is a real error, not keep-alive decay.
    served: u64,
    /// The encoded request awaiting its response (empty once answered,
    /// and after [`ClientConn::send_raw`]): what a stale reconnect
    /// resends.
    pending: Vec<u8>,
    /// Bytes of `pending` already written to the current socket.
    sent: usize,
    /// Whether this connection was [`ClientConn::dial`]ed: its socket is
    /// non-blocking, and a step that would wait returns instead.
    poll_driven: bool,
    /// While a poll-driven dial is in flight: when it gives up.
    dialing: Option<Instant>,
}

/// Bytes asked of one `read(2)`.
const READ_CHUNK: usize = 16 * 1024;

impl ClientConn {
    /// Connect with the default timeouts (and Nagle disabled, so small
    /// requests do not sit in the send buffer).
    pub fn connect<A: ToSocketAddrs>(addr: A) -> std::io::Result<Self> {
        Self::connect_with(addr, ClientConfig::default())
    }

    /// Connect with explicit timeouts.
    pub fn connect_with<A: ToSocketAddrs>(addr: A, config: ClientConfig) -> std::io::Result<Self> {
        let addr = resolve(addr)?;
        let stream = open(&addr, &config)?;
        Ok(Self::over(stream, addr, config, false))
    }

    /// Start a poll-driven connection: the TCP handshake begins and this
    /// returns at once, on a non-blocking socket. The dial gives up at
    /// [`ClientConn::connect_deadline`] (`config.connect_timeout` from
    /// now); the read and write timeouts do not apply — the caller's
    /// `poll(2)` deadline bounds the exchange. A stale reconnect dials
    /// the same way, so no call on this connection waits on the network
    /// (except on targets without the non-blocking connect — see
    /// `start_connect` — where the dial itself waits, bounded by
    /// `connect_timeout`).
    pub fn dial<A: ToSocketAddrs>(addr: A, config: ClientConfig) -> std::io::Result<Self> {
        let addr = resolve(addr)?;
        let stream = start_connect(&addr, config.connect_timeout)?;
        let mut conn = Self::over(stream, addr, config, true);
        conn.dialing = Some(Instant::now() + config.connect_timeout);
        Ok(conn)
    }

    fn over(stream: TcpStream, addr: SocketAddr, config: ClientConfig, poll_driven: bool) -> Self {
        Self {
            stream,
            buf: Vec::new(),
            addr,
            config,
            served: 0,
            pending: Vec::new(),
            sent: 0,
            poll_driven,
            dialing: None,
        }
    }

    /// The peer address this connection (re)connects to.
    pub fn peer_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Override the read timeout (e.g. to bound a read by a request
    /// deadline). Sticks until changed again; survives reconnects only
    /// as the configured default, so per-request callers set it per
    /// request.
    pub fn set_read_timeout(&mut self, timeout: Duration) -> std::io::Result<()> {
        self.stream.set_read_timeout(Some(timeout))
    }

    /// Response bytes already read off the socket but not yet returned.
    /// Non-zero right after a response completes means the peer sent
    /// more than that response: the connection is out of step with its
    /// peer and not fit for reuse.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Whether the next step of a poll-driven exchange waits for the
    /// socket to be writable (the dial or the request write is still
    /// under way) rather than readable.
    pub fn wants_write(&self) -> bool {
        self.dialing.is_some() || self.sent < self.pending.len()
    }

    /// While a poll-driven dial is in flight, when it gives up: a caller
    /// waiting in `poll(2)` wakes by then and takes a
    /// [`ClientConn::recv_with`] step, which fails with `TimedOut`.
    pub fn connect_deadline(&self) -> Option<Instant> {
        self.dialing
    }

    /// Send raw bytes (for driving malformed input at the server).
    pub fn send_raw(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.pending.clear();
        self.sent = 0;
        self.stream.write_all(bytes)
    }

    /// Issue one request and read its response. `body` adds a
    /// `Content-Length` JSON body.
    ///
    /// If this pooled connection turns out to be stale — the peer
    /// closed it while idle, detected as a reset/EOF before any byte of
    /// the response arrived, on a connection that has served at least
    /// one response — it reconnects once and resends. A failure on the
    /// fresh connection (or any failure after response bytes started)
    /// is returned to the caller.
    pub fn request(
        &mut self,
        method: &str,
        target: &str,
        body: Option<&str>,
    ) -> std::io::Result<HttpResponse> {
        self.request_with(method, target, body, &[])
    }

    /// [`ClientConn::request`] with extra request headers (the trace
    /// header on router→shard hops): [`ClientConn::send_with`], then
    /// [`ClientConn::read_response`].
    pub fn request_with(
        &mut self,
        method: &str,
        target: &str,
        body: Option<&str>,
        headers: &[(&str, &str)],
    ) -> std::io::Result<HttpResponse> {
        self.send_with(method, target, body, headers)?;
        self.read_response()
    }

    /// Write one request — head and body in a single write. Each
    /// `headers` entry is one `Name: value` pair; names must be
    /// untrusted-input-free (they go on the wire verbatim). A
    /// poll-driven connection writes what its socket takes now (nothing
    /// while the dial is in flight) and leaves the rest to
    /// [`ClientConn::recv_with`].
    ///
    /// A write that fails the stale way (see [`ClientConn::request`])
    /// reconnects once and rewrites; the response half then gets no
    /// second reconnect.
    pub fn send_with(
        &mut self,
        method: &str,
        target: &str,
        body: Option<&str>,
        headers: &[(&str, &str)],
    ) -> std::io::Result<()> {
        let mut head = format!("{method} {target} HTTP/1.1\r\nHost: sigstr\r\n");
        for (name, value) in headers {
            head.push_str(&format!("{name}: {value}\r\n"));
        }
        if let Some(body) = body {
            head.push_str("Content-Type: application/json\r\n");
            head.push_str(&format!("Content-Length: {}\r\n", body.len()));
        }
        head.push_str("\r\n");
        self.pending.clear();
        self.pending.extend_from_slice(head.as_bytes());
        self.pending
            .extend_from_slice(body.map(str::as_bytes).unwrap_or_default());
        self.sent = 0;
        match self.flush() {
            Err(e) if self.stale(&e) => {
                self.reconnect()?;
                self.flush()
            }
            result => result,
        }
    }

    /// One step of an exchange: returns a response already complete in
    /// the buffer; otherwise moves the exchange on — a poll-driven
    /// connection finishes its dial, then its request write, then reads
    /// what the socket holds; a blocking one performs exactly one
    /// `read(2)` — and returns the response if that completed it
    /// (`None`: call again when the socket is ready). A stale failure
    /// before any response byte reconnects once and resends the pending
    /// request, then reports `None` — the socket (and its raw fd) is a
    /// new one.
    pub fn recv_with(&mut self) -> std::io::Result<Option<HttpResponse>> {
        if let Some(response) = self.take_response()? {
            return Ok(Some(response));
        }
        match self.step() {
            Ok(()) => self.take_response(),
            Err(e) if !self.pending.is_empty() && self.stale(&e) => {
                self.reconnect()?;
                self.flush()?;
                Ok(None)
            }
            Err(e) => Err(e),
        }
    }

    /// Read one response on a blocking connection (after
    /// [`ClientConn::send_raw`], or as the second half of
    /// [`ClientConn::request`]): [`ClientConn::recv_with`] until it
    /// completes, each read bounded by the read timeout.
    pub fn read_response(&mut self) -> std::io::Result<HttpResponse> {
        debug_assert!(!self.poll_driven, "a poll-driven connection never blocks");
        loop {
            if let Some(response) = self.recv_with()? {
                return Ok(response);
            }
        }
    }

    /// Write what is left of the pending request: all of it on a
    /// blocking connection; on a poll-driven one, whatever the socket
    /// takes now, and nothing while the dial is in flight.
    fn flush(&mut self) -> std::io::Result<()> {
        if self.dialing.is_some() {
            return Ok(());
        }
        while self.sent < self.pending.len() {
            match self.stream.write(&self.pending[self.sent..]) {
                Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
                Ok(n) => self.sent += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) if self.poll_driven && e.kind() == std::io::ErrorKind::WouldBlock => {
                    return Ok(())
                }
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// The body of [`ClientConn::recv_with`]'s step: dial, then write,
    /// then read.
    fn step(&mut self) -> std::io::Result<()> {
        if let Some(give_up) = self.dialing {
            if !self.connected()? {
                if Instant::now() >= give_up {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::TimedOut,
                        "connect timed out",
                    ));
                }
                return Ok(());
            }
            self.dialing = None;
        }
        self.flush()?;
        if self.sent < self.pending.len() {
            return Ok(());
        }
        let mut progressed = false;
        loop {
            match self.read_chunk() {
                // A full chunk may have left more behind; anything less
                // drained the socket.
                Ok(n) if self.poll_driven && n == READ_CHUNK => progressed = true,
                Ok(_) => return Ok(()),
                // A failure after bytes arrived resurfaces on the next
                // step, once the bytes already read have been parsed.
                Err(e)
                    if self.poll_driven
                        && (progressed || e.kind() == std::io::ErrorKind::WouldBlock) =>
                {
                    return Ok(())
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Whether a poll-driven dial has completed; a failed one (refused,
    /// unreachable) as its error.
    fn connected(&self) -> std::io::Result<bool> {
        if let Some(e) = self.stream.take_error()? {
            return Err(e);
        }
        match self.stream.peer_addr() {
            Ok(_) => Ok(true),
            Err(e) if e.kind() == std::io::ErrorKind::NotConnected => Ok(false),
            Err(e) => Err(e),
        }
    }

    /// Whether `e` is keep-alive decay worth one reconnect: this
    /// connection served a response before, and no byte of the current
    /// one has arrived.
    fn stale(&self, e: &std::io::Error) -> bool {
        self.served > 0 && self.buf.is_empty() && is_stale_error(e)
    }

    /// Drop the stale socket and dial the same peer again — a
    /// poll-driven connection without waiting for the handshake.
    fn reconnect(&mut self) -> std::io::Result<()> {
        if self.poll_driven {
            self.stream = start_connect(&self.addr, self.config.connect_timeout)?;
            self.dialing = Some(Instant::now() + self.config.connect_timeout);
        } else {
            self.stream = open(&self.addr, &self.config)?;
        }
        self.buf.clear();
        self.served = 0;
        self.sent = 0;
        Ok(())
    }

    /// One `read(2)` appended to the buffer; EOF is an error (a
    /// response is always pending when this is called).
    fn read_chunk(&mut self) -> std::io::Result<usize> {
        let mut chunk = [0u8; READ_CHUNK];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed before a full response",
            ));
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(n)
    }

    /// Split one complete response off the front of the buffer, if the
    /// buffer holds one.
    fn take_response(&mut self) -> std::io::Result<Option<HttpResponse>> {
        let Some(header_end) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") else {
            return Ok(None);
        };
        let head = std::str::from_utf8(&self.buf[..header_end])
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        let mut lines = head.split("\r\n");
        let status_line = lines.next().unwrap_or_default();
        let status = status_line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("bad status line `{status_line}`"),
                )
            })?;
        let headers: Vec<(String, String)> = lines
            .filter_map(|line| line.split_once(':'))
            .map(|(k, v)| (k.trim().to_ascii_lowercase(), v.trim().to_string()))
            .collect();
        let content_length: usize = headers
            .iter()
            .find(|(k, _)| k == "content-length")
            .and_then(|(_, v)| v.parse().ok())
            .unwrap_or(0);
        let body_start = header_end + 4;
        if self.buf.len() < body_start + content_length {
            return Ok(None);
        }
        let body = self.buf[body_start..body_start + content_length].to_vec();
        self.buf.drain(..body_start + content_length);
        self.served += 1;
        self.pending.clear();
        self.sent = 0;
        Ok(Some(HttpResponse {
            status,
            headers,
            body,
        }))
    }
}

#[cfg(unix)]
impl std::os::unix::io::AsRawFd for ClientConn {
    /// The current socket's descriptor, for `poll(2)`. It changes when a
    /// stale reconnect replaces the socket, so poll-driven callers read
    /// it afresh before every wait.
    fn as_raw_fd(&self) -> std::os::unix::io::RawFd {
        self.stream.as_raw_fd()
    }
}

/// Dial with bounded connect time, Nagle off, both I/O timeouts armed.
fn open(addr: &SocketAddr, config: &ClientConfig) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect_timeout(addr, config.connect_timeout)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(config.read_timeout))?;
    stream.set_write_timeout(Some(config.write_timeout))?;
    Ok(stream)
}

fn resolve<A: ToSocketAddrs>(addr: A) -> std::io::Result<SocketAddr> {
    addr.to_socket_addrs()?.next().ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "address resolved to nothing",
        )
    })
}

/// Begin a TCP connect without waiting for it, on a non-blocking socket
/// with Nagle off: the handshake resolves in the background, and
/// `poll(2)` reports the socket writable once it has (see
/// [`ClientConn::connected`]). std has no such call, so the two
/// syscalls are declared directly against the C ABI (no libc crate),
/// with linux's socket address layouts and the flag and errno values
/// its generic ABI gives these architectures.
#[cfg(all(
    target_os = "linux",
    any(
        target_arch = "x86_64",
        target_arch = "aarch64",
        target_arch = "riscv64"
    )
))]
fn start_connect(addr: &SocketAddr, _timeout: Duration) -> std::io::Result<TcpStream> {
    use std::os::unix::io::FromRawFd;

    extern "C" {
        fn socket(domain: i32, kind: i32, protocol: i32) -> i32;
        fn connect(fd: i32, addr: *const u8, len: u32) -> i32;
    }
    const AF_INET: u16 = 2;
    const AF_INET6: u16 = 10;
    const SOCK_STREAM: i32 = 1;
    const SOCK_NONBLOCK: i32 = 0o4000;
    const SOCK_CLOEXEC: i32 = 0o2_000_000;
    const EINTR: i32 = 4;
    const EINPROGRESS: i32 = 115;

    /// `struct sockaddr_in`.
    #[repr(C)]
    struct SockaddrIn {
        family: u16,
        port: [u8; 2],
        addr: [u8; 4],
        zero: [u8; 8],
    }
    /// `struct sockaddr_in6`.
    #[repr(C)]
    struct SockaddrIn6 {
        family: u16,
        port: [u8; 2],
        flowinfo: u32,
        addr: [u8; 16],
        scope_id: u32,
    }

    let family = if addr.is_ipv4() { AF_INET } else { AF_INET6 };
    // SAFETY: a plain syscall on integer arguments.
    let fd = unsafe {
        socket(
            i32::from(family),
            SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
            0,
        )
    };
    if fd < 0 {
        return Err(std::io::Error::last_os_error());
    }
    // SAFETY: `fd` is a fresh socket nothing else owns; the stream
    // closes it on every path from here on.
    let stream = unsafe { TcpStream::from_raw_fd(fd) };
    let rc = match addr {
        SocketAddr::V4(a) => {
            let raw = SockaddrIn {
                family,
                port: a.port().to_be_bytes(),
                addr: a.ip().octets(),
                zero: [0; 8],
            };
            let len = std::mem::size_of::<SockaddrIn>() as u32;
            // SAFETY: `raw` is a live `sockaddr_in` of exactly `len`
            // bytes for the duration of the call.
            unsafe { connect(fd, (&raw as *const SockaddrIn).cast(), len) }
        }
        SocketAddr::V6(a) => {
            let raw = SockaddrIn6 {
                family,
                port: a.port().to_be_bytes(),
                flowinfo: a.flowinfo(),
                addr: a.ip().octets(),
                scope_id: a.scope_id(),
            };
            let len = std::mem::size_of::<SockaddrIn6>() as u32;
            // SAFETY: `raw` is a live `sockaddr_in6` of exactly `len`
            // bytes for the duration of the call.
            unsafe { connect(fd, (&raw as *const SockaddrIn6).cast(), len) }
        }
    };
    if rc < 0 {
        let e = std::io::Error::last_os_error();
        // Interrupted, a non-blocking connect carries on in the
        // background just as an in-progress one does.
        if !matches!(e.raw_os_error(), Some(EINPROGRESS | EINTR)) {
            return Err(e);
        }
    }
    stream.set_nodelay(true)?;
    Ok(stream)
}

/// Elsewhere: a connect bounded by `timeout`, then non-blocking — the
/// one step of a poll-driven connection that can wait.
#[cfg(not(all(
    target_os = "linux",
    any(
        target_arch = "x86_64",
        target_arch = "aarch64",
        target_arch = "riscv64"
    )
)))]
fn start_connect(addr: &SocketAddr, timeout: Duration) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect_timeout(addr, timeout)?;
    stream.set_nodelay(true)?;
    stream.set_nonblocking(true)?;
    Ok(stream)
}

/// The error shapes a peer's idle keep-alive close produces on the next
/// request: a reset/broken pipe on write, or a clean EOF on read.
/// Timeouts are *not* stale — the connection is live, the peer is slow.
fn is_stale_error(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::UnexpectedEof
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::ConnectionAborted
            | std::io::ErrorKind::BrokenPipe
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::TcpListener;

    const RESPONSE: &[u8] = b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\nok\n";

    /// Read until a blank line (one full request head; bodies unused).
    fn read_request(stream: &mut TcpStream) -> bool {
        let mut buf = Vec::new();
        let mut chunk = [0u8; 1024];
        loop {
            match stream.read(&mut chunk) {
                Ok(0) | Err(_) => return false,
                Ok(n) => {
                    buf.extend_from_slice(&chunk[..n]);
                    if buf.windows(4).any(|w| w == b"\r\n\r\n") {
                        return true;
                    }
                }
            }
        }
    }

    #[test]
    fn reconnects_once_when_the_pooled_connection_went_stale() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // Server side: answer one request, close (idle keep-alive
        // reap), then accept a second connection and answer again.
        let server = std::thread::spawn(move || {
            let (mut first, _) = listener.accept().unwrap();
            assert!(read_request(&mut first));
            first.write_all(RESPONSE).unwrap();
            drop(first);
            let (mut second, _) = listener.accept().unwrap();
            assert!(read_request(&mut second));
            second.write_all(RESPONSE).unwrap();
            // Hold the socket until the client has read the response.
            assert!(!read_request(&mut second));
        });

        let mut conn = ClientConn::connect(addr).unwrap();
        let first = conn.request("GET", "/healthz", None).unwrap();
        assert_eq!(first.status, 200);
        // Give the server time to close; the next request hits a stale
        // socket and must transparently reconnect.
        std::thread::sleep(Duration::from_millis(50));
        let second = conn.request("GET", "/healthz", None).unwrap();
        assert_eq!(second.status, 200);
        drop(conn);
        server.join().unwrap();
    }

    #[test]
    fn recv_with_returns_a_response_only_once_it_is_complete() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (next, wait) = std::sync::mpsc::channel::<()>();
        let (head, tail) = RESPONSE.split_at(RESPONSE.len() - 2);
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            assert!(read_request(&mut stream));
            stream.write_all(head).unwrap();
            wait.recv().unwrap();
            stream.write_all(tail).unwrap();
            assert!(!read_request(&mut stream));
        });
        let mut conn = ClientConn::connect(addr).unwrap();
        conn.send_with("GET", "/healthz", None, &[]).unwrap();
        assert!(conn.recv_with().unwrap().is_none(), "half a body");
        assert!(conn.buffered() > 0);
        next.send(()).unwrap();
        let response = loop {
            if let Some(response) = conn.recv_with().unwrap() {
                break response;
            }
        };
        assert_eq!(response.body_str(), "ok\n");
        assert_eq!(conn.buffered(), 0);
        drop(conn);
        server.join().unwrap();
    }

    /// Step a poll-driven connection until its response completes,
    /// yielding between steps instead of waiting in `poll(2)`.
    fn drive(conn: &mut ClientConn) -> std::io::Result<HttpResponse> {
        let start = std::time::Instant::now();
        loop {
            if let Some(response) = conn.recv_with()? {
                return Ok(response);
            }
            assert!(start.elapsed() < Duration::from_secs(5), "no response");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn a_dialed_connection_never_blocks_and_redials_a_stale_socket_once() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (answer, wait) = std::sync::mpsc::channel::<()>();
        let server = std::thread::spawn(move || {
            let (mut first, _) = listener.accept().unwrap();
            assert!(read_request(&mut first));
            wait.recv().unwrap();
            first.write_all(RESPONSE).unwrap();
            drop(first);
            let (mut second, _) = listener.accept().unwrap();
            assert!(read_request(&mut second));
            second.write_all(RESPONSE).unwrap();
            assert!(!read_request(&mut second));
        });

        let mut conn = ClientConn::dial(addr, ClientConfig::default()).unwrap();
        assert!(conn.wants_write(), "the dial is in flight");
        conn.send_with("GET", "/healthz", None, &[]).unwrap();
        let start = std::time::Instant::now();
        for _ in 0..20 {
            assert!(conn.recv_with().unwrap().is_none(), "not answered yet");
        }
        assert!(start.elapsed() < Duration::from_secs(1), "a step waited");
        assert!(!conn.wants_write(), "dialed and sent: waiting to read");
        answer.send(()).unwrap();
        assert_eq!(drive(&mut conn).unwrap().status, 200);

        // The server closed that socket; the next exchange redials
        // (without blocking) and resends.
        std::thread::sleep(Duration::from_millis(50));
        conn.send_with("GET", "/healthz", None, &[]).unwrap();
        assert_eq!(drive(&mut conn).unwrap().body_str(), "ok\n");
        drop(conn);
        server.join().unwrap();
    }

    #[test]
    fn a_dial_to_a_closed_port_fails_as_a_step() {
        let addr = TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap();
        let err = ClientConn::dial(addr, ClientConfig::default())
            .and_then(|mut conn| {
                conn.send_with("GET", "/healthz", None, &[])?;
                drive(&mut conn)
            })
            .unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::ConnectionRefused);
    }

    #[test]
    fn a_fresh_connection_that_fails_is_not_retried() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // Accept and close without answering: the first request on a
        // fresh connection sees EOF and must surface it (served == 0).
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            assert!(read_request(&mut stream));
            drop(stream);
        });
        let mut conn = ClientConn::connect(addr).unwrap();
        let err = conn.request("GET", "/healthz", None).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
        server.join().unwrap();
    }

    #[test]
    fn reads_are_bounded_by_the_read_timeout() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // A black hole: accept, read the request, never respond.
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            assert!(read_request(&mut stream));
            // Keep reading so we notice the client giving up.
            assert!(!read_request(&mut stream));
        });
        let mut conn = ClientConn::connect_with(
            addr,
            ClientConfig {
                read_timeout: Duration::from_millis(100),
                ..ClientConfig::default()
            },
        )
        .unwrap();
        let start = std::time::Instant::now();
        let err = conn.request("GET", "/healthz", None).unwrap_err();
        assert!(
            matches!(
                err.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ),
            "expected a timeout, got {err:?}"
        );
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "read did not time out"
        );
        drop(conn);
        server.join().unwrap();
    }

    #[test]
    fn connect_to_a_closed_port_fails_promptly() {
        // Bind-then-drop guarantees the port is closed; the dial must
        // error out quickly (refused or timed out), never hang.
        let addr = TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap();
        let config = ClientConfig {
            connect_timeout: Duration::from_millis(500),
            ..ClientConfig::default()
        };
        let start = std::time::Instant::now();
        let result = ClientConn::connect_with(addr, config);
        assert!(result.is_err());
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "connect neither failed fast nor respected its timeout"
        );
    }
}
