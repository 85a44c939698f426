//! Hand-rolled HTTP/1.1 connection handling: request parsing and
//! response writing over a `TcpStream`.
//!
//! The server speaks the minimal dialect a JSON query service needs —
//! request line, headers, `Content-Length` bodies, keep-alive — and
//! rejects everything outside it loudly instead of guessing:
//!
//! * `Transfer-Encoding` (chunked or otherwise) → `501`,
//! * pipelined requests (bytes of a second request arriving before the
//!   first one's response) → `501`,
//! * HTTP versions other than 1.0/1.1 → `501`,
//! * malformed request lines / headers / lengths → `400`,
//! * oversized headers or bodies → `431` / `413`.
//!
//! Reads poll with a short socket timeout so a worker blocked on an idle
//! keep-alive connection notices the shutdown flag within
//! [`POLL_INTERVAL`] without dropping a request whose bytes are already
//! in flight: shutdown only aborts the read **between** requests, never
//! once the first byte of a request has arrived.

use std::io::Read as _;
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Socket read timeout: the granularity at which blocked reads re-check
/// the idle deadline and the shutdown flag.
pub const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// Size limits for one request.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Maximum bytes of request line + headers.
    pub max_header_bytes: usize,
    /// Maximum `Content-Length`.
    pub max_body_bytes: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Self {
            max_header_bytes: 16 * 1024,
            max_body_bytes: 4 * 1024 * 1024,
        }
    }
}

/// A parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Upper-cased method (`GET`, `POST`, …).
    pub method: String,
    /// Decoded path (`/v1/query`), without the query string.
    pub path: String,
    /// Query-string parameters in order of appearance (no
    /// percent-decoding — the server's parameters are names and
    /// numbers).
    pub query: Vec<(String, String)>,
    /// Headers with lower-cased names, in order of appearance.
    pub headers: Vec<(String, String)>,
    /// The request body (`Content-Length` bytes; empty without one).
    pub body: Vec<u8>,
    /// Whether the client asked to keep the connection open
    /// (HTTP/1.1 default, overridden by a `Connection` header).
    pub keep_alive: bool,
    /// Microseconds from the request's first byte arriving to the
    /// request being fully parsed — the tracing layer's `parse` span
    /// (receive + parse, excluding any idle keep-alive wait).
    pub recv_us: u64,
}

impl Request {
    /// First header value under `name` (lower-case).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// First query-string parameter under `name`.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Why [`Conn::read_request`] did not produce a request.
#[derive(Debug)]
pub enum RecvError {
    /// Clean close (EOF or reset before any byte of a request).
    Closed,
    /// No request started within the keep-alive window.
    IdleTimeout,
    /// Shutdown was requested while the connection sat idle.
    Shutdown,
    /// Header block or body over the configured limit. The payload is
    /// the response status to send (`431` or `413`).
    TooLarge(u16, &'static str),
    /// Unparseable request (`400`).
    Malformed(&'static str),
    /// A feature this server deliberately does not implement (`501`):
    /// chunked transfer encoding, pipelining, exotic HTTP versions.
    Unsupported(&'static str),
    /// The connection broke mid-request.
    Io(String),
}

/// One server-side connection: the stream plus a read buffer that
/// carries bytes across reads (and exposes pipelined bytes, which are
/// rejected).
#[derive(Debug)]
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

fn find_blank_line(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

impl Conn {
    /// Wrap an accepted stream: disables Nagle (responses are one small
    /// write) and arms the polling read timeout.
    pub fn new(stream: TcpStream) -> std::io::Result<Self> {
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(POLL_INTERVAL))?;
        Ok(Self {
            stream,
            buf: Vec::new(),
        })
    }

    /// Pull more bytes into the buffer. `Ok(0)` is EOF; timeouts map to
    /// `Ok(None)`-style `false` (no progress).
    fn fill(&mut self) -> Result<FillOutcome, RecvError> {
        let mut chunk = [0u8; 4096];
        match self.stream.read(&mut chunk) {
            Ok(0) => Ok(FillOutcome::Eof),
            Ok(n) => {
                self.buf.extend_from_slice(&chunk[..n]);
                Ok(FillOutcome::Data)
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                Ok(FillOutcome::Timeout)
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => Ok(FillOutcome::Timeout),
            Err(e) => Err(RecvError::Io(e.to_string())),
        }
    }

    /// Read and parse one request.
    ///
    /// `idle` bounds how long the connection may sit without a request
    /// starting; `abort` is polled while idle (the graceful-shutdown
    /// hook). Once the first byte of a request has arrived the request
    /// is read to completion — the header block within the `idle`
    /// window, the body under a progress-based deadline (refreshed per
    /// chunk, hard-capped at ten windows) — so shutdown never truncates
    /// an in-flight request and a legal slow upload is not killed by
    /// the residue of the keep-alive window.
    pub fn read_request(
        &mut self,
        limits: &Limits,
        idle: Duration,
        abort: &dyn Fn() -> bool,
    ) -> Result<Request, RecvError> {
        let deadline = Instant::now() + idle;
        // When the request's first byte arrived (bytes already buffered
        // count as "now": between requests the buffer is empty, so this
        // only triggers for bytes that raced the previous drain).
        let mut first_byte: Option<Instant> = (!self.buf.is_empty()).then(Instant::now);
        // -- Header block ---------------------------------------------------
        let header_end = loop {
            if let Some(pos) = find_blank_line(&self.buf) {
                if pos > limits.max_header_bytes {
                    return Err(RecvError::TooLarge(431, "header block too large"));
                }
                break pos;
            }
            if self.buf.len() > limits.max_header_bytes {
                return Err(RecvError::TooLarge(431, "header block too large"));
            }
            if Instant::now() >= deadline {
                return if self.buf.is_empty() {
                    Err(RecvError::IdleTimeout)
                } else {
                    Err(RecvError::Io("timed out mid-request".into()))
                };
            }
            match self.fill()? {
                FillOutcome::Eof => {
                    return if self.buf.is_empty() {
                        Err(RecvError::Closed)
                    } else {
                        Err(RecvError::Io("connection closed mid-request".into()))
                    };
                }
                FillOutcome::Data => {
                    first_byte.get_or_insert_with(Instant::now);
                    continue;
                }
                FillOutcome::Timeout => {
                    // Only an *idle* connection honors the shutdown
                    // flag: bytes already in flight always win, so a
                    // drain never truncates a request the client has
                    // sent.
                    if self.buf.is_empty() && abort() {
                        return Err(RecvError::Shutdown);
                    }
                    continue;
                }
            }
        };
        let header_text = std::str::from_utf8(&self.buf[..header_end])
            .map_err(|_| RecvError::Malformed("headers are not valid UTF-8"))?
            .to_string();
        let body_start = header_end + 4;

        let mut lines = header_text.split("\r\n");
        let request_line = lines.next().unwrap_or_default();
        let mut parts = request_line.split(' ');
        let method = parts
            .next()
            .filter(|m| !m.is_empty())
            .ok_or(RecvError::Malformed("empty request line"))?
            .to_ascii_uppercase();
        let target = parts
            .next()
            .ok_or(RecvError::Malformed("request line has no target"))?;
        let version = parts
            .next()
            .ok_or(RecvError::Malformed("request line has no version"))?;
        if parts.next().is_some() {
            return Err(RecvError::Malformed("request line has extra fields"));
        }
        let mut keep_alive = match version {
            "HTTP/1.1" => true,
            "HTTP/1.0" => false,
            _ => return Err(RecvError::Unsupported("unsupported HTTP version")),
        };

        let mut headers: Vec<(String, String)> = Vec::new();
        for line in lines {
            let (name, value) = line
                .split_once(':')
                .ok_or(RecvError::Malformed("header line has no colon"))?;
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        }
        let mut content_length = 0usize;
        let mut saw_length = false;
        for (name, value) in &headers {
            match name.as_str() {
                "transfer-encoding" => {
                    return Err(RecvError::Unsupported(
                        "transfer-encoding (chunked bodies) is not implemented",
                    ));
                }
                "content-length" => {
                    if saw_length {
                        return Err(RecvError::Malformed("multiple content-length headers"));
                    }
                    saw_length = true;
                    content_length = value
                        .parse()
                        .map_err(|_| RecvError::Malformed("unparseable content-length"))?;
                }
                "connection" => {
                    let value = value.to_ascii_lowercase();
                    if value.split(',').any(|t| t.trim() == "close") {
                        keep_alive = false;
                    } else if value.split(',').any(|t| t.trim() == "keep-alive") {
                        keep_alive = true;
                    }
                }
                _ => {}
            }
        }
        if content_length > limits.max_body_bytes {
            return Err(RecvError::TooLarge(413, "body larger than the limit"));
        }

        // -- Body -----------------------------------------------------------
        // The body gets its own progress-based window instead of the
        // residue of the idle deadline: a legal slow upload of a large
        // batch body refreshes its deadline on every chunk received,
        // while a byte-trickling client is still cut off by the hard
        // cap (10 idle windows for the whole body).
        let mut body_deadline = Instant::now() + idle;
        let body_hard_cap = Instant::now() + idle.saturating_mul(10);
        while self.buf.len() < body_start + content_length {
            let now = Instant::now();
            if now >= body_deadline || now >= body_hard_cap {
                return Err(RecvError::Io("timed out reading body".into()));
            }
            match self.fill()? {
                FillOutcome::Eof => {
                    return Err(RecvError::Io("connection closed mid-body".into()));
                }
                FillOutcome::Data => body_deadline = Instant::now() + idle,
                FillOutcome::Timeout => {}
            }
        }
        let body = self.buf[body_start..body_start + content_length].to_vec();
        self.buf.drain(..body_start + content_length);
        if !self.buf.is_empty() {
            // Bytes of a second request arrived before this one was
            // answered: the client is pipelining, which this server
            // deliberately rejects rather than half-supports.
            return Err(RecvError::Unsupported("pipelined requests"));
        }

        let (path, raw_query) = match target.split_once('?') {
            Some((p, q)) => (p.to_string(), q),
            None => (target.to_string(), ""),
        };
        let query = raw_query
            .split('&')
            .filter(|pair| !pair.is_empty())
            .map(|pair| match pair.split_once('=') {
                Some((k, v)) => (k.to_string(), v.to_string()),
                None => (pair.to_string(), String::new()),
            })
            .collect();

        Ok(Request {
            method,
            path,
            query,
            headers,
            body,
            keep_alive,
            recv_us: first_byte
                .map(|t| u64::try_from(t.elapsed().as_micros()).unwrap_or(u64::MAX))
                .unwrap_or(0),
        })
    }

    /// Write one response and flush it.
    pub fn write_response(&mut self, response: &Response) -> std::io::Result<()> {
        write_response_to(&mut self.stream, response)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FillOutcome {
    Data,
    Timeout,
    Eof,
}

/// A response ready to serialize.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// `Content-Type` value.
    pub content_type: &'static str,
    /// Response body.
    pub body: Vec<u8>,
    /// Whether to advertise (and honor) keep-alive.
    pub keep_alive: bool,
    /// Extra headers (`Retry-After`, `Allow`, …).
    pub extra_headers: Vec<(&'static str, String)>,
}

impl Response {
    /// A response with no extra headers.
    pub fn new(status: u16, content_type: &'static str, body: Vec<u8>) -> Self {
        Self {
            status,
            content_type,
            body,
            keep_alive: true,
            extra_headers: Vec::new(),
        }
    }

    /// Add an extra header.
    pub fn with_header(mut self, name: &'static str, value: impl Into<String>) -> Self {
        self.extra_headers.push((name, value.into()));
        self
    }

    /// Mark the connection for closing after this response.
    pub fn closing(mut self) -> Self {
        self.keep_alive = false;
        self
    }
}

/// Canonical reason phrase for the statuses this server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        _ => "Response",
    }
}

/// Serialize a response onto any writer (used by the worker loop and by
/// the acceptor's overload rejection, which never constructs a
/// [`Conn`]). Head and body go out in one write, so a `TCP_NODELAY`
/// socket sends the message as one segment the peer reads at once.
pub fn write_response_to<W: std::io::Write>(
    writer: &mut W,
    response: &Response,
) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        response.status,
        reason(response.status),
        response.content_type,
        response.body.len(),
        if response.keep_alive {
            "keep-alive"
        } else {
            "close"
        },
    );
    for (name, value) in &response.extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    let mut message = Vec::with_capacity(head.len() + response.body.len());
    message.extend_from_slice(head.as_bytes());
    message.extend_from_slice(&response.body);
    writer.write_all(&message)?;
    writer.flush()
}

/// Reject an accepted-but-unqueued stream with `503` + `Retry-After`
/// (the admission-control path; failures are ignored — the client is
/// being turned away either way).
pub fn reject_overloaded(stream: &mut TcpStream) {
    let response = Response::new(
        503,
        "application/json",
        b"{\"error\":\"server overloaded, retry shortly\"}".to_vec(),
    )
    .closing()
    .with_header("Retry-After", "1");
    let _ = stream.set_nodelay(true);
    let _ = write_response_to(stream, &response);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;
    use std::net::TcpListener;

    /// Run the parser against raw client bytes via a real socket pair.
    fn parse_raw(raw: &[u8]) -> Result<Request, RecvError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        client.write_all(raw).unwrap();
        client.flush().unwrap();
        let (server_side, _) = listener.accept().unwrap();
        let mut conn = Conn::new(server_side).unwrap();
        conn.read_request(&Limits::default(), Duration::from_secs(2), &|| false)
    }

    #[test]
    fn parses_get_with_query_string() {
        let req = parse_raw(b"GET /v1/merged/top?t=5&x=a HTTP/1.1\r\nHost: h\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/v1/merged/top");
        assert_eq!(req.query_param("t"), Some("5"));
        assert_eq!(req.query_param("x"), Some("a"));
        assert_eq!(req.query_param("missing"), None);
        assert!(req.keep_alive);
        assert!(req.body.is_empty());
    }

    #[test]
    fn parses_post_with_body() {
        let req = parse_raw(
            b"POST /v1/query HTTP/1.1\r\nContent-Type: application/json\r\nContent-Length: 11\r\n\r\n{\"a\":\"b\\n\"}",
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.body, b"{\"a\":\"b\\n\"}");
        assert_eq!(req.header("content-type"), Some("application/json"));
    }

    #[test]
    fn connection_close_and_http10_disable_keep_alive() {
        let req = parse_raw(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert!(!req.keep_alive);
        let req = parse_raw(b"GET / HTTP/1.0\r\n\r\n").unwrap();
        assert!(!req.keep_alive);
        let req = parse_raw(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").unwrap();
        assert!(req.keep_alive);
    }

    #[test]
    fn rejects_chunked_and_pipelined_with_unsupported() {
        assert!(matches!(
            parse_raw(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
            Err(RecvError::Unsupported(_))
        ));
        // Two complete requests in one burst = pipelining.
        assert!(matches!(
            parse_raw(b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n"),
            Err(RecvError::Unsupported(_))
        ));
        assert!(matches!(
            parse_raw(b"GET / HTTP/2.0\r\n\r\n"),
            Err(RecvError::Unsupported(_))
        ));
    }

    #[test]
    fn rejects_malformed_requests() {
        for raw in [
            &b"\r\n\r\n"[..],
            b"GET\r\n\r\n",
            b"GET /\r\n\r\n",
            b"GET / HTTP/1.1 extra\r\n\r\n",
            b"GET / HTTP/1.1\r\nbad header line\r\n\r\n",
            b"POST / HTTP/1.1\r\nContent-Length: x\r\n\r\n",
            b"POST / HTTP/1.1\r\nContent-Length: 1\r\nContent-Length: 2\r\n\r\nab",
        ] {
            assert!(
                matches!(parse_raw(raw), Err(RecvError::Malformed(_))),
                "{:?}",
                String::from_utf8_lossy(raw)
            );
        }
    }

    #[test]
    fn rejects_oversized_header_and_body() {
        let limits = Limits {
            max_header_bytes: 64,
            max_body_bytes: 8,
        };
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();

        let mut client = TcpStream::connect(addr).unwrap();
        let long = format!("GET / HTTP/1.1\r\nX-Pad: {}\r\n\r\n", "y".repeat(200));
        client.write_all(long.as_bytes()).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        let mut conn = Conn::new(server_side).unwrap();
        assert!(matches!(
            conn.read_request(&limits, Duration::from_secs(2), &|| false),
            Err(RecvError::TooLarge(431, _))
        ));

        let mut client = TcpStream::connect(addr).unwrap();
        client
            .write_all(b"POST / HTTP/1.1\r\nContent-Length: 99\r\n\r\n")
            .unwrap();
        let (server_side, _) = listener.accept().unwrap();
        let mut conn = Conn::new(server_side).unwrap();
        assert!(matches!(
            conn.read_request(&limits, Duration::from_secs(2), &|| false),
            Err(RecvError::TooLarge(413, _))
        ));
    }

    #[test]
    fn clean_close_and_idle_and_shutdown_are_distinct() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();

        // Client connects and closes without sending anything.
        let client = TcpStream::connect(addr).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        drop(client);
        let mut conn = Conn::new(server_side).unwrap();
        assert!(matches!(
            conn.read_request(&Limits::default(), Duration::from_secs(2), &|| false),
            Err(RecvError::Closed)
        ));

        // Client connects and stays silent: idle timeout.
        let _client = TcpStream::connect(addr).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        let mut conn = Conn::new(server_side).unwrap();
        assert!(matches!(
            conn.read_request(&Limits::default(), Duration::from_millis(120), &|| false),
            Err(RecvError::IdleTimeout)
        ));

        // Abort hook fires while idle: shutdown.
        let _client2 = TcpStream::connect(addr).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        let mut conn = Conn::new(server_side).unwrap();
        assert!(matches!(
            conn.read_request(&Limits::default(), Duration::from_secs(5), &|| true),
            Err(RecvError::Shutdown)
        ));
    }

    #[test]
    fn response_serialization() {
        let mut out = Vec::new();
        let response = Response::new(200, "application/json", b"{}".to_vec());
        write_response_to(&mut out, &response).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));

        let mut out = Vec::new();
        let response = Response::new(503, "text/plain", b"busy".to_vec())
            .closing()
            .with_header("Retry-After", "1");
        write_response_to(&mut out, &response).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("503 Service Unavailable"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.contains("Retry-After: 1\r\n"));
    }
}
