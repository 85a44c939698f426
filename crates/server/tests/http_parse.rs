//! Property tests for the HTTP/1.1 request parser,
//! `http::Conn::read_request`, over real loopback sockets.
//!
//! * Arbitrary bounded byte strings — random bytes mixed with the
//!   dialect's own tokens, so request lines, headers, lengths and bodies
//!   are reached as well as garbage — sent in random chunks must come back
//!   as `Ok` or a typed `RecvError`, never a panic.
//! * A valid request must parse to the same `Request` however its bytes
//!   are split: at random cut sets, and at every single byte boundary of
//!   one fixed request.
//!
//! Every case closes the client's write half after its last chunk, so the
//! parser always meets EOF instead of waiting out a timeout, and a short
//! pause between chunks lets the parser see them as separate reads. The
//! outcome never depends on that timing, so the suite stays deterministic
//! on a 1-2 core runner.

use proptest::prelude::*;
use sigstr_server::http::{Conn, Limits, RecvError, Request};
use std::io::Write as _;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::time::Duration;

/// Small limits, so bounded inputs reach the `431` / `413` paths too.
const LIMITS: Limits = Limits {
    max_header_bytes: 512,
    max_body_bytes: 1024,
};

/// Send `bytes` over a fresh loopback connection, cut before every offset
/// in `cuts`, close the write half, and parse one request server-side.
fn parse(bytes: &[u8], cuts: &[usize]) -> Result<Request, RecvError> {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let mut client = TcpStream::connect(listener.local_addr().unwrap()).expect("connect");
    let (server, _) = listener.accept().expect("accept");
    let mut conn = Conn::new(server).expect("wrap stream");
    let mut bounds: Vec<usize> = cuts.iter().map(|&c| c.min(bytes.len())).collect();
    bounds.push(0);
    bounds.push(bytes.len());
    bounds.sort_unstable();
    bounds.dedup();
    let pieces: Vec<Vec<u8>> = bounds
        .windows(2)
        .map(|w| bytes[w[0]..w[1]].to_vec())
        .collect();
    let writer = std::thread::spawn(move || {
        client.set_nodelay(true).ok();
        for piece in pieces {
            // The parser may reject the request before the last piece and
            // close its end; later writes may then fail, which is fine.
            if client.write_all(&piece).is_err() {
                break;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        client.shutdown(Shutdown::Write).ok();
    });
    let result = conn.read_request(&LIMITS, Duration::from_secs(10), &|| false);
    drop(conn);
    writer.join().expect("writer thread");
    result
}

/// Pieces of the dialect, so random token strings reach every stage of
/// the parser rather than failing at the request line.
const TOKENS: &[&[u8]] = &[
    b"GET / HTTP/1.1",
    b"post /v1/query?a=1&b HTTP/1.0",
    b"PUT /x HTTP/2",
    b"GET",
    b" ",
    b"/v1/query",
    b"?x=&&y=2",
    b"HTTP/1.1",
    b":",
    b"Host: x",
    b"x-a:b",
    b"no colon here",
    b"content-length: ",
    b"Content-Length:3",
    b"content-length: 0",
    b"Content-Length: 1024",
    b"content-length: 2048",
    b"content-length: 99999999999999999999999",
    b"content-length: -1",
    b"0",
    b"7",
    b"transfer-encoding: chunked",
    b"connection: close",
    b"Connection: keep-alive, Upgrade",
    b"{\"doc\": \"d0\"}",
    b"\xff\xfe",
    b"\0",
];

/// Token strings: a request line, then one line per pick — a dialect
/// token, a raw byte spliced into the text, or an empty line (the first
/// one ends the header block; what follows is body or pipelined bytes).
fn token_string(picks: &[u16], raw: &[u8]) -> Vec<u8> {
    let mut bytes = Vec::new();
    for (i, &pick) in picks.iter().enumerate() {
        // The first line is one of the request-line tokens.
        let pick = if i == 0 { pick % 4 } else { pick } as usize;
        if pick < TOKENS.len() {
            bytes.extend_from_slice(TOKENS[pick]);
            bytes.extend_from_slice(b"\r\n");
        } else if pick < TOKENS.len() + 3 {
            bytes.push(raw[i % raw.len()]);
        } else {
            bytes.extend_from_slice(b"\r\n");
        }
    }
    bytes
}

/// Method, path, query, headers, body and keep-alive.
type Fields<'a> = (
    &'a str,
    &'a str,
    &'a [(String, String)],
    &'a [(String, String)],
    &'a [u8],
    bool,
);

/// The fields a request is judged by (`recv_us` is a timing).
fn fields(r: &Request) -> Fields<'_> {
    (
        &r.method,
        &r.path,
        &r.query,
        &r.headers,
        &r.body,
        r.keep_alive,
    )
}

fn check_typed(bytes: &[u8], result: &Result<Request, RecvError>) -> Result<(), TestCaseError> {
    match result {
        Ok(request) => {
            prop_assert!(request.body.len() <= LIMITS.max_body_bytes);
            prop_assert_eq!(request.method.to_ascii_uppercase(), request.method.clone());
        }
        // EOF is always reached, so neither wait can expire, and the
        // abort hook never fires.
        Err(RecvError::IdleTimeout) | Err(RecvError::Shutdown) => {
            prop_assert!(false, "no wait can expire: {:?}", result)
        }
        Err(RecvError::Closed) => prop_assert!(bytes.is_empty(), "Closed after {bytes:?}"),
        Err(RecvError::TooLarge(status, _)) => prop_assert!(*status == 431 || *status == 413),
        Err(RecvError::Malformed(_)) | Err(RecvError::Unsupported(_)) | Err(RecvError::Io(_)) => {}
    }
    Ok(())
}

/// A valid request built from dice: method, path, query, headers, an
/// optional body, version, and an optional `Connection` header.
fn valid_request(dice: &[u16], body: &[u8]) -> (Vec<u8>, Request) {
    let roll = |i: usize| usize::from(dice[i % dice.len()]);
    let method = ["GET", "POST", "PUT", "DELETE"][roll(0) % 4];
    let path = ["/", "/v1/query", "/v1/merged/top", "/debug/traces"][roll(1) % 4];
    let query: Vec<(String, String)> = (0..roll(2) % 3)
        .map(|q| (format!("k{q}"), format!("{}", roll(3 + q))))
        .collect();
    let version = if roll(6) % 2 == 0 {
        "HTTP/1.1"
    } else {
        "HTTP/1.0"
    };
    let mut headers: Vec<(String, String)> = (0..roll(7) % 4)
        .map(|h| (format!("x-h{h}"), format!("v{}", roll(8 + h))))
        .collect();
    let connection = ["", "close", "keep-alive"][roll(12) % 3];
    if !connection.is_empty() {
        headers.push(("connection".into(), connection.into()));
    }
    let body = &body[..roll(13) % (body.len() + 1)];
    if !body.is_empty() || roll(14) % 2 == 0 {
        headers.push(("content-length".into(), body.len().to_string()));
    }
    let keep_alive = match connection {
        "close" => false,
        "keep-alive" => true,
        _ => version == "HTTP/1.1",
    };
    let target = if query.is_empty() {
        path.to_string()
    } else {
        let pairs: Vec<String> = query.iter().map(|(k, v)| format!("{k}={v}")).collect();
        format!("{path}?{}", pairs.join("&"))
    };
    let mut bytes = format!("{method} {target} {version}\r\n").into_bytes();
    for (name, value) in &headers {
        // Mixed-case names and padded values: the parser lower-cases and
        // trims them.
        bytes.extend_from_slice(format!("{}:  {value} \r\n", name.to_ascii_uppercase()).as_bytes());
    }
    bytes.extend_from_slice(b"\r\n");
    bytes.extend_from_slice(body);
    let request = Request {
        method: method.into(),
        path: path.into(),
        query,
        headers,
        body: body.to_vec(),
        keep_alive,
        recv_us: 0,
    };
    (bytes, request)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random bytes: a typed outcome, never a panic.
    #[test]
    fn arbitrary_bytes_give_a_typed_outcome(
        raw in prop::collection::vec(0u8..=255, 1..700),
        cuts in prop::collection::vec(0usize..700, 0..6),
    ) {
        let result = parse(&raw, &cuts);
        check_typed(&raw, &result)?;
    }

    /// Token strings, which reach headers, lengths and bodies: a typed
    /// outcome, never a panic.
    #[test]
    fn token_strings_give_a_typed_outcome(
        picks in prop::collection::vec(0u16..33, 0..24),
        raw in prop::collection::vec(0u8..=255, 1..16),
        cuts in prop::collection::vec(0usize..900, 0..6),
    ) {
        let bytes = token_string(&picks, &raw);
        let result = parse(&bytes, &cuts);
        check_typed(&bytes, &result)?;
    }

    /// A valid request parses to the request it was built from, whole and
    /// split at random offsets alike.
    #[test]
    fn valid_requests_parse_the_same_however_split(
        dice in prop::collection::vec(0u16..1000, 16),
        body in prop::collection::vec(0u8..=255, 0..300),
        cuts in prop::collection::vec(0usize..1200, 1..6),
    ) {
        let (bytes, want) = valid_request(&dice, &body);
        let whole = parse(&bytes, &[]).map_err(|e| TestCaseError::Fail(format!("{e:?}")))?;
        prop_assert_eq!(fields(&whole), fields(&want));
        let split = parse(&bytes, &cuts).map_err(|e| TestCaseError::Fail(format!("{e:?}")))?;
        prop_assert_eq!(fields(&split), fields(&want));
    }
}

/// One fixed request, split once at every byte boundary, parses the same
/// every time.
#[test]
fn a_request_split_at_any_byte_parses_the_same() {
    let bytes = b"POST /v1/query?trace=1&x HTTP/1.1\r\nHost: a\r\nContent-Length: 22\r\n\
                  Connection: keep-alive\r\n\r\n{\"doc\":\"d0\",\"q\":\"mss\"}";
    let whole = parse(bytes, &[]).expect("valid request");
    assert_eq!(whole.body, b"{\"doc\":\"d0\",\"q\":\"mss\"}");
    for cut in 1..bytes.len() {
        let split = parse(bytes, &[cut]).unwrap_or_else(|e| panic!("cut at {cut}: {e:?}"));
        assert_eq!(fields(&split), fields(&whole), "cut at {cut}");
    }
}
