//! A small, dependency-free HTTP/1.1 codec over blocking streams.
//!
//! Exactly the subset the tsx-server wire protocol needs: request/response
//! framing with `Content-Length` bodies (strict: conflicting duplicates
//! and non-digit values are malformed), case-insensitive headers,
//! version-aware keep-alive (HTTP/1.1 persists by default; HTTP/1.0
//! closes unless the client asks, honouring `Connection` as a token
//! list) and hard limits on header and body sizes so a misbehaving
//! client cannot balloon a worker. No
//! chunked transfer, no TLS, no pipelining — requests on one connection
//! are handled strictly in order.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::unimplemented
)]

use std::io::{self, BufRead, Write};

/// Upper bound on the request line + headers block.
pub const MAX_HEAD_BYTES: usize = 64 * 1024;

/// Default upper bound on request bodies (servers may configure less).
pub const DEFAULT_MAX_BODY_BYTES: usize = 64 * 1024 * 1024;

/// Why reading a message from a connection stopped.
#[derive(Debug)]
pub enum ReadError {
    /// The peer closed the connection cleanly between messages — the
    /// normal end of a keep-alive conversation, not an error to report.
    ConnectionClosed,
    /// The bytes on the wire are not the HTTP subset this codec speaks.
    Malformed(String),
    /// The head or body exceeded its size limit.
    TooLarge {
        /// What overflowed: `"head"` or `"body"`.
        what: &'static str,
        /// The limit that was exceeded.
        limit: usize,
    },
    /// The underlying transport failed mid-message.
    Io(io::Error),
}

impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadError::ConnectionClosed => write!(f, "connection closed"),
            ReadError::Malformed(m) => write!(f, "malformed message: {m}"),
            ReadError::TooLarge { what, limit } => {
                write!(f, "{what} exceeds the {limit}-byte limit")
            }
            ReadError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl From<io::Error> for ReadError {
    fn from(e: io::Error) -> Self {
        ReadError::Io(e)
    }
}

/// The HTTP minor version of a parsed message — it decides the
/// keep-alive *default* when no `Connection` header says otherwise.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Version {
    /// `HTTP/1.0`: close by default, keep-alive only on request.
    Http10,
    /// `HTTP/1.1` (and any later 1.x): keep-alive by default.
    Http11,
}

/// One parsed HTTP request.
#[derive(Debug)]
pub struct Request {
    /// Upper-cased method (`GET`, `POST`, `DELETE`, …).
    pub method: String,
    /// The path component, query string stripped.
    pub path: String,
    /// The raw query string (after `?`), empty when absent.
    pub query: String,
    /// The protocol version on the request line.
    pub version: Version,
    /// Headers in arrival order, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// The raw body (`Content-Length` bytes).
    pub body: Vec<u8>,
}

impl Request {
    /// The first header named `name` (lower-case), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the connection must drop after this exchange.
    ///
    /// `Connection` is a comma-separated token list, so `keep-alive,
    /// close` closes (any `close` token wins). Without a decisive token
    /// the protocol version's default applies: HTTP/1.1 persists,
    /// HTTP/1.0 closes — a 1.0 client that never asked for keep-alive is
    /// waiting for EOF to delimit the body, and holding the connection
    /// open would hang it.
    pub fn wants_close(&self) -> bool {
        let mut keep_alive_token = false;
        if let Some(value) = self.header("connection") {
            for token in value.split(',') {
                let token = token.trim();
                if token.eq_ignore_ascii_case("close") {
                    return true;
                }
                if token.eq_ignore_ascii_case("keep-alive") {
                    keep_alive_token = true;
                }
            }
        }
        match self.version {
            Version::Http11 => false,
            Version::Http10 => !keep_alive_token,
        }
    }

    /// The value of query parameter `name`, if present (`a=1&b=2` form;
    /// no percent-decoding — tsx-server's parameters are plain tokens).
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=')?;
            (k == name).then_some(v)
        })
    }
}

/// Reads one request from a buffered connection.
pub fn read_request<R: BufRead>(reader: &mut R, max_body: usize) -> Result<Request, ReadError> {
    let mut lines = read_head(reader)?;
    let request_line = lines.remove(0);
    let mut parts = request_line.split_whitespace();
    let (Some(method), Some(target), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Err(ReadError::Malformed(format!(
            "bad request line {request_line:?}"
        )));
    };
    if !version.starts_with("HTTP/1.") {
        return Err(ReadError::Malformed(format!("bad version {version:?}")));
    }
    let version = if version == "HTTP/1.0" {
        Version::Http10
    } else {
        Version::Http11
    };
    let headers = parse_headers(&lines)?;
    let content_length = content_length(&headers)?;
    if content_length > max_body {
        // Drain nothing: the caller answers 413 and closes the connection.
        return Err(ReadError::TooLarge {
            what: "body",
            limit: max_body,
        });
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };
    Ok(Request {
        method: method.to_ascii_uppercase(),
        path,
        query,
        version,
        headers,
        body,
    })
}

/// One HTTP response about to be written (or just parsed by a client).
#[derive(Debug)]
pub struct Response {
    /// The status code.
    pub status: u16,
    /// The `content-type` written with the body (JSON for every
    /// tsx-server endpoint except the Prometheus exposition). On a
    /// client-parsed response this is the *received* `content-type`
    /// header, whatever it said — not an assumption.
    pub content_type: String,
    /// Extra headers (lower-cased names), e.g. `x-request-id`. On a
    /// client-parsed response this holds every received header.
    pub headers: Vec<(String, String)>,
    /// The body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response from already-encoded text.
    pub fn json(status: u16, body: String) -> Self {
        Response {
            status,
            content_type: "application/json".into(),
            headers: Vec::new(),
            body: body.into_bytes(),
        }
    }

    /// A plain-text response (the Prometheus exposition format).
    pub fn text(status: u16, body: String) -> Self {
        Response {
            status,
            content_type: "text/plain; version=0.0.4".into(),
            headers: Vec::new(),
            body: body.into_bytes(),
        }
    }

    /// The first header named `name` (lower-case), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Writes the response, flagging whether the connection stays open.
    pub fn write_to<W: Write>(&self, writer: &mut W, keep_alive: bool) -> io::Result<()> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: {}\r\n",
            self.status,
            reason(self.status),
            self.content_type,
            self.body.len(),
            if keep_alive { "keep-alive" } else { "close" },
        );
        for (name, value) in &self.headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        writer.write_all(head.as_bytes())?;
        writer.write_all(&self.body)?;
        writer.flush()
    }
}

/// Reads one response from a buffered connection (the client half).
pub fn read_response<R: BufRead>(reader: &mut R) -> Result<Response, ReadError> {
    let mut lines = read_head(reader)?;
    let status_line = lines.remove(0);
    let mut parts = status_line.split_whitespace();
    let (Some(version), Some(code)) = (parts.next(), parts.next()) else {
        return Err(ReadError::Malformed(format!(
            "bad status line {status_line:?}"
        )));
    };
    if !version.starts_with("HTTP/1.") {
        return Err(ReadError::Malformed(format!("bad version {version:?}")));
    }
    let status: u16 = code
        .parse()
        .map_err(|_| ReadError::Malformed(format!("bad status code {code:?}")))?;
    let headers = parse_headers(&lines)?;
    let mut body = vec![0u8; content_length(&headers)?];
    reader.read_exact(&mut body)?;
    // The parsed response reports what the server *sent* — hardcoding
    // JSON here would mislabel the Prometheus text exposition.
    let content_type = headers
        .iter()
        .find(|(n, _)| n == "content-type")
        .map(|(_, v)| v.clone())
        .unwrap_or_default();
    Ok(Response {
        status,
        content_type,
        headers,
        body,
    })
}

/// Reads the head block (request/status line + headers) as trimmed lines.
fn read_head<R: BufRead>(reader: &mut R) -> Result<Vec<String>, ReadError> {
    use std::io::Read;
    let mut lines = Vec::new();
    let mut total = 0usize;
    loop {
        let mut raw = Vec::new();
        // Cap the read *inside* the line: a peer streaming newline-free
        // bytes must hit the head limit, not balloon this buffer.
        let n = reader
            .by_ref()
            .take((MAX_HEAD_BYTES + 1 - total) as u64)
            .read_until(b'\n', &mut raw)?;
        if n == 0 {
            return if lines.is_empty() && total == 0 {
                Err(ReadError::ConnectionClosed)
            } else {
                Err(ReadError::Malformed("truncated head".into()))
            };
        }
        total += n;
        if total > MAX_HEAD_BYTES {
            return Err(ReadError::TooLarge {
                what: "head",
                limit: MAX_HEAD_BYTES,
            });
        }
        let line =
            String::from_utf8(raw).map_err(|_| ReadError::Malformed("non-UTF-8 head".into()))?;
        let line = line.trim_end_matches(['\r', '\n']);
        if line.is_empty() {
            if lines.is_empty() {
                // Tolerate stray blank lines before the request line.
                continue;
            }
            return Ok(lines);
        }
        lines.push(line.to_string());
    }
}

fn parse_headers(lines: &[String]) -> Result<Vec<(String, String)>, ReadError> {
    lines
        .iter()
        .map(|line| {
            let (name, value) = line
                .split_once(':')
                .ok_or_else(|| ReadError::Malformed(format!("bad header {line:?}")))?;
            Ok((name.trim().to_ascii_lowercase(), value.trim().to_string()))
        })
        .collect()
}

/// The body length the headers declare. Strict by design — this is the
/// request-smuggling surface: conflicting duplicate `Content-Length`
/// headers are rejected outright (two values means two different framings
/// of the same byte stream), and the value must be plain ASCII digits —
/// `+5` parses fine as a Rust `usize` but is not a valid HTTP length, and
/// a front-end that reads it differently would de-sync from us.
fn content_length(headers: &[(String, String)]) -> Result<usize, ReadError> {
    let mut declared: Option<usize> = None;
    for (_, v) in headers.iter().filter(|(n, _)| n == "content-length") {
        if v.is_empty() || !v.bytes().all(|b| b.is_ascii_digit()) {
            return Err(ReadError::Malformed(format!("bad content-length {v:?}")));
        }
        let parsed: usize = v
            .parse()
            .map_err(|_| ReadError::Malformed(format!("bad content-length {v:?}")))?;
        match declared {
            None => declared = Some(parsed),
            Some(prev) if prev == parsed => {}
            Some(prev) => {
                return Err(ReadError::Malformed(format!(
                    "conflicting content-length headers ({prev} vs {parsed})"
                )))
            }
        }
    }
    Ok(declared.unwrap_or(0))
}

/// The canonical reason phrase for the status codes tsx-server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(text: &str) -> Result<Request, ReadError> {
        read_request(&mut BufReader::new(text.as_bytes()), DEFAULT_MAX_BODY_BYTES)
    }

    #[test]
    fn parses_a_post_with_body() {
        let req = parse(
            "POST /datasets/7/explain HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\n{\"a\"",
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/datasets/7/explain");
        assert_eq!(req.body, b"{\"a\"");
        assert_eq!(req.header("host"), Some("x"));
        assert!(!req.wants_close());
    }

    #[test]
    fn strips_query_strings_and_honours_connection_close() {
        let req = parse("GET /metrics?verbose=1 HTTP/1.1\r\nConnection: Close\r\n\r\n").unwrap();
        assert_eq!(req.path, "/metrics");
        assert_eq!(req.query, "verbose=1");
        assert!(req.wants_close());
    }

    #[test]
    fn query_params_are_addressable_by_name() {
        let req = parse("GET /metrics?format=prometheus&x=1 HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.query_param("format"), Some("prometheus"));
        assert_eq!(req.query_param("x"), Some("1"));
        assert_eq!(req.query_param("missing"), None);
        let bare = parse("GET /metrics HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(bare.query, "");
        assert_eq!(bare.query_param("format"), None);
    }

    #[test]
    fn http10_defaults_to_close_and_keep_alive_must_be_asked_for() {
        // No Connection header: a 1.0 client waits for EOF — close.
        let req = parse("GET /healthz HTTP/1.0\r\n\r\n").unwrap();
        assert_eq!(req.version, Version::Http10);
        assert!(req.wants_close(), "HTTP/1.0 without Connection must close");
        // Explicit keep-alive: honour it.
        let req = parse("GET /healthz HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n").unwrap();
        assert!(!req.wants_close());
        // HTTP/1.1 stays keep-alive by default.
        let req = parse("GET /healthz HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.version, Version::Http11);
        assert!(!req.wants_close());
    }

    #[test]
    fn connection_header_is_a_token_list_and_close_wins() {
        // `keep-alive, close` must not slip through as keep-alive.
        let req = parse("GET / HTTP/1.1\r\nConnection: keep-alive, close\r\n\r\n").unwrap();
        assert!(req.wants_close());
        let req = parse("GET / HTTP/1.1\r\nConnection: Close , TE\r\n\r\n").unwrap();
        assert!(req.wants_close());
        // Unrelated tokens alone fall back to the version default.
        let req = parse("GET / HTTP/1.1\r\nConnection: upgrade\r\n\r\n").unwrap();
        assert!(!req.wants_close());
        let req = parse("GET / HTTP/1.0\r\nConnection: upgrade\r\n\r\n").unwrap();
        assert!(req.wants_close());
        let req = parse("GET / HTTP/1.0\r\nConnection: TE, keep-alive\r\n\r\n").unwrap();
        assert!(!req.wants_close());
    }

    #[test]
    fn conflicting_duplicate_content_lengths_are_malformed() {
        // Two different framings of one byte stream — the smuggling shape.
        let e = parse("POST / HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 10\r\n\r\nbody")
            .unwrap_err();
        assert!(matches!(e, ReadError::Malformed(_)), "{e}");
        // Identical duplicates agree on the framing and still parse.
        let req =
            parse("POST / HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 4\r\n\r\nbody").unwrap();
        assert_eq!(req.body, b"body");
    }

    #[test]
    fn content_length_must_be_plain_digits() {
        // `+4` parses as a Rust usize but is not a valid HTTP length.
        for bad in ["+4", "-4", " 4x", "4 4", "0x10", ""] {
            let e = parse(&format!(
                "POST / HTTP/1.1\r\nContent-Length:{bad}\r\n\r\nbody"
            ))
            .unwrap_err();
            assert!(
                matches!(e, ReadError::Malformed(_)),
                "{bad:?} must be rejected"
            );
        }
        let req = parse("POST / HTTP/1.1\r\nContent-Length: 004\r\n\r\nbody").unwrap();
        assert_eq!(req.body, b"body");
    }

    #[test]
    fn a_stalled_reader_is_disconnected_by_the_write_timeout() {
        // The worker write path sets `set_write_timeout` on every accepted
        // socket: a client that requests a response and then stops
        // draining its socket must cost the server one bounded write
        // error, not a wedged worker. Exercised here at the write-path
        // level: once the kernel buffers fill, `write_to` must return Err
        // instead of blocking forever.
        use std::net::TcpListener;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::net::TcpStream::connect(addr).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        server_side
            .set_write_timeout(Some(std::time::Duration::from_millis(50)))
            .unwrap();
        // Big enough to overrun both peers' socket buffers while the
        // client (deliberately) never reads a byte.
        let response = Response::json(200, "x".repeat(16 * 1024 * 1024));
        let started = std::time::Instant::now();
        let err = response
            .write_to(&mut (&server_side), false)
            .expect_err("write against a stalled reader must time out");
        assert!(
            matches!(
                err.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ),
            "unexpected error kind: {err:?}"
        );
        assert!(
            started.elapsed() < std::time::Duration::from_secs(10),
            "the stalled write must fail fast, not hang"
        );
        drop(client);
    }

    #[test]
    fn parsed_responses_report_the_received_content_type() {
        // A text/plain body (the Prometheus exposition) must not come
        // back labelled application/json.
        let mut wire = Vec::new();
        Response::text(200, "tsx_requests_total 1\n".into())
            .write_to(&mut wire, true)
            .unwrap();
        let back = read_response(&mut BufReader::new(wire.as_slice())).unwrap();
        assert_eq!(back.content_type, "text/plain; version=0.0.4");
        let mut wire = Vec::new();
        Response::json(200, "{}".into())
            .write_to(&mut wire, true)
            .unwrap();
        let back = read_response(&mut BufReader::new(wire.as_slice())).unwrap();
        assert_eq!(back.content_type, "application/json");
    }

    #[test]
    fn clean_eof_is_connection_closed() {
        assert!(matches!(parse(""), Err(ReadError::ConnectionClosed)));
        assert!(matches!(
            parse("GET / HTTP/1.1\r\n"),
            Err(ReadError::Malformed(_))
        ));
    }

    #[test]
    fn oversized_bodies_are_rejected_upfront() {
        let e = read_request(
            &mut BufReader::new("POST / HTTP/1.1\r\nContent-Length: 100\r\n\r\n".as_bytes()),
            10,
        )
        .unwrap_err();
        assert!(matches!(e, ReadError::TooLarge { what: "body", .. }));
    }

    #[test]
    fn newline_free_floods_hit_the_head_limit_not_memory() {
        // A head with no \n at all must be cut off at MAX_HEAD_BYTES, not
        // buffered indefinitely.
        let flood = "x".repeat(MAX_HEAD_BYTES * 4);
        let e = parse(&flood).unwrap_err();
        assert!(matches!(e, ReadError::TooLarge { what: "head", .. }), "{e}");
    }

    #[test]
    fn responses_roundtrip_through_the_codec() {
        let mut wire = Vec::new();
        Response::json(201, "{\"ok\":true}".into())
            .write_to(&mut wire, true)
            .unwrap();
        let back = read_response(&mut BufReader::new(wire.as_slice())).unwrap();
        assert_eq!(back.status, 201);
        assert_eq!(back.body, b"{\"ok\":true}");
        assert_eq!(back.header("content-type"), Some("application/json"));
    }

    #[test]
    fn extra_response_headers_survive_the_roundtrip() {
        let mut response = Response::text(200, "tsx_requests_total 1\n".into());
        response
            .headers
            .push(("x-request-id".into(), "tsx-42".into()));
        let mut wire = Vec::new();
        response.write_to(&mut wire, false).unwrap();
        let back = read_response(&mut BufReader::new(wire.as_slice())).unwrap();
        assert_eq!(back.header("x-request-id"), Some("tsx-42"));
        assert_eq!(
            back.header("content-type"),
            Some("text/plain; version=0.0.4")
        );
        assert_eq!(back.body, b"tsx_requests_total 1\n");
    }

    #[test]
    fn garbage_is_malformed_not_a_panic() {
        assert!(matches!(
            parse("NOT-HTTP\r\n\r\n"),
            Err(ReadError::Malformed(_))
        ));
        assert!(matches!(
            parse("GET / SPDY/3\r\n\r\n"),
            Err(ReadError::Malformed(_))
        ));
        assert!(matches!(
            parse("GET / HTTP/1.1\r\nno-colon-here\r\n\r\n"),
            Err(ReadError::Malformed(_))
        ));
    }
}
