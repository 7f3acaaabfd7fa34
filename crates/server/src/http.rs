//! A minimal HTTP/1.1 request/response layer over `std::io`.
//!
//! The build environment has no registry access, so this is the smallest
//! honest subset of RFC 7230 the service needs: request line, headers,
//! `Content-Length` bodies, keep-alive, and hard limits (header and body
//! size) that fail as typed errors instead of unbounded allocation.
//! `Transfer-Encoding: chunked` is deliberately not implemented and is
//! rejected up front.

use std::io::{self, BufRead, Write};
use std::sync::Arc;

/// Maximum bytes accepted for the request line plus all headers.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// A parsed HTTP request.
#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    /// Upper-case method (`GET`, `POST`, `DELETE`, ...).
    pub method: String,
    /// The path, query string stripped.
    pub path: String,
    /// The raw query string (the part after `?`, without the `?`), when
    /// the request target carried one.
    pub query: Option<String>,
    /// Header `(name, value)` pairs; names lower-cased.
    pub headers: Vec<(String, String)>,
    /// The body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
    /// Whether the connection should stay open after the response.
    pub keep_alive: bool,
}

impl Request {
    /// First value of a header, by lower-case name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// First value of a query parameter, by exact name. Parameters are
    /// `&`-separated `name=value` pairs; no percent-decoding is applied
    /// (the service's parameters — digests, flags — are plain
    /// token characters). A bare `name` with no `=` yields `Some("")`.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query.as_deref()?.split('&').find_map(|pair| {
            let (n, v) = pair.split_once('=').unwrap_or((pair, ""));
            (n == name).then_some(v)
        })
    }
}

/// Why a request could not be read.
#[derive(Clone, Debug, PartialEq)]
pub enum HttpError {
    /// The connection closed cleanly before a request started.
    Closed,
    /// The bytes on the wire are not a well-formed HTTP/1.x request.
    BadRequest(String),
    /// The declared body exceeds the configured limit.
    PayloadTooLarge {
        /// The configured maximum body size in bytes.
        limit: usize,
        /// The declared `Content-Length`.
        declared: usize,
    },
    /// The socket failed mid-request.
    Io(String),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Closed => write!(f, "connection closed"),
            HttpError::BadRequest(msg) => write!(f, "bad request: {msg}"),
            HttpError::PayloadTooLarge { limit, declared } => {
                write!(f, "body of {declared} bytes exceeds the {limit}-byte limit")
            }
            HttpError::Io(msg) => write!(f, "i/o error: {msg}"),
        }
    }
}

impl std::error::Error for HttpError {}

/// Reads one request, enforcing [`MAX_HEAD_BYTES`], `max_body`, and an
/// optional wall-clock `deadline` for the *whole* request (checked
/// between reads — a per-read socket timeout alone does not bound a
/// client trickling one byte per timeout window).
///
/// A request carrying `Expect: 100-continue` whose declared body fits
/// `max_body` gets the interim `HTTP/1.1 100 Continue` on `interim`
/// before its body is read, so clients that wait for it (stock curl on
/// large uploads) send at once instead of after their own timeout. An
/// oversized declaration still fails with
/// [`HttpError::PayloadTooLarge`] before any body byte is read.
///
/// Returns [`HttpError::Closed`] when the peer closed the connection
/// between requests (the normal end of a keep-alive session).
pub fn read_request(
    reader: &mut impl BufRead,
    interim: &mut impl Write,
    max_body: usize,
    deadline: Option<std::time::Instant>,
) -> Result<Request, HttpError> {
    let mut head_bytes = 0usize;
    let request_line = match read_line(reader, &mut head_bytes, deadline)? {
        None => return Err(HttpError::Closed),
        Some(line) if line.is_empty() => return Err(HttpError::BadRequest("empty request".into())),
        Some(line) => line,
    };
    let mut parts = request_line.split(' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty())
        .ok_or_else(|| HttpError::BadRequest("missing method".into()))?
        .to_string();
    let target = parts
        .next()
        .ok_or_else(|| HttpError::BadRequest("missing request target".into()))?;
    let version = parts
        .next()
        .ok_or_else(|| HttpError::BadRequest("missing HTTP version".into()))?;
    if parts.next().is_some() {
        return Err(HttpError::BadRequest("malformed request line".into()));
    }
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(HttpError::BadRequest(format!(
            "unsupported version {version}"
        )));
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), Some(q.to_string())),
        None => (target.to_string(), None),
    };
    if !path.starts_with('/') {
        return Err(HttpError::BadRequest(format!(
            "bad request target {target:?}"
        )));
    }

    let mut headers = Vec::new();
    loop {
        let line = read_line(reader, &mut head_bytes, deadline)?
            .ok_or_else(|| HttpError::BadRequest("connection closed inside headers".into()))?;
        if line.is_empty() {
            break;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::BadRequest(format!("malformed header {line:?}")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let mut request = Request {
        method,
        path,
        query,
        headers,
        body: Vec::new(),
        keep_alive: version == "HTTP/1.1",
    };
    match request.header("connection").map(str::to_ascii_lowercase) {
        Some(c) if c == "close" => request.keep_alive = false,
        Some(c) if c == "keep-alive" => request.keep_alive = true,
        _ => {}
    }
    if request.header("transfer-encoding").is_some() {
        return Err(HttpError::BadRequest(
            "transfer-encoding is not supported; send Content-Length".into(),
        ));
    }
    if let Some(raw) = request.header("content-length") {
        let declared: usize = raw
            .parse()
            .map_err(|_| HttpError::BadRequest(format!("bad Content-Length {raw:?}")))?;
        if declared > max_body {
            return Err(HttpError::PayloadTooLarge {
                limit: max_body,
                declared,
            });
        }
        let expects_continue = request
            .header("expect")
            .is_some_and(|e| e.eq_ignore_ascii_case("100-continue"));
        // HTTP/1.0 clients never wait for it (RFC 7231 §5.1.1).
        if expects_continue && declared > 0 && version == "HTTP/1.1" {
            interim
                .write_all(b"HTTP/1.1 100 Continue\r\n\r\n")
                .and_then(|()| interim.flush())
                .map_err(|e| HttpError::Io(e.to_string()))?;
        }
        // Read the body in chunks so the deadline is enforced even
        // against a sender trickling bytes (read_exact would reset the
        // per-read socket timeout on every byte).
        let mut body = vec![0u8; declared];
        let mut filled = 0usize;
        while filled < declared {
            check_deadline(deadline)?;
            let chunk = (declared - filled).min(64 * 1024);
            reader
                .read_exact(&mut body[filled..filled + chunk])
                .map_err(|e| HttpError::Io(e.to_string()))?;
            filled += chunk;
        }
        request.body = body;
    }
    Ok(request)
}

fn check_deadline(deadline: Option<std::time::Instant>) -> Result<(), HttpError> {
    match deadline {
        Some(d) if std::time::Instant::now() > d => {
            Err(HttpError::Io("request deadline exceeded".into()))
        }
        _ => Ok(()),
    }
}

/// Reads and discards up to `limit` pending body bytes, so an error
/// response written before consuming the body is not torn down by a TCP
/// reset on close (closing with unread data in the receive queue RSTs).
pub fn drain_body(reader: &mut impl BufRead, limit: usize) {
    let mut remaining = limit;
    while remaining > 0 {
        match reader.fill_buf() {
            Ok([]) | Err(_) => return,
            Ok(buf) => {
                let n = buf.len().min(remaining);
                reader.consume(n);
                remaining -= n;
            }
        }
    }
}

/// Reads one CRLF- (or LF-) terminated line, counting bytes against
/// [`MAX_HEAD_BYTES`]. `None` means EOF before any byte of the line.
fn read_line(
    reader: &mut impl BufRead,
    head_bytes: &mut usize,
    deadline: Option<std::time::Instant>,
) -> Result<Option<String>, HttpError> {
    let mut line = Vec::new();
    loop {
        check_deadline(deadline)?;
        let buf = reader
            .fill_buf()
            .map_err(|e| HttpError::Io(e.to_string()))?;
        if buf.is_empty() {
            if line.is_empty() {
                return Ok(None);
            }
            return Err(HttpError::BadRequest("truncated header line".into()));
        }
        let (chunk, done) = match buf.iter().position(|&b| b == b'\n') {
            Some(i) => (i + 1, true),
            None => (buf.len(), false),
        };
        line.extend_from_slice(&buf[..chunk]);
        reader.consume(chunk);
        *head_bytes += chunk;
        if *head_bytes > MAX_HEAD_BYTES {
            return Err(HttpError::BadRequest(format!(
                "headers exceed {MAX_HEAD_BYTES} bytes"
            )));
        }
        if done {
            while matches!(line.last(), Some(b'\n' | b'\r')) {
                line.pop();
            }
            let text = String::from_utf8(line)
                .map_err(|_| HttpError::BadRequest("non-utf8 header bytes".into()))?;
            return Ok(Some(text));
        }
    }
}

/// A response ready to serialize.
#[derive(Clone, Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Response body (always JSON in this service). Shared, so text a
    /// handler already holds (a cache hit's stored body) is written
    /// without a copy.
    pub body: Arc<str>,
    /// Extra headers beyond the standard set (`Retry-After`, ...).
    pub headers: Vec<(&'static str, String)>,
}

impl Response {
    /// A JSON response with the given status.
    pub fn json(status: u16, body: impl Into<Arc<str>>) -> Self {
        Response {
            status,
            body: body.into(),
            headers: Vec::new(),
        }
    }

    /// Adds a header to the response.
    pub fn with_header(mut self, name: &'static str, value: impl Into<String>) -> Self {
        self.headers.push((name, value.into()));
        self
    }
}

/// The reason phrase for every status this service emits.
pub fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        502 => "Bad Gateway",
        422 => "Unprocessable Entity",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Serializes a response, honoring keep-alive.
pub fn write_response(
    writer: &mut impl Write,
    response: &Response,
    keep_alive: bool,
) -> io::Result<()> {
    write!(
        writer,
        "HTTP/1.1 {} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {}\r\n",
        response.status,
        status_text(response.status),
        response.body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    )?;
    for (name, value) in &response.headers {
        write!(writer, "{name}: {value}\r\n")?;
    }
    writer.write_all(b"\r\n")?;
    writer.write_all(response.body.as_bytes())?;
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &str, max_body: usize) -> Result<Request, HttpError> {
        read_request(
            &mut BufReader::new(raw.as_bytes()),
            &mut io::sink(),
            max_body,
            None,
        )
    }

    #[test]
    fn parses_a_full_request() {
        let r = parse(
            "POST /instances HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nbody",
            1024,
        )
        .unwrap();
        assert_eq!(r.method, "POST");
        assert_eq!(r.path, "/instances");
        assert_eq!(r.header("host"), Some("x"));
        assert_eq!(r.body, b"body");
        assert!(r.keep_alive);
    }

    #[test]
    fn query_strings_are_stripped_and_connection_close_honored() {
        let r = parse(
            "GET /metrics?verbose=1 HTTP/1.1\r\nConnection: close\r\n\r\n",
            1024,
        )
        .unwrap();
        assert_eq!(r.path, "/metrics");
        assert_eq!(r.query.as_deref(), Some("verbose=1"));
        assert_eq!(r.query_param("verbose"), Some("1"));
        assert_eq!(r.query_param("missing"), None);
        assert!(!r.keep_alive);
        // HTTP/1.0 defaults to close.
        let r = parse("GET / HTTP/1.0\r\n\r\n", 1024).unwrap();
        assert!(!r.keep_alive);
        assert_eq!(r.query, None);
    }

    #[test]
    fn query_params_split_on_ampersands_and_tolerate_bare_names() {
        let r = parse(
            "POST /instances/i1/solve?base=00ff&cache=0&flag HTTP/1.1\r\n\r\n",
            1024,
        )
        .unwrap();
        assert_eq!(r.path, "/instances/i1/solve");
        assert_eq!(r.query_param("base"), Some("00ff"));
        assert_eq!(r.query_param("cache"), Some("0"));
        assert_eq!(r.query_param("flag"), Some(""));
        assert_eq!(r.query_param("bas"), None);
    }

    #[test]
    fn rejects_garbage_and_oversize() {
        assert!(matches!(
            parse("nonsense\r\n\r\n", 1024),
            Err(HttpError::BadRequest(_))
        ));
        assert!(matches!(
            parse("GET / HTTP/2\r\n\r\n", 1024),
            Err(HttpError::BadRequest(_))
        ));
        assert!(matches!(
            parse("GET / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n", 1024),
            Err(HttpError::BadRequest(_))
        ));
        assert_eq!(
            parse("POST / HTTP/1.1\r\nContent-Length: 99\r\n\r\n", 10),
            Err(HttpError::PayloadTooLarge {
                limit: 10,
                declared: 99
            })
        );
        assert_eq!(parse("", 10), Err(HttpError::Closed));
    }

    #[test]
    fn bare_lf_line_endings_are_tolerated() {
        let r = parse("GET /healthz HTTP/1.1\nHost: y\n\n", 1024).unwrap();
        assert_eq!(r.path, "/healthz");
        assert_eq!(r.header("host"), Some("y"));
    }

    #[test]
    fn expired_deadline_aborts_the_read() {
        let past = std::time::Instant::now() - std::time::Duration::from_secs(1);
        let result = read_request(
            &mut BufReader::new("GET / HTTP/1.1\r\n\r\n".as_bytes()),
            &mut io::sink(),
            1024,
            Some(past),
        );
        assert!(matches!(result, Err(HttpError::Io(_))));
    }

    #[test]
    fn expect_continue_is_answered_before_the_body_and_only_when_it_fits() {
        let raw =
            "POST /instances HTTP/1.1\r\nExpect: 100-Continue\r\nContent-Length: 4\r\n\r\nbody";
        let mut interim = Vec::new();
        let r = read_request(
            &mut BufReader::new(raw.as_bytes()),
            &mut interim,
            1024,
            None,
        )
        .unwrap();
        assert_eq!(r.body, b"body");
        assert_eq!(interim, b"HTTP/1.1 100 Continue\r\n\r\n");
        // Oversized: the typed 413 error, and no interim line.
        let mut interim = Vec::new();
        let raw = "POST / HTTP/1.1\r\nExpect: 100-continue\r\nContent-Length: 99\r\n\r\n";
        let err = read_request(&mut BufReader::new(raw.as_bytes()), &mut interim, 10, None);
        assert!(matches!(err, Err(HttpError::PayloadTooLarge { .. })));
        assert!(interim.is_empty());
        // No expectation, no interim line.
        let mut interim = Vec::new();
        let raw = "POST / HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}";
        read_request(&mut BufReader::new(raw.as_bytes()), &mut interim, 10, None).unwrap();
        assert!(interim.is_empty());
    }

    #[test]
    fn drain_body_consumes_up_to_limit() {
        let mut reader = BufReader::new("abcdefgh".as_bytes());
        drain_body(&mut reader, 5);
        let mut rest = String::new();
        std::io::Read::read_to_string(&mut reader, &mut rest).unwrap();
        assert_eq!(rest, "fgh");
    }

    #[test]
    fn response_serializes_with_length() {
        let mut out = Vec::new();
        write_response(&mut out, &Response::json(200, "{}"), false).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }

    #[test]
    fn extra_headers_land_in_the_head() {
        let mut out = Vec::new();
        let response = Response::json(503, "{}").with_header("Retry-After", "1");
        write_response(&mut out, &response, true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(text.contains("Retry-After: 1\r\n"));
        // Headers stay inside the head: the blank line still separates.
        assert!(text.ends_with("\r\n\r\n{}"));
    }
}
