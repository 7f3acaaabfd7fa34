//! A thin blocking HTTP client: the CLI's `ukc client`, the integration
//! tests, the throughput bench, and — most importantly — the cluster
//! coordinator's shard calls all go through this module, so the client
//! exercises the same wire format the server speaks (one request per
//! call; `Connection: close` unless a [`ClientConn`] keep-alive session
//! is used).
//!
//! [`ClientOptions`] adds the failure-domain knobs a coordinator needs:
//! a connect/read/write timeout (the OS default lets a dead peer hang a
//! request for minutes) and bounded retries with exponential backoff on
//! *connect* failure — connect failures are the one class that is safe
//! to retry blindly, because nothing reached the peer.

use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// A parsed response: status code, headers, and body text.
#[derive(Clone, Debug)]
pub struct HttpResponse {
    /// The HTTP status code.
    pub status: u16,
    /// Response headers, in wire order (names lower-cased).
    pub headers: Vec<(String, String)>,
    /// The response body.
    pub body: String,
}

impl HttpResponse {
    /// Whether the status is 2xx.
    pub fn is_success(&self) -> bool {
        (200..300).contains(&self.status)
    }

    /// The first header with the given (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// Transport tunables for one logical request.
#[derive(Clone, Debug)]
pub struct ClientOptions {
    /// Connect + read + write timeout per attempt. `None` (the default)
    /// leaves the OS defaults in place — today's CLI behavior.
    pub timeout: Option<Duration>,
    /// Extra attempts after a failed *connect* (0 = a single attempt).
    pub retries: u32,
    /// Backoff before the first retry; doubles each further retry.
    pub backoff: Duration,
}

impl Default for ClientOptions {
    fn default() -> Self {
        ClientOptions {
            timeout: None,
            retries: 0,
            backoff: Duration::from_millis(100),
        }
    }
}

fn io_err(msg: impl Into<String>) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.into())
}

/// Performs one request over a fresh connection with default options.
pub fn request(
    addr: impl ToSocketAddrs,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> std::io::Result<HttpResponse> {
    request_with(addr, method, path, body, &ClientOptions::default())
}

/// Performs one request over a fresh connection, honoring `options`:
/// every socket operation is bounded by `options.timeout`, and a failed
/// connect is retried `options.retries` times with exponential backoff
/// (`backoff`, `2·backoff`, `4·backoff`, ...).
pub fn request_with(
    addr: impl ToSocketAddrs,
    method: &str,
    path: &str,
    body: Option<&str>,
    options: &ClientOptions,
) -> std::io::Result<HttpResponse> {
    let stream = connect_with(addr, options)?;
    if let Some(timeout) = options.timeout {
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
    }
    send_request(&stream, method, path, body, false)?;
    let mut reader = BufReader::new(stream);
    read_response(&mut reader)
}

/// Connects with per-attempt timeout and bounded exponential-backoff
/// retries on connect failure.
fn connect_with(addr: impl ToSocketAddrs, options: &ClientOptions) -> std::io::Result<TcpStream> {
    let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
    if addrs.is_empty() {
        return Err(io_err("address resolved to nothing"));
    }
    let mut last_err = None;
    for attempt in 0..=options.retries {
        if attempt > 0 {
            // 100ms, 200ms, 400ms, ... — capped at 2^attempt-1 doublings.
            let backoff = options.backoff * (1u32 << (attempt - 1).min(16));
            std::thread::sleep(backoff);
        }
        for sa in &addrs {
            let attempt_result = match options.timeout {
                Some(timeout) => TcpStream::connect_timeout(sa, timeout),
                None => TcpStream::connect(sa),
            };
            match attempt_result {
                Ok(stream) => return Ok(stream),
                Err(e) => last_err = Some(e),
            }
        }
    }
    Err(last_err.unwrap_or_else(|| io_err("connect failed")))
}

/// A keep-alive session: many requests over one connection (what the
/// throughput bench uses, so connection setup does not dominate).
pub struct ClientConn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl ClientConn {
    /// Connects with default options.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        Self::connect_with(addr, &ClientOptions::default())
    }

    /// Connects honoring `options` (timeout + connect retries).
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        options: &ClientOptions,
    ) -> std::io::Result<Self> {
        let stream = connect_with(addr, options)?;
        stream.set_nodelay(true)?;
        if let Some(timeout) = options.timeout {
            stream.set_read_timeout(Some(timeout))?;
            stream.set_write_timeout(Some(timeout))?;
        }
        let reader = BufReader::new(stream.try_clone()?);
        Ok(ClientConn { stream, reader })
    }

    /// Performs one request on the open connection.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> std::io::Result<HttpResponse> {
        send_request(&self.stream, method, path, body, true)?;
        read_response(&mut self.reader)
    }
}

fn send_request(
    mut stream: &TcpStream,
    method: &str,
    path: &str,
    body: Option<&str>,
    keep_alive: bool,
) -> std::io::Result<()> {
    let body = body.unwrap_or("");
    // One write for the whole request: `write!` on an unbuffered stream
    // issues a syscall (and on loopback a segment) per formatted piece,
    // and a peer that answers after its first read would then close on
    // unread bytes and reset the connection.
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: ukc\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n{body}",
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    stream.write_all(request.as_bytes())?;
    stream.flush()
}

fn read_response(reader: &mut BufReader<TcpStream>) -> std::io::Result<HttpResponse> {
    let status_line = read_line(reader)?;
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io_err(format!("bad status line {status_line:?}")))?;
    let mut headers = Vec::new();
    let mut content_length: Option<usize> = None;
    loop {
        let line = read_line(reader)?;
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            let name = name.trim().to_ascii_lowercase();
            let value = value.trim().to_string();
            if name == "content-length" {
                content_length = value.parse().ok();
            }
            headers.push((name, value));
        }
    }
    let mut body = match content_length {
        Some(len) => {
            let mut buf = vec![0u8; len];
            reader.read_exact(&mut buf)?;
            buf
        }
        None => {
            let mut buf = Vec::new();
            reader.read_to_end(&mut buf)?;
            buf
        }
    };
    // Tolerate a stray trailing CRLF from read_to_end on close.
    while matches!(body.last(), Some(b'\r' | b'\n')) && content_length.is_none() {
        body.pop();
    }
    Ok(HttpResponse {
        status,
        headers,
        body: String::from_utf8(body).map_err(|_| io_err("non-utf8 response body"))?,
    })
}

fn read_line(reader: &mut BufReader<TcpStream>) -> std::io::Result<String> {
    let mut line = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        match reader.read(&mut byte)? {
            0 => break,
            _ => {
                if byte[0] == b'\n' {
                    break;
                }
                line.push(byte[0]);
            }
        }
    }
    while matches!(line.last(), Some(b'\r')) {
        line.pop();
    }
    String::from_utf8(line).map_err(|_| io_err("non-utf8 response header"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn timeout_bounds_a_dead_connect() {
        // A port from a listener we immediately drop: connecting fails
        // fast with refused (the backoff path, not the timeout path, but
        // it proves retries give up and report the last error).
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let options = ClientOptions {
            timeout: Some(Duration::from_millis(200)),
            retries: 2,
            backoff: Duration::from_millis(1),
        };
        let start = std::time::Instant::now();
        let err = request_with(addr, "GET", "/healthz", None, &options).unwrap_err();
        assert!(start.elapsed() < Duration::from_secs(5), "bounded: {err}");
    }

    #[test]
    fn retries_recover_once_the_listener_appears() {
        // Bind, then answer exactly one request after a short delay while
        // the client is already retrying against the reserved port.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            let mut buf = [0u8; 1024];
            let _ = conn.read(&mut buf);
            let body = "{}";
            write!(
                conn,
                "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nX-Probe: yes\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
                body.len()
            )
            .unwrap();
        });
        let options = ClientOptions {
            timeout: Some(Duration::from_secs(2)),
            retries: 3,
            backoff: Duration::from_millis(10),
        };
        let response = request_with(addr, "GET", "/healthz", None, &options).unwrap();
        assert_eq!(response.status, 200);
        assert_eq!(response.body, "{}");
        assert_eq!(response.header("x-probe"), Some("yes"));
        assert_eq!(response.header("X-PROBE"), Some("yes"));
        server.join().unwrap();
    }
}
