//! A minimal keep-alive HTTP/1.1 client. The benchmark carries its own
//! client instead of reusing the program's, so a change to the program's
//! client code cannot move the ruler it is measured with.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};

/// One keep-alive connection to the server.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

/// A response: status code and body text.
pub struct Response {
    pub status: u16,
    pub body: String,
}

fn bad(msg: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        let reader = BufReader::with_capacity(1 << 16, writer.try_clone()?);
        Ok(Conn { writer, reader })
    }

    /// Sends one request and reads the whole response. The head and body
    /// go out in one write so a small request is one segment.
    pub fn request(&mut self, method: &str, path: &str, body: &str) -> std::io::Result<Response> {
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n",
            body.len()
        );
        if body.len() < 64 * 1024 {
            let mut buf = Vec::with_capacity(head.len() + body.len());
            buf.extend_from_slice(head.as_bytes());
            buf.extend_from_slice(body.as_bytes());
            self.writer.write_all(&buf)?;
        } else {
            self.writer.write_all(head.as_bytes())?;
            self.writer.write_all(body.as_bytes())?;
        }
        self.writer.flush()?;
        self.read_response()
    }

    fn read_response(&mut self) -> std::io::Result<Response> {
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let status = line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad(format!("bad status line {line:?}")))?;
        let mut length = None;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(bad("connection closed inside the headers".into()));
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.trim().parse::<usize>().ok();
                }
            }
        }
        let length = length.ok_or_else(|| bad("response without Content-Length".into()))?;
        let mut body = vec![0u8; length];
        self.reader.read_exact(&mut body)?;
        let body = String::from_utf8(body).map_err(|_| bad("non-UTF-8 body".into()))?;
        Ok(Response { status, body })
    }
}
