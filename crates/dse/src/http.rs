//! Hand-rolled HTTP/1.1 server plumbing over [`std::net`].
//!
//! Implements exactly the subset the serve front end needs:
//! request-line and header parsing, `Content-Length` bodies, fixed and
//! chunked responses, and `Connection: close` semantics (every exchange
//! is one connection; the endpoints are coarse enough that keep-alive
//! would buy nothing). No TLS, no compression, no dependencies.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Cap on request bodies (1 MiB): a sweep request is a few hundred
/// bytes; anything larger is a client bug or abuse.
pub const MAX_BODY: usize = 1 << 20;

/// One parsed HTTP request.
#[derive(Debug)]
pub struct Request {
    /// Upper-cased method (`GET`, `POST`, ...).
    pub method: String,
    /// Request path, query string stripped.
    pub path: String,
    /// Body bytes (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

/// Read and parse one request. `Ok(None)` means the peer closed without
/// sending one.
///
/// # Errors
///
/// Fails on I/O errors, a malformed request line, or an oversized body.
pub fn read_request(stream: &mut TcpStream) -> std::io::Result<Option<Request>> {
    // A stuck client must not pin the handler thread forever.
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Ok(None);
    }
    let mut parts = line.split_whitespace();
    let (method, target) = match (parts.next(), parts.next()) {
        (Some(m), Some(t)) => (m.to_ascii_uppercase(), t.to_owned()),
        _ => {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("malformed request line: {line:?}"),
            ))
        }
    };
    let mut content_length = 0usize;
    loop {
        let mut h = String::new();
        if reader.read_line(&mut h)? == 0 {
            break;
        }
        let h = h.trim_end();
        if h.is_empty() {
            break;
        }
        if let Some((name, value)) = h.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().map_err(|_| {
                    std::io::Error::new(std::io::ErrorKind::InvalidData, "bad Content-Length")
                })?;
            }
        }
    }
    if content_length > MAX_BODY {
        return Err(std::io::Error::new(std::io::ErrorKind::InvalidData, "body too large"));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    let path = target.split('?').next().unwrap_or(&target).to_owned();
    Ok(Some(Request { method, path, body }))
}

/// Write a complete fixed-length response and flush.
///
/// # Errors
///
/// Propagates stream write errors.
pub fn respond(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    content_type: &str,
    body: &[u8],
) -> std::io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )?;
    stream.write_all(body)?;
    stream.flush()
}

/// Shorthand for a JSON 200.
///
/// # Errors
///
/// Propagates stream write errors.
pub fn respond_json(stream: &mut TcpStream, body: &str) -> std::io::Result<()> {
    respond(stream, 200, "OK", "application/json", body.as_bytes())
}

/// Shorthand for a JSON error response.
///
/// # Errors
///
/// Propagates stream write errors.
pub fn respond_error(stream: &mut TcpStream, status: u16, msg: &str) -> std::io::Result<()> {
    let reason = match status {
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        _ => "Internal Server Error",
    };
    let body = format!("{{\"error\": {}}}\n", cwf_tracelog::json::quote(msg));
    respond(stream, status, reason, "application/json", body.as_bytes())
}

/// A chunked (streaming) response in progress. Each [`Chunked::send`]
/// writes one chunk; dropping finishes cleanly if [`Chunked::finish`]
/// was not called (errors ignored at that point).
pub struct Chunked<'a> {
    stream: &'a mut TcpStream,
    done: bool,
}

impl<'a> Chunked<'a> {
    /// Start a chunked `200 OK` with the given content type.
    ///
    /// # Errors
    ///
    /// Propagates stream write errors.
    pub fn start(stream: &'a mut TcpStream, content_type: &str) -> std::io::Result<Chunked<'a>> {
        write!(
            stream,
            "HTTP/1.1 200 OK\r\nContent-Type: {content_type}\r\n\
             Transfer-Encoding: chunked\r\nConnection: close\r\n\r\n"
        )?;
        Ok(Chunked { stream, done: false })
    }

    /// Send one chunk.
    ///
    /// # Errors
    ///
    /// Propagates stream write errors (typically: the client went away).
    pub fn send(&mut self, data: &[u8]) -> std::io::Result<()> {
        if data.is_empty() {
            return Ok(()); // an empty chunk would terminate the stream
        }
        write!(self.stream, "{:x}\r\n", data.len())?;
        self.stream.write_all(data)?;
        self.stream.write_all(b"\r\n")?;
        self.stream.flush()
    }

    /// Terminate the stream.
    ///
    /// # Errors
    ///
    /// Propagates stream write errors.
    pub fn finish(mut self) -> std::io::Result<()> {
        self.done = true;
        self.stream.write_all(b"0\r\n\r\n")?;
        self.stream.flush()
    }
}

impl Drop for Chunked<'_> {
    fn drop(&mut self) {
        if !self.done {
            let _ = self.stream.write_all(b"0\r\n\r\n");
            let _ = self.stream.flush();
        }
    }
}

/// Minimal blocking HTTP client for tests, the CI smoke job, and the
/// serve-throughput experiment: one request per connection, reads the
/// whole response (fixed or chunked) and returns `(status, body)`.
///
/// # Errors
///
/// Fails on connection or protocol errors.
pub fn client_request(
    addr: std::net::SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    let body = body.unwrap_or("");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: cwfmem\r\nContent-Length: {}\r\n\
         Connection: close\r\n\r\n{body}",
        body.len()
    )?;
    stream.flush()?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let text = String::from_utf8_lossy(&raw);
    let (head, rest) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "no header end"))?;
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "no status"))?;
    let chunked = head
        .lines()
        .any(|l| l.to_ascii_lowercase().starts_with("transfer-encoding") && l.contains("chunked"));
    let payload = if chunked { decode_chunked(rest) } else { rest.to_owned() };
    Ok((status, payload))
}

/// Reassemble a chunked body (sizes are hex, one chunk per line pair).
fn decode_chunked(raw: &str) -> String {
    let mut out = String::new();
    let mut rest = raw;
    while let Some((size_line, tail)) = rest.split_once("\r\n") {
        let Ok(size) = usize::from_str_radix(size_line.trim(), 16) else { break };
        if size == 0 || tail.len() < size {
            break;
        }
        out.push_str(&tail[..size]);
        rest = tail[size..].strip_prefix("\r\n").unwrap_or("");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn request_response_round_trip() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let req = read_request(&mut stream).unwrap().unwrap();
            assert_eq!(req.method, "POST");
            assert_eq!(req.path, "/sweep");
            assert_eq!(req.body, b"{\"x\":1}");
            respond_json(&mut stream, "{\"ok\": true}\n").unwrap();
        });
        let (status, body) = client_request(addr, "POST", "/sweep?v=1", Some("{\"x\":1}")).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, "{\"ok\": true}\n");
        server.join().unwrap();
    }

    #[test]
    fn chunked_round_trip() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let _ = read_request(&mut stream).unwrap().unwrap();
            let mut ch = Chunked::start(&mut stream, "application/x-ndjson").unwrap();
            ch.send(b"{\"done\": 1}\n").unwrap();
            ch.send(b"{\"done\": 2}\n").unwrap();
            ch.finish().unwrap();
        });
        let (status, body) = client_request(addr, "GET", "/stream", None).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, "{\"done\": 1}\n{\"done\": 2}\n");
        server.join().unwrap();
    }

    #[test]
    fn error_shapes() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let _ = read_request(&mut stream).unwrap();
            respond_error(&mut stream, 404, "no such sweep").unwrap();
        });
        let (status, body) = client_request(addr, "GET", "/sweep/99", None).unwrap();
        assert_eq!(status, 404);
        assert!(body.contains("no such sweep"));
        server.join().unwrap();
    }
}
