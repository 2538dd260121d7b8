//! Minimal HTTP/1.1 server on `std::net`.
//!
//! No external web framework: requests are read, parsed and routed by
//! hand, one thread per connection (the frontend is not the bottleneck —
//! model execution is). Supports fixed-length bodies via `Content-Length`
//! and chunked responses for SSE streaming.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// Largest request body the server accepts, in bytes. A request that
/// declares a longer `Content-Length` is refused before any allocation.
pub const MAX_BODY_BYTES: usize = 1 << 20;

/// Why a request could not be read.
#[derive(Debug)]
pub enum ReadError {
    /// Socket error, or malformed or truncated input.
    Io(std::io::Error),
    /// The declared `Content-Length` exceeds [`MAX_BODY_BYTES`].
    BodyTooLarge(usize),
}

impl From<std::io::Error> for ReadError {
    fn from(e: std::io::Error) -> Self {
        ReadError::Io(e)
    }
}

/// A parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Method (`GET`, `POST`, …).
    pub method: String,
    /// Path including no query handling (exact-match routing).
    pub path: String,
    /// Lower-cased header map.
    pub headers: Vec<(String, String)>,
    /// Raw body bytes.
    pub body: Vec<u8>,
}

impl Request {
    /// Read one request from the stream. Returns `None` on a clean EOF
    /// before any bytes (keep-alive close) and `Err` on malformed input
    /// or an oversized body.
    pub fn read(reader: &mut BufReader<TcpStream>) -> Result<Option<Request>, ReadError> {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Ok(None);
        }
        let mut parts = line.split_whitespace();
        let (method, path) = match (parts.next(), parts.next()) {
            (Some(m), Some(p)) => (m.to_string(), p.to_string()),
            _ => {
                return Err(ReadError::Io(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    "malformed request line",
                )))
            }
        };
        let mut headers = Vec::new();
        let mut content_length = 0usize;
        loop {
            let mut h = String::new();
            if reader.read_line(&mut h)? == 0 {
                return Err(ReadError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "eof in headers",
                )));
            }
            let h = h.trim_end();
            if h.is_empty() {
                break;
            }
            if let Some((name, value)) = h.split_once(':') {
                let name = name.trim().to_ascii_lowercase();
                let value = value.trim().to_string();
                if name == "content-length" {
                    content_length = value.parse().map_err(|_| {
                        std::io::Error::new(std::io::ErrorKind::InvalidData, "bad content-length")
                    })?;
                }
                headers.push((name, value));
            }
        }
        if content_length > MAX_BODY_BYTES {
            return Err(ReadError::BodyTooLarge(content_length));
        }
        let mut body = vec![0u8; content_length];
        reader.read_exact(&mut body)?;
        Ok(Some(Request { method, path, headers, body }))
    }
}

/// Write a complete (non-streaming) response.
pub fn respond(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &[u8],
) -> std::io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        _ => "Internal Server Error",
    };
    write!(
        stream,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )?;
    stream.write_all(body)?;
    stream.flush()
}

/// Begin a chunked SSE response; follow with [`write_sse_event`] calls and
/// finish with [`finish_chunked`].
pub fn start_sse(stream: &mut TcpStream) -> std::io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\nCache-Control: no-cache\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n"
    )?;
    stream.flush()
}

/// Write one SSE `data:` event as an HTTP chunk.
pub fn write_sse_event(stream: &mut TcpStream, data: &str) -> std::io::Result<()> {
    let payload = format!("data: {data}\n\n");
    write!(stream, "{:x}\r\n", payload.len())?;
    stream.write_all(payload.as_bytes())?;
    write!(stream, "\r\n")?;
    stream.flush()
}

/// Terminate a chunked response.
pub fn finish_chunked(stream: &mut TcpStream) -> std::io::Result<()> {
    write!(stream, "0\r\n\r\n")?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn round_trip(raw: &str) -> Result<Option<Request>, ReadError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let raw = raw.to_string();
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(raw.as_bytes()).unwrap();
        });
        let (stream, _) = listener.accept().unwrap();
        let mut reader = BufReader::new(stream);
        let req = Request::read(&mut reader);
        client.join().unwrap();
        req
    }

    #[test]
    fn parses_post_with_body() {
        let req = round_trip(
            "POST /v1/completions HTTP/1.1\r\nHost: x\r\nContent-Length: 7\r\n\r\n{\"a\":1}",
        )
        .unwrap()
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/completions");
        assert_eq!(req.body, b"{\"a\":1}");
        assert!(req.headers.iter().any(|(n, _)| n == "content-length"));
    }

    #[test]
    fn parses_get_without_body() {
        let req = round_trip("GET /health HTTP/1.1\r\nHost: x\r\n\r\n").unwrap().unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/health");
        assert!(req.body.is_empty());
    }

    #[test]
    fn malformed_request_line_is_an_error() {
        assert!(round_trip("GARBAGE\r\n\r\n").is_err());
    }

    #[test]
    fn oversized_content_length_is_refused_before_allocating() {
        let raw = format!("POST /v1/completions HTTP/1.1\r\nContent-Length: {}\r\n\r\n", usize::MAX);
        assert!(matches!(round_trip(&raw), Err(ReadError::BodyTooLarge(n)) if n == usize::MAX));
        let raw = format!("POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_BODY_BYTES + 1);
        assert!(matches!(round_trip(&raw), Err(ReadError::BodyTooLarge(_))));
    }
}
