//! Minimal HTTP/1.1 server on `std::net`.
//!
//! No external web framework: requests are read, parsed and routed by
//! hand, one thread per connection (the frontend is not the bottleneck —
//! model execution is). Supports fixed-length bodies via `Content-Length`
//! and chunked responses for SSE streaming.

use std::io::{BufRead, Read, Write};
use std::net::TcpStream;

/// Largest request body the server accepts, in bytes. A request that
/// declares a longer `Content-Length` is refused before any allocation.
pub const MAX_BODY_BYTES: usize = 1 << 20;

/// Longest request line or header line accepted, in bytes, line end
/// included.
pub const MAX_LINE_BYTES: usize = 8 << 10;

/// Most `name: value` headers accepted in one request.
pub const MAX_HEADERS: usize = 100;

/// Most bytes accepted for the request line and all header lines together.
pub const MAX_HEADER_BYTES: usize = 64 << 10;

/// Why a request could not be read.
#[derive(Debug)]
pub enum ReadError {
    /// Socket error, or malformed or truncated input.
    Io(std::io::Error),
    /// The declared `Content-Length` exceeds [`MAX_BODY_BYTES`].
    BodyTooLarge(usize),
    /// A line exceeds [`MAX_LINE_BYTES`], or the head exceeds
    /// [`MAX_HEADERS`] lines or [`MAX_HEADER_BYTES`] bytes. Nothing past
    /// the limit was read.
    HeadersTooLarge,
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
    /// Read one request. Returns `None` on a clean EOF before any bytes
    /// (keep-alive close) and `Err` on malformed input, an oversized head
    /// or an oversized body. Never buffers more than [`MAX_LINE_BYTES`] of
    /// one line, [`MAX_HEADER_BYTES`] of head or [`MAX_BODY_BYTES`] of body.
    pub fn read<R: BufRead>(reader: &mut R) -> Result<Option<Request>, ReadError> {
        let mut budget = MAX_HEADER_BYTES;
        let Some(line) = read_line(reader, &mut budget)? else {
            return Ok(None);
        };
        let mut parts = line.split_whitespace();
        let (method, path) = match (parts.next(), parts.next()) {
            (Some(m), Some(p)) => (m.to_string(), p.to_string()),
            _ => return Err(invalid("malformed request line")),
        };
        let mut headers = Vec::new();
        let mut content_length = 0usize;
        loop {
            let Some(h) = read_line(reader, &mut budget)? else {
                return Err(ReadError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "eof in headers",
                )));
            };
            let h = h.trim_end();
            if h.is_empty() {
                break;
            }
            if headers.len() == MAX_HEADERS {
                return Err(ReadError::HeadersTooLarge);
            }
            if let Some((name, value)) = h.split_once(':') {
                let name = name.trim().to_ascii_lowercase();
                let value = value.trim().to_string();
                if name == "content-length" {
                    content_length = value.parse().map_err(|_| invalid("bad content-length"))?;
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

/// Read one line of the head, at most [`MAX_LINE_BYTES`] and at most
/// `budget` bytes, and charge it to `budget`. `None` on EOF before any
/// byte; a last line without `\n` is returned as it is.
fn read_line<R: BufRead>(reader: &mut R, budget: &mut usize) -> Result<Option<String>, ReadError> {
    let cap = MAX_LINE_BYTES.min(*budget);
    let mut line = Vec::new();
    reader.by_ref().take(cap as u64 + 1).read_until(b'\n', &mut line)?;
    if line.len() > cap {
        return Err(ReadError::HeadersTooLarge);
    }
    if line.is_empty() {
        return Ok(None);
    }
    *budget -= line.len();
    String::from_utf8(line).map(Some).map_err(|_| invalid("head is not UTF-8"))
}

/// Malformed input.
fn invalid(msg: &str) -> ReadError {
    ReadError::Io(std::io::Error::new(std::io::ErrorKind::InvalidData, msg))
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
        431 => "Request Header Fields Too Large",
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
    use std::io::BufReader;
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

    fn read_bytes(raw: &[u8]) -> Result<Option<Request>, ReadError> {
        Request::read(&mut &raw[..])
    }

    #[test]
    fn reads_from_a_byte_slice() {
        let req = read_bytes(b"POST /x HTTP/1.1\r\nContent-Length: 2\r\n\r\nhi").unwrap().unwrap();
        assert_eq!((req.method.as_str(), req.path.as_str()), ("POST", "/x"));
        assert_eq!(req.body, b"hi");
        assert!(read_bytes(b"").unwrap().is_none(), "EOF before any byte is a clean close");
    }

    #[test]
    fn a_line_without_end_is_refused_at_the_line_cap() {
        let at_cap = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_LINE_BYTES - 16));
        assert_eq!(at_cap.find('\n'), Some(MAX_LINE_BYTES - 1));
        assert!(read_bytes(at_cap.as_bytes()).unwrap().is_some(), "a line at the cap is fine");
        let endless = vec![b'a'; 4 * MAX_LINE_BYTES];
        assert!(matches!(read_bytes(&endless), Err(ReadError::HeadersTooLarge)));
        let header = format!("GET / HTTP/1.1\r\nX: {}\r\n\r\n", "b".repeat(MAX_LINE_BYTES));
        assert!(matches!(read_bytes(header.as_bytes()), Err(ReadError::HeadersTooLarge)));
    }

    #[test]
    fn header_count_and_total_are_capped() {
        let head = |n: usize, value: usize| {
            let h = format!("X: {}\r\n", "v".repeat(value)).repeat(n);
            format!("GET / HTTP/1.1\r\n{h}\r\n")
        };
        let most = read_bytes(head(MAX_HEADERS, 1).as_bytes()).unwrap().unwrap();
        assert_eq!(most.headers.len(), MAX_HEADERS);
        let too_many = read_bytes(head(MAX_HEADERS + 1, 1).as_bytes());
        assert!(matches!(too_many, Err(ReadError::HeadersTooLarge)));
        // Lines under the line cap whose sum passes the total cap.
        let value = MAX_LINE_BYTES / 2;
        let n = MAX_HEADER_BYTES / value + 1;
        assert!(n <= MAX_HEADERS);
        assert!(matches!(read_bytes(head(n, value).as_bytes()), Err(ReadError::HeadersTooLarge)));
    }

    /// A reader that counts the bytes taken from it.
    struct Counted<R> {
        inner: R,
        taken: usize,
    }

    impl<R: Read> Read for Counted<R> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.inner.read(buf)?;
            self.taken += n;
            Ok(n)
        }
    }

    impl<R: BufRead> BufRead for Counted<R> {
        fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
            self.inner.fill_buf()
        }
        fn consume(&mut self, n: usize) {
            self.taken += n;
            self.inner.consume(n);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(3000))]
        /// Arbitrary bytes give a request or a structured error, never a
        /// panic. Half the inputs continue without end, so only the caps
        /// can stop the reader, and it never takes more than a head's and
        /// a body's worth: all it buffers comes from what it took, plus a
        /// body of at most `MAX_BODY_BYTES`.
        #[test]
        fn read_never_panics_and_takes_a_bounded_prefix(
            picks in proptest::collection::vec(0u16..512, 0..96),
        ) {
            let frags = [
                "GET ", "POST ", "/v1/completions", " HTTP/1.1", "\r\n", "\n", "Host: x\r\n",
                "Content-Length: ", "content-length:", "2", "64", "1048577", "4194304",
                "99999999999999999999", ":", " ", "\r\n\r\n",
            ];
            // Half the inputs start with a request line; half of those
            // hold no raw bytes (picks below 256), so headers get parsed.
            let first = picks.first().map_or(1, |&p| usize::from(p));
            let mut bytes = Vec::new();
            if first % 4 < 2 {
                bytes.extend_from_slice(b"POST /v1/completions HTTP/1.1\r\n");
            }
            for p in picks.iter().map(|&p| usize::from(p)) {
                match (first % 4, p) {
                    (1.., 0..=255) => bytes.push(p as u8),
                    _ => bytes.extend_from_slice(frags[p % frags.len()].as_bytes()),
                }
            }
            let endless = first % 3 == 0;
            let tail = std::io::repeat(b'a').take(if endless { u64::MAX } else { 0 });
            let mut reader = Counted { inner: (&bytes[..]).chain(BufReader::new(tail)), taken: 0 };
            let got = Request::read(&mut reader);
            if endless {
                proptest::prop_assert!(!matches!(got, Ok(None)), "an endless input is never EOF");
            }
            proptest::prop_assert!(
                reader.taken <= MAX_HEADER_BYTES + MAX_BODY_BYTES,
                "took {} bytes of {:?}",
                reader.taken,
                String::from_utf8_lossy(&bytes)
            );
        }
    }
}
