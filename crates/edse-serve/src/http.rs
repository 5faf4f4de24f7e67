//! A deliberately minimal HTTP/1.1 layer over `std::net` — just enough
//! protocol for the service's JSON API: request-line + header parsing,
//! `Content-Length` bodies, fixed-length responses, and chunked
//! transfer-encoding for the event stream. No TLS, no keep-alive
//! (`Connection: close` on every response), no dependencies.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// Largest request body the server will buffer (a [`JobSpec`] is a few
/// hundred bytes; this bound exists so a stray client cannot balloon
/// memory).
///
/// [`JobSpec`]: edse_core::JobSpec
const MAX_BODY: usize = 1 << 20;

/// Longest request line or header line the server will buffer, line
/// terminator included.
const MAX_LINE: usize = 8 << 10;

/// Most header lines one request may carry.
const MAX_HEADERS: usize = 64;

/// One parsed request: method, path (query strings are not used by this
/// API and are kept attached), and body.
#[derive(Debug)]
pub struct Request {
    /// Uppercase method, e.g. `"GET"`.
    pub method: String,
    /// Request path, e.g. `"/jobs/3/events"`.
    pub path: String,
    /// Raw request body (empty when there was none).
    pub body: Vec<u8>,
}

/// Reads and parses one request from the stream. Returns `None` on a
/// malformed or oversized request — a line longer than `MAX_LINE`, more
/// than `MAX_HEADERS` headers, or a body over `MAX_BODY` — or when the
/// stream's read timeout expires first (the caller answers 400 and
/// closes).
pub fn read_request(stream: &mut TcpStream) -> Option<Request> {
    let mut reader = BufReader::new(stream);
    let line = read_line(&mut reader)?;
    let mut parts = line.split_whitespace();
    let method = parts.next()?.to_uppercase();
    let path = parts.next()?.to_string();
    let mut content_length = 0usize;
    let mut headers = 0usize;
    loop {
        let header = read_line(&mut reader)?;
        let header = header.trim();
        if header.is_empty() {
            break;
        }
        headers += 1;
        if headers > MAX_HEADERS {
            return None;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().ok()?;
            }
        }
    }
    if content_length > MAX_BODY {
        return None;
    }
    let mut body = vec![0u8; content_length];
    if content_length > 0 {
        reader.read_exact(&mut body).ok()?;
    }
    Some(Request { method, path, body })
}

/// Reads one `\n`-terminated line of at most `MAX_LINE` bytes; `None` on
/// an I/O error, end of stream, or a longer line.
fn read_line(reader: &mut impl BufRead) -> Option<String> {
    let mut line = String::new();
    reader.take(MAX_LINE as u64).read_line(&mut line).ok()?;
    line.ends_with('\n').then_some(line)
}

/// Writes a complete fixed-length response and flushes.
pub fn respond(stream: &mut TcpStream, status: u16, content_type: &str, body: &str) {
    let reason = match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        _ => "Internal Server Error",
    };
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(body.as_bytes());
    let _ = stream.flush();
}

/// Shorthand for a JSON response.
pub fn respond_json(stream: &mut TcpStream, status: u16, body: &str) {
    respond(stream, status, "application/json", body);
}

/// Starts a chunked response (for the JSONL event stream). Follow with
/// [`write_chunk`] per line and [`end_chunks`] to terminate.
pub fn start_chunked(stream: &mut TcpStream, content_type: &str) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.1 200 OK\r\nContent-Type: {content_type}\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n"
    );
    stream.write_all(head.as_bytes())?;
    stream.flush()
}

/// Writes one chunk. An error means the client hung up; the caller stops
/// streaming.
pub fn write_chunk(stream: &mut TcpStream, data: &str) -> std::io::Result<()> {
    write!(stream, "{:x}\r\n", data.len())?;
    stream.write_all(data.as_bytes())?;
    stream.write_all(b"\r\n")?;
    stream.flush()
}

/// Terminates a chunked response.
pub fn end_chunks(stream: &mut TcpStream) -> std::io::Result<()> {
    stream.write_all(b"0\r\n\r\n")?;
    stream.flush()
}
