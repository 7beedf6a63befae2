//! A minimal HTTP/1.1 layer over `std::net`: request parsing with hard
//! caps, response writing, keep-alive. No async runtime — the server is
//! thread-per-connection, which the workspace's std-only constraint (and
//! the engine's blocking invokes) make the honest choice.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// Upper bound on the request line plus headers, to shed hostile input
/// before any allocation scales with it.
const MAX_HEAD_BYTES: usize = 16 * 1024;

/// One parsed request.
pub struct Request {
    /// Uppercase method (`GET`, `POST`, ...).
    pub method: String,
    /// Path without query string.
    pub path: String,
    /// Raw query string (empty when absent).
    pub query: String,
    /// Headers, lowercase names, in arrival order.
    pub headers: Vec<(String, String)>,
    /// Request body (empty when no `Content-Length`).
    pub body: Vec<u8>,
    /// Whether the connection should stay open after the response.
    pub keep_alive: bool,
}

impl Request {
    /// First header value by (lowercase) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be parsed; maps to a 4xx and closes the
/// connection.
pub enum ParseError {
    /// The peer closed the connection cleanly between requests.
    Eof,
    /// Malformed request line or headers.
    Bad(String),
    /// The declared body exceeds the configured limit (maps to 413).
    TooLarge { limit: usize, got: usize },
    /// Socket-level failure.
    Io(std::io::Error),
}

impl From<std::io::Error> for ParseError {
    fn from(e: std::io::Error) -> ParseError {
        ParseError::Io(e)
    }
}

/// Reads one line of the request head, at most `budget` bytes of it: a
/// peer that never sends a newline costs what is left of the head cap, not
/// memory without bound.
fn read_head_line(
    reader: &mut BufReader<TcpStream>,
    budget: &mut usize,
) -> Result<String, ParseError> {
    let mut line = Vec::new();
    let n = reader
        .by_ref()
        .take(*budget as u64 + 1)
        .read_until(b'\n', &mut line)?;
    if n > *budget {
        return Err(ParseError::Bad("headers exceed the 16 KiB cap".into()));
    }
    *budget -= n;
    String::from_utf8(line).map_err(|_| ParseError::Bad("request head is not UTF-8".into()))
}

/// Reads one request off the connection. `max_body` caps the declared
/// `Content-Length`; anything bigger is rejected *before* reading the
/// body, so a hostile payload costs nothing but its headers.
pub fn read_request(
    reader: &mut BufReader<TcpStream>,
    max_body: usize,
) -> Result<Request, ParseError> {
    let mut budget = MAX_HEAD_BYTES;
    let head = read_head_line(reader, &mut budget)?;
    if head.is_empty() {
        return Err(ParseError::Eof);
    }
    let line = head.trim_end();
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| ParseError::Bad("empty request line".into()))?
        .to_ascii_uppercase();
    let target = parts
        .next()
        .ok_or_else(|| ParseError::Bad("request line has no target".into()))?;
    let version = parts.next().unwrap_or("HTTP/1.1");
    let http11 = version == "HTTP/1.1";
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };

    let mut headers = Vec::new();
    let mut content_length = 0usize;
    let mut connection = String::new();
    loop {
        let hl = read_head_line(reader, &mut budget)?;
        if hl.is_empty() {
            return Err(ParseError::Bad("connection closed mid-headers".into()));
        }
        let hl = hl.trim_end();
        if hl.is_empty() {
            break;
        }
        let Some((k, v)) = hl.split_once(':') else {
            return Err(ParseError::Bad(format!("malformed header `{hl}`")));
        };
        let k = k.trim().to_ascii_lowercase();
        let v = v.trim().to_string();
        if k == "content-length" {
            content_length = v
                .parse()
                .map_err(|_| ParseError::Bad(format!("bad content-length `{v}`")))?;
        }
        if k == "connection" {
            connection = v.to_ascii_lowercase();
        }
        headers.push((k, v));
    }
    if content_length > max_body {
        return Err(ParseError::TooLarge {
            limit: max_body,
            got: content_length,
        });
    }
    // Capacity without the zero fill `read_exact` would need first.
    let mut body = Vec::with_capacity(content_length);
    reader
        .by_ref()
        .take(content_length as u64)
        .read_to_end(&mut body)?;
    if body.len() < content_length {
        return Err(std::io::Error::from(std::io::ErrorKind::UnexpectedEof).into());
    }
    let keep_alive = match connection.as_str() {
        "close" => false,
        "keep-alive" => true,
        _ => http11, // HTTP/1.1 defaults to keep-alive
    };
    Ok(Request {
        method,
        path,
        query,
        headers,
        body,
        keep_alive,
    })
}

/// One response, written in full (with `Content-Length`) so keep-alive
/// framing is always correct.
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` of the body.
    pub content_type: &'static str,
    /// Extra headers (name, value).
    pub extra: Vec<(String, String)>,
    /// The body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: impl Into<Vec<u8>>) -> Response {
        Response {
            status,
            content_type: "application/json",
            extra: Vec::new(),
            body: body.into(),
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: impl Into<Vec<u8>>) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            extra: Vec::new(),
            body: body.into(),
        }
    }

    /// Adds a header.
    pub fn with_header(mut self, name: &str, value: String) -> Response {
        self.extra.push((name.to_string(), value));
        self
    }
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        504 => "Gateway Timeout",
        _ => "",
    }
}

/// Writes `resp` to the stream. `keep_alive` selects the `Connection`
/// header; the return value reports whether the connection may be reused.
pub fn write_response(
    stream: &mut TcpStream,
    resp: &Response,
    keep_alive: bool,
) -> std::io::Result<bool> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: {}\r\n",
        resp.status,
        reason(resp.status),
        resp.content_type,
        resp.body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    for (k, v) in &resp.extra {
        head.push_str(&format!("{k}: {v}\r\n"));
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(&resp.body)?;
    stream.flush()?;
    Ok(keep_alive)
}
