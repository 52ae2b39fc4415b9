//! A minimal HTTP/1.1 layer over `std::net` — just enough protocol for the
//! check service and its bench client: one request per connection
//! (`Connection: close`), `Content-Length` bodies, no chunked encoding, no
//! TLS. The sandbox has no network stack beyond loopback and no external
//! dependencies, which is exactly the niche a hand-rolled server fills.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use gam_core::fault;

/// Maximum accepted request body (guards the worker pool against a single
/// giant upload); 4 MiB comfortably holds any litmus corpus batch.
pub const MAX_BODY: usize = 4 << 20;

/// Maximum accepted request head (request line plus headers): a client
/// streaming one endless header line is refused at this point instead of
/// growing the worker's buffer until the read timeout fires.
pub const MAX_HEAD: usize = 64 << 10;

/// A parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Request method (`GET`, `POST`, …), uppercased by the client.
    pub method: String,
    /// Request path including any query string, e.g. `/check`.
    pub path: String,
    /// Lowercased header name → value, in arrival order.
    pub headers: Vec<(String, String)>,
    /// Raw request body.
    pub body: Vec<u8>,
}

impl Request {
    /// The first value of a header, by lowercase name.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 text (lossy).
    #[must_use]
    pub fn body_text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Reads one HTTP request from a stream.
///
/// # Errors
///
/// Returns `InvalidData` on malformed request lines/headers, an oversized
/// head or an oversized body, and propagates socket errors.
pub fn read_request(stream: &mut TcpStream) -> io::Result<Request> {
    // Fault-injection point: `http.read` (delay simulates a slow client on
    // the wire; kill simulates a connection torn mid-request).
    if fault::hit("http.read") {
        return Err(io::Error::new(io::ErrorKind::ConnectionAborted, "injected fault: http.read"));
    }
    let mut reader = BufReader::new(stream);
    let mut head_left = MAX_HEAD;
    let line = read_head_line(&mut reader, &mut head_left)?;
    let mut parts = line.split_whitespace();
    let (method, path) = match (parts.next(), parts.next()) {
        (Some(method), Some(path)) => (method.to_ascii_uppercase(), path.to_string()),
        _ => return Err(bad_data("malformed request line")),
    };
    let mut headers = Vec::new();
    let mut content_length = 0usize;
    loop {
        let header = read_head_line(&mut reader, &mut head_left)?;
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        let Some((name, value)) = header.split_once(':') else {
            return Err(bad_data("malformed header"));
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim().to_string();
        if name == "content-length" {
            content_length = value.parse().map_err(|_| bad_data("bad content-length"))?;
        }
        headers.push((name, value));
    }
    if content_length > MAX_BODY {
        return Err(bad_data("body too large"));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok(Request { method, path, headers, body })
}

/// Writes an HTTP response with a JSON (or plain-text) body and closes the
/// connection semantics via `Connection: close`.
///
/// # Errors
///
/// Propagates socket write errors.
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    extra_headers: &[(&str, &str)],
    content_type: &str,
    body: &str,
) -> io::Result<()> {
    // Fault-injection point: `http.write` (delay simulates a congested
    // response path; kill drops the response on the floor — the client sees
    // a clean connection close, never a hang, because it reads with a
    // timeout).
    if fault::hit("http.write") {
        return Err(io::Error::new(io::ErrorKind::BrokenPipe, "injected fault: http.write"));
    }
    let mut response = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n",
        body.len()
    );
    for (name, value) in extra_headers {
        response.push_str(name);
        response.push_str(": ");
        response.push_str(value);
        response.push_str("\r\n");
    }
    response.push_str("\r\n");
    response.push_str(body);
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

/// Reads one line of the request head, charging its bytes to `left`; a head
/// that runs past [`MAX_HEAD`] without ending its line is `InvalidData`.
fn read_head_line(reader: &mut impl BufRead, left: &mut usize) -> io::Result<String> {
    let mut line = String::new();
    *left -= reader.take(*left as u64).read_line(&mut line)?;
    if *left == 0 && !line.ends_with('\n') {
        return Err(bad_data("request head too large"));
    }
    Ok(line)
}

fn bad_data(message: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

/// A response as seen by the in-tree client.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Lowercased header name → value.
    pub headers: Vec<(String, String)>,
    /// Response body.
    pub body: String,
}

impl Response {
    /// The first value of a header, by lowercase name.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }
}

/// Timeouts of the in-tree HTTP client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientConfig {
    /// TCP connect timeout.
    pub connect_timeout: Duration,
    /// Socket read timeout: the longest the client waits for response bytes
    /// (a slow or wedged server surfaces as a typed `TimedOut`/`WouldBlock`
    /// error, never a hang).
    pub read_timeout: Duration,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            connect_timeout: Duration::from_secs(10),
            read_timeout: Duration::from_secs(600),
        }
    }
}

impl ClientConfig {
    /// A config with both timeouts set to `timeout` — what
    /// `gam bench --serve --timeout-ms` plumbs through.
    #[must_use]
    pub fn with_timeout(timeout: Duration) -> Self {
        ClientConfig { connect_timeout: timeout, read_timeout: timeout }
    }
}

/// Bounded-retry policy of the client: exponential backoff with
/// deterministic jitter, honoring `Retry-After`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the first attempt (0 disables retrying).
    pub max_retries: u32,
    /// Backoff before retry *n* is `base_delay << n` plus jitter, unless the
    /// server's `Retry-After` asks for more.
    pub base_delay: Duration,
    /// Hard cap on any single backoff wait, `Retry-After` included.
    pub max_delay: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 4,
            base_delay: Duration::from_millis(50),
            max_delay: Duration::from_secs(2),
        }
    }
}

/// What a retried request cost: surfaced in the `gam-serve-bench/v1`
/// report so overload behavior is visible, not silent.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetryStats {
    /// Retries performed (0 = first attempt succeeded).
    pub retries: u32,
    /// Total time spent sleeping between attempts.
    pub backoff: Duration,
}

/// Whether a failed attempt is worth retrying: connection-level errors
/// (server restarting, listener backlog overflow, connection torn before
/// the response) are; protocol errors and client-side read timeouts are
/// not — a timeout may mean the server is still computing, and retrying
/// would double-spend explorer time.
fn retryable_error(err: &io::Error) -> bool {
    matches!(
        err.kind(),
        io::ErrorKind::ConnectionRefused
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::BrokenPipe
            | io::ErrorKind::UnexpectedEof
    )
}

/// Deterministic jitter for retry `attempt` of a request to `addr`:
/// xorshift over a seed from the address, the attempt and the process id,
/// scaled into `[0, half)`. No system randomness — the sandbox has none to
/// offer and reproducibility is a feature.
fn jitter(addr: &str, attempt: u32, half: Duration) -> Duration {
    let mut seed: u64 = 0x9E37_79B9_7F4A_7C15 ^ u64::from(std::process::id());
    for byte in addr.bytes() {
        seed = seed.wrapping_mul(0x0000_0100_0000_01B3) ^ u64::from(byte);
    }
    seed ^= u64::from(attempt).wrapping_mul(0x2545_F491_4F6C_DD1D);
    seed ^= seed << 13;
    seed ^= seed >> 7;
    seed ^= seed << 17;
    if half.is_zero() {
        return Duration::ZERO;
    }
    Duration::from_nanos(seed % u64::try_from(half.as_nanos()).unwrap_or(u64::MAX))
}

/// [`request_with`] wrapped in the bounded-retry loop: retries shed
/// responses (`503`, honoring `Retry-After`) and connection-level errors
/// with exponential backoff + jitter, up to [`RetryPolicy::max_retries`].
/// Any response other than `503` — success or failure — is returned as-is;
/// check requests are pure, so re-sending one is always safe.
///
/// # Errors
///
/// The last connection error once retries are exhausted. A still-shedding
/// server after the final retry yields `Ok` with the `503` response — the
/// caller decides whether that is fatal.
pub fn request_retrying(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
    config: &ClientConfig,
    policy: &RetryPolicy,
) -> io::Result<(Response, RetryStats)> {
    let mut stats = RetryStats::default();
    loop {
        let shed = match request_with(addr, method, path, body, config) {
            Ok(response) if response.status == 503 => {
                if stats.retries >= policy.max_retries {
                    return Ok((response, stats));
                }
                response.header("retry-after").and_then(|v| v.trim().parse::<u64>().ok())
            }
            Ok(response) => return Ok((response, stats)),
            Err(err) => {
                if !retryable_error(&err) || stats.retries >= policy.max_retries {
                    return Err(err);
                }
                None
            }
        };
        let exp = policy.base_delay.saturating_mul(1u32 << stats.retries.min(16));
        let wait = shed.map_or(exp, |secs| exp.max(Duration::from_secs(secs)));
        let wait = wait.min(policy.max_delay) + jitter(addr, stats.retries, policy.base_delay / 2);
        std::thread::sleep(wait);
        stats.retries += 1;
        stats.backoff += wait;
    }
}

/// Performs one HTTP request against `addr` (e.g. `127.0.0.1:7117`) with the
/// default [`ClientConfig`] and returns the parsed response. This is the
/// client half used by `gam bench --serve` and the end-to-end tests.
///
/// # Errors
///
/// Propagates connection and protocol errors.
pub fn request(addr: &str, method: &str, path: &str, body: Option<&str>) -> io::Result<Response> {
    request_with(addr, method, path, body, &ClientConfig::default())
}

/// [`request`] with explicit client timeouts.
///
/// # Errors
///
/// Propagates connection and protocol errors; a read past
/// [`ClientConfig::read_timeout`] fails with a timeout error instead of
/// blocking forever.
pub fn request_with(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
    config: &ClientConfig,
) -> io::Result<Response> {
    let target = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "address resolves to nothing"))?;
    let mut stream = TcpStream::connect_timeout(&target, config.connect_timeout)?;
    stream.set_read_timeout(Some(config.read_timeout))?;
    let body = body.unwrap_or("");
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes())?;
    stream.flush()?;

    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line)?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| bad_data("malformed status line"))?;
    let mut headers = Vec::new();
    let mut content_length: Option<usize> = None;
    loop {
        let mut header = String::new();
        reader.read_line(&mut header)?;
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            let name = name.trim().to_ascii_lowercase();
            let value = value.trim().to_string();
            if name == "content-length" {
                content_length = value.parse().ok();
            }
            headers.push((name, value));
        }
    }
    let body = match content_length {
        Some(length) => {
            let mut buffer = vec![0u8; length];
            reader.read_exact(&mut buffer)?;
            String::from_utf8_lossy(&buffer).into_owned()
        }
        None => {
            let mut buffer = String::new();
            reader.read_to_string(&mut buffer)?;
            buffer
        }
    };
    Ok(Response { status, headers, body })
}
