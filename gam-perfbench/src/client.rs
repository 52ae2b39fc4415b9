//! The benchmark's own HTTP/1.1 client: one request per connection, std only,
//! so the client side of every request is code the program does not own.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use crate::trace::Tracer;

/// Socket timeout for every client read and write.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// A response as the client saw it.
#[derive(Debug, Clone)]
pub struct Reply {
    /// HTTP status code (0 when the exchange failed).
    pub status: u16,
    /// Response body.
    pub body: String,
    /// Time to establish the connection.
    pub connect: Duration,
}

impl Reply {
    /// Every `"verdict"` of a `/check` answer, in order.
    #[must_use]
    pub fn verdicts(&self) -> Vec<&str> {
        let pattern = "\"verdict\":\"";
        self.body
            .match_indices(pattern)
            .filter_map(|(at, _)| {
                let rest = &self.body[at + pattern.len()..];
                rest.find('"').map(|end| &rest[..end])
            })
            .collect()
    }

    /// How many results of the answer came from the cache.
    #[must_use]
    pub fn cached(&self) -> usize {
        self.body.matches("\"cached\":true").count()
    }

    /// An unsigned integer field of a JSON body.
    #[must_use]
    pub fn uint(&self, key: &str) -> Option<u64> {
        let rest = &self.body[self.body.find(&format!("\"{key}\":"))? + key.len() + 3..];
        let end = rest.find(|c: char| !c.is_ascii_digit()).unwrap_or(rest.len());
        rest[..end].parse().ok()
    }
}

/// A JSON string literal holding `text`.
#[must_use]
pub fn json_string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Sends one request and reads the whole response. Connection errors come
/// back as status 0 with the error as the body. With a tracer, the connect
/// and the exchange get spans under `parent`.
#[must_use]
pub fn send(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
    tracer: &Tracer,
    parent: Option<usize>,
    id: usize,
) -> Reply {
    let start = Instant::now();
    let stream = tracer.call("client.connect", parent, id, || TcpStream::connect(addr));
    let connect = start.elapsed();
    let mut stream = match stream {
        Ok(stream) => stream,
        Err(err) => return Reply { status: 0, body: format!("connect: {err}"), connect },
    };
    let result =
        tracer.call("serve.exchange", parent, id, || exchange(&mut stream, method, path, body));
    match result {
        Ok((status, body)) => Reply { status, body, connect },
        Err(err) => Reply { status: 0, body: format!("exchange: {err}"), connect },
    }
}

fn exchange(
    stream: &mut TcpStream,
    method: &str,
    path: &str,
    body: &str,
) -> std::io::Result<(u16, String)> {
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Type: text/plain\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes())?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let text = String::from_utf8_lossy(&raw);
    let bad = || std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed response");
    let (head, body) = text.split_once("\r\n\r\n").ok_or_else(bad)?;
    let status = head.split_whitespace().nth(1).and_then(|s| s.parse().ok()).ok_or_else(bad)?;
    Ok((status, body.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_are_read_from_the_body() {
        let reply = Reply {
            status: 200,
            body: r#"{"ok":true,"result":{"results":[{"verdict":"allowed","cached":true},{"verdict":"forbidden","cached":false}]},"cache_evictions":12}"#
                .to_string(),
            connect: Duration::ZERO,
        };
        assert_eq!(reply.verdicts(), ["allowed", "forbidden"]);
        assert_eq!(reply.cached(), 1);
        assert_eq!(reply.uint("cache_evictions"), Some(12));
        assert_eq!(reply.uint("missing"), None);
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_string("a \"b\"\n\\c"), r#""a \"b\"\n\\c""#);
    }
}
