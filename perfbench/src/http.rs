//! A minimal HTTP/1.1 client for the in-process service: one request per
//! connection, as the service closes every connection after replying.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};

use crate::trace::Tracer;

/// One reply.
pub struct Reply {
    /// Status code.
    pub status: u16,
    /// The `x-cache` header (`hit`, `miss`, `coalesced`), or `-`.
    pub cache: String,
    /// The body.
    pub body: String,
}

/// Sends `method path` with `body` and reads the whole reply, recording
/// `serve.connect` (TCP connect) and `serve.exchange` (write, server
/// time, read) spans.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
    tracer: &Tracer,
    op: u64,
) -> Result<Reply, String> {
    let mut conn = tracer
        .span("serve.connect", op, || TcpStream::connect(addr))
        .map_err(|e| format!("connect: {e}"))?;
    let raw = tracer.span("serve.exchange", op, || {
        let head = format!(
            "{method} {path} HTTP/1.1\r\nhost: perfbench\r\ncontent-length: {}\r\n\r\n",
            body.len()
        );
        conn.write_all(head.as_bytes())?;
        conn.write_all(body.as_bytes())?;
        let mut raw = String::new();
        conn.read_to_string(&mut raw)?;
        Ok::<_, std::io::Error>(raw)
    });
    let raw = raw.map_err(|e| format!("exchange: {e}"))?;
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .ok_or("reply has no header/body separator")?;
    let status = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or("reply has no status code")?;
    let cache = head
        .lines()
        .find_map(|l| l.strip_prefix("x-cache: "))
        .unwrap_or("-")
        .to_owned();
    Ok(Reply {
        status,
        cache,
        body: body.to_owned(),
    })
}
