//! A minimal blocking HTTP/1.1 client for tests and the load generator.
//!
//! Speaks exactly the subset the daemon serves: keep-alive connections,
//! `Content-Length`-framed bodies, JSON payloads. Not a general client —
//! a test fixture that happens to be good enough to hammer the daemon
//! over real sockets.

use msc_obs::json::{self, Json};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// One parsed response.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Headers, names lowercased.
    pub headers: Vec<(String, String)>,
    /// Body bytes as text.
    pub body: String,
}

impl Response {
    /// Case-insensitive header lookup.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Parse the body as JSON.
    pub fn json(&self) -> Option<Json> {
        json::parse(&self.body).ok()
    }
}

/// A keep-alive connection to the daemon.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connect to `addr` (e.g. `127.0.0.1:7643`).
    pub fn connect(addr: &str) -> std::io::Result<Client> {
        Self::connect_with_timeout(addr, Duration::from_secs(10))
    }

    /// Connect with explicit socket read/write timeouts.
    pub fn connect_with_timeout(addr: &str, timeout: Duration) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            writer: stream,
            reader,
        })
    }

    /// Issue one request and read the full response.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> std::io::Result<Response> {
        // Head and body leave in one write: on a `TCP_NODELAY` socket
        // two writes are two segments, and the daemon would wake for a
        // head it cannot answer yet.
        let mut wire = format!("{method} {path} HTTP/1.1\r\nHost: msc-serve\r\n");
        if let Some(b) = body {
            wire.push_str(&format!(
                "Content-Type: application/json\r\nContent-Length: {}\r\n",
                b.len()
            ));
        }
        wire.push_str("\r\n");
        wire.push_str(body.unwrap_or(""));
        self.writer.write_all(wire.as_bytes())?;
        self.writer.flush()?;
        self.read_response()
    }

    /// `GET path`.
    pub fn get(&mut self, path: &str) -> std::io::Result<Response> {
        self.request("GET", path, None)
    }

    /// `POST path` with a JSON body.
    pub fn post_json(&mut self, path: &str, body: &Json) -> std::io::Result<Response> {
        self.request("POST", path, Some(&body.render()))
    }

    fn read_line(&mut self) -> std::io::Result<String> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        while line.ends_with('\n') || line.ends_with('\r') {
            line.pop();
        }
        Ok(line)
    }

    fn read_response(&mut self) -> std::io::Result<Response> {
        let bad = |m: String| std::io::Error::new(std::io::ErrorKind::InvalidData, m);
        let status_line = self.read_line()?;
        let status = status_line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| bad(format!("bad status line: {status_line:?}")))?;
        let mut headers = Vec::new();
        loop {
            let line = self.read_line()?;
            if line.is_empty() {
                break;
            }
            if let Some((n, v)) = line.split_once(':') {
                headers.push((n.to_ascii_lowercase(), v.trim().to_string()));
            }
        }
        let length = headers
            .iter()
            .find(|(n, _)| n == "content-length")
            .and_then(|(_, v)| v.parse::<usize>().ok())
            .ok_or_else(|| bad("response has no Content-Length".to_string()))?;
        let mut body = vec![0u8; length];
        self.reader.read_exact(&mut body)?;
        let body = String::from_utf8(body).map_err(|_| bad("non-UTF-8 body".to_string()))?;
        Ok(Response {
            status,
            headers,
            body,
        })
    }
}
