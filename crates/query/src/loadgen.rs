//! Served-figure verification for the query plane.
//!
//! Fetch the catalog and every figure in catalog order over one keep-alive
//! connection, reassemble the suite stdout byte-for-byte and compare it
//! against an expected rendering: the served output must be *identical* to
//! the engine's own, or the run reports mismatches (the CLI maps that to its
//! own exit code). The report is one JSON object, which `lockdown loadgen`
//! prints. Load and latency are lockbench's `serve_fit` and `serve_scan`.
//!
//! The client is hand-rolled over `std::net::TcpStream`.

use crate::json;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// The outcome of one verification run.
#[derive(Debug, Clone, Default)]
pub struct LoadReport {
    /// Figures fetched.
    pub figures_verified: u64,
    /// Figures whose served rendering differed from the expectation.
    pub mismatches: u64,
}

impl LoadReport {
    /// Render as a JSON object (what `lockdown loadgen` prints).
    pub fn render_json(&self) -> String {
        format!(
            "{{\n  \"figures_verified\": {},\n  \"mismatches\": {}\n}}",
            self.figures_verified, self.mismatches
        )
    }
}

/// One keep-alive connection with minimal HTTP/1.1 client plumbing.
struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    fn connect(authority: &str) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(authority)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(4096),
        })
    }

    /// Issue one GET, returning (status, body).
    fn get(&mut self, authority: &str, path: &str) -> std::io::Result<(u16, String)> {
        self.stream.write_all(
            format!("GET {path} HTTP/1.1\r\nHost: {authority}\r\nConnection: keep-alive\r\n\r\n")
                .as_bytes(),
        )?;
        let mut chunk = [0u8; 8192];
        let head_end = loop {
            if let Some(p) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break p;
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed mid-response",
                ));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let head = String::from_utf8_lossy(&self.buf[..head_end]).to_string();
        let status: u16 = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| {
                std::io::Error::new(std::io::ErrorKind::InvalidData, "bad status line")
            })?;
        let len: usize = head
            .lines()
            .find_map(|l| {
                let (name, value) = l.split_once(':')?;
                name.eq_ignore_ascii_case("content-length")
                    .then(|| value.trim().parse().ok())?
            })
            .ok_or_else(|| {
                std::io::Error::new(std::io::ErrorKind::InvalidData, "missing content-length")
            })?;
        while self.buf.len() < head_end + 4 + len {
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed mid-body",
                ));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
        let body = String::from_utf8_lossy(&self.buf[head_end + 4..head_end + 4 + len]).to_string();
        self.buf.drain(..head_end + 4 + len);
        Ok((status, body))
    }
}

fn strip_scheme(target: &str) -> &str {
    target
        .strip_prefix("http://")
        .unwrap_or(target)
        .trim_end_matches('/')
}

/// Reassemble what `lockdown figures` would print from served sections:
/// every section followed by a newline, in catalog order.
fn reassemble(sections: &[String]) -> String {
    let mut out = String::new();
    for s in sections {
        out.push_str(s);
        out.push('\n');
    }
    out
}

/// Fetch every figure `target` (`host:port`, an `http://` prefix is
/// accepted) serves and byte-compare the reassembly with `expected`, the
/// figure suite's stdout.
pub fn run(target: &str, expected: &str) -> Result<LoadReport, String> {
    let authority = strip_scheme(target);
    let mut report = LoadReport::default();

    // Catalog fetch doubles as a reachability check.
    let mut conn =
        Conn::connect(authority).map_err(|e| format!("cannot connect to {authority}: {e}"))?;
    let (status, body) = conn
        .get(authority, "/figures")
        .map_err(|e| format!("GET /figures failed: {e}"))?;
    if status != 200 {
        return Err(format!("GET /figures returned {status}"));
    }
    let figures =
        json::string_array(&body, "figures").ok_or("malformed /figures index".to_string())?;

    let mut sections = Vec::with_capacity(figures.len());
    for name in &figures {
        let (status, body) = conn
            .get(authority, &format!("/figures/{name}"))
            .map_err(|e| format!("GET /figures/{name} failed: {e}"))?;
        report.figures_verified += 1;
        if status != 200 {
            report.mismatches += 1;
            sections.push(format!("<status {status}>"));
            continue;
        }
        match json::string_field(&body, "render") {
            Some(render) => sections.push(render),
            None => {
                report.mismatches += 1;
                sections.push("<unparseable>".into());
            }
        }
    }
    let got = reassemble(&sections);
    if got != expected {
        // Count diverging lines so the report carries a magnitude, not
        // just a boolean.
        let expected_lines: Vec<&str> = expected.split_terminator('\n').collect();
        let got_lines: Vec<&str> = got.split_terminator('\n').collect();
        let diverging = expected_lines
            .iter()
            .zip(&got_lines)
            .filter(|(a, b)| a != b)
            .count() as u64
            + expected_lines.len().abs_diff(got_lines.len()) as u64;
        report.mismatches = report.mismatches.max(diverging.max(1));
    }
    Ok(report)
}
