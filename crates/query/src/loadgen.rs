//! Concurrent load generator for the query plane.
//!
//! Two phases. **Verify** (optional): fetch every figure in catalog
//! order over one connection, reassemble the suite stdout byte-for-byte
//! and compare against an expected rendering — the served output must be
//! *identical* to the engine's own, or the run reports mismatches (the
//! CLI maps that to its own exit code). **Load**: N OS threads, one
//! keep-alive connection each, drive a seeded request mix (ad-hoc
//! `/query` plans, figure fetches, `/metrics` scrapes) until the
//! deadline, recording per-request latency. The report carries
//! throughput and p50/p99/p999, which `lockdown loadgen` prints as one
//! JSON object.
//!
//! The client is hand-rolled over `std::net::TcpStream`, sharing the
//! request mix's determinism guarantees: same seed, same sequence of
//! paths per client.

use crate::json;
use crate::plan::{stream_keys, QueryPlan, CLASS_KEYS};
use lockdown_base::hash::SplitMix;
use lockdown_flow::time::Date;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What to drive, and how hard.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Target authority, `host:port` (an `http://` prefix is accepted).
    pub target: String,
    /// Concurrent clients (one keep-alive connection each).
    pub clients: usize,
    /// Load-phase duration in seconds (0 skips the load phase).
    pub duration_secs: f64,
    /// Seed for the per-client request mix.
    pub seed: u64,
    /// Expected figure-suite stdout; when set, the verify phase fetches
    /// every served figure and byte-compares the reassembly.
    pub expect: Option<String>,
}

/// The outcome: verification result plus latency/throughput numbers.
#[derive(Debug, Clone, Default)]
pub struct LoadReport {
    /// Clients driven.
    pub clients: usize,
    /// Wall-clock seconds of the load phase.
    pub secs: f64,
    /// HTTP exchanges completed during the load phase, 2xx or not.
    pub requests: u64,
    /// Transport errors (connect/read/write failures): the exchange never
    /// completed, so it contributes no status and no latency sample.
    pub errors: u64,
    /// Completed exchanges with a non-2xx status (e.g. 503 backpressure
    /// rejections). Excluded from the latency percentiles: an error
    /// fast-path answers in microseconds and would deflate — or, behind a
    /// saturated listener, inflate — p99 for real work.
    pub failed_status: u64,
    /// Successful (2xx) exchanges — the population behind the latency
    /// percentiles. `requests == latency_samples + failed_status`.
    pub latency_samples: u64,
    /// Requests per second.
    pub rps: f64,
    /// Median request latency, microseconds.
    pub p50_us: u64,
    /// 99th-percentile latency, microseconds.
    pub p99_us: u64,
    /// 99.9th-percentile latency, microseconds.
    pub p999_us: u64,
    /// Figures fetched in the verify phase.
    pub figures_verified: u64,
    /// Figures whose served rendering differed from the expectation.
    pub mismatches: u64,
}

impl LoadReport {
    /// Render as a JSON object (what `lockdown loadgen` prints).
    pub fn render_json(&self) -> String {
        format!(
            "{{\n  \"clients\": {},\n  \"secs\": {:.3},\n  \"requests\": {},\n  \"errors\": {},\n  \"failed_status\": {},\n  \"latency_samples\": {},\n  \"rps\": {:.1},\n  \"p50_us\": {},\n  \"p99_us\": {},\n  \"p999_us\": {},\n  \"figures_verified\": {},\n  \"mismatches\": {}\n}}",
            self.clients,
            self.secs,
            self.requests,
            self.errors,
            self.failed_status,
            self.latency_samples,
            self.rps,
            self.p50_us,
            self.p99_us,
            self.p999_us,
            self.figures_verified,
            self.mismatches
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

/// A seeded dashboard-style request: mostly ad-hoc queries, some figure
/// fetches, some metrics scrapes.
fn pick_path(rng: &mut SplitMix, figures: &[String]) -> String {
    let scenario_start = Date::new(2020, 1, 1).midnight().unix();
    match rng.next_u64() % 10 {
        0..=5 => {
            let mut plan = QueryPlan::default();
            let day = 86_400;
            let from = scenario_start + (rng.next_u64() % 180) * day;
            plan.from = Some(from);
            plan.to = Some(from + (1 + rng.next_u64() % 14) * day);
            let streams = stream_keys();
            plan.stream = Some(streams[(rng.next_u64() as usize) % streams.len()].1);
            match rng.next_u64() % 4 {
                0 => plan.port = Some([443, 80, 3389, 8801, 51820][(rng.next_u64() as usize) % 5]),
                1 => plan.class = Some(CLASS_KEYS[(rng.next_u64() as usize) % CLASS_KEYS.len()].1),
                _ => {}
            }
            format!("/query?{}", plan.to_query_string())
        }
        6..=7 if !figures.is_empty() => {
            format!(
                "/figures/{}",
                figures[(rng.next_u64() as usize) % figures.len()]
            )
        }
        8 => "/metrics".into(),
        _ => "/figures".into(),
    }
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

/// Run the verify phase (when configured) and the load phase.
pub fn run(cfg: &LoadConfig) -> Result<LoadReport, String> {
    let authority = strip_scheme(&cfg.target).to_string();
    let mut report = LoadReport {
        clients: cfg.clients,
        ..LoadReport::default()
    };

    // Catalog fetch doubles as a reachability check.
    let mut conn =
        Conn::connect(&authority).map_err(|e| format!("cannot connect to {authority}: {e}"))?;
    let (status, body) = conn
        .get(&authority, "/figures")
        .map_err(|e| format!("GET /figures failed: {e}"))?;
    if status != 200 {
        return Err(format!("GET /figures returned {status}"));
    }
    let figures =
        json::string_array(&body, "figures").ok_or("malformed /figures index".to_string())?;

    if let Some(expected) = &cfg.expect {
        let mut sections = Vec::with_capacity(figures.len());
        for name in &figures {
            let (status, body) = conn
                .get(&authority, &format!("/figures/{name}"))
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
        if &reassemble(&sections) != expected {
            // Count diverging lines so the report carries a magnitude,
            // not just a boolean.
            let expected_sections: Vec<&str> = expected.split_terminator('\n').collect();
            let got = reassemble(&sections);
            let got_sections: Vec<&str> = got.split_terminator('\n').collect();
            let diverging = expected_sections
                .iter()
                .zip(&got_sections)
                .filter(|(a, b)| a != b)
                .count() as u64
                + expected_sections.len().abs_diff(got_sections.len()) as u64;
            report.mismatches = report.mismatches.max(diverging.max(1));
        }
    }

    if cfg.duration_secs <= 0.0 || cfg.clients == 0 {
        return Ok(report);
    }

    let errors = Arc::new(AtomicU64::new(0));
    let failed = Arc::new(AtomicU64::new(0));
    let figures = Arc::new(figures);
    let deadline = Instant::now() + Duration::from_secs_f64(cfg.duration_secs);
    let started = Instant::now();
    let mut workers = Vec::with_capacity(cfg.clients);
    for client in 0..cfg.clients {
        let authority = authority.clone();
        let figures = Arc::clone(&figures);
        let errors = Arc::clone(&errors);
        let failed = Arc::clone(&failed);
        let mut rng = SplitMix::new(cfg.seed ^ (client as u64).wrapping_mul(0xA076_1D64_78BD_642F));
        let worker = std::thread::Builder::new()
            .name(format!("loadgen-{client}"))
            .stack_size(256 * 1024)
            .spawn(move || {
                let mut latencies: Vec<u64> = Vec::new();
                let mut completed: u64 = 0;
                let mut conn = None;
                while Instant::now() < deadline {
                    let c = match conn {
                        Some(ref mut c) => c,
                        None => match Conn::connect(&authority) {
                            Ok(c) => conn.insert(c),
                            Err(_) => {
                                errors.fetch_add(1, Ordering::Relaxed);
                                std::thread::sleep(Duration::from_millis(10));
                                continue;
                            }
                        },
                    };
                    let path = pick_path(&mut rng, &figures);
                    let t = Instant::now();
                    match c.get(&authority, &path) {
                        Ok((status, _)) => {
                            completed += 1;
                            if (200..300).contains(&status) {
                                // Only successful exchanges feed the
                                // percentiles: a 503 fast-path answers in
                                // microseconds and would skew the latency
                                // distribution of real work.
                                latencies.push(t.elapsed().as_micros() as u64);
                            } else {
                                failed.fetch_add(1, Ordering::Relaxed);
                                // A 503 (connection limit) closes the
                                // stream server-side; reconnect.
                                if status == 503 {
                                    conn = None;
                                }
                            }
                        }
                        Err(_) => {
                            errors.fetch_add(1, Ordering::Relaxed);
                            conn = None;
                        }
                    }
                }
                (latencies, completed)
            })
            .map_err(|e| format!("spawning client {client}: {e}"))?;
        workers.push(worker);
    }
    let mut latencies: Vec<u64> = Vec::new();
    let mut requests: u64 = 0;
    for w in workers {
        let (lat, completed) = w.join().map_err(|_| "client thread panicked".to_string())?;
        latencies.extend(lat);
        requests += completed;
    }
    report.secs = started.elapsed().as_secs_f64();
    report.requests = requests;
    report.latency_samples = latencies.len() as u64;
    report.errors = errors.load(Ordering::Relaxed);
    report.failed_status = failed.load(Ordering::Relaxed);
    report.rps = report.requests as f64 / report.secs.max(1e-9);
    latencies.sort_unstable();
    report.p50_us = percentile(&latencies, 0.50);
    report.p99_us = percentile(&latencies, 0.99);
    report.p999_us = percentile(&latencies, 0.999);
    Ok(report)
}

fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_and_mix_are_deterministic() {
        assert_eq!(percentile(&[], 0.5), 0);
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 0.999), 100);

        let figures = vec!["fig1".to_string(), "fig2a".to_string()];
        let mut a = SplitMix::new(42);
        let mut b = SplitMix::new(42);
        let seq_a: Vec<String> = (0..50).map(|_| pick_path(&mut a, &figures)).collect();
        let seq_b: Vec<String> = (0..50).map(|_| pick_path(&mut b, &figures)).collect();
        assert_eq!(seq_a, seq_b, "same seed, same mix");
        assert!(seq_a.iter().any(|p| p.starts_with("/query?")));
        assert!(seq_a.iter().any(|p| p.starts_with("/figures/")));
        assert!(seq_a.iter().any(|p| p == "/metrics"));
        // Every generated query must be parseable by the server side.
        for p in seq_a.iter().filter(|p| p.starts_with("/query?")) {
            let pairs: Vec<(&str, &str)> = p["/query?".len()..]
                .split('&')
                .map(|kv| kv.split_once('=').unwrap())
                .collect();
            QueryPlan::parse(pairs).unwrap();
        }
    }
}
