//! The load generator's side of the serve workloads: a keep-alive HTTP/1.1
//! client and the seeded request mix.
//!
//! The mix has `loadgen`'s proportions (60% `/query` over 1–14-day windows
//! with an optional port or class predicate, 20% `/figures/<name>`, 10%
//! `/metrics`, 10% `/figures`) but is a fixed *sequence* per client made
//! here, not a duration-driven draw inside the program: every run of one
//! seed, on either side of a comparison, sends the same requests, so a
//! percentile is a percentile of the same work.
//!
//! What decides a request's cost — its kind, the window (the archive holds
//! only the weeks the figures need, so where a window starts decides how
//! many segments it touches), the stream and whether it carries a port or a
//! class predicate — is a function of its position alone; the seed decides
//! which port or class, which figure, the order, and every flow in the
//! archive. Two seeds therefore send different requests of the same weight,
//! and a latency percentile is comparable from seed to seed.

use lockdown::flow::time::Date;
use lockdown::query::plan::{stream_keys, QueryPlan, CLASS_KEYS};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// SplitMix64 step: the benchmark's own input generator.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One request of the mix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Planned {
    /// Request target, e.g. `/query?from=...`.
    pub path: String,
    /// The plan behind a `/query` request, for checking its answer.
    pub plan: Option<QueryPlan>,
}

/// Ports the mix asks about: web, RDP, Zoom, WireGuard.
const MIX_PORTS: [u16; 5] = [443, 80, 3389, 8801, 51820];

/// Days of the scenario a query window may start in.
const MIX_START_DAYS: u64 = 180;

/// Stateless mix of a position into the bits that shape a request.
fn shape(position: u64) -> u64 {
    let mut state = position.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    splitmix64(&mut state)
}

/// The fixed request sequence of client `client` of `clients`: `len`
/// requests, six in ten of them queries.
pub fn request_sequence(
    seed: u64,
    client: usize,
    clients: usize,
    len: usize,
    figures: &[String],
) -> Vec<Planned> {
    let mut rng = seed ^ (client as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F);
    let scenario_start = Date::new(2020, 1, 1).midnight().unix();
    let streams = stream_keys();
    let pick = |rng: &mut u64, n: usize| (splitmix64(rng) % n as u64) as usize;
    let mut sequence: Vec<Planned> = (0..len)
        .map(|i| match i % 10 {
            0..=5 => {
                let h = shape((i * clients + client) as u64);
                let day = 86_400;
                let from = scenario_start + ((h >> 24) % MIX_START_DAYS) * day;
                let mut plan = QueryPlan {
                    from: Some(from),
                    to: Some(from + (1 + h % 14) * day),
                    stream: Some(streams[((h >> 8) % streams.len() as u64) as usize].1),
                    ..QueryPlan::default()
                };
                match (h >> 16) % 4 {
                    0 => plan.port = Some(MIX_PORTS[pick(&mut rng, MIX_PORTS.len())]),
                    1 => plan.class = Some(CLASS_KEYS[pick(&mut rng, CLASS_KEYS.len())].1),
                    _ => {}
                }
                Planned {
                    path: format!("/query?{}", plan.to_query_string()),
                    plan: Some(plan),
                }
            }
            6 | 7 => Planned {
                path: format!("/figures/{}", figures[pick(&mut rng, figures.len())]),
                plan: None,
            },
            8 => Planned {
                path: "/metrics".into(),
                plan: None,
            },
            _ => Planned {
                path: "/figures".into(),
                plan: None,
            },
        })
        .collect();
    for i in (1..sequence.len()).rev() {
        sequence.swap(i, pick(&mut rng, i + 1));
    }
    sequence
}

/// One keep-alive connection.
pub struct Conn {
    stream: TcpStream,
    host: String,
    buf: Vec<u8>,
}

fn invalid(what: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string())
}

impl Conn {
    /// Connect to the server under test.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            stream,
            host: addr.to_string(),
            buf: Vec::with_capacity(16 * 1024),
        })
    }

    /// Issue one GET and read the whole response: `(status, body)`.
    pub fn get(&mut self, path: &str) -> std::io::Result<(u16, Vec<u8>)> {
        let request = format!(
            "GET {path} HTTP/1.1\r\nHost: {}\r\nConnection: keep-alive\r\n\r\n",
            self.host
        );
        self.stream.write_all(request.as_bytes())?;
        let mut chunk = [0u8; 16 * 1024];
        let head_end = loop {
            if let Some(p) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break p;
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let head = String::from_utf8_lossy(&self.buf[..head_end]).to_string();
        let status: u16 = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| invalid("bad status line"))?;
        let len: usize = head
            .lines()
            .find_map(|l| {
                let (name, value) = l.split_once(':')?;
                name.eq_ignore_ascii_case("content-length")
                    .then(|| value.trim().parse().ok())?
            })
            .ok_or_else(|| invalid("missing content-length"))?;
        let total = head_end + 4 + len;
        while self.buf.len() < total {
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
        let body = self.buf[head_end + 4..total].to_vec();
        self.buf.drain(..total);
        Ok((status, body))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn figures() -> Vec<String> {
        vec!["fig1".into(), "fig9:ISP-CE".into()]
    }

    #[test]
    fn one_seed_one_sequence_and_clients_differ() {
        let a = request_sequence(7, 0, 2, 300, &figures());
        assert_eq!(a, request_sequence(7, 0, 2, 300, &figures()));
        assert_ne!(a, request_sequence(7, 1, 2, 300, &figures()));
        assert_ne!(a, request_sequence(8, 0, 2, 300, &figures()));
    }

    #[test]
    fn two_seeds_send_requests_of_the_same_weight() {
        let weight = |seed: u64| {
            let mut w: Vec<(u64, u64, String, bool, bool)> =
                request_sequence(seed, 1, 2, 300, &figures())
                    .iter()
                    .filter_map(|p| p.plan)
                    .map(|p| {
                        let stream = format!("{:?}", p.stream.unwrap());
                        (
                            p.from.unwrap(),
                            p.to.unwrap(),
                            stream,
                            p.port.is_some(),
                            p.class.is_some(),
                        )
                    })
                    .collect();
            w.sort();
            w
        };
        assert_eq!(weight(7), weight(8));
        let days = |w: &(u64, u64, String, bool, bool)| (w.1 - w.0) / 86_400;
        assert!(weight(7).iter().any(|w| days(w) == 1));
        assert!(weight(7).iter().any(|w| days(w) == 14));
    }

    #[test]
    fn the_mix_has_loadgens_proportions_and_parses_server_side() {
        let seq = request_sequence(0x10CD_2020, 0, 2, 400, &figures());
        let count = |prefix: &str| seq.iter().filter(|p| p.path.starts_with(prefix)).count();
        assert_eq!(count("/query?"), 240);
        assert_eq!(count("/figures/"), 80);
        assert_eq!(count("/metrics"), 40);
        assert_eq!(count("/figures"), 120);
        for p in seq.iter().filter(|p| p.plan.is_some()) {
            let pairs: Vec<(&str, &str)> = p.path["/query?".len()..]
                .split('&')
                .map(|kv| kv.split_once('=').unwrap())
                .collect();
            assert_eq!(QueryPlan::parse(pairs).unwrap(), p.plan.unwrap());
        }
    }
}
