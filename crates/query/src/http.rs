//! A small hand-rolled HTTP/1.1 server over `std::net::TcpListener`.
//!
//! Scope: exactly what the query plane needs. GET only, keep-alive
//! connections, `Content-Length` on every response, a bounded number of
//! concurrent connections (one small-stack thread each — beyond the
//! bound, new connections get an immediate 503), and graceful shutdown:
//! [`Server::shutdown`] stops accepting, lets in-flight requests finish,
//! and joins the accept loop. A malformed request gets a 400 and a
//! closed connection; a panicking handler gets a 500 — the server
//! thread survives both. Every accepted stream sets `TCP_NODELAY` and
//! every response leaves in one write, so no part of it waits on the
//! client's delayed ACK.

use crate::metrics::QueryMetrics;
use lockdown_base::net::{is_tick, Acceptor, Stop, POLL};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One parsed GET request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method (only `GET` reaches a handler).
    pub method: String,
    /// Percent-decoded path, e.g. `/figures/fig9:ISP-CE`.
    pub path: String,
    /// Percent-decoded query pairs in order of appearance.
    pub query: Vec<(String, String)>,
}

/// A response ready to serialize.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "application/json",
            body: body.into_bytes(),
        }
    }

    /// A plain-text response (the `/metrics` exposition format).
    pub fn text(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "text/plain; version=0.0.4",
            body: body.into_bytes(),
        }
    }

    /// A JSON error envelope: `{"error":"..."}`.
    pub fn error(status: u16, message: &str) -> Response {
        Response::json(
            status,
            format!("{{\"error\":\"{}\"}}", crate::json::escape(message)),
        )
    }
}

fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Response",
    }
}

/// The request handler: shared across connection threads.
pub type Handler = Arc<dyn Fn(&Request) -> Response + Send + Sync>;

/// Percent-decode one URL component (`%XX` and `+` → space). A `%` must
/// be followed by two hex digits (RFC 3986), so `%+f` is refused, not
/// read as a signed number.
pub(crate) fn percent_decode(s: &str) -> Option<String> {
    let bytes = s.as_bytes();
    let hex = |j: usize| char::from(*bytes.get(j)?).to_digit(16);
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                out.push((hex(i + 1)? << 4 | hex(i + 2)?) as u8);
                i += 3;
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8(out).ok()
}

/// Parse the request line + headers of one HTTP/1.x request. Returns the
/// request and whether the connection closes after it: a `close` token in
/// any `Connection` header, or HTTP/1.0 without a `keep-alive` token.
fn parse_request(head: &str) -> Option<(Request, bool)> {
    let mut lines = head.split("\r\n");
    let request_line = lines.next()?;
    let mut parts = request_line.split(' ');
    let method = parts.next()?.to_string();
    let target = parts.next()?;
    let version = parts.next()?;
    if parts.next().is_some() || !version.starts_with("HTTP/1.") {
        return None;
    }
    let (raw_path, raw_query) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target, None),
    };
    if !raw_path.starts_with('/') {
        return None;
    }
    let path = percent_decode(raw_path)?;
    let mut query = Vec::new();
    if let Some(q) = raw_query {
        for pair in q.split('&').filter(|p| !p.is_empty()) {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            query.push((percent_decode(k)?, percent_decode(v)?));
        }
    }
    let mut keep_alive = version != "HTTP/1.0";
    let mut close = false;
    for (name, value) in lines.filter_map(|line| line.split_once(':')) {
        if name.eq_ignore_ascii_case("connection") {
            for token in value.split(',').map(str::trim) {
                close |= token.eq_ignore_ascii_case("close");
                keep_alive |= token.eq_ignore_ascii_case("keep-alive");
            }
        }
    }
    Some((
        Request {
            method,
            path,
            query,
        },
        close || !keep_alive,
    ))
}

const MAX_HEAD: usize = 8 * 1024;

/// Send one response — head and body — in a single write.
fn write_response(out: &mut impl Write, resp: &Response, close: bool) -> std::io::Result<()> {
    let mut wire = Vec::with_capacity(128 + resp.body.len());
    write!(
        wire,
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
        resp.status,
        status_reason(resp.status),
        resp.content_type,
        resp.body.len(),
        if close { "close" } else { "keep-alive" },
    )?;
    wire.extend_from_slice(&resp.body);
    out.write_all(&wire)?;
    out.flush()
}

/// Serve one connection until EOF, a protocol error, `Connection:
/// close`, or shutdown.
fn serve_connection(mut stream: TcpStream, handler: &Handler, metrics: &QueryMetrics, stop: &Stop) {
    if stream.set_read_timeout(Some(POLL)).is_err() {
        return;
    }
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    loop {
        // Accumulate until a full header block (or give up).
        let head_end = loop {
            if let Some(pos) = find_head_end(&buf) {
                break pos;
            }
            if buf.len() > MAX_HEAD {
                let _ = write_response(
                    &mut stream,
                    &Response::error(431, "headers too large"),
                    true,
                );
                return;
            }
            match stream.read(&mut chunk) {
                Ok(0) => return, // client closed between requests
                Ok(n) => buf.extend_from_slice(&chunk[..n]),
                // Idle poll tick (or a signal, which is not a dead
                // connection either): drain, but never strand a client
                // mid-request — only close when no bytes are pending.
                // Bytes already buffered (a slow writer mid-header) stay
                // put; the next tick keeps accumulating.
                Err(e) if is_tick(&e) => {
                    if stop.is_stopped() && buf.is_empty() {
                        return;
                    }
                }
                Err(_) => return,
            }
        };
        let head = match std::str::from_utf8(&buf[..head_end]) {
            Ok(h) => h,
            Err(_) => {
                let _ = write_response(
                    &mut stream,
                    &Response::error(400, "malformed request"),
                    true,
                );
                return;
            }
        };
        metrics.requests.inc();
        let started = Instant::now();
        let (resp, close) = match parse_request(head) {
            None => (Response::error(400, "malformed request"), true),
            Some((req, _)) if req.method != "GET" => {
                // A non-GET may carry a body this server never reads;
                // closing keeps the stream from desyncing.
                (Response::error(405, "only GET is served"), true)
            }
            Some((req, client_close)) => {
                let resp = catch_unwind(AssertUnwindSafe(|| handler(&req)))
                    .unwrap_or_else(|_| Response::error(500, "handler panicked"));
                (resp, client_close)
            }
        };
        let close = close || stop.is_stopped();
        metrics.observe_status(resp.status);
        let written = write_response(&mut stream, &resp, close);
        metrics.observe_latency_us(started.elapsed().as_micros() as u64);
        if written.is_err() || close {
            return;
        }
        // GET has no body: anything past the head is the next request.
        buf.drain(..head_end + 4);
    }
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// A running server: accept loop plus per-connection threads. Dropped,
/// it stops accepting and closes its listener at once.
pub struct Server {
    acceptor: Acceptor,
}

impl Server {
    /// Start serving `listener` with at most `max_connections` concurrent
    /// connections (the bound on the thread pool — connections beyond it
    /// are answered 503 and closed without dispatch).
    pub fn start(
        listener: TcpListener,
        max_connections: usize,
        metrics: Arc<QueryMetrics>,
        handler: Handler,
    ) -> std::io::Result<Server> {
        let acceptor = Acceptor::spawn("query", listener, move |mut stream, live| {
            let _ = stream.set_nodelay(true);
            if live >= max_connections {
                metrics.requests.inc();
                metrics.observe_status(503);
                let _ = write_response(
                    &mut stream,
                    &Response::error(503, "connection limit reached"),
                    true,
                );
                return None;
            }
            let (handler, metrics) = (Arc::clone(&handler), Arc::clone(&metrics));
            Some(move |stop: &Stop| serve_connection(stream, &handler, &metrics, stop))
        })?;
        Ok(Server { acceptor })
    }

    /// The bound address (useful with `--addr host:0`).
    pub fn addr(&self) -> SocketAddr {
        self.acceptor.addr()
    }

    /// Graceful shutdown: stop accepting, and let in-flight requests
    /// finish for at most `drain` (idle keep-alive connections notice the
    /// stop within one poll tick).
    pub fn shutdown(mut self, drain: Duration) {
        self.acceptor.shutdown(drain);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_request_lines_and_queries() {
        let (req, close) =
            parse_request("GET /query?from=10&vantage=isp%2Dce&x=a+b HTTP/1.1\r\nHost: h\r\n")
                .unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/query");
        assert_eq!(
            req.query,
            vec![
                ("from".into(), "10".into()),
                ("vantage".into(), "isp-ce".into()),
                ("x".into(), "a b".into()),
            ]
        );
        assert!(!close);
        let closes = |head| parse_request(head).unwrap().1;
        assert!(closes("GET / HTTP/1.1\r\nConnection: close\r\n"));
        // `Connection` is a token list, and a `close` in any line wins.
        assert!(closes(
            "GET / HTTP/1.1\r\nConnection: keep-alive, close\r\n"
        ));
        assert!(closes(
            "GET / HTTP/1.1\r\nConnection: close\r\nConnection: keep-alive\r\n"
        ));
        assert!(closes("GET / HTTP/1.0\r\n"));
        assert!(!closes("GET / HTTP/1.0\r\nConnection: Keep-Alive\r\n"));
        assert!(parse_request("FLY / TO/1.1\r\n").is_none());
        assert!(parse_request("GET no-slash HTTP/1.1\r\n").is_none());
        // A `%` takes exactly two hex digits: no sign, no short escape.
        for bad in ["/a%+f", "/a%f", "/a%zz"] {
            let head = format!("GET {bad} HTTP/1.1\r\n");
            assert!(parse_request(&head).is_none(), "{bad}");
        }
        assert_eq!(
            parse_request("GET /a%0f HTTP/1.1\r\n").unwrap().0.path,
            "/a\u{f}"
        );
    }

    #[test]
    fn server_smoke_keep_alive_and_shutdown() {
        let metrics = QueryMetrics::new();
        let handler: Handler = Arc::new(|req: &Request| {
            if req.path == "/boom" {
                panic!("handler exploded");
            }
            Response::json(200, format!("{{\"path\":\"{}\"}}", req.path))
        });
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let server = Server::start(listener, 4, Arc::clone(&metrics), handler).unwrap();
        let mut s = TcpStream::connect(server.addr()).unwrap();

        // Two requests on one connection (keep-alive).
        for path in ["/a", "/b"] {
            s.write_all(format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes())
                .unwrap();
            let resp = read_response(&mut s);
            assert!(resp.contains("200 OK"), "{resp}");
            assert!(resp.contains(&format!("{{\"path\":\"{path}\"}}")));
        }

        // A panicking handler answers 500 and the server survives.
        s.write_all(b"GET /boom HTTP/1.1\r\nHost: t\r\n\r\n")
            .unwrap();
        assert!(read_response(&mut s).contains("500"));
        s.write_all(b"GET /after HTTP/1.1\r\nHost: t\r\n\r\n")
            .unwrap();
        assert!(read_response(&mut s).contains("200 OK"));

        // Malformed request: 400, connection closed.
        let mut bad = TcpStream::connect(server.addr()).unwrap();
        bad.write_all(b"NOT A REQUEST\r\n\r\n").unwrap();
        assert!(read_response(&mut bad).contains("400"));

        assert_eq!(metrics.requests.get(), 5);
        assert_eq!(metrics.responses_5xx.get(), 1);
        // Latency is observed after the write: once the drain has joined
        // every connection, each answered request has its observation.
        server.shutdown(Duration::from_secs(2));
        assert_eq!(metrics.latency_count.get(), 5);
    }

    #[test]
    fn slow_writer_straddling_poll_ticks_is_reassembled() {
        // Trickle a request one byte at a time so the header spans many
        // POLL read-timeout boundaries. Every timeout tick must leave the
        // buffered prefix intact — the request is answered 200, not 400,
        // and the connection stays usable afterwards.
        let metrics = QueryMetrics::new();
        let handler: Handler =
            Arc::new(|req: &Request| Response::json(200, format!("{{\"path\":\"{}\"}}", req.path)));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let server = Server::start(listener, 2, Arc::clone(&metrics), handler).unwrap();
        let mut s = TcpStream::connect(server.addr()).unwrap();

        let request = b"GET /slow HTTP/1.1\r\nHost: t\r\n\r\n";
        // One byte per POLL: the ~30-byte head straddles about as many
        // timeout ticks.
        for &b in request.iter() {
            s.write_all(&[b]).unwrap();
            s.flush().unwrap();
            std::thread::sleep(POLL);
        }
        let resp = read_response(&mut s);
        assert!(resp.contains("200 OK"), "slow writer got: {resp}");
        assert!(resp.contains("{\"path\":\"/slow\"}"));

        // The same connection still serves a fast request.
        s.write_all(b"GET /fast HTTP/1.1\r\nHost: t\r\n\r\n")
            .unwrap();
        assert!(read_response(&mut s).contains("200 OK"));
        assert_eq!(metrics.responses_4xx.get(), 0, "no spurious 400s");
        server.shutdown(Duration::from_secs(2));
    }

    #[test]
    fn request_head_split_at_every_byte_boundary_is_reassembled() {
        // The straddle test above covers the byte-per-tick extreme; this
        // one covers every *single* split point — any prefix/suffix
        // segmentation a hostile wire (or a chaos proxy in split mode)
        // can produce must reassemble to exactly one 200, on one
        // keep-alive connection, with zero spurious 400s.
        let metrics = QueryMetrics::new();
        let handler: Handler =
            Arc::new(|req: &Request| Response::json(200, format!("{{\"path\":\"{}\"}}", req.path)));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let server = Server::start(listener, 2, Arc::clone(&metrics), handler).unwrap();
        let mut s = TcpStream::connect(server.addr()).unwrap();
        s.set_nodelay(true).unwrap();

        let request = b"GET /split HTTP/1.1\r\nHost: t\r\n\r\n";
        for cut in 1..request.len() {
            s.write_all(&request[..cut]).unwrap();
            s.flush().unwrap();
            // Let the first fragment land in its own poll read.
            std::thread::sleep(Duration::from_millis(2));
            s.write_all(&request[cut..]).unwrap();
            let resp = read_response(&mut s);
            assert!(resp.contains("200 OK"), "split at {cut} got: {resp}");
        }
        assert_eq!(metrics.responses_4xx.get(), 0, "no spurious 400s");
        assert_eq!(metrics.requests.get(), (request.len() - 1) as u64);
        server.shutdown(Duration::from_secs(2));
    }

    #[test]
    fn mid_response_client_reset_does_not_kill_the_server() {
        // A client that asks for a response and slams the door while the
        // server writes it (closing with unread data in the receive
        // queue makes the kernel send RST): the connection thread must
        // die quietly — no panic, no wedged slot — and the server must
        // keep serving everyone else.
        let metrics = QueryMetrics::new();
        let handler: Handler = Arc::new(|_req: &Request| {
            // A response large enough that the write outlives a rude
            // client's departure.
            Response::json(200, format!("{{\"blob\":\"{}\"}}", "x".repeat(1 << 20)))
        });
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let server = Server::start(listener, 4, Arc::clone(&metrics), handler).unwrap();

        for _ in 0..3 {
            let rude = TcpStream::connect(server.addr()).unwrap();
            let mut rude = rude;
            rude.write_all(b"GET /big HTTP/1.1\r\nHost: t\r\n\r\n")
                .unwrap();
            // Read a few bytes so the server is mid-write, then slam the
            // door on the rest — an abortive close, from the server's
            // point of view a connection reset mid-response.
            let mut first = [0u8; 64];
            let _ = rude.read(&mut first);
            drop(rude);
        }

        // Survivors are served, repeatedly, on a fresh connection.
        let mut s = TcpStream::connect(server.addr()).unwrap();
        for _ in 0..2 {
            s.write_all(b"GET /after HTTP/1.1\r\nHost: t\r\n\r\n")
                .unwrap();
            let resp = read_response(&mut s);
            assert!(resp.contains("200 OK"), "{}", &resp[..resp.len().min(200)]);
        }
        // Reset connections drain their slots; nothing stays wedged.
        let deadline = Instant::now() + Duration::from_secs(5);
        let active = || server.acceptor.live();
        while active() > 1 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(active() <= 1, "reset slots drained");
        server.shutdown(Duration::from_secs(2));
    }

    #[test]
    fn a_keep_alive_client_is_served_beside_a_rude_neighbour() {
        // While a rogue client keeps resetting mid-response, a
        // well-behaved client's keep-alive connection must answer every
        // request 200: the rude neighbour's wreckage must not leak into
        // anyone else's exchanges.
        let metrics = QueryMetrics::new();
        let handler: Handler = Arc::new(|req: &Request| match req.path.as_str() {
            // Large enough that the write outlives the rogue's departure.
            "/big" => Response::json(200, format!("{{\"blob\":\"{}\"}}", "x".repeat(1 << 18))),
            _ => Response::json(200, "{\"ok\":true}".into()),
        });
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let server = Server::start(listener, 64, Arc::clone(&metrics), handler).unwrap();
        let addr = server.addr();

        // The rogue reports each reset and stops once the client hangs
        // up the channel.
        let (reset, resets) = std::sync::mpsc::channel::<()>();
        let rude = std::thread::spawn(move || loop {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(b"GET /big HTTP/1.1\r\nHost: t\r\n\r\n")
                .unwrap();
            let mut b = [0u8; 8];
            let _ = s.read(&mut b);
            drop(s);
            if reset.send(()).is_err() {
                break;
            }
        });

        let mut s = TcpStream::connect(addr).unwrap();
        s.set_nodelay(true).unwrap();
        for i in 0..200 {
            if i % 10 == 0 {
                // Wait for a reset that lands after the previous request.
                while resets.try_recv().is_ok() {}
                resets.recv().expect("the rogue keeps resetting");
            }
            s.write_all(b"GET /ok HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
            let resp = read_response(&mut s);
            assert!(resp.starts_with("HTTP/1.1 200 OK"), "request {i}: {resp}");
        }
        drop(resets);
        rude.join().unwrap();
        server.shutdown(Duration::from_secs(2));
    }

    fn echo_server(addr: &str) -> Server {
        let handler: Handler = Arc::new(|req: &Request| Response::json(200, req.path.clone()));
        let listener = TcpListener::bind(addr).unwrap();
        Server::start(listener, 2, QueryMetrics::new(), handler).unwrap()
    }

    #[test]
    fn a_dropped_server_closes_its_port() {
        let server = echo_server("127.0.0.1:0");
        let addr = server.addr();
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(b"GET /a HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        assert!(read_response(&mut s).contains("200 OK"));
        drop(server);
        assert!(TcpStream::connect(addr).is_err(), "still accepting");
    }

    #[test]
    fn a_server_on_every_interface_shuts_down_within_its_drain() {
        // The accept loop is woken over loopback, not at 0.0.0.0.
        let server = echo_server("0.0.0.0:0");
        let port = server.addr().port();
        // An idle keep-alive client holds a connection thread open.
        let _idle = TcpStream::connect(("127.0.0.1", port)).unwrap();
        let drain = Duration::from_millis(500);
        let started = Instant::now();
        server.shutdown(drain);
        let took = started.elapsed();
        assert!(took < drain, "shutdown took {took:?}");
        assert!(TcpStream::connect(("127.0.0.1", port)).is_err());
    }

    /// A sink that counts the `write` calls it is handed.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn every_response_goes_out_in_one_write() {
        // A head written apart from its body waits, under Nagle, for the
        // client's delayed ACK: the whole response is one write.
        let cases = [
            (Response::json(200, "{\"ok\":true}".into()), false),
            (Response::json(200, "x".repeat(1 << 20)), false),
            (Response::error(400, "malformed request"), true),
            (Response::error(431, "headers too large"), true),
            (Response::error(503, "connection limit reached"), true),
        ];
        for (resp, close) in cases {
            let mut sink = CountingWriter::default();
            write_response(&mut sink, &resp, close).unwrap();
            assert_eq!(sink.writes, 1, "status {}", resp.status);
            let head_end = find_head_end(&sink.bytes).expect("a head") + 4;
            let head = std::str::from_utf8(&sink.bytes[..head_end]).unwrap();
            assert!(head.starts_with(&format!("HTTP/1.1 {} ", resp.status)));
            assert!(head.contains(&format!("Content-Length: {}\r\n", resp.body.len())));
            assert_eq!(&sink.bytes[head_end..], &resp.body[..]);
        }
    }

    #[test]
    fn keep_alive_round_trips_never_wait_on_a_delayed_ack() {
        // Bodies from under one loopback segment to over it. A response
        // whose tail waits on the client's delayed ACK costs >= 40 ms; a
        // head written apart from a small body does so every time, so the
        // 38 small round trips alone would take >= 1.5 s.
        const SIZES: [usize; 4] = [100, 1_000, 10_000, 100_000];
        let metrics = QueryMetrics::new();
        let handler: Handler = Arc::new(|req: &Request| {
            let size: usize = req.path[1..].parse().expect("a body size");
            Response::json(200, "x".repeat(size))
        });
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let server = Server::start(listener, 2, Arc::clone(&metrics), handler).unwrap();
        let mut s = TcpStream::connect(server.addr()).unwrap();
        let started = Instant::now();
        for size in SIZES.iter().cycle().take(50) {
            s.write_all(format!("GET /{size} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes())
                .unwrap();
            let resp = read_response(&mut s);
            assert!(resp.contains("200 OK") && resp.ends_with(&"x".repeat(*size)));
        }
        let took = started.elapsed();
        assert!(
            took < Duration::from_secs(1),
            "50 round trips took {took:?}"
        );
        drop(s);
        server.shutdown(Duration::from_secs(2));
    }

    fn read_response(s: &mut TcpStream) -> String {
        // Responses always carry Content-Length; read head, then body.
        let mut buf = Vec::new();
        let mut chunk = [0u8; 1024];
        let head_end = loop {
            if let Some(p) = find_head_end(&buf) {
                break p;
            }
            let n = s.read(&mut chunk).unwrap();
            assert!(n > 0, "connection closed mid-response");
            buf.extend_from_slice(&chunk[..n]);
        };
        let head = String::from_utf8_lossy(&buf[..head_end]).to_string();
        let len: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .unwrap()
            .parse()
            .unwrap();
        while buf.len() < head_end + 4 + len {
            let n = s.read(&mut chunk).unwrap();
            assert!(n > 0);
            buf.extend_from_slice(&chunk[..n]);
        }
        String::from_utf8_lossy(&buf[..head_end + 4 + len]).to_string()
    }
}
