//! Socket lifecycle, said once, for every socket plane (the chaos proxy,
//! serve, collectd, the shard worker): the one poll tick [`POLL`] and
//! [`is_tick`], which tells its timeout from a failure; the [`Stop`]
//! handle, whose [`Stop::sleep`] returns the moment it is stopped; the
//! [`Acceptor`] accept loop, which blocks in `accept()` so a client's first
//! request waits on no tick; and [`accept_within`], the one non-blocking
//! accept.

use std::io;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The poll tick: the longest a socket read that must notice a stop
/// blocks before its loop looks again.
pub const POLL: Duration = Duration::from_millis(20);

/// Stack of a connection thread: a request head and a relay buffer live
/// on the heap, so the default 2 MiB is mostly waste.
const CONN_STACK: usize = 512 * 1024;

/// Whether a socket error is a poll tick rather than a failure: a read
/// timeout (`WouldBlock` on Unix, `TimedOut` on Windows) or a signal.
pub fn is_tick(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut | io::ErrorKind::Interrupted
    )
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A cloneable stop flag, not stopped by default, whose
/// [`sleep`](Stop::sleep) wakes on [`stop`](Stop::stop). Clones share the flag; a [`child`](Stop::child)
/// has a flag of its own and also stops with its parent.
#[derive(Debug, Clone)]
pub struct Stop {
    /// This handle's flag, then its ancestors': any raised one stops it.
    flags: Vec<Arc<AtomicBool>>,
    /// Shared by the whole family, so a parent's stop wakes a sleeping
    /// child.
    wake: Arc<(Mutex<()>, Condvar)>,
}

impl Default for Stop {
    fn default() -> Stop {
        Stop {
            flags: vec![Arc::default()],
            wake: Arc::default(),
        }
    }
}

impl Stop {
    /// A handle stopped by its own [`stop`](Stop::stop) or by this one's;
    /// stopping it leaves this one running.
    pub fn child(&self) -> Stop {
        let mut child = self.clone();
        child.flags.insert(0, Arc::default());
        child
    }

    /// Raise the flag and wake every sleeper. Idempotent.
    pub fn stop(&self) {
        self.flags[0].store(true, Ordering::Release);
        // Taking the lock orders the store before any sleeper's re-check.
        let _held = lock(&self.wake.0);
        self.wake.1.notify_all();
    }

    /// Whether this handle, or an ancestor, has been stopped.
    pub fn is_stopped(&self) -> bool {
        self.flags.iter().any(|f| f.load(Ordering::Acquire))
    }

    /// Sleep for `d`, or less if stopped meanwhile; returns
    /// [`is_stopped`](Stop::is_stopped). `Duration::MAX` sleeps until
    /// stopped.
    pub fn sleep(&self, d: Duration) -> bool {
        let held = lock(&self.wake.0);
        let _ = self
            .wake
            .1
            .wait_timeout_while(held, d, |_| !self.is_stopped());
        self.is_stopped()
    }
}

/// How many connection threads run, and a wake-up as one ends.
type Count = Arc<(Mutex<usize>, Condvar)>;

/// A running connection thread of an [`Acceptor`]: it leaves the count
/// when dropped, panics included.
struct Live(Count);

impl Drop for Live {
    fn drop(&mut self) {
        *lock(&self.0 .0) -= 1;
        self.0 .1.notify_all();
    }
}

/// An accept loop on a thread of its own. Its connection threads are a
/// count, not a list of handles, so a finished one leaves nothing behind.
/// Shut down or dropped, it stops, joins the loop and closes the listener.
#[derive(Debug)]
pub struct Acceptor {
    addr: SocketAddr,
    stop: Stop,
    live: Count,
    thread: Option<JoinHandle<()>>,
}

impl Acceptor {
    /// Accept on `listener` on a thread named `NAME-accept`. Each stream
    /// goes to `on_conn` there, with the count of connection threads
    /// running; the body it returns, if any, runs on a `NAME-conn` thread
    /// of its own and is handed the loop's stop.
    pub fn spawn<C: FnOnce(&Stop) + Send + 'static>(
        name: &str,
        listener: TcpListener,
        mut on_conn: impl FnMut(TcpStream, usize) -> Option<C> + Send + 'static,
    ) -> io::Result<Acceptor> {
        let addr = listener.local_addr()?;
        let (stop, live) = (Stop::default(), Count::default());
        let conn_name = format!("{name}-conn");
        let (loop_stop, count) = (stop.clone(), Arc::clone(&live));
        let thread = std::thread::Builder::new()
            .name(format!("{name}-accept"))
            .spawn(move || {
                for stream in listener.incoming() {
                    if loop_stop.is_stopped() {
                        break;
                    }
                    // A failed accept (a reset in the queue, no descriptor
                    // left) backs off a tick instead of spinning.
                    let Ok(stream) = stream else {
                        loop_stop.sleep(POLL);
                        continue;
                    };
                    let Some(conn) = on_conn(stream, *lock(&count.0)) else {
                        continue;
                    };
                    *lock(&count.0) += 1;
                    let (live, stop) = (Live(Arc::clone(&count)), loop_stop.clone());
                    let _ = std::thread::Builder::new()
                        .name(conn_name.clone())
                        .stack_size(CONN_STACK)
                        .spawn(move || {
                            let _live = live;
                            conn(&stop);
                        });
                }
            })?;
        Ok(Acceptor {
            addr,
            stop,
            live,
            thread: Some(thread),
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connection threads still running.
    pub fn live(&self) -> usize {
        *lock(&self.live.0)
    }

    /// Stop accepting, close the listener, and wait up to `drain` from
    /// now for the connection threads (which see the stop) to finish;
    /// `Duration::MAX` waits for all of them. Idempotent.
    pub fn shutdown(&mut self, drain: Duration) {
        let started = Instant::now();
        self.stop.stop();
        if let Some(thread) = self.thread.take() {
            // `accept()` has no timeout: a connection of our own, over
            // loopback when bound to every interface, returns it.
            let mut wake = self.addr;
            if wake.ip().is_unspecified() {
                wake.set_ip(match wake {
                    SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                    SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
                });
            }
            let _ = TcpStream::connect_timeout(&wake, POLL);
            let _ = thread.join();
        }
        let live = lock(&self.live.0);
        let left = drain.saturating_sub(started.elapsed());
        let _ = self.live.1.wait_timeout_while(live, left, |live| *live > 0);
    }
}

impl Drop for Acceptor {
    fn drop(&mut self) {
        self.shutdown(Duration::ZERO);
    }
}

/// Accept one connection on `listener` by `deadline`; `None` once it
/// passes. The only place a listener goes non-blocking: both the
/// listener and the stream come back blocking.
pub fn accept_within(listener: &TcpListener, deadline: Instant) -> io::Result<Option<TcpStream>> {
    listener.set_nonblocking(true)?;
    let accepted = loop {
        match listener.accept() {
            Ok((stream, _)) => break Ok(Some(stream)),
            Err(e) if is_tick(&e) => {
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    break Ok(None);
                }
                std::thread::sleep(left.min(POLL));
            }
            Err(e) => break Err(e),
        }
    };
    listener.set_nonblocking(false)?;
    // Some platforms hand out a stream non-blocking like its listener.
    let stream = accepted?;
    stream
        .as_ref()
        .map(|s| s.set_nonblocking(false))
        .transpose()?;
    Ok(stream)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    #[test]
    fn sleep_returns_at_once_when_stopped_from_another_thread() {
        let stop = Stop::default();
        let stopper = {
            let stop = stop.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(30));
                let at = Instant::now();
                stop.stop();
                at
            })
        };
        assert!(stop.sleep(Duration::from_secs(10)), "woken by the stop");
        let woke = Instant::now();
        let late = woke.saturating_duration_since(stopper.join().unwrap());
        // The heartbeat this replaces slept out up to 100 ms.
        assert!(late < Duration::from_millis(50), "woke {late:?} after stop");
        assert!(
            stop.sleep(Duration::from_secs(10)),
            "a stopped sleep is instant"
        );
    }

    #[test]
    fn sleep_without_a_stop_runs_its_length() {
        let stop = Stop::default();
        let t = Instant::now();
        assert!(!stop.sleep(Duration::from_millis(30)));
        assert!(t.elapsed() >= Duration::from_millis(30));
    }

    #[test]
    fn a_child_stops_with_its_parent_but_not_the_reverse() {
        let parent = Stop::default();
        let child = parent.child();
        child.stop();
        assert!(child.is_stopped() && !parent.is_stopped());

        let child = parent.child();
        let sleeper = {
            let child = child.clone();
            std::thread::spawn(move || child.sleep(Duration::MAX))
        };
        std::thread::sleep(Duration::from_millis(20));
        parent.stop();
        assert!(sleeper.join().unwrap(), "the parent's stop wakes the child");
        assert!(parent.child().is_stopped());
    }

    #[test]
    fn accept_within_waits_out_its_deadline_and_returns_blocking_streams() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let t = Instant::now();
        let none = accept_within(&listener, t + Duration::from_millis(50)).unwrap();
        assert!(none.is_none() && t.elapsed() >= Duration::from_millis(50));

        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let far = Instant::now() + Duration::from_secs(5);
        let mut stream = accept_within(&listener, far).unwrap().expect("a stream");
        // A blocking stream waits out its read timeout; a non-blocking one
        // would fail at once.
        stream
            .set_read_timeout(Some(Duration::from_millis(40)))
            .unwrap();
        let t = Instant::now();
        let err = stream.read(&mut [0u8; 1]).unwrap_err();
        assert!(is_tick(&err) && t.elapsed() >= Duration::from_millis(30));
    }
}
