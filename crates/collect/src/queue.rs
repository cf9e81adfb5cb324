//! Bounded MPSC queues between socket receivers and shard workers.
//!
//! The collection daemon fans datagrams out from socket receiver threads
//! to shard worker threads. The queue in between is deliberately *bounded*
//! and *lossy at the producer*: when a shard falls behind, the receiver
//! must not block (that would back the kernel socket buffer up into
//! silent, uncounted kernel drops) — it drops the datagram itself and the
//! drop is counted explicitly. [`BoundedQueue::try_push`] is that lossy
//! edge; [`BoundedQueue::push`] is the blocking variant reserved for
//! control messages (cycle barriers) that must never be dropped.
//!
//! Hand-rolled on `Mutex` + `Condvar` so the crate stays dependency-free
//! and `forbid(unsafe_code)`.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// A bounded multi-producer queue with explicit, counted overflow.
#[derive(Debug)]
pub(crate) struct BoundedQueue<T> {
    state: Mutex<State<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
}

#[derive(Debug)]
struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

impl<T> BoundedQueue<T> {
    /// A queue holding at most `capacity` items (at least 1).
    pub(crate) fn new(capacity: usize) -> BoundedQueue<T> {
        let capacity = capacity.max(1);
        BoundedQueue {
            state: Mutex::new(State {
                items: VecDeque::with_capacity(capacity),
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity,
        }
    }

    /// Non-blocking push: `Err(item)` hands the item back when the queue
    /// is full (or closed) so the caller can count the drop.
    pub(crate) fn try_push(&self, item: T) -> Result<(), T> {
        let mut s = self.state.lock().expect("queue poisoned");
        if s.closed || s.items.len() >= self.capacity {
            return Err(item);
        }
        s.items.push_back(item);
        drop(s);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Blocking push for control messages that must not be dropped; waits
    /// for space. Returns `Err(item)` only if the queue was closed.
    pub(crate) fn push(&self, item: T) -> Result<(), T> {
        let mut s = self.state.lock().expect("queue poisoned");
        loop {
            if s.closed {
                return Err(item);
            }
            if s.items.len() < self.capacity {
                s.items.push_back(item);
                drop(s);
                self.not_empty.notify_one();
                return Ok(());
            }
            s = self.not_full.wait(s).expect("queue poisoned");
        }
    }

    /// Blocking pop; `None` once the queue is closed *and* drained, so a
    /// consumer loop processes everything enqueued before shutdown.
    pub(crate) fn pop(&self) -> Option<T> {
        let mut s = self.state.lock().expect("queue poisoned");
        loop {
            if let Some(item) = s.items.pop_front() {
                drop(s);
                self.not_full.notify_one();
                return Some(item);
            }
            if s.closed {
                return None;
            }
            s = self.not_empty.wait(s).expect("queue poisoned");
        }
    }

    /// Close the queue: producers fail fast, consumers drain then stop.
    pub(crate) fn close(&self) {
        self.state.lock().expect("queue poisoned").closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn try_push_overflow_hands_the_item_back() {
        let q = BoundedQueue::new(2);
        assert!(q.try_push(1).is_ok());
        assert!(q.try_push(2).is_ok());
        assert_eq!(q.try_push(3), Err(3));
        assert_eq!(q.state.lock().unwrap().items.len(), 2);
        assert_eq!(q.pop(), Some(1));
        assert!(q.try_push(3).is_ok());
    }

    #[test]
    fn close_drains_then_stops() {
        let q = BoundedQueue::new(4);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        q.close();
        assert_eq!(q.try_push(3), Err(3));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn blocking_push_waits_for_space() {
        let q = Arc::new(BoundedQueue::new(1));
        q.try_push(1).unwrap();
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.push(2))
        };
        // The producer is blocked until this pop frees a slot.
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(q.pop(), Some(1));
        assert!(producer.join().unwrap().is_ok());
        assert_eq!(q.pop(), Some(2));
    }

    #[test]
    fn cross_thread_fifo() {
        let q = Arc::new(BoundedQueue::new(8));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let mut got = Vec::new();
                while let Some(v) = q.pop() {
                    got.push(v);
                }
                got
            })
        };
        for i in 0..100 {
            while q.try_push(i).is_err() {
                std::thread::yield_now();
            }
        }
        q.close();
        assert_eq!(consumer.join().unwrap(), (0..100).collect::<Vec<_>>());
    }
}
