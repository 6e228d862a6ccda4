//! Admission control for the HTTP front-end.
//!
//! The server runs a **bounded worker pool** (one handler thread per
//! session `max_concurrent_queries` slot) fed by a **bounded queue** of accepted connections
//! ([`BoundedQueue`], capacity `queue_depth`). Overload therefore has
//! exactly one behavior: when every worker is busy *and* the queue is
//! full, [`BoundedQueue::push`] refuses immediately and the accept loop
//! answers `429 Too Many Requests` with a `Retry-After` hint — a fast,
//! cheap rejection instead of unbounded queueing and latency collapse.
//! Admitted requests wait at most `queue_depth` service times, which is
//! what keeps their latency flat under overload (the property
//! `BENCH_PR6.json`'s overload cell measures).
//!
//! The queue composes with the session's own [`QueryExecutor`]
//! admission: the pool is sized by the session's
//! `max_concurrent_queries`, so it never runs more requests than the
//! engine-side gate admits, and that gate never queues behind the
//! HTTP-side one.
//!
//! [`QueryExecutor`]: gstored::core::runtime::QueryExecutor

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};

/// A close-aware bounded MPMC queue.
///
/// `push` never blocks (bounded admission must reject, not stall the
/// accept loop); `pop` blocks until an item arrives or the queue is
/// closed **and** drained — graceful shutdown serves everything that
/// was admitted before the close.
#[derive(Debug)]
pub struct BoundedQueue<T> {
    state: Mutex<QueueState<T>>,
    available: Condvar,
    depth: usize,
}

#[derive(Debug)]
struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
}

impl<T> BoundedQueue<T> {
    /// A queue holding at most `depth` pending items.
    pub fn new(depth: usize) -> BoundedQueue<T> {
        BoundedQueue {
            state: Mutex::new(QueueState {
                items: VecDeque::with_capacity(depth),
                closed: false,
            }),
            available: Condvar::new(),
            depth,
        }
    }

    /// The configured capacity.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Items currently waiting.
    pub fn pending(&self) -> usize {
        self.state
            .lock()
            .expect("admission queue poisoned")
            .items
            .len()
    }

    /// Enqueue without blocking. Returns the item back when the queue is
    /// full or closed — the caller turns that into the 429.
    pub fn push(&self, item: T) -> Result<(), T> {
        let mut state = self.state.lock().expect("admission queue poisoned");
        if state.closed || state.items.len() >= self.depth {
            return Err(item);
        }
        state.items.push_back(item);
        drop(state);
        self.available.notify_one();
        Ok(())
    }

    /// Dequeue, blocking while the queue is open and empty. `None` means
    /// closed and fully drained — the worker's signal to exit.
    pub fn pop(&self) -> Option<T> {
        let mut state = self.state.lock().expect("admission queue poisoned");
        loop {
            if let Some(item) = state.items.pop_front() {
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self
                .available
                .wait(state)
                .expect("admission queue poisoned");
        }
    }

    /// Close the queue: pushes start failing, pops drain what is left
    /// and then return `None`.
    pub fn close(&self) {
        self.state.lock().expect("admission queue poisoned").closed = true;
        self.available.notify_all();
    }
}

/// Monotonic counters of everything the server decided, shared between
/// the accept loop, the workers and `GET /status`.
#[derive(Debug, Default)]
pub struct ServerCounters {
    /// Connections handed to the worker pool.
    pub admitted: AtomicU64,
    /// Connections refused with `429` because the queue was full.
    pub rejected: AtomicU64,
    /// Requests answered, by coarse outcome.
    pub ok: AtomicU64,
    /// Client errors answered (`4xx`).
    pub client_errors: AtomicU64,
    /// Server errors answered (`5xx`).
    pub server_errors: AtomicU64,
    /// Requests currently being handled by a worker.
    pub in_flight: AtomicU64,
    /// Chunked-transfer `/query` responses started.
    pub streams_started: AtomicU64,
    /// Streamed responses that ran to their terminating chunk.
    pub streams_completed: AtomicU64,
    /// Streamed responses cut short mid-body (client disconnect or
    /// engine failure) — each one also cancelled its engine query.
    pub streams_cancelled: AtomicU64,
}

/// A point-in-time copy of [`ServerCounters`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CountersSnapshot {
    /// Connections handed to the worker pool.
    pub admitted: u64,
    /// Connections refused with `429`.
    pub rejected: u64,
    /// `2xx` responses sent.
    pub ok: u64,
    /// `4xx` responses sent.
    pub client_errors: u64,
    /// `5xx` responses sent.
    pub server_errors: u64,
    /// Requests currently in a worker.
    pub in_flight: u64,
    /// Chunked-transfer `/query` responses started.
    pub streams_started: u64,
    /// Streamed responses that ran to their terminating chunk.
    pub streams_completed: u64,
    /// Streamed responses cut short mid-body (and engine-cancelled).
    pub streams_cancelled: u64,
}

impl ServerCounters {
    /// Snapshot every counter.
    pub fn snapshot(&self) -> CountersSnapshot {
        CountersSnapshot {
            admitted: self.admitted.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            ok: self.ok.load(Ordering::Relaxed),
            client_errors: self.client_errors.load(Ordering::Relaxed),
            server_errors: self.server_errors.load(Ordering::Relaxed),
            in_flight: self.in_flight.load(Ordering::Relaxed),
            streams_started: self.streams_started.load(Ordering::Relaxed),
            streams_completed: self.streams_completed.load(Ordering::Relaxed),
            streams_cancelled: self.streams_cancelled.load(Ordering::Relaxed),
        }
    }

    /// Record one response's status code.
    pub fn record_status(&self, status: u16) {
        let counter = match status {
            200..=299 => &self.ok,
            400..=499 => &self.client_errors,
            _ => &self.server_errors,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn push_rejects_when_full_and_pop_drains_fifo() {
        let q = BoundedQueue::new(2);
        assert!(q.push(1).is_ok());
        assert!(q.push(2).is_ok());
        assert_eq!(q.push(3), Err(3), "full queue bounces the item back");
        assert_eq!(q.pending(), 2);
        assert_eq!(q.pop(), Some(1));
        assert!(q.push(3).is_ok(), "slot freed");
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
    }

    #[test]
    fn close_drains_then_ends() {
        let q = BoundedQueue::new(4);
        q.push("a").unwrap();
        q.close();
        assert_eq!(q.push("b"), Err("b"), "closed queue admits nothing");
        assert_eq!(q.pop(), Some("a"), "already-admitted work still served");
        assert_eq!(q.pop(), None, "drained + closed ends the workers");
    }

    #[test]
    fn pop_blocks_until_push_or_close() {
        let q = BoundedQueue::new(1);
        let served = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        while q.pop().is_some() {
                            served.fetch_add(1, Ordering::SeqCst);
                        }
                    })
                })
                .collect();
            for _ in 0..5 {
                // Depth 1: retry until a worker drains the slot.
                let mut item = 7;
                while let Err(back) = q.push(item) {
                    item = back;
                    std::thread::yield_now();
                }
            }
            while served.load(Ordering::SeqCst) < 5 {
                std::thread::yield_now();
            }
            q.close();
            for h in handles {
                h.join().unwrap();
            }
        });
        assert_eq!(served.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn counters_classify_statuses() {
        let c = ServerCounters::default();
        c.record_status(200);
        c.record_status(400);
        c.record_status(404);
        c.record_status(500);
        let snap = c.snapshot();
        assert_eq!(snap.ok, 1);
        assert_eq!(snap.client_errors, 2);
        assert_eq!(snap.server_errors, 1);
    }
}
