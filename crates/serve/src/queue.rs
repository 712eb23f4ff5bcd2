//! A bounded MPMC queue with explicit rejection.
//!
//! This is the admission-control half of the daemon: the producer — the
//! portable driver's acceptor queueing whole connections, or the
//! reactor queueing decoded requests — calls
//! [`BoundedQueue::try_push`], and a `Full` answer becomes an HTTP 503
//! (load shedding) instead of an unbounded backlog. Workers block in
//! [`BoundedQueue::pop`]; [`BoundedQueue::close`] wakes them all for
//! shutdown, letting them drain whatever was already admitted.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Why a push was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// The queue is at capacity — shed the request.
    Full,
    /// The queue is closed — the daemon is shutting down.
    Closed,
}

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// Fixed-capacity FIFO shared between the acceptor and the worker pool.
pub struct BoundedQueue<T> {
    inner: Mutex<Inner<T>>,
    ready: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// A queue admitting at most `capacity` items (minimum 1).
    pub fn new(capacity: usize) -> Self {
        BoundedQueue {
            inner: Mutex::new(Inner {
                items: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Admit `item`, or refuse immediately — never blocks. On refusal the
    /// item comes back to the caller (the acceptor still owns the
    /// connection it must answer 503 on).
    pub fn try_push(&self, item: T) -> Result<(), (T, PushError)> {
        let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        if inner.closed {
            return Err((item, PushError::Closed));
        }
        if inner.items.len() >= self.capacity {
            return Err((item, PushError::Full));
        }
        inner.items.push_back(item);
        drop(inner);
        self.ready.notify_one();
        Ok(())
    }

    /// Take the oldest item, blocking while the queue is open and empty.
    /// `None` means closed **and** drained — the worker should exit.
    pub fn pop(&self) -> Option<T> {
        let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            if let Some(item) = inner.items.pop_front() {
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner = self.ready.wait(inner).unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Close the queue: future pushes fail, blocked poppers wake, and
    /// already-admitted items are still handed out (drain semantics).
    pub fn close(&self) {
        let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        inner.closed = true;
        drop(inner);
        self.ready.notify_all();
    }

    /// Items currently waiting.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .items
            .len()
    }

    /// True when nothing is waiting.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_and_capacity() {
        let q = BoundedQueue::new(2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert_eq!(q.try_push(3), Err((3, PushError::Full)));
        assert_eq!(q.pop(), Some(1));
        q.try_push(3).unwrap();
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
        assert!(q.is_empty());
    }

    #[test]
    fn close_drains_then_releases_blocked_poppers() {
        let q = Arc::new(BoundedQueue::new(4));
        q.try_push(7).unwrap();
        let waiter = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || (q.pop(), q.pop()))
        };
        // Give the waiter time to drain the 7 and block on the second pop.
        std::thread::sleep(std::time::Duration::from_millis(50));
        q.close();
        assert_eq!(waiter.join().unwrap(), (Some(7), None));
        assert_eq!(q.try_push(8), Err((8, PushError::Closed)));
    }

    #[test]
    fn close_with_backlog_still_hands_out_items() {
        let q = BoundedQueue::new(4);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        q.close();
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
    }
}
