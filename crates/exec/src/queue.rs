//! The worker-side job-claiming protocol for workers fed by a channel.
//!
//! Workers that pull jobs from one channel follow the same discipline:
//! the receiver lives behind a mutex so any worker can claim the next
//! job, the lock is held only for the claim (claiming serializes, compute
//! parallelizes), and the owner can *close* the queue — dropping the
//! receiver so a blocked producer unblocks — even while workers still
//! hold claims. The streaming pipeline's merge workers speak this
//! protocol; this type is the one implementation of it.

use std::sync::mpsc::Receiver;
use std::sync::Mutex;

/// A multi-worker job queue over one `mpsc::Receiver`.
///
/// Cheap to share by reference into scoped worker closures. [`claim`]
/// blocks until a job arrives and returns `None` once the queue is
/// closed — either the sender hung up or [`close`] dropped the receiver.
///
/// [`claim`]: SharedQueue::claim
/// [`close`]: SharedQueue::close
#[derive(Debug)]
pub struct SharedQueue<T> {
    rx: Mutex<Option<Receiver<T>>>,
}

impl<T> SharedQueue<T> {
    /// Wraps a receiver for shared claiming.
    pub fn new(rx: Receiver<T>) -> Self {
        SharedQueue {
            rx: Mutex::new(Some(rx)),
        }
    }

    /// Claims the next job, blocking while the queue is open but empty.
    /// Returns `None` when no job can ever arrive: every sender is gone
    /// or the queue was closed. A poisoning panic in another claimant
    /// does not wedge the queue — the claim proceeds on the inner value.
    pub fn claim(&self) -> Option<T> {
        let guard = self.rx.lock().unwrap_or_else(|e| e.into_inner());
        guard.as_ref()?.recv().ok()
    }

    /// Drops the receiver, unblocking any producer mid-send and making
    /// every subsequent [`claim`](SharedQueue::claim) return `None`.
    /// Idempotent. Call it once the claimants have exited — a claimant
    /// parked inside [`claim`](SharedQueue::claim) holds the
    /// claim lock, so closing under it would wait for that claim to
    /// resolve first.
    pub fn close(&self) {
        drop(self.rx.lock().unwrap_or_else(|e| e.into_inner()).take());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::mpsc::channel;

    #[test]
    fn workers_drain_the_queue_exactly_once_each() {
        let (tx, rx) = channel();
        for n in 0..100u64 {
            tx.send(n).unwrap();
        }
        drop(tx);
        let queue = SharedQueue::new(rx);
        let sum = AtomicU64::new(0);
        let claims = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    while let Some(n) = queue.claim() {
                        sum.fetch_add(n, Ordering::Relaxed);
                        claims.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(claims.load(Ordering::Relaxed), 100);
        assert_eq!(sum.load(Ordering::Relaxed), (0..100).sum::<u64>());
    }

    #[test]
    fn close_unblocks_a_blocked_producer() {
        let (tx, rx) = std::sync::mpsc::sync_channel::<u64>(1);
        let queue = SharedQueue::new(rx);
        std::thread::scope(|scope| {
            let producer = scope.spawn(move || {
                tx.send(1).unwrap(); // fills the bound
                tx.send(2) // blocks until the close disconnects it
            });
            std::thread::sleep(std::time::Duration::from_millis(20));
            queue.close();
            assert!(
                producer.join().unwrap().is_err(),
                "close must disconnect a producer parked mid-send"
            );
        });
        // After close, claims return None forever.
        assert_eq!(queue.claim(), None);
        queue.close(); // idempotent
    }

    #[test]
    fn claimants_drain_then_observe_sender_hangup() {
        let (tx, rx) = channel::<u64>();
        tx.send(7).unwrap();
        let queue = SharedQueue::new(rx);
        assert_eq!(queue.claim(), Some(7));
        drop(tx);
        assert_eq!(queue.claim(), None);
    }
}
