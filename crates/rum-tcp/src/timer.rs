//! A monotonic timer queue shared by the socket deployments.
//!
//! Both the RUM proxy and the TCP update controller drive a sans-IO engine
//! that asks for timers via "arm" effects; this queue turns those requests
//! into callbacks on a dedicated thread.  Tokens are opaque `u64`s (the
//! engines' raw timer tokens).
//!
//! Each user owns its queue and that thread, stopped by the same flag as
//! its `conn` workers.  Timers did not move into the workers' poll loop
//! with the sockets: `poll(2)` times out in whole milliseconds, and the
//! hold-down and probe timers fired here sit on the acknowledgment path.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// A pending timer: deadline plus the engine's raw token.
type TimerEntry = Reverse<(Instant, u64)>;

/// A thread-safe deadline heap with a condition variable for wake-ups.
pub(crate) struct TimerQueue {
    heap: Mutex<BinaryHeap<TimerEntry>>,
    cv: Condvar,
}

impl TimerQueue {
    /// Creates an empty queue.
    pub(crate) fn new() -> Self {
        TimerQueue {
            heap: Mutex::new(BinaryHeap::new()),
            cv: Condvar::new(),
        }
    }

    /// Schedules `token` to fire at `deadline` and wakes the runner.
    pub(crate) fn arm(&self, deadline: Instant, token: u64) {
        self.heap.lock().unwrap().push(Reverse((deadline, token)));
        self.cv.notify_one();
    }

    /// Wakes the runner unconditionally (used for shutdown).
    pub(crate) fn wake(&self) {
        self.cv.notify_all();
    }

    /// Runs the timer loop until `stop` becomes true, invoking `fire` for
    /// every expired token.  `fire` is called without the queue lock held,
    /// so it may arm further timers.
    pub(crate) fn run(&self, stop: &AtomicBool, mut fire: impl FnMut(u64)) {
        let mut heap = self.heap.lock().unwrap();
        loop {
            if stop.load(Ordering::SeqCst) {
                return;
            }
            match heap.peek().copied() {
                None => {
                    let (h, _) = self
                        .cv
                        .wait_timeout(heap, Duration::from_millis(100))
                        .unwrap();
                    heap = h;
                }
                Some(Reverse((deadline, token))) => {
                    let now = Instant::now();
                    if deadline <= now {
                        heap.pop();
                        drop(heap);
                        fire(token);
                        heap = self.heap.lock().unwrap();
                    } else {
                        let (h, _) = self.cv.wait_timeout(heap, deadline - now).unwrap();
                        heap = h;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    #[test]
    fn fires_in_deadline_order_and_stops() {
        let q = Arc::new(TimerQueue::new());
        let stop = Arc::new(AtomicBool::new(false));
        let now = Instant::now();
        q.arm(now + Duration::from_millis(30), 2);
        q.arm(now + Duration::from_millis(10), 1);
        let fired = Arc::new(Mutex::new(Vec::new()));
        let runner = {
            let (q, stop, fired) = (Arc::clone(&q), Arc::clone(&stop), Arc::clone(&fired));
            std::thread::spawn(move || q.run(&stop, |t| fired.lock().unwrap().push(t)))
        };
        std::thread::sleep(Duration::from_millis(80));
        stop.store(true, Ordering::SeqCst);
        q.wake();
        runner.join().unwrap();
        assert_eq!(*fired.lock().unwrap(), vec![1, 2]);
    }
}
