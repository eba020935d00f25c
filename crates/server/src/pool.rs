//! A fixed-size worker thread pool over a **bounded** job queue.
//!
//! The reactor pushes readable connections with [`WorkerPool::try_submit`]
//! — a non-blocking offer that reports a full queue instead of queueing
//! without limit, which is the hook admission control sheds on. The bound
//! is the backpressure contract: when every worker is busy and the queue
//! is full, the caller *knows*, immediately, on its own thread, and can
//! answer 429 instead of letting pending sockets pile up unserved until
//! their client gave up long ago.
//!
//! Dropping the [`WorkerPool`] closes the queue, and `join` waits for
//! workers to finish their in-flight jobs — the shutdown path needs no
//! signalling beyond the channel's own disconnect semantics.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::unimplemented
)]

use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Why [`WorkerPool::try_submit`] declined a job (the job comes back).
#[derive(Debug)]
pub enum SubmitError<J> {
    /// The queue is at capacity: every worker busy, every slot taken.
    /// The admission-control signal.
    QueueFull(J),
    /// The pool shut down.
    Closed(J),
}

/// A pool of `n` identical workers draining a bounded job queue.
pub struct WorkerPool<J: Send + 'static> {
    sender: Option<SyncSender<J>>,
    workers: Vec<JoinHandle<()>>,
    capacity: usize,
}

impl<J: Send + 'static> WorkerPool<J> {
    /// Spawns `n` workers over a queue holding at most `capacity` pending
    /// jobs (at least 1), each running `work` on every job it pops.
    pub fn bounded<F>(n: usize, capacity: usize, work: F) -> Self
    where
        F: Fn(J) + Send + Sync + 'static,
    {
        let capacity = capacity.max(1);
        let (sender, receiver) = sync_channel::<J>(capacity);
        let receiver = Arc::new(Mutex::new(receiver));
        let work = Arc::new(work);
        #[expect(
            clippy::expect_used,
            reason = "a failed spawn fails the server at boot, before any request is in flight"
        )]
        let workers = (0..n.max(1))
            .map(|i| {
                let receiver = Arc::clone(&receiver);
                let work = Arc::clone(&work);
                std::thread::Builder::new()
                    .name(format!("tsx-worker-{i}"))
                    .spawn(move || worker_loop(&receiver, &*work))
                    .expect("spawning a worker thread")
            })
            .collect();
        WorkerPool {
            sender: Some(sender),
            workers,
            capacity,
        }
    }

    /// Offers a job without blocking. A full queue returns the job via
    /// `SubmitError::QueueFull` — the overload signal the caller sheds
    /// on instead of queueing unboundedly.
    pub fn try_submit(&self, job: J) -> Result<(), SubmitError<J>> {
        match &self.sender {
            Some(sender) => sender.try_send(job).map_err(|e| match e {
                TrySendError::Full(job) => SubmitError::QueueFull(job),
                TrySendError::Disconnected(job) => SubmitError::Closed(job),
            }),
            None => Err(SubmitError::Closed(job)),
        }
    }

    /// Enqueues a job, blocking while the queue is full; returns it back
    /// if the pool already shut down. Tests and non-admission callers.
    pub fn submit(&self, job: J) -> Result<(), J> {
        match &self.sender {
            Some(sender) => sender.send(job).map_err(|e| e.0),
            None => Err(job),
        }
    }

    /// Number of worker threads.
    pub fn size(&self) -> usize {
        self.workers.len()
    }

    /// The queue bound jobs wait in (`--queue-depth`).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Closes the queue and waits for every worker to drain and exit.
    pub fn join(mut self) {
        self.sender.take(); // disconnect: workers exit after the backlog
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

fn worker_loop<J, F: Fn(J)>(receiver: &Mutex<Receiver<J>>, work: &F) {
    loop {
        // Hold the queue lock only for the pop itself.
        let job = {
            let Ok(guard) = receiver.lock() else { return };
            guard.recv()
        };
        match job {
            Ok(job) => work(job),
            Err(_) => return, // queue closed: shut down
        }
    }
}

impl<J: Send + 'static> Drop for WorkerPool<J> {
    fn drop(&mut self) {
        self.sender.take();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    #[test]
    fn all_jobs_run_across_workers() {
        let counter = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&counter);
        let pool = WorkerPool::bounded(4, 128, move |n: usize| {
            seen.fetch_add(n, Ordering::SeqCst);
        });
        assert_eq!(pool.size(), 4);
        assert_eq!(pool.capacity(), 128);
        for n in 1..=100 {
            pool.submit(n).unwrap();
        }
        pool.join();
        assert_eq!(counter.load(Ordering::SeqCst), 5050);
    }

    #[test]
    fn zero_workers_and_zero_capacity_clamp_to_one() {
        let pool = WorkerPool::bounded(0, 0, |_: ()| {});
        assert_eq!(pool.size(), 1);
        assert_eq!(pool.capacity(), 1);
        pool.join();
    }

    #[test]
    fn a_full_queue_reports_queue_full_instead_of_blocking() {
        // One worker parked on a gate; capacity 2. Jobs 1 (in the worker)
        // plus 2 queued fit; the next try_submit must bounce, immediately.
        let gate = Arc::new(std::sync::Barrier::new(2));
        let enter = Arc::clone(&gate);
        let pool = WorkerPool::bounded(1, 2, move |_: usize| {
            enter.wait();
        });
        pool.try_submit(1).unwrap();
        // Give the worker a moment to pop job 1 and block on the gate.
        std::thread::sleep(Duration::from_millis(50));
        pool.try_submit(2).unwrap();
        pool.try_submit(3).unwrap();
        match pool.try_submit(4) {
            Err(SubmitError::QueueFull(4)) => {}
            other => panic!("expected QueueFull(4), got {other:?}"),
        }
        gate.wait(); // release job 1; the rest drain
        gate.wait();
        gate.wait();
        pool.join();
    }
}
