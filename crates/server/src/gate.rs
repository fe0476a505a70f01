//! Admission gate: at most `workers` heavy requests run at once, each on
//! the connection thread that parsed it; at most `queue` more (each bound
//! at least 1) wait in arrival order; the next is refused *immediately*
//! (`busy` on the wire). What passes it, and shutdown: `docs/SERVER.md` §4.

use crate::lock;
use crate::metrics::{add, inc, set, ServerMetrics};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Instant;

/// Why [`Gate::run`] declined a job: the line is at capacity, or the gate is closed.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum SubmitError {
    Full { queued: u64 },
    ShuttingDown,
}

#[derive(Default)]
struct GateState {
    running: usize,
    /// Tickets handed out, and tickets that left the line; the rest wait.
    issued: u64,
    served: u64,
    closed: bool,
}

pub(crate) struct Gate {
    state: Mutex<GateState>,
    turn: Condvar,
    workers: usize,
    queue: u64,
    metrics: Arc<ServerMetrics>,
}

/// A running slot: its drop, on return or unwind, frees it and counts the job.
struct Slot<'a>(&'a Gate, Instant);

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        let Slot(gate, arrived) = *self;
        let m = &gate.metrics;
        lock(&gate.state).running -= 1;
        gate.turn.notify_all();
        add(&m.job_latency_micros, arrived.elapsed().as_micros() as u64);
        inc(&m.jobs_completed);
    }
}

impl Gate {
    pub(crate) fn new(workers: usize, queue: usize, metrics: Arc<ServerMetrics>) -> Self {
        Gate {
            state: Mutex::default(),
            turn: Condvar::new(),
            workers: workers.max(1),
            queue: queue.max(1) as u64,
            metrics,
        }
    }

    /// Runs `job` on this thread once every earlier caller is served and a slot is free.
    pub(crate) fn run<R>(&self, job: impl FnOnce() -> R) -> Result<R, SubmitError> {
        let (arrived, m) = (Instant::now(), &self.metrics);
        inc(&m.jobs_submitted);
        let mut st = lock(&self.state);
        let queued = st.issued - st.served;
        if !st.closed && queued >= self.queue {
            inc(&m.jobs_rejected);
            return Err(SubmitError::Full { queued });
        }
        let ticket = st.issued;
        st.issued += 1;
        while !st.closed && (ticket != st.served || st.running >= self.workers) {
            set(&m.queue_depth, st.issued - st.served);
            st = self.turn.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        st.served += 1;
        set(&m.queue_depth, st.issued - st.served);
        if st.closed {
            inc(&m.jobs_rejected);
            return Err(SubmitError::ShuttingDown);
        }
        st.running += 1;
        drop(st);
        self.turn.notify_all(); // two slots may have freed before anyone woke
        let _slot = Slot(self, arrived);
        Ok(job())
    }

    /// Refuses every caller from now on, waiters included; running jobs end.
    pub(crate) fn close(&self) {
        lock(&self.state).closed = true;
        self.turn.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::AtomicU64;
    use std::sync::mpsc;
    use std::thread::{Scope, ScopedJoinHandle};
    use std::time::Duration;

    const WAIT: Duration = Duration::from_secs(10);

    fn gate(workers: usize, queue: usize) -> (Arc<ServerMetrics>, Gate) {
        let m = Arc::new(ServerMetrics::default());
        (Arc::clone(&m), Gate::new(workers, queue, Arc::clone(&m)))
    }

    fn count(c: &AtomicU64) -> u64 {
        c.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Runs a job that holds one slot of `gate` until the returned sender
    /// is dropped; returns once the job has been admitted.
    fn occupy<'s>(
        s: &'s Scope<'s, '_>,
        gate: &'s Gate,
    ) -> (
        mpsc::Sender<()>,
        ScopedJoinHandle<'s, Result<(), SubmitError>>,
    ) {
        let (release, held) = mpsc::channel::<()>();
        let (started, admitted) = mpsc::channel();
        let job = s.spawn(move || {
            gate.run(|| {
                started.send(()).expect("test is listening");
                let _ = held.recv(); // Err = sender dropped = released
            })
        });
        admitted.recv_timeout(WAIT).expect("slot is taken");
        (release, job)
    }

    /// Spins until `n` callers are waiting at the gate.
    fn until_queued(m: &ServerMetrics, n: u64) {
        let deadline = Instant::now() + WAIT;
        while count(&m.queue_depth) != n {
            assert!(Instant::now() < deadline, "never saw {n} waiting");
            std::thread::yield_now();
        }
    }

    /// Was the pool's `jobs_run_and_counters_reconcile`: every admitted
    /// job runs, and submitted = completed with nothing left waiting.
    #[test]
    fn jobs_run_and_counters_reconcile() {
        let (m, gate) = gate(2, 8);
        let ran = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    gate.run(|| inc(&ran))
                        .expect("a queue of 8 holds 8 callers")
                });
            }
        });
        assert_eq!(count(&ran), 8);
        assert_eq!(count(&m.jobs_submitted), 8);
        assert_eq!(count(&m.jobs_completed), 8);
        assert_eq!(count(&m.jobs_rejected), 0);
        assert_eq!(count(&m.queue_depth), 0);
    }

    /// Was the pool's `full_queue_rejects_instead_of_blocking`: with one
    /// job running and one caller waiting, the next is refused at once.
    #[test]
    fn full_queue_rejects_instead_of_blocking() {
        let (m, gate) = gate(1, 1);
        std::thread::scope(|s| {
            let (release, _) = occupy(s, &gate);
            s.spawn(|| gate.run(|| {}).expect("the one waiter is admitted"));
            until_queued(&m, 1);
            assert_eq!(gate.run(|| {}), Err(SubmitError::Full { queued: 1 }));
            // Refused while the job ahead of it still holds the slot and
            // the waiter is still in line.
            assert_eq!(count(&m.jobs_completed), 0, "refusal blocked");
            assert_eq!(count(&m.queue_depth), 1, "refusal blocked");
            drop(release);
        });
        assert_eq!(count(&m.jobs_completed), 2);
        assert_eq!(
            count(&m.jobs_submitted),
            count(&m.jobs_completed) + count(&m.jobs_rejected)
        );
    }

    /// Was the pool's `shutdown_runs_out_queued_jobs`. The pool ran what
    /// was queued; a waiter here is a connection whose socket is about to
    /// be shut, so it is refused instead — the admitted job still ends.
    #[test]
    fn close_refuses_waiters_and_lets_admitted_jobs_finish() {
        let (m, gate) = gate(1, 4);
        std::thread::scope(|s| {
            let (release, admitted) = occupy(s, &gate);
            let waiters: Vec<_> = (0..3).map(|_| s.spawn(|| gate.run(|| {}))).collect();
            until_queued(&m, 3);
            gate.close();
            for w in waiters {
                let refused = w.join().expect("waiter returns");
                assert_eq!(refused, Err(SubmitError::ShuttingDown));
            }
            assert_eq!(gate.run(|| {}), Err(SubmitError::ShuttingDown));
            drop(release);
            assert_eq!(admitted.join().expect("job returns"), Ok(()));
        });
        assert_eq!(count(&m.jobs_completed), 1);
        assert_eq!(count(&m.jobs_rejected), 4);
        assert_eq!(count(&m.queue_depth), 0);
    }

    #[test]
    fn a_panicking_job_frees_its_slot_and_still_counts() {
        let (m, gate) = gate(1, 1);
        let gate = Arc::new(gate);
        let unwound = catch_unwind(AssertUnwindSafe(|| gate.run(|| panic!("injected"))));
        assert!(unwound.is_err());
        // The only slot is free again. On a detached thread, so that a gate
        // which leaked the slot fails here instead of waiting forever.
        let (tx, rx) = mpsc::channel();
        let next = Arc::clone(&gate);
        std::thread::spawn(move || tx.send(next.run(|| 7)));
        let admitted = rx
            .recv_timeout(WAIT)
            .expect("the slot was never given back");
        assert_eq!(admitted, Ok(7));
        assert_eq!(count(&m.jobs_submitted), 2);
        assert_eq!(count(&m.jobs_completed), 2);
        assert_eq!(count(&m.jobs_rejected), 0);
    }

    #[test]
    fn waiters_are_admitted_in_arrival_order() {
        let (m, gate) = gate(1, 3);
        let order = Mutex::new(Vec::new());
        std::thread::scope(|s| {
            let (release, _) = occupy(s, &gate);
            for i in 0..3u64 {
                let (gate, order) = (&gate, &order);
                s.spawn(move || gate.run(|| lock(order).push(i)));
                until_queued(&m, i + 1); // i is in line before i + 1 arrives
            }
            drop(release);
        });
        assert_eq!(*lock(&order), [0, 1, 2]);
    }
}
