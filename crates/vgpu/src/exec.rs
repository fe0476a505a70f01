//! Parallel execution engine for the virtual GPU.
//!
//! The paper's CUDA kernel runs every virtual VLIW core as one thread
//! block; cores of the same pipeline stage execute **concurrently** and
//! meet at a grid-wide synchronization before the next stage reads their
//! cut signals. This module gives the software model the same execution
//! shape: a persistent, dependency-free pool of OS threads
//! ([`CorePool`]) fans the cores of a stage out, and the stepping thread
//! waits at a barrier until every core of the stage has returned its
//! outbox (see `machine.rs` for the outbox discipline that removes all
//! shared mutable state inside a stage).
//!
//! The pool mirrors the design language of `gem-server`'s `WorkerPool`
//! (mutex + condvar job queue, named threads, drop-joins), but is built
//! for compute fan-out rather than request scheduling: the queue is
//! unbounded (a stage submits exactly `cores` jobs and immediately waits
//! for them — backpressure is meaningless here), and the pool persists
//! across cycles so the per-cycle cost is one enqueue per core, not one
//! thread spawn.
//!
//! **Determinism is non-negotiable.** Parallelism changes *when* a core
//! runs, never *what it computes or how results merge*: cores read an
//! immutable snapshot of the global signal array, and the coordinator
//! merges their outboxes in core order at the barrier. One thread and N
//! threads therefore produce bit-identical waveforms and bit-identical
//! merged [`crate::KernelCounters`] (see `docs/PARALLEL.md` for the full
//! argument).

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// How the virtual GPU executes the cores of a stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// All cores run on the stepping thread, in core order.
    Serial,
    /// Cores of a stage fan out over this many persistent worker
    /// threads with a barrier at the stage boundary. Values below 2 are
    /// equivalent to [`Serial`](ExecMode::Serial).
    Parallel(usize),
}

impl ExecMode {
    /// Normalizes a thread-count knob: `0` and `1` mean serial.
    pub fn from_threads(threads: usize) -> ExecMode {
        if threads < 2 {
            ExecMode::Serial
        } else {
            ExecMode::Parallel(threads)
        }
    }

    /// Worker threads implied by the mode (serial counts as 1).
    pub fn threads(self) -> usize {
        match self {
            ExecMode::Serial => 1,
            ExecMode::Parallel(n) => n.max(2),
        }
    }

    /// The process-wide default: the `GEM_THREADS` environment variable
    /// when set (`0` or unparsable falls through), otherwise the host's
    /// available parallelism. `GEM_THREADS=1` forces serial execution —
    /// the knob CI uses to run the whole suite in both shapes.
    pub fn resolved_default() -> ExecMode {
        if let Ok(v) = std::env::var("GEM_THREADS") {
            if let Ok(n) = v.trim().parse::<usize>() {
                if n > 0 {
                    return ExecMode::from_threads(n);
                }
            }
        }
        let host = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        ExecMode::from_threads(host)
    }
}

/// Host-side execution statistics of one machine (not part of the
/// simulated architecture: wall-clock barrier waits are *measured*, so
/// they are excluded from [`crate::GpuSnapshot`] and from the
/// determinism contract — only [`crate::KernelCounters`] are replayed
/// bit-exactly).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Configured worker threads (1 when serial).
    pub threads: usize,
    /// Active stimulus bit-lanes each step advances (1 when
    /// single-stimulus; see `docs/BATCH.md`). Lanes multiply with
    /// threads: a stage fans out `cores` tasks regardless of lanes, and
    /// every task carries all lanes through the fold network.
    pub lanes: u32,
    /// Core executions dispatched to the pool (serial cores not counted).
    pub parallel_tasks: u64,
    /// Stage barriers the coordinator waited on.
    pub stage_barriers: u64,
    /// Total nanoseconds the coordinator spent waiting at stage barriers.
    pub barrier_wait_nanos: u64,
    /// Total nanoseconds cores spent idle at stage barriers (each core's
    /// gap between finishing its own work and the stage's slowest core
    /// finishing — the load-imbalance cost; see [`StageWait::idle_nanos`]).
    pub core_idle_nanos: u64,
    /// Per-pipeline-stage refinement of the barrier waits.
    pub per_stage: Vec<StageWait>,
}

/// Barrier-wait accounting for one pipeline stage.
///
/// Two complementary wait measures are kept **per stage** (an earlier
/// revision summed everything into one machine-wide counter, which made
/// it impossible to say *which* stage boundary was eating the wall-clock
/// gap): `wait_nanos` is the coordinator's blocking time at this stage's
/// barrier, `idle_nanos` is the cores' summed wait for their slowest
/// peer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageWait {
    /// Pipeline stage index.
    pub stage: u32,
    /// Barriers waited on at this stage boundary.
    pub barriers: u64,
    /// Nanoseconds the coordinator spent waiting at this stage's barrier.
    pub wait_nanos: u64,
    /// Nanoseconds cores spent idle at this stage's barrier, summed over
    /// cores: Σ (slowest core's finish − this core's finish). Zero means
    /// perfectly balanced partitions; a large value marks the stage whose
    /// load imbalance bounds the parallel speedup.
    pub idle_nanos: u64,
    /// Core tasks fanned out at this stage.
    pub tasks: u64,
}

impl ExecStats {
    pub(crate) fn record_stage(
        &mut self,
        stage: usize,
        tasks: u64,
        wait_nanos: u64,
        idle_nanos: u64,
    ) {
        if self.per_stage.len() <= stage {
            self.per_stage.resize_with(stage + 1, StageWait::default);
            for (i, s) in self.per_stage.iter_mut().enumerate() {
                s.stage = i as u32;
            }
        }
        let s = &mut self.per_stage[stage];
        s.barriers += 1;
        s.wait_nanos += wait_nanos;
        s.idle_nanos += idle_nanos;
        s.tasks += tasks;
        self.stage_barriers += 1;
        self.barrier_wait_nanos += wait_nanos;
        self.core_idle_nanos += idle_nanos;
        self.parallel_tasks += tasks;
    }
}

type Job = Box<dyn FnOnce() + Send + 'static>;

struct PoolState {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    available: Condvar,
}

/// Persistent compute fan-out pool (see the module docs). Shared via
/// `Arc` by cloned machines; concurrent submitters are safe because
/// every barrier collects results over its own private channel.
pub(crate) struct CorePool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for CorePool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CorePool")
            .field("threads", &self.workers.len())
            .finish()
    }
}

impl CorePool {
    /// Spawns `threads` workers (clamped to at least 1).
    pub(crate) fn new(threads: usize) -> CorePool {
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            available: Condvar::new(),
        });
        let workers = (0..threads.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("gem-vcore-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn vgpu core worker")
            })
            .collect();
        CorePool { shared, workers }
    }

    /// Number of worker threads.
    pub(crate) fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Enqueues one job (unbounded; never blocks).
    pub(crate) fn submit(&self, job: Job) {
        {
            let mut st = self.shared.state.lock().unwrap();
            debug_assert!(!st.shutdown, "submit after shutdown");
            st.jobs.push_back(job);
        }
        self.shared.available.notify_one();
    }
}

impl Drop for CorePool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().unwrap();
            st.shutdown = true;
        }
        self.shared.available.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let job = {
            let mut st = shared.state.lock().unwrap();
            loop {
                if let Some(j) = st.jobs.pop_front() {
                    break j;
                }
                if st.shutdown {
                    return;
                }
                st = shared.available.wait(st).unwrap();
            }
        };
        job();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::mpsc;
    use std::time::Duration;

    #[test]
    fn exec_mode_normalizes_thread_counts() {
        assert_eq!(ExecMode::from_threads(0), ExecMode::Serial);
        assert_eq!(ExecMode::from_threads(1), ExecMode::Serial);
        assert_eq!(ExecMode::from_threads(4), ExecMode::Parallel(4));
        assert_eq!(ExecMode::Serial.threads(), 1);
        assert_eq!(ExecMode::Parallel(4).threads(), 4);
        // The default resolves to *something* executable.
        assert!(ExecMode::resolved_default().threads() >= 1);
    }

    #[test]
    fn pool_runs_jobs_and_drop_joins() {
        let pool = CorePool::new(3);
        assert_eq!(pool.threads(), 3);
        let ran = Arc::new(AtomicU64::new(0));
        let (tx, rx) = mpsc::channel();
        for _ in 0..32 {
            let ran = Arc::clone(&ran);
            let tx = tx.clone();
            pool.submit(Box::new(move || {
                ran.fetch_add(1, Ordering::SeqCst);
                tx.send(()).unwrap();
            }));
        }
        for _ in 0..32 {
            rx.recv_timeout(Duration::from_secs(10)).unwrap();
        }
        drop(pool); // joins workers
        assert_eq!(ran.load(Ordering::SeqCst), 32);
    }

    #[test]
    fn concurrent_submitters_collect_only_their_results() {
        // Two "machines" sharing one pool must never cross wires: each
        // barrier owns a private channel.
        let pool = Arc::new(CorePool::new(2));
        let mut joins = Vec::new();
        for tag in 0..2u64 {
            let pool = Arc::clone(&pool);
            joins.push(std::thread::spawn(move || {
                let (tx, rx) = mpsc::channel();
                for i in 0..16u64 {
                    let tx = tx.clone();
                    pool.submit(Box::new(move || {
                        tx.send(tag * 1000 + i).unwrap();
                    }));
                }
                drop(tx);
                let mut got: Vec<u64> = rx.iter().collect();
                got.sort_unstable();
                assert_eq!(got, (0..16).map(|i| tag * 1000 + i).collect::<Vec<_>>());
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
    }

    #[test]
    fn stage_waits_accumulate_per_stage() {
        let mut s = ExecStats::default();
        s.record_stage(1, 4, 100, 30);
        s.record_stage(0, 2, 50, 10);
        s.record_stage(1, 4, 25, 5);
        assert_eq!(s.stage_barriers, 3);
        assert_eq!(s.barrier_wait_nanos, 175);
        assert_eq!(s.core_idle_nanos, 45);
        assert_eq!(s.parallel_tasks, 10);
        assert_eq!(s.per_stage.len(), 2);
        assert_eq!(s.per_stage[0].stage, 0);
        assert_eq!(s.per_stage[0].barriers, 1);
        assert_eq!(s.per_stage[0].idle_nanos, 10);
        assert_eq!(s.per_stage[1].wait_nanos, 125);
        assert_eq!(s.per_stage[1].idle_nanos, 35);
        assert_eq!(s.per_stage[1].tasks, 8);
    }
}
