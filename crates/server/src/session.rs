//! Session table: per-client simulator instances with idle eviction.
//!
//! A session pairs one [`GemSimulator`] (mutable machine state) with the
//! shared, immutable [`CachedDesign`] it was cloned from: every session
//! of a design runs the one lowered program its cache entry loaded and
//! owns only its signal and RAM state. The table hands out
//! `Arc<SessionEntry>`, so a request in flight keeps its session alive
//! through a `close` or an eviction on another connection; the simulator
//! itself sits behind a `Mutex`, serializing cycles per session while
//! different sessions run fully in parallel. A request that panics while
//! holding that mutex poisons the session and nothing else
//! ([`SessionEntry::sim`]).
//!
//! Sessions that go quiet are reclaimed by the idle reaper
//! ([`SessionTable::evict_idle`], driven by a timer thread in the
//! server): every request touches `last_used`, and entries older than the
//! configured idle timeout are dropped and counted in
//! `gem_server_sessions_evicted_total`.

use crate::cache::CachedDesign;
use crate::lock;
use crate::metrics::{add, dec, inc, sub, ServerMetrics};
use gem_core::GemSimulator;
use gem_vgpu::GpuSnapshot;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// One live simulation session.
pub struct SessionEntry {
    /// Server-assigned session id (stable for the session's lifetime).
    pub id: u64,
    /// Compile-cache key of the design this session runs.
    pub key: u64,
    /// The cache entry this session was cloned from (the design's
    /// package and the power-on machine). The session holds it, so evicting the
    /// entry from the cache never takes the design from a live session.
    pub design: Arc<CachedDesign>,
    /// Stimulus lanes this session runs (1 for plain sessions, up to 64
    /// for batch sessions). Fixed at `open`; counted into the
    /// `gem_server_lanes_active` gauge while the session lives.
    pub lanes: u32,
    /// The session's machine state, reached through [`sim`](Self::sim).
    /// Lock order: never hold this while taking the table lock.
    sim: Mutex<GemSimulator>,
    /// Client-managed checkpoint filled by the `save` command and
    /// consumed (non-destructively) by `restore`.
    pub saved: Mutex<Option<GpuSnapshot>>,
    last_used: Mutex<Instant>,
}

impl SessionEntry {
    /// Locks the session's machine state.
    ///
    /// # Errors
    ///
    /// A request that panicked while holding this lock may have left the
    /// machine mid-cycle, so the poison is kept, not recovered: every
    /// later use of the machine gets this message (the server answers
    /// `internal`) until the client closes the session or it idles out.
    pub fn sim(&self) -> Result<MutexGuard<'_, GemSimulator>, String> {
        self.sim
            .lock()
            .map_err(|_| format!("session {} failed in an earlier request; close it", self.id))
    }

    /// Marks the session as active now (resets the idle clock).
    pub fn touch(&self) {
        *lock(&self.last_used) = Instant::now();
    }

    fn idle_for(&self) -> Duration {
        lock(&self.last_used).elapsed()
    }
}

impl std::fmt::Debug for SessionEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionEntry")
            .field("id", &self.id)
            .field("key", &format_args!("{:016x}", self.key))
            .finish()
    }
}

/// All live sessions of one server.
#[derive(Debug)]
pub struct SessionTable {
    entries: Mutex<HashMap<u64, Arc<SessionEntry>>>,
    next_id: AtomicU64,
    metrics: Arc<ServerMetrics>,
}

impl SessionTable {
    /// An empty table.
    pub fn new(metrics: Arc<ServerMetrics>) -> Self {
        SessionTable {
            entries: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            metrics,
        }
    }

    /// Registers a new session and returns its id. `lanes` is the
    /// session's stimulus lane count (already validated and applied to
    /// `sim`); sessions with more than one lane count into the
    /// batch-session metrics.
    pub fn open(&self, key: u64, design: Arc<CachedDesign>, sim: GemSimulator, lanes: u32) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let entry = Arc::new(SessionEntry {
            id,
            key,
            design,
            lanes,
            sim: Mutex::new(sim),
            saved: Mutex::new(None),
            last_used: Mutex::new(Instant::now()),
        });
        lock(&self.entries).insert(id, entry);
        inc(&self.metrics.sessions_opened);
        inc(&self.metrics.sessions_active);
        add(&self.metrics.lanes_active, lanes as u64);
        if lanes > 1 {
            inc(&self.metrics.batch_sessions);
        }
        id
    }

    /// Looks up a session and touches its idle clock.
    pub fn get(&self, id: u64) -> Option<Arc<SessionEntry>> {
        let entry = lock(&self.entries).get(&id).cloned()?;
        entry.touch();
        Some(entry)
    }

    /// Closes a session at the client's request. Returns `false` when the
    /// id is unknown (already closed or evicted).
    pub fn close(&self, id: u64) -> bool {
        let removed = lock(&self.entries).remove(&id);
        if let Some(e) = &removed {
            inc(&self.metrics.sessions_closed);
            dec(&self.metrics.sessions_active);
            sub(&self.metrics.lanes_active, e.lanes as u64);
        }
        removed.is_some()
    }

    /// Drops every session idle for longer than `max_idle`; returns how
    /// many were evicted. In-flight sessions survive: the request holds
    /// the `Arc`, so the machine state is freed only when it ends, and
    /// it touched `last_used` at dispatch.
    pub fn evict_idle(&self, max_idle: Duration) -> usize {
        let mut entries = lock(&self.entries);
        let victims: Vec<u64> = entries
            .iter()
            .filter(|(_, e)| e.idle_for() > max_idle)
            .map(|(&id, _)| id)
            .collect();
        for id in &victims {
            if let Some(e) = entries.remove(id) {
                inc(&self.metrics.sessions_evicted);
                dec(&self.metrics.sessions_active);
                sub(&self.metrics.lanes_active, e.lanes as u64);
            }
        }
        victims.len()
    }

    /// Number of live sessions.
    pub fn len(&self) -> usize {
        lock(&self.entries).len()
    }

    /// Whether no sessions are live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gem_core::{compile, CompileOptions, Package};
    use gem_netlist::ModuleBuilder;

    fn tiny_design() -> Arc<CachedDesign> {
        let mut b = ModuleBuilder::new("t");
        let a = b.input("a", 4);
        let n = b.not(a);
        b.output("y", n);
        let m = b.finish().expect("valid");
        let compiled = compile(&m, &CompileOptions::small()).expect("compiles");
        Arc::new(CachedDesign::load(Package::from_compiled(&compiled)).expect("loads"))
    }

    #[test]
    fn open_get_close_lifecycle() {
        let m = Arc::new(ServerMetrics::default());
        let table = SessionTable::new(Arc::clone(&m));
        let design = tiny_design();
        let sim = design.simulator();
        let id = table.open(7, Arc::clone(&design), sim, 1);
        assert!(table.get(id).is_some());
        assert_eq!(table.len(), 1);
        assert_eq!(m.lanes_active.load(Ordering::Relaxed), 1);
        assert!(table.close(id));
        assert!(!table.close(id), "double close reports unknown");
        assert!(table.get(id).is_none());
        assert_eq!(m.sessions_opened.load(Ordering::Relaxed), 1);
        assert_eq!(m.sessions_closed.load(Ordering::Relaxed), 1);
        assert_eq!(m.sessions_active.load(Ordering::Relaxed), 0);
        assert_eq!(m.lanes_active.load(Ordering::Relaxed), 0);
        assert_eq!(m.batch_sessions.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn batch_sessions_count_their_lanes() {
        let m = Arc::new(ServerMetrics::default());
        let table = SessionTable::new(Arc::clone(&m));
        let design = tiny_design();
        let mut sim = design.simulator();
        sim.set_lanes(8).unwrap();
        let batch = table.open(1, Arc::clone(&design), sim, 8);
        let plain = table.open(2, Arc::clone(&design), design.simulator(), 1);
        assert_eq!(m.lanes_active.load(Ordering::Relaxed), 9);
        assert_eq!(m.batch_sessions.load(Ordering::Relaxed), 1);
        assert!(table.close(batch));
        assert_eq!(m.lanes_active.load(Ordering::Relaxed), 1);
        assert!(table.close(plain));
        assert_eq!(m.lanes_active.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn idle_sessions_evicted_touched_ones_survive() {
        let m = Arc::new(ServerMetrics::default());
        let table = SessionTable::new(Arc::clone(&m));
        let design = tiny_design();
        let id1 = table.open(1, Arc::clone(&design), design.simulator(), 1);
        let id2 = table.open(2, Arc::clone(&design), design.simulator(), 1);
        std::thread::sleep(Duration::from_millis(30));
        table.get(id2); // touch
        let evicted = table.evict_idle(Duration::from_millis(15));
        assert_eq!(evicted, 1);
        assert!(table.get(id1).is_none());
        assert!(table.get(id2).is_some());
        assert_eq!(m.sessions_evicted.load(Ordering::Relaxed), 1);
        // opened = active + closed + evicted
        assert_eq!(
            m.sessions_opened.load(Ordering::Relaxed),
            m.sessions_active.load(Ordering::Relaxed)
                + m.sessions_closed.load(Ordering::Relaxed)
                + m.sessions_evicted.load(Ordering::Relaxed)
        );
    }
}
