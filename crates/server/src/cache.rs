//! Content-hash-keyed, single-flight LRU cache of compiled designs.
//!
//! The GEM flow splits compile from execute: a compiled design (its
//! bitstream and IO map) is immutable and reusable, so N sessions of the
//! same source should pay for one compile — and for one *load*: an entry
//! holds the design's [`Package`] (what runs it, not what compiled it)
//! and its bitstream decoded, validated and lowered once into a power-on
//! machine ([`CachedDesign`]), which every session of the design clones.
//! Clones share the lowered program and copy only signal and RAM state.
//! The cache keys on a content hash of
//! `(source, options)` — not on file names — so identical designs
//! submitted by different clients share an entry and any textual or
//! option change misses.
//!
//! Lookups are *single-flight*: the first thread to miss installs a
//! `Pending` slot and compiles outside the lock; concurrent lookups of
//! the same key block on a condvar and are counted as **hits** when the
//! compile lands (they paid no compile). Failed compiles — and compiled
//! bitstreams the machine refuses to load — are cached too (negative
//! caching), so a design that does not parse is rejected once per
//! revision instead of recompiled per request. A compile that *panics*
//! is one more failed compile: its slot resolves to an error as the
//! stack unwinds (the `Publish` guard), so nobody waits on it forever.

use crate::lock;
use crate::metrics::{inc, set, ServerMetrics};
use gem_core::{compile_verilog, CompileError, CompileOptions, Compiled, GemSimulator, Package};
use gem_vgpu::{GemGpu, MachineError};
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex, PoisonError};

/// FNV-1a 64-bit over the design source and the compile options.
///
/// The options participate through their canonical `Debug` form — every
/// field of [`CompileOptions`] derives `Debug`, so any option change
/// perturbs the key.
pub fn content_hash(source: &str, opts: &CompileOptions) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    eat(source.as_bytes());
    eat(&[0xFF]); // separator: source/options boundary is unambiguous
    eat(format!("{opts:?}").as_bytes());
    h
}

/// A cache entry's payload: the design's package, plus its bitstream
/// loaded once into a machine nobody steps.
#[derive(Debug)]
pub struct CachedDesign {
    /// What runs the design (bitstream, device, IO map, report,
    /// certificate); the compile's working set is not kept.
    pub package: Package,
    /// Power-on machine; sessions are clones of it.
    machine: GemGpu,
}

impl CachedDesign {
    /// Loads `package`'s bitstream: disassemble, validate, lower — the
    /// work every session of the design then shares.
    ///
    /// # Errors
    ///
    /// [`MachineError`] when the machine rejects the bitstream (never for
    /// a compile, which verifies what it returns).
    pub fn load(package: Package) -> Result<Self, MachineError> {
        let machine = GemGpu::load(&package.bitstream, package.device.clone())?;
        Ok(CachedDesign { package, machine })
    }

    /// A fresh power-on simulator of this design.
    pub fn simulator(&self) -> GemSimulator {
        GemSimulator::from_machine(self.machine.clone(), self.package.io.clone())
    }
}

/// A compile outcome held by the cache: the design or the error text.
pub type CacheResult = Result<Arc<CachedDesign>, String>;

enum Slot {
    /// A thread is compiling this key right now.
    Pending,
    /// Compile finished; `u64` is the LRU tick of the last touch.
    Ready(CacheResult, u64),
}

struct CacheState {
    slots: HashMap<u64, Slot>,
    tick: u64,
}

/// What a cache compiles with: [`compile_verilog`], except in this
/// crate's tests, which inject faults here — no option can.
type CompileFn = fn(&str, &CompileOptions) -> Result<Compiled, CompileError>;

/// The cache. One instance per server, shared by all connections.
pub struct CompileCache {
    state: Mutex<CacheState>,
    ready: Condvar,
    capacity: usize,
    metrics: Arc<ServerMetrics>,
    compile: CompileFn,
}

impl std::fmt::Debug for CompileCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompileCache")
            .field("capacity", &self.capacity)
            .finish()
    }
}

/// The owner of a `Pending` slot. Dropping it publishes `result` and
/// wakes the waiters — on the normal path the compile's outcome, on
/// unwind the error it was created with.
struct Publish<'a> {
    cache: &'a CompileCache,
    key: u64,
    result: CacheResult,
}

impl Drop for Publish<'_> {
    fn drop(&mut self) {
        let mut st = lock(&self.cache.state);
        st.tick += 1;
        let tick = st.tick;
        st.slots
            .insert(self.key, Slot::Ready(self.result.clone(), tick));
        self.cache.evict_lru(&mut st);
        set(&self.cache.metrics.cache_entries, st.slots.len() as u64);
        drop(st);
        self.cache.ready.notify_all();
    }
}

impl CompileCache {
    /// A cache holding at most `capacity` compiled designs (clamped to at
    /// least 1). Eviction is least-recently-used and never removes
    /// `Pending` slots.
    pub fn new(capacity: usize, metrics: Arc<ServerMetrics>) -> Self {
        Self::with_compiler(capacity, metrics, compile_verilog)
    }

    pub(crate) fn with_compiler(
        capacity: usize,
        metrics: Arc<ServerMetrics>,
        compile: CompileFn,
    ) -> Self {
        CompileCache {
            state: Mutex::new(CacheState {
                slots: HashMap::new(),
                tick: 0,
            }),
            ready: Condvar::new(),
            capacity: capacity.max(1),
            metrics,
            compile,
        }
    }

    /// Returns the compiled design for `(source, opts)`, compiling at
    /// most once per key however many threads ask concurrently.
    ///
    /// The second tuple element reports whether this lookup was served
    /// from cache (`true`) or ran the compile itself (`false`).
    pub fn get_or_compile(&self, source: &str, opts: &CompileOptions) -> (u64, CacheResult, bool) {
        self.get_or_compile_with(source, opts, self.compile)
    }

    /// [`get_or_compile`](Self::get_or_compile) with the compiler as a
    /// parameter, so a test can supply one that panics.
    fn get_or_compile_with(
        &self,
        source: &str,
        opts: &CompileOptions,
        compile: impl FnOnce(&str, &CompileOptions) -> Result<Compiled, CompileError>,
    ) -> (u64, CacheResult, bool) {
        let key = content_hash(source, opts);
        inc(&self.metrics.cache_lookups);
        {
            let mut st = lock(&self.state);
            loop {
                st.tick += 1;
                let tick = st.tick;
                match st.slots.get_mut(&key) {
                    Some(Slot::Ready(res, touched)) => {
                        *touched = tick;
                        inc(&self.metrics.cache_hits);
                        let res = res.clone();
                        return (key, res, true);
                    }
                    Some(Slot::Pending) => {
                        st = self.ready.wait(st).unwrap_or_else(PoisonError::into_inner);
                    }
                    None => {
                        st.slots.insert(key, Slot::Pending);
                        break;
                    }
                }
            }
        }
        // Compile and load outside the lock; waiters park on the condvar.
        let mut slot = Publish {
            cache: self,
            key,
            result: Err("internal: compiler panicked on this design".to_string()),
        };
        inc(&self.metrics.cache_misses);
        inc(&self.metrics.compiles_total);
        slot.result = compile(source, opts)
            .map_err(|e| {
                // A verifier or analyzer rejection is the gate working as
                // designed: count it, and let the Err land in the cache as
                // a negative entry — the malformed (or uncertifiable)
                // artifact itself is dropped here and can never be served.
                match &e {
                    CompileError::Verify(_) => inc(&self.metrics.verify_failures),
                    CompileError::Analyze(_) => inc(&self.metrics.analyze_failures),
                    _ => {}
                }
                e.to_string()
            })
            .and_then(|compiled| {
                // The entry keeps what runs the design; the compile's
                // working set is freed before the load allocates beside it.
                let package = Package::from_compiled(&compiled);
                drop(compiled);
                CachedDesign::load(package)
                    .map(Arc::new)
                    .map_err(|e| format!("compiled bitstream does not load: {e}"))
            });
        (key, slot.result.clone(), false)
    }

    /// Evicts least-recently-touched `Ready` slots until within capacity.
    fn evict_lru(&self, st: &mut CacheState) {
        while st.slots.len() > self.capacity {
            let victim = st
                .slots
                .iter()
                .filter_map(|(k, s)| match s {
                    Slot::Ready(_, touched) => Some((*k, *touched)),
                    Slot::Pending => None,
                })
                .min_by_key(|&(_, touched)| touched)
                .map(|(k, _)| k);
            match victim {
                Some(k) => {
                    st.slots.remove(&k);
                    inc(&self.metrics.cache_evictions);
                }
                None => break, // everything in flight; let it overshoot
            }
        }
    }

    /// Resident entry count (ready + pending).
    pub fn len(&self) -> usize {
        lock(&self.state).slots.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

    pub(crate) const COUNTER: &str = "
module counter(input clk, input rst, output reg [7:0] q);
  always @(posedge clk) begin
    if (rst) q <= 8'd0;
    else q <= q + 8'd1;
  end
endmodule
";

    fn opts() -> CompileOptions {
        CompileOptions::small()
    }

    /// The fault drills no option can ask for: a marker comment in the
    /// source selects one, and the drill corrupts the finished artifact
    /// (`gem_isa::mutate::corrupt`); everything else compiles as shipped.
    pub(crate) const VERIFY_DRILL: &str = "// drill: the verifier must refuse this bitstream";
    pub(crate) const LOAD_DRILL: &str =
        "// drill: unverified, the machine must refuse this bitstream";

    /// A [`CompileFn`] that runs the drill `source` asks for.
    pub(crate) fn drilled_compile(
        source: &str,
        opts: &CompileOptions,
    ) -> Result<Compiled, CompileError> {
        let mut compiled = compile_verilog(source, opts)?;
        if source.contains(VERIFY_DRILL) {
            // Verified without the certificate, which any mutation makes
            // stale: a real check must catch the mutant.
            let bitstream = gem_isa::mutate::corrupt(&compiled.bitstream, 5);
            let report = gem_core::verify(
                &bitstream,
                &compiled.device,
                &compiled.io,
                Some(&compiled.programs),
            );
            assert!(!report.passed(), "the drill's mutant must not verify");
            return Err(CompileError::Verify(report.summary()));
        }
        if source.contains(LOAD_DRILL) {
            // A read bound beyond the core's state (at `opts()`'s
            // geometry): what the verifier catches, and `GemGpu::load`
            // refuses when it is handed over unverified.
            compiled.bitstream = gem_isa::mutate::corrupt(&compiled.bitstream, 4);
        }
        Ok(compiled)
    }

    #[test]
    fn hash_distinguishes_source_and_options() {
        let a = content_hash(COUNTER, &opts());
        assert_eq!(a, content_hash(COUNTER, &opts()));
        assert_ne!(a, content_hash(&COUNTER.replace("8'd1", "8'd2"), &opts()));
        let mut o2 = opts();
        o2.core_width *= 2;
        assert_ne!(a, content_hash(COUNTER, &o2));
    }

    #[test]
    fn second_lookup_hits() {
        let m = Arc::new(ServerMetrics::default());
        let cache = CompileCache::new(4, Arc::clone(&m));
        let (k1, r1, cached1) = cache.get_or_compile(COUNTER, &opts());
        assert!(r1.is_ok() && !cached1);
        let (k2, r2, cached2) = cache.get_or_compile(COUNTER, &opts());
        assert!(r2.is_ok() && cached2);
        assert_eq!(k1, k2);
        assert_eq!(m.compiles_total.load(Ordering::Relaxed), 1);
        assert_eq!(m.cache_lookups.load(Ordering::Relaxed), 2);
        assert_eq!(
            m.cache_hits.load(Ordering::Relaxed) + m.cache_misses.load(Ordering::Relaxed),
            2
        );
    }

    #[test]
    fn concurrent_same_key_compiles_once() {
        let m = Arc::new(ServerMetrics::default());
        let cache = Arc::new(CompileCache::new(4, Arc::clone(&m)));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let cache = Arc::clone(&cache);
                std::thread::spawn(move || {
                    let (_, r, _) = cache.get_or_compile(COUNTER, &CompileOptions::small());
                    assert!(r.is_ok());
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(m.compiles_total.load(Ordering::Relaxed), 1);
        assert_eq!(m.cache_lookups.load(Ordering::Relaxed), 8);
        assert_eq!(m.cache_misses.load(Ordering::Relaxed), 1);
        assert_eq!(m.cache_hits.load(Ordering::Relaxed), 7);
    }

    /// Thread A's compile panics while thread B waits on the same key:
    /// B gets the typed error instead of waiting forever, and the entry
    /// is an ordinary negative one afterwards. The threads are detached,
    /// so a B that does hang fails the test at its deadline.
    #[test]
    fn a_compile_that_unwinds_resolves_its_single_flight_slot() {
        use std::time::{Duration, Instant};
        fn spin_until(what: &str, cond: impl Fn() -> bool) {
            let deadline = Instant::now() + Duration::from_secs(10);
            while !cond() {
                assert!(Instant::now() < deadline, "{what}");
                std::thread::yield_now();
            }
        }
        fn not_again(_: &str, _: &CompileOptions) -> Result<Compiled, CompileError> {
            panic!("the slot is resolved: nobody compiles this key again")
        }
        let m = Arc::new(ServerMetrics::default());
        let cache = Arc::new(CompileCache::new(4, Arc::clone(&m)));
        let a = {
            let (m, cache) = (Arc::clone(&m), Arc::clone(&cache));
            std::thread::spawn(move || {
                cache.get_or_compile_with(COUNTER, &opts(), |_, _| {
                    // B counts its lookup before it locks, so by now it is
                    // waiting on this slot or about to find it.
                    spin_until("B never arrived", || {
                        m.cache_lookups.load(Ordering::Relaxed) == 2
                    });
                    panic!("injected compiler panic")
                })
            })
        };
        spin_until("A never took the slot", || {
            m.compiles_total.load(Ordering::Relaxed) == 1
        });
        let (tx, rx) = std::sync::mpsc::channel();
        let b_cache = Arc::clone(&cache);
        std::thread::spawn(move || {
            tx.send(b_cache.get_or_compile_with(COUNTER, &opts(), not_again))
        });
        let (_, waited, cached) = rx
            .recv_timeout(Duration::from_secs(20))
            .expect("B must not wait forever on a slot whose owner unwound");
        let err = waited.expect_err("the compile never produced a design");
        assert!(err.contains("compiler panicked"), "{err}");
        assert!(cached, "B paid no compile");
        assert!(a.join().is_err(), "A's panic still reaches A's caller");
        assert_eq!(cache.len(), 1);
        assert_eq!(m.cache_entries.load(Ordering::Relaxed), 1);
        let (_, again, cached) = cache.get_or_compile_with(COUNTER, &opts(), not_again);
        assert!(
            again.is_err() && cached,
            "negatively cached like any failure"
        );
        assert_eq!(m.compiles_total.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn lru_evicts_oldest() {
        let m = Arc::new(ServerMetrics::default());
        let cache = CompileCache::new(2, Arc::clone(&m));
        let v1 = COUNTER.to_string();
        let v2 = COUNTER.replace("8'd1", "8'd2");
        let v3 = COUNTER.replace("8'd1", "8'd3");
        assert!(cache.get_or_compile(&v1, &opts()).1.is_ok());
        assert!(cache.get_or_compile(&v2, &opts()).1.is_ok());
        // Touch v1; v2 is now LRU.
        assert!(cache.get_or_compile(&v1, &opts()).1.is_ok());
        // Evicts v2.
        assert!(cache.get_or_compile(&v3, &opts()).1.is_ok());
        assert_eq!(cache.len(), 2);
        assert_eq!(m.cache_evictions.load(Ordering::Relaxed), 1);
        let (_, _, cached) = cache.get_or_compile(&v1, &opts());
        assert!(cached, "v1 must have survived eviction");
        let (_, _, cached) = cache.get_or_compile(&v2, &opts());
        assert!(!cached, "v2 must have been evicted");
    }

    #[test]
    fn analyzer_rejections_are_negative_cached_and_counted() {
        let m = Arc::new(ServerMetrics::default());
        let cache = CompileCache::new(4, Arc::clone(&m));
        let looped = "
module looped(input a, output y);
  wire fb;
  assign fb = fb & a;
  assign y = ~fb;
endmodule
";
        let (_, r1, cached1) = cache.get_or_compile(looped, &opts());
        let err = r1.expect_err("combinational loop must be rejected");
        assert!(!cached1);
        assert!(err.contains("static analysis failed"), "{err}");
        assert!(err.contains("GEM-L001"), "names the lint: {err}");
        assert!(err.contains("fb"), "names the looped net: {err}");
        let (_, r2, cached2) = cache.get_or_compile(looped, &opts());
        assert!(r2.is_err() && cached2, "negative entry served from cache");
        assert_eq!(m.compiles_total.load(Ordering::Relaxed), 1);
        assert_eq!(m.analyze_failures.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn sessions_of_one_entry_share_the_lowered_program() {
        let m = Arc::new(ServerMetrics::default());
        let cache = CompileCache::new(4, Arc::clone(&m));
        let design = cache.get_or_compile(COUNTER, &opts()).1.expect("compiles");
        let again = cache.get_or_compile(COUNTER, &opts()).1.expect("cached");
        let (mut a, b) = (design.simulator(), again.simulator());
        assert!(a.shares_program_with(&b), "one load per entry");
        // …and nothing else: stepping one leaves the other at power-on.
        a.set_input("rst", gem_netlist::Bits::from_u64(0, 1));
        for _ in 0..3 {
            a.step();
        }
        assert_eq!(a.counters().cycles, 3);
        assert_eq!(b.counters().cycles, 0);
        let fresh = design.package.clone().into_simulator().expect("loads");
        assert_eq!(b.snapshot(), fresh.snapshot());
        assert!(!b.shares_program_with(&fresh), "a private load is private");
    }

    #[test]
    fn bitstreams_that_fail_to_load_are_negative_cached() {
        // An unverified fault reaches the machine, which refuses it; that
        // refusal is the cache entry.
        let m = Arc::new(ServerMetrics::default());
        let cache = CompileCache::with_compiler(4, Arc::clone(&m), drilled_compile);
        let faulty = format!("{COUNTER}{LOAD_DRILL}\n");
        let (_, r1, cached1) = cache.get_or_compile(&faulty, &opts());
        let err = r1.expect_err("the machine must refuse the bitstream");
        assert!(!cached1);
        assert!(err.contains("does not load"), "{err}");
        let (_, r2, cached2) = cache.get_or_compile(&faulty, &opts());
        assert_eq!(r2.expect_err("still refused"), err);
        assert!(cached2, "negative entry served from cache");
        assert_eq!(m.compiles_total.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn compile_errors_are_negative_cached() {
        let m = Arc::new(ServerMetrics::default());
        let cache = CompileCache::new(4, Arc::clone(&m));
        let bad = "module broken(input clk, output w); endmodule garbage";
        let (_, r1, cached1) = cache.get_or_compile(bad, &opts());
        assert!(r1.is_err() && !cached1);
        let (_, r2, cached2) = cache.get_or_compile(bad, &opts());
        assert!(r2.is_err() && cached2);
        assert_eq!(m.compiles_total.load(Ordering::Relaxed), 1);
    }
}
