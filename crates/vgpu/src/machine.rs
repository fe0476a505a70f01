//! The virtual GPU executing GEM bitstreams.
//!
//! [`GemGpu`] is the reproduction's stand-in for the paper's CUDA
//! interpreter kernel. It lowers each core's decoded VLIW program once at
//! load ([`CompiledCore`]) and executes that form every cycle with the
//! exact shared-memory fold semantics of
//! [`gem_place::BoomerangLayer::execute`], maintains the device-global
//! signal array, performs RAM block operations, and accumulates
//! [`KernelCounters`] whose per-cycle values drive the timing model.
//!
//! Intra-cycle memory discipline mirrors the real kernel: cores read
//! global signals once at cycle start; *immediate* writes (stage-boundary
//! cut signals, RAM port operands) become visible to later stages after a
//! device-wide synchronization; *deferred* writes (flip-flop next-states,
//! registered RAM read data, primary outputs) commit at the cycle
//! boundary, which is what makes full-cycle semantics race-free.
//!
//! Execution shape: the cores of a stage are mutually independent
//! (replication-aided partitioning removes intra-stage communication),
//! so each core runs as a *pure function* of the stage-start global
//! array — [`execute_core`] reads an immutable snapshot and returns a
//! [`CoreOutbox`] of buffered writes and counter deltas. The outboxes
//! are merged in core order at the stage barrier. This holds for both
//! [`ExecMode::Serial`] and [`ExecMode::Parallel`], which is what makes
//! 1-thread and N-thread runs bit-identical (waveforms *and* merged
//! counters; see `docs/PARALLEL.md`).
//!
//! **Lane batching** (`docs/BATCH.md`): every global signal is stored as
//! a machine-word ([`gem_place::Word`], a `u64`) *lane word* — bit `k`
//! is the signal's value in independent simulation `k`. The fold network
//! is pure bitwise logic
//! ([`gem_place::CompiledLayer::execute_words_into`]), so one
//! [`step_cycle`] advances up to [`GemGpu::MAX_LANES`] stimulus streams
//! at the cost of one. The scalar API ([`poke`]/[`peek`]) stays the single-stimulus
//! view: pokes broadcast to every lane, peeks read lane 0 — a machine
//! never touched by the lane API behaves exactly as before. Inactive
//! lanes (≥ [`lanes`]) always *mirror lane 0* — broadcast pokes, pure
//! lane-wise logic, and a shared RAM image keep that invariant, which is
//! what makes [`set_lanes`] upgrades mid-run coherent.
//!
//! [`step_cycle`]: GemGpu::step_cycle
//! [`poke`]: GemGpu::poke
//! [`peek`]: GemGpu::peek
//! [`lanes`]: GemGpu::lanes
//! [`set_lanes`]: GemGpu::set_lanes

use crate::compiled::{with_scratch, CompiledCore, WRITE_CONST};
use crate::counters::{CounterBreakdown, KernelCounters, LayerCounters, PartitionCounters};
use crate::exec::{CorePool, ExecMode, ExecStats};
use gem_isa::{disassemble_core, Bitstream, DecodeError, WriteSrc};
use gem_place::{splat, Word};
use gem_telemetry::span;
use gem_telemetry::{MetricFamily, MetricKind, MetricsSnapshot, Sample};
use std::fmt;
use std::sync::{mpsc, Arc};
use std::time::Instant;

/// Global-memory binding of one RAM block (all indices are bit positions
/// in the device-global signal array).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RamBinding {
    /// Read-address bits, LSB first (immediate region).
    pub raddr: [u32; 13],
    /// Write-address bits.
    pub waddr: [u32; 13],
    /// Write-data bits.
    pub wdata: [u32; 32],
    /// Write enable.
    pub we: u32,
    /// Registered read-data bits (deferred region).
    pub rdata: [u32; 32],
}

/// Device-level configuration produced by the compiler.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DeviceConfig {
    /// Size of the global signal array in bits.
    pub global_bits: u32,
    /// RAM blocks and their port bindings.
    pub rams: Vec<RamBinding>,
    /// Global bits whose power-on value is 1 (flip-flop init values).
    pub initial_ones: Vec<u32>,
}

/// Errors from [`GemGpu::load`] and [`GemGpu::restore`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MachineError {
    /// A core program failed to decode.
    Decode(DecodeError),
    /// A global index or state address is out of range; the string names
    /// the offender.
    BadBinding(String),
    /// A snapshot's shape does not match the loaded design; the string
    /// names the mismatch.
    SnapshotMismatch(String),
    /// A lane count outside `1..=`[`GemGpu::MAX_LANES`] was requested.
    BadLanes(u32),
    /// A snapshot was captured with a different machine lane-word width
    /// (e.g. a stale 32-wide snapshot restored onto the 64-wide
    /// machine). The payload is `(snapshot bits, machine bits)`.
    SnapshotWordWidth(u32, u32),
}

impl fmt::Display for MachineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MachineError::Decode(e) => write!(f, "core program decode failed: {e}"),
            MachineError::BadBinding(s) => write!(f, "bad binding: {s}"),
            MachineError::SnapshotMismatch(s) => write!(f, "snapshot mismatch: {s}"),
            MachineError::BadLanes(n) => write!(
                f,
                "bad lane count {n}: must be between 1 and {}",
                GemGpu::MAX_LANES
            ),
            MachineError::SnapshotWordWidth(snap, mach) => write!(
                f,
                "snapshot lane word is {snap} bits wide, machine word is {mach} bits"
            ),
        }
    }
}

impl std::error::Error for MachineError {}

impl From<DecodeError> for MachineError {
    fn from(e: DecodeError) -> Self {
        MachineError::Decode(e)
    }
}

/// One loaded core: the program lowered once to threaded-code form
/// (DESIGN.md §7) plus its precomputed per-cycle counter
/// contribution. The decoded program is validated at load and dropped.
#[derive(Debug, Clone)]
struct LoadedCore {
    comp: CompiledCore,
    delta: KernelCounters,
    /// Static cost of one boomerang layer of this core (all layers of a
    /// core are structurally identical in cost): shared accesses, fold
    /// ALU ops, block barriers.
    layer_cost: (u64, u64, u64),
}

/// The virtual GPU; see the module docs.
///
/// Cloning is cheap on the program side: the decoded bitstream is
/// shared read-only (`Arc`), as is the worker pool of a parallel
/// machine — only the mutable state (signals, RAMs, counters) is
/// deep-copied. Two clones stepping concurrently from different threads
/// are safe: every stage barrier collects results over a private
/// channel.
#[derive(Debug, Clone)]
pub struct GemGpu {
    cfg: DeviceConfig,
    /// Shared read-only bitstream: lowered programs plus static costs.
    stages: Arc<Vec<Vec<LoadedCore>>>,
    /// Global signal array as lane words: bit `k` of `global[i]` is
    /// signal `i` in simulation lane `k`.
    global: Vec<Word>,
    deferred: Vec<(u32, Word)>,
    /// RAM contents per block, one image per active lane
    /// (`ram_mem[ram][lane]`); inactive lanes read image 0.
    ram_mem: Vec<Vec<Box<[u32]>>>,
    /// Active stimulus lanes (1..=[`Self::MAX_LANES`]).
    lanes: u32,
    counters: KernelCounters,
    /// Per-partition attribution of `counters` (same [stage][core] shape
    /// as `stages`); device-level events (RAM phase, device barriers,
    /// cycles) are not attributed.
    part_counters: Vec<Vec<KernelCounters>>,
    /// Per-boomerang-layer aggregation across all cores, indexed by layer.
    layer_counters: Vec<LayerCounters>,
    /// Event-based pruning (the paper's proposed extension): skip a core
    /// whose read set is bit-identical to its previous execution. Sound
    /// because a core's cycle function is pure — all state lives in the
    /// global array, so unchanged inputs imply unchanged writes.
    pruning: bool,
    /// Cached read values per (stage, core) for pruning. Full lane
    /// words: a core is skipped only when *every* lane's read set is
    /// unchanged, which keeps pruning conservative (never wrong) under
    /// lane batching.
    input_cache: Vec<Vec<Option<Vec<Word>>>>,
    /// Worker pool when the mode is parallel (shared by clones).
    pool: Option<Arc<CorePool>>,
    /// Host-side fan-out statistics (not simulated state; see
    /// [`ExecStats`]).
    exec_stats: ExecStats,
}

/// A saved point-in-time copy of everything mutable in a [`GemGpu`]:
/// the global signal array, RAM contents, deferred-write queue, all
/// counters, and the pruning input caches. Restoring a snapshot onto a
/// machine loaded with the *same* bitstream resumes execution
/// bit-exactly — the substrate for session suspend/resume in
/// `gem-server` and for checkpointed long simulations.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuSnapshot {
    global: Vec<Word>,
    deferred: Vec<(u32, Word)>,
    ram_mem: Vec<Vec<Box<[u32]>>>,
    lanes: u32,
    /// Lane-word width ([`Word::BITS`]) at capture time. Restoring onto
    /// a machine with a different word width is a typed error
    /// ([`MachineError::SnapshotWordWidth`]) — a 32-wide snapshot's
    /// lane packing is meaningless to the 64-wide machine.
    word_bits: u32,
    counters: KernelCounters,
    part_counters: Vec<Vec<KernelCounters>>,
    layer_counters: Vec<LayerCounters>,
    input_cache: Vec<Vec<Option<Vec<Word>>>>,
}

impl GpuSnapshot {
    /// Approximate heap footprint in bytes (capacity accounting for
    /// server-side snapshot budgets).
    pub fn approx_bytes(&self) -> usize {
        let wb = std::mem::size_of::<Word>();
        self.global.len() * wb
            + self
                .ram_mem
                .iter()
                .flatten()
                .map(|r| r.len() * 4)
                .sum::<usize>()
            + self
                .input_cache
                .iter()
                .flatten()
                .flatten()
                .map(|v| v.len() * wb)
                .sum::<usize>()
    }

    /// Active lane count captured with the state.
    pub fn lanes(&self) -> u32 {
        self.lanes
    }

    /// Lane-word width (in bits) the snapshot was captured at.
    pub fn word_bits(&self) -> u32 {
        self.word_bits
    }

    /// Returns the snapshot with a forged lane-word width — a test hook
    /// for exercising the stale-snapshot rejection path (there is no
    /// other way to fabricate a legacy 32-wide snapshot in-process).
    #[doc(hidden)]
    pub fn with_word_bits(mut self, bits: u32) -> Self {
        self.word_bits = bits;
        self
    }
}

/// Mask of the active lanes: the low `lanes` bits set.
#[inline]
fn lane_mask(lanes: u32) -> Word {
    if lanes >= Word::BITS {
        Word::MAX
    } else {
        ((1 as Word) << lanes) - 1
    }
}

/// Bytes one lane word occupies — the unit of the global-traffic cost
/// model for signal gathers and publishes.
const WORD_BYTES: u64 = std::mem::size_of::<Word>() as u64;

/// Bits per 128-byte global-memory transaction.
const LINE_BITS: u64 = 128 * 8;

fn line_transactions(mut indices: Vec<u64>) -> u64 {
    indices.sort_unstable();
    indices.dedup();
    indices.len() as u64
}

/// Everything one core produces in one cycle, buffered so nothing
/// touches shared state while a stage is in flight. Outboxes are merged
/// at the stage barrier in core order ([`GemGpu::merge_stage`]).
struct CoreOutbox {
    /// Core index within its stage (restores order after a parallel
    /// stage, where completion order is nondeterministic).
    ci: usize,
    /// Immediate writes (full lane words): visible to later stages after
    /// the barrier.
    immediate: Vec<(u32, Word)>,
    /// Deferred writes (full lane words): committed at the cycle
    /// boundary.
    deferred: Vec<(u32, Word)>,
    /// Counter events charged to this core this cycle.
    delta: KernelCounters,
    /// Whether pruning skipped the fold work (layer counters then don't
    /// record an execution).
    skipped: bool,
    /// New pruning input-cache value for this core (`None` when pruning
    /// is off).
    cache: Option<Vec<Word>>,
}

/// Executes one core as a pure function of the stage-start global array.
/// Serial and parallel stages call exactly this, which is the structural
/// reason they cannot diverge: the pruning decision, counter deltas, and
/// write buffering are shared.
fn execute_core(
    core: &LoadedCore,
    global: &[Word],
    pruning: bool,
    prev_cache: Option<Vec<Word>>,
    ci: usize,
) -> CoreOutbox {
    let comp = &core.comp;
    let mut out = CoreOutbox {
        ci,
        immediate: Vec::new(),
        deferred: Vec::new(),
        delta: KernelCounters::default(),
        skipped: false,
        cache: None,
    };
    if pruning {
        let inputs: Vec<Word> = comp
            .reads
            .iter()
            .map(|&(g, _)| global[g as usize])
            .collect();
        if prev_cache.as_ref() == Some(&inputs) {
            // Unchanged read set: outputs are guaranteed identical and
            // already present in the global array (immediate writes) or
            // re-commit the same values (deferred). Charge only the
            // input gather, not the bitstream stream or the folds.
            out.delta = KernelCounters {
                blocks_skipped: 1,
                global_bytes: WORD_BYTES * comp.reads.len() as u64,
                global_transactions: 1 + comp.reads.len() as u64 / (LINE_BITS / (8 * WORD_BYTES)),
                ..Default::default()
            };
            out.skipped = true;
            // Deferred writes must still commit (FF next-states equal
            // their current values, but outputs may feed the testbench).
            for w in comp.deferred.iter() {
                let v = if w.addr == WRITE_CONST {
                    w.xor
                } else {
                    // Value unchanged ⇒ current global content is
                    // already correct; re-commit it.
                    global[w.global as usize]
                };
                out.deferred.push((w.global, v));
            }
            out.cache = prev_cache;
            return out;
        }
        out.cache = Some(inputs);
    }
    with_scratch(|scratch| {
        comp.execute_words_into(global, scratch, &mut out.immediate, &mut out.deferred);
    });
    out.delta = core.delta;
    out
}

impl GemGpu {
    /// Decodes, validates and lowers a bitstream against a device
    /// configuration.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError`] on undecodable programs or out-of-range
    /// global indices / state addresses.
    pub fn load(bitstream: &Bitstream, cfg: DeviceConfig) -> Result<Self, MachineError> {
        let gb = cfg.global_bits;
        let mut stages = Vec::with_capacity(bitstream.stages.len());
        for (si, stage) in bitstream.stages.iter().enumerate() {
            let mut cores = Vec::with_capacity(stage.len());
            for (ci, bytes) in stage.iter().enumerate() {
                let dec = disassemble_core(bytes)?;
                let width = dec.width;
                for r in &dec.reads {
                    if r.global >= gb || u32::from(r.state) >= width {
                        return Err(MachineError::BadBinding(format!(
                            "stage {si} core {ci} read {} -> {}",
                            r.global, r.state
                        )));
                    }
                }
                for w in &dec.writes {
                    if w.global >= gb {
                        return Err(MachineError::BadBinding(format!(
                            "stage {si} core {ci} write to {}",
                            w.global
                        )));
                    }
                    if let WriteSrc::State { addr, .. } = w.src {
                        if u32::from(addr) >= width {
                            return Err(MachineError::BadBinding(format!(
                                "stage {si} core {ci} write from state {addr}"
                            )));
                        }
                    }
                }
                // Static per-cycle cost of this core.
                let folds = width.trailing_zeros() as u64;
                let mut delta = KernelCounters {
                    // The bitstream is streamed from global memory every
                    // cycle (it does not fit in shared memory).
                    global_bytes: bytes.len() as u64,
                    global_transactions: (bytes.len() as u64 * 8).div_ceil(LINE_BITS),
                    blocks_run: 1,
                    ..Default::default()
                };
                // Signal gathers/publishes: one lane word per signal,
                // coalescing determined by how many 128-byte lines they
                // touch.
                delta.global_bytes += WORD_BYTES * (dec.reads.len() + dec.writes.len()) as u64;
                delta.global_transactions += line_transactions(
                    dec.reads
                        .iter()
                        .map(|r| u64::from(r.global) / LINE_BITS)
                        .collect(),
                );
                delta.global_transactions += line_transactions(
                    dec.writes
                        .iter()
                        .map(|w| u64::from(w.global) / LINE_BITS)
                        .collect(),
                );
                let layer_cost = (
                    u64::from(width) * 2, // gather + fold reads
                    u64::from(width) - 1,
                    1 + folds,
                );
                for _layer in &dec.layers {
                    delta.shared_accesses += layer_cost.0;
                    delta.alu_ops += layer_cost.1;
                    delta.block_syncs += layer_cost.2;
                }
                cores.push(LoadedCore {
                    comp: CompiledCore::lower(&dec),
                    delta,
                    layer_cost,
                });
            }
            stages.push(cores);
        }
        // Validate RAM bindings.
        for (ri, r) in cfg.rams.iter().enumerate() {
            let all = r
                .raddr
                .iter()
                .chain(&r.waddr)
                .chain(&r.wdata)
                .chain(&r.rdata)
                .chain(std::iter::once(&r.we));
            for &idx in all {
                if idx >= gb {
                    return Err(MachineError::BadBinding(format!(
                        "ram {ri} binds global {idx}"
                    )));
                }
            }
        }
        for &idx in &cfg.initial_ones {
            if idx >= gb {
                return Err(MachineError::BadBinding(format!(
                    "initial value binds global {idx}"
                )));
            }
        }
        let ram_mem = cfg
            .rams
            .iter()
            .map(|_| vec![vec![0u32; 8192].into_boxed_slice()])
            .collect();
        let mut global = vec![Word::MIN; gb as usize];
        for &idx in &cfg.initial_ones {
            // Power-on ones hold in every lane.
            global[idx as usize] = splat(true);
        }
        let input_cache = stages
            .iter()
            .map(|st| st.iter().map(|_| None).collect())
            .collect();
        let part_counters = stages
            .iter()
            .map(|st| vec![KernelCounters::default(); st.len()])
            .collect();
        let max_layers = stages
            .iter()
            .flatten()
            .map(|c| c.comp.layers.len())
            .max()
            .unwrap_or(0);
        let layer_counters = (0..max_layers)
            .map(|li| LayerCounters {
                layer: li as u32,
                ..Default::default()
            })
            .collect();
        Ok(GemGpu {
            global,
            deferred: Vec::new(),
            ram_mem,
            lanes: 1,
            counters: KernelCounters::default(),
            part_counters,
            layer_counters,
            input_cache,
            pruning: false,
            stages: Arc::new(stages),
            cfg,
            pool: None,
            exec_stats: ExecStats {
                threads: 1,
                lanes: 1,
                ..ExecStats::default()
            },
        })
    }

    /// Selects the execution engine: [`ExecMode::Serial`] steps every
    /// core on the calling thread; [`ExecMode::Parallel(n)`] fans the
    /// cores of each stage out over `n` persistent worker threads with a
    /// barrier at the stage boundary. Execution results are bit-identical
    /// in either mode (see the module docs); only host wall-clock
    /// behaviour differs. Switching modes mid-simulation is allowed.
    ///
    /// [`ExecMode::Parallel(n)`]: ExecMode::Parallel
    pub fn set_exec_mode(&mut self, mode: ExecMode) {
        match mode {
            ExecMode::Serial => {
                self.pool = None;
                self.exec_stats.threads = 1;
            }
            ExecMode::Parallel(n) => {
                let n = n.max(2);
                if self.pool.as_ref().map(|p| p.threads()) != Some(n) {
                    self.pool = Some(Arc::new(CorePool::new(n)));
                }
                self.exec_stats.threads = n;
            }
        }
    }

    /// Convenience thread-count form of [`set_exec_mode`]
    /// (`0`/`1` → serial).
    ///
    /// [`set_exec_mode`]: Self::set_exec_mode
    pub fn set_threads(&mut self, threads: usize) {
        self.set_exec_mode(ExecMode::from_threads(threads));
    }

    /// The current execution mode.
    pub fn exec_mode(&self) -> ExecMode {
        match &self.pool {
            Some(p) => ExecMode::Parallel(p.threads()),
            None => ExecMode::Serial,
        }
    }

    /// Host-side fan-out statistics (barrier waits, tasks dispatched).
    pub fn exec_stats(&self) -> &ExecStats {
        &self.exec_stats
    }

    /// Enables or disables event-based pruning (off by default; the
    /// baseline GEM of the paper is an oblivious full-cycle simulator).
    pub fn set_pruning(&mut self, on: bool) {
        self.pruning = on;
        if !on {
            for st in &mut self.input_cache {
                for c in st.iter_mut() {
                    *c = None;
                }
            }
        }
    }

    /// Writes a bit of the global signal array (testbench input side).
    /// Broadcasts to every lane — the single-stimulus view.
    pub fn poke(&mut self, index: u32, v: bool) {
        self.global[index as usize] = splat(v);
    }

    /// Reads a bit of the global signal array (testbench output side).
    /// Reads lane 0 — the single-stimulus view.
    pub fn peek(&self, index: u32) -> bool {
        self.global[index as usize] & 1 == 1
    }

    /// Maximum stimulus lanes one machine can batch (one per bit of
    /// the machine [`Word`]).
    pub const MAX_LANES: u32 = Word::BITS;

    /// Active stimulus lanes.
    pub fn lanes(&self) -> u32 {
        self.lanes
    }

    /// Sets the number of active stimulus lanes.
    ///
    /// Newly activated lanes start as exact copies of lane 0 (global
    /// bits *and* RAM contents — the mirror-lane-0 invariant the module
    /// docs describe), so a batch can be opened mid-run and diverge from
    /// there via [`poke_lane`](Self::poke_lane) /
    /// [`poke_lanes`](Self::poke_lanes). Shrinking re-mirrors the
    /// deactivated lanes onto lane 0 and drops their RAM images.
    ///
    /// # Errors
    ///
    /// [`MachineError::BadLanes`] when `lanes` is outside
    /// `1..=`[`Self::MAX_LANES`]; the machine is untouched.
    pub fn set_lanes(&mut self, lanes: u32) -> Result<(), MachineError> {
        if lanes == 0 || lanes > Self::MAX_LANES {
            return Err(MachineError::BadLanes(lanes));
        }
        if lanes == self.lanes {
            return Ok(());
        }
        self.lanes = lanes;
        self.exec_stats.lanes = lanes;
        // Re-mirror lane 0 into the now-inactive lanes so the invariant
        // holds no matter what the lanes held while active.
        let amask = lane_mask(lanes);
        for g in &mut self.global {
            *g = (*g & amask) | (splat(*g & 1 == 1) & !amask);
        }
        for images in &mut self.ram_mem {
            if images.len() > lanes as usize {
                images.truncate(lanes as usize);
            } else {
                let proto = images[0].clone();
                while images.len() < lanes as usize {
                    images.push(proto.clone());
                }
            }
        }
        Ok(())
    }

    /// Writes one lane's bit of a global signal. Lane 0 also drives the
    /// inactive mirror lanes (they shadow lane 0 by invariant).
    pub fn poke_lane(&mut self, index: u32, lane: u32, v: bool) {
        debug_assert!(lane < self.lanes, "lane {lane} is not active");
        let g = &mut self.global[index as usize];
        let bit = (1 as Word) << lane;
        *g = (*g & !bit) | (splat(v) & bit);
        if lane == 0 {
            let amask = lane_mask(self.lanes);
            *g = (*g & amask) | (splat(v) & !amask);
        }
    }

    /// Reads one lane's bit of a global signal.
    pub fn peek_lane(&self, index: u32, lane: u32) -> bool {
        (self.global[index as usize] >> lane) & 1 == 1
    }

    /// Writes a full lane word of a global signal — the packed injection
    /// path. Bits above the active lane count are ignored; the inactive
    /// lanes are forced to mirror lane 0.
    pub fn poke_lanes(&mut self, index: u32, word: Word) {
        let amask = lane_mask(self.lanes);
        self.global[index as usize] = (word & amask) | (splat(word & 1 == 1) & !amask);
    }

    /// Reads a full lane word of a global signal — the packed demux
    /// path.
    pub fn peek_lanes(&self, index: u32) -> Word {
        self.global[index as usize]
    }

    /// Directly reads a word of RAM block `ram` (test setup/inspection).
    /// Reads lane 0's image — the single-stimulus view.
    pub fn ram_word(&self, ram: usize, addr: usize) -> u32 {
        self.ram_mem[ram][0][addr]
    }

    /// Reads a word of RAM block `ram` as lane `lane` sees it (inactive
    /// lanes see lane 0's image).
    pub fn ram_word_lane(&self, ram: usize, lane: u32, addr: usize) -> u32 {
        let img = if lane < self.lanes { lane as usize } else { 0 };
        self.ram_mem[ram][img][addr]
    }

    /// Directly writes a word of RAM block `ram` (e.g. program loading).
    /// Broadcasts to every lane image — the single-stimulus view.
    pub fn set_ram_word(&mut self, ram: usize, addr: usize, value: u32) {
        for image in &mut self.ram_mem[ram] {
            image[addr] = value;
        }
    }

    /// Executes one simulated design cycle: all stages, the RAM phase,
    /// then the deferred commit.
    pub fn step_cycle(&mut self) {
        let stages = Arc::clone(&self.stages);
        for (si, stage) in stages.iter().enumerate() {
            // Ends at the close of this loop body, i.e. after the merge —
            // the stage span covers fan-out, barrier, and merge.
            let _stage_span = if span::enabled() {
                let mut sp = span::span(format!("stage{si}"), "vgpu");
                sp.arg("cores", stage.len() as u64);
                Some(sp)
            } else {
                None
            };
            let outboxes = match self.pool.clone() {
                Some(pool) if stage.len() > 1 => self.run_stage_parallel(&pool, si, stage),
                _ => self.run_stage_serial(si, stage),
            };
            self.merge_stage(si, stage, outboxes);
            // Stage boundary: device-wide synchronization makes immediate
            // writes visible.
            self.counters.device_syncs += 1;
        }
        // RAM phase (read-first): capture read data, then apply writes —
        // per lane, since every lane addresses its own RAM image.
        // Inactive lanes mirror lane 0 (same port bits, shared image),
        // so only the active lanes are walked and lane 0's read data is
        // broadcast into the inactive tail of each deferred word.
        let lanes = self.lanes as usize;
        let amask = lane_mask(self.lanes);
        for ri in 0..self.cfg.rams.len() {
            let b = self.cfg.rams[ri].clone();
            let addr_of = |g: &Vec<Word>, bits: &[u32; 13], lane: usize| -> usize {
                bits.iter()
                    .enumerate()
                    .filter(|(_, &i)| (g[i as usize] >> lane) & 1 == 1)
                    .map(|(k, _)| 1usize << k)
                    .sum()
            };
            let mut words = [0u32; GemGpu::MAX_LANES as usize];
            for (l, w) in words.iter_mut().enumerate().take(lanes) {
                let raddr = addr_of(&self.global, &b.raddr, l);
                *w = self.ram_mem[ri][l][raddr];
            }
            for (k, &g) in b.rdata.iter().enumerate() {
                let mut v: Word = 0;
                for (l, w) in words.iter().enumerate().take(lanes) {
                    v |= (Word::from((w >> k) & 1)) << l;
                }
                v |= splat(v & 1 == 1) & !amask;
                self.deferred.push((g, v));
            }
            for l in 0..lanes {
                if (self.global[b.we as usize] >> l) & 1 == 1 {
                    let waddr = addr_of(&self.global, &b.waddr, l);
                    let mut w = 0u32;
                    for (k, &g) in b.wdata.iter().enumerate() {
                        if (self.global[g as usize] >> l) & 1 == 1 {
                            w |= 1 << k;
                        }
                    }
                    self.ram_mem[ri][l][waddr] = w;
                }
            }
            // One word read + potential write, plus the port-bit
            // gathers, per active lane.
            self.counters.global_bytes += (8 + 59 / 8) * lanes as u64;
            self.counters.global_transactions += 2 * lanes as u64;
        }
        if !self.cfg.rams.is_empty() {
            self.counters.device_syncs += 1;
        }
        // Cycle boundary: commit deferred writes (flip-flops update, read
        // data registers latch, outputs publish).
        for (g, v) in self.deferred.drain(..) {
            self.global[g as usize] = v;
        }
        self.counters.device_syncs += 1;
        self.counters.cycles += 1;
    }

    /// Runs every core of a stage on the calling thread, in core order.
    fn run_stage_serial(&mut self, si: usize, stage: &[LoadedCore]) -> Vec<CoreOutbox> {
        let traced = span::enabled();
        let mut outboxes = Vec::with_capacity(stage.len());
        for (ci, core) in stage.iter().enumerate() {
            let cache = std::mem::take(&mut self.input_cache[si][ci]);
            let started = Instant::now();
            outboxes.push(execute_core(core, &self.global, self.pruning, cache, ci));
            if traced {
                span::complete(
                    format!("core s{si}c{ci}"),
                    "vgpu",
                    started,
                    started.elapsed(),
                    Vec::new(),
                );
            }
        }
        outboxes
    }

    /// Fans the cores of a stage out over the worker pool and waits at
    /// the barrier. The global array moves into an `Arc` snapshot for the
    /// duration of the stage (no copy — workers drop their handles before
    /// reporting, so it moves back out without cloning) and all writes
    /// are buffered in the outboxes, so there is no shared mutable state
    /// inside the stage.
    fn run_stage_parallel(
        &mut self,
        pool: &CorePool,
        si: usize,
        stage: &[LoadedCore],
    ) -> Vec<CoreOutbox> {
        let global = Arc::new(std::mem::take(&mut self.global));
        let stages = Arc::clone(&self.stages);
        let traced = span::enabled();
        // Workers report (outbox, completion time): the coordinator turns
        // the completion spread into per-core idle time at the barrier.
        let (tx, rx) = mpsc::channel::<(CoreOutbox, Instant)>();
        for ci in 0..stage.len() {
            let stages = Arc::clone(&stages);
            let global = Arc::clone(&global);
            let cache = std::mem::take(&mut self.input_cache[si][ci]);
            let pruning = self.pruning;
            let tx = tx.clone();
            pool.submit(Box::new(move || {
                let started = Instant::now();
                let out = execute_core(&stages[si][ci], &global, pruning, cache, ci);
                // Release the snapshot handle *before* reporting so the
                // coordinator can take the array back without a copy.
                drop(global);
                let done = Instant::now();
                if traced {
                    span::complete(
                        format!("core s{si}c{ci}"),
                        "vgpu",
                        started,
                        done - started,
                        Vec::new(),
                    );
                }
                let _ = tx.send((out, done));
            }));
        }
        drop(tx);
        let barrier_from = Instant::now();
        let results: Vec<(CoreOutbox, Instant)> = rx.iter().collect();
        let barrier_wait = barrier_from.elapsed();
        // Idle time is each core's wait for the stage's slowest peer
        // (duration_since saturates to zero for the slowest core itself).
        let last_done = results
            .iter()
            .map(|(_, done)| *done)
            .max()
            .unwrap_or(barrier_from);
        let idle_nanos: u64 = results
            .iter()
            .map(|(_, done)| last_done.duration_since(*done).as_nanos() as u64)
            .sum();
        self.exec_stats.record_stage(
            si,
            stage.len() as u64,
            barrier_wait.as_nanos() as u64,
            idle_nanos,
        );
        if traced {
            span::complete(
                format!("barrier s{si}"),
                "vgpu",
                barrier_from,
                barrier_wait,
                vec![
                    ("tasks".to_string(), (stage.len() as u64).into()),
                    ("idle_nanos".to_string(), idle_nanos.into()),
                ],
            );
        }
        let mut outboxes: Vec<CoreOutbox> = results.into_iter().map(|(out, _)| out).collect();
        debug_assert_eq!(outboxes.len(), stage.len());
        // Deterministic merge order regardless of completion order.
        outboxes.sort_unstable_by_key(|o| o.ci);
        self.global = Arc::try_unwrap(global).unwrap_or_else(|a| (*a).clone());
        outboxes
    }

    /// Applies a stage's outboxes in core order: immediate writes land in
    /// the global array (this *is* the stage-boundary visibility point),
    /// deferred writes queue for the cycle boundary, and counters merge
    /// into the device totals and their refinements. Core outputs are
    /// disjoint (each global bit has a single writer), and counter
    /// addition is commutative, so the result is independent of the order
    /// cores finished in.
    fn merge_stage(&mut self, si: usize, stage: &[LoadedCore], outboxes: Vec<CoreOutbox>) {
        for out in outboxes {
            let ci = out.ci;
            for (g, v) in out.immediate {
                self.global[g as usize] = v;
            }
            self.deferred.extend(out.deferred);
            self.counters += out.delta;
            self.part_counters[si][ci] += out.delta;
            if !out.skipped {
                let core = &stage[ci];
                let (shared, alu, syncs) = core.layer_cost;
                for lc in self.layer_counters[..core.comp.layers.len()].iter_mut() {
                    lc.shared_accesses += shared;
                    lc.alu_ops += alu;
                    lc.block_syncs += syncs;
                    lc.executions += 1;
                }
            }
            self.input_cache[si][ci] = out.cache;
        }
    }

    /// Accumulated counters.
    pub fn counters(&self) -> &KernelCounters {
        &self.counters
    }

    /// Device totals refined per partition and per boomerang layer.
    pub fn breakdown(&self) -> CounterBreakdown {
        let partitions = self
            .part_counters
            .iter()
            .enumerate()
            .flat_map(|(si, st)| {
                st.iter().enumerate().map(move |(ci, c)| PartitionCounters {
                    stage: si as u32,
                    core: ci as u32,
                    counters: *c,
                })
            })
            .collect();
        CounterBreakdown {
            total: self.counters,
            partitions,
            layers: self.layer_counters.clone(),
        }
    }

    /// The current [`breakdown`](Self::breakdown) as exportable labeled
    /// metric families, plus the execution-engine families
    /// (`gem_vgpu_threads`, stage-barrier counts and waits). The
    /// breakdown families are deterministic; the barrier-wait families
    /// are measured wall clock and are *not* covered by the 1-vs-N
    /// determinism contract.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.breakdown().to_metrics_snapshot();
        let es = &self.exec_stats;
        snap.push_scalar(
            "gem_vgpu_threads",
            "Configured execution engine worker threads (1 = serial)",
            MetricKind::Gauge,
            es.threads as f64,
        );
        snap.push_scalar(
            "gem_vgpu_lanes",
            "Active stimulus bit-lanes advanced per step (1 = single-stimulus)",
            MetricKind::Gauge,
            self.lanes as f64,
        );
        snap.push_scalar(
            "gem_vgpu_parallel_tasks_total",
            "Core executions dispatched to the worker pool",
            MetricKind::Counter,
            es.parallel_tasks as f64,
        );
        let stage_metric =
            |name: &str, help: &str, get: &dyn Fn(&crate::exec::StageWait) -> u64| MetricFamily {
                name: name.to_string(),
                help: help.to_string(),
                kind: MetricKind::Counter,
                samples: es
                    .per_stage
                    .iter()
                    .map(|s| Sample {
                        labels: vec![("stage".to_string(), s.stage.to_string())],
                        value: get(s) as f64,
                    })
                    .collect(),
            };
        snap.push(stage_metric(
            "gem_vgpu_stage_barriers_total",
            "Stage barriers the coordinator waited on, per pipeline stage",
            &|s| s.barriers,
        ));
        snap.push(stage_metric(
            "gem_vgpu_barrier_wait_nanos_total",
            "Nanoseconds the coordinator waited at each stage barrier",
            &|s| s.wait_nanos,
        ));
        snap.push(stage_metric(
            "gem_vgpu_core_idle_nanos_total",
            "Nanoseconds cores spent waiting for their stage's slowest peer",
            &|s| s.idle_nanos,
        ));
        snap.push(stage_metric(
            "gem_vgpu_stage_tasks_total",
            "Core executions fanned out, per pipeline stage",
            &|s| s.tasks,
        ));
        snap
    }

    /// Captures the complete mutable state of the machine.
    pub fn snapshot(&self) -> GpuSnapshot {
        GpuSnapshot {
            global: self.global.clone(),
            deferred: self.deferred.clone(),
            ram_mem: self.ram_mem.clone(),
            lanes: self.lanes,
            word_bits: Word::BITS,
            counters: self.counters,
            part_counters: self.part_counters.clone(),
            layer_counters: self.layer_counters.clone(),
            input_cache: self.input_cache.clone(),
        }
    }

    /// Restores a [`snapshot`](Self::snapshot), resuming execution
    /// bit-exactly. The snapshot must come from a machine loaded with a
    /// structurally identical bitstream and device configuration.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::SnapshotMismatch`] (leaving the machine
    /// untouched) when any state dimension differs from the loaded
    /// design.
    pub fn restore(&mut self, s: &GpuSnapshot) -> Result<(), MachineError> {
        if s.word_bits != Word::BITS {
            return Err(MachineError::SnapshotWordWidth(s.word_bits, Word::BITS));
        }
        if s.global.len() != self.global.len() {
            return Err(MachineError::SnapshotMismatch(format!(
                "global array is {} bits, design has {}",
                s.global.len(),
                self.global.len()
            )));
        }
        if s.ram_mem.len() != self.ram_mem.len() {
            return Err(MachineError::SnapshotMismatch(format!(
                "{} RAM blocks, design has {}",
                s.ram_mem.len(),
                self.ram_mem.len()
            )));
        }
        if s.lanes == 0 || s.lanes > Self::MAX_LANES {
            return Err(MachineError::SnapshotMismatch(format!(
                "snapshot claims {} lanes",
                s.lanes
            )));
        }
        let part_shape =
            |pc: &Vec<Vec<KernelCounters>>| -> Vec<usize> { pc.iter().map(Vec::len).collect() };
        if part_shape(&s.part_counters) != part_shape(&self.part_counters) {
            return Err(MachineError::SnapshotMismatch(
                "partition shape differs".to_string(),
            ));
        }
        if s.layer_counters.len() != self.layer_counters.len() {
            return Err(MachineError::SnapshotMismatch(format!(
                "{} layers, design has {}",
                s.layer_counters.len(),
                self.layer_counters.len()
            )));
        }
        let cache_shape =
            |ic: &Vec<Vec<Option<Vec<Word>>>>| -> Vec<usize> { ic.iter().map(Vec::len).collect() };
        if cache_shape(&s.input_cache) != cache_shape(&self.input_cache) {
            return Err(MachineError::SnapshotMismatch(
                "pruning cache shape differs".to_string(),
            ));
        }
        self.global.clone_from(&s.global);
        self.deferred.clone_from(&s.deferred);
        self.ram_mem.clone_from(&s.ram_mem);
        self.lanes = s.lanes;
        self.exec_stats.lanes = s.lanes;
        self.counters = s.counters;
        self.part_counters.clone_from(&s.part_counters);
        self.layer_counters.clone_from(&s.layer_counters);
        self.input_cache.clone_from(&s.input_cache);
        Ok(())
    }

    /// Number of pipeline stages.
    pub fn num_stages(&self) -> usize {
        self.stages.len()
    }

    /// Total cores (thread blocks) across stages.
    pub fn num_cores(&self) -> usize {
        self.stages.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gem_isa::{assemble_core, ReadEntry, WriteEntry};
    use gem_place::{BoomerangLayer, CoreProgram, OutputSource, PermSource};

    /// A one-core bitstream computing g2 = g0 AND g1 into global 2.
    fn and_bitstream() -> (Bitstream, DeviceConfig) {
        let width = 16u32;
        let mut layer = BoomerangLayer::new(width);
        layer.perm[0] = PermSource::State(0);
        layer.perm[1] = PermSource::State(1);
        layer.writeback[0][0] = Some(2);
        let prog = CoreProgram {
            width,
            state_size: 3,
            inputs: vec![],
            layers: vec![layer],
            outputs: vec![OutputSource::State {
                addr: 2,
                invert: false,
            }],
        };
        let reads = vec![
            ReadEntry {
                global: 0,
                state: 0,
            },
            ReadEntry {
                global: 1,
                state: 1,
            },
        ];
        let writes = vec![WriteEntry {
            global: 2,
            src: gem_isa::WriteSrc::State {
                addr: 2,
                invert: false,
            },
            deferred: false,
        }];
        let bytes = assemble_core(&prog, &reads, &writes);
        (
            Bitstream {
                width,
                global_bits: 3,
                stages: vec![vec![bytes]],
            },
            DeviceConfig {
                global_bits: 3,
                rams: vec![],
                initial_ones: vec![],
            },
        )
    }

    #[test]
    fn executes_simple_and() {
        let (bs, cfg) = and_bitstream();
        let mut gpu = GemGpu::load(&bs, cfg).expect("loads");
        for (a, b) in [(false, false), (true, false), (false, true), (true, true)] {
            gpu.poke(0, a);
            gpu.poke(1, b);
            gpu.step_cycle();
            assert_eq!(gpu.peek(2), a && b);
        }
        let c = gpu.counters();
        assert_eq!(c.cycles, 4);
        assert!(c.global_bytes > 0);
        assert!(c.device_syncs >= 8); // stage + cycle boundary per cycle
    }

    #[test]
    fn counters_scale_linearly_with_cycles() {
        let (bs, cfg) = and_bitstream();
        let mut gpu = GemGpu::load(&bs, cfg).expect("loads");
        gpu.poke(0, true);
        gpu.poke(1, true);
        gpu.step_cycle();
        let one = *gpu.counters();
        for _ in 0..9 {
            gpu.step_cycle();
        }
        let ten = *gpu.counters();
        assert_eq!(ten.global_bytes, one.global_bytes * 10);
        assert_eq!(ten.blocks_run, 10);
    }

    #[test]
    fn breakdown_reconciles_with_totals() {
        let (bs, cfg) = and_bitstream();
        let mut gpu = GemGpu::load(&bs, cfg).expect("loads");
        gpu.poke(0, true);
        gpu.poke(1, true);
        for _ in 0..5 {
            gpu.step_cycle();
        }
        let bd = gpu.breakdown();
        let sum = bd.partition_sum();
        let t = bd.total;
        assert_eq!(sum.alu_ops, t.alu_ops);
        assert_eq!(sum.shared_accesses, t.shared_accesses);
        assert_eq!(sum.block_syncs, t.block_syncs);
        assert_eq!(sum.blocks_run, t.blocks_run);
        // RAM-free design: even global traffic reconciles exactly.
        assert_eq!(sum.global_bytes, t.global_bytes);
        assert_eq!(sum.global_transactions, t.global_transactions);
        // Device-level events are never attributed to a partition.
        assert_eq!(sum.device_syncs, 0);
        assert_eq!(sum.cycles, 0);
        assert_eq!(bd.partitions.len(), 1);
        assert_eq!(bd.layers.len(), 1);
        assert_eq!(bd.layers[0].executions, 5);
        let snap = gpu.metrics_snapshot();
        assert_eq!(
            snap.family("gem_alu_ops_total").unwrap().total(),
            t.alu_ops as f64
        );
    }

    #[test]
    fn snapshot_restore_resumes_bit_exactly() {
        let (bs, cfg) = and_bitstream();
        let mut gpu = GemGpu::load(&bs, cfg.clone()).expect("loads");
        gpu.poke(0, true);
        gpu.poke(1, true);
        gpu.step_cycle();
        let snap = gpu.snapshot();
        // Diverge, then restore and replay: the continuations must match.
        gpu.poke(0, false);
        gpu.step_cycle();
        gpu.restore(&snap).expect("restores");
        gpu.poke(0, true);
        gpu.step_cycle();
        assert!(gpu.peek(2));
        assert_eq!(gpu.counters().cycles, 2, "counters restored with state");

        // A second machine restored from the same snapshot tracks the
        // first exactly.
        let mut other = GemGpu::load(&bs, cfg).expect("loads");
        other.restore(&snap).expect("restores");
        other.poke(0, true);
        other.poke(1, true);
        other.step_cycle();
        assert_eq!(other.peek(2), gpu.peek(2));
        assert_eq!(other.counters(), gpu.counters());
        assert!(snap.approx_bytes() > 0);
    }

    #[test]
    fn mismatched_snapshot_rejected() {
        let (bs, cfg) = and_bitstream();
        let gpu = GemGpu::load(&bs, cfg).expect("loads");
        let snap = gpu.snapshot();
        // A differently shaped machine must refuse the snapshot.
        let bs2 = Bitstream {
            width: 16,
            global_bits: 64 + 59,
            stages: vec![],
        };
        let mut idx = 0u32;
        let mut next = || {
            let i = idx;
            idx += 1;
            i
        };
        let cfg2 = DeviceConfig {
            global_bits: 123,
            rams: vec![RamBinding {
                raddr: std::array::from_fn(|_| next()),
                waddr: std::array::from_fn(|_| next()),
                wdata: std::array::from_fn(|_| next()),
                we: next(),
                rdata: std::array::from_fn(|_| next()),
            }],
            initial_ones: vec![],
        };
        let mut other = GemGpu::load(&bs2, cfg2).expect("loads");
        let before = other.snapshot();
        assert!(matches!(
            other.restore(&snap),
            Err(MachineError::SnapshotMismatch(_))
        ));
        assert_eq!(other.snapshot(), before, "failed restore must not mutate");
    }

    #[test]
    fn bad_global_index_rejected() {
        let (mut bs, cfg) = and_bitstream();
        // Corrupt: claim a smaller global space than the programs use.
        bs.global_bits = 1;
        let cfg = DeviceConfig {
            global_bits: 1,
            ..cfg
        };
        assert!(matches!(
            GemGpu::load(&bs, cfg),
            Err(MachineError::BadBinding(_))
        ));
    }

    #[test]
    fn ram_phase_read_first() {
        // No cores: drive RAM ports directly through pokes.
        let bs = Bitstream {
            width: 16,
            global_bits: 64 + 59,
            stages: vec![],
        };
        let mut idx = 0u32;
        let mut next = || {
            let i = idx;
            idx += 1;
            i
        };
        let binding = RamBinding {
            raddr: std::array::from_fn(|_| next()),
            waddr: std::array::from_fn(|_| next()),
            wdata: std::array::from_fn(|_| next()),
            we: next(),
            rdata: std::array::from_fn(|_| next()),
        };
        let cfg = DeviceConfig {
            global_bits: 123,
            rams: vec![binding.clone()],
            initial_ones: vec![],
        };
        let mut gpu = GemGpu::load(&bs, cfg).expect("loads");
        // Write 0b101 to address 0 while reading address 0.
        gpu.poke(binding.we, true);
        gpu.poke(binding.wdata[0], true);
        gpu.poke(binding.wdata[2], true);
        gpu.step_cycle();
        assert!(!gpu.peek(binding.rdata[0]), "read-first returns old zero");
        gpu.poke(binding.we, false);
        gpu.step_cycle();
        assert!(gpu.peek(binding.rdata[0]));
        assert!(gpu.peek(binding.rdata[2]));
        assert!(!gpu.peek(binding.rdata[1]));
        assert_eq!(gpu.ram_word(0, 0), 0b101);
    }
}

#[cfg(test)]
mod parallel_tests {
    use super::*;
    use crate::exec::ExecMode;
    use gem_isa::{assemble_core, ReadEntry, WriteEntry};
    use gem_place::{BoomerangLayer, CoreProgram, OutputSource, PermSource};

    /// One stage of `n` AND cores: core `i` computes
    /// `g[2n+i] = g[2i] & g[2i+1]`, alternating immediate and deferred
    /// writes so the merge path sees both write classes.
    fn wide_machine(n: u32) -> GemGpu {
        let width = 16u32;
        let mut cores = Vec::new();
        for i in 0..n {
            let mut layer = BoomerangLayer::new(width);
            layer.perm[0] = PermSource::State(0);
            layer.perm[1] = PermSource::State(1);
            layer.writeback[0][0] = Some(2);
            let prog = CoreProgram {
                width,
                state_size: 3,
                inputs: vec![],
                layers: vec![layer],
                outputs: vec![OutputSource::State {
                    addr: 2,
                    invert: false,
                }],
            };
            let reads = vec![
                ReadEntry {
                    global: 2 * i,
                    state: 0,
                },
                ReadEntry {
                    global: 2 * i + 1,
                    state: 1,
                },
            ];
            let writes = vec![WriteEntry {
                global: 2 * n + i,
                src: gem_isa::WriteSrc::State {
                    addr: 2,
                    invert: false,
                },
                deferred: i % 2 == 1,
            }];
            cores.push(assemble_core(&prog, &reads, &writes));
        }
        let bs = Bitstream {
            width,
            global_bits: 3 * n,
            stages: vec![cores],
        };
        GemGpu::load(
            &bs,
            DeviceConfig {
                global_bits: 3 * n,
                rams: vec![],
                initial_ones: vec![],
            },
        )
        .expect("loads")
    }

    /// Drives `serial` and `parallel` with an identical input pattern and
    /// asserts bit-identical observable state and counters every cycle.
    fn assert_lockstep(serial: &mut GemGpu, parallel: &mut GemGpu, n: u32, cycles: u64) {
        for c in 0..cycles {
            for i in 0..2 * n {
                let v = (c.wrapping_mul(0x9E37) >> i) & 1 == 1;
                serial.poke(i, v);
                parallel.poke(i, v);
            }
            serial.step_cycle();
            parallel.step_cycle();
            for g in 0..3 * n {
                assert_eq!(
                    serial.peek(g),
                    parallel.peek(g),
                    "cycle {c}: global bit {g} diverged"
                );
            }
            assert_eq!(serial.counters(), parallel.counters(), "cycle {c} counters");
        }
        assert_eq!(
            serial.breakdown(),
            parallel.breakdown(),
            "per-partition and per-layer refinements must match exactly"
        );
    }

    #[test]
    fn parallel_engine_is_bit_identical_to_serial() {
        let n = 6;
        let mut serial = wide_machine(n);
        let mut parallel = wide_machine(n);
        parallel.set_exec_mode(ExecMode::Parallel(3));
        assert_eq!(parallel.exec_mode(), ExecMode::Parallel(3));
        assert_eq!(serial.exec_mode(), ExecMode::Serial);
        assert_lockstep(&mut serial, &mut parallel, n, 32);
        let es = parallel.exec_stats();
        assert_eq!(es.threads, 3);
        assert_eq!(es.stage_barriers, 32, "one barrier per stage per cycle");
        assert_eq!(es.parallel_tasks, 32 * u64::from(n));
        // The per-stage refinement partitions the machine-wide totals
        // exactly — no wait time may vanish into an unattributed sum.
        assert_eq!(
            es.per_stage.iter().map(|s| s.tasks).sum::<u64>(),
            es.parallel_tasks
        );
        assert_eq!(
            es.per_stage.iter().map(|s| s.wait_nanos).sum::<u64>(),
            es.barrier_wait_nanos
        );
        assert_eq!(
            es.per_stage.iter().map(|s| s.idle_nanos).sum::<u64>(),
            es.core_idle_nanos
        );
        assert_eq!(serial.exec_stats().stage_barriers, 0);
    }

    #[test]
    fn parallel_engine_is_bit_identical_with_pruning() {
        let n = 4;
        let mut serial = wide_machine(n);
        let mut parallel = wide_machine(n);
        serial.set_pruning(true);
        parallel.set_pruning(true);
        parallel.set_exec_mode(ExecMode::Parallel(4));
        assert_lockstep(&mut serial, &mut parallel, n, 24);
        assert!(
            parallel.counters().blocks_skipped > 0,
            "the pattern repeats, so pruning must fire under the pool too"
        );
    }

    #[test]
    fn mode_switch_mid_simulation_keeps_the_trajectory() {
        let n = 5;
        let mut reference = wide_machine(n);
        let mut switching = wide_machine(n);
        assert_lockstep(&mut reference, &mut switching, n, 8);
        switching.set_exec_mode(ExecMode::Parallel(2));
        assert_lockstep(&mut reference, &mut switching, n, 8);
        switching.set_exec_mode(ExecMode::Serial);
        assert_lockstep(&mut reference, &mut switching, n, 8);
    }

    #[test]
    fn clones_share_the_pool_and_step_independently() {
        let n = 4;
        let mut a = wide_machine(n);
        a.set_exec_mode(ExecMode::Parallel(2));
        let mut b = a.clone();
        let mut serial = wide_machine(n);
        // Step the clones concurrently from two threads against one pool.
        let ja = std::thread::spawn(move || {
            for _ in 0..16 {
                a.step_cycle();
            }
            a
        });
        let jb = std::thread::spawn(move || {
            for _ in 0..16 {
                b.step_cycle();
            }
            b
        });
        let a = ja.join().unwrap();
        let b = jb.join().unwrap();
        for _ in 0..16 {
            serial.step_cycle();
        }
        assert_eq!(a.counters(), serial.counters());
        assert_eq!(b.counters(), serial.counters());
        for g in 0..3 * n {
            assert_eq!(a.peek(g), serial.peek(g));
            assert_eq!(b.peek(g), serial.peek(g));
        }
    }

    #[test]
    fn counter_merge_is_order_independent() {
        // Run a real multi-core machine, then re-merge its per-core
        // counters in shuffled orders: every order must reproduce the
        // same aggregate (this is the invariant the parallel barrier
        // merge leans on, since core completion order is arbitrary).
        let n = 6;
        let mut gpu = wide_machine(n);
        gpu.set_exec_mode(ExecMode::Parallel(3));
        for c in 0..12 {
            for i in 0..2 * n {
                gpu.poke(i, ((c * 7) >> i) & 1 == 1);
            }
            gpu.step_cycle();
        }
        let bd = gpu.breakdown();
        let deltas: Vec<KernelCounters> = bd.partitions.iter().map(|p| p.counters).collect();
        let reference = {
            let mut sum = KernelCounters::default();
            for d in &deltas {
                sum += *d;
            }
            sum
        };
        // Deterministic shuffles: rotate and a fixed LCG permutation.
        let mut orders: Vec<Vec<usize>> = (0..deltas.len())
            .map(|rot| {
                (0..deltas.len())
                    .map(|i| (i + rot) % deltas.len())
                    .collect()
            })
            .collect();
        let mut lcg = 0x2545F4914F6CDD1Du64;
        let mut perm: Vec<usize> = (0..deltas.len()).collect();
        for i in (1..perm.len()).rev() {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            perm.swap(i, (lcg >> 33) as usize % (i + 1));
        }
        orders.push(perm);
        for order in orders {
            let mut sum = KernelCounters::default();
            for &i in &order {
                sum += deltas[i];
            }
            assert_eq!(
                sum, reference,
                "merge order {order:?} changed the aggregate"
            );
        }
        assert_eq!(reference.alu_ops, bd.total.alu_ops);
        assert_eq!(reference.blocks_run, bd.total.blocks_run);
    }

    #[test]
    fn exec_metrics_exported() {
        let n = 4;
        let mut gpu = wide_machine(n);
        gpu.set_exec_mode(ExecMode::Parallel(2));
        for _ in 0..4 {
            gpu.step_cycle();
        }
        let snap = gpu.metrics_snapshot();
        assert_eq!(snap.family("gem_vgpu_threads").unwrap().total(), 2.0);
        assert_eq!(
            snap.family("gem_vgpu_parallel_tasks_total")
                .unwrap()
                .total(),
            (4 * n) as f64
        );
        let barriers = snap.family("gem_vgpu_stage_barriers_total").unwrap();
        assert_eq!(barriers.total(), 4.0);
        assert_eq!(barriers.samples[0].labels[0].0, "stage");
        assert!(snap.family("gem_vgpu_barrier_wait_nanos_total").is_some());
        assert!(snap.family("gem_vgpu_core_idle_nanos_total").is_some());
        assert_eq!(
            snap.family("gem_vgpu_stage_tasks_total").unwrap().total(),
            (4 * n) as f64
        );
    }

    #[test]
    fn snapshot_restore_is_engine_agnostic() {
        let n = 4;
        let mut par = wide_machine(n);
        par.set_exec_mode(ExecMode::Parallel(2));
        for i in 0..2 * n {
            par.poke(i, i % 3 == 0);
        }
        for _ in 0..5 {
            par.step_cycle();
        }
        let snap = par.snapshot();
        // A serial machine restored from a parallel machine's snapshot
        // continues the identical trajectory (exec shape is not state).
        let mut ser = wide_machine(n);
        ser.restore(&snap).expect("restores");
        for i in 0..2 * n {
            ser.poke(i, i % 3 == 0);
            par.poke(i, i % 3 == 0);
        }
        ser.step_cycle();
        par.step_cycle();
        for g in 0..3 * n {
            assert_eq!(ser.peek(g), par.peek(g));
        }
        assert_eq!(ser.counters(), par.counters());
    }
}

#[cfg(test)]
mod pruning_tests {
    use super::*;
    use gem_isa::{assemble_core, ReadEntry, WriteEntry};
    use gem_place::{BoomerangLayer, CoreProgram, OutputSource, PermSource};

    /// Two cores: core A computes g2 = g0 & g1 (immediate), core B computes
    /// g3 = !g2 (deferred), with a deliberately bursty input pattern so
    /// pruning has skippable cycles.
    fn two_core_machine() -> GemGpu {
        let width = 16u32;
        let mk_core = |perm0: u32, perm1: Option<u32>, invert: bool, out_g: u32, deferred: bool| {
            let mut layer = BoomerangLayer::new(width);
            layer.perm[0] = PermSource::State(0);
            layer.perm[1] = match perm1 {
                Some(_) => PermSource::State(1),
                None => PermSource::ConstFalse,
            };
            if perm1.is_none() {
                layer.folds[0].ob[0] = true; // bypass: out = A
            }
            layer.writeback[0][0] = Some(2);
            let prog = CoreProgram {
                width,
                state_size: 3,
                inputs: vec![],
                layers: vec![layer],
                outputs: vec![OutputSource::State {
                    addr: 2,
                    invert: false,
                }],
            };
            let mut reads = vec![ReadEntry {
                global: perm0,
                state: 0,
            }];
            if let Some(g1) = perm1 {
                reads.push(ReadEntry {
                    global: g1,
                    state: 1,
                });
            }
            let writes = vec![WriteEntry {
                global: out_g,
                src: gem_isa::WriteSrc::State { addr: 2, invert },
                deferred,
            }];
            assemble_core(&prog, &reads, &writes)
        };
        let bs = Bitstream {
            width,
            global_bits: 4,
            stages: vec![
                vec![mk_core(0, Some(1), false, 2, false)],
                vec![mk_core(2, None, true, 3, true)],
            ],
        };
        GemGpu::load(
            &bs,
            DeviceConfig {
                global_bits: 4,
                rams: vec![],
                initial_ones: vec![],
            },
        )
        .expect("loads")
    }

    #[test]
    fn pruning_preserves_outputs_exactly() {
        let mut base = two_core_machine();
        let mut pruned = two_core_machine();
        pruned.set_pruning(true);
        let pattern = [
            (false, false),
            (true, true),
            (true, true), // repeat: core A skippable
            (true, true),
            (false, true),
            (false, true),
            (true, false),
            (true, false),
        ];
        for (a, b) in pattern {
            base.poke(0, a);
            base.poke(1, b);
            pruned.poke(0, a);
            pruned.poke(1, b);
            base.step_cycle();
            pruned.step_cycle();
            assert_eq!(base.peek(2), pruned.peek(2));
            assert_eq!(base.peek(3), pruned.peek(3));
            assert_eq!(base.peek(2), a && b);
            assert_eq!(base.peek(3), !(a && b));
        }
        let c = pruned.counters();
        assert!(c.blocks_skipped > 0, "repeats must be skipped");
        assert!(
            c.global_bytes < base.counters().global_bytes,
            "pruning must save instruction traffic"
        );
    }

    #[test]
    fn pruning_is_conservative_across_lanes() {
        // With two lanes, changing only lane 1's input must not let the
        // full-word cache compare skip the core.
        let mut gpu = two_core_machine();
        gpu.set_lanes(2).expect("2 lanes");
        gpu.set_pruning(true);
        gpu.poke(0, true);
        gpu.poke(1, true);
        gpu.step_cycle();
        let skipped_before = gpu.counters().blocks_skipped;
        // Lane 0 unchanged, lane 1 flips: core A must re-execute.
        gpu.poke_lane(1, 1, false);
        gpu.step_cycle();
        assert_eq!(gpu.counters().blocks_skipped, skipped_before);
        assert!(gpu.peek_lane(2, 0), "lane 0: 1&1");
        assert!(!gpu.peek_lane(2, 1), "lane 1: 1&0");
    }

    #[test]
    fn pruning_off_by_default_and_resettable() {
        let mut gpu = two_core_machine();
        for _ in 0..4 {
            gpu.step_cycle();
        }
        assert_eq!(gpu.counters().blocks_skipped, 0);
        gpu.set_pruning(true);
        for _ in 0..4 {
            gpu.step_cycle();
        }
        assert!(gpu.counters().blocks_skipped > 0);
        gpu.set_pruning(false);
        let skipped = gpu.counters().blocks_skipped;
        for _ in 0..4 {
            gpu.step_cycle();
        }
        assert_eq!(gpu.counters().blocks_skipped, skipped);
    }
}

#[cfg(test)]
mod lane_tests {
    use super::*;
    use gem_isa::{assemble_core, ReadEntry, WriteEntry};
    use gem_place::{BoomerangLayer, CoreProgram, OutputSource, PermSource};

    /// Same one-core AND machine the scalar tests use.
    fn and_machine() -> GemGpu {
        let width = 16u32;
        let mut layer = BoomerangLayer::new(width);
        layer.perm[0] = PermSource::State(0);
        layer.perm[1] = PermSource::State(1);
        layer.writeback[0][0] = Some(2);
        let prog = CoreProgram {
            width,
            state_size: 3,
            inputs: vec![],
            layers: vec![layer],
            outputs: vec![OutputSource::State {
                addr: 2,
                invert: false,
            }],
        };
        let reads = vec![
            ReadEntry {
                global: 0,
                state: 0,
            },
            ReadEntry {
                global: 1,
                state: 1,
            },
        ];
        let writes = vec![WriteEntry {
            global: 2,
            src: gem_isa::WriteSrc::State {
                addr: 2,
                invert: false,
            },
            deferred: false,
        }];
        let bytes = assemble_core(&prog, &reads, &writes);
        GemGpu::load(
            &Bitstream {
                width,
                global_bits: 3,
                stages: vec![vec![bytes]],
            },
            DeviceConfig {
                global_bits: 3,
                rams: vec![],
                initial_ones: vec![],
            },
        )
        .expect("loads")
    }

    #[test]
    fn lane_count_validation() {
        let mut gpu = and_machine();
        assert_eq!(gpu.lanes(), 1);
        assert!(matches!(gpu.set_lanes(0), Err(MachineError::BadLanes(0))));
        assert!(matches!(gpu.set_lanes(65), Err(MachineError::BadLanes(65))));
        assert_eq!(gpu.lanes(), 1, "failed set_lanes must not change state");
        gpu.set_lanes(32).expect("32 lanes");
        assert_eq!(gpu.lanes(), 32);
        gpu.set_lanes(64).expect("64 lanes");
        assert_eq!(gpu.lanes(), 64);
        assert_eq!(gpu.exec_stats().lanes, 64);
    }

    #[test]
    fn scalar_pokes_broadcast_and_peek_reads_lane_zero() {
        let mut gpu = and_machine();
        gpu.set_lanes(8).expect("8 lanes");
        gpu.poke(0, true);
        gpu.poke(1, true);
        assert_eq!(gpu.peek_lanes(0), Word::MAX, "broadcast fills every lane");
        gpu.step_cycle();
        assert!(gpu.peek(2));
        assert_eq!(gpu.peek_lanes(2), Word::MAX);
    }

    #[test]
    fn lanes_compute_independently() {
        let mut gpu = and_machine();
        gpu.set_lanes(64).expect("64 lanes");
        // Lane k: a = bit0 of k, b = bit1 of k.
        for lane in 0..64 {
            gpu.poke_lane(0, lane, lane & 1 == 1);
            gpu.poke_lane(1, lane, lane & 2 == 2);
        }
        gpu.step_cycle();
        for lane in 0..64 {
            assert_eq!(
                gpu.peek_lane(2, lane),
                (lane & 1 == 1) && (lane & 2 == 2),
                "lane {lane}"
            );
        }
    }

    #[test]
    fn inactive_lanes_mirror_lane_zero() {
        let mut gpu = and_machine();
        gpu.set_lanes(4).expect("4 lanes");
        gpu.poke_lane(0, 0, true);
        gpu.poke_lane(1, 0, true);
        gpu.poke_lane(0, 1, true);
        gpu.poke_lane(1, 1, false);
        gpu.step_cycle();
        // Lanes 4..64 shadow lane 0 exactly.
        let word = gpu.peek_lanes(2);
        assert_eq!(word & 0b1, 1, "lane 0: 1&1");
        assert_eq!(word & 0b10, 0, "lane 1: 1&0");
        assert_eq!(word >> 4, (Word::MAX << 4) >> 4, "inactive lanes mirror");
        // Packed injection also masks the inactive tail.
        gpu.poke_lanes(0, 0x0000_0001); // lane0=1, lanes 1..3 = 0
        assert_eq!(gpu.peek_lanes(0) >> 4, (Word::MAX << 4) >> 4);
    }

    #[test]
    fn shrinking_remirrors_dropped_lanes() {
        let mut gpu = and_machine();
        gpu.set_lanes(4).expect("4 lanes");
        gpu.poke_lane(0, 0, true);
        gpu.poke_lane(0, 3, false);
        gpu.set_lanes(2).expect("back to 2");
        // Lane 3 is inactive again: it must read as lane 0.
        assert!(gpu.peek_lane(0, 3));
    }

    #[test]
    fn per_lane_ram_images_are_independent() {
        // RAM-only machine (no cores), ports driven via pokes.
        let bs = Bitstream {
            width: 16,
            global_bits: 64 + 59,
            stages: vec![],
        };
        let mut idx = 0u32;
        let mut next = || {
            let i = idx;
            idx += 1;
            i
        };
        let binding = RamBinding {
            raddr: std::array::from_fn(|_| next()),
            waddr: std::array::from_fn(|_| next()),
            wdata: std::array::from_fn(|_| next()),
            we: next(),
            rdata: std::array::from_fn(|_| next()),
        };
        let cfg = DeviceConfig {
            global_bits: 123,
            rams: vec![binding.clone()],
            initial_ones: vec![],
        };
        let mut gpu = GemGpu::load(&bs, cfg).expect("loads");
        gpu.set_lanes(2).expect("2 lanes");
        // Lane 0 writes 1 to address 0; lane 1 writes 2 to address 1.
        gpu.poke(binding.we, true);
        gpu.poke_lane(binding.wdata[0], 0, true);
        gpu.poke_lane(binding.wdata[0], 1, false);
        gpu.poke_lane(binding.wdata[1], 1, true);
        gpu.poke_lane(binding.waddr[0], 1, true); // lane 1 → address 1
        gpu.step_cycle();
        assert_eq!(gpu.ram_word_lane(0, 0, 0), 0b01);
        assert_eq!(gpu.ram_word_lane(0, 0, 1), 0);
        assert_eq!(gpu.ram_word_lane(0, 1, 0), 0);
        assert_eq!(gpu.ram_word_lane(0, 1, 1), 0b10);
        // Per-lane read-back: lane 0 reads address 0, lane 1 address 1.
        gpu.poke(binding.we, false);
        gpu.poke_lane(binding.raddr[0], 1, true);
        gpu.step_cycle();
        assert!(gpu.peek_lane(binding.rdata[0], 0));
        assert!(!gpu.peek_lane(binding.rdata[1], 0));
        assert!(!gpu.peek_lane(binding.rdata[0], 1));
        assert!(gpu.peek_lane(binding.rdata[1], 1));
        // set_ram_word broadcasts; ram_word reads lane 0.
        gpu.set_ram_word(0, 5, 0xAB);
        assert_eq!(gpu.ram_word(0, 5), 0xAB);
        assert_eq!(gpu.ram_word_lane(0, 1, 5), 0xAB);
        // Growing clones lane 0's image for the new lane.
        gpu.set_lanes(3).expect("3 lanes");
        assert_eq!(gpu.ram_word_lane(0, 2, 0), 0b01);
    }

    #[test]
    fn snapshot_carries_lanes() {
        let mut gpu = and_machine();
        gpu.set_lanes(5).expect("5 lanes");
        gpu.poke_lane(0, 3, true);
        gpu.poke_lane(1, 3, true);
        let snap = gpu.snapshot();
        assert_eq!(snap.lanes(), 5);
        let mut other = and_machine();
        other.restore(&snap).expect("restores");
        assert_eq!(other.lanes(), 5);
        other.step_cycle();
        gpu.step_cycle();
        for lane in 0..5 {
            assert_eq!(other.peek_lane(2, lane), gpu.peek_lane(2, lane));
        }
    }

    #[test]
    fn stale_word_width_snapshot_rejected() {
        let mut gpu = and_machine();
        gpu.set_lanes(3).expect("3 lanes");
        let before = gpu.snapshot();
        assert_eq!(before.word_bits(), Word::BITS);
        // Forge a legacy 32-wide snapshot: restore must fail with the
        // typed width error and leave the machine untouched.
        let stale = gpu.snapshot().with_word_bits(32);
        assert!(matches!(
            gpu.restore(&stale),
            Err(MachineError::SnapshotWordWidth(32, 64))
        ));
        assert_eq!(gpu.snapshot(), before, "failed restore must not mutate");
        let msg = MachineError::SnapshotWordWidth(32, 64).to_string();
        assert!(msg.contains("32") && msg.contains("64"), "{msg}");
    }

    #[test]
    fn lanes_metric_exported() {
        let mut gpu = and_machine();
        gpu.set_lanes(7).expect("7 lanes");
        let snap = gpu.metrics_snapshot();
        assert_eq!(snap.family("gem_vgpu_lanes").unwrap().total(), 7.0);
    }

    /// The heart of the batch contract at machine level: a 64-lane run
    /// equals 64 scalar runs, under both engines.
    #[test]
    fn batch_equals_independent_scalar_runs() {
        for threads in [1usize, 4] {
            let mut batch = and_machine();
            batch.set_threads(threads);
            batch.set_lanes(64).expect("64 lanes");
            let mut singles: Vec<GemGpu> = (0..64).map(|_| and_machine()).collect();
            for c in 0u64..16 {
                for lane in 0..64u32 {
                    let a = (c ^ u64::from(lane)) & 1 == 1;
                    let b = (c.wrapping_mul(0x9E37) >> lane) & 1 == 1;
                    batch.poke_lane(0, lane, a);
                    batch.poke_lane(1, lane, b);
                    singles[lane as usize].poke(0, a);
                    singles[lane as usize].poke(1, b);
                }
                batch.step_cycle();
                for (lane, single) in singles.iter_mut().enumerate() {
                    single.step_cycle();
                    assert_eq!(
                        batch.peek_lane(2, lane as u32),
                        single.peek(2),
                        "threads {threads} cycle {c} lane {lane}"
                    );
                }
            }
        }
    }
}
