//! The virtual GPU executing GEM bitstreams.
//!
//! [`GemGpu`] is the reproduction's stand-in for the paper's CUDA
//! interpreter kernel. It lowers each core's decoded VLIW program once at
//! load ([`PackedCore`]; [`CompiledCore`] once a second lane is asked
//! for) and executes the lowered form every cycle with the
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
//! Execution shape (DESIGN.md §7): [`step_cycle`] runs the cores of a
//! stage in order on the calling thread. Every core of a stage reads the
//! *stage-start* global array — its immediate writes are buffered and
//! land only after the stage's last core has run — so a core's result
//! never depends on its position in the stage, exactly as thread blocks
//! between two device-wide synchronizations cannot see each other's
//! writes. Compiler output has no intra-stage communication anyway
//! (replication-aided partitioning removes it), but [`GemGpu::load`]
//! accepts any in-bounds bitstream, so the buffering is what defines
//! the semantics.
//!
//! **Lane batching** (`docs/BATCH.md`): every global signal is stored as
//! a machine-word ([`gem_place::Word`], a `u64`) *lane word* — bit `k`
//! is the signal's value in independent simulation `k`. The fold network
//! is pure bitwise logic
//! ([`gem_place::CompiledLayer::execute_words_into`]), so one
//! [`step_cycle`] advances up to [`GemGpu::MAX_LANES`] stimulus streams
//! at the cost of one. With a single lane active there is nothing to
//! batch, and the machine runs the signal-packed form of the same
//! program instead ([`gem_place::PackedLayer`]: one *bit* per signal,
//! 32 fold slots per word-op). The scalar API ([`poke`]/[`peek`]) stays the single-stimulus
//! view: pokes broadcast to every lane, peeks read lane 0 — a machine
//! never touched by the lane API behaves exactly as before. Inactive
//! lanes (≥ [`lanes`]) always *mirror lane 0* — broadcast pokes, pure
//! lane-wise logic, and a shared RAM image keep that invariant, which is
//! what makes [`set_lanes`] upgrades mid-run coherent, and what makes
//! the one-lane form free to switch to and from: at one lane every
//! global word is a splat, which is all the packed form reads (bit 0)
//! or writes.
//!
//! [`step_cycle`]: GemGpu::step_cycle
//! [`poke`]: GemGpu::poke
//! [`peek`]: GemGpu::peek
//! [`lanes`]: GemGpu::lanes
//! [`set_lanes`]: GemGpu::set_lanes

use crate::compiled::{with_scratch, CompiledCore, PackedCore};
use crate::counters::{CounterBreakdown, KernelCounters, LayerCounters, PartitionCounters};
use crate::ram::{ram_phase, RamImage, RAM_BYTES_PER_LANE, RAM_TRANSACTIONS_PER_LANE};
use gem_isa::{disassemble_core, Bitstream, DecodeError, RamBinding, WriteSrc};
use gem_place::{splat, Word};
use gem_telemetry::span;
use gem_telemetry::{MetricKind, MetricsSnapshot};
use std::fmt;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

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
        }
    }
}

impl std::error::Error for MachineError {}

impl From<DecodeError> for MachineError {
    fn from(e: DecodeError) -> Self {
        MachineError::Decode(e)
    }
}

/// One loaded core: the program lowered once to signal-packed form
/// (DESIGN.md §7) plus its precomputed per-cycle counter
/// contribution. The decoded program is validated at load and dropped.
#[derive(Debug, PartialEq, Eq)]
struct LoadedCore {
    packed: PackedCore,
    delta: KernelCounters,
    /// Static cost of one boomerang layer of this core (all layers of a
    /// core are structurally identical in cost): shared accesses, fold
    /// ALU ops, block barriers.
    layer_cost: (u64, u64, u64),
}

/// The loaded bitstream: read-only after [`GemGpu::load`] and shared by
/// every clone and snapshot of the machine. The engine is oblivious — a
/// core costs the same every cycle — so all per-partition and per-layer
/// accounting is a function of this plus the cycle count
/// ([`GemGpu::breakdown`]).
#[derive(Debug)]
struct Program {
    stages: Vec<Vec<LoadedCore>>,
    /// What one cycle charges to the device totals at any lane count:
    /// every core's `delta`, the device barriers (one per stage, one for
    /// the RAM phase if the design has RAMs, one at the cycle boundary)
    /// and the cycle itself. RAM-phase traffic scales with the active
    /// lanes and is charged on top ([`RAM_BYTES_PER_LANE`]).
    cycle_delta: KernelCounters,
    /// The lane-word form of every core, indexed as `stages`: what runs
    /// with more than one lane active. Lowered when a sharer of the
    /// program first asks for a second lane, so a design that only ever
    /// runs one simulation never holds it: 2.26 MB of layer tables on
    /// OpenPiton8 (`u32` leaf pairs of the computing first-level slots
    /// 1.19, byte planes of their fold constants 0.45, writeback lists
    /// 0.33, operand pairs above the first level 0.30; DESIGN.md §7)
    /// beside the packed form's 1.8 MB — still +8–9 % on the resident
    /// size of a one-lane session, for nothing.
    wide: OnceLock<Vec<Vec<CompiledCore>>>,
}

impl Program {
    fn wide(&self) -> &[Vec<CompiledCore>] {
        self.wide.get_or_init(|| {
            let widen = |stage: &Vec<LoadedCore>| stage.iter().map(|c| c.packed.widen()).collect();
            self.stages.iter().map(widen).collect()
        })
    }
}

/// Two programs are equal when they were lowered from equal bitstreams.
/// Whether either has produced its lane-word form yet is a cache state,
/// not part of the program: a snapshot restores across it.
impl PartialEq for Program {
    fn eq(&self, other: &Self) -> bool {
        self.stages == other.stages && self.cycle_delta == other.cycle_delta
    }
}

/// `Eq` is what lets `Arc<Program>` compare by pointer first.
impl Eq for Program {}

/// The virtual GPU; see the module docs.
///
/// Cloning is cheap on the program side: the lowered bitstream is
/// shared read-only (`Arc`) — only the simulation state (signals, RAMs,
/// lane count, counter totals) is deep-copied, so clones step
/// independently, from different threads if need be. This is how
/// `gem-server` makes sessions: [`load`](Self::load) once per cached
/// design, clone the power-on machine per `open`.
#[derive(Debug, Clone)]
pub struct GemGpu {
    cfg: DeviceConfig,
    program: Arc<Program>,
    /// Global signal array as lane words: bit `k` of `global[i]` is
    /// signal `i` in simulation lane `k`.
    global: Vec<Word>,
    /// Immediate writes of the stage in flight, applied at the stage
    /// boundary (empty between stages, so never part of a snapshot).
    immediate: Vec<(u32, Word)>,
    /// Deferred writes of the cycle in flight, committed at the cycle
    /// boundary (empty between cycles, so never part of a snapshot).
    deferred: Vec<(u32, Word)>,
    /// RAM contents per block, one image per active lane
    /// (`ram_mem[ram][lane]`), each holding only the pages its lane has
    /// written; inactive lanes read image 0.
    ram_mem: Vec<Vec<RamImage>>,
    /// Active stimulus lanes (1..=[`Self::MAX_LANES`]).
    lanes: u32,
    counters: KernelCounters,
    /// Cycles stepped while each lane was active (index = lane): the
    /// per-lane refinement of `counters.cycles`, kept beside it so a
    /// snapshot rewinds both together.
    lane_steps: [u64; Self::MAX_LANES as usize],
}

/// A saved point-in-time copy of everything mutable in a [`GemGpu`]:
/// the global signal array, RAM contents, lane count and counter
/// totals (device-wide and per lane). Restoring a snapshot onto a machine
/// loaded with the *same* bitstream resumes execution bit-exactly — the
/// substrate for session suspend/resume in `gem-server` and for
/// checkpointed long simulations.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuSnapshot {
    /// The program the state belongs to; [`GemGpu::restore`] accepts the
    /// snapshot only on a machine running an equal one.
    program: Arc<Program>,
    global: Vec<Word>,
    ram_mem: Vec<Vec<RamImage>>,
    lanes: u32,
    counters: KernelCounters,
    lane_steps: [u64; GemGpu::MAX_LANES as usize],
}

impl GpuSnapshot {
    /// Approximate heap footprint in bytes: the global signal array plus
    /// the RAM pages the lanes hold (a page no lane has written a
    /// non-zero word to costs nothing). The `bytes` field of the
    /// server's `save` response.
    pub fn approx_bytes(&self) -> usize {
        self.global.len() * std::mem::size_of::<Word>()
            + self
                .ram_mem
                .iter()
                .flatten()
                .map(RamImage::bytes)
                .sum::<usize>()
    }

    /// Active lane count captured with the state.
    pub fn lanes(&self) -> u32 {
        self.lanes
    }
}

/// Mask of the active lanes: the low `lanes` bits set.
#[inline]
pub(crate) fn lane_mask(lanes: u32) -> Word {
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

impl GemGpu {
    /// Decodes, validates and lowers a bitstream against a device
    /// configuration.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError`] on undecodable programs, a device whose
    /// global space is not the bitstream's (checked before anything is
    /// sized by it), or out-of-range global indices / state addresses.
    pub fn load(bitstream: &Bitstream, cfg: DeviceConfig) -> Result<Self, MachineError> {
        let gb = cfg.global_bits;
        if gb != bitstream.global_bits {
            return Err(MachineError::BadBinding(format!(
                "device has {gb} global bits, the bitstream {}",
                bitstream.global_bits
            )));
        }
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
                let packed = PackedCore::lower(&dec).ok_or_else(|| {
                    MachineError::BadBinding(format!(
                        "stage {si} core {ci}: a layer addresses state beyond the core width \
                         {width}, or the width itself is beyond 16-bit state addresses"
                    ))
                })?;
                cores.push(LoadedCore {
                    packed,
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
        let ram_mem = cfg.rams.iter().map(|_| vec![RamImage::default()]).collect();
        let mut global = vec![Word::MIN; gb as usize];
        for &idx in &cfg.initial_ones {
            // Power-on ones hold in every lane.
            global[idx as usize] = splat(true);
        }
        let mut cycle_delta = KernelCounters {
            device_syncs: stages.len() as u64 + u64::from(!cfg.rams.is_empty()) + 1,
            cycles: 1,
            ..Default::default()
        };
        for core in stages.iter().flatten() {
            cycle_delta += core.delta;
        }
        Ok(GemGpu {
            global,
            immediate: Vec::new(),
            deferred: Vec::new(),
            ram_mem,
            lanes: 1,
            counters: KernelCounters::default(),
            lane_steps: [0; Self::MAX_LANES as usize],
            program: Arc::new(Program {
                stages,
                cycle_delta,
                wide: OnceLock::new(),
            }),
            cfg,
        })
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
    /// The first request for a second lane on a loaded program — by this
    /// machine or any clone of it — lowers the program's lane-word form
    /// (a first `set_lanes(2)` is ~15 ms on OpenPiton8, against ~22 ms
    /// for [`load`](Self::load): there is nothing to decode); every later
    /// one, on any sharer, finds it there. Growing clones lane 0's RAM
    /// images, which copies only the pages lane 0 has written: on a
    /// freshly loaded machine, none.
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
        if lanes > 1 {
            self.program.wide();
        }
        self.lanes = lanes;
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
                let lane0 = images[0].clone();
                images.resize(lanes as usize, lane0);
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

    /// Executes one simulated design cycle: all stages, the RAM phase,
    /// then the deferred commit.
    pub fn step_cycle(&mut self) {
        let program = Arc::clone(&self.program);
        let traced = span::enabled();
        for (si, stage) in program.stages.iter().enumerate() {
            // Ends at the close of this loop body: the stage span covers
            // every core and the stage-boundary publish.
            let _stage_span = traced.then(|| {
                let mut sp = span::span(format!("stage{si}"), "vgpu");
                sp.arg("cores", stage.len() as u64);
                sp
            });
            for ci in 0..stage.len() {
                let started = traced.then(Instant::now);
                self.run_core(&program, si, ci);
                if let Some(started) = started {
                    span::complete(
                        format!("core s{si}c{ci}"),
                        "vgpu",
                        started,
                        started.elapsed(),
                        Vec::new(),
                    );
                }
            }
            // Stage boundary: device-wide synchronization makes immediate
            // writes visible. Not before — every core of the stage has
            // read the stage-start array.
            for (g, v) in self.immediate.drain(..) {
                self.global[g as usize] = v;
            }
        }
        ram_phase(
            &self.cfg.rams,
            &self.global,
            &mut self.ram_mem,
            self.lanes,
            &mut self.deferred,
        );
        // Cycle boundary: commit deferred writes (flip-flops update, read
        // data registers latch, outputs publish).
        for (g, v) in self.deferred.drain(..) {
            self.global[g as usize] = v;
        }
        // The engine is oblivious, so the cycle's events are known from
        // the program alone; only RAM-phase traffic scales with lanes.
        let ram_lanes = self.cfg.rams.len() as u64 * u64::from(self.lanes);
        self.counters += program.cycle_delta;
        self.counters.global_bytes += RAM_BYTES_PER_LANE * ram_lanes;
        self.counters.global_transactions += RAM_TRANSACTIONS_PER_LANE * ram_lanes;
        for steps in &mut self.lane_steps[..self.lanes as usize] {
            *steps += 1;
        }
    }

    /// Runs one core against the stage-start global array: immediate
    /// writes queue for the stage boundary, deferred writes for the cycle
    /// boundary.
    ///
    /// The one place the lowered form is chosen, and by the lane count
    /// alone: one active lane means every global word is a splat, which
    /// is the packed form's whole contract, and both forms publish the
    /// same lane words from it.
    fn run_core(&mut self, program: &Program, si: usize, ci: usize) {
        let (global, imm, def) = (&self.global, &mut self.immediate, &mut self.deferred);
        with_scratch(|scratch| {
            if self.lanes == 1 {
                program.stages[si][ci]
                    .packed
                    .execute_into(global, scratch, imm, def);
            } else {
                program.wide()[si][ci].execute_words_into(global, scratch, imm, def);
            }
        });
    }

    /// Accumulated counters.
    pub fn counters(&self) -> &KernelCounters {
        &self.counters
    }

    /// Cycles stepped per lane (index = lane), for every lane that is
    /// active or has stepped: a lane narrowed away keeps its count. Lane 0
    /// is always active, so its count is `counters().cycles`; the sum over
    /// lanes is Σ over cycles of the lane count active at that cycle.
    pub fn lane_steps(&self) -> &[u64] {
        // Active lanes are the low ones, so the counts fall with the index.
        let stepped = self.lane_steps.iter().take_while(|&&s| s > 0).count();
        &self.lane_steps[..stepped.max(self.lanes as usize)]
    }

    /// Device totals refined per partition and per boomerang layer.
    ///
    /// Derived, not accumulated: every core runs every cycle at a fixed
    /// cost, so partition `i` has been charged `delta_i × cycles` and
    /// layer `k` the layer cost of every core deeper than `k`, × cycles.
    pub fn breakdown(&self) -> CounterBreakdown {
        let cycles = self.counters.cycles;
        let mut partitions = Vec::with_capacity(self.num_cores());
        let mut layers: Vec<LayerCounters> = Vec::new();
        for (si, stage) in self.program.stages.iter().enumerate() {
            for (ci, core) in stage.iter().enumerate() {
                partitions.push(PartitionCounters {
                    stage: si as u32,
                    core: ci as u32,
                    counters: core.delta * cycles,
                });
                let depth = core.packed.depth();
                for li in layers.len()..depth {
                    layers.push(LayerCounters {
                        layer: li as u32,
                        ..Default::default()
                    });
                }
                let (shared, alu, syncs) = core.layer_cost;
                for lc in &mut layers[..depth] {
                    lc.shared_accesses += shared * cycles;
                    lc.alu_ops += alu * cycles;
                    lc.block_syncs += syncs * cycles;
                    lc.executions += cycles;
                }
            }
        }
        CounterBreakdown {
            total: self.counters,
            partitions,
            layers,
        }
    }

    /// The current [`breakdown`](Self::breakdown) as exportable labeled
    /// metric families, plus the `gem_vgpu_lanes` gauge.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.breakdown().to_metrics_snapshot();
        snap.push_scalar(
            "gem_vgpu_lanes",
            "Active stimulus bit-lanes advanced per step (1 = single-stimulus)",
            MetricKind::Gauge,
            self.lanes as f64,
        );
        snap
    }

    /// Captures the complete mutable state of the machine.
    pub fn snapshot(&self) -> GpuSnapshot {
        GpuSnapshot {
            program: Arc::clone(&self.program),
            global: self.global.clone(),
            ram_mem: self.ram_mem.clone(),
            lanes: self.lanes,
            counters: self.counters,
            lane_steps: self.lane_steps,
        }
    }

    /// Restores a [`snapshot`](Self::snapshot), resuming execution
    /// bit-exactly. The snapshot must come from this machine, a clone of
    /// it, or a machine loaded with an identical bitstream and device
    /// configuration — whether or not either has lowered its lane-word
    /// form yet; a multi-lane snapshot lowers it here, as
    /// [`set_lanes`](Self::set_lanes) would.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::SnapshotMismatch`] (leaving the machine
    /// untouched) when the snapshot belongs to a different program or
    /// any state dimension differs from the loaded design.
    pub fn restore(&mut self, s: &GpuSnapshot) -> Result<(), MachineError> {
        // Pointer-equal for a machine's own snapshots and its clones';
        // otherwise the lowered programs are compared structurally.
        if s.program != self.program {
            return Err(MachineError::SnapshotMismatch(
                "snapshot was taken from a different program".to_string(),
            ));
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
        if s.lanes > 1 {
            self.program.wide();
        }
        self.global.clone_from(&s.global);
        self.ram_mem.clone_from(&s.ram_mem);
        self.lanes = s.lanes;
        self.counters = s.counters;
        self.lane_steps = s.lane_steps;
        Ok(())
    }

    /// Total cores (thread blocks) across stages.
    pub fn num_cores(&self) -> usize {
        self.program.stages.iter().map(Vec::len).sum()
    }

    /// Whether `self` and `other` execute the very same lowered program
    /// in memory (one is a clone of the other) — a test hook for "N
    /// sessions of a design hold one program".
    #[doc(hidden)]
    pub fn shares_program_with(&self, other: &GemGpu) -> bool {
        Arc::ptr_eq(&self.program, &other.program)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ram::tests::ram_binding;
    use gem_isa::{assemble_core, ReadEntry, WriteEntry};
    use gem_place::{BoomerangLayer, CoreProgram, OutputSource, PermSource, Plane};

    /// Direct RAM access for the unit tests: the machine reads and writes
    /// its RAM blocks only through the RAM phase.
    impl GemGpu {
        /// A word of RAM block `ram` as lane 0 sees it.
        pub(crate) fn ram_word(&self, ram: usize, addr: usize) -> u32 {
            self.ram_mem[ram][0].get(addr)
        }

        /// A word of RAM block `ram` as lane `lane` sees it (inactive lanes
        /// see lane 0's image).
        pub(crate) fn ram_word_lane(&self, ram: usize, lane: u32, addr: usize) -> u32 {
            let img = if lane < self.lanes { lane as usize } else { 0 };
            self.ram_mem[ram][img].get(addr)
        }

        /// Writes a word of RAM block `ram` into every lane's image.
        pub(crate) fn set_ram_word(&mut self, ram: usize, addr: usize, value: u32) {
            for image in &mut self.ram_mem[ram] {
                image.set(addr, value);
            }
        }
    }

    /// A one-core bitstream computing g2 = g0 AND g1 into global 2.
    fn and_bitstream() -> (Bitstream, DeviceConfig) {
        let width = 16u32;
        let mut layer = BoomerangLayer::new(width);
        layer.set_perm(0, PermSource::State(0));
        layer.set_perm(1, PermSource::State(1));
        layer.set_writeback(0, 0, Some(2));
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
    fn a_device_sized_apart_from_its_bitstream_is_refused() {
        let (bs, cfg) = and_bitstream();
        // Refused before the global array is sized: this one would be
        // 32 GiB of lane words.
        let huge = DeviceConfig {
            global_bits: u32::MAX,
            ..cfg
        };
        assert!(matches!(
            GemGpu::load(&bs, huge),
            Err(MachineError::BadBinding(why)) if why.contains("4294967295 global bits")
        ));
    }

    /// Two cores: core A computes g2 = g0 & g1 (immediate), core B computes
    /// g3 = !g2 (deferred) — in consecutive stages, or, with `same_stage`,
    /// side by side in one stage (a shape the compiler never emits but
    /// `load` accepts).
    fn two_core_machine(same_stage: bool) -> GemGpu {
        two_core_machine_with(same_stage, vec![])
    }

    /// [`two_core_machine`] plus RAM blocks (bound to globals 4 and up).
    /// Core B carries a second, empty layer, so the cores differ in depth.
    fn two_core_machine_with(same_stage: bool, rams: Vec<RamBinding>) -> GemGpu {
        let width = 16u32;
        let mk_core = |perm0: u32, perm1: Option<u32>, invert: bool, out_g: u32, deferred: bool| {
            let mut layer = BoomerangLayer::new(width);
            layer.set_perm(0, PermSource::State(0));
            layer.set_perm(
                1,
                match perm1 {
                    Some(_) => PermSource::State(1),
                    None => PermSource::ConstFalse,
                },
            );
            if perm1.is_none() {
                layer.set_const(0, Plane::Ob, 0, true); // bypass: out = A
            }
            layer.set_writeback(0, 0, Some(2));
            let prog = CoreProgram {
                width,
                state_size: 3,
                inputs: vec![],
                layers: if perm1.is_none() {
                    vec![layer, BoomerangLayer::new(width)]
                } else {
                    vec![layer]
                },
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
        let a = mk_core(0, Some(1), false, 2, false);
        let b = mk_core(2, None, true, 3, true);
        let global_bits = 4 + 123 * rams.len() as u32;
        let bs = Bitstream {
            width,
            global_bits,
            stages: if same_stage {
                vec![vec![a, b]]
            } else {
                vec![vec![a], vec![b]]
            },
        };
        GemGpu::load(
            &bs,
            DeviceConfig {
                global_bits,
                rams,
                initial_ones: vec![],
            },
        )
        .expect("loads")
    }

    /// The two-stage machine with one RAM block.
    fn ram_machine() -> (GemGpu, RamBinding) {
        let binding = ram_binding(4);
        (two_core_machine_with(false, vec![binding.clone()]), binding)
    }

    /// The breakdown is computed from the program and the cycle count,
    /// never accumulated; it must still equal what per-cycle charging
    /// gives, across a lane-count change and a snapshot round trip.
    #[test]
    fn derived_breakdown_equals_summed_cycle_deltas() {
        let (mut gpu, _) = ram_machine();
        let (n, m) = (3u64, 5u64);
        for _ in 0..n {
            gpu.step_cycle();
        }
        gpu.set_lanes(4).expect("4 lanes");
        for _ in 0..m {
            gpu.step_cycle();
        }
        // What a single cycle charges at each lane count, measured on
        // fresh machines.
        let one_cycle_at = |lanes: u32| {
            let (mut fresh, _) = ram_machine();
            fresh.set_lanes(lanes).expect("lanes");
            fresh.step_cycle();
            *fresh.counters()
        };
        let mut summed = one_cycle_at(1) * n;
        summed += one_cycle_at(4) * m;
        let bd = gpu.breakdown();
        assert_eq!(bd.total, summed);
        assert_eq!(bd.total, *gpu.counters());
        let (sum, t) = (bd.partition_sum(), bd.total);
        assert_eq!(sum.alu_ops, t.alu_ops);
        assert_eq!(sum.shared_accesses, t.shared_accesses);
        assert_eq!(sum.block_syncs, t.block_syncs);
        assert_eq!(sum.blocks_run, t.blocks_run);
        assert_eq!(t.blocks_run, 2 * (n + m));
        // What the partitions do not own is the lane-scaled RAM phase.
        let lane_cycles = n + 4 * m;
        assert_eq!(
            t.global_bytes - sum.global_bytes,
            RAM_BYTES_PER_LANE * lane_cycles
        );
        assert_eq!(
            t.global_transactions - sum.global_transactions,
            RAM_TRANSACTIONS_PER_LANE * lane_cycles
        );
        // Stage 0, stage 1, RAM phase, cycle boundary.
        assert_eq!(t.device_syncs, 4 * (n + m));
        assert_eq!((sum.device_syncs, sum.cycles), (0, 0));
        // Both cores reach layer 0, only core B reaches layer 1.
        assert_eq!(bd.partitions.len(), 2);
        assert_eq!(bd.layers.len(), 2);
        assert_eq!(bd.layers[0].executions, 2 * (n + m));
        assert_eq!(bd.layers[1].executions, n + m);
        assert_eq!(bd.layers.iter().map(|l| l.alu_ops).sum::<u64>(), t.alu_ops);
        // Snapshot, diverge, restore: the derived tables come back.
        let snap = gpu.snapshot();
        gpu.set_lanes(2).expect("2 lanes");
        gpu.step_cycle();
        assert_ne!(gpu.breakdown(), bd);
        gpu.restore(&snap).expect("restores");
        assert_eq!(gpu.breakdown(), bd);
    }

    /// A clone owns its signals, RAM images, lane count and counter
    /// totals and nothing else: the program is shared.
    #[test]
    fn clone_copies_only_simulation_state() {
        let (mut a, ram) = ram_machine();
        a.set_lanes(2).expect("2 lanes");
        a.poke(0, true);
        a.step_cycle();
        let mut b = a.clone();
        assert!(a.shares_program_with(&b));
        assert_eq!(a.snapshot(), b.snapshot());
        let at_clone = b.breakdown();
        // Drive `a` away on every piece of state it owns.
        a.set_lanes(3).expect("3 lanes");
        a.poke(1, true);
        a.poke(ram.we, true);
        a.poke(ram.wdata[0], true);
        a.step_cycle();
        assert_eq!(a.ram_word(0, 0), 1);
        assert_eq!(b.ram_word(0, 0), 0);
        assert_eq!(b.lanes(), 2);
        assert!(!b.peek(2));
        assert_eq!(b.breakdown(), at_clone);
        // And `b` still steps like a machine that never had a sibling.
        let (mut fresh, _) = ram_machine();
        fresh.set_lanes(2).expect("2 lanes");
        fresh.poke(0, true);
        fresh.step_cycle();
        fresh.step_cycle();
        b.step_cycle();
        assert_eq!(b.snapshot(), fresh.snapshot());
    }

    /// A deterministic stimulus word.
    fn noise(i: u64) -> Word {
        (i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17)
    }

    /// Pokes every core input and RAM port operand of [`ram_machine`]
    /// with cycle `cycle`'s stimulus words.
    fn drive(gpu: &mut GemGpu, ram: &RamBinding, cycle: u64) {
        let ports = [0, 1, ram.we]
            .into_iter()
            .chain(ram.raddr[..2].iter().copied())
            .chain(ram.waddr[..2].iter().copied())
            .chain(ram.wdata[..3].iter().copied());
        for (k, g) in ports.enumerate() {
            gpu.poke_lanes(g, noise(cycle * 16 + k as u64));
        }
    }

    fn lane_zero(gpu: &GemGpu) -> Vec<bool> {
        (0..gpu.global.len() as u32).map(|g| gpu.peek(g)).collect()
    }

    /// The form switch is unobservable: a machine that steps packed,
    /// widens to 64 lanes mid-run and narrows back tracks lane 0 of a
    /// machine held at 64 lanes on every cycle — signals, RAM image and
    /// every counter that does not scale with the lane count.
    #[test]
    fn one_lane_runs_packed_and_switching_forms_is_unobservable() {
        let (mut held, ram) = ram_machine();
        held.set_lanes(64).expect("64 lanes");
        let (mut switching, _) = ram_machine();
        for cycle in 0..30u64 {
            match cycle {
                10 => switching.set_lanes(64).expect("widen"),
                20 => switching.set_lanes(1).expect("narrow"),
                _ => {}
            }
            drive(&mut held, &ram, cycle);
            drive(&mut switching, &ram, cycle);
            held.step_cycle();
            switching.step_cycle();
            assert_eq!(lane_zero(&switching), lane_zero(&held), "cycle {cycle}");
            if switching.lanes() == 1 {
                // Packed cycles keep the inactive lanes mirroring lane 0.
                for g in 0..switching.global.len() as u32 {
                    assert_eq!(switching.peek_lanes(g), splat(switching.peek(g)));
                }
            }
            for addr in 0..4 {
                assert_eq!(switching.ram_word(0, addr), held.ram_word(0, addr));
            }
        }
        assert!(
            switching.peek(2) || switching.ram_word(0, 1) != 0,
            "the run did something"
        );
        // RAM-phase traffic is per active lane, by design; nothing else.
        let unscaled = |c: &KernelCounters| KernelCounters {
            global_bytes: 0,
            global_transactions: 0,
            ..*c
        };
        assert_eq!(unscaled(switching.counters()), unscaled(held.counters()));
        assert!(switching.counters().global_bytes < held.counters().global_bytes);
    }

    /// A machine that has only ever run one lane holds no lane-word
    /// masks; the first sharer to ask for a second lane lowers them once
    /// for every clone, and the program stays shared.
    #[test]
    fn lane_word_form_is_lowered_on_the_first_second_lane_and_shared() {
        let (mut a, _) = ram_machine();
        a.step_cycle();
        a.set_lanes(1).expect("already 1");
        assert!(a.set_lanes(0).is_err() && a.set_lanes(65).is_err());
        let mut b = a.clone();
        assert!(
            a.program.wide.get().is_none(),
            "never widened, never lowered"
        );
        b.set_lanes(2).expect("2 lanes");
        let lowered = a
            .program
            .wide
            .get()
            .expect("a clone widened the shared program");
        assert_eq!(lowered.iter().map(Vec::len).sum::<usize>(), a.num_cores());
        let lowered = lowered.as_ptr();
        a.set_lanes(64).expect("64 lanes");
        b.set_lanes(1).expect("back to 1");
        b.set_lanes(3).expect("3 lanes");
        assert!(a.shares_program_with(&b));
        assert_eq!(a.program.wide().as_ptr(), lowered, "lowered once");
        assert_eq!(b.program.wide().as_ptr(), lowered, "lowered once");
    }

    /// Whether a program has lowered its lane-word form is not part of
    /// its identity: snapshots restore across it in both directions
    /// between separately loaded machines, and a multi-lane snapshot
    /// lowers the form on a machine that never had it.
    #[test]
    fn snapshots_restore_across_lowering_states() {
        let run = |gpu: &mut GemGpu, ram: &RamBinding, from: u64| {
            for cycle in from..from + 6 {
                drive(gpu, ram, cycle);
                gpu.step_cycle();
            }
            gpu.snapshot()
        };
        let (mut narrow, ram) = ram_machine();
        let narrow_snap = run(&mut narrow, &ram, 0);
        let (mut wide, _) = ram_machine();
        wide.set_lanes(64).expect("64 lanes");
        let wide_snap = run(&mut wide, &ram, 0);
        assert!(narrow.program.wide.get().is_none() && wide.program.wide.get().is_some());
        assert!(!narrow.shares_program_with(&wide));
        assert_eq!(narrow.program, wide.program);

        // 1-lane snapshot onto the machine that has stepped at 64 lanes.
        wide.restore(&narrow_snap)
            .expect("packed-only snapshot restores");
        assert_eq!(wide.lanes(), 1);
        assert_eq!(run(&mut wide, &ram, 6), run(&mut narrow, &ram, 6));
        // 64-lane snapshot onto a never-widened clone of the other.
        let mut fresh = narrow.clone();
        assert!(fresh.program.wide.get().is_none());
        fresh
            .restore(&wide_snap)
            .expect("multi-lane snapshot restores");
        assert!(narrow.program.wide.get().is_some(), "lowered on demand");
        wide.restore(&wide_snap).expect("own snapshot");
        assert_eq!(run(&mut fresh, &ram, 6), run(&mut wide, &ram, 6));
        assert_eq!(fresh.lanes(), 64);
    }

    /// `load` refuses a layer that gathers from or writes back to state
    /// beyond the core: the lowered forms index a `width + 1`-word
    /// scratch state, and neither zeroes it.
    #[test]
    fn layer_addresses_beyond_the_core_are_refused_at_load() {
        let load = |edit: &dyn Fn(&mut BoomerangLayer)| {
            let width = 16u32;
            let mut layer = BoomerangLayer::new(width);
            layer.set_perm(0, PermSource::State(0));
            layer.set_writeback(0, 0, Some(2));
            edit(&mut layer);
            let prog = CoreProgram {
                width,
                state_size: 3,
                inputs: vec![],
                layers: vec![layer],
                outputs: vec![],
            };
            let bs = Bitstream {
                width,
                global_bits: 1,
                stages: vec![vec![assemble_core(&prog, &[], &[])]],
            };
            GemGpu::load(
                &bs,
                DeviceConfig {
                    global_bits: 1,
                    ..Default::default()
                },
            )
        };
        assert!(load(&|_| {}).is_ok());
        for bad in [16, 17, 4000] {
            let gather = load(&|l| l.set_perm(5, PermSource::State(bad)));
            assert!(
                matches!(gather, Err(MachineError::BadBinding(_))),
                "gather {bad}"
            );
            let writeback = load(&|l| l.set_writeback(2, 1, Some(bad)));
            assert!(
                matches!(writeback, Err(MachineError::BadBinding(_))),
                "writeback {bad}"
            );
        }
    }

    /// The stage-snapshot rule: a core reads the stage-start value of a
    /// bit a same-stage peer immediate-writes; the write lands at the
    /// stage boundary. A write-through engine fails the first assert.
    #[test]
    fn same_stage_cores_read_the_stage_start_array() {
        let mut gpu = two_core_machine(true);
        gpu.poke(0, true);
        gpu.poke(1, true);
        gpu.step_cycle();
        assert!(gpu.peek(3), "core 1 saw stage-start g2 = 0, so g3 = !0");
        assert!(gpu.peek(2), "core 0's immediate write landed");
        gpu.step_cycle();
        assert!(!gpu.peek(3), "one cycle later core 1 sees g2 = 1");
    }

    #[test]
    fn clones_step_independently() {
        let mut a = two_core_machine(false);
        a.poke(0, true);
        a.step_cycle();
        let b = a.clone();
        assert!(a.shares_program_with(&b));
        assert!(!a.shares_program_with(&two_core_machine(false)));
        a.poke(1, true);
        let fresh = |g1: bool| {
            let mut m = two_core_machine(false);
            m.poke(0, true);
            m.step_cycle();
            m.poke(1, g1);
            for _ in 0..16 {
                m.step_cycle();
            }
            m
        };
        // Step the clones concurrently from two threads: they share the
        // lowered program and nothing else.
        let step16 = |mut m: GemGpu| {
            std::thread::spawn(move || {
                for _ in 0..16 {
                    m.step_cycle();
                }
                m
            })
        };
        let (ja, jb) = (step16(a), step16(b));
        let (a, b) = (ja.join().unwrap(), jb.join().unwrap());
        let (want_a, want_b) = (fresh(true), fresh(false));
        assert_eq!(a.snapshot(), want_a.snapshot());
        assert_eq!(b.snapshot(), want_b.snapshot());
        assert_ne!(want_a.peek(2), want_b.peek(2), "the stimuli diverged");
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
        layer.set_perm(0, PermSource::State(0));
        layer.set_perm(1, PermSource::State(1));
        layer.set_writeback(0, 0, Some(2));
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
    fn lanes_metric_exported() {
        let mut gpu = and_machine();
        gpu.set_lanes(7).expect("7 lanes");
        let snap = gpu.metrics_snapshot();
        assert_eq!(snap.family("gem_vgpu_lanes").unwrap().total(), 7.0);
    }

    /// The heart of the batch contract at machine level: a 64-lane run
    /// equals 64 scalar runs.
    #[test]
    fn batch_equals_independent_scalar_runs() {
        let mut batch = and_machine();
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
                    "cycle {c} lane {lane}"
                );
            }
        }
    }
}
