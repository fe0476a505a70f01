//! Static bitstream verifier: the compile flow's trust anchor.
//!
//! A compiled [`Bitstream`] encodes the whole E-AIG schedule — boomerang
//! layer order, permutation legality, cross-core message timing — and a
//! single mis-encoded word silently corrupts every simulation run (and,
//! through the server's compile cache, every *session*). Following the
//! static-legality discipline of bulk-synchronous emulator compilers,
//! this module re-derives the invariant set from the bitstream alone and
//! checks it against the device/placement metadata, instead of trusting
//! the encoder:
//!
//! | check       | invariant |
//! |-------------|-----------|
//! | `roundtrip` | decode → canonical re-encode reproduces every core bit-for-bit; the container survives serialization |
//! | `layers`    | layers are level-monotone: no state bit is gathered before a `READ_GLOBAL` or an earlier layer's write-back defines it, and no layer both gathers and writes the same bit |
//! | `bounds`    | state addresses stay inside `state_size`, globals inside the signal array |
//! | `budget`    | per-core instruction counts account for every encoded byte; inbox/outbox budgets hold |
//! | `merge`     | the encoded programs are structurally consistent with the placement/merge metadata (when provided) |
//! | `schedule`  | every send/receive and ordering rule of [`crate::schedule`]'s one walk (single writers, matched sends, a stage-barrier or cycle-boundary edge for every read, required publishers), and the stored [`ScheduleCert`] (when provided) matches a from-scratch recomputation |
//!
//! The verifier never panics on hostile input: anything the decoder
//! rejects becomes a `roundtrip` violation and the remaining checks skip
//! that core. Its own health is enforced by the mutation self-test
//! harness (`tests/mutation_kill.rs`), which corrupts valid bitstreams in
//! every class [`crate::mutate::MutationClass`] knows and asserts each
//! mutant is killed.

use crate::encode::ContainerView;
use crate::schedule::{self, CoreIo, ScheduleCert};
use crate::WriteSrc;
use crate::{assemble_decoded, core_size_bits, disassemble_core_exact, Bitstream, DecodedCore};
use gem_aig::{RAM_ADDR_BITS, RAM_DATA_BITS};
use gem_place::{CoreProgram, OutputSource, PermSource};
use std::collections::HashSet;
use std::fmt;
use std::time::{Duration, Instant};

/// Global-memory binding of one RAM block: every index is a slot of the
/// device-global signal array, and the arrays fix the 13-bit × 32-bit
/// geometry. The virtual GPU's device configuration holds these as they
/// are (`gem_vgpu::RamBinding` is this type).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RamBinding {
    /// Read-address operand slots, LSB first (immediate region).
    pub raddr: [u32; RAM_ADDR_BITS],
    /// Write-address operand slots.
    pub waddr: [u32; RAM_ADDR_BITS],
    /// Write-data operand slots.
    pub wdata: [u32; RAM_DATA_BITS],
    /// Write-enable operand slot.
    pub we: u32,
    /// Read-data result slots (device-written at the cycle boundary;
    /// deferred region).
    pub rdata: [u32; RAM_DATA_BITS],
}

impl RamBinding {
    /// All operand slots a core must publish with an *immediate* write.
    pub fn operand_slots(&self) -> impl Iterator<Item = u32> + '_ {
        self.raddr
            .iter()
            .chain(self.waddr.iter())
            .chain(self.wdata.iter())
            .copied()
            .chain(std::iter::once(self.we))
    }
}

/// Everything the verifier knows about the device besides the bitstream
/// itself. All of it comes straight out of the compiler's outputs (see
/// `gem_core::verify` for the adapter).
#[derive(Debug, Clone, Default)]
pub struct VerifyContext<'a> {
    /// Size of the device-global signal array.
    pub global_bits: u32,
    /// RAM block bindings.
    pub rams: Vec<RamBinding>,
    /// Global slots holding 1 at cycle 0 (FF init values).
    pub initial_ones: Vec<u32>,
    /// Testbench-poked input slots (defined at every cycle start).
    pub input_slots: Vec<u32>,
    /// Primary-output slots; each needs exactly one deferred publisher.
    pub output_slots: Vec<u32>,
    /// Placement metadata, stage-major, matching the bitstream shape.
    /// `None` skips the `merge` consistency check (e.g. verifying a
    /// `.gemb` package, which does not carry programs).
    pub programs: Option<&'a [Vec<CoreProgram>]>,
    /// The schedule certificate stored with the artifact, if any. The
    /// `schedule` check always re-derives the happens-before proof from
    /// the bitstream; when a cert is provided it must additionally match
    /// the recomputation bit-for-bit.
    pub schedule_cert: Option<&'a ScheduleCert>,
}

/// One invariant violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The check that found it (one of [`CHECK_NAMES`]).
    pub check: &'static str,
    /// `(stage, core)` when the violation is core-scoped.
    pub location: Option<(usize, usize)>,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.location {
            Some((s, c)) => write!(f, "[{}] stage {s} core {c}: {}", self.check, self.message),
            None => write!(f, "[{}] {}", self.check, self.message),
        }
    }
}

/// Outcome of one check family.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckResult {
    /// Check name (stable; part of the metrics format).
    pub name: &'static str,
    /// Violations found.
    pub violations: usize,
    /// Wall time spent, nanoseconds.
    pub wall_ns: u64,
}

/// The complete verification outcome.
#[derive(Debug, Clone, Default)]
pub struct VerifyReport {
    /// Cores examined.
    pub cores: usize,
    /// Per-check results, in [`CHECK_NAMES`] order.
    pub checks: Vec<CheckResult>,
    /// Every violation found, in check order.
    pub violations: Vec<Violation>,
    /// The schedule's certificate, as [`crate::certify_schedule`] would
    /// return it: set by the `schedule` check when every core decoded
    /// and the happens-before proof found no violation.
    pub cert: Option<ScheduleCert>,
}

/// The check families, in execution order.
pub const CHECK_NAMES: [&str; 6] = [
    "roundtrip",
    "layers",
    "bounds",
    "budget",
    "merge",
    "schedule",
];

impl VerifyReport {
    /// True when no check found a violation.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// Total violations across all checks.
    pub fn total_violations(&self) -> usize {
        self.violations.len()
    }

    /// Looks up one check's result by name.
    pub fn check(&self, name: &str) -> Option<&CheckResult> {
        self.checks.iter().find(|c| c.name == name)
    }

    /// One-line outcome suitable for an error message (first violations
    /// inline, the rest counted).
    pub fn summary(&self) -> String {
        if self.passed() {
            return format!("{} core(s) verified, all checks passed", self.cores);
        }
        let shown: Vec<String> = self
            .violations
            .iter()
            .take(3)
            .map(|v| v.to_string())
            .collect();
        let more = self.violations.len().saturating_sub(3);
        let tail = if more > 0 {
            format!("; +{more} more")
        } else {
            String::new()
        };
        format!(
            "{} violation(s): {}{tail}",
            self.violations.len(),
            shown.join("; ")
        )
    }
}

/// Runs the full static check suite over a bitstream.
///
/// Cores are decoded one at a time, in stage and core order: each runs
/// through the per-core families (`roundtrip`'s re-encode, `layers`,
/// `bounds`, `budget`, `merge`) and then drops its layers, keeping only
/// the reads and writes the cross-core `schedule` walk needs. Each family
/// buffers its own violations, so the report lists them family by family
/// as if each family had walked every core in turn.
///
/// Never panics on malformed input: undecodable cores surface as
/// `roundtrip` violations and are skipped by the semantic checks.
pub fn verify_bitstream(bs: &Bitstream, ctx: &VerifyContext<'_>) -> VerifyReport {
    let mut families = CHECK_NAMES.map(Family::new);
    let [roundtrip, layers, bounds, budget, merge, schedule] = &mut families;
    // `roundtrip` lists every decode failure before any re-encode
    // mismatch.
    let mut reencoded = Family::new("roundtrip");
    roundtrip.run(|v| check_container(bs, v));
    bounds.run(|v| check_global_bounds(bs, ctx, v));
    let programs = merge.run(|v| merge_programs(bs, ctx, v));
    let mut io = Vec::with_capacity(bs.stages.len());
    for (si, stage) in bs.stages.iter().enumerate() {
        let progs = programs.and_then(|p| merge.run(|v| merge_stage(si, &p[si], stage.len(), v)));
        let mut stage_io = Vec::with_capacity(stage.len());
        for (ci, bytes) in stage.iter().enumerate() {
            let loc = Some((si, ci));
            let Some(dec) = roundtrip.run(|v| decode_core(loc, bytes, v)) else {
                stage_io.push(None);
                continue;
            };
            reencoded.run(|v| check_reencode(loc, bytes, &dec, v));
            layers.run(|v| check_layers(loc, &dec, v));
            bounds.run(|v| check_core_bounds(bs, loc, &dec, ctx, v));
            budget.run(|v| check_budget(loc, bytes, &dec, ctx, v));
            if let Some(progs) = progs {
                merge.run(|v| check_merge(loc, &progs[ci], &dec, v));
            }
            stage_io.push(Some(CoreIo::from(dec)));
        }
        io.push(stage_io);
    }
    roundtrip.absorb(reencoded);
    let cert = schedule.run(|v| schedule::check_schedule(bs, &io, ctx, v));

    let mut report = VerifyReport {
        cores: bs.total_cores(),
        cert,
        ..Default::default()
    };
    for family in families {
        report.checks.push(CheckResult {
            name: family.name,
            violations: family.found.len(),
            wall_ns: family.wall.as_nanos() as u64,
        });
        report.violations.extend(family.found);
    }
    report
}

/// One check family's violations and wall time, gathered core by core.
struct Family {
    name: &'static str,
    found: Vec<Violation>,
    wall: Duration,
}

impl Family {
    fn new(name: &'static str) -> Self {
        Family {
            name,
            found: Vec::new(),
            wall: Duration::ZERO,
        }
    }

    /// Runs one piece of the family's work, stamping what it finds.
    fn run<R>(&mut self, f: impl FnOnce(&mut Vec<Violation>) -> R) -> R {
        let (start, before) = (Instant::now(), self.found.len());
        let r = f(&mut self.found);
        for v in &mut self.found[before..] {
            v.check = self.name;
        }
        self.wall += start.elapsed();
        r
    }

    /// Appends `other`'s violations and time to this family's.
    fn absorb(&mut self, other: Family) {
        self.found.extend(other.found);
        self.wall += other.wall;
    }
}

pub(crate) fn viol(v: &mut Vec<Violation>, location: Option<(usize, usize)>, message: String) {
    v.push(Violation {
        check: "",
        location,
        message,
    });
}

// ----------------------------------------------------------- roundtrip --

/// Decodes one core, reporting it if it does not decode; the semantic
/// checks skip such a core.
pub(crate) fn decode_core(
    loc: Option<(usize, usize)>,
    bytes: &[u8],
    v: &mut Vec<Violation>,
) -> Option<DecodedCore> {
    disassemble_core_exact(bytes)
        .map_err(|e| viol(v, loc, format!("decode failed: {e}")))
        .ok()
}

/// The container survives serialization: its bytes parse back, in place,
/// to exactly this bitstream.
fn check_container(bs: &Bitstream, v: &mut Vec<Violation>) {
    let bytes = bs.to_bytes();
    match ContainerView::parse(&bytes) {
        Ok(back) if back.holds(bs) => {}
        Ok(_) => viol(v, None, "container round trip altered the bitstream".into()),
        Err(e) => viol(v, None, format!("container rejected its own bytes: {e}")),
    }
}

fn check_reencode(
    loc: Option<(usize, usize)>,
    bytes: &[u8],
    dec: &DecodedCore,
    v: &mut Vec<Violation>,
) {
    if assemble_decoded(dec) != bytes {
        viol(
            v,
            loc,
            "re-encode differs from stored bytes (non-canonical or corrupt encoding)".into(),
        );
    }
}

// -------------------------------------------------------------- layers --

/// One flag per state address, dense over the core width and grown only
/// by an address beyond it (which `bounds` reports). `mark(a, s)` sets
/// `a` to `s`; `is(a, s)` asks whether it holds `s` — so a layer stamp
/// clears every mark of the layer before it at once.
struct AddrMarks(Vec<u32>);

impl AddrMarks {
    fn is(&self, a: u16, stamp: u32) -> bool {
        self.0.get(usize::from(a)) == Some(&stamp)
    }

    fn mark(&mut self, a: u16, stamp: u32) {
        let a = usize::from(a);
        if a >= self.0.len() {
            self.0.resize(a + 1, 0);
        }
        self.0[a] = stamp;
    }
}

fn check_layers(loc: Option<(usize, usize)>, dec: &DecodedCore, v: &mut Vec<Violation>) {
    const DEFINED: u32 = 1;
    let folds = dec.width.trailing_zeros() as usize;
    let marks = || AddrMarks(vec![0; dec.width as usize]);
    // A state bit is *defined* once a READ_GLOBAL loads it or a
    // preceding layer writes it back. The placer recycles addresses
    // across layers, so the defined set only ever grows — an address
    // freed and re-allocated is written again before any later read.
    let mut defined = marks();
    for r in &dec.reads {
        defined.mark(r.state, DEFINED);
    }
    // `gathered` and `written` hold layer `li`'s marks as `li + 1`.
    let (mut gathered, mut written) = (marks(), marks());
    for (li, layer) in dec.layers.iter().enumerate() {
        if layer.width() != dec.width || layer.fold_levels() != folds {
            viol(v, loc, format!("layer {li}: width/fold shape mismatch"));
            continue;
        }
        let stamp = li as u32 + 1;
        for row in 0..layer.width() as usize {
            if let PermSource::State(a) = layer.perm(row) {
                if !defined.is(a, DEFINED) {
                    viol(
                        v,
                        loc,
                        format!(
                            "layer {li}: row {row} gathers state {a} before any \
                             write defines it (level-monotonicity violation)"
                        ),
                    );
                }
                gathered.mark(a, stamp);
            }
        }
        for k in 0..folds {
            for &(_, addr) in layer.writebacks(k) {
                if written.is(addr, stamp) {
                    viol(
                        v,
                        loc,
                        format!("layer {li}: state {addr} written back twice in one layer"),
                    );
                }
                written.mark(addr, stamp);
                // Nothing in this layer reads `defined` any more.
                defined.mark(addr, DEFINED);
                if gathered.is(addr, stamp) {
                    viol(
                        v,
                        loc,
                        format!(
                            "layer {li}: state {addr} both gathered and written in \
                             one layer (read/write hazard at fold level {})",
                            k + 1
                        ),
                    );
                }
            }
        }
    }
}

// -------------------------------------------------------------- bounds --

/// The bounds of the device context and of the bitstream header.
fn check_global_bounds(bs: &Bitstream, ctx: &VerifyContext<'_>, v: &mut Vec<Violation>) {
    let gb = ctx.global_bits;
    if bs.global_bits != gb {
        viol(
            v,
            None,
            format!(
                "bitstream claims {} global bits, device has {gb}",
                bs.global_bits
            ),
        );
    }
    let slot_ck = |v: &mut Vec<Violation>, what: &dyn fmt::Display, slot: u32| {
        if slot >= gb {
            viol(
                v,
                None,
                format!("{what} slot {slot} outside global array of {gb}"),
            );
        }
    };
    for (ri, ram) in ctx.rams.iter().enumerate() {
        for slot in ram.operand_slots().chain(ram.rdata.iter().copied()) {
            slot_ck(v, &format_args!("RAM {ri}"), slot);
        }
    }
    for &s in &ctx.initial_ones {
        slot_ck(v, &"initial-one", s);
    }
    for &s in &ctx.input_slots {
        slot_ck(v, &"input", s);
    }
    for &s in &ctx.output_slots {
        slot_ck(v, &"output", s);
    }
}

/// The bounds of one decoded core's addresses.
fn check_core_bounds(
    bs: &Bitstream,
    loc: Option<(usize, usize)>,
    dec: &DecodedCore,
    ctx: &VerifyContext<'_>,
    v: &mut Vec<Violation>,
) {
    let gb = ctx.global_bits;
    if dec.width != bs.width {
        viol(
            v,
            loc,
            format!("core width {} != bitstream width {}", dec.width, bs.width),
        );
    }
    let ss = dec.state_size;
    if ss == 0 || ss > dec.width {
        viol(
            v,
            loc,
            format!("state size {ss} outside 1..={} (core width)", dec.width),
        );
        return;
    }
    // `what` is formatted only for a violation: the layers hold
    // hundreds of thousands of in-range addresses.
    let addr_ck = |v: &mut Vec<Violation>, what: &dyn fmt::Display, addr: u32| {
        if addr >= ss {
            viol(
                v,
                loc,
                format!("{what} state address {addr} >= state size {ss}"),
            );
        }
    };
    for r in &dec.reads {
        addr_ck(v, &"read destination", u32::from(r.state));
        if r.global >= gb {
            viol(
                v,
                loc,
                format!("read of global {} outside array of {gb}", r.global),
            );
        }
    }
    for w in &dec.writes {
        if let WriteSrc::State { addr, .. } = w.src {
            addr_ck(v, &"write source", u32::from(addr));
        }
        if w.global >= gb {
            viol(
                v,
                loc,
                format!("write to global {} outside array of {gb}", w.global),
            );
        }
    }
    for (li, layer) in dec.layers.iter().enumerate() {
        for j in 0..layer.width() as usize {
            if let PermSource::State(a) = layer.perm(j) {
                addr_ck(v, &format_args!("layer {li} gather"), u32::from(a));
            }
        }
        for k in 0..layer.fold_levels() {
            for &(_, addr) in layer.writebacks(k) {
                addr_ck(v, &format_args!("layer {li} writeback"), u32::from(addr));
            }
        }
    }
}

// -------------------------------------------------------------- budget --

fn check_budget(
    loc: Option<(usize, usize)>,
    bytes: &[u8],
    dec: &DecodedCore,
    ctx: &VerifyContext<'_>,
    v: &mut Vec<Violation>,
) {
    let wb_counts: Vec<usize> = dec.layers.iter().map(|l| l.writeback_count()).collect();
    let expect = core_size_bits(dec.width, dec.reads.len(), dec.writes.len(), &wb_counts);
    if bytes.len() * 8 != expect {
        viol(
            v,
            loc,
            format!(
                "encoded size {} bits does not match the instruction-count \
                 accounting of {expect} bits",
                bytes.len() * 8
            ),
        );
    }
    if dec.reads.len() > dec.width as usize {
        viol(
            v,
            loc,
            format!(
                "inbox over capacity: {} reads > core width {}",
                dec.reads.len(),
                dec.width
            ),
        );
    }
    if dec.writes.len() > ctx.global_bits as usize {
        viol(
            v,
            loc,
            format!(
                "outbox over budget: {} writes > {} global bits",
                dec.writes.len(),
                ctx.global_bits
            ),
        );
    }
}

// --------------------------------------------------------------- merge --

/// The placement programs `merge` holds the bitstream to: `None`, which
/// skips the family, without programs or when their stage count is not
/// the bitstream's (a violation).
fn merge_programs<'a>(
    bs: &Bitstream,
    ctx: &VerifyContext<'a>,
    v: &mut Vec<Violation>,
) -> Option<&'a [Vec<CoreProgram>]> {
    let programs = ctx.programs?;
    if programs.len() != bs.stages.len() {
        viol(
            v,
            None,
            format!(
                "placement has {} stage(s), bitstream has {}",
                programs.len(),
                bs.stages.len()
            ),
        );
        return None;
    }
    Some(programs)
}

/// Stage `si`'s programs, or `None` (a violation, which skips the stage)
/// when their count is not the stage's core count.
fn merge_stage<'a>(
    si: usize,
    progs: &'a [CoreProgram],
    cores: usize,
    v: &mut Vec<Violation>,
) -> Option<&'a [CoreProgram]> {
    if progs.len() != cores {
        viol(
            v,
            None,
            format!(
                "stage {si}: placement has {} core(s), bitstream has {cores}",
                progs.len()
            ),
        );
        return None;
    }
    Some(progs)
}

fn check_merge(
    loc: Option<(usize, usize)>,
    prog: &CoreProgram,
    dec: &DecodedCore,
    v: &mut Vec<Violation>,
) {
    if dec.width != prog.width || dec.state_size != prog.state_size {
        viol(
            v,
            loc,
            format!(
                "encoded geometry {}w/{}s diverges from placed {}w/{}s",
                dec.width, dec.state_size, prog.width, prog.state_size
            ),
        );
    }
    if dec.layers != prog.layers {
        viol(
            v,
            loc,
            "encoded layers diverge from the placed program".into(),
        );
    }
    if dec.reads.len() != prog.inputs.len() {
        viol(
            v,
            loc,
            format!(
                "{} encoded reads for {} placed sources (recv dropped or added)",
                dec.reads.len(),
                prog.inputs.len()
            ),
        );
    } else {
        for (r, &(node, state)) in dec.reads.iter().zip(&prog.inputs) {
            if u32::from(r.state) != state {
                viol(
                    v,
                    loc,
                    format!(
                        "source n{} lands in state {} but placement assigned {state}",
                        node.0, r.state
                    ),
                );
            }
        }
    }
    // Every published state bit must be one of the partition's sink
    // sources; constants may additionally come from the compiler's
    // designated constant publisher (stage 0, core 0).
    let sink_addrs: HashSet<u32> = prog
        .outputs
        .iter()
        .filter_map(|o| match o {
            OutputSource::State { addr, .. } => Some(*addr),
            OutputSource::Const(_) => None,
        })
        .collect();
    let has_const_sink = prog
        .outputs
        .iter()
        .any(|o| matches!(o, OutputSource::Const(_)));
    for w in &dec.writes {
        match w.src {
            WriteSrc::State { addr, .. } => {
                if !sink_addrs.contains(&u32::from(addr)) {
                    viol(
                        v,
                        loc,
                        format!(
                            "write of global {} reads state {addr}, which is \
                             not a placed sink",
                            w.global
                        ),
                    );
                }
            }
            WriteSrc::Const(_) => {
                if !(has_const_sink || loc == Some((0, 0))) {
                    viol(
                        v,
                        loc,
                        format!(
                            "constant write of global {} from a core with no \
                             constant sink",
                            w.global
                        ),
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::certify_schedule;
    use crate::{assemble_core, ReadEntry, WriteEntry};
    use gem_place::BoomerangLayer;

    /// A two-core, one-stage bitstream: core 0 computes `g0 AND g1` into
    /// a deferred output slot; core 1 forwards `g0` to an FF-style slot.
    fn tiny() -> (Bitstream, Vec<Vec<CoreProgram>>, VerifyContext<'static>) {
        let width = 4u32;
        let mut layer = BoomerangLayer::new(width);
        layer.set_perm(0, PermSource::State(0));
        layer.set_perm(1, PermSource::State(1));
        layer.set_writeback(0, 0, Some(2));
        let prog0 = CoreProgram {
            width,
            state_size: 3,
            inputs: vec![(gem_aig::NodeId(1), 0), (gem_aig::NodeId(2), 1)],
            layers: vec![layer],
            outputs: vec![OutputSource::State {
                addr: 2,
                invert: false,
            }],
        };
        let prog1 = CoreProgram {
            width,
            state_size: 1,
            inputs: vec![(gem_aig::NodeId(1), 0)],
            layers: vec![],
            outputs: vec![OutputSource::State {
                addr: 0,
                invert: true,
            }],
        };
        let reads0 = vec![
            ReadEntry {
                global: 0,
                state: 0,
            },
            ReadEntry {
                global: 1,
                state: 1,
            },
        ];
        let writes0 = vec![WriteEntry {
            global: 3,
            src: WriteSrc::State {
                addr: 2,
                invert: false,
            },
            deferred: true,
        }];
        let reads1 = vec![ReadEntry {
            global: 0,
            state: 0,
        }];
        let writes1 = vec![WriteEntry {
            global: 2,
            src: WriteSrc::State {
                addr: 0,
                invert: true,
            },
            deferred: true,
        }];
        let bs = Bitstream {
            width,
            global_bits: 4,
            stages: vec![vec![
                assemble_core(&prog0, &reads0, &writes0),
                assemble_core(&prog1, &reads1, &writes1),
            ]],
        };
        let ctx = VerifyContext {
            global_bits: 4,
            rams: Vec::new(),
            initial_ones: Vec::new(),
            input_slots: vec![0, 1],
            // Slot 2 is FF-like (read at cycle start via deferred write),
            // slot 3 is the primary output.
            output_slots: vec![3],
            programs: None,
            schedule_cert: None,
        };
        (bs, vec![vec![prog0, prog1]], ctx)
    }

    #[test]
    fn tiny_design_passes_all_checks() {
        let (bs, programs, mut ctx) = tiny();
        let r = verify_bitstream(&bs, &ctx);
        assert!(r.passed(), "{}", r.summary());
        assert_eq!(r.checks.len(), CHECK_NAMES.len());
        assert_eq!(r.cores, 2);
        ctx.programs = Some(&programs);
        let r = verify_bitstream(&bs, &ctx);
        assert!(r.passed(), "with programs: {}", r.summary());
    }

    #[test]
    fn valid_schedule_certifies_and_recheck_passes() {
        let (bs, _, mut ctx) = tiny();
        let cert = certify_schedule(&bs, &ctx).expect("tiny schedule certifies");
        assert_eq!(cert.version, crate::CERT_VERSION);
        assert_eq!(cert.stages, 1);
        assert_eq!(cert.cores, 2);
        // All three reads are cycle-boundary ordered (inputs + FF slot).
        assert_eq!(cert.reads, 3);
        assert_eq!(cert.boundary_edges, 3);
        assert_eq!(cert.barrier_edges, 0);
        assert!(cert.summary().contains("3 read(s)"));
        ctx.schedule_cert = Some(&cert);
        let r = verify_bitstream(&bs, &ctx);
        assert!(r.passed(), "cert recheck: {}", r.summary());
        assert_eq!(r.checks.len(), CHECK_NAMES.len());
    }

    #[test]
    fn tampered_cert_is_a_schedule_violation() {
        let (bs, _, mut ctx) = tiny();
        let mut cert = certify_schedule(&bs, &ctx).unwrap();
        cert.table_digest ^= 1;
        ctx.schedule_cert = Some(&cert);
        let r = verify_bitstream(&bs, &ctx);
        assert!(r.check("schedule").unwrap().violations > 0);
        assert!(r.summary().contains("certificate"));
    }

    #[test]
    fn racing_writers_block_certification() {
        let (bs, _, ctx) = tiny();
        // Point core 1's write at core 0's output slot: two senders, one
        // slot, no ordering between them.
        let mutant =
            crate::mutate::mutate(&bs, crate::mutate::MutationClass::DualWriterSameSlot, 1)
                .expect("dual-writer applies to tiny");
        let errs = certify_schedule(&mutant, &ctx).unwrap_err();
        assert!(errs.iter().any(|e| e.check == "schedule"));
        let r = verify_bitstream(&mutant, &ctx);
        assert!(r.check("schedule").unwrap().violations > 0);
    }

    #[test]
    fn truncated_core_is_a_roundtrip_violation_not_a_panic() {
        let (mut bs, _, ctx) = tiny();
        let len = bs.stages[0][0].len();
        bs.stages[0][0].truncate(len / 2);
        let r = verify_bitstream(&bs, &ctx);
        assert!(!r.passed());
        assert!(r.check("roundtrip").unwrap().violations > 0);
    }

    #[test]
    fn undefined_gather_is_flagged() {
        let (_, mut programs, ctx) = tiny();
        // Gather state 3, which nothing defines.
        let prog = &mut programs[0][0];
        if let Some(layer) = prog.layers.first_mut() {
            layer.set_perm(3, PermSource::State(2));
        }
        prog.state_size = 4;
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
            global: 3,
            src: WriteSrc::State {
                addr: 2,
                invert: false,
            },
            deferred: true,
        }];
        let core0 = assemble_core(prog, &reads, &writes);
        let (mut bs, _, _) = tiny();
        bs.stages[0][0] = core0;
        let r = verify_bitstream(&bs, &ctx);
        assert!(
            r.check("layers").unwrap().violations > 0,
            "gather of a written-later bit must be flagged: {}",
            r.summary()
        );
    }

    #[test]
    fn missing_output_publisher_is_flagged() {
        let (bs, _, mut ctx) = tiny();
        ctx.output_slots.push(99);
        ctx.global_bits = 128;
        let mut bs = bs;
        bs.global_bits = 128;
        let r = verify_bitstream(&bs, &ctx);
        assert!(r.check("schedule").unwrap().violations > 0);
    }

    /// A power-on one proves a read's value at cycle 0 only: a read
    /// power-on-one slot that no core writes is refused by the verifier
    /// and by certification alike.
    #[test]
    fn unwritten_power_on_one_slot_blocks_certification() {
        let (mut bs, programs, mut ctx) = tiny();
        // Core 1 reads global 2 and publishes nothing, so no core writes
        // slot 2; it powers on as 1.
        let read2 = ReadEntry {
            global: 2,
            state: 0,
        };
        bs.stages[0][1] = assemble_core(&programs[0][1], &[read2], &[]);
        ctx.initial_ones = vec![2];
        let r = verify_bitstream(&bs, &ctx);
        assert!(
            r.check("schedule").unwrap().violations > 0,
            "{}",
            r.summary()
        );
        assert!(r.cert.is_none());
        let errs = certify_schedule(&bs, &ctx).expect_err("must not certify");
        assert!(errs.iter().all(|e| e.check == "schedule"));
        assert!(
            errs.iter()
                .any(|e| e.message.contains("initialized slot 2")),
            "{errs:?}"
        );
    }

    #[test]
    fn report_summary_mentions_violations() {
        let (mut bs, _, ctx) = tiny();
        bs.stages[0][1].truncate(4);
        let r = verify_bitstream(&bs, &ctx);
        assert!(!r.passed());
        assert!(r.summary().contains("violation"));
        assert!(r.total_violations() >= 1);
    }
}
