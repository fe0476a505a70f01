//! The schedule's happens-before proof (the [`ScheduleCert`] artifact).
//!
//! A compiled schedule is correct only if every cross-core message
//! arrives after its producer has run. This module holds the one walk
//! over the decoded cores that states every send/receive and ordering
//! rule; the verifier's `schedule` check family and [`certify_schedule`]
//! both run it. It requires:
//!
//! * one writer per global slot, and no core writing a device-owned slot
//!   (an input or a RAM read-data slot);
//! * each core reading a global once, into a distinct inbox bit;
//! * a happens-before edge for every read: a **stage barrier** (the
//!   producer's immediate write ran in a strictly earlier pipeline
//!   stage) or the **cycle boundary** (the slot is defined at cycle
//!   start: a deferred write committed last cycle, a testbench-poked
//!   input, or a RAM read-data commit);
//! * a deferred publisher for every primary output, an immediate one for
//!   every RAM operand, and a deferred writer for every power-on-one
//!   slot that is read.
//!
//! The proof is summarized into a compact, machine-checkable
//! [`ScheduleCert`]: per-slot producer/consumer facts are folded into a
//! canonical FNV digest, and the certificate is pinned to the exact
//! bitstream bytes it certifies. The `.gemb` package stores the cert
//! next to the bitstream, and the `schedule` family recomputes it from
//! scratch and rejects any artifact whose stored cert does not match —
//! so a cert in hand means the race-freedom argument was re-derived, not
//! trusted.

use crate::verify::{decode_core, viol, VerifyContext, Violation};
use crate::{Bitstream, DecodedCore, ReadEntry, WriteEntry};
use std::collections::{HashMap, HashSet};

/// Format version of [`ScheduleCert`] (bumped on any change to the
/// digest's canonical form).
pub const CERT_VERSION: u32 = 1;

/// A machine-checkable summary of the happens-before proof for one
/// compiled bitstream.
///
/// All counts are re-derivable from the bitstream plus device context;
/// `table_digest` folds the canonical per-slot schedule table (producer
/// stage/core, deferred flag, first read stage, reader count, in slot
/// order) and `bitstream_fnv` pins the cert to the exact bytes it
/// certifies. Two certs are interchangeable iff they are `==`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScheduleCert {
    /// Certificate format version ([`CERT_VERSION`]).
    pub version: u32,
    /// Pipeline stages in the certified bitstream.
    pub stages: u32,
    /// Total cores across all stages.
    pub cores: u32,
    /// Size of the device-global signal array.
    pub global_bits: u32,
    /// Total `READ_GLOBAL` entries across all cores.
    pub reads: u32,
    /// Reads whose ordering proof is a stage barrier (immediate
    /// producer in a strictly earlier stage).
    pub barrier_edges: u32,
    /// Reads whose ordering proof is the cycle boundary (deferred
    /// producer, input, or RAM read-data).
    pub boundary_edges: u32,
    /// Immediate (same-cycle) `WRITE_GLOBAL` entries.
    pub immediate_writes: u32,
    /// Deferred (cycle-boundary) `WRITE_GLOBAL` entries.
    pub deferred_writes: u32,
    /// FNV-1a fold of the canonical per-slot schedule table.
    pub table_digest: u64,
    /// FNV-1a fold of the certified bitstream's serialized bytes.
    pub bitstream_fnv: u64,
}

impl ScheduleCert {
    /// One-line human summary (used by CLI tables and logs).
    pub fn summary(&self) -> String {
        format!(
            "v{} {} stage(s) × {} core(s): {} read(s) ordered ({} by stage \
             barrier, {} by cycle boundary), digest {:016x}",
            self.version,
            self.stages,
            self.cores,
            self.reads,
            self.barrier_edges,
            self.boundary_edges,
            self.table_digest
        )
    }
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01B3;

fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(FNV_PRIME);
    }
}

/// What the walk keeps of one decoded core: its messages, not its
/// layers.
pub(crate) struct CoreIo {
    reads: Vec<ReadEntry>,
    writes: Vec<WriteEntry>,
}

impl From<DecodedCore> for CoreIo {
    fn from(dec: DecodedCore) -> Self {
        CoreIo {
            reads: dec.reads,
            writes: dec.writes,
        }
    }
}

/// The cores that decoded, as `(stage, core, messages)`.
fn cores(io: &[Vec<Option<CoreIo>>]) -> impl Iterator<Item = (usize, usize, &CoreIo)> {
    io.iter().enumerate().flat_map(|(si, stage)| {
        stage
            .iter()
            .enumerate()
            .filter_map(move |(ci, c)| c.as_ref().map(|c| (si, ci, c)))
    })
}

/// What the walk knows about one global slot.
#[derive(Default)]
struct SlotFacts {
    /// Every writer as `(stage, core, deferred)`, in core order.
    writers: Vec<(usize, usize, bool)>,
    /// Some writer is deferred, so the slot is defined at cycle start.
    deferred: bool,
    /// Earliest stage whose immediate write publishes the slot mid-cycle.
    first_immediate: Option<usize>,
    /// Earliest stage that reads the slot.
    first_read: Option<u32>,
    /// `READ_GLOBAL` entries naming the slot, over all cores.
    readers: u32,
}

/// The one walk that states every send/receive and ordering rule: emits
/// each violation into `v` (the caller stamps their `check` field) and
/// returns the certificate's counts and table digest, `bitstream_fnv`
/// left 0.
fn analyze_schedule(
    bs: &Bitstream,
    io: &[Vec<Option<CoreIo>>],
    ctx: &VerifyContext<'_>,
    v: &mut Vec<Violation>,
) -> ScheduleCert {
    let mut cert = ScheduleCert {
        version: CERT_VERSION,
        stages: bs.stages.len() as u32,
        cores: bs.total_cores() as u32,
        global_bits: bs.global_bits,
        ..ScheduleCert::default()
    };
    // The writer table. Cores come in stage order, so the first
    // immediate writer seen is the earliest.
    let mut slots: HashMap<u32, SlotFacts> = HashMap::new();
    for (si, ci, core) in cores(io) {
        for w in &core.writes {
            let s = slots.entry(w.global).or_default();
            s.writers.push((si, ci, w.deferred));
            if w.deferred {
                s.deferred = true;
                cert.deferred_writes += 1;
            } else {
                s.first_immediate.get_or_insert(si);
                cert.immediate_writes += 1;
            }
        }
    }
    let mut written: Vec<u32> = slots.keys().copied().collect();
    written.sort_unstable();

    // One writer per slot: within a cycle there is no ordering between
    // two sends to one global, whatever their stages or deferred flags.
    // The device owns inputs and RAM read-data; no core may publish them.
    let device_owned: HashSet<u32> = ctx
        .input_slots
        .iter()
        .chain(ctx.rams.iter().flat_map(|r| &r.rdata))
        .copied()
        .collect();
    for slot in &written {
        let ws = &slots[slot].writers;
        let (s0, c0, _) = ws[0];
        if let Some(&(s1, c1, _)) = ws.get(1) {
            viol(
                v,
                Some((s0, c0)),
                format!(
                    "global {slot} has {} racing writers within one cycle \
                     (stage {s0} core {c0} and stage {s1} core {c1}, no \
                     happens-before edge between sends)",
                    ws.len()
                ),
            );
        }
        if device_owned.contains(slot) {
            viol(
                v,
                Some((s0, c0)),
                format!("write to device-owned global {slot} (input or RAM read-data slot)"),
            );
        }
    }

    // Each core reads a global once, into a distinct inbox bit, and
    // every read needs a happens-before edge from its producer: a stage
    // barrier (an immediate write in a strictly earlier stage), else the
    // cycle boundary (the slot is device-owned or deferred-written).
    let mut dests: HashSet<u16> = HashSet::new();
    let mut srcs: HashSet<u32> = HashSet::new();
    for (si, ci, core) in cores(io) {
        let loc = Some((si, ci));
        dests.clear();
        srcs.clear();
        for r in &core.reads {
            if !dests.insert(r.state) {
                viol(
                    v,
                    loc,
                    format!("two reads land in the same inbox state bit {}", r.state),
                );
            }
            if !srcs.insert(r.global) {
                viol(
                    v,
                    loc,
                    format!("global {} read twice by one core", r.global),
                );
            }
            cert.reads += 1;
            let s = slots.entry(r.global).or_default();
            s.readers += 1;
            s.first_read.get_or_insert(si as u32);
            if s.first_immediate.is_some_and(|f| f < si) {
                cert.barrier_edges += 1;
            } else if s.deferred || device_owned.contains(&r.global) {
                cert.boundary_edges += 1;
            } else {
                let why = match s.first_immediate {
                    Some(f) => format!(
                        "its only producer is an immediate write at stage {f}, \
                         not before stage {si} (message would arrive before \
                         the producer runs)"
                    ),
                    None => "no core ever writes it (dropped send)".to_string(),
                };
                viol(
                    v,
                    loc,
                    format!(
                        "read of global {} at stage {si} has no happens-before \
                         edge from a producing write: {why}",
                        r.global
                    ),
                );
            }
        }
    }

    // Required sends: primary outputs need a deferred publisher, RAM
    // operands an immediate one (the RAM phase runs after the last
    // stage's barrier, before the deferred commit). A power-on one
    // proves nothing past cycle 0: the compiler marks a slot initial-one
    // only for a flip-flop, which must republish its next state every
    // cycle, so one that is read needs a deferred writer.
    let holds = |slot: &u32, rule: fn(&SlotFacts) -> bool| slots.get(slot).is_some_and(rule);
    for slot in &ctx.output_slots {
        if !holds(slot, |s| s.deferred) {
            viol(
                v,
                None,
                format!("primary-output slot {slot} is never published (deferred write missing)"),
            );
        }
    }
    for (ri, ram) in ctx.rams.iter().enumerate() {
        for slot in ram.operand_slots() {
            if !holds(&slot, |s| s.first_immediate.is_some()) {
                viol(
                    v,
                    None,
                    format!("RAM {ri} operand slot {slot} has no immediate writer"),
                );
            }
        }
    }
    for slot in &ctx.initial_ones {
        if holds(slot, |s| s.readers > 0 && !s.deferred) {
            viol(
                v,
                None,
                format!(
                    "initialized slot {slot} is read but has no deferred writer \
                     (flip-flop state never updated)"
                ),
            );
        }
    }

    // Canonical per-slot table digest: written slots in order, producer
    // coordinates sorted, then consumer facts.
    let mut h = FNV_OFFSET;
    for slot in &written {
        let s = &slots[slot];
        fnv1a(&mut h, &slot.to_le_bytes());
        let mut ws = s.writers.clone();
        ws.sort_unstable();
        for (si, ci, deferred) in ws {
            fnv1a(&mut h, &(si as u32).to_le_bytes());
            fnv1a(&mut h, &(ci as u32).to_le_bytes());
            fnv1a(&mut h, &[u8::from(deferred)]);
        }
        fnv1a(&mut h, &s.first_read.unwrap_or(u32::MAX).to_le_bytes());
        fnv1a(&mut h, &s.readers.to_le_bytes());
    }
    cert.table_digest = h;
    cert
}

/// The verifier's `schedule` family: runs the walk and, when every core
/// decoded and the walk found no violation, completes the certificate.
/// A certificate stored in `ctx` must equal that recomputation — a stale
/// or forged one is a violation even if the schedule is race-free — and
/// one stored for a schedule that does not prove cannot be trusted.
pub(crate) fn check_schedule(
    bs: &Bitstream,
    io: &[Vec<Option<CoreIo>>],
    ctx: &VerifyContext<'_>,
    v: &mut Vec<Violation>,
) -> Option<ScheduleCert> {
    let before = v.len();
    let mut cert = analyze_schedule(bs, io, ctx, v);
    let proved = v.len() == before && io.iter().flatten().all(Option::is_some);
    if !proved {
        if ctx.schedule_cert.is_some() {
            viol(
                v,
                None,
                "a schedule certificate is attached but the happens-before \
                 proof does not reconstruct (cert cannot be trusted)"
                    .into(),
            );
        }
        return None;
    }
    let mut h = FNV_OFFSET;
    bs.for_each_piece(|piece| fnv1a(&mut h, piece));
    cert.bitstream_fnv = h;
    if let Some(stored) = ctx.schedule_cert.filter(|&s| *s != cert) {
        viol(
            v,
            None,
            format!(
                "stored schedule certificate does not match recomputation \
                 (stored digest {:016x}/fnv {:016x}, recomputed {:016x}/{:016x})",
                stored.table_digest, stored.bitstream_fnv, cert.table_digest, cert.bitstream_fnv
            ),
        );
    }
    Some(cert)
}

/// Statically proves the compiled schedule race-free and returns its
/// certificate, or the violations that block one.
///
/// `Ok` exactly when every core decodes and the verifier's `schedule`
/// family finds nothing: the two run the same decode and the same walk.
/// Like the verifier, it decodes one core at a time and keeps only the
/// core's reads and writes.
/// The returned violations are stamped `schedule` so they drop straight
/// into a [`crate::VerifyReport`]-style pipeline.
pub fn certify_schedule(
    bs: &Bitstream,
    ctx: &VerifyContext<'_>,
) -> Result<ScheduleCert, Vec<Violation>> {
    let mut v = Vec::new();
    let mut io = Vec::with_capacity(bs.stages.len());
    for (si, stage) in bs.stages.iter().enumerate() {
        let mut stage_io = Vec::with_capacity(stage.len());
        for (ci, bytes) in stage.iter().enumerate() {
            stage_io.push(decode_core(Some((si, ci)), bytes, &mut v).map(CoreIo::from));
        }
        io.push(stage_io);
    }
    match check_schedule(bs, &io, ctx, &mut v) {
        Some(cert) if v.is_empty() => Ok(cert),
        _ => {
            for viol in &mut v {
                viol.check = "schedule";
            }
            Err(v)
        }
    }
}
