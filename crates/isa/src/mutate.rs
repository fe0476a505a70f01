//! Seeded bitstream mutator: the verifier's sparring partner.
//!
//! A static checker that nobody attacks silently rots — a refactor can
//! weaken a check and every test still passes, because valid bitstreams
//! exercise only the "accept" path. The mutation self-test harness
//! (`tests/mutation_kill.rs`) closes that hole: it corrupts known-good
//! bitstreams in each [`MutationClass`] and asserts
//! [`crate::verify_bitstream`] kills every mutant. Each class targets a
//! specific check family, so a surviving mutant names the check that
//! regressed.
//!
//! Mutations come in two flavors:
//!
//! * **Structured** — decode a core, perturb the [`crate::DecodedCore`],
//!   re-encode canonically. The mutant is a *well-formed* program whose
//!   semantics are wrong, so only the semantic checks (`layers`,
//!   `bounds`, `budget`, `merge`, `schedule`) can catch it.
//! * **Raw** — byte-level damage (truncation, trailing garbage, header
//!   count corruption) that the `roundtrip` check must catch.
//!
//! All randomness is a local SplitMix64 over the caller's seed; the same
//! `(bitstream, class, seed)` triple always yields the same mutant.

use crate::{assemble_decoded, disassemble_core, Bitstream, DecodedCore, WriteSrc};
use gem_place::{PermSource, Plane};
use std::collections::{HashMap, HashSet};
use std::fmt;

/// The ways a bitstream can be corrupted, each aimed at one verifier
/// check family (noted per variant).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MutationClass {
    /// Swap two distinct boomerang layers (`merge`, often `layers`).
    SwapLayers,
    /// Drop a `READ_GLOBAL` entry — a lost recv (`layers`/`merge`).
    DropRead,
    /// Drop a `WRITE_GLOBAL` entry whose slot someone reads — a lost
    /// send (`schedule`).
    DropWrite,
    /// Duplicate a write with a flipped source — two senders racing on
    /// one slot (`schedule`).
    DupWrite,
    /// Point a read's inbox destination past the state array (`bounds`).
    ReadAddrOob,
    /// Point a write-back at `state_size` (`bounds`).
    WritebackAddrOob,
    /// Point a read or write past the global signal array (`bounds`).
    GlobalOob,
    /// Shrink the declared state size below the highest used address
    /// (`bounds`).
    StateSizeShrink,
    /// Retarget a permutation source to constant-false (`merge`).
    PermRetarget,
    /// Flip one fold constant bit (`merge`).
    FoldFlip,
    /// Truncate a core program mid-word (`roundtrip`).
    TruncateCore,
    /// Append garbage bytes after a core program (`roundtrip`).
    TrailingGarbage,
    /// Bump the `INIT` layer count so the headers lie (`roundtrip`).
    CorruptCounts,
    /// Flip a deferred send to immediate so a reader at the same or an
    /// earlier stage receives the message *before* its producer runs —
    /// a happens-before race the `schedule` certification must kill
    /// (`schedule`).
    MsgBeforeProducer,
    /// Add a second sender to a slot another core already publishes —
    /// two writers racing on one slot within a cycle (`schedule`).
    DualWriterSameSlot,
}

/// Every mutation class, in a stable order (the self-test iterates this).
pub const ALL_CLASSES: [MutationClass; 15] = [
    MutationClass::SwapLayers,
    MutationClass::DropRead,
    MutationClass::DropWrite,
    MutationClass::DupWrite,
    MutationClass::ReadAddrOob,
    MutationClass::WritebackAddrOob,
    MutationClass::GlobalOob,
    MutationClass::StateSizeShrink,
    MutationClass::PermRetarget,
    MutationClass::FoldFlip,
    MutationClass::TruncateCore,
    MutationClass::TrailingGarbage,
    MutationClass::CorruptCounts,
    MutationClass::MsgBeforeProducer,
    MutationClass::DualWriterSameSlot,
];

/// The classes whose mutants are detectable from the bitstream and
/// device context alone. The other three (`swap_layers`,
/// `perm_retarget`, `fold_flip`) produce well-formed, in-bounds programs
/// that only the `merge` consistency check — which needs placement
/// metadata — can distinguish from the original; fault drills against
/// `.gemb` packages (which carry no programs) must draw from this set.
pub const PROGRAM_FREE_CLASSES: [MutationClass; 12] = [
    MutationClass::DropRead,
    MutationClass::DropWrite,
    MutationClass::DupWrite,
    MutationClass::ReadAddrOob,
    MutationClass::WritebackAddrOob,
    MutationClass::GlobalOob,
    MutationClass::StateSizeShrink,
    MutationClass::TruncateCore,
    MutationClass::TrailingGarbage,
    MutationClass::CorruptCounts,
    MutationClass::MsgBeforeProducer,
    MutationClass::DualWriterSameSlot,
];

impl MutationClass {
    /// Stable snake_case name (used in test output and docs).
    pub fn name(self) -> &'static str {
        match self {
            MutationClass::SwapLayers => "swap_layers",
            MutationClass::DropRead => "drop_read",
            MutationClass::DropWrite => "drop_write",
            MutationClass::DupWrite => "dup_write",
            MutationClass::ReadAddrOob => "read_addr_oob",
            MutationClass::WritebackAddrOob => "writeback_addr_oob",
            MutationClass::GlobalOob => "global_oob",
            MutationClass::StateSizeShrink => "state_size_shrink",
            MutationClass::PermRetarget => "perm_retarget",
            MutationClass::FoldFlip => "fold_flip",
            MutationClass::TruncateCore => "truncate_core",
            MutationClass::TrailingGarbage => "trailing_garbage",
            MutationClass::CorruptCounts => "corrupt_counts",
            MutationClass::MsgBeforeProducer => "msg_before_producer",
            MutationClass::DualWriterSameSlot => "dual_writer_same_slot",
        }
    }
}

impl fmt::Display for MutationClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// SplitMix64, kept local so the ISA crate stays dependency-free.
struct SplitMix64(u64);

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        SplitMix64(seed.wrapping_add(0x9E37_79B9_7F4A_7C15))
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        assert!(n > 0);
        (self.next_u64() % n as u64) as usize
    }
}

/// Cross-core facts a structured mutation may need: who reads what (and
/// how early), and who writes what. Precomputed once per [`mutate`] call
/// from the whole bitstream, since a single core sees only its own
/// program.
struct MutCtx {
    /// Slots some core reads: the drop-write class must hit one of these
    /// so the lost send is observable.
    read_globals: HashSet<u32>,
    /// Earliest stage at which each global is read.
    read_min_stage: HashMap<u32, usize>,
    /// One writer coordinate per written global.
    writer_coords: HashMap<u32, (usize, usize)>,
    /// Coordinate of the core being mutated.
    at: (usize, usize),
}

/// Applies `class` to one core of `bs`, chosen by seeded rotation over
/// the cores until one admits the mutation. Returns `None` when no core
/// does (e.g. `SwapLayers` on a design whose every core has fewer than
/// two distinct layers) — the self-test treats that as "class not
/// applicable to this fixture", never as a pass.
pub fn mutate(bs: &Bitstream, class: MutationClass, seed: u64) -> Option<Bitstream> {
    let coords: Vec<(usize, usize)> = bs
        .stages
        .iter()
        .enumerate()
        .flat_map(|(si, s)| (0..s.len()).map(move |ci| (si, ci)))
        .collect();
    if coords.is_empty() {
        return None;
    }
    let mut read_globals: HashSet<u32> = HashSet::new();
    let mut read_min_stage: HashMap<u32, usize> = HashMap::new();
    let mut writer_coords: HashMap<u32, (usize, usize)> = HashMap::new();
    for &(si, ci) in &coords {
        let Ok(d) = disassemble_core(&bs.stages[si][ci]) else {
            continue;
        };
        for r in &d.reads {
            read_globals.insert(r.global);
            let e = read_min_stage.entry(r.global).or_insert(si);
            *e = (*e).min(si);
        }
        for w in &d.writes {
            writer_coords.entry(w.global).or_insert((si, ci));
        }
    }
    let mut ctx = MutCtx {
        read_globals,
        read_min_stage,
        writer_coords,
        at: (0, 0),
    };
    let mut rng = SplitMix64::new(seed.wrapping_mul(0x100_0000_01B3) ^ class as u64);
    let start = rng.below(coords.len());
    for k in 0..coords.len() {
        let (si, ci) = coords[(start + k) % coords.len()];
        ctx.at = (si, ci);
        if let Some(bytes) = apply(class, &bs.stages[si][ci], bs, &ctx, &mut rng) {
            let mut out = bs.clone();
            out.stages[si][ci] = bytes;
            return Some(out);
        }
    }
    None
}

/// Fault-injection entry point for drills against a finished artifact
/// (`gem verify --fault`): rotates through [`ALL_CLASSES`] from a seeded
/// start and applies the first class the bitstream admits. Falls back to
/// an unmodified clone only for degenerate (core-less) bitstreams.
pub fn corrupt(bs: &Bitstream, seed: u64) -> Bitstream {
    corrupt_from(bs, seed, &ALL_CLASSES)
}

/// Like [`corrupt`], drawing only from the given class set (e.g.
/// [`PROGRAM_FREE_CLASSES`] when the verifier will run without placement
/// metadata).
pub fn corrupt_from(bs: &Bitstream, seed: u64, classes: &[MutationClass]) -> Bitstream {
    for k in 0..classes.len() {
        let class = classes[(seed as usize + k) % classes.len()];
        if let Some(mutant) = mutate(bs, class, seed) {
            return mutant;
        }
    }
    bs.clone()
}

fn apply(
    class: MutationClass,
    bytes: &[u8],
    bs: &Bitstream,
    ctx: &MutCtx,
    rng: &mut SplitMix64,
) -> Option<Vec<u8>> {
    match class {
        // Raw byte damage: no decode involved.
        MutationClass::TruncateCore => {
            if bytes.len() < 8 {
                return None;
            }
            let keep = bytes.len() - (bytes.len() / 4 + 1);
            Some(bytes[..keep].to_vec())
        }
        MutationClass::TrailingGarbage => {
            let mut out = bytes.to_vec();
            out.extend_from_slice(&[0xA5; 8]);
            Some(out)
        }
        MutationClass::CorruptCounts => {
            if bytes.len() < 16 {
                return None;
            }
            let mut out = bytes.to_vec();
            let n_layers = u32::from_le_bytes([out[12], out[13], out[14], out[15]]);
            out[12..16].copy_from_slice(&n_layers.wrapping_add(1).to_le_bytes());
            Some(out)
        }
        // Structured damage: decode, perturb, canonical re-encode.
        _ => {
            let mut dec = disassemble_core(bytes).ok()?;
            mutate_decoded(class, &mut dec, bs, ctx, rng)?;
            Some(assemble_decoded(&dec))
        }
    }
}

fn mutate_decoded(
    class: MutationClass,
    dec: &mut DecodedCore,
    bs: &Bitstream,
    ctx: &MutCtx,
    rng: &mut SplitMix64,
) -> Option<()> {
    match class {
        MutationClass::SwapLayers => {
            if dec.layers.len() < 2 {
                return None;
            }
            let i = rng.below(dec.layers.len());
            let j = (0..dec.layers.len()).find(|&j| dec.layers[j] != dec.layers[i])?;
            dec.layers.swap(i, j);
        }
        MutationClass::DropRead => {
            // Only drop a read whose landing bit is gathered *before*
            // any writeback redefines it: the placer recycles state
            // addresses, so a bit that is written back early would make
            // the hole invisible to the layers check (detectable only
            // via the merge check, which needs placement metadata —
            // and this class is in [`PROGRAM_FREE_CLASSES`]).
            let mut first_gather: std::collections::HashMap<u16, usize> = Default::default();
            let mut first_wb: std::collections::HashMap<u16, usize> = Default::default();
            for (li, l) in dec.layers.iter().enumerate() {
                for j in 0..l.width() as usize {
                    if let PermSource::State(a) = l.perm(j) {
                        first_gather.entry(a).or_insert(li);
                    }
                }
                for k in 0..l.fold_levels() {
                    for &(_, a) in l.writebacks(k) {
                        first_wb.entry(a).or_insert(li);
                    }
                }
            }
            let candidates: Vec<usize> = (0..dec.reads.len())
                .filter(|&i| {
                    let a = dec.reads[i].state;
                    first_gather
                        .get(&a)
                        .is_some_and(|&g| first_wb.get(&a).is_none_or(|&w| w >= g))
                })
                .collect();
            if candidates.is_empty() {
                return None;
            }
            dec.reads.remove(candidates[rng.below(candidates.len())]);
        }
        MutationClass::DropWrite => {
            let candidates: Vec<usize> = (0..dec.writes.len())
                .filter(|&i| ctx.read_globals.contains(&dec.writes[i].global))
                .collect();
            if candidates.is_empty() {
                return None;
            }
            dec.writes.remove(candidates[rng.below(candidates.len())]);
        }
        MutationClass::DupWrite => {
            if dec.writes.is_empty() {
                return None;
            }
            let i = rng.below(dec.writes.len());
            let mut dup = dec.writes[i];
            dup.src = match dup.src {
                WriteSrc::State { addr, invert } => WriteSrc::State {
                    addr,
                    invert: !invert,
                },
                WriteSrc::Const(v) => WriteSrc::Const(!v),
            };
            dec.writes.insert(i + 1, dup);
        }
        MutationClass::ReadAddrOob => {
            if dec.reads.is_empty() || dec.state_size > 0x7FFF {
                return None;
            }
            let i = rng.below(dec.reads.len());
            dec.reads[i].state = 0x7FFF;
        }
        MutationClass::WritebackAddrOob => {
            // The write-back field is 13-bit, so the smallest illegal
            // address (state_size itself) must still be encodable.
            if dec.state_size >= 1 << 13 {
                return None;
            }
            let (layer, k, j) = dec.layers.iter_mut().find_map(|l| {
                let k = (0..l.fold_levels()).find(|&k| !l.writebacks(k).is_empty())?;
                let j = l.writebacks(k)[0].0;
                Some((l, k, usize::from(j)))
            })?;
            layer.set_writeback(k, j, Some(dec.state_size as u16));
        }
        MutationClass::GlobalOob => {
            let bad = bs.global_bits + 1 + rng.below(100) as u32;
            if !dec.reads.is_empty() && (dec.writes.is_empty() || rng.below(2) == 0) {
                let i = rng.below(dec.reads.len());
                dec.reads[i].global = bad;
            } else if !dec.writes.is_empty() {
                let i = rng.below(dec.writes.len());
                dec.writes[i].global = bad;
            } else {
                return None;
            }
        }
        MutationClass::StateSizeShrink => {
            let mut max_addr: Option<u32> = None;
            let mut note = |a: u32| max_addr = Some(max_addr.map_or(a, |m| m.max(a)));
            for r in &dec.reads {
                note(u32::from(r.state));
            }
            for w in &dec.writes {
                if let WriteSrc::State { addr, .. } = w.src {
                    note(u32::from(addr));
                }
            }
            for l in &dec.layers {
                for j in 0..l.width() as usize {
                    if let PermSource::State(a) = l.perm(j) {
                        note(u32::from(a));
                    }
                }
                for k in 0..l.fold_levels() {
                    for &(_, a) in l.writebacks(k) {
                        note(u32::from(a));
                    }
                }
            }
            // Declaring exactly max_addr puts the highest-used address
            // one past the end of the state array.
            dec.state_size = max_addr?;
        }
        MutationClass::PermRetarget => {
            let (layer, j) = dec.layers.iter_mut().find_map(|l| {
                let j = (0..l.width() as usize).find(|&j| l.perm(j) != PermSource::ConstFalse)?;
                Some((l, j))
            })?;
            layer.set_perm(j, PermSource::ConstFalse);
        }
        MutationClass::FoldFlip => {
            if dec.layers.is_empty() {
                return None;
            }
            let li = rng.below(dec.layers.len());
            let layer = &mut dec.layers[li];
            let k = rng.below(layer.fold_levels());
            let j = rng.below(layer.fold(k).slots());
            let flipped = !layer.fold(k).xa(j);
            layer.set_const(k, Plane::Xa, j, flipped);
        }
        MutationClass::MsgBeforeProducer => {
            // Flip a deferred send to immediate when some core reads the
            // slot at this stage or earlier: the cycle-boundary
            // happens-before edge disappears and the only remaining
            // producer is an immediate write the reader cannot be
            // ordered after.
            let (si, _) = ctx.at;
            let candidates: Vec<usize> = (0..dec.writes.len())
                .filter(|&i| {
                    dec.writes[i].deferred
                        && ctx
                            .read_min_stage
                            .get(&dec.writes[i].global)
                            .is_some_and(|&rs| rs <= si)
                })
                .collect();
            if candidates.is_empty() {
                return None;
            }
            dec.writes[candidates[rng.below(candidates.len())]].deferred = false;
        }
        MutationClass::DualWriterSameSlot => {
            // Add a second sender to a slot a *different* core already
            // publishes. The payload is a constant so the mutant stays
            // in-bounds for any state size — the only broken invariant
            // is the single-writer-per-slot rule.
            let already: HashSet<u32> = dec.writes.iter().map(|w| w.global).collect();
            let mut candidates: Vec<(u32, bool)> = Vec::new();
            for (&global, &coord) in &ctx.writer_coords {
                if coord != ctx.at && !already.contains(&global) {
                    // Match the victim's deferred flag so the slot's
                    // cycle-start membership is unchanged and the race
                    // is the sole defect.
                    if let Ok(victim) = disassemble_core(&bs.stages[coord.0][coord.1]) {
                        if let Some(w) = victim.writes.iter().find(|w| w.global == global) {
                            candidates.push((global, w.deferred));
                        }
                    }
                }
            }
            if candidates.is_empty() {
                return None;
            }
            candidates.sort_unstable();
            let (global, deferred) = candidates[rng.below(candidates.len())];
            dec.writes.push(crate::WriteEntry {
                global,
                src: WriteSrc::Const(rng.below(2) == 1),
                deferred,
            });
        }
        _ => unreachable!("raw classes handled in apply()"),
    }
    Some(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{assemble_core, ReadEntry, WriteEntry};
    use gem_place::{BoomerangLayer, CoreProgram, OutputSource};

    fn sample_bitstream() -> Bitstream {
        let width = 16u32;
        let mut layer = BoomerangLayer::new(width);
        layer.set_perm(0, PermSource::State(0));
        layer.set_perm(1, PermSource::State(1));
        layer.set_writeback(0, 0, Some(2));
        let mut layer2 = BoomerangLayer::new(width);
        layer2.set_perm(0, PermSource::State(2));
        layer2.set_writeback(0, 1, Some(3));
        let prog = CoreProgram {
            width,
            state_size: 4,
            inputs: vec![(gem_aig::NodeId(1), 0), (gem_aig::NodeId(2), 1)],
            layers: vec![layer, layer2],
            outputs: vec![OutputSource::State {
                addr: 3,
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
            src: WriteSrc::State {
                addr: 3,
                invert: false,
            },
            deferred: true,
        }];
        Bitstream {
            width,
            global_bits: 3,
            stages: vec![vec![assemble_core(&prog, &reads, &writes)]],
        }
    }

    #[test]
    fn mutations_are_deterministic_and_change_the_bytes() {
        let bs = sample_bitstream();
        for class in ALL_CLASSES {
            let Some(a) = mutate(&bs, class, 7) else {
                continue;
            };
            let b = mutate(&bs, class, 7).expect("same seed, same applicability");
            assert_eq!(a, b, "{class} not deterministic");
            assert_ne!(a, bs, "{class} must alter the bitstream");
        }
    }

    #[test]
    fn most_classes_apply_to_a_small_design() {
        let bs = sample_bitstream();
        let applicable = ALL_CLASSES
            .iter()
            .filter(|c| mutate(&bs, **c, 1).is_some())
            .count();
        // drop_write needs a cross-core reader, and the two schedule-race
        // classes need either a same-stage reader of a deferred slot or a
        // second core to race against; everything else should land on
        // this single-core fixture.
        assert!(applicable >= ALL_CLASSES.len() - 3, "{applicable} classes");
    }

    #[test]
    fn corrupt_always_returns_a_different_bitstream_when_possible() {
        let bs = sample_bitstream();
        for seed in 1..=16u64 {
            assert_ne!(corrupt(&bs, seed), bs, "seed {seed}");
        }
    }
}
