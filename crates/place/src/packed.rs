//! Signal-packed lowering of boomerang layers: the form a one-lane
//! machine executes (DESIGN.md §7).
//!
//! [`CompiledLayer`] spends one machine [`Word`] per signal so that 64
//! simulations ride in its bits. With one simulation, 63 of those bits
//! are copies of the first: every row word it gathers, folds and writes
//! back carries one bit of information. [`PackedLayer`] packs the other
//! way, as the paper's kernel does (256 threads × 32 signals per word):
//! a fold row is a bit vector, level *k* of a `width`-wide layer being
//! `width >> k` bits in `u64`s, and a fold level is whole-word logic.
//!
//! * The fold constants are bit planes deposited on the **even** bit
//!   positions of the level's input row: slot `j` pairs row bits `2j`
//!   and `2j + 1`, so with `XA`/`XB`/`OB` holding slot `j`'s constants
//!   at bit `2j`, `t = (w ^ XA) & (((w >> 1) ^ XB) | OB)` leaves slot
//!   `j`'s output at bit `2j` of `t` — 32 slots per word-op.
//! * A five-step even-bit compress then squeezes two such words into
//!   one word of the next row. The tree is the same `2j`/`2j + 1` tree
//!   the placer and the ISA use, so nothing upstream changes.
//! * The core's private state is a [`ByteState`]: one byte, 0 or 1,
//!   per state address, in an array whose length is the range of the
//!   `u16` the tables hold — no table entry can index out of it, so no
//!   access is checked (DESIGN.md §7 has the measurements).
//! * The gather is a `u16` table (constant leaves pre-redirected to the
//!   zero slot) assembled 16 leaves per accumulator, a byte a leaf.
//! * A writeback is resolved at lowering to the word and bit of its
//!   level's row that hold its slot, read through a 256-word view the
//!   `u8` word index cannot leave, and stores that bit as a byte.
//! * Execution stops at the last level that holds a writeback and at
//!   the last 64-leaf gather word holding a leaf some writeback can
//!   observe. The dead remainder is still *stored* (it is small), which
//!   is what lets [`PackedLayer::widen`] reproduce the lane-word form
//!   exactly without the decoded program.
//!
//! Equivalence with the scalar spec is checked below on random layers
//! of every width, and across the fuzz corpus by `gem-sim`'s
//! `compiled_lowering` suite.

use crate::compiled::CompiledLayer;
use crate::layer::{BoomerangLayer, FoldConsts, PermSource, Plane, Word};

/// Leaves gathered per row word.
const WORD_LEAVES: usize = u64::BITS as usize;
/// Fold slots whose constants one plane word holds (the even bits).
const WORD_SLOTS: usize = WORD_LEAVES / 2;
/// The even bit positions.
const EVEN: u64 = 0x5555_5555_5555_5555;
/// State addresses a `u16` names: the length of a [`ByteState`].
const STATE_ADDRS: usize = 1 << u16::BITS;
/// Row words a `u8` names: the length of the view of a level's output
/// row that writebacks read, and the first-level row of the widest core
/// the ISA encodes (32 768 bits).
const VIEW_WORDS: usize = 1 << u8::BITS;

/// The private state of a one-lane core: one byte, `0` or `1`, per state
/// address, in an array as long as the range of the `u16` every table of
/// a [`PackedLayer`] stores its addresses in — so no address can index
/// out of it and no access compares one with a length (DESIGN.md §7).
#[derive(Debug)]
pub struct ByteState(Box<[u8; STATE_ADDRS]>);

impl Default for ByteState {
    /// An all-zero state. `vec![0; n]` asks the allocator for zeroed
    /// memory instead of filling it, so the array costs the pages a core
    /// touches (`width + 1` bytes), not 64 KiB.
    fn default() -> ByteState {
        let bytes: Box<[u8]> = vec![0; STATE_ADDRS].into();
        ByteState(bytes.try_into().expect("the length is the array's"))
    }
}

impl ByteState {
    /// Stores `bit` at `addr`.
    #[inline]
    pub fn set(&mut self, addr: u16, bit: bool) {
        self.0[usize::from(addr)] = u8::from(bit);
    }

    /// The lane word of the bit at `addr`: all ones or all zeros.
    #[inline]
    pub fn splat(&self, addr: u16) -> Word {
        Word::from(self.0[usize::from(addr)]).wrapping_neg()
    }
}

/// One writeback, resolved to where its slot's bit sits in the level's
/// output row: slot `j` is bit `j % 64` of word `j / 64`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Writeback {
    word: u8,
    shift: u8,
    addr: u16,
}

impl Writeback {
    fn slot(self) -> u32 {
        u32::from(self.word) * u64::BITS + u32::from(self.shift)
    }
}

/// One fold level of a [`PackedLayer`].
#[derive(Debug, Clone, PartialEq, Eq)]
struct PackedFold {
    /// `[XA, XB, OB]` per word of the level's input row; slot `j`'s
    /// constants sit at bit `2 * (j % 32)` of word `j / 32`, every other
    /// bit is zero.
    consts: Box<[[u64; 3]]>,
    /// The slots that write back, in slot order.
    writeback: Box<[Writeback]>,
}

/// A [`BoomerangLayer`] lowered to signal-packed form; see the module
/// docs. Executes one simulation over a [`ByteState`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedLayer {
    width: u32,
    /// The always-zero state slot the layer was lowered for.
    zero: u16,
    /// Gather table in leaf order, constants redirected to the zero
    /// slot, padded with the zero slot to a whole number of row words.
    perm: Box<[u16]>,
    /// Every fold level, widest first.
    folds: Box<[PackedFold]>,
    /// Row words gathered: up to the last one holding a live leaf.
    live_words: usize,
    /// Fold levels run: up to the last one holding a writeback.
    live_levels: usize,
}

/// Spreads the 32 bits of `half` onto the even bit positions, order
/// kept: the inverse of one half of [`compress_pair`].
#[inline]
fn spread_even(half: u32) -> u64 {
    let mut x = u64::from(half);
    x = (x | x << 16) & 0x0000_FFFF_0000_FFFF;
    x = (x | x << 8) & 0x00FF_00FF_00FF_00FF;
    x = (x | x << 4) & 0x0F0F_0F0F_0F0F_0F0F;
    x = (x | x << 2) & 0x3333_3333_3333_3333;
    (x | x << 1) & EVEN
}

/// Deposits a level's constant planes on the even bits of its input
/// row's words: each plane word becomes two.
fn deposit(fc: &FoldConsts) -> Box<[[u64; 3]]> {
    let planes = [Plane::Xa, Plane::Xb, Plane::Ob].map(|p| fc.plane(p));
    (0..fc.slots().div_ceil(WORD_SLOTS))
        .map(|i| planes.map(|plane| spread_even((plane[i / 2] >> (32 * (i % 2))) as u32)))
        .collect()
}

/// One fold level on one row word: slot `j`'s output lands on bit `2j`;
/// the odd bits are garbage.
#[inline]
fn fold_word(w: u64, [xa, xb, ob]: [u64; 3]) -> u64 {
    (w ^ xa) & (((w >> 1) ^ xb) | ob)
}

/// Packs the even bits of `lo` into the low half of the result and the
/// even bits of `hi` into the high half, order kept: interleave the two
/// (`hi` onto the odd positions), then un-shuffle in five swap steps.
#[inline]
fn compress_pair(lo: u64, hi: u64) -> u64 {
    let mut x = (lo & EVEN) | ((hi & EVEN) << 1);
    let mut t = (x ^ (x >> 1)) & 0x2222_2222_2222_2222;
    x ^= t ^ (t << 1);
    t = (x ^ (x >> 2)) & 0x0C0C_0C0C_0C0C_0C0C;
    x ^= t ^ (t << 2);
    t = (x ^ (x >> 4)) & 0x00F0_00F0_00F0_00F0;
    x ^= t ^ (t << 4);
    t = (x ^ (x >> 8)) & 0x0000_FF00_0000_FF00;
    x ^= t ^ (t << 8);
    t = (x ^ (x >> 16)) & 0x0000_0000_FFFF_0000;
    x ^ t ^ (t << 16)
}

impl PackedLayer {
    /// Lowers a layer for a core whose always-zero state slot is
    /// `zero_slot` (the virtual GPU keeps one just past the core width).
    ///
    /// Returns `None` when the layer cannot be held to that contract — a
    /// gather or writeback addresses state at or beyond `zero_slot` — or
    /// when a table cannot hold it: `zero_slot` does not fit the `u16`
    /// of an address, or a writing slot lies beyond row word 255 of its
    /// level (a layer wider than the ISA's 32 768 bits writing back from
    /// the upper half of its first level).
    pub fn lower(layer: &BoomerangLayer, zero_slot: u32) -> Option<PackedLayer> {
        let zero = u16::try_from(zero_slot).ok()?;
        let addr = |a: u16| (a < zero).then_some(a);
        let mut perm = (0..layer.width() as usize)
            .map(|j| match layer.perm(j) {
                PermSource::State(a) => addr(a),
                PermSource::ConstFalse => Some(zero),
            })
            .collect::<Option<Vec<u16>>>()?;
        perm.resize(perm.len().next_multiple_of(WORD_LEAVES), zero);
        let levels: Vec<FoldConsts> = (0..layer.fold_levels()).map(|k| layer.fold(k)).collect();
        let mut last_leaf = None;
        let mut live_levels = 0;
        let mut folds = Vec::with_capacity(levels.len());
        for (k, fc) in levels.iter().enumerate() {
            let mut writeback = Vec::with_capacity(layer.writebacks(k).len());
            for &(j, target) in layer.writebacks(k) {
                let j = usize::from(j);
                writeback.push(Writeback {
                    word: u8::try_from(j / WORD_LEAVES).ok()?,
                    shift: u8::try_from(j % WORD_LEAVES).ok()?,
                    addr: addr(target)?,
                });
                live_levels = k + 1;
                // The right-most leaf this slot's value depends on: at
                // each level below, operand B unless it is bypassed.
                let leaf = levels[..=k]
                    .iter()
                    .rev()
                    .fold(j, |slot, below| 2 * slot + usize::from(!below.ob(slot)));
                last_leaf = last_leaf.max(Some(leaf));
            }
            folds.push(PackedFold {
                consts: deposit(fc),
                writeback: writeback.into(),
            });
        }
        Some(PackedLayer {
            width: layer.width(),
            zero,
            perm: perm.into(),
            folds: folds.into(),
            live_words: last_leaf.map_or(0, |leaf| leaf / WORD_LEAVES + 1),
            live_levels,
        })
    }

    /// The lane-word form of the same layer: exactly
    /// [`CompiledLayer::lower`] followed by
    /// [`redirect_consts`](CompiledLayer::redirect_consts) to the zero
    /// slot this layer was lowered with — which is how it is made, from
    /// the layer this one stores whole. Every gather of the zero slot
    /// was a constant leaf, and comes back as one.
    pub fn widen(&self) -> CompiledLayer {
        let mut layer = BoomerangLayer::new(self.width);
        for (j, &a) in self.perm[..self.width as usize].iter().enumerate() {
            if a != self.zero {
                layer.set_perm(j, PermSource::State(a));
            }
        }
        for (k, f) in self.folds.iter().enumerate() {
            for (i, pair) in f.consts.chunks(2).enumerate() {
                for (n, p) in [Plane::Xa, Plane::Xb, Plane::Ob].into_iter().enumerate() {
                    let hi = pair.get(1).map_or(0, |w| w[n]);
                    layer.set_plane_word(k, p, i, compress_pair(pair[0][n], hi));
                }
            }
        }
        let writebacks = self.folds.iter().enumerate().flat_map(|(k, f)| {
            f.writeback
                .iter()
                .map(move |wb| (k, wb.slot() as usize, wb.addr))
        });
        layer.set_writebacks(writebacks);
        let mut wide = CompiledLayer::lower(&layer);
        wide.redirect_consts(u32::from(self.zero));
        wide
    }

    /// The state addresses one execution gathers, before any of its
    /// writebacks land.
    pub fn gathered(&self) -> &[u16] {
        &self.perm[..self.live_words * WORD_LEAVES]
    }

    /// The state addresses one execution writes, in write order.
    pub fn written(&self) -> impl Iterator<Item = u16> + '_ {
        self.folds
            .iter()
            .flat_map(|f| f.writeback.iter().map(|wb| wb.addr))
    }

    /// Executes the layer on `state`: afterwards each writeback target
    /// holds the bit [`BoomerangLayer::execute`] leaves there, and no
    /// other byte has changed. `row` and `next` are reusable ping-pong
    /// row buffers, grown and never shrunk, whose contents on entry are
    /// irrelevant.
    ///
    /// The zero slot the layer was lowered with must hold 0.
    pub fn execute_into(&self, state: &mut ByteState, row: &mut Vec<u64>, next: &mut Vec<u64>) {
        let state = &mut *state.0;
        let leaves = self.gathered().chunks_exact(WORD_LEAVES);
        let mut words = leaves.len();
        if row.len() < words {
            row.resize(words, 0);
        }
        for (d, leaves) in row.iter_mut().zip(leaves) {
            // Four shift chains of 16 leaves, advanced side by side: one
            // chain of 64 would run at the latency of its shift-or, four
            // in turn at the throughput of the loads — two a leaf, the
            // table entry and the byte it names, neither checked: a
            // `u16` cannot index past a `[u8; 1 << 16]`.
            let mut acc = [0u64; 4];
            for i in (0..WORD_LEAVES / 4).rev() {
                for (quarter, acc) in acc.iter_mut().enumerate() {
                    let p = leaves[quarter * (WORD_LEAVES / 4) + i];
                    *acc = (*acc << 1) | u64::from(state[usize::from(p)]);
                }
            }
            *d = acc[0] | acc[1] << 16 | acc[2] << 32 | acc[3] << 48;
        }
        for f in &self.folds[..self.live_levels] {
            let out = words.div_ceil(2);
            // Every word read below is written first; the length is at
            // least the view's so that a `u8` cannot index past it.
            let len = out.max(VIEW_WORDS);
            if next.len() < len {
                next.resize(len, 0);
            }
            let (src, consts) = (&row[..words], &f.consts[..words]);
            let pairs = src.chunks_exact(2).zip(consts.chunks_exact(2));
            for (d, (w, c)) in next.iter_mut().zip(pairs) {
                *d = compress_pair(fold_word(w[0], c[0]), fold_word(w[1], c[1]));
            }
            if words % 2 == 1 {
                // The last word of a liveness-truncated row (or the only
                // word of a narrow one) has no partner: its upper half
                // folds to dead slots.
                next[out - 1] = compress_pair(fold_word(src[words - 1], consts[words - 1]), 0);
            }
            let view: &[u64; VIEW_WORDS] = next.first_chunk().expect("grown above");
            for wb in f.writeback.iter() {
                let bit = view[usize::from(wb.word)] >> wb.shift;
                state[usize::from(wb.addr)] = u8::from(bit & 1 == 1);
            }
            std::mem::swap(row, next);
            words = out;
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::dense::{DenseFolds, DenseLayer};
    use crate::testutil::{for_each_spec_layer, random_layer, xorshift};

    /// [`PackedLayer::lower`] on the dense reference layout
    /// (`crate::dense`), as it was written against it.
    pub(crate) fn lower_dense(layer: &DenseLayer, zero_slot: u32) -> Option<PackedLayer> {
        let zero = u16::try_from(zero_slot).ok()?;
        let addr = |a: u16| (a < zero).then_some(a);
        let mut perm = layer
            .perm
            .iter()
            .map(|s| match s {
                PermSource::State(a) => addr(*a),
                PermSource::ConstFalse => Some(zero),
            })
            .collect::<Option<Vec<u16>>>()?;
        perm.resize(perm.len().next_multiple_of(WORD_LEAVES), zero);
        let mut last_leaf = None;
        let mut live_levels = 0;
        let mut folds = Vec::with_capacity(layer.folds.len());
        for (k, (fc, wb)) in layer.folds.iter().zip(&layer.writeback).enumerate() {
            let mut writeback = Vec::new();
            for (j, target) in wb.iter().enumerate() {
                let Some(target) = *target else { continue };
                writeback.push(Writeback {
                    word: u8::try_from(j / WORD_LEAVES).ok()?,
                    shift: u8::try_from(j % WORD_LEAVES).ok()?,
                    addr: addr(target)?,
                });
                live_levels = k + 1;
                // The right-most leaf this slot's value depends on: at
                // each level below, operand B unless it is bypassed.
                let leaf = layer.folds[..=k]
                    .iter()
                    .rev()
                    .fold(j, |slot, below| 2 * slot + usize::from(!below.ob[slot]));
                last_leaf = last_leaf.max(Some(leaf));
            }
            folds.push(PackedFold {
                consts: deposit_dense(fc),
                writeback: writeback.into(),
            });
        }
        Some(PackedLayer {
            width: layer.width,
            zero,
            perm: perm.into(),
            folds: folds.into(),
            live_words: last_leaf.map_or(0, |leaf| leaf / WORD_LEAVES + 1),
            live_levels,
        })
    }

    /// Deposits a level's per-slot constants on the even bits of its input
    /// row's words.
    fn deposit_dense(fc: &DenseFolds) -> Box<[[u64; 3]]> {
        let mut words = vec![[0u64; 3]; fc.xa.len().div_ceil(WORD_SLOTS)];
        for (j, consts) in fc.xa.iter().zip(&fc.xb).zip(&fc.ob).enumerate() {
            let ((xa, xb), ob) = consts;
            let shift = 2 * (j % WORD_SLOTS);
            let w = &mut words[j / WORD_SLOTS];
            w[0] |= u64::from(*xa) << shift;
            w[1] |= u64::from(*xb) << shift;
            w[2] |= u64::from(*ob) << shift;
        }
        words.into()
    }

    /// A state of random bits over the whole array, the zero slot clear.
    fn random_state(x: &mut u64, zero: u32) -> ByteState {
        let mut state = ByteState::default();
        for bytes in state.0.chunks_exact_mut(8) {
            bytes.copy_from_slice(&(xorshift(x) & 0x0101_0101_0101_0101).to_le_bytes());
        }
        state.0[zero as usize] = 0;
        state
    }

    /// Runs `layer` packed and as the scalar spec from one random state
    /// and compares all 64 KiB of it: every writeback target holds the
    /// spec's bit, and every other byte — beyond the zero slot too — is
    /// unchanged, so every byte is still 0 or 1. Returns the lowered
    /// layer.
    fn check_against_spec(layer: &BoomerangLayer, x: &mut u64, what: &str) -> PackedLayer {
        let zero = layer.width();
        let packed = PackedLayer::lower(layer, zero).expect("addresses are below the width");
        let mut got = random_state(x, zero);
        let before = got.0.clone();
        let mut want: Vec<bool> = before[..zero as usize].iter().map(|&b| b == 1).collect();
        layer.execute(&mut want);
        let mut written = vec![false; STATE_ADDRS];
        packed
            .written()
            .for_each(|a| written[usize::from(a)] = true);
        // Stale rows of any length must not matter.
        let (mut row, mut next) = (vec![xorshift(x); 7], vec![xorshift(x); 300]);
        packed.execute_into(&mut got, &mut row, &mut next);
        for (a, (&got, &before)) in got.0.iter().zip(before.iter()).enumerate() {
            if written[a] {
                assert_eq!(got, u8::from(want[a]), "{what}: written state {a}");
            } else {
                assert_eq!(got, before, "{what}: state {a} was not a writeback target");
            }
        }
        packed
    }

    /// The packed executor against [`BoomerangLayer::execute`] on random
    /// layers of every width the ISA allows a core, from writeback-dense
    /// (every address aliased many times over) to a handful of
    /// writebacks (so most of the row is dead and truncated) to none.
    #[test]
    fn packed_layer_matches_scalar_spec() {
        for_each_spec_layer(&mut 0x9ACC_ED00, |layer, x, what| {
            let packed = check_against_spec(layer, x, what);
            let writes = layer.writeback_count();
            assert_eq!(packed.written().count(), writes, "{what}");
            assert_eq!(writes == 0, packed.gathered().is_empty(), "{what}");
        });
    }

    /// A value riding up operand A through bypasses, next to a B sibling
    /// that holds an unrelated gate with its own writeback: the bypass
    /// makes the sibling dead *to the rider*, its writeback keeps it
    /// alive, and the gather must reach its leaves.
    #[test]
    fn bypassed_sibling_with_its_own_writeback_stays_live() {
        let mut x = 0xB1_5EEDu64;
        for sibling_writes in [false, true] {
            let mut layer = BoomerangLayer::new(256);
            layer.set_perm(0, PermSource::State(0));
            layer.set_perm(128, PermSource::State(1));
            layer.set_perm(192, PermSource::State(2));
            // Leaves 0, 128 and 192 ride up their A operands...
            for k in 0..layer.fold_levels() {
                for leaf in [0usize, 128, 192] {
                    if (leaf >> (k + 1)) << (k + 1) == leaf {
                        layer.set_const(k, Plane::Ob, leaf >> (k + 1), true);
                    }
                }
            }
            // ...until level 7 slot 1 ANDs 128 and 192 together,
            layer.set_const(6, Plane::Ob, 1, false);
            if sibling_writes {
                layer.set_writeback(6, 1, Some(3));
            }
            // and level 8 passes leaf 0 by it.
            layer.set_writeback(7, 0, Some(4));
            let packed = check_against_spec(&layer, &mut x, "rider");
            let words = if sibling_writes { 4 } else { 1 };
            assert_eq!(packed.gathered().len(), words * WORD_LEAVES);
        }
    }

    /// A layer with no writeback is skipped whole: nothing is gathered,
    /// no row is touched.
    #[test]
    fn layer_without_writeback_is_skipped() {
        let mut x = 5u64;
        let layer = random_layer(&mut x, 128, 128, 2, 0);
        let packed = PackedLayer::lower(&layer, 128).expect("lowers");
        assert!(packed.gathered().is_empty());
        assert_eq!(packed.written().count(), 0);
        let mut state = random_state(&mut x, 128);
        let before = state.0.clone();
        let (mut row, mut next) = (vec![1, 2, 3], vec![4, 5]);
        packed.execute_into(&mut state, &mut row, &mut next);
        assert!(state.0 == before);
        assert_eq!((row, next), (vec![1, 2, 3], vec![4, 5]));
    }

    /// Widening loses nothing — not the dead levels, not the constants
    /// of dead slots: it is the lane-word lowering of the same layer.
    #[test]
    fn widening_equals_the_lane_word_lowering() {
        let mut x = 0x71DEu64;
        for (width, write_in) in [(2u32, 1u64), (8, 2), (64, 0), (128, 40), (1024, 3000)] {
            let layer = random_layer(&mut x, width, width, 3, write_in);
            let mut want = CompiledLayer::lower(&layer);
            want.redirect_consts(width);
            let packed = PackedLayer::lower(&layer, width).expect("lowers");
            assert_eq!(packed.widen(), want, "width {width}");
        }
    }

    /// The lane-word form costs bytes, not words: over the widths cores
    /// have, what `widen()` allocates (gather table, operand pairs,
    /// constant planes, writeback lists) stays below 1.8 × what the
    /// packed layer it came from holds — 1.68–1.78 × here with one slot
    /// in two written, 0.28–0.82 × with one in sixteen, and 1.3 × over
    /// OpenPiton8, where one mask word per constant made it 7.6 ×.
    #[test]
    fn widened_layer_stays_below_1_8_times_the_packed_bytes() {
        use std::mem::size_of_val;
        let mut x = 0xB17E5u64;
        for log in 8..=13u32 {
            let width = 1u32 << log;
            for write_in in [2, 16, 0] {
                let layer = random_layer(&mut x, width, width, 3, write_in);
                let packed = PackedLayer::lower(&layer, width).expect("lowers");
                let packed_bytes = size_of_val(&*packed.perm)
                    + packed.folds.iter().fold(0, |n, f| {
                        n + size_of_val(&*f.consts) + size_of_val(&*f.writeback)
                    });
                let wide = packed.widen();
                let wide_bytes = size_of_val(&*wide.perm)
                    + wide.folds.iter().fold(0, |n, f| {
                        n + size_of_val(&*f.operands)
                            + size_of_val(&*f.xa)
                            + size_of_val(&*f.xb)
                            + size_of_val(&*f.writeback)
                    });
                assert!(
                    5 * wide_bytes < 9 * packed_bytes,
                    "width {width}, 1 in {write_in} written: {wide_bytes} B lane-word \
                     against {packed_bytes} B packed"
                );
            }
        }
    }

    /// Out-of-contract layers are refused, not lowered: the zero slot is
    /// never a gather source by address or a writeback target, and
    /// nothing is addressed beyond it.
    #[test]
    fn addresses_at_or_past_the_zero_slot_are_refused() {
        let mut layer = BoomerangLayer::new(4);
        assert!(PackedLayer::lower(&layer, 4).is_some());
        assert!(PackedLayer::lower(&layer, 1 << 16).is_none(), "zero slot");
        layer.set_perm(3, PermSource::State(4));
        assert!(PackedLayer::lower(&layer, 4).is_none(), "gather");
        assert!(PackedLayer::lower(&layer, 5).is_some());
        layer.set_writeback(1, 0, Some(5));
        assert!(PackedLayer::lower(&layer, 5).is_none(), "writeback");
        assert!(PackedLayer::lower(&layer, 6).is_some());
    }

    /// Every table states its range: what a `u16` address or a `u8` row
    /// word cannot name is refused at lowering, not assumed away — a
    /// layer of twice the ISA's widest core lowers only while nothing
    /// writes back from beyond row word 255 of its first level.
    #[test]
    fn a_layer_its_tables_cannot_hold_is_refused() {
        let mut layer = BoomerangLayer::new(1 << 16);
        assert!(PackedLayer::lower(&layer, 1 << 16).is_none(), "zero slot");
        let zero = u32::from(u16::MAX);
        assert!(PackedLayer::lower(&layer, zero).is_some());
        layer.set_writeback(0, VIEW_WORDS * WORD_LEAVES - 1, Some(0));
        assert!(PackedLayer::lower(&layer, zero).is_some(), "row word 255");
        layer.set_writeback(0, VIEW_WORDS * WORD_LEAVES, Some(0));
        assert!(PackedLayer::lower(&layer, zero).is_none(), "row word 256");
        layer.set_writeback(0, VIEW_WORDS * WORD_LEAVES, None);
        layer.set_writeback(1, VIEW_WORDS * WORD_LEAVES - 1, Some(0));
        assert!(PackedLayer::lower(&layer, zero).is_some(), "second level");
    }

    /// The widest core the ISA encodes fills the tables exactly: its
    /// first level is 256 row words, and a writeback in the last slot of
    /// the last of them executes and matches the spec.
    #[test]
    fn widest_core_writes_back_from_its_last_first_level_slot() {
        let mut x = 0x8000u64;
        let width = 1u32 << 15;
        let mut layer = random_layer(&mut x, width, width, 3, 64);
        let last = layer.fold(0).slots() - 1;
        assert_eq!(last, VIEW_WORDS * WORD_LEAVES - 1);
        layer.set_writeback(0, last, Some(7));
        let packed = check_against_spec(&layer, &mut x, "width 32768");
        assert_eq!(packed.gathered().len(), width as usize);
        let wb = *packed.folds[0].writeback.last().expect("written");
        assert_eq!((wb.word, wb.shift), (u8::MAX, 63));
    }

    #[test]
    fn compress_pair_keeps_even_bits_in_order() {
        let mut x = 0xE4E2u64;
        for _ in 0..64 {
            let (lo, hi) = (xorshift(&mut x), xorshift(&mut x));
            let want = (0..64).fold(0u64, |acc, i| {
                let src = if i < 32 { lo } else { hi };
                acc | ((src >> (2 * (i % 32))) & 1) << i
            });
            assert_eq!(compress_pair(lo, hi), want);
        }
    }
}
