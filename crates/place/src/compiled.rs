//! Threaded-code lowering of boomerang layers: the program form the
//! virtual GPU executes (DESIGN.md §7).
//!
//! [`BoomerangLayer`] is the *authoritative* program representation: an
//! enum-tagged permutation, per-slot `bool` fold constants, and a dense
//! `Option` writeback plan. Its scalar executor
//! ([`BoomerangLayer::execute`]) is the executable spec, but walking
//! those tags every cycle costs an enum match per gathered bit, a
//! `bool → Word` splat per fold operand, and an `Option` test per fold
//! slot, millions of times per simulated second.
//!
//! [`CompiledLayer::lower`] resolves all of it **once**:
//!
//! * the permutation becomes a flat `u32` index array
//!   ([`PERM_CONST`] marks constant-zero slots),
//! * fold constants become pre-splatted lane mask words (one machine
//!   [`Word`] per slot), so the inner loop is three bitwise ops on
//!   `Word`s with no branches,
//! * the writeback plan becomes a sparse `(slot, addr)` list — only
//!   slots that actually write are visited,
//! * the fold pyramid runs over two caller-provided ping-pong row
//!   buffers (each level reads adjacent pairs from one, writes disjoint
//!   slots of the other, so the inner loop is a bounds-check-free,
//!   vectorizable zip) — zero allocations per layer per cycle.
//!
//! The lowering is a pure data transformation: no semantic choice is
//! made here, so equivalence with the scalar spec reduces to the
//! mechanical claims above, which the unit tests below check per lane
//! and `gem-sim`'s differential fuzz suite and the golden VCD corpus
//! check end to end.

use crate::layer::{splat, BoomerangLayer, PermSource, Word};

/// Sentinel in [`CompiledLayer::perm`] for a constant-zero row slot
/// (lowered from [`PermSource::ConstFalse`]).
pub const PERM_CONST: u32 = u32::MAX;

/// One fold level, fully resolved: pre-splatted constant masks and the
/// sparse write-back list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FoldOp {
    /// XOR mask on operand A, one lane word per slot.
    pub xa: Box<[Word]>,
    /// XOR mask on operand B.
    pub xb: Box<[Word]>,
    /// OR mask on operand B after the XOR (`Word::MAX` bypasses B).
    pub ob: Box<[Word]>,
    /// `(slot, state address)` pairs that write back, in slot order
    /// (matching the scalar spec's within-level write order).
    pub writeback: Box<[(u32, u32)]>,
}

/// A [`BoomerangLayer`] lowered to threaded-code form; see the module
/// docs. Produced once at bitstream load, executed every cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledLayer {
    /// Row width (power of two).
    pub width: u32,
    /// Gather indices into core state; [`PERM_CONST`] loads zero.
    pub perm: Box<[u32]>,
    /// Fold levels, widest first.
    pub folds: Box<[FoldOp]>,
}

impl CompiledLayer {
    /// Lowers a layer. Pure and total: lowering copies addresses, it
    /// never follows one. Holding them inside the state the executor
    /// is given is the caller's business (`GemGpu::load` refuses what
    /// [`PackedLayer::lower`](crate::PackedLayer::lower) refuses).
    pub fn lower(layer: &BoomerangLayer) -> CompiledLayer {
        let perm = layer
            .perm
            .iter()
            .map(|s| match s {
                PermSource::State(a) => u32::from(*a),
                PermSource::ConstFalse => PERM_CONST,
            })
            .collect();
        let folds = layer
            .folds
            .iter()
            .zip(&layer.writeback)
            .map(|(fc, wb)| FoldOp {
                xa: fc.xa.iter().map(|&b| splat(b)).collect(),
                xb: fc.xb.iter().map(|&b| splat(b)).collect(),
                ob: fc.ob.iter().map(|&b| splat(b)).collect(),
                writeback: wb
                    .iter()
                    .enumerate()
                    .filter_map(|(j, s)| s.map(|addr| (j as u32, u32::from(addr))))
                    .collect(),
            })
            .collect();
        CompiledLayer {
            width: layer.width,
            perm,
            folds,
        }
    }

    /// Rewrites constant-zero gather slots ([`PERM_CONST`]) to load from
    /// `zero_slot` instead — a real state address the caller guarantees
    /// holds zero (the virtual GPU appends one slot past the core
    /// width). The sentinel compare in the gather then
    /// never fires, and every padding slot loads the same hot cache
    /// line instead of taking the branch.
    pub fn redirect_consts(&mut self, zero_slot: u32) {
        for p in self.perm.iter_mut() {
            if *p == PERM_CONST {
                *p = zero_slot;
            }
        }
    }

    /// Number of fold levels.
    pub fn fold_levels(&self) -> usize {
        self.folds.len()
    }

    /// Shared-memory accesses one execution performs — must reconcile
    /// with the cost model `gem-vgpu` charges per layer
    /// (gather + fold reads = `2 × width`).
    pub fn shared_accesses(&self) -> u64 {
        2 * u64::from(self.width)
    }

    /// Fold ALU operations one execution performs (`width − 1` slots in
    /// the full pyramid).
    pub fn alu_ops(&self) -> u64 {
        self.folds.iter().map(|f| f.xa.len() as u64).sum()
    }

    /// Block-level synchronizations one execution implies (one per fold
    /// level plus the gather barrier).
    pub fn block_syncs(&self) -> u64 {
        1 + self.folds.len() as u64
    }

    /// Executes the lowered layer lane-wise against `state`, using
    /// `row` and `next` as reusable ping-pong fold buffers (cleared and
    /// refilled; their capacity is retained across calls so steady-state
    /// execution allocates nothing). Lane `k` of the result equals
    /// [`BoomerangLayer::execute`] run on lane `k` of the input, for
    /// the layer this was lowered from.
    ///
    /// The two-buffer shape is deliberate: each level reads adjacent
    /// pairs from `row` and writes disjoint slots of `next`, so the
    /// inner loop is expressible as a zip over `chunks_exact(2)` —
    /// bounds-check-free and auto-vectorizable — instead of five
    /// index-checked accesses per slot.
    pub fn execute_words_into(
        &self,
        state: &mut [Word],
        row: &mut Vec<Word>,
        next: &mut Vec<Word>,
    ) {
        row.clear();
        row.extend(self.perm.iter().map(|&p| {
            if p == PERM_CONST {
                0
            } else {
                state[p as usize]
            }
        }));
        for f in self.folds.iter() {
            let slots = f.xa.len();
            // Grow-only: every slot is overwritten below, so stale
            // contents are harmless and the per-level memset of a
            // `resize` would be pure waste.
            if next.len() < slots {
                next.resize(slots, 0);
            }
            let dst = &mut next[..slots];
            let src = &row[..2 * slots];
            for ((d, pair), ((xa, xb), ob)) in dst
                .iter_mut()
                .zip(src.chunks_exact(2))
                .zip(f.xa.iter().zip(f.xb.iter()).zip(f.ob.iter()))
            {
                *d = (pair[0] ^ xa) & ((pair[1] ^ xb) | ob);
            }
            for &(slot, addr) in f.writeback.iter() {
                state[addr as usize] = dst[slot as usize];
            }
            std::mem::swap(row, next);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::xorshift;

    fn random_layer(seed: u64, width: u32, state_size: usize) -> BoomerangLayer {
        let mut x = seed;
        let mut layer = BoomerangLayer::new(width);
        for p in layer.perm.iter_mut() {
            *p = if xorshift(&mut x).is_multiple_of(4) {
                PermSource::ConstFalse
            } else {
                PermSource::State((xorshift(&mut x) % state_size as u64) as u16)
            };
        }
        for fc in layer.folds.iter_mut() {
            for j in 0..fc.xa.len() {
                fc.xa[j] = xorshift(&mut x) & 1 == 1;
                fc.xb[j] = xorshift(&mut x) & 1 == 1;
                fc.ob[j] = xorshift(&mut x) & 1 == 1;
            }
        }
        for wb in layer.writeback.iter_mut() {
            for slot in wb.iter_mut() {
                if xorshift(&mut x).is_multiple_of(2) {
                    *slot = Some((xorshift(&mut x) % state_size as u64) as u16);
                }
            }
        }
        layer
    }

    /// Unpacks one lane of a word vector into the scalar spec's state.
    fn lane_of(words: &[Word], lane: u32) -> Vec<bool> {
        words.iter().map(|&w| (w >> lane) & 1 == 1).collect()
    }

    /// Every one of the 64 lanes of the lowered executor must equal the
    /// scalar spec run on that lane alone, on randomized layers —
    /// including the state left behind by aliasing writebacks — and the
    /// ping-pong buffers must be reusable across layers without
    /// cross-talk.
    #[test]
    fn compiled_layer_matches_scalar_spec_per_lane() {
        let state_size = 40usize;
        let mut row = Vec::new();
        let mut next = Vec::new();
        for trial in 0..64u64 {
            let width = [2u32, 4, 16, 64][trial as usize % 4];
            let layer = random_layer(0xC0DE ^ trial, width, state_size);
            let comp = CompiledLayer::lower(&layer);
            let mut x = trial.wrapping_mul(0x5851_F42D_4C95_7F2D) + 1;
            let words: Vec<Word> = (0..state_size).map(|_| xorshift(&mut x)).collect();
            let mut got = words.clone();
            comp.execute_words_into(&mut got, &mut row, &mut next);
            for lane in 0..Word::BITS {
                let mut want = lane_of(&words, lane);
                layer.execute(&mut want);
                assert_eq!(
                    lane_of(&got, lane),
                    want,
                    "trial {trial} width {width} lane {lane} diverged"
                );
            }
        }
    }

    /// `splat` must equal poking the constant into each of the 64 lanes
    /// individually — the lowered masks are built from nothing else.
    #[test]
    fn splat_equals_per_lane_poke() {
        for v in [false, true] {
            let poked = (0..Word::BITS).fold(0, |w: Word, lane| w | (Word::from(v) << lane));
            assert_eq!(splat(v), poked);
        }
    }

    /// Lane 63 must actually flow through the lowered fold — guards
    /// against a silent truncation to fewer lanes anywhere in the path —
    /// and must never leak into the lanes below it.
    #[test]
    fn lane_63_is_live_and_confined() {
        let (mut row, mut next) = (Vec::new(), Vec::new());
        let mut x = 0xA11_1A9E5u64;
        let state_size = 16usize;
        for trial in 0..16u64 {
            let comp = CompiledLayer::lower(&random_layer(0x63 ^ trial, 16, state_size));
            let addr = (xorshift(&mut x) % state_size as u64) as usize;
            let mut a: Vec<Word> = (0..state_size).map(|_| xorshift(&mut x)).collect();
            let mut b = a.clone();
            b[addr] ^= 1 << 63;
            comp.execute_words_into(&mut a, &mut row, &mut next);
            comp.execute_words_into(&mut b, &mut row, &mut next);
            for (i, (wa, wb)) in a.iter().zip(&b).enumerate() {
                assert_eq!(
                    (wa ^ wb) & (Word::MAX >> 1),
                    0,
                    "low lanes leaked at state {i}"
                );
            }
        }
        // A pass-through layer (ob bypass) carries lane 63 from the
        // source to the writeback target.
        let mut layer = BoomerangLayer::new(2);
        layer.perm = vec![PermSource::State(0), PermSource::ConstFalse];
        layer.folds[0].ob[0] = true; // B forced 1 → out = A
        layer.writeback[0][0] = Some(1);
        let mut state: Vec<Word> = vec![1 << 63, 0];
        CompiledLayer::lower(&layer).execute_words_into(&mut state, &mut row, &mut next);
        assert_eq!(state[1], 1 << 63, "lane 63 dropped by pass-through fold");
    }

    /// The default core width divides evenly into lane words — the ISA
    /// row shapes don't depend on the word width.
    #[test]
    fn core_width_is_word_aligned() {
        assert_eq!(crate::CORE_WIDTH % Word::BITS, 0);
    }

    #[test]
    fn lowering_resolves_tags_and_masks() {
        let mut layer = BoomerangLayer::new(4);
        layer.perm = vec![
            PermSource::State(3),
            PermSource::ConstFalse,
            PermSource::State(0),
            PermSource::State(1),
        ];
        layer.folds[0].xa[1] = true;
        layer.folds[0].ob[0] = true;
        layer.writeback[0][1] = Some(2);
        layer.writeback[1][0] = Some(3);
        let comp = CompiledLayer::lower(&layer);
        assert_eq!(&*comp.perm, &[3, PERM_CONST, 0, 1]);
        assert_eq!(&*comp.folds[0].xa, &[0, Word::MAX]);
        assert_eq!(&*comp.folds[0].ob, &[Word::MAX, 0]);
        assert_eq!(&*comp.folds[0].writeback, &[(1, 2)]);
        assert_eq!(&*comp.folds[1].writeback, &[(0, 3)]);
    }

    /// The lowered op counts are the cost model's layer charges — of the
    /// packed form too, whatever its liveness analysis lets the host
    /// skip (here: nothing, the levels above the one writeback left, and
    /// the whole layer): that is not the GPU's saving.
    #[test]
    fn op_counts_match_cost_model() {
        for width in [2u32, 8, 64, 256] {
            let mut layer = random_layer(width as u64, width, 16);
            let comp = CompiledLayer::lower(&layer);
            assert_eq!(comp.shared_accesses(), 2 * u64::from(width));
            assert_eq!(comp.alu_ops(), u64::from(width) - 1);
            assert_eq!(comp.block_syncs(), 1 + u64::from(width.trailing_zeros()));
            assert_eq!(comp.fold_levels(), width.trailing_zeros() as usize);
            for keep in [usize::MAX, 1, 0] {
                let mut kept = 0;
                for slot in layer.writeback.iter_mut().flatten() {
                    kept += usize::from(slot.is_some());
                    if kept > keep {
                        *slot = None;
                    }
                }
                let packed = crate::PackedLayer::lower(&layer, 256).expect("lowers");
                assert_eq!(packed.written().count(), kept.min(keep));
                assert_eq!(packed.shared_accesses(), comp.shared_accesses());
                assert_eq!(packed.alu_ops(), comp.alu_ops());
                assert_eq!(packed.block_syncs(), comp.block_syncs());
            }
        }
    }

    /// A neutral layer (all-const perm) still executes: the row is all
    /// zeros and nothing writes back.
    #[test]
    fn constant_layer_is_inert() {
        let layer = BoomerangLayer::new(8);
        let comp = CompiledLayer::lower(&layer);
        let mut state = vec![0xDEAD_BEEF_DEAD_BEEF; 4];
        let (mut row, mut next) = (Vec::new(), Vec::new());
        comp.execute_words_into(&mut state, &mut row, &mut next);
        assert_eq!(state, vec![0xDEAD_BEEF_DEAD_BEEF; 4]);
    }
}
