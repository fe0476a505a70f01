//! Threaded-code lowering of boomerang layers: the program form the
//! virtual GPU executes with more than one lane (DESIGN.md §7).
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
//!   ([`PERM_CONST`] marks constant-zero slots until
//!   [`CompiledLayer::redirect_consts`] points them at a zero word, which
//!   it must before the layer runs),
//! * fold constants become three byte planes, one `0` / `−1` byte per
//!   slot, widened to a lane mask by sign extension as they are loaded —
//!   3 B of constants a slot, so a design's masks stay cache-resident
//!   where one pre-splatted [`Word`] each (24 B a slot) streamed from
//!   memory every cycle,
//! * the writeback plan becomes a sparse `(slot, addr)` list — only
//!   slots that actually write are visited,
//! * the gather is fused into the first fold level (each leaf pair is
//!   loaded and folded in one pass; the gathered row is never stored),
//!   and the remaining levels run over two caller-provided ping-pong row
//!   buffers (each level reads adjacent pairs from one, writes disjoint
//!   slots of the other) — zero allocations per layer per cycle.
//!
//! The lowering is a pure data transformation: no semantic choice is
//! made here, so equivalence with the scalar spec reduces to the
//! mechanical claims above, which the unit tests below check per lane
//! and `gem-sim`'s differential fuzz suite and the golden VCD corpus
//! check end to end.

use crate::layer::{BoomerangLayer, PermSource, Word};

/// Sentinel in [`CompiledLayer::perm`] for a constant-zero row slot
/// (lowered from [`PermSource::ConstFalse`]). It is no state address:
/// [`CompiledLayer::redirect_consts`] replaces it before execution.
pub const PERM_CONST: u32 = u32::MAX;

/// A fold constant as the byte the planes of [`FoldOp`] hold: `0` for
/// `false`, `−1` for `true`.
#[inline]
pub(crate) fn mask_byte(v: bool) -> i8 {
    -i8::from(v)
}

/// One fold slot on lane words: `(a ^ xa) & ((b ^ xb) | ob)` with each
/// constant byte sign-extended to a full lane mask.
#[inline]
fn fold(a: Word, b: Word, xa: i8, xb: i8, ob: i8) -> Word {
    let lanes = |m: i8| m as i64 as Word;
    (a ^ lanes(xa)) & ((b ^ lanes(xb)) | lanes(ob))
}

/// The first `slots` words of `buf`, grown if it is shorter. Grow-only:
/// the caller overwrites every slot it later reads, so stale contents
/// are harmless and the memset of a `clear` + `resize` would be pure
/// waste.
#[inline]
fn grown(buf: &mut Vec<Word>, slots: usize) -> &mut [Word] {
    if buf.len() < slots {
        buf.resize(slots, 0);
    }
    &mut buf[..slots]
}

/// One fold level, fully resolved: the constant planes and the sparse
/// write-back list. A plane holds one byte per slot, `0` or `−1`
/// (all-ones), which the executor sign-extends to a lane [`Word`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FoldOp {
    /// XOR mask on operand A, one byte per slot.
    pub xa: Box<[i8]>,
    /// XOR mask on operand B.
    pub xb: Box<[i8]>,
    /// OR mask on operand B after the XOR (`−1` bypasses B).
    pub ob: Box<[i8]>,
    /// `(slot, state address)` pairs that write back, in slot order
    /// (matching the scalar spec's within-level write order).
    pub writeback: Box<[(u32, u32)]>,
}

impl FoldOp {
    /// `(xa, xb, ob)` of every slot, in slot order.
    #[inline]
    fn consts(&self) -> impl Iterator<Item = (i8, i8, i8)> + '_ {
        let slots = self.xa.len();
        let planes = self.xa.iter().zip(&self.xb[..slots]).zip(&self.ob[..slots]);
        planes.map(|((&xa, &xb), &ob)| (xa, xb, ob))
    }

    /// Stores the level's writing slots of `row` to their state words.
    #[inline]
    fn write_back(&self, row: &[Word], state: &mut [Word]) {
        for &(slot, addr) in self.writeback.iter() {
            state[addr as usize] = row[slot as usize];
        }
    }
}

/// A [`BoomerangLayer`] lowered to threaded-code form; see the module
/// docs. Produced once per program, executed every cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledLayer {
    /// Row width (power of two).
    pub width: u32,
    /// Gather indices into core state. [`PERM_CONST`] stands for a
    /// constant zero until [`redirect_consts`](Self::redirect_consts)
    /// replaces it with the address of a zero word.
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
        let plane = |bits: &[bool]| bits.iter().map(|&b| mask_byte(b)).collect();
        let folds = layer
            .folds
            .iter()
            .zip(&layer.writeback)
            .map(|(fc, wb)| FoldOp {
                xa: plane(&fc.xa),
                xb: plane(&fc.xb),
                ob: plane(&fc.ob),
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
    /// width). Required before [`execute_words_into`]: the gather is a
    /// plain indexed load with no compare against the sentinel, so every
    /// constant leaf reads the same hot word and a layer still holding
    /// the sentinel fails the bounds check like any other address
    /// outside the state.
    ///
    /// [`execute_words_into`]: Self::execute_words_into
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
    /// `row` and `next` as reusable ping-pong fold buffers (grown as
    /// needed, contents on entry irrelevant; their capacity is retained
    /// across calls so steady-state execution allocates nothing). Lane
    /// `k` of the result equals [`BoomerangLayer::execute`] run on lane
    /// `k` of the input, for the layer this was lowered from.
    ///
    /// The first level folds each leaf pair as it is gathered, so the
    /// `width`-word gathered row is never written and read back; its
    /// writebacks land after the whole pass, because the spec gathers
    /// every leaf before any fold output reaches the state. Each later
    /// level reads adjacent pairs from `row` and writes disjoint slots
    /// of `next`: a zip over `chunks_exact(2)` with no index-checked
    /// access per slot.
    ///
    /// # Panics
    ///
    /// Panics if a gather or writeback address is outside `state` —
    /// which includes a constant leaf that was not
    /// [redirected](Self::redirect_consts).
    pub fn execute_words_into(
        &self,
        state: &mut [Word],
        row: &mut Vec<Word>,
        next: &mut Vec<Word>,
    ) {
        let Some((first, rest)) = self.folds.split_first() else {
            return;
        };
        let slots = first.xa.len();
        let dst = grown(row, slots);
        let pairs = self.perm[..2 * slots].chunks_exact(2);
        for ((d, p), (xa, xb, ob)) in dst.iter_mut().zip(pairs).zip(first.consts()) {
            *d = fold(state[p[0] as usize], state[p[1] as usize], xa, xb, ob);
        }
        first.write_back(dst, state);
        for f in rest {
            let slots = f.xa.len();
            let dst = grown(next, slots);
            let pairs = row[..2 * slots].chunks_exact(2);
            for ((d, w), (xa, xb, ob)) in dst.iter_mut().zip(pairs).zip(f.consts()) {
                *d = fold(w[0], w[1], xa, xb, ob);
            }
            f.write_back(dst, state);
            std::mem::swap(row, next);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::splat;
    use crate::testutil::{for_each_spec_layer, random_layer, xorshift};
    use std::mem::size_of_val;

    /// Unpacks one lane of a word vector into the scalar spec's state.
    fn lane_of(words: &[Word], lane: u32) -> Vec<bool> {
        words.iter().map(|&w| (w >> lane) & 1 == 1).collect()
    }

    /// Lowers `layer` with its constants redirected to a zero word one
    /// past `addrs` state words, as the machine does one past the core
    /// width.
    fn lower_redirected(layer: &BoomerangLayer, addrs: usize) -> CompiledLayer {
        let mut comp = CompiledLayer::lower(layer);
        comp.redirect_consts(addrs as u32);
        comp
    }

    /// `addrs` words of independent noise in all 64 lanes, then the zero
    /// word the constants are redirected to.
    fn noisy_state(x: &mut u64, addrs: usize) -> Vec<Word> {
        (0..addrs).map(|_| xorshift(x)).chain([0]).collect()
    }

    /// Executes `comp` on `before` and holds every one of the 64 lanes of
    /// every state word — the zero word included — to the scalar spec run
    /// on that lane alone.
    fn check_every_lane(
        layer: &BoomerangLayer,
        comp: &CompiledLayer,
        before: &[Word],
        row: &mut Vec<Word>,
        next: &mut Vec<Word>,
        what: &str,
    ) {
        let mut got = before.to_vec();
        comp.execute_words_into(&mut got, row, next);
        for lane in 0..Word::BITS {
            let mut want = lane_of(before, lane);
            layer.execute(&mut want);
            assert_eq!(lane_of(&got, lane), want, "{what}: lane {lane} diverged");
        }
    }

    /// Every one of the 64 lanes of the lowered executor must equal the
    /// scalar spec run on that lane alone, on random layers of every
    /// width the ISA allows a core — including the state left behind by
    /// aliasing writebacks — and the ping-pong buffers must be reusable
    /// across layers of different widths without cross-talk.
    #[test]
    fn compiled_layer_matches_scalar_spec_per_lane() {
        let (mut row, mut next) = (Vec::new(), Vec::new());
        for_each_spec_layer(&mut 0xC0DE, |layer, x, what| {
            let addrs = layer.width as usize;
            let comp = lower_redirected(layer, addrs);
            let before = noisy_state(x, addrs);
            check_every_lane(layer, &comp, &before, &mut row, &mut next, what);
        });
    }

    /// The spec gathers the whole row before any fold: a first-level
    /// writeback whose target a *later* leaf pair of the same layer
    /// gathers must not be seen by that leaf. Fails on a kernel that
    /// writes back inside its fused gather-and-fold pass.
    #[test]
    fn first_level_writeback_is_not_seen_by_a_later_leaf() {
        let mut layer = BoomerangLayer::new(8);
        layer.perm[0] = PermSource::State(0);
        layer.perm[1] = PermSource::State(1);
        layer.writeback[0][0] = Some(2); // slot 0 = s0 & s1 → s2 ...
        layer.perm[6] = PermSource::State(2); // ... which leaf 6 gathers
        layer.folds[0].ob[3] = true;
        layer.writeback[0][3] = Some(3); // and passes through to s3.
        let comp = lower_redirected(&layer, 4);
        let (mut row, mut next) = (Vec::new(), Vec::new());
        let mut x = 0xF05Eu64;
        for _ in 0..8 {
            let before = noisy_state(&mut x, 4);
            let mut got = before.clone();
            comp.execute_words_into(&mut got, &mut row, &mut next);
            assert_eq!(got[2], before[0] & before[1]);
            assert_eq!(got[3], before[2], "leaf 6 must read the old s2");
            check_every_lane(&layer, &comp, &before, &mut row, &mut next, "later leaf");
        }
    }

    /// Width 2: the fused level is the only level. Its writeback lands
    /// and the buffers it leaves serve a wider layer next.
    #[test]
    fn single_level_layer_writes_back_and_leaves_buffers_reusable() {
        let mut narrow = BoomerangLayer::new(2);
        narrow.perm = vec![PermSource::State(0), PermSource::State(1)];
        narrow.folds[0].xb[0] = true;
        narrow.writeback[0][0] = Some(2); // s2 = s0 & !s1
        let comp = lower_redirected(&narrow, 3);
        let (mut row, mut next) = (Vec::new(), Vec::new());
        let mut x = 0x2_2u64;
        let mut state = noisy_state(&mut x, 3);
        let (a, b) = (state[0], state[1]);
        comp.execute_words_into(&mut state, &mut row, &mut next);
        assert_eq!(state, [a, b, a & !b, 0]);
        let wide = random_layer(&mut x, 64, 64, 3, 2);
        let before = noisy_state(&mut x, 64);
        let comp = lower_redirected(&wide, 64);
        check_every_lane(&wide, &comp, &before, &mut row, &mut next, "after width 2");
    }

    /// The caller's `row` / `next` arrive with any length and content —
    /// the harness and the machine pass one pair across hundreds of
    /// layers of different cores — and none of it may show.
    #[test]
    fn stale_row_buffers_of_any_length_do_not_matter() {
        let mut x = 0x57A1Eu64;
        for width in [2u32, 8, 64, 512] {
            let layer = random_layer(&mut x, width, width, 3, 2);
            let comp = lower_redirected(&layer, width as usize);
            let before = noisy_state(&mut x, width as usize);
            for (row_len, next_len) in [(0, 0), (1, 3), (3, 1), (5000, 0), (0, 5000), (700, 900)] {
                let mut row = vec![xorshift(&mut x); row_len];
                let mut next = vec![xorshift(&mut x); next_len];
                let what = format!("width {width}, stale rows of {row_len} and {next_len}");
                check_every_lane(&layer, &comp, &before, &mut row, &mut next, &what);
            }
        }
    }

    /// `folds` is a public field and a layer without a level can be built
    /// by hand (the decoder refuses `width < 2`): it executes as a no-op,
    /// it does not index a first level that is not there.
    #[test]
    fn layer_without_a_fold_level_is_a_no_op() {
        let comp = CompiledLayer {
            width: 1,
            perm: Box::new([0]),
            folds: Box::new([]),
        };
        let mut state = vec![0xDEAD_BEEF_DEAD_BEEF; 2];
        let (mut row, mut next) = (vec![1, 2, 3], vec![4]);
        comp.execute_words_into(&mut state, &mut row, &mut next);
        assert_eq!(state, vec![0xDEAD_BEEF_DEAD_BEEF; 2]);
    }

    /// Redirection is a precondition of execution: a constant leaf left
    /// as [`PERM_CONST`] is an address outside the state and fails its
    /// bounds check; it never reads some other word.
    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn unredirected_constant_leaf_panics() {
        let mut layer = BoomerangLayer::new(2);
        layer.perm[0] = PermSource::State(0);
        let comp = CompiledLayer::lower(&layer);
        assert_eq!(comp.perm[1], PERM_CONST);
        comp.execute_words_into(&mut [0, 0], &mut Vec::new(), &mut Vec::new());
    }

    /// The planes are built from nothing but [`mask_byte`], and the
    /// executor widens them by sign extension: together they must equal
    /// `splat`, which in turn equals poking the constant into each of the
    /// 64 lanes individually.
    #[test]
    fn splat_equals_per_lane_poke() {
        for v in [false, true] {
            let poked = (0..Word::BITS).fold(0, |w: Word, lane| w | (Word::from(v) << lane));
            assert_eq!(splat(v), poked);
            assert_eq!(mask_byte(v) as i64 as Word, poked);
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
        for _ in 0..16 {
            let layer = random_layer(&mut x, 16, state_size as u32, 2, 2);
            let comp = lower_redirected(&layer, state_size);
            let addr = (xorshift(&mut x) % state_size as u64) as usize;
            let mut a = noisy_state(&mut x, state_size);
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
        let mut state: Vec<Word> = vec![1 << 63, 0, 0];
        lower_redirected(&layer, 2).execute_words_into(&mut state, &mut row, &mut next);
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
        let mut comp = CompiledLayer::lower(&layer);
        assert_eq!(&*comp.perm, &[3, PERM_CONST, 0, 1]);
        assert_eq!(&*comp.folds[0].xa, &[0, -1]);
        assert_eq!(&*comp.folds[0].xb, &[0, 0]);
        assert_eq!(&*comp.folds[0].ob, &[-1, 0]);
        assert_eq!(&*comp.folds[0].writeback, &[(1, 2)]);
        assert_eq!(&*comp.folds[1].writeback, &[(0, 3)]);
        comp.redirect_consts(4);
        assert_eq!(&*comp.perm, &[3, 4, 0, 1]);
    }

    /// The fold constants cost a byte a slot: each of the three planes of
    /// level `k` of a `w`-wide layer is `w >> (k + 1)` bytes. One mask
    /// word per slot is 8× that — 10 MiB of RSS and half the 64-lane
    /// speed on OpenPiton8, which only a ladder run would otherwise show.
    #[test]
    fn fold_constants_are_one_byte_a_slot() {
        let mut x = 0xB17Eu64;
        for width in [2u32, 64, 2048, 8192] {
            let comp = CompiledLayer::lower(&random_layer(&mut x, width, width, 3, 16));
            assert_eq!(comp.folds.len(), width.trailing_zeros() as usize);
            for (k, f) in comp.folds.iter().enumerate() {
                let slots = (width >> (k + 1)) as usize;
                for plane in [&f.xa, &f.xb, &f.ob] {
                    assert_eq!(size_of_val(&**plane), slots, "width {width} level {k}");
                }
            }
        }
    }

    /// The lowered op counts are the cost model's layer charges — of the
    /// packed form too, whatever its liveness analysis lets the host
    /// skip (here: nothing, the levels above the one writeback left, and
    /// the whole layer): that is not the GPU's saving.
    #[test]
    fn op_counts_match_cost_model() {
        for width in [2u32, 8, 64, 256] {
            let mut layer = random_layer(&mut u64::from(width), width, 16, 2, 2);
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
        let comp = lower_redirected(&layer, 4);
        let mut state = vec![0xDEAD_BEEF_DEAD_BEEF; 4];
        state.push(0);
        let (mut row, mut next) = (Vec::new(), Vec::new());
        comp.execute_words_into(&mut state, &mut row, &mut next);
        assert_eq!(state[..4], [0xDEAD_BEEF_DEAD_BEEF; 4]);
        assert_eq!(state[4], 0);
    }
}
