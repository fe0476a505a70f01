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
//! [`CompiledLayer::lower`] resolves all of it **once**, and keeps only
//! what a writeback can see:
//!
//! * a fold slot is *live* if it writes back or a live slot above it
//!   observes it — operand A always, operand B unless that slot's `ob`
//!   bypasses it. Nothing else can reach the state, so each level stores
//!   its live slots only (36 % of OpenPiton8's first-level slots and
//!   54 % of the levels above are dead), and the levels above the last
//!   writeback are not stored at all,
//! * the permutation becomes a flat `u32` array of the live first-level
//!   slots' leaf pairs ([`PERM_CONST`] marks constant-zero leaves —
//!   including the B leaf of a bypassed slot, so no dead address is ever
//!   loaded — until [`CompiledLayer::redirect_consts`] points them at a
//!   zero word, which it must before the layer runs),
//! * fold constants become three byte planes, one `0` / `−1` byte per
//!   live slot, widened to a lane mask by sign extension as they are
//!   loaded — 3 B of constants a slot, so a design's masks stay
//!   cache-resident where one pre-splatted [`Word`] each (24 B a slot)
//!   streamed from memory every cycle,
//! * the writeback plan becomes a sparse `(slot, addr)` list — only
//!   slots that actually write are visited,
//! * the gather is fused into the first fold level (each live leaf pair
//!   is loaded and folded in one pass; the gathered row is never stored),
//!   and the remaining levels run over two caller-provided ping-pong row
//!   buffers — zero allocations per layer per cycle. Slot `j` of a level
//!   sits at word `j` of its row and reads words `2j` and `2j + 1` of the
//!   row below; a dead slot's word is never written, so it holds whatever
//!   the buffer held, and only a bypassed B reads one, which `| ob` masks.
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
fn mask_byte(v: bool) -> i8 {
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
/// the caller overwrites every slot whose value it uses (a bypassed B
/// reads a stale word, which `| ob` masks), so stale contents are
/// harmless and the memset of a `clear` + `resize` would be pure waste.
#[inline]
fn grown(buf: &mut Vec<Word>, slots: usize) -> &mut [Word] {
    if buf.len() < slots {
        buf.resize(slots, 0);
    }
    &mut buf[..slots]
}

/// The `len` items of `items` in a slice allocated once, at their size.
fn exact<T>(len: usize, items: impl Iterator<Item = T>) -> Box<[T]> {
    let mut v = Vec::with_capacity(len);
    v.extend(items);
    v.into()
}

/// One fold level, fully resolved: its live slots, their constant
/// planes and the sparse write-back list. A plane holds one byte per
/// live slot, `0` or `−1` (all-ones), which the executor sign-extends to
/// a lane [`Word`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FoldOp {
    /// The live slots of the level, ascending.
    pub slots: Box<[u32]>,
    /// XOR mask on operand A, one byte per live slot.
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
    /// Each live slot with its `(xa, xb, ob)`, in slot order.
    #[inline]
    fn live(&self) -> impl Iterator<Item = (usize, (i8, i8, i8))> + '_ {
        let planes = self.xa.iter().zip(&self.xb[..]).zip(&self.ob[..]);
        let consts = planes.map(|((&xa, &xb), &ob)| (xa, xb, ob));
        self.slots.iter().map(|&j| j as usize).zip(consts)
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
    /// Gather indices into core state: the leaf pair of each live
    /// first-level slot, in slot order. [`PERM_CONST`] stands for a
    /// constant zero until [`redirect_consts`](Self::redirect_consts)
    /// replaces it with the address of a zero word.
    pub perm: Box<[u32]>,
    /// Fold levels, widest first, up to the last one holding a live
    /// slot (none for a layer that writes nothing back).
    pub folds: Box<[FoldOp]>,
}

impl CompiledLayer {
    /// Lowers a layer to its live slots. Pure and total: lowering copies
    /// addresses, it never follows one. Holding them inside the state
    /// the executor is given is the caller's business (`GemGpu::load`
    /// refuses what [`PackedLayer::lower`](crate::PackedLayer::lower)
    /// refuses). A hand-built layer whose tables are shorter than its
    /// width says is lowered as if it were that much narrower.
    pub fn lower(layer: &BoomerangLayer) -> CompiledLayer {
        // Slots per level: half the row below, and no more than the
        // level's own tables hold, so every index below is in range.
        let mut row = layer.perm.len().min(layer.width as usize);
        let levels: Vec<usize> = (layer.folds.iter().zip(&layer.writeback))
            .map(|(fc, wb)| {
                row = (row / 2)
                    .min(fc.xa.len().min(fc.xb.len()).min(fc.ob.len()))
                    .min(wb.len());
                row
            })
            .collect();
        // Top down: a slot is live if it writes back or a live slot
        // above observes it.
        let mut folds: Vec<FoldOp> = Vec::with_capacity(levels.len());
        let mut live = Vec::new();
        for (k, &slots) in levels.iter().enumerate().rev() {
            let (fc, wb) = (&layer.folds[k], &layer.writeback[k][..slots]);
            live.clear();
            live.extend(wb.iter().map(Option::is_some));
            if let Some(up) = folds.last() {
                for (&j, &ob) in up.slots.iter().zip(&up.ob[..]) {
                    live[2 * j as usize] = true;
                    live[2 * j as usize + 1] |= ob == 0;
                }
            }
            let count = live.iter().filter(|&&l| l).count();
            let slots = exact(count, (0..slots as u32).filter(|&j| live[j as usize]));
            let plane =
                |bits: &[bool]| slots.iter().map(|&j| mask_byte(bits[j as usize])).collect();
            folds.push(FoldOp {
                xa: plane(&fc.xa),
                xb: plane(&fc.xb),
                ob: plane(&fc.ob),
                writeback: exact(
                    wb.iter().flatten().count(),
                    (wb.iter().enumerate())
                        .filter_map(|(j, s)| s.map(|addr| (j as u32, u32::from(addr)))),
                ),
                slots,
            });
        }
        folds.reverse();
        while folds.last().is_some_and(|f| f.slots.is_empty()) {
            folds.pop();
        }
        let leaf = |i: usize| match layer.perm[i] {
            PermSource::State(a) => u32::from(a),
            PermSource::ConstFalse => PERM_CONST,
        };
        let perm = folds.first().map_or(Box::default(), |first| {
            let pairs = (first.slots.iter().zip(&first.ob[..])).flat_map(|(&j, &ob)| {
                let (a, b) = (2 * j as usize, 2 * j as usize + 1);
                [leaf(a), if ob == 0 { leaf(b) } else { PERM_CONST }]
            });
            exact(2 * first.slots.len(), pairs)
        });
        CompiledLayer {
            width: layer.width,
            perm,
            folds: folds.into(),
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

    /// Shared-memory accesses the cost model charges one execution
    /// (gather + fold reads = `2 × width`): the architectural layer's,
    /// whatever liveness lets the host skip.
    pub fn shared_accesses(&self) -> u64 {
        2 * u64::from(self.width)
    }

    /// Fold ALU operations the cost model charges (`width − 1` slots in
    /// the full pyramid).
    pub fn alu_ops(&self) -> u64 {
        u64::from(self.width).saturating_sub(1)
    }

    /// Block-level synchronizations the cost model charges (one per
    /// fold level plus the gather barrier).
    pub fn block_syncs(&self) -> u64 {
        1 + u64::from(self.width.trailing_zeros())
    }

    /// Executes the lowered layer lane-wise against `state`, using
    /// `row` and `next` as reusable ping-pong fold buffers (grown as
    /// needed, contents on entry irrelevant; their capacity is retained
    /// across calls so steady-state execution allocates nothing). Lane
    /// `k` of the result equals [`BoomerangLayer::execute`] run on lane
    /// `k` of the input, for the layer this was lowered from.
    ///
    /// The first level folds each live leaf pair as it is gathered, so
    /// the `width`-word gathered row is never written and read back; its
    /// writebacks land after the whole pass, because the spec gathers
    /// every leaf before any fold output reaches the state. Each later
    /// level folds words `2j` and `2j + 1` of `row` into word `j` of
    /// `next` for its live slots `j`.
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
        let mut slots = self.width as usize / 2;
        let dst = grown(row, slots);
        for ((j, (xa, xb, ob)), p) in first.live().zip(self.perm.chunks_exact(2)) {
            dst[j] = fold(state[p[0] as usize], state[p[1] as usize], xa, xb, ob);
        }
        first.write_back(dst, state);
        for f in rest {
            slots /= 2;
            let dst = grown(next, slots);
            for (j, (xa, xb, ob)) in f.live() {
                dst[j] = fold(row[2 * j], row[2 * j + 1], xa, xb, ob);
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
        layer.writeback[0][0] = Some(1);
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
            PermSource::State(2),
            PermSource::State(0),
            PermSource::ConstFalse,
        ];
        layer.folds[0].xa[1] = true;
        layer.folds[0].ob[0] = true; // leaf 1 is bypassed ...
        layer.folds[1].ob[0] = true; // ... and so is slot 1 below,
        layer.writeback[1][0] = Some(3); // which nothing else observes.
        let comp = CompiledLayer::lower(&layer);
        assert_eq!(&*comp.perm, &[3, PERM_CONST]);
        assert_eq!(&*comp.folds[0].slots, &[0]);
        assert_eq!(&*comp.folds[0].ob, &[-1]);
        assert!(comp.folds[0].writeback.is_empty());
        assert_eq!(&*comp.folds[1].slots, &[0]);
        assert_eq!(&*comp.folds[1].writeback, &[(0, 3)]);
        // A writeback makes slot 1 live.
        layer.writeback[0][1] = Some(2);
        let mut comp = CompiledLayer::lower(&layer);
        assert_eq!(&*comp.perm, &[3, PERM_CONST, 0, PERM_CONST]);
        assert_eq!(&*comp.folds[0].slots, &[0, 1]);
        assert_eq!(&*comp.folds[0].xa, &[0, -1]);
        assert_eq!(&*comp.folds[0].xb, &[0, 0]);
        assert_eq!(&*comp.folds[0].ob, &[-1, 0]);
        assert_eq!(&*comp.folds[0].writeback, &[(1, 2)]);
        comp.redirect_consts(4);
        assert_eq!(&*comp.perm, &[3, 4, 0, 4]);
    }

    /// Slot `j` of level `k` is live by the definition, walked upward
    /// from the slot: some slot on its path to the top writes back, and
    /// every step of the path is an observed operand — A, or a B that
    /// is not bypassed.
    fn live_by_definition(layer: &BoomerangLayer, k: usize, j: usize) -> bool {
        let mut slot = j;
        for m in k..layer.folds.len() {
            if layer.writeback[m][slot].is_some() {
                return true;
            }
            let bypassed = layer.folds.get(m + 1).map(|up| up.ob[slot / 2]);
            if bypassed.is_none_or(|ob| slot % 2 == 1 && ob) {
                return false;
            }
            slot /= 2;
        }
        false
    }

    /// The lane-word form stores exactly the live slots, with their
    /// constants, over random layers of every width: each level's slots
    /// are those the upward definition calls live, the first level's
    /// leaves are their pairs with a bypassed B redirected to the zero
    /// slot, and a layer that writes nothing back stores nothing and
    /// runs as a no-op, leaving stale row buffers as they were.
    #[test]
    fn lowering_stores_exactly_the_live_slots() {
        for_each_spec_layer(&mut 0x11FE, |layer, x, what| {
            let zero = layer.width;
            let comp = lower_redirected(layer, zero as usize);
            for (k, fc) in layer.folds.iter().enumerate() {
                let want: Vec<u32> = (0..fc.xa.len() as u32)
                    .filter(|&j| live_by_definition(layer, k, j as usize))
                    .collect();
                let got = comp.folds.get(k).map_or(&[][..], |f| &f.slots[..]);
                assert_eq!(got, want, "{what}: live slots of level {k}");
                let Some(f) = comp.folds.get(k) else { continue };
                for (i, &j) in f.slots.iter().enumerate() {
                    let j = j as usize;
                    let consts = [fc.xa[j], fc.xb[j], fc.ob[j]].map(mask_byte);
                    assert_eq!([f.xa[i], f.xb[i], f.ob[i]], consts, "{what}: {k}/{j}");
                }
            }
            let leaf = |i: usize| match layer.perm[i] {
                PermSource::State(a) => u32::from(a),
                PermSource::ConstFalse => zero,
            };
            let first = comp.folds.first().map_or(&[][..], |f| &f.slots[..]);
            assert_eq!(comp.perm.len(), 2 * first.len(), "{what}");
            for (&j, p) in first.iter().zip(comp.perm.chunks_exact(2)) {
                let j = j as usize;
                let b = if layer.folds[0].ob[j] {
                    zero
                } else {
                    leaf(2 * j + 1)
                };
                assert_eq!(p, [leaf(2 * j), b], "{what}: leaves of slot {j}");
            }
            if layer.writeback.iter().flatten().all(Option::is_none) {
                assert!(comp.perm.is_empty() && comp.folds.is_empty(), "{what}");
                let mut state = noisy_state(x, zero as usize);
                let before = state.clone();
                let (mut row, mut next) = (vec![1, 2, 3], vec![4]);
                comp.execute_words_into(&mut state, &mut row, &mut next);
                assert_eq!((state, row, next), (before, vec![1, 2, 3], vec![4]));
            }
        });
    }

    /// The fold constants cost a byte a live slot: each of the three
    /// planes of a level is as long as its slot list, and of level `k` of
    /// a `w`-wide layer whose every slot writes back `w >> (k + 1)`
    /// bytes. One mask word per slot is 8× that — 10 MiB of RSS and half
    /// the 64-lane speed on OpenPiton8, which only a ladder run would
    /// otherwise show.
    #[test]
    fn fold_constants_are_one_byte_a_slot() {
        let mut x = 0xB17Eu64;
        for width in [2u32, 64, 2048, 8192] {
            for write_in in [1, 16] {
                let comp = CompiledLayer::lower(&random_layer(&mut x, width, width, 3, write_in));
                if write_in == 1 {
                    assert_eq!(comp.folds.len(), width.trailing_zeros() as usize);
                }
                for (k, f) in comp.folds.iter().enumerate() {
                    let dense = (width >> (k + 1)) as usize;
                    let slots = if write_in == 1 { dense } else { f.slots.len() };
                    for plane in [&f.xa, &f.xb, &f.ob] {
                        assert_eq!(size_of_val(&**plane), slots, "width {width} level {k}");
                    }
                }
            }
        }
    }

    /// The lowered op counts are the cost model's layer charges — of the
    /// packed form too, whatever either's liveness analysis lets the
    /// host skip (here: nothing, the levels above the one writeback
    /// left, and the whole layer): that is not the GPU's saving.
    #[test]
    fn op_counts_match_cost_model() {
        for width in [2u32, 8, 64, 256] {
            let mut layer = random_layer(&mut u64::from(width), width, 16, 2, 2);
            for keep in [usize::MAX, 1, 0] {
                let mut kept = 0;
                for slot in layer.writeback.iter_mut().flatten() {
                    kept += usize::from(slot.is_some());
                    if kept > keep {
                        *slot = None;
                    }
                }
                let comp = CompiledLayer::lower(&layer);
                assert_eq!(comp.shared_accesses(), 2 * u64::from(width));
                assert_eq!(comp.alu_ops(), u64::from(width) - 1);
                assert_eq!(comp.block_syncs(), 1 + u64::from(width.trailing_zeros()));
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
