//! Threaded-code lowering of boomerang layers: the program form the
//! virtual GPU executes with more than one lane. DESIGN.md §7 ("Lowered
//! forms") is the one description of its tables and its inner loop.
//!
//! [`BoomerangLayer`] is the *authoritative* program representation and
//! [`BoomerangLayer::execute`] its executable spec. [`CompiledLayer::lower`]
//! keeps of it only the fold slots that compute something a writeback
//! can see: a slot is *live* if it writes back or a live slot above it
//! observes it (operand A always, operand B unless that slot bypasses
//! it); above the first level, a live slot that bypasses B without
//! inverting A is a plain forward of its A child and is resolved away —
//! whoever reads it, a slot above or a writeback, reads the forwarded
//! word. Each level's computing slots fill consecutive words of one row
//! buffer, so a slot's operands are two row words below it.
//!
//! The lowering is a pure data transformation: no semantic choice is
//! made here, so equivalence with the scalar spec reduces to the
//! mechanical claims above, which the unit tests below check per lane
//! and `gem-sim`'s differential fuzz suite and the golden VCD corpus
//! check end to end.

use crate::layer::{BoomerangLayer, FoldConsts, PermSource, Word};

/// Sentinel in [`CompiledLayer::perm`] for a constant-zero row slot
/// (lowered from [`PermSource::ConstFalse`]). It is no state address:
/// [`CompiledLayer::redirect_consts`] replaces it before execution.
pub const PERM_CONST: u32 = u32::MAX;

/// Row words a `u16` operand names: the most slots one layer may compute.
const ROW_WORDS: usize = 1 << u16::BITS;

/// A fold constant as the byte the planes of [`FoldOp`] hold: `0` for
/// `false`, `−1` for `true`.
#[inline]
fn mask_byte(v: bool) -> i8 {
    -i8::from(v)
}

/// One computing fold slot on lane words: `(a ^ xa) & (b ^ xb)` with
/// each constant byte sign-extended to a full lane mask. A bypass is
/// `b = a, xb = xa`.
#[inline]
fn fold(a: Word, b: Word, xa: i8, xb: i8) -> Word {
    let lanes = |m: i8| m as i64 as Word;
    (a ^ lanes(xa)) & (b ^ lanes(xb))
}

/// One fold level, fully resolved: the operands and constant planes of
/// the slots that compute, and the level's writebacks. Computing slot
/// `i` of the level lands on row word `base + i`, `base` being the
/// number of slots the levels below compute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FoldOp {
    /// The row words each computing slot folds, `[A, B]`, all below the
    /// level's own; empty on the first level, whose operands are the
    /// layer's [`perm`](CompiledLayer::perm) pairs.
    pub operands: Box<[[u16; 2]]>,
    /// XOR mask on operand A, one byte (`0` or `−1`) per computing slot.
    pub xa: Box<[i8]>,
    /// XOR mask on operand B.
    pub xb: Box<[i8]>,
    /// `(row word, state address)` of each slot that writes back, in slot
    /// order (the scalar spec's within-level write order). A forward's
    /// row word is the word it forwards.
    pub writeback: Box<[(u16, u16)]>,
}

impl FoldOp {
    /// Stores the level's writebacks from `row` to their state words.
    #[inline]
    fn write_back(&self, row: &[Word], state: &mut [Word]) {
        for &(word, addr) in self.writeback.iter() {
            state[usize::from(addr)] = row[usize::from(word)];
        }
    }
}

/// A [`BoomerangLayer`] lowered to threaded-code form; see the module
/// docs. Produced once per program, executed every cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledLayer {
    /// Row width (power of two).
    pub width: u32,
    /// Gather indices into core state: the leaf pair of each computing
    /// first-level slot, in slot order (a bypassed slot's pair is its A
    /// leaf twice). [`PERM_CONST`] stands for a constant zero until
    /// [`redirect_consts`](Self::redirect_consts) replaces it with the
    /// address of a zero word.
    pub perm: Box<[u32]>,
    /// Fold levels, widest first, up to the last one holding a live
    /// slot (none for a layer that writes nothing back).
    pub folds: Box<[FoldOp]>,
}

impl CompiledLayer {
    /// Lowers a layer to the slots that compute. Lowering copies
    /// addresses, it never follows one. Holding them inside the state
    /// the executor is given is the caller's business (`GemGpu::load`
    /// refuses what [`PackedLayer::lower`](crate::PackedLayer::lower)
    /// refuses).
    ///
    /// # Panics
    ///
    /// Panics if the layer computes more than 65 536 slots, which its
    /// `u16` row words cannot name. Only a layer wider than the ISA's
    /// 32 768 bits can: a 65 536-wide one computes at most 65 535.
    pub fn lower(layer: &BoomerangLayer) -> CompiledLayer {
        let levels: Vec<FoldConsts> = (0..layer.fold_levels()).map(|k| layer.fold(k)).collect();
        // Top down, into one flat buffer (level `k` after the slots of
        // the levels below it): a slot is live if it writes back or a live
        // slot above observes it. Count what each level computes and how
        // many levels to keep.
        let mut live = vec![false; levels.iter().map(FoldConsts::slots).sum()];
        let mut computes = vec![0; levels.len()];
        let (mut end, mut kept) = (live.len(), 0);
        for (k, fc) in levels.iter().enumerate().rev() {
            end -= fc.slots();
            let (here, above) = live[end..].split_at_mut(fc.slots());
            for &(j, _) in layer.writebacks(k) {
                here[usize::from(j)] = true;
            }
            if let Some(up) = levels.get(k + 1) {
                for p in (0..up.slots()).filter(|&p| above[p]) {
                    here[2 * p] = true;
                    here[2 * p + 1] |= !up.ob(p);
                }
            }
            computes[k] = (0..fc.slots())
                .filter(|&j| here[j] && !(k > 0 && fc.ob(j) && !fc.xa(j)))
                .count();
            if kept == 0 && here.contains(&true) {
                kept = k + 1;
            }
        }
        let total: usize = computes[..kept].iter().sum();
        assert!(
            total <= ROW_WORDS,
            "a layer computes at most {ROW_WORDS} slots (u16 row words), this one {total}"
        );
        // Bottom up: each live slot's row word — its own if it computes,
        // the forwarded one if not. `below` holds the level under `k`.
        let leaf = |i: usize| match layer.perm(i) {
            PermSource::State(a) => u32::from(a),
            PermSource::ConstFalse => PERM_CONST,
        };
        let mut perm = Vec::with_capacity(2 * computes.first().unwrap_or(&0));
        let (mut below, mut here) = (Vec::new(), Vec::new());
        let mut word = 0;
        let (mut folds, mut start) = (Vec::with_capacity(kept), 0);
        for (k, fc) in levels[..kept].iter().enumerate() {
            let live = &live[start..][..fc.slots()];
            start += fc.slots();
            here.clear();
            here.resize(fc.slots(), 0u16);
            let n = computes[k];
            let mut operands = Vec::with_capacity(if k == 0 { 0 } else { n });
            let (mut xa, mut xb) = (Vec::with_capacity(n), Vec::with_capacity(n));
            for j in (0..fc.slots()).filter(|&j| live[j]) {
                let (cxa, ob) = (fc.xa(j), fc.ob(j));
                if k == 0 {
                    let a = leaf(2 * j);
                    perm.extend([a, if ob { a } else { leaf(2 * j + 1) }]);
                } else {
                    let a = below[2 * j];
                    if ob && !cxa {
                        here[j] = a;
                        continue;
                    }
                    operands.push([a, if ob { a } else { below[2 * j + 1] }]);
                }
                xa.push(mask_byte(cxa));
                xb.push(mask_byte(if ob { cxa } else { fc.xb(j) }));
                here[j] = u16::try_from(word).expect("the row words were counted above");
                word += 1;
            }
            let writes = layer.writebacks(k).iter();
            folds.push(FoldOp {
                operands: operands.into(),
                xa: xa.into(),
                xb: xb.into(),
                writeback: writes
                    .map(|&(j, addr)| (here[usize::from(j)], addr))
                    .collect(),
            });
            std::mem::swap(&mut below, &mut here);
        }
        CompiledLayer {
            width: layer.width(),
            perm: perm.into(),
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

    /// Executes the lowered layer lane-wise against `state`, with `row`
    /// as the fold row buffer (grown as needed and never shrunk, so
    /// steady-state execution allocates nothing; its contents on entry
    /// are irrelevant). The third buffer is unused by this form; it is
    /// there so that both lowered forms take the machine's scratch
    /// alike. Lane `k` of the result equals [`BoomerangLayer::execute`]
    /// run on lane `k` of the input, for the layer this was lowered from.
    ///
    /// The first level folds each leaf pair as it is gathered; its
    /// writebacks land after the whole level, because the spec gathers
    /// every leaf before any fold output reaches the state. Each later
    /// level reads only the row, so its writebacks land right after it.
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
        _unused: &mut Vec<Word>,
    ) {
        let Some((first, rest)) = self.folds.split_first() else {
            return;
        };
        let words = self.folds.iter().map(|f| f.xa.len()).sum();
        if row.len() < words {
            row.resize(words, 0);
        }
        let mut end = first.xa.len();
        let consts = first.xa.iter().zip(&first.xb[..]);
        let level = row.iter_mut().zip(self.perm.chunks_exact(2)).zip(consts);
        for ((d, p), (&xa, &xb)) in level {
            *d = fold(state[p[0] as usize], state[p[1] as usize], xa, xb);
        }
        first.write_back(row, state);
        for f in rest {
            let (below, above) = row.split_at_mut(end);
            let consts = f.xa.iter().zip(&f.xb[..]);
            for ((d, &[a, b]), (&xa, &xb)) in above.iter_mut().zip(&f.operands[..]).zip(consts) {
                *d = fold(below[usize::from(a)], below[usize::from(b)], xa, xb);
            }
            end += f.xa.len();
            f.write_back(row, state);
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::dense::DenseLayer;
    use crate::layer::{splat, Plane};
    use crate::testutil::{for_each_spec_layer, random_layer, xorshift};

    /// [`CompiledLayer::lower`] on the dense reference layout
    /// (`crate::dense`), as it was written against it.
    pub(crate) fn lower_dense(layer: &DenseLayer) -> CompiledLayer {
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
        // Top down, into one flat buffer (level `k` after the slots of
        // the levels below it): a slot is live if it writes back or a live
        // slot above observes it. Count what each level computes and how
        // many levels to keep.
        let mut live = vec![false; levels.iter().sum()];
        let mut computes = vec![0; levels.len()];
        let (mut end, mut kept) = (live.len(), 0);
        for (k, &slots) in levels.iter().enumerate().rev() {
            let (fc, wb) = (&layer.folds[k], &layer.writeback[k]);
            end -= slots;
            let (here, above) = live[end..].split_at_mut(slots);
            for (l, w) in here.iter_mut().zip(wb) {
                *l = w.is_some();
            }
            if let Some((up, &n)) = layer.folds.get(k + 1).zip(levels.get(k + 1)) {
                for (p, (_, &ob)) in (above[..n].iter().zip(&up.ob))
                    .enumerate()
                    .filter(|(_, (&l, _))| l)
                {
                    here[2 * p] = true;
                    here[2 * p + 1] |= !ob;
                }
            }
            let slot = here.iter().zip(&fc.ob).zip(&fc.xa);
            computes[k] = slot
                .filter(|((&l, &ob), &xa)| l && !(k > 0 && ob && !xa))
                .count();
            if kept == 0 && here.contains(&true) {
                kept = k + 1;
            }
        }
        let total: usize = computes[..kept].iter().sum();
        assert!(
            total <= ROW_WORDS,
            "a layer computes at most {ROW_WORDS} slots (u16 row words), this one {total}"
        );
        // Bottom up: each live slot's row word — its own if it computes,
        // the forwarded one if not. `below` holds the level under `k`.
        let leaf = |i: usize| match layer.perm[i] {
            PermSource::State(a) => u32::from(a),
            PermSource::ConstFalse => PERM_CONST,
        };
        let mut perm = Vec::with_capacity(2 * computes.first().unwrap_or(&0));
        let (mut below, mut here) = (Vec::new(), Vec::new());
        let mut word = 0;
        let (mut folds, mut start) = (Vec::with_capacity(kept), 0);
        for (k, &slots) in levels[..kept].iter().enumerate() {
            let (fc, wb) = (&layer.folds[k], &layer.writeback[k][..slots]);
            let live = &live[start..][..slots];
            start += slots;
            here.clear();
            here.resize(slots, 0u16);
            let n = computes[k];
            let mut operands = Vec::with_capacity(if k == 0 { 0 } else { n });
            let (mut xa, mut xb) = (Vec::with_capacity(n), Vec::with_capacity(n));
            let consts = live.iter().zip(&fc.xa).zip(&fc.xb).zip(&fc.ob).enumerate();
            for (j, (((_, &cxa), &cxb), &ob)) in consts.filter(|(_, (((&l, _), _), _))| l) {
                if k == 0 {
                    let a = leaf(2 * j);
                    perm.extend([a, if ob { a } else { leaf(2 * j + 1) }]);
                } else {
                    let a = below[2 * j];
                    if ob && !cxa {
                        here[j] = a;
                        continue;
                    }
                    operands.push([a, if ob { a } else { below[2 * j + 1] }]);
                }
                xa.push(mask_byte(cxa));
                xb.push(mask_byte(if ob { cxa } else { cxb }));
                here[j] = u16::try_from(word).expect("the row words were counted above");
                word += 1;
            }
            let writes = wb.iter().enumerate();
            let writes = writes.filter_map(|(j, s)| s.map(|addr| (here[j], addr)));
            let mut writeback = Vec::with_capacity(wb.iter().flatten().count());
            writeback.extend(writes);
            folds.push(FoldOp {
                operands: operands.into(),
                xa: xa.into(),
                xb: xb.into(),
                writeback: writeback.into(),
            });
            std::mem::swap(&mut below, &mut here);
        }
        CompiledLayer {
            width: layer.width,
            perm: perm.into(),
            folds: folds.into(),
        }
    }

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
        what: &str,
    ) {
        let mut got = before.to_vec();
        comp.execute_words_into(&mut got, row, &mut Vec::new());
        for lane in 0..Word::BITS {
            let mut want = lane_of(before, lane);
            layer.execute(&mut want);
            assert_eq!(lane_of(&got, lane), want, "{what}: lane {lane} diverged");
        }
    }

    /// Every one of the 64 lanes of the lowered executor must equal the
    /// scalar spec run on that lane alone, on random layers of every
    /// width the ISA allows a core — including the state left behind by
    /// aliasing writebacks — and the row buffer must be reusable across
    /// layers of different widths without cross-talk.
    #[test]
    fn compiled_layer_matches_scalar_spec_per_lane() {
        let mut row = Vec::new();
        for_each_spec_layer(&mut 0xC0DE, |layer, x, what| {
            let addrs = layer.width() as usize;
            let comp = lower_redirected(layer, addrs);
            let before = noisy_state(x, addrs);
            check_every_lane(layer, &comp, &before, &mut row, what);
        });
    }

    /// The spec gathers the whole row before any fold: a first-level
    /// writeback whose target a *later* leaf pair of the same layer
    /// gathers must not be seen by that leaf. Fails on a kernel that
    /// writes back inside its fused gather-and-fold pass.
    #[test]
    fn first_level_writeback_is_not_seen_by_a_later_leaf() {
        let mut layer = BoomerangLayer::new(8);
        layer.set_perm(0, PermSource::State(0));
        layer.set_perm(1, PermSource::State(1));
        layer.set_writeback(0, 0, Some(2)); // slot 0 = s0 & s1 → s2 ...
        layer.set_perm(6, PermSource::State(2)); // ... which leaf 6 gathers
        layer.set_const(0, Plane::Ob, 3, true);
        layer.set_writeback(0, 3, Some(3)); // and passes through to s3.
        let comp = lower_redirected(&layer, 4);
        let mut row = Vec::new();
        let mut x = 0xF05Eu64;
        for _ in 0..8 {
            let before = noisy_state(&mut x, 4);
            let mut got = before.clone();
            comp.execute_words_into(&mut got, &mut row, &mut Vec::new());
            assert_eq!(got[2], before[0] & before[1]);
            assert_eq!(got[3], before[2], "leaf 6 must read the old s2");
            check_every_lane(&layer, &comp, &before, &mut row, "later leaf");
        }
    }

    /// Width 2: the fused level is the only level. Its writeback lands
    /// and the row it leaves serves a wider layer next.
    #[test]
    fn single_level_layer_writes_back_and_leaves_buffers_reusable() {
        let mut narrow = BoomerangLayer::new(2);
        narrow.set_perm(0, PermSource::State(0));
        narrow.set_perm(1, PermSource::State(1));
        narrow.set_const(0, Plane::Xb, 0, true);
        narrow.set_writeback(0, 0, Some(2)); // s2 = s0 & !s1
        let comp = lower_redirected(&narrow, 3);
        let mut row = Vec::new();
        let mut x = 0x2_2u64;
        let mut state = noisy_state(&mut x, 3);
        let (a, b) = (state[0], state[1]);
        comp.execute_words_into(&mut state, &mut row, &mut Vec::new());
        assert_eq!(state, [a, b, a & !b, 0]);
        let wide = random_layer(&mut x, 64, 64, 3, 2);
        let before = noisy_state(&mut x, 64);
        let comp = lower_redirected(&wide, 64);
        check_every_lane(&wide, &comp, &before, &mut row, "after width 2");
    }

    /// The caller's `row` arrives with any length and content — the
    /// harness and the machine pass one across hundreds of layers of
    /// different cores — and none of it may show.
    #[test]
    fn stale_row_buffers_of_any_length_do_not_matter() {
        let mut x = 0x57A1Eu64;
        for width in [2u32, 8, 64, 512] {
            let layer = random_layer(&mut x, width, width, 3, 2);
            let comp = lower_redirected(&layer, width as usize);
            let before = noisy_state(&mut x, width as usize);
            for len in [0, 1, 3, 700, 5000] {
                let mut row = vec![xorshift(&mut x); len];
                let what = format!("width {width}, a stale row of {len}");
                check_every_lane(&layer, &comp, &before, &mut row, &what);
            }
        }
    }

    /// Redirection is a precondition of execution: a constant leaf left
    /// as [`PERM_CONST`] is an address outside the state and fails its
    /// bounds check; it never reads some other word.
    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn unredirected_constant_leaf_panics() {
        let mut layer = BoomerangLayer::new(2);
        layer.set_perm(0, PermSource::State(0));
        layer.set_writeback(0, 0, Some(1));
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
        let mut row = Vec::new();
        let mut x = 0xA11_1A9E5u64;
        let state_size = 16usize;
        for _ in 0..16 {
            let layer = random_layer(&mut x, 16, state_size as u32, 2, 2);
            let comp = lower_redirected(&layer, state_size);
            let addr = (xorshift(&mut x) % state_size as u64) as usize;
            let mut a = noisy_state(&mut x, state_size);
            let mut b = a.clone();
            b[addr] ^= 1 << 63;
            comp.execute_words_into(&mut a, &mut row, &mut Vec::new());
            comp.execute_words_into(&mut b, &mut row, &mut Vec::new());
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
        layer.set_perm(0, PermSource::State(0));
        layer.set_const(0, Plane::Ob, 0, true); // B forced 1 → out = A
        layer.set_writeback(0, 0, Some(1));
        let mut state: Vec<Word> = vec![1 << 63, 0, 0];
        lower_redirected(&layer, 2).execute_words_into(&mut state, &mut row, &mut Vec::new());
        assert_eq!(state[1], 1 << 63, "lane 63 dropped by pass-through fold");
    }

    /// The default core width divides evenly into lane words — the ISA
    /// row shapes don't depend on the word width.
    #[test]
    fn core_width_is_word_aligned() {
        assert_eq!(crate::CORE_WIDTH % Word::BITS, 0);
    }

    /// Slot `j` of level `k` is live by the definition, walked upward
    /// from the slot: some slot on its path to the top writes back, and
    /// every step of the path is an observed operand — A, or a B that
    /// is not bypassed.
    fn live_by_definition(layer: &BoomerangLayer, k: usize, j: usize) -> bool {
        let mut slot = j;
        for m in k..layer.fold_levels() {
            if layer.writeback(m, slot).is_some() {
                return true;
            }
            let bypassed = (m + 1 < layer.fold_levels()).then(|| layer.fold(m + 1).ob(slot / 2));
            if bypassed.is_none_or(|ob| slot % 2 == 1 && ob) {
                return false;
            }
            slot /= 2;
        }
        false
    }

    /// A plain forward: a slot above the first level that bypasses B
    /// and does not invert A.
    fn forwards(layer: &BoomerangLayer, k: usize, j: usize) -> bool {
        k > 0 && layer.fold(k).ob(j) && !layer.fold(k).xa(j)
    }

    /// The row word of every live slot, level by level, by the
    /// definitions walked slot by slot: a plain forward holds its A
    /// child's word, and the `i`-th computing slot of the layer, counted
    /// level by level in slot order, holds word `i`.
    fn row_words(layer: &BoomerangLayer) -> Vec<Vec<Option<u16>>> {
        let mut words: Vec<Vec<Option<u16>>> = Vec::new();
        let mut next = 0u16;
        for k in 0..layer.fold_levels() {
            let level = (0..layer.fold(k).slots())
                .map(|j| {
                    if !live_by_definition(layer, k, j) {
                        None
                    } else if forwards(layer, k, j) {
                        words[k - 1][2 * j]
                    } else {
                        next += 1;
                        Some(next - 1)
                    }
                })
                .collect();
            words.push(level);
        }
        words
    }

    /// Each level executes exactly its live slots minus the plain
    /// forwards above the first level, on random layers of every width:
    /// its operand words, leaf pairs and constants are the ones the
    /// definitions walked slot by slot give, and every writeback stores
    /// the row word of its slot — a forward's being the word it
    /// forwards. A layer that writes nothing back stores nothing and
    /// runs as a no-op, leaving a stale row as it was.
    #[test]
    fn each_level_executes_its_live_slots_minus_plain_forwards() {
        for_each_spec_layer(&mut 0x11FE, |layer, x, what| {
            let zero = layer.width();
            let comp = lower_redirected(layer, zero as usize);
            let leaf = |i: usize| match layer.perm(i) {
                PermSource::State(a) => u32::from(a),
                PermSource::ConstFalse => zero,
            };
            let words = row_words(layer);
            let word = |k: usize, j: usize| words[k][j].expect("a live slot");
            let (mut perm, mut levels) = (Vec::new(), Vec::new());
            for k in 0..layer.fold_levels() {
                let fc = layer.fold(k);
                let (mut operands, mut xa, mut xb, mut writeback) =
                    (vec![], vec![], vec![], vec![]);
                for j in 0..fc.slots() {
                    if let Some(addr) = layer.writeback(k, j) {
                        writeback.push((word(k, j), addr));
                    }
                    if !live_by_definition(layer, k, j) || forwards(layer, k, j) {
                        continue;
                    }
                    let b = if fc.ob(j) { 2 * j } else { 2 * j + 1 };
                    if k == 0 {
                        perm.extend([leaf(2 * j), leaf(b)]);
                    } else {
                        operands.push([word(k - 1, 2 * j), word(k - 1, b)]);
                    }
                    xa.push(mask_byte(fc.xa(j)));
                    xb.push(mask_byte(if fc.ob(j) { fc.xa(j) } else { fc.xb(j) }));
                }
                levels.push(FoldOp {
                    operands: operands.into(),
                    xa: xa.into(),
                    xb: xb.into(),
                    writeback: writeback.into(),
                });
            }
            while levels
                .last()
                .is_some_and(|f| f.xa.is_empty() && f.writeback.is_empty())
            {
                levels.pop();
            }
            assert_eq!(&*comp.perm, &perm[..], "{what}: leaf pairs");
            assert_eq!(&*comp.folds, &levels[..], "{what}: levels");
            if layer.writeback_count() == 0 {
                assert!(comp.perm.is_empty() && comp.folds.is_empty(), "{what}");
                let mut state = noisy_state(x, zero as usize);
                let before = state.clone();
                let mut row = vec![1, 2, 3];
                comp.execute_words_into(&mut state, &mut row, &mut Vec::new());
                assert_eq!((state, row), (before, vec![1, 2, 3]));
            }
        });
    }

    /// A value riding up through plain forwards is computed once, at the
    /// first level, and read from there by every writeback on its way —
    /// the levels it rides through compute nothing.
    #[test]
    fn a_forwards_writeback_stores_the_forwarded_word() {
        let mut layer = BoomerangLayer::new(8);
        layer.set_perm(0, PermSource::State(0));
        layer.set_perm(1, PermSource::State(1));
        layer.set_const(1, Plane::Ob, 0, true);
        layer.set_const(2, Plane::Ob, 0, true);
        layer.set_const(2, Plane::Xb, 0, true); // a bypassed B's constant is moot
        layer.set_writeback(1, 0, Some(2));
        layer.set_writeback(2, 0, Some(3));
        let comp = lower_redirected(&layer, 4);
        assert_eq!(&*comp.perm, &[0, 1]);
        assert!(comp.folds[1..].iter().all(|f| f.xa.is_empty()));
        assert_eq!(&*comp.folds[1].writeback, &[(0, 2)]);
        assert_eq!(&*comp.folds[2].writeback, &[(0, 3)]);
        let mut x = 0xF0_4Du64;
        let before = noisy_state(&mut x, 4);
        let mut got = before.clone();
        comp.execute_words_into(&mut got, &mut Vec::new(), &mut Vec::new());
        let and = before[0] & before[1];
        assert_eq!(got, [before[0], before[1], and, and, 0]);
    }

    /// A bypass that inverts A is computed, `(A ^ xa) & (A ^ xa)`, at the
    /// first level and above — it is never forwarded — and each of the
    /// 64 lanes matches the scalar spec.
    #[test]
    fn an_inverted_bypass_is_computed_not_forwarded() {
        let mut layer = BoomerangLayer::new(8);
        layer.set_perm(0, PermSource::State(0));
        layer.set_perm(1, PermSource::State(1));
        layer.set_perm(2, PermSource::State(2));
        layer.set_const(0, Plane::Ob, 0, true);
        layer.set_const(0, Plane::Xa, 0, true); // level 0, slot 0: !s0
        layer.set_const(1, Plane::Ob, 0, true);
        layer.set_const(1, Plane::Xa, 0, true); // level 1, slot 0: s0
        layer.set_const(2, Plane::Ob, 0, true);
        layer.set_const(2, Plane::Xa, 0, true); // level 2, slot 0: !s0
        layer.set_writeback(0, 1, Some(4)); // level 0, slot 1: s2 & 0
        layer.set_writeback(2, 0, Some(5));
        let comp = lower_redirected(&layer, 6);
        assert_eq!(&*comp.perm, &[0, 0, 2, 6]);
        assert_eq!(
            (&*comp.folds[0].xa, &*comp.folds[0].xb),
            (&[-1, 0][..], &[-1, 0][..])
        );
        for (f, word) in comp.folds[1..].iter().zip([0, 2]) {
            assert_eq!(&*f.operands, &[[word, word]]);
            assert_eq!((&*f.xa, &*f.xb), (&[-1][..], &[-1][..]));
        }
        assert_eq!(&*comp.folds[2].writeback, &[(3, 5)]);
        let mut x = 0x1_4Fu64;
        for _ in 0..4 {
            let before = noisy_state(&mut x, 6);
            check_every_lane(&layer, &comp, &before, &mut Vec::new(), "inverted");
        }
    }

    /// Writebacks to one address keep program order within a level (the
    /// higher slot last), across levels (the higher level last), and
    /// when the later one is a forward of the earlier's word or the
    /// earlier one is a forward.
    #[test]
    fn two_writebacks_to_one_address_keep_program_order() {
        let mut x = 0x0_4DE4u64;
        for case in 0..4 {
            let mut layer = BoomerangLayer::new(8);
            for i in 0..8 {
                layer.set_perm(i, PermSource::State(i as u16));
            }
            let (first, second) = match case {
                0 => ((0, 0), (0, 3)),
                1 => ((0, 3), (1, 0)),
                2 => ((0, 2), (1, 0)),
                _ => ((1, 0), (2, 0)),
            };
            layer.set_const(1, Plane::Ob, 0, case >= 2); // a forward of slot 0
            layer.set_writeback(first.0, first.1, Some(7));
            layer.set_writeback(second.0, second.1, Some(7));
            let comp = lower_redirected(&layer, 8);
            let before = noisy_state(&mut x, 8);
            check_every_lane(
                &layer,
                &comp,
                &before,
                &mut Vec::new(),
                &format!("case {case}"),
            );
        }
    }

    /// Row words are `u16`: a layer may compute 65 536 slots and no
    /// more. A 131 072-wide layer — four times the ISA's widest — whose
    /// whole first level writes back fills the row exactly, and a
    /// forward above it adds no word; one computing slot more is
    /// refused with a panic that says why, never lowered to a wrapped
    /// index.
    #[test]
    fn lowering_states_what_u16_row_words_can_hold() {
        let mut layer = BoomerangLayer::new(1 << 17);
        for i in 0..1 << 17 {
            layer.set_perm(i, PermSource::State((i % 8) as u16));
        }
        layer.set_writebacks((0..1 << 16).map(|j| (0, j, 0)));
        layer.set_const(1, Plane::Ob, 0, true);
        layer.set_writeback(1, 0, Some(1));
        let comp = CompiledLayer::lower(&layer);
        assert_eq!(comp.folds[0].xa.len(), ROW_WORDS);
        assert_eq!(&*comp.folds[1].writeback, &[(0, 1)]);
        let last = comp.folds[0].writeback.last().copied();
        assert_eq!(last, Some((u16::MAX, 0)));
        layer.set_const(1, Plane::Ob, 0, false);
        let refused = std::panic::catch_unwind(|| CompiledLayer::lower(&layer));
        let message = *refused
            .expect_err("65 537 slots")
            .downcast::<String>()
            .expect("a message");
        assert!(message.contains("at most 65536 slots"), "{message}");
    }

    /// The lowered form against [`BoomerangLayer::execute`], every lane,
    /// on 2 520 random layers: every width up to the ISA's widest, every
    /// bypass density from none to all (half of them inverting, as `xa`
    /// is random), writebacks from none to every slot over a width's
    /// worth, five or one address, and one row buffer of random length
    /// and content before each layer.
    #[test]
    #[ignore = "2 520 layers: run with `cargo test -p gem-place --release -- --ignored`"]
    fn lane_word_lowering_sweep() {
        let mut x = 0x5EE9u64;
        let mut layers = 0;
        for log in 1..=15u32 {
            let width = 1u32 << log;
            for addrs in [width, width.min(5), 1] {
                for write_in in [1, 3, 64, u64::from(width), 0] {
                    for bypass_in in [0, 1, 2, 4, 16, 128] {
                        let reps = if log > 13 { 1 } else { 2 };
                        for _ in 0..reps {
                            let layer = random_layer(&mut x, width, addrs, bypass_in, write_in);
                            let comp = lower_redirected(&layer, addrs as usize);
                            let before = noisy_state(&mut x, addrs as usize);
                            let len = (xorshift(&mut x) % (3 * u64::from(width))) as usize;
                            let mut row = vec![xorshift(&mut x); len];
                            let what = format!(
                                "width {width}, {addrs} addresses, 1 in {write_in} written, \
                                 1 in {bypass_in} bypassed, stale row of {len}"
                            );
                            check_every_lane(&layer, &comp, &before, &mut row, &what);
                            layers += 1;
                        }
                    }
                }
            }
        }
        assert_eq!(layers, 2_520);
    }

    /// The packed form writes back exactly the writebacks it was given,
    /// whatever its liveness analysis lets the host skip (here: nothing,
    /// the levels above the one writeback left, and the whole layer).
    /// What the GPU is charged is the machine's, from the decoded width.
    #[test]
    fn op_counts_match_cost_model() {
        for width in [2u32, 8, 64, 256] {
            let mut layer = random_layer(&mut u64::from(width), width, 16, 2, 2);
            for keep in [usize::MAX, 1, 0] {
                let all: Vec<_> = (0..layer.fold_levels())
                    .flat_map(|k| {
                        layer
                            .writebacks(k)
                            .iter()
                            .map(move |&(j, a)| (k, j.into(), a))
                    })
                    .collect();
                let kept = all.len();
                layer.set_writebacks(all.into_iter().take(keep));
                let packed = crate::PackedLayer::lower(&layer, 256).expect("lowers");
                assert_eq!(packed.written().count(), kept.min(keep));
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
        comp.execute_words_into(&mut state, &mut Vec::new(), &mut Vec::new());
        assert_eq!(state[..4], [0xDEAD_BEEF_DEAD_BEEF; 4]);
        assert_eq!(state[4], 0);
    }
}
