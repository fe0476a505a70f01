//! Boomerang layer and core program data structures, plus the scalar
//! reference executor: the executable spec that placement is verified
//! with and that the lowered forms ([`crate::CompiledLayer`],
//! [`crate::PackedLayer`]) are tested against.

use gem_aig::NodeId;

/// The ISA's permutation code for a constant-zero leaf. Every code with
/// this bit set means constant zero, and every code below it is a state
/// address.
pub const CONST_CODE: u16 = 0x8000;

/// Where one input-row bit of a layer comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PermSource {
    /// Core state bit at this address, below [`CONST_CODE`]: a layer
    /// holds it as the ISA's 16-bit permutation code.
    State(u16),
    /// Constant zero (unused slots and constant operands).
    ConstFalse,
}

impl PermSource {
    /// The source an ISA permutation code names.
    pub fn from_code(code: u16) -> PermSource {
        if code & CONST_CODE != 0 {
            PermSource::ConstFalse
        } else {
            PermSource::State(code)
        }
    }

    /// The ISA permutation code of this source.
    ///
    /// # Panics
    ///
    /// Panics on a state address of `0x8000` or more, which the code
    /// cannot tell from a constant.
    pub fn code(self) -> u16 {
        match self {
            PermSource::State(a) => {
                assert!(a < CONST_CODE, "state address too wide");
                a
            }
            PermSource::ConstFalse => CONST_CODE,
        }
    }
}

/// One of a fold slot's three constants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Plane {
    /// XOR mask applied to operand A.
    Xa,
    /// XOR mask applied to operand B.
    Xb,
    /// OR mask applied to operand B after the XOR; set bypasses B.
    Ob,
}

/// Words of one constant plane of a `slots`-slot fold level.
fn plane_words(slots: usize) -> usize {
    slots.div_ceil(64)
}

/// One fold level's constants, borrowed from its layer. Each plane holds
/// slot `j`'s bit at bit `j % 64` of word `j / 64`; bits past the
/// level's slots are clear.
#[derive(Debug, Clone, Copy)]
pub struct FoldConsts<'a> {
    /// The `Xa`, `Xb` and `Ob` planes, one after another.
    words: &'a [u64],
    slots: usize,
}

impl<'a> FoldConsts<'a> {
    /// Slots of this level.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// One constant plane of the level.
    pub fn plane(&self, p: Plane) -> &'a [u64] {
        let n = plane_words(self.slots);
        &self.words[p as usize * n..][..n]
    }

    /// Slot `j`'s constant `p`.
    pub fn get(&self, p: Plane, j: usize) -> bool {
        assert!(j < self.slots, "slot {j} of a {}-slot level", self.slots);
        (self.plane(p)[j / 64] >> (j % 64)) & 1 == 1
    }

    /// Slot `j`'s `xa`.
    pub fn xa(&self, j: usize) -> bool {
        self.get(Plane::Xa, j)
    }

    /// Slot `j`'s `xb`.
    pub fn xb(&self, j: usize) -> bool {
        self.get(Plane::Xb, j)
    }

    /// Slot `j`'s `ob`.
    pub fn ob(&self, j: usize) -> bool {
        self.get(Plane::Ob, j)
    }
}

/// One boomerang layer: a permutation followed by `log2(width)` folds.
///
/// The layer is held the way the ISA encodes it, so that it costs in
/// memory about what it costs on the wire: one 16-bit permutation code
/// per row bit, the fold constants as bit planes, and only the slots
/// that write back: 6.4 KiB a decoded 2048-wide layer of OpenPiton8,
/// where its encoding takes 7.3 (DESIGN.md §7).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoomerangLayer {
    /// Row width (power of two).
    width: u32,
    /// Input-row gather: one ISA permutation code per row bit.
    perm: Vec<u16>,
    /// Fold constants, level 1 (`width / 2` slots) through level
    /// `log2(width)` (one slot): each level's `Xa`, `Xb` and `Ob` planes
    /// in turn (see [`FoldConsts`]).
    consts: Vec<u64>,
    /// Write-back plan, `(slot, state address)`: level by level, and by
    /// ascending slot within a level — the order the spec writes in. No
    /// slot appears twice, so equal plans are equal vectors.
    writebacks: Vec<(u16, u16)>,
    /// `level_ends[k]`: the writebacks of levels `1..=k + 1`.
    level_ends: Vec<u32>,
}

impl BoomerangLayer {
    /// Widest layer: slot numbers are `u16`.
    const MAX_WIDTH: u32 = 1 << 17;

    /// An empty layer of the given width: every leaf constant, every
    /// constant clear, nothing written back.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not a power of two in `2..=1 << 17` (the
    /// ISA's widest core is `1 << 15`).
    pub fn new(width: u32) -> Self {
        assert!(
            width.is_power_of_two() && (2..=Self::MAX_WIDTH).contains(&width),
            "bad layer width"
        );
        let levels = width.trailing_zeros() as usize;
        let words = (1..=levels)
            .map(|k| 3 * plane_words((width >> k) as usize))
            .sum();
        BoomerangLayer {
            width,
            perm: vec![CONST_CODE; width as usize],
            consts: vec![0; words],
            writebacks: Vec::new(),
            level_ends: vec![0; levels],
        }
    }

    /// Row width.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Number of fold levels.
    pub fn fold_levels(&self) -> usize {
        self.level_ends.len()
    }

    /// Where row bit `j` comes from.
    pub fn perm(&self, j: usize) -> PermSource {
        PermSource::from_code(self.perm[j])
    }

    /// The gather as ISA permutation codes, one per row bit.
    pub fn perm_codes(&self) -> &[u16] {
        &self.perm
    }

    /// Sets where row bit `j` comes from.
    ///
    /// # Panics
    ///
    /// Panics on a state address of `0x8000` or more (see
    /// [`PermSource::code`]).
    pub fn set_perm(&mut self, j: usize, source: PermSource) {
        self.perm[j] = source.code();
    }

    /// Slots of fold level `k + 1`.
    fn slots(&self, k: usize) -> usize {
        (self.width >> (k + 1)) as usize
    }

    /// Where fold level `k + 1`'s planes start in `consts`: three planes
    /// for each level below it. A level of 64 slots or more fills
    /// `slots / 64` words, so the first `wide` levels (halving from
    /// `width / 128` words) take `width / 64 − (width >> (6 + wide))`;
    /// each narrower level takes one word.
    fn consts_at(&self, k: usize) -> usize {
        let w = self.width as usize;
        let wide = (self.width.trailing_zeros() as usize)
            .saturating_sub(6)
            .min(k);
        3 * ((w >> 6) - (w >> (6 + wide)) + (k - wide))
    }

    /// Fold level `k + 1`'s constants.
    pub fn fold(&self, k: usize) -> FoldConsts<'_> {
        let slots = self.slots(k);
        FoldConsts {
            words: &self.consts[self.consts_at(k)..][..3 * plane_words(slots)],
            slots,
        }
    }

    /// Sets constant `p` of slot `j` at fold level `k + 1`.
    pub fn set_const(&mut self, k: usize, p: Plane, j: usize, v: bool) {
        assert!(j < self.slots(k), "slot {j} of level {}", k + 1);
        let i = self.consts_at(k) + p as usize * plane_words(self.slots(k)) + j / 64;
        let bit = 1 << (j % 64);
        if v {
            self.consts[i] |= bit;
        } else {
            self.consts[i] &= !bit;
        }
    }

    /// Sets word `i` of constant plane `p` at fold level `k + 1`: slots
    /// `64 i ..`. Bits past the level's slots are dropped.
    pub fn set_plane_word(&mut self, k: usize, p: Plane, i: usize, word: u64) {
        let slots = self.slots(k);
        let n = plane_words(slots);
        assert!(i < n, "word {i} of a {slots}-slot plane");
        let keep = u64::MAX >> (64 - (slots - 64 * i).min(64));
        let at = self.consts_at(k) + p as usize * n + i;
        self.consts[at] = word & keep;
    }

    /// Where fold level `k + 1`'s writebacks sit in `writebacks`.
    fn level_span(&self, k: usize) -> std::ops::Range<usize> {
        let start = k.checked_sub(1).map_or(0, |b| self.level_ends[b]);
        start as usize..self.level_ends[k] as usize
    }

    /// The writebacks of fold level `k + 1`, `(slot, state address)` by
    /// ascending slot.
    pub fn writebacks(&self, k: usize) -> &[(u16, u16)] {
        &self.writebacks[self.level_span(k)]
    }

    /// The state address slot `j` of fold level `k + 1` writes back to.
    pub fn writeback(&self, k: usize, j: usize) -> Option<u16> {
        let level = self.writebacks(k);
        let i = level.binary_search_by_key(&j, |&(s, _)| usize::from(s));
        i.ok().map(|i| level[i].1)
    }

    /// Writebacks over all levels.
    pub fn writeback_count(&self) -> usize {
        self.writebacks.len()
    }

    /// Makes slot `j` of fold level `k + 1` write back to `addr`, or
    /// not at all.
    pub fn set_writeback(&mut self, k: usize, j: usize, addr: Option<u16>) {
        assert!(j < self.slots(k), "slot {j} of level {}", k + 1);
        let span = self.level_span(k);
        let slot = j as u16; // below `MAX_WIDTH / 2`
        match self.writebacks[span.clone()].binary_search_by_key(&slot, |&(s, _)| s) {
            Ok(i) => match addr {
                Some(a) => self.writebacks[span.start + i].1 = a,
                None => {
                    self.writebacks.remove(span.start + i);
                    self.level_ends[k..].iter_mut().for_each(|end| *end -= 1);
                }
            },
            Err(i) => {
                if let Some(a) = addr {
                    self.writebacks.insert(span.start + i, (slot, a));
                    self.level_ends[k..].iter_mut().for_each(|end| *end += 1);
                }
            }
        }
    }

    /// Replaces the whole write-back plan with `entries`, `(level, slot,
    /// state address)` with `level` counted from 0 as in
    /// [`set_writeback`](Self::set_writeback), in any order; of two
    /// entries for one slot the later wins.
    pub fn set_writebacks(&mut self, entries: impl IntoIterator<Item = (usize, usize, u16)>) {
        let mut entries: Vec<_> = entries.into_iter().enumerate().collect();
        entries.sort_unstable_by_key(|&(i, (k, j, _))| (k, j, i));
        self.writebacks = Vec::with_capacity(entries.len());
        self.level_ends.fill(0);
        let mut last = None;
        for (_, (k, j, addr)) in entries {
            assert!(j < self.slots(k), "slot {j} of level {}", k + 1);
            let entry = (j as u16, addr);
            if last == Some((k, j)) {
                *self
                    .writebacks
                    .last_mut()
                    .expect("the slot's earlier entry") = entry;
            } else {
                self.writebacks.push(entry);
                self.level_ends[k] += 1;
                last = Some((k, j));
            }
        }
        let mut total = 0;
        for end in &mut self.level_ends {
            total += *end;
            *end = total;
        }
    }

    /// Executes the layer against `state`, writing fold outputs back.
    pub fn execute(&self, state: &mut [bool]) {
        let mut row: Vec<bool> = (0..self.perm.len())
            .map(|j| match self.perm(j) {
                PermSource::State(a) => state[usize::from(a)],
                PermSource::ConstFalse => false,
            })
            .collect();
        for k in 0..self.fold_levels() {
            let fc = self.fold(k);
            row = (0..fc.slots())
                .map(|j| (row[2 * j] ^ fc.xa(j)) && ((row[2 * j + 1] ^ fc.xb(j)) || fc.ob(j)))
                .collect();
            for &(j, addr) in self.writebacks(k) {
                state[usize::from(addr)] = row[usize::from(j)];
            }
        }
    }
}

/// The machine lane word: every bit carries one independent simulation.
///
/// This alias is the *single* place the lane width is chosen; the whole
/// execution stack (`gem-vgpu` machine state, the lowered layers' masks
/// and scratch, `GemSimulator`'s lane APIs) is written against `Word`.
pub type Word = u64;

/// Broadcasts a Boolean constant across all bit-lanes of the machine
/// [`Word`]. The lane-batched executor (`gem-vgpu`) keeps one simulation
/// per bit of a word; layer constants apply identically to every lane,
/// so they splat to all-ones/all-zeros masks.
#[inline]
pub fn splat(v: bool) -> Word {
    if v {
        Word::MAX
    } else {
        0
    }
}

/// Where a published output bit comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutputSource {
    /// Core state bit, XOR-ed with the invert flag.
    State {
        /// State address.
        addr: u32,
        /// Invert on read.
        invert: bool,
    },
    /// Constant value.
    Const(bool),
}

/// The complete per-partition program produced by placement: load inputs,
/// run layers, publish outputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoreProgram {
    /// Core row width.
    pub width: u32,
    /// State bits used (≤ width for a mappable partition).
    pub state_size: u32,
    /// Global source signals and the state address each is loaded into
    /// once per cycle (inputs, FF outputs, RAM read bits, or cut signals
    /// from earlier stages).
    pub inputs: Vec<(NodeId, u32)>,
    /// Layers in execution order.
    pub layers: Vec<BoomerangLayer>,
    /// The partition's sinks in order: each is published from state or is
    /// a constant.
    pub outputs: Vec<OutputSource>,
}

impl CoreProgram {
    /// Executes the program given the values of its global sources.
    ///
    /// `source_value` is queried once per entry of [`CoreProgram::inputs`].
    /// Returns the output bits in sink order.
    pub fn evaluate(&self, mut source_value: impl FnMut(NodeId) -> bool) -> Vec<bool> {
        let mut state = vec![false; self.state_size.max(1) as usize];
        for &(node, addr) in &self.inputs {
            state[addr as usize] = source_value(node);
        }
        for layer in &self.layers {
            layer.execute(&mut state);
        }
        self.outputs
            .iter()
            .map(|o| match *o {
                OutputSource::State { addr, invert } => state[addr as usize] ^ invert,
                OutputSource::Const(v) => v,
            })
            .collect()
    }

    /// Permutations (= layers) per simulated cycle; the quantity Fig 3 is
    /// about.
    pub fn permutations(&self) -> usize {
        self.layers.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hand-builds a 4-wide layer computing (a&b) at level 1 slot 0 and
    /// (!a & b) at slot 1, then level 2 combines them.
    #[test]
    fn layer_executes_fold_semantics() {
        let mut layer = BoomerangLayer::new(4);
        // Row: a, b, a again, b.
        for (j, a) in [0, 1, 0, 1].into_iter().enumerate() {
            layer.set_perm(j, PermSource::State(a));
        }
        // Level 1: slot0 = a & b; slot1 = (!a) & b.
        layer.set_const(0, Plane::Xa, 1, true);
        // Level 2: slot0 = slot0 | slot1 = !(!x & !y).
        layer.set_const(1, Plane::Xa, 0, true);
        layer.set_const(1, Plane::Xb, 0, true);
        layer.set_writeback(0, 0, Some(2));
        layer.set_writeback(0, 1, Some(3));
        layer.set_writeback(1, 0, Some(4)); // = !(a&b) & !(!a&b) = !b
        for (a, b) in [(false, false), (false, true), (true, false), (true, true)] {
            let mut state = vec![false; 5];
            state[0] = a;
            state[1] = b;
            layer.execute(&mut state);
            assert_eq!(state[2], a && b);
            assert_eq!(state[3], !a && b);
            // out = !(a&b) & !(!a&b) = !((a&b) | (!a&b)) = !b.
            assert_eq!(state[4], !b, "a={a} b={b}");
        }
    }

    #[test]
    fn bypass_ob_passes_a_through() {
        let mut layer = BoomerangLayer::new(2);
        layer.set_perm(0, PermSource::State(0));
        layer.set_const(0, Plane::Ob, 0, true); // B side forced 1 → out = A
        layer.set_writeback(0, 0, Some(1));
        for a in [false, true] {
            let mut state = vec![false; 2];
            state[0] = a;
            layer.execute(&mut state);
            assert_eq!(state[1], a);
        }
    }

    #[test]
    fn program_evaluation_with_const_outputs() {
        let prog = CoreProgram {
            width: 2,
            state_size: 1,
            inputs: vec![(NodeId(5), 0)],
            layers: vec![],
            outputs: vec![
                OutputSource::State {
                    addr: 0,
                    invert: true,
                },
                OutputSource::Const(true),
            ],
        };
        let outs = prog.evaluate(|n| {
            assert_eq!(n, NodeId(5));
            true
        });
        assert_eq!(outs, vec![false, true]);
    }

    /// The write-back plan is canonical, so `==` compares what layers
    /// do: set slot by slot in any order, or all at once in any order,
    /// with a slot set twice (the later entry wins) or set and cleared,
    /// it is the same plan.
    #[test]
    fn writeback_plans_are_canonical() {
        let entries = [(2, 1, 9), (0, 5, 3), (0, 1, 4), (1, 0, 7), (0, 5, 6)];
        let mut forward = BoomerangLayer::new(16);
        for &(k, j, a) in &entries {
            forward.set_writeback(k, j, Some(a));
        }
        let mut backward = BoomerangLayer::new(16);
        backward.set_writeback(3, 0, Some(1));
        for &(k, j, a) in entries.iter().rev().skip(1) {
            backward.set_writeback(k, j, Some(a));
        }
        backward.set_writeback(0, 5, Some(6));
        backward.set_writeback(3, 0, None);
        let mut bulk = BoomerangLayer::new(16);
        bulk.set_writebacks(entries);
        assert_eq!(forward, backward);
        assert_eq!(forward, bulk);
        assert_eq!(forward.writebacks(0), &[(1, 4), (5, 6)]);
        assert_eq!(forward.writebacks(1), &[(0, 7)]);
        assert_eq!(forward.writebacks(2), &[(1, 9)]);
        assert!(forward.writebacks(3).is_empty());
        assert_eq!(
            (forward.writeback(0, 5), forward.writeback(0, 2)),
            (Some(6), None)
        );
        assert_eq!(forward.writeback_count(), 4);
    }

    /// Constants set a bit at a time or a word at a time are the same
    /// constants, and a plane word keeps no bit past its level's slots.
    #[test]
    fn plane_words_and_bits_agree() {
        let mut by_word = BoomerangLayer::new(256);
        let mut by_bit = BoomerangLayer::new(256);
        for k in 0..by_word.fold_levels() {
            let slots = by_word.fold(k).slots();
            for i in 0..slots.div_ceil(64) {
                by_word.set_plane_word(k, Plane::Ob, i, u64::MAX);
            }
            for j in 0..slots {
                by_bit.set_const(k, Plane::Ob, j, true);
            }
            assert!((0..slots).all(|j| by_word.fold(k).ob(j) && !by_word.fold(k).xa(j)));
        }
        assert_eq!(by_word, by_bit);
        assert_eq!(by_word.fold(5).plane(Plane::Ob), &[0b1111]);
    }

    /// A state address must not look like the ISA's constant code.
    #[test]
    #[should_panic(expected = "state address too wide")]
    fn state_addresses_from_0x8000_are_refused() {
        BoomerangLayer::new(4).set_perm(0, PermSource::State(CONST_CODE));
    }

    #[test]
    #[should_panic(expected = "bad layer width")]
    fn non_power_of_two_width_rejected() {
        let _ = BoomerangLayer::new(6);
    }
}
