//! Boomerang layer and core program data structures, plus the scalar
//! reference executor: the executable spec that placement is verified
//! with and that the lowered form ([`crate::CompiledLayer`]) is tested
//! against.

use gem_aig::NodeId;

/// Where one input-row bit of a layer comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PermSource {
    /// Core state bit at this address. Sixteen bits, as the ISA's
    /// permutation codes carry it: a layer is mostly addresses, and the
    /// mapping flow holds every layer of a design two or three times
    /// over (placed, decoded for verification, decoded for load).
    State(u16),
    /// Constant zero (unused slots and constant operands).
    ConstFalse,
}

/// Per-slot fold constants for one fold level.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FoldConsts {
    /// XOR mask applied to operand A.
    pub xa: Vec<bool>,
    /// XOR mask applied to operand B.
    pub xb: Vec<bool>,
    /// OR mask applied to operand B after the XOR; `true` bypasses B.
    pub ob: Vec<bool>,
}

impl FoldConsts {
    /// All-pass-through constants for `slots` slots (`out = A & B`).
    pub fn neutral(slots: usize) -> Self {
        FoldConsts {
            xa: vec![false; slots],
            xb: vec![false; slots],
            ob: vec![false; slots],
        }
    }
}

/// One boomerang layer: a permutation followed by `log2(width)` folds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoomerangLayer {
    /// Row width (power of two).
    pub width: u32,
    /// Input-row gather: one source per row bit.
    pub perm: Vec<PermSource>,
    /// Fold constants, level 1 (width/2 slots) through level log2(width)
    /// (1 slot).
    pub folds: Vec<FoldConsts>,
    /// Write-back plan: `writeback[k][j]` is the state address receiving
    /// the output of slot `j` at fold level `k+1` (or `None`).
    pub writeback: Vec<Vec<Option<u16>>>,
}

impl BoomerangLayer {
    /// An empty layer of the given width.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not a power of two ≥ 2.
    pub fn new(width: u32) -> Self {
        assert!(width.is_power_of_two() && width >= 2, "bad layer width");
        let folds_n = width.trailing_zeros() as usize;
        let folds = (1..=folds_n)
            .map(|k| FoldConsts::neutral((width >> k) as usize))
            .collect();
        let writeback = (1..=folds_n)
            .map(|k| vec![None; (width >> k) as usize])
            .collect();
        BoomerangLayer {
            width,
            perm: vec![PermSource::ConstFalse; width as usize],
            folds,
            writeback,
        }
    }

    /// Number of fold levels.
    pub fn fold_levels(&self) -> usize {
        self.folds.len()
    }

    /// Executes the layer against `state`, writing fold outputs back.
    pub fn execute(&self, state: &mut [bool]) {
        let mut row: Vec<bool> = self
            .perm
            .iter()
            .map(|s| match s {
                PermSource::State(a) => state[*a as usize],
                PermSource::ConstFalse => false,
            })
            .collect();
        for (k, fc) in self.folds.iter().enumerate() {
            let slots = row.len() / 2;
            let mut next = Vec::with_capacity(slots);
            for j in 0..slots {
                let a = row[2 * j] ^ fc.xa[j];
                let b = (row[2 * j + 1] ^ fc.xb[j]) | fc.ob[j];
                let v = a && b;
                if let Some(addr) = self.writeback[k][j] {
                    state[addr as usize] = v;
                }
                next.push(v);
            }
            row = next;
        }
    }
}

/// The machine lane word: every bit carries one independent simulation.
///
/// This alias is the *single* place the lane width is chosen; the whole
/// execution stack (`gem-vgpu` machine state, the lowered layers' masks
/// and scratch, `GemSimulator`'s lane APIs, `gem_sim::lanes`
/// pack/unpack) is written against `Word`.
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
        layer.perm = vec![
            PermSource::State(0), // a
            PermSource::State(1), // b
            PermSource::State(0), // a again
            PermSource::State(1), // b
        ];
        // Level 1: slot0 = a & b; slot1 = (!a) & b.
        layer.folds[0].xa[1] = true;
        // Level 2: slot0 = slot0 | slot1 = !(!x & !y).
        layer.folds[1].xa[0] = true;
        layer.folds[1].xb[0] = true;
        layer.writeback[0][0] = Some(2);
        layer.writeback[0][1] = Some(3);
        layer.writeback[1][0] = Some(4); // = !(a&b) & !(!a&b) = !b
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
        layer.perm = vec![PermSource::State(0), PermSource::ConstFalse];
        layer.folds[0].ob[0] = true; // B side forced 1 → out = A
        layer.writeback[0][0] = Some(1);
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

    #[test]
    #[should_panic(expected = "bad layer width")]
    fn non_power_of_two_width_rejected() {
        let _ = BoomerangLayer::new(6);
    }
}
