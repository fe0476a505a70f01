//! Per-core threaded-code lowering: the form the virtual GPU executes
//! (DESIGN.md §7).
//!
//! [`CompiledCore::lower`] runs once per core at bitstream load and
//! resolves everything the per-cycle `execute_core` step of
//! [`GemGpu`](crate::machine::GemGpu) would otherwise re-derive every
//! cycle: global↔state operand indices for the read gather, the layer
//! programs (via [`gem_place::CompiledLayer`]), and the write plan —
//! split into immediate and deferred lists with the `State`/`Const`
//! source tags and invert flags folded into a per-entry XOR mask, so
//! the publish loop is branch-free.
//!
//! Steady-state execution allocates nothing inside the fold network:
//! each stepping thread (server workers step different sessions) owns
//! one thread-local [`Scratch`] whose state and row buffers are
//! recycled across cores and cycles.
//!
//! Equivalence contract: for any decoded core, execution produces
//! exactly the writes of the scalar spec — gather `reads`, run
//! [`gem_place::BoomerangLayer::execute`] per layer, publish `writes` —
//! per lane and in program order. `gem-sim`'s `compiled_lowering` suite
//! checks that directly; the differential fuzz suite and the golden VCD
//! corpus check it end to end.

use gem_isa::{DecodedCore, WriteSrc};
use gem_place::{splat, CompiledLayer, Word};
use std::cell::RefCell;

/// Sentinel in [`CompiledWrite::addr`]: the entry publishes a constant
/// (its lane word is [`CompiledWrite::xor`]) rather than a state bit.
pub const WRITE_CONST: u32 = u32::MAX;

/// One pre-resolved `WRITE_GLOBAL` entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompiledWrite {
    /// Destination index in the device-global signal array.
    pub global: u32,
    /// Source state address, or [`WRITE_CONST`].
    pub addr: u32,
    /// Pre-splatted invert mask (or the constant's lane word when
    /// `addr == WRITE_CONST`).
    pub xor: Word,
}

impl CompiledWrite {
    /// The lane word this entry publishes given the core state.
    #[inline]
    fn value(&self, state: &[Word]) -> Word {
        if self.addr == WRITE_CONST {
            self.xor
        } else {
            state[self.addr as usize] ^ self.xor
        }
    }
}

/// A whole core program in threaded-code form; see the module docs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledCore {
    /// Core row width (scratch state size).
    pub width: u32,
    /// Read gather: `(global index, state address)` pairs.
    pub reads: Box<[(u32, u32)]>,
    /// Lowered boomerang layers, in execution order.
    pub layers: Box<[CompiledLayer]>,
    /// Immediate writes (stage-boundary visibility), in program order.
    pub immediate: Box<[CompiledWrite]>,
    /// Deferred writes (cycle-boundary commit), in program order.
    pub deferred: Box<[CompiledWrite]>,
}

impl CompiledCore {
    /// Lowers a decoded core. Pure and total over decoder output: the
    /// decoder has already bounds-checked every state address against
    /// the core width, so lowering never panics.
    pub fn lower(dec: &DecodedCore) -> CompiledCore {
        let lower_write = |w: &gem_isa::WriteEntry| match w.src {
            WriteSrc::State { addr, invert } => CompiledWrite {
                global: w.global,
                addr: u32::from(addr),
                xor: splat(invert),
            },
            WriteSrc::Const(c) => CompiledWrite {
                global: w.global,
                addr: WRITE_CONST,
                xor: splat(c),
            },
        };
        CompiledCore {
            width: dec.width,
            reads: dec
                .reads
                .iter()
                .map(|r| (r.global, u32::from(r.state)))
                .collect(),
            // Constant-zero gather slots load from the extra state slot
            // at index `width` (kept zero by the executor below; layer
            // writebacks are bounds-checked below `width` by the
            // decoder), so the gather never branches on the sentinel.
            layers: dec
                .layers
                .iter()
                .map(|l| {
                    let mut comp = CompiledLayer::lower(l);
                    comp.redirect_consts(dec.width);
                    comp
                })
                .collect(),
            immediate: dec
                .writes
                .iter()
                .filter(|w| !w.deferred)
                .map(lower_write)
                .collect(),
            deferred: dec
                .writes
                .iter()
                .filter(|w| w.deferred)
                .map(lower_write)
                .collect(),
        }
    }

    /// Executes one cycle of the core against a stage-start global
    /// snapshot, appending its immediate and deferred lane words to the
    /// output buffers. `scratch` provides the recycled state and row
    /// buffers; all visible effects go through `imm_out` / `def_out`.
    pub fn execute_words_into(
        &self,
        global: &[Word],
        scratch: &mut Scratch,
        imm_out: &mut Vec<(u32, Word)>,
        def_out: &mut Vec<(u32, Word)>,
    ) {
        let Scratch { state, row, next } = scratch;
        state.clear();
        // One slot past the core width stays zero: the redirected
        // constant gather slots (see `lower`) read it.
        state.resize(self.width as usize + 1, 0);
        for &(g, s) in self.reads.iter() {
            state[s as usize] = global[g as usize];
        }
        for layer in self.layers.iter() {
            layer.execute_words_into(state, row, next);
        }
        imm_out.reserve(self.immediate.len());
        for w in self.immediate.iter() {
            imm_out.push((w.global, w.value(state)));
        }
        def_out.reserve(self.deferred.len());
        for w in self.deferred.iter() {
            def_out.push((w.global, w.value(state)));
        }
    }

    /// Total lowered ops per execution as the counter model charges
    /// them: `(shared_accesses, alu_ops, block_syncs)` summed over
    /// layers. Reconciles with the static `KernelCounters` delta the
    /// machine computes from the decoded program.
    pub fn layer_op_totals(&self) -> (u64, u64, u64) {
        self.layers.iter().fold((0, 0, 0), |acc, l| {
            (
                acc.0 + l.shared_accesses(),
                acc.1 + l.alu_ops(),
                acc.2 + l.block_syncs(),
            )
        })
    }
}

/// Reusable per-thread execution buffers: the core state vector and the
/// two ping-pong fold rows. Capacity survives across cores and cycles,
/// so steady-state execution performs no heap allocation inside the
/// fold network.
#[derive(Debug, Default)]
pub struct Scratch {
    state: Vec<Word>,
    row: Vec<Word>,
    next: Vec<Word>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// Runs `f` with the calling thread's [`Scratch`].
pub fn with_scratch<R>(f: impl FnOnce(&mut Scratch) -> R) -> R {
    SCRATCH.with(|s| f(&mut s.borrow_mut()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gem_isa::{ReadEntry, WriteEntry};
    use gem_place::{BoomerangLayer, PermSource};

    fn sample_core() -> DecodedCore {
        let mut layer = BoomerangLayer::new(4);
        layer.perm[0] = PermSource::State(0);
        layer.perm[1] = PermSource::State(1);
        layer.writeback[0][0] = Some(2);
        DecodedCore {
            width: 4,
            state_size: 3,
            reads: vec![
                ReadEntry {
                    global: 5,
                    state: 0,
                },
                ReadEntry {
                    global: 6,
                    state: 1,
                },
            ],
            layers: vec![layer],
            writes: vec![
                WriteEntry {
                    global: 7,
                    src: WriteSrc::State {
                        addr: 2,
                        invert: true,
                    },
                    deferred: false,
                },
                WriteEntry {
                    global: 8,
                    src: WriteSrc::Const(true),
                    deferred: true,
                },
            ],
        }
    }

    #[test]
    fn lowering_splits_and_resolves_writes() {
        let comp = CompiledCore::lower(&sample_core());
        assert_eq!(&*comp.reads, &[(5, 0), (6, 1)]);
        assert_eq!(comp.immediate.len(), 1);
        assert_eq!(comp.deferred.len(), 1);
        assert_eq!(
            comp.immediate[0],
            CompiledWrite {
                global: 7,
                addr: 2,
                xor: Word::MAX
            }
        );
        assert_eq!(
            comp.deferred[0],
            CompiledWrite {
                global: 8,
                addr: WRITE_CONST,
                xor: Word::MAX
            }
        );
    }

    #[test]
    fn execution_matches_hand_interpretation() {
        let comp = CompiledCore::lower(&sample_core());
        // global[5] = a, global[6] = b → immediate (7, !(a&b)),
        // deferred (8, ones).
        let mut global: Vec<Word> = vec![0; 9];
        global[5] = 0b1010;
        global[6] = 0b1100;
        let mut imm = Vec::new();
        let mut def = Vec::new();
        with_scratch(|s| comp.execute_words_into(&global, s, &mut imm, &mut def));
        assert_eq!(imm, vec![(7, !(0b1010 as Word & 0b1100))]);
        assert_eq!(def, vec![(8, Word::MAX)]);
    }

    /// A redirected constant gather slot must read zero even when the
    /// recycled scratch last held a wider core whose state covered the
    /// narrow core's zero slot with ones.
    #[test]
    fn redirected_const_slots_read_zero_from_recycled_scratch() {
        let mut wide = sample_core();
        wide.width = 8;
        wide.layers = vec![BoomerangLayer::new(8)];
        wide.reads[1].state = 4; // the 4-wide core's zero slot
        let mut narrow = sample_core();
        narrow.layers[0].perm[1] = PermSource::ConstFalse;
        narrow.layers[0].folds[0].xb[0] = true; // out = a & !const
        let mut global: Vec<Word> = vec![0; 9];
        global[5] = 0b1010;
        global[6] = Word::MAX;
        let mut scratch = Scratch::default();
        let (mut imm, mut def) = (Vec::new(), Vec::new());
        CompiledCore::lower(&wide).execute_words_into(&global, &mut scratch, &mut imm, &mut def);
        imm.clear();
        CompiledCore::lower(&narrow).execute_words_into(&global, &mut scratch, &mut imm, &mut def);
        assert_eq!(imm, vec![(7, !(0b1010 as Word))]);
    }

    #[test]
    fn op_totals_follow_layer_costs() {
        let comp = CompiledCore::lower(&sample_core());
        // One 4-wide layer: 8 shared accesses, 3 ALU ops, 3 syncs.
        assert_eq!(comp.layer_op_totals(), (8, 3, 3));
    }
}
