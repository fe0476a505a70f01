//! Per-core threaded-code lowering: the forms the virtual GPU executes
//! (DESIGN.md §7).
//!
//! Lowering resolves everything the per-cycle core step of
//! [`GemGpu`](crate::machine::GemGpu) would otherwise re-derive every
//! cycle: global↔state operand indices for the read gather, the layer
//! programs, and the write plan — split into immediate and deferred
//! lists with the `State`/`Const` source tags and invert flags folded
//! into a per-entry XOR mask, so the publish loop is branch-free.
//!
//! A core has two lowered forms that differ in their layers only.
//! [`PackedCore`] (layers: [`gem_place::PackedLayer`], one bit per
//! signal) is what the machine lowers at load and runs while one lane is
//! active; [`CompiledCore`] (layers: [`gem_place::CompiledLayer`], one
//! lane word per signal, only the fold slots that compute) is what it
//! runs with more, produced from the packed form by
//! [`PackedCore::widen`] the first time a second lane appears. The
//! switch needs no conversion of
//! machine state: with one lane active every global word is a splat
//! (inactive lanes mirror lane 0), and what a state cell *is* never
//! leaves a core's execution — the packed form keeps bit 0 of each word
//! it reads as a byte ([`gem_place::ByteState`]) and publishes the
//! splat of each byte, the lane-word form copies words, and both apply
//! the same pre-splatted XOR masks.
//!
//! Steady-state execution allocates nothing inside the fold network:
//! each stepping thread (a server connection thread steps its own
//! sessions) owns one thread-local [`Scratch`] whose state and row
//! buffers are recycled across cores and cycles.
//!
//! Equivalence contract: for any decoded core, execution produces
//! exactly the writes of the scalar spec — gather `reads`, run
//! [`gem_place::BoomerangLayer::execute`] per layer, publish `writes` —
//! per lane and in program order. `gem-sim`'s `compiled_lowering` suite
//! checks that directly; the differential fuzz suite and the golden VCD
//! corpus check it end to end.

use gem_isa::{DecodedCore, WriteEntry, WriteSrc};
use gem_place::{splat, ByteState, CompiledLayer, PackedLayer, Word};
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

/// The decoded write plan as (immediate, deferred) lists, each in
/// program order.
fn lower_writes(dec: &DecodedCore) -> (Box<[CompiledWrite]>, Box<[CompiledWrite]>) {
    let lower = |w: &WriteEntry| match w.src {
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
    let list = |deferred: bool| {
        dec.writes
            .iter()
            .filter(|w| w.deferred == deferred)
            .map(lower)
            .collect()
    };
    (list(false), list(true))
}

/// Appends the lane words `writes` publish from `state`.
fn publish(writes: &[CompiledWrite], state: &[Word], out: &mut Vec<(u32, Word)>) {
    out.extend(writes.iter().map(|w| (w.global, w.value(state))));
}

/// The state addresses one cycle of a core may read before it writes
/// them: the program-order walk behind both forms' `clear` lists.
/// `events` are `(address, reads)` in program order — the read table's
/// stores, each layer's gathers then its writebacks, the publishes; the
/// zero slot `zero` is read first. Compiler output reads nothing it has
/// not written, so this is the zero slot and little else. An address
/// beyond the zero slot (a core whose addresses were never checked)
/// counts as a first read every time it is read.
fn first_reads<A: Copy + Into<u32>>(
    zero: A,
    events: impl IntoIterator<Item = (A, bool)>,
) -> Box<[A]> {
    let mut defined = vec![false; zero.into() as usize + 1];
    let mut clear = Vec::new();
    for (a, reads) in std::iter::once((zero, true)).chain(events) {
        let first =
            (defined.get_mut(a.into() as usize)).is_none_or(|d| !std::mem::replace(d, true));
        if first && reads {
            clear.push(a);
        }
    }
    clear.into()
}

/// A whole core program in lane-word threaded-code form; see the module
/// docs.
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
    /// State words a cycle may read before it writes them — the zero
    /// slot first — cleared at the start of every execution, which then
    /// never observes what the recycled scratch held.
    clear: Box<[u32]>,
}

impl CompiledCore {
    /// Lowers a decoded core. Pure and total: lowering copies state
    /// addresses, it never follows one. Execution indexes a `width + 1`
    /// word state with them, so a core whose addresses were not checked
    /// against its width ([`PackedCore::lower`] does; so the machine's
    /// cores are) panics there instead.
    pub fn lower(dec: &DecodedCore) -> CompiledCore {
        let (immediate, deferred) = lower_writes(dec);
        CompiledCore::assemble(
            dec.width,
            dec.reads
                .iter()
                .map(|r| (r.global, u32::from(r.state)))
                .collect(),
            // Constant-zero gather slots load from the extra state slot
            // at index `width` (cleared by the executor below; a checked
            // core's writebacks stay below `width`). The layer gather is
            // a plain indexed load — it has no compare against the
            // sentinel — so this is what makes a layer executable.
            dec.layers
                .iter()
                .map(|l| {
                    let mut comp = CompiledLayer::lower(l);
                    comp.redirect_consts(dec.width);
                    comp
                })
                .collect(),
            immediate,
            deferred,
        )
    }

    /// A core from its lowered parts, with the `clear` list they imply.
    fn assemble(
        width: u32,
        reads: Box<[(u32, u32)]>,
        layers: Box<[CompiledLayer]>,
        immediate: Box<[CompiledWrite]>,
        deferred: Box<[CompiledWrite]>,
    ) -> CompiledCore {
        let stores = reads.iter().map(|&(_, s)| (s, false));
        let layer_events = layers.iter().flat_map(|l| {
            let gathers = l.perm.iter().map(|&a| (a, true));
            let writebacks = l.folds.iter().flat_map(|f| f.writeback.iter());
            gathers.chain(writebacks.map(|&(_, a)| (u32::from(a), false)))
        });
        let publishes = immediate.iter().chain(deferred.iter());
        let publishes = publishes
            .filter(|w| w.addr != WRITE_CONST)
            .map(|w| (w.addr, true));
        let clear = first_reads(width, stores.chain(layer_events).chain(publishes));
        CompiledCore {
            width,
            reads,
            layers,
            immediate,
            deferred,
            clear,
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
        let Scratch {
            state, row, next, ..
        } = scratch;
        // Grow-only, like the row buffers: what a cycle reads before it
        // writes is cleared, the zero slot past the core width (which
        // the redirected constant leaves read, see `lower`) first.
        let words = self.width as usize + 1;
        if state.len() < words {
            state.resize(words, 0);
        }
        let state = &mut state[..words];
        for &a in self.clear.iter() {
            state[a as usize] = 0;
        }
        for &(g, s) in self.reads.iter() {
            state[s as usize] = global[g as usize];
        }
        for layer in self.layers.iter() {
            layer.execute_words_into(state, row, next);
        }
        publish(&self.immediate, state, imm_out);
        publish(&self.deferred, state, def_out);
    }
}

/// One pre-resolved `WRITE_GLOBAL` entry of a [`PackedCore`]: as
/// [`CompiledWrite`] with the address in the type that indexes a
/// [`ByteState`]; a constant reads the zero slot, so publishing neither
/// branches nor checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PackedWrite {
    global: u32,
    addr: u16,
    xor: Word,
}

/// A whole core program in signal-packed form — what a one-lane machine
/// runs; see the module docs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedCore {
    /// The always-zero state slot: the core width.
    zero: u16,
    reads: Box<[(u32, u16)]>,
    layers: Box<[PackedLayer]>,
    immediate: Box<[PackedWrite]>,
    deferred: Box<[PackedWrite]>,
    /// As [`CompiledCore`]'s: the state bytes cleared at the start of
    /// every execution.
    clear: Box<[u16]>,
}

impl PackedCore {
    /// Lowers a decoded core, or returns `None` if anything in it
    /// addresses state at or beyond the core width (which must itself
    /// fit the 16-bit tables; see [`PackedLayer::lower`]).
    pub fn lower(dec: &DecodedCore) -> Option<PackedCore> {
        let zero = u16::try_from(dec.width).ok()?;
        let addr = |a: u16| (a < zero).then_some(a);
        let layers = dec
            .layers
            .iter()
            .map(|l| PackedLayer::lower(l, dec.width))
            .collect::<Option<Box<[PackedLayer]>>>()?;
        let reads = dec
            .reads
            .iter()
            .map(|r| Some((r.global, addr(r.state)?)))
            .collect::<Option<Box<[(u32, u16)]>>>()?;
        let write = |w: &WriteEntry| {
            let (addr, xor) = match w.src {
                WriteSrc::State { addr: a, invert } => (addr(a)?, splat(invert)),
                WriteSrc::Const(c) => (zero, splat(c)),
            };
            Some(PackedWrite {
                global: w.global,
                addr,
                xor,
            })
        };
        let list = |deferred: bool| {
            dec.writes
                .iter()
                .filter(|w| w.deferred == deferred)
                .map(write)
                .collect::<Option<Box<[PackedWrite]>>>()
        };
        let (immediate, deferred) = (list(false)?, list(true)?);
        let stores = reads.iter().map(|&(_, s)| (s, false));
        let layer_events = layers.iter().flat_map(|l| {
            let gathers = l.gathered().iter().map(|&a| (a, true));
            gathers.chain(l.written().map(|a| (a, false)))
        });
        let publishes = immediate
            .iter()
            .chain(deferred.iter())
            .map(|w| (w.addr, true));
        let clear = first_reads(zero, stores.chain(layer_events).chain(publishes));
        Some(PackedCore {
            zero,
            reads,
            layers,
            immediate,
            deferred,
            clear,
        })
    }

    /// The lane-word form of the same core: exactly what
    /// [`CompiledCore::lower`] makes of the decoded program this was
    /// lowered from. Its `clear` list is its own: the packed form gathers
    /// a prefix of every layer's leaves, the lane-word form only the
    /// live ones.
    pub fn widen(&self) -> CompiledCore {
        let writes = |list: &[PackedWrite]| {
            list.iter()
                .map(|w| CompiledWrite {
                    global: w.global,
                    addr: if w.addr == self.zero {
                        WRITE_CONST
                    } else {
                        u32::from(w.addr)
                    },
                    xor: w.xor,
                })
                .collect()
        };
        CompiledCore::assemble(
            u32::from(self.zero),
            self.reads.iter().map(|&(g, s)| (g, u32::from(s))).collect(),
            self.layers.iter().map(PackedLayer::widen).collect(),
            writes(&self.immediate),
            writes(&self.deferred),
        )
    }

    /// Boomerang layers in the core program.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// Executes one cycle of the core for the simulation in bit 0 of
    /// every `global` word, which must all be splats; appends exactly
    /// what [`CompiledCore::execute_words_into`] would. Nothing the
    /// recycled `scratch` holds on entry is observed.
    pub fn execute_into(
        &self,
        global: &[Word],
        scratch: &mut Scratch,
        imm_out: &mut Vec<(u32, Word)>,
        def_out: &mut Vec<(u32, Word)>,
    ) {
        let Scratch {
            bytes, row, next, ..
        } = scratch;
        for &a in self.clear.iter() {
            bytes.set(a, false);
        }
        for &(g, s) in self.reads.iter() {
            bytes.set(s, global[g as usize] & 1 == 1);
        }
        for layer in self.layers.iter() {
            layer.execute_into(bytes, row, next);
        }
        let publish = |w: &PackedWrite| (w.global, bytes.splat(w.addr) ^ w.xor);
        imm_out.extend(self.immediate.iter().map(publish));
        def_out.extend(self.deferred.iter().map(publish));
    }
}

/// Reusable per-thread execution buffers: the core state of each form
/// (lane words for [`CompiledCore`], bytes for [`PackedCore`]) and two
/// fold rows — the packed form ping-pongs between them, the lane-word
/// form holds every level of a layer in the first. Capacity survives
/// across cores and cycles, so steady-state execution performs no heap
/// allocation inside the fold network.
#[derive(Debug, Default)]
pub struct Scratch {
    state: Vec<Word>,
    bytes: ByteState,
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
    use gem_place::{BoomerangLayer, PermSource, Plane};

    fn sample_core() -> DecodedCore {
        let mut layer = BoomerangLayer::new(4);
        layer.set_perm(0, PermSource::State(0));
        layer.set_perm(1, PermSource::State(1));
        layer.set_writeback(0, 0, Some(2));
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
        narrow.layers[0].set_perm(1, PermSource::ConstFalse);
        narrow.layers[0].set_const(0, Plane::Xb, 0, true); // out = a & !const
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
    fn packed_core_publishes_what_the_lane_word_core_does() {
        let packed = PackedCore::lower(&sample_core()).expect("lowers");
        assert_eq!(packed.widen(), CompiledCore::lower(&sample_core()));
        assert_eq!(packed.depth(), 1);
        for (a, b) in [(false, false), (true, false), (false, true), (true, true)] {
            let mut global: Vec<Word> = vec![0; 9];
            global[5] = splat(a);
            global[6] = splat(b);
            let (mut imm, mut def) = (Vec::new(), Vec::new());
            with_scratch(|s| packed.execute_into(&global, s, &mut imm, &mut def));
            assert_eq!(imm, vec![(7, splat(!(a && b)))]);
            assert_eq!(def, vec![(8, Word::MAX)]);
            let (mut wide_imm, mut wide_def) = (Vec::new(), Vec::new());
            with_scratch(|s| {
                packed
                    .widen()
                    .execute_words_into(&global, s, &mut wide_imm, &mut wide_def)
            });
            assert_eq!((imm, def), (wide_imm, wide_def));
        }
    }

    /// A wider core that fills the scratch state with ones, and a core
    /// that gathers state 1 before defining it and publishes state 3,
    /// which nothing defines, beside a constant leaf and a constant
    /// publish. Run after the first, the second must publish
    /// [`STALE_FREE_IMM`] and [`STALE_FREE_DEF`].
    fn stale_scratch_cores() -> (DecodedCore, DecodedCore) {
        let mut dirty = sample_core();
        dirty.width = 8;
        dirty.layers = vec![];
        dirty.reads = (0..8).map(|state| ReadEntry { global: 6, state }).collect();
        let mut core = sample_core();
        core.reads.truncate(1); // state 1 is now undefined: a & 0
        core.layers[0].set_const(0, Plane::Xb, 0, true); // ... a & !0 = a
        core.layers[0].set_perm(2, PermSource::State(1)); // once more,
        core.layers[0].set_perm(3, PermSource::ConstFalse); // against const
        core.layers[0].set_const(0, Plane::Xa, 1, true);
        core.layers[0].set_const(0, Plane::Xb, 1, true); // !s1 & !0 = 1
        core.layers[0].set_writeback(0, 1, Some(1));
        core.writes.push(WriteEntry {
            global: 4,
            src: WriteSrc::State {
                addr: 1,
                invert: false,
            },
            deferred: false,
        });
        core.writes.push(WriteEntry {
            global: 3,
            src: WriteSrc::State {
                addr: 3,
                invert: false,
            },
            deferred: false,
        });
        (dirty, core)
    }

    /// What the second core of [`stale_scratch_cores`] publishes from
    /// [`stale_global`] when it observes no stale state.
    const STALE_FREE_IMM: [(u32, Word); 3] = [(7, 0), (4, Word::MAX), (3, 0)];
    const STALE_FREE_DEF: [(u32, Word); 1] = [(8, Word::MAX)];

    /// The globals both cores of [`stale_scratch_cores`] run on.
    fn stale_global() -> Vec<Word> {
        let mut global: Vec<Word> = vec![0; 9];
        global[5] = Word::MAX;
        global[6] = Word::MAX;
        global
    }

    /// The packed form does not zero its state bytes; it clears what a
    /// cycle may read before writing. A gather from, and a publish of,
    /// state nothing in the core defines must still read zero after the
    /// recycled scratch held a wider core's ones there and above this
    /// core's width — and so must the zero slot behind a constant leaf
    /// and a constant publish.
    #[test]
    fn packed_core_never_reads_stale_scratch() {
        let (dirty, core) = stale_scratch_cores();
        let global = stale_global();
        let mut scratch = Scratch::default();
        let (mut imm, mut def) = (Vec::new(), Vec::new());
        let dirty = PackedCore::lower(&dirty).expect("lowers");
        let core = PackedCore::lower(&core).expect("lowers");
        // Zero slot, then the two undefined reads in program order: the
        // gather of state 1 and the publish of state 3; state 1 is
        // published after its writeback, defined by then.
        assert_eq!(&*core.clear, &[4, 1, 3]);
        for _ in 0..2 {
            dirty.execute_into(&global, &mut scratch, &mut imm, &mut def);
            imm.clear();
            def.clear();
            core.execute_into(&global, &mut scratch, &mut imm, &mut def);
            assert_eq!(imm, STALE_FREE_IMM);
            assert_eq!(def, STALE_FREE_DEF);
        }
    }

    /// The lane-word twin: its state words are not zero-filled either,
    /// and the same reads must see zero through the same recycled
    /// scratch — lowered directly and widened alike.
    #[test]
    fn compiled_core_never_reads_stale_scratch() {
        let (dirty, core) = stale_scratch_cores();
        let global = stale_global();
        let mut scratch = Scratch::default();
        let (mut imm, mut def) = (Vec::new(), Vec::new());
        let dirty = CompiledCore::lower(&dirty);
        let widened = PackedCore::lower(&core).expect("lowers").widen();
        let core = CompiledCore::lower(&core);
        assert_eq!(widened, core);
        assert_eq!(&*core.clear, &[4, 1, 3]);
        for _ in 0..2 {
            dirty.execute_words_into(&global, &mut scratch, &mut imm, &mut def);
            imm.clear();
            def.clear();
            core.execute_words_into(&global, &mut scratch, &mut imm, &mut def);
            assert_eq!(imm, STALE_FREE_IMM);
            assert_eq!(def, STALE_FREE_DEF);
        }
    }

    #[test]
    fn packed_core_refuses_state_beyond_the_core() {
        let mut core = sample_core();
        core.reads[0].state = 4;
        assert_eq!(PackedCore::lower(&core), None, "read");
        let mut core = sample_core();
        core.writes[0].src = WriteSrc::State {
            addr: 4,
            invert: false,
        };
        assert_eq!(PackedCore::lower(&core), None, "write");
        let mut core = sample_core();
        core.layers[0].set_writeback(1, 0, Some(4));
        assert_eq!(PackedCore::lower(&core), None, "layer");
        let mut core = sample_core();
        core.width = 1 << 16;
        assert_eq!(PackedCore::lower(&core), None, "width");
    }
}
