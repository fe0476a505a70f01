//! Seeded random design generator for differential testing.
//!
//! Produces small synthesizable [`Module`]s — word-level datapaths with
//! registers and (optionally) both RAM flavors — from a single `u64`
//! seed, with **no external RNG dependency**: the generator is a
//! hand-rolled SplitMix64, per the workspace's fixed-seed test
//! convention. The same seed always yields the same design and the same
//! stimulus, so a failing seed printed by a fuzz test is a complete
//! reproducer.
//!
//! The intended consumer is the workspace's differential corpus
//! (`tests/differential.rs`): the compiled design on the virtual GPU at
//! 1, 4, 32 and 64 lanes, every lane bit-exact every cycle against a
//! golden [`crate::EaigSim`] run of its own stimulus stream.

use gem_netlist::{Bits, Module, ModuleBuilder, NetId, ReadKind};

/// Deterministic SplitMix64 stream, shared by the workspace's seeded
/// tests.
#[derive(Debug, Clone)]
pub struct FuzzRng(u64);

impl FuzzRng {
    /// Seeds the stream. Equal seeds produce equal streams.
    pub fn new(seed: u64) -> FuzzRng {
        FuzzRng(seed)
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`. `bound` must be non-zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    /// True with probability `num / den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.below(den) < num
    }

    /// A uniformly random bit vector of the given width.
    pub fn bits(&mut self, width: u32) -> Bits {
        let mut v = Bits::zeros(width);
        for i in 0..width {
            v.set_bit(i, self.next_u64() & 1 == 1);
        }
        v
    }
}

/// Knobs for [`random_module`]. [`FuzzConfig::for_seed`] derives a
/// varied-but-bounded configuration from the seed itself, which is what
/// the fuzz suite uses.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Input ports (≥ 1; widths are drawn per port).
    pub inputs: usize,
    /// Random combinational operators appended to the net pool.
    pub ops: usize,
    /// Flip-flop registers (fed back from random nets).
    pub ffs: usize,
    /// Memories (each gets one write port and one read port).
    pub mems: usize,
    /// Output ports sampled from the net pool (≥ 1).
    pub outputs: usize,
    /// Widest net the generator will create.
    pub max_width: u32,
    /// Give every memory a second, synchronous read port. A memory
    /// whose first port is sync too maps to RAM blocks (one array per
    /// read port); one whose first port is async is polyfilled.
    pub dual_read: bool,
}

impl FuzzConfig {
    /// Derives a configuration from a seed: small designs dominate
    /// (they compile fast, so the corpus covers more shapes), with the
    /// occasional wider/deeper one.
    pub fn for_seed(seed: u64) -> FuzzConfig {
        let mut r = FuzzRng::new(seed ^ 0xC0FFEE);
        FuzzConfig {
            inputs: 1 + r.below(4) as usize,
            ops: 6 + r.below(30) as usize,
            ffs: r.below(4) as usize,
            mems: r.below(3) as usize,
            outputs: 1 + r.below(3) as usize,
            max_width: 2 + r.below(15) as u32,
            dual_read: false,
        }
    }

    /// A RAM-heavy configuration: every design has at least one memory,
    /// and every memory carries a second, sync read port (`dual_read`).
    /// This is the corpus for the tier-1 RAM smoke — the plain
    /// [`FuzzConfig::for_seed`] corpus only has memories ~2/3 of the
    /// time and one read port per memory. About half of this corpus's
    /// memories have only sync ports and map to RAM blocks, where the
    /// RAM phase runs; the rest are polyfilled with flip-flops.
    pub fn ram_heavy(seed: u64) -> FuzzConfig {
        let mut r = FuzzRng::new(seed ^ 0x4A3);
        FuzzConfig {
            inputs: 1 + r.below(3) as usize,
            ops: 4 + r.below(16) as usize,
            ffs: r.below(3) as usize,
            mems: 1 + r.below(2) as usize,
            outputs: 1 + r.below(2) as usize,
            max_width: 2 + r.below(10) as u32,
            dual_read: true,
        }
    }
}

/// Generates a random valid module. Determinism contract: equal
/// `(seed, cfg)` always produces an identical module.
///
/// Construction is cycle-free by design — every operator only reads
/// nets that already exist, and feedback goes exclusively through
/// flip-flops or memories — so `finish()` cannot fail; the generator
/// would panic on a builder-validation bug rather than mask it.
pub fn random_module(seed: u64, cfg: &FuzzConfig) -> Module {
    let mut r = FuzzRng::new(seed);
    let mut b = ModuleBuilder::new("fuzz");
    // The pool of (net, width) pairs operators draw operands from.
    let mut pool: Vec<(NetId, u32)> = Vec::new();
    for i in 0..cfg.inputs.max(1) {
        let w = 1 + r.below(u64::from(cfg.max_width)) as u32;
        pool.push((b.input(format!("in{i}"), w), w));
    }
    // Registers are created first so combinational logic can read them;
    // their next-state nets are connected at the end, which is the only
    // feedback path and therefore keeps the module cycle-free.
    let mut ffs: Vec<(NetId, u32)> = Vec::new();
    for _ in 0..cfg.ffs {
        let w = 1 + r.below(u64::from(cfg.max_width)) as u32;
        let q = if r.chance(1, 2) {
            let init = r.bits(w);
            b.dff_init(init)
        } else {
            b.dff(w)
        };
        ffs.push((q, w));
        pool.push((q, w));
    }
    let pick = |r: &mut FuzzRng, pool: &[(NetId, u32)]| pool[r.below(pool.len() as u64) as usize];
    for _ in 0..cfg.ops {
        let (a, wa) = pick(&mut r, &pool);
        let (bn, _) = pick(&mut r, &pool);
        let bb = b.resize(bn, wa); // binary ops want matching widths
        let out = match r.below(13) {
            0 => (b.add(a, bb), wa),
            1 => (b.sub(a, bb), wa),
            2 => (b.and(a, bb), wa),
            3 => (b.or(a, bb), wa),
            4 => (b.xor(a, bb), wa),
            5 => (b.mul(a, bb), wa),
            6 => (b.eq(a, bb), 1),
            7 => (b.ult(a, bb), 1),
            8 => (b.not(a), wa),
            9 => {
                let sel = b.bit(bb, 0);
                let (f, _) = pick(&mut r, &pool);
                let f = b.resize(f, wa);
                (b.mux(sel, a, f), wa)
            }
            10 => {
                let lo = r.below(u64::from(wa)) as u32;
                let w = 1 + r.below(u64::from(wa - lo)) as u32;
                (b.slice(a, lo, w), w)
            }
            11 => {
                // A short shift amount keeps most shifts in range while
                // still exercising the overshift-to-zero path.
                let amt = b.resize(bb, 3);
                if r.chance(1, 2) {
                    (b.shl(a, amt), wa)
                } else {
                    (b.lshr(a, amt), wa)
                }
            }
            _ => {
                // Concat a random literal bit on top (widths drift up by
                // one; `ops` is bounded, so this stays small).
                let hi = b.lit(r.next_u64() & 1, 1);
                (b.concat(&[a, hi]), wa + 1)
            }
        };
        pool.push(out);
    }
    for (mi, _) in (0..cfg.mems).enumerate() {
        let words: u32 = if r.chance(1, 2) { 8 } else { 16 };
        let addr_bits = words.trailing_zeros();
        let w = 1 + r.below(u64::from(cfg.max_width)) as u32;
        let mem = b.memory(format!("m{mi}"), words, w);
        let (an, _) = pick(&mut r, &pool);
        let addr = b.resize(an, addr_bits);
        let (dn, _) = pick(&mut r, &pool);
        let data = b.resize(dn, w);
        let (en, _) = pick(&mut r, &pool);
        let we = b.bit(en, 0);
        b.write_port(mem, addr, data, we);
        let (ran, _) = pick(&mut r, &pool);
        let raddr = b.resize(ran, addr_bits);
        let kind = if r.chance(1, 2) {
            ReadKind::Sync
        } else {
            ReadKind::Async
        };
        let rd = b.read_port(mem, raddr, kind);
        pool.push((rd, w));
        if cfg.dual_read {
            let (ran2, _) = pick(&mut r, &pool);
            let raddr2 = b.resize(ran2, addr_bits);
            let rd2 = b.read_port(mem, raddr2, ReadKind::Sync);
            pool.push((rd2, w));
        }
    }
    // Close the register feedback loops from the full pool. Enables and
    // resets must be attached while the dff is still pending.
    for &(q, w) in &ffs {
        if r.chance(1, 3) {
            let (en, _) = pick(&mut r, &pool);
            let en = b.bit(en, 0);
            b.dff_enable(q, en);
        }
        if r.chance(1, 4) {
            let (rst, _) = pick(&mut r, &pool);
            let rst = b.bit(rst, 0);
            b.dff_reset(q, rst);
        }
        let (d, _) = pick(&mut r, &pool);
        let d = b.resize(d, w);
        b.connect_dff(q, d);
    }
    // Outputs: random pool picks, plus the last net so the deepest
    // logic cone is always observable (nothing dead-code-eliminates the
    // most interesting path).
    for i in 0..cfg.outputs.max(1) {
        let (n, _) = pick(&mut r, &pool);
        b.output(format!("out{i}"), n);
    }
    let last = pool.last().expect("pool is never empty").0;
    b.output("out_last", last);
    b.finish()
        .expect("generator construction is cycle-free and width-consistent")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_module() {
        let cfg = FuzzConfig::for_seed(7);
        let a = random_module(7, &cfg);
        let b = random_module(7, &cfg);
        assert_eq!(a.cells().len(), b.cells().len());
        assert_eq!(
            a.outputs().map(|p| p.name.clone()).collect::<Vec<_>>(),
            b.outputs().map(|p| p.name.clone()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn corpus_is_valid_and_varied() {
        let mut shapes = std::collections::HashSet::new();
        for seed in 0..40 {
            let cfg = FuzzConfig::for_seed(seed);
            let m = random_module(seed, &cfg);
            assert!(m.outputs().count() >= 1, "seed {seed} lost its outputs");
            shapes.insert((m.cells().len(), m.inputs().count()));
        }
        assert!(
            shapes.len() > 20,
            "generator collapsed to too few shapes: {shapes:?}"
        );
    }

    #[test]
    fn ram_heavy_memories_end_in_a_sync_read_port() {
        let mut all_sync = 0;
        let mut mems = 0;
        for seed in 0..15 {
            let cfg = FuzzConfig::ram_heavy(seed);
            assert!(cfg.mems >= 1, "seed {seed}: ram_heavy produced no mems");
            let m = random_module(seed, &cfg);
            assert_eq!(m.memories().len(), cfg.mems, "seed {seed}: lost a memory");
            for mem in m.memories() {
                // dual_read adds a sync port to every memory, so one whose
                // first port is sync maps to RAM blocks and one whose
                // first port is async is polyfilled.
                let kinds: Vec<_> = mem.read_ports.iter().map(|p| p.kind).collect();
                assert_eq!(kinds.len(), 2, "seed {seed} mem {}", mem.name);
                assert_eq!(kinds[1], ReadKind::Sync, "seed {seed} mem {}", mem.name);
                all_sync += usize::from(kinds[0] == ReadKind::Sync);
                mems += 1;
            }
        }
        // The band holds both: memories the RAM phase runs and
        // polyfilled ones.
        assert!(0 < all_sync && all_sync < mems, "{all_sync} of {mems}");
    }
}
