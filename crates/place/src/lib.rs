//! Logic placement onto boomerang-shaped executor layers (paper §III-A
//! Fig 3, §III-D Fig 6, Algorithm 2).
//!
//! Each virtual Boolean processor core holds up to 8192 bits of state and
//! executes a sequence of **boomerang layers**. A layer starts with a bit
//! permutation that gathers 8192 state bits into a working row, then folds
//! the row 13 times: fold level *k* halves the row, each output slot
//! computing
//!
//! ```text
//! out = (A ^ xa) & ((B ^ xb) | ob)
//! ```
//!
//! from its two child slots, with per-slot constant bits `xa`, `xb`, `ob`.
//! Inverters are free (absorbed into the XOR masks) and `ob = 1` bypasses
//! the B operand so a value can ride up the pyramid unchanged (the dashed
//! lines of Fig 6). Every slot's output may be written back to core state,
//! making it available to later layers.
//!
//! A single layer therefore absorbs up to 13 logic levels with **one**
//! permutation/synchronization, where a levelized executor would pay one
//! per level — the >5× reduction the paper measures for deep long-tailed
//! logic.
//!
//! [`place_partition`] implements the iterative timing-driven bit
//! placement of Algorithm 2 and returns a [`CoreProgram`] that can be
//! executed directly ([`CoreProgram::evaluate`]) or assembled into the GEM
//! bitstream by `gem-isa`.

#![deny(unsafe_code)]

pub mod compiled;
#[cfg(test)]
mod dense;
pub mod layer;
pub mod packed;
pub mod placer;

pub use compiled::{CompiledLayer, FoldOp, PERM_CONST};
pub use layer::{
    splat, BoomerangLayer, CoreProgram, FoldConsts, OutputSource, PermSource, Plane, Word,
};
pub use packed::{ByteState, PackedLayer};
pub use placer::{place_partition, place_partition_counted, PlaceError, PlaceOptions, PlaceStats};

/// Default core width in bits (256 GPU threads × 32-bit words).
pub const CORE_WIDTH: u32 = 8192;

#[cfg(test)]
pub(crate) mod testutil {
    use crate::dense::DenseLayer;
    use crate::BoomerangLayer;

    /// splitmix64: the unit tests' generator of random layers and states.
    pub fn xorshift(x: &mut u64) -> u64 {
        *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A random layer over state addresses `0..addrs`: a quarter of the
    /// leaves constant, one slot in `bypass_in` bypassed, one slot in
    /// `write_in` written back (`0` = no writeback anywhere). Few
    /// addresses and many writebacks make the writebacks alias.
    pub fn random_layer(
        x: &mut u64,
        width: u32,
        addrs: u32,
        bypass_in: u64,
        write_in: u64,
    ) -> BoomerangLayer {
        DenseLayer::random(x, width, addrs, bypass_in, write_in).compact()
    }

    /// Calls `check(layer, x, what)` on random layers of every width the
    /// ISA allows a core (2 … 8192) × {`width` addresses, five — so every
    /// address aliases} × {writeback-dense, …, one writeback in about
    /// `width` slots (most of the row dead), none} × {one slot in 2, 3,
    /// 16 bypassed}: the matrix both lowered forms are held to the
    /// scalar spec over.
    pub fn for_each_spec_layer(
        x: &mut u64,
        mut check: impl FnMut(&BoomerangLayer, &mut u64, &str),
    ) {
        for_each_spec_dense(x, |dense, x, what| check(&dense.compact(), x, what));
    }

    /// [`for_each_spec_layer`] in the dense reference layout.
    pub fn for_each_spec_dense(x: &mut u64, mut check: impl FnMut(&DenseLayer, &mut u64, &str)) {
        for log in 1..=13u32 {
            let width = 1u32 << log;
            for addrs in [width, width.min(5)] {
                for write_in in [2, 16, u64::from(width), 4 * u64::from(width), 0] {
                    for bypass_in in [2, 3, 16] {
                        let layer = DenseLayer::random(x, width, addrs, bypass_in, write_in);
                        let what = format!(
                            "width {width}, {addrs} addresses, \
                             1 in {write_in} written, 1 in {bypass_in} bypassed"
                        );
                        check(&layer, x, &what);
                    }
                }
            }
        }
    }
}
