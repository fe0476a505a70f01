//! The GEM virtual-VLIW instruction set and bitstream format (paper
//! §III-E, Fig 7).
//!
//! A compiled design is a *bitstream*: one program per virtual Boolean
//! processor core, organized by pipeline stage. Each core program is a
//! sequence of very long instruction words sized for a 256-thread GPU
//! block to load with fully-coalesced reads:
//!
//! | word            | bits (W = 8192)  | purpose |
//! |-----------------|------------------|---------|
//! | `INIT`          | W     = 8192     | layer/read/write counts, state size |
//! | `READ_GLOBAL`   | 2·W   = 16384    | (global bit → state bit) loads, once per cycle |
//! | `PERMUTE` ×4    | 4·W   = 32768    | 16-bit source codes for the W row bits |
//! | `FOLD`          | 4·W   = 32768    | xa/xb/ob constants for all 13 fold levels |
//! | `WRITEBACK` ×n  | 4·W   = 32768    | sparse (level, slot → state bit) stores |
//! | `WRITE_GLOBAL`  | 2·W   = 16384    | (state bit → global bit) publishes |
//!
//! An 8192-bit word is one coalesced 32-bit read per thread; the 16384-
//! and 32768-bit variants use 64- and 128-bit reads, exactly as in the
//! paper. The word sizes scale with the core width `W` so the format (and
//! the interpreter in `gem-vgpu`) also works at the small widths used in
//! tests; at the paper's W = 8192 the three sizes match Fig 7.
//!
//! The paper could not include full field layouts "due to page limit", so
//! the packing here is this reproduction's own, with instruction counts
//! and widths chosen to match the published word sizes (bitstream sizes in
//! Table I are therefore comparable).

#![deny(unsafe_code)]

pub mod decode;
#[cfg(test)]
mod dense;
pub mod encode;
pub mod mutate;
pub mod schedule;
pub mod verify;

pub use decode::{disassemble_core, disassemble_core_exact, DecodeError, DecodedCore};
pub use encode::{
    assemble_core, assemble_decoded, Bitstream, ContainerError, ReadEntry, WriteEntry, WriteSrc,
};
pub use schedule::{certify_schedule, ScheduleCert, CERT_VERSION};
pub use verify::{verify_bitstream, RamBinding, VerifyContext, VerifyReport};

/// Bits in an `INIT` word for core width `w` (floored so headers fit at
/// the tiny widths used in tests; equals `w` from `w = 256` up).
pub const fn init_bits(w: u32) -> usize {
    if (w as usize) < 256 {
        256
    } else {
        w as usize
    }
}

/// Bits in a `READ_GLOBAL`/`WRITE_GLOBAL` word (floored to one entry).
pub const fn io_bits(w: u32) -> usize {
    if 2 * (w as usize) < 64 {
        64
    } else {
        2 * w as usize
    }
}

/// Entries per `READ_GLOBAL`/`WRITE_GLOBAL` word (64 bits per entry).
pub const fn io_entries(w: u32) -> usize {
    io_bits(w) / 64
}

/// Bits in a `PERMUTE`/`FOLD`/`WRITEBACK` word (floored so the fold
/// constants plus their header fit at tiny test widths).
pub const fn wide_bits(w: u32) -> usize {
    if 4 * (w as usize) < 128 {
        128
    } else {
        4 * w as usize
    }
}

/// Number of `PERMUTE` words per layer (16 bits per row source).
pub const fn perm_words(w: u32) -> usize {
    (w as usize * 16).div_ceil(wide_bits(w))
}

/// Write-back entries per `WRITEBACK` word (32 bits per entry, one u32
/// count header).
pub const fn wb_entries(w: u32) -> usize {
    wide_bits(w) / 32 - 1
}

/// Exact encoded size, in bits, of a core program with the given
/// instruction counts (`layer_wb_entries[i]` = populated write-back
/// entries of layer `i`).
///
/// This is the single size-accounting authority shared by the encoder's
/// word emission, the decoder's cursor walk, and the static verifier's
/// budget check; `decode::tests::decoder_and_size_accounting_agree` pins
/// the three together.
pub fn core_size_bits(
    w: u32,
    n_reads: usize,
    n_writes: usize,
    layer_wb_entries: &[usize],
) -> usize {
    let per_io_word = io_entries(w).max(1);
    let mut bits = init_bits(w);
    bits += n_reads.div_ceil(per_io_word) * io_bits(w);
    for &wb in layer_wb_entries {
        let wb_words = wb.div_ceil(wb_entries(w).max(1));
        bits += (perm_words(w) + 1 + wb_words) * wide_bits(w);
    }
    bits += n_writes.div_ceil(per_io_word) * io_bits(w);
    bits
}
