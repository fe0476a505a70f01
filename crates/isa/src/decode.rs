//! Bitstream disassembly (the loader half of the virtual machine).

use crate::{init_bits, io_bits, io_entries, perm_words, wb_entries, wide_bits};
use crate::{ReadEntry, WriteEntry, WriteSrc};
use gem_place::{BoomerangLayer, PermSource, Plane};
use std::fmt;

/// Errors from [`disassemble_core`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The program is shorter than its headers claim.
    Truncated,
    /// Bad magic word at the start of `INIT`.
    BadMagic(u32),
    /// A field holds an impossible value; the string names it.
    BadField(String),
    /// The buffer holds this many bytes beyond the encoded program
    /// (strict decoding only; see [`disassemble_core_exact`]).
    TrailingBytes(usize),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "truncated core program"),
            DecodeError::BadMagic(m) => write!(f, "bad INIT magic {m:#010x}"),
            DecodeError::BadField(s) => write!(f, "bad field: {s}"),
            DecodeError::TrailingBytes(n) => {
                write!(f, "{n} trailing byte(s) after the core program")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// A decoded core program, structurally equivalent to the
/// [`gem_place::CoreProgram`] it was assembled from (minus node identities,
/// which live in the compiler's binding tables).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodedCore {
    /// Core width.
    pub width: u32,
    /// State bits used.
    pub state_size: u32,
    /// Global loads.
    pub reads: Vec<ReadEntry>,
    /// Boomerang layers.
    pub layers: Vec<BoomerangLayer>,
    /// Global stores.
    pub writes: Vec<WriteEntry>,
}

struct BitReader<'a> {
    bytes: &'a [u8],
    bit: usize,
    /// One bit per step: the reference the byte-wise path is held to.
    #[cfg(test)]
    bitwise: bool,
}

impl<'a> BitReader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        BitReader {
            bytes,
            bit: 0,
            #[cfg(test)]
            bitwise: false,
        }
    }

    #[cfg(test)]
    fn read_bit(&mut self) -> Result<bool, DecodeError> {
        let byte = self.bit / 8;
        if byte >= self.bytes.len() {
            return Err(DecodeError::Truncated);
        }
        let v = (self.bytes[byte] >> (self.bit % 8)) & 1 == 1;
        self.bit += 1;
        Ok(v)
    }

    /// Reads `n <= 64` bits, least significant first, up to a byte per
    /// step. A field that runs past the buffer is `Truncated` as a whole.
    fn read_bits(&mut self, n: usize) -> Result<u64, DecodeError> {
        #[cfg(test)]
        if self.bitwise {
            let mut v = 0u64;
            for i in 0..n {
                if self.read_bit()? {
                    v |= 1 << i;
                }
            }
            return Ok(v);
        }
        if self.bit + n > self.bytes.len() * 8 {
            return Err(DecodeError::Truncated);
        }
        let mut v = 0u64;
        let mut got = 0;
        while got < n {
            let off = self.bit % 8;
            let take = (8 - off).min(n - got);
            let bits = (self.bytes[self.bit / 8] >> off) & (u8::MAX >> (8 - take));
            v |= u64::from(bits) << got;
            got += take;
            self.bit += take;
        }
        Ok(v)
    }

    fn seek(&mut self, bit: usize) -> Result<(), DecodeError> {
        if bit > self.bytes.len() * 8 {
            return Err(DecodeError::Truncated);
        }
        self.bit = bit;
        Ok(())
    }
}

/// Reconstructs one boomerang layer from its `PERMUTE`/`FOLD`/`WRITEBACK`
/// words, starting at word-aligned bit `cursor`. Returns the layer and
/// the cursor one past its last word.
///
/// This is the *only* layer-reconstruction path in the workspace: the
/// decoder (and through it the static verifier's round-trip check) both
/// go through it, so the two can never disagree about the word layout.
fn read_layer(
    r: &mut BitReader<'_>,
    mut cursor: usize,
    width: u32,
    folds: usize,
) -> Result<(BoomerangLayer, usize), DecodeError> {
    let mut layer = BoomerangLayer::new(width);
    let pw = perm_words(width);
    let codes_per_word = (width as usize).div_ceil(pw);
    let mut idx = 0usize;
    for _ in 0..pw {
        let word_base = cursor;
        for _ in 0..codes_per_word.min(width as usize - idx) {
            let code = r.read_bits(16)? as u16;
            layer.set_perm(idx, PermSource::from_code(code));
            idx += 1;
        }
        cursor = word_base + wide_bits(width);
        r.seek(cursor)?;
    }
    // FOLD word: each level's planes, a word at a time.
    let fold_base = cursor;
    for k in 0..folds {
        let slots = (width >> (k + 1)) as usize;
        for p in [Plane::Xa, Plane::Xb, Plane::Ob] {
            for i in 0..slots.div_ceil(64) {
                let word = r.read_bits((slots - 64 * i).min(64))?;
                layer.set_plane_word(k, p, i, word);
            }
        }
    }
    r.seek(fold_base + wide_bits(width) - 32)?;
    let wb_words = r.read_bits(32)? as usize;
    cursor = fold_base + wide_bits(width);
    r.seek(cursor)?;
    let mut writebacks = Vec::new();
    for _ in 0..wb_words {
        let word_base = cursor;
        let count = r.read_bits(32)? as usize;
        if count > wb_entries(width).max(1) {
            return Err(DecodeError::BadField(format!("wb count {count}")));
        }
        for _ in 0..count {
            let level = r.read_bits(5)? as usize;
            let slot = r.read_bits(14)? as usize;
            let addr = r.read_bits(13)? as u16;
            if level == 0 || level > folds || slot >= (width as usize >> level) {
                return Err(DecodeError::BadField(format!(
                    "writeback level {level} slot {slot}"
                )));
            }
            writebacks.push((level - 1, slot, addr));
        }
        cursor = word_base + wide_bits(width);
        r.seek(cursor)?;
    }
    layer.set_writebacks(writebacks);
    Ok((layer, cursor))
}

/// Reads `n` layers of width `width` from `bytes` a bit at a time,
/// setting each slot through the layer's setters: the reference decoder
/// that `crate::dense` holds [`read_layer`] to.
#[cfg(test)]
pub(crate) fn read_dense_layers(
    bytes: &[u8],
    width: u32,
    n: usize,
) -> Result<Vec<BoomerangLayer>, DecodeError> {
    let mut r = BitReader {
        bitwise: true,
        ..BitReader::new(bytes)
    };
    let folds = width.trailing_zeros() as usize;
    let mut cursor = 0;
    let mut layers = Vec::new();
    for _ in 0..n {
        let mut layer = BoomerangLayer::new(width);
        let pw = perm_words(width);
        let codes_per_word = (width as usize).div_ceil(pw);
        let mut idx = 0usize;
        for _ in 0..pw {
            let word_base = cursor;
            for _ in 0..codes_per_word.min(width as usize - idx) {
                let code = r.read_bits(16)? as u16;
                let source = if code & 0x8000 != 0 {
                    PermSource::ConstFalse
                } else {
                    PermSource::State(code)
                };
                layer.set_perm(idx, source);
                idx += 1;
            }
            cursor = word_base + wide_bits(width);
            r.seek(cursor)?;
        }
        let fold_base = cursor;
        for k in 0..folds {
            for p in [Plane::Xa, Plane::Xb, Plane::Ob] {
                for j in 0..(width as usize >> (k + 1)) {
                    layer.set_const(k, p, j, r.read_bit()?);
                }
            }
        }
        r.seek(fold_base + wide_bits(width) - 32)?;
        let wb_words = r.read_bits(32)? as usize;
        cursor = fold_base + wide_bits(width);
        r.seek(cursor)?;
        for _ in 0..wb_words {
            let word_base = cursor;
            let count = r.read_bits(32)? as usize;
            if count > wb_entries(width).max(1) {
                return Err(DecodeError::BadField(format!("wb count {count}")));
            }
            for _ in 0..count {
                let level = r.read_bits(5)? as usize;
                let slot = r.read_bits(14)? as usize;
                let addr = r.read_bits(13)? as u16;
                if level == 0 || level > folds || slot >= (width as usize >> level) {
                    return Err(DecodeError::BadField(format!(
                        "writeback level {level} slot {slot}"
                    )));
                }
                layer.set_writeback(level - 1, slot, Some(addr));
            }
            cursor = word_base + wide_bits(width);
            r.seek(cursor)?;
        }
        layers.push(layer);
    }
    Ok(layers)
}

/// Disassembles one core program produced by [`crate::assemble_core`].
///
/// Trailing bytes after the encoded program are tolerated (the container
/// stores exact lengths, but a raw byte slice may be padded); use
/// [`disassemble_core_exact`] to reject them.
///
/// # Errors
///
/// Returns a [`DecodeError`] on malformed input.
pub fn disassemble_core(bytes: &[u8]) -> Result<DecodedCore, DecodeError> {
    disassemble_inner(bytes).map(|(dec, _)| dec)
}

/// Like [`disassemble_core`], but additionally requires the buffer to end
/// exactly where the encoded program does.
///
/// # Errors
///
/// Returns [`DecodeError::TrailingBytes`] when the buffer is longer than
/// the program, in addition to the lenient decoder's errors.
pub fn disassemble_core_exact(bytes: &[u8]) -> Result<DecodedCore, DecodeError> {
    let (dec, bits) = disassemble_inner(bytes)?;
    let consumed = bits.div_ceil(8);
    if consumed != bytes.len() {
        return Err(DecodeError::TrailingBytes(bytes.len() - consumed));
    }
    Ok(dec)
}

fn disassemble_inner(bytes: &[u8]) -> Result<(DecodedCore, usize), DecodeError> {
    disassemble_from(BitReader::new(bytes))
}

fn disassemble_from(mut r: BitReader<'_>) -> Result<(DecodedCore, usize), DecodeError> {
    // A header count reserves no more entries than the bits left could
    // encode, so a corrupt count is `Truncated`, not a giant allocation.
    let total_bits = r.bytes.len() * 8;
    let fits = |n: usize, cursor: usize, bits_each: usize| n.min((total_bits - cursor) / bits_each);
    let magic = r.read_bits(32)? as u32;
    if magic != u32::from_le_bytes(*b"GEMB") {
        return Err(DecodeError::BadMagic(magic));
    }
    let width = r.read_bits(32)? as u32;
    // The widest core the ISA encodes: a writeback's slot field is 14 bits.
    if !width.is_power_of_two() || !(2..=1 << 15).contains(&width) {
        return Err(DecodeError::BadField(format!("width {width}")));
    }
    let state_size = r.read_bits(32)? as u32;
    let num_layers = r.read_bits(32)? as usize;
    let n_reads = r.read_bits(32)? as usize;
    let n_writes = r.read_bits(32)? as usize;
    let folds = r.read_bits(32)? as usize;
    if folds != width.trailing_zeros() as usize {
        return Err(DecodeError::BadField(format!("folds {folds}")));
    }
    let mut cursor = init_bits(width);
    r.seek(cursor)?;

    // Reads.
    let per_word = io_entries(width).max(1);
    let mut reads = Vec::with_capacity(fits(n_reads, cursor, 64));
    let read_words = n_reads.div_ceil(per_word);
    for wi in 0..read_words {
        let in_this = (n_reads - wi * per_word).min(per_word);
        for _ in 0..in_this {
            let global = r.read_bits(32)? as u32;
            let state = r.read_bits(16)? as u16;
            let _pad = r.read_bits(16)?;
            reads.push(ReadEntry { global, state });
        }
        cursor += io_bits(width);
        r.seek(cursor)?;
    }

    // Layers.
    let layer_bits = (perm_words(width) + 1) * wide_bits(width);
    let mut layers = Vec::with_capacity(fits(num_layers, cursor, layer_bits));
    for _ in 0..num_layers {
        let (layer, next) = read_layer(&mut r, cursor, width, folds)?;
        cursor = next;
        layers.push(layer);
    }

    // Writes.
    let mut writes = Vec::with_capacity(fits(n_writes, cursor, 64));
    let write_words = n_writes.div_ceil(per_word);
    for wi in 0..write_words {
        let in_this = (n_writes - wi * per_word).min(per_word);
        let word_base = cursor;
        for _ in 0..in_this {
            let global = r.read_bits(32)? as u32;
            let src_raw = r.read_bits(16)? as u16;
            let flags = r.read_bits(16)? as u16;
            let src = if src_raw & 0x8000 != 0 {
                WriteSrc::Const(src_raw & 1 == 1)
            } else {
                WriteSrc::State {
                    addr: src_raw & 0x1FFF,
                    invert: src_raw & (1 << 14) != 0,
                }
            };
            writes.push(WriteEntry {
                global,
                src,
                deferred: flags & 1 != 0,
            });
        }
        cursor = word_base + io_bits(width);
        r.seek(cursor)?;
    }

    Ok((
        DecodedCore {
            width,
            state_size,
            reads,
            layers,
            writes,
        },
        cursor,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assemble_core;
    use gem_place::{CoreProgram, OutputSource};

    fn sample_program(width: u32) -> CoreProgram {
        let folds = width.trailing_zeros() as usize;
        let mut layer = BoomerangLayer::new(width);
        layer.set_perm(0, PermSource::State(3));
        layer.set_perm(1, PermSource::State(1));
        layer.set_const(0, Plane::Xa, 0, true);
        layer.set_const(0, Plane::Ob, 0, true);
        if folds > 1 {
            layer.set_const(1, Plane::Xb, 0, true);
        }
        layer.set_writeback(0, 0, Some(5));
        let mut layer2 = BoomerangLayer::new(width);
        layer2.set_perm(2, PermSource::State(5));
        layer2.set_writeback(folds - 1, 0, Some(7));
        CoreProgram {
            width,
            state_size: 9,
            inputs: vec![(gem_aig::NodeId(1), 3), (gem_aig::NodeId(2), 1)],
            layers: vec![layer, layer2],
            outputs: vec![OutputSource::State {
                addr: 7,
                invert: true,
            }],
        }
    }

    #[test]
    fn round_trip_preserves_everything() {
        for width in [16u32, 64, 8192] {
            let prog = sample_program(width);
            let reads = vec![
                ReadEntry {
                    global: 10,
                    state: 3,
                },
                ReadEntry {
                    global: 11,
                    state: 1,
                },
            ];
            let writes = vec![WriteEntry {
                global: 42,
                src: WriteSrc::State {
                    addr: 7,
                    invert: true,
                },
                deferred: true,
            }];
            let bytes = assemble_core(&prog, &reads, &writes);
            let dec = disassemble_core(&bytes).expect("decodes");
            assert_eq!(dec.width, width);
            assert_eq!(dec.state_size, 9);
            assert_eq!(dec.reads, reads);
            assert_eq!(dec.writes, writes);
            assert_eq!(dec.layers, prog.layers, "width {width}");
        }
    }

    #[test]
    fn word_sizes_match_the_paper_at_full_width() {
        // Fig 7: 8192 / 16384 / 32768-bit instruction variants.
        assert_eq!(crate::init_bits(8192), 8192);
        assert_eq!(crate::io_bits(8192), 16384);
        assert_eq!(crate::wide_bits(8192), 32768);
        assert_eq!(crate::io_entries(8192), 256);
        assert_eq!(crate::perm_words(8192), 4);
    }

    #[test]
    fn program_size_formula() {
        let width = 64u32;
        let prog = sample_program(width);
        let bytes = assemble_core(&prog, &[], &[]);
        // INIT + 2 layers × (4 perm words + 1 fold word + 1 wb word).
        let expect_bits = crate::init_bits(width) + 2 * (4 + 1 + 1) * crate::wide_bits(width);
        assert_eq!(bytes.len() * 8, expect_bits);
    }

    #[test]
    fn bad_magic_rejected() {
        let bytes = vec![0u8; 1024];
        assert!(matches!(
            disassemble_core(&bytes),
            Err(DecodeError::BadMagic(0))
        ));
    }

    /// A width the ISA does not encode is a field error, not a layer the
    /// decoder cannot build: the slot field of a writeback is 14 bits.
    #[test]
    fn widths_beyond_the_isa_are_refused() {
        let mut bytes = assemble_core(&sample_program(64), &[], &[]);
        for log in [16u32, 17, 20] {
            bytes[4..8].copy_from_slice(&(1u32 << log).to_le_bytes());
            bytes[24..28].copy_from_slice(&log.to_le_bytes());
            assert_eq!(
                disassemble_core(&bytes),
                Err(DecodeError::BadField(format!("width {}", 1u32 << log)))
            );
        }
    }

    #[test]
    fn truncation_detected() {
        let prog = sample_program(64);
        let bytes = assemble_core(&prog, &[], &[]);
        assert!(matches!(
            disassemble_core(&bytes[..bytes.len() / 2]),
            Err(DecodeError::Truncated)
        ));
    }

    #[test]
    fn exact_decode_rejects_trailing_bytes() {
        let prog = sample_program(64);
        let mut bytes = assemble_core(&prog, &[], &[]);
        assert!(disassemble_core_exact(&bytes).is_ok());
        bytes.extend_from_slice(&[0u8; 3]);
        assert!(disassemble_core(&bytes).is_ok(), "lenient decode tolerates");
        assert_eq!(
            disassemble_core_exact(&bytes),
            Err(DecodeError::TrailingBytes(3))
        );
    }

    /// Pins the decoder's cursor walk (through the shared `read_layer`
    /// helper) against the closed-form size accounting in
    /// [`crate::core_size_bits`]: if either drifts, the verifier's budget
    /// check and the decoder would disagree about where words end.
    #[test]
    fn decoder_and_size_accounting_agree() {
        for width in [16u32, 64, 256, 8192] {
            let prog = sample_program(width);
            let reads: Vec<ReadEntry> = (0..5)
                .map(|i| ReadEntry {
                    global: i,
                    state: i as u16,
                })
                .collect();
            let writes = vec![WriteEntry {
                global: 3,
                src: WriteSrc::Const(true),
                deferred: false,
            }];
            let bytes = assemble_core(&prog, &reads, &writes);
            let dec = disassemble_core_exact(&bytes).expect("decodes with no slack");
            let wb_counts: Vec<usize> = dec.layers.iter().map(|l| l.writeback_count()).collect();
            let expect = crate::core_size_bits(width, reads.len(), writes.len(), &wb_counts);
            assert_eq!(bytes.len() * 8, expect, "width {width}");
        }
    }

    /// Decode → canonical re-encode must reproduce the encoder's bytes
    /// bit-for-bit (the verifier's round-trip invariant).
    #[test]
    fn reencode_of_decoded_core_is_identical() {
        for width in [16u32, 64, 256] {
            let prog = sample_program(width);
            let reads = vec![ReadEntry {
                global: 7,
                state: 3,
            }];
            let writes = vec![WriteEntry {
                global: 9,
                src: WriteSrc::State {
                    addr: 7,
                    invert: false,
                },
                deferred: true,
            }];
            let bytes = assemble_core(&prog, &reads, &writes);
            let dec = disassemble_core(&bytes).expect("decodes");
            assert_eq!(crate::assemble_decoded(&dec), bytes, "width {width}");
        }
    }

    #[test]
    fn container_round_trip() {
        let prog = sample_program(16);
        let core = assemble_core(&prog, &[], &[]);
        let bs = crate::Bitstream {
            width: 16,
            global_bits: 99,
            stages: vec![vec![core.clone(), core.clone()], vec![core]],
        };
        let bytes = bs.to_bytes();
        let back = crate::Bitstream::from_bytes(&bytes).expect("parses");
        assert_eq!(back, bs);
        assert_eq!(back.total_cores(), 3);
        assert!(back.total_bytes() > 0);
        assert!(crate::Bitstream::from_bytes(&bytes[..5]).is_err());
    }

    /// [`disassemble_inner`] through the bit-at-a-time reader: the
    /// reference the byte-wise reader is held to.
    fn reference(bytes: &[u8]) -> Result<(DecodedCore, usize), DecodeError> {
        disassemble_from(BitReader {
            bitwise: true,
            ..BitReader::new(bytes)
        })
    }

    /// The container bytes of fuzz design `seed` compiled at `core_width`
    /// over four parts, or at four times the width if it does not fit.
    fn compiled(seed: u64, core_width: u32) -> Vec<u8> {
        let m = gem_sim::random_module(seed, &gem_sim::FuzzConfig::for_seed(seed));
        let opts = |core_width| gem_core::CompileOptions {
            core_width,
            target_parts: 4,
            ..Default::default()
        };
        gem_core::compile(&m, &opts(core_width))
            .or_else(|_| gem_core::compile(&m, &opts(4 * core_width)))
            .unwrap_or_else(|e| panic!("fuzz seed {seed}: compile failed: {e}"))
            .bitstream
            .to_bytes()
    }

    /// The byte-wise reader against its bit-at-a-time reference: random
    /// widths 1..=64, from a random starting bit offset,
    /// read through the end of a random buffer. Every read returns the
    /// same value, and the first one past the end the same error.
    #[test]
    fn read_bits_matches_the_bitwise_reference() {
        let mut rng = gem_sim::FuzzRng::new(0x8EAD);
        for case in 0..500 {
            let bytes: Vec<u8> = (0..rng.below(40)).map(|_| rng.next_u64() as u8).collect();
            let start = rng.below(bytes.len() as u64 * 8 + 1) as usize;
            let mut fast = BitReader::new(&bytes);
            let mut slow = BitReader {
                bitwise: true,
                ..BitReader::new(&bytes)
            };
            fast.seek(start).expect("in range");
            slow.seek(start).expect("in range");
            for step in 0.. {
                let n = 1 + rng.below(64) as usize;
                let (got, want) = (fast.read_bits(n), slow.read_bits(n));
                assert_eq!(got, want, "case {case} step {step}");
                if got.is_err() {
                    break;
                }
                assert_eq!(fast.bit, slow.bit, "case {case} step {step}");
            }
        }
    }

    /// Every prefix of a compiled 2048-wide core decodes as the reference
    /// decodes it — the same error at the same field, and the whole core
    /// to the same program — and the program re-encodes through the
    /// reference writer to the same bytes.
    #[test]
    fn every_prefix_of_a_2048_wide_core_decodes_as_the_reference_does() {
        let bs = crate::Bitstream::from_bytes(&compiled(11, 2048)).expect("own container");
        assert_eq!(bs.width, 2048);
        let core = bs
            .stages
            .iter()
            .flatten()
            .filter(|c| reference(c).is_ok_and(|(d, _)| !d.layers.is_empty()))
            .min_by_key(|c| c.len())
            .expect("a core with layers");
        for len in 0..=core.len() {
            let prefix = &core[..len];
            assert_eq!(
                disassemble_inner(prefix),
                reference(prefix),
                "{len}-byte prefix of {}",
                core.len()
            );
        }
        let dec = disassemble_core_exact(core).expect("decodes");
        assert_eq!(crate::encode::assemble_reference(&dec), *core);
    }

    /// Decoder totality over bit flips: 1–4 bits of a compiled core, or
    /// of a whole container, are flipped (half the time inside the first
    /// 32 bytes, where the headers and counts are). A core decodes exactly
    /// as the reference decodes it; a container parses or is refused, and
    /// every core it yields decodes as the reference does. No mutant may
    /// panic.
    fn flip_sweep(mutants: u64) {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let containers: Vec<Vec<u8>> = [(11, 64), (19, 256), (3, 2048)]
            .iter()
            .map(|&(seed, width)| compiled(seed, width))
            .collect();
        let cores: Vec<Vec<u8>> = containers
            .iter()
            .map(|c| crate::Bitstream::from_bytes(c).expect("own container"))
            .flat_map(|bs| bs.stages.into_iter().flatten())
            .collect();
        let same = |core: &[u8]| assert_eq!(disassemble_inner(core), reference(core));
        let mut rng = gem_sim::FuzzRng::new(0xF11B);
        for i in 0..mutants {
            let whole = rng.chance(1, 4);
            let mut bytes = if whole {
                containers[rng.below(containers.len() as u64) as usize].clone()
            } else {
                cores[rng.below(cores.len() as u64) as usize].clone()
            };
            for _ in 0..1 + rng.below(4) {
                let span = if rng.chance(1, 2) {
                    bytes.len().min(32)
                } else {
                    bytes.len()
                };
                let byte = rng.below(span as u64) as usize;
                bytes[byte] ^= 1 << rng.below(8);
            }
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                if !whole {
                    same(&bytes);
                } else if let Ok(bs) = crate::Bitstream::from_bytes(&bytes) {
                    bs.stages.iter().flatten().for_each(|c| same(c));
                }
            }));
            assert!(outcome.is_ok(), "mutant {i} (whole container: {whole})");
        }
    }

    #[test]
    fn decoder_is_total_on_flipped_bits() {
        flip_sweep(300);
    }

    #[test]
    #[ignore = "sweep: 10 000 mutants; run with --ignored in release"]
    fn decoder_is_total_on_flipped_bits_sweep() {
        flip_sweep(10_000);
    }
}
