//! Bitstream assembly.

use crate::{core_size_bits, init_bits, io_bits, io_entries, perm_words, wb_entries, wide_bits};
use gem_place::{BoomerangLayer, CoreProgram, Plane};
use std::fmt;

/// One `READ_GLOBAL` entry: load global bit `global` into core state bit
/// `state` at the start of each cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadEntry {
    /// Index into the device-global signal array.
    pub global: u32,
    /// Core state address.
    pub state: u16,
}

/// The data source of a `WRITE_GLOBAL` entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteSrc {
    /// Core state bit, optionally inverted on the way out.
    State {
        /// Core state address.
        addr: u16,
        /// Invert on write.
        invert: bool,
    },
    /// Constant bit.
    Const(bool),
}

/// One `WRITE_GLOBAL` entry: publish a bit to the global signal array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteEntry {
    /// Destination index in the device-global signal array.
    pub global: u32,
    /// Where the bit comes from.
    pub src: WriteSrc,
    /// Deferred writes are committed at the end of the cycle (flip-flop
    /// next-states, outputs); immediate writes are visible to the next
    /// stage within the cycle (cut signals, RAM port operands).
    pub deferred: bool,
}

/// A bit-granular little-endian writer. `bytes` always holds exactly the
/// bytes `bit` has reached, the last one partly written.
#[derive(Debug, Default)]
struct BitWriter {
    bytes: Vec<u8>,
    bit: usize,
    /// One bit per step: the reference the byte-wise path is held to.
    #[cfg(test)]
    bitwise: bool,
}

impl BitWriter {
    fn pad_to(&mut self, bits: usize) {
        assert!(self.bit <= bits, "overflowed instruction word");
        self.bytes.resize(bits / 8, 0);
        self.bit = bits;
    }

    #[cfg(test)]
    fn push_bit(&mut self, v: bool) {
        let byte = self.bit / 8;
        if byte >= self.bytes.len() {
            self.bytes.push(0);
        }
        if v {
            self.bytes[byte] |= 1 << (self.bit % 8);
        }
        self.bit += 1;
    }

    /// Appends the low `n` bits of `v` (`n <= 64`), least significant
    /// first, up to a byte per step.
    fn push_bits(&mut self, mut v: u64, mut n: usize) {
        #[cfg(test)]
        if self.bitwise {
            for i in 0..n {
                self.push_bit((v >> i) & 1 == 1);
            }
            return;
        }
        while n > 0 {
            let off = self.bit % 8;
            if off == 0 {
                self.bytes.push(0);
            }
            let take = (8 - off).min(n);
            let last = self.bytes.len() - 1;
            self.bytes[last] |= (v as u8 & (u8::MAX >> (8 - take))) << off;
            v >>= take;
            n -= take;
            self.bit += take;
        }
    }

    /// Appends the first `slots` bits of one fold-constant plane, a
    /// word per step.
    fn push_plane(&mut self, plane: &[u64], slots: usize) {
        for (i, &word) in plane.iter().enumerate() {
            self.push_bits(word, (slots - 64 * i).min(64));
        }
    }
}

/// Assembles one core program into its binary form.
///
/// `reads` and `writes` are the resolved global-memory bindings (the
/// compiler in `gem-core` maps partition sources/sinks to global indices).
///
/// # Panics
///
/// Panics if the program's addresses exceed the field widths (state
/// addresses are 13-bit at the paper's core width).
pub fn assemble_core(prog: &CoreProgram, reads: &[ReadEntry], writes: &[WriteEntry]) -> Vec<u8> {
    assemble(
        BitWriter::default(),
        prog.width,
        prog.state_size,
        &prog.layers,
        reads,
        writes,
    )
}

/// [`assemble_core`] on the parts of a program the encoding carries,
/// borrowed — so that re-encoding a decoded core copies no layer.
fn assemble(
    mut out: BitWriter,
    w: u32,
    state_size: u32,
    layers: &[BoomerangLayer],
    reads: &[ReadEntry],
    writes: &[WriteEntry],
) -> Vec<u8> {
    let folds = w.trailing_zeros() as usize;
    // The buffer is sized once, exactly: a core holds no growth slack.
    let wb_counts: Vec<usize> = layers.iter().map(BoomerangLayer::writeback_count).collect();
    let bits = core_size_bits(w, reads.len(), writes.len(), &wb_counts);
    out.bytes.reserve_exact(bits / 8);

    // INIT word.
    let base = out.bit;
    out.push_bits(u64::from(u32::from_le_bytes(*b"GEMB")), 32);
    out.push_bits(w as u64, 32);
    out.push_bits(state_size as u64, 32);
    out.push_bits(layers.len() as u64, 32);
    out.push_bits(reads.len() as u64, 32);
    out.push_bits(writes.len() as u64, 32);
    out.push_bits(folds as u64, 32);
    out.pad_to(base + init_bits(w));

    // READ_GLOBAL words.
    let per_word = io_entries(w);
    for chunk in reads.chunks(per_word.max(1)) {
        let base = out.bit;
        for e in chunk {
            out.push_bits(e.global as u64, 32);
            out.push_bits(e.state as u64, 16);
            out.push_bits(0, 16);
        }
        out.pad_to(base + io_bits(w));
    }

    // Layers.
    for layer in layers {
        // PERMUTE words: 16-bit source codes, as the layer holds them.
        let codes = layer.perm_codes();
        for chunk in codes.chunks(codes.len().div_ceil(perm_words(w))) {
            let base = out.bit;
            for &code in chunk {
                out.push_bits(u64::from(code), 16);
            }
            out.pad_to(base + wide_bits(w));
        }
        // FOLD word: xa/xb/ob per level, then the writeback word count in
        // the top 32 bits.
        let base = out.bit;
        for k in 0..layer.fold_levels() {
            let fc = layer.fold(k);
            for p in [Plane::Xa, Plane::Xb, Plane::Ob] {
                out.push_plane(fc.plane(p), fc.slots());
            }
        }
        let wb: Vec<(u32, u32, u32)> = (0..layer.fold_levels())
            .flat_map(|k| {
                let level = k as u32 + 1;
                let slots = layer.writebacks(k).iter();
                slots.map(move |&(j, addr)| (level, u32::from(j), u32::from(addr)))
            })
            .collect();
        let wb_words = wb.len().div_ceil(wb_entries(w).max(1));
        out.pad_to(base + wide_bits(w) - 32);
        out.push_bits(wb_words as u64, 32);
        debug_assert_eq!(out.bit, base + wide_bits(w));
        // WRITEBACK words.
        for chunk in wb.chunks(wb_entries(w).max(1)) {
            let base = out.bit;
            out.push_bits(chunk.len() as u64, 32);
            for &(level, slot, addr) in chunk {
                assert!(level < 32 && slot < (1 << 14) && addr < (1 << 13));
                out.push_bits(level as u64, 5);
                out.push_bits(slot as u64, 14);
                out.push_bits(addr as u64, 13);
            }
            out.pad_to(base + wide_bits(w));
        }
    }

    // WRITE_GLOBAL words.
    for chunk in writes.chunks(per_word.max(1)) {
        let base = out.bit;
        for e in chunk {
            out.push_bits(e.global as u64, 32);
            let src: u16 = match e.src {
                WriteSrc::State { addr, invert } => {
                    assert!(addr < (1 << 13), "state address too wide");
                    addr | ((invert as u16) << 14)
                }
                WriteSrc::Const(v) => 0x8000 | v as u16,
            };
            out.push_bits(src as u64, 16);
            out.push_bits(e.deferred as u64, 16);
        }
        out.pad_to(base + io_bits(w));
    }

    debug_assert_eq!(out.bit, bits, "size accounting disagrees with the encoder");
    out.bytes
}

/// Re-assembles a decoded core into its canonical byte form.
///
/// [`assemble_core`] consumes only the program's width, state size, and
/// layers (source/sink bindings live in the `reads`/`writes` tables), so
/// a [`crate::DecodedCore`] — which carries exactly those plus the
/// tables — re-encodes without the compiler's node-identity metadata.
/// For any output of the encoder, `assemble_decoded(disassemble(x)) == x`;
/// the static verifier's round-trip check is built on this.
pub fn assemble_decoded(dec: &crate::DecodedCore) -> Vec<u8> {
    assemble(
        BitWriter::default(),
        dec.width,
        dec.state_size,
        &dec.layers,
        &dec.reads,
        &dec.writes,
    )
}

/// [`assemble_decoded`] through the bit-at-a-time writer: the reference
/// the byte-wise writer is held to.
#[cfg(test)]
pub(crate) fn assemble_reference(dec: &crate::DecodedCore) -> Vec<u8> {
    let out = BitWriter {
        bitwise: true,
        ..BitWriter::default()
    };
    assemble(
        out,
        dec.width,
        dec.state_size,
        &dec.layers,
        &dec.reads,
        &dec.writes,
    )
}

/// The layer words of `layers` written a bit at a time, reading each
/// slot through the layer's accessors: the reference the word-wise
/// encoder is held to (`crate::dense`).
#[cfg(test)]
pub(crate) fn assemble_dense_layers(w: u32, layers: &[BoomerangLayer]) -> Vec<u8> {
    use gem_place::PermSource;
    let mut out = BitWriter {
        bitwise: true,
        ..BitWriter::default()
    };
    for layer in layers {
        let pw = perm_words(w);
        let codes_per_word = (w as usize).div_ceil(pw);
        for word in 0..pw {
            let base = out.bit;
            let first = word * codes_per_word;
            for j in first..(first + codes_per_word).min(w as usize) {
                let code: u16 = match layer.perm(j) {
                    PermSource::State(a) => {
                        assert!(a < 0x8000, "state address too wide");
                        a
                    }
                    PermSource::ConstFalse => 0x8000,
                };
                out.push_bits(code as u64, 16);
            }
            out.pad_to(base + wide_bits(w));
        }
        let base = out.bit;
        for k in 0..layer.fold_levels() {
            let fc = layer.fold(k);
            for p in [Plane::Xa, Plane::Xb, Plane::Ob] {
                for j in 0..fc.slots() {
                    out.push_bit(fc.get(p, j));
                }
            }
        }
        let wb: Vec<(u32, u32, u32)> = (0..layer.fold_levels())
            .flat_map(|k| {
                (0..layer.fold(k).slots()).filter_map(move |j| {
                    layer
                        .writeback(k, j)
                        .map(|addr| (k as u32 + 1, j as u32, u32::from(addr)))
                })
            })
            .collect();
        let wb_words = wb.len().div_ceil(wb_entries(w).max(1));
        out.pad_to(base + wide_bits(w) - 32);
        out.push_bits(wb_words as u64, 32);
        for chunk in wb.chunks(wb_entries(w).max(1)) {
            let base = out.bit;
            out.push_bits(chunk.len() as u64, 32);
            for &(level, slot, addr) in chunk {
                assert!(level < 32 && slot < (1 << 14) && addr < (1 << 13));
                out.push_bits(level as u64, 5);
                out.push_bits(slot as u64, 14);
                out.push_bits(addr as u64, 13);
            }
            out.pad_to(base + wide_bits(w));
        }
    }
    out.bytes
}

/// A complete compiled design: per-stage core programs plus the global
/// signal-space size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitstream {
    /// Core width all programs were compiled for.
    pub width: u32,
    /// Size of the device-global signal array in bits.
    pub global_bits: u32,
    /// `stages[s][c]` = assembled bytes of core `c` in stage `s`.
    pub stages: Vec<Vec<Vec<u8>>>,
}

impl Bitstream {
    /// Total assembled size in bytes (the Table I "Bitstream" column).
    pub fn total_bytes(&self) -> usize {
        self.stages
            .iter()
            .flat_map(|s| s.iter().map(Vec::len))
            .sum()
    }

    /// Number of cores across all stages.
    pub fn total_cores(&self) -> usize {
        self.stages.iter().map(Vec::len).sum()
    }

    /// Length in bytes of [`to_bytes`](Self::to_bytes)' container.
    pub fn serialized_len(&self) -> usize {
        16 + self
            .stages
            .iter()
            .map(|s| 4 + s.iter().map(|c| 4 + c.len()).sum::<usize>())
            .sum::<usize>()
    }

    /// Hands the container to `emit` piece by piece, in order: the one
    /// description of the format, which every serializer and digest of
    /// it goes through.
    pub(crate) fn for_each_piece(&self, mut emit: impl FnMut(&[u8])) {
        emit(b"GEMS");
        emit(&self.width.to_le_bytes());
        emit(&self.global_bits.to_le_bytes());
        emit(&(self.stages.len() as u32).to_le_bytes());
        for s in &self.stages {
            emit(&(s.len() as u32).to_le_bytes());
            for c in s {
                emit(&(c.len() as u32).to_le_bytes());
                emit(c);
            }
        }
    }

    /// Appends the container to `out`, which grows at most once.
    pub fn write_into(&self, out: &mut Vec<u8>) {
        out.reserve_exact(self.serialized_len());
        self.for_each_piece(|piece| out.extend_from_slice(piece));
    }

    /// Serializes the container (header + programs) for storage.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut v = Vec::new();
        self.write_into(&mut v);
        v
    }

    /// Parses a container produced by [`to_bytes`](Self::to_bytes).
    ///
    /// # Errors
    ///
    /// Returns a [`ContainerError`] when the container is truncated, has
    /// a bad magic number, or has bytes after its last core.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ContainerError> {
        let view = ContainerView::parse(bytes)?;
        Ok(Bitstream {
            width: view.width,
            global_bits: view.global_bits,
            stages: view
                .stages
                .into_iter()
                .map(|s| s.into_iter().map(<[u8]>::to_vec).collect())
                .collect(),
        })
    }
}

/// Why a bitstream container does not parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ContainerError {
    /// The container is shorter than its counts claim.
    Truncated,
    /// The container does not start with `GEMS`.
    BadMagic,
    /// The buffer holds this many bytes after the last core.
    TrailingBytes(usize),
}

impl fmt::Display for ContainerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ContainerError::Truncated => write!(f, "truncated bitstream container"),
            ContainerError::BadMagic => write!(f, "bad container magic"),
            ContainerError::TrailingBytes(n) => {
                write!(f, "{n} trailing byte(s) after the last core")
            }
        }
    }
}

impl std::error::Error for ContainerError {}

/// A parsed container whose cores borrow the bytes it was parsed from:
/// the one container parser, behind [`Bitstream::from_bytes`] and the
/// verifier's container round trip.
#[derive(Debug)]
pub(crate) struct ContainerView<'a> {
    pub(crate) width: u32,
    pub(crate) global_bits: u32,
    pub(crate) stages: Vec<Vec<&'a [u8]>>,
}

impl<'a> ContainerView<'a> {
    pub(crate) fn parse(bytes: &'a [u8]) -> Result<Self, ContainerError> {
        let mut pos = 0usize;
        let take = |pos: &mut usize, n: usize| -> Result<&'a [u8], ContainerError> {
            let s = bytes
                .get(*pos..(*pos).saturating_add(n))
                .ok_or(ContainerError::Truncated)?;
            *pos += n;
            Ok(s)
        };
        let u32_at = |pos: &mut usize| -> Result<u32, ContainerError> {
            let s = take(pos, 4)?;
            Ok(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
        };
        if take(&mut pos, 4)? != b"GEMS" {
            return Err(ContainerError::BadMagic);
        }
        let width = u32_at(&mut pos)?;
        let global_bits = u32_at(&mut pos)?;
        // A count reserves no more than the bytes left could hold (each
        // stage and each core is at least a 4-byte count), so a corrupt
        // count is a `Truncated` error, not a giant allocation.
        let fits = |pos: usize, n: usize| n.min((bytes.len() - pos) / 4);
        let n_stages = u32_at(&mut pos)? as usize;
        let mut stages = Vec::with_capacity(fits(pos, n_stages));
        for _ in 0..n_stages {
            let n_cores = u32_at(&mut pos)? as usize;
            let mut cores = Vec::with_capacity(fits(pos, n_cores));
            for _ in 0..n_cores {
                let len = u32_at(&mut pos)? as usize;
                cores.push(take(&mut pos, len)?);
            }
            stages.push(cores);
        }
        if pos < bytes.len() {
            return Err(ContainerError::TrailingBytes(bytes.len() - pos));
        }
        Ok(ContainerView {
            width,
            global_bits,
            stages,
        })
    }

    /// True when the view holds exactly `bs`.
    pub(crate) fn holds(&self, bs: &Bitstream) -> bool {
        self.width == bs.width
            && self.global_bits == bs.global_bits
            && self.stages.len() == bs.stages.len()
            && self.stages.iter().zip(&bs.stages).all(|(mine, theirs)| {
                mine.len() == theirs.len()
                    && mine.iter().zip(theirs).all(|(a, b)| *a == b.as_slice())
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gem_sim::FuzzRng;

    /// The byte-wise writer against its bit-at-a-time reference: random
    /// `(value, width 1..=64)` fields and fold planes, from a random
    /// starting bit offset, with a word padded now and then, leave the
    /// same bytes and the same cursor after every step.
    #[test]
    fn push_bits_matches_the_bitwise_reference() {
        let mut rng = FuzzRng::new(0xB175);
        for case in 0..500 {
            let mut slow = BitWriter {
                bitwise: true,
                ..BitWriter::default()
            };
            let offset = rng.below(64) as usize;
            slow.push_bits(rng.next_u64(), offset);
            let mut fast = BitWriter {
                bytes: slow.bytes.clone(),
                bit: slow.bit,
                bitwise: false,
            };
            for step in 0..1 + rng.below(24) {
                if rng.chance(1, 8) {
                    let slots = 1 + rng.below(200) as usize;
                    // Bits past the slots must be ignored.
                    let plane: Vec<u64> = (0..slots.div_ceil(64)).map(|_| rng.next_u64()).collect();
                    fast.push_plane(&plane, slots);
                    slow.push_plane(&plane, slots);
                } else if rng.chance(1, 8) {
                    let to = (slow.bit.div_ceil(8) + rng.below(3) as usize) * 8;
                    fast.pad_to(to);
                    slow.pad_to(to);
                } else {
                    // Bits above the width must be ignored.
                    let (v, n) = (rng.next_u64(), 1 + rng.below(64) as usize);
                    fast.push_bits(v, n);
                    slow.push_bits(v, n);
                }
                assert_eq!(fast.bit, slow.bit, "case {case} step {step}");
                assert_eq!(fast.bytes, slow.bytes, "case {case} step {step}");
            }
        }
    }
}
