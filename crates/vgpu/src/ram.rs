//! The RAM phase of a cycle (read-first): after the last stage, every
//! RAM block captures its read data and then applies its write, per
//! lane, since every lane addresses its own RAM image (`docs/BATCH.md`).
//! Inactive lanes mirror lane 0 (same port bits, shared image), so only
//! the active lanes are walked and lane 0's read data is broadcast into
//! the inactive tail of each deferred word.
//!
//! A port bit is a lane word: bit `l` of `global[raddr[k]]` is bit `k`
//! of lane `l`'s read address. The phase needs the opposite view — one
//! address, one data word per lane — and has two ways to get it, chosen
//! by the lane count alone ([`TRANSPOSE_FROM_LANES`]):
//! - bit by bit: each lane's address and data assembled from 13 + 13 +
//!   32 single-bit extractions, and its read data scattered back into 32
//!   words one bit at a time — a cost per lane;
//! - by transpose: the 59 port words of a block as rows of a 64 × 64 bit
//!   matrix, transposed so that row `l` is lane `l`'s port bits, and the
//!   64 read words transposed back into the 32 read-data lane words — a
//!   cost per block, at any lane count.

use crate::machine::{lane_mask, RamBinding};
use gem_place::{splat, Word};

/// RAM-phase global traffic per RAM block per active lane: one word
/// read plus a potential write, and the 59 port-bit gathers.
pub(crate) const RAM_BYTES_PER_LANE: u64 = 8 + 59 / 8;
/// RAM-phase transactions per RAM block per active lane.
pub(crate) const RAM_TRANSACTIONS_PER_LANE: u64 = 2;

/// Words in one lane's image of a RAM block (13 address bits).
const RAM_WORDS: usize = 1 << 13;
/// Mask of a 13-bit RAM address.
const ADDR_MASK: u64 = RAM_WORDS as u64 - 1;

/// The lane count from which the RAM phase transposes instead of
/// walking bits. Measured over 16 blocks with random ports (OpenPiton8
/// has 16), best of 400 runs of each method in turn on one pinned core
/// of a 2-vCPU Xeon host, two runs: bit by bit costs 1.5–1.7 µs at one
/// lane and ~0.65 µs per lane more (5.0 µs at 6 lanes, 5.6–5.9 at 7,
/// 57–60 at 64); by transpose 4.4–5.1 µs at any count up to 16 and
/// 6.1 at 64. The two tie at 6 lanes; from 7 the transpose wins in
/// every run.
pub(crate) const TRANSPOSE_FROM_LANES: u32 = 7;

/// Runs the RAM phase of one cycle, appending each block's read data
/// to `deferred` (32 lane words per block, in `rdata` order).
///
/// A function of its own so that the bindings are read through a
/// parameter the compiler knows nothing else writes: borrowed in place
/// inside `step_cycle`, every queued word forced their reload.
pub(crate) fn ram_phase(
    rams: &[RamBinding],
    global: &[Word],
    ram_mem: &mut [Vec<Box<[u32]>>],
    lanes: u32,
    deferred: &mut Vec<(u32, Word)>,
) {
    if lanes >= TRANSPOSE_FROM_LANES {
        by_transpose(rams, global, ram_mem, lanes, deferred);
    } else {
        bit_by_bit(rams, global, ram_mem, lanes, deferred);
    }
}

/// The RAM phase one bit of one lane at a time.
fn bit_by_bit(
    rams: &[RamBinding],
    global: &[Word],
    ram_mem: &mut [Vec<Box<[u32]>>],
    lanes: u32,
    deferred: &mut Vec<(u32, Word)>,
) {
    let amask = lane_mask(lanes);
    let lanes = lanes as usize;
    let addr_of = |bits: &[u32; 13], lane: usize| -> usize {
        bits.iter()
            .enumerate()
            .filter(|(_, &i)| (global[i as usize] >> lane) & 1 == 1)
            .map(|(k, _)| 1usize << k)
            .sum()
    };
    for (b, images) in rams.iter().zip(ram_mem) {
        let mut words = [0u32; Word::BITS as usize];
        for (l, w) in words.iter_mut().enumerate().take(lanes) {
            *w = images[l][addr_of(&b.raddr, l)];
        }
        for (k, &g) in b.rdata.iter().enumerate() {
            let mut v: Word = 0;
            for (l, w) in words.iter().enumerate().take(lanes) {
                v |= (Word::from((w >> k) & 1)) << l;
            }
            v |= splat(v & 1 == 1) & !amask;
            deferred.push((g, v));
        }
        for (l, image) in images.iter_mut().enumerate().take(lanes) {
            if (global[b.we as usize] >> l) & 1 == 1 {
                let mut w = 0u32;
                for (k, &g) in b.wdata.iter().enumerate() {
                    if (global[g as usize] >> l) & 1 == 1 {
                        w |= 1 << k;
                    }
                }
                image[addr_of(&b.waddr, l)] = w;
            }
        }
    }
}

/// The RAM phase by two 64 × 64 bit transposes per block. Row `l` of
/// the transposed port matrix holds lane `l`'s read address in bits
/// 0..13, its write address in 13..26, its write data in 26..58 and its
/// write enable in bit 58.
fn by_transpose(
    rams: &[RamBinding],
    global: &[Word],
    ram_mem: &mut [Vec<Box<[u32]>>],
    lanes: u32,
    deferred: &mut Vec<(u32, Word)>,
) {
    for (b, images) in rams.iter().zip(ram_mem) {
        let mut ports: [Word; 64] = [0; 64];
        let bits = b
            .raddr
            .iter()
            .chain(&b.waddr)
            .chain(&b.wdata)
            .chain([&b.we]);
        for (row, &g) in ports.iter_mut().zip(bits) {
            *row = global[g as usize];
        }
        transpose64(&mut ports);
        let mut read: [Word; 64] = [0; 64];
        for ((r, &p), image) in read.iter_mut().zip(&ports).zip(images.iter_mut()) {
            *r = Word::from(image[(p & ADDR_MASK) as usize]);
            if (p >> 58) & 1 == 1 {
                image[((p >> 13) & ADDR_MASK) as usize] = (p >> 26) as u32;
            }
        }
        let lane0 = read[0];
        read[lanes as usize..].fill(lane0);
        transpose64(&mut read);
        deferred.extend(b.rdata.iter().copied().zip(read));
    }
}

/// Transposes a 64 × 64 bit matrix in place: bit `c` of row `r` moves to
/// bit `r` of row `c`. Six rounds of block swaps, the blocks halving
/// from 32 × 32 to 1 × 1: in each band of `2w` rows, the high `w` bits
/// of each `2w`-bit group of the top `w` rows trade places with the low
/// `w` bits of the bottom `w` rows.
fn transpose64(m: &mut [Word; 64]) {
    swap_blocks::<32>(m, 0x0000_0000_FFFF_FFFF);
    swap_blocks::<16>(m, 0x0000_FFFF_0000_FFFF);
    swap_blocks::<8>(m, 0x00FF_00FF_00FF_00FF);
    swap_blocks::<4>(m, 0x0F0F_0F0F_0F0F_0F0F);
    swap_blocks::<2>(m, 0x3333_3333_3333_3333);
    swap_blocks::<1>(m, 0x5555_5555_5555_5555);
}

/// One round of [`transpose64`] with `W × W` blocks; `mask` selects the
/// low `W` bits of every `2W`-bit group. A constant `W` lets each round
/// compile to straight-line shifts by an immediate.
#[inline(always)]
fn swap_blocks<const W: usize>(m: &mut [Word; 64], mask: Word) {
    for band in m.chunks_exact_mut(2 * W) {
        let (top, bottom) = band.split_at_mut(W);
        for (t, b) in top.iter_mut().zip(bottom) {
            let swap = ((*t >> W) ^ *b) & mask;
            *t ^= swap << W;
            *b ^= swap;
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::machine::{DeviceConfig, GemGpu};
    use gem_isa::Bitstream;

    /// One RAM block's ports on the 123 consecutive globals from `base`.
    pub(crate) fn ram_binding(base: u32) -> RamBinding {
        let mut idx = base..;
        let mut next = || idx.next().expect("unbounded");
        RamBinding {
            raddr: std::array::from_fn(|_| next()),
            waddr: std::array::from_fn(|_| next()),
            wdata: std::array::from_fn(|_| next()),
            we: next(),
            rdata: std::array::from_fn(|_| next()),
        }
    }

    /// A machine with no cores and `rams` RAM blocks on consecutive
    /// globals: its ports are driven by pokes.
    fn ram_only_machine(rams: u32) -> (GemGpu, Vec<RamBinding>) {
        let bindings: Vec<RamBinding> = (0..rams).map(|r| ram_binding(123 * r)).collect();
        let global_bits = 123 * rams;
        let bs = Bitstream {
            width: 16,
            global_bits,
            stages: vec![],
        };
        let cfg = DeviceConfig {
            global_bits,
            rams: bindings.clone(),
            initial_ones: vec![],
        };
        (GemGpu::load(&bs, cfg).expect("loads"), bindings)
    }

    /// splitmix64.
    fn next(x: &mut u64) -> u64 {
        *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn ram_phase_read_first() {
        let (mut gpu, bindings) = ram_only_machine(1);
        let binding = &bindings[0];
        // Write 0b101 to address 0 while reading address 0.
        gpu.poke(binding.we, true);
        gpu.poke(binding.wdata[0], true);
        gpu.poke(binding.wdata[2], true);
        gpu.step_cycle();
        assert!(!gpu.peek(binding.rdata[0]), "read-first returns old zero");
        gpu.poke(binding.we, false);
        gpu.step_cycle();
        assert!(gpu.peek(binding.rdata[0]));
        assert!(gpu.peek(binding.rdata[2]));
        assert!(!gpu.peek(binding.rdata[1]));
        assert_eq!(gpu.ram_word(0, 0), 0b101);
    }

    #[test]
    fn per_lane_ram_images_are_independent() {
        let (mut gpu, bindings) = ram_only_machine(1);
        let binding = &bindings[0];
        gpu.set_lanes(2).expect("2 lanes");
        // Lane 0 writes 1 to address 0; lane 1 writes 2 to address 1.
        gpu.poke(binding.we, true);
        gpu.poke_lane(binding.wdata[0], 0, true);
        gpu.poke_lane(binding.wdata[0], 1, false);
        gpu.poke_lane(binding.wdata[1], 1, true);
        gpu.poke_lane(binding.waddr[0], 1, true); // lane 1 → address 1
        gpu.step_cycle();
        assert_eq!(gpu.ram_word_lane(0, 0, 0), 0b01);
        assert_eq!(gpu.ram_word_lane(0, 0, 1), 0);
        assert_eq!(gpu.ram_word_lane(0, 1, 0), 0);
        assert_eq!(gpu.ram_word_lane(0, 1, 1), 0b10);
        // Per-lane read-back: lane 0 reads address 0, lane 1 address 1.
        gpu.poke(binding.we, false);
        gpu.poke_lane(binding.raddr[0], 1, true);
        gpu.step_cycle();
        assert!(gpu.peek_lane(binding.rdata[0], 0));
        assert!(!gpu.peek_lane(binding.rdata[1], 0));
        assert!(!gpu.peek_lane(binding.rdata[0], 1));
        assert!(gpu.peek_lane(binding.rdata[1], 1));
        // set_ram_word broadcasts; ram_word reads lane 0.
        gpu.set_ram_word(0, 5, 0xAB);
        assert_eq!(gpu.ram_word(0, 5), 0xAB);
        assert_eq!(gpu.ram_word_lane(0, 1, 5), 0xAB);
        // Growing clones lane 0's image for the new lane.
        gpu.set_lanes(3).expect("3 lanes");
        assert_eq!(gpu.ram_word_lane(0, 2, 0), 0b01);
    }

    /// The transpose against its definition, bit by bit, on random
    /// matrices, the identity and a single set bit in every position.
    #[test]
    fn transpose64_matches_the_bitwise_definition() {
        let naive = |m: &[Word; 64]| -> [Word; 64] {
            std::array::from_fn(|c| (0..64).fold(0, |t, r| t | ((m[r] >> c) & 1) << r))
        };
        let mut x = 0x7A45_9053u64;
        let mut cases: Vec<[Word; 64]> = (0..32)
            .map(|_| std::array::from_fn(|_| next(&mut x)))
            .collect();
        cases.push(std::array::from_fn(|r| 1 << r));
        cases.extend(
            (0..64 * 64).map(|bit| {
                std::array::from_fn(|r| if r == bit / 64 { 1 << (bit % 64) } else { 0 })
            }),
        );
        for m in cases {
            let mut t = m;
            transpose64(&mut t);
            assert_eq!(t, naive(&m), "{m:x?}");
            transpose64(&mut t);
            assert_eq!(t, m, "a transpose is its own inverse");
        }
    }

    /// Addresses that set every one of the 13 address bits between
    /// them, few enough that reads keep hitting earlier writes.
    const ADDRS: [u32; 8] = [0, 1, 5, 0x0F0F, 0x0AAA, 0x1555, 0x1000, 0x1FFF];

    /// Pokes a 13-bit address onto `bits` for one lane.
    fn poke_addr(gpu: &mut GemGpu, bits: &[u32; 13], lane: Option<u32>, addr: u32) {
        for (k, &g) in bits.iter().enumerate() {
            let v = (addr >> k) & 1 == 1;
            match lane {
                Some(l) => gpu.poke_lane(g, l, v),
                None => gpu.poke(g, v),
            }
        }
    }

    /// The RAM phase on either side of the crossover against one
    /// independent one-lane machine per lane: two blocks, each lane with
    /// its own read and write address and data every cycle, the write
    /// enable set on some lanes only. Every read-data bit of every lane
    /// and every image word the lanes address must agree, and the
    /// inactive lanes must read lane 0's data.
    #[test]
    fn ram_phase_matches_one_lane_machines_on_either_side_of_the_crossover() {
        let x = TRANSPOSE_FROM_LANES;
        for lanes in [2, x - 1, x, x + 1, 64] {
            let mut seed = 0xA11_0000 + u64::from(lanes);
            let (mut batch, bindings) = ram_only_machine(2);
            batch.set_lanes(lanes).expect("lanes");
            let mut singles: Vec<GemGpu> = (0..lanes).map(|_| ram_only_machine(2).0).collect();
            for cycle in 0..24 {
                for (l, single) in (0..lanes).zip(&mut singles) {
                    for b in &bindings {
                        let r = next(&mut seed);
                        let (raddr, waddr) = (ADDRS[r as usize % 8], ADDRS[(r >> 3) as usize % 8]);
                        let we = !(r >> 6).is_multiple_of(3);
                        let data = (r >> 32) as u32;
                        for (gpu, lane) in [(&mut batch, Some(l)), (&mut *single, None)] {
                            poke_addr(gpu, &b.raddr, lane, raddr);
                            poke_addr(gpu, &b.waddr, lane, waddr);
                            for (k, &g) in b.wdata.iter().enumerate() {
                                let v = (data >> k) & 1 == 1;
                                match lane {
                                    Some(l) => gpu.poke_lane(g, l, v),
                                    None => gpu.poke(g, v),
                                }
                            }
                            match lane {
                                Some(l) => gpu.poke_lane(b.we, l, we),
                                None => gpu.poke(b.we, we),
                            }
                        }
                    }
                }
                batch.step_cycle();
                singles.iter_mut().for_each(GemGpu::step_cycle);
                for (ram, b) in bindings.iter().enumerate() {
                    for &g in &b.rdata {
                        for (l, single) in (0..lanes).zip(&singles) {
                            let what = format!("{lanes} lanes, cycle {cycle}, ram {ram}, lane {l}");
                            assert_eq!(batch.peek_lane(g, l), single.peek(g), "{what}");
                        }
                        for l in lanes..Word::BITS {
                            assert_eq!(batch.peek_lane(g, l), batch.peek(g), "inactive lane {l}");
                        }
                    }
                    for (l, single) in (0..lanes).zip(&singles) {
                        for addr in ADDRS {
                            let (addr, want) = (addr as usize, single.ram_word(ram, addr as usize));
                            assert_eq!(batch.ram_word_lane(ram, l, addr), want, "{lanes} lanes");
                        }
                    }
                }
            }
        }
    }
}
