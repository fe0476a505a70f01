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
//!
//! A lane's image of a block is a [`RamImage`]: the architectural 8192
//! words, held as the 4 KiB pages the lane has written a non-zero word
//! to. An unwritten page reads as zeros and costs nothing, so 64 lanes of
//! a block that touches one page hold 64 pages, not 64 × 32 KiB.

use crate::machine::lane_mask;
use gem_isa::RamBinding;
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
/// Words in one page of a [`RamImage`]: 4 KiB, the host page.
const PAGE_WORDS: usize = 1 << 10;
/// Pages in one image.
const PAGES: usize = RAM_WORDS / PAGE_WORDS;
/// Bytes one present page holds.
const PAGE_BYTES: usize = PAGE_WORDS * std::mem::size_of::<u32>();

/// One lane's image of a RAM block: 8192 `u32` words in 8 pages of
/// 1024, a page allocated by the first non-zero word written to it.
///
/// An absent page reads as zeros, and writing 0 to it allocates nothing.
/// A clone copies the present pages only. Equality is by contents: an
/// absent page equals a present all-zero one, so an image that wrote a
/// word and cleared it again equals one that never wrote.
#[derive(Debug, Clone, Default)]
pub(crate) struct RamImage {
    pages: [Option<Box<[u32; PAGE_WORDS]>>; PAGES],
}

impl RamImage {
    /// The word at `addr`. Panics if `addr` is beyond the image's 8192
    /// words.
    pub(crate) fn get(&self, addr: usize) -> u32 {
        self.pages[addr / PAGE_WORDS]
            .as_ref()
            .map_or(0, |page| page[addr % PAGE_WORDS])
    }

    /// Writes the word at `addr`, allocating its page unless `value` is
    /// 0. Panics if `addr` is beyond the image's 8192 words.
    pub(crate) fn set(&mut self, addr: usize, value: u32) {
        let page = &mut self.pages[addr / PAGE_WORDS];
        if let Some(page) = page {
            page[addr % PAGE_WORDS] = value;
        } else if value != 0 {
            page.insert(Box::new([0; PAGE_WORDS]))[addr % PAGE_WORDS] = value;
        }
    }

    /// Heap bytes the image holds: its present pages.
    pub(crate) fn bytes(&self) -> usize {
        self.pages.iter().flatten().count() * PAGE_BYTES
    }
}

impl PartialEq for RamImage {
    fn eq(&self, other: &Self) -> bool {
        self.pages.iter().zip(&other.pages).all(|pair| match pair {
            (Some(a), Some(b)) => a == b,
            (Some(p), None) | (None, Some(p)) => p.iter().all(|&w| w == 0),
            (None, None) => true,
        })
    }
}

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
    ram_mem: &mut [Vec<RamImage>],
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
    ram_mem: &mut [Vec<RamImage>],
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
            *w = images[l].get(addr_of(&b.raddr, l));
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
                image.set(addr_of(&b.waddr, l), w);
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
    ram_mem: &mut [Vec<RamImage>],
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
            *r = Word::from(image.get((p & ADDR_MASK) as usize));
            if (p >> 58) & 1 == 1 {
                image.set(((p >> 13) & ADDR_MASK) as usize, (p >> 26) as u32);
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
    use crate::machine::{DeviceConfig, GemGpu, GpuSnapshot};
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

    /// Both sides of every page boundary, the first and the last word.
    const EDGES: [usize; 16] = [
        0x0000, 0x03FF, 0x0400, 0x07FF, 0x0800, 0x0BFF, 0x0C00, 0x0FFF, 0x1000, 0x13FF, 0x1400,
        0x17FF, 0x1800, 0x1BFF, 0x1C00, 0x1FFF,
    ];

    #[test]
    fn a_ram_image_holds_the_pages_written_with_non_zero_words() {
        let mut image = RamImage::default();
        for addr in EDGES {
            image.set(addr, 0);
        }
        assert_eq!(
            image.bytes(),
            0,
            "a 0 written to an absent page allocates nothing"
        );
        assert!(EDGES.iter().all(|&a| image.get(a) == 0));
        image.set(0x03FF, 7);
        image.set(0x0400, 9);
        assert_eq!(
            image.bytes(),
            2 * PAGE_BYTES,
            "one page each side of 0x0400"
        );
        assert_eq!(
            (image.get(0x03FF), image.get(0x0400), image.get(0x07FF)),
            (7, 9, 0)
        );
        let copy = image.clone();
        assert_eq!(
            copy.bytes(),
            2 * PAGE_BYTES,
            "a clone copies the present pages only"
        );
        image.set(0x03FF, 0);
        image.set(0x0400, 0);
        assert_eq!(image.bytes(), 2 * PAGE_BYTES, "a cleared page stays");
        assert_eq!(image, RamImage::default(), "cleared equals never written");
        assert_eq!(RamImage::default(), image, "both ways round");
        assert_ne!(image, copy);
        assert_eq!(copy.get(0x0400), 9, "the clone is a copy");
    }

    /// A machine's RAM state as plain vectors: per block, one dense
    /// 8192-word image per active lane, and which of its pages have been
    /// written a non-zero word (the pages its `RamImage` holds).
    #[derive(Clone)]
    struct Dense {
        lanes: usize,
        images: Vec<Vec<(Vec<u32>, [bool; PAGES])>>,
    }

    impl Dense {
        fn new(rams: usize) -> Self {
            Dense {
                lanes: 1,
                images: vec![vec![(vec![0; RAM_WORDS], [false; PAGES])]; rams],
            }
        }

        fn word(&self, ram: usize, lane: usize, addr: usize) -> u32 {
            let lane = if lane < self.lanes { lane } else { 0 };
            self.images[ram][lane].0[addr]
        }

        fn write(&mut self, ram: usize, lane: usize, addr: usize, value: u32) {
            let (words, written) = &mut self.images[ram][lane];
            words[addr] = value;
            written[addr / PAGE_WORDS] |= value != 0;
        }

        fn set_lanes(&mut self, lanes: usize) {
            self.lanes = lanes;
            for images in &mut self.images {
                let lane0 = images[0].clone();
                images.resize(lanes, lane0);
            }
        }

        fn page_bytes(&self) -> usize {
            let pages = self.images.iter().flatten().flat_map(|(_, w)| w);
            pages.filter(|&&w| w).count() * PAGE_BYTES
        }
    }

    /// One random RAM-phase cycle on the machine and the model: every
    /// active lane of every block reads and maybe writes a page-edge
    /// address, a third of the data words 0. Every lane's read data,
    /// the inactive lanes' included, must equal the model's.
    fn cycle(gpu: &mut GemGpu, model: &mut Dense, bindings: &[RamBinding], seed: &mut u64) {
        let mut reads = vec![[0u32; 64]; bindings.len()];
        for ((ram, b), read) in bindings.iter().enumerate().zip(&mut reads) {
            let mut ports = [0 as Word; 59];
            for (l, read) in read.iter_mut().enumerate().take(model.lanes) {
                let r = next(seed);
                let raddr = EDGES[r as usize % 16];
                let waddr = EDGES[(r >> 4) as usize % 16];
                let we = (r >> 8) & 1 == 1;
                let data = if (r >> 9).is_multiple_of(3) {
                    0
                } else {
                    (r >> 32) as u32
                };
                let row = raddr as u64 | (waddr as u64) << 13 | u64::from(data) << 26;
                let row = row | u64::from(we) << 58;
                for (k, p) in ports.iter_mut().enumerate() {
                    *p |= ((row >> k) & 1) << l;
                }
                *read = model.word(ram, l, raddr);
                if we {
                    model.write(ram, l, waddr, data);
                }
            }
            let bits = b
                .raddr
                .iter()
                .chain(&b.waddr)
                .chain(&b.wdata)
                .chain([&b.we]);
            for (&g, &p) in bits.zip(&ports) {
                gpu.poke_lanes(g, p);
            }
        }
        gpu.step_cycle();
        for (ram, b) in bindings.iter().enumerate() {
            for lane in 0..GemGpu::MAX_LANES as usize {
                let want = reads[ram][if lane < model.lanes { lane } else { 0 }];
                let got = (0..32).fold(0u32, |w, k| {
                    w | u32::from(gpu.peek_lane(b.rdata[k], lane as u32)) << k
                });
                assert_eq!(got, want, "ram {ram} lane {lane} read data");
            }
        }
    }

    /// Every lane's word at every page edge, and the snapshot's byte
    /// count, against the model.
    fn check(gpu: &GemGpu, model: &Dense, what: &str) {
        assert_eq!(gpu.lanes() as usize, model.lanes, "{what}");
        for ram in 0..model.images.len() {
            for lane in 0..GemGpu::MAX_LANES {
                for addr in EDGES {
                    let want = model.word(ram, lane as usize, addr);
                    let got = gpu.ram_word_lane(ram, lane, addr);
                    assert_eq!(got, want, "{what}: ram {ram} lane {lane} addr {addr:#06x}");
                }
            }
        }
        let global = 123 * model.images.len() * std::mem::size_of::<Word>();
        let bytes = gpu.snapshot().approx_bytes();
        assert_eq!(bytes, global + model.page_bytes(), "{what}: snapshot bytes");
    }

    /// Lane counts either side of [`TRANSPOSE_FROM_LANES`], and the ends.
    const LANE_COUNTS: [u32; 8] = [1, 2, 5, 6, 7, 8, 31, 64];

    /// One random sequence of 16 operations on a two-block machine and
    /// the dense model: RAM-phase cycles, broadcast word writes (`0` a
    /// third of the time), lane-count changes, snapshot and restore, and
    /// a clone that must not see the cycle its original runs next.
    fn dense_model_sequence(seed: u64) {
        let mut x = seed;
        let (mut gpu, bindings) = ram_only_machine(2);
        let mut model = Dense::new(2);
        let mut saved: Option<(GpuSnapshot, Dense)> = None;
        for step in 0..16 {
            let r = next(&mut x);
            let op = r % 10;
            let what = format!("seed {seed:#x} step {step} op {op}");
            match op {
                0..=3 => cycle(&mut gpu, &mut model, &bindings, &mut x),
                4 => {
                    let (ram, addr) = ((r >> 8) as usize % 2, EDGES[(r >> 9) as usize % 16]);
                    let value = if (r >> 13).is_multiple_of(3) {
                        0
                    } else {
                        (r >> 32) as u32
                    };
                    gpu.set_ram_word(ram, addr, value);
                    for lane in 0..model.lanes {
                        model.write(ram, lane, addr, value);
                    }
                }
                5 | 6 => {
                    let lanes = LANE_COUNTS[(r >> 8) as usize % LANE_COUNTS.len()];
                    gpu.set_lanes(lanes).expect("lane count in range");
                    model.set_lanes(lanes as usize);
                }
                7 => saved = Some((gpu.snapshot(), model.clone())),
                8 => {
                    if let Some((snap, at)) = &saved {
                        gpu.restore(snap).expect("own snapshot restores");
                        model = at.clone();
                    }
                }
                _ => {
                    let twin = gpu.clone();
                    cycle(&mut gpu, &mut model.clone(), &bindings, &mut x);
                    gpu = twin;
                }
            }
            check(&gpu, &model, &what);
        }
    }

    /// The machine's RAM state against plain dense vectors, through
    /// every operation that creates, copies or drops an image.
    #[test]
    fn ram_images_match_a_dense_model() {
        (0..48).for_each(|s| dense_model_sequence(0xDE45_0000 + s));
    }

    /// [`ram_images_match_a_dense_model`] over 10 000 sequences.
    #[test]
    #[ignore = "sweep: cargo test -p gem-vgpu --release -- --ignored"]
    fn ram_images_match_a_dense_model_sweep() {
        (0..10_000).for_each(|s| dense_model_sequence(0x5EED_0000 + s));
    }

    /// A snapshot's bytes are the global array's plus the pages held:
    /// 64 fresh lanes hold none, and a write of 0 allocates none.
    #[test]
    fn snapshot_bytes_count_the_pages_held() {
        let (mut gpu, bindings) = ram_only_machine(2);
        gpu.set_lanes(64).expect("64 lanes");
        let global = 2 * 123 * std::mem::size_of::<Word>();
        assert_eq!(gpu.snapshot().approx_bytes(), global);
        let b = &bindings[1];
        // Lane 5 writes 8 to 0x1400; lane 6 writes 0 to 0x0400.
        gpu.poke_lane(b.we, 5, true);
        gpu.poke_lane(b.we, 6, true);
        gpu.poke_lane(b.wdata[3], 5, true);
        poke_addr(&mut gpu, &b.waddr, Some(5), 0x1400);
        poke_addr(&mut gpu, &b.waddr, Some(6), 0x0400);
        gpu.step_cycle();
        assert_eq!(gpu.ram_word_lane(1, 5, 0x1400), 8);
        assert_eq!(gpu.snapshot().approx_bytes(), global + PAGE_BYTES);
    }
}
