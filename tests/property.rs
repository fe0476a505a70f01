//! Randomized-but-deterministic tests of the foundational data
//! structures' algebraic laws: `Bits` arithmetic, slicing and
//! concatenation, and the E-AIG's AND builder. Random designs through the
//! whole flow, RTL ↔ golden ↔ every GEM lane, are `tests/differential.rs`'
//! corpus.
//!
//! The cases are generated from fixed seeds via SplitMix64
//! ([`gem_sim::FuzzRng`]; the sealed build has no property-testing
//! framework), so every run exercises the
//! same inputs — failures reproduce by seed with no shrinking needed.

use gem_netlist::Bits;
use gem_sim::FuzzRng;

/// Bits arithmetic agrees with u64 arithmetic for widths ≤ 32.
#[test]
fn bits_matches_u64() {
    let mut g = FuzzRng::new(0xB175);
    for _ in 0..200 {
        let w = 1 + g.below(32) as u32;
        let mask = if w == 32 { u32::MAX } else { (1u32 << w) - 1 };
        let av = g.next_u64() as u32 & mask;
        let bv = g.next_u64() as u32 & mask;
        let ba = Bits::from_u64(av as u64, w);
        let bb = Bits::from_u64(bv as u64, w);
        assert_eq!(ba.add(&bb).to_u64(), (av.wrapping_add(bv) & mask) as u64);
        assert_eq!(ba.sub(&bb).to_u64(), (av.wrapping_sub(bv) & mask) as u64);
        assert_eq!(ba.mul(&bb).to_u64(), (av.wrapping_mul(bv) & mask) as u64);
        assert_eq!(ba.ult(&bb), av < bv);
        assert_eq!(ba.and(&bb).to_u64(), (av & bv) as u64);
        assert_eq!(ba.xor(&bb).to_u64(), (av ^ bv) as u64);
        assert_eq!(ba.not().to_u64(), (!av & mask) as u64);
    }
}

/// Slicing and concatenation are inverses.
#[test]
fn bits_slice_concat_inverse() {
    let mut g = FuzzRng::new(0x511CE);
    for _ in 0..200 {
        let w = 2 + g.below(47) as u32;
        let cut = 1 + g.below(u64::from(w) - 1) as u32;
        let v = g.next_u64();
        let mask = if w == 64 { u64::MAX } else { (1u64 << w) - 1 };
        let b = Bits::from_u64(v & mask, w);
        let lo = b.slice(0, cut);
        let hi = b.slice(cut, w - cut);
        assert_eq!(lo.concat(&hi), b, "w={w} cut={cut}");
    }
}

/// The E-AIG's AND builder is commutative, idempotent, and respects
/// identity/annihilator laws.
#[test]
fn eaig_and_laws() {
    use gem_aig::{Eaig, Lit};
    let mut gen = FuzzRng::new(0xA1D);
    for _ in 0..50 {
        let n_inputs = 2 + gen.below(4) as usize;
        let mut g = Eaig::new();
        let ins: Vec<Lit> = (0..n_inputs).map(|i| g.input(format!("i{i}"))).collect();
        for _ in 0..1 + gen.below(19) {
            let la = ins[gen.below(n_inputs as u64) as usize].flip_if(gen.below(2) == 1);
            let lb = ins[gen.below(n_inputs as u64) as usize].flip_if(gen.below(2) == 1);
            assert_eq!(g.and(la, lb), g.and(lb, la), "commutative");
            assert_eq!(g.and(la, la), la, "idempotent");
            assert_eq!(g.and(la, Lit::TRUE), la, "identity");
            assert_eq!(g.and(la, Lit::FALSE), Lit::FALSE, "annihilator");
            assert_eq!(g.and(la, la.flip()), Lit::FALSE, "complement");
        }
    }
}
