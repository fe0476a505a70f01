//! Property tests for the bitstream codec: seeded random programs must
//! round-trip bit-exactly through encode → decode → encode, and every
//! malformed buffer — truncated at any byte, padded with trailing
//! bytes, or scribbled over — must come back as a typed
//! [`DecodeError`], never a panic. A container with bytes after its
//! last core is a typed [`ContainerError`].

use gem_isa::{
    assemble_decoded, disassemble_core, disassemble_core_exact, Bitstream, ContainerError,
    DecodeError, DecodedCore, ReadEntry, WriteEntry, WriteSrc,
};
use gem_place::{BoomerangLayer, PermSource, Plane};
use gem_sim::FuzzRng;

/// A random but *encodable* core: every field stays inside the
/// encoder's asserted ranges (perm/write state addresses < 2^13,
/// power-of-two width, full fold/writeback shapes), while exercising
/// the whole format — empty and dense read/write lists, zero to several
/// layers, all three write sources. The two wide shapes have fold planes
/// that span several 64-slot words and writebacks over several words.
fn random_core(rng: &mut FuzzRng) -> DecodedCore {
    let width = [4u32, 8, 16, 32, 256, 2048][rng.below(6) as usize];
    let state_size = 1 + rng.below(500) as u32;
    let reads = (0..rng.below(u64::from(width) + 1))
        .map(|_| ReadEntry {
            global: rng.below(2000) as u32,
            state: rng.below(u64::from(state_size)) as u16,
        })
        .collect();
    let layers = (0..rng.below(4))
        .map(|_| {
            let mut l = BoomerangLayer::new(width);
            for j in 0..width as usize {
                if rng.chance(1, 2) {
                    l.set_perm(
                        j,
                        PermSource::State(rng.below(u64::from(state_size)) as u16),
                    );
                }
            }
            for k in 0..l.fold_levels() {
                for p in [Plane::Xa, Plane::Xb, Plane::Ob] {
                    for j in 0..l.fold(k).slots() {
                        l.set_const(k, p, j, rng.chance(1, 2));
                    }
                }
            }
            for k in 0..l.fold_levels() {
                for j in 0..l.fold(k).slots() {
                    if rng.chance(1, 3) {
                        l.set_writeback(k, j, Some(rng.below(u64::from(state_size)) as u16));
                    }
                }
            }
            l
        })
        .collect();
    let writes = (0..rng.below(6))
        .map(|_| WriteEntry {
            global: rng.below(2000) as u32,
            src: if rng.chance(1, 4) {
                WriteSrc::Const(rng.chance(1, 2))
            } else {
                WriteSrc::State {
                    addr: rng.below(u64::from(state_size)) as u16,
                    invert: rng.chance(1, 2),
                }
            },
            deferred: rng.chance(1, 2),
        })
        .collect();
    DecodedCore {
        width,
        state_size,
        reads,
        layers,
        writes,
    }
}

#[test]
fn random_programs_round_trip_bit_exactly() {
    let mut rng = FuzzRng::new(0x0DEC_0DE5);
    for case in 0..64 {
        let dec = random_core(&mut rng);
        let bytes = assemble_decoded(&dec);
        let back = disassemble_core_exact(&bytes)
            .unwrap_or_else(|e| panic!("case {case}: decode of own encoding failed: {e}"));
        assert_eq!(back, dec, "case {case}: structural round-trip drifted");
        assert_eq!(
            assemble_decoded(&back),
            bytes,
            "case {case}: re-encode is not bit-exact"
        );
    }
}

#[test]
fn every_truncation_is_a_typed_error_not_a_panic() {
    let mut rng = FuzzRng::new(0x7256);
    for case in 0..8 {
        let bytes = assemble_decoded(&random_core(&mut rng));
        for len in 0..bytes.len() {
            let prefix = &bytes[..len];
            let strict = disassemble_core_exact(prefix);
            assert!(
                strict.is_err(),
                "case {case}: {len}-byte prefix of a {}-byte program decoded",
                bytes.len()
            );
            // The lenient decoder must agree (a prefix never contains a
            // complete program, because the headers fix the length).
            assert!(disassemble_core(prefix).is_err());
        }
    }
}

#[test]
fn oversized_buffers_report_trailing_bytes() {
    let mut rng = FuzzRng::new(0xB16);
    for case in 0..8 {
        let bytes = assemble_decoded(&random_core(&mut rng));
        for extra in 1..=9usize {
            let mut padded = bytes.clone();
            padded.extend(std::iter::repeat_n(0u8, extra));
            match disassemble_core_exact(&padded) {
                Err(DecodeError::TrailingBytes(n)) => {
                    assert_eq!(n, extra, "case {case}: wrong trailing count")
                }
                other => panic!("case {case} extra {extra}: expected TrailingBytes, got {other:?}"),
            }
            // The lenient decoder ignores the padding and still yields
            // the original program.
            let lenient = disassemble_core(&padded)
                .unwrap_or_else(|e| panic!("case {case}: lenient decode failed: {e}"));
            assert_eq!(assemble_decoded(&lenient), bytes);
        }
    }
}

/// A container refuses bytes after its last core, naming their count,
/// as [`disassemble_core_exact`] does for a core; a prefix is truncated.
#[test]
fn containers_refuse_trailing_bytes() {
    let mut rng = FuzzRng::new(0xC0DE);
    for case in 0..8 {
        let stages = (0..1 + rng.below(3))
            .map(|_| {
                (0..1 + rng.below(3))
                    .map(|_| assemble_decoded(&random_core(&mut rng)))
                    .collect()
            })
            .collect();
        let bs = Bitstream {
            width: 1 << rng.below(14),
            global_bits: rng.below(4000) as u32,
            stages,
        };
        let bytes = bs.to_bytes();
        assert_eq!(bytes.len(), bs.serialized_len(), "case {case}");
        assert_eq!(
            Bitstream::from_bytes(&bytes).as_ref(),
            Ok(&bs),
            "case {case}"
        );
        for extra in [1usize, 3, 4, 27] {
            let mut padded = bytes.clone();
            padded.extend(std::iter::repeat_n(0u8, extra));
            assert_eq!(
                Bitstream::from_bytes(&padded),
                Err(ContainerError::TrailingBytes(extra)),
                "case {case} extra {extra}"
            );
        }
        assert_eq!(
            Bitstream::from_bytes(&bytes[..bytes.len() - 1]),
            Err(ContainerError::Truncated),
            "case {case}"
        );
    }
}

#[test]
fn garbage_and_empty_buffers_fail_cleanly() {
    assert_eq!(disassemble_core(&[]), Err(DecodeError::Truncated));
    // A wrong magic word is reported as such, with the offending value.
    let mut bytes = assemble_decoded(&random_core(&mut FuzzRng::new(3)));
    bytes[0] ^= 0xFF;
    assert!(matches!(
        disassemble_core(&bytes),
        Err(DecodeError::BadMagic(_))
    ));
    // Random byte soup: any typed error is fine; a panic is not.
    let mut rng = FuzzRng::new(0x50_0F);
    for _ in 0..200 {
        let n = rng.below(64) as usize;
        let buf: Vec<u8> = (0..n).map(|_| rng.next_u64() as u8).collect();
        let _ = disassemble_core(&buf);
        let _ = disassemble_core_exact(&buf);
    }
}
