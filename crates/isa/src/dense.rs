//! The codec on compact [`BoomerangLayer`]s held to the bit-at-a-time
//! reference codec (`assemble_dense_layers` / `read_dense_layers`), which
//! reads and writes a layer one slot at a time through its accessors
//! (`perm`, `fold(k).get`, `writeback` and their setters). `gem-place`'s
//! `compact_layout_matches_the_dense_reference` holds those accessors to
//! the dense layer layout, so the codec is held to that layout too.

use crate::decode::read_dense_layers;
use crate::encode::assemble_dense_layers;
use crate::{assemble_core, disassemble_core, disassemble_core_exact, init_bits};
use gem_place::{BoomerangLayer, CoreProgram, PermSource, Plane};
use gem_sim::FuzzRng;

/// A random layer over addresses `0..addrs`, one slot in `write_in`
/// written back, built a slot at a time through its setters.
fn random_layer(rng: &mut FuzzRng, width: u32, addrs: u32, write_in: u64) -> BoomerangLayer {
    let mut layer = BoomerangLayer::new(width);
    let addr = |rng: &mut FuzzRng| rng.below(u64::from(addrs)) as u16;
    for j in 0..width as usize {
        if rng.chance(3, 4) {
            layer.set_perm(j, PermSource::State(addr(rng)));
        }
    }
    for k in 0..layer.fold_levels() {
        for p in [Plane::Xa, Plane::Xb, Plane::Ob] {
            for j in 0..layer.fold(k).slots() {
                layer.set_const(k, p, j, rng.chance(1, 2));
            }
        }
    }
    for k in 0..layer.fold_levels() {
        for j in 0..layer.fold(k).slots() {
            if rng.chance(1, write_in) {
                layer.set_writeback(k, j, Some(addr(rng)));
            }
        }
    }
    layer
}

/// One to three random layers of `width`, encoded as a core with no
/// reads or writes. The layer words (everything after `INIT`) are the
/// reference encoder's; the core decodes to the layers, and the reference
/// decoder reads them back from the layer words. Flipping 1–4 bits of the
/// layer words leaves both decoders agreeing: the same error, or the same
/// layers.
fn check_width(rng: &mut FuzzRng, width: u32, write_in: u64) {
    // Writeback addresses are 13-bit on the wire.
    let addrs = width.min(1 << 13);
    let layers: Vec<BoomerangLayer> = (0..1 + rng.below(3))
        .map(|_| random_layer(rng, width, addrs, write_in))
        .collect();
    let prog = CoreProgram {
        width,
        state_size: addrs,
        inputs: vec![],
        layers,
        outputs: vec![],
    };
    let what = format!("width {width}, 1 in {write_in} written");
    let bytes = assemble_core(&prog, &[], &[]);
    let at = init_bits(width) / 8;
    assert_eq!(
        bytes[at..],
        assemble_dense_layers(width, &prog.layers),
        "{what}"
    );
    let decoded = disassemble_core_exact(&bytes).expect("own core decodes");
    assert_eq!(decoded.layers, prog.layers, "{what}");
    assert_eq!(
        read_dense_layers(&bytes[at..], width, prog.layers.len()).as_ref(),
        Ok(&prog.layers),
        "{what}"
    );

    let mut mutant = bytes.clone();
    for _ in 0..1 + rng.below(4) {
        let byte = at + rng.below((bytes.len() - at) as u64) as usize;
        mutant[byte] ^= 1 << rng.below(8);
    }
    let compact = disassemble_core(&mutant).map(|d| d.layers);
    let reference = read_dense_layers(&mutant[at..], width, prog.layers.len());
    assert_eq!(compact, reference, "{what}: flipped");
}

fn sweep(rng: &mut FuzzRng, reps: usize) {
    for log in 1..=15 {
        for write_in in [1, 3, 64, 1 << log] {
            for _ in 0..reps {
                check_width(rng, 1 << log, write_in);
            }
        }
    }
}

/// The codec on compact layers against the dense reference, at every
/// core width the ISA encodes.
#[test]
fn codec_matches_the_dense_reference() {
    sweep(&mut FuzzRng::new(0xDE75E), 1);
}

/// [`codec_matches_the_dense_reference`], 1 200 cores.
#[test]
#[ignore = "1 200 cores: run with `cargo test -p gem-isa --release --lib -- --ignored`"]
fn codec_matches_the_dense_reference_sweep() {
    sweep(&mut FuzzRng::new(0x5EE9_DE75E), 20);
}
