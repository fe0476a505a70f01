//! The dense layer layout the codec was first written against — a
//! [`PermSource`] per row bit, a `bool` per fold constant and an
//! `Option` per slot's writeback — kept as the reference the compact
//! [`BoomerangLayer`] codec is held to. `gem-place` holds the executor
//! and both lowerings to the same layout.

use crate::decode::read_dense_layers;
use crate::encode::assemble_dense_layers;
use crate::{assemble_core, disassemble_core, disassemble_core_exact, init_bits};
use gem_place::{BoomerangLayer, CoreProgram, PermSource, Plane};
use gem_sim::FuzzRng;

const PLANES: [Plane; 3] = [Plane::Xa, Plane::Xb, Plane::Ob];

/// A boomerang layer in the dense layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DenseLayer {
    pub perm: Vec<PermSource>,
    /// `planes[k]`: the `xa`, `xb` and `ob` of level `k + 1`'s slots.
    pub planes: Vec<[Vec<bool>; 3]>,
    /// `writeback[k][j]`: where slot `j` of level `k + 1` writes back.
    pub writeback: Vec<Vec<Option<u16>>>,
}

impl DenseLayer {
    pub fn new(width: u32) -> DenseLayer {
        let slots = |k: u32| (width >> k) as usize;
        let levels = 1..=width.trailing_zeros();
        DenseLayer {
            perm: vec![PermSource::ConstFalse; width as usize],
            planes: levels
                .clone()
                .map(|k| [(); 3].map(|()| vec![false; slots(k)]))
                .collect(),
            writeback: levels.map(|k| vec![None; slots(k)]).collect(),
        }
    }

    /// A random layer over addresses `0..addrs`, one slot in `write_in`
    /// written back.
    fn random(rng: &mut FuzzRng, width: u32, addrs: u32, write_in: u64) -> DenseLayer {
        let mut layer = DenseLayer::new(width);
        let addr = |rng: &mut FuzzRng| rng.below(u64::from(addrs)) as u16;
        for p in &mut layer.perm {
            if rng.chance(3, 4) {
                *p = PermSource::State(addr(rng));
            }
        }
        for b in layer.planes.iter_mut().flatten().flatten() {
            *b = rng.chance(1, 2);
        }
        for slot in layer.writeback.iter_mut().flatten() {
            if rng.chance(1, write_in) {
                *slot = Some(addr(rng));
            }
        }
        layer
    }

    /// The layer as `layer` holds it, read through its accessors.
    fn of(layer: &BoomerangLayer) -> DenseLayer {
        let levels = 0..layer.fold_levels();
        DenseLayer {
            perm: (0..layer.width() as usize).map(|j| layer.perm(j)).collect(),
            planes: levels
                .clone()
                .map(|k| {
                    let fc = layer.fold(k);
                    PLANES.map(|p| (0..fc.slots()).map(|j| fc.get(p, j)).collect())
                })
                .collect(),
            writeback: levels
                .map(|k| {
                    (0..layer.fold(k).slots())
                        .map(|j| layer.writeback(k, j))
                        .collect()
                })
                .collect(),
        }
    }

    /// The same layer in the compact layout, built through its setters.
    fn compact(&self) -> BoomerangLayer {
        let mut layer = BoomerangLayer::new(self.perm.len() as u32);
        for (j, &p) in self.perm.iter().enumerate() {
            layer.set_perm(j, p);
        }
        for (k, planes) in self.planes.iter().enumerate() {
            for (p, plane) in PLANES.into_iter().zip(planes) {
                for (j, &v) in plane.iter().enumerate() {
                    layer.set_const(k, p, j, v);
                }
            }
        }
        for (k, slots) in self.writeback.iter().enumerate() {
            for (j, &addr) in slots.iter().enumerate() {
                layer.set_writeback(k, j, addr);
            }
        }
        layer
    }
}

/// One to three random layers of `width` in both layouts, encoded as a
/// core with no reads or writes. The layer words (everything after
/// `INIT`) are the dense encoder's; the core decodes to the layers, and
/// the dense decoder reads them back from the layer words. Flipping 1–4
/// bits of the layer words leaves both decoders agreeing: the same
/// error, or the same layers.
fn check_width(rng: &mut FuzzRng, width: u32, write_in: u64) {
    // Writeback addresses are 13-bit on the wire.
    let addrs = width.min(1 << 13);
    let dense: Vec<DenseLayer> = (0..1 + rng.below(3))
        .map(|_| DenseLayer::random(rng, width, addrs, write_in))
        .collect();
    let prog = CoreProgram {
        width,
        state_size: addrs,
        inputs: vec![],
        layers: dense.iter().map(DenseLayer::compact).collect(),
        outputs: vec![],
    };
    let what = format!("width {width}, 1 in {write_in} written");
    let bytes = assemble_core(&prog, &[], &[]);
    let at = init_bits(width) / 8;
    assert_eq!(bytes[at..], assemble_dense_layers(width, &dense), "{what}");
    let decoded = disassemble_core_exact(&bytes).expect("own core decodes");
    assert_eq!(decoded.layers, prog.layers, "{what}");
    let read: Vec<DenseLayer> = decoded.layers.iter().map(DenseLayer::of).collect();
    assert_eq!(read, dense, "{what}");
    assert_eq!(
        read_dense_layers(&bytes[at..], width, dense.len()),
        Ok(dense),
        "{what}"
    );

    let mut mutant = bytes.clone();
    for _ in 0..1 + rng.below(4) {
        let byte = at + rng.below((bytes.len() - at) as u64) as usize;
        mutant[byte] ^= 1 << rng.below(8);
    }
    let compact = disassemble_core(&mutant).map(|d| d.layers.iter().map(DenseLayer::of).collect());
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
