//! The dense layer layout, kept as the reference the compact
//! [`BoomerangLayer`] is held to: a [`PermSource`] per row bit, a
//! `bool` per fold constant and an `Option` per slot's writeback, with
//! the executor and both lowerings written against it. Random layers
//! are built both ways and must agree on every accessor, on
//! [`BoomerangLayer::execute`] and on [`CompiledLayer::lower`] and
//! [`PackedLayer::lower`]. `gem-isa` holds its codec to a bit-at-a-time
//! reference that reads and sets layers through the accessors checked
//! here.

use crate::layer::{BoomerangLayer, PermSource, Plane};
use crate::testutil::xorshift;

/// Per-slot fold constants of one level.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DenseFolds {
    pub xa: Vec<bool>,
    pub xb: Vec<bool>,
    pub ob: Vec<bool>,
}

/// A boomerang layer in the dense layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DenseLayer {
    pub width: u32,
    pub perm: Vec<PermSource>,
    pub folds: Vec<DenseFolds>,
    /// `writeback[k][j]`: the state address slot `j` of level `k + 1`
    /// writes back to.
    pub writeback: Vec<Vec<Option<u16>>>,
}

impl DenseLayer {
    pub fn new(width: u32) -> DenseLayer {
        let levels = 1..=width.trailing_zeros();
        let slots = |k: u32| (width >> k) as usize;
        DenseLayer {
            width,
            perm: vec![PermSource::ConstFalse; width as usize],
            folds: levels
                .clone()
                .map(|k| DenseFolds {
                    xa: vec![false; slots(k)],
                    xb: vec![false; slots(k)],
                    ob: vec![false; slots(k)],
                })
                .collect(),
            writeback: levels.map(|k| vec![None; slots(k)]).collect(),
        }
    }

    /// See [`crate::testutil::random_layer`].
    pub fn random(x: &mut u64, width: u32, addrs: u32, bypass_in: u64, write_in: u64) -> Self {
        let mut layer = DenseLayer::new(width);
        for p in layer.perm.iter_mut() {
            if !xorshift(x).is_multiple_of(4) {
                *p = PermSource::State((xorshift(x) % u64::from(addrs)) as u16);
            }
        }
        for fc in layer.folds.iter_mut() {
            for j in 0..fc.xa.len() {
                fc.xa[j] = xorshift(x) & 1 == 1;
                fc.xb[j] = xorshift(x) & 1 == 1;
                fc.ob[j] = xorshift(x).is_multiple_of(bypass_in);
            }
        }
        for wb in layer.writeback.iter_mut() {
            for slot in wb.iter_mut() {
                if write_in != 0 && xorshift(x).is_multiple_of(write_in) {
                    *slot = Some((xorshift(x) % u64::from(addrs)) as u16);
                }
            }
        }
        layer
    }

    /// The same layer in the compact layout, built through its setters:
    /// writebacks from the top level down and the highest slot first,
    /// so that each lands before the ones already set.
    pub fn compact(&self) -> BoomerangLayer {
        let mut layer = BoomerangLayer::new(self.width);
        for (j, &p) in self.perm.iter().enumerate() {
            layer.set_perm(j, p);
        }
        for (k, fc) in self.folds.iter().enumerate() {
            for (p, plane) in [
                (Plane::Xa, &fc.xa),
                (Plane::Xb, &fc.xb),
                (Plane::Ob, &fc.ob),
            ] {
                for (j, &v) in plane.iter().enumerate() {
                    layer.set_const(k, p, j, v);
                }
            }
        }
        for (k, slots) in self.writeback.iter().enumerate().rev() {
            for (j, &addr) in slots.iter().enumerate().rev() {
                layer.set_writeback(k, j, addr);
            }
        }
        layer
    }

    /// The dense layout's executor.
    pub fn execute(&self, state: &mut [bool]) {
        let mut row: Vec<bool> = self
            .perm
            .iter()
            .map(|s| match s {
                PermSource::State(a) => state[*a as usize],
                PermSource::ConstFalse => false,
            })
            .collect();
        for (k, fc) in self.folds.iter().enumerate() {
            let slots = row.len() / 2;
            let mut next = Vec::with_capacity(slots);
            for j in 0..slots {
                let a = row[2 * j] ^ fc.xa[j];
                let b = (row[2 * j + 1] ^ fc.xb[j]) | fc.ob[j];
                let v = a && b;
                if let Some(addr) = self.writeback[k][j] {
                    state[addr as usize] = v;
                }
                next.push(v);
            }
            row = next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::for_each_spec_dense;
    use crate::{compiled, packed, CompiledLayer, PackedLayer};

    /// Holds `compact` to `dense`: every accessor, the executor from a
    /// random state over `0..width` (every address the layer can name),
    /// and both lowerings.
    fn agree(dense: &DenseLayer, compact: &BoomerangLayer, x: &mut u64, what: &str) {
        assert_eq!(compact.width(), dense.width, "{what}");
        assert_eq!(compact.fold_levels(), dense.folds.len(), "{what}");
        for (j, &p) in dense.perm.iter().enumerate() {
            assert_eq!(compact.perm(j), p, "{what}: leaf {j}");
        }
        let mut writebacks = 0;
        for (k, (fc, wb)) in dense.folds.iter().zip(&dense.writeback).enumerate() {
            let view = compact.fold(k);
            assert_eq!(view.slots(), fc.xa.len(), "{what}: level {k}");
            for (j, &addr) in wb.iter().enumerate() {
                let want = (fc.xa[j], fc.xb[j], fc.ob[j], addr);
                let got = (view.xa(j), view.xb(j), view.ob(j), compact.writeback(k, j));
                assert_eq!(got, want, "{what}: level {k} slot {j}");
            }
            let listed: Vec<(u16, u16)> = (wb.iter().enumerate())
                .filter_map(|(j, a)| a.map(|a| (j as u16, a)))
                .collect();
            assert_eq!(compact.writebacks(k), &listed[..], "{what}: level {k}");
            writebacks += listed.len();
        }
        assert_eq!(compact.writeback_count(), writebacks, "{what}");

        let addrs = dense.width as usize;
        let before: Vec<bool> = (0..addrs).map(|_| xorshift(x) & 1 == 1).collect();
        let (mut want, mut got) = (before.clone(), before);
        dense.execute(&mut want);
        compact.execute(&mut got);
        assert_eq!(got, want, "{what}: execute");

        let want = compiled::tests::lower_dense(dense);
        assert_eq!(
            CompiledLayer::lower(compact),
            want,
            "{what}: lane-word lowering"
        );
        for zero in [dense.width, 5] {
            let want = packed::tests::lower_dense(dense, zero);
            assert_eq!(
                PackedLayer::lower(compact, zero),
                want,
                "{what}: packed, zero {zero}"
            );
        }
    }

    /// Random layers of `width` over the same matrix of densities as
    /// [`for_each_spec_dense`], `reps` of each.
    fn wide(
        x: &mut u64,
        width: u32,
        reps: usize,
        check: &mut impl FnMut(&DenseLayer, &mut u64, &str),
    ) {
        for addrs in [width, width.min(5)] {
            for write_in in [1, 16, u64::from(width), 0] {
                for bypass_in in [1, 3, 16] {
                    for _ in 0..reps {
                        let dense = DenseLayer::random(x, width, addrs, bypass_in, write_in);
                        let what = format!(
                            "width {width}, {addrs} addresses, \
                             1 in {write_in} written, 1 in {bypass_in} bypassed"
                        );
                        check(&dense, x, &what);
                    }
                }
            }
        }
    }

    /// The compact layout against the dense one on every layer of the
    /// spec matrix and at the ISA's two widest core widths.
    #[test]
    fn compact_layout_matches_the_dense_reference() {
        let mut check = |dense: &DenseLayer, x: &mut u64, what: &str| {
            agree(dense, &dense.compact(), x, what);
        };
        let mut x = 0xDE75E;
        for_each_spec_dense(&mut x, &mut check);
        for width in [1 << 14, 1 << 15] {
            wide(&mut x, width, 1, &mut check);
        }
    }

    /// [`compact_layout_matches_the_dense_reference`] over 12 060 random
    /// layers: the spec matrix 30 times over, and 24 layers at each
    /// width from 2 to 32 768 with every density.
    #[test]
    #[ignore = "12 060 layers: run with `cargo test -p gem-place --release -- --ignored`"]
    fn compact_layout_matches_the_dense_reference_sweep() {
        let mut layers = 0;
        let mut check = |dense: &DenseLayer, x: &mut u64, what: &str| {
            agree(dense, &dense.compact(), x, what);
            layers += 1;
        };
        let mut x = 0x5EE9_DE75E;
        for _ in 0..30 {
            for_each_spec_dense(&mut x, &mut check);
        }
        for log in 1..=15 {
            wide(&mut x, 1 << log, 1, &mut check);
        }
        assert_eq!(layers, 12_060);
    }
}
