//! Arbitrary-width two-state (`0`/`1`) values.
//!
//! GEM is a two-state simulator (the paper lists 4-state simulation as
//! future work), so a value is just a fixed-width vector of bits. [`Bits`]
//! stores them packed into `u64` limbs, least-significant limb first.

use std::fmt;

/// A fixed-width two-state value, bit 0 being the least significant.
///
/// # Example
///
/// ```
/// use gem_netlist::Bits;
///
/// let a = Bits::from_u64(0b1011, 4);
/// assert_eq!(a.bit(0), true);
/// assert_eq!(a.bit(2), false);
/// assert_eq!(a.to_u64(), 0b1011);
/// assert_eq!(format!("{a}"), "4'b1011");
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Bits {
    width: u32,
    limbs: Vec<u64>,
}

impl Bits {
    /// Creates an all-zero value of the given width.
    ///
    /// A zero-width value is allowed and compares equal to any other
    /// zero-width value.
    pub fn zeros(width: u32) -> Self {
        Bits {
            width,
            limbs: vec![0; Self::limb_count(width)],
        }
    }

    /// Creates an all-ones value of the given width.
    pub fn ones(width: u32) -> Self {
        let mut b = Bits {
            width,
            limbs: vec![!0u64; Self::limb_count(width)],
        };
        b.mask_top();
        b
    }

    /// Creates a value from the low `width` bits of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `width > 64` would be required to hold set bits of `v`
    /// that get truncated; truncation of zero bits is fine.
    pub fn from_u64(v: u64, width: u32) -> Self {
        let mut b = Bits::zeros(width);
        if width > 0 {
            if width < 64 {
                debug_assert_eq!(v >> width, 0, "value {v:#x} does not fit in {width} bits");
            }
            b.limbs[0] = if width >= 64 {
                v
            } else {
                v & ((1u64 << width) - 1)
            };
        }
        b
    }

    fn limb_count(width: u32) -> usize {
        width.div_ceil(64) as usize
    }

    /// Width in bits.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Reads bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= width`.
    pub fn bit(&self, i: u32) -> bool {
        assert!(
            i < self.width,
            "bit index {i} out of range 0..{}",
            self.width
        );
        (self.limbs[(i / 64) as usize] >> (i % 64)) & 1 == 1
    }

    /// Sets bit `i` to `v`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= width`.
    pub fn set_bit(&mut self, i: u32, v: bool) {
        assert!(
            i < self.width,
            "bit index {i} out of range 0..{}",
            self.width
        );
        let limb = &mut self.limbs[(i / 64) as usize];
        if v {
            *limb |= 1u64 << (i % 64);
        } else {
            *limb &= !(1u64 << (i % 64));
        }
    }

    /// Returns the value as a `u64`, truncating to the low 64 bits.
    pub fn to_u64(&self) -> u64 {
        self.limbs.first().copied().unwrap_or(0)
    }

    /// True if every bit is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.iter().all(|&l| l == 0)
    }

    /// Iterator over bits, LSB first.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.width).map(move |i| self.bit(i))
    }

    fn mask_top(&mut self) {
        let rem = self.width % 64;
        if rem != 0 {
            if let Some(last) = self.limbs.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }

    fn check_same_width(&self, other: &Self) {
        assert_eq!(
            self.width, other.width,
            "width mismatch: {} vs {}",
            self.width, other.width
        );
    }

    /// Bitwise NOT.
    pub fn not(&self) -> Self {
        let mut r = self.clone();
        for l in &mut r.limbs {
            *l = !*l;
        }
        r.mask_top();
        r
    }

    /// Bitwise AND.
    ///
    /// # Panics
    ///
    /// Panics if widths differ (same for the other bitwise ops).
    pub fn and(&self, other: &Self) -> Self {
        self.check_same_width(other);
        self.zip(other, |a, b| a & b)
    }

    /// Bitwise OR.
    pub fn or(&self, other: &Self) -> Self {
        self.check_same_width(other);
        self.zip(other, |a, b| a | b)
    }

    /// Bitwise XOR.
    pub fn xor(&self, other: &Self) -> Self {
        self.check_same_width(other);
        self.zip(other, |a, b| a ^ b)
    }

    fn zip(&self, other: &Self, f: impl Fn(u64, u64) -> u64) -> Self {
        let mut r = self.clone();
        for (l, o) in r.limbs.iter_mut().zip(&other.limbs) {
            *l = f(*l, *o);
        }
        r.mask_top();
        r
    }

    /// Wrapping addition (modulo `2^width`).
    pub fn add(&self, other: &Self) -> Self {
        self.check_same_width(other);
        let mut r = Bits::zeros(self.width);
        let mut carry = 0u64;
        for i in 0..self.limbs.len() {
            let (s1, c1) = self.limbs[i].overflowing_add(other.limbs[i]);
            let (s2, c2) = s1.overflowing_add(carry);
            r.limbs[i] = s2;
            carry = (c1 as u64) + (c2 as u64);
        }
        r.mask_top();
        r
    }

    /// Wrapping subtraction (modulo `2^width`).
    pub fn sub(&self, other: &Self) -> Self {
        self.check_same_width(other);
        // a - b = a + !b + 1
        let mut r = self.add(&other.not());
        // add 1
        let one = {
            let mut o = Bits::zeros(self.width);
            if self.width > 0 {
                o.limbs[0] = 1;
            }
            o
        };
        r = r.add(&one);
        r
    }

    /// Wrapping multiplication (modulo `2^width`). Widths must match.
    pub fn mul(&self, other: &Self) -> Self {
        self.check_same_width(other);
        let n = self.limbs.len();
        let mut acc = vec![0u64; n];
        for i in 0..n {
            let mut carry = 0u128;
            for j in 0..n - i {
                let t =
                    acc[i + j] as u128 + (self.limbs[i] as u128) * (other.limbs[j] as u128) + carry;
                acc[i + j] = t as u64;
                carry = t >> 64;
            }
        }
        let mut r = Bits {
            width: self.width,
            limbs: acc,
        };
        r.mask_top();
        r
    }

    /// Unsigned comparison: `self < other`.
    pub fn ult(&self, other: &Self) -> bool {
        self.check_same_width(other);
        for i in (0..self.limbs.len()).rev() {
            if self.limbs[i] != other.limbs[i] {
                return self.limbs[i] < other.limbs[i];
            }
        }
        false
    }

    /// Logical shift left by a constant amount (zeros shifted in).
    pub fn shl(&self, amount: u32) -> Self {
        let mut r = Bits::zeros(self.width);
        for i in 0..self.width {
            if i >= amount && self.bit(i - amount) {
                r.set_bit(i, true);
            }
        }
        r
    }

    /// Logical shift right by a constant amount (zeros shifted in).
    pub fn lshr(&self, amount: u32) -> Self {
        let mut r = Bits::zeros(self.width);
        for i in 0..self.width {
            if i + amount < self.width && self.bit(i + amount) {
                r.set_bit(i, true);
            }
        }
        r
    }

    /// AND-reduction over all bits. The reduction of a zero-width value is
    /// `true` (empty product), matching Verilog's vacuous behaviour.
    pub fn reduce_and(&self) -> bool {
        *self == Bits::ones(self.width)
    }

    /// OR-reduction over all bits.
    pub fn reduce_or(&self) -> bool {
        !self.is_zero()
    }

    /// XOR-reduction (parity) over all bits.
    pub fn reduce_xor(&self) -> bool {
        self.limbs.iter().map(|l| l.count_ones()).sum::<u32>() % 2 == 1
    }

    /// Extracts bits `[lo, lo+width)` as a new value.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds this value's width.
    pub fn slice(&self, lo: u32, width: u32) -> Self {
        assert!(
            lo + width <= self.width,
            "slice [{lo}, {}) out of range 0..{}",
            lo + width,
            self.width
        );
        let mut r = Bits::zeros(width);
        for i in 0..width {
            r.set_bit(i, self.bit(lo + i));
        }
        r
    }

    /// Concatenates `self` (low part) with `hi` (high part).
    pub fn concat(&self, hi: &Self) -> Self {
        let mut r = Bits::zeros(self.width + hi.width);
        for i in 0..self.width {
            r.set_bit(i, self.bit(i));
        }
        for i in 0..hi.width {
            r.set_bit(self.width + i, hi.bit(i));
        }
        r
    }

    /// Zero-extends or truncates to `width`.
    pub fn resize(&self, width: u32) -> Self {
        let mut r = Bits::zeros(width);
        for i in 0..width.min(self.width) {
            r.set_bit(i, self.bit(i));
        }
        r
    }
}

impl fmt::Debug for Bits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for Bits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}'b", self.width)?;
        if self.width == 0 {
            return write!(f, "0");
        }
        for i in (0..self.width).rev() {
            write!(f, "{}", if self.bit(i) { '1' } else { '0' })?;
        }
        Ok(())
    }
}

impl From<bool> for Bits {
    fn from(v: bool) -> Self {
        Bits::from_u64(v as u64, 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let b = Bits::from_u64(0b1010, 4);
        assert_eq!(b.width(), 4);
        assert!(!b.bit(0));
        assert!(b.bit(1));
        assert!(!b.bit(2));
        assert!(b.bit(3));
        assert_eq!(b.to_u64(), 0b1010);
    }

    #[test]
    fn wide_values() {
        let mut b = Bits::zeros(130);
        b.set_bit(0, true);
        b.set_bit(64, true);
        b.set_bit(129, true);
        assert!(b.bit(129));
        assert!(b.bit(64));
        assert!(!b.bit(128));
        let n = b.not();
        assert!(!n.bit(129));
        assert!(n.bit(128));
    }

    #[test]
    fn arithmetic_wraps() {
        let a = Bits::from_u64(0xF, 4);
        let one = Bits::from_u64(1, 4);
        assert_eq!(a.add(&one).to_u64(), 0);
        assert_eq!(Bits::zeros(4).sub(&one).to_u64(), 0xF);
    }

    #[test]
    fn wide_add_carry_propagates() {
        let mut a = Bits::zeros(128);
        for i in 0..64 {
            a.set_bit(i, true); // low limb all ones
        }
        let one = Bits::from_u64(1, 128);
        let s = a.add(&one);
        assert!(s.bit(64));
        for i in 0..64 {
            assert!(!s.bit(i));
        }
    }

    #[test]
    fn mul_matches_u64() {
        let a = Bits::from_u64(123, 32);
        let b = Bits::from_u64(4567, 32);
        assert_eq!(a.mul(&b).to_u64(), (123u64 * 4567) & 0xFFFF_FFFF);
    }

    #[test]
    fn comparisons() {
        let a = Bits::from_u64(5, 8);
        let b = Bits::from_u64(9, 8);
        assert!(a.ult(&b));
        assert!(!b.ult(&a));
        assert!(!a.ult(&a));
    }

    #[test]
    fn reductions() {
        assert!(Bits::ones(7).reduce_and());
        assert!(!Bits::from_u64(0b011, 3).reduce_and());
        assert!(Bits::from_u64(0b010, 3).reduce_or());
        assert!(!Bits::zeros(3).reduce_or());
        assert!(Bits::from_u64(0b0111, 4).reduce_xor());
        assert!(!Bits::from_u64(0b0101, 4).reduce_xor());
    }

    #[test]
    fn shifts() {
        let a = Bits::from_u64(0b0011, 4);
        assert_eq!(a.shl(2).to_u64(), 0b1100);
        assert_eq!(a.shl(5).to_u64(), 0);
        assert_eq!(Bits::from_u64(0b1100, 4).lshr(2).to_u64(), 0b0011);
    }

    #[test]
    fn slice_concat_resize() {
        let a = Bits::from_u64(0xAB, 8);
        assert_eq!(a.slice(4, 4).to_u64(), 0xA);
        let c = a.slice(0, 4).concat(&a.slice(4, 4));
        assert_eq!(c.to_u64(), 0xAB);
        assert_eq!(a.resize(4).to_u64(), 0xB);
        assert_eq!(a.resize(16).to_u64(), 0xAB);
    }

    #[test]
    fn display_format() {
        assert_eq!(format!("{}", Bits::from_u64(0b101, 3)), "3'b101");
        assert_eq!(format!("{}", Bits::zeros(0)), "0'b0");
    }

    #[test]
    fn ones_masks_top_limb() {
        let b = Bits::ones(65);
        assert!(b.bit(64));
        assert_eq!(b.limbs[1], 1);
    }
}
