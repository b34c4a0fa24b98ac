//! Core [`BigUint`] type: representation, comparison, addition, subtraction,
//! multiplication, shifts and radix conversion.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Mul, Shl, Shr, Sub, SubAssign};
use std::str::FromStr;

use crate::BigIntError;

/// Number of limbs below which schoolbook multiplication is used directly.
const KARATSUBA_THRESHOLD: usize = 24;

/// An arbitrary-precision unsigned integer.
///
/// Stored as little-endian 64-bit limbs with no trailing zero limbs; zero is
/// the empty limb vector. All arithmetic is value-oriented; operators take
/// references where cloning would be wasteful.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BigUint {
    pub(crate) limbs: Vec<u64>,
}

impl BigUint {
    /// Returns zero.
    pub fn zero() -> Self {
        BigUint { limbs: Vec::new() }
    }

    /// Returns one.
    pub fn one() -> Self {
        BigUint { limbs: vec![1] }
    }

    /// Builds a value from a single machine word.
    pub fn from_u64(v: u64) -> Self {
        if v == 0 {
            Self::zero()
        } else {
            BigUint { limbs: vec![v] }
        }
    }

    /// Builds a value from little-endian limbs, normalizing trailing zeros.
    pub fn from_limbs(mut limbs: Vec<u64>) -> Self {
        while limbs.last() == Some(&0) {
            limbs.pop();
        }
        BigUint { limbs }
    }

    /// Exposes the little-endian limb slice.
    pub fn limbs(&self) -> &[u64] {
        &self.limbs
    }

    /// Builds a value from big-endian bytes.
    pub fn from_bytes_be(bytes: &[u8]) -> Self {
        let mut limbs = Vec::with_capacity(bytes.len() / 8 + 1);
        let mut cur: u64 = 0;
        let mut nbits = 0;
        for &b in bytes.iter().rev() {
            cur |= (b as u64) << nbits;
            nbits += 8;
            if nbits == 64 {
                limbs.push(cur);
                cur = 0;
                nbits = 0;
            }
        }
        if nbits > 0 {
            limbs.push(cur);
        }
        Self::from_limbs(limbs)
    }

    /// Serializes to minimal big-endian bytes (empty for zero).
    pub fn to_bytes_be(&self) -> Vec<u8> {
        if self.is_zero() {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(self.limbs.len() * 8);
        for (i, &limb) in self.limbs.iter().enumerate().rev() {
            let bytes = limb.to_be_bytes();
            if i == self.limbs.len() - 1 {
                // Skip leading zero bytes of the most significant limb.
                let skip = (limb.leading_zeros() / 8) as usize;
                out.extend_from_slice(&bytes[skip..]);
            } else {
                out.extend_from_slice(&bytes);
            }
        }
        out
    }

    /// Serializes to exactly `len` big-endian bytes, left-padded with zeros.
    ///
    /// # Panics
    ///
    /// Panics if the value does not fit in `len` bytes.
    pub fn to_bytes_be_padded(&self, len: usize) -> Vec<u8> {
        let raw = self.to_bytes_be();
        assert!(raw.len() <= len, "value does not fit in {len} bytes");
        let mut out = vec![0u8; len - raw.len()];
        out.extend_from_slice(&raw);
        out
    }

    /// Parses a hexadecimal string (no prefix, case-insensitive).
    pub fn from_hex(s: &str) -> Result<Self, BigIntError> {
        let s = s.trim();
        if s.is_empty() {
            return Err(BigIntError::ParseError("empty hex string".into()));
        }
        let mut limbs = Vec::with_capacity(s.len() / 16 + 1);
        let chars: Vec<u8> = s.bytes().collect();
        let mut i = chars.len();
        while i > 0 {
            let start = i.saturating_sub(16);
            let chunk = std::str::from_utf8(&chars[start..i]).expect("ascii slice");
            let limb = u64::from_str_radix(chunk, 16)
                .map_err(|e| BigIntError::ParseError(format!("bad hex chunk {chunk:?}: {e}")))?;
            limbs.push(limb);
            i = start;
        }
        Ok(Self::from_limbs(limbs))
    }

    /// Renders as lowercase hexadecimal with no prefix ("0" for zero).
    pub fn to_hex(&self) -> String {
        if self.is_zero() {
            return "0".to_string();
        }
        let mut s = String::with_capacity(self.limbs.len() * 16);
        for (i, &limb) in self.limbs.iter().enumerate().rev() {
            if i == self.limbs.len() - 1 {
                s.push_str(&format!("{limb:x}"));
            } else {
                s.push_str(&format!("{limb:016x}"));
            }
        }
        s
    }

    /// Returns true if the value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// Returns true if the value is one.
    pub fn is_one(&self) -> bool {
        self.limbs.len() == 1 && self.limbs[0] == 1
    }

    /// Returns true if the value is even (zero counts as even).
    pub fn is_even(&self) -> bool {
        self.limbs.first().is_none_or(|l| l & 1 == 0)
    }

    /// Number of significant bits (zero has zero bits).
    pub fn bits(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(&top) => self.limbs.len() * 64 - top.leading_zeros() as usize,
        }
    }

    /// Returns bit `i` (zero-indexed from the least significant bit).
    pub fn bit(&self, i: usize) -> bool {
        let limb = i / 64;
        let off = i % 64;
        self.limbs.get(limb).is_some_and(|l| (l >> off) & 1 == 1)
    }

    /// Checked subtraction: `self - other`, or `None` on underflow.
    pub fn checked_sub(&self, other: &BigUint) -> Option<BigUint> {
        if self < other {
            return None;
        }
        let mut limbs = self.limbs.clone();
        let mut borrow = 0u64;
        for (i, limb) in limbs.iter_mut().enumerate() {
            let rhs = other.limbs.get(i).copied().unwrap_or(0);
            let (d1, b1) = limb.overflowing_sub(rhs);
            let (d2, b2) = d1.overflowing_sub(borrow);
            *limb = d2;
            borrow = (b1 as u64) + (b2 as u64);
            if borrow == 0 && i >= other.limbs.len() {
                break;
            }
        }
        debug_assert_eq!(borrow, 0);
        Some(Self::from_limbs(limbs))
    }

    /// In-place addition of a single word.
    pub fn add_u64(&mut self, v: u64) {
        let mut carry = v;
        for limb in &mut self.limbs {
            let (s, c) = limb.overflowing_add(carry);
            *limb = s;
            carry = c as u64;
            if carry == 0 {
                return;
            }
        }
        if carry != 0 {
            self.limbs.push(carry);
        }
    }

    /// Multiplies by a single word.
    pub fn mul_u64(&self, v: u64) -> BigUint {
        if v == 0 || self.is_zero() {
            return BigUint::zero();
        }
        let mut limbs = Vec::with_capacity(self.limbs.len() + 1);
        let mut carry: u128 = 0;
        for &l in &self.limbs {
            let t = l as u128 * v as u128 + carry;
            limbs.push(t as u64);
            carry = t >> 64;
        }
        if carry != 0 {
            limbs.push(carry as u64);
        }
        Self::from_limbs(limbs)
    }

    /// Schoolbook multiplication, used directly below the Karatsuba cutoff.
    fn mul_schoolbook(a: &[u64], b: &[u64]) -> Vec<u64> {
        if a.is_empty() || b.is_empty() {
            return Vec::new();
        }
        let mut out = vec![0u64; a.len() + b.len()];
        for (i, &ai) in a.iter().enumerate() {
            if ai == 0 {
                continue;
            }
            let mut carry: u128 = 0;
            for (j, &bj) in b.iter().enumerate() {
                let t = ai as u128 * bj as u128 + out[i + j] as u128 + carry;
                out[i + j] = t as u64;
                carry = t >> 64;
            }
            let mut k = i + b.len();
            while carry != 0 {
                let t = out[k] as u128 + carry;
                out[k] = t as u64;
                carry = t >> 64;
                k += 1;
            }
        }
        out
    }

    /// Karatsuba multiplication on limb slices; result has `a.len()+b.len()` limbs
    /// before normalization.
    fn mul_limbs(a: &[u64], b: &[u64]) -> Vec<u64> {
        if a.len() < KARATSUBA_THRESHOLD || b.len() < KARATSUBA_THRESHOLD {
            return Self::mul_schoolbook(a, b);
        }
        let half = a.len().max(b.len()).div_ceil(2);
        let (a0, a1) = a.split_at(half.min(a.len()));
        let (b0, b1) = b.split_at(half.min(b.len()));
        let a0 = BigUint::from_limbs(a0.to_vec());
        let a1 = BigUint::from_limbs(a1.to_vec());
        let b0 = BigUint::from_limbs(b0.to_vec());
        let b1 = BigUint::from_limbs(b1.to_vec());

        let z0 = &a0 * &b0;
        let z2 = &a1 * &b1;
        let z1 = &(&a0 + &a1) * &(&b0 + &b1);
        let z1 = z1
            .checked_sub(&z0)
            .and_then(|t| t.checked_sub(&z2))
            .expect("karatsuba middle term underflow");

        let mut out = z0;
        out += &(z1 << (64 * half));
        out += &(z2 << (128 * half));
        out.limbs
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        match self.limbs.len().cmp(&other.limbs.len()) {
            Ordering::Equal => {
                for (a, b) in self.limbs.iter().rev().zip(other.limbs.iter().rev()) {
                    match a.cmp(b) {
                        Ordering::Equal => continue,
                        ord => return ord,
                    }
                }
                Ordering::Equal
            }
            ord => ord,
        }
    }
}

impl Add<&BigUint> for &BigUint {
    type Output = BigUint;
    fn add(self, rhs: &BigUint) -> BigUint {
        let (long, short) = if self.limbs.len() >= rhs.limbs.len() {
            (self, rhs)
        } else {
            (rhs, self)
        };
        let mut limbs = long.limbs.clone();
        let mut carry = 0u64;
        for (i, limb) in limbs.iter_mut().enumerate() {
            let rhs_l = short.limbs.get(i).copied().unwrap_or(0);
            let (s1, c1) = limb.overflowing_add(rhs_l);
            let (s2, c2) = s1.overflowing_add(carry);
            *limb = s2;
            carry = (c1 as u64) + (c2 as u64);
            if carry == 0 && i >= short.limbs.len() {
                break;
            }
        }
        if carry != 0 {
            limbs.push(carry);
        }
        BigUint::from_limbs(limbs)
    }
}

impl Add for BigUint {
    type Output = BigUint;
    fn add(self, rhs: BigUint) -> BigUint {
        &self + &rhs
    }
}

impl AddAssign<&BigUint> for BigUint {
    fn add_assign(&mut self, rhs: &BigUint) {
        *self = &*self + rhs;
    }
}

impl Sub<&BigUint> for &BigUint {
    type Output = BigUint;
    /// # Panics
    ///
    /// Panics on underflow; use [`BigUint::checked_sub`] for a fallible form.
    fn sub(self, rhs: &BigUint) -> BigUint {
        self.checked_sub(rhs)
            .expect("BigUint subtraction underflow")
    }
}

impl Sub for BigUint {
    type Output = BigUint;
    fn sub(self, rhs: BigUint) -> BigUint {
        &self - &rhs
    }
}

impl SubAssign<&BigUint> for BigUint {
    fn sub_assign(&mut self, rhs: &BigUint) {
        *self = &*self - rhs;
    }
}

impl Mul<&BigUint> for &BigUint {
    type Output = BigUint;
    fn mul(self, rhs: &BigUint) -> BigUint {
        BigUint::from_limbs(BigUint::mul_limbs(&self.limbs, &rhs.limbs))
    }
}

impl Mul for BigUint {
    type Output = BigUint;
    fn mul(self, rhs: BigUint) -> BigUint {
        &self * &rhs
    }
}

impl Shl<usize> for &BigUint {
    type Output = BigUint;
    fn shl(self, bits: usize) -> BigUint {
        if self.is_zero() || bits == 0 {
            return self.clone();
        }
        let limb_shift = bits / 64;
        let bit_shift = bits % 64;
        let mut limbs = vec![0u64; limb_shift];
        if bit_shift == 0 {
            limbs.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &l in &self.limbs {
                limbs.push((l << bit_shift) | carry);
                carry = l >> (64 - bit_shift);
            }
            if carry != 0 {
                limbs.push(carry);
            }
        }
        BigUint::from_limbs(limbs)
    }
}

impl Shl<usize> for BigUint {
    type Output = BigUint;
    fn shl(self, bits: usize) -> BigUint {
        &self << bits
    }
}

impl Shr<usize> for &BigUint {
    type Output = BigUint;
    fn shr(self, bits: usize) -> BigUint {
        let limb_shift = bits / 64;
        if limb_shift >= self.limbs.len() {
            return BigUint::zero();
        }
        let bit_shift = bits % 64;
        let src = &self.limbs[limb_shift..];
        let mut limbs = Vec::with_capacity(src.len());
        if bit_shift == 0 {
            limbs.extend_from_slice(src);
        } else {
            for i in 0..src.len() {
                let lo = src[i] >> bit_shift;
                let hi = src.get(i + 1).copied().unwrap_or(0) << (64 - bit_shift);
                limbs.push(lo | hi);
            }
        }
        BigUint::from_limbs(limbs)
    }
}

impl Shr<usize> for BigUint {
    type Output = BigUint;
    fn shr(self, bits: usize) -> BigUint {
        &self >> bits
    }
}

impl fmt::Debug for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigUint(0x{})", self.to_hex())
    }
}

impl fmt::Display for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        // Repeatedly divide by 10^19 (the largest power of ten below 2^64).
        const CHUNK: u64 = 10_000_000_000_000_000_000;
        let mut chunks = Vec::new();
        let mut cur = self.clone();
        while !cur.is_zero() {
            let (q, r) = cur.divrem_u64(CHUNK);
            chunks.push(r);
            cur = q;
        }
        let mut s = String::new();
        for (i, &c) in chunks.iter().rev().enumerate() {
            if i == 0 {
                s.push_str(&c.to_string());
            } else {
                s.push_str(&format!("{c:019}"));
            }
        }
        write!(f, "{s}")
    }
}

impl FromStr for BigUint {
    type Err = BigIntError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        if s.is_empty() || !s.bytes().all(|b| b.is_ascii_digit()) {
            return Err(BigIntError::ParseError(format!("bad decimal: {s:?}")));
        }
        let mut out = BigUint::zero();
        for chunk in s.as_bytes().chunks(19) {
            let chunk_str = std::str::from_utf8(chunk).expect("ascii");
            let v: u64 = chunk_str
                .parse()
                .map_err(|e| BigIntError::ParseError(format!("{e}")))?;
            out = out.mul_u64(10u64.pow(chunk.len() as u32));
            out.add_u64(v);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_and_one_identities() {
        let z = BigUint::zero();
        let o = BigUint::one();
        assert!(z.is_zero());
        assert!(o.is_one());
        assert_eq!(&z + &o, o);
        assert_eq!(&o * &z, z);
        assert_eq!(z.bits(), 0);
        assert_eq!(o.bits(), 1);
    }

    #[test]
    fn add_with_carry_chain() {
        let a = BigUint::from_limbs(vec![u64::MAX, u64::MAX]);
        let b = BigUint::one();
        let s = &a + &b;
        assert_eq!(s, BigUint::from_limbs(vec![0, 0, 1]));
    }

    #[test]
    fn sub_borrows_across_limbs() {
        let a = BigUint::from_limbs(vec![0, 0, 1]);
        let b = BigUint::one();
        let d = &a - &b;
        assert_eq!(d, BigUint::from_limbs(vec![u64::MAX, u64::MAX]));
    }

    #[test]
    fn checked_sub_underflow_is_none() {
        let a = BigUint::from_u64(5);
        let b = BigUint::from_u64(6);
        assert_eq!(a.checked_sub(&b), None);
        assert_eq!(b.checked_sub(&a), Some(BigUint::one()));
    }

    #[test]
    fn mul_matches_u128() {
        let a = BigUint::from_u64(0xdead_beef_cafe_f00d);
        let b = BigUint::from_u64(0x1234_5678_9abc_def1);
        let expect = 0xdead_beef_cafe_f00d_u128 * 0x1234_5678_9abc_def1_u128;
        let expect = BigUint::from_limbs(vec![expect as u64, (expect >> 64) as u64]);
        assert_eq!(&a * &b, expect);
    }

    #[test]
    fn karatsuba_matches_schoolbook() {
        // Build operands big enough to cross the Karatsuba threshold.
        let mut limbs_a = Vec::new();
        let mut limbs_b = Vec::new();
        let mut x: u64 = 0x9e3779b97f4a7c15;
        for i in 0..70u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
            limbs_a.push(x);
            x = x.wrapping_mul(6364136223846793005).wrapping_add(i * 7 + 1);
            limbs_b.push(x);
        }
        let a = BigUint::from_limbs(limbs_a.clone());
        let b = BigUint::from_limbs(limbs_b.clone());
        let fast = &a * &b;
        let slow = BigUint::from_limbs(BigUint::mul_schoolbook(&limbs_a, &limbs_b));
        assert_eq!(fast, slow);
    }

    #[test]
    fn shifts_roundtrip() {
        let a = BigUint::from_hex("deadbeefcafef00d123456789").unwrap();
        for bits in [0usize, 1, 7, 63, 64, 65, 130] {
            let shifted = &a << bits;
            assert_eq!(&shifted >> bits, a, "shift roundtrip failed for {bits}");
        }
    }

    #[test]
    fn shr_past_end_is_zero() {
        let a = BigUint::from_u64(42);
        assert!((&a >> 64).is_zero());
        assert!((&a >> 1000).is_zero());
    }

    #[test]
    fn bytes_roundtrip() {
        let a = BigUint::from_hex("0123456789abcdef0011223344556677deadbeef").unwrap();
        let bytes = a.to_bytes_be();
        assert_eq!(BigUint::from_bytes_be(&bytes), a);
        let padded = a.to_bytes_be_padded(32);
        assert_eq!(padded.len(), 32);
        assert_eq!(BigUint::from_bytes_be(&padded), a);
    }

    #[test]
    fn hex_roundtrip() {
        for s in [
            "0",
            "1",
            "ff",
            "deadbeef",
            "123456789abcdef0123456789abcdef",
        ] {
            let v = BigUint::from_hex(s).unwrap();
            assert_eq!(v.to_hex(), *s);
        }
        // Leading zeros are normalized away.
        assert_eq!(
            BigUint::from_hex("000deadbeef").unwrap().to_hex(),
            "deadbeef"
        );
    }

    #[test]
    fn decimal_roundtrip() {
        for s in [
            "0",
            "1",
            "42",
            "18446744073709551616",
            "340282366920938463463374607431768211456",
        ] {
            let v: BigUint = s.parse().unwrap();
            assert_eq!(v.to_string(), s);
        }
    }

    #[test]
    fn decimal_parse_rejects_garbage() {
        assert!("".parse::<BigUint>().is_err());
        assert!("12a".parse::<BigUint>().is_err());
        assert!("-5".parse::<BigUint>().is_err());
    }

    #[test]
    fn ordering_is_by_magnitude() {
        let a = BigUint::from_limbs(vec![0, 1]); // 2^64
        let b = BigUint::from_u64(u64::MAX);
        assert!(a > b);
        assert!(b < a);
        assert_eq!(a.cmp(&a), Ordering::Equal);
    }

    #[test]
    fn bit_access() {
        let v = BigUint::from_u64(0b1010);
        assert!(!v.bit(0));
        assert!(v.bit(1));
        assert!(!v.bit(2));
        assert!(v.bit(3));
        assert!(!v.bit(200));
    }

    #[test]
    fn mul_u64_matches_general_mul() {
        let a = BigUint::from_hex("ffffffffffffffffffffffffffffffff").unwrap();
        assert_eq!(a.mul_u64(12345), &a * &BigUint::from_u64(12345));
    }
}
