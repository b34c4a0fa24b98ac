//! Modular arithmetic: Montgomery contexts, modular exponentiation and
//! extended-Euclid inverses.

use crate::uint::BigUint;
use crate::BigIntError;

/// A reusable Montgomery reduction context for a fixed odd modulus.
///
/// Exponentiations against the same modulus (the common case in the INDaaS
/// P-SOP ring protocol, where every element is encrypted under the same
/// group) share the precomputed `R mod n`, `R^2 mod n` and
/// `-n^{-1} mod 2^64` values. Operands live as `k`-limb little-endian
/// slices padded to the modulus width; every product is written into
/// caller-provided scratch.
#[derive(Clone, Debug)]
pub struct Montgomery {
    n: BigUint,
    /// Number of limbs in the modulus (the Montgomery "k").
    k: usize,
    /// `-n[0]^{-1} mod 2^64`.
    n0inv: u64,
    /// `R mod n` where `R = 2^(64k)`: one in Montgomery form, `k` limbs.
    one: Vec<u64>,
    /// `R^2 mod n`, `k` limbs.
    rr: Vec<u64>,
}

/// An exponent recoded into fixed-width window digits, most significant
/// first. Recode once when many bases are raised to the same exponent.
#[derive(Clone, Debug)]
pub struct WindowedExp {
    width: usize,
    digits: Vec<u8>,
}

impl WindowedExp {
    /// Recodes `exp`. A `w`-bit window costs `2^w - 2` multiplies for the
    /// table and one per digit, so the width grows with the exponent length.
    pub fn new(exp: &BigUint) -> Self {
        let width = match exp.bits() {
            0..=23 => 1,
            24..=79 => 3,
            80..=239 => 4,
            _ => 5,
        };
        let digits = (0..exp.bits().div_ceil(width).max(1))
            .rev()
            .map(|d| (0..width).fold(0, |acc, b| acc | (exp.bit(d * width + b) as u8) << b))
            .collect();
        WindowedExp { width, digits }
    }
}

impl Montgomery {
    /// Creates a context for odd modulus `n`.
    ///
    /// Returns `None` if `n` is zero or even.
    pub fn new(n: &BigUint) -> Option<Self> {
        if n.is_zero() || n.is_even() {
            return None;
        }
        let k = n.limbs().len();
        let n0inv = inv64(n.limbs()[0]).wrapping_neg();
        // R and R^2 mod n computed by shifting; runs once per modulus.
        let r = (&BigUint::one() << (64 * k)).rem(n);
        let padded = |v: BigUint| {
            let mut limbs = v.limbs;
            limbs.resize(k, 0);
            limbs
        };
        Some(Montgomery {
            n: n.clone(),
            k,
            n0inv,
            rr: padded((&r * &r).rem(n)),
            one: padded(r),
        })
    }

    /// The modulus this context reduces against.
    pub fn modulus(&self) -> &BigUint {
        &self.n
    }

    /// Number of limbs in the modulus: the width of every operand slice.
    pub fn limbs(&self) -> usize {
        self.k
    }

    /// One in Montgomery form (`R mod n`).
    pub(crate) fn one(&self) -> &[u64] {
        &self.one
    }

    /// Scratch row for [`Montgomery::mul`] and [`Montgomery::sqr`].
    pub(crate) fn scratch(&self) -> Vec<u64> {
        vec![0; self.k + 1]
    }

    /// `acc = acc * b * R^{-1} mod n` for `acc`, `b` below `n`.
    pub(crate) fn mul(&self, acc: &mut [u64], b: &[u64], t: &mut [u64]) {
        self.mul_wide(t, acc, b);
        self.reduce_once(acc, t);
    }

    /// `acc = acc^2 * R^{-1} mod n` for `acc` below `n`.
    pub(crate) fn sqr(&self, acc: &mut [u64], t: &mut [u64]) {
        self.mul_wide(t, acc, acc);
        self.reduce_once(acc, t);
    }

    /// `t = a * b * R^{-1}`, below `2n`, in `k + 1` limbs: one fused
    /// multiply-and-reduce (CIOS) pass. The slices are cut to width up
    /// front so the inner loop carries no bounds checks.
    fn mul_wide(&self, t: &mut [u64], a: &[u64], b: &[u64]) {
        let k = self.k;
        let (n, a, b, t) = (&self.n.limbs[..k], &a[..k], &b[..k], &mut t[..k + 1]);
        t.fill(0);
        for &bi in b {
            let x = t[0] as u128 + a[0] as u128 * bi as u128;
            let m = (x as u64).wrapping_mul(self.n0inv);
            let y = (x as u64) as u128 + m as u128 * n[0] as u128;
            let (mut c1, mut c2) = (x >> 64, y >> 64);
            for j in 1..k {
                let x = t[j] as u128 + a[j] as u128 * bi as u128 + c1;
                c1 = x >> 64;
                let y = (x as u64) as u128 + m as u128 * n[j] as u128 + c2;
                c2 = y >> 64;
                t[j - 1] = y as u64;
            }
            let top = t[k] as u128 + c1 + c2;
            t[k - 1] = top as u64;
            t[k] = (top >> 64) as u64;
        }
    }

    /// `out = t mod n` for a `k + 1`-limb `t` below `2n`.
    fn reduce_once(&self, out: &mut [u64], t: &[u64]) {
        let k = self.k;
        let (n, out, t) = (&self.n.limbs[..k], &mut out[..k], &t[..k + 1]);
        let mut borrow = false;
        for j in 0..k {
            let (d, b1) = t[j].overflowing_sub(n[j]);
            let (d, b2) = d.overflowing_sub(borrow as u64);
            out[j] = d;
            borrow = b1 | b2;
        }
        if t[k] == 0 && borrow {
            out.copy_from_slice(&t[..k]);
        }
    }

    /// Leaves `base^exp` in Montgomery form in `acc`. `base` is a plain
    /// `k`-limb value below `n`; `t` comes from [`Montgomery::scratch`].
    pub(crate) fn pow_mont(&self, base: &[u64], exp: &WindowedExp, acc: &mut [u64], t: &mut [u64]) {
        let k = self.k;
        // table[i] = base^i in Montgomery form.
        let mut table = vec![0u64; k << exp.width];
        table[..k].copy_from_slice(&self.one);
        table[k..2 * k].copy_from_slice(base);
        self.mul(&mut table[k..2 * k], &self.rr, t);
        for i in 2..1 << exp.width {
            let (lo, hi) = table.split_at_mut(i * k);
            hi[..k].copy_from_slice(&lo[(i - 1) * k..]);
            self.mul(&mut hi[..k], &lo[k..2 * k], t);
        }
        let entry = |d: u8| &table[d as usize * k..][..k];
        acc.copy_from_slice(entry(exp.digits[0]));
        for &d in &exp.digits[1..] {
            for _ in 0..exp.width {
                self.sqr(acc, t);
            }
            if d != 0 {
                self.mul(acc, entry(d), t);
            }
        }
    }

    /// Computes `base^exp mod n` on `k`-limb little-endian slices, `k` being
    /// [`Montgomery::limbs`]. Allocates only the window table and two
    /// scratch rows.
    ///
    /// # Panics
    ///
    /// Panics if `base` or `out` is not exactly `k` limbs.
    pub fn pow_limbs(&self, base: &[u64], exp: &WindowedExp, out: &mut [u64]) {
        let mut t = self.scratch();
        self.pow_mont(base, exp, out, &mut t);
        // Leave Montgomery form: multiply by the plain one.
        let mut one = vec![0; self.k];
        one[0] = 1;
        self.mul(out, &one, &mut t);
    }

    /// Computes `base^exp mod n` for an exponent recoded ahead of time.
    pub fn pow(&self, base: &BigUint, exp: &WindowedExp) -> BigUint {
        let mut b = if base < &self.n {
            base.limbs.clone()
        } else {
            base.rem(&self.n).limbs
        };
        b.resize(self.k, 0);
        let mut out = vec![0; self.k];
        self.pow_limbs(&b, exp, &mut out);
        BigUint::from_limbs(out)
    }

    /// Computes `base^exp mod n` by fixed-window exponentiation over
    /// Montgomery representatives.
    pub fn modpow(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        self.pow(base, &WindowedExp::new(exp))
    }
}

/// Inverse of odd `x` modulo `2^64`, via Newton–Hensel lifting.
fn inv64(x: u64) -> u64 {
    debug_assert!(x & 1 == 1);
    let mut inv = x; // Correct to 3 bits.
    for _ in 0..5 {
        inv = inv.wrapping_mul(2u64.wrapping_sub(x.wrapping_mul(inv)));
    }
    debug_assert_eq!(x.wrapping_mul(inv), 1);
    inv
}

impl BigUint {
    /// Computes `self^exp mod m`.
    ///
    /// Uses Montgomery exponentiation for odd moduli and a plain
    /// square-and-multiply with trial division otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero.
    pub fn modpow(&self, exp: &BigUint, m: &BigUint) -> BigUint {
        assert!(!m.is_zero(), "modpow with zero modulus");
        if m.is_one() {
            return BigUint::zero();
        }
        if let Some(ctx) = Montgomery::new(m) {
            return ctx.modpow(self, exp);
        }
        // Even modulus: generic square-and-multiply.
        let mut acc = BigUint::one();
        let base = self.rem(m);
        for i in (0..exp.bits()).rev() {
            acc = (&acc * &acc).rem(m);
            if exp.bit(i) {
                acc = (&acc * &base).rem(m);
            }
        }
        acc
    }

    /// Greatest common divisor (binary-free Euclid; division is fast here).
    pub fn gcd(&self, other: &BigUint) -> BigUint {
        let mut a = self.clone();
        let mut b = other.clone();
        while !b.is_zero() {
            let r = a.rem(&b);
            a = b;
            b = r;
        }
        a
    }

    /// Modular inverse: `self^{-1} mod m`, if it exists.
    ///
    /// # Errors
    ///
    /// Returns [`BigIntError::NotInvertible`] when `gcd(self, m) != 1` and
    /// [`BigIntError::DivisionByZero`] when `m` is zero.
    pub fn modinv(&self, m: &BigUint) -> Result<BigUint, BigIntError> {
        if m.is_zero() {
            return Err(BigIntError::DivisionByZero);
        }
        if m.is_one() {
            return Ok(BigUint::zero());
        }
        // Extended Euclid with explicit sign tracking for the Bezout
        // coefficient of `self`.
        let mut r0 = m.clone();
        let mut r1 = self.rem(m);
        let mut t0 = (BigUint::zero(), false); // (magnitude, negative?)
        let mut t1 = (BigUint::one(), false);
        while !r1.is_zero() {
            let (q, r2) = r0.divrem(&r1);
            // t2 = t0 - q * t1
            let qt1 = &q * &t1.0;
            let t2 = signed_sub(&t0, &(qt1, t1.1));
            r0 = r1;
            r1 = r2;
            t0 = t1;
            t1 = t2;
        }
        if !r0.is_one() {
            return Err(BigIntError::NotInvertible);
        }
        let (mag, neg) = t0;
        let inv = if neg {
            m.checked_sub(&mag.rem(m))
                .expect("reduced magnitude below modulus")
                .rem(m)
        } else {
            mag.rem(m)
        };
        Ok(inv)
    }
}

/// Computes `a - b` over signed magnitudes `(magnitude, negative?)`.
fn signed_sub(a: &(BigUint, bool), b: &(BigUint, bool)) -> (BigUint, bool) {
    match (a.1, b.1) {
        // a - (-b) = a + b ; (-a) - b = -(a + b)
        (false, true) => (&a.0 + &b.0, false),
        (true, false) => (&a.0 + &b.0, true),
        // Same sign: subtract magnitudes.
        (sa, _) => {
            if a.0 >= b.0 {
                (&a.0 - &b.0, sa)
            } else {
                (&b.0 - &a.0, !sa)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inv64_on_random_odds() {
        for x in [1u64, 3, 5, 0xdeadbeef, u64::MAX, 0x1234567890abcdf1] {
            let odd = x | 1;
            assert_eq!(odd.wrapping_mul(inv64(odd)), 1);
        }
    }

    #[test]
    fn modpow_small_cases() {
        let m = BigUint::from_u64(97);
        let b = BigUint::from_u64(5);
        // Fermat: 5^96 = 1 mod 97.
        assert_eq!(b.modpow(&BigUint::from_u64(96), &m), BigUint::one());
        assert_eq!(b.modpow(&BigUint::zero(), &m), BigUint::one());
        assert_eq!(b.modpow(&BigUint::one(), &m), b);
    }

    #[test]
    fn modpow_even_modulus() {
        let m = BigUint::from_u64(100);
        let b = BigUint::from_u64(7);
        // 7^4 = 2401 = 1 mod 100.
        assert_eq!(b.modpow(&BigUint::from_u64(4), &m), BigUint::one());
    }

    #[test]
    fn modpow_matches_u128_reference() {
        let m = BigUint::from_u64(0xffff_fffb); // Prime below 2^32.
        for (b, e) in [(3u64, 1000u64), (0xdead, 12345), (2, 64), (12345, 0)] {
            let expect = {
                let mut acc: u128 = 1;
                let mut base = b as u128 % 0xffff_fffb;
                let mut exp = e;
                while exp > 0 {
                    if exp & 1 == 1 {
                        acc = acc * base % 0xffff_fffb;
                    }
                    base = base * base % 0xffff_fffb;
                    exp >>= 1;
                }
                acc as u64
            };
            assert_eq!(
                BigUint::from_u64(b).modpow(&BigUint::from_u64(e), &m),
                BigUint::from_u64(expect)
            );
        }
    }

    #[test]
    fn modpow_large_modulus_roundtrip() {
        // RSA-style sanity check: (m^e)^d = m mod p for prime p,
        // e*d = 1 mod p-1.
        let p = BigUint::from_hex(
            "ffffffffffffffffc90fdaa22168c234c4c6628b80dc1cd129024e088a67cc74\
             020bbea63b139b22514a08798e3404ddef9519b3cd3a431b302b0a6df25f1437\
             4fe1356d6d51c245e485b576625e7ec6f44c42e9a637ed6b0bff5cb6f406b7ed\
             ee386bfb5a899fa5ae9f24117c4b1fe649286651ece65381ffffffffffffffff",
        )
        .unwrap();
        let pm1 = &p - &BigUint::one();
        let e = BigUint::from_u64(65537);
        let d = e.modinv(&pm1).unwrap();
        let msg = BigUint::from_hex("123456789abcdef0fedcba9876543210").unwrap();
        let c = msg.modpow(&e, &p);
        assert_eq!(c.modpow(&d, &p), msg);
    }

    /// Known answer computed by the bit-at-a-time kernel this one
    /// replaced: the RFC 3526 group, a 256-bit base, a 1024-bit exponent.
    #[test]
    fn modpow_1024_known_answer() {
        let p = BigUint::from_hex(
            "ffffffffffffffffc90fdaa22168c234c4c6628b80dc1cd129024e088a67cc74\
             020bbea63b139b22514a08798e3404ddef9519b3cd3a431b302b0a6df25f1437\
             4fe1356d6d51c245e485b576625e7ec6f44c42e9a637ed6b0bff5cb6f406b7ed\
             ee386bfb5a899fa5ae9f24117c4b1fe649286651ece65381ffffffffffffffff",
        )
        .unwrap();
        let base =
            BigUint::from_hex("1be1a0d68dd66f81c0acf2b20394a4571ca0226a2c126fc899aaa88eac6dc6e2")
                .unwrap();
        let exp = BigUint::from_hex(
            "6b672b9a7e4feb4fd38386f90405bc0ae261413a758dd8eb2786be61df8dc27d\
             e83155872104d106afa62cd172fcf4b66b82aaeb1dfdb9cff31487b910cfd49d\
             107d40b257a32bd60ea390e71b3ebea7f3934762c8f5d796fddf0c31ffcbcf4a\
             9935ba2f66205db3001fa5e1f64122d9eda1007efb57d4b06e6ec54fccaca818",
        )
        .unwrap();
        let expect = "f38ebc1674a2b3f80a4d1b867c88d8998dfaa60376c9263d817f8626c86a6ebd\
                      9c73fa08c1c55115478612ed5c0b72cebba6fdf89fbbe3cd29cc5fc4ebb24862\
                      b72dc8166538e82a8799cced005b4e15a1a4bd3c02c705851e3a4de7be53e4af\
                      fcee959232b044ccc3703f836254731b74667f1794c7701f2e30fd375728abcf";
        let mont = Montgomery::new(&p).unwrap();
        assert_eq!(mont.modpow(&base, &exp).to_hex(), expect);
        // A base wider than the modulus reduces to the same residue.
        let wide = &(&p * &p) + &base;
        assert_eq!(mont.modpow(&wide, &exp).to_hex(), expect);
    }

    #[test]
    fn montgomery_rejects_even_or_zero() {
        assert!(Montgomery::new(&BigUint::zero()).is_none());
        assert!(Montgomery::new(&BigUint::from_u64(10)).is_none());
        assert!(Montgomery::new(&BigUint::from_u64(9)).is_some());
    }

    #[test]
    fn gcd_basic() {
        let a = BigUint::from_u64(48);
        let b = BigUint::from_u64(36);
        assert_eq!(a.gcd(&b), BigUint::from_u64(12));
        assert_eq!(a.gcd(&BigUint::zero()), a);
        assert_eq!(BigUint::zero().gcd(&b), b);
    }

    #[test]
    fn modinv_small() {
        let m = BigUint::from_u64(97);
        for x in 1u64..97 {
            let inv = BigUint::from_u64(x).modinv(&m).unwrap();
            let prod = (&BigUint::from_u64(x) * &inv).rem(&m);
            assert_eq!(prod, BigUint::one(), "inverse failed for {x}");
        }
    }

    #[test]
    fn modinv_not_coprime_errors() {
        let m = BigUint::from_u64(100);
        assert_eq!(
            BigUint::from_u64(10).modinv(&m),
            Err(BigIntError::NotInvertible)
        );
    }

    #[test]
    fn modinv_zero_modulus_errors() {
        assert_eq!(
            BigUint::from_u64(10).modinv(&BigUint::zero()),
            Err(BigIntError::DivisionByZero)
        );
    }
}
