//! Primality testing and random prime generation.

use rand::Rng;

use crate::modular::{Montgomery, WindowedExp};
use crate::uint::BigUint;

/// Small primes used for cheap trial division before Miller–Rabin.
const SMALL_PRIMES: [u64; 46] = [
    3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
    101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193,
    197, 199, 211,
];

impl BigUint {
    /// Draws a uniformly random value with exactly `bits` significant bits
    /// (both the top and bottom bit forced to 1 when `odd` is set — the shape
    /// required for prime candidates).
    pub fn random_bits(rng: &mut impl Rng, bits: usize, odd: bool) -> BigUint {
        assert!(bits > 0, "cannot draw a 0-bit value");
        let limbs_len = bits.div_ceil(64);
        let mut limbs: Vec<u64> = (0..limbs_len).map(|_| rng.next_u64()).collect();
        let top_bits = bits - (limbs_len - 1) * 64;
        // Mask the top limb to the requested width, then force the top bit.
        if top_bits < 64 {
            limbs[limbs_len - 1] &= (1u64 << top_bits) - 1;
        }
        limbs[limbs_len - 1] |= 1u64 << (top_bits - 1);
        if odd {
            limbs[0] |= 1;
        }
        BigUint::from_limbs(limbs)
    }

    /// Draws a uniformly random value in `[0, bound)` by rejection sampling.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn random_below(rng: &mut impl Rng, bound: &BigUint) -> BigUint {
        assert!(!bound.is_zero(), "empty sampling range");
        let bits = bound.bits();
        let limbs_len = bits.div_ceil(64);
        let top_bits = bits - (limbs_len - 1) * 64;
        loop {
            let mut limbs: Vec<u64> = (0..limbs_len).map(|_| rng.next_u64()).collect();
            if top_bits < 64 {
                limbs[limbs_len - 1] &= (1u64 << top_bits) - 1;
            }
            let candidate = BigUint::from_limbs(limbs);
            if &candidate < bound {
                return candidate;
            }
        }
    }
}

/// Miller–Rabin probabilistic primality test with `rounds` random bases.
///
/// Values below 2^64 additionally get a deterministic witness set, making the
/// answer exact in that range.
pub fn is_probable_prime(n: &BigUint, rounds: usize, rng: &mut impl Rng) -> bool {
    if n.is_zero() || n.is_one() {
        return false;
    }
    if n == &BigUint::from_u64(2) {
        return true;
    }
    if n.is_even() {
        return false;
    }
    for &p in &SMALL_PRIMES {
        let pb = BigUint::from_u64(p);
        if n == &pb {
            return true;
        }
        if n.rem(&pb).is_zero() {
            return false;
        }
    }

    // Write n-1 = d * 2^s with d odd.
    let n_minus_1 = n.checked_sub(&BigUint::one()).expect("n >= 2");
    let s = trailing_zeros(&n_minus_1);
    let d = &n_minus_1 >> s;

    // One Montgomery context and one recoded `d` per candidate; every
    // witness reuses both.
    let round = MillerRabin::new(n, &d, s);

    // Deterministic witnesses cover n < 2^64 (Sinclair's set).
    if n.bits() <= 64 {
        const WITNESSES: [u64; 7] = [2, 325, 9375, 28178, 450775, 9780504, 1795265022];
        return WITNESSES
            .iter()
            .all(|&a| round.passes(&BigUint::from_u64(a)));
    }

    let two = BigUint::from_u64(2);
    let span = n_minus_1.checked_sub(&two).expect("n > 4");
    for _ in 0..rounds {
        let a = &BigUint::random_below(rng, &span) + &two; // a in [2, n-2]
        if !round.passes(&a) {
            return false;
        }
    }
    true
}

/// The per-candidate state of Miller–Rabin for odd `n = d * 2^s + 1`:
/// the squaring chain stays in Montgomery form, so `1` and `n - 1` are
/// held in that form to compare against.
struct MillerRabin {
    ctx: Montgomery,
    d: WindowedExp,
    s: usize,
    minus_one: Vec<u64>,
}

impl MillerRabin {
    fn new(n: &BigUint, d: &BigUint, s: usize) -> Self {
        let ctx = Montgomery::new(n).expect("candidate is odd");
        // (n - 1) * R = -R (mod n).
        let mut minus_one = n
            .checked_sub(&BigUint::from_limbs(ctx.one().to_vec()))
            .expect("R mod n is below n")
            .limbs;
        minus_one.resize(ctx.limbs(), 0);
        MillerRabin {
            d: WindowedExp::new(d),
            s,
            minus_one,
            ctx,
        }
    }

    /// One round: returns false if `a` witnesses compositeness.
    fn passes(&self, a: &BigUint) -> bool {
        let a = a.rem(self.ctx.modulus());
        if a.is_zero() || a.is_one() {
            return true;
        }
        let mut base = a.limbs;
        base.resize(self.ctx.limbs(), 0);
        let (mut x, mut t) = (vec![0; base.len()], self.ctx.scratch());
        self.ctx.pow_mont(&base, &self.d, &mut x, &mut t);
        if x == self.ctx.one() || x == self.minus_one {
            return true;
        }
        for _ in 1..self.s {
            self.ctx.sqr(&mut x, &mut t);
            if x == self.minus_one {
                return true;
            }
            if x == self.ctx.one() {
                return false;
            }
        }
        false
    }
}

/// Number of trailing zero bits.
fn trailing_zeros(n: &BigUint) -> usize {
    debug_assert!(!n.is_zero());
    let mut tz = 0;
    for &limb in n.limbs() {
        if limb == 0 {
            tz += 64;
        } else {
            tz += limb.trailing_zeros() as usize;
            break;
        }
    }
    tz
}

/// Generates a random probable prime with exactly `bits` bits.
///
/// Candidates are random odd values with the top bit forced; each candidate
/// is screened with trial division and `mr_rounds` Miller–Rabin rounds.
///
/// # Panics
///
/// Panics if `bits < 2`.
pub fn gen_prime(rng: &mut impl Rng, bits: usize, mr_rounds: usize) -> BigUint {
    assert!(bits >= 2, "primes need at least 2 bits");
    loop {
        let candidate = BigUint::random_bits(rng, bits, true);
        if is_probable_prime(&candidate, mr_rounds, rng) {
            return candidate;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(0x9e3779b9)
    }

    #[test]
    fn small_primes_recognized() {
        let mut r = rng();
        for p in [2u64, 3, 5, 7, 11, 97, 211, 65537, 4294967291] {
            assert!(
                is_probable_prime(&BigUint::from_u64(p), 16, &mut r),
                "{p} should be prime"
            );
        }
    }

    #[test]
    fn small_composites_rejected() {
        let mut r = rng();
        for c in [0u64, 1, 4, 9, 15, 91, 561, 41041, 825265, 321197185] {
            assert!(
                !is_probable_prime(&BigUint::from_u64(c), 16, &mut r),
                "{c} should be composite (Carmichael numbers included)"
            );
        }
    }

    #[test]
    fn mersenne_prime_and_composite() {
        let mut r = rng();
        // 2^127 - 1 is prime; 2^128 - 1 is composite.
        let m127 = (&BigUint::one() << 127) - BigUint::one();
        let m128 = (&BigUint::one() << 128) - BigUint::one();
        assert!(is_probable_prime(&m127, 20, &mut r));
        assert!(!is_probable_prime(&m128, 20, &mut r));
    }

    #[test]
    fn rfc3526_modp1024_is_prime() {
        // The group modulus used by the P-SOP commutative cipher.
        let p = BigUint::from_hex(
            "ffffffffffffffffc90fdaa22168c234c4c6628b80dc1cd129024e088a67cc74\
             020bbea63b139b22514a08798e3404ddef9519b3cd3a431b302b0a6df25f1437\
             4fe1356d6d51c245e485b576625e7ec6f44c42e9a637ed6b0bff5cb6f406b7ed\
             ee386bfb5a899fa5ae9f24117c4b1fe649286651ece65381ffffffffffffffff",
        )
        .unwrap();
        let mut r = rng();
        assert!(is_probable_prime(&p, 8, &mut r));
        // It is a safe prime: (p-1)/2 is also prime.
        let q = (&p - &BigUint::one()) >> 1;
        assert!(is_probable_prime(&q, 8, &mut r));
    }

    #[test]
    fn gen_prime_has_requested_size() {
        let mut r = rng();
        for bits in [16usize, 48, 128] {
            let p = gen_prime(&mut r, bits, 12);
            assert_eq!(p.bits(), bits);
            assert!(!p.is_even());
        }
    }

    #[test]
    fn random_below_stays_in_range() {
        let mut r = rng();
        let bound = BigUint::from_u64(1000);
        for _ in 0..500 {
            assert!(BigUint::random_below(&mut r, &bound) < bound);
        }
    }

    #[test]
    fn random_bits_exact_width() {
        let mut r = rng();
        for bits in [1usize, 7, 64, 65, 129] {
            let v = BigUint::random_bits(&mut r, bits, false);
            assert_eq!(v.bits(), bits);
        }
    }
}
