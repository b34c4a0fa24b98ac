//! Pohlig–Hellman commutative encryption in a shared prime-order group.
//!
//! P-SOP (§4.2.2) requires a cipher with the commutativity property
//! `E_K(E_J(m)) = E_J(E_K(m))`. Exponentiation in a shared group provides
//! it: party `i` holds a secret exponent `e_i`, encrypts with
//! `m ↦ m^{e_i} mod p`, and exponentiations under different keys commute.
//! The paper's prototype used commutative RSA (SRA "Mental Poker" [56]);
//! Pohlig–Hellman [50] over a fixed safe prime is the standard equivalent
//! that avoids a shared-modulus key ceremony.
//!
//! The modulus is RFC 3526's 1024-bit safe prime `p = 2q + 1`, matching
//! the paper's 1024-bit key size in Figure 8. Elements are hashed by
//! squaring into its quadratic residues, a subgroup of prime order `q`.
//! There a ciphertext does not carry its element's Legendre symbol (every
//! odd exponent keeps it in all of `Z_p*`, where DDH, which P-SOP's privacy
//! rests on, fails), and any nonzero exponent below `q` is a permutation,
//! so a key needs no inverse. Exponents are 256 bits, the standard
//! short-exponent choice in a safe-prime group (van Oorschot–Wiener).

use indaas_bigint::{BigUint, Montgomery, WindowedExp};
use rand::Rng;

use crate::hash::sha256;

/// The RFC 3526 1024-bit MODP prime (Oakley group 2), in hexadecimal.
pub const MODP_1024_HEX: &str = "ffffffffffffffffc90fdaa22168c234c4c6628b80dc1cd129024e088a67cc74\
     020bbea63b139b22514a08798e3404ddef9519b3cd3a431b302b0a6df25f1437\
     4fe1356d6d51c245e485b576625e7ec6f44c42e9a637ed6b0bff5cb6f406b7ed\
     ee386bfb5a899fa5ae9f24117c4b1fe649286651ece65381ffffffffffffffff";

/// Bit length cap of a secret exponent.
const EXPONENT_BITS: usize = 256;

/// Commutative cipher context: the shared group plus a party's secret key.
///
/// # Examples
///
/// ```
/// use indaas_crypto::CommutativeCipher;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let alice = CommutativeCipher::generate(&mut rng);
/// let bob = CommutativeCipher::generate(&mut rng);
/// let m = alice.hash_to_group(b"libssl 1.0.1");
/// let both1 = bob.encrypt(&alice.encrypt(&m));
/// let both2 = alice.encrypt(&bob.encrypt(&m));
/// assert_eq!(both1, both2); // Order of encryption does not matter.
/// ```
pub struct CommutativeCipher {
    mont: Montgomery,
    /// The secret exponent, recoded into window digits once at key
    /// generation — a party raises every element it handles to it.
    exp: WindowedExp,
}

impl CommutativeCipher {
    /// Byte length of a serialized group element / ciphertext.
    pub const ELEMENT_BYTES: usize = 128;

    /// Generates a fresh key in the shared RFC 3526 group.
    pub fn generate(rng: &mut impl Rng) -> Self {
        let p = BigUint::from_hex(MODP_1024_HEX).expect("constant prime parses");
        Self::with_modulus(p, rng)
    }

    /// Generates a key for the quadratic-residue subgroup of the safe prime
    /// `p` (tests use a small one to keep exhaustive checks cheap).
    fn with_modulus(p: BigUint, rng: &mut impl Rng) -> Self {
        let exp = WindowedExp::new(&draw_exponent(&p, rng));
        let mont = Montgomery::new(&p).expect("odd prime modulus");
        CommutativeCipher { mont, exp }
    }

    /// Deterministically maps arbitrary bytes into the group: the SHA-256
    /// digest `v`, squared modulo `p`.
    ///
    /// Squares are the quadratic residues, the prime-order subgroup. In the
    /// RFC 3526 group `v < 2^256 < p/2`, so `v ↦ v²` is injective and the
    /// square needs no reduction. A digest that is zero modulo `p` (only
    /// reachable in a small test group) maps to 1.
    pub fn hash_to_group(&self, data: &[u8]) -> BigUint {
        let p = self.mont.modulus();
        let v = BigUint::from_bytes_be(&sha256(data)).rem(p);
        if v.is_zero() {
            BigUint::one()
        } else {
            (&v * &v).rem(p)
        }
    }

    /// Encrypts a group element: `m^e mod p`.
    pub fn encrypt(&self, m: &BigUint) -> BigUint {
        self.mont.pow(m, &self.exp)
    }

    /// [`CommutativeCipher::encrypt`] on serialized elements: reads one
    /// fixed-width big-endian element and writes its ciphertext in the same
    /// form, going bytes → limbs → bytes with no [`BigUint`] in between.
    /// Total on its input: any value is raised to the key modulo `p`.
    ///
    /// # Panics
    ///
    /// Panics if `element` or `out` is not exactly one element wide
    /// ([`CommutativeCipher::ELEMENT_BYTES`] in the RFC 3526 group).
    pub fn encrypt_bytes(&self, element: &[u8], out: &mut [u8]) {
        assert_eq!(element.len(), self.element_width(), "element width");
        let mut base = vec![0u64; self.mont.limbs()];
        for (i, &b) in element.iter().rev().enumerate() {
            base[i / 8] |= (b as u64) << (8 * (i % 8));
        }
        self.encrypt_limbs(&base, out);
    }

    /// [`CommutativeCipher::hash_to_group`] then
    /// [`CommutativeCipher::encrypt`], written as one serialized element.
    ///
    /// # Panics
    ///
    /// Panics if `out` is not exactly one element wide.
    pub fn encrypt_hashed(&self, data: &[u8], out: &mut [u8]) {
        let mut base = self.hash_to_group(data).limbs().to_vec();
        base.resize(self.mont.limbs(), 0);
        self.encrypt_limbs(&base, out);
    }

    fn encrypt_limbs(&self, base: &[u64], out: &mut [u8]) {
        assert_eq!(out.len(), self.element_width(), "element width");
        let mut ct = vec![0u64; base.len()];
        self.mont.pow_limbs(base, &self.exp, &mut ct);
        for (i, b) in out.iter_mut().rev().enumerate() {
            *b = (ct[i / 8] >> (8 * (i % 8))) as u8;
        }
    }

    /// Byte length of a serialized element of this cipher's group.
    fn element_width(&self) -> usize {
        self.mont.modulus().bits().div_ceil(8)
    }
}

/// Draws a secret exponent uniformly from `[1, min(q, 2^256))` for the
/// safe prime `p = 2q + 1`: 256 bits in the RFC 3526 group, all of `[1, q)`
/// in a small one. Any such exponent permutes the order-`q` subgroup.
fn draw_exponent(p: &BigUint, rng: &mut impl Rng) -> BigUint {
    let q = p >> 1;
    let bound = q.min(BigUint::one() << EXPONENT_BITS);
    loop {
        let e = BigUint::random_below(rng, &bound);
        if !e.is_zero() {
            return e;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(0xc0ffee)
    }

    /// The small safe prime of the exhaustive checks: 1019 = 2·509 + 1.
    const P: u64 = 1019;
    const Q: u64 = 509;

    /// Plain square-and-multiply, the reference the Montgomery kernel is
    /// checked against.
    fn pow_mod(mut base: u64, mut exp: u64) -> u64 {
        let mut acc = 1;
        base %= P;
        while exp > 0 {
            if exp & 1 == 1 {
                acc = acc * base % P;
            }
            base = base * base % P;
            exp >>= 1;
        }
        acc
    }

    /// The 509 quadratic residues modulo 1019, ascending.
    fn small_qrs() -> Vec<u64> {
        let mut qrs: Vec<u64> = (1..P).map(|x| x * x % P).collect();
        qrs.sort_unstable();
        qrs.dedup();
        qrs
    }

    fn small_cipher(e: u64) -> CommutativeCipher {
        let p = BigUint::from_u64(P);
        CommutativeCipher {
            mont: Montgomery::new(&p).unwrap(),
            exp: WindowedExp::new(&BigUint::from_u64(e)),
        }
    }

    fn encrypt_u64(c: &CommutativeCipher, m: u64) -> u64 {
        c.encrypt(&BigUint::from_u64(m)).limbs()[0]
    }

    /// Every exponent in `1..q` permutes the 509 quadratic residues of
    /// p = 1019, and agrees with the reference on each of them.
    #[test]
    fn small_group_every_exponent_permutes_the_residues() {
        let qrs = small_qrs();
        assert_eq!(qrs.len() as u64, Q);
        for e in 1..Q {
            let c = small_cipher(e);
            let mut image: Vec<u64> = qrs
                .iter()
                .map(|&m| {
                    let ct = encrypt_u64(&c, m);
                    assert_eq!(ct, pow_mod(m, e), "m={m} e={e}");
                    ct
                })
                .collect();
            image.sort_unstable();
            assert_eq!(image, qrs, "e={e} is not a permutation");
        }
    }

    /// Drawn keys of the small group commute on every quadratic residue.
    #[test]
    fn small_group_drawn_keys_commute_on_every_residue() {
        let mut r = rng();
        for _ in 0..8 {
            let a = CommutativeCipher::with_modulus(BigUint::from_u64(P), &mut r);
            let b = CommutativeCipher::with_modulus(BigUint::from_u64(P), &mut r);
            for m in small_qrs() {
                let ab = encrypt_u64(&b, encrypt_u64(&a, m));
                assert_eq!(ab, encrypt_u64(&a, encrypt_u64(&b, m)), "m={m}");
                assert_eq!(pow_mod(ab, Q), 1, "m={m} left the subgroup");
            }
        }
    }

    /// Every hashed element and every ciphertext in the RFC 3526 group is a
    /// quadratic residue (Euler's criterion, `x^q ≡ 1`): a ciphertext does
    /// not reveal its element's Legendre symbol.
    #[test]
    fn hashes_and_ciphertexts_are_quadratic_residues() {
        let mut r = rng();
        let a = CommutativeCipher::generate(&mut r);
        let b = CommutativeCipher::generate(&mut r);
        let q = a.mont.modulus() >> 1;
        let euler = |x: &BigUint| x.modpow(&q, a.mont.modulus()).is_one();
        for i in 0..64 {
            let m = a.hash_to_group(format!("element-{i}").as_bytes());
            let once = a.encrypt(&m);
            let twice = b.encrypt(&once);
            assert!(euler(&m), "hash of element-{i} is a non-residue");
            assert!(
                euler(&once),
                "1-layer ciphertext of element-{i} is a non-residue"
            );
            assert!(
                euler(&twice),
                "2-layer ciphertext of element-{i} is a non-residue"
            );
        }
    }

    /// A drawn exponent is nonzero and at most 256 bits in the RFC 3526
    /// group (and reaches 256 bits), and below q in the small one.
    #[test]
    fn drawn_exponents_are_short_and_nonzero() {
        let mut r = rng();
        let p = BigUint::from_hex(MODP_1024_HEX).unwrap();
        let longest = (0..64)
            .map(|_| {
                let e = draw_exponent(&p, &mut r);
                assert!(!e.is_zero());
                e.bits()
            })
            .max();
        assert_eq!(longest, Some(EXPONENT_BITS));
        let small = BigUint::from_u64(P);
        for _ in 0..1000 {
            let e = draw_exponent(&small, &mut r);
            assert!(!e.is_zero() && e < BigUint::from_u64(Q), "{e}");
        }
    }

    #[test]
    fn two_party_commutativity() {
        let mut r = rng();
        let a = CommutativeCipher::generate(&mut r);
        let b = CommutativeCipher::generate(&mut r);
        let m = a.hash_to_group(b"libc6 2.19");
        assert_eq!(b.encrypt(&a.encrypt(&m)), a.encrypt(&b.encrypt(&m)));
    }

    #[test]
    fn three_party_any_order() {
        let mut r = rng();
        let parties: Vec<_> = (0..3)
            .map(|_| CommutativeCipher::generate(&mut r))
            .collect();
        let m = parties[0].hash_to_group(b"core-router-7");
        let abc = parties[2].encrypt(&parties[1].encrypt(&parties[0].encrypt(&m)));
        let cba = parties[0].encrypt(&parties[1].encrypt(&parties[2].encrypt(&m)));
        let bca = parties[0].encrypt(&parties[2].encrypt(&parties[1].encrypt(&m)));
        assert_eq!(abc, cba);
        assert_eq!(abc, bca);
    }

    #[test]
    fn equal_plaintexts_collide_distinct_do_not() {
        let mut r = rng();
        let a = CommutativeCipher::generate(&mut r);
        let b = CommutativeCipher::generate(&mut r);
        let m1 = a.hash_to_group(b"switch-1");
        let m2 = a.hash_to_group(b"switch-2");
        let e1 = b.encrypt(&a.encrypt(&m1));
        let e1b = a.encrypt(&b.encrypt(&m1));
        let e2 = b.encrypt(&a.encrypt(&m2));
        assert_eq!(e1, e1b, "same element must map to same double ciphertext");
        assert_ne!(e1, e2, "distinct elements must stay distinct");
    }

    /// The serialized path is the `BigUint` path, byte for byte — in the
    /// 1,024-bit group and in a one-limb one.
    #[test]
    fn encrypt_bytes_matches_encrypt() {
        let mut r = rng();
        let big = CommutativeCipher::generate(&mut r);
        let small = CommutativeCipher::with_modulus(BigUint::from_u64(1019), &mut r);
        for (cipher, width) in [(&big, CommutativeCipher::ELEMENT_BYTES), (&small, 2)] {
            let m = cipher.hash_to_group(b"element");
            let expect = cipher.encrypt(&m).to_bytes_be_padded(width);
            let mut out = vec![0u8; width];
            cipher.encrypt_bytes(&m.to_bytes_be_padded(width), &mut out);
            assert_eq!(out, expect);
            out.fill(0);
            cipher.encrypt_hashed(b"element", &mut out);
            assert_eq!(out, expect);
        }
    }

    /// Known answer for the first key drawn from the test seed. The value was
    /// cross-checked outside this crate: Python's `pow(m, e, p)` on the same
    /// digest square and exponent gives the same hex.
    #[test]
    fn known_answer_rfc3526() {
        let c = CommutativeCipher::generate(&mut rng());
        let m = c.hash_to_group(b"router 10.0.0.1");
        assert_eq!(
            c.encrypt(&m).to_hex(),
            "5786c8ccb8d2275666232b718036ea90f385643141c764d386bade8759067e9c\
             a98ee7ae326c8dc1915a2edc6f3e7d60e2c58da068ca78199cf527de229451b2\
             014b490541e7ddc12ad30dc707ae13eb530accd7caa70276d18a3f93eeab6269\
             9c66089efc082c2cffd2c516b5e5fe7ab36c916ac4fae6e9aebe2a641ee72832"
        );
    }

    /// Commutativity on full-width (1,024-bit) elements, where every limb
    /// of the kernel's operands is live.
    #[test]
    fn full_width_commutes() {
        let mut r = rng();
        let a = CommutativeCipher::generate(&mut r);
        let b = CommutativeCipher::generate(&mut r);
        let p_minus_1 = a.mont.modulus() - &BigUint::one();
        let mut elements = vec![p_minus_1, BigUint::one()];
        elements.extend((0..6).map(|_| BigUint::random_below(&mut r, a.mont.modulus())));
        for m in &elements {
            assert_eq!(b.encrypt(&a.encrypt(m)), a.encrypt(&b.encrypt(m)));
        }
    }
}
