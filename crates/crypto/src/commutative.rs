//! Pohlig–Hellman commutative encryption over a shared prime-order group.
//!
//! P-SOP (§4.2.2) requires a cipher with the commutativity property
//! `E_K(E_J(m)) = E_J(E_K(m))`. Exponentiation modulo a shared prime `p`
//! provides it: party `i` holds a secret exponent `e_i` coprime to `p-1`,
//! encrypts with `m ↦ m^{e_i} mod p`, and exponentiations under different
//! keys commute. The paper's prototype used commutative RSA (SRA "Mental
//! Poker" [56]); Pohlig–Hellman [50] over a fixed safe prime is the standard
//! equivalent that avoids a shared-modulus key ceremony.
//!
//! The group is the 1024-bit MODP group from RFC 3526 (a well-known safe
//! prime), matching the paper's 1024-bit key size in Figure 8.

use indaas_bigint::{BigUint, Montgomery, WindowedExp};
use rand::Rng;

use crate::hash::sha256;

/// The RFC 3526 1024-bit MODP prime (Oakley group 2), in hexadecimal.
pub const MODP_1024_HEX: &str = "ffffffffffffffffc90fdaa22168c234c4c6628b80dc1cd129024e088a67cc74\
     020bbea63b139b22514a08798e3404ddef9519b3cd3a431b302b0a6df25f1437\
     4fe1356d6d51c245e485b576625e7ec6f44c42e9a637ed6b0bff5cb6f406b7ed\
     ee386bfb5a899fa5ae9f24117c4b1fe649286651ece65381ffffffffffffffff";

/// A party's secret commutative-encryption key: an exponent and its inverse
/// modulo `p-1`, each recoded into window digits once at key generation —
/// a party raises every element it handles to the same exponent.
#[derive(Clone, Debug)]
pub struct CommutativeKey {
    enc_exp: WindowedExp,
    dec_exp: WindowedExp,
}

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
    key: CommutativeKey,
}

impl CommutativeCipher {
    /// Byte length of a serialized group element / ciphertext.
    pub const ELEMENT_BYTES: usize = 128;

    /// Generates a fresh key in the shared RFC 3526 group.
    pub fn generate(rng: &mut impl Rng) -> Self {
        let p = BigUint::from_hex(MODP_1024_HEX).expect("constant prime parses");
        Self::with_modulus(p, rng)
    }

    /// Generates a key for an arbitrary odd prime modulus (tests use small
    /// groups to keep exhaustive checks cheap).
    pub fn with_modulus(p: BigUint, rng: &mut impl Rng) -> Self {
        let p_minus_1 = p.checked_sub(&BigUint::one()).expect("p >= 2");
        let key = loop {
            let e = BigUint::random_below(rng, &p_minus_1);
            if e.is_zero() {
                continue;
            }
            if let Ok(d) = e.modinv(&p_minus_1) {
                break CommutativeKey {
                    enc_exp: WindowedExp::new(&e),
                    dec_exp: WindowedExp::new(&d),
                };
            }
        };
        let mont = Montgomery::new(&p).expect("odd prime modulus");
        CommutativeCipher { mont, key }
    }

    /// The group modulus.
    pub fn modulus(&self) -> &BigUint {
        self.mont.modulus()
    }

    /// The secret key (exposed for persistence in tests; never sent).
    pub fn key(&self) -> &CommutativeKey {
        &self.key
    }

    /// Deterministically maps arbitrary bytes into the group, via SHA-256.
    ///
    /// The digest (256 bits) is always far below the 1024-bit modulus, and is
    /// non-zero with overwhelming probability, so the map lands in the
    /// multiplicative group.
    pub fn hash_to_group(&self, data: &[u8]) -> BigUint {
        let digest = sha256(data);
        let v = BigUint::from_bytes_be(&digest);
        // Extremely unlikely zero digest: map to 1 (still a group element).
        if v.is_zero() {
            BigUint::one()
        } else {
            v.rem(self.mont.modulus())
        }
    }

    /// Encrypts a group element: `m^e mod p`.
    pub fn encrypt(&self, m: &BigUint) -> BigUint {
        self.mont.pow(m, &self.key.enc_exp)
    }

    /// Decrypts one layer this party added: `c^d mod p`.
    pub fn decrypt(&self, c: &BigUint) -> BigUint {
        self.mont.pow(c, &self.key.dec_exp)
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
        self.mont.pow_limbs(base, &self.key.enc_exp, &mut ct);
        for (i, b) in out.iter_mut().rev().enumerate() {
            *b = (ct[i / 8] >> (8 * (i % 8))) as u8;
        }
    }

    /// Byte length of a serialized element of this cipher's group.
    fn element_width(&self) -> usize {
        self.mont.modulus().bits().div_ceil(8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(0xc0ffee)
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let mut r = rng();
        let c = CommutativeCipher::generate(&mut r);
        let m = c.hash_to_group(b"router 10.0.0.1");
        assert_eq!(c.decrypt(&c.encrypt(&m)), m);
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
    fn layered_decrypt_in_any_order() {
        let mut r = rng();
        let a = CommutativeCipher::generate(&mut r);
        let b = CommutativeCipher::generate(&mut r);
        let m = a.hash_to_group(b"x");
        let c2 = b.encrypt(&a.encrypt(&m));
        // Remove layers in the opposite order they were applied, and also in
        // the same order; both must recover m.
        assert_eq!(a.decrypt(&b.decrypt(&c2)), m);
        assert_eq!(b.decrypt(&a.decrypt(&c2)), m);
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

    /// Known answers from the bit-at-a-time kernel this cipher used before
    /// its exponents were recoded into window digits.
    #[test]
    fn known_answer_rfc3526() {
        let c = CommutativeCipher::generate(&mut rng());
        let m = c.hash_to_group(b"router 10.0.0.1");
        assert_eq!(
            c.encrypt(&m).to_hex(),
            "a726365de8c8565039ca046ed816e6799f474495e2968feaee477af0451ce156\
             7fe9cb518cd4e87ec2afb643eea52f6c6728789389cd519800ace3c18ba6c7a9\
             a008418072125e4dbae50b3c8bb9087b5b0d95948ba681a73893f8dfcbd4611e\
             a3082910458ee636f43aab0471f15db3292b3ce0a9753829c52a8e0a25ca887a"
        );
        assert_eq!(
            c.decrypt(&m).to_hex(),
            "262d0eed4221caa58675d1998bf87410a0248f162a2fb3a0e9c72b2953e2a941\
             6e239dc94672221dd65c327fccac7aa57d94047289e7380ed18e7e59763b8d94\
             10a26477d7fdc91347b237eb94d3e159268ad0d935ad38adf606efa92c0b32b1\
             e4f223107891fd67a0aa9ef3e7b769442897945c260eb5370288132e0d8a5a7d"
        );
    }

    /// Commutativity and decrypt∘encrypt = id on full-width (1,024-bit)
    /// elements, where every limb of the kernel's operands is live.
    #[test]
    fn full_width_commutes_and_roundtrips() {
        let mut r = rng();
        let a = CommutativeCipher::generate(&mut r);
        let b = CommutativeCipher::generate(&mut r);
        let p_minus_1 = a.modulus() - &BigUint::one();
        let mut elements = vec![p_minus_1, BigUint::one()];
        elements.extend((0..6).map(|_| BigUint::random_below(&mut r, a.modulus())));
        for m in &elements {
            assert_eq!(b.encrypt(&a.encrypt(m)), a.encrypt(&b.encrypt(m)));
            assert_eq!(&a.decrypt(&a.encrypt(m)), m);
            assert_eq!(&b.decrypt(&a.decrypt(&b.encrypt(&a.encrypt(m)))), m);
        }
    }

    #[test]
    fn small_group_exhaustive_roundtrip() {
        // p = 1019 (prime): test all residues round-trip.
        let mut r = rng();
        let c = CommutativeCipher::with_modulus(BigUint::from_u64(1019), &mut r);
        for m in 1u64..1019 {
            let mb = BigUint::from_u64(m);
            assert_eq!(c.decrypt(&c.encrypt(&mb)), mb, "failed at m={m}");
        }
    }
}
