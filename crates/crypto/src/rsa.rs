//! Minimal RSA signatures for the PIA audit trail (§5.2 of the paper).
//!
//! The paper's answer to dishonest PIA participants is "trust but leave an
//! audit trail": providers digitally sign the data they fed into the
//! protocol, and a meta-auditor can later verify the records. This module
//! provides the signature primitive — hash-then-exponentiate RSA over our
//! own bignum (full-domain-hash style; adequate for a research artifact,
//! not a hardened PKCS implementation).

use indaas_bigint::{gen_prime, BigUint, Montgomery};
use rand::Rng;

use crate::hash::sha256;

/// An RSA signing keypair.
#[derive(Clone, Debug)]
pub struct SigningKey {
    d: BigUint,
    public: VerifyingKey,
}

/// The public verification half.
#[derive(Clone, Debug)]
pub struct VerifyingKey {
    /// Montgomery context of the modulus `n`, built once per key.
    mont: Montgomery,
    e: BigUint,
}

/// A detached signature.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Signature(pub Vec<u8>);

impl SigningKey {
    /// Generates a keypair with a modulus of roughly `bits` bits
    /// (`e = 65537`).
    ///
    /// # Panics
    ///
    /// Panics if `bits < 64`.
    pub fn generate(bits: usize, rng: &mut impl Rng) -> Self {
        assert!(bits >= 64, "modulus too small to embed a digest");
        let e = BigUint::from_u64(65537);
        loop {
            let p = gen_prime(rng, bits / 2, 16);
            let q = gen_prime(rng, bits / 2, 16);
            if p == q {
                continue;
            }
            let n = &p * &q;
            let phi = &(&p - &BigUint::one()) * &(&q - &BigUint::one());
            let Ok(d) = e.modinv(&phi) else {
                continue; // gcd(e, phi) != 1: re-draw primes.
            };
            let mont = Montgomery::new(&n).expect("product of odd primes is odd");
            return SigningKey {
                d,
                public: VerifyingKey { mont, e },
            };
        }
    }

    /// The public verification key.
    pub fn verifying_key(&self) -> &VerifyingKey {
        &self.public
    }

    /// Signs a message: `SHA-256(m)` interpreted as an integer below `n`,
    /// raised to the private exponent.
    pub fn sign(&self, message: &[u8]) -> Signature {
        let mont = &self.public.mont;
        let n = mont.modulus();
        let sig = mont.modpow(&digest_to_int(message, n), &self.d);
        Signature(sig.to_bytes_be_padded(n.bits().div_ceil(8)))
    }
}

impl VerifyingKey {
    /// Verifies a signature against a message.
    pub fn verify(&self, message: &[u8], signature: &Signature) -> bool {
        let n = self.mont.modulus();
        let sig = BigUint::from_bytes_be(&signature.0);
        if &sig >= n {
            return false;
        }
        self.mont.modpow(&sig, &self.e) == digest_to_int(message, n)
    }

    /// Serializes the key for distribution (modulus ‖ exponent, both
    /// length-prefixed).
    pub fn to_bytes(&self) -> Vec<u8> {
        let n = self.mont.modulus().to_bytes_be();
        let e = self.e.to_bytes_be();
        let mut out = Vec::with_capacity(n.len() + e.len() + 8);
        out.extend_from_slice(&(n.len() as u32).to_be_bytes());
        out.extend_from_slice(&n);
        out.extend_from_slice(&(e.len() as u32).to_be_bytes());
        out.extend_from_slice(&e);
        out
    }

    /// Parses a key serialized by [`VerifyingKey::to_bytes`]. An even or
    /// zero modulus, under which no signature verifies, is rejected here.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        let n_len = u32::from_be_bytes(bytes.get(..4)?.try_into().ok()?) as usize;
        let n = BigUint::from_bytes_be(bytes.get(4..4 + n_len)?);
        let rest = &bytes[4 + n_len..];
        let e_len = u32::from_be_bytes(rest.get(..4)?.try_into().ok()?) as usize;
        let e = BigUint::from_bytes_be(rest.get(4..4 + e_len)?);
        Some(VerifyingKey {
            mont: Montgomery::new(&n)?,
            e,
        })
    }
}

/// SHA-256 digest reduced into the modulus range.
fn digest_to_int(message: &[u8], n: &BigUint) -> BigUint {
    BigUint::from_bytes_be(&sha256(message)).rem(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn key() -> SigningKey {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x55a);
        SigningKey::generate(512, &mut rng)
    }

    #[test]
    fn sign_verify_roundtrip() {
        let sk = key();
        let sig = sk.sign(b"component-set digest 1234");
        assert!(sk
            .verifying_key()
            .verify(b"component-set digest 1234", &sig));
    }

    #[test]
    fn wrong_message_rejected() {
        let sk = key();
        let sig = sk.sign(b"honest data");
        assert!(!sk.verifying_key().verify(b"tampered data", &sig));
    }

    #[test]
    fn corrupted_signature_rejected() {
        let sk = key();
        let mut sig = sk.sign(b"msg");
        sig.0[0] ^= 0xff;
        assert!(!sk.verifying_key().verify(b"msg", &sig));
    }

    #[test]
    fn cross_key_rejected() {
        let sk1 = key();
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x55b);
        let sk2 = SigningKey::generate(512, &mut rng);
        let sig = sk1.sign(b"msg");
        assert!(!sk2.verifying_key().verify(b"msg", &sig));
    }

    #[test]
    fn verifying_key_serialization_roundtrip() {
        let sk = key();
        let bytes = sk.verifying_key().to_bytes();
        let vk = VerifyingKey::from_bytes(&bytes).unwrap();
        let sig = sk.sign(b"serialized key check");
        assert!(vk.verify(b"serialized key check", &sig));
    }

    #[test]
    fn even_modulus_key_rejected_at_parse() {
        // modulus 10, exponent 3: no Montgomery context exists for it.
        let bytes = [0, 0, 0, 1, 10, 0, 0, 0, 1, 3];
        assert!(VerifyingKey::from_bytes(&bytes).is_none());
    }

    #[test]
    fn oversized_signature_rejected() {
        let sk = key();
        let huge = Signature(vec![0xff; 200]);
        assert!(!sk.verifying_key().verify(b"msg", &huge));
    }
}
