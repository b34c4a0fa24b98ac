//! Cryptographic primitives for INDaaS private independence auditing.
//!
//! Everything here is implemented from scratch on top of
//! [`indaas_bigint`]:
//!
//! * [`hash`] — SHA-256 and SHA-1 digests plus a seeded 64-bit hash family
//!   used by MinHash,
//! * [`commutative`] — the Pohlig–Hellman commutative cipher that powers the
//!   P-SOP private set-intersection-cardinality protocol (§4.2.2 of the
//!   paper),
//! * [`paillier`] — the additively homomorphic Paillier cryptosystem used by
//!   the Kissner–Song baseline (§6.3.2),
//! * [`perm`] — uniform random permutations (each P-SOP party shuffles its
//!   ciphertexts before forwarding them around the ring).
//!
//! # Security note
//!
//! These implementations are faithful to the protocols but are *research
//! artifacts*: no constant-time guarantees, no side-channel hardening. They
//! exist to reproduce the INDaaS evaluation, not to protect production data.

#![forbid(unsafe_code)]

pub mod commutative;
pub mod hash;
pub mod paillier;
pub mod perm;
pub mod rsa;

pub use commutative::{CommutativeCipher, CommutativeKey, MODP_1024_HEX};
pub use hash::{sha1, sha256, Hash64, Sha1, Sha256};
pub use paillier::{PaillierCiphertext, PaillierKeypair, PaillierPublicKey};
pub use perm::shuffle;
pub use rsa::{Signature, SigningKey, VerifyingKey};
