//! Arbitrary-precision unsigned integer arithmetic.
//!
//! This crate is the numeric substrate for the INDaaS private-auditing
//! protocols: the commutative Pohlig–Hellman cipher and the Paillier
//! cryptosystem both operate on 1024–2048 bit integers. It is written from
//! scratch on 64-bit limbs and provides exactly the operations those
//! protocols need:
//!
//! * schoolbook and Karatsuba multiplication,
//! * Knuth Algorithm D division,
//! * Montgomery modular exponentiation,
//! * extended-Euclid modular inverses,
//! * Miller–Rabin primality testing and random prime generation.
//!
//! # Examples
//!
//! ```
//! use indaas_bigint::BigUint;
//!
//! let a = BigUint::from_u64(2);
//! let m = BigUint::from_u64(1_000_000_007);
//! let r = a.modpow(&BigUint::from_u64(10), &m);
//! assert_eq!(r, BigUint::from_u64(1024));
//! ```

#![forbid(unsafe_code)]

mod div;
mod modular;
mod prime;
mod uint;

pub use modular::{Montgomery, WindowedExp};
pub use prime::{gen_prime, is_probable_prime};
pub use uint::BigUint;

/// Errors produced by fallible big-integer operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BigIntError {
    /// Division or reduction by zero was attempted.
    DivisionByZero,
    /// A modular inverse does not exist (operands not coprime).
    NotInvertible,
    /// A textual representation could not be parsed.
    ParseError(String),
}

impl std::fmt::Display for BigIntError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BigIntError::DivisionByZero => write!(f, "division by zero"),
            BigIntError::NotInvertible => write!(f, "modular inverse does not exist"),
            BigIntError::ParseError(s) => write!(f, "parse error: {s}"),
        }
    }
}

impl std::error::Error for BigIntError {}
