//! Property-based tests for the big-integer substrate.

use indaas_bigint::{BigUint, Montgomery};
use proptest::prelude::*;

/// Strategy: a BigUint built from 0..=6 random limbs.
fn biguint() -> impl Strategy<Value = BigUint> {
    proptest::collection::vec(any::<u64>(), 0..6).prop_map(BigUint::from_limbs)
}

/// Strategy: a non-zero BigUint.
fn biguint_nonzero() -> impl Strategy<Value = BigUint> {
    biguint().prop_filter("nonzero", |v| !v.is_zero())
}

/// Strategy: an odd modulus of 1–33 limbs; half the draws pin the top limb
/// to `u64::MAX`, where every carry out of the top limb is live.
fn odd_modulus() -> impl Strategy<Value = BigUint> {
    // The vendored proptest has no tuple strategies: the first drawn word
    // is the coin, the rest are the limbs.
    proptest::collection::vec(any::<u64>(), 2..35).prop_map(|mut limbs| {
        let top_max = limbs.remove(0) & 1 == 1;
        limbs[0] |= 1;
        let top = limbs.len() - 1;
        limbs[top] = if top_max { u64::MAX } else { limbs[top] | 1 };
        BigUint::from_limbs(limbs)
    })
}

/// The edge bases of a modulus `n`: 0, 1, n−1, just above n, two limbs
/// wider than n, and an unconstrained one.
fn edge_base(n: &BigUint, kind: u8, noise: &BigUint) -> BigUint {
    match kind {
        0 => BigUint::zero(),
        1 => BigUint::one(),
        2 => n - &BigUint::one(),
        3 => n + &noise.rem(n),
        4 => &(&(n << 128) + noise) + &BigUint::one(),
        _ => noise.clone(),
    }
}

/// The edge exponents: 0, 1, 2^j, j ones, and an unconstrained one; `j`
/// reaches every window width the kernel picks.
fn edge_exp(kind: u8, j: usize, noise: &BigUint) -> BigUint {
    match kind {
        0 => BigUint::zero(),
        1 => BigUint::one(),
        2 => &BigUint::one() << j,
        3 => &(&BigUint::one() << j) - &BigUint::one(),
        _ => noise.clone(),
    }
}

/// The definition, with none of the kernel's machinery: square, multiply
/// and divide on whole values.
fn modpow_reference(base: &BigUint, exp: &BigUint, m: &BigUint) -> BigUint {
    let mut acc = BigUint::one().rem(m);
    for i in (0..exp.bits()).rev() {
        acc = (&acc * &acc).rem(m);
        if exp.bit(i) {
            acc = (&acc * base).rem(m);
        }
    }
    acc
}

proptest! {
    #[test]
    fn add_commutes(a in biguint(), b in biguint()) {
        prop_assert_eq!(&a + &b, &b + &a);
    }

    #[test]
    fn add_associates(a in biguint(), b in biguint(), c in biguint()) {
        prop_assert_eq!(&(&a + &b) + &c, &a + &(&b + &c));
    }

    #[test]
    fn add_then_sub_roundtrips(a in biguint(), b in biguint()) {
        prop_assert_eq!(&(&a + &b) - &b, a);
    }

    #[test]
    fn mul_commutes(a in biguint(), b in biguint()) {
        prop_assert_eq!(&a * &b, &b * &a);
    }

    #[test]
    fn mul_distributes_over_add(a in biguint(), b in biguint(), c in biguint()) {
        prop_assert_eq!(&a * &(&b + &c), &(&a * &b) + &(&a * &c));
    }

    #[test]
    fn division_identity(a in biguint(), b in biguint_nonzero()) {
        let (q, r) = a.divrem(&b);
        prop_assert!(r < b);
        prop_assert_eq!(&(&q * &b) + &r, a);
    }

    #[test]
    fn shift_is_mul_by_power_of_two(a in biguint(), s in 0usize..200) {
        let shifted = &a << s;
        // 2^s as a BigUint.
        let pow = &BigUint::one() << s;
        prop_assert_eq!(shifted, &a * &pow);
    }

    #[test]
    fn bytes_roundtrip(a in biguint()) {
        prop_assert_eq!(BigUint::from_bytes_be(&a.to_bytes_be()), a);
    }

    #[test]
    fn hex_roundtrip(a in biguint()) {
        prop_assert_eq!(BigUint::from_hex(&a.to_hex()).unwrap(), a);
    }

    #[test]
    fn decimal_roundtrip(a in biguint()) {
        prop_assert_eq!(a.to_string().parse::<BigUint>().unwrap(), a);
    }

    #[test]
    fn modpow_matches_naive(b in 0u64..1000, e in 0u64..40, m in 2u64..5000) {
        let big = BigUint::from_u64(b).modpow(&BigUint::from_u64(e), &BigUint::from_u64(m));
        let mut acc: u128 = 1;
        for _ in 0..e {
            acc = acc * b as u128 % m as u128;
        }
        prop_assert_eq!(big, BigUint::from_u64(acc as u64));
    }

    #[test]
    fn montgomery_modpow_matches_reference(
        n in odd_modulus(),
        base_kind in 0u8..6,
        exp_kind in 0u8..5,
        j in 0usize..330,
        base_noise in proptest::collection::vec(any::<u64>(), 0..36).prop_map(BigUint::from_limbs),
        exp_noise in proptest::collection::vec(any::<u64>(), 0..6).prop_map(BigUint::from_limbs),
    ) {
        let base = edge_base(&n, base_kind, &base_noise);
        let exp = edge_exp(exp_kind, j, &exp_noise);
        let expect = modpow_reference(&base, &exp, &n);
        let ctx = Montgomery::new(&n).expect("odd modulus");
        prop_assert_eq!(ctx.modpow(&base, &exp), expect.clone());
        prop_assert_eq!(base.modpow(&exp, &n), expect);
    }

    #[test]
    fn montgomery_modpow_tiny_moduli(
        three in any::<bool>(),
        base in biguint(),
        exp in biguint(),
    ) {
        let n = BigUint::from_u64(if three { 3 } else { 1 });
        let ctx = Montgomery::new(&n).expect("odd modulus");
        prop_assert_eq!(ctx.modpow(&base, &exp), modpow_reference(&base, &exp, &n));
    }

    #[test]
    fn modinv_is_inverse(a in 1u64..10_000, m in 2u64..10_000) {
        let ab = BigUint::from_u64(a);
        let mb = BigUint::from_u64(m);
        if let Ok(inv) = ab.modinv(&mb) {
            prop_assert_eq!((&ab * &inv).rem(&mb), BigUint::one());
        } else {
            // No inverse must mean gcd > 1.
            prop_assert!(ab.gcd(&mb) != BigUint::one());
        }
    }

    #[test]
    fn gcd_divides_both(a in biguint_nonzero(), b in biguint_nonzero()) {
        let g = a.gcd(&b);
        prop_assert!(a.rem(&g).is_zero());
        prop_assert!(b.rem(&g).is_zero());
    }

    #[test]
    fn cmp_agrees_with_sub(a in biguint(), b in biguint()) {
        match a.cmp(&b) {
            std::cmp::Ordering::Less => prop_assert!(a.checked_sub(&b).is_none()),
            _ => prop_assert!(a.checked_sub(&b).is_some()),
        }
    }
}
