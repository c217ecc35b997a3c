//! Property tests: Ubig against a u128 reference model plus algebraic laws.

use cryptdb_bignum::{Montgomery, Ubig};
use proptest::prelude::*;

fn ub(v: u128) -> Ubig {
    Ubig::from_u128(v)
}

proptest! {
    #[test]
    fn add_matches_u128(a in any::<u64>(), b in any::<u64>()) {
        prop_assert_eq!(ub(a as u128).add(&ub(b as u128)).to_u128().unwrap(),
                        a as u128 + b as u128);
    }

    #[test]
    fn mul_matches_u128(a in any::<u64>(), b in any::<u64>()) {
        prop_assert_eq!(ub(a as u128).mul(&ub(b as u128)).to_u128().unwrap(),
                        a as u128 * b as u128);
    }

    #[test]
    fn div_rem_matches_u128(a in any::<u128>(), b in 1..=u128::MAX) {
        let (q, r) = ub(a).div_rem(&ub(b));
        prop_assert_eq!(q.to_u128().unwrap(), a / b);
        prop_assert_eq!(r.to_u128().unwrap(), a % b);
    }

    #[test]
    fn add_sub_roundtrip(a_hex in "[0-9a-f]{1,80}", b_hex in "[0-9a-f]{1,80}") {
        let a = Ubig::from_hex(&a_hex).unwrap();
        let b = Ubig::from_hex(&b_hex).unwrap();
        prop_assert_eq!(a.add(&b).sub(&b), a);
    }

    #[test]
    fn mul_div_roundtrip(a_hex in "[0-9a-f]{1,80}", b_hex in "[1-9a-f][0-9a-f]{0,60}") {
        let a = Ubig::from_hex(&a_hex).unwrap();
        let b = Ubig::from_hex(&b_hex).unwrap();
        prop_assume!(!b.is_zero());
        let (q, r) = a.div_rem(&b);
        prop_assert_eq!(q.mul(&b).add(&r), a);
        prop_assert!(r < b);
    }

    #[test]
    fn mul_commutative_associative(a_hex in "[0-9a-f]{1,64}",
                                   b_hex in "[0-9a-f]{1,64}",
                                   c_hex in "[0-9a-f]{1,64}") {
        let a = Ubig::from_hex(&a_hex).unwrap();
        let b = Ubig::from_hex(&b_hex).unwrap();
        let c = Ubig::from_hex(&c_hex).unwrap();
        prop_assert_eq!(a.mul(&b), b.mul(&a));
        prop_assert_eq!(a.mul(&b).mul(&c), a.mul(&b.mul(&c)));
    }

    #[test]
    fn karatsuba_matches_schoolbook(a_hex in "[0-9a-f]{600,700}", b_hex in "[0-9a-f]{600,700}") {
        // 600 hex chars = ~38 limbs, above the Karatsuba threshold; verify by
        // the distributive law against a split operand (exercises both paths).
        let a = Ubig::from_hex(&a_hex).unwrap();
        let b = Ubig::from_hex(&b_hex).unwrap();
        let b_lo = b.rem(&Ubig::one().shl(64));
        let b_hi = b.shr(64);
        let recomposed = a.mul(&b_hi).shl(64).add(&a.mul(&b_lo));
        prop_assert_eq!(a.mul(&b), recomposed);
    }

    #[test]
    fn shifts_are_mul_div_by_powers(a_hex in "[0-9a-f]{1,64}", n in 0usize..200) {
        let a = Ubig::from_hex(&a_hex).unwrap();
        let p = Ubig::one().shl(n);
        prop_assert_eq!(a.shl(n), a.mul(&p));
        prop_assert_eq!(a.shr(n), a.div_rem(&p).0);
    }

    #[test]
    fn mont_pow_matches_naive(b in any::<u64>(), e in 0u64..4096, m in any::<u64>()) {
        let m = m | 1; // Odd.
        prop_assume!(m > 2);
        let mont = Montgomery::new(Ubig::from_u64(m));
        let got = mont.pow(&Ubig::from_u64(b), &Ubig::from_u64(e));
        let mut expect: u128 = 1;
        let mut base = b as u128 % m as u128;
        let mut ee = e;
        while ee > 0 {
            if ee & 1 == 1 { expect = expect * base % m as u128; }
            base = base * base % m as u128;
            ee >>= 1;
        }
        prop_assert_eq!(got.to_u64().unwrap(), expect as u64);
    }

    #[test]
    fn mod_inv_is_inverse(a in 1u64.., m_hex in "[0-9a-f]{20,40}") {
        let m = Ubig::from_hex(&m_hex).unwrap();
        prop_assume!(m > Ubig::one());
        let a = Ubig::from_u64(a);
        if let Some(inv) = a.mod_inv(&m) {
            prop_assert!(a.mod_mul(&inv, &m).is_one());
            prop_assert!(inv < m);
        } else {
            prop_assert!(!a.gcd(&m).is_one());
        }
    }

    #[test]
    fn gcd_divides_both(a in 1u64.., b in 1u64..) {
        let g = Ubig::from_u64(a).gcd(&Ubig::from_u64(b));
        let gv = g.to_u64().unwrap();
        prop_assert_eq!(a % gv, 0);
        prop_assert_eq!(b % gv, 0);
    }

    #[test]
    fn bytes_roundtrip(bytes in proptest::collection::vec(any::<u8>(), 0..100)) {
        let v = Ubig::from_bytes_be(&bytes);
        let out = v.to_bytes_be(bytes.len().max(1));
        prop_assert_eq!(Ubig::from_bytes_be(&out), v);
    }

    // ---- Montgomery kernels (the Paillier hot path) ----

    #[test]
    fn mont_mul_kernel_matches_mod_mul(a_hex in "[0-9a-f]{1,120}",
                                       b_hex in "[0-9a-f]{1,120}",
                                       m_hex in "[1-9a-f][0-9a-f]{60,120}") {
        let m = Ubig::from_hex(&m_hex).unwrap().add(&Ubig::one()); // ensure > 1
        let m = if m.is_even() { m.add(&Ubig::one()) } else { m }; // odd
        let mont = Montgomery::new(m.clone());
        let a = Ubig::from_hex(&a_hex).unwrap().rem(&m);
        let b = Ubig::from_hex(&b_hex).unwrap().rem(&m);
        let mut scratch = mont.scratch();
        let am = mont.to_mont(&a);
        let bm = mont.to_mont(&b);
        let mut out = vec![0u64; mont.width()];
        mont.mont_mul(&am, &bm, &mut out, &mut scratch);
        prop_assert_eq!(mont.from_mont(&out), a.mod_mul(&b, &m));
    }

    #[test]
    fn mont_mul_matches_ubig_oracle_wide(a_hex in "[0-9a-f]{1,520}",
                                         b_hex in "[0-9a-f]{1,520}",
                                         m_hex in "[1-9a-f][0-9a-f]{260,520}") {
        // 260–520 hex chars = 17–33 limbs, up to the Paillier n² width.
        // The oracle is the heap-allocating Ubig Karatsuba/schoolbook
        // multiply + division.
        let m = Ubig::from_hex(&m_hex).unwrap().add(&Ubig::one());
        let m = if m.is_even() { m.add(&Ubig::one()) } else { m };
        let mont = Montgomery::new(m.clone());
        let a = Ubig::from_hex(&a_hex).unwrap().rem(&m);
        let b = Ubig::from_hex(&b_hex).unwrap().rem(&m);
        let mut scratch = mont.scratch();
        let am = mont.to_mont(&a);
        let bm = mont.to_mont(&b);
        let mut out = vec![0u64; mont.width()];
        mont.mont_mul(&am, &bm, &mut out, &mut scratch);
        prop_assert_eq!(mont.from_mont(&out), a.mul(&b).rem(&m));
    }

    #[test]
    fn mont_sqr_matches_ubig_oracle_wide(a_hex in "[0-9a-f]{1,520}",
                                         m_hex in "[1-9a-f][0-9a-f]{260,520}") {
        // Squares are `mont_mul(a, a)`: both operands alias one slice.
        let m = Ubig::from_hex(&m_hex).unwrap().add(&Ubig::one());
        let m = if m.is_even() { m.add(&Ubig::one()) } else { m };
        let mont = Montgomery::new(m.clone());
        let a = Ubig::from_hex(&a_hex).unwrap().rem(&m);
        let mut scratch = mont.scratch();
        let am = mont.to_mont(&a);
        let mut sq = vec![0u64; mont.width()];
        mont.mont_mul(&am, &am, &mut sq, &mut scratch);
        prop_assert_eq!(mont.from_mont(&sq), a.mul(&a).rem(&m));
    }

    #[test]
    fn pow_short_exponent_matches_naive(b_hex in "[0-9a-f]{1,80}",
                                        e in 0u64..100_000,
                                        m_hex in "[1-9a-f][0-9a-f]{30,60}") {
        // Exercises the square-and-multiply fast path (exponent ≤ 32 bits)
        // against the same computation done limb-by-limb with mod_mul.
        let m = Ubig::from_hex(&m_hex).unwrap().add(&Ubig::one());
        let m = if m.is_even() { m.add(&Ubig::one()) } else { m };
        let mont = Montgomery::new(m.clone());
        let base = Ubig::from_hex(&b_hex).unwrap();
        let mut expect = Ubig::one().rem(&m);
        let mut acc = base.rem(&m);
        let mut ee = e;
        while ee > 0 {
            if ee & 1 == 1 { expect = expect.mod_mul(&acc, &m); }
            acc = acc.mod_mul(&acc, &m);
            ee >>= 1;
        }
        prop_assert_eq!(mont.pow(&base, &Ubig::from_u64(e)), expect);
    }
}
