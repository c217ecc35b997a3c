//! Property tests: Paillier's homomorphic laws.

use cryptdb_bignum::Ubig;
use cryptdb_paillier::{Ciphertext, PaillierPrivate, PaillierScratch};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Arc, OnceLock};

/// One shared key: keygen is the slow part, the laws don't depend on it.
fn key() -> &'static Arc<PaillierPrivate> {
    static KEY: OnceLock<Arc<PaillierPrivate>> = OnceLock::new();
    KEY.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(99);
        Arc::new(PaillierPrivate::keygen(&mut rng, 256))
    })
}

/// The reference signed decode: the full Z_n residue from the non-CRT
/// path, `m` if `m ≤ n/2`, otherwise `m − n`, `None` outside i64.
fn reference_i64(sk: &PaillierPrivate, c: &Ciphertext) -> Option<i64> {
    let n = sk.public().modulus();
    let m = sk.decrypt_noncrt(c);
    if m <= n.shr(1) {
        i64::try_from(m.to_u64()?).ok()
    } else {
        i64::try_from(-i128::from(n.sub(&m).to_u64()?)).ok()
    }
}

/// `decrypt_i64` (from `m mod p` alone) against the reference decode
/// and against `expect`, each cell with a fresh scratch and with one
/// scratch reused across the whole batch.
fn assert_parity(cts: &[Ciphertext], expect: &[Option<i64>]) {
    let sk = key();
    let mut ws = PaillierScratch::new();
    for (c, &e) in cts.iter().zip(expect) {
        assert_eq!(reference_i64(sk, c), e);
        assert_eq!(sk.decrypt_i64(c), e);
        assert_eq!(sk.decrypt_i64_with(c, &mut ws), e);
    }
}

/// The `add`-product of encryptions of `vs` (the `HOM_SUM` UDF's output)
/// and the true sum, `None` when it leaves i64.
fn hom_sum(vs: &[i64], rng: &mut StdRng) -> (Ciphertext, Option<i64>) {
    let sk = key();
    let acc = vs.iter().fold(sk.public().zero(), |acc, &v| {
        sk.public().add(&acc, &sk.encrypt_i64(v, rng))
    });
    let sum: i128 = vs.iter().map(|&v| i128::from(v)).sum();
    (acc, i64::try_from(sum).ok())
}

#[test]
fn decrypt_i64_matches_reference_at_the_edges() {
    let sk = key();
    let mut rng = StdRng::seed_from_u64(64);
    let edges = [i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX - 1, i64::MAX];
    let cts: Vec<_> = edges.iter().map(|&v| sk.encrypt_i64(v, &mut rng)).collect();
    assert_parity(&cts, &edges.map(Some));
    // Sums that leave i64 in each direction, and the widest sums a
    // 64-cell aggregate can reach.
    let sums: [&[i64]; 6] = [
        &[i64::MAX, 1],
        &[i64::MIN, -1],
        &[i64::MAX; 64],
        &[i64::MIN; 64],
        &[i64::MAX, i64::MIN, -1],
        &[i64::MIN, i64::MAX, 1, 1],
    ];
    let (cts, expect): (Vec<_>, Vec<_>) = sums.iter().map(|vs| hom_sum(vs, &mut rng)).unzip();
    assert_eq!(expect, [None, None, None, None, Some(-2), Some(1)]);
    assert_parity(&cts, &expect);
    // Residues just outside i64 on either side, passed to `encrypt`.
    let n = sk.public().modulus();
    let two_63 = Ubig::one().shl(63);
    let two_64 = Ubig::one().shl(64);
    let residues = [
        (two_64.clone(), None),
        (n.sub(&two_64), None),
        (two_63.clone(), None),
        (n.sub(&two_63), Some(i64::MIN)),
        (n.sub(&two_63).sub(&Ubig::one()), None),
    ];
    let (cts, expect): (Vec<_>, Vec<_>) = residues
        .iter()
        .map(|(m, e)| (sk.encrypt(m, &mut rng), *e))
        .unzip();
    assert_parity(&cts, &expect);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn roundtrip(v in -1_000_000_000i64..1_000_000_000) {
        let sk = key();
        let mut rng = StdRng::seed_from_u64(v as u64 ^ 7);
        prop_assert_eq!(sk.decrypt_i64(&sk.encrypt_i64(v, &mut rng)), Some(v));
    }

    #[test]
    fn additive_homomorphism(a in -1_000_000i64..1_000_000, b in -1_000_000i64..1_000_000) {
        let sk = key();
        let mut rng = StdRng::seed_from_u64((a ^ b) as u64);
        let ca = sk.encrypt_i64(a, &mut rng);
        let cb = sk.encrypt_i64(b, &mut rng);
        let sum = sk.public().add(&ca, &cb);
        prop_assert_eq!(sk.decrypt_i64(&sum), Some(a + b));
    }

    #[test]
    fn sum_of_many(vs in proptest::collection::vec(-10_000i64..10_000, 0..20)) {
        let sk = key();
        let mut rng = StdRng::seed_from_u64(vs.len() as u64);
        let mut acc = sk.public().zero();
        for &v in &vs {
            acc = sk.public().add(&acc, &sk.encrypt_i64(v, &mut rng));
        }
        prop_assert_eq!(sk.decrypt_i64(&acc), Some(vs.iter().sum::<i64>()));
    }

    #[test]
    fn bytes_roundtrip(v in any::<i32>()) {
        let sk = key();
        let mut rng = StdRng::seed_from_u64(v as u64);
        let c = sk.encrypt_i64(v as i64, &mut rng);
        let bytes = sk.public().ciphertext_to_bytes(&c);
        let back = sk.public().ciphertext_from_bytes(&bytes);
        prop_assert_eq!(sk.decrypt_i64(&back), Some(v as i64));
    }

    // ---- CRT fast paths against the full-width reference paths ----

    #[test]
    fn crt_decrypt_matches_noncrt(v in -1_000_000_000i64..1_000_000_000, seed in any::<u64>()) {
        let sk = key();
        let mut rng = StdRng::seed_from_u64(seed);
        let c = sk.encrypt_i64(v, &mut rng);
        prop_assert_eq!(sk.decrypt(&c), sk.decrypt_noncrt(&c));
    }

    #[test]
    fn crt_decrypt_matches_noncrt_on_sums(vs in proptest::collection::vec(-10_000i64..10_000, 1..12),
                                          seed in any::<u64>()) {
        // Aggregated ciphertexts (the SUM UDF output) decrypt identically
        // on both paths — this is what the proxy batch-decrypts.
        let sk = key();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut acc = sk.public().zero();
        for &v in &vs {
            acc = sk.public().add(&acc, &sk.encrypt_i64(v, &mut rng));
        }
        prop_assert_eq!(sk.decrypt(&acc), sk.decrypt_noncrt(&acc));
        prop_assert_eq!(sk.decrypt_i64(&acc), Some(vs.iter().sum::<i64>()));
    }

    #[test]
    fn crt_blinding_matches_noncrt(seed in any::<u64>()) {
        // Identical r must give bit-identical r^n mod n² on both paths.
        let sk = key();
        let mut rng = StdRng::seed_from_u64(seed);
        let r = loop {
            let r = Ubig::rand_below(&mut rng, sk.public().modulus());
            if !r.is_zero() && r.gcd(sk.public().modulus()).is_one() {
                break r;
            }
        };
        prop_assert_eq!(sk.blinding_from_r(&r), sk.blinding_from_r_noncrt(&r));
    }

    #[test]
    fn decrypt_i64_matches_reference_on_cells(vs in proptest::collection::vec(any::<i64>(), 1..9),
                                              seed in any::<u64>()) {
        let sk = key();
        let mut rng = StdRng::seed_from_u64(seed);
        let cts: Vec<_> = vs.iter().map(|&v| sk.encrypt_i64(v, &mut rng)).collect();
        let expect: Vec<_> = vs.iter().map(|&v| Some(v)).collect();
        assert_parity(&cts, &expect);
    }

    #[test]
    fn decrypt_i64_matches_reference_on_sums(vs in proptest::collection::vec(any::<i64>(), 1..65),
                                             split in 1usize..65,
                                             seed in any::<u64>()) {
        // Full-range cells: many sums leave i64, and then the reference
        // and `decrypt_i64` must both say `None`. The cells are split
        // into two aggregates (the second may be empty, an encryption
        // of 0) so one batch holds both.
        let mut rng = StdRng::seed_from_u64(seed);
        let split = split.min(vs.len());
        let (cts, expect): (Vec<_>, Vec<_>) = [&vs[..split], &vs[split..]]
            .into_iter()
            .map(|part| hom_sum(part, &mut rng))
            .unzip();
        assert_parity(&cts, &expect);
    }

    #[test]
    fn batch_decrypt_matches_single(vs in proptest::collection::vec(-1_000_000i64..1_000_000, 0..10),
                                    seed in any::<u64>()) {
        let sk = key();
        let mut rng = StdRng::seed_from_u64(seed);
        let cts: Vec<_> = vs.iter().map(|&v| sk.encrypt_i64(v, &mut rng)).collect();
        let mut ws = PaillierScratch::new();
        for (c, &v) in cts.iter().zip(&vs) {
            prop_assert_eq!(sk.decrypt_i64_with(c, &mut ws), sk.decrypt_i64(c));
            prop_assert_eq!(sk.decrypt_i64(c), Some(v));
        }
    }
}
