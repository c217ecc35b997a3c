//! Property tests: Paillier's homomorphic laws.

use cryptdb_bignum::Ubig;
use cryptdb_paillier::{PaillierPrivate, PaillierScratch};
use cryptdb_runtime::WorkerPool;
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

/// Shared 1- and 4-worker pools for the batch-decrypt property.
fn pools() -> &'static [WorkerPool; 2] {
    static POOLS: OnceLock<[WorkerPool; 2]> = OnceLock::new();
    POOLS.get_or_init(|| [WorkerPool::new(1), WorkerPool::new(4)])
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
    fn batch_decrypt_matches_single(vs in proptest::collection::vec(-1_000_000i64..1_000_000, 0..10),
                                    seed in any::<u64>()) {
        let sk = key();
        let mut rng = StdRng::seed_from_u64(seed);
        let cts: Vec<_> = vs.iter().map(|&v| sk.encrypt_i64(v, &mut rng)).collect();
        let mut ws = PaillierScratch::new();
        for pool in pools() {
            let batch = sk.decrypt_i64_batch_pending(pool, cts.clone()).wait();
            prop_assert_eq!(batch.len(), cts.len());
            for (i, c) in cts.iter().enumerate() {
                prop_assert_eq!(batch[i], sk.decrypt_i64_with(c, &mut ws));
                prop_assert_eq!(batch[i], Some(vs[i]));
            }
        }
    }
}
