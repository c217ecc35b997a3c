//! Fig. 13: microbenchmarks of the cryptographic schemes — encrypt,
//! decrypt, and each scheme's "special operation" (compare, match, add,
//! adjust), per unit of data.

use criterion::{criterion_group, criterion_main, Criterion};
use cryptdb_core::proxy::ProxyConfig;
use cryptdb_crypto::blowfish::Blowfish;
use cryptdb_crypto::modes::{cbc_decrypt, cbc_encrypt, cmc_decrypt, cmc_encrypt};
use cryptdb_crypto::Aes;
use cryptdb_ecgroup::{JoinAdj, JoinKey, Scalar};
use cryptdb_ope::{Ope, OpeCached};
use cryptdb_paillier::PaillierPrivate;
use cryptdb_search::{matches_any, SearchKey};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Duration;

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600))
}

fn bench_blowfish(c: &mut Criterion) {
    // Paper: Blowfish (1 int) 0.0001 ms / 0.0001 ms.
    let bf = Blowfish::new(b"fig13-blowfish-key");
    c.bench_function("blowfish_encrypt_1int", |b| {
        b.iter(|| black_box(bf.encrypt_u64(black_box(0xdead_beef))))
    });
    c.bench_function("blowfish_decrypt_1int", |b| {
        let ct = bf.encrypt_u64(0xdead_beef);
        b.iter(|| black_box(bf.decrypt_u64(black_box(ct))))
    });
}

fn bench_aes(c: &mut Criterion) {
    // Paper: AES-CBC (1 KB) 0.008 ms / 0.007 ms; AES-CMC 0.016 / 0.015.
    let aes = Aes::new_128(b"fig13-aes-key-16");
    let data = vec![0x5au8; 1024];
    let iv = [1u8; 16];
    c.bench_function("aes_cbc_encrypt_1kb", |b| {
        b.iter(|| black_box(cbc_encrypt(&aes, &iv, black_box(&data))))
    });
    let ct = cbc_encrypt(&aes, &iv, &data);
    c.bench_function("aes_cbc_decrypt_1kb", |b| {
        b.iter(|| black_box(cbc_decrypt(&aes, &iv, black_box(&ct))))
    });
    c.bench_function("aes_cmc_encrypt_1kb", |b| {
        b.iter(|| black_box(cmc_encrypt(&aes, black_box(&data))))
    });
    let cmc = cmc_encrypt(&aes, &data);
    c.bench_function("aes_cmc_decrypt_1kb", |b| {
        b.iter(|| black_box(cmc_decrypt(&aes, black_box(&cmc))))
    });
}

fn bench_ope(c: &mut Criterion) {
    // Paper: OPE (1 int) 9.0 ms / 9.0 ms / compare 0 ms (with the AVL
    // batch optimisation bringing amortised encryption to 7 ms).
    let ope = Ope::new(&[7u8; 32], 32, 64);
    let mut v = 0u64;
    c.bench_function("ope_encrypt_1int", |b| {
        b.iter(|| {
            v = (v + 997) & 0xffff_ffff;
            black_box(ope.encrypt(black_box(v)).unwrap())
        })
    });
    let ct = ope.encrypt(123_456).unwrap();
    c.bench_function("ope_decrypt_1int", |b| {
        b.iter(|| black_box(ope.decrypt(black_box(ct)).unwrap()))
    });
    let mut cached = OpeCached::new(Ope::new(&[7u8; 32], 32, 64));
    // Warm the node cache with a batch, then measure amortised encryption.
    for x in 0..256u64 {
        cached.encrypt(x * 31).unwrap();
    }
    let mut w = 0u64;
    c.bench_function("ope_encrypt_1int_cached_tree", |b| {
        b.iter(|| {
            w = (w + 61) & 0xffff;
            black_box(cached.encrypt(black_box(w)).unwrap())
        })
    });
    let a = ope.encrypt(5).unwrap();
    let b2 = ope.encrypt(6).unwrap();
    c.bench_function("ope_compare", |b| {
        b.iter(|| black_box(black_box(a) < black_box(b2)))
    });
}

fn bench_search(c: &mut Criterion) {
    // Paper: SEARCH (1 word) 0.01 ms encrypt / 0.004 ms / match 0.001 ms.
    let key = SearchKey::new(&[9u8; 32]);
    let mut rng = StdRng::seed_from_u64(3);
    c.bench_function("search_encrypt_1word", |b| {
        b.iter(|| black_box(key.encrypt_word(black_box("confidential"), &mut rng)))
    });
    let ct = key.encrypt_text("some confidential words in a message", &mut rng);
    let token = key.token("confidential");
    c.bench_function("search_match", |b| {
        b.iter(|| black_box(matches_any(black_box(&ct), black_box(&token))))
    });
}

fn bench_hom(c: &mut Criterion) {
    // Paper: HOM (1 int) 9.7 ms encrypt / 0.7 ms decrypt / add 0.005 ms.
    let mut rng = StdRng::seed_from_u64(4);
    let sk = PaillierPrivate::keygen(&mut rng, ProxyConfig::default().paillier_bits);
    c.bench_function("hom_encrypt_1int", |b| {
        b.iter(|| black_box(sk.encrypt_i64(black_box(42), &mut rng)))
    });
    let blinding = sk.precompute_blinding(&mut rng);
    c.bench_function("hom_encrypt_1int_precomputed", |b| {
        b.iter(|| {
            black_box(
                sk.public()
                    .encrypt_with_blinding(&sk.public().encode_i64(black_box(42)), &blinding),
            )
        })
    });
    let ct = sk.encrypt_i64(42, &mut rng);
    c.bench_function("hom_decrypt_1int", |b| {
        b.iter(|| black_box(sk.decrypt_i64(black_box(&ct))))
    });
    let ct2 = sk.encrypt_i64(58, &mut rng);
    c.bench_function("hom_add", |b| {
        b.iter(|| black_box(sk.public().add(black_box(&ct), black_box(&ct2))))
    });
}

fn bench_join_adj(c: &mut Criterion) {
    // Paper: JOIN-ADJ (1 int) 0.52 ms encrypt / adjust 0.56 ms.
    let ja = JoinAdj::new([5u8; 32]);
    let k1 = JoinKey::from_bytes(&[1u8; 32]);
    let k2 = JoinKey::from_bytes(&[2u8; 32]);
    c.bench_function("join_adj_tag_1int", |b| {
        b.iter(|| black_box(ja.tag(&k1, black_box(b"12345678"))))
    });
    let tag = ja.tag(&k1, b"12345678");
    let delta = JoinAdj::delta(&k1, &k2);
    c.bench_function("join_adj_adjust", |b| {
        b.iter(|| black_box(JoinAdj::adjust(black_box(&tag), black_box(&delta)).unwrap()))
    });
    let sk = Scalar::from_bytes_mod_order(&[3u8; 32]);
    let sk2 = Scalar::from_bytes_mod_order(&[4u8; 32]);
    c.bench_function("join_adj_delta_scalar", |b| {
        b.iter(|| black_box(black_box(&sk).div(black_box(&sk2))))
    });
}

criterion_group! {
    name = fig13;
    config = config();
    targets = bench_blowfish, bench_aes, bench_ope, bench_search, bench_hom, bench_join_adj
}
criterion_main!(fig13);
