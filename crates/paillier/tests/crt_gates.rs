//! Speed gates on the proxy's private-key paths at the paper's 1024-bit
//! key size: CRT decryption and CRT blinding each at least 2× their
//! full-width references (`decrypt_noncrt`, `blinding_from_r_noncrt`),
//! the SUM read path `decrypt_i64` (one `mod p²` exponentiation) at
//! least [`DECRYPT_I64_BAR`]× the full CRT `decrypt` (two), and a warm
//! blinding pool's take latency free of synchronous-refill spikes
//! (§3.5.2 pre-computing). The bars are armed only in an optimised
//! build: debug-mode bignum arithmetic distorts every ratio.
//! `--nocapture` prints the measured figures.

use cryptdb_bignum::Ubig;
use cryptdb_paillier::PaillierPrivate;
use cryptdb_runtime::{BlindingPool, WorkerPool};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// One shared 1024-bit key: keygen is the slow part.
fn key() -> &'static Arc<PaillierPrivate> {
    static KEY: OnceLock<Arc<PaillierPrivate>> = OnceLock::new();
    KEY.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(2011);
        Arc::new(PaillierPrivate::keygen(&mut rng, 1024))
    })
}

/// Total time of `slow` over total time of `fast`, alternating the two
/// in rounds so load from the binary's other tests falls on both.
fn speedup<A, B>(mut fast: impl FnMut() -> A, mut slow: impl FnMut() -> B) -> f64 {
    const ROUNDS: usize = 10;
    const OPS: usize = 10;
    let (mut t_fast, mut t_slow) = (Duration::ZERO, Duration::ZERO);
    for _ in 0..ROUNDS {
        let t0 = Instant::now();
        for _ in 0..OPS {
            black_box(fast());
        }
        t_fast += t0.elapsed();
        let t0 = Instant::now();
        for _ in 0..OPS {
            black_box(slow());
        }
        t_slow += t0.elapsed();
    }
    t_slow.as_secs_f64() / t_fast.as_secs_f64()
}

#[test]
fn decrypt_crt_at_least_2x_noncrt() {
    if cfg!(debug_assertions) {
        return;
    }
    let sk = key();
    let mut rng = StdRng::seed_from_u64(1);
    let ct = sk.encrypt_i64(123_456_789, &mut rng);
    assert_eq!(sk.decrypt(&ct), sk.decrypt_noncrt(&ct));
    let ratio = speedup(|| sk.decrypt(&ct), || sk.decrypt_noncrt(&ct));
    eprintln!("decrypt_crt_vs_noncrt = {ratio:.2}");
    assert!(
        ratio >= 2.0,
        "CRT decrypt only {ratio:.2}x the full-width path"
    );
}

#[test]
fn blinding_crt_at_least_2x_noncrt() {
    if cfg!(debug_assertions) {
        return;
    }
    let sk = key();
    let mut rng = StdRng::seed_from_u64(2);
    let r = Ubig::rand_below(&mut rng, sk.public().modulus());
    assert_eq!(sk.blinding_from_r(&r), sk.blinding_from_r_noncrt(&r));
    let ratio = speedup(|| sk.blinding_from_r(&r), || sk.blinding_from_r_noncrt(&r));
    eprintln!("blinding_crt_vs_noncrt = {ratio:.2}");
    assert!(
        ratio >= 2.0,
        "CRT blinding only {ratio:.2}x the full-width path"
    );
}

/// Floor for `decrypt_i64` over the full CRT `decrypt`: half the
/// exponentiations, so ≈ 2× at best.
const DECRYPT_I64_BAR: f64 = 1.6;

#[test]
fn decrypt_i64_beats_full_crt_decrypt() {
    if cfg!(debug_assertions) {
        return;
    }
    let sk = key();
    let mut rng = StdRng::seed_from_u64(3);
    let ct = sk.encrypt_i64(-123_456_789, &mut rng);
    assert_eq!(sk.decrypt_i64(&ct), Some(-123_456_789));
    let ratio = speedup(|| sk.decrypt_i64(&ct), || sk.decrypt(&ct));
    eprintln!("decrypt_i64_vs_full_crt = {ratio:.2}");
    assert!(
        ratio >= DECRYPT_I64_BAR,
        "decrypt_i64 only {ratio:.2}x the full CRT decrypt (bar {DECRYPT_I64_BAR})"
    );
}

/// Nearest-rank percentile of an ascending slice.
fn percentile(sorted: &[u64], p: f64) -> u64 {
    sorted[((sorted.len() - 1) as f64 * p).round() as usize]
}

#[test]
fn warm_blinding_pool_take_is_spike_free() {
    // With the pool warmed above every take a drain makes, no take may
    // generate a factor inline: warm-take p99 within 2× p50, or in any
    // case below one eighth of a single blinding generation (the
    // cheapest event an inline refill could be; a sub-floor tail is
    // host scheduler jitter, not crypto).
    if cfg!(debug_assertions) {
        return;
    }
    // The low-water mark sits below what one drain takes, so no refill
    // competes with the drain for the CPU. 1000-take drains: a warm take
    // is microseconds, so a drain catches at most a couple of timer
    // interrupts, which inflate the max, not the p99.
    const WARM: usize = 1100;
    const LOW: usize = 64;
    const TAKES: usize = 1000;
    let sk = key().clone();
    let public = sk.public().clone();
    let m = public.encode_i64(123_456_789);
    let workers = WorkerPool::with_default_size(8);
    let pool = {
        let sk = sk.clone();
        BlindingPool::new(&workers, LOW, WARM, WARM, move |n| {
            let mut rng = rand::thread_rng();
            sk.precompute_blinding_batch(&mut rng, n)
        })
    };
    // An interrupt can double one drain's p99 without any refill
    // involved, while an inline refill is a whole generation and would
    // poison every drain; the best of three separates the two.
    let (mut p50, mut p99) = (1u64, u64::MAX);
    for _ in 0..3 {
        pool.warm(WARM);
        let mut lat: Vec<u64> = Vec::with_capacity(TAKES);
        for _ in 0..TAKES {
            let t0 = Instant::now();
            black_box(public.encrypt_with_blinding(&m, &pool.take()));
            lat.push(t0.elapsed().as_nanos() as u64);
        }
        lat.sort_unstable();
        let (a, b) = (percentile(&lat, 0.50), percentile(&lat, 0.99));
        if (b as f64 / a as f64) < (p99 as f64 / p50 as f64) {
            (p50, p99) = (a, b);
        }
    }
    assert_eq!(pool.stats().sync_refills, 0, "a warm take went dry");
    let gen_ns = {
        let mut rng = StdRng::seed_from_u64(99);
        let t0 = Instant::now();
        black_box(sk.precompute_blinding(&mut rng));
        t0.elapsed().as_nanos() as u64
    };
    let floor = (gen_ns / 8).max(1);
    let ratio = p99 as f64 / p50 as f64;
    eprintln!(
        "blinding take p50 = {p50} ns, p99 = {p99} ns, p99/p50 = {ratio:.2}, floor = {floor} ns"
    );
    assert!(
        ratio <= 2.0 || p99 < floor,
        "warm-pool take p99 {p99} ns is {ratio:.2}x p50 and above the gen/8 floor {floor} ns"
    );
}
