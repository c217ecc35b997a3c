//! Paillier additively homomorphic encryption (the paper's HOM scheme).
//!
//! §3.1: "To support summation, we implemented the Paillier cryptosystem.
//! With Paillier, multiplying the encryptions of two values results in an
//! encryption of the sum of the values." The DBMS server computes `SUM`
//! aggregates by multiplying ciphertexts modulo `n²` inside a UDF; the
//! proxy decrypts the product.
//!
//! # Implemented optimisations, mapped to the paper
//!
//! * **`g = n + 1` (§3.1 implementation choice).** `g^m = 1 + m·n (mod n²)`,
//!   so encryption is one multiplication plus the `r^n mod n²` blinding —
//!   never a `g^m` exponentiation.
//! * **Ciphertext pre-computing (§3.5.2).** The expensive `r^n mod n²`
//!   factors can be produced ahead of time with
//!   [`PaillierPrivate::precompute_blinding`] (or in bulk with
//!   [`PaillierPrivate::precompute_blinding_batch`]) and spent in
//!   [`PaillierPublic::encrypt_with_blinding`], removing HOM encryption
//!   from the critical path. The proxy's blinding pool drains this API.
//! * **CRT acceleration (proxy-side, keys available).** The paper's proxy
//!   holds the factorisation of `n`, so both private-key operations run
//!   componentwise mod `p²` and `q²` and recombine:
//!   - *Decryption* exponentiates `c^{p-1} mod p²` and `c^{q-1} mod q²`
//!     (half-width moduli *and* half-width exponents) — ~4× over the
//!     full-width `c^λ mod n²`, which survives as
//!     [`PaillierPrivate::decrypt_noncrt`] for cross-checking.
//!   - *Blinding generation* uses `r^n ≡ (r^{q mod (p-1)} mod p)^p (mod p²)`
//!     (the binomial theorem kills every term of `y^p` past `y mod p`), so
//!     each half costs one quarter-width exponentiation plus one
//!     half-width exponentiation by a half-width exponent — ~3× over the
//!     full-width path, kept as
//!     [`PaillierPrivate::blinding_from_r_noncrt`].
//! * **Short-plaintext decryption (proxy-side).** Signed 64-bit values
//!   are encoded as residues (`v < 0` maps to `n + v`), and a cell or a
//!   `HOM_SUM` of `k` cells carries `|V| ≤ k·2⁶³`, below `p/2` for any
//!   `k < 2⁴⁴⁷` (`p ≥ 2⁵¹¹` at the paper's 1024-bit `n`). In that range
//!   `V mod p` determines `V`, so [`PaillierPrivate::decrypt_i64`]
//!   computes only `m mod p` — the `p²` half of the CRT decryption, one
//!   16-limb exponentiation instead of two — and reads it as `m_p` or
//!   `m_p − p`; the full residue [`PaillierPrivate::decrypt`] stays the
//!   reference.
//!
//! The DBMS-server half ([`PaillierPublic`]) never sees `p`, `q`, or the
//! CRT tables — it can only multiply ciphertexts.

#![forbid(unsafe_code)]

use cryptdb_bignum::{gen_prime, MontScratch, Montgomery, Ubig};

/// Reusable working memory for repeated private-key operations: one
/// [`MontScratch`] serving every CRT context (p, q, p², q²). Batch
/// consumers — the proxy's per-result-set HOM decryption and the
/// blinding-pool refill batches — hold one per batch so the Montgomery
/// kernels allocate nothing after the first call.
#[derive(Default)]
pub struct PaillierScratch {
    ws: MontScratch,
}

impl PaillierScratch {
    /// An empty scratch; buffers are sized lazily by the first use.
    pub fn new() -> Self {
        PaillierScratch::default()
    }
}

/// Public Paillier parameters: the modulus and its square.
///
/// Cloneable so the DBMS server side (UDFs) can hold the public half —
/// the server multiplies ciphertexts but can never decrypt them.
#[derive(Clone)]
pub struct PaillierPublic {
    n: Ubig,
    n_squared: Ubig,
}

/// Private Paillier key (proxy side only).
pub struct PaillierPrivate {
    public: PaillierPublic,
    /// `mod n²` context — the non-CRT reference paths.
    mont_n2: Montgomery,
    /// λ = lcm(p−1, q−1) — non-CRT reference path.
    lambda: Ubig,
    /// μ = L(g^λ mod n²)⁻¹ mod n — non-CRT reference path.
    mu: Ubig,
    crt: CrtKey,
}

/// CRT tables derived from the factorisation `n = p·q`.
struct CrtKey {
    p: Ubig,
    q: Ubig,
    p_squared: Ubig,
    q_squared: Ubig,
    mont_p: Montgomery,
    mont_q: Montgomery,
    mont_p2: Montgomery,
    mont_q2: Montgomery,
    /// p − 1 and q − 1: decryption exponents.
    pm1: Ubig,
    qm1: Ubig,
    /// q mod (p−1) and p mod (q−1): blinding first-stage exponents.
    q_mod_pm1: Ubig,
    p_mod_qm1: Ubig,
    /// hp = ((p−1)·q mod p)⁻¹ mod p (and symmetrically hq): the
    /// precomputed `L(g^{p−1} mod p²)⁻¹` — with `g = n + 1` it reduces to
    /// this closed form, no exponentiation needed.
    hp: Ubig,
    hq: Ubig,
    /// q⁻¹ mod p: Garner recombination of plaintexts.
    q_inv_p: Ubig,
    /// (p²)⁻¹ mod q²: recombination of blindings mod n².
    p2_inv_q2: Ubig,
}

/// A Paillier ciphertext (an element of Z*_{n²}).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Ciphertext(pub Ubig);

impl PaillierPublic {
    /// The modulus `n`.
    pub fn modulus(&self) -> &Ubig {
        &self.n
    }

    /// Ciphertext length in bytes (⌈|n²|/8⌉) — the paper notes HOM
    /// ciphertexts are 2048 bits for a 1024-bit modulus (§3.1).
    pub fn ciphertext_len(&self) -> usize {
        self.n_squared.bits().div_ceil(8)
    }

    /// Encodes a signed 64-bit integer into Z_n.
    pub fn encode_i64(&self, v: i64) -> Ubig {
        if v >= 0 {
            Ubig::from_u64(v as u64)
        } else {
            self.n.sub(&Ubig::from_u64(v.unsigned_abs()))
        }
    }

    /// Encrypts `m ∈ Z_n` with a pre-computed blinding factor `r^n mod n²`.
    ///
    /// This is the §3.5.2 fast path: `c = (1 + m·n) · rⁿ mod n²`.
    pub fn encrypt_with_blinding(&self, m: &Ubig, blinding: &Ubig) -> Ciphertext {
        let gm = Ubig::one().add(&m.mul(&self.n)).rem(&self.n_squared);
        Ciphertext(gm.mod_mul(blinding, &self.n_squared))
    }

    /// Homomorphic addition: multiply ciphertexts mod n².
    ///
    /// This is exactly the server-side `HOM_ADD` UDF operation.
    pub fn add(&self, a: &Ciphertext, b: &Ciphertext) -> Ciphertext {
        Ciphertext(a.0.mod_mul(&b.0, &self.n_squared))
    }

    /// The additive identity: an encryption of zero with trivial blinding.
    ///
    /// Used as the accumulator seed of the `HOM_SUM` aggregate UDF. It is
    /// not semantically secure by itself but is immediately multiplied by
    /// real ciphertexts.
    pub fn zero(&self) -> Ciphertext {
        Ciphertext(Ubig::one())
    }

    /// Serialises a ciphertext to fixed-width big-endian bytes.
    pub fn ciphertext_to_bytes(&self, c: &Ciphertext) -> Vec<u8> {
        c.0.to_bytes_be(self.ciphertext_len())
    }

    /// Parses a ciphertext from bytes (as produced by
    /// [`Self::ciphertext_to_bytes`]).
    pub fn ciphertext_from_bytes(&self, bytes: &[u8]) -> Ciphertext {
        Ciphertext(Ubig::from_bytes_be(bytes))
    }
}

impl PaillierPrivate {
    /// Generates a key with an `n` of `bits` bits (so ciphertexts have
    /// `2·bits`). The paper uses 1024-bit `n` / 2048-bit ciphertexts.
    ///
    /// # Panics
    ///
    /// Panics if `bits < 256`: [`Self::decrypt_i64`] decodes from
    /// `m mod p` and needs `p ≥ 2¹²⁷` to stay exact.
    pub fn keygen<R: rand::RngCore + ?Sized>(rng: &mut R, bits: usize) -> Self {
        assert!(bits >= 256, "modulus too small for exact i64 decryption");
        let (p, q, n) = loop {
            let p = gen_prime(rng, bits / 2);
            let q = gen_prime(rng, bits - bits / 2);
            if p == q {
                continue;
            }
            let n = p.mul(&q);
            if n.bits() == bits {
                break (p, q, n);
            }
        };
        let n_squared = n.mul(&n);
        let one = Ubig::one();
        let lambda = p.sub(&one).lcm(&q.sub(&one));
        // μ = L(g^λ mod n²)⁻¹ mod n; with g = n + 1, g^λ ≡ 1 + λ·n
        // (mod n²), so L(g^λ mod n²) = λ mod n.
        let mu = lambda
            .rem(&n)
            .mod_inv(&n)
            .expect("λ invertible for valid p, q");
        let crt = CrtKey::new(p, q);
        PaillierPrivate {
            mont_n2: Montgomery::new(n_squared.clone()),
            public: PaillierPublic { n, n_squared },
            lambda,
            mu,
            crt,
        }
    }

    /// The public half of the key.
    pub fn public(&self) -> &PaillierPublic {
        &self.public
    }

    /// Draws `r` uniform in Z*_n.
    fn sample_r<R: rand::RngCore + ?Sized>(&self, rng: &mut R) -> Ubig {
        loop {
            let r = Ubig::rand_below(rng, &self.public.n);
            if !r.is_zero() && r.gcd(&self.public.n).is_one() {
                return r;
            }
        }
    }

    /// Pre-computes one blinding factor `rⁿ mod n²` (§3.5.2) via the CRT
    /// fast path.
    pub fn precompute_blinding<R: rand::RngCore + ?Sized>(&self, rng: &mut R) -> Ubig {
        let r = self.sample_r(rng);
        self.blinding_from_r(&r)
    }

    /// Pre-computes `count` blinding factors in one call (pool refill),
    /// reusing one [`PaillierScratch`] across the whole batch so the
    /// Montgomery kernels allocate nothing after the first factor.
    pub fn precompute_blinding_batch<R: rand::RngCore + ?Sized>(
        &self,
        rng: &mut R,
        count: usize,
    ) -> Vec<Ubig> {
        let mut ws = PaillierScratch::new();
        (0..count)
            .map(|_| {
                let r = self.sample_r(rng);
                self.blinding_from_r_with(&r, &mut ws)
            })
            .collect()
    }

    /// `rⁿ mod n²` by CRT: per prime, `rⁿ ≡ (r^{q mod (p−1)} mod p)^p
    /// (mod p²)` — the binomial theorem reduces `y^p mod p²` to
    /// `(y mod p)^p mod p²`, and Fermat reduces the inner exponent.
    pub fn blinding_from_r(&self, r: &Ubig) -> Ubig {
        self.blinding_from_r_with(r, &mut PaillierScratch::new())
    }

    /// [`Self::blinding_from_r`] with caller-held working memory — the
    /// blinding-pool refill batches reuse one scratch across a batch.
    pub fn blinding_from_r_with(&self, r: &Ubig, ws: &mut PaillierScratch) -> Ubig {
        let k = &self.crt;
        // Mod p²: inner quarter-width exponentiation, then ^p.
        let xp = k.mont_p.pow_with(r, &k.q_mod_pm1, &mut ws.ws);
        let a = k.mont_p2.pow_with(&xp, &k.p, &mut ws.ws);
        // Mod q².
        let xq = k.mont_q.pow_with(r, &k.p_mod_qm1, &mut ws.ws);
        let b = k.mont_q2.pow_with(&xq, &k.q, &mut ws.ws);
        k.recombine_mod_n2(&a, &b)
    }

    /// `rⁿ mod n²` by the direct full-width exponentiation (the pre-CRT
    /// path, kept as a cross-check and the `crt_gates` speed baseline).
    pub fn blinding_from_r_noncrt(&self, r: &Ubig) -> Ubig {
        self.mont_n2.pow(r, &self.public.n)
    }

    /// Encrypts `m ∈ Z_n`, drawing fresh randomness.
    pub fn encrypt<R: rand::RngCore + ?Sized>(&self, m: &Ubig, rng: &mut R) -> Ciphertext {
        let blinding = self.precompute_blinding(rng);
        self.public.encrypt_with_blinding(m, &blinding)
    }

    /// Encrypts a signed 64-bit integer.
    pub fn encrypt_i64<R: rand::RngCore + ?Sized>(&self, v: i64, rng: &mut R) -> Ciphertext {
        self.encrypt(&self.public.encode_i64(v), rng)
    }

    /// Decrypts to a residue in Z_n via CRT: `m_p = L_p(c^{p−1} mod p²)·h_p
    /// mod p` (half-width modulus *and* exponent), symmetrically `m_q`,
    /// recombined with Garner's formula.
    pub fn decrypt(&self, c: &Ciphertext) -> Ubig {
        self.decrypt_with(c, &mut PaillierScratch::new())
    }

    /// [`Self::decrypt`] with caller-held working memory — a caller
    /// decrypting many cells reuses one scratch across all of them.
    pub fn decrypt_with(&self, c: &Ciphertext, ws: &mut PaillierScratch) -> Ubig {
        let k = &self.crt;
        let mp = self.decrypt_mod_p(c, ws);
        let cq = k.mont_q2.pow_with(&c.0, &k.qm1, &mut ws.ws);
        let lq = cq.sub(&Ubig::one()).div_rem(&k.q).0;
        let mq = lq.mod_mul(&k.hq, &k.q);
        // Garner: m = m_q + q·((m_p − m_q)·q⁻¹ mod p).
        let d = mp.mod_sub(&mq.rem(&k.p), &k.p);
        let t = d.mod_mul(&k.q_inv_p, &k.p);
        mq.add(&k.q.mul(&t))
    }

    /// Decrypts via the full-width `L(c^λ mod n²)·μ mod n` (the pre-CRT
    /// path, kept as a cross-check and the `crt_gates` speed baseline).
    pub fn decrypt_noncrt(&self, c: &Ciphertext) -> Ubig {
        let clambda = self.mont_n2.pow(&c.0, &self.lambda);
        let l = clambda.sub(&Ubig::one()).div_rem(&self.public.n).0;
        l.mod_mul(&self.mu, &self.public.n)
    }

    /// The `p²` half of the CRT decryption: `m mod p = L_p(c^{p−1} mod
    /// p²)·h_p mod p`.
    fn decrypt_mod_p(&self, c: &Ciphertext, ws: &mut PaillierScratch) -> Ubig {
        let k = &self.crt;
        let cp = k.mont_p2.pow_with(&c.0, &k.pm1, &mut ws.ws);
        let lp = cp.sub(&Ubig::one()).div_rem(&k.p).0;
        lp.mod_mul(&k.hp, &k.p)
    }

    /// Decrypts to a signed 64-bit integer from `m_p = m mod p` alone:
    /// one half-width exponentiation, half the cost of [`Self::decrypt`].
    ///
    /// Returns `None` on magnitude overflow (e.g. a sum that left i64).
    ///
    /// **Why `m mod p` suffices.** The decode is `m_p` if `m_p ≤ p/2`,
    /// otherwise `m_p − p`, then the i64 range check. It recovers `V`
    /// exactly whenever `|V| < p/2`. An i64 cell has `|V| ≤ 2⁶³`, and a
    /// `HOM_SUM` of `k` cells `|V| ≤ k·2⁶³`, which is below `p/2` for
    /// every `k < 2⁴⁴⁷` at the paper's 1024-bit `n` (`p ≥ 2⁵¹¹`;
    /// [`Self::keygen`] refuses keys with `p < 2¹²⁷`). A sum that leaves
    /// i64 but stays below `p/2` decodes to its true value and fails the
    /// range check, so it is `None` as before. A residue that decodes
    /// differently from the full CRT `decrypt` would have to be ≡ a small
    /// value (mod p) yet at least `p/2` in magnitude — an offset by a
    /// multiple of `p`, which only someone who can factor `n` can build;
    /// and the server is passive (§2), it only multiplies ciphertexts.
    pub fn decrypt_i64(&self, c: &Ciphertext) -> Option<i64> {
        self.decrypt_i64_with(c, &mut PaillierScratch::new())
    }

    /// [`Self::decrypt_i64`] with caller-held working memory.
    pub fn decrypt_i64_with(&self, c: &Ciphertext, ws: &mut PaillierScratch) -> Option<i64> {
        let p = &self.crt.p;
        let mp = self.decrypt_mod_p(c, ws);
        if mp <= p.shr(1) {
            i64::try_from(mp.to_u64()?).ok()
        } else {
            i64::try_from(-i128::from(p.sub(&mp).to_u64()?)).ok()
        }
    }
}

impl CrtKey {
    fn new(p: Ubig, q: Ubig) -> Self {
        let one = Ubig::one();
        let p_squared = p.mul(&p);
        let q_squared = q.mul(&q);
        let pm1 = p.sub(&one);
        let qm1 = q.sub(&one);
        let hp = pm1
            .mul(&q)
            .rem(&p)
            .mod_inv(&p)
            .expect("q invertible mod p for distinct primes");
        let hq = qm1
            .mul(&p)
            .rem(&q)
            .mod_inv(&q)
            .expect("p invertible mod q for distinct primes");
        let q_inv_p = q.mod_inv(&p).expect("distinct primes");
        let p2_inv_q2 = p_squared.mod_inv(&q_squared).expect("distinct primes");
        CrtKey {
            mont_p: Montgomery::new(p.clone()),
            mont_q: Montgomery::new(q.clone()),
            mont_p2: Montgomery::new(p_squared.clone()),
            mont_q2: Montgomery::new(q_squared.clone()),
            q_mod_pm1: q.rem(&pm1),
            p_mod_qm1: p.rem(&qm1),
            p,
            q,
            p_squared,
            q_squared,
            pm1,
            qm1,
            hp,
            hq,
            q_inv_p,
            p2_inv_q2,
        }
    }

    /// Recombines `x ≡ a (mod p²)`, `x ≡ b (mod q²)` into `x mod n²`.
    fn recombine_mod_n2(&self, a: &Ubig, b: &Ubig) -> Ubig {
        let d = b.mod_sub(&a.rem(&self.q_squared), &self.q_squared);
        let t = d.mod_mul(&self.p2_inv_q2, &self.q_squared);
        a.add(&self.p_squared.mul(&t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn key() -> (PaillierPrivate, StdRng) {
        let mut rng = StdRng::seed_from_u64(42);
        (PaillierPrivate::keygen(&mut rng, 256), rng)
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let (sk, mut rng) = key();
        for v in [0i64, 1, -1, 42, -42, i64::MAX / 2, i64::MIN / 2] {
            let c = sk.encrypt_i64(v, &mut rng);
            assert_eq!(sk.decrypt_i64(&c), Some(v), "v={v}");
        }
    }

    #[test]
    fn homomorphic_addition() {
        let (sk, mut rng) = key();
        let a = sk.encrypt_i64(1234, &mut rng);
        let b = sk.encrypt_i64(-234, &mut rng);
        let sum = sk.public().add(&a, &b);
        assert_eq!(sk.decrypt_i64(&sum), Some(1000));
    }

    #[test]
    fn sum_aggregate_like_udf() {
        let (sk, mut rng) = key();
        let values = [10i64, 20, 30, -5, 45];
        let mut acc = sk.public().zero();
        for &v in &values {
            let c = sk.encrypt_i64(v, &mut rng);
            acc = sk.public().add(&acc, &c);
        }
        assert_eq!(sk.decrypt_i64(&acc), Some(100));
    }

    #[test]
    fn probabilistic_encryption() {
        let (sk, mut rng) = key();
        let a = sk.encrypt_i64(5, &mut rng);
        let b = sk.encrypt_i64(5, &mut rng);
        assert_ne!(a, b, "HOM must be IND-CPA probabilistic");
        assert_eq!(sk.decrypt_i64(&a), sk.decrypt_i64(&b));
    }

    #[test]
    fn precomputed_blinding_matches_fresh() {
        let (sk, mut rng) = key();
        let blinding = sk.precompute_blinding(&mut rng);
        let c = sk
            .public()
            .encrypt_with_blinding(&sk.public().encode_i64(99), &blinding);
        assert_eq!(sk.decrypt_i64(&c), Some(99));
    }

    #[test]
    fn scratch_reuse_matches_fresh() {
        let (sk, mut rng) = key();
        let mut ws = PaillierScratch::new();
        for v in [5i64, -5, i64::MAX / 3] {
            let c = sk.encrypt_i64(v, &mut rng);
            assert_eq!(sk.decrypt_i64_with(&c, &mut ws), Some(v));
            assert_eq!(sk.decrypt_with(&c, &mut ws), sk.decrypt(&c));
        }
        for _ in 0..3 {
            let r = sk.sample_r(&mut rng);
            assert_eq!(sk.blinding_from_r_with(&r, &mut ws), sk.blinding_from_r(&r));
        }
    }

    #[test]
    fn crt_and_noncrt_agree() {
        let (sk, mut rng) = key();
        for v in [0i64, 7, -7, 123_456_789, i64::MIN / 3] {
            let c = sk.encrypt_i64(v, &mut rng);
            assert_eq!(sk.decrypt(&c), sk.decrypt_noncrt(&c), "v={v}");
        }
        // Same r must give the same blinding on both paths.
        for _ in 0..4 {
            let r = sk.sample_r(&mut rng);
            assert_eq!(sk.blinding_from_r(&r), sk.blinding_from_r_noncrt(&r));
        }
    }

    #[test]
    fn batch_decrypt_matches_single() {
        // One scratch reused across a batch decrypts like fresh ones.
        let (sk, mut rng) = key();
        let values = [3i64, -9, 1 << 40, 0];
        let cts: Vec<Ciphertext> = values
            .iter()
            .map(|&v| sk.encrypt_i64(v, &mut rng))
            .collect();
        let mut ws = PaillierScratch::new();
        for (c, &v) in cts.iter().zip(&values) {
            assert_eq!(sk.decrypt_i64_with(c, &mut ws), Some(v));
            assert_eq!(sk.decrypt_i64(c), Some(v));
        }
    }

    #[test]
    fn blinding_batch_is_valid() {
        let (sk, mut rng) = key();
        let pool = sk.precompute_blinding_batch(&mut rng, 5);
        assert_eq!(pool.len(), 5);
        for (i, b) in pool.iter().enumerate() {
            let c = sk
                .public()
                .encrypt_with_blinding(&sk.public().encode_i64(i as i64), b);
            assert_eq!(sk.decrypt_i64(&c), Some(i as i64));
        }
    }

    #[test]
    fn ciphertext_bytes_roundtrip() {
        let (sk, mut rng) = key();
        let c = sk.encrypt_i64(31337, &mut rng);
        let bytes = sk.public().ciphertext_to_bytes(&c);
        assert_eq!(bytes.len(), sk.public().ciphertext_len());
        let back = sk.public().ciphertext_from_bytes(&bytes);
        assert_eq!(sk.decrypt_i64(&back), Some(31337));
    }
}
