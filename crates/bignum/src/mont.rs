//! Montgomery-form modular arithmetic: one CIOS multiply kernel.
//!
//! This is the bignum hot path of the whole system: every Paillier
//! decryption and blinding pre-computation (§3.5.2 of the paper), and
//! every Miller–Rabin round of key generation, bottoms out in the kernel
//! here. The design rules:
//!
//! * **One kernel.** [`Montgomery::mont_mul`] is the interleaved CIOS
//!   (coarsely integrated operand scanning) product: each row of `a·b`
//!   is folded by one quotient digit as soon as it is formed, so the
//!   working set is `width() + 2` limbs. Squares are `mont_mul(a, a)`:
//!   a dedicated SOS square took 1.07–1.12× the product's time at 8
//!   limbs, 0.97–1.08× at 16 and 0.86–0.89× at 32 (release, 2 shared
//!   vCPUs), and only the non-CRT reference paths run at 32.
//! * **No heap allocation per multiply.** The kernel operates on
//!   caller-provided limb slices; an exponentiation reuses one
//!   [`MontScratch`] for every window step, and batch callers
//!   ([`Montgomery::pow_with`]) carry the same scratch across calls.
//! * **Short-exponent fast path.** [`Montgomery::pow`] skips the 16-entry
//!   window table (14 multiplies of setup) for small exponents and uses
//!   plain square-and-multiply.
//!
//! There is no subquadratic (Karatsuba + standalone REDC) variant: at the
//! paper's 1024-bit key every per-operation context is 8 limbs (the CRT
//! `p`/`q` contexts and Miller–Rabin) or 16 limbs (the CRT `p²`/`q²`
//! contexts), where such a kernel measured 1.00× CIOS on an isolated
//! multiply and 0.99× on CRT decrypt (single-core 2.1 GHz Xeon, safe
//! scalar Rust). Its one win, ≈1.2× at the 32-limb `n²` width, would
//! reach only the non-CRT reference paths.

use crate::Ubig;

/// A Montgomery context for a fixed odd modulus.
///
/// Precomputes `-n^{-1} mod 2^64` and `R^2 mod n` (with `R = 2^(64·s)` for an
/// `s`-limb modulus) so repeated multiplications and exponentiations avoid
/// full-width division.
///
/// # Examples
///
/// ```
/// use cryptdb_bignum::{Montgomery, Ubig};
///
/// let m = Montgomery::new(Ubig::from_u64(1_000_003));
/// let r = m.pow(&Ubig::from_u64(2), &Ubig::from_u64(20));
/// assert_eq!(r.to_u64().unwrap(), (1 << 20) % 1_000_003);
/// ```
pub struct Montgomery {
    n: Ubig,
    n_limbs: Vec<u64>,
    n0inv: u64,
    /// `R^2 mod n`, padded to `s` limbs.
    rr: Vec<u64>,
    /// `R mod n` (the Montgomery form of 1), padded to `s` limbs.
    one_m: Vec<u64>,
}

/// Exponent bit-count at or below which `pow` uses plain square-and-
/// multiply: the 14 table-setup multiplies of the 4-bit window are not
/// amortised by short exponents.
const SHORT_EXP_BITS: usize = 32;

/// Reusable working memory for repeated exponentiations
/// ([`Montgomery::pow_with`]): the kernel scratch, the accumulator
/// pair, a base-conversion buffer, and the 16-row window table. Buffers
/// grow on demand, so one `MontScratch` serves contexts of different
/// widths (e.g. the Paillier CRT's p-, p²-, q-, and q²-contexts).
#[derive(Default)]
pub struct MontScratch {
    kernel: Vec<u64>,
    acc: Vec<u64>,
    tmp: Vec<u64>,
    base: Vec<u64>,
    table: Vec<u64>,
}

impl MontScratch {
    /// An empty scratch; buffers are sized lazily by the first use.
    pub fn new() -> Self {
        MontScratch::default()
    }
}

fn ensure_len(v: &mut Vec<u64>, n: usize) {
    if v.len() < n {
        v.resize(n, 0);
    }
}

impl Montgomery {
    /// Creates a context for the odd modulus `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero, one, or even.
    pub fn new(n: Ubig) -> Self {
        assert!(!n.is_zero() && !n.is_one(), "modulus must be > 1");
        assert!(!n.is_even(), "Montgomery requires an odd modulus");
        let s = n.limbs().len();
        let n0 = n.limbs()[0];
        // Newton iteration for the inverse of n0 mod 2^64; five steps double
        // the valid bits from 5 to >64.
        let mut inv: u64 = n0; // Valid to 5 bits for odd n0.
        for _ in 0..5 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(n0.wrapping_mul(inv)));
        }
        debug_assert_eq!(n0.wrapping_mul(inv), 1);
        let n0inv = inv.wrapping_neg();
        let mut rr = vec![0u64; s];
        copy_padded(Ubig::one().shl(128 * s).rem(&n).limbs(), &mut rr);
        let mut one_m = vec![0u64; s];
        copy_padded(Ubig::one().shl(64 * s).rem(&n).limbs(), &mut one_m);
        Montgomery {
            n_limbs: n.limbs().to_vec(),
            n,
            n0inv,
            rr,
            one_m,
        }
    }

    /// The modulus.
    pub fn modulus(&self) -> &Ubig {
        &self.n
    }

    /// The modulus width in limbs; every Montgomery-form value is exactly
    /// this many limbs.
    pub fn width(&self) -> usize {
        self.n_limbs.len()
    }

    /// Scratch limbs the kernel needs at this width: one row of the
    /// CIOS product plus two carry limbs.
    pub fn scratch_len(&self) -> usize {
        self.n_limbs.len() + 2
    }

    /// Allocates a scratch buffer for [`Self::mont_mul`].
    pub fn scratch(&self) -> Vec<u64> {
        vec![0u64; self.scratch_len()]
    }

    /// Montgomery product `out = a·b·R⁻¹ mod n` of two values in
    /// Montgomery form, by CIOS. All value slices are `width()` limbs;
    /// `scratch` is at least [`Self::scratch_len`] limbs (use
    /// [`Self::scratch`]). No heap allocation.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) on wrong slice lengths.
    pub fn mont_mul(&self, a: &[u64], b: &[u64], out: &mut [u64], scratch: &mut [u64]) {
        let s = self.n_limbs.len();
        debug_assert!(a.len() == s && b.len() == s && out.len() == s);
        debug_assert!(scratch.len() >= s + 2);
        let n = &self.n_limbs[..];
        let t = &mut scratch[..s + 2];
        t.fill(0);
        for &bi in b {
            let bi = bi as u128;
            let mut carry: u128 = 0;
            for j in 0..s {
                let sum = t[j] as u128 + a[j] as u128 * bi + carry;
                t[j] = sum as u64;
                carry = sum >> 64;
            }
            let sum = t[s] as u128 + carry;
            t[s] = sum as u64;
            t[s + 1] = (sum >> 64) as u64;

            let m = t[0].wrapping_mul(self.n0inv) as u128;
            let sum = t[0] as u128 + m * n[0] as u128;
            let mut carry = sum >> 64;
            for j in 1..s {
                let sum = t[j] as u128 + m * n[j] as u128 + carry;
                t[j - 1] = sum as u64;
                carry = sum >> 64;
            }
            let sum = t[s] as u128 + carry;
            t[s - 1] = sum as u64;
            t[s] = t[s + 1].wrapping_add((sum >> 64) as u64);
            t[s + 1] = 0;
        }
        // Result is t[0..=s] < 2n with t[s] ∈ {0, 1}: one conditional
        // subtraction of n brings it into [0, n).
        reduce_once(&t[..=s], n, out);
    }

    /// Converts into Montgomery form (allocates the result buffer; this is
    /// a conversion boundary, not a hot-loop kernel).
    pub fn to_mont(&self, v: &Ubig) -> Vec<u64> {
        let s = self.n_limbs.len();
        let mut vm = vec![0u64; s];
        copy_padded(v.rem(&self.n).limbs(), &mut vm);
        let mut out = vec![0u64; s];
        let mut scratch = self.scratch();
        self.mont_mul(&vm, &self.rr, &mut out, &mut scratch);
        out
    }

    /// Converts out of Montgomery form.
    pub fn from_mont(&self, v: &[u64]) -> Ubig {
        let s = self.n_limbs.len();
        let mut one = vec![0u64; s];
        one[0] = 1;
        let mut out = vec![0u64; s];
        let mut scratch = self.scratch();
        self.mont_mul(v, &one, &mut out, &mut scratch);
        Ubig::from_limbs(out)
    }

    /// Modular multiplication `a·b mod n` for plain (non-Montgomery) values.
    pub fn mul(&self, a: &Ubig, b: &Ubig) -> Ubig {
        let am = self.to_mont(a);
        let bm = self.to_mont(b);
        let mut out = vec![0u64; self.n_limbs.len()];
        let mut scratch = self.scratch();
        self.mont_mul(&am, &bm, &mut out, &mut scratch);
        self.from_mont(&out)
    }

    /// Modular exponentiation `base^exp mod n`.
    ///
    /// Uses a 4-bit fixed window; for exponents of at most
    /// `SHORT_EXP_BITS` (32) bits the window table is skipped entirely in
    /// favour of square-and-multiply. Allocates one
    /// [`MontScratch`] — batch callers should hold their own and use
    /// [`Self::pow_with`].
    pub fn pow(&self, base: &Ubig, exp: &Ubig) -> Ubig {
        self.pow_with(base, exp, &mut MontScratch::new())
    }

    /// [`Self::pow`] with caller-held working memory: every buffer the
    /// exponentiation needs (kernel scratch, accumulators, window table)
    /// lives in `ws` and is reused across calls, so a batch of
    /// exponentiations allocates only on its first call per width.
    pub fn pow_with(&self, base: &Ubig, exp: &Ubig, ws: &mut MontScratch) -> Ubig {
        let bits = exp.bits();
        if bits == 0 {
            return Ubig::one().rem(&self.n);
        }
        let s = self.n_limbs.len();
        ensure_len(&mut ws.kernel, self.scratch_len());
        ensure_len(&mut ws.acc, s);
        ensure_len(&mut ws.tmp, s);
        ensure_len(&mut ws.base, s);
        // base_m = base·R mod n, staged through tmp.
        copy_padded(base.rem(&self.n).limbs(), &mut ws.tmp[..s]);
        {
            let (tmp, base_buf) = (&ws.tmp[..s], &mut ws.base[..s]);
            self.mont_mul(tmp, &self.rr, base_buf, &mut ws.kernel);
        }

        if bits <= SHORT_EXP_BITS {
            // Square-and-multiply, MSB first; no table setup.
            ws.acc[..s].copy_from_slice(&ws.base[..s]);
            for i in (0..bits - 1).rev() {
                {
                    let (acc, tmp) = (&ws.acc[..s], &mut ws.tmp[..s]);
                    self.mont_mul(acc, acc, tmp, &mut ws.kernel);
                }
                if exp.bit(i) {
                    let (tmp, base_buf, acc) = (&ws.tmp[..s], &ws.base[..s], &mut ws.acc[..s]);
                    self.mont_mul(tmp, base_buf, acc, &mut ws.kernel);
                } else {
                    std::mem::swap(&mut ws.acc, &mut ws.tmp);
                }
            }
            return self.result_from_mont(ws);
        }

        ensure_len(&mut ws.table, 16 * s);
        {
            let (base_buf, table) = (&ws.base[..s], &mut ws.table[..16 * s]);
            self.window_table_into(base_buf, table, &mut ws.kernel);
        }
        self.pow_windowed(&ws.table, exp, &mut ws.acc, &mut ws.tmp, &mut ws.kernel);
        self.result_from_mont(ws)
    }

    /// Converts `ws.acc` (Montgomery form) to a `Ubig`, staging the
    /// constant 1 through `ws.tmp`.
    fn result_from_mont(&self, ws: &mut MontScratch) -> Ubig {
        let s = self.n_limbs.len();
        ws.tmp[..s].fill(0);
        ws.tmp[0] = 1;
        let mut out = vec![0u64; s];
        {
            let (acc, tmp) = (&ws.acc[..s], &ws.tmp[..s]);
            self.mont_mul(acc, tmp, &mut out, &mut ws.kernel);
        }
        Ubig::from_limbs(out)
    }

    /// Builds the flat 16×s window table `base^0 .. base^15` (Montgomery
    /// form) in `table`, squaring for the even rows.
    fn window_table_into(&self, base_m: &[u64], table: &mut [u64], scratch: &mut [u64]) {
        let s = self.n_limbs.len();
        table[..s].copy_from_slice(&self.one_m);
        table[s..2 * s].copy_from_slice(base_m);
        for i in 2..16 {
            let (lo, hi) = table.split_at_mut(i * s);
            let row = &mut hi[..s];
            if i % 2 == 0 {
                let half = &lo[(i / 2) * s..(i / 2 + 1) * s];
                self.mont_mul(half, half, row, scratch);
            } else {
                self.mont_mul(&lo[(i - 1) * s..i * s], base_m, row, scratch);
            }
        }
    }

    /// Core 4-bit window scan; leaves the result (Montgomery form) in `acc`.
    fn pow_windowed(
        &self,
        table: &[u64],
        exp: &Ubig,
        acc: &mut Vec<u64>,
        tmp: &mut Vec<u64>,
        scratch: &mut [u64],
    ) {
        let s = self.n_limbs.len();
        let bits = exp.bits();
        acc[..s].copy_from_slice(&self.one_m);
        let mut started = false;
        let top_window = bits.div_ceil(4);
        for w in (0..top_window).rev() {
            let mut nibble = 0usize;
            for k in 0..4 {
                if exp.bit(w * 4 + k) {
                    nibble |= 1 << k;
                }
            }
            if started {
                for _ in 0..4 {
                    self.mont_mul(&acc[..s], &acc[..s], &mut tmp[..s], scratch);
                    std::mem::swap(acc, tmp);
                }
            }
            if nibble != 0 {
                self.mont_mul(
                    &acc[..s],
                    &table[nibble * s..(nibble + 1) * s],
                    &mut tmp[..s],
                    scratch,
                );
                std::mem::swap(acc, tmp);
                started = true;
            }
        }
        if !started {
            // Zero exponent: the caller filtered this, but stay correct.
            acc[..s].copy_from_slice(&self.one_m);
        }
    }
}

/// Copies `src` into `dst`, zero-padding the top.
fn copy_padded(src: &[u64], dst: &mut [u64]) {
    debug_assert!(src.len() <= dst.len());
    dst[..src.len()].copy_from_slice(src);
    dst[src.len()..].fill(0);
}

/// Reduces `t` (n-width plus one top limb, value < 2n) into `out = t mod n`.
fn reduce_once(t: &[u64], n: &[u64], out: &mut [u64]) {
    let s = n.len();
    debug_assert_eq!(t.len(), s + 1);
    let ge = t[s] != 0 || cmp_limbs(&t[..s], n) != std::cmp::Ordering::Less;
    if ge {
        let mut borrow = 0u64;
        for i in 0..s {
            let (d1, b1) = t[i].overflowing_sub(n[i]);
            let (d2, b2) = d1.overflowing_sub(borrow);
            out[i] = d2;
            borrow = (b1 as u64) + (b2 as u64);
        }
        debug_assert_eq!(t[s], borrow, "reduce_once: input was >= 2n");
    } else {
        out.copy_from_slice(&t[..s]);
    }
}

/// Compares equal-length little-endian limb slices.
fn cmp_limbs(a: &[u64], b: &[u64]) -> std::cmp::Ordering {
    debug_assert_eq!(a.len(), b.len());
    for i in (0..a.len()).rev() {
        match a[i].cmp(&b[i]) {
            std::cmp::Ordering::Equal => continue,
            ord => return ord,
        }
    }
    std::cmp::Ordering::Equal
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_generic_modexp_small() {
        let n = Ubig::from_u64(0xffff_ffff_ffff_ffc5); // Large odd (prime) modulus.
        let m = Montgomery::new(n.clone());
        for (b, e) in [(2u64, 1000u64), (12345, 6789), (0xdead_beef, 31337)] {
            let expect = naive_modexp(b, e, 0xffff_ffff_ffff_ffc5);
            let got = m.pow(&Ubig::from_u64(b), &Ubig::from_u64(e));
            assert_eq!(got.to_u64().unwrap(), expect, "b={b} e={e}");
        }
    }

    #[test]
    fn multi_limb_fermat() {
        // p = 2^89 - 1 is a Mersenne prime: a^(p-1) ≡ 1 (mod p).
        let p = Ubig::one().shl(89).sub(&Ubig::one());
        let m = Montgomery::new(p.clone());
        let a = Ubig::from_u64(123_456_789);
        let r = m.pow(&a, &p.sub(&Ubig::one()));
        assert!(r.is_one());
    }

    #[test]
    fn mul_matches_mod_mul() {
        let n = Ubig::from_hex("f123456789abcdef0123456789abcdef1").unwrap();
        let m = Montgomery::new(n.clone());
        let a = Ubig::from_hex("abcdef0123456789abcdef").unwrap();
        let b = Ubig::from_hex("123456789abcdef0fedcba").unwrap();
        assert_eq!(m.mul(&a, &b), a.mod_mul(&b, &n));
    }

    #[test]
    fn zero_exponent() {
        let m = Montgomery::new(Ubig::from_u64(97));
        assert!(m.pow(&Ubig::from_u64(5), &Ubig::zero()).is_one());
    }

    /// A deterministic wide odd modulus of exactly `limbs` limbs.
    fn wide_modulus(limbs: usize) -> Ubig {
        let mut v: Vec<u64> = (0..limbs as u64)
            .map(|i| {
                0x9e37_79b9_7f4a_7c15u64
                    .wrapping_mul(i + 1)
                    .wrapping_add(0x1234_5678_9abc_def1)
            })
            .collect();
        v[0] |= 1; // Odd.
        v[limbs - 1] |= 1 << 63; // Exactly `limbs` limbs wide.
        Ubig::from_limbs(v)
    }

    /// Pseudo-random value below `n`, seeded.
    fn wide_value(n: &Ubig, seed: u64) -> Ubig {
        let mut v = Ubig::zero();
        let mut x = seed.wrapping_mul(0x2545_f491_4f6c_dd1d) | 1;
        for i in 0..n.limbs().len() + 1 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            v = v.add(&Ubig::from_u64(x).shl(64 * i));
        }
        v.rem(n)
    }

    #[test]
    fn pow_with_reuses_scratch_across_widths() {
        // One MontScratch serving two contexts of different widths (the
        // Paillier CRT shape: p²- and q²-contexts share a scratch).
        let n1 = wide_modulus(16);
        let n2 = wide_modulus(17);
        let m1 = Montgomery::new(n1.clone());
        let m2 = Montgomery::new(n2.clone());
        let mut ws = MontScratch::new();
        for seed in 1u64..4 {
            let b = wide_value(&n1, seed);
            let e = wide_value(&n1, seed + 9);
            assert_eq!(m1.pow_with(&b, &e, &mut ws), m1.pow(&b, &e));
            let b = wide_value(&n2, seed);
            let e = wide_value(&n2, seed + 9);
            assert_eq!(m2.pow_with(&b, &e, &mut ws), m2.pow(&b, &e));
        }
    }

    #[test]
    fn short_and_long_exponent_paths_agree() {
        let n = Ubig::from_hex("f123456789abcdef0123456789abcdef1").unwrap();
        let m = Montgomery::new(n.clone());
        let base = Ubig::from_u64(0x1234_5678_9abc);
        // Straddle the SHORT_EXP_BITS threshold.
        for e in [1u64, 3, 15, 255, 1 << 31, (1 << 33) + 12345] {
            let got = m.pow(&base, &Ubig::from_u64(e));
            let expect = naive_big_modexp(&base, e, &n);
            assert_eq!(got, expect, "e={e}");
        }
    }

    fn naive_big_modexp(b: &Ubig, mut e: u64, n: &Ubig) -> Ubig {
        let mut acc = Ubig::one();
        let mut base = b.rem(n);
        while e > 0 {
            if e & 1 == 1 {
                acc = acc.mod_mul(&base, n);
            }
            base = base.mod_mul(&base, n);
            e >>= 1;
        }
        acc
    }

    fn naive_modexp(b: u64, e: u64, m: u64) -> u64 {
        let mut acc: u128 = 1;
        let bb = b as u128 % m as u128;
        let mut base = bb;
        let mut e = e;
        while e > 0 {
            if e & 1 == 1 {
                acc = acc * base % m as u128;
            }
            base = base * base % m as u128;
            e >>= 1;
        }
        acc as u64
    }
}
