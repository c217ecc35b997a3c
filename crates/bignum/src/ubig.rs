//! The [`Ubig`] unsigned big-integer type.

use std::cmp::Ordering;
use std::fmt;

/// Threshold (in limbs) above which multiplication switches to Karatsuba.
const KARATSUBA_THRESHOLD: usize = 32;

/// An arbitrary-precision unsigned integer.
///
/// Internally a little-endian vector of 64-bit limbs with the invariant that
/// the most significant limb is non-zero (zero is the empty vector). All
/// public constructors and operations preserve this normalisation.
///
/// # Examples
///
/// ```
/// use cryptdb_bignum::Ubig;
///
/// let a = Ubig::from_u64(1 << 40);
/// let b = &a * &a;
/// assert_eq!(b, Ubig::from_u128(1u128 << 80));
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct Ubig {
    limbs: Vec<u64>,
}

impl Ubig {
    /// Returns zero.
    pub fn zero() -> Self {
        Ubig { limbs: Vec::new() }
    }

    /// Returns one.
    pub fn one() -> Self {
        Ubig { limbs: vec![1] }
    }

    /// Builds a value from a `u64`.
    pub fn from_u64(v: u64) -> Self {
        if v == 0 {
            Ubig::zero()
        } else {
            Ubig { limbs: vec![v] }
        }
    }

    /// Builds a value from a `u128`.
    pub fn from_u128(v: u128) -> Self {
        let lo = v as u64;
        let hi = (v >> 64) as u64;
        if hi == 0 {
            Ubig::from_u64(lo)
        } else {
            Ubig {
                limbs: vec![lo, hi],
            }
        }
    }

    /// Builds a value from little-endian limbs (normalising trailing zeros).
    pub fn from_limbs(mut limbs: Vec<u64>) -> Self {
        while limbs.last() == Some(&0) {
            limbs.pop();
        }
        Ubig { limbs }
    }

    /// Builds a value from big-endian bytes.
    pub fn from_bytes_be(bytes: &[u8]) -> Self {
        let mut limbs = Vec::with_capacity(bytes.len() / 8 + 1);
        let mut acc: u64 = 0;
        let mut nbits = 0;
        for &b in bytes.iter().rev() {
            acc |= (b as u64) << nbits;
            nbits += 8;
            if nbits == 64 {
                limbs.push(acc);
                acc = 0;
                nbits = 0;
            }
        }
        if acc != 0 {
            limbs.push(acc);
        }
        Ubig::from_limbs(limbs)
    }

    /// Serialises to big-endian bytes, zero-padded to exactly `len` bytes.
    ///
    /// # Panics
    ///
    /// Panics if the value does not fit in `len` bytes.
    pub fn to_bytes_be(&self, len: usize) -> Vec<u8> {
        assert!(
            self.bits().div_ceil(8) <= len,
            "Ubig::to_bytes_be: value does not fit in {len} bytes"
        );
        let mut out = vec![0u8; len];
        for (i, &limb) in self.limbs.iter().enumerate() {
            for k in 0..8 {
                let pos = i * 8 + k;
                if pos >= len {
                    break;
                }
                out[len - 1 - pos] = (limb >> (8 * k)) as u8;
            }
        }
        out
    }

    /// Parses a hexadecimal string (no prefix, case-insensitive).
    ///
    /// Returns `None` on any non-hex character or empty input.
    pub fn from_hex(s: &str) -> Option<Self> {
        if s.is_empty() {
            return None;
        }
        let mut limbs = Vec::with_capacity(s.len() / 16 + 1);
        let mut acc: u64 = 0;
        let mut nbits = 0;
        for c in s.bytes().rev() {
            let d = (c as char).to_digit(16)? as u64;
            acc |= d << nbits;
            nbits += 4;
            if nbits == 64 {
                limbs.push(acc);
                acc = 0;
                nbits = 0;
            }
        }
        if acc != 0 {
            limbs.push(acc);
        }
        Some(Ubig::from_limbs(limbs))
    }

    /// Parses a decimal string.
    ///
    /// Returns `None` on any non-decimal character or empty input.
    pub fn from_decimal(s: &str) -> Option<Self> {
        if s.is_empty() {
            return None;
        }
        let mut acc = Ubig::zero();
        for c in s.bytes() {
            let d = (c as char).to_digit(10)? as u64;
            acc = acc.mul_u64(10);
            acc = acc.add_u64(d);
        }
        Some(acc)
    }

    /// Renders as lowercase hexadecimal (no leading zeros; zero is `"0"`).
    pub fn to_hex(&self) -> String {
        if self.is_zero() {
            return "0".to_string();
        }
        let mut s = String::new();
        for (i, &limb) in self.limbs.iter().enumerate().rev() {
            if i == self.limbs.len() - 1 {
                s.push_str(&format!("{limb:x}"));
            } else {
                s.push_str(&format!("{limb:016x}"));
            }
        }
        s
    }

    /// Returns the little-endian limbs.
    pub fn limbs(&self) -> &[u64] {
        &self.limbs
    }

    /// True if the value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// True if the value is one.
    pub fn is_one(&self) -> bool {
        self.limbs.len() == 1 && self.limbs[0] == 1
    }

    /// True if the value is even (zero is even).
    pub fn is_even(&self) -> bool {
        self.limbs.first().is_none_or(|l| l & 1 == 0)
    }

    /// Returns bit `i` (zero beyond the top).
    pub fn bit(&self, i: usize) -> bool {
        let limb = i / 64;
        if limb >= self.limbs.len() {
            return false;
        }
        (self.limbs[limb] >> (i % 64)) & 1 == 1
    }

    /// Number of significant bits (zero has zero bits).
    pub fn bits(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(&top) => 64 * (self.limbs.len() - 1) + (64 - top.leading_zeros() as usize),
        }
    }

    /// Converts to `u64`, if it fits.
    pub fn to_u64(&self) -> Option<u64> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0]),
            _ => None,
        }
    }

    /// Converts to `u128`, if it fits.
    pub fn to_u128(&self) -> Option<u128> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0] as u128),
            2 => Some(self.limbs[0] as u128 | (self.limbs[1] as u128) << 64),
            _ => None,
        }
    }

    /// Adds a `u64`.
    pub fn add_u64(&self, v: u64) -> Ubig {
        let mut limbs = self.limbs.clone();
        let mut carry = v;
        for limb in limbs.iter_mut() {
            let (s, c) = limb.overflowing_add(carry);
            *limb = s;
            carry = c as u64;
            if carry == 0 {
                break;
            }
        }
        if carry != 0 {
            limbs.push(carry);
        }
        Ubig::from_limbs(limbs)
    }

    /// Multiplies by a `u64`.
    pub fn mul_u64(&self, v: u64) -> Ubig {
        if v == 0 || self.is_zero() {
            return Ubig::zero();
        }
        let mut limbs = Vec::with_capacity(self.limbs.len() + 1);
        let mut carry: u128 = 0;
        for &limb in &self.limbs {
            let t = limb as u128 * v as u128 + carry;
            limbs.push(t as u64);
            carry = t >> 64;
        }
        if carry != 0 {
            limbs.push(carry as u64);
        }
        Ubig::from_limbs(limbs)
    }

    /// Divides by a `u64`, returning `(quotient, remainder)`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is zero.
    pub fn div_rem_u64(&self, v: u64) -> (Ubig, u64) {
        assert!(v != 0, "division by zero");
        let mut q = vec![0u64; self.limbs.len()];
        let mut rem: u128 = 0;
        for i in (0..self.limbs.len()).rev() {
            let cur = (rem << 64) | self.limbs[i] as u128;
            q[i] = (cur / v as u128) as u64;
            rem = cur % v as u128;
        }
        (Ubig::from_limbs(q), rem as u64)
    }

    /// Shifts left by `n` bits.
    pub fn shl(&self, n: usize) -> Ubig {
        if self.is_zero() || n == 0 {
            if n == 0 {
                return self.clone();
            }
            return Ubig::zero();
        }
        let limb_shift = n / 64;
        let bit_shift = n % 64;
        let mut limbs = vec![0u64; limb_shift];
        if bit_shift == 0 {
            limbs.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &limb in &self.limbs {
                limbs.push((limb << bit_shift) | carry);
                carry = limb >> (64 - bit_shift);
            }
            if carry != 0 {
                limbs.push(carry);
            }
        }
        Ubig::from_limbs(limbs)
    }

    /// Shifts right by `n` bits.
    pub fn shr(&self, n: usize) -> Ubig {
        let limb_shift = n / 64;
        if limb_shift >= self.limbs.len() {
            return Ubig::zero();
        }
        let bit_shift = n % 64;
        let src = &self.limbs[limb_shift..];
        if bit_shift == 0 {
            return Ubig::from_limbs(src.to_vec());
        }
        let mut limbs = Vec::with_capacity(src.len());
        for i in 0..src.len() {
            let lo = src[i] >> bit_shift;
            let hi = if i + 1 < src.len() {
                src[i + 1] << (64 - bit_shift)
            } else {
                0
            };
            limbs.push(lo | hi);
        }
        Ubig::from_limbs(limbs)
    }

    /// Adds two values.
    pub fn add(&self, other: &Ubig) -> Ubig {
        let (long, short) = if self.limbs.len() >= other.limbs.len() {
            (&self.limbs, &other.limbs)
        } else {
            (&other.limbs, &self.limbs)
        };
        let mut limbs = Vec::with_capacity(long.len() + 1);
        let mut carry = 0u64;
        for (i, &a) in long.iter().enumerate() {
            let b = short.get(i).copied().unwrap_or(0);
            let (s1, c1) = a.overflowing_add(b);
            let (s2, c2) = s1.overflowing_add(carry);
            limbs.push(s2);
            carry = (c1 as u64) + (c2 as u64);
        }
        if carry != 0 {
            limbs.push(carry);
        }
        Ubig::from_limbs(limbs)
    }

    /// Subtracts `other` from `self`.
    ///
    /// # Panics
    ///
    /// Panics if `other > self`.
    pub fn sub(&self, other: &Ubig) -> Ubig {
        assert!(self >= other, "Ubig::sub underflow");
        let mut limbs = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0u64;
        for i in 0..self.limbs.len() {
            let b = other.limbs.get(i).copied().unwrap_or(0);
            let (d1, b1) = self.limbs[i].overflowing_sub(b);
            let (d2, b2) = d1.overflowing_sub(borrow);
            limbs.push(d2);
            borrow = (b1 as u64) + (b2 as u64);
        }
        debug_assert_eq!(borrow, 0);
        Ubig::from_limbs(limbs)
    }

    /// Multiplies two values (schoolbook below, Karatsuba above a threshold).
    pub fn mul(&self, other: &Ubig) -> Ubig {
        if self.is_zero() || other.is_zero() {
            return Ubig::zero();
        }
        if self.limbs.len() >= KARATSUBA_THRESHOLD && other.limbs.len() >= KARATSUBA_THRESHOLD {
            return self.mul_karatsuba(other);
        }
        self.mul_schoolbook(other)
    }

    fn mul_schoolbook(&self, other: &Ubig) -> Ubig {
        let mut limbs = vec![0u64; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            if a == 0 {
                continue;
            }
            let mut carry: u128 = 0;
            for (j, &b) in other.limbs.iter().enumerate() {
                let t = a as u128 * b as u128 + limbs[i + j] as u128 + carry;
                limbs[i + j] = t as u64;
                carry = t >> 64;
            }
            let mut k = i + other.limbs.len();
            while carry != 0 {
                let t = limbs[k] as u128 + carry;
                limbs[k] = t as u64;
                carry = t >> 64;
                k += 1;
            }
        }
        Ubig::from_limbs(limbs)
    }

    fn mul_karatsuba(&self, other: &Ubig) -> Ubig {
        let half = self.limbs.len().min(other.limbs.len()) / 2;
        let (a0, a1) = self.split_at(half);
        let (b0, b1) = other.split_at(half);
        let z0 = a0.mul(&b0);
        let z2 = a1.mul(&b1);
        let z1 = a0.add(&a1).mul(&b0.add(&b1)).sub(&z0).sub(&z2);
        z2.shl(half * 128).add(&z1.shl(half * 64)).add(&z0)
    }

    fn split_at(&self, limb: usize) -> (Ubig, Ubig) {
        if limb >= self.limbs.len() {
            (self.clone(), Ubig::zero())
        } else {
            (
                Ubig::from_limbs(self.limbs[..limb].to_vec()),
                Ubig::from_limbs(self.limbs[limb..].to_vec()),
            )
        }
    }

    /// Divides, returning `(quotient, remainder)` via Knuth Algorithm D.
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is zero.
    pub fn div_rem(&self, divisor: &Ubig) -> (Ubig, Ubig) {
        assert!(!divisor.is_zero(), "division by zero");
        match self.cmp(divisor) {
            Ordering::Less => return (Ubig::zero(), self.clone()),
            Ordering::Equal => return (Ubig::one(), Ubig::zero()),
            Ordering::Greater => {}
        }
        if divisor.limbs.len() == 1 {
            let (q, r) = self.div_rem_u64(divisor.limbs[0]);
            return (q, Ubig::from_u64(r));
        }

        // Knuth TAOCP vol. 2, Algorithm D. Normalise so the divisor's top
        // limb has its high bit set, which keeps the qhat estimate within 2.
        let shift = divisor.limbs.last().unwrap().leading_zeros() as usize;
        let v = divisor.shl(shift);
        let u_big = self.shl(shift);
        let n = v.limbs.len();
        let m = u_big.limbs.len() - n;
        let mut u = u_big.limbs.clone();
        u.push(0); // u has m + n + 1 digits.
        let v = &v.limbs;
        let mut q = vec![0u64; m + 1];
        let vtop = v[n - 1] as u128;
        let vsecond = v[n - 2] as u128;

        for j in (0..=m).rev() {
            let numerator = ((u[j + n] as u128) << 64) | u[j + n - 1] as u128;
            let mut qhat = numerator / vtop;
            let mut rhat = numerator % vtop;
            // Correct qhat down by at most 2.
            while qhat >> 64 != 0 || qhat * vsecond > ((rhat << 64) | u[j + n - 2] as u128) {
                qhat -= 1;
                rhat += vtop;
                if rhat >> 64 != 0 {
                    break;
                }
            }
            // Multiply and subtract: u[j..j+n+1] -= qhat * v.
            let mut borrow: i128 = 0;
            let mut carry: u128 = 0;
            for i in 0..n {
                let p = qhat * v[i] as u128 + carry;
                carry = p >> 64;
                let t = u[j + i] as i128 - (p as u64) as i128 + borrow;
                u[j + i] = t as u64;
                borrow = t >> 64; // Arithmetic shift: 0 or -1.
            }
            let t = u[j + n] as i128 - carry as i128 + borrow;
            u[j + n] = t as u64;
            if t < 0 {
                // qhat was one too large: add back.
                qhat -= 1;
                let mut carry = 0u64;
                for i in 0..n {
                    let (s1, c1) = u[j + i].overflowing_add(v[i]);
                    let (s2, c2) = s1.overflowing_add(carry);
                    u[j + i] = s2;
                    carry = (c1 as u64) + (c2 as u64);
                }
                u[j + n] = u[j + n].wrapping_add(carry);
            }
            q[j] = qhat as u64;
        }
        let rem = Ubig::from_limbs(u[..n].to_vec()).shr(shift);
        (Ubig::from_limbs(q), rem)
    }

    /// Returns `self mod m`.
    pub fn rem(&self, m: &Ubig) -> Ubig {
        self.div_rem(m).1
    }

    /// Modular subtraction (operands must already be reduced).
    pub fn mod_sub(&self, other: &Ubig, m: &Ubig) -> Ubig {
        if self >= other {
            self.sub(other)
        } else {
            self.add(m).sub(other)
        }
    }

    /// Modular multiplication.
    pub fn mod_mul(&self, other: &Ubig, m: &Ubig) -> Ubig {
        self.mul(other).rem(m)
    }

    /// Modular exponentiation `self^exp mod m`.
    ///
    /// Uses Montgomery exponentiation for odd moduli and square-and-multiply
    /// with explicit reduction otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero.
    pub fn mod_exp(&self, exp: &Ubig, m: &Ubig) -> Ubig {
        assert!(!m.is_zero(), "zero modulus");
        if m.is_one() {
            return Ubig::zero();
        }
        if !m.is_even() {
            let mont = crate::Montgomery::new(m.clone());
            return mont.pow(self, exp);
        }
        let mut base = self.rem(m);
        let mut result = Ubig::one();
        for i in 0..exp.bits() {
            if exp.bit(i) {
                result = result.mod_mul(&base, m);
            }
            base = base.mod_mul(&base, m);
        }
        result
    }

    /// Greatest common divisor (binary GCD).
    pub fn gcd(&self, other: &Ubig) -> Ubig {
        let mut a = self.clone();
        let mut b = other.clone();
        if a.is_zero() {
            return b;
        }
        if b.is_zero() {
            return a;
        }
        let az = a.trailing_zeros();
        let bz = b.trailing_zeros();
        let shift = az.min(bz);
        a = a.shr(az);
        loop {
            b = b.shr(b.trailing_zeros());
            if a > b {
                std::mem::swap(&mut a, &mut b);
            }
            b = b.sub(&a);
            if b.is_zero() {
                return a.shl(shift);
            }
        }
    }

    /// Least common multiple.
    pub fn lcm(&self, other: &Ubig) -> Ubig {
        if self.is_zero() || other.is_zero() {
            return Ubig::zero();
        }
        self.div_rem(&self.gcd(other)).0.mul(other)
    }

    fn trailing_zeros(&self) -> usize {
        for (i, &limb) in self.limbs.iter().enumerate() {
            if limb != 0 {
                return i * 64 + limb.trailing_zeros() as usize;
            }
        }
        0
    }

    /// Modular inverse, if `gcd(self, m) == 1`.
    ///
    /// Implemented with the iterative extended Euclidean algorithm over a
    /// small signed-magnitude helper.
    pub fn mod_inv(&self, m: &Ubig) -> Option<Ubig> {
        if m.is_zero() || m.is_one() {
            return None;
        }
        let mut old_r = self.rem(m);
        let mut r = m.clone();
        let mut old_s = Sbig::from(Ubig::one());
        let mut s = Sbig::from(Ubig::zero());
        while !r.is_zero() {
            let (q, rem) = old_r.div_rem(&r);
            old_r = std::mem::replace(&mut r, rem);
            let next_s = old_s.sub(&s.mul_ubig(&q));
            old_s = std::mem::replace(&mut s, next_s);
        }
        if !old_r.is_one() {
            return None;
        }
        Some(old_s.rem_positive(m))
    }

    /// Uniform random value with exactly `bits` bits (top bit set).
    pub fn rand_bits<R: rand::RngCore + ?Sized>(rng: &mut R, bits: usize) -> Ubig {
        if bits == 0 {
            return Ubig::zero();
        }
        let nlimbs = bits.div_ceil(64);
        let mut limbs = vec![0u64; nlimbs];
        for limb in limbs.iter_mut() {
            *limb = rng.next_u64();
        }
        let top_bits = bits - (nlimbs - 1) * 64;
        if top_bits < 64 {
            limbs[nlimbs - 1] &= (1u64 << top_bits) - 1;
        }
        limbs[nlimbs - 1] |= 1u64 << (top_bits - 1);
        Ubig::from_limbs(limbs)
    }

    /// Uniform random value in `[0, bound)` by rejection sampling.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn rand_below<R: rand::RngCore + ?Sized>(rng: &mut R, bound: &Ubig) -> Ubig {
        assert!(!bound.is_zero(), "rand_below: zero bound");
        let bits = bound.bits();
        let nlimbs = bits.div_ceil(64);
        let top_bits = bits - (nlimbs - 1) * 64;
        let mask = if top_bits == 64 {
            u64::MAX
        } else {
            (1u64 << top_bits) - 1
        };
        loop {
            let mut limbs = vec![0u64; nlimbs];
            for limb in limbs.iter_mut() {
                *limb = rng.next_u64();
            }
            limbs[nlimbs - 1] &= mask;
            let v = Ubig::from_limbs(limbs);
            if &v < bound {
                return v;
            }
        }
    }
}

impl Ord for Ubig {
    fn cmp(&self, other: &Self) -> Ordering {
        match self.limbs.len().cmp(&other.limbs.len()) {
            Ordering::Equal => {}
            ord => return ord,
        }
        for i in (0..self.limbs.len()).rev() {
            match self.limbs[i].cmp(&other.limbs[i]) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }
}

impl PartialOrd for Ubig {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Debug for Ubig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Ubig(0x{})", self.to_hex())
    }
}

impl fmt::Display for Ubig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Decimal rendering via repeated division by 10^19.
        if self.is_zero() {
            return write!(f, "0");
        }
        let mut chunks = Vec::new();
        let mut cur = self.clone();
        while !cur.is_zero() {
            let (q, r) = cur.div_rem_u64(10_000_000_000_000_000_000);
            chunks.push(r);
            cur = q;
        }
        write!(f, "{}", chunks.pop().unwrap())?;
        for c in chunks.iter().rev() {
            write!(f, "{c:019}")?;
        }
        Ok(())
    }
}

impl std::ops::Add for &Ubig {
    type Output = Ubig;
    fn add(self, rhs: &Ubig) -> Ubig {
        Ubig::add(self, rhs)
    }
}

impl std::ops::Sub for &Ubig {
    type Output = Ubig;
    fn sub(self, rhs: &Ubig) -> Ubig {
        Ubig::sub(self, rhs)
    }
}

impl std::ops::Mul for &Ubig {
    type Output = Ubig;
    fn mul(self, rhs: &Ubig) -> Ubig {
        Ubig::mul(self, rhs)
    }
}

impl std::ops::Rem for &Ubig {
    type Output = Ubig;
    fn rem(self, rhs: &Ubig) -> Ubig {
        Ubig::rem(self, rhs)
    }
}

/// Minimal signed-magnitude integer used only by the extended Euclid loop.
struct Sbig {
    mag: Ubig,
    neg: bool,
}

impl From<Ubig> for Sbig {
    fn from(mag: Ubig) -> Self {
        Sbig { mag, neg: false }
    }
}

impl Sbig {
    fn sub(&self, other: &Sbig) -> Sbig {
        match (self.neg, other.neg) {
            (false, true) => Sbig {
                mag: self.mag.add(&other.mag),
                neg: false,
            },
            (true, false) => Sbig {
                mag: self.mag.add(&other.mag),
                neg: true,
            },
            (sn, _) => {
                if self.mag >= other.mag {
                    Sbig {
                        mag: self.mag.sub(&other.mag),
                        neg: sn,
                    }
                } else {
                    Sbig {
                        mag: other.mag.sub(&self.mag),
                        neg: !sn,
                    }
                }
            }
        }
    }

    fn mul_ubig(&self, v: &Ubig) -> Sbig {
        Sbig {
            mag: self.mag.mul(v),
            neg: self.neg && !self.mag.is_zero(),
        }
    }

    /// Reduces into `[0, m)` respecting the sign.
    fn rem_positive(&self, m: &Ubig) -> Ubig {
        let r = self.mag.rem(m);
        if self.neg && !r.is_zero() {
            m.sub(&r)
        } else {
            r
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_hex_and_bytes() {
        let v = Ubig::from_hex("deadbeefcafebabe0123456789abcdef55").unwrap();
        assert_eq!(Ubig::from_hex(&v.to_hex()).unwrap(), v);
        let bytes = v.to_bytes_be(32);
        assert_eq!(Ubig::from_bytes_be(&bytes), v);
    }

    #[test]
    fn decimal_roundtrip() {
        let v = Ubig::from_decimal("27742317777372353535851937790883648493").unwrap();
        assert_eq!(format!("{v}"), "27742317777372353535851937790883648493");
    }

    #[test]
    fn division_against_u128() {
        let a = Ubig::from_u128(0xfedcba9876543210_0123456789abcdefu128);
        let b = Ubig::from_u64(0x1234_5678_9abc);
        let (q, r) = a.div_rem(&b);
        let a128 = 0xfedcba9876543210_0123456789abcdefu128;
        let b128 = 0x1234_5678_9abcu128;
        assert_eq!(q.to_u128().unwrap(), a128 / b128);
        assert_eq!(r.to_u128().unwrap(), a128 % b128);
    }

    #[test]
    fn knuth_d_multi_limb() {
        // (2^192 - 1) / (2^96 + 3): exercise the multi-limb path.
        let a = Ubig::from_hex(&"f".repeat(48)).unwrap();
        let b = Ubig::one().shl(96).add_u64(3);
        let (q, r) = a.div_rem(&b);
        assert_eq!(q.mul(&b).add(&r), a);
        assert!(r < b);
    }

    #[test]
    fn mod_inv_works() {
        let m = Ubig::from_u64(1_000_000_007);
        let a = Ubig::from_u64(123_456_789);
        let inv = a.mod_inv(&m).unwrap();
        assert!(a.mod_mul(&inv, &m).is_one());
        // Non-invertible case.
        let m2 = Ubig::from_u64(100);
        assert!(Ubig::from_u64(10).mod_inv(&m2).is_none());
    }

    #[test]
    fn mod_exp_even_modulus() {
        let m = Ubig::from_u64(1 << 20);
        let r = Ubig::from_u64(3).mod_exp(&Ubig::from_u64(100), &m);
        // 3^100 mod 2^20 computed independently.
        let mut expect = 1u64;
        for _ in 0..100 {
            expect = expect * 3 % (1 << 20);
        }
        assert_eq!(r.to_u64().unwrap(), expect);
    }

    #[test]
    fn gcd_lcm() {
        let a = Ubig::from_u64(48);
        let b = Ubig::from_u64(180);
        assert_eq!(a.gcd(&b).to_u64().unwrap(), 12);
        assert_eq!(a.lcm(&b).to_u64().unwrap(), 720);
    }
}
