//! Per-column encryption across all onions (Fig. 2 / Fig. 3).
//!
//! Each sensitive column's keys are derived from a *root key* — the master
//! key in single-principal mode, or a principal's key under `ENC FOR` —
//! via the paper's Equation (1). A plaintext cell encrypts to up to five
//! server-side cells: the shared random IV plus one ciphertext per onion.

use crate::error::ProxyError;
use crate::onion::{EqLevel, OrdLevel};
use cryptdb_crypto::aes::Aes;
use cryptdb_crypto::blowfish::Blowfish;
use cryptdb_crypto::modes::{cbc_decrypt, cbc_encrypt, cmc_decrypt, cmc_encrypt};
use cryptdb_crypto::prf::{derive_key, Key};
use cryptdb_ecgroup::{JoinAdj, JoinKey};
use cryptdb_engine::Value;
use cryptdb_ope::{Ope, OpeCached, OpeError};
use cryptdb_paillier::{PaillierPrivate, PaillierPublic};
use cryptdb_search::{SearchCiphertext, SearchKey, SearchToken};
use cryptdb_sqlparser::ColumnType;
use parking_lot::{Mutex, RwLock};
use rand::RngCore;
use std::collections::HashMap;

/// Number of stripe locks sharding a column's OPE walker cache: enough
/// that concurrent sessions missing on different plaintexts rarely
/// collide on a stripe, small enough that the per-stripe result/node
/// budgets (total ÷ stripes) stay useful.
const OPE_WALKER_STRIPES: usize = 8;

/// JOIN-ADJ tag length inside the Eq onion blob.
pub const JTAG_LEN: usize = 32;
/// IV length (AES block).
pub const IV_LEN: usize = 16;

/// Which onions a column carries (§3.2: "some onions or onion layers may
/// be omitted, depending on column types or schema annotations").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OnionSet {
    pub eq: bool,
    pub ord: bool,
    pub add: bool,
    pub search: bool,
}

impl OnionSet {
    /// Default onions for a column type: integers get Eq/Ord/Add, text
    /// gets Eq/Ord/Search (Fig. 2).
    pub fn for_type(ty: ColumnType) -> Self {
        match ty {
            ColumnType::Int => OnionSet {
                eq: true,
                ord: true,
                add: true,
                search: false,
            },
            ColumnType::Text => OnionSet {
                eq: true,
                ord: true,
                add: false,
                search: true,
            },
        }
    }
}

/// The derived key material for one column under one root key.
pub struct ColumnKeys {
    /// RND layer of the Eq onion.
    rnd_eq: Aes,
    /// RND layer of the Ord onion.
    rnd_ord: Aes,
    /// DET for 64-bit integers (the paper uses Blowfish's 64-bit block).
    det_int: Blowfish,
    /// DET for text (AES-CMC).
    det_txt: Aes,
    /// OPE (64-bit domain, 124-bit range), the cacheless instance: used
    /// for decryption (lock-free), for encryption while another thread
    /// holds the value's walker stripe, and by `ope_encrypt(_, false)`.
    ope: Ope,
    /// Finished plaintext→ciphertext OPE results (§3.5.2 "caching ...
    /// the 30,000 most common values"). A read-write lock so warm hits
    /// never wait behind an in-progress tree walk. Capped at the
    /// walker's result capacity: the walker's LRU is the bounded source
    /// of truth; at the cap this read-through map replaces an arbitrary
    /// entry per insert (random replacement) so a shifted hot set still
    /// works its way in instead of being locked out by whatever filled
    /// the map first.
    ope_results: RwLock<HashMap<u64, u128>>,
    /// The same OPE key behind the paper's §3.1 batch-encryption cache:
    /// interior tree nodes are memoised, so misses walk shared
    /// range-split prefixes once (the AVL 25 ms → 7 ms optimisation).
    /// Sharded into [`OPE_WALKER_STRIPES`] stripe locks keyed by
    /// plaintext hash, so concurrent misses on *different* values walk
    /// in parallel instead of all but one falling back to the cacheless
    /// instance. Each stripe is still taken with `try_lock` — a
    /// contended stripe falls back rather than queueing.
    ope_walkers: Vec<Mutex<OpeCached>>,
    /// The walker's result capacity, mirrored so the read-through map's
    /// admission bound always matches however the walker was built.
    ope_result_cap: usize,
    /// This column's native JOIN-ADJ key.
    pub join: JoinKey,
    /// SEARCH key.
    search: SearchKey,
    /// Raw layer keys, exposed to ship to the server for onion peeling.
    pub rnd_eq_key: Key,
    pub rnd_ord_key: Key,
}

fn aes128(key: &Key) -> Aes {
    let mut k = [0u8; 16];
    k.copy_from_slice(&key[..16]);
    Aes::new_128(&k)
}

impl ColumnKeys {
    /// Derives all layer keys for `(table, column)` from `root` — the
    /// paper's Eq. (1), with the onion and layer names as path components.
    pub fn derive(root: &Key, table: &str, column: &str, ope_group: Option<&str>) -> Self {
        let path = |onion: &str, layer: &str| derive_key(root, &[table, column, onion, layer]);
        let rnd_eq_key = path("eq", "rnd");
        let rnd_ord_key = path("ord", "rnd");
        let det_key = path("eq", "det");
        let ope_key = match ope_group {
            // Range-join groups share an OPE key (the paper's OPE-JOIN
            // layer; see DESIGN.md substitution table).
            Some(g) => derive_key(root, &["opejoin-group", g]),
            None => path("ord", "ope"),
        };
        let join_key = path("eq", "joinadj");
        let search_key = path("search", "swp");
        // Stripe the walker: each stripe owns 1/Nth of the result and
        // node budgets so total cache memory matches the unsharded
        // design, and the read-through map's admission bound below is
        // the SUM of the stripe caps (accounting stays exact).
        let per_stripe_results = cryptdb_ope::DEFAULT_RESULT_CAP / OPE_WALKER_STRIPES;
        let per_stripe_nodes = cryptdb_ope::DEFAULT_NODE_CAP / OPE_WALKER_STRIPES;
        let ope_walkers: Vec<Mutex<OpeCached>> = (0..OPE_WALKER_STRIPES)
            .map(|_| {
                Mutex::new(OpeCached::with_capacity(
                    Ope::new(&ope_key, 64, 124),
                    per_stripe_results,
                    per_stripe_nodes,
                ))
            })
            .collect();
        let ope_result_cap = per_stripe_results * OPE_WALKER_STRIPES;
        ColumnKeys {
            rnd_eq: aes128(&rnd_eq_key),
            rnd_ord: aes128(&rnd_ord_key),
            det_int: Blowfish::new(&det_key),
            det_txt: aes128(&det_key),
            ope: Ope::new(&ope_key, 64, 124),
            ope_results: RwLock::new(HashMap::new()),
            ope_walkers,
            ope_result_cap,
            join: JoinKey::from_bytes(&join_key),
            search: SearchKey::new(&search_key),
            rnd_eq_key,
            rnd_ord_key,
        }
    }

    /// OPE encryption; `use_cache` routes through the shared node/result
    /// cache (§3.5.2) or the cacheless instance.
    ///
    /// Concurrency shape: warm hits take only a read lock on the result
    /// map; a miss walks the tree through the node-cache walker when it
    /// is free, or the cacheless instance when another thread is already
    /// walking — so neither hits nor misses ever queue behind a
    /// multi-millisecond walk.
    pub fn ope_encrypt(&self, m: u64, use_cache: bool) -> Result<u128, OpeError> {
        if !use_cache {
            return self.ope.encrypt(m);
        }
        if let Some(&c) = self.ope_results.read().get(&m) {
            return Ok(c);
        }
        // Stripe selection by plaintext hash (Fibonacci multiplicative):
        // the same value always lands on the same stripe, so its interior
        // tree nodes are memoised exactly once across the stripes.
        let stripe =
            (m.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % self.ope_walkers.len();
        let c = match self.ope_walkers[stripe].try_lock() {
            Some(mut walker) => walker.encrypt(m)?,
            None => {
                // Contended walker. Before paying a full cacheless tree
                // walk, re-check the result map: under a thundering herd
                // on the same hot value (concurrent sessions inserting
                // the same constant) the thread holding the walker is
                // usually computing exactly this plaintext and has just
                // published it.
                if let Some(&c) = self.ope_results.read().get(&m) {
                    return Ok(c);
                }
                self.ope.encrypt(m)?
            }
        };
        let mut results = self.ope_results.write();
        if results.len() >= self.ope_result_cap && !results.contains_key(&m) {
            // Random replacement (HashMap iteration order is effectively
            // arbitrary): O(1), and a value hot enough to keep missing
            // re-inserts itself faster than it gets displaced.
            if let Some(victim) = results.keys().next().copied() {
                results.remove(&victim);
            }
        }
        if results.len() < self.ope_result_cap {
            results.insert(m, c);
        }
        Ok(c)
    }

    /// `ope_encrypt(m, true)`'s answer if the result cache holds it;
    /// never walks the tree.
    pub fn ope_cached(&self, m: u64) -> Option<u128> {
        self.ope_results.read().get(&m).copied()
    }

    /// OPE decryption (lock-free: decryption never touches the caches).
    pub fn ope_decrypt(&self, c: u128) -> Result<u64, OpeError> {
        self.ope.decrypt(c)
    }

    /// Number of fully-cached OPE plaintext→ciphertext results.
    pub fn ope_cached_results(&self) -> usize {
        self.ope_results.read().len()
    }

    /// Wraps an Ord-onion plaintext (OPE bytes) in the RND layer.
    pub fn wrap_ord_rnd(&self, iv: &[u8], plaintext: &[u8]) -> Vec<u8> {
        cbc_encrypt(&self.rnd_ord, iv, plaintext)
    }
}

/// One encrypted cell: the server-side values for each onion column.
#[derive(Clone, Debug, Default)]
pub struct EncryptedCell {
    pub iv: Option<Value>,
    pub eq: Option<Value>,
    pub ord: Option<Value>,
    pub add: Option<Value>,
    pub srch: Option<Value>,
}

/// Canonical plaintext bytes for DET/JOIN purposes.
fn canonical_bytes(v: &Value) -> Result<Vec<u8>, ProxyError> {
    match v {
        Value::Int(i) => Ok((*i as u64).to_be_bytes().to_vec()),
        Value::Str(s) => Ok(s.as_bytes().to_vec()),
        other => Err(ProxyError::Crypto(format!(
            "cannot encrypt value of this type: {other:?}"
        ))),
    }
}

/// Order-preserving 64-bit encoding: sign-flipped integers, or the
/// big-endian first eight bytes for text (prefix order; see DESIGN.md).
fn ord_encode(v: &Value) -> Result<u64, ProxyError> {
    match v {
        Value::Int(i) => Ok(Ope::encode_i64(*i)),
        Value::Str(s) => {
            let mut b = [0u8; 8];
            let n = s.len().min(8);
            b[..n].copy_from_slice(&s.as_bytes()[..n]);
            Ok(u64::from_be_bytes(b))
        }
        other => Err(ProxyError::Crypto(format!("no order encoding: {other:?}"))),
    }
}

/// Encrypts one plaintext cell to all configured onions.
///
/// `join_key` is the column's *current effective* JOIN-ADJ key (it changes
/// when the column is re-keyed into another join group); `levels` are the
/// current onion levels — fresh values are encrypted only up to the layers
/// that have not been stripped (§3.3, write queries). The Ord onion goes
/// through the §3.5.2 batch-encryption cache; the proxy instead drives
/// OPE itself (via [`encrypt_ord_constant`]) and disables `onions.ord`
/// here.
#[allow(clippy::too_many_arguments)]
pub fn encrypt_cell<R: RngCore + ?Sized>(
    keys: &ColumnKeys,
    joinadj: &JoinAdj,
    join_key: &JoinKey,
    paillier: &PaillierPrivate,
    hom_blinding: Option<&cryptdb_bignum::Ubig>,
    v: &Value,
    ty: ColumnType,
    onions: &OnionSet,
    levels: (EqLevel, OrdLevel),
    with_jtag: bool,
    rng: &mut R,
) -> Result<EncryptedCell, ProxyError> {
    // NULLs pass through unencrypted (§3.3, "Other DBMS features").
    if v.is_null() {
        return Ok(EncryptedCell {
            iv: Some(Value::Null),
            eq: onions.eq.then_some(Value::Null),
            ord: onions.ord.then_some(Value::Null),
            add: onions.add.then_some(Value::Null),
            srch: onions.search.then_some(Value::Null),
        });
    }
    let mut iv = [0u8; IV_LEN];
    rng.fill_bytes(&mut iv);
    let mut cell = EncryptedCell {
        iv: Some(Value::Bytes(iv.to_vec())),
        ..Default::default()
    };

    if onions.eq {
        let canon = canonical_bytes(v)?;
        let det = match ty {
            ColumnType::Int => {
                let i = v
                    .as_int()
                    .ok_or_else(|| ProxyError::Crypto("int column with non-int value".into()))?;
                keys.det_int.encrypt_u64(i as u64).to_be_bytes().to_vec()
            }
            ColumnType::Text => cmc_encrypt(&keys.det_txt, &canon),
        };
        let mut blob = if with_jtag {
            joinadj.tag(join_key, &canon).to_vec()
        } else {
            Vec::new()
        };
        blob.extend_from_slice(&det);
        let eq_value = match levels.0 {
            EqLevel::Rnd => cbc_encrypt(&keys.rnd_eq, &iv, &blob),
            EqLevel::Det => blob,
        };
        cell.eq = Some(Value::Bytes(eq_value));
    }

    if onions.ord {
        let ope_ct = keys
            .ope_encrypt(ord_encode(v)?, true)
            .map_err(|e| ProxyError::Crypto(e.to_string()))?;
        let bytes = ope_ct.to_be_bytes().to_vec();
        let ord_value = match levels.1 {
            OrdLevel::Rnd => cbc_encrypt(&keys.rnd_ord, &iv, &bytes),
            OrdLevel::Ope => bytes,
        };
        cell.ord = Some(Value::Bytes(ord_value));
    }

    if onions.add {
        let i = v
            .as_int()
            .ok_or_else(|| ProxyError::Crypto("Add onion on non-integer".into()))?;
        let ct = match hom_blinding {
            Some(b) => paillier
                .public()
                .encrypt_with_blinding(&paillier.public().encode_i64(i), b),
            None => paillier.encrypt_i64(i, rng),
        };
        cell.add = Some(Value::Bytes(paillier.public().ciphertext_to_bytes(&ct)));
    }

    if onions.search {
        let s = v
            .as_str()
            .ok_or_else(|| ProxyError::Crypto("Search onion on non-text".into()))?;
        cell.srch = Some(Value::Bytes(keys.search.encrypt_text(s, rng).to_bytes()));
    }

    Ok(cell)
}

/// Encrypts a constant for an equality comparison at the Eq onion's
/// current DET level (the caller has already peeled RND).
pub fn encrypt_eq_constant(
    keys: &ColumnKeys,
    joinadj: &JoinAdj,
    join_key: &JoinKey,
    v: &Value,
    ty: ColumnType,
    with_jtag: bool,
) -> Result<Value, ProxyError> {
    if v.is_null() {
        return Ok(Value::Null);
    }
    let canon = canonical_bytes(v)?;
    let det = match ty {
        ColumnType::Int => {
            let i = v
                .as_int()
                .ok_or_else(|| ProxyError::Crypto("int column with non-int constant".into()))?;
            keys.det_int.encrypt_u64(i as u64).to_be_bytes().to_vec()
        }
        ColumnType::Text => cmc_encrypt(&keys.det_txt, &canon),
    };
    let mut blob = if with_jtag {
        joinadj.tag(join_key, &canon).to_vec()
    } else {
        Vec::new()
    };
    blob.extend_from_slice(&det);
    Ok(Value::Bytes(blob))
}

/// Encrypts a constant for an order comparison (OPE layer), through the
/// §3.5.2 batch-encryption cache.
pub fn encrypt_ord_constant(keys: &ColumnKeys, v: &Value) -> Result<Value, ProxyError> {
    if v.is_null() {
        return Ok(Value::Null);
    }
    let c = keys
        .ope_encrypt(ord_encode(v)?, true)
        .map_err(|e| ProxyError::Crypto(e.to_string()))?;
    Ok(Value::Bytes(c.to_be_bytes().to_vec()))
}

/// [`encrypt_ord_constant`]'s cached answer, `None` if the §3.5.2
/// result cache does not hold it; never walks the OPE tree.
pub fn cached_ord_constant(keys: &ColumnKeys, v: &Value) -> Result<Option<Value>, ProxyError> {
    if v.is_null() {
        return Ok(Some(Value::Null));
    }
    let c = keys.ope_cached(ord_encode(v)?);
    Ok(c.map(|c| Value::Bytes(c.to_be_bytes().to_vec())))
}

/// Builds the serialised search token for a word (48 bytes: X ‖ k_w).
pub fn search_token_bytes(keys: &ColumnKeys, word: &str) -> Vec<u8> {
    let SearchToken { x, kw } = keys.search.token(word);
    let mut out = x.to_vec();
    out.extend_from_slice(&kw);
    out
}

/// Parses a serialised search token.
pub fn parse_search_token(bytes: &[u8]) -> Option<SearchToken> {
    if bytes.len() != 48 {
        return None;
    }
    Some(SearchToken {
        x: bytes[..16].try_into().ok()?,
        kw: bytes[16..48].try_into().ok()?,
    })
}

/// Decrypts a value from the Eq onion.
///
/// `iv` is required only when the onion is still at RND.
pub fn decrypt_eq(
    keys: &ColumnKeys,
    level: EqLevel,
    ty: ColumnType,
    value: &Value,
    iv: Option<&Value>,
    with_jtag: bool,
) -> Result<Value, ProxyError> {
    if value.is_null() {
        return Ok(Value::Null);
    }
    let bytes = value
        .as_bytes()
        .ok_or_else(|| ProxyError::Crypto("Eq onion cell is not bytes".into()))?;
    let blob = match level {
        EqLevel::Rnd => {
            let iv = iv
                .and_then(|v| v.as_bytes())
                .ok_or_else(|| ProxyError::Crypto("missing IV for RND decryption".into()))?;
            cbc_decrypt(&keys.rnd_eq, iv, bytes)
                .ok_or_else(|| ProxyError::Crypto("RND layer decryption failed".into()))?
        }
        EqLevel::Det => bytes.to_vec(),
    };
    let jtag_len = if with_jtag { JTAG_LEN } else { 0 };
    if blob.len() < jtag_len {
        return Err(ProxyError::Crypto("Eq blob too short".into()));
    }
    let det = &blob[jtag_len..];
    match ty {
        ColumnType::Int => {
            let arr: [u8; 8] = det
                .try_into()
                .map_err(|_| ProxyError::Crypto("bad DET int length".into()))?;
            Ok(Value::Int(
                keys.det_int.decrypt_u64(u64::from_be_bytes(arr)) as i64,
            ))
        }
        ColumnType::Text => {
            let pt = cmc_decrypt(&keys.det_txt, det)
                .ok_or_else(|| ProxyError::Crypto("DET text decryption failed".into()))?;
            String::from_utf8(pt)
                .map(Value::Str)
                .map_err(|_| ProxyError::Crypto("DET text is not UTF-8".into()))
        }
    }
}

/// Decrypts a value from the Add onion (integers only).
pub fn decrypt_add(paillier: &PaillierPrivate, value: &Value) -> Result<Value, ProxyError> {
    if value.is_null() {
        return Ok(Value::Null);
    }
    let bytes = value
        .as_bytes()
        .ok_or_else(|| ProxyError::Crypto("Add onion cell is not bytes".into()))?;
    let ct = paillier.public().ciphertext_from_bytes(bytes);
    paillier
        .decrypt_i64(&ct)
        .map(Value::Int)
        .ok_or_else(|| ProxyError::Crypto("HOM plaintext out of i64 range".into()))
}

/// Decrypts a value from the Ord onion (integers only; text prefix
/// encodings are not invertible).
pub fn decrypt_ord(
    keys: &ColumnKeys,
    level: OrdLevel,
    value: &Value,
    iv: Option<&Value>,
) -> Result<Value, ProxyError> {
    if value.is_null() {
        return Ok(Value::Null);
    }
    let bytes = value
        .as_bytes()
        .ok_or_else(|| ProxyError::Crypto("Ord onion cell is not bytes".into()))?;
    let ope_bytes = match level {
        OrdLevel::Rnd => {
            let iv = iv
                .and_then(|v| v.as_bytes())
                .ok_or_else(|| ProxyError::Crypto("missing IV for RND decryption".into()))?;
            cbc_decrypt(&keys.rnd_ord, iv, bytes)
                .ok_or_else(|| ProxyError::Crypto("RND layer decryption failed".into()))?
        }
        OrdLevel::Ope => bytes.to_vec(),
    };
    let arr: [u8; 16] = ope_bytes[..]
        .try_into()
        .map_err(|_| ProxyError::Crypto("bad OPE length".into()))?;
    let m = keys
        .ope_decrypt(u128::from_be_bytes(arr))
        .map_err(|e| ProxyError::Crypto(e.to_string()))?;
    Ok(Value::Int(Ope::decode_i64(m)))
}

/// Server-visible types for the auxiliary functions the UDF module needs.
pub struct ServerCrypto {
    /// The Paillier public half — the server can multiply ciphertexts but
    /// never decrypt.
    pub paillier_public: PaillierPublic,
}

/// Checks a search token against a serialised word list (the UDF body).
pub fn search_matches(blob: &[u8], token: &SearchToken) -> bool {
    SearchCiphertext::from_bytes(blob)
        .map(|ct| cryptdb_search::matches_any(&ct, token))
        .unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cryptdb_crypto::rng::Drbg;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (ColumnKeys, JoinAdj, PaillierPrivate, Drbg) {
        let root = [3u8; 32];
        let keys = ColumnKeys::derive(&root, "emp", "salary", None);
        let ja = JoinAdj::new([9u8; 32]);
        let mut krng = StdRng::seed_from_u64(5);
        let paillier = PaillierPrivate::keygen(&mut krng, 256);
        (keys, ja, paillier, Drbg::from_seed(&[7u8; 32]))
    }

    fn enc(
        keys: &ColumnKeys,
        ja: &JoinAdj,
        p: &PaillierPrivate,
        rng: &mut Drbg,
        v: &Value,
        ty: ColumnType,
        levels: (EqLevel, OrdLevel),
    ) -> EncryptedCell {
        encrypt_cell(
            keys,
            ja,
            &keys.join,
            p,
            None,
            v,
            ty,
            &OnionSet::for_type(ty),
            levels,
            true,
            rng,
        )
        .unwrap()
    }

    #[test]
    fn int_roundtrip_all_onions() {
        let (keys, ja, p, mut rng) = setup();
        let v = Value::Int(-1234);
        let cell = enc(
            &keys,
            &ja,
            &p,
            &mut rng,
            &v,
            ColumnType::Int,
            (EqLevel::Rnd, OrdLevel::Rnd),
        );
        assert_eq!(
            decrypt_eq(
                &keys,
                EqLevel::Rnd,
                ColumnType::Int,
                cell.eq.as_ref().unwrap(),
                cell.iv.as_ref(),
                true
            )
            .unwrap(),
            v
        );
        assert_eq!(decrypt_add(&p, cell.add.as_ref().unwrap()).unwrap(), v);
        assert_eq!(
            decrypt_ord(
                &keys,
                OrdLevel::Rnd,
                cell.ord.as_ref().unwrap(),
                cell.iv.as_ref()
            )
            .unwrap(),
            v
        );
    }

    #[test]
    fn text_roundtrip() {
        let (keys, ja, p, mut rng) = setup();
        let v = Value::Str("private message body".into());
        let cell = enc(
            &keys,
            &ja,
            &p,
            &mut rng,
            &v,
            ColumnType::Text,
            (EqLevel::Det, OrdLevel::Rnd),
        );
        assert_eq!(
            decrypt_eq(
                &keys,
                EqLevel::Det,
                ColumnType::Text,
                cell.eq.as_ref().unwrap(),
                None,
                true
            )
            .unwrap(),
            v
        );
        // The search onion matches its words.
        let srch = cell.srch.as_ref().unwrap().as_bytes().unwrap().to_vec();
        let tok = parse_search_token(&search_token_bytes(&keys, "message")).unwrap();
        assert!(search_matches(&srch, &tok));
        let tok2 = parse_search_token(&search_token_bytes(&keys, "absent")).unwrap();
        assert!(!search_matches(&srch, &tok2));
    }

    #[test]
    fn rnd_is_probabilistic_det_is_deterministic() {
        let (keys, ja, p, mut rng) = setup();
        let v = Value::Int(42);
        let a = enc(
            &keys,
            &ja,
            &p,
            &mut rng,
            &v,
            ColumnType::Int,
            (EqLevel::Rnd, OrdLevel::Rnd),
        );
        let b = enc(
            &keys,
            &ja,
            &p,
            &mut rng,
            &v,
            ColumnType::Int,
            (EqLevel::Rnd, OrdLevel::Rnd),
        );
        assert_ne!(a.eq, b.eq, "RND must randomise equal plaintexts");
        let c = enc(
            &keys,
            &ja,
            &p,
            &mut rng,
            &v,
            ColumnType::Int,
            (EqLevel::Det, OrdLevel::Ope),
        );
        let d = enc(
            &keys,
            &ja,
            &p,
            &mut rng,
            &v,
            ColumnType::Int,
            (EqLevel::Det, OrdLevel::Ope),
        );
        assert_eq!(c.eq, d.eq, "DET must repeat for equal plaintexts");
        assert_eq!(
            c.eq,
            Some(encrypt_eq_constant(&keys, &ja, &keys.join, &v, ColumnType::Int, true).unwrap())
        );
    }

    #[test]
    fn ope_layer_preserves_order() {
        let (keys, ja, p, mut rng) = setup();
        let mut prev: Option<Vec<u8>> = None;
        for v in [-100i64, -1, 0, 7, 5000] {
            let cell = enc(
                &keys,
                &ja,
                &p,
                &mut rng,
                &Value::Int(v),
                ColumnType::Int,
                (EqLevel::Det, OrdLevel::Ope),
            );
            let bytes = cell.ord.unwrap().as_bytes().unwrap().to_vec();
            if let Some(p) = prev {
                assert!(bytes > p, "OPE bytes must increase with plaintext");
            }
            prev = Some(bytes);
        }
    }

    #[test]
    fn null_passthrough() {
        let (keys, ja, p, mut rng) = setup();
        let cell = enc(
            &keys,
            &ja,
            &p,
            &mut rng,
            &Value::Null,
            ColumnType::Int,
            (EqLevel::Rnd, OrdLevel::Rnd),
        );
        assert_eq!(cell.eq, Some(Value::Null));
        assert_eq!(
            decrypt_eq(
                &keys,
                EqLevel::Rnd,
                ColumnType::Int,
                &Value::Null,
                None,
                true
            )
            .unwrap(),
            Value::Null
        );
    }
}
