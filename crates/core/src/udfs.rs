//! Server-side UDFs.
//!
//! These are the engine-registered counterparts of the paper's MySQL UDFs
//! (§3, §7): everything here runs on the *DBMS server* and sees only
//! ciphertexts plus whatever key material the proxy ships inside a query
//! (onion-layer keys during adjustments, ΔK during join re-keying, search
//! tokens). None of it can decrypt to plaintext except `DECRYPT_RND`,
//! which by design peels exactly one onion layer with the key the proxy
//! chose to reveal.

use crate::colcrypt::{parse_search_token, search_matches, JTAG_LEN};
use cryptdb_crypto::aes::Aes;
use cryptdb_crypto::modes::cbc_decrypt;
use cryptdb_ecgroup::{JoinAdj, Scalar};
use cryptdb_engine::{AggregateUdf, Engine, EngineError, Value};
use cryptdb_paillier::PaillierPublic;
use std::sync::Arc;

fn bytes_arg(args: &[Value], i: usize, what: &str) -> Result<Vec<u8>, EngineError> {
    match args.get(i) {
        Some(Value::Bytes(b)) => Ok(b.clone()),
        Some(Value::Null) => Err(EngineError::Udf(format!("{what}: NULL"))),
        other => Err(EngineError::Udf(format!(
            "{what}: expected bytes, got {other:?}"
        ))),
    }
}

/// Registers all CryptDB UDFs into an engine. The server receives only the
/// Paillier *public* parameters.
pub fn register_udfs(engine: &Engine, paillier_public: PaillierPublic) {
    // DECRYPT_RND(key32, ciphertext, iv) -> inner bytes.
    // The onion-adjustment UDF (§3.2): strips the RND layer using the
    // layer key the proxy just revealed.
    engine.register_scalar_udf("DECRYPT_RND", |args| {
        if matches!(args.get(1), Some(Value::Null)) {
            return Ok(Value::Null);
        }
        let key = bytes_arg(args, 0, "DECRYPT_RND key")?;
        let ct = bytes_arg(args, 1, "DECRYPT_RND ciphertext")?;
        let iv = bytes_arg(args, 2, "DECRYPT_RND iv")?;
        if key.len() < 16 {
            return Err(EngineError::Udf("DECRYPT_RND: short key".into()));
        }
        let mut k = [0u8; 16];
        k.copy_from_slice(&key[..16]);
        let aes = Aes::new_128(&k);
        cbc_decrypt(&aes, &iv, &ct)
            .map(Value::Bytes)
            .ok_or_else(|| EngineError::Udf("DECRYPT_RND: bad ciphertext".into()))
    });

    // JOINTAG(eq_blob) -> 32-byte JOIN-ADJ tag (for equi-join comparison).
    engine.register_scalar_udf("JOINTAG", |args| {
        if matches!(args.first(), Some(Value::Null)) {
            return Ok(Value::Null);
        }
        let blob = bytes_arg(args, 0, "JOINTAG blob")?;
        if blob.len() < JTAG_LEN {
            return Err(EngineError::Udf("JOINTAG: blob too short".into()));
        }
        Ok(Value::Bytes(blob[..JTAG_LEN].to_vec()))
    });

    // JOIN_ADJ(eq_blob, delta32) -> re-keyed blob (§3.4): raises the
    // JOIN-ADJ tag to ΔK, leaving the DET part untouched.
    engine.register_scalar_udf("JOIN_ADJ", |args| {
        if matches!(args.first(), Some(Value::Null)) {
            return Ok(Value::Null);
        }
        let blob = bytes_arg(args, 0, "JOIN_ADJ blob")?;
        let delta = bytes_arg(args, 1, "JOIN_ADJ delta")?;
        if blob.len() < JTAG_LEN || delta.len() != 32 {
            return Err(EngineError::Udf("JOIN_ADJ: malformed input".into()));
        }
        let tag: [u8; JTAG_LEN] = blob[..JTAG_LEN].try_into().expect("length checked");
        let scalar = Scalar::from_bytes_mod_order(&delta.try_into().expect("length checked"));
        let new_tag = JoinAdj::adjust(&tag, &scalar)
            .ok_or_else(|| EngineError::Udf("JOIN_ADJ: degenerate tag".into()))?;
        let mut out = new_tag.to_vec();
        out.extend_from_slice(&blob[JTAG_LEN..]);
        Ok(Value::Bytes(out))
    });

    // SEARCH_MATCH(srch_blob, token48) -> 0/1 (§3.1 SEARCH): the server
    // learns only whether this token matched this word list.
    engine.register_scalar_udf("SEARCH_MATCH", |args| {
        if matches!(args.first(), Some(Value::Null)) {
            return Ok(Value::Int(0));
        }
        let blob = bytes_arg(args, 0, "SEARCH_MATCH blob")?;
        let token_bytes = bytes_arg(args, 1, "SEARCH_MATCH token")?;
        let token = parse_search_token(&token_bytes)
            .ok_or_else(|| EngineError::Udf("SEARCH_MATCH: bad token".into()))?;
        Ok(Value::Int(search_matches(&blob, &token) as i64))
    });

    // HOM_ADD(c1, c2) -> Paillier product = encryption of the sum (§3.1).
    // SQL arithmetic: NULL + x is NULL.
    let pp = paillier_public.clone();
    engine.register_scalar_udf("HOM_ADD", move |args| {
        if args.iter().take(2).any(Value::is_null) {
            return Ok(Value::Null);
        }
        let a = pp.ciphertext_from_bytes(&bytes_arg(args, 0, "HOM_ADD a")?);
        let b = pp.ciphertext_from_bytes(&bytes_arg(args, 1, "HOM_ADD b")?);
        Ok(Value::Bytes(pp.ciphertext_to_bytes(&pp.add(&a, &b))))
    });

    // HOM_SUM(col): the aggregate the proxy substitutes for SUM (§3.3).
    // Like SQL's SUM it is NULL until a non-NULL cell arrives; the first
    // such cell becomes the accumulator.
    let pp = paillier_public.clone();
    engine.register_aggregate_udf(
        "HOM_SUM",
        AggregateUdf {
            init: Value::Null,
            step: Arc::new(move |acc, v| {
                let Some(vb) = v.as_bytes() else {
                    return Ok(acc); // NULLs are skipped by the engine, but be safe.
                };
                let Value::Bytes(acc_bytes) = &acc else {
                    return Ok(v.clone());
                };
                let a = pp.ciphertext_from_bytes(acc_bytes);
                let b = pp.ciphertext_from_bytes(vb);
                Ok(Value::Bytes(pp.ciphertext_to_bytes(&pp.add(&a, &b))))
            }),
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use cryptdb_paillier::PaillierPrivate;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn hom_sum_via_engine() {
        let mut rng = StdRng::seed_from_u64(1);
        let sk = PaillierPrivate::keygen(&mut rng, 256);
        let engine = Engine::new();
        register_udfs(&engine, sk.public().clone());
        engine.execute_sql("CREATE TABLE t (v text)").unwrap();
        for x in [10i64, 20, 12] {
            let ct = sk.encrypt_i64(x, &mut rng);
            let hex: String = sk
                .public()
                .ciphertext_to_bytes(&ct)
                .iter()
                .map(|b| format!("{b:02x}"))
                .collect();
            engine
                .execute_sql(&format!("INSERT INTO t (v) VALUES (x'{hex}')"))
                .unwrap();
        }
        let r = engine.execute_sql("SELECT HOM_SUM(v) FROM t").unwrap();
        let Some(Value::Bytes(sum_bytes)) = r.scalar().cloned() else {
            panic!()
        };
        let sum = sk.decrypt_i64(&sk.public().ciphertext_from_bytes(&sum_bytes));
        assert_eq!(sum, Some(42));
    }

    #[test]
    fn jointag_and_adjust() {
        let engine = Engine::new();
        let mut rng = StdRng::seed_from_u64(2);
        let sk = PaillierPrivate::keygen(&mut rng, 256);
        register_udfs(&engine, sk.public().clone());
        let ja = JoinAdj::new([4u8; 32]);
        let k1 = cryptdb_ecgroup::JoinKey::from_bytes(&[1u8; 32]);
        let k2 = cryptdb_ecgroup::JoinKey::from_bytes(&[2u8; 32]);
        let mut blob = ja.tag(&k2, b"alice").to_vec();
        blob.extend_from_slice(b"detpart!");
        engine.execute_sql("CREATE TABLE t (c text)").unwrap();
        let hex: String = blob.iter().map(|b| format!("{b:02x}")).collect();
        engine
            .execute_sql(&format!("INSERT INTO t (c) VALUES (x'{hex}')"))
            .unwrap();
        let delta = JoinAdj::delta(&k2, &k1);
        let dhex: String = delta
            .to_bytes()
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        engine
            .execute_sql(&format!("UPDATE t SET c = JOIN_ADJ(c, x'{dhex}')"))
            .unwrap();
        let r = engine.execute_sql("SELECT JOINTAG(c) FROM t").unwrap();
        assert_eq!(
            r.scalar(),
            Some(&Value::Bytes(ja.tag(&k1, b"alice").to_vec()))
        );
        // The DET part is untouched.
        let r = engine.execute_sql("SELECT c FROM t").unwrap();
        let Some(Value::Bytes(b)) = r.scalar() else {
            panic!()
        };
        assert_eq!(&b[32..], b"detpart!");
    }
}
