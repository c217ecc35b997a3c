//! Multi-principal CryptDB: key chaining to user passwords (§4).
//!
//! Each principal (an instance of a `PRINCTYPE`) owns a random symmetric
//! key plus an ECIES keypair. `SPEAKS FOR` rows wrap the object
//! principal's key under the speaker's key and store it in the
//! **server-side** `cryptdb_access_keys` table; external principals' keys
//! are wrapped under password-derived keys in `cryptdb_external_keys`;
//! each principal's public key and (sym-wrapped) secret scalar live in
//! `cryptdb_public_keys`. The DBMS thus stores the whole chain but can
//! decrypt none of it — exactly Figure 1's "Encrypted key table".
//!
//! The proxy holds only the keys reachable from currently logged-in
//! users; on logout they are dropped, so a full compromise leaks at most
//! active users' data (§2.2).

use crate::error::ProxyError;
use cryptdb_crypto::authenc;
use cryptdb_crypto::prf::{password_kdf, Key};
use cryptdb_ecgroup::{EciesKeypair, EciesPublic};
use cryptdb_engine::{Engine, Value};
use parking_lot::RwLock;
use rand::RngCore;
use std::collections::{HashMap, HashSet};

/// A principal: `(principal type, instance id)`, both as strings.
pub type Principal = (String, String);

/// Iterations for the password KDF (kept modest for test speed; the value
/// is a deployment knob, not a correctness parameter).
const KDF_ITERS: u32 = 1000;

fn hex(b: &[u8]) -> String {
    b.iter().map(|x| format!("{x:02x}")).collect()
}

fn sql_str(s: &str) -> String {
    format!("'{}'", s.replace('\'', "''"))
}

/// Multi-principal state held by the proxy.
///
/// Concurrency shape: the proxy keeps this behind an outer `RwLock`.
/// Everything that *mutates* durable state (type registration, login,
/// logout, edge creation) takes `&mut self` and therefore the outer
/// write lock; key *resolution* — the per-query hot path when
/// decrypting `ENC FOR` columns — takes only `&self`, so concurrent
/// read-mostly sessions resolve keys in parallel. The derived-key cache
/// it fills is interior (`RwLock`-wrapped) for exactly that reason.
/// `default()` is the empty state; the key tables it reads are
/// [`Self::create_key_tables`].
#[derive(Default)]
pub struct MultiPrincipal {
    /// Registered principal types: name → is-external.
    princ_types: HashMap<String, bool>,
    /// Keys currently reachable (the proxy's "active keys" in Fig. 1).
    /// Interior lock so chain resolution can cache under `&self`.
    active: RwLock<HashMap<Principal, Key>>,
    /// Logged-in external users: username → their principal key.
    logged_in: HashMap<String, Key>,
    /// Named SQL predicate templates for `IF pred(...)` annotations
    /// (e.g. HotCRP's NoConflict); `$1`, `$2`, ... are substituted.
    predicates: HashMap<String, String>,
}

impl MultiPrincipal {
    /// Creates the three server-side key tables `engine` lacks. They
    /// hold only wrapped (encrypted) key material, so they are ordinary
    /// server tables, as in the paper; a recovered engine already holds
    /// them, since they replay from the WAL like any other table.
    pub fn create_key_tables(engine: &Engine) -> Result<(), ProxyError> {
        let existing = engine.table_names();
        for (name, ddl) in [
            (
                "cryptdb_access_keys",
                "CREATE TABLE cryptdb_access_keys (to_type text, to_id text, \
                 from_type text, from_id text, method int, wrapped text)",
            ),
            (
                "cryptdb_public_keys",
                "CREATE TABLE cryptdb_public_keys (ptype text, id text, \
                 pubkey text, wrapped_secret text)",
            ),
            (
                "cryptdb_external_keys",
                "CREATE TABLE cryptdb_external_keys (username text, salt text, wrapped text)",
            ),
        ] {
            if !existing.iter().any(|t| t == name) {
                engine.execute_sql(ddl)?;
            }
        }
        Ok(())
    }

    /// Registers principal types from a `PRINCTYPE` statement.
    pub fn register_types(&mut self, names: &[String], external: bool) {
        for n in names {
            self.princ_types.insert(n.to_lowercase(), external);
        }
    }

    /// True if the type is registered.
    pub fn has_type(&self, name: &str) -> bool {
        self.princ_types.contains_key(&name.to_lowercase())
    }

    /// Registers a named SQL predicate for `IF name(args)` annotations.
    /// The template uses `$1`, `$2`, ... for the annotation arguments and
    /// must evaluate to a single truthy/falsy value.
    pub fn register_predicate(&mut self, name: &str, sql_template: &str) {
        self.predicates
            .insert(name.to_uppercase(), sql_template.to_string());
    }

    /// Fetches a registered predicate template.
    pub fn predicate(&self, name: &str) -> Option<&String> {
        self.predicates.get(&name.to_uppercase())
    }

    fn principal_row(engine: &Engine, p: &Principal) -> Option<(Vec<u8>, Vec<u8>)> {
        let r = engine
            .execute_sql(&format!(
                "SELECT pubkey, wrapped_secret FROM cryptdb_public_keys \
                 WHERE ptype = {} AND id = {}",
                sql_str(&p.0),
                sql_str(&p.1)
            ))
            .ok()?;
        let row = r.rows().first()?;
        Some((row[0].as_bytes()?.to_vec(), row[1].as_bytes()?.to_vec()))
    }

    /// True if the principal already exists (has a public-key row).
    pub fn principal_exists(&self, engine: &Engine, p: &Principal) -> bool {
        Self::principal_row(engine, p).is_some()
    }

    /// Creates a new principal: random symmetric key + ECIES keypair; the
    /// secret scalar is sealed under the symmetric key in
    /// `cryptdb_public_keys`. The fresh key is cached as active (its
    /// creator's session can use it immediately).
    pub fn create_principal<R: RngCore + ?Sized>(
        &mut self,
        engine: &Engine,
        p: &Principal,
        rng: &mut R,
    ) -> Result<Key, ProxyError> {
        let mut sym = [0u8; 32];
        rng.fill_bytes(&mut sym);
        let kp = EciesKeypair::generate(rng);
        let wrapped_secret = authenc::seal(&sym, &kp.secret.to_bytes(), rng);
        engine
            .execute_sql(&format!(
                "INSERT INTO cryptdb_public_keys (ptype, id, pubkey, wrapped_secret) \
                 VALUES ({}, {}, x'{}', x'{}')",
                sql_str(&p.0),
                sql_str(&p.1),
                hex(&kp.public.0),
                hex(&wrapped_secret)
            ))
            .map_err(ProxyError::Engine)?;
        self.active.write().insert(p.clone(), sym);
        Ok(sym)
    }

    /// Resolves a principal's key by following the access-key chain from
    /// the currently active keys (§4.2). Returns `None` when no chain
    /// from a logged-in user reaches it.
    ///
    /// `&self`: resolution only *caches* (into the interior `active`
    /// map), so concurrent sessions decrypting `ENC FOR` columns run it
    /// under the proxy's read lock without serialising each other.
    pub fn resolve_key(&self, engine: &Engine, p: &Principal) -> Option<Key> {
        let mut visiting = HashSet::new();
        self.resolve_inner(engine, p, &mut visiting)
    }

    fn resolve_inner(
        &self,
        engine: &Engine,
        p: &Principal,
        visiting: &mut HashSet<Principal>,
    ) -> Option<Key> {
        if let Some(k) = self.active.read().get(p) {
            return Some(*k);
        }
        if !visiting.insert(p.clone()) {
            return None; // Cycle guard.
        }
        let rows = engine
            .execute_sql(&format!(
                "SELECT from_type, from_id, method, wrapped FROM cryptdb_access_keys \
                 WHERE to_type = {} AND to_id = {}",
                sql_str(&p.0),
                sql_str(&p.1)
            ))
            .ok()?
            .rows()
            .to_vec();
        for row in rows {
            let from: Principal = (row[0].as_str()?.to_string(), row[1].as_str()?.to_string());
            let method = row[2].as_int()?;
            let wrapped = row[3].as_bytes()?.to_vec();
            let Some(from_key) = self.resolve_inner(engine, &from, visiting) else {
                continue;
            };
            let unwrapped = match method {
                0 => authenc::open(&from_key, &wrapped),
                1 => {
                    // Unwrap the speaker's ECIES secret, then the payload.
                    let (_pub, wrapped_secret) = Self::principal_row(engine, &from)?;
                    let secret = authenc::open(&from_key, &wrapped_secret)?;
                    let kp = EciesKeypair::from_secret_bytes(&secret.try_into().ok()?);
                    kp.decrypt(&wrapped)
                }
                _ => None,
            };
            if let Some(bytes) = unwrapped {
                let key: Key = bytes.try_into().ok()?;
                self.active.write().insert(p.clone(), key);
                return Some(key);
            }
        }
        None
    }

    /// Creates a SPEAKS-FOR edge: wraps `object`'s key under `speaker`'s
    /// key — symmetric when the speaker's key is reachable, public-key
    /// (ECIES) when the speaker is offline (§4.2).
    pub fn add_edge<R: RngCore + ?Sized>(
        &mut self,
        engine: &Engine,
        speaker: &Principal,
        object: &Principal,
        object_key: &Key,
        rng: &mut R,
    ) -> Result<(), ProxyError> {
        // Don't duplicate an existing edge.
        let existing = engine
            .execute_sql(&format!(
                "SELECT COUNT(*) FROM cryptdb_access_keys WHERE to_type = {} AND to_id = {} \
                 AND from_type = {} AND from_id = {}",
                sql_str(&object.0),
                sql_str(&object.1),
                sql_str(&speaker.0),
                sql_str(&speaker.1)
            ))
            .map_err(ProxyError::Engine)?;
        if existing.scalar().and_then(Value::as_int).unwrap_or(0) > 0 {
            return Ok(());
        }
        if !self.principal_exists(engine, speaker) {
            // A speaker referenced before ever acting: give it keys now.
            self.create_principal(engine, speaker, rng)?;
        }
        let (method, wrapped) = match self.resolve_key(engine, speaker) {
            Some(k) => (0i64, authenc::seal(&k, object_key, rng)),
            None => {
                let (pubkey, _) = Self::principal_row(engine, speaker).ok_or_else(|| {
                    ProxyError::KeyUnavailable(format!("no public key for {speaker:?}"))
                })?;
                let pk = EciesPublic(
                    pubkey
                        .try_into()
                        .map_err(|_| ProxyError::Crypto("malformed stored public key".into()))?,
                );
                (1i64, pk.encrypt(object_key, rng))
            }
        };
        engine
            .execute_sql(&format!(
                "INSERT INTO cryptdb_access_keys (to_type, to_id, from_type, from_id, method, wrapped) \
                 VALUES ({}, {}, {}, {}, {method}, x'{}')",
                sql_str(&object.0),
                sql_str(&object.1),
                sql_str(&speaker.0),
                sql_str(&speaker.1),
                hex(&wrapped)
            ))
            .map_err(ProxyError::Engine)?;
        Ok(())
    }

    /// Removes a SPEAKS-FOR edge (revocation, §4.2).
    pub fn remove_edge(
        &mut self,
        engine: &Engine,
        speaker: &Principal,
        object: &Principal,
    ) -> Result<(), ProxyError> {
        engine
            .execute_sql(&format!(
                "DELETE FROM cryptdb_access_keys WHERE to_type = {} AND to_id = {} \
                 AND from_type = {} AND from_id = {}",
                sql_str(&object.0),
                sql_str(&object.1),
                sql_str(&speaker.0),
                sql_str(&speaker.1)
            ))
            .map_err(ProxyError::Engine)?;
        Ok(())
    }

    /// Handles `INSERT INTO cryptdb_active (username, password)`: derives
    /// the user's key from the password (creating the external principal
    /// on first login) and registers it under every external PRINCTYPE.
    pub fn login<R: RngCore + ?Sized>(
        &mut self,
        engine: &Engine,
        username: &str,
        password: &str,
        rng: &mut R,
    ) -> Result<(), ProxyError> {
        let r = engine
            .execute_sql(&format!(
                "SELECT salt, wrapped FROM cryptdb_external_keys WHERE username = {}",
                sql_str(username)
            ))
            .map_err(ProxyError::Engine)?;
        let key: Key = if let Some(row) = r.rows().first() {
            let salt = row[0].as_bytes().unwrap_or(&[]).to_vec();
            let wrapped = row[1].as_bytes().unwrap_or(&[]).to_vec();
            let pk = password_kdf(password, &salt, KDF_ITERS);
            let bytes = authenc::open(&pk, &wrapped).ok_or_else(|| {
                ProxyError::KeyUnavailable(format!("wrong password for {username}"))
            })?;
            bytes
                .try_into()
                .map_err(|_| ProxyError::Crypto("malformed external key".into()))?
        } else {
            // First login: mint the external principal's key.
            let mut sym = [0u8; 32];
            rng.fill_bytes(&mut sym);
            let mut salt = [0u8; 16];
            rng.fill_bytes(&mut salt);
            let pk = password_kdf(password, &salt, KDF_ITERS);
            let wrapped = authenc::seal(&pk, &sym, rng);
            engine
                .execute_sql(&format!(
                    "INSERT INTO cryptdb_external_keys (username, salt, wrapped) \
                     VALUES ({}, x'{}', x'{}')",
                    sql_str(username),
                    hex(&salt),
                    hex(&wrapped)
                ))
                .map_err(ProxyError::Engine)?;
            sym
        };
        self.logged_in.insert(username.to_string(), key);
        for (ptype, external) in self.princ_types.clone() {
            if external {
                let p = (ptype.clone(), username.to_string());
                self.active.write().insert(p.clone(), key);
                // Make sure the external principal can also receive
                // public-key wrapped material while offline.
                if !self.principal_exists(engine, &p) {
                    // Store an ECIES keypair whose secret is sealed under
                    // the password-derived symmetric key.
                    let kp = EciesKeypair::generate(rng);
                    let wrapped_secret = authenc::seal(&key, &kp.secret.to_bytes(), rng);
                    engine
                        .execute_sql(&format!(
                            "INSERT INTO cryptdb_public_keys (ptype, id, pubkey, wrapped_secret) \
                             VALUES ({}, {}, x'{}', x'{}')",
                            sql_str(&ptype),
                            sql_str(username),
                            hex(&kp.public.0),
                            hex(&wrapped_secret)
                        ))
                        .map_err(ProxyError::Engine)?;
                }
            }
        }
        Ok(())
    }

    /// Handles `DELETE FROM cryptdb_active WHERE username = ...`: forgets
    /// the user's password-derived key and every key only reachable
    /// through it (§4: "the proxy forgets the user's password as well as
    /// any keys derived from the user's password").
    pub fn logout(&mut self, username: &str) {
        self.logged_in.remove(username);
        // Drop the whole derived-key cache and re-seed from the users who
        // remain logged in; chains re-resolve on demand.
        let active = self.active.get_mut();
        active.clear();
        for (ptype, external) in &self.princ_types {
            if *external {
                for (user, key) in &self.logged_in {
                    active.insert((ptype.clone(), user.clone()), *key);
                }
            }
        }
    }
}
