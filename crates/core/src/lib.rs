//! The CryptDB proxy: encrypted SQL query processing.
//!
//! This crate is the paper's primary contribution (§3–§4): a database
//! proxy that intercepts SQL, rewrites it to run over encrypted data on an
//! unmodified DBMS ([`cryptdb_engine`]), and decrypts results.
//!
//! * [`onion`] — onion/layer model (Fig. 2): Eq = RND∘JOIN(=JOIN-ADJ‖DET),
//!   Ord = RND∘OPE, Add = HOM, Search = SEARCH, plus the per-row IV.
//! * [`colcrypt`] — per-column encryption/decryption across all onions.
//! * [`schema`] — the proxy's secret state: anonymised names, current
//!   onion levels, join transitivity groups, staleness, policy floors.
//! * [`udfs`] — the server-side UDFs (`DECRYPT_RND`, `JOINTAG`,
//!   `JOIN_ADJ`, `HOM_SUM`, `HOM_ADD`, `SEARCH_MATCH`) registered into the
//!   engine at setup, mirroring the paper's MySQL UDFs.
//! * [`proxy`] — the rewriter/executor: adjustable query-based encryption
//!   (§3.2), query transformation (§3.3), adjustable joins (§3.4), the
//!   §3.5 optimisations (min-layer floors, in-proxy processing, training
//!   mode, ciphertext pre-computation/caching).
//! * [`multiprincipal`] — schema annotations, principals, key chaining to
//!   user passwords, `cryptdb_active` interception (§4).
//! * [`training`] — training mode + the Fig. 9 MinEnc security report.
//! * [`memo`] — the sharded, bounded memo behind the §3.5.2 constant cache.
//! * [`meta`] — the secret-schema codec the ciphertext WAL carries.
//! * [`error`] — [`ProxyError`].

#![forbid(unsafe_code)]

pub mod colcrypt;
pub mod error;
pub mod memo;
pub mod meta;
pub mod multiprincipal;
pub mod onion;
// The rustdoc CI gate (`RUSTDOCFLAGS="-D warnings" cargo doc`) keeps the
// proxy's public API fully documented; see also ARCHITECTURE.md.
#[warn(missing_docs)]
pub mod proxy;
pub mod schema;
pub mod training;
pub mod udfs;

pub use error::ProxyError;
pub use onion::{EqLevel, OrdLevel, SecLevel};
pub use proxy::{EncryptionPolicy, Proxy};
pub use training::TrainingReport;
