//! Mixed multi-application serving workload for the concurrent serving
//! tests: tpcc + phpbb + hotcrp traces interleaved per client session.
//!
//! The paper evaluates CryptDB under *live* multi-user workloads (TPC-C
//! throughput in Fig. 10, phpBB request latency in Fig. 15); this module
//! packages those app scenarios as deterministic per-session traces a
//! serving layer can replay from N threads at once.
//!
//! Two properties the traces guarantee by construction:
//!
//! * **Determinism** — `session_trace(seed, i, …)` always returns the
//!   same statements, so the exact trace set a concurrent run executed
//!   can be replayed serially as a correctness oracle.
//! * **Commutativity across sessions** — the final database state is
//!   independent of how sessions interleave: write ids are partitioned
//!   per session ([`SESSION_ID_STRIDE`]), increments (`x = x + k`)
//!   commute, constant-SET updates write identical constants, deletes
//!   are idempotent, and inserts only ever add rows (multiset union is
//!   order-free). A concurrent run and a serial oracle replay of the
//!   same traces therefore produce byte-identical canonical dumps.

use crate::{hotcrp, phpbb, tpcc};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Scale of the pre-loaded mixed database.
#[derive(Clone, Copy, Debug)]
pub struct MixedScale {
    pub tpcc: tpcc::TpccScale,
    pub phpbb: phpbb::PhpbbScale,
}

impl Default for MixedScale {
    fn default() -> Self {
        MixedScale {
            // Smaller than the per-app defaults: the serving harness
            // loads this once per concurrency level.
            tpcc: tpcc::TpccScale {
                warehouses: 1,
                districts_per_wh: 2,
                customers_per_district: 10,
                items: 20,
                orders_per_district: 10,
            },
            phpbb: phpbb::PhpbbScale {
                users: 8,
                forums: 4,
                posts: 30,
                messages: 30,
            },
        }
    }
}

/// Id stride separating each session's write keys: session `i` allocates
/// post/message/history ids in `[BASE + i·STRIDE, BASE + (i+1)·STRIDE)`,
/// so concurrent sessions never insert the same primary id.
pub const SESSION_ID_STRIDE: i64 = 100_000;
const SESSION_ID_BASE: i64 = 1_000_000;

/// The columns the mixed workload encrypts, by table: phpBB's sensitive
/// fields (Fig. 14) plus the TPC-C and HotCRP columns that route its
/// queries through DET, OPE, HOM sum and increment, and AVG — every
/// onion class without encrypting every column.
pub fn encrypted_columns() -> HashMap<String, Vec<String>> {
    let mut map: HashMap<String, Vec<String>> = phpbb::sensitive_fields()
        .into_iter()
        .map(|(t, cols)| {
            (
                t.to_string(),
                cols.into_iter().map(str::to_string).collect(),
            )
        })
        .collect();
    map.insert("order_line".into(), vec!["ol_amount".into()]);
    map.insert("stock".into(), vec!["s_ytd".into(), "s_quantity".into()]);
    map.insert("customer".into(), vec!["c_balance".into(), "c_last".into()]);
    map.insert("history".into(), vec!["h_amount".into()]);
    map.insert("paperreview".into(), vec!["overallmerit".into()]);
    map
}

/// DDL + data load for all three applications (one shared database; the
/// table-name sets are disjoint). Deterministic in `seed`.
pub fn setup_statements(seed: u64, scale: &MixedScale) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::new();
    out.extend(tpcc::schema());
    out.extend(tpcc::indexes());
    out.extend(tpcc::load_statements(&mut rng, &scale.tpcc));
    out.extend(phpbb::schema());
    out.extend(phpbb::load_statements(&mut rng, &scale.phpbb));
    out.extend(hotcrp::schema());
    // Seed hotcrp rows (its session queries are read-only; see below).
    out.extend(
        hotcrp::analysis_workload()
            .into_iter()
            .filter(|q| q.trim_start().to_uppercase().starts_with("INSERT")),
    );
    out
}

/// Training pass: touches every query class of every app once so all
/// onion adjustments happen before the measured/concurrent phase (§8.4.1
/// "we trained CryptDB on the query set so there are no onion
/// adjustments during the experiments"). Deterministic; runs serially in
/// both the concurrent harness and the oracle replay.
pub fn training_statements(scale: &MixedScale) -> Vec<String> {
    let mut out = tpcc::training_queries(&scale.tpcc);
    let mut rng = StdRng::seed_from_u64(40);
    let mut next_id = SESSION_ID_BASE - SESSION_ID_STRIDE; // Reserved training range.
    for req in phpbb::Request::ALL {
        out.extend(phpbb::request_statements(
            &mut rng,
            req,
            &scale.phpbb,
            &mut next_id,
        ));
    }
    out.extend(
        hotcrp::analysis_workload()
            .into_iter()
            .filter(|q| !q.trim_start().to_uppercase().starts_with("INSERT")),
    );
    out
}

/// One client session's deterministic statement trace: `steps` driver
/// steps, each expanding to one tpcc query, one phpbb HTTP request
/// (several statements), or one hotcrp read. Sessions with different
/// `session` indexes write disjoint id ranges (see module docs).
pub fn session_trace(seed: u64, session: usize, steps: usize, scale: &MixedScale) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(seed ^ (0x9e37_79b9 * (session as u64 + 1)));
    let mut next_id = SESSION_ID_BASE + session as i64 * SESSION_ID_STRIDE;
    let hotcrp_reads: Vec<String> = hotcrp::analysis_workload()
        .into_iter()
        .filter(|q| !q.trim_start().to_uppercase().starts_with("INSERT"))
        .collect();
    let mut out = Vec::new();
    for _ in 0..steps {
        match rng.gen_range(0..10) {
            // TPC-C: the Fig. 10 mixed transaction blend.
            0..=4 => out.push(tpcc::gen_mixed(&mut rng, &scale.tpcc)),
            // phpBB: one HTTP request's statement burst (Fig. 15).
            5..=8 => {
                let req = phpbb::Request::ALL[rng.gen_range(0..phpbb::Request::ALL.len())];
                out.extend(phpbb::request_statements(
                    &mut rng,
                    req,
                    &scale.phpbb,
                    &mut next_id,
                ));
            }
            // HotCRP: conference-review reads (joins, ranges, AVG).
            _ => out.push(hotcrp_reads[rng.gen_range(0..hotcrp_reads.len())].clone()),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traces_are_deterministic() {
        let scale = MixedScale::default();
        let a = session_trace(7, 3, 20, &scale);
        let b = session_trace(7, 3, 20, &scale);
        assert_eq!(a, b);
        assert!(a.len() >= 20);
    }

    #[test]
    fn sessions_differ_and_partition_write_ids() {
        let scale = MixedScale::default();
        let a = session_trace(7, 0, 40, &scale);
        let b = session_trace(7, 1, 40, &scale);
        assert_ne!(a, b, "sessions must not replay the same trace");
        // Any phpBB insert id in session 0 falls inside its stride.
        for q in &a {
            if let Some(rest) = q.strip_prefix("INSERT INTO posts ") {
                let id: i64 = rest
                    .split("VALUES (")
                    .nth(1)
                    .and_then(|v| v.split(',').next())
                    .and_then(|v| v.trim().parse().ok())
                    .expect("post id parses");
                assert!(
                    (SESSION_ID_BASE..SESSION_ID_BASE + SESSION_ID_STRIDE).contains(&id),
                    "session 0 wrote id {id} outside its partition"
                );
            }
        }
    }

    #[test]
    fn setup_covers_all_three_apps() {
        let scale = MixedScale::default();
        let setup = setup_statements(1, &scale);
        for table in ["warehouse", "posts", "PaperReview"] {
            assert!(
                setup.iter().any(|q| q.contains(table)),
                "setup misses {table}"
            );
        }
        assert!(!training_statements(&scale).is_empty());
    }
}
