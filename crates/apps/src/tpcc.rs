//! TPC-C subset: the standard 9-table, 92-column schema and the eight
//! query types measured in Fig. 11/12, plus the mixed workload of Fig. 10.
//!
//! §8: "In the case of TPC-C, we encrypt all the columns in the database
//! in single-principal mode" — 92 fields (Fig. 8, last row).

use rand::Rng;

/// Scale parameters (kept small enough for in-memory benchmarking; the
/// shape of the results, not the absolute row counts, is what matters).
#[derive(Clone, Copy, Debug)]
pub struct TpccScale {
    pub warehouses: i64,
    pub districts_per_wh: i64,
    pub customers_per_district: i64,
    pub items: i64,
    pub orders_per_district: i64,
}

impl Default for TpccScale {
    fn default() -> Self {
        TpccScale {
            warehouses: 2,
            districts_per_wh: 4,
            customers_per_district: 30,
            items: 100,
            orders_per_district: 30,
        }
    }
}

/// The full TPC-C DDL (decimals as integer cents, dates as YYYYMMDD ints).
pub fn schema() -> Vec<String> {
    vec![
        "CREATE TABLE warehouse (w_id int, w_name varchar(10), w_street_1 varchar(20), \
         w_street_2 varchar(20), w_city varchar(20), w_state char(2), w_zip char(9), \
         w_tax int, w_ytd int)"
            .into(),
        "CREATE TABLE district (d_id int, d_w_id int, d_name varchar(10), \
         d_street_1 varchar(20), d_street_2 varchar(20), d_city varchar(20), \
         d_state char(2), d_zip char(9), d_tax int, d_ytd int, d_next_o_id int)"
            .into(),
        "CREATE TABLE customer (c_id int, c_d_id int, c_w_id int, c_first varchar(16), \
         c_middle char(2), c_last varchar(16), c_street_1 varchar(20), c_street_2 varchar(20), \
         c_city varchar(20), c_state char(2), c_zip char(9), c_phone char(16), c_since int, \
         c_credit char(2), c_credit_lim int, c_discount int, c_balance int, \
         c_ytd_payment int, c_payment_cnt int, c_delivery_cnt int, c_data varchar(500))"
            .into(),
        "CREATE TABLE history (h_c_id int, h_c_d_id int, h_c_w_id int, h_d_id int, \
         h_w_id int, h_date int, h_amount int, h_data varchar(24))"
            .into(),
        "CREATE TABLE new_order (no_o_id int, no_d_id int, no_w_id int)".into(),
        "CREATE TABLE orders (o_id int, o_d_id int, o_w_id int, o_c_id int, o_entry_d int, \
         o_carrier_id int, o_ol_cnt int, o_all_local int)"
            .into(),
        "CREATE TABLE order_line (ol_o_id int, ol_d_id int, ol_w_id int, ol_number int, \
         ol_i_id int, ol_supply_w_id int, ol_delivery_d int, ol_quantity int, ol_amount int, \
         ol_dist_info char(24))"
            .into(),
        "CREATE TABLE item (i_id int, i_im_id int, i_name varchar(24), i_price int, \
         i_data varchar(50))"
            .into(),
        "CREATE TABLE stock (s_i_id int, s_w_id int, s_quantity int, s_dist_01 char(24), \
         s_dist_02 char(24), s_dist_03 char(24), s_dist_04 char(24), s_dist_05 char(24), \
         s_dist_06 char(24), s_dist_07 char(24), s_dist_08 char(24), s_dist_09 char(24), \
         s_dist_10 char(24), s_ytd int, s_order_cnt int, s_remote_cnt int, s_data varchar(50))"
            .into(),
    ]
}

/// Indexes the workloads rely on (the proxy maps these onto DET/OPE
/// onion columns, so the engine's B-trees still serve the lookups).
pub fn indexes() -> Vec<String> {
    vec![
        "CREATE INDEX ON customer (c_id)".into(),
        "CREATE INDEX ON district (d_id)".into(),
        "CREATE INDEX ON orders (o_id)".into(),
        "CREATE INDEX ON orders (o_c_id)".into(),
        "CREATE INDEX ON order_line (ol_o_id)".into(),
        "CREATE INDEX ON new_order (no_o_id)".into(),
        "CREATE INDEX ON item (i_id)".into(),
        "CREATE INDEX ON stock (s_i_id)".into(),
        "CREATE INDEX ON stock (s_quantity)".into(),
    ]
}

/// Number of columns in the schema (the paper's 92).
pub const COLUMNS: usize = 92;

/// Generates all data-loading statements for the given scale.
pub fn load_statements<R: Rng>(rng: &mut R, scale: &TpccScale) -> Vec<String> {
    let mut out = Vec::new();
    let names = [
        "BAR", "OUGHT", "ABLE", "PRI", "PRES", "ESE", "ANTI", "CALLY", "ATION", "EING",
    ];
    for w in 1..=scale.warehouses {
        out.push(format!(
            "INSERT INTO warehouse (w_id, w_name, w_street_1, w_street_2, w_city, w_state, \
             w_zip, w_tax, w_ytd) VALUES ({w}, 'wh{w}', 'street{w}', 's2', 'city{w}', 'MA', \
             '0213{w}', {}, 30000000)",
            rng.gen_range(0..20)
        ));
        for d in 1..=scale.districts_per_wh {
            out.push(format!(
                "INSERT INTO district (d_id, d_w_id, d_name, d_street_1, d_street_2, d_city, \
                 d_state, d_zip, d_tax, d_ytd, d_next_o_id) VALUES ({d}, {w}, 'dist{d}', 'st', \
                 'st2', 'city', 'MA', '02139', {}, 3000000, {})",
                rng.gen_range(0..20),
                scale.orders_per_district + 1
            ));
            for c in 1..=scale.customers_per_district {
                let last = names[(c % 10) as usize];
                out.push(format!(
                    "INSERT INTO customer (c_id, c_d_id, c_w_id, c_first, c_middle, c_last, \
                     c_street_1, c_street_2, c_city, c_state, c_zip, c_phone, c_since, c_credit, \
                     c_credit_lim, c_discount, c_balance, c_ytd_payment, c_payment_cnt, \
                     c_delivery_cnt, c_data) VALUES ({c}, {d}, {w}, 'first{c}', 'OE', '{last}', \
                     'street', 'street2', 'city', 'MA', '02139', '555-0100', 20090101, 'GC', \
                     5000000, {}, -1000, 1000, 1, 0, 'customer data blob')",
                    rng.gen_range(0..50)
                ));
            }
            for o in 1..=scale.orders_per_district {
                let c = rng.gen_range(1..=scale.customers_per_district);
                out.push(format!(
                    "INSERT INTO orders (o_id, o_d_id, o_w_id, o_c_id, o_entry_d, o_carrier_id, \
                     o_ol_cnt, o_all_local) VALUES ({o}, {d}, {w}, {c}, 20110901, NULL, 5, 1)"
                ));
                out.push(format!(
                    "INSERT INTO new_order (no_o_id, no_d_id, no_w_id) VALUES ({o}, {d}, {w})"
                ));
                for ol in 1..=5 {
                    let i = rng.gen_range(1..=scale.items);
                    out.push(format!(
                        "INSERT INTO order_line (ol_o_id, ol_d_id, ol_w_id, ol_number, ol_i_id, \
                         ol_supply_w_id, ol_delivery_d, ol_quantity, ol_amount, ol_dist_info) \
                         VALUES ({o}, {d}, {w}, {ol}, {i}, {w}, NULL, 5, {}, 'dist-info-pad-24')",
                        rng.gen_range(1..999999)
                    ));
                }
            }
        }
        for i in 1..=scale.items {
            if w == 1 {
                out.push(format!(
                    "INSERT INTO item (i_id, i_im_id, i_name, i_price, i_data) VALUES \
                     ({i}, {}, 'item{i}', {}, 'item data blob')",
                    rng.gen_range(1..10000),
                    rng.gen_range(100..10000)
                ));
            }
            out.push(format!(
                "INSERT INTO stock (s_i_id, s_w_id, s_quantity, s_dist_01, s_dist_02, s_dist_03, \
                 s_dist_04, s_dist_05, s_dist_06, s_dist_07, s_dist_08, s_dist_09, s_dist_10, \
                 s_ytd, s_order_cnt, s_remote_cnt, s_data) VALUES ({i}, {w}, {}, 'd1', 'd2', \
                 'd3', 'd4', 'd5', 'd6', 'd7', 'd8', 'd9', 'd10', 0, 0, 0, 'stock data blob')",
                rng.gen_range(10..100)
            ));
        }
    }
    out
}

/// The eight query types of Fig. 11/12.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum QueryKind {
    /// `Select by =` — point select via DET.
    SelectEq,
    /// `Select join` — equi-join via JOIN.
    SelectJoin,
    /// `Select range` — inequality via OPE.
    SelectRange,
    /// `Select sum` — aggregate via HOM.
    SelectSum,
    Delete,
    Insert,
    /// `Upd. set` — UPDATE to constants.
    UpdateSet,
    /// `Upd. inc` — UPDATE incrementing a column (HOM).
    UpdateInc,
}

impl QueryKind {
    /// All kinds in Fig. 11's presentation order.
    pub const ALL: [QueryKind; 8] = [
        QueryKind::SelectEq,
        QueryKind::SelectJoin,
        QueryKind::SelectRange,
        QueryKind::SelectSum,
        QueryKind::Delete,
        QueryKind::Insert,
        QueryKind::UpdateSet,
        QueryKind::UpdateInc,
    ];
}

/// Generates one query of the given kind.
pub fn gen_query<R: Rng>(rng: &mut R, kind: QueryKind, scale: &TpccScale) -> String {
    let w = rng.gen_range(1..=scale.warehouses);
    let d = rng.gen_range(1..=scale.districts_per_wh);
    let c = rng.gen_range(1..=scale.customers_per_district);
    let o = rng.gen_range(1..=scale.orders_per_district);
    let i = rng.gen_range(1..=scale.items);
    match kind {
        QueryKind::SelectEq => format!(
            "SELECT c_first, c_last, c_balance FROM customer \
             WHERE c_id = {c} AND c_d_id = {d} AND c_w_id = {w}"
        ),
        QueryKind::SelectJoin => format!(
            "SELECT orders.o_id, customer.c_last FROM orders \
             JOIN customer ON orders.o_c_id = customer.c_id \
             WHERE orders.o_id = {o} AND orders.o_d_id = {d} AND orders.o_w_id = {w}"
        ),
        QueryKind::SelectRange => format!(
            "SELECT s_i_id FROM stock WHERE s_quantity < {} AND s_w_id = {w}",
            rng.gen_range(15..25)
        ),
        QueryKind::SelectSum => format!(
            "SELECT SUM(ol_amount) FROM order_line \
             WHERE ol_o_id = {o} AND ol_d_id = {d} AND ol_w_id = {w}"
        ),
        QueryKind::Delete => {
            format!("DELETE FROM new_order WHERE no_o_id = {o} AND no_d_id = {d} AND no_w_id = {w}")
        }
        QueryKind::Insert => format!(
            "INSERT INTO history (h_c_id, h_c_d_id, h_c_w_id, h_d_id, h_w_id, h_date, \
             h_amount, h_data) VALUES ({c}, {d}, {w}, {d}, {w}, 20110902, {}, 'payment memo')",
            rng.gen_range(100..500000)
        ),
        QueryKind::UpdateSet => format!(
            "UPDATE customer SET c_credit = 'BC', c_data = 'updated data blob' \
             WHERE c_id = {c} AND c_d_id = {d} AND c_w_id = {w}"
        ),
        QueryKind::UpdateInc => format!(
            "UPDATE stock SET s_ytd = s_ytd + {} WHERE s_i_id = {i} AND s_w_id = {w}",
            rng.gen_range(1..10)
        ),
    }
}

/// One step of the mixed workload (Fig. 10): weighted like the TPC-C
/// transaction mix (reads dominate, with inserts/updates/deletes).
pub fn gen_mixed<R: Rng>(rng: &mut R, scale: &TpccScale) -> String {
    let kind = match rng.gen_range(0..100) {
        0..=29 => QueryKind::SelectEq,
        30..=44 => QueryKind::SelectJoin,
        45..=54 => QueryKind::SelectRange,
        55..=64 => QueryKind::SelectSum,
        65..=69 => QueryKind::Delete,
        70..=84 => QueryKind::Insert,
        85..=94 => QueryKind::UpdateSet,
        _ => QueryKind::UpdateInc,
    };
    gen_query(rng, kind, scale)
}

/// A training set that touches every query class once (used to pre-adjust
/// onions, as §8.4.1 does: "We trained CryptDB on the query set (§3.5.2)
/// so there are no onion adjustments during the TPC-C experiments").
pub fn training_queries(scale: &TpccScale) -> Vec<String> {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    QueryKind::ALL
        .iter()
        .map(|k| gen_query(&mut rng, *k, scale))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn schema_has_92_columns() {
        let total: usize = schema()
            .iter()
            .map(|ddl| {
                ddl.matches(" int").count()
                    + ddl.matches(" varchar").count()
                    + ddl.matches(" char").count()
            })
            .sum();
        assert_eq!(total, COLUMNS);
    }

    #[test]
    fn queries_generate_for_all_kinds() {
        let mut rng = StdRng::seed_from_u64(1);
        let scale = TpccScale::default();
        for kind in QueryKind::ALL {
            let q = gen_query(&mut rng, kind, &scale);
            assert!(!q.is_empty());
        }
    }

    #[test]
    fn loader_volume_matches_scale() {
        let mut rng = StdRng::seed_from_u64(2);
        let scale = TpccScale {
            warehouses: 1,
            districts_per_wh: 2,
            customers_per_district: 3,
            items: 5,
            orders_per_district: 2,
        };
        let stmts = load_statements(&mut rng, &scale);
        // 1 wh + 2 dist + 6 cust + 4 orders + 4 new_order + 20 order_line
        // + 5 item + 5 stock.
        assert_eq!(stmts.len(), 1 + 2 + 6 + 4 + 4 + 20 + 5 + 5);
    }
}
