//! Seeded, scale-factor-parameterized TPC-H data generator.

use crate::schema;
use crate::text::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sirius_columnar::scalar::ymd_to_date32;
use sirius_columnar::{Array, Table};

/// Generated TPC-H database: the eight base tables.
pub struct TpchData {
    tables: Vec<(String, Table)>,
    /// The scale factor the data was generated at.
    pub scale_factor: f64,
}

impl TpchData {
    /// Look up a table by name.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.iter().find(|(n, _)| n == name).map(|(_, t)| t)
    }

    /// All `(name, table)` pairs.
    pub fn tables(&self) -> &[(String, Table)] {
        &self.tables
    }

    /// Total bytes across all tables.
    pub fn total_bytes(&self) -> u64 {
        self.tables.iter().map(|(_, t)| t.byte_size() as u64).sum()
    }

    /// A copy with every string column decoded to plain payload bytes —
    /// the ablation baseline for measuring what dictionary encoding saves.
    pub fn decoded(&self) -> TpchData {
        TpchData {
            tables: self
                .tables
                .iter()
                .map(|(n, t)| (n.clone(), t.decode_strings()))
                .collect(),
            scale_factor: self.scale_factor,
        }
    }
}

/// The generator. Deterministic for a given `(scale_factor, seed)`.
pub struct TpchGenerator {
    sf: f64,
    seed: u64,
}

const START_DATE: (i32, u32, u32) = (1992, 1, 1);
const CURRENT_DATE: (i32, u32, u32) = (1995, 6, 17);

impl TpchGenerator {
    /// Generator at `scale_factor` with the default seed.
    pub fn new(scale_factor: f64) -> Self {
        Self {
            sf: scale_factor,
            seed: 0x5151_u64,
        }
    }

    /// Override the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    fn scaled(&self, base: u64, min: u64) -> usize {
        ((base as f64 * self.sf) as u64).max(min) as usize
    }

    /// Generate all eight tables.
    pub fn generate(&self) -> TpchData {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let n_supp = self.scaled(10_000, 20);
        let n_cust = self.scaled(150_000, 90);
        let n_part = self.scaled(200_000, 120);
        let n_orders = self.scaled(1_500_000, 900);

        let retail_price = |partkey: i64| 900.0 + ((partkey * 32) % 20_001) as f64 / 100.0;
        // dbgen links each part to 4 suppliers with this spread; lineitem
        // uses the same formula so (l_partkey, l_suppkey) always exists in
        // partsupp (Q9 depends on it).
        let supp_of = |partkey: i64, i: i64, n_supp: i64| -> i64 {
            (partkey + i * (n_supp / 4 + (partkey - 1) / n_supp)) % n_supp + 1
        };

        let mut tables = Vec::new();

        // region ------------------------------------------------------------
        tables.push((
            "region".to_string(),
            Table::new(
                schema::region(),
                vec![
                    Array::from_i64(0..5),
                    Array::from_strs(REGIONS),
                    Array::from_strs(REGIONS.map(|r| format!("{} region", r.to_lowercase()))),
                ],
            ),
        ));

        // nation ------------------------------------------------------------
        tables.push((
            "nation".to_string(),
            Table::new(
                schema::nation(),
                vec![
                    Array::from_i64(0..25),
                    Array::from_strs(NATIONS.map(|(n, _)| n)),
                    Array::from_i64(NATIONS.map(|(_, r)| r)),
                    Array::from_strs(NATIONS.map(|(n, _)| format!("{} nation", n.to_lowercase()))),
                ],
            ),
        ));

        // supplier ----------------------------------------------------------
        {
            let mut suppkey = Vec::with_capacity(n_supp);
            let mut name = Vec::with_capacity(n_supp);
            let mut address = Vec::with_capacity(n_supp);
            let mut nationkey = Vec::with_capacity(n_supp);
            let mut phone = Vec::with_capacity(n_supp);
            let mut acctbal = Vec::with_capacity(n_supp);
            let mut comment = Vec::with_capacity(n_supp);
            for k in 1..=n_supp as i64 {
                let nk = rng.gen_range(0..25i64);
                suppkey.push(k);
                name.push(format!("Supplier#{k:09}"));
                address.push(gen_address(&mut rng));
                nationkey.push(nk);
                phone.push(gen_phone(&mut rng, nk));
                acctbal.push(gen_money(&mut rng, -999.99, 9999.99));
                // dbgen plants "Customer ... Complaints" in ~0.1% of
                // supplier comments; at tiny scales use 2% so Q16's NOT IN
                // has something to exclude.
                let p = if n_supp < 2000 { 0.02 } else { 0.001 };
                let inject = if rng.gen_bool(p) {
                    Some(("Customer", "Complaints"))
                } else {
                    None
                };
                comment.push(gen_comment(&mut rng, inject));
            }
            tables.push((
                "supplier".to_string(),
                Table::new(
                    schema::supplier(),
                    vec![
                        Array::from_i64(suppkey),
                        Array::from_strs(name),
                        Array::from_strs(address),
                        Array::from_i64(nationkey),
                        Array::from_strs(phone),
                        Array::from_f64(acctbal),
                        Array::from_strs(comment),
                    ],
                ),
            ));
        }

        // customer ----------------------------------------------------------
        {
            let mut custkey = Vec::with_capacity(n_cust);
            let mut name = Vec::with_capacity(n_cust);
            let mut address = Vec::with_capacity(n_cust);
            let mut nationkey = Vec::with_capacity(n_cust);
            let mut phone = Vec::with_capacity(n_cust);
            let mut acctbal = Vec::with_capacity(n_cust);
            let mut segment = Vec::with_capacity(n_cust);
            let mut comment = Vec::with_capacity(n_cust);
            for k in 1..=n_cust as i64 {
                let nk = rng.gen_range(0..25i64);
                custkey.push(k);
                name.push(format!("Customer#{k:09}"));
                address.push(gen_address(&mut rng));
                nationkey.push(nk);
                phone.push(gen_phone(&mut rng, nk));
                acctbal.push(gen_money(&mut rng, -999.99, 9999.99));
                segment.push(SEGMENTS[rng.gen_range(0..SEGMENTS.len())].to_string());
                comment.push(gen_comment(&mut rng, None));
            }
            tables.push((
                "customer".to_string(),
                Table::new(
                    schema::customer(),
                    vec![
                        Array::from_i64(custkey),
                        Array::from_strs(name),
                        Array::from_strs(address),
                        Array::from_i64(nationkey),
                        Array::from_strs(phone),
                        Array::from_f64(acctbal),
                        Array::from_strs(segment),
                        Array::from_strs(comment),
                    ],
                ),
            ));
        }

        // part ----------------------------------------------------------------
        {
            let mut partkey = Vec::with_capacity(n_part);
            let mut name = Vec::with_capacity(n_part);
            let mut mfgr = Vec::with_capacity(n_part);
            let mut brand = Vec::with_capacity(n_part);
            let mut ptype = Vec::with_capacity(n_part);
            let mut size = Vec::with_capacity(n_part);
            let mut container = Vec::with_capacity(n_part);
            let mut price = Vec::with_capacity(n_part);
            let mut comment = Vec::with_capacity(n_part);
            for k in 1..=n_part as i64 {
                partkey.push(k);
                // 5 distinct colors; queries probe the leading one (Q20
                // `forest%`) and any position (Q9 `%green%`).
                let mut colors: Vec<&str> = Vec::with_capacity(5);
                while colors.len() < 5 {
                    let c = COLORS[rng.gen_range(0..COLORS.len())];
                    if !colors.contains(&c) {
                        colors.push(c);
                    }
                }
                name.push(colors.join(" "));
                let m = rng.gen_range(1..=5);
                mfgr.push(format!("Manufacturer#{m}"));
                brand.push(format!("Brand#{m}{}", rng.gen_range(1..=5)));
                ptype.push(format!(
                    "{} {} {}",
                    TYPE_S1[rng.gen_range(0..TYPE_S1.len())],
                    TYPE_S2[rng.gen_range(0..TYPE_S2.len())],
                    TYPE_S3[rng.gen_range(0..TYPE_S3.len())]
                ));
                size.push(rng.gen_range(1..=50i64));
                container.push(format!(
                    "{} {}",
                    CONTAINER_S1[rng.gen_range(0..CONTAINER_S1.len())],
                    CONTAINER_S2[rng.gen_range(0..CONTAINER_S2.len())]
                ));
                price.push(retail_price(k));
                comment.push(gen_comment(&mut rng, None));
            }
            tables.push((
                "part".to_string(),
                Table::new(
                    schema::part(),
                    vec![
                        Array::from_i64(partkey),
                        Array::from_strs(name),
                        Array::from_strs(mfgr),
                        Array::from_strs(brand),
                        Array::from_strs(ptype),
                        Array::from_i64(size),
                        Array::from_strs(container),
                        Array::from_f64(price),
                        Array::from_strs(comment),
                    ],
                ),
            ));
        }

        // partsupp ---------------------------------------------------------
        {
            let n = n_part * 4;
            let mut pk = Vec::with_capacity(n);
            let mut sk = Vec::with_capacity(n);
            let mut qty = Vec::with_capacity(n);
            let mut cost = Vec::with_capacity(n);
            let mut comment = Vec::with_capacity(n);
            for p in 1..=n_part as i64 {
                for i in 0..4i64 {
                    pk.push(p);
                    sk.push(supp_of(p, i, n_supp as i64));
                    qty.push(rng.gen_range(1..=9999i64));
                    cost.push(gen_money(&mut rng, 1.0, 1000.0));
                    comment.push(gen_comment(&mut rng, None));
                }
            }
            tables.push((
                "partsupp".to_string(),
                Table::new(
                    schema::partsupp(),
                    vec![
                        Array::from_i64(pk),
                        Array::from_i64(sk),
                        Array::from_i64(qty),
                        Array::from_f64(cost),
                        Array::from_strs(comment),
                    ],
                ),
            ));
        }

        // orders + lineitem --------------------------------------------------
        {
            let start = ymd_to_date32(START_DATE.0, START_DATE.1, START_DATE.2);
            let end = ymd_to_date32(1998, 8, 2);
            let cutoff = ymd_to_date32(CURRENT_DATE.0, CURRENT_DATE.1, CURRENT_DATE.2);

            let mut o_key = Vec::with_capacity(n_orders);
            let mut o_cust = Vec::with_capacity(n_orders);
            let mut o_status = Vec::with_capacity(n_orders);
            let mut o_total = Vec::with_capacity(n_orders);
            let mut o_date = Vec::with_capacity(n_orders);
            let mut o_prio = Vec::with_capacity(n_orders);
            let mut o_clerk = Vec::with_capacity(n_orders);
            let mut o_shipprio = Vec::with_capacity(n_orders);
            let mut o_comment = Vec::with_capacity(n_orders);

            let nl = n_orders * 4;
            let mut l_okey = Vec::with_capacity(nl);
            let mut l_pkey = Vec::with_capacity(nl);
            let mut l_skey = Vec::with_capacity(nl);
            let mut l_line = Vec::with_capacity(nl);
            let mut l_qty = Vec::with_capacity(nl);
            let mut l_ext = Vec::with_capacity(nl);
            let mut l_disc = Vec::with_capacity(nl);
            let mut l_tax = Vec::with_capacity(nl);
            let mut l_ret = Vec::with_capacity(nl);
            let mut l_status = Vec::with_capacity(nl);
            let mut l_ship = Vec::with_capacity(nl);
            let mut l_commit = Vec::with_capacity(nl);
            let mut l_receipt = Vec::with_capacity(nl);
            let mut l_instruct = Vec::with_capacity(nl);
            let mut l_mode = Vec::with_capacity(nl);
            let mut l_comment = Vec::with_capacity(nl);

            for ok in 1..=n_orders as i64 {
                // dbgen leaves a third of customers order-less (Q13/Q22).
                let cust = loop {
                    let c = rng.gen_range(1..=n_cust as i64);
                    if c % 3 != 0 {
                        break c;
                    }
                };
                let odate = rng.gen_range(start..=end - 151);
                let lines = rng.gen_range(1..=7usize);
                let mut total = 0.0;
                let mut all_f = true;
                let mut all_o = true;
                for line in 1..=lines as i64 {
                    let p = rng.gen_range(1..=n_part as i64);
                    let s = supp_of(p, rng.gen_range(0..4i64), n_supp as i64);
                    let qty = rng.gen_range(1..=50i64) as f64;
                    let ext = qty * retail_price(p);
                    let disc = rng.gen_range(0..=10i64) as f64 / 100.0;
                    let tax = rng.gen_range(0..=8i64) as f64 / 100.0;
                    let ship = odate + rng.gen_range(1..=121);
                    let commit = odate + rng.gen_range(30..=90);
                    let receipt = ship + rng.gen_range(1..=30);
                    let (ret, status) = if receipt <= cutoff {
                        (if rng.gen_bool(0.5) { "R" } else { "A" }, "F")
                    } else {
                        ("N", "O")
                    };
                    if status == "O" {
                        all_f = false;
                    } else {
                        all_o = false;
                    }
                    total += ext * (1.0 + tax) * (1.0 - disc);

                    l_okey.push(ok);
                    l_pkey.push(p);
                    l_skey.push(s);
                    l_line.push(line);
                    l_qty.push(qty);
                    l_ext.push(ext);
                    l_disc.push(disc);
                    l_tax.push(tax);
                    l_ret.push(ret.to_string());
                    l_status.push(status.to_string());
                    l_ship.push(ship);
                    l_commit.push(commit);
                    l_receipt.push(receipt);
                    l_instruct
                        .push(SHIP_INSTRUCTS[rng.gen_range(0..SHIP_INSTRUCTS.len())].to_string());
                    l_mode.push(SHIP_MODES[rng.gen_range(0..SHIP_MODES.len())].to_string());
                    l_comment.push(gen_comment(&mut rng, None));
                }
                o_key.push(ok);
                o_cust.push(cust);
                o_status.push(
                    if all_f {
                        "F"
                    } else if all_o {
                        "O"
                    } else {
                        "P"
                    }
                    .to_string(),
                );
                o_total.push((total * 100.0).round() / 100.0);
                o_date.push(odate);
                o_prio.push(PRIORITIES[rng.gen_range(0..PRIORITIES.len())].to_string());
                o_clerk.push(format!("Clerk#{:09}", rng.gen_range(1..=1000)));
                o_shipprio.push(0);
                // ~1.6% of order comments carry the Q13 phrase.
                let inject = if rng.gen_bool(1.0 / 60.0) {
                    Some(("special", "requests"))
                } else {
                    None
                };
                o_comment.push(gen_comment(&mut rng, inject));
            }

            tables.push((
                "orders".to_string(),
                Table::new(
                    schema::orders(),
                    vec![
                        Array::from_i64(o_key),
                        Array::from_i64(o_cust),
                        Array::from_strs(o_status),
                        Array::from_f64(o_total),
                        Array::from_date32(o_date),
                        Array::from_strs(o_prio),
                        Array::from_strs(o_clerk),
                        Array::from_i64(o_shipprio),
                        Array::from_strs(o_comment),
                    ],
                ),
            ));
            tables.push((
                "lineitem".to_string(),
                Table::new(
                    schema::lineitem(),
                    vec![
                        Array::from_i64(l_okey),
                        Array::from_i64(l_pkey),
                        Array::from_i64(l_skey),
                        Array::from_i64(l_line),
                        Array::from_f64(l_qty),
                        Array::from_f64(l_ext),
                        Array::from_f64(l_disc),
                        Array::from_f64(l_tax),
                        Array::from_strs(l_ret),
                        Array::from_strs(l_status),
                        Array::from_date32(l_ship),
                        Array::from_date32(l_commit),
                        Array::from_date32(l_receipt),
                        Array::from_strs(l_instruct),
                        Array::from_strs(l_mode),
                        Array::from_strs(l_comment),
                    ],
                ),
            ));
        }

        // Strings ship dictionary-encoded: operators run on 4-byte codes and
        // the engine materializes payload bytes only at the result sink
        // (late materialization). `TpchData::decoded` is the plain twin.
        for (_, t) in &mut tables {
            *t = t.encode_strings();
        }

        TpchData {
            tables,
            scale_factor: self.sf,
        }
    }
}

fn gen_money(rng: &mut StdRng, lo: f64, hi: f64) -> f64 {
    let cents = rng.gen_range((lo * 100.0) as i64..=(hi * 100.0) as i64);
    cents as f64 / 100.0
}

fn gen_phone(rng: &mut StdRng, nationkey: i64) -> String {
    format!(
        "{}-{:03}-{:03}-{:04}",
        10 + nationkey,
        rng.gen_range(100..1000),
        rng.gen_range(100..1000),
        rng.gen_range(1000..10000)
    )
}

fn gen_address(rng: &mut StdRng) -> String {
    format!(
        "{} {} {}",
        rng.gen_range(1..9999),
        COMMENT_WORDS[rng.gen_range(0..COMMENT_WORDS.len())],
        COMMENT_WORDS[rng.gen_range(0..COMMENT_WORDS.len())]
    )
}

fn gen_comment(rng: &mut StdRng, inject: Option<(&str, &str)>) -> String {
    let n = rng.gen_range(3..=7);
    let mut words: Vec<&str> = (0..n)
        .map(|_| COMMENT_WORDS[rng.gen_range(0..COMMENT_WORDS.len())])
        .collect();
    if let Some((a, b)) = inject {
        // Place the phrase with 0-2 filler words between its halves.
        let gap = rng.gen_range(0..=2usize.min(words.len()));
        let at = rng.gen_range(0..=words.len() - gap);
        words.insert(at, a);
        words.insert(at + 1 + gap, b);
    }
    words.join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> TpchData {
        TpchGenerator::new(0.002).generate()
    }

    #[test]
    fn deterministic() {
        let a = TpchGenerator::new(0.002).generate();
        let b = TpchGenerator::new(0.002).generate();
        for ((na, ta), (nb, tb)) in a.tables().iter().zip(b.tables().iter()) {
            assert_eq!(na, nb);
            assert_eq!(ta, tb, "{na} differs across runs");
        }
        let c = TpchGenerator::new(0.002).with_seed(99).generate();
        assert_ne!(
            a.table("lineitem").unwrap(),
            c.table("lineitem").unwrap(),
            "different seeds should differ"
        );
    }

    #[test]
    fn cardinalities_scale() {
        let d = tiny();
        assert_eq!(d.table("region").unwrap().num_rows(), 5);
        assert_eq!(d.table("nation").unwrap().num_rows(), 25);
        let parts = d.table("part").unwrap().num_rows();
        assert_eq!(d.table("partsupp").unwrap().num_rows(), parts * 4);
        assert!(d.table("lineitem").unwrap().num_rows() > d.table("orders").unwrap().num_rows());
    }

    #[test]
    fn referential_integrity() {
        let d = tiny();
        let orders = d.table("orders").unwrap();
        let n_cust = d.table("customer").unwrap().num_rows() as i64;
        for i in 0..orders.num_rows() {
            let c = orders.column(1).i64_value(i).unwrap();
            assert!((1..=n_cust).contains(&c));
            assert_ne!(c % 3, 0, "a third of customers stay order-less");
        }
        // Every (l_partkey, l_suppkey) exists in partsupp.
        let ps = d.table("partsupp").unwrap();
        let mut pairs = std::collections::HashSet::new();
        for i in 0..ps.num_rows() {
            pairs.insert((
                ps.column(0).i64_value(i).unwrap(),
                ps.column(1).i64_value(i).unwrap(),
            ));
        }
        let li = d.table("lineitem").unwrap();
        for i in 0..li.num_rows() {
            let key = (
                li.column(1).i64_value(i).unwrap(),
                li.column(2).i64_value(i).unwrap(),
            );
            assert!(
                pairs.contains(&key),
                "lineitem {key:?} missing from partsupp"
            );
        }
    }

    #[test]
    fn date_relationships() {
        let d = tiny();
        let li = d.table("lineitem").unwrap();
        for i in 0..li.num_rows() {
            let ship = li.column(10).i64_value(i).unwrap();
            let receipt = li.column(12).i64_value(i).unwrap();
            assert!(receipt > ship);
        }
    }

    #[test]
    fn selective_phrases_present() {
        let d = TpchGenerator::new(0.01).generate();
        let orders = d.table("orders").unwrap();
        let special = (0..orders.num_rows())
            .filter(|&i| {
                let c = orders.column(8).utf8_value(i).unwrap();
                c.contains("special") && c.contains("requests")
            })
            .count();
        assert!(special > 0, "Q13's phrase must occur");
        assert!(special < orders.num_rows() / 10);
        let parts = d.table("part").unwrap();
        let forest = (0..parts.num_rows())
            .filter(|&i| parts.column(1).utf8_value(i).unwrap().starts_with("forest"))
            .count();
        assert!(forest > 0, "Q20's forest-prefixed parts must exist");
    }

    #[test]
    fn strings_are_dictionary_encoded_and_decode_to_the_plain_twin() {
        let enc = tiny();
        assert!(
            enc.tables().iter().any(|(_, t)| t.has_dict_columns()),
            "generation must emit encoded string columns"
        );
        let plain = enc.decoded();
        assert!(plain.tables().iter().all(|(_, t)| !t.has_dict_columns()));
        // Same names, row counts and values; only the physical layout
        // differs, and encoded is smaller.
        for ((ne, te), (np, tp)) in enc.tables().iter().zip(plain.tables().iter()) {
            assert_eq!(ne, np);
            assert_eq!(te.num_rows(), tp.num_rows());
            assert_eq!(&tp.encode_strings(), te, "{ne} values differ");
        }
        assert!(enc.total_bytes() < plain.total_bytes());
    }

    #[test]
    fn status_flags_consistent() {
        let d = tiny();
        let li = d.table("lineitem").unwrap();
        for i in 0..li.num_rows() {
            let ret = li.column(8).utf8_value(i).unwrap();
            let status = li.column(9).utf8_value(i).unwrap();
            match status {
                "F" => assert!(ret == "R" || ret == "A"),
                "O" => assert_eq!(ret, "N"),
                other => panic!("unexpected linestatus {other}"),
            }
        }
    }
}
