//! Pseudo-TPC-H data generation.
//!
//! The paper's performance experiments (§V-B) use the TPC-H benchmark
//! generator: the LINEITEM table at sizes of 150 K, 1.5 M, 4.5 M and 6 M
//! tuples, searching on `L_PARTKEY` / `L_SUPPKEY`, and the CUSTOMER table
//! (≈200-byte tuples) for the communication cost calibration.  `dbgen` is
//! not available here, so [`TpchGenerator`] produces relations with the same
//! structural properties the experiments depend on: tuple counts, distinct
//! key cardinalities (and therefore selectivities), optional skew, and
//! realistic tuple widths.  DESIGN.md §5 records the substitution.

use pds_common::Value;
use pds_storage::{DataType, Relation, Schema};
use rand::Rng;

use crate::zipf::Zipf;

/// Configuration of the pseudo-TPC-H generator.
#[derive(Debug, Clone)]
pub struct TpchConfig {
    /// Number of LINEITEM-like tuples to generate.
    pub lineitem_tuples: usize,
    /// Number of distinct part keys (TPC-H SF1 has 200 000; the paper's
    /// L_PARTKEY metadata of 13.6 MB corresponds to that order).
    pub distinct_partkeys: usize,
    /// Number of distinct supplier keys (TPC-H SF1 has 10 000).
    pub distinct_suppkeys: usize,
    /// Zipf exponent for key popularity (0 = uniform, as TPC-H itself is).
    pub skew: f64,
    /// Seed for deterministic generation.
    pub seed: u64,
}

impl Default for TpchConfig {
    fn default() -> Self {
        TpchConfig {
            lineitem_tuples: 150_000,
            distinct_partkeys: 20_000,
            distinct_suppkeys: 1_000,
            skew: 0.0,
            seed: 42,
        }
    }
}

/// The pseudo-TPC-H generator.
#[derive(Debug, Clone)]
pub struct TpchGenerator {
    config: TpchConfig,
}

impl TpchGenerator {
    /// Creates a generator for the given configuration.
    pub fn new(config: TpchConfig) -> Self {
        TpchGenerator { config }
    }

    /// The configuration in force.
    pub fn config(&self) -> &TpchConfig {
        &self.config
    }

    /// Generates a LINEITEM-like relation with attributes
    /// `L_ORDERKEY, L_PARTKEY, L_SUPPKEY, L_QUANTITY, L_EXTENDEDPRICE,
    /// L_SHIPMODE`.
    pub fn lineitem(&self) -> Relation {
        let schema = Schema::from_pairs(&[
            ("L_ORDERKEY", DataType::Int),
            ("L_PARTKEY", DataType::Int),
            ("L_SUPPKEY", DataType::Int),
            ("L_QUANTITY", DataType::Int),
            ("L_EXTENDEDPRICE", DataType::Int),
            ("L_SHIPMODE", DataType::Text),
        ])
        .expect("lineitem schema is valid");
        let mut rel = Relation::new("LINEITEM", schema);
        let mut rng = pds_common::rng::seeded_rng(self.config.seed);
        // The generator is infallible by contract and its config is
        // programmatic (never CLI-reachable), so a bad skew or an empty key
        // domain is a caller bug: fail fast with a clear message rather than
        // silently degrading to uniform data and letting a skew experiment
        // report meaningless results.
        let part_zipf = Zipf::new(self.config.distinct_partkeys, self.config.skew)
            .expect("TpchConfig.distinct_partkeys must be > 0 and skew finite and >= 0");
        let supp_zipf = Zipf::new(self.config.distinct_suppkeys, self.config.skew)
            .expect("TpchConfig.distinct_suppkeys must be > 0 and skew finite and >= 0");
        let ship_modes = ["AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB", "REG AIR"];
        for i in 0..self.config.lineitem_tuples {
            let partkey = part_zipf.sample(&mut rng) as i64 + 1;
            let suppkey = supp_zipf.sample(&mut rng) as i64 + 1;
            let quantity = rng.gen_range(1..=50);
            let price = quantity * rng.gen_range(900..=100_000);
            let mode = ship_modes[rng.gen_range(0..ship_modes.len())];
            rel.insert(vec![
                Value::Int((i / 4) as i64 + 1),
                Value::Int(partkey),
                Value::Int(suppkey),
                Value::Int(quantity),
                Value::Int(price),
                Value::from(mode),
            ])
            .expect("generated row conforms to schema");
        }
        rel
    }

    /// Generates a CUSTOMER-like relation (≈200-byte tuples) with attributes
    /// `C_CUSTKEY, C_NAME, C_ADDRESS, C_NATIONKEY, C_PHONE, C_ACCTBAL,
    /// C_COMMENT`.
    pub fn customer(&self, tuples: usize) -> Relation {
        let schema = Schema::from_pairs(&[
            ("C_CUSTKEY", DataType::Int),
            ("C_NAME", DataType::Text),
            ("C_ADDRESS", DataType::Text),
            ("C_NATIONKEY", DataType::Int),
            ("C_PHONE", DataType::Text),
            ("C_ACCTBAL", DataType::Int),
            ("C_COMMENT", DataType::Text),
        ])
        .expect("customer schema is valid");
        let mut rel = Relation::new("CUSTOMER", schema);
        let mut rng = pds_common::rng::seeded_rng(self.config.seed.wrapping_add(1));
        for i in 0..tuples {
            let comment_len = rng.gen_range(60..=110);
            let comment: String = (0..comment_len)
                .map(|_| (b'a' + rng.gen_range(0..26)) as char)
                .collect();
            rel.insert(vec![
                Value::Int(i as i64 + 1),
                Value::from(format!("Customer#{i:09}")),
                Value::from(format!(
                    "{} Market Street Apt {}",
                    rng.gen_range(1..999),
                    i % 97
                )),
                Value::Int(rng.gen_range(0..25)),
                Value::from(format!(
                    "{}-{:03}-{:03}-{:04}",
                    rng.gen_range(10..35),
                    i % 999,
                    (i * 7) % 999,
                    (i * 13) % 9999
                )),
                Value::Int(rng.gen_range(-99_999..999_999)),
                Value::from(comment),
            ])
            .expect("generated row conforms to schema");
        }
        rel
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lineitem_respects_config() {
        let cfg = TpchConfig {
            lineitem_tuples: 2_000,
            distinct_partkeys: 100,
            distinct_suppkeys: 10,
            skew: 0.0,
            seed: 7,
        };
        let rel = TpchGenerator::new(cfg).lineitem();
        assert_eq!(rel.len(), 2_000);
        let attr = rel.schema().attr_id("L_PARTKEY").unwrap();
        let distinct = rel.distinct_values(attr).len();
        assert!(distinct <= 100);
        assert!(
            distinct > 80,
            "with 2000 tuples over 100 keys nearly all keys appear"
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = TpchConfig {
            lineitem_tuples: 500,
            ..Default::default()
        };
        let a = TpchGenerator::new(cfg.clone()).lineitem();
        let b = TpchGenerator::new(cfg).lineitem();
        assert_eq!(a, b);
    }

    #[test]
    fn skewed_generation_concentrates_mass() {
        let cfg = TpchConfig {
            lineitem_tuples: 5_000,
            distinct_partkeys: 100,
            distinct_suppkeys: 10,
            skew: 1.2,
            seed: 9,
        };
        let rel = TpchGenerator::new(cfg).lineitem();
        let attr = rel.schema().attr_id("L_PARTKEY").unwrap();
        let stats = rel.attribute_stats(attr);
        // The most frequent key should hold far more than the mean share.
        assert!(stats.max_count() as f64 > 5.0 * (5_000.0 / 100.0));
    }

    #[test]
    fn customer_tuples_are_about_200_bytes() {
        let rel = TpchGenerator::new(TpchConfig::default()).customer(200);
        assert_eq!(rel.len(), 200);
        let avg = rel.avg_tuple_bytes();
        assert!(
            (150..=300).contains(&avg),
            "avg customer tuple bytes = {avg}"
        );
    }
}
