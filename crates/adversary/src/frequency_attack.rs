//! The frequency-count attack (attack (ii) of §I; Naveed et al. \[11\]).
//!
//! Deterministic encryption maps equal plaintexts to equal ciphertexts, so
//! the cloud-resident ciphertext (or search-tag) histogram mirrors the
//! plaintext histogram.  An adversary with auxiliary knowledge of the
//! plaintext value distribution sorts both histograms and aligns them,
//! recovering a ciphertext→plaintext mapping for every value whose
//! frequency rank is unambiguous.
//!
//! The attack consumes only adversary-visible material: the search tags
//! stored by the cloud (`CloudServer::encrypted_store`) and a background
//! histogram of plaintext values.

use std::collections::HashMap;

use pds_cloud::EncryptedStore;
use pds_common::Value;

/// Result of the frequency-matching attack.
#[derive(Debug, Clone, PartialEq)]
pub struct FrequencyAttackOutcome {
    /// The inferred mapping tag → plaintext value.
    pub inferred: HashMap<Vec<u8>, Value>,
    /// Fraction of *tuples* whose searchable value the mapping recovers
    /// correctly, measured against ground truth.
    pub recovery_rate: f64,
    /// Number of distinct tags observed on the cloud.
    pub distinct_tags: usize,
}

/// Frequency-count attack against deterministic / tag-indexed storage.
#[derive(Debug, Default)]
pub struct FrequencyAttack;

impl FrequencyAttack {
    /// Mounts the attack.
    ///
    /// * `store` — the cloud's encrypted store (tags are adversary-visible);
    /// * `auxiliary_histogram` — the adversary's background knowledge: the
    ///   plaintext values and their (approximate) frequencies;
    /// * `ground_truth` — tag → true plaintext value, used only to score the
    ///   attack.
    pub fn run(
        store: &EncryptedStore,
        auxiliary_histogram: &HashMap<Value, u64>,
        ground_truth: &HashMap<Vec<u8>, Value>,
    ) -> FrequencyAttackOutcome {
        // Histogram of tags as stored on the cloud.
        let mut tag_counts: HashMap<Vec<u8>, u64> = HashMap::new();
        for row in store.rows() {
            for tag in &row.search_tags {
                *tag_counts.entry(tag.clone()).or_insert(0) += 1;
            }
        }
        let distinct_tags = tag_counts.len();

        // Sort both sides by descending frequency (ties broken
        // deterministically so the attack is reproducible).
        let mut tags: Vec<(Vec<u8>, u64)> = tag_counts.into_iter().collect();
        tags.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        let mut plain: Vec<(Value, u64)> = auxiliary_histogram
            .iter()
            .map(|(v, &c)| (v.clone(), c))
            .collect();
        plain.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));

        let inferred: HashMap<Vec<u8>, Value> = tags
            .iter()
            .zip(plain.iter())
            .map(|((tag, _), (value, _))| (tag.clone(), value.clone()))
            .collect();

        // Score: weight by tuple count so recovering heavy hitters counts
        // proportionally more (as in the inference-attack literature).
        let mut correct_tuples = 0u64;
        let mut total_tuples = 0u64;
        for row in store.rows() {
            for tag in &row.search_tags {
                total_tuples += 1;
                if let (Some(guess), Some(truth)) = (inferred.get(tag), ground_truth.get(tag)) {
                    if guess == truth {
                        correct_tuples += 1;
                    }
                }
            }
        }
        let recovery_rate = if total_tuples == 0 {
            0.0
        } else {
            correct_tuples as f64 / total_tuples as f64
        };

        FrequencyAttackOutcome {
            inferred,
            recovery_rate,
            distinct_tags,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pds_cloud::{CloudServer, DbOwner, NetworkModel};
    use pds_common::Value;
    use pds_storage::{DataType, Relation, Schema};

    /// Outsources a skewed relation twice: once with deterministic tags
    /// (vulnerable) and once with per-occurrence tags (Arx-style, resistant
    /// to this particular attack since every tag is unique).
    fn outsource(
        deterministic: bool,
    ) -> (CloudServer, HashMap<Value, u64>, HashMap<Vec<u8>, Value>) {
        let schema = Schema::from_pairs(&[("Salary", DataType::Int)]).unwrap();
        let mut rel = Relation::new("Payroll", schema);
        // Value 100 x 6, 200 x 3, 300 x 1 — a skewed, low-entropy column.
        let data = [100i64, 100, 100, 100, 100, 100, 200, 200, 200, 300];
        for v in data {
            rel.insert(vec![Value::Int(v)]).unwrap();
        }
        let attr = rel.schema().attr_id("Salary").unwrap();

        let mut owner = DbOwner::new(77);
        let mut cloud = CloudServer::new(NetworkModel::free());
        let mut truth: HashMap<Vec<u8>, Value> = HashMap::new();
        let mut occurrences: HashMap<Value, u64> = HashMap::new();
        let rows: Vec<_> = rel
            .tuples()
            .iter()
            .map(|t| {
                let v = t.value(attr).clone();
                let tag = if deterministic {
                    owner.det_tag(&v)
                } else {
                    let occ = occurrences.entry(v.clone()).or_insert(0);
                    let tag = owner.counter_tag(&v, *occ);
                    *occ += 1;
                    tag
                };
                truth.insert(tag.clone(), v.clone());
                owner.encrypt_row(t, attr, vec![tag])
            })
            .collect();
        cloud.upload_encrypted(rows).unwrap();

        let mut histogram = HashMap::new();
        for v in data {
            *histogram.entry(Value::Int(v)).or_insert(0u64) += 1;
        }
        (cloud, histogram, truth)
    }

    #[test]
    fn deterministic_tags_fully_recovered() {
        let (cloud, hist, truth) = outsource(true);
        let out = FrequencyAttack::run(cloud.encrypted_store(), &hist, &truth);
        assert_eq!(out.distinct_tags, 3);
        assert_eq!(
            out.recovery_rate, 1.0,
            "skewed deterministic column is fully recovered"
        );
    }

    #[test]
    fn per_occurrence_tags_resist_frequency_matching() {
        let (cloud, hist, truth) = outsource(false);
        let out = FrequencyAttack::run(cloud.encrypted_store(), &hist, &truth);
        assert_eq!(out.distinct_tags, 10, "every occurrence has its own tag");
        // All tags now have frequency 1: alignment is essentially arbitrary,
        // so recovery is far below total.
        assert!(out.recovery_rate < 0.5, "recovery = {}", out.recovery_rate);
    }

    #[test]
    fn empty_store_neutral() {
        let store = EncryptedStore::new();
        let out = FrequencyAttack::run(&store, &HashMap::new(), &HashMap::new());
        assert_eq!(out.recovery_rate, 0.0);
        assert_eq!(out.distinct_tags, 0);
    }
}
