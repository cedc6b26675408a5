//! Bin creation (Algorithm 1, §IV-A/§IV-B) and bin retrieval (Algorithm 2).
//!
//! The owner-side data structure produced here — which value sits in which
//! bin at which position, and how many fake tuples pad each sensitive bin —
//! is exactly the metadata the paper says the DB owner stores ("searchable
//! values and their frequency counts"; its size is proportional to the
//! domain of the searchable attribute, not to the database).

use std::collections::HashMap;

use pds_common::{PdsError, Result, Value};
use pds_storage::{AttributeStats, PartitionedRelation};
use serde::{Deserialize, Serialize};

use crate::shape::BinShape;

/// Configuration of the bin-creation algorithm.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BinningConfig {
    /// Seed of the secret permutation of sensitive values (Algorithm 1
    /// line 2) and of any tie-breaking randomness.
    pub seed: u64,
    /// Whether to run the general-case balancing of §IV-B: assign heavy
    /// hitters greedily and pad every sensitive bin to the same tuple count
    /// with fake tuples.  Disable only to reproduce the size-attack
    /// vulnerability of the unbalanced base algorithm.
    pub balance_tuple_counts: bool,
    /// Optional explicit shape override (used by the Figure 6c bin-size
    /// sweep); `None` computes the shape from the value counts.
    pub shape_override: Option<BinShape>,
}

impl Default for BinningConfig {
    fn default() -> Self {
        BinningConfig {
            seed: 0x0b1a5,
            balance_tuple_counts: true,
            shape_override: None,
        }
    }
}

impl BinningConfig {
    /// Config reproducing the plain base-case algorithm (no fake-tuple
    /// balancing), used by the ablation benches and the size-attack demo.
    pub fn base_case(seed: u64) -> Self {
        BinningConfig {
            seed,
            balance_tuple_counts: false,
            shape_override: None,
        }
    }
}

/// Where a value lives: its bin index and its position within the bin.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BinAssignment {
    /// Bin index.
    pub bin: usize,
    /// Position within the bin.
    pub position: usize,
}

/// The pair of bins Algorithm 2 retrieves for one query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BinPair {
    /// Index of the sensitive bin to search over `Rs` (encrypted).
    pub sensitive_bin: usize,
    /// Index of the non-sensitive bin to search over `Rns` (clear-text).
    pub nonsensitive_bin: usize,
}

/// The Query Binning metadata: value-to-bin assignments on both sides plus
/// the per-bin fake-tuple budget of the general case.
#[derive(Debug, Clone)]
pub struct QueryBinning {
    attr_name: String,
    shape: BinShape,
    sensitive_bins: Vec<Vec<Value>>,
    nonsensitive_bins: Vec<Vec<Option<Value>>>,
    sensitive_pos: HashMap<Value, BinAssignment>,
    nonsensitive_pos: HashMap<Value, BinAssignment>,
    fake_tuples_per_bin: Vec<u64>,
    sensitive_stats: AttributeStats,
    nonsensitive_stats: AttributeStats,
    /// Sorted, deduplicated union of both sides' values, memoized at build
    /// time — [`QueryBinning::all_values`] is on the range-query hot path
    /// and used to clone-and-sort the whole domain per call.
    sorted_values: Vec<Value>,
}

impl QueryBinning {
    /// Runs Algorithm 1 over a partitioned relation for the searchable
    /// attribute `attr_name`.
    pub fn build(
        partitioned: &PartitionedRelation,
        attr_name: &str,
        config: BinningConfig,
    ) -> Result<Self> {
        let s_attr = partitioned.sensitive.schema().attr_id(attr_name)?;
        let ns_attr = partitioned.nonsensitive.schema().attr_id(attr_name)?;
        let sensitive_stats = partitioned.sensitive.attribute_stats(s_attr);
        let nonsensitive_stats = partitioned.nonsensitive.attribute_stats(ns_attr);
        let sensitive_values = partitioned.sensitive.distinct_values(s_attr);
        let nonsensitive_values = partitioned.nonsensitive.distinct_values(ns_attr);
        Self::build_from_values(
            attr_name,
            sensitive_values,
            nonsensitive_values,
            sensitive_stats,
            nonsensitive_stats,
            config,
        )
    }

    /// Runs Algorithm 1 directly over value lists and their statistics
    /// (useful for tests and for callers that already hold the metadata).
    pub fn build_from_values(
        attr_name: &str,
        sensitive_values: Vec<Value>,
        nonsensitive_values: Vec<Value>,
        sensitive_stats: AttributeStats,
        nonsensitive_stats: AttributeStats,
        config: BinningConfig,
    ) -> Result<Self> {
        if sensitive_values.is_empty() && nonsensitive_values.is_empty() {
            return Err(PdsError::Binning(
                "nothing to bin: both sides are empty".into(),
            ));
        }
        let shape = match config.shape_override {
            Some(s) => {
                s.validate(sensitive_values.len(), nonsensitive_values.len())?;
                s
            }
            None => BinShape::for_counts(sensitive_values.len(), nonsensitive_values.len())?,
        };

        // --- Step 1: assign sensitive values to sensitive bins. -------------
        let sensitive_bins = if config.balance_tuple_counts {
            assign_sensitive_balanced(&sensitive_values, &sensitive_stats, &shape)?
        } else {
            assign_sensitive_round_robin(&sensitive_values, &shape, config.seed)?
        };

        let mut sensitive_pos: HashMap<Value, BinAssignment> = HashMap::new();
        for (bin, values) in sensitive_bins.iter().enumerate() {
            for (position, v) in values.iter().enumerate() {
                sensitive_pos.insert(v.clone(), BinAssignment { bin, position });
            }
        }

        // --- Step 2: assign non-sensitive values. ---------------------------
        // Associated values (same value appears on both sides) are pinned to
        // NSB[position][bin] so rules R1 and R2 retrieve the same bin pair.
        let mut nonsensitive_bins: Vec<Vec<Option<Value>>> =
            vec![vec![None; shape.nonsensitive_bin_capacity]; shape.nonsensitive_bins];
        let mut placed: HashMap<Value, BinAssignment> = HashMap::new();
        for ns in &nonsensitive_values {
            if let Some(assign) = sensitive_pos.get(ns) {
                let bin = assign.position;
                let position = assign.bin;
                if nonsensitive_bins[bin][position].is_some() {
                    return Err(PdsError::Binning(format!(
                        "non-sensitive slot ({bin},{position}) already taken"
                    )));
                }
                nonsensitive_bins[bin][position] = Some(ns.clone());
                placed.insert(ns.clone(), BinAssignment { bin, position });
            }
        }
        // Remaining (non-associated) values fill empty slots.  Slots are
        // taken in an order that maximises bin-pair coverage: a slot
        // (bin j, position i) makes the pair (sensitive bin i, NS bin j)
        // retrievable, so slots whose pair is not already covered by the
        // sensitive side come first.  This keeps every sensitive bin
        // associated with every non-sensitive bin (the Figure 4a condition)
        // even when the bins are not completely full.
        let mut covered = vec![vec![false; shape.nonsensitive_bins]; shape.sensitive_bins];
        for (bin, values) in sensitive_bins.iter().enumerate() {
            for slot in covered[bin].iter_mut().take(values.len()) {
                *slot = true;
            }
        }
        for assign in placed.values() {
            covered[assign.position][assign.bin] = true;
        }
        let mut free_slots: Vec<(usize, usize)> = (0..shape.nonsensitive_bins)
            .flat_map(|b| (0..shape.nonsensitive_bin_capacity).map(move |p| (b, p)))
            .filter(|&(b, p)| nonsensitive_bins[b][p].is_none())
            .collect();
        free_slots.sort_by_key(|&(b, p)| (covered[p][b], b, p));
        let mut slot_iter = free_slots.into_iter();
        for ns in &nonsensitive_values {
            if placed.contains_key(ns) {
                continue;
            }
            let slot = slot_iter
                .next()
                .ok_or_else(|| PdsError::Binning("ran out of non-sensitive slots".into()))?;
            nonsensitive_bins[slot.0][slot.1] = Some(ns.clone());
            placed.insert(
                ns.clone(),
                BinAssignment {
                    bin: slot.0,
                    position: slot.1,
                },
            );
        }

        // --- Step 3: fake-tuple budget per sensitive bin (general case). ----
        let fake_tuples_per_bin = if config.balance_tuple_counts {
            let totals: Vec<u64> = sensitive_bins
                .iter()
                .map(|values| values.iter().map(|v| sensitive_stats.count(v)).sum())
                .collect();
            let target = totals.iter().copied().max().unwrap_or(0);
            totals.iter().map(|&t| target - t).collect()
        } else {
            vec![0; sensitive_bins.len()]
        };

        let mut sorted_values: Vec<Value> =
            sensitive_pos.keys().chain(placed.keys()).cloned().collect();
        sorted_values.sort();
        sorted_values.dedup();

        Ok(QueryBinning {
            attr_name: attr_name.to_string(),
            shape,
            sensitive_bins,
            nonsensitive_bins,
            sensitive_pos,
            nonsensitive_pos: placed,
            fake_tuples_per_bin,
            sensitive_stats,
            nonsensitive_stats,
            sorted_values,
        })
    }

    // ----- Algorithm 2: bin retrieval ----------------------------------------

    /// Maps a query value to the pair of bins to retrieve.
    ///
    /// Rule R1: a sensitive value at position `j` of sensitive bin `i`
    /// retrieves sensitive bin `i` and non-sensitive bin `j`.
    /// Rule R2: a non-sensitive value at position `j` of non-sensitive bin
    /// `i` retrieves non-sensitive bin `i` and sensitive bin `j`.
    /// Returns `None` when the value occurs on neither side (nothing needs
    /// to be retrieved).
    pub fn retrieve(&self, w: &Value) -> Option<BinPair> {
        if let Some(assign) = self.sensitive_pos.get(w) {
            return Some(BinPair {
                sensitive_bin: assign.bin,
                nonsensitive_bin: assign.position,
            });
        }
        if let Some(assign) = self.nonsensitive_pos.get(w) {
            return Some(BinPair {
                sensitive_bin: assign.position,
                nonsensitive_bin: assign.bin,
            });
        }
        None
    }

    // ----- accessors ----------------------------------------------------------

    /// The searchable attribute the binning was built over.
    pub fn attr_name(&self) -> &str {
        &self.attr_name
    }

    /// The bin layout.
    pub fn shape(&self) -> &BinShape {
        &self.shape
    }

    /// The values of sensitive bin `i`.
    pub fn sensitive_bin(&self, i: usize) -> &[Value] {
        &self.sensitive_bins[i]
    }

    /// The values of non-sensitive bin `j` (skipping empty slots).
    pub fn nonsensitive_bin(&self, j: usize) -> Vec<Value> {
        self.nonsensitive_bins[j]
            .iter()
            .flatten()
            .cloned()
            .collect()
    }

    /// Number of sensitive bins actually populated.
    pub fn sensitive_bin_count(&self) -> usize {
        self.sensitive_bins.len()
    }

    /// Number of non-sensitive bins actually populated.
    pub fn nonsensitive_bin_count(&self) -> usize {
        self.nonsensitive_bins.len()
    }

    /// Where a sensitive value sits, if anywhere.
    pub fn sensitive_assignment(&self, v: &Value) -> Option<BinAssignment> {
        self.sensitive_pos.get(v).copied()
    }

    /// Where a non-sensitive value sits, if anywhere.
    pub fn nonsensitive_assignment(&self, v: &Value) -> Option<BinAssignment> {
        self.nonsensitive_pos.get(v).copied()
    }

    /// The fake-tuple budget of each sensitive bin (all zeros when the
    /// general-case balancing is disabled).
    pub fn fake_tuples_per_bin(&self) -> &[u64] {
        &self.fake_tuples_per_bin
    }

    /// Total number of fake tuples the deployment will add.
    pub fn total_fake_tuples(&self) -> u64 {
        self.fake_tuples_per_bin.iter().sum()
    }

    /// Every distinct value known to the binning (union of both sides),
    /// sorted for determinism.  Used by the range-query extension to find
    /// the values falling inside a requested interval.
    ///
    /// The slice is memoized at build time: repeated calls (one per range
    /// query) return the same buffer instead of re-collecting and re-sorting
    /// the whole domain.
    pub fn all_values(&self) -> &[Value] {
        &self.sorted_values
    }

    /// Frequency statistics of the sensitive side (owner metadata).
    pub fn sensitive_stats(&self) -> &AttributeStats {
        &self.sensitive_stats
    }

    /// Frequency statistics of the non-sensitive side (owner metadata).
    pub fn nonsensitive_stats(&self) -> &AttributeStats {
        &self.nonsensitive_stats
    }

    /// Approximate size of the owner-side metadata in bytes (values plus
    /// their counts and positions) — the quantity the paper reports as
    /// 13.6 MB / 0.65 MB for the TPC-H searchable attributes.
    pub fn metadata_size_bytes(&self) -> usize {
        let value_bytes: usize = self
            .sensitive_pos
            .keys()
            .chain(self.nonsensitive_pos.keys())
            .map(Value::size_bytes)
            .sum();
        // per value: bin + position (2 × 4 bytes) + an 8-byte count.
        value_bytes + (self.sensitive_pos.len() + self.nonsensitive_pos.len()) * 16
    }

    /// Internal consistency check used by tests and debug assertions: every
    /// value is assigned exactly once, capacities are respected, and
    /// associated values map to consistent slots.
    pub fn check_invariants(&self) -> Result<()> {
        for (bin, values) in self.sensitive_bins.iter().enumerate() {
            if values.len() > self.shape.sensitive_bin_capacity {
                return Err(PdsError::Binning(format!(
                    "sensitive bin {bin} exceeds capacity"
                )));
            }
        }
        for (bin, slots) in self.nonsensitive_bins.iter().enumerate() {
            if slots.iter().flatten().count() > self.shape.nonsensitive_bin_capacity {
                return Err(PdsError::Binning(format!(
                    "non-sensitive bin {bin} exceeds capacity"
                )));
            }
        }
        // Associated values must retrieve the same pair through R1 and R2.
        for (value, s_assign) in &self.sensitive_pos {
            if let Some(ns_assign) = self.nonsensitive_pos.get(value) {
                if ns_assign.bin != s_assign.position || ns_assign.position != s_assign.bin {
                    return Err(PdsError::Binning(format!(
                        "associated value {value} has inconsistent slots"
                    )));
                }
            }
        }
        Ok(())
    }
}

/// Base-case assignment (Algorithm 1 lines 2 and 5): secretly permute the
/// sensitive values and deal them round-robin over the sensitive bins.
fn assign_sensitive_round_robin(
    values: &[Value],
    shape: &BinShape,
    seed: u64,
) -> Result<Vec<Vec<Value>>> {
    let mut permuted = values.to_vec();
    let mut rng = pds_common::rng::seeded_rng(pds_common::rng::derive_seed(seed, "qb-perm"));
    pds_common::rng::shuffle(&mut permuted, &mut rng);
    let mut bins: Vec<Vec<Value>> = vec![Vec::new(); shape.sensitive_bins];
    for (i, v) in permuted.into_iter().enumerate() {
        let bin = i % shape.sensitive_bins;
        if bins[bin].len() >= shape.sensitive_bin_capacity {
            return Err(PdsError::Binning(format!("sensitive bin {bin} overflowed")));
        }
        bins[bin].push(v);
    }
    Ok(bins)
}

/// General-case assignment (§IV-B): sort values by descending tuple count,
/// seed each bin with one of the heaviest values, then repeatedly place the
/// next value into the bin with the fewest tuples that still has room.
fn assign_sensitive_balanced(
    values: &[Value],
    stats: &AttributeStats,
    shape: &BinShape,
) -> Result<Vec<Vec<Value>>> {
    let mut bins: Vec<Vec<Value>> = vec![Vec::new(); shape.sensitive_bins];
    let mut totals: Vec<u64> = vec![0; shape.sensitive_bins];
    // Only consider values that actually occur on the sensitive side, in
    // descending count order (stable tie-break on the value itself).
    let ordered: Vec<(Value, u64)> = {
        let mut v: Vec<(Value, u64)> = values.iter().map(|v| (v.clone(), stats.count(v))).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        v
    };
    for (value, count) in ordered {
        // Pick the bin with the fewest tuples among bins with spare capacity.
        let candidate = (0..bins.len())
            .filter(|&b| bins[b].len() < shape.sensitive_bin_capacity)
            .min_by_key(|&b| (totals[b], b))
            .ok_or_else(|| PdsError::Binning("no sensitive bin has spare capacity".into()))?;
        bins[candidate].push(value);
        totals[candidate] += count;
    }
    Ok(bins)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats_of(counts: &[(&str, u64)]) -> AttributeStats {
        AttributeStats::from_counts(counts.iter().map(|&(v, c)| (Value::from(v), c)).collect())
    }

    fn values_of(names: &[&str]) -> Vec<Value> {
        names.iter().map(|&n| Value::from(n)).collect()
    }

    /// Example 3 of the paper: 10 sensitive values s1..s10, 10 non-sensitive
    /// values where ns1, ns2, ns3, ns5, ns6 are associated (same value as
    /// the sensitive side) and ns11..ns15 are not.
    fn example3() -> QueryBinning {
        let sensitive = values_of(&["s1", "s2", "s3", "s4", "s5", "s6", "s7", "s8", "s9", "s10"]);
        let nonsensitive = values_of(&[
            "s1", "s2", "s3", "s5", "s6", "ns11", "ns12", "ns13", "ns14", "ns15",
        ]);
        let s_stats = AttributeStats::from_values(sensitive.iter());
        let ns_stats = AttributeStats::from_values(nonsensitive.iter());
        QueryBinning::build_from_values(
            "EId",
            sensitive,
            nonsensitive,
            s_stats,
            ns_stats,
            BinningConfig::default(),
        )
        .unwrap()
    }

    #[test]
    fn example3_shape_and_invariants() {
        let qb = example3();
        assert_eq!(qb.shape().sensitive_bins, 5);
        assert_eq!(qb.shape().sensitive_bin_capacity, 2);
        assert_eq!(qb.shape().nonsensitive_bins, 2);
        assert_eq!(qb.shape().nonsensitive_bin_capacity, 5);
        qb.check_invariants().unwrap();
        // Every value assigned exactly once.
        let total_s: usize = (0..qb.sensitive_bin_count())
            .map(|i| qb.sensitive_bin(i).len())
            .sum();
        assert_eq!(total_s, 10);
        let total_ns: usize = (0..qb.nonsensitive_bin_count())
            .map(|j| qb.nonsensitive_bin(j).len())
            .sum();
        assert_eq!(total_ns, 10);
    }

    #[test]
    fn associated_values_retrieve_identical_pairs() {
        let qb = example3();
        // "s1" exists on both sides; R1 (as sensitive) and R2 (as
        // non-sensitive) must return the same bin pair.
        for v in ["s1", "s2", "s3", "s5", "s6"] {
            let value = Value::from(v);
            let s_assign = qb.sensitive_assignment(&value).unwrap();
            let pair = qb.retrieve(&value).unwrap();
            assert_eq!(pair.sensitive_bin, s_assign.bin);
            assert_eq!(pair.nonsensitive_bin, s_assign.position);
            let ns_assign = qb.nonsensitive_assignment(&value).unwrap();
            assert_eq!(ns_assign.bin, pair.nonsensitive_bin);
            assert_eq!(ns_assign.position, pair.sensitive_bin);
        }
    }

    #[test]
    fn unassociated_values_still_retrieve_pairs() {
        let qb = example3();
        for v in [
            "s4", "s7", "s8", "s9", "s10", "ns11", "ns12", "ns13", "ns14", "ns15",
        ] {
            let pair = qb.retrieve(&Value::from(v)).unwrap();
            assert!(pair.sensitive_bin < qb.sensitive_bin_count());
            assert!(pair.nonsensitive_bin < qb.nonsensitive_bin_count());
        }
    }

    #[test]
    fn unknown_value_retrieves_nothing() {
        let qb = example3();
        assert!(qb.retrieve(&Value::from("does-not-exist")).is_none());
    }

    #[test]
    fn all_bins_reachable_from_queries() {
        // Querying every value must exercise every sensitive bin and every
        // non-sensitive bin at least once — the precondition for every
        // surviving match being preserved.
        let qb = example3();
        let mut s_seen = vec![false; qb.sensitive_bin_count()];
        let mut ns_seen = vec![false; qb.nonsensitive_bin_count()];
        for v in [
            "s1", "s2", "s3", "s4", "s5", "s6", "s7", "s8", "s9", "s10", "ns11", "ns12", "ns13",
            "ns14", "ns15",
        ] {
            if let Some(pair) = qb.retrieve(&Value::from(v)) {
                s_seen[pair.sensitive_bin] = true;
                ns_seen[pair.nonsensitive_bin] = true;
            }
        }
        assert!(s_seen.iter().all(|&b| b));
        assert!(ns_seen.iter().all(|&b| b));
    }

    #[test]
    fn example5_fake_tuple_budget_is_near_optimal() {
        // Example 5: 9 sensitive values with 10..90 tuples over 3 bins.  The
        // naive first-way packing (Figure 5a) needs 270 fake tuples; the
        // best packing (Figure 5b) needs 0.  The greedy §IV-B strategy must
        // land close to the optimum.
        let names = ["s1", "s2", "s3", "s4", "s5", "s6", "s7", "s8", "s9"];
        let counts: Vec<(&str, u64)> = names
            .iter()
            .enumerate()
            .map(|(i, &n)| (n, (i as u64 + 1) * 10))
            .collect();
        let s_stats = stats_of(&counts);
        let ns_values = values_of(&["n1", "n2", "n3", "n4", "n5", "n6", "n7", "n8", "n9"]);
        let ns_stats = AttributeStats::from_values(ns_values.iter());
        let qb = QueryBinning::build_from_values(
            "Salary",
            values_of(&names),
            ns_values,
            s_stats,
            ns_stats,
            BinningConfig::default(),
        )
        .unwrap();
        assert_eq!(qb.shape().sensitive_bins, 3);
        let total_fakes = qb.total_fake_tuples();
        assert!(
            total_fakes <= 60,
            "greedy packing should need few fakes, got {total_fakes}"
        );
        // Every bin padded to the same effective size.
        let totals: Vec<u64> = (0..qb.sensitive_bin_count())
            .map(|i| {
                qb.sensitive_bin(i)
                    .iter()
                    .map(|v| qb.sensitive_stats().count(v))
                    .sum::<u64>()
                    + qb.fake_tuples_per_bin()[i]
            })
            .collect();
        assert!(
            totals.windows(2).all(|w| w[0] == w[1]),
            "padded sizes equal: {totals:?}"
        );
    }

    #[test]
    fn base_case_config_adds_no_fakes() {
        let qb = QueryBinning::build_from_values(
            "A",
            values_of(&["a", "b", "c", "d"]),
            values_of(&["a", "b", "x", "y"]),
            stats_of(&[("a", 5), ("b", 1), ("c", 1), ("d", 1)]),
            stats_of(&[("a", 1), ("b", 1), ("x", 1), ("y", 1)]),
            BinningConfig::base_case(7),
        )
        .unwrap();
        assert_eq!(qb.total_fake_tuples(), 0);
        qb.check_invariants().unwrap();
    }

    #[test]
    fn base_case_permutation_depends_on_seed() {
        let build = |seed| {
            let s_vals: Vec<Value> = (0..64i64).map(Value::Int).collect();
            let ns_vals: Vec<Value> = (0..64i64).map(|i| Value::Int(i + 1000)).collect();
            QueryBinning::build_from_values(
                "A",
                s_vals.clone(),
                ns_vals.clone(),
                AttributeStats::from_values(s_vals.iter()),
                AttributeStats::from_values(ns_vals.iter()),
                BinningConfig::base_case(seed),
            )
            .unwrap()
        };
        let a = build(1);
        let b = build(2);
        let layout = |qb: &QueryBinning| {
            (0..qb.sensitive_bin_count())
                .map(|i| qb.sensitive_bin(i).to_vec())
                .collect::<Vec<_>>()
        };
        assert_ne!(
            layout(&a),
            layout(&b),
            "different seeds give different secret layouts"
        );
        let a2 = build(1);
        assert_eq!(layout(&a), layout(&a2), "same seed reproduces the layout");
    }

    #[test]
    fn empty_sides_and_errors() {
        assert!(QueryBinning::build_from_values(
            "A",
            vec![],
            vec![],
            AttributeStats::default(),
            AttributeStats::default(),
            BinningConfig::default(),
        )
        .is_err());

        // Only sensitive values: still binnable, queries touch only Rs bins.
        let qb = QueryBinning::build_from_values(
            "A",
            values_of(&["a", "b", "c"]),
            vec![],
            stats_of(&[("a", 1), ("b", 1), ("c", 1)]),
            AttributeStats::default(),
            BinningConfig::default(),
        )
        .unwrap();
        assert!(qb.retrieve(&Value::from("a")).is_some());

        // Only non-sensitive values.
        let qb = QueryBinning::build_from_values(
            "A",
            vec![],
            values_of(&["x", "y", "z", "w"]),
            AttributeStats::default(),
            stats_of(&[("x", 1), ("y", 1), ("z", 1), ("w", 1)]),
            BinningConfig::default(),
        )
        .unwrap();
        assert!(qb.retrieve(&Value::from("x")).is_some());
    }

    #[test]
    fn shape_override_is_respected_and_validated() {
        let shape = BinShape::with_sensitive_bins(2, 4, 4).unwrap();
        let qb = QueryBinning::build_from_values(
            "A",
            values_of(&["a", "b", "c", "d"]),
            values_of(&["e", "f", "g", "h"]),
            stats_of(&[("a", 1), ("b", 1), ("c", 1), ("d", 1)]),
            stats_of(&[("e", 1), ("f", 1), ("g", 1), ("h", 1)]),
            BinningConfig {
                shape_override: Some(shape),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(qb.shape().sensitive_bins, 2);

        let bad = BinShape::from_factors(1, 1);
        assert!(QueryBinning::build_from_values(
            "A",
            values_of(&["a", "b", "c", "d"]),
            values_of(&["e"]),
            stats_of(&[("a", 1), ("b", 1), ("c", 1), ("d", 1)]),
            stats_of(&[("e", 1)]),
            BinningConfig {
                shape_override: Some(bad),
                ..Default::default()
            },
        )
        .is_err());
    }

    #[test]
    fn all_values_is_memoized_and_sorted() {
        let qb = example3();
        let first = qb.all_values();
        assert!(first.windows(2).all(|w| w[0] < w[1]), "sorted, deduped");
        assert_eq!(first.len(), 15, "union of both sides");
        // Regression: `all_values` used to clone and sort the whole domain on
        // every call; it must now hand back the same build-time buffer.
        assert!(
            std::ptr::eq(first.as_ptr(), qb.all_values().as_ptr()),
            "repeated calls return the memoized buffer, not a fresh sort"
        );
    }

    #[test]
    fn metadata_size_scales_with_distinct_values_not_tuples() {
        let small = example3();
        let meta = small.metadata_size_bytes();
        assert!(meta > 0);
        // A binning over heavy-hitter values (large tuple counts) has the
        // same metadata size as one over singleton values.
        let heavy = QueryBinning::build_from_values(
            "EId",
            values_of(&["s1", "s2", "s3", "s4", "s5", "s6", "s7", "s8", "s9", "s10"]),
            values_of(&[
                "s1", "s2", "s3", "s5", "s6", "ns11", "ns12", "ns13", "ns14", "ns15",
            ]),
            stats_of(&[
                ("s1", 100_000),
                ("s2", 50_000),
                ("s3", 1),
                ("s4", 1),
                ("s5", 1),
                ("s6", 1),
                ("s7", 1),
                ("s8", 1),
                ("s9", 1),
                ("s10", 1),
            ]),
            AttributeStats::from_values(
                values_of(&[
                    "s1", "s2", "s3", "s5", "s6", "ns11", "ns12", "ns13", "ns14", "ns15",
                ])
                .iter(),
            ),
            BinningConfig::default(),
        )
        .unwrap();
        assert_eq!(heavy.metadata_size_bytes(), meta);
    }
}
