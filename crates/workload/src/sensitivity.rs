//! Sensitivity assigners: marking an α-fraction of a relation sensitive.
//!
//! The paper's experiments sweep the sensitivity ratio α (1 %, 5 %, 20 %,
//! 40 %, 60 %, …).  How data gets classified is outside the paper's scope,
//! so the assigner here simply picks which tuples are sensitive **by
//! value**: whole value groups become sensitive (every tuple holding a
//! chosen searchable value).  This keeps the value-level structure QB bins
//! over clean, and is how a real policy ("department X is sensitive")
//! behaves.

use pds_common::{AttrId, PdsError, Result, Value};
use pds_storage::{Predicate, Relation, SensitivityPolicy};

/// Picks sensitive subsets of a relation to hit a target sensitivity ratio.
#[derive(Debug, Clone)]
pub struct SensitivityAssigner {
    seed: u64,
}

impl SensitivityAssigner {
    /// Creates an assigner with a deterministic seed.
    pub fn new(seed: u64) -> Self {
        SensitivityAssigner { seed }
    }

    /// Marks whole value groups of `attr` sensitive until roughly an
    /// `alpha` fraction of *tuples* is sensitive.  Returns the policy.
    pub fn by_value_fraction(
        &self,
        relation: &Relation,
        attr: AttrId,
        alpha: f64,
    ) -> Result<SensitivityPolicy> {
        if !(0.0..=1.0).contains(&alpha) {
            return Err(PdsError::Config(format!(
                "alpha must be in [0,1], got {alpha}"
            )));
        }
        if alpha == 0.0 {
            return Ok(SensitivityPolicy::nothing_sensitive());
        }
        if alpha >= 1.0 {
            return Ok(SensitivityPolicy::everything_sensitive());
        }
        let stats = relation.attribute_stats(attr);
        let mut values: Vec<Value> = relation.distinct_values(attr);
        let mut rng = pds_common::rng::seeded_rng(self.seed);
        pds_common::rng::shuffle(&mut values, &mut rng);

        let target = (alpha * relation.len() as f64).round() as u64;
        let mut chosen = Vec::new();
        let mut covered = 0u64;
        for v in values {
            if covered >= target {
                break;
            }
            covered += stats.count(&v);
            chosen.push(v);
        }
        Ok(SensitivityPolicy::rows(Predicate::InSet {
            attr,
            values: chosen,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tpch::{TpchConfig, TpchGenerator};
    use pds_storage::Partitioner;

    fn small_lineitem() -> Relation {
        TpchGenerator::new(TpchConfig {
            lineitem_tuples: 1_000,
            distinct_partkeys: 50,
            distinct_suppkeys: 10,
            skew: 0.0,
            seed: 3,
        })
        .lineitem()
    }

    #[test]
    fn by_value_fraction_hits_target_roughly() {
        let rel = small_lineitem();
        let attr = rel.schema().attr_id("L_PARTKEY").unwrap();
        for alpha in [0.1, 0.3, 0.6] {
            let policy = SensitivityAssigner::new(1)
                .by_value_fraction(&rel, attr, alpha)
                .unwrap();
            let parts = Partitioner::new(policy).split(&rel).unwrap();
            let measured = parts.alpha();
            assert!(
                (measured - alpha).abs() < 0.08,
                "alpha target {alpha}, measured {measured}"
            );
        }
    }

    #[test]
    fn extreme_alphas() {
        let rel = small_lineitem();
        let attr = rel.schema().attr_id("L_PARTKEY").unwrap();
        let p0 = SensitivityAssigner::new(1)
            .by_value_fraction(&rel, attr, 0.0)
            .unwrap();
        assert_eq!(Partitioner::new(p0).split(&rel).unwrap().sensitive.len(), 0);
        let p1 = SensitivityAssigner::new(1)
            .by_value_fraction(&rel, attr, 1.0)
            .unwrap();
        assert_eq!(
            Partitioner::new(p1).split(&rel).unwrap().nonsensitive.len(),
            0
        );
        assert!(SensitivityAssigner::new(1)
            .by_value_fraction(&rel, attr, 1.5)
            .is_err());
    }

    #[test]
    fn assignment_is_deterministic_per_seed() {
        let rel = small_lineitem();
        let attr = rel.schema().attr_id("L_PARTKEY").unwrap();
        let a = SensitivityAssigner::new(9)
            .by_value_fraction(&rel, attr, 0.3)
            .unwrap();
        let b = SensitivityAssigner::new(9)
            .by_value_fraction(&rel, attr, 0.3)
            .unwrap();
        let pa = Partitioner::new(a).split(&rel).unwrap();
        let pb = Partitioner::new(b).split(&rel).unwrap();
        assert_eq!(pa.sensitive.len(), pb.sensitive.len());
    }
}
