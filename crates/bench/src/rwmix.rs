//! Read/write-mix experiment over the Employee workload: cache
//! invalidation on insert, under load.
//!
//! The owner-side hot-bin cache (`pds_cloud::BinCache`, PR 3) memoises
//! whole decrypted bins; [`pds_core::QbExecutor::invalidate_cache_on_insert`]
//! is its staleness guard for writes.  This experiment drives both under a
//! mixed read/write load and measures the three things that matter:
//!
//! * **freshness** — after each write, cached reads return the *inserted*
//!   tuple, byte-identical to an uncached deployment replaying the same
//!   operation sequence (the invalidation really dropped the stale bins);
//! * **teeth** — a control arm that *skips* invalidation serves stale
//!   answers (proving the check can fail, i.e. the experiment measures
//!   something real);
//! * **cost** — the warm-cache hit rate drops right after a write
//!   (sensitive inserts clear everything; non-sensitive inserts drop one
//!   bin) and recovers as the bins are re-fetched.

use pds_cloud::{CloudServer, DbOwner, NetworkModel};
use pds_common::{PdsError, Result, TupleId, Value};
use pds_core::extensions::{InsertPlan, InsertPlanner};
use pds_core::{BinningConfig, QbExecutor, QueryBinning};
use pds_storage::{Partitioner, Tuple};
use pds_systems::NonDetScanEngine;
use pds_workload::{employee_relation, employee_sensitivity_policy};

/// One operation of the mixed workload.
#[derive(Debug, Clone, PartialEq)]
enum Op {
    /// Point query for a value.
    Read(Value),
    /// Insert one tuple whose searchable value is `value`, on the
    /// sensitive (`true`) or non-sensitive side.
    Insert {
        value: Value,
        sensitive: bool,
        id: u64,
    },
}

/// The outcome of one read/write-mix run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RwMixOutcome {
    /// Point queries executed.
    pub reads: usize,
    /// Inserts applied (sensitive + non-sensitive).
    pub writes: usize,
    /// Cache hit rate over the warm window right before the first write.
    pub hit_rate_before_write: f64,
    /// Cache hit rate over the window right after the first (sensitive)
    /// write — the invalidation cleared the cache, so this must drop.
    pub hit_rate_after_write: f64,
    /// Hit rate over the whole run.
    pub hit_rate_overall: f64,
    /// Whether every cached answer matched the uncached deployment
    /// replaying the identical operation sequence, byte for byte.
    pub answers_exact: bool,
    /// Whether the no-invalidation control arm diverged (stale answers) —
    /// must be `true`, or the experiment is not testing anything.
    pub stale_without_invalidation: bool,
}

impl RwMixOutcome {
    /// The gate `experiments rwmix` enforces.
    pub fn holds(&self) -> bool {
        self.answers_exact
            && self.stale_without_invalidation
            && self.hit_rate_after_write < self.hit_rate_before_write
    }
}

/// One deployment under test: executor + owner + cloud + a mirror of the
/// ground truth (for generating fresh tuple ids).
struct Arm {
    owner: DbOwner,
    cloud: CloudServer,
    executor: QbExecutor<NonDetScanEngine>,
    attr: pds_common::AttrId,
    arity: usize,
}

impl Arm {
    fn build(cache_bins: usize, seed: u64) -> Result<Self> {
        let relation = employee_relation();
        let policy = employee_sensitivity_policy(&relation)?;
        let parts = Partitioner::new(policy).split(&relation)?;
        let binning = QueryBinning::build(&parts, "EId", BinningConfig::default())?;
        let mut executor =
            QbExecutor::new(binning, NonDetScanEngine::new()).with_cache_capacity(cache_bins);
        let mut owner = DbOwner::new(seed);
        let mut cloud = CloudServer::new(NetworkModel::paper_wan());
        executor.outsource(&mut owner, &mut cloud, &parts)?;
        let attr = parts.sensitive.schema().attr_id("EId")?;
        Ok(Arm {
            owner,
            cloud,
            executor,
            attr,
            arity: parts.sensitive.schema().arity(),
        })
    }

    /// Applies one operation; reads return the sorted encoded answer.
    fn apply(&mut self, op: &Op, invalidate: bool) -> Result<Option<Vec<Vec<u8>>>> {
        match op {
            Op::Read(value) => {
                let ts = self
                    .executor
                    .select(&mut self.owner, &mut self.cloud, value)?;
                let mut enc: Vec<Vec<u8>> = ts.iter().map(Tuple::encode).collect();
                enc.sort();
                Ok(Some(enc))
            }
            Op::Insert {
                value,
                sensitive,
                id,
            } => {
                // The new tuple carries the searchable value plus filler
                // attributes; the id is pre-assigned so every arm inserts
                // the identical tuple.
                let mut values = vec![Value::Null; self.arity];
                values[self.attr.index()] = value.clone();
                let tuple = Tuple::new(TupleId::new(*id), values);
                if *sensitive {
                    // Sensitive side: encrypt and upload one more row with
                    // its attribute ciphertext (the NonDetScan engine scans
                    // that column per query, so the new row is immediately
                    // searchable).
                    let row = self.owner.encrypt_row(&tuple, Some(self.attr), Vec::new());
                    self.cloud.upload_encrypted(vec![row])?;
                } else {
                    // Non-sensitive side: live plaintext insert.
                    self.cloud.insert_plaintext(tuple)?;
                }
                if invalidate {
                    self.executor.invalidate_cache_on_insert(value, *sensitive);
                }
                Ok(None)
            }
        }
    }
}

/// The exhaustive Employee value workload.
fn employee_values() -> Result<Vec<Value>> {
    let relation = employee_relation();
    let policy = employee_sensitivity_policy(&relation)?;
    let parts = Partitioner::new(policy).split(&relation)?;
    let attr = parts.sensitive.schema().attr_id("EId")?;
    let mut values = parts.sensitive.distinct_values(attr);
    for v in parts.nonsensitive.distinct_values(attr) {
        if !values.contains(&v) {
            values.push(v);
        }
    }
    Ok(values)
}

/// Builds the mixed operation sequence: `warm_passes` read passes over the
/// exhaustive workload, then alternating (insert, read pass) windows —
/// first a sensitive insert (full cache clear), then a non-sensitive one
/// (single-bin drop) — then a final read pass.
fn build_ops(values: &[Value], warm_passes: usize, arm_seed: u64) -> Result<Vec<Op>> {
    // Pick insert values that keep their existing bin assignment so no
    // rebuild is needed mid-run (the planner's `ExistingAssignment` case).
    let relation = employee_relation();
    let policy = employee_sensitivity_policy(&relation)?;
    let parts = Partitioner::new(policy).split(&relation)?;
    let binning = QueryBinning::build(&parts, "EId", BinningConfig::default())?;
    let planner = InsertPlanner::new(&binning);
    let attr = parts.sensitive.schema().attr_id("EId")?;
    let pick = |sensitive: bool| -> Result<Value> {
        let side = if sensitive {
            &parts.sensitive
        } else {
            &parts.nonsensitive
        };
        side.distinct_values(attr)
            .into_iter()
            .find(|v| {
                matches!(
                    planner.plan(v, sensitive),
                    InsertPlan::ExistingAssignment { .. }
                )
            })
            .ok_or_else(|| PdsError::Config("no insertable value on that side".into()))
    };
    let sensitive_value = pick(true)?;
    let nonsensitive_value = pick(false)?;

    let mut ops = Vec::new();
    for _ in 0..warm_passes {
        ops.extend(values.iter().cloned().map(Op::Read));
    }
    ops.push(Op::Insert {
        value: sensitive_value,
        sensitive: true,
        id: 50_000_000 + arm_seed,
    });
    ops.extend(values.iter().cloned().map(Op::Read));
    ops.push(Op::Insert {
        value: nonsensitive_value,
        sensitive: false,
        id: 60_000_000 + arm_seed,
    });
    ops.extend(values.iter().cloned().map(Op::Read));
    Ok(ops)
}

/// Runs the read/write mix: a cached arm with invalidation (the system
/// under test), an uncached arm (ground truth), and a cached arm that
/// skips invalidation (the control proving staleness is observable).
pub fn run(cache_bins: usize, warm_passes: usize, seed: u64) -> Result<RwMixOutcome> {
    if cache_bins == 0 {
        return Err(PdsError::Config(
            "rwmix needs a nonzero cache (capacity 0 never hits)".into(),
        ));
    }
    let values = employee_values()?;
    let ops = build_ops(&values, warm_passes.max(1), 0)?;

    let mut cached = Arm::build(cache_bins, seed)?;
    let mut uncached = Arm::build(0, seed.wrapping_add(1))?;
    let mut no_invalidate = Arm::build(cache_bins, seed.wrapping_add(2))?;

    let pass = values.len();
    let mut reads = 0usize;
    let mut writes = 0usize;
    let mut answers_exact = true;
    let mut stale = false;
    // (hits, fetches) per window: the read pass before the first write and
    // the one right after it.
    let mut window_before = (0u64, 0u64);
    let mut window_after = (0u64, 0u64);
    let mut first_write_seen = false;
    let mut reads_since_write = usize::MAX;

    for op in &ops {
        let hits_before = cached.executor.cache_stats().hits;
        let fetches_before = cached.executor.cache_stats().fetches();
        let got = cached.apply(op, true)?;
        let expected = uncached.apply(op, true)?;
        let control = no_invalidate.apply(op, false)?;
        match op {
            Op::Read(_) => {
                reads += 1;
                answers_exact &= got == expected;
                stale |= control != expected;
                let hit = cached.executor.cache_stats().hits - hits_before;
                let fetch = cached.executor.cache_stats().fetches() - fetches_before;
                if !first_write_seen && reads > (warm_passes.max(1) - 1) * pass {
                    window_before.0 += hit;
                    window_before.1 += fetch;
                }
                if reads_since_write < pass {
                    window_after.0 += hit;
                    window_after.1 += fetch;
                    reads_since_write += 1;
                }
            }
            Op::Insert { .. } => {
                writes += 1;
                if !first_write_seen {
                    first_write_seen = true;
                    reads_since_write = 0;
                }
            }
        }
    }

    let stats = cached.executor.cache_stats();
    let rate = |(h, f): (u64, u64)| if f == 0 { 0.0 } else { h as f64 / f as f64 };
    Ok(RwMixOutcome {
        reads,
        writes,
        hit_rate_before_write: rate(window_before),
        hit_rate_after_write: rate(window_after),
        hit_rate_overall: stats.hit_rate(),
        answers_exact,
        stale_without_invalidation: stale,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn invalidation_keeps_answers_fresh_and_costs_hits() {
        let outcome = run(32, 2, 42).unwrap();
        assert!(outcome.reads > 0 && outcome.writes == 2);
        assert!(outcome.answers_exact, "{outcome:?}");
        assert!(
            outcome.stale_without_invalidation,
            "the control arm must prove staleness is observable: {outcome:?}"
        );
        assert!(
            (outcome.hit_rate_before_write - 1.0).abs() < 1e-12,
            "warm window must be all hits: {outcome:?}"
        );
        assert!(
            outcome.hit_rate_after_write < outcome.hit_rate_before_write,
            "invalidation must cost hits: {outcome:?}"
        );
        assert!(outcome.holds());
    }

    #[test]
    fn zero_capacity_is_rejected() {
        assert!(run(0, 1, 42).is_err());
    }
}
