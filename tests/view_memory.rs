//! Bounded adversarial-view memory under a long Query Binning session.
//!
//! Every QB query fetches one whole (sensitive bin, non-sensitive bin)
//! pair, so however long a read-only session runs each shard observes at
//! most |SB|·|NSB| distinct things, built from at most |SB| + 3·|NSB| + 2
//! distinct lists.  The view keeps every episode (with its own id, in
//! order) but must store each distinct list and observation once, so its
//! memory grows by one id and one pointer per episode.  Inserts are what
//! still grow it: a non-sensitive insert of an already-binned value adds
//! at most two lists per shard, and one of a value the binning does not
//! hold adds none.

use partitioned_data_security::common::TupleId;
use partitioned_data_security::prelude::*;
use partitioned_data_security::storage::PartitionedRelation;

const EPISODES: usize = 20_000;
const SHARDS: usize = 2;

/// A two-shard det-index QB deployment of the Employee relation, with no
/// owner-side cache, so every read is one episode on one shard.
struct Deployment {
    parts: PartitionedRelation,
    executor: QbExecutor<DeterministicIndexEngine>,
    owner: DbOwner,
    router: ShardRouter,
    /// Every value either side of the partition binned.
    values: Vec<Value>,
}

impl Deployment {
    fn new() -> Self {
        let relation = employee_relation();
        let policy = employee_sensitivity_policy(&relation).unwrap();
        let parts = Partitioner::new(policy).split(&relation).unwrap();
        let binning = QueryBinning::build(&parts, "EId", BinningConfig::default()).unwrap();
        let values = binning.all_values().to_vec();
        let mut executor = QbExecutor::new(binning, DeterministicIndexEngine::new());
        let mut owner = DbOwner::new(7);
        let mut router = ShardRouter::new(SHARDS, NetworkModel::paper_wan(), 3).unwrap();
        executor.outsource(&mut owner, &mut router, &parts).unwrap();
        Deployment {
            parts,
            executor,
            owner,
            router,
            values,
        }
    }

    fn bins(&self) -> (usize, usize) {
        let binning = self.executor.binning();
        (
            binning.sensitive_bin_count(),
            binning.nonsensitive_bin_count(),
        )
    }

    fn read(&mut self, values: &[Value]) {
        self.executor
            .run_workload(&mut self.owner, &mut self.router, values)
            .unwrap();
    }

    /// Inserts a non-sensitive tuple on every shard, then drops the
    /// owner's cached bin of its value.
    fn insert(&mut self, tuple: &Tuple) {
        for shard in self.router.shards_mut() {
            shard.insert_plaintext(tuple.clone()).unwrap();
        }
        let attr = self.parts.nonsensitive.schema().attr_id("EId").unwrap();
        self.executor
            .invalidate_cache_on_insert(tuple.value(attr), false);
    }

    /// Shared lists, per shard.
    fn shared_lists(&self) -> Vec<usize> {
        self.router
            .adversarial_views()
            .into_iter()
            .map(shared_lists)
            .collect()
    }
}

/// Shared value plus id lists of one view.
fn shared_lists(view: &AdversarialView) -> usize {
    view.shared_value_lists() + view.shared_id_lists()
}

#[test]
fn repeated_qb_episodes_share_one_observation_per_bin_pair() {
    let mut d = Deployment::new();
    let (sb, nsb) = d.bins();
    let workload: Vec<Value> = d.values.iter().cycle().take(EPISODES).cloned().collect();
    d.read(&workload);

    let views = d.router.adversarial_views();
    let episodes: usize = views.iter().map(|v| v.len()).sum();
    assert_eq!(episodes, EPISODES, "every episode is kept");
    for (shard, view) in views.iter().enumerate() {
        assert!(
            view.distinct_observations() <= sb * nsb,
            "shard {shard}: {} distinct observations over {} episodes, \
             at most {} bin pairs",
            view.distinct_observations(),
            view.len(),
            sb * nsb,
        );
        let lists = shared_lists(view);
        assert!(
            lists <= sb + 3 * nsb + 2,
            "shard {shard}: {lists} shared lists over {} episodes",
            view.len(),
        );
        assert_eq!(view.sensitive_loads().episodes, view.len() as u64);
    }
    assert!(check_sharded_partitioned_security(&views).is_secure());
}

/// A write-heavy session: every insert copies an existing non-sensitive
/// tuple (so its value is already binned) under a fresh id onto every
/// shard, so the next read of its bin returns a grown id list and value
/// list.  Each shard's shared lists grow by at most two per insert, and
/// re-reading every bin adds none.  A tuple whose value the binning does
/// not hold, inserted first, is never requested and adds none at all.
#[test]
fn inserts_grow_shared_lists_by_at_most_two_and_reads_by_none() {
    const INSERTS: usize = 24;
    let mut d = Deployment::new();
    let (sb, nsb) = d.bins();
    let attr = d.parts.nonsensitive.schema().attr_id("EId").unwrap();
    let templates = d.parts.nonsensitive.tuples().to_vec();
    let first_id = d
        .parts
        .sensitive
        .tuples()
        .iter()
        .chain(&templates)
        .map(|t| t.id.raw())
        .chain(d.executor.fake_tuple_ids().iter().map(|id| id.raw()))
        .max()
        .unwrap()
        + 1;

    let mut unbinned = Tuple::new(
        TupleId::new(first_id + INSERTS as u64),
        templates[0].values.clone(),
    );
    *unbinned.value_mut(attr) = Value::from("unbinned");
    assert!(d
        .executor
        .binning()
        .nonsensitive_assignment(unbinned.value(attr))
        .is_none());
    let values = d.values.clone();
    d.read(&values);
    let before = d.shared_lists();
    d.insert(&unbinned);
    d.read(&values);
    assert_eq!(
        d.shared_lists(),
        before,
        "inserting an unbinned value added lists"
    );

    let mut reads = 2 * values.len();
    for inserts in 0..=INSERTS {
        d.read(&values);
        let after_first_pass = d.shared_lists();
        d.read(&values);
        reads += 2 * values.len();
        assert_eq!(
            d.shared_lists(),
            after_first_pass,
            "after {inserts} inserts, re-reading every bin added lists"
        );
        let bound = sb + 3 * nsb + 2 * inserts + 2;
        for (shard, lists) in after_first_pass.into_iter().enumerate() {
            assert!(
                lists <= bound,
                "shard {shard}: {lists} shared lists after {inserts} inserts, at most {bound}"
            );
        }
        if inserts == INSERTS {
            break;
        }
        let template = &templates[inserts % templates.len()];
        let id = TupleId::new(first_id + inserts as u64);
        d.insert(&Tuple::new(id, template.values.clone()));
    }

    let views = d.router.adversarial_views();
    let episodes: usize = views.iter().map(|v| v.len()).sum();
    assert_eq!(episodes, reads, "every episode is kept");
    for (shard, view) in views.iter().enumerate() {
        assert!(
            shared_lists(view) > sb + 3 * nsb + 2,
            "shard {shard} observed the inserts"
        );
        let bound = sb * (nsb + INSERTS);
        assert!(
            view.distinct_observations() <= bound,
            "shard {shard}: {} distinct observations, at most {bound}",
            view.distinct_observations(),
        );
    }
    assert!(check_sharded_partitioned_security(&views).is_secure());
}

/// The adversary's whole surviving-matches state (groups, edges and
/// candidate values, all in a fixed order), as text.
fn surviving_matches(view: &AdversarialView) -> String {
    format!("{:?}", SurvivingMatches::from_view(view))
}

/// Per shard, everything about a view that must not depend on how often
/// an episode was recorded, plus the sharded security report.
fn verdict(d: &Deployment) -> (Vec<(usize, usize, u64, String)>, ShardedSecurityReport) {
    let views = d.router.adversarial_views();
    let shards = views
        .iter()
        .map(|v| {
            (
                v.distinct_observations(),
                shared_lists(v),
                v.sensitive_loads().max,
                surviving_matches(v),
            )
        })
        .collect();
    (shards, check_sharded_partitioned_security(&views))
}

/// A client that reconnects after a torn connection replays its
/// outstanding window, so a daemon that had already served some of those
/// requests records their episodes a second time.  The checker must be
/// blind to that: only the counts of episodes grow.
#[test]
fn a_replayed_window_of_episodes_changes_no_verdict() {
    let mut d = Deployment::new();
    let values = d.values.clone();
    d.read(&values);
    let (shards, mut report) = verdict(&d);
    let composed = surviving_matches(&d.router.composed_view());
    let loads: Vec<_> = d
        .router
        .adversarial_views()
        .iter()
        .map(|v| v.sensitive_loads())
        .collect();
    assert!(report.is_secure());

    // Record the middle of the session a second time.
    let window = &values[values.len() / 4..values.len() * 3 / 4];
    d.read(window);

    let (shards_after, mut report_after) = verdict(&d);
    assert_eq!(shards_after, shards);
    assert_eq!(surviving_matches(&d.router.composed_view()), composed);
    // What grows: the episode counts, by the replayed window, and with
    // them the load sum; every QB load is the same, so the mean does not
    // move.
    let mut replayed = 0;
    for (view, before) in d.router.adversarial_views().iter().zip(&loads) {
        let now = view.sensitive_loads();
        assert_eq!(now.episodes, view.len() as u64);
        assert_eq!(now.total, now.episodes * now.max);
        replayed += now.episodes - before.episodes;
    }
    assert_eq!(replayed, window.len() as u64);
    assert_eq!(
        report_after.composed.episodes,
        report.composed.episodes + window.len()
    );
    // Everything else in the report (verdicts, dropped matches,
    // ambiguity, output sizes) is unchanged.
    for r in [&mut report, &mut report_after] {
        for shard in r.per_shard.iter_mut().chain([&mut r.composed]) {
            shard.episodes = 0;
        }
    }
    assert_eq!(report_after, report);
}
