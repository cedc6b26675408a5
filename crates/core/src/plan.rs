//! Query plans: the compiled form of a Query Binning batch.
//!
//! Every query entry point of the executor —
//! [`crate::QbExecutor::select`],
//! [`crate::QbExecutor::run_workload_transported`] and the extensions —
//! first **compiles** its batch into a [`QueryPlan`] and then **executes**
//! it:
//!
//! ```text
//! values ──compile──► QueryPlan ──execute──► answers
//!                      │ cache_served   (answered owner-side, 0 rounds)
//!                      │ per_shard[s]   (EpisodeSteps: a minimum cover of the batch's bins)
//!                      │ waiters        (every other slot, resolved from the fetched bins)
//!                      ▼
//!             CloudServer(shard s) ◄── FetchBinRequest → BinPayload
//! ```
//!
//! Each [`EpisodeStep`] runs as one adversarial-view episode on the shard
//! hosting its sensitive bin ([`execute_episode`] in process,
//! [`execute_shard_pipelined`] over TCP).  A step is either **composed** —
//! the clear-text bin travels in the same `FetchBinRequest` as the
//! sensitive side's last round — or **fine-grained**, with the clear-text
//! selection as a request of its own, as the executor's [`PlanMode`] says.
//! Composed, a back-end whose tokens the cloud resolves (det-index, arx,
//! the enclave/MPC simulators) takes one round; one that must first locate
//! its rows by storage address (nondet-scan, secret sharing, DPF) takes
//! two, the floor once the addresses come from a round of their own.
//! Fine-grained, every back-end takes one round more: two on det-index,
//! arx and the enclave/MPC simulators, three on the others.

use std::collections::VecDeque;

use pds_cloud::{BinEpisodeRequest, CloudServer, CorrelationWindow, DbOwner, TcpCloudClient};
use pds_common::{PdsError, Result};
use pds_storage::Tuple;
use pds_systems::{
    fine_grained_bin_episode, finish_episode, BinEpisodeOutcome, SecureSelectionEngine,
};

use crate::binning::BinPair;

/// How the executor chooses the wire shape of each episode.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum PlanMode {
    /// Every episode sends its clear-text bin in the same exchange as its
    /// sensitive side's last round
    /// ([`SecureSelectionEngine::select_bin_episode`]): one round on
    /// back-ends whose tokens the cloud resolves, two on back-ends that
    /// locate their rows by storage address first.
    #[default]
    Composed,
    /// Every episode sends the clear-text selection and the sensitive
    /// side's rounds as separate messages
    /// ([`pds_systems::fine_grained_bin_episode`]), one round more on every
    /// back-end: two on det-index, arx and the enclave/MPC simulators
    /// (the clear-text fetch, then the tags' or the enclave's fetch), three
    /// on nondet-scan, secret sharing and DPF (the clear-text fetch, the
    /// locating round, then the address fetch).  It is the reference the
    /// equivalence tests and the `experiments wire` rounds gate compare
    /// the composed path against on identical deployments.
    FineGrained,
}

/// One planned bin-pair episode: the pair it fetches, which shard hosts
/// it, and the full request the engine will execute.  A step serves no
/// slot of its own: every slot it helps answer reads its bins after the
/// fan-out.
#[derive(Debug, Clone)]
pub struct EpisodeStep {
    /// The bin pair being retrieved.
    pub pair: BinPair,
    /// Shard hosting the sensitive bin (the whole episode runs there).
    pub shard: usize,
    /// Whether the episode runs composed (the clear-text bin rides the
    /// sensitive side's last exchange) rather than fine-grained; set from
    /// the executor's [`PlanMode`].
    pub composed: bool,
    /// The bin-pair request handed to the back-end.
    pub request: BinEpisodeRequest,
}

/// A pair retrieval answered owner-side from the hot-bin cache during
/// planning (no cloud interaction, zero rounds).
#[derive(Debug, Clone)]
pub struct CacheServed {
    /// Position in the batch's answer vector.
    pub index: usize,
    /// The pair the cache served.
    pub pair: BinPair,
    /// Cached clear-text tuples of the non-sensitive bin.
    pub nonsensitive: Vec<Tuple>,
    /// Cached decrypted tuples of the sensitive bin.
    pub sensitive: Vec<Tuple>,
}

/// The compiled form of one query batch.
#[derive(Debug, Default)]
pub struct QueryPlan {
    /// The pairs the batch fetches, grouped by home shard in bin-major
    /// order: a minimum set covering every bin of the pairs the cache does
    /// not serve.  Each such pair that is not fresh (`BinCache::fresh`) is
    /// fetched as it stands; the bins those leave uncovered are covered by
    /// a maximum matching over fresh pairs inside the batch's bins, plus
    /// one pair per unmatched bin to its lowest-index fresh partner.
    pub per_shard: Vec<Vec<EpisodeStep>>,
    /// Retrievals served from the owner-side cache at planning time.
    pub cache_served: Vec<CacheServed>,
    /// Every slot the cache does not serve, with its pair: resolved after
    /// the fan-out from the fetched streams holding its two bins (the
    /// non-sensitive one possibly from another shard's episode).
    pub waiters: Vec<(usize, BinPair)>,
}

impl QueryPlan {
    /// An empty plan over `shard_count` shards.
    pub fn new(shard_count: usize) -> Self {
        QueryPlan {
            per_shard: (0..shard_count).map(|_| Vec::new()).collect(),
            cache_served: Vec::new(),
            waiters: Vec::new(),
        }
    }

    /// Number of episodes the plan sends to the cloud.
    pub fn step_count(&self) -> usize {
        self.per_shard.iter().map(Vec::len).sum()
    }
}

/// The outcome of executing one [`EpisodeStep`].
#[derive(Debug)]
pub struct EpisodeResult {
    /// The two result streams, pre-merge.
    pub outcome: BinEpisodeOutcome,
    /// Owner↔cloud rounds the episode took.
    pub rounds: u64,
}

/// Executes one planned episode against its shard: brackets it as one
/// adversarial-view episode, runs the composed or fine-grained path, and
/// reports its rounds as the shard's `round_trips` delta.  Free function so
/// a shard task of the executor's fan-out can call it without borrowing
/// the whole executor.
pub fn execute_episode<E: SecureSelectionEngine + ?Sized>(
    owner: &mut DbOwner,
    shard: &mut CloudServer,
    engine: &mut E,
    step: &EpisodeStep,
) -> Result<EpisodeResult> {
    let _span = pds_obs::obs_span("episode.execute");
    shard.begin_query();
    let rounds_before = shard.metrics().round_trips;
    let outcome = {
        let _engine_span = pds_obs::obs_span("engine.call");
        if step.composed {
            engine.select_bin_episode(owner, shard, &step.request)
        } else {
            fine_grained_bin_episode(engine, owner, shard, &step.request)
        }
    };
    shard.end_query();
    Ok(EpisodeResult {
        outcome: outcome?,
        rounds: shard.metrics().round_trips - rounds_before,
    })
}

/// Executes one shard's planned episodes over a daemon connection — the
/// only way an episode crosses TCP — and returns each episode's bin pair
/// and result, in the order the answers arrived.  Every result counts one
/// owner↔cloud round, whatever the window.
///
/// Up to `window` composed `FetchBinRequest`s
/// ([`BinEpisodeRequest::to_wire`]) are framed and written back-to-back
/// (vectored writes, no response awaited in between), and responses are
/// matched back to their episodes by correlation id in whatever order the
/// daemon's worker pool finishes them.  A window of 1 is lock-step: one
/// request on the socket, then its answer.  Each episode's owner-side work
/// is split in two halves — [`SecureSelectionEngine::tags`] before the
/// uplink, [`finish_episode`] after the downlink — so the client keeps
/// issuing requests while earlier responses are still being computed
/// cloud-side.
///
/// The shard lives in a [`pds_cloud::ShardDaemon`]'s address space, so
/// only composed episodes whose tags the daemon's tag index resolves can
/// travel.  Two kinds of step are refused with a typed [`PdsError::Wire`]
/// naming the back-end, before any episode request is written:
///
/// * a **fine-grained** step (any back-end under
///   [`PlanMode::FineGrained`]) needs in-process server access;
/// * a step of a back-end whose `tags` are `None` locates its sensitive
///   rows engine-side: nondet-scan, secret sharing and DPF in rounds of
///   their own before the address fetch, the enclave/MPC simulators inside
///   the enclave.  Serving them here would need the daemon to bracket one
///   episode across several messages.
///
/// Failure handling:
///
/// * a transported **error frame** aborts the shard — the daemon refused
///   the episode, and replaying it would be refused again;
/// * a **transport failure** (daemon died mid-batch, stream torn) triggers
///   one eager [`TcpCloudClient::reconnect`]; the unanswered episodes are
///   replayed on the fresh connection (safe: composed bin-pair episodes
///   are idempotent reads).  A second failure aborts with a typed error;
/// * a response with an **unknown or uncorrelated id** is a protocol
///   violation: typed error, no replay — a stream that misattributes
///   responses cannot be trusted with a retry.
pub fn execute_shard_pipelined<E: SecureSelectionEngine + ?Sized>(
    owner: &mut DbOwner,
    client: &TcpCloudClient,
    shard: usize,
    engine: &mut E,
    steps: &[EpisodeStep],
    window: usize,
) -> Result<Vec<(BinPair, EpisodeResult)>> {
    let _span = pds_obs::obs_span("episode.pipelined");
    if steps.iter().any(|step| !step.composed) {
        return Err(PdsError::Wire(format!(
            "the {} back-end was planned fine-grained (PlanMode::FineGrained), \
             which needs in-process server access; only composed single-round \
             episodes travel over BinTransport::Tcp",
            engine.name()
        )));
    }
    let attr = engine.searchable_attr()?;
    let window = window.max(1);
    let mut conn = client.checkout(shard)?;
    let mut inflight = CorrelationWindow::new();
    let mut queue: VecDeque<usize> = (0..steps.len()).collect();
    let mut episodes: Vec<(BinPair, EpisodeResult)> = Vec::with_capacity(steps.len());
    let mut reconnected = false;

    while !queue.is_empty() || !inflight.is_empty() {
        // Fill the window: frame and buffer requests, reading nothing back.
        while inflight.len() < window {
            let Some(slot) = queue.pop_front() else { break };
            let step = &steps[slot];
            let tags = engine
                .tags(owner, &step.request.sensitive_values)?
                .ok_or_else(|| {
                    PdsError::Wire(format!(
                        "the {} back-end locates its sensitive rows engine-side (a \
                         column download, share or DPF evaluation, or enclave scan); \
                         only episodes whose tokens the daemon's tag index resolves \
                         travel over BinTransport::Tcp",
                        engine.name()
                    ))
                })?;
            let corr = conn.enqueue_bin_pair(step.request.to_wire(tags, &[]))?;
            inflight.track(corr, slot)?;
        }
        // Put the window on the socket and drain one response;
        // out-of-order completion is expected.
        let (corr, answer) = match conn.flush().and_then(|()| conn.recv_bin_pair()) {
            Ok(received) => received,
            Err(e) if reconnected => return Err(e),
            Err(_) => {
                reconnected = true;
                for slot in inflight.drain_slots().into_iter().rev() {
                    queue.push_front(slot);
                }
                conn = client.reconnect(shard)?;
                continue;
            }
        };
        if corr == 0 {
            return Err(PdsError::Wire(
                "daemon answered without a correlation id; pipelined dispatch \
                 matches every answer to its request by id"
                    .into(),
            ));
        }
        let slot = inflight.resolve(corr)?;
        let step = &steps[slot];
        let outcome = finish_episode(owner, attr, &step.request, answer?)?;
        episodes.push((step.pair, EpisodeResult { outcome, rounds: 1 }));
    }
    client.checkin(shard, conn);
    Ok(episodes)
}
