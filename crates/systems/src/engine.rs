//! The common interface of secure selection back-ends.

use pds_cloud::{BinEpisodeRequest, CloudServer, CloudSession, DbOwner};
use pds_common::PdsError;
use pds_common::{AttrId, Result, TupleId, Value};
use pds_crypto::Ciphertext;
use pds_storage::{Relation, Tuple};

use crate::cost::CostProfile;

/// The two result streams of one Query Binning bin-pair episode, before
/// owner-side merging: the clear-text non-sensitive tuples and the
/// decrypted, fake-filtered sensitive tuples.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BinEpisodeOutcome {
    /// Clear-text tuples of the non-sensitive bin.
    pub nonsensitive: Vec<Tuple>,
    /// Decrypted real tuples of the sensitive bin (fakes already dropped,
    /// false positives already filtered).
    pub sensitive: Vec<Tuple>,
}

/// A cryptographic technique able to outsource a relation and answer
/// equality / `IN`-set selection queries over the encrypted data.
///
/// The workflow is always:
/// 1. [`SecureSelectionEngine::outsource`] — encrypt and upload the relation
///    (plus whatever cloud-side index structures the technique uses);
/// 2. repeated [`SecureSelectionEngine::select`] calls — each one runs a
///    selection for a *set* of values (Query Binning always asks for a whole
///    sensitive bin at once) and returns the decrypted, filtered tuples.
///
/// Implementations must only return **real** tuples whose searchable
/// attribute is one of the requested values; fake/padding tuples and false
/// positives are filtered owner-side before returning.
///
/// Engines are `Send`: sharded deployments fork one engine per shard and
/// the threaded transport (`pds_cloud::BinTransport::Threaded`) moves each
/// fork onto its shard's OS thread, so every back-end's per-shard state
/// must be transferable across threads (all six workspace engines hold
/// only owned data, so this is a compile-time guarantee, not a runtime
/// cost).
///
/// The trait is **object safe**: a deployment can hold
/// `Box<dyn SecureSelectionEngine>` engines, which is how sharded
/// deployments run a *different* back-end per shard
/// ([`SecureSelectionEngine::fork_boxed`] replaces the `Sized`-only
/// [`SecureSelectionEngine::fork`] behind a trait object).
pub trait SecureSelectionEngine: Send {
    /// Short human-readable name used in experiment output.
    fn name(&self) -> &'static str;

    /// Encrypts `relation` (searchable attribute `attr`) and uploads it.
    fn outsource(
        &mut self,
        owner: &mut DbOwner,
        cloud: &mut CloudServer,
        relation: &Relation,
        attr: AttrId,
    ) -> Result<()>;

    /// Runs an encrypted selection for the given set of values and returns
    /// the matching decrypted tuples.
    fn select(
        &mut self,
        owner: &mut DbOwner,
        cloud: &mut CloudServer,
        values: &[Value],
    ) -> Result<Vec<Tuple>>;

    /// The cost profile used to convert work counters into simulated time.
    fn cost_profile(&self) -> CostProfile;

    /// A fresh engine of the same kind and configuration with no outsourced
    /// state.  Sharded deployments ([`pds_cloud::ShardRouter`]) fork one
    /// engine per shard so every shard's outsourced state (keys stay with
    /// the owner; domains, histograms and shares live in the engine) remains
    /// isolated from its siblings.
    fn fork(&self) -> Self
    where
        Self: Sized;

    /// [`SecureSelectionEngine::fork`] behind a trait object: a fresh boxed
    /// engine of the same kind and configuration.  Heterogeneous sharded
    /// deployments (`Box<dyn SecureSelectionEngine>` per shard) fork
    /// through this.
    fn fork_boxed(&self) -> Box<dyn SecureSelectionEngine>;

    /// Whether this back-end answers a whole composed bin-pair episode in
    /// **one round trip** (a single `BinPairRequest` frame up, a single
    /// `BinPayload` frame down).  Back-ends whose §V-B search procedure is
    /// inherently multi-round return `false` and run the fine-grained path.
    fn composes_episodes(&self) -> bool {
        false
    }

    /// Executes one whole Query Binning bin-pair episode through a
    /// [`CloudSession`]: the clear-text sub-query for the non-sensitive bin
    /// plus the encrypted sub-query for the sensitive bin, inside the
    /// episode the caller has already opened.
    ///
    /// The default runs the two composed halves around one
    /// `BinPairRequest` — [`SecureSelectionEngine::composed_wire_tags`],
    /// the cloud's tag-index lookup, then
    /// [`SecureSelectionEngine::finish_composed`] — so an in-process
    /// episode and a TCP one share every owner-side step.  A back-end that
    /// does not split falls back to the fine-grained multi-round path
    /// ([`fine_grained_bin_episode`]).  Back-ends whose composed episode
    /// resolves its tokens engine-side (the enclave/MPC simulators)
    /// override it.
    fn select_bin_episode(
        &mut self,
        owner: &mut DbOwner,
        session: &mut CloudSession<'_>,
        request: &BinEpisodeRequest,
    ) -> Result<BinEpisodeOutcome> {
        match self.composed_wire_tags(owner, request)? {
            Some(tags) => {
                let (nonsensitive, rows) = session.bin_pair_by_tags(request, tags)?;
                self.finish_composed(owner, request, nonsensitive, rows)
            }
            None => fine_grained_bin_episode(self, owner, session, request),
        }
    }

    /// Whether the technique hides which encrypted tuples satisfied the
    /// query (access-pattern hiding).  QB does not require it; the paper
    /// notes access-pattern-hiding back-ends compose with QB too.
    fn hides_access_pattern(&self) -> bool {
        false
    }

    /// The uplink half of a composed episode: the opaque search tokens of
    /// the sensitive bin, ready to ride a `BinPairRequest` that the
    /// cloud's tag index resolves.  Returns `Ok(None)` when this back-end
    /// cannot split the episode this way; `Err` for owner-side failures
    /// such as querying before outsourcing.
    ///
    /// A back-end travels over TCP exactly when this returns `Some`: the
    /// owner writes a whole window of such requests before reading any
    /// answer, which needs an uplink half that only *builds* tokens and a
    /// downlink half ([`SecureSelectionEngine::finish_composed`]) that only
    /// *post-processes*, with no owner↔cloud exchange in between.
    fn composed_wire_tags(
        &mut self,
        owner: &mut DbOwner,
        request: &BinEpisodeRequest,
    ) -> Result<Option<Vec<Vec<u8>>>> {
        let _ = (owner, request);
        Ok(None)
    }

    /// The downlink half of a composed episode: owner-side
    /// decrypt-and-filter of a `BinPayload` that answered the tokens from
    /// [`SecureSelectionEngine::composed_wire_tags`].  Pure per-episode
    /// post-processing — it must not talk to the cloud, which is what
    /// makes out-of-order completion safe.
    fn finish_composed(
        &mut self,
        owner: &mut DbOwner,
        request: &BinEpisodeRequest,
        nonsensitive: Vec<Tuple>,
        rows: Vec<(TupleId, Ciphertext)>,
    ) -> Result<BinEpisodeOutcome> {
        let _ = (owner, request, nonsensitive, rows);
        Err(PdsError::Query(format!(
            "the {} back-end does not split composed episodes",
            self.name()
        )))
    }
}

/// Owner-side decrypt-and-filter over fetched sensitive rows: decrypts
/// every tuple ciphertext and keeps only tuples whose searchable attribute
/// is one of the requested `values`.  Padding fakes carry a real bin value
/// there, so they pass; the executor's `qmerge` drops them by tuple id.
///
/// This is the half of `qmerge` that every back-end's selection ends
/// with — kept in one place so no engine's path can drift (a diverging
/// copy that forgot the false-positive filter would leak rows of other
/// values into answers).
pub fn decrypt_real_matches(
    owner: &mut DbOwner,
    attr: AttrId,
    values: &[Value],
    rows: &[(TupleId, Ciphertext)],
) -> Result<Vec<Tuple>> {
    let mut out = Vec::with_capacity(rows.len());
    for (_, ct) in rows {
        let tuple = owner.decrypt_tuple(ct)?;
        if values.contains(tuple.value(attr)) {
            out.push(tuple);
        }
    }
    Ok(out)
}

/// The fine-grained multi-round form of one bin-pair episode: the
/// clear-text `IN` selection travels as its own message, with the planner's
/// pushed-down residual applied cloud-side, then the engine's
/// [`SecureSelectionEngine::select`] runs its usual (possibly multi-round)
/// procedure against the underlying server.
///
/// Free function (rather than only a trait default) so callers can force
/// the fine-grained path on engines that *do* compose — the equivalence
/// tests and the `experiments wire` rounds gate compare the two paths on
/// identical deployments.
pub fn fine_grained_bin_episode<E: SecureSelectionEngine + ?Sized>(
    engine: &mut E,
    owner: &mut DbOwner,
    session: &mut CloudSession<'_>,
    request: &BinEpisodeRequest,
) -> Result<BinEpisodeOutcome> {
    let _span = pds_obs::obs_span("engine.fine_grained");
    let nonsensitive = if request.nonsensitive_values.is_empty() {
        Vec::new()
    } else {
        session.plain_select_filtered(&request.nonsensitive_values, request.pushdown.as_ref())?
    };
    let sensitive = if request.sensitive_values.is_empty() {
        Vec::new()
    } else {
        engine.select(owner, session.server_mut(), &request.sensitive_values)?
    };
    Ok(BinEpisodeOutcome {
        nonsensitive,
        sensitive,
    })
}

impl SecureSelectionEngine for Box<dyn SecureSelectionEngine> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn outsource(
        &mut self,
        owner: &mut DbOwner,
        cloud: &mut CloudServer,
        relation: &Relation,
        attr: AttrId,
    ) -> Result<()> {
        (**self).outsource(owner, cloud, relation, attr)
    }

    fn select(
        &mut self,
        owner: &mut DbOwner,
        cloud: &mut CloudServer,
        values: &[Value],
    ) -> Result<Vec<Tuple>> {
        (**self).select(owner, cloud, values)
    }

    fn cost_profile(&self) -> CostProfile {
        (**self).cost_profile()
    }

    fn fork(&self) -> Self {
        (**self).fork_boxed()
    }

    fn fork_boxed(&self) -> Box<dyn SecureSelectionEngine> {
        (**self).fork_boxed()
    }

    fn composes_episodes(&self) -> bool {
        (**self).composes_episodes()
    }

    fn select_bin_episode(
        &mut self,
        owner: &mut DbOwner,
        session: &mut CloudSession<'_>,
        request: &BinEpisodeRequest,
    ) -> Result<BinEpisodeOutcome> {
        (**self).select_bin_episode(owner, session, request)
    }

    fn hides_access_pattern(&self) -> bool {
        (**self).hides_access_pattern()
    }

    fn composed_wire_tags(
        &mut self,
        owner: &mut DbOwner,
        request: &BinEpisodeRequest,
    ) -> Result<Option<Vec<Vec<u8>>>> {
        (**self).composed_wire_tags(owner, request)
    }

    fn finish_composed(
        &mut self,
        owner: &mut DbOwner,
        request: &BinEpisodeRequest,
        nonsensitive: Vec<Tuple>,
        rows: Vec<(TupleId, Ciphertext)>,
    ) -> Result<BinEpisodeOutcome> {
        (**self).finish_composed(owner, request, nonsensitive, rows)
    }
}

#[cfg(test)]
mod tests {
    use super::SecureSelectionEngine;

    fn assert_engine<E: SecureSelectionEngine + Send>() {}

    /// Compile-time proof that every back-end satisfies the `Send` bound the
    /// threaded shard fan-out relies on — a non-`Send` field sneaking into
    /// any engine breaks this test at compile time, not in a bench at 3 a.m.
    #[test]
    fn all_six_backends_are_send() {
        assert_engine::<crate::ArxEngine>();
        assert_engine::<crate::DeterministicIndexEngine>();
        assert_engine::<crate::DpfEngine>();
        assert_engine::<crate::NonDetScanEngine>();
        assert_engine::<crate::ObliviousScanEngine>();
        assert_engine::<crate::SecretSharingEngine>();
        // The boxed form the heterogeneous deployments use is an engine
        // too (and `Send`, since the trait object carries the bound).
        assert_engine::<Box<dyn SecureSelectionEngine>>();
    }

    /// Boxed forks preserve the concrete kind behind the trait object.
    #[test]
    fn boxed_forks_preserve_the_engine_kind() {
        let engines: Vec<Box<dyn SecureSelectionEngine>> = vec![
            Box::new(crate::NonDetScanEngine::new()),
            Box::new(crate::DeterministicIndexEngine::new()),
            Box::new(crate::ArxEngine::new()),
            Box::new(crate::DpfEngine::new(7)),
            Box::new(crate::SecretSharingEngine::default_deployment()),
            Box::new(crate::oblivious::opaque_sim()),
        ];
        for engine in &engines {
            let fork = engine.fork();
            assert_eq!(fork.name(), engine.name());
            assert_eq!(
                fork.composes_episodes(),
                engine.composes_episodes(),
                "{}",
                engine.name()
            );
        }
    }
}
