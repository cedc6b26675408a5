//! The common interface of secure selection back-ends.

use pds_cloud::{BinEpisodeRequest, BinPayload, CloudServer, DbOwner};
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
/// 2. repeated [`SecureSelectionEngine::select_bin_episode`] calls — each
///    one runs a Query Binning bin-pair episode: the clear-text selection
///    of a non-sensitive bin next to the encrypted selection of a whole
///    sensitive bin, decrypted and filtered owner-side.  A standalone
///    [`SecureSelectionEngine::select`] is the same episode with an empty
///    clear-text bin.
///
/// A back-end finds its sensitive rows one of two ways, and implements the
/// matching method:
///
/// * **by cloud-side tag** (det-index, arx): it builds opaque search tags
///   ([`SecureSelectionEngine::tags`]) that the cloud's tag index
///   resolves, so a whole bin-pair episode is one round;
/// * **by storage address** (nondet-scan, secret sharing, DPF): its own
///   rounds ([`SecureSelectionEngine::locate`]) find the matching
///   addresses, and the rows are fetched by address afterwards.  A
///   bin-pair episode then needs the locating rounds plus one fetch,
///   which carries the clear-text bin too; two rounds is the floor, since
///   the addresses exist only after the first.
///
/// Either way the rows arrive in one `FetchBinRequest`, served by
/// [`CloudServer::fetch_bin`], and the default
/// [`SecureSelectionEngine::select_bin_episode`] builds it from the tags or
/// from the located addresses.  That episode is the one method a back-end
/// may override: the enclave/MPC simulators do, since their enclave
/// resolves encrypted tokens cloud-side in the episode's one round and
/// implement neither `tags` nor `locate`.
///
/// Implementations must only return **real** tuples whose searchable
/// attribute is one of the requested values; fake/padding tuples and false
/// positives are filtered owner-side before returning.
///
/// Engines are `Send`: sharded deployments fork one engine per shard and
/// the threaded and TCP fan-out (`pds_cloud::BinTransport::dispatch`)
/// lends each fork to its shard's OS thread, so every back-end's
/// per-shard state must be transferable across threads (all six
/// workspace engines hold only owned data, so this is a compile-time
/// guarantee, not a runtime cost).
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

    /// The searchable attribute the relation was outsourced on; a typed
    /// [`PdsError::Query`] before outsourcing.
    fn searchable_attr(&self) -> Result<AttrId>;

    /// The back-end's own rounds of a selection: the storage addresses of
    /// the encrypted rows whose searchable value is one of `values`, found
    /// without fetching the rows.  Back-ends whose sensitive side the
    /// cloud's tag index resolves ([`SecureSelectionEngine::tags`]) have no
    /// such rounds and keep this default, which refuses.
    fn locate(
        &mut self,
        owner: &mut DbOwner,
        cloud: &mut CloudServer,
        values: &[Value],
    ) -> Result<Vec<TupleId>> {
        let _ = (owner, cloud, values);
        Err(PdsError::Query(format!(
            "the {} back-end resolves its sensitive side through the cloud's tag index, \
             not by storage address",
            self.name()
        )))
    }

    /// The opaque search tags of `values` that the cloud's tag index
    /// resolves (deterministic tags, Arx counter tokens).  Returns
    /// `Ok(None)` for back-ends that locate their rows by address instead;
    /// `Err` for owner-side failures such as querying before outsourcing.
    ///
    /// A back-end travels over TCP exactly when this returns `Some`: the
    /// owner writes a whole window of requests before reading any answer,
    /// which needs an uplink half that only *builds* tags and a downlink
    /// half ([`finish_episode`]) that only *post-processes*, with no
    /// owner↔cloud exchange in between.
    fn tags(&mut self, owner: &mut DbOwner, values: &[Value]) -> Result<Option<Vec<Vec<u8>>>> {
        let _ = (owner, values);
        Ok(None)
    }

    /// Runs an encrypted selection for the given set of values and returns
    /// the matching decrypted tuples: one
    /// [`SecureSelectionEngine::select_bin_episode`] with an empty
    /// clear-text bin, whose sensitive stream it returns.
    fn select(
        &mut self,
        owner: &mut DbOwner,
        cloud: &mut CloudServer,
        values: &[Value],
    ) -> Result<Vec<Tuple>> {
        let request = BinEpisodeRequest {
            sensitive_values: values.to_vec(),
            ..BinEpisodeRequest::default()
        };
        Ok(self.select_bin_episode(owner, cloud, &request)?.sensitive)
    }

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

    /// Executes one whole Query Binning bin-pair episode on its shard: the
    /// clear-text sub-query for the non-sensitive bin plus the encrypted
    /// sub-query for the sensitive bin, inside the episode the caller has
    /// already opened.  Every in-process selection runs through here.
    ///
    /// The default ends in one `FetchBinRequest`
    /// ([`BinEpisodeRequest::to_wire`]) answered by one `BinPayload`, then
    /// [`finish_episode`].  The request carries the clear-text bin values
    /// and the pushed-down residual next to either the sensitive bin's
    /// [`SecureSelectionEngine::tags`] — one round in all — or the
    /// addresses [`SecureSelectionEngine::locate`] found — its locating
    /// rounds plus one.  A request with no values, no tags and no
    /// addresses sends nothing.
    ///
    /// The enclave/MPC simulators, whose enclave resolves encrypted tokens
    /// cloud-side in the same round, override it.
    fn select_bin_episode(
        &mut self,
        owner: &mut DbOwner,
        cloud: &mut CloudServer,
        request: &BinEpisodeRequest,
    ) -> Result<BinEpisodeOutcome> {
        let attr = self.searchable_attr()?;
        let (tags, ids) = match self.tags(owner, &request.sensitive_values)? {
            Some(tags) => (tags, Vec::new()),
            // Like the fine-grained path, an empty sensitive bin costs no
            // locating rounds.
            None if request.sensitive_values.is_empty() => (Vec::new(), Vec::new()),
            None => (
                Vec::new(),
                self.locate(owner, cloud, &request.sensitive_values)?,
            ),
        };
        let wire = request.to_wire(tags, &ids);
        if wire.values.is_empty() && wire.tags.is_empty() && wire.ids.is_empty() {
            return Ok(BinEpisodeOutcome::default());
        }
        finish_episode(owner, attr, request, cloud.fetch_bin(&wire)?)
    }

    /// Whether the technique hides which encrypted tuples satisfied the
    /// query (access-pattern hiding).  QB does not require it; the paper
    /// notes access-pattern-hiding back-ends compose with QB too.
    fn hides_access_pattern(&self) -> bool {
        false
    }
}

/// The typed error every back-end returns when queried before
/// [`SecureSelectionEngine::outsource`].
pub(crate) fn not_outsourced() -> PdsError {
    PdsError::Query("relation not outsourced yet".into())
}

/// The downlink half of every episode: owner-side decrypt-and-filter of
/// the `BinPayload` that answered `request`.  Decrypts every tuple
/// ciphertext and keeps only tuples whose searchable attribute `attr`
/// holds one of the requested sensitive values; the clear-text tuples pass
/// through.  Padding fakes carry a real bin value, so they pass; the
/// executor's `qmerge` drops them by tuple id.
///
/// Pure post-processing — it never talks to the cloud, which is what makes
/// out-of-order completion over TCP safe.  Every back-end's episode, in
/// process and pipelined, ends here, so no path can drift (a diverging
/// copy that forgot the false-positive filter would leak rows of other
/// values into answers).
pub fn finish_episode(
    owner: &mut DbOwner,
    attr: AttrId,
    request: &BinEpisodeRequest,
    payload: BinPayload,
) -> Result<BinEpisodeOutcome> {
    let mut sensitive = Vec::with_capacity(payload.encrypted_rows.len());
    for row in payload.encrypted_rows {
        let tuple = owner.decrypt_tuple(&Ciphertext(row.tuple_ct))?;
        if request.sensitive_values.contains(tuple.value(attr)) {
            sensitive.push(tuple);
        }
    }
    Ok(BinEpisodeOutcome {
        nonsensitive: payload.plain_tuples,
        sensitive,
    })
}

/// The fine-grained form of one bin-pair episode, kept as the
/// separate-messages reference [`SecureSelectionEngine::select_bin_episode`]
/// is compared against: the clear-text `IN` selection travels as a
/// `FetchBinRequest` of its own, with the planner's pushed-down residual
/// applied cloud-side, then the engine's [`SecureSelectionEngine::select`]
/// runs its own rounds.  It takes one round more than the composed episode
/// on every back-end.
///
/// Free function (rather than a trait method) so callers can force the
/// fine-grained path on any engine — `PlanMode::FineGrained`, the
/// equivalence tests and the `experiments wire` rounds gate compare the
/// two paths on identical deployments.
pub fn fine_grained_bin_episode<E: SecureSelectionEngine + ?Sized>(
    engine: &mut E,
    owner: &mut DbOwner,
    cloud: &mut CloudServer,
    request: &BinEpisodeRequest,
) -> Result<BinEpisodeOutcome> {
    let _span = pds_obs::obs_span("engine.fine_grained");
    let nonsensitive = if request.nonsensitive_values.is_empty() {
        Vec::new()
    } else {
        cloud
            .fetch_bin(&request.to_wire(Vec::new(), &[]))?
            .plain_tuples
    };
    let sensitive = if request.sensitive_values.is_empty() {
        Vec::new()
    } else {
        engine.select(owner, cloud, &request.sensitive_values)?
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

    fn searchable_attr(&self) -> Result<AttrId> {
        (**self).searchable_attr()
    }

    fn locate(
        &mut self,
        owner: &mut DbOwner,
        cloud: &mut CloudServer,
        values: &[Value],
    ) -> Result<Vec<TupleId>> {
        (**self).locate(owner, cloud, values)
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

    fn select_bin_episode(
        &mut self,
        owner: &mut DbOwner,
        cloud: &mut CloudServer,
        request: &BinEpisodeRequest,
    ) -> Result<BinEpisodeOutcome> {
        (**self).select_bin_episode(owner, cloud, request)
    }

    fn hides_access_pattern(&self) -> bool {
        (**self).hides_access_pattern()
    }

    fn tags(&mut self, owner: &mut DbOwner, values: &[Value]) -> Result<Option<Vec<Vec<u8>>>> {
        (**self).tags(owner, values)
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

    /// A boxed engine forwards the methods its back-end implements: the
    /// trait's defaults would refuse `locate` and build no `tags`.
    #[test]
    fn boxed_engines_forward_locate_and_tags() {
        use pds_cloud::{CloudServer, DbOwner};
        use pds_common::Value;
        use pds_storage::{DataType, Relation, Schema};

        let mut rel = Relation::new("T", Schema::from_pairs(&[("K", DataType::Int)]).unwrap());
        for k in [1, 2, 1] {
            rel.insert(vec![Value::Int(k)]).unwrap();
        }
        let attr = rel.schema().attr_id("K").unwrap();
        let mut owner = DbOwner::new(3);
        let one = [Value::Int(1)];

        let mut scan: Box<dyn SecureSelectionEngine> = Box::new(crate::NonDetScanEngine::new());
        let mut cloud = CloudServer::default();
        scan.outsource(&mut owner, &mut cloud, &rel, attr).unwrap();
        assert_eq!(scan.locate(&mut owner, &mut cloud, &one).unwrap().len(), 2);

        let mut det: Box<dyn SecureSelectionEngine> =
            Box::new(crate::DeterministicIndexEngine::new());
        let mut cloud = CloudServer::default();
        det.outsource(&mut owner, &mut cloud, &rel, attr).unwrap();
        assert!(det.tags(&mut owner, &one).unwrap().is_some());
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
            assert_eq!(fork.cost_profile(), engine.cost_profile());
        }
    }
}
