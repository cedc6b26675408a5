//! The untrusted public cloud server.
//!
//! One [`CloudServer`] hosts the outsourced pair of relations for one
//! partitioned relation: `Rns` in clear-text (with a hash index on the
//! searchable attribute, as the paper's cloud-side indexes allow) and `Rs`
//! as an [`EncryptedStore`].  Every interaction is recorded in the
//! [`AdversarialView`] and counted in [`Metrics`].
//!
//! ## One query handler
//!
//! [`CloudServer::fetch_bin`] serves the one query message,
//! [`FetchBinRequest`]: in one exchange it resolves the clear-text bin
//! (with its pushed-down residual), the storage addresses and the search
//! tags a request carries, and answers with one
//! [`BinPayload`](pds_proto::BinPayload).  Engines call it in process, and
//! the shard daemon calls it through
//! [`CloudServer::serve`], so both transports record the same view and
//! the same counters.  [`BinEpisodeRequest`] is the owner-side episode an
//! engine turns into that request.  The only other query entry point is
//! [`CloudServer::fetch_bin_oblivious`], the enclave simulators' only way
//! in: their tokens only the engine-side enclave can resolve, and each of
//! their selections is one such exchange.

//! ## Byte accounting: frames sized by their encoder
//!
//! Every owner↔cloud interaction is charged the **frame length**
//! (header + payload + CRC trailer) of the [`pds_proto`] message it
//! represents — not a `size_bytes` estimate — to [`Metrics`] and the
//! communication clock.  The length is the codec's own writers run over
//! the borrowed data into a byte counter ([`pds_proto::fetch_frame_len`],
//! [`pds_proto::rows_frame_len`], [`pds_proto::ack_frame_len`]), so
//! accounting builds, clones and encodes nothing, and a charge equals the
//! encoded frame by construction.  Tests here pin the charge of every
//! upload, insert, column download and fetch to the encoding of the
//! message it stands for, and over TCP the daemon's counters equal the
//! bytes on the socket (`crates/core/tests/tcp_service.rs`).  The clock,
//! [`CloudServer::comm_time`], adds one [`NetworkModel::transfer_time`]
//! per exchange, so its growth over a run is that shard's simulated
//! network time; the busiest shard's growth is the overlapped fan-out's
//! ([`crate::ShardRouter::parallel_comm_time`]).
//! No per-exchange log is kept: the clock is one `f64`.
//!
//! ## The clear-text side is shared
//!
//! The non-sensitive relation and its index form one `PlainSide`, built
//! once per upload and held behind an [`Arc`].  A sharded deployment
//! replicates it to every shard by sharing that `Arc`; an insert copies it
//! on write, so shards that take inserts diverge exactly as replicas
//! would.

use std::collections::HashSet;
use std::sync::Arc;

use pds_common::{AttrId, PdsError, QueryId, Result, TupleId, Value};
use pds_crypto::Ciphertext;
use pds_proto::{
    ack_frame_len, fetch_frame_len, msg_tag, rows_frame_len, FetchBinRequest, RowParts, WireRow,
};
use pds_storage::{HashIndex, Predicate, Relation, Tuple};

use crate::metrics::Metrics;
use crate::network::NetworkModel;
use crate::store::{EncryptedRow, EncryptedStore};
use crate::view::AdversarialView;

/// The resolved clear-text side of a request: matching tuples,
/// their ids, the values they matched, and how many tuples the index
/// matched before the pushed-down residual filtered them cloud-side.
type ResolvedPlain = (Vec<Tuple>, Vec<TupleId>, Vec<Value>, usize);

/// One wire frame as the accounting layer sees it: its type tag and its
/// frame length.
pub(crate) type Frame = (u8, usize);

/// The [`Ack`](pds_proto::Ack) frame answering a request of `items` items.
fn ack_frame(items: usize) -> Frame {
    (msg_tag::ACK, ack_frame_len(items as u64))
}

/// The two result streams of one [`FetchBinRequest`] as the cloud returns
/// them: clear-text non-sensitive tuples and `(address, ciphertext)` rows
/// from the sensitive side.
pub type BinPairResult = (Vec<Tuple>, Vec<(TupleId, Ciphertext)>);

/// One Query Binning bin-pair episode as the executor hands it to a
/// back-end: the value sets of both bins and the residual pushed below
/// the fetch.
///
/// The engine decides how the sensitive side crosses the wire (search tags
/// the cloud resolves, or storage addresses the back-end located in rounds
/// of its own); the clear-text side always travels as the non-sensitive
/// values themselves.  [`BinEpisodeRequest::to_wire`] builds the one
/// [`FetchBinRequest`] that carries both.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BinEpisodeRequest {
    /// Clear-text values of the sensitive bin (owner-side only — never on
    /// the wire in this form).
    pub sensitive_values: Vec<Value>,
    /// Clear-text values of the non-sensitive bin.
    pub nonsensitive_values: Vec<Value>,
    /// Residual predicate the planner pushed below the bin fetch, applied
    /// cloud-side to the clear-text (non-sensitive) result stream before the
    /// downlink.  Must only reference non-sensitive, non-searchable
    /// attributes — the planner validates that before it reaches a request.
    pub pushdown: Option<Predicate>,
}

impl BinEpisodeRequest {
    /// The episode's combined request: the non-sensitive values with the
    /// pushed-down residual, plus the sensitive side as opaque search
    /// `tags` and/or located storage `ids`.
    pub fn to_wire(&self, tags: Vec<Vec<u8>>, ids: &[TupleId]) -> FetchBinRequest {
        FetchBinRequest {
            values: self.nonsensitive_values.clone(),
            ids: ids.iter().map(|id| id.raw()).collect(),
            tags,
            predicate: self.pushdown.clone(),
        }
    }
}

/// The wire fields of a response row that carries only its full-tuple
/// ciphertext.
fn tuple_ct_parts((id, ct): &(TupleId, Ciphertext)) -> RowParts<'_> {
    RowParts {
        id: id.raw(),
        attr_ct: &[],
        tuple_ct: ct.as_bytes(),
        search_tags: &[],
    }
}

/// The wire fields of a column row that carries only its attribute
/// ciphertext.
fn attr_ct_parts((id, ct): &(TupleId, Ciphertext)) -> RowParts<'_> {
    RowParts {
        id: id.raw(),
        attr_ct: ct.as_bytes(),
        tuple_ct: &[],
        search_tags: &[],
    }
}

/// Wire rows for a response that carries only full-tuple ciphertexts.
pub(crate) fn tuple_ct_rows(out: &[(TupleId, Ciphertext)]) -> Vec<WireRow> {
    out.iter().map(|row| tuple_ct_parts(row).to_row()).collect()
}

/// The clear-text (non-sensitive) side of a deployment: the relation and
/// its index on the searchable attribute.
#[derive(Debug, Clone)]
pub(crate) struct PlainSide {
    relation: Relation,
    attr: AttrId,
    index: HashIndex,
}

impl PlainSide {
    /// Indexes `relation` on `searchable_attr`, and sizes its upload: one
    /// [`InsertRequest`](pds_proto::InsertRequest) carrying every tuple,
    /// answered by one [`Ack`](pds_proto::Ack).
    pub(crate) fn build(
        relation: Relation,
        searchable_attr: &str,
    ) -> Result<(Arc<PlainSide>, [Frame; 2])> {
        let attr = relation.schema().attr_id(searchable_attr)?;
        let up = (
            msg_tag::INSERT_REQUEST,
            rows_frame_len(relation.tuples(), std::iter::empty())?,
        );
        let down = ack_frame(relation.len());
        let index = HashIndex::build(&relation, attr);
        let side = PlainSide {
            relation,
            attr,
            index,
        };
        Ok((Arc::new(side), [up, down]))
    }
}

/// The simulated untrusted public cloud.
#[derive(Debug, Clone)]
pub struct CloudServer {
    plain: Option<Arc<PlainSide>>,
    encrypted: EncryptedStore,
    view: AdversarialView,
    metrics: Metrics,
    network: NetworkModel,
    comm_time: f64,
}

impl Default for CloudServer {
    fn default() -> Self {
        Self::new(NetworkModel::paper_wan())
    }
}

impl CloudServer {
    /// Creates a cloud with the given network model.
    pub fn new(network: NetworkModel) -> Self {
        CloudServer {
            plain: None,
            encrypted: EncryptedStore::new(),
            view: AdversarialView::new(),
            metrics: Metrics::new(),
            network,
            comm_time: 0.0,
        }
    }

    /// Charges one owner↔cloud exchange: `up`/`down` are typed wire frames
    /// with their frame lengths (`None` when no frame travels in that
    /// direction).  Updates byte counters, the total
    /// and per-type frame counters, and the simulated communication clock.
    fn record_exchange(&mut self, up: Option<Frame>, down: Option<Frame>) {
        let up_len = up.map_or(0, |(_, len)| len);
        let down_len = down.map_or(0, |(_, len)| len);
        self.metrics.bytes_uploaded += up_len as u64;
        self.metrics.bytes_downloaded += down_len as u64;
        if let Some((tag, _)) = up {
            self.metrics.count_frame(tag);
        }
        if let Some((tag, _)) = down {
            self.metrics.count_frame(tag);
        }
        self.comm_time += self.network.transfer_time(up_len + down_len);
    }

    // ----- outsourcing -----------------------------------------------------

    /// Uploads the clear-text non-sensitive relation and builds the
    /// cloud-side index on `searchable_attr`.
    pub fn upload_plaintext(&mut self, relation: Relation, searchable_attr: &str) -> Result<()> {
        let (side, upload) = PlainSide::build(relation, searchable_attr)?;
        self.share_plaintext(side, upload);
        Ok(())
    }

    /// Installs a clear-text side built once for many shards, charging this
    /// server its own upload exchange (`upload`, from [`PlainSide::build`]).
    pub(crate) fn share_plaintext(&mut self, side: Arc<PlainSide>, [up, down]: [Frame; 2]) {
        self.record_exchange(Some(up), Some(down));
        self.plain = Some(side);
    }

    /// Uploads encrypted sensitive rows as one
    /// [`InsertRequest`](pds_proto::InsertRequest), all or nothing: an id
    /// already stored, or repeated among `rows`, stores and charges nothing.
    pub fn upload_encrypted(&mut self, rows: Vec<EncryptedRow>) -> Result<()> {
        self.insert(Vec::new(), rows).map(drop)
    }

    /// Inserts one clear-text tuple into the outsourced non-sensitive
    /// relation, keeping the cloud-side index current.  This is the live
    /// form of an owner→cloud [`InsertRequest`](pds_proto::InsertRequest)
    /// after outsourcing (the read/write-mix workloads drive it), so the
    /// exchange is charged like any other: one typed request frame up, one
    /// [`Ack`](pds_proto::Ack) down.
    pub fn insert_plaintext(&mut self, tuple: Tuple) -> Result<()> {
        self.insert(vec![tuple], Vec::new()).map(drop)
    }

    /// Stores the clear-text `tuples` and encrypted `rows` of one
    /// [`InsertRequest`](pds_proto::InsertRequest) and charges it as one
    /// exchange: the request's frame up, one [`Ack`](pds_proto::Ack) down.
    /// Returns the item count the `Ack` carries.
    ///
    /// All or nothing: every tuple is checked against the schema, and
    /// every id against the stores and the rest of the request, before
    /// anything is stored, so a refused request stores and charges
    /// nothing.  Clear-text tuples need an outsourced clear-text side;
    /// when other servers share it, this one copies it first.
    pub(crate) fn insert(&mut self, tuples: Vec<Tuple>, rows: Vec<EncryptedRow>) -> Result<u64> {
        if !tuples.is_empty() {
            let plain = self
                .plain
                .as_deref()
                .ok_or_else(|| PdsError::Cloud("no plaintext relation outsourced".into()))?;
            let mut seen = HashSet::with_capacity(tuples.len());
            for t in &tuples {
                plain.relation.schema().validate_row(&t.values)?;
                if plain.relation.get(t.id).is_some() || !seen.insert(t.id) {
                    return Err(PdsError::Schema(format!("duplicate tuple id {}", t.id)));
                }
            }
        }
        let up = (
            msg_tag::INSERT_REQUEST,
            rows_frame_len(&tuples, rows.iter().map(EncryptedRow::wire_parts))?,
        );
        let items = tuples.len() + rows.len();
        let down = ack_frame(items);
        self.encrypted.insert_many(rows)?;
        if let (false, Some(side)) = (tuples.is_empty(), self.plain.as_mut()) {
            let plain = Arc::make_mut(side);
            for t in tuples {
                plain.index.insert(t.value(plain.attr).clone(), t.id);
                plain.relation.insert_with_id(t.id, t.values)?;
            }
        }
        self.record_exchange(Some(up), Some(down));
        Ok(items as u64)
    }

    // ----- query episode management ----------------------------------------

    /// Starts a new query episode in the adversarial view.
    pub fn begin_query(&mut self) -> QueryId {
        self.view.begin_episode()
    }

    /// Ends the current query episode.
    pub fn end_query(&mut self) {
        self.view.end_episode();
    }

    /// Notes that the owner sent `count` encrypted (opaque) search values as
    /// part of the current query (QB sends |SB| of them) to a cloud-side
    /// evaluator — the share servers or the two DPF servers — that touched
    /// `scanned` stored tuples to locate the matching rows.  The token
    /// bytes travel as one opaque frame, so the charged size is the
    /// engine's payload estimate plus the real framing overhead; no data
    /// comes back in this round.
    pub fn note_encrypted_request(&mut self, count: usize, bytes: usize, scanned: usize) {
        self.view.observe_encrypted_request(count);
        self.metrics.encrypted_tuples_scanned += scanned as u64;
        self.record_exchange(Some((msg_tag::OPAQUE, pds_proto::encoded_len(bytes))), None);
        self.metrics.round_trips += 1;
    }

    // ----- plaintext side ---------------------------------------------------

    /// The outsourced plaintext relation, if any.
    pub fn plain_relation(&self) -> Option<&Relation> {
        self.plain.as_deref().map(|p| &p.relation)
    }

    /// The searchable attribute of the plaintext relation.
    pub fn plain_searchable_attr(&self) -> Option<AttrId> {
        self.plain.as_deref().map(|p| p.attr)
    }

    // ----- encrypted side ---------------------------------------------------

    /// Downloads the encrypted searchable-attribute column (id, ciphertext)
    /// — the first step of the paper's §V-B search procedure.  A store
    /// whose rows were outsourced without the column (every back-end but
    /// the No-Ind scan) is a typed [`PdsError::Cloud`] that charges nothing.
    pub fn download_encrypted_attr_column(&mut self) -> Result<Vec<(TupleId, Ciphertext)>> {
        let out: Vec<(TupleId, Ciphertext)> = self
            .encrypted
            .rows()
            .iter()
            .map(|r| {
                let ct = r.attr_ct.clone().ok_or_else(|| {
                    PdsError::Cloud(format!(
                        "encrypted tuple {} was stored without an attribute ciphertext",
                        r.id
                    ))
                })?;
                Ok((r.id, ct))
            })
            .collect::<Result<_>>()?;
        // The request is an empty opaque frame; the column comes back as
        // one payload of attribute-ciphertext rows.
        let up = (msg_tag::OPAQUE, pds_proto::encoded_len(0));
        let down = (
            msg_tag::BIN_PAYLOAD,
            rows_frame_len(&[], out.iter().map(attr_ct_parts))?,
        );
        self.metrics.encrypted_tuples_scanned += out.len() as u64;
        self.metrics.round_trips += 1;
        self.record_exchange(Some(up), Some(down));
        Ok(out)
    }

    /// The tuple ciphertexts stored at `ids`, in request order; an unknown
    /// id is an error, never a partial result.
    fn tuple_cts(&self, ids: &[TupleId]) -> Result<Vec<(TupleId, Ciphertext)>> {
        let rows = self.encrypted.fetch(ids)?;
        Ok(rows.iter().map(|r| (r.id, r.tuple_ct.clone())).collect())
    }

    // ----- the query exchange -----------------------------------------------

    /// Resolves the clear-text side of a request without touching metrics
    /// or the view (the caller charges the one exchange).  The index
    /// resolves `values`, then the pushed-down `residual` filters the
    /// matching tuples *before* the downlink, so non-matching tuples never
    /// travel, and only the survivors are cloned out of the relation
    /// (`scanned` stays the index's match count).  Empty value sets
    /// resolve to an empty result even before outsourcing, mirroring the
    /// fine-grained path which skips the plaintext sub-query entirely in
    /// that case.
    fn resolve_plain(
        &self,
        values: &[Value],
        residual: Option<&Predicate>,
    ) -> Result<ResolvedPlain> {
        if values.is_empty() {
            return Ok((Vec::new(), Vec::new(), Vec::new(), 0));
        }
        let plain = self
            .plain
            .as_deref()
            .ok_or_else(|| PdsError::Cloud("no plaintext relation outsourced".into()))?;
        let mut scanned = 0;
        let mut tuples = Vec::new();
        for t in plain
            .index
            .lookup_many(values)
            .iter()
            .filter_map(|&id| plain.relation.get(id))
        {
            scanned += 1;
            if residual.map_or(true, |p| p.matches(t)) {
                tuples.push(t.clone());
            }
        }
        let ids: Vec<TupleId> = tuples.iter().map(|t| t.id).collect();
        let returned: Vec<Value> = tuples.iter().map(|t| t.value(plain.attr).clone()).collect();
        Ok((tuples, ids, returned, scanned))
    }

    /// Serves one query exchange: a [`FetchBinRequest`] up, one
    /// [`BinPayload`](pds_proto::BinPayload) down, one round.
    ///
    /// * **clear-text side** — the index resolves the request's values and
    ///   the pushed-down residual filters them cloud-side.  The uplink frame
    ///   carries the predicate, which is why residuals may only mention
    ///   non-sensitive, non-searchable attributes; the planner enforces
    ///   that owner-side.  The request still names the whole bin, so
    ///   bin-level anonymity is what it is without pushdown.
    /// * **sensitive side** — the rows at the request's storage addresses,
    ///   in request order, then the rows its search tags match in the
    ///   cloud-side tag index, sorted and deduplicated.  An unknown address
    ///   is an error, never a partial payload.
    ///
    /// The adversarial view records the values, the number of tags, the
    /// returned clear-text tuples and every returned address; the index
    /// lookups counted are one per value and one per tag.  Tags sent to a
    /// deployment with no tag index are a typed [`PdsError::Wire`]: the
    /// enclave/MPC back-ends resolve their tokens engine-side
    /// ([`CloudServer::fetch_bin_oblivious`]), which a bare message cannot
    /// reach.
    pub fn fetch_bin(&mut self, request: &FetchBinRequest) -> Result<BinPairResult> {
        if !request.tags.is_empty() && !self.encrypted.has_tags() {
            return Err(PdsError::Wire(
                "request carries search tags but this deployment has no cloud-side tag \
                 index (enclave/MPC back-ends resolve tokens engine-side)"
                    .into(),
            ));
        }
        let plain = self.resolve_plain(&request.values, request.predicate.as_ref())?;
        let mut tagged: Vec<TupleId> = Vec::new();
        for tag in &request.tags {
            tagged.extend_from_slice(self.encrypted.lookup_tag(tag));
        }
        tagged.sort_unstable();
        tagged.dedup();
        let mut ids: Vec<TupleId> = request.ids.iter().map(|&id| TupleId::new(id)).collect();
        ids.extend(tagged);
        let rows = self.tuple_cts(&ids)?;
        self.record_fetch(request, &plain, &ids, &rows)?;
        self.metrics.plaintext_index_lookups += request.tags.len() as u64;
        Ok((plain.0, rows))
    }

    /// Serves one query exchange whose sensitive side a cloud-side secure
    /// execution environment (an SGX enclave or an MPC committee) resolved:
    /// it obliviously scanned `scanned` encrypted tuples for the request's
    /// tokens, which ride as its `tags`, and selected `matching`.  Like
    /// [`CloudServer::fetch_bin`] it is one request frame, one payload
    /// frame and one round; the tokens are counted in the view but looked
    /// up in no index.  It is the enclave simulators' only entry: each of
    /// their selections, standalone or inside an episode, is one such
    /// exchange.
    pub fn fetch_bin_oblivious(
        &mut self,
        request: &FetchBinRequest,
        matching: &[TupleId],
        scanned: usize,
    ) -> Result<BinPairResult> {
        let plain = self.resolve_plain(&request.values, request.predicate.as_ref())?;
        let rows = self.tuple_cts(matching)?;
        self.record_fetch(request, &plain, matching, &rows)?;
        self.metrics.encrypted_tuples_scanned += scanned as u64;
        Ok((plain.0, rows))
    }

    /// Shared accounting of one query exchange: adversarial view, work
    /// counters, and the single request/response exchange.  The frames are
    /// sized first, so a request that cannot be framed records nothing.
    fn record_fetch(
        &mut self,
        request: &FetchBinRequest,
        plain: &ResolvedPlain,
        sensitive_ids: &[TupleId],
        rows: &[(TupleId, Ciphertext)],
    ) -> Result<()> {
        let (plain_tuples, ns_ids, ns_values, ns_scanned) = plain;
        let up = (
            msg_tag::FETCH_BIN_REQUEST,
            fetch_frame_len(
                &request.values,
                &request.ids,
                &request.tags,
                request.predicate.as_ref(),
            )?,
        );
        let down = (
            msg_tag::BIN_PAYLOAD,
            rows_frame_len(plain_tuples, rows.iter().map(tuple_ct_parts))?,
        );
        self.view.observe_plaintext_request(&request.values);
        self.view.observe_encrypted_request(request.tags.len());
        self.view.observe_nonsensitive_result(ns_ids, ns_values);
        self.view.observe_sensitive_result(sensitive_ids);
        self.metrics.plaintext_index_lookups += request.values.len() as u64;
        self.metrics.plaintext_tuples_scanned += *ns_scanned as u64;
        self.metrics.tuples_returned += (plain_tuples.len() + rows.len()) as u64;
        self.metrics.round_trips += 1;
        self.record_exchange(Some(up), Some(down));
        Ok(())
    }

    /// Number of encrypted rows stored.
    pub fn encrypted_len(&self) -> usize {
        self.encrypted.len()
    }

    /// The raw encrypted store.  The honest-but-curious adversary *is* the
    /// cloud, so everything stored here (ciphertexts, search tags, storage
    /// addresses) is adversary-visible; `pds-adversary` reads it through this
    /// accessor.
    pub fn encrypted_store(&self) -> &EncryptedStore {
        &self.encrypted
    }

    /// Number of plaintext tuples stored.
    pub fn plain_len(&self) -> usize {
        self.plain.as_deref().map_or(0, |p| p.relation.len())
    }

    // ----- observability ----------------------------------------------------

    /// The adversarial view accumulated so far.
    pub fn adversarial_view(&self) -> &AdversarialView {
        &self.view
    }

    /// Work counters accumulated so far.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Simulated communication time accumulated since the last
    /// [`CloudServer::reset_metrics`], in seconds: the sum, in exchange
    /// order, of [`NetworkModel::transfer_time`] over every exchange's
    /// measured frame bytes.
    pub fn comm_time(&self) -> f64 {
        self.comm_time
    }

    /// The network model in force.
    pub fn network(&self) -> &NetworkModel {
        &self.network
    }

    /// Resets metrics and communication time (the adversarial view is
    /// *not* cleared — the adversary never forgets).
    pub fn reset_metrics(&mut self) {
        self.metrics = Metrics::new();
        self.comm_time = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pds_crypto::NonDetCipher;
    use pds_proto::{Ack, BinPayload, InsertRequest, WireMessage};
    use pds_storage::{DataType, Schema};

    fn plain_relation() -> Relation {
        let schema =
            Schema::from_pairs(&[("EId", DataType::Text), ("Dept", DataType::Text)]).unwrap();
        let mut r = Relation::new("Employee3", schema);
        for (e, d) in [
            ("E259", "Design"),
            ("E199", "Design"),
            ("E254", "Design"),
            ("E152", "Sales"),
        ] {
            r.insert(vec![Value::from(e), Value::from(d)]).unwrap();
        }
        r
    }

    fn encrypted_rows(n: u64) -> Vec<EncryptedRow> {
        let cipher = NonDetCipher::from_seed(9);
        let mut rng = pds_common::rng::seeded_rng(1);
        (0..n)
            .map(|i| EncryptedRow {
                id: TupleId::new(100 + i),
                attr_ct: Some(cipher.encrypt(format!("v{i}").as_bytes(), &mut rng)),
                tuple_ct: cipher.encrypt(format!("tuple{i}").as_bytes(), &mut rng),
                search_tags: vec![vec![i as u8]],
            })
            .collect()
    }

    fn server() -> CloudServer {
        let mut s = CloudServer::new(NetworkModel::paper_wan());
        s.upload_plaintext(plain_relation(), "EId").unwrap();
        s.upload_encrypted(encrypted_rows(4)).unwrap();
        s
    }

    /// A clear-text `IN` selection: one [`CloudServer::fetch_bin`] carrying
    /// only `values`.
    fn plain_select(s: &mut CloudServer, values: &[Value]) -> Result<Vec<Tuple>> {
        let request = FetchBinRequest {
            values: values.to_vec(),
            ..FetchBinRequest::default()
        };
        Ok(s.fetch_bin(&request)?.0)
    }

    /// A fetch by storage address: one [`CloudServer::fetch_bin`] carrying
    /// only `ids`.
    fn fetch_ids(s: &mut CloudServer, ids: &[u64]) -> Result<Vec<(TupleId, Ciphertext)>> {
        let request = FetchBinRequest {
            ids: ids.to_vec(),
            ..FetchBinRequest::default()
        };
        Ok(s.fetch_bin(&request)?.1)
    }

    /// Asserts that the traffic charged since `before` is exactly the
    /// encoded `up` frame and the encoded `down` frame.
    fn assert_charged(s: &CloudServer, before: &Metrics, up: &WireMessage, down: &WireMessage) {
        let d = s.metrics().delta_since(before);
        let frame_len = |msg: &WireMessage| msg.encode().unwrap().len() as u64;
        assert_eq!(
            (d.bytes_uploaded, d.bytes_downloaded),
            (frame_len(up), frame_len(down)),
            "a {} up and a {} down",
            up.name(),
            down.name()
        );
    }

    /// The payload answering a fetch with `plain` tuples and tuple
    /// ciphertext `rows`, built field by field.
    fn fetch_payload(plain: Vec<Tuple>, rows: &[(TupleId, Ciphertext)]) -> WireMessage {
        WireMessage::BinPayload(BinPayload {
            plain_tuples: plain,
            encrypted_rows: rows
                .iter()
                .map(|(id, ct)| WireRow {
                    id: id.raw(),
                    tuple_ct: ct.as_bytes().to_vec(),
                    ..WireRow::default()
                })
                .collect(),
        })
    }

    #[test]
    fn upload_counts_bytes() {
        let mut s = CloudServer::new(NetworkModel::paper_wan());
        let relation = plain_relation();
        let tuples = relation.tuples().to_vec();
        s.upload_plaintext(relation, "EId").unwrap();
        assert_charged(
            &s,
            &Metrics::new(),
            &WireMessage::InsertRequest(InsertRequest {
                plain_tuples: tuples,
                encrypted_rows: Vec::new(),
            }),
            &WireMessage::Ack(Ack { items: 4 }),
        );

        let rows = encrypted_rows(4);
        let wire_rows = rows
            .iter()
            .map(|r| WireRow {
                id: r.id.raw(),
                attr_ct: r.attr_ct.as_ref().unwrap().as_bytes().to_vec(),
                tuple_ct: r.tuple_ct.as_bytes().to_vec(),
                search_tags: r.search_tags.clone(),
            })
            .collect();
        let before = *s.metrics();
        s.upload_encrypted(rows).unwrap();
        assert_charged(
            &s,
            &before,
            &WireMessage::InsertRequest(InsertRequest {
                plain_tuples: Vec::new(),
                encrypted_rows: wire_rows,
            }),
            &WireMessage::Ack(Ack { items: 4 }),
        );
        assert_eq!(s.plain_len(), 4);
        assert_eq!(s.encrypted_len(), 4);
        assert!(s.comm_time() > 0.0);
    }

    #[test]
    fn plain_select_records_view() {
        let mut s = server();
        s.begin_query();
        let out = plain_select(&mut s, &[Value::from("E259"), Value::from("E254")]).unwrap();
        s.end_query();
        assert_eq!(out.len(), 2);
        let ep = &s.adversarial_view().episodes()[0];
        assert_eq!(ep.plaintext_request.len(), 2);
        assert_eq!(ep.nonsensitive_output_size(), 2);
        assert_eq!(ep.nonsensitive_values().count(), 2);
        assert!(ep.sensitive_returned.is_empty());
    }

    #[test]
    fn plain_select_without_upload_errors() {
        let mut s = CloudServer::default();
        assert!(plain_select(&mut s, &[Value::from("x")]).is_err());
    }

    #[test]
    fn an_address_fetch_records_the_access_pattern() {
        let mut s = server();
        s.begin_query();
        s.note_encrypted_request(2, 64, 0);
        let out = fetch_ids(&mut s, &[101, 103]).unwrap();
        s.end_query();
        assert_eq!(out.len(), 2);
        let ep = &s.adversarial_view().episodes()[0];
        assert_eq!(ep.encrypted_request_size, 2);
        assert_eq!(
            ep.sensitive_returned[..],
            [TupleId::new(101), TupleId::new(103)]
        );
        assert!(fetch_ids(&mut s, &[999]).is_err());
    }

    #[test]
    fn attr_column_download_scans_everything() {
        let mut s = server();
        let before = *s.metrics();
        let col = s.download_encrypted_attr_column().unwrap();
        assert_eq!(col.len(), 4);
        assert_eq!(s.metrics().encrypted_tuples_scanned, 4);
        // An empty opaque request up, the column's attribute ciphertexts
        // down.
        let column = col
            .iter()
            .map(|(id, ct)| WireRow {
                id: id.raw(),
                attr_ct: ct.as_bytes().to_vec(),
                ..WireRow::default()
            })
            .collect();
        assert_charged(
            &s,
            &before,
            &WireMessage::Opaque(Vec::new()),
            &WireMessage::BinPayload(BinPayload {
                plain_tuples: Vec::new(),
                encrypted_rows: column,
            }),
        );
    }

    #[test]
    fn a_store_without_the_column_refuses_its_download_and_charges_nothing() {
        let mut s = server();
        let mut row = encrypted_rows(5).pop().unwrap();
        row.attr_ct = None;
        s.upload_encrypted(vec![row]).unwrap();
        let (before, clock) = (*s.metrics(), s.comm_time());
        assert!(matches!(
            s.download_encrypted_attr_column(),
            Err(PdsError::Cloud(_))
        ));
        assert_eq!(*s.metrics(), before);
        assert_eq!(s.comm_time(), clock);
    }

    #[test]
    fn a_tag_fetch_uses_the_index() {
        let mut s = server();
        s.begin_query();
        let (plain, out) = s
            .fetch_bin(&FetchBinRequest {
                tags: vec![vec![2u8], vec![0u8], vec![77u8], vec![2u8]],
                ..FetchBinRequest::default()
            })
            .unwrap();
        s.end_query();
        assert!(plain.is_empty());
        let ids: Vec<TupleId> = out.iter().map(|(id, _)| *id).collect();
        assert_eq!(
            ids,
            [TupleId::new(100), TupleId::new(102)],
            "sorted, deduplicated"
        );
        let ep = &s.adversarial_view().episodes()[0];
        assert_eq!(ep.encrypted_request_size, 4);
        assert_eq!(ep.sensitive_returned.len(), 2);
    }

    #[test]
    fn tags_at_an_untagged_deployment_are_a_wire_error() {
        // A deployment whose encrypted rows carry no cloud-side tags
        // (enclave/MPC back-ends) cannot resolve opaque tokens from a bare
        // message: the fetch is a typed error, never a silently empty
        // payload, and it is charged nothing.
        let cipher = NonDetCipher::from_seed(3);
        let mut rng = pds_common::rng::seeded_rng(5);
        let mut s = CloudServer::default();
        s.upload_encrypted(vec![EncryptedRow {
            id: TupleId::new(1),
            attr_ct: None,
            tuple_ct: cipher.encrypt(b"t", &mut rng),
            search_tags: Vec::new(),
        }])
        .unwrap();
        let before = *s.metrics();
        let request = FetchBinRequest {
            tags: vec![vec![1, 2, 3]],
            ..FetchBinRequest::default()
        };
        assert!(matches!(s.fetch_bin(&request), Err(PdsError::Wire(_))));
        assert!(matches!(
            s.serve(&WireMessage::FetchBinRequest(request)),
            Err(PdsError::Wire(_))
        ));
        assert_eq!(*s.metrics(), before);
        assert!(s.adversarial_view().is_empty());
    }

    #[test]
    fn pushdown_filters_cloud_side_and_shrinks_the_downlink() {
        // Residual predicate on the non-search attribute: the filtered
        // fetch must return exactly the matching subset and move fewer
        // downlink bytes than the unfiltered one.
        let residual = Predicate::Eq {
            attr: AttrId::new(1),
            value: Value::from("Design"),
        };
        let bin = vec![Value::from("E259"), Value::from("E152")];

        let mut plain_cloud = server();
        let before = *plain_cloud.metrics();
        let unfiltered = plain_select(&mut plain_cloud, &bin).unwrap();
        let plain_down = plain_cloud.metrics().delta_since(&before).bytes_downloaded;

        let mut cloud = server();
        let before = *cloud.metrics();
        let request = FetchBinRequest {
            values: bin,
            predicate: Some(residual.clone()),
            ..FetchBinRequest::default()
        };
        let filtered = cloud.fetch_bin(&request).unwrap().0;
        let d = cloud.metrics().delta_since(&before);

        assert_eq!(unfiltered.len(), 2);
        assert_eq!(filtered.len(), 1, "E152 is in Sales and must be dropped");
        assert!(filtered.iter().all(|t| residual.matches(t)));
        assert!(
            d.bytes_downloaded < plain_down,
            "pushdown must shrink the downlink ({} vs {plain_down})",
            d.bytes_downloaded
        );
        // Scan counters still see both index matches.
        assert_eq!(d.plaintext_tuples_scanned, 2);
        assert_eq!(d.tuples_returned, 1);

        // The daemon's message entry serves the same filtered fetch.
        match server()
            .serve(&WireMessage::FetchBinRequest(request))
            .unwrap()
        {
            WireMessage::BinPayload(p) => assert_eq!(p.plain_tuples, filtered),
            other => panic!("unexpected response {other:?}"),
        }
    }

    #[test]
    fn serve_answers_queries_and_inserts_and_refuses_the_rest() {
        // A query message is answered with exactly what `fetch_bin`
        // returns, as one payload frame.
        let request = FetchBinRequest {
            values: vec![Value::from("E199")],
            ids: vec![102],
            tags: vec![vec![0u8]],
            predicate: None,
        };
        let (plain, rows) = server().fetch_bin(&request).unwrap();
        let mut s = server();
        match s.serve(&WireMessage::FetchBinRequest(request)).unwrap() {
            WireMessage::BinPayload(p) => {
                assert_eq!(p.plain_tuples, plain);
                assert_eq!(p.encrypted_rows, tuple_ct_rows(&rows));
            }
            other => panic!("unexpected response {other:?}"),
        }

        // Inserts (plain + encrypted) are acknowledged with an item count.
        let cipher = NonDetCipher::from_seed(4);
        let mut rng = pds_common::rng::seeded_rng(7);
        let ct = cipher.encrypt(b"z", &mut rng);
        let resp = s
            .serve(&WireMessage::InsertRequest(InsertRequest {
                plain_tuples: vec![Tuple::new(
                    TupleId::new(500),
                    vec![Value::from("E500"), Value::from("Ops")],
                )],
                encrypted_rows: vec![WireRow {
                    id: 900,
                    attr_ct: ct.as_bytes().to_vec(),
                    tuple_ct: ct.as_bytes().to_vec(),
                    search_tags: vec![vec![9u8]],
                }],
            }))
            .unwrap();
        assert_eq!(resp, WireMessage::Ack(Ack { items: 2 }));
        assert_eq!(s.plain_len(), 5);
        assert_eq!(s.encrypted_len(), 5);
        let stored = s.encrypted_store().get(TupleId::new(900)).unwrap();
        assert_eq!(stored.attr_ct.as_ref(), Some(&ct));

        // An empty wire attribute ciphertext is a row stored without one.
        let resp = s
            .serve(&WireMessage::InsertRequest(InsertRequest {
                plain_tuples: Vec::new(),
                encrypted_rows: vec![WireRow {
                    id: 901,
                    attr_ct: Vec::new(),
                    tuple_ct: ct.as_bytes().to_vec(),
                    search_tags: Vec::new(),
                }],
            }))
            .unwrap();
        assert_eq!(resp, WireMessage::Ack(Ack { items: 1 }));
        let stored = s.encrypted_store().get(TupleId::new(901)).unwrap();
        assert_eq!(stored.attr_ct, None);
        assert_eq!(stored.tuple_ct, ct);

        // Every other kind is a typed error.
        assert!(matches!(
            s.serve(&WireMessage::Ack(Ack { items: 1 })),
            Err(PdsError::Wire(_))
        ));
    }

    #[test]
    fn wire_measured_bytes_stay_within_a_sane_factor_of_the_old_estimate() {
        // Regression guard for the estimate → wire-measurement switch: the
        // pre-wire model charged `sum(Value::size_bytes)` for a request and
        // `sum(Tuple::size_bytes)` for a response.  Over text columns, as
        // here, the measured frame only adds (headers, CRC, length
        // prefixes, value tags); over integer columns it can come in under
        // the estimate, since a zigzag varint beats the estimate's 8 bytes
        // per integer.  The framing never inflates a message beyond a
        // small factor plus a constant.
        let mut s = server();
        let before = *s.metrics();
        s.begin_query();
        let values = [Value::from("E259"), Value::from("E254")];
        let tuples = plain_select(&mut s, &values).unwrap();
        s.end_query();
        let d = s.metrics().delta_since(&before);
        let est_up: usize = values.iter().map(Value::size_bytes).sum();
        let est_down: usize = tuples.iter().map(Tuple::size_bytes).sum();
        assert!(
            d.bytes_uploaded as usize >= est_up,
            "wire adds framing, never removes payload: {} < {est_up}",
            d.bytes_uploaded
        );
        assert!(
            d.bytes_downloaded as usize >= est_down,
            "wire adds framing, never removes payload: {} < {est_down}",
            d.bytes_downloaded
        );
        assert!(
            d.bytes_uploaded as usize <= 4 * est_up + 64,
            "measured request {} bytes vs estimate {est_up}: framing blew up",
            d.bytes_uploaded
        );
        assert!(
            d.bytes_downloaded as usize <= 4 * est_down + 64,
            "measured response {} bytes vs estimate {est_down}: framing blew up",
            d.bytes_downloaded
        );
    }

    #[test]
    fn comm_time_charges_one_transfer_per_exchange() {
        // One second of latency and one byte per second keep every charge
        // an exact integer, so the clock compares exactly.
        let mut s = CloudServer::new(NetworkModel {
            bandwidth_bytes_per_sec: 1.0,
            latency_sec: 1.0,
        });
        s.upload_plaintext(plain_relation(), "EId").unwrap();
        s.upload_encrypted(encrypted_rows(4)).unwrap();
        let before = *s.metrics();
        let clock = s.comm_time();
        s.begin_query();
        plain_select(&mut s, &[Value::from("E259")]).unwrap();
        s.note_encrypted_request(2, 64, 0);
        fetch_ids(&mut s, &[101]).unwrap();
        s.end_query();
        let d = s.metrics().delta_since(&before);
        assert_eq!(d.round_trips, 3);
        assert_eq!(
            s.comm_time() - clock,
            3.0 + d.total_bytes() as f64,
            "one latency per exchange plus every counted byte"
        );
    }

    #[test]
    fn reset_metrics_keeps_view() {
        let mut s = server();
        s.begin_query();
        plain_select(&mut s, &[Value::from("E259")]).unwrap();
        s.end_query();
        s.reset_metrics();
        assert_eq!(s.metrics().total_bytes(), 0);
        assert_eq!(s.adversarial_view().len(), 1);
        // The clock restarts too: a window anchored at the reset counts
        // no earlier traffic (the outsourcing uploads).
        assert_eq!(s.comm_time(), 0.0);
        s.begin_query();
        plain_select(&mut s, &[Value::from("E259")]).unwrap();
        s.end_query();
        let bytes = s.metrics().total_bytes() as usize;
        assert_eq!(s.comm_time(), s.network().transfer_time(bytes));
    }

    #[test]
    fn frame_counters_break_down_by_message_type() {
        use pds_proto::msg_tag;
        let mut s = server();
        let before = *s.metrics();
        s.begin_query();
        plain_select(&mut s, &[Value::from("E259")]).unwrap();
        s.note_encrypted_request(2, 64, 0);
        fetch_ids(&mut s, &[101]).unwrap();
        s.end_query();
        let d = s.metrics().delta_since(&before);
        assert_eq!(d.frames_of_type(msg_tag::FETCH_BIN_REQUEST), 2);
        assert_eq!(d.frames_of_type(msg_tag::BIN_PAYLOAD), 2);
        assert_eq!(d.frames_of_type(msg_tag::OPAQUE), 1);
        assert_eq!(d.wire_frames_by_type.iter().sum::<u64>(), d.wire_frames);
    }

    #[test]
    fn a_values_and_tags_fetch_is_one_round() {
        use pds_proto::msg_tag;
        let mut s = server();
        let before = *s.metrics();
        s.begin_query();
        let (plain, rows) = s
            .fetch_bin(&FetchBinRequest {
                values: vec![Value::from("E259"), Value::from("E254")],
                tags: vec![vec![0u8], vec![2u8]],
                ..FetchBinRequest::default()
            })
            .unwrap();
        s.end_query();
        assert_eq!(plain.len(), 2);
        assert_eq!(rows.len(), 2);
        let d = s.metrics().delta_since(&before);
        assert_eq!(d.round_trips, 1, "one request is one round");
        assert_eq!(d.wire_frames, 2, "one request frame, one response frame");
        assert_eq!(d.frames_of_type(msg_tag::FETCH_BIN_REQUEST), 1);
        assert_eq!(d.frames_of_type(msg_tag::BIN_PAYLOAD), 1);
        assert_eq!(d.plaintext_index_lookups, 4, "two values and two tags");
        let ep = s.adversarial_view().episodes().last().unwrap();
        assert_eq!(ep.plaintext_request.len(), 2);
        assert_eq!(ep.encrypted_request_size, 2);
        assert_eq!(ep.sensitive_returned.len(), 2);
        assert_eq!(ep.nonsensitive_output_size(), 2);
    }

    #[test]
    fn an_oblivious_fetch_charges_the_scan() {
        let mut s = server();
        let before = *s.metrics();
        s.begin_query();
        let (plain, rows) = s
            .fetch_bin_oblivious(
                &FetchBinRequest {
                    values: vec![Value::from("E199")],
                    tags: vec![vec![9u8; 32]],
                    ..FetchBinRequest::default()
                },
                &[TupleId::new(100), TupleId::new(102)],
                4,
            )
            .unwrap();
        s.end_query();
        assert_eq!(plain.len(), 1);
        assert_eq!(rows.len(), 2);
        let d = s.metrics().delta_since(&before);
        assert_eq!(d.round_trips, 1);
        assert_eq!(d.encrypted_tuples_scanned, 4);
        assert_eq!(d.plaintext_index_lookups, 1, "the tokens hit no index");
        let ep = s.adversarial_view().episodes().last().unwrap();
        assert_eq!(ep.encrypted_request_size, 1);
        assert_eq!(ep.sensitive_returned.len(), 2);
        // Unknown ids surface as an error, not a partial payload.
        assert!(s
            .fetch_bin_oblivious(&FetchBinRequest::default(), &[TupleId::new(999)], 0)
            .is_err());
    }

    #[test]
    fn fetches_are_charged_their_encoded_frames() {
        // A fetch carrying values, tags and a residual.
        let mut s = server();
        let request = FetchBinRequest {
            values: vec![Value::from("E259"), Value::from("E152")],
            tags: vec![vec![0u8], vec![2u8]],
            predicate: Some(Predicate::Eq {
                attr: AttrId::new(1),
                value: Value::from("Design"),
            }),
            ..FetchBinRequest::default()
        };
        let before = *s.metrics();
        let (plain, rows) = s.fetch_bin(&request).unwrap();
        assert_eq!((plain.len(), rows.len()), (1, 2));
        assert_charged(
            &s,
            &before,
            &WireMessage::FetchBinRequest(request),
            &fetch_payload(plain, &rows),
        );

        // An enclave's selection: its tokens ride as tags.
        let request = FetchBinRequest {
            values: vec![Value::from("E199")],
            tags: vec![vec![9u8; 32]],
            ..FetchBinRequest::default()
        };
        let before = *s.metrics();
        let (plain, rows) = s
            .fetch_bin_oblivious(&request, &[TupleId::new(101), TupleId::new(103)], 4)
            .unwrap();
        assert_eq!((plain.len(), rows.len()), (1, 2));
        assert_charged(
            &s,
            &before,
            &WireMessage::FetchBinRequest(request),
            &fetch_payload(plain, &rows),
        );
    }

    /// A values+ids fetch is one exchange that shows the cloud exactly what
    /// the clear-text selection and the address fetch show it separately,
    /// and returns the same tuples and rows.
    #[test]
    fn a_values_and_ids_fetch_folds_two_fetches_into_one_round() {
        use pds_proto::msg_tag;
        let values = vec![Value::from("E259"), Value::from("E254")];
        let ids = [TupleId::new(103), TupleId::new(101)];

        let mut apart = server();
        let before = *apart.metrics();
        apart.begin_query();
        let plain = plain_select(&mut apart, &values).unwrap();
        let raw: Vec<u64> = ids.iter().map(|id| id.raw()).collect();
        let rows = fetch_ids(&mut apart, &raw).unwrap();
        apart.end_query();
        let d_apart = apart.metrics().delta_since(&before);

        let mut folded = server();
        let before = *folded.metrics();
        folded.begin_query();
        let (folded_plain, folded_rows) = folded
            .fetch_bin(&FetchBinRequest {
                values,
                ids: ids.iter().map(|id| id.raw()).collect(),
                ..FetchBinRequest::default()
            })
            .unwrap();
        folded.end_query();
        let d = folded.metrics().delta_since(&before);

        assert_eq!((folded_plain, folded_rows), (plain, rows));
        assert_eq!(
            folded.adversarial_view().episodes()[0].observed,
            apart.adversarial_view().episodes()[0].observed,
            "the fold shows the cloud nothing new"
        );
        assert_eq!(d.round_trips, 1);
        assert_eq!(d_apart.round_trips, 2);
        assert_eq!(d.wire_frames, 2, "one request frame, one response frame");
        assert_eq!(d.frames_of_type(msg_tag::FETCH_BIN_REQUEST), 1);
        assert_eq!(d.frames_of_type(msg_tag::BIN_PAYLOAD), 1);
        assert_eq!(d.tuples_returned, d_apart.tuples_returned);
        assert_eq!(d.plaintext_index_lookups, d_apart.plaintext_index_lookups);
        assert!(
            d.total_bytes() < d_apart.total_bytes(),
            "one header pair saved"
        );
        // Addresses come back in request order, tag matches after them.
        let (_, mixed) = folded
            .fetch_bin(&FetchBinRequest {
                ids: vec![103, 101],
                tags: vec![vec![2u8], vec![0u8]],
                ..FetchBinRequest::default()
            })
            .unwrap();
        let got: Vec<u64> = mixed.iter().map(|(id, _)| id.raw()).collect();
        assert_eq!(got, [103, 101, 100, 102]);
    }

    /// A request of two clear-text tuples and one encrypted row.
    fn mixed_insert(first: u64, second: u64, row_id: u64) -> InsertRequest {
        let tuple =
            |id, e: &str| Tuple::new(TupleId::new(id), vec![Value::from(e), Value::from("Ops")]);
        let row = encrypted_rows(1).remove(0);
        InsertRequest {
            plain_tuples: vec![tuple(first, "E500"), tuple(second, "E501")],
            encrypted_rows: vec![WireRow {
                id: row_id,
                ..row.wire_parts().to_row()
            }],
        }
    }

    #[test]
    fn a_multi_item_insert_is_one_exchange() {
        let mut s = server();
        let before = *s.metrics();
        let request = mixed_insert(500, 501, 900);
        let ack = s
            .serve(&WireMessage::InsertRequest(request.clone()))
            .unwrap();
        assert_eq!(ack, WireMessage::Ack(Ack { items: 3 }));
        let d = s.metrics().delta_since(&before);
        assert_eq!(d.wire_frames, 2, "one request frame, one Ack");
        assert_eq!(d.frames_of_type(msg_tag::INSERT_REQUEST), 1);
        assert_eq!(d.frames_of_type(msg_tag::ACK), 1);
        assert_eq!(
            d.bytes_uploaded,
            WireMessage::InsertRequest(request).encode().unwrap().len() as u64
        );
        assert_eq!(d.bytes_downloaded, ack.encode().unwrap().len() as u64);
        assert_eq!(d.round_trips, 0, "an insert is no query round");
        assert_eq!((s.plain_len(), s.encrypted_len()), (6, 5));
        let out = plain_select(&mut s, &[Value::from("E501")]).unwrap();
        assert_eq!(out.len(), 1, "the index serves the second tuple");
    }

    #[test]
    fn a_refused_insert_stores_and_charges_nothing() {
        // The second tuple repeats a stored id; then an id the request
        // repeats itself; then a row id already stored.
        for request in [
            mixed_insert(500, 2, 900),
            mixed_insert(500, 500, 900),
            mixed_insert(500, 501, 101),
        ] {
            let mut s = server();
            let before = *s.metrics();
            assert!(s.serve(&WireMessage::InsertRequest(request)).is_err());
            assert_eq!(*s.metrics(), before, "nothing charged");
            assert_eq!((s.plain_len(), s.encrypted_len()), (4, 4), "nothing stored");
            assert!(s.plain_relation().unwrap().get(TupleId::new(500)).is_none());
            assert!(plain_select(&mut s, &[Value::from("E500")])
                .unwrap()
                .is_empty());
        }
    }

    #[test]
    fn shared_clear_text_sides_copy_on_insert() {
        let mut a = server();
        let mut b = a.clone();
        a.insert_plaintext(Tuple::new(
            TupleId::new(900),
            vec![Value::from("E300"), Value::from("Sales")],
        ))
        .unwrap();
        assert_eq!((a.plain_len(), b.plain_len()), (5, 4));
        assert!(plain_select(&mut b, &[Value::from("E300")])
            .unwrap()
            .is_empty());
        assert_eq!(
            plain_select(&mut a, &[Value::from("E300")]).unwrap().len(),
            1
        );
    }

    #[test]
    fn insert_plaintext_updates_relation_and_index() {
        let mut s = server();
        let before = *s.metrics();
        let tuple = Tuple::new(
            TupleId::new(900),
            vec![Value::from("E300"), Value::from("Sales")],
        );
        s.insert_plaintext(tuple).unwrap();
        assert_eq!(s.plain_len(), 5);
        let out = plain_select(&mut s, &[Value::from("E300")]).unwrap();
        assert_eq!(out.len(), 1, "index serves the inserted tuple");
        let d = s.metrics().delta_since(&before);
        assert!(d.frames_of_type(pds_proto::msg_tag::INSERT_REQUEST) >= 1);
        assert!(d.frames_of_type(pds_proto::msg_tag::ACK) >= 1);
        // No plaintext relation outsourced: the insert is rejected.
        let mut empty = CloudServer::default();
        assert!(empty
            .insert_plaintext(Tuple::new(TupleId::new(1), vec![Value::Int(1)]))
            .is_err());
    }
}
