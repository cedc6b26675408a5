//! The untrusted public cloud server.
//!
//! One [`CloudServer`] hosts the outsourced pair of relations for one
//! partitioned relation: `Rns` in clear-text (with a hash index on the
//! searchable attribute, as the paper's cloud-side indexes allow) and `Rs`
//! as an [`EncryptedStore`].  Every interaction is recorded in the
//! [`AdversarialView`] and counted in [`Metrics`].

//! ## Byte accounting is measured off the wire
//!
//! Every owner↔cloud interaction builds the actual [`pds_proto`] message
//! it represents, encodes it into a wire frame, and charges the **encoded
//! frame length** (header + payload + CRC trailer) to [`Metrics`] and the
//! communication clock — not a `size_bytes` estimate.  Each interaction is
//! also appended to a [`pds_proto::RoundTrip`] log so the event-driven
//! network simulator ([`crate::BinTransport::Simulated`]) can replay the
//! exact per-shard traffic.  In debug builds every encoded frame is decoded
//! back and compared, so the test suite proves the wire format really
//! carries the traffic it accounts for.

use pds_common::{AttrId, PdsError, QueryId, Result, TupleId, Value};
use pds_crypto::Ciphertext;
use pds_proto::{
    msg_tag, Ack, BinPairRequest, BinPayload, FetchBinRequest, InsertRequest, RoundTrip,
    WireMessage, WireRow,
};
use pds_storage::{HashIndex, Relation, Tuple};

use crate::metrics::Metrics;
use crate::network::NetworkModel;
use crate::store::{EncryptedRow, EncryptedStore};
use crate::view::AdversarialView;

/// The resolved clear-text side of a composed episode: matching tuples,
/// their ids, the values they matched, and how many tuples the pushed-down
/// residual filtered out cloud-side.
type ResolvedPlain = (Vec<Tuple>, Vec<TupleId>, Vec<Value>, usize);

/// Encodes a message and returns its frame length, round-trip-verifying the
/// codec in debug builds (the test suite runs unoptimised, so every frame
/// the simulator accounts for is proven to decode back to its message).
fn frame_len(msg: &WireMessage) -> usize {
    let frame = msg.encode().expect("in-range wire message");
    debug_assert_eq!(
        &WireMessage::decode(&frame).expect("encoded frame decodes"),
        msg,
        "wire frame must roundtrip"
    );
    frame.len()
}

/// One wire frame as the accounting layer sees it: its type tag and its
/// measured encoded length.
type Frame = (u8, usize);

/// The two result streams of one composed bin-pair episode as the cloud
/// returns them: clear-text non-sensitive tuples and `(address, ciphertext)`
/// rows from the sensitive side.
pub type BinPairResult = (Vec<Tuple>, Vec<(TupleId, Ciphertext)>);

/// Builds the accounting form of a message (tag + measured frame length).
fn frame(msg: &WireMessage) -> Frame {
    (msg.msg_type(), frame_len(msg))
}

/// The wire form of an [`EncryptedRow`]: ciphertexts become opaque bytes.
fn wire_row(row: &EncryptedRow) -> WireRow {
    WireRow {
        id: row.id.raw(),
        attr_ct: row.attr_ct.as_bytes().to_vec(),
        tuple_ct: row.tuple_ct.as_bytes().to_vec(),
        search_tags: row.search_tags.clone(),
    }
}

/// Wire rows for a response that carries only full-tuple ciphertexts.
fn tuple_ct_rows(out: &[(TupleId, Ciphertext)]) -> Vec<WireRow> {
    out.iter()
        .map(|(id, ct)| WireRow {
            id: id.raw(),
            attr_ct: Vec::new(),
            tuple_ct: ct.as_bytes().to_vec(),
            search_tags: Vec::new(),
        })
        .collect()
}

/// The plaintext (non-sensitive) side of the deployment.
#[derive(Debug, Clone)]
struct PlainSide {
    relation: Relation,
    attr: AttrId,
    index: HashIndex,
}

/// The simulated untrusted public cloud.
#[derive(Debug, Clone)]
pub struct CloudServer {
    plain: Option<PlainSide>,
    encrypted: EncryptedStore,
    view: AdversarialView,
    metrics: Metrics,
    network: NetworkModel,
    comm_time: f64,
    /// Measured frame lengths of every owner↔cloud exchange, in order —
    /// the traffic the event-driven network simulator replays.
    wire_log: Vec<RoundTrip>,
    /// Index into [`CloudServer::wire_log`] at the last
    /// [`CloudServer::reset_metrics`]: exchanges before the cursor belong to
    /// an earlier measurement window (e.g. outsourcing) and must not be
    /// replayed as part of the current one.
    wire_cursor: usize,
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
            wire_log: Vec::new(),
            wire_cursor: 0,
        }
    }

    /// Charges one owner↔cloud exchange: `up`/`down` are typed wire frames
    /// whose lengths are **measured encoded frame lengths** (`None` when no
    /// frame travels in that direction).  Updates byte counters, the total
    /// and per-type frame counters, the simulated communication clock, and
    /// the wire log.
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
        self.wire_log.push(RoundTrip {
            up_bytes: up_len as u64,
            down_bytes: down_len as u64,
        });
    }

    // ----- outsourcing -----------------------------------------------------

    /// Uploads the clear-text non-sensitive relation and builds the
    /// cloud-side index on `searchable_attr`.
    pub fn upload_plaintext(&mut self, relation: Relation, searchable_attr: &str) -> Result<()> {
        let attr = relation.schema().attr_id(searchable_attr)?;
        let index = HashIndex::build(&relation, attr);
        let up = frame(&WireMessage::InsertRequest(InsertRequest {
            plain_tuples: relation.tuples().to_vec(),
            encrypted_rows: Vec::new(),
        }));
        let down = frame(&WireMessage::Ack(Ack {
            items: relation.len() as u64,
        }));
        self.record_exchange(Some(up), Some(down));
        self.plain = Some(PlainSide {
            relation,
            attr,
            index,
        });
        Ok(())
    }

    /// Uploads encrypted sensitive rows.
    pub fn upload_encrypted(&mut self, rows: Vec<EncryptedRow>) -> Result<()> {
        let up = frame(&WireMessage::InsertRequest(InsertRequest {
            plain_tuples: Vec::new(),
            encrypted_rows: rows.iter().map(wire_row).collect(),
        }));
        let down = frame(&WireMessage::Ack(Ack {
            items: rows.len() as u64,
        }));
        self.record_exchange(Some(up), Some(down));
        self.encrypted.insert_many(rows)
    }

    /// Inserts one clear-text tuple into the outsourced non-sensitive
    /// relation, keeping the cloud-side index current.  This is the live
    /// form of an owner→cloud [`InsertRequest`] after outsourcing (the
    /// read/write-mix workloads drive it), so the exchange is charged like
    /// any other: one typed request frame up, one [`Ack`] down.
    pub fn insert_plaintext(&mut self, tuple: Tuple) -> Result<()> {
        let plain = self
            .plain
            .as_mut()
            .ok_or_else(|| PdsError::Cloud("no plaintext relation outsourced".into()))?;
        let value = tuple.value(plain.attr).clone();
        plain
            .relation
            .insert_with_id(tuple.id, tuple.values.clone())?;
        plain.index.insert(value, tuple.id);
        let up = frame(&WireMessage::InsertRequest(InsertRequest {
            plain_tuples: vec![tuple],
            encrypted_rows: Vec::new(),
        }));
        let down = frame(&WireMessage::Ack(Ack { items: 1 }));
        self.record_exchange(Some(up), Some(down));
        Ok(())
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
    /// part of the current query (QB sends |SB| of them).  The token bytes
    /// travel as one opaque frame, so the charged size is the engine's
    /// payload estimate plus the real framing overhead.
    pub fn note_encrypted_request(&mut self, count: usize, bytes: usize) {
        self.view.observe_encrypted_request(count);
        self.record_exchange(Some((msg_tag::OPAQUE, pds_proto::encoded_len(bytes))), None);
        self.metrics.round_trips += 1;
    }

    // ----- plaintext side ---------------------------------------------------

    /// Executes a clear-text `IN` selection on the non-sensitive relation.
    pub fn plain_select_in(&mut self, values: &[Value]) -> Result<Vec<Tuple>> {
        self.plain_select_filtered(values, None)
    }

    /// Clear-text `IN` selection with an optional **residual predicate
    /// pushed below the bin fetch**: the index resolves `values` as usual,
    /// then the residual filters the matching tuples *before* the downlink,
    /// so non-matching tuples never travel.  The uplink frame carries the
    /// predicate (it is part of the request), which is why residuals must
    /// only mention non-sensitive, non-searchable attributes — the planner
    /// enforces that owner-side before anything reaches this wire path.
    pub fn plain_select_filtered(
        &mut self,
        values: &[Value],
        residual: Option<&pds_storage::Predicate>,
    ) -> Result<Vec<Tuple>> {
        let plain = self
            .plain
            .as_ref()
            .ok_or_else(|| PdsError::Cloud("no plaintext relation outsourced".into()))?;
        let ids = plain.index.lookup_many(values);
        let matched: Vec<Tuple> = ids
            .iter()
            .filter_map(|&id| plain.relation.get(id).cloned())
            .collect();
        let scanned = matched.len();
        let tuples: Vec<Tuple> = match residual {
            Some(p) => matched.into_iter().filter(|t| p.matches(t)).collect(),
            None => matched,
        };
        let attr = plain.attr;

        // Adversarial view: the request values arrive in clear-text, and the
        // (residual-filtered) matching tuples go back in clear-text.  The
        // request side still names the whole bin, so bin-level anonymity is
        // exactly what it is without pushdown.
        self.view.observe_plaintext_request(values);
        let returned_ids: Vec<TupleId> = tuples.iter().map(|t| t.id).collect();
        let returned_values: Vec<Value> = tuples.iter().map(|t| t.value(attr).clone()).collect();
        self.view
            .observe_nonsensitive_result(&returned_ids, &returned_values);

        // Metrics: index lookups, measured frame bytes for request and
        // response.
        let up = frame(&WireMessage::FetchBinRequest(FetchBinRequest {
            values: values.to_vec(),
            ids: Vec::new(),
            tags: Vec::new(),
            predicate: residual.cloned(),
        }));
        let down = frame(&WireMessage::BinPayload(BinPayload {
            plain_tuples: tuples.clone(),
            encrypted_rows: Vec::new(),
        }));
        self.metrics.plaintext_index_lookups += values.len() as u64;
        self.metrics.plaintext_tuples_scanned += scanned as u64;
        self.metrics.tuples_returned += tuples.len() as u64;
        self.metrics.round_trips += 1;
        self.record_exchange(Some(up), Some(down));
        Ok(tuples)
    }

    /// Full scan of the plaintext relation with an arbitrary predicate
    /// (used by baselines that do not exploit the index).
    pub fn plain_select_scan(&mut self, predicate: &pds_storage::Predicate) -> Result<Vec<Tuple>> {
        let plain = self
            .plain
            .as_ref()
            .ok_or_else(|| PdsError::Cloud("no plaintext relation outsourced".into()))?;
        let query = pds_storage::SelectionQuery::new(predicate.clone());
        let tuples = plain.relation.select(&query);
        let attr = plain.attr;
        let ids: Vec<TupleId> = tuples.iter().map(|t| t.id).collect();
        let returned_values: Vec<Value> = tuples.iter().map(|t| t.value(attr).clone()).collect();
        self.view
            .observe_nonsensitive_result(&ids, &returned_values);
        // The predicate travels in the request frame, so the uplink charge
        // is the real encoded size of the pushed-down selection.
        let up = frame(&WireMessage::FetchBinRequest(FetchBinRequest {
            values: Vec::new(),
            ids: Vec::new(),
            tags: Vec::new(),
            predicate: Some(predicate.clone()),
        }));
        let down = frame(&WireMessage::BinPayload(BinPayload {
            plain_tuples: tuples.clone(),
            encrypted_rows: Vec::new(),
        }));
        self.metrics.plaintext_tuples_scanned += plain.relation.len() as u64;
        self.metrics.tuples_returned += tuples.len() as u64;
        self.metrics.round_trips += 1;
        self.record_exchange(Some(up), Some(down));
        Ok(tuples)
    }

    /// The outsourced plaintext relation, if any.
    pub fn plain_relation(&self) -> Option<&Relation> {
        self.plain.as_ref().map(|p| &p.relation)
    }

    /// The searchable attribute of the plaintext relation.
    pub fn plain_searchable_attr(&self) -> Option<AttrId> {
        self.plain.as_ref().map(|p| p.attr)
    }

    // ----- encrypted side ---------------------------------------------------

    /// Downloads the encrypted searchable-attribute column (id, ciphertext)
    /// — the first step of the paper's §V-B search procedure.
    pub fn download_encrypted_attr_column(&mut self) -> Vec<(TupleId, Ciphertext)> {
        let out: Vec<(TupleId, Ciphertext)> = self
            .encrypted
            .rows()
            .iter()
            .map(|r| (r.id, r.attr_ct.clone()))
            .collect();
        let up = frame(&WireMessage::Opaque(Vec::new()));
        let down = frame(&WireMessage::BinPayload(BinPayload {
            plain_tuples: Vec::new(),
            encrypted_rows: out
                .iter()
                .map(|(id, ct)| WireRow {
                    id: id.raw(),
                    attr_ct: ct.as_bytes().to_vec(),
                    tuple_ct: Vec::new(),
                    search_tags: Vec::new(),
                })
                .collect(),
        }));
        self.metrics.encrypted_tuples_scanned += out.len() as u64;
        self.metrics.round_trips += 1;
        self.record_exchange(Some(up), Some(down));
        out
    }

    /// Fetches full encrypted tuples by storage address.  The addresses are
    /// what access-pattern leakage reveals, so they enter the adversarial
    /// view as the sensitive side of the episode.
    pub fn fetch_encrypted(&mut self, ids: &[TupleId]) -> Result<Vec<(TupleId, Ciphertext)>> {
        let rows = self.encrypted.fetch(ids)?;
        let out: Vec<(TupleId, Ciphertext)> =
            rows.iter().map(|r| (r.id, r.tuple_ct.clone())).collect();
        self.view.observe_sensitive_result(ids);
        let up = frame(&WireMessage::FetchBinRequest(FetchBinRequest {
            values: Vec::new(),
            ids: ids.iter().map(|id| id.raw()).collect(),
            tags: Vec::new(),
            predicate: None,
        }));
        let down = frame(&WireMessage::BinPayload(BinPayload {
            plain_tuples: Vec::new(),
            encrypted_rows: tuple_ct_rows(&out),
        }));
        self.metrics.tuples_returned += out.len() as u64;
        self.metrics.round_trips += 1;
        self.record_exchange(Some(up), Some(down));
        Ok(out)
    }

    /// Returns every encrypted tuple (full scan), as strongly secure
    /// back-ends that hide access patterns effectively do.
    pub fn scan_encrypted(&mut self) -> Vec<(TupleId, Ciphertext)> {
        let out: Vec<(TupleId, Ciphertext)> = self
            .encrypted
            .rows()
            .iter()
            .map(|r| (r.id, r.tuple_ct.clone()))
            .collect();
        let ids: Vec<TupleId> = out.iter().map(|(id, _)| *id).collect();
        self.view.observe_sensitive_result(&ids);
        let up = frame(&WireMessage::Opaque(Vec::new()));
        let down = frame(&WireMessage::BinPayload(BinPayload {
            plain_tuples: Vec::new(),
            encrypted_rows: tuple_ct_rows(&out),
        }));
        self.metrics.encrypted_tuples_scanned += out.len() as u64;
        self.metrics.tuples_returned += out.len() as u64;
        self.metrics.round_trips += 1;
        self.record_exchange(Some(up), Some(down));
        out
    }

    /// Notes that a cloud-side secure execution environment (an SGX enclave
    /// or an MPC committee) obliviously processed `tuples` encrypted tuples
    /// without shipping them to the owner.  Only work counters move; no
    /// data is returned and nothing enters the adversarial view beyond the
    /// fact that a query arrived.
    pub fn note_oblivious_scan(&mut self, tuples: usize, request_bytes: usize) {
        self.metrics.encrypted_tuples_scanned += tuples as u64;
        self.record_exchange(
            Some((msg_tag::OPAQUE, pds_proto::encoded_len(request_bytes))),
            None,
        );
        self.metrics.round_trips += 1;
    }

    /// Cloud-side search by opaque tags (deterministic tags or Arx counter
    /// tokens).  The cloud matches tags against its index without learning
    /// plaintext values.
    pub fn tag_select(&mut self, tags: &[Vec<u8>]) -> Vec<(TupleId, Ciphertext)> {
        let mut ids: Vec<TupleId> = Vec::new();
        for tag in tags {
            ids.extend_from_slice(self.encrypted.lookup_tag(tag));
        }
        ids.sort_unstable();
        ids.dedup();
        let out: Vec<(TupleId, Ciphertext)> = ids
            .iter()
            .filter_map(|&id| self.encrypted.get(id).map(|r| (r.id, r.tuple_ct.clone())))
            .collect();
        self.view.observe_encrypted_request(tags.len());
        self.view.observe_sensitive_result(&ids);
        let up = frame(&WireMessage::FetchBinRequest(FetchBinRequest {
            values: Vec::new(),
            ids: Vec::new(),
            tags: tags.to_vec(),
            predicate: None,
        }));
        let down = frame(&WireMessage::BinPayload(BinPayload {
            plain_tuples: Vec::new(),
            encrypted_rows: tuple_ct_rows(&out),
        }));
        self.metrics.plaintext_index_lookups += tags.len() as u64;
        self.metrics.tuples_returned += out.len() as u64;
        self.metrics.round_trips += 1;
        self.record_exchange(Some(up), Some(down));
        out
    }

    // ----- composed bin-pair episodes ---------------------------------------

    /// Resolves the clear-text side of a composed bin-pair episode without
    /// touching metrics or the view (the caller charges the one exchange).
    /// Empty value sets resolve to an empty result even before outsourcing,
    /// mirroring the fine-grained path which skips the plaintext sub-query
    /// entirely in that case.
    fn resolve_plain(
        &self,
        values: &[Value],
        residual: Option<&pds_storage::Predicate>,
    ) -> Result<ResolvedPlain> {
        if values.is_empty() {
            return Ok((Vec::new(), Vec::new(), Vec::new(), 0));
        }
        let plain = self
            .plain
            .as_ref()
            .ok_or_else(|| PdsError::Cloud("no plaintext relation outsourced".into()))?;
        let ids = plain.index.lookup_many(values);
        let matched: Vec<Tuple> = ids
            .iter()
            .filter_map(|&id| plain.relation.get(id).cloned())
            .collect();
        let scanned = matched.len();
        let tuples: Vec<Tuple> = match residual {
            Some(p) => matched.into_iter().filter(|t| p.matches(t)).collect(),
            None => matched,
        };
        let ids: Vec<TupleId> = tuples.iter().map(|t| t.id).collect();
        let returned: Vec<Value> = tuples.iter().map(|t| t.value(plain.attr).clone()).collect();
        Ok((tuples, ids, returned, scanned))
    }

    /// Serves one **composed** Query Binning episode in a single round
    /// trip: the owner's [`BinPairRequest`] carries the encrypted search
    /// tokens of the sensitive bin (matched against the cloud-side tag
    /// index) together with the clear-text values of the non-sensitive bin,
    /// and one [`BinPayload`] answers both sides.  Exactly one request and
    /// one response frame move, and `round_trips` advances by one — this is
    /// what makes the composed path strictly cheaper in rounds than the
    /// fine-grained multi-message episode.
    pub fn bin_pair_by_tags(&mut self, request: &BinPairRequest) -> Result<BinPairResult> {
        let (plain_tuples, ns_ids, ns_values, ns_scanned) =
            self.resolve_plain(&request.nonsensitive_values, request.predicate.as_ref())?;

        // Sensitive side: match the opaque tokens against the tag index,
        // exactly as `tag_select` would.
        let mut ids: Vec<TupleId> = Vec::new();
        for tag in &request.encrypted_values {
            ids.extend_from_slice(self.encrypted.lookup_tag(tag));
        }
        ids.sort_unstable();
        ids.dedup();
        let rows: Vec<(TupleId, Ciphertext)> = ids
            .iter()
            .filter_map(|&id| self.encrypted.get(id).map(|r| (r.id, r.tuple_ct.clone())))
            .collect();

        self.record_bin_pair_exchange(
            request,
            &plain_tuples,
            ns_scanned,
            &ns_ids,
            &ns_values,
            &ids,
            &rows,
        );
        self.metrics.plaintext_index_lookups += request.encrypted_values.len() as u64;
        Ok((plain_tuples, rows))
    }

    /// Serves one composed episode whose sensitive side was resolved by a
    /// cloud-side secure execution environment (an SGX enclave or an MPC
    /// committee) that obliviously scanned `scanned` encrypted tuples and
    /// selected `matching`.  As with [`CloudServer::bin_pair_by_tags`],
    /// exactly one round trip moves: the composed request up, the combined
    /// payload down.
    pub fn bin_pair_oblivious(
        &mut self,
        request: &BinPairRequest,
        matching: &[TupleId],
        scanned: usize,
    ) -> Result<BinPairResult> {
        let (plain_tuples, ns_ids, ns_values, ns_scanned) =
            self.resolve_plain(&request.nonsensitive_values, request.predicate.as_ref())?;
        let fetched = self.encrypted.fetch(matching)?;
        let rows: Vec<(TupleId, Ciphertext)> =
            fetched.iter().map(|r| (r.id, r.tuple_ct.clone())).collect();
        self.record_bin_pair_exchange(
            request,
            &plain_tuples,
            ns_scanned,
            &ns_ids,
            &ns_values,
            matching,
            &rows,
        );
        self.metrics.encrypted_tuples_scanned += scanned as u64;
        Ok((plain_tuples, rows))
    }

    /// Shared accounting of one composed episode: adversarial view, work
    /// counters, and the single request/response exchange off the wire.
    #[allow(clippy::too_many_arguments)]
    fn record_bin_pair_exchange(
        &mut self,
        request: &BinPairRequest,
        plain_tuples: &[Tuple],
        ns_scanned: usize,
        ns_ids: &[TupleId],
        ns_values: &[Value],
        sensitive_ids: &[TupleId],
        rows: &[(TupleId, Ciphertext)],
    ) {
        self.view
            .observe_plaintext_request(&request.nonsensitive_values);
        self.view
            .observe_encrypted_request(request.encrypted_values.len());
        self.view.observe_nonsensitive_result(ns_ids, ns_values);
        self.view.observe_sensitive_result(sensitive_ids);
        let up = frame(&WireMessage::BinPairRequest(request.clone()));
        let down = frame(&WireMessage::BinPayload(BinPayload {
            plain_tuples: plain_tuples.to_vec(),
            encrypted_rows: tuple_ct_rows(rows),
        }));
        self.metrics.plaintext_index_lookups += request.nonsensitive_values.len() as u64;
        self.metrics.plaintext_tuples_scanned += ns_scanned as u64;
        self.metrics.tuples_returned += (plain_tuples.len() + rows.len()) as u64;
        self.metrics.round_trips += 1;
        self.record_exchange(Some(up), Some(down));
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
        self.plain.as_ref().map_or(0, |p| p.relation.len())
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

    /// Simulated communication time accumulated so far, in seconds.
    pub fn comm_time(&self) -> f64 {
        self.comm_time
    }

    /// The measured wire traffic, in exchange order: one [`RoundTrip`] per
    /// owner↔cloud interaction, each length an encoded frame size.  The
    /// log is append-only (like the adversarial view); callers interested
    /// in a window record the length before and slice afterwards.
    pub fn wire_log(&self) -> &[RoundTrip] {
        &self.wire_log
    }

    /// The wire traffic recorded since the last
    /// [`CloudServer::reset_metrics`].  Replay windows that start "from the
    /// reset" must use this slice: the full [`CloudServer::wire_log`] keeps
    /// pre-reset exchanges (outsourcing uploads, earlier measurement
    /// windows) whose replay would double-count traffic the byte counters
    /// no longer report.
    pub fn wire_log_since_reset(&self) -> &[RoundTrip] {
        &self.wire_log[self.wire_cursor..]
    }

    /// The network model in force.
    pub fn network(&self) -> &NetworkModel {
        &self.network
    }

    /// Resets metrics and communication time and advances the wire-log
    /// cursor so [`CloudServer::wire_log_since_reset`] starts empty (the
    /// adversarial view and the full wire log are *not* cleared — the
    /// adversary never forgets).
    pub fn reset_metrics(&mut self) {
        self.metrics = Metrics::new();
        self.comm_time = 0.0;
        self.wire_cursor = self.wire_log.len();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pds_crypto::NonDetCipher;
    use pds_storage::{DataType, Schema};

    fn plain_relation() -> Relation {
        let schema =
            Schema::from_pairs(&[("EId", DataType::Text), ("Dept", DataType::Text)]).unwrap();
        let mut r = Relation::new("Employee3", schema);
        for (e, d) in [
            ("E259", "Design"),
            ("E199", "Design"),
            ("E254", "Design"),
            ("E152", "Design"),
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
                attr_ct: cipher.encrypt(format!("v{i}").as_bytes(), &mut rng),
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

    #[test]
    fn upload_counts_bytes() {
        let s = server();
        assert!(s.metrics().bytes_uploaded > 0);
        assert_eq!(s.plain_len(), 4);
        assert_eq!(s.encrypted_len(), 4);
        assert!(s.comm_time() > 0.0);
    }

    #[test]
    fn plain_select_records_view() {
        let mut s = server();
        s.begin_query();
        let out = s
            .plain_select_in(&[Value::from("E259"), Value::from("E254")])
            .unwrap();
        s.end_query();
        assert_eq!(out.len(), 2);
        let ep = &s.adversarial_view().episodes()[0];
        assert_eq!(ep.plaintext_request.len(), 2);
        assert_eq!(ep.nonsensitive_returned.len(), 2);
        assert_eq!(ep.nonsensitive_values.len(), 2);
        assert!(ep.sensitive_returned.is_empty());
    }

    #[test]
    fn plain_select_without_upload_errors() {
        let mut s = CloudServer::default();
        assert!(s.plain_select_in(&[Value::from("x")]).is_err());
    }

    #[test]
    fn fetch_encrypted_records_access_pattern() {
        let mut s = server();
        s.begin_query();
        s.note_encrypted_request(2, 64);
        let out = s
            .fetch_encrypted(&[TupleId::new(101), TupleId::new(103)])
            .unwrap();
        s.end_query();
        assert_eq!(out.len(), 2);
        let ep = &s.adversarial_view().episodes()[0];
        assert_eq!(ep.encrypted_request_size, 2);
        assert_eq!(
            ep.sensitive_returned[..],
            [TupleId::new(101), TupleId::new(103)]
        );
        assert!(s.fetch_encrypted(&[TupleId::new(999)]).is_err());
    }

    #[test]
    fn attr_column_download_scans_everything() {
        let mut s = server();
        let col = s.download_encrypted_attr_column();
        assert_eq!(col.len(), 4);
        assert_eq!(s.metrics().encrypted_tuples_scanned, 4);
    }

    #[test]
    fn scan_encrypted_returns_all() {
        let mut s = server();
        s.begin_query();
        let all = s.scan_encrypted();
        s.end_query();
        assert_eq!(all.len(), 4);
        assert_eq!(
            s.adversarial_view().episodes()[0].sensitive_returned.len(),
            4
        );
    }

    #[test]
    fn tag_select_uses_index() {
        let mut s = server();
        s.begin_query();
        let out = s.tag_select(&[vec![0u8], vec![2u8], vec![77u8]]);
        s.end_query();
        assert_eq!(out.len(), 2);
        let ep = &s.adversarial_view().episodes()[0];
        assert_eq!(ep.encrypted_request_size, 3);
        assert_eq!(ep.sensitive_returned.len(), 2);
    }

    #[test]
    fn wire_measured_bytes_stay_within_a_sane_factor_of_the_old_estimate() {
        // Regression guard for the estimate → wire-measurement switch: the
        // pre-wire model charged `sum(Value::size_bytes)` for a request and
        // `sum(Tuple::size_bytes)` for a response.  The measured frame can
        // only add (headers, CRC, length prefixes, value tags), and the
        // framing never inflates a message beyond a small factor plus a
        // constant.
        let mut s = server();
        let before = *s.metrics();
        s.begin_query();
        let values = [Value::from("E259"), Value::from("E254")];
        let tuples = s.plain_select_in(&values).unwrap();
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
    fn wire_log_records_every_exchange() {
        let mut s = server(); // two uploads = two logged exchanges
        assert_eq!(s.wire_log().len(), 2);
        let before = *s.metrics();
        let log_start = s.wire_log().len();
        s.begin_query();
        s.plain_select_in(&[Value::from("E259")]).unwrap();
        s.note_encrypted_request(2, 64);
        s.fetch_encrypted(&[TupleId::new(101)]).unwrap();
        s.end_query();
        let d = s.metrics().delta_since(&before);
        let window = &s.wire_log()[log_start..];
        assert_eq!(window.len(), 3, "one round trip per exchange");
        let up: u64 = window.iter().map(|rt| rt.up_bytes).sum();
        let down: u64 = window.iter().map(|rt| rt.down_bytes).sum();
        assert_eq!(up, d.bytes_uploaded, "log and metrics agree on upload");
        assert_eq!(
            down, d.bytes_downloaded,
            "log and metrics agree on download"
        );
        let frames: u64 = window
            .iter()
            .map(|rt| u64::from(rt.up_bytes > 0) + u64::from(rt.down_bytes > 0))
            .sum();
        assert_eq!(frames, d.wire_frames);
        // Every frame includes the fixed wire overhead.
        for rt in window {
            assert!(rt.up_bytes >= pds_proto::FRAME_OVERHEAD as u64);
        }
    }

    #[test]
    fn reset_metrics_keeps_view() {
        let mut s = server();
        s.begin_query();
        s.plain_select_in(&[Value::from("E259")]).unwrap();
        s.end_query();
        s.reset_metrics();
        assert_eq!(s.metrics().total_bytes(), 0);
        assert_eq!(s.adversarial_view().len(), 1);
    }

    #[test]
    fn reset_metrics_advances_the_wire_cursor() {
        // Regression: `reset_metrics` used to zero the byte counters while
        // leaving the wire log intact with no cursor, so a replay window
        // anchored at "the reset" would double-count pre-reset traffic.
        let mut s = server(); // two uploads = two pre-reset exchanges
        assert_eq!(s.wire_log().len(), 2);
        s.reset_metrics();
        assert!(s.wire_log_since_reset().is_empty(), "window starts empty");
        assert_eq!(s.wire_log().len(), 2, "full log keeps history");

        s.begin_query();
        s.plain_select_in(&[Value::from("E259")]).unwrap();
        s.end_query();
        let window = s.wire_log_since_reset();
        assert_eq!(window.len(), 1, "only post-reset traffic in the window");
        let bytes: u64 = window.iter().map(|rt| rt.up_bytes + rt.down_bytes).sum();
        assert_eq!(
            bytes,
            s.metrics().total_bytes(),
            "window and post-reset counters agree"
        );
    }

    #[test]
    fn frame_counters_break_down_by_message_type() {
        use pds_proto::msg_tag;
        let mut s = server();
        let before = *s.metrics();
        s.begin_query();
        s.plain_select_in(&[Value::from("E259")]).unwrap();
        s.note_encrypted_request(2, 64);
        s.fetch_encrypted(&[TupleId::new(101)]).unwrap();
        s.end_query();
        let d = s.metrics().delta_since(&before);
        assert_eq!(d.frames_of_type(msg_tag::FETCH_BIN_REQUEST), 2);
        assert_eq!(d.frames_of_type(msg_tag::BIN_PAYLOAD), 2);
        assert_eq!(d.frames_of_type(msg_tag::OPAQUE), 1);
        assert_eq!(d.frames_of_type(msg_tag::BIN_PAIR_REQUEST), 0);
        assert_eq!(d.wire_frames_by_type.iter().sum::<u64>(), d.wire_frames);
    }

    #[test]
    fn composed_bin_pair_by_tags_is_one_round() {
        use pds_proto::msg_tag;
        let mut s = server();
        let before = *s.metrics();
        s.begin_query();
        let (plain, rows) = s
            .bin_pair_by_tags(&BinPairRequest {
                sensitive_bin: 0,
                nonsensitive_bin: 0,
                encrypted_values: vec![vec![0u8], vec![2u8]],
                nonsensitive_values: vec![Value::from("E259"), Value::from("E254")],
                predicate: None,
            })
            .unwrap();
        s.end_query();
        assert_eq!(plain.len(), 2);
        assert_eq!(rows.len(), 2);
        let d = s.metrics().delta_since(&before);
        assert_eq!(d.round_trips, 1, "composed episode is one round");
        assert_eq!(d.wire_frames, 2, "one request frame, one response frame");
        assert_eq!(d.frames_of_type(msg_tag::BIN_PAIR_REQUEST), 1);
        assert_eq!(d.frames_of_type(msg_tag::BIN_PAYLOAD), 1);
        let ep = s.adversarial_view().episodes().last().unwrap();
        assert_eq!(ep.plaintext_request.len(), 2);
        assert_eq!(ep.encrypted_request_size, 2);
        assert_eq!(ep.sensitive_returned.len(), 2);
        assert_eq!(ep.nonsensitive_returned.len(), 2);
    }

    #[test]
    fn composed_bin_pair_oblivious_charges_the_scan() {
        let mut s = server();
        let before = *s.metrics();
        s.begin_query();
        let (plain, rows) = s
            .bin_pair_oblivious(
                &BinPairRequest {
                    sensitive_bin: 1,
                    nonsensitive_bin: 2,
                    encrypted_values: vec![vec![9u8; 32]],
                    nonsensitive_values: vec![Value::from("E199")],
                    predicate: None,
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
        // Unknown ids surface as an error, not a partial payload.
        assert!(s
            .bin_pair_oblivious(&BinPairRequest::default(), &[TupleId::new(999)], 0)
            .is_err());
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
        let out = s.plain_select_in(&[Value::from("E300")]).unwrap();
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
