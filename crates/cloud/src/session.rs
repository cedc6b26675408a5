//! The owner-facing cloud session: typed wire messages on the live path,
//! with per-episode round accounting.
//!
//! A [`CloudSession`] wraps one [`CloudServer`] shard for the duration of a
//! query stream.  It is the layer the Query Binning executor talks to when
//! it executes a [`pds_core`-compiled] plan:
//!
//! * **episode lifecycle** — [`CloudSession::begin_episode`] /
//!   [`CloudSession::end_episode`] bracket one adversarial-view episode and
//!   measure how many owner↔cloud **rounds** it took (the `round_trips`
//!   delta), which is the quantity the paper's cost model charges as
//!   `rounds × latency`;
//! * **composed episodes** — [`CloudSession::bin_pair_by_tags`] and
//!   [`CloudSession::bin_pair_oblivious`] carry one whole QB episode as a
//!   single typed [`BinPairRequest`] frame answered by a single
//!   [`pds_proto::BinPayload`] frame (one round), for back-ends whose
//!   sensitive side the cloud resolves from the request alone;
//!   [`CloudSession::bin_pair_by_ids`] carries the clear-text bin together
//!   with the storage addresses a back-end located in rounds of its own,
//!   as one `FetchBinRequest` answered by one `BinPayload`;
//! * **message dispatch** — [`CloudSession::dispatch`] accepts any
//!   [`WireMessage`] and routes it onto the underlying server, returning
//!   the typed response message.  A [`crate::ShardDaemon`] feeds every
//!   decoded frame through it; the in-process executor uses the typed
//!   methods directly and the test suite proves both agree.
//!
//! Engines run their in-process episodes against `&mut CloudSession`
//! directly.  Back-ends that locate their sensitive rows by address reach
//! the raw server through [`CloudSession::server_mut`] for their own
//! rounds (attribute-column download, share or DPF evaluation), so the
//! session still counts them.  Over TCP an episode never sees a session:
//! the owner only writes composed `BinPairRequest`s
//! (`pds_core::execute_shard_pipelined`), and the daemon serves them here.
//!
//! [`pds_core`-compiled]: CloudSession

use pds_common::{PdsError, Result, TupleId, Value};
use pds_crypto::Ciphertext;
use pds_proto::{error_frame, Ack, BinPairRequest, BinPayload, FetchBinRequest, WireMessage};
use pds_storage::{Predicate, Tuple};

use crate::server::{tuple_ct_rows, BinPairResult, CloudServer};
use crate::store::EncryptedRow;

/// One Query Binning bin-pair episode as the executor hands it to a
/// back-end: both bin indices plus the value sets of both sides.
///
/// The engine decides how the sensitive side crosses the wire (opaque
/// tokens the cloud resolves in one round, or storage addresses the
/// back-end located in rounds of its own); the clear-text side always
/// travels as the non-sensitive values themselves.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BinEpisodeRequest {
    /// Index of the sensitive bin being retrieved.
    pub sensitive_bin: usize,
    /// Index of the non-sensitive bin being retrieved.
    pub nonsensitive_bin: usize,
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
    /// Builds the wire form of this episode for the given opaque sensitive
    /// tokens: the composed [`BinPairRequest`] message.
    pub fn to_wire(&self, encrypted_values: Vec<Vec<u8>>) -> BinPairRequest {
        BinPairRequest {
            sensitive_bin: self.sensitive_bin as u32,
            nonsensitive_bin: self.nonsensitive_bin as u32,
            encrypted_values,
            nonsensitive_values: self.nonsensitive_values.clone(),
            predicate: self.pushdown.clone(),
        }
    }
}

/// A session over one cloud shard: typed message dispatch plus per-episode
/// round accounting.
#[derive(Debug)]
pub struct CloudSession<'a> {
    server: &'a mut CloudServer,
    episode_start_rounds: u64,
    episode_open: bool,
}

impl<'a> CloudSession<'a> {
    /// Opens a session over one shard.
    pub fn new(server: &'a mut CloudServer) -> Self {
        CloudSession {
            server,
            episode_start_rounds: 0,
            episode_open: false,
        }
    }

    /// Starts one adversarial-view episode and begins counting its rounds.
    pub fn begin_episode(&mut self) {
        self.server.begin_query();
        self.episode_start_rounds = self.server.metrics().round_trips;
        self.episode_open = true;
    }

    /// Ends the episode and returns the number of owner↔cloud rounds it
    /// took (0 when no episode was open).
    pub fn end_episode(&mut self) -> u64 {
        if !self.episode_open {
            return 0;
        }
        self.server.end_query();
        self.episode_open = false;
        self.server.metrics().round_trips - self.episode_start_rounds
    }

    /// The underlying shard, for back-ends whose own rounds (locating rows
    /// by address, or the fine-grained selection) drive the server methods
    /// directly; every such call still counts toward the open episode's
    /// rounds.
    pub fn server_mut(&mut self) -> &mut CloudServer {
        self.server
    }

    /// Read access to the underlying shard.
    pub fn server(&self) -> &CloudServer {
        self.server
    }

    /// Clear-text `IN` selection with an optional residual predicate pushed
    /// below the bin fetch (one round; see
    /// [`CloudServer::plain_select_filtered`]).
    pub fn plain_select_filtered(
        &mut self,
        values: &[Value],
        residual: Option<&Predicate>,
    ) -> Result<Vec<Tuple>> {
        self.server.plain_select_filtered(values, residual)
    }

    /// One composed episode whose sensitive side is resolved by the
    /// cloud-side tag index (deterministic tags, Arx counter tokens):
    /// a single [`BinPairRequest`] frame up, a single payload frame down.
    pub fn bin_pair_by_tags(
        &mut self,
        request: &BinEpisodeRequest,
        tags: Vec<Vec<u8>>,
    ) -> Result<BinPairResult> {
        self.server.bin_pair_by_tags(&request.to_wire(tags))
    }

    /// One composed episode whose sensitive side was resolved by a
    /// cloud-side secure execution environment that obliviously scanned
    /// `scanned` tuples and selected `matching` — still a single round.
    pub fn bin_pair_oblivious(
        &mut self,
        request: &BinEpisodeRequest,
        tokens: Vec<Vec<u8>>,
        matching: &[TupleId],
        scanned: usize,
    ) -> Result<BinPairResult> {
        self.server
            .bin_pair_oblivious(&request.to_wire(tokens), matching, scanned)
    }

    /// The last round of an episode whose back-end located its sensitive
    /// rows by storage address: the clear-text bin values, the pushed-down
    /// residual and the located `ids` travel as one `FetchBinRequest`
    /// frame, answered by one payload frame (see
    /// [`CloudServer::bin_pair_by_ids`]).
    pub fn bin_pair_by_ids(
        &mut self,
        request: &BinEpisodeRequest,
        ids: &[TupleId],
    ) -> Result<BinPairResult> {
        self.server.bin_pair_by_ids(&FetchBinRequest {
            values: request.nonsensitive_values.clone(),
            ids: ids.iter().map(|id| id.raw()).collect(),
            tags: Vec::new(),
            predicate: request.pushdown.clone(),
        })
    }

    /// Dispatches one typed wire message onto the shard and returns the
    /// typed response.  Unsupported message kinds come back as
    /// [`WireMessage::Error`] rather than panicking — a remote peer can
    /// send anything that decodes.
    ///
    /// Two caveats distinguish this message-level adapter from the typed
    /// methods the in-process executor uses:
    ///
    /// * **accounting granularity** — a `FetchBinRequest` is one exchange
    ///   ([`CloudServer::bin_pair_by_ids`]) unless it also carries search
    ///   tags: the tags are then resolved as an exchange of their own, so a
    ///   frame the peer sent once is charged as two.  An `InsertRequest`
    ///   mixing plain tuples and encrypted rows is likewise charged per
    ///   operation.  The owner's TCP client never sends either (its
    ///   episodes are single `BinPairRequest`s), so its accounting stays
    ///   frame-accurate.
    /// * **sensitive-side resolution** — a `BinPairRequest`'s opaque tokens
    ///   are resolved against the cloud-side tag index.  Back-ends whose
    ///   tokens are *not* tags (the Opaque/Jana enclave simulators) cannot
    ///   be served from a bare message: the secure execution environment
    ///   lives engine-side, which is why their composed episodes go through
    ///   [`CloudSession::bin_pair_oblivious`].  Dispatching such a request
    ///   at an untagged deployment returns a typed [`WireMessage::Error`]
    ///   instead of a silently empty payload.
    pub fn dispatch(&mut self, msg: &WireMessage) -> Result<WireMessage> {
        let _span = pds_obs::obs_span("cloud.dispatch");
        match msg {
            WireMessage::FetchBinRequest(req) if req.tags.is_empty() => {
                let (plain_tuples, rows) = self.server.bin_pair_by_ids(req)?;
                Ok(bin_payload(plain_tuples, &rows))
            }
            WireMessage::FetchBinRequest(req) => {
                // Search tags are resolved in an exchange of their own (the
                // accounting caveat above).
                let (plain_tuples, mut rows) = if req.values.is_empty() && req.ids.is_empty() {
                    (Vec::new(), Vec::new())
                } else {
                    self.server.bin_pair_by_ids(&FetchBinRequest {
                        tags: Vec::new(),
                        ..req.clone()
                    })?
                };
                rows.extend(self.server.tag_select(&req.tags));
                Ok(bin_payload(plain_tuples, &rows))
            }
            WireMessage::BinPairRequest(req) => {
                if !req.encrypted_values.is_empty() && !self.server.encrypted_store().has_tags() {
                    return Ok(WireMessage::Error(error_frame(&PdsError::Wire(
                        "composed request carries search tokens but this deployment has no \
                         cloud-side tag index (enclave/MPC back-ends resolve tokens engine-side)"
                            .into(),
                    ))));
                }
                let (plain_tuples, rows) = self.server.bin_pair_by_tags(req)?;
                Ok(bin_payload(plain_tuples, &rows))
            }
            WireMessage::InsertRequest(req) => {
                let mut items = 0u64;
                for tuple in &req.plain_tuples {
                    self.server.insert_plaintext(tuple.clone())?;
                    items += 1;
                }
                if !req.encrypted_rows.is_empty() {
                    let rows: Vec<EncryptedRow> = req
                        .encrypted_rows
                        .iter()
                        .map(|row| EncryptedRow {
                            id: TupleId::new(row.id),
                            attr_ct: Ciphertext(row.attr_ct.clone()),
                            tuple_ct: Ciphertext(row.tuple_ct.clone()),
                            search_tags: row.search_tags.clone(),
                        })
                        .collect();
                    items += rows.len() as u64;
                    self.server.upload_encrypted(rows)?;
                }
                Ok(WireMessage::Ack(Ack { items }))
            }
            other => Ok(WireMessage::Error(error_frame(&PdsError::Wire(format!(
                "cloud session cannot serve a {} message",
                other.name()
            ))))),
        }
    }
}

/// The payload frame answering a bin request.
fn bin_payload(plain_tuples: Vec<Tuple>, rows: &[(TupleId, Ciphertext)]) -> WireMessage {
    WireMessage::BinPayload(BinPayload {
        plain_tuples,
        encrypted_rows: tuple_ct_rows(rows),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::NetworkModel;
    use pds_crypto::NonDetCipher;
    use pds_proto::WireRow;
    use pds_storage::{DataType, Relation, Schema};

    fn server() -> CloudServer {
        let schema =
            Schema::from_pairs(&[("EId", DataType::Text), ("Dept", DataType::Text)]).unwrap();
        let mut r = Relation::new("Employee", schema);
        for (e, d) in [("E259", "Design"), ("E199", "Design"), ("E254", "Sales")] {
            r.insert(vec![Value::from(e), Value::from(d)]).unwrap();
        }
        let mut s = CloudServer::new(NetworkModel::paper_wan());
        s.upload_plaintext(r, "EId").unwrap();
        let cipher = NonDetCipher::from_seed(9);
        let mut rng = pds_common::rng::seeded_rng(1);
        let rows: Vec<EncryptedRow> = (0..3u64)
            .map(|i| EncryptedRow {
                id: TupleId::new(100 + i),
                attr_ct: cipher.encrypt(format!("v{i}").as_bytes(), &mut rng),
                tuple_ct: cipher.encrypt(format!("tuple{i}").as_bytes(), &mut rng),
                search_tags: vec![vec![i as u8]],
            })
            .collect();
        s.upload_encrypted(rows).unwrap();
        s
    }

    #[test]
    fn episode_round_counting_tracks_round_trips() {
        let mut cloud = server();
        let mut session = CloudSession::new(&mut cloud);
        session.begin_episode();
        session
            .plain_select_filtered(&[Value::from("E259")], None)
            .unwrap();
        session
            .server_mut()
            .fetch_encrypted(&[TupleId::new(101)])
            .unwrap();
        let rounds = session.end_episode();
        assert_eq!(rounds, 2, "one plaintext round, one fetch round");

        session.begin_episode();
        let composed = session
            .bin_pair_by_tags(
                &BinEpisodeRequest {
                    sensitive_bin: 0,
                    nonsensitive_bin: 0,
                    sensitive_values: vec![Value::from("x")],
                    nonsensitive_values: vec![Value::from("E259")],
                    pushdown: None,
                },
                vec![vec![0u8]],
            )
            .unwrap();
        let composed_rounds = session.end_episode();
        assert_eq!(composed.0.len(), 1);
        assert_eq!(composed.1.len(), 1);
        assert_eq!(composed_rounds, 1, "composed episode is one round");
        assert_eq!(session.end_episode(), 0, "no episode open");
    }

    #[test]
    fn dispatch_serves_typed_messages() {
        let mut cloud = server();
        let mut session = CloudSession::new(&mut cloud);

        // Fetch by clear-text values.
        let resp = session
            .dispatch(&WireMessage::FetchBinRequest(FetchBinRequest {
                values: vec![Value::from("E259")],
                ids: Vec::new(),
                tags: Vec::new(),
                predicate: None,
            }))
            .unwrap();
        match resp {
            WireMessage::BinPayload(p) => assert_eq!(p.plain_tuples.len(), 1),
            other => panic!("unexpected response {other:?}"),
        }

        // Fetch by values and by ids in one message: one exchange.
        let rounds = session.server().metrics().round_trips;
        let resp = session
            .dispatch(&WireMessage::FetchBinRequest(FetchBinRequest {
                values: vec![Value::from("E199")],
                ids: vec![102, 100],
                tags: Vec::new(),
                predicate: None,
            }))
            .unwrap();
        match resp {
            WireMessage::BinPayload(p) => {
                assert_eq!(p.plain_tuples.len(), 1);
                let ids: Vec<u64> = p.encrypted_rows.iter().map(|r| r.id).collect();
                assert_eq!(ids, [102, 100]);
            }
            other => panic!("unexpected response {other:?}"),
        }
        assert_eq!(session.server().metrics().round_trips, rounds + 1);

        // Fetch by tags and by ids in one message: the tags are charged as
        // an exchange of their own.
        let rounds = session.server().metrics().round_trips;
        let resp = session
            .dispatch(&WireMessage::FetchBinRequest(FetchBinRequest {
                values: Vec::new(),
                ids: vec![100],
                tags: vec![vec![1u8]],
                predicate: None,
            }))
            .unwrap();
        match resp {
            WireMessage::BinPayload(p) => assert_eq!(p.encrypted_rows.len(), 2),
            other => panic!("unexpected response {other:?}"),
        }
        assert_eq!(session.server().metrics().round_trips, rounds + 2);

        // Composed bin pair.
        let resp = session
            .dispatch(&WireMessage::BinPairRequest(BinPairRequest {
                sensitive_bin: 0,
                nonsensitive_bin: 0,
                encrypted_values: vec![vec![2u8]],
                nonsensitive_values: vec![Value::from("E199")],
                predicate: None,
            }))
            .unwrap();
        match resp {
            WireMessage::BinPayload(p) => {
                assert_eq!(p.plain_tuples.len(), 1);
                assert_eq!(p.encrypted_rows.len(), 1);
            }
            other => panic!("unexpected response {other:?}"),
        }

        // Inserts (plain + encrypted) are acknowledged with an item count.
        let cipher = NonDetCipher::from_seed(4);
        let mut rng = pds_common::rng::seeded_rng(7);
        let ct = cipher.encrypt(b"z", &mut rng);
        let resp = session
            .dispatch(&WireMessage::InsertRequest(pds_proto::InsertRequest {
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
        assert_eq!(session.server().plain_len(), 4);
        assert_eq!(session.server().encrypted_len(), 4);

        // Unsupported kinds come back as typed errors.
        let resp = session
            .dispatch(&WireMessage::Ack(Ack { items: 1 }))
            .unwrap();
        assert!(matches!(resp, WireMessage::Error(_)));
    }

    #[test]
    fn composed_dispatch_rejects_tokens_at_untagged_deployments() {
        // A deployment whose encrypted rows carry no cloud-side tags
        // (enclave/MPC back-ends) cannot resolve opaque tokens from a bare
        // message: the dispatch must answer with a typed error, never a
        // silently empty payload.
        let cipher = NonDetCipher::from_seed(3);
        let mut rng = pds_common::rng::seeded_rng(5);
        let mut cloud = CloudServer::new(NetworkModel::paper_wan());
        cloud
            .upload_encrypted(vec![EncryptedRow {
                id: TupleId::new(1),
                attr_ct: cipher.encrypt(b"a", &mut rng),
                tuple_ct: cipher.encrypt(b"t", &mut rng),
                search_tags: Vec::new(),
            }])
            .unwrap();
        let mut session = CloudSession::new(&mut cloud);
        let resp = session
            .dispatch(&WireMessage::BinPairRequest(BinPairRequest {
                sensitive_bin: 0,
                nonsensitive_bin: 0,
                encrypted_values: vec![vec![1, 2, 3]],
                nonsensitive_values: Vec::new(),
                predicate: None,
            }))
            .unwrap();
        assert!(matches!(resp, WireMessage::Error(_)), "{resp:?}");
    }

    #[test]
    fn pushdown_filters_cloud_side_and_shrinks_the_downlink() {
        // Residual predicate on the non-search attribute: the filtered
        // episode must return exactly the matching subset and move fewer
        // downlink bytes than the unfiltered one.
        let dept = pds_common::AttrId::new(1);
        let residual = Predicate::Eq {
            attr: dept,
            value: Value::from("Design"),
        };
        let bin = [Value::from("E259"), Value::from("E254")];

        let mut plain_cloud = server();
        let unfiltered = plain_cloud.plain_select_in(&bin).unwrap();
        let plain_down: u64 = plain_cloud.metrics().bytes_downloaded;

        let mut cloud = server();
        let filtered = cloud.plain_select_filtered(&bin, Some(&residual)).unwrap();
        let filtered_down: u64 = cloud.metrics().bytes_downloaded;

        assert_eq!(unfiltered.len(), 2);
        assert_eq!(filtered.len(), 1, "E254 is in Sales and must be dropped");
        assert!(filtered.iter().all(|t| residual.matches(t)));
        assert!(
            filtered_down < plain_down,
            "pushdown must shrink the downlink ({filtered_down} vs {plain_down})"
        );
        // Uplink pays for carrying the predicate; scan counters still see
        // both index matches.
        assert_eq!(cloud.metrics().plaintext_tuples_scanned, 2);
        assert_eq!(cloud.metrics().tuples_returned, 1);

        // The message-level adapter serves the same filtered episode.
        let mut dispatch_cloud = server();
        let mut session = CloudSession::new(&mut dispatch_cloud);
        let resp = session
            .dispatch(&WireMessage::FetchBinRequest(FetchBinRequest {
                values: bin.to_vec(),
                ids: Vec::new(),
                tags: Vec::new(),
                predicate: Some(residual.clone()),
            }))
            .unwrap();
        match resp {
            WireMessage::BinPayload(p) => assert_eq!(p.plain_tuples, filtered),
            other => panic!("unexpected response {other:?}"),
        }
    }

    #[test]
    fn dispatch_matches_the_direct_method_byte_for_byte() {
        // The message-level adapter and the typed method must serve the
        // same composed episode identically (same rows, same plain tuples).
        let request = BinPairRequest {
            sensitive_bin: 0,
            nonsensitive_bin: 0,
            encrypted_values: vec![vec![0u8], vec![1u8]],
            nonsensitive_values: vec![Value::from("E259"), Value::from("E254")],
            predicate: None,
        };
        let mut direct_cloud = server();
        let (plain, rows) = direct_cloud.bin_pair_by_tags(&request).unwrap();

        let mut cloud = server();
        let mut session = CloudSession::new(&mut cloud);
        let resp = session
            .dispatch(&WireMessage::BinPairRequest(request))
            .unwrap();
        match resp {
            WireMessage::BinPayload(p) => {
                assert_eq!(p.plain_tuples, plain);
                let ids: Vec<u64> = p.encrypted_rows.iter().map(|r| r.id).collect();
                let direct_ids: Vec<u64> = rows.iter().map(|(id, _)| id.raw()).collect();
                assert_eq!(ids, direct_ids);
                for (wire, (_, ct)) in p.encrypted_rows.iter().zip(&rows) {
                    assert_eq!(wire.tuple_ct, ct.as_bytes());
                }
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
}
