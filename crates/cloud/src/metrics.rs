//! Work counters for cost accounting.
//!
//! The experiment harness never times Opaque- or Jana-class back-ends
//! directly (the real systems take minutes to hours per query); instead each
//! component increments these counters and the cost models in
//! `pds-systems`/`pds-core` convert counts and bytes into simulated seconds.

use serde::{Deserialize, Serialize};

/// Counters of work performed during one or more query executions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct Metrics {
    /// Tuples examined by plaintext predicate evaluation on the cloud.
    pub plaintext_tuples_scanned: u64,
    /// Plaintext index lookups performed on the cloud.
    pub plaintext_index_lookups: u64,
    /// Encrypted tuples scanned/processed by a cryptographic back-end.
    pub encrypted_tuples_scanned: u64,
    /// Ciphertexts decrypted at the DB owner.
    pub owner_decryptions: u64,
    /// Values encrypted at the DB owner (query tokens + outsourcing).
    pub owner_encryptions: u64,
    /// Bytes sent from the owner to the cloud (queries, uploads).  Since
    /// the `pds-proto` wire format landed these are **measured** encoded
    /// frame lengths, not payload estimates.
    pub bytes_uploaded: u64,
    /// Bytes sent from the cloud to the owner (results).  Measured encoded
    /// frame lengths, like [`Metrics::bytes_uploaded`].
    pub bytes_downloaded: u64,
    /// Wire frames moved in either direction (each request and each
    /// response is one frame).
    pub wire_frames: u64,
    /// Wire frames broken down by message type, indexed by
    /// `pds_proto::msg_tag - 1` (FetchBinRequest, the retired tag 2,
    /// BinPayload, InsertRequest, Ack, Error, Opaque, ...).  Every frame the
    /// cloud charges carries a known tag, so the sum over all slots equals
    /// [`Metrics::wire_frames`] and protocol-level properties (e.g. "a
    /// composed episode moved exactly one `FetchBinRequest` frame") are
    /// assertable from metrics alone.
    pub wire_frames_by_type: [u64; pds_proto::msg_tag::COUNT],
    /// Number of request round trips between owner and cloud.
    pub round_trips: u64,
    /// Tuples returned to the owner (sensitive + non-sensitive).
    pub tuples_returned: u64,
    /// Fake tuples returned (QB general case padding).  Nothing adds to
    /// it, so it reads 0 by construction: the cloud cannot tell a padding
    /// fake from a real row — that is what the padding is for — and only
    /// the owner's `qmerge` recognises fakes, by tuple id.
    pub fake_tuples_returned: u64,
    /// Bin-pair retrievals answered from the owner-side hot-bin cache
    /// (no cloud interaction at all).
    pub bin_cache_hits: u64,
    /// Bin-pair retrievals that went to the cloud because at least one of
    /// the pair's bins was not cached.
    pub bin_cache_misses: u64,
}

impl Metrics {
    /// A zeroed metrics object.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds another metrics object into this one.
    pub fn absorb(&mut self, other: &Metrics) {
        self.plaintext_tuples_scanned += other.plaintext_tuples_scanned;
        self.plaintext_index_lookups += other.plaintext_index_lookups;
        self.encrypted_tuples_scanned += other.encrypted_tuples_scanned;
        self.owner_decryptions += other.owner_decryptions;
        self.owner_encryptions += other.owner_encryptions;
        self.bytes_uploaded += other.bytes_uploaded;
        self.bytes_downloaded += other.bytes_downloaded;
        self.wire_frames += other.wire_frames;
        for (mine, theirs) in self
            .wire_frames_by_type
            .iter_mut()
            .zip(other.wire_frames_by_type)
        {
            *mine += theirs;
        }
        self.round_trips += other.round_trips;
        self.tuples_returned += other.tuples_returned;
        self.fake_tuples_returned += other.fake_tuples_returned;
        self.bin_cache_hits += other.bin_cache_hits;
        self.bin_cache_misses += other.bin_cache_misses;
    }

    /// Difference `self - baseline`, useful to isolate the cost of one query
    /// when counters accumulate across a session.
    pub fn delta_since(&self, baseline: &Metrics) -> Metrics {
        Metrics {
            plaintext_tuples_scanned: self.plaintext_tuples_scanned
                - baseline.plaintext_tuples_scanned,
            plaintext_index_lookups: self.plaintext_index_lookups
                - baseline.plaintext_index_lookups,
            encrypted_tuples_scanned: self.encrypted_tuples_scanned
                - baseline.encrypted_tuples_scanned,
            owner_decryptions: self.owner_decryptions - baseline.owner_decryptions,
            owner_encryptions: self.owner_encryptions - baseline.owner_encryptions,
            bytes_uploaded: self.bytes_uploaded - baseline.bytes_uploaded,
            bytes_downloaded: self.bytes_downloaded - baseline.bytes_downloaded,
            wire_frames: self.wire_frames - baseline.wire_frames,
            wire_frames_by_type: std::array::from_fn(|i| {
                self.wire_frames_by_type[i] - baseline.wire_frames_by_type[i]
            }),
            round_trips: self.round_trips - baseline.round_trips,
            tuples_returned: self.tuples_returned - baseline.tuples_returned,
            fake_tuples_returned: self.fake_tuples_returned - baseline.fake_tuples_returned,
            bin_cache_hits: self.bin_cache_hits - baseline.bin_cache_hits,
            bin_cache_misses: self.bin_cache_misses - baseline.bin_cache_misses,
        }
    }

    /// Total bytes moved in either direction.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_uploaded + self.bytes_downloaded
    }

    /// Records one wire frame of the given `pds_proto::msg_tag` type in
    /// both the total and the per-type counter.
    pub fn count_frame(&mut self, msg_type: u8) {
        self.wire_frames += 1;
        if msg_type >= 1 {
            if let Some(slot) = self.wire_frames_by_type.get_mut(msg_type as usize - 1) {
                *slot += 1;
            }
        }
    }

    /// Frames moved carrying the given `pds_proto::msg_tag` message type
    /// (0 for an unknown tag).
    pub fn frames_of_type(&self, msg_type: u8) -> u64 {
        if msg_type == 0 {
            return 0;
        }
        self.wire_frames_by_type
            .get(msg_type as usize - 1)
            .copied()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_sums_fields() {
        let mut a = Metrics {
            plaintext_tuples_scanned: 1,
            bytes_uploaded: 10,
            ..Default::default()
        };
        let b = Metrics {
            plaintext_tuples_scanned: 2,
            bytes_downloaded: 5,
            wire_frames: 2,
            ..Default::default()
        };
        a.absorb(&b);
        assert_eq!(a.plaintext_tuples_scanned, 3);
        assert_eq!(a.total_bytes(), 15);
        assert_eq!(a.wire_frames, 2);
        let d = a.delta_since(&b);
        assert_eq!(d.wire_frames, 0);
    }

    #[test]
    fn cache_counters_absorb_and_delta() {
        let mut a = Metrics {
            bin_cache_hits: 2,
            bin_cache_misses: 5,
            ..Default::default()
        };
        a.absorb(&Metrics {
            bin_cache_hits: 1,
            bin_cache_misses: 1,
            ..Default::default()
        });
        assert_eq!(a.bin_cache_hits, 3);
        assert_eq!(a.bin_cache_misses, 6);
        let d = a.delta_since(&Metrics {
            bin_cache_hits: 2,
            bin_cache_misses: 5,
            ..Default::default()
        });
        assert_eq!(d.bin_cache_hits, 1);
        assert_eq!(d.bin_cache_misses, 1);
    }

    #[test]
    fn delta_isolates_one_query() {
        let before = Metrics {
            owner_decryptions: 5,
            round_trips: 2,
            ..Default::default()
        };
        let after = Metrics {
            owner_decryptions: 9,
            round_trips: 3,
            ..Default::default()
        };
        let d = after.delta_since(&before);
        assert_eq!(d.owner_decryptions, 4);
        assert_eq!(d.round_trips, 1);
    }

    #[test]
    fn default_is_zero() {
        assert_eq!(Metrics::new().total_bytes(), 0);
    }

    #[test]
    fn per_type_frame_counters_track_the_total() {
        use pds_proto::msg_tag;
        let mut m = Metrics::new();
        m.count_frame(msg_tag::FETCH_BIN_REQUEST);
        m.count_frame(msg_tag::BIN_PAYLOAD);
        m.count_frame(msg_tag::BIN_PAYLOAD);
        assert_eq!(m.wire_frames, 3);
        assert_eq!(m.frames_of_type(msg_tag::FETCH_BIN_REQUEST), 1);
        assert_eq!(m.frames_of_type(msg_tag::BIN_PAYLOAD), 2);
        assert_eq!(m.frames_of_type(msg_tag::ACK), 0);
        assert_eq!(m.wire_frames_by_type.iter().sum::<u64>(), m.wire_frames);

        // Unknown tags touch nothing (neither panic nor misattribution).
        m.count_frame(0);
        m.count_frame(200);
        assert_eq!(m.wire_frames, 5);
        assert_eq!(m.wire_frames_by_type.iter().sum::<u64>(), 3);
        assert_eq!(m.frames_of_type(99), 0);

        let mut sum = Metrics::new();
        sum.absorb(&m);
        sum.absorb(&m);
        assert_eq!(sum.frames_of_type(msg_tag::BIN_PAYLOAD), 4);
        let d = sum.delta_since(&m);
        assert_eq!(d.frames_of_type(msg_tag::BIN_PAYLOAD), 2);
        assert_eq!(d.frames_of_type(msg_tag::FETCH_BIN_REQUEST), 1);
    }
}
