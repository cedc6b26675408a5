//! The trusted DB owner.
//!
//! The owner (§II) is the only party holding keys.  It encrypts sensitive
//! tuples before outsourcing, issues queries, decrypts returned ciphertexts,
//! filters out padding/fake tuples and merges the sensitive and
//! non-sensitive result streams.  The owner also keeps the metadata QB needs
//! (searchable values and their frequency counts) — that metadata lives in
//! `pds-core::metadata`, built on [`pds_storage::AttributeStats`].

use pds_common::{AttrId, PdsError, Result, Value};
use pds_crypto::dpf::{self, DpfKey};
use pds_crypto::shamir::{self, Share};
use pds_crypto::{Ciphertext, DeterministicTagger, Key128, NonDetCipher};
use pds_proto::WireRow;
use pds_storage::{Relation, Tuple};
use rand::rngs::StdRng;
use rand::RngCore;

use crate::metrics::Metrics;

/// The trusted client that owns the data and the keys.
pub struct DbOwner {
    cipher: NonDetCipher,
    tagger: DeterministicTagger,
    rng: StdRng,
    metrics: Metrics,
    /// Width every tuple plaintext is zero-padded to before encryption
    /// (0: no padding); fixed by [`DbOwner::pad_tuples_to_widest`].
    tuple_width: usize,
}

impl DbOwner {
    /// Creates an owner whose keys and randomness derive from `seed`.
    pub fn new(seed: u64) -> Self {
        DbOwner {
            cipher: NonDetCipher::new(
                Key128::derive(seed, "owner-enc"),
                Key128::derive(seed, "owner-mac"),
            ),
            tagger: DeterministicTagger::new(Key128::derive(seed, "owner-det")),
            rng: pds_common::rng::seeded_rng(pds_common::rng::derive_seed(seed, "owner-rng")),
            metrics: Metrics::new(),
            tuple_width: 0,
        }
    }

    /// A worker owner holding the **same keys** and tuple padding width but
    /// its own randomness stream and zeroed counters.
    ///
    /// The executor hands one fork to every shard task of every batch: keys
    /// must match (the fork has to decrypt what the original encrypted and
    /// produce identical deterministic tags) while the encryption
    /// randomness and the work counters must not be shared across threads.
    /// Each fork is seeded from this owner's own stream, which the fork
    /// advances, so no two forks — of one batch or of successive batches —
    /// replay the same nonces.  Fold the fork's counters back with
    /// [`DbOwner::absorb_metrics`].
    pub fn fork(&mut self) -> Self {
        DbOwner {
            cipher: self.cipher.clone(),
            tagger: self.tagger.clone(),
            rng: pds_common::rng::seeded_rng(self.rng.next_u64()),
            metrics: Metrics::new(),
            tuple_width: self.tuple_width,
        }
    }

    /// Adds a forked owner's (or any other) counters into this owner's.
    pub fn absorb_metrics(&mut self, other: &Metrics) {
        self.metrics.absorb(other);
    }

    /// Records the outcome of one owner-side hot-bin cache lookup (a hit
    /// skipped the cloud entirely; a miss went on to fetch the pair).
    pub fn note_bin_cache(&mut self, hit: bool) {
        if hit {
            self.metrics.bin_cache_hits += 1;
        } else {
            self.metrics.bin_cache_misses += 1;
        }
    }

    // ----- value-level primitives -------------------------------------------

    /// Non-deterministically encrypts a single value.
    pub fn encrypt_value(&mut self, value: &Value) -> Ciphertext {
        self.metrics.owner_encryptions += 1;
        self.cipher.encrypt_with(
            value.encoded_len(),
            |out| value.encode_into(out),
            &mut self.rng,
        )
    }

    /// Decrypts a value ciphertext.
    pub fn decrypt_value(&mut self, ct: &Ciphertext) -> Result<Value> {
        self.metrics.owner_decryptions += 1;
        let bytes = self.cipher.decrypt(ct)?;
        Value::decode(&bytes)
            .ok_or_else(|| PdsError::Crypto("decrypted bytes are not a valid value".into()))
    }

    /// Deterministic equality tag of a value (for indexable back-ends).
    pub fn det_tag(&mut self, value: &Value) -> Vec<u8> {
        self.metrics.owner_encryptions += 1;
        self.tagger.tag_vec(&value.encode())
    }

    /// A DPF key pair for the point `alpha` of a `domain_size` domain, one
    /// key per non-colluding server.  The keys' random shares come from
    /// this owner's stream, so every query gets fresh ones: reused
    /// randomness would let a server XOR two queries' shares into the
    /// indicator of their points.
    pub fn dpf_keys(&mut self, domain_size: usize, alpha: usize) -> Result<(DpfKey, DpfKey)> {
        dpf::generate(domain_size, alpha, 1, &mut self.rng)
    }

    /// Shamir shares of `secret` for `n` share servers, any `k` of which
    /// reconstruct it.  The polynomial's coefficients come from this
    /// owner's stream, so they depend on the owner's seed and are fresh
    /// for every secret: a fixed coefficient stream would give equal
    /// secrets equal shares, and let one server subtract its shares of
    /// two deployments into the difference of their secrets.
    pub fn shamir_shares(&mut self, secret: u64, k: usize, n: usize) -> Result<Vec<Share>> {
        shamir::share(secret, k, n, &mut self.rng)
    }

    /// Arx-style per-occurrence tag of `(value, occurrence)`.
    pub fn counter_tag(&mut self, value: &Value, occurrence: u64) -> Vec<u8> {
        self.metrics.owner_encryptions += 1;
        let mut input = value.encode();
        input.extend_from_slice(&occurrence.to_be_bytes());
        self.tagger.tag_vec(&input)
    }

    // ----- tuple-level primitives --------------------------------------------

    /// Fixes the width every tuple plaintext is padded to: the widest
    /// encoded tuple of `relation`, the augmented sensitive relation at
    /// outsourcing.  Without it a ciphertext's length tells the cloud a
    /// fake padding row (mostly `NULL`s) from a real one, so it could count
    /// each sensitive bin's real tuples.  A later tuple wider than the
    /// width is encrypted unpadded.
    pub fn pad_tuples_to_widest(&mut self, relation: &Relation) {
        self.tuple_width = relation
            .tuples()
            .iter()
            .map(Tuple::encoded_len)
            .max()
            .unwrap_or(0);
    }

    /// Non-deterministically encrypts a whole tuple, its plaintext
    /// zero-padded to the width fixed by [`DbOwner::pad_tuples_to_widest`].
    /// The tuple is encoded straight into the ciphertext buffer.
    pub fn encrypt_tuple(&mut self, tuple: &Tuple) -> Ciphertext {
        self.metrics.owner_encryptions += 1;
        let width = tuple.encoded_len().max(self.tuple_width);
        self.cipher
            .encrypt_with(width, |out| tuple.encode_into(out), &mut self.rng)
    }

    /// Decrypts a tuple ciphertext and strips its zero padding.
    pub fn decrypt_tuple(&mut self, ct: &Ciphertext) -> Result<Tuple> {
        self.metrics.owner_decryptions += 1;
        let bytes = self.cipher.decrypt(ct)?;
        let (tuple, used) = Tuple::decode_prefix(&bytes)
            .ok_or_else(|| PdsError::Crypto("decrypted bytes are not a valid tuple".into()))?;
        if bytes[used..].iter().any(|&b| b != 0) {
            return Err(PdsError::Crypto(
                "decrypted tuple carries non-zero padding".into(),
            ));
        }
        Ok(tuple)
    }

    /// Encrypts one sensitive tuple into the row the cloud stores: the
    /// full tuple's ciphertext, the cloud-side search `tags` (if any) and,
    /// when `attr_column` names the searchable attribute, a separate
    /// ciphertext of that attribute's value (empty otherwise).
    ///
    /// Only the No-Ind column scan (nondet-scan) downloads that column, so
    /// only it asks for it; every other back-end passes `None` and saves one
    /// encryption per row.  The owner's counters take one encryption per
    /// ciphertext built.
    pub fn encrypt_row(
        &mut self,
        tuple: &Tuple,
        attr_column: Option<AttrId>,
        tags: Vec<Vec<u8>>,
    ) -> WireRow {
        let attr_ct =
            attr_column.map_or_else(Vec::new, |attr| self.encrypt_value(tuple.value(attr)).0);
        WireRow {
            id: tuple.id.raw(),
            attr_ct,
            tuple_ct: self.encrypt_tuple(tuple).0,
            search_tags: tags,
        }
    }

    /// Encrypts an entire sensitive relation with no cloud-side tags:
    /// [`DbOwner::encrypt_row`] of every tuple, with the attribute column
    /// exactly when `attr_column` is `Some`.
    pub fn encrypt_relation(
        &mut self,
        relation: &Relation,
        attr_column: Option<AttrId>,
    ) -> Vec<WireRow> {
        relation
            .tuples()
            .iter()
            .map(|t| self.encrypt_row(t, attr_column, Vec::new()))
            .collect()
    }

    // ----- observability ------------------------------------------------------

    /// Owner-side work counters (encryptions/decryptions performed).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Resets owner-side work counters.
    pub fn reset_metrics(&mut self) {
        self.metrics = Metrics::new();
    }
}

impl std::fmt::Debug for DbOwner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DbOwner")
            .field("metrics", &self.metrics)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pds_common::TupleId;
    use pds_storage::{DataType, Schema};

    fn sample_tuple() -> Tuple {
        Tuple::new(
            TupleId::new(4),
            vec![Value::from("E259"), Value::Int(6), Value::from("Defense")],
        )
    }

    #[test]
    fn value_roundtrip_and_nondeterminism() {
        let mut owner = DbOwner::new(7);
        let v = Value::from("E152");
        let c1 = owner.encrypt_value(&v);
        let c2 = owner.encrypt_value(&v);
        assert_ne!(c1, c2, "non-deterministic encryption");
        assert_eq!(owner.decrypt_value(&c1).unwrap(), v);
        assert_eq!(owner.decrypt_value(&c2).unwrap(), v);
        assert_eq!(owner.metrics().owner_encryptions, 2);
        assert_eq!(owner.metrics().owner_decryptions, 2);
    }

    #[test]
    fn tuple_roundtrip() {
        let mut owner = DbOwner::new(7);
        let t = sample_tuple();
        let ct = owner.encrypt_tuple(&t);
        assert_eq!(owner.decrypt_tuple(&ct).unwrap(), t);
    }

    #[test]
    fn padded_tuples_share_one_ciphertext_length_and_decrypt_exactly() {
        let mut owner = DbOwner::new(7);
        let schema = Schema::from_pairs(&[
            ("EId", DataType::Text),
            ("Office", DataType::Int),
            ("Dept", DataType::Text),
        ])
        .unwrap();
        let mut r = Relation::new("Emp", schema);
        r.insert(vec![Value::from("E1"), Value::Int(1), Value::from("Sales")])
            .unwrap();
        r.insert(vec![
            Value::from("E259"),
            Value::Int(6),
            Value::from("Defense"),
        ])
        .unwrap();
        r.insert(vec![Value::from("E3"), Value::Null, Value::Null])
            .unwrap();
        owner.pad_tuples_to_widest(&r);
        let mut fork = owner.fork();
        let cts: Vec<Ciphertext> = r.tuples().iter().map(|t| fork.encrypt_tuple(t)).collect();
        assert!(cts.iter().all(|ct| ct.len() == cts[0].len()));
        for (t, ct) in r.tuples().iter().zip(&cts) {
            assert_eq!(&owner.decrypt_tuple(ct).unwrap(), t);
        }
    }

    #[test]
    fn non_zero_tuple_padding_is_rejected() {
        let mut owner = DbOwner::new(7);
        let mut plaintext = sample_tuple().encode();
        plaintext.push(1);
        let ct = owner.cipher.encrypt(&plaintext, &mut owner.rng);
        assert!(matches!(owner.decrypt_tuple(&ct), Err(PdsError::Crypto(_))));
        plaintext.pop();
        plaintext.extend_from_slice(&[0, 0]);
        let ct = owner.cipher.encrypt(&plaintext, &mut owner.rng);
        assert_eq!(owner.decrypt_tuple(&ct).unwrap(), sample_tuple());
    }

    #[test]
    fn det_tags_are_deterministic_counter_tags_are_not_equal_across_occurrences() {
        let mut owner = DbOwner::new(7);
        let v = Value::from("E259");
        assert_eq!(owner.det_tag(&v), owner.det_tag(&v));
        assert_ne!(owner.counter_tag(&v, 0), owner.counter_tag(&v, 1));
        assert_ne!(owner.det_tag(&v), owner.det_tag(&Value::from("E101")));
    }

    #[test]
    fn encrypt_row_and_relation() {
        let mut owner = DbOwner::new(7);
        let schema =
            Schema::from_pairs(&[("EId", DataType::Text), ("Office", DataType::Int)]).unwrap();
        let mut r = Relation::new("Emp", schema);
        r.insert(vec![Value::from("E101"), Value::Int(1)]).unwrap();
        r.insert(vec![Value::from("E259"), Value::Int(6)]).unwrap();
        let attr = r.schema().attr_id("EId").unwrap();
        let rows = owner.encrypt_relation(&r, Some(attr));
        assert_eq!(rows.len(), 2);
        assert_eq!(
            owner.metrics().owner_encryptions,
            4,
            "two ciphertexts a row"
        );
        // Decrypting the attribute ciphertext recovers the searchable value.
        assert_eq!(
            owner
                .decrypt_value(&Ciphertext(rows[1].attr_ct.clone()))
                .unwrap(),
            Value::from("E259")
        );
        let t = owner
            .decrypt_tuple(&Ciphertext(rows[0].tuple_ct.clone()))
            .unwrap();
        assert_eq!(t.id, r.tuples()[0].id);

        // Without the column a row is its tuple ciphertext and its tags.
        owner.reset_metrics();
        let row = owner.encrypt_row(&r.tuples()[1], None, vec![vec![7]]);
        assert!(row.attr_ct.is_empty());
        assert_eq!(row.search_tags, vec![vec![7]]);
        assert_eq!(owner.metrics().owner_encryptions, 1);
        assert_eq!(
            owner.decrypt_tuple(&Ciphertext(row.tuple_ct)).unwrap(),
            r.tuples()[1]
        );
    }

    #[test]
    fn shamir_coefficients_come_from_the_owner_stream() {
        let secret = 12_345;
        let a = DbOwner::new(1).shamir_shares(secret, 2, 3).unwrap();
        let b = DbOwner::new(2).shamir_shares(secret, 2, 3).unwrap();
        assert!(
            a.iter().zip(&b).all(|(a, b)| a.y != b.y),
            "seeds share no share"
        );
        let mut owner = DbOwner::new(1);
        let first = owner.shamir_shares(secret, 2, 3).unwrap();
        let second = owner.shamir_shares(secret, 2, 3).unwrap();
        assert_ne!(
            first, second,
            "one secret shared twice gets fresh coefficients"
        );
        for shares in [&a, &b, &first, &second] {
            assert_eq!(shamir::reconstruct(&shares[1..]).unwrap(), secret);
        }
    }

    #[test]
    fn wrong_owner_cannot_decrypt() {
        let mut owner = DbOwner::new(7);
        let mut other = DbOwner::new(8);
        let ct = owner.encrypt_value(&Value::from("secret"));
        assert!(other.decrypt_value(&ct).is_err());
    }

    #[test]
    fn reset_metrics() {
        let mut owner = DbOwner::new(7);
        owner.encrypt_value(&Value::Int(1));
        owner.reset_metrics();
        assert_eq!(owner.metrics().owner_encryptions, 0);
    }

    #[test]
    fn fork_shares_keys_but_not_counters() {
        let mut owner = DbOwner::new(7);
        let ct = owner.encrypt_value(&Value::from("secret"));
        let mut fork = owner.fork();
        assert_eq!(fork.metrics().owner_encryptions, 0, "fresh counters");
        assert_eq!(
            fork.decrypt_value(&ct).unwrap(),
            Value::from("secret"),
            "forks decrypt the original's ciphertexts"
        );
        assert_eq!(
            owner.det_tag(&Value::from("E259")),
            fork.det_tag(&Value::from("E259")),
            "deterministic tags agree across forks"
        );
        // Forked randomness streams are independent of each other.
        let mut fork2 = owner.fork();
        assert_ne!(
            fork.encrypt_value(&Value::Int(1)),
            fork2.encrypt_value(&Value::Int(1))
        );
        // Counters fold back into the parent.
        owner.reset_metrics();
        owner.absorb_metrics(fork.metrics());
        assert_eq!(
            owner.metrics().owner_decryptions + owner.metrics().owner_encryptions,
            fork.metrics().owner_decryptions + fork.metrics().owner_encryptions
        );
    }

    #[test]
    fn successive_forks_encrypt_under_different_nonces() {
        // Two forks that shared a CTR nonce would leak the XOR of their
        // plaintexts through the XOR of their ciphertext bodies.
        let mut owner = DbOwner::new(7);
        let nonce = |ct: &Ciphertext| ct.as_bytes()[..pds_crypto::ctr::NONCE_LEN].to_vec();
        let a = owner.fork().encrypt_value(&Value::from("AAAA"));
        let b = owner.fork().encrypt_value(&Value::from("BBBB"));
        assert_ne!(nonce(&a), nonce(&b));
        assert_eq!(owner.decrypt_value(&a).unwrap(), Value::from("AAAA"));
        assert_eq!(owner.decrypt_value(&b).unwrap(), Value::from("BBBB"));
    }

    #[test]
    fn bin_cache_notes_count_hits_and_misses() {
        let mut owner = DbOwner::new(7);
        owner.note_bin_cache(true);
        owner.note_bin_cache(false);
        owner.note_bin_cache(false);
        assert_eq!(owner.metrics().bin_cache_hits, 1);
        assert_eq!(owner.metrics().bin_cache_misses, 2);
    }
}
