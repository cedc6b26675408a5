//! Cloud-side storage of the encrypted sensitive relation.
//!
//! Each sensitive tuple is stored as an [`EncryptedRow`]:
//!
//! * `tuple_ct` — the whole tuple under non-deterministic encryption;
//! * `attr_ct` — the searchable attribute value alone, also under
//!   non-deterministic encryption, stored only for the "No-Ind" search
//!   procedure of §V-B, which downloads this column, decrypts it
//!   owner-side and selects addresses.  Every other back-end finds its
//!   rows by tag, by share or DPF scan, or in an enclave, never reads the
//!   column, and does not store it;
//! * `search_tags` — optional cloud-side searchable tags (deterministic
//!   equality tags for the CryptDB-style back-end, per-occurrence counter
//!   tokens for the Arx-style back-end). Absent for strongly secure
//!   back-ends.
//!
//! Fake tuples injected by QB's general case are ordinary encrypted rows
//! flagged server-side only in the sense that the *owner* knows their ids;
//! to the cloud and the adversary they are indistinguishable from real rows.

use std::collections::{HashMap, HashSet};

use pds_common::{PdsError, Result, TupleId};
use pds_crypto::Ciphertext;
use pds_proto::RowParts;

/// One encrypted sensitive tuple as stored by the cloud.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncryptedRow {
    /// Storage address / tuple id (what access-pattern leakage reveals).
    pub id: TupleId,
    /// Encryption of the searchable attribute value, present only on rows
    /// of the No-Ind column scan (nondet-scan), the one back-end that
    /// downloads the column; `None` elsewhere.
    pub attr_ct: Option<Ciphertext>,
    /// Encryption of the full tuple.
    pub tuple_ct: Ciphertext,
    /// Cloud-side searchable tags (empty for non-indexable back-ends).
    pub search_tags: Vec<Vec<u8>>,
}

impl EncryptedRow {
    /// Total stored size in bytes.
    pub fn size_bytes(&self) -> usize {
        8 + self.attr_ct.as_ref().map_or(0, Ciphertext::len)
            + self.tuple_ct.len()
            + self.search_tags.iter().map(Vec::len).sum::<usize>()
    }

    /// The row's wire fields, borrowed (ciphertexts as opaque bytes).
    pub(crate) fn wire_parts(&self) -> RowParts<'_> {
        RowParts {
            id: self.id.raw(),
            attr_ct: self.attr_ct.as_ref().map_or(&[], Ciphertext::as_bytes),
            tuple_ct: self.tuple_ct.as_bytes(),
            search_tags: &self.search_tags,
        }
    }
}

fn duplicate(id: TupleId) -> PdsError {
    PdsError::Cloud(format!("duplicate encrypted tuple id {id}"))
}

/// The encrypted store: rows plus an (optional) tag index.
#[derive(Debug, Clone, Default)]
pub struct EncryptedStore {
    rows: Vec<EncryptedRow>,
    by_id: HashMap<TupleId, usize>,
    tag_index: HashMap<Vec<u8>, Vec<TupleId>>,
}

impl EncryptedStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a row; ids must be unique.
    pub fn insert(&mut self, row: EncryptedRow) -> Result<()> {
        if self.by_id.contains_key(&row.id) {
            return Err(duplicate(row.id));
        }
        self.by_id.insert(row.id, self.rows.len());
        for tag in &row.search_tags {
            self.tag_index.entry(tag.clone()).or_default().push(row.id);
        }
        self.rows.push(row);
        Ok(())
    }

    /// Bulk insert, all or nothing: an id already stored, or repeated
    /// within `rows`, is an error and stores no row.
    pub fn insert_many(&mut self, rows: Vec<EncryptedRow>) -> Result<()> {
        let mut seen = HashSet::with_capacity(rows.len());
        if let Some(row) = rows
            .iter()
            .find(|r| self.by_id.contains_key(&r.id) || !seen.insert(r.id))
        {
            return Err(duplicate(row.id));
        }
        for row in rows {
            self.insert(row)?;
        }
        Ok(())
    }

    /// Number of stored rows (including any fake rows).
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// All rows, in storage order.
    pub fn rows(&self) -> &[EncryptedRow] {
        &self.rows
    }

    /// Fetches one row by id.
    pub fn get(&self, id: TupleId) -> Option<&EncryptedRow> {
        self.by_id.get(&id).map(|&i| &self.rows[i])
    }

    /// Fetches rows by id, erroring on unknown ids.
    pub fn fetch(&self, ids: &[TupleId]) -> Result<Vec<&EncryptedRow>> {
        ids.iter()
            .map(|&id| {
                self.get(id)
                    .ok_or_else(|| PdsError::Cloud(format!("unknown encrypted tuple id {id}")))
            })
            .collect()
    }

    /// Ids of rows carrying the given searchable tag (empty when the tag is
    /// unknown or the store is not tag-indexed).
    pub fn lookup_tag(&self, tag: &[u8]) -> &[TupleId] {
        self.tag_index.get(tag).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Whether any stored row carries cloud-side searchable tags — i.e.
    /// whether this deployment's back-end can be served by tag lookups at
    /// all (deterministic tags, Arx counter tokens).
    pub fn has_tags(&self) -> bool {
        !self.tag_index.is_empty()
    }

    /// Total stored size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.rows.iter().map(EncryptedRow::size_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pds_crypto::NonDetCipher;

    fn row(id: u64, tags: Vec<Vec<u8>>) -> EncryptedRow {
        let cipher = NonDetCipher::from_seed(1);
        let mut rng = pds_common::rng::seeded_rng(id);
        EncryptedRow {
            id: TupleId::new(id),
            attr_ct: Some(cipher.encrypt(b"attr", &mut rng)),
            tuple_ct: cipher.encrypt(b"tuple-payload", &mut rng),
            search_tags: tags,
        }
    }

    #[test]
    fn insert_get_fetch() {
        let mut store = EncryptedStore::new();
        store.insert(row(0, vec![])).unwrap();
        store.insert(row(1, vec![])).unwrap();
        assert_eq!(store.len(), 2);
        assert!(store.get(TupleId::new(1)).is_some());
        assert!(store.get(TupleId::new(9)).is_none());
        assert_eq!(
            store
                .fetch(&[TupleId::new(0), TupleId::new(1)])
                .unwrap()
                .len(),
            2
        );
        assert!(store.fetch(&[TupleId::new(7)]).is_err());
    }

    #[test]
    fn duplicate_ids_rejected() {
        let mut store = EncryptedStore::new();
        store.insert(row(0, vec![])).unwrap();
        assert!(store.insert(row(0, vec![])).is_err());
    }

    #[test]
    fn a_bulk_insert_with_a_duplicate_stores_nothing() {
        let mut store = EncryptedStore::new();
        store.insert(row(0, vec![vec![1]])).unwrap();
        // Against the store, and within the batch.
        for batch in [
            vec![row(1, vec![vec![1]]), row(0, vec![])],
            vec![row(1, vec![vec![1]]), row(2, vec![]), row(1, vec![])],
        ] {
            assert!(store.insert_many(batch).is_err());
            assert_eq!(store.len(), 1);
            assert_eq!(store.lookup_tag(&[1]), &[TupleId::new(0)]);
        }
    }

    #[test]
    fn tag_index_lookup() {
        let mut store = EncryptedStore::new();
        store.insert(row(0, vec![vec![1, 2, 3]])).unwrap();
        store.insert(row(1, vec![vec![1, 2, 3], vec![9]])).unwrap();
        store.insert(row(2, vec![])).unwrap();
        assert_eq!(store.lookup_tag(&[1, 2, 3]).len(), 2);
        assert_eq!(store.lookup_tag(&[9]).len(), 1);
        assert_eq!(store.lookup_tag(&[0]).len(), 0);
    }

    #[test]
    fn sizes_count_every_stored_field() {
        let mut store = EncryptedStore::new();
        let (a, mut b) = (row(0, vec![]), row(1, vec![vec![5; 16]]));
        b.attr_ct = None;
        let cts =
            |r: &EncryptedRow| r.attr_ct.as_ref().map_or(0, Ciphertext::len) + r.tuple_ct.len();
        assert_eq!(a.size_bytes(), 8 + cts(&a));
        assert_eq!(b.size_bytes(), 8 + cts(&b) + 16);
        let want = a.size_bytes() + b.size_bytes();
        store.insert_many(vec![a, b]).unwrap();
        assert_eq!(store.size_bytes(), want);
    }
}
