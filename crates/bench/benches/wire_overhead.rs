//! Wire-protocol overhead — what the byte-accurate frame layer costs.
//!
//! Two angles:
//!
//! * **codec throughput** — encode and decode of a [`BinPayload`] carrying
//!   realistic encrypted rows, at growing row counts (the response shape
//!   that dominates QB retrieval traffic);
//! * **composed vs fine-grained** — one [`FetchBinRequest`] carrying a
//!   whole episode (clear-text values and search tags) versus the two
//!   separate requests of a fine-grained episode (frame-overhead
//!   amortisation).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use pds_common::Value;
use pds_crypto::NonDetCipher;
use pds_proto::{BinPayload, FetchBinRequest, WireMessage, WireRow};

/// Realistic encrypted rows: ciphertext lengths match what `DbOwner`
/// produces for a ~5-attribute tuple.
fn rows(n: usize) -> Vec<WireRow> {
    let cipher = NonDetCipher::from_seed(7);
    let mut rng = pds_common::rng::seeded_rng(11);
    (0..n)
        .map(|i| WireRow {
            id: i as u64,
            attr_ct: cipher.encrypt(&(i as u64).to_be_bytes(), &mut rng).0,
            tuple_ct: cipher.encrypt(&[0u8; 96], &mut rng).0,
            search_tags: Vec::new(),
        })
        .collect()
}

fn bench_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire_codec");
    group.sample_size(20);
    for &n in &[16usize, 128, 1024] {
        let msg = WireMessage::BinPayload(BinPayload {
            plain_tuples: Vec::new(),
            encrypted_rows: rows(n),
        });
        let frame = msg.encode().unwrap();
        group.bench_with_input(BenchmarkId::new("encode_rows", n), &msg, |b, msg| {
            b.iter(|| black_box(msg.encode().unwrap()))
        });
        group.bench_with_input(BenchmarkId::new("decode_rows", n), &frame, |b, frame| {
            b.iter(|| black_box(WireMessage::decode(frame).unwrap()))
        });
    }
    group.finish();
}

fn bench_composed_vs_fine_grained(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire_episode_encoding");
    group.sample_size(20);
    let tokens: Vec<Vec<u8>> = (0..32).map(|i| vec![i as u8; 44]).collect();
    let values: Vec<Value> = (0..32).map(Value::Int).collect();
    let composed = WireMessage::FetchBinRequest(FetchBinRequest {
        values: values.clone(),
        ids: Vec::new(),
        tags: tokens.clone(),
        predicate: None,
    });
    let fine: Vec<WireMessage> = vec![
        WireMessage::FetchBinRequest(FetchBinRequest {
            values,
            ids: Vec::new(),
            tags: Vec::new(),
            predicate: None,
        }),
        WireMessage::FetchBinRequest(FetchBinRequest {
            values: Vec::new(),
            ids: Vec::new(),
            tags: tokens,
            predicate: None,
        }),
    ];
    let composed_len = composed.encoded_len().unwrap();
    let fine_len: usize = fine.iter().map(|m| m.encoded_len().unwrap()).sum();
    println!(
        "episode encoding: composed FetchBinRequest {composed_len} B vs \
         {} fine-grained frames {fine_len} B",
        fine.len()
    );
    group.bench_function("composed_request", |b| {
        b.iter(|| black_box(composed.encode().unwrap()))
    });
    group.bench_function("fine_grained_requests", |b| {
        b.iter(|| {
            for m in &fine {
                black_box(m.encode().unwrap());
            }
        })
    });
    group.finish();
}

criterion_group!(benches, bench_codec, bench_composed_vs_fine_grained);
criterion_main!(benches);
