//! Wire-protocol overhead — what the byte-accurate frame layer costs.
//!
//! Three angles:
//!
//! * **codec throughput** — encode and decode of a [`BinPayload`] carrying
//!   realistic encrypted rows, at growing row counts (the response shape
//!   that dominates QB retrieval traffic);
//! * **composed vs fine-grained** — one [`FetchBinRequest`] carrying a
//!   whole episode (clear-text values and search tags) versus the two
//!   separate requests of a fine-grained episode (frame-overhead
//!   amortisation);
//! * **pooled codec** — steady-state encode and framed reads, where the
//!   thread-local buffer pool serves every frame from its free list (the
//!   `pds_wire_buf_reuse_total` counters printed at the end prove it).

use std::io::Cursor;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use pds_common::Value;
use pds_crypto::NonDetCipher;
use pds_proto::{
    pool_stats, read_frame, BinPayload, FetchBinRequest, Hello, ReadFrame, WireMessage, WireRow,
};

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

fn bench_pooled_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("pooled_codec");
    group.sample_size(20);
    let msg = WireMessage::Hello(Hello { tenant: 7 });
    group.bench_function("encode_framed", |b| {
        b.iter(|| black_box(msg.encode_framed(9).unwrap()))
    });

    // A stream of 64 frames read back through the pooled FrameReader; in
    // steady state every read reuses one pooled buffer.
    let mut stream = Vec::new();
    for corr in 1..=64u64 {
        stream.extend_from_slice(&msg.encode_framed(corr).unwrap());
    }
    group.bench_function("read_frame_stream_64", |b| {
        b.iter(|| {
            let mut cursor = Cursor::new(stream.as_slice());
            let mut frames = 0u32;
            while let ReadFrame::Frame(frame) = read_frame(&mut cursor).unwrap() {
                black_box(&frame);
                frames += 1;
            }
            assert_eq!(frames, 64);
        })
    });
    group.finish();
    let p = pool_stats();
    println!(
        "buffer pool: {} hits, {} misses, {} returns, {} reader grows",
        p.hits, p.misses, p.returns, p.reader_grows
    );
}

criterion_group!(
    benches,
    bench_codec,
    bench_composed_vs_fine_grained,
    bench_pooled_codec
);
criterion_main!(benches);
