//! Property tests for the wire protocol: `decode ∘ encode == id` for every
//! message type, and fuzzed truncation/corruption always yields
//! `Err(PdsError::Wire)` — never a panic.
//!
//! The generators mix the codec's edge cases into the random inputs:
//! `i64::MIN`/`i64::MAX`/0/−1, empty and multi-byte UTF-8 text, empty
//! bytes, and ids at the varint length boundaries.
//!
//! Seeding rides the workspace's deterministic proptest machinery
//! (`PROPTEST_SEED` / `PROPTEST_CASES`, regressions recorded under
//! `proptest-regressions/`).

use pds_common::{PdsError, TupleId, Value};
use pds_proto::{
    Ack, BinPayload, ErrorFrame, FetchBinRequest, Hello, InsertRequest, WireMessage, WireRow,
};
use pds_storage::{Predicate, Tuple};
use proptest::prelude::*;
use rand::Rng;

fn arb_value<R: Rng>(rng: &mut R) -> Value {
    match rng.gen_range(0u8..7) {
        0 => Value::Null,
        1 => Value::Int(rng.gen_range(i64::MIN..i64::MAX)),
        2 => {
            let len = rng.gen_range(0usize..24);
            Value::Text(
                (0..len)
                    .map(|_| char::from(rng.gen_range(0x20u8..0x7f)))
                    .collect(),
            )
        }
        3 => {
            let len = rng.gen_range(0usize..48);
            Value::Bytes((0..len).map(|_| rng.gen_range(0u8..=255)).collect())
        }
        4 => Value::Bool(rng.gen_range(0u8..2) == 1),
        // The codec's edge cases: zigzag varint extremes, and empty,
        // multi-byte UTF-8 and empty-bytes strings.
        5 => Value::Int([i64::MIN, i64::MAX, 0, -1][rng.gen_range(0usize..4)]),
        _ => match rng.gen_range(0u8..3) {
            0 => Value::Text(String::new()),
            1 => {
                let len = rng.gen_range(1usize..8);
                Value::Text(
                    (0..len)
                        .map(|_| ['é', 'ß', '€', '中', '𝄞'][rng.gen_range(0usize..5)])
                        .collect(),
                )
            }
            _ => Value::Bytes(Vec::new()),
        },
    }
}

/// A tuple, row or request id: usually random (so mostly above 2^32),
/// sometimes one of the varint length boundaries.
fn arb_id<R: Rng>(rng: &mut R) -> u64 {
    match rng.gen_range(0u8..4) {
        0 => [0, u64::from(u32::MAX), 1 << 32, u64::MAX][rng.gen_range(0usize..4)],
        _ => rng.gen_range(0u64..u64::MAX),
    }
}

fn arb_blob<R: Rng>(rng: &mut R, max_len: usize) -> Vec<u8> {
    let len = rng.gen_range(0..max_len);
    (0..len).map(|_| rng.gen_range(0u8..=255)).collect()
}

fn arb_tuple<R: Rng>(rng: &mut R) -> Tuple {
    let arity = rng.gen_range(1usize..5);
    Tuple::new(
        TupleId::new(arb_id(rng)),
        (0..arity).map(|_| arb_value(rng)).collect(),
    )
}

fn arb_predicate<R: Rng>(rng: &mut R, depth: usize) -> Predicate {
    let leaf_only = depth >= 3;
    match rng.gen_range(0u8..if leaf_only { 4 } else { 7 }) {
        0 => Predicate::True,
        1 => Predicate::Eq {
            attr: pds_common::AttrId::new(rng.gen_range(0u64..16)),
            value: arb_value(rng),
        },
        2 => Predicate::InSet {
            attr: pds_common::AttrId::new(rng.gen_range(0u64..16)),
            values: (0..rng.gen_range(0usize..4))
                .map(|_| arb_value(rng))
                .collect(),
        },
        3 => Predicate::Range {
            attr: pds_common::AttrId::new(rng.gen_range(0u64..16)),
            lo: arb_value(rng),
            hi: arb_value(rng),
        },
        4 => Predicate::Not(Box::new(arb_predicate(rng, depth + 1))),
        other => {
            let children = (0..rng.gen_range(0usize..3))
                .map(|_| arb_predicate(rng, depth + 1))
                .collect();
            if other == 5 {
                Predicate::And(children)
            } else {
                Predicate::Or(children)
            }
        }
    }
}

fn arb_opt_predicate<R: Rng>(rng: &mut R) -> Option<Predicate> {
    if rng.gen_range(0u8..3) == 0 {
        Some(arb_predicate(rng, 0))
    } else {
        None
    }
}

fn arb_row<R: Rng>(rng: &mut R) -> WireRow {
    WireRow {
        id: arb_id(rng),
        attr_ct: arb_blob(rng, 40),
        tuple_ct: arb_blob(rng, 120),
        search_tags: (0..rng.gen_range(0usize..3))
            .map(|_| arb_blob(rng, 20))
            .collect(),
    }
}

/// One random message of a random type, driven by the proptest case seed.
fn arb_message(seed: u64) -> WireMessage {
    let mut rng = pds_common::rng::seeded_rng(seed);
    match rng.gen_range(0u8..9) {
        0 => WireMessage::FetchBinRequest(FetchBinRequest {
            values: (0..rng.gen_range(0usize..6))
                .map(|_| arb_value(&mut rng))
                .collect(),
            ids: (0..rng.gen_range(0usize..6))
                .map(|_| arb_id(&mut rng))
                .collect(),
            tags: (0..rng.gen_range(0usize..4))
                .map(|_| arb_blob(&mut rng, 24))
                .collect(),
            predicate: arb_opt_predicate(&mut rng),
        }),
        1 => WireMessage::BinPayload(BinPayload {
            plain_tuples: (0..rng.gen_range(0usize..4))
                .map(|_| arb_tuple(&mut rng))
                .collect(),
            encrypted_rows: (0..rng.gen_range(0usize..4))
                .map(|_| arb_row(&mut rng))
                .collect(),
        }),
        2 => WireMessage::InsertRequest(InsertRequest {
            plain_tuples: (0..rng.gen_range(0usize..4))
                .map(|_| arb_tuple(&mut rng))
                .collect(),
            encrypted_rows: (0..rng.gen_range(0usize..4))
                .map(|_| arb_row(&mut rng))
                .collect(),
        }),
        3 => WireMessage::Ack(Ack {
            items: arb_id(&mut rng),
        }),
        4 => {
            let msg_len = rng.gen_range(0usize..40);
            WireMessage::Error(ErrorFrame {
                category: "cloud".to_string(),
                message: (0..msg_len)
                    .map(|_| char::from(rng.gen_range(0x20u8..0x7f)))
                    .collect(),
            })
        }
        5 => WireMessage::Opaque(arb_blob(&mut rng, 100)),
        6 => WireMessage::Hello(Hello {
            tenant: arb_id(&mut rng),
        }),
        7 => WireMessage::StatsRequest,
        _ => WireMessage::StatsSnapshot(match arb_value(&mut rng) {
            Value::Text(text) => text,
            _ => String::new(),
        }),
    }
}

/// Re-wraps a (v2) encoded frame's payload in the legacy v1 layout: no
/// correlation-id field, length at offset 4, payload at offset 8.  This is
/// what an old-protocol peer would put on the wire.
fn reframe_as_v1(frame: &[u8]) -> Vec<u8> {
    let payload = &frame[pds_proto::HEADER_LEN..frame.len() - pds_proto::TRAILER_LEN];
    let mut out = Vec::with_capacity(pds_proto::HEADER_LEN_V1 + payload.len() + 4);
    out.extend_from_slice(&pds_proto::frame::MAGIC);
    out.push(pds_proto::VERSION_V1);
    out.push(frame[3]);
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(payload);
    let crc = pds_proto::crc32(&out);
    out.extend_from_slice(&crc.to_be_bytes());
    out
}

proptest! {
    #[test]
    fn encode_decode_is_identity(seed in proptest::arbitrary::any::<u64>()) {
        let msg = arb_message(seed);
        let frame = msg.encode().expect("encode never fails on in-range data");
        let back = WireMessage::decode(&frame).expect("well-formed frame decodes");
        prop_assert_eq!(back, msg);
    }

    #[test]
    fn encoded_len_matches_frame(seed in proptest::arbitrary::any::<u64>()) {
        let msg = arb_message(seed);
        prop_assert_eq!(msg.encoded_len().unwrap(), msg.encode().unwrap().len());
    }

    #[test]
    fn any_truncation_is_a_wire_error(seed in proptest::arbitrary::any::<u64>()) {
        let frame = arb_message(seed).encode().unwrap();
        // Every strict prefix must fail cleanly — exhaustive, not sampled,
        // so no truncation point ever panics.
        for cut in 0..frame.len() {
            match WireMessage::decode(&frame[..cut]) {
                Err(PdsError::Wire(_)) => {}
                other => prop_assert!(false, "cut at {} gave {:?}", cut, other),
            }
        }
    }

    #[test]
    fn any_single_byte_corruption_is_a_wire_error(seed in proptest::arbitrary::any::<u64>()) {
        let frame = arb_message(seed).encode().unwrap();
        let mut rng = pds_common::rng::seeded_rng(seed ^ 0xC0FFEE);
        // CRC-32 detects every single-byte error; exercise a sample of
        // positions and all positions for small frames.
        let positions: Vec<usize> = if frame.len() <= 64 {
            (0..frame.len()).collect()
        } else {
            (0..64).map(|_| rng.gen_range(0..frame.len())).collect()
        };
        for pos in positions {
            let flip = rng.gen_range(1u8..=255);
            let mut bad = frame.clone();
            bad[pos] ^= flip;
            match WireMessage::decode(&bad) {
                Err(PdsError::Wire(_)) => {}
                other => prop_assert!(
                    false,
                    "flip of {:#04x} at byte {} gave {:?}",
                    flip,
                    pos,
                    other
                ),
            }
        }
    }

    #[test]
    fn correlation_id_roundtrips_any_message(seed in proptest::arbitrary::any::<u64>()) {
        let msg = arb_message(seed);
        let corr = seed.rotate_left(17) | 1;
        let framed = msg.encode_framed(corr).expect("encode never fails on in-range data");
        let (got_corr, back) = WireMessage::decode_corr(&framed).expect("roundtrip");
        prop_assert_eq!(got_corr, corr);
        prop_assert_eq!(back, msg);
    }

    #[test]
    fn legacy_v1_frames_decode_identically(seed in proptest::arbitrary::any::<u64>()) {
        // Compat gate for the frame version bump: any message re-wrapped in
        // the old v1 layout must decode to the same value, with correlation
        // id 0, through both the one-shot decoder and the stream reader.
        let msg = arb_message(seed);
        let v1 = reframe_as_v1(&msg.encode().unwrap());
        let (corr, back) = WireMessage::decode_corr(&v1).expect("v1 frame decodes");
        prop_assert_eq!(corr, 0);
        prop_assert_eq!(&back, &msg);
        let mut cursor = std::io::Cursor::new(v1.clone());
        match pds_proto::read_frame(&mut cursor).expect("v1 frame streams") {
            pds_proto::ReadFrame::Frame(bytes) => {
                prop_assert_eq!(bytes.as_ref(), v1.as_slice());
                prop_assert_eq!(WireMessage::decode(&bytes).unwrap(), msg);
            }
            other => prop_assert!(false, "expected a frame, got {:?}", other),
        }
        // Truncation totality holds for the legacy layout too.
        for cut in 0..v1.len() {
            prop_assert!(matches!(
                WireMessage::decode(&v1[..cut]),
                Err(PdsError::Wire(_))
            ));
        }
    }

    #[test]
    fn random_garbage_never_panics(seed in proptest::arbitrary::any::<u64>()) {
        let mut rng = pds_common::rng::seeded_rng(seed);
        let garbage = arb_blob(&mut rng, 256);
        // Random bytes essentially never form a valid CRC-framed message;
        // the property under test is totality (Err, not panic).
        let _ = WireMessage::decode(&garbage);
        // A valid frame plus at least one trailing byte (an empty blob
        // would leave the frame valid).
        let mut near_miss = arb_message(seed).encode().unwrap();
        near_miss.extend_from_slice(&garbage);
        near_miss.push(0);
        prop_assert!(matches!(
            WireMessage::decode(&near_miss),
            Err(PdsError::Wire(_))
        ));
    }
}
