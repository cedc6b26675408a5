//! The one-byte dribble test, in a test target of its own.
//!
//! `pds_proto::pool_stats().reader_grows` is process-global, so any other
//! daemon traffic in the same test binary moves it too.  Alone in its
//! process, the counter reads only this connection's frames.

use std::io::Write;
use std::net::TcpStream;

use pds_cloud::{ServiceConfig, ShardDaemon};
use pds_proto::{read_frame, FetchBinRequest, Hello, ReadFrame, WireMessage};

mod common;
use common::server;

#[test]
fn one_byte_dribble_cannot_force_per_read_reallocation() {
    let daemon = ShardDaemon::spawn(vec![(7, server(1))], ServiceConfig::default()).unwrap();
    let mut conn = TcpStream::connect(daemon.addr()).unwrap();
    let hello = WireMessage::Hello(Hello { tenant: 7 }).encode().unwrap();
    conn.write_all(&hello).unwrap();
    assert!(matches!(
        read_frame(&mut conn).unwrap(),
        ReadFrame::Frame(_)
    ));

    // A large but valid frame (~96 KiB of never-matching tags), dribbled
    // one byte per write.  The daemon's pooled chunked reader must grow
    // its buffer per 64 KiB chunk, not per received byte — the global
    // reader-grow counter may move by at most a handful of chunks, never
    // by anything near the tens of thousands of reads this connection
    // forces.
    let frame = WireMessage::FetchBinRequest(FetchBinRequest {
        values: Vec::new(),
        ids: Vec::new(),
        tags: (0..3000u32).map(|i| i.to_be_bytes().repeat(8)).collect(),
        predicate: None,
    })
    .encode()
    .unwrap();
    assert!(frame.len() > 90_000, "frame is {} bytes", frame.len());
    let grows_before = pds_proto::pool_stats().reader_grows;
    for chunk in frame.chunks(1) {
        conn.write_all(chunk).unwrap();
    }
    match read_frame(&mut conn).unwrap() {
        ReadFrame::Frame(bytes) => {
            assert!(matches!(
                WireMessage::decode(&bytes).unwrap(),
                WireMessage::BinPayload(_)
            ));
        }
        other => panic!("expected a BinPayload answer, got {other:?}"),
    }
    let grows = pds_proto::pool_stats().reader_grows - grows_before;
    assert!(
        grows <= 64,
        "reader grew {grows} times for a {}-byte frame dribbled in \
         {}-odd single-byte reads — growth must track frame size, not \
         read count",
        frame.len(),
        frame.len()
    );
    daemon.shutdown();
}
