//! Hostile-client matrix for the shard daemon: garbage bytes, truncated
//! and abandoned frames, oversized declared lengths, handshake
//! violations, and a panicking handler — none of which may wedge the
//! daemon or disturb a well-behaved neighbour, whose answers must stay
//! byte-identical to the in-process message entry throughout.

use std::io::Write;
use std::net::{Shutdown, TcpStream};

use pds_cloud::{ServiceConfig, ShardDaemon, TcpShardConn};
use pds_common::Value;
use pds_proto::{read_frame, FetchBinRequest, Hello, ReadFrame, WireMessage};

mod common;
use common::server;

fn fetch(values: &[&str]) -> WireMessage {
    WireMessage::FetchBinRequest(FetchBinRequest {
        values: values.iter().map(|v| Value::from(*v)).collect(),
        ids: Vec::new(),
        tags: Vec::new(),
        predicate: None,
    })
}

/// The encoded response [`pds_cloud::CloudServer::serve`] gives for `msg`
/// on an identically-built server in process — the byte-identical
/// reference every daemon answer is held against.
fn reference_bytes(seed: u64, msg: &WireMessage) -> Vec<u8> {
    server(seed).serve(msg.clone()).unwrap().encode().unwrap()
}

#[test]
fn garbage_bytes_close_only_that_connection() {
    let daemon = ShardDaemon::spawn(vec![(7, server(1))], ServiceConfig::default()).unwrap();

    let mut hostile = TcpStream::connect(daemon.addr()).unwrap();
    hostile.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
    // A frame that never starts with the magic gets no reply, just a close.
    match read_frame(&mut hostile) {
        Ok(ReadFrame::Eof) | Err(_) => {}
        other => panic!("expected a silent close, got {other:?}"),
    }

    // The daemon keeps serving well-behaved clients afterwards.
    let mut conn = TcpShardConn::connect(daemon.addr(), 7).unwrap();
    let msg = fetch(&["E259"]);
    let resp = conn.call(&msg).unwrap();
    assert_eq!(resp.encode().unwrap(), reference_bytes(1, &msg));
    daemon.shutdown();
}

#[test]
fn truncated_frame_then_reconnect_is_served() {
    let daemon = ShardDaemon::spawn(vec![(7, server(1))], ServiceConfig::default()).unwrap();

    // Handshake properly, then abandon a frame halfway through.
    let mut half = TcpStream::connect(daemon.addr()).unwrap();
    let hello = WireMessage::Hello(Hello { tenant: 7 }).encode().unwrap();
    half.write_all(&hello).unwrap();
    match read_frame(&mut half).unwrap() {
        ReadFrame::Frame(bytes) => match WireMessage::decode(&bytes).unwrap() {
            WireMessage::Hello(echo) => assert_eq!(echo.tenant, 7),
            other => panic!("expected the Hello echo, got {other:?}"),
        },
        other => panic!("expected the Hello echo frame, got {other:?}"),
    }
    let full = fetch(&["E259"]).encode().unwrap();
    half.write_all(&full[..full.len() / 2]).unwrap();
    half.shutdown(Shutdown::Write).unwrap();
    // The daemon sees EOF mid-frame and drops the connection without a
    // response — and without wedging.
    match read_frame(&mut half) {
        Ok(ReadFrame::Eof) | Err(_) => {}
        other => panic!("expected a close after the truncated frame, got {other:?}"),
    }

    // The same client reconnecting gets full service.
    let mut conn = TcpShardConn::connect(daemon.addr(), 7).unwrap();
    let msg = fetch(&["E199"]);
    let resp = conn.call(&msg).unwrap();
    assert_eq!(resp.encode().unwrap(), reference_bytes(1, &msg));
    daemon.shutdown();
}

#[test]
fn killing_the_socket_mid_frame_does_not_wedge_the_daemon() {
    let daemon = ShardDaemon::spawn(vec![(7, server(1))], ServiceConfig::default()).unwrap();

    for _ in 0..3 {
        let mut dying = TcpStream::connect(daemon.addr()).unwrap();
        let hello = WireMessage::Hello(Hello { tenant: 7 }).encode().unwrap();
        dying.write_all(&hello).unwrap();
        let frame = fetch(&["E254"]).encode().unwrap();
        dying.write_all(&frame[..5]).unwrap();
        drop(dying); // no shutdown handshake, the peer just dies
    }

    let mut conn = TcpShardConn::connect(daemon.addr(), 7).unwrap();
    let msg = fetch(&["E254"]);
    let resp = conn.call(&msg).unwrap();
    assert_eq!(resp.encode().unwrap(), reference_bytes(1, &msg));
    daemon.shutdown();
}

#[test]
fn oversized_declared_length_gets_a_typed_error_then_close() {
    let config = ServiceConfig {
        max_payload: 4096,
        ..ServiceConfig::default()
    };
    let daemon = ShardDaemon::spawn(vec![(7, server(1))], config).unwrap();

    let mut conn = TcpStream::connect(daemon.addr()).unwrap();
    let hello = WireMessage::Hello(Hello { tenant: 7 }).encode().unwrap();
    conn.write_all(&hello).unwrap();
    assert!(matches!(
        read_frame(&mut conn).unwrap(),
        ReadFrame::Frame(_)
    ));

    // A hand-rolled v2 header declaring 16 MiB on a 4 KiB-limit daemon.
    // No payload follows — the daemon must answer from the header alone.
    let mut header = Vec::new();
    header.extend_from_slice(b"PD");
    header.push(pds_proto::VERSION);
    header.push(7); // Opaque
    header.extend_from_slice(&77u64.to_be_bytes()); // correlation id
    header.extend_from_slice(&(16u32 << 20).to_be_bytes());
    conn.write_all(&header).unwrap();

    match read_frame(&mut conn).unwrap() {
        ReadFrame::Frame(bytes) => match WireMessage::decode(&bytes).unwrap() {
            WireMessage::Error(e) => {
                assert!(
                    e.message.contains("4096"),
                    "error must name the daemon's limit: {e:?}"
                );
            }
            other => panic!("expected a typed Error frame, got {other:?}"),
        },
        other => panic!("expected a typed Error frame, got {other:?}"),
    }
    match read_frame(&mut conn) {
        Ok(ReadFrame::Eof) | Err(_) => {}
        other => panic!("connection must close after the refusal, got {other:?}"),
    }

    // Other connections are unaffected.
    let mut ok = TcpShardConn::connect(daemon.addr(), 7).unwrap();
    let msg = fetch(&["E259"]);
    assert_eq!(
        ok.call(&msg).unwrap().encode().unwrap(),
        reference_bytes(1, &msg)
    );
    daemon.shutdown();
}

#[test]
fn handshake_violations_are_refused_with_typed_errors() {
    let daemon = ShardDaemon::spawn(vec![(7, server(1))], ServiceConfig::default()).unwrap();

    // First frame is not a Hello.
    let mut wrong_opener = TcpStream::connect(daemon.addr()).unwrap();
    wrong_opener
        .write_all(&fetch(&["E259"]).encode().unwrap())
        .unwrap();
    match read_frame(&mut wrong_opener).unwrap() {
        ReadFrame::Frame(bytes) => match WireMessage::decode(&bytes).unwrap() {
            WireMessage::Error(e) => assert!(e.message.contains("Hello"), "{e:?}"),
            other => panic!("expected an Error frame, got {other:?}"),
        },
        other => panic!("expected an Error frame, got {other:?}"),
    }

    // Unknown tenant id.
    match TcpShardConn::connect(daemon.addr(), 99) {
        Err(e) => assert!(e.to_string().contains("99"), "{e}"),
        Ok(_) => panic!("tenant 99 is not hosted and must be refused"),
    }
    daemon.shutdown();
}

#[test]
fn tenants_are_served_from_disjoint_namespaces() {
    // Tenant 1 and tenant 2 hold *different* encrypted stores (different
    // seeds), so mixing them up would be visible in the answer bytes.
    let daemon = ShardDaemon::spawn(
        vec![(1, server(10)), (2, server(20))],
        ServiceConfig::default(),
    )
    .unwrap();
    let msg = WireMessage::FetchBinRequest(FetchBinRequest {
        values: Vec::new(),
        ids: vec![100, 101, 102],
        tags: Vec::new(),
        predicate: None,
    });
    let mut one = TcpShardConn::connect(daemon.addr(), 1).unwrap();
    let mut two = TcpShardConn::connect(daemon.addr(), 2).unwrap();
    let one_bytes = one.call(&msg).unwrap().encode().unwrap();
    let two_bytes = two.call(&msg).unwrap().encode().unwrap();
    assert_eq!(one_bytes, reference_bytes(10, &msg));
    assert_eq!(two_bytes, reference_bytes(20, &msg));
    assert_ne!(one_bytes, two_bytes, "tenants must not share ciphertexts");

    // Shutdown hands every tenant's server back, sorted by id, with the
    // served episodes recorded in their adversarial views.
    let servers = daemon.shutdown();
    let ids: Vec<u64> = servers.iter().map(|(id, _)| *id).collect();
    assert_eq!(ids, vec![1, 2]);
    for (id, server) in &servers {
        assert_eq!(
            server.adversarial_view().episodes().len(),
            1,
            "tenant {id} served one bracketed episode"
        );
    }
}

#[test]
fn a_panicking_handler_does_not_wedge_the_daemon_or_its_neighbours() {
    let trigger = b"boom".to_vec();
    let config = ServiceConfig {
        panic_trigger: Some(trigger.clone()),
        ..ServiceConfig::default()
    };
    let daemon = ShardDaemon::spawn(vec![(7, server(1))], config).unwrap();
    let addr = daemon.addr();

    // Client B hammers the daemon from its own thread while client A
    // panics a worker; every one of B's answers must stay byte-identical
    // to the in-process reference.
    let msg = fetch(&["E259"]);
    let expected = reference_bytes(1, &msg);
    let b_msg = msg.clone();
    let b_expected = expected.clone();
    let neighbour = std::thread::spawn(move || {
        let mut conn = TcpShardConn::connect(addr, 7).unwrap();
        for _ in 0..50 {
            let resp = conn.call(&b_msg).unwrap();
            assert_eq!(resp.encode().unwrap(), b_expected);
        }
    });

    // Client A trips the injected panic (while the worker holds the tenant
    // lock) and must get a typed Error frame, then a closed connection.
    let mut victim = TcpShardConn::connect(addr, 7).unwrap();
    match victim.call(&WireMessage::Opaque(trigger)).unwrap() {
        WireMessage::Error(e) => assert!(e.message.contains("panicked"), "{e:?}"),
        other => panic!("expected the panic Error frame, got {other:?}"),
    }
    assert!(
        victim.call(&msg).is_err(),
        "the panicked connection must be dropped"
    );

    neighbour.join().unwrap();

    // The poisoned tenant lock was recovered: fresh connections are still
    // accepted and answered byte-identically.
    let mut fresh = TcpShardConn::connect(addr, 7).unwrap();
    assert_eq!(fresh.call(&msg).unwrap().encode().unwrap(), expected);
    daemon.shutdown();
}
