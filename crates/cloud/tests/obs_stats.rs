//! `StatsRequest` over the wire: a tenant can ask its shard daemon for a
//! Prometheus-text snapshot of its own counters, the snapshot is
//! **byte-stable** across two identical fixed-seed runs (only
//! deterministic counters and gauges live in the daemon registry — never
//! timing data, and the view-size gauges are counts, never contents), and
//! it is **tenant-scoped**: one tenant's snapshot never mentions another
//! tenant's series.

use pds_cloud::{
    CloudServer, EncryptedRow, NetworkModel, ServiceConfig, ShardDaemon, TcpShardConn,
};
use pds_common::{TupleId, Value};
use pds_crypto::NonDetCipher;
use pds_proto::{FetchBinRequest, WireMessage};
use pds_storage::{DataType, Relation, Schema};

/// A deterministic shard server (same construction as the hostile-client
/// suite): three clear-text employees plus three encrypted rows.
fn server(seed: u64) -> CloudServer {
    let schema = Schema::from_pairs(&[("EId", DataType::Text), ("Dept", DataType::Text)]).unwrap();
    let mut r = Relation::new("Employee", schema);
    for (e, d) in [("E259", "Design"), ("E199", "Design"), ("E254", "Sales")] {
        r.insert(vec![Value::from(e), Value::from(d)]).unwrap();
    }
    let mut s = CloudServer::new(NetworkModel::paper_wan());
    s.upload_plaintext(r, "EId").unwrap();
    let cipher = NonDetCipher::from_seed(seed);
    let mut rng = pds_common::rng::seeded_rng(seed);
    let rows: Vec<EncryptedRow> = (0..3u64)
        .map(|i| EncryptedRow {
            id: TupleId::new(100 + i),
            attr_ct: Some(cipher.encrypt(format!("v{i}").as_bytes(), &mut rng)),
            tuple_ct: cipher.encrypt(format!("tuple{i}").as_bytes(), &mut rng),
            search_tags: vec![vec![i as u8]],
        })
        .collect();
    s.upload_encrypted(rows).unwrap();
    s
}

fn fetch(values: &[&str]) -> WireMessage {
    WireMessage::FetchBinRequest(FetchBinRequest {
        values: values.iter().map(|v| Value::from(*v)).collect(),
        ids: Vec::new(),
        tags: Vec::new(),
        predicate: None,
    })
}

/// One fixed-seed run: two tenants do deterministic work against one
/// daemon, then tenant 7 asks for its stats over the same TCP connection.
fn run_once() -> String {
    let daemon = ShardDaemon::spawn(
        vec![(7, server(1)), (8, server(2))],
        ServiceConfig::default().with_shard(3),
    )
    .unwrap();

    let mut seven = TcpShardConn::connect(daemon.addr(), 7).unwrap();
    let mut eight = TcpShardConn::connect(daemon.addr(), 8).unwrap();
    for values in [&["E259"][..], &["E199", "E254"][..], &["E259"][..]] {
        seven.call(&fetch(values)).unwrap();
    }
    eight.call(&fetch(&["E254"])).unwrap();

    let snapshot = match seven.call(&WireMessage::StatsRequest).unwrap() {
        WireMessage::StatsSnapshot(text) => text,
        other => panic!("expected a StatsSnapshot, got {other:?}"),
    };
    daemon.shutdown();
    snapshot
}

#[test]
fn stats_snapshot_is_byte_stable_and_tenant_scoped() {
    let first = run_once();
    let second = run_once();
    assert_eq!(
        first, second,
        "two identical fixed-seed runs must render byte-identical snapshots"
    );

    // The snapshot carries the tenant's own work counters under this
    // daemon's shard label...
    assert!(first.contains("pds_daemon_requests_total"), "{first}");
    assert!(first.contains("shard=\"3\""), "{first}");
    assert!(first.contains("tenant=\"7\""), "{first}");
    assert!(first.contains("pds_round_trips_total"), "{first}");
    assert!(first.contains("pds_bin_load_uniformity"), "{first}");
    // ...the size of its adversarial view, as counts: three fetches of two
    // distinct requests (two request lists), their two clear-text results
    // holding 1 + 2 (id, value) pairs, and the one empty sensitive id
    // list...
    for line in [
        "pds_view_distinct_observations{shard=\"3\",tenant=\"7\"} 2.0",
        "pds_view_retained_pairs{shard=\"3\",tenant=\"7\"} 3.0",
        "pds_view_shared_lists{kind=\"ids\",shard=\"3\",tenant=\"7\"} 1.0",
        "pds_view_shared_lists{kind=\"results\",shard=\"3\",tenant=\"7\"} 2.0",
        "pds_view_shared_lists{kind=\"values\",shard=\"3\",tenant=\"7\"} 2.0",
    ] {
        assert!(first.lines().any(|l| l == line), "no `{line}` in:\n{first}");
    }
    // ...plus unlabelled shard-health series, and no frame series for the
    // retired message tag...
    assert!(first.contains("pds_daemon_connections_total"), "{first}");
    assert!(first.contains("type=\"FetchBinRequest\""), "{first}");
    assert!(!first.contains("type=\"unknown\""), "{first}");
    // ...and nothing about the neighbouring tenant.
    assert!(
        !first.contains("tenant=\"8\""),
        "tenant 7's snapshot leaks tenant 8 series:\n{first}"
    );
}

#[test]
fn stats_request_is_not_counted_as_tenant_work() {
    let daemon =
        ShardDaemon::spawn(vec![(7, server(1))], ServiceConfig::default().with_shard(0)).unwrap();
    let mut conn = TcpShardConn::connect(daemon.addr(), 7).unwrap();
    conn.call(&fetch(&["E259"])).unwrap();

    let a = match conn.call(&WireMessage::StatsRequest).unwrap() {
        WireMessage::StatsSnapshot(text) => text,
        other => panic!("expected a StatsSnapshot, got {other:?}"),
    };
    // Asking again without doing any work must return the identical
    // snapshot: the stats request itself never perturbs the counters.
    let b = match conn.call(&WireMessage::StatsRequest).unwrap() {
        WireMessage::StatsSnapshot(text) => text,
        other => panic!("expected a StatsSnapshot, got {other:?}"),
    };
    assert_eq!(a, b, "a StatsRequest must not count as tenant work");
    // Neither the request counter nor the server's wire-frame counters
    // ever record a stats exchange (the zero-valued wire-frame slot for
    // the tag is flushed, but stays zero).
    for line in a.lines().filter(|l| l.contains("type=\"StatsRequest\"")) {
        assert!(
            line.ends_with(" 0"),
            "a stats exchange was counted as tenant work: {line}"
        );
    }
    assert!(
        !a.lines()
            .any(|l| l.starts_with("pds_daemon_requests_total") && l.contains("StatsRequest")),
        "{a}"
    );
    daemon.shutdown();
}
