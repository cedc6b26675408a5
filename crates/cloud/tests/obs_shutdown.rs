//! The shutdown-drain guarantee: [`ShardDaemon::shutdown`] must flush
//! every buffered observation before it returns — every request the
//! daemon dispatched has its `daemon.dispatch` span in the drained trace,
//! and the span count equals the registry's request total exactly (no
//! span lost in a worker's thread-local ring, no request half-counted).
//!
//! This test owns the process-global tracing switch, so it lives in its
//! own integration-test binary with a single `#[test]`.

use pds_cloud::{CloudServer, NetworkModel, ServiceConfig, ShardDaemon, TcpShardConn, WireRow};
use pds_common::Value;
use pds_crypto::NonDetCipher;
use pds_obs::StatsScope;
use pds_proto::{FetchBinRequest, WireMessage};
use pds_storage::{DataType, Relation, Schema};

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
    let rows: Vec<WireRow> = (0..3u64)
        .map(|i| WireRow {
            id: 100 + i,
            attr_ct: cipher.encrypt(format!("v{i}").as_bytes(), &mut rng).0,
            tuple_ct: cipher.encrypt(format!("tuple{i}").as_bytes(), &mut rng).0,
            search_tags: vec![vec![i as u8]],
        })
        .collect();
    s.upload_encrypted(rows).unwrap();
    s
}

fn fetch(value: &str) -> WireMessage {
    WireMessage::FetchBinRequest(FetchBinRequest {
        values: vec![Value::from(value)],
        ids: Vec::new(),
        tags: Vec::new(),
        predicate: None,
    })
}

/// Sums every `pds_daemon_requests_total` sample in a rendered registry.
fn requests_total(rendered: &str) -> u64 {
    rendered
        .lines()
        .filter(|l| l.starts_with("pds_daemon_requests_total"))
        .filter_map(|l| l.rsplit(' ').next())
        .filter_map(|v| v.parse::<u64>().ok())
        .sum()
}

#[test]
fn shutdown_drains_every_dispatch_span() {
    pds_obs::set_tracing(true);
    // Start from a clean slate: whatever earlier spans this process
    // recorded are drained away before the measured run.
    pds_obs::drain();

    let daemon = ShardDaemon::spawn(
        vec![(7, server(1)), (8, server(2))],
        ServiceConfig::with_workers(4).with_shard(0),
    )
    .unwrap();
    let registry = daemon.registry();

    // Two tenants hammer the daemon from four connections.
    let addr = daemon.addr();
    std::thread::scope(|scope| {
        for tenant in [7u64, 8, 7, 8] {
            scope.spawn(move || {
                let mut conn = TcpShardConn::connect(addr, tenant).unwrap();
                for value in ["E259", "E199", "E254", "E259", "E199"] {
                    conn.call(&fetch(value)).unwrap();
                }
            });
        }
    });

    // Shutdown joins the workers and flushes every tenant's counters;
    // afterwards the global trace drain must hold every dispatch span.
    let servers = daemon.shutdown();
    assert_eq!(servers.len(), 2, "both tenants' servers come back");

    let drained = pds_obs::drain();
    pds_obs::set_tracing(false);
    assert_eq!(drained.dropped, 0, "no span may be lost to ring overflow");
    let dispatch_spans = drained
        .events
        .iter()
        .filter(|e| e.name == "daemon.dispatch")
        .count() as u64;
    let counted = requests_total(&registry.render(StatsScope::All));
    assert_eq!(
        dispatch_spans, counted,
        "drained dispatch spans must equal the registry's request total \
         (4 connections x 5 calls = 20 expected)"
    );
    assert_eq!(counted, 20, "every issued request is counted exactly once");
}
