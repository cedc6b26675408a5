//! End-to-end equivalence of the TCP service path: concurrent tenant
//! owners driving loopback [`ShardDaemon`]s must get answers identical to
//! the in-process threaded transport, with partitioned security holding
//! on every tenant's composed adversarial view afterwards.
//!
//! The pipelined-dispatch half of the file covers the correlation-id
//! demux: byte-identical answers whatever the in-flight window, recovery
//! from a mid-batch connection death with exactly one eager reconnect,
//! and typed errors (never misattributed answers) when a rogue daemon
//! replies with duplicate, unknown, or missing correlation ids.
//!
//! A read/insert soak checks that each shard's adversarial view stays
//! within its size bound while the daemons run, read from the view-size
//! gauges every tenant can request.  A byte reconciliation checks that
//! the bytes the daemons count equal the bytes the client's sockets
//! moved, and that one query or insert frame is one exchange at the
//! daemon.  A
//! transport comparison checks that every shard's episodes and wire
//! counters over TCP equal those of the in-process run.

use std::collections::HashMap;
use std::io::Write;
use std::net::{SocketAddr, TcpListener};

use pds_cloud::{
    AdversarialView, BinEpisodeRequest, BinRoutedCloud, BinTransport, CloudServer, DbOwner,
    NetworkModel, ServiceConfig, ShardDaemon, ShardRouter, TcpCloudClient,
};
use pds_common::{PdsError, TupleId, Value};
use pds_core::{
    execute_shard_pipelined, BinPair, BinningConfig, EpisodeStep, QbExecutor, QueryBinning,
};
use pds_proto::{
    read_frame, BinPayload, FetchBinRequest, InsertRequest, ReadFrame, WireMessage, WireRow,
};
use pds_storage::{DataType, PartitionedRelation, Partitioner, Relation, Schema, Tuple};
use pds_systems::oblivious::opaque_sim;
use pds_systems::{ArxEngine, DeterministicIndexEngine, NonDetScanEngine, SecureSelectionEngine};
use pds_workload::{employee_relation, employee_sensitivity_policy};
use proptest::prelude::*;

fn employee_parts() -> PartitionedRelation {
    let rel = employee_relation();
    let policy = employee_sensitivity_policy(&rel).unwrap();
    Partitioner::new(policy).split(&rel).unwrap()
}

/// One tenant's full deployment: a private owner (own keys), a private
/// binning/executor namespaced to the tenant id, and a local router whose
/// shard servers can be lifted into daemons.
struct Tenant<E: SecureSelectionEngine> {
    id: u64,
    owner: DbOwner,
    router: ShardRouter,
    executor: QbExecutor<E>,
    workload: Vec<Value>,
}

fn tenant_deployment<E: SecureSelectionEngine>(id: u64, shards: usize, engine: E) -> Tenant<E> {
    let parts = employee_parts();
    let attr = parts.sensitive.schema().attr_id("EId").unwrap();
    let mut workload = parts.sensitive.distinct_values(attr);
    for v in parts.nonsensitive.distinct_values(attr) {
        if !workload.contains(&v) {
            workload.push(v);
        }
    }
    let binning = QueryBinning::build(&parts, "EId", BinningConfig::default()).unwrap();
    let mut executor = QbExecutor::new(binning, engine)
        .with_cache_capacity(32)
        .with_tenant(id);
    let mut owner = DbOwner::new(1000 + id);
    let mut router = ShardRouter::new(shards, NetworkModel::paper_wan(), 11 + id).unwrap();
    executor.outsource(&mut owner, &mut router, &parts).unwrap();
    Tenant {
        id,
        owner,
        router,
        executor,
        workload,
    }
}

/// Lifts every tenant's shard servers out of their local routers into one
/// daemon per shard (the daemon becomes the servers' address space; the
/// local routers keep only the bin→shard routing).
fn spawn_daemons<E: SecureSelectionEngine>(
    tenants: &mut [Tenant<E>],
    shards: usize,
    config: &ServiceConfig,
) -> Vec<ShardDaemon> {
    let mut per_shard: Vec<Vec<(u64, CloudServer)>> = (0..shards).map(|_| Vec::new()).collect();
    for t in tenants.iter_mut() {
        for (s, server) in t.router.shards_mut().iter_mut().enumerate() {
            per_shard[s].push((t.id, std::mem::take(server)));
        }
    }
    per_shard
        .into_iter()
        .map(|hosted| ShardDaemon::spawn(hosted, config.clone()).unwrap())
        .collect()
}

/// Shuts the daemons down and reinstalls each tenant's shard servers into
/// its local router, so the composed security checks see everything the
/// daemons recorded.
fn reclaim_servers<E: SecureSelectionEngine>(daemons: Vec<ShardDaemon>, tenants: &mut [Tenant<E>]) {
    let mut returned: Vec<Vec<(u64, CloudServer)>> =
        daemons.into_iter().map(ShardDaemon::shutdown).collect();
    for t in tenants.iter_mut() {
        for (s, hosted) in returned.iter_mut().enumerate() {
            let pos = hosted
                .iter()
                .position(|(id, _)| *id == t.id)
                .expect("daemon returns every tenant's server");
            t.router.shards_mut()[s] = hosted.swap_remove(pos).1;
        }
    }
}

/// Runs every tenant's workload concurrently over loopback TCP and
/// asserts the answers equal that tenant's `expected` reference.
fn run_concurrently<E: SecureSelectionEngine>(
    tenants: &mut [Tenant<E>],
    addrs: &[SocketAddr],
    expected: &[Vec<Vec<Tuple>>],
) {
    std::thread::scope(|scope| {
        for (t, want) in tenants.iter_mut().zip(expected) {
            let addrs = addrs.to_vec();
            scope.spawn(move || {
                let workload = t.workload.clone();
                let transport = BinTransport::Tcp(TcpCloudClient::new(t.id, addrs));
                let run = t
                    .executor
                    .run_workload_transported(&mut t.owner, &mut t.router, &workload, &transport)
                    .unwrap();
                assert_eq!(&run.answers, want, "tenant {} answers diverge", t.id);
                assert!(run.rounds > 0, "remote episodes count their rounds");
                assert!(run.wall_clock_sec > 0.0);
            });
        }
    });
}

#[test]
fn eight_concurrent_tcp_owners_match_the_threaded_transport() {
    const TENANTS: u64 = 8;
    const SHARDS: usize = 2;
    let mut tenants: Vec<_> = (1..=TENANTS)
        .map(|id| tenant_deployment(id, SHARDS, DeterministicIndexEngine::new()))
        .collect();

    // Reference pass: the in-process threaded fan-out, per tenant.
    let mut expected = Vec::new();
    for t in &mut tenants {
        let workload = t.workload.clone();
        let run = t
            .executor
            .run_workload_transported(
                &mut t.owner,
                &mut t.router,
                &workload,
                &BinTransport::Threaded,
            )
            .unwrap();
        expected.push(run.answers);
        // Reset the hot-bin cache so the TCP pass re-fetches every pair
        // instead of answering owner-side.
        t.executor.set_cache_capacity(32);
    }

    let daemons = spawn_daemons(&mut tenants, SHARDS, &ServiceConfig::with_workers(4));
    let addrs: Vec<SocketAddr> = daemons.iter().map(ShardDaemon::addr).collect();
    run_concurrently(&mut tenants, &addrs, &expected);
    reclaim_servers(daemons, &mut tenants);

    // Both passes ran the exhaustive workload; each tenant's composed view
    // (local episodes + daemon-served episodes) must still satisfy
    // partitioned security, per shard and composed.
    for t in &tenants {
        let report =
            pds_adversary::check_sharded_partitioned_security(&t.router.adversarial_views());
        assert!(report.is_secure(), "tenant {}: {report:?}", t.id);
    }
}

/// A back-end that locates its rows by storage address in rounds of its
/// own (nondet-scan) and an enclave simulator whose tokens only it can
/// resolve (opaque-sim) are both refused with a typed error naming the
/// back-end, and no daemon serves a single episode.
#[test]
fn a_fine_grained_engine_is_refused_over_tcp_with_a_typed_error() {
    const SHARDS: usize = 2;
    let engines: [(Box<dyn SecureSelectionEngine>, &str); 2] = [
        (Box::new(NonDetScanEngine::new()), "column download"),
        (Box::new(opaque_sim()), "engine-side"),
    ];
    for (engine, reason) in engines {
        let name = engine.name();
        let mut tenants = vec![tenant_deployment(1, SHARDS, engine)];
        let daemons = spawn_daemons(&mut tenants, SHARDS, &ServiceConfig::default());
        let addrs: Vec<SocketAddr> = daemons.iter().map(ShardDaemon::addr).collect();

        let t = &mut tenants[0];
        let workload = t.workload.clone();
        let transport = BinTransport::Tcp(TcpCloudClient::new(1, addrs));
        let err = t
            .executor
            .run_workload_transported(&mut t.owner, &mut t.router, &workload, &transport)
            .unwrap_err();
        assert!(matches!(err, PdsError::Wire(_)), "{name}: {err:?}");
        let msg = err.to_string();
        assert!(
            msg.contains(name),
            "the error must name the back-end: {msg}"
        );
        assert!(
            msg.contains(reason),
            "the error must explain the composed-only wire contract: {msg}"
        );
        reclaim_servers(daemons, &mut tenants);
        assert!(
            tenants[0]
                .router
                .adversarial_views()
                .iter()
                .all(|v| v.is_empty()),
            "{name}: the refusal must come before any episode request is written"
        );
    }
}

#[test]
fn a_client_for_the_wrong_tenant_is_refused_before_dialing() {
    const SHARDS: usize = 2;
    let mut t = tenant_deployment(1, SHARDS, DeterministicIndexEngine::new());
    // Dead addresses: the mismatch must be caught before any connect.
    let addrs: Vec<SocketAddr> = (0..SHARDS)
        .map(|_| "127.0.0.1:1".parse().unwrap())
        .collect();
    let workload = t.workload.clone();
    let transport = BinTransport::Tcp(TcpCloudClient::new(2, addrs));
    let err = t
        .executor
        .run_workload_transported(&mut t.owner, &mut t.router, &workload, &transport)
        .unwrap_err();
    assert!(matches!(err, PdsError::Config(_)), "{err:?}");
    assert!(err.to_string().contains("tenant"), "{err}");
}

#[test]
fn a_poisoned_pooled_connection_recovers_with_one_eager_reconnect_per_shard() {
    const SHARDS: usize = 2;
    let mut tenants = vec![tenant_deployment(
        1,
        SHARDS,
        DeterministicIndexEngine::new(),
    )];
    let t0 = &mut tenants[0];
    let workload = t0.workload.clone();
    let expected = t0
        .executor
        .run_workload_transported(
            &mut t0.owner,
            &mut t0.router,
            &workload,
            &BinTransport::Threaded,
        )
        .unwrap()
        .answers;
    t0.executor.set_cache_capacity(32);

    let daemons = spawn_daemons(&mut tenants, SHARDS, &ServiceConfig::with_workers(2));
    let addrs: Vec<SocketAddr> = daemons.iter().map(ShardDaemon::addr).collect();
    let client = TcpCloudClient::new(1, addrs);
    // Poison every shard's pool with a connection whose socket is already
    // torn down — exactly what a daemon dying mid-batch leaves behind.
    for shard in 0..SHARDS {
        let conn = client.checkout(shard).unwrap();
        conn.shutdown();
        client.checkin(shard, conn);
    }

    let t = &mut tenants[0];
    let transport = BinTransport::Tcp(client.clone());
    let run = t
        .executor
        .run_workload_transported(&mut t.owner, &mut t.router, &workload, &transport)
        .unwrap();
    assert_eq!(run.answers, expected, "replayed answers must be identical");
    let reconnects = client.reconnects();
    assert!(
        (1..=SHARDS as u64).contains(&reconnects),
        "each shard with work reconnects exactly once, got {reconnects}"
    );
    reclaim_servers(daemons, &mut tenants);
}

#[test]
fn a_dead_daemon_is_a_typed_error_after_one_bounded_retry() {
    const SHARDS: usize = 2;
    let mut tenants = vec![tenant_deployment(
        1,
        SHARDS,
        DeterministicIndexEngine::new(),
    )];
    let daemons = spawn_daemons(&mut tenants, SHARDS, &ServiceConfig::default());
    let addrs: Vec<SocketAddr> = daemons.iter().map(ShardDaemon::addr).collect();
    let client = TcpCloudClient::new(1, addrs);
    // Pool one healthy connection per shard, then kill every daemon: the
    // batch must fail through the reconnect path (one eager redial, one
    // retry), not hang and not panic.
    for shard in 0..SHARDS {
        let conn = client.checkout(shard).unwrap();
        client.checkin(shard, conn);
    }
    reclaim_servers(daemons, &mut tenants);

    let t = &mut tenants[0];
    let workload = t.workload.clone();
    let transport = BinTransport::Tcp(client.clone());
    let err = t
        .executor
        .run_workload_transported(&mut t.owner, &mut t.router, &workload, &transport)
        .unwrap_err();
    assert!(matches!(err, PdsError::Wire(_)), "{err:?}");
    assert!(
        err.to_string().contains("after retry"),
        "the error must say the redial was bounded: {err}"
    );
    assert!(
        client.reconnects() >= 1,
        "the eager reconnect must have run"
    );
}

/// Sums the samples of `metric` in one shard's tenant-scoped stats
/// snapshot.
fn stat(client: &TcpCloudClient, shard: usize, metric: &str) -> f64 {
    snapshot(client, shard)
        .lines()
        .filter_map(|line| line.strip_prefix(metric)?.strip_prefix('{'))
        .map(|sample| sample.rsplit(' ').next().unwrap().parse::<f64>().unwrap())
        .sum()
}

/// One shard's stats snapshot for the client's tenant.
fn snapshot(client: &TcpCloudClient, shard: usize) -> String {
    let mut conn = client.checkout(shard).unwrap();
    let snapshot = match conn.call(&WireMessage::StatsRequest).unwrap() {
        WireMessage::StatsSnapshot(text) => text,
        other => panic!("expected a StatsSnapshot, got {}", other.name()),
    };
    client.checkin(shard, conn);
    snapshot
}

/// Shared request, sensitive-id and clear-text result lists of one view.
fn shared_lists(view: &AdversarialView) -> usize {
    view.shared_value_lists() + view.shared_id_lists() + view.shared_result_lists()
}

/// A view's size: its shared request, sensitive-id and result lists, and
/// the (id, value) pairs its results retain.
type ViewSize = [usize; 4];

fn view_size(view: &AdversarialView) -> ViewSize {
    [
        view.shared_value_lists(),
        view.shared_id_lists(),
        view.shared_result_lists(),
        view.retained_pairs(),
    ]
}

/// The same size, read from one shard's view gauges over the wire.
fn gauged_view_size(client: &TcpCloudClient, shard: usize) -> ViewSize {
    let snapshot = snapshot(client, shard);
    let sample = |series: &str| -> usize {
        let line = snapshot
            .lines()
            .find(|line| line.starts_with(series))
            .unwrap_or_else(|| panic!("no `{series}` in:\n{snapshot}"));
        line.rsplit(' ').next().unwrap().parse::<f64>().unwrap() as usize
    };
    [
        sample("pds_view_shared_lists{kind=\"values\""),
        sample("pds_view_shared_lists{kind=\"ids\""),
        sample("pds_view_shared_lists{kind=\"results\""),
        sample("pds_view_retained_pairs{"),
    ]
}

/// Each insert step puts one to three copies of a non-sensitive tuple (so
/// their value is already binned) under fresh ids on every shard, then
/// every bin is read twice, with no owner cache, in process and over
/// loopback daemons.  Each shard's view grows by one clear-text result list holding
/// exactly the inserted (id, value) pairs; its request and sensitive-id
/// lists do not grow, and the second read adds nothing.  The daemons'
/// gauges read what the in-process twin's views hold.
#[test]
fn an_insert_grows_each_shard_view_by_one_result_list_and_its_pairs() {
    const SHARDS: usize = 2;
    let mut twin = tenant_deployment(1, SHARDS, DeterministicIndexEngine::new());
    let mut tenants = vec![tenant_deployment(
        1,
        SHARDS,
        DeterministicIndexEngine::new(),
    )];
    for executor in [&mut twin.executor, &mut tenants[0].executor] {
        executor.set_cache_capacity(0);
    }
    let parts = employee_parts();
    let templates = parts.nonsensitive.tuples();
    let mut next_id = parts
        .sensitive
        .tuples()
        .iter()
        .chain(templates)
        .map(|t| t.id.raw())
        .chain(twin.executor.fake_tuple_ids().iter().map(|id| id.raw()))
        .max()
        .unwrap()
        + 1;

    let daemons = spawn_daemons(&mut tenants, SHARDS, &ServiceConfig::with_workers(2));
    let addrs: Vec<SocketAddr> = daemons.iter().map(ShardDaemon::addr).collect();
    let client = TcpCloudClient::new(1, addrs);
    let transport = BinTransport::Tcp(client.clone());
    // Reads every bin over TCP and in the twin, one value per call so
    // every shard fetches each of its pairs (a batch would serve pairs
    // from bins fetched on another shard), and returns the twin's
    // per-shard view sizes.
    fn read_all<E: SecureSelectionEngine>(
        t: &mut Tenant<E>,
        twin: &mut Tenant<E>,
        transport: &BinTransport,
    ) -> Vec<ViewSize> {
        for value in t.workload.clone() {
            let value = std::slice::from_ref(&value);
            let run = t
                .executor
                .run_workload_transported(&mut t.owner, &mut t.router, value, transport)
                .unwrap();
            let want = twin
                .executor
                .run_workload_transported(
                    &mut twin.owner,
                    &mut twin.router,
                    value,
                    &BinTransport::Threaded,
                )
                .unwrap();
            assert_eq!(run.answers, want.answers);
        }
        twin.router
            .adversarial_views()
            .into_iter()
            .map(view_size)
            .collect()
    }
    let t = &mut tenants[0];
    let mut before = read_all(t, &mut twin, &transport);
    for (step, copies) in [1, 1, 2, 1, 3].into_iter().enumerate() {
        let template = &templates[(3 * step) % templates.len()];
        let tuples: Vec<Tuple> = (0..copies)
            .map(|i| Tuple::new(TupleId::new(next_id + i), template.values.clone()))
            .collect();
        next_id += copies;
        let msg = WireMessage::InsertRequest(InsertRequest {
            plain_tuples: tuples.clone(),
            encrypted_rows: Vec::new(),
        });
        for shard in 0..SHARDS {
            let mut conn = client.checkout(shard).unwrap();
            let ack = conn.call(&msg).unwrap();
            assert!(matches!(ack, WireMessage::Ack(_)), "{ack:?}");
            client.checkin(shard, conn);
            for tuple in &tuples {
                twin.router.shards_mut()[shard]
                    .insert_plaintext(tuple.clone())
                    .unwrap();
            }
        }

        let after = read_all(t, &mut twin, &transport);
        assert_eq!(
            read_all(t, &mut twin, &transport),
            after,
            "step {step}: a re-read grew a view"
        );
        for shard in 0..SHARDS {
            let [values, ids, results, pairs] = before[shard];
            let want = [values, ids, results + 1, pairs + copies as usize];
            assert_eq!(after[shard], want, "step {step}, shard {shard}");
            assert_eq!(
                gauged_view_size(&client, shard),
                want,
                "step {step}, shard {shard} gauges"
            );
        }
        before = after;
    }
    reclaim_servers(daemons, &mut tenants);
    let views = tenants[0].router.adversarial_views();
    for (view, local) in views.iter().zip(twin.router.adversarial_views()) {
        assert_eq!(view_size(view), view_size(local));
    }
    let report = pds_adversary::check_sharded_partitioned_security(&views);
    assert!(report.is_secure(), "{report:?}");
}

/// A read/insert soak over loopback daemons, the TCP twin of
/// `tests/view_memory.rs`: every insert copies a non-sensitive tuple (so
/// its value is already binned) under a fresh id, goes to every shard as
/// an `InsertRequest`, then drops the owner's cached bin.  While the
/// daemons run, each shard's view-size gauges stay within
/// |SB| + 2·|NSB| + 3 + inserts shared lists.  An in-process twin of the
/// tenant, fed the same inserts, fixes the exact answers and view sizes to
/// expect, and the reclaimed views are secure.
#[test]
fn a_read_insert_soak_keeps_every_shard_view_bounded() {
    const SHARDS: usize = 2;
    const INSERTS: usize = 12;
    let mut twin = tenant_deployment(1, SHARDS, DeterministicIndexEngine::new());
    let mut tenants = vec![tenant_deployment(
        1,
        SHARDS,
        DeterministicIndexEngine::new(),
    )];
    let binning = twin.executor.binning();
    let (sb, nsb) = (
        binning.sensitive_bin_count(),
        binning.nonsensitive_bin_count(),
    );
    let parts = employee_parts();
    let attr = parts.nonsensitive.schema().attr_id("EId").unwrap();
    let templates = parts.nonsensitive.tuples();
    let first_id = parts
        .sensitive
        .tuples()
        .iter()
        .chain(templates)
        .map(|t| t.id.raw())
        .chain(twin.executor.fake_tuple_ids().iter().map(|id| id.raw()))
        .max()
        .unwrap()
        + 1;

    let daemons = spawn_daemons(&mut tenants, SHARDS, &ServiceConfig::with_workers(2));
    let addrs: Vec<SocketAddr> = daemons.iter().map(ShardDaemon::addr).collect();
    let client = TcpCloudClient::new(1, addrs);
    let transport = BinTransport::Tcp(client.clone());
    let t = &mut tenants[0];
    let workload = t.workload.clone();
    let mut first_pass_tuples = 0;
    for inserts in 0..=INSERTS {
        let run = t
            .executor
            .run_workload_transported(&mut t.owner, &mut t.router, &workload, &transport)
            .unwrap();
        let want = twin
            .executor
            .run_workload_transported(
                &mut twin.owner,
                &mut twin.router,
                &workload,
                &BinTransport::Threaded,
            )
            .unwrap();
        assert_eq!(run.answers, want.answers, "after {inserts} inserts");
        // Each insert copies a queried value, so it shows in one answer.
        let tuples: usize = run.answers.iter().map(Vec::len).sum();
        if inserts == 0 {
            first_pass_tuples = tuples;
        }
        assert_eq!(tuples, first_pass_tuples + inserts);
        let bound = sb + 2 * nsb + 3 + inserts;
        for shard in 0..SHARDS {
            let lists = stat(&client, shard, "pds_view_shared_lists");
            let observations = stat(&client, shard, "pds_view_distinct_observations");
            assert!(
                lists <= bound as f64,
                "shard {shard}: {lists} shared lists after {inserts} inserts, at most {bound}"
            );
            assert!(observations <= (sb * (nsb + inserts)) as f64);
        }
        if inserts == INSERTS {
            break;
        }
        let template = &templates[inserts % templates.len()];
        let id = TupleId::new(first_id + inserts as u64);
        let tuple = Tuple::new(id, template.values.clone());
        let msg = WireMessage::InsertRequest(InsertRequest {
            plain_tuples: vec![tuple.clone()],
            encrypted_rows: Vec::new(),
        });
        for shard in 0..SHARDS {
            let mut conn = client.checkout(shard).unwrap();
            let ack = conn.call(&msg).unwrap();
            assert!(
                matches!(ack, WireMessage::Ack(ref a) if a.items == 1),
                "{ack:?}"
            );
            client.checkin(shard, conn);
            twin.router.shards_mut()[shard]
                .insert_plaintext(tuple.clone())
                .unwrap();
        }
        for executor in [&mut t.executor, &mut twin.executor] {
            executor.invalidate_cache_on_insert(tuple.value(attr), false);
        }
    }
    let gauges: Vec<f64> = (0..SHARDS)
        .map(|shard| stat(&client, shard, "pds_view_shared_lists"))
        .collect();
    reclaim_servers(daemons, &mut tenants);

    let views = tenants[0].router.adversarial_views();
    for ((view, local), gauge) in views
        .iter()
        .zip(twin.router.adversarial_views())
        .zip(gauges)
    {
        let lists = shared_lists(view);
        assert_eq!(lists as f64, gauge);
        assert!(lists > sb + 2 * nsb + 3, "the inserts were observed");
        assert_eq!(lists, shared_lists(local));
        assert_eq!(view.retained_pairs(), local.retained_pairs());
        assert_eq!(view.distinct_observations(), local.distinct_observations());
    }
    let report = pds_adversary::check_sharded_partitioned_security(&views);
    assert!(report.is_secure(), "{report:?}");
}

/// The daemons charge `pds_wire_bytes_{uploaded,downloaded}_total` from
/// the structural frame size of each exchange, not from the socket.  Over a
/// pipelined batch of composed episodes plus one `InsertRequest`, the
/// frame bytes the client wrote and read must equal those counters'
/// deltas.  The client's counters are read after the first stats
/// exchanges and before the second, so stats frames count on neither
/// side.  The batch's own round count must equal the daemons'
/// `pds_round_trips_total` delta.
#[test]
fn counted_wire_bytes_equal_the_bytes_on_the_socket() {
    const SHARDS: usize = 2;
    let mut tenants = vec![tenant_deployment(
        1,
        SHARDS,
        DeterministicIndexEngine::new(),
    )];
    let daemons = spawn_daemons(&mut tenants, SHARDS, &ServiceConfig::with_workers(2));
    let addrs: Vec<SocketAddr> = daemons.iter().map(ShardDaemon::addr).collect();
    let client = TcpCloudClient::new(1, addrs);
    let counted =
        |metric: &str| -> u64 { (0..SHARDS).map(|s| stat(&client, s, metric)).sum::<f64>() as u64 };
    // The stats exchanges also dial (and handshake) one pooled connection
    // per shard, so the measured window below dials nothing.
    let (up_before, down_before, rounds_before) = (
        counted("pds_wire_bytes_uploaded_total"),
        counted("pds_wire_bytes_downloaded_total"),
        counted("pds_round_trips_total"),
    );
    let (written_before, read_before) = (client.bytes_written(), client.bytes_read());

    let t = &mut tenants[0];
    let workload = t.workload.clone();
    let run = t
        .executor
        .run_workload_transported(
            &mut t.owner,
            &mut t.router,
            &workload,
            &BinTransport::Tcp(client.clone()),
        )
        .unwrap();
    assert!(run.rounds > 0, "the batch crossed the wire");
    let parts = employee_parts();
    let template = &parts.nonsensitive.tuples()[0];
    // An id past 2^32 travels as a five-byte varint.
    let tuple = Tuple::new(
        TupleId::new(u64::from(u32::MAX) + 7),
        template.values.clone(),
    );
    let mut conn = client.checkout(0).unwrap();
    let ack = conn
        .call(&WireMessage::InsertRequest(InsertRequest {
            plain_tuples: vec![tuple],
            encrypted_rows: Vec::new(),
        }))
        .unwrap();
    assert!(
        matches!(ack, WireMessage::Ack(ref a) if a.items == 1),
        "{ack:?}"
    );
    client.checkin(0, conn);

    let written = client.bytes_written() - written_before;
    let read = client.bytes_read() - read_before;
    let uploaded = counted("pds_wire_bytes_uploaded_total") - up_before;
    let downloaded = counted("pds_wire_bytes_downloaded_total") - down_before;
    // The insert and the stats exchanges count no rounds, so the daemons'
    // round counters moved by exactly the batch's episodes.
    let rounds = counted("pds_round_trips_total") - rounds_before;
    assert_eq!(run.rounds, rounds, "batch rounds vs daemons' round count");
    assert!(written > 0 && read > written, "{written} up, {read} down");
    assert_eq!(
        written, uploaded,
        "bytes written vs daemons' uploaded count"
    );
    assert_eq!(read, downloaded, "bytes read vs daemons' downloaded count");
    for daemon in daemons {
        daemon.shutdown();
    }
}

/// Sends `request` to a one-shard daemon hosting `tenant`'s server and
/// asserts it is one exchange there: the daemon's byte counters move by
/// exactly the bytes the client's socket moved, its frame counter by two,
/// and its round counter by one for a query and none for an insert.
/// Returns the response.
fn exchange_at_the_daemon<E: SecureSelectionEngine>(
    tenant: Tenant<E>,
    request: WireMessage,
) -> WireMessage {
    let rounds = u64::from(matches!(request, WireMessage::FetchBinRequest(_)));
    let mut tenants = vec![tenant];
    let daemons = spawn_daemons(&mut tenants, 1, &ServiceConfig::default());
    let client = TcpCloudClient::new(1, daemons.iter().map(ShardDaemon::addr).collect());
    let counters = || {
        [
            "pds_wire_bytes_uploaded_total",
            "pds_wire_bytes_downloaded_total",
            "pds_round_trips_total",
            "pds_wire_frames_total",
        ]
        .map(|metric| stat(&client, 0, metric) as u64)
    };
    let before = counters();
    let (written_before, read_before) = (client.bytes_written(), client.bytes_read());

    let mut conn = client.checkout(0).unwrap();
    let resp = conn.call(&request).unwrap();
    client.checkin(0, conn);

    let written = client.bytes_written() - written_before;
    let read = client.bytes_read() - read_before;
    let after = counters();
    assert_eq!(after[0] - before[0], written, "uploaded vs bytes written");
    assert_eq!(after[1] - before[1], read, "downloaded vs bytes read");
    assert_eq!(
        after[2] - before[2],
        rounds,
        "a query is one round, an insert none"
    );
    assert_eq!(after[3] - before[3], 2, "one frame each way");
    for daemon in daemons {
        daemon.shutdown();
    }
    resp
}

/// [`exchange_at_the_daemon`] for a query: returns the payload that
/// answered.
fn one_exchange_at_the_daemon<E: SecureSelectionEngine>(
    tenant: Tenant<E>,
    request: FetchBinRequest,
) -> BinPayload {
    match exchange_at_the_daemon(tenant, WireMessage::FetchBinRequest(request)) {
        WireMessage::BinPayload(p) => p,
        other => panic!("expected a BinPayload, got {}", other.name()),
    }
}

/// The first clear-text value of a one-shard tenant's non-sensitive side.
fn first_plain_value<E: SecureSelectionEngine>(tenant: &Tenant<E>) -> Value {
    let shard = &tenant.router.shards()[0];
    let attr = shard.plain_searchable_attr().unwrap();
    shard.plain_relation().unwrap().tuples()[0]
        .value(attr)
        .clone()
}

/// A `FetchBinRequest` carrying clear-text values and storage addresses
/// — the last exchange of a nondet-scan, secret-sharing or DPF episode —
/// is one exchange at the daemon too.
#[test]
fn a_values_and_ids_fetch_is_one_exchange_at_the_daemon() {
    let tenant = tenant_deployment(1, 1, NonDetScanEngine::new());
    let ids: Vec<u64> = tenant.router.shards()[0]
        .encrypted_store()
        .rows()
        .iter()
        .take(3)
        .map(|r| r.id)
        .collect();
    let request = FetchBinRequest {
        values: vec![first_plain_value(&tenant)],
        ids: ids.clone(),
        ..FetchBinRequest::default()
    };
    let p = one_exchange_at_the_daemon(tenant, request);
    assert!(!p.plain_tuples.is_empty(), "the clear-text side answered");
    let got: Vec<u64> = p.encrypted_rows.iter().map(|r| r.id).collect();
    assert_eq!(got, ids, "the address side answered");
}

/// A `FetchBinRequest` carrying clear-text values and search tags — a
/// composed det-index or arx episode — is one exchange at the daemon too,
/// not an address fetch plus a tag lookup charged apart.
#[test]
fn a_values_and_tags_fetch_is_one_exchange_at_the_daemon() {
    let tenant = tenant_deployment(1, 1, DeterministicIndexEngine::new());
    let row = &tenant.router.shards()[0].encrypted_store().rows()[0];
    let (id, tags) = (row.id, row.search_tags.clone());
    let request = FetchBinRequest {
        values: vec![first_plain_value(&tenant)],
        tags,
        ..FetchBinRequest::default()
    };
    let p = one_exchange_at_the_daemon(tenant, request);
    assert!(!p.plain_tuples.is_empty(), "the clear-text side answered");
    assert!(
        p.encrypted_rows.iter().any(|r| r.id == id),
        "the tag side answered"
    );
}

/// An `InsertRequest` carrying two clear-text tuples and one encrypted
/// row is one exchange at the daemon: one request frame charged at its
/// socket length and one `Ack`, not one exchange per item.
#[test]
fn a_multi_item_insert_is_one_exchange_at_the_daemon() {
    let tenant = tenant_deployment(1, 1, DeterministicIndexEngine::new());
    let parts = employee_parts();
    let fresh = u64::from(u32::MAX);
    let plain_tuples = parts.nonsensitive.tuples()[..2]
        .iter()
        .zip(fresh..)
        .map(|(t, id)| Tuple::new(TupleId::new(id), t.values.clone()))
        .collect();
    let row = &tenant.router.shards()[0].encrypted_store().rows()[0];
    let encrypted_rows = vec![WireRow {
        id: fresh + 2,
        // Det-index rows carry no attribute ciphertext: an empty wire field.
        attr_ct: Vec::new(),
        tuple_ct: row.tuple_ct.clone(),
        search_tags: row.search_tags.clone(),
    }];
    let request = WireMessage::InsertRequest(InsertRequest {
        plain_tuples,
        encrypted_rows,
    });
    let ack = exchange_at_the_daemon(tenant, request);
    assert!(
        matches!(ack, WireMessage::Ack(ref a) if a.items == 3),
        "{ack:?}"
    );
}

/// The same workload over identical deployments, once in process
/// (`Sequential`) and once over loopback daemons at windows 1 and 8, on a
/// tag back-end each: equal answers and rounds, and on every shard the
/// same episode observations (as a multiset — a window completes out of
/// order) and the same bytes each way, frames by type, rounds and tuples
/// returned.
#[test]
fn tcp_views_and_counters_equal_the_in_process_run() {
    const SHARDS: usize = 2;
    let engines: [fn() -> Box<dyn SecureSelectionEngine>; 2] = [
        || Box::new(DeterministicIndexEngine::new()),
        || Box::new(ArxEngine::new()),
    ];
    for engine in engines {
        for window in [1, 8] {
            let mut local = tenant_deployment(1, SHARDS, engine());
            let mut tenants = vec![tenant_deployment(1, SHARDS, engine())];
            let name = local.executor.engine().name();
            let local_before = local.router.shard_metrics();
            let remote_before = tenants[0].router.shard_metrics();
            let workload = local.workload.clone();
            let want = local
                .executor
                .run_workload_transported(
                    &mut local.owner,
                    &mut local.router,
                    &workload,
                    &BinTransport::Sequential,
                )
                .unwrap();

            let daemons = spawn_daemons(&mut tenants, SHARDS, &ServiceConfig::with_workers(2));
            let addrs: Vec<SocketAddr> = daemons.iter().map(ShardDaemon::addr).collect();
            let t = &mut tenants[0];
            t.executor.set_pipeline_window(window);
            let transport = BinTransport::Tcp(TcpCloudClient::new(1, addrs));
            let run = t
                .executor
                .run_workload_transported(&mut t.owner, &mut t.router, &workload, &transport)
                .unwrap();
            reclaim_servers(daemons, &mut tenants);

            let case = format!("{name} window {window}");
            assert_eq!(run.answers, want.answers, "{case}: answers");
            assert_eq!(run.rounds, want.rounds, "{case}: rounds");
            let shards = local.router.shards().iter().zip(tenants[0].router.shards());
            for (s, (in_process, remote)) in shards.enumerate() {
                let observations = |server: &CloudServer| {
                    let mut counts: HashMap<_, usize> = HashMap::new();
                    for ep in server.adversarial_view().episodes() {
                        *counts.entry((*ep.observed).clone()).or_default() += 1;
                    }
                    counts
                };
                assert_eq!(
                    observations(remote),
                    observations(in_process),
                    "{case}: shard {s} episodes"
                );
                let want = in_process.metrics().delta_since(&local_before[s]);
                let got = remote.metrics().delta_since(&remote_before[s]);
                assert_eq!(
                    (got.bytes_uploaded, got.bytes_downloaded),
                    (want.bytes_uploaded, want.bytes_downloaded),
                    "{case}: shard {s} bytes up and down"
                );
                assert_eq!(
                    got.wire_frames_by_type, want.wire_frames_by_type,
                    "{case}: shard {s} frames by type"
                );
                assert_eq!(
                    got.round_trips, want.round_trips,
                    "{case}: shard {s} rounds"
                );
                assert_eq!(
                    got.tuples_returned, want.tuples_returned,
                    "{case}: shard {s} tuples returned"
                );
            }
        }
    }
}

/// What a rogue daemon does with the correlation ids of one pipelined
/// batch — each mode probes one failure path of the client-side demux.
#[derive(Clone, Copy, Debug)]
enum RogueMode {
    /// Answer every request with its own id, in reverse arrival order.
    Reverse,
    /// Answer the first request twice with the same id.
    Duplicate,
    /// Answer with an id that was never issued.
    Unknown,
    /// Answer with correlation id 0, like a pre-correlation v1 daemon.
    Uncorrelated,
}

/// A daemon that handshakes properly, reads `batch` composed requests,
/// and then answers according to `mode`.  Each answer's payload encodes
/// which request it serves (a tuple built from the request's clear-text
/// value), so the test can prove responses were matched to the right
/// episodes.
fn rogue_daemon(mode: RogueMode, batch: usize) -> (SocketAddr, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let handle = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let hello = match read_frame(&mut stream).unwrap() {
            ReadFrame::Frame(frame) => frame,
            other => panic!("expected the Hello frame, got {other:?}"),
        };
        let (corr, msg) = WireMessage::decode_corr(&hello).unwrap();
        stream
            .write_all(msg.encode_framed(corr).unwrap().as_ref())
            .unwrap();

        let mut pending: Vec<(u64, WireMessage)> = Vec::new();
        for _ in 0..batch {
            let frame = match read_frame(&mut stream).unwrap() {
                ReadFrame::Frame(frame) => frame,
                other => panic!("expected a request frame, got {other:?}"),
            };
            let (corr, msg) = WireMessage::decode_corr(&frame).unwrap();
            let WireMessage::FetchBinRequest(req) = msg else {
                panic!("expected a FetchBinRequest, got {}", msg.name());
            };
            // `pipeline_steps` gives episode i the clear-text value 100 + i.
            let [Value::Int(value)] = req.values.as_slice() else {
                panic!("expected one clear-text value, got {:?}", req.values);
            };
            let episode = value - 100;
            let marker = Tuple::new(
                TupleId::new(1000 + episode as u64),
                vec![Value::Int(episode)],
            );
            let resp = WireMessage::BinPayload(BinPayload {
                plain_tuples: vec![marker],
                encrypted_rows: Vec::new(),
            });
            pending.push((corr, resp));
        }
        let mut send = |corr: u64, resp: &WireMessage| {
            stream
                .write_all(resp.encode_framed(corr).unwrap().as_ref())
                .unwrap();
        };
        match mode {
            RogueMode::Reverse => {
                for (corr, resp) in pending.iter().rev() {
                    send(*corr, resp);
                }
            }
            RogueMode::Duplicate => {
                send(pending[0].0, &pending[0].1);
                send(pending[0].0, &pending[0].1);
            }
            RogueMode::Unknown => send(pending[0].0 + 999, &pending[0].1),
            RogueMode::Uncorrelated => send(0, &pending[0].1),
        }
    });
    (addr, handle)
}

/// A det-index engine with outsourced state (so its pipeline halves work)
/// plus the owner holding its keys; the cloud it outsourced to is
/// throwaway — the rogue daemon fabricates every response.
fn outsourced_det() -> (DbOwner, DeterministicIndexEngine) {
    let schema = Schema::from_pairs(&[("K", DataType::Int)]).unwrap();
    let mut rel = Relation::new("T", schema);
    for k in 0..4 {
        rel.insert(vec![Value::Int(k)]).unwrap();
    }
    let attr = rel.schema().attr_id("K").unwrap();
    let mut owner = DbOwner::new(5);
    let mut cloud = CloudServer::new(NetworkModel::paper_wan());
    let mut engine = DeterministicIndexEngine::new();
    engine
        .outsource(&mut owner, &mut cloud, &rel, attr)
        .unwrap();
    (owner, engine)
}

/// `n` composed single-shard steps with distinct clear-text values, so
/// every response is attributable to exactly one episode.
fn pipeline_steps(n: usize) -> Vec<EpisodeStep> {
    (0..n)
        .map(|i| EpisodeStep {
            pair: BinPair {
                sensitive_bin: i,
                nonsensitive_bin: i,
            },
            shard: 0,
            composed: true,
            request: BinEpisodeRequest {
                sensitive_values: vec![Value::Int(i as i64)],
                nonsensitive_values: vec![Value::Int(100 + i as i64)],
                pushdown: None,
            },
        })
        .collect()
}

#[test]
fn out_of_order_responses_are_matched_to_the_right_episodes() {
    let (addr, daemon) = rogue_daemon(RogueMode::Reverse, 4);
    let client = TcpCloudClient::new(7, vec![addr]);
    let (mut owner, mut engine) = outsourced_det();
    let steps = pipeline_steps(4);
    let episodes = execute_shard_pipelined(&mut owner, &client, 0, &mut engine, &steps, 4).unwrap();
    daemon.join().unwrap();

    let rounds: u64 = episodes.iter().map(|(_, res)| res.rounds).sum();
    assert_eq!(rounds, 4);
    // Responses arrived in reverse, and the demux must have attributed
    // each to its own episode: the marker tuple the rogue daemon built
    // from request i must surface on episode i.
    let arrival: Vec<usize> = episodes
        .iter()
        .map(|(pair, _)| pair.sensitive_bin)
        .collect();
    assert_eq!(
        arrival,
        vec![3, 2, 1, 0],
        "completion order is the wire order"
    );
    for (pair, res) in &episodes {
        let idx = pair.sensitive_bin;
        let want = Tuple::new(
            TupleId::new(1000 + idx as u64),
            vec![Value::Int(idx as i64)],
        );
        assert_eq!(res.outcome.nonsensitive, vec![want], "episode {idx}");
        assert!(res.outcome.sensitive.is_empty());
    }
    assert_eq!(client.reconnects(), 0);
}

#[test]
fn rogue_correlation_ids_are_typed_errors_not_misattributed_answers() {
    for (mode, needle) in [
        (RogueMode::Duplicate, "correlation id"),
        (RogueMode::Unknown, "correlation id"),
        (RogueMode::Uncorrelated, "without a correlation id"),
    ] {
        let (addr, daemon) = rogue_daemon(mode, 2);
        let client = TcpCloudClient::new(7, vec![addr]);
        let (mut owner, mut engine) = outsourced_det();
        let steps = pipeline_steps(2);
        let err =
            execute_shard_pipelined(&mut owner, &client, 0, &mut engine, &steps, 2).unwrap_err();
        daemon.join().unwrap();
        assert!(matches!(err, PdsError::Wire(_)), "{mode:?}: {err:?}");
        assert!(
            err.to_string().contains(needle),
            "{mode:?} must name the protocol violation: {err}"
        );
        assert_eq!(
            client.reconnects(),
            0,
            "{mode:?}: a protocol violation must not be replayed"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Seed-replayable (`PROPTEST_SEED`) concurrency property: whatever
    /// workload subset each of three tenants draws, the concurrent
    /// loopback answers are identical to the in-process threaded ones.
    #[test]
    fn concurrent_tcp_owners_always_match_in_process(seed in proptest::arbitrary::any::<u64>()) {
        use pds_common::rng::derive_seed;

        const TENANTS: u64 = 3;
        const SHARDS: usize = 2;
        let mut tenants: Vec<_> = (1..=TENANTS)
            .map(|id| tenant_deployment(id, SHARDS, DeterministicIndexEngine::new()))
            .collect();

        // Each tenant queries a seed-derived subset (with repeats) of its
        // values, so every failure replays from the printed seed alone.
        let mut expected = Vec::new();
        for t in &mut tenants {
            let tseed = derive_seed(seed, &format!("tenant-{}", t.id));
            let len = 1 + (tseed % 8) as usize;
            let subset: Vec<Value> = (0..len)
                .map(|k| {
                    let idx = derive_seed(tseed, &format!("q{k}")) as usize % t.workload.len();
                    t.workload[idx].clone()
                })
                .collect();
            t.workload = subset;
            let workload = t.workload.clone();
            let run = t
                .executor
                .run_workload_transported(
                    &mut t.owner,
                    &mut t.router,
                    &workload,
                    &BinTransport::Threaded,
                )
                .unwrap();
            expected.push(run.answers);
            t.executor.set_cache_capacity(32);
        }

        let daemons = spawn_daemons(&mut tenants, SHARDS, &ServiceConfig::with_workers(2));
        let addrs: Vec<SocketAddr> = daemons.iter().map(ShardDaemon::addr).collect();
        run_concurrently(&mut tenants, &addrs, &expected);
        reclaim_servers(daemons, &mut tenants);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Seed-replayable (`PROPTEST_SEED`) equivalence: whatever the query
    /// order, every in-flight window from 1 (lock-step) to 16 returns
    /// answers byte-identical to the tenant's in-process threaded run on
    /// the same deployment.
    #[test]
    fn pipelined_answers_match_in_process_for_every_window(
        seed in proptest::arbitrary::any::<u64>(),
    ) {
        use pds_common::rng::derive_seed;

        const SHARDS: usize = 2;
        let mut tenants = vec![tenant_deployment(1, SHARDS, DeterministicIndexEngine::new())];
        // Seed-derived query order (with repeats) so every failure
        // replays from the printed seed alone.
        let len = 4 + (derive_seed(seed, "len") % 8) as usize;
        let workload: Vec<Value> = (0..len)
            .map(|k| {
                let idx =
                    derive_seed(seed, &format!("q{k}")) as usize % tenants[0].workload.len();
                tenants[0].workload[idx].clone()
            })
            .collect();
        tenants[0].workload = workload.clone();

        let t = &mut tenants[0];
        let expected = t
            .executor
            .run_workload_transported(&mut t.owner, &mut t.router, &workload, &BinTransport::Threaded)
            .unwrap()
            .answers;

        let daemons = spawn_daemons(&mut tenants, SHARDS, &ServiceConfig::with_workers(4));
        let addrs: Vec<SocketAddr> = daemons.iter().map(ShardDaemon::addr).collect();

        let t = &mut tenants[0];
        let transport = BinTransport::Tcp(TcpCloudClient::new(1, addrs));
        for window in 1..=16 {
            // A fresh cache per pass forgets every co-observed pair, so
            // each pass fetches every distinct pair once.  At either
            // capacity, in-batch repeats take no episode of their own:
            // they are answered from the bins their batch fetched.
            for capacity in [32, 1] {
                t.executor.set_cache_capacity(capacity);
                t.executor.set_pipeline_window(window);
                let run = t
                    .executor
                    .run_workload_transported(&mut t.owner, &mut t.router, &workload, &transport)
                    .unwrap();
                prop_assert!(
                    run.answers == expected,
                    "window {} (cache {}) diverges from in-process",
                    window,
                    capacity
                );
            }
        }
        reclaim_servers(daemons, &mut tenants);
    }
}
