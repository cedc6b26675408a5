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
//! gauges every tenant can request.

use std::io::Write;
use std::net::{SocketAddr, TcpListener};

use pds_cloud::{
    BinEpisodeRequest, BinRoutedCloud, BinTransport, CloudServer, DbOwner, NetworkModel,
    ServiceConfig, ShardDaemon, ShardRouter, TcpCloudClient,
};
use pds_common::{PdsError, TupleId, Value};
use pds_core::{
    execute_shard_pipelined, BinPair, BinningConfig, EpisodeStep, QbExecutor, QueryBinning,
    WireMode,
};
use pds_proto::{read_frame, BinPayload, InsertRequest, ReadFrame, WireMessage};
use pds_storage::{DataType, PartitionedRelation, Partitioner, Relation, Schema, Tuple};
use pds_systems::{DeterministicIndexEngine, NonDetScanEngine, SecureSelectionEngine};
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

#[test]
fn a_fine_grained_engine_is_refused_over_tcp_with_a_typed_error() {
    const SHARDS: usize = 2;
    let mut tenants = vec![tenant_deployment(1, SHARDS, NonDetScanEngine::new())];
    let daemons = spawn_daemons(&mut tenants, SHARDS, &ServiceConfig::default());
    let addrs: Vec<SocketAddr> = daemons.iter().map(ShardDaemon::addr).collect();

    let t = &mut tenants[0];
    let workload = t.workload.clone();
    let transport = BinTransport::Tcp(TcpCloudClient::new(1, addrs));
    let err = t
        .executor
        .run_workload_transported(&mut t.owner, &mut t.router, &workload, &transport)
        .unwrap_err();
    assert!(matches!(err, PdsError::Wire(_)), "{err:?}");
    assert!(
        err.to_string().contains("fine-grained"),
        "the error must explain the composed-only wire contract: {err}"
    );
    reclaim_servers(daemons, &mut tenants);
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
    let mut conn = client.checkout(shard).unwrap();
    let snapshot = match conn.call(&WireMessage::StatsRequest).unwrap() {
        WireMessage::StatsSnapshot(text) => text,
        other => panic!("expected a StatsSnapshot, got {}", other.name()),
    };
    client.checkin(shard, conn);
    snapshot
        .lines()
        .filter_map(|line| line.strip_prefix(metric)?.strip_prefix('{'))
        .map(|sample| sample.rsplit(' ').next().unwrap().parse::<f64>().unwrap())
        .sum()
}

/// A read/insert soak over loopback daemons, the TCP twin of
/// `tests/view_memory.rs`: every insert copies a non-sensitive tuple (so
/// its value is already binned) under a fresh id, goes to every shard as
/// an `InsertRequest`, then drops the owner's cached bin.  While the daemons run, each shard's view-size
/// gauges stay within |SB| + 3·|NSB| + 2·inserts + 2 shared lists.  An
/// in-process twin of the tenant, fed the same inserts, fixes the exact
/// answers and view sizes to expect, and the reclaimed views are secure.
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
        let bound = sb + 3 * nsb + 2 * inserts + 2;
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
        let lists = view.shared_value_lists() + view.shared_id_lists();
        assert_eq!(lists as f64, gauge);
        assert!(lists > sb + 3 * nsb + 2, "the inserts were observed");
        assert_eq!(lists, local.shared_value_lists() + local.shared_id_lists());
        assert_eq!(view.distinct_observations(), local.distinct_observations());
    }
    let report = pds_adversary::check_sharded_partitioned_security(&views);
    assert!(report.is_secure(), "{report:?}");
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
/// which request it serves (a tuple built from the request's bin index),
/// so the test can prove responses were matched to the right episodes.
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
            let WireMessage::BinPairRequest(req) = msg else {
                panic!("expected a BinPairRequest, got {}", msg.name());
            };
            let marker = Tuple::new(
                TupleId::new(1000 + u64::from(req.nonsensitive_bin)),
                vec![Value::Int(i64::from(req.nonsensitive_bin))],
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

/// `n` composed single-shard steps with distinct bin indices, so every
/// response is attributable to exactly one episode.
fn pipeline_steps(n: usize) -> Vec<EpisodeStep> {
    (0..n)
        .map(|i| EpisodeStep {
            index: i,
            pair: BinPair {
                sensitive_bin: i,
                nonsensitive_bin: i,
            },
            shard: 0,
            composed: true,
            request: BinEpisodeRequest {
                sensitive_bin: i,
                nonsensitive_bin: i,
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
    let (episodes, rounds) =
        execute_shard_pipelined(&mut owner, &client, 0, &mut engine, &steps, 4).unwrap();
    daemon.join().unwrap();

    assert_eq!(rounds, 4);
    // Responses arrived in reverse, and the demux must have attributed
    // each to its own episode: the marker tuple the rogue daemon built
    // from request i must surface on episode i.
    let arrival: Vec<usize> = episodes.iter().map(|(idx, _, _)| *idx).collect();
    assert_eq!(
        arrival,
        vec![3, 2, 1, 0],
        "completion order is the wire order"
    );
    for (idx, _pair, res) in &episodes {
        let want = Tuple::new(
            TupleId::new(1000 + *idx as u64),
            vec![Value::Int(*idx as i64)],
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
    /// order and whatever the in-flight window, pipelined dispatch
    /// returns answers byte-identical to the lock-step discipline on the
    /// same daemons.
    #[test]
    fn pipelined_answers_match_lock_step_for_any_window(
        seed in proptest::arbitrary::any::<u64>(),
        window in 1usize..=16,
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

        let daemons = spawn_daemons(&mut tenants, SHARDS, &ServiceConfig::with_workers(4));
        let addrs: Vec<SocketAddr> = daemons.iter().map(ShardDaemon::addr).collect();

        let t = &mut tenants[0];
        let transport = BinTransport::Tcp(TcpCloudClient::new(1, addrs));
        t.executor.set_wire_mode(WireMode::LockStep);
        let lock_step = t
            .executor
            .run_workload_transported(&mut t.owner, &mut t.router, &workload, &transport)
            .unwrap();
        t.executor.set_cache_capacity(32); // reset the bin cache between passes
        t.executor.set_wire_mode(WireMode::Pipelined { window });
        let pipelined = t
            .executor
            .run_workload_transported(&mut t.owner, &mut t.router, &workload, &transport)
            .unwrap();
        prop_assert_eq!(lock_step.answers, pipelined.answers);
        reclaim_servers(daemons, &mut tenants);
    }
}
