//! Pipelined wire dispatch vs lock-step, plus the pooled codec hot path.
//!
//! * **wire discipline** — the identical Employee workload through the
//!   same tenant deployment against live loopback shard daemons, once
//!   with an in-flight window of 1 (lock-step: write one request, block
//!   for its answer) and once with the default window (a correlated
//!   window per shard, one flush, responses demuxed by correlation id);
//! * **pooled codec** — steady-state encode and framed reads, where the
//!   thread-local buffer pool serves every frame from its free list (the
//!   `pds_wire_buf_reuse_total` counters printed at the end prove it).

use std::io::Cursor;
use std::net::SocketAddr;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use pds_cloud::{
    BinRoutedCloud, BinTransport, CloudServer, DbOwner, NetworkModel, ServiceConfig, ShardDaemon,
    ShardRouter, TcpCloudClient,
};
use pds_common::Value;
use pds_core::{BinningConfig, QbExecutor, QueryBinning, DEFAULT_PIPELINE_WINDOW};
use pds_proto::{pool_stats, read_frame, Hello, ReadFrame, WireMessage};
use pds_storage::Partitioner;
use pds_systems::DeterministicIndexEngine;
use pds_workload::{employee_relation, employee_sensitivity_policy};

/// One tenant over live loopback daemons; the daemons stay up for the
/// whole benchmark (dropped with the rig at process exit).
struct Rig {
    owner: DbOwner,
    router: ShardRouter,
    executor: QbExecutor<DeterministicIndexEngine>,
    workload: Vec<Value>,
    transport: BinTransport,
    _daemons: Vec<ShardDaemon>,
}

fn rig(shards: usize, passes: usize, seed: u64) -> Rig {
    let relation = employee_relation();
    let policy = employee_sensitivity_policy(&relation).unwrap();
    let parts = Partitioner::new(policy).split(&relation).unwrap();
    let attr = parts.sensitive.schema().attr_id("EId").unwrap();
    let mut values = parts.sensitive.distinct_values(attr);
    for v in parts.nonsensitive.distinct_values(attr) {
        if !values.contains(&v) {
            values.push(v);
        }
    }
    let workload: Vec<Value> = values
        .iter()
        .cycle()
        .take(values.len() * passes)
        .cloned()
        .collect();
    let binning = QueryBinning::build(&parts, "EId", BinningConfig::default()).unwrap();
    let mut executor = QbExecutor::new(binning, DeterministicIndexEngine::new()).with_tenant(1);
    let mut owner = DbOwner::new(seed.wrapping_add(1));
    let mut router =
        ShardRouter::new(shards, NetworkModel::paper_wan(), seed.wrapping_mul(31)).unwrap();
    executor.outsource(&mut owner, &mut router, &parts).unwrap();

    let mut hosted: Vec<Vec<(u64, CloudServer)>> = (0..shards).map(|_| Vec::new()).collect();
    for (s, server) in router.shards_mut().iter_mut().enumerate() {
        hosted[s].push((1, std::mem::take(server)));
    }
    let daemons: Vec<ShardDaemon> = hosted
        .into_iter()
        .enumerate()
        .map(|(s, servers)| {
            ShardDaemon::spawn(servers, ServiceConfig::with_workers(2).with_shard(s as u64))
                .unwrap()
        })
        .collect();
    let addrs: Vec<SocketAddr> = daemons.iter().map(ShardDaemon::addr).collect();
    Rig {
        owner,
        router,
        executor,
        workload,
        transport: BinTransport::Tcp(TcpCloudClient::new(1, addrs)),
        _daemons: daemons,
    }
}

fn bench_wire_discipline(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire_discipline");
    group.sample_size(20);
    let mut r = rig(2, 2, 42);
    for (label, window) in [("lock_step", 1), ("pipelined", DEFAULT_PIPELINE_WINDOW)] {
        r.executor.set_pipeline_window(window);
        let workload = r.workload.clone();
        group.bench_function(BenchmarkId::new("employee_workload", label), |b| {
            b.iter(|| {
                black_box(
                    r.executor
                        .run_workload_transported(
                            &mut r.owner,
                            &mut r.router,
                            &workload,
                            &r.transport,
                        )
                        .unwrap()
                        .answers,
                )
            })
        });
    }
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

criterion_group!(benches, bench_wire_discipline, bench_pooled_codec);
criterion_main!(benches);
