//! A real TCP daemon serving one cloud shard to concurrent tenant owners.
//!
//! Until this module existed every byte-accurate `pds-proto` frame still
//! travelled through an in-process function call; [`ShardDaemon`] puts the
//! same [`crate::CloudSession::dispatch`] seam behind a loopback socket so
//! the failure modes of a real network — partial reads, dead peers,
//! hostile bytes, concurrent tenants — exist and are tested.
//!
//! Architecture (one daemon per shard):
//!
//! ```text
//!   TcpListener ── acceptor thread
//!        │   one reader thread per connection (I/O only):
//!        │     Hello handshake → FrameReader loop → job queue
//!        ▼
//!   mpsc job queue ── worker pool (N compute threads)
//!        │     catch_unwind( lock tenant shard → dispatch → response )
//!        ▼
//!   per-connection write mutex → response frame back on the same socket
//! ```
//!
//! Robustness rules, each covered by `tests/hostile_client.rs`:
//!
//! * **framing errors** (garbage bytes, truncated frame, kill-mid-frame)
//!   close that connection and nothing else — the acceptor keeps accepting;
//! * **oversized declared lengths** are rejected *before* any payload
//!   allocation ([`pds_proto::FrameReader`] with the daemon's configurable
//!   [`ServiceConfig::max_payload`]) and answered with a typed
//!   [`WireMessage::Error`] frame, then the connection closes — the 1 GiB
//!   protocol-level [`pds_proto::MAX_PAYLOAD_LEN`] is not a listening
//!   socket's memory-DoS budget;
//! * **a panicking handler** is caught ([`std::panic::catch_unwind`]), the
//!   client gets an `Error` frame, the connection drops, the poisoned
//!   tenant lock is recovered, and every other connection keeps getting
//!   byte-identical answers.
//!
//! Multi-tenancy: the daemon holds one independent [`CloudServer`] per
//! tenant id, so tenants have disjoint keyspaces, bin namespaces,
//! adversarial views and metrics windows.  Every connection must open with
//! a [`pds_proto::Hello`] naming its tenant; the daemon validates the id
//! and echoes the `Hello` back.
//!
//! Every lock in this module is an [`OrderedMutex`] with a named class
//! (`service.tenant`, `service.jobs`, `service.conns`, `service.writer`).
//! Built with the `lockcheck` feature, each acquisition is checked against
//! the process-wide order graph and panics on an inversion, so the
//! hostile-client matrix and the concurrency proptests double as a dynamic
//! deadlock detector; `pds-analyze`'s static lock-order pass proves the
//! same nesting graph acyclic from the source text on every commit.

use std::collections::HashMap;
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

use pds_common::{OrderedMutex, PdsError, Result};
use pds_obs::{obs_span, record_manual, Registry, StatsScope};
use pds_proto::{error_frame, msg_tag, FrameReader, ReadFrame, WireMessage};

use crate::server::CloudServer;
use crate::session::CloudSession;
use crate::view::EpisodeLoads;

/// Tuning knobs of one [`ShardDaemon`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Compute threads in the worker pool.
    pub workers: usize,
    /// Per-connection ceiling on a frame's declared payload length.  A
    /// header declaring more is answered with a typed `Error` frame and a
    /// closed connection — *without* allocating the declared amount.
    pub max_payload: usize,
    /// Fault-injection hook for the unwind-isolation regression test: an
    /// `Opaque` frame whose body equals this trigger panics the worker
    /// mid-request (while it holds the tenant lock).  `None` in production.
    pub panic_trigger: Option<Vec<u8>>,
    /// Shard id stamped on every metric series this daemon records.
    pub shard: u64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 4,
            max_payload: pds_proto::MAX_PAYLOAD_LEN,
            panic_trigger: None,
            shard: 0,
        }
    }
}

impl ServiceConfig {
    /// A config with the given worker-pool size and default limits.
    pub fn with_workers(workers: usize) -> Self {
        ServiceConfig {
            workers,
            ..Default::default()
        }
    }

    /// The same config with a different shard id for metric labels.
    pub fn with_shard(mut self, shard: u64) -> Self {
        self.shard = shard;
        self
    }
}

/// One unit of compute work: a decoded request plus where to answer.
struct Job {
    tenant: u64,
    /// Correlation id from the request frame's header, stamped verbatim on
    /// the response frame so a pipelining client can demux out-of-order
    /// answers (0 for legacy v1 requests).
    corr: u64,
    msg: WireMessage,
    writer: Arc<OrderedMutex<TcpStream>>,
    /// Set by a worker whose handler panicked, *before* it writes the
    /// Error frame: the reader checks it before enqueuing, so nothing the
    /// client sends after reading that frame can reach another worker.
    dead: Arc<AtomicBool>,
    /// Trace timestamp at enqueue, so the dequeuing worker can record the
    /// time this job spent queued (0 when tracing is disabled).
    enqueued_ns: u64,
}

/// State shared by the acceptor, the readers and the worker pool.
struct SharedState {
    tenants: HashMap<u64, OrderedMutex<CloudServer>>,
    config: ServiceConfig,
    /// Duplicate handles of every accepted connection, so shutdown can
    /// unblock reader threads that are parked in a blocking read.
    conns: OrderedMutex<Vec<TcpStream>>,
    /// Live metric series for this daemon (request/connection counters,
    /// flushed tenant work counters, leakage gauges). Deterministic-only:
    /// nothing timing-derived goes in, so `StatsRequest` snapshots are
    /// byte-stable across identical runs.
    registry: Arc<Registry>,
    /// `config.shard` pre-rendered for label slices.
    shard_label: String,
}

/// A TCP daemon serving one shard's tenant servers on a loopback address.
pub struct ShardDaemon {
    addr: SocketAddr,
    state: Arc<SharedState>,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<Vec<JoinHandle<()>>>>,
    workers: Vec<JoinHandle<()>>,
    jobs: Option<Sender<Job>>,
}

impl std::fmt::Debug for ShardDaemon {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardDaemon")
            .field("addr", &self.addr)
            .field("workers", &self.workers.len())
            .finish_non_exhaustive()
    }
}

impl ShardDaemon {
    /// Binds a fresh loopback port and starts serving the given per-tenant
    /// shard servers.
    pub fn spawn(tenants: Vec<(u64, CloudServer)>, config: ServiceConfig) -> Result<ShardDaemon> {
        let listener = TcpListener::bind(("127.0.0.1", 0))
            .map_err(|e| PdsError::Cloud(format!("shard daemon bind failed: {e}")))?;
        let addr = listener
            .local_addr()
            .map_err(|e| PdsError::Cloud(format!("shard daemon local_addr failed: {e}")))?;
        let shard_label = config.shard.to_string();
        let state = Arc::new(SharedState {
            tenants: tenants
                .into_iter()
                .map(|(id, server)| (id, OrderedMutex::new("service.tenant", server)))
                .collect(),
            config,
            conns: OrderedMutex::new("service.conns", Vec::new()),
            registry: Arc::new(Registry::new()),
            shard_label,
        });
        let stop = Arc::new(AtomicBool::new(false));
        let (tx, rx) = channel::<Job>();
        let rx = Arc::new(OrderedMutex::new("service.jobs", rx));
        let workers = (0..state.config.workers.max(1))
            .map(|_| {
                let state = Arc::clone(&state);
                let rx = Arc::clone(&rx);
                std::thread::spawn(move || run_worker(&state, &rx))
            })
            .collect();
        let acceptor = {
            let state = Arc::clone(&state);
            let stop = Arc::clone(&stop);
            let tx = tx.clone();
            std::thread::spawn(move || run_acceptor(listener, &state, &stop, &tx))
        };
        Ok(ShardDaemon {
            addr,
            state,
            stop,
            acceptor: Some(acceptor),
            workers,
            jobs: Some(tx),
        })
    }

    /// The loopback address this daemon listens on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// This daemon's metric registry. The returned handle stays valid
    /// after [`ShardDaemon::shutdown`], which flushes every tenant's
    /// final work counters and leakage gauges into it.
    pub fn registry(&self) -> Arc<Registry> {
        Arc::clone(&self.state.registry)
    }

    /// Stops accepting, drains every thread, and returns the per-tenant
    /// shard servers (sorted by tenant id) with everything they recorded —
    /// adversarial views, metrics windows — so callers can run the
    /// security checks the in-process path runs.
    pub fn shutdown(mut self) -> Vec<(u64, CloudServer)> {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the acceptor's blocking accept with a throwaway dial.
        let _ = TcpStream::connect(self.addr);
        let readers = self
            .acceptor
            .take()
            .map(|h| h.join().unwrap_or_default())
            .unwrap_or_default();
        // Unblock reader threads parked in a blocking read.
        for conn in self.state.conns.lock().drain(..) {
            let _ = conn.shutdown(Shutdown::Both);
        }
        for reader in readers {
            let _ = reader.join();
        }
        // With acceptor and readers gone, ours is the last job sender:
        // dropping it drains the worker pool.
        drop(self.jobs.take());
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        // Every in-flight request has now been answered and its spans
        // recorded (worker ring buffers outlive their threads in the
        // global trace registry); flush each tenant's final work counters
        // and leakage gauges so nothing recorded by a served request is
        // lost to the shutdown race.
        for (&tenant, server) in &self.state.tenants {
            let server = server.lock();
            flush_tenant_stats(&self.state, tenant, &server);
        }
        // Every daemon thread has been joined, so ours is the last handle;
        // were it somehow not (a leaked clone), losing the recorded views
        // beats aborting the caller mid-shutdown.
        let Ok(state) = Arc::try_unwrap(self.state) else {
            return Vec::new();
        };
        let mut tenants: Vec<(u64, CloudServer)> = state
            .tenants
            .into_iter()
            .map(|(id, m)| (id, m.into_inner()))
            .collect();
        tenants.sort_by_key(|(id, _)| *id);
        tenants
    }
}

fn run_acceptor(
    listener: TcpListener,
    state: &Arc<SharedState>,
    stop: &AtomicBool,
    jobs: &Sender<Job>,
) -> Vec<JoinHandle<()>> {
    let mut readers = Vec::new();
    for conn in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = conn else { continue };
        let _span = obs_span("daemon.accept");
        state.registry.counter_add(
            "pds_daemon_connections_total",
            &[("shard", &state.shard_label)],
            1,
        );
        if let Ok(dup) = stream.try_clone() {
            state.conns.lock().push(dup);
        }
        let state = Arc::clone(state);
        let jobs = jobs.clone();
        readers.push(std::thread::spawn(move || {
            run_connection(stream, &state, &jobs)
        }));
    }
    readers
}

/// One connection's I/O loop: handshake, then read frames and enqueue jobs.
fn run_connection(stream: TcpStream, state: &SharedState, jobs: &Sender<Job>) {
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = std::io::BufReader::new(read_half);
    let writer = Arc::new(OrderedMutex::new("service.writer", stream));
    let dead = Arc::new(AtomicBool::new(false));
    let frames = FrameReader::new(state.config.max_payload);

    // Handshake: the first frame must be a Hello naming a known tenant.
    let tenant = match frames.read(&mut reader) {
        Ok(ReadFrame::Frame(bytes)) => match WireMessage::decode_corr(&bytes) {
            Ok((corr, WireMessage::Hello(hello))) => {
                if state.tenants.contains_key(&hello.tenant) {
                    if write_msg(&writer, corr, &WireMessage::Hello(hello)).is_err() {
                        close(&writer);
                        return;
                    }
                    hello.tenant
                } else {
                    refuse(
                        &writer,
                        corr,
                        &PdsError::Cloud(format!("unknown tenant {}", hello.tenant)),
                    );
                    return;
                }
            }
            Ok((corr, other)) => {
                refuse(
                    &writer,
                    corr,
                    &PdsError::Wire(format!(
                        "connection must open with a Hello handshake, got {}",
                        other.name()
                    )),
                );
                return;
            }
            // Checksummed-but-malformed first frame: hostile peer, no reply.
            Err(_) => {
                close(&writer);
                return;
            }
        },
        Ok(ReadFrame::Oversized {
            msg_type,
            corr,
            declared,
        }) => {
            refuse(&writer, corr, &oversized_error(state, msg_type, declared));
            return;
        }
        // Garbage bytes, truncation, or immediate close: just drop it.
        _ => {
            close(&writer);
            return;
        }
    };

    loop {
        match frames.read(&mut reader) {
            Ok(ReadFrame::Eof) => break,
            Ok(ReadFrame::Frame(bytes)) => {
                // Covers decode + enqueue, not the blocking wait for bytes:
                // idle socket time is not daemon work.
                let read_span = obs_span("daemon.read");
                match WireMessage::decode_corr(&bytes) {
                    Ok((corr, msg)) => {
                        // A panicked handler condemned this connection; the flag
                        // was raised before its Error frame went out, so any
                        // frame arriving after the client read it lands here.
                        if dead.load(Ordering::SeqCst) {
                            break;
                        }
                        let job = Job {
                            tenant,
                            corr,
                            msg,
                            writer: Arc::clone(&writer),
                            dead: Arc::clone(&dead),
                            // Clock reads are not free: only stamp when the
                            // dequeuing worker will actually record the wait.
                            enqueued_ns: if pds_obs::tracing_enabled() {
                                pds_obs::now_ns()
                            } else {
                                0
                            },
                        };
                        if jobs.send(job).is_err() {
                            break;
                        }
                    }
                    Err(e) => {
                        drop(read_span);
                        refuse(&writer, 0, &e);
                        return;
                    }
                }
            }
            Ok(ReadFrame::Oversized {
                msg_type,
                corr,
                declared,
            }) => {
                refuse(&writer, corr, &oversized_error(state, msg_type, declared));
                return;
            }
            // Truncated mid-frame or the peer died: nothing to answer.
            Err(_) => break,
        }
    }
    close(&writer);
}

fn oversized_error(state: &SharedState, msg_type: u8, declared: usize) -> PdsError {
    PdsError::Wire(format!(
        "declared payload of {declared} bytes on a {} frame exceeds this \
         daemon's {}-byte limit",
        msg_tag::name(msg_type),
        state.config.max_payload
    ))
}

/// One worker-pool thread: drain jobs until every sender is gone.
fn run_worker(state: &SharedState, jobs: &OrderedMutex<Receiver<Job>>) {
    loop {
        let job = {
            let rx = jobs.lock();
            match rx.recv() {
                Ok(job) => job,
                Err(_) => break,
            }
        };
        // Queue wait: stamped by the reader at enqueue, recorded here as a
        // root span because it crosses threads. A zero stamp means the job
        // was enqueued before tracing was enabled — nothing to record.
        if job.enqueued_ns != 0 {
            record_manual("daemon.queue", job.enqueued_ns, pds_obs::now_ns());
        }
        let _worker_span = obs_span("daemon.worker");
        // Stats requests are observability plumbing, not tenant work: they
        // are answered outside the tenant lock, the episode bracketing,
        // and the request counters, so asking for a snapshot never
        // perturbs the snapshot.
        if matches!(job.msg, WireMessage::StatsRequest) {
            let text = stats_snapshot(state, job.tenant);
            let _ = write_msg(&job.writer, job.corr, &WireMessage::StatsSnapshot(text));
            continue;
        }
        let tenant_label = job.tenant.to_string();
        state.registry.counter_add(
            "pds_daemon_requests_total",
            &[
                ("shard", &state.shard_label),
                ("tenant", &tenant_label),
                ("type", job.msg.name()),
            ],
            1,
        );
        // A panicking handler must not take the daemon down with it: catch
        // the unwind, answer the client with a typed Error frame, and drop
        // only that connection.  The tenant lock the handler held is
        // poisoned by the unwind; every lock site recovers because
        // [`OrderedMutex::lock`] resolves poison to the inner value.
        match catch_unwind(AssertUnwindSafe(|| serve(state, job.tenant, &job.msg))) {
            Ok(Ok(resp)) => {
                let _ = write_msg(&job.writer, job.corr, &resp);
            }
            Ok(Err(e)) => {
                state.registry.counter_add(
                    "pds_daemon_request_errors_total",
                    &[("shard", &state.shard_label), ("tenant", &tenant_label)],
                    1,
                );
                let _ = write_msg(&job.writer, job.corr, &WireMessage::Error(error_frame(&e)));
            }
            Err(_) => {
                state.registry.counter_add(
                    "pds_daemon_handler_panics_total",
                    &[("shard", &state.shard_label), ("tenant", &tenant_label)],
                    1,
                );
                // Condemn the connection *before* the Error frame goes out:
                // the moment the client reads it, nothing it sends afterwards
                // may reach a worker, or a fast client could race one more
                // request past the close below and get it served.
                job.dead.store(true, Ordering::SeqCst);
                let _ = write_msg(
                    &job.writer,
                    job.corr,
                    &WireMessage::Error(error_frame(&PdsError::Cloud(
                        "request handler panicked; dropping this connection".into(),
                    ))),
                );
                close(&job.writer);
            }
        }
    }
}

/// Serves one decoded request against the tenant's shard server.
fn serve(state: &SharedState, tenant: u64, msg: &WireMessage) -> Result<WireMessage> {
    let _span = obs_span("daemon.dispatch");
    let server = state
        .tenants
        .get(&tenant)
        .ok_or_else(|| PdsError::Cloud(format!("unknown tenant {tenant}")))?;
    let mut server = server.lock();
    if let (Some(trigger), WireMessage::Opaque(body)) = (&state.config.panic_trigger, msg) {
        // Panic while holding the tenant lock, so the regression test
        // proves poison recovery, not just unwind catching.
        if body == trigger {
            // pds-allow: panic-path(fault injection for the unwind-isolation regression test; never armed in production configs)
            panic!("injected handler panic");
        }
    }
    let mut session = CloudSession::new(&mut server);
    // Query messages are bracketed as one adversarial-view episode each —
    // exactly how the in-process executor brackets a composed episode — so
    // a daemon-served workload records the same view as a local one.
    let episodic = matches!(
        msg,
        WireMessage::FetchBinRequest(_) | WireMessage::BinPairRequest(_)
    );
    if episodic {
        session.begin_episode();
    }
    let resp = session.dispatch(msg);
    if episodic {
        session.end_episode();
    }
    resp
}

/// Writes one response frame stamped with the request's correlation id.
/// The pooled frame buffer is recycled once the bytes are on the socket.
fn write_msg(writer: &OrderedMutex<TcpStream>, corr: u64, msg: &WireMessage) -> Result<()> {
    let frame = msg.encode_framed(corr)?;
    let mut stream = writer.lock();
    stream
        .write_all(&frame)
        .map_err(|e| PdsError::Wire(format!("response write failed: {e}")))
}

/// Best-effort typed refusal: Error frame out, then close.
fn refuse(writer: &OrderedMutex<TcpStream>, corr: u64, err: &PdsError) {
    let _ = write_msg(writer, corr, &WireMessage::Error(error_frame(err)));
    close(writer);
}

fn close(writer: &OrderedMutex<TcpStream>) {
    let stream = writer.lock();
    let _ = stream.shutdown(Shutdown::Both);
}

/// Answers a [`WireMessage::StatsRequest`]: flush the asking tenant's work
/// counters and leakage gauges, then render the registry scoped to that
/// tenant (own series plus series carrying no tenant label — global shard
/// health).
///
/// Only deterministic counters and gauges live in the daemon registry, so
/// two identical seeded runs produce byte-identical snapshots.
fn stats_snapshot(state: &SharedState, tenant: u64) -> String {
    if let Some(server) = state.tenants.get(&tenant) {
        let server = server.lock();
        flush_tenant_stats(state, tenant, &server);
    }
    state.registry.render(StatsScope::Tenant(tenant))
}

/// Copies one tenant's accumulated [`crate::Metrics`] work counters and
/// leakage gauges into the daemon registry. Counter flushes use
/// `counter_set` (monotonic absolute values), so flushing is idempotent
/// and repeat snapshots never double-count.
fn flush_tenant_stats(state: &SharedState, tenant: u64, server: &CloudServer) {
    let registry = &state.registry;
    let tenant_label = tenant.to_string();
    let labels: &[(&str, &str)] = &[("shard", &state.shard_label), ("tenant", &tenant_label)];
    let m = server.metrics();
    for (slot, &count) in m.wire_frames_by_type.iter().enumerate() {
        let tag = (slot + 1) as u8;
        registry.counter_set(
            "pds_wire_frames_total",
            &[
                ("shard", &state.shard_label),
                ("tenant", &tenant_label),
                ("type", msg_tag::name(tag)),
            ],
            count,
        );
    }
    registry.counter_set("pds_wire_bytes_uploaded_total", labels, m.bytes_uploaded);
    registry.counter_set(
        "pds_wire_bytes_downloaded_total",
        labels,
        m.bytes_downloaded,
    );
    registry.counter_set("pds_round_trips_total", labels, m.round_trips);
    registry.counter_set("pds_tuples_returned_total", labels, m.tuples_returned);
    registry.counter_set(
        "pds_fake_tuples_returned_total",
        labels,
        m.fake_tuples_returned,
    );
    registry.counter_set(
        "pds_plaintext_tuples_scanned_total",
        labels,
        m.plaintext_tuples_scanned,
    );
    registry.counter_set(
        "pds_encrypted_tuples_scanned_total",
        labels,
        m.encrypted_tuples_scanned,
    );
    // Leakage telemetry: how uniform the per-episode encrypted result
    // loads the adversary observed are (1.0 = indistinguishable loads,
    // → 0 = one episode sticks out). Computed over sizes only — the
    // tuple contents never reach the registry — from the view's running
    // summary, so a snapshot costs the same however long the log grows.
    let view = server.adversarial_view();
    let loads = view.sensitive_loads();
    registry.gauge_set("pds_bin_load_uniformity", labels, load_uniformity(&loads));
    registry.counter_set("pds_observed_episodes_total", labels, loads.episodes);
    // View size: how many distinct observations and shared lists the
    // episode log holds. Counts only, read in O(1) like the loads above.
    registry.gauge_set(
        "pds_view_distinct_observations",
        labels,
        view.distinct_observations() as f64,
    );
    for (kind, lists) in [
        ("values", view.shared_value_lists()),
        ("ids", view.shared_id_lists()),
    ] {
        registry.gauge_set(
            "pds_view_shared_lists",
            &[
                ("shard", &state.shard_label),
                ("tenant", &tenant_label),
                ("kind", kind),
            ],
            lists as f64,
        );
    }
}

/// Mean/max uniformity of observed per-episode loads: 1.0 when every
/// episode returns the same number of encrypted rows (or there is nothing
/// to observe), approaching 0 as one episode dominates.
fn load_uniformity(loads: &EpisodeLoads) -> f64 {
    if loads.episodes == 0 || loads.max == 0 {
        return 1.0;
    }
    let mean = loads.total as f64 / loads.episodes as f64;
    mean / loads.max as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_uniformity_is_mean_over_max() {
        assert_eq!(load_uniformity(&EpisodeLoads::default()), 1.0);
        let empty_bins = EpisodeLoads {
            episodes: 4,
            total: 0,
            max: 0,
        };
        assert_eq!(load_uniformity(&empty_bins), 1.0);
        let loads = EpisodeLoads {
            episodes: 3,
            total: 6,
            max: 3,
        };
        assert_eq!(load_uniformity(&loads), 2.0 / 3.0);
    }
}
