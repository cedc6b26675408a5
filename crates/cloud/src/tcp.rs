//! Client side of the TCP shard service: pooled connections and the
//! correlation window.
//!
//! [`TcpCloudClient`] is one tenant's handle to a sharded deployment of
//! [`crate::service::ShardDaemon`]s — one daemon address per shard, one
//! lazily-grown connection pool per shard.  The handle is cheap to clone
//! (shared pools behind an `Arc`), which is what lets it ride inside
//! [`crate::BinTransport::Tcp`] and be shared by the per-shard tasks of
//! [`crate::BinTransport::dispatch`].
//!
//! A connection has two ways to exchange frames.  [`TcpShardConn::call`]
//! writes one frame and awaits its response; the handshake and
//! [`TcpCloudClient::fetch_stats`] use it.  Episodes always go through the
//! pipelined split: [`TcpShardConn::enqueue_bin_pair`] frames one
//! episode's `FetchBinRequest` under a fresh correlation id and buffers it,
//! [`TcpShardConn::flush`] puts the whole batch on the socket with
//! vectored writes, and [`TcpShardConn::recv_bin_pair`] reads one response
//! frame with the correlation id its header carries.
//! [`CorrelationWindow`] matches those possibly-out-of-order responses back
//! to request slots, with typed errors on duplicate or unknown ids.  The
//! owner-side loop over them is `pds_core::execute_shard_pipelined`; a
//! window of 1 is lock-step, one request on the socket at a time.

use std::collections::HashMap;
use std::io::{BufReader, IoSlice, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use pds_common::{OrderedMutex, PdsError, Result};
use pds_proto::{
    BinPayload, FetchBinRequest, FrameReader, Hello, PooledBuf, ReadFrame, WireMessage,
};

/// Frame bytes a client's connections wrote to and read from their
/// sockets, shared by every connection the client dials.
#[derive(Debug, Default)]
struct SocketBytes {
    written: AtomicU64,
    read: AtomicU64,
}

/// One authenticated connection to one shard daemon.
#[derive(Debug)]
pub struct TcpShardConn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    frames: FrameReader,
    /// Where this connection counts the frame bytes it moves.
    bytes: Arc<SocketBytes>,
    /// Next correlation id; starts at 1 so 0 stays "uncorrelated" (what
    /// the daemon stamps on its refusal of a frame it could not decode),
    /// and never repeats within a connection's lifetime.
    next_corr: u64,
    /// Frames enqueued but not yet flushed to the socket (pooled buffers —
    /// flushing returns them to the codec pool).
    outbox: Vec<PooledBuf>,
}

impl TcpShardConn {
    /// Dials the daemon and performs the tenant handshake (a [`Hello`]
    /// that the daemon must echo back).
    pub fn connect(addr: SocketAddr, tenant: u64) -> Result<TcpShardConn> {
        Self::connect_counted(addr, tenant, Arc::default())
    }

    /// [`Self::connect`], counting every frame byte the connection moves
    /// (the handshake included) into `bytes`.
    fn connect_counted(
        addr: SocketAddr,
        tenant: u64,
        bytes: Arc<SocketBytes>,
    ) -> Result<TcpShardConn> {
        let writer = TcpStream::connect(addr).map_err(|e| {
            PdsError::Wire(format!("connect to shard daemon at {addr} failed: {e}"))
        })?;
        let _ = writer.set_nodelay(true);
        let read_half = writer
            .try_clone()
            .map_err(|e| PdsError::Wire(format!("socket clone failed: {e}")))?;
        let mut conn = TcpShardConn {
            writer,
            reader: BufReader::new(read_half),
            frames: FrameReader::default(),
            bytes,
            next_corr: 1,
            outbox: Vec::new(),
        };
        match conn.call(&WireMessage::Hello(Hello { tenant }))? {
            WireMessage::Hello(echo) if echo.tenant == tenant => Ok(conn),
            WireMessage::Error(e) => Err(e.into_error()),
            other => Err(PdsError::Wire(format!(
                "handshake expected a Hello echo, got {}",
                other.name()
            ))),
        }
    }

    /// Frames `msg` under a fresh correlation id and buffers it for the
    /// next [`Self::flush`].  Returns the id the response will carry.
    pub fn enqueue(&mut self, msg: &WireMessage) -> Result<u64> {
        let corr = self.next_corr;
        self.next_corr += 1;
        self.outbox.push(msg.encode_framed(corr)?);
        Ok(corr)
    }

    /// Puts every buffered frame on the socket back-to-back with vectored
    /// writes (header + payload of many requests coalesced into few
    /// syscalls), then recycles the buffers.  No response is read here.
    pub fn flush(&mut self) -> Result<()> {
        if self.outbox.is_empty() {
            return Ok(());
        }
        let _span = pds_obs::obs_span("wire.flush");
        let slices: Vec<&[u8]> = self.outbox.iter().map(|b| b.as_ref()).collect();
        // Hand-rolled advance loop over (slice index, offset): write_vectored
        // may stop anywhere, including mid-slice.
        let mut idx = 0;
        let mut off = 0;
        while idx < slices.len() {
            let mut iov: Vec<IoSlice<'_>> = Vec::with_capacity(slices.len() - idx);
            iov.push(IoSlice::new(&slices[idx][off..]));
            iov.extend(slices[idx + 1..].iter().map(|s| IoSlice::new(s)));
            let mut wrote = match self.writer.write_vectored(&iov) {
                Ok(0) => {
                    return Err(PdsError::Wire(
                        "batch write stalled: socket accepted 0 bytes".into(),
                    ))
                }
                Ok(n) => n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(PdsError::Wire(format!("batch write failed: {e}"))),
            };
            self.bytes
                .written
                .fetch_add(wrote as u64, Ordering::Relaxed);
            while idx < slices.len() && wrote >= slices[idx].len() - off {
                wrote -= slices[idx].len() - off;
                idx += 1;
                off = 0;
            }
            off += wrote;
        }
        self.outbox.clear();
        Ok(())
    }

    /// Reads and decodes exactly one response frame, returning the
    /// correlation id its header carries alongside the message.  This is
    /// the blocking wait of every exchange, [`Self::call`] and episodes
    /// alike, so its `wire.call` span measures genuine
    /// time-waiting-on-the-cloud whatever the window.
    pub fn recv_response(&mut self) -> Result<(u64, WireMessage)> {
        let _span = pds_obs::obs_span("wire.call");
        match self.frames.read(&mut self.reader)? {
            ReadFrame::Frame(bytes) => {
                self.bytes
                    .read
                    .fetch_add(bytes.len() as u64, Ordering::Relaxed);
                WireMessage::decode_corr(&bytes)
            }
            ReadFrame::Eof => Err(PdsError::Wire(
                "daemon closed the connection mid-call".into(),
            )),
            ReadFrame::Oversized { declared, .. } => Err(PdsError::Wire(format!(
                "daemon response declares {declared} payload bytes, over this client's limit"
            ))),
        }
    }

    /// One lock-step request/response exchange: write the encoded frame,
    /// read exactly one response frame, and check it answers this request.
    /// Correlation id 0 is accepted only on an `Error` frame: the daemon
    /// stamps 0 only when it refuses a frame it could not decode.
    pub fn call(&mut self, msg: &WireMessage) -> Result<WireMessage> {
        let sent = self.enqueue(msg)?;
        self.flush()?;
        let (corr, resp) = self.recv_response()?;
        let uncorrelated_refusal = corr == 0 && matches!(resp, WireMessage::Error(_));
        if corr != sent && !uncorrelated_refusal {
            return Err(PdsError::Wire(format!(
                "response correlation id {corr} does not answer request {sent}"
            )));
        }
        Ok(resp)
    }

    /// Frames one episode's request under a fresh correlation id and
    /// buffers it for the next [`Self::flush`] — the typed uplink half of
    /// every episode that crosses TCP.
    pub fn enqueue_bin_pair(&mut self, request: FetchBinRequest) -> Result<u64> {
        self.enqueue(&WireMessage::FetchBinRequest(request))
    }

    /// Reads one pipelined response frame and returns the decoded
    /// [`BinPayload`] as the composed episode's answer.  The two error
    /// levels are deliberate:
    ///
    /// * **outer `Err`** — the stream itself failed (EOF mid-call, I/O
    ///   error, corrupt frame): the connection is unusable and the caller
    ///   may reconnect and replay its unanswered window;
    /// * **inner `Err`** — the daemon answered *this* correlation id with
    ///   a typed error frame: the connection is still healthy, but the
    ///   episode was refused and replaying it would be refused again.
    pub fn recv_bin_pair(&mut self) -> Result<(u64, Result<BinPayload>)> {
        let (corr, resp) = self.recv_response()?;
        let result = match resp {
            WireMessage::BinPayload(p) => Ok(p),
            WireMessage::Error(e) => Err(e.into_error()),
            other => Err(PdsError::Wire(format!(
                "expected a BinPayload answer, got {}",
                other.name()
            ))),
        };
        Ok((corr, result))
    }

    /// Tears down both socket halves, so the next read or write on this
    /// connection errors immediately.  Used by fault-injection tests to
    /// simulate a daemon dying mid-batch.
    pub fn shutdown(&self) {
        let _ = self.writer.shutdown(Shutdown::Both);
    }
}

/// Tracks the in-flight requests of one pipelined batch: correlation id →
/// caller-chosen slot.  Resolving a response id not in the window (stale
/// after a reconnect, forged, or delivered twice) is a typed error — demux
/// never guesses.
#[derive(Debug, Default)]
pub struct CorrelationWindow {
    pending: HashMap<u64, usize>,
}

impl CorrelationWindow {
    /// An empty window.
    pub fn new() -> CorrelationWindow {
        CorrelationWindow::default()
    }

    /// Registers an in-flight request under `corr`.  Enqueuing the same id
    /// twice is a local bookkeeping bug and comes back as a typed error.
    pub fn track(&mut self, corr: u64, slot: usize) -> Result<()> {
        match self.pending.entry(corr) {
            std::collections::hash_map::Entry::Occupied(_) => Err(PdsError::Wire(format!(
                "correlation id {corr} enqueued twice in one window"
            ))),
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(slot);
                Ok(())
            }
        }
    }

    /// Resolves a response id to its request slot, removing it from the
    /// window.  Unknown ids (stale after reconnect, duplicate delivery,
    /// forged) are typed errors.
    pub fn resolve(&mut self, corr: u64) -> Result<usize> {
        self.pending.remove(&corr).ok_or_else(|| {
            PdsError::Wire(format!(
                "response carries unknown correlation id {corr} \
                 (stale, duplicate, or never sent)"
            ))
        })
    }

    /// Abandons the window, returning the unanswered slots in ascending
    /// order — the replay list after a connection is torn down.
    pub fn drain_slots(&mut self) -> Vec<usize> {
        let mut slots: Vec<usize> = self.pending.drain().map(|(_, slot)| slot).collect();
        slots.sort_unstable();
        slots
    }

    /// In-flight request count.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// Whether no request is awaiting its response.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }
}

#[derive(Debug)]
struct ClientInner {
    tenant: u64,
    addrs: Vec<SocketAddr>,
    pools: Vec<OrderedMutex<Vec<TcpShardConn>>>,
    reconnects: AtomicU64,
    bytes: Arc<SocketBytes>,
}

/// One tenant's pooled client to a sharded daemon deployment.  Cloning is
/// cheap and shares the per-shard pools.
#[derive(Debug, Clone)]
pub struct TcpCloudClient {
    inner: Arc<ClientInner>,
}

impl TcpCloudClient {
    /// A client for the given tenant over one daemon address per shard.
    /// Connections are dialed lazily on first checkout.
    pub fn new(tenant: u64, addrs: Vec<SocketAddr>) -> TcpCloudClient {
        let pools = addrs
            .iter()
            .map(|_| OrderedMutex::new("tcp.pool", Vec::new()))
            .collect();
        TcpCloudClient {
            inner: Arc::new(ClientInner {
                tenant,
                addrs,
                pools,
                reconnects: AtomicU64::new(0),
                bytes: Arc::default(),
            }),
        }
    }

    /// The tenant this client authenticates as.
    pub fn tenant(&self) -> u64 {
        self.inner.tenant
    }

    /// Number of shard daemons this client spans.
    pub fn shard_count(&self) -> usize {
        self.inner.addrs.len()
    }

    /// Takes a pooled connection to `shard`, dialing a fresh one when the
    /// pool is empty.
    pub fn checkout(&self, shard: usize) -> Result<TcpShardConn> {
        let pool = self.inner.pools.get(shard).ok_or_else(|| {
            PdsError::Cloud(format!(
                "no shard {shard} in a {}-shard deployment",
                self.inner.addrs.len()
            ))
        })?;
        if let Some(conn) = pool.lock().pop() {
            return Ok(conn);
        }
        self.dial(self.inner.addrs[shard])
    }

    /// Dials one connection whose frame bytes count toward this client's.
    fn dial(&self, addr: SocketAddr) -> Result<TcpShardConn> {
        TcpShardConn::connect_counted(addr, self.inner.tenant, Arc::clone(&self.inner.bytes))
    }

    /// Returns a healthy connection to the pool.  Callers must *drop*
    /// connections whose last call errored instead — the stream may be
    /// desynchronised.
    pub fn checkin(&self, shard: usize, conn: TcpShardConn) {
        if let Some(pool) = self.inner.pools.get(shard) {
            pool.lock().push(conn);
        }
    }

    /// Replaces a dead connection to `shard` with a freshly dialed one —
    /// eagerly, so a mid-batch failure costs one reconnect now instead of a
    /// full dial on the next unrelated call.  Retries the dial once (two
    /// attempts total) before giving up with a typed wire error; the pool
    /// is bypassed, since its idle connections may share the failed
    /// daemon's fate and the caller needs a stream that is provably fresh.
    pub fn reconnect(&self, shard: usize) -> Result<TcpShardConn> {
        let addr = *self.inner.addrs.get(shard).ok_or_else(|| {
            PdsError::Cloud(format!(
                "no shard {shard} in a {}-shard deployment",
                self.inner.addrs.len()
            ))
        })?;
        self.inner.reconnects.fetch_add(1, Ordering::Relaxed);
        let first = match self.dial(addr) {
            Ok(conn) => return Ok(conn),
            Err(e) => e,
        };
        self.dial(addr).map_err(|e| {
            PdsError::Wire(format!(
                "shard {shard} daemon at {addr} unreachable after retry: \
                 first attempt: {first}; retry: {e}"
            ))
        })
    }

    /// How many eager reconnects this client has performed (regression
    /// hook for the kill-mid-batch recovery tests).
    pub fn reconnects(&self) -> u64 {
        self.inner.reconnects.load(Ordering::Relaxed)
    }

    /// Frame bytes this client's connections have written to their
    /// sockets, handshakes included.  A connection dialed elsewhere and
    /// checked in does not count here.
    pub fn bytes_written(&self) -> u64 {
        self.inner.bytes.written.load(Ordering::Relaxed)
    }

    /// Frame bytes this client's connections have read off their sockets,
    /// handshakes included.
    pub fn bytes_read(&self) -> u64 {
        self.inner.bytes.read.load(Ordering::Relaxed)
    }

    /// Fetches a tenant-scoped Prometheus-text metrics snapshot from one
    /// shard daemon via a [`WireMessage::StatsRequest`] exchange.
    pub fn fetch_stats(&self, shard: usize) -> Result<String> {
        let mut conn = self.checkout(shard)?;
        let resp = conn.call(&WireMessage::StatsRequest)?;
        match resp {
            WireMessage::StatsSnapshot(text) => {
                self.checkin(shard, conn);
                Ok(text)
            }
            WireMessage::Error(e) => Err(e.into_error()),
            other => Err(PdsError::Wire(format!(
                "StatsRequest expected a StatsSnapshot, got {}",
                other.name()
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{CorrelationWindow, TcpShardConn};
    use pds_common::PdsError;
    use pds_proto::{error_frame, read_frame, ReadFrame, WireMessage};
    use std::io::Write;
    use std::net::{SocketAddr, TcpListener};

    /// A peer that echoes the handshake under its correlation id, reads
    /// one more frame and answers it with `answer` under correlation id 0.
    fn uncorrelated_peer(answer: WireMessage) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut reader = stream.try_clone().unwrap();
            let mut next_frame = || match read_frame(&mut reader).unwrap() {
                ReadFrame::Frame(bytes) => WireMessage::decode_corr(&bytes).unwrap(),
                other => panic!("expected a frame, got {other:?}"),
            };
            let (corr, hello) = next_frame();
            stream
                .write_all(hello.encode_framed(corr).unwrap().as_ref())
                .unwrap();
            next_frame();
            stream
                .write_all(answer.encode_framed(0).unwrap().as_ref())
                .unwrap();
        });
        (addr, peer)
    }

    /// The daemon stamps correlation id 0 only on its refusal of a frame
    /// it could not decode, so a lock-step call takes id 0 as an answer
    /// only on an `Error` frame.
    #[test]
    fn call_accepts_correlation_id_zero_only_on_an_error_frame() {
        let refusal = WireMessage::Error(error_frame(&PdsError::Wire("undecodable".into())));
        let (addr, peer) = uncorrelated_peer(refusal);
        let mut conn = TcpShardConn::connect(addr, 7).unwrap();
        assert!(matches!(
            conn.call(&WireMessage::StatsRequest),
            Ok(WireMessage::Error(_))
        ));
        peer.join().unwrap();

        let (addr, peer) = uncorrelated_peer(WireMessage::StatsSnapshot(String::new()));
        let mut conn = TcpShardConn::connect(addr, 7).unwrap();
        assert!(matches!(
            conn.call(&WireMessage::StatsRequest),
            Err(PdsError::Wire(_))
        ));
        peer.join().unwrap();
    }

    #[test]
    fn window_resolves_out_of_order() {
        let mut w = CorrelationWindow::new();
        for (corr, slot) in [(10u64, 0usize), (11, 1), (12, 2)] {
            w.track(corr, slot).unwrap();
        }
        assert_eq!(w.len(), 3);
        assert_eq!(w.resolve(12).unwrap(), 2);
        assert_eq!(w.resolve(10).unwrap(), 0);
        assert_eq!(w.resolve(11).unwrap(), 1);
        assert!(w.is_empty());
    }

    #[test]
    fn duplicate_track_and_unknown_resolve_are_typed_errors() {
        let mut w = CorrelationWindow::new();
        w.track(5, 0).unwrap();
        assert!(w.track(5, 1).is_err(), "double-enqueue must be rejected");
        assert!(w.resolve(99).is_err(), "unknown id must be rejected");
        // A delivered-then-replayed id is unknown the second time.
        assert_eq!(w.resolve(5).unwrap(), 0);
        assert!(w.resolve(5).is_err(), "duplicate delivery must be rejected");
    }

    #[test]
    fn drain_returns_unanswered_slots_sorted() {
        let mut w = CorrelationWindow::new();
        for (corr, slot) in [(3u64, 7usize), (1, 2), (2, 9)] {
            w.track(corr, slot).unwrap();
        }
        w.resolve(1).unwrap();
        assert_eq!(w.drain_slots(), vec![7, 9]);
        assert!(w.is_empty());
        assert!(w.drain_slots().is_empty());
    }
}
