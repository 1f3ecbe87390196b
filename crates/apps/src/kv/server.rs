//! The `respct-kvd` TCP front end: threads + blocking sockets, no async
//! runtime (the same discipline as respct-obs's `MetricsServer`).
//!
//! Topology: one accept thread round-robins connections across `workers`
//! worker threads; each worker owns a registered `ThreadHandle` and a
//! bounded request queue (the `WorkerPool`, which the in-process harness
//! [`crate::kvstore`] feeds directly). Every connection gets a reader thread (frame →
//! decode → enqueue to its assigned worker) and a writer thread (encode →
//! socket), so a slow peer can only stall itself. A connection costs the
//! server nothing once it is closed: its reader joins its writer and drops
//! the socket's entry in the open-connection registry on the way out, and
//! the accept loop joins finished readers.
//!
//! Backpressure is explicit: when the assigned worker's queue is full the
//! reader answers BUSY immediately instead of buffering — the server's
//! memory for queued work is bounded by `workers × queue_capacity`
//! requests. Responses carry the client's request id, so pipelined clients
//! match answers even when BUSY rejections interleave with executed
//! responses. Every answer a connection owes its peer — queued, executing,
//! or waiting for the writer — holds one slot of a per-connection budget
//! the size of its response channel: the reader takes a slot before it
//! admits a request or answers one itself, the writer frees it as it takes
//! the response. A reader facing a slow peer therefore stalls (and TCP
//! flow control pushes back) instead of overfilling the channel, and a
//! worker's non-blocking send never finds it full while the peer is alive.
//!
//! Restart points never appear on the socket path. Workers batch up to
//! `max_batch` queued requests, execute them handle-in-hand, and only then
//! call [`KvService::end_batch`] — the one place an RP (or, under sync
//! durability, a checkpoint) happens. A checkpoint stall therefore parks
//! workers between batches; the accept loop and the reader/writer threads
//! hold no handles and keep moving. Under sync durability the batch's
//! responses are released only after `end_batch` returns, so an
//! acknowledged write has been checkpointed.
//!
//! A malformed frame (bad version byte, unknown opcode, truncated body)
//! gets a typed ERR response — with the request id recovered from the
//! frame's fixed-offset id field when possible — and the connection stays
//! up: framing is length-prefixed, so one bad payload does not poison the
//! stream. Only frame-level failures (oversize length prefix, mid-frame
//! EOF) tear the connection down.

use std::collections::HashMap;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;

use parking_lot::Mutex;
use respct_ds::hash_u64;

use super::service::KvService;
use super::wire::{self, FrameError};
use super::{KvError, KvRequest, KvResponse};

/// One request in flight to a worker: from a connection's reader, or from
/// an in-process client that wants no answer (`resp: None`).
pub(crate) struct WorkItem {
    pub(crate) id: u32,
    pub(crate) req: KvRequest,
    pub(crate) resp: Option<SyncSender<(u32, KvResponse)>>,
}

/// The worker pool: `workers` threads, each running [`worker_loop`] on its
/// own bounded queue. Whoever enqueues a request counts it into the
/// worker's `queue_depth` first, so the gauge never runs behind the queue.
/// The workers exit once every sender — the pool's own and any clones —
/// is gone and their queues are empty.
pub(crate) struct WorkerPool {
    service: Arc<KvService>,
    queues: Vec<SyncSender<WorkItem>>,
    threads: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns the service's `workers` threads.
    pub(crate) fn start(service: &Arc<KvService>) -> WorkerPool {
        let (queues, threads) = (0..service.config().workers())
            .map(|w| {
                let (tx, rx) = std::sync::mpsc::sync_channel(service.config().queue_capacity());
                let service = Arc::clone(service);
                let worker = std::thread::Builder::new()
                    .name(format!("kvd-worker-{w}"))
                    .spawn(move || worker_loop(&service, &rx, w))
                    .expect("spawn kvd worker");
                (tx, worker)
            })
            .unzip();
        WorkerPool {
            service: Arc::clone(service),
            queues,
            threads,
        }
    }

    /// Enqueues `item` on the worker its key shards to, blocking while that
    /// queue is full.
    pub(crate) fn send(&self, key: u64, item: WorkItem) {
        let w = (hash_u64(key) % self.queues.len() as u64) as usize;
        let depth = &self.service.kv_metrics().queue_depth[w];
        depth.fetch_add(1, Ordering::Relaxed);
        self.queues[w]
            .send(item)
            .expect("kv workers outlive their pool");
    }

    /// Drops the pool's senders and waits for the workers to drain their
    /// queues and exit; re-raises a worker's panic.
    pub(crate) fn join(mut self) {
        if let Err(panic) = self.stop() {
            std::panic::resume_unwind(panic);
        }
    }

    fn stop(&mut self) -> std::thread::Result<()> {
        self.queues.clear();
        let joined = self.threads.drain(..).map(JoinHandle::join);
        joined.fold(Ok(()), std::thread::Result::and)
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        let _ = self.stop();
    }
}

/// A handle to every open connection's socket, keyed by connection number:
/// what shutdown closes. A connection's reader removes its own entry when
/// it exits, which closes the handle.
type OpenConns = Arc<Mutex<HashMap<usize, TcpStream>>>;

/// The running TCP server. Construct with [`KvServer::start`].
pub struct KvServer;

impl KvServer {
    /// Binds `addr` and starts serving `service`. The returned guard owns
    /// every thread; dropping it stops the accept loop, tears down open
    /// connections, and joins the workers.
    pub fn start(
        service: Arc<KvService>,
        addr: impl ToSocketAddrs,
    ) -> std::io::Result<KvServerGuard> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let conns: OpenConns = Arc::new(Mutex::new(HashMap::new()));

        let pool = WorkerPool::start(&service);
        let senders = pool.queues.clone();

        let accept = {
            let service = Arc::clone(&service);
            let stop = Arc::clone(&stop);
            let conns = Arc::clone(&conns);
            std::thread::Builder::new()
                .name("kvd-accept".into())
                .spawn(move || accept_loop(&listener, &service, senders, &stop, &conns))
                .expect("spawn kvd accept")
        };

        Ok(KvServerGuard {
            local_addr,
            stop,
            accept: Some(accept),
            conns,
            _pool: pool,
        })
    }
}

/// Accepts connections until `stop`; returns the readers still running
/// (each joins its own writer), for shutdown to join.
fn accept_loop(
    listener: &TcpListener,
    service: &Arc<KvService>,
    senders: Vec<SyncSender<WorkItem>>,
    stop: &Arc<AtomicBool>,
    conns: &OpenConns,
) -> Vec<JoinHandle<()>> {
    let queue_cap = service.config().queue_capacity();
    let max_batch = service.config().max_batch();
    let mut next = 0usize;
    let mut readers: Vec<JoinHandle<()>> = Vec::new();
    loop {
        let stream = match listener.accept() {
            Ok((s, _)) => s,
            Err(_) if stop.load(Ordering::SeqCst) => break,
            Err(_) => continue,
        };
        if stop.load(Ordering::SeqCst) {
            break;
        }
        // Reap the connections that closed since the last accept: what the
        // server holds for past clients is bounded by the connections that
        // were open at once, not by how many it ever accepted.
        let (done, live) = readers.into_iter().partition(JoinHandle::is_finished);
        readers = live;
        for reader in done {
            let _ = reader.join();
        }
        let m = service.kv_metrics();
        m.connections.inc();
        m.active_connections.fetch_add(1, Ordering::Relaxed);
        let _ = stream.set_nodelay(true);
        // Accept-sharded: the connection is pinned to one worker for its
        // lifetime (requests from one pipeline stay ordered).
        let (conn, worker) = (next, next % senders.len());
        next = next.wrapping_add(1);

        let (Ok(write_half), Ok(shutdown_half)) = (stream.try_clone(), stream.try_clone()) else {
            m.active_connections.fetch_sub(1, Ordering::Relaxed);
            continue;
        };
        // Registered before the reader exists, so its exit finds the entry.
        conns.lock().insert(conn, shutdown_half);

        // The writer drains this; BUSY rejections and worker responses
        // both flow through it, each tagged with the request id.
        let cap = queue_cap + max_batch + 64;
        let (resp_tx, resp_rx) = std::sync::mpsc::sync_channel::<(u32, KvResponse)>(cap);
        // The connection's response budget: one token per answer owed,
        // sent by the reader (blocking while `cap` are owed), taken back by
        // the writer. Dropping the writer's end fails the reader's send.
        let (owed_tx, owed_rx) = std::sync::mpsc::sync_channel::<()>(cap);

        let writer = {
            let service = Arc::clone(service);
            std::thread::Builder::new()
                .name("kvd-conn-writer".into())
                .spawn(move || writer_loop(write_half, &resp_rx, &owed_rx, &service))
                .expect("spawn kvd writer")
        };
        let reader = {
            let service = Arc::clone(service);
            let work_tx = senders[worker].clone();
            let conns = Arc::clone(conns);
            std::thread::Builder::new()
                .name("kvd-conn-reader".into())
                .spawn(move || {
                    reader_loop(stream, &service, worker, &work_tx, &resp_tx, &owed_tx);
                    // The connection is over: let the writer drain what the
                    // workers still owe it, then release everything held on
                    // the connection's behalf.
                    drop(resp_tx);
                    let _ = writer.join();
                    conns.lock().remove(&conn);
                    service
                        .kv_metrics()
                        .active_connections
                        .fetch_sub(1, Ordering::Relaxed);
                })
                .expect("spawn kvd reader")
        };
        readers.push(reader);
    }
    // Dropping `senders` here lets the workers' `recv` fail once the last
    // connection reader and the pool are gone — the worker exit condition.
    readers
}

fn reader_loop(
    mut stream: TcpStream,
    service: &Arc<KvService>,
    worker: usize,
    work_tx: &SyncSender<WorkItem>,
    resp_tx: &SyncSender<(u32, KvResponse)>,
    owed: &SyncSender<()>,
) {
    let m = service.kv_metrics();
    let max_value = service.config().max_value_len();
    let depth = &m.queue_depth[worker];
    let mut buf = Vec::new();
    loop {
        let payload = match wire::read_frame(&mut stream, wire::MAX_FRAME, &mut buf) {
            Ok(Some(p)) => p,
            // Clean close, socket error, or an unsyncable frame: done.
            Ok(None) => break,
            Err(FrameError::Io(_)) => break,
            Err(FrameError::Oversize { .. }) => {
                m.wire_errors.inc();
                break;
            }
        };
        // Whatever the answer turns out to be, it is owed from here on:
        // wait for a free slot in the budget. While the writer is stuck on
        // a slow peer this stalls admissions for this one connection and
        // TCP flow control pushes back on the peer — the backpressure
        // contract. Fails only once the writer has gone.
        if owed.send(()).is_err() {
            break;
        }
        let (id, req) = match wire::decode_request(payload, max_value) {
            Ok(x) => x,
            Err(e) => {
                m.wire_errors.inc();
                // Framing survived, only the payload was bad: answer with
                // a typed error and keep the connection. The id sits at a
                // fixed offset, so recover it when enough bytes exist.
                let id = payload
                    .get(2..6)
                    .map_or(0, |b| u32::from_le_bytes(b.try_into().unwrap()));
                if resp_tx
                    .send((id, KvResponse::Error(KvError::Wire(e))))
                    .is_err()
                {
                    break;
                }
                continue;
            }
        };
        let item = WorkItem {
            id,
            req,
            resp: Some(resp_tx.clone()),
        };
        depth.fetch_add(1, Ordering::Relaxed);
        match work_tx.try_send(item) {
            Ok(()) => {}
            Err(TrySendError::Full(item)) => {
                // Bounded queue full: reject now rather than buffer. The
                // request was not executed; the client may retry. Its slot
                // is already held, so the reply finds room.
                depth.fetch_sub(1, Ordering::Relaxed);
                m.busy.inc();
                if resp_tx.send((item.id, KvResponse::Busy)).is_err() {
                    break;
                }
            }
            Err(TrySendError::Disconnected(_)) => break,
        }
    }
}

fn writer_loop(
    mut stream: TcpStream,
    resp_rx: &Receiver<(u32, KvResponse)>,
    owed: &Receiver<()>,
    service: &Arc<KvService>,
) {
    let mut out = Vec::new();
    // Exits when every sender (the reader plus in-flight work items) is
    // gone, or on socket error.
    while let Ok((id, resp)) = resp_rx.recv() {
        out.clear();
        wire::encode_response(&mut out, id, &resp);
        // Coalesce whatever else is already queued into one write.
        let mut taken = 1;
        while out.len() < 64 * 1024 {
            match resp_rx.try_recv() {
                Ok((id, resp)) => {
                    wire::encode_response(&mut out, id, &resp);
                    taken += 1;
                }
                Err(_) => break,
            }
        }
        // Free the taken responses' slots: the reader reserved one before
        // each was decided, so every one is there to take back.
        for _ in 0..taken {
            let _ = owed.try_recv();
        }
        if stream.write_all(&out).is_err() {
            // Peer gone: drain and count what can no longer be delivered.
            let mut lost = 0;
            while resp_rx.try_recv().is_ok() {
                lost += 1;
            }
            service.kv_metrics().dropped_responses.add(lost);
            break;
        }
    }
    let _ = stream.flush();
}

/// A computed response waiting for its batch's restart point: the owning
/// connection's channel (if it wants an answer), the request id, and the
/// payload.
type PendingResponse = (Option<SyncSender<(u32, KvResponse)>>, u32, KvResponse);

fn worker_loop(service: &Arc<KvService>, rx: &Receiver<WorkItem>, worker: usize) {
    let mut ctx = service.worker_ctx();
    let m = service.kv_metrics();
    let depth = &m.queue_depth[worker];
    let max_batch = service.config().max_batch();
    let mut done: Vec<PendingResponse> = Vec::new();
    loop {
        // Blocking-call protocol (§3.3.3): the checkpoint-prevention flag
        // drops while the worker waits, so an idle worker never holds up a
        // checkpoint.
        let Ok(first) = service.blocked(&mut ctx, || rx.recv()) else {
            break;
        };
        depth.fetch_sub(1, Ordering::Relaxed);
        let mut wrote = first.req.is_write();
        let resp = service.apply(&mut ctx, &first.req);
        done.push((first.resp, first.id, resp));
        while done.len() < max_batch {
            let Ok(item) = rx.try_recv() else { break };
            depth.fetch_sub(1, Ordering::Relaxed);
            wrote |= item.req.is_write();
            let resp = service.apply(&mut ctx, &item.req);
            done.push((item.resp, item.id, resp));
        }
        // Batch boundary: the only restart point on the serving path.
        // Under sync durability this checkpoints *before* any response
        // below is released — an acked write is durable.
        service.end_batch(&mut ctx, wrote, done.len());
        for (tx, id, resp) in done.drain(..) {
            // Never full (the reader reserved this answer's slot before
            // admitting it), so this fails only once the connection's
            // writer has gone with its peer.
            if tx.is_some_and(|tx| tx.try_send((id, resp)).is_err()) {
                m.dropped_responses.inc();
            }
        }
    }
}

/// Handle to a running [`KvServer`]; dropping it shuts the server down.
pub struct KvServerGuard {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<Vec<JoinHandle<()>>>>,
    conns: OpenConns,
    // Held for its drop, which joins the workers; fields drop after
    // `Drop::drop` below has stopped every other sender.
    _pool: WorkerPool,
}

impl KvServerGuard {
    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }
}

impl Drop for KvServerGuard {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Poke the accept loop out of `accept()`.
        let _ = TcpStream::connect(self.local_addr);
        let readers = self.accept.take().and_then(|t| t.join().ok());
        // Shut down open connections so their reader/writer threads exit.
        // (Not drained: each reader removes its own entry on the way out.)
        for c in self.conns.lock().values() {
            let _ = c.shutdown(std::net::Shutdown::Both);
        }
        for t in readers.into_iter().flatten() {
            let _ = t.join();
        }
    }
}

impl std::fmt::Debug for KvServerGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KvServerGuard")
            .field("local_addr", &self.local_addr)
            .finish_non_exhaustive()
    }
}

// ---- Client helper ------------------------------------------------------------

/// A minimal blocking client for the kvd protocol: buffers requests,
/// flushes them in one write, reads responses in arrival order. The
/// crash and connection tests drive it; it is not a production client.
pub struct KvClient {
    writer: KvClientWriter,
    reader: KvClientReader,
}

impl KvClient {
    /// Connects (with TCP_NODELAY).
    ///
    /// # Errors
    ///
    /// [`KvError::Io`] on connect failure, or if the socket cannot be
    /// cloned into its read half.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<KvClient, KvError> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        Ok(KvClient {
            reader: KvClientReader {
                stream: stream.try_clone()?,
                rbuf: Vec::new(),
            },
            writer: KvClientWriter {
                stream,
                wbuf: Vec::new(),
            },
        })
    }

    /// Queues one request frame locally (nothing is sent until
    /// [`KvClient::flush`]).
    pub fn send(&mut self, id: u32, req: &KvRequest) {
        self.writer.send(id, req);
    }

    /// Writes all queued frames to the socket.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn flush(&mut self) -> std::io::Result<()> {
        self.writer.flush()
    }

    /// Reads the next response; `Ok(None)` on clean server close.
    ///
    /// # Errors
    ///
    /// [`KvError::Io`] on socket failure, [`KvError::Wire`] on a payload
    /// that does not decode.
    pub fn recv(&mut self) -> Result<Option<(u32, KvResponse)>, KvError> {
        self.reader.recv()
    }

    /// One synchronous round trip.
    ///
    /// # Errors
    ///
    /// As [`KvClient::recv`]; a server close mid-call is an
    /// `UnexpectedEof` [`KvError::Io`].
    pub fn call(&mut self, id: u32, req: &KvRequest) -> Result<(u32, KvResponse), KvError> {
        self.send(id, req);
        self.flush()?;
        match self.recv()? {
            Some(x) => Ok(x),
            None => Err(KvError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed before responding",
            ))),
        }
    }

    /// Splits into independently-owned write and read halves (separate
    /// threads for pipelined load generation).
    pub fn split(self) -> (KvClientWriter, KvClientReader) {
        (self.writer, self.reader)
    }
}

/// Write half of a [`KvClient`].
pub struct KvClientWriter {
    stream: TcpStream,
    wbuf: Vec<u8>,
}

impl KvClientWriter {
    /// Queues one request frame locally.
    pub fn send(&mut self, id: u32, req: &KvRequest) {
        wire::encode_request(&mut self.wbuf, id, req);
    }

    /// Writes all queued frames.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn flush(&mut self) -> std::io::Result<()> {
        if !self.wbuf.is_empty() {
            self.stream.write_all(&self.wbuf)?;
            self.wbuf.clear();
        }
        Ok(())
    }
}

/// Read half of a [`KvClient`].
pub struct KvClientReader {
    stream: TcpStream,
    rbuf: Vec<u8>,
}

impl KvClientReader {
    /// Reads the next response; `Ok(None)` on clean server close.
    ///
    /// # Errors
    ///
    /// As [`KvClient::recv`].
    pub fn recv(&mut self) -> Result<Option<(u32, KvResponse)>, KvError> {
        match wire::read_frame(&mut self.stream, wire::MAX_FRAME, &mut self.rbuf) {
            Ok(Some(payload)) => Ok(Some(wire::decode_response(payload)?)),
            Ok(None) => Ok(None),
            Err(FrameError::Io(e)) => Err(KvError::Io(e)),
            Err(FrameError::Oversize { len, max }) => {
                Err(KvError::Wire(wire::WireError::Oversize { len, max }))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kv::KvServerConfig;
    use crate::Mode;

    fn start(
        mode: Mode,
        builder: impl FnOnce(crate::kv::KvServerConfigBuilder) -> crate::kv::KvServerConfigBuilder,
    ) -> (Arc<KvService>, KvServerGuard) {
        let cfg = builder(
            KvServerConfig::builder()
                .mode(mode)
                .pool_bytes(64 << 20)
                .ckpt_period(None),
        )
        .build()
        .expect("config");
        let (svc, _) = KvService::open(cfg).expect("open");
        let guard = KvServer::start(Arc::clone(&svc), "127.0.0.1:0").expect("bind");
        (svc, guard)
    }

    #[test]
    fn tcp_roundtrip_all_ops() {
        let (_svc, guard) = start(Mode::Respct, |b| b);
        let mut c = KvClient::connect(guard.local_addr()).expect("connect");
        assert_eq!(c.call(1, &KvRequest::Ping).unwrap(), (1, KvResponse::Pong));
        assert_eq!(
            c.call(
                2,
                &KvRequest::Put {
                    key: 7,
                    value: vec![9; 32]
                }
            )
            .unwrap(),
            (2, KvResponse::Ok)
        );
        assert_eq!(
            c.call(3, &KvRequest::Get { key: 7 }).unwrap(),
            (3, KvResponse::Value(vec![9; 32]))
        );
        assert_eq!(
            c.call(4, &KvRequest::Delete { key: 7 }).unwrap(),
            (4, KvResponse::Ok)
        );
        assert_eq!(
            c.call(5, &KvRequest::Get { key: 7 }).unwrap(),
            (5, KvResponse::NotFound)
        );
    }

    #[test]
    fn pipelined_requests_answered_in_order_with_ids() {
        let (_svc, guard) = start(Mode::TransientDram, |b| b);
        let mut c = KvClient::connect(guard.local_addr()).expect("connect");
        for id in 0..100u32 {
            c.send(
                id,
                &KvRequest::Put {
                    key: id as u64,
                    value: vec![id as u8; 16],
                },
            );
        }
        c.flush().expect("flush");
        for want in 0..100u32 {
            let (id, resp) = c.recv().expect("recv").expect("open");
            assert_eq!(id, want);
            assert_eq!(resp, KvResponse::Ok);
        }
    }

    #[test]
    fn malformed_payload_gets_typed_error_and_connection_survives() {
        let (svc, guard) = start(Mode::TransientDram, |b| b);
        let mut c = KvClient::connect(guard.local_addr()).expect("connect");
        // Hand-build a frame with a bogus version byte but a readable id.
        let mut raw = Vec::new();
        wire::encode_request(&mut raw, 77, &KvRequest::Ping);
        raw[wire::LEN_PREFIX] = 9; // clobber the version byte
        c.writer.stream.write_all(&raw).expect("write");
        let (id, resp) = c.recv().expect("recv").expect("open");
        assert_eq!(id, 77);
        assert_eq!(
            resp,
            KvResponse::Error(KvError::Wire(wire::WireError::Version { got: 9 }))
        );
        // Same connection still serves good frames.
        assert_eq!(
            c.call(78, &KvRequest::Ping).unwrap(),
            (78, KvResponse::Pong)
        );
        assert_eq!(svc.kv_metrics().wire_errors.get(), 1);
    }

    #[test]
    fn full_queue_answers_busy() {
        // One worker with a 2-deep queue, slowed to a crawl by
        // sync-durability checkpoints at every batch boundary: a pipelined
        // flood must overrun the queue and collect BUSY rejections.
        let (svc, guard) = start(Mode::Respct, |b| {
            b.workers(1)
                .queue_capacity(2)
                .max_batch(2)
                .durability(crate::kv::Durability::Sync)
        });
        let mut c = KvClient::connect(guard.local_addr()).expect("connect");
        let total = 600u32;
        for id in 0..total {
            c.send(
                id,
                &KvRequest::Put {
                    key: 1,
                    value: vec![0; 64],
                },
            );
        }
        c.flush().expect("flush");
        let mut busy = 0;
        let mut ok = 0;
        for _ in 0..total {
            match c.recv().expect("recv").expect("open").1 {
                KvResponse::Busy => busy += 1,
                KvResponse::Ok => ok += 1,
                other => panic!("unexpected response {other:?}"),
            }
        }
        assert!(busy > 0, "expected BUSY under flood (ok = {ok})");
        assert!(ok > 0, "some writes must land");
        assert_eq!(svc.kv_metrics().busy.get(), busy);
        assert!(svc.kv_metrics().sync_checkpoints.get() > 0);
    }

    /// A peer that pipelines a flood and reads only later stalls the
    /// connection's writer; the BUSY replies the reader decides meanwhile
    /// must not crowd executed responses out of the connection's channel.
    /// Every request is answered exactly once and nothing is dropped.
    #[test]
    fn slow_reader_gets_every_answer_exactly_once() {
        let (svc, guard) = start(Mode::TransientDram, |b| {
            b.workers(1)
                .queue_capacity(4)
                .max_batch(2)
                .max_value_len(64 << 10)
        });
        let mut c = KvClient::connect(guard.local_addr()).expect("connect");
        // A lost answer must fail the test, not hang it.
        c.reader
            .stream
            .set_read_timeout(Some(std::time::Duration::from_secs(10)))
            .expect("timeout");
        let value = vec![7; 64 << 10];
        let put = KvRequest::Put { key: 1, value };
        assert_eq!(c.call(0, &put).unwrap(), (0, KvResponse::Ok));
        let total = 2000u32;
        for round in 0..5 {
            for id in 1..=total {
                c.send(id, &KvRequest::Get { key: 1 });
            }
            c.flush().expect("flush");
            std::thread::sleep(std::time::Duration::from_millis(500));
            let mut answered = vec![false; total as usize + 1];
            for n in 0..total {
                let (id, resp) = c
                    .recv()
                    .unwrap_or_else(|e| panic!("round {round}: answer {n} of {total}: {e}"))
                    .expect("open");
                assert!(
                    !std::mem::replace(&mut answered[id as usize], true),
                    "round {round}: id {id} answered twice"
                );
                match resp {
                    KvResponse::Value(v) => assert_eq!(v.len(), 64 << 10),
                    KvResponse::Busy => {}
                    other => panic!("unexpected response {other:?}"),
                }
            }
            assert_eq!(svc.kv_metrics().dropped_responses.get(), 0, "round {round}");
        }
    }
}
