//! The TCP server: accept loop, per-connection reader/writer threads, a
//! single batching thread that owns the [`ResultCache`], and graceful
//! drain on shutdown.
//!
//! # Threading model
//!
//! ```text
//! accept loop ──spawns──▶ reader ──WorkItem──▶ batcher ──line──▶ writer
//!   (1 thread)           (1/conn)   (mpsc)    (1 thread)  (mpsc)  (1/conn)
//! ```
//!
//! Every parsed line becomes one `WorkItem` carrying the connection's
//! reply sender. The batcher coalesces items from *all* connections into
//! one [`serve_batch_cached`] pool pass per window (first item opens the
//! window; it closes after [`NetServerConfig::window`] or at
//! [`NetServerConfig::max_batch`] items), then dispatches response lines
//! in arrival order. Because the batcher is a single FIFO stage, each
//! connection's responses come back in the order its requests were sent —
//! pings and protocol errors also flow through the batcher (as
//! pre-rendered `Job::Ready` lines) precisely to preserve that order.
//!
//! # Backpressure
//!
//! Each connection has a bounded in-flight budget
//! ([`NetServerConfig::max_inflight`]): the reader acquires one permit per
//! request *before* enqueueing and the writer releases it after the
//! response line is written. A client that pipelines faster than the
//! server answers simply stops being read — TCP flow control pushes back
//! to the sender — so one greedy connection cannot queue unbounded work.
//!
//! # Graceful drain
//!
//! [`NetServer::shutdown`] stops the accept loop and the readers (no new
//! requests), but everything already accepted keeps flowing: the batcher
//! drains its queue (the channel yields buffered items before reporting
//! disconnect), writers flush every pending response, and only then do
//! connections close. [`NetServer::join`] performs the drain and returns
//! the final [`ServerStats`].

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use datatrans_core::cache::ResultCache;
use datatrans_core::serve::{
    serve_batch_cached, CachedBatch, RankRequest, ServeConfig, ServeError,
};
use datatrans_dataset::view::DatabaseView;

use crate::protocol::{parse_line, render_result, write_serve_error, Command, ProtocolError};

/// How long a blocked reader or the accept loop sleeps between checks of
/// the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(10);

/// Tuning knobs of the network front end.
#[derive(Debug, Clone)]
pub struct NetServerConfig {
    /// The serving-engine configuration used for every batch.
    pub serve: ServeConfig,
    /// Most requests coalesced into one pool pass.
    pub max_batch: usize,
    /// How long the batcher waits for more requests after the first one
    /// opens a window.
    pub window: Duration,
    /// Most responses outstanding per connection before its reader stops
    /// pulling new requests off the socket.
    pub max_inflight: usize,
    /// Capacity of the server-owned [`ResultCache`].
    pub cache_capacity: usize,
}

impl Default for NetServerConfig {
    fn default() -> Self {
        NetServerConfig {
            serve: ServeConfig::default(),
            max_batch: 32,
            window: Duration::from_millis(2),
            max_inflight: 64,
            cache_capacity: 256,
        }
    }
}

impl NetServerConfig {
    /// A configuration sized for tests: quick models, small cache.
    pub fn quick() -> Self {
        NetServerConfig {
            serve: ServeConfig::quick(),
            cache_capacity: 64,
            ..NetServerConfig::default()
        }
    }
}

/// Lifetime counters, returned by [`NetServer::join`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections accepted.
    pub connections: u64,
    /// Ranking requests served (cache hits included).
    pub requests: u64,
    /// Pool passes executed ([`serve_batch_cached`] calls).
    pub batches: u64,
    /// Largest number of ranking requests coalesced into one pass.
    pub max_batch_len: u64,
    /// Requests answered from the result cache.
    pub hits: u64,
    /// Requests that fell through to model evaluation.
    pub misses: u64,
    /// Cache entries dropped by catalog-version moves.
    pub invalidations: u64,
    /// Malformed lines answered with an `err` line.
    pub protocol_errors: u64,
    /// Requests served through the approximate fast path (response
    /// carried an approx annex).
    pub approx_requests: u64,
    /// Candidate machines the approximate path short-circuited past exact
    /// evaluation, summed over all approx responses.
    pub machines_short_circuited: u64,
}

/// Shared atomic counters behind [`ServerStats`].
#[derive(Default)]
struct SharedStats {
    connections: AtomicU64,
    requests: AtomicU64,
    batches: AtomicU64,
    max_batch_len: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    invalidations: AtomicU64,
    protocol_errors: AtomicU64,
    approx_requests: AtomicU64,
    machines_short_circuited: AtomicU64,
}

impl SharedStats {
    fn snapshot(&self) -> ServerStats {
        ServerStats {
            connections: self.connections.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            max_batch_len: self.max_batch_len.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
            approx_requests: self.approx_requests.load(Ordering::Relaxed),
            machines_short_circuited: self.machines_short_circuited.load(Ordering::Relaxed),
        }
    }
}

/// What one parsed line asks the batcher to do.
enum Job {
    /// A response that needs no serving work (pong, protocol error) but
    /// must flow through the batcher to keep per-connection ordering.
    Ready(String),
    /// A ranking request for the next [`serve_batch_cached`] pass.
    Serve(Box<RankRequest>),
}

/// One unit of work plus the route back to its connection's writer.
struct WorkItem {
    job: Job,
    reply: mpsc::Sender<String>,
}

/// The per-connection in-flight budget: a counting semaphore whose
/// acquire side is shutdown-aware.
struct Inflight {
    max: usize,
    pending: Mutex<usize>,
    released: Condvar,
}

impl Inflight {
    fn new(max: usize) -> Self {
        Inflight {
            // A zero budget would deadlock the reader; one is the
            // smallest meaningful pipeline depth.
            max: max.max(1),
            pending: Mutex::new(0),
            released: Condvar::new(),
        }
    }

    /// Blocks until a permit is free; returns `false` if shutdown arrived
    /// first (poisoning is impossible: holders never panic mid-lock).
    fn acquire(&self, shutdown: &AtomicBool) -> bool {
        let mut pending = match self.pending.lock() {
            Ok(guard) => guard,
            Err(_) => return false,
        };
        while *pending >= self.max {
            if shutdown.load(Ordering::Relaxed) {
                return false;
            }
            pending = match self.released.wait_timeout(pending, POLL_INTERVAL) {
                Ok((guard, _)) => guard,
                Err(_) => return false,
            };
        }
        *pending += 1;
        true
    }

    fn release(&self) {
        if let Ok(mut pending) = self.pending.lock() {
            *pending = pending.saturating_sub(1);
            self.released.notify_one();
        }
    }
}

/// A running network front end. Dropping it triggers shutdown and joins
/// every thread; call [`NetServer::join`] to also collect the stats.
pub struct NetServer {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    stats: Arc<SharedStats>,
    accept_handle: Option<JoinHandle<()>>,
    batch_handle: Option<JoinHandle<()>>,
    conn_handles: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl NetServer {
    /// Binds `addr` and spawns the accept, batcher, and (per connection)
    /// reader/writer threads. Use port 0 to let the OS pick; the bound
    /// address is [`NetServer::local_addr`].
    ///
    /// # Errors
    ///
    /// Returns the [`io::Error`] from binding the listener.
    pub fn spawn(
        db: Arc<dyn DatabaseView + Send + Sync>,
        addr: impl ToSocketAddrs,
        config: NetServerConfig,
    ) -> io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;

        let shutdown = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(SharedStats::default());
        let conn_handles: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let (work_tx, work_rx) = mpsc::channel::<WorkItem>();

        let batch_handle = {
            let config = config.clone();
            let stats = Arc::clone(&stats);
            thread::spawn(move || run_batcher(db, &config, &work_rx, &stats))
        };

        let accept_handle = {
            let shutdown = Arc::clone(&shutdown);
            let stats = Arc::clone(&stats);
            let conn_handles = Arc::clone(&conn_handles);
            let config = config.clone();
            // The accept loop owns the only long-lived work sender: when it
            // exits (shutdown) and every reader is done, the batcher sees
            // the channel disconnect and drains.
            thread::spawn(move || {
                run_accept_loop(
                    &listener,
                    &work_tx,
                    &shutdown,
                    &stats,
                    &conn_handles,
                    &config,
                )
            })
        };

        Ok(NetServer {
            local_addr,
            shutdown,
            stats,
            accept_handle: Some(accept_handle),
            batch_handle: Some(batch_handle),
            conn_handles,
        })
    }

    /// The address the listener is bound to.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Requests shutdown: stop accepting and stop reading new requests.
    /// Already-queued requests still get responses (graceful drain);
    /// [`NetServer::join`] waits for that to finish.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::Relaxed);
    }

    /// Shuts down, drains in-flight work, joins every thread, and returns
    /// the lifetime stats.
    pub fn join(mut self) -> ServerStats {
        self.drain();
        self.stats.snapshot()
    }

    /// The drain sequence shared by [`NetServer::join`] and `Drop`:
    /// accept loop first (stops new connections and drops the long-lived
    /// work sender), then readers/writers, then the batcher (which exits
    /// once every work sender is gone and the queue is dry).
    fn drain(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(handle) = self.accept_handle.take() {
            let _ = handle.join();
        }
        loop {
            let handle = match self.conn_handles.lock() {
                Ok(mut handles) => handles.pop(),
                Err(_) => None,
            };
            match handle {
                Some(handle) => {
                    let _ = handle.join();
                }
                None => break,
            }
        }
        if let Some(handle) = self.batch_handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.drain();
    }
}

fn run_accept_loop(
    listener: &TcpListener,
    work_tx: &mpsc::Sender<WorkItem>,
    shutdown: &Arc<AtomicBool>,
    stats: &Arc<SharedStats>,
    conn_handles: &Arc<Mutex<Vec<JoinHandle<()>>>>,
    config: &NetServerConfig,
) {
    while !shutdown.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                stats.connections.fetch_add(1, Ordering::Relaxed);
                let handles = spawn_connection(stream, work_tx.clone(), shutdown, stats, config);
                if let Ok(mut all) = conn_handles.lock() {
                    all.extend(handles);
                }
            }
            // Nothing pending (or a transient accept failure): poll the
            // shutdown flag again after a short sleep.
            Err(_) => thread::sleep(POLL_INTERVAL),
        }
    }
}

/// Spawns the reader and writer threads of one accepted connection.
fn spawn_connection(
    stream: TcpStream,
    work_tx: mpsc::Sender<WorkItem>,
    shutdown: &Arc<AtomicBool>,
    stats: &Arc<SharedStats>,
    config: &NetServerConfig,
) -> Vec<JoinHandle<JoinUnit>> {
    // One request line is small and one response line matters: disable
    // Nagle so a lone request is not held back by the kernel.
    let _ = stream.set_nodelay(true);
    // The listener is non-blocking and accepted sockets inherit that on
    // some platforms; readers want blocking reads with a timeout.
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));

    let (reply_tx, reply_rx) = mpsc::channel::<String>();
    let inflight = Arc::new(Inflight::new(config.max_inflight));
    let mut handles = Vec::with_capacity(2);

    let write_stream = stream.try_clone();
    {
        let shutdown = Arc::clone(shutdown);
        let stats = Arc::clone(stats);
        let inflight = Arc::clone(&inflight);
        handles.push(thread::spawn(move || {
            run_reader(stream, &work_tx, &reply_tx, &inflight, &shutdown, &stats);
        }));
    }
    if let Ok(write_stream) = write_stream {
        let inflight = Arc::clone(&inflight);
        handles.push(thread::spawn(move || {
            run_writer(write_stream, &reply_rx, &inflight);
        }));
    }
    handles
}

type JoinUnit = ();

/// Reads lines, parses them, and enqueues work under the in-flight
/// budget. Exits on EOF, socket error, shutdown, or a dead batcher.
fn run_reader(
    stream: TcpStream,
    work_tx: &mpsc::Sender<WorkItem>,
    reply_tx: &mpsc::Sender<String>,
    inflight: &Inflight,
    shutdown: &AtomicBool,
    stats: &SharedStats,
) {
    let mut reader = BufReader::new(stream);
    let mut buf: Vec<u8> = Vec::new();
    // When a line overruns the protocol limit its bytes are discarded as
    // they stream in; the typed error goes out once the newline arrives.
    let mut overflow: usize = 0;

    'conn: loop {
        if shutdown.load(Ordering::Relaxed) {
            break;
        }
        match reader.read_until(b'\n', &mut buf) {
            Ok(0) => break, // EOF
            Ok(_) => {}
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                // Timeout mid-line: whatever arrived is already appended
                // to `buf`; just poll the shutdown flag and keep reading.
                if overflow == 0 && buf.len() > crate::protocol::MAX_LINE_BYTES {
                    overflow = buf.len();
                    buf.clear();
                }
                continue;
            }
            Err(_) => break,
        }
        let complete = buf.last() == Some(&b'\n');
        if complete {
            buf.pop();
        }
        if overflow > 0 || buf.len() > crate::protocol::MAX_LINE_BYTES {
            if complete {
                let got = overflow + buf.len();
                buf.clear();
                overflow = 0;
                stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                let line = ProtocolError::LineTooLong { got }.to_line();
                if !enqueue(work_tx, reply_tx, inflight, shutdown, Job::Ready(line)) {
                    break 'conn;
                }
            } else {
                // Still mid-overrun: drop the bytes, remember the count.
                overflow += buf.len();
                buf.clear();
            }
            continue;
        }
        if !complete {
            // EOF lands mid-line next iteration; parse what we have so a
            // final unterminated request still gets its response.
            continue;
        }
        let job = match parse_line(&buf) {
            Ok(Command::Ping) => Some(Job::Ready(String::from("ok pong"))),
            Ok(Command::Rank(request)) => Some(Job::Serve(request)),
            Err(ProtocolError::EmptyLine) => None,
            Err(error) => {
                stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                Some(Job::Ready(error.to_line()))
            }
        };
        buf.clear();
        if let Some(job) = job {
            if !enqueue(work_tx, reply_tx, inflight, shutdown, job) {
                break 'conn;
            }
        }
    }
    // A trailing unterminated line at EOF is still a request.
    if !buf.is_empty() && !shutdown.load(Ordering::Relaxed) {
        let job = match parse_line(&buf) {
            Ok(Command::Ping) => Some(Job::Ready(String::from("ok pong"))),
            Ok(Command::Rank(request)) => Some(Job::Serve(request)),
            Err(ProtocolError::EmptyLine) => None,
            Err(error) => {
                stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                Some(Job::Ready(error.to_line()))
            }
        };
        if let Some(job) = job {
            let _ = enqueue(work_tx, reply_tx, inflight, shutdown, job);
        }
    }
}

/// Acquires an in-flight permit and hands the job to the batcher. Returns
/// `false` when the connection should stop reading (shutdown, or the
/// batcher is gone).
fn enqueue(
    work_tx: &mpsc::Sender<WorkItem>,
    reply_tx: &mpsc::Sender<String>,
    inflight: &Inflight,
    shutdown: &AtomicBool,
    job: Job,
) -> bool {
    if !inflight.acquire(shutdown) {
        return false;
    }
    let item = WorkItem {
        job,
        reply: reply_tx.clone(),
    };
    if work_tx.send(item).is_err() {
        inflight.release();
        return false;
    }
    true
}

/// Writes response lines back to the client, releasing one in-flight
/// permit per line. Keeps draining (without writing) after a socket
/// error so permits are never leaked.
fn run_writer(stream: TcpStream, reply_rx: &mpsc::Receiver<String>, inflight: &Inflight) {
    let mut out = io::BufWriter::new(stream);
    let mut sink_only = false;
    for line in reply_rx.iter() {
        if !sink_only {
            let ok = out
                .write_all(line.as_bytes())
                .and_then(|()| out.write_all(b"\n"))
                .and_then(|()| out.flush())
                .is_ok();
            if !ok {
                sink_only = true;
            }
        }
        inflight.release();
    }
}

/// The single batching thread: owns the [`ResultCache`], coalesces work
/// items into windows, runs one pool pass per window, and dispatches the
/// response lines in arrival order.
fn run_batcher(
    db: Arc<dyn DatabaseView + Send + Sync>,
    config: &NetServerConfig,
    work_rx: &mpsc::Receiver<WorkItem>,
    stats: &SharedStats,
) {
    let mut cache = ResultCache::new(config.cache_capacity);
    let max_batch = config.max_batch.max(1);
    loop {
        // Block for the window-opening item. Disconnect means every
        // sender (accept loop + readers) is gone and the queue is dry:
        // the drain is complete.
        let first = match work_rx.recv() {
            Ok(item) => item,
            Err(_) => return,
        };
        let mut items = vec![first];
        let deadline = Instant::now() + config.window;
        while items.len() < max_batch {
            let now = Instant::now();
            let Some(left) = deadline
                .checked_duration_since(now)
                .filter(|d| !d.is_zero())
            else {
                break;
            };
            match work_rx.recv_timeout(left) {
                Ok(item) => items.push(item),
                Err(RecvTimeoutError::Timeout) => break,
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }

        let mut positions = Vec::new();
        let mut requests: Vec<RankRequest> = Vec::new();
        for (i, item) in items.iter().enumerate() {
            if let Job::Serve(request) = &item.job {
                positions.push(i);
                requests.push((**request).clone());
            }
        }
        let mut rendered: Vec<Option<String>> = (0..items.len()).map(|_| None).collect();
        if !requests.is_empty() {
            // A panic in the serving pass (the pool re-raises a worker's
            // panic here) costs this window its answers, not the server:
            // a dead batcher would leave every connection waiting forever.
            let batch = panic::catch_unwind(AssertUnwindSafe(|| {
                serve_batch_cached(&*db, &requests, &config.serve, &mut cache)
            }))
            .unwrap_or_else(|_| {
                // The unwind may have left the cache mid-update; start
                // over with an empty one rather than serve from it.
                cache = ResultCache::new(config.cache_capacity);
                let panicked = ServeError::Invariant {
                    what: "serve pass panicked",
                };
                CachedBatch {
                    responses: vec![Err(panicked); requests.len()],
                    hits: 0,
                    misses: 0,
                    invalidations: 0,
                }
            });
            stats.batches.fetch_add(1, Ordering::Relaxed);
            stats
                .requests
                .fetch_add(requests.len() as u64, Ordering::Relaxed);
            stats.hits.fetch_add(batch.hits, Ordering::Relaxed);
            stats.misses.fetch_add(batch.misses, Ordering::Relaxed);
            stats
                .invalidations
                .fetch_add(batch.invalidations, Ordering::Relaxed);
            stats
                .max_batch_len
                .fetch_max(requests.len() as u64, Ordering::Relaxed);
            let mut approx_requests = 0;
            let mut short_circuited = 0;
            for response in batch.responses.iter().flatten() {
                if let Some(report) = &response.approx {
                    approx_requests += 1;
                    short_circuited += report.short_circuited as u64;
                }
            }
            stats
                .approx_requests
                .fetch_add(approx_requests, Ordering::Relaxed);
            stats
                .machines_short_circuited
                .fetch_add(short_circuited, Ordering::Relaxed);
            for (&slot, result) in positions.iter().zip(batch.responses.iter()) {
                rendered[slot] = Some(render_result(result));
            }
        }
        for (i, item) in items.into_iter().enumerate() {
            let line = match item.job {
                Job::Ready(line) => line,
                // `rendered[i]` is always filled for Serve jobs; the
                // fallback keeps an impossible gap from panicking the
                // batcher (mirrors the serve-path invariant hardening).
                Job::Serve(_) => rendered[i].take().unwrap_or_else(|| {
                    write_serve_error(&ServeError::Invariant {
                        what: "batch slot missing rendered response",
                    })
                }),
            };
            let _ = item.reply.send(line);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::write_request;
    use datatrans_core::serve::{serve_batch, serve_one, AppOfInterest, ModelKind, RankResponse};
    use datatrans_dataset::generator::{generate, DatasetConfig};
    use datatrans_dataset::query::MachineFilter;
    use std::io::BufRead;

    fn test_db() -> Arc<dyn DatabaseView + Send + Sync> {
        Arc::new(generate(&DatasetConfig::default()).unwrap())
    }

    fn sample_request(seed: u64) -> RankRequest {
        RankRequest {
            app: AppOfInterest::Suite((seed as usize) % 5),
            model: ModelKind::NnT,
            predictive: vec![0, 30, 60],
            restrict: MachineFilter::all(),
            top_k: Some(5),
            seed,
            confidence: None,
            approx: None,
        }
    }

    fn connect(server: &NetServer) -> (std::io::BufReader<TcpStream>, TcpStream) {
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        let reader = std::io::BufReader::new(stream.try_clone().unwrap());
        (reader, stream)
    }

    fn request_line(
        reader: &mut std::io::BufReader<TcpStream>,
        stream: &mut TcpStream,
        line: &str,
    ) -> String {
        stream.write_all(line.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        let mut response = String::new();
        reader.read_line(&mut response).unwrap();
        response.trim_end().to_owned()
    }

    #[test]
    fn ping_round_trip_and_stats() {
        let server = NetServer::spawn(test_db(), "127.0.0.1:0", NetServerConfig::quick()).unwrap();
        let (mut reader, mut stream) = connect(&server);
        assert_eq!(request_line(&mut reader, &mut stream, "ping"), "ok pong");
        assert_eq!(request_line(&mut reader, &mut stream, "ping"), "ok pong");
        drop((reader, stream));
        let stats = server.join();
        assert_eq!(stats.connections, 1);
        assert_eq!(stats.requests, 0);
        assert_eq!(stats.protocol_errors, 0);
    }

    #[test]
    fn served_response_matches_in_process_bytes() {
        let db = test_db();
        let config = NetServerConfig::quick();
        let request = sample_request(7);
        let expected = render_result(
            &serve_batch(&*db, std::slice::from_ref(&request), &config.serve)
                .pop()
                .unwrap(),
        );
        let server = NetServer::spawn(db, "127.0.0.1:0", config).unwrap();
        let (mut reader, mut stream) = connect(&server);
        let line = write_request(&request);
        let got = request_line(&mut reader, &mut stream, &line);
        assert_eq!(got, expected);
        // Same request again: a cache hit must be byte-identical too.
        let again = request_line(&mut reader, &mut stream, &line);
        assert_eq!(again, expected);
        drop((reader, stream));
        let stats = server.join();
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn garbage_line_gets_error_and_connection_survives() {
        let server = NetServer::spawn(test_db(), "127.0.0.1:0", NetServerConfig::quick()).unwrap();
        let (mut reader, mut stream) = connect(&server);
        let err = request_line(
            &mut reader,
            &mut stream,
            "rank model=bogus app=suite:0 predictive=0",
        );
        assert!(err.starts_with("err bad-value "), "got: {err}");
        // The same connection still serves valid work afterwards.
        assert_eq!(request_line(&mut reader, &mut stream, "ping"), "ok pong");
        drop((reader, stream));
        let stats = server.join();
        assert_eq!(stats.protocol_errors, 1);
    }

    #[test]
    fn pipelined_requests_come_back_in_order_under_tiny_inflight_budget() {
        let db = test_db();
        let mut config = NetServerConfig::quick();
        config.max_inflight = 2; // force the reader to stall on the budget
        config.max_batch = 4;
        let requests: Vec<RankRequest> = (0..10).map(sample_request).collect();
        let expected: Vec<String> = serve_batch(&*db, &requests, &config.serve)
            .iter()
            .map(render_result)
            .collect();
        let server = NetServer::spawn(db, "127.0.0.1:0", config).unwrap();
        let (mut reader, stream) = connect(&server);
        let mut stream = stream;
        // Fire everything without reading a single response.
        for request in &requests {
            stream.write_all(write_request(request).as_bytes()).unwrap();
            stream.write_all(b"\n").unwrap();
        }
        for want in &expected {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert_eq!(line.trim_end(), want);
        }
        drop((reader, stream));
        let stats = server.join();
        assert_eq!(stats.requests, 10);
        assert_eq!(stats.hits + stats.misses, 10);
    }

    #[test]
    fn shutdown_drains_pending_responses_before_closing() {
        let db = test_db();
        let config = NetServerConfig::quick();
        let requests: Vec<RankRequest> = (0..4).map(sample_request).collect();
        let expected: Vec<String> = serve_batch(&*db, &requests, &config.serve)
            .iter()
            .map(render_result)
            .collect();
        let server = NetServer::spawn(db, "127.0.0.1:0", config).unwrap();
        let (mut reader, mut stream) = connect(&server);
        for request in &requests {
            stream.write_all(write_request(request).as_bytes()).unwrap();
            stream.write_all(b"\n").unwrap();
        }
        // Ask for shutdown while the batch is (likely) still in flight;
        // every already-submitted request must still get its response.
        server.shutdown();
        let mut got = Vec::new();
        for _ in &expected {
            let mut line = String::new();
            if reader.read_line(&mut line).unwrap_or(0) == 0 {
                break;
            }
            got.push(line.trim_end().to_owned());
        }
        // Responses that did make it out are correct and in order.
        assert_eq!(got, expected[..got.len()].to_vec());
        drop((reader, stream));
        server.join();
    }

    #[test]
    fn window_coalesces_concurrent_connections_into_one_pass() {
        let db = test_db();
        let mut config = NetServerConfig::quick();
        config.window = Duration::from_millis(100); // generous window
        let serve_config = config.serve.clone();
        let server = NetServer::spawn(Arc::clone(&db), "127.0.0.1:0", config).unwrap();
        let addr = server.local_addr();
        let n = 4;
        let mut clients = Vec::new();
        for seed in 0..n {
            let db = Arc::clone(&db);
            let serve_config = serve_config.clone();
            clients.push(thread::spawn(move || {
                let request = sample_request(seed);
                let mut stream = TcpStream::connect(addr).unwrap();
                let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
                let line = write_request(&request);
                stream.write_all(line.as_bytes()).unwrap();
                stream.write_all(b"\n").unwrap();
                let mut response = String::new();
                reader.read_line(&mut response).unwrap();
                // Coalescing several connections into one pass must not
                // move any connection's bytes off its own request's answer.
                let expected = render_result(&serve_one(&*db, &request, &serve_config));
                assert_eq!(response.trim_end(), expected, "client {seed}");
            }));
        }
        for client in clients {
            client.join().unwrap();
        }
        let stats = server.join();
        assert_eq!(stats.requests, n);
        // The window is long relative to loopback latency, so at least
        // one pass must have coalesced more than one request.
        assert!(
            stats.batches < n || stats.max_batch_len > 1,
            "no coalescing: {stats:?}"
        );
    }

    #[test]
    fn oversized_line_is_rejected_but_connection_survives() {
        let server = NetServer::spawn(test_db(), "127.0.0.1:0", NetServerConfig::quick()).unwrap();
        let (mut reader, mut stream) = connect(&server);
        let huge = "x".repeat(crate::protocol::MAX_LINE_BYTES + 10);
        let err = request_line(&mut reader, &mut stream, &huge);
        assert!(err.starts_with("err line-too-long "), "got: {err}");
        assert_eq!(request_line(&mut reader, &mut stream, "ping"), "ok pong");
        drop((reader, stream));
        server.join();
    }

    #[test]
    fn serve_errors_travel_the_wire_as_typed_lines() {
        let server = NetServer::spawn(test_db(), "127.0.0.1:0", NetServerConfig::quick()).unwrap();
        let (mut reader, mut stream) = connect(&server);
        let mut bad = sample_request(0);
        bad.top_k = Some(0);
        let err = request_line(&mut reader, &mut stream, &write_request(&bad));
        assert!(err.starts_with("err zero-top-k "), "got: {err}");
        let mut bad = sample_request(0);
        bad.predictive = vec![10_000];
        let err = request_line(&mut reader, &mut stream, &write_request(&bad));
        assert!(
            err.starts_with("err predictive-out-of-range "),
            "got: {err}"
        );
        drop((reader, stream));
        server.join();
    }

    #[test]
    fn response_lines_parse_as_ok_payloads() {
        // Belt-and-braces: the ok line exposes the same ranking as the
        // in-process response object.
        let db = test_db();
        let config = NetServerConfig::quick();
        let request = sample_request(3);
        let response: RankResponse =
            serve_batch(&*db, std::slice::from_ref(&request), &config.serve)
                .pop()
                .unwrap()
                .unwrap();
        let line = render_result(&Ok(response.clone()));
        assert!(line.contains(&format!("candidates={}", response.candidates)));
        let ranked_field = line
            .split(" ranked=")
            .nth(1)
            .and_then(|rest| rest.split(' ').next())
            .unwrap();
        assert_eq!(ranked_field.split(',').count(), response.ranked.len());
    }
}
