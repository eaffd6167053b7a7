//! The sampler daemon: blocking sockets, one thread per connection,
//! every connection sampling on one shared [`WorkerPool`].
//!
//! Each listener (TCP, unix) has one accept thread. Each accepted
//! connection gets one reader thread that decodes its frames and answers
//! the connection-level ones (hello, cancel, health, shutdown). Every
//! `Request` frame gets its own thread, which resolves the formula and
//! streams `ResponseHandle` outcomes straight to the socket, each frame
//! whole under the connection's write lock ([`crate::conn`]). The
//! socket's send buffer is the per-connection backpressure bound: a slow
//! client stalls only its own writers.
//!
//! The daemon spawns one `--jobs`-sized worker pool, and every formula
//! samples on it. Prepared formula+spec pairs live in a fingerprint-keyed
//! registry of prototypes, so repeat requests (and concurrent clients
//! sampling the same formula) share a single preparation. The registry is
//! an LRU cache of [`ServeConfig::max_formulas`] entries: a new formula at
//! capacity evicts the least recently used prepared (or failed) one.
//! Entries still preparing and preloaded residents are never evicted, and
//! an in-flight request holds its entry, so eviction never cuts a stream.
//!
//! Shutdown: [`ServerHandle::shutdown`] from the embedding process, or a
//! wire `Shutdown` frame when the daemon was started with
//! `allow_shutdown` (the CLI's `--allow-shutdown`). Either sets the stop
//! flag, shuts every open connection (which unblocks its reader and fails
//! its stalled writes) and wakes each accept thread by connecting to its
//! listener; the accept threads then join their connection threads, which
//! join their request threads.

use std::collections::HashMap;
use std::fmt;
use std::io::{self, Read};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use conc::atomic::{AtomicBool, AtomicU64, Ordering};
use conc::sync::{Condvar, Mutex, MutexGuard};
use conc::thread::JoinHandle;
use unigen::{
    SampleRequest, SamplerError, SamplerService, ServiceConfig, UniGen, UniGenConfig, UniWit,
    UniWitConfig, UniformSampler, WitnessSampler, WorkerPool, XorSamplePrime, XorSamplePrimeConfig,
};
use unigen_cnf::dimacs;
use unigen_cnf::Var;

use crate::conn::{run_request, send_error, send_frame, ConnRequests, RequestJob, Socket};
use crate::wire::{
    self, Decoder, ErrorCode, Family, FormulaRef, Frame, WireHealth, WireSpec, PROTOCOL_VERSION,
};

/// `QueueFull` retries before a request is rejected as `Busy`.
const SUBMIT_RETRY_BUDGET: usize = 64;

/// Pause after a failed `accept` (e.g. out of descriptors) before the
/// accept thread tries again, so a persistent error cannot spin it.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(100);

/// Largest `count` one wire request may ask for; a larger one is rejected
/// as `Malformed` before the pool is touched. An admitted request
/// allocates all its outcome slots up front and holds a queue slot until
/// its last item completes: the cap bounds both for every other formula.
pub const MAX_REQUEST_COUNT: u64 = 1 << 16;

fn lock_ok<'a, T>(mutex: &'a Mutex<T>) -> MutexGuard<'a, T> {
    match mutex.lock() {
        Ok(guard) => guard,
        Err(_) => panic!("server mutex poisoned"),
    }
}

/// Serving-layer error.
#[derive(Debug)]
pub enum NetError {
    /// An OS-level socket or polling failure.
    Io(io::Error),
    /// The configuration is unusable (e.g. no listen address).
    Config(&'static str),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io(err) => write!(f, "socket error: {err}"),
            NetError::Config(msg) => write!(f, "config error: {msg}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<io::Error> for NetError {
    fn from(err: io::Error) -> NetError {
        NetError::Io(err)
    }
}

/// Daemon configuration for [`serve`].
#[derive(Clone)]
pub struct ServeConfig {
    /// TCP listen address (e.g. `127.0.0.1:4171`); `None` to skip TCP.
    pub tcp: Option<String>,
    /// Unix-domain socket path; `None` to skip.
    pub unix: Option<PathBuf>,
    /// Worker threads of the daemon's one pool, shared by every
    /// formula; 0 uses the [`ServiceConfig`] default.
    pub workers: usize,
    /// LRU capacity of the registry, in formula+spec entries: a new
    /// formula at capacity evicts the least recently used one that is
    /// neither preloaded nor still preparing.
    pub max_formulas: usize,
    /// Honor wire `Shutdown` frames (the CLI's `--allow-shutdown`).
    pub allow_shutdown: bool,
    /// DIMACS texts to prepare (with the default UniGen spec) before
    /// accepting connections; their fingerprints are logged, and they are
    /// pinned in the registry (never evicted).
    pub preload: Vec<String>,
    /// Suppress the serve log lines on stderr.
    pub quiet: bool,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            tcp: None,
            unix: None,
            workers: 0,
            max_formulas: 64,
            allow_shutdown: false,
            preload: Vec::new(),
            quiet: false,
        }
    }
}

/// The default wire spec used for preloaded formulas (UniGen, family
/// defaults, default prepare seed).
pub fn default_spec() -> WireSpec {
    WireSpec {
        family: Family::UniGen,
        epsilon_bits: None,
        prepare_seed: UniGenConfig::default().seed,
    }
}

// ---------------------------------------------------------------------------
// Formula registry
// ---------------------------------------------------------------------------

/// A fully prepared formula+spec: its prototype served on the daemon's
/// pool, plus everything a response stream needs to echo.
pub struct PreparedEntry {
    /// The prepared sampler's handle on the daemon's shared pool.
    pub service: SamplerService,
    /// Canonical projected sampling set.
    pub sampling_set: Vec<Var>,
    /// Content fingerprint (see [`wire::fingerprint`]).
    pub fingerprint: u64,
}

/// A typed rejection, as it goes out in an `Error` frame.
type Rejection = (ErrorCode, String);

enum EntryState {
    Preparing,
    Ready(Arc<PreparedEntry>),
    Failed(ErrorCode, String),
}

struct Slot {
    state: EntryState,
    /// Registry clock at the slot's latest resolve; the smallest is the
    /// least recently used.
    last_used: u64,
    /// Preloaded residents are reached by fingerprint and never evicted.
    pinned: bool,
}

#[derive(Default)]
struct Slots {
    map: HashMap<u64, Slot>,
    /// Bumped once per resolve: recency without a wall clock.
    clock: u64,
}

impl Slots {
    /// Evicts the least recently used entry that is neither pinned nor
    /// preparing; `false` when there is none.
    fn evict_lru(&mut self) -> bool {
        let victim = self
            .map
            .iter()
            .filter(|(_, slot)| !slot.pinned && !matches!(slot.state, EntryState::Preparing))
            .min_by_key(|(_, slot)| slot.last_used)
            .map(|(&fingerprint, _)| fingerprint);
        victim.is_some_and(|fingerprint| self.map.remove(&fingerprint).is_some())
    }
}

struct Registry {
    max: usize,
    slots: Mutex<Slots>,
    ready: Condvar,
}

impl Registry {
    fn new(max: usize) -> Registry {
        Registry {
            max: max.max(1),
            slots: Mutex::new(Slots::default()),
            ready: Condvar::new(),
        }
    }

    /// Resolves `fingerprint`, waiting out an in-flight prepare. An absent
    /// entry is prepared once by `prepare` and cached (pinned if `pin`),
    /// evicting the LRU entry at capacity; without `prepare` it is
    /// `UnknownFingerprint`. A panicking `prepare` caches `PrepareFailed`
    /// and wakes the waiters like any other failure.
    fn resolve(
        &self,
        fingerprint: u64,
        prepare: Option<&dyn Fn() -> Result<Arc<PreparedEntry>, Rejection>>,
        pin: bool,
    ) -> Result<Arc<PreparedEntry>, Rejection> {
        let mut slots = lock_ok(&self.slots);
        slots.clock += 1;
        let now = slots.clock;
        while let Some(slot) = slots.map.get_mut(&fingerprint) {
            slot.last_used = now;
            slot.pinned |= pin;
            match &slot.state {
                EntryState::Ready(entry) => return Ok(Arc::clone(entry)),
                EntryState::Failed(code, detail) => return Err((*code, detail.clone())),
                EntryState::Preparing => {
                    slots = match self.ready.wait(slots) {
                        Ok(guard) => guard,
                        Err(_) => panic!("server mutex poisoned"),
                    };
                }
            }
        }
        let Some(prepare) = prepare else {
            return Err((
                ErrorCode::UnknownFingerprint,
                format!("fingerprint {fingerprint:016x} is not registered"),
            ));
        };
        if slots.map.len() >= self.max && !slots.evict_lru() {
            return Err((
                ErrorCode::RegistryFull,
                format!(
                    "all {} registry slots hold preloaded or preparing formulas",
                    self.max
                ),
            ));
        }
        let slot = Slot {
            state: EntryState::Preparing,
            last_used: now,
            pinned: pin,
        };
        slots.map.insert(fingerprint, slot);
        drop(slots);
        let built = std::panic::catch_unwind(std::panic::AssertUnwindSafe(prepare))
            .unwrap_or_else(|_| Err((ErrorCode::PrepareFailed, "preparation panicked".to_owned())));
        // A preparing entry is never evicted, so the slot is still there.
        if let Some(slot) = lock_ok(&self.slots).map.get_mut(&fingerprint) {
            slot.state = match &built {
                Ok(entry) => EntryState::Ready(Arc::clone(entry)),
                Err((code, detail)) => EntryState::Failed(*code, detail.clone()),
            };
        }
        self.ready.notify_all();
        built
    }
}

fn build_entry(
    formula: &unigen_cnf::CnfFormula,
    spec: &WireSpec,
    fingerprint: u64,
    pool: &WorkerPool,
) -> Result<Arc<PreparedEntry>, Rejection> {
    let sampling_set = formula.sampling_set_or_all();
    let epsilon = spec.epsilon_bits.map(f64::from_bits);
    let service = match spec.family {
        Family::UniGen => {
            let mut config = UniGenConfig::default().with_seed(spec.prepare_seed);
            if let Some(epsilon) = epsilon {
                config = config.with_epsilon(epsilon);
            }
            serve_prepared(UniGen::new(formula, config), pool)
        }
        family if epsilon.is_some() => Err((
            ErrorCode::Unsupported,
            format!("option `epsilon` is not supported by the {family:?} family"),
        )),
        Family::UniWit => serve_prepared(UniWit::new(formula, UniWitConfig::default()), pool),
        Family::XorSamplePrime => serve_prepared(
            XorSamplePrime::new(formula, XorSamplePrimeConfig::default()),
            pool,
        ),
        Family::Uniform => {
            serve_prepared(UniformSampler::with_witnesses(formula, &sampling_set), pool)
        }
    }?;
    Ok(Arc::new(PreparedEntry {
        service,
        sampling_set,
        fingerprint,
    }))
}

/// Serves a freshly prepared sampler on the daemon's pool, mapping a
/// preparation error to its wire code.
fn serve_prepared<S>(
    prepared: Result<S, SamplerError>,
    pool: &WorkerPool,
) -> Result<SamplerService, Rejection>
where
    S: WitnessSampler + Clone + Send + Sync + 'static,
{
    let sampler = prepared.map_err(|err| {
        let code = match err {
            SamplerError::Unsatisfiable => ErrorCode::Unsat,
            _ => ErrorCode::PrepareFailed,
        };
        (code, format!("preparation failed: {err}"))
    })?;
    Ok(pool.serve(sampler))
}

// ---------------------------------------------------------------------------
// Listeners and connections
// ---------------------------------------------------------------------------

enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener),
}

impl Listener {
    /// Blocks for the next connection; returns it with its peer label.
    fn accept(&self) -> io::Result<(Socket, String)> {
        match self {
            Listener::Tcp(listener) => listener
                .accept()
                .map(|(stream, addr)| (Socket::tcp(stream), format!("tcp {addr}"))),
            Listener::Unix(listener) => listener
                .accept()
                .map(|(stream, _)| (Socket::unix(stream), "unix".to_owned())),
        }
    }
}

/// Where a client reaches a bound listener.
enum Endpoint {
    Tcp(SocketAddr),
    Unix(PathBuf),
}

impl Endpoint {
    /// Connects and hangs up at once, so an accept thread blocked on this
    /// listener returns and sees the stop flag.
    fn wake(&self) -> io::Result<()> {
        match self {
            Endpoint::Tcp(addr) => TcpStream::connect(addr).map(drop),
            Endpoint::Unix(path) => UnixStream::connect(path).map(drop),
        }
    }
}

/// The open connections: the health frame counts them, and the shutdown
/// sweep closes them.
#[derive(Default)]
struct Conns {
    open: HashMap<u64, Socket>,
    next_token: u64,
}

struct Shared {
    registry: Registry,
    pool: WorkerPool,
    stop: AtomicBool,
    allow_shutdown: bool,
    quiet: bool,
    conns: Mutex<Conns>,
    /// One per listener, for [`Shared::shut_down`] to wake its accept
    /// thread.
    endpoints: Vec<Endpoint>,
}

impl Shared {
    /// Writes a serve log line; `line` runs only when logging is on.
    fn log(&self, line: impl FnOnce() -> String) {
        if !self.quiet {
            eprintln!("c serve: {}", line());
        }
    }

    /// Resolves an inline DIMACS request, preparing (and caching) the
    /// sampler on the daemon's pool on first sight. Concurrent requests
    /// for the same fingerprint wait for the single in-flight prepare.
    fn resolve_inline(
        &self,
        dimacs_bytes: &[u8],
        spec: &WireSpec,
        pin: bool,
    ) -> Result<Arc<PreparedEntry>, Rejection> {
        let text = std::str::from_utf8(dimacs_bytes)
            .map_err(|_| (ErrorCode::PrepareFailed, "DIMACS is not UTF-8".to_owned()))?;
        let formula = dimacs::parse(text)
            .map_err(|err| (ErrorCode::PrepareFailed, format!("DIMACS parse: {err}")))?;
        let canonical = dimacs::to_dimacs_string(&formula);
        let fingerprint = wire::fingerprint(canonical.as_bytes(), spec);
        let prepare = || build_entry(&formula, spec, fingerprint, &self.pool);
        self.registry.resolve(fingerprint, Some(&prepare), pin)
    }

    /// The daemon's health: its one pool's counters, the number of
    /// formulas in the registry and the number of open connections.
    fn health(&self) -> WireHealth {
        let pool = self.pool.health();
        WireHealth {
            services: lock_ok(&self.registry.slots).map.len() as u64,
            configured_workers: pool.configured_workers as u64,
            alive_workers: pool.configured_workers as u64,
            worker_panics: pool.worker_panics,
            respawns: pool.respawns,
            item_retries: pool.item_retries,
            faults_injected: pool.faults_injected,
            pending_requests: pool.pending_requests as u64,
            queued_items: pool.queued_items as u64,
            connections: lock_ok(&self.conns).open.len() as u64,
        }
    }

    /// Registers an accepted connection and returns its token, or `None`
    /// once the daemon is stopping. The stop flag is read under the same
    /// lock [`Shared::shut_down`] sets it under, so no connection slips
    /// past the shutdown sweep.
    fn open(&self, socket: &Socket) -> Option<u64> {
        let mut conns = lock_ok(&self.conns);
        if self.stop.load(Ordering::Acquire) {
            return None;
        }
        conns.next_token += 1;
        let token = conns.next_token;
        conns.open.insert(token, socket.clone());
        Some(token)
    }

    fn close(&self, token: u64) {
        lock_ok(&self.conns).open.remove(&token);
    }

    /// Stops the daemon: sets the stop flag, shuts every open connection
    /// (unblocking its reader and failing its stalled writes) and wakes
    /// every accept thread. Only the first call does anything.
    fn shut_down(&self) {
        {
            let conns = lock_ok(&self.conns);
            if self.stop.swap(true, Ordering::AcqRel) {
                return;
            }
            for socket in conns.open.values() {
                socket.shutdown();
            }
        }
        for endpoint in &self.endpoints {
            if let Err(err) = endpoint.wake() {
                self.log(|| format!("waking an accept thread failed: {err}"));
            }
        }
    }
}

/// Handle to a running daemon (returned by [`serve`]).
pub struct ServerHandle {
    shared: Arc<Shared>,
    accept_threads: Vec<JoinHandle<()>>,
    tcp_addr: Option<SocketAddr>,
    unix_path: Option<PathBuf>,
}

impl ServerHandle {
    /// Bound TCP address, if TCP was enabled (useful with port 0).
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    /// Bound unix-socket path, if enabled.
    pub fn unix_path(&self) -> Option<&PathBuf> {
        self.unix_path.as_ref()
    }

    fn join(&mut self) {
        for thread in self.accept_threads.drain(..) {
            if thread.join().is_err() && !std::thread::panicking() {
                panic!("server accept thread panicked");
            }
        }
    }

    /// Stop the daemon, close every connection, and join its threads.
    pub fn shutdown(mut self) {
        self.shared.shut_down();
        self.join();
    }

    /// Block until the daemon exits on its own (a wire `Shutdown` frame
    /// under `allow_shutdown`).
    pub fn wait(mut self) {
        self.join();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if !self.accept_threads.is_empty() {
            self.shared.shut_down();
            self.join();
        }
        if let Some(path) = &self.unix_path {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Bind the configured listeners and start one accept thread per
/// listener.
pub fn serve(config: ServeConfig) -> Result<ServerHandle, NetError> {
    if config.tcp.is_none() && config.unix.is_none() {
        return Err(NetError::Config("serve needs --listen and/or --unix"));
    }

    let mut service_config = ServiceConfig::default();
    if config.workers > 0 {
        service_config = service_config.with_workers(config.workers);
    }

    let pool = WorkerPool::try_new(service_config)
        .map_err(|_| NetError::Config("worker pool configuration rejected"))?;
    let mut shared = Shared {
        registry: Registry::new(config.max_formulas),
        pool,
        stop: AtomicBool::new(false),
        allow_shutdown: config.allow_shutdown,
        quiet: config.quiet,
        conns: Mutex::new(Conns::default()),
        endpoints: Vec::new(),
    };

    for text in &config.preload {
        match shared.resolve_inline(text.as_bytes(), &default_spec(), true) {
            Ok(entry) => shared.log(|| {
                format!(
                    "preloaded formula fp={:016x} |S|={}",
                    entry.fingerprint,
                    entry.sampling_set.len()
                )
            }),
            Err((code, detail)) => {
                return Err(NetError::Io(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("preload failed ({}): {detail}", code.name()),
                )))
            }
        }
    }

    let mut listeners = Vec::new();
    let mut tcp_addr = None;
    if let Some(addr) = &config.tcp {
        let listener = TcpListener::bind(addr)?;
        let bound = listener.local_addr()?;
        // A listener on an unspecified address is woken over loopback.
        let mut wake = bound;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        shared.endpoints.push(Endpoint::Tcp(wake));
        listeners.push(Listener::Tcp(listener));
        tcp_addr = Some(bound);
    }
    if let Some(path) = &config.unix {
        listeners.push(Listener::Unix(UnixListener::bind(path)?));
        shared.endpoints.push(Endpoint::Unix(path.clone()));
    }

    if let Some(addr) = tcp_addr {
        shared.log(|| format!("listening on tcp {addr}"));
    }
    if let Some(path) = &config.unix {
        shared.log(|| format!("listening on unix {}", path.display()));
    }

    let shared = Arc::new(shared);
    let accept_threads = listeners
        .into_iter()
        .map(|listener| {
            let shared = Arc::clone(&shared);
            conc::thread::spawn(move || accept_loop(&shared, listener))
        })
        .collect();

    Ok(ServerHandle {
        shared,
        accept_threads,
        tcp_addr,
        unix_path: config.unix,
    })
}

/// One listener's accept thread: starts a reader thread per connection
/// until the daemon stops, then joins them.
fn accept_loop(shared: &Arc<Shared>, listener: Listener) {
    let mut conn_threads: Vec<JoinHandle<()>> = Vec::new();
    loop {
        let accepted = listener.accept();
        if shared.stop.load(Ordering::Acquire) {
            break;
        }
        match accepted {
            Ok((socket, peer)) => {
                conn_threads.retain(|thread| !thread.is_finished());
                let Some(token) = shared.open(&socket) else {
                    break;
                };
                let session = Session {
                    shared: Arc::clone(shared),
                    conn: Arc::new(Conn {
                        token,
                        writer: Mutex::new(socket.clone()),
                        requests: ConnRequests::new(),
                        submit_retries: AtomicU64::new(0),
                    }),
                    socket,
                    peer,
                    greeted: false,
                    request_threads: Vec::new(),
                };
                conn_threads.push(conc::thread::spawn(move || session.run()));
            }
            Err(err) if err.kind() == io::ErrorKind::Interrupted => {}
            Err(err) => {
                shared.log(|| format!("accept failed: {err}"));
                std::thread::sleep(ACCEPT_BACKOFF);
            }
        }
    }
    drop(listener);
    for thread in conn_threads {
        let _ = thread.join();
    }
}

/// One connection's state, shared by its reader thread and its request
/// threads.
struct Conn {
    token: u64,
    /// The write lock: every frame goes out whole under it.
    writer: Mutex<Socket>,
    requests: ConnRequests,
    submit_retries: AtomicU64,
}

/// A connection's reader thread: decodes frames, answers the
/// connection-level ones and starts one thread per request.
struct Session {
    shared: Arc<Shared>,
    conn: Arc<Conn>,
    socket: Socket,
    peer: String,
    greeted: bool,
    request_threads: Vec<JoinHandle<()>>,
}

/// Why a connection closes after a frame the protocol does not allow.
const PROTOCOL_ERROR: &str = "closed after protocol error";

impl Session {
    fn run(mut self) {
        let token = self.conn.token;
        self.shared
            .log(|| format!("conn {token} accepted ({})", self.peer));
        let mut reason = self.read_frames();
        if self.shared.stop.load(Ordering::Acquire) {
            reason = "daemon shutting down";
        }
        self.socket.shutdown();
        self.shared.close(token);
        self.conn.requests.cancel_all();
        self.shared.log(|| {
            format!(
                "conn {token} closed ({}): {reason}; submit_retries={} in_flight={}",
                self.peer,
                self.conn.submit_retries.load(Ordering::Relaxed),
                self.conn.requests.active(),
            )
        });
        for thread in self.request_threads {
            let _ = thread.join();
        }
    }

    /// Reads frames until the peer hangs up, a read fails or a frame
    /// closes the connection; returns why.
    fn read_frames(&mut self) -> &'static str {
        let mut decoder = Decoder::new();
        let mut scratch = [0u8; 16 * 1024];
        loop {
            match self.socket.read(&mut scratch) {
                Ok(0) => return "peer hangup",
                Ok(n) => decoder.feed(&scratch[..n]),
                Err(err) if err.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return "read error",
            }
            loop {
                match decoder.next_frame() {
                    Ok(Some(frame)) => {
                        if let Some(reason) = self.handle_frame(frame) {
                            return reason;
                        }
                    }
                    Ok(None) => break,
                    Err(err) => {
                        let token = self.conn.token;
                        self.shared
                            .log(|| format!("conn {token} protocol error: {err}"));
                        send_error(&self.conn.writer, 0, ErrorCode::Malformed, err.to_string());
                        return PROTOCOL_ERROR;
                    }
                }
            }
            self.request_threads.retain(|thread| !thread.is_finished());
        }
    }

    /// Answers one frame; `Some(reason)` closes the connection.
    fn handle_frame(&mut self, frame: Frame) -> Option<&'static str> {
        let writer = &self.conn.writer;
        if !self.greeted {
            return match frame {
                Frame::Hello { version } if version == PROTOCOL_VERSION => {
                    self.greeted = true;
                    let ack = Frame::HelloAck {
                        version: PROTOCOL_VERSION,
                    };
                    let _ = send_frame(writer, &ack.encode());
                    None
                }
                Frame::Hello { version } => {
                    let detail = format!(
                        "client speaks protocol {version}, server speaks {PROTOCOL_VERSION}"
                    );
                    send_error(writer, 0, ErrorCode::UnsupportedVersion, detail);
                    Some(PROTOCOL_ERROR)
                }
                _ => {
                    let detail = "expected Hello before any other frame";
                    send_error(writer, 0, ErrorCode::Malformed, detail);
                    Some(PROTOCOL_ERROR)
                }
            };
        }
        match frame {
            Frame::Hello { .. } => {
                send_error(writer, 0, ErrorCode::Malformed, "duplicate Hello");
                Some(PROTOCOL_ERROR)
            }
            Frame::Request {
                id,
                formula,
                spec,
                count,
                master_seed,
                budget_micros,
            } => {
                self.dispatch_request(id, formula, spec, count, master_seed, budget_micros);
                None
            }
            Frame::Cancel { id } => {
                self.conn.requests.cancel(id);
                None
            }
            Frame::HealthReq => {
                let _ = send_frame(writer, &Frame::Health(self.shared.health()).encode());
                None
            }
            Frame::Shutdown if self.shared.allow_shutdown => {
                let token = self.conn.token;
                self.shared
                    .log(|| format!("conn {token} requested shutdown"));
                self.shared.shut_down();
                Some("daemon shutting down")
            }
            Frame::Shutdown => {
                let detail = "daemon was not started with --allow-shutdown";
                send_error(writer, 0, ErrorCode::ShutdownDisabled, detail);
                None
            }
            // Server→client frames arriving from a client are protocol
            // errors.
            Frame::HelloAck { .. }
            | Frame::StreamBegin { .. }
            | Frame::Chunk { .. }
            | Frame::Done { .. }
            | Frame::Error { .. }
            | Frame::Health(_) => {
                let detail = "response-direction frame sent by client";
                send_error(writer, 0, ErrorCode::Malformed, detail);
                Some(PROTOCOL_ERROR)
            }
        }
    }

    fn dispatch_request(
        &mut self,
        id: u64,
        formula: FormulaRef,
        spec: WireSpec,
        count: u64,
        master_seed: u64,
        budget_micros: u64,
    ) {
        let Some(cancel) = self.conn.requests.begin(id) else {
            let detail = format!("request id {id} is already in flight");
            send_error(&self.conn.writer, id, ErrorCode::Malformed, detail);
            return;
        };
        let shared = Arc::clone(&self.shared);
        let conn = Arc::clone(&self.conn);
        let thread = conc::thread::spawn(move || {
            let token = conn.token;
            let resolved = match &formula {
                _ if count > MAX_REQUEST_COUNT => Err((
                    ErrorCode::Malformed,
                    format!("count {count} exceeds the per-request cap {MAX_REQUEST_COUNT}"),
                )),
                FormulaRef::Inline(bytes) => shared.resolve_inline(bytes, &spec, false),
                FormulaRef::Fingerprint(fp) => shared.registry.resolve(*fp, None, false),
            };
            match resolved {
                Err((code, detail)) => {
                    send_error(&conn.writer, id, code, detail.as_str());
                    conn.requests.finish(id);
                    shared.log(|| {
                        format!("conn {token} req {id}: rejected ({}) {detail}", code.name())
                    });
                }
                Ok(entry) => {
                    let mut request = SampleRequest::new(count as usize, master_seed);
                    if budget_micros > 0 {
                        request = request.with_budget(Duration::from_micros(budget_micros));
                    }
                    let job = RequestJob {
                        id,
                        request,
                        fingerprint: entry.fingerprint,
                        sampling_set: entry.sampling_set.clone(),
                    };
                    let end = run_request(
                        &entry.service,
                        job,
                        &conn.writer,
                        &cancel,
                        &conn.submit_retries,
                        SUBMIT_RETRY_BUDGET,
                    );
                    conn.requests.finish(id);
                    shared.log(|| {
                        let health = shared.pool.health();
                        format!(
                            "conn {token} req {id}: {end:?} fp={:016x} submit_retries={} \
                             pending_requests={} queued_items={}",
                            entry.fingerprint,
                            conn.submit_retries.load(Ordering::Relaxed),
                            health.pending_requests,
                            health.queued_items,
                        )
                    });
                }
            }
        });
        self.request_threads.push(thread);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use conc::atomic::AtomicUsize;
    use conc::model::{check, Config};

    fn unsat() -> Result<Arc<PreparedEntry>, Rejection> {
        Err((ErrorCode::Unsat, "unsat".to_owned()))
    }

    fn code(result: Result<Arc<PreparedEntry>, Rejection>) -> ErrorCode {
        match result {
            Ok(_) => panic!("no test prepare builds an entry"),
            Err((code, _)) => code,
        }
    }

    /// A prepare that panics becomes a cached typed `PrepareFailed`; it
    /// used to leave the fingerprint `Preparing` forever, blocking every
    /// later request for it.
    #[test]
    fn panicking_prepare_is_a_typed_failure() {
        let registry = Registry::new(4);
        let prepare = || -> Result<Arc<PreparedEntry>, Rejection> { panic!("prepare exploded") };
        let first = registry.resolve(7, Some(&prepare), false);
        assert_eq!(code(first), ErrorCode::PrepareFailed);
        // Later lookups, with or without a prepare, see the cached failure.
        assert_eq!(
            code(registry.resolve(7, None, false)),
            ErrorCode::PrepareFailed
        );
    }

    /// At capacity the least recently used unpinned entry is evicted, and
    /// `RegistryFull` is left only for a registry of pinned entries.
    #[test]
    fn lru_eviction_spares_pinned_entries() {
        let registry = Registry::new(2);
        assert_eq!(
            code(registry.resolve(1, Some(&unsat), true)),
            ErrorCode::Unsat
        );
        assert_eq!(
            code(registry.resolve(2, Some(&unsat), false)),
            ErrorCode::Unsat
        );
        // Touch 1, the pinned resident; 2 stays the eviction victim anyway.
        assert_eq!(code(registry.resolve(1, None, false)), ErrorCode::Unsat);
        assert_eq!(
            code(registry.resolve(3, Some(&unsat), false)),
            ErrorCode::Unsat
        );
        let unknown = code(registry.resolve(2, None, false));
        assert_eq!(unknown, ErrorCode::UnknownFingerprint, "2 was evicted");
        assert_eq!(code(registry.resolve(1, None, false)), ErrorCode::Unsat);
        // Pin 3 too: nothing is evictable any more.
        assert_eq!(
            code(registry.resolve(3, Some(&unsat), true)),
            ErrorCode::Unsat
        );
        let full = code(registry.resolve(4, Some(&unsat), false));
        assert_eq!(full, ErrorCode::RegistryFull);
    }

    /// Two resolvers of fingerprint 1 race a resolver of fingerprint 2
    /// whose insert must evict (the registry holds one pinned resident and
    /// one free slot). On every explored schedule: no waiter is left
    /// blocked (the checker reports lost wakeups and deadlocks), and a
    /// `Preparing` entry is never evicted — if it were, the second resolver
    /// of 1 would prepare it again while the first is still preparing.
    #[test]
    fn resolvers_racing_an_evicting_insert_never_evict_a_preparing_entry() {
        let cfg = Config::from_env();
        let report = check(cfg.clone(), || {
            let registry = Arc::new(Registry::new(2));
            assert_eq!(
                code(registry.resolve(9, Some(&unsat), true)),
                ErrorCode::Unsat
            );
            let preparing = Arc::new(AtomicUsize::new(0));
            let overlapped = Arc::new(AtomicBool::new(false));
            let resolver = |fingerprint: u64| {
                let registry = Arc::clone(&registry);
                let preparing = Arc::clone(&preparing);
                let overlapped = Arc::clone(&overlapped);
                conc::thread::spawn(move || {
                    let prepare = || {
                        if fingerprint == 1 && preparing.fetch_add(1, Ordering::SeqCst) > 0 {
                            overlapped.store(true, Ordering::SeqCst);
                        }
                        conc::thread::yield_now();
                        if fingerprint == 1 {
                            preparing.fetch_sub(1, Ordering::SeqCst);
                        }
                        unsat()
                    };
                    code(registry.resolve(fingerprint, Some(&prepare), false))
                })
            };
            let threads = [resolver(1), resolver(1), resolver(2)];
            for thread in threads {
                let code = thread.join().expect("resolver thread");
                assert!(
                    matches!(code, ErrorCode::Unsat | ErrorCode::RegistryFull),
                    "unexpected {code:?}"
                );
            }
            assert!(
                !overlapped.load(Ordering::SeqCst),
                "fingerprint 1 was prepared twice at once: its Preparing entry was evicted"
            );
        });
        assert!(report.failure.is_none(), "{report}");
        assert!(
            report.complete || report.distinct_schedules >= cfg.max_schedules.min(1000),
            "exploration stopped early: {report}"
        );
    }
}
