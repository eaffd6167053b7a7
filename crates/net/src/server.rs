//! The sampler daemon: a readiness loop multiplexing many client
//! connections onto one shared [`WorkerPool`].
//!
//! One event-loop thread owns every socket (listeners, a self-wake
//! pipe, and all client connections, nonblocking throughout) via the
//! [`crate::sys::Poller`] epoll shim. Requests are dispatched to
//! drainer threads that stream `ResponseHandle` outcomes into bounded
//! per-connection [`Outbound`] buffers; the loop drains those buffers
//! round-robin across connections so one firehose client cannot starve
//! the rest.
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
//! Shutdown: [`ServerHandle::shutdown`] (flag + wake-pipe nudge) from
//! the embedding process, or a wire `Shutdown` frame when the daemon
//! was started with `allow_shutdown` (the CLI's `--allow-shutdown`).

use std::collections::HashMap;
use std::fmt;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::{AsRawFd, RawFd};
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

use crate::conn::{run_request, ConnRequests, Outbound, RequestJob};
use crate::sys::{Poller, Readiness};
use crate::wire::{
    self, Decoder, ErrorCode, Family, FormulaRef, Frame, WireHealth, WireSpec, PROTOCOL_VERSION,
};

const TOKEN_TCP: u64 = 0;
const TOKEN_UNIX: u64 = 1;
const TOKEN_WAKE: u64 = 2;
const TOKEN_CONN_BASE: u64 = 3;

/// Bytes drained per connection per fairness round.
const DRAIN_SLICE: usize = 16 * 1024;

/// Byte capacity of each connection's outbound buffer.
const OUTBOUND_CAPACITY: usize = 256 * 1024;

/// `QueueFull` retries before a request is rejected as `Busy`.
const SUBMIT_RETRY_BUDGET: usize = 64;

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
// Event loop
// ---------------------------------------------------------------------------

enum Transport {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Transport {
    fn raw_fd(&self) -> RawFd {
        match self {
            Transport::Tcp(s) => s.as_raw_fd(),
            Transport::Unix(s) => s.as_raw_fd(),
        }
    }

    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Transport::Tcp(s) => s.read(buf),
            Transport::Unix(s) => s.read(buf),
        }
    }

    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Transport::Tcp(s) => s.write(buf),
            Transport::Unix(s) => s.write(buf),
        }
    }
}

struct Conn {
    transport: Transport,
    peer: String,
    decoder: Decoder,
    outbound: Arc<Outbound>,
    requests: Arc<ConnRequests>,
    submit_retries: Arc<AtomicU64>,
    /// Frame currently being written, and how much of it went out.
    wbuf: Vec<u8>,
    wpos: usize,
    greeted: bool,
    /// Registered for write readiness in the poller.
    want_write: bool,
    /// Flush what is queued, then disconnect (protocol errors).
    closing: bool,
}

impl Conn {
    fn has_pending_write(&self) -> bool {
        self.wpos < self.wbuf.len() || self.outbound.queued_frames() > 0
    }
}

struct Shared {
    registry: Registry,
    pool: WorkerPool,
    stop: AtomicBool,
    allow_shutdown: bool,
    quiet: bool,
}

impl Shared {
    fn log(&self, line: fmt::Arguments<'_>) {
        if !self.quiet {
            eprintln!("c serve: {line}");
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

    /// The daemon's health: its one pool's counters plus the number of
    /// formulas in the registry (`connections` is the event loop's to
    /// fill in).
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
            connections: 0,
        }
    }
}

/// Handle to a running daemon (returned by [`serve`]).
pub struct ServerHandle {
    shared: Arc<Shared>,
    wake: UnixStream,
    thread: Option<JoinHandle<()>>,
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

    fn stop_and_join(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        let _ = (&self.wake).write(&[1u8]);
        if let Some(thread) = self.thread.take() {
            if thread.join().is_err() && !std::thread::panicking() {
                panic!("server event loop panicked");
            }
        }
    }

    /// Stop the loop, close every connection, and join the thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    /// Block until the loop exits on its own (a wire `Shutdown` frame
    /// under `allow_shutdown`).
    pub fn wait(mut self) {
        if let Some(thread) = self.thread.take() {
            if thread.join().is_err() && !std::thread::panicking() {
                panic!("server event loop panicked");
            }
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.thread.is_some() {
            self.stop_and_join();
        }
        if let Some(path) = &self.unix_path {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Bind the configured listeners and start the daemon's event loop on a
/// background thread.
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
    let shared = Arc::new(Shared {
        registry: Registry::new(config.max_formulas),
        pool,
        stop: AtomicBool::new(false),
        allow_shutdown: config.allow_shutdown,
        quiet: config.quiet,
    });

    for text in &config.preload {
        match shared.resolve_inline(text.as_bytes(), &default_spec(), true) {
            Ok(entry) => shared.log(format_args!(
                "preloaded formula fp={:016x} |S|={}",
                entry.fingerprint,
                entry.sampling_set.len()
            )),
            Err((code, detail)) => {
                return Err(NetError::Io(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("preload failed ({}): {detail}", code.name()),
                )))
            }
        }
    }

    let poller = Poller::new()?;

    let tcp_listener = match &config.tcp {
        Some(addr) => {
            let listener = TcpListener::bind(addr)?;
            listener.set_nonblocking(true)?;
            poller.register(listener.as_raw_fd(), TOKEN_TCP, true, false)?;
            Some(listener)
        }
        None => None,
    };
    let tcp_addr = match &tcp_listener {
        Some(listener) => Some(listener.local_addr()?),
        None => None,
    };

    let unix_listener = match &config.unix {
        Some(path) => {
            let listener = UnixListener::bind(path)?;
            listener.set_nonblocking(true)?;
            poller.register(listener.as_raw_fd(), TOKEN_UNIX, true, false)?;
            Some(listener)
        }
        None => None,
    };

    let (wake_rx, wake_tx) = UnixStream::pair()?;
    wake_rx.set_nonblocking(true)?;
    wake_tx.set_nonblocking(true)?;
    poller.register(wake_rx.as_raw_fd(), TOKEN_WAKE, true, false)?;

    if let Some(addr) = tcp_addr {
        shared.log(format_args!("listening on tcp {addr}"));
    }
    if let Some(path) = &config.unix {
        shared.log(format_args!("listening on unix {}", path.display()));
    }

    let loop_shared = Arc::clone(&shared);
    let loop_wake_tx = wake_tx.try_clone()?;
    let unix_path = config.unix.clone();
    let thread = conc::thread::spawn(move || {
        let mut event_loop = EventLoop {
            shared: loop_shared,
            poller,
            tcp_listener,
            unix_listener,
            wake_rx,
            wake_tx: loop_wake_tx,
            conns: HashMap::new(),
            next_token: TOKEN_CONN_BASE,
            rr_cursor: 0,
            workers: Vec::new(),
        };
        event_loop.run();
    });

    Ok(ServerHandle {
        shared,
        wake: wake_tx,
        thread: Some(thread),
        tcp_addr,
        unix_path,
    })
}

struct EventLoop {
    shared: Arc<Shared>,
    poller: Poller,
    tcp_listener: Option<TcpListener>,
    unix_listener: Option<UnixListener>,
    wake_rx: UnixStream,
    wake_tx: UnixStream,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    rr_cursor: usize,
    workers: Vec<JoinHandle<()>>,
}

impl EventLoop {
    fn run(&mut self) {
        let mut events: Vec<Readiness> = Vec::new();
        loop {
            events.clear();
            if let Err(err) = self.poller.wait(&mut events, -1) {
                self.shared.log(format_args!("poll failed: {err}"));
                break;
            }
            let mut dead: Vec<u64> = Vec::new();
            for &ev in &events {
                match ev.token {
                    TOKEN_TCP => self.accept_tcp(),
                    TOKEN_UNIX => self.accept_unix(),
                    TOKEN_WAKE => self.drain_wake_pipe(),
                    token => {
                        if (ev.readable || ev.hangup) && self.read_conn(token) == ConnFate::Dead {
                            dead.push(token);
                        }
                    }
                }
            }
            for token in dead {
                self.disconnect(token, "read error or peer hangup");
            }
            if self.shared.stop.load(Ordering::Acquire) {
                break;
            }
            self.drain_phase();
            self.reap_workers();
        }
        self.teardown();
    }

    fn reap_workers(&mut self) {
        let mut live = Vec::with_capacity(self.workers.len());
        for worker in self.workers.drain(..) {
            if worker.is_finished() {
                let _ = worker.join();
            } else {
                live.push(worker);
            }
        }
        self.workers = live;
    }

    fn accept_tcp(&mut self) {
        loop {
            let listener = match &self.tcp_listener {
                Some(listener) => listener,
                None => return,
            };
            match listener.accept() {
                Ok((stream, addr)) => {
                    self.install_conn(Transport::Tcp(stream), format!("tcp {addr}"));
                }
                Err(err) if err.kind() == io::ErrorKind::WouldBlock => return,
                Err(err) if err.kind() == io::ErrorKind::Interrupted => continue,
                Err(err) => {
                    self.shared.log(format_args!("tcp accept failed: {err}"));
                    return;
                }
            }
        }
    }

    fn accept_unix(&mut self) {
        loop {
            let listener = match &self.unix_listener {
                Some(listener) => listener,
                None => return,
            };
            match listener.accept() {
                Ok((stream, _)) => {
                    self.install_conn(Transport::Unix(stream), "unix".to_owned());
                }
                Err(err) if err.kind() == io::ErrorKind::WouldBlock => return,
                Err(err) if err.kind() == io::ErrorKind::Interrupted => continue,
                Err(err) => {
                    self.shared.log(format_args!("unix accept failed: {err}"));
                    return;
                }
            }
        }
    }

    fn install_conn(&mut self, transport: Transport, peer: String) {
        let nonblocking = match &transport {
            Transport::Tcp(s) => s.set_nonblocking(true),
            Transport::Unix(s) => s.set_nonblocking(true),
        };
        if let Err(err) = nonblocking {
            self.shared
                .log(format_args!("set_nonblocking failed: {err}"));
            return;
        }
        let token = self.next_token;
        self.next_token += 1;
        if let Err(err) = self.poller.register(transport.raw_fd(), token, true, false) {
            self.shared.log(format_args!("register failed: {err}"));
            return;
        }
        let waker = self.make_waker();
        let conn = Conn {
            transport,
            peer,
            decoder: Decoder::new(),
            outbound: Arc::new(Outbound::new(OUTBOUND_CAPACITY, waker)),
            requests: Arc::new(ConnRequests::new()),
            submit_retries: Arc::new(AtomicU64::new(0)),
            wbuf: Vec::new(),
            wpos: 0,
            greeted: false,
            want_write: false,
            closing: false,
        };
        self.shared
            .log(format_args!("conn {token} accepted ({})", conn.peer));
        self.conns.insert(token, conn);
    }

    fn make_waker(&self) -> Box<dyn Fn() + Send + Sync> {
        match self.wake_tx.try_clone() {
            Ok(tx) => Box::new(move || {
                let _ = (&tx).write(&[1u8]);
            }),
            // Out of fds: fall back to a no-op waker; the loop still
            // drains on its next readiness event.
            Err(_) => Box::new(|| {}),
        }
    }

    fn drain_wake_pipe(&mut self) {
        let mut sink = [0u8; 256];
        loop {
            match self.wake_rx.read(&mut sink) {
                Ok(0) => return,
                Ok(_) => continue,
                Err(err) if err.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    fn read_conn(&mut self, token: u64) -> ConnFate {
        let mut scratch = [0u8; 16 * 1024];
        loop {
            let conn = match self.conns.get_mut(&token) {
                Some(conn) => conn,
                None => return ConnFate::Alive,
            };
            match conn.transport.read(&mut scratch) {
                Ok(0) => return ConnFate::Dead,
                Ok(n) => {
                    conn.decoder.feed(&scratch[..n]);
                    if self.process_frames(token) == ConnFate::Dead {
                        return ConnFate::Dead;
                    }
                }
                Err(err) if err.kind() == io::ErrorKind::WouldBlock => return ConnFate::Alive,
                Err(err) if err.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return ConnFate::Dead,
            }
        }
    }

    fn process_frames(&mut self, token: u64) -> ConnFate {
        loop {
            let conn = match self.conns.get_mut(&token) {
                Some(conn) => conn,
                None => return ConnFate::Alive,
            };
            if conn.closing {
                return ConnFate::Alive;
            }
            match conn.decoder.next_frame() {
                Ok(Some(frame)) => {
                    if self.handle_frame(token, frame) == ConnFate::Dead {
                        return ConnFate::Dead;
                    }
                }
                Ok(None) => return ConnFate::Alive,
                Err(err) => {
                    conn.outbound
                        .send_error(0, ErrorCode::Malformed, err.to_string());
                    conn.closing = true;
                    self.shared
                        .log(format_args!("conn {token} protocol error: {err}"));
                    return ConnFate::Alive;
                }
            }
        }
    }

    fn handle_frame(&mut self, token: u64, frame: Frame) -> ConnFate {
        let conn = match self.conns.get_mut(&token) {
            Some(conn) => conn,
            None => return ConnFate::Alive,
        };
        if !conn.greeted {
            return match frame {
                Frame::Hello { version } if version == PROTOCOL_VERSION => {
                    conn.greeted = true;
                    let _ = conn.outbound.send_now(
                        Frame::HelloAck {
                            version: PROTOCOL_VERSION,
                        }
                        .encode(),
                    );
                    ConnFate::Alive
                }
                Frame::Hello { version } => {
                    let detail = format!(
                        "client speaks protocol {version}, server speaks {PROTOCOL_VERSION}"
                    );
                    conn.outbound
                        .send_error(0, ErrorCode::UnsupportedVersion, detail);
                    conn.closing = true;
                    ConnFate::Alive
                }
                _ => {
                    let detail = "expected Hello before any other frame";
                    conn.outbound.send_error(0, ErrorCode::Malformed, detail);
                    conn.closing = true;
                    ConnFate::Alive
                }
            };
        }
        match frame {
            Frame::Hello { .. } => {
                conn.outbound
                    .send_error(0, ErrorCode::Malformed, "duplicate Hello");
                conn.closing = true;
                ConnFate::Alive
            }
            Frame::Request {
                id,
                formula,
                spec,
                count,
                master_seed,
                budget_micros,
            } => {
                self.dispatch_request(token, id, formula, spec, count, master_seed, budget_micros);
                ConnFate::Alive
            }
            Frame::Cancel { id } => {
                conn.requests.cancel(id);
                ConnFate::Alive
            }
            Frame::HealthReq => {
                let mut health = self.shared.health();
                health.connections = self.conns.len() as u64;
                let conn = match self.conns.get_mut(&token) {
                    Some(conn) => conn,
                    None => return ConnFate::Alive,
                };
                let _ = conn.outbound.send_now(Frame::Health(health).encode());
                ConnFate::Alive
            }
            Frame::Shutdown => {
                if self.shared.allow_shutdown {
                    self.shared
                        .log(format_args!("conn {token} requested shutdown"));
                    self.shared.stop.store(true, Ordering::Release);
                } else {
                    let detail = "daemon was not started with --allow-shutdown";
                    conn.outbound
                        .send_error(0, ErrorCode::ShutdownDisabled, detail);
                }
                ConnFate::Alive
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
                conn.outbound.send_error(0, ErrorCode::Malformed, detail);
                conn.closing = true;
                ConnFate::Alive
            }
        }
    }

    #[allow(clippy::too_many_arguments)] // lint: wire request fields arrive as one tuple-shaped frame
    fn dispatch_request(
        &mut self,
        token: u64,
        id: u64,
        formula: FormulaRef,
        spec: WireSpec,
        count: u64,
        master_seed: u64,
        budget_micros: u64,
    ) {
        let conn = match self.conns.get_mut(&token) {
            Some(conn) => conn,
            None => return,
        };
        let cancel = match conn.requests.begin(id) {
            Some(flag) => flag,
            None => {
                let detail = format!("request id {id} is already in flight");
                conn.outbound.send_error(id, ErrorCode::Malformed, detail);
                return;
            }
        };
        let shared = Arc::clone(&self.shared);
        let outbound = Arc::clone(&conn.outbound);
        let requests = Arc::clone(&conn.requests);
        let submit_retries = Arc::clone(&conn.submit_retries);
        let worker = conc::thread::spawn(move || {
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
                    outbound.send_error(id, code, detail.clone());
                    requests.finish(id);
                    shared.log(format_args!(
                        "conn {token} req {id}: rejected ({}) {detail}",
                        code.name()
                    ));
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
                        &outbound,
                        &cancel,
                        &submit_retries,
                        SUBMIT_RETRY_BUDGET,
                    );
                    requests.finish(id);
                    let health = shared.pool.health();
                    shared.log(format_args!(
                        "conn {token} req {id}: {end:?} fp={:016x} submit_retries={} \
                         outbound_bytes={} pending_requests={} queued_items={}",
                        entry.fingerprint,
                        submit_retries.load(Ordering::Relaxed),
                        outbound.queued_bytes(),
                        health.pending_requests,
                        health.queued_items,
                    ));
                }
            }
        });
        self.workers.push(worker);
    }

    /// Round-robin drain: give each connection a bounded byte slice per
    /// round, looping until nobody makes progress. Fairness is the
    /// point — a firehose stream cannot monopolize the loop.
    fn drain_phase(&mut self) {
        loop {
            let mut tokens: Vec<u64> = self.conns.keys().copied().collect();
            tokens.sort_unstable();
            if tokens.is_empty() {
                return;
            }
            self.rr_cursor = self.rr_cursor.wrapping_add(1) % tokens.len();
            tokens.rotate_left(self.rr_cursor);
            let mut progressed = false;
            let mut dead: Vec<(u64, &'static str)> = Vec::new();
            for &token in &tokens {
                match self.flush_conn(token) {
                    FlushResult::Progress => progressed = true,
                    FlushResult::Idle => {}
                    FlushResult::Dead(reason) => dead.push((token, reason)),
                }
            }
            let had_dead = !dead.is_empty();
            for (token, reason) in dead {
                self.disconnect(token, reason);
            }
            if !progressed && !had_dead {
                return;
            }
        }
    }

    fn flush_conn(&mut self, token: u64) -> FlushResult {
        let conn = match self.conns.get_mut(&token) {
            Some(conn) => conn,
            None => return FlushResult::Idle,
        };
        let mut written = 0usize;
        let mut progressed = false;
        loop {
            if conn.wpos >= conn.wbuf.len() {
                match conn.outbound.pop() {
                    Some(frame) => {
                        conn.wbuf = frame;
                        conn.wpos = 0;
                    }
                    None => break,
                }
            }
            if written >= DRAIN_SLICE {
                // Round slice exhausted; come back next round so other
                // connections get their turn.
                return FlushResult::Progress;
            }
            let end = conn.wbuf.len().min(conn.wpos + (DRAIN_SLICE - written));
            match conn.transport.write(&conn.wbuf[conn.wpos..end]) {
                Ok(0) => return FlushResult::Dead("write returned 0"),
                Ok(n) => {
                    conn.wpos += n;
                    written += n;
                    progressed = true;
                }
                Err(err) if err.kind() == io::ErrorKind::WouldBlock => {
                    if !conn.want_write {
                        conn.want_write = true;
                        let _ = self
                            .poller
                            .reregister(conn.transport.raw_fd(), token, true, true);
                    }
                    return if progressed {
                        FlushResult::Progress
                    } else {
                        FlushResult::Idle
                    };
                }
                Err(err) if err.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return FlushResult::Dead("write error"),
            }
        }
        // Fully drained.
        if conn.want_write {
            conn.want_write = false;
            let _ = self
                .poller
                .reregister(conn.transport.raw_fd(), token, true, false);
        }
        if conn.closing && !conn.has_pending_write() {
            return FlushResult::Dead("closed after protocol error");
        }
        if progressed {
            FlushResult::Progress
        } else {
            FlushResult::Idle
        }
    }

    fn disconnect(&mut self, token: u64, reason: &str) {
        if let Some(conn) = self.conns.remove(&token) {
            let _ = self.poller.deregister(conn.transport.raw_fd());
            conn.outbound.close();
            conn.requests.cancel_all();
            self.shared.log(format_args!(
                "conn {token} closed ({}): {reason}; submit_retries={} in_flight={}",
                conn.peer,
                conn.submit_retries.load(Ordering::Relaxed),
                conn.requests.active(),
            ));
        }
    }

    fn teardown(&mut self) {
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            self.disconnect(token, "daemon shutting down");
        }
        self.tcp_listener = None;
        self.unix_listener = None;
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        self.shared.log(format_args!("event loop exited"));
    }
}

#[derive(PartialEq, Eq, Clone, Copy)]
enum ConnFate {
    Alive,
    Dead,
}

enum FlushResult {
    Progress,
    Idle,
    Dead(&'static str),
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
