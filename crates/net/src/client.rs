//! Blocking client for the sampler daemon.
//!
//! [`Client`] owns one connection (TCP or unix) and demultiplexes the
//! server's interleaved response streams: several requests can be in
//! flight at once (that is how `unigen_cli client --cancel-demo`
//! cancels one request while another streams), and frames for other
//! requests are routed to their pending accumulators while the caller
//! waits on a specific id.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::path::Path;

use crate::conn::Socket;
use crate::server::default_spec;
use crate::wire::{
    self, Decoder, ErrorCode, FormulaRef, Frame, FrameError, WireHealth, WireOutcomeKind, WireSpec,
    WireStats, PROTOCOL_VERSION,
};

/// Client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure.
    Io(io::Error),
    /// The server sent bytes our decoder rejected.
    Frame(FrameError),
    /// The server answered with a typed error frame.
    Rejected {
        /// Request id the error was scoped to (0 = connection-level).
        id: u64,
        /// Machine-readable error class.
        code: ErrorCode,
        /// Human-readable detail from the server.
        detail: String,
    },
    /// The server violated the protocol (unexpected frame).
    Protocol(String),
    /// The server closed the connection mid-conversation.
    ServerClosed,
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(err) => write!(f, "socket error: {err}"),
            ClientError::Frame(err) => write!(f, "bad frame from server: {err}"),
            ClientError::Rejected { id, code, detail } => {
                write!(
                    f,
                    "server rejected request {id} ({}): {detail}",
                    code.name()
                )
            }
            ClientError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
            ClientError::ServerClosed => write!(f, "server closed the connection"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(err: io::Error) -> ClientError {
        ClientError::Io(err)
    }
}

impl From<FrameError> for ClientError {
    fn from(err: FrameError) -> ClientError {
        ClientError::Frame(err)
    }
}

/// One sampling request to send over the wire.
#[derive(Debug, Clone)]
pub struct ClientRequest {
    /// Inline DIMACS or a fingerprint from an earlier `StreamBegin`.
    pub formula: FormulaRef,
    /// Sampler family + knobs (defaults to the UniGen default spec).
    pub spec: WireSpec,
    /// Number of witnesses to request.
    pub count: u64,
    /// Master seed for the deterministic batch.
    pub master_seed: u64,
    /// Soft wall-clock budget for the whole request in microseconds
    /// (0 = unbounded); see [`Frame::Request`].
    pub budget_micros: u64,
}

impl ClientRequest {
    /// Request against inline DIMACS text with the default spec.
    pub fn inline(dimacs: &str, count: u64, master_seed: u64) -> ClientRequest {
        ClientRequest {
            formula: FormulaRef::Inline(dimacs.as_bytes().to_vec()),
            spec: default_spec(),
            count,
            master_seed,
            budget_micros: 0,
        }
    }

    /// Request against a formula already prepared in the server's
    /// registry.
    pub fn by_fingerprint(fingerprint: u64, count: u64, master_seed: u64) -> ClientRequest {
        ClientRequest {
            formula: FormulaRef::Fingerprint(fingerprint),
            spec: default_spec(),
            count,
            master_seed,
            budget_micros: 0,
        }
    }

    /// Replace the sampler spec.
    pub fn with_spec(mut self, spec: WireSpec) -> ClientRequest {
        self.spec = spec;
        self
    }

    /// Set the whole-request soft budget in microseconds.
    pub fn with_budget_micros(mut self, budget_micros: u64) -> ClientRequest {
        self.budget_micros = budget_micros;
        self
    }
}

/// One streamed outcome, decoded client-side.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireOutcome {
    /// Witness index within the batch.
    pub index: u64,
    /// Outcome kind.
    pub kind: WireOutcomeKind,
    /// Projected witness values (sampling-set order) for `Witness`
    /// outcomes.
    pub witness: Option<Vec<bool>>,
}

/// A completed batch response.
#[derive(Debug, Clone)]
pub struct WireBatch {
    /// Fingerprint of the prepared formula+spec (reusable via
    /// [`ClientRequest::by_fingerprint`]).
    pub fingerprint: u64,
    /// Sampling set as 0-based variable indices, in projection order.
    pub sampling_set: Vec<u32>,
    /// All outcomes, in index order.
    pub outcomes: Vec<WireOutcome>,
    /// Number of witness outcomes.
    pub successes: u64,
    /// Aggregate statistics from the server.
    pub stats: WireStats,
}

#[derive(Default)]
struct Pending {
    fingerprint: u64,
    sampling_set: Vec<u32>,
    begun: bool,
    outcomes: Vec<WireOutcome>,
    finished: Option<Result<(u64, WireStats), (ErrorCode, String)>>,
}

/// A blocking connection to the sampler daemon.
pub struct Client {
    stream: Socket,
    decoder: Decoder,
    next_id: u64,
    pending: HashMap<u64, Pending>,
    health_frames: VecDeque<WireHealth>,
}

impl Client {
    /// Connect over TCP and perform the hello handshake.
    pub fn connect_tcp(addr: &str) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        Client::handshake(Socket::tcp(stream))
    }

    /// Connect over a unix-domain socket and perform the handshake.
    pub fn connect_unix(path: &Path) -> Result<Client, ClientError> {
        let stream = UnixStream::connect(path)?;
        Client::handshake(Socket::unix(stream))
    }

    fn handshake(stream: Socket) -> Result<Client, ClientError> {
        let mut client = Client {
            stream,
            decoder: Decoder::new(),
            next_id: 1,
            pending: HashMap::new(),
            health_frames: VecDeque::new(),
        };
        client.send_raw(
            &Frame::Hello {
                version: PROTOCOL_VERSION,
            }
            .encode(),
        )?;
        match client.read_frame()? {
            Frame::HelloAck { version } if version == PROTOCOL_VERSION => Ok(client),
            Frame::HelloAck { version } => Err(ClientError::Protocol(format!(
                "server acknowledged protocol {version}, expected {PROTOCOL_VERSION}"
            ))),
            Frame::Error { id, code, detail } => Err(ClientError::Rejected { id, code, detail }),
            other => Err(ClientError::Protocol(format!(
                "expected HelloAck, got {other:?}"
            ))),
        }
    }

    fn send_raw(&mut self, bytes: &[u8]) -> Result<(), ClientError> {
        self.stream.write_all(bytes)?;
        Ok(())
    }

    fn read_frame(&mut self) -> Result<Frame, ClientError> {
        loop {
            if let Some(frame) = self.decoder.next_frame()? {
                return Ok(frame);
            }
            let mut scratch = [0u8; 16 * 1024];
            let n = self.stream.read(&mut scratch)?;
            if n == 0 {
                return Err(ClientError::ServerClosed);
            }
            self.decoder.feed(&scratch[..n]);
        }
    }

    /// Send a request and return its wire id without waiting for the
    /// response (pair with [`Client::collect`]).
    pub fn submit(&mut self, request: &ClientRequest) -> Result<u64, ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        self.pending.insert(id, Pending::default());
        let frame = Frame::Request {
            id,
            formula: request.formula.clone(),
            spec: request.spec,
            count: request.count,
            master_seed: request.master_seed,
            budget_micros: request.budget_micros,
        };
        self.send_raw(&frame.encode())?;
        Ok(id)
    }

    /// Ask the server to cancel an in-flight request. The stream still
    /// terminates (with a `Cancelled` error or, if the race was lost,
    /// a normal `Done`), so follow with [`Client::collect`].
    pub fn cancel(&mut self, id: u64) -> Result<(), ClientError> {
        self.send_raw(&Frame::Cancel { id }.encode())
    }

    /// Block until request `id` finishes and return its batch.
    ///
    /// A typed server error for `id` (including `Cancelled`) surfaces
    /// as [`ClientError::Rejected`]; the partial outcomes received
    /// before the error are discarded with the pending entry.
    pub fn collect(&mut self, id: u64) -> Result<WireBatch, ClientError> {
        loop {
            match self.pending.get(&id) {
                None => {
                    return Err(ClientError::Protocol(format!(
                        "request {id} was never submitted (or already collected)"
                    )))
                }
                Some(pending) if pending.finished.is_some() => break,
                Some(_) => {
                    let frame = self.read_frame()?;
                    self.route(frame)?;
                }
            }
        }
        let pending = match self.pending.remove(&id) {
            Some(pending) => pending,
            None => return Err(ClientError::Protocol("pending entry vanished".to_owned())),
        };
        match pending.finished {
            Some(Ok((successes, stats))) => Ok(WireBatch {
                fingerprint: pending.fingerprint,
                sampling_set: pending.sampling_set,
                outcomes: pending.outcomes,
                successes,
                stats,
            }),
            Some(Err((code, detail))) => Err(ClientError::Rejected { id, code, detail }),
            None => Err(ClientError::Protocol("unfinished batch".to_owned())),
        }
    }

    /// Submit and collect in one call.
    pub fn sample(&mut self, request: &ClientRequest) -> Result<WireBatch, ClientError> {
        let id = self.submit(request)?;
        self.collect(id)
    }

    /// Request a service-health snapshot.
    pub fn health(&mut self) -> Result<WireHealth, ClientError> {
        self.send_raw(&Frame::HealthReq.encode())?;
        loop {
            if let Some(health) = self.health_frames.pop_front() {
                return Ok(health);
            }
            let frame = self.read_frame()?;
            self.route(frame)?;
        }
    }

    /// Ask the daemon to exit (requires `serve --allow-shutdown`).
    /// Returns once the server closes the connection.
    pub fn shutdown_server(&mut self) -> Result<(), ClientError> {
        self.send_raw(&Frame::Shutdown.encode())?;
        loop {
            match self.read_frame() {
                Ok(Frame::Error { id, code, detail }) => {
                    return Err(ClientError::Rejected { id, code, detail })
                }
                Ok(frame) => {
                    // Tail frames of in-flight streams may still arrive.
                    self.route(frame)?;
                }
                Err(ClientError::ServerClosed) => return Ok(()),
                Err(err) => return Err(err),
            }
        }
    }

    fn route(&mut self, frame: Frame) -> Result<(), ClientError> {
        match frame {
            Frame::StreamBegin {
                id,
                fingerprint,
                sampling_set,
            } => {
                if let Some(pending) = self.pending.get_mut(&id) {
                    pending.fingerprint = fingerprint;
                    pending.sampling_set = sampling_set;
                    pending.begun = true;
                }
                Ok(())
            }
            Frame::Chunk {
                id,
                index,
                kind,
                bits,
            } => {
                let pending = match self.pending.get_mut(&id) {
                    Some(pending) => pending,
                    None => return Ok(()),
                };
                let witness = if kind == WireOutcomeKind::Witness {
                    match wire::unpack_bits(&bits, pending.sampling_set.len()) {
                        Some(values) => Some(values),
                        None => {
                            return Err(ClientError::Protocol(format!(
                                "chunk {index} of request {id} has a corrupt bit payload"
                            )))
                        }
                    }
                } else {
                    None
                };
                pending.outcomes.push(WireOutcome {
                    index,
                    kind,
                    witness,
                });
                Ok(())
            }
            Frame::Done {
                id,
                successes,
                stats,
            } => {
                if let Some(pending) = self.pending.get_mut(&id) {
                    pending.finished = Some(Ok((successes, stats)));
                }
                Ok(())
            }
            Frame::Error {
                id: 0,
                code,
                detail,
            } => Err(ClientError::Rejected {
                id: 0,
                code,
                detail,
            }),
            Frame::Error { id, code, detail } => {
                if let Some(pending) = self.pending.get_mut(&id) {
                    pending.finished = Some(Err((code, detail)));
                }
                Ok(())
            }
            Frame::Health(health) => {
                self.health_frames.push_back(health);
                Ok(())
            }
            other => Err(ClientError::Protocol(format!(
                "unexpected frame from server: {other:?}"
            ))),
        }
    }
}
