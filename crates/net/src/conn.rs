//! Per-connection state shared between a connection's reader thread and
//! its request threads.
//!
//! Everything here is built on `conc` primitives so the whole
//! dispatch→writer protocol runs under the model checker in
//! `tests/model_conn.rs` exactly as it runs in production:
//!
//! - [`send_frame`] / [`send_error`]: every frame goes out whole under the
//!   connection's write lock, a `conc` [`Mutex`] over any [`Write`], so
//!   frames of concurrent requests never interleave. The socket's send
//!   buffer is the backpressure bound: a slow client blocks the writer
//!   holding its lock, which stalls that connection and no other.
//! - [`ConnRequests`]: the in-flight request table with per-request
//!   cancellation flags.
//! - [`run_request`]: the dispatch protocol — submit to the pool (which
//!   admits at once; the daemon bounds its requests in flight before it
//!   starts a request thread), then stream index-ordered chunks from the
//!   `ResponseHandle` until done, cancelled, or disconnected. A request
//!   that stops early drops its handle, which interrupts its unstarted
//!   samples.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::os::unix::net::UnixStream;
use std::sync::Arc;

use conc::atomic::{AtomicBool, Ordering};
use conc::sync::{Mutex, MutexGuard};
use unigen::{SampleRequest, SamplerService};
use unigen_cnf::Var;

use crate::wire::{self, ErrorCode, Frame, WireStats};

/// Acquire a connection-layer mutex, treating poisoning as fatal: a
/// panic inside one of these short critical sections means the
/// connection state is unrecoverable.
fn lock_ok<'a, T>(mutex: &'a Mutex<T>) -> MutexGuard<'a, T> {
    match mutex.lock() {
        Ok(guard) => guard,
        Err(_) => panic!("connection-layer mutex poisoned"),
    }
}

/// A connected stream socket, TCP or unix-domain. Clones share one
/// descriptor, so a connection's reader, its writer and the daemon's
/// shutdown sweep all act on the same socket.
#[derive(Clone)]
pub(crate) struct Socket(Arc<Stream>);

enum Stream {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Socket {
    pub(crate) fn tcp(stream: TcpStream) -> Socket {
        Socket(Arc::new(Stream::Tcp(stream)))
    }

    pub(crate) fn unix(stream: UnixStream) -> Socket {
        Socket(Arc::new(Stream::Unix(stream)))
    }

    /// Shut both directions: a reader blocked on this socket sees EOF and
    /// a writer blocked on a full send buffer fails.
    pub(crate) fn shutdown(&self) {
        let _ = match &*self.0 {
            Stream::Tcp(s) => s.shutdown(Shutdown::Both),
            Stream::Unix(s) => s.shutdown(Shutdown::Both),
        };
    }
}

impl Read for Socket {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        // `Read` is implemented for `&TcpStream` and `&UnixStream`.
        match &*self.0 {
            Stream::Tcp(s) => Read::read(&mut { s }, buf),
            Stream::Unix(s) => Read::read(&mut { s }, buf),
        }
    }
}

impl Write for Socket {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match &*self.0 {
            Stream::Tcp(s) => Write::write(&mut { s }, buf),
            Stream::Unix(s) => Write::write(&mut { s }, buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// The peer went away: a write to its connection failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Disconnected;

/// Write one encoded frame whole under the connection's write lock.
/// Blocks while the peer's receive window and the socket's send buffer
/// are full: that is the per-connection backpressure edge.
pub fn send_frame<W: Write>(writer: &Mutex<W>, frame: &[u8]) -> Result<(), Disconnected> {
    let mut writer = lock_ok(writer);
    writer
        .write_all(frame)
        .and_then(|()| writer.flush())
        .map_err(|_| Disconnected)
}

/// Send a typed `Error` frame for request `id` (0: the connection); a
/// peer that is already gone needs none.
pub fn send_error<W: Write>(
    writer: &Mutex<W>,
    id: u64,
    code: ErrorCode,
    detail: impl Into<String>,
) {
    let detail = detail.into();
    let _ = send_frame(writer, &Frame::Error { id, code, detail }.encode());
}

/// In-flight request table for one connection: request id → cancel flag.
#[derive(Default)]
pub struct ConnRequests {
    inner: Mutex<HashMap<u64, Arc<AtomicBool>>>,
}

impl ConnRequests {
    /// Empty table.
    pub fn new() -> ConnRequests {
        ConnRequests::default()
    }

    /// Register a new request id. Returns its cancel flag, or `None` if
    /// the id is already in flight (a protocol error the caller turns
    /// into a typed `Malformed` frame).
    pub fn begin(&self, id: u64) -> Option<Arc<AtomicBool>> {
        let mut inner = lock_ok(&self.inner);
        if inner.contains_key(&id) {
            return None;
        }
        let flag = Arc::new(AtomicBool::new(false));
        inner.insert(id, Arc::clone(&flag));
        Some(flag)
    }

    /// Raise the cancel flag for `id`. Returns whether the id was in
    /// flight (a finished or unknown id is silently ignored — the
    /// cancel raced the stream trailer, which is fine).
    pub fn cancel(&self, id: u64) -> bool {
        match lock_ok(&self.inner).get(&id) {
            Some(flag) => {
                flag.store(true, Ordering::Release);
                true
            }
            None => false,
        }
    }

    /// Raise every in-flight cancel flag (client disconnected).
    pub fn cancel_all(&self) {
        for flag in lock_ok(&self.inner).values() {
            flag.store(true, Ordering::Release);
        }
    }

    /// Drop a finished request id.
    pub fn finish(&self, id: u64) {
        lock_ok(&self.inner).remove(&id);
    }

    /// Number of requests currently in flight.
    pub fn active(&self) -> usize {
        lock_ok(&self.inner).len()
    }
}

/// How a request ended (for the serve log line).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestEnd {
    /// Streamed every chunk and the trailer.
    Completed {
        /// Witness outcomes in the batch.
        successes: u64,
    },
    /// A `Cancel` frame (or disconnect) stopped the stream early. No
    /// further chunks are sent, and dropping the `ResponseHandle`
    /// abandons the service request: the samples no worker has started
    /// complete as interruptions without touching the solver.
    Cancelled,
    /// A write failed mid-stream (client went away).
    Disconnected,
}

/// Everything [`run_request`] needs to know about one wire request.
pub struct RequestJob {
    /// Wire request id (echoed in every response frame).
    pub id: u64,
    /// The service request (count, master seed, budget).
    pub request: SampleRequest,
    /// Fingerprint of the prepared formula+spec, echoed in
    /// `StreamBegin` so the client can re-request by reference.
    pub fingerprint: u64,
    /// Projected sampling set, in canonical order.
    pub sampling_set: Vec<Var>,
}

/// Drive one request through the service and stream its response.
///
/// Runs on the request's own thread. `writer` is the connection's write
/// lock; `cancel` is the flag registered in [`ConnRequests`]. A writer
/// blocked on a slow client holds no pool resource: the workers finish
/// the request's samples regardless, and once the write fails (the
/// daemon shut the socket) the dropped handle interrupts the rest.
pub fn run_request<W: Write>(
    service: &SamplerService,
    job: RequestJob,
    writer: &Mutex<W>,
    cancel: &AtomicBool,
) -> RequestEnd {
    if cancel.load(Ordering::Acquire) {
        send_error(writer, job.id, ErrorCode::Cancelled, "request cancelled");
        return RequestEnd::Cancelled;
    }
    let handle = service.submit(job.request);

    let begin = Frame::StreamBegin {
        id: job.id,
        fingerprint: job.fingerprint,
        sampling_set: job.sampling_set.iter().map(|v| v.index() as u32).collect(),
    };
    if send_frame(writer, &begin.encode()).is_err() {
        return RequestEnd::Disconnected;
    }

    let mut successes = 0u64;
    let mut stats = WireStats::default();
    for (index, outcome) in handle.enumerate() {
        if cancel.load(Ordering::Acquire) {
            send_error(writer, job.id, ErrorCode::Cancelled, "request cancelled");
            return RequestEnd::Cancelled;
        }
        let bits = match &outcome.witness {
            Some(model) => {
                successes += 1;
                let values: Vec<bool> = job.sampling_set.iter().map(|&v| model.value(v)).collect();
                wire::pack_bits(&values)
            }
            None => Vec::new(),
        };
        stats.bsat_calls += outcome.stats.bsat_calls as u64;
        stats.retries += outcome.stats.retries as u64;
        stats.degradations += outcome.stats.degradations as u64;
        stats.faults_injected += outcome.stats.faults_injected as u64;
        stats.queue_wait_micros += outcome.stats.queue_wait.as_micros() as u64;
        stats.wall_micros += outcome.stats.wall_time.as_micros() as u64;
        let chunk = Frame::Chunk {
            id: job.id,
            index: index as u64,
            kind: outcome.kind,
            bits,
        };
        if send_frame(writer, &chunk.encode()).is_err() {
            return RequestEnd::Disconnected;
        }
    }

    let done = Frame::Done {
        id: job.id,
        successes,
        stats,
    };
    if send_frame(writer, &done.encode()).is_err() {
        return RequestEnd::Disconnected;
    }
    RequestEnd::Completed { successes }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conn_requests_reject_duplicate_ids() {
        let table = ConnRequests::new();
        let flag = table.begin(5).expect("fresh id");
        assert!(table.begin(5).is_none(), "duplicate id must be rejected");
        assert!(table.cancel(5));
        assert!(flag.load(Ordering::Acquire));
        table.finish(5);
        assert!(!table.cancel(5), "finished id cancels are ignored");
        assert!(table.begin(5).is_some(), "finished id is reusable");
    }
}
