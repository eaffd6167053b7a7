//! Per-connection state shared between the readiness loop and the
//! request-drainer threads.
//!
//! Everything here is built on `conc` primitives so the whole
//! accept→dispatch→writer protocol runs under the model checker in
//! `tests/model_conn.rs` exactly as it runs in production:
//!
//! - [`Outbound`]: a bounded per-connection write buffer. Drainer
//!   threads block in [`Outbound::send`] when the client is slow
//!   (backpressure), the event loop drains with the non-blocking
//!   [`Outbound::pop`], and a caller-supplied waker nudges the readiness
//!   loop whenever bytes become available.
//! - [`ConnRequests`]: the in-flight request table with per-request
//!   cancellation flags.
//! - [`run_request`]: the dispatch protocol — bounded `try_submit`
//!   retries (so queue backpressure reaches the wire as a typed `Busy`
//!   error), then streaming index-ordered chunks from the
//!   `ResponseHandle` until done, cancelled, or disconnected.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use conc::atomic::{AtomicBool, AtomicU64, Ordering};
use conc::sync::{Condvar, Mutex, MutexGuard};
use unigen::{SampleRequest, SamplerService, TrySubmitError};
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

/// The peer went away: the outbound buffer was closed underneath a
/// sender.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Disconnected;

struct OutboundState {
    frames: VecDeque<Vec<u8>>,
    queued_bytes: usize,
    closed: bool,
}

/// Bounded per-connection write buffer with blocking producers and a
/// non-blocking consumer.
///
/// Capacity is in bytes. A producer whose frame would overflow the
/// capacity blocks on the `space` condvar until the event loop drains —
/// unless the buffer is empty, in which case one oversized frame is
/// always admitted so a frame larger than the capacity cannot deadlock.
pub struct Outbound {
    capacity: usize,
    state: Mutex<OutboundState>,
    space: Condvar,
    waker: Box<dyn Fn() + Send + Sync>,
}

impl Outbound {
    /// Create a buffer holding up to `capacity` bytes of encoded frames.
    /// `waker` is invoked (outside the internal lock) after every
    /// enqueue and on close, to nudge the readiness loop.
    pub fn new(capacity: usize, waker: Box<dyn Fn() + Send + Sync>) -> Outbound {
        Outbound {
            capacity: capacity.max(1),
            state: Mutex::new(OutboundState {
                frames: VecDeque::new(),
                queued_bytes: 0,
                closed: false,
            }),
            space: Condvar::new(),
            waker,
        }
    }

    /// Enqueue an encoded frame, blocking while the buffer is over
    /// capacity. This is the backpressure edge: a slow client stalls its
    /// drainer threads here, so what one slow client can hold is bounded
    /// by its outbound buffer and its drainer threads. It does not hold
    /// the pool's queue slot: the workers finish the request regardless,
    /// and the last outcome they post frees the slot.
    pub fn send(&self, frame: Vec<u8>) -> Result<(), Disconnected> {
        let mut state = lock_ok(&self.state);
        loop {
            if state.closed {
                return Err(Disconnected);
            }
            let fits = state.queued_bytes == 0 || state.queued_bytes + frame.len() <= self.capacity;
            if fits {
                break;
            }
            state = match self.space.wait(state) {
                Ok(guard) => guard,
                Err(_) => panic!("connection-layer mutex poisoned"),
            };
        }
        state.queued_bytes += frame.len();
        state.frames.push_back(frame);
        drop(state);
        (self.waker)();
        Ok(())
    }

    /// Enqueue without blocking on capacity. Reserved for event-loop
    /// originated frames (hello acks, typed errors, health snapshots)
    /// so the readiness loop itself can never block on a slow client.
    pub fn send_now(&self, frame: Vec<u8>) -> Result<(), Disconnected> {
        let mut state = lock_ok(&self.state);
        if state.closed {
            return Err(Disconnected);
        }
        state.queued_bytes += frame.len();
        state.frames.push_back(frame);
        drop(state);
        (self.waker)();
        Ok(())
    }

    /// Queue a typed `Error` frame for request `id` (0: the connection)
    /// with [`Outbound::send_now`]; a peer that is already gone needs none.
    pub fn send_error(&self, id: u64, code: ErrorCode, detail: impl Into<String>) {
        let detail = detail.into();
        let _ = self.send_now(Frame::Error { id, code, detail }.encode());
    }

    /// Dequeue the next encoded frame, waking one blocked producer.
    /// Non-blocking; the event loop calls this from the drain phase.
    pub fn pop(&self) -> Option<Vec<u8>> {
        let mut state = lock_ok(&self.state);
        let frame = state.frames.pop_front()?;
        state.queued_bytes -= frame.len();
        self.space.notify_one();
        Some(frame)
    }

    /// Mark the connection gone: wakes every blocked producer with
    /// [`Disconnected`] and nudges the readiness loop.
    pub fn close(&self) {
        {
            let mut state = lock_ok(&self.state);
            state.closed = true;
            state.frames.clear();
            state.queued_bytes = 0;
            self.space.notify_all();
        }
        (self.waker)();
    }

    /// Bytes currently queued (the serve log's per-connection depth).
    pub fn queued_bytes(&self) -> usize {
        lock_ok(&self.state).queued_bytes
    }

    /// Frames currently queued.
    pub fn queued_frames(&self) -> usize {
        lock_ok(&self.state).frames.len()
    }
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

/// How a drained request ended (for the serve log line).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestEnd {
    /// Streamed every chunk and the trailer.
    Completed {
        /// Witness outcomes in the batch.
        successes: u64,
    },
    /// The bounded `try_submit` retry budget ran out; a typed `Busy`
    /// error was sent instead of a stream.
    Busy,
    /// A `Cancel` frame (or disconnect) stopped the stream early. The
    /// underlying service request still runs to completion — dropping
    /// the `ResponseHandle` is defined to free the queue slot once the
    /// workers finish — but no further chunks are sent.
    Cancelled,
    /// The outbound buffer closed mid-stream (client went away).
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
/// Runs on a dedicated drainer thread. `cancel` is the flag registered
/// in [`ConnRequests`]; `submit_retries` is the connection's retry
/// counter surfaced in the serve log and health frames; `retry_budget`
/// bounds how many times a `QueueFull` is retried (with a scheduler
/// yield between attempts) before the request is rejected as `Busy`.
pub fn run_request(
    service: &SamplerService,
    job: RequestJob,
    outbound: &Outbound,
    cancel: &AtomicBool,
    submit_retries: &AtomicU64,
    retry_budget: usize,
) -> RequestEnd {
    let mut request = job.request;
    let mut attempt = 0usize;
    let handle = loop {
        if cancel.load(Ordering::Acquire) {
            outbound.send_error(job.id, ErrorCode::Cancelled, "request cancelled");
            return RequestEnd::Cancelled;
        }
        match service.try_submit(request) {
            Ok(handle) => break handle,
            Err(TrySubmitError::QueueFull { request: rejected }) => {
                if attempt >= retry_budget {
                    let detail =
                        format!("service queue full after {attempt} retries; resubmit later");
                    outbound.send_error(job.id, ErrorCode::Busy, detail);
                    return RequestEnd::Busy;
                }
                attempt += 1;
                submit_retries.fetch_add(1, Ordering::Relaxed);
                request = rejected;
                conc::thread::yield_now();
            }
            // `TrySubmitError` is non-exhaustive; surface any future
            // rejection kind as a retryable Busy rather than crashing.
            Err(other) => {
                outbound.send_error(job.id, ErrorCode::Busy, other.to_string());
                return RequestEnd::Busy;
            }
        }
    };

    let begin = Frame::StreamBegin {
        id: job.id,
        fingerprint: job.fingerprint,
        sampling_set: job.sampling_set.iter().map(|v| v.index() as u32).collect(),
    }
    .encode();
    if outbound.send(begin).is_err() {
        return RequestEnd::Disconnected;
    }

    let mut successes = 0u64;
    let mut stats = WireStats::default();
    for (index, outcome) in handle.enumerate() {
        if cancel.load(Ordering::Acquire) {
            outbound.send_error(job.id, ErrorCode::Cancelled, "request cancelled");
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
        stats.steals += outcome.stats.steals as u64;
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
        }
        .encode();
        if outbound.send(chunk).is_err() {
            return RequestEnd::Disconnected;
        }
    }

    let done = Frame::Done {
        id: job.id,
        successes,
        stats,
    }
    .encode();
    if outbound.send(done).is_err() {
        return RequestEnd::Disconnected;
    }
    RequestEnd::Completed { successes }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noop_waker() -> Box<dyn Fn() + Send + Sync> {
        Box::new(|| {})
    }

    #[test]
    fn outbound_oversized_frame_admitted_when_empty() {
        let out = Outbound::new(4, noop_waker());
        // 10 bytes > capacity 4, but the buffer is empty: must not block.
        out.send(vec![0u8; 10]).expect("oversized frame admitted");
        assert_eq!(out.queued_bytes(), 10);
        assert_eq!(out.pop().expect("frame").len(), 10);
        assert_eq!(out.queued_bytes(), 0);
    }

    #[test]
    fn outbound_close_unblocks_send() {
        let out = Arc::new(Outbound::new(1, noop_waker()));
        out.send(vec![0u8; 8]).expect("first frame");
        let sender = {
            let out = Arc::clone(&out);
            conc::thread::spawn(move || out.send(vec![1u8; 8]))
        };
        out.close();
        assert_eq!(sender.join().expect("join"), Err(Disconnected));
    }

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
