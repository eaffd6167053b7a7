//! Model-checked protocol tests for the connection layer.
//!
//! These run the *real* `crates/net` connection code — [`send_frame`]
//! under a `conc` write lock, [`ConnRequests`], [`run_request`] — against
//! a real `SamplerService` under `conc`'s controlled scheduler, exploring
//! distinct thread interleavings up to a preemption bound. In-memory
//! writers stand in for the socket. The two protocols pinned here are
//! the ones the daemon's dispatch→writer pipeline depends on:
//!
//! 1. the lock order across dispatch and writer is acyclic, and neither
//!    the write lock nor the request table is held across another
//!    acquisition,
//! 2. a client disconnect mid-stream (the socket shut under a writer
//!    blocked on a full send buffer) releases the in-flight request entry
//!    and the service queue slot.
//!
//! Budgets come from `conc::model::Config::from_env()` so CI can widen
//! the search with `CONC_SCHEDULES` / `CONC_PREEMPTIONS`.

use std::io::{self, Write};
use std::sync::Arc;

use conc::atomic::AtomicU64;
use conc::model::{check, Config, Report};
use conc::sync::{Condvar, Mutex};
use rand::RngCore;

use unigen::{
    SampleOutcome, SampleRequest, SampleStats, SamplerService, ServiceConfig, WitnessSampler,
};
use unigen_net::conn::{run_request, send_error, ConnRequests, RequestEnd, RequestJob};
use unigen_net::{Decoder, ErrorCode, Frame};

/// A sampler that immediately returns the paper's `⊥` — the cheapest
/// possible work item, so schedules differ only in scheduler behavior.
#[derive(Clone)]
struct Stub;

impl WitnessSampler for Stub {
    fn sample(&mut self, _rng: &mut dyn RngCore) -> SampleOutcome {
        SampleOutcome::bottom(SampleStats::default())
    }
    fn name(&self) -> &'static str {
        "Stub"
    }
}

fn protocol_config() -> Config {
    Config::from_env()
}

/// The acceptance floor: either the bounded schedule tree was exhausted,
/// or the checker explored at least 1000 distinct schedules (clamped to
/// the configured budget so a deliberately tiny `CONC_SCHEDULES` still
/// runs).
fn assert_explored(cfg: &Config, report: &Report) {
    let floor = cfg.max_schedules.min(1000);
    assert!(
        report.complete || report.distinct_schedules >= floor,
        "exploration stopped early: {report}"
    );
}

/// A peer whose receive window holds `capacity` bytes and then stalls:
/// a write past it blocks until [`StalledPeer::hang_up`], then fails, as
/// a socket write blocked on a full send buffer fails once the daemon
/// shuts the socket.
struct StalledPeer {
    capacity: usize,
    /// Bytes accepted so far, and whether the socket was shut.
    state: Mutex<(usize, bool)>,
    changed: Condvar,
}

impl StalledPeer {
    fn new(capacity: usize) -> StalledPeer {
        StalledPeer {
            capacity,
            state: Mutex::new((0, false)),
            changed: Condvar::new(),
        }
    }

    fn hang_up(&self) {
        match self.state.lock() {
            Ok(mut state) => {
                state.1 = true;
                self.changed.notify_all();
            }
            Err(_) => panic!("peer mutex poisoned"),
        }
    }
}

/// The write half of a [`StalledPeer`], as it sits in the write lock.
struct PeerWriter(Arc<StalledPeer>);

impl Write for PeerWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let peer = &self.0;
        let mut state = match peer.state.lock() {
            Ok(guard) => guard,
            Err(_) => panic!("peer mutex poisoned"),
        };
        loop {
            if state.1 {
                return Err(io::ErrorKind::BrokenPipe.into());
            }
            let room = peer.capacity - state.0;
            if room > 0 {
                let n = room.min(buf.len());
                state.0 += n;
                return Ok(n);
            }
            state = match peer.changed.wait(state) {
                Ok(guard) => guard,
                Err(_) => panic!("peer mutex poisoned"),
            };
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

fn job(id: u64, count: usize, master_seed: u64) -> RequestJob {
    RequestJob {
        id,
        request: SampleRequest::new(count, master_seed),
        fingerprint: 0xfeed,
        sampling_set: Vec::new(),
    }
}

/// Protocol 1: the full dispatch→writer pipeline (real service, real
/// write lock, real request table) holds its locks acyclically, and
/// neither the write lock nor the request table is held across another
/// acquisition: a frame is written with only the write lock held, so a
/// writer blocked on its socket can never hold up the service. (The name
/// is historical: the socket write now plays the part the readiness
/// loop's waker did, the one call that must run with no other lock held.)
#[test]
fn dispatch_writer_lock_order_is_acyclic_and_waker_runs_unlocked() {
    let cfg = protocol_config();
    let report = check(cfg.clone(), || {
        let service = SamplerService::try_new(
            Stub,
            ServiceConfig::default()
                .with_workers(1)
                .with_queue_capacity(1),
        )
        .unwrap();
        let writer = Arc::new(Mutex::new(Vec::<u8>::new()));
        let requests = ConnRequests::new();
        let cancel = requests.begin(1).expect("fresh id");
        let retries = Arc::new(AtomicU64::new(0));
        let request_thread = {
            let writer = Arc::clone(&writer);
            let retries = Arc::clone(&retries);
            conc::thread::spawn(move || {
                run_request(&service, job(1, 2, 5), &*writer, &cancel, &retries, 4)
            })
        };
        // The reader's role: a connection-level frame written under the
        // same lock while the stream runs.
        send_error(&writer, 0, ErrorCode::Malformed, "probe");
        let end = request_thread.join().expect("request thread exits cleanly");
        assert_eq!(end, RequestEnd::Completed { successes: 0 });
        // Whole frames only: the stream is StreamBegin + 2 chunks + Done,
        // plus the reader's error frame, and each decodes intact.
        let mut decoder = Decoder::new();
        decoder.feed(&writer.lock().expect("writer lock"));
        let mut frames = Vec::new();
        while let Some(frame) = decoder.next_frame().expect("frames never interleave") {
            frames.push(frame);
        }
        assert_eq!(frames.len(), 5, "the full stream reaches the writer");
        let stream: Vec<String> = frames
            .iter()
            .filter_map(|frame| match frame {
                Frame::Error { id: 0, .. } => None,
                Frame::StreamBegin { id, .. } => Some(format!("begin {id}")),
                Frame::Chunk { id, index, .. } => Some(format!("chunk {id}.{index}")),
                Frame::Done { id, .. } => Some(format!("done {id}")),
                other => Some(format!("{other:?}")),
            })
            .collect();
        assert_eq!(stream, ["begin 1", "chunk 1.0", "chunk 1.1", "done 1"]);
        requests.finish(1);
    });
    assert!(report.failure.is_none(), "{report}");
    // No AB-BA hazard anywhere in the explored pipeline: a lock class
    // pair never appears in both nesting directions.
    for (held, acquired) in &report.lock_order_edges {
        assert!(
            !report
                .lock_order_edges
                .iter()
                .any(|(h, a)| h == acquired && a == held),
            "both nesting directions observed between {held} and {acquired}; \
             edges: {:?}",
            report.lock_order_edges
        );
    }
    // The write lock (built in this file) and the request table (built in
    // conn.rs) are leaves: nothing is acquired while either is held.
    for (held, acquired) in &report.lock_order_edges {
        assert!(
            !held.contains("net/tests/model_conn.rs") && !held.contains("net/src/conn.rs"),
            "connection lock held across another acquisition ({held} -> {acquired})"
        );
    }
    assert_explored(&cfg, &report);
}

/// Protocol 2: a client disconnect mid-stream ends the request thread promptly,
/// clears the in-flight table, and releases the service queue slot — a
/// fresh blocking submit completes on every explored schedule. The peer
/// takes the `StreamBegin` frame and then stalls, so the request thread is
/// blocked in a write (holding the write lock) when the reader shuts the
/// socket and raises every cancel flag.
#[test]
fn disconnect_mid_stream_frees_the_service_slot() {
    let cfg = protocol_config();
    let report = check(cfg.clone(), || {
        let service = Arc::new(
            SamplerService::try_new(
                Stub,
                ServiceConfig::default()
                    .with_workers(1)
                    .with_queue_capacity(1),
            )
            .unwrap(),
        );
        let begin = Frame::StreamBegin {
            id: 1,
            fingerprint: 0xfeed,
            sampling_set: Vec::new(),
        };
        let peer = Arc::new(StalledPeer::new(begin.encode().len()));
        let writer = Arc::new(Mutex::new(PeerWriter(Arc::clone(&peer))));
        let requests = Arc::new(ConnRequests::new());
        let cancel = requests.begin(1).expect("fresh id");
        let retries = Arc::new(AtomicU64::new(0));
        let request_thread = {
            let service = Arc::clone(&service);
            let writer = Arc::clone(&writer);
            let requests = Arc::clone(&requests);
            let retries = Arc::clone(&retries);
            conc::thread::spawn(move || {
                let end = run_request(&service, job(1, 3, 9), &*writer, &cancel, &retries, 4);
                requests.finish(1);
                end
            })
        };
        // The reader observes the hangup: shut the socket and raise every
        // cancel flag, exactly what a closing connection does.
        peer.hang_up();
        requests.cancel_all();
        let end = request_thread.join().expect("request thread exits cleanly");
        assert!(
            matches!(end, RequestEnd::Disconnected | RequestEnd::Cancelled),
            "unexpected request end: {end:?}"
        );
        assert_eq!(
            requests.active(),
            0,
            "disconnect clears the in-flight table"
        );
        // The released slot: a fresh blocking submit must complete (a
        // leaked slot would deadlock this schedule and fail the check).
        let response = service.submit(SampleRequest::new(1, 13)).wait();
        assert_eq!(response.outcomes.len(), 1);
    });
    assert!(report.failure.is_none(), "{report}");
    assert_explored(&cfg, &report);
}
