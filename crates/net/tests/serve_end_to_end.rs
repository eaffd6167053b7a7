//! End-to-end wire tests: a real daemon on real sockets, exercised by
//! the blocking [`Client`] and by raw byte-level connections.
//!
//! The central assertion is the determinism contract: for a fixed
//! `(formula, spec, count, master_seed)`, the witness stream a client
//! receives over the wire is bit-identical to
//! [`WitnessSampler::sample_batch`] run in-process — per request, at
//! any concurrency.

#![cfg(target_os = "linux")]

use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};

use unigen::{
    OutcomeKind, UniGen, UniGenConfig, UniWit, UniWitConfig, UniformSampler, WitnessSampler,
    XorSamplePrime, XorSamplePrimeConfig,
};
use unigen_cnf::dimacs;
use unigen_net::client::{Client, ClientError, ClientRequest};
use unigen_net::server::{default_spec, MAX_IN_FLIGHT_REQUESTS, MAX_REQUEST_COUNT};
use unigen_net::wire::{self, Family, WireSpec};
use unigen_net::{serve, Decoder, ErrorCode, Frame, ServeConfig, PROTOCOL_VERSION};

const DIMACS: &str = "p cnf 5 3\n1 2 0\n-3 4 0\n2 5 0\n";
const EPSILON: f64 = 6.0;

fn unique_socket_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("unigen-net-{tag}-{}.sock", std::process::id()))
}

fn unix_config(tag: &str) -> ServeConfig {
    ServeConfig {
        unix: Some(unique_socket_path(tag)),
        quiet: true,
        ..ServeConfig::default()
    }
}

/// The request spec every test uses (explicit ε so the in-process
/// reference below is guaranteed to mirror it).
fn test_spec() -> WireSpec {
    let mut spec = default_spec();
    spec.epsilon_bits = Some(EPSILON.to_bits());
    spec
}

type ProjectedBatch = Vec<(OutcomeKind, Option<Vec<bool>>)>;

/// In-process reference batch with the same spec: the projected bits
/// every wire stream must reproduce exactly.
fn reference_batch(count: usize, master_seed: u64) -> ProjectedBatch {
    let formula = dimacs::parse(DIMACS).expect("test formula parses");
    let config = UniGenConfig::default()
        .with_epsilon(EPSILON)
        .with_seed(test_spec().prepare_seed);
    let sampler = UniGen::new(&formula, config).expect("test formula prepares");
    projected_batch(sampler, &formula.sampling_set_or_all(), count, master_seed)
}

/// `sample_batch` of a prepared sampler, projected onto `sampling_set` the
/// way the wire carries it.
fn projected_batch(
    mut sampler: impl WitnessSampler,
    sampling_set: &[unigen_cnf::Var],
    count: usize,
    master_seed: u64,
) -> ProjectedBatch {
    sampler
        .sample_batch(count, master_seed)
        .into_iter()
        .map(|outcome| {
            let bits = outcome
                .witness
                .as_ref()
                .map(|model| sampling_set.iter().map(|&v| model.value(v)).collect());
            (outcome.kind, bits)
        })
        .collect()
}

fn assert_batch_matches_reference(batch: &unigen_net::WireBatch, count: usize, master_seed: u64) {
    assert_batch_matches(batch, &reference_batch(count, master_seed));
}

fn assert_batch_matches(batch: &unigen_net::WireBatch, reference: &ProjectedBatch) {
    assert_eq!(
        batch.outcomes.len(),
        reference.len(),
        "wire batch length diverged from in-process sample_batch"
    );
    for (i, (wire, (kind, bits))) in batch.outcomes.iter().zip(reference).enumerate() {
        assert_eq!(wire.index, i as u64, "stream must be index-ordered");
        assert_eq!(&wire.kind, kind, "outcome {i} kind diverged");
        assert_eq!(&wire.witness, bits, "outcome {i} witness bits diverged");
    }
}

#[test]
fn unix_round_trip_is_bit_identical_and_fingerprint_reusable() {
    let handle = serve(unix_config("roundtrip")).expect("daemon starts");
    let path = handle.unix_path().expect("unix listener bound").clone();

    let mut client = Client::connect_unix(&path).expect("client connects");
    let request = ClientRequest::inline(DIMACS, 16, 42).with_spec(test_spec());
    let batch = client.sample(&request).expect("batch streams");
    assert_batch_matches_reference(&batch, 16, 42);

    // Re-request by fingerprint: no DIMACS on the wire, same service
    // entry, and a different master seed still matches in-process.
    let again = client
        .sample(&ClientRequest::by_fingerprint(batch.fingerprint, 8, 7).with_spec(test_spec()))
        .expect("fingerprint re-request streams");
    assert_eq!(again.fingerprint, batch.fingerprint);
    assert_batch_matches_reference(&again, 8, 7);

    handle.shutdown();
}

/// Every wire [`Family`] reaches its typed constructor: one inline request
/// per family streams in full, bit-identical to `sample_batch` of the same
/// sampler prepared in process. The formula has ~2^11 witnesses so that
/// XORSample′'s default 8 constraints leave non-empty cells.
#[test]
fn every_wire_family_streams_bit_identical_batches() {
    const FAMILY_DIMACS: &str = "p cnf 12 3\n1 2 0\n-3 4 0\n5 6 7 0\n";
    const COUNT: usize = 12;
    const MASTER_SEED: u64 = 2014;
    let formula = dimacs::parse(FAMILY_DIMACS).expect("test formula parses");
    let sampling_set = formula.sampling_set_or_all();
    let prepare_seed = default_spec().prepare_seed;
    let cases: [(Family, ProjectedBatch); 4] = [
        (Family::UniGen, {
            let config = UniGenConfig::default().with_seed(prepare_seed);
            let sampler = UniGen::new(&formula, config).expect("UniGen prepares");
            projected_batch(sampler, &sampling_set, COUNT, MASTER_SEED)
        }),
        (Family::UniWit, {
            let sampler = UniWit::new(&formula, UniWitConfig::default()).expect("UniWit prepares");
            projected_batch(sampler, &sampling_set, COUNT, MASTER_SEED)
        }),
        (Family::XorSamplePrime, {
            let sampler = XorSamplePrime::new(&formula, XorSamplePrimeConfig::default())
                .expect("XORSample' prepares");
            projected_batch(sampler, &sampling_set, COUNT, MASTER_SEED)
        }),
        (Family::Uniform, {
            let sampler =
                UniformSampler::with_witnesses(&formula, &sampling_set).expect("US prepares");
            projected_batch(sampler, &sampling_set, COUNT, MASTER_SEED)
        }),
    ];

    let handle = serve(unix_config("families")).expect("daemon starts");
    let path = handle.unix_path().expect("unix listener bound").clone();
    let mut client = Client::connect_unix(&path).expect("client connects");
    for (family, reference) in &cases {
        let spec = WireSpec {
            family: *family,
            epsilon_bits: None,
            prepare_seed,
        };
        let request =
            ClientRequest::inline(FAMILY_DIMACS, COUNT as u64, MASTER_SEED).with_spec(spec);
        let batch = client
            .sample(&request)
            .unwrap_or_else(|err| panic!("{family:?} request failed: {err}"));
        assert_eq!(batch.outcomes.len(), COUNT, "{family:?} stream is short");
        assert!(
            reference.iter().any(|(_, bits)| bits.is_some()),
            "{family:?} reference produced no witness"
        );
        assert_batch_matches(&batch, reference);
    }

    handle.shutdown();
}

/// ε is a UniGen knob: on any other family it is a typed `Unsupported`
/// rejection, and the daemon keeps serving.
#[test]
fn epsilon_on_another_family_is_a_typed_unsupported_error() {
    let handle = serve(unix_config("epsilon")).expect("daemon starts");
    let path = handle.unix_path().expect("unix listener bound").clone();

    let mut client = Client::connect_unix(&path).expect("client connects");
    for family in [Family::UniWit, Family::XorSamplePrime, Family::Uniform] {
        let spec = WireSpec {
            family,
            ..test_spec()
        };
        match client.sample(&ClientRequest::inline(DIMACS, 4, 1).with_spec(spec)) {
            Err(ClientError::Rejected { code, .. }) => assert_eq!(code, ErrorCode::Unsupported),
            other => panic!("expected a typed Unsupported rejection for {family:?}, got {other:?}"),
        }
    }
    let batch = client
        .sample(&ClientRequest::inline(DIMACS, 4, 9).with_spec(test_spec()))
        .expect("daemon still serves");
    assert_batch_matches_reference(&batch, 4, 9);

    handle.shutdown();
}

#[test]
fn concurrent_tcp_clients_each_get_bit_identical_batches() {
    let config = ServeConfig {
        tcp: Some("127.0.0.1:0".to_string()),
        quiet: true,
        ..ServeConfig::default()
    };
    let handle = serve(config).expect("daemon starts");
    let addr = handle.tcp_addr().expect("tcp listener bound").to_string();

    let threads: Vec<_> = (0..4u64)
        .map(|i| {
            let addr = addr.clone();
            conc::thread::spawn(move || {
                let master_seed = 100 + i;
                let mut client = Client::connect_tcp(&addr).expect("client connects");
                let request = ClientRequest::inline(DIMACS, 12, master_seed).with_spec(test_spec());
                let batch = client.sample(&request).expect("batch streams");
                (batch, master_seed)
            })
        })
        .collect();
    for thread in threads {
        let (batch, master_seed) = thread.join().expect("client thread");
        assert_batch_matches_reference(&batch, 12, master_seed);
    }

    handle.shutdown();
}

#[test]
fn future_protocol_version_is_rejected() {
    let handle = serve(unix_config("version")).expect("daemon starts");
    let path = handle.unix_path().expect("unix listener bound").clone();

    let mut stream = UnixStream::connect(&path).expect("raw connect");
    stream
        .write_all(
            &Frame::Hello {
                version: PROTOCOL_VERSION + 98,
            }
            .encode(),
        )
        .expect("hello sent");
    let mut decoder = Decoder::new();
    let mut bytes = Vec::new();
    stream
        .read_to_end(&mut bytes)
        .expect("server closes after rejecting");
    decoder.feed(&bytes);
    match decoder.next_frame() {
        Ok(Some(Frame::Error { id: 0, code, .. })) => {
            assert_eq!(code, ErrorCode::UnsupportedVersion);
        }
        other => panic!("expected UnsupportedVersion error frame, got {other:?}"),
    }

    handle.shutdown();
}

#[test]
fn malformed_bytes_get_a_typed_error_then_close() {
    let handle = serve(unix_config("malformed")).expect("daemon starts");
    let path = handle.unix_path().expect("unix listener bound").clone();

    let mut stream = UnixStream::connect(&path).expect("raw connect");
    stream
        .write_all(
            &Frame::Hello {
                version: PROTOCOL_VERSION,
            }
            .encode(),
        )
        .expect("hello sent");
    // A length prefix claiming a frame larger than MAX_FRAME_LEN.
    stream
        .write_all(&[0xff, 0xff, 0xff, 0xff, 0x7f])
        .expect("garbage sent");
    let mut decoder = Decoder::new();
    let mut bytes = Vec::new();
    stream
        .read_to_end(&mut bytes)
        .expect("server closes after the error");
    decoder.feed(&bytes);
    let mut saw_malformed = false;
    while let Ok(Some(frame)) = decoder.next_frame() {
        if let Frame::Error { id: 0, code, .. } = frame {
            assert_eq!(code, ErrorCode::Malformed);
            saw_malformed = true;
        }
    }
    assert!(
        saw_malformed,
        "server must send a typed Malformed error before closing"
    );

    handle.shutdown();
}

#[test]
fn unsat_formula_yields_a_typed_unsat_error() {
    let handle = serve(unix_config("unsat")).expect("daemon starts");
    let path = handle.unix_path().expect("unix listener bound").clone();

    let mut client = Client::connect_unix(&path).expect("client connects");
    let request = ClientRequest::inline("p cnf 1 2\n1 0\n-1 0\n", 4, 1).with_spec(test_spec());
    match client.sample(&request) {
        Err(ClientError::Rejected { code, .. }) => assert_eq!(code, ErrorCode::Unsat),
        other => panic!("expected a typed Unsat rejection, got {other:?}"),
    }
    // The connection survives a rejected request.
    let batch = client
        .sample(&ClientRequest::inline(DIMACS, 4, 9).with_spec(test_spec()))
        .expect("connection still usable");
    assert_batch_matches_reference(&batch, 4, 9);

    handle.shutdown();
}

#[test]
fn cancel_mid_stream_terminates_and_connection_stays_usable() {
    let handle = serve(unix_config("cancel")).expect("daemon starts");
    let path = handle.unix_path().expect("unix listener bound").clone();

    let mut client = Client::connect_unix(&path).expect("client connects");
    // Large enough that the cancel frame usually lands mid-stream; the
    // contract allows either outcome of the race, and both must leave
    // the connection usable.
    let big = ClientRequest::inline(DIMACS, 5_000, 3).with_spec(test_spec());
    let id = client.submit(&big).expect("submitted");
    client.cancel(id).expect("cancel sent");
    match client.collect(id) {
        Err(ClientError::Rejected { code, .. }) => assert_eq!(code, ErrorCode::Cancelled),
        Ok(batch) => assert_eq!(
            batch.outcomes.len(),
            5_000,
            "a completed stream is complete"
        ),
        Err(other) => panic!("unexpected failure collecting a cancelled request: {other}"),
    }

    let batch = client
        .sample(&ClientRequest::inline(DIMACS, 6, 11).with_spec(test_spec()))
        .expect("connection usable after cancel");
    assert_batch_matches_reference(&batch, 6, 11);

    handle.shutdown();
}

#[test]
fn health_frame_reports_services_and_connections() {
    let mut config = unix_config("health");
    config.preload = vec![DIMACS.to_string()];
    let handle = serve(config).expect("daemon starts");
    let path = handle.unix_path().expect("unix listener bound").clone();

    let mut client = Client::connect_unix(&path).expect("client connects");
    let health = client.health().expect("health round-trips");
    assert_eq!(
        health.services, 1,
        "preloaded formula counts as one service"
    );
    assert!(health.configured_workers >= 1);
    assert_eq!(health.connections, 1);
    assert_eq!(health.worker_panics, 0);

    handle.shutdown();
}

/// Regression: a `count` above [`MAX_REQUEST_COUNT`] is a typed
/// `Malformed` rejection before the pool is touched. A `u64::MAX` count
/// used to panic inside the service's admission while it held the
/// scheduler lock, hanging that request and every later one for the same
/// formula.
#[test]
fn oversized_count_is_a_typed_malformed_error() {
    let handle = serve(unix_config("oversized")).expect("daemon starts");
    let path = handle.unix_path().expect("unix listener bound").clone();

    let mut client = Client::connect_unix(&path).expect("client connects");
    for count in [u64::MAX, MAX_REQUEST_COUNT + 1] {
        match client.sample(&ClientRequest::inline(DIMACS, count, 1).with_spec(test_spec())) {
            Err(ClientError::Rejected { code, .. }) => assert_eq!(code, ErrorCode::Malformed),
            other => panic!("expected a typed Malformed rejection of {count}, got {other:?}"),
        }
    }
    let batch = client
        .sample(&ClientRequest::inline(DIMACS, 4, 9).with_spec(test_spec()))
        .expect("the same formula still streams");
    assert_batch_matches_reference(&batch, 4, 9);

    handle.shutdown();
}

/// Regression: a variable id beyond `Var`'s range in inline DIMACS is a
/// typed `PrepareFailed` for that request. It used to panic the parser on
/// the thread draining the connection, so the request was never answered.
/// The raw socket has a read timeout, so a silent daemon fails the test
/// instead of hanging it.
#[test]
fn out_of_range_variable_is_a_typed_prepare_failure() {
    let handle = serve(unix_config("var-range")).expect("daemon starts");
    let path = handle.unix_path().expect("unix listener bound").clone();

    let mut stream = UnixStream::connect(&path).expect("raw connect");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .expect("read timeout set");
    let request = |id: u64, dimacs: &str| Frame::Request {
        id,
        formula: wire::FormulaRef::Inline(dimacs.as_bytes().to_vec()),
        spec: test_spec(),
        count: 4,
        master_seed: 9,
        budget_micros: 0,
    };
    let hello = Frame::Hello {
        version: PROTOCOL_VERSION,
    };
    for frame in [
        hello,
        request(1, "p cnf 3 1\n5000000000 0\n"),
        request(2, DIMACS),
    ] {
        stream.write_all(&frame.encode()).expect("frame sent");
    }

    let mut decoder = Decoder::new();
    let mut buf = [0u8; 4096];
    let (mut rejected, mut done) = (false, false);
    while !(rejected && done) {
        match decoder.next_frame().expect("well-formed frames") {
            Some(Frame::Error { id: 1, code, .. }) => {
                assert_eq!(code, ErrorCode::PrepareFailed);
                rejected = true;
            }
            Some(Frame::Done { id: 2, .. }) => done = true,
            Some(Frame::Error { id, code, detail }) => {
                panic!("unexpected error for request {id}: {code:?} {detail}")
            }
            Some(_) => {}
            None => {
                let n = stream
                    .read(&mut buf)
                    .expect("the daemon answers both requests before the timeout");
                assert!(n > 0, "the daemon closed the connection");
                decoder.feed(&buf[..n]);
            }
        }
    }

    handle.shutdown();
}

/// Formula `i` of a family of distinct 6-variable formulas: one clause
/// whose literal signs spell `i` in binary.
fn distinct_formula(i: usize) -> String {
    let clause: Vec<String> = (1..=6)
        .map(|v| if i >> (v - 1) & 1 == 1 { v } else { -v }.to_string())
        .collect();
    format!("p cnf 6 1\n{} 0\n", clause.join(" "))
}

/// The registry is an LRU cache over one worker pool: with
/// `max_formulas` 2 and one preloaded resident, the daemon keeps answering
/// new formulas (it used to answer `registry-full` for the rest of its
/// life), re-prepares an evicted formula bit-identically under the same
/// `prepare_seed`, never evicts the resident, and runs everything on one
/// `--jobs`-sized pool.
#[test]
fn lru_registry_keeps_answering_new_formulas_on_one_pool() {
    const JOBS: u64 = 2;
    let mut config = unix_config("lru");
    config.max_formulas = 2;
    config.workers = JOBS as usize;
    config.preload = vec![DIMACS.to_string()];
    let handle = serve(config).expect("daemon starts");
    let path = handle.unix_path().expect("unix listener bound").clone();
    let canonical = dimacs::to_dimacs_string(&dimacs::parse(DIMACS).expect("parses"));
    let resident = wire::fingerprint(canonical.as_bytes(), &default_spec());

    let mut client = Client::connect_unix(&path).expect("client connects");
    let mut first = None;
    for i in 0..20 {
        let batch = client
            .sample(&ClientRequest::inline(&distinct_formula(i), 6, 3))
            .unwrap_or_else(|err| panic!("formula {i} was not answered: {err}"));
        assert_eq!(batch.outcomes.len(), 6);
        first.get_or_insert(batch);
        let health = client.health().expect("health round-trips");
        assert_eq!(health.configured_workers, JOBS);
        assert_eq!(health.alive_workers, JOBS);
        assert!(health.services <= 2, "registry over capacity: {health:?}");
    }

    let first = first.expect("formula 0 streamed");
    match client.sample(&ClientRequest::by_fingerprint(first.fingerprint, 1, 3)) {
        Err(ClientError::Rejected { code, .. }) => {
            assert_eq!(code, ErrorCode::UnknownFingerprint, "formula 0 was evicted")
        }
        other => panic!("expected formula 0 to be evicted, got {other:?}"),
    }
    let again = client
        .sample(&ClientRequest::inline(&distinct_formula(0), 6, 3))
        .expect("an evicted formula is prepared again");
    assert_eq!(again.fingerprint, first.fingerprint);
    assert_eq!(again.outcomes, first.outcomes, "re-preparation diverged");

    let by_fingerprint = client
        .sample(&ClientRequest::by_fingerprint(resident, 4, 5))
        .expect("the preloaded resident is never evicted");
    assert_eq!(by_fingerprint.fingerprint, resident);
    assert_eq!(by_fingerprint.outcomes.len(), 4);
    let health = client.health().expect("health round-trips");
    assert_eq!((health.services, health.configured_workers), (2, JOBS));

    handle.shutdown();
}

/// Reads from `stream` until `decoder` yields a frame. A read timeout on
/// the stream turns a silent daemon into a failure instead of a hang.
fn next_frame(stream: &mut impl Read, decoder: &mut Decoder) -> Frame {
    let mut buf = [0u8; 4096];
    loop {
        if let Some(frame) = decoder.next_frame().expect("well-formed frames") {
            return frame;
        }
        let n = stream.read(&mut buf).expect("the daemon answers in time");
        assert!(n > 0, "the daemon closed the connection");
        decoder.feed(&buf[..n]);
    }
}

/// A connection that stops reading mid-stream stalls only itself: while
/// its large stream is blocked on a full socket, a second connection's
/// batch still arrives bit-identical. Once the first connection reads
/// again, its stream resumes and is bit-identical too.
#[test]
fn slow_reader_stalls_only_its_own_connection() {
    const BIG: u64 = 20_000;
    let handle = serve(unix_config("slow-reader")).expect("daemon starts");
    let path = handle.unix_path().expect("unix listener bound").clone();

    let mut slow = UnixStream::connect(&path).expect("raw connect");
    slow.set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .expect("read timeout set");
    let hello = Frame::Hello {
        version: PROTOCOL_VERSION,
    };
    let request = Frame::Request {
        id: 1,
        formula: wire::FormulaRef::Inline(DIMACS.as_bytes().to_vec()),
        spec: test_spec(),
        count: BIG,
        master_seed: 5,
        budget_micros: 0,
    };
    for frame in [hello, request] {
        slow.write_all(&frame.encode()).expect("frame sent");
    }
    let mut decoder = Decoder::new();
    assert!(matches!(
        next_frame(&mut slow, &mut decoder),
        Frame::HelloAck { .. }
    ));
    let width = match next_frame(&mut slow, &mut decoder) {
        Frame::StreamBegin { sampling_set, .. } => sampling_set.len(),
        other => panic!("expected StreamBegin, got {other:?}"),
    };
    // Stop reading here: twenty thousand chunks overflow the socket
    // buffers, so the daemon's writer for this connection blocks.

    let batch = within_bound("the second connection's batch", move || {
        let mut fast = Client::connect_unix(&path).expect("second client connects");
        fast.sample(&ClientRequest::inline(DIMACS, 16, 6).with_spec(test_spec()))
    })
    .expect("the second connection is served while the first stalls");
    assert_batch_matches_reference(&batch, 16, 6);

    let reference = reference_batch(BIG as usize, 5);
    for (i, (kind, bits)) in reference.iter().enumerate() {
        match next_frame(&mut slow, &mut decoder) {
            Frame::Chunk {
                id: 1,
                index,
                kind: wire_kind,
                bits: wire_bits,
            } => {
                assert_eq!(index, i as u64, "stream must be index-ordered");
                assert_eq!(&wire_kind, kind, "outcome {i} kind diverged");
                let witness = bits
                    .as_ref()
                    .map(|_| wire::unpack_bits(&wire_bits, width).expect("well-formed payload"));
                assert_eq!(&witness, bits, "outcome {i} witness bits diverged");
            }
            other => panic!("expected chunk {i}, got {other:?}"),
        }
    }
    assert!(matches!(
        next_frame(&mut slow, &mut decoder),
        Frame::Done { id: 1, .. }
    ));

    handle.shutdown();
}

/// Completes the handshake on a raw connection and leaves it idle;
/// `set_timeout` bounds every read on it.
fn idle_peer<S: Read + Write>(mut stream: S, set_timeout: impl Fn(&S)) -> S {
    set_timeout(&stream);
    let hello = Frame::Hello {
        version: PROTOCOL_VERSION,
    };
    stream.write_all(&hello.encode()).expect("hello sent");
    let ack = next_frame(&mut stream, &mut Decoder::new());
    assert!(matches!(ack, Frame::HelloAck { .. }), "got {ack:?}");
    stream
}

/// The daemon closed this idle connection: the next read is end-of-file.
fn assert_closed(mut stream: impl Read, what: &str) {
    let mut rest = Vec::new();
    stream
        .read_to_end(&mut rest)
        .unwrap_or_else(|err| panic!("idle {what} peer did not see the close: {err}"));
    assert!(rest.is_empty(), "idle {what} peer got unexpected bytes");
}

/// Runs `f` on its own thread and returns its result; fails unless it
/// returns within a bound.
fn within_bound<T: Send + 'static>(what: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (done, returned) = std::sync::mpsc::channel();
    conc::thread::spawn(move || {
        let _ = done.send(f());
    });
    returned
        .recv_timeout(std::time::Duration::from_secs(30))
        .unwrap_or_else(|_| panic!("{what} did not return within 30 s"))
}

/// A daemon on TCP (`127.0.0.1:0`) and unix, with one idle handshaken
/// connection on each.
fn daemon_with_idle_peers(tag: &str) -> (unigen_net::ServerHandle, TcpStream, UnixStream) {
    let config = ServeConfig {
        tcp: Some("127.0.0.1:0".to_string()),
        allow_shutdown: true,
        ..unix_config(tag)
    };
    let handle = serve(config).expect("daemon starts");
    let addr = handle.tcp_addr().expect("tcp listener bound");
    let path = handle.unix_path().expect("unix listener bound").clone();
    let timeout = Some(std::time::Duration::from_secs(30));
    let tcp = idle_peer(TcpStream::connect(addr).expect("tcp connect"), |s| {
        s.set_read_timeout(timeout).expect("read timeout set")
    });
    let unix = idle_peer(UnixStream::connect(path).expect("unix connect"), |s| {
        s.set_read_timeout(timeout).expect("read timeout set")
    });
    (handle, tcp, unix)
}

/// `ServerHandle::shutdown` returns promptly while idle connections are
/// open on both listeners, and each idle client sees its connection close.
#[test]
fn handle_shutdown_returns_promptly_with_idle_connections() {
    let (handle, tcp, unix) = daemon_with_idle_peers("idle-handle");
    within_bound("ServerHandle::shutdown", move || handle.shutdown());
    assert_closed(tcp, "tcp");
    assert_closed(unix, "unix");
}

/// A wire `Shutdown` frame stops the daemon promptly while idle
/// connections are open on both listeners, and each idle client sees its
/// connection close.
#[test]
fn wire_shutdown_returns_promptly_with_idle_connections() {
    let (handle, tcp, unix) = daemon_with_idle_peers("idle-wire");
    let path = handle.unix_path().expect("unix listener bound").clone();
    Client::connect_unix(&path)
        .expect("client connects")
        .shutdown_server()
        .expect("shutdown accepted");
    within_bound("ServerHandle::wait", move || handle.wait());
    assert_closed(tcp, "tcp");
    assert_closed(unix, "unix");
}

/// A random 3-CNF over 24 variables with 48 clauses (splitmix64 from a
/// fixed seed). It has about 6·10^4 witnesses, so UniGen prepares it in
/// hashed mode within milliseconds, and each sample then costs a few
/// milliseconds of solver work.
fn hashed_formula() -> String {
    let mut state: u64 = 0x5eed;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut text = String::from("p cnf 24 48\n");
    for _ in 0..48 {
        for _ in 0..3 {
            let r = next();
            let sign = if r >> 32 & 1 == 1 { "-" } else { "" };
            text.push_str(&format!("{sign}{} ", r % 24 + 1));
        }
        text.push_str("0\n");
    }
    text
}

/// A raw connection that has completed the handshake and sent `requests`
/// for [`hashed_formula`]; every read on it times out after 30 s.
fn hashed_requests(path: &Path, requests: impl IntoIterator<Item = (u64, u64)>) -> UnixStream {
    let mut stream = idle_peer(UnixStream::connect(path).expect("raw connect"), |s| {
        s.set_read_timeout(Some(std::time::Duration::from_secs(30)))
            .expect("read timeout set")
    });
    for (id, count) in requests {
        let request = Frame::Request {
            id,
            formula: wire::FormulaRef::Inline(hashed_formula().into_bytes()),
            spec: test_spec(),
            count,
            master_seed: id,
            budget_micros: 0,
        };
        stream.write_all(&request.encode()).expect("request sent");
    }
    stream
}

/// Regression: a request whose client stopped reading is abandoned when
/// the daemon shuts down, and its unstarted samples are interrupted
/// instead of run. `ServerHandle::shutdown` used to wait until the pool had
/// sampled every queued item of such a request: for a
/// [`MAX_REQUEST_COUNT`] hashed request on one worker, minutes.
#[test]
fn shutdown_is_prompt_with_a_non_reading_max_count_request() {
    let mut config = unix_config("non-reading");
    config.workers = 1;
    let handle = serve(config).expect("daemon starts");
    let path = handle.unix_path().expect("unix listener bound").clone();

    let mut stalled = hashed_requests(&path, [(1, MAX_REQUEST_COUNT)]);
    let mut decoder = Decoder::new();
    match next_frame(&mut stalled, &mut decoder) {
        Frame::StreamBegin { id: 1, .. } => {}
        other => panic!("expected StreamBegin, got {other:?}"),
    }
    // Prepared and streaming; read nothing more.
    within_bound("ServerHandle::shutdown", move || handle.shutdown());
    drop(stalled);
}

/// The daemon's one admission bound: one connection that stopped reading
/// holds [`MAX_IN_FLIGHT_REQUESTS`] requests in flight, and another
/// connection's request is answered at once with a typed `Busy`. Once the
/// first connection goes, its abandoned requests free their places
/// promptly, and the same request is served bit-identical to
/// `sample_batch`.
#[test]
fn requests_past_the_in_flight_bound_are_busy_until_a_place_frees() {
    let mut config = unix_config("in-flight");
    config.workers = 1;
    let handle = serve(config).expect("daemon starts");
    let path = handle.unix_path().expect("unix listener bound").clone();

    let ids = 1..=MAX_IN_FLIGHT_REQUESTS as u64;
    let mut greedy = hashed_requests(&path, ids.map(|id| (id, 4096)));
    // The reader thread admits frames in order, so once it has answered a
    // health request sent after them, every request above is in flight:
    // each holds at least seconds of one-worker sampling.
    greedy
        .write_all(&Frame::HealthReq.encode())
        .expect("health request sent");
    let mut decoder = Decoder::new();
    while !matches!(next_frame(&mut greedy, &mut decoder), Frame::Health(_)) {}

    let request = ClientRequest::inline(DIMACS, 16, 6).with_spec(test_spec());
    let mut client = Client::connect_unix(&path).expect("second client connects");
    let (mut client, busy) = within_bound("the answer past the bound", {
        let request = request.clone();
        move || {
            let answer = client.sample(&request);
            (client, answer)
        }
    });
    match busy {
        Err(ClientError::Rejected { code, .. }) => assert_eq!(code, ErrorCode::Busy),
        other => panic!("expected a typed Busy rejection, got {other:?}"),
    }

    drop(greedy);
    let batch = within_bound("the request once the greedy client left", move || loop {
        match client.sample(&request) {
            Err(ClientError::Rejected {
                code: ErrorCode::Busy,
                ..
            }) => std::thread::sleep(std::time::Duration::from_millis(10)),
            answer => break answer,
        }
    })
    .expect("the request is served once places free");
    assert_batch_matches_reference(&batch, 16, 6);

    handle.shutdown();
}
