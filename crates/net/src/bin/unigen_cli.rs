//! Command-line front end: sample almost-uniform witnesses from a DIMACS CNF
//! file, in the spirit of the original UniGen tool.
//!
//! ```text
//! unigen_cli [OPTIONS] <FILE.cnf>
//! unigen_cli batch [OPTIONS] <FILE.cnf>
//! unigen_cli serve [--listen ADDR] [--unix PATH] [SERVE-OPTIONS] [FILE.cnf ...]
//! unigen_cli client (--connect ADDR | --unix PATH) [CLIENT-OPTIONS] [FILE.cnf]
//!
//! Options:
//!   --samples N      number of witnesses to generate            [default: 10]
//!   --epsilon E      tolerance ε (> 1.71)                       [default: 6.0]
//!   --seed S         random seed                                [default: 1]
//!   --timeout SECS   per-solver-call budget in seconds          [default: none]
//!   --certify        verify a DRAT-style proof of every cell online
//!   --proof-dump F   write the raw proof stream to F (not with `batch`;
//!                    implies --certify)
//!   --verbose        print per-sample statistics to stderr
//!
//! batch-only options:
//!   --jobs N         service worker threads (0 = all cores)     [default: 0]
//!
//! serve options (daemon mode; see `unigen_net::server`):
//!   --listen ADDR    TCP listen address (e.g. 127.0.0.1:4171)
//!   --unix PATH      unix-domain socket path
//!   --jobs N         worker threads of the daemon's one shared pool
//!   --max-formulas N prepared formulas kept; past it the least recently
//!                    used one is evicted (preloads never are) [default: 64]
//!   --allow-shutdown honor wire Shutdown frames
//!   --quiet          suppress serve log lines
//!   positional FILE.cnf arguments are preloaded into the registry
//!
//! client options (talk to a daemon):
//!   --connect ADDR   TCP address of the daemon
//!   --unix PATH      unix-domain socket of the daemon
//!   --samples N      witnesses to request                       [default: 10]
//!   --seed S         master seed for the batch                  [default: 1]
//!   --epsilon E      tolerance ε sent in the spec               [default: 6.0]
//!   --prepare-seed S prepare-phase seed sent in the spec
//!   --timeout SECS   soft budget for the whole request, in seconds
//!   --fingerprint H  request by 16-hex-digit registry fingerprint
//!   --health         print the daemon's health snapshot
//!   --selftest       also run the same batch in-process and assert the wire
//!                    witnesses are bit-identical (needs FILE.cnf)
//!   --cancel-demo    submit a second larger request and cancel it mid-stream
//!   --shutdown       ask the daemon to exit (needs --allow-shutdown)
//! ```
//!
//! The `batch` subcommand drives the request/response [`SamplerService`]:
//! it prepares one UniGen sampler with [`UniGen::new`], spawns the
//! persistent work-stealing pool once, submits one typed [`SampleRequest`]
//! for `--samples` witnesses with master seed `--seed`, streams the
//! response's witnesses as its index-ordered prefix completes, and prints
//! the request's round-trip time and aggregate [`unigen::SampleStats`]
//! (every non-zero counter, including the pool-stamped wall time, queue
//! wait and steals). The run ends with the per-worker item and steal
//! counts and a [`unigen::ServiceHealth`] summary.
//!
//! In `batch`, sample `i` draws its randomness from a dedicated stream
//! derived from `(seed, i)`, so the emitted witness sequence is identical
//! for every `--jobs` value — unless `--timeout` is also given: a
//! per-`BSAT` cutoff fires based on each worker solver's private
//! accumulated state, which can make different samples fail at different
//! worker counts (the CLI warns when the two flags are combined).
//! Without `batch`, sampling is serial: one RNG seeded with `--seed` is
//! consumed across all samples, each witness streamed out as it is
//! produced.
//!
//! The sampling set is taken from `c ind … 0` comment lines in the input
//! file (the convention of the original UniGen benchmark suite); without
//! them, the full support is used.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;

use unigen::{
    PreparedMode, SampleOutcome, SampleRequest, SamplerService, ServiceConfig, UniGen,
    UniGenConfig, WitnessSampler,
};
use unigen_cnf::dimacs;
use unigen_net::client::{Client, ClientError, ClientRequest};
use unigen_net::server::{default_spec, ServeConfig};
use unigen_net::wire::ErrorCode;
use unigen_satsolver::Budget;

#[derive(Debug, Clone)]
struct CliOptions {
    file: String,
    samples: usize,
    epsilon: f64,
    seed: u64,
    timeout: Option<Duration>,
    /// Service worker threads, `0` = one per core (batch only).
    jobs: usize,
    /// Certified enumeration: solver-side proof logging plus the online
    /// independent checker.
    certify: bool,
    /// Write the raw proof stream here after a serial run (implies
    /// `certify`); `cargo xtask certify` re-checks it offline.
    proof_dump: Option<String>,
    verbose: bool,
    /// `batch` subcommand: drive the request/response service.
    batch: bool,
}

fn usage() -> &'static str {
    "usage: unigen_cli [batch] [--samples N] [--epsilon E] [--seed S] [--timeout SECS] \
     [--jobs N] [--certify] [--proof-dump FILE] [--verbose] <FILE.cnf>\n\
     (daemon mode: `unigen_cli serve --help`; remote sampling: `unigen_cli client --help`)"
}

fn serve_usage() -> &'static str {
    "usage: unigen_cli serve [--listen ADDR] [--unix PATH] [--jobs N] \
     [--max-formulas N] [--allow-shutdown] [--quiet] [FILE.cnf ...]\n\
     at least one of --listen / --unix is required; positional files are preloaded\n\
     and never evicted; --jobs sizes the one worker pool all formulas share"
}

fn client_usage() -> &'static str {
    "usage: unigen_cli client (--connect ADDR | --unix PATH) [--samples N] [--seed S] \
     [--epsilon E] [--prepare-seed S] [--timeout SECS] [--fingerprint HEX] [--health] \
     [--selftest] [--cancel-demo] [--shutdown] [FILE.cnf]"
}

fn parse_args(args: &[String]) -> Result<CliOptions, String> {
    let mut options = CliOptions {
        file: String::new(),
        samples: 10,
        epsilon: 6.0,
        seed: 1,
        timeout: None,
        jobs: 0,
        certify: false,
        proof_dump: None,
        verbose: false,
        batch: false,
    };
    let mut args = args;
    if args.first().map(String::as_str) == Some("batch") {
        options.batch = true;
        args = &args[1..];
    }
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--samples" => {
                options.samples = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--samples needs a positive integer")?;
            }
            "--epsilon" => {
                options.epsilon = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--epsilon needs a number > 1.71")?;
            }
            "--seed" => {
                options.seed = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--seed needs an unsigned integer")?;
            }
            "--timeout" => {
                let secs: u64 = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--timeout needs a number of seconds")?;
                options.timeout = Some(Duration::from_secs(secs));
            }
            "--jobs" => {
                options.jobs = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--jobs needs an unsigned integer (0 = all cores)")?;
                if !options.batch {
                    return Err(format!("--jobs is a `batch` option\n{}", usage()));
                }
            }
            "--certify" => options.certify = true,
            "--proof-dump" => {
                let path = iter.next().ok_or("--proof-dump needs a file path")?;
                options.proof_dump = Some(path.clone());
                options.certify = true;
            }
            "--verbose" => options.verbose = true,
            "--help" | "-h" => return Err(usage().to_string()),
            other if other.starts_with("--") => {
                return Err(format!("unknown option `{other}`\n{}", usage()));
            }
            file => {
                if !options.file.is_empty() {
                    return Err(format!("unexpected extra argument `{file}`\n{}", usage()));
                }
                options.file = file.to_string();
            }
        }
    }
    if options.file.is_empty() {
        return Err(usage().to_string());
    }
    if options.proof_dump.is_some() && options.batch {
        return Err(
            "--proof-dump needs the serial path (no `batch`): worker solver clones fork \
             the proof stream, so only the serial sampler's stream is complete"
                .to_string(),
        );
    }
    Ok(options)
}

fn run(options: &CliOptions) -> Result<(), String> {
    let formula = dimacs::parse_file(&options.file)
        .map_err(|e| format!("cannot read `{}`: {e}", options.file))?;
    let sampling_set = formula.sampling_set_or_all();
    eprintln!(
        "c parsed `{}`: {} variables, {} clauses, {} xor clauses, |S| = {}",
        options.file,
        formula.num_vars(),
        formula.num_clauses(),
        formula.num_xor_clauses(),
        sampling_set.len()
    );

    let mut budget = Budget::new();
    if let Some(timeout) = options.timeout {
        budget = budget.with_time_limit(timeout);
    }
    let config = UniGenConfig::default()
        .with_epsilon(options.epsilon)
        .with_seed(options.seed)
        .with_bsat_budget(budget)
        .with_certify(options.certify);
    let mut sampler =
        UniGen::new(&formula, config).map_err(|e| format!("preparation failed: {e}"))?;
    match sampler.prepared_mode() {
        PreparedMode::Enumerated { witnesses } => {
            eprintln!(
                "c preparation: {} witnesses enumerated directly",
                witnesses.len()
            );
        }
        PreparedMode::Hashed { approx_count, q } => {
            eprintln!(
                "c preparation: ApproxMC estimate {approx_count}, hash widths {}..{q}",
                q.saturating_sub(3)
            );
        }
    }

    // Prints one outcome (witness line or failure marker) and returns
    // whether it was a success.
    let emit = |i: usize, outcome: &SampleOutcome| -> bool {
        let success = match &outcome.witness {
            Some(witness) => {
                // Print the witness as the projection on the sampling set in
                // DIMACS literal form, matching the original tool's output.
                let lits: Vec<String> = witness
                    .project(&sampling_set)
                    .to_lits()
                    .iter()
                    .map(|l| l.to_string())
                    .collect();
                println!("v {} 0", lits.join(" "));
                true
            }
            None => {
                // The typed failure taxonomy: a genuine ⊥ (the algorithm's
                // own reject), a budget interruption (retryable), or an
                // injected/unrecovered fault.
                println!("c sample {i} failed ({})", outcome.kind);
                false
            }
        };
        if options.verbose {
            let line = format!("c sample {i}: kind={} {}", outcome.kind, outcome.stats);
            eprintln!("{}", line.trim_end());
        }
        success
    };

    if options.batch {
        return run_batch(options, sampler, &emit);
    }

    // Serial sampling: one RNG consumed across samples, each witness
    // streamed out as soon as it is produced (no buffering of the whole run).
    let mut produced = 0usize;
    let mut rng = StdRng::seed_from_u64(options.seed);
    for i in 0..options.samples {
        let outcome = sampler.sample(&mut rng);
        produced += usize::from(emit(i, &outcome));
    }
    if options.certify {
        if let Some(err) = sampler.cert_error() {
            return Err(format!("proof certification failed: {err}"));
        }
        if let Some(steps) = sampler.certified_steps() {
            eprintln!("c certified: {steps} proof steps verified by the independent checker");
        }
    }
    if let Some(path) = &options.proof_dump {
        let bytes = sampler
            .proof_bytes()
            .map(<[u8]>::to_vec)
            .unwrap_or_default();
        std::fs::write(path, &bytes).map_err(|e| format!("cannot write `{path}`: {e}"))?;
        eprintln!("c proof stream: {} bytes written to `{path}`", bytes.len());
    }
    eprintln!(
        "c produced {produced}/{} witnesses (observed success probability {:.2})",
        options.samples,
        produced as f64 / options.samples.max(1) as f64
    );
    if options.verbose {
        // The persistent incremental solver's lifetime counters: how many
        // per-cell guards were cycled and how much learned knowledge was
        // scoped to cells (retired) versus kept across them (retained).
        eprintln!("c solver: {}", sampler.solver_stats());
    }
    Ok(())
}

/// The `batch` subcommand: drive the persistent request/response service and
/// report the round-trip statistics of every request.
fn run_batch(
    options: &CliOptions,
    sampler: UniGen,
    emit: &dyn Fn(usize, &SampleOutcome) -> bool,
) -> Result<(), String> {
    if options.timeout.is_some() {
        eprintln!(
            "c warning: --timeout makes BSAT cutoffs depend on per-worker solver state, \
             so the witness sequence may differ between --jobs values"
        );
    }
    let mut config = ServiceConfig::default();
    if options.jobs > 0 {
        config = config.with_workers(options.jobs);
    }
    let service = SamplerService::try_new(sampler, config)
        .map_err(|e| format!("cannot start the sampler service: {e}"))?;
    eprintln!(
        "c service: {} worker thread(s), request queue capacity {}",
        service.pool().workers(),
        service.pool().queue_capacity()
    );

    let mut handle = service.submit(SampleRequest::new(options.samples, options.seed));
    let mut produced = 0usize;
    for (i, outcome) in handle.by_ref().enumerate() {
        produced += usize::from(emit(i, &outcome));
    }
    let request = handle.request();
    let response = handle.wait();
    eprintln!(
        "c request 0: seed={} witnesses={}/{} round_trip={:?} {}",
        request.master_seed,
        response.successes(),
        request.count,
        response.round_trip,
        response.aggregate_stats
    );

    eprintln!(
        "c produced {produced}/{} witnesses (observed success probability {:.2})",
        options.samples,
        produced as f64 / options.samples.max(1) as f64
    );
    eprintln!(
        "c service totals: worker_items={:?} worker_steals={:?}",
        service.pool().worker_items(),
        service.pool().worker_steals()
    );
    let health = service.pool().health();
    eprintln!(
        "c service health: workers={} panics={} respawns={} item_retries={} faults_injected={}",
        health.configured_workers,
        health.worker_panics,
        health.respawns,
        health.item_retries,
        health.faults_injected
    );
    Ok(())
}

// ---------------------------------------------------------------------------
// `serve` subcommand: run the network daemon (crates/net)
// ---------------------------------------------------------------------------

fn parse_serve_args(args: &[String]) -> Result<ServeConfig, String> {
    let mut config = ServeConfig::default();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--listen" => {
                config.tcp = Some(
                    iter.next()
                        .ok_or("--listen needs an address (e.g. 127.0.0.1:4171)")?
                        .clone(),
                );
            }
            "--unix" => {
                config.unix = Some(PathBuf::from(
                    iter.next().ok_or("--unix needs a socket path")?,
                ));
            }
            "--jobs" => {
                config.workers = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--jobs needs an unsigned integer (0 = service default)")?;
            }
            "--max-formulas" => {
                config.max_formulas = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n: &usize| n > 0)
                    .ok_or("--max-formulas needs a positive integer")?;
            }
            "--allow-shutdown" => config.allow_shutdown = true,
            "--quiet" => config.quiet = true,
            "--help" | "-h" => return Err(serve_usage().to_string()),
            other if other.starts_with("--") => {
                return Err(format!("unknown serve option `{other}`\n{}", serve_usage()));
            }
            file => {
                let text = std::fs::read_to_string(file)
                    .map_err(|e| format!("cannot read preload file `{file}`: {e}"))?;
                config.preload.push(text);
            }
        }
    }
    if config.tcp.is_none() && config.unix.is_none() {
        return Err(format!(
            "serve needs at least one listener\n{}",
            serve_usage()
        ));
    }
    Ok(config)
}

fn run_serve(config: ServeConfig) -> Result<(), String> {
    let handle = unigen_net::serve(config).map_err(|e| e.to_string())?;
    // Block until a wire `Shutdown` frame stops the loop (requires
    // --allow-shutdown) or the process is killed.
    handle.wait();
    Ok(())
}

// ---------------------------------------------------------------------------
// `client` subcommand: talk to a daemon over TCP or a unix socket
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct ClientOptions {
    /// TCP address of the daemon (mutually exclusive with `unix`).
    connect: Option<String>,
    /// Unix-domain socket path of the daemon.
    unix: Option<PathBuf>,
    /// DIMACS file to send inline (omit when using `fingerprint`).
    file: Option<String>,
    /// Request a formula already prepared in the server's registry.
    fingerprint: Option<u64>,
    samples: u64,
    /// Master seed of the requested batch.
    seed: u64,
    epsilon: f64,
    /// Prepare-phase seed sent in the spec (`None` = server default).
    prepare_seed: Option<u64>,
    /// Soft budget for the whole request in seconds (0 on the wire =
    /// unbounded).
    timeout: Option<u64>,
    health: bool,
    /// Re-run the batch in-process and assert wire bit-identity.
    selftest: bool,
    /// Submit and cancel a second, larger request mid-stream.
    cancel_demo: bool,
    /// Send a `Shutdown` frame after everything else.
    shutdown: bool,
}

fn parse_client_args(args: &[String]) -> Result<ClientOptions, String> {
    let mut options = ClientOptions {
        connect: None,
        unix: None,
        file: None,
        fingerprint: None,
        samples: 10,
        seed: 1,
        epsilon: 6.0,
        prepare_seed: None,
        timeout: None,
        health: false,
        selftest: false,
        cancel_demo: false,
        shutdown: false,
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--connect" => {
                options.connect = Some(iter.next().ok_or("--connect needs an address")?.clone());
            }
            "--unix" => {
                options.unix = Some(PathBuf::from(
                    iter.next().ok_or("--unix needs a socket path")?,
                ));
            }
            "--samples" => {
                options.samples = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--samples needs an unsigned integer")?;
            }
            "--seed" => {
                options.seed = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--seed needs an unsigned integer")?;
            }
            "--epsilon" => {
                options.epsilon = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--epsilon needs a number > 1.71")?;
            }
            "--prepare-seed" => {
                options.prepare_seed = Some(
                    iter.next()
                        .and_then(|v| v.parse().ok())
                        .ok_or("--prepare-seed needs an unsigned integer")?,
                );
            }
            "--timeout" => {
                options.timeout = Some(
                    iter.next()
                        .and_then(|v| v.parse().ok())
                        .ok_or("--timeout needs a number of seconds")?,
                );
            }
            "--fingerprint" => {
                let hex = iter.next().ok_or("--fingerprint needs 16 hex digits")?;
                options.fingerprint = Some(
                    u64::from_str_radix(hex.trim_start_matches("0x"), 16)
                        .map_err(|_| "--fingerprint needs 16 hex digits".to_string())?,
                );
            }
            "--health" => options.health = true,
            "--selftest" => options.selftest = true,
            "--cancel-demo" => options.cancel_demo = true,
            "--shutdown" => options.shutdown = true,
            "--help" | "-h" => return Err(client_usage().to_string()),
            other if other.starts_with("--") => {
                return Err(format!(
                    "unknown client option `{other}`\n{}",
                    client_usage()
                ));
            }
            file => {
                if options.file.is_some() {
                    return Err(format!(
                        "unexpected extra argument `{file}`\n{}",
                        client_usage()
                    ));
                }
                options.file = Some(file.to_string());
            }
        }
    }
    match (&options.connect, &options.unix) {
        (Some(_), Some(_)) => {
            return Err(format!(
                "--connect and --unix are mutually exclusive\n{}",
                client_usage()
            ))
        }
        (None, None) => {
            return Err(format!(
                "client needs --connect ADDR or --unix PATH\n{}",
                client_usage()
            ))
        }
        _ => {}
    }
    if options.file.is_some() && options.fingerprint.is_some() {
        return Err("pass either FILE.cnf or --fingerprint, not both".to_string());
    }
    if options.file.is_none()
        && options.fingerprint.is_none()
        && !options.health
        && !options.shutdown
    {
        return Err(format!(
            "nothing to do: pass FILE.cnf, --fingerprint, --health, or --shutdown\n{}",
            client_usage()
        ));
    }
    if options.selftest && options.file.is_none() {
        return Err("--selftest needs the FILE.cnf positional argument".to_string());
    }
    if options.cancel_demo && options.file.is_none() && options.fingerprint.is_none() {
        return Err("--cancel-demo needs FILE.cnf or --fingerprint".to_string());
    }
    Ok(options)
}

/// Print a wire witness as a DIMACS `v` line (projection on the
/// sampling set, matching the in-process front end's output).
fn print_wire_witness(sampling_set: &[u32], bits: &[bool]) {
    let lits: Vec<String> = sampling_set
        .iter()
        .zip(bits)
        .map(|(&var, &value)| {
            let lit = i64::from(var) + 1;
            if value { lit } else { -lit }.to_string()
        })
        .collect();
    println!("v {} 0", lits.join(" "));
}

/// Re-run the batch in-process with the same spec and assert the wire
/// outcomes are bit-identical — the end-to-end determinism contract.
fn run_selftest(
    options: &ClientOptions,
    batch: &unigen_net::WireBatch,
    prepare_seed: u64,
) -> Result<(), String> {
    let file = options
        .file
        .as_ref()
        .ok_or("--selftest needs the FILE.cnf positional argument")?;
    let formula = dimacs::parse_file(file).map_err(|e| format!("cannot read `{file}`: {e}"))?;
    let sampling_set = formula.sampling_set_or_all();
    let wire_set: Vec<u32> = sampling_set.iter().map(|v| v.index() as u32).collect();
    if batch.sampling_set != wire_set {
        return Err(format!(
            "selftest: wire sampling set {:?} != local {:?}",
            batch.sampling_set, wire_set
        ));
    }
    let config = UniGenConfig::default()
        .with_epsilon(options.epsilon)
        .with_seed(prepare_seed);
    let mut sampler = UniGen::new(&formula, config)
        .map_err(|e| format!("selftest: in-process preparation failed: {e}"))?;
    let reference = sampler.sample_batch(options.samples as usize, options.seed);
    if reference.len() != batch.outcomes.len() {
        return Err(format!(
            "selftest: wire batch has {} outcomes, in-process has {}",
            batch.outcomes.len(),
            reference.len()
        ));
    }
    for (i, (wire, local)) in batch.outcomes.iter().zip(&reference).enumerate() {
        if wire.kind != local.kind {
            return Err(format!(
                "selftest: outcome {i} kind mismatch: wire {} vs in-process {}",
                wire.kind, local.kind
            ));
        }
        let local_bits: Option<Vec<bool>> = local
            .witness
            .as_ref()
            .map(|model| sampling_set.iter().map(|&v| model.value(v)).collect());
        if wire.witness != local_bits {
            return Err(format!("selftest: outcome {i} witness bits differ"));
        }
    }
    eprintln!(
        "c selftest: {} outcomes bit-identical to in-process sample_batch",
        reference.len()
    );
    Ok(())
}

fn run_client(options: &ClientOptions) -> Result<(), String> {
    let mut client = match (&options.connect, &options.unix) {
        (Some(addr), None) => Client::connect_tcp(addr),
        (None, Some(path)) => Client::connect_unix(path),
        _ => unreachable!("parse_client_args enforces exactly one endpoint"),
    }
    .map_err(|e| e.to_string())?;

    let request = match (&options.file, options.fingerprint) {
        (Some(file), None) => {
            let text =
                std::fs::read_to_string(file).map_err(|e| format!("cannot read `{file}`: {e}"))?;
            Some(ClientRequest::inline(&text, options.samples, options.seed))
        }
        (None, Some(fp)) => Some(ClientRequest::by_fingerprint(
            fp,
            options.samples,
            options.seed,
        )),
        (None, None) => None,
        (Some(_), Some(_)) => unreachable!("parse_client_args rejects both"),
    };

    if let Some(request) = request {
        let mut spec = default_spec();
        spec.epsilon_bits = Some(options.epsilon.to_bits());
        if let Some(seed) = options.prepare_seed {
            spec.prepare_seed = seed;
        }
        let mut request = request.with_spec(spec);
        if let Some(secs) = options.timeout {
            request = request.with_budget_micros(secs.saturating_mul(1_000_000));
        }

        let main_id = client.submit(&request).map_err(|e| e.to_string())?;
        // Submit the demo request *before* collecting the main one so its
        // stream is genuinely in flight when the cancel lands.
        let demo_id = if options.cancel_demo {
            let demo = ClientRequest {
                count: options.samples.saturating_mul(8).max(256),
                master_seed: options.seed.wrapping_add(1),
                ..request.clone()
            };
            Some(client.submit(&demo).map_err(|e| e.to_string())?)
        } else {
            None
        };

        let batch = client.collect(main_id).map_err(|e| e.to_string())?;
        eprintln!(
            "c client: fingerprint {:016x}, |S| = {}",
            batch.fingerprint,
            batch.sampling_set.len()
        );
        for outcome in &batch.outcomes {
            match &outcome.witness {
                Some(bits) => print_wire_witness(&batch.sampling_set, bits),
                None => println!("c sample {} failed ({})", outcome.index, outcome.kind),
            }
        }
        eprintln!(
            "c client: {} witnesses / {} requested, bsat_calls={} steals={} retries={} \
             degradations={} faults={} queue_wait={}us wall={}us",
            batch.successes,
            options.samples,
            batch.stats.bsat_calls,
            batch.stats.steals,
            batch.stats.retries,
            batch.stats.degradations,
            batch.stats.faults_injected,
            batch.stats.queue_wait_micros,
            batch.stats.wall_micros
        );

        if let Some(id) = demo_id {
            client.cancel(id).map_err(|e| e.to_string())?;
            match client.collect(id) {
                Err(ClientError::Rejected {
                    code: ErrorCode::Cancelled,
                    ..
                }) => {
                    eprintln!("c cancel-demo: request {id} cancelled mid-stream");
                }
                Ok(done) => {
                    // The demo batch raced to completion before the cancel
                    // frame arrived; that is legal, just note it.
                    eprintln!(
                        "c cancel-demo: request {id} finished before the cancel landed \
                         ({} outcomes)",
                        done.outcomes.len()
                    );
                }
                Err(err) => return Err(format!("cancel-demo failed: {err}")),
            }
        }

        if options.selftest {
            run_selftest(options, &batch, spec.prepare_seed)?;
        }
    }

    if options.health {
        let health = client.health().map_err(|e| e.to_string())?;
        eprintln!(
            "c health: services={} workers={} panics={} respawns={} item_retries={} \
             faults={} pending_requests={} queued_items={} connections={}",
            health.services,
            health.configured_workers,
            health.worker_panics,
            health.respawns,
            health.item_retries,
            health.faults_injected,
            health.pending_requests,
            health.queued_items,
            health.connections
        );
    }

    if options.shutdown {
        client.shutdown_server().map_err(|e| e.to_string())?;
        eprintln!("c shutdown: server acknowledged by closing the connection");
    }

    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let run_result = match args.first().map(String::as_str) {
        Some("serve") => match parse_serve_args(&args[1..]) {
            Ok(config) => run_serve(config),
            Err(message) => {
                eprintln!("{message}");
                return ExitCode::FAILURE;
            }
        },
        Some("client") => match parse_client_args(&args[1..]) {
            Ok(options) => run_client(&options),
            Err(message) => {
                eprintln!("{message}");
                return ExitCode::FAILURE;
            }
        },
        _ => match parse_args(&args) {
            Ok(options) => run(&options),
            Err(message) => {
                eprintln!("{message}");
                return ExitCode::FAILURE;
            }
        },
    };
    match run_result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_defaults_and_file() {
        let options = parse_args(&args(&["input.cnf"])).unwrap();
        assert_eq!(options.file, "input.cnf");
        assert_eq!(options.samples, 10);
        assert_eq!(options.epsilon, 6.0);
        assert!(!options.verbose);
    }

    #[test]
    fn parses_all_options() {
        let options = parse_args(&args(&[
            "--samples",
            "25",
            "--epsilon",
            "3.5",
            "--seed",
            "9",
            "--timeout",
            "30",
            "--verbose",
            "foo.cnf",
        ]))
        .unwrap();
        assert_eq!(options.samples, 25);
        assert_eq!(options.epsilon, 3.5);
        assert_eq!(options.seed, 9);
        assert_eq!(options.timeout, Some(Duration::from_secs(30)));
        assert!(options.verbose);
        assert_eq!(options.file, "foo.cnf");
    }

    #[test]
    fn jobs_defaults_to_serial_and_rejects_garbage() {
        assert_eq!(parse_args(&args(&["a.cnf"])).unwrap().jobs, 0);
        assert_eq!(
            parse_args(&args(&["batch", "--jobs", "0", "a.cnf"]))
                .unwrap()
                .jobs,
            0
        );
        assert!(parse_args(&args(&["batch", "--jobs", "many", "a.cnf"])).is_err());
        assert!(parse_args(&args(&["batch", "--jobs"])).is_err());
    }

    #[test]
    fn jobs_without_batch_is_rejected() {
        let err = parse_args(&args(&["--jobs", "2", "a.cnf"])).unwrap_err();
        assert!(
            err.starts_with("--jobs is a `batch` option"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn batch_subcommand_parses_its_options() {
        let options =
            parse_args(&args(&["batch", "--samples", "40", "--jobs", "3", "a.cnf"])).unwrap();
        assert!(options.batch);
        assert_eq!(options.samples, 40);
        assert_eq!(options.jobs, 3);
        assert!(!parse_args(&args(&["a.cnf"])).unwrap().batch);
    }

    #[test]
    fn batch_rejects_request_splitting_and_queue_options() {
        for argv in [
            &["batch", "--requests", "2", "a.cnf"][..],
            &["batch", "--queue", "2", "a.cnf"][..],
        ] {
            let err = parse_args(&args(argv)).unwrap_err();
            assert!(err.starts_with("unknown option `--"), "{argv:?}: {err}");
        }
    }

    #[test]
    fn serve_rejects_a_queue_option() {
        let Err(err) = parse_serve_args(&args(&["--queue", "4", "--unix", "s"])) else {
            panic!("serve accepted --queue");
        };
        assert!(
            err.starts_with("unknown serve option `--queue`"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn certify_and_proof_dump_parse_and_constrain() {
        let options = parse_args(&args(&["--certify", "a.cnf"])).unwrap();
        assert!(options.certify);
        assert!(options.proof_dump.is_none());
        // --proof-dump implies --certify.
        let options = parse_args(&args(&["--proof-dump", "p.bin", "a.cnf"])).unwrap();
        assert!(options.certify);
        assert_eq!(options.proof_dump.as_deref(), Some("p.bin"));
        // The dump needs the serial path: worker clones fork the stream.
        assert!(parse_args(&args(&["batch", "--proof-dump", "p.bin", "a.cnf"])).is_err());
        assert!(parse_args(&args(&["--proof-dump"])).is_err());
        // Plain --certify composes with the parallel path.
        assert!(parse_args(&args(&["batch", "--certify", "--jobs", "2", "a.cnf"])).is_ok());
    }

    #[test]
    fn rejects_missing_file_and_unknown_options() {
        assert!(parse_args(&args(&[])).is_err());
        assert!(parse_args(&args(&["--bogus", "x.cnf"])).is_err());
        assert!(parse_args(&args(&["a.cnf", "b.cnf"])).is_err());
        assert!(parse_args(&args(&["--samples", "nope", "a.cnf"])).is_err());
    }

    #[test]
    fn end_to_end_on_a_temporary_file() {
        let dir = std::env::temp_dir();
        let path = dir.join("unigen_cli_smoke.cnf");
        std::fs::write(&path, "c ind 1 2 0\np cnf 3 2\n1 2 0\nx 1 3 0\n").unwrap();
        let options = CliOptions {
            file: path.to_string_lossy().into_owned(),
            samples: 3,
            epsilon: 6.0,
            seed: 7,
            timeout: None,
            jobs: 0,
            certify: false,
            proof_dump: None,
            verbose: true,
            batch: false,
        };
        run(&options).unwrap();
        // Certified serial run with a proof dump, re-checked offline.
        let dump = dir.join("unigen_cli_smoke.proof");
        let certified = CliOptions {
            certify: true,
            proof_dump: Some(dump.to_string_lossy().into_owned()),
            ..options.clone()
        };
        run(&certified).unwrap();
        let formula = dimacs::parse_file(&certified.file).unwrap();
        let bytes = std::fs::read(&dump).unwrap();
        assert!(!bytes.is_empty());
        unigen_cert::Checker::check(&unigen::cert_formula(&formula), &bytes).unwrap();
        let _ = std::fs::remove_file(&dump);
        // The service-backed batch subcommand path.
        let options = CliOptions {
            batch: true,
            jobs: 2,
            samples: 5,
            ..options
        };
        run(&options).unwrap();
        let _ = std::fs::remove_file(&path);
    }
}
