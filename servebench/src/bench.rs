//! One workload run: daemon set-up, warm-up, the timed closed loop, the
//! untimed output checks, and (traced runs) the in-process replay.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use unigen_net::wire::WireHealth;

use crate::check::{check_stream, WitnessCheck};
use crate::daemon::{Daemon, DaemonSpec};
use crate::gen::{derive, Plan, Planned, Reference, Residents, Workload};
use crate::replay::{cert_overhead, replay};
use crate::stats::{median, summarize, Report, END_TO_END, PER_LAYER};
use crate::trace::SpanLog;
use crate::wireconn::{Exchange, WireConn};

/// Daemons started per untraced run; `setup_s` is their median set-up.
const SETUP_REPEATS: usize = 3;

/// Count-1 probe requests used for `server.overhead_*` on workloads whose
/// own requests ask for several witnesses.
const OVERHEAD_PROBES: usize = 40;

/// Witnesses sampled on each side of the certification-overhead ratio.
const CERT_BATCH: usize = 64;

/// Fixed facts about the host and the build, printed with every result.
pub struct Host {
    /// `available_parallelism`.
    pub nproc: usize,
    /// Daemon `--jobs` (= nproc) and client connections cap.
    pub jobs: usize,
    /// Commit, or a digest of the sources when not in a git checkout.
    pub commit: String,
}

/// Run-wide settings.
pub struct Setup<'a> {
    /// The `unigen_cli` binary.
    pub daemon: &'a Path,
    /// Scratch directory for socket and resident files.
    pub run_dir: &'a Path,
    /// Where traced runs write their spans.
    pub trace_dir: &'a Path,
    /// Host facts.
    pub host: &'a Host,
    /// Resident formulas and their DIMACS files.
    pub residents: &'a Residents,
    /// Files the daemon preloads.
    pub resident_files: &'a [PathBuf],
    /// Workload seed.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: u64,
}

/// What a run produced.
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Requests sent in the timed phase(s).
    pub attempted: u64,
    /// Requests that did not end in `Done`.
    pub failed: u64,
    /// The metrics.
    pub report: Report,
    /// Check failures, if any.
    pub problems: Vec<String>,
}

/// Requests and probes of one timed phase.
struct Phase {
    records: Vec<(Planned, Exchange)>,
    /// Requests sent whose connection broke before an answer.
    lost: Vec<(Planned, String)>,
    wall: Duration,
    cpu_s: Option<f64>,
    threads_peak: u64,
    health: WireHealth,
    rss_mb: Option<f64>,
    spans: Option<SpanLog>,
    warmup: (Planned, Exchange),
}

impl Phase {
    fn sent(&self) -> u64 {
        (self.records.len() + self.lost.len()) as u64
    }

    fn answered(&self) -> impl Iterator<Item = &(Planned, Exchange)> {
        self.records.iter().filter(|(_, ex)| ex.answered())
    }

    fn witnesses(&self) -> u64 {
        self.records.iter().map(|(_, ex)| ex.witnesses()).sum()
    }
}

impl Setup<'_> {
    fn spec(&self, workload: Workload, name: &str) -> DaemonSpec<'_> {
        DaemonSpec {
            binary: self.daemon,
            sock: self.run_dir.join(name),
            jobs: self.host.jobs,
            max_formulas: workload.max_formulas(self.seconds),
            residents: self.resident_files,
        }
    }

    /// Untraced run: end-to-end metrics.
    pub fn run_untraced(&self, workload: Workload) -> Result<Outcome, String> {
        let mut setups = Vec::new();
        let mut serving = None;
        for i in 0..SETUP_REPEATS {
            let (daemon, control, took) =
                Daemon::start(&self.spec(workload, &format!("d{i}.sock")))?;
            setups.push(took.as_secs_f64());
            if i + 1 < SETUP_REPEATS {
                daemon.shutdown(control)?;
            } else {
                serving = Some((daemon, control));
            }
        }
        let (daemon, control) = serving.expect("at least one set-up");
        let (phase, control) = self.phase(workload, &daemon, control, None)?;
        daemon.shutdown(control)?;

        let mut problems = Vec::new();
        check_phase(&phase, &mut problems);
        let mut report = Report::default();
        let setup = median(&setups).expect("set-up samples");
        report.put(
            &END_TO_END,
            "setup_s",
            setup,
            setups.len(),
            "spawn -> HelloAck, residents preloaded; median",
        );
        end_to_end(workload, &phase, self.host.jobs, &mut report, &mut problems);
        Ok(outcome(report, problems, phase.sent(), failed(&phase)))
    }

    /// Traced run: per-layer metrics. An untraced phase on one daemon and
    /// a traced phase with the same seed on a fresh one give the tracing
    /// overhead; the traced phase is then replayed in process.
    pub fn run_traced(&self, workload: Workload) -> Result<Outcome, String> {
        let (daemon, control, _) = Daemon::start(&self.spec(workload, "u.sock"))?;
        let (plain, control) = self.phase(workload, &daemon, control, None)?;
        daemon.shutdown(control)?;

        let epoch = Instant::now();
        let (daemon, control, _) = Daemon::start(&self.spec(workload, "t.sock"))?;
        let (traced, mut control) = self.phase(workload, &daemon, control, Some(epoch))?;
        let count_one: Vec<&Exchange> = traced
            .answered()
            .filter(|(p, _)| p.count == 1)
            .map(|(_, ex)| ex)
            .collect();
        let probes = if count_one.is_empty() {
            probe_overhead(&mut control, self.residents, self.seed)?
        } else {
            Vec::new()
        };
        daemon.shutdown(control)?;

        let mut problems = Vec::new();
        check_phase(&plain, &mut problems);
        check_phase(&traced, &mut problems);

        let mut log = traced.spans.clone().unwrap_or_else(|| SpanLog::new(epoch));
        let budget = Duration::from_secs(3 * self.seconds.max(1));
        let keep = workload != Workload::ColdCircuits;
        let mut requests_to_replay = vec![traced.warmup.clone()];
        requests_to_replay.extend(traced.records.iter().cloned());
        let totals = match replay(&requests_to_replay, keep, self.host.jobs, budget, &mut log) {
            Ok(totals) => Some(totals),
            Err(err) => {
                problems.push(format!("replay: {err}"));
                None
            }
        };
        let cert = cert_overhead(&self.residents.login, CERT_BATCH, derive(self.seed, 0xce27));

        let path =
            self.trace_dir
                .join(format!("spans-{}-seed{}.jsonl", workload.name(), self.seed));
        fs::write(&path, log.to_jsonl()).map_err(|e| format!("writing spans: {e}"))?;
        let self_times = log.self_times();

        let mut r = Report::default();
        let requests = traced.records.len().max(1) as f64;
        let witnesses = traced.witnesses().max(1) as f64;
        let (enc_n, enc_s, _) = self_times.get("wire.encode").copied().unwrap_or_default();
        let (dec_n, dec_s, _) = self_times.get("wire.decode").copied().unwrap_or_default();
        r.put(
            &PER_LAYER,
            "wire.encode_us",
            1e6 * enc_s / enc_n.max(1) as f64,
            enc_n as usize,
            "per Request frame",
        );
        r.put(
            &PER_LAYER,
            "wire.decode_us",
            1e6 * dec_s / dec_n.max(1) as f64,
            dec_n as usize,
            "per decoded frame",
        );
        let bytes: u64 = traced.records.iter().map(|(_, ex)| ex.bytes).sum();
        r.put(
            &PER_LAYER,
            "wire.bytes_per_witness",
            bytes as f64 / witnesses,
            traced.witnesses() as usize,
            "response bytes read / witnesses",
        );

        let (overheads, source): (Vec<f64>, &str) = if count_one.is_empty() {
            (
                probes,
                "count-1 probes to resident login3x6-like after the phase",
            )
        } else {
            (
                count_one
                    .iter()
                    .filter_map(|ex| server_overhead(ex))
                    .collect(),
                "the workload's count-1 requests",
            )
        };
        let overhead = summarize(&overheads, workload.tail_percentile());
        let (p50, tail, pct) = overhead.map_or((0.0, 0.0, 0.0), |s| (s.p50, s.tail, s.tail_pct));
        r.put(
            &PER_LAYER,
            "server.overhead_p50_s",
            p50,
            overheads.len(),
            format!("latency - (queue_wait + wall); {source}"),
        );
        r.put(
            &PER_LAYER,
            "server.overhead_tail_s",
            tail,
            overheads.len(),
            format!("p{pct}"),
        );
        r.put(
            &PER_LAYER,
            "server.threads_peak",
            traced.threads_peak as f64,
            1,
            "max Threads: in /proc/<pid>/status, polled every 10 ms",
        );
        r.put(
            &PER_LAYER,
            "registry.services",
            traced.health.services as f64,
            1,
            "Health frame after the phase",
        );

        let t = totals.clone().unwrap_or_default();
        let prepares = t.prepares.max(1) as f64;
        r.put(
            &PER_LAYER,
            "cnf.parse_s",
            t.parse_s / t.replayed.max(1) as f64,
            t.parses,
            "parse + to_dimacs_string + fingerprint per replayed request",
        );
        r.put(
            &PER_LAYER,
            "approxmc.s",
            t.approxmc_s / prepares,
            t.prepares,
            "per prepared formula",
        );
        r.put(
            &PER_LAYER,
            "approxmc.bsat_calls",
            t.approxmc_bsat as f64 / prepares,
            t.prepares,
            "per prepared formula",
        );
        r.put(
            &PER_LAYER,
            "prepare.self_s",
            (t.unigen_new_s - t.approxmc_s) / prepares,
            t.prepares,
            "UniGen::new minus a separately timed identical ApproxMC call, per formula",
        );
        r.put(
            &PER_LAYER,
            "service.spawn_s",
            t.spawn_s / prepares,
            t.prepares,
            "SamplerService::try_new per formula",
        );

        let items: u64 = traced.records.iter().map(|(p, _)| p.count).sum();
        let queue_us: u64 = traced
            .records
            .iter()
            .map(|(_, ex)| ex.stats.queue_wait_micros)
            .sum();
        let wall_us: u64 = traced
            .records
            .iter()
            .map(|(_, ex)| ex.stats.wall_micros)
            .sum();
        let steals: u64 = traced.records.iter().map(|(_, ex)| ex.stats.steals).sum();
        r.put(
            &PER_LAYER,
            "service.queue_wait_s_per_witness",
            queue_us as f64 / 1e6 / items.max(1) as f64,
            items as usize,
            "WireStats.queue_wait per requested outcome",
        );
        r.put(
            &PER_LAYER,
            "service.steals_per_request",
            steals as f64 / requests,
            traced.records.len(),
            "WireStats.steals",
        );
        let busy = wall_us as f64 / 1e6 / (self.host.jobs as f64 * traced.wall.as_secs_f64());
        r.put(
            &PER_LAYER,
            "service.busy_frac",
            busy,
            traced.records.len(),
            "sum WireStats.wall / (jobs x phase wall)",
        );

        let outcomes = t.outcomes.max(1) as f64;
        let bsat = t.sample_bsat.max(1) as f64;
        r.put(
            &PER_LAYER,
            "sample.s_per_witness",
            t.sample_s / outcomes,
            t.outcomes as usize,
            "in-process sample_batch per outcome",
        );
        r.put(
            &PER_LAYER,
            "sample.bsat_calls_per_witness",
            t.sample_bsat as f64 / outcomes,
            t.outcomes as usize,
            "SampleStats.bsat_calls per outcome",
        );
        r.put(
            &PER_LAYER,
            "solver.propagations_per_bsat",
            t.propagations as f64 / bsat,
            t.sample_bsat as usize,
            "solver_stats() delta around sample_batch",
        );
        r.put(
            &PER_LAYER,
            "solver.conflicts_per_bsat",
            t.conflicts as f64 / bsat,
            t.sample_bsat as usize,
            "",
        );
        r.put(
            &PER_LAYER,
            "solver.gauss_row_ops_per_bsat",
            t.gauss_row_ops as f64 / bsat,
            t.sample_bsat as usize,
            "",
        );
        match cert {
            Ok(ratio) => r.put(
                &PER_LAYER,
                "cert.overhead_ratio",
                ratio,
                CERT_BATCH,
                "login3x6-like sample_batch certify on / off",
            ),
            Err(err) => {
                problems.push(format!("certification: {err}"));
                r.put(&PER_LAYER, "cert.overhead_ratio", 0.0, 0, "failed");
            }
        }

        let lat = |phase: &Phase| {
            let v: Vec<f64> = phase
                .answered()
                .filter_map(|(_, ex)| ex.latency_s())
                .collect();
            median(&v)
        };
        let overhead = match (lat(&plain), lat(&traced)) {
            (Some(a), Some(b)) if a > 0.0 => (b - a) / a,
            _ => 0.0,
        };
        r.put(
            &PER_LAYER,
            "trace.overhead_frac",
            overhead,
            traced.records.len(),
            "traced vs untraced latency p50, same seed",
        );

        // Blocking path of a mean request: client codec, the mean item's
        // queue wait plus sampling (exact for count 1; for larger counts
        // the gap to the slowest item stays unattributed), and parse and
        // prepare as replayed in process. The rest is unattributed:
        // socket, event loop, request thread, registry, scheduling.
        let answered: Vec<&(Planned, Exchange)> = traced.answered().collect();
        let mean_latency = answered
            .iter()
            .filter_map(|(_, ex)| ex.latency_s())
            .sum::<f64>()
            / answered.len().max(1) as f64;
        let server: f64 = answered
            .iter()
            .map(|(p, ex)| {
                (ex.stats.queue_wait_micros + ex.stats.wall_micros) as f64
                    / 1e6
                    / p.count.max(1) as f64
            })
            .sum::<f64>()
            / answered.len().max(1) as f64;
        let codec = (enc_s + dec_s) / requests;
        // Residents are prepared at set-up; only cold formulas pay prepare
        // inside a request.
        let prepared_in_request = if keep {
            0.0
        } else {
            t.unigen_new_s + t.spawn_s
        };
        let prepare = (t.parse_s + prepared_in_request) / t.replayed.max(1) as f64;
        let attributed = codec + server + prepare;
        let unattributed = if mean_latency > 0.0 {
            (mean_latency - attributed) / mean_latency
        } else {
            0.0
        };
        r.put(
            &PER_LAYER,
            "path.unattributed_frac",
            unattributed,
            answered.len(),
            format!(
                "mean latency {:.6}s = codec {codec:.6} + queue/sample {server:.6} + parse/prepare {prepare:.6} + rest",
                mean_latency
            ),
        );

        if let Some(t) = &totals {
            if t.replayed < t.total {
                println!(
                    "# replay: {} of {} requests within the {}s budget",
                    t.replayed,
                    t.total,
                    budget.as_secs()
                );
            }
        }
        println!("# spans: {} written to {}", log.spans.len(), path.display());
        for (name, (calls, total, own)) in &self_times {
            println!("# self {name:<16} calls={calls:<7} total={total:.6}s self={own:.6}s");
        }
        let sent = plain.sent() + traced.sent();
        let failed = failed(&plain) + failed(&traced);
        Ok(outcome(r, problems, sent, failed))
    }

    /// Warm-up, then the timed closed loop, then the health snapshot.
    fn phase(
        &self,
        workload: Workload,
        daemon: &Daemon,
        mut control: WireConn,
        trace: Option<Instant>,
    ) -> Result<(Phase, WireConn), String> {
        let warm = Plan::warmup(workload, self.seed, self.residents);
        let warm_ex = control.request(&warm, 0)?;
        if !warm_ex.answered() {
            return Err(format!("warm-up request failed: {:?}", warm_ex.error));
        }
        let fingerprint = warm_ex
            .fingerprint
            .ok_or("warm-up answer carried no StreamBegin")?;

        let connections = workload.connections(self.host.jobs);
        let mut conns = Vec::with_capacity(connections);
        for _ in 0..connections {
            let mut conn = daemon.connect()?;
            conn.trace = trace.map(SpanLog::new);
            conns.push(conn);
        }

        let stop = AtomicBool::new(false);
        let cpu_before = daemon.cpu_s();
        let started = Instant::now();
        let deadline = started + Duration::from_secs(self.seconds);
        let seed = self.seed;
        let residents = self.residents;
        let mut threads_peak = 0;
        let results: Vec<_> = thread::scope(|scope| {
            let poller = trace.map(|_| {
                scope.spawn(|| {
                    let mut peak = 0;
                    while !stop.load(Ordering::Relaxed) {
                        peak = peak.max(daemon.threads().unwrap_or(0));
                        thread::sleep(Duration::from_millis(10));
                    }
                    peak
                })
            });
            let handles: Vec<_> = conns
                .into_iter()
                .enumerate()
                .map(|(c, mut conn)| {
                    scope.spawn(move || {
                        let mut plan = Plan::new(workload, seed, c, residents);
                        let mut records = Vec::new();
                        let mut lost = Vec::new();
                        while Instant::now() < deadline {
                            let planned = plan.next_request();
                            match conn.request(&planned, fingerprint) {
                                Ok(ex) => records.push((planned, ex)),
                                Err(err) => {
                                    lost.push((planned, err));
                                    break;
                                }
                            }
                        }
                        (records, lost, conn.trace.take())
                    })
                })
                .collect();
            let results = handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect();
            stop.store(true, Ordering::Relaxed);
            if let Some(poller) = poller {
                threads_peak = poller.join().expect("thread poller panicked");
            }
            results
        });
        let wall = started.elapsed();
        let cpu_after = daemon.cpu_s();
        let rss_mb = daemon.rss_peak_mb();
        let health = control.health()?;

        let mut phase = Phase {
            records: Vec::new(),
            lost: Vec::new(),
            wall,
            cpu_s: cpu_before.zip(cpu_after).map(|(a, b)| b - a),
            threads_peak,
            health,
            rss_mb,
            spans: trace.map(SpanLog::new),
            warmup: (warm, warm_ex),
        };
        for (records, lost, spans) in results {
            phase.records.extend(records);
            phase.lost.extend(lost);
            if let (Some(all), Some(spans)) = (phase.spans.as_mut(), spans) {
                all.absorb(spans);
            }
        }
        Ok((phase, control))
    }
}

/// Server-side overhead of a count-1 request: client latency minus the
/// time the daemon reports for queueing and sampling it.
fn server_overhead(ex: &Exchange) -> Option<f64> {
    let served = (ex.stats.queue_wait_micros + ex.stats.wall_micros) as f64 / 1e6;
    ex.latency_s().map(|l| l - served)
}

/// Count-1 requests by fingerprint to resident login3x6-like, one at a
/// time on the idle daemon.
fn probe_overhead(
    control: &mut WireConn,
    residents: &Residents,
    seed: u64,
) -> Result<Vec<f64>, String> {
    let mut out = Vec::with_capacity(OVERHEAD_PROBES);
    for i in 0..OVERHEAD_PROBES {
        let planned = Planned {
            formula: Arc::clone(&residents.login),
            reference: Reference::Fingerprint,
            count: 1,
            master_seed: derive(derive(seed, 0x9b0e), i as u64),
        };
        let ex = control.request(&planned, residents.login.fingerprint)?;
        if let Some(overhead) = server_overhead(&ex) {
            out.push(overhead);
        }
    }
    Ok(out)
}

fn failed(phase: &Phase) -> u64 {
    phase.sent() - phase.answered().count() as u64
}

fn outcome(report: Report, problems: Vec<String>, attempted: u64, failed: u64) -> Outcome {
    Outcome {
        correct: problems.is_empty(),
        attempted,
        failed,
        report,
        problems,
    }
}

/// Untimed output checks of one phase.
fn check_phase(phase: &Phase, problems: &mut Vec<String>) {
    let mut witnesses = WitnessCheck::default();
    let (warm, warm_ex) = &phase.warmup;
    for (planned, ex) in
        std::iter::once((warm, warm_ex)).chain(phase.answered().map(|(p, e)| (p, e)))
    {
        if let Err(err) = check_stream(&planned.formula, planned.count, ex) {
            problems.push(err);
        }
        witnesses.add(&planned.formula, ex);
    }
    if let Err(err) = witnesses.run() {
        problems.push(err);
    }
    if phase.health.worker_panics > 0 {
        problems.push(format!(
            "{} worker panics in the final Health frame",
            phase.health.worker_panics
        ));
    }
    for (planned, err) in &phase.lost {
        eprintln!(
            "servebench: request for {} lost: {err}",
            planned.formula.name
        );
    }
}

fn end_to_end(
    workload: Workload,
    phase: &Phase,
    jobs: usize,
    r: &mut Report,
    problems: &mut Vec<String>,
) {
    let ttfw: Vec<f64> = phase.answered().filter_map(|(_, ex)| ex.ttfw_s()).collect();
    let latency: Vec<f64> = phase
        .answered()
        .filter_map(|(_, ex)| ex.latency_s())
        .collect();
    let pct = workload.tail_percentile();
    match (summarize(&ttfw, pct), summarize(&latency, pct)) {
        (Some(t), Some(l)) => {
            r.put(
                &END_TO_END,
                "ttfw_p50_s",
                t.p50,
                t.n,
                "request written -> first Witness chunk",
            );
            r.put(
                &END_TO_END,
                "ttfw_tail_s",
                t.tail,
                t.n,
                format!("p{}", t.tail_pct),
            );
            r.put(
                &END_TO_END,
                "latency_p50_s",
                l.p50,
                l.n,
                "request written -> Done",
            );
            r.put(
                &END_TO_END,
                "latency_tail_s",
                l.tail,
                l.n,
                format!("p{}", l.tail_pct),
            );
        }
        _ => problems.push("no answered request carried a witness".to_owned()),
    }
    let witnesses = phase.witnesses();
    r.put(
        &END_TO_END,
        "witnesses_per_s",
        witnesses as f64 / phase.wall.as_secs_f64(),
        witnesses as usize,
        format!("over {:.3}s wall", phase.wall.as_secs_f64()),
    );
    let sent = phase.sent();
    let answered = phase.answered().count();
    r.put(
        &END_TO_END,
        "answered_frac",
        answered as f64 / sent.max(1) as f64,
        sent as usize,
        "requests ending in Done / sent",
    );
    let requested: u64 = phase.records.iter().map(|(p, _)| p.count).sum::<u64>()
        + phase.lost.iter().map(|(p, _)| p.count).sum::<u64>();
    r.put(
        &END_TO_END,
        "witness_yield",
        witnesses as f64 / requested.max(1) as f64,
        requested as usize,
        "Witness outcomes / outcomes requested",
    );
    match phase.rss_mb {
        Some(mb) => r.put(&END_TO_END, "rss_mb", mb, 1, "daemon VmHWM"),
        None => problems.push("could not read the daemon's VmHWM".to_owned()),
    }
    match phase.cpu_s {
        Some(cpu) => r.put(
            &END_TO_END,
            "cpu_ms_per_witness",
            1e3 * cpu / witnesses.max(1) as f64,
            witnesses as usize,
            format!("daemon utime+stime over the phase, --jobs {jobs}"),
        ),
        None => problems.push("could not read the daemon's CPU time".to_owned()),
    }
}
