//! Benchmark of the DAS simulator: host cost and simulated outcomes of four
//! workloads, end to end (`--trace 0`) or split by crate (`--trace 1`).
//!
//! ```text
//! perfbench --workload <steady|overload|traced_faults|chaos> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Prints one `name value unit` line per metric on stderr and, as the last
//! line of stdout, one JSON object `{"correct", "attempted", "failed",
//! "metrics"}`. Exits 1 when any simulation run errors or fails the
//! correctness gate, 2 on bad arguments. See `README.md` for the workloads
//! and the meaning of every metric.

mod layers;
mod util;
mod work;

use std::process::ExitCode;
use std::time::Instant;

use das_chaos::search;
use das_core::adapter::RequestStream;
use das_store::engine::RunResult;

use util::{calibration_s, median, peak_rss_mb, timed};
use work::{Kind, Prepared, Sim, SimOutcome};

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_SAMPLES: usize = 31;

/// Host seconds the calibration kernel takes on the reference box (see
/// README.md, "Host noise"). Host times are reported in seconds of that
/// box: scaled by how fast the kernel ran during the run.
const CALIBRATION_REF_S: f64 = 0.03;

/// Calibration samples taken after each round.
const CALIBRATION_REPS: usize = 3;

/// Sample of the untimed trace-size probe on workloads whose measured run
/// is untraced (bytes per event do not depend on the sample).
const PROBE_SAMPLE: f64 = 0.25;

pub struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Metrics plus the run/failure tally of the correctness gate.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Report {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn fail(&mut self, why: impl Into<String>) {
        self.failures.push(why.into());
    }

    /// Counts one attempted simulation run and passes it through the
    /// correctness gate; a failure is recorded and yields `None`.
    pub fn attempt(&mut self, r: Result<RunResult, String>) -> Option<RunResult> {
        self.attempted += 1;
        match r.and_then(|r| work::check_run(&r).map(|()| r)) {
            Ok(r) => Some(r),
            Err(e) => {
                self.fail(e);
                None
            }
        }
    }
}

/// A round split into timed parts, with one run of the calibration kernel
/// between consecutive parts. Kernel time belongs to no part.
#[derive(Default)]
pub struct Parts {
    /// Host seconds of each part.
    pub secs: Vec<f64>,
    /// Kernel seconds between parts `i` and `i + 1`.
    pub kernels: Vec<f64>,
}

impl Parts {
    fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        if !self.secs.is_empty() {
            self.kernels.push(calibration_s());
        }
        let (out, secs) = timed(f);
        self.secs.push(secs);
        out
    }

    /// Each part in seconds of the reference box: scaled by the kernel runs
    /// on either side of it, `before` and `after` being the kernel times
    /// just before and just after the round.
    pub fn calibrated(&self, before: f64, after: f64) -> Vec<f64> {
        let mut edges = vec![before];
        edges.extend(&self.kernels);
        edges.push(after);
        self.secs
            .iter()
            .zip(edges.windows(2))
            .map(|(s, e)| s * 2.0 * CALIBRATION_REF_S / (e[0] + e[1]))
            .collect()
    }
}

/// What one measured round produced.
pub struct Round {
    /// The simulations after set-up (and, on `traced_faults`, the trace
    /// exports): on `chaos` the search, then the corpus replays; otherwise
    /// one part per simulation.
    pub parts: Parts,
    /// Simulated requests that reached a terminal state, over the round's
    /// simulations (on `chaos`, its corpus replays).
    pub terminal: u64,
    /// Simulated outcomes that must repeat exactly in every round.
    pub outcome: SimOutcome,
    /// Host seconds inside each `run_simulation` call, by simulation.
    pub run_s: Vec<f64>,
    /// Engine events of each simulation.
    pub events: Vec<u64>,
}

impl Round {
    /// Host seconds of the round.
    pub fn wall_s(&self) -> f64 {
        self.parts.secs.iter().sum()
    }

    /// The round's seconds and terminal requests per second, both in
    /// seconds of the reference box (see `Parts::calibrated`). The search's
    /// own simulations are opaque to the caller, so chaos's request rate is
    /// measured over the corpus replay part alone.
    pub fn calibrated(&self, kind: Kind, before: f64, after: f64) -> (f64, f64) {
        let parts = self.parts.calibrated(before, after);
        let skip = usize::from(kind == Kind::Chaos);
        let rate_s: f64 = parts.iter().skip(skip).sum();
        (parts.iter().sum(), self.terminal as f64 / rate_s)
    }
}

/// Runs one simulation and passes it through the correctness gate. Only
/// `traced_faults` exports inside the timed round; chaos runs are traced by
/// the program itself, and their logs are sized after the round.
fn run_one(
    kind: Kind,
    sim: &Sim,
    stream: Option<RequestStream>,
    rep: &mut Report,
    export: &mut work::Export,
) -> Option<(RunResult, f64)> {
    let (res, secs) = timed(|| work::run_sim(sim, stream));
    let mut r = rep.attempt(res)?;
    if kind.traced() {
        if let Some(log) = r.trace.take() {
            match work::export(&log, sim.cfg.cluster.workers_per_server) {
                Ok(e) => export.add(&e),
                Err(e) => rep.fail(e),
            }
        }
    }
    Some((r, secs))
}

/// One round: every simulation of the workload once, on freshly prepared
/// inputs.
pub fn round(kind: Kind, prep: Prepared, rep: &mut Report) -> Round {
    let Prepared {
        sims,
        streams,
        chaos,
        ..
    } = prep;
    let mut parts = Parts::default();
    let report = chaos.map(|cfg| parts.time(|| search(&cfg).map(|o| o.report)));
    let mut runs: Vec<(&Sim, RunResult)> = Vec::new();
    let mut run_s = Vec::new();
    let mut events = Vec::new();
    let mut export = work::Export::default();
    let mut terminal = 0u64;
    let mut keep = |sim, r: RunResult, secs| {
        terminal += work::terminal_requests(&r);
        run_s.push(secs);
        events.push(r.events_processed);
        runs.push((sim, r));
    };
    if kind == Kind::Chaos {
        // The corpus replays are many short simulations: one part. Further
        // passes give chaos's request rate a window long enough to measure.
        let extra = parts.time(|| {
            for (sim, stream) in sims.iter().zip(streams) {
                if let Some((r, secs)) = run_one(kind, sim, stream, rep, &mut export) {
                    keep(sim, r, secs);
                }
            }
            let mut extra = 0;
            for _ in 1..work::CORPUS_PASSES {
                for sim in &sims {
                    if let Some((r, _)) = run_one(kind, sim, None, rep, &mut export) {
                        extra += work::terminal_requests(&r);
                    }
                }
            }
            extra
        });
        terminal += extra;
    } else {
        for (sim, stream) in sims.iter().zip(streams) {
            if let Some((r, secs)) = parts.time(|| run_one(kind, sim, stream, rep, &mut export)) {
                keep(sim, r, secs);
            }
        }
    }

    let mut outcome = work::pooled(runs.iter().map(|(s, r)| (s.label, r)));
    if kind == Kind::Chaos {
        match report {
            Some(Ok(report)) => {
                rep.attempted += report.sim_runs;
                outcome.report = Some(report);
            }
            Some(Err(e)) => rep.fail(format!("chaos search: {e}")),
            None => {}
        }
        let regressions = runs.iter().filter(|(s, _)| s.regression);
        outcome.corpus_worst = Some(work::corpus_worst(regressions.map(|(s, r)| (s.label, r))));
        for (_, r) in &runs {
            if let Some(log) = &r.trace {
                match work::export_jsonl(log) {
                    Ok(e) => export.add(&e),
                    Err(e) => rep.fail(e),
                }
            }
        }
    }
    if export.events > 0 {
        outcome.trace_bytes_per_event = Some(export.jsonl_bytes as f64 / export.events as f64);
    }
    Round {
        parts,
        terminal,
        outcome,
        run_s,
        events,
    }
}

/// Set-up timed on its own, before any simulation: one untimed warm-up,
/// then `SETUP_SAMPLES` set-ups back to back with a run of the calibration
/// kernel before the first and after each, so every sample is taken under
/// one condition and scaled by the host's speed right around it.
#[derive(Default)]
pub struct SetupSamples {
    /// Host seconds of each set-up.
    pub total: Vec<f64>,
    /// The same, split into config build, key space and corpus load.
    pub parts: [Vec<f64>; 3],
    /// Each set-up in seconds of the reference box.
    pub calibrated: Vec<f64>,
    /// Calibration kernel seconds around the set-ups.
    pub cal: Vec<f64>,
}

impl SetupSamples {
    pub fn measure(kind: Kind, seed: u64, rep: &mut Report) -> Option<SetupSamples> {
        let mut s = SetupSamples::default();
        if let Err(e) = work::prepare(kind, seed) {
            rep.fail(format!("set-up: {e}"));
            return None;
        }
        let mut before = calibration_s();
        s.cal.push(before);
        for _ in 0..SETUP_SAMPLES {
            let p = match work::prepare(kind, seed) {
                Ok(p) => p,
                Err(e) => {
                    rep.fail(format!("set-up: {e}"));
                    return None;
                }
            };
            let secs = p.setup_s();
            s.total.push(secs);
            s.parts[0].push(p.config_s);
            s.parts[1].push(p.keyspace_s);
            s.parts[2].push(p.corpus_s);
            drop(p);
            let after = calibration_s();
            s.calibrated
                .push(secs * 2.0 * CALIBRATION_REF_S / (before + after));
            s.cal.push(after);
            before = after;
        }
        Some(s)
    }
}

/// The end-to-end run: untraced (except `traced_faults`, whose trace is
/// the workload), repeated rounds for `seconds`, medians reported.
fn end_to_end(args: &Args, rep: &mut Report) {
    let (kind, seed) = (args.kind, args.seed);
    let Some(setup) = SetupSamples::measure(kind, seed, rep) else {
        return;
    };
    // Calibrated and raw samples, one per counted round.
    let (mut walls, mut raw_walls, mut rates) = (Vec::new(), Vec::new(), Vec::new());
    let mut first: Option<SimOutcome> = None;
    let start = Instant::now();
    let kernel = || -> Vec<f64> { (0..CALIBRATION_REPS).map(|_| calibration_s()).collect() };
    let mut before = kernel();
    let mut cal = before.clone();
    // Round 0 warms allocator and caches and is not timed into the medians;
    // chaos rounds are long enough to warm themselves.
    let warm = usize::from(kind != Kind::Chaos);
    for i in 0.. {
        let prep = match work::prepare(kind, seed) {
            Ok(p) => p,
            Err(e) => return rep.fail(format!("set-up: {e}")),
        };
        let r = round(kind, prep, rep);
        let after = kernel();
        // The host's speed drifts within seconds, so each part of a round
        // is scaled by the kernel runs right around it.
        let (wall_s, req_per_s) = r.calibrated(kind, median(&before), median(&after));
        eprintln!(
            "(round {i}: {:.6} s uncalibrated, {wall_s:.6} s calibrated; kernel {:.6} s before, \
             {:?} s between parts, {:.6} s after)",
            r.wall_s(),
            median(&before),
            r.parts.kernels,
            median(&after)
        );
        if i >= warm {
            walls.push(wall_s);
            rates.push(req_per_s);
            raw_walls.push(r.wall_s());
        }
        cal.extend(&after);
        before = after;
        match &first {
            None => first = Some(r.outcome),
            Some(f) if *f != r.outcome => rep.fail(format!("round {i}: simulated outcome changed")),
            Some(_) => {}
        }
        if !rep.failures.is_empty() || (i >= warm && start.elapsed().as_secs_f64() >= args.seconds)
        {
            break;
        }
    }
    let rss = peak_rss_mb();
    let Some(mut outcome) = first else {
        return;
    };
    if outcome.trace_bytes_per_event.is_none() {
        outcome.trace_bytes_per_event = trace_probe(kind, seed, rep);
    }
    if outcome.corpus_worst.is_none() {
        outcome.corpus_worst = corpus_probe(rep);
    }

    eprintln!(
        "(uncalibrated: setup {:.6} s, wall {:.6} s; \
         calibration kernel {:.6} s during set-up, {:.6} s around rounds)",
        median(&setup.total),
        median(&raw_walls),
        median(&setup.cal),
        median(&cal)
    );
    rep.push("setup_s", median(&setup.calibrated), "s");
    rep.push("wall_s", median(&walls), "s");
    rep.push("sim_req_per_s", median(&rates), "1/s");
    rep.push("peak_rss_mb", rss.unwrap_or(f64::NAN), "MB");
    rep.push("das_mean_rct_ms", outcome.das_mean * 1e3, "sim_ms");
    rep.push("das_p99_rct_ms", outcome.das_p99 * 1e3, "sim_ms");
    rep.push(
        "das_vs_fcfs_mean_rct",
        outcome.das_mean / outcome.fcfs_mean,
        "ratio",
    );
    rep.push("goodput_frac", outcome.goodput, "frac");
    rep.push(
        "corpus_worst_das_vs_fcfs",
        outcome.corpus_worst.unwrap_or(f64::NAN),
        "ratio",
    );
    rep.push(
        "trace_bytes_per_event",
        outcome.trace_bytes_per_event.unwrap_or(f64::NAN),
        "B/event",
    );
}

/// Trace size on a workload whose measured run is untraced: the DAS run
/// once more with tracing on, after measurement, exported as JSONL.
fn trace_probe(kind: Kind, seed: u64, rep: &mut Report) -> Option<f64> {
    let mut prep = match work::prepare(kind, seed) {
        Ok(p) => p,
        Err(e) => {
            rep.fail(format!("set-up: {e}"));
            return None;
        }
    };
    let i = prep.sims.iter().position(|s| s.label == "das")?;
    let mut sim = prep.sims.swap_remove(i);
    sim.cfg.trace = das_trace::TraceConfig {
        enabled: true,
        sample: PROBE_SAMPLE,
        capacity: work::TRACE_CAPACITY,
    };
    let r = rep.attempt(work::run_sim(&sim, None))?;
    let log = r.trace.as_ref()?;
    match work::export_jsonl(log) {
        Ok(e) => Some(e.jsonl_bytes as f64 / e.events as f64),
        Err(e) => {
            rep.fail(e);
            None
        }
    }
}

/// The committed `*_das_regression` reproducers replayed once, after
/// measurement.
fn corpus_probe(rep: &mut Report) -> Option<f64> {
    let corpus = match work::load_corpus() {
        Ok(c) => c,
        Err(e) => {
            rep.fail(e);
            return None;
        }
    };
    let mut runs = Vec::new();
    for sim in work::corpus_sims(&corpus, true) {
        runs.push((sim.label, rep.attempt(work::run_sim(&sim, None))?));
    }
    Some(work::corpus_worst(runs.iter().map(|(l, r)| (*l, r))))
}

fn print(rep: &Report) -> bool {
    let mut correct = rep.failures.is_empty();
    for f in &rep.failures {
        eprintln!("FAILED: {f}");
    }
    let mut fields = Vec::new();
    for m in &rep.metrics {
        if !m.value.is_finite() {
            eprintln!("FAILED: metric {} is not finite", m.name);
            correct = false;
        }
        eprintln!(
            "{:<34} {:>16} {}",
            m.name,
            format!("{:.6}", m.value),
            m.unit
        );
        let value = if m.value.is_finite() {
            format!("{}", m.value)
        } else {
            "null".into()
        };
        fields.push(format!(
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        ));
    }
    let failed = rep.failures.len() as u64;
    let attempted = rep.attempted.max(failed).max(1);
    eprintln!(
        "{:<34} {:>16} frac  ({failed} of {attempted} runs)",
        "failed_frac",
        format!("{:.6}", failed as f64 / attempted as f64)
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    );
    correct
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <steady|overload|traced_faults|chaos> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let mut rep = Report::default();
    let ((), total_s) = timed(|| {
        if args.trace {
            layers::per_layer(&args, &mut rep)
        } else {
            end_to_end(&args, &mut rep)
        }
    });
    eprintln!("(run took {total_s:.1} s)");
    if print(&rep) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
