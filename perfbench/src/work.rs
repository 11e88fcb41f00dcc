//! The four workloads: their configs, their set-up, one measured round,
//! and the correctness gate every simulation run must pass.

use std::path::Path;

use das_chaos::{read_corpus, ChaosConfig, ChaosReport, Reproducer};
use das_core::adapter::RequestStream;
use das_core::load::arrival_rate_for_load;
use das_core::scenarios;
use das_core::ExperimentConfig;
use das_metrics::summary::LatencySummary;
use das_sched::policy::PolicyKind;
use das_sim::fault::CrashWindow;
use das_sim::rng::SeedFactory;
use das_sim::time::SimTime;
use das_store::config::SimulationConfig;
use das_store::engine::{run_simulation, RunResult};
use das_trace::telemetry::{fold, TelemetryConfig};
use das_trace::{TraceConfig, TraceLog};
use das_workload::spec::ArrivalConfig;

use crate::util::{timed, CountingSink};

/// Committed chaos reproducers, relative to the repository root (the
/// benchmark always runs from there).
pub const CORPUS_DIR: &str = "crates/chaos/corpus";

/// Trace ring capacity: the program's default flight-recorder size.
pub const TRACE_CAPACITY: usize = 1 << 20;

/// Telemetry epoch for the Chrome export's counter tracks (the CLI's
/// default).
const EPOCH_NS: u64 = 10_000_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Steady,
    Overload,
    TracedFaults,
    Chaos,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "steady" => Some(Kind::Steady),
            "overload" => Some(Kind::Overload),
            "traced_faults" => Some(Kind::TracedFaults),
            "chaos" => Some(Kind::Chaos),
            _ => None,
        }
    }

    /// Whether the end-to-end run itself records and exports a trace.
    pub fn traced(self) -> bool {
        self == Kind::TracedFaults
    }
}

// Run sizes. Each round is a fixed amount of simulated work; a run repeats
// rounds until its `--seconds` budget is spent.

/// `steady`: simulated seconds per policy (about 18k requests at rho=0.7).
const STEADY_HORIZON: f64 = 1.0;
/// `overload`: past saturation the backlog (and DAS's linear dequeue scan)
/// grows for the whole run, so cost is superlinear in the horizon. FCFS's
/// retry storm sets in between 0.1 and 0.2 simulated seconds, at an instant
/// that varies with the seed; by 0.3 s it is fully developed, and one
/// input's cost still varies by about 6 % from seed to seed. A round runs
/// two inputs, each from its own seed derived from the run's.
const OVERLOAD_HORIZON: f64 = 0.3;
const OVERLOAD_INPUTS: u64 = 2;
/// `traced_faults`: at sample 1.0 one policy would record about 1.3 M
/// events, more than the 1 M-event ring holds. At 0.1 the log is complete,
/// and each round's export allocates little enough that page-fault costs,
/// which vary a lot on a shared host, do not swamp the trace work.
const FAULTS_HORIZON: f64 = 1.0;
const FAULTS_SAMPLE: f64 = 0.1;
/// `chaos`: cases per search, findings shrunk, and predicate evaluations
/// per shrink. With the DAS-regression threshold at 1.0 the findings cap is
/// always reached, so the search runs the same number of simulations
/// whatever the seed.
const CHAOS_BUDGET: u64 = 30;
const CHAOS_MAX_FINDINGS: usize = 2;
const CHAOS_SHRINK_BUDGET: u64 = 10;
/// Times the corpus is replayed per chaos round.
pub const CORPUS_PASSES: usize = 5;

/// Where one simulation's requests come from.
#[derive(Debug, Clone)]
pub enum Source {
    /// The generative stream, built during set-up.
    Stream(StreamSpec),
    /// A chaos case's pinned trace (resolved inside the round, exactly as
    /// `ChaosCase::run_policy` does).
    Case(Box<das_chaos::ChaosCase>),
}

/// Spec, seed and horizon of a generative stream.
#[derive(Debug, Clone)]
pub struct StreamSpec {
    pub spec: das_workload::generator::WorkloadSpec,
    pub seed: u64,
    pub horizon: SimTime,
}

impl StreamSpec {
    pub fn build(&self) -> RequestStream {
        RequestStream::new(&self.spec, &SeedFactory::new(self.seed), self.horizon)
    }
}

/// One simulation of a round.
#[derive(Debug, Clone)]
pub struct Sim {
    pub label: &'static str,
    /// Replays a committed `*_das_regression` reproducer.
    pub regression: bool,
    pub cfg: SimulationConfig,
    pub source: Source,
}

/// What set-up produced: the simulations to run, ready request streams,
/// and the chaos search config plus loaded corpus.
pub struct Prepared {
    pub sims: Vec<Sim>,
    pub streams: Vec<Option<RequestStream>>,
    pub chaos: Option<ChaosConfig>,
    /// Host seconds of each set-up part: config build and validation,
    /// key space and request streams, corpus load.
    pub config_s: f64,
    pub keyspace_s: f64,
    pub corpus_s: f64,
}

fn policy_label(p: &PolicyKind) -> &'static str {
    match p {
        PolicyKind::Fcfs => "fcfs",
        PolicyKind::ReinSbf => "rein_sbf",
        _ => "das",
    }
}

/// The experiment behind a simulator workload (`None` for `chaos`).
pub fn experiment(kind: Kind, seed: u64) -> Option<ExperimentConfig> {
    let mut e = match kind {
        Kind::Steady => {
            let mut e = scenarios::base_experiment("steady", 0.7);
            e.policies = vec![PolicyKind::Fcfs, PolicyKind::ReinSbf, PolicyKind::das()];
            e.horizon_secs = STEADY_HORIZON;
            e.warmup_secs = 0.1;
            e
        }
        Kind::Overload => {
            let mut e = scenarios::overload_experiment(1.3, false);
            e.policies = vec![PolicyKind::Fcfs, PolicyKind::das()];
            e.horizon_secs = OVERLOAD_HORIZON;
            e.warmup_secs = 0.05;
            e
        }
        Kind::TracedFaults => {
            let mut e = scenarios::overload_experiment(0.7, true);
            e.policies = vec![PolicyKind::Fcfs, PolicyKind::das()];
            e.horizon_secs = FAULTS_HORIZON;
            e.warmup_secs = 0.05;
            e.workload.write_fraction = 0.1;
            let rate = arrival_rate_for_load(0.7, &e.workload, &e.cluster);
            e.workload.arrival = ArrivalConfig::Poisson { rate };
            // Five staggered crash windows over the middle half of the run,
            // each 15 % of the horizon (the Fig. 22 layout).
            let h = e.horizon_secs;
            let n = 5u32;
            for i in 0..n {
                let start = h * (0.25 + 0.5 * i as f64 / n as f64);
                e.faults.crashes.crashes.push(CrashWindow {
                    server: i * e.cluster.servers / n,
                    down_secs: start,
                    up_secs: start + 0.15 * h,
                });
            }
            e.faults.request_faults.loss = 0.001;
            e.faults.response_faults.loss = 0.001;
            e.faults.hedge.quantile = 0.95;
            e.faults.hedge.min_delay_secs = 1e-4;
            e.trace = TraceConfig {
                enabled: true,
                sample: FAULTS_SAMPLE,
                capacity: TRACE_CAPACITY,
            };
            e
        }
        Kind::Chaos => return None,
    };
    e.seed = seed;
    Some(e)
}

/// The experiment's per-policy simulation configs, validated.
pub fn sim_configs(e: &ExperimentConfig) -> Result<Vec<SimulationConfig>, String> {
    e.policies
        .iter()
        .map(|&policy| {
            let cfg = SimulationConfig {
                cluster: e.cluster.clone(),
                policy,
                seed: e.seed,
                horizon_secs: e.horizon_secs,
                warmup_secs: e.warmup_secs,
                rct_timeseries_bin_secs: None,
                faults: e.faults.clone(),
                overload: e.overload,
                trace: e.trace,
            };
            cfg.validate().map_err(|err| err.to_string())?;
            Ok(cfg)
        })
        .collect()
}

pub fn chaos_config(seed: u64) -> ChaosConfig {
    ChaosConfig {
        seed,
        budget: CHAOS_BUDGET,
        shrink_budget: CHAOS_SHRINK_BUDGET,
        max_findings: CHAOS_MAX_FINDINGS,
        // Fresh cases only: mutations of one costly parent would make the
        // round's cost hinge on a single draw.
        mutation_fraction: 0.0,
        oracles: das_chaos::OracleConfig {
            das_regression_ratio: 1.0,
            ..das_chaos::OracleConfig::default()
        },
        space: das_chaos::SearchSpace {
            servers: (6, 6),
            workers_per_server: (1, 1),
            rho: (0.7, 0.7),
            horizon_secs: (0.3, 0.3),
            n_keys: (5_000, 5_000),
            fanout_max: (8, 8),
            ..das_chaos::SearchSpace::default()
        },
        ..ChaosConfig::default()
    }
}

pub fn load_corpus() -> Result<Vec<Reproducer>, String> {
    let corpus = read_corpus(Path::new(CORPUS_DIR))?;
    if corpus.is_empty() {
        return Err(format!("no reproducers under {CORPUS_DIR}"));
    }
    Ok(corpus)
}

/// The corpus replay as a list of paired simulations.
pub fn corpus_sims(corpus: &[Reproducer], only_regressions: bool) -> Vec<Sim> {
    corpus
        .iter()
        .filter(|r| !only_regressions || r.slug.ends_with("_das_regression"))
        .flat_map(|r| {
            [PolicyKind::Fcfs, PolicyKind::das()].map(|p| Sim {
                label: policy_label(&p),
                regression: r.slug.ends_with("_das_regression"),
                cfg: r.case.sim_config(p),
                source: Source::Case(Box::new(r.case.clone())),
            })
        })
        .collect()
}

/// Set-up: everything up to the first simulation.
pub fn prepare(kind: Kind, seed: u64) -> Result<Prepared, String> {
    if kind == Kind::Chaos {
        let (chaos, config_s) = timed(|| chaos_config(seed));
        let (corpus, corpus_s) = timed(load_corpus);
        let sims = corpus_sims(&corpus?, false);
        return Ok(Prepared {
            streams: sims.iter().map(|_| None).collect(),
            sims,
            chaos: Some(chaos),
            config_s,
            keyspace_s: 0.0,
            corpus_s,
        });
    }
    let inputs = if kind == Kind::Overload {
        OVERLOAD_INPUTS
    } else {
        1
    };
    let (built, config_s) = timed(|| -> Result<_, String> {
        let mut sims = Vec::new();
        for input in 0..inputs {
            let seed = seed.wrapping_mul(inputs).wrapping_add(input);
            let e = experiment(kind, seed).ok_or("no experiment")?;
            sims.extend(sim_configs(&e)?.into_iter().map(|cfg| Sim {
                label: policy_label(&cfg.policy),
                regression: false,
                source: Source::Stream(StreamSpec {
                    spec: e.workload.clone(),
                    seed,
                    horizon: SimTime::from_secs_f64(cfg.horizon_secs),
                }),
                cfg,
            }));
        }
        Ok(sims)
    });
    let sims = built?;
    let (streams, keyspace_s) = timed(|| {
        sims.iter()
            .map(|s| match &s.source {
                Source::Stream(st) => Some(st.build()),
                Source::Case(_) => None,
            })
            .collect()
    });
    Ok(Prepared {
        sims,
        streams,
        chaos: None,
        config_s,
        keyspace_s,
        corpus_s: 0.0,
    })
}

impl Prepared {
    pub fn setup_s(&self) -> f64 {
        self.config_s + self.keyspace_s + self.corpus_s
    }
}

/// Runs one simulation from its prepared stream (or its pinned case).
pub fn run_sim(sim: &Sim, stream: Option<RequestStream>) -> Result<RunResult, String> {
    match (stream, &sim.source) {
        (Some(s), _) => run_simulation(&sim.cfg, s),
        (None, Source::Case(c)) => run_simulation(&sim.cfg, c.requests()),
        (None, Source::Stream(s)) => run_simulation(&sim.cfg, s.build()),
    }
}

/// The correctness gate for one run: request conservation, the measured
/// window inside the completed set, and (when traced) a complete log.
pub fn check_run(r: &RunResult) -> Result<(), String> {
    let rec = &r.recovery;
    let terminal = r.completed + rec.aborted + rec.shed();
    if rec.offered() != terminal {
        return Err(format!(
            "{}: offered {} != completed {} + aborted {} + shed {}",
            r.policy,
            rec.offered(),
            r.completed,
            rec.aborted,
            rec.shed()
        ));
    }
    if r.measured > r.completed {
        return Err(format!(
            "{}: measured {} > completed {}",
            r.policy, r.measured, r.completed
        ));
    }
    if let Some(log) = &r.trace {
        if !log.complete() {
            return Err(format!(
                "{}: trace ring overflowed ({} events dropped)",
                r.policy, log.dropped
            ));
        }
    }
    Ok(())
}

/// Requests that reached a terminal state: completed, aborted or shed.
pub fn terminal_requests(r: &RunResult) -> u64 {
    r.completed + r.recovery.aborted + r.recovery.shed()
}

/// Offered requests completed within the overload SLO, computed exactly as
/// the Fig. 24 goodput column computes it (before its percent scaling).
pub fn goodput_hits(r: &RunResult) -> f64 {
    r.rct.fraction_within(scenarios::OVERLOAD_SLO_SECS) * r.completed as f64
}

/// Byte counts and host times of one traced run's exports.
#[derive(Debug, Clone, Copy, Default)]
pub struct Export {
    pub events: u64,
    pub jsonl_bytes: u64,
    pub chrome_bytes: u64,
    pub jsonl_s: f64,
    pub fold_s: f64,
    pub chrome_s: f64,
}

impl Export {
    pub fn add(&mut self, o: &Export) {
        self.events += o.events;
        self.jsonl_bytes += o.jsonl_bytes;
        self.chrome_bytes += o.chrome_bytes;
        self.jsonl_s += o.jsonl_s;
        self.fold_s += o.fold_s;
        self.chrome_s += o.chrome_s;
    }
}

/// Exports `log` as JSONL only, into a byte-counting sink.
pub fn export_jsonl(log: &TraceLog) -> Result<Export, String> {
    let mut jsonl = CountingSink::default();
    let (res, jsonl_s) = timed(|| das_trace::export::write_jsonl(log, &mut jsonl));
    res.map_err(|e| e.to_string())?;
    Ok(Export {
        events: log.events.len() as u64,
        jsonl_bytes: jsonl.bytes,
        jsonl_s,
        ..Export::default()
    })
}

/// Exports `log` the way `das_experiment run --trace` does — JSONL, then
/// the telemetry fold and the Chrome export with its counter tracks —
/// into byte-counting sinks.
pub fn export(log: &TraceLog, workers: u32) -> Result<Export, String> {
    let plain = export_jsonl(log)?;
    let cfg = TelemetryConfig {
        epoch_ns: EPOCH_NS,
        workers,
    };
    let (telemetry, fold_s) = timed(|| fold(log, &cfg));
    let mut chrome = CountingSink::default();
    let (res, chrome_s) =
        timed(|| das_trace::export::write_chrome_with_telemetry(log, &telemetry, &mut chrome));
    res.map_err(|e| e.to_string())?;
    Ok(Export {
        chrome_bytes: chrome.bytes,
        fold_s,
        chrome_s,
        ..plain
    })
}

/// Simulated outcomes of one round: what must repeat bit-for-bit.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimOutcome {
    /// DAS mean and p99 RCT, seconds.
    pub das_mean: f64,
    pub das_p99: f64,
    /// FCFS mean RCT, seconds.
    pub fcfs_mean: f64,
    /// DAS share of offered requests completed within the SLO.
    pub goodput: f64,
    pub trace_bytes_per_event: Option<f64>,
    pub corpus_worst: Option<f64>,
    pub report: Option<ChaosReport>,
}

/// Pooled simulated outcomes over a set of labelled runs: DAS RCT over
/// every DAS run, FCFS mean over every FCFS run, DAS goodput share of
/// offered requests.
pub fn pooled<'a>(runs: impl Iterator<Item = (&'static str, &'a RunResult)>) -> SimOutcome {
    let mut das = LatencySummary::new();
    let mut fcfs = LatencySummary::new();
    let (mut hits, mut offered) = (0.0, 0u64);
    for (label, r) in runs {
        match label {
            "das" => {
                das.merge(&r.rct);
                hits += goodput_hits(r);
                offered += r.recovery.offered();
            }
            "fcfs" => fcfs.merge(&r.rct),
            _ => {}
        }
    }
    SimOutcome {
        das_mean: das.mean(),
        das_p99: das.p99(),
        fcfs_mean: fcfs.mean(),
        goodput: if offered == 0 {
            0.0
        } else {
            hits / offered as f64
        },
        ..SimOutcome::default()
    }
}

/// Highest DAS/FCFS mean-RCT ratio over paired (FCFS, DAS) runs, as
/// `corpus_sims` lays them out.
pub fn corpus_worst<'a>(runs: impl Iterator<Item = (&'static str, &'a RunResult)>) -> f64 {
    let runs: Vec<_> = runs.collect();
    runs.chunks(2)
        .filter_map(|pair| match pair {
            [("fcfs", f), ("das", d)] if f.measured > 0 && d.measured > 0 && f.mean_rct() > 0.0 => {
                Some(d.mean_rct() / f.mean_rct())
            }
            _ => None,
        })
        .fold(f64::NAN, f64::max)
}
