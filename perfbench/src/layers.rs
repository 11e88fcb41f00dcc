//! Per-layer metrics (`--trace 1`).
//!
//! The run times the workload untraced, then runs each simulation once more
//! with the program's trace on at full sample (ring sized from the untraced
//! event count, so nothing is dropped) and splits its cost by crate. Layer
//! costs are measured from the benchmark's side of each public call, or by
//! replaying a layer's recorded input through that layer alone:
//!
//! * `workload` — the request stream drained on its own;
//! * `sim` — `EventQueue::schedule` + `pop` at the run's event count and
//!   in-flight depth;
//! * `sched` — each server's enqueue / dequeue / hint sequence, rebuilt from
//!   the trace and fed to a fresh `PolicyKind::build()` scheduler;
//! * `net` — `NetworkModel::delay` at the run's message count and size;
//! * `metrics` — `LatencySummary::record` over the run's RCTs;
//! * `trace` — traced minus untraced `run_simulation`, and each exporter;
//! * `chaos` — timed calls to the search's public steps;
//! * `store` — `run_simulation` itself, and what is left of it once the
//!   replayed layer costs are taken out (an estimate).

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use das_chaos::oracle::evaluate;
use das_chaos::{shrink, ChaosCase, ChaosConfig, ChaosReport, OracleConfig, Violation};
use das_metrics::summary::LatencySummary;
use das_sched::policy::PolicyKind;
use das_sched::scheduler::Scheduler;
use das_sched::types::{HintUpdate, OpId, OpTag, QueuedOp, RequestId};
use das_sim::queue::EventQueue;
use das_sim::rng::{open_unit, SeedFactory};
use das_sim::time::{SimDuration, SimTime};
use das_store::engine::RunResult;
use das_trace::{TraceConfig, TraceEvent, TraceLog};

use crate::util::{calibration_s, clock_overhead_ns, median, quantile, timed};
use crate::work::{self, Kind, Sim, SimOutcome};
use crate::{round, Args, Report, SetupSamples, CALIBRATION_REF_S, CALIBRATION_REPS};

/// Policies reported per layer. A policy a workload does not run reports 0.
const POLICIES: [&str; 3] = ["fcfs", "rein_sbf", "das"];

/// Replays are capped at this many calls, and exports at this many events
/// per run; per-call and per-event costs are what is reported.
const MAX_REPLAY_CALLS: u64 = 1_000_000;
const MAX_EXPORT_EVENTS: usize = 250_000;

/// Untraced–traced–untraced run triples per simulation for the tracing
/// overhead.
const OVERHEAD_TRIPLES: usize = 3;

/// Per-call host cost of one scheduler over one run's trace.
#[derive(Debug, Default, Clone)]
struct SchedCost {
    enqueue_ns: f64,
    enqueues: u64,
    dequeue_ns: f64,
    dequeues: u64,
    hint_ns: f64,
    hints: u64,
    depths: Vec<f64>,
    reordered: u64,
    decisions: u64,
}

impl SchedCost {
    fn add(&mut self, o: SchedCost) {
        self.enqueue_ns += o.enqueue_ns;
        self.enqueues += o.enqueues;
        self.dequeue_ns += o.dequeue_ns;
        self.dequeues += o.dequeues;
        self.hint_ns += o.hint_ns;
        self.hints += o.hints;
        self.depths.extend(o.depths);
        self.reordered += o.reordered;
        self.decisions += o.decisions;
    }
}

/// Everything measured per policy.
#[derive(Debug, Default, Clone)]
struct PolicyLayers {
    sched: SchedCost,
    requests: u64,
    run_s: f64,
    replayed_s: f64,
    retries: u64,
    hedges: u64,
    shed: u64,
    aborted: u64,
    goodput_service_s: f64,
    wasted_service_s: f64,
}

/// Workload-wide sums over every traced simulation.
#[derive(Debug, Default)]
struct Totals {
    requests: u64,
    keys: u64,
    gen_s: f64,
    events: u64,
    queue_ns: f64,
    queue_calls: u64,
    messages: u64,
    overhead_bytes: u64,
    net_ns: f64,
    net_calls: u64,
    record_ns: f64,
    record_calls: u64,
    trace_events: u64,
    trace_dropped: u64,
    record_extra_s: f64,
    export: work::Export,
}

/// Nanoseconds per call (0 when nothing was called).
fn per_call(total_ns: f64, calls: u64) -> f64 {
    if calls == 0 {
        0.0
    } else {
        total_ns / calls as f64
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

pub fn per_layer(args: &Args, rep: &mut Report) {
    let (kind, seed) = (args.kind, args.seed);
    let clock_ns = clock_overhead_ns();

    let Some(setup) = SetupSamples::measure(kind, seed, rep) else {
        return;
    };

    // Untraced rounds: the time inside `run_simulation`, and the event
    // counts that size the traced pass's ring. Round 0 warms up. Their
    // simulated outcomes must repeat exactly, as on the end-to-end run.
    let start = Instant::now();
    let mut cal = Vec::new();
    let mut per_sim: Vec<Vec<f64>> = Vec::new();
    let mut events_by_sim: Vec<u64> = Vec::new();
    let mut first: Option<SimOutcome> = None;
    for i in 0.. {
        let mut prep = match work::prepare(kind, seed) {
            Ok(p) => p,
            Err(e) => return rep.fail(format!("set-up: {e}")),
        };
        for sim in &mut prep.sims {
            sim.cfg.trace = TraceConfig::default();
        }
        let n = prep.sims.len();
        let r = round(kind, prep, rep);
        if !rep.failures.is_empty() {
            return;
        }
        if r.run_s.len() != n {
            return rep.fail("untraced round lost a simulation");
        }
        cal.extend((0..CALIBRATION_REPS).map(|_| calibration_s()));
        let measured = i > 0 || kind == Kind::Chaos;
        if measured {
            per_sim.resize(n, Vec::new());
            for (samples, s) in per_sim.iter_mut().zip(&r.run_s) {
                samples.push(*s);
            }
        }
        events_by_sim = r.events;
        match &first {
            None => first = Some(r.outcome),
            Some(f) if *f != r.outcome => {
                return rep.fail(format!("round {i}: simulated outcome changed"))
            }
            Some(_) => {}
        }
        if measured && start.elapsed().as_secs_f64() >= args.seconds / 2.0 {
            break;
        }
    }
    let untraced_run_s: Vec<f64> = per_sim.iter().map(|v| median(v)).collect();
    let search_report = first.and_then(|o| o.report);

    // The traced pass.
    let mut prep = match work::prepare(kind, seed) {
        Ok(p) => p,
        Err(e) => return rep.fail(format!("set-up: {e}")),
    };
    for sim in &mut prep.sims {
        sim.cfg.trace = TraceConfig::default();
    }
    let pass_start = Instant::now();
    let chaos = match (&prep.chaos, &search_report) {
        (Some(cfg), Some(expected)) => Some(chaos_spans(cfg, expected, rep)),
        _ => None,
    };
    let mut totals = Totals::default();
    let mut policies: BTreeMap<&'static str, PolicyLayers> = BTreeMap::new();
    let (mut untraced_wall, mut overhead_s) = (0.0, 0.0);
    'sims: for (i, untraced) in prep.sims.iter().enumerate() {
        let mut sim = untraced.clone();
        let untraced_events = events_by_sim.get(i).copied().unwrap_or(0);
        sim.cfg.trace = TraceConfig {
            enabled: true,
            sample: 1.0,
            capacity: (3 * untraced_events as usize).max(work::TRACE_CAPACITY),
        };
        // Each traced run sits between two untraced runs of the same
        // simulation, so the tracing overhead compares runs made within one
        // window of host speed; the median of a few such triples is taken.
        let (mut paired, mut extra, mut traced) = (Vec::new(), Vec::new(), None);
        for _ in 0..OVERHEAD_TRIPLES {
            let (before, before_s) = timed(|| work::run_sim(untraced, None));
            let (res, traced_s) = timed(|| work::run_sim(&sim, None));
            let (after, after_s) = timed(|| work::run_sim(untraced, None));
            if rep.attempt(before).is_none() || rep.attempt(after).is_none() {
                continue 'sims;
            }
            let Some(r) = rep.attempt(res) else {
                continue 'sims;
            };
            let paired_s = (before_s + after_s) / 2.0;
            paired.push(paired_s);
            extra.push(traced_s - paired_s);
            traced.get_or_insert(r);
        }
        let (paired_s, extra_s) = (median(&paired), median(&extra));
        let Some(r) = traced else {
            continue;
        };
        let Some(log) = r.trace.as_ref() else {
            rep.fail("traced run returned no trace");
            continue;
        };
        let head = TraceLog {
            sample: log.sample,
            dropped: log.dropped,
            events: log.events.iter().take(MAX_EXPORT_EVENTS).cloned().collect(),
        };
        let export = match work::export(&head, sim.cfg.cluster.workers_per_server) {
            Ok(e) => e,
            Err(e) => {
                rep.fail(e);
                continue;
            }
        };
        drop(head);
        untraced_wall += paired_s;
        overhead_s += extra_s;
        let layer = replay_run(&sim, &r, log, extra_s, clock_ns, &mut totals, rep);
        totals.export.add(&export);
        let p = policies.entry(sim.label).or_default();
        p.run_s += untraced_run_s.get(i).copied().unwrap_or(0.0);
        p.sched.add(layer.sched);
        p.requests += layer.requests;
        p.replayed_s += layer.replayed_s;
        p.retries += r.recovery.retries;
        p.hedges += r.recovery.hedges;
        p.shed += r.recovery.shed();
        p.aborted += r.recovery.aborted;
        p.goodput_service_s += r.recovery.goodput_service_secs;
        p.wasted_service_s += r.recovery.wasted_service_secs;
    }
    let pass_s = pass_start.elapsed().as_secs_f64();
    cal.extend((0..CALIBRATION_REPS).map(|_| calibration_s()));

    // workload
    let t = &totals;
    rep.push(
        "workload.gen_ns_per_req",
        ratio(t.gen_s * 1e9, t.requests as f64),
        "ns",
    );
    rep.push(
        "workload.keys_per_req",
        ratio(t.keys as f64, t.requests as f64),
        "count",
    );
    // sim
    rep.push(
        "sim.events_per_req",
        ratio(t.events as f64, t.requests as f64),
        "count",
    );
    rep.push(
        "sim.queue_ns_per_event",
        per_call(t.queue_ns, t.queue_calls),
        "ns",
    );
    // sched
    for name in POLICIES {
        let p = policies.get(name).cloned().unwrap_or_default();
        let s = &p.sched;
        rep.push(
            format!("sched.{name}.enqueue_ns"),
            per_call(s.enqueue_ns, s.enqueues),
            "ns",
        );
        rep.push(
            format!("sched.{name}.dequeue_ns"),
            per_call(s.dequeue_ns, s.dequeues),
            "ns",
        );
        rep.push(
            format!("sched.{name}.hint_ns"),
            per_call(s.hint_ns, s.hints),
            "ns",
        );
        let mean_depth = ratio(s.depths.iter().sum::<f64>(), s.depths.len() as f64);
        rep.push(format!("sched.{name}.mean_depth"), mean_depth, "count");
        let p99 = if s.depths.is_empty() {
            0.0
        } else {
            quantile(&s.depths, 0.99)
        };
        rep.push(format!("sched.{name}.p99_depth"), p99, "count");
        rep.push(
            format!("sched.{name}.reorder_frac"),
            ratio(s.reordered as f64, s.decisions as f64),
            "frac",
        );
        rep.push(
            format!("sched.{name}.hints_per_req"),
            ratio(s.hints as f64, p.requests as f64),
            "count",
        );
    }
    // net
    rep.push("net.delay_ns", per_call(t.net_ns, t.net_calls), "ns");
    rep.push(
        "net.msgs_per_req",
        ratio(t.messages as f64, t.requests as f64),
        "count",
    );
    rep.push(
        "net.overhead_bytes_per_req",
        ratio(t.overhead_bytes as f64, t.requests as f64),
        "B",
    );
    // store
    for name in POLICIES {
        let p = policies.get(name).cloned().unwrap_or_default();
        let kreq = p.requests as f64 / 1e3;
        rep.push(format!("store.{name}.run_s"), p.run_s, "s");
        let self_s = if p.run_s > 0.0 {
            p.run_s - p.replayed_s
        } else {
            0.0
        };
        rep.push(format!("store.{name}.self_s"), self_s, "s");
        rep.push(
            format!("store.{name}.retries_per_kreq"),
            ratio(p.retries as f64, kreq),
            "count",
        );
        rep.push(
            format!("store.{name}.hedges_per_kreq"),
            ratio(p.hedges as f64, kreq),
            "count",
        );
        rep.push(
            format!("store.{name}.shed_per_kreq"),
            ratio(p.shed as f64, kreq),
            "count",
        );
        rep.push(
            format!("store.{name}.aborted_per_kreq"),
            ratio(p.aborted as f64, kreq),
            "count",
        );
        let total = p.goodput_service_s + p.wasted_service_s;
        rep.push(
            format!("store.{name}.wasted_frac"),
            ratio(p.wasted_service_s, total),
            "frac",
        );
    }
    // metrics
    rep.push(
        "metrics.record_ns",
        per_call(t.record_ns, t.record_calls),
        "ns",
    );
    // trace
    let ev = t.trace_events as f64;
    rep.push("trace.events", ev, "count");
    rep.push("trace.dropped", t.trace_dropped as f64, "count");
    rep.push(
        "trace.record_ns_per_event",
        ratio(t.record_extra_s * 1e9, ev),
        "ns",
    );
    let exported = t.export.events as f64;
    rep.push(
        "trace.jsonl_ns_per_event",
        ratio(t.export.jsonl_s * 1e9, exported),
        "ns",
    );
    rep.push(
        "trace.chrome_ns_per_event",
        ratio(t.export.chrome_s * 1e9, exported),
        "ns",
    );
    rep.push(
        "trace.fold_ns_per_event",
        ratio(t.export.fold_s * 1e9, exported),
        "ns",
    );
    rep.push(
        "trace.chrome_bytes_per_event",
        ratio(t.export.chrome_bytes as f64, exported),
        "B/event",
    );
    rep.push("trace.overhead_s", overhead_s, "s");
    rep.push(
        "trace.overhead_frac",
        ratio(overhead_s, untraced_wall),
        "frac",
    );
    // chaos
    let c = chaos.unwrap_or_default();
    rep.push("chaos.cases", c.cases as f64, "count");
    rep.push("chaos.sim_runs", c.sim_runs as f64, "count");
    rep.push("chaos.shrink_evals", c.shrink_evals as f64, "count");
    rep.push("chaos.hits", c.hits as f64, "count");
    rep.push("chaos.generate_s", c.generate_s, "s");
    rep.push("chaos.run_paired_s", c.run_paired_s, "s");
    rep.push("chaos.oracle_s", c.oracle_s, "s");
    rep.push("chaos.shrink_s", c.shrink_s, "s");

    // Host times in seconds of the reference box, as on the end-to-end
    // run: scaled by the calibration kernel's speed over the rounds and the
    // traced pass.
    let slowdown = median(&cal) / CALIBRATION_REF_S;
    for m in &mut rep.metrics {
        if m.unit == "s" || m.unit == "ns" {
            m.value /= slowdown;
        }
    }

    // core, calibrated over its own set-up window.
    let setup_s = median(&setup.calibrated);
    let share = |part: &[f64]| ratio(median(part), median(&setup.total));
    rep.push("core.setup_s", setup_s, "s");
    rep.push("core.config_share", share(&setup.parts[0]), "frac");
    rep.push("core.keyspace_share", share(&setup.parts[1]), "frac");
    rep.push("core.corpus_share", share(&setup.parts[2]), "frac");
    eprintln!(
        "(traced pass with replays took {pass_s:.1} s; calibration kernel {:.6} s)",
        median(&cal)
    );
}

/// What the replays of one traced run measured for its policy.
struct RunLayers {
    sched: SchedCost,
    requests: u64,
    replayed_s: f64,
}

/// Replays one traced run's inputs through each layer alone; `extra_s` is
/// what tracing added to the run.
fn replay_run(
    sim: &Sim,
    r: &RunResult,
    log: &TraceLog,
    extra_s: f64,
    clock_ns: f64,
    t: &mut Totals,
    rep: &mut Report,
) -> RunLayers {
    // workload: drain the same request source alone (key space built
    // beforehand: that is set-up).
    let (requests, gen_s) = match &sim.source {
        work::Source::Stream(s) => {
            let stream = s.build();
            timed(|| stream.collect::<Vec<_>>())
        }
        work::Source::Case(c) => timed(|| c.requests()),
    };
    let n_req = requests.len() as u64;
    let keys: u64 = requests.iter().map(|q| q.reads.len() as u64).sum();
    black_box(&requests);
    drop(requests);

    // sim: the future-event list at this run's event count and depth.
    let depth = in_flight_depth(log);
    let queue_calls = r.events_processed.min(MAX_REPLAY_CALLS);
    let queue_ns = replay_event_queue(queue_calls, depth, sim.cfg.seed);

    // sched: each server's sequence through a fresh scheduler.
    let sched = match replay_sched(&sim.cfg.policy, sim.cfg.cluster.servers, log, clock_ns) {
        Ok(s) => s,
        Err(e) => {
            rep.fail(format!("{} sched replay: {e}", sim.label));
            SchedCost::default()
        }
    };

    // net: one delay draw per message.
    let messages = r.traffic.total_messages();
    let mean_bytes = r.traffic.total_bytes().checked_div(messages).unwrap_or(0);
    let net_calls = messages.min(MAX_REPLAY_CALLS);
    let net_ns = replay_net(sim, net_calls, mean_bytes);

    // metrics: record every completed request's RCT.
    let rcts: Vec<f64> = log
        .events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::RequestComplete { rct_ns, .. } => Some(*rct_ns as f64 * 1e-9),
            _ => None,
        })
        .collect();
    let record_ns = replay_record(&rcts);

    t.requests += n_req;
    t.keys += keys;
    t.gen_s += gen_s;
    t.events += r.events_processed;
    t.queue_ns += queue_ns * queue_calls as f64;
    t.queue_calls += queue_calls;
    t.messages += messages;
    t.overhead_bytes += r.traffic.overhead_bytes();
    t.net_ns += net_ns * net_calls as f64;
    t.net_calls += net_calls;
    t.record_ns += record_ns * rcts.len() as f64;
    t.record_calls += rcts.len() as u64;
    t.trace_events += log.events.len() as u64;
    t.trace_dropped += log.dropped;
    t.record_extra_s += extra_s.max(0.0);

    // Replayed layer costs inside this run, scaled to its full counts.
    let replayed_ns = gen_s * 1e9
        + queue_ns * r.events_processed as f64
        + sched.enqueue_ns
        + sched.dequeue_ns
        + sched.hint_ns
        + net_ns * messages as f64
        + record_ns * rcts.len() as f64;
    RunLayers {
        sched,
        requests: n_req,
        replayed_s: replayed_ns * 1e-9,
    }
}

/// Time-averaged number of outstanding op attempts (dispatched, not yet
/// answered): an estimate of the events pending in the engine's queue.
fn in_flight_depth(log: &TraceLog) -> u64 {
    let (mut open, mut area, mut last) = (0i64, 0f64, 0u64);
    for e in &log.events {
        let t = e.t_ns();
        area += open.max(0) as f64 * (t - last.min(t)) as f64;
        last = t;
        match e {
            TraceEvent::OpDispatch { .. } => open += 1,
            TraceEvent::OpResponse { .. } | TraceEvent::CrashDrop { .. } => open -= 1,
            _ => {}
        }
    }
    if last == 0 {
        return 1;
    }
    ((area / last as f64).round() as u64).max(1)
}

/// Nanoseconds per `schedule` + `pop` pair on an `EventQueue` held at
/// `depth` pending events, with a payload the size of the engine's largest
/// event.
fn replay_event_queue(calls: u64, depth: u64, seed: u64) -> f64 {
    let mut rng = SeedFactory::new(seed).stream("perfbench-queue", 0);
    let mut q: EventQueue<[u64; 10]> = EventQueue::with_capacity(depth as usize + 1);
    let mean_gap = 200_000.0; // ns: the order of one op's lifetime
    let mut now = 0u64;
    for _ in 0..depth {
        let gap = (-open_unit(&mut rng).ln() * mean_gap) as u64;
        q.schedule(SimTime::from_nanos(now + gap), [now; 10]);
    }
    let gaps: Vec<u64> = (0..calls.min(65_536))
        .map(|_| (-open_unit(&mut rng).ln() * mean_gap) as u64)
        .collect();
    let start = Instant::now();
    for i in 0..calls as usize {
        if let Some(ev) = q.pop() {
            now = ev.time.as_nanos();
            black_box(&ev.event);
        }
        let gap = gaps[i % gaps.len()];
        q.schedule(SimTime::from_nanos(now + gap), [now; 10]);
    }
    per_call(start.elapsed().as_nanos() as f64, calls)
}

/// Nanoseconds per `NetworkModel::delay` draw.
fn replay_net(sim: &Sim, calls: u64, bytes: u64) -> f64 {
    let net = sim.cfg.cluster.network.build();
    let mut rng = SeedFactory::new(sim.cfg.seed).stream("perfbench-net", 0);
    let start = Instant::now();
    let mut sum = SimDuration::ZERO;
    for _ in 0..calls {
        sum += net.delay(black_box(bytes), &mut rng);
    }
    black_box(sum);
    per_call(start.elapsed().as_nanos() as f64, calls)
}

/// Nanoseconds per `LatencySummary::record`, over the run's RCTs (cycled
/// to at least 100k records).
fn replay_record(rcts: &[f64]) -> f64 {
    if rcts.is_empty() {
        return 0.0;
    }
    let calls = rcts.len().max(100_000);
    let mut s = LatencySummary::new();
    let start = Instant::now();
    for i in 0..calls {
        s.record(black_box(rcts[i % rcts.len()]));
    }
    black_box(s.count());
    per_call(start.elapsed().as_nanos() as f64, calls as u64)
}

/// Rebuilds each server's enqueue / dequeue / hint sequence from the trace
/// and replays it through fresh schedulers of `policy`, timing each call.
///
/// Ops are rebuilt exactly from `RequestArrive` and `OpDispatch` except
/// `bottleneck_eta`, which the trace does not carry: it is approximated as
/// dispatch time plus the request's bottleneck demand (the engine also adds
/// network and queue-wait estimates). The replayed scheduler may therefore
/// pick a different op than the traced run did, but the depth profile is
/// exact: every queue length is checked against the trace.
fn replay_sched(
    policy: &PolicyKind,
    servers: u32,
    log: &TraceLog,
    clock_ns: f64,
) -> Result<SchedCost, String> {
    let mut queues: Vec<Box<dyn Scheduler>> = (0..servers).map(|_| policy.build()).collect();
    let wants_hints = queues.first().is_some_and(|q| q.wants_hints());
    let mut arrive: BTreeMap<u64, (u64, u32)> = BTreeMap::new();
    let mut demand: BTreeMap<u64, u64> = BTreeMap::new();
    let mut dispatch: BTreeMap<(u64, u32, u32), (u64, u64)> = BTreeMap::new();
    let mut leader: BTreeMap<u32, (u64, u64, u32)> = BTreeMap::new();
    let mut c = SchedCost::default();
    let clock = |start: Instant| start.elapsed().as_nanos() as f64 - clock_ns;
    for e in &log.events {
        match *e {
            TraceEvent::RequestArrive {
                t_ns,
                request,
                fanout,
                ..
            } => {
                arrive.insert(request, (t_ns, fanout));
            }
            TraceEvent::OpDispatch {
                t_ns,
                request,
                op,
                server,
                attempt,
                est_ns,
                ..
            } => {
                if attempt == 0 {
                    let d = demand.entry(request).or_insert(0);
                    *d = (*d).max(est_ns);
                }
                dispatch.insert((request, op, server), (t_ns, est_ns));
            }
            TraceEvent::OpEnqueue {
                t_ns,
                request,
                op,
                server,
                queue_len,
            } => {
                let (arrival, fanout) = arrive.get(&request).copied().unwrap_or((t_ns, 1));
                let (sent, est) = dispatch
                    .get(&(request, op, server))
                    .copied()
                    .unwrap_or((t_ns, 0));
                let bneck = demand.get(&request).copied().unwrap_or(est);
                let tag = OpTag {
                    op: OpId {
                        request: RequestId(request),
                        index: op,
                    },
                    request_arrival: SimTime::from_nanos(arrival),
                    fanout,
                    local_estimate: SimDuration::from_nanos(est),
                    bottleneck_eta: SimTime::from_nanos(sent + bneck),
                    bottleneck_demand: SimDuration::from_nanos(bneck),
                };
                let q = queue(&mut queues, server)?;
                let now = SimTime::from_nanos(t_ns);
                let start = Instant::now();
                q.enqueue(
                    QueuedOp {
                        tag,
                        local_estimate: tag.local_estimate,
                        enqueued_at: now,
                    },
                    now,
                );
                c.enqueue_ns += clock(start);
                c.enqueues += 1;
                if q.len() != queue_len as usize {
                    return Err(format!(
                        "server {server} holds {} ops after enqueue, trace says {queue_len}",
                        q.len()
                    ));
                }
            }
            TraceEvent::SchedDecision {
                t_ns,
                request,
                op,
                server,
                position,
                queue_len,
                ..
            } => {
                let q = queue(&mut queues, server)?;
                if q.len() != queue_len as usize {
                    return Err(format!(
                        "server {server} holds {} ops at a decision, trace says {queue_len}",
                        q.len()
                    ));
                }
                let start = Instant::now();
                let picked = q.dequeue(SimTime::from_nanos(t_ns));
                c.dequeue_ns += clock(start);
                black_box(picked);
                c.dequeues += 1;
                c.decisions += 1;
                c.reordered += u64::from(position > 0);
                c.depths.push(queue_len as f64);
                leader.insert(server, (t_ns, request, op));
            }
            // The visit's leader was dequeued at its decision; every other
            // member was pulled from the queue behind it.
            TraceEvent::Batched {
                t_ns,
                request,
                op,
                server,
                ..
            } if leader.get(&server) != Some(&(t_ns, request, op)) => {
                let q = queue(&mut queues, server)?;
                let start = Instant::now();
                let picked = q.dequeue(SimTime::from_nanos(t_ns));
                c.dequeue_ns += clock(start);
                black_box(picked);
                c.dequeues += 1;
            }
            TraceEvent::HintArrive {
                t_ns,
                request,
                server,
                eta_ns,
                remaining_ns,
            } if wants_hints => {
                let q = queue(&mut queues, server)?;
                let update = HintUpdate {
                    bottleneck_eta: SimTime::from_nanos(eta_ns),
                    remaining_demand: SimDuration::from_nanos(remaining_ns),
                };
                let start = Instant::now();
                q.on_hint(RequestId(request), update, SimTime::from_nanos(t_ns));
                c.hint_ns += clock(start);
                c.hints += 1;
            }
            TraceEvent::ServerCrash { t_ns, server } => {
                black_box(queue(&mut queues, server)?.drain(SimTime::from_nanos(t_ns)));
            }
            _ => {}
        }
    }
    c.enqueue_ns = c.enqueue_ns.max(0.0);
    c.dequeue_ns = c.dequeue_ns.max(0.0);
    c.hint_ns = c.hint_ns.max(0.0);
    Ok(c)
}

fn queue(
    queues: &mut [Box<dyn Scheduler>],
    server: u32,
) -> Result<&mut Box<dyn Scheduler>, String> {
    queues
        .get_mut(server as usize)
        .ok_or_else(|| format!("trace names server {server} outside the cluster"))
}

/// Counts and host times of the chaos search's public steps.
#[derive(Debug, Default, Clone)]
struct ChaosSpans {
    cases: u64,
    sim_runs: u64,
    shrink_evals: u64,
    hits: u64,
    generate_s: f64,
    run_paired_s: f64,
    oracle_s: f64,
    shrink_s: f64,
}

/// Drives the chaos search through its public steps — `SearchSpace::generate`,
/// `ChaosCase::run_paired`, `oracle::evaluate`, `shrink` — in the order
/// `das_chaos::search` calls them, timing each, and checks the result
/// against the report `search` produced. The benchmark's search never
/// mutates (`mutation_fraction` 0), so every case is generated.
fn chaos_spans(cfg: &ChaosConfig, expected: &ChaosReport, rep: &mut Report) -> ChaosSpans {
    let mut s = ChaosSpans::default();
    if cfg.mutation_fraction != 0.0 {
        rep.fail("chaos: the timed search steps cover only mutation_fraction 0");
        return s;
    }
    let mut hits: BTreeMap<String, u64> = BTreeMap::new();
    let mut findings = 0usize;
    let seeds = SeedFactory::new(cfg.seed);
    for i in 0..cfg.budget {
        let (case, gen_s) = timed(|| cfg.space.generate(&seeds, i));
        s.generate_s += gen_s;
        s.cases += 1;
        let case = match case {
            Ok(c) => c,
            Err(e) => {
                rep.fail(format!("chaos generate: {e}"));
                return s;
            }
        };
        let (paired, paired_s) = timed(|| case.run_paired());
        s.run_paired_s += paired_s;
        s.sim_runs += 2;
        let paired = match paired {
            Ok(p) => p,
            Err(e) => {
                rep.fail(format!("chaos run_paired: {e}"));
                return s;
            }
        };
        let (violations, oracle_s) = timed(|| evaluate(&case, &paired, &cfg.oracles));
        s.oracle_s += oracle_s;
        for v in &violations {
            *hits.entry(v.oracle.clone()).or_insert(0) += 1;
        }
        if let Some(v) = violations.first() {
            if findings < cfg.max_findings {
                findings += 1;
                if cfg.shrink {
                    shrink_span(cfg, &case, v, &mut s);
                }
            }
        }
    }
    s.hits = hits.values().sum();
    let shrink_evals: u64 = expected.findings.iter().map(|f| f.shrink_evals).sum();
    if hits != expected.oracle_hits
        || s.sim_runs != expected.sim_runs
        || findings != expected.findings.len()
        || s.shrink_evals != shrink_evals
    {
        rep.fail("chaos: the timed search steps disagree with das_chaos::search");
    }
    s
}

/// One finding's shrink, as `das_chaos::search` runs it: the delta-debug
/// loop, then one re-evaluation of the minimized case.
fn shrink_span(cfg: &ChaosConfig, case: &ChaosCase, v: &Violation, s: &mut ChaosSpans) {
    let oracle = v.oracle.clone();
    let oracles: &OracleConfig = &cfg.oracles;
    let reproduce = |c: &ChaosCase| -> bool {
        c.run_paired()
            .ok()
            .is_some_and(|p| evaluate(c, &p, oracles).iter().any(|x| x.oracle == oracle))
    };
    let mut sims = 0u64;
    let (outcome, shrink_s) = timed(|| {
        shrink(
            case,
            &mut |c| {
                sims += 2;
                reproduce(c)
            },
            cfg.shrink_budget,
        )
    });
    s.shrink_s += shrink_s;
    s.shrink_evals += outcome.evaluations;
    let (_, paired_s) = timed(|| reproduce(&outcome.case));
    s.run_paired_s += paired_s;
    s.sim_runs += sims + 2;
}
