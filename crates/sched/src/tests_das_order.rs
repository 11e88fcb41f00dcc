//! DAS keeps its queue in arrival order and reads the oldest op and the
//! pick's arrival-order position straight off the index. These tests check
//! that layout against a reference that does not rely on queue order —
//! slots tagged with an arrival sequence number, removed with
//! `swap_remove`, the oldest op found by a scan and the position counted —
//! on random sequences of enqueues, dequeues, hints and clock advances.

use das_sim::stats::Ewma;
use das_sim::time::{SimDuration, SimTime};
use proptest::prelude::*;

use crate::das::{Das, DasConfig};
use crate::scheduler::{DequeueDecision, DequeueRule, Scheduler};
use crate::types::{HintUpdate, OpId, OpTag, QueuedOp, RequestId};

#[derive(Debug, Clone, Copy)]
struct Slot {
    seq: u64,
    op: QueuedOp,
}

/// The swap-remove DAS queue, kept only as the reference for these tests.
#[derive(Debug)]
struct SwapRemoveDas {
    config: DasConfig,
    queue: Vec<Slot>,
    next_seq: u64,
    wait_ewma: Ewma,
    demand_ewma: Ewma,
}

impl SwapRemoveDas {
    fn new(config: DasConfig) -> Self {
        SwapRemoveDas {
            config,
            queue: Vec::new(),
            next_seq: 0,
            wait_ewma: Ewma::new(0.02),
            demand_ewma: Ewma::new(0.02),
        }
    }

    fn enqueue(&mut self, op: QueuedOp) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push(Slot { seq, op });
    }

    fn on_hint(&mut self, request: RequestId, update: HintUpdate) {
        if !(self.config.adaptive || self.config.oracle) {
            return;
        }
        for slot in &mut self.queue {
            if slot.op.tag.op.request == request {
                slot.op.tag.bottleneck_eta = update.bottleneck_eta;
                slot.op.tag.bottleneck_demand = update.remaining_demand;
            }
        }
    }

    fn starving(&self, op: &QueuedOp, now: SimTime) -> bool {
        if self.config.starvation_factor <= 0.0 {
            return false;
        }
        match self.wait_ewma.value() {
            Some(avg) if avg > 0.0 => {
                op.wait_at(now).as_secs_f64() > self.config.starvation_factor * avg
            }
            _ => false,
        }
    }

    fn aging_slope(&self) -> f64 {
        if self.config.aging == 0.0 {
            return 0.0;
        }
        match (self.demand_ewma.value(), self.wait_ewma.value()) {
            (Some(d), Some(w)) if w > 0.0 => self.config.aging * (d / w).min(1.0),
            _ => self.config.aging,
        }
    }

    fn select(&self, now: SimTime) -> Option<(usize, DequeueRule)> {
        let oldest = self
            .queue
            .iter()
            .enumerate()
            .min_by_key(|(_, s)| s.seq)
            .map(|(i, _)| i)?;
        if self.queue.len() <= self.config.fcfs_fallback_len {
            return Some((oldest, DequeueRule::FcfsFallback));
        }
        if self.starving(&self.queue[oldest].op, now) {
            return Some((oldest, DequeueRule::StarvationGuard));
        }
        let slope = self.aging_slope();
        let mut best = 0usize;
        let mut best_rank = f64::INFINITY;
        let mut best_seq = u64::MAX;
        for (i, slot) in self.queue.iter().enumerate() {
            let local = slot.op.local_estimate.as_secs_f64();
            let remaining = if self.config.use_remaining_bottleneck {
                local.max(slot.op.tag.bottleneck_demand.as_secs_f64())
            } else {
                local
            };
            let r = remaining - slope * slot.op.wait_at(now).as_secs_f64();
            let ord = r.total_cmp(&best_rank);
            if ord.is_lt() || (ord.is_eq() && slot.seq < best_seq) {
                best = i;
                best_rank = r;
                best_seq = slot.seq;
            }
        }
        Some((best, DequeueRule::MinRank))
    }

    fn dequeue(&mut self, now: SimTime) -> Option<(QueuedOp, DequeueDecision)> {
        let (idx, rule) = self.select(now)?;
        let picked_seq = self.queue[idx].seq;
        let position = self.queue.iter().filter(|s| s.seq < picked_seq).count() as u32;
        let queue_len = self.queue.len() as u32;
        let slot = self.queue.swap_remove(idx);
        self.wait_ewma.record(slot.op.wait_at(now).as_secs_f64());
        self.demand_ewma
            .record(slot.op.local_estimate.as_secs_f64());
        Some((
            slot.op,
            DequeueDecision {
                rule,
                position,
                queue_len,
            },
        ))
    }
}

/// One step of a random workload: `(kind, a, b, advance_us)`. The clock
/// first advances by `advance_us`; then `kind % 4` selects enqueue (0, 1),
/// dequeue (2) or hint (3), with `a` and `b` choosing the request and the
/// demands. Demands come from a few coarse values so exact rank ties
/// happen often.
type Step = (u8, u64, u64, u64);

fn config(
    fallback: usize,
    starvation: u8,
    aging: u8,
    remaining: bool,
    adaptive: bool,
) -> DasConfig {
    DasConfig {
        aging: [0.0, 0.01, 0.1][aging as usize % 3],
        starvation_factor: [0.0, 1.5, 4.0][starvation as usize % 3],
        fcfs_fallback_len: fallback,
        use_remaining_bottleneck: remaining,
        adaptive,
        oracle: false,
    }
}

/// Drives `steps` through [`Das`] and the reference and fails at the
/// first step where the pick, its decision or the queue length differ.
/// Returns which rules fired (fallback, guard, min-rank).
fn run_against_reference(config: DasConfig, steps: &[Step]) -> Result<[bool; 3], String> {
    let mut das = Das::new(config);
    let mut reference = SwapRemoveDas::new(config);
    let mut now = SimTime::ZERO;
    let mut seen = [false; 3];
    for (i, &(kind, a, b, advance_us)) in steps.iter().enumerate() {
        now += SimDuration::from_micros(advance_us);
        let request = RequestId(a % 8);
        match kind % 4 {
            0 | 1 => {
                let local = SimDuration::from_micros(10 * (1 + b % 5));
                let op = QueuedOp {
                    tag: OpTag {
                        op: OpId {
                            request,
                            index: i as u32,
                        },
                        request_arrival: now,
                        fanout: 2,
                        local_estimate: local,
                        bottleneck_eta: now + local,
                        bottleneck_demand: SimDuration::from_micros(10 * (1 + (a / 8) % 20)),
                    },
                    local_estimate: local,
                    enqueued_at: now,
                };
                das.enqueue(op, now);
                reference.enqueue(op);
            }
            2 => {
                let got = das.dequeue(now).map(|(o, d)| (o.tag.op, d));
                let want = reference.dequeue(now).map(|(o, d)| (o.tag.op, d));
                if got != want {
                    return Err(format!("step {i}: DAS picked {got:?}, reference {want:?}"));
                }
                if let Some((_, d)) = got {
                    seen[match d.rule {
                        DequeueRule::FcfsFallback => 0,
                        DequeueRule::StarvationGuard => 1,
                        _ => 2,
                    }] = true;
                }
            }
            _ => {
                let update = HintUpdate {
                    bottleneck_eta: now,
                    remaining_demand: SimDuration::from_micros(10 * (1 + b % 20)),
                };
                das.on_hint(request, update, now);
                reference.on_hint(request, update);
            }
        }
        if das.len() != reference.queue.len() {
            return Err(format!(
                "step {i}: DAS holds {} ops, reference {}",
                das.len(),
                reference.queue.len()
            ));
        }
    }
    Ok(seen)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arrival-ordered DAS picks exactly what the swap-remove layout
    /// picked, with the same rule, position and queue length.
    #[test]
    fn arrival_order_matches_swap_remove_reference(
        knobs in (0usize..4, 0u8..3, 0u8..3, any::<bool>(), any::<bool>()),
        steps in proptest::collection::vec((0u8..4, 0u64..160, 0u64..100, 0u64..400), 1..200),
    ) {
        let (fallback, starvation, aging, remaining, adaptive) = knobs;
        let config = config(fallback, starvation, aging, remaining, adaptive);
        let outcome = run_against_reference(config, &steps);
        prop_assert!(outcome.is_ok(), "{:?}: {:?}", config, outcome);
    }
}

#[test]
fn reference_comparison_reaches_every_rule() {
    // A fixed workload whose dequeues lag its enqueues, so the queue runs
    // deep and old ops age past the starvation guard.
    let mut x = 0x2545_f491_4f6c_dd1du64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let steps: Vec<Step> = (0..4_000)
        .map(|_| ((next() % 4) as u8, next() % 160, next() % 100, next() % 400))
        .collect();
    let mut seen = [false; 3];
    for fallback in [0, 2] {
        for starvation in 0..3 {
            let config = config(fallback, starvation, 1, true, true);
            let s = run_against_reference(config, &steps).unwrap();
            for (acc, hit) in seen.iter_mut().zip(s) {
                *acc |= hit;
            }
        }
    }
    assert_eq!(
        seen, [true; 3],
        "fallback, guard and min-rank must all fire"
    );
}
