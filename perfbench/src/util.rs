//! Small measurement helpers: medians, a byte-counting sink, peak RSS.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::hint::black_box;
use std::io;
use std::time::Instant;

/// Median of `xs` (mean of the middle pair for even lengths); `NaN` when
/// empty so a missing sample can never pass as a measurement.
pub fn median(xs: &[f64]) -> f64 {
    let mut v: Vec<f64> = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank quantile of already collected values.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut v: Vec<f64> = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Host seconds spent in `f`, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// An `io::Write` that only counts bytes, so trace export is measured
/// without disk speed entering the numbers.
#[derive(Debug, Default)]
pub struct CountingSink {
    pub bytes: u64,
}

impl io::Write for CountingSink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.bytes += buf.len() as u64;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Peak resident set size of this process in MB (`VmHWM`), or `None`
/// where `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Median host cost of timing an empty span with `Instant`, subtracted
/// from per-call timings so cheap calls are not dominated by the clock.
pub fn clock_overhead_ns() -> f64 {
    let spans: Vec<f64> = (0..20_001)
        .map(|_| {
            let t = Instant::now();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    median(&spans)
}

/// Host seconds of a fixed calibration kernel: a miniature discrete-event
/// loop (event heap, per-server FIFO queues, an ordered in-flight map,
/// exponential gaps) written here, sharing no code with the program, so
/// that a change to the program cannot move it.
pub fn calibration_s() -> f64 {
    const SERVERS: u64 = 50;
    let start = Instant::now();
    let mut heap = BinaryHeap::with_capacity(1024);
    let mut queues: Vec<VecDeque<u64>> = vec![VecDeque::new(); SERVERS as usize];
    let mut in_flight: BTreeMap<u64, u64> = BTreeMap::new();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    for seq in 0..512u64 {
        heap.push(Reverse((seq * 1_000, seq, [seq; 6])));
    }
    for seq in 512..120_512u64 {
        let Some(Reverse((now, id, payload))) = heap.pop() else {
            break;
        };
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let server = (x % SERVERS) as usize;
        match id % 3 {
            0 => {
                queues[server].push_back(id);
                in_flight.insert(id, now);
            }
            1 => {
                if let Some(op) = queues[server].pop_front() {
                    black_box(in_flight.remove(&op));
                }
            }
            _ => {}
        }
        let u = ((x >> 11) as f64 + 0.5) / (1u64 << 53) as f64;
        let gap = (-u.ln() * 200_000.0) as u64;
        heap.push(Reverse((
            now + gap,
            seq,
            [payload[0] ^ x, seq, 0, 0, 0, now],
        )));
    }
    black_box((heap.len(), in_flight.len()));
    start.elapsed().as_secs_f64()
}
