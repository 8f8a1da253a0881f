//! The untraced run: end-to-end metrics.
//!
//! A round builds both executors and warms the single engine on the prefix
//! (set-up). While the sharded engine has had at most [`SHARDED_SHARE`] of
//! the measured time so far, the round then warms the sharded engine and
//! times it on the suffix. It drops the sharded engine (joining its workers)
//! and times the single engine on the suffix with nothing else running.
//! The single engine carries every bounded figure, so it gets most of the
//! time: on `d6` the sharded suffix takes three times as long as the single
//! one, and timing it every round would leave the single engine a quarter of
//! the run.
//! One update in [`LATENCY_EVERY`], chosen by the seed, is timed on its
//! own for the latency percentiles. Rounds repeat until the run's seconds
//! are spent. Set-up is the median over rounds. Single-engine throughput
//! and latency take each window's or update's fastest time over rounds (see
//! [`single_throughput`] and [`latency`]). The host is shared: its memory
//! latency swings by half over seconds to minutes (a pointer-chasing loop
//! outside the engine shows it too), and contention only ever adds time. A
//! median over rounds follows those phases; the fastest of many rounds
//! estimates the code's own cost.

use crate::exec::{self, Sink};
use crate::workloads::{splitmix, Bench};
use std::time::{Duration, Instant};

/// One update in this many is timed individually.
pub const LATENCY_EVERY: u64 = 8;

/// Updates per window of the single engine's timed suffix. Small windows
/// let each stretch of the suffix take its fastest round on its own; 256
/// gave the same figures and spread.
const WINDOW: usize = 1_024;

/// Share of the measured time the sharded engine gets at most; its
/// throughput is printed but not bounded (see the README's hazards).
const SHARDED_SHARE: f64 = 0.25;

/// Rounds run even when the time budget is spent sooner.
const MIN_ROUNDS: usize = 3;

/// What one round measured.
#[derive(Debug, Clone)]
pub struct Round {
    /// Building both executors and feeding the single engine the prefix.
    pub setup_s: f64,
    pub single_s: f64,
    /// The sharded pass, in the rounds that time one.
    pub sharded: Option<ShardedPass>,
    /// Nanoseconds of each sampled update's `process_into` call, in
    /// suffix order (the same updates in every round).
    pub latency_ns: Vec<u64>,
    /// Deltas the single engine emitted on the suffix; every round must
    /// match the verified pass.
    pub single_deltas: u64,
    /// Virtual nanoseconds the single engine charged on the suffix.
    pub suffix_virtual_ns: u64,
    /// Single-engine seconds spent on each consecutive [`WINDOW`] of the
    /// suffix (the last one may be shorter).
    pub window_s: Vec<f64>,
}

/// The sharded engine's part of a round.
#[derive(Debug, Clone)]
pub struct ShardedPass {
    /// Feeding the sharded engine the prefix.
    pub warmup_s: f64,
    pub suffix_s: f64,
    /// Deltas emitted on the suffix; must match the verified pass.
    pub deltas: u64,
}

/// Suffix offsets whose `process_into` call is timed.
pub fn latency_sample(suffix_len: usize, seed: u64) -> Vec<usize> {
    let mut s = seed ^ 0x1A7E_0C1E;
    (0..suffix_len)
        .filter(|_| splitmix(&mut s).is_multiple_of(LATENCY_EVERY))
        .collect()
}

/// Nearest-rank percentile of sorted samples.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of a non-empty list.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// One measured round; the sharded engine is timed if `time_sharded`.
pub fn round(b: &Bench, shards: usize, sampled: &[usize], time_sharded: bool) -> Round {
    let mut sink: Sink = Vec::with_capacity(1 << 12);
    let mut lat: Vec<u64> = Vec::with_capacity(sampled.len());

    let t0 = Instant::now();
    let mut single = exec::single(b);
    exec::feed_single(&mut single, b.prefix(), &mut sink);
    let mut sharded = exec::sharded(b, shards);
    let setup_s = t0.elapsed().as_secs_f64();
    // The sharded warm-up is the sharded executor's steady-state work, with
    // the same host-driven swings as its suffix: timed on its own.
    let sharded_pass = time_sharded.then(|| {
        let t = Instant::now();
        exec::feed_sharded(&mut sharded, b.prefix());
        let warmup_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let deltas = exec::feed_sharded(&mut sharded, b.suffix());
        ShardedPass {
            warmup_s,
            suffix_s: t.elapsed().as_secs_f64(),
            deltas,
        }
    });
    drop(sharded);

    let v0 = single.core().now_ns();
    let mut next = sampled.iter().copied();
    let mut want = next.next().unwrap_or(usize::MAX);
    let mut single_deltas = 0u64;
    let mut window_s = Vec::with_capacity(b.suffix().len() / WINDOW + 1);
    let t = Instant::now();
    let mut window_start = t;
    for (i, u) in b.suffix().iter().enumerate() {
        if i > 0 && i % WINDOW == 0 {
            let now = Instant::now();
            window_s.push((now - window_start).as_secs_f64());
            window_start = now;
        }
        sink.clear();
        if i == want {
            let t1 = Instant::now();
            single.process_into(u, &mut sink);
            lat.push(t1.elapsed().as_nanos() as u64);
            want = next.next().unwrap_or(usize::MAX);
        } else {
            single.process_into(u, &mut sink);
        }
        single_deltas += sink.len() as u64;
    }
    let end = Instant::now();
    window_s.push((end - window_start).as_secs_f64());
    let single_s = (end - t).as_secs_f64();
    let suffix_virtual_ns = single.core().now_ns() - v0;

    Round {
        setup_s,
        single_s,
        sharded: sharded_pass,
        latency_ns: lat,
        single_deltas,
        suffix_virtual_ns,
        window_s,
    }
}

/// Rounds until `seconds` have passed (at least [`MIN_ROUNDS`]).
pub fn rounds(b: &Bench, shards: usize, seed: u64, seconds: u64) -> Vec<Round> {
    let sampled = latency_sample(b.suffix().len(), seed);
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut out: Vec<Round> = Vec::new();
    let (mut single_total, mut sharded_total) = (0.0, 0.0);
    while out.len() < MIN_ROUNDS || Instant::now() < deadline {
        let time_sharded = sharded_total <= SHARDED_SHARE * (single_total + sharded_total);
        let r = round(b, shards, &sampled, time_sharded);
        single_total += r.single_s;
        sharded_total += r.sharded.as_ref().map_or(0.0, |p| p.warmup_s + p.suffix_s);
        out.push(r);
    }
    out
}

/// Single-engine suffix throughput: suffix updates over the sum, across the
/// suffix's windows, of each window's fastest time over rounds. Every window
/// counts with its own work (the burst regimes keep their weight), while a
/// slow host phase in one round's window is replaced by a faster round.
pub fn single_throughput(rounds: &[Round], updates: usize) -> f64 {
    let total: f64 = (0..rounds[0].window_s.len())
        .map(|w| fastest(rounds.iter().map(|r| r.window_s[w])))
        .sum();
    updates as f64 / total
}

/// Smallest of some times.
fn fastest(times: impl Iterator<Item = f64>) -> f64 {
    times.fold(f64::INFINITY, f64::min)
}

/// This round's own latency percentile, in nanoseconds.
pub fn round_latency(r: &Round, q: f64) -> f64 {
    let mut v: Vec<f64> = r.latency_ns.iter().map(|&ns| ns as f64).collect();
    v.sort_by(f64::total_cmp);
    percentile(&v, q)
}

/// Latency percentiles `qs`, in nanoseconds, over the sampled updates,
/// each update's latency being its fastest over rounds. One round's
/// percentile lands in a fast or a slow host phase, and so does a median of
/// per-round figures; the fastest time of each update is steadier.
pub fn latency(rounds: &[Round], qs: &[f64]) -> Vec<f64> {
    let mut per_update: Vec<f64> = (0..rounds[0].latency_ns.len())
        .map(|j| fastest(rounds.iter().map(|r| r.latency_ns[j] as f64)))
        .collect();
    per_update.sort_by(f64::total_cmp);
    qs.iter().map(|&q| percentile(&per_update, q)).collect()
}
