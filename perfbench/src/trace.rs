//! The traced run: per-layer metrics, measured from outside.
//!
//! Spans are recorded only here, around the benchmark's own calls into each
//! crate's public functions; engine code is not instrumented. Counts come
//! from the counters and telemetry snapshots the engines already export,
//! taken at the end of the warm-up prefix and at the end of the suffix.
//! Spans stay in memory and are written out as CSV when the run ends.

use crate::alloc;
use crate::exec::{self, Sink, BATCH};
use crate::measure::median;
use crate::workloads::Bench;
use acq::engine::{AdaptiveJoinEngine, CacheMode, EngineConfig};
use acq::shard::canonicalize_group;
use acq_mjoin::exec::JoinCore;
use acq_telemetry::{MetricValue, TelemetrySnapshot};
use std::io::Write;
use std::time::{Duration, Instant};

/// One traced interval. A span's id is its index in [`Tracer::spans`].
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Id of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// Index into [`Tracer::names`].
    pub name: u16,
    /// Nanoseconds since the tracer started.
    pub start: u64,
    pub end: u64,
}

pub const NO_PARENT: u32 = u32::MAX;

/// In-memory span recorder.
pub struct Tracer {
    epoch: Instant,
    names: Vec<&'static str>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(capacity: usize) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            names: Vec::new(),
            spans: Vec::with_capacity(capacity),
        }
    }

    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Interned id of a span name.
    pub fn name(&mut self, name: &'static str) -> u16 {
        match self.names.iter().position(|&n| n == name) {
            Some(i) => i as u16,
            None => {
                self.names.push(name);
                (self.names.len() - 1) as u16
            }
        }
    }

    /// Record a finished span; returns its id.
    pub fn push(&mut self, name: u16, parent: u32, start: u64, end: u64) -> u32 {
        self.spans.push(Span {
            parent,
            name,
            start,
            end,
        });
        (self.spans.len() - 1) as u32
    }

    /// Open a span (closed by [`Tracer::close`]).
    pub fn open(&mut self, name: &'static str, parent: u32) -> u32 {
        let (id, now) = (self.name(name), self.now());
        self.push(id, parent, now, now)
    }

    pub fn close(&mut self, span: u32) {
        self.spans[span as usize].end = self.now();
    }

    /// Time `f` as a span named `name` under `parent`; returns its result and
    /// the span's duration in nanoseconds.
    pub fn time<R>(&mut self, name: &'static str, parent: u32, f: impl FnOnce() -> R) -> (R, u64) {
        let id = self.name(name);
        let t0 = self.now();
        let r = f();
        let t1 = self.now();
        self.push(id, parent, t0, t1);
        (r, t1 - t0)
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Write every span as `id,parent,name,start_ns,end_ns` (parent empty for
    /// roots; `name` indexes the legend on the first line).
    pub fn write_csv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        let legend: Vec<String> = self
            .names
            .iter()
            .enumerate()
            .map(|(i, n)| format!("{i}={n}"))
            .collect();
        writeln!(w, "# names: {}", legend.join(" "))?;
        writeln!(w, "id,parent,name,start_ns,end_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                String::new()
            } else {
                s.parent.to_string()
            };
            writeln!(w, "{i},{parent},{},{},{}", s.name, s.start, s.end)?;
        }
        w.flush()
    }
}

/// A per-layer metric value.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// Layer → metrics, and the end-to-end metric each should move on which
/// workload (the prediction a later change is checked against).
pub const LAYERS: &[(&str, &[&str], &str, &str)] = &[
    (
        "acq::engine (update path)",
        &[
            "engine.ns_per_update",
            "engine.allocs_per_update",
            "engine.alloc_bytes_per_update",
            "engine.outputs_per_update",
        ],
        "throughput_ups, state_mb",
        "all three",
    ),
    (
        "acq-relation",
        &["relation.apply_ns"],
        "throughput_ups",
        "chain3, burst",
    ),
    (
        "acq-mjoin",
        &["mjoin.ns_per_update", "mjoin.probes_per_update"],
        "throughput_ups, latency_p99_us",
        "d6; little on chain3",
    ),
    (
        "acq::cache + acq-sketch Bloom",
        &[
            "cache.probes_per_update",
            "cache.hit_ratio",
            "cache.bloom_filtered_frac",
            "cache.maintenance_per_update",
            "cache.creates_per_update",
            "cache.memory_mb",
            "cache.wall_ratio",
            "cache.virtual_ratio",
        ],
        "throughput_ups, latency_p50_us",
        "chain3; no change predicted on d6; burst shows probe gains that cost maintenance",
    ),
    (
        "acq::profiler / acq::select (re-optimizer)",
        &[
            "reopt.reselections",
            "reopt.skipped",
            "reopt.demotions",
            "reopt.call_us",
            "reopt.force_us",
        ],
        "virtual_rate_tps, throughput_ups (through plan choice)",
        "burst; re-optimizer speed predicted to move no end-to-end metric",
    ),
    (
        "acq::shard (router + canonical merge)",
        &[
            "shard.broadcast_frac",
            "shard.imbalance",
            "merge.deltas_per_update",
            "merge.canonicalize_ns_per_delta",
        ],
        "runtime.sharded_throughput_ups",
        "merge: d6, no change predicted on chain3; broadcast: chain3, burst",
    ),
    (
        "acq::runtime (workers, SPSC rings)",
        &[
            "runtime.sharded_throughput_ups",
            "runtime.batch_us_p50",
            "runtime.parked_ratio",
            "runtime.merge_lag",
            "runtime.queue_depth",
        ],
        "runtime.sharded_throughput_ups",
        "all three",
    ),
    (
        "acq-telemetry",
        &["telemetry.snapshot_us"],
        "none (off the hot path)",
        "-",
    ),
    ("trace itself", &["trace.overhead_frac"], "-", "all three"),
];

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn counter(s: &TelemetrySnapshot, name: &str) -> f64 {
    s.counter_total(name) as f64
}

/// Sum of every gauge named `name`, across label sets.
fn gauge_total(s: &TelemetrySnapshot, name: &str) -> f64 {
    s.metrics()
        .iter()
        .filter(|m| m.name == name)
        .map(|m| match m.value {
            MetricValue::Gauge(v) => v,
            _ => 0.0,
        })
        .sum()
}

/// What one traced single-engine pass measured.
struct EnginePass {
    updates_per_s: f64,
    ns_per_update: f64,
    allocs: u64,
    alloc_bytes: u64,
    deltas: u64,
    virtual_ns: u64,
    reopt_call_ns: Vec<u64>,
    force_ns: u64,
    snapshot_ns: Vec<u64>,
    warm: TelemetrySnapshot,
    end: TelemetrySnapshot,
}

/// Single engine, untraced: suffix throughput only.
fn untraced_pass(b: &Bench) -> f64 {
    let mut sink: Sink = Vec::with_capacity(1 << 12);
    let mut e = exec::single(b);
    exec::feed_single(&mut e, b.prefix(), &mut sink);
    let t = Instant::now();
    exec::feed_single(&mut e, b.suffix(), &mut sink);
    b.suffix().len() as f64 / t.elapsed().as_secs_f64()
}

/// Single engine with a span around every `process_into` call, and
/// allocations counted on the suffix.
fn engine_pass(b: &Bench, tr: &mut Tracer, parent: u32) -> EnginePass {
    let pass = tr.open("pass.engine", parent);
    let call = tr.name("engine.process_into");
    let mut sink: Sink = Vec::with_capacity(1 << 12);
    let mut e = exec::single(b);
    // Reserved up front: it must not allocate while allocations are counted.
    let mut reopt_call_ns = Vec::with_capacity(1 << 14);
    let mut snapshot_ns = Vec::new();
    // On the prefix only calls that re-optimized keep their span (the dump
    // stays small); on the suffix every call does.
    let mut fed = |e: &mut AdaptiveJoinEngine,
                   tr: &mut Tracer,
                   updates: &[acq_stream::Update],
                   keep_all: bool| {
        let mut deltas = 0u64;
        for u in updates {
            sink.clear();
            let before = e.counters();
            let t0 = tr.now();
            e.process_into(u, &mut sink);
            let t1 = tr.now();
            let after = e.counters();
            let reoptimized = (after.reoptimizations, after.demotions, after.reorderings)
                != (before.reoptimizations, before.demotions, before.reorderings);
            if reoptimized {
                reopt_call_ns.push(t1 - t0);
            }
            if keep_all || reoptimized {
                tr.push(call, pass, t0, t1);
            }
            deltas += sink.len() as u64;
        }
        deltas
    };
    fed(&mut e, tr, b.prefix(), false);
    let (warm, ns) = tr.time("telemetry.snapshot", pass, || e.telemetry_snapshot());
    snapshot_ns.push(ns);
    let v0 = e.core().now_ns();
    let span0 = tr.len();
    let t = Instant::now();
    let (deltas, counts) = alloc::counting(|| {
        let c0 = alloc::counts();
        let d = fed(&mut e, tr, b.suffix(), true);
        (d, alloc::counts().since(c0))
    });
    let wall = t.elapsed().as_secs_f64();
    let virtual_ns = e.core().now_ns() - v0;
    let suffix_span_ns: u64 = tr.spans[span0..].iter().map(|s| s.end - s.start).sum();
    for _ in 0..5 {
        let (_, ns) = tr.time("telemetry.snapshot", pass, || e.telemetry_snapshot());
        snapshot_ns.push(ns);
    }
    let end = e.telemetry_snapshot();
    let ((), force_ns) = tr.time("engine.force_reoptimize", pass, || e.force_reoptimize());
    tr.close(pass);
    let n = b.suffix().len() as f64;
    EnginePass {
        updates_per_s: n / wall,
        ns_per_update: suffix_span_ns as f64 / n,
        allocs: counts.allocs,
        alloc_bytes: counts.bytes,
        deltas,
        virtual_ns,
        reopt_call_ns,
        force_ns,
        snapshot_ns,
        warm,
        end,
    }
}

/// Bare `JoinCore` store upkeep: the stream's inserts and deletes only.
fn relation_pass(b: &Bench, tr: &mut Tracer, parent: u32) -> f64 {
    let mut core = JoinCore::new(b.query.clone());
    for u in b.prefix() {
        std::hint::black_box(core.apply_update(u));
    }
    let ((), ns) = tr.time("relation.apply_update(suffix)", parent, || {
        for u in b.suffix() {
            std::hint::black_box(core.apply_update(u));
        }
    });
    ns as f64 / b.suffix().len() as f64
}

/// The same stream through the engine with caching off (plain MJoin).
/// Returns wall ns/update, probes/update, virtual ns/update and deltas.
fn mjoin_pass(b: &Bench, tr: &mut Tracer, parent: u32) -> (f64, f64, f64, u64) {
    let pass = tr.open("pass.mjoin", parent);
    let call = tr.name("mjoin.process_into");
    let mut sink: Sink = Vec::with_capacity(1 << 12);
    let mut e = exec::single_with(
        b,
        EngineConfig {
            mode: CacheMode::None,
            ..b.config.clone()
        },
    );
    exec::feed_single(&mut e, b.prefix(), &mut sink);
    let probes0 = counter(&e.telemetry_snapshot(), "op.tuples_in");
    let v0 = e.core().now_ns();
    let (mut span_ns, mut deltas) = (0u64, 0u64);
    for u in b.suffix() {
        sink.clear();
        let t0 = tr.now();
        e.process_into(u, &mut sink);
        let t1 = tr.now();
        tr.push(call, pass, t0, t1);
        span_ns += t1 - t0;
        deltas += sink.len() as u64;
    }
    let probes = counter(&e.telemetry_snapshot(), "op.tuples_in") - probes0;
    let virtual_ns = e.core().now_ns() - v0;
    tr.close(pass);
    let n = b.suffix().len() as f64;
    (
        span_ns as f64 / n,
        probes / n,
        virtual_ns as f64 / n,
        deltas,
    )
}

/// `canonicalize_group` over the single engine's grouped suffix output.
/// Returns ns per delta and the delta count.
fn merge_pass(b: &Bench, tr: &mut Tracer, parent: u32) -> (f64, u64) {
    let pass = tr.open("pass.canonicalize", parent);
    let n = b.query.num_relations();
    let mut sink: Sink = Vec::with_capacity(1 << 12);
    let mut e = exec::single(b);
    exec::feed_single(&mut e, b.prefix(), &mut sink);
    let (mut ns, mut deltas) = (0u64, 0u64);
    for batch in b.suffix().chunks(BATCH) {
        let mut groups = e.process_batch_grouped(batch);
        deltas += groups.iter().map(|g| g.len() as u64).sum::<u64>();
        let ((), t) = tr.time("shard.canonicalize_group(batch)", pass, || {
            for g in &mut groups {
                canonicalize_group(g, n);
            }
        });
        ns += t;
    }
    tr.close(pass);
    (ratio(ns as f64, deltas as f64), deltas)
}

/// What the traced sharded pass measured.
struct ShardPass {
    broadcast_frac: f64,
    imbalance: f64,
    deltas: u64,
    batch_ns: Vec<u64>,
    parked_ratio: f64,
    merge_lag: f64,
    queue_depth: f64,
}

fn shard_pass(b: &Bench, shards: usize, tr: &mut Tracer, parent: u32) -> ShardPass {
    let pass = tr.open("pass.sharded", parent);
    let call = tr.name("sharded.process_batch");
    let mut e = exec::sharded(b, shards);
    exec::feed_sharded(&mut e, b.prefix());
    let tuples = |e: &acq::shard::ShardedEngine| -> Vec<u64> {
        (0..e.num_shards())
            .map(|i| e.with_shard(i, |s| s.counters().tuples_processed))
            .collect()
    };
    let (r0, t0) = (e.routing_stats(), tuples(&e));
    let mut deltas = 0u64;
    let mut batch_ns = Vec::new();
    for batch in b.suffix().chunks(BATCH) {
        let s = tr.now();
        deltas += e.process_batch(batch).len() as u64;
        let f = tr.now();
        tr.push(call, pass, s, f);
        batch_ns.push(f - s);
    }
    let (r1, t1) = (e.routing_stats(), tuples(&e));
    let (snap, _) = tr.time("sharded.telemetry_snapshot", pass, || {
        e.telemetry_snapshot()
    });
    tr.close(pass);
    let per_shard: Vec<f64> = t1.iter().zip(&t0).map(|(a, b)| (a - b) as f64).collect();
    let mean = per_shard.iter().sum::<f64>() / per_shard.len() as f64;
    let broadcast = (r1.broadcast - r0.broadcast) as f64;
    ShardPass {
        broadcast_frac: ratio(broadcast, broadcast + (r1.routed - r0.routed) as f64),
        imbalance: ratio(per_shard.iter().cloned().fold(0.0, f64::max), mean),
        deltas,
        batch_ns,
        parked_ratio: gauge_total(&snap, "shard.parked_ratio"),
        merge_lag: gauge_total(&snap, "merge.lag"),
        queue_depth: gauge_total(&snap, "shard.queue_depth"),
    }
}

fn median_u64(v: &[u64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        median(&v.iter().map(|&x| x as f64).collect::<Vec<_>>())
    }
}

/// The traced run. Untraced and traced single-engine passes alternate
/// (1 or 2 pairs, the second only within 40% of `seconds`) for the tracing overhead; the
/// other layers get one pass each. Also returns the suffix delta count of
/// every pass, each of which must equal the verified pass's.
pub fn run(b: &Bench, shards: usize, seconds: u64, tr: &mut Tracer) -> (Vec<Metric>, Vec<u64>) {
    let root = tr.open("trace.run", NO_PARENT);
    let budget = Instant::now() + Duration::from_secs_f64(seconds as f64 * 0.4);
    let (mut untraced, mut traced, mut passes) = (Vec::new(), Vec::new(), Vec::new());
    while passes.is_empty() || (passes.len() < 2 && Instant::now() < budget) {
        untraced.push(untraced_pass(b));
        let p = engine_pass(b, tr, root);
        traced.push(p.updates_per_s);
        passes.push(p);
    }
    let relation_ns = relation_pass(b, tr, root);
    let (mjoin_ns, mjoin_probes, mjoin_vns, mjoin_deltas) = mjoin_pass(b, tr, root);
    let (canon_ns, canon_deltas) = merge_pass(b, tr, root);
    let sp = shard_pass(b, shards, tr, root);
    tr.close(root);

    let n = b.suffix().len() as f64;
    let last = passes.last().expect("at least one traced pass");
    let (w, e) = (&last.warm, &last.end);
    let d = |name: &str| counter(e, name) - counter(w, name);
    let probes = d("engine.cache_hits") + d("engine.cache_misses");
    let ns_per_update = median(&passes.iter().map(|p| p.ns_per_update).collect::<Vec<_>>());
    let suffix_from = w.get("engine.virtual_ns", &[]).map_or(0, |v| match v {
        MetricValue::Counter(c) => *c,
        _ => 0,
    });
    let skipped = e
        .events_of_kind("selection.skipped")
        .filter(|ev| ev.at_ns >= suffix_from)
        .count();
    let reopt_calls: Vec<u64> = passes
        .iter()
        .flat_map(|p| p.reopt_call_ns.iter().copied())
        .collect();
    let m = |name, unit, value| Metric { name, unit, value };
    let metrics = vec![
        m("engine.ns_per_update", "ns", ns_per_update),
        m("engine.allocs_per_update", "count", last.allocs as f64 / n),
        m(
            "engine.alloc_bytes_per_update",
            "bytes",
            last.alloc_bytes as f64 / n,
        ),
        m("engine.outputs_per_update", "count", last.deltas as f64 / n),
        m("relation.apply_ns", "ns", relation_ns),
        m("mjoin.ns_per_update", "ns", mjoin_ns),
        m("mjoin.probes_per_update", "count", mjoin_probes),
        m("cache.probes_per_update", "count", probes / n),
        m(
            "cache.hit_ratio",
            "fraction",
            ratio(d("engine.cache_hits"), probes),
        ),
        m(
            "cache.bloom_filtered_frac",
            "fraction",
            ratio(d("store.bloom_filtered"), d("store.misses")),
        ),
        m(
            "cache.maintenance_per_update",
            "count",
            d("store.maintenance_applied") / n,
        ),
        m("cache.creates_per_update", "count", d("store.creates") / n),
        m(
            "cache.memory_mb",
            "MiB",
            gauge_total(e, "memory.cache_bytes") / (1u64 << 20) as f64,
        ),
        m("cache.wall_ratio", "ratio", ratio(ns_per_update, mjoin_ns)),
        m(
            "cache.virtual_ratio",
            "ratio",
            ratio(last.virtual_ns as f64 / n, mjoin_vns),
        ),
        m("reopt.reselections", "count", d("engine.reoptimizations")),
        m("reopt.skipped", "count", skipped as f64),
        m("reopt.demotions", "count", d("engine.demotions")),
        m("reopt.call_us", "us", median_u64(&reopt_calls) / 1e3),
        m(
            "reopt.force_us",
            "us",
            median_u64(&passes.iter().map(|p| p.force_ns).collect::<Vec<_>>()) / 1e3,
        ),
        m("shard.broadcast_frac", "fraction", sp.broadcast_frac),
        m("shard.imbalance", "ratio", sp.imbalance),
        m("merge.deltas_per_update", "count", sp.deltas as f64 / n),
        m("merge.canonicalize_ns_per_delta", "ns", canon_ns),
        m(
            "runtime.sharded_throughput_ups",
            "updates/s",
            n / (sp.batch_ns.iter().sum::<u64>() as f64 / 1e9),
        ),
        m("runtime.batch_us_p50", "us", median_u64(&sp.batch_ns) / 1e3),
        m("runtime.parked_ratio", "fraction", sp.parked_ratio),
        m("runtime.merge_lag", "count", sp.merge_lag),
        m("runtime.queue_depth", "count", sp.queue_depth),
        m(
            "telemetry.snapshot_us",
            "us",
            median_u64(
                &passes
                    .iter()
                    .flat_map(|p| p.snapshot_ns.iter().copied())
                    .collect::<Vec<_>>(),
            ) / 1e3,
        ),
        m(
            "trace.overhead_frac",
            "fraction",
            1.0 - median(&traced) / median(&untraced),
        ),
    ];
    let mut deltas: Vec<u64> = passes.iter().map(|p| p.deltas).collect();
    deltas.extend([mjoin_deltas, canon_deltas, sp.deltas]);
    (metrics, deltas)
}
