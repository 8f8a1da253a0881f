//! Hot-path throughput and allocation-rate bench.
//!
//! Measures **host wall-clock** steady-state throughput (ns/update) and
//! heap allocations per update for the per-update execution path. Unlike
//! the figure experiments (which charge work to deterministic *virtual*
//! clocks to stay machine-independent), this bench deliberately reports
//! wall time: allocation and scheduling cost are exactly the things the
//! virtual cost model does not charge for, and the before/after comparison
//! is run on the same machine.
//!
//! Two scenario groups:
//!
//! * **hotpath** — the PR 4 acceptance scenarios on the paper's two
//!   canonical query shapes (`chain3`, the §7.2 default 3-way chain, and
//!   `star4`, the Figure 9 star with mixed multiplicity), each through a
//!   single [`AdaptiveJoinEngine`] and a 4-shard [`ShardedEngine`] at the
//!   shard_scaling chunk size. Merged into `BENCH_hotpath.json`.
//! * **shard** — the sharded executor's scenarios: chain3 at 1/2/4 shards
//!   with 1024-update batches (shards fanned out to scoped threads), and
//!   star4 at 1/4 shards with 8-update batches (every shard run on the
//!   caller — star4 because every relation routes; chain3's broadcast
//!   relation duplicates its work on every shard, which would measure the
//!   query shape, not the dispatch path). The 1-shard runs drive
//!   `ShardedEngine` with one shard — the shard_scaling convention — so
//!   shard-count ratios isolate routing/dispatch cost from the executor's
//!   fixed canonical-ordering tax; the hotpath group's 1shard scenarios
//!   keep the plain-engine floor on record. Merged into
//!   `BENCH_shard.json`.
//!
//! Results are merged under a section named by `--label <name>` (default
//! `current`; `BENCH_hotpath.json`'s `baseline` section was recorded once
//! from the pre-PR-4 layout), so the files carry the perf trajectory
//! across PRs. `--smoke` runs a 1-iteration-scale sanity pass for CI and
//! only prints: it writes no file. `--only hotpath|shard` runs one group
//! and writes only its file; any other `--only` substring filters
//! scenarios without touching the JSON. Headline ratios compare scenarios
//! of this invocation only, never stored sections.

use acq::engine::{AdaptiveJoinEngine, EngineConfig, ReoptInterval, SelectionStrategy};
use acq::shard::{ShardConfig, ShardedEngine};
use acq_bench::alloc::{process_allocs, CountingAlloc};
use acq_bench::report::merge_label_section;
use acq_gen::column::ColumnGen;
use acq_gen::spec::{chain3_default, StreamSpec, Workload};
use acq_mjoin::plan::PlanOrders;
use acq_stream::{QuerySchema, Update};
use std::time::Instant;

/// Updates per ingestion batch for the hotpath group (matches the
/// shard_scaling bench); the shard group sets per-scenario chunk sizes.
const CHUNK: usize = 8192;

// Every heap allocation in the process is tallied (shards allocate on
// scoped threads) so the bench can report allocations per steady-state
// update.
#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

// ---------------------------------------------------------------------
// Workloads

fn chain3_workload(total: usize) -> (QuerySchema, Vec<Update>) {
    (QuerySchema::chain3(), chain3_default(5, 100, 0xBEEF).generate(total))
}

fn star4_workload(total: usize) -> (QuerySchema, Vec<Update>) {
    let n = 4usize;
    let window = 60usize;
    let q = QuerySchema::star(n);
    let streams: Vec<StreamSpec> = (0..n as u16)
        .map(|r| {
            let mult = if (r as usize) < n / 2 { 1 } else { 5 };
            let join_col = ColumnGen::BlockRandom {
                domain: window as u64,
                repeat: mult,
                salt: 0xA5A5_0000 + r as u64,
            };
            StreamSpec::new(r, 1.0, window, vec![join_col, ColumnGen::seq()])
        })
        .collect();
    (q, Workload::new(streams, 0x5CA1E).generate(total))
}

fn config() -> EngineConfig {
    EngineConfig {
        selection: SelectionStrategy::Auto,
        reopt_interval: ReoptInterval::VirtualNs(2_000_000_000),
        ..Default::default()
    }
}

// ---------------------------------------------------------------------
// Measurement

#[derive(Clone, Copy)]
struct Measured {
    updates: usize,
    ns_per_update: f64,
    updates_per_sec: f64,
    allocs_per_update: f64,
    alloc_bytes_per_update: f64,
    deltas: u64,
}

/// Which executor a scenario drives.
#[derive(Clone, Copy, PartialEq)]
enum Mode {
    /// The plain single [`AdaptiveJoinEngine`] (the PR 4 scenarios; also
    /// the absolute floor no sharded run can beat — the sharded executor
    /// additionally pays for routing and canonical output order).
    Engine,
    /// `ShardedEngine` at any shard count — 1-shard runs measure the
    /// executor's own dispatch overhead, the same convention as the
    /// shard_scaling bench.
    Sharded,
}

enum Exec {
    // Boxed to keep the variants comparable in size (the engine is a large
    // flat struct; the sharded executor is mostly vectors of shards).
    Single(Box<AdaptiveJoinEngine>),
    Sharded(Box<ShardedEngine>),
}

impl Exec {
    fn build(q: &QuerySchema, shards: usize, mode: Mode) -> Exec {
        let shard_cfg = ShardConfig {
            num_shards: shards,
            partition_class: None,
        };
        match mode {
            Mode::Engine => Exec::Single(Box::new(
                AdaptiveJoinEngine::with_config(q.clone(), PlanOrders::identity(q), config()),
            )),
            Mode::Sharded => Exec::Sharded(Box::new(ShardedEngine::with_config(
                q.clone(),
                PlanOrders::identity(q),
                config(),
                shard_cfg,
            ))),
        }
    }

    fn feed(&mut self, updates: &[Update], chunk: usize) -> u64 {
        let mut deltas = 0u64;
        for chunk in updates.chunks(chunk) {
            deltas += match self {
                Exec::Single(e) => {
                    let mut out = Vec::new();
                    for u in chunk {
                        e.process_into(u, &mut out);
                    }
                    out.len() as u64
                }
                Exec::Sharded(e) => e.process_batch(chunk).len() as u64,
            };
        }
        deltas
    }
}

/// Warm the engine over a stream prefix (windows fill, plans settle), then
/// time the steady-state suffix.
fn run(q: &QuerySchema, updates: &[Update], shards: usize, mode: Mode, chunk: usize, warmup: usize) -> Measured {
    let mut e = Exec::build(q, shards, mode);
    let warmup = warmup.min(updates.len() / 2);
    let warm_deltas = e.feed(&updates[..warmup], chunk);
    std::hint::black_box(warm_deltas);
    let steady = &updates[warmup..];
    let (a0, b0) = process_allocs();
    let t0 = Instant::now();
    let deltas = e.feed(steady, chunk);
    let elapsed = t0.elapsed();
    let (a1, b1) = process_allocs();
    std::hint::black_box(deltas);
    let n = steady.len() as f64;
    // HOTPATH_COUNTERS=1: dump engine counters so per-update work (probes,
    // hits, misses) can be inspected when chasing regressions.
    if std::env::var_os("HOTPATH_COUNTERS").is_some() {
        if let Exec::Single(e) = &e {
            let c = e.counters();
            eprintln!(
                "counters: tuples={} outputs={} cache_hits={} cache_misses={} \
                 reopts={} ({:.3} hits/update, {:.4} misses/update)",
                c.tuples_processed,
                c.outputs_emitted,
                c.cache_hits,
                c.cache_misses,
                c.reoptimizations,
                c.cache_hits as f64 / c.tuples_processed as f64,
                c.cache_misses as f64 / c.tuples_processed as f64,
            );
        }
    }
    Measured {
        updates: steady.len(),
        ns_per_update: elapsed.as_nanos() as f64 / n,
        updates_per_sec: n / elapsed.as_secs_f64(),
        allocs_per_update: (a1 - a0) as f64 / n,
        alloc_bytes_per_update: (b1 - b0) as f64 / n,
        deltas,
    }
}

// ---------------------------------------------------------------------
// Bench-JSON output (shared helpers live in acq_bench::report)

fn scenario_json(m: &Measured) -> String {
    format!(
        "{{\n      \"updates\": {},\n      \"ns_per_update\": {:.1},\n      \
         \"updates_per_sec\": {:.0},\n      \"allocs_per_update\": {:.3},\n      \
         \"alloc_bytes_per_update\": {:.1},\n      \"deltas\": {}\n    }}",
        m.updates, m.ns_per_update, m.updates_per_sec, m.allocs_per_update,
        m.alloc_bytes_per_update, m.deltas
    )
}

fn write_bench_json(path: &str, label: &str, scenarios: &[(String, Measured)]) {
    let mut body = String::from("{\n");
    for (i, (name, m)) in scenarios.iter().enumerate() {
        body.push_str(&format!("    \"{name}\": {}", scenario_json(m)));
        body.push_str(if i + 1 < scenarios.len() { ",\n" } else { "\n" });
    }
    body.push_str("  }");
    merge_label_section(path, label, body);
}

/// Print `name: num/den` in ns/update when this run measured both
/// scenarios.
fn headline(results: &[(&str, String, Measured)], name: &str, num: &str, den: &str) {
    let ns = |scenario: &str| {
        results
            .iter()
            .find(|(_, n, _)| n == scenario)
            .map(|(_, _, m)| m.ns_per_update)
    };
    if let (Some(a), Some(b)) = (ns(num), ns(den)) {
        println!("{name}: {:.2}x ({a:.0} vs {b:.0} ns/update)", a / b);
    }
}

// ---------------------------------------------------------------------

type WorkloadFn = fn(usize) -> (QuerySchema, Vec<Update>);

struct Scenario {
    group: &'static str,
    name: &'static str,
    gen: WorkloadFn,
    shards: usize,
    mode: Mode,
    chunk: usize,
}

const fn sc(
    group: &'static str,
    name: &'static str,
    gen: WorkloadFn,
    shards: usize,
    mode: Mode,
    chunk: usize,
) -> Scenario {
    Scenario {
        group,
        name,
        gen,
        shards,
        mode,
        chunk,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke")
        || std::env::var_os("HOTPATH_SMOKE").is_some();
    let label = args
        .iter()
        .position(|a| a == "--label")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .or_else(|| std::env::var("BENCH_LABEL").ok())
        .unwrap_or_else(|| "current".to_string());
    // `--only hotpath` / `--only shard` runs one whole group (its JSON is
    // written); any other substring filters scenarios without touching the
    // JSON — for quick A/B iterations and profiling single scenarios.
    let only = args
        .iter()
        .position(|a| a == "--only")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let group_only = matches!(only.as_deref(), Some("hotpath") | Some("shard"));

    let (total, warmup) = if smoke { (3_000, 1_000) } else { (400_000, 50_000) };
    let scenarios: Vec<Scenario> = vec![
        sc("hotpath", "chain3/1shard", chain3_workload, 1, Mode::Engine, CHUNK),
        sc("hotpath", "chain3/4shard", chain3_workload, 4, Mode::Sharded, CHUNK),
        sc("hotpath", "star4/1shard", star4_workload, 1, Mode::Engine, CHUNK),
        sc("hotpath", "star4/4shard", star4_workload, 4, Mode::Sharded, CHUNK),
        sc("shard", "chain3/1shard/b1024", chain3_workload, 1, Mode::Sharded, 1024),
        sc("shard", "chain3/2shard/b1024", chain3_workload, 2, Mode::Sharded, 1024),
        sc("shard", "chain3/4shard/b1024", chain3_workload, 4, Mode::Sharded, 1024),
        sc("shard", "star4/1shard/b8", star4_workload, 1, Mode::Sharded, 8),
        sc("shard", "star4/4shard/b8", star4_workload, 4, Mode::Sharded, 8),
    ];

    println!(
        "hotpath bench: {} steady-state updates per scenario ({} warmup){}",
        total - warmup,
        warmup,
        if smoke { " [smoke]" } else { "" }
    );
    let mut results: Vec<(&'static str, String, Measured)> = Vec::new();
    for s in &scenarios {
        let selected = match only.as_deref() {
            None => true,
            Some(o) if group_only => s.group == o,
            Some(o) => s.name.contains(o),
        };
        if !selected {
            continue;
        }
        let (q, updates) = (s.gen)(total);
        let m = run(&q, &updates, s.shards, s.mode, s.chunk, warmup);
        println!(
            "{:>26}: {:>8.0} ns/update  {:>9.0} t/s  {:>7.2} allocs/update  \
             {:>8.0} B/update  ({} deltas)",
            s.name, m.ns_per_update, m.updates_per_sec, m.allocs_per_update,
            m.alloc_bytes_per_update, m.deltas
        );
        results.push((s.group, s.name.to_string(), m));
    }
    // Headlines compare scenarios of this run only: the sharded executor's
    // routing and merge tax over the plain engine, and the small-batch
    // inline criterion (4shard/b8 must be ≤ 1x).
    headline(&results, "chain3 4shard vs 1shard", "chain3/4shard", "chain3/1shard");
    headline(&results, "4shard/b8 vs 1shard/b8", "star4/4shard/b8", "star4/1shard/b8");
    // Smoke numbers are not measurements, and a scenario filter leaves a
    // group incomplete: neither is written.
    if smoke || (only.is_some() && !group_only) {
        return;
    }
    for (group, path) in [("hotpath", "BENCH_hotpath.json"), ("shard", "BENCH_shard.json")] {
        let group_results: Vec<(String, Measured)> = results
            .iter()
            .filter(|(g, _, _)| *g == group)
            .map(|(_, n, m)| (n.clone(), *m))
            .collect();
        if !group_results.is_empty() {
            write_bench_json(path, &label, &group_results);
        }
    }
}
