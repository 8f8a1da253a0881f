//! Allocation regression guard for the hot path.
//!
//! Drives an int-only 3-way chain join to steady state (window full, slab
//! bands recycling, Arc pool and scratch buffers warm), then counts global
//! heap allocations across a block of updates. The whole point of the slab
//! stores, inline composites, and hash-once probes is that a steady-state
//! update allocates **nothing** — these tests pin that property so it
//! cannot silently regress, with no cache, with a plain cache (miss walks
//! and profiled walks), and with a globally-consistent cache (separately
//! computed maintenance) on the §7.2 stream and on Figure 12's cyclic one.
//! Allocations are counted by `acq_bench::alloc::CountingAlloc`.

use acq::candidates::EnumerationConfig;
use acq::engine::{AdaptiveJoinEngine, CacheMode, EngineConfig, ReoptInterval};
use acq_bench::alloc::{thread_allocs, CountingAlloc};
use acq_gen::column::ColumnGen;
use acq_gen::spec::{chain3_default, StreamSpec, Workload};
use acq_mjoin::plan::{PipelineOrder, PlanOrders};
use acq_stream::{QuerySchema, RelId, Update};
use acq_telemetry::MetricValue;

/// Counts are per thread: the engine runs on the test's thread, and tests
/// run in parallel.
#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Housekeeping (stat epochs, re-optimization) runs rarely by design and
/// may allocate; push it out of the measured window so the tests observe
/// the pure per-update path.
fn config(mode: CacheMode) -> EngineConfig {
    EngineConfig {
        mode,
        reopt_interval: ReoptInterval::Tuples(u64::MAX),
        stats_epoch_ns: u64::MAX,
        ..EngineConfig::default()
    }
}

/// Feed at least 25,000 updates and until `warm` holds, then count
/// allocations over the rest of the stream. The stream is pre-generated so
/// the generator's own allocations stay outside the measurement.
fn assert_steady_state_allocation_free(
    engine: &mut AdaptiveJoinEngine,
    updates: &[Update],
    warm: impl Fn(&AdaptiveJoinEngine) -> bool,
) {
    let mut out = Vec::new();
    let mut fed = 0;
    for chunk in updates.chunks(1_000) {
        if fed >= 25_000 && warm(engine) {
            break;
        }
        for u in chunk {
            out.clear();
            engine.process_into(u, &mut out);
        }
        fed += chunk.len();
    }
    let measured = &updates[fed..];
    assert!(
        measured.len() >= 5_000,
        "stream too short for a steady state"
    );
    let before = thread_allocs();
    for u in measured {
        out.clear();
        engine.process_into(u, &mut out);
    }
    let allocs = thread_allocs() - before;
    assert_eq!(
        allocs,
        0,
        "steady-state hot path allocated {allocs} times over {} updates",
        measured.len()
    );
}

#[test]
fn steady_state_update_is_allocation_free() {
    let mut engine = AdaptiveJoinEngine::with_config(
        QuerySchema::chain3(),
        PlanOrders::identity(&QuerySchema::chain3()),
        config(CacheMode::None),
    );
    // Int-only sliding-window chain workload.
    let updates = chain3_default(5, 100, 0xA110C).generate(30_000);
    assert_steady_state_allocation_free(&mut engine, &updates, |_| true);
}

/// Arrivals generated for the cache cases: long enough for every bucket of
/// a 1024-bucket store to see a key, with updates left to measure.
const STREAM: usize = 120_000;

/// Sum of gauge `name` over all its label sets.
fn gauge_total(engine: &AdaptiveJoinEngine, name: &str) -> f64 {
    let snap = engine.telemetry_snapshot();
    let gauges = snap.metrics().iter().filter(|m| m.name == name);
    gauges
        .map(|m| match m.value {
            MetricValue::Gauge(v) => v,
            _ => 0.0,
        })
        .sum()
}

/// A cache store allocates an entry the first time a key lands in an empty
/// bucket; after that, displaced entries donate their buffers. Steady state
/// starts once every bucket holds an entry.
fn store_full(engine: &AdaptiveJoinEngine) -> bool {
    gauge_total(engine, "store.entries") == gauge_total(engine, "store.buckets")
}

/// The R⋈S cache in ∆T's pipeline: misses walk the segment, and profiled
/// ∆T tuples (which skip the lookup) walk the whole pipeline.
#[test]
fn steady_state_with_plain_cache_is_allocation_free() {
    let q = QuerySchema::chain3();
    let mut engine = AdaptiveJoinEngine::with_config(
        q.clone(),
        PlanOrders::identity(&q),
        config(CacheMode::Forced(vec![(
            RelId(2),
            vec![RelId(0), RelId(1)],
        )])),
    );
    assert_eq!(engine.used_caches().len(), 1, "forced cache must exist");
    let updates = chain3_default(5, 100, 0xA110C).generate(STREAM);
    let before = engine.counters();
    assert_steady_state_allocation_free(&mut engine, &updates, store_full);
    let after = engine.counters();
    assert!(
        after.cache_misses > before.cache_misses,
        "no miss walks ran"
    );
    assert!(after.cache_hits > before.cache_hits, "no cache hits");
}

/// Figure 12's plan with its globally-consistent (S⋈T)⋉R cache in ∆R's
/// pipeline forced on: every S and T update computes the cache's
/// segment-join delta separately.
fn global_cache_engine() -> AdaptiveJoinEngine {
    let p = |stream: u16, order: [u16; 2]| PipelineOrder {
        stream: RelId(stream),
        order: order.iter().map(|&r| RelId(r)).collect(),
    };
    let orders = PlanOrders::new(vec![p(0, [1, 2]), p(1, [0, 2]), p(2, [1, 0])]);
    let mut cfg = config(CacheMode::Forced(vec![(
        RelId(0),
        vec![RelId(1), RelId(2)],
    )]));
    cfg.enumeration = EnumerationConfig {
        enable_global: true,
        max_candidates: 6,
        ..Default::default()
    };
    let engine = AdaptiveJoinEngine::with_config(QuerySchema::chain3(), orders, cfg);
    let used = engine.used_caches();
    assert!(
        used.len() == 1 && used[0].contains('⋉'),
        "forced cache must be globally consistent, got {used:?}"
    );
    engine
}

/// The global cache on the §7.2 stream, measured once its store is full.
#[test]
fn steady_state_with_global_cache_is_allocation_free() {
    let mut engine = global_cache_engine();
    let updates = chain3_default(5, 100, 0xA110C).generate(STREAM);
    assert_steady_state_allocation_free(&mut engine, &updates, store_full);
    assert!(engine.cache_memory_bytes() > 0, "global cache stayed empty");
}

/// The global cache on Figure 12's cyclic stream (domain 100, ∆T at 5×,
/// no burst). Every expiry deletes a tuple while an equal one is live, so
/// the relation stores stay allocation free only if the delete removes the
/// oldest instance: removing the newest leaves the old one pinning its
/// slab page, and the band grows by a page every 64 inserts. With 100 keys
/// the 1024-bucket store never fills, so no store-full wait applies.
#[test]
fn steady_state_with_global_cache_on_cyclic_stream_is_allocation_free() {
    let cyc = |mult: u64| ColumnGen::Seq {
        multiplicity: mult,
        stride: 1,
        offset: 0,
        domain: 100,
    };
    let workload = Workload::new(
        vec![
            StreamSpec::new(0, 1.0, 100, vec![cyc(1)]),
            StreamSpec::new(1, 1.0, 100, vec![cyc(1), cyc(1)]),
            StreamSpec::new(2, 5.0, 500, vec![cyc(5)]),
        ],
        0xA110C,
    );
    let mut engine = global_cache_engine();
    let updates = workload.generate(STREAM);
    assert_steady_state_allocation_free(&mut engine, &updates, |_| true);
    assert!(engine.cache_memory_bytes() > 0, "global cache stayed empty");
}
