//! Tier-2 conformance tests: a bounded sweep must run green, a deliberately
//! planted cache-maintenance bug must be flagged, and every committed corpus
//! case must still reproduce green.

use acq::engine::{AdaptiveJoinEngine, InjectedFault};
use acq_harness::casefile::{ArrivalSpec, CaseSpec, ConfigId, SchemaSpec};
use acq_harness::{gencase, sweep};
use std::path::PathBuf;

#[test]
fn bounded_sweep_is_green() {
    for i in 0..4 {
        let spec = gencase::generate(7, i);
        let outcome = sweep::run_case(&spec)
            .unwrap_or_else(|f| panic!("{}: [{}] {}", spec.name, f.run, f.detail));
        assert!(outcome.updates > 0);
        // Per shard count the sweep runs the sharded executor and the
        // scoped-thread reference executor, hence two runs per entry.
        assert_eq!(
            outcome.runs,
            ConfigId::ALL.len() + 2 * spec.shards.len(),
            "every sweep point must actually run"
        );
    }
}

/// A hand-built chain3 case whose forced {S,T} cache sees probe hits *and*
/// segment maintenance: S and T fill first, ∆R probes populate the cache,
/// then re-inserting T values through the full window forces evictions whose
/// deltas must be maintained into the cache.
fn maintenance_heavy_case() -> CaseSpec {
    let mut arrivals = Vec::new();
    let mut ts = 0u64;
    for i in 0..6i64 {
        arrivals.push(ArrivalSpec { rel: 1, ts, vals: vec![i, i] });
        ts += 1;
        arrivals.push(ArrivalSpec { rel: 2, ts, vals: vec![i] });
        ts += 1;
    }
    for i in 0..6i64 {
        arrivals.push(ArrivalSpec { rel: 0, ts, vals: vec![i] });
        ts += 1;
    }
    // T's window (6) is full: each re-insert evicts the oldest tuple,
    // generating delete maintenance for the cached segment.
    for i in 0..6i64 {
        arrivals.push(ArrivalSpec { rel: 2, ts, vals: vec![i] });
        ts += 1;
    }
    CaseSpec {
        name: "maintenance-heavy".to_string(),
        schema: SchemaSpec::Chain3,
        windows: vec![6, 12, 6],
        churns: Vec::new(),
        arrivals,
        configs: vec![ConfigId::Forced],
        shards: vec![1],
    }
}

/// A hand-built chain3 case of over 600 updates on 1, 2 and 4 shards. The
/// sweep feeds the shards alternately 16 and `INLINE_BATCH` updates, so
/// its 256-update batches fan the shards out to scoped threads (on a host
/// with more than one core) and meet the oracle, the scoped-thread
/// reference executor and the mid-run invariant sweeps.
fn threaded_shards_case() -> CaseSpec {
    let mut arrivals = Vec::new();
    for i in 0..120i64 {
        let ts = 3 * i as u64;
        let (a, b) = (i % 7, i * 3 % 5);
        arrivals.push(ArrivalSpec {
            rel: 0,
            ts,
            vals: vec![a],
        });
        arrivals.push(ArrivalSpec {
            rel: 1,
            ts: ts + 1,
            vals: vec![a, b],
        });
        arrivals.push(ArrivalSpec {
            rel: 2,
            ts: ts + 2,
            vals: vec![i % 5],
        });
    }
    CaseSpec {
        name: "threaded-shards".to_string(),
        schema: SchemaSpec::Chain3,
        windows: vec![8, 16, 8],
        churns: Vec::new(),
        arrivals,
        configs: vec![ConfigId::Forced, ConfigId::Greedy],
        shards: vec![1, 2, 4],
    }
}

#[test]
fn threaded_shard_batches_are_green() {
    let spec = threaded_shards_case();
    let outcome = sweep::run_case(&spec).unwrap_or_else(|f| panic!("[{}] {}", f.run, f.detail));
    assert!(outcome.updates >= 600, "only {} updates", outcome.updates);
    assert_eq!(outcome.runs, spec.configs.len() + 2 * spec.shards.len());
}

#[test]
fn sanity_maintenance_case_is_green() {
    let spec = maintenance_heavy_case();
    sweep::run_case(&spec).unwrap_or_else(|f| panic!("[{}] {}", f.run, f.detail));
}

#[test]
fn injected_fault_is_flagged_by_the_harness() {
    let spec = maintenance_heavy_case();
    let updates = sweep::derive_updates(&spec);
    let deltas = sweep::oracle_deltas(&spec, &updates);
    let query = spec.schema.query();

    for fault in [InjectedFault::SkipTapDeletes, InjectedFault::SkipTapInserts] {
        let config = sweep::engine_config(ConfigId::Forced, spec.schema);
        let orders = sweep::plan_orders(ConfigId::Forced, spec.schema);
        let mut engine = AdaptiveJoinEngine::with_config(query.clone(), orders, config);
        engine.inject_fault(Some(fault));
        let err = sweep::run_engine_updates(&mut engine, &updates, &deltas);
        assert!(
            err.is_err(),
            "planted {fault:?} must be caught by the differential/invariant checks"
        );
    }
}

#[test]
fn corpus_cases_reproduce_green() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus");
    let mut checked = 0usize;
    let Ok(rd) = std::fs::read_dir(&dir) else {
        return; // corpus not present in this checkout
    };
    let mut paths: Vec<PathBuf> = rd
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|e| e == "json"))
        .collect();
    paths.sort();
    for path in paths {
        let text = std::fs::read_to_string(&path).expect("readable corpus file");
        let spec = CaseSpec::from_json(&text)
            .unwrap_or_else(|e| panic!("{path:?} does not parse: {e}"));
        sweep::run_case(&spec)
            .unwrap_or_else(|f| panic!("corpus case {path:?}: [{}] {}", f.run, f.detail));
        checked += 1;
    }
    assert!(checked > 0, "corpus directory exists but holds no cases");
}

#[test]
fn shrinker_minimizes_a_planted_fault_reproducer() {
    // End-to-end shrink against the real engine: the failure predicate runs
    // the forced-cache configuration with a planted stale-delete fault. The
    // shrunk case must still trip the checkers and must be smaller than the
    // original (it needs a probe to populate the cache plus an eviction to
    // skip, but not the full workload).
    let spec = maintenance_heavy_case();
    let query = spec.schema.query();
    let fails = |c: &CaseSpec| {
        let updates = sweep::derive_updates(c);
        let deltas = sweep::oracle_deltas(c, &updates);
        let config = sweep::engine_config(ConfigId::Forced, c.schema);
        let orders = sweep::plan_orders(ConfigId::Forced, c.schema);
        let mut engine = AdaptiveJoinEngine::with_config(query.clone(), orders, config);
        engine.inject_fault(Some(InjectedFault::SkipTapDeletes));
        sweep::run_engine_updates(&mut engine, &updates, &deltas).is_err()
    };
    assert!(fails(&spec), "planted fault must fail before shrinking");
    let min = acq_harness::shrink::shrink_with(&spec, fails);
    assert!(fails(&min), "shrunk case must still reproduce");
    assert!(
        min.arrivals.len() < spec.arrivals.len(),
        "expected a reduction below {} arrivals, got {}",
        spec.arrivals.len(),
        min.arrivals.len()
    );
    // The reproducer must replay from its serialized form.
    let replayed = CaseSpec::from_json(&min.to_json()).expect("reproducer parses");
    assert!(fails(&replayed), "serialized reproducer must still fail");
}

