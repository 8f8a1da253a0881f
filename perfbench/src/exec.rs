//! Building and feeding the two public executors the way the benchmark's
//! closed loop does: the single engine one update per `process_into` call
//! into a reused sink, the sharded engine in 1024-update batches.

use crate::workloads::Bench;
use acq::engine::{AdaptiveJoinEngine, EngineConfig};
use acq::shard::{ShardConfig, ShardedEngine};
use acq_stream::{Composite, Op, Update};

/// Updates per `ShardedEngine::process_batch` call.
pub const BATCH: usize = 1024;

/// Delta sink reused across `process_into` calls.
pub type Sink = Vec<(Op, Composite)>;

/// Shards used by the sharded executor: one per available core.
pub fn shard_count() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A fresh single engine for `b`, under `config`.
pub fn single_with(b: &Bench, config: EngineConfig) -> AdaptiveJoinEngine {
    AdaptiveJoinEngine::with_config(b.query.clone(), b.orders.clone(), config)
}

/// A fresh single engine for `b`.
pub fn single(b: &Bench) -> AdaptiveJoinEngine {
    single_with(b, b.config.clone())
}

/// A fresh sharded engine for `b` at `shards` shards.
pub fn sharded(b: &Bench, shards: usize) -> ShardedEngine {
    ShardedEngine::with_config(
        b.query.clone(),
        b.orders.clone(),
        b.config.clone(),
        ShardConfig {
            num_shards: shards,
            partition_class: None,
        },
    )
}

/// Feed `updates` one at a time; returns the number of deltas emitted.
pub fn feed_single(e: &mut AdaptiveJoinEngine, updates: &[Update], sink: &mut Sink) -> u64 {
    let mut deltas = 0u64;
    for u in updates {
        sink.clear();
        e.process_into(u, sink);
        deltas += sink.len() as u64;
    }
    deltas
}

/// Feed `updates` in [`BATCH`]-update batches; returns the number of deltas.
pub fn feed_sharded(e: &mut ShardedEngine, updates: &[Update]) -> u64 {
    updates
        .chunks(BATCH)
        .map(|c| e.process_batch(c).len() as u64)
        .sum()
}
