//! The correctness gate and the state measurement, run outside every timed
//! region.
//!
//! Pass 1 feeds a fresh single engine the whole stream, one update per call,
//! with the counting allocator on and no other thread running. On a fixed
//! prefix each update's delta multiset is compared with the naive oracle's.
//! On the suffix each update's deltas are reduced to a [`Digest`], and the
//! engine's live heap is read after every update.
//!
//! Pass 2 feeds a fresh sharded engine the same stream in the timed rounds'
//! batches; every suffix update's digest must equal the single engine's.
//! The passes also record the workload's shape: the properties each
//! workload was chosen for.

use crate::alloc;
use crate::exec::{self, Sink, BATCH};
use crate::workloads::Bench;
use acq_mjoin::oracle::{canonical_rows, multiset_diff, Oracle};
use acq_stream::{Composite, Op, RelId};
use std::hash::{DefaultHasher, Hash, Hasher};

/// Updates checked against the naive oracle (it recomputes every delta
/// from the window contents, about 100 µs per update).
pub const ORACLE_PREFIX: usize = 4_000;

/// Outcome of the gate plus the workload-shape record.
#[derive(Debug, Clone, Default)]
pub struct Verdict {
    /// Suffix updates compared, single vs sharded.
    pub checked: u64,
    /// Of those, updates whose delta multisets differed.
    pub mismatched: u64,
    /// Stream index of the first update that differed.
    pub first_mismatch: Option<usize>,
    /// Prefix updates compared, single vs oracle.
    pub oracle_checked: u64,
    /// Of those, updates whose delta multisets differed.
    pub oracle_mismatched: u64,
    /// Deltas on the suffix, single engine and sharded engine.
    pub single_deltas: u64,
    pub sharded_deltas: u64,
    /// Live heap held by the single engine, in bytes, averaged over every
    /// update of the suffix. Caches come and go during a run (on `d6`
    /// constantly), so the average over all updates is steadier than any
    /// single point or a sparse sample of points.
    pub state_bytes: f64,
    /// Single-engine cache probes and hits on the suffix.
    pub probes: u64,
    pub hits: u64,
    /// Single-engine re-selections on the suffix.
    pub reselections: u64,
    /// Updates broadcast to every shard / routed to one, on the suffix.
    pub broadcast: u64,
    pub routed: u64,
    /// Caches in use at the end of the stream.
    pub used_caches: Vec<String>,
}

/// Order-independent digest of one update's delta multiset: the number of
/// deltas and the wrapping sum of a SipHash of each delta's op and
/// canonical row (the per-relation tuple data in relation order). Two
/// multisets that differ collide with probability about 2⁻⁶⁴.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Digest {
    count: u64,
    sum: u64,
}

fn digest(deltas: &[(Op, Composite)], n: usize) -> Digest {
    let mut d = Digest::default();
    for (op, c) in deltas {
        let mut h = DefaultHasher::new();
        op.hash(&mut h);
        for r in 0..n as u16 {
            c.part(RelId(r)).map(|t| &t.data).hash(&mut h);
        }
        d.count += 1;
        d.sum = d.sum.wrapping_add(h.finish());
    }
    d
}

/// Run the gate on `b` at `shards` shards.
pub fn verify(b: &Bench, shards: usize) -> Verdict {
    let n = b.query.num_relations();
    let suffix = b.suffix();
    let mut v = Verdict::default();
    // Everything pass 1 keeps is allocated before counting starts.
    let mut digests: Vec<Digest> = Vec::with_capacity(suffix.len());
    let mut live_sum = 0f64;
    let mut sink: Sink = Vec::with_capacity(1 << 12);
    let delta_size = std::mem::size_of::<(Op, Composite)>() as i64;

    let single = alloc::counting(|| {
        let c0 = alloc::counts();
        let cap0 = sink.capacity() as i64;
        let mut single = exec::single(b);
        let mut oracle = Oracle::new(b.query.clone());
        for u in &b.prefix()[..ORACLE_PREFIX.min(b.warmup)] {
            sink.clear();
            single.process_into(u, &mut sink);
            let mine: Vec<_> = sink
                .iter()
                .map(|(op, c)| (*op, canonical_rows(c, n)))
                .collect();
            v.oracle_checked += 1;
            if !multiset_diff(&mine, &oracle.apply_and_delta(u)).is_empty() {
                v.oracle_mismatched += 1;
            }
        }
        drop(oracle);
        exec::feed_single(
            &mut single,
            &b.prefix()[ORACLE_PREFIX.min(b.warmup)..],
            &mut sink,
        );
        let c_warm = single.counters();
        for u in suffix {
            sink.clear();
            single.process_into(u, &mut sink);
            v.single_deltas += sink.len() as u64;
            digests.push(digest(&sink, n));
            let sink_growth = (sink.capacity() as i64 - cap0) * delta_size;
            live_sum += (alloc::counts().since(c0).live - sink_growth) as f64;
        }
        let c_end = single.counters();
        v.probes =
            (c_end.cache_hits + c_end.cache_misses) - (c_warm.cache_hits + c_warm.cache_misses);
        v.hits = c_end.cache_hits - c_warm.cache_hits;
        v.reselections = c_end.reoptimizations - c_warm.reoptimizations;
        single
    });
    v.state_bytes = live_sum / suffix.len() as f64;
    v.used_caches = single.used_caches();
    drop(single);

    let mut sharded = exec::sharded(b, shards);
    exec::feed_sharded(&mut sharded, b.prefix());
    let r0 = sharded.routing_stats();
    for (batch_no, batch) in suffix.chunks(BATCH).enumerate() {
        let groups = sharded.process_batch_grouped(batch);
        for k in 0..batch.len() {
            let index = batch_no * BATCH + k;
            let theirs = groups.get(k).map(|g| digest(g, n));
            v.checked += 1;
            v.sharded_deltas += theirs.map_or(0, |d| d.count);
            if theirs != Some(digests[index]) {
                v.mismatched += 1;
                v.first_mismatch.get_or_insert(b.warmup + index);
            }
        }
    }
    let r1 = sharded.routing_stats();
    v.broadcast = r1.broadcast - r0.broadcast;
    v.routed = r1.routed - r0.routed;
    v
}
