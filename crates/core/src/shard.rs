//! Sharded parallel execution of the A-Caching engine.
//!
//! The paper's engine (§3.1) is a strictly single-threaded event loop:
//! every update, across all streams, is processed to completion in global
//! arrival order. [`ShardedEngine`] scales that loop across cores by
//! **partitioning the update stream on one join-attribute equivalence
//! class** over `N` independent [`AdaptiveJoinEngine`] shards:
//!
//! * A **partition class** is chosen (automatically: the equivalence class
//!   whose member attributes span the most relations). Every relation with
//!   an attribute in that class is *routed*: each of its updates goes to
//!   the single shard owning that attribute's value. Relations without
//!   such an attribute are *broadcast* to every shard.
//! * Shard ownership of a partition-class value is assigned by a
//!   **balancing directory**: the first insert of a value sends it to the
//!   least-loaded shard (load = the shard's virtual cost clock, refreshed
//!   every batch, plus an estimate for updates routed since), and the
//!   assignment is pinned in a directory until the value's live tuple
//!   count returns to zero. Deletes follow the directory, so windows
//!   shrink in the shard they grew in. Compared to PR 1's stateless
//!   `hash(v) % N`, this evens out key-popularity skew instead of freezing
//!   it into the shard assignment.
//! * Each shard runs the full adaptive machinery (profiler, re-optimizer,
//!   cache stores) over its substream. A batch is routed into per-shard
//!   index lists, then the shards run: on `std::thread::scope` threads
//!   when the batch has at least [`INLINE_BATCH`] updates, each thread
//!   taking a contiguous chunk of shards and the caller running the first
//!   chunk itself; smaller batches run every shard on the caller.
//! * Output deltas are merged back into **global arrival order** by batch
//!   index; within one update's delta group the results are put in
//!   canonical row order ([`canonicalize_group`]), making the merged
//!   output a pure function of the input batch — bit-identical across
//!   runs, shard counts, and thread schedules.
//!
//! **Correctness.** All attributes of the partition class are transitively
//! equated by equijoin predicates, so every n-way result binds them to one
//! common value `v` (NULL joins nothing). The tuples of routed relations
//! participating in that result live only in the shard the directory
//! assigned to `v`, hence each result delta materializes in *exactly one*
//! shard: no result is lost (the probing update reaches that shard —
//! directly if routed, by broadcast otherwise) and none is duplicated (any
//! other shard lacks the routed tuples). A directory entry is only evicted
//! once its live count hits zero — at which point no routed tuple bound to
//! `v` remains in any shard — so a value reassigned after eviction starts
//! from empty state everywhere.
//!
//! **Failure containment.** Every shard run, on the caller or on a scoped
//! thread, executes under `catch_unwind`: a panic poisons only that shard,
//! and the engine surfaces a typed [`ShardPanic`] (shard id + last
//! telemetry snapshot) inside [`BatchError::ShardPanic`] from
//! [`ShardedEngine::try_process_batch_grouped`] while the remaining shards
//! stay inspectable.

use crate::engine::{AdaptiveJoinEngine, EngineConfig};
use acq_mjoin::clock::ClockAggregate;
use acq_mjoin::plan::PlanOrders;
use acq_stream::{AttrRef, ColId, Composite, EquivClassId, Op, QuerySchema, RelId, Update};
use acq_telemetry::{FieldValue, TelemetrySnapshot};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::hash::BuildHasherDefault;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Batches shorter than this run every shard on the calling thread. One
/// scoped spawn + join measured 27–39 µs on a 2-vCPU Xeon host: about 2%
/// of a 1,024-update chain3 batch, but as long as a 32-update batch's own
/// work. Public so that tests can feed batches on both sides of it; it is
/// not a setting.
pub const INLINE_BATCH: usize = 256;

/// Sharding configuration.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Number of engine shards (≥ 1).
    pub num_shards: usize,
    /// Partition class; `None` selects the class spanning the most
    /// relations (ties toward the lower class id).
    pub partition_class: Option<EquivClassId>,
}

impl Default for ShardConfig {
    fn default() -> ShardConfig {
        ShardConfig {
            num_shards: 4,
            partition_class: None,
        }
    }
}

/// Routing counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoutingStats {
    /// Updates routed to a single shard.
    pub routed: u64,
    /// Updates broadcast to every shard (relations outside the partition
    /// class).
    pub broadcast: u64,
}

/// Pick the partition class covering the most relations (ties toward the
/// lower class id). `None` when the query has no join predicates at all.
pub fn auto_partition_class(query: &QuerySchema) -> Option<EquivClassId> {
    let mut best: Option<(EquivClassId, usize)> = None;
    for c in 0..query.num_equiv_classes() {
        let cls = EquivClassId(c);
        let cover = query
            .rel_ids()
            .filter(|&r| partition_col(query, r, cls).is_some())
            .count();
        if best.is_none_or(|(_, bc)| cover > bc) {
            best = Some((cls, cover));
        }
    }
    best.map(|(cls, _)| cls)
}

/// First column of relation `r` belonging to equivalence class `cls`.
fn partition_col(query: &QuerySchema, r: RelId, cls: EquivClassId) -> Option<ColId> {
    (0..query.relation(r).arity() as u16)
        .map(ColId)
        .find(|&c| query.equiv_class(AttrRef { rel: r, col: c }) == Some(cls))
}

/// Mixed 64-bit identity of one partition-class value. FxHash's low bits
/// are weak; the finalization mix spreads them before the directory (and,
/// in the reference executor, `% num_shards`) looks at them.
fn partition_key(u: &Update, col: ColId) -> u64 {
    use std::hash::Hasher;
    let mut h = acq_sketch::FxHasher::default();
    // NULL partition values key like any other value: the tuple joins
    // nothing (join_eq is false for NULL), so *which* shard stores it is
    // irrelevant — only that its insert and delete agree.
    u.data.get(col.0).hash_into(&mut h);
    let mut x = h.finish();
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^= x >> 33;
    x
}

/// Pass-through hasher for the directory: [`partition_key`] already
/// murmur-finalizes its output, so rehashing it would only add latency to
/// the per-update routing path.
#[derive(Debug, Default)]
struct KeyHasher(u64);

impl std::hash::Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("directory keys hash as u64");
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = v;
    }
}

/// Directory record for one live partition-class value.
#[derive(Debug, Clone, Copy)]
struct DirEntry {
    /// Owning shard.
    shard: u32,
    /// Net live tuple count (inserts − deletes) under this value.
    live: u32,
}

enum Route {
    Shard(usize),
    Broadcast,
}

/// Load-balancing router: per-relation broadcast table plus the
/// value→shard directory.
#[derive(Debug)]
struct Router {
    /// `part_col[rel]` = column keyed on, or `None` to broadcast.
    part_col: Vec<Option<ColId>>,
    num_shards: usize,
    /// Live partition-value assignments (64-bit mixed key → entry; a hash
    /// collision merely colocates two values, which is always correct).
    directory: HashMap<u64, DirEntry, BuildHasherDefault<KeyHasher>>,
    /// Estimated virtual-ns load per shard: the shard clock at the last
    /// refresh plus `est_unit` per update routed since.
    load: Vec<u64>,
    /// Running estimate of virtual ns per routed update.
    est_unit: u64,
    /// Routed updates seen (denominator for `est_unit`).
    routed_seen: u64,
    /// Routed updates since the last [`Router::refresh_load`]; the caller
    /// re-anchors once this reaches [`REFRESH_EVERY`] (reading every shard
    /// clock per tiny batch would dominate the inline path).
    routed_since_refresh: u64,
}

/// Re-anchor router load estimates on the true shard clocks at the first
/// batch boundary after this many routed updates. Large batches refresh at
/// every boundary; small inline batches amortize the clock reads.
const REFRESH_EVERY: u64 = 64;

impl Router {
    fn new(query: &QuerySchema, cls: EquivClassId, num_shards: usize) -> Router {
        Router {
            part_col: query
                .rel_ids()
                .map(|r| partition_col(query, r, cls))
                .collect(),
            num_shards,
            directory: HashMap::default(),
            load: vec![0; num_shards],
            est_unit: 1,
            routed_seen: 0,
            routed_since_refresh: REFRESH_EVERY,
        }
    }

    /// Time to re-anchor on the shard clocks? (Deterministic: depends only
    /// on the routed-update count, and the clocks themselves are virtual.)
    fn needs_refresh(&self) -> bool {
        self.routed_since_refresh >= REFRESH_EVERY
    }

    /// Re-anchor per-shard load on the true virtual cost clocks (called at
    /// every batch boundary; clocks are deterministic, so routing is too).
    fn refresh_load(&mut self, clocks: impl Iterator<Item = u64>) {
        let mut sum = 0u64;
        for (slot, clock) in self.load.iter_mut().zip(clocks) {
            *slot = clock;
            sum += clock;
        }
        if let Some(unit) = sum.checked_div(self.routed_seen) {
            self.est_unit = unit.max(1);
        }
        self.routed_since_refresh = 0;
    }

    fn least_loaded(&self) -> usize {
        // Ties toward the lower shard id (min_by_key keeps the first min).
        self.load
            .iter()
            .enumerate()
            .min_by_key(|&(_, l)| *l)
            .map(|(i, _)| i)
            .expect("at least one shard")
    }

    fn route(&mut self, u: &Update) -> Route {
        let Some(col) = self.part_col[u.rel.0 as usize] else {
            return Route::Broadcast;
        };
        if self.num_shards == 1 {
            self.routed_seen += 1;
            return Route::Shard(0);
        }
        let key = partition_key(u, col);
        let shard = match u.op {
            Op::Insert => match self.directory.get_mut(&key) {
                Some(e) => {
                    e.live += 1;
                    e.shard as usize
                }
                None => {
                    let s = self.least_loaded();
                    self.directory.insert(
                        key,
                        DirEntry {
                            shard: s as u32,
                            live: 1,
                        },
                    );
                    s
                }
            },
            Op::Delete => match self.directory.get_mut(&key) {
                Some(e) => {
                    let s = e.shard as usize;
                    e.live = e.live.saturating_sub(1);
                    if e.live == 0 {
                        self.directory.remove(&key);
                    }
                    s
                }
                // A delete with no directory entry reverts nothing in any
                // shard; route it anywhere consistent.
                None => self.least_loaded(),
            },
        };
        self.load[shard] += self.est_unit;
        self.routed_seen += 1;
        self.routed_since_refresh += 1;
        Route::Shard(shard)
    }
}

/// Put one update's delta group into canonical row order (sorted by the
/// per-relation tuple data of each result). Both the sharded merge and any
/// single-engine output being compared against it must use this — engines
/// emit equal delta *multisets* per update, but their internal enumeration
/// order depends on store layout and adaptive plan state.
pub fn canonicalize_group(group: &mut [(Op, Composite)], num_relations: usize) {
    if group.len() > 1 {
        // Unstable sort: elements comparing equal have identical canonical
        // rows, so any relative order is the same canonical output.
        group.sort_unstable_by(|(_, a), (_, b)| cmp_canonical(a, b, num_relations));
    }
}

/// Lexicographic comparison of two composites' [`canonical_rows`] keys,
/// computed part-by-part so no key vectors (or `TupleData` clones) are
/// materialized — this runs on the hot batch path for every multi-row
/// delta group.
fn cmp_canonical(a: &Composite, b: &Composite, num_relations: usize) -> std::cmp::Ordering {
    for r in 0..num_relations as u16 {
        let pa = a.part(RelId(r)).map(|t| &t.data);
        let pb = b.part(RelId(r)).map(|t| &t.data);
        match pa.cmp(&pb) {
            std::cmp::Ordering::Equal => {}
            o => return o,
        }
    }
    std::cmp::Ordering::Equal
}

/// A shard run that panicked, poisoning its shard.
///
/// Returned by [`ShardedEngine::try_process_batch_grouped`]: the panic
/// payload is captured as a message, together with the poisoned shard's
/// last obtainable telemetry snapshot. Other shards remain healthy and
/// inspectable (their engines, counters, and telemetry stay accessible),
/// but further batch processing is refused because the poisoned shard's
/// state is lost.
pub struct ShardPanic {
    /// Index of the shard whose run panicked.
    pub shard: usize,
    /// Rendered panic payload.
    pub message: String,
    /// Telemetry captured from the poisoned shard right after the panic
    /// (empty if the engine was too damaged to snapshot).
    pub telemetry: TelemetrySnapshot,
}

impl fmt::Debug for ShardPanic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardPanic")
            .field("shard", &self.shard)
            .field("message", &self.message)
            .finish_non_exhaustive()
    }
}

impl fmt::Display for ShardPanic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "shard {} panicked: {}", self.shard, self.message)
    }
}

impl std::error::Error for ShardPanic {}

/// Why [`ShardedEngine::try_process_batch_grouped`] failed a batch.
#[derive(Debug)]
pub enum BatchError {
    /// A shard run panicked, poisoning its shard; every later batch is
    /// refused with the same error.
    ShardPanic(ShardPanic),
    /// `updates[index]` names relation `rel`, which the query does not
    /// have. The batch was refused before routing: the directory, the
    /// routing counters and every shard are as they were, and the next
    /// batch is accepted.
    UnknownRelation {
        /// Position of the offending update in the batch.
        index: usize,
        /// The relation id it names.
        rel: RelId,
    },
}

impl fmt::Display for BatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BatchError::ShardPanic(p) => p.fmt(f),
            BatchError::UnknownRelation { index, rel } => write!(
                f,
                "update {index} of the batch names relation {}, which the query does not have",
                rel.0
            ),
        }
    }
}

impl std::error::Error for BatchError {}

impl From<ShardPanic> for BatchError {
    fn from(p: ShardPanic) -> BatchError {
        BatchError::ShardPanic(p)
    }
}

/// One shard: its engine plus the buffers one batch run fills.
#[derive(Debug)]
struct Shard {
    engine: AdaptiveJoinEngine,
    /// Batch indices routed here, ascending.
    indices: Vec<u32>,
    /// Deltas of those updates in batch order, `counts[k]` of them for
    /// `indices[k]`; the merge drains them from the front.
    deltas: VecDeque<(Op, Composite)>,
    counts: Vec<usize>,
    /// Merge cursor into `indices`.
    next: usize,
    /// Panic message and telemetry of a run that panicked: the engine's
    /// state is lost and the shard refuses further work.
    failure: Option<(String, TelemetrySnapshot)>,
    /// Test-only: panic at the start of the next run.
    #[cfg(any(test, feature = "fault-injection"))]
    inject_panic: bool,
}

impl Shard {
    fn new(engine: AdaptiveJoinEngine) -> Shard {
        Shard {
            engine,
            indices: Vec::new(),
            deltas: VecDeque::new(),
            counts: Vec::new(),
            next: 0,
            failure: None,
            #[cfg(any(test, feature = "fault-injection"))]
            inject_panic: false,
        }
    }

    /// Process the routed updates under `catch_unwind`; a panic poisons
    /// the shard and leaves no deltas behind.
    fn run(&mut self, updates: &[Update]) {
        let mut sink = Vec::from(std::mem::take(&mut self.deltas));
        sink.clear();
        self.counts.clear();
        self.next = 0;
        #[cfg(any(test, feature = "fault-injection"))]
        let inject = std::mem::take(&mut self.inject_panic);
        let (engine, counts) = (&mut self.engine, &mut self.counts);
        let run = catch_unwind(AssertUnwindSafe(|| {
            #[cfg(any(test, feature = "fault-injection"))]
            if inject {
                panic!("injected shard panic");
            }
            for &gi in &self.indices {
                let before = sink.len();
                engine.process_into(&updates[gi as usize], &mut sink);
                counts.push(sink.len() - before);
            }
        }));
        if let Err(payload) = run {
            sink.clear();
            self.counts.clear();
            self.poison(payload);
        }
        self.deltas = sink.into();
    }

    /// Record a caught panic and poison the shard.
    fn poison(&mut self, payload: Box<dyn std::any::Any + Send>) {
        let message = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        };
        // The engine is memory-safe but logically suspect after a panic;
        // snapshotting is best-effort.
        let telemetry = catch_unwind(AssertUnwindSafe(|| self.engine.telemetry_snapshot()))
            .unwrap_or_else(|_| TelemetrySnapshot::new());
        self.failure = Some((message, telemetry));
    }
}

/// A partitioned parallel A-Caching executor: `N` independent
/// [`AdaptiveJoinEngine`]s behind a deterministic balancing router and
/// canonical merge, run on scoped threads for large batches.
#[derive(Debug)]
pub struct ShardedEngine {
    query: QuerySchema,
    shards: Vec<Shard>,
    router: Router,
    partition_class: EquivClassId,
    routing: RoutingStats,
    /// Threads a large batch runs on, the caller's included:
    /// `min(num_shards, available_parallelism())`, read once here because
    /// each read can cost a cgroup lookup.
    threads: usize,
}

impl ShardedEngine {
    /// Build with default engine settings and identity pipeline orders.
    pub fn new(query: QuerySchema, num_shards: usize) -> ShardedEngine {
        let orders = PlanOrders::identity(&query);
        ShardedEngine::with_config(
            query,
            orders,
            EngineConfig::default(),
            ShardConfig {
                num_shards,
                partition_class: None,
            },
        )
    }

    /// Build with explicit orders, per-shard engine configuration, and
    /// sharding configuration. Every shard gets an identical engine; they
    /// diverge only through the substreams they see.
    pub fn with_config(
        query: QuerySchema,
        orders: PlanOrders,
        config: EngineConfig,
        shard_cfg: ShardConfig,
    ) -> ShardedEngine {
        assert!(shard_cfg.num_shards >= 1, "need at least one shard");
        let partition_class = shard_cfg
            .partition_class
            .or_else(|| auto_partition_class(&query))
            .expect("query has no join predicates — nothing to partition on");
        let router = Router::new(&query, partition_class, shard_cfg.num_shards);
        assert!(
            router.part_col.iter().any(Option::is_some),
            "partition class covers no relation"
        );
        let shards = (0..shard_cfg.num_shards)
            .map(|_| {
                Shard::new(AdaptiveJoinEngine::with_config(
                    query.clone(),
                    orders.clone(),
                    config.clone(),
                ))
            })
            .collect();
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        ShardedEngine {
            query,
            shards,
            router,
            partition_class,
            routing: RoutingStats::default(),
            threads: shard_cfg.num_shards.min(cores),
        }
    }

    // ------------------------------------------------------------------
    // Accessors

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The equivalence class the stream is partitioned on.
    pub fn partition_class(&self) -> EquivClassId {
        self.partition_class
    }

    /// Relations routed by broadcast (no attribute in the partition class).
    pub fn broadcast_relations(&self) -> Vec<RelId> {
        self.router
            .part_col
            .iter()
            .enumerate()
            .filter(|(_, c)| c.is_none())
            .map(|(r, _)| RelId(r as u16))
            .collect()
    }

    /// Routing counters.
    pub fn routing_stats(&self) -> RoutingStats {
        self.routing
    }

    /// Run `f` against shard `i`'s engine.
    pub fn with_shard<R>(&self, i: usize, f: impl FnOnce(&AdaptiveJoinEngine) -> R) -> R {
        f(&self.shards[i].engine)
    }

    /// Indices of shards poisoned by a panic (normally empty).
    pub fn poisoned_shards(&self) -> Vec<usize> {
        (0..self.num_shards())
            .filter(|&i| self.shards[i].failure.is_some())
            .collect()
    }

    /// The typed failure of the first poisoned shard, if any.
    fn first_failure(&self) -> Option<ShardPanic> {
        self.shards.iter().enumerate().find_map(|(i, s)| {
            let (message, telemetry) = s.failure.as_ref()?;
            Some(ShardPanic {
                shard: i,
                message: message.clone(),
                telemetry: telemetry.clone(),
            })
        })
    }

    /// Test-only: make shard `i` panic at the start of its next run,
    /// inline or threaded, poisoning that shard. Exercises the
    /// graceful-degradation path surfaced by
    /// [`ShardedEngine::try_process_batch_grouped`].
    #[cfg(any(test, feature = "fault-injection"))]
    pub fn inject_worker_panic(&mut self, i: usize) {
        self.shards[i].inject_panic = true;
    }

    /// Aggregated virtual clocks: total work across shards, critical path,
    /// balance.
    pub fn clock_aggregate(&self) -> ClockAggregate {
        ClockAggregate::from_ns(self.shards.iter().map(|s| s.engine.core().now_ns()))
    }

    /// The canonical cross-shard telemetry merge, mirroring the delta-run
    /// merge: each shard's [`AdaptiveJoinEngine::telemetry_snapshot`] is
    /// taken, its events are stamped with a `shard` field, and the parts
    /// are folded with [`TelemetrySnapshot::merge`] — counters and
    /// histograms sum, ratios merge component-wise (so intensive
    /// quantities stay weighted averages), and events interleave in
    /// virtual-time order. Counter totals are therefore invariant to the
    /// shard count for routed-only workloads. Routing counters and the
    /// shard count ride along as `routing.*` / `shard.count` (see
    /// OBSERVABILITY.md).
    pub fn telemetry_snapshot(&self) -> TelemetrySnapshot {
        let mut merged = TelemetrySnapshot::new();
        for (i, s) in self.shards.iter().enumerate() {
            let mut part = s.engine.telemetry_snapshot();
            part.tag_events("shard", FieldValue::U64(i as u64));
            merged.merge(&part);
        }
        merged.gauge("shard.count", &[], self.num_shards() as f64);
        merged.counter("routing.routed", &[], self.routing.routed);
        merged.counter("routing.broadcast", &[], self.routing.broadcast);
        merged
    }

    /// Run [`AdaptiveJoinEngine::check_structural_invariants`] on every
    /// shard plus cross-shard sanity checks (routing counters consistent
    /// with the configured topology, no poisoned shards). Violations are
    /// prefixed with the offending shard index; empty = healthy.
    /// Diagnostic use only.
    pub fn check_invariants(&self) -> Vec<String> {
        let mut violations = Vec::new();
        for (i, s) in self.shards.iter().enumerate() {
            for v in s.engine.check_structural_invariants() {
                violations.push(format!("shard {i}: {v}"));
            }
        }
        for i in self.poisoned_shards() {
            violations.push(format!("shard {i}: poisoned by panic"));
        }
        if self.broadcast_relations().is_empty() && self.routing.broadcast > 0 {
            violations.push(format!(
                "routing: {} broadcasts but every relation has a partition column",
                self.routing.broadcast
            ));
        }
        violations
    }

    // ------------------------------------------------------------------
    // Processing

    /// Process a batch of updates (in the given order), returning the
    /// concatenated result deltas in global update order. Each update's
    /// delta group is in canonical row order. Panics with the text of the
    /// [`BatchError`] that [`ShardedEngine::try_process_batch_grouped`]
    /// would return.
    pub fn process_batch(&mut self, updates: &[Update]) -> Vec<(Op, Composite)> {
        self.run_batch(updates, None)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Like [`ShardedEngine::process_batch`] but keeps per-update grouping:
    /// `result[i]` is the canonical delta list of `updates[i]`. Panics with
    /// the text of the [`BatchError`] that
    /// [`ShardedEngine::try_process_batch_grouped`] would return.
    pub fn process_batch_grouped(&mut self, updates: &[Update]) -> Vec<Vec<(Op, Composite)>> {
        self.try_process_batch_grouped(updates)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`ShardedEngine::process_batch_grouped`]. A batch naming
    /// an unknown relation is refused whole, leaving the engine as it was.
    /// On a [`BatchError::ShardPanic`] the failing shard is poisoned
    /// permanently; healthy shards remain inspectable, but further
    /// processing is refused because the poisoned shard's substream state
    /// is lost.
    pub fn try_process_batch_grouped(
        &mut self,
        updates: &[Update],
    ) -> Result<Vec<Vec<(Op, Composite)>>, BatchError> {
        let mut ends = Vec::with_capacity(updates.len());
        let mut deltas = self.run_batch(updates, Some(&mut ends))?.into_iter();
        let mut start = 0;
        Ok(ends
            .into_iter()
            .map(|end| {
                let group = deltas.by_ref().take(end - start).collect();
                start = end;
                group
            })
            .collect())
    }

    /// The one batch path: refuse the batch if a shard is poisoned or an
    /// update names an unknown relation, refresh the router's load view
    /// when due, route, run the shards, and merge. Every delta lands in
    /// one flat vector with each update's span canonicalized in place;
    /// when `ends` is given, the end offset of each update's span is
    /// pushed to it.
    fn run_batch(
        &mut self,
        updates: &[Update],
        ends: Option<&mut Vec<usize>>,
    ) -> Result<Vec<(Op, Composite)>, BatchError> {
        if let Some(failure) = self.first_failure() {
            return Err(failure.into());
        }
        // Checked before routing touches the directory.
        let rels = self.router.part_col.len();
        if let Some(index) = updates.iter().position(|u| u.rel.0 as usize >= rels) {
            let rel = updates[index].rel;
            return Err(BatchError::UnknownRelation { index, rel });
        }
        if self.num_shards() > 1 && self.router.needs_refresh() {
            self.router
                .refresh_load(self.shards.iter().map(|s| s.engine.core().now_ns()));
        }
        self.route(updates);
        self.run_shards(updates);
        if let Some(failure) = self.first_failure() {
            return Err(failure.into());
        }
        Ok(self.merge(updates.len(), ends))
    }

    /// Route the batch into the per-shard index lists.
    fn route(&mut self, updates: &[Update]) {
        for s in &mut self.shards {
            s.indices.clear();
        }
        for (gi, u) in updates.iter().enumerate() {
            match self.router.route(u) {
                Route::Shard(s) => {
                    self.routing.routed += 1;
                    self.shards[s].indices.push(gi as u32);
                }
                Route::Broadcast => {
                    self.routing.broadcast += 1;
                    for s in &mut self.shards {
                        s.indices.push(gi as u32);
                    }
                }
            }
        }
    }

    /// Run every shard: on the caller for small batches, otherwise on
    /// `threads` scoped threads, each taking a contiguous chunk of shards,
    /// with the caller running the first chunk.
    fn run_shards(&mut self, updates: &[Update]) {
        if self.threads == 1 || updates.len() < INLINE_BATCH {
            for s in &mut self.shards {
                s.run(updates);
            }
            return;
        }
        let chunk = self.shards.len().div_ceil(self.threads);
        std::thread::scope(|scope| {
            let mut chunks = self.shards.chunks_mut(chunk);
            let own = chunks.next().expect("at least one shard");
            for rest in chunks {
                scope.spawn(move || rest.iter_mut().for_each(|s| s.run(updates)));
            }
            own.iter_mut().for_each(|s| s.run(updates));
        });
    }

    /// Merge the per-shard delta buffers by batch index into one flat
    /// vector, canonicalizing each update's span in place.
    fn merge(&mut self, len: usize, mut ends: Option<&mut Vec<usize>>) -> Vec<(Op, Composite)> {
        let n_rels = self.query.num_relations();
        let mut out = Vec::with_capacity(self.shards.iter().map(|s| s.deltas.len()).sum());
        for gi in 0..len as u32 {
            let start = out.len();
            for s in &mut self.shards {
                if s.indices.get(s.next) == Some(&gi) {
                    out.extend(s.deltas.drain(..s.counts[s.next]));
                    s.next += 1;
                }
            }
            canonicalize_group(&mut out[start..], n_rels);
            if let Some(ends) = ends.as_deref_mut() {
                ends.push(out.len());
            }
        }
        out
    }
}

// ---------------------------------------------------------------------
// Scoped-thread reference executor

#[cfg(any(test, feature = "reference-exec"))]
pub mod reference {
    //! The PR 1 sharded executor, kept as a differential reference.
    //!
    //! [`ScopedShardedEngine`] reproduces the PR 1 execution model exactly:
    //! stateless `mix(hash(v)) % N` routing, one `std::thread::scope`
    //! spawn + join per shard per batch, and a barrier k-way merge of
    //! per-shard runs. The harness sweeps it against [`ShardedEngine`] to
    //! check that the balancing router and the flat canonical merge emit
    //! the same canonical delta streams. Compiled only for tests and the
    //! `reference-exec` feature.

    use super::*;
    use acq_stream::merge_ordered_runs;

    /// One update's delta group tagged with its global batch index.
    type IndexedGroup = (usize, Vec<(Op, Composite)>);

    /// Stateless hash router: the PR 1 policy (`mix(hash(v)) % N`).
    #[derive(Debug, Clone)]
    struct StatelessRouter {
        part_col: Vec<Option<ColId>>,
        num_shards: usize,
    }

    impl StatelessRouter {
        fn route(&self, u: &Update) -> Route {
            let Some(col) = self.part_col[u.rel.0 as usize] else {
                return Route::Broadcast;
            };
            Route::Shard((partition_key(u, col) % self.num_shards as u64) as usize)
        }
    }

    /// Scoped-thread sharded executor with stateless hash routing — the
    /// exact PR 1 behavior, for differential testing.
    #[derive(Debug)]
    pub struct ScopedShardedEngine {
        query: QuerySchema,
        shards: Vec<AdaptiveJoinEngine>,
        router: StatelessRouter,
    }

    impl ScopedShardedEngine {
        /// Build with default engine settings and identity pipeline orders.
        pub fn new(query: QuerySchema, num_shards: usize) -> ScopedShardedEngine {
            let orders = PlanOrders::identity(&query);
            ScopedShardedEngine::with_config(
                query,
                orders,
                EngineConfig::default(),
                ShardConfig {
                    num_shards,
                    partition_class: None,
                },
            )
        }

        /// Build with explicit orders and configuration (mirrors
        /// [`ShardedEngine::with_config`]).
        pub fn with_config(
            query: QuerySchema,
            orders: PlanOrders,
            config: EngineConfig,
            shard_cfg: ShardConfig,
        ) -> ScopedShardedEngine {
            assert!(shard_cfg.num_shards >= 1, "need at least one shard");
            let cls = shard_cfg
                .partition_class
                .or_else(|| auto_partition_class(&query))
                .expect("query has no join predicates — nothing to partition on");
            let router = StatelessRouter {
                part_col: query
                    .rel_ids()
                    .map(|r| partition_col(&query, r, cls))
                    .collect(),
                num_shards: shard_cfg.num_shards,
            };
            let shards = (0..shard_cfg.num_shards)
                .map(|_| {
                    AdaptiveJoinEngine::with_config(query.clone(), orders.clone(), config.clone())
                })
                .collect();
            ScopedShardedEngine {
                query,
                shards,
                router,
            }
        }

        /// Number of shards.
        pub fn num_shards(&self) -> usize {
            self.shards.len()
        }

        /// Process a batch, returning concatenated canonical deltas in
        /// global update order.
        pub fn process_batch(&mut self, updates: &[Update]) -> Vec<(Op, Composite)> {
            let mut out = Vec::new();
            for group in self.process_batch_grouped(updates) {
                out.extend(group);
            }
            out
        }

        /// Per-update grouped batch processing: the verbatim PR 1 path
        /// (route → scoped spawn → join barrier → k-way merge → canon).
        pub fn process_batch_grouped(&mut self, updates: &[Update]) -> Vec<Vec<(Op, Composite)>> {
            if updates.is_empty() {
                return Vec::new();
            }
            let n_shards = self.shards.len();
            let mut work: Vec<Vec<(usize, &Update)>> = vec![Vec::new(); n_shards];
            for (gi, u) in updates.iter().enumerate() {
                match self.router.route(u) {
                    Route::Shard(s) => work[s].push((gi, u)),
                    Route::Broadcast => {
                        for w in &mut work {
                            w.push((gi, u));
                        }
                    }
                }
            }
            let per_shard: Vec<Vec<IndexedGroup>> =
                if n_shards == 1 || updates.len() < INLINE_BATCH {
                    self.shards
                        .iter_mut()
                        .zip(&work)
                        .map(|(eng, items)| run_shard(eng, items))
                        .collect()
                } else {
                    std::thread::scope(|scope| {
                        let handles: Vec<_> = self
                            .shards
                            .iter_mut()
                            .zip(&work)
                            .map(|(eng, items)| scope.spawn(move || run_shard(eng, items)))
                            .collect();
                        handles
                            .into_iter()
                            .map(|h| h.join().expect("shard worker panicked"))
                            .collect()
                    })
                };
            let merged = merge_ordered_runs(per_shard, |&(gi, _)| gi);
            let mut out: Vec<Vec<(Op, Composite)>> =
                (0..updates.len()).map(|_| Vec::new()).collect();
            for (gi, group) in merged {
                out[gi].extend(group);
            }
            let n_rels = self.query.num_relations();
            for group in &mut out {
                canonicalize_group(group, n_rels);
            }
            out
        }
    }

    fn run_shard(engine: &mut AdaptiveJoinEngine, items: &[(usize, &Update)]) -> Vec<IndexedGroup> {
        items
            .iter()
            .map(|&(gi, u)| (gi, engine.process(u)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::reference::ScopedShardedEngine;
    use super::*;
    use acq_mjoin::oracle::{canonical_rows, multiset_diff};
    use acq_stream::TupleData;

    fn ins(rel: u16, vals: &[i64], ts: u64) -> Update {
        Update::insert(RelId(rel), TupleData::ints(vals), ts)
    }

    fn del(rel: u16, vals: &[i64], ts: u64) -> Update {
        Update::delete(RelId(rel), TupleData::ints(vals), ts)
    }

    /// Simple deterministic workload over a query: inserts with occasional
    /// deletes of live tuples, values in a small domain to force joins.
    fn workload(query: &QuerySchema, seed: u64, len: usize) -> Vec<Update> {
        let mut state = seed.max(1);
        let mut rng = move |m: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % m
        };
        let n = query.num_relations() as u64;
        let mut live: Vec<Vec<TupleData>> = vec![Vec::new(); n as usize];
        let mut out = Vec::new();
        for ts in 0..len as u64 {
            let rel = rng(n) as usize;
            let arity = query.relation(RelId(rel as u16)).arity();
            if !live[rel].is_empty() && rng(4) == 0 {
                let data = live[rel].remove(0);
                out.push(Update::delete(RelId(rel as u16), data, ts));
            } else {
                let vals: Vec<i64> = (0..arity).map(|_| rng(5) as i64).collect();
                let data = TupleData::ints(&vals);
                live[rel].push(data.clone());
                out.push(Update::insert(RelId(rel as u16), data, ts));
            }
        }
        out
    }

    /// The shard panic inside a batch error.
    fn panicked(err: BatchError) -> ShardPanic {
        match err {
            BatchError::ShardPanic(p) => p,
            other => panic!("expected a shard panic, got: {other}"),
        }
    }

    fn canon(group: &[(Op, Composite)], n: usize) -> Vec<(Op, Vec<TupleData>)> {
        group
            .iter()
            .map(|(op, c)| (*op, canonical_rows(c, n)))
            .collect()
    }

    #[test]
    fn auto_class_prefers_widest_coverage() {
        // Star: the single A class covers everything.
        let q = QuerySchema::star(4);
        assert_eq!(auto_partition_class(&q), Some(EquivClassId(0)));
        // Chain3: A covers {R,S}, B covers {S,T} — tie, lower id wins.
        let q = QuerySchema::chain3();
        assert_eq!(auto_partition_class(&q), Some(EquivClassId(0)));
    }

    #[test]
    fn star_has_no_broadcast_relations() {
        let e = ShardedEngine::new(QuerySchema::star(4), 4);
        assert!(e.broadcast_relations().is_empty());
    }

    #[test]
    fn chain3_broadcasts_t() {
        let e = ShardedEngine::new(QuerySchema::chain3(), 2);
        assert_eq!(e.broadcast_relations(), vec![RelId(2)]);
    }

    #[test]
    fn matches_single_engine_on_star() {
        let q = QuerySchema::star(4);
        let updates = workload(&q, 7, 400);
        let mut single = AdaptiveJoinEngine::new(q.clone());
        let mut sharded = ShardedEngine::new(q.clone(), 3);
        let groups = sharded.process_batch_grouped(&updates);
        for (u, got) in updates.iter().zip(&groups) {
            let want = canon(&single.process(u), 4);
            let got = canon(got, 4);
            assert!(
                multiset_diff(&got, &want).is_empty(),
                "diverged on {u}: got {got:?} want {want:?}"
            );
        }
    }

    #[test]
    fn matches_single_engine_with_broadcast() {
        let q = QuerySchema::chain3();
        let updates = workload(&q, 3, 400);
        let mut single = AdaptiveJoinEngine::new(q.clone());
        let mut sharded = ShardedEngine::new(q.clone(), 4);
        let groups = sharded.process_batch_grouped(&updates);
        assert!(sharded.routing_stats().broadcast > 0, "T must broadcast");
        for (u, got) in updates.iter().zip(&groups) {
            let want = canon(&single.process(u), 3);
            let got = canon(got, 3);
            assert!(
                multiset_diff(&got, &want).is_empty(),
                "diverged on {u}: got {got:?} want {want:?}"
            );
        }
    }

    #[test]
    fn batch_output_is_bit_deterministic() {
        let q = QuerySchema::star(4);
        let updates = workload(&q, 11, 300);
        let run = |shards: usize| {
            let mut e = ShardedEngine::new(q.clone(), shards);
            e.process_batch_grouped(&updates)
                .iter()
                .map(|g| canon(g, 4))
                .collect::<Vec<_>>()
        };
        // Identical across repeated runs *and* shard counts — the per-group
        // canonical order makes the merged output a pure function of input.
        // 3 and 8 shards exceed the thread count and split into uneven
        // chunks.
        let base = run(2);
        assert_eq!(base, run(2));
        for shards in [1, 3, 4, 8] {
            assert_eq!(base, run(shards), "diverged at {shards} shards");
        }
    }

    #[test]
    fn matches_scoped_thread_reference() {
        // Balanced routing and the flat canonical merge must emit the same
        // canonical delta stream as the PR 1 executor (stateless routing,
        // k-way merge), at every shard count.
        let q = QuerySchema::star(4);
        let updates = workload(&q, 23, 500);
        let mut reference = ScopedShardedEngine::new(q.clone(), 4);
        let want: Vec<_> = reference
            .process_batch_grouped(&updates)
            .iter()
            .map(|g| canon(g, 4))
            .collect();
        for shards in [1, 2, 4] {
            let mut e = ShardedEngine::new(q.clone(), shards);
            let got: Vec<_> = e
                .process_batch_grouped(&updates)
                .iter()
                .map(|g| canon(g, 4))
                .collect();
            assert_eq!(got, want, "diverged from reference at {shards} shards");
        }
    }

    #[test]
    fn single_shard_defers_to_inner_engine() {
        let q = QuerySchema::chain3();
        let mut sharded = ShardedEngine::new(q.clone(), 1);
        let mut single = AdaptiveJoinEngine::new(q);
        let ups = vec![
            ins(0, &[1], 0),
            ins(1, &[1, 2], 1),
            ins(2, &[2], 2),
            del(1, &[1, 2], 3),
        ];
        for u in &ups {
            let mut want = single.process(u);
            canonicalize_group(&mut want, 3);
            let got = sharded.process_batch(std::slice::from_ref(u));
            assert_eq!(canon(&got, 3), canon(&want, 3));
        }
    }

    #[test]
    fn deletes_route_to_inserting_shard() {
        // Insert then delete the same tuples; all shard windows must end
        // empty (a mis-routed delete would leave a phantom tuple behind).
        let q = QuerySchema::star(3);
        let mut e = ShardedEngine::new(q.clone(), 4);
        let mut ups = Vec::new();
        for k in 0..50i64 {
            ups.push(ins(0, &[k, 0], k as u64));
        }
        for k in 0..50i64 {
            ups.push(del(0, &[k, 0], 50 + k as u64));
        }
        e.process_batch(&ups);
        for i in 0..e.num_shards() {
            let len = e.with_shard(i, |s| s.core().relation(RelId(0)).len());
            assert_eq!(len, 0);
        }
    }

    #[test]
    fn directory_balances_and_evicts() {
        let q = QuerySchema::star(3);
        let mut e = ShardedEngine::new(q.clone(), 4);
        // 64 distinct keys, equal weight: argmin assignment must spread
        // them evenly (16 per shard at equal cost).
        let mut ups = Vec::new();
        for k in 0..64i64 {
            ups.push(ins(0, &[k, 0], k as u64));
        }
        e.process_batch(&ups);
        assert_eq!(e.router.directory.len(), 64);
        let max = *e.router.load.iter().max().unwrap();
        let min = *e.router.load.iter().min().unwrap();
        assert!(
            max - min <= e.router.est_unit,
            "unbalanced assignment: load {:?}",
            e.router.load
        );
        // Deleting every tuple must drain the directory completely.
        let dels: Vec<_> = (0..64i64).map(|k| del(0, &[k, 0], 100 + k as u64)).collect();
        e.process_batch(&dels);
        assert_eq!(e.router.directory.len(), 0, "live=0 entries must evict");
    }

    #[test]
    fn worker_panic_poisons_only_its_shard() {
        let q = QuerySchema::star(4);
        let updates = workload(&q, 13, 600);
        // (shards, shard to panic, batch length): shard 0 runs on the
        // caller's thread, other shards on scoped threads once a batch
        // reaches `INLINE_BATCH`.
        for (shards, victim, len) in [(4, 1, 500), (4, 0, 500), (4, 2, 8), (1, 0, 8), (2, 0, 300)] {
            let case = format!("{shards} shards, shard {victim}, batch of {len}");
            let mut e = ShardedEngine::new(q.clone(), shards);
            e.process_batch(&updates[..100]);
            e.inject_worker_panic(victim);
            let err = panicked(
                e.try_process_batch_grouped(&updates[100..100 + len])
                    .expect_err("poisoned shard must fail the batch"),
            );
            assert_eq!(err.shard, victim, "{case}");
            assert!(err.message.contains("injected shard panic"), "{case}: {err}");
            assert_eq!(e.poisoned_shards(), vec![victim], "{case}");
            // Healthy shards stay inspectable; further processing keeps
            // failing with the same typed error.
            for i in (0..shards).filter(|&i| i != victim) {
                let _ = e.with_shard(i, |s| s.counters());
            }
            assert!(
                e.check_invariants().iter().any(|v| v.contains("poisoned by panic")),
                "{case}"
            );
            let err2 = panicked(
                e.try_process_batch_grouped(&updates[..1])
                    .expect_err("still poisoned"),
            );
            assert_eq!((err2.shard, &err2.message), (victim, &err.message), "{case}");
            // The panicking entry point reports the same shard, for a
            // small batch and a large one.
            for len in [8usize, 300] {
                let batch = std::panic::AssertUnwindSafe(|| e.process_batch(&updates[..len]));
                let panic = std::panic::catch_unwind(batch).expect_err("poisoned engine must panic");
                let text = panic.downcast_ref::<String>();
                assert_eq!(text, Some(&err.to_string()), "{case}, then a batch of {len}");
            }
        }
    }

    #[test]
    fn engine_panic_poisons_its_shard_on_every_path() {
        // chain3: seven valid inserts, then an arity-1 insert into S(A,B),
        // which panics inside the engine. Whether the shard runs on the
        // caller or a scoped thread, the batch returns `Err`, poisons the
        // shard, and the next batch is refused.
        let q = QuerySchema::chain3();
        for (shards, len) in [(1usize, 8usize), (2, 8), (2, 64), (2, 300)] {
            let mut batch: Vec<Update> = (0..len as u64 - 1)
                .map(|k| match k % 3 {
                    0 => ins(0, &[k as i64 % 5], k),
                    1 => ins(1, &[k as i64 % 5, k as i64 % 3], k),
                    _ => ins(2, &[k as i64 % 3], k),
                })
                .collect();
            batch.push(ins(1, &[1], len as u64));
            let mut e = ShardedEngine::new(q.clone(), shards);
            let err = panicked(
                e.try_process_batch_grouped(&batch)
                    .expect_err("arity mismatch must fail the batch"),
            );
            assert_eq!(e.poisoned_shards(), vec![err.shard], "{shards} shards, {len} updates");
            let again = panicked(
                e.try_process_batch_grouped(&batch[..1])
                    .expect_err("next batch must be refused"),
            );
            assert_eq!(again.shard, err.shard);
        }
    }

    #[test]
    fn unknown_relation_is_refused_before_routing() {
        // chain3 on 2 shards: a valid R insert, then an update naming
        // relation 9, in one batch. The batch is refused whole: directory,
        // routing counters and shards stay as they were, nothing is
        // poisoned, and the next batch matches a single engine.
        let q = QuerySchema::chain3();
        let updates = workload(&q, 17, 120);
        let mut e = ShardedEngine::new(q.clone(), 2);
        let mut single = AdaptiveJoinEngine::new(q.clone());
        e.process_batch(&updates[..60]);
        for u in &updates[..60] {
            single.process(u);
        }
        let directory = |e: &ShardedEngine| {
            let mut d: Vec<_> = e
                .router
                .directory
                .iter()
                .map(|(k, v)| (*k, v.shard, v.live))
                .collect();
            d.sort_unstable();
            d
        };
        let state = |e: &ShardedEngine| {
            let processed: Vec<u64> = (0..e.num_shards())
                .map(|i| e.with_shard(i, |s| s.counters().tuples_processed))
                .collect();
            let rs = e.routing_stats();
            (directory(e), rs.routed, rs.broadcast, processed)
        };
        let before = state(&e);
        assert!(!before.0.is_empty(), "the prefix must fill the directory");
        let bad = [ins(0, &[1000], 60), ins(9, &[1], 61)];
        let err = e
            .try_process_batch_grouped(&bad)
            .expect_err("relation 9 must be refused");
        assert!(
            matches!(
                err,
                BatchError::UnknownRelation {
                    index: 1,
                    rel: RelId(9)
                }
            ),
            "{err}"
        );
        assert_eq!(state(&e), before);
        assert!(e.poisoned_shards().is_empty());
        // The panicking entry point refuses it with the same text, and
        // also leaves the engine untouched.
        let batch = std::panic::AssertUnwindSafe(|| e.process_batch(&bad));
        let panic = std::panic::catch_unwind(batch).expect_err("unknown relation must panic");
        assert_eq!(panic.downcast_ref::<String>(), Some(&err.to_string()));
        assert_eq!(state(&e), before);
        for (u, got) in updates[60..]
            .iter()
            .zip(e.process_batch_grouped(&updates[60..]))
        {
            let want = canon(&single.process(u), 3);
            assert!(
                multiset_diff(&canon(&got, 3), &want).is_empty(),
                "diverged on {u} after the refused batch"
            );
        }
        assert!(e.check_invariants().is_empty());
    }

    #[test]
    fn clock_and_counter_aggregation() {
        let q = QuerySchema::star(3);
        let updates = workload(&q, 5, 200);
        let mut e = ShardedEngine::new(q, 2);
        e.process_batch(&updates);
        let agg = e.clock_aggregate();
        assert_eq!(agg.shards, 2);
        assert!(agg.total_ns > 0);
        assert!(agg.max_ns >= agg.min_ns);
        // Star has no broadcast relations → every update processed once.
        assert_eq!(
            e.telemetry_snapshot()
                .counter_total("engine.tuples_processed"),
            updates.len() as u64
        );
        let rs = e.routing_stats();
        assert_eq!(rs.routed, updates.len() as u64);
        assert_eq!(rs.broadcast, 0);
    }
}
