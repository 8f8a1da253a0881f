//! Persistent sharded worker runtime: spawn-free batches over SPSC rings.
//!
//! PR 4 made the single-shard update path allocation-free, but the sharded
//! executor still paid a `std::thread::scope` spawn + join for every batch.
//! This module replaces that with **long-lived worker threads**, one per
//! shard, each owning its [`AdaptiveJoinEngine`] behind an uncontended
//! mutex:
//!
//! * The caller routes a batch and feeds each worker through a bounded
//!   lock-free SPSC **inbox ring** ([`spsc`]) of index runs into the
//!   caller's batch slice. Routing is chunked (`ROUTE_CHUNK`), so shard
//!   *i* starts probing while the router is still classifying the tail of
//!   the batch.
//! * Workers stream delta runs back through a **result ring**; the caller
//!   merges them into per-update groups *incrementally* — while routing is
//!   still in progress and while other workers are still running — instead
//!   of joining all workers at a barrier.
//! * Idle workers **spin briefly, then park** ([`spsc::Parker`]); a parked
//!   shard costs nothing between batches. Park tokens are sticky, so the
//!   push → unpark hand-off has no lost-wakeup window.
//! * A panicking worker **poisons only its shard**: the panic is caught,
//!   the shard's last telemetry snapshot is captured into a typed
//!   [`ShardPanic`], and the remaining shards drain cleanly; the batch then
//!   fails with the typed error instead of aborting the process.
//!
//! # Safety protocol (borrowed batches)
//!
//! Jobs reference the caller's `&[Update]` batch by raw pointer
//! (`BatchPtr`) so nothing is cloned onto the data plane. The protocol
//! that keeps this sound: `ShardRuntime::run_batch` does not return —
//! normally or by unwind — until every live worker has acknowledged the
//! batch's `Flush` fence with a `Done` message (FIFO rings: `Done` implies
//! every preceding `Run` job was consumed), and workers that died can never
//! pop again. Engines are only ever touched by their worker thread or, for
//! inline batches and control access, by the caller through the same mutex
//! while the rings are empty.

pub mod spsc;

use crate::engine::AdaptiveJoinEngine;
use acq_stream::{Composite, Op, Update};
use acq_telemetry::TelemetrySnapshot;
use spsc::{parker, ring, Consumer, Parker, Producer, Unparker};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

/// Staged routed indices per shard before a run job is flushed to the
/// worker: the double-buffering grain of the router→worker pipeline.
const ROUTE_CHUNK: usize = 256;

/// Worker emits a result run after this many buffered delta groups (or
/// earlier, whenever its inbox goes empty).
const EMIT_RUN: usize = 64;

/// Inbox ring capacity (jobs). `ROUTE_CHUNK`-sized runs make this far
/// deeper than any realistic batch backlog.
const INBOX_CAP: usize = 128;

/// Result ring capacity (runs).
const RESULT_CAP: usize = 128;

/// One update's delta group.
type Group = Vec<(Op, Composite)>;

/// A run of delta groups tagged with their global batch indices, ascending.
type RunBuf = Vec<(u32, Group)>;

/// Raw pointer to the caller's batch slice, sent to workers inside jobs.
///
/// Validity is guaranteed by the batch fence protocol (module docs): the
/// pointee outlives every job that can still be popped.
#[derive(Clone, Copy)]
struct BatchPtr(*const Update);

// SAFETY: see the module-level safety protocol — the pointee slice is
// pinned by the caller for the whole fence window, and `Update` is `Sync`.
unsafe impl Send for BatchPtr {}

enum Job {
    /// Process `base[gi]` for each `gi` in `indices` (ascending).
    Run { base: BatchPtr, indices: Vec<u32> },
    /// Batch fence: emit buffered results, then acknowledge with
    /// `ResultMsg::Done(epoch)`.
    Flush(u64),
    /// Test-only: panic inside the worker to exercise shard poisoning.
    #[cfg(any(test, feature = "fault-injection"))]
    Panic,
    /// Exit the worker loop.
    Shutdown,
}

enum ResultMsg {
    /// A run of processed delta groups (ascending batch indices).
    Run(RunBuf),
    /// All jobs up to the batch's `Flush` fence have been processed.
    Done(u64),
}

/// Where one update goes, as decided by the caller's router.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Dispatch {
    /// Exactly this shard.
    Shard(usize),
    /// Every shard.
    All,
}

/// A worker panic that poisoned one shard.
///
/// Returned by
/// [`ShardedEngine::try_process_batch_grouped`](crate::shard::ShardedEngine::try_process_batch_grouped):
/// the panic payload is captured as a message, together with the poisoned
/// shard's last obtainable telemetry snapshot. Other shards remain healthy and
/// drainable (their engines, counters, and telemetry stay accessible), but
/// further batch processing is refused because the poisoned shard's state
/// is lost.
pub struct ShardPanic {
    /// Index of the shard whose worker panicked.
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
        write!(f, "shard {} worker panicked: {}", self.shard, self.message)
    }
}

impl std::error::Error for ShardPanic {}

/// What a worker records about its own death.
struct WorkerFailure {
    message: String,
    telemetry: TelemetrySnapshot,
}

/// Shared per-shard state: the engine and the flags both sides observe.
struct Slot {
    engine: Mutex<AdaptiveJoinEngine>,
    /// Worker caught a panic; the shard's state is lost.
    poisoned: AtomicBool,
    /// Worker thread is running (false once its loop exits for any reason).
    alive: AtomicBool,
    /// Set before a clean `Shutdown` exit, to distinguish it from death.
    clean_exit: AtomicBool,
    failure: Mutex<Option<WorkerFailure>>,
    /// Wakes the worker after a job push.
    to_worker: Unparker,
    /// Wakes the caller after a result push.
    to_caller: Unparker,
    /// Times the worker actually parked (idle).
    parks: AtomicU64,
    /// Run jobs the worker processed.
    runs: AtomicU64,
}

fn lock_ignore_poison<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Caller-side handle to one worker's rings and per-batch staging.
struct Lane {
    inbox: Producer<Job>,
    results: Consumer<ResultMsg>,
    /// Routed batch indices not yet flushed to the worker.
    staging: Vec<u32>,
    /// A `Flush` fence for the current batch has been pushed.
    fenced: bool,
    /// The current batch's `Done` has been received (or the lane is dead).
    done: bool,
}

/// The persistent worker pool behind a sharded engine: engines, rings, and
/// threads. With a single shard no threads are spawned and every batch runs
/// inline on the caller.
pub(crate) struct ShardRuntime {
    slots: Vec<Arc<Slot>>,
    /// One per shard when threaded; empty when running inline-only.
    lanes: Vec<Lane>,
    handles: Vec<JoinHandle<()>>,
    caller: Parker,
    epoch: u64,
    /// Running sum/sample-count of result-ring backlog observed by the
    /// streaming merge (the `merge.lag` gauge).
    lag_sum: u64,
    lag_samples: u64,
}

impl fmt::Debug for ShardRuntime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardRuntime")
            .field("shards", &self.slots.len())
            .field("threaded", &!self.lanes.is_empty())
            .field("poisoned", &self.poisoned_shards())
            .finish()
    }
}

impl ShardRuntime {
    /// Build the runtime, moving the engines into per-shard slots. Worker
    /// threads are spawned only for `engines.len() > 1`.
    pub(crate) fn new(engines: Vec<AdaptiveJoinEngine>) -> ShardRuntime {
        let threaded = engines.len() > 1;
        let (caller, to_caller) = parker();
        let mut slots = Vec::with_capacity(engines.len());
        let mut lanes = Vec::new();
        let mut handles = Vec::new();
        for (i, engine) in engines.into_iter().enumerate() {
            let (worker_parker, to_worker) = parker();
            let slot = Arc::new(Slot {
                engine: Mutex::new(engine),
                poisoned: AtomicBool::new(false),
                alive: AtomicBool::new(threaded),
                clean_exit: AtomicBool::new(false),
                failure: Mutex::new(None),
                to_worker,
                to_caller: to_caller.clone(),
                parks: AtomicU64::new(0),
                runs: AtomicU64::new(0),
            });
            if threaded {
                let (job_tx, job_rx) = ring::<Job>(INBOX_CAP);
                let (res_tx, res_rx) = ring::<ResultMsg>(RESULT_CAP);
                let worker_slot = Arc::clone(&slot);
                let handle = std::thread::Builder::new()
                    .name(format!("acq-shard-{i}"))
                    .spawn(move || worker_loop(worker_slot, job_rx, res_tx, worker_parker))
                    .expect("spawn shard worker");
                handles.push(handle);
                lanes.push(Lane {
                    inbox: job_tx,
                    results: res_rx,
                    staging: Vec::with_capacity(ROUTE_CHUNK),
                    fenced: false,
                    done: true,
                });
            }
            slots.push(slot);
        }
        ShardRuntime {
            slots,
            lanes,
            handles,
            caller,
            epoch: 0,
            lag_sum: 0,
            lag_samples: 0,
        }
    }

    pub(crate) fn num_shards(&self) -> usize {
        self.slots.len()
    }

    /// Whether persistent worker threads exist (more than one shard).
    pub(crate) fn is_threaded(&self) -> bool {
        !self.lanes.is_empty()
    }

    /// Lock shard `i`'s engine for caller-side access. Sound whenever no
    /// batch is in flight (rings drained), which `&self`/`&mut self`
    /// exclusivity on the owning engine guarantees between calls.
    pub(crate) fn engine(&self, i: usize) -> MutexGuard<'_, AdaptiveJoinEngine> {
        lock_ignore_poison(&self.slots[i].engine)
    }

    /// Indices of shards whose workers panicked or died.
    pub(crate) fn poisoned_shards(&self) -> Vec<usize> {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.poisoned.load(Ordering::Acquire))
            .map(|(i, _)| i)
            .collect()
    }

    /// The typed failure of the first poisoned shard, if any.
    pub(crate) fn first_failure(&self) -> Option<ShardPanic> {
        let i = *self.poisoned_shards().first()?;
        let guard = lock_ignore_poison(&self.slots[i].failure);
        let f = guard.as_ref()?;
        Some(ShardPanic {
            shard: i,
            message: f.message.clone(),
            telemetry: f.telemetry.clone(),
        })
    }

    /// Inbox depth of shard `i` (0 when not threaded).
    pub(crate) fn queue_depth(&self, i: usize) -> usize {
        self.lanes.get(i).map_or(0, |l| l.inbox.len())
    }

    /// `(parks, run jobs processed)` counters of shard `i`'s worker.
    pub(crate) fn park_stats(&self, i: usize) -> (u64, u64) {
        (
            self.slots[i].parks.load(Ordering::Relaxed),
            self.slots[i].runs.load(Ordering::Relaxed),
        )
    }

    /// Mean result-ring backlog observed by the streaming merge, in runs.
    pub(crate) fn merge_lag(&self) -> f64 {
        if self.lag_samples == 0 {
            0.0
        } else {
            self.lag_sum as f64 / self.lag_samples as f64
        }
    }

    /// Test-only: make shard `i`'s worker panic on its next pop, poisoning
    /// the shard. Requires a threaded runtime.
    #[cfg(any(test, feature = "fault-injection"))]
    pub(crate) fn inject_panic(&mut self, i: usize) {
        let lane = &mut self.lanes[i];
        let mut job = Job::Panic;
        while let Err(j) = lane.inbox.push(job) {
            job = j;
            self.slots[i].to_worker.unpark();
            std::thread::yield_now();
        }
        self.slots[i].to_worker.unpark();
    }

    /// Run one batch through the persistent workers: route every update
    /// with `route`, pipeline index runs into the inbox rings, and stream
    /// result runs back into `out[gi]` as they arrive. Returns once every
    /// live worker has fenced the batch; `Err` if any shard is (or
    /// becomes) poisoned.
    ///
    /// `out` must hold one (possibly pre-filled) group per update.
    pub(crate) fn run_batch(
        &mut self,
        updates: &[Update],
        route: impl FnMut(&Update) -> Dispatch,
        out: &mut [Group],
    ) -> Result<(), ShardPanic> {
        debug_assert!(self.is_threaded());
        debug_assert_eq!(updates.len(), out.len());
        self.epoch += 1;
        for lane in &mut self.lanes {
            lane.staging.clear();
            lane.fenced = false;
            lane.done = false;
        }
        // Feed + fence + drain, with a panic firewall: even if something in
        // the feed path unwinds, the fence/drain below still runs before
        // the borrowed batch goes out of scope (see module safety notes).
        let feed = catch_unwind(AssertUnwindSafe(|| self.feed(updates, route, out)));
        let drain = self.finish(BatchPtr(updates.as_ptr()), out);
        match feed {
            Err(payload) => std::panic::resume_unwind(payload),
            Ok(()) => drain,
        }
    }

    fn feed(
        &mut self,
        updates: &[Update],
        mut route: impl FnMut(&Update) -> Dispatch,
        out: &mut [Group],
    ) {
        let base = BatchPtr(updates.as_ptr());
        for (gi, u) in updates.iter().enumerate() {
            match route(u) {
                Dispatch::Shard(s) => self.stage(s, gi as u32, base, out),
                Dispatch::All => {
                    for s in 0..self.lanes.len() {
                        self.stage(s, gi as u32, base, out);
                    }
                }
            }
        }
    }

    /// Stage one routed index; flush a run job when the chunk fills.
    fn stage(&mut self, shard: usize, gi: u32, base: BatchPtr, out: &mut [Group]) {
        self.lanes[shard].staging.push(gi);
        if self.lanes[shard].staging.len() >= ROUTE_CHUNK {
            self.flush_shard(shard, base, out);
            // Keep the merge streaming while routing continues.
            self.drain_all(Some(out));
        }
    }

    /// Push shard `shard`'s staged indices as one run job.
    fn flush_shard(&mut self, shard: usize, base: BatchPtr, out: &mut [Group]) {
        if self.lanes[shard].staging.is_empty() {
            return;
        }
        let indices = std::mem::replace(
            &mut self.lanes[shard].staging,
            Vec::with_capacity(ROUTE_CHUNK),
        );
        self.push_job(shard, Job::Run { base, indices }, out);
    }

    /// Push one job, draining results while the inbox is full. Jobs to dead
    /// lanes are dropped (their batch indices produce no output).
    fn push_job(&mut self, shard: usize, job: Job, out: &mut [Group]) {
        let mut job = job;
        loop {
            if !self.slots[shard].alive.load(Ordering::Acquire) {
                return;
            }
            match self.lanes[shard].inbox.push(job) {
                Ok(()) => {
                    self.slots[shard].to_worker.unpark();
                    return;
                }
                Err(j) => {
                    job = j;
                    self.slots[shard].to_worker.unpark();
                    if !self.drain_all(Some(out)) {
                        std::thread::yield_now();
                    }
                }
            }
        }
    }

    /// Fence every lane, then stream results until all lanes are done.
    fn finish(&mut self, base: BatchPtr, out: &mut [Group]) -> Result<(), ShardPanic> {
        let epoch = self.epoch;
        for s in 0..self.lanes.len() {
            self.flush_shard(s, base, out);
            self.push_job(s, Job::Flush(epoch), out);
            self.lanes[s].fenced = true;
        }
        loop {
            let progress = self.drain_all(Some(out));
            let all_done = (0..self.lanes.len())
                .all(|s| self.lanes[s].done || !self.slots[s].alive.load(Ordering::Acquire));
            if all_done {
                break;
            }
            if !progress {
                // Workers unpark us on every result push; the timeout is a
                // liveness backstop, not the wakeup path.
                self.caller.park_timeout(Duration::from_micros(500));
            }
        }
        match self.first_failure() {
            Some(f) => Err(f),
            None => Ok(()),
        }
    }

    /// Pop every available result message; place groups into `out` (or drop
    /// them when `out` is `None`). Returns whether anything was popped.
    fn drain_all(&mut self, mut out: Option<&mut [Group]>) -> bool {
        let epoch = self.epoch;
        let mut progress = false;
        for lane in &mut self.lanes {
            // Sample merge lag on fenced (actively merging) lanes.
            if lane.fenced && !lane.done {
                self.lag_sum += lane.results.len() as u64;
                self.lag_samples += 1;
            }
            while let Some(msg) = lane.results.pop() {
                progress = true;
                match msg {
                    ResultMsg::Run(mut groups) => {
                        if let Some(out) = out.as_deref_mut() {
                            for (gi, group) in &mut groups {
                                let dst = &mut out[*gi as usize];
                                if dst.is_empty() {
                                    // Routed updates have a single source
                                    // shard: steal the buffer outright.
                                    std::mem::swap(dst, group);
                                } else {
                                    dst.append(group);
                                }
                            }
                        }
                    }
                    ResultMsg::Done(e) => {
                        if e == epoch {
                            lane.done = true;
                        }
                    }
                }
            }
        }
        progress
    }
}

impl Drop for ShardRuntime {
    fn drop(&mut self) {
        for (s, lane) in self.lanes.iter_mut().enumerate() {
            let slot = &self.slots[s];
            let mut job = Job::Shutdown;
            while slot.alive.load(Ordering::Acquire) {
                match lane.inbox.push(job) {
                    Ok(()) => break,
                    Err(j) => {
                        job = j;
                        slot.to_worker.unpark();
                        std::thread::yield_now();
                    }
                }
            }
            slot.to_worker.unpark();
        }
        for h in self.handles.drain(..) {
            // Worker panics are caught inside the loop; a join error here
            // would mean the loop itself died, which `alive` already
            // records — either way there is nothing useful to propagate.
            let _ = h.join();
        }
    }
}

// ---------------------------------------------------------------------
// Worker side

/// Marks the slot dead when the worker loop exits for *any* reason; an
/// unclean exit (not via `Shutdown`) additionally poisons the shard so the
/// caller's fence protocol never waits on a corpse.
struct AliveGuard(Arc<Slot>);

impl Drop for AliveGuard {
    fn drop(&mut self) {
        let slot = &self.0;
        if !slot.clean_exit.load(Ordering::Acquire) {
            let mut failure = lock_ignore_poison(&slot.failure);
            if failure.is_none() {
                *failure = Some(WorkerFailure {
                    message: "worker thread terminated unexpectedly".to_string(),
                    telemetry: TelemetrySnapshot::new(),
                });
            }
            drop(failure);
            slot.poisoned.store(true, Ordering::Release);
        }
        slot.alive.store(false, Ordering::Release);
        slot.to_caller.unpark();
    }
}

fn worker_loop(
    slot: Arc<Slot>,
    mut inbox: Consumer<Job>,
    mut results: Producer<ResultMsg>,
    idle: Parker,
) {
    let _alive = AliveGuard(Arc::clone(&slot));
    let mut cur: RunBuf = Vec::with_capacity(EMIT_RUN);
    let mut spins = 0u32;
    loop {
        match inbox.pop() {
            Some(Job::Run { base, indices }) => {
                spins = 0;
                slot.runs.fetch_add(1, Ordering::Relaxed);
                if slot.poisoned.load(Ordering::Acquire) {
                    // Sink mode: consume and discard so fences stay live.
                    continue;
                }
                let run = catch_unwind(AssertUnwindSafe(|| {
                    let mut engine = lock_ignore_poison(&slot.engine);
                    for &gi in &indices {
                        // SAFETY: `base` points at the caller's pinned
                        // batch; the fence protocol keeps it alive until
                        // after our `Done` for this batch.
                        let u = unsafe { &*base.0.add(gi as usize) };
                        cur.push((gi, engine.process(u)));
                    }
                }));
                if let Err(payload) = run {
                    cur.clear();
                    poison(&slot, payload);
                    continue;
                }
                if cur.len() >= EMIT_RUN || inbox.is_empty() {
                    emit(&slot, &mut results, &mut cur);
                }
            }
            Some(Job::Flush(epoch)) => {
                spins = 0;
                emit(&slot, &mut results, &mut cur);
                push_result(&slot, &mut results, ResultMsg::Done(epoch));
            }
            #[cfg(any(test, feature = "fault-injection"))]
            Some(Job::Panic) => {
                spins = 0;
                if let Err(payload) =
                    catch_unwind(|| -> () { panic!("injected worker panic") })
                {
                    cur.clear();
                    poison(&slot, payload);
                }
            }
            Some(Job::Shutdown) => {
                slot.clean_exit.store(true, Ordering::Release);
                return;
            }
            None => {
                // Spin briefly (cheap when a batch is streaming), yield a
                // few times (matters on small machines where the router
                // shares our core), then park until the next push.
                if spins < 64 {
                    std::hint::spin_loop();
                    spins += 1;
                } else if spins < 72 {
                    std::thread::yield_now();
                    spins += 1;
                } else {
                    slot.parks.fetch_add(1, Ordering::Relaxed);
                    idle.park();
                    spins = 0;
                }
            }
        }
    }
}

/// Flush the worker's buffered run, if any.
fn emit(slot: &Slot, results: &mut Producer<ResultMsg>, cur: &mut RunBuf) {
    if cur.is_empty() {
        return;
    }
    let run = std::mem::replace(cur, Vec::with_capacity(EMIT_RUN));
    push_result(slot, results, ResultMsg::Run(run));
}

/// Push one result message, yielding to the (single-core-friendly) caller
/// while the ring is full.
fn push_result(slot: &Slot, results: &mut Producer<ResultMsg>, msg: ResultMsg) {
    let mut msg = msg;
    loop {
        match results.push(msg) {
            Ok(()) => {
                slot.to_caller.unpark();
                return;
            }
            Err(m) => {
                msg = m;
                slot.to_caller.unpark();
                std::thread::yield_now();
            }
        }
    }
}

/// Record a caught worker panic and poison the shard.
fn poison(slot: &Slot, payload: Box<dyn std::any::Any + Send>) {
    let message = if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    };
    // The engine is memory-safe but logically suspect after a panic;
    // snapshotting is best-effort.
    let telemetry = catch_unwind(AssertUnwindSafe(|| {
        lock_ignore_poison(&slot.engine).telemetry_snapshot()
    }))
    .unwrap_or_else(|_| TelemetrySnapshot::new());
    *lock_ignore_poison(&slot.failure) = Some(WorkerFailure { message, telemetry });
    slot.poisoned.store(true, Ordering::Release);
    slot.to_caller.unpark();
}
