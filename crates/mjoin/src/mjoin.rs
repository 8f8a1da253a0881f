//! The plain MJoin executor (baseline `M`).
//!
//! §3.1 semantics: updates arrive in a single global order; each update `r` on
//! `∆R_i` is joined with the other `n − 1` relations along `R_i`'s pipeline,
//! producing the insertions/deletions to the n-way result, and `R_i`'s store
//! is updated. No intermediate subresults are maintained.
//!
//! The executor keeps per-operator statistics (`d_ij`-style tuple counts and
//! virtual costs) and an [`OnlineStats`] collector
//! so the A-Greedy-style orderer can adapt the pipelines when stream
//! characteristics drift.

use crate::exec::JoinCore;
use crate::metrics::PipelineMetrics;
use crate::ordering::GreedyOrderer;
use crate::plan::{CompiledOp, PlanOrders};
use crate::stats::OnlineStats;
use acq_stream::{Composite, Op, QuerySchema, RelId, Update, MAX_PARTS};
use acq_telemetry::TelemetrySnapshot;

pub use crate::metrics::OpStats;

/// Plain MJoin executor.
#[derive(Debug)]
pub struct MJoin {
    core: JoinCore,
    orders: PlanOrders,
    compiled: Vec<Vec<CompiledOp>>,
    metrics: Vec<PipelineMetrics>,
    online: OnlineStats,
    tuples_processed: u64,
    outputs_emitted: u64,
    reorder_count: u64,
}

impl MJoin {
    /// Build an MJoin with explicit pipeline orders.
    pub fn new(query: QuerySchema, orders: PlanOrders) -> MJoin {
        orders.validate(&query).expect("invalid plan");
        let core = JoinCore::new(query);
        MJoin::from_core(core, orders)
    }

    /// Build from an existing [`JoinCore`] (lets experiments preconfigure
    /// indexes / cost models).
    pub fn from_core(core: JoinCore, orders: PlanOrders) -> MJoin {
        let n = core.query().num_relations();
        let compiled = Self::compile_all(&core, &orders);
        let metrics = compiled
            .iter()
            .map(|ops| PipelineMetrics::new(ops.len()))
            .collect();
        MJoin {
            online: OnlineStats::new(n, 10, 0.01),
            core,
            orders,
            compiled,
            metrics,
            tuples_processed: 0,
            outputs_emitted: 0,
            reorder_count: 0,
        }
    }

    fn compile_all(core: &JoinCore, orders: &PlanOrders) -> Vec<Vec<CompiledOp>> {
        orders
            .pipelines
            .iter()
            .map(|p| CompiledOp::compile_pipeline(core.query(), core.relations(), p))
            .collect()
    }

    /// The execution core.
    pub fn core(&self) -> &JoinCore {
        &self.core
    }

    /// Mutable core access (index experiments).
    pub fn core_mut(&mut self) -> &mut JoinCore {
        &mut self.core
    }

    /// Current pipeline orders.
    pub fn orders(&self) -> &PlanOrders {
        &self.orders
    }

    /// Per-operator statistics for stream `r`.
    pub fn op_stats(&self, r: RelId) -> &[OpStats] {
        &self.metrics[r.0 as usize].ops
    }

    /// The online workload-statistics collector.
    pub fn online_stats_mut(&mut self) -> &mut OnlineStats {
        &mut self.online
    }

    /// Replace pipeline orders (recompiles operators and resets per-operator
    /// statistics, which are order-specific).
    pub fn set_orders(&mut self, orders: PlanOrders) {
        orders.validate(self.core.query()).expect("invalid plan");
        self.compiled = Self::compile_all(&self.core, &orders);
        for (pm, ops) in self.metrics.iter_mut().zip(self.compiled.iter()) {
            pm.reset(ops.len());
        }
        self.orders = orders;
        self.reorder_count += 1;
    }

    /// Recompile operators against current index availability without
    /// changing orders (call after dropping/adding an index).
    pub fn recompile(&mut self) {
        self.compiled = Self::compile_all(&self.core, &self.orders);
    }

    /// Number of updates processed.
    pub fn tuples_processed(&self) -> u64 {
        self.tuples_processed
    }

    /// Number of result deltas emitted.
    pub fn outputs_emitted(&self) -> u64 {
        self.outputs_emitted
    }

    /// Times the plan was reordered.
    pub fn reorder_count(&self) -> u64 {
        self.reorder_count
    }

    /// Average updates processed per virtual second so far — the paper's
    /// tuple-processing-rate metric.
    pub fn processing_rate(&self) -> f64 {
        let secs = self.core.now_secs();
        if secs <= 0.0 {
            0.0
        } else {
            self.tuples_processed as f64 / secs
        }
    }

    /// A point-in-time [`TelemetrySnapshot`]: executor counters
    /// (`engine.*`), the processing-rate ratio, and per-pipeline /
    /// per-operator metrics (`pipeline.*`, `op.*`). See OBSERVABILITY.md
    /// for the namespace.
    pub fn telemetry_snapshot(&self) -> TelemetrySnapshot {
        let mut s = TelemetrySnapshot::new();
        s.counter("engine.tuples_processed", &[], self.tuples_processed);
        s.counter("engine.outputs_emitted", &[], self.outputs_emitted);
        s.counter("engine.reorderings", &[], self.reorder_count);
        s.counter("engine.virtual_ns", &[], self.core.now_ns());
        s.ratio(
            "engine.rate",
            &[],
            self.tuples_processed as f64,
            self.core.now_secs(),
        );
        for (pi, pm) in self.metrics.iter().enumerate() {
            pm.snapshot_into(&mut s, pi);
        }
        s
    }

    /// Process one update through its pipeline; returns the result deltas.
    pub fn process(&mut self, u: &Update) -> Vec<(Op, Composite)> {
        self.tuples_processed += 1;
        self.online.record_update(u.rel);
        let Some(tref) = self.core.apply_update(u) else {
            return Vec::new(); // delete of absent tuple
        };
        self.online
            .record_size(u.rel, self.core.relation(u.rel).len());

        let pipeline = u.rel.0 as usize;
        self.metrics[pipeline].record_update();
        let ops = &self.compiled[pipeline];
        let tally = &mut [(0, 0); MAX_PARTS][..ops.len()];
        let mut out = Vec::new();
        let online = &mut self.online;
        self.core.walk(
            Composite::unit(tref),
            ops,
            tally,
            &mut out,
            |j, produced, size| online.record_op_probe(&ops[j], produced, size),
        );
        self.metrics[pipeline].record_walk(0, tally, out.len() as u64, None);

        self.core.charge_outputs(out.len());
        self.outputs_emitted += out.len() as u64;
        out.into_iter().map(|c| (u.op, c)).collect()
    }

    /// Adaptive-ordering hook: snapshot online statistics and reorder if the
    /// greedy invariant is violated. Returns `true` when the plan changed.
    pub fn maybe_reorder(&mut self, orderer: &GreedyOrderer) -> bool {
        let now = self.core.now_ns();
        let stats = self.online.snapshot(now);
        if let Some(better) = orderer.check_violation(self.core.query(), &stats, &self.orders) {
            self.set_orders(better);
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acq_stream::{QuerySchema, TupleData};

    fn upd(rel: u16, op: Op, vals: &[i64], ts: u64) -> Update {
        Update {
            op,
            rel: RelId(rel),
            data: TupleData::ints(vals),
            ts,
        }
    }

    fn setup_chain3() -> MJoin {
        MJoin::new(
            QuerySchema::chain3(),
            PlanOrders::identity(&QuerySchema::chain3()),
        )
    }

    #[test]
    fn example_3_1_end_to_end() {
        let mut m = setup_chain3();
        for (rel, vals) in [
            (0u16, vec![0i64]),
            (0, vec![2]),
            (1, vec![1, 2]),
            (1, vec![1, 3]),
            (1, vec![3, 4]),
            (2, vec![2]),
            (2, vec![6]),
        ] {
            let out = m.process(&upd(rel, Op::Insert, &vals, 0));
            assert!(out.is_empty(), "no complete join results yet");
        }
        let out = m.process(&upd(0, Op::Insert, &[1], 1));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, Op::Insert);
        assert_eq!(m.outputs_emitted(), 1);
        assert_eq!(m.tuples_processed(), 8);
    }

    #[test]
    fn deletes_produce_negative_deltas() {
        let mut m = setup_chain3();
        m.process(&upd(0, Op::Insert, &[1], 0));
        m.process(&upd(1, Op::Insert, &[1, 2], 1));
        let out = m.process(&upd(2, Op::Insert, &[2], 2));
        assert_eq!(out.len(), 1);
        // Deleting the S tuple removes the single result.
        let out = m.process(&upd(1, Op::Delete, &[1, 2], 3));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, Op::Delete);
        // Another T insertion now finds no S to join through.
        let out = m.process(&upd(2, Op::Insert, &[2], 4));
        assert!(out.is_empty(), "S is gone, no results");
    }

    #[test]
    fn delete_of_absent_tuple_emits_nothing() {
        let mut m = setup_chain3();
        let out = m.process(&upd(0, Op::Delete, &[42], 0));
        assert!(out.is_empty());
    }

    #[test]
    fn op_stats_accumulate() {
        let mut m = setup_chain3();
        m.process(&upd(1, Op::Insert, &[1, 2], 0));
        m.process(&upd(1, Op::Insert, &[1, 3], 0));
        m.process(&upd(0, Op::Insert, &[1], 1));
        let stats = m.op_stats(RelId(0));
        assert_eq!(stats[0].tuples_in, 1, "one update entered the pipeline");
        assert_eq!(stats[0].tuples_out, 2, "fanout 2 into S");
        assert!(stats[0].cost_ns > 0);
        assert_eq!(stats[1].tuples_in, 2);
        assert_eq!(stats[1].tuples_out, 0, "T empty");
    }

    #[test]
    fn processing_rate_positive() {
        let mut m = setup_chain3();
        for i in 0..100 {
            m.process(&upd(0, Op::Insert, &[i], i as u64));
        }
        assert!(m.processing_rate() > 0.0);
    }

    #[test]
    fn reorder_resets_stats_and_recompiles() {
        let q = QuerySchema::chain3();
        let mut m = setup_chain3();
        m.process(&upd(1, Op::Insert, &[1, 2], 0));
        m.process(&upd(0, Op::Insert, &[1], 1));
        assert!(m.op_stats(RelId(0))[0].tuples_in > 0);
        let mut orders = PlanOrders::identity(&q);
        orders.pipelines[0].order = vec![RelId(2), RelId(1)];
        m.set_orders(orders);
        assert_eq!(m.op_stats(RelId(0))[0].tuples_in, 0);
        assert_eq!(m.reorder_count(), 1);
        assert_eq!(m.orders().pipeline(RelId(0)).order[0], RelId(2));
        // Still correct after reorder.
        m.process(&upd(2, Op::Insert, &[2], 2));
        let out = m.process(&upd(0, Op::Insert, &[1], 3));
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn maybe_reorder_adapts_to_skew() {
        // Start with identity orders on a star query, then feed a workload
        // where R3 has huge fanout; the orderer should move R3 last in R1's
        // pipeline.
        let q = QuerySchema::star(3);
        // Start from the *suboptimal* order [R3, R2] in ∆R1's pipeline.
        let mut orders = PlanOrders::identity(&q);
        orders.pipelines[0].order = vec![RelId(2), RelId(1)];
        let mut m = MJoin::new(q.clone(), orders);
        // R2 sparse (distinct keys), R3 dense (all same key).
        for i in 0..50 {
            m.process(&upd(1, Op::Insert, &[i, 0], i as u64));
        }
        for i in 0..50 {
            m.process(&upd(2, Op::Insert, &[7, i], (50 + i) as u64));
        }
        for i in 0..30 {
            m.process(&upd(0, Op::Insert, &[7, i], (100 + i) as u64));
        }
        // Only ∆R1's pipeline improves, so the whole-plan gain sits near the
        // default 20% hysteresis; use a tighter threshold for the check.
        let orderer = GreedyOrderer {
            violation_threshold: 0.05,
        };
        let changed = m.maybe_reorder(&orderer);
        assert!(changed, "should adapt to the skew");
        assert_eq!(
            m.orders().pipeline(RelId(0)).order,
            vec![RelId(1), RelId(2)],
            "join sparse R2 before dense R3"
        );
    }
}
