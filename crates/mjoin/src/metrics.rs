//! Per-pipeline / per-operator execution metrics and their export into
//! [`acq_telemetry::TelemetrySnapshot`]s.
//!
//! Every executor in this crate (and the A-Caching engine in `acq`) drives
//! pipelines of compiled operators; the raw observables are identical —
//! tuples in, tuples out, virtual time spent — so the accumulation type
//! lives here and is shared. These counts are the raw material for the
//! paper's `d_ij` (drop/fanout) and `c_ij` (per-tuple cost) estimates.

use acq_telemetry::TelemetrySnapshot;

/// Per-operator execution statistics (the raw material for the paper's
/// `d_ij` / `c_ij` estimates).
#[derive(Debug, Clone, Copy, Default)]
pub struct OpStats {
    /// Tuples that entered this operator.
    pub tuples_in: u64,
    /// Tuples the operator produced.
    pub tuples_out: u64,
    /// Virtual nanoseconds spent in the operator.
    pub cost_ns: u64,
}

impl OpStats {
    /// Record one operator invocation.
    #[inline]
    pub fn record(&mut self, tuples_in: u64, tuples_out: u64, cost_ns: u64) {
        self.tuples_in += tuples_in;
        self.tuples_out += tuples_out;
        self.cost_ns += cost_ns;
    }
}

/// Accumulated metrics for one update pipeline: an update counter plus one
/// [`OpStats`] per operator position.
#[derive(Debug, Clone, Default)]
pub struct PipelineMetrics {
    /// Updates that entered this pipeline.
    pub updates: u64,
    /// Per-position operator statistics, in pipeline order.
    pub ops: Vec<OpStats>,
}

impl PipelineMetrics {
    /// Metrics for a pipeline of `n_ops` operators, all zero.
    pub fn new(n_ops: usize) -> PipelineMetrics {
        PipelineMetrics {
            updates: 0,
            ops: vec![OpStats::default(); n_ops],
        }
    }

    /// Count one update entering the pipeline.
    #[inline]
    pub fn record_update(&mut self) {
        self.updates += 1;
    }

    /// Record one invocation of the operator at position `j`.
    #[inline]
    pub fn record_op(&mut self, j: usize, tuples_in: u64, tuples_out: u64, cost_ns: u64) {
        self.ops[j].record(tuples_in, tuples_out, cost_ns);
    }

    /// Record a [`JoinCore::walk`](crate::exec::JoinCore::walk) over
    /// positions `start..start + tally.len()`. `tally[k]` is the walk's
    /// `(prefixes in, virtual ns)` for position `start + k`; a position's
    /// output count is the next one's input count, the last one's is
    /// `tuples_out`. Positions no prefix reached record nothing. When
    /// `profile` is given, one `(tuples in, ns)` entry per position,
    /// reached or not, is appended to it (the profiler's per-position
    /// record).
    pub fn record_walk(
        &mut self,
        start: usize,
        tally: &[(u64, u64)],
        tuples_out: u64,
        mut profile: Option<&mut Vec<(f64, u64)>>,
    ) {
        for (k, &(tuples_in, ns)) in tally.iter().enumerate() {
            if let Some(rec) = profile.as_deref_mut() {
                rec.push((tuples_in as f64, ns));
            }
            if tuples_in > 0 {
                let out = tally.get(k + 1).map_or(tuples_out, |next| next.0);
                self.record_op(start + k, tuples_in, out, ns);
            }
        }
    }

    /// Reset all counts, resizing to `n_ops` positions (used when a plan is
    /// reordered — per-position stats are order-specific).
    pub fn reset(&mut self, n_ops: usize) {
        self.updates = 0;
        self.ops.clear();
        self.ops.resize(n_ops, OpStats::default());
    }

    /// Emit this pipeline's metrics into a snapshot.
    ///
    /// Produces, per operator position `j` (labels `pipeline`, `op`):
    /// `op.tuples_in`, `op.tuples_out`, `op.cost_ns` counters plus the
    /// `op.fanout` ratio (`tuples_out / tuples_in`, the complement of the
    /// paper's drop probability `d_ij`), and a per-pipeline
    /// `pipeline.updates` counter.
    pub fn snapshot_into(&self, s: &mut TelemetrySnapshot, pipeline: usize) {
        let pl = pipeline.to_string();
        s.counter("pipeline.updates", &[("pipeline", &pl)], self.updates);
        for (j, op) in self.ops.iter().enumerate() {
            let opl = j.to_string();
            let labels: [(&str, &str); 2] = [("pipeline", &pl), ("op", &opl)];
            s.counter("op.tuples_in", &labels, op.tuples_in);
            s.counter("op.tuples_out", &labels, op.tuples_out);
            s.counter("op.cost_ns", &labels, op.cost_ns);
            s.ratio(
                "op.fanout",
                &labels,
                op.tuples_out as f64,
                op.tuples_in as f64,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acq_telemetry::MetricValue;

    #[test]
    fn pipeline_metrics_snapshot_round_trip() {
        let mut pm = PipelineMetrics::new(2);
        pm.record_update();
        pm.record_op(0, 1, 3, 500);
        pm.record_op(1, 3, 0, 900);
        let mut s = TelemetrySnapshot::new();
        pm.snapshot_into(&mut s, 0);
        assert_eq!(
            s.get("op.tuples_out", &[("pipeline", "0"), ("op", "0")]),
            Some(&MetricValue::Counter(3))
        );
        assert_eq!(
            s.get("pipeline.updates", &[("pipeline", "0")]),
            Some(&MetricValue::Counter(1))
        );
        let fanout = s
            .get("op.fanout", &[("pipeline", "0"), ("op", "0")])
            .and_then(|v| v.as_ratio());
        assert_eq!(fanout, Some(3.0));
    }

    #[test]
    fn record_walk_chains_counts_and_profiles() {
        let mut pm = PipelineMetrics::new(4);
        let mut profile = Vec::new();
        // Positions 1..4: 2 prefixes in, 3 survive into position 2, none
        // into position 3; 5 results would come out of position 3.
        pm.record_walk(1, &[(2, 40), (3, 90), (0, 0)], 5, Some(&mut profile));
        assert_eq!(profile, vec![(2.0, 40), (3.0, 90), (0.0, 0)]);
        let rows: Vec<_> = pm
            .ops
            .iter()
            .map(|o| (o.tuples_in, o.tuples_out, o.cost_ns))
            .collect();
        assert_eq!(rows, vec![(0, 0, 0), (2, 3, 40), (3, 0, 90), (0, 0, 0)]);
        pm.record_walk(3, &[(4, 10)], 6, None);
        assert_eq!(pm.ops[3].tuples_out, 6);
    }

    #[test]
    fn reset_resizes_and_zeroes() {
        let mut pm = PipelineMetrics::new(1);
        pm.record_update();
        pm.record_op(0, 5, 5, 100);
        pm.reset(3);
        assert_eq!(pm.updates, 0);
        assert_eq!(pm.ops.len(), 3);
        assert_eq!(pm.ops[0].tuples_in, 0);
    }
}
