//! Workload statistics: configured (from a generator) or observed (online).
//!
//! Join ordering — both the A-Greedy baseline ordering and the "best XJoin"
//! search — needs stream rates, window sizes, and pairwise join
//! selectivities. [`WorkloadStats`] is the static snapshot; [`OnlineStats`]
//! accumulates the same quantities from execution observations (`W`-window
//! averages, Table 1) so adaptive components can react when the workload
//! drifts.

use crate::plan::CompiledOp;
use acq_sketch::WindowStat;
use acq_stream::RelId;

/// A static snapshot of workload characteristics for an n-way join.
#[derive(Debug, Clone)]
pub struct WorkloadStats {
    /// Update-stream rate per relation (tuples per virtual second; relative
    /// scale suffices).
    pub rates: Vec<f64>,
    /// Expected window cardinality per relation.
    pub sizes: Vec<f64>,
    /// `sel[i][j]`: probability that a random `R_i` tuple joins a random
    /// `R_j` tuple (symmetric; diagonal unused/1.0).
    pub sel: Vec<Vec<f64>>,
}

impl WorkloadStats {
    /// Uniform defaults: unit rates, given window size, selectivity
    /// `1/size` (each probe matches one tuple on average).
    pub fn uniform(n: usize, window: f64) -> WorkloadStats {
        WorkloadStats {
            rates: vec![1.0; n],
            sizes: vec![window; n],
            sel: vec![vec![1.0 / window.max(1.0); n]; n],
        }
    }

    /// Number of relations.
    pub fn n(&self) -> usize {
        self.rates.len()
    }

    /// Expected matches in `R_j` for one tuple already bound on the other
    /// side of an `i–j` predicate: `sel[i][j] · |R_j|`.
    pub fn fanout(&self, i: RelId, j: RelId) -> f64 {
        self.sel[i.0 as usize][j.0 as usize] * self.sizes[j.0 as usize]
    }

    /// Set a symmetric pairwise selectivity.
    pub fn set_sel(&mut self, i: RelId, j: RelId, s: f64) {
        self.sel[i.0 as usize][j.0 as usize] = s;
        self.sel[j.0 as usize][i.0 as usize] = s;
    }

    /// Largest relative change of any field versus `other` (drives the
    /// paper's "changed beyond a certain percentage p" re-optimization
    /// trigger, §4.5c).
    pub fn max_relative_change(&self, other: &WorkloadStats) -> f64 {
        fn rel_change(a: f64, b: f64) -> f64 {
            let denom = a.abs().max(b.abs());
            if denom < 1e-12 {
                0.0
            } else {
                (a - b).abs() / denom
            }
        }
        let mut worst: f64 = 0.0;
        for i in 0..self.n() {
            worst = worst.max(rel_change(self.rates[i], other.rates[i]));
            worst = worst.max(rel_change(self.sizes[i], other.sizes[i]));
            for j in 0..self.n() {
                worst = worst.max(rel_change(self.sel[i][j], other.sel[i][j]));
            }
        }
        worst
    }
}

/// Online estimator of [`WorkloadStats`] from execution observations.
///
/// * Rates: counts of updates per relation over the observation period.
/// * Sizes: last observed window cardinalities.
/// * Selectivities: whenever a join operator with a *single identifiable
///   source predicate* runs (one predicate connecting the probing prefix to
///   the target), `matches / |target|` is one observation of that pair's
///   selectivity, folded into a `W`-window average.
#[derive(Debug)]
pub struct OnlineStats {
    n: usize,
    w: usize,
    update_counts: Vec<u64>,
    epoch_start_ns: u64,
    sizes: Vec<f64>,
    sel: Vec<Vec<WindowStat>>,
    /// Prior selectivity used until observations arrive.
    default_sel: f64,
}

impl OnlineStats {
    /// `n` relations, `w`-observation windows, `default_sel` prior.
    pub fn new(n: usize, w: usize, default_sel: f64) -> OnlineStats {
        OnlineStats {
            n,
            w,
            update_counts: vec![0; n],
            epoch_start_ns: 0,
            sizes: vec![0.0; n],
            sel: (0..n)
                .map(|_| (0..n).map(|_| WindowStat::new(w)).collect())
                .collect(),
            default_sel,
        }
    }

    /// Record one update arriving on `∆R_i`.
    pub fn record_update(&mut self, rel: RelId) {
        self.update_counts[rel.0 as usize] += 1;
    }

    /// Record the current window cardinality of a relation.
    pub fn record_size(&mut self, rel: RelId, size: usize) {
        self.sizes[rel.0 as usize] = size as f64;
    }

    /// Record one probe of `op` that found `matches` of `target_size`
    /// tuples: a selectivity sample when the operator has a single
    /// identifiable source predicate, nothing otherwise.
    pub fn record_op_probe(&mut self, op: &CompiledOp, matches: usize, target_size: usize) {
        if let Some(source) = op.single_predicate_source() {
            self.record_probe(source, op.target, matches, target_size);
        }
    }

    /// Record one identifiable probe: joining into `target` from `source`
    /// found `matches` of `target_size` tuples.
    pub fn record_probe(
        &mut self,
        source: RelId,
        target: RelId,
        matches: usize,
        target_size: usize,
    ) {
        if target_size == 0 {
            return;
        }
        let s = matches as f64 / target_size as f64;
        self.sel[source.0 as usize][target.0 as usize].push(s);
        self.sel[target.0 as usize][source.0 as usize].push(s);
    }

    /// Produce a snapshot as of virtual time `now_ns`, resetting the rate
    /// epoch.
    pub fn snapshot(&mut self, now_ns: u64) -> WorkloadStats {
        let span_s = ((now_ns.saturating_sub(self.epoch_start_ns)) as f64 / 1e9).max(1e-9);
        let rates = self
            .update_counts
            .iter()
            .map(|&c| c as f64 / span_s)
            .collect();
        self.update_counts.iter_mut().for_each(|c| *c = 0);
        self.epoch_start_ns = now_ns;
        let sel = (0..self.n)
            .map(|i| {
                (0..self.n)
                    .map(|j| self.sel[i][j].average_or(self.default_sel))
                    .collect()
            })
            .collect();
        WorkloadStats {
            rates,
            sizes: self.sizes.clone(),
            sel,
        }
    }

    /// Statistics window size `W`.
    pub fn w(&self) -> usize {
        self.w
    }

    /// Forget everything (pipeline reordering invalidates statistics).
    pub fn clear(&mut self) {
        self.update_counts.iter_mut().for_each(|c| *c = 0);
        for row in &mut self.sel {
            for s in row {
                s.clear();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_defaults() {
        let s = WorkloadStats::uniform(3, 100.0);
        assert_eq!(s.n(), 3);
        assert!((s.fanout(RelId(0), RelId(1)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fanout_uses_target_size() {
        let mut s = WorkloadStats::uniform(3, 100.0);
        s.sizes[2] = 500.0;
        s.set_sel(RelId(0), RelId(2), 0.01);
        assert!((s.fanout(RelId(0), RelId(2)) - 5.0).abs() < 1e-12);
        assert!(
            (s.fanout(RelId(2), RelId(0)) - 1.0).abs() < 1e-12,
            "asymmetric via sizes"
        );
    }

    #[test]
    fn relative_change_detects_burst() {
        let a = WorkloadStats::uniform(2, 10.0);
        let mut b = a.clone();
        assert_eq!(a.max_relative_change(&b), 0.0);
        b.rates[0] = 20.0; // 1 → 20
        let change = a.max_relative_change(&b);
        assert!(change > 0.9, "got {change}");
    }

    #[test]
    fn online_rates_from_counts() {
        let mut o = OnlineStats::new(2, 5, 0.1);
        for _ in 0..100 {
            o.record_update(RelId(0));
        }
        for _ in 0..10 {
            o.record_update(RelId(1));
        }
        let snap = o.snapshot(1_000_000_000); // 1 virtual second
        assert!((snap.rates[0] - 100.0).abs() < 1e-6);
        assert!((snap.rates[1] - 10.0).abs() < 1e-6);
        // Epoch reset: an immediate second snapshot sees zero new updates.
        let snap2 = o.snapshot(2_000_000_000);
        assert_eq!(snap2.rates[0], 0.0);
    }

    #[test]
    fn online_selectivity_window_average() {
        let mut o = OnlineStats::new(2, 3, 0.5);
        // Before observations: prior.
        let prior = o.snapshot(1);
        assert_eq!(prior.sel[0][1], 0.5);
        o.record_probe(RelId(0), RelId(1), 5, 100); // 0.05
        o.record_probe(RelId(0), RelId(1), 15, 100); // 0.15
        let snap = o.snapshot(2);
        assert!((snap.sel[0][1] - 0.10).abs() < 1e-9);
        assert!((snap.sel[1][0] - 0.10).abs() < 1e-9, "symmetric");
    }

    #[test]
    fn online_probe_on_empty_target_ignored() {
        let mut o = OnlineStats::new(2, 3, 0.5);
        o.record_probe(RelId(0), RelId(1), 0, 0);
        assert_eq!(o.snapshot(1).sel[0][1], 0.5);
    }

    #[test]
    fn clear_resets_to_prior() {
        let mut o = OnlineStats::new(2, 3, 0.25);
        o.record_probe(RelId(0), RelId(1), 99, 100);
        o.clear();
        assert_eq!(o.snapshot(1).sel[0][1], 0.25);
    }
}
