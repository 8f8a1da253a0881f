//! [`JoinCore`]: relation stores + query graph + virtual clock.
//!
//! [`JoinCore::walk`] is the one operator kernel: it runs a composite
//! through a run of join operators depth first, each operator `./_{i_j}`
//! of §3.1 joining its input with one relation, enforcing all compiled
//! predicates, via hash index when the operator has an access path and
//! nested-loop scan otherwise, and charging the virtual clock for every
//! physical step. Its one-operator case is
//! [`JoinCore::probe_join_owned`]. Plain MJoin, the XJoin baseline's leaf
//! joins, and the A-Caching engine all drive these two; they differ only
//! in *when* they call them and what state they maintain around them.

use crate::clock::{CostModel, VirtualClock};
use crate::plan::CompiledOp;
use acq_relation::Relation;
use acq_stream::{
    AttrRef, Composite, Op, QuerySchema, RelId, StoredTuple, TupleRef, Update, Value, MAX_PARTS,
};

/// Shared execution state: one [`Relation`] per joined relation, the query
/// graph, the cost model, and the virtual clock.
#[derive(Debug)]
pub struct JoinCore {
    query: QuerySchema,
    relations: Vec<Relation>,
    cost: CostModel,
    clock: VirtualClock,
    /// Index-probe matches resolved `TupleId → TupleRef` by direct slab
    /// indexing (i.e. without a second hash lookup). Telemetry:
    /// `probe.resolved_direct`.
    resolved_direct: u64,
}

impl JoinCore {
    /// Build a core for `query` with hash indexes on **every join-attribute
    /// column** (§7.1: hash indexes by default).
    pub fn new(query: QuerySchema) -> JoinCore {
        JoinCore::with_cost_model(query, CostModel::default())
    }

    /// Like [`JoinCore::new`] with an explicit cost model.
    pub fn with_cost_model(query: QuerySchema, cost: CostModel) -> JoinCore {
        let mut relations: Vec<Relation> = query
            .rel_ids()
            .map(|r| Relation::new(r, query.relation(r).arity()))
            .collect();
        for p in query.predicates() {
            for a in [p.left, p.right] {
                if !relations[a.rel.0 as usize].has_index(a.col) {
                    relations[a.rel.0 as usize].add_index(a.col);
                }
            }
        }
        JoinCore {
            query,
            relations,
            cost,
            clock: VirtualClock::new(),
            resolved_direct: 0,
        }
    }

    /// The query graph.
    pub fn query(&self) -> &QuerySchema {
        &self.query
    }

    /// Relation store accessor.
    pub fn relation(&self, r: RelId) -> &Relation {
        &self.relations[r.0 as usize]
    }

    /// Mutable relation store accessor (index management in experiments).
    pub fn relation_mut(&mut self, r: RelId) -> &mut Relation {
        &mut self.relations[r.0 as usize]
    }

    /// All relation stores.
    pub fn relations(&self) -> &[Relation] {
        &self.relations
    }

    /// The cost model in effect.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// Current virtual time (ns).
    pub fn now_ns(&self) -> u64 {
        self.clock.now_ns()
    }

    /// Current virtual time (s).
    pub fn now_secs(&self) -> f64 {
        self.clock.now_secs()
    }

    /// Index-probe matches resolved to their [`TupleRef`] by direct slab
    /// indexing rather than a second hash lookup (the whole probe path
    /// after the one hash on the key value).
    pub fn resolved_direct(&self) -> u64 {
        self.resolved_direct
    }

    /// Charge arbitrary virtual time (callers layering extra machinery —
    /// caches, profiling — charge through this).
    pub fn charge(&mut self, ns: u64) {
        self.clock.charge(ns);
    }

    /// Apply an update to its relation store, charging maintenance cost.
    ///
    /// * `Insert` mints and returns the stored tuple's reference.
    /// * `Delete` removes one instance with matching data and returns its
    ///   reference; returns `None` (and charges nothing further) if no
    ///   instance matches — a window never produces such a delete, but
    ///   defensive callers may feed arbitrary update streams.
    pub fn apply_update(&mut self, u: &Update) -> Option<TupleRef> {
        match u.op {
            Op::Insert => {
                self.clock.charge(self.cost.store_insert);
                Some(self.relations[u.rel.0 as usize].insert(&u.data))
            }
            Op::Delete => {
                self.clock.charge(self.cost.store_delete);
                self.relations[u.rel.0 as usize].delete(&u.data)
            }
        }
    }

    /// Execute one join operator: join `input` with `op.target`, appending
    /// the matching concatenations `input · t` to `out` (callers reuse
    /// buffers across calls to keep the hot path allocation-free). Returns
    /// the number of results appended.
    ///
    /// The prefix is *moved* into the output for the final qualifying match
    /// instead of cloned, so a probe with m matches touches the prefix
    /// refcounts m-1 times rather than m (and zero times for the common
    /// m = 1 case).
    pub fn probe_join_owned(
        &mut self,
        input: Composite,
        op: &CompiledOp,
        out: &mut Vec<Composite>,
    ) -> usize {
        let rel = &self.relations[op.target.0 as usize];
        let before = out.len();
        match op.index_access {
            Some((col, probe_attr)) => {
                let matches;
                {
                    let mut input = Some(input);
                    let mut it = {
                        let v = input
                            .as_ref()
                            .unwrap()
                            .get(probe_attr)
                            .expect("probe attribute must be bound in the prefix");
                        if v.is_null() {
                            // Equijoin: NULL matches nothing; still pay the probe.
                            self.clock.charge(self.cost.index_probe);
                            return 0;
                        }
                        // `probe` captures only the relation borrow, so `v`'s
                        // borrow of `input` ends with this block.
                        rel.probe(col, v).peekable()
                    };
                    let mut n = 0usize;
                    while let Some(t) = it.next() {
                        n += 1;
                        let prefix = input.as_ref().unwrap();
                        if !residuals_hold(|a| prefix.get(a), t, &op.residual) {
                            continue;
                        }
                        if it.peek().is_none() {
                            let mut c = input.take().unwrap();
                            c.push(t.clone());
                            out.push(c);
                        } else {
                            out.push(input.as_ref().unwrap().extend_with(t.clone()));
                        }
                    }
                    matches = n;
                }
                self.resolved_direct += matches as u64;
                let produced = out.len() - before;
                self.clock.charge(
                    self.cost.indexed_join(matches, op.residual.len())
                        + produced as u64 * self.cost.concat,
                );
                produced
            }
            None => {
                let scanned = rel.len();
                for t in rel.scan() {
                    if residuals_hold(|a| input.get(a), t, &op.residual) {
                        out.push(input.extend_with(t.clone()));
                    }
                }
                let produced = out.len() - before;
                self.clock.charge(
                    self.cost.scan_join(scanned, op.residual.len())
                        + produced as u64 * self.cost.concat,
                );
                produced
            }
        }
    }

    /// Run `seed` through a run of operators depth first, appending every
    /// composite that survives the last one to `out`.
    ///
    /// Below the seed, the prefix is a stack of tuples borrowed from the
    /// relation stores: a partial match that dies at a later operator never
    /// becomes a [`Composite`]. At the last operator the prefix is built
    /// once, on its first match that passes the residuals, and moved into
    /// its last such match as [`probe_join_owned`](Self::probe_join_owned)
    /// does; a one-operator walk is exactly `probe_join_owned`.
    ///
    /// The result equals chaining `probe_join_owned` breadth first over
    /// `ops`: the same output sequence (depth-first leaves come out in
    /// breadth-first order), the same virtual ns per operator, and the same
    /// [`resolved_direct`](Self::resolved_direct) count.
    ///
    /// `tally[j]` (at least `ops.len()` entries) gains `(prefixes that
    /// entered ops[j], virtual ns charged to ops[j])`. `on_probe(j, produced,
    /// target_size)` fires once per prefix entering `ops[j]` with its
    /// qualifying match count and the size of `ops[j]`'s target relation;
    /// for a fixed `j` the calls come in breadth-first order.
    pub fn walk(
        &mut self,
        seed: Composite,
        ops: &[CompiledOp],
        tally: &mut [(u64, u64)],
        out: &mut Vec<Composite>,
        mut on_probe: impl FnMut(usize, usize, usize),
    ) {
        let Some((last, inner)) = ops.split_last() else {
            out.push(seed);
            return;
        };
        if inner.is_empty() {
            let t0 = self.clock.now_ns();
            let produced = self.probe_join_owned(seed, last, out);
            tally[0].0 += 1;
            tally[0].1 += self.clock.now_ns() - t0;
            on_probe(0, produced, self.relations[last.target.0 as usize].len());
            return;
        }
        assert!(
            seed.len() + ops.len() <= MAX_PARTS,
            "composite part overflow"
        );
        let mut rels = [RelId(0); MAX_PARTS];
        let mut prefix = [None; MAX_PARTS];
        for ((rel, slot), t) in rels.iter_mut().zip(prefix.iter_mut()).zip(seed.parts()) {
            *rel = t.rel;
            *slot = Some(&**t);
        }
        for (rel, op) in rels[seed.len()..].iter_mut().zip(ops) {
            *rel = op.target;
        }
        let mut walk = Walk {
            relations: &self.relations,
            cost: &self.cost,
            ops,
            seed: &seed,
            rels,
            prefix,
            matched: [None; MAX_PARTS],
            tally,
            out,
            on_probe,
            resolved: 0,
            ns: 0,
        };
        walk.descend(0);
        let (resolved, ns) = (walk.resolved, walk.ns);
        self.resolved_direct += resolved;
        self.clock.charge(ns);
    }

    /// Charge the per-result output cost for `count` emitted deltas.
    pub fn charge_outputs(&mut self, count: usize) {
        self.clock.charge(count as u64 * self.cost.emit_output);
    }
}

/// One [`JoinCore::walk`] in progress: the borrowed prefix and the
/// per-operator accounting, charged to the clock when the walk ends.
struct Walk<'a, F> {
    relations: &'a [Relation],
    cost: &'a CostModel,
    ops: &'a [CompiledOp],
    seed: &'a Composite,
    /// Relation of each prefix part: the seed's, then the targets of `ops`.
    rels: [RelId; MAX_PARTS],
    /// The seed's parts, then the tuples `ops[..j]` matched on the current
    /// path. Held as `&StoredTuple`, not `&TupleRef`: residual checks read
    /// through one pointer fewer, which measured ~13% faster on chain3's
    /// scan-heavy walks.
    prefix: [Option<&'a StoredTuple>; MAX_PARTS],
    /// `matched[..j]`: the tuples `ops[..j]` matched, as shared references.
    matched: [Option<&'a TupleRef>; MAX_PARTS],
    tally: &'a mut [(u64, u64)],
    out: &'a mut Vec<Composite>,
    on_probe: F,
    resolved: u64,
    ns: u64,
}

impl<'a, F: FnMut(usize, usize, usize)> Walk<'a, F> {
    /// Attribute `a` of the prefix entering `ops[depth]`.
    #[inline]
    fn get(&self, a: AttrRef, depth: usize) -> Option<&'a Value> {
        let i = self.rels[..self.seed.len() + depth]
            .iter()
            .position(|&r| r == a.rel)?;
        self.prefix[i].map(|t| t.data.get(a.col.0))
    }

    /// Probe `ops[j]` with the current prefix; charge it as
    /// [`JoinCore::probe_join_owned`] would.
    fn descend(&mut self, j: usize) {
        let op: &'a CompiledOp = &self.ops[j];
        let rel: &'a Relation = &self.relations[op.target.0 as usize];
        self.tally[j].0 += 1;
        let (ns, produced) = match op.index_access {
            Some((col, probe_attr)) => {
                let v = self
                    .get(probe_attr, j)
                    .expect("probe attribute must be bound in the prefix");
                if v.is_null() {
                    // Equijoin: NULL matches nothing; still pay the probe.
                    (self.cost.index_probe, 0)
                } else {
                    let (matches, produced) = self.visit(j, rel.probe(col, v));
                    self.resolved += matches as u64;
                    (
                        self.cost.indexed_join(matches, op.residual.len())
                            + produced as u64 * self.cost.concat,
                        produced,
                    )
                }
            }
            None => {
                let (_, produced) = self.visit(j, rel.scan());
                (
                    self.cost.scan_join(rel.len(), op.residual.len())
                        + produced as u64 * self.cost.concat,
                    produced,
                )
            }
        };
        self.tally[j].1 += ns;
        self.ns += ns;
        (self.on_probe)(j, produced, rel.len());
    }

    /// Follow every candidate of `ops[j]` that passes the residuals;
    /// returns `(candidates, passed)`.
    fn visit(
        &mut self,
        j: usize,
        candidates: impl Iterator<Item = &'a TupleRef>,
    ) -> (usize, usize) {
        let residual = &self.ops[j].residual;
        let (mut matches, mut produced) = (0, 0);
        if j + 1 < self.ops.len() {
            for t in candidates {
                matches += 1;
                if residuals_hold(|a| self.get(a, j), t, residual) {
                    produced += 1;
                    self.prefix[self.seed.len() + j] = Some(&**t);
                    self.matched[j] = Some(t);
                    self.descend(j + 1);
                }
            }
            return (matches, produced);
        }
        let mut prefix: Option<Composite> = None;
        let mut candidates = candidates.peekable();
        while let Some(t) = candidates.next() {
            matches += 1;
            if !residuals_hold(|a| self.get(a, j), t, residual) {
                continue;
            }
            produced += 1;
            // Built as `probe_join_owned` builds them: moving each output
            // out of an `Option` instead cost ~10% on d6's fan-out.
            let p = prefix.get_or_insert_with(|| self.materialize(j));
            if candidates.peek().is_some() {
                self.out.push(p.extend_with(t.clone()));
            } else {
                let mut c = prefix.take().expect("prefix built above");
                c.push(t.clone());
                self.out.push(c);
            }
        }
        (matches, produced)
    }

    /// The prefix entering `ops[depth]` as an owned composite.
    fn materialize(&self, depth: usize) -> Composite {
        let mut c = self.seed.clone();
        for t in self.matched[..depth].iter().flatten() {
            c.push(TupleRef::clone(t));
        }
        c
    }
}

/// Evaluate residual predicates `(target attr, prefix attr)` between a
/// candidate target tuple and the bound prefix, read through `prefix`.
#[inline]
fn residuals_hold<'v>(
    prefix: impl Fn(AttrRef) -> Option<&'v Value>,
    candidate: &TupleRef,
    residual: &[(AttrRef, AttrRef)],
) -> bool {
    // Single-predicate equijoins (the overwhelmingly common compiled shape)
    // carry no residuals; skip the iterator machinery outright.
    if residual.is_empty() {
        return true;
    }
    residual.iter().all(|(t_attr, p_attr)| {
        let tv = candidate.data.get(t_attr.col.0);
        match prefix(*p_attr) {
            Some(pv) => tv.join_eq(pv),
            None => false,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{CompiledOp, PipelineOrder};
    use acq_stream::{QuerySchema, TupleData};

    fn chain3_core() -> JoinCore {
        JoinCore::new(QuerySchema::chain3())
    }

    fn ins(core: &mut JoinCore, rel: u16, vals: &[i64]) -> TupleRef {
        core.apply_update(&Update::insert(RelId(rel), TupleData::ints(vals), 0))
            .unwrap()
    }

    /// Every n-way result of `seed` through the whole pipeline `ops`.
    fn walk_all(core: &mut JoinCore, seed: Composite, ops: &[CompiledOp]) -> Vec<Composite> {
        let mut out = Vec::new();
        let mut tally = [(0, 0); MAX_PARTS];
        core.walk(seed, ops, &mut tally, &mut out, |_, _, _| {});
        out
    }

    #[test]
    fn indexes_created_on_join_columns() {
        let core = chain3_core();
        assert!(core.relation(RelId(0)).has_index(acq_stream::ColId(0))); // R.A
        assert!(core.relation(RelId(1)).has_index(acq_stream::ColId(0))); // S.A
        assert!(core.relation(RelId(1)).has_index(acq_stream::ColId(1))); // S.B
        assert!(core.relation(RelId(2)).has_index(acq_stream::ColId(0))); // T.B
    }

    #[test]
    fn paper_example_3_1() {
        // Figure 2(b): R1 = {0,2}, R2 = {(1,2),(1,3),(3,4)}, R3 = {2,6};
        // insertion ⟨1⟩ on ∆R1 produces ⟨1,1,2,2⟩ only.
        let mut core = chain3_core();
        ins(&mut core, 0, &[0]);
        ins(&mut core, 0, &[2]);
        ins(&mut core, 1, &[1, 2]);
        ins(&mut core, 1, &[1, 3]);
        ins(&mut core, 1, &[3, 4]);
        ins(&mut core, 2, &[2]);
        ins(&mut core, 2, &[6]);

        let r_new = ins(&mut core, 0, &[1]);
        let order = PipelineOrder {
            stream: RelId(0),
            order: vec![RelId(1), RelId(2)],
        };
        let ops = CompiledOp::compile_pipeline(core.query(), core.relations(), &order);
        let results = walk_all(&mut core, Composite::unit(r_new), &ops);
        assert_eq!(results.len(), 1);
        let r = &results[0];
        assert_eq!(
            r.get(acq_stream::AttrRef::new(0, 0)).unwrap().as_int(),
            Some(1)
        );
        assert_eq!(
            r.get(acq_stream::AttrRef::new(1, 1)).unwrap().as_int(),
            Some(2)
        );
        assert_eq!(
            r.get(acq_stream::AttrRef::new(2, 0)).unwrap().as_int(),
            Some(2)
        );
    }

    #[test]
    fn intermediate_fanout() {
        // The first operator in Example 3.1 produces two intermediate tuples.
        let mut core = chain3_core();
        ins(&mut core, 1, &[1, 2]);
        ins(&mut core, 1, &[1, 3]);
        let r_new = ins(&mut core, 0, &[1]);
        let op = CompiledOp::compile(core.query(), core.relations(), &[RelId(0)], RelId(1));
        let mut out = Vec::new();
        let n = core.probe_join_owned(Composite::unit(r_new), &op, &mut out);
        assert_eq!(n, 2);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn probe_charges_clock() {
        let mut core = chain3_core();
        ins(&mut core, 1, &[1, 2]);
        let before = core.now_ns();
        let r_new = ins(&mut core, 0, &[1]);
        let op = CompiledOp::compile(core.query(), core.relations(), &[RelId(0)], RelId(1));
        let mut out = Vec::new();
        core.probe_join_owned(Composite::unit(r_new), &op, &mut out);
        let cost = core.now_ns() - before;
        let m = core.cost_model();
        assert_eq!(cost, m.store_insert + m.indexed_join(1, 0) + m.concat);
    }

    #[test]
    fn scan_join_without_index() {
        let mut core = chain3_core();
        core.relation_mut(RelId(1)).drop_index(acq_stream::ColId(0));
        ins(&mut core, 1, &[1, 2]);
        ins(&mut core, 1, &[2, 3]);
        ins(&mut core, 1, &[1, 4]);
        let r_new = ins(&mut core, 0, &[1]);
        let op = CompiledOp::compile(core.query(), core.relations(), &[RelId(0)], RelId(1));
        assert!(op.index_access.is_none());
        let mut out = Vec::new();
        let n = core.probe_join_owned(Composite::unit(r_new), &op, &mut out);
        assert_eq!(n, 2, "two S tuples with A=1");
    }

    #[test]
    fn null_probe_matches_nothing() {
        let mut core = chain3_core();
        core.apply_update(&Update::insert(
            RelId(1),
            TupleData::new(vec![acq_stream::Value::Null, acq_stream::Value::Int(1)]),
            0,
        ));
        let r_new = core
            .apply_update(&Update::insert(
                RelId(0),
                TupleData::new(vec![acq_stream::Value::Null]),
                0,
            ))
            .unwrap();
        let op = CompiledOp::compile(core.query(), core.relations(), &[RelId(0)], RelId(1));
        let mut out = Vec::new();
        let n = core.probe_join_owned(Composite::unit(r_new), &op, &mut out);
        assert_eq!(n, 0, "NULL = NULL must not join");
    }

    #[test]
    fn delete_of_absent_tuple_is_noop() {
        let mut core = chain3_core();
        let removed = core.apply_update(&Update::delete(RelId(0), TupleData::ints(&[9]), 0));
        assert!(removed.is_none());
        assert_eq!(core.relation(RelId(0)).len(), 0);
    }

    #[test]
    fn walk_empty_frontier_short_circuits() {
        let mut core = chain3_core();
        // Empty S: pipeline dies at the first operator.
        let r_new = ins(&mut core, 0, &[1]);
        let order = PipelineOrder {
            stream: RelId(0),
            order: vec![RelId(1), RelId(2)],
        };
        let ops = CompiledOp::compile_pipeline(core.query(), core.relations(), &order);
        let results = walk_all(&mut core, Composite::unit(r_new), &ops);
        assert!(results.is_empty());
    }
}
