//! Property tests: [`JoinCore::walk`] is chained
//! [`JoinCore::probe_join_owned`] in another order. On random relations,
//! plans and index sets it must produce the same output sequence, charge
//! the same virtual ns (in total and per operator), count the same
//! `(prefixes in, ns)` per operator, report the same per-probe match counts
//! and target sizes in the same order for each operator, and resolve the
//! same number of index matches directly.
//!
//! [`MJoin::process`], one walk per update, must likewise equal a
//! breadth-first update path built from chained `probe_join_owned` on
//! random update streams: the same deltas, virtual clock, operator
//! statistics and selectivity samples after every update.
//!
//! The shapes cover index probes and nested-loop scans (indexes are dropped
//! at random), residual predicates (star cliques, scans), cross products
//! (chain orders that join T before S), NULL probe values, a 4-way chain
//! whose joins each read a different column, and a 9-way star whose
//! composites spill past the inline part slots.

use acq_mjoin::exec::JoinCore;
use acq_mjoin::plan::{CompiledOp, PipelineOrder, PlanOrders};
use acq_mjoin::stats::OnlineStats;
use acq_mjoin::{MJoin, OpStats};
use acq_stream::{
    AttrRef, ColId, Composite, JoinPredicate, Op, QuerySchema, RelId, RelationSchema, TupleData,
    Update, Value, MAX_PARTS,
};
use proptest::prelude::*;

/// Deterministic xorshift64 stream driving one case's data and plan.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % n
    }
}

/// The 4-way chain `R(A) ⋈ S(A,B) ⋈ T(B,C) ⋈ U(C)`: every join reads a
/// different column, so a prefix lookup that picks the wrong part shows.
fn chain4() -> QuerySchema {
    QuerySchema::new(
        vec![
            RelationSchema::new("R", &["A"]),
            RelationSchema::new("S", &["A", "B"]),
            RelationSchema::new("T", &["B", "C"]),
            RelationSchema::new("U", &["C"]),
        ],
        vec![
            JoinPredicate::new(AttrRef::new(0, 0), AttrRef::new(1, 0)),
            JoinPredicate::new(AttrRef::new(1, 1), AttrRef::new(2, 0)),
            JoinPredicate::new(AttrRef::new(2, 1), AttrRef::new(3, 0)),
        ],
    )
}

/// A random value: NULL one time in six, else an integer below `domain`.
fn value(rng: &mut Rng, domain: u64) -> Value {
    match rng.below(6) {
        0 => Value::Null,
        v => Value::Int((v % domain) as i64),
    }
}

/// A core over `query` holding `rows` random tuples per relation, with
/// about a third of its indexes dropped, and a random pipeline order for a
/// random stream plus that stream's update tuple.
fn random_case(
    query: QuerySchema,
    rows: (u64, u64),
    domain: u64,
    rng: &mut Rng,
) -> (JoinCore, Vec<CompiledOp>, Composite) {
    let n = query.num_relations();
    let mut core = JoinCore::new(query);
    for r in 0..n as u16 {
        let arity = core.query().relation(RelId(r)).arity();
        for _ in 0..rows.0 + rng.below(rows.1 - rows.0 + 1) {
            let data = (0..arity).map(|_| value(rng, domain)).collect();
            core.apply_update(&Update::insert(RelId(r), TupleData::new(data), 0));
        }
        for c in 0..arity as u16 {
            if core.relation(RelId(r)).has_index(ColId(c)) && rng.below(3) == 0 {
                core.relation_mut(RelId(r)).drop_index(ColId(c));
            }
        }
    }
    let stream = RelId(rng.below(n as u64) as u16);
    let mut order: Vec<RelId> = (0..n as u16).map(RelId).filter(|&r| r != stream).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let ops = CompiledOp::compile_pipeline(
        core.query(),
        core.relations(),
        &PipelineOrder { stream, order },
    );
    let arity = core.query().relation(stream).arity();
    let data = (0..arity).map(|_| value(rng, domain)).collect();
    let seed = core
        .apply_update(&Update::insert(stream, TupleData::new(data), 1))
        .expect("insert always stores");
    (core, ops, Composite::unit(seed))
}

/// What one run through a run of operators observed.
#[derive(Debug, PartialEq)]
struct Trace {
    out: Vec<Composite>,
    ns: u64,
    tally: Vec<(u64, u64)>,
    /// `(operator, qualifying matches, target size)` per probe, grouped by
    /// operator.
    probes: Vec<(usize, usize, usize)>,
    resolved: u64,
}

fn by_walk(core: &mut JoinCore, seed: Composite, ops: &[CompiledOp]) -> Trace {
    let (t0, r0) = (core.now_ns(), core.resolved_direct());
    let mut tally = [(0, 0); MAX_PARTS];
    let mut out = Vec::new();
    let mut probes = Vec::new();
    core.walk(seed, ops, &mut tally, &mut out, |j, produced, size| {
        probes.push((j, produced, size))
    });
    // Stable: keeps each operator's calls in the order they came.
    probes.sort_by_key(|&(j, _, _)| j);
    Trace {
        out,
        ns: core.now_ns() - t0,
        tally: tally[..ops.len()].to_vec(),
        probes,
        resolved: core.resolved_direct() - r0,
    }
}

fn by_chained_probes(core: &mut JoinCore, seed: Composite, ops: &[CompiledOp]) -> Trace {
    let (t0, r0) = (core.now_ns(), core.resolved_direct());
    let mut frontier = vec![seed];
    let mut tally = Vec::new();
    let mut probes = Vec::new();
    for (j, op) in ops.iter().enumerate() {
        let start = core.now_ns();
        let tuples_in = frontier.len() as u64;
        let mut next = Vec::new();
        for c in frontier.drain(..) {
            let produced = core.probe_join_owned(c, op, &mut next);
            probes.push((j, produced, core.relation(op.target).len()));
        }
        tally.push((tuples_in, core.now_ns() - start));
        frontier = next;
    }
    Trace {
        out: frontier,
        ns: core.now_ns() - t0,
        tally,
        probes,
        resolved: core.resolved_direct() - r0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 1200, ..ProptestConfig::default() })]

    #[test]
    fn walk_equals_chained_probe_join_owned(
        shape in 0usize..4,
        case_seed in 1u64..u64::MAX,
        split in 0usize..16,
        len in 0usize..16,
    ) {
        // The 9-way star joins on one value so that its walks run deep.
        let (query, rows, domain) = match shape {
            0 => (QuerySchema::chain3(), (0, 8), 2),
            1 => (QuerySchema::star(4), (0, 6), 2),
            2 => (chain4(), (0, 6), 2),
            _ => (QuerySchema::star(9), (1, 2), 1),
        };
        let mut rng = Rng(case_seed);
        let (mut core, ops, seed) = random_case(query, rows, domain, &mut rng);
        // Seeds are the stream tuple and, for a walk starting mid-pipeline,
        // every composite the first `split` operators produce.
        let split = split % (ops.len() + 1);
        let end = (split + len).min(ops.len());
        let seeds = by_chained_probes(&mut core, seed, &ops[..split]).out;
        for s in seeds {
            let walked = by_walk(&mut core, s.clone(), &ops[split..end]);
            let chained = by_chained_probes(&mut core, s, &ops[split..end]);
            prop_assert_eq!(walked, chained);
        }
    }
}

/// A random update pipeline order for every stream.
fn random_orders(query: &QuerySchema, rng: &mut Rng) -> PlanOrders {
    let n = query.num_relations() as u16;
    PlanOrders::new(
        (0..n)
            .map(|stream| {
                let mut order: Vec<RelId> = (0..n).filter(|&r| r != stream).map(RelId).collect();
                for i in (1..order.len()).rev() {
                    order.swap(i, rng.below(i as u64 + 1) as usize);
                }
                PipelineOrder {
                    stream: RelId(stream),
                    order,
                }
            })
            .collect(),
    )
}

/// The breadth-first MJoin update path: per operator, every composite of
/// the frontier goes through `probe_join_owned`, sampling selectivity per
/// probe and recording the operator's statistics once the frontier has
/// passed it.
struct BreadthFirstMJoin {
    core: JoinCore,
    compiled: Vec<Vec<CompiledOp>>,
    stats: Vec<Vec<OpStats>>,
    /// Built as [`MJoin`] builds its collector.
    online: OnlineStats,
}

impl BreadthFirstMJoin {
    fn new(core: JoinCore, orders: &PlanOrders) -> BreadthFirstMJoin {
        let compiled: Vec<Vec<CompiledOp>> = orders
            .pipelines
            .iter()
            .map(|p| CompiledOp::compile_pipeline(core.query(), core.relations(), p))
            .collect();
        let n = core.query().num_relations();
        BreadthFirstMJoin {
            stats: compiled
                .iter()
                .map(|ops| vec![OpStats::default(); ops.len()])
                .collect(),
            compiled,
            online: OnlineStats::new(n, 10, 0.01),
            core,
        }
    }

    fn process(&mut self, u: &Update) -> Vec<(Op, Composite)> {
        self.online.record_update(u.rel);
        let Some(tref) = self.core.apply_update(u) else {
            return Vec::new();
        };
        self.online
            .record_size(u.rel, self.core.relation(u.rel).len());
        let pipeline = u.rel.0 as usize;
        let mut frontier = vec![Composite::unit(tref)];
        for (j, op) in self.compiled[pipeline].iter().enumerate() {
            if frontier.is_empty() {
                break;
            }
            let (t0, tuples_in) = (self.core.now_ns(), frontier.len() as u64);
            let mut next = Vec::new();
            for c in frontier.drain(..) {
                let produced = self.core.probe_join_owned(c, op, &mut next);
                if let Some(source) = op.single_predicate_source() {
                    let size = self.core.relation(op.target).len();
                    self.online.record_probe(source, op.target, produced, size);
                }
            }
            let ns = self.core.now_ns() - t0;
            self.stats[pipeline][j].record(tuples_in, next.len() as u64, ns);
            frontier = next;
        }
        self.core.charge_outputs(frontier.len());
        frontier.into_iter().map(|c| (u.op, c)).collect()
    }
}

/// Per-operator statistics as comparable rows.
fn stat_rows(stats: &[OpStats]) -> Vec<(u64, u64, u64)> {
    stats
        .iter()
        .map(|s| (s.tuples_in, s.tuples_out, s.cost_ns))
        .collect()
}

/// A random update: usually an insert of a fresh random tuple, otherwise
/// a delete of a live tuple, or of one that was never inserted.
fn random_update(query: &QuerySchema, live: &mut Vec<Update>, rng: &mut Rng, ts: u64) -> Update {
    match rng.below(5) {
        0 | 1 if !live.is_empty() => {
            let i = rng.below(live.len() as u64) as usize;
            let gone = live.swap_remove(i);
            Update::delete(gone.rel, gone.data, ts)
        }
        2 if rng.below(4) == 0 => Update::delete(RelId(0), TupleData::ints(&[99]), ts),
        _ => {
            let rel = RelId(rng.below(query.num_relations() as u64) as u16);
            let arity = query.relation(rel).arity();
            let data = TupleData::new((0..arity).map(|_| value(rng, 3)).collect());
            let u = Update::insert(rel, data, ts);
            live.push(u.clone());
            u
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 300, ..ProptestConfig::default() })]

    #[test]
    fn mjoin_process_equals_breadth_first_probe_join_owned(
        shape in 0usize..3,
        case_seed in 1u64..u64::MAX,
        steps in 1usize..60,
    ) {
        let query = match shape {
            0 => QuerySchema::chain3(),
            1 => chain4(),
            _ => QuerySchema::star(4),
        };
        let mut rng = Rng(case_seed);
        // Both executors get the same index set, about a third dropped.
        let mut cores = [JoinCore::new(query.clone()), JoinCore::new(query.clone())];
        for r in 0..query.num_relations() as u16 {
            for c in 0..query.relation(RelId(r)).arity() as u16 {
                if cores[0].relation(RelId(r)).has_index(ColId(c)) && rng.below(3) == 0 {
                    for core in &mut cores {
                        core.relation_mut(RelId(r)).drop_index(ColId(c));
                    }
                }
            }
        }
        let orders = random_orders(&query, &mut rng);
        let [core, reference_core] = cores;
        let mut mjoin = MJoin::from_core(core, orders.clone());
        let mut reference = BreadthFirstMJoin::new(reference_core, &orders);
        let mut live = Vec::new();
        for ts in 0..steps as u64 {
            let u = random_update(&query, &mut live, &mut rng, ts);
            prop_assert_eq!(mjoin.process(&u), reference.process(&u));
            prop_assert_eq!(mjoin.core().now_ns(), reference.core.now_ns());
            prop_assert_eq!(
                mjoin.core().resolved_direct(),
                reference.core.resolved_direct()
            );
            for r in 0..query.num_relations() {
                prop_assert_eq!(
                    stat_rows(mjoin.op_stats(RelId(r as u16))),
                    stat_rows(&reference.stats[r])
                );
            }
            // The Debug form lists every selectivity window's samples in
            // the order they arrived.
            prop_assert_eq!(
                format!("{:?}", mjoin.online_stats_mut()),
                format!("{:?}", reference.online)
            );
        }
    }
}
