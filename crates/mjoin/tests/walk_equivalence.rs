//! Property test: [`JoinCore::walk`] is chained
//! [`JoinCore::probe_join_owned`] in another order. On random relations,
//! plans and index sets it must produce the same output sequence, charge
//! the same virtual ns (in total and per operator), count the same
//! `(prefixes in, ns)` per operator, report the same per-probe match counts
//! in the same order for each operator, and resolve the same number of
//! index matches directly.
//!
//! The shapes cover index probes and nested-loop scans (indexes are dropped
//! at random), residual predicates (star cliques, scans), cross products
//! (chain orders that join T before S), NULL probe values, a 4-way chain
//! whose joins each read a different column, and a 9-way star whose
//! composites spill past the inline part slots.

use acq_mjoin::exec::JoinCore;
use acq_mjoin::plan::{CompiledOp, PipelineOrder};
use acq_stream::{
    AttrRef, ColId, Composite, JoinPredicate, QuerySchema, RelId, RelationSchema, TupleData,
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
    /// `(operator, qualifying matches)` per probe, grouped by operator.
    probes: Vec<(usize, usize)>,
    resolved: u64,
}

fn by_walk(core: &mut JoinCore, seed: Composite, ops: &[CompiledOp]) -> Trace {
    let (t0, r0) = (core.now_ns(), core.resolved_direct());
    let mut tally = [(0, 0); MAX_PARTS];
    let mut out = Vec::new();
    let mut probes = Vec::new();
    core.walk(seed, ops, &mut tally, &mut out, |j, produced| {
        probes.push((j, produced))
    });
    // Stable: keeps each operator's calls in the order they came.
    probes.sort_by_key(|&(j, _)| j);
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
            probes.push((j, produced));
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
