//! Pipeline orders and compiled join operators.
//!
//! §3.1: an MJoin for `R_1 ⋈ … ⋈ R_n` has `n` pipelines; `∆R_i`'s pipeline is
//! `./_{i_1}, …, ./_{i_{n−1}}` where `./_{i_j}` joins its input with relation
//! `R_{i_j}`, *"enforcing all join predicates between `R_{i_j}` and
//! `R_i, R_{i_1}, …, R_{i_{j−1}}`, using indexes on `R_{i_j}` whenever
//! applicable."*
//!
//! [`PipelineOrder`] is the join order of one pipeline; [`PlanOrders`] the
//! full plan. [`CompiledOp`] is one `./_{i_j}` resolved against the query
//! graph and current index availability: at most one index access plus
//! residual predicates.

use acq_relation::Relation;
use acq_stream::{AttrRef, ColId, QuerySchema, RelId};

/// The join order of one pipeline: `stream`'s updates joined with `order[0]`,
/// then `order[1]`, ….
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineOrder {
    /// The update stream this pipeline processes (`∆R_i`).
    pub stream: RelId,
    /// The other `n − 1` relations, in join order (`R_{i_1}, …, R_{i_{n−1}}`).
    pub order: Vec<RelId>,
}

impl PipelineOrder {
    /// Relations joined before position `j` (the paper's
    /// `{R_i, R_{i_1}, …, R_{i_{j−1}}}`): the stream itself plus the first
    /// `j` entries of the order.
    pub fn prefix_rels(&self, j: usize) -> Vec<RelId> {
        let mut v = Vec::with_capacity(j + 1);
        v.push(self.stream);
        v.extend_from_slice(&self.order[..j]);
        v
    }

    /// Validate against the query: `order` must be a permutation of all
    /// relations except `stream`.
    pub fn validate(&self, query: &QuerySchema) -> Result<(), String> {
        let n = query.num_relations();
        if self.order.len() != n - 1 {
            return Err(format!(
                "pipeline for R{} has {} operators, expected {}",
                self.stream.0,
                self.order.len(),
                n - 1
            ));
        }
        let mut seen = vec![false; n];
        seen[self.stream.0 as usize] = true;
        for r in &self.order {
            let idx = r.0 as usize;
            if idx >= n {
                return Err(format!("pipeline references unknown relation R{}", r.0));
            }
            if seen[idx] {
                return Err(format!("relation R{} appears twice", r.0));
            }
            seen[idx] = true;
        }
        Ok(())
    }
}

/// A complete MJoin plan: one pipeline order per stream, indexed by
/// relation id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanOrders {
    /// `pipelines[i]` is the order for `∆R_i`.
    pub pipelines: Vec<PipelineOrder>,
}

impl PlanOrders {
    /// The identity plan: each pipeline joins the remaining relations in
    /// relation-id order.
    pub fn identity(query: &QuerySchema) -> PlanOrders {
        let n = query.num_relations() as u16;
        PlanOrders {
            pipelines: (0..n)
                .map(|i| PipelineOrder {
                    stream: RelId(i),
                    order: (0..n).filter(|&j| j != i).map(RelId).collect(),
                })
                .collect(),
        }
    }

    /// Build from explicit orders (must cover every stream exactly once, in
    /// relation-id order).
    pub fn new(pipelines: Vec<PipelineOrder>) -> PlanOrders {
        for (i, p) in pipelines.iter().enumerate() {
            assert_eq!(
                p.stream.0 as usize, i,
                "pipelines must be listed in relation-id order"
            );
        }
        PlanOrders { pipelines }
    }

    /// Validate every pipeline.
    pub fn validate(&self, query: &QuerySchema) -> Result<(), String> {
        if self.pipelines.len() != query.num_relations() {
            return Err(format!(
                "{} pipelines for {} relations",
                self.pipelines.len(),
                query.num_relations()
            ));
        }
        for p in &self.pipelines {
            p.validate(query)?;
        }
        Ok(())
    }

    /// The pipeline for stream `r`.
    pub fn pipeline(&self, r: RelId) -> &PipelineOrder {
        &self.pipelines[r.0 as usize]
    }
}

/// One join operator `./_{i_j}` compiled against the query graph and current
/// index availability.
#[derive(Debug, Clone)]
pub struct CompiledOp {
    /// The relation this operator joins with (`R_{i_j}`).
    pub target: RelId,
    /// Index access path: `(indexed column on target, prefix attribute whose
    /// value probes it)`. `None` forces a nested-loop scan.
    pub index_access: Option<(ColId, AttrRef)>,
    /// Residual equality predicates as `(target attribute, prefix attribute)`
    /// pairs, evaluated on every candidate match.
    pub residual: Vec<(AttrRef, AttrRef)>,
}

impl CompiledOp {
    /// Compile the operator joining `target` after `prefix_rels` have been
    /// joined. Picks the first applicable predicate with an index on the
    /// target side as the access path; everything else becomes residual.
    ///
    /// An operator with *no* predicate against the prefix is a cross product
    /// (legal but expensive — the orderer avoids it when the join graph is
    /// connected); it compiles to a scan with no residuals.
    pub fn compile(
        query: &QuerySchema,
        relations: &[Relation],
        prefix_rels: &[RelId],
        target: RelId,
    ) -> CompiledOp {
        let mut index_access = None;
        let mut residual = Vec::new();
        for p in query.predicates_between(&[target], prefix_rels) {
            let (t_attr, p_attr) = p
                .oriented(target)
                .expect("predicates_between guarantees one side on target");
            if index_access.is_none() && relations[target.0 as usize].has_index(t_attr.col) {
                index_access = Some((t_attr.col, p_attr));
            } else {
                residual.push((t_attr, p_attr));
            }
        }
        CompiledOp {
            target,
            index_access,
            residual,
        }
    }

    /// The prefix relation this operator joins on when it evaluates exactly
    /// one predicate: its probes sample that pair's join selectivity.
    pub fn single_predicate_source(&self) -> Option<RelId> {
        match (self.index_access, self.residual.as_slice()) {
            (Some((_, p)), []) | (None, &[(_, p)]) => Some(p.rel),
            _ => None,
        }
    }

    /// Compile a whole pipeline.
    pub fn compile_pipeline(
        query: &QuerySchema,
        relations: &[Relation],
        order: &PipelineOrder,
    ) -> Vec<CompiledOp> {
        (0..order.order.len())
            .map(|j| {
                let prefix = order.prefix_rels(j);
                CompiledOp::compile(query, relations, &prefix, order.order[j])
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acq_stream::QuerySchema;

    fn chain3_relations(indexed: bool) -> Vec<Relation> {
        let q = QuerySchema::chain3();
        (0..3u16)
            .map(|i| {
                let mut r = Relation::new(RelId(i), q.relation(RelId(i)).arity());
                if indexed {
                    for c in 0..q.relation(RelId(i)).arity() as u16 {
                        r.add_index(ColId(c));
                    }
                }
                r
            })
            .collect()
    }

    #[test]
    fn identity_plan_valid() {
        let q = QuerySchema::star(5);
        let plan = PlanOrders::identity(&q);
        plan.validate(&q).unwrap();
        assert_eq!(plan.pipeline(RelId(2)).order.len(), 4);
        assert!(!plan.pipeline(RelId(2)).order.contains(&RelId(2)));
    }

    #[test]
    fn prefix_rels_includes_stream() {
        let q = QuerySchema::chain3();
        let plan = PlanOrders::identity(&q);
        let p = plan.pipeline(RelId(1));
        assert_eq!(p.prefix_rels(0), vec![RelId(1)]);
        assert_eq!(p.prefix_rels(1), vec![RelId(1), RelId(0)]);
    }

    #[test]
    fn validation_catches_duplicates_and_lengths() {
        let q = QuerySchema::chain3();
        let bad = PipelineOrder {
            stream: RelId(0),
            order: vec![RelId(1), RelId(1)],
        };
        assert!(bad.validate(&q).is_err());
        let short = PipelineOrder {
            stream: RelId(0),
            order: vec![RelId(1)],
        };
        assert!(short.validate(&q).is_err());
        let self_ref = PipelineOrder {
            stream: RelId(0),
            order: vec![RelId(0), RelId(1)],
        };
        assert!(self_ref.validate(&q).is_err());
    }

    #[test]
    fn compile_uses_index_when_available() {
        let q = QuerySchema::chain3();
        let rels = chain3_relations(true);
        // ∆R's pipeline: join with S first (R.A = S.A).
        let op = CompiledOp::compile(&q, &rels, &[RelId(0)], RelId(1));
        let (col, probe) = op.index_access.expect("index on S.A");
        assert_eq!(col, ColId(0));
        assert_eq!(probe, AttrRef::new(0, 0)); // read R.A from prefix
        assert!(op.residual.is_empty());
    }

    #[test]
    fn compile_falls_back_to_scan() {
        let q = QuerySchema::chain3();
        let rels = chain3_relations(false);
        let op = CompiledOp::compile(&q, &rels, &[RelId(0)], RelId(1));
        assert!(op.index_access.is_none());
        assert_eq!(op.residual.len(), 1, "predicate becomes residual");
    }

    #[test]
    fn cross_product_op_has_no_predicates() {
        let q = QuerySchema::chain3();
        let rels = chain3_relations(true);
        // Joining T directly after R: no predicate connects them.
        let op = CompiledOp::compile(&q, &rels, &[RelId(0)], RelId(2));
        assert!(op.index_access.is_none());
        assert!(op.residual.is_empty());
    }

    #[test]
    fn later_position_enforces_all_prefix_predicates() {
        let q = QuerySchema::star(4);
        let rels: Vec<Relation> = (0..4u16)
            .map(|i| {
                let mut r = Relation::new(RelId(i), 2);
                r.add_index(ColId(0));
                r
            })
            .collect();
        // ∆R1 pipeline [R2, R3, R4]: at position 2 (target R3), predicates
        // R3.A = R1.A and R3.A = R2.A both apply (QuerySchema closes each
        // equivalence class into a predicate clique).
        let op = CompiledOp::compile(&q, &rels, &[RelId(0), RelId(1)], RelId(2));
        assert!(op.index_access.is_some());
        assert_eq!(op.residual.len(), 1, "second clique predicate is residual");
    }

    #[test]
    fn compile_pipeline_covers_all_positions() {
        let q = QuerySchema::chain3();
        let rels = chain3_relations(true);
        let order = PipelineOrder {
            stream: RelId(0),
            order: vec![RelId(1), RelId(2)],
        };
        let ops = CompiledOp::compile_pipeline(&q, &rels, &order);
        assert_eq!(ops.len(), 2);
        assert_eq!(ops[0].target, RelId(1));
        assert_eq!(ops[1].target, RelId(2));
        // Second op probes T on B using S.B from the prefix.
        let (col, probe) = ops[1].index_access.unwrap();
        assert_eq!(col, ColId(0));
        assert_eq!(probe, AttrRef::new(1, 1));
    }
}
