//! The three benchmark workloads, each built from the workload seed.
//!
//! * `chain3` — the §7.2 default chain `R(A) ⋈ S(A,B) ⋈ T(B)`, ∆T at 5×:
//!   cache-probe heavy, one stable R⋈S cache, most updates broadcast.
//! * `burst` — the Figure 12 stream: ∆R's rate jumps ×20 inside the measured
//!   suffix, so the best cache changes mid-run.
//! * `d6` — Table 2 point D6, a 4-way hot-value star: output heavy, cache
//!   light, every relation routed.
//!
//! The §7.2 and Figure 12 data models walk sequential domains and take no
//! randomness, so for those two the seed shifts every join value by one
//! seed-derived offset: join structure, fan-out and rates are unchanged,
//! while hashing (cache buckets, Bloom filters, indexes, routing) sees
//! different keys. D6 draws its hot-value columns from the seed directly.

use acq::engine::{EngineConfig, ReoptInterval, SelectionStrategy};
use acq::EnumerationConfig;
use acq_gen::column::ColumnGen;
use acq_gen::spec::{chain3_default, Burst, StreamSpec, Workload};
use acq_gen::table2::sample_point;
use acq_mjoin::plan::{PipelineOrder, PlanOrders};
use acq_stream::{Op, QuerySchema, RelId, Update};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["chain3", "burst", "d6"];

/// Stream lengths of one workload, in generated arrivals and updates.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Arrivals generated (each yields an insert and, once its window is
    /// full, a delete).
    pub arrivals: usize,
    /// Updates in the warm-up prefix; the rest is the measured suffix.
    pub warmup: usize,
}

/// A generated workload: query, plan, engine settings and update stream.
pub struct Bench {
    /// Workload name.
    pub name: &'static str,
    /// The continuous join query.
    pub query: QuerySchema,
    /// Initial pipeline orders.
    pub orders: PlanOrders,
    /// Engine configuration (every shard gets the same).
    pub config: EngineConfig,
    /// The whole update stream, prefix then suffix.
    pub updates: Vec<Update>,
    /// Length of the warm-up prefix.
    pub warmup: usize,
    /// For `burst`: index of the first update generated at the burst rate.
    pub burst_at: Option<usize>,
}

impl Bench {
    /// The measured suffix.
    pub fn suffix(&self) -> &[Update] {
        &self.updates[self.warmup..]
    }

    /// The warm-up prefix.
    pub fn prefix(&self) -> &[Update] {
        &self.updates[..self.warmup]
    }
}

/// Full-size stream lengths. Chosen so that a measured round that times
/// both executors (set-up, sharded suffix, single-engine suffix) takes
/// 1.5–4 s on a 2-core Xeon.
fn full_size(name: &str) -> Size {
    match name {
        "chain3" => Size {
            arrivals: 200_000,
            warmup: 100_000,
        },
        "burst" => Size {
            arrivals: 300_000,
            warmup: 150_000,
        },
        _ => Size {
            arrivals: 150_000,
            warmup: 40_000,
        },
    }
}

/// Stream lengths for `--size tiny` (the self-test): every code path, in
/// well under a second.
fn tiny_size(name: &str) -> Size {
    match name {
        "chain3" => Size {
            arrivals: 6_000,
            warmup: 3_000,
        },
        "burst" => Size {
            arrivals: 8_000,
            warmup: 4_000,
        },
        _ => Size {
            arrivals: 3_000,
            warmup: 1_500,
        },
    }
}

/// SplitMix64: the benchmark's only source of seeded randomness outside the
/// workload generator.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Shift every sequential column of `w` by one seed-derived offset.
fn offset_seq_columns(w: &mut Workload, seed: u64) {
    let mut s = seed;
    let shift = (splitmix(&mut s) % 1_000_000_000) as i64;
    for stream in &mut w.streams {
        for col in &mut stream.columns {
            if let ColumnGen::Seq { offset, .. } = col {
                *offset += shift;
            }
        }
    }
}

/// Index of the update carrying arrival number `arrival` (each arrival
/// produces exactly one insert).
fn update_of_arrival(updates: &[Update], arrival: u64) -> usize {
    updates
        .iter()
        .enumerate()
        .filter(|(_, u)| u.op == Op::Insert)
        .nth(arrival as usize)
        .map_or(updates.len(), |(i, _)| i)
}

/// Build workload `name` from `seed`, full size or tiny.
pub fn build(name: &str, seed: u64, tiny: bool) -> Option<Bench> {
    let size = if tiny {
        tiny_size(name)
    } else {
        full_size(name)
    };
    let (name, query, orders, config, workload, burst_arrival) = match name {
        "chain3" => {
            let q = QuerySchema::chain3();
            let mut w = chain3_default(5, 100, seed);
            offset_seq_columns(&mut w, seed);
            let config = EngineConfig {
                selection: SelectionStrategy::Auto,
                reopt_interval: ReoptInterval::VirtualNs(2_000_000_000),
                ..Default::default()
            };
            (
                "chain3",
                q.clone(),
                PlanOrders::identity(&q),
                config,
                w,
                None,
            )
        }
        "burst" => {
            // Figure 12: cyclic domain 100, ∆T at 5×. The burst starts a
            // third of the way into the suffix's arrivals, so the timed
            // region covers both rate regimes and the switch between them.
            let domain = 100u64;
            let cyc = |mult: u64| ColumnGen::Seq {
                multiplicity: mult,
                stride: 1,
                offset: 0,
                domain,
            };
            let warm_arrivals = size.warmup as u64 / 2;
            let burst_arrival = warm_arrivals + (size.arrivals as u64 - warm_arrivals) / 3;
            let mut w = Workload::new(
                vec![
                    StreamSpec::new(0, 1.0, domain as usize, vec![cyc(1)]),
                    StreamSpec::new(1, 1.0, domain as usize, vec![cyc(1), cyc(1)]),
                    StreamSpec::new(2, 5.0, (domain * 5) as usize, vec![cyc(5)]),
                ],
                seed,
            )
            .with_burst(Burst {
                rel: RelId(0),
                start_after_elements: burst_arrival,
                end_after_elements: u64::MAX,
                factor: 20.0,
            });
            offset_seq_columns(&mut w, seed);
            let config = EngineConfig {
                reopt_interval: ReoptInterval::Tuples(10_000),
                selection: SelectionStrategy::Exhaustive,
                enumeration: EnumerationConfig {
                    enable_global: true,
                    max_candidates: 6,
                    ..Default::default()
                },
                ..Default::default()
            };
            (
                "burst",
                QuerySchema::chain3(),
                orders_t_rs(),
                config,
                w,
                Some(burst_arrival),
            )
        }
        "d6" => {
            let q = QuerySchema::star(4);
            let w = sample_point("D6")
                .expect("Table 2 has D6")
                .workload(100, seed);
            (
                "d6",
                q.clone(),
                PlanOrders::identity(&q),
                EngineConfig::default(),
                w,
                None,
            )
        }
        _ => return None,
    };
    let updates = workload.generate(size.arrivals);
    let warmup = size.warmup.min(updates.len() / 2);
    let burst_at = burst_arrival.map(|a| update_of_arrival(&updates, a));
    Some(Bench {
        name,
        query,
        orders,
        config,
        updates,
        warmup,
        burst_at,
    })
}

/// Figure 12's starting plan: the R⋈S segment is cacheable in ∆T's pipeline.
fn orders_t_rs() -> PlanOrders {
    let p = |stream: u16, order: [u16; 2]| PipelineOrder {
        stream: RelId(stream),
        order: order.iter().map(|&r| RelId(r)).collect(),
    };
    PlanOrders::new(vec![p(0, [1, 2]), p(1, [0, 2]), p(2, [1, 0])])
}
