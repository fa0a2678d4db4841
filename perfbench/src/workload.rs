//! The three workloads: how each generates its instances from the seed,
//! and the solve configuration each runs, untraced or traced.

use crate::layers::{Layers, TimedGw, TimedPartitioner, TimedQaoa};
use qq_core::{
    BestOf, BoxedSolver, Parallelism, PartitionStrategy, Qaoa2Config, RefineConfig, SubSolver,
};
use qq_graph::generators::{self, WeightKind};
use qq_graph::{Graph, GraphBuilder};
use qq_gw::{GwConfig, GwSolver};
use qq_qaoa::QaoaConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// G(2000, 0.005), cap 12, Auto divide, default QAOA, GW coarse.
    Er2000AutoQaoaC12,
    /// Weighted planted partition 3×17 (p_in 0.7, p_out 0.03), cap 17,
    /// `Best`, greedy modularity, full refinement.
    Pp51wBestC17,
    /// G(60000, 4/60000), cap 12, label propagation, GW everywhere.
    Er60kLpGwC12,
}

impl Workload {
    pub const ALL: [Workload; 3] =
        [Workload::Er2000AutoQaoaC12, Workload::Pp51wBestC17, Workload::Er60kLpGwC12];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Er2000AutoQaoaC12 => "er2000-auto-qaoa-c12",
            Workload::Pp51wBestC17 => "pp51w-best-c17",
            Workload::Er60kLpGwC12 => "er60k-lp-gw-c12",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Distinct timed instances. The Auto workload never solves one
    /// twice (its process-wide partition memo would make the repeat
    /// faster than any first solve a user sees), so it holds enough for
    /// a whole run; the others cycle through theirs.
    pub fn instances(self) -> usize {
        match self {
            Workload::Er2000AutoQaoaC12 => 20,
            Workload::Pp51wBestC17 => 12,
            Workload::Er60kLpGwC12 => 4,
        }
    }

    /// Whether a timed solve may repeat an instance.
    pub fn repeats(self) -> bool {
        self != Workload::Er2000AutoQaoaC12
    }

    /// Solves every run makes, however long they take: instances
    /// `0..min_solves`, over which `cut_fraction` is taken, so that it
    /// depends on the seed alone.
    pub fn min_solves(self) -> usize {
        match self {
            Workload::Er2000AutoQaoaC12 => 4,
            Workload::Pp51wBestC17 => 12,
            Workload::Er60kLpGwC12 => 4,
        }
    }

    /// Set-ups of an instance after each timed solve of it: a few
    /// percent of the solve's time.
    pub fn setup_reps(self) -> usize {
        match self {
            Workload::Er2000AutoQaoaC12 => 4,
            Workload::Pp51wBestC17 => 200,
            Workload::Er60kLpGwC12 => 3,
        }
    }

    /// Instance `index` of the run seeded `seed`. [`WARMUP`] names the
    /// warm-up instance, which no timed solve uses.
    pub fn generate(self, seed: u64, index: u64) -> Graph {
        let s = instance_seed(seed, index);
        match self {
            Workload::Er2000AutoQaoaC12 => {
                generators::erdos_renyi(2000, 0.005, WeightKind::Uniform, s)
            }
            Workload::Pp51wBestC17 => {
                // p_in 0.7: at 0.5, greedy modularity split the third
                // block of about one instance in four, and the per-solve
                // time was bimodal (one 17-qubit solve on the critical
                // path instead of two)
                let g = generators::planted_partition(3, 17, 0.7, 0.03, s);
                reweight(&g, s ^ 0x5eed_5eed)
            }
            Workload::Er60kLpGwC12 => {
                let n = 60_000;
                generators::erdos_renyi_fast(n, 4.0 / n as f64, WeightKind::Uniform, s)
            }
        }
    }

    /// The solve configuration. With `layers`, every solver and fixed
    /// partitioner the configuration names is wrapped in its timing
    /// wrapper ([`crate::layers`]); `Auto` stays as it is, because it
    /// is resolved inside the divide rather than through a partitioner.
    pub fn config(self, solve_seed: u64, layers: Option<&Arc<Layers>>) -> Qaoa2Config {
        let qaoa = QaoaConfig::default();
        let gw = GwConfig::default();
        let gw_solver = |layers: Option<&Arc<Layers>>| match layers {
            None => SubSolver::Gw(gw),
            Some(l) => {
                SubSolver::custom(TimedGw { inner: GwSolver { config: gw }, layers: Arc::clone(l) })
            }
        };
        let partition = |fixed: PartitionStrategy| match layers {
            None => fixed,
            Some(l) => PartitionStrategy::custom(TimedPartitioner {
                inner: fixed.to_partitioner(),
                layers: Arc::clone(l),
            }),
        };
        let (max_qubits, solver, partition, refine) = match self {
            Workload::Er2000AutoQaoaC12 => {
                let solver = match layers {
                    None => SubSolver::Qaoa(qaoa),
                    Some(l) => SubSolver::custom(TimedQaoa::new(qaoa, Arc::clone(l))),
                };
                (12, solver, PartitionStrategy::Auto, RefineConfig::default())
            }
            Workload::Pp51wBestC17 => {
                let solver = match layers {
                    None => SubSolver::Best { qaoa, gw },
                    Some(l) => SubSolver::custom(BestOf::new(vec![
                        Box::new(TimedQaoa::new(qaoa, Arc::clone(l))) as BoxedSolver,
                        Box::new(TimedGw { inner: GwSolver { config: gw }, layers: Arc::clone(l) }),
                    ])),
                };
                (17, solver, partition(PartitionStrategy::GreedyModularity), RefineConfig::full())
            }
            Workload::Er60kLpGwC12 => (
                12,
                gw_solver(layers),
                partition(PartitionStrategy::LabelPropagation),
                RefineConfig::default(),
            ),
        };
        Qaoa2Config {
            max_qubits,
            solver,
            coarse_solver: gw_solver(layers),
            partition,
            refine,
            parallelism: Parallelism::Threads,
            seed: solve_seed,
        }
    }
}

/// Index of the warm-up instance: outside every timed set.
pub const WARMUP: u64 = u64::MAX;

/// Splitmix-style derivation of instance `index`'s seed (also its solve
/// seed) from the run seed.
pub fn instance_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed.wrapping_add(index.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The same edges with weights drawn from U(0.05, 1.05): non-integer
/// costs, bounded away from zero.
fn reweight(g: &Graph, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::with_capacity(g.num_nodes(), g.num_edges());
    for e in g.edges() {
        b.add_edge(e.u, e.v, 0.05 + rng.gen::<f64>())
            .expect("edges of a valid graph stay valid with new weights");
    }
    b.finalize().expect("edges of a valid graph stay unique")
}
