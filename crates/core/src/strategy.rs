//! Partition-strategy configuration — the divide half of divide-and-
//! conquer, made pluggable and *adaptive*.
//!
//! [`PartitionStrategy`] mirrors [`crate::SubSolver`]'s config-enum
//! pattern for the *divide* step: each variant names a
//! [`Partitioner`] built via [`PartitionStrategy::to_partitioner`],
//! [`PartitionStrategy::Custom`] wraps any external implementation —
//! no `qq-core` edits required to plug in a new way of cutting a
//! graph — and two variants make the choice *adaptive*:
//!
//! * [`PartitionStrategy::Auto`] picks per instance: cheap probes
//!   (density, weight signs — `qq_graph::auto::probe`) order and prune
//!   the candidate portfolio, and every surviving candidate's actual
//!   partition is ranked by a classical one-level **lookahead** — the
//!   cut value a one-exchange compose achieves on it, replaying the
//!   pipeline's own seed streams — with the structural score
//!   (inter-weight fraction, balance) as tie-break. With refinement
//!   on, candidates are scored *after* refinement — the selection
//!   optimizes what the level will actually solve over.
//! * [`PartitionStrategy::Scheduled`] applies a [`PartitionSchedule`]:
//!   an explicit strategy per recursion level with a tail default —
//!   e.g. multilevel coarsening on the input graph, label propagation
//!   on the negative-weight coarse merge graphs below it.
//!
//! [`RefineConfig`] gates the refinement hooks: Kernighan–Lin-style
//! boundary sweeps on every level's partition, optional FM **swap**
//! moves so fully-packed (at-cap) partitions stay refinable
//! ([`qq_graph::refine_partition_with`]), and a boundary-restricted
//! one-exchange polish on every level's composed cut
//! ([`qq_classical::one_exchange_from`]).
//!
//! The orchestrator enters through [`divide`], which resolves the
//! per-level/per-instance choice, adds the uniform guards (validation,
//! cap enforcement, singleton-stall fallback — see
//! [`qq_graph::partition_for_divide`]), and reports partition-quality
//! metrics *with attribution*: [`DivideOutcome`] names both the
//! requested and the effective strategy, so a stalled structural
//! strategy silently replaced by chunks is visible in every level
//! report instead of being mis-credited.

use crate::merge::{apply_flips, build_merge_graph};
use crate::qaoa2::mix_seed;
use crate::Qaoa2Error;
use qq_graph::{
    auto, boundary_nodes, extract_subgraphs, inter_weight_fraction, partition_for_divide,
    refine_partition_with, BalancedChunks, BfsGrow, Cut, DividedPartition, Graph, GreedyModularity,
    LabelPropagation, Multilevel, Partition, PartitionError, Partitioner, RefineOptions, Spectral,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A dynamically supplied partitioner (the escape hatch for strategies
/// defined outside this crate). `Arc` rather than `Box` so the
/// configuration enum stays cheaply cloneable.
pub type SharedPartitioner = Arc<dyn Partitioner>;

/// Which strategy divides a graph into cap-sized communities.
#[derive(Clone, Default)]
pub enum PartitionStrategy {
    /// The paper's divide: CNM greedy modularity, oversized communities
    /// recursively re-divided. The default.
    #[default]
    GreedyModularity,
    /// Node-order chunks of `cap` nodes: structure-free baseline.
    BalancedChunks,
    /// Breadth-first region growing from ascending seed ids: connected,
    /// locality-friendly communities.
    BfsGrow,
    /// Multilevel heavy-edge-matching coarsening (METIS-style, after
    /// Angone et al.); pair with partition refinement for the classic
    /// coarsen → refine pipeline.
    Multilevel,
    /// Deterministic cap-aware label propagation over absolute edge
    /// weights — the structural strategy that stays effective on the
    /// negative-weight coarse merge graphs the recursion produces.
    LabelPropagation,
    /// Recursive Fiedler-vector bisection (power iteration on the
    /// absolute-weight Laplacian, median splits; no external linear
    /// algebra).
    Spectral,
    /// Per-instance auto-selection: probe the graph (density, weight
    /// signs), run the surviving candidate strategies, keep the
    /// partition whose classical one-level lookahead composes the best
    /// cut (ties → inter-weight fraction, balance, portfolio order).
    /// The chosen strategy's label is surfaced as the *effective*
    /// strategy in [`DivideOutcome`] / [`crate::LevelStats`].
    Auto,
    /// An explicit per-recursion-level schedule with a tail default —
    /// see [`PartitionSchedule`].
    Scheduled(Arc<PartitionSchedule>),
    /// Any externally supplied [`Partitioner`]: the open end of the
    /// strategy layer. Build one with [`PartitionStrategy::custom`] or
    /// via the `From` impls for boxed/arc'd trait objects. Outputs are
    /// revalidated (`Partition::try_new`) and cap-checked on every
    /// divide — custom strategies are not trusted.
    Custom(SharedPartitioner),
}

impl std::fmt::Debug for PartitionStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PartitionStrategy::GreedyModularity => f.write_str("GreedyModularity"),
            PartitionStrategy::BalancedChunks => f.write_str("BalancedChunks"),
            PartitionStrategy::BfsGrow => f.write_str("BfsGrow"),
            PartitionStrategy::Multilevel => f.write_str("Multilevel"),
            PartitionStrategy::LabelPropagation => f.write_str("LabelPropagation"),
            PartitionStrategy::Spectral => f.write_str("Spectral"),
            PartitionStrategy::Auto => f.write_str("Auto"),
            PartitionStrategy::Scheduled(s) => f.debug_tuple("Scheduled").field(s).finish(),
            PartitionStrategy::Custom(p) => f.debug_tuple("Custom").field(&p.label()).finish(),
        }
    }
}

impl PartitionStrategy {
    /// Short label for reports and benches. Matches the label of the
    /// partitioner [`PartitionStrategy::to_partitioner`] constructs;
    /// per-level labels of a schedule, and the per-instance choice of
    /// `Auto`, surface through [`DivideOutcome`] instead.
    pub fn label(&self) -> &str {
        match self {
            PartitionStrategy::GreedyModularity => "greedy-modularity",
            PartitionStrategy::BalancedChunks => "balanced-chunks",
            PartitionStrategy::BfsGrow => "bfs-grow",
            PartitionStrategy::Multilevel => "multilevel",
            PartitionStrategy::LabelPropagation => "label-propagation",
            PartitionStrategy::Spectral => "spectral",
            PartitionStrategy::Auto => "auto",
            PartitionStrategy::Scheduled(_) => "schedule",
            PartitionStrategy::Custom(p) => p.label(),
        }
    }

    /// Wrap an externally defined strategy.
    pub fn custom(partitioner: impl Partitioner + 'static) -> Self {
        PartitionStrategy::Custom(Arc::new(partitioner))
    }

    /// Wrap a per-level schedule.
    pub fn scheduled(schedule: PartitionSchedule) -> Self {
        PartitionStrategy::Scheduled(Arc::new(schedule))
    }

    /// Construct the partitioner this configuration describes.
    /// Strategies are stateless and `Sync`, so the handle can be shared
    /// freely. `Auto` yields [`AutoPartitioner`] (per-instance
    /// lookahead selection); a schedule yields its **level-0**
    /// strategy's partitioner — per-level resolution lives in
    /// [`divide`], which is what the orchestrator uses.
    pub fn to_partitioner(&self) -> SharedPartitioner {
        match self {
            PartitionStrategy::GreedyModularity => Arc::new(GreedyModularity),
            PartitionStrategy::BalancedChunks => Arc::new(BalancedChunks),
            PartitionStrategy::BfsGrow => Arc::new(BfsGrow),
            PartitionStrategy::Multilevel => Arc::new(Multilevel),
            PartitionStrategy::LabelPropagation => Arc::new(LabelPropagation),
            PartitionStrategy::Spectral => Arc::new(Spectral),
            PartitionStrategy::Auto => Arc::new(AutoPartitioner),
            PartitionStrategy::Scheduled(s) => s.strategy_for(0).to_partitioner(),
            PartitionStrategy::Custom(p) => Arc::clone(p),
        }
    }

    /// Parse a strategy from its [`PartitionStrategy::label`] — the
    /// CLI-facing inverse for examples and benches. Fixed strategies and
    /// `auto` parse; schedules and custom partitioners are programmatic
    /// (build them with [`PartitionStrategy::scheduled`] /
    /// [`PartitionStrategy::custom`]).
    pub fn parse(label: &str) -> Option<PartitionStrategy> {
        match label {
            "greedy-modularity" => Some(PartitionStrategy::GreedyModularity),
            "balanced-chunks" => Some(PartitionStrategy::BalancedChunks),
            "bfs-grow" => Some(PartitionStrategy::BfsGrow),
            "multilevel" => Some(PartitionStrategy::Multilevel),
            "label-propagation" => Some(PartitionStrategy::LabelPropagation),
            "spectral" => Some(PartitionStrategy::Spectral),
            "auto" => Some(PartitionStrategy::Auto),
            _ => None,
        }
    }

    /// All fixed built-in strategies, for benches and exhaustive tests
    /// (`Auto` and schedules select *among* these, so they are not
    /// listed — compare against them explicitly).
    pub fn builtin() -> Vec<PartitionStrategy> {
        vec![
            PartitionStrategy::GreedyModularity,
            PartitionStrategy::BalancedChunks,
            PartitionStrategy::BfsGrow,
            PartitionStrategy::Multilevel,
            PartitionStrategy::LabelPropagation,
            PartitionStrategy::Spectral,
        ]
    }
}

impl From<SharedPartitioner> for PartitionStrategy {
    fn from(p: SharedPartitioner) -> Self {
        PartitionStrategy::Custom(p)
    }
}

impl From<Box<dyn Partitioner>> for PartitionStrategy {
    fn from(p: Box<dyn Partitioner>) -> Self {
        PartitionStrategy::Custom(Arc::from(p))
    }
}

impl From<PartitionSchedule> for PartitionStrategy {
    fn from(s: PartitionSchedule) -> Self {
        PartitionStrategy::scheduled(s)
    }
}

/// An explicit strategy per QAOA² recursion level, with a tail default
/// for every level past the list: `levels[depth]` divides the graph at
/// `depth`, `tail` divides everything deeper.
///
/// The canonical use pairs a structure-exploiting strategy on the
/// input graph with one that stays effective on the negative-weight
/// coarse merge graphs below it:
///
/// ```
/// use qq_core::{PartitionSchedule, PartitionStrategy};
///
/// // multilevel coarsening at level 0, label propagation (robust on
/// // negative-weight merge graphs) everywhere below
/// let schedule = PartitionSchedule::new(
///     vec![PartitionStrategy::Multilevel],
///     PartitionStrategy::LabelPropagation,
/// );
/// let strategy = PartitionStrategy::scheduled(schedule);
/// assert_eq!(strategy.label(), "schedule");
/// ```
#[derive(Debug, Clone)]
pub struct PartitionSchedule {
    levels: Vec<PartitionStrategy>,
    tail: PartitionStrategy,
}

impl PartitionSchedule {
    /// A schedule running `levels[depth]` at each listed depth and
    /// `tail` below the list.
    pub fn new(levels: Vec<PartitionStrategy>, tail: PartitionStrategy) -> Self {
        PartitionSchedule { levels, tail }
    }

    /// A depth-independent schedule (equivalent to the bare strategy).
    pub fn uniform(strategy: PartitionStrategy) -> Self {
        PartitionSchedule { levels: Vec::new(), tail: strategy }
    }

    /// The strategy for recursion depth `depth`.
    pub fn strategy_for(&self, depth: usize) -> &PartitionStrategy {
        self.levels.get(depth).unwrap_or(&self.tail)
    }
}

/// Gates for the refinement hooks. Default: everything off — the
/// divide is exactly the configured strategy and the composed cut is
/// exactly what divide/solve/merge produced (bit-identical to the
/// pre-strategy-layer pipeline).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RefineConfig {
    /// Kernighan–Lin-style boundary sweeps applied to every level's
    /// partition (`0` = off). Each pass visits every node once; the
    /// sweep stops early when a pass applies no move, so 2–4 passes is
    /// plenty in practice.
    pub partition_passes: usize,
    /// Add an FM-style **swap** sweep to every partition pass:
    /// exchange node pairs between communities, preserving sizes, so
    /// fully-packed (at-cap) partitions — where pure migration is
    /// inadmissible by definition — can still improve. No effect while
    /// `partition_passes` is 0.
    pub swap_moves: bool,
    /// Polish every level's composed cut with a one-exchange restricted
    /// to the partition's boundary nodes. Never decreases the cut value
    /// (the climb starts from the composed cut).
    pub polish_cut: bool,
}

impl RefineConfig {
    /// All refinement hooks on, at the recommended pass budget:
    /// 2 migration + swap sweeps per level plus the cut polish.
    pub fn full() -> Self {
        RefineConfig { partition_passes: 2, swap_moves: true, polish_cut: true }
    }

    /// The partition-sweep options this configuration describes.
    pub fn partition_options(&self) -> RefineOptions {
        RefineOptions { max_passes: self.partition_passes, swap_moves: self.swap_moves }
    }
}

/// A divide outcome: the partition, its attribution (which strategy
/// was requested, which one actually produced the partition), and the
/// quality metrics [`crate::LevelStats`] records.
#[derive(Debug, Clone)]
pub struct DivideOutcome {
    /// The (possibly refined) partition the level solves over.
    pub partition: Partition,
    /// Label of the strategy the configuration requested at this level
    /// (`"auto"` for per-instance selection; a schedule reports its
    /// per-level resolution).
    pub requested: String,
    /// Label of the strategy whose output the partition actually is:
    /// the requested label normally, the per-instance choice under
    /// `Auto`, and `"balanced-chunks"` whenever the singleton-stall
    /// guard replaced a stalled structural strategy.
    pub effective: String,
    /// `true` when the singleton-stall guard replaced the requested
    /// strategy's output with balanced chunks.
    pub stall_fallback: bool,
    /// `true` when the large-instance gate restricted `Auto`'s
    /// portfolio to `O(m)`-per-pass strategies and ranked candidates by
    /// structural score instead of the classical lookahead (see
    /// [`qq_graph::auto::LARGE_INSTANCE_NODES`]). Attributed, not
    /// silent — the same convention as `stall_fallback`.
    pub size_gated: bool,
    /// Community count before refinement (equals `after` when
    /// refinement is off).
    pub communities_before_refine: usize,
    /// Community count after refinement (migration can empty small
    /// communities, which are dropped).
    pub communities_after_refine: usize,
    /// Fraction of the graph's absolute edge weight crossing community
    /// boundaries — what the merge stage must recover.
    pub inter_weight_fraction: f64,
    /// Largest community size over mean community size (1.0 = balanced).
    pub balance: f64,
}

/// Divide the level-`depth` graph with the configured strategy:
/// per-level schedule resolution, per-instance auto-selection, guarded
/// partition ([`partition_for_divide`]), optional refinement sweep,
/// quality metrics with strategy attribution. This is the only
/// partitioning entry point the QAOA² orchestrator uses. `seed` is the
/// solve's master seed: fixed strategies ignore it, while `Auto`'s
/// lookahead replays the exact per-(level, sub-graph) solver streams
/// the pipeline will use, so its candidate evaluation measures the
/// composition that will actually happen.
pub fn divide(
    g: &Graph,
    cap: usize,
    strategy: &PartitionStrategy,
    depth: usize,
    refine: &RefineConfig,
    seed: u64,
) -> Result<DivideOutcome, Qaoa2Error> {
    // unwrap schedules (possibly nested) to this level's strategy
    let mut resolved = strategy;
    while let PartitionStrategy::Scheduled(schedule) = resolved {
        resolved = schedule.strategy_for(depth);
    }
    match resolved {
        PartitionStrategy::Auto => divide_auto(g, cap, depth, refine, seed),
        fixed => {
            let partitioner = fixed.to_partitioner();
            let divided = partition_for_divide(partitioner.as_ref(), g, cap)?;
            Ok(refine_and_measure(g, cap, divided, refine))
        }
    }
}

/// The cut value a cheap classical compose achieves on `p` at level
/// `depth`: solve every community with one-exchange local search on
/// the **same seed streams the pipeline will use**, build the merge
/// graph, solve it by [`lookahead_solve`] (the classical stand-in for
/// the deeper recursion), apply the flips, and (when the configuration
/// polishes composed cuts) replay the boundary-restricted polish.
///
/// This simulates the remainder of the QAOA² pipeline with the
/// cheapest deterministic solver: unlike any divide-time structural
/// proxy, it prices *both* sides of the trade — the weight a partition
/// keeps solvable inside communities and the share of boundary weight
/// the merge stage can still recover — in the units the pipeline is
/// actually judged in. For a local-search configuration it matches the
/// pipeline's composition exactly up to the fidelity budget's horizon:
/// a solve whose recursion bottoms out within `budget` divide levels
/// is simulated verbatim, while deeper levels are approximated (the
/// simulated deeper selections run with a smaller remaining budget
/// than the real ones will have, so they can differ). Stronger
/// (quantum) sub-solvers only improve on the simulated value.
#[cfg(test)]
fn lookahead_value(
    g: &Graph,
    p: &Partition,
    cap: usize,
    depth: usize,
    refine: &RefineConfig,
    seed: u64,
    budget: usize,
) -> f64 {
    lookahead_compose(g, p, cap, depth, refine, seed, budget).value(g)
}

/// One simulated level of the pipeline over a fixed partition: local
/// one-exchange solves on the pipeline's seed streams, recursive
/// coarse solve ([`lookahead_solve`] with `coarse_budget` fidelity),
/// flip application, optional boundary polish. The single shared body
/// of candidate scoring and the simulated deeper solve — sharing it
/// is what guarantees the value candidates are ranked by and the
/// composition the simulation actually produces can never drift
/// apart.
fn lookahead_compose(
    g: &Graph,
    p: &Partition,
    cap: usize,
    depth: usize,
    refine: &RefineConfig,
    seed: u64,
    coarse_budget: usize,
) -> Cut {
    let subgraphs = extract_subgraphs(g, p);
    let local_cuts: Vec<Cut> = subgraphs
        .iter()
        .enumerate()
        .map(|(i, sub)| {
            qq_classical::one_exchange(&sub.graph, mix_seed(seed, depth as u64, i as u64)).cut
        })
        .collect();
    let coarse = build_merge_graph(g, p, &local_cuts);
    let coarse_cut = lookahead_solve(&coarse, cap, depth + 1, refine, seed, coarse_budget);
    let composed = apply_flips(g, p, &local_cuts, &coarse_cut);
    if refine.polish_cut {
        let boundary = boundary_nodes(g, p);
        qq_classical::one_exchange_from(g, composed, &boundary).cut
    } else {
        composed
    }
}

/// How many further divide levels [`lookahead_solve`] simulates at
/// full fidelity before degrading to a single whole-graph exchange.
/// Each simulated divide multiplies the work by the portfolio size
/// (~6), so an unbounded recursion would go exponential on deep
/// small-cap solves; two faithful levels cover the recursion depth of
/// typical cap-vs-size ratios (a level contracts ~cap-fold) while
/// keeping the worst case a few hundred cheap classical solves.
const LOOKAHEAD_BUDGET: usize = 2;

/// Bound on the candidate-partition memo ([`memoized_partition_for_divide`]);
/// when full the whole map is dropped — the cache is an accelerator, not a
/// correctness structure, and a deep solve's working set is far smaller.
const PARTITION_MEMO_CAPACITY: usize = 512;

/// Memo key: graph identity (size + FNV-1a fingerprint of the exact edge
/// list), candidate label, cap. The size fields guard the (astronomically
/// unlikely) 64-bit fingerprint collision between graphs of equal shape.
type PartitionMemoKey = (u64, usize, usize, String, usize);

fn partition_memo() -> &'static Mutex<HashMap<PartitionMemoKey, DividedPartition>> {
    static MEMO: OnceLock<Mutex<HashMap<PartitionMemoKey, DividedPartition>>> = OnceLock::new();
    MEMO.get_or_init(|| Mutex::new(HashMap::new()))
}

static PARTITION_MEMO_HITS: AtomicU64 = AtomicU64::new(0);

/// Graph fingerprints the memo was consulted for, hit or miss. Unit tests
/// share the process-wide memo across threads, so a test proves that a
/// divide bypassed the memo by finding its own graph's fingerprint
/// absent here, not by watching the global hit counter.
#[cfg(test)]
static MEMO_LOOKUPS: Mutex<Vec<u64>> = Mutex::new(Vec::new());

/// Process-wide count of candidate partitions the auto lookahead reused
/// from the memo instead of recomputing (monotonic; exposed for tests
/// and throughput reporting).
pub fn partition_memo_hits() -> u64 {
    PARTITION_MEMO_HITS.load(Ordering::Relaxed)
}

/// FNV-1a over the node count and the exact `(u, v, w)` edge list. Bit
/// pattern of `w` so the fingerprint is exact (no tolerance classes).
fn graph_fingerprint(g: &Graph) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |word: u64| {
        for byte in word.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(PRIME);
        }
    };
    mix(g.num_nodes() as u64);
    for e in g.edges() {
        mix(e.u as u64);
        mix(e.v as u64);
        mix(e.w.to_bits());
    }
    h
}

/// [`partition_for_divide`] with a process-wide memo. The guarded output
/// is a pure function of `(graph, strategy label, cap)` — every built-in
/// candidate is deterministic — and the auto lookahead recomputes it
/// heavily: each simulated deeper level re-runs the portfolio on coarse
/// graphs the real recursion will divide again, and sibling candidates
/// often produce identical partitions. Errors are not cached.
fn memoized_partition_for_divide(
    strategy: &dyn Partitioner,
    g: &Graph,
    cap: usize,
) -> Result<DividedPartition, PartitionError> {
    let key =
        (graph_fingerprint(g), g.num_nodes(), g.edges().len(), strategy.label().to_string(), cap);
    #[cfg(test)]
    MEMO_LOOKUPS.lock().expect("memo lookup log poisoned").push(key.0);
    if let Some(hit) = partition_memo().lock().expect("partition memo poisoned").get(&key) {
        PARTITION_MEMO_HITS.fetch_add(1, Ordering::Relaxed);
        return Ok(hit.clone());
    }
    let divided = partition_for_divide(strategy, g, cap)?;
    let mut memo = partition_memo().lock().expect("partition memo poisoned");
    if memo.len() >= PARTITION_MEMO_CAPACITY {
        memo.clear();
    }
    memo.insert(key, divided.clone());
    Ok(divided)
}

/// Classical stand-in for `solve_level` during the lookahead: graphs
/// within the cap are solved by one-exchange on the exact seed the
/// pipeline's base case would draw; larger graphs divide through the
/// auto portfolio (the same selection the real auto run will make at
/// that level, so the simulation and the eventual solve agree) and
/// recurse, until `budget` faithful divides are spent — beyond that,
/// or when `cap < 2` (which cannot contract and would recurse
/// forever; the orchestrator rejects such caps anyway), the remainder
/// is approximated by one whole-graph exchange.
fn lookahead_solve(
    g: &Graph,
    cap: usize,
    depth: usize,
    refine: &RefineConfig,
    seed: u64,
    budget: usize,
) -> Cut {
    if g.num_nodes() <= cap || cap < 2 || budget == 0 {
        return qq_classical::one_exchange(g, mix_seed(seed, depth as u64, 0)).cut;
    }
    // the selection already composed its winner while scoring it — use
    // that cut rather than re-running the whole composition
    let (_, composed) = divide_auto_budgeted(g, cap, depth, refine, seed, budget - 1)
        .expect("built-in auto candidates cannot fail at cap ≥ 2");
    // a size-gated or all-stalled selection returns no composed cut;
    // approximate the remainder with one whole-graph exchange, exactly
    // as an exhausted budget would
    composed.unwrap_or_else(|| qq_classical::one_exchange(g, mix_seed(seed, depth as u64, 0)).cut)
}

/// Per-instance auto-selection: probe, order and prune the candidate
/// portfolio ([`qq_graph::auto`]), run every surviving candidate
/// through the same guard + refinement pipeline a fixed strategy
/// would get, rank by the classical [`lookahead_value`] (ties →
/// structural score: inter-weight fraction, then balance, then
/// portfolio order), and keep the winner. Scoring *after* refinement
/// means the choice optimizes the partition the level actually solves
/// over.
fn divide_auto(
    g: &Graph,
    cap: usize,
    depth: usize,
    refine: &RefineConfig,
    seed: u64,
) -> Result<DivideOutcome, Qaoa2Error> {
    divide_auto_budgeted(g, cap, depth, refine, seed, LOOKAHEAD_BUDGET).map(|(outcome, _)| outcome)
}

/// [`divide_auto`] with an explicit lookahead fidelity budget (how
/// many further divide levels each candidate evaluation may simulate
/// faithfully — see [`lookahead_solve`]). Also returns the winning
/// candidate's composed lookahead cut (`None` in the cap-1 corner
/// where every candidate stalls, and on size-gated instances, where no
/// lookahead runs), so the simulated deeper solve can reuse it instead
/// of recomposing.
///
/// **Large instances** ([`qq_graph::auto::InstanceProbe::is_large`])
/// take an `O(m)` path end to end: the portfolio is already stripped
/// of superlinear strategies by [`auto::candidates`], candidates are
/// ranked by structural score alone (the classical lookahead would
/// one-exchange the whole million-node graph per candidate), and the
/// partition memo is bypassed (fingerprinting is an `O(m)` scan per
/// probe and the memo would clone million-entry partitions). The gate
/// is attributed in [`DivideOutcome::size_gated`].
///
/// The probe runs per **call** — and the pipeline calls [`divide`] once
/// per recursion level — so gating is per level, not per solve: a
/// million-node level 0 takes the `O(m)` path while its coarse merge
/// graphs, orders of magnitude smaller, re-probe below the gate and get
/// the full portfolio and the classical lookahead back. Each level's
/// `LevelStats::size_gated` records which way its probe went.
fn divide_auto_budgeted(
    g: &Graph,
    cap: usize,
    depth: usize,
    refine: &RefineConfig,
    seed: u64,
    budget: usize,
) -> Result<(DivideOutcome, Option<Cut>), Qaoa2Error> {
    if cap == 0 {
        return Err(PartitionError::InvalidCap.into());
    }
    let probe = auto::probe(g);
    let size_gated = probe.is_large();
    let mut best: Option<(f64, auto::AutoScore, DivideOutcome, Option<Cut>)> = None;
    let mut stalled: Option<DividedPartition> = None;
    for candidate in auto::candidates(&probe) {
        let divided = if size_gated {
            partition_for_divide(candidate.as_ref(), g, cap)?
        } else {
            memoized_partition_for_divide(candidate.as_ref(), g, cap)?
        };
        if divided.stall_fallback {
            // the guard already replaced this candidate's output with
            // balanced chunks — a partition the chunk candidate (always
            // in the portfolio) produces itself, so refining or scoring
            // it would be pure duplicate work; keep one raw as the last
            // resort for the cap-1 corner where every candidate stalls
            if stalled.is_none() {
                stalled = Some(divided);
            }
            continue;
        }
        let outcome = refine_and_measure(g, cap, divided, refine);
        let score = auto::AutoScore {
            inter_weight_fraction: outcome.inter_weight_fraction,
            balance: outcome.balance,
        };
        let (value, composed) = if size_gated {
            (0.0, None)
        } else {
            let c = lookahead_compose(g, &outcome.partition, cap, depth, refine, seed, budget);
            (c.value(g), Some(c))
        };
        let better = match &best {
            None => true,
            Some((bv, bs, _, _)) if size_gated => {
                // no lookahead values to compare — structural score only
                let _ = bv;
                score.better_than(bs)
            }
            Some((bv, bs, _, _)) => {
                value > bv + 1e-9 || ((value - bv).abs() <= 1e-9 && score.better_than(bs))
            }
        };
        if better {
            best = Some((value, score, outcome, composed));
        }
    }
    let (mut outcome, composed) = match best {
        Some((_, _, outcome, composed)) => (outcome, composed),
        None => {
            // cap-1 corner: every candidate stalled; refine the kept
            // fallback only now that it is actually needed
            let divided = stalled.expect("the candidate portfolio is never empty");
            (refine_and_measure(g, cap, divided, refine), None)
        }
    };
    outcome.requested = "auto".to_string();
    outcome.size_gated = size_gated;
    Ok((outcome, composed))
}

/// [`PartitionStrategy::Auto`] as a plain [`Partitioner`] (label
/// `"auto"`), so per-instance selection composes anywhere a fixed
/// strategy does — benches, exhaustive tests, external orchestrators.
/// Runs the same probe → gate → lookahead selection as [`divide`]
/// with refinement off and a fixed lookahead seed (the trait has no
/// solve context); use [`divide`] when the chosen label, refined
/// scoring, or seed-matched lookahead is needed.
#[derive(Debug, Clone, Copy, Default)]
pub struct AutoPartitioner;

/// Seed of [`AutoPartitioner`]'s standalone lookahead: the trait-level
/// entry point must stay a pure function of `(graph, cap)`.
const LOOKAHEAD_SEED: u64 = 0x9e37_79b9_7f4a_7c15;

impl Partitioner for AutoPartitioner {
    fn label(&self) -> &str {
        "auto"
    }

    fn partition(&self, g: &Graph, cap: usize) -> Result<Partition, qq_graph::PartitionError> {
        if cap == 0 {
            return Err(qq_graph::PartitionError::InvalidCap);
        }
        divide_auto(g, cap, 0, &RefineConfig::default(), LOOKAHEAD_SEED)
            .map(|outcome| outcome.partition)
            .map_err(|e| qq_graph::PartitionError::Backend(e.to_string()))
    }
}

/// Shared tail of every divide: optional refinement sweep + quality
/// metrics, carrying the guard's strategy attribution through.
fn refine_and_measure(
    g: &Graph,
    cap: usize,
    divided: DividedPartition,
    refine: &RefineConfig,
) -> DivideOutcome {
    let DividedPartition { partition, requested, effective, stall_fallback } = divided;
    let communities_before_refine = partition.len();
    let partition = if refine.partition_passes > 0 {
        refine_partition_with(g, &partition, cap, refine.partition_options()).partition
    } else {
        partition
    };
    let communities_after_refine = partition.len();
    let inter = inter_weight_fraction(g, &partition);
    let balance = partition.balance();
    DivideOutcome {
        partition,
        requested,
        effective,
        stall_fallback,
        // the auto path overwrites this after ranking; fixed strategies
        // are whatever the caller asked for, gate or no gate
        size_gated: false,
        communities_before_refine,
        communities_after_refine,
        inter_weight_fraction: inter,
        balance,
    }
}

impl From<PartitionError> for Qaoa2Error {
    fn from(e: PartitionError) -> Self {
        match e {
            PartitionError::InvalidCap => {
                Qaoa2Error::InvalidConfig("community cap must be at least 1".into())
            }
            other => Qaoa2Error::Partition(other.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qq_graph::generators::{self, WeightKind};

    #[test]
    fn labels_match_partitioner_labels() {
        for s in PartitionStrategy::builtin() {
            assert_eq!(s.label(), s.to_partitioner().label());
        }
        assert_eq!(PartitionStrategy::Auto.label(), "auto");
        assert_eq!(PartitionStrategy::Auto.to_partitioner().label(), "auto");
    }

    #[test]
    fn auto_lookahead_reuses_memoized_partitions() {
        let g = generators::erdos_renyi(30, 0.3, WeightKind::Random01, 77);
        let first =
            divide(&g, 6, &PartitionStrategy::Auto, 0, &RefineConfig::default(), 5).unwrap();
        let after_first = partition_memo_hits();
        // the identical divide replays every candidate on the same graph
        // (and the same coarse graphs in the lookahead) — all memo hits
        let second =
            divide(&g, 6, &PartitionStrategy::Auto, 0, &RefineConfig::default(), 5).unwrap();
        assert!(
            partition_memo_hits() > after_first,
            "repeat auto divide recorded no partition-memo hits"
        );
        // memoization must not change the selection
        assert_eq!(first.partition, second.partition);
        assert_eq!(first.effective, second.effective);
    }

    #[test]
    fn graph_fingerprint_separates_weights_and_shape() {
        let a = generators::ring(8);
        let b = generators::ring(9);
        assert_ne!(graph_fingerprint(&a), graph_fingerprint(&b));
        let c = generators::erdos_renyi(8, 0.5, WeightKind::Random01, 1);
        let d = generators::erdos_renyi(8, 0.5, WeightKind::Random01, 2);
        assert_ne!(graph_fingerprint(&c), graph_fingerprint(&d));
        assert_eq!(graph_fingerprint(&a), graph_fingerprint(&generators::ring(8)));
    }

    #[test]
    fn divide_records_metrics_and_attribution() {
        let g = generators::planted_partition(4, 6, 0.9, 0.02, 8);
        let d =
            divide(&g, 6, &PartitionStrategy::default(), 0, &RefineConfig::default(), 1).unwrap();
        assert_eq!(d.communities_before_refine, d.communities_after_refine);
        assert_eq!(d.partition.len(), 4);
        assert!((0.0..=1.0).contains(&d.inter_weight_fraction));
        assert!((d.balance - 1.0).abs() < 1e-12, "planted blocks are balanced");
        assert_eq!(d.requested, "greedy-modularity");
        assert_eq!(d.effective, "greedy-modularity");
        assert!(!d.stall_fallback);
    }

    #[test]
    fn stalled_structural_strategy_is_attributed_to_chunks() {
        // negative weights: CNM returns singletons, the guard degrades
        // to chunks — and the outcome says so instead of lying
        let g = qq_graph::Graph::from_edges(6, [(0, 1, -1.0), (2, 3, -1.0), (4, 5, -1.0)]).unwrap();
        let d = divide(&g, 3, &PartitionStrategy::GreedyModularity, 0, &RefineConfig::default(), 1)
            .unwrap();
        assert_eq!(d.requested, "greedy-modularity");
        assert_eq!(d.effective, "balanced-chunks");
        assert!(d.stall_fallback);
        assert!(d.partition.len() < 6);
    }

    #[test]
    fn refined_divide_never_raises_inter_fraction() {
        for seed in 0..4 {
            let g = generators::erdos_renyi(42, 0.15, WeightKind::Random01, seed);
            for s in PartitionStrategy::builtin() {
                let plain = divide(&g, 8, &s, 0, &RefineConfig::default(), 1).unwrap();
                let refined = divide(&g, 8, &s, 0, &RefineConfig::full(), 1).unwrap();
                assert!(
                    refined.inter_weight_fraction <= plain.inter_weight_fraction + 1e-9,
                    "{} seed {seed}: {} > {}",
                    s.label(),
                    refined.inter_weight_fraction,
                    plain.inter_weight_fraction,
                );
                assert!(refined.partition.max_community_size() <= 8);
            }
        }
    }

    #[test]
    fn auto_divide_matches_or_beats_every_builtin_lookahead() {
        // auto runs the gated portfolio and keeps the best outcome
        // under the lookahead, so no *candidate* strategy can beat it
        // on that score; on positive sparse graphs the portfolio is
        // the full builtin set
        for seed in 0..4 {
            let g = generators::erdos_renyi(48, 0.12, WeightKind::Random01, 40 + seed);
            for refine in [RefineConfig::default(), RefineConfig::full()] {
                let auto = divide(&g, 8, &PartitionStrategy::Auto, 0, &refine, 1).unwrap();
                let auto_value =
                    lookahead_value(&g, &auto.partition, 8, 0, &refine, 1, LOOKAHEAD_BUDGET);
                for s in PartitionStrategy::builtin() {
                    let fixed = divide(&g, 8, &s, 0, &refine, 1).unwrap();
                    let fixed_value =
                        lookahead_value(&g, &fixed.partition, 8, 0, &refine, 1, LOOKAHEAD_BUDGET);
                    assert!(
                        auto_value >= fixed_value - 1e-9,
                        "seed {seed} {}: auto {auto_value} < {fixed_value}",
                        s.label(),
                    );
                }
                assert_eq!(auto.requested, "auto");
                assert_ne!(auto.effective, "auto", "auto must name its concrete choice");
            }
        }
    }

    #[test]
    fn auto_on_negative_merge_graphs_avoids_the_stall_fallback() {
        // the probe sees the negative weight and drops CNM/HEM from the
        // portfolio; the chosen structural strategy contracts on its own
        let g = qq_graph::Graph::from_edges(
            8,
            [(0, 1, -5.0), (2, 3, -5.0), (4, 5, -5.0), (6, 7, -5.0), (1, 2, 0.5), (5, 6, -0.5)],
        )
        .unwrap();
        let d = divide(&g, 2, &PartitionStrategy::Auto, 1, &RefineConfig::default(), 1).unwrap();
        assert!(!d.stall_fallback, "auto fell back to chunks on a structured merge graph");
        assert!(d.partition.len() < 8);
        assert_eq!(d.requested, "auto");
    }

    #[test]
    fn large_instances_size_gate_the_auto_divide() {
        // ~60k nodes, ~120k edges: over the node gate, far under the
        // point where a debug-mode test would hurt. Auto must take the
        // O(m) path — no lookahead, no memo, no superlinear candidates —
        // and say so in the outcome.
        let g = generators::erdos_renyi_fast(60_000, 6.7e-5, WeightKind::Uniform, 99);
        assert!(auto::probe(&g).is_large(), "test instance must cross the gate");
        let d =
            divide(&g, 4_000, &PartitionStrategy::Auto, 0, &RefineConfig::default(), 7).unwrap();
        assert!(d.size_gated, "large instance must attribute the gate");
        assert_eq!(d.requested, "auto");
        assert!(
            matches!(
                d.effective.as_str(),
                "label-propagation" | "multilevel" | "bfs-grow" | "balanced-chunks"
            ),
            "effective strategy {} is not in the O(m) set",
            d.effective
        );
        assert!(d.partition.max_community_size() <= 4_000);
        assert!(d.partition.len() >= 15, "cap 4000 on 60k nodes needs ≥ 15 communities");
        // and a second identical divide reproduces the same selection
        let again =
            divide(&g, 4_000, &PartitionStrategy::Auto, 0, &RefineConfig::default(), 7).unwrap();
        assert_eq!(d.effective, again.effective);
        assert_eq!(d.partition, again.partition);
        // neither gated divide touched the partition memo for this graph:
        // no lookup (so no hit) and no entry. Other tests in the binary
        // use the memo concurrently, so the global counters prove nothing.
        let fp = graph_fingerprint(&g);
        assert!(!MEMO_LOOKUPS.lock().unwrap().contains(&fp), "gated divide consulted the memo");
        assert!(
            !partition_memo().lock().unwrap().keys().any(|k| k.0 == fp),
            "gated divide left a memo entry"
        );

        // small instances stay ungated: lookahead ranking, no gate flag
        let small = generators::erdos_renyi(40, 0.2, WeightKind::Uniform, 1);
        let ds =
            divide(&small, 8, &PartitionStrategy::Auto, 0, &RefineConfig::default(), 7).unwrap();
        assert!(!ds.size_gated);
    }

    #[test]
    fn schedule_resolves_per_level_with_tail_default() {
        let schedule = PartitionSchedule::new(
            vec![PartitionStrategy::Multilevel, PartitionStrategy::BalancedChunks],
            PartitionStrategy::LabelPropagation,
        );
        assert_eq!(schedule.strategy_for(0).label(), "multilevel");
        assert_eq!(schedule.strategy_for(1).label(), "balanced-chunks");
        assert_eq!(schedule.strategy_for(2).label(), "label-propagation");
        assert_eq!(schedule.strategy_for(9).label(), "label-propagation");

        let strategy = PartitionStrategy::scheduled(schedule);
        let g = generators::erdos_renyi(40, 0.15, WeightKind::Uniform, 9);
        let level0 = divide(&g, 8, &strategy, 0, &RefineConfig::default(), 1).unwrap();
        assert_eq!(level0.requested, "multilevel");
        let level1 = divide(&g, 8, &strategy, 1, &RefineConfig::default(), 1).unwrap();
        assert_eq!(level1.requested, "balanced-chunks");
        let deep = divide(&g, 8, &strategy, 5, &RefineConfig::default(), 1).unwrap();
        assert_eq!(deep.requested, "label-propagation");
    }

    #[test]
    fn schedule_can_contain_auto() {
        let strategy = PartitionStrategy::scheduled(PartitionSchedule::new(
            vec![PartitionStrategy::GreedyModularity],
            PartitionStrategy::Auto,
        ));
        let g = generators::erdos_renyi(36, 0.15, WeightKind::Random01, 3);
        let deep = divide(&g, 6, &strategy, 3, &RefineConfig::default(), 1).unwrap();
        assert_eq!(deep.requested, "auto");
        assert_ne!(deep.effective, "auto");
    }

    #[test]
    fn custom_strategy_plugs_in() {
        struct EveryOtherNode;
        impl Partitioner for EveryOtherNode {
            fn label(&self) -> &str {
                "every-other-node"
            }
            fn partition(
                &self,
                g: &Graph,
                _cap: usize,
            ) -> Result<Partition, qq_graph::PartitionError> {
                let n = g.num_nodes();
                let evens: Vec<u32> = (0..n as u32).step_by(2).collect();
                let odds: Vec<u32> = (1..n as u32).step_by(2).collect();
                Partition::try_new(n, vec![evens, odds])
            }
        }
        let s = PartitionStrategy::custom(EveryOtherNode);
        assert_eq!(s.label(), "every-other-node");
        let g = generators::ring(8);
        let d = divide(&g, 4, &s, 0, &RefineConfig::default(), 1).unwrap();
        assert_eq!(d.partition.len(), 2);
        assert_eq!(d.effective, "every-other-node");
        // ring: every edge crosses the even/odd split
        assert!((d.inter_weight_fraction - 1.0).abs() < 1e-12);
    }

    #[test]
    fn custom_strategy_violating_the_cap_is_rejected() {
        struct OneBlob;
        impl Partitioner for OneBlob {
            fn label(&self) -> &str {
                "one-blob"
            }
            fn partition(
                &self,
                g: &Graph,
                _cap: usize,
            ) -> Result<Partition, qq_graph::PartitionError> {
                Partition::try_new(g.num_nodes(), vec![(0..g.num_nodes() as u32).collect()])
            }
        }
        let g = generators::ring(9);
        let s = PartitionStrategy::custom(OneBlob);
        let err = divide(&g, 4, &s, 0, &RefineConfig::default(), 1).unwrap_err();
        assert!(matches!(err, Qaoa2Error::Partition(_)), "{err:?}");
    }

    #[test]
    fn refine_inside_cap_zero_path_is_a_config_error() {
        let g = generators::ring(5);
        for s in [PartitionStrategy::default(), PartitionStrategy::Auto] {
            let err = divide(&g, 0, &s, 0, &RefineConfig::default(), 1).unwrap_err();
            assert!(matches!(err, Qaoa2Error::InvalidConfig(_)), "{err:?}");
        }
    }

    #[test]
    fn swap_refinement_is_gated_by_the_config() {
        // chunks at cap: migration-only refinement cannot act, swap
        // refinement can — visible through the inter-weight fraction
        let g =
            qq_graph::Graph::from_edges(4, [(0, 2, 10.0), (1, 3, 10.0), (0, 1, 1.0), (2, 3, 1.0)])
                .unwrap();
        let s = PartitionStrategy::BalancedChunks;
        let plain = divide(
            &g,
            2,
            &s,
            0,
            &RefineConfig { partition_passes: 4, swap_moves: false, polish_cut: false },
            1,
        )
        .unwrap();
        let swapped = divide(
            &g,
            2,
            &s,
            0,
            &RefineConfig { partition_passes: 4, swap_moves: true, polish_cut: false },
            1,
        )
        .unwrap();
        assert!(
            swapped.inter_weight_fraction < plain.inter_weight_fraction - 0.1,
            "swaps {} vs migration-only {}",
            swapped.inter_weight_fraction,
            plain.inter_weight_fraction
        );
    }
}
