//! Replays of the QAOA sub-solve kernels on sub-graphs captured from a
//! traced solve, one kernel at a time, each through its public API.
//!
//! Inside a solve every sub-solve runs on a pool worker, where nested
//! parallel operations run inline; the replays run inside
//! [`rayon::sequential_scope`] to match. Bytes moved are computed from
//! array sizes (16-byte amplitudes, 8-byte cost entries), not measured,
//! so they ignore cache misses.

use qq_circuit::{AnsatzParams, CostModel};
use qq_graph::Graph;
use qq_qaoa::{executor, CostTable, QaoaConfig};
use qq_sim::StateVector;
use std::hint::black_box;
use std::time::Instant;

/// Per-unit kernel costs, medians over the captured sub-graphs.
#[derive(Debug, Clone, Copy, Default)]
pub struct KernelRates {
    /// Register width of the captured sub-graphs.
    pub qubits: usize,
    pub cost_table_ns_per_amp: f64,
    pub cost_layer_ns_per_amp: f64,
    pub mixer_ns_per_amp_qubit: f64,
    pub sample_ns_per_shot: f64,
    pub circuit_metrics_us: f64,
}

/// Computed bytes moved per amplitude: the cost table writes one f64.
pub const COST_TABLE_BYTES_PER_AMP: f64 = 8.0;
/// The cost layer reads the table entry and reads and writes the
/// amplitude.
pub const COST_LAYER_BYTES_PER_AMP: f64 = 8.0 + 2.0 * 16.0;
/// One mixer qubit reads and writes every amplitude once.
pub const MIXER_BYTES_PER_AMP_QUBIT: f64 = 2.0 * 16.0;
/// Sampling reads every amplitude once to build the distribution.
pub const SAMPLE_BYTES_PER_AMP: f64 = 16.0;

/// Amplitude-visits each amplitude kernel is timed over per graph:
/// enough that a 2^12 register is replayed 1024 times.
const AMPS_PER_KERNEL: usize = 1 << 22;

/// Replay every kernel on each of `graphs` with `cfg`'s ansatz depth,
/// shots and synthesis preference. `None` when no QAOA sub-graph was
/// captured (the workload bypasses QAOA).
pub fn replay(graphs: &[Graph], cfg: &QaoaConfig) -> Option<KernelRates> {
    let first = graphs.first()?;
    let per_graph: Vec<KernelRates> =
        rayon::sequential_scope(|| graphs.iter().map(|g| replay_one(g, cfg)).collect());
    let med = |f: fn(&KernelRates) -> f64| {
        let mut v: Vec<f64> = per_graph.iter().map(f).collect();
        crate::median(&mut v)
    };
    Some(KernelRates {
        qubits: first.num_nodes(),
        cost_table_ns_per_amp: med(|r| r.cost_table_ns_per_amp),
        cost_layer_ns_per_amp: med(|r| r.cost_layer_ns_per_amp),
        mixer_ns_per_amp_qubit: med(|r| r.mixer_ns_per_amp_qubit),
        sample_ns_per_shot: med(|r| r.sample_ns_per_shot),
        circuit_metrics_us: med(|r| r.circuit_metrics_us),
    })
}

fn replay_one(g: &Graph, cfg: &QaoaConfig) -> KernelRates {
    let n = g.num_nodes();
    let amps = 1usize << n;
    let reps = (AMPS_PER_KERNEL / amps).clamp(4, 1024);
    let model = CostModel::from_maxcut(g);
    let params = AnsatzParams::from_vec(cfg.layers, &cfg.default_initial_params());
    let (gamma, theta) = (params.gammas[0], 2.0 * params.betas[0]);

    let cost_table = median_secs(reps, || {
        black_box(CostTable::new(black_box(&model)));
    });
    let table = CostTable::new(&model);
    let mut state = StateVector::plus_state(n);
    let cost_layer = median_secs(reps, || table.apply_cost_layer(black_box(&mut state), gamma));
    let mixer = median_secs(reps, || {
        for q in 0..n {
            state.rx(q, theta);
        }
        black_box(&mut state);
    });
    // sampling cost scales with shots and register size; a few dozen
    // draws over the state the layers above left behind
    let sample = median_secs(reps.min(64), || {
        black_box(table.sampled_expectation(black_box(&state), cfg.shots, 7));
    });
    let metrics = median_secs(reps.min(64), || {
        black_box(executor::circuit_metrics(black_box(&model), &params, cfg.preference));
    });
    KernelRates {
        qubits: n,
        cost_table_ns_per_amp: cost_table * 1e9 / amps as f64,
        cost_layer_ns_per_amp: cost_layer * 1e9 / amps as f64,
        mixer_ns_per_amp_qubit: mixer * 1e9 / (amps * n) as f64,
        sample_ns_per_shot: sample * 1e9 / cfg.shots as f64,
        circuit_metrics_us: metrics * 1e6,
    }
}

/// Median wall time of `reps` calls of `f`, in seconds.
fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    crate::median(&mut samples)
}
