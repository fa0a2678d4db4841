//! Ansatz execution: build `|ψ_p(β, γ)⟩` for a parameter vector.
//!
//! Solvers build every state with [`build_state_fused`]: per layer, the
//! cost layer from the precomputed [`CostTable`] and the RX mixer wall
//! (DESIGN.md, "The QAOA state kernel"). [`build_state_circuit`] executes
//! the synthesized gate circuit instead; it is the fidelity reference in
//! tests, and [`circuit_metrics`] reports that circuit's shape.

use crate::cost::CostTable;
use qq_circuit::{AnsatzParams, CostModel, Preference, Synthesizer};
use qq_sim::StateVector;

/// Build the QAOA state with the fused cost layer.
///
/// Per layer: one `e^{−iγC}` pass from the table, then the mixer wall
/// `RX(2β)` on every qubit. Bit-identical to applying `cis(−γ·C(z))` per
/// amplitude and the generic `RX(2β)` matrix qubit by qubit.
pub fn build_state_fused(table: &CostTable, params: &AnsatzParams) -> StateVector {
    let n = table.num_qubits();
    let mut state = StateVector::plus_state(n);
    for (&gamma, &beta) in params.gammas.iter().zip(&params.betas) {
        table.apply_cost_layer(&mut state, gamma);
        state.rx_all(2.0 * beta);
    }
    state
}

/// Build the QAOA state by synthesizing and executing the gate circuit.
pub fn build_state_circuit(
    model: &CostModel,
    params: &AnsatzParams,
    preference: Preference,
) -> StateVector {
    let circuit = Synthesizer::new(preference).qaoa_ansatz(model, params);
    qq_circuit::exec::run_statevector(&circuit)
}

/// Summary of the synthesized ansatz circuit (reported in results so the
/// workflow can reason about NISQ feasibility, as the paper's Classiq
/// integration does).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CircuitMetrics {
    /// Parallel-layer depth.
    pub depth: usize,
    /// Total gate count.
    pub gates: usize,
    /// Two-qubit gate count.
    pub two_qubit: usize,
}

/// Synthesize once and measure the circuit.
pub fn circuit_metrics(
    model: &CostModel,
    params: &AnsatzParams,
    preference: Preference,
) -> CircuitMetrics {
    let circuit = Synthesizer::new(preference).qaoa_ansatz(model, params);
    CircuitMetrics {
        depth: circuit.depth(),
        gates: circuit.gate_count(),
        two_qubit: circuit.two_qubit_count(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qq_graph::generators::{self, WeightKind};

    #[test]
    fn fused_and_circuit_paths_agree() {
        let g = generators::erdos_renyi(7, 0.45, WeightKind::Random01, 9);
        let model = CostModel::from_maxcut(&g);
        let table = CostTable::new(&model);
        let params = AnsatzParams::new(vec![0.3, 0.7, 0.2], vec![0.5, 0.1, 0.4]);
        let fused = build_state_fused(&table, &params);
        let gate = build_state_circuit(&model, &params, Preference::Depth);
        let mut overlap = qq_sim::C64::ZERO;
        for (a, b) in fused.amplitudes().iter().zip(gate.amplitudes()) {
            overlap += a.conj() * *b;
        }
        assert!((overlap.abs() - 1.0).abs() < 1e-9, "overlap {}", overlap.abs());
    }

    #[test]
    fn metrics_scale_with_layers() {
        let g = generators::ring(8);
        let model = CostModel::from_maxcut(&g);
        let p1 = AnsatzParams::new(vec![0.1], vec![0.1]);
        let p3 = AnsatzParams::new(vec![0.1; 3], vec![0.1; 3]);
        let m1 = circuit_metrics(&model, &p1, Preference::Depth);
        let m3 = circuit_metrics(&model, &p3, Preference::Depth);
        assert!(m3.depth > m1.depth);
        assert_eq!(m3.two_qubit, 3 * m1.two_qubit);
    }

    #[test]
    fn zero_beta_keeps_uniform_probabilities_symmetric() {
        // γ-only evolution applies phases; probabilities stay uniform
        let g = generators::ring(5);
        let table = CostTable::new(&CostModel::from_maxcut(&g));
        let params = AnsatzParams::new(vec![0.9], vec![0.0]);
        let s = build_state_fused(&table, &params);
        for i in 0..32 {
            assert!((s.probability(i) - 1.0 / 32.0).abs() < 1e-12);
        }
    }
}
