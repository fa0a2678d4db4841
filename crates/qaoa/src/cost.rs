//! Precomputed cost tables and the fused diagonal cost layer.
//!
//! The MaxCut Hamiltonian is diagonal, so `C(z)` for all `2^n` basis
//! states can be tabulated once per graph and reused by every optimizer
//! iteration: the cost layer becomes a single `e^{−iγ·C(z)}` pass
//! (independent of edge count) and the expectation a single weighted sum.
//! This is the same fusion `aer` performs for diagonal operators and is
//! what makes the paper's grid search (thousands of QAOA runs) tractable.

use qq_circuit::CostModel;
use qq_sim::{StateVector, C64};
use rayon::prelude::*;

/// `table[z] = C(z)` for every basis state of an `n`-qubit register.
#[derive(Debug, Clone)]
pub struct CostTable {
    values: Vec<f64>,
    num_qubits: usize,
    /// `Some((min, span))` when every cost is an integer in
    /// `min..=min + span` with `span < 2^n` (see [`integer_range`]): the
    /// cost layer then looks its phases up in a per-layer table of
    /// `span + 1` entries.
    integer_range: Option<(f64, usize)>,
}

/// Amplitudes per parallel task of the cost layer (256 KiB of state).
const LAYER_GRAIN: usize = 1 << 14;

/// Largest magnitude at which every integer cost, and every difference of
/// two of them below `2^n`, is exact in `f64`.
const MAX_EXACT_INTEGER: f64 = (1u64 << 52) as f64;

/// `(min, max − min)` when the phase-table path applies: every value is a
/// finite integer of magnitude at most [`MAX_EXACT_INTEGER`], none is
/// `-0.0`, and `max − min < values.len()`, so the table is never longer
/// than the register. Then `min + (c − min)` reproduces `c` bit for bit.
/// Weighted (non-integral) costs fail on their first fractional value.
fn integer_range(values: &[f64]) -> Option<(f64, usize)> {
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &c in values {
        // NaN and infinite costs fail the magnitude test; below it the
        // i64 round trip is exact for integers and truncates the rest.
        // CAST: |c| ≤ 2^52 is checked first, so c fits i64.
        let exact_integer = c.abs() <= MAX_EXACT_INTEGER && c as i64 as f64 == c;
        if !exact_integer || c.to_bits() == (-0.0f64).to_bits() {
            return None;
        }
        lo = lo.min(c);
        hi = hi.max(c);
    }
    // CAST: kept only when hi − lo is an exact integer below values.len().
    (hi - lo < values.len() as f64).then_some((lo, (hi - lo) as usize))
}

impl CostTable {
    /// Tabulate a cost model over all `2^n` basis states, in parallel
    /// across the rayon pool. The parallel `collect` is order-preserving
    /// (chunks concatenate in basis order), so the table is identical at
    /// any thread count.
    pub fn new(model: &CostModel) -> Self {
        let n = model.num_qubits;
        let size = 1usize << n;
        // REDUCTION: the collect is keyed by basis index z over a fixed
        // DEFAULT_GRAIN range split — each table entry is computed
        // independently, nothing is combined across chunks.
        let values: Vec<f64> =
            (0..size as u64).into_par_iter().map(|z| model.eval_basis(z)).collect();
        let integer_range = integer_range(&values);
        CostTable { values, num_qubits: n, integer_range }
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Cost of one basis state.
    #[inline]
    pub fn value(&self, z: u64) -> f64 {
        self.values[z as usize]
    }

    /// Whether [`CostTable::apply_cost_layer`] takes its phases from a
    /// per-layer table (every cost an integer in a range shorter than the
    /// register).
    pub fn has_phase_table(&self) -> bool {
        self.integer_range.is_some()
    }

    /// Full table.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The certified maximum over all basis states (exact MaxCut value —
    /// available as a by-product for registers small enough to tabulate).
    /// `max` is associative and insensitive to the reduction tree, and the
    /// vendored rayon fixes the tree anyway, so this is deterministic.
    pub fn max_value(&self) -> f64 {
        // REDUCTION: max is associative and order-insensitive, and the
        // vendored pool fixes the DEFAULT_GRAIN reduction tree anyway.
        self.values.par_iter().cloned().reduce(|| f64::MIN, f64::max)
    }

    /// Apply the fused cost layer `|ψ⟩ ← e^{−iγ·C} |ψ⟩` in one pass.
    ///
    /// Integer costs (every unit-weight graph, and integer-weighted merge
    /// graphs with negative weights) take `cis(−γ·k)` from a phase table
    /// with one entry per value `k` in `min..=max`, indexed by `c − min`.
    /// Each entry is the `cis` of the very argument the per-amplitude path
    /// would compute (`min + (c − min)` is `c` exactly), so both paths
    /// give bit-identical states; the table only saves the trigonometry.
    /// Other costs evaluate `cis(−γ·c)` per amplitude.
    pub fn apply_cost_layer(&self, state: &mut StateVector, gamma: f64) {
        assert_eq!(state.num_qubits(), self.num_qubits, "register width mismatch");
        let phases: Option<(f64, Vec<C64>)> = self.integer_range.map(|(min, span)| {
            (min, (0..=span).map(|k| C64::cis(-gamma * (min + k as f64))).collect())
        });
        let layer = |amps: &mut [C64], costs: &[f64]| match &phases {
            Some((min, phases)) => {
                for (a, &c) in amps.iter_mut().zip(costs) {
                    // CAST: integer_range bounds every c − min to 0..=span,
                    // an exact non-negative integer, so the index is exact.
                    *a *= phases[(c - min) as usize];
                }
            }
            None => {
                for (a, &c) in amps.iter_mut().zip(costs) {
                    *a *= C64::cis(-gamma * c);
                }
            }
        };
        // each amplitude's update depends on its own cost alone, so the
        // chunking is invisible in the result
        state
            .amplitudes_mut()
            .par_chunks_mut(LAYER_GRAIN)
            .zip(self.values.par_chunks(LAYER_GRAIN))
            .with_min_len(1)
            .for_each(|(amps, costs)| layer(amps, costs));
    }

    /// Exact ⟨C⟩ under `state`.
    pub fn expectation(&self, state: &StateVector) -> f64 {
        qq_sim::measure::expectation_from_table(state.amplitudes(), &self.values)
    }

    /// Sample-mean ⟨C⟩ from `shots` measurements.
    pub fn sampled_expectation(&self, state: &StateVector, shots: usize, seed: u64) -> f64 {
        let counts = qq_sim::measure::sample_counts(state.amplitudes(), shots, seed);
        let total: f64 = counts.iter().map(|&(z, c)| self.values[z as usize] * c as f64).sum();
        total / shots as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qq_circuit::prelude::*;
    use qq_graph::generators::{self, WeightKind};

    #[test]
    fn table_matches_cut_values() {
        let g = generators::erdos_renyi(7, 0.5, WeightKind::Random01, 3);
        let table = CostTable::new(&CostModel::from_maxcut(&g));
        for z in [0u64, 5, 63, 127] {
            let cut = qq_graph::Cut::from_basis_index(7, z).value(&g);
            assert!((table.value(z) - cut).abs() < 1e-12);
        }
    }

    #[test]
    fn max_value_equals_exact_maxcut() {
        let g = generators::erdos_renyi(10, 0.4, WeightKind::Random01, 8);
        let table = CostTable::new(&CostModel::from_maxcut(&g));
        let exact = qq_classical::exact_maxcut(&g);
        assert!((table.max_value() - exact.value).abs() < 1e-9);
    }

    #[test]
    fn fused_layer_matches_gate_layer() {
        let g = generators::erdos_renyi(6, 0.5, WeightKind::Random01, 5);
        let model = CostModel::from_maxcut(&g);
        let table = CostTable::new(&model);
        let gamma = 0.37;

        // fused path
        let mut fused = qq_sim::StateVector::plus_state(6);
        table.apply_cost_layer(&mut fused, gamma);

        // gate path: one cost layer of the ansatz (γ = gamma, β = 0 means
        // the mixer contributes RX(0) = identity)
        let params = AnsatzParams::new(vec![gamma], vec![0.0]);
        let circuit = Synthesizer::new(Preference::None).qaoa_ansatz(&model, &params);
        let gate = qq_circuit::exec::run_statevector(&circuit);

        for (a, b) in fused.amplitudes().iter().zip(gate.amplitudes()) {
            assert!((*a - *b).norm_sqr() < 1e-18, "{a} vs {b}");
        }
    }

    #[test]
    fn expectation_plus_state_is_half_weight() {
        // ⟨+|H_C|+⟩ = W/2 for any graph
        let g = generators::erdos_renyi(8, 0.4, WeightKind::Uniform, 2);
        let table = CostTable::new(&CostModel::from_maxcut(&g));
        let s = qq_sim::StateVector::plus_state(8);
        assert!((table.expectation(&s) - g.total_weight() / 2.0).abs() < 1e-9);
    }

    #[test]
    fn sampled_expectation_approximates_exact() {
        let g = generators::erdos_renyi(8, 0.4, WeightKind::Uniform, 6);
        let table = CostTable::new(&CostModel::from_maxcut(&g));
        let mut s = qq_sim::StateVector::plus_state(8);
        table.apply_cost_layer(&mut s, 0.3);
        s.rx(2, 0.8);
        let exact = table.expectation(&s);
        let sampled = table.sampled_expectation(&s, 200_000, 4);
        assert!((exact - sampled).abs() < 0.1, "{exact} vs {sampled}");
    }
}
