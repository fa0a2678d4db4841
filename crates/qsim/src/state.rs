//! Flat statevector storage.
//!
//! `2^n` amplitudes in one contiguous allocation. Single-qubit gates run in
//! parallel over gate-aligned blocks with rayon; diagonal gates (the entire
//! QAOA cost layer) run in parallel over arbitrary chunks because they touch
//! each amplitude exactly once.

use crate::complex::C64;
use crate::gates::{self, Mat2};
use crate::SimError;
use rayon::prelude::*;

/// Practical register ceiling for flat storage: 2^30 amplitudes = 16 GiB.
pub const MAX_QUBITS: usize = 30;

/// Amplitudes per parallel task for the gate kernels; 2^14 × 16 B =
/// 256 KiB ≈ L2-sized work items. Registers at or below this size run
/// inline (the vendored rayon's fixed split tree never splits below one
/// chunk, so small states pay no pool overhead). The value is a constant
/// — never derived from the worker count — which keeps chunk boundaries,
/// and therefore every floating-point reduction in the suite,
/// bit-identical at any `RAYON_NUM_THREADS` (DESIGN.md §10).
const PAR_GRAIN: usize = 1 << 14;

/// A flat `2^n`-amplitude statevector.
#[derive(Debug, Clone, PartialEq)]
pub struct StateVector {
    amps: Vec<C64>,
    num_qubits: usize,
}

impl StateVector {
    /// `|0…0⟩` on `n` qubits.
    pub fn zero_state(n: usize) -> Self {
        // INVARIANT: documented precondition panic — n must not exceed
        // MAX_QUBITS; use try_zero_state for fallible construction.
        Self::try_zero_state(n).expect("register too large")
    }

    /// Fallible constructor for caller-supplied sizes.
    pub fn try_zero_state(n: usize) -> Result<Self, SimError> {
        if n > MAX_QUBITS {
            return Err(SimError::TooManyQubits { requested: n, max: MAX_QUBITS });
        }
        let mut amps = vec![C64::ZERO; 1usize << n];
        amps[0] = C64::ONE;
        Ok(StateVector { amps, num_qubits: n })
    }

    /// `H^{⊗n}|0…0⟩` — the uniform superposition every QAOA circuit starts
    /// from. Built directly (no gate applications needed).
    pub fn plus_state(n: usize) -> Self {
        let mut s = Self::zero_state(n);
        let amp = C64::real(1.0 / ((1usize << n) as f64).sqrt());
        s.amps.fill(amp);
        s
    }

    /// Construct from raw amplitudes (length must be a power of two).
    pub fn from_amplitudes(amps: Vec<C64>) -> Self {
        assert!(amps.len().is_power_of_two(), "amplitude count must be 2^n");
        let num_qubits = amps.len().trailing_zeros() as usize;
        StateVector { amps, num_qubits }
    }

    /// Number of qubits.
    #[inline]
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Amplitude slice.
    #[inline]
    pub fn amplitudes(&self) -> &[C64] {
        &self.amps
    }

    /// Mutable amplitude slice (used by circuit execution).
    #[inline]
    pub fn amplitudes_mut(&mut self) -> &mut [C64] {
        &mut self.amps
    }

    /// Squared norm; 1 for any valid quantum state.
    pub fn norm_sqr(&self) -> f64 {
        // REDUCTION: vendored fixed split tree — DEFAULT_GRAIN leaves,
        // partial sums combined in chunk-index order by execute_ordered.
        self.amps.par_iter().map(|a| a.norm_sqr()).sum()
    }

    /// Measurement probability of basis state `i`.
    #[inline]
    pub fn probability(&self, i: usize) -> f64 {
        self.amps[i].norm_sqr()
    }

    fn check_qubit(&self, q: usize) -> Result<(), SimError> {
        if q >= self.num_qubits {
            Err(SimError::QubitOutOfRange { qubit: q, num_qubits: self.num_qubits })
        } else {
            Ok(())
        }
    }

    /// Apply an arbitrary single-qubit unitary to qubit `q`.
    pub fn apply_1q(&mut self, q: usize, m: &Mat2) {
        // INVARIANT: documented precondition panic — callers must pass
        // qubit indices < num_qubits (see SimError::QubitOutOfRange).
        self.check_qubit(q).expect("qubit in range");
        self.par_blocks(q, |chunk| gates::apply_1q(chunk, q, m));
    }

    /// Hadamard on qubit `q`.
    pub fn h(&mut self, q: usize) {
        self.apply_1q(q, &gates::h_matrix());
    }

    /// Pauli-X on qubit `q`.
    pub fn x(&mut self, q: usize) {
        self.apply_1q(q, &gates::x_matrix());
    }

    /// `RX(θ)` on qubit `q` — the QAOA mixer gate, through the
    /// specialised [`gates::apply_rx`] kernel (the same amplitudes as
    /// `apply_1q(q, &rx_matrix(θ))`, at about half the arithmetic).
    pub fn rx(&mut self, q: usize, theta: f64) {
        // INVARIANT: documented precondition panic — callers must pass
        // qubit indices < num_qubits (see SimError::QubitOutOfRange).
        self.check_qubit(q).expect("qubit in range");
        self.par_blocks(q, |chunk| gates::apply_rx(chunk, q, theta));
    }

    /// `RX(θ)` on every qubit, in ascending order — the QAOA mixer
    /// `e^{−iθ/2·ΣX}`. Bit-identical to `rx(q, θ)` for `q = 0..n`: the
    /// qubits inside a `PAR_GRAIN` chunk run back to back on each chunk
    /// while it is cache-resident, the rest two per sweep (see
    /// [`gates::apply_rx_wall`]); every amplitude still takes its qubits'
    /// updates in ascending order.
    pub fn rx_all(&mut self, theta: f64) {
        let n = self.num_qubits;
        let local = n.min(PAR_GRAIN.trailing_zeros() as usize);
        if local > 0 {
            self.par_blocks(local - 1, |chunk| gates::apply_rx_wall(chunk, 0..local, theta));
        }
        for q in (local..n).step_by(2) {
            let top = (q + 1).min(n - 1);
            self.par_blocks(top, |chunk| gates::apply_rx_wall(chunk, q..top + 1, theta));
        }
    }

    /// `RY(θ)` on qubit `q`.
    pub fn ry(&mut self, q: usize, theta: f64) {
        self.apply_1q(q, &gates::ry_matrix(theta));
    }

    /// `RZ(θ)` on qubit `q` (diagonal fast path).
    pub fn rz(&mut self, q: usize, theta: f64) {
        // INVARIANT: documented precondition panic — callers must pass
        // qubit indices < num_qubits (see SimError::QubitOutOfRange).
        self.check_qubit(q).expect("qubit in range");
        self.par_diag(|amps, base| gates::apply_rz(amps, base, q, theta));
    }

    /// `RZZ(θ)` between `qa` and `qb` — the QAOA cost gate.
    pub fn rzz(&mut self, qa: usize, qb: usize, theta: f64) {
        // INVARIANT: documented precondition panic — callers must pass
        // qubit indices < num_qubits (see SimError::QubitOutOfRange).
        self.check_qubit(qa).expect("qubit in range");
        // INVARIANT: documented precondition panic — callers must pass
        // qubit indices < num_qubits (see SimError::QubitOutOfRange).
        self.check_qubit(qb).expect("qubit in range");
        assert_ne!(qa, qb, "rzz needs two distinct qubits");
        self.par_diag(|amps, base| gates::apply_rzz(amps, base, qa, qb, theta));
    }

    /// Controlled-Z between `qa` and `qb`.
    pub fn cz(&mut self, qa: usize, qb: usize) {
        // INVARIANT: documented precondition panic — callers must pass
        // qubit indices < num_qubits (see SimError::QubitOutOfRange).
        self.check_qubit(qa).expect("qubit in range");
        // INVARIANT: documented precondition panic — callers must pass
        // qubit indices < num_qubits (see SimError::QubitOutOfRange).
        self.check_qubit(qb).expect("qubit in range");
        self.par_diag(|amps, base| gates::apply_cz(amps, base, qa, qb));
    }

    /// CNOT with control `c`, target `t` — block-parallel pair swaps,
    /// like [`StateVector::apply_1q`]: blocks of `2^(max(c,t)+1)`
    /// amplitudes are self-contained for the swap pattern.
    pub fn cnot(&mut self, c: usize, t: usize) {
        // INVARIANT: documented precondition panic — callers must pass
        // qubit indices < num_qubits (see SimError::QubitOutOfRange).
        self.check_qubit(c).expect("qubit in range");
        // INVARIANT: documented precondition panic — callers must pass
        // qubit indices < num_qubits (see SimError::QubitOutOfRange).
        self.check_qubit(t).expect("qubit in range");
        assert_ne!(c, t, "cnot needs two distinct qubits");
        self.par_blocks(c.max(t), |chunk| gates::apply_cnot(chunk, c, t));
    }

    /// Global phase `e^{iφ}`.
    pub fn global_phase(&mut self, phi: f64) {
        self.par_diag(|amps, _| gates::apply_global_phase(amps, phi));
    }

    /// Apply a fused run of diagonal gates (see [`gates::DiagTerm`]) —
    /// always exactly **one** sweep over the state, however many gates
    /// the run folded.
    pub fn apply_diag_block(&mut self, phase0: f64, terms: &[gates::DiagTerm]) {
        let dim = 1u64 << self.num_qubits;
        for t in terms {
            assert!(t.mask < dim, "diagonal term mask exceeds the register");
        }
        let plan = gates::DiagPlan::new(phase0, terms);
        self.par_diag(|amps, base| plan.apply(amps, base));
    }

    /// Apply a wall of independent single-qubit unitaries (distinct
    /// qubits) in as few sweeps as possible, returning the number of
    /// full-state sweeps performed.
    ///
    /// Gates whose `2^(q+1)` block fits inside a `PAR_GRAIN` chunk are
    /// applied back-to-back on each chunk while it is cache-resident —
    /// one memory sweep for that whole sub-wall, on the same fixed chunk
    /// boundaries as every other kernel. The few gates above the chunk
    /// size go through the per-gate block path.
    pub fn apply_1q_wall(&mut self, mats: &[(usize, Mat2)]) -> usize {
        for &(q, _) in mats {
            // INVARIANT: documented precondition panic — callers must
            // pass qubit indices < num_qubits.
            self.check_qubit(q).expect("qubit in range");
        }
        if mats.is_empty() {
            return 0;
        }
        if self.amps.len() <= PAR_GRAIN {
            gates::apply_1q_wall(&mut self.amps, mats);
            return 1;
        }
        let (low, high): (Vec<_>, Vec<_>) =
            mats.iter().copied().partition(|&(q, _)| (1usize << (q + 1)) <= PAR_GRAIN);
        let mut sweeps = 0;
        if !low.is_empty() {
            self.amps.par_chunks_mut(PAR_GRAIN).for_each(|chunk| gates::apply_1q_wall(chunk, &low));
            sweeps += 1;
        }
        for (q, m) in high {
            self.apply_1q(q, &m);
            sweeps += 1;
        }
        sweeps
    }

    /// Run a pairing kernel whose highest qubit is `q` over parallel
    /// blocks: blocks of `2^(q+1)` amplitudes are self-contained for it.
    fn par_blocks(&mut self, q: usize, f: impl Fn(&mut [C64]) + Send + Sync) {
        let block = 1usize << (q + 1);
        if block >= self.amps.len() || self.amps.len() <= PAR_GRAIN {
            f(&mut self.amps);
        } else {
            self.amps.par_chunks_mut(block.max(PAR_GRAIN)).for_each(f);
        }
    }

    /// Run a diagonal kernel over parallel chunks, passing each chunk its
    /// global base index.
    fn par_diag(&mut self, f: impl Fn(&mut [C64], u64) + Sync) {
        if self.amps.len() <= PAR_GRAIN {
            f(&mut self.amps, 0);
        } else {
            self.amps
                .par_chunks_mut(PAR_GRAIN)
                .enumerate()
                .for_each(|(i, chunk)| f(chunk, (i * PAR_GRAIN) as u64));
        }
    }

    /// L2-normalize (guards against drift in very deep circuits).
    pub fn renormalize(&mut self) {
        let n = self.norm_sqr().sqrt();
        if n > 0.0 {
            let inv = 1.0 / n;
            self.amps.par_iter_mut().for_each(|a| *a = a.scale(inv));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-10;

    #[test]
    fn zero_state_is_normalized_delta() {
        let s = StateVector::zero_state(5);
        assert_eq!(s.num_qubits(), 5);
        assert!((s.norm_sqr() - 1.0).abs() < EPS);
        assert!((s.probability(0) - 1.0).abs() < EPS);
    }

    #[test]
    fn plus_state_is_uniform() {
        let s = StateVector::plus_state(4);
        let p = 1.0 / 16.0;
        for i in 0..16 {
            assert!((s.probability(i) - p).abs() < EPS);
        }
    }

    #[test]
    fn plus_state_matches_hadamards() {
        let mut s = StateVector::zero_state(3);
        for q in 0..3 {
            s.h(q);
        }
        let direct = StateVector::plus_state(3);
        for (a, b) in s.amplitudes().iter().zip(direct.amplitudes()) {
            assert!((*a - *b).norm_sqr() < EPS);
        }
    }

    #[test]
    fn gates_preserve_norm() {
        let mut s = StateVector::plus_state(6);
        s.rx(0, 0.31);
        s.ry(3, -1.7);
        s.rz(5, 2.2);
        s.rzz(1, 4, 0.9);
        s.cz(0, 5);
        s.cnot(2, 3);
        s.h(1);
        assert!((s.norm_sqr() - 1.0).abs() < EPS);
    }

    #[test]
    fn bell_state_probabilities() {
        let mut s = StateVector::zero_state(2);
        s.h(0);
        s.cnot(0, 1);
        assert!((s.probability(0) - 0.5).abs() < EPS);
        assert!((s.probability(3) - 0.5).abs() < EPS);
        assert!(s.probability(1) < EPS);
        assert!(s.probability(2) < EPS);
    }

    #[test]
    fn rzz_symmetric_in_qubit_order() {
        let mut a = StateVector::plus_state(3);
        let mut b = StateVector::plus_state(3);
        a.rx(0, 0.4);
        b.rx(0, 0.4);
        a.rzz(0, 2, 0.8);
        b.rzz(2, 0, 0.8);
        for (x, y) in a.amplitudes().iter().zip(b.amplitudes()) {
            assert!((*x - *y).norm_sqr() < EPS);
        }
    }

    #[test]
    #[should_panic(expected = "qubit in range")]
    fn out_of_range_qubit_panics() {
        let mut s = StateVector::zero_state(2);
        s.h(2);
    }

    #[test]
    fn too_many_qubits_is_error() {
        assert!(matches!(
            StateVector::try_zero_state(40),
            Err(SimError::TooManyQubits { requested: 40, .. })
        ));
    }

    #[test]
    fn renormalize_restores_unit_norm() {
        let mut s = StateVector::plus_state(3);
        for a in s.amplitudes_mut() {
            *a = a.scale(3.0);
        }
        s.renormalize();
        assert!((s.norm_sqr() - 1.0).abs() < EPS);
    }

    /// Cross-check the block-parallel cnot against the sequential kernel
    /// on a register large enough (2^15 > PAR_GRAIN) to take the parallel
    /// path, covering low/low, low/high and high/high bit positions.
    #[test]
    fn parallel_cnot_matches_sequential() {
        let n = 15;
        let mut base = StateVector::plus_state(n);
        for q in 0..n {
            base.rx(q, 0.11 + 0.07 * q as f64);
        }
        for (c, t) in [(0, 1), (1, 0), (0, 14), (14, 0), (13, 14), (3, 9)] {
            let mut par = base.clone();
            par.cnot(c, t);
            let mut seq = base.clone();
            gates::apply_cnot(&mut seq.amps, c, t);
            assert_eq!(par.amps, seq.amps, "cnot({c},{t})");
        }
    }

    /// The fused diagonal sweep and the cache-blocked wall must match the
    /// per-gate paths bit-for-bit irrelevant of chunking — exercised on a
    /// register that actually splits into parallel chunks.
    #[test]
    fn fused_entry_points_match_per_gate_paths() {
        let n = 15;
        let mut base = StateVector::plus_state(n);
        for q in 0..n {
            base.ry(q, 0.2 + 0.03 * q as f64);
        }

        let terms = [
            gates::DiagTerm { mask: 0b11, coef: -0.35 },
            gates::DiagTerm { mask: 1 << 14, coef: 0.2 },
            gates::DiagTerm { mask: (1 << 3) | (1 << 13), coef: 0.9 },
        ];
        let mut fused = base.clone();
        fused.apply_diag_block(0.4, &terms);
        // Chunk invariance: the parallel chunked path must be bit-identical
        // to the same plan applied over the whole slice at once.
        let plan = gates::DiagPlan::new(0.4, &terms);
        let mut whole = base.clone();
        plan.apply(&mut whole.amps, 0);
        assert_eq!(fused.amps, whole.amps, "diag block vs whole-slice plan");
        // ...and numerically equal to the per-term reference kernel (the
        // table-driven plan sums phases in a different order, so this leg
        // is a tolerance check, not a bit check).
        let mut seq = base.clone();
        gates::apply_diag_terms(&mut seq.amps, 0, 0.4, &terms);
        for (a, b) in fused.amplitudes().iter().zip(seq.amplitudes()) {
            assert!((*a - *b).norm_sqr() < EPS, "diag block vs reference kernel");
        }

        // wall mixing low-stride (cache-blocked) and high-stride gates
        let wall =
            [(0usize, gates::h_matrix()), (7, gates::rx_matrix(0.31)), (14, gates::ry_matrix(1.1))];
        let mut walled = base.clone();
        let sweeps = walled.apply_1q_wall(&wall);
        assert_eq!(sweeps, 2, "one cache-blocked sweep + one high-qubit pass");
        let mut gated = base.clone();
        for (q, m) in &wall {
            gated.apply_1q(*q, m);
        }
        assert_eq!(walled.amps, gated.amps, "wall vs per-gate application");
    }

    #[test]
    fn rx_all_is_bit_identical_to_one_rx_per_qubit() {
        // 15 and 17 qubits put one and three qubits above the PAR_GRAIN
        // chunk, where the wall runs as whole-state sweeps
        for n in [1, 2, 7, 15, 17] {
            let mut wall = StateVector::plus_state(n);
            if n > 1 {
                wall.rzz(0, n - 1, 0.4);
            }
            wall.rz(n / 2, 1.1);
            let mut each = wall.clone();
            wall.rx_all(0.83);
            for q in 0..n {
                each.apply_1q(q, &gates::rx_matrix(0.83));
            }
            let bits = |s: &StateVector| -> Vec<(u64, u64)> {
                s.amplitudes().iter().map(|a| (a.re.to_bits(), a.im.to_bits())).collect()
            };
            assert!(bits(&wall) == bits(&each), "n = {n}");
        }
    }

    /// Cross-check the parallel block decomposition against the sequential
    /// kernel on every qubit position.
    #[test]
    fn parallel_gate_matches_sequential_all_qubits() {
        for q in 0..6 {
            let mut par = StateVector::plus_state(6);
            par.rx(1, 0.3); // make it non-symmetric
            let mut seq = par.clone();
            let m = gates::rx_matrix(1.234);
            par.apply_1q(q, &m);
            gates::apply_1q(&mut seq.amps, q, &m);
            for (a, b) in par.amplitudes().iter().zip(seq.amplitudes()) {
                assert!((*a - *b).norm_sqr() < EPS, "qubit {q}");
            }
        }
    }
}
