//! Cache-blocked (chunked) statevector — the Doi & Horii technique that
//! Qiskit `aer` uses to scale statevector simulation across the nodes of a
//! supercomputer, re-created in-process.
//!
//! The `2^n` amplitudes are split into `2^(n−c)` chunks of `2^c`. A gate on
//! qubit `q < c` touches each chunk independently (perfectly parallel, and
//! the chunk fits in cache). A gate on `q ≥ c` pairs chunk `k` with chunk
//! `k XOR 2^(q−c)` — on a distributed machine that pair lives on two MPI
//! ranks and requires a send/receive of both chunks. [`CommStats`] counts
//! those exchanges and their byte volume, which is what the paper's
//! scaling efficiency (§4, 33 qubits on 512 nodes) is governed by.
//!
//! Diagonal gates — the *entire QAOA cost layer* — never pair chunks
//! because each amplitude's phase depends only on its own index. This is
//! why QAOA simulates so well under cache blocking and is the property the
//! sim-scaling experiment demonstrates.

use crate::complex::C64;
use crate::gates::{self, Mat2};
use crate::measure;
use crate::SimError;
use rayon::prelude::*;

/// Communication/operation counters for one simulation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommStats {
    /// Chunk-local kernel invocations (no communication).
    pub local_chunk_ops: u64,
    /// Chunk-pair operations (each ≙ one MPI send/receive pair).
    pub pair_exchanges: u64,
    /// Bytes that would cross the network: 2 × chunk bytes per exchange.
    pub bytes_exchanged: u64,
}

impl CommStats {
    /// Reset all counters.
    pub fn reset(&mut self) {
        *self = CommStats::default();
    }
}

/// Raw-pointer handle into the chunk table, shared across the pair
/// fan-out of [`BlockedState::apply_1q`]. Sound because every task
/// dereferences a disjoint pair of chunk indices (see the SAFETY comment
/// at the use site).
struct ChunkPtr(*mut Vec<C64>);

// SAFETY: the pointer is only dereferenced at indices proven disjoint
// across tasks, and the pointee outlives the parallel scope.
unsafe impl Send for ChunkPtr {}
unsafe impl Sync for ChunkPtr {}

/// Chunked statevector with communication accounting.
#[derive(Debug, Clone)]
pub struct BlockedState {
    chunks: Vec<Vec<C64>>,
    num_qubits: usize,
    chunk_qubits: usize,
    stats: CommStats,
}

impl BlockedState {
    /// `|0…0⟩` on `n` qubits stored as chunks of `2^chunk_qubits`
    /// amplitudes. `chunk_qubits` must not exceed `n`.
    pub fn zero_state(n: usize, chunk_qubits: usize) -> Result<Self, SimError> {
        if n > crate::state::MAX_QUBITS {
            return Err(SimError::TooManyQubits { requested: n, max: crate::state::MAX_QUBITS });
        }
        let c = chunk_qubits.min(n);
        let chunk_len = 1usize << c;
        let num_chunks = 1usize << (n - c);
        let mut chunks = vec![vec![C64::ZERO; chunk_len]; num_chunks];
        chunks[0][0] = C64::ONE;
        Ok(BlockedState { chunks, num_qubits: n, chunk_qubits: c, stats: CommStats::default() })
    }

    /// Uniform superposition `H^{⊗n}|0…0⟩`.
    pub fn plus_state(n: usize, chunk_qubits: usize) -> Result<Self, SimError> {
        let mut s = Self::zero_state(n, chunk_qubits)?;
        let amp = C64::real(1.0 / ((1u64 << n) as f64).sqrt());
        for chunk in &mut s.chunks {
            chunk.fill(amp);
        }
        Ok(s)
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// log2 of chunk length.
    pub fn chunk_qubits(&self) -> usize {
        self.chunk_qubits
    }

    /// Number of chunks (≙ simulated MPI ranks).
    pub fn num_chunks(&self) -> usize {
        self.chunks.len()
    }

    /// Communication statistics accumulated so far.
    pub fn stats(&self) -> CommStats {
        self.stats
    }

    /// Reset communication statistics.
    pub fn reset_stats(&mut self) {
        self.stats.reset();
    }

    fn check_qubit(&self, q: usize) -> Result<(), SimError> {
        if q >= self.num_qubits {
            Err(SimError::QubitOutOfRange { qubit: q, num_qubits: self.num_qubits })
        } else {
            Ok(())
        }
    }

    /// Apply a single-qubit unitary to qubit `q`.
    pub fn apply_1q(&mut self, q: usize, m: &Mat2) -> Result<(), SimError> {
        self.pairwise(
            q,
            |chunk| gates::apply_1q(chunk, q, m),
            |lo, hi| gates::apply_1q_paired(lo, hi, m),
        )
    }

    /// Run a single-qubit kernel on qubit `q`: `local` on every chunk
    /// when `q` is chunk-local, otherwise `paired` on every chunk pair
    /// that differs in chunk bit `q − chunk_qubits`.
    fn pairwise(
        &mut self,
        q: usize,
        local: impl Fn(&mut [C64]) + Sync,
        paired: impl Fn(&mut [C64], &mut [C64]) + Sync,
    ) -> Result<(), SimError> {
        self.check_qubit(q)?;
        if q < self.chunk_qubits {
            // chunk-local: each cache-sized chunk is one coarse work item
            self.chunks.par_iter_mut().with_min_len(1).for_each(|chunk| local(chunk));
            self.stats.local_chunk_ops += self.chunks.len() as u64;
        } else {
            // chunk-pair: groups of 2^(b+1) chunks pair first/second halves.
            // Fan a single parallel level directly over the pair indices —
            // group/offset arithmetic recovers each (lo, hi) pair, so no
            // Vec of split borrows is allocated per call, and the flat
            // fan-out still avoids the nested shape that degrades to one
            // task for the top qubit.
            let b = q - self.chunk_qubits;
            let half = 1usize << b;
            let chunk_bytes = (self.chunks[0].len() * std::mem::size_of::<C64>()) as u64;
            let pairs = self.chunks.len() / 2;
            let base = ChunkPtr(self.chunks.as_mut_ptr());
            let base = &base; // capture the Sync wrapper, not the raw field
            (0..pairs).into_par_iter().with_min_len(1).for_each(|p| {
                let lo = (p / half) * (half << 1) + (p % half);
                let hi = lo + half;
                // SAFETY: `lo`/`hi` are distinct (they differ in bit `b`)
                // and the {lo, hi} sets of different `p` are disjoint —
                // `p` ↦ (group, offset) is a bijection onto the lo side —
                // so each chunk is mutably borrowed by exactly one task,
                // and `base` outlives the parallel scope.
                unsafe { paired(&mut *base.0.add(lo), &mut *base.0.add(hi)) };
            });
            self.stats.pair_exchanges += pairs as u64;
            self.stats.bytes_exchanged += pairs as u64 * 2 * chunk_bytes;
        }
        Ok(())
    }

    /// Hadamard.
    pub fn h(&mut self, q: usize) -> Result<(), SimError> {
        self.apply_1q(q, &gates::h_matrix())
    }

    /// `RX(θ)` — the QAOA mixer gate, through the same specialised
    /// kernel as [`crate::StateVector::rx`].
    pub fn rx(&mut self, q: usize, theta: f64) -> Result<(), SimError> {
        self.pairwise(
            q,
            |chunk| gates::apply_rx(chunk, q, theta),
            |lo, hi| gates::apply_rx_paired(lo, hi, theta),
        )
    }

    /// `RZ(θ)` — diagonal, always chunk-local.
    pub fn rz(&mut self, q: usize, theta: f64) -> Result<(), SimError> {
        self.check_qubit(q)?;
        self.diag(|amps, base| gates::apply_rz(amps, base, q, theta));
        Ok(())
    }

    /// `RZZ(θ)` — diagonal, always chunk-local *regardless of qubit
    /// indices*: the entire QAOA cost layer costs zero communication.
    pub fn rzz(&mut self, qa: usize, qb: usize, theta: f64) -> Result<(), SimError> {
        self.check_qubit(qa)?;
        self.check_qubit(qb)?;
        if qa == qb {
            return Err(SimError::DuplicateQubit { qubit: qa });
        }
        self.diag(|amps, base| gates::apply_rzz(amps, base, qa, qb, theta));
        Ok(())
    }

    /// Apply a fused run of diagonal gates (see [`gates::DiagTerm`]) —
    /// one chunk-local pass over the whole state and **zero** pair
    /// exchanges, exactly like every other diagonal gate: the phase of an
    /// amplitude depends only on its own global index, which the chunk
    /// base encodes.
    pub fn apply_diag_block(
        &mut self,
        phase0: f64,
        terms: &[gates::DiagTerm],
    ) -> Result<(), SimError> {
        let dim = 1u64 << self.num_qubits;
        for t in terms {
            if t.mask >= dim {
                return Err(SimError::QubitOutOfRange {
                    qubit: (63 - t.mask.leading_zeros()) as usize,
                    num_qubits: self.num_qubits,
                });
            }
        }
        let plan = gates::DiagPlan::new(phase0, terms);
        self.diag(|amps, base| plan.apply(amps, base));
        Ok(())
    }

    /// Apply a wall of independent single-qubit unitaries (distinct
    /// qubits), returning the number of whole-state passes performed.
    ///
    /// Chunk-local gates (`q < chunk_qubits`) are applied back-to-back on
    /// each chunk while it is cache-resident — one pass for the whole
    /// local sub-wall. Gates on chunk-crossing qubits go through the
    /// per-gate pairing path (each ≙ one MPI exchange round) and are
    /// counted in [`CommStats`] as usual.
    pub fn apply_1q_wall(&mut self, mats: &[(usize, Mat2)]) -> Result<usize, SimError> {
        for &(q, _) in mats {
            self.check_qubit(q)?;
        }
        if mats.is_empty() {
            return Ok(0);
        }
        let (local, high): (Vec<_>, Vec<_>) =
            mats.iter().copied().partition(|&(q, _)| q < self.chunk_qubits);
        let mut passes = 0;
        if !local.is_empty() {
            self.chunks
                .par_iter_mut()
                .with_min_len(1)
                .for_each(|chunk| gates::apply_1q_wall(chunk, &local));
            self.stats.local_chunk_ops += self.chunks.len() as u64;
            passes += 1;
        }
        for (q, m) in high {
            self.apply_1q(q, &m)?;
            passes += 1;
        }
        Ok(passes)
    }

    fn diag(&mut self, f: impl Fn(&mut [C64], u64) + Sync) {
        let cq = self.chunk_qubits;
        self.chunks.par_iter_mut().with_min_len(1).enumerate().for_each(|(k, chunk)| {
            f(chunk, (k as u64) << cq);
        });
        self.stats.local_chunk_ops += self.chunks.len() as u64;
    }

    /// Squared norm.
    pub fn norm_sqr(&self) -> f64 {
        // REDUCTION: fixed 2^chunk_qubits amplitude blocks (with_min_len(1)
        // = one leaf per block); inner sums are sequential per block and the
        // outer sum combines in chunk-index order.
        self.chunks
            .par_iter()
            .with_min_len(1)
            .map(|c| c.iter().map(|a| a.norm_sqr()).sum::<f64>())
            .sum()
    }

    /// Probability of global basis state `i`.
    pub fn probability(&self, i: u64) -> f64 {
        let chunk = (i >> self.chunk_qubits) as usize;
        let off = (i & ((1u64 << self.chunk_qubits) - 1)) as usize;
        self.chunks[chunk][off].norm_sqr()
    }

    /// Exact expectation of a diagonal observable `Σ_z |a_z|² f(z)`.
    pub fn expectation_diagonal(&self, f: impl Fn(u64) -> f64 + Sync) -> f64 {
        let cq = self.chunk_qubits;
        // REDUCTION: fixed 2^chunk_qubits amplitude blocks, one leaf per
        // block; per-block sums combined in chunk-index order.
        self.chunks
            .par_iter()
            .with_min_len(1)
            .enumerate()
            .map(|(k, chunk)| {
                let base = (k as u64) << cq;
                chunk
                    .iter()
                    .enumerate()
                    .map(|(i, a)| a.norm_sqr() * f(base + i as u64))
                    .sum::<f64>()
            })
            .sum()
    }

    /// Multinomial shot sampling (matches
    /// [`crate::measure::sample_counts`] on the flattened state).
    pub fn sample_counts(&self, shots: usize, seed: u64) -> Vec<(u64, u32)> {
        measure::sweep_sorted_points(
            self.chunks.iter().flat_map(|c| c.iter().map(|a| a.norm_sqr())),
            &measure::sorted_uniforms(shots, seed),
        )
    }

    /// The `k` most probable basis states, highest first.
    pub fn top_k_amplitudes(&self, k: usize) -> Vec<(u64, f64)> {
        let mut carry = Vec::new();
        for (kk, chunk) in self.chunks.iter().enumerate() {
            let base = (kk as u64) << self.chunk_qubits;
            carry = measure::top_k_from_probs(chunk.iter().map(|a| a.norm_sqr()), base, k, carry);
        }
        carry
    }

    /// Flatten into a [`crate::StateVector`] (test/diagnostic use).
    pub fn to_statevector(&self) -> crate::StateVector {
        let mut amps = Vec::with_capacity(1usize << self.num_qubits);
        for chunk in &self.chunks {
            amps.extend_from_slice(chunk);
        }
        crate::StateVector::from_amplitudes(amps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::StateVector;

    const EPS: f64 = 1e-10;

    /// Run the same random circuit on flat and blocked storage and compare
    /// every amplitude.
    fn cross_check(n: usize, chunk_qubits: usize) {
        let mut flat = StateVector::plus_state(n);
        let mut blk = BlockedState::plus_state(n, chunk_qubits).unwrap();
        let ops: Vec<(usize, usize, f64)> =
            (0..3 * n).map(|i| (i % n, (i * 7 + 3) % n, 0.1 + 0.07 * i as f64)).collect();
        for &(qa, qb, th) in &ops {
            flat.rx(qa, th);
            blk.rx(qa, th).unwrap();
            if qa != qb {
                flat.rzz(qa, qb, th * 1.3);
                blk.rzz(qa, qb, th * 1.3).unwrap();
            }
            flat.rz(qb, -th);
            blk.rz(qb, -th).unwrap();
        }
        let flat2 = blk.to_statevector();
        for (a, b) in flat.amplitudes().iter().zip(flat2.amplitudes()) {
            assert!((*a - *b).norm_sqr() < EPS);
        }
    }

    #[test]
    fn blocked_matches_flat_small_chunks() {
        cross_check(6, 2);
    }

    #[test]
    fn blocked_matches_flat_single_chunk() {
        cross_check(5, 5);
    }

    #[test]
    fn blocked_matches_flat_one_amp_chunks() {
        cross_check(4, 0);
    }

    #[test]
    fn high_qubit_gate_counts_exchanges() {
        let mut s = BlockedState::plus_state(6, 3).unwrap();
        s.rx(1, 0.3).unwrap(); // local
        assert_eq!(s.stats().pair_exchanges, 0);
        s.rx(5, 0.3).unwrap(); // top qubit: 4 chunk pairs
        assert_eq!(s.stats().pair_exchanges, 4);
        let chunk_bytes = (1usize << 3) * std::mem::size_of::<C64>();
        assert_eq!(s.stats().bytes_exchanged, 4 * 2 * chunk_bytes as u64);
    }

    #[test]
    fn cost_layer_is_communication_free() {
        let mut s = BlockedState::plus_state(8, 4).unwrap();
        // rzz across the chunk boundary — still no exchanges
        s.rzz(0, 7, 0.9).unwrap();
        s.rzz(6, 7, 0.4).unwrap();
        assert_eq!(s.stats().pair_exchanges, 0);
        assert!(s.stats().local_chunk_ops > 0);
    }

    #[test]
    fn norm_preserved() {
        let mut s = BlockedState::plus_state(7, 3).unwrap();
        s.h(6).unwrap();
        s.rx(2, 1.0).unwrap();
        s.rzz(1, 6, 0.5).unwrap();
        assert!((s.norm_sqr() - 1.0).abs() < EPS);
    }

    #[test]
    fn sampling_matches_flat_sampling() {
        let mut blk = BlockedState::plus_state(5, 2).unwrap();
        blk.rx(3, 0.8).unwrap();
        let flat = blk.to_statevector();
        assert_eq!(
            blk.sample_counts(2048, 5),
            crate::measure::sample_counts(flat.amplitudes(), 2048, 5)
        );
    }

    #[test]
    fn top_k_matches_flat() {
        let mut blk = BlockedState::plus_state(6, 3).unwrap();
        blk.ry_test(0.7);
        let flat = blk.to_statevector();
        assert_eq!(blk.top_k_amplitudes(5), crate::measure::top_k_amplitudes(flat.amplitudes(), 5));
    }

    impl BlockedState {
        /// test helper: a non-uniform deterministic state
        fn ry_test(&mut self, theta: f64) {
            let m = crate::gates::ry_matrix(theta);
            for q in 0..self.num_qubits {
                self.apply_1q(q % self.num_qubits, &m).unwrap();
            }
            self.rzz(0, self.num_qubits - 1, 0.3).unwrap();
        }
    }

    #[test]
    fn fused_entry_points_match_flat() {
        use crate::gates::{h_matrix, rx_matrix, DiagTerm};
        let n = 6;
        let terms = [DiagTerm { mask: 0b11, coef: -0.4 }, DiagTerm { mask: 0b101000, coef: 0.7 }];
        let wall = [(0usize, h_matrix()), (3, rx_matrix(0.4)), (5, rx_matrix(-0.9))];
        for cq in [0, 2, 6] {
            let mut blk = BlockedState::plus_state(n, cq).unwrap();
            let mut flat = StateVector::plus_state(n);
            blk.apply_diag_block(0.3, &terms).unwrap();
            flat.apply_diag_block(0.3, &terms);
            // the fused diagonal sweep is communication-free like any
            // other diagonal gate
            assert_eq!(blk.stats().pair_exchanges, 0);
            blk.apply_1q_wall(&wall).unwrap();
            flat.apply_1q_wall(&wall);
            let flat2 = blk.to_statevector();
            for (a, b) in flat.amplitudes().iter().zip(flat2.amplitudes()) {
                assert!((*a - *b).norm_sqr() < EPS, "chunk_qubits={cq}");
            }
        }
    }

    #[test]
    fn diag_block_mask_out_of_range_rejected() {
        let mut s = BlockedState::plus_state(3, 1).unwrap();
        let bad = [crate::gates::DiagTerm { mask: 1 << 3, coef: 0.1 }];
        assert!(matches!(
            s.apply_diag_block(0.0, &bad),
            Err(SimError::QubitOutOfRange { qubit: 3, num_qubits: 3 })
        ));
    }

    #[test]
    fn duplicate_qubit_rejected() {
        let mut s = BlockedState::plus_state(3, 1).unwrap();
        assert!(matches!(s.rzz(1, 1, 0.5), Err(SimError::DuplicateQubit { qubit: 1 })));
    }

    #[test]
    fn probability_indexing() {
        let s = BlockedState::zero_state(6, 2).unwrap();
        assert!((s.probability(0) - 1.0).abs() < EPS);
        assert!(s.probability(17) < EPS);
    }
}
