//! Measurement: shot sampling, diagonal expectations, top-k extraction.
//!
//! The paper runs every circuit with 4096 shots and then takes the bit
//! string with the highest amplitude as the solution; it explicitly notes
//! that inspecting several of the highest amplitudes would be better. Both
//! policies need the primitives here: [`sample_counts`] (multinomial shot
//! sampling), [`expectation_diagonal`] / [`expectation_from_table`] (exact
//! ⟨H_C⟩), and [`top_k_amplitudes`].

use crate::complex::C64;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use rayon::prelude::*;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Exact expectation of a diagonal observable: `Σ_z |a_z|² f(z)`.
///
/// `f` receives the basis index (global, little-endian). `base` offsets the
/// indices so chunked storage can evaluate per chunk.
pub fn expectation_diagonal(amps: &[C64], base: u64, f: impl Fn(u64) -> f64 + Sync) -> f64 {
    // REDUCTION: vendored fixed split tree — DEFAULT_GRAIN leaves over the
    // amplitude slice, partial sums combined in chunk-index order.
    amps.par_iter().enumerate().map(|(i, a)| a.norm_sqr() * f(base + i as u64)).sum()
}

/// Exact expectation against a precomputed value table
/// (`table[z] = f(z)`), the fused fast path used by the QAOA driver.
pub fn expectation_from_table(amps: &[C64], table: &[f64]) -> f64 {
    debug_assert_eq!(amps.len(), table.len());
    // REDUCTION: vendored fixed split tree — zipped slices share one
    // DEFAULT_GRAIN chunking, partial sums combined in chunk-index order.
    amps.par_iter().zip(table.par_iter()).map(|(a, &v)| a.norm_sqr() * v).sum()
}

/// Multinomial shot sampling: draw `shots` basis states from `|a_z|²`.
///
/// Returns `(basis_index, count)` pairs sorted by basis index. Implemented
/// with the sorted-uniforms sweep: `O(2^n + shots·log shots)` and no
/// cumulative-probability allocation, so it works for large registers.
pub fn sample_counts(amps: &[C64], shots: usize, seed: u64) -> Vec<(u64, u32)> {
    sweep_sorted_points(amps.iter().map(|a| a.norm_sqr()), &sorted_uniforms(shots, seed))
}

/// `shots` uniforms in `[0, 1)` from `seed`, sorted ascending — the
/// sample points every shot sampler sweeps.
///
/// Each point is the value `rng.gen::<f64>()` would return: a 53-bit key
/// `next_u64() >> 11` scaled by `2^-53`. The keys are sorted as integers
/// before scaling; the scaling is exact and strictly monotone, so the
/// result equals sorting the `f64` draws, at integer-sort speed.
pub(crate) fn sorted_uniforms(shots: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut keys: Vec<u64> = (0..shots).map(|_| rng.next_u64() >> 11).collect();
    keys.sort_unstable();
    keys.into_iter().map(|k| k as f64 * (1.0 / (1u64 << 53) as f64)).collect()
}

/// Shared sweep: walk probabilities once, consuming sorted sample points.
///
/// Basis state `z` receives every point below the running sum of
/// `P(0..=z)` not taken by an earlier state. The points below the sum are
/// a prefix of the rest (they are sorted), so they are counted four
/// comparisons at a time. Each state's `(z, count)` is written to a small
/// staging buffer unconditionally and kept only when the count is
/// non-zero: shot counts per state are close to random, so a branch on
/// them would mispredict about every other state.
pub(crate) fn sweep_sorted_points(
    probs: impl Iterator<Item = f64>,
    points: &[f64],
) -> Vec<(u64, u32)> {
    let shots = points.len();
    let mut out: Vec<(u64, u32)> = Vec::new();
    let mut staged = [(0u64, 0u32); 64];
    let mut kept = 0usize;
    let mut acc = 0.0f64;
    let mut next = 0usize;
    let below = |i: usize, acc: f64| points.get(i).map_or(0, |&x| usize::from(x < acc));
    for (z, p) in probs.enumerate() {
        if next >= shots {
            break;
        }
        acc += p;
        let start = next;
        loop {
            let k = below(next, acc)
                + below(next + 1, acc)
                + below(next + 2, acc)
                + below(next + 3, acc);
            next += k;
            if k < 4 {
                break;
            }
        }
        // CAST: a count is at most `shots`, which callers keep in u32.
        staged[kept] = (z as u64, (next - start) as u32);
        kept += usize::from(next > start);
        if kept == staged.len() {
            out.extend_from_slice(&staged);
            kept = 0;
        }
    }
    out.extend_from_slice(&staged[..kept]);
    // numerical shortfall (norm slightly below the largest uniform):
    // assign stragglers to the last basis state, preserving shot count.
    if next < shots {
        // CAST: as above, the straggler count is at most `shots`.
        let remaining = (shots - next) as u32;
        match out.last_mut() {
            Some(last) => last.1 += remaining,
            None => out.push((0, remaining)),
        }
    }
    out
}

/// Min-heap entry for top-k selection (ordered by probability ascending so
/// the heap root is the weakest candidate).
#[derive(PartialEq)]
struct HeapItem {
    prob: f64,
    index: u64,
}
impl Eq for HeapItem {}
impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed on probability: BinaryHeap is a max-heap and the root
        // must be the *weakest* candidate. Ties break on index ascending
        // (lower basis index is the stronger candidate), so the weakest of
        // an equal-probability group is the highest index.
        other.prob.total_cmp(&self.prob).then_with(|| self.index.cmp(&other.index))
    }
}

/// The `k` most probable basis states, highest first. Deterministic
/// tie-break on the basis index (lower index wins) keeps solution
/// extraction reproducible.
pub fn top_k_amplitudes(amps: &[C64], k: usize) -> Vec<(u64, f64)> {
    top_k_from_probs(amps.iter().map(|a| a.norm_sqr()), 0, k, Vec::new())
}

/// Streaming top-k over `(index, probability)` pairs starting at `base`;
/// `carry` lets chunked storage fold chunk results together.
pub(crate) fn top_k_from_probs(
    probs: impl Iterator<Item = f64>,
    base: u64,
    k: usize,
    carry: Vec<(u64, f64)>,
) -> Vec<(u64, f64)> {
    if k == 0 {
        return Vec::new();
    }
    let mut heap: BinaryHeap<HeapItem> =
        carry.into_iter().map(|(index, prob)| HeapItem { prob, index }).collect();
    for (i, p) in probs.enumerate() {
        let item = HeapItem { prob: p, index: base + i as u64 };
        if heap.len() < k {
            heap.push(item);
        } else if heap.peek().map(|w| item.cmp(w) == Ordering::Less).unwrap_or(false) {
            // The heap order is reversed (root = weakest candidate), so
            // `Less` means `item` is naturally stronger than the weakest
            // kept candidate — evict and insert.
            heap.pop();
            heap.push(item);
        }
    }
    let mut v: Vec<(u64, f64)> = heap.into_iter().map(|h| (h.index, h.prob)).collect();
    v.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::StateVector;

    #[test]
    fn expectation_of_plus_state_counts_half() {
        // f(z) = bit count: uniform superposition on n qubits → n/2
        let s = StateVector::plus_state(6);
        let e = expectation_diagonal(s.amplitudes(), 0, |z| z.count_ones() as f64);
        assert!((e - 3.0).abs() < 1e-10);
    }

    #[test]
    fn expectation_table_matches_closure() {
        let mut s = StateVector::plus_state(5);
        s.rx(2, 0.7);
        s.rzz(0, 4, 0.3);
        let table: Vec<f64> = (0..32u64).map(|z| (z as f64).sin()).collect();
        let a = expectation_diagonal(s.amplitudes(), 0, |z| (z as f64).sin());
        let b = expectation_from_table(s.amplitudes(), &table);
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn sampling_conserves_shots() {
        let mut s = StateVector::plus_state(4);
        s.ry(1, 0.9);
        let shots = 4096;
        let counts = sample_counts(s.amplitudes(), shots, 11);
        let total: u32 = counts.iter().map(|&(_, c)| c).sum();
        assert_eq!(total as usize, shots);
    }

    #[test]
    fn sorted_uniforms_equal_sorted_float_draws() {
        use rand::Rng;
        for (shots, seed) in [(0, 1), (1, 2), (4096, 3), (50_000, 4)] {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut want: Vec<f64> = (0..shots).map(|_| rng.gen::<f64>()).collect();
            want.sort_by(f64::total_cmp);
            let got = sorted_uniforms(shots, seed);
            assert!(got.iter().map(|x| x.to_bits()).eq(want.iter().map(|x| x.to_bits())));
        }
    }

    #[test]
    fn sweep_counts_runs_longer_than_the_four_wide_compare() {
        // one state takes every point: the counting loop must run on
        // past its four-wide step, and stragglers land on the last state
        let points: Vec<f64> = (0..11).map(|i| i as f64 / 11.0).collect();
        assert_eq!(sweep_sorted_points([0.5, 0.5].into_iter(), &points), vec![(0, 6), (1, 5)]);
        assert_eq!(sweep_sorted_points([0.25, 0.25].into_iter(), &points), vec![(0, 3), (1, 8)]);
    }

    #[test]
    fn sampling_delta_state_hits_single_index() {
        let s = StateVector::zero_state(5);
        let counts = sample_counts(s.amplitudes(), 100, 3);
        assert_eq!(counts, vec![(0, 100)]);
    }

    #[test]
    fn sampling_is_seeded() {
        let s = StateVector::plus_state(6);
        assert_eq!(sample_counts(s.amplitudes(), 512, 9), sample_counts(s.amplitudes(), 512, 9));
    }

    #[test]
    fn sampling_tracks_probabilities() {
        // |ψ⟩ with P(0)=0.25, P(1)=0.75 via RY rotation: cos²(θ/2)=0.25
        let theta = 2.0 * (0.25f64.sqrt()).acos();
        let mut s = StateVector::zero_state(1);
        s.ry(0, theta);
        let shots = 40_000;
        let counts = sample_counts(s.amplitudes(), shots, 17);
        let p1 = counts
            .iter()
            .find(|&&(z, _)| z == 1)
            .map(|&(_, c)| c as f64 / shots as f64)
            .unwrap_or(0.0);
        assert!((p1 - 0.75).abs() < 0.02, "p1 = {p1}");
    }

    #[test]
    fn top_k_orders_by_probability() {
        let mut s = StateVector::zero_state(3);
        s.ry(0, 0.8);
        s.ry(1, 0.3);
        let top = top_k_amplitudes(s.amplitudes(), 3);
        assert_eq!(top.len(), 3);
        assert!(top[0].1 >= top[1].1 && top[1].1 >= top[2].1);
        // exact selection: P(000) > P(001) > P(010) dominate the rest
        let idx: Vec<u64> = top.iter().map(|&(z, _)| z).collect();
        assert_eq!(idx, vec![0, 1, 2]);
    }

    #[test]
    fn top_k_matches_full_sort_reference() {
        let mut s = StateVector::plus_state(6);
        s.ry(0, 0.9);
        s.ry(3, -0.4);
        s.rzz(1, 4, 0.7);
        s.rx(2, 1.3);
        for k in [1, 3, 7, 64] {
            let top = top_k_amplitudes(s.amplitudes(), k);
            let mut reference: Vec<(u64, f64)> =
                s.amplitudes().iter().enumerate().map(|(i, a)| (i as u64, a.norm_sqr())).collect();
            reference.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            reference.truncate(k);
            assert_eq!(top, reference, "k = {k}");
        }
    }

    #[test]
    fn top_k_k_larger_than_space() {
        let s = StateVector::plus_state(2);
        let top = top_k_amplitudes(s.amplitudes(), 10);
        assert_eq!(top.len(), 4);
    }

    #[test]
    fn top_k_zero() {
        let s = StateVector::plus_state(2);
        assert!(top_k_amplitudes(s.amplitudes(), 0).is_empty());
    }

    #[test]
    fn top_k_deterministic_tie_break() {
        let s = StateVector::plus_state(4); // all equal probabilities
        let top = top_k_amplitudes(s.amplitudes(), 5);
        let idx: Vec<u64> = top.iter().map(|&(z, _)| z).collect();
        assert_eq!(idx, vec![0, 1, 2, 3, 4]);
    }
}
