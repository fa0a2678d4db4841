//! Gate kernels over raw amplitude slices.
//!
//! Every kernel works on a `&mut [C64]` whose length is a power of two, so
//! the flat [`crate::StateVector`] and the chunk-pair paths of
//! [`crate::BlockedState`] share the exact same code. Kernels are
//! sequential; parallelism is layered on top by the storage engines
//! (rayon over aligned blocks / chunks), which keeps the hot loops simple
//! enough for LLVM to vectorize.
//!
//! Conventions (standard little-endian, qubit `q` ↦ bit `q` of the basis
//! index):
//!
//! * `RX(θ) = exp(−iθX/2)`
//! * `RZ(θ) = exp(−iθZ/2) = diag(e^{−iθ/2}, e^{+iθ/2})`
//! * `RZZ(θ) = exp(−iθ(Z⊗Z)/2)` — diagonal, phase `e^{−iθ/2}` when the two
//!   bits agree and `e^{+iθ/2}` when they differ.

use crate::complex::C64;

/// A 2×2 complex matrix in row-major order: `[m00, m01, m10, m11]`.
pub type Mat2 = [C64; 4];

/// Hadamard matrix.
pub fn h_matrix() -> Mat2 {
    let s = std::f64::consts::FRAC_1_SQRT_2;
    [C64::real(s), C64::real(s), C64::real(s), C64::real(-s)]
}

/// Pauli-X matrix.
pub fn x_matrix() -> Mat2 {
    [C64::ZERO, C64::ONE, C64::ONE, C64::ZERO]
}

/// Pauli-Y matrix.
pub fn y_matrix() -> Mat2 {
    [C64::ZERO, -C64::I, C64::I, C64::ZERO]
}

/// Pauli-Z matrix.
pub fn z_matrix() -> Mat2 {
    [C64::ONE, C64::ZERO, C64::ZERO, -C64::ONE]
}

/// `RX(θ) = exp(−iθX/2)`.
pub fn rx_matrix(theta: f64) -> Mat2 {
    let (s, c) = (theta / 2.0).sin_cos();
    [C64::real(c), C64::new(0.0, -s), C64::new(0.0, -s), C64::real(c)]
}

/// `RY(θ) = exp(−iθY/2)`.
pub fn ry_matrix(theta: f64) -> Mat2 {
    let (s, c) = (theta / 2.0).sin_cos();
    [C64::real(c), C64::real(-s), C64::real(s), C64::real(c)]
}

/// `RZ(θ) = exp(−iθZ/2)`.
pub fn rz_matrix(theta: f64) -> Mat2 {
    [C64::cis(-theta / 2.0), C64::ZERO, C64::ZERO, C64::cis(theta / 2.0)]
}

/// Multiply two 2×2 matrices: `a · b`.
pub fn mat_mul(a: &Mat2, b: &Mat2) -> Mat2 {
    [
        a[0] * b[0] + a[1] * b[2],
        a[0] * b[1] + a[1] * b[3],
        a[2] * b[0] + a[3] * b[2],
        a[2] * b[1] + a[3] * b[3],
    ]
}

/// Whether a matrix is (numerically) unitary — used by debug assertions and
/// the circuit-synthesis validator.
pub fn is_unitary(m: &Mat2, tol: f64) -> bool {
    // rows of m times conjugate-transpose columns must give identity
    let dot = |r0: C64, r1: C64, c0: C64, c1: C64| r0 * c0.conj() + r1 * c1.conj();
    let e00 = dot(m[0], m[1], m[0], m[1]);
    let e01 = dot(m[0], m[1], m[2], m[3]);
    let e11 = dot(m[2], m[3], m[2], m[3]);
    (e00 - C64::ONE).norm_sqr() < tol && e01.norm_sqr() < tol && (e11 - C64::ONE).norm_sqr() < tol
}

/// Apply a single-qubit gate to qubit `q` of an amplitude slice.
///
/// `amps.len()` must be a power of two and `2^q < amps.len()`.
pub fn apply_1q(amps: &mut [C64], q: usize, m: &Mat2) {
    let n = amps.len();
    let stride = 1usize << q;
    debug_assert!(n.is_power_of_two() && stride < n);
    let (m00, m01, m10, m11) = (m[0], m[1], m[2], m[3]);
    let block = stride << 1;
    let mut base = 0;
    while base < n {
        for i in base..base + stride {
            let a = amps[i];
            let b = amps[i + stride];
            amps[i] = m00 * a + m01 * b;
            amps[i + stride] = m10 * a + m11 * b;
        }
        base += block;
    }
}

/// Apply a single-qubit gate across a chunk pair: `lo` holds the
/// amplitudes with the target bit 0, `hi` those with the bit 1.
///
/// This is the kernel a rank runs after an MPI exchange in the
/// cache-blocked scheme; the slices are element-aligned.
pub fn apply_1q_paired(lo: &mut [C64], hi: &mut [C64], m: &Mat2) {
    debug_assert_eq!(lo.len(), hi.len());
    let (m00, m01, m10, m11) = (m[0], m[1], m[2], m[3]);
    for (a, b) in lo.iter_mut().zip(hi.iter_mut()) {
        let (x, y) = (*a, *b);
        *a = m00 * x + m01 * y;
        *b = m10 * x + m11 * y;
    }
}

/// `RX(θ)` on qubit `q` of an amplitude slice — the QAOA mixer kernel.
///
/// Specialised to RX's structure: with `(s, c) = sin_cos(θ/2)`, each pair
/// `(a, b)` becomes `a' = (c·a.re + s·b.im, c·a.im − s·b.re)` and
/// `b' = (s·a.im + c·b.re, c·b.im − s·a.re)` — 8 multiplies and 4 adds
/// against the generic kernel's 16 and 12. These are, operation for
/// operation, the products and sums [`apply_1q`] computes with
/// [`rx_matrix`] once its exact-zero terms are dropped (`x·0` and
/// `x − (−y) = x + y` are exact), with no FMA contraction and no
/// reassociation. Every amplitude therefore comes out bit-identical to
/// the generic kernel's. The one exception is the sign of an exact zero
/// (adding a dropped `±0` term can flip it), and through additions,
/// multiplications and `|a|²` a zero's sign never reaches a non-zero
/// value.
pub fn apply_rx(amps: &mut [C64], q: usize, theta: f64) {
    let n = amps.len();
    let stride = 1usize << q;
    debug_assert!(n.is_power_of_two() && stride < n);
    let (s, c) = (theta / 2.0).sin_cos();
    if stride == 1 {
        let ns = std::hint::black_box(-s);
        for pair in amps.chunks_exact_mut(2) {
            (pair[0], pair[1]) = rx_pair(pair[0], pair[1], c, s, ns);
        }
    } else {
        for block in amps.chunks_exact_mut(stride << 1) {
            let (lo, hi) = block.split_at_mut(stride);
            rx_paired(lo, hi, c, s);
        }
    }
}

/// `RX(θ)` on each of `qubits`, in ascending order — the QAOA mixer wall,
/// or the part of it local to `amps` (`2^qubits.end ≤ amps.len()`).
///
/// Two qubits share one sweep: each group of four amplitudes that differ
/// in bits `q` and `q + 1` is loaded once, takes the `q` pair updates and
/// then the `q + 1` pair updates, and is stored once. Every amplitude
/// sees exactly the operations, in the order, that [`apply_rx`] on `q`
/// and then on `q + 1` would apply, so the result is bit-identical to
/// one [`apply_rx`] sweep per qubit with half the memory traffic.
pub fn apply_rx_wall(amps: &mut [C64], qubits: std::ops::Range<usize>, theta: f64) {
    debug_assert!(qubits.end == 0 || (1usize << qubits.end) <= amps.len());
    let (s, c) = (theta / 2.0).sin_cos();
    let ns = std::hint::black_box(-s);
    let mut q = qubits.start;
    while q + 1 < qubits.end {
        let stride = 1usize << q;
        for block in amps.chunks_exact_mut(stride << 2) {
            let (lo, hi) = block.split_at_mut(stride << 1);
            let (a0, a1) = lo.split_at_mut(stride);
            let (a2, a3) = hi.split_at_mut(stride);
            for (((x0, x1), x2), x3) in
                a0.iter_mut().zip(a1.iter_mut()).zip(a2.iter_mut()).zip(a3.iter_mut())
            {
                let (y0, y1) = rx_pair(*x0, *x1, c, s, ns);
                let (y2, y3) = rx_pair(*x2, *x3, c, s, ns);
                (*x0, *x2) = rx_pair(y0, y2, c, s, ns);
                (*x1, *x3) = rx_pair(y1, y3, c, s, ns);
            }
        }
        q += 2;
    }
    if q < qubits.end {
        apply_rx(amps, q, theta);
    }
}

/// [`apply_rx`] across a chunk pair (see [`apply_1q_paired`]).
pub fn apply_rx_paired(lo: &mut [C64], hi: &mut [C64], theta: f64) {
    debug_assert_eq!(lo.len(), hi.len());
    let (s, c) = (theta / 2.0).sin_cos();
    rx_paired(lo, hi, c, s);
}

#[inline(always)]
fn rx_paired(lo: &mut [C64], hi: &mut [C64], c: f64, s: f64) {
    let ns = std::hint::black_box(-s);
    for (a, b) in lo.iter_mut().zip(hi.iter_mut()) {
        (*a, *b) = rx_pair(*a, *b, c, s, ns);
    }
}

/// One RX pair update, written lane-symmetric — `a' = c·a + (s, −s)·(b.im,
/// b.re)` and the same with `a`, `b` swapped — so LLVM keeps each complex
/// in one SIMD register. `x + (−s)·y` is `x − s·y` exactly and `+`
/// commutes, so these are the formulas documented on [`apply_rx`].
/// Callers pass `ns = black_box(−s)`: a known `−s` would be folded back
/// into `x − s·y`, which costs an add, a subtract and a blend per lane
/// pair instead of one add.
#[inline(always)]
fn rx_pair(a: C64, b: C64, c: f64, s: f64, ns: f64) -> (C64, C64) {
    (
        C64::new(c * a.re + s * b.im, c * a.im + ns * b.re),
        C64::new(c * b.re + s * a.im, c * b.im + ns * a.re),
    )
}

/// Apply `RZ(θ)` to qubit `q` — diagonal, so done in a single pass without
/// pairing (cheaper than the generic kernel).
pub fn apply_rz(amps: &mut [C64], base_index: u64, q: usize, theta: f64) {
    let p0 = C64::cis(-theta / 2.0);
    let p1 = C64::cis(theta / 2.0);
    apply_diag_bit(amps, base_index, q, p0, p1);
}

/// Apply `RZZ(θ)` between qubits `qa` and `qb`.
///
/// Diagonal: amplitudes where the two bits agree pick up `e^{−iθ/2}`, the
/// rest `e^{+iθ/2}`. `base_index` is the global index of `amps[0]`, which
/// lets chunk-local storage apply phases for qubits above the chunk
/// boundary without any communication — the key property of cache blocking
/// that makes the QAOA cost layer embarrassingly parallel.
pub fn apply_rzz(amps: &mut [C64], base_index: u64, qa: usize, qb: usize, theta: f64) {
    debug_assert_ne!(qa, qb);
    let same = C64::cis(-theta / 2.0);
    let diff = C64::cis(theta / 2.0);
    let ma = 1u64 << qa;
    let mb = 1u64 << qb;
    for (i, a) in amps.iter_mut().enumerate() {
        let idx = base_index + i as u64;
        let parity = ((idx & ma) != 0) ^ ((idx & mb) != 0);
        *a *= if parity { diff } else { same };
    }
}

/// Apply a controlled-Z between `qa` and `qb` (symmetric).
pub fn apply_cz(amps: &mut [C64], base_index: u64, qa: usize, qb: usize) {
    let ma = 1u64 << qa;
    let mb = 1u64 << qb;
    for (i, a) in amps.iter_mut().enumerate() {
        let idx = base_index + i as u64;
        if (idx & ma) != 0 && (idx & mb) != 0 {
            *a = -*a;
        }
    }
}

/// Apply a CNOT with control `c` and target `t` on a flat slice
/// (both qubits local). Swaps amplitude pairs where the control bit is set.
pub fn apply_cnot(amps: &mut [C64], c: usize, t: usize) {
    debug_assert_ne!(c, t);
    let n = amps.len();
    let mc = 1usize << c;
    let mt = 1usize << t;
    for i in 0..n {
        // visit each pair once: control set, target clear
        if (i & mc) != 0 && (i & mt) == 0 {
            amps.swap(i, i | mt);
        }
    }
}

/// One term of a fused diagonal phase function: contributes
/// `coef · (−1)^popcount(idx & mask)` to the phase of amplitude `idx`.
///
/// Every diagonal gate is a sum of such parity terms — `RZ(q, θ)` is
/// `(1 << q, −θ/2)`, `RZZ(a, b, θ)` is `((1<<a)|(1<<b), −θ/2)`, and `CZ`
/// decomposes into three of them plus a constant — so an arbitrary run of
/// commuting diagonal gates collapses into one term list plus a constant
/// phase, applied by [`apply_diag_terms`] in a single sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiagTerm {
    /// Qubit-set mask the parity is taken over.
    pub mask: u64,
    /// Phase contribution when the parity is even; negated when odd.
    pub coef: f64,
}

/// Largest term count routed through the precomputed sign-combination
/// table in [`apply_diag_terms`]: `2^8` multipliers (4 KiB) amortize over
/// any realistic chunk while keeping the build cost negligible.
const DIAG_TABLE_MAX_TERMS: usize = 8;

/// Apply a fused run of diagonal gates in **one** sweep: amplitude `idx`
/// is multiplied by `e^{iφ(idx)}` with
/// `φ(idx) = phase0 + Σ_t coef_t · (−1)^popcount(idx & mask_t)`.
///
/// Two regimes, both chosen so the hot loop does **no** trigonometry —
/// a per-amplitude `sin_cos` (~9 ns) would hand the win right back to
/// the per-gate kernels, which multiply by precomputed constants:
///
/// * `m ≤ 8` terms: the multiplier takes only `2^m` values, one per sign
///   combination; precompute them all and reduce each amplitude to `m`
///   popcount-bit inserts plus one table lookup and complex multiply.
/// * `m > 8`: branchless phase accumulation (the parity flips the coef's
///   IEEE sign bit directly — a data-dependent branch here mispredicts
///   ~50% and dominates the sweep) and a single `cis` per amplitude,
///   amortized over the many terms.
///
/// The phase is a pure per-amplitude function of the global index (no
/// cross-amplitude reduction), and the table depends only on
/// `(phase0, terms)`, so any chunking of the state — and any placement
/// of those chunks across threads — yields bit-identical results.
/// `base_index` is the global index of `amps[0]`, exactly as in
/// [`apply_rzz`].
pub fn apply_diag_terms(amps: &mut [C64], base_index: u64, phase0: f64, terms: &[DiagTerm]) {
    if terms.len() <= DIAG_TABLE_MAX_TERMS {
        let mut table = [C64::ZERO; 1 << DIAG_TABLE_MAX_TERMS];
        for (combo, slot) in table.iter_mut().enumerate().take(1 << terms.len()) {
            let mut phi = phase0;
            for (t_i, t) in terms.iter().enumerate() {
                phi += if combo >> t_i & 1 == 0 { t.coef } else { -t.coef };
            }
            *slot = C64::cis(phi);
        }
        for (i, a) in amps.iter_mut().enumerate() {
            let idx = base_index + i as u64;
            let mut key = 0usize;
            for (t_i, t) in terms.iter().enumerate() {
                key |= (((idx & t.mask).count_ones() as usize) & 1) << t_i;
            }
            *a *= table[key];
        }
        return;
    }
    for (i, a) in amps.iter_mut().enumerate() {
        let idx = base_index + i as u64;
        let mut phi = phase0;
        for t in terms {
            // odd popcount parity negates coef: flip the IEEE sign bit
            let sign = ((idx & t.mask).count_ones() as u64 & 1) << 63;
            phi += f64::from_bits(t.coef.to_bits() ^ sign);
        }
        *a *= C64::cis(phi);
    }
}

/// Precomputed execution plan for one fused diagonal sweep — the form the
/// storage engines actually run ([`apply_diag_terms`] is the plain
/// reference kernel).
///
/// Terms are packed into groups of ≤ 8. For each group, parity extraction
/// is byte-sliced: a per-byte-position table maps each byte value of the
/// amplitude index to the 8-bit vector of term parities it contributes,
/// and the group key is the XOR of those lookups — parities add mod 2
/// across bytes. A second 256-entry table maps the key directly to a
/// pre-exponentiated complex multiplier `e^{iΣ±coef}` (`phase0` folded
/// into the first group), so the hot loop is a few byte-table lookups and
/// one complex multiply per 8 terms — no trigonometry, no popcount, no
/// per-term branch.
///
/// The plan is a pure function of `(phase0, terms)` and the per-amplitude
/// update is a pure function of the global index, so results are
/// bit-identical under any chunking of the state and any thread count.
/// Multi-group sweeps multiply per-group `cis` values instead of summing
/// phases before one `cis`, a differently-rounded (but ~1 ulp) version of
/// the naive per-term kernel — fused vs unfused equivalence is an overlap
/// check, never a bit check.
#[derive(Debug, Clone)]
pub struct DiagPlan {
    groups: Vec<DiagGroup>,
    /// Applied when there are no groups (pure global phase).
    constant: C64,
}

#[derive(Debug, Clone)]
struct DiagGroup {
    /// `(bit shift, table)`: table[byte] = parity bits of this group's
    /// terms contributed by `idx >> shift & 0xff`.
    keys: Vec<(u32, [u8; 256])>,
    /// key → `e^{i(Σ ±coef)}` over the group's terms (first group also
    /// carries `e^{i·phase0}`).
    mults: Box<[C64; 256]>,
}

impl DiagGroup {
    fn new(terms: &[DiagTerm], phase0: f64) -> Self {
        debug_assert!(terms.len() <= 8);
        let union = terms.iter().fold(0u64, |u, t| u | t.mask);
        let mut keys = Vec::new();
        for k in 0..8u32 {
            let shift = 8 * k;
            if union >> shift & 0xff == 0 {
                continue;
            }
            let mut tbl = [0u8; 256];
            for (byte, slot) in tbl.iter_mut().enumerate() {
                let bits = (byte as u64) << shift;
                for (j, t) in terms.iter().enumerate() {
                    *slot |= (((bits & t.mask).count_ones() as u8) & 1) << j;
                }
            }
            keys.push((shift, tbl));
        }
        let mut mults = Box::new([C64::ZERO; 256]);
        for combo in 0..1usize << terms.len() {
            let mut phi = phase0;
            for (j, t) in terms.iter().enumerate() {
                phi += if combo >> j & 1 == 0 { t.coef } else { -t.coef };
            }
            mults[combo] = C64::cis(phi);
        }
        DiagGroup { keys, mults }
    }

    #[inline(always)]
    fn key(&self, idx: u64) -> usize {
        let mut key = 0u8;
        for (shift, tbl) in &self.keys {
            key ^= tbl[(idx >> shift & 0xff) as usize];
        }
        key as usize
    }
}

impl DiagPlan {
    /// Build the plan for `φ(idx) = phase0 + Σ coef·(−1)^popcount(idx & mask)`.
    pub fn new(phase0: f64, terms: &[DiagTerm]) -> Self {
        let groups: Vec<DiagGroup> = terms
            .chunks(8)
            .enumerate()
            .map(|(i, chunk)| DiagGroup::new(chunk, if i == 0 { phase0 } else { 0.0 }))
            .collect();
        DiagPlan { groups, constant: C64::cis(phase0) }
    }

    /// Execute the sweep over one slice; `base_index` is the global index
    /// of `amps[0]`.
    pub fn apply(&self, amps: &mut [C64], base_index: u64) {
        match self.groups.as_slice() {
            [] => {
                let m = self.constant;
                for a in amps.iter_mut() {
                    *a *= m;
                }
            }
            [g] => {
                for (i, a) in amps.iter_mut().enumerate() {
                    *a *= g.mults[g.key(base_index + i as u64)];
                }
            }
            [first, rest @ ..] => {
                for (i, a) in amps.iter_mut().enumerate() {
                    let idx = base_index + i as u64;
                    let mut m = first.mults[first.key(idx)];
                    for g in rest {
                        m *= g.mults[g.key(idx)];
                    }
                    *a *= m;
                }
            }
        }
    }
}

/// Apply a wall of independent single-qubit gates to one slice while it is
/// cache-resident: every `(q, m)` pair must satisfy `2^(q+1) ≤ amps.len()`
/// (callers route larger-stride gates through their pairing paths). The
/// storage engines call this once per cache-sized chunk, so the whole wall
/// costs a single memory sweep instead of one per gate.
pub fn apply_1q_wall(amps: &mut [C64], mats: &[(usize, Mat2)]) {
    for (q, m) in mats {
        apply_1q(amps, *q, m);
    }
}

/// Shared helper: multiply amplitudes by `p0`/`p1` depending on bit `q` of
/// the global index.
fn apply_diag_bit(amps: &mut [C64], base_index: u64, q: usize, p0: C64, p1: C64) {
    let mask = 1u64 << q;
    for (i, a) in amps.iter_mut().enumerate() {
        let idx = base_index + i as u64;
        *a *= if idx & mask == 0 { p0 } else { p1 };
    }
}

/// Apply a global phase `e^{iφ}` (used by synthesis passes when folding
/// the constant term of the cost Hamiltonian).
pub fn apply_global_phase(amps: &mut [C64], phi: f64) {
    let p = C64::cis(phi);
    for a in amps.iter_mut() {
        *a *= p;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-12;

    fn approx(a: C64, b: C64) -> bool {
        (a - b).norm_sqr() < EPS
    }

    #[test]
    fn standard_matrices_are_unitary() {
        for m in [
            h_matrix(),
            x_matrix(),
            y_matrix(),
            z_matrix(),
            rx_matrix(0.37),
            ry_matrix(1.2),
            rz_matrix(-2.1),
        ] {
            assert!(is_unitary(&m, 1e-20));
        }
    }

    #[test]
    fn hadamard_twice_is_identity() {
        let mut amps = vec![C64::ONE, C64::ZERO];
        let h = h_matrix();
        apply_1q(&mut amps, 0, &h);
        apply_1q(&mut amps, 0, &h);
        assert!(approx(amps[0], C64::ONE));
        assert!(approx(amps[1], C64::ZERO));
    }

    #[test]
    fn x_flips_basis_state() {
        let mut amps = vec![C64::ONE, C64::ZERO, C64::ZERO, C64::ZERO]; // |00⟩
        apply_1q(&mut amps, 1, &x_matrix());
        assert!(approx(amps[2], C64::ONE)); // |10⟩ (bit 1 set)
    }

    #[test]
    fn rx_full_turn_is_minus_identity() {
        let mut amps = vec![C64::new(0.6, 0.0), C64::new(0.0, 0.8)];
        let before = amps.clone();
        apply_1q(&mut amps, 0, &rx_matrix(2.0 * std::f64::consts::PI));
        assert!(approx(amps[0], -before[0]));
        assert!(approx(amps[1], -before[1]));
    }

    #[test]
    fn rzz_phases_match_parity() {
        let theta = 0.9;
        let mut amps = vec![C64::ONE; 4];
        apply_rzz(&mut amps, 0, 0, 1, theta);
        // |00⟩,|11⟩ same parity; |01⟩,|10⟩ differ
        assert!(approx(amps[0], C64::cis(-theta / 2.0)));
        assert!(approx(amps[3], C64::cis(-theta / 2.0)));
        assert!(approx(amps[1], C64::cis(theta / 2.0)));
        assert!(approx(amps[2], C64::cis(theta / 2.0)));
    }

    #[test]
    fn rzz_respects_base_index_offset() {
        let theta = 0.5;
        // simulate a chunk starting at global index 2 for qubits (0,1)
        let mut chunk = vec![C64::ONE; 2];
        apply_rzz(&mut chunk, 2, 0, 1, theta);
        // global 2 = |10⟩ differing bits, global 3 = |11⟩ same
        assert!(approx(chunk[0], C64::cis(theta / 2.0)));
        assert!(approx(chunk[1], C64::cis(-theta / 2.0)));
    }

    #[test]
    fn cnot_entangles_plus_state() {
        // (|0⟩+|1⟩)/√2 ⊗ |0⟩, control = qubit 0 → Bell state
        let s = std::f64::consts::FRAC_1_SQRT_2;
        let mut amps = vec![C64::real(s), C64::real(s), C64::ZERO, C64::ZERO];
        apply_cnot(&mut amps, 0, 1);
        assert!(approx(amps[0], C64::real(s)));
        assert!(approx(amps[3], C64::real(s)));
        assert!(approx(amps[1], C64::ZERO));
    }

    #[test]
    fn cz_equals_rzz_up_to_phases() {
        // CZ = e^{iπ/4} RZZ(π/2) · RZ(−π/2)⊗RZ(−π/2) — verify on all basis states
        let mut a = vec![C64::ONE; 4];
        apply_cz(&mut a, 0, 0, 1);
        let mut b = vec![C64::ONE; 4];
        apply_rzz(&mut b, 0, 0, 1, std::f64::consts::FRAC_PI_2);
        apply_rz(&mut b, 0, 0, -std::f64::consts::FRAC_PI_2);
        apply_rz(&mut b, 0, 1, -std::f64::consts::FRAC_PI_2);
        apply_global_phase(&mut b, -std::f64::consts::FRAC_PI_4);
        for i in 0..4 {
            assert!(approx(a[i], b[i]), "index {i}: {} vs {}", a[i], b[i]);
        }
    }

    #[test]
    fn paired_kernel_matches_flat_kernel() {
        let m = rx_matrix(0.77);
        // 3-qubit state, gate on the top qubit (q=2)
        let amps: Vec<C64> = (0..8).map(|i| C64::new(i as f64, -(i as f64) / 2.0)).collect();
        let mut flat = amps.clone();
        apply_1q(&mut flat, 2, &m);
        let (lo, hi) = amps.split_at(4);
        let mut lo = lo.to_vec();
        let mut hi = hi.to_vec();
        apply_1q_paired(&mut lo, &mut hi, &m);
        for i in 0..4 {
            assert!(approx(flat[i], lo[i]));
            assert!(approx(flat[i + 4], hi[i]));
        }
    }

    #[test]
    fn mat_mul_identity() {
        let id = [C64::ONE, C64::ZERO, C64::ZERO, C64::ONE];
        let m = rx_matrix(0.3);
        assert_eq!(mat_mul(&id, &m), m);
    }

    fn ramp_state(n: usize) -> Vec<C64> {
        (0..n).map(|i| C64::new(1.0 + 0.1 * i as f64, -0.05 * i as f64)).collect()
    }

    /// Bit patterns, with `-0.0` read as `+0.0`: the specialised RX
    /// kernels may flip the sign of an exact zero (see [`apply_rx`]), and
    /// `ramp_state(_)[0]` has a `-0.0` imaginary part, which `θ = 0`
    /// passes straight through.
    fn bits(amps: &[C64]) -> Vec<(u64, u64)> {
        amps.iter().map(|a| ((a.re + 0.0).to_bits(), (a.im + 0.0).to_bits())).collect()
    }

    #[test]
    fn rx_kernels_are_bit_identical_to_the_generic_matrix() {
        for theta in [0.77, -2.1, 0.0, std::f64::consts::PI, 9.4] {
            for q in 0..5 {
                let mut generic = ramp_state(32);
                apply_1q(&mut generic, q, &rx_matrix(theta));
                let mut rx = ramp_state(32);
                apply_rx(&mut rx, q, theta);
                assert_eq!(bits(&rx), bits(&generic), "q = {q}, θ = {theta}");
            }
            let (mut lo, mut hi) = (ramp_state(16), ramp_state(32)[16..].to_vec());
            let (mut glo, mut ghi) = (lo.clone(), hi.clone());
            apply_rx_paired(&mut lo, &mut hi, theta);
            apply_1q_paired(&mut glo, &mut ghi, &rx_matrix(theta));
            assert_eq!((bits(&lo), bits(&hi)), (bits(&glo), bits(&ghi)), "paired, θ = {theta}");
            // the two-qubits-per-sweep wall, odd and even qubit counts
            for qubits in [0..5, 1..5, 2..3] {
                let mut wall = ramp_state(32);
                apply_rx_wall(&mut wall, qubits.clone(), theta);
                let mut each = ramp_state(32);
                for q in qubits.clone() {
                    apply_1q(&mut each, q, &rx_matrix(theta));
                }
                assert_eq!(bits(&wall), bits(&each), "qubits {qubits:?}, θ = {theta}");
            }
        }
    }

    #[test]
    fn diag_terms_match_gate_sequence() {
        // one fused sweep vs four separate diagonal-gate sweeps
        let amps = ramp_state(8);
        let mut seq = amps.clone();
        apply_rz(&mut seq, 0, 0, 0.3);
        apply_rzz(&mut seq, 0, 0, 2, 0.7);
        apply_cz(&mut seq, 0, 1, 2);
        apply_global_phase(&mut seq, 0.2);
        let pi4 = std::f64::consts::FRAC_PI_4;
        let terms = [
            DiagTerm { mask: 0b001, coef: -0.15 },
            DiagTerm { mask: 0b101, coef: -0.35 },
            DiagTerm { mask: 0b010, coef: -pi4 },
            DiagTerm { mask: 0b100, coef: -pi4 },
            DiagTerm { mask: 0b110, coef: pi4 },
        ];
        let mut fused = amps;
        apply_diag_terms(&mut fused, 0, 0.2 + pi4, &terms);
        for i in 0..8 {
            assert!(approx(seq[i], fused[i]), "index {i}: {} vs {}", seq[i], fused[i]);
        }
    }

    #[test]
    fn diag_terms_respect_base_index() {
        let amps = ramp_state(8);
        let terms = [DiagTerm { mask: 0b110, coef: 0.4 }, DiagTerm { mask: 0b001, coef: -0.9 }];
        let mut whole = amps.clone();
        apply_diag_terms(&mut whole, 0, 0.1, &terms);
        let mut lo = amps[..4].to_vec();
        let mut hi = amps[4..].to_vec();
        apply_diag_terms(&mut lo, 0, 0.1, &terms);
        apply_diag_terms(&mut hi, 4, 0.1, &terms);
        for i in 0..4 {
            assert!(approx(whole[i], lo[i]));
            assert!(approx(whole[i + 4], hi[i]));
        }
    }

    #[test]
    fn diag_plan_matches_reference_kernel_and_is_chunk_invariant() {
        // 13 terms -> two byte-sliced groups; masks span bytes 0 and 1.
        let terms: Vec<DiagTerm> = (0..9)
            .map(|q| DiagTerm { mask: (1 << q) | (1 << (q + 1)), coef: 0.05 * (q + 1) as f64 })
            .chain((0..4).map(|q| DiagTerm { mask: 1 << q, coef: -0.3 + 0.1 * q as f64 }))
            .collect();
        let amps = ramp_state(1 << 10);
        let mut reference = amps.clone();
        apply_diag_terms(&mut reference, 0, 0.25, &terms);

        let plan = DiagPlan::new(0.25, &terms);
        let mut whole = amps.clone();
        plan.apply(&mut whole, 0);
        let mut split = amps;
        let (lo, hi) = split.split_at_mut(512);
        plan.apply(lo, 0);
        plan.apply(hi, 512);

        for i in 0..whole.len() {
            assert!(approx(reference[i], whole[i]), "index {i}");
            // chunking the same plan never changes a single bit
            assert_eq!(whole[i], split[i], "index {i}");
        }

        // single-group plan (pre-exponentiated multipliers) agrees too
        let short = &terms[..5];
        let mut ref_short = ramp_state(64);
        apply_diag_terms(&mut ref_short, 0, -0.7, short);
        let mut plan_short = ramp_state(64);
        DiagPlan::new(-0.7, short).apply(&mut plan_short, 0);
        for i in 0..64 {
            assert!(approx(ref_short[i], plan_short[i]), "index {i}");
        }
    }

    #[test]
    fn wall_matches_individual_gates() {
        let amps = ramp_state(8);
        let mut seq = amps.clone();
        apply_1q(&mut seq, 0, &h_matrix());
        apply_1q(&mut seq, 2, &rx_matrix(0.5));
        let mut wall = amps;
        apply_1q_wall(&mut wall, &[(0, h_matrix()), (2, rx_matrix(0.5))]);
        for i in 0..8 {
            assert!(approx(seq[i], wall[i]));
        }
    }
}
