//! Bit-identity oracle for the QAOA state kernel.
//!
//! `build_state_fused` runs three specialised kernels: the phase-table
//! cost layer (integer costs), the RX mixer kernel and integer-key shot
//! sampling. Each must reproduce, bit for bit, the generic computation it
//! replaced: `cis(−γ·C(z))` per amplitude, `apply_1q(q, rx_matrix(2β))`
//! per qubit, and sorting the `f64` uniforms themselves. The reference
//! below rebuilds the state the generic way and compares the bit pattern
//! of every amplitude.

use qaoa2_suite::prelude::*;
use qq_circuit::{AnsatzParams, CostModel};
use qq_graph::graph::GraphBuilder;
use qq_qaoa::executor::build_state_fused;
use qq_qaoa::CostTable;
use qq_sim::gates::rx_matrix;
use qq_sim::BlockedState;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The state `build_state_fused` builds, computed the generic way.
fn reference_state(table: &CostTable, params: &AnsatzParams) -> StateVector {
    let n = table.num_qubits();
    let mut state = StateVector::plus_state(n);
    for (&gamma, &beta) in params.gammas.iter().zip(&params.betas) {
        for (a, &c) in state.amplitudes_mut().iter_mut().zip(table.values()) {
            *a *= C64::cis(-gamma * c);
        }
        let rx = rx_matrix(2.0 * beta);
        for q in 0..n {
            state.apply_1q(q, &rx);
        }
    }
    state
}

fn assert_bit_identical(got: &StateVector, want: &StateVector, what: &str) {
    for (z, (a, b)) in got.amplitudes().iter().zip(want.amplitudes()).enumerate() {
        assert!(
            a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits(),
            "{what}: amplitude {z} is {a}, reference {b}"
        );
    }
}

/// A connected-ish random graph on `n` nodes whose weights come from
/// `weight` (a ring keeps every qubit coupled, plus random chords).
fn graph(n: usize, seed: u64, weight: impl Fn(&mut StdRng) -> f64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(n);
    for u in 0..n {
        for v in u + 1..n {
            if v == u + 1 || rng.gen::<f64>() < 0.3 {
                b.add_edge(u as u32, v as u32, weight(&mut rng)).unwrap();
            }
        }
    }
    b.finalize().unwrap()
}

/// The four cost shapes the solver meets: unit weights, positive
/// integers, signed integers (the coarse merge graphs) and reals.
fn graphs(n: usize) -> Vec<(&'static str, Graph)> {
    let seed = 1000 + n as u64;
    vec![
        ("unit", graph(n, seed, |_| 1.0)),
        ("integer", graph(n, seed, |r| (1 + r.gen::<u64>() % 4) as f64)),
        ("negative-integer", graph(n, seed, |r| [-3.0, -2.0, -1.0, 1.0, 2.0][r.gen_range(0..5)])),
        ("random", graph(n, seed, |r| 0.05 + r.gen::<f64>())),
    ]
}

#[test]
fn fused_state_is_bit_identical_to_the_generic_reference() {
    let param_sets = [
        AnsatzParams::new(vec![0.3, 0.7, 0.2], vec![0.5, 0.1, 0.4]),
        AnsatzParams::new(vec![-1.25, 2.5], vec![0.0, -0.8]),
        AnsatzParams::new(vec![0.0, 0.41], vec![0.37, 0.0]),
        AnsatzParams::new(vec![7.9], vec![3.3]),
    ];
    // n = 15 and 16 cross PAR_GRAIN (2^14 amplitudes), where the kernels
    // run over parallel chunks
    for n in 1..=16 {
        for (kind, g) in graphs(n) {
            let table = CostTable::new(&CostModel::from_maxcut(&g));
            let sets = if n > 12 { &param_sets[..2] } else { &param_sets[..] };
            for params in sets {
                let what = format!("n = {n}, {kind} weights, {params:?}");
                let got = build_state_fused(&table, params);
                assert_bit_identical(&got, &reference_state(&table, params), &what);
            }
        }
    }
}

#[test]
fn phase_table_covers_integer_costs_only() {
    // the integer graphs above must actually exercise the phase table,
    // and the real-weighted one the per-amplitude path
    for n in [2, 9, 16] {
        for (kind, g) in graphs(n) {
            let table = CostTable::new(&CostModel::from_maxcut(&g));
            assert_eq!(table.has_phase_table(), kind != "random", "n = {n}, {kind} weights");
        }
    }
    for (kind, g) in graphs(9) {
        let table = CostTable::new(&CostModel::from_maxcut(&g));
        if kind == "negative-integer" {
            assert!(table.values().iter().any(|&c| c < 0.0), "merge-like costs go negative");
        }
    }
}

#[test]
fn blocked_and_flat_sampling_agree_and_match_float_sorting() {
    // a two-layer QAOA circuit on blocked storage; qubits 4..10 are
    // above the chunk size and take the paired RX kernel
    let g = graph(10, 5, |_| 1.0);
    let mut blk = BlockedState::plus_state(10, 4).unwrap();
    for (gamma, beta) in [(0.4, 0.6), (0.9, 0.3)] {
        for e in g.edges() {
            blk.rzz(e.u as usize, e.v as usize, gamma).unwrap();
        }
        for q in 0..10 {
            blk.rx(q, 2.0 * beta).unwrap();
        }
    }
    let flat = blk.to_statevector();
    for (shots, seed) in [(1, 3), (4096, 11), (10_000, 0xbeef)] {
        let counts = qq_sim::measure::sample_counts(flat.amplitudes(), shots, seed);
        assert_eq!(blk.sample_counts(shots, seed), counts, "shots {shots}, seed {seed}");
        assert_eq!(counts, float_sorted_reference(flat.amplitudes(), shots, seed));
    }
}

/// Sampling the generic way: draw `f64` uniforms, sort them as floats,
/// then walk the cumulative distribution.
fn float_sorted_reference(amps: &[C64], shots: usize, seed: u64) -> Vec<(u64, u32)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut points: Vec<f64> = (0..shots).map(|_| rng.gen::<f64>()).collect();
    points.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let mut out: Vec<(u64, u32)> = Vec::new();
    let (mut acc, mut next) = (0.0f64, 0usize);
    for (z, a) in amps.iter().enumerate() {
        acc += a.norm_sqr();
        let mut count = 0u32;
        while next < points.len() && points[next] < acc {
            count += 1;
            next += 1;
        }
        if count > 0 {
            out.push((z as u64, count));
        }
    }
    if next < points.len() {
        let remaining = (points.len() - next) as u32;
        match out.last_mut() {
            Some(last) => last.1 += remaining,
            None => out.push((0, remaining)),
        }
    }
    out
}
