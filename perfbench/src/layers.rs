//! Timing wrappers around each layer's public API, for the traced run.
//!
//! Each wrapper presents the wrapped backend's or partitioner's label
//! and capabilities and computes exactly what the wrapped one computes,
//! so a traced solve returns the untraced solve's cut bit for bit; it
//! only adds up calls and busy time in a shared [`Tally`].

use qq_core::{MaxCutSolver, Partitioner, SharedPartitioner, SolverCaps, SolverError};
use qq_graph::{CutResult, Graph, Partition, PartitionError};
use qq_gw::GwSolver;
use qq_qaoa::{QaoaConfig, QaoaSolver};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Counters one layer's wrapper adds to. Plain statistics that publish
/// no other data, so `Relaxed` suffices.
#[derive(Default)]
pub struct Tally {
    calls: AtomicU64,
    busy_ns: AtomicU64,
    /// QAOA only: optimizer objective evaluations.
    evals: AtomicU64,
    /// QAOA only: Σ evals × p × 2^n, the amplitude-layers simulated.
    amp_layers: AtomicU64,
}

/// A copy of a [`Tally`] at one moment; subtract two to get one solve's
/// share.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counts {
    pub calls: u64,
    pub busy_s: f64,
    pub evals: u64,
    pub amp_layers: u64,
}

impl Tally {
    fn add(&self, started: Instant) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.busy_ns.fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> Counts {
        Counts {
            calls: self.calls.load(Ordering::Relaxed),
            busy_s: self.busy_ns.load(Ordering::Relaxed) as f64 * 1e-9,
            evals: self.evals.load(Ordering::Relaxed),
            amp_layers: self.amp_layers.load(Ordering::Relaxed),
        }
    }
}

impl std::ops::Sub for Counts {
    type Output = Counts;
    fn sub(self, before: Counts) -> Counts {
        Counts {
            calls: self.calls - before.calls,
            busy_s: self.busy_s - before.busy_s,
            evals: self.evals - before.evals,
            amp_layers: self.amp_layers - before.amp_layers,
        }
    }
}

/// The tallies of one traced run, plus the QAOA sub-graphs kept for the
/// kernel replay.
#[derive(Default)]
pub struct Layers {
    pub partition: Tally,
    pub qaoa: Tally,
    pub gw: Tally,
    captured: Mutex<Vec<Graph>>,
}

/// How many QAOA sub-graphs of the largest size seen are kept.
const CAPTURE: usize = 3;

impl Layers {
    /// Keep `g` if it is among the first [`CAPTURE`] sub-graphs of the
    /// largest size seen so far.
    fn capture(&self, g: &Graph) {
        let mut kept = self.captured.lock().expect("capture lock poisoned by a panicking solve");
        let largest = kept.first().map_or(0, Graph::num_nodes);
        if g.num_nodes() > largest {
            kept.clear();
        }
        if g.num_nodes() >= largest && kept.len() < CAPTURE {
            kept.push(g.clone());
        }
    }

    pub fn captured(&self) -> Vec<Graph> {
        self.captured.lock().expect("capture lock poisoned by a panicking solve").clone()
    }
}

/// [`QaoaSolver`] with timing. It calls [`qq_qaoa::solve`] the way
/// `QaoaSolver::solve` does (same instance check, same `config.seed ^
/// seed` mixing) so that the evaluation count is readable.
pub struct TimedQaoa {
    pub inner: QaoaSolver,
    pub layers: Arc<Layers>,
}

impl TimedQaoa {
    pub fn new(config: QaoaConfig, layers: Arc<Layers>) -> Self {
        TimedQaoa { inner: QaoaSolver { config }, layers }
    }
}

impl MaxCutSolver for TimedQaoa {
    fn label(&self) -> &str {
        self.inner.label()
    }

    fn solve(&self, g: &Graph, seed: u64) -> Result<CutResult, SolverError> {
        let started = Instant::now();
        self.check_instance(g)?;
        let config = &self.inner.config;
        let cfg = QaoaConfig { seed: config.seed ^ seed, ..config.clone() };
        let r = qq_qaoa::solve(g, &cfg).map_err(|e| SolverError::Backend(e.to_string()))?;
        let tally = &self.layers.qaoa;
        tally.add(started);
        tally.evals.fetch_add(r.evals as u64, Ordering::Relaxed);
        let amp_layers = (r.evals * config.layers) as u64 * (1u64 << g.num_nodes());
        tally.amp_layers.fetch_add(amp_layers, Ordering::Relaxed);
        self.layers.capture(g);
        Ok(r.best)
    }

    fn capabilities(&self) -> SolverCaps {
        self.inner.capabilities()
    }

    fn check_instance(&self, g: &Graph) -> Result<(), SolverError> {
        self.inner.check_instance(g)
    }
}

/// [`GwSolver`] with timing.
pub struct TimedGw {
    pub inner: GwSolver,
    pub layers: Arc<Layers>,
}

impl MaxCutSolver for TimedGw {
    fn label(&self) -> &str {
        self.inner.label()
    }

    fn solve(&self, g: &Graph, seed: u64) -> Result<CutResult, SolverError> {
        let started = Instant::now();
        let r = self.inner.solve(g, seed);
        self.layers.gw.add(started);
        r
    }

    fn capabilities(&self) -> SolverCaps {
        self.inner.capabilities()
    }

    fn check_instance(&self, g: &Graph) -> Result<(), SolverError> {
        self.inner.check_instance(g)
    }
}

/// Any partitioner with timing. Its label is the wrapped one's, so the
/// divide's stall guard and level attribution see the same strategy.
pub struct TimedPartitioner {
    pub inner: SharedPartitioner,
    pub layers: Arc<Layers>,
}

impl Partitioner for TimedPartitioner {
    fn label(&self) -> &str {
        self.inner.label()
    }

    fn partition(&self, g: &Graph, cap: usize) -> Result<Partition, PartitionError> {
        let started = Instant::now();
        let r = self.inner.partition(g, cap);
        self.layers.partition.add(started);
        r
    }
}
