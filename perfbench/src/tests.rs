//! Self-tests of the benchmark: the wrappers are transparent, the
//! traced configuration solves exactly like the untraced one, and the
//! Gset text the set-up parses is the generated graph.

use crate::layers::{Layers, TimedGw, TimedPartitioner, TimedQaoa};
use crate::workload::Workload;
use qq_core::{MaxCutSolver, PartitionStrategy, Partitioner};
use qq_graph::generators::{self, WeightKind};
use qq_graph::Graph;
use qq_gw::{GwConfig, GwSolver};
use qq_qaoa::{QaoaConfig, QaoaSolver};
use std::sync::Arc;

#[test]
fn timing_wrappers_present_the_wrapped_label_and_caps() {
    let layers = Arc::new(Layers::default());
    let qaoa = QaoaSolver { config: QaoaConfig::default() };
    let timed = TimedQaoa::new(QaoaConfig::default(), Arc::clone(&layers));
    assert_eq!(timed.label(), qaoa.label());
    assert_eq!(timed.capabilities(), qaoa.capabilities());

    let gw = GwSolver { config: GwConfig::default() };
    let timed =
        TimedGw { inner: GwSolver { config: GwConfig::default() }, layers: Arc::clone(&layers) };
    assert_eq!(timed.label(), gw.label());
    assert_eq!(timed.capabilities(), gw.capabilities());

    for strategy in PartitionStrategy::builtin() {
        let inner = strategy.to_partitioner();
        let timed = TimedPartitioner { inner: Arc::clone(&inner), layers: Arc::clone(&layers) };
        assert_eq!(timed.label(), inner.label());
    }

    // each workload's traced solvers as a whole: same labels and caps
    for wl in Workload::ALL {
        let plain = wl.config(1, None);
        let traced = wl.config(1, Some(&layers));
        for (a, b) in
            [(&plain.solver, &traced.solver), (&plain.coarse_solver, &traced.coarse_solver)]
        {
            let (a, b) = (a.to_backend(), b.to_backend());
            assert_eq!(a.label(), b.label(), "{}", wl.name());
            assert_eq!(a.capabilities(), b.capabilities(), "{}", wl.name());
        }
        assert_eq!(plain.partition.label(), traced.partition.label(), "{}", wl.name());
    }
}

#[test]
fn timing_wrappers_count_their_calls() {
    let layers = Arc::new(Layers::default());
    let g = generators::erdos_renyi(8, 0.5, WeightKind::Uniform, 3);
    let qaoa = TimedQaoa::new(QaoaConfig::default(), Arc::clone(&layers));
    let plain = QaoaSolver { config: QaoaConfig::default() };
    assert_eq!(qaoa.solve(&g, 5).unwrap().cut, plain.solve(&g, 5).unwrap().cut);
    let counts = layers.qaoa.snapshot();
    assert_eq!(counts.calls, 1);
    assert!(counts.evals > 0);
    assert_eq!(counts.amp_layers, counts.evals * 3 * (1 << 8));
    assert_eq!(layers.captured().len(), 1);
}

/// A small instance of each workload's family, for a fast solve under
/// the workload's own configuration.
fn small_instance(wl: Workload) -> Graph {
    match wl {
        Workload::Er2000AutoQaoaC12 => generators::erdos_renyi(60, 0.08, WeightKind::Uniform, 4),
        Workload::Pp51wBestC17 => generators::planted_partition(3, 8, 0.5, 0.05, 4),
        Workload::Er60kLpGwC12 => generators::erdos_renyi_fast(400, 0.01, WeightKind::Uniform, 4),
    }
}

#[test]
fn traced_and_untraced_solves_return_identical_cuts() {
    for wl in Workload::ALL {
        let g = small_instance(wl);
        let layers = Arc::new(Layers::default());
        let plain = qq_core::solve(&g, &wl.config(9, None)).unwrap();
        let traced = qq_core::solve(&g, &wl.config(9, Some(&layers))).unwrap();
        assert_eq!(plain.cut, traced.cut, "{}", wl.name());
        assert_eq!(plain.cut_value.to_bits(), traced.cut_value.to_bits(), "{}", wl.name());
        assert_eq!(plain.levels.len(), traced.levels.len(), "{}", wl.name());
        let gw_calls = layers.gw.snapshot().calls;
        assert!(gw_calls > 0, "{}: the coarse solves run through the GW wrapper", wl.name());
        let uses_qaoa = wl != Workload::Er60kLpGwC12;
        assert_eq!(layers.qaoa.snapshot().calls > 0, uses_qaoa, "{}", wl.name());
    }
}

#[test]
fn gset_round_trip_reproduces_every_generated_instance() {
    for wl in Workload::ALL {
        let g = wl.generate(11, 0);
        let parsed = qq_graph::io::read_gset(&crate::gset_text(&g)[..]).unwrap();
        assert_eq!(parsed.num_nodes(), g.num_nodes(), "{}", wl.name());
        assert_eq!(parsed.edges(), g.edges(), "{}: edge for edge, weights bit-exact", wl.name());
    }
}

#[test]
fn instances_depend_on_the_seed_alone() {
    for wl in [Workload::Er2000AutoQaoaC12, Workload::Pp51wBestC17] {
        assert_eq!(wl.generate(5, 1).edges(), wl.generate(5, 1).edges());
        assert_ne!(wl.generate(5, 1).edges(), wl.generate(6, 1).edges());
        assert_ne!(wl.generate(5, 1).edges(), wl.generate(5, 2).edges());
    }
    let weighted = Workload::Pp51wBestC17.generate(5, 0);
    assert!(weighted.edges().iter().all(|e| (0.05..1.05).contains(&e.w) && e.w.fract() != 0.0));
}
