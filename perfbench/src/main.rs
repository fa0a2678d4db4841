//! End-to-end and per-layer benchmark of `qq_core::solve`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run generates its instances from the seed, writes each as Gset
//! text, times the set-up (`read_gset` into a solve-ready graph plus the
//! configuration and engine), makes one untimed warm-up solve on an
//! instance outside the timed set, then solves for `--seconds` seconds,
//! checking every output. The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. The whole record, with host facts and every solve, goes
//! to `perfbench/out/`. See `perfbench/README.md`.

mod alloc;
mod host;
mod json;
mod kernels;
mod layers;
mod workload;

#[cfg(test)]
mod tests;

use json::J;
use layers::{Counts, Layers};
use qq_core::{partition_memo_hits, Qaoa2Result};
use qq_graph::{Cut, Graph};
use qq_qaoa::QaoaConfig;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;
use workload::{instance_seed, Workload, WARMUP};

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

const USAGE: &str =
    "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\nworkloads:";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("expected a number"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad("expected a positive number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
            eprintln!("perfbench: {e}\n{USAGE} {}", names.join(", "));
            return ExitCode::from(2);
        }
    };
    host::pin_pool_threads();
    let pool_threads = rayon::current_num_threads();
    let host = host::facts(pool_threads);
    println!("{}", J::obj(vec![("host", host.clone())]));
    let mut bench = Bench::new(&args, pool_threads);
    let report = bench.run();
    let record = J::obj(vec![
        ("workload", J::Str(args.workload.name().into())),
        ("seed", J::Int(args.seed)),
        ("seconds", J::Num(args.seconds)),
        ("trace", J::Bool(args.trace)),
        ("host", host),
        ("calibration", report.calibration.to_json()),
        ("failures", J::Arr(bench.failures.iter().map(|f| J::Str(f.clone())).collect())),
        ("solves", J::Arr(report.solves.iter().map(SolveRecord::to_json).collect())),
        ("metrics", metrics_json(&report.metrics)),
    ]);
    write_record(&args, &record);
    let correct = bench.failed == 0;
    println!(
        "{}",
        J::obj(vec![
            ("correct", J::Bool(correct)),
            ("attempted", J::Int(bench.attempted as u64)),
            ("failed", J::Int(bench.failed as u64)),
            ("metrics", metrics_json(&report.metrics)),
        ])
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Writes the full record to `perfbench/out/`; a failure to write is
/// reported and does not fail the run.
fn write_record(args: &Args, record: &J) {
    let dir = std::path::Path::new("perfbench/out");
    let name = format!("{}-seed{}-trace{}.json", args.workload.name(), args.seed, args.trace as u8);
    if let Err(e) = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(dir.join(&name), format!("{record}\n")))
    {
        eprintln!("perfbench: could not write {}: {e}", dir.join(&name).display());
    }
}

struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

fn metrics_json(metrics: &[Metric]) -> J {
    J::Obj(
        metrics
            .iter()
            .map(|m| {
                let v = J::obj(vec![("value", J::Num(m.value)), ("unit", J::Str(m.unit.into()))]);
                (m.name.to_string(), v)
            })
            .collect(),
    )
}

/// Median of `v` (mean of the middle two for even lengths); NaN when
/// empty.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

fn median_of<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    median(&mut items.iter().map(f).collect::<Vec<_>>())
}

/// Gset text of `g`, as a user's instance file would hold it.
pub fn gset_text(g: &Graph) -> Vec<u8> {
    let mut text = Vec::new();
    qq_graph::io::write_gset(g, &mut text).expect("writing to a Vec cannot fail");
    text
}

/// What one checked solve measured. Layer counts are this solve's
/// share of the run's tallies (zero for untraced solves).
struct SolveRecord {
    instance: u64,
    traced: bool,
    wall_s: f64,
    cpu_s: f64,
    peak_heap_bytes: usize,
    cut_value: f64,
    total_weight: f64,
    memo_hits: u64,
    result: Qaoa2Result,
    partition: Counts,
    qaoa: Counts,
    gw: Counts,
}

impl SolveRecord {
    fn batch_s(&self) -> f64 {
        self.result.engine_reports.iter().map(|r| r.batch_wall.as_secs_f64()).sum()
    }

    fn busy_s(&self) -> f64 {
        let reports = &self.result.engine_reports;
        reports.iter().map(|r| (r.quantum.busy + r.classical.busy).as_secs_f64()).sum()
    }

    fn tasks(&self) -> usize {
        self.result.engine_reports.iter().map(|r| r.quantum.tasks + r.classical.tasks).sum()
    }

    fn to_json(&self) -> J {
        let levels = &self.result.levels;
        J::obj(vec![
            ("instance", J::Int(self.instance)),
            ("traced", J::Bool(self.traced)),
            ("wall_s", J::Num(self.wall_s)),
            ("cpu_s", J::Num(self.cpu_s)),
            ("peak_heap_bytes", J::Int(self.peak_heap_bytes as u64)),
            ("cut_value", J::Num(self.cut_value)),
            ("total_weight", J::Num(self.total_weight)),
            ("levels", J::Int(levels.len() as u64)),
            ("level_nodes", J::Arr(levels.iter().map(|l| J::Int(l.graph_nodes as u64)).collect())),
            ("subgraphs", J::Int(self.result.total_subgraphs as u64)),
            ("engine_batch_s", J::Num(self.batch_s())),
            ("engine_busy_s", J::Num(self.busy_s())),
            ("memo_hits", J::Int(self.memo_hits)),
            (
                "strategy_l0",
                J::Str(levels.first().map_or(String::new(), |l| l.strategy_effective.clone())),
            ),
        ])
    }
}

struct Report {
    solves: Vec<SolveRecord>,
    metrics: Vec<Metric>,
    calibration: Calibration,
}

/// The host calibration loops, timed at the start and the end of a run.
#[derive(Default)]
struct Calibration {
    start_ms: f64,
    end_ms: f64,
    mem_start_ns: f64,
    mem_end_ns: f64,
}

impl Calibration {
    fn to_json(&self) -> J {
        J::obj(vec![
            ("cpu_loop_start_ms", J::Num(self.start_ms)),
            ("cpu_loop_end_ms", J::Num(self.end_ms)),
            ("mem_chase_start_ns", J::Num(self.mem_start_ns)),
            ("mem_chase_end_ns", J::Num(self.mem_end_ns)),
        ])
    }
}

/// Extra solves the traced run spends on comparing modes.
const CROSS_CHECKS: usize = 2;

struct Bench {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    pool_threads: usize,
    layers: Arc<Layers>,
    attempted: usize,
    failed: usize,
    failures: Vec<String>,
    /// First cut returned for each instance; every later solve of the
    /// instance, traced or not, must return it again.
    cuts: BTreeMap<u64, Cut>,
    /// Which modes (untraced, traced) have solved each instance.
    modes: BTreeMap<u64, [bool; 2]>,
    /// Every set-up's time, and the `read_gset` part of it.
    setup_s: Vec<f64>,
    ingest_s: Vec<f64>,
}

impl Bench {
    fn new(args: &Args, pool_threads: usize) -> Self {
        Bench {
            workload: args.workload,
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace,
            pool_threads,
            layers: Arc::new(Layers::default()),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            cuts: BTreeMap::new(),
            modes: BTreeMap::new(),
            setup_s: Vec::new(),
            ingest_s: Vec::new(),
        }
    }

    fn fail(&mut self, what: String) {
        eprintln!("perfbench: FAILED: {what}");
        self.failed += 1;
        self.failures.push(what);
    }

    fn run(&mut self) -> Report {
        let wl = self.workload;
        let mut calibration = Calibration {
            start_ms: host::calibrate_ms(),
            mem_start_ns: host::calibrate_mem_ns(),
            ..Calibration::default()
        };
        let generated: Vec<Graph> =
            (0..wl.instances() as u64).map(|i| wl.generate(self.seed, i)).collect();
        let texts: Vec<Vec<u8>> = generated.iter().map(gset_text).collect();

        // warm-up: an instance no timed solve uses (first solves in a
        // process pay page faults, pool start-up and cold caches)
        let warmup = wl.generate(self.seed, WARMUP);
        self.solve(&warmup, WARMUP, false);
        drop(warmup);

        let mut graphs = Vec::with_capacity(texts.len());
        for (i, (text, original)) in texts.iter().zip(&generated).enumerate() {
            let Some(parsed) = self.setup(i, text) else {
                return Report { solves: Vec::new(), metrics: Vec::new(), calibration };
            };
            self.attempted += 1;
            if parsed.num_nodes() != original.num_nodes() || parsed.edges() != original.edges() {
                self.fail(format!("instance {i}: Gset round trip changed the graph"));
            }
            graphs.push(parsed);
        }
        drop(generated);

        let solves = self.timed_loop(&graphs, &texts);
        if self.trace {
            self.cross_check(&graphs);
        }
        let kernels = if self.trace {
            kernels::replay(&self.layers.captured(), &QaoaConfig::default())
        } else {
            None
        };
        calibration.end_ms = host::calibrate_ms();
        calibration.mem_end_ns = host::calibrate_mem_ns();
        let metrics = if self.trace {
            self.layer_metrics(&solves, kernels.unwrap_or_default(), &calibration)
        } else {
            self.end_to_end_metrics(&solves)
        };
        Report { solves, metrics, calibration }
    }

    /// One set-up of instance `i`: parse its Gset text into a
    /// solve-ready graph, build its configuration and engine. Records
    /// the set-up and ingest times; `None` (a failure) if any step
    /// errs.
    fn setup(&mut self, i: usize, text: &[u8]) -> Option<Graph> {
        self.attempted += 1;
        let t0 = Instant::now();
        let parsed = qq_graph::io::read_gset(text);
        let t1 = Instant::now();
        let cfg = self.workload.config(instance_seed(self.seed, i as u64), None);
        let ready = cfg.solver.validate().and(cfg.coarse_solver.validate()).and_then(|()| {
            let engine = cfg.parallelism.to_engine()?;
            Ok((engine, cfg.solver.to_pool(), cfg.coarse_solver.to_pool()))
        });
        black_box((&parsed, &ready));
        let t2 = Instant::now();
        let error = match (parsed, ready) {
            (Ok(g), Ok(_)) => {
                self.setup_s.push((t2 - t0).as_secs_f64());
                self.ingest_s.push((t1 - t0).as_secs_f64());
                return Some(g);
            }
            (Err(e), _) => e.to_string(),
            (_, Err(e)) => e.to_string(),
        };
        self.fail(format!("instance {i}: set-up failed: {error}"));
        None
    }

    /// Solve for `seconds` seconds, and at least `min_solves` times.
    /// After each solve, set the instance up again `setup_reps` times,
    /// so that set-up is sampled over the whole run, like the solves.
    /// The traced run pairs untraced and traced solves, untraced first
    /// in every other pair (the second solve of a pair tends to run
    /// faster): pairs of the same instance where instances may repeat,
    /// of consecutive fresh instances on the Auto workload (a repeat
    /// would find the memo warm).
    fn timed_loop(&mut self, graphs: &[Graph], texts: &[Vec<u8>]) -> Vec<SolveRecord> {
        let wl = self.workload;
        let k = graphs.len();
        let started = Instant::now();
        let mut solves = Vec::new();
        let mut j = 0usize;
        while j < wl.min_solves()
            || (started.elapsed().as_secs_f64() < self.seconds && (wl.repeats() || j < k))
        {
            let traced = self.trace && (j + j / 2) % 2 == 1;
            let instance = if self.trace && wl.repeats() { j / 2 % k } else { j % k };
            solves.extend(self.solve(&graphs[instance], instance as u64, traced));
            for _ in 0..wl.setup_reps() {
                self.setup(instance, &texts[instance]);
            }
            j += 1;
        }
        solves
    }

    /// Solve up to [`CROSS_CHECKS`] instances the timed loop saw in one
    /// mode only in the other mode too, so that traced cuts are
    /// compared with untraced cuts on every workload.
    fn cross_check(&mut self, graphs: &[Graph]) {
        let missing: Vec<(u64, bool)> = self
            .modes
            .iter()
            .filter(|(&i, _)| i != WARMUP)
            .filter_map(|(&i, seen)| match seen {
                [true, false] => Some((i, true)),
                [false, true] => Some((i, false)),
                _ => None,
            })
            .take(CROSS_CHECKS)
            .collect();
        for (i, traced) in missing {
            self.solve(&graphs[i as usize], i, traced);
        }
    }

    /// One solve, timed from outside and checked: the cut covers every
    /// node, its recomputed value equals `cut_value`, and it equals
    /// every earlier cut of the same instance.
    fn solve(&mut self, g: &Graph, instance: u64, traced: bool) -> Option<SolveRecord> {
        self.attempted += 1;
        let cfg = self
            .workload
            .config(instance_seed(self.seed, instance), traced.then_some(&self.layers));
        let before = (
            self.layers.partition.snapshot(),
            self.layers.qaoa.snapshot(),
            self.layers.gw.snapshot(),
        );
        let memo_before = partition_memo_hits();
        let live_before = alloc::live();
        alloc::reset_peak();
        let cpu_before = host::process_cpu_s();
        let t0 = Instant::now();
        let out = qq_core::solve(g, &cfg);
        let wall_s = t0.elapsed().as_secs_f64();
        let cpu_s = host::process_cpu_s() - cpu_before;
        let peak_heap_bytes = (alloc::peak() - live_before).max(0) as usize;
        let memo_hits = partition_memo_hits() - memo_before;
        let name = if instance == WARMUP { "warm-up".to_string() } else { instance.to_string() };
        let result = match out {
            Ok(result) => result,
            Err(e) => {
                self.fail(format!("instance {name}: solve failed: {e}"));
                return None;
            }
        };
        if let Err(e) = check_cut(g, &result) {
            self.fail(format!("instance {name}: {e}"));
            return None;
        }
        self.modes.entry(instance).or_default()[traced as usize] = true;
        match self.cuts.get(&instance) {
            Some(first) if *first != result.cut => {
                self.fail(format!(
                    "instance {name}: repeat solve (traced: {traced}) returned a different cut"
                ));
                return None;
            }
            Some(_) => {}
            None => {
                self.cuts.insert(instance, result.cut.clone());
            }
        }
        if instance == WARMUP {
            return None;
        }
        Some(SolveRecord {
            instance,
            traced,
            wall_s,
            cpu_s,
            peak_heap_bytes,
            cut_value: result.cut_value,
            total_weight: g.total_weight(),
            memo_hits,
            result,
            partition: self.layers.partition.snapshot() - before.0,
            qaoa: self.layers.qaoa.snapshot() - before.1,
            gw: self.layers.gw.snapshot() - before.2,
        })
    }

    fn end_to_end_metrics(&self, solves: &[SolveRecord]) -> Vec<Metric> {
        let untraced: Vec<&SolveRecord> = solves.iter().filter(|s| !s.traced).collect();
        // over instances 0..min_solves, each counted once: a function
        // of the seed alone
        let counted: Vec<&&SolveRecord> = (0..self.workload.min_solves() as u64)
            .filter_map(|i| untraced.iter().find(|s| s.instance == i))
            .collect();
        let cut: f64 = counted.iter().map(|s| s.cut_value).sum();
        let weight: f64 = counted.iter().map(|s| s.total_weight).sum();
        vec![
            Metric { name: "solve_s", unit: "s", value: median_of(&untraced, |s| s.wall_s) },
            Metric { name: "cpu_s", unit: "s", value: median_of(&untraced, |s| s.cpu_s) },
            Metric { name: "setup_s", unit: "s", value: median(&mut self.setup_s.clone()) },
            Metric { name: "cut_fraction", unit: "fraction", value: cut / weight },
            Metric {
                name: "peak_heap_mib",
                unit: "MiB",
                // the highest solve, not the median: on er2000 a solve
                // peaks at about 6 or about 11 MiB, varying from solve to
                // solve, so a median could land on either
                value: untraced.iter().map(|s| s.peak_heap_bytes).max().unwrap_or(0) as f64
                    / (1 << 20) as f64,
            },
        ]
    }

    fn layer_metrics(
        &self,
        solves: &[SolveRecord],
        k: kernels::KernelRates,
        calibration: &Calibration,
    ) -> Vec<Metric> {
        let traced: Vec<&SolveRecord> = solves.iter().filter(|s| s.traced).collect();
        let untraced: Vec<&SolveRecord> = solves.iter().filter(|s| !s.traced).collect();
        let med = |f: fn(&SolveRecord) -> f64| median_of(&traced, |s| f(s));
        let threads = self.pool_threads as f64;
        let traced_solve_s = med(|s| s.wall_s);
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        let m = |name, unit, value| Metric { name, unit, value };
        // computed bytes are zero where no kernel ran, like the rates
        let bytes = |b: f64| if k.qubits > 0 { b } else { 0.0 };
        vec![
            m("graph.ingest_s", "s", median(&mut self.ingest_s.clone())),
            m("graph.partition_s", "s", med(|s| s.partition.busy_s)),
            m("graph.partition_calls", "count", med(|s| s.partition.calls as f64)),
            m("core.levels", "count", med(|s| s.result.levels.len() as f64)),
            m("core.subgraphs", "count", med(|s| s.result.total_subgraphs as f64)),
            m(
                "core.max_subgraph",
                "nodes",
                med(|s| s.result.levels.iter().map(|l| l.max_subgraph).max().unwrap_or(0) as f64),
            ),
            m("core.outside_engine_s", "s", med(|s| s.wall_s - s.batch_s())),
            m("core.outside_engine_frac", "fraction", med(|s| 1.0 - s.batch_s() / s.wall_s)),
            m(
                "core.stall_fallbacks",
                "count",
                med(|s| s.result.levels.iter().filter(|l| l.stall_fallback).count() as f64),
            ),
            m(
                "core.inter_weight_l0",
                "fraction",
                med(|s| s.result.levels.first().map_or(0.0, |l| l.inter_weight_fraction)),
            ),
            m("core.memo_hits", "count", med(|s| s.memo_hits as f64)),
            m("engine.batch_s", "s", med(|s| s.batch_s())),
            m("engine.batch_frac", "fraction", med(|s| s.batch_s() / s.wall_s)),
            m("engine.busy_s", "s", med(|s| s.busy_s())),
            m(
                "engine.parallel_eff",
                "fraction",
                median_of(&traced, |s| ratio(s.busy_s(), s.batch_s() * threads)),
            ),
            m("engine.tasks", "count", med(|s| s.tasks() as f64)),
            m(
                "engine.fallbacks",
                "count",
                med(|s| s.result.engine_reports.iter().map(|r| r.fallbacks).sum::<usize>() as f64),
            ),
            m("qaoa.calls", "count", med(|s| s.qaoa.calls as f64)),
            m("qaoa.busy_s", "s", med(|s| s.qaoa.busy_s)),
            m("qaoa.evals", "count", med(|s| s.qaoa.evals as f64)),
            m("qaoa.amp_layers", "count", med(|s| s.qaoa.amp_layers as f64)),
            m(
                "qaoa.ns_per_amp_layer",
                "ns",
                median_of(&traced, |s| ratio(s.qaoa.busy_s * 1e9, s.qaoa.amp_layers as f64)),
            ),
            m("kernel.qubits", "count", k.qubits as f64),
            m("kernel.cost_table_ns_per_amp", "ns", k.cost_table_ns_per_amp),
            m("kernel.cost_table_bytes_per_amp", "bytes", bytes(kernels::COST_TABLE_BYTES_PER_AMP)),
            m("kernel.cost_layer_ns_per_amp", "ns", k.cost_layer_ns_per_amp),
            m("kernel.cost_layer_bytes_per_amp", "bytes", bytes(kernels::COST_LAYER_BYTES_PER_AMP)),
            m("kernel.mixer_ns_per_amp_qubit", "ns", k.mixer_ns_per_amp_qubit),
            m(
                "kernel.mixer_bytes_per_amp_qubit",
                "bytes",
                bytes(kernels::MIXER_BYTES_PER_AMP_QUBIT),
            ),
            m("kernel.sample_ns_per_shot", "ns", k.sample_ns_per_shot),
            m("kernel.sample_bytes_per_amp", "bytes", bytes(kernels::SAMPLE_BYTES_PER_AMP)),
            m("kernel.circuit_metrics_us", "us", k.circuit_metrics_us),
            m("gw.calls", "count", med(|s| s.gw.calls as f64)),
            m("gw.busy_s", "s", med(|s| s.gw.busy_s)),
            m(
                "gw.ms_per_call",
                "ms",
                median_of(&traced, |s| ratio(s.gw.busy_s * 1e3, s.gw.calls as f64)),
            ),
            m("trace.solve_s", "s", traced_solve_s),
            m(
                "trace.overhead",
                "fraction",
                traced_solve_s / median_of(&untraced, |s| s.wall_s) - 1.0,
            ),
            m("host.calib_start_ms", "ms", calibration.start_ms),
            m("host.calib_end_ms", "ms", calibration.end_ms),
            m("host.calib_mem_start_ns", "ns", calibration.mem_start_ns),
            m("host.calib_mem_end_ns", "ns", calibration.mem_end_ns),
        ]
    }
}

/// The cut covers every node and its value, recomputed edge by edge,
/// matches the reported one.
fn check_cut(g: &Graph, r: &Qaoa2Result) -> Result<(), String> {
    if r.cut.len() != g.num_nodes() {
        return Err(format!("cut has {} sides for {} nodes", r.cut.len(), g.num_nodes()));
    }
    let value: f64 =
        g.edges().iter().filter(|e| r.cut.get(e.u) != r.cut.get(e.v)).map(|e| e.w).sum();
    let tolerance = 1e-9 * g.total_weight().abs().max(1.0);
    if (value - r.cut_value).abs() > tolerance {
        return Err(format!("cut_value {} but the cut's edges sum to {value}", r.cut_value));
    }
    Ok(())
}
