//! Host facts recorded with every result, process CPU time, and the
//! fixed calibration loops that tell host drift from a program change.

use crate::json::J;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Pin the shared pool to one thread per CPU, whatever the caller's
/// environment says, so every run uses the same pool size. Must run
/// before the first parallel operation builds the pool.
pub fn pin_pool_threads() {
    std::env::set_var("RAYON_NUM_THREADS", nproc().to_string());
}

/// CPUs this process may run on.
fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Process CPU time (user + system, all threads), in seconds.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) for the duration of the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "CLOCK_PROCESS_CPUTIME_ID is always available on Linux");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Complex amplitudes the calibration loop sweeps: 16 KiB, resident in
/// the core's first-level cache.
const CALIBRATION_AMPS: usize = 1 << 10;
/// Sweeps per calibration timing: about 40 ms on an unshared core.
const CALIBRATION_SWEEPS: usize = 1 << 15;

/// A fixed CPU-bound loop run on every CPU at once, in ms: the median
/// over three rounds and all threads of one sweep loop's time. Each
/// thread multiplies unit phases into cache-resident complex
/// amplitudes, the cost layer's arithmetic without the library's code.
/// It runs on all CPUs together because that is the load a solve puts
/// on the host: on a VM whose virtual CPUs share physical cores, one
/// busy CPU can halve the other's speed, and how the CPUs are placed
/// changes while the VM runs. It does not touch the program under
/// test, so a change in it between runs is a change in the host.
pub fn calibrate_ms() -> f64 {
    let phase: Vec<(f64, f64)> =
        (0..CALIBRATION_AMPS).map(|i| (i as f64 * 1e-3).sin_cos()).collect();
    let sweep_loop = || {
        let mut amps = vec![(1.0f64, 0.0f64); CALIBRATION_AMPS];
        let t = Instant::now();
        for _ in 0..CALIBRATION_SWEEPS {
            for (a, &(s, c)) in amps.iter_mut().zip(&phase) {
                *a = (a.0 * c - a.1 * s, a.0 * s + a.1 * c);
            }
            black_box(&mut amps);
        }
        t.elapsed().as_secs_f64() * 1e3
    };
    let mut samples: Vec<f64> = (0..3)
        .flat_map(|_| {
            std::thread::scope(|scope| {
                let threads: Vec<_> = (0..nproc()).map(|_| scope.spawn(sweep_loop)).collect();
                threads
                    .into_iter()
                    .map(|t| t.join().expect("the calibration loop does not panic"))
                    .collect::<Vec<f64>>()
            })
        })
        .collect();
    crate::median(&mut samples)
}

/// Entries of the pointer-chase buffer: 16 MiB of `u32`, past the
/// per-core caches.
const CHASE_ENTRIES: usize = 1 << 22;
/// Dependent loads per chase timing.
const CHASE_LOADS: usize = 1 << 20;

/// Median of three timings of a fixed chain of dependent loads through
/// a 16 MiB random cycle, in ns per load. Where [`calibrate_ms`] sees
/// the cores' throughput, this sees the memory system's latency, which
/// the graph-heavy workloads share with other tenants of the host.
pub fn calibrate_mem_ns() -> f64 {
    // Sattolo's algorithm: one cycle through every entry
    let mut next: Vec<u32> = (0..CHASE_ENTRIES as u32).collect();
    let mut rng = StdRng::seed_from_u64(0xc4a5e);
    for i in (1..CHASE_ENTRIES).rev() {
        next.swap(i, rng.gen_range(0..i));
    }
    let mut samples: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            let mut at = 0u32;
            for _ in 0..CHASE_LOADS {
                at = next[at as usize];
            }
            black_box(at);
            t.elapsed().as_secs_f64() * 1e9 / CHASE_LOADS as f64
        })
        .collect();
    crate::median(&mut samples)
}

/// What a reader needs to compare two results: the machine, the pool,
/// the toolchain and the code that ran.
pub fn facts(pool_threads: usize) -> J {
    J::obj(vec![
        ("nproc", J::Int(nproc() as u64)),
        ("pool_threads", J::Int(pool_threads as u64)),
        ("cpu_model", J::Str(cpu_model())),
        ("rustc", J::Str(env!("PERFBENCH_RUSTC").to_string())),
        ("commit", J::Str(commit().unwrap_or_else(|| "unknown".into()))),
        ("source_digest", J::Str(format!("{:016x}", source_digest()))),
    ])
}

/// The processor's brand string, from CPUID (no file outside the
/// checkout is read).
#[cfg(target_arch = "x86_64")]
fn cpu_model() -> String {
    use std::arch::x86_64::__cpuid;
    // leaf 0x80000000 reports the highest extended leaf; the brand
    // string sits in leaves 0x80000002..4
    if __cpuid(0x8000_0000).eax < 0x8000_0004 {
        return "unknown".into();
    }
    let brand = [0x8000_0002u32, 0x8000_0003, 0x8000_0004].map(__cpuid);
    let bytes: Vec<u8> = brand
        .iter()
        .flat_map(|r| [r.eax, r.ebx, r.ecx, r.edx])
        .flat_map(u32::to_le_bytes)
        .filter(|&b| b != 0)
        .collect();
    String::from_utf8_lossy(&bytes).trim().to_string()
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_model() -> String {
    "unknown".into()
}

/// The checked-out commit, when the working directory is a git
/// checkout.
fn commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => {
            std::fs::read_to_string(Path::new(".git").join(reference)).ok().or_else(|| {
                let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
                packed
                    .lines()
                    .find(|l| l.ends_with(reference))
                    .and_then(|l| l.split_whitespace().next())
                    .map(str::to_string)
            })
        }
        None => Some(head.to_string()),
    }
    .map(|c| c.trim().to_string())
}

/// FNV-1a over the path and bytes of every file under `crates/` and
/// `src/` (sorted, build outputs skipped): identifies the code that ran
/// where no git metadata exists.
fn source_digest() -> u64 {
    let mut files = Vec::new();
    for root in ["crates", "src"] {
        collect_files(Path::new(root), &mut files);
    }
    files.sort();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for path in &files {
        let bytes = std::fs::read(path).unwrap_or_default();
        for &b in path.to_string_lossy().as_bytes().iter().chain(&bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn collect_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if entry.file_name() != "target" {
                collect_files(&path, out);
            }
        } else {
            out.push(path);
        }
    }
}
