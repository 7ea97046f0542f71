//! The host fingerprint printed with every report, so numbers from
//! different machines are never compared silently.

use diffpattern::nn::{matmul, with_inner_gemm_parallelism, Tensor};
use std::time::Instant;

/// The GEMM shape of the calibration timing: `M x K` times `K x N`.
pub const CALIBRATION_SHAPE: (usize, usize, usize) = (128, 256, 128);
const CALIBRATION_REPEATS: usize = 15;

/// What ran the benchmark.
#[derive(Debug, Clone)]
pub struct Host {
    /// CPU model from `/proc/cpuinfo`.
    pub cpu: String,
    /// Available parallelism.
    pub nproc: usize,
    /// x86 features the binary was compiled for, then those the CPU
    /// reports at run time.
    pub compiled_features: Vec<&'static str>,
    /// Features the CPU reports.
    pub runtime_features: Vec<&'static str>,
    /// The compiler that built the benchmark and the program.
    pub rustc: &'static str,
    /// Median single-threaded time of one fixed `dp_nn` GEMM.
    pub gemm_calibration_ms: f64,
    /// How many CPUs' worth of that GEMM the host delivers when every
    /// CPU runs it at once: `nproc` on a quiet host, less when another
    /// tenant holds a CPU.
    pub effective_cpus: f64,
}

impl Host {
    /// Probes the machine, including the GEMM calibration timing.
    pub fn probe() -> Host {
        Host {
            cpu: cpu_model(),
            nproc: nproc(),
            compiled_features: compiled_features(),
            runtime_features: runtime_features(),
            rustc: env!("PERFBENCH_RUSTC_VERSION"),
            gemm_calibration_ms: gemm_calibration_ms(),
            effective_cpus: effective_cpus(),
        }
    }
}

impl std::fmt::Display for Host {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (m, k, n) = CALIBRATION_SHAPE;
        write!(
            f,
            "host: cpu=\"{}\" nproc={} compiled_features={} runtime_features={} rustc=\"{}\" gemm_{m}x{k}x{n}_ms={:.4} effective_cpus={:.2}",
            self.cpu,
            self.nproc,
            self.compiled_features.join(","),
            self.runtime_features.join(","),
            self.rustc,
            self.gemm_calibration_ms,
            self.effective_cpus
        )
    }
}

/// Available parallelism (1 when unknown).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn compiled_features() -> Vec<&'static str> {
    let mut out = Vec::new();
    macro_rules! check {
        ($($f:tt),*) => {$(
            if cfg!(target_feature = $f) {
                out.push($f);
            }
        )*};
    }
    check!("sse4.2", "avx", "avx2", "fma", "avx512f");
    out
}

#[cfg(target_arch = "x86_64")]
fn runtime_features() -> Vec<&'static str> {
    let mut out = Vec::new();
    macro_rules! check {
        ($($f:tt),*) => {$(
            if std::arch::is_x86_feature_detected!($f) {
                out.push($f);
            }
        )*};
    }
    check!("sse4.2", "avx", "avx2", "fma", "avx512f");
    out
}

#[cfg(not(target_arch = "x86_64"))]
fn runtime_features() -> Vec<&'static str> {
    Vec::new()
}

fn calibration_operands() -> (Tensor, Tensor) {
    let (m, k, n) = CALIBRATION_SHAPE;
    (
        Tensor::from_vec(
            &[m, k],
            (0..m * k).map(|i| (i % 17) as f32 * 0.01).collect(),
        ),
        Tensor::from_vec(
            &[k, n],
            (0..k * n).map(|i| (i % 13) as f32 * 0.01).collect(),
        ),
    )
}

/// Times each of `repeats` single-threaded products, ms.
fn calibration_times(repeats: usize) -> Vec<f64> {
    let (a, b) = calibration_operands();
    with_inner_gemm_parallelism(false, || {
        (0..repeats)
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(matmul(std::hint::black_box(&a), std::hint::black_box(&b)));
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect()
    })
}

/// Median time of one single-threaded [`CALIBRATION_SHAPE`] product
/// through `dp_nn::matmul`.
pub fn gemm_calibration_ms() -> f64 {
    crate::stats::median(&calibration_times(CALIBRATION_REPEATS)).expect("at least one repeat")
}

/// Runs the calibration product on every CPU at once (about 50 ms of
/// work each) and compares the work done per unit of time with one CPU
/// alone.
fn effective_cpus() -> f64 {
    const REPEATS: usize = 200;
    let alone: f64 = calibration_times(REPEATS).iter().sum();
    let cpus = nproc();
    let t = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..cpus {
            s.spawn(|| calibration_times(REPEATS));
        }
    });
    let together = t.elapsed().as_secs_f64() * 1e3;
    cpus as f64 * alone / together
}
