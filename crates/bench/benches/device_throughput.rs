//! Device read throughput across problem sizes and thread counts.
//!
//! The device model fans gauge programmings and reads over the persistent
//! worker pool with per-(gauge, read) derived seeds, so results are
//! bit-identical at any thread count; this bench measures the wall-clock
//! payoff. Each measurement executes full `run_ising` calls (programming +
//! reads + chronological reassembly) and reports reads per wall-clock
//! second together with the host-time breakdown per protocol phase.
//!
//! Two problem scales are exercised: the 128-qubit paper instance (a
//! paper-class MQO workload minor-embedded on a 4×4 Chimera block) and a
//! 1152-qubit synthetic instance (random weights on every coupler of a
//! 12×12 Chimera graph — the full D-Wave 2X scale). Results are written to
//! `BENCH_device.json` at the repository root.
//!
//! This is a plain binary (`harness = false`), so it accepts its own CLI:
//!
//! ```text
//! cargo bench -p mqo-bench --bench device_throughput -- \
//!     [--qubits 128,1152] [--reads N] [--gauges N] [--threads a,b] \
//!     [--smoke] [--no-write]
//! ```
//!
//! `--smoke` shrinks everything for CI (tiny reads, one size, no JSON).

use mqo_annealer::behavioral::BehavioralSampler;
use mqo_annealer::device::{DeviceConfig, PhaseTimings, QuantumAnnealer};
use mqo_annealer::parallel::resolve_threads;
use mqo_annealer::sa::{lane_kernel, SimulatedAnnealingSampler};
use mqo_annealer::sampler::{Sampler, SamplerHints};
use mqo_annealer::sqa::{PathIntegralQmcSampler, SqaConfig};
use mqo_chimera::graph::ChimeraGraph;
use mqo_chimera::physical::PhysicalMapping;
use mqo_core::ids::VarId;
use mqo_core::ising::Ising;
use mqo_core::qubo::Qubo;
use mqo_workload::paper::{self, PaperWorkloadConfig};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Args {
    qubits: Vec<usize>,
    reads: usize,
    gauges: usize,
    threads: Vec<usize>,
    write: bool,
    smoke: bool,
}

impl Args {
    fn parse() -> Args {
        let mut args = Args {
            qubits: vec![128, 1152],
            // Four blocks of `LANES` = 8 reads: 1, 2 or 4 workers each get
            // whole blocks.
            reads: 32,
            gauges: 4,
            threads: vec![1, resolve_threads(0).max(4)],
            write: true,
            smoke: false,
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let mut value =
                |name: &str| it.next().unwrap_or_else(|| panic!("{name} needs a value"));
            match flag.as_str() {
                "--qubits" => {
                    args.qubits = value("--qubits")
                        .split(',')
                        .map(|s| s.parse().expect("--qubits takes integers"))
                        .collect();
                }
                "--reads" => args.reads = value("--reads").parse().expect("--reads"),
                "--gauges" => args.gauges = value("--gauges").parse().expect("--gauges"),
                "--threads" => {
                    args.threads = value("--threads")
                        .split(',')
                        .map(|s| s.parse().expect("--threads takes integers"))
                        .collect();
                }
                "--no-write" => args.write = false,
                "--smoke" => {
                    args.smoke = true;
                    args.qubits = vec![128];
                    args.reads = 6;
                    args.gauges = 2;
                    args.threads = vec![1, 2];
                    args.write = false;
                }
                // Ignore criterion-style flags CI bench runners may pass.
                "--bench" | "--test" => {}
                other => panic!("unknown flag {other}"),
            }
        }
        args
    }
}

/// The 128-qubit paper instance: a paper-class MQO workload minor-embedded
/// on a 4×4 Chimera block.
fn paper_problem() -> (Ising, Qubo, String) {
    let graph = ChimeraGraph::new(4, 4);
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let inst = paper::generate(&graph, &PaperWorkloadConfig::paper_class(2), &mut rng)
        .expect("benchmark machine hosts the paper class");
    let logical = mqo_core::logical::LogicalMapping::with_default_epsilon(&inst.problem);
    let pm =
        PhysicalMapping::new(logical.qubo(), inst.layout.embedding.clone(), &graph, 0.25).unwrap();
    let qubo = pm.physical_qubo().clone();
    (
        Ising::from_qubo(&qubo),
        qubo,
        "paper-class 2-plan instance on a 4x4 Chimera block".into(),
    )
}

/// A synthetic full-scale instance: random fields and random weights on
/// *every* coupler of an `m×m` Chimera graph — the densest Ising problem
/// the device can program at that size, so per-read cost is an upper bound.
fn synthetic_chimera_problem(cells: usize) -> (Ising, Qubo, String) {
    let graph = ChimeraGraph::new(cells, cells);
    let n = graph.num_qubits();
    let mut rng = ChaCha8Rng::seed_from_u64(42);
    let h: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let couplings: Vec<(VarId, VarId, f64)> = graph
        .couplers()
        .into_iter()
        .map(|(a, b)| {
            (
                VarId::new(a.index()),
                VarId::new(b.index()),
                rng.gen_range(-1.0..1.0),
            )
        })
        .collect();
    let ising = Ising::new(h, couplings, 0.0);
    let (qubo, _) = ising.to_qubo();
    (
        ising,
        qubo,
        format!("random couplings on a {cells}x{cells} Chimera graph"),
    )
}

fn problem_for(qubits: usize) -> (Ising, Qubo, String) {
    match qubits {
        128 => paper_problem(),
        // 128 = 8·4² is handled above with the paper workload; any other
        // square size gets the synthetic instance.
        other => {
            let cells = (other as f64 / 8.0).sqrt().round() as usize;
            assert_eq!(
                cells * cells * 8,
                other,
                "--qubits must be 8*k^2 (e.g. 128 = 8*4^2, 1152 = 8*12^2)"
            );
            synthetic_chimera_problem(cells)
        }
    }
}

/// A cheaper QMC configuration than the default so the full-device bench
/// stays in the seconds range; relative scaling is unaffected.
fn light_sqa() -> PathIntegralQmcSampler {
    PathIntegralQmcSampler::new(SqaConfig {
        slices: 4,
        sweeps: 64,
        ..SqaConfig::default()
    })
}

struct Measurement {
    reads_per_sec: f64,
    timings: PhaseTimings,
}

fn run_once<S: Sampler + Clone>(
    sampler: &S,
    args: &Args,
    threads: usize,
    ising: &Ising,
    qubo: &Qubo,
) -> PhaseTimings {
    let device = QuantumAnnealer::new(
        DeviceConfig {
            num_reads: args.reads,
            num_gauges: args.gauges,
            threads,
            ..DeviceConfig::default()
        },
        sampler.clone(),
    );
    let (set, timings) = device
        .run_ising_timed(ising, qubo, &SamplerHints::default(), 7)
        .expect("device run succeeds");
    assert_eq!(set.len(), args.reads);
    timings
}

/// Reads/sec of `run_ising` for one back-end at one thread count, with the
/// per-phase host-time breakdown summed over the timed repetitions.
fn throughput<S: Sampler + Clone>(
    sampler: &S,
    args: &Args,
    threads: usize,
    ising: &Ising,
    qubo: &Qubo,
) -> Measurement {
    // One warm-up, then a few timed repetitions.
    run_once(sampler, args, threads, ising, qubo);
    let reps = if args.smoke { 1 } else { 5 };
    let mut timings = PhaseTimings::default();
    let start = Instant::now();
    for _ in 0..reps {
        let t = run_once(sampler, args, threads, ising, qubo);
        timings.program_s += t.program_s;
        timings.read_s += t.read_s;
        timings.assemble_s += t.assemble_s;
    }
    Measurement {
        reads_per_sec: (args.reads * reps) as f64 / start.elapsed().as_secs_f64(),
        timings,
    }
}

fn main() {
    let args = Args::parse();
    let host_parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!("SA lane kernel: {}", lane_kernel());
    let mut entries = String::new();

    for &qubits in &args.qubits {
        let (ising, qubo, description) = problem_for(qubits);
        assert_eq!(ising.num_spins(), qubits);
        eprintln!("== {qubits} qubits: {description} ==");
        for (backend, sampler) in [
            ("sa", Backend::Sa(SimulatedAnnealingSampler::default())),
            ("sqa", Backend::Sqa(light_sqa())),
            (
                "behavioral",
                Backend::Behavioral(BehavioralSampler::default()),
            ),
        ] {
            for &threads in &args.threads {
                let m = sampler.throughput(&args, threads, &ising, &qubo);
                eprintln!(
                    "{backend:>11} threads={threads}: {:9.1} reads/s  \
                     (program {:.3}s, read {:.3}s, assemble {:.4}s)",
                    m.reads_per_sec, m.timings.program_s, m.timings.read_s, m.timings.assemble_s,
                );
                let _ = write!(
                    entries,
                    "{}    {{ \"backend\": \"{backend}\", \"qubits\": {qubits}, \
                     \"threads\": {threads}, \"reads_per_sec\": {:.1}, \
                     \"program_s\": {:.4}, \"read_s\": {:.4}, \"assemble_s\": {:.5} }}",
                    if entries.is_empty() { "" } else { ",\n" },
                    m.reads_per_sec,
                    m.timings.program_s,
                    m.timings.read_s,
                    m.timings.assemble_s,
                );
            }
        }
    }

    if args.write {
        let sizes = args
            .qubits
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(", ");
        let json = format!(
            "{{\n  \"benchmark\": \"device_throughput\",\n  \"problem_sizes_qubits\": [{sizes}],\n  \
             \"reads_per_run\": {},\n  \"gauges_per_run\": {},\n  \"host\": {{ \"nproc\": \
             {host_parallelism}, \"cpu\": \"{}\", \"kernel\": \"{}\", \"sa_lane_kernel\": \"{}\" }},\n  \
             \"results\": [\n{entries}\n  ]\n}}\n",
            args.reads,
            args.gauges,
            cpu_model(),
            os_release(),
            lane_kernel(),
        );
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_device.json");
        if let Err(e) = std::fs::write(path, &json) {
            eprintln!("could not write {path}: {e}");
        } else {
            eprintln!("wrote {path}");
        }
    }
}

/// The CPU's model name from `/proc/cpuinfo`, or `"unknown"`.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name")?.split_once(':'))
                .map(|(_, name)| name.trim().replace('"', "'"))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The running kernel's release, or `"unknown"`.
fn os_release() -> String {
    std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".into(), |r| r.trim().to_string())
}

/// The three back-ends, statically dispatched per arm (the device is
/// generic over its sampler; there is no object-safe common type anymore).
enum Backend {
    Sa(SimulatedAnnealingSampler),
    Sqa(PathIntegralQmcSampler),
    Behavioral(BehavioralSampler),
}

impl Backend {
    fn throughput(&self, args: &Args, threads: usize, ising: &Ising, qubo: &Qubo) -> Measurement {
        match self {
            Backend::Sa(s) => throughput(s, args, threads, ising, qubo),
            Backend::Sqa(s) => throughput(s, args, threads, ising, qubo),
            Backend::Behavioral(s) => throughput(s, args, threads, ising, qubo),
        }
    }
}
