//! The simulated D-Wave 2X device: programming validation, the gauge/read
//! protocol, control-error noise, and the per-read timing model.
//!
//! **Substitution note.** This is the one place the reproduction replaces
//! hardware with software. The device model keeps every *externally
//! observable* contract of the machine the paper used:
//!
//! * only problems whose couplings lie on usable Chimera couplers are
//!   programmable;
//! * each read costs `129 µs` of annealing plus `247 µs` of read-out
//!   (376 µs total) of simulated device time;
//! * runs are split into gauge-transformation batches (10 × 100 reads by
//!   default) with fresh control-error noise per programming;
//! * samples are noisy low-energy configurations of the programmed problem,
//!   produced by a pluggable annealing back-end (classical SA by default,
//!   path-integral QMC for the physics-faithful variant).
//!
//! Reported times for the quantum track are *simulated device* times, just
//! as the paper counts annealing time rather than the (much larger) host
//! round-trip latency.
//!
//! **Execution model.** Every gauge batch and every read draws its
//! randomness from an RNG seeded by [`crate::parallel::derive_seed`] over
//! `(run seed, stream, gauge index, read index)` rather than from one
//! shared sequential stream. Reads are therefore independent by
//! construction, and the device fans them out over the process-wide worker
//! pool ([`DeviceConfig::threads`]) while reassembling results in
//! chronological order — a run is bit-identical at any thread count.
//! Reads go to the sampler in fixed blocks of [`LANES`] (8) consecutive
//! reads ([`ProgrammedSampler::sample_block`]), which may span gauge
//! batches. SA anneals every read in a lane walk: a block as one 8-lane
//! walk for seven or eight reads, else as 4- and 2-lane walks, with a lone
//! read in a 2-lane walk whose spare lane mirrors it; every other back-end
//! runs one read at a time, and each read is the same either way.
//!
//! **Defects.** The paper's machine has 55 permanently broken qubits; the
//! graph carries them ([`ChimeraGraph::with_broken`]) and the embedders
//! route around them. The device has no transient faults: a run either
//! fails up front with a typed [`DeviceError`] or returns every read.

use crate::gauge::Gauge;
use crate::noise::ControlErrorModel;
use crate::parallel::{derive_seed, parallel_map_with, resolve_threads, STREAM_GAUGE, STREAM_READ};
use crate::sampler::{
    ProgrammedSampler, Read, ReadScratch, SampleSet, Sampler, SamplerHints, LANES,
};
use mqo_chimera::graph::ChimeraGraph;
use mqo_chimera::physical::PhysicalMapping;
use mqo_core::ising::{spins_to_bits, Ising};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Device-level configuration. Defaults follow Section 7.1 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
#[serde(default)]
pub struct DeviceConfig {
    /// Annealing time per run, microseconds (paper default: 129).
    pub anneal_time_us: f64,
    /// Read-out time per run, microseconds (paper default: 247).
    pub readout_time_us: f64,
    /// Total annealing runs per instance (paper: 1000).
    pub num_reads: usize,
    /// Number of gauge transformations the reads are partitioned into
    /// (paper: 10 batches of 100).
    pub num_gauges: usize,
    /// Relative control-error noise applied at each programming.
    pub control_error: ControlErrorModel,
    /// Worker threads for gauge programming and read execution
    /// (`0` = available parallelism). Results are identical at any value.
    /// Above 1, a run fans out over the process-wide pool, which takes one
    /// run at a time; the bench harness sets it (`--threads`), while the
    /// service, which already runs one solve per core, sets 1.
    pub threads: usize,
}

impl Default for DeviceConfig {
    fn default() -> Self {
        DeviceConfig {
            anneal_time_us: 129.0,
            readout_time_us: 247.0,
            num_reads: 1000,
            num_gauges: 10,
            // Calibrated with the behavioural back-end against the paper's
            // quality anchors (first read ≈ +1.5 % of a run's best, final
            // solution ≈ +0.4 % of optimum); see the `calibrate` harness
            // binary.
            control_error: ControlErrorModel {
                relative_sigma: 0.0025,
            },
            threads: 0,
        }
    }
}

impl DeviceConfig {
    /// Simulated device time consumed by one annealing run plus read-out.
    pub fn time_per_read_us(&self) -> f64 {
        self.anneal_time_us + self.readout_time_us
    }
}

/// Errors raised when a problem cannot be programmed onto the device.
#[derive(Debug, Clone, PartialEq)]
pub enum DeviceError {
    /// A quadratic term connects two qubits without a usable coupler.
    NotProgrammable {
        /// Index of the offending physical variable pair.
        phys_a: usize,
        /// Second physical variable of the pair.
        phys_b: usize,
    },
    /// The configuration is degenerate (zero reads or gauges).
    InvalidConfig(&'static str),
}

impl std::fmt::Display for DeviceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeviceError::NotProgrammable { phys_a, phys_b } => write!(
                f,
                "physical variables {phys_a} and {phys_b} are coupled in the formula \
                 but share no usable hardware coupler"
            ),
            DeviceError::InvalidConfig(msg) => write!(f, "invalid device configuration: {msg}"),
        }
    }
}

impl std::error::Error for DeviceError {}

/// Host wall-clock spent in each phase of one device run (distinct from the
/// *simulated* device time on the reads): programming the gauge batches,
/// executing the reads, and reassembling the chronological sample set.
#[derive(Debug, Clone, Copy, Default, serde::Serialize, serde::Deserialize)]
pub struct PhaseTimings {
    /// Seconds spent programming all gauge batches (gauge draw, noise
    /// perturbation, `Sampler::program`).
    pub program_s: f64,
    /// Seconds spent executing all annealing reads.
    pub read_s: f64,
    /// Seconds spent reassembling reads into the set.
    pub assemble_s: f64,
}

/// The simulated annealer device.
#[derive(Debug, Clone)]
pub struct QuantumAnnealer<S> {
    config: DeviceConfig,
    sampler: S,
}

impl<S: Sampler> QuantumAnnealer<S> {
    /// Builds a device with the given protocol configuration and annealing
    /// back-end.
    pub fn new(config: DeviceConfig, sampler: S) -> Self {
        QuantumAnnealer { config, sampler }
    }

    /// The device configuration.
    pub fn config(&self) -> &DeviceConfig {
        &self.config
    }

    /// The annealing back-end.
    pub fn sampler(&self) -> &S {
        &self.sampler
    }

    /// Programs a physically mapped problem and executes the full
    /// gauge/read protocol. Returns reads in chronological order with
    /// simulated device timestamps; energies are evaluated against the true
    /// (noise-free) physical formula.
    pub fn run(
        &self,
        pm: &PhysicalMapping,
        graph: &ChimeraGraph,
        seed: u64,
    ) -> Result<SampleSet, DeviceError> {
        // Programming validation: every coupling must sit on real hardware.
        for &(i, j, _) in pm.physical_qubo().quadratic() {
            let qa = pm.qubit_of_phys(i.index());
            let qb = pm.qubit_of_phys(j.index());
            if !graph.has_coupler(qa, qb) {
                return Err(DeviceError::NotProgrammable {
                    phys_a: i.index(),
                    phys_b: j.index(),
                });
            }
        }
        let true_ising = Ising::from_qubo(pm.physical_qubo());
        // Host-side embedding knowledge: chains in dense physical indices.
        let chains = pm.dense_chains();
        self.run_ising_timed(
            &true_ising,
            pm.physical_qubo(),
            &SamplerHints { chains: &chains },
            seed,
        )
        .map(|(set, _)| set)
    }

    /// Runs the protocol on a raw Ising problem without hardware validation
    /// (used for ablations and tests). `true_qubo` is the noise-free
    /// objective that read energies are reported against.
    pub fn run_ising(
        &self,
        true_ising: &Ising,
        true_qubo: &mqo_core::qubo::Qubo,
        seed: u64,
    ) -> Result<SampleSet, DeviceError> {
        self.run_ising_timed(true_ising, true_qubo, &SamplerHints::default(), seed)
            .map(|(set, _)| set)
    }

    /// [`QuantumAnnealer::run_ising`] with explicit embedding hints and a
    /// host wall-clock breakdown per protocol phase (used by the throughput
    /// benchmarks).
    pub fn run_ising_timed(
        &self,
        true_ising: &Ising,
        true_qubo: &mqo_core::qubo::Qubo,
        hints: &SamplerHints<'_>,
        seed: u64,
    ) -> Result<(SampleSet, PhaseTimings), DeviceError> {
        if self.config.num_reads == 0 {
            return Err(DeviceError::InvalidConfig("num_reads must be positive"));
        }
        if self.config.num_gauges == 0 || self.config.num_gauges > self.config.num_reads {
            return Err(DeviceError::InvalidConfig(
                "num_gauges must be in 1..=num_reads",
            ));
        }
        let n = true_ising.num_spins();
        let reads_per_gauge = self.config.num_reads / self.config.num_gauges;
        let remainder = self.config.num_reads % self.config.num_gauges;
        let threads = resolve_threads(self.config.threads);

        // Phase A — one programming per gauge batch, each from its own
        // derived RNG stream. Hardware re-programs (and therefore re-draws
        // analog error) once per gauge batch. Programmings are stored
        // unboxed (`S::Programmed`), so the read loop below dispatches
        // statically.
        let t0 = std::time::Instant::now();
        let programmed: Vec<(Gauge, S::Programmed)> = parallel_map_with(
            self.config.num_gauges,
            threads,
            || (),
            |_, gauge_idx| {
                let mut rng =
                    ChaCha8Rng::seed_from_u64(derive_seed(seed, STREAM_GAUGE, gauge_idx as u64, 0));
                let gauge = Gauge::random(n, &mut rng);
                let realised = self.config.control_error.perturb(true_ising, &mut rng);
                let prog = self
                    .sampler
                    .program(gauge.apply(&realised), hints, &mut rng);
                (gauge, prog)
            },
        );
        let t1 = std::time::Instant::now();

        // Phase B — every read runs independently on its own derived
        // stream; timestamps come from the read's chronological index, so
        // reassembly in index order reproduces the serial protocol exactly.
        // The first `remainder` gauges serve one extra read each.
        let boundary = remainder * (reads_per_gauge + 1);
        let locate = |idx: usize| -> (usize, usize) {
            if idx < boundary {
                (idx / (reads_per_gauge + 1), idx % (reads_per_gauge + 1))
            } else {
                (
                    remainder + (idx - boundary) / reads_per_gauge,
                    (idx - boundary) % reads_per_gauge,
                )
            }
        };
        let time_per_read = self.config.time_per_read_us();
        let num_reads = self.config.num_reads;
        // Reads run in blocks of `LANES` consecutive reads, which the
        // sampler may anneal together (`sample_block`). Blocks are
        // fixed by read index, so a run is the same at any thread count.
        let executed = parallel_map_with(
            num_reads.div_ceil(LANES),
            threads,
            // One spin buffer per block slot and one scratch per worker,
            // reused across that worker's whole chunk of blocks — the read
            // loop allocates only the outgoing assignments.
            || {
                let programs: Vec<&S::Programmed> = Vec::with_capacity(LANES);
                let rngs: Vec<ChaCha8Rng> = Vec::with_capacity(LANES);
                (vec![0i8; LANES * n], ReadScratch::default(), programs, rngs)
            },
            |(spins, scratch, programs, rngs), block| {
                let block_reads = block * LANES..num_reads.min((block + 1) * LANES);
                programs.clear();
                rngs.clear();
                for idx in block_reads.clone() {
                    let (gauge_idx, read_in_gauge) = locate(idx);
                    programs.push(&programmed[gauge_idx].1);
                    rngs.push(ChaCha8Rng::seed_from_u64(derive_seed(
                        seed,
                        STREAM_READ,
                        gauge_idx as u64,
                        read_in_gauge as u64,
                    )));
                }
                S::Programmed::sample_block(
                    programs,
                    rngs,
                    &mut spins[..block_reads.len() * n],
                    scratch,
                );
                block_reads
                    .enumerate()
                    .map(|(slot, idx)| {
                        let (gauge_idx, _) = locate(idx);
                        let spins = &mut spins[slot * n..(slot + 1) * n];
                        programmed[gauge_idx].0.transform_spins_in_place(spins);
                        let assignment = spins_to_bits(spins);
                        let energy = true_qubo.energy(&assignment);
                        Read {
                            assignment,
                            energy,
                            elapsed_us: (idx + 1) as f64 * time_per_read,
                            gauge: gauge_idx,
                        }
                    })
                    .collect::<Vec<_>>()
            },
        );

        let t2 = std::time::Instant::now();

        let mut reads = Vec::with_capacity(num_reads);
        for block in executed {
            reads.extend(block);
        }
        let set = SampleSet::new(reads);
        let timings = PhaseTimings {
            program_s: (t1 - t0).as_secs_f64(),
            read_s: (t2 - t1).as_secs_f64(),
            assemble_s: t2.elapsed().as_secs_f64(),
        };
        Ok((set, timings))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sa::SimulatedAnnealingSampler;
    use mqo_chimera::embedding::triad;
    use mqo_core::ids::VarId;
    use mqo_core::qubo::Qubo;

    fn small_physical() -> (PhysicalMapping, ChimeraGraph, Qubo) {
        let mut b = Qubo::builder(4);
        b.add_linear(VarId(0), -1.0);
        b.add_linear(VarId(1), 0.5);
        b.add_quadratic(VarId(0), VarId(1), 2.0);
        b.add_quadratic(VarId(1), VarId(2), -1.0);
        b.add_quadratic(VarId(2), VarId(3), 1.5);
        b.add_quadratic(VarId(0), VarId(3), -0.5);
        let logical = b.build();
        let graph = ChimeraGraph::new(2, 2);
        let e = triad::triad(&graph, 0, 0, 4).unwrap();
        let pm = PhysicalMapping::new(&logical, e, &graph, 0.25).unwrap();
        (pm, graph, logical)
    }

    fn device(reads: usize, gauges: usize) -> QuantumAnnealer<SimulatedAnnealingSampler> {
        QuantumAnnealer::new(
            DeviceConfig {
                num_reads: reads,
                num_gauges: gauges,
                ..DeviceConfig::default()
            },
            SimulatedAnnealingSampler::default(),
        )
    }

    #[test]
    fn run_produces_the_requested_number_of_timed_reads() {
        let (pm, graph, _) = small_physical();
        let set = device(50, 10).run(&pm, &graph, 7).unwrap();
        assert_eq!(set.len(), 50);
        let reads = set.reads();
        assert!((reads[0].elapsed_us - 376.0).abs() < 1e-9);
        assert!((reads[49].elapsed_us - 50.0 * 376.0).abs() < 1e-9);
        // Gauge indices partition the reads evenly.
        for g in 0..10 {
            assert_eq!(reads.iter().filter(|r| r.gauge == g).count(), 5);
        }
    }

    #[test]
    fn best_read_reaches_the_true_physical_optimum() {
        let (pm, graph, logical) = small_physical();
        let set = device(100, 10).run(&pm, &graph, 3).unwrap();
        let (_, phys_opt) = pm.physical_qubo().brute_force_minimum();
        let best = set.best().unwrap();
        assert!(
            (best.energy - phys_opt).abs() < 1e-9,
            "best read {} vs optimum {}",
            best.energy,
            phys_opt
        );
        // And it decodes to the logical optimum.
        let un = pm.unembed(&best.assignment);
        let (_, logical_opt) = logical.brute_force_minimum();
        assert!((logical.energy(&un.logical) - logical_opt).abs() < 1e-9);
    }

    #[test]
    fn runs_are_reproducible_from_the_seed() {
        let (pm, graph, _) = small_physical();
        let a = device(30, 3).run(&pm, &graph, 42).unwrap();
        let b = device(30, 3).run(&pm, &graph, 42).unwrap();
        let ea: Vec<f64> = a.reads().iter().map(|r| r.energy).collect();
        let eb: Vec<f64> = b.reads().iter().map(|r| r.energy).collect();
        assert_eq!(ea, eb);
        let c = device(30, 3).run(&pm, &graph, 43).unwrap();
        let ec: Vec<f64> = c.reads().iter().map(|r| r.energy).collect();
        assert_ne!(ea, ec, "different seeds should differ somewhere");
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let (pm, graph, _) = small_physical();
        let run_with = |num_reads: usize, threads: usize| {
            QuantumAnnealer::new(
                DeviceConfig {
                    num_reads,
                    num_gauges: num_reads.min(4),
                    threads,
                    ..DeviceConfig::default()
                },
                SimulatedAnnealingSampler::default(),
            )
            .run(&pm, &graph, 11)
            .unwrap()
        };
        // Every split of a block into lane walks, a block and a tail, two
        // blocks and a lone-read tail, and more blocks than workers.
        for num_reads in [1, 2, 3, 5, 6, 7, 8, 10, 17, 25] {
            let serial = run_with(num_reads, 1);
            assert_eq!(serial.len(), num_reads);
            for threads in [2, 3] {
                let parallel = run_with(num_reads, threads);
                assert_eq!(
                    serial.reads(),
                    parallel.reads(),
                    "{num_reads} reads, {threads} threads"
                );
            }
        }
        assert_eq!(run_with(25, 1).reads(), run_with(25, 8).reads());
    }

    #[test]
    fn non_hardware_couplings_are_rejected() {
        // Build a mapping whose logical edge lands on a non-existent coupler
        // by breaking the graph *after* the mapping was created.
        let (pm, graph, _) = small_physical();
        let some_used_qubit = pm.qubit_of_phys(0);
        let broken = graph.clone().with_broken(&[some_used_qubit]);
        let err = device(10, 2).run(&pm, &broken, 0).unwrap_err();
        assert!(matches!(err, DeviceError::NotProgrammable { .. }));
    }

    #[test]
    fn degenerate_configs_are_rejected() {
        let (pm, graph, _) = small_physical();
        assert_eq!(
            device(0, 1).run(&pm, &graph, 0).unwrap_err(),
            DeviceError::InvalidConfig("num_reads must be positive")
        );
        assert!(matches!(
            device(5, 10).run(&pm, &graph, 0).unwrap_err(),
            DeviceError::InvalidConfig(_)
        ));
    }

    #[test]
    fn uneven_gauge_batches_still_cover_all_reads() {
        let (pm, graph, _) = small_physical();
        let set = device(10, 3).run(&pm, &graph, 1).unwrap();
        assert_eq!(set.len(), 10);
        let counts: Vec<usize> = (0..3)
            .map(|g| set.reads().iter().filter(|r| r.gauge == g).count())
            .collect();
        assert_eq!(counts.iter().sum::<usize>(), 10);
        assert!(counts.iter().all(|&c| c == 3 || c == 4));
    }

    #[test]
    fn paper_default_config_timing() {
        let c = DeviceConfig::default();
        assert!((c.time_per_read_us() - 376.0).abs() < 1e-12);
        assert_eq!(c.num_reads, 1000);
        assert_eq!(c.num_gauges, 10);
    }
}
