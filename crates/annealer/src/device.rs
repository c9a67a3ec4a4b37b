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
//! Reads go to the sampler in fixed blocks of [`LANES`] consecutive reads
//! ([`ProgrammedSampler::sample_block_fast`]), which may span gauge
//! batches; SA anneals a block in lock-step lanes, every other back-end one
//! read at a time, and each read is the same either way.

use crate::faults::{FaultConfig, FaultEvents, FaultPlan, STREAM_FAULT_READ};
use crate::gauge::Gauge;
use crate::noise::ControlErrorModel;
use crate::parallel::{derive_seed, parallel_map_with, resolve_threads, STREAM_GAUGE, STREAM_READ};
use crate::sampler::{
    ProgrammedSampler, Read, ReadScratch, SampleSet, Sampler, SamplerHints, LANES,
};
use mqo_chimera::graph::ChimeraGraph;
use mqo_chimera::physical::PhysicalMapping;
use mqo_core::ising::{spins_to_bits, Ising};
use rand::{Rng, SeedableRng};
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
    /// Deterministic fault injection (see [`crate::faults`]). Inert by
    /// default; an inert model leaves runs bit-identical to the fault-free
    /// device.
    pub faults: FaultConfig,
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
            // solution ≈ +0.4 % of optimum); see the `calibrate` and
            // `probe` harness binaries.
            control_error: ControlErrorModel {
                relative_sigma: 0.0025,
            },
            threads: 0,
            faults: FaultConfig::NONE,
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
    /// The configuration is degenerate (zero reads or gauges, bad fault
    /// rates).
    InvalidConfig(&'static str),
    /// A gauge batch exhausted its programming-attempt budget (injected
    /// fault); the run was aborted before any read.
    ProgrammingFailed {
        /// Index of the gauge batch that failed to program.
        gauge: usize,
        /// Programming attempts consumed before giving up.
        attempts: usize,
    },
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
            DeviceError::ProgrammingFailed { gauge, attempts } => write!(
                f,
                "gauge batch {gauge} failed to program after {attempts} attempts"
            ),
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
    /// Seconds spent reassembling reads and fault events into the set.
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
        self.run_ising_hinted(
            &true_ising,
            pm.physical_qubo(),
            &SamplerHints { chains: &chains },
            seed,
        )
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
        self.run_ising_hinted(true_ising, true_qubo, &SamplerHints::default(), seed)
    }

    /// [`QuantumAnnealer::run_ising`] with explicit embedding hints.
    pub fn run_ising_hinted(
        &self,
        true_ising: &Ising,
        true_qubo: &mqo_core::qubo::Qubo,
        hints: &SamplerHints<'_>,
        seed: u64,
    ) -> Result<SampleSet, DeviceError> {
        self.run_ising_timed(true_ising, true_qubo, hints, seed)
            .map(|(set, _)| set)
    }

    /// [`QuantumAnnealer::run_ising_hinted`] with a host wall-clock
    /// breakdown per protocol phase (used by the throughput benchmarks).
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
        self.config
            .faults
            .validate()
            .map_err(DeviceError::InvalidConfig)?;
        let n = true_ising.num_spins();
        let reads_per_gauge = self.config.num_reads / self.config.num_gauges;
        let remainder = self.config.num_reads % self.config.num_gauges;
        let threads = resolve_threads(self.config.threads);

        // Fault schedule — rolled up front so the read phase stays
        // embarrassingly parallel. Inert configs skip the plan entirely and
        // take the exact fault-free code path below.
        let faults_cfg = self.config.faults;
        let fault_plan = if faults_cfg.is_inert() {
            None
        } else {
            match FaultPlan::build(&faults_cfg, seed, self.config.num_gauges, n) {
                Ok(plan) => Some(plan),
                Err(rejected) => {
                    return Err(DeviceError::ProgrammingFailed {
                        gauge: rejected.gauge,
                        attempts: rejected.attempts,
                    })
                }
            }
        };

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
        // sampler may anneal together (`sample_block_fast`). Blocks are
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
                S::Programmed::sample_block_fast(
                    programs,
                    rngs,
                    &mut spins[..block_reads.len() * n],
                    scratch,
                );
                block_reads
                    .enumerate()
                    .map(|(slot, idx)| {
                        let (gauge_idx, read_in_gauge) = locate(idx);
                        let gauge = &programmed[gauge_idx].0;
                        let spins = &mut spins[slot * n..(slot + 1) * n];
                        let mut flips = 0usize;
                        let mut stuck = false;
                        let mut delay_us = 0.0;
                        match fault_plan.as_ref() {
                            None => gauge.transform_spins_in_place(spins),
                            Some(plan) => {
                                // Fault randomness lives on its own derived
                                // stream; the clean read stream is consumed
                                // exactly as in the fault-free path. Roll
                                // order is fixed: stuck → dead-qubit noise →
                                // per-bit flips. A stuck read discards its
                                // annealed spins.
                                delay_us = plan.delay_before_us(gauge_idx);
                                let mut frng = ChaCha8Rng::seed_from_u64(derive_seed(
                                    seed,
                                    STREAM_FAULT_READ,
                                    gauge_idx as u64,
                                    read_in_gauge as u64,
                                ));
                                stuck = faults_cfg.stuck_read_rate > 0.0
                                    && frng.gen::<f64>() < faults_cfg.stuck_read_rate;
                                if stuck {
                                    for s in spins.iter_mut() {
                                        *s = if frng.gen::<bool>() { 1 } else { -1 };
                                    }
                                } else {
                                    gauge.transform_spins_in_place(spins);
                                    for (s, &is_dead) in
                                        spins.iter_mut().zip(plan.dead_mask(gauge_idx))
                                    {
                                        if is_dead {
                                            *s = if frng.gen::<bool>() { 1 } else { -1 };
                                        }
                                    }
                                }
                                if faults_cfg.readout_flip_rate > 0.0 {
                                    for s in spins.iter_mut() {
                                        if frng.gen::<f64>() < faults_cfg.readout_flip_rate {
                                            *s = -*s;
                                            flips += 1;
                                        }
                                    }
                                }
                            }
                        }
                        let assignment = spins_to_bits(spins);
                        let energy = true_qubo.energy(&assignment);
                        let read = Read {
                            assignment,
                            energy,
                            elapsed_us: (idx + 1) as f64 * time_per_read + delay_us,
                            gauge: gauge_idx,
                        };
                        (read, flips, stuck)
                    })
                    .collect::<Vec<_>>()
            },
        );

        let t2 = std::time::Instant::now();

        let mut events = match fault_plan.as_ref() {
            Some(plan) => FaultEvents {
                dropped_qubits: plan.dropped_qubits(),
                programming_rejects: plan.programming_rejects(),
                delay_us: plan.total_delay_us(),
                ..FaultEvents::default()
            },
            None => FaultEvents::default(),
        };
        let mut reads = Vec::with_capacity(num_reads);
        for (read, flips, stuck) in executed.into_iter().flatten() {
            events.readout_flips += flips;
            if stuck {
                events.stuck_reads += 1;
            }
            reads.push(read);
        }
        let set = SampleSet::with_faults(reads, events);
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
        let run_with = |threads: usize| {
            QuantumAnnealer::new(
                DeviceConfig {
                    num_reads: 25,
                    num_gauges: 4,
                    threads,
                    ..DeviceConfig::default()
                },
                SimulatedAnnealingSampler::default(),
            )
            .run(&pm, &graph, 11)
            .unwrap()
        };
        let serial = run_with(1);
        for threads in [2, 3, 8] {
            let parallel = run_with(threads);
            assert_eq!(serial.reads(), parallel.reads());
        }
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
        assert!(c.faults.is_inert());
    }

    fn faulty_device(
        reads: usize,
        gauges: usize,
        faults: FaultConfig,
    ) -> QuantumAnnealer<SimulatedAnnealingSampler> {
        QuantumAnnealer::new(
            DeviceConfig {
                num_reads: reads,
                num_gauges: gauges,
                faults,
                ..DeviceConfig::default()
            },
            SimulatedAnnealingSampler::default(),
        )
    }

    #[test]
    fn inert_fault_config_is_bit_identical_to_the_default() {
        let (pm, graph, _) = small_physical();
        let clean = device(20, 4).run(&pm, &graph, 9).unwrap();
        // Non-default inert knobs (budget, backoff) must not change a thing.
        let inert = FaultConfig {
            max_programming_attempts: 17,
            reprogram_backoff_us: 123.0,
            ..FaultConfig::NONE
        };
        let injected = faulty_device(20, 4, inert).run(&pm, &graph, 9).unwrap();
        assert_eq!(clean.reads(), injected.reads());
        assert!(injected.faults().is_empty());
    }

    #[test]
    fn fault_injected_runs_are_reproducible_and_accounted() {
        let (pm, graph, _) = small_physical();
        let faults = FaultConfig {
            readout_flip_rate: 0.1,
            stuck_read_rate: 0.1,
            ..FaultConfig::NONE
        };
        let a = faulty_device(60, 6, faults).run(&pm, &graph, 5).unwrap();
        let b = faulty_device(60, 6, faults).run(&pm, &graph, 5).unwrap();
        assert_eq!(a.reads(), b.reads());
        assert_eq!(a.faults(), b.faults());
        // At 10% rates over 60 reads × 8 qubits, something must fire.
        assert!(a.faults().readout_flips > 0);
        assert!(a.faults().stuck_reads > 0);
        assert!(a.faults().dropped_qubits.is_empty());
        assert_eq!(a.faults().programming_rejects, 0);
    }

    #[test]
    fn certain_dropout_is_reported_and_reads_still_flow() {
        let (pm, graph, _) = small_physical();
        let faults = FaultConfig {
            qubit_dropout_rate: 1.0,
            ..FaultConfig::NONE
        };
        let set = faulty_device(12, 3, faults).run(&pm, &graph, 2).unwrap();
        assert_eq!(set.len(), 12);
        let n = pm.num_physical_vars();
        assert_eq!(set.faults().dropped_qubits, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn certain_rejection_fails_the_run_with_a_typed_error() {
        let (pm, graph, _) = small_physical();
        let faults = FaultConfig {
            programming_reject_rate: 1.0,
            ..FaultConfig::NONE
        };
        let err = faulty_device(12, 3, faults)
            .run(&pm, &graph, 2)
            .unwrap_err();
        assert_eq!(
            err,
            DeviceError::ProgrammingFailed {
                gauge: 0,
                attempts: FaultConfig::NONE.max_programming_attempts
            }
        );
    }

    #[test]
    fn reprogramming_delays_shift_read_timestamps() {
        let (pm, graph, _) = small_physical();
        let faults = FaultConfig {
            programming_reject_rate: 0.5,
            max_programming_attempts: 64,
            reprogram_backoff_us: 1_000.0,
            ..FaultConfig::NONE
        };
        // Find a seed whose plan actually rejects at least once.
        let mut checked = false;
        for seed in 0..20u64 {
            let set = match faulty_device(12, 4, faults).run(&pm, &graph, seed) {
                Ok(s) => s,
                Err(_) => continue,
            };
            if set.faults().programming_rejects == 0 {
                continue;
            }
            checked = true;
            let expected_delay = set.faults().delay_us;
            assert!(expected_delay >= 1_000.0);
            let last = set.reads().last().unwrap();
            assert!((last.elapsed_us - (12.0 * 376.0 + expected_delay)).abs() < 1e-6);
            // Chronological order survives the injected delays.
            let times: Vec<f64> = set.reads().iter().map(|r| r.elapsed_us).collect();
            assert!(times.windows(2).all(|w| w[0] <= w[1]));
            break;
        }
        assert!(checked, "50% rejection over 20 seeds must fire");
    }

    #[test]
    fn invalid_fault_rates_are_rejected() {
        let (pm, graph, _) = small_physical();
        let err = faulty_device(10, 2, FaultConfig::uniform(2.0))
            .run(&pm, &graph, 0)
            .unwrap_err();
        assert_eq!(
            err,
            DeviceError::InvalidConfig("fault rates must lie in [0, 1]")
        );
    }
}
