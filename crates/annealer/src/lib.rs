#![warn(missing_docs)]

//! # mqo-annealer
//!
//! A software model of the D-Wave 2X adiabatic quantum annealer — the
//! hardware substitution of this reproduction (see DESIGN.md).
//!
//! The crate provides:
//!
//! * [`sampler::Sampler`] — the "one annealing run" abstraction, with three
//!   back-ends: classical [`sa::SimulatedAnnealingSampler`], physics-faithful
//!   [`sqa::PathIntegralQmcSampler`] (path-integral quantum Monte Carlo of
//!   the transverse-field Ising model), and the brute-force
//!   [`exact::ExactSampler`] oracle for tests;
//! * [`gauge::Gauge`] transformations and the [`noise::ControlErrorModel`],
//!   reproducing the run-to-run variability of real hardware;
//! * [`device::QuantumAnnealer`] — the device model enforcing Chimera
//!   programmability and the paper's protocol: 1000 reads in 10 gauge
//!   batches, 129 µs anneal + 247 µs read-out per read, with read
//!   timestamps in simulated device time;
//! * [`parallel`] — deterministic fan-out primitives: per-slot seed
//!   derivation and a scoped worker pool, used by the device model (and
//!   the benchmark harness) to execute programmings and reads
//!   concurrently with bit-identical results at any thread count.
//!
//! ```
//! use mqo_annealer::device::{DeviceConfig, QuantumAnnealer};
//! use mqo_annealer::sa::SimulatedAnnealingSampler;
//! use mqo_chimera::{graph::ChimeraGraph, embedding::triad, physical::PhysicalMapping};
//! use mqo_core::{Qubo, VarId};
//!
//! let mut b = Qubo::builder(2);
//! b.add_linear(VarId(0), -1.0);
//! b.add_quadratic(VarId(0), VarId(1), 2.0);
//! let logical = b.build();
//!
//! let graph = ChimeraGraph::new(1, 1);
//! let embedding = triad::triad(&graph, 0, 0, 2).unwrap();
//! let pm = PhysicalMapping::new(&logical, embedding, &graph, 0.25).unwrap();
//!
//! let device = QuantumAnnealer::new(
//!     DeviceConfig { num_reads: 20, num_gauges: 2, ..DeviceConfig::default() },
//!     SimulatedAnnealingSampler::default(),
//! );
//! let samples = device.run(&pm, &graph, 0).unwrap();
//! let best = samples.best().unwrap();
//! assert_eq!(pm.unembed(&best.assignment).logical, vec![true, false]);
//! ```

pub mod behavioral;
pub mod clusters;
pub mod device;
pub mod exact;
pub mod gauge;
pub mod metrics;
pub mod noise;
pub mod parallel;
pub mod reference;
pub mod sa;
pub mod sampler;
pub mod sqa;

pub use behavioral::{BehavioralConfig, BehavioralSampler};
pub use device::{DeviceConfig, DeviceError, PhaseTimings, QuantumAnnealer};
pub use exact::ExactSampler;
pub use gauge::Gauge;
pub use metrics::{success_probability, time_to_solution, time_to_target};
pub use noise::ControlErrorModel;
pub use parallel::{derive_seed, parallel_map_with, resolve_threads};
pub use sa::{SaConfig, SimulatedAnnealingSampler};
pub use sampler::{
    metropolis_accept, ChainBreakStats, ProgrammedSampler, Read, ReadScratch, SampleSet, Sampler,
    METROPOLIS_EXP_CUTOFF,
};
pub use sqa::{PathIntegralQmcSampler, SqaConfig};
