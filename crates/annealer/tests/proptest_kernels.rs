//! Property-based bit-identity tests for the fast annealing kernels.
//!
//! The hot kernels (monomorphic RNG, SoA adjacency, incremental local
//! fields, scratch reuse, SA's early-freeze exit) must produce **the exact
//! same bytes** as two independent transcriptions of the algorithm: the
//! trait-object path ([`ProgrammedSampler::sample_into`]) and the naive
//! reference kernels in [`mqo_annealer::reference`]. These tests drive all
//! three from identical RNG states over random problems and assert
//! byte-for-byte equality — and additionally pin the device protocol's
//! thread-count invariance for every back-end, which now rides on the
//! persistent worker pool.

use mqo_annealer::behavioral::BehavioralSampler;
use mqo_annealer::device::{DeviceConfig, QuantumAnnealer};
use mqo_annealer::faults::FaultConfig;
use mqo_annealer::gauge::Gauge;
use mqo_annealer::noise::ControlErrorModel;
use mqo_annealer::sa::{ProgrammedSa, SimulatedAnnealingSampler};
use mqo_annealer::sampler::{ProgrammedSampler, ReadScratch, Sampler, SamplerHints};
use mqo_annealer::sqa::{PathIntegralQmcSampler, SqaConfig};
use mqo_core::ids::VarId;
use mqo_core::ising::Ising;
use mqo_core::qubo::Qubo;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn arb_ising() -> impl Strategy<Value = Ising> {
    (2usize..=8).prop_flat_map(|n| {
        let h = proptest::collection::vec(-5.0f64..5.0, n);
        let j = proptest::collection::vec(((0..n, 0..n), -3.0f64..3.0), 0..=2 * n);
        (h, j).prop_map(move |(h, j)| {
            let couplings = j
                .into_iter()
                .filter(|((a, b), _)| a != b)
                .map(|((a, b), w)| (VarId::new(a), VarId::new(b), w))
                .collect();
            Ising::new(h, couplings, 0.0)
        })
    })
}

/// Draws one sample through each of the three code paths from the same RNG
/// state and asserts the outputs and final RNG positions agree exactly.
/// `reference` runs the naive transcription for the concrete programmed
/// type (inherent method, so it cannot be dispatched through the trait).
fn assert_three_way_identity<P: ProgrammedSampler>(
    programmed: &P,
    reference: impl Fn(&mut ChaCha8Rng, &mut [i8]),
    read_seed: u64,
    reads: usize,
) -> Result<(), TestCaseError> {
    let n = programmed.num_spins();
    let mut scratch = ReadScratch::default();
    // One persistent RNG + scratch per path, reused across reads — exactly
    // how a device worker consumes its chunk.
    let mut rng_dyn = ChaCha8Rng::seed_from_u64(read_seed);
    let mut rng_fast = ChaCha8Rng::seed_from_u64(read_seed);
    let mut rng_ref = ChaCha8Rng::seed_from_u64(read_seed);
    for read in 0..reads {
        let mut a = vec![0i8; n];
        let mut b = vec![0i8; n];
        let mut c = vec![0i8; n];
        programmed.sample_into(&mut rng_dyn, &mut a);
        programmed.sample_into_fast(&mut rng_fast, &mut b, &mut scratch);
        reference(&mut rng_ref, &mut c);
        prop_assert_eq!(&a, &b, "dyn vs fast diverged at read {}", read);
        prop_assert_eq!(&a, &c, "dyn vs reference diverged at read {}", read);
        // The RNG stream positions must agree too, or later reads on a
        // shared stream would silently diverge.
        let probe_a = rng_dyn.clone().next_u64();
        let probe_b = rng_fast.clone().next_u64();
        let probe_c = rng_ref.clone().next_u64();
        prop_assert_eq!(probe_a, probe_b, "rng position dyn vs fast, read {}", read);
        prop_assert_eq!(probe_a, probe_c, "rng position dyn vs ref, read {}", read);
    }
    Ok(())
}

use rand::RngCore;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// SA: fast, trait-object, and reference kernels are bit-identical,
    /// including RNG stream positions (the early-freeze exit must consume
    /// exactly the draws the reference consumes).
    #[test]
    fn sa_kernels_are_bit_identical(
        ising in arb_ising(),
        prog_seed in 0u64..1000,
        read_seed in 0u64..1000,
    ) {
        let sampler = SimulatedAnnealingSampler::default();
        let mut rng = ChaCha8Rng::seed_from_u64(prog_seed);
        let programmed = sampler.program(ising, &SamplerHints::default(), &mut rng);
        assert_three_way_identity(
            &programmed,
            |rng, out| programmed.sample_into_reference(rng, out),
            read_seed,
            3,
        )?;
    }

    /// SA's block entry point (the lane kernel, in blocks of up to four)
    /// is bit-identical to per-read `sample_into_fast` and to the
    /// reference kernel, for every block size and for blocks that span
    /// several noisy gauge programmings of one Ising.
    #[test]
    fn sa_blocks_match_per_read_kernels(
        ising in arb_ising(),
        gauges in 1usize..=4,
        block in 1usize..=9,
        prog_seed in 0u64..1000,
        read_seed in 0u64..1000,
    ) {
        let sampler = SimulatedAnnealingSampler::default();
        let noise = ControlErrorModel { relative_sigma: 0.01 };
        let mut rng = ChaCha8Rng::seed_from_u64(prog_seed);
        let n = ising.num_spins();
        let programmed: Vec<ProgrammedSa> = (0..gauges)
            .map(|_| {
                let gauge = Gauge::random(n, &mut rng);
                let realised = noise.perturb(&ising, &mut rng);
                sampler.program(gauge.apply(&realised), &SamplerHints::default(), &mut rng)
            })
            .collect();
        let programs: Vec<&ProgrammedSa> = (0..block).map(|k| &programmed[k % gauges]).collect();
        let streams: Vec<ChaCha8Rng> = (0..block)
            .map(|k| ChaCha8Rng::seed_from_u64(read_seed * 16 + k as u64))
            .collect();
        let mut scratch = ReadScratch::default();
        let mut blocked = vec![0i8; block * n];
        ProgrammedSa::sample_block_fast(&programs, &mut streams.clone(), &mut blocked, &mut scratch);
        for (k, (prog, stream)) in programs.iter().zip(&streams).enumerate() {
            let mut fast = vec![0i8; n];
            let mut reference = vec![0i8; n];
            prog.sample_into_fast(&mut stream.clone(), &mut fast, &mut scratch);
            prog.sample_into_reference(&mut stream.clone(), &mut reference);
            prop_assert_eq!(&blocked[k * n..(k + 1) * n], &fast[..], "block vs fast, read {}", k);
            prop_assert_eq!(&fast, &reference, "fast vs reference, read {}", k);
        }
    }

    /// PIQMC: fast, trait-object, and reference kernels are bit-identical
    /// across the replica sweep, cluster moves, and read-out argmin.
    #[test]
    fn sqa_kernels_are_bit_identical(
        ising in arb_ising(),
        prog_seed in 0u64..1000,
        read_seed in 0u64..1000,
    ) {
        // Few sweeps/slices keep the case fast; identity must hold anyway.
        let sampler = PathIntegralQmcSampler::new(SqaConfig {
            sweeps: 24,
            slices: 4,
            ..SqaConfig::default()
        });
        let mut rng = ChaCha8Rng::seed_from_u64(prog_seed);
        let programmed = sampler.program(ising, &SamplerHints::default(), &mut rng);
        assert_three_way_identity(
            &programmed,
            |rng, out| programmed.sample_into_reference(rng, out),
            read_seed,
            2,
        )?;
    }

    /// Behavioural back-end: fast, trait-object, and reference read kernels
    /// are bit-identical around the shared oracle state.
    #[test]
    fn behavioral_kernels_are_bit_identical(
        ising in arb_ising(),
        prog_seed in 0u64..1000,
        read_seed in 0u64..1000,
    ) {
        let sampler = BehavioralSampler::default();
        let mut rng = ChaCha8Rng::seed_from_u64(prog_seed);
        let programmed = sampler.program(ising, &SamplerHints::default(), &mut rng);
        assert_three_way_identity(
            &programmed,
            |rng, out| programmed.sample_into_reference(rng, out),
            read_seed,
            3,
        )?;
    }
}

/// Device-protocol thread invariance for one back-end: runs at 1, 2, 3, and
/// 8 threads must be bit-identical (the persistent pool executes chunks,
/// but chunking depends only on the requested thread count).
fn assert_thread_invariant<S: Sampler + Clone>(sampler: S, seed: u64, reads: usize, gauges: usize) {
    let mut b = Qubo::builder(5);
    b.add_linear(VarId(0), -1.0);
    b.add_linear(VarId(4), 0.5);
    b.add_quadratic(VarId(0), VarId(1), 1.0);
    b.add_quadratic(VarId(1), VarId(2), -1.0);
    b.add_quadratic(VarId(2), VarId(3), 0.75);
    b.add_quadratic(VarId(3), VarId(4), -0.25);
    let qubo = b.build();
    let ising = Ising::from_qubo(&qubo);
    let run_with = |threads: usize| {
        QuantumAnnealer::new(
            DeviceConfig {
                num_reads: reads,
                num_gauges: gauges,
                threads,
                ..DeviceConfig::default()
            },
            sampler.clone(),
        )
        .run_ising(&ising, &qubo, seed)
        .unwrap()
    };
    let serial = run_with(1);
    for threads in [2, 3, 8] {
        let parallel = run_with(threads);
        assert_eq!(
            serial.reads(),
            parallel.reads(),
            "thread count {threads} changed the run"
        );
    }
}

/// SA runs in lane blocks of four consecutive reads; read counts that do
/// not divide by the lane width leave a partial block at the end, and with
/// one read per gauge every lane anneals a different programming.
#[test]
fn sa_device_runs_are_thread_invariant() {
    for (reads, gauges) in [(22, 4), (10, 10), (7, 3)] {
        assert_thread_invariant(SimulatedAnnealingSampler::default(), 17, reads, gauges);
    }
}

#[test]
fn sqa_device_runs_are_thread_invariant() {
    assert_thread_invariant(
        PathIntegralQmcSampler::new(SqaConfig {
            sweeps: 16,
            slices: 4,
            ..SqaConfig::default()
        }),
        18,
        22,
        4,
    );
}

#[test]
fn behavioral_device_runs_are_thread_invariant() {
    assert_thread_invariant(BehavioralSampler::default(), 19, 22, 4);
}

/// A 48-spin sparse Ising (degree ≤ 6) with mixed-sign weights, drawn
/// from a fixed seed.
fn pinned_ising() -> (Ising, Qubo) {
    let n = 48u32;
    let mut rng = ChaCha8Rng::seed_from_u64(2016);
    let mut b = Qubo::builder(n as usize);
    for i in 0..n {
        b.add_linear(VarId(i), rng.gen_range(-4.0..4.0));
        for d in [1u32, 5, 12] {
            if i + d < n {
                b.add_quadratic(VarId(i), VarId(i + d), rng.gen_range(-3.0..3.0));
            }
        }
    }
    let qubo = b.build();
    (Ising::from_qubo(&qubo), qubo)
}

/// FNV-1a digest of every read's assignment, energy bits and gauge.
fn digest_run<S: Sampler>(sampler: S, reads: usize, gauges: usize) -> u64 {
    let (ising, qubo) = pinned_ising();
    let set = QuantumAnnealer::new(
        DeviceConfig {
            num_reads: reads,
            num_gauges: gauges,
            threads: 1,
            ..DeviceConfig::default()
        },
        sampler,
    )
    .run_ising(&ising, &qubo, 99)
    .unwrap();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |x: u64| {
        for byte in x.to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
        }
    };
    for r in set.reads() {
        for &bit in &r.assignment {
            eat(u64::from(bit));
        }
        eat(r.energy.to_bits());
        eat(r.gauge as u64);
    }
    h
}

/// Device runs of every back-end are pinned to digests recorded while the
/// Metropolis threshold still called libm's `exp`: the in-repo `exp` and the
/// lane kernel left every read of every back-end unchanged.
#[test]
fn device_reads_match_pinned_digests() {
    assert_eq!(
        digest_run(SimulatedAnnealingSampler::default(), 60, 6),
        0xd8c4_5a93_24ce_d714
    );
    let sqa = PathIntegralQmcSampler::new(SqaConfig {
        sweeps: 32,
        slices: 4,
        ..SqaConfig::default()
    });
    assert_eq!(digest_run(sqa, 12, 3), 0x5372_0d7a_b823_3caf);
    assert_eq!(
        digest_run(BehavioralSampler::default(), 30, 3),
        0xf2ce_c05b_4ebe_e2ad
    );
}

/// SA behind the default one-read-at-a-time block entry point.
#[derive(Clone, Default)]
struct OneReadAtATime(SimulatedAnnealingSampler);

struct OneRead(ProgrammedSa);

impl Sampler for OneReadAtATime {
    type Programmed = OneRead;

    fn program(&self, ising: Ising, hints: &SamplerHints<'_>, rng: &mut dyn RngCore) -> OneRead {
        OneRead(self.0.program(ising, hints, rng))
    }

    fn name(&self) -> &'static str {
        "sa-one-read-at-a-time"
    }
}

impl ProgrammedSampler for OneRead {
    fn num_spins(&self) -> usize {
        self.0.num_spins()
    }

    fn sample_into(&self, rng: &mut dyn RngCore, out: &mut [i8]) {
        self.0.sample_into(rng, out);
    }

    fn sample_into_fast(&self, rng: &mut ChaCha8Rng, out: &mut [i8], scratch: &mut ReadScratch) {
        self.0.sample_into_fast(rng, out, scratch);
    }
}

/// A fault-injected run (stuck reads, read-out flips, qubit dropout) gives
/// the same reads and fault accounting through SA's lane blocks as read by
/// read: a stuck read's annealed spins are discarded, and fault
/// post-processing stays per read.
#[test]
fn fault_injected_runs_match_read_by_read() {
    let (ising, qubo) = pinned_ising();
    let faults = FaultConfig {
        stuck_read_rate: 0.2,
        readout_flip_rate: 0.05,
        qubit_dropout_rate: 0.05,
        ..FaultConfig::NONE
    };
    for (reads, gauges, seed) in [(40, 4, 3), (10, 10, 4), (7, 3, 5)] {
        let config = DeviceConfig {
            num_reads: reads,
            num_gauges: gauges,
            threads: 1,
            faults,
            ..DeviceConfig::default()
        };
        let blocked = QuantumAnnealer::new(config, SimulatedAnnealingSampler::default())
            .run_ising(&ising, &qubo, seed)
            .unwrap();
        let one_by_one = QuantumAnnealer::new(config, OneReadAtATime::default())
            .run_ising(&ising, &qubo, seed)
            .unwrap();
        assert_eq!(
            blocked.reads(),
            one_by_one.reads(),
            "{reads} reads / {gauges} gauges"
        );
        assert_eq!(blocked.faults(), one_by_one.faults());
        if reads == 40 {
            assert!(blocked.faults().stuck_reads > 0 && blocked.faults().readout_flips > 0);
            assert!(!blocked.faults().dropped_qubits.is_empty());
        }
    }
}
