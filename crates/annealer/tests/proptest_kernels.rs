//! Property-based bit-identity tests for the fast annealing kernels.
//!
//! The hot kernels (SA's lane walk, SoA adjacency, incremental local
//! fields, scratch reuse, the walk's early exit) must produce **the exact
//! same bytes** as the naive reference kernels in
//! [`mqo_annealer::reference`], and leave the RNG stream where they leave
//! it. These tests drive both from identical RNG states over random
//! problems and assert byte-for-byte equality — and additionally pin the
//! device protocol's thread-count invariance for every back-end, which
//! rides on the persistent worker pool.

use mqo_annealer::behavioral::BehavioralSampler;
use mqo_annealer::device::{DeviceConfig, QuantumAnnealer};
use mqo_annealer::gauge::Gauge;
use mqo_annealer::noise::ControlErrorModel;
use mqo_annealer::sa::{ProgrammedSa, SimulatedAnnealingSampler};
use mqo_annealer::sampler::{
    metropolis_decide, metropolis_exp, ProgrammedSampler, ReadScratch, Sampler, SamplerHints,
    METROPOLIS_BUCKET_BITS, METROPOLIS_EXP_CUTOFF, METROPOLIS_PRETEST_SLACK,
};
use mqo_annealer::sqa::{PathIntegralQmcSampler, SqaConfig};
use mqo_core::ids::VarId;
use mqo_core::ising::Ising;
use mqo_core::qubo::Qubo;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Random Ising instances of 2–64 spins: the small ones end in their
/// ground state on nearly every read, the larger frustrated ones in
/// different local minima, so a wrong draw stream shows in the spins.
fn arb_ising() -> impl Strategy<Value = Ising> {
    (2usize..=64).prop_flat_map(|n| {
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

/// Draws `reads` samples through the kernel and through the reference from
/// the same RNG state and asserts the outputs and final RNG positions
/// agree exactly. `reference` runs the naive transcription for the
/// concrete programmed type (inherent method, so it cannot be dispatched
/// through the trait).
fn assert_matches_reference<P: ProgrammedSampler>(
    programmed: &P,
    reference: impl Fn(&mut ChaCha8Rng, &mut [i8]),
    read_seed: u64,
    reads: usize,
) -> Result<(), TestCaseError> {
    let n = programmed.num_spins();
    let mut scratch = ReadScratch::default();
    // One persistent RNG + scratch per path, reused across reads — exactly
    // how `Sampler::sample` loops consume one stream.
    let mut rng_fast = ChaCha8Rng::seed_from_u64(read_seed);
    let mut rng_ref = ChaCha8Rng::seed_from_u64(read_seed);
    for read in 0..reads {
        let mut fast = vec![0i8; n];
        let mut reference_read = vec![0i8; n];
        programmed.sample_into(&mut rng_fast, &mut fast, &mut scratch);
        reference(&mut rng_ref, &mut reference_read);
        prop_assert_eq!(
            &fast,
            &reference_read,
            "kernel vs reference diverged at read {}",
            read
        );
        // The RNG stream positions must agree too, or later reads on a
        // shared stream would silently diverge.
        let probe_fast = rng_fast.clone().next_u64();
        let probe_ref = rng_ref.clone().next_u64();
        prop_assert_eq!(
            probe_fast,
            probe_ref,
            "rng position kernel vs ref, read {}",
            read
        );
    }
    Ok(())
}

use rand::RngCore;

/// The exact Metropolis rule for a drawn word: `u < ⌊E·2³²⌋` with
/// `E = metropolis_exp(arg)` and the saturating cast.
fn exact_decision(arg: f64, u: u32) -> bool {
    u < (metropolis_exp(arg) * 4_294_967_296.0) as u32
}

/// `ln((u + 1)/2³²)`: about the exponent at which draw `u` starts to
/// accept, and so where the exact rule changes its answer.
fn threshold_of(u: u32) -> f64 {
    ((f64::from(u) + 1.0) / 4_294_967_296.0).ln()
}

/// The pre-tested decision equals the exact rule where it matters most:
/// for draws at 0, at both sides of every bucket edge, at `u32::MAX − 1`
/// and at `u32::MAX`, and exponents within 4 ulps of the exact rule's own
/// edge and of the pre-test's edges a slack away on either side.
#[test]
fn pretested_decisions_equal_the_exact_rule_at_every_bucket_edge() {
    let width = 1u32 << (32 - METROPOLIS_BUCKET_BITS);
    let mut draws = vec![0, u32::MAX - 1, u32::MAX];
    for b in 1..1u32 << METROPOLIS_BUCKET_BITS {
        draws.extend([b * width - 1, b * width]);
    }
    let mut checked = 0;
    for u in draws {
        let edge = threshold_of(u);
        for centre in [
            edge,
            edge - METROPOLIS_PRETEST_SLACK,
            edge + METROPOLIS_PRETEST_SLACK,
        ] {
            let (mut below, mut above) = (centre, centre);
            for _ in 0..4 {
                below = below.next_down();
                above = above.next_up();
            }
            let mut arg = below;
            while arg <= above {
                if (METROPOLIS_EXP_CUTOFF..=0.0).contains(&arg) {
                    assert_eq!(
                        metropolis_decide(arg, u),
                        exact_decision(arg, u),
                        "arg {arg:e}, u {u}"
                    );
                    checked += 1;
                }
                arg = arg.next_up();
            }
        }
    }
    assert!(checked > 50_000, "{checked} decisions");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// The pre-tested decision equals the exact rule for random exponents
    /// and draws, and for exponents within `10⁻⁹` of the draw's own edge,
    /// where the pre-test leaves most draws to the exact rule.
    #[test]
    fn pretested_decisions_equal_the_exact_rule(
        arg in METROPOLIS_EXP_CUTOFF..=0.0,
        u in any::<u32>(),
        near in -1e-9f64..1e-9,
    ) {
        prop_assert_eq!(metropolis_decide(arg, u), exact_decision(arg, u), "arg {:e}, u {}", arg, u);
        let close = (threshold_of(u) + near).clamp(METROPOLIS_EXP_CUTOFF, 0.0);
        prop_assert_eq!(
            metropolis_decide(close, u),
            exact_decision(close, u),
            "arg {:e}, u {}",
            close,
            u
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// SA: the lone-read entry (a 2-lane walk) and the reference kernel are
    /// bit-identical, including RNG stream positions (the walk's early
    /// exit and its position write-back must leave the stream exactly
    /// where the reference leaves it).
    #[test]
    fn sa_kernels_are_bit_identical(
        ising in arb_ising(),
        prog_seed in 0u64..1000,
        read_seed in 0u64..1000,
    ) {
        let sampler = SimulatedAnnealingSampler::default();
        let mut rng = ChaCha8Rng::seed_from_u64(prog_seed);
        let programmed = sampler.program(ising, &SamplerHints::default(), &mut rng);
        assert_matches_reference(
            &programmed,
            |rng, out| programmed.sample_into_reference(rng, out),
            read_seed,
            3,
        )?;
    }

    /// SA's block entry point (8-, 4- and 2-lane walks, a lone read as a
    /// 2-lane walk) is bit-identical to the reference kernel read by read,
    /// stream positions included, for every block size up to two full
    /// 8-lane walks and a tail, and for blocks that span several noisy
    /// gauge programmings of one Ising.
    #[test]
    fn sa_blocks_match_per_read_kernels(
        ising in arb_ising(),
        gauges in 1usize..=4,
        block in 1usize..=17,
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
        let mut walked = streams.clone();
        ProgrammedSa::sample_block(&programs, &mut walked, &mut blocked, &mut scratch);
        for (k, (prog, stream)) in programs.iter().zip(&streams).enumerate() {
            let mut reference = vec![0i8; n];
            let mut drawn = stream.clone();
            prog.sample_into_reference(&mut drawn, &mut reference);
            prop_assert_eq!(&blocked[k * n..(k + 1) * n], &reference[..], "read {}", k);
            prop_assert_eq!(walked[k].get_word_pos(), drawn.get_word_pos(), "stream {}", k);
        }
    }

    /// PIQMC: kernel and reference are bit-identical across the replica
    /// sweep, cluster moves, and read-out argmin.
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
        assert_matches_reference(
            &programmed,
            |rng, out| programmed.sample_into_reference(rng, out),
            read_seed,
            2,
        )?;
    }

    /// Behavioural back-end: read kernel and reference are bit-identical
    /// around the shared oracle state.
    #[test]
    fn behavioral_kernels_are_bit_identical(
        ising in arb_ising(),
        prog_seed in 0u64..1000,
        read_seed in 0u64..1000,
    ) {
        let sampler = BehavioralSampler::default();
        let mut rng = ChaCha8Rng::seed_from_u64(prog_seed);
        let programmed = sampler.program(ising, &SamplerHints::default(), &mut rng);
        assert_matches_reference(
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

/// SA runs in lane blocks of eight consecutive reads; read counts that do
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

/// SA with every read run by the reference kernel, one at a time through
/// the default block entry point.
#[derive(Clone, Default)]
struct ReferenceSa(SimulatedAnnealingSampler);

struct ReferenceRead(ProgrammedSa);

impl Sampler for ReferenceSa {
    type Programmed = ReferenceRead;

    fn program(
        &self,
        ising: Ising,
        hints: &SamplerHints<'_>,
        rng: &mut dyn RngCore,
    ) -> ReferenceRead {
        ReferenceRead(self.0.program(ising, hints, rng))
    }

    fn name(&self) -> &'static str {
        "sa-reference"
    }
}

impl ProgrammedSampler for ReferenceRead {
    fn num_spins(&self) -> usize {
        self.0.num_spins()
    }

    fn sample_into(&self, rng: &mut ChaCha8Rng, out: &mut [i8], _scratch: &mut ReadScratch) {
        self.0.sample_into_reference(rng, out);
    }
}

/// SA's lane blocks give the same reads as the reference kernel read by
/// read on the pinned 48-spin instance, whose reads end in different local
/// minima: full blocks (40 reads), one read per gauge in an 8 + 2 split
/// (10), an 8-lane walk with a spare lane (7), one whose 8th lane anneals a
/// read of its own (8), and two such walks and a lone read (17).
#[test]
fn device_runs_match_read_by_read() {
    let (ising, qubo) = pinned_ising();
    for (reads, gauges, seed) in [(40, 4, 3), (10, 10, 4), (7, 3, 5), (8, 2, 6), (17, 3, 7)] {
        let config = DeviceConfig {
            num_reads: reads,
            num_gauges: gauges,
            threads: 1,
            ..DeviceConfig::default()
        };
        let blocked = QuantumAnnealer::new(config, SimulatedAnnealingSampler::default())
            .run_ising(&ising, &qubo, seed)
            .unwrap();
        let one_by_one = QuantumAnnealer::new(config, ReferenceSa::default())
            .run_ising(&ising, &qubo, seed)
            .unwrap();
        assert_eq!(
            blocked.reads(),
            one_by_one.reads(),
            "{reads} reads / {gauges} gauges"
        );
    }
}
