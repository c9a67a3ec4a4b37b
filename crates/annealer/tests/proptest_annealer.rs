//! Property-based tests of the device-model building blocks: gauge
//! invariance, noise statistics, protocol accounting, and sampler sanity.

use mqo_annealer::device::{DeviceConfig, QuantumAnnealer};
use mqo_annealer::gauge::Gauge;
use mqo_annealer::noise::ControlErrorModel;
use mqo_annealer::sa::SimulatedAnnealingSampler;
use mqo_annealer::sampler::Sampler;
use mqo_core::ids::VarId;
use mqo_core::ising::Ising;
use mqo_core::qubo::Qubo;
use proptest::prelude::*;
use rand::SeedableRng;
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Gauge transformations preserve the energy landscape exactly:
    /// `E_gauged(g∘s) = E(s)` for every configuration.
    #[test]
    fn gauge_preserves_the_landscape(ising in arb_ising(), gauge_seed in 0u64..1000) {
        let n = ising.num_spins();
        let mut rng = ChaCha8Rng::seed_from_u64(gauge_seed);
        let g = Gauge::random(n, &mut rng);
        let gauged = g.apply(&ising);
        for mask in 0u32..(1 << n) {
            let s: Vec<i8> = (0..n).map(|i| if mask & (1 << i) != 0 { 1 } else { -1 }).collect();
            let gs = g.transform_spins(&s);
            prop_assert!((ising.energy(&s) - gauged.energy(&gs)).abs() < 1e-9);
        }
    }

    /// Gauging twice with the same gauge is the identity on problems.
    #[test]
    fn gauge_is_involutive_on_problems(ising in arb_ising(), gauge_seed in 0u64..1000) {
        let mut rng = ChaCha8Rng::seed_from_u64(gauge_seed);
        let g = Gauge::random(ising.num_spins(), &mut rng);
        let twice = g.apply(&g.apply(&ising));
        for (a, b) in twice.fields().iter().zip(ising.fields()) {
            prop_assert!((a - b).abs() < 1e-12);
        }
        prop_assert_eq!(twice.couplings().len(), ising.couplings().len());
        for (x, y) in twice.couplings().iter().zip(ising.couplings()) {
            prop_assert_eq!(x.0, y.0);
            prop_assert_eq!(x.1, y.1);
            prop_assert!((x.2 - y.2).abs() < 1e-12);
        }
    }

    /// Perturbation never changes the problem *structure* and zero noise is
    /// the identity.
    #[test]
    fn noise_preserves_structure(ising in arb_ising(), seed in 0u64..1000) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let noisy = ControlErrorModel::new(0.05).perturb(&ising, &mut rng);
        prop_assert_eq!(noisy.num_spins(), ising.num_spins());
        prop_assert_eq!(noisy.couplings().len(), ising.couplings().len());
        let clean = ControlErrorModel::NONE.perturb(&ising, &mut rng);
        prop_assert_eq!(clean, ising.clone());
    }

    /// SA samples always have the right length and ±1 entries, and energies
    /// never fall below the brute-force minimum.
    #[test]
    fn sa_samples_are_wellformed_and_bounded(seed in 0u64..500) {
        let mut b = Qubo::builder(6);
        for i in 0..6u32 {
            b.add_linear(VarId(i), f64::from(i % 3) - 1.0);
            if i > 0 {
                b.add_quadratic(VarId(i - 1), VarId(i), f64::from(i % 2) * 2.0 - 1.0);
            }
        }
        let qubo = b.build();
        let ising = Ising::from_qubo(&qubo);
        let (_, opt) = qubo.brute_force_minimum();
        let sampler = SimulatedAnnealingSampler::default();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let s = sampler.sample(&ising, &mut rng);
        prop_assert_eq!(s.len(), 6);
        prop_assert!(s.iter().all(|&v| v == 1 || v == -1));
        prop_assert!(ising.energy(&s) >= opt - 1e-9);
    }

    /// The device protocol accounting is exact for any read/gauge split:
    /// read count, timing grid, and gauge partition sizes.
    #[test]
    fn device_protocol_accounting(reads in 1usize..60, gauges in 1usize..10, seed in 0u64..100) {
        prop_assume!(gauges <= reads);
        let mut b = Qubo::builder(3);
        b.add_linear(VarId(0), -1.0);
        b.add_quadratic(VarId(0), VarId(1), 1.0);
        b.add_quadratic(VarId(1), VarId(2), -1.0);
        let qubo = b.build();
        let ising = Ising::from_qubo(&qubo);
        let device = QuantumAnnealer::new(
            DeviceConfig {
                num_reads: reads,
                num_gauges: gauges,
                ..DeviceConfig::default()
            },
            SimulatedAnnealingSampler::default(),
        );
        let set = device.run_ising(&ising, &qubo, seed).unwrap();
        prop_assert_eq!(set.len(), reads);
        for (i, r) in set.reads().iter().enumerate() {
            prop_assert!((r.elapsed_us - 376.0 * (i + 1) as f64).abs() < 1e-6);
            prop_assert!(r.gauge < gauges);
            // Reported energy is the true noiseless energy of the sample.
            prop_assert!((qubo.energy(&r.assignment) - r.energy).abs() < 1e-9);
        }
        // Gauge batches differ in size by at most one.
        let counts: Vec<usize> = (0..gauges)
            .map(|g| set.reads().iter().filter(|r| r.gauge == g).count())
            .collect();
        let min = counts.iter().min().unwrap();
        let max = counts.iter().max().unwrap();
        prop_assert!(max - min <= 1);
    }

    /// Parallel read execution is deterministic: for any read/gauge split
    /// and any worker count, a run yields bit-identical reads (assignments,
    /// energies, timestamps, gauge indices) to the single-threaded run.
    #[test]
    fn device_runs_are_thread_count_invariant(
        reads in 1usize..40,
        gauges in 1usize..8,
        threads in 2usize..9,
        seed in 0u64..100,
    ) {
        prop_assume!(gauges <= reads);
        let mut b = Qubo::builder(4);
        b.add_linear(VarId(0), -1.0);
        b.add_linear(VarId(3), 0.5);
        b.add_quadratic(VarId(0), VarId(1), 1.0);
        b.add_quadratic(VarId(1), VarId(2), -1.0);
        b.add_quadratic(VarId(2), VarId(3), 0.75);
        let qubo = b.build();
        let ising = Ising::from_qubo(&qubo);
        let run_with = |t: usize| {
            QuantumAnnealer::new(
                DeviceConfig {
                    num_reads: reads,
                    num_gauges: gauges,
                    threads: t,
                    ..DeviceConfig::default()
                },
                SimulatedAnnealingSampler::default(),
            )
            .run_ising(&ising, &qubo, seed)
            .unwrap()
        };
        let serial = run_with(1);
        let parallel = run_with(threads);
        prop_assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.reads().iter().zip(parallel.reads()) {
            prop_assert_eq!(&a.assignment, &b.assignment);
            prop_assert_eq!(a.energy.to_bits(), b.energy.to_bits());
            prop_assert_eq!(a.elapsed_us.to_bits(), b.elapsed_us.to_bits());
            prop_assert_eq!(a.gauge, b.gauge);
        }
    }
}
