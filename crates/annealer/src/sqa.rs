//! Simulated quantum annealing: path-integral quantum Monte Carlo (PIQMC)
//! for the transverse-field Ising model.
//!
//! This is the standard classical surrogate for the physics the D-Wave
//! machine implements in hardware (and the reference point of several of the
//! is-it-quantum studies the paper cites). The quantum system at inverse
//! temperature `β` with transverse field `Γ` is Trotter-decomposed into `P`
//! coupled replicas ("slices") of the classical problem:
//!
//! ```text
//! H_eff = Σ_k H_problem(s^k)/P − J⊥(Γ) Σ_k Σ_i s_i^k s_i^{k+1}
//! J⊥(Γ) = −(1/2β) · ln tanh(βΓ/P)   (ferromagnetic, → ∞ as Γ → 0)
//! ```
//!
//! One annealing run sweeps Metropolis updates over all slices while `Γ`
//! decreases from `gamma_init` to `gamma_final`, mirroring the adiabatic
//! transformation from the trivially-minimised driver Hamiltonian to the
//! problem Hamiltonian (Section 2 of the paper). The read-out returns the
//! slice with the lowest problem energy.

use crate::sampler::{metropolis_accept, ProgrammedSampler, ReadScratch, Sampler, SamplerHints};
use mqo_core::ids::VarId;
use mqo_core::ising::Ising;
use rand::{Rng, RngCore};
use rand_chacha::ChaCha8Rng;

/// Configuration for [`PathIntegralQmcSampler`]. Field strengths are
/// *relative* to the problem's maximum absolute weight, so one configuration
/// works across differently scaled instances.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SqaConfig {
    /// Number of Trotter slices `P`.
    pub slices: usize,
    /// Monte-Carlo sweeps over all slices during the anneal.
    pub sweeps: usize,
    /// Inverse temperature (relative to `max|w|`).
    pub beta: f64,
    /// Initial transverse field (relative); strong enough to decouple spins.
    pub gamma_init: f64,
    /// Final transverse field (relative); close to zero.
    pub gamma_final: f64,
    /// Enable cluster updates: groups of spins connected by strong
    /// ferromagnetic couplings (|J| ≥ `cluster_threshold · max|J|`, J < 0)
    /// are additionally flipped as single Metropolis moves. Minor-embedding
    /// chains are exactly such clusters, so this halves the energy barrier
    /// of logical-variable flips — the discrete-time analogue of the
    /// collective dynamics strongly coupled qubits exhibit in hardware.
    pub cluster_updates: bool,
    /// Relative strength above which a ferromagnetic bond joins a cluster.
    pub cluster_threshold: f64,
}

impl Default for SqaConfig {
    fn default() -> Self {
        // Calibrated against the paper's D-Wave 2X anchors (first read
        // within ~1.5% of the run's best, final within ~0.4% of optimum on
        // MQO instances) — see the `calibrate` harness binary.
        SqaConfig {
            slices: 8,
            sweeps: 256,
            beta: 32.0,
            gamma_init: 3.0,
            gamma_final: 0.01,
            cluster_updates: true,
            cluster_threshold: 0.5,
        }
    }
}

use crate::clusters::strong_bond_clusters;

/// Path-integral quantum Monte Carlo sampler.
#[derive(Debug, Clone, Default)]
pub struct PathIntegralQmcSampler {
    config: SqaConfig,
}

impl PathIntegralQmcSampler {
    /// Creates a sampler with the given configuration.
    pub fn new(config: SqaConfig) -> Self {
        assert!(config.slices >= 2, "need at least two Trotter slices");
        assert!(config.sweeps > 0, "need at least one sweep");
        assert!(
            config.gamma_init > config.gamma_final && config.gamma_final > 0.0,
            "transverse field must decrease towards (but not reach) zero"
        );
        assert!(config.beta > 0.0, "temperature must be finite and positive");
        PathIntegralQmcSampler { config }
    }

    /// The active configuration.
    pub fn config(&self) -> SqaConfig {
        self.config
    }
}

impl Sampler for PathIntegralQmcSampler {
    type Programmed = ProgrammedSqa;

    fn program(
        &self,
        ising: Ising,
        _hints: &SamplerHints<'_>,
        _rng: &mut dyn RngCore,
    ) -> ProgrammedSqa {
        let n = ising.num_spins();
        // Strong-bond clusters for collective moves, with an O(1)
        // membership map — computed once per programming, shared by all
        // reads of the batch.
        let clusters = if self.config.cluster_updates {
            strong_bond_clusters(&ising, self.config.cluster_threshold)
        } else {
            Vec::new()
        };
        let mut cluster_of = vec![u32::MAX; n];
        for (c, members) in clusters.iter().enumerate() {
            for &i in members {
                cluster_of[i] = c as u32;
            }
        }
        let scale = ising.max_abs_weight().max(f64::MIN_POSITIVE);
        let beta = self.config.beta / scale;
        let p = self.config.slices;
        // Per-sweep inter-slice coupling J⊥ (from the linear Γ ramp, the
        // textbook SQA schedule; J⊥ diverges as Γ → 0), resolved once per
        // programming instead of one tanh/ln pair per sweep per read.
        let j_perp = (0..self.config.sweeps)
            .map(|sweep| {
                let t = sweep as f64 / (self.config.sweeps - 1).max(1) as f64;
                let gamma =
                    scale * (self.config.gamma_init * (1.0 - t) + self.config.gamma_final * t);
                -0.5 / beta * (beta * gamma / p as f64).tanh().ln()
            })
            .collect();
        ProgrammedSqa {
            config: self.config,
            beta,
            j_perp,
            clusters,
            cluster_of,
            ising,
        }
    }

    fn name(&self) -> &'static str {
        "path-integral-qmc"
    }
}

/// [`PathIntegralQmcSampler`] programmed with one problem: the cluster
/// decomposition, temperature scale, and per-sweep inter-slice couplings
/// are resolved once and reused by every read.
#[derive(Debug, Clone)]
pub struct ProgrammedSqa {
    pub(crate) config: SqaConfig,
    pub(crate) beta: f64,
    pub(crate) j_perp: Vec<f64>,
    pub(crate) clusters: Vec<Vec<usize>>,
    pub(crate) cluster_of: Vec<u32>,
    pub(crate) ising: Ising,
}

impl ProgrammedSqa {
    /// The PIQMC kernel, generic over the RNG (monomorphized over
    /// [`ChaCha8Rng`] on the device hot path, `dyn RngCore` otherwise).
    ///
    /// Replica configurations live in one flat `slices` buffer (`k·n + i`),
    /// and each slice maintains its per-spin local fields incrementally: a
    /// single-spin proposal reads the cached field instead of rescanning
    /// the neighbourhood, and only accepted flips pay `O(deg)`. Cluster
    /// moves evaluate their external field from scratch exactly as before
    /// (both kernels share that arithmetic) and patch the fields of every
    /// affected neighbourhood when accepted.
    fn anneal<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        out: &mut [i8],
        slices: &mut Vec<i8>,
        fields: &mut Vec<f64>,
        energies: &mut Vec<f64>,
    ) {
        let ising = &self.ising;
        let n = ising.num_spins();
        debug_assert_eq!(out.len(), n);
        if n == 0 {
            return;
        }
        let p = self.config.slices;
        let p_f = p as f64;
        let beta = self.beta;
        let (offsets, idx, w) = ising.adjacency();

        // Replica-coupled configuration, flattened: slices[k * n + i].
        slices.clear();
        slices.extend((0..p * n).map(|_| if rng.gen::<bool>() { 1i8 } else { -1 }));
        // Per-slice local fields, same layout.
        fields.clear();
        fields.reserve(p * n);
        for k in 0..p {
            let slice = &slices[k * n..(k + 1) * n];
            fields.extend((0..n).map(|i| ising.local_field(slice, VarId::new(i))));
        }

        for &j_perp in &self.j_perp {
            for k in 0..p {
                let up = (k + p - 1) % p;
                let down = (k + 1) % p;
                let base = k * n;
                for i in 0..n {
                    let si = f64::from(slices[base + i]);
                    let classical = -2.0 * si * fields[base + i] / p_f;
                    let neighbours =
                        f64::from(slices[up * n + i]) + f64::from(slices[down * n + i]);
                    let quantum = 2.0 * j_perp * si * neighbours;
                    let delta = classical + quantum;
                    if metropolis_accept(rng, beta, delta) {
                        let flipped = -slices[base + i];
                        slices[base + i] = flipped;
                        let step = f64::from(flipped);
                        let (lo, hi) = (offsets[i] as usize, offsets[i + 1] as usize);
                        for e in lo..hi {
                            fields[base + idx[e] as usize] += 2.0 * w[e] * step;
                        }
                    }
                }

                // Collective moves: flip an entire strong-bond cluster.
                // Intra-cluster couplings are invariant under a joint flip,
                // so only external fields and the inter-slice terms enter.
                for (c, members) in self.clusters.iter().enumerate() {
                    let mut delta = 0.0;
                    for &i in members {
                        let si = f64::from(slices[base + i]);
                        let mut ext_field = ising.fields()[i];
                        let (lo, hi) = (offsets[i] as usize, offsets[i + 1] as usize);
                        for e in lo..hi {
                            let j = idx[e] as usize;
                            if self.cluster_of[j] != c as u32 {
                                ext_field += w[e] * f64::from(slices[base + j]);
                            }
                        }
                        delta += -2.0 * si * ext_field / p_f;
                        let neighbours =
                            f64::from(slices[up * n + i]) + f64::from(slices[down * n + i]);
                        delta += 2.0 * j_perp * si * neighbours;
                    }
                    if metropolis_accept(rng, beta, delta) {
                        for &i in members {
                            slices[base + i] = -slices[base + i];
                        }
                        for &i in members {
                            let step = f64::from(slices[base + i]);
                            let (lo, hi) = (offsets[i] as usize, offsets[i + 1] as usize);
                            for e in lo..hi {
                                fields[base + idx[e] as usize] += 2.0 * w[e] * step;
                            }
                        }
                    }
                }
            }
        }

        // Read-out: the first slice attaining the lowest problem energy.
        // Energies are evaluated once per slice (the previous min_by
        // comparator re-evaluated them per comparison).
        energies.clear();
        energies.extend((0..p).map(|k| ising.energy(&slices[k * n..(k + 1) * n])));
        let mut best = 0usize;
        for k in 1..p {
            if energies[k].total_cmp(&energies[best]) == std::cmp::Ordering::Less {
                best = k;
            }
        }
        out.copy_from_slice(&slices[best * n..(best + 1) * n]);
    }
}

impl ProgrammedSampler for ProgrammedSqa {
    fn num_spins(&self) -> usize {
        self.ising.num_spins()
    }

    fn sample_into(&self, rng: &mut dyn RngCore, out: &mut [i8]) {
        self.anneal(rng, out, &mut Vec::new(), &mut Vec::new(), &mut Vec::new());
    }

    fn sample_into_fast(&self, rng: &mut ChaCha8Rng, out: &mut [i8], scratch: &mut ReadScratch) {
        let ReadScratch {
            fields,
            spins,
            energies,
            ..
        } = scratch;
        self.anneal(rng, out, spins, fields, energies);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mqo_core::ising::spins_to_bits;
    use mqo_core::qubo::Qubo;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn frustrated_qubo() -> Qubo {
        let mut b = Qubo::builder(6);
        for i in 0..6u32 {
            b.add_linear(VarId(i), (i as f64) - 2.5);
        }
        for i in 0..6u32 {
            for j in (i + 1)..6 {
                b.add_quadratic(VarId(i), VarId(j), ((i + 2 * j) % 5) as f64 - 2.0);
            }
        }
        b.build()
    }

    #[test]
    fn sqa_finds_the_ground_state_of_a_small_frustrated_problem() {
        let qubo = frustrated_qubo();
        let ising = Ising::from_qubo(&qubo);
        let (_, best_e) = qubo.brute_force_minimum();
        let sampler = PathIntegralQmcSampler::default();
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        let mut hits = 0;
        for _ in 0..20 {
            let s = sampler.sample(&ising, &mut rng);
            if (qubo.energy(&spins_to_bits(&s)) - best_e).abs() < 1e-9 {
                hits += 1;
            }
        }
        assert!(hits >= 14, "SQA found the optimum only {hits}/20 times");
    }

    #[test]
    fn sqa_solves_a_ferromagnetic_chain_exactly() {
        // All couplings −1, no fields: ground states are the two aligned
        // configurations with energy −(n−1).
        let n = 24;
        let couplings = (0..n - 1)
            .map(|i| (VarId::new(i), VarId::new(i + 1), -1.0))
            .collect();
        let ising = Ising::new(vec![0.0; n], couplings, 0.0);
        let sampler = PathIntegralQmcSampler::default();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let s = sampler.sample(&ising, &mut rng);
        assert_eq!(ising.energy(&s), -(n as f64 - 1.0));
    }

    #[test]
    fn sampling_is_deterministic_given_the_seed() {
        let ising = Ising::from_qubo(&frustrated_qubo());
        let sampler = PathIntegralQmcSampler::default();
        let a = sampler.sample(&ising, &mut ChaCha8Rng::seed_from_u64(9));
        let b = sampler.sample(&ising, &mut ChaCha8Rng::seed_from_u64(9));
        assert_eq!(a, b);
    }

    #[test]
    fn cluster_updates_help_on_chain_structured_problems() {
        // Two logical spins, each a 3-qubit ferromagnetic chain, coupled
        // antiferromagnetically: the ground states need whole chains to
        // move together. Compare ground-state hit rates with and without
        // collective moves under a deliberately short anneal.
        let mut couplings = Vec::new();
        for base in [0usize, 3] {
            couplings.push((VarId::new(base), VarId::new(base + 1), -3.0));
            couplings.push((VarId::new(base + 1), VarId::new(base + 2), -3.0));
        }
        couplings.push((VarId::new(2), VarId::new(3), 1.0));
        let h = vec![0.6, 0.0, 0.0, 0.6, 0.0, 0.0];
        let ising = Ising::new(h, couplings, 0.0);
        // Ground state by exhaustion.
        let mut best = f64::INFINITY;
        for mask in 0u32..64 {
            let s: Vec<i8> = (0..6)
                .map(|i| if mask & (1 << i) != 0 { 1 } else { -1 })
                .collect();
            best = best.min(ising.energy(&s));
        }
        let hit_rate = |cluster_updates: bool, seed: u64| {
            let sampler = PathIntegralQmcSampler::new(SqaConfig {
                sweeps: 8,
                cluster_updates,
                ..SqaConfig::default()
            });
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            (0..40)
                .filter(|_| (ising.energy(&sampler.sample(&ising, &mut rng)) - best).abs() < 1e-9)
                .count()
        };
        let with = hit_rate(true, 3);
        let without = hit_rate(false, 3);
        assert!(
            with >= without,
            "cluster updates should not hurt: {with} vs {without}"
        );
        assert!(
            with >= 20,
            "collective moves should find the ground state often ({with}/40)"
        );
    }

    #[test]
    fn handles_empty_problems() {
        let ising = Ising::new(vec![], vec![], 0.0);
        let sampler = PathIntegralQmcSampler::default();
        assert!(sampler
            .sample(&ising, &mut ChaCha8Rng::seed_from_u64(0))
            .is_empty());
    }

    #[test]
    #[should_panic(expected = "at least two Trotter slices")]
    fn single_slice_is_rejected() {
        PathIntegralQmcSampler::new(SqaConfig {
            slices: 1,
            ..SqaConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "transverse field must decrease")]
    fn increasing_field_is_rejected() {
        PathIntegralQmcSampler::new(SqaConfig {
            gamma_init: 0.1,
            gamma_final: 1.0,
            ..SqaConfig::default()
        });
    }
}
