//! The behavioural device back-end: calibrated sample quality at any scale.
//!
//! **Why this exists.** Faithful classical simulation of 1000-qubit quantum
//! annealing is computationally infeasible — that infeasibility is the very
//! premise of the paper. The physics back-ends ([`crate::sqa`],
//! [`crate::sa`]) reproduce the hardware's behaviour on small problems but
//! fall off at full machine scale (quantified by the `calibrate` harness
//! binary). For full-scale experiments the device model therefore
//! switches to a *behavioural* back-end, in the same way an I/O simulator
//! models a disk by its latency distribution rather than its magnetics:
//!
//! 1. **Oracle phase** (once per programming, i.e. per gauge batch): a
//!    strong, domain-agnostic local search over the *programmed* problem —
//!    greedy descent over single spins, strong-bond cluster flips (chains),
//!    and coupled cluster-pair flips (which is what a logical plan swap
//!    looks like physically), from multiple random starts. This runs inside
//!    [`Sampler::program`], so the expensive search executes exactly once
//!    per gauge batch and its result is shared — immutably — by all reads.
//! 2. **Read phase** (per annealing run): the oracle state is perturbed by
//!    a short Metropolis equilibration at the calibrated inverse
//!    temperature, producing the run-to-run spread. Because the programmed
//!    problem carries gauge-specific control-error noise, reads from
//!    different gauge batches land on genuinely different near-optima of
//!    the *true* problem — exactly the mechanism behind the hardware's
//!    observed residuals (first read ≈ +1.5 % of run best, best-of-1000 ≈
//!    +0.4 % of optimum on MQO instances).
//!
//! Samples never use any information beyond the programmed Ising problem;
//! the MQO semantics, embeddings, and true (noise-free) objective stay
//! invisible, so the device-model contract is identical to the physics
//! back-ends.

use crate::clusters::Units;
use crate::sampler::{metropolis_accept, ProgrammedSampler, ReadScratch, Sampler, SamplerHints};
use mqo_core::ids::VarId;
use mqo_core::ising::Ising;
use rand::{Rng, RngCore};
use rand_chacha::ChaCha8Rng;

/// Configuration for [`BehavioralSampler`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BehavioralConfig {
    /// Random restarts of the oracle local search per programming.
    pub oracle_restarts: usize,
    /// Metropolis sweeps applied to each read for thermal spread.
    pub read_sweeps: usize,
    /// Inverse temperature of the read equilibration, relative to `max|w|`.
    pub beta: f64,
    /// Relative strength above which a ferromagnetic bond joins a cluster.
    pub cluster_threshold: f64,
}

impl Default for BehavioralConfig {
    fn default() -> Self {
        BehavioralConfig {
            oracle_restarts: 12,
            read_sweeps: 8,
            beta: 40.0,
            cluster_threshold: 0.5,
        }
    }
}

/// The behavioural sampler. The oracle search runs in
/// [`Sampler::program`] — once per gauge batch — and the programmed state
/// is immutable thereafter, so reads can execute concurrently.
#[derive(Debug, Clone, Default)]
pub struct BehavioralSampler {
    config: BehavioralConfig,
}

impl BehavioralSampler {
    /// Creates a sampler with the given configuration.
    pub fn new(config: BehavioralConfig) -> Self {
        assert!(config.oracle_restarts >= 1);
        assert!(config.beta > 0.0);
        BehavioralSampler { config }
    }

    /// The active configuration.
    pub fn config(&self) -> BehavioralConfig {
        self.config
    }

    /// Greedy descent over single spins, unit flips, and coupled unit-pair
    /// flips until no move improves.
    fn descend(ising: &Ising, units: &Units, s: &mut [i8]) {
        // Unit pairs worth trying: units linked by at least one coupling.
        let mut pair_set = std::collections::BTreeSet::new();
        for &(a, b, _) in ising.couplings() {
            let ua = units.unit_of[a.index()];
            let ub = units.unit_of[b.index()];
            if ua != ub {
                pair_set.insert(if ua < ub { (ua, ub) } else { (ub, ua) });
            }
        }
        let pairs: Vec<(u32, u32)> = pair_set.into_iter().collect();

        loop {
            let mut improved = false;
            for i in 0..ising.num_spins() {
                if ising.flip_delta(s, VarId::new(i)) < -1e-12 {
                    s[i] = -s[i];
                    improved = true;
                }
            }
            for u in 0..units.len() {
                if units.members[u].len() < 2 {
                    continue;
                }
                if units.flip_delta(ising, s, u) < -1e-12 {
                    units.apply_flip(s, u);
                    improved = true;
                }
                // Align moves repair broken chains that whole-unit flips
                // leave locally stable.
                for v in [1i8, -1] {
                    if units.align_delta(ising, s, u, v) < -1e-12 {
                        units.apply_align(s, u, v);
                        improved = true;
                    }
                }
            }
            for &(a, b) in &pairs {
                if units.pair_flip_delta(ising, s, a as usize, b as usize) < -1e-12 {
                    units.apply_flip(s, a as usize);
                    units.apply_flip(s, b as usize);
                    improved = true;
                }
            }
            if !improved {
                return;
            }
        }
    }

    fn run_oracle(&self, ising: &Ising, units: &Units, rng: &mut dyn RngCore) -> Vec<i8> {
        let n = ising.num_spins();
        let mut best: Option<(f64, Vec<i8>)> = None;
        for _ in 0..self.config.oracle_restarts {
            let mut s: Vec<i8> = (0..n)
                .map(|_| if rng.gen::<bool>() { 1 } else { -1 })
                .collect();
            Self::descend(ising, units, &mut s);
            let e = ising.energy(&s);
            if best.as_ref().is_none_or(|(be, _)| e < *be) {
                best = Some((e, s));
            }
        }
        let (energy, state) = best.expect("at least one restart");
        if std::env::var_os("MQO_B_DEBUG").is_some() {
            eprintln!("[behavioral] oracle energy {energy:.1}");
        }
        state
    }
}

impl Sampler for BehavioralSampler {
    type Programmed = ProgrammedBehavioral;

    fn program(
        &self,
        ising: Ising,
        hints: &SamplerHints<'_>,
        rng: &mut dyn RngCore,
    ) -> ProgrammedBehavioral {
        let units = if hints.chains.is_empty() {
            Units::detect(&ising, self.config.cluster_threshold)
        } else {
            Units::from_chains(&ising, hints.chains)
        };
        if std::env::var_os("MQO_B_DEBUG").is_some() {
            let multi = units.members.iter().filter(|m| m.len() >= 2).count();
            eprintln!(
                "[behavioral] spins={} units={} multi_qubit_units={}",
                ising.num_spins(),
                units.len(),
                multi
            );
        }
        let oracle = if ising.num_spins() == 0 {
            Vec::new()
        } else {
            self.run_oracle(&ising, &units, rng)
        };
        let beta = self.config.beta / ising.max_abs_weight().max(f64::MIN_POSITIVE);
        ProgrammedBehavioral {
            config: self.config,
            beta,
            oracle,
            units,
            ising,
        }
    }

    fn name(&self) -> &'static str {
        "behavioral"
    }
}

/// [`BehavioralSampler`] programmed with one problem: the oracle state has
/// been computed and every read equilibrates around it independently.
#[derive(Debug, Clone)]
pub struct ProgrammedBehavioral {
    pub(crate) config: BehavioralConfig,
    pub(crate) beta: f64,
    pub(crate) oracle: Vec<i8>,
    pub(crate) units: Units,
    pub(crate) ising: Ising,
}

impl ProgrammedBehavioral {
    /// The oracle state this programming equilibrates reads around.
    pub fn oracle(&self) -> &[i8] {
        &self.oracle
    }
}

impl ProgrammedSampler for ProgrammedBehavioral {
    fn num_spins(&self) -> usize {
        self.ising.num_spins()
    }

    /// The read-phase equilibration kernel.
    ///
    /// Per-spin local fields are maintained incrementally: single-spin
    /// proposals read the cached field, and accepted flips — single-spin
    /// or whole-unit — patch the affected neighbourhoods in `O(deg)`.
    /// Unit-flip deltas are still evaluated by [`Units::flip_delta`] so
    /// the arithmetic matches the reference kernel exactly.
    fn sample_into(&self, rng: &mut ChaCha8Rng, out: &mut [i8], scratch: &mut ReadScratch) {
        let fields = &mut scratch.fields;
        let ising = &self.ising;
        let units = &self.units;
        let n = ising.num_spins();
        debug_assert_eq!(out.len(), n);
        if n == 0 {
            return;
        }

        // Read phase: short thermal equilibration around the oracle state.
        out.copy_from_slice(&self.oracle);
        let beta = self.beta;
        ising.local_fields_into(out, fields);
        let (offsets, idx, w) = ising.adjacency();
        for _ in 0..self.config.read_sweeps {
            for i in 0..n {
                let delta = -2.0 * f64::from(out[i]) * fields[i];
                if metropolis_accept(rng, beta, delta) {
                    let flipped = -out[i];
                    out[i] = flipped;
                    let step = f64::from(flipped);
                    let (lo, hi) = (offsets[i] as usize, offsets[i + 1] as usize);
                    for k in lo..hi {
                        fields[idx[k] as usize] += 2.0 * w[k] * step;
                    }
                }
            }
            for u in 0..units.len() {
                if units.members[u].len() < 2 {
                    continue;
                }
                let delta = units.flip_delta(ising, out, u);
                if metropolis_accept(rng, beta, delta) {
                    units.apply_flip(out, u);
                    for &i in &units.members[u] {
                        let step = f64::from(out[i]);
                        let (lo, hi) = (offsets[i] as usize, offsets[i + 1] as usize);
                        for k in lo..hi {
                            fields[idx[k] as usize] += 2.0 * w[k] * step;
                        }
                    }
                }
            }
        }
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
    fn finds_the_ground_state_of_small_problems() {
        let qubo = frustrated_qubo();
        let ising = Ising::from_qubo(&qubo);
        let (_, opt) = qubo.brute_force_minimum();
        let sampler = BehavioralSampler::default();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut hits = 0;
        for _ in 0..20 {
            let s = sampler.sample(&ising, &mut rng);
            if (qubo.energy(&spins_to_bits(&s)) - opt).abs() < 1e-9 {
                hits += 1;
            }
        }
        assert!(hits >= 15, "only {hits}/20 ground-state reads");
    }

    #[test]
    fn reads_have_thermal_spread() {
        let ising = Ising::from_qubo(&frustrated_qubo());
        let sampler = BehavioralSampler::new(BehavioralConfig {
            beta: 2.0, // hot → visible spread
            ..BehavioralConfig::default()
        });
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let energies: std::collections::BTreeSet<i64> = (0..40)
            .map(|_| (ising.energy(&sampler.sample(&ising, &mut rng)) * 1000.0) as i64)
            .collect();
        assert!(energies.len() > 1, "reads must not be identical");
    }

    #[test]
    fn oracle_runs_once_per_programming() {
        // With zero read sweeps, every read returns the oracle state
        // verbatim — so all reads of one programming must be identical,
        // and the expensive search demonstrably runs in `program`, not
        // per read.
        let ising = Ising::from_qubo(&frustrated_qubo());
        let sampler = BehavioralSampler::new(BehavioralConfig {
            read_sweeps: 0,
            ..BehavioralConfig::default()
        });
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let programmed = sampler.program(ising.clone(), &SamplerHints::default(), &mut rng);
        let mut a = vec![0i8; ising.num_spins()];
        let mut b = vec![0i8; ising.num_spins()];
        let mut scratch = ReadScratch::default();
        programmed.sample_into(&mut ChaCha8Rng::seed_from_u64(1), &mut a, &mut scratch);
        programmed.sample_into(&mut ChaCha8Rng::seed_from_u64(2), &mut b, &mut scratch);
        assert_eq!(a, b, "reads with no sweeps must replay the oracle state");

        // A fresh programming of a different problem yields its own oracle.
        let other = Ising::new(vec![1.0, -1.0], vec![], 0.0);
        let p2 = sampler.program(other, &SamplerHints::default(), &mut rng);
        assert_eq!(p2.num_spins(), 2);
        let mut c = vec![0i8; 2];
        p2.sample_into(&mut ChaCha8Rng::seed_from_u64(3), &mut c, &mut scratch);
        assert_eq!(c, vec![-1, 1], "descent solves the trivial field problem");
    }

    #[test]
    fn descent_reaches_pairwise_local_minima() {
        let ising = Ising::from_qubo(&frustrated_qubo());
        let units = Units::detect(&ising, 0.5);
        let mut s = vec![1i8; 6];
        BehavioralSampler::descend(&ising, &units, &mut s);
        for i in 0..6 {
            assert!(ising.flip_delta(&s, VarId::new(i)) >= -1e-9);
        }
        for u in 0..units.len() {
            assert!(units.flip_delta(&ising, &s, u) >= -1e-9);
        }
    }

    #[test]
    fn handles_empty_problems() {
        let ising = Ising::new(vec![], vec![], 0.0);
        let sampler = BehavioralSampler::default();
        assert!(sampler
            .sample(&ising, &mut ChaCha8Rng::seed_from_u64(0))
            .is_empty());
    }
}
