//! Exhaustive "sampler" for tests: always returns a true ground state.

use crate::sampler::{ProgrammedSampler, ReadScratch, Sampler, SamplerHints};
use mqo_core::ising::Ising;
use rand::RngCore;
use rand_chacha::ChaCha8Rng;

/// Brute-force ground-state finder (`n ≤ 24`), used as an oracle in tests
/// and to measure how close stochastic samplers get.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExactSampler;

impl Sampler for ExactSampler {
    type Programmed = ProgrammedExact;

    fn program(
        &self,
        ising: Ising,
        _hints: &SamplerHints<'_>,
        _rng: &mut dyn RngCore,
    ) -> ProgrammedExact {
        // The enumeration runs once per programming; reads replay it.
        let n = ising.num_spins();
        assert!(n <= 24, "exact sampling is limited to 24 spins");
        let mut best: Vec<i8> = vec![-1; n];
        let mut best_e = ising.energy(&best);
        let mut s = vec![-1i8; n];
        for mask in 1u32..(1u32 << n) {
            for (i, si) in s.iter_mut().enumerate() {
                *si = if mask & (1 << i) != 0 { 1 } else { -1 };
            }
            let e = ising.energy(&s);
            if e < best_e {
                best_e = e;
                best.clone_from(&s);
            }
        }
        ProgrammedExact { ground: best }
    }

    fn name(&self) -> &'static str {
        "exact"
    }
}

/// [`ExactSampler`] programmed with one problem: the ground state has been
/// enumerated and every read returns it verbatim.
#[derive(Debug, Clone)]
pub struct ProgrammedExact {
    ground: Vec<i8>,
}

impl ProgrammedSampler for ProgrammedExact {
    fn num_spins(&self) -> usize {
        self.ground.len()
    }

    fn sample_into(&self, _rng: &mut ChaCha8Rng, out: &mut [i8], _scratch: &mut ReadScratch) {
        out.copy_from_slice(&self.ground);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mqo_core::ids::VarId;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn exact_sampler_returns_the_ground_state() {
        let ising = Ising::new(
            vec![0.5, -1.0, 0.25],
            vec![(VarId(0), VarId(1), 1.0), (VarId(1), VarId(2), -0.75)],
            0.0,
        );
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let s = ExactSampler.sample(&ising, &mut rng);
        // Verify against explicit enumeration.
        let mut best = f64::INFINITY;
        for mask in 0u32..8 {
            let cand: Vec<i8> = (0..3)
                .map(|i| if mask & (1 << i) != 0 { 1 } else { -1 })
                .collect();
            best = best.min(ising.energy(&cand));
        }
        assert_eq!(ising.energy(&s), best);
    }

    #[test]
    #[should_panic(expected = "limited to 24 spins")]
    fn refuses_large_problems() {
        let ising = Ising::new(vec![0.0; 30], vec![], 0.0);
        let _ = ExactSampler.sample(&ising, &mut ChaCha8Rng::seed_from_u64(0));
    }
}
