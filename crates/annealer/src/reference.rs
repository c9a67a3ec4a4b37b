//! Naive reference implementations of the annealing kernels.
//!
//! The kernels in [`crate::sa`], [`crate::sqa`], and [`crate::behavioral`]
//! are written for throughput: the concrete `ChaCha8Rng`, flat SoA
//! adjacency slices, reusable scratch buffers, and for SA a lane walk that
//! anneals up to eight reads in lock-step, generates each lane's keystream
//! itself, and ends once every lane is frozen. The implementations here
//! are the *straight-line transcription* of the same algorithms — one read
//! at a time, trait-object RNG, the
//! [`mqo_core::ising::Ising::neighbours`] iterator, fresh allocations per
//! call, no early exit — kept as executable documentation and as oracles:
//! the proptest suite (`tests/proptest_kernels.rs`) asserts that kernel
//! and reference produce **bit-identical** reads from the same RNG state
//! and leave the stream at the same word.
//!
//! Both sides share the delta expressions and the field-update
//! expressions applied in the same CSR neighbour order. They do not share
//! the acceptance code: the kernels decide through a table pre-test that
//! settles most draws without `exp`
//! ([`crate::sampler::metropolis_accept`], and its branch-free form in the
//! lane walk), while [`accept_exact`] here is the plain exact rule with the
//! same draw-skipping cutoffs. Bit-identity therefore also checks the
//! pre-test. The lane walk's early exit needs no mirror here — a lane that
//! sweeps without a draw or a flip is frozen, so the reference's remaining
//! sweeps are exact no-ops.

use crate::behavioral::ProgrammedBehavioral;
use crate::sa::ProgrammedSa;
use crate::sampler::{metropolis_exp, METROPOLIS_EXP_CUTOFF};
use crate::sqa::ProgrammedSqa;
use mqo_core::ids::VarId;
use rand::{Rng, RngCore};

/// The Metropolis rule without a pre-test: accept downhill moves, reject
/// moves below [`METROPOLIS_EXP_CUTOFF`] without a draw, and otherwise
/// accept iff the drawn `u < ⌊metropolis_exp(−β·delta)·2³²⌋` (saturating).
pub fn accept_exact(rng: &mut dyn RngCore, beta: f64, delta: f64) -> bool {
    if delta <= 0.0 {
        return true;
    }
    let arg = -beta * delta;
    if arg < METROPOLIS_EXP_CUTOFF {
        return false;
    }
    rng.next_u32() < (metropolis_exp(arg) * 4_294_967_296.0) as u32
}

impl ProgrammedSa {
    /// Reference transcription of the SA kernel. Bit-identical to
    /// [`crate::sampler::ProgrammedSampler::sample_into`] on the same RNG
    /// state.
    pub fn sample_into_reference(&self, rng: &mut dyn RngCore, out: &mut [i8]) {
        let ising = &self.ising;
        let n = ising.num_spins();
        debug_assert_eq!(out.len(), n);
        for s in out.iter_mut() {
            *s = if rng.gen::<bool>() { 1 } else { -1 };
        }
        if n == 0 {
            return;
        }
        let mut fields: Vec<f64> = (0..n)
            .map(|i| ising.local_field(out, VarId::new(i)))
            .collect();
        for &beta in &self.betas {
            for i in 0..n {
                let delta = -2.0 * f64::from(out[i]) * fields[i];
                if accept_exact(rng, beta, delta) {
                    let flipped = -out[i];
                    out[i] = flipped;
                    let step = f64::from(flipped);
                    for (j, w) in ising.neighbours(VarId::new(i)) {
                        fields[j.index()] += 2.0 * w * step;
                    }
                }
            }
        }
    }
}

impl ProgrammedSqa {
    /// Reference transcription of the PIQMC kernel. Bit-identical to
    /// [`crate::sampler::ProgrammedSampler::sample_into`] on the same RNG
    /// state.
    pub fn sample_into_reference(&self, rng: &mut dyn RngCore, out: &mut [i8]) {
        let ising = &self.ising;
        let n = ising.num_spins();
        debug_assert_eq!(out.len(), n);
        if n == 0 {
            return;
        }
        let p = self.config.slices;
        let beta = self.beta;

        let mut slices: Vec<Vec<i8>> = (0..p)
            .map(|_| {
                (0..n)
                    .map(|_| if rng.gen::<bool>() { 1i8 } else { -1 })
                    .collect()
            })
            .collect();
        let mut fields: Vec<Vec<f64>> = slices
            .iter()
            .map(|s| {
                (0..n)
                    .map(|i| ising.local_field(s, VarId::new(i)))
                    .collect()
            })
            .collect();

        for &j_perp in &self.j_perp {
            for k in 0..p {
                let up = (k + p - 1) % p;
                let down = (k + 1) % p;
                for i in 0..n {
                    let si = f64::from(slices[k][i]);
                    let classical = -2.0 * si * fields[k][i] / p as f64;
                    let neighbours = f64::from(slices[up][i]) + f64::from(slices[down][i]);
                    let quantum = 2.0 * j_perp * si * neighbours;
                    let delta = classical + quantum;
                    if accept_exact(rng, beta, delta) {
                        slices[k][i] = -slices[k][i];
                        let step = f64::from(slices[k][i]);
                        for (j, w) in ising.neighbours(VarId::new(i)) {
                            fields[k][j.index()] += 2.0 * w * step;
                        }
                    }
                }

                for (c, members) in self.clusters.iter().enumerate() {
                    let mut delta = 0.0;
                    for &i in members {
                        let si = f64::from(slices[k][i]);
                        let mut ext_field = ising.fields()[i];
                        for (j, w) in ising.neighbours(VarId::new(i)) {
                            if self.cluster_of[j.index()] != c as u32 {
                                ext_field += w * f64::from(slices[k][j.index()]);
                            }
                        }
                        delta += -2.0 * si * ext_field / p as f64;
                        let neighbours = f64::from(slices[up][i]) + f64::from(slices[down][i]);
                        delta += 2.0 * j_perp * si * neighbours;
                    }
                    if accept_exact(rng, beta, delta) {
                        for &i in members {
                            slices[k][i] = -slices[k][i];
                        }
                        for &i in members {
                            let step = f64::from(slices[k][i]);
                            for (j, w) in ising.neighbours(VarId::new(i)) {
                                fields[k][j.index()] += 2.0 * w * step;
                            }
                        }
                    }
                }
            }
        }

        let energies: Vec<f64> = slices.iter().map(|s| ising.energy(s)).collect();
        let mut best = 0usize;
        for k in 1..p {
            if energies[k].total_cmp(&energies[best]) == std::cmp::Ordering::Less {
                best = k;
            }
        }
        out.copy_from_slice(&slices[best]);
    }
}

impl ProgrammedBehavioral {
    /// Reference transcription of the behavioural read kernel.
    /// Bit-identical to
    /// [`crate::sampler::ProgrammedSampler::sample_into`] on the same RNG
    /// state.
    pub fn sample_into_reference(&self, rng: &mut dyn RngCore, out: &mut [i8]) {
        let ising = &self.ising;
        let units = &self.units;
        let n = ising.num_spins();
        debug_assert_eq!(out.len(), n);
        if n == 0 {
            return;
        }
        out.copy_from_slice(self.oracle());
        let beta = self.beta;
        let mut fields: Vec<f64> = (0..n)
            .map(|i| ising.local_field(out, VarId::new(i)))
            .collect();
        for _ in 0..self.config.read_sweeps {
            for i in 0..n {
                let delta = -2.0 * f64::from(out[i]) * fields[i];
                if accept_exact(rng, beta, delta) {
                    let flipped = -out[i];
                    out[i] = flipped;
                    let step = f64::from(flipped);
                    for (j, w) in ising.neighbours(VarId::new(i)) {
                        fields[j.index()] += 2.0 * w * step;
                    }
                }
            }
            for u in 0..units.len() {
                if units.members[u].len() < 2 {
                    continue;
                }
                let delta = units.flip_delta(ising, out, u);
                if accept_exact(rng, beta, delta) {
                    units.apply_flip(out, u);
                    for &i in &units.members[u] {
                        let step = f64::from(out[i]);
                        for (j, w) in ising.neighbours(VarId::new(i)) {
                            fields[j.index()] += 2.0 * w * step;
                        }
                    }
                }
            }
        }
    }
}
