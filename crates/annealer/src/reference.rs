//! Naive reference implementations of the annealing kernels.
//!
//! The hot kernels in [`crate::sa`], [`crate::sqa`], and
//! [`crate::behavioral`] are written for throughput: monomorphized RNGs,
//! flat SoA adjacency slices, reusable scratch buffers, and (for SA) an
//! early exit once the system freezes. The implementations here are the
//! *straight-line transcription* of the same algorithms — trait-object RNG,
//! the [`mqo_core::ising::Ising::neighbours`] iterator, fresh allocations
//! per call, no early exit — kept as executable documentation and as
//! oracles: the proptest suite (`tests/proptest_kernels.rs`) asserts that
//! fast and reference kernels produce **bit-identical** sample streams from
//! the same RNG state.
//!
//! Shared pieces guarantee the identity by construction: both sides use
//! [`crate::sampler::metropolis_accept`] (same draw-skipping rules), the
//! same delta expressions, and the same field-update expressions applied in
//! the same CSR neighbour order. SA's early-freeze exit needs no mirror
//! here — a frozen sweep consumes no randomness and flips nothing, so the
//! reference's remaining sweeps are exact no-ops.

use crate::behavioral::ProgrammedBehavioral;
use crate::sa::ProgrammedSa;
use crate::sampler::metropolis_accept;
use crate::sqa::ProgrammedSqa;
use mqo_core::ids::VarId;
use rand::{Rng, RngCore};

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
                if metropolis_accept(rng, beta, delta) {
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
                    if metropolis_accept(rng, beta, delta) {
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
                    if metropolis_accept(rng, beta, delta) {
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
                if metropolis_accept(rng, beta, delta) {
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
                if metropolis_accept(rng, beta, delta) {
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
