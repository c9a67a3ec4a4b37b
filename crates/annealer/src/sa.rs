//! Classical simulated annealing on the Ising problem.
//!
//! One [`Sampler::sample`] call is one annealing run: a random initial
//! configuration relaxed through a geometric inverse-temperature schedule
//! with Metropolis single-spin flips. This is the standard software
//! counterpart the paper contrasts quantum annealing against (Section 2) and
//! the default back-end of the device model: on sparse Chimera-structured
//! problems it reproduces the qualitative behaviour the paper reports for
//! hardware runs — near-optimal samples from the very first read with a
//! small spread across reads.

use crate::sampler::{
    metropolis_accept, metropolis_threshold, MetropolisBuckets, ProgrammedSampler, ReadScratch,
    Sampler, SamplerHints, METROPOLIS_EXP_CUTOFF,
};
use mqo_core::ising::Ising;
use rand::{Rng, RngCore};
use rand_chacha::ChaCha8Rng;
use std::sync::{Arc, Mutex, PoisonError};

/// Configuration for [`SimulatedAnnealingSampler`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SaConfig {
    /// Number of full sweeps over all spins.
    pub sweeps: usize,
    /// Initial inverse temperature, relative to the problem's maximum
    /// absolute weight (`β₀ = beta_init / max|w|`).
    pub beta_init: f64,
    /// Final inverse temperature, relative likewise.
    pub beta_final: f64,
}

impl Default for SaConfig {
    fn default() -> Self {
        // The final inverse temperature must freeze out energy differences
        // far below max|w|: MQO QUBOs put constraint penalties (wL, wM) and
        // chain strengths at max|w| while the cost differences that decide
        // solution quality are one to two orders of magnitude smaller.
        SaConfig {
            sweeps: 256,
            beta_init: 0.05,
            beta_final: 400.0,
        }
    }
}

/// Single-spin-flip Metropolis annealer.
#[derive(Debug, Clone, Default)]
pub struct SimulatedAnnealingSampler {
    config: SaConfig,
}

impl SimulatedAnnealingSampler {
    /// Creates a sampler with the given schedule.
    pub fn new(config: SaConfig) -> Self {
        assert!(config.sweeps > 0, "need at least one sweep");
        assert!(
            config.beta_init > 0.0 && config.beta_final >= config.beta_init,
            "schedule must heat up monotonically"
        );
        SimulatedAnnealingSampler { config }
    }

    /// The active configuration.
    pub fn config(&self) -> SaConfig {
        self.config
    }
}

impl Sampler for SimulatedAnnealingSampler {
    type Programmed = ProgrammedSa;

    fn program(
        &self,
        ising: Ising,
        _hints: &SamplerHints<'_>,
        _rng: &mut dyn RngCore,
    ) -> ProgrammedSa {
        // Pre-resolve the full temperature schedule once per programming;
        // the per-sweep `powf` would otherwise cost as much as several
        // spin updates in every read.
        let scale = ising.max_abs_weight().max(f64::MIN_POSITIVE);
        let beta0 = self.config.beta_init / scale;
        let ratio = (self.config.beta_final / scale) / beta0;
        let betas = schedule_powers(ratio, self.config.sweeps)
            .iter()
            .map(|&power| beta0 * power)
            .collect();
        ProgrammedSa { betas, ising }
    }

    fn name(&self) -> &'static str {
        "simulated-annealing"
    }
}

/// `ratio.powf(t)` at `t = sweep / (sweeps − 1)` for every sweep of a
/// schedule, the factors of [`SimulatedAnnealingSampler::program`]'s betas.
///
/// `ratio` is `beta_final / beta_init` up to the rounding of the division
/// by the problem's scale, so a process sees only a few distinct bit
/// patterns of it per configuration. A small process-wide table keyed by
/// those bits and the sweep count spares the `powf` calls of every later
/// programming; the factors are the uncached ones bit for bit.
fn schedule_powers(ratio: f64, sweeps: usize) -> Arc<[f64]> {
    /// Schedules kept; the oldest is dropped first.
    const KEPT: usize = 8;
    /// `((ratio bits, sweeps), powers)`.
    type Schedules = Vec<((u64, usize), Arc<[f64]>)>;
    static TABLE: Mutex<Schedules> = Mutex::new(Vec::new());
    let key = (ratio.to_bits(), sweeps);
    let lock = || TABLE.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some((_, powers)) = lock().iter().find(|(k, _)| *k == key) {
        return Arc::clone(powers);
    }
    let powers: Arc<[f64]> = (0..sweeps)
        .map(|sweep| ratio.powf(sweep as f64 / (sweeps - 1).max(1) as f64))
        .collect();
    let mut table = lock();
    if table.len() == KEPT {
        table.remove(0);
    }
    table.push((key, Arc::clone(&powers)));
    powers
}

/// [`SimulatedAnnealingSampler`] programmed with one problem: the full beta
/// schedule is resolved once and shared by every read.
#[derive(Debug, Clone)]
pub struct ProgrammedSa {
    pub(crate) betas: Vec<f64>,
    pub(crate) ising: Ising,
}

impl ProgrammedSa {
    /// The annealing kernel, generic over the RNG so the device's hot path
    /// monomorphizes over [`ChaCha8Rng`] while the trait-object path reuses
    /// the same code through `dyn RngCore` — identical draws either way.
    ///
    /// Each spin's local field is maintained incrementally: a proposal
    /// costs `O(1)` (one load of the cached field) and only an *accepted*
    /// flip pays `O(deg)` to update the neighbours' fields.
    ///
    /// Sweeps run in two regimes. While no spin is frozen (the hot phase —
    /// typically the first half of the schedule) a sweep is a plain linear
    /// scan over `0..n`: no bitmask reads, no bit-scanning chain, perfectly
    /// predicted loop control. Once freezing begins, sweeps iterate the
    /// *active-spin bitmask* instead. A spin whose proposal hits the
    /// [`metropolis_accept`] cutoff (`−β·delta` below the point where the
    /// 32-bit draw can no longer accept) is frozen: its field is unchanged
    /// until a neighbour flips, and betas are non-decreasing, so every
    /// later sweep would reject it deterministically without consuming
    /// randomness — dropping it from the scan is a pure time saving with
    /// bit-identical output. Accepted flips reactivate their neighbours.
    /// Once the mask drains empty the kernel exits: all remaining sweeps
    /// are draw-free no-ops.
    ///
    /// The regime split is stream-exact: freezes only ever happen at the
    /// scan position, so during a sweep that *starts* with nothing frozen,
    /// every not-yet-visited spin is still active and the linear scan
    /// visits exactly the spins a full-mask scan would.
    ///
    /// Spins are kept as `±1.0` doubles (`sf`) for the duration of the
    /// anneal so the proposal's critical path — load spin, load field,
    /// two multiplies, compare — contains no `i8 → f64` conversion; `out`
    /// is materialized once at the end. `sf[i]` always equals
    /// `f64::from(out[i])` of the i8 formulation exactly, so every product
    /// matches the reference kernel bit for bit.
    ///
    /// The hot loop uses unchecked indexing. Safety rests on invariants
    /// [`Ising`] asserts at construction: every CSR neighbour index is
    /// `< n`, `offsets` is monotone with `offsets[n] == idx.len() ==
    /// w.len()`, and `out`/`fields`/`mask` are sized to `n` spins (and
    /// `n.div_ceil(64)` words) right here.
    fn anneal<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        out: &mut [i8],
        fields: &mut Vec<f64>,
        mask: &mut Vec<u64>,
        sf: &mut Vec<f64>,
    ) {
        let n = self.ising.num_spins();
        assert_eq!(out.len(), n);
        sf.clear();
        sf.extend((0..n).map(|_| if rng.gen::<bool>() { 1.0 } else { -1.0 }));
        if n == 0 {
            return;
        }
        let (offsets, idx, w) = self.ising.adjacency();
        let h = self.ising.fields();
        // Same expression and accumulation order as `Ising::local_field`,
        // with `sf[j]` standing in for `f64::from(s[j])`.
        fields.clear();
        fields.extend((0..n).map(|i| {
            let mut f = h[i];
            for k in offsets[i] as usize..offsets[i + 1] as usize {
                f += w[k] * sf[idx[k] as usize];
            }
            f
        }));
        let words = n.div_ceil(64);
        mask.clear();
        mask.resize(words, !0u64);
        if !n.is_multiple_of(64) {
            mask[words - 1] = !0u64 >> (64 - n % 64);
        }
        let mut frozen = 0usize;
        'schedule: for &beta in &self.betas {
            if frozen == 0 {
                // Hot regime: linear sweep. Freezes that happen mid-sweep
                // are always behind the scan position, so no skipping logic
                // is needed within the sweep itself.
                for i in 0..n {
                    // SAFETY: `i < n` and all buffers hold `n` elements.
                    let delta = unsafe { -2.0 * *sf.get_unchecked(i) * fields.get_unchecked(i) };
                    if delta > 0.0 && -beta * delta < METROPOLIS_EXP_CUTOFF {
                        mask[i / 64] &= !(1u64 << (i % 64)); // frozen without a draw
                        frozen += 1;
                        continue;
                    }
                    if metropolis_accept(rng, beta, delta) {
                        // SAFETY: `i < n`; `offsets[i] <= offsets[i + 1] <=
                        // idx.len() == w.len()`; every `idx[k] < n`.
                        unsafe {
                            let step = -*sf.get_unchecked(i);
                            *sf.get_unchecked_mut(i) = step;
                            let lo = *offsets.get_unchecked(i) as usize;
                            let hi = *offsets.get_unchecked(i + 1) as usize;
                            if frozen == 0 {
                                for k in lo..hi {
                                    let j = *idx.get_unchecked(k) as usize;
                                    *fields.get_unchecked_mut(j) += 2.0 * w.get_unchecked(k) * step;
                                }
                            } else {
                                // A spin froze earlier in this same sweep;
                                // flips from here on must reactivate.
                                for k in lo..hi {
                                    let j = *idx.get_unchecked(k) as usize;
                                    *fields.get_unchecked_mut(j) += 2.0 * w.get_unchecked(k) * step;
                                    let (wj, bj) = (j / 64, (j % 64) as u32);
                                    let word = *mask.get_unchecked(wj);
                                    let set = word | 1u64 << bj;
                                    frozen -= usize::from(word != set);
                                    *mask.get_unchecked_mut(wj) = set;
                                }
                            }
                        }
                    }
                }
                continue;
            }
            // Cold regime: bitmask sweep over the remaining active spins.
            let mut active = false;
            for wi in 0..words {
                // Snapshot the word's bits: freezes only clear the bit
                // being visited, so the snapshot stays valid until an
                // accepted flip reactivates a not-yet-visited neighbour in
                // this same word — only then is it re-synced from `mask`.
                let mut pending = mask[wi];
                while pending != 0 {
                    let bit = pending.trailing_zeros();
                    pending &= pending - 1;
                    let i = wi * 64 + bit as usize;
                    // SAFETY: `i < n` because the tail word's bits beyond
                    // `n` were cleared at mask init and are never set
                    // (reactivation only sets bits of real neighbours).
                    let delta = unsafe { -2.0 * *sf.get_unchecked(i) * fields.get_unchecked(i) };
                    if delta > 0.0 && -beta * delta < METROPOLIS_EXP_CUTOFF {
                        mask[wi] &= !(1u64 << bit); // frozen without a draw
                        frozen += 1;
                        continue;
                    }
                    active = true;
                    if metropolis_accept(rng, beta, delta) {
                        // SAFETY: as in the hot regime.
                        let mut resync = false;
                        unsafe {
                            let step = -*sf.get_unchecked(i);
                            *sf.get_unchecked_mut(i) = step;
                            let lo = *offsets.get_unchecked(i) as usize;
                            let hi = *offsets.get_unchecked(i + 1) as usize;
                            for k in lo..hi {
                                let j = *idx.get_unchecked(k) as usize;
                                *fields.get_unchecked_mut(j) += 2.0 * w.get_unchecked(k) * step;
                                let (wj, bj) = (j / 64, (j % 64) as u32);
                                let word = *mask.get_unchecked(wj);
                                let set = word | 1u64 << bj;
                                frozen -= usize::from(word != set);
                                *mask.get_unchecked_mut(wj) = set;
                                resync |= wj == wi && bj > bit;
                            }
                        }
                        if resync {
                            // A neighbour ahead of `i` in this word woke
                            // up; this sweep must still visit it.
                            pending = mask[wi] & (!0u64 << bit << 1);
                        }
                    }
                }
            }
            if !active {
                // Frozen: no draw was consumed and no spin moved, and betas
                // are non-decreasing, so all remaining sweeps are no-ops.
                break 'schedule;
            }
        }
        for (o, &s) in out.iter_mut().zip(sf.iter()) {
            *o = s as i8;
        }
    }
}

/// Words of a lane's draw buffer, and so the spins walked between two
/// top-ups: a proposal consumes at most one word per lane.
const DRAW_CHUNK: usize = 64;

/// The read streams of a `W`-lane walk, each buffered so the walk can
/// peek a lane's next word and consume it by a count instead of a branch.
///
/// Kept as one array per field rather than one struct per lane, and the
/// walk keeps its per-lane cursors in a local `[usize; W]`, so they stay in
/// registers: it reads a word and bumps a cursor of every lane per
/// proposal. With one struct per lane, an 8-lane walk on `cold-backlog`
/// instances took 762 µs against 548 µs (DESIGN.md §10).
struct LaneStreams<const W: usize> {
    rngs: [ChaCha8Rng; W],
    words: [[u32; DRAW_CHUNK]; W],
}

impl<const W: usize> LaneStreams<W> {
    /// Streams whose buffers are all consumed: the first
    /// [`LaneStreams::top_up`] takes `[DRAW_CHUNK; W]`.
    fn new(rngs: [ChaCha8Rng; W]) -> Self {
        LaneStreams {
            rngs,
            words: [[0; DRAW_CHUNK]; W],
        }
    }

    /// Refills every lane's buffer to [`DRAW_CHUNK`] unconsumed words, in
    /// stream order, after lane `l` consumed its first `used[l]`.
    fn top_up(&mut self, used: &[usize; W]) {
        for ((words, &used), rng) in self.words.iter_mut().zip(used).zip(&mut self.rngs) {
            words.copy_within(used.., 0);
            for word in &mut words[DRAW_CHUNK - used..] {
                *word = rng.next_u32();
            }
        }
    }
}

/// `buf` refilled with `len` zeroed rows of `W` lanes, viewed as rows.
fn lane_rows<const W: usize>(buf: &mut Vec<f64>, len: usize) -> &mut [[f64; W]] {
    buf.clear();
    buf.resize(len * W, 0.0);
    buf.as_chunks_mut().0
}

/// Whether this CPU runs the AVX2 build of the lane kernel. The standard
/// library probes the CPU once per process and caches the answer.
#[inline]
fn has_avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Whether this CPU runs the AVX-512 build of the lane kernel: it has the
/// whole x86-64-v4 set of AVX-512 features, from the same cached probe.
#[inline]
fn has_avx512() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::is_x86_feature_detected as has;
        has!("avx512f")
            && has!("avx512bw")
            && has!("avx512cd")
            && has!("avx512dq")
            && has!("avx512vl")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The build of the SA lane kernel this CPU runs: `"avx512"`, `"avx2"` or
/// `"portable"`. All three give the same reads; benchmarks record it
/// because they do not give the same reads per second.
pub fn lane_kernel() -> &'static str {
    if has_avx512() {
        "avx512"
    } else if has_avx2() {
        "avx2"
    } else {
        "portable"
    }
}

/// The width of the walk that takes the next reads of a block with `reads`
/// left: the widest of 8 and 4 lanes that leaves at most one lane idle,
/// else a 2-lane walk for two reads and the one-read kernel (width 1) for
/// one. 10 reads run as 8 + 2, 7 as 8, 6 as 4 + 2, 5 as 4 + 1, 3 as 4.
fn walk_width(reads: usize) -> usize {
    match reads {
        7.. => 8,
        3.. => 4,
        r => r,
    }
}

impl ProgrammedSa {
    /// Whether `programs` can share one lane walk: one CSR structure and
    /// one schedule length. Gauges only flip weight signs and control
    /// noise only perturbs values, so a run's programmings always can.
    fn share_a_walk(programs: &[&ProgrammedSa]) -> bool {
        let (offsets, idx, _) = programs[0].ising.adjacency();
        programs.iter().all(|p| {
            let (o, i, _) = p.ising.adjacency();
            p.betas.len() == programs[0].betas.len() && o == offsets && i == idx
        })
    }

    /// The lane kernel: anneals `programs.len()` (1..=`W`) reads in
    /// lock-step over one CSR walk, one lane per read, each lane
    /// bit-identical to [`ProgrammedSa::anneal`] on its stream.
    ///
    /// Every lane has its own weights, fields, spins, betas and buffered
    /// ChaCha8 stream. The Metropolis decision is branch-free: each lane
    /// peeks its next word, decides it through the [`MetropolisBuckets`]
    /// pre-test, and consumes the word iff the scalar rule would have
    /// drawn. Only when some lane's draw falls in its bucket's open window
    /// (about one draw in a thousand) does the walk branch to the exact
    /// rule, [`metropolis_threshold`], for all lanes at once. A flip is
    /// applied as a select, and the neighbour update adds `2·w·0 = ±0` for
    /// lanes that did not flip, which changes no field value (at most the
    /// sign of a zero field, which the `delta <= 0` test cannot see). A
    /// lane is done after a sweep with no draw and no flip: as in the
    /// scalar kernel's early exit, every later sweep is a no-op for it.
    /// Unused lanes mirror the first read, and the walk ends when every
    /// lane is done.
    ///
    /// One source, [`ProgrammedSa::lane_walk`], is compiled three times
    /// per width: for the target's baseline (SSE2 on `x86_64`, where a
    /// packed instruction holds 2 `f64` lanes) and, on `x86_64`, with AVX2
    /// enabled, where one register holds 4, and with the x86-64-v4 AVX-512
    /// set enabled, where one register holds all 8 and the lanes' draw
    /// words and bucket bounds load by gather. The widest build the CPU
    /// has is picked ([`lane_kernel`] names it). All builds do the same IEEE
    /// multiplies, adds and compares (Rust never contracts `a*b + c` into
    /// an FMA), so every read is bit-identical on every host.
    fn anneal_lanes<const W: usize>(
        programs: &[&ProgrammedSa],
        rngs: &[ChaCha8Rng],
        out: &mut [i8],
        scratch: &mut ReadScratch,
    ) {
        #[cfg(target_arch = "x86_64")]
        if has_avx512() {
            // SAFETY: the CPU supports the AVX-512 set, as just checked.
            return unsafe { Self::anneal_lanes_avx512::<W>(programs, rngs, out, scratch) };
        } else if has_avx2() {
            // SAFETY: the CPU supports AVX2, as just checked.
            return unsafe { Self::anneal_lanes_avx2::<W>(programs, rngs, out, scratch) };
        }
        Self::lane_walk::<W>(programs, rngs, out, scratch);
    }

    /// [`ProgrammedSa::lane_walk`] built with the x86-64-v4 AVX-512 set
    /// enabled (F, BW, CD, DQ and VL). `avx512f` implies FMA, but Rust
    /// never fuses `a*b + c`, so this build rounds every multiply and add
    /// as the others do.
    ///
    /// # Safety
    ///
    /// The CPU running it must support all five features.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512bw,avx512cd,avx512dq,avx512vl")]
    unsafe fn anneal_lanes_avx512<const W: usize>(
        programs: &[&ProgrammedSa],
        rngs: &[ChaCha8Rng],
        out: &mut [i8],
        scratch: &mut ReadScratch,
    ) {
        Self::lane_walk::<W>(programs, rngs, out, scratch);
    }

    /// [`ProgrammedSa::lane_walk`] built with AVX2 enabled (not FMA).
    ///
    /// # Safety
    ///
    /// The CPU running it must support AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn anneal_lanes_avx2<const W: usize>(
        programs: &[&ProgrammedSa],
        rngs: &[ChaCha8Rng],
        out: &mut [i8],
        scratch: &mut ReadScratch,
    ) {
        Self::lane_walk::<W>(programs, rngs, out, scratch);
    }

    /// The body of [`ProgrammedSa::anneal_lanes`], inlined into each of
    /// its three builds: a caller with neither AVX2 nor AVX-512 enabled
    /// gets the portable one.
    #[inline(always)]
    fn lane_walk<const W: usize>(
        programs: &[&ProgrammedSa],
        rngs: &[ChaCha8Rng],
        out: &mut [i8],
        scratch: &mut ReadScratch,
    ) {
        let reads = programs.len();
        debug_assert!((1..=W).contains(&reads) && rngs.len() == reads);
        let lane_prog: [&ProgrammedSa; W] =
            std::array::from_fn(|l| programs[if l < reads { l } else { 0 }]);
        let mut draws = LaneStreams::<W>::new(std::array::from_fn(|l| {
            rngs[if l < reads { l } else { 0 }].clone()
        }));
        let ising = &lane_prog[0].ising;
        let n = ising.num_spins();
        debug_assert_eq!(out.len(), reads * n);
        let spins = lane_rows::<W>(&mut scratch.lane_spins, n);
        for (l, rng) in draws.rngs.iter_mut().enumerate() {
            for s in spins.iter_mut() {
                s[l] = if rng.gen::<bool>() { 1.0 } else { -1.0 };
            }
        }
        if n == 0 {
            return;
        }
        let (offsets, idx, _) = ising.adjacency();
        let weights = lane_rows::<W>(&mut scratch.lane_weights, idx.len());
        let fields = lane_rows::<W>(&mut scratch.lane_fields, n);
        for (l, prog) in lane_prog.iter().enumerate() {
            let (_, _, w) = prog.ising.adjacency();
            let h = prog.ising.fields();
            for (lw, &wk) in weights.iter_mut().zip(w) {
                lw[l] = wk;
            }
            // Same expression and accumulation order as `anneal`.
            for i in 0..n {
                let mut f = h[i];
                for k in offsets[i] as usize..offsets[i + 1] as usize {
                    f += w[k] * spins[idx[k] as usize][l];
                }
                fields[i][l] = f;
            }
        }
        let buckets = MetropolisBuckets::get();
        // Words each lane consumed since its last top-up.
        let mut next = [DRAW_CHUNK; W];
        for sweep in 0..lane_prog[0].betas.len() {
            let beta: [f64; W] = std::array::from_fn(|l| lane_prog[l].betas[sweep]);
            let mut active = [false; W];
            for start in (0..n).step_by(DRAW_CHUNK) {
                draws.top_up(&next);
                next = [0; W];
                for i in start..n.min(start + DRAW_CHUNK) {
                    let s = spins[i];
                    let f = fields[i];
                    let mut arg = [0.0; W];
                    let mut word = [0u32; W];
                    let mut accept = [false; W];
                    let mut unsure = [false; W];
                    for l in 0..W {
                        let delta = -2.0 * s[l] * f[l];
                        arg[l] = -beta[l] * delta;
                        let draw = (delta > 0.0) & (arg[l] >= METROPOLIS_EXP_CUTOFF);
                        // `next < DRAW_CHUNK`: the buffer was topped up at
                        // most DRAW_CHUNK − 1 proposals ago (the `%` only
                        // spares the bounds check).
                        word[l] = draws.words[l][next[l] % DRAW_CHUNK];
                        let (sure, open) = buckets.pretest(arg[l], word[l]);
                        accept[l] = (delta <= 0.0) | (draw & sure);
                        unsure[l] = draw & open;
                        next[l] += usize::from(draw);
                        active[l] |= draw | accept[l];
                    }
                    if unsure.contains(&true) {
                        // The exact rule, for the about one draw in a
                        // thousand the pre-test leaves open.
                        #[cfg(test)]
                        crate::sampler::pretest_stats::note_fallbacks(
                            unsure.iter().filter(|&&open| open).count() as u64,
                        );
                        for l in 0..W {
                            let threshold =
                                metropolis_threshold(arg[l].clamp(METROPOLIS_EXP_CUTOFF, 0.0));
                            accept[l] |= unsure[l] & (f64::from(word[l]) + 1.0 <= threshold);
                        }
                    }
                    let step: [f64; W] =
                        std::array::from_fn(|l| if accept[l] { -s[l] } else { 0.0 });
                    if accept.contains(&true) {
                        spins[i] =
                            std::array::from_fn(|l| if step[l] == 0.0 { s[l] } else { step[l] });
                        for k in offsets[i] as usize..offsets[i + 1] as usize {
                            let j = idx[k] as usize;
                            let w = weights[k];
                            for l in 0..W {
                                fields[j][l] += 2.0 * w[l] * step[l];
                            }
                        }
                    }
                }
            }
            if !active.contains(&true) {
                break;
            }
        }
        for (r, read) in out.chunks_exact_mut(n).enumerate() {
            for (o, s) in read.iter_mut().zip(spins.iter()) {
                *o = s[r] as i8;
            }
        }
    }
}

impl ProgrammedSampler for ProgrammedSa {
    fn num_spins(&self) -> usize {
        self.ising.num_spins()
    }

    fn sample_into(&self, rng: &mut dyn RngCore, out: &mut [i8]) {
        self.anneal(rng, out, &mut Vec::new(), &mut Vec::new(), &mut Vec::new());
    }

    fn sample_into_fast(&self, rng: &mut ChaCha8Rng, out: &mut [i8], scratch: &mut ReadScratch) {
        self.anneal(
            rng,
            out,
            &mut scratch.fields,
            &mut scratch.mask,
            &mut scratch.spinf,
        );
    }

    /// Splits the block into walks of the widest of 8 and 4 lanes that
    /// leaves at most one lane idle, else a 2-lane walk for two reads and
    /// the one-read kernel for one (`walk_width`); programmings that
    /// cannot share a walk take the one-read kernel.
    fn sample_block_fast(
        programs: &[&Self],
        rngs: &mut [ChaCha8Rng],
        out: &mut [i8],
        scratch: &mut ReadScratch,
    ) {
        let n = programs.first().map_or(0, |p| p.num_spins());
        let mut first = 0;
        while first < programs.len() {
            let width = walk_width(programs.len() - first);
            let reads = first..programs.len().min(first + width);
            let (progs, rngs) = (&programs[reads.clone()], &mut rngs[reads.clone()]);
            let out = &mut out[reads.start * n..reads.end * n];
            first = reads.end;
            if width == 1 || !Self::share_a_walk(progs) {
                for (k, (prog, rng)) in progs.iter().zip(rngs.iter_mut()).enumerate() {
                    prog.sample_into_fast(rng, &mut out[k * n..(k + 1) * n], scratch);
                }
                continue;
            }
            match width {
                8 => Self::anneal_lanes::<8>(progs, rngs, out, scratch),
                4 => Self::anneal_lanes::<4>(progs, rngs, out, scratch),
                _ => Self::anneal_lanes::<2>(progs, rngs, out, scratch),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::{SamplerHints, LANES};
    use mqo_core::ids::VarId;
    use mqo_core::ising::spins_to_bits;
    use mqo_core::qubo::Qubo;
    use rand::SeedableRng;

    fn frustrated_qubo() -> Qubo {
        // 6 variables with competing couplings; ground state known by brute
        // force.
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
    fn sa_finds_the_ground_state_of_a_small_frustrated_problem() {
        let qubo = frustrated_qubo();
        let ising = Ising::from_qubo(&qubo);
        let (_, best_e) = qubo.brute_force_minimum();
        let sampler = SimulatedAnnealingSampler::default();
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let mut hits = 0;
        for _ in 0..20 {
            let s = sampler.sample(&ising, &mut rng);
            let x = spins_to_bits(&s);
            if (qubo.energy(&x) - best_e).abs() < 1e-9 {
                hits += 1;
            }
        }
        assert!(hits >= 15, "SA found the optimum only {hits}/20 times");
    }

    #[test]
    fn sampling_is_deterministic_given_the_seed() {
        let ising = Ising::from_qubo(&frustrated_qubo());
        let sampler = SimulatedAnnealingSampler::default();
        let a = sampler.sample(&ising, &mut ChaCha8Rng::seed_from_u64(3));
        let b = sampler.sample(&ising, &mut ChaCha8Rng::seed_from_u64(3));
        assert_eq!(a, b);
    }

    #[test]
    fn more_sweeps_do_not_hurt_average_quality() {
        let ising = Ising::from_qubo(&frustrated_qubo());
        let avg = |sweeps: usize, seed: u64| {
            let sampler = SimulatedAnnealingSampler::new(SaConfig {
                sweeps,
                ..SaConfig::default()
            });
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            (0..30)
                .map(|_| ising.energy(&sampler.sample(&ising, &mut rng)))
                .sum::<f64>()
                / 30.0
        };
        assert!(avg(128, 5) <= avg(2, 5) + 1e-9);
    }

    #[test]
    fn handles_empty_problems() {
        let ising = Ising::new(vec![], vec![], 0.0);
        let sampler = SimulatedAnnealingSampler::default();
        let s = sampler.sample(&ising, &mut ChaCha8Rng::seed_from_u64(0));
        assert!(s.is_empty());
    }

    mod lanes {
        use super::*;
        use crate::gauge::Gauge;
        use crate::noise::ControlErrorModel;
        use crate::sampler::SamplerHints;
        use proptest::prelude::*;

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

        /// Every build of the `W`-lane walk, called directly: the portable
        /// one against per-read `sample_into_fast`, and the AVX2 and AVX-512
        /// ones each against the portable one. A build this CPU cannot run
        /// is skipped, with a message the first time.
        fn every_build_agrees<const W: usize>(
            programs: &[&ProgrammedSa],
            streams: &[ChaCha8Rng],
            n: usize,
        ) -> Result<(), TestCaseError> {
            let reads = programs.len();
            let mut scratch = ReadScratch::default();
            let mut portable = vec![0i8; reads * n];
            ProgrammedSa::lane_walk::<W>(programs, streams, &mut portable, &mut scratch);
            for (k, (prog, stream)) in programs.iter().zip(streams).enumerate() {
                let mut one = vec![0i8; n];
                prog.sample_into_fast(&mut stream.clone(), &mut one, &mut scratch);
                prop_assert_eq!(
                    &portable[k * n..(k + 1) * n],
                    &one[..],
                    "{} lanes, read {}",
                    W,
                    k
                );
            }
            #[cfg(target_arch = "x86_64")]
            {
                type Build =
                    unsafe fn(&[&ProgrammedSa], &[ChaCha8Rng], &mut [i8], &mut ReadScratch);
                static SKIPPED: [std::sync::Once; 2] =
                    [std::sync::Once::new(), std::sync::Once::new()];
                let builds: [(&str, bool, Build); 2] = [
                    ("AVX2", has_avx2(), ProgrammedSa::anneal_lanes_avx2::<W>),
                    (
                        "AVX-512",
                        has_avx512(),
                        ProgrammedSa::anneal_lanes_avx512::<W>,
                    ),
                ];
                for ((name, runs, build), skipped) in builds.into_iter().zip(&SKIPPED) {
                    if !runs {
                        skipped.call_once(|| {
                            eprintln!("no {name} on this CPU: skipped the {name} lane kernel")
                        });
                        continue;
                    }
                    let mut built = vec![0i8; reads * n];
                    // SAFETY: the CPU supports the build's features, as just
                    // checked.
                    unsafe { build(programs, streams, &mut built, &mut scratch) };
                    prop_assert_eq!(&built, &portable, "{} build, {} lanes", name, W);
                }
            }
            Ok(())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Every build of the lane kernel at every width, full or with
            /// one spare lane, the shapes `sample_block_fast` runs. A host
            /// runs only its widest build otherwise: on an AVX-512 host this
            /// is the only check of the portable and AVX2 builds.
            #[test]
            fn every_lane_kernel_build_agrees(
                ising in arb_ising(),
                gauges in 1usize..=4,
                spare in 0usize..=1,
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
                let programs: Vec<&ProgrammedSa> =
                    (0..LANES).map(|k| &programmed[k % gauges]).collect();
                let streams: Vec<ChaCha8Rng> = (0..LANES)
                    .map(|k| ChaCha8Rng::seed_from_u64(read_seed * 16 + k as u64))
                    .collect();
                every_build_agrees::<2>(&programs[..2 - spare], &streams[..2 - spare], n)?;
                every_build_agrees::<4>(&programs[..4 - spare], &streams[..4 - spare], n)?;
                every_build_agrees::<8>(&programs[..8 - spare], &streams[..8 - spare], n)?;
            }
        }
    }

    #[test]
    fn cached_schedules_equal_the_uncached_formula() {
        let uncached = |config: SaConfig, scale: f64| -> Vec<u64> {
            let beta0 = config.beta_init / scale;
            let ratio = (config.beta_final / scale) / beta0;
            (0..config.sweeps)
                .map(|sweep| {
                    let t = sweep as f64 / (config.sweeps - 1).max(1) as f64;
                    (beta0 * ratio.powf(t)).to_bits()
                })
                .collect()
        };
        let mut ratios = std::collections::BTreeSet::new();
        for sweeps in [1, 2, 64, 256] {
            let config = SaConfig {
                sweeps,
                ..SaConfig::default()
            };
            let sampler = SimulatedAnnealingSampler::new(config);
            for k in 1..=40 {
                let scale = 0.37 * f64::from(k);
                ratios.insert(((config.beta_final / scale) / (config.beta_init / scale)).to_bits());
                let ising = Ising::new(vec![scale, -0.5 * scale], vec![], 0.0);
                // Twice: the first programming may fill the table, the
                // second reads it.
                for _ in 0..2 {
                    let programmed = sampler.program(
                        ising.clone(),
                        &SamplerHints::default(),
                        &mut ChaCha8Rng::seed_from_u64(0),
                    );
                    let betas: Vec<u64> = programmed.betas.iter().map(|b| b.to_bits()).collect();
                    assert_eq!(
                        betas,
                        uncached(config, scale),
                        "sweeps {sweeps}, scale {scale}"
                    );
                }
            }
        }
        assert!(ratios.len() >= 3, "only {} distinct ratios", ratios.len());
    }

    #[test]
    fn the_exact_rule_decides_under_one_percent_of_draws() {
        use crate::sampler::pretest_stats::counts;
        // A pinned sparse instance: 96 spins, each coupled to up to six
        // others, weights and fields uniform in ±1.
        let mut rng = ChaCha8Rng::seed_from_u64(2016);
        let n = 96;
        let h = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let couplings = (0..n)
            .flat_map(|i| [1, 5, 17].map(|step| (i, (i + step) % n)))
            .map(|(a, b)| (VarId::new(a), VarId::new(b), rng.gen_range(-1.0..1.0)))
            .collect();
        let ising = Ising::new(h, couplings, 0.0);
        let programmed =
            SimulatedAnnealingSampler::default().program(ising, &SamplerHints::default(), &mut rng);
        let streams: Vec<ChaCha8Rng> = (0..LANES as u64)
            .map(|k| ChaCha8Rng::seed_from_u64(100 + k))
            .collect();
        let mut scratch = ReadScratch::default();
        let mut out = vec![0i8; LANES * n];
        let before = counts();
        // Fallbacks of the one-read kernel, per read.
        let fallbacks: Vec<u64> = streams
            .iter()
            .enumerate()
            .map(|(k, stream)| {
                let before = counts().1;
                programmed.sample_into_fast(
                    &mut stream.clone(),
                    &mut out[k * n..(k + 1) * n],
                    &mut scratch,
                );
                counts().1 - before
            })
            .collect();
        let (draws, total) = (counts().0 - before.0, counts().1 - before.1);
        assert!(draws > 10_000, "{draws} draws");
        assert!(
            total * 100 < draws,
            "{total} of {draws} draws ran the exact rule"
        );
        // A walk of every width leaves open exactly the draws the one-read
        // kernel does on the same streams.
        let programs = [&programmed; LANES];
        let lane_fallbacks = |width: usize, scratch: &mut ReadScratch, out: &mut [i8]| {
            let before = counts().1;
            let (programs, streams) = (&programs[..width], &streams[..width]);
            let out = &mut out[..width * n];
            match width {
                2 => ProgrammedSa::anneal_lanes::<2>(programs, streams, out, scratch),
                4 => ProgrammedSa::anneal_lanes::<4>(programs, streams, out, scratch),
                _ => ProgrammedSa::anneal_lanes::<8>(programs, streams, out, scratch),
            }
            counts().1 - before
        };
        for width in [2, 4, 8] {
            assert_eq!(
                lane_fallbacks(width, &mut scratch, &mut out),
                fallbacks[..width].iter().sum::<u64>(),
                "{width} lanes"
            );
        }
    }

    #[test]
    #[should_panic(expected = "heat up monotonically")]
    fn inverted_schedule_is_rejected() {
        SimulatedAnnealingSampler::new(SaConfig {
            sweeps: 10,
            beta_init: 5.0,
            beta_final: 1.0,
        });
    }
}
