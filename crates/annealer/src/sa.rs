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
    metropolis_threshold, MetropolisBuckets, ProgrammedSampler, ReadScratch, Sampler, SamplerHints,
    METROPOLIS_EXP_CUTOFF,
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

/// The spins walked between two [`LaneStreams::top_up`]s: a proposal
/// consumes at most one word per lane, so a lane with `DRAW_CHUNK` words
/// left cannot run dry within a chunk.
const DRAW_CHUNK: usize = 64;

/// Words one refill generates for a lane: 16 ChaCha8 blocks.
const BATCH_WORDS: usize = 256;

/// Words of a lane's keystream ring in [`ReadScratch::lane_words`]: two
/// batches, so a refill, which happens with fewer than [`DRAW_CHUNK`]
/// words left, only overwrites the batch already consumed.
const RING_WORDS: usize = 2 * BATCH_WORDS;

/// The ChaCha8 keystreams of a `W`-lane walk. Each lane continues its
/// read stream where that stream's `ChaCha8Rng` stands, but generates the
/// words itself, [`BATCH_WORDS`] at a time ([`chacha8_batch`]), into a ring
/// the walk reads in place: lane `l`'s word at ring position `q` (counted
/// from the first word of the block its walk starts in) is
/// `rings[l][q % RING_WORDS]`.
///
/// Kept as one array per field rather than one struct per lane, and the
/// walk keeps its per-lane cursors (ring positions) in a local `[usize;
/// W]`, so they stay in registers: it reads a word and bumps a cursor of
/// every lane per proposal. With one struct per lane, an 8-lane walk on
/// `cold-backlog` instances took 762 µs against 548 µs (DESIGN.md §10).
struct LaneStreams<'a, const W: usize> {
    keys: [[u32; 8]; W],
    streams: [u64; W],
    /// The block each lane's next refill starts at.
    blocks: [u64; W],
    /// The ring positions each lane has generated up to.
    filled: [usize; W],
    rings: &'a mut [[u32; RING_WORDS]; W],
}

impl<'a, const W: usize> LaneStreams<'a, W> {
    /// Streams that continue `rngs` from their next word, with nothing
    /// generated yet, and each lane's first cursor: its word's offset in
    /// its block.
    #[inline(always)]
    fn new(rngs: &[ChaCha8Rng; W], rings: &'a mut [[u32; RING_WORDS]; W]) -> (Self, [usize; W]) {
        let pos = rngs.each_ref().map(ChaCha8Rng::get_word_pos);
        let streams = LaneStreams {
            keys: rngs.each_ref().map(|rng| {
                let seed = rng.get_seed();
                let (words, _) = seed.as_chunks::<4>();
                std::array::from_fn(|k| u32::from_le_bytes(words[k]))
            }),
            streams: rngs.each_ref().map(ChaCha8Rng::get_stream),
            blocks: pos.map(|p| (p / 16) as u64),
            filled: [0; W],
            rings,
        };
        (streams, pos.map(|p| (p % 16) as usize))
    }

    /// Generates the next batch of every lane that has fewer than
    /// [`DRAW_CHUNK`] words left past its cursor.
    #[inline(always)]
    fn top_up(&mut self, cursor: &[usize; W]) {
        for (l, &cursor) in cursor.iter().enumerate() {
            if self.filled[l] < cursor + DRAW_CHUNK {
                let at = self.filled[l] % RING_WORDS;
                let batch = (&mut self.rings[l][at..at + BATCH_WORDS]).try_into();
                chacha8_batch(
                    &self.keys[l],
                    self.streams[l],
                    self.blocks[l],
                    batch.unwrap(),
                );
                self.blocks[l] = self.blocks[l].wrapping_add((BATCH_WORDS / 16) as u64);
                self.filled[l] += BATCH_WORDS;
            }
        }
    }
}

/// The ChaCha quarter-round on four state rows, each holding one word of
/// 16 blocks.
#[inline(always)]
fn quarter_round(x: &mut [[u32; 16]; 16], a: usize, b: usize, c: usize, d: usize) {
    let [mut ra, mut rb, mut rc, mut rd] = [x[a], x[b], x[c], x[d]];
    for (((a, b), c), d) in ra.iter_mut().zip(&mut rb).zip(&mut rc).zip(&mut rd) {
        *a = a.wrapping_add(*b);
        *d = (*d ^ *a).rotate_left(16);
        *c = c.wrapping_add(*d);
        *b = (*b ^ *c).rotate_left(12);
        *a = a.wrapping_add(*b);
        *d = (*d ^ *a).rotate_left(8);
        *c = c.wrapping_add(*d);
        *b = (*b ^ *c).rotate_left(7);
    }
    [x[a], x[b], x[c], x[d]] = [ra, rb, rc, rd];
}

/// Blocks `block..block + 16` of the ChaCha8 keystream with `key` and
/// `stream` (the djb layout `rand_chacha` uses: a 64-bit block counter in
/// state words 12–13, the stream id in 14–15), written to `out` in
/// keystream order: the words `ChaCha8Rng::next_u32` returns from word
/// `16 · block` on.
///
/// The state is held transposed, one row per state word with one lane per
/// block, so every round is 16-wide element-wise arithmetic that compiles
/// to whatever vectors the calling build enables: this is inlined into
/// each build of [`ProgrammedSa::lane_walk`] and needs no dispatch of its
/// own.
#[inline(always)]
fn chacha8_batch(key: &[u32; 8], stream: u64, block: u64, out: &mut [u32; BATCH_WORDS]) {
    const CONSTANTS: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];
    let counter: [u64; 16] = std::array::from_fn(|b| block.wrapping_add(b as u64));
    // State word `w` of every block. Called again for the final addition
    // rather than kept: the broadcasts cost nothing to redo, while in the
    // AVX-512 build a kept copy of the state spills beside the working one.
    let row = |w: usize| -> [u32; 16] {
        match w {
            0..4 => [CONSTANTS[w]; 16],
            4..12 => [key[w - 4]; 16],
            12 => counter.map(|c| c as u32),
            13 => counter.map(|c| (c >> 32) as u32),
            14 => [stream as u32; 16],
            _ => [(stream >> 32) as u32; 16],
        }
    };
    let mut x: [[u32; 16]; 16] = std::array::from_fn(row);
    for _ in 0..4 {
        quarter_round(&mut x, 0, 4, 8, 12);
        quarter_round(&mut x, 1, 5, 9, 13);
        quarter_round(&mut x, 2, 6, 10, 14);
        quarter_round(&mut x, 3, 7, 11, 15);
        quarter_round(&mut x, 0, 5, 10, 15);
        quarter_round(&mut x, 1, 6, 11, 12);
        quarter_round(&mut x, 2, 7, 8, 13);
        quarter_round(&mut x, 3, 4, 9, 14);
    }
    for (w, words) in x.iter().enumerate() {
        for (b, (&v, i)) in words.iter().zip(row(w)).enumerate() {
            out[16 * b + w] = v.wrapping_add(i);
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
/// else 2 lanes, for two reads or one. 10 reads run as 8 + 2, 9 as 8 + 2
/// (a lone read and its mirror), 7 as 8, 6 as 4 + 2, 5 as 4 + 2, 3 as 4.
///
/// A walk's cost grows with its width (120 spins, default schedule: about
/// 280 µs at 2 lanes, 540 at 4, 770 at 8), so an 8-lane walk for every
/// block would slow blocks of four reads; and a 1-lane walk was measured
/// no faster than the 2-lane one (DESIGN.md §10).
fn walk_width(reads: usize) -> usize {
    match reads {
        7.. => 8,
        3.. => 4,
        _ => 2,
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

    /// The SA read kernel: anneals `programs.len()` (1..=`W`) reads in
    /// lock-step over one CSR walk, one lane per read, each lane
    /// bit-identical to [`ProgrammedSa::sample_into_reference`] on its
    /// stream, and leaves each stream where the reference leaves it.
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
    /// lane is done after a sweep with no draw and no flip: it consumes no
    /// randomness and accepts nothing, and betas are non-decreasing, so
    /// every later sweep is a no-op for it. Unused lanes mirror the first
    /// read, and the walk ends when every lane is done.
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
        rngs: &mut [ChaCha8Rng],
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
        rngs: &mut [ChaCha8Rng],
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
        rngs: &mut [ChaCha8Rng],
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
        rngs: &mut [ChaCha8Rng],
        out: &mut [i8],
        scratch: &mut ReadScratch,
    ) {
        let reads = programs.len();
        debug_assert!((1..=W).contains(&reads) && rngs.len() == reads);
        let lane_prog: [&ProgrammedSa; W] =
            std::array::from_fn(|l| programs[if l < reads { l } else { 0 }]);
        let mut lane_rngs: [ChaCha8Rng; W] =
            std::array::from_fn(|l| rngs[if l < reads { l } else { 0 }].clone());
        let ising = &lane_prog[0].ising;
        let n = ising.num_spins();
        debug_assert_eq!(out.len(), reads * n);
        let spins = lane_rows::<W>(&mut scratch.lane_spins, n);
        for (l, rng) in lane_rngs.iter_mut().enumerate() {
            for s in spins.iter_mut() {
                s[l] = if rng.gen::<bool>() { 1.0 } else { -1.0 };
            }
        }
        if n == 0 {
            return;
        }
        if scratch.lane_words.len() < W * RING_WORDS {
            scratch.lane_words.resize(W * RING_WORDS, 0);
        }
        let rings = (&mut scratch.lane_words.as_chunks_mut().0[..W]).try_into();
        let (mut draws, mut cursor) = LaneStreams::<W>::new(&lane_rngs, rings.unwrap());
        let first = cursor;
        let (offsets, idx, _) = ising.adjacency();
        let weights = lane_rows::<W>(&mut scratch.lane_weights, idx.len());
        let fields = lane_rows::<W>(&mut scratch.lane_fields, n);
        for (l, prog) in lane_prog.iter().enumerate() {
            let (_, _, w) = prog.ising.adjacency();
            let h = prog.ising.fields();
            for (lw, &wk) in weights.iter_mut().zip(w) {
                lw[l] = wk;
            }
            // Same expression and accumulation order as `Ising::local_field`.
            for i in 0..n {
                let mut f = h[i];
                for k in offsets[i] as usize..offsets[i + 1] as usize {
                    f += w[k] * spins[idx[k] as usize][l];
                }
                fields[i][l] = f;
            }
        }
        let buckets = MetropolisBuckets::get();
        for sweep in 0..lane_prog[0].betas.len() {
            let beta: [f64; W] = std::array::from_fn(|l| lane_prog[l].betas[sweep]);
            let mut active = [false; W];
            for start in (0..n).step_by(DRAW_CHUNK) {
                draws.top_up(&cursor);
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
                        // The ring holds at least DRAW_CHUNK words past
                        // the cursor at the chunk's start (the `%` only
                        // spares the bounds check).
                        word[l] = draws.rings[l][cursor[l] % RING_WORDS];
                        let (sure, open) = buckets.pretest(arg[l], word[l]);
                        accept[l] = (delta <= 0.0) | (draw & sure);
                        unsure[l] = draw & open;
                        cursor[l] += usize::from(draw);
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
        #[cfg(test)]
        crate::sampler::pretest_stats::note_draws(
            (0..W).map(|l| (cursor[l] - first[l]) as u64).sum(),
        );
        // Each lane consumed one word per draw past where its spins left
        // its stream.
        for (l, (rng, read)) in rngs.iter_mut().zip(out.chunks_exact_mut(n)).enumerate() {
            rng.set_word_pos(lane_rngs[l].get_word_pos() + (cursor[l] - first[l]) as u128);
            for (o, s) in read.iter_mut().zip(spins.iter()) {
                *o = s[l] as i8;
            }
        }
    }
}

impl ProgrammedSampler for ProgrammedSa {
    fn num_spins(&self) -> usize {
        self.ising.num_spins()
    }

    /// One read as a 2-lane walk whose spare lane mirrors it.
    fn sample_into(&self, rng: &mut ChaCha8Rng, out: &mut [i8], scratch: &mut ReadScratch) {
        Self::anneal_lanes::<2>(&[self], std::slice::from_mut(rng), out, scratch);
    }

    /// Splits the block into walks of the widest of 8 and 4 lanes that
    /// leaves at most one lane idle, else a 2-lane walk (`walk_width`);
    /// programmings that cannot share a walk run each read as its own walk.
    fn sample_block(
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
            if !Self::share_a_walk(progs) {
                for (k, (prog, rng)) in progs.iter().zip(rngs.iter_mut()).enumerate() {
                    prog.sample_into(rng, &mut out[k * n..(k + 1) * n], scratch);
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
        /// one against per-read `sample_into_reference`, reads and stream
        /// positions, and the AVX2 and AVX-512 ones each against the
        /// portable one. A build this CPU cannot run is skipped, with a
        /// message the first time.
        fn every_build_agrees<const W: usize>(
            programs: &[&ProgrammedSa],
            streams: &[ChaCha8Rng],
            n: usize,
        ) -> Result<(), TestCaseError> {
            let reads = programs.len();
            let mut scratch = ReadScratch::default();
            let mut portable = vec![0i8; reads * n];
            let mut walked = streams.to_vec();
            ProgrammedSa::lane_walk::<W>(programs, &mut walked, &mut portable, &mut scratch);
            for (k, (prog, stream)) in programs.iter().zip(streams).enumerate() {
                let mut one = vec![0i8; n];
                let mut drawn = stream.clone();
                prog.sample_into_reference(&mut drawn, &mut one);
                prop_assert_eq!(
                    &portable[k * n..(k + 1) * n],
                    &one[..],
                    "{} lanes, read {}",
                    W,
                    k
                );
                prop_assert_eq!(
                    walked[k].get_word_pos(),
                    drawn.get_word_pos(),
                    "{} lanes, stream {}",
                    W,
                    k
                );
            }
            #[cfg(target_arch = "x86_64")]
            {
                type Build =
                    unsafe fn(&[&ProgrammedSa], &mut [ChaCha8Rng], &mut [i8], &mut ReadScratch);
                let positions = |streams: &[ChaCha8Rng]| -> Vec<u128> {
                    streams.iter().map(ChaCha8Rng::get_word_pos).collect()
                };
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
                    let mut built_streams = streams.to_vec();
                    // SAFETY: the CPU supports the build's features, as just
                    // checked.
                    unsafe { build(programs, &mut built_streams, &mut built, &mut scratch) };
                    prop_assert_eq!(&built, &portable, "{} build, {} lanes", name, W);
                    prop_assert_eq!(
                        positions(&built_streams),
                        positions(&walked),
                        "{} build, {} lanes",
                        name,
                        W
                    );
                }
            }
            Ok(())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Every build of the lane kernel at every width, full or with
            /// one spare lane, the shapes `sample_block` runs (a lone read
            /// is a 2-lane walk with a spare lane). A host runs only its
            /// widest build otherwise: on an AVX-512 host this is the only
            /// check of the portable and AVX2 builds.
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

        /// One served-scale input for every build at every width: a
        /// 120-spin frustrated ring with chords, the default sweeps, two
        /// gauges, and reads that end in different local minima. A build
        /// that goes wrong only past the proptest's eight spins, or only on
        /// a long walk, shows here.
        #[test]
        fn every_lane_kernel_build_agrees_at_served_scale() {
            let n = 120;
            let mut rng = ChaCha8Rng::seed_from_u64(0x5A_0120);
            let h = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let couplings = (0..n)
                .flat_map(|i| [(i, (i + 1) % n), (i, (i + 7) % n), (i, (i + 31) % n)])
                .map(|(a, b)| {
                    let w = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
                    (VarId::new(a), VarId::new(b), w)
                })
                .collect();
            let ising = Ising::new(h, couplings, 0.0);
            let sampler = SimulatedAnnealingSampler::default();
            let programmed: Vec<ProgrammedSa> = (0..2)
                .map(|_| {
                    let gauge = Gauge::random(n, &mut rng);
                    sampler.program(gauge.apply(&ising), &SamplerHints::default(), &mut rng)
                })
                .collect();
            let programs: Vec<&ProgrammedSa> = (0..LANES).map(|k| &programmed[k % 2]).collect();
            let streams: Vec<ChaCha8Rng> = (0..LANES)
                .map(|k| ChaCha8Rng::seed_from_u64(0x5A_0120 + k as u64))
                .collect();

            let mut reads = vec![0i8; LANES * n];
            ProgrammedSa::lane_walk::<8>(
                &programs,
                &mut streams.clone(),
                &mut reads,
                &mut ReadScratch::default(),
            );
            let mut minima: Vec<u64> = reads
                .chunks(n)
                .zip(&programs)
                .map(|(spins, prog)| prog.ising.energy(spins).to_bits())
                .collect();
            minima.sort_unstable();
            minima.dedup();
            assert!(minima.len() >= 4, "reads end in {} minima", minima.len());

            let agree = |result: Result<(), TestCaseError>| {
                if let Err(e) = result {
                    panic!("{e:?}");
                }
            };
            agree(every_build_agrees::<2>(&programs[..1], &streams[..1], n));
            agree(every_build_agrees::<2>(&programs[..2], &streams[..2], n));
            agree(every_build_agrees::<4>(&programs[..4], &streams[..4], n));
            agree(every_build_agrees::<8>(&programs, &streams, n));
        }

        /// Every build's lane keystream is the words `ChaCha8Rng::next_u32`
        /// returns: from every offset in a block (word positions 0–17), and
        /// across a carry of the block counter's low word past 2³² (streams
        /// moved there with `set_word_pos`). Every lane draws more than
        /// three batches and reads what the reference kernel reads; after
        /// the walk its ring holds the last two batches it generated.
        #[test]
        fn lane_keystream_matches_chacha8_words() {
            let n = 64;
            let mut rng = ChaCha8Rng::seed_from_u64(0xC4A_C4A8);
            let h = (0..n).map(|_| rng.gen_range(-0.5..0.5)).collect();
            let couplings = (0..n)
                .flat_map(|i| [(i, (i + 1) % n), (i, (i + 5) % n)])
                .map(|(a, b)| (VarId::new(a), VarId::new(b), rng.gen_range(-1.0..1.0)))
                .collect();
            let ising = Ising::new(h, couplings, 0.0);
            let programmed = SimulatedAnnealingSampler::default().program(
                ising,
                &SamplerHints::default(),
                &mut rng,
            );
            let programs = [&programmed; LANES];
            // Blocks past which the walk's first, second and third batches
            // carry into the counter's high word.
            let carry =
                |block: u128, offset: u128| ((1u128 << 32) - block) * 16 + offset - n as u128;
            let positions: Vec<u128> = (0..18)
                .chain([
                    carry(8, 3),
                    carry(16, 0),
                    carry(20, 9),
                    carry(31, 15),
                    carry(40, 1),
                ])
                .chain([(1u128 << 36) + 7])
                .collect();
            assert_eq!(positions.len(), 3 * LANES);

            type Build =
                unsafe fn(&[&ProgrammedSa], &mut [ChaCha8Rng], &mut [i8], &mut ReadScratch);
            let portable: Build = ProgrammedSa::lane_walk::<LANES>;
            let mut builds = vec![("portable", portable)];
            #[cfg(target_arch = "x86_64")]
            {
                if has_avx2() {
                    builds.push(("AVX2", ProgrammedSa::anneal_lanes_avx2::<LANES>));
                }
                if has_avx512() {
                    builds.push(("AVX-512", ProgrammedSa::anneal_lanes_avx512::<LANES>));
                }
            }
            for walk in positions.chunks(LANES) {
                let streams: Vec<ChaCha8Rng> = walk
                    .iter()
                    .enumerate()
                    .map(|(k, &pos)| {
                        let mut stream = ChaCha8Rng::seed_from_u64(77 + k as u64);
                        stream.set_word_pos(pos);
                        stream
                    })
                    .collect();
                // Each lane's read and stream after it, by the reference.
                let referenced: Vec<(Vec<i8>, ChaCha8Rng)> = streams
                    .iter()
                    .map(|stream| {
                        let (mut one, mut drawn) = (vec![0i8; n], stream.clone());
                        programmed.sample_into_reference(&mut drawn, &mut one);
                        (one, drawn)
                    })
                    .collect();
                for &(name, build) in &builds {
                    let mut scratch = ReadScratch::default();
                    let mut reads = vec![0i8; LANES * n];
                    // SAFETY: the CPU supports the build's features, as
                    // checked when it was listed.
                    unsafe { build(&programs, &mut streams.clone(), &mut reads, &mut scratch) };
                    let rings = scratch.lane_words.as_chunks::<RING_WORDS>().0;
                    for (l, (stream, &pos)) in streams.iter().zip(walk).enumerate() {
                        let (one, drawn) = &referenced[l];
                        assert_eq!(&reads[l * n..(l + 1) * n], &one[..], "{name}, word {pos}");
                        // Ring positions count from the first word of the
                        // block the lane's walk starts in.
                        let first_block = (pos + n as u128) / 16;
                        let end = (drawn.get_word_pos() - first_block * 16) as usize;
                        assert!(end > 3 * BATCH_WORDS, "{name}, word {pos}: {end} words");
                        let words = |from: usize| {
                            let mut reference = stream.clone();
                            reference.set_word_pos(first_block * 16 + from as u128);
                            (from..from + RING_WORDS).map(move |q| (q, reference.next_u32()))
                        };
                        // The last refill left between `end` and `end` +
                        // DRAW_CHUNK + BATCH_WORDS words generated.
                        let holds_up_to = |filled: usize| {
                            words(filled - RING_WORDS)
                                .all(|(q, word)| rings[l][q % RING_WORDS] == word)
                        };
                        let last = end.next_multiple_of(BATCH_WORDS);
                        assert!(
                            holds_up_to(last) || holds_up_to(last + BATCH_WORDS),
                            "{name}, word {pos}: the ring is not the keystream"
                        );
                    }
                }
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
        let programs = [&programmed; LANES];
        let mut scratch = ReadScratch::default();
        let mut out = vec![0i8; LANES * n];
        // `(draws, exact-rule decisions)` of the walks of one width over
        // all eight streams.
        let mut walks = |width: usize| {
            let before = counts();
            for (programs, streams) in programs.chunks(width).zip(streams.chunks(width)) {
                let (streams, out) = (&mut streams.to_vec(), &mut out[..width * n]);
                match width {
                    2 => ProgrammedSa::anneal_lanes::<2>(programs, streams, out, &mut scratch),
                    4 => ProgrammedSa::anneal_lanes::<4>(programs, streams, out, &mut scratch),
                    _ => ProgrammedSa::anneal_lanes::<8>(programs, streams, out, &mut scratch),
                }
            }
            (counts().0 - before.0, counts().1 - before.1)
        };
        let (draws, exact) = walks(LANES);
        assert!(draws > 10_000, "{draws} draws");
        assert!(
            exact * 100 < draws,
            "{exact} of {draws} draws ran the exact rule"
        );
        // Each lane draws and decides on its own: walks of every width
        // count the same on the same streams.
        for width in [2, 4] {
            assert_eq!(walks(width), (draws, exact), "{width} lanes");
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
