//! The sampler abstraction: anything that can draw low-energy spin
//! configurations from an Ising problem.
//!
//! The real D-Wave 2X performs one *annealing run* per read; a sampler here
//! plays the role of one such run. The device model in [`crate::device`]
//! wraps a sampler with gauge transformations, control-error noise, and the
//! per-read timing model.

use mqo_core::ising::Ising;
use rand::{Rng, RngCore};
use rand_chacha::ChaCha8Rng;

/// Below this Metropolis exponent the acceptance test is decided without
/// drawing. The acceptance draw is a 32-bit uniform compared against
/// `⌊exp(arg)·2³²⌋`, and that floor is `0` for every `arg < −32·ln 2 ≈
/// −22.1807`: an uphill move this unlikely *cannot* be accepted at the
/// draw's resolution, so it is rejected outright and the RNG stream is not
/// advanced. (The constant sits a margin below `−32·ln 2` so the rounding
/// of `exp` itself can never produce a non-zero floor past the cutoff.)
/// Frozen-phase sweeps therefore cost no random draws and no `exp` calls —
/// and a sweep that consumes no randomness and accepts nothing is invariant
/// under any further cooling, which is what makes the early-freeze exit in
/// the kernels exact rather than approximate.
pub const METROPOLIS_EXP_CUTOFF: f64 = -22.181;

/// The shared Metropolis acceptance rule of every annealing kernel.
///
/// Downhill and neutral moves (`delta <= 0`) are accepted without a draw;
/// hopeless uphill moves (`−β·delta` below [`METROPOLIS_EXP_CUTOFF`]) are
/// rejected without a draw; everything else draws one 32-bit uniform `u`
/// and accepts iff `u < ⌊E·2³²⌋` with `E = metropolis_exp(−β·delta)` (the
/// saturating `as u32` cast *is* that floor for this argument range). A
/// 32-bit acceptance draw quantizes probabilities to multiples of `2⁻³²` —
/// far below anything an annealing schedule can resolve — and costs half
/// the random bytes of a 53-bit uniform.
///
/// The drawn case is decided by [`metropolis_decide`]: a table pre-test
/// settles all but about one draw in a thousand without evaluating
/// [`metropolis_exp`], and the rest run the exact rule, so the decision is
/// always the exact rule's. The SQA and behavioural kernels decide here;
/// the SA lane walk runs the same pre-test with the exact rule in its
/// [`metropolis_threshold`] form. Their draw sequences and outputs are
/// bit-identical to the plain exact rule of [`crate::reference`].
#[inline]
pub fn metropolis_accept<R: Rng + ?Sized>(rng: &mut R, beta: f64, delta: f64) -> bool {
    if delta <= 0.0 {
        return true;
    }
    let arg = -beta * delta;
    if arg < METROPOLIS_EXP_CUTOFF {
        return false;
    }
    metropolis_decide(arg, rng.next_u32())
}

/// Whether the drawn word `u` accepts a move with exponent `arg` in
/// `[METROPOLIS_EXP_CUTOFF, 0]`: always exactly `u < ⌊metropolis_exp(arg)·2³²⌋`
/// (saturating).
///
/// The pre-test: the rule accepts iff `u + 1 ≤ E·2³²` (and
/// `u < 2³² − 1`), that is iff `arg` is at least about `ln((u + 1)/2³²)`.
/// A table holds, for each bucket of draws sharing their top
/// [`METROPOLIS_BUCKET_BITS`] bits, bounds `lo` and `hi` on that
/// logarithm, each widened by [`METROPOLIS_PRETEST_SLACK`]. `arg ≥ hi`
/// accepts and `arg ≤ lo` rejects whatever the roundings of `ln` and
/// [`metropolis_exp`], so table values computed on any host give the same
/// decisions. Only `arg` strictly between `lo` and `hi` runs the exact
/// rule: for a given `arg` that is one bucket in 1 024 (two within the
/// slack of an edge), about 0.1 % of uniform draws.
#[inline]
pub fn metropolis_decide(arg: f64, u: u32) -> bool {
    #[cfg(test)]
    pretest_stats::note_draws(1);
    let (sure, unsure) = MetropolisBuckets::get().pretest(arg, u);
    if unsure {
        return metropolis_decide_exact(arg, u);
    }
    sure
}

/// The exact rule, for the draws the pre-test leaves open.
#[cold]
#[inline(never)]
fn metropolis_decide_exact(arg: f64, u: u32) -> bool {
    #[cfg(test)]
    pretest_stats::note_fallbacks(1);
    u < (metropolis_exp(arg) * 4_294_967_296.0) as u32
}

/// Top bits of a draw that pick its bucket in the pre-test of
/// [`metropolis_decide`].
pub const METROPOLIS_BUCKET_BITS: u32 = 10;

/// How far each bound of the pre-test of [`metropolis_decide`] is widened
/// past the `ln` it bounds. It must exceed the error of `f64::ln` on any host (≤ 1 ulp of
/// values below 23, about `4·10⁻¹⁵`) plus the relative error of
/// [`metropolis_exp`] (≤ 2 ulp, about `5·10⁻¹⁶`), and it does so by more
/// than two orders of magnitude. A wider slack only sends more draws to
/// the exact rule.
pub const METROPOLIS_PRETEST_SLACK: f64 = 1e-12;

/// Bounds on `ln((u + 1)/2³²)` per bucket of draws: the pre-test of
/// [`metropolis_decide`]. The last bucket's `hi` is above 0, so it never
/// pre-accepts, and `u32::MAX` is never accepted, as the saturating floor
/// requires.
#[derive(Debug)]
pub(crate) struct MetropolisBuckets {
    bounds: [[f64; 2]; 1 << METROPOLIS_BUCKET_BITS],
}

impl MetropolisBuckets {
    /// The process-wide table, computed on first use.
    #[inline]
    pub(crate) fn get() -> &'static MetropolisBuckets {
        static TABLE: std::sync::LazyLock<MetropolisBuckets> = std::sync::LazyLock::new(|| {
            let width = 1u64 << (32 - METROPOLIS_BUCKET_BITS);
            let mut bounds = [[0.0; 2]; 1 << METROPOLIS_BUCKET_BITS];
            for (b, bound) in (0u64..).zip(bounds.iter_mut()) {
                // The bucket's smallest and largest `u + 1`, over 2³²
                // (exact in f64), then one rounding in `ln`.
                let first = ((b * width + 1) as f64 / 4_294_967_296.0).ln();
                let last = (((b + 1) * width) as f64 / 4_294_967_296.0).ln();
                *bound = [
                    first - METROPOLIS_PRETEST_SLACK,
                    last + METROPOLIS_PRETEST_SLACK,
                ];
            }
            MetropolisBuckets { bounds }
        });
        &TABLE
    }

    /// `(accept, undecided)` for draw `u` and exponent `arg`: `accept`
    /// when `arg ≥ hi`, `undecided` when `lo < arg < hi`; neither means
    /// reject. Straight-line compares, so lanes evaluate it without
    /// branches.
    #[inline(always)]
    pub(crate) fn pretest(&self, arg: f64, u: u32) -> (bool, bool) {
        let [lo, hi] = self.bounds[(u >> (32 - METROPOLIS_BUCKET_BITS)) as usize];
        let sure = arg >= hi;
        (sure, (arg > lo) & !sure)
    }
}

/// Test-only counters of the acceptance draws kernels take and of the
/// draws the exact rule decides, per thread.
#[cfg(test)]
pub(crate) mod pretest_stats {
    use std::cell::Cell;

    thread_local! {
        static COUNTS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
    }

    /// Adds `n` draws taken by [`super::metropolis_decide`] or an SA lane
    /// walk.
    pub(crate) fn note_draws(n: u64) {
        COUNTS.with(|c| c.set((c.get().0 + n, c.get().1)));
    }

    /// Adds `n` draws decided by the exact rule, in any kernel.
    pub(crate) fn note_fallbacks(n: u64) {
        COUNTS.with(|c| c.set((c.get().0, c.get().1 + n)));
    }

    /// `(draws, fallbacks)` on this thread so far.
    pub(crate) fn counts() -> (u64, u64) {
        COUNTS.with(Cell::get)
    }
}

/// The exact acceptance threshold of [`metropolis_accept`] in the form lane
/// kernels evaluate without branches or float-to-int conversion: a draw `u`
/// is accepted iff `u + 1 ≤ metropolis_threshold(arg)`, computed in `f64`.
///
/// This is the scalar test exactly: `u < min(⌊E·2³²⌋, 2³² − 1)` (the
/// saturating cast) holds iff the integer `u + 1` is at most both `E·2³²`
/// and `2³² − 1`. `arg` must lie in `[METROPOLIS_EXP_CUTOFF, 0]`.
#[inline(always)]
pub fn metropolis_threshold(arg: f64) -> f64 {
    (metropolis_exp(arg) * 4_294_967_296.0).min(4_294_967_295.0)
}

/// `N = 2⁷` steps per octave of the table-driven reduction in
/// [`metropolis_exp`].
const EXP_TABLE_BITS: u32 = 7;
/// `N / ln 2`.
const EXP_INV_LN2_N: f64 = f64::from_bits(0x40671547652b82fe);
/// `ln 2 / N` split so `k · EXP_LN2_HI_N` is exact for every `|k| < 2¹⁶`.
const EXP_LN2_HI_N: f64 = f64::from_bits(0x3f762e42fefa0000);
/// The rounding error of [`EXP_LN2_HI_N`].
const EXP_LN2_LO_N: f64 = f64::from_bits(0x3d0cf79abc9e3b3a);
/// `1.5·2⁵²`: adding it rounds to an integer held in the low mantissa bits.
const EXP_ROUND: f64 = 6_755_399_441_055_744.0;
/// For `j` in `0..N`: the bits of `tail_j`, then the bits of `s_j` minus
/// `j << 45`, where `s_j` is `2^(j/N)` rounded to the nearest `f64` and
/// `2^(j/N) = s_j·(1 + tail_j)`. Generated at 200-bit precision.
#[rustfmt::skip]
static EXP_TABLE: [u64; 2 << EXP_TABLE_BITS] = [
    0x0000000000000000, 0x3ff0000000000000, 0x3c9b3b4f1a88bf6e, 0x3feff63da9fb3335,
    0xbc7160139cd8dc5d, 0x3fefec9a3e778061, 0xbc905e7a108766d1, 0x3fefe315e86e7f85,
    0x3c8cd2523567f613, 0x3fefd9b0d3158574, 0xbc8bce8023f98efa, 0x3fefd06b29ddf6de,
    0x3c60f74e61e6c861, 0x3fefc74518759bc8, 0x3c90a3e45b33d399, 0x3fefbe3ecac6f383,
    0x3c979aa65d837b6d, 0x3fefb5586cf9890f, 0x3c8eb51a92fdeffc, 0x3fefac922b7247f7,
    0x3c3ebe3d702f9cd1, 0x3fefa3ec32d3d1a2, 0xbc6a033489906e0b, 0x3fef9b66affed31b,
    0xbc9556522a2fbd0e, 0x3fef9301d0125b51, 0xbc5080ef8c4eea55, 0x3fef8abdc06c31cc,
    0xbc91c923b9d5f416, 0x3fef829aaea92de0, 0x3c80d3e3e95c55af, 0x3fef7a98c8a58e51,
    0xbc801b15eaa59348, 0x3fef72b83c7d517b, 0xbc8f1ff055de323d, 0x3fef6af9388c8dea,
    0x3c8b898c3f1353bf, 0x3fef635beb6fcb75, 0xbc96d99c7611eb26, 0x3fef5be084045cd4,
    0x3c9aecf73e3a2f60, 0x3fef54873168b9aa, 0xbc8fe782cb86389d, 0x3fef4d5022fcd91d,
    0x3c8a6f4144a6c38d, 0x3fef463b88628cd6, 0x3c807a05b0e4047d, 0x3fef3f49917ddc96,
    0x3c968efde3a8a894, 0x3fef387a6e756238, 0x3c875e18f274487d, 0x3fef31ce4fb2a63f,
    0x3c80472b981fe7f2, 0x3fef2b4565e27cdd, 0xbc96b87b3f71085e, 0x3fef24dfe1f56381,
    0x3c82f7e16d09ab31, 0x3fef1e9df51fdee1, 0xbc3d219b1a6fbffa, 0x3fef187fd0dad990,
    0x3c8b3782720c0ab4, 0x3fef1285a6e4030b, 0x3c6e149289cecb8f, 0x3fef0cafa93e2f56,
    0x3c834d754db0abb6, 0x3fef06fe0a31b715, 0x3c864201e2ac744c, 0x3fef0170fc4cd831,
    0x3c8fdd395dd3f84a, 0x3feefc08b26416ff, 0xbc86a3803b8e5b04, 0x3feef6c55f929ff1,
    0xbc924aedcc4b5068, 0x3feef1a7373aa9cb, 0xbc9907f81b512d8e, 0x3feeecae6d05d866,
    0xbc71d1e83e9436d2, 0x3feee7db34e59ff7, 0xbc991919b3ce1b15, 0x3feee32dc313a8e5,
    0x3c859f48a72a4c6d, 0x3feedea64c123422, 0xbc9312607a28698a, 0x3feeda4504ac801c,
    0xbc58a78f4817895b, 0x3feed60a21f72e2a, 0xbc7c2c9b67499a1b, 0x3feed1f5d950a897,
    0x3c4363ed60c2ac11, 0x3feece086061892d, 0x3c9666093b0664ef, 0x3feeca41ed1d0057,
    0x3c6ecce1daa10379, 0x3feec6a2b5c13cd0, 0x3c93ff8e3f0f1230, 0x3feec32af0d7d3de,
    0x3c7690cebb7aafb0, 0x3feebfdad5362a27, 0x3c931dbdeb54e077, 0x3feebcb299fddd0d,
    0xbc8f94340071a38e, 0x3feeb9b2769d2ca7, 0xbc87deccdc93a349, 0x3feeb6daa2cf6642,
    0xbc78dec6bd0f385f, 0x3feeb42b569d4f82, 0xbc861246ec7b5cf6, 0x3feeb1a4ca5d920f,
    0x3c93350518fdd78e, 0x3feeaf4736b527da, 0x3c7b98b72f8a9b05, 0x3feead12d497c7fd,
    0x3c9063e1e21c5409, 0x3feeab07dd485429, 0x3c34c7855019c6ea, 0x3feea9268a5946b7,
    0x3c9432e62b64c035, 0x3feea76f15ad2148, 0xbc8ce44a6199769f, 0x3feea5e1b976dc09,
    0xbc8c33c53bef4da8, 0x3feea47eb03a5585, 0xbc845378892be9ae, 0x3feea34634ccc320,
    0xbc93cedd78565858, 0x3feea23882552225, 0x3c5710aa807e1964, 0x3feea155d44ca973,
    0xbc93b3efbf5e2228, 0x3feea09e667f3bcd, 0xbc6a12ad8734b982, 0x3feea012750bdabf,
    0xbc6367efb86da9ee, 0x3fee9fb23c651a2f, 0xbc80dc3d54e08851, 0x3fee9f7df9519484,
    0xbc781f647e5a3ecf, 0x3fee9f75e8ec5f74, 0xbc86ee4ac08b7db0, 0x3fee9f9a48a58174,
    0xbc8619321e55e68a, 0x3fee9feb564267c9, 0x3c909ccb5e09d4d3, 0x3feea0694fde5d3f,
    0xbc7b32dcb94da51d, 0x3feea11473eb0187, 0x3c94ecfd5467c06b, 0x3feea1ed0130c132,
    0x3c65ebe1abd66c55, 0x3feea2f336cf4e62, 0xbc88a1c52fb3cf42, 0x3feea427543e1a12,
    0xbc9369b6f13b3734, 0x3feea589994cce13, 0xbc805e843a19ff1e, 0x3feea71a4623c7ad,
    0xbc94d450d872576e, 0x3feea8d99b4492ed, 0x3c90ad675b0e8a00, 0x3feeaac7d98a6699,
    0x3c8db72fc1f0eab4, 0x3feeace5422aa0db, 0xbc65b6609cc5e7ff, 0x3feeaf3216b5448c,
    0x3c7bf68359f35f44, 0x3feeb1ae99157736, 0xbc93091fa71e3d83, 0x3feeb45b0b91ffc6,
    0xbc5da9b88b6c1e29, 0x3feeb737b0cdc5e5, 0xbc6c23f97c90b959, 0x3feeba44cbc8520f,
    0xbc92434322f4f9aa, 0x3feebd829fde4e50, 0xbc85ca6cd7668e4b, 0x3feec0f170ca07ba,
    0x3c71affc2b91ce27, 0x3feec49182a3f090, 0x3c6dd235e10a73bb, 0x3feec86319e32323,
    0xbc87c50422622263, 0x3feecc667b5de565, 0x3c8b1c86e3e231d5, 0x3feed09bec4a2d33,
    0xbc91bbd1d3bcbb15, 0x3feed503b23e255d, 0x3c90cc319cee31d2, 0x3feed99e1330b358,
    0x3c8469846e735ab3, 0x3feede6b5579fdbf, 0xbc82dfcd978e9db4, 0x3feee36bbfd3f37a,
    0x3c8c1a7792cb3387, 0x3feee89f995ad3ad, 0xbc907b8f4ad1d9fa, 0x3feeee07298db666,
    0xbc55c3d956dcaeba, 0x3feef3a2b84f15fb, 0xbc90a40e3da6f640, 0x3feef9728de5593a,
    0xbc68d6f438ad9334, 0x3feeff76f2fb5e47, 0xbc91eee26b588a35, 0x3fef05b030a1064a,
    0x3c74ffd70a5fddcd, 0x3fef0c1e904bc1d2, 0xbc91bdfbfa9298ac, 0x3fef12c25bd71e09,
    0x3c736eae30af0cb3, 0x3fef199bdd85529c, 0x3c8ee3325c9ffd94, 0x3fef20ab5fffd07a,
    0x3c84e08fd10959ac, 0x3fef27f12e57d14b, 0x3c63cdaf384e1a67, 0x3fef2f6d9406e7b5,
    0x3c676b2c6c921968, 0x3fef3720dcef9069, 0xbc808a1883ccb5d2, 0x3fef3f0b555dc3fa,
    0xbc8fad5d3ffffa6f, 0x3fef472d4a07897c, 0xbc900dae3875a949, 0x3fef4f87080d89f2,
    0x3c74a385a63d07a7, 0x3fef5818dcfba487, 0xbc82919e2040220f, 0x3fef60e316c98398,
    0x3c8e5a50d5c192ac, 0x3fef69e603db3285, 0x3c843a59ac016b4b, 0x3fef7321f301b460,
    0xbc82d52107b43e1f, 0x3fef7c97337b9b5f, 0xbc892ab93b470dc9, 0x3fef864614f5a129,
    0x3c74b604603a88d3, 0x3fef902ee78b3ff6, 0x3c83c5ec519d7271, 0x3fef9a51fbc74c83,
    0xbc8ff7128fd391f0, 0x3fefa4afa2a490da, 0xbc8dae98e223747d, 0x3fefaf482d8e67f1,
    0x3c8ec3bc41aa2008, 0x3fefba1bee615a27, 0x3c842b94c3a9eb32, 0x3fefc52b376bba97,
    0x3c8a64a931d185ee, 0x3fefd0765b6e4540, 0xbc8e37bae43be3ed, 0x3fefdbfdad9cbe14,
    0x3c77893b4d91cd9d, 0x3fefe7c1819e90d8, 0x3c5305c14160cc89, 0x3feff3c22b8f71f1,
];

/// `e^x` for `x` in `[METROPOLIS_EXP_CUTOFF, 0]`, the only arguments the
/// Metropolis rule takes: exactly `1.0` at `0`, non-decreasing, and within
/// 1 ulp of `f64::exp` (on a 2²⁴-point grid over the domain, 0.1 % of the
/// points differ from glibc's, each by 1 ulp).
///
/// Straight-line code of IEEE multiplies, adds and one table load — no
/// branch, no FMA, no libm — so the SQA and behavioural kernels and the
/// SA lane walk evaluate it identically on every host and any CPU feature
/// level, and a lane's copy vectorizes. `x = (k·N + j)·ln 2/N + r` with
/// `|r| ≤ ln 2/2N` (Cody–Waite, exact for this range); then `e^x = 2^k ·
/// s_j(1 + tail_j) · e^r`, with `e^r − 1` a degree-5 Taylor polynomial
/// whose truncation error is below `10⁻¹⁸`.
#[inline(always)]
pub fn metropolis_exp(x: f64) -> f64 {
    let rounded = x * EXP_INV_LN2_N + EXP_ROUND;
    let ki = rounded.to_bits();
    let kd = rounded - EXP_ROUND;
    let r = x - kd * EXP_LN2_HI_N - kd * EXP_LN2_LO_N;
    // The low mantissa bits of `rounded` hold `k·N + j` in two's
    // complement: `j` indexes the table, and `ki << 45` adds `k` to the
    // exponent of `s_j` (plus `j << 45`, which the table entry cancels).
    let j = (ki & ((1 << EXP_TABLE_BITS) - 1)) as usize;
    let tail = f64::from_bits(EXP_TABLE[2 * j]);
    let scale = f64::from_bits(EXP_TABLE[2 * j + 1].wrapping_add(ki << (52 - EXP_TABLE_BITS)));
    let r2 = r * r;
    let poly = tail + r + r2 * (0.5 + r * (1.0 / 6.0)) + r2 * r2 * (1.0 / 24.0 + r * (1.0 / 120.0));
    scale + scale * poly
}

/// Reads the device hands a sampler as one block
/// ([`ProgrammedSampler::sample_block`]): the width of the widest SA lane
/// walk, which anneals that many reads in lock-step over one CSR walk. SA
/// splits a shorter block into 4-lane and 2-lane walks, and runs a lone
/// read as a 2-lane walk whose spare lane mirrors it
/// ([`crate::sa::ProgrammedSa`]).
pub const LANES: usize = 8;

/// Reusable per-worker buffers threaded through
/// [`ProgrammedSampler::sample_into`] and
/// [`ProgrammedSampler::sample_block`], so hot read loops allocate nothing
/// per read. A device worker owns one `ReadScratch` for its whole
/// chunk of reads; kernels resize the buffers they need and overwrite them
/// completely, so stale contents never leak between reads.
#[derive(Debug, Clone, Default)]
pub struct ReadScratch {
    /// Per-spin local fields (`num_spins`, or `slices · num_spins` for
    /// replica kernels).
    pub fields: Vec<f64>,
    /// Spin configurations (replica kernels store all slices flattened).
    pub spins: Vec<i8>,
    /// Per-slice energies for replica read-out.
    pub energies: Vec<f64>,
    /// Lane kernels: per-spin local fields, `W` consecutive values (one
    /// per lane) per spin for a `W`-lane walk. Walks of every width reuse
    /// the same buffer.
    pub lane_fields: Vec<f64>,
    /// Lane kernels: per-spin `±1.0` spins, laid out as `lane_fields`.
    pub lane_spins: Vec<f64>,
    /// Lane kernels: per-CSR-entry coupling weights, `W` consecutive
    /// values per entry.
    pub lane_weights: Vec<f64>,
    /// Lane kernels: each lane's ChaCha8 keystream ring, a fixed number of
    /// words per lane, generated ahead of the walk's draws.
    pub lane_words: Vec<u32>,
}

/// Host-side structure hints the device may hand to a sampler.
///
/// The host *programmed* the minor embedding, so host-side machinery (like
/// D-Wave's own chain-aware unembedding and postprocessing tools) knows
/// which spins form chains. Samplers may use this for collective moves;
/// chain strengths alone cannot reveal it, because Choi's per-chain bound
/// makes chains of cheap-to-deselect variables arbitrarily weak.
#[derive(Debug, Clone, Copy, Default)]
pub struct SamplerHints<'a> {
    /// Spin groups (by dense spin index) that represent one logical
    /// variable each. Empty when the problem was not minor-embedded.
    pub chains: &'a [Vec<usize>],
}

/// Draws low-energy spin configurations from an Ising problem.
///
/// The interface mirrors the device's two-phase protocol: [`Sampler::program`]
/// is called once per programming cycle (gauge batch) and may run arbitrary
/// per-problem precomputation; the returned [`ProgrammedSampler`] then serves
/// many independent reads. Both phases must be deterministic given the RNG
/// stream, so that experiments are reproducible from a seed, and programmed
/// samplers must be shareable across threads — the device fans reads out over
/// a worker pool.
pub trait Sampler: Send + Sync {
    /// The programmed form of this sampler. A concrete associated type
    /// (instead of `Box<dyn ProgrammedSampler>`) lets the device store
    /// per-gauge programmings unboxed and dispatch reads statically.
    type Programmed: ProgrammedSampler;

    /// Programs the sampler with one (noise-perturbed, gauged) problem.
    ///
    /// Takes the Ising model by value so the programmed state is
    /// self-contained and can outlive the caller's borrow. `rng` is the
    /// *programming* stream; per-read randomness comes from the streams
    /// handed to [`ProgrammedSampler::sample_into`] and
    /// [`ProgrammedSampler::sample_block`].
    fn program(
        &self,
        ising: Ising,
        hints: &SamplerHints<'_>,
        rng: &mut dyn RngCore,
    ) -> Self::Programmed;

    /// Human-readable sampler name for experiment logs.
    fn name(&self) -> &'static str;

    /// Convenience: programs the problem and performs a single annealing
    /// run, returning the final spin configuration (`±1` per spin). The
    /// read continues `rng` past the programming's draws and leaves it
    /// after its own, so repeated calls on one stream draw fresh reads.
    fn sample(&self, ising: &Ising, rng: &mut ChaCha8Rng) -> Vec<i8> {
        let programmed = self.program(ising.clone(), &SamplerHints::default(), rng);
        let mut out = vec![0i8; ising.num_spins()];
        programmed.sample_into(rng, &mut out, &mut ReadScratch::default());
        out
    }
}

/// A sampler that has been programmed with one problem and now serves
/// independent reads.
///
/// Reads must depend only on the programmed state and the per-read RNG
/// stream — never on interior mutability carried between calls — so that
/// reads can execute concurrently and in any order with identical results.
pub trait ProgrammedSampler: Send + Sync {
    /// Number of spins in the programmed problem.
    fn num_spins(&self) -> usize;

    /// Performs one annealing run, writing the final spin configuration
    /// (`±1` per spin) into `out`, which has length
    /// [`ProgrammedSampler::num_spins`]. Every element of `out` is
    /// overwritten; the previous contents are scratch. `rng` is the
    /// [`ChaCha8Rng`] every device stream uses, left after the read's last
    /// draw, and `scratch` supplies reusable buffers (no per-read
    /// allocation). The read is bit-identical to the kernel's transcription
    /// in [`crate::reference`] on the same stream.
    fn sample_into(&self, rng: &mut ChaCha8Rng, out: &mut [i8], scratch: &mut ReadScratch);

    /// Performs one read per entry of `programs`, all programmings of one
    /// run: read `k` anneals `programs[k]` on stream `rngs[k]` into
    /// `out[k·n..(k + 1)·n]` (`n` = [`ProgrammedSampler::num_spins`], the
    /// same for every entry). Each read must be bit-identical to
    /// [`ProgrammedSampler::sample_into`] on its stream; the streams'
    /// positions afterwards are unspecified. The default runs the reads
    /// one at a time; kernels that can share work across reads (the SA
    /// lane walk) override it.
    fn sample_block(
        programs: &[&Self],
        rngs: &mut [ChaCha8Rng],
        out: &mut [i8],
        scratch: &mut ReadScratch,
    ) where
        Self: Sized,
    {
        let n = programs.first().map_or(0, |p| p.num_spins());
        for (k, (prog, rng)) in programs.iter().zip(rngs.iter_mut()).enumerate() {
            prog.sample_into(rng, &mut out[k * n..(k + 1) * n], scratch);
        }
    }
}

/// A single annealed-and-read-out configuration with bookkeeping.
#[derive(Debug, Clone, PartialEq)]
pub struct Read {
    /// Spin configuration mapped to binary (QUBO) variables.
    pub assignment: Vec<bool>,
    /// True (noise-free) energy of the assignment under the programmed QUBO.
    pub energy: f64,
    /// Simulated device time elapsed when this read completed, in
    /// microseconds (anneal + read-out, accumulated over the run so far).
    pub elapsed_us: f64,
    /// Which gauge transformation batch produced this read.
    pub gauge: usize,
}

/// An ordered collection of reads from one device run.
#[derive(Debug, Clone, Default)]
pub struct SampleSet {
    reads: Vec<Read>,
}

impl SampleSet {
    /// Wraps reads in chronological order.
    pub fn new(reads: Vec<Read>) -> Self {
        debug_assert!(reads.windows(2).all(|w| w[0].elapsed_us <= w[1].elapsed_us));
        SampleSet { reads }
    }

    /// All reads in chronological order.
    pub fn reads(&self) -> &[Read] {
        &self.reads
    }

    /// Number of reads.
    pub fn len(&self) -> usize {
        self.reads.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.reads.is_empty()
    }

    /// The lowest-energy read overall.
    pub fn best(&self) -> Option<&Read> {
        self.reads
            .iter()
            .min_by(|a, b| a.energy.total_cmp(&b.energy))
    }

    /// The lowest-energy read among those completed within `elapsed_us`
    /// simulated device time — the anytime view used in Figures 4 and 5.
    pub fn best_within(&self, elapsed_us: f64) -> Option<&Read> {
        self.reads
            .iter()
            .take_while(|r| r.elapsed_us <= elapsed_us)
            .min_by(|a, b| a.energy.total_cmp(&b.energy))
    }

    /// Iterates `(elapsed_us, best_energy_so_far)` — the quality-vs-time
    /// trajectory of the run.
    pub fn trajectory(&self) -> Vec<(f64, f64)> {
        let mut out = Vec::with_capacity(self.reads.len());
        let mut best = f64::INFINITY;
        for r in &self.reads {
            if r.energy < best {
                best = r.energy;
            }
            out.push((r.elapsed_us, best));
        }
        out
    }

    /// Per-chain break statistics over all reads, against the given chains
    /// (dense physical indices per logical variable, e.g. from
    /// `PhysicalMapping::dense_chains`). A chain is *broken* in a read when
    /// its qubits disagree; broken chains are repaired by majority vote,
    /// with exact ties resolved to `true` by convention.
    pub fn chain_break_stats(&self, chains: &[Vec<usize>]) -> ChainBreakStats {
        let mut breaks_per_chain = vec![0usize; chains.len()];
        let mut total_breaks = 0;
        let mut majority_repairs = 0;
        let mut tie_breaks = 0;
        for r in &self.reads {
            for (c, chain) in chains.iter().enumerate() {
                let ones = chain.iter().filter(|&&i| r.assignment[i]).count();
                if ones != 0 && ones != chain.len() {
                    breaks_per_chain[c] += 1;
                    total_breaks += 1;
                    if 2 * ones == chain.len() {
                        tie_breaks += 1;
                    } else {
                        majority_repairs += 1;
                    }
                }
            }
        }
        ChainBreakStats {
            reads: self.reads.len(),
            breaks_per_chain,
            total_breaks,
            majority_repairs,
            tie_breaks,
        }
    }
}

/// Chain-break statistics of one device run, per chain and aggregated.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ChainBreakStats {
    /// Reads the statistics cover.
    pub reads: usize,
    /// Break count per chain (index = logical variable order of the chains
    /// the statistics were computed against).
    pub breaks_per_chain: Vec<usize>,
    /// Total broken-chain observations across all reads and chains.
    pub total_breaks: usize,
    /// Broken chains where a strict qubit majority determined the value.
    pub majority_repairs: usize,
    /// Broken chains with an exact tie, resolved to `true` by convention.
    pub tie_breaks: usize,
}

impl ChainBreakStats {
    /// Number of chains covered.
    #[must_use]
    pub fn num_chains(&self) -> usize {
        self.breaks_per_chain.len()
    }

    /// Mean break probability per (read, chain) cell.
    #[must_use]
    pub fn break_rate(&self) -> f64 {
        let cells = self.reads * self.breaks_per_chain.len();
        if cells == 0 {
            0.0
        } else {
            self.total_breaks as f64 / cells as f64
        }
    }

    /// Break rate of the most fragile chain.
    #[must_use]
    pub fn max_chain_break_rate(&self) -> f64 {
        if self.reads == 0 {
            return 0.0;
        }
        self.breaks_per_chain
            .iter()
            .map(|&b| b as f64 / self.reads as f64)
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read(e: f64, t: f64) -> Read {
        Read {
            assignment: vec![],
            energy: e,
            elapsed_us: t,
            gauge: 0,
        }
    }

    #[test]
    fn best_and_best_within_respect_time_cutoffs() {
        let s = SampleSet::new(vec![read(5.0, 376.0), read(2.0, 752.0), read(3.0, 1128.0)]);
        assert_eq!(s.best().unwrap().energy, 2.0);
        assert_eq!(s.best_within(400.0).unwrap().energy, 5.0);
        assert_eq!(s.best_within(800.0).unwrap().energy, 2.0);
        assert!(s.best_within(100.0).is_none());
    }

    #[test]
    fn trajectory_is_monotone_non_increasing() {
        let s = SampleSet::new(vec![
            read(5.0, 1.0),
            read(7.0, 2.0),
            read(2.0, 3.0),
            read(4.0, 4.0),
        ]);
        let t = s.trajectory();
        assert_eq!(t, vec![(1.0, 5.0), (2.0, 5.0), (3.0, 2.0), (4.0, 2.0)]);
    }

    #[test]
    fn empty_set_behaves() {
        let s = SampleSet::default();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert!(s.best().is_none());
        assert!(s.trajectory().is_empty());
        let stats = s.chain_break_stats(&[]);
        assert_eq!(stats.break_rate(), 0.0);
        assert_eq!(stats.max_chain_break_rate(), 0.0);
    }

    fn read_bits(bits: &[bool]) -> Read {
        Read {
            assignment: bits.to_vec(),
            energy: 0.0,
            elapsed_us: 376.0,
            gauge: 0,
        }
    }

    #[test]
    fn chain_break_stats_count_breaks_majorities_and_ties() {
        // Chains: [0,1,2] and [3,4]. Read 1: first chain broken 2-vs-1
        // (majority), second intact. Read 2: first intact, second tied.
        let reads = [
            read_bits(&[true, true, false, false, false]),
            read_bits(&[false, false, false, true, false]),
        ];
        let mut r2 = reads[1].clone();
        r2.elapsed_us = 752.0;
        let s = SampleSet::new(vec![reads[0].clone(), r2]);
        let chains = vec![vec![0, 1, 2], vec![3, 4]];
        let stats = s.chain_break_stats(&chains);
        assert_eq!(stats.reads, 2);
        assert_eq!(stats.num_chains(), 2);
        assert_eq!(stats.breaks_per_chain, vec![1, 1]);
        assert_eq!(stats.total_breaks, 2);
        assert_eq!(stats.majority_repairs, 1);
        assert_eq!(stats.tie_breaks, 1);
        assert!((stats.break_rate() - 0.5).abs() < 1e-12);
        assert!((stats.max_chain_break_rate() - 0.5).abs() < 1e-12);
    }

    /// Distance in units in the last place between two positive doubles.
    fn ulps(a: f64, b: f64) -> u64 {
        a.to_bits().abs_diff(b.to_bits())
    }

    #[test]
    fn metropolis_exp_tracks_libm_and_is_monotone_on_its_domain() {
        const STEPS: u32 = 1 << 21;
        let mut worst = 0;
        let mut previous = 0.0;
        for k in 0..=STEPS {
            let x = METROPOLIS_EXP_CUTOFF * f64::from(STEPS - k) / f64::from(STEPS);
            let e = metropolis_exp(x);
            worst = worst.max(ulps(e, x.exp()));
            assert!(e >= previous, "exp decreased at {x}");
            previous = e;
        }
        assert!(worst <= 2, "{worst} ulp from f64::exp");
        assert_eq!(metropolis_exp(0.0), 1.0);
        assert_eq!(metropolis_exp(-0.0), 1.0);
    }

    #[test]
    fn scalar_and_lane_thresholds_agree_at_the_saturation_edge() {
        // A tiny uphill move: exp rounds to 1.0, so ⌊E·2³²⌋ saturates.
        let (beta, delta) = (1.0, 1e-300);
        let arg = -beta * delta;
        assert_eq!(metropolis_exp(arg), 1.0);
        let scalar_accepts = |u: u32| metropolis_decide(arg, u);
        let lane_accepts = |u: u32| f64::from(u) + 1.0 <= metropolis_threshold(arg);
        for u in [0, u32::MAX - 1] {
            assert!(scalar_accepts(u) && lane_accepts(u), "u = {u}");
        }
        assert!(!scalar_accepts(u32::MAX));
        assert!(!lane_accepts(u32::MAX));
        // Away from the edge both forms accept exactly `u < ⌊E·2³²⌋`.
        for arg in [-1e-9, -0.5, -3.0, -20.0, METROPOLIS_EXP_CUTOFF] {
            let floor = (metropolis_exp(arg) * 4_294_967_296.0).floor() as u32;
            for u in [floor.saturating_sub(1), floor, floor.saturating_add(1)] {
                assert_eq!(
                    f64::from(u) + 1.0 <= metropolis_threshold(arg),
                    u < floor,
                    "arg {arg}, u {u}"
                );
                assert_eq!(metropolis_decide(arg, u), u < floor, "arg {arg}, u {u}");
            }
        }
    }
}
