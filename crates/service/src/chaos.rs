//! Deterministic chaos injection at the service boundary.
//!
//! PR 2 gave the *device* a seeded fault model ([`mqo_annealer::faults`]);
//! this module applies the same discipline one layer up, to the serving
//! stack itself: worker panics, fatal worker deaths, and per-backend
//! failures are all rolled from SplitMix64 streams keyed on the **request
//! content** (the request seed), never on scheduling order. That makes a
//! chaos schedule a pure function of `(chaos seed, request stream)`:
//!
//! * bit-identical at any worker count, device thread count, or client
//!   interleaving — the acceptance tests compare `/metrics` counters across
//!   pool sizes;
//! * completely absent when the configuration is inert — a zero-rate config
//!   takes the exact clean code path (no RNG stream is even consulted).
//!
//! Injection sites:
//!
//! * **Worker panic** ([`ChaosConfig::worker_panics`]) — the engine panics
//!   at `solve` entry. The batching worker catches it (`catch_unwind`),
//!   answers a typed `500 internal_error`, and keeps draining the batch.
//! * **Worker kill** ([`ChaosConfig::worker_dies`]) — a caught panic is
//!   escalated after the request is answered: the worker re-queues the rest
//!   of its batch and dies, exercising the supervisor's respawn path.
//! * **Backend failure** ([`ChaosConfig::backend_fails`]) — one backend
//!   attempt fails before running; the engine records it against that
//!   backend's circuit breaker and falls through to the next candidate.
//! * **Answer corruption** ([`ChaosConfig::sample_corruption`]) — a
//!   successful answer is mangled at the API boundary; the integrity gate
//!   must flag every one.
//! * **Cell kill** ([`CellKillSchedule`]) — the fleet supervisor SIGKILLs
//!   `mqo_serve` cell processes on a seeded schedule.
//!
//! No binary flag arms any of these: the tests build the configurations
//! directly (`chaos_drain.rs`, `fleet_failover.rs`, the engine and queue
//! unit tests), so a served process always runs the inert default.

use crate::api::Backend;
use mqo_annealer::faults::unit_uniform;
use mqo_annealer::parallel::derive_seed;
use serde::{Deserialize, Serialize};

/// Stream tag for worker-panic rolls.
pub const STREAM_CHAOS_PANIC: u64 = 0x4348_5041_4e49_0001;
/// Stream tag for worker-kill escalation rolls.
pub const STREAM_CHAOS_KILL: u64 = 0x4348_4b49_4c4c_0002;
/// Stream tag for per-backend failure rolls.
pub const STREAM_CHAOS_BACKEND: u64 = 0x4348_4241_434b_0003;
/// Stream tag for sample-corruption rolls (mangled backend answers at the
/// API boundary, caught by the integrity gate).
pub const STREAM_CHAOS_CORRUPT: u64 = 0x4348_434f_5252_0005;
/// Stream tag for fleet cell-kill rolls (SIGKILL of a supervised
/// `mqo_serve` cell process mid-drain, DESIGN.md §14).
pub const STREAM_CHAOS_CELL_KILL: u64 = 0x4348_4345_4c4c_0006;

/// One uniform sample in `[0, 1)` for slot `(a, b)` of `stream` under
/// `chaos_seed` — the single primitive every chaos decision reduces to.
#[must_use]
fn chaos_roll(chaos_seed: u64, stream: u64, a: u64, b: u64) -> f64 {
    unit_uniform(derive_seed(chaos_seed, stream, a, b))
}

/// Service-level chaos configuration. The default (all rates zero) injects
/// nothing and leaves every code path identical to a chaos-free build.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(default)]
pub struct ChaosConfig {
    /// Seed of every chaos stream; distinct from the request seeds.
    pub seed: u64,
    /// Per-request probability that the solve panics inside the engine.
    pub worker_panic_rate: f64,
    /// Probability that a *caught* panic escalates and kills the worker
    /// thread after the request was answered (the supervisor respawns it).
    pub worker_kill_rate: f64,
    /// Per-(request, backend) probability that a backend attempt fails
    /// before running, tripping that backend's circuit breaker.
    pub backend_failure_rate: f64,
    /// Per-request probability that a *successful* backend answer is
    /// corrupted at the API boundary (cross-query plan flip, NaN cost, or
    /// +∞ cost) before the integrity gate sees it. Every corruption this
    /// injects is detectable by [`mqo_core::integrity::verify_selection`],
    /// so a drain with this rate on must end with
    /// `chaos_corruptions_injected == integrity_repairs + integrity_rejects`.
    pub sample_corruption_rate: f64,
}

/// Which mangling a fired corruption roll applies to the response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SampleCorruption {
    /// One query's selection entry is replaced by a plan of the *next*
    /// query — structurally infeasible, caught by selection validation.
    CrossQueryPlan,
    /// The reported cost becomes NaN.
    NanCost,
    /// The reported cost becomes +∞.
    InfCost,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig::NONE
    }
}

impl ChaosConfig {
    /// No chaos at all: the service takes the exact clean code path.
    pub const NONE: ChaosConfig = ChaosConfig {
        seed: 0,
        worker_panic_rate: 0.0,
        worker_kill_rate: 0.0,
        backend_failure_rate: 0.0,
        sample_corruption_rate: 0.0,
    };

    /// Whether this configuration can never inject anything.
    #[must_use]
    pub fn is_inert(&self) -> bool {
        self.worker_panic_rate <= 0.0
            && self.worker_kill_rate <= 0.0
            && self.backend_failure_rate <= 0.0
            && self.sample_corruption_rate <= 0.0
    }

    /// Whether the request with base seed `req_seed` panics inside the
    /// engine. Pure in `(self.seed, req_seed)`.
    #[must_use]
    pub fn worker_panics(&self, req_seed: u64) -> bool {
        self.worker_panic_rate > 0.0
            && chaos_roll(self.seed, STREAM_CHAOS_PANIC, req_seed, 0) < self.worker_panic_rate
    }

    /// Whether the caught panic of request `req_seed` escalates into a
    /// worker death. Only consulted after [`ChaosConfig::worker_panics`]
    /// fired, so the kill schedule is a deterministic subset of the panic
    /// schedule.
    #[must_use]
    pub fn worker_dies(&self, req_seed: u64) -> bool {
        self.worker_kill_rate > 0.0
            && chaos_roll(self.seed, STREAM_CHAOS_KILL, req_seed, 0) < self.worker_kill_rate
    }

    /// Whether the attempt of `backend` for request `req_seed` is failed
    /// before it runs.
    #[must_use]
    pub fn backend_fails(&self, req_seed: u64, backend: Backend) -> bool {
        self.backend_failure_rate > 0.0
            && chaos_roll(self.seed, STREAM_CHAOS_BACKEND, req_seed, backend as u64)
                < self.backend_failure_rate
    }

    /// Which corruption (if any) to apply to the successful answer of
    /// request `req_seed`. Pure in `(self.seed, req_seed)`; the mode comes
    /// from an independent slot of the same stream so rate and shape don't
    /// alias.
    #[must_use]
    pub fn sample_corruption(&self, req_seed: u64) -> Option<SampleCorruption> {
        if self.sample_corruption_rate <= 0.0
            || chaos_roll(self.seed, STREAM_CHAOS_CORRUPT, req_seed, 0)
                >= self.sample_corruption_rate
        {
            return None;
        }
        let mode = chaos_roll(self.seed, STREAM_CHAOS_CORRUPT, req_seed, 1);
        Some(if mode < 1.0 / 3.0 {
            SampleCorruption::CrossQueryPlan
        } else if mode < 2.0 / 3.0 {
            SampleCorruption::NanCost
        } else {
            SampleCorruption::InfCost
        })
    }
}

/// A seeded schedule of cell-process SIGKILLs for fleet kill-chaos.
///
/// The schedule is a pure function of `(seed, kills, delay bounds, cell
/// count)`: kill `k` fires `delay_ms(k)` milliseconds after the supervisor
/// starts executing the schedule and targets `target_cell(k)`. Two runs
/// with the same configuration kill the same cells at the same offsets —
/// the fleet drain tests rely on that to compare recovery behaviour across
/// runs. A `kills` of zero is inert: the supervisor never consults the
/// schedule's streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(default)]
pub struct CellKillSchedule {
    /// Seed of the kill streams; independent of every other chaos stream.
    pub seed: u64,
    /// Total SIGKILLs to deliver over the drain.
    pub kills: u32,
    /// Earliest offset of a kill from schedule start, milliseconds.
    pub min_delay_ms: u64,
    /// Latest offset of a kill from schedule start, milliseconds.
    pub max_delay_ms: u64,
}

impl Default for CellKillSchedule {
    fn default() -> Self {
        CellKillSchedule {
            seed: 0,
            kills: 0,
            min_delay_ms: 100,
            max_delay_ms: 2_000,
        }
    }
}

impl CellKillSchedule {
    /// Whether this schedule can never fire.
    #[must_use]
    pub fn is_inert(&self) -> bool {
        self.kills == 0
    }

    /// Validates the delay bounds; [`crate::supervisor::SupervisorConfig::validate`]
    /// surfaces violations before any cell is spawned.
    pub fn validate(&self) -> Result<(), &'static str> {
        if self.min_delay_ms > self.max_delay_ms {
            return Err("cell-kill min delay must not exceed max delay");
        }
        Ok(())
    }

    /// Offset of kill `k` from schedule start, milliseconds. Uniform in
    /// `[min_delay_ms, max_delay_ms]`, pure in `(self.seed, k)`.
    #[must_use]
    pub fn delay_ms(&self, k: u32) -> u64 {
        let span = self.max_delay_ms - self.min_delay_ms;
        let roll = chaos_roll(self.seed, STREAM_CHAOS_CELL_KILL, u64::from(k), 0);
        self.min_delay_ms + (roll * (span + 1) as f64) as u64
    }

    /// Which of `cells` processes kill `k` targets. Pure in
    /// `(self.seed, k)`; an independent slot of the kill stream so delay
    /// and target don't alias.
    #[must_use]
    pub fn target_cell(&self, k: u32, cells: usize) -> usize {
        let roll = chaos_roll(self.seed, STREAM_CHAOS_CELL_KILL, u64::from(k), 1);
        ((roll * cells as f64) as usize).min(cells.saturating_sub(1))
    }
}

/// Panic payload message used by injected worker panics, so tests and
/// operators can tell chaos from genuine bugs in `500` details.
pub const CHAOS_PANIC_MESSAGE: &str = "chaos: injected worker panic";

/// Extracts a human-readable message from a caught panic payload
/// (`&str` and `String` payloads cover `panic!`; anything else gets a
/// placeholder rather than a lossy `Debug` dump).
#[must_use]
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_configs_are_detected_and_never_fire() {
        assert!(ChaosConfig::NONE.is_inert());
        assert!(ChaosConfig::default().is_inert());
        let cfg = ChaosConfig {
            seed: 99,
            ..ChaosConfig::NONE
        };
        assert!(cfg.is_inert());
        for req_seed in 0..1_000 {
            assert!(!cfg.worker_panics(req_seed));
            assert!(!cfg.worker_dies(req_seed));
            assert!(!cfg.backend_fails(req_seed, Backend::Annealer));
            assert!(cfg.sample_corruption(req_seed).is_none());
        }
        assert!(!ChaosConfig {
            worker_panic_rate: 0.1,
            ..ChaosConfig::NONE
        }
        .is_inert());
    }

    #[test]
    fn corruption_schedule_is_deterministic_and_covers_every_mode() {
        let cfg = ChaosConfig {
            seed: 13,
            sample_corruption_rate: 0.5,
            ..ChaosConfig::NONE
        };
        let schedule: Vec<_> = (0..400).map(|s| cfg.sample_corruption(s)).collect();
        let again: Vec<_> = (0..400).map(|s| cfg.sample_corruption(s)).collect();
        assert_eq!(schedule, again, "same seed, same corruption schedule");
        let fired: Vec<_> = schedule.iter().flatten().collect();
        assert!(
            (100..=300).contains(&fired.len()),
            "50% of 400 should land near 200, got {}",
            fired.len()
        );
        for mode in [
            SampleCorruption::CrossQueryPlan,
            SampleCorruption::NanCost,
            SampleCorruption::InfCost,
        ] {
            assert!(
                fired.iter().any(|&&m| m == mode),
                "mode {mode:?} never drawn in 400 rolls"
            );
        }
    }

    #[test]
    fn rolls_are_deterministic_and_content_keyed() {
        let cfg = ChaosConfig {
            seed: 7,
            worker_panic_rate: 0.3,
            worker_kill_rate: 0.5,
            backend_failure_rate: 0.3,
            ..ChaosConfig::NONE
        };
        let schedule: Vec<bool> = (0..200).map(|s| cfg.worker_panics(s)).collect();
        let again: Vec<bool> = (0..200).map(|s| cfg.worker_panics(s)).collect();
        assert_eq!(schedule, again, "same seed, same schedule");
        let fired = schedule.iter().filter(|&&p| p).count();
        assert!(
            (20..=100).contains(&fired),
            "30% of 200 requests should land near 60, got {fired}"
        );
        let other = ChaosConfig { seed: 8, ..cfg };
        let other_schedule: Vec<bool> = (0..200).map(|s| other.worker_panics(s)).collect();
        assert_ne!(schedule, other_schedule, "different chaos seeds differ");
    }

    #[test]
    fn cell_kill_schedule_is_deterministic_and_bounded() {
        let schedule = CellKillSchedule {
            seed: 42,
            kills: 8,
            min_delay_ms: 100,
            max_delay_ms: 1_500,
        };
        assert!(!schedule.is_inert());
        assert!(schedule.validate().is_ok());
        let plan: Vec<(u64, usize)> = (0..schedule.kills)
            .map(|k| (schedule.delay_ms(k), schedule.target_cell(k, 3)))
            .collect();
        let again: Vec<(u64, usize)> = (0..schedule.kills)
            .map(|k| (schedule.delay_ms(k), schedule.target_cell(k, 3)))
            .collect();
        assert_eq!(plan, again, "same seed, same kill plan");
        for &(delay, cell) in &plan {
            assert!(
                (100..=1_500).contains(&delay),
                "delay {delay} out of bounds"
            );
            assert!(cell < 3, "target {cell} out of range");
        }
        let other = CellKillSchedule {
            seed: 43,
            ..schedule
        };
        let other_plan: Vec<(u64, usize)> = (0..schedule.kills)
            .map(|k| (other.delay_ms(k), other.target_cell(k, 3)))
            .collect();
        assert_ne!(plan, other_plan, "different seeds, different plans");
        // Over enough kills every cell is hit at least once.
        let wide: Vec<usize> = (0..64).map(|k| schedule.target_cell(k, 3)).collect();
        for cell in 0..3 {
            assert!(
                wide.contains(&cell),
                "cell {cell} never targeted in 64 kills"
            );
        }
    }

    #[test]
    fn cell_kill_schedule_defaults_are_inert_and_bad_bounds_rejected() {
        assert!(CellKillSchedule::default().is_inert());
        assert!(CellKillSchedule::default().validate().is_ok());
        let bad = CellKillSchedule {
            min_delay_ms: 500,
            max_delay_ms: 100,
            ..CellKillSchedule::default()
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn streams_are_independent_per_backend_and_site() {
        let cfg = ChaosConfig {
            seed: 3,
            worker_panic_rate: 0.5,
            worker_kill_rate: 0.5,
            backend_failure_rate: 0.5,
            ..ChaosConfig::NONE
        };
        let panics: Vec<bool> = (0..400).map(|s| cfg.worker_panics(s)).collect();
        let kills: Vec<bool> = (0..400).map(|s| cfg.worker_dies(s)).collect();
        assert_ne!(panics, kills, "kill rolls use their own stream");
        let annealer: Vec<bool> = (0..400)
            .map(|s| cfg.backend_fails(s, Backend::Annealer))
            .collect();
        let milp: Vec<bool> = (0..400)
            .map(|s| cfg.backend_fails(s, Backend::Milp))
            .collect();
        assert_ne!(annealer, milp, "backend rolls are per-backend");
    }
}
