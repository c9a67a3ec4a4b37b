//! Per-cell transport health for the router (`crate::shard`).
//!
//! A cell that keeps failing at the transport level (refused or reset
//! connections, timeouts: a killed or unreachable `mqo_serve` process)
//! stops receiving forwards for a cooling period instead of burning every
//! request's deadline on it; the shard walk sends its keys to the next
//! healthy cell. Typed HTTP answers from a cell never count as failures.
//! Classic three-state machine:
//!
//! ```text
//!        failure (consecutive >= threshold)
//!  Closed ────────────────────────────────▶ Open
//!    ▲                                       │ open_for elapsed
//!    │ probe succeeds                        ▼
//!    └───────────────────────────────── HalfOpen
//!                 probe fails: back to Open ─┘
//! ```
//!
//! `HalfOpen` admits a single probe forward at a time; its outcome decides
//! the next state. All transitions are counted (surfaced per cell in the
//! router's `/metrics`), the remaining cooling time of an open breaker
//! sets the router's `Retry-After`, and every lock acquisition recovers
//! from poisoning: a panicking thread must never wedge the breaker for
//! the rest of the router.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Breaker policy knobs (shared by every cell's breaker).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(default)]
pub struct BreakerConfig {
    /// Consecutive failures that open the breaker (`0` opens on the
    /// first failure, like `1`).
    pub failure_threshold: u32,
    /// How long an open breaker rejects before allowing a half-open probe,
    /// milliseconds.
    pub open_ms: u64,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 5,
            open_ms: 1_000,
        }
    }
}

/// Observable breaker state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum BreakerState {
    /// Healthy: all requests admitted.
    Closed,
    /// Tripped: requests are rejected until the cooling period elapses.
    Open,
    /// Cooling elapsed: one probe in flight decides the next state.
    HalfOpen,
}

#[derive(Debug)]
struct BreakerInner {
    state: BreakerState,
    consecutive_failures: u32,
    opened_at: Option<Instant>,
    probe_in_flight: bool,
}

/// Serialisable snapshot of one breaker, reported under `/metrics`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BreakerSnapshot {
    /// Current state.
    pub state: BreakerState,
    /// Consecutive failures recorded since the last success.
    pub consecutive_failures: u32,
    /// Times the breaker transitioned Closed/HalfOpen → Open.
    pub opened_total: u64,
    /// Times the breaker transitioned Open → HalfOpen.
    pub half_opened_total: u64,
    /// Times the breaker transitioned HalfOpen → Closed.
    pub closed_total: u64,
    /// Requests rejected (not admitted) by this breaker.
    pub rejected_total: u64,
}

/// One cell's circuit breaker. Thread-safe; poison-recovering.
#[derive(Debug)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    inner: Mutex<BreakerInner>,
    opened_total: AtomicU64,
    half_opened_total: AtomicU64,
    closed_total: AtomicU64,
    rejected_total: AtomicU64,
}

impl CircuitBreaker {
    /// A closed breaker under `config`.
    #[must_use]
    pub fn new(config: BreakerConfig) -> Self {
        CircuitBreaker {
            config,
            inner: Mutex::new(BreakerInner {
                state: BreakerState::Closed,
                consecutive_failures: 0,
                opened_at: None,
                probe_in_flight: false,
            }),
            opened_total: AtomicU64::new(0),
            half_opened_total: AtomicU64::new(0),
            closed_total: AtomicU64::new(0),
            rejected_total: AtomicU64::new(0),
        }
    }

    /// The breaker's state is a few plain fields with no cross-field
    /// invariant a mid-update panic could break, so a poisoned guard is
    /// safe to recover as-is.
    fn lock(&self) -> MutexGuard<'_, BreakerInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Asks to forward one request to this cell. `true` admits it (and,
    /// from `Open`, may start a half-open probe); `false` means the caller
    /// should fall through to the next cell.
    pub fn admit(&self) -> bool {
        let mut inner = self.lock();
        let admitted = match inner.state {
            BreakerState::Closed => true,
            BreakerState::Open => {
                let cooled = inner
                    .opened_at
                    .is_none_or(|t| t.elapsed() >= Duration::from_millis(self.config.open_ms));
                if cooled {
                    inner.state = BreakerState::HalfOpen;
                    inner.probe_in_flight = true;
                    self.half_opened_total.fetch_add(1, Ordering::Relaxed);
                    true
                } else {
                    false
                }
            }
            // One probe at a time: concurrent requests bounce to the next
            // cell until the probe's verdict is in.
            BreakerState::HalfOpen => {
                if inner.probe_in_flight {
                    false
                } else {
                    inner.probe_in_flight = true;
                    true
                }
            }
        };
        if !admitted {
            self.rejected_total.fetch_add(1, Ordering::Relaxed);
        }
        admitted
    }

    /// Records a successful attempt: closes the breaker.
    pub fn record_success(&self) {
        let mut inner = self.lock();
        if inner.state != BreakerState::Closed {
            self.closed_total.fetch_add(1, Ordering::Relaxed);
        }
        inner.state = BreakerState::Closed;
        inner.consecutive_failures = 0;
        inner.opened_at = None;
        inner.probe_in_flight = false;
    }

    /// Records a failed attempt: a failed probe re-opens immediately, and
    /// `failure_threshold` consecutive failures open a closed breaker.
    pub fn record_failure(&self) {
        let mut inner = self.lock();
        inner.consecutive_failures = inner.consecutive_failures.saturating_add(1);
        let open_now = match inner.state {
            BreakerState::HalfOpen => true,
            BreakerState::Closed => inner.consecutive_failures >= self.config.failure_threshold,
            BreakerState::Open => false,
        };
        if open_now {
            inner.state = BreakerState::Open;
            inner.opened_at = Some(Instant::now());
            inner.probe_in_flight = false;
            self.opened_total.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Current state (for tests and the snapshot).
    #[must_use]
    pub fn state(&self) -> BreakerState {
        self.lock().state
    }

    /// How much of the cooling period an `Open` breaker still has to sit
    /// out. `None` when the breaker is not open;
    /// `Some(Duration::ZERO)` once the cooling has elapsed but no probe has
    /// been admitted yet. Callers use this to compute an honest
    /// `Retry-After` instead of a constant.
    #[must_use]
    pub fn remaining_open(&self) -> Option<Duration> {
        let inner = self.lock();
        if inner.state != BreakerState::Open {
            return None;
        }
        let open_for = Duration::from_millis(self.config.open_ms);
        Some(match inner.opened_at {
            Some(at) => open_for.saturating_sub(at.elapsed()),
            None => Duration::ZERO,
        })
    }

    /// Serialisable snapshot of state and transition counters.
    #[must_use]
    pub fn snapshot(&self) -> BreakerSnapshot {
        let inner = self.lock();
        BreakerSnapshot {
            state: inner.state,
            consecutive_failures: inner.consecutive_failures,
            opened_total: self.opened_total.load(Ordering::Relaxed),
            half_opened_total: self.half_opened_total.load(Ordering::Relaxed),
            closed_total: self.closed_total.load(Ordering::Relaxed),
            rejected_total: self.rejected_total.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn breaker(threshold: u32, open_ms: u64) -> CircuitBreaker {
        CircuitBreaker::new(BreakerConfig {
            failure_threshold: threshold,
            open_ms,
        })
    }

    #[test]
    fn consecutive_failures_open_the_breaker() {
        let b = breaker(3, 60_000);
        for _ in 0..2 {
            assert!(b.admit());
            b.record_failure();
            assert_eq!(b.state(), BreakerState::Closed);
        }
        assert!(b.admit());
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.admit(), "open breaker rejects");
        let s = b.snapshot();
        assert_eq!(s.opened_total, 1);
        assert_eq!(s.rejected_total, 1);
        assert_eq!(s.consecutive_failures, 3);
    }

    #[test]
    fn success_resets_the_failure_run() {
        let b = breaker(3, 60_000);
        b.record_failure();
        b.record_failure();
        b.record_success();
        b.record_failure();
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Closed, "run was interrupted");
    }

    #[test]
    fn open_breaker_half_opens_after_cooling_and_closes_on_probe_success() {
        let b = breaker(1, 0); // cooling period 0: next admit is the probe
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Open);
        assert!(b.admit(), "cooled breaker admits a probe");
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(!b.admit(), "only one probe at a time");
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);
        let s = b.snapshot();
        assert_eq!(
            (s.opened_total, s.half_opened_total, s.closed_total),
            (1, 1, 1)
        );
    }

    #[test]
    fn failed_probe_reopens_immediately() {
        let b = breaker(1, 0);
        b.record_failure();
        assert!(b.admit());
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.snapshot().opened_total, 2);
    }

    #[test]
    fn remaining_open_tracks_the_cooling_interval() {
        let b = breaker(1, 30_000);
        assert_eq!(b.remaining_open(), None, "closed breaker has no interval");
        b.record_failure();
        let remaining = b.remaining_open().expect("open breaker reports interval");
        assert!(
            remaining <= Duration::from_millis(30_000),
            "never exceeds the configured cooling period"
        );
        assert!(
            remaining >= Duration::from_millis(29_000),
            "a just-opened breaker has nearly the full period left, got {remaining:?}"
        );
        b.record_success();
        assert_eq!(b.remaining_open(), None, "closing clears the interval");

        let cooled = breaker(1, 0);
        cooled.record_failure();
        assert_eq!(
            cooled.remaining_open(),
            Some(Duration::ZERO),
            "elapsed cooling reports zero, not None: the breaker is still open"
        );
    }

    #[test]
    fn poisoned_lock_is_recovered_not_propagated() {
        let b = std::sync::Arc::new(breaker(2, 60_000));
        let b2 = std::sync::Arc::clone(&b);
        // Poison the inner mutex by panicking while holding it.
        let _ = std::thread::spawn(move || {
            let _guard = b2.inner.lock().unwrap();
            panic!("poison the breaker");
        })
        .join();
        assert!(b.inner.is_poisoned());
        assert!(b.admit(), "poisoned breaker still admits");
        b.record_failure();
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Open, "state machine still works");
    }
}
