//! Service counters and latency histograms, exported as JSON on
//! `GET /metrics`.
//!
//! Everything is lock-free (`AtomicU64`): workers record on the hot path,
//! the metrics endpoint takes a consistent-enough snapshot without stopping
//! them.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Acquires `mutex`, recovering the guard (and counting the recovery in
/// `recoveries`) if a panicking thread poisoned it. Callers are responsible
/// for restoring any invariant the interrupted critical section might have
/// broken — every client-visible lock in this crate goes through here, so a
/// single panic can never cascade into a total outage via poison
/// propagation.
pub fn lock_recover<'a, T>(mutex: &'a Mutex<T>, recoveries: &AtomicU64) -> MutexGuard<'a, T> {
    match mutex.lock() {
        Ok(guard) => guard,
        Err(poisoned) => {
            recoveries.fetch_add(1, Ordering::Relaxed);
            poisoned.into_inner()
        }
    }
}

/// [`lock_recover`] for the poisoned result of a [`std::sync::Condvar`]
/// wait, which hands the guard back through the same poison envelope.
pub fn wait_recover<'a, T>(
    result: Result<MutexGuard<'a, T>, PoisonError<MutexGuard<'a, T>>>,
    recoveries: &AtomicU64,
) -> MutexGuard<'a, T> {
    match result {
        Ok(guard) => guard,
        Err(poisoned) => {
            recoveries.fetch_add(1, Ordering::Relaxed);
            poisoned.into_inner()
        }
    }
}

/// Number of power-of-two latency buckets: bucket `i` covers
/// `[2^i, 2^(i+1))` µs, the last bucket is open-ended (~2.3 min and up).
const NUM_BUCKETS: usize = 28;

/// Per-shard accept counters tracked in `/metrics`; shards beyond this fold
/// into their `shard_id % 16` slot.
pub const MAX_TRACKED_SHARDS: usize = 16;

/// A log₂-bucketed latency histogram over microseconds.
#[derive(Debug, Default)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; NUM_BUCKETS],
    count: AtomicU64,
    sum_us: AtomicU64,
}

impl LatencyHistogram {
    /// Records one observation in microseconds.
    pub fn record(&self, us: u64) {
        let idx = (64 - us.max(1).leading_zeros() as usize - 1).min(NUM_BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Snapshot with approximate quantiles (upper bucket bounds, so the
    /// estimate never under-reports).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count = self.count.load(Ordering::Relaxed);
        let sum_us = self.sum_us.load(Ordering::Relaxed);
        let quantile = |q: f64| -> u64 {
            if count == 0 {
                return 0;
            }
            let rank = ((count as f64) * q).ceil().max(1.0) as u64;
            let mut seen = 0u64;
            for (i, &c) in buckets.iter().enumerate() {
                seen += c;
                if seen >= rank {
                    return 1u64 << (i + 1); // upper bound of bucket i
                }
            }
            1u64 << NUM_BUCKETS
        };
        HistogramSnapshot {
            count,
            mean_us: if count == 0 {
                0.0
            } else {
                sum_us as f64 / count as f64
            },
            p50_us: quantile(0.50),
            p99_us: quantile(0.99),
            buckets,
        }
    }
}

/// Serialisable view of a [`LatencyHistogram`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Mean latency, microseconds.
    pub mean_us: f64,
    /// Median upper-bound estimate, microseconds.
    pub p50_us: u64,
    /// 99th-percentile upper-bound estimate, microseconds.
    pub p99_us: u64,
    /// Raw bucket counts (`buckets[i]` covers `[2^i, 2^(i+1))` µs).
    pub buckets: Vec<u64>,
}

/// All service counters. One instance is shared by the queue, the workers,
/// the engine, and the HTTP front-end.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Requests that reached `POST /solve` (admitted or not).
    pub requests_total: AtomicU64,
    /// Requests answered with a solution.
    pub solved_total: AtomicU64,
    /// Typed rejections: admission queue at depth.
    pub rejected_queue_full: AtomicU64,
    /// Typed rejections: server draining.
    pub rejected_shutdown: AtomicU64,
    /// Typed rejections: deadline expired while queued.
    pub rejected_deadline: AtomicU64,
    /// Typed rejections: malformed request bodies.
    pub rejected_invalid: AtomicU64,
    /// Typed rejections: admitted but no backend could answer.
    pub rejected_unsolvable: AtomicU64,
    /// Typed rejections: worker panic isolated into a `500 internal_error`.
    pub rejected_internal: AtomicU64,
    /// Typed rejections: every candidate backend failed.
    pub rejected_unavailable: AtomicU64,
    /// Typed rejections: whole-request deadline expired mid-read (408).
    pub rejected_request_timeout: AtomicU64,
    /// Typed rejections: request-line/header caps exceeded (431).
    pub rejected_header_limit: AtomicU64,
    /// Connections shed at accept time by the connection cap (503).
    pub connections_shed: AtomicU64,
    /// Connections currently being served (gauge).
    pub connections_active: AtomicU64,
    /// Connections accepted by the event loop (shed connections excluded).
    pub connections_accepted: AtomicU64,
    /// Keep-alive reuses: requests parsed on a connection that had already
    /// served at least one request.
    pub connections_reused: AtomicU64,
    /// Requests parsed while an earlier request on the same connection was
    /// still in flight (HTTP/1.1 pipelining).
    pub pipelined_requests: AtomicU64,
    /// Times the event loop woke from `poll` (readiness, wakeup byte, or
    /// a connection deadline; an idle loop does not wake).
    pub event_loop_wakeups: AtomicU64,
    /// Accepts per event-loop shard (slot = `shard_id % 16`).
    pub shard_accepts: [AtomicU64; MAX_TRACKED_SHARDS],
    /// Requests served per connection, recorded when the connection closes
    /// (log₂ buckets; the `_us` field names are generic counts here).
    pub requests_per_connection: LatencyHistogram,
    /// Connection-handler panics caught at the HTTP front-end.
    pub conn_panics_caught: AtomicU64,
    /// Router: requests that completed on a fallback cell after at least
    /// one failed or 5xx attempt on another cell (transparent replay).
    pub failovers: AtomicU64,
    /// Router: replays abandoned because the client's remaining deadline
    /// budget ran out.
    pub deadline_budget_exhausted: AtomicU64,
    /// Backend answers that failed the integrity gate (infeasible selection
    /// or cost mismatch) — repaired + rejected.
    pub integrity_violations: AtomicU64,
    /// Gate failures deterministically repaired and re-verified before
    /// serving.
    pub integrity_repairs: AtomicU64,
    /// Gate failures withheld as a typed `500 integrity_violation`.
    pub integrity_rejects: AtomicU64,
    /// Annealer reads whose decoded selection was feasible as sampled.
    pub reads_verified_clean: AtomicU64,
    /// Annealer reads whose decoded selection needed repair.
    pub reads_repaired: AtomicU64,
    /// Annealer reads with at least one broken chain.
    pub reads_broken_chains: AtomicU64,
    /// Broken chains resolved by a strict majority vote during unembedding.
    pub chain_majority_repairs: AtomicU64,
    /// Even-length chain ties resolved by the pinned all-true rule.
    pub chain_tie_breaks: AtomicU64,
    /// Backend attempts that failed (errors and panics), across backends.
    pub backend_attempt_failures: AtomicU64,
    /// Poisoned locks recovered instead of propagating the poison.
    pub lock_poison_recoveries: AtomicU64,
    /// Embedding-cache hits (embedding reused, weights rewritten).
    pub cache_hits: AtomicU64,
    /// Embedding-cache misses (full placement performed).
    pub cache_misses: AtomicU64,
    /// Embedding-cache LRU evictions.
    pub cache_evictions: AtomicU64,
    /// Requests answered by the annealer backend.
    pub backend_annealer: AtomicU64,
    /// Requests answered by the MILP backend.
    pub backend_milp: AtomicU64,
    /// Requests answered by the hill-climbing backend.
    pub backend_hill_climbing: AtomicU64,
    /// Requests currently queued (gauge).
    pub queue_depth: AtomicU64,
    /// End-to-end solve latency (dequeue → response ready).
    pub solve_latency: LatencyHistogram,
    /// Time spent waiting in the admission queue.
    pub queue_wait: LatencyHistogram,
}

impl Metrics {
    /// Increments a counter by one.
    pub fn inc(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n` to a counter (per-run read accounting).
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Takes a serialisable snapshot of every counter and histogram.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        MetricsSnapshot {
            requests_total: load(&self.requests_total),
            solved_total: load(&self.solved_total),
            rejected_queue_full: load(&self.rejected_queue_full),
            rejected_shutdown: load(&self.rejected_shutdown),
            rejected_deadline: load(&self.rejected_deadline),
            rejected_invalid: load(&self.rejected_invalid),
            rejected_unsolvable: load(&self.rejected_unsolvable),
            rejected_internal: load(&self.rejected_internal),
            rejected_unavailable: load(&self.rejected_unavailable),
            rejected_request_timeout: load(&self.rejected_request_timeout),
            rejected_header_limit: load(&self.rejected_header_limit),
            connections_shed: load(&self.connections_shed),
            connections_active: load(&self.connections_active),
            connections_accepted: load(&self.connections_accepted),
            connections_reused: load(&self.connections_reused),
            pipelined_requests: load(&self.pipelined_requests),
            event_loop_wakeups: load(&self.event_loop_wakeups),
            shard_accepts: self.shard_accepts.iter().map(load).collect(),
            requests_per_connection: self.requests_per_connection.snapshot(),
            conn_panics_caught: load(&self.conn_panics_caught),
            failovers: load(&self.failovers),
            deadline_budget_exhausted: load(&self.deadline_budget_exhausted),
            integrity_violations: load(&self.integrity_violations),
            integrity_repairs: load(&self.integrity_repairs),
            integrity_rejects: load(&self.integrity_rejects),
            reads_verified_clean: load(&self.reads_verified_clean),
            reads_repaired: load(&self.reads_repaired),
            reads_broken_chains: load(&self.reads_broken_chains),
            chain_majority_repairs: load(&self.chain_majority_repairs),
            chain_tie_breaks: load(&self.chain_tie_breaks),
            backend_attempt_failures: load(&self.backend_attempt_failures),
            lock_poison_recoveries: load(&self.lock_poison_recoveries),
            cache_hits: load(&self.cache_hits),
            cache_misses: load(&self.cache_misses),
            cache_evictions: load(&self.cache_evictions),
            backend_annealer: load(&self.backend_annealer),
            backend_milp: load(&self.backend_milp),
            backend_hill_climbing: load(&self.backend_hill_climbing),
            queue_depth: load(&self.queue_depth),
            solve_latency: self.solve_latency.snapshot(),
            queue_wait: self.queue_wait.snapshot(),
        }
    }
}

/// Serialisable view of [`Metrics`] — the `GET /metrics` payload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Requests that reached `POST /solve`.
    pub requests_total: u64,
    /// Requests answered with a solution.
    pub solved_total: u64,
    /// Rejections: queue at depth.
    pub rejected_queue_full: u64,
    /// Rejections: server draining.
    pub rejected_shutdown: u64,
    /// Rejections: deadline expired in queue.
    pub rejected_deadline: u64,
    /// Rejections: malformed bodies.
    pub rejected_invalid: u64,
    /// Rejections: no backend could answer.
    pub rejected_unsolvable: u64,
    /// Rejections: isolated worker panics (500).
    pub rejected_internal: u64,
    /// Rejections: every candidate backend failed (503).
    pub rejected_unavailable: u64,
    /// Rejections: whole-request deadline expired (408).
    pub rejected_request_timeout: u64,
    /// Rejections: request-line/header caps (431).
    pub rejected_header_limit: u64,
    /// Connections shed by the accept-loop cap (503).
    pub connections_shed: u64,
    /// Connections being served right now (gauge).
    pub connections_active: u64,
    /// Connections accepted by the event loop.
    #[serde(default)]
    pub connections_accepted: u64,
    /// Keep-alive reuses (second and later requests on one connection).
    #[serde(default)]
    pub connections_reused: u64,
    /// Requests pipelined behind an in-flight request.
    #[serde(default)]
    pub pipelined_requests: u64,
    /// Event-loop wakeups from `poll`.
    #[serde(default)]
    pub event_loop_wakeups: u64,
    /// Accepts per event-loop shard (`shard_id % 16` slots).
    #[serde(default)]
    pub shard_accepts: Vec<u64>,
    /// Requests served per connection at close time (log₂ buckets).
    #[serde(default)]
    pub requests_per_connection: HistogramSnapshot,
    /// Connection-handler panics caught.
    pub conn_panics_caught: u64,
    /// Requests completed via transparent replay on a fallback cell.
    #[serde(default)]
    pub failovers: u64,
    /// Replays abandoned on an exhausted deadline budget.
    #[serde(default)]
    pub deadline_budget_exhausted: u64,
    /// Answers that failed the integrity gate.
    #[serde(default)]
    pub integrity_violations: u64,
    /// Gate failures repaired and re-verified.
    #[serde(default)]
    pub integrity_repairs: u64,
    /// Gate failures withheld as typed 500s.
    #[serde(default)]
    pub integrity_rejects: u64,
    /// Reads decoded feasible as sampled.
    #[serde(default)]
    pub reads_verified_clean: u64,
    /// Reads whose decode needed repair.
    #[serde(default)]
    pub reads_repaired: u64,
    /// Reads with broken chains.
    #[serde(default)]
    pub reads_broken_chains: u64,
    /// Majority-vote chain repairs.
    #[serde(default)]
    pub chain_majority_repairs: u64,
    /// Even-chain tie-breaks.
    #[serde(default)]
    pub chain_tie_breaks: u64,
    /// Failed backend attempts (errors + panics).
    pub backend_attempt_failures: u64,
    /// Poisoned locks recovered.
    pub lock_poison_recoveries: u64,
    /// Embedding-cache hits.
    pub cache_hits: u64,
    /// Embedding-cache misses.
    pub cache_misses: u64,
    /// Embedding-cache evictions.
    pub cache_evictions: u64,
    /// Annealer-backend answers.
    pub backend_annealer: u64,
    /// MILP-backend answers.
    pub backend_milp: u64,
    /// Hill-climbing answers.
    pub backend_hill_climbing: u64,
    /// Requests queued right now.
    pub queue_depth: u64,
    /// Solve latency histogram.
    pub solve_latency: HistogramSnapshot,
    /// Queue-wait histogram.
    pub queue_wait: HistogramSnapshot,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = LatencyHistogram::default();
        // 99 fast observations, 1 slow one.
        for _ in 0..99 {
            h.record(100); // bucket 6: [64, 128)
        }
        h.record(1_000_000); // ~2^20 µs
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.p50_us, 128, "median upper bound of the fast bucket");
        assert!(
            s.p99_us <= 128,
            "p99 rank 99 still lands in the fast bucket"
        );
        assert!((s.mean_us - (99.0 * 100.0 + 1_000_000.0) / 100.0).abs() < 1e-9);
        assert_eq!(s.buckets.iter().sum::<u64>(), 100);
    }

    #[test]
    fn zero_latency_is_clamped_into_the_first_bucket() {
        let h = LatencyHistogram::default();
        h.record(0);
        let s = h.snapshot();
        assert_eq!(s.count, 1);
        assert_eq!(s.buckets[0], 1);
    }

    #[test]
    fn lock_recover_survives_a_poisoning_panic() {
        use std::sync::Arc;
        let mutex = Arc::new(Mutex::new(41));
        let recoveries = AtomicU64::new(0);
        let m2 = Arc::clone(&mutex);
        let _ = std::thread::spawn(move || {
            let _guard = m2.lock().unwrap();
            panic!("poison it");
        })
        .join();
        assert!(mutex.is_poisoned());
        *lock_recover(&mutex, &recoveries) += 1;
        assert_eq!(*lock_recover(&mutex, &recoveries), 42);
        assert_eq!(recoveries.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn snapshot_serialises_to_json() {
        let m = Metrics::default();
        Metrics::inc(&m.requests_total);
        m.solve_latency.record(500);
        let json = serde_json::to_string(&m.snapshot()).unwrap();
        assert!(json.contains("\"requests_total\":1"));
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back.requests_total, 1);
        assert_eq!(back.solve_latency.count, 1);
    }
}
