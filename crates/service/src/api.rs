//! The JSON request/response surface of the solve server.
//!
//! Everything here round-trips through `serde_json`; the problem payload is
//! the [`MqoProblem`] serde form (per-query plan costs + savings triplets),
//! so clients need no conversion shims. Deserialisation re-runs full builder
//! validation — a malformed instance is rejected before it reaches a worker.

use mqo_core::problem::MqoProblem;
use serde::{Deserialize, Serialize};

/// Which backend ultimately answered a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum Backend {
    /// The simulated quantum annealer (Algorithm 1).
    Annealer,
    /// MILP branch-and-bound (the paper's LIN-MQO baseline).
    Milp,
    /// Iterated hill climbing.
    HillClimbing,
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Backend::Annealer => write!(f, "annealer"),
            Backend::Milp => write!(f, "milp"),
            Backend::HillClimbing => write!(f, "hill_climbing"),
        }
    }
}

/// Body of `POST /solve`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SolveRequest {
    /// The MQO instance (serde form: `{"queries": [[costs...]...],
    /// "savings": [[p1, p2, s]...]}`).
    pub problem: MqoProblem,
    /// Base seed for the annealer run (default 0): identical
    /// (problem, seed) requests return identical solutions.
    #[serde(default)]
    pub seed: u64,
    /// Annealing reads for this request (server default when absent).
    #[serde(default)]
    pub reads: Option<usize>,
    /// Gauge batches for this request (server default when absent).
    #[serde(default)]
    pub gauges: Option<usize>,
    /// Deadline in milliseconds from admission; requests still queued when
    /// it expires are rejected with [`Reject::DeadlineExceeded`].
    #[serde(default)]
    pub deadline_ms: Option<u64>,
    /// Pin the request to a backend instead of asking the router.
    #[serde(default)]
    pub backend: Option<Backend>,
}

impl SolveRequest {
    /// A minimal request: the problem with server defaults and `seed`.
    pub fn new(problem: MqoProblem, seed: u64) -> Self {
        SolveRequest {
            problem,
            seed,
            reads: None,
            gauges: None,
            deadline_ms: None,
            backend: None,
        }
    }
}

/// Body of a successful `POST /solve` reply.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SolveResponse {
    /// Global plan id selected for each query, indexed by query.
    pub selection: Vec<u32>,
    /// Accumulated execution cost of the selection.
    pub cost: f64,
    /// Backend that produced the answer.
    pub backend: Backend,
    /// Why the router picked that backend.
    pub route_reason: String,
    /// Whether the embedding came from the cache (annealer backend only).
    pub cache_hit: bool,
    /// Annealer reads performed (0 for classical backends).
    pub reads: usize,
    /// Physical qubits consumed by the embedding (0 for classical backends).
    pub qubits_used: usize,
    /// Simulated device time consumed, microseconds (annealer only): every
    /// read of the solve, plus injected delays and retry backoff.
    pub device_time_us: f64,
    /// Host wall-clock time spent solving, microseconds.
    pub wall_us: u64,
    /// Wall-clock time the request waited in the queue, microseconds.
    pub queue_wait_us: u64,
}

/// Typed rejection: every way the service refuses a request without
/// solving it. Serialised as `{"reason": "...", ...}` with the HTTP status
/// from [`Reject::http_status`]; overload answers 429, never a panic or an
/// unbounded queue.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[serde(tag = "reason", rename_all = "snake_case")]
pub enum Reject {
    /// The admission queue is at its configured depth.
    QueueFull {
        /// The configured bound that was hit.
        depth: usize,
    },
    /// The server is draining; no new work is admitted.
    ShuttingDown,
    /// The request's deadline expired while it was still queued.
    DeadlineExceeded {
        /// The deadline that expired, in milliseconds.
        deadline_ms: u64,
    },
    /// The body was not a valid solve request.
    InvalidRequest {
        /// Parser/validation detail.
        detail: String,
    },
    /// The instance was admitted but no backend could solve it.
    Unsolvable {
        /// Pipeline error detail.
        detail: String,
    },
    /// A worker panicked while solving the request. The panic was isolated
    /// (`catch_unwind`): the rest of the batch is unaffected and, when the
    /// panic escalates into a worker death, the supervisor respawns the
    /// thread.
    InternalError {
        /// Panic payload (or a placeholder for non-string payloads).
        detail: String,
    },
    /// Every candidate backend was skipped by an open circuit breaker (or
    /// failed); the request should be retried after the cooling period.
    BackendUnavailable {
        /// Which breakers were open / which attempts failed.
        detail: String,
    },
    /// A backend produced an answer that failed the integrity gate
    /// (infeasible selection or cost mismatch against a from-scratch
    /// recomputation) and repair was disabled or impossible. The corrupt
    /// answer is withheld — the client gets this typed 500 instead of a
    /// wrong result.
    IntegrityViolation {
        /// The [`mqo_core::integrity::IntegrityError`] detail.
        detail: String,
    },
    /// The connection cap was reached; the request was shed at accept time
    /// with a `Retry-After` hint.
    Overloaded {
        /// The configured connection cap that was hit.
        max_connections: usize,
    },
    /// The whole-request wall-clock deadline expired while reading the
    /// request (slowloris defense).
    RequestTimeout {
        /// The configured deadline, milliseconds.
        deadline_ms: u64,
    },
    /// A request-line, header-size, or header-count cap was exceeded.
    HeaderLimit {
        /// Which limit was exceeded.
        detail: String,
    },
    /// The request uses a framing the server does not implement (any
    /// `Transfer-Encoding`); the connection closes after this answer.
    NotImplemented {
        /// What was not implemented.
        detail: String,
    },
}

impl Reject {
    /// The HTTP status code this rejection is reported with.
    pub fn http_status(&self) -> u16 {
        match self {
            Reject::QueueFull { .. } => 429,
            Reject::ShuttingDown => 503,
            Reject::DeadlineExceeded { .. } => 504,
            Reject::InvalidRequest { .. } => 400,
            Reject::Unsolvable { .. } => 422,
            Reject::InternalError { .. } => 500,
            Reject::BackendUnavailable { .. } => 503,
            Reject::IntegrityViolation { .. } => 500,
            Reject::Overloaded { .. } => 503,
            Reject::RequestTimeout { .. } => 408,
            Reject::HeaderLimit { .. } => 431,
            Reject::NotImplemented { .. } => 501,
        }
    }

    /// The JSON body this rejection is answered with
    /// (`{"reason": ..., ...}`); serialisation failure degrades to a
    /// generic internal-error body rather than panicking on the error path.
    #[must_use]
    pub fn body_json(&self) -> String {
        serde_json::to_string(self).unwrap_or_else(|_| r#"{"reason":"internal"}"#.to_string())
    }
}

impl std::fmt::Display for Reject {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Reject::QueueFull { depth } => write!(f, "queue full (depth {depth})"),
            Reject::ShuttingDown => write!(f, "server is shutting down"),
            Reject::DeadlineExceeded { deadline_ms } => {
                write!(f, "deadline of {deadline_ms} ms expired in queue")
            }
            Reject::InvalidRequest { detail } => write!(f, "invalid request: {detail}"),
            Reject::Unsolvable { detail } => write!(f, "unsolvable: {detail}"),
            Reject::InternalError { detail } => write!(f, "internal error: {detail}"),
            Reject::BackendUnavailable { detail } => {
                write!(f, "no backend available: {detail}")
            }
            Reject::IntegrityViolation { detail } => {
                write!(f, "integrity violation: {detail}")
            }
            Reject::Overloaded { max_connections } => {
                write!(f, "connection cap of {max_connections} reached")
            }
            Reject::RequestTimeout { deadline_ms } => {
                write!(f, "request deadline of {deadline_ms} ms expired")
            }
            Reject::HeaderLimit { detail } => write!(f, "header limit: {detail}"),
            Reject::NotImplemented { detail } => write!(f, "not implemented: {detail}"),
        }
    }
}

impl std::error::Error for Reject {}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_problem() -> MqoProblem {
        let mut b = MqoProblem::builder();
        let q1 = b.add_query(&[2.0, 4.0]);
        let q2 = b.add_query(&[3.0, 1.0]);
        let (p2, p3) = (b.plans_of(q1)[1], b.plans_of(q2)[0]);
        b.add_saving(p2, p3, 5.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn request_round_trips_and_defaults_apply() {
        let json = r#"{"problem": {"queries": [[2,4],[3,1]], "savings": [[1,2,5.0]]}}"#;
        let req: SolveRequest = serde_json::from_str(json).unwrap();
        assert_eq!(req.problem, tiny_problem());
        assert_eq!(req.seed, 0);
        assert!(req.reads.is_none() && req.backend.is_none());
        let back: SolveRequest =
            serde_json::from_str(&serde_json::to_string(&req).unwrap()).unwrap();
        assert_eq!(back.problem, req.problem);
    }

    #[test]
    fn malformed_problems_fail_to_deserialise() {
        // Saving within one query is rejected by builder validation.
        let json = r#"{"problem": {"queries": [[2,4]], "savings": [[0,1,5.0]]}}"#;
        assert!(serde_json::from_str::<SolveRequest>(json).is_err());
    }

    #[test]
    fn non_finite_weights_are_rejected_at_the_request_boundary() {
        // `1e999` overflows f64 — whether the parser rejects the literal or
        // saturates to +∞, the request must fail (builder validation rejects
        // non-finite costs and savings), never reach a worker as Inf/NaN.
        let inf_cost = r#"{"problem": {"queries": [[2,1e999],[3,1]], "savings": []}}"#;
        assert!(serde_json::from_str::<SolveRequest>(inf_cost).is_err());
        let inf_saving = r#"{"problem": {"queries": [[2,4],[3,1]], "savings": [[1,2,1e999]]}}"#;
        assert!(serde_json::from_str::<SolveRequest>(inf_saving).is_err());
    }

    #[test]
    fn reject_statuses_and_tags() {
        let r = Reject::QueueFull { depth: 8 };
        assert_eq!(r.http_status(), 429);
        let json = serde_json::to_string(&r).unwrap();
        assert!(json.contains("\"reason\":\"queue_full\""), "{json}");
        assert_eq!(serde_json::from_str::<Reject>(&json).unwrap(), r);
        assert_eq!(Reject::ShuttingDown.http_status(), 503);
        assert_eq!(
            Reject::DeadlineExceeded { deadline_ms: 5 }.http_status(),
            504
        );
    }

    #[test]
    fn robustness_rejects_have_stable_tags_and_statuses() {
        let cases: Vec<(Reject, u16, &str)> = vec![
            (
                Reject::InternalError {
                    detail: "chaos".into(),
                },
                500,
                "internal_error",
            ),
            (
                Reject::BackendUnavailable {
                    detail: "all breakers open".into(),
                },
                503,
                "backend_unavailable",
            ),
            (
                Reject::IntegrityViolation {
                    detail: "cost mismatch".into(),
                },
                500,
                "integrity_violation",
            ),
            (Reject::Overloaded { max_connections: 8 }, 503, "overloaded"),
            (
                Reject::RequestTimeout { deadline_ms: 100 },
                408,
                "request_timeout",
            ),
            (
                Reject::HeaderLimit {
                    detail: "too many headers".into(),
                },
                431,
                "header_limit",
            ),
            (
                Reject::NotImplemented {
                    detail: "transfer-encoding".into(),
                },
                501,
                "not_implemented",
            ),
        ];
        for (reject, status, tag) in cases {
            assert_eq!(reject.http_status(), status, "{reject}");
            let json = serde_json::to_string(&reject).unwrap();
            assert!(json.contains(&format!("\"reason\":\"{tag}\"")), "{json}");
            assert_eq!(serde_json::from_str::<Reject>(&json).unwrap(), reject);
        }
    }
}
