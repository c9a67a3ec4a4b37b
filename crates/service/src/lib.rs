#![warn(missing_docs)]

//! # mqo-service — a batching MQO solve server
//!
//! Long-running, std-only HTTP service over the Algorithm-1 pipeline (see
//! DESIGN.md §8). A request travels through four layers:
//!
//! ```text
//! POST /solve ──▶ admission queue ──▶ batching workers ──▶ router
//!                 (bounded depth,      (groups requests,    │
//!                  per-request          sorts batches by    ├─▶ annealer ──▶ embedding
//!                  deadlines, typed     structure key)      │               cache (LRU)
//!                  429 rejections)                          ├─▶ MILP
//!                                                           └─▶ hill climbing
//! ```
//!
//! * [`queue`] — bounded admission with per-request deadlines; overload
//!   returns a typed rejection ([`api::Reject`]) instead of queuing without
//!   bound, and graceful shutdown drains every admitted request.
//! * [`cache`] — the embedding/programming cache. Choi's minor-embedding
//!   construction is structure-dependent, not weight-dependent, so
//!   structurally identical instances reuse a cached embedding and only
//!   re-derive the Ising weights. Keys combine
//!   `Qubo::structure_hash` with `ChimeraGraph::fingerprint`.
//! * [`router`] — the paper's representability split (Section 6/7): instances
//!   over the (possibly fault-degraded) Chimera capacity bound are routed to
//!   the MILP or hill-climbing backends instead of the annealer.
//! * [`server`] — hand-rolled HTTP/1.1 over `std::net` exposing
//!   `POST /solve`, `GET /metrics`, `GET /healthz`, and `POST /shutdown`.
//! * [`breaker`] — per-backend circuit breakers; a repeatedly failing
//!   backend is skipped in favour of the next candidate (DESIGN.md §9).
//! * [`chaos`] — deterministic fault injection for the serving stack:
//!   seeded worker panics, worker deaths, backend failures, and cell-kill
//!   schedules keyed on request content / seeded streams, inert by default.
//! * [`supervisor`] — fleet supervision for `mqo_serve` cells run as child
//!   processes: respawn with exponential backoff, crash-loop quarantine,
//!   deadline-bounded health probes (DESIGN.md §14).
//! * [`shard`] — the structure-sharded `mqo_router` front with zero-loss
//!   failover: bounded in-flight journals and deterministic replay on
//!   healthy cells within the client's deadline budget.
//! * [`testkit`] — test support only: the blocking HTTP reader that is the
//!   incremental parser's differential oracle, and minimal test clients.
//!
//! The `mqo_serve` and `mqo_router` binaries wire the layers together. The
//! serving invariants (bit-identity by `(problem, seed)`, clean chaos
//! drains, integrity books, zero-loss failover) are proven by this crate's
//! `cargo test` suite; `bash perfbench/run.sh` drives the binaries under
//! load.

pub mod api;
pub mod breaker;
pub mod cache;
pub mod chaos;
pub mod engine;
pub mod event_loop;
pub mod http;
pub mod metrics;
pub mod queue;
pub mod router;
pub mod server;
pub mod shard;
pub mod supervisor;
pub mod testkit;

pub use api::{Backend, Reject, SolveRequest, SolveResponse};
pub use breaker::{BreakerConfig, BreakerSnapshot, BreakerState, CircuitBreaker};
pub use cache::{CacheKey, CacheStats, EmbeddingCache};
pub use chaos::ChaosConfig;
pub use engine::{BreakerPanel, EngineConfig, SolveEngine};
pub use event_loop::{Action, Completer, EventLoop, Handler, LoopConfig, Response};
pub use metrics::{Metrics, MetricsSnapshot};
pub use queue::{QueueConfig, SolveQueue};
pub use router::{route, RouteDecision, RouterConfig};
pub use server::{Server, ServerConfig};
pub use shard::{next_deadline, structure_key, CellSnapshot, MqoRouter, MqoRouterConfig};
pub use supervisor::{
    RespawnPolicy, RespawnVerdict, SupervisedCellSnapshot, Supervisor, SupervisorConfig,
};
