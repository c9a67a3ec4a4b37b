#![warn(missing_docs)]

//! # mqo-service — an MQO solve server
//!
//! Long-running, std-only HTTP service over the Algorithm-1 pipeline (see
//! DESIGN.md §8). A request travels through four layers:
//!
//! ```text
//! POST /solve ──▶ admission queue ──▶ workers ──▶ router
//!                 (bounded FIFO,       (one job    │
//!                  per-request          at a time) ├─▶ annealer ──▶ TRIAD placement,
//!                  deadlines, typed                │               else embedding
//!                  429 rejections)                 │               cache (LRU)
//!                                                  ├─▶ MILP
//!                                                  └─▶ hill climbing
//! ```
//!
//! * [`queue`] — a bounded FIFO with per-request deadlines; overload
//!   returns a typed rejection ([`api::Reject`]) instead of queuing without
//!   bound, each worker solves one job at a time in admission order, and
//!   graceful shutdown drains every admitted request.
//! * [`cache`] — the cache of heuristic embeddings. A TRIAD clique is
//!   placed directly, as the offline pipeline places it; instances no TRIAD
//!   block hosts are embedded by the heuristic, whose result depends on the
//!   structure, not the weights, so structurally identical instances reuse
//!   it and only re-derive the Ising weights. Keys combine
//!   `Qubo::structure_hash` with `ChimeraGraph::fingerprint`.
//! * [`router`] — the paper's representability split (Section 6/7): instances
//!   over the (possibly fault-degraded) Chimera capacity bound are routed to
//!   the MILP or hill-climbing backends instead of the annealer.
//! * [`server`] — hand-rolled HTTP/1.1 over `std::net` exposing
//!   `POST /solve`, `GET /metrics`, `GET /healthz`, and `POST /shutdown`.
//! * [`breaker`] — the router's per-cell circuit breakers; a cell whose
//!   transport keeps failing is skipped in favour of the next cell on the
//!   shard walk until a probe finds it healthy again (DESIGN.md §14).
//! * [`shard`] — the structure-sharded `mqo_router` front with zero-loss
//!   failover over externally managed cells: bounded in-flight journals
//!   and deterministic replay on healthy cells within the client's
//!   deadline budget (DESIGN.md §14). Restarting a dead cell process is
//!   the service manager's job, not the router's.
//! * [`testkit`] — test support only: the blocking HTTP reader that is the
//!   incremental parser's differential oracle, minimal test clients, and
//!   the seeded fault injectors that drive the engine's
//!   [`engine::FaultSeam`] and a test's cell kills to prove the recovery
//!   paths.
//!
//! The `mqo_serve` and `mqo_router` binaries wire the layers together. The
//! serving invariants (bit-identity by `(problem, seed)`, clean drains
//! under injected faults, integrity books, zero-loss failover) are proven by this crate's
//! `cargo test` suite; `bash perfbench/run.sh` drives the binaries under
//! load.

pub mod api;
pub mod breaker;
pub mod cache;
pub mod engine;
pub mod event_loop;
pub mod http;
pub mod metrics;
pub mod queue;
pub mod router;
pub mod server;
pub mod shard;
pub mod testkit;

pub use api::{Backend, Reject, SolveRequest, SolveResponse};
pub use breaker::{BreakerConfig, BreakerSnapshot, BreakerState, CircuitBreaker};
pub use cache::{CacheKey, CacheStats, EmbeddingCache};
pub use engine::{EngineConfig, FaultSeam, NoFaults, SolveEngine};
pub use event_loop::{Action, Completer, EventLoop, Handler, LoopConfig, Response, ShutdownLatch};
pub use metrics::{Metrics, MetricsSnapshot};
pub use queue::{QueueConfig, SolveQueue};
pub use router::{route, RouteDecision, RouterConfig};
pub use server::{Server, ServerConfig};
pub use shard::{next_deadline, structure_key, CellSnapshot, MqoRouter, MqoRouterConfig};
