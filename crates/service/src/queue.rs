//! Bounded admission queue and its worker pool.
//!
//! The front-end enqueues; a worker pool, one worker per core by default,
//! takes the queued jobs one at a time in admission order (FIFO), runs each
//! solve on the worker's own thread, and answers each job through its
//! [`Responder`]. Overload is a typed [`Reject::QueueFull`] at admission
//! time — the queue never grows without bound and never panics under
//! pressure — and shutdown stops admissions while the workers drain
//! everything already accepted.
//!
//! Robustness model (DESIGN.md §9):
//!
//! * every solve runs inside `catch_unwind`: a panic of any payload is
//!   answered with a typed `500 internal_error` and the worker takes the
//!   next job. Outside that boundary a worker only locks the queue, records
//!   two histograms and calls the responder, so a worker cannot die and
//!   nothing needs respawning;
//! * every lock acquisition recovers from poisoning via
//!   [`crate::metrics::lock_recover`] — the queue state is a `VecDeque` of
//!   independent jobs with no cross-field invariant, so a poisoned guard is
//!   safe to adopt as-is.

use crate::api::{Reject, SolveRequest, SolveResponse};
use crate::engine::SolveEngine;
use crate::metrics::{lock_recover, wait_recover, Metrics};
use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Queue/scheduler knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueConfig {
    /// Maximum queued (admitted but not yet dispatched) requests.
    pub depth: usize,
    /// Worker threads draining the queue; each runs one solve at a time on
    /// its own thread (default: the machine's available parallelism).
    pub workers: usize,
}

impl Default for QueueConfig {
    fn default() -> Self {
        QueueConfig {
            depth: 64,
            workers: mqo_annealer::resolve_threads(0),
        }
    }
}

/// Extracts a human-readable message from a caught panic payload
/// (`&str` and `String` payloads cover `panic!`; anything else gets a
/// placeholder rather than a lossy `Debug` dump).
#[must_use]
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// Where a job's answer goes: a callback that the event-loop front-end
/// uses to post the response back to the owning shard and wake its `poll`.
pub struct Responder(Option<ResponseCallback>);

/// Boxed completion callback invoked with the job's final answer.
type ResponseCallback = Box<dyn FnOnce(Result<SolveResponse, Reject>) + Send>;

impl Responder {
    /// A responder that invokes `f` with the answer. Invoked from a worker
    /// thread, so `f` must be cheap and non-blocking (the event loop's
    /// completers only push onto a channel and write one wakeup byte).
    #[must_use]
    pub fn new(f: impl FnOnce(Result<SolveResponse, Reject>) + Send + 'static) -> Responder {
        Responder(Some(Box::new(f)))
    }

    /// Delivers the answer.
    pub fn respond(mut self, result: Result<SolveResponse, Reject>) {
        if let Some(f) = self.0.take() {
            f(result);
        }
    }
}

impl Drop for Responder {
    /// Safety net: a responder dropped without answering (a queue dropped
    /// with jobs no worker ran) still tells the client the service is
    /// going away.
    fn drop(&mut self) {
        if let Some(f) = self.0.take() {
            f(Err(Reject::ShuttingDown));
        }
    }
}

/// One admitted request awaiting dispatch.
struct Job {
    req: SolveRequest,
    enqueued: Instant,
    deadline: Option<Instant>,
    deadline_ms: u64,
    responder: Responder,
}

struct QueueState {
    jobs: VecDeque<Job>,
    accepting: bool,
}

/// The admission queue and its worker pool.
pub struct SolveQueue {
    state: Mutex<QueueState>,
    wakeup: Condvar,
    config: QueueConfig,
    engine: Arc<SolveEngine>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl std::fmt::Debug for SolveQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SolveQueue")
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl SolveQueue {
    /// Creates the queue without spawning workers (tests use this to
    /// exercise admission behaviour deterministically).
    pub fn new(engine: Arc<SolveEngine>, config: QueueConfig) -> Arc<Self> {
        Arc::new(SolveQueue {
            state: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                accepting: true,
            }),
            wakeup: Condvar::new(),
            config,
            engine,
            workers: Mutex::new(Vec::new()),
        })
    }

    /// Creates the queue and spawns its worker pool.
    pub fn start(engine: Arc<SolveEngine>, config: QueueConfig) -> Arc<Self> {
        let queue = Self::new(engine, config);
        queue.spawn_workers();
        queue
    }

    /// Spawns the worker pool (calling it twice doubles the pool; call
    /// once).
    pub fn spawn_workers(self: &Arc<Self>) {
        let mut workers =
            lock_recover(&self.workers, &self.engine.metrics().lock_poison_recoveries);
        let base = workers.len();
        for i in 0..self.config.workers.max(1) {
            let queue = Arc::clone(self);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("mqo-worker-{}", base + i))
                    .spawn(move || queue.worker_loop())
                    .expect("spawning a worker thread"),
            );
        }
    }

    /// Admits a request whose answer is delivered through `responder`.
    /// Admission rejections (queue full, draining) hand the responder back
    /// unanswered, so the caller decides how to answer — the HTTP
    /// front-ends attach `Retry-After` to back-pressure rejections.
    pub fn submit_with(
        &self,
        req: SolveRequest,
        responder: Responder,
    ) -> Result<(), (Responder, Reject)> {
        let metrics = self.engine.metrics();
        let mut state = lock_recover(&self.state, &metrics.lock_poison_recoveries);
        if !state.accepting {
            Metrics::inc(&metrics.rejected_shutdown);
            return Err((responder, Reject::ShuttingDown));
        }
        if state.jobs.len() >= self.config.depth {
            Metrics::inc(&metrics.rejected_queue_full);
            return Err((
                responder,
                Reject::QueueFull {
                    depth: self.config.depth,
                },
            ));
        }
        // A request without `deadline_ms` (or with 0) waits unbounded.
        let deadline_ms = req.deadline_ms.unwrap_or(0);
        let deadline = (deadline_ms > 0)
            .then(|| Instant::now() + std::time::Duration::from_millis(deadline_ms));
        state.jobs.push_back(Job {
            req,
            enqueued: Instant::now(),
            deadline,
            deadline_ms,
            responder,
        });
        metrics
            .queue_depth
            .store(state.jobs.len() as u64, Ordering::Relaxed);
        drop(state);
        self.wakeup.notify_one();
        Ok(())
    }

    /// Requests currently queued.
    pub fn depth(&self) -> usize {
        lock_recover(&self.state, &self.engine.metrics().lock_poison_recoveries)
            .jobs
            .len()
    }

    /// Stops admissions, lets the workers drain every queued job, and joins
    /// them. Every admitted request receives an answer before this returns.
    pub fn shutdown(&self) {
        let recoveries = &self.engine.metrics().lock_poison_recoveries;
        lock_recover(&self.state, recoveries).accepting = false;
        self.wakeup.notify_all();
        let handles = std::mem::take(&mut *lock_recover(&self.workers, recoveries));
        for handle in handles {
            // A worker catches every solve panic, so it ends only by
            // draining; there is no panic payload to report.
            let _ = handle.join();
        }
    }

    /// Takes the oldest job, or `None` once the queue is draining and
    /// empty.
    fn next_job(&self, metrics: &Metrics) -> Option<Job> {
        let mut state = lock_recover(&self.state, &metrics.lock_poison_recoveries);
        loop {
            if let Some(job) = state.jobs.pop_front() {
                metrics
                    .queue_depth
                    .store(state.jobs.len() as u64, Ordering::Relaxed);
                return Some(job);
            }
            if !state.accepting {
                return None;
            }
            state = wait_recover(self.wakeup.wait(state), &metrics.lock_poison_recoveries);
        }
    }

    fn worker_loop(&self) {
        let metrics = Arc::clone(self.engine.metrics());
        while let Some(job) = self.next_job(&metrics) {
            if job
                .deadline
                .is_some_and(|deadline| Instant::now() >= deadline)
            {
                Metrics::inc(&metrics.rejected_deadline);
                job.responder.respond(Err(Reject::DeadlineExceeded {
                    deadline_ms: job.deadline_ms,
                }));
                continue;
            }
            let wait_us = job.enqueued.elapsed().as_micros() as u64;
            metrics.queue_wait.record(wait_us);
            let started = Instant::now();
            // The engine is a shared reference either way; the unwind
            // boundary only isolates the panic, it does not hand the closure
            // anything another thread could observe half-updated (all engine
            // state is itself poison-recovering).
            let outcome = catch_unwind(AssertUnwindSafe(|| self.engine.solve(&job.req)));
            metrics
                .solve_latency
                .record(started.elapsed().as_micros() as u64);
            let result = match outcome {
                Ok(result) => result.map(|mut response| {
                    response.queue_wait_us = wait_us;
                    response
                }),
                Err(payload) => {
                    Metrics::inc(&metrics.rejected_internal);
                    Err(Reject::InternalError {
                        detail: panic_message(payload.as_ref()),
                    })
                }
            };
            job.responder.respond(result);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::Backend;
    use crate::engine::EngineConfig;
    use crate::testkit::{silence_injected_panics, FaultRates, SeededFaults, INJECTED_PANIC};
    use mqo_chimera::graph::ChimeraGraph;
    use mqo_core::problem::MqoProblem;
    use std::sync::mpsc::{self, Receiver};

    type Answer = Result<SolveResponse, Reject>;

    fn tiny_problem() -> MqoProblem {
        let mut b = MqoProblem::builder();
        let q1 = b.add_query(&[2.0, 4.0]);
        let q2 = b.add_query(&[3.0, 1.0]);
        let (p2, p3) = (b.plans_of(q1)[1], b.plans_of(q2)[0]);
        b.add_saving(p2, p3, 5.0).unwrap();
        b.build().unwrap()
    }

    fn engine() -> Arc<SolveEngine> {
        let mut cfg = EngineConfig::new(ChimeraGraph::new(2, 2));
        cfg.device.num_reads = 20;
        cfg.device.num_gauges = 2;
        Arc::new(SolveEngine::new(cfg, Arc::new(Metrics::default())))
    }

    /// Admits `req` with a responder that forwards the answer into a
    /// channel, so a test can wait on it.
    fn submit(queue: &SolveQueue, req: SolveRequest) -> Result<Receiver<Answer>, Reject> {
        let (tx, rx) = mpsc::channel();
        let responder = Responder::new(move |answer| {
            let _ = tx.send(answer);
        });
        queue
            .submit_with(req, responder)
            .map(|()| rx)
            .map_err(|(_responder, reject)| reject)
    }

    #[test]
    fn overload_is_a_typed_rejection_not_a_panic_or_hang() {
        // No workers running: the queue fills to its bound, then rejects.
        let queue = SolveQueue::new(
            engine(),
            QueueConfig {
                depth: 3,
                ..QueueConfig::default()
            },
        );
        let mut pending = Vec::new();
        for i in 0..3 {
            pending.push(
                submit(&queue, SolveRequest::new(tiny_problem(), i))
                    .unwrap_or_else(|r| panic!("request {i} should be admitted, got {r}")),
            );
        }
        match submit(&queue, SolveRequest::new(tiny_problem(), 99)) {
            Err(Reject::QueueFull { depth }) => assert_eq!(depth, 3),
            other => panic!("expected QueueFull, got {other:?}"),
        }
        assert_eq!(queue.depth(), 3);
        let m = queue.engine.metrics().snapshot();
        assert_eq!(m.rejected_queue_full, 1);
        assert_eq!(m.queue_depth, 3);

        // Draining the backlog: every admitted request still gets answered.
        queue.spawn_workers();
        queue.shutdown();
        for rx in pending {
            let response = rx.recv().expect("drained job answers").unwrap();
            assert_eq!(response.cost, 2.0);
        }
    }

    #[test]
    fn shutdown_rejects_new_work_and_drains_admitted_work() {
        let queue = SolveQueue::start(
            engine(),
            QueueConfig {
                workers: 2,
                ..QueueConfig::default()
            },
        );
        let rx =
            submit(&queue, SolveRequest::new(tiny_problem(), 1)).expect("admitted before shutdown");
        queue.shutdown();
        let response = rx.recv().expect("in-flight job is drained").unwrap();
        assert_eq!(response.cost, 2.0);
        match submit(&queue, SolveRequest::new(tiny_problem(), 2)) {
            Err(Reject::ShuttingDown) => {}
            other => panic!("expected ShuttingDown, got {other:?}"),
        }
        let m = queue.engine.metrics().snapshot();
        assert_eq!(m.rejected_shutdown, 1);
        assert_eq!(m.solved_total, 1);
    }

    #[test]
    fn expired_deadlines_reject_instead_of_solving() {
        let queue = SolveQueue::new(engine(), QueueConfig::default());
        let mut req = SolveRequest::new(tiny_problem(), 1);
        req.deadline_ms = Some(1);
        let rx = submit(&queue, req).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(10));
        queue.spawn_workers();
        queue.shutdown();
        match rx.recv().unwrap() {
            Err(Reject::DeadlineExceeded { deadline_ms }) => assert_eq!(deadline_ms, 1),
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        assert_eq!(queue.engine.metrics().snapshot().rejected_deadline, 1);
    }

    #[test]
    fn one_worker_answers_every_request_in_admission_order() {
        let queue = SolveQueue::new(
            engine(),
            QueueConfig {
                workers: 1,
                ..QueueConfig::default()
            },
        );
        let (tx, rx) = mpsc::channel();
        for i in 0..8u64 {
            let mut req = SolveRequest::new(tiny_problem(), i);
            req.backend = Some(Backend::HillClimbing);
            let tx = tx.clone();
            let responder = Responder::new(move |answer| {
                let _ = tx.send((i, answer));
            });
            assert!(queue.submit_with(req, responder).is_ok());
        }
        drop(tx);
        queue.spawn_workers();
        queue.shutdown();
        let answers: Vec<(u64, Answer)> = rx.iter().collect();
        let order: Vec<u64> = answers.iter().map(|(i, _)| *i).collect();
        assert_eq!(order, (0..8).collect::<Vec<_>>(), "FIFO: admission order");
        for (_, answer) in answers {
            assert_eq!(answer.unwrap().cost, 2.0);
        }
        let m = queue.engine.metrics().snapshot();
        assert_eq!(m.solved_total, 8);
        assert_eq!(m.queue_wait.count, 8);
        assert_eq!(m.queue_depth, 0);
    }

    /// An engine like [`engine`]'s with `rates` behind its fault seam.
    fn faulty_engine(rates: FaultRates) -> (Arc<SolveEngine>, Arc<SeededFaults>) {
        let mut cfg = EngineConfig::new(ChimeraGraph::new(2, 2));
        cfg.device.num_reads = 20;
        cfg.device.num_gauges = 2;
        let faults = SeededFaults::new(rates);
        let engine = SolveEngine::with_faults(cfg, Arc::new(Metrics::default()), faults.clone());
        (Arc::new(engine), faults)
    }

    #[test]
    fn panicking_requests_answer_500_and_the_worker_takes_the_next_job() {
        silence_injected_panics();
        // Panic rate 0.5: a deterministic subset of seeds 0..16 panics, the
        // rest solve normally — all on the same worker.
        let rates = FaultRates {
            seed: 5,
            worker_panic_rate: 0.5,
            ..FaultRates::default()
        };
        let (engine, faults) = faulty_engine(rates);
        let queue = SolveQueue::new(
            engine,
            QueueConfig {
                workers: 1,
                ..QueueConfig::default()
            },
        );
        let receivers: Vec<_> = (0..16)
            .map(|i| {
                let mut req = SolveRequest::new(tiny_problem(), i);
                req.backend = Some(Backend::HillClimbing);
                (i, submit(&queue, req).unwrap())
            })
            .collect();
        queue.spawn_workers();
        queue.shutdown();
        let mut panicked = 0;
        for (seed, rx) in receivers {
            match rx.recv().expect("every admitted request is answered") {
                Ok(r) => {
                    assert!(!rates.worker_panics(seed), "seed {seed} should panic");
                    assert_eq!(r.cost, 2.0);
                }
                Err(Reject::InternalError { detail }) => {
                    assert!(rates.worker_panics(seed), "seed {seed} shouldn't panic");
                    assert!(detail.contains(INJECTED_PANIC), "{detail}");
                    panicked += 1;
                }
                Err(other) => panic!("unexpected rejection {other}"),
            }
        }
        let expected: u64 = (0..16).filter(|&s| rates.worker_panics(s)).count() as u64;
        assert!(expected > 0 && expected < 16, "0.5 rate splits 16 seeds");
        assert_eq!(panicked, expected);
        assert_eq!(faults.injected().panics, expected);
        let m = queue.engine.metrics().snapshot();
        assert_eq!(m.rejected_internal, expected);
        assert_eq!(m.solved_total, 16 - expected);
    }

    #[test]
    fn panic_message_reads_every_payload_kind() {
        assert_eq!(panic_message(&"static"), "static");
        assert_eq!(panic_message(&String::from("owned")), "owned");
        assert_eq!(panic_message(&7u8), "panic with non-string payload");
    }
}
