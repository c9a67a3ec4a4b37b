//! Bounded admission queue + batching worker pool + supervisor.
//!
//! The front-end enqueues; a worker pool, one worker per core by default,
//! drains the queue in batches (grouping structurally similar requests so
//! embedding-cache hits cluster), runs each solve on the worker's own thread,
//! and answers each job through its [`Responder`]. Overload is a typed
//! [`Reject::QueueFull`] at admission time — the queue never grows without
//! bound and never panics under pressure — and shutdown stops admissions
//! while the workers drain everything already accepted.
//!
//! Robustness model (DESIGN.md §9):
//!
//! * every solve runs inside `catch_unwind`: a panicking request is answered
//!   with a typed `500 internal_error` and the worker keeps draining its
//!   batch — one poisoned request cannot take its batchmates down;
//! * a caught panic may escalate into a *worker death* (chaos injection or a
//!   genuinely unrecoverable worker). The dying worker first pushes the rest
//!   of its batch back onto the queue, so no admitted request is lost;
//! * a supervisor thread joins panic-exited workers and respawns them,
//!   counting respawns in `/metrics` (`worker_respawns`);
//! * every lock acquisition recovers from poisoning via
//!   [`crate::metrics::lock_recover`] — the queue state is a `VecDeque` of
//!   independent jobs with no cross-field invariant, so a poisoned guard is
//!   safe to adopt as-is.

use crate::api::{Reject, SolveRequest, SolveResponse};
use crate::chaos::panic_message;
use crate::engine::SolveEngine;
use crate::metrics::{lock_recover, wait_recover, Metrics};
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Queue/scheduler knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueConfig {
    /// Maximum queued (admitted but not yet dispatched) requests.
    pub depth: usize,
    /// Worker threads draining the queue; each runs one solve at a time on
    /// its own thread (default: the machine's available parallelism).
    pub workers: usize,
    /// Maximum requests one worker claims per wake-up.
    pub batch_size: usize,
}

impl Default for QueueConfig {
    fn default() -> Self {
        QueueConfig {
            depth: 64,
            workers: mqo_annealer::resolve_threads(0),
            batch_size: 8,
        }
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
    /// Safety net: a responder dropped without answering (worker pool died
    /// hard) still tells the client the service is going away.
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

/// The admission queue, its worker pool, and the supervisor.
pub struct SolveQueue {
    state: Mutex<QueueState>,
    wakeup: Condvar,
    config: QueueConfig,
    engine: Arc<SolveEngine>,
    /// One slot per worker. `Some` while the worker (original or respawned)
    /// is running; `None` after a normal drain exit.
    workers: Mutex<Vec<Option<JoinHandle<()>>>>,
    supervisor: Mutex<Option<JoinHandle<()>>>,
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
            supervisor: Mutex::new(None),
        })
    }

    /// Creates the queue and spawns its worker pool.
    pub fn start(engine: Arc<SolveEngine>, config: QueueConfig) -> Arc<Self> {
        let queue = Self::new(engine, config);
        queue.spawn_workers();
        queue
    }

    /// Spawns the worker pool and its supervisor (idempotent only in the
    /// sense that calling it twice doubles the pool; call once).
    pub fn spawn_workers(self: &Arc<Self>) {
        let n = self.config.workers.max(1);
        let recoveries = &self.engine.metrics().lock_poison_recoveries;
        {
            let mut workers = lock_recover(&self.workers, recoveries);
            let base = workers.len();
            for i in 0..n {
                workers.push(Some(Self::spawn_worker(self, base + i)));
            }
        }
        let mut supervisor = lock_recover(&self.supervisor, recoveries);
        if supervisor.is_none() {
            let queue = Arc::clone(self);
            *supervisor = Some(
                std::thread::Builder::new()
                    .name("mqo-supervisor".to_string())
                    .spawn(move || queue.supervisor_loop())
                    .expect("spawning the supervisor thread"),
            );
        }
    }

    fn spawn_worker(queue: &Arc<Self>, slot: usize) -> JoinHandle<()> {
        let queue = Arc::clone(queue);
        std::thread::Builder::new()
            .name(format!("mqo-worker-{slot}"))
            .spawn(move || queue.worker_loop())
            .expect("spawning a worker thread")
    }

    /// Scans the worker pool, joining finished threads and respawning the
    /// ones that exited by panic. Normal exits (drain complete) leave their
    /// slot empty; the supervisor itself exits once the queue is draining
    /// and every slot is empty.
    fn supervisor_loop(self: &Arc<Self>) {
        let metrics = Arc::clone(self.engine.metrics());
        loop {
            std::thread::sleep(Duration::from_millis(2));
            let draining = !lock_recover(&self.state, &metrics.lock_poison_recoveries).accepting;
            let mut workers = lock_recover(&self.workers, &metrics.lock_poison_recoveries);
            let mut alive = 0usize;
            for slot in 0..workers.len() {
                match &workers[slot] {
                    Some(handle) if handle.is_finished() => {
                        let handle = workers[slot].take().expect("slot checked Some");
                        if handle.join().is_err() {
                            // Panic exit: the worker died mid-batch (its
                            // remaining jobs are already back on the queue).
                            Metrics::inc(&metrics.worker_respawns);
                            workers[slot] = Some(Self::spawn_worker(self, slot));
                            alive += 1;
                        }
                    }
                    Some(_) => alive += 1,
                    None => {}
                }
            }
            drop(workers);
            if draining && alive == 0 {
                return;
            }
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
    /// them (via the supervisor, which keeps respawning panic-exited workers
    /// until the drain completes). Every admitted request receives an answer
    /// before this returns.
    pub fn shutdown(&self) {
        let recoveries = &self.engine.metrics().lock_poison_recoveries;
        {
            let mut state = lock_recover(&self.state, recoveries);
            state.accepting = false;
        }
        self.wakeup.notify_all();
        let supervisor = lock_recover(&self.supervisor, recoveries).take();
        if let Some(handle) = supervisor {
            let _ = handle.join();
        }
        // No supervisor (a queue built with `new` and never started, or a
        // second shutdown): join whatever workers remain directly.
        let handles: Vec<JoinHandle<()>> = lock_recover(&self.workers, recoveries)
            .iter_mut()
            .filter_map(Option::take)
            .collect();
        for handle in handles {
            let _ = handle.join();
        }
    }

    /// Pushes the unprocessed remainder of a dying worker's batch back to
    /// the queue front (preserving order) so surviving workers pick it up.
    fn requeue(&self, batch: VecDeque<Job>) {
        let metrics = self.engine.metrics();
        let mut state = lock_recover(&self.state, &metrics.lock_poison_recoveries);
        for job in batch.into_iter().rev() {
            state.jobs.push_front(job);
        }
        metrics
            .queue_depth
            .store(state.jobs.len() as u64, Ordering::Relaxed);
        drop(state);
        self.wakeup.notify_all();
    }

    fn worker_loop(&self) {
        let metrics = Arc::clone(self.engine.metrics());
        loop {
            let mut batch = {
                let mut state = lock_recover(&self.state, &metrics.lock_poison_recoveries);
                loop {
                    if !state.jobs.is_empty() {
                        break;
                    }
                    if !state.accepting {
                        return;
                    }
                    state = wait_recover(self.wakeup.wait(state), &metrics.lock_poison_recoveries);
                }
                let n = self.config.batch_size.max(1).min(state.jobs.len());
                let batch: Vec<Job> = state.jobs.drain(..n).collect();
                metrics
                    .queue_depth
                    .store(state.jobs.len() as u64, Ordering::Relaxed);
                batch
            };
            Metrics::inc(&metrics.batches_dispatched);
            // Group structurally identical instances adjacently so the
            // second one of a pair hits the embedding the first just cached.
            batch.sort_by_key(|job| (job.req.problem.num_queries(), job.req.problem.num_plans()));
            // Packing mode: try to answer the whole batch from one composite
            // programming cycle first. Slots the packer leaves `None` (not
            // packable, placer declined, tenant hit a device fault) take the
            // solo path below, so this is a pure fast-path — a panic inside
            // it degrades the batch to all-solo rather than failing anyone.
            let mut packed: VecDeque<Option<Result<SolveResponse, Reject>>> = VecDeque::new();
            let mut packed_us = 0u64;
            if self.engine.config().packing && batch.len() >= 2 {
                let refs: Vec<&SolveRequest> = batch.iter().map(|job| &job.req).collect();
                let started = Instant::now();
                packed = match catch_unwind(AssertUnwindSafe(|| self.engine.solve_packed(&refs))) {
                    Ok(results) => results.into(),
                    Err(_) => {
                        Metrics::inc(&metrics.worker_panics_caught);
                        VecDeque::new()
                    }
                };
                packed_us = started.elapsed().as_micros() as u64;
            }
            let mut batch: VecDeque<Job> = batch.into();
            while let Some(job) = batch.pop_front() {
                let pre = packed.pop_front().flatten();
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
                if let Some(result) = pre {
                    // Answered by the packed cycle. The recorded latency is
                    // the cycle's wall time: that is what the request cost.
                    metrics.solve_latency.record(packed_us);
                    let result = result.map(|mut response| {
                        response.queue_wait_us = wait_us;
                        response
                    });
                    job.responder.respond(result);
                    continue;
                }
                let started = Instant::now();
                // The engine is a shared reference either way; the unwind
                // boundary only isolates the panic, it does not hand the
                // closure anything another thread could observe half-updated
                // (all engine state is itself poison-recovering).
                let outcome = catch_unwind(AssertUnwindSafe(|| self.engine.solve(&job.req)));
                metrics
                    .solve_latency
                    .record(started.elapsed().as_micros() as u64);
                match outcome {
                    Ok(result) => {
                        let result = result.map(|mut response| {
                            response.queue_wait_us = wait_us;
                            response
                        });
                        job.responder.respond(result);
                    }
                    Err(payload) => {
                        Metrics::inc(&metrics.worker_panics_caught);
                        Metrics::inc(&metrics.rejected_internal);
                        let detail = panic_message(payload.as_ref());
                        job.responder.respond(Err(Reject::InternalError { detail }));
                        // Chaos may escalate the caught panic into a worker
                        // death (keyed on request content, so the kill
                        // schedule is deterministic). The batch remainder
                        // goes back on the queue first: requests are never
                        // lost, only delayed by the respawn.
                        if self.engine.config().chaos.worker_dies(job.req.seed) {
                            Metrics::inc(&metrics.chaos_kills_injected);
                            self.requeue(batch);
                            resume_unwind(payload);
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::Backend;
    use crate::engine::EngineConfig;
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
    fn batches_group_and_answer_every_request() {
        let queue = SolveQueue::new(
            engine(),
            QueueConfig {
                batch_size: 4,
                workers: 1,
                ..QueueConfig::default()
            },
        );
        let receivers: Vec<_> = (0..8)
            .map(|i| {
                let mut req = SolveRequest::new(tiny_problem(), i);
                req.backend = Some(Backend::HillClimbing);
                submit(&queue, req).unwrap()
            })
            .collect();
        queue.spawn_workers();
        queue.shutdown();
        for rx in receivers {
            assert_eq!(rx.recv().unwrap().unwrap().cost, 2.0);
        }
        let m = queue.engine.metrics().snapshot();
        assert!(
            m.batches_dispatched >= 2,
            "8 jobs at batch size 4 need at least 2 batches, saw {}",
            m.batches_dispatched
        );
        assert_eq!(m.solved_total, 8);
        assert_eq!(m.queue_wait.count, 8);
    }

    #[test]
    fn packed_batches_answer_every_request_identically_to_solo() {
        let packing_engine = || {
            let mut cfg = EngineConfig::new(ChimeraGraph::new(2, 2));
            cfg.device.num_reads = 20;
            cfg.device.num_gauges = 2;
            cfg.packing = true;
            Arc::new(SolveEngine::new(cfg, Arc::new(Metrics::default())))
        };
        let run = |engine: Arc<SolveEngine>| {
            let queue = SolveQueue::new(
                engine,
                QueueConfig {
                    batch_size: 4,
                    workers: 1,
                    ..QueueConfig::default()
                },
            );
            let receivers: Vec<_> = (0..4)
                .map(|i| submit(&queue, SolveRequest::new(tiny_problem(), i)).unwrap())
                .collect();
            queue.spawn_workers();
            queue.shutdown();
            let answers: Vec<SolveResponse> = receivers
                .into_iter()
                .map(|rx| rx.recv().unwrap().unwrap())
                .collect();
            (queue, answers)
        };
        let (packed_queue, packed) = run(packing_engine());
        let (_, solo) = run(engine());
        for (p, s) in packed.iter().zip(&solo) {
            assert_eq!(p.selection, s.selection);
            assert_eq!(p.cost, s.cost);
            assert_eq!(p.reads, s.reads);
            assert_eq!(p.packed_tenants, 4, "{}", p.route_reason);
            assert_eq!(s.packed_tenants, 0);
        }
        let m = packed_queue.engine.metrics().snapshot();
        assert_eq!(m.packed_batches, 1);
        assert_eq!(m.tenants_packed, 4);
        assert_eq!(m.solved_total, 4);
        assert_eq!(m.solve_latency.count, 4);
    }

    fn chaos_engine(chaos: crate::chaos::ChaosConfig) -> Arc<SolveEngine> {
        let mut cfg = EngineConfig::new(ChimeraGraph::new(2, 2));
        cfg.device.num_reads = 20;
        cfg.device.num_gauges = 2;
        cfg.chaos = chaos;
        Arc::new(SolveEngine::new(cfg, Arc::new(Metrics::default())))
    }

    /// Keeps caught-panic backtraces out of the test output; restores the
    /// default hook on drop so other tests are unaffected.
    fn silence_panics() -> impl Drop {
        struct Restore;
        impl Drop for Restore {
            fn drop(&mut self) {
                let _ = std::panic::take_hook();
            }
        }
        std::panic::set_hook(Box::new(|_| {}));
        Restore
    }

    #[test]
    fn panicking_requests_answer_500_and_spare_their_batchmates() {
        let _quiet = silence_panics();
        // Panic rate 0.5: a deterministic subset of seeds 0..16 panics, the
        // rest solve normally — all inside the same worker.
        let chaos = crate::chaos::ChaosConfig {
            seed: 5,
            worker_panic_rate: 0.5,
            ..crate::chaos::ChaosConfig::NONE
        };
        let queue = SolveQueue::new(
            chaos_engine(chaos),
            QueueConfig {
                workers: 1,
                batch_size: 8,
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
                    assert!(!chaos.worker_panics(seed), "seed {seed} should panic");
                    assert_eq!(r.cost, 2.0);
                }
                Err(Reject::InternalError { detail }) => {
                    assert!(chaos.worker_panics(seed), "seed {seed} shouldn't panic");
                    assert!(
                        detail.contains(crate::chaos::CHAOS_PANIC_MESSAGE),
                        "{detail}"
                    );
                    panicked += 1;
                }
                Err(other) => panic!("unexpected rejection {other}"),
            }
        }
        let expected: u64 = (0..16).filter(|&s| chaos.worker_panics(s)).count() as u64;
        assert!(expected > 0 && expected < 16, "0.5 rate splits 16 seeds");
        assert_eq!(panicked, expected);
        let m = queue.engine.metrics().snapshot();
        assert_eq!(m.worker_panics_caught, expected);
        assert_eq!(m.rejected_internal, expected);
        assert_eq!(m.solved_total, 16 - expected);
        assert_eq!(m.worker_respawns, 0, "no kills: the worker never died");
    }

    #[test]
    fn killed_workers_requeue_their_batch_and_are_respawned() {
        let _quiet = silence_panics();
        // Every request panics AND escalates into a worker death: the
        // supervisor must respawn once per request for the drain to finish.
        let chaos = crate::chaos::ChaosConfig {
            seed: 9,
            worker_panic_rate: 1.0,
            worker_kill_rate: 1.0,
            ..crate::chaos::ChaosConfig::NONE
        };
        let queue = SolveQueue::new(
            chaos_engine(chaos),
            QueueConfig {
                workers: 1,
                batch_size: 4,
                ..QueueConfig::default()
            },
        );
        let receivers: Vec<_> = (0..6)
            .map(|i| submit(&queue, SolveRequest::new(tiny_problem(), i)).unwrap())
            .collect();
        queue.spawn_workers();
        queue.shutdown();
        for rx in receivers {
            match rx.recv().expect("killed workers never lose requests") {
                Err(Reject::InternalError { .. }) => {}
                other => panic!("expected InternalError, got {other:?}"),
            }
        }
        let m = queue.engine.metrics().snapshot();
        assert_eq!(m.worker_panics_caught, 6);
        assert_eq!(m.chaos_kills_injected, 6);
        assert_eq!(
            m.worker_respawns, 6,
            "each worker death is matched by a respawn"
        );
        assert_eq!(m.solved_total, 0);
    }
}
