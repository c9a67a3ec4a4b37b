//! Fleet supervision: cell processes as a managed, self-healing resource.
//!
//! The router (PR 9) shards solves across `mqo_serve` *cells* but treats
//! them as externally managed: a dead cell stays dead and only breaker
//! fall-through hides it. This module closes the loop (DESIGN.md §14): the
//! supervisor spawns every cell as a **child process** from a per-cell
//! command template, watches it through two independent signals —
//!
//! * **process exit** (`try_wait`): the child died, whatever the reason
//!   (a SIGKILL, OOM, a crash bug);
//! * **deadline-bounded `/healthz` probes**: the process is alive but not
//!   answering (wedged accept loop, livelock) — after
//!   `PROBE_FAILURE_THRESHOLD` consecutive probe failures the supervisor
//!   kills it and treats it as crashed;
//!
//! — and respawns it with exponential backoff. A cell that keeps dying
//! right after starting (`crash_loop_threshold` rapid crashes, each within
//! `CRASH_LOOP_WINDOW_MS` of its spawn) is **quarantined**: its process is
//! reaped, no further respawns are attempted, and a shared per-cell flag
//! tells the router's fleet to skip it during shard fall-through — the
//! cell's shard range is thereby remapped onto the healthy cells.
//!
//! The pure respawn/quarantine policy lives in [`RespawnPolicy`] so the
//! state machine is unit-testable without spawning a single process.

use crate::http::{read_response, render_request, HttpLimits};
use crate::metrics::{lock_recover, Metrics};
use std::io::Write;
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Placeholder in a cell command template replaced by the cell's address.
pub const ADDR_PLACEHOLDER: &str = "{addr}";

/// Probe connect/read deadline, milliseconds.
const PROBE_TIMEOUT_MS: u64 = 500;
/// Consecutive probe failures after which a live-but-unresponsive cell is
/// killed and treated as crashed.
const PROBE_FAILURE_THRESHOLD: u32 = 3;
/// A crash with uptime below this window counts as rapid, milliseconds.
const CRASH_LOOP_WINDOW_MS: u64 = 10_000;
/// How long [`Supervisor::wait_ready`] allows the initial fleet to become
/// healthy, milliseconds.
const STARTUP_TIMEOUT_MS: u64 = 30_000;

/// Fleet-supervision configuration.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// One command template per cell (argv form, first element is the
    /// program). Every occurrence of `{addr}` in any element is replaced by
    /// the cell's address before spawning.
    pub commands: Vec<Vec<String>>,
    /// Cell addresses, index-aligned with `commands` (and with the
    /// router's cell order).
    pub cells: Vec<String>,
    /// Milliseconds between `/healthz` probes of a live cell.
    pub probe_interval_ms: u64,
    /// First respawn backoff, milliseconds (doubles per rapid crash).
    pub backoff_initial_ms: u64,
    /// Respawn backoff cap, milliseconds.
    pub backoff_max_ms: u64,
    /// Rapid crashes (uptime below `CRASH_LOOP_WINDOW_MS`) that
    /// quarantine a cell. `0` disables quarantine (the cell respawns
    /// forever).
    pub crash_loop_threshold: u32,
}

impl SupervisorConfig {
    /// A supervisor over `cells`, every cell spawned from the same
    /// `command` template, with conservative defaults.
    #[must_use]
    pub fn new(command: Vec<String>, cells: Vec<String>) -> Self {
        SupervisorConfig {
            commands: vec![command; cells.len()],
            cells,
            probe_interval_ms: 200,
            backoff_initial_ms: 100,
            backoff_max_ms: 5_000,
            crash_loop_threshold: 5,
        }
    }

    /// Validates the template/cell pairing before any process is spawned.
    pub fn validate(&self) -> Result<(), String> {
        if self.cells.is_empty() {
            return Err("supervisor needs at least one cell".to_string());
        }
        if self.commands.len() != self.cells.len() {
            return Err(format!(
                "supervisor has {} command templates for {} cells",
                self.commands.len(),
                self.cells.len()
            ));
        }
        if let Some(idx) = self.commands.iter().position(Vec::is_empty) {
            return Err(format!("cell {idx} has an empty command template"));
        }
        Ok(())
    }
}

/// What the policy decides about a crashed cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RespawnVerdict {
    /// Respawn after this backoff.
    Respawn {
        /// Milliseconds to wait before the respawn.
        delay_ms: u64,
    },
    /// The cell is crash-looping: stop respawning, remap its shard range.
    Quarantine,
}

/// The pure respawn/quarantine policy: exponential backoff over *rapid*
/// crashes (a healthy uptime resets the run), quarantine when the run
/// reaches the crash-loop threshold. Separated from the process machinery
/// so every branch is unit-testable.
#[derive(Debug, Clone, Copy)]
pub struct RespawnPolicy {
    /// First backoff, milliseconds.
    pub backoff_initial_ms: u64,
    /// Backoff cap, milliseconds.
    pub backoff_max_ms: u64,
    /// Rapid crashes that quarantine (0 = never quarantine).
    pub crash_loop_threshold: u32,
}

impl RespawnPolicy {
    /// The rapid-crash run after a crash with the given uptime: a crash
    /// within the window extends the run, a healthy stretch resets it to 1.
    #[must_use]
    pub fn next_run(&self, uptime_ms: u64, rapid_crashes: u32) -> u32 {
        if uptime_ms < CRASH_LOOP_WINDOW_MS {
            rapid_crashes.saturating_add(1)
        } else {
            1
        }
    }

    /// Backoff before respawn number `rapid_crashes` of a run: doubles per
    /// crash from `backoff_initial_ms`, capped at `backoff_max_ms`.
    #[must_use]
    pub fn backoff_ms(&self, rapid_crashes: u32) -> u64 {
        let doublings = rapid_crashes.saturating_sub(1).min(63);
        self.backoff_initial_ms
            .saturating_mul(1u64 << doublings)
            .min(self.backoff_max_ms)
    }

    /// Verdict for a crash: the uptime extends (or resets) the rapid-crash
    /// run, and a run at the threshold quarantines the cell.
    #[must_use]
    pub fn verdict(&self, uptime_ms: u64, rapid_crashes: u32) -> (RespawnVerdict, u32) {
        let run = self.next_run(uptime_ms, rapid_crashes);
        if self.crash_loop_threshold > 0 && run >= self.crash_loop_threshold {
            (RespawnVerdict::Quarantine, run)
        } else {
            (
                RespawnVerdict::Respawn {
                    delay_ms: self.backoff_ms(run),
                },
                run,
            )
        }
    }
}

/// One supervised cell's process state.
struct CellProcess {
    addr: String,
    command: Vec<String>,
    child: Option<Child>,
    spawned_at: Instant,
    /// Pending respawn: spawn when this instant passes.
    respawn_due: Option<Instant>,
    rapid_crashes: u32,
    consecutive_probe_failures: u32,
    last_probe: Instant,
    /// Whether this cell ever answered a probe since its last spawn — the
    /// startup gate waits on this.
    healthy_once: bool,
    respawns: u64,
    probe_failures: u64,
    last_exit: Option<String>,
}

/// Serialisable per-cell supervision state, reported in the router's
/// `/metrics` under `"supervisor"`.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct SupervisedCellSnapshot {
    /// The cell's address.
    pub addr: String,
    /// Whether a child process is currently running.
    pub alive: bool,
    /// Whether the cell is quarantined (shard range remapped away).
    pub quarantined: bool,
    /// Times this cell was respawned.
    pub respawns: u64,
    /// Failed health probes against this cell.
    pub probe_failures: u64,
    /// Length of the current rapid-crash run.
    pub rapid_crashes: u32,
    /// Exit status of the last observed death, if any.
    pub last_exit: Option<String>,
}

/// Shared state between the supervisor handle and its monitor thread.
struct Shared {
    cells: Vec<Mutex<CellProcess>>,
    quarantined: Arc<Vec<AtomicBool>>,
    policy: RespawnPolicy,
    config: SupervisorConfig,
    metrics: Arc<Metrics>,
    stop: AtomicBool,
    lock_recoveries: AtomicU64,
}

/// A running fleet supervisor. Dropping it kills every remaining child —
/// supervised cells never outlive their supervisor.
pub struct Supervisor {
    shared: Arc<Shared>,
    monitor: Mutex<Option<JoinHandle<()>>>,
}

impl std::fmt::Debug for Supervisor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Supervisor")
            .field("cells", &self.shared.config.cells)
            .finish()
    }
}

/// Monitor scan period: bounds crash detection latency.
const TICK: Duration = Duration::from_millis(20);

impl Supervisor {
    /// Spawns every cell and the monitor thread. Call
    /// [`Supervisor::wait_ready`] before routing traffic.
    ///
    /// `metrics` receives the fleet counters (`cell_respawns`,
    /// `crash_loops_quarantined`, `health_probe_failures`) — pass the
    /// router's metrics handle so they surface under its `/metrics`.
    pub fn start(config: SupervisorConfig, metrics: Arc<Metrics>) -> Result<Supervisor, String> {
        config.validate()?;
        let policy = RespawnPolicy {
            backoff_initial_ms: config.backoff_initial_ms,
            backoff_max_ms: config.backoff_max_ms,
            crash_loop_threshold: config.crash_loop_threshold,
        };
        let now = Instant::now();
        let mut cells = Vec::with_capacity(config.cells.len());
        for (addr, command) in config.cells.iter().zip(&config.commands) {
            let mut cell = CellProcess {
                addr: addr.clone(),
                command: command.clone(),
                child: None,
                spawned_at: now,
                respawn_due: None,
                rapid_crashes: 0,
                consecutive_probe_failures: 0,
                last_probe: now,
                healthy_once: false,
                respawns: 0,
                probe_failures: 0,
                last_exit: None,
            };
            spawn_cell(&mut cell);
            cells.push(Mutex::new(cell));
        }
        let quarantined = Arc::new(
            (0..config.cells.len())
                .map(|_| AtomicBool::new(false))
                .collect::<Vec<_>>(),
        );
        let shared = Arc::new(Shared {
            cells,
            quarantined,
            policy,
            config,
            metrics,
            stop: AtomicBool::new(false),
            lock_recoveries: AtomicU64::new(0),
        });
        let monitor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("mqo-supervisor".to_string())
                .spawn(move || monitor_loop(&shared))
                .map_err(|e| format!("cannot spawn supervisor monitor: {e}"))?
        };
        Ok(Supervisor {
            shared,
            monitor: Mutex::new(Some(monitor)),
        })
    }

    /// Blocks until every cell has either answered a `/healthz` probe or
    /// been quarantined, or the startup timeout elapsed. At least one cell
    /// must be healthy for the fleet to be usable.
    pub fn wait_ready(&self) -> Result<(), String> {
        let deadline = Instant::now() + Duration::from_millis(STARTUP_TIMEOUT_MS);
        loop {
            let mut healthy = 0usize;
            let mut settled = 0usize;
            for (idx, cell) in self.shared.cells.iter().enumerate() {
                if self.shared.quarantined[idx].load(Ordering::SeqCst) {
                    settled += 1;
                    continue;
                }
                if lock_recover(cell, &self.shared.lock_recoveries).healthy_once {
                    healthy += 1;
                    settled += 1;
                }
            }
            if settled == self.shared.cells.len() {
                return if healthy > 0 {
                    Ok(())
                } else {
                    Err("every supervised cell was quarantined at startup".to_string())
                };
            }
            if Instant::now() >= deadline {
                return Err(format!(
                    "supervised fleet not ready within {STARTUP_TIMEOUT_MS} ms \
                     ({healthy}/{} cells healthy)",
                    self.shared.cells.len()
                ));
            }
            std::thread::sleep(TICK);
        }
    }

    /// Per-cell quarantine flags, index-aligned with the cell list. The
    /// router's fleet holds a clone and skips flagged cells during shard
    /// fall-through — that skip *is* the shard-range remap.
    #[must_use]
    pub fn quarantine_flags(&self) -> Arc<Vec<AtomicBool>> {
        Arc::clone(&self.shared.quarantined)
    }

    /// SIGKILLs cell `idx`'s process (no graceful drain — that is the
    /// point). The monitor observes the death and schedules the respawn.
    /// Returns whether a live child was signalled: `false` for an index out
    /// of range, a cell waiting out its respawn backoff, or one already
    /// dead but not yet reaped.
    pub fn kill_cell(&self, idx: usize) -> bool {
        let Some(cell) = self.shared.cells.get(idx) else {
            return false;
        };
        let mut cell = lock_recover(cell, &self.shared.lock_recoveries);
        let Some(child) = cell.child.as_mut() else {
            return false;
        };
        // `try_wait` caches an exit status, so the monitor still sees a
        // death this call observed first.
        matches!(child.try_wait(), Ok(None)) && child.kill().is_ok()
    }

    /// Serialisable supervision state of every cell.
    #[must_use]
    pub fn snapshots(&self) -> Vec<SupervisedCellSnapshot> {
        self.shared
            .cells
            .iter()
            .enumerate()
            .map(|(idx, cell)| {
                let mut cell = lock_recover(cell, &self.shared.lock_recoveries);
                let alive = match cell.child.as_mut() {
                    Some(child) => child.try_wait().ok().flatten().is_none(),
                    None => false,
                };
                SupervisedCellSnapshot {
                    addr: cell.addr.clone(),
                    alive,
                    quarantined: self.shared.quarantined[idx].load(Ordering::SeqCst),
                    respawns: cell.respawns,
                    probe_failures: cell.probe_failures,
                    rapid_crashes: cell.rapid_crashes,
                    last_exit: cell.last_exit.clone(),
                }
            })
            .collect()
    }

    /// Stops the monitor, asks every live cell to drain (`POST /shutdown`
    /// with the probe deadline), waits briefly, then kills stragglers.
    /// Returns one line per cell describing how it went down.
    pub fn shutdown(&self) -> Vec<String> {
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = lock_recover(&self.monitor, &self.shared.lock_recoveries).take() {
            let _ = handle.join();
        }
        let timeout = Duration::from_millis(PROBE_TIMEOUT_MS);
        let mut report = Vec::with_capacity(self.shared.cells.len());
        for cell in &self.shared.cells {
            let mut cell = lock_recover(cell, &self.shared.lock_recoveries);
            let Some(mut child) = cell.child.take() else {
                report.push(format!("cell {}: already down", cell.addr));
                continue;
            };
            let drained = probe(&cell.addr, "POST", "/shutdown", timeout);
            // Give a drained cell up to ~2 s to exit on its own.
            let mut exited = false;
            if drained {
                for _ in 0..100 {
                    if matches!(child.try_wait(), Ok(Some(_))) {
                        exited = true;
                        break;
                    }
                    std::thread::sleep(TICK);
                }
            }
            if exited {
                report.push(format!("cell {}: drained and stopped", cell.addr));
            } else {
                let _ = child.kill();
                let _ = child.wait();
                report.push(format!("cell {}: killed", cell.addr));
            }
        }
        report
    }
}

impl Drop for Supervisor {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = lock_recover(&self.monitor, &self.shared.lock_recoveries).take() {
            let _ = handle.join();
        }
        for cell in &self.shared.cells {
            let mut cell = lock_recover(cell, &self.shared.lock_recoveries);
            if let Some(mut child) = cell.child.take() {
                let _ = child.kill();
                let _ = child.wait();
            }
        }
    }
}

/// Spawns (or respawns) a cell's process from its template. A spawn error
/// is recorded as an instant exit so the crash-loop policy sees it.
fn spawn_cell(cell: &mut CellProcess) {
    let argv: Vec<String> = cell
        .command
        .iter()
        .map(|part| part.replace(ADDR_PLACEHOLDER, &cell.addr))
        .collect();
    cell.spawned_at = Instant::now();
    cell.respawn_due = None;
    cell.consecutive_probe_failures = 0;
    cell.healthy_once = false;
    cell.last_probe = cell.spawned_at;
    // Stdin is a pipe this process holds open (the `Child` keeps the write
    // end): if the supervisor dies — even by SIGKILL, where no cleanup
    // runs — the pipe closes and a watchdog-aware cell (`MQO_SUPERVISED`)
    // sees EOF and drains itself instead of leaking as an orphan.
    match Command::new(&argv[0])
        .args(&argv[1..])
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .env("MQO_SUPERVISED", "1")
        .spawn()
    {
        Ok(child) => cell.child = Some(child),
        Err(e) => {
            cell.child = None;
            cell.last_exit = Some(format!("spawn failed: {e}"));
        }
    }
}

/// One deadline-bounded HTTP exchange against a cell; `true` on any HTTP
/// answer (the cell is alive), `false` on connect/read failure or timeout.
fn probe(addr: &str, method: &str, path: &str, timeout: Duration) -> bool {
    let Ok(mut addrs) = std::net::ToSocketAddrs::to_socket_addrs(&addr) else {
        return false;
    };
    let Some(sock) = addrs.next() else {
        return false;
    };
    let Ok(mut stream) = TcpStream::connect_timeout(&sock, timeout) else {
        return false;
    };
    let _ = stream.set_read_timeout(Some(timeout));
    let _ = stream.set_write_timeout(Some(timeout));
    if stream
        .write_all(&render_request(method, path, addr, b"", true))
        .is_err()
    {
        return false;
    }
    let mut reader = std::io::BufReader::new(stream);
    read_response(&mut reader, HttpLimits::default().max_body).is_ok()
}

/// The monitor: detects exits, probes health, respawns with backoff,
/// quarantines crash loops.
fn monitor_loop(shared: &Shared) {
    while !shared.stop.load(Ordering::SeqCst) {
        for (idx, slot) in shared.cells.iter().enumerate() {
            if shared.quarantined[idx].load(Ordering::SeqCst) {
                continue;
            }
            let mut cell = lock_recover(slot, &shared.lock_recoveries);

            // Pending respawn?
            if let Some(due) = cell.respawn_due {
                if Instant::now() >= due {
                    spawn_cell(&mut cell);
                    cell.respawns += 1;
                    Metrics::inc(&shared.metrics.cell_respawns);
                }
                continue;
            }

            // Exit detection.
            let exited = match cell.child.as_mut() {
                Some(child) => match child.try_wait() {
                    Ok(Some(status)) => Some(status.to_string()),
                    Ok(None) => None,
                    Err(e) => Some(format!("wait failed: {e}")),
                },
                // Spawn itself failed: treat as an instant exit.
                None => Some(
                    cell.last_exit
                        .clone()
                        .unwrap_or_else(|| "never spawned".to_string()),
                ),
            };
            if let Some(exit) = exited {
                cell.child = None;
                cell.last_exit = Some(exit);
                let uptime_ms = cell.spawned_at.elapsed().as_millis() as u64;
                let (verdict, run) = shared.policy.verdict(uptime_ms, cell.rapid_crashes);
                cell.rapid_crashes = run;
                match verdict {
                    RespawnVerdict::Respawn { delay_ms } => {
                        cell.respawn_due = Some(Instant::now() + Duration::from_millis(delay_ms));
                    }
                    RespawnVerdict::Quarantine => {
                        shared.quarantined[idx].store(true, Ordering::SeqCst);
                        Metrics::inc(&shared.metrics.crash_loops_quarantined);
                    }
                }
                continue;
            }

            // Liveness probing.
            let interval = Duration::from_millis(shared.config.probe_interval_ms.max(1));
            if cell.last_probe.elapsed() < interval {
                continue;
            }
            cell.last_probe = Instant::now();
            let timeout = Duration::from_millis(PROBE_TIMEOUT_MS);
            let addr = cell.addr.clone();
            // Probe without holding the cell lock: a slow probe must not
            // block kill_cell/snapshots for its full timeout.
            drop(cell);
            let ok = probe(&addr, "GET", "/healthz", timeout);
            let mut cell = lock_recover(slot, &shared.lock_recoveries);
            if ok {
                cell.consecutive_probe_failures = 0;
                cell.healthy_once = true;
            } else {
                cell.consecutive_probe_failures += 1;
                cell.probe_failures += 1;
                Metrics::inc(&shared.metrics.health_probe_failures);
                if cell.consecutive_probe_failures >= PROBE_FAILURE_THRESHOLD {
                    // Alive but unresponsive: kill and let the next tick's
                    // exit detection route it through the crash policy.
                    if let Some(child) = cell.child.as_mut() {
                        let _ = child.kill();
                    }
                }
            }
        }
        std::thread::sleep(TICK);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> RespawnPolicy {
        RespawnPolicy {
            backoff_initial_ms: 100,
            backoff_max_ms: 1_600,
            crash_loop_threshold: 4,
        }
    }

    #[test]
    fn backoff_doubles_per_rapid_crash_and_caps() {
        let p = policy();
        assert_eq!(p.backoff_ms(1), 100);
        assert_eq!(p.backoff_ms(2), 200);
        assert_eq!(p.backoff_ms(3), 400);
        assert_eq!(p.backoff_ms(5), 1_600, "capped");
        assert_eq!(p.backoff_ms(60), 1_600, "no overflow at large runs");
    }

    #[test]
    fn healthy_uptime_resets_the_rapid_crash_run() {
        let p = policy();
        let (verdict, run) = p.verdict(60_000, 3);
        assert_eq!(run, 1, "a long-lived cell's crash starts a fresh run");
        assert_eq!(verdict, RespawnVerdict::Respawn { delay_ms: 100 });
    }

    #[test]
    fn rapid_crashes_escalate_to_quarantine() {
        let p = policy();
        let mut run = 0;
        let mut delays = Vec::new();
        loop {
            let (verdict, next) = p.verdict(50, run);
            run = next;
            match verdict {
                RespawnVerdict::Respawn { delay_ms } => delays.push(delay_ms),
                RespawnVerdict::Quarantine => break,
            }
        }
        assert_eq!(delays, vec![100, 200, 400], "three backoffs, then gone");
        assert_eq!(run, 4, "quarantined at the threshold");
    }

    #[test]
    fn zero_threshold_never_quarantines() {
        let p = RespawnPolicy {
            crash_loop_threshold: 0,
            ..policy()
        };
        let mut run = 0;
        for _ in 0..50 {
            let (verdict, next) = p.verdict(0, run);
            run = next;
            assert!(matches!(verdict, RespawnVerdict::Respawn { .. }));
        }
        assert_eq!(run, 50);
    }

    #[test]
    fn config_validation_catches_mismatches() {
        let ok = SupervisorConfig::new(
            vec!["mqo_serve".to_string(), ADDR_PLACEHOLDER.to_string()],
            vec!["127.0.0.1:1".to_string(), "127.0.0.1:2".to_string()],
        );
        assert!(ok.validate().is_ok());
        assert_eq!(ok.commands.len(), 2, "template is replicated per cell");

        let mut mismatched = ok.clone();
        mismatched.commands.pop();
        assert!(mismatched.validate().is_err());

        let mut empty_template = ok.clone();
        empty_template.commands[1].clear();
        assert!(empty_template.validate().is_err());

        let mut no_cells = ok;
        no_cells.cells.clear();
        no_cells.commands.clear();
        assert!(no_cells.validate().is_err());
    }

    #[test]
    fn spawn_failure_is_recorded_as_an_instant_exit() {
        let now = Instant::now();
        let mut cell = CellProcess {
            addr: "127.0.0.1:1".to_string(),
            command: vec!["/nonexistent/mqo-test-binary".to_string()],
            child: None,
            spawned_at: now,
            respawn_due: None,
            rapid_crashes: 0,
            consecutive_probe_failures: 0,
            last_probe: now,
            healthy_once: false,
            respawns: 0,
            probe_failures: 0,
            last_exit: None,
        };
        spawn_cell(&mut cell);
        assert!(cell.child.is_none());
        assert!(
            cell.last_exit
                .as_deref()
                .is_some_and(|e| e.contains("spawn failed")),
            "{:?}",
            cell.last_exit
        );
    }
}
