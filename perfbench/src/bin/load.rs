//! `load` — one benchmark run of one workload against the shipped serving
//! binaries with their default flags: `mqo_serve`, or `mqo_router` in front
//! of two `mqo_serve` cells for `fleet-small`.
//!
//! ```text
//! load --bin-dir DIR --out-dir DIR --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! A run is five rounds. Each round sets up from scratch (instances, proven
//! optima, server start, warm-up; the median is `setup_s`) and then serves
//! a fifth of the timed phase. Load comes from this process alone: two
//! client threads, one keep-alive connection each, closed loop with eight
//! requests in flight per connection. Every 200 answer passes the
//! correctness gate. With `--trace 1` the run also reports per-layer rows
//! from `/metrics` and response fields, and replays the timed requests
//! stage by stage through the `stages` binary.
//!
//! Wall-clock figures are given in unstolen time: the time the hypervisor
//! actually ran this guest. On a shared host it can take a large and
//! changing share of the guest's CPU time (`steal` in `/proc/stat`), and
//! that would move every wall-clock figure without any change to the
//! program. Each round's segment is cut into four equal windows (one
//! second each in a 20-second run); a window's rate is divided, and each
//! of its answers' latencies multiplied, by `1 − s`, where `s` is the share
//! of the guest's wanted CPU time stolen in that window. Set-up times are
//! scaled the same way. Scaling does not undo a whole-millisecond stall of
//! one process in the chain, which shows in the tail, so only the
//! least-stolen half of the run's windows is kept: rate and CPU per solve
//! are medians over the kept windows, and latency p50 and p99 are taken
//! over every answer read inside them (thousands, so p99 keeps at least
//! ten beyond it; the printed summary names the percentile and count). The
//! wall-clock figures are printed beside them.

use mqo_core::ids::PlanId;
use mqo_core::solution::Selection;
use mqo_perfbench::metrics::result_line;
use mqo_perfbench::provenance;
use mqo_perfbench::stats::Summary;
use mqo_perfbench::workload::{self, Instance, Workload, CONNECTIONS, WINDOW};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Set-up rounds per run; `setup_s` is their median. Each set-up serves one
/// equal segment of the timed phase, so a run samples several fresh sets of
/// server processes rather than one.
const SEGMENTS: usize = 5;
/// Linux `USER_HZ`: the unit of `/proc/<pid>/stat` CPU times.
const TICKS_PER_S: f64 = 100.0;
/// Equal time windows each segment is cut into, each with its own stolen
/// share. Rate, latency and CPU per solve come from the least-stolen half
/// of the run's windows.
const SEGMENT_WINDOWS: usize = 4;
/// Instances of the one-request-in-flight router hop probe. Sending them
/// straight to the first cell adds at most this many structures to its
/// embedding cache, which stays below capacity.
const HOP_INSTANCES: usize = 16;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    bin_dir: PathBuf,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut bin_dir = None;
    let mut out_dir = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("not a u64"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("not a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("must lie in (0, 600]"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                })
            }
            "--bin-dir" => bin_dir = Some(PathBuf::from(value)),
            "--out-dir" => out_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        bin_dir: bin_dir.ok_or("--bin-dir is required")?,
        out_dir: out_dir.ok_or("--out-dir is required")?,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("load: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(correct) => std::process::exit(if correct { 0 } else { 1 }),
        Err(e) => {
            eprintln!("load: {e}");
            std::process::exit(2);
        }
    }
}

// ---- serving processes ----------------------------------------------------

/// One child server; its stdout is drained by a reader thread.
struct Server {
    child: Child,
    addr: SocketAddr,
    stdout: Option<JoinHandle<()>>,
}

impl Server {
    /// Spawns `bin args…` and waits for its `listening on ADDR` line.
    fn spawn(bin: &Path, args: &[String], log: &Path) -> Result<Server, String> {
        let log_file = std::fs::File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
        let mut child = Command::new(bin)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(log_file)
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, rx) = std::sync::mpsc::channel();
        let reader = std::thread::spawn(move || {
            let mut tx = Some(tx);
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                if let Some(addr) = line.strip_prefix("listening on ") {
                    if let Some(tx) = tx.take() {
                        let _ = tx.send(addr.to_string());
                    }
                }
            }
        });
        let mut server = Server {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            stdout: Some(reader),
        };
        match rx.recv_timeout(Duration::from_secs(30)) {
            Ok(addr) => {
                server.addr = addr
                    .parse()
                    .map_err(|e| format!("bad address {addr:?}: {e}"))?;
                Ok(server)
            }
            Err(_) => Err(format!("{} never printed `listening on`", bin.display())),
        }
    }

    /// Asks the server to drain and waits for it to exit.
    fn shutdown(mut self) -> Result<(), String> {
        let _ = http(self.addr, "POST", "/shutdown");
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => break,
                Ok(Some(status)) => {
                    return Err(format!("server {} exited with {status}", self.addr))
                }
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => return Err(format!("server {} did not drain", self.addr)),
            }
        }
        if let Some(reader) = self.stdout.take() {
            let _ = reader.join();
        }
        Ok(())
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // A server still running here was not shut down cleanly: stop it.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(reader) = self.stdout.take() {
            let _ = reader.join();
        }
    }
}

/// The serving processes of one set-up.
struct Fleet {
    /// Cells first, then the router (if any).
    servers: Vec<Server>,
    /// Where clients connect: the router, or the only cell.
    front: SocketAddr,
}

impl Fleet {
    fn start(args: &Args, round: usize) -> Result<Fleet, String> {
        let log = |name: &str| {
            args.out_dir.join(format!(
                "{}-seed{}-{name}-{round}.log",
                args.workload.name(),
                args.seed
            ))
        };
        let listen = vec!["--addr".to_string(), "127.0.0.1:0".to_string()];
        let serve = args.bin_dir.join("mqo_serve");
        let mut servers = Vec::new();
        if args.workload.fleet() {
            for cell in 0..2 {
                servers.push(Server::spawn(
                    &serve,
                    &listen,
                    &log(&format!("cell{cell}")),
                )?);
            }
            let cells = format!("{},{}", servers[0].addr, servers[1].addr);
            let mut router_args = vec!["--cells".to_string(), cells];
            router_args.extend(listen);
            servers.push(Server::spawn(
                &args.bin_dir.join("mqo_router"),
                &router_args,
                &log("router"),
            )?);
        } else {
            servers.push(Server::spawn(&serve, &listen, &log("cell0"))?);
        }
        let front = servers.last().expect("at least one server").addr;
        Ok(Fleet { servers, front })
    }

    /// The first cell, for requests that bypass the router.
    fn cell(&self) -> SocketAddr {
        self.servers[0].addr
    }

    /// Drains the router first, then the cells.
    fn shutdown(mut self) -> Result<(), String> {
        while let Some(server) = self.servers.pop() {
            server.shutdown()?;
        }
        Ok(())
    }
}

/// `/metrics` counters of every serving process at one instant.
struct Snapshot {
    /// `/metrics` `service` object per server.
    metrics: Vec<serde_json::Value>,
}

impl Snapshot {
    fn take(fleet: &Fleet) -> Result<Snapshot, String> {
        let mut metrics = Vec::new();
        for s in &fleet.servers {
            let (status, body) = http(s.addr, "GET", "/metrics")?;
            if status != 200 {
                return Err(format!("GET /metrics on {}: status {status}", s.addr));
            }
            let v: serde_json::Value =
                serde_json::from_slice(&body).map_err(|e| format!("/metrics: {e}"))?;
            metrics.push(v["service"].clone());
        }
        Ok(Snapshot { metrics })
    }

    /// Sum of counter `key` over every server.
    fn counter(&self, key: &str) -> f64 {
        self.metrics
            .iter()
            .map(|m| m[key].as_f64().unwrap_or(0.0))
            .sum()
    }
}

fn cpu_ticks(pid: u32) -> Result<u64, String> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .map_err(|e| format!("/proc/{pid}/stat: {e}"))?;
    // Fields after the parenthesised command: state is field 3, utime 14,
    // stime 15.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let field = |i: usize| -> Result<u64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse().ok())
            .ok_or_else(|| format!("/proc/{pid}/stat: no field {}", i + 3))
    };
    Ok(field(11)? + field(12)?)
}

fn peak_rss_kb(pid: u32) -> Result<u64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("/proc/{pid}/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("/proc/{pid}/status: no VmHWM"))
}

// ---- HTTP client ------------------------------------------------------------

/// Reads one `content-length`-framed response: `(status, body)`.
fn read_response(reader: &mut impl BufRead) -> std::io::Result<(u16, Vec<u8>)> {
    let invalid =
        |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(std::io::ErrorKind::UnexpectedEof.into());
    }
    let status = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| invalid("bad status line"))?;
    let mut length = 0usize;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                length = value
                    .trim()
                    .parse()
                    .map_err(|_| invalid("bad content-length"))?;
            }
        }
    }
    let mut body = vec![0u8; length];
    reader.read_exact(&mut body)?;
    Ok((status, body))
}

/// One exchange on a fresh connection (`connection: close`).
fn http(addr: SocketAddr, method: &str, path: &str) -> Result<(u16, Vec<u8>), String> {
    let exchange = || -> std::io::Result<(u16, Vec<u8>)> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        write!(
            stream,
            "{method} {path} HTTP/1.1\r\nhost: {addr}\r\ncontent-length: 0\r\nconnection: close\r\n\r\n"
        )?;
        read_response(&mut BufReader::new(stream))
    };
    exchange().map_err(|e| format!("{method} {path} on {addr}: {e}"))
}

/// One answered (or failed) request of a phase.
struct Exchange {
    index: usize,
    /// From the write of the request to the read of its own response.
    latency_us: f64,
    /// HTTP status; 0 for a transport error.
    status: u16,
    body: Vec<u8>,
    done: Instant,
}

struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: SocketAddr) -> Result<Conn, String> {
        let open = || -> std::io::Result<Conn> {
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(Duration::from_secs(60)))?;
            Ok(Conn {
                writer: stream.try_clone()?,
                reader: BufReader::new(stream),
            })
        };
        open().map_err(|e| format!("connecting to {addr}: {e}"))
    }
}

/// Drives one closed-loop phase: [`CONNECTIONS`] client threads, each with
/// one keep-alive connection and up to [`WINDOW`] requests in flight.
/// Ticket `k` (shared counter) sends request `pick(k)`; a thread stops
/// issuing at `deadline` or when `pick` runs dry, then drains what it has
/// in flight.
fn drive(
    addr: SocketAddr,
    deadline: Option<Instant>,
    pick: &(dyn Fn(usize) -> Option<usize> + Sync),
    wire: &(dyn Fn(usize) -> Vec<u8> + Sync),
) -> Result<(Vec<Exchange>, usize), String> {
    let next = AtomicUsize::new(0);
    let sent = AtomicUsize::new(0);
    let results = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..CONNECTIONS)
            .map(|_| scope.spawn(|| client(addr, WINDOW, deadline, &next, &sent, pick, wire)))
            .collect();
        threads
            .into_iter()
            .map(|t| {
                t.join()
                    .unwrap_or_else(|_| Err("client thread panicked".to_string()))
            })
            .collect::<Vec<_>>()
    });
    let mut all = Vec::new();
    for r in results {
        all.extend(r?);
    }
    Ok((all, sent.load(Ordering::SeqCst)))
}

fn client(
    addr: SocketAddr,
    window: usize,
    deadline: Option<Instant>,
    next: &AtomicUsize,
    sent: &AtomicUsize,
    pick: &(dyn Fn(usize) -> Option<usize> + Sync),
    wire: &(dyn Fn(usize) -> Vec<u8> + Sync),
) -> Result<Vec<Exchange>, String> {
    let mut conn = Conn::open(addr)?;
    let mut inflight: VecDeque<(usize, Instant)> = VecDeque::new();
    let mut out = Vec::new();
    let mut exhausted = false;
    let fail_all = |inflight: &mut VecDeque<(usize, Instant)>, out: &mut Vec<Exchange>| {
        let done = Instant::now();
        for (index, sent_at) in inflight.drain(..) {
            out.push(Exchange {
                index,
                latency_us: (done - sent_at).as_secs_f64() * 1e6,
                status: 0,
                body: Vec::new(),
                done,
            });
        }
    };
    loop {
        while !exhausted && inflight.len() < window && deadline.is_none_or(|d| Instant::now() < d) {
            let Some(index) = pick(next.fetch_add(1, Ordering::Relaxed)) else {
                exhausted = true;
                break;
            };
            let bytes = wire(index);
            sent.fetch_add(1, Ordering::SeqCst);
            inflight.push_back((index, Instant::now()));
            if conn.writer.write_all(&bytes).is_err() {
                fail_all(&mut inflight, &mut out);
                conn = Conn::open(addr)?;
            }
        }
        let Some(&(index, sent_at)) = inflight.front() else {
            break;
        };
        match read_response(&mut conn.reader) {
            Ok((status, body)) => {
                inflight.pop_front();
                let done = Instant::now();
                out.push(Exchange {
                    index,
                    latency_us: (done - sent_at).as_secs_f64() * 1e6,
                    status,
                    body,
                    done,
                });
            }
            Err(_) => {
                fail_all(&mut inflight, &mut out);
                conn = Conn::open(addr)?;
            }
        }
    }
    Ok(out)
}

// ---- correctness gate --------------------------------------------------------

/// A 200 answer that passed the gate.
struct Served {
    index: usize,
    /// Seconds from the phase start to the read of the response.
    at_s: f64,
    latency_us: f64,
    selection: Vec<u32>,
    cost: f64,
    optimum: f64,
    cache_hit: bool,
    wall_us: f64,
    queue_wait_us: f64,
}

/// The gated outcomes of one phase.
struct Phase {
    sent: usize,
    served: Vec<Served>,
    failed: usize,
}

/// The correctness gate: every 200 answer is a feasible selection whose
/// cost equals a from-scratch `selection_cost` and never undercuts the
/// proven optimum; outcomes partition the requests sent. Violations name
/// the request.
fn gate(
    name: &str,
    exchanges: Vec<Exchange>,
    sent: usize,
    started: Instant,
    pool: &[Instance],
    violations: &mut Vec<String>,
) -> Phase {
    let mut indices: Vec<usize> = exchanges.iter().map(|e| e.index).collect();
    indices.sort_unstable();
    if let Some(w) = indices.windows(2).find(|w| w[0] == w[1]) {
        violations.push(format!("{name}: request {} has two outcomes", w[0]));
    }
    if exchanges.len() != sent {
        violations.push(format!(
            "{name}: {sent} requests sent but {} outcomes",
            exchanges.len()
        ));
    }
    let mut served = Vec::new();
    let mut failed = 0;
    for ex in exchanges {
        if ex.status != 200 {
            failed += 1;
            continue;
        }
        match check_answer(&ex, pool, started) {
            Ok(s) => served.push(s),
            Err(e) => violations.push(format!("{name}: request {}: {e}", ex.index)),
        }
    }
    Phase {
        sent,
        served,
        failed,
    }
}

fn check_answer(ex: &Exchange, pool: &[Instance], started: Instant) -> Result<Served, String> {
    let v: serde_json::Value =
        serde_json::from_slice(&ex.body).map_err(|e| format!("unparseable answer: {e}"))?;
    let number = |key: &str| {
        v[key]
            .as_f64()
            .ok_or_else(|| format!("answer lacks `{key}`"))
    };
    let selection: Vec<u32> = match &v["selection"] {
        serde_json::Value::Array(items) => items
            .iter()
            .map(|p| p.as_u64().and_then(|p| u32::try_from(p).ok()))
            .collect::<Option<_>>()
            .ok_or("selection holds a non-plan id")?,
        _ => return Err("answer lacks `selection`".to_string()),
    };
    let cost = number("cost")?;
    let instance = &pool[ex.index % pool.len()];
    let plans = Selection::new(selection.iter().map(|&p| PlanId(p)).collect());
    instance
        .problem
        .validate_selection(&plans)
        .map_err(|e| format!("infeasible selection {selection:?}: {e}"))?;
    let recomputed = instance.problem.selection_cost(&plans);
    if cost != recomputed {
        return Err(format!(
            "reported cost {cost} but the selection costs {recomputed}"
        ));
    }
    if cost < instance.optimum {
        return Err(format!(
            "cost {cost} undercuts the proven optimum {}",
            instance.optimum
        ));
    }
    Ok(Served {
        index: ex.index,
        at_s: (ex.done - started).as_secs_f64(),
        latency_us: ex.latency_us,
        selection,
        cost,
        optimum: instance.optimum,
        cache_hit: v["cache_hit"].as_bool().ok_or("answer lacks `cache_hit`")?,
        wall_us: number("wall_us")?,
        queue_wait_us: number("queue_wait_us")?,
    })
}

// ---- the run -------------------------------------------------------------------

fn summary(values: impl Iterator<Item = f64>) -> Summary {
    Summary::of(&values.collect::<Vec<f64>>())
}

fn run(args: &Args) -> Result<bool, String> {
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("{}: {e}", args.out_dir.display()))?;
    let w = args.workload;
    let seed = args.seed;
    println!("{{\"provenance\":{}}}", provenance::json(w.name(), seed));
    let mut violations = Vec::new();
    let warmup = w.warmup_requests();
    let segment_s = args.seconds / SEGMENTS as f64;

    // Each round: set-up (generate, prove optima, start, warm up), then one
    // segment of the timed phase on those fresh processes.
    let mut setups = Vec::new();
    let mut wall_setups = Vec::new();
    let mut segments = Vec::new();
    let mut next = warmup;
    let mut live: Option<(Fleet, Vec<Instance>)> = None;
    for round in 0..SEGMENTS {
        if let Some((fleet, _)) = live.take() {
            fleet.shutdown()?;
        }
        let started = Instant::now();
        let ticks = host_ticks()?;
        let pool = workload::instances(w, seed)?;
        let fleet = Fleet::start(args, round)?;
        let host = fleet.front.to_string();
        let wire =
            |i: usize| workload::http_request(&host, &workload::request_body(w, seed, &pool, i));
        let warm_start = Instant::now();
        let (ex, sent) = drive(fleet.front, None, &|k| (k < warmup).then_some(k), &wire)?;
        let wall = started.elapsed().as_secs_f64();
        wall_setups.push(wall);
        setups.push(wall * (1.0 - stolen_share(ticks, host_ticks()?)));
        let warm = gate("warm-up", ex, sent, warm_start, &pool, &mut violations);
        let segment = timed_segment(&fleet, &pool, &wire, next, segment_s, &mut violations)?;
        next += segment.phase.sent;
        println!(
            "round {round}: pool {} instances, {} structures; warm-up sent {}, succeeded {}, failed {}; \
             timed segment sent {}, succeeded {}, failed {}",
            pool.len(),
            workload::structures(&pool),
            warm.sent,
            warm.served.len(),
            warm.failed,
            segment.phase.sent,
            segment.phase.served.len(),
            segment.phase.failed
        );
        segments.push(segment);
        live = Some((fleet, pool));
    }
    let (fleet, pool) = live.expect("at least one round");

    // Traced runs measure the router hop on the last round's processes.
    let hop = if args.trace {
        hop_ms(args, &fleet, &pool, next, &mut violations)?
    } else {
        0.0
    };
    fleet.shutdown()?;

    let mut windows = Vec::new();
    let mut timed = Phase {
        sent: 0,
        served: Vec::new(),
        failed: 0,
    };
    for s in &mut segments {
        windows.append(&mut s.windows);
        timed.sent += s.phase.sent;
        timed.failed += s.phase.failed;
        timed.served.append(&mut s.phase.served);
    }
    let median = |v: Vec<f64>| summary(v.into_iter()).median;
    let rss_kb = median(segments.iter().map(|s| s.rss_kb as f64).collect());
    let delta = |key: &str| -> f64 {
        segments
            .iter()
            .map(|s| s.after.counter(key) - s.before.counter(key))
            .sum()
    };
    let solves = timed.served.len().max(1) as f64;
    let wall_latency = summary(timed.served.iter().map(|s| s.latency_us / 1e3));
    let gap_pct = timed
        .served
        .iter()
        .map(|s| (s.cost - s.optimum) / s.optimum * 100.0)
        .sum::<f64>()
        / solves;
    let show = |v: Vec<f64>| {
        v.iter()
            .map(|x| format!("{x:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!(
        "timed: sent {}, succeeded {}, failed {} (failed_share {})",
        timed.sent,
        timed.served.len(),
        timed.failed,
        timed.failed as f64 / timed.sent.max(1) as f64
    );
    println!("latency_ms, wall clock, every answer: {wall_latency}");
    // The least-stolen half of the windows; ties keep the earlier window.
    let mut kept: Vec<&Window> = windows.iter().collect();
    kept.sort_by(|a, b| a.stolen.total_cmp(&b.stolen));
    kept.truncate(windows.len().div_ceil(2));
    let latency = summary(kept.iter().flat_map(|w| w.latency_ms.iter().copied()));
    println!(
        "kept windows: {}, stolen share at most {:.4}; latency_ms, unstolen: {latency}",
        kept.len(),
        kept.last().map_or(0.0, |w| w.stolen)
    );
    println!(
        "windows: solves/s wall clock [{}]",
        show(windows.iter().map(|w| w.wall_rate).collect())
    );
    println!(
        "windows: solves/s unstolen [{}]",
        show(windows.iter().map(|w| w.rate).collect())
    );
    println!(
        "windows: cpu ms/solve [{}]",
        show(windows.iter().map(|w| w.cpu_ms_per_solve).collect())
    );
    println!(
        "windows: stolen share [{}]",
        show(windows.iter().map(|w| w.stolen).collect())
    );
    println!(
        "setup_s: wall clock [{}], unstolen [{}]; quality_gap_pct {gap_pct}",
        show(wall_setups),
        show(setups.clone())
    );
    let end_to_end = [
        (
            "solves_per_s",
            median(kept.iter().map(|w| w.rate).collect()),
        ),
        ("latency_p50_ms", latency.median),
        ("latency_p99_ms", latency.tail_or_median()),
        (
            "cpu_ms_per_solve",
            median(kept.iter().map(|w| w.cpu_ms_per_solve).collect()),
        ),
        ("cost_vs_optimum_pct", 100.0 + gap_pct),
        ("setup_s", median(setups)),
        ("peak_rss_mb", rss_kb / 1024.0),
    ];

    let mut correct = violations.is_empty();
    let values: Vec<(&str, f64)> = if args.trace {
        let mut rows = served_rows(&timed, &delta);
        rows.push(("shard.hop_ms", hop));
        let (stage_rows, faithful) = replay(args, &timed)?;
        correct = correct && faithful;
        rows.extend(stage_rows);
        rows
    } else {
        end_to_end.to_vec()
    };
    for v in &violations {
        eprintln!("load: violation: {v}");
    }
    println!(
        "{}",
        result_line(correct, timed.sent, timed.failed, &values)
    );
    Ok(correct)
}

/// One segment of the timed phase on one set-up's processes.
struct Segment {
    phase: Phase,
    windows: Vec<Window>,
    before: Snapshot,
    after: Snapshot,
    /// Summed `VmHWM` of the serving processes at the segment's end.
    rss_kb: u64,
}

/// Runs `seconds` of closed-loop load from request `first` on, with the
/// serving processes' CPU sampled at every window boundary.
fn timed_segment(
    fleet: &Fleet,
    pool: &[Instance],
    wire: &(dyn Fn(usize) -> Vec<u8> + Sync),
    first: usize,
    seconds: f64,
    violations: &mut Vec<String>,
) -> Result<Segment, String> {
    let before = Snapshot::take(fleet)?;
    let pids: Vec<u32> = fleet.servers.iter().map(Server::pid).collect();
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let (driven, cpu) = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| sample_cpu(&pids, started, seconds));
        let driven = drive(fleet.front, Some(deadline), &|k| Some(first + k), wire);
        let cpu = sampler
            .join()
            .unwrap_or_else(|_| Err("CPU sampler panicked".to_string()));
        (driven, cpu)
    });
    let (ex, sent) = driven?;
    let after = Snapshot::take(fleet)?;
    let phase = gate("timed", ex, sent, started, pool, violations);
    let rss_kb = fleet
        .servers
        .iter()
        .map(|s| peak_rss_kb(s.pid()))
        .sum::<Result<u64, String>>()?;
    Ok(Segment {
        windows: windows(&phase.served, seconds, &cpu?),
        phase,
        before,
        after,
        rss_kb,
    })
}

/// CPU ticks at one window boundary.
#[derive(Clone, Copy)]
struct CpuSample {
    /// User plus system ticks of the serving processes.
    serving: u64,
    host: HostTicks,
}

/// Samples CPU ticks at each of the `SEGMENT_WINDOWS + 1` window boundaries
/// of a segment of `seconds` from `started`.
fn sample_cpu(pids: &[u32], started: Instant, seconds: f64) -> Result<Vec<CpuSample>, String> {
    let mut samples = Vec::with_capacity(SEGMENT_WINDOWS + 1);
    for k in 0..=SEGMENT_WINDOWS {
        let at = started + Duration::from_secs_f64(seconds * k as f64 / SEGMENT_WINDOWS as f64);
        if let Some(wait) = at.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        samples.push(CpuSample {
            host: host_ticks()?,
            serving: pids
                .iter()
                .map(|&p| cpu_ticks(p))
                .sum::<Result<u64, String>>()?,
        });
    }
    Ok(samples)
}

/// Guest-wide ticks of the aggregate `cpu` line of `/proc/stat`.
#[derive(Clone, Copy)]
struct HostTicks {
    /// Ticks the guest had work to run but the hypervisor ran something
    /// else.
    steal: u64,
    /// Ticks the guest ran work: user, nice, system, irq and softirq.
    busy: u64,
}

fn host_ticks() -> Result<HostTicks, String> {
    let stat = std::fs::read_to_string("/proc/stat").map_err(|e| format!("/proc/stat: {e}"))?;
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .map(|l| {
            l.split_whitespace()
                .filter_map(|f| f.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    // user nice system idle iowait irq softirq steal
    if fields.len() < 8 {
        return Err("/proc/stat: no aggregate cpu line".to_string());
    }
    Ok(HostTicks {
        steal: fields[7],
        busy: fields[0] + fields[1] + fields[2] + fields[5] + fields[6],
    })
}

/// Share of the guest's wanted CPU time (busy plus stolen) that the
/// hypervisor stole between two samples. Idle time is left out, so a
/// single busy thread on an otherwise idle guest sees its own loss.
fn stolen_share(from: HostTicks, to: HostTicks) -> f64 {
    let steal = to.steal.saturating_sub(from.steal);
    let busy = to.busy.saturating_sub(from.busy);
    steal as f64 / (steal + busy).max(1) as f64
}

/// End-to-end figures of one window of a segment.
struct Window {
    /// Answers per second of unstolen time, over the span they arrived in:
    /// a continuous measure even when a window holds few answers.
    rate: f64,
    /// The same in wall-clock seconds.
    wall_rate: f64,
    /// Latencies of the window's answers in unstolen time, ms.
    latency_ms: Vec<f64>,
    cpu_ms_per_solve: f64,
    /// Share of the guest's wanted CPU time the hypervisor stole.
    stolen: f64,
}

/// Cuts a segment into [`SEGMENT_WINDOWS`] equal time windows by when each
/// answer was read; answers drained after the deadline fall outside, and
/// windows with fewer than two answers are left out.
fn windows(served: &[Served], seconds: f64, cpu: &[CpuSample]) -> Vec<Window> {
    let width = seconds / SEGMENT_WINDOWS as f64;
    // (read at, latency ms) of each window's answers.
    let mut windows: Vec<Vec<(f64, f64)>> = vec![Vec::new(); SEGMENT_WINDOWS];
    for s in served {
        if let Some(w) = windows.get_mut((s.at_s / width) as usize) {
            w.push((s.at_s, s.latency_us / 1e3));
        }
    }
    windows
        .iter()
        .enumerate()
        .filter(|(_, answers)| answers.len() >= 2)
        .map(|(w, answers)| {
            let (first, last) = answers
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), &(t, _)| {
                    (lo.min(t), hi.max(t))
                });
            let stolen = stolen_share(cpu[w].host, cpu[w + 1].host);
            let wall_rate = (answers.len() - 1) as f64 / (last - first).max(1e-9);
            Window {
                rate: wall_rate / (1.0 - stolen),
                wall_rate,
                latency_ms: answers.iter().map(|&(_, l)| l * (1.0 - stolen)).collect(),
                cpu_ms_per_solve: (cpu[w + 1].serving - cpu[w].serving) as f64 / TICKS_PER_S * 1e3
                    / answers.len() as f64,
                stolen,
            }
        })
        .collect()
}

/// Named metric values, in `BENCHMARK.json` order.
type Rows = Vec<(&'static str, f64)>;

/// Per-layer rows the untraced serving run yields: `/metrics` deltas over
/// the timed phase and per-request response fields.
fn served_rows(timed: &Phase, delta: &dyn Fn(&str) -> f64) -> Rows {
    let lookups = delta("cache_hits") + delta("cache_misses");
    let queue = summary(timed.served.iter().map(|s| s.queue_wait_us / 1e3));
    let wall = summary(timed.served.iter().map(|s| s.wall_us / 1e3));
    let front = summary(
        timed
            .served
            .iter()
            .map(|s| (s.latency_us - s.queue_wait_us - s.wall_us) / 1e3),
    );
    println!("queue.wait_ms: {queue}");
    println!("engine.wall_ms: {wall}");
    println!("front.overhead_ms: {front}");
    let solves = timed.served.len().max(1) as f64;
    vec![
        (
            "cache.hit_ratio",
            if lookups > 0.0 {
                delta("cache_hits") / lookups
            } else {
                0.0
            },
        ),
        (
            "cache.evictions_per_solve",
            delta("cache_evictions") / solves,
        ),
        ("queue.wait_p50_ms", queue.median),
        ("queue.wait_p99_ms", queue.tail_or_median()),
        ("engine.wall_ms", wall.median),
        ("front.overhead_ms", front.median),
        (
            "event_loop.wakeups_per_request",
            delta("event_loop_wakeups") / timed.sent.max(1) as f64,
        ),
    ]
}

/// `fleet-small` only: the cost of the router hop at one request in flight,
/// so neither path queues. [`HOP_INSTANCES`] instances are sent in turn
/// through the router and straight to the first cell, each path on its own
/// keep-alive connection, for a quarter of the run length. Every send is a
/// new request index from `first` on (a fresh seed, so the router's
/// response cache never answers), and round `r` sends instance `j` as
/// request `first + (2r + path)·len + j` on both paths. Round 0 warms the
/// cell's cache for these structures and is not timed. The hop is the p50
/// through the router minus the p50 straight to the cell.
fn hop_ms(
    args: &Args,
    fleet: &Fleet,
    pool: &[Instance],
    first: usize,
    violations: &mut Vec<String>,
) -> Result<f64, String> {
    if !args.workload.fleet() {
        return Ok(0.0);
    }
    let paths = [fleet.front, fleet.cell()];
    let mut conns = [Conn::open(paths[0])?, Conn::open(paths[1])?];
    let mut exchanges: [Vec<Exchange>; 2] = [Vec::new(), Vec::new()];
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(args.seconds / 4.0);
    let n = pool.len();
    let mut round = 0;
    while round < 2 || Instant::now() < deadline {
        for j in 0..HOP_INSTANCES {
            for (path, conn) in conns.iter_mut().enumerate() {
                let index = first + (2 * round + path) * n + j;
                let body = workload::request_body(args.workload, args.seed, pool, index);
                let bytes = workload::http_request(&paths[path].to_string(), &body);
                let sent_at = Instant::now();
                conn.writer
                    .write_all(&bytes)
                    .and_then(|()| read_response(&mut conn.reader))
                    .map(|(status, body)| {
                        let done = Instant::now();
                        exchanges[path].push(Exchange {
                            index,
                            latency_us: (done - sent_at).as_secs_f64() * 1e6,
                            status,
                            body,
                            done,
                        })
                    })
                    .map_err(|e| format!("hop probe on {}: {e}", paths[path]))?;
            }
        }
        round += 1;
    }
    let [routed, direct] = exchanges.map(|ex| {
        let sent = ex.len();
        let phase = gate("hop probe", ex, sent, started, pool, violations);
        summary(
            phase
                .served
                .iter()
                .filter(|s| s.index >= first + 2 * n)
                .map(|s| s.latency_us / 1e3),
        )
    });
    println!("hop probe, one in flight: routed {routed}; direct {direct}");
    Ok(routed.median - direct.median)
}

/// Writes the timed answers as replay records and runs the `stages`
/// binary over them. Returns its per-layer rows and whether every replayed
/// answer matched bit for bit with the ledger closed.
fn replay(args: &Args, timed: &Phase) -> Result<(Rows, bool), String> {
    let tag = format!("{}-seed{}", args.workload.name(), args.seed);
    let records = args.out_dir.join(format!("{tag}-records.txt"));
    let spans = args.out_dir.join(format!("{tag}-spans.jsonl"));
    let mut served: Vec<&Served> = timed.served.iter().collect();
    served.sort_unstable_by_key(|s| s.index);
    let mut text = String::new();
    for s in served {
        let selection: Vec<String> = s.selection.iter().map(u32::to_string).collect();
        text.push_str(&format!(
            "{} {} {} {}\n",
            s.index,
            u8::from(s.cache_hit),
            s.cost,
            selection.join(",")
        ));
    }
    std::fs::write(&records, text).map_err(|e| format!("{}: {e}", records.display()))?;
    let output = Command::new(args.bin_dir.join("stages"))
        .args([
            "--workload",
            args.workload.name(),
            "--seed",
            &args.seed.to_string(),
            "--seconds",
            &(args.seconds / 2.0).to_string(),
        ])
        .arg("--records")
        .arg(&records)
        .arg("--spans")
        .arg(&spans)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("running stages: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or_default();
    for line in lines {
        println!("{line}");
    }
    if !output.status.success() {
        return Err(format!("stages exited with {}", output.status));
    }
    let v: serde_json::Value =
        serde_json::from_str(last).map_err(|e| format!("stages result: {e}"))?;
    let rows = mqo_perfbench::metrics::PER_LAYER
        .iter()
        .skip_while(|(name, _)| *name != "http.parse_us")
        .map(|&(name, _)| {
            v["metrics"][name]
                .as_f64()
                .map(|value| (name, value))
                .ok_or_else(|| format!("stages did not report {name}"))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok((rows, v["faithful"].as_bool() == Some(true)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ticks(steal: u64, busy: u64) -> HostTicks {
        HostTicks { steal, busy }
    }

    #[test]
    fn stolen_share_leaves_idle_time_out() {
        assert_eq!(stolen_share(ticks(10, 100), ticks(60, 250)), 0.25);
        assert_eq!(stolen_share(ticks(5, 5), ticks(5, 5)), 0.0, "an idle span");
    }

    #[test]
    fn windows_scale_rate_and_latency_by_the_unstolen_share() {
        let served = |at_s: f64, latency_ms: f64| Served {
            index: 0,
            at_s,
            latency_us: latency_ms * 1e3,
            selection: Vec::new(),
            cost: 1.0,
            optimum: 1.0,
            cache_hit: true,
            wall_us: 0.0,
            queue_wait_us: 0.0,
        };
        // Four windows of one second; the second is half stolen, the
        // fourth holds a single answer and is left out.
        let answers = [
            served(0.0, 2.0),
            served(0.5, 2.0),
            served(1.0, 4.0),
            served(1.5, 4.0),
            served(2.25, 2.0),
            served(2.75, 2.0),
            served(3.5, 9.0),
        ];
        let sample = |serving, steal, busy| CpuSample {
            serving,
            host: ticks(steal, busy),
        };
        let cpu = [
            sample(0, 0, 0),
            sample(10, 0, 100),
            sample(20, 100, 200),
            sample(30, 100, 300),
            sample(40, 100, 400),
        ];
        let w = windows(&answers, 4.0, &cpu);
        assert_eq!(w.len(), 3);
        assert_eq!(w[0].rate, 2.0);
        assert_eq!(w[0].latency_ms, [2.0, 2.0]);
        assert_eq!(w[1].stolen, 0.5);
        assert_eq!(w[1].wall_rate, 2.0);
        assert_eq!(w[1].rate, 4.0);
        assert_eq!(w[1].latency_ms, [2.0, 2.0]);
        assert_eq!(
            w[1].cpu_ms_per_solve, 50.0,
            "10 ticks of 10 ms over 2 answers"
        );
    }
}
