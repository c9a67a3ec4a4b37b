//! `stages` — the traced replay. Re-solves the answers a serving run
//! recorded, stage by stage through each layer's public functions, with a
//! span around every call, and checks it against the served answer and
//! against `SolveEngine::solve` on the same request.
//!
//! ```text
//! stages --workload NAME --seed N --seconds S --records FILE --spans FILE
//! ```
//!
//! Records are `index cache_hit cost plan,plan,…` lines (written by
//! `load`); the instances are rebuilt from the workload seed. Replay stops
//! after `--seconds` (at least [`MIN_REPLAY`] requests, at most
//! [`MAX_REPLAY`]). Spans go to `--spans` as JSON lines when the run ends;
//! the last stdout line is `{"faithful": .., "metrics": {..}}`.

use mqo_annealer::device::{DeviceConfig, QuantumAnnealer};
use mqo_annealer::sa::SimulatedAnnealingSampler;
use mqo_annealer::sampler::{SampleSet, SamplerHints};
use mqo_chimera::embedding::Embedding;
use mqo_chimera::graph::ChimeraGraph;
use mqo_chimera::packing::{self, Placer};
use mqo_chimera::physical::PhysicalMapping;
use mqo_core::integrity;
use mqo_core::ising::Ising;
use mqo_core::logical::LogicalMapping;
use mqo_core::solution::Selection;
use mqo_heuristics::HillClimbing;
use mqo_perfbench::ledger::{unattributed_pct, Ledger, Tracer};
use mqo_perfbench::stats::Summary;
use mqo_perfbench::workload::{self, Instance, Workload, EPSILON};
use mqo_service::api::{Backend, SolveRequest};
use mqo_service::engine::{EngineConfig, SolveEngine};
use mqo_service::http::{parse_request, HttpLimits};
use mqo_service::metrics::Metrics;
use mqo_service::router::route;
use mqo_service::shard::structure_key;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::hint::black_box;
use std::io::Write;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Requests replayed even when `--seconds` has run out.
const MIN_REPLAY: usize = 20;
/// Requests replayed at most (bounds the spans kept in memory).
const MAX_REPLAY: usize = 1000;
/// Stated tolerance of the ledger: stage self times must add up to the
/// engine's own time within this share, in percent.
const LEDGER_TOLERANCE_PCT: f64 = 25.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    records: PathBuf,
    spans: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut records = None;
    let mut spans = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Workload::parse(&value),
            "--seed" => seed = value.parse().ok(),
            "--seconds" => seconds = value.parse().ok(),
            "--records" => records = Some(PathBuf::from(value)),
            "--spans" => spans = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload NAME is required")?,
        seed: seed.ok_or("--seed N is required")?,
        seconds: seconds.ok_or("--seconds S is required")?,
        records: records.ok_or("--records FILE is required")?,
        spans: spans.ok_or("--spans FILE is required")?,
    })
}

fn main() {
    let result = parse_args().and_then(|args| run(&args));
    if let Err(e) = result {
        eprintln!("stages: {e}");
        std::process::exit(2);
    }
}

/// One answer the serving run produced.
struct Record {
    index: usize,
    cache_hit: bool,
    cost: f64,
    selection: Vec<u32>,
}

fn read_records(path: &PathBuf) -> Result<Vec<Record>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    text.lines()
        .enumerate()
        .map(|(n, line)| {
            let bad = || format!("{}:{}: malformed record", path.display(), n + 1);
            let mut fields = line.split(' ');
            let mut next = || fields.next().ok_or_else(bad);
            Ok(Record {
                index: next()?.parse().map_err(|_| bad())?,
                cache_hit: next()? == "1",
                cost: next()?.parse().map_err(|_| bad())?,
                selection: next()?
                    .split(',')
                    .map(|p| p.parse().map_err(|_| bad()))
                    .collect::<Result<_, _>>()?,
            })
        })
        .collect()
}

/// What the staged chain produced for one request.
struct Staged {
    selection: Vec<u32>,
    cost: f64,
    reads: usize,
    repaired: usize,
    broken: usize,
}

/// The device protocol the engine runs a request under: server defaults
/// with the per-request overrides clamped to the server caps.
fn effective_device(config: &EngineConfig, req: &SolveRequest) -> DeviceConfig {
    let mut device = config.device;
    if let Some(reads) = req.reads {
        device.num_reads = reads.clamp(1, config.max_reads);
    }
    if let Some(gauges) = req.gauges {
        device.num_gauges = gauges.clamp(1, device.num_reads);
    }
    device.num_gauges = device.num_gauges.min(device.num_reads);
    device
}

/// `SolveEngine::solve` for an annealer-routed request, one span per call
/// into a layer: route, logical map, embedding-cache key, TRIAD embedding
/// (on a miss), placement, and then `QuantumMqoSolver::solve_with_embedding`
/// — logical and physical map, the device run, and per read unembed and
/// decode — and the integrity gate.
fn chain(
    t: &mut Tracer,
    req: &SolveRequest,
    cache_hit: bool,
    config: &EngineConfig,
    canonical: &mut HashMap<usize, Embedding>,
) -> Result<Staged, String> {
    let problem = &req.problem;
    let decision = t.span("router.route", |_| {
        route(problem, &config.graph, &config.router)
    });
    if decision.backend != Backend::Annealer {
        return Err(format!("routed to {}", decision.backend));
    }
    let logical = t.span("core.logical_map", |_| {
        LogicalMapping::new(problem, config.epsilon)
    });
    let n = logical.qubo().num_vars();
    let side = packing::footprint_side(n);
    t.span("cache.key", |_| {
        black_box((
            logical.qubo().structure_hash(),
            packing::region_graph(n).fingerprint(),
        ))
    });
    if !cache_hit {
        let e = t.span("chimera.embed", |_| packing::canonical_embedding(n));
        canonical.insert(n, e);
    }
    let canon = canonical
        .entry(n)
        .or_insert_with(|| packing::canonical_embedding(n));
    let placement = t
        .span("chimera.place", |_| {
            Placer::new(&config.graph).place(canon, side)
        })
        .ok_or("the placer declined the instance")?;

    let annealer = QuantumAnnealer::new(
        effective_device(config, req),
        SimulatedAnnealingSampler::default(),
    );
    let logical = t.span("core.logical_map", |_| {
        LogicalMapping::new(problem, config.epsilon)
    });
    let physical = t
        .span("chimera.physical_map", |_| {
            PhysicalMapping::new(
                logical.qubo(),
                placement.embedding.clone(),
                &config.graph,
                config.epsilon,
            )
        })
        .map_err(|e| e.to_string())?;
    let samples = t.span("annealer.run", |t| -> Result<SampleSet, String> {
        // QuantumAnnealer::run: coupler validation, the true Ising form and
        // chain hints, then the timed protocol.
        t.span("annealer.validate", |_| {
            for &(i, j, _) in physical.physical_qubo().quadratic() {
                let (a, b) = (
                    physical.qubit_of_phys(i.index()),
                    physical.qubit_of_phys(j.index()),
                );
                if !config.graph.has_coupler(a, b) {
                    return Err(format!("no coupler between qubits {a:?} and {b:?}"));
                }
            }
            Ok(())
        })?;
        let (ising, chains) = t.span("annealer.prepare", |_| {
            (
                Ising::from_qubo(physical.physical_qubo()),
                physical.dense_chains(),
            )
        });
        let start = t.now();
        let (set, phases) = annealer
            .run_ising_timed(
                &ising,
                physical.physical_qubo(),
                &SamplerHints { chains: &chains },
                req.seed,
            )
            .map_err(|e| e.to_string())?;
        // The library times its own phases; lay them out in order from the
        // call's start.
        let ns = |s: f64| (s * 1e9) as u64;
        let programmed = start + ns(phases.program_s);
        let read = programmed + ns(phases.read_s);
        t.record("annealer.program", start, programmed);
        t.record("annealer.read", programmed, read);
        t.record("annealer.assemble", read, read + ns(phases.assemble_s));
        Ok(set)
    })?;

    let mut best: Option<(Selection, f64)> = None;
    let mut repaired = 0;
    let mut broken = 0;
    for read in samples.reads() {
        let unembedded = t.span("chimera.unembed", |_| physical.unembed(&read.assignment));
        if unembedded.broken_chains > 0 {
            broken += 1;
        }
        let (selection, cost) = t.span("core.decode", |_| {
            let (selection, was_repaired) =
                logical.decode_with_repair(problem, &unembedded.logical);
            if was_repaired {
                repaired += 1;
                let (s, c, _) = HillClimbing::descend_bounded(
                    problem,
                    selection,
                    config.resilience.repair_descent_moves,
                );
                (s, c)
            } else {
                let c = problem.selection_cost(&selection);
                (selection, c)
            }
        });
        if best.as_ref().is_none_or(|(_, c)| cost < *c) {
            best = Some((selection, cost));
        }
    }
    t.span("chimera.chain_stats", |_| {
        black_box(samples.chain_break_stats(&physical.dense_chains()))
    });
    let (selection, cost) = best.ok_or("the device returned no reads")?;
    t.span("core.verify", |_| {
        integrity::verify_selection(problem, &selection, cost, config.integrity_tolerance)
    })
    .map_err(|e| e.to_string())?;
    Ok(Staged {
        selection: selection.plans().iter().map(|p| p.0).collect(),
        cost,
        reads: samples.len(),
        repaired,
        broken,
    })
}

/// Per replayed request: the engine's own time, the staged root span, and
/// the read accounting.
struct Row {
    request: u64,
    engine_ns: u64,
    root: usize,
    reads: usize,
    repaired: usize,
    broken: usize,
}

fn run(args: &Args) -> Result<(), String> {
    let w = args.workload;
    let pool: Vec<Instance> = workload::instances(w, args.seed)?;
    let records = read_records(&args.records)?;
    if records.is_empty() {
        return Err("no records to replay".to_string());
    }
    let config = EngineConfig::new(ChimeraGraph::dwave_2x());
    let engine = SolveEngine::new(config.clone(), Arc::new(Metrics::default()));
    let request = |r: &Record| SolveRequest {
        reads: Some(w.reads()),
        ..SolveRequest::new(
            pool[r.index % pool.len()].problem.clone(),
            workload::request_seed(args.seed, r.index),
        )
    };
    // Warm the in-process engine's cache the way the serving run found it.
    let mut warmed = HashSet::new();
    for r in &records {
        if r.cache_hit && warmed.insert(r.index % pool.len()) {
            engine
                .solve(&request(r))
                .map_err(|e| format!("warming the engine: {e}"))?;
        }
    }

    let limits = HttpLimits::default();
    let mut canonical = HashMap::new();
    let mut tracer = Tracer::new();
    let mut rows = Vec::new();
    let mut mismatches = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    for (k, r) in records.iter().enumerate() {
        if k >= MAX_REPLAY || (k >= MIN_REPLAY && Instant::now() >= deadline) {
            break;
        }
        let req = request(r);
        let wire = workload::http_request(
            "127.0.0.1",
            &workload::request_body(w, args.seed, &pool, r.index),
        );
        tracer.set_request(r.index as u64);
        // Alternate which of the two solves runs first, so neither always
        // finds the caches warm.
        let mut engine_run = || {
            let started = Instant::now();
            let answer = engine.solve(&req);
            (started.elapsed(), answer)
        };
        let first = (k % 2 == 0).then(&mut engine_run);
        let parsed = tracer
            .span("http.parse", |_| parse_request(&wire, &limits))
            .map_err(|e| format!("request {}: {e}", r.index))?
            .ok_or_else(|| format!("request {}: incomplete", r.index))?;
        tracer
            .span("api.decode", |_| {
                serde_json::from_slice::<SolveRequest>(&parsed.request.body)
            })
            .map_err(|e| format!("request {}: {e}", r.index))?;
        let root = tracer.spans().len();
        let staged = tracer.span("engine.staged", |t| {
            chain(t, &req, r.cache_hit, &config, &mut canonical)
        });
        let (elapsed, answer) = first.unwrap_or_else(engine_run);
        let answer = answer.map_err(|e| format!("request {}: engine: {e}", r.index))?;
        tracer
            .span("api.encode", |_| black_box(serde_json::to_string(&answer)))
            .map_err(|e| e.to_string())?;
        tracer.span("shard.structure_key", |_| {
            black_box(structure_key(&req.problem, EPSILON))
        });

        let same = |selection: &[u32], cost: f64| {
            selection == r.selection && cost.to_bits() == r.cost.to_bits()
        };
        if !same(&answer.selection, answer.cost) {
            mismatches.push(format!(
                "request {}: SolveEngine::solve answered {:?} at {} but the server served {:?} at {}",
                r.index, answer.selection, answer.cost, r.selection, r.cost
            ));
        }
        match staged {
            Ok(s) if same(&s.selection, s.cost) => rows.push(Row {
                request: r.index as u64,
                engine_ns: u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX),
                root,
                reads: s.reads,
                repaired: s.repaired,
                broken: s.broken,
            }),
            Ok(s) => mismatches.push(format!(
                "request {}: staged replay found {:?} at {} but the server served {:?} at {}",
                r.index, s.selection, s.cost, r.selection, r.cost
            )),
            Err(e) => mismatches.push(format!("request {}: staged replay failed: {e}", r.index)),
        }
    }

    let spans = tracer.spans();
    write_spans(&args.spans, spans)?;
    let ledger = Ledger::new(spans);
    // Per-request sums of each stage's self time, in microseconds.
    let mut per_request: BTreeMap<&str, BTreeMap<u64, f64>> = BTreeMap::new();
    for s in spans {
        *per_request
            .entry(s.name)
            .or_default()
            .entry(s.request)
            .or_default() += ledger.self_ns[s.id] as f64 / 1e3;
    }
    let stage = |name: &str| -> Summary {
        let values: Vec<f64> = per_request
            .get(name)
            .map(|m| m.values().copied().collect())
            .unwrap_or_default();
        Summary::of(&values)
    };
    let reads: usize = rows.iter().map(|r| r.reads).sum();
    let engine_ns: u64 = rows.iter().map(|r| r.engine_ns).sum();
    let stages_ns: u64 = rows.iter().map(|r| ledger.stage_sum(r.root)).sum();
    let device_s: f64 = spans
        .iter()
        .filter(|s| s.name == "annealer.run")
        .map(|s| s.duration_ns() as f64 / 1e9)
        .sum();
    let read_us: Vec<f64> = rows
        .iter()
        .filter_map(|r| {
            let total = per_request.get("annealer.read")?.get(&r.request)?;
            Some(total / r.reads.max(1) as f64)
        })
        .collect();
    let engine_us: Vec<f64> = rows.iter().map(|r| r.engine_ns as f64 / 1e3).collect();
    let unattributed = if engine_ns > 0 {
        unattributed_pct(engine_ns, stages_ns)
    } else {
        0.0
    };
    let share = |part: usize| {
        if reads > 0 {
            part as f64 / reads as f64
        } else {
            0.0
        }
    };

    let mut metrics: Vec<(&str, f64)> = Vec::new();
    for (metric, span) in [
        ("http.parse_us", "http.parse"),
        ("api.decode_us", "api.decode"),
        ("api.encode_us", "api.encode"),
        ("router.route_us", "router.route"),
        ("core.logical_map_us", "core.logical_map"),
        ("chimera.embed_us", "chimera.embed"),
        ("chimera.place_us", "chimera.place"),
        ("chimera.physical_map_us", "chimera.physical_map"),
        ("annealer.program_us", "annealer.program"),
    ] {
        let s = stage(span);
        println!("{metric}: {s}");
        metrics.push((metric, s.median));
    }
    let read = Summary::of(&read_us);
    println!("annealer.read_us (per read): {read}");
    metrics.push(("annealer.read_us", read.median));
    metrics.push((
        "annealer.reads_per_s",
        if device_s > 0.0 {
            reads as f64 / device_s
        } else {
            0.0
        },
    ));
    for (metric, span) in [
        ("chimera.unembed_us", "chimera.unembed"),
        ("core.decode_us", "core.decode"),
    ] {
        let s = stage(span);
        println!("{metric} (per request, summed over reads): {s}");
        metrics.push((metric, s.median));
    }
    metrics.push((
        "core.repair_share",
        share(rows.iter().map(|r| r.repaired).sum()),
    ));
    metrics.push((
        "chimera.broken_chain_share",
        share(rows.iter().map(|r| r.broken).sum()),
    ));
    for (metric, span) in [
        ("core.verify_us", "core.verify"),
        ("shard.structure_key_us", "shard.structure_key"),
    ] {
        let s = stage(span);
        println!("{metric}: {s}");
        metrics.push((metric, s.median));
    }
    let engine = Summary::of(&engine_us);
    println!("engine.solve_us: {engine}");
    metrics.push(("engine.solve_us", engine.median));
    metrics.push(("ledger.unattributed_pct", unattributed));

    let closed = unattributed.abs() <= LEDGER_TOLERANCE_PCT;
    println!(
        "replay: {} requests, {} spans, {} mismatches; ledger: stages {:.1} ms of engine {:.1} ms, unattributed {unattributed:.2} % (tolerance ±{LEDGER_TOLERANCE_PCT} %){}",
        rows.len() + mismatches.len(),
        spans.len(),
        mismatches.len(),
        stages_ns as f64 / 1e6,
        engine_ns as f64 / 1e6,
        if closed { "" } else { " NOT CLOSED" },
    );
    for m in mismatches.iter().take(10) {
        eprintln!("stages: mismatch: {m}");
    }
    let values: Vec<String> = metrics
        .iter()
        .map(|(name, value)| format!("\"{name}\":{value:?}"))
        .collect();
    println!(
        "{{\"faithful\":{},\"metrics\":{{{}}}}}",
        mismatches.is_empty() && closed && !rows.is_empty(),
        values.join(",")
    );
    Ok(())
}

fn write_spans(path: &PathBuf, spans: &[mqo_perfbench::ledger::Span]) -> Result<(), String> {
    let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = std::io::BufWriter::new(file);
    for s in spans {
        writeln!(out, "{}", s.to_json()).map_err(|e| e.to_string())?;
    }
    out.flush().map_err(|e| e.to_string())
}
