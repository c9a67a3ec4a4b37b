//! The serving workloads: their instances, request stream, and loop shape.
//! Everything here is a pure function of the workload seed, so the
//! end-to-end runner and the traced replay rebuild identical inputs.

use mqo_chimera::graph::ChimeraGraph;
use mqo_core::logical::LogicalMapping;
use mqo_core::problem::MqoProblem;
use mqo_workload::paper::{self, PaperWorkloadConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::HashSet;

/// Weight slack of both mapping stages (the server default, paper: 0.25).
pub const EPSILON: f64 = 0.25;

/// `mqo_serve`'s default embedding-cache capacity; `cold-backlog` cycles
/// through four times as many distinct structures.
pub const SERVER_CACHE_CAPACITY: usize = 128;

/// Instances of `fleet-small`: few enough that each cell's share of their
/// structures (about 96 of the default 128 cache entries) stays cached,
/// many enough that the mean answer quality varies little from seed to
/// seed.
pub const FLEET_POOL: usize = 192;

/// Client connections of every workload, one client thread each, all in
/// one process.
pub const CONNECTIONS: usize = 2;

/// Requests each connection keeps in flight (closed loop). Both workloads
/// keep the servers saturated: with one request in flight per connection,
/// sub-millisecond solves sit at the knee of a 2-core host, where each of
/// the fleet's process hand-offs can wait a scheduler time slice, and tail
/// latency and rate flip from run to run.
pub const WINDOW: usize = 8;

/// Workload of one benchmark run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 512 distinct small structures at 10 reads: cache misses and a
    /// standing queue.
    ColdBacklog,
    /// 192 recurring 8-plan instances at 4 reads through `mqo_router` to
    /// two cells: cache hits, a large fixed per-request share, and the
    /// router hop.
    FleetSmall,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::ColdBacklog, Workload::FleetSmall];

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdBacklog => "cold-backlog",
            Workload::FleetSmall => "fleet-small",
        }
    }

    /// The per-request `reads` override.
    pub fn reads(self) -> usize {
        match self {
            Workload::ColdBacklog => 10,
            Workload::FleetSmall => 4,
        }
    }

    /// Whether requests go through `mqo_router` to two cells.
    pub fn fleet(self) -> bool {
        self == Workload::FleetSmall
    }

    /// Requests of the warm-up that ends set-up: enough to fill the
    /// embedding cache (`cold-backlog` overfills it, so it evicts from the
    /// start of the timed phase).
    pub fn warmup_requests(self) -> usize {
        match self {
            Workload::ColdBacklog => SERVER_CACHE_CAPACITY + 32,
            Workload::FleetSmall => FLEET_POOL,
        }
    }
}

/// One instance of a workload's pool, with its proven optimum.
#[derive(Debug, Clone)]
pub struct Instance {
    /// The MQO problem.
    pub problem: MqoProblem,
    /// Its serde JSON form, as requests carry it.
    pub json: String,
    /// `MqoProblem::brute_force_optimum` cost, always positive.
    pub optimum: f64,
}

/// The workload's instance pool for `seed`. Request `i` uses instance
/// `i % len`. Instances whose optimum is not positive are skipped, so a
/// relative gap is defined.
///
/// * `cold-backlog`: 512 distinct structures, classes 2–5 plans at 2–4
///   queries.
/// * `fleet-small`: [`FLEET_POOL`] instances of 4 queries × 2 plans.
pub fn instances(workload: Workload, seed: u64) -> Result<Vec<Instance>, String> {
    match workload {
        // A slot whose shape has run out of new structures moves on to the
        // next shape.
        Workload::ColdBacklog => pool(seed, 4 * SERVER_CACHE_CAPACITY, true, |slot, attempt| {
            let shape = (slot + attempt) % 12;
            (2 + shape % 4, 2 + shape / 4)
        }),
        Workload::FleetSmall => pool(seed, FLEET_POOL, false, |_, _| (2, 4)),
    }
}

/// Fills `want` pool slots in order, drawing until each slot accepts an
/// instance: a new structure, or a new problem when `distinct_structures`
/// is false. `shape(slot, attempt)` gives the (plans per query, queries) of
/// a draw; every sharing pair is kept with probability 0.6, so structures
/// vary.
fn pool(
    seed: u64,
    want: usize,
    distinct_structures: bool,
    shape: impl Fn(usize, usize) -> (usize, usize),
) -> Result<Vec<Instance>, String> {
    const MAX_DRAWS: u64 = 200_000;
    let graph = ChimeraGraph::dwave_2x();
    let mut seen = HashSet::new();
    let mut out = Vec::with_capacity(want);
    let mut attempt = 0;
    for k in 0..MAX_DRAWS {
        if out.len() == want {
            return Ok(out);
        }
        let (plans, queries) = shape(out.len(), attempt);
        attempt += 1;
        let config = PaperWorkloadConfig {
            max_queries: queries,
            sharing_probability: 0.6,
            ..PaperWorkloadConfig::paper_class(plans)
        };
        let mut rng = ChaCha8Rng::seed_from_u64(draw_seed(seed, k));
        let problem = paper::generate(&graph, &config, &mut rng)
            .map_err(|e| format!("generating draw {k}: {e}"))?
            .problem;
        if problem.num_queries() != queries {
            return Err(format!(
                "draw {k}: asked for {queries} queries of {plans} plans, got {}",
                problem.num_queries()
            ));
        }
        let json = serde_json::to_string(&problem).map_err(|e| e.to_string())?;
        let key = if distinct_structures {
            LogicalMapping::new(&problem, EPSILON)
                .qubo()
                .structure_hash()
                .to_string()
        } else {
            json.clone()
        };
        if seen.contains(&key) {
            continue;
        }
        let (_, optimum) = problem.brute_force_optimum();
        if optimum <= 0.0 {
            continue;
        }
        seen.insert(key);
        attempt = 0;
        out.push(Instance {
            problem,
            json,
            optimum,
        });
    }
    if out.len() == want {
        Ok(out)
    } else {
        Err(format!("only {} instances in {MAX_DRAWS} draws", out.len()))
    }
}

/// Distinct logical-QUBO structures (embedding-cache keys) in a pool.
pub fn structures(pool: &[Instance]) -> usize {
    pool.iter()
        .map(|i| {
            LogicalMapping::new(&i.problem, EPSILON)
                .qubo()
                .structure_hash()
        })
        .collect::<HashSet<_>>()
        .len()
}

/// Seed of the generator's `k`-th draw for workload seed `seed`.
fn draw_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ k
}

/// Seed carried by request `i`: `base + i` with `base = seed · 2³²`.
pub fn request_seed(seed: u64, i: usize) -> u64 {
    (seed << 32).wrapping_add(i as u64)
}

/// The `POST /solve` body of request `i`.
pub fn request_body(workload: Workload, seed: u64, pool: &[Instance], i: usize) -> String {
    format!(
        "{{\"problem\":{},\"seed\":{},\"reads\":{}}}",
        pool[i % pool.len()].json,
        request_seed(seed, i),
        workload.reads()
    )
}

/// A keep-alive HTTP/1.1 `POST /solve` carrying `body`.
pub fn http_request(host: &str, body: &str) -> Vec<u8> {
    format!(
        "POST /solve HTTP/1.1\r\nhost: {host}\r\ncontent-type: application/json\r\n\
         content-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn pools_are_deterministic_distinct_and_solved() {
        let a = instances(Workload::FleetSmall, 3).unwrap();
        let b = instances(Workload::FleetSmall, 3).unwrap();
        assert_eq!(a.len(), FLEET_POOL);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.problem, y.problem);
            assert_eq!(x.optimum, y.optimum);
            assert_eq!(x.problem.num_plans(), 8);
            assert!(x.optimum > 0.0);
        }
        let c = instances(Workload::FleetSmall, 4).unwrap();
        assert_ne!(a[0].problem, c[0].problem, "the seed changes the inputs");
        let cold = instances(Workload::ColdBacklog, 3).unwrap();
        assert_eq!(structures(&cold), 4 * SERVER_CACHE_CAPACITY);
    }

    #[test]
    fn request_bodies_carry_seed_and_reads() {
        let pool = instances(Workload::FleetSmall, 1).unwrap();
        let body = request_body(Workload::FleetSmall, 1, &pool, 5);
        assert!(body.starts_with("{\"problem\":"));
        assert!(body.ends_with(&format!("\"seed\":{},\"reads\":4}}", (1u64 << 32) + 5)));
        let v: serde_json::Value = serde_json::from_str(&body).unwrap();
        assert_eq!(v["seed"].as_u64(), Some(request_seed(1, 5)));
    }
}
