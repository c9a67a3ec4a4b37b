//! `mqo_serve` — the MQO solve server.
//!
//! ```text
//! mqo_serve [--addr 127.0.0.1:7700] [--small] [--reads N] [--gauges N]
//! ```
//!
//! Binds, prints `listening on <addr>` (scripts parse that line), then
//! serves until `POST /shutdown` arrives; shutdown drains the queue before
//! the process exits and prints `drained and stopped`. Everything else
//! runs at the library defaults of [`ServerConfig::new`]
//! (`EngineConfig::new`, `QueueConfig::default()`, `LoopConfig::default()`):
//! the embedding cache keeps its default size, every request walks the
//! stateless backend chain from the routed first choice, and the engine's
//! fault seam is the no-op `NoFaults`. Fault injectors live in
//! `mqo_service::testkit` and reach only engines the tests build.

use mqo_chimera::graph::ChimeraGraph;
use mqo_service::engine::EngineConfig;
use mqo_service::server::{Server, ServerConfig};

fn parse_options() -> Result<ServerConfig, String> {
    let mut config = ServerConfig::new(EngineConfig::new(ChimeraGraph::dwave_2x()));
    config.addr = "127.0.0.1:7700".to_string();
    let engine = &mut config.engine;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |flag: &str| args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--addr" => config.addr = value("--addr")?,
            "--small" => engine.graph = ChimeraGraph::new(2, 2),
            "--reads" => engine.device.num_reads = parse(&value("--reads")?, "--reads")?,
            "--gauges" => engine.device.num_gauges = parse(&value("--gauges")?, "--gauges")?,
            "--help" | "-h" => {
                println!(
                    "mqo_serve: MQO solve server\n\
                     --addr A            bind address (default 127.0.0.1:7700)\n\
                     --small             4-cell Chimera graph instead of the 12x12 D-Wave 2X\n\
                     --reads N           default annealing reads per request (100)\n\
                     --gauges N          default gauge batches per request (10)"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    engine.device.num_reads = engine.device.num_reads.max(1);
    engine.device.num_gauges = engine.device.num_gauges.clamp(1, engine.device.num_reads);
    Ok(config)
}

fn parse<T: std::str::FromStr>(value: &str, flag: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag}: cannot parse {value:?}"))
}

fn main() {
    let config = match parse_options() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("mqo_serve: {e} (try --help)");
            std::process::exit(2);
        }
    };
    let server = match Server::start(config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("mqo_serve: cannot bind: {e}");
            std::process::exit(1);
        }
    };
    println!("listening on {}", server.local_addr());
    server.wait();
    println!("drained and stopped");
}
