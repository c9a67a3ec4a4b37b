//! `mqo_router` — structure-sharded front for a fleet of `mqo_serve` cells.
//!
//! ```text
//! mqo_router --cells 127.0.0.1:7700,127.0.0.1:7701 [--addr 127.0.0.1:7600]
//! ```
//!
//! Shards `POST /solve` requests across the cells by the instance's
//! structure key, so each heuristically embedded structure is searched for
//! on one cell and cached there (TRIAD-sized instances are placed directly
//! and never touch a cache); unreachable cells are skipped via per-cell circuit
//! breakers, and failed forwards replay transparently on healthy cells
//! inside the client's deadline budget (`FAILOVER_BUDGET_MS` for requests
//! without one). The rest runs at the library defaults of
//! [`MqoRouterConfig::new`] (cell breakers included) and the cells'
//! event-loop front (`LoopConfig::default()`).
//!
//! The cells are started, restarted and stopped by whoever manages them
//! (a service manager, a script, a test); the router only routes around
//! a cell that is down.
//!
//! Prints `listening on <addr>` (scripts parse that line), serves until
//! `POST /shutdown`, then prints `drained and stopped` once every admitted
//! request has been answered.

use mqo_service::shard::{MqoRouter, MqoRouterConfig};

fn parse_options() -> Result<MqoRouterConfig, String> {
    let mut config = MqoRouterConfig::new(Vec::new());
    config.addr = "127.0.0.1:7600".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |flag: &str| args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--addr" => config.addr = value("--addr")?,
            "--cells" => {
                config.cells = value("--cells")?
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect()
            }
            "--help" | "-h" => {
                println!(
                    "mqo_router: structure-sharded front for externally managed mqo_serve cells\n\
                     --cells A,B,...     upstream cell addresses (required)\n\
                     --addr A            bind address (default 127.0.0.1:7600)"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if config.cells.is_empty() {
        return Err("--cells is required (comma-separated mqo_serve addresses)".to_string());
    }
    Ok(config)
}

fn main() {
    let config = match parse_options() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("mqo_router: {e} (try --help)");
            std::process::exit(2);
        }
    };
    let router = match MqoRouter::start(config) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("mqo_router: cannot start: {e}");
            std::process::exit(1);
        }
    };
    println!("listening on {}", router.local_addr());
    router.wait();
    println!("drained and stopped");
}
