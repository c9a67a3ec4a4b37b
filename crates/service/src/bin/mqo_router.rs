//! `mqo_router` — structure-sharded front for a fleet of `mqo_serve` cells.
//!
//! ```text
//! mqo_router --cells 127.0.0.1:7700,127.0.0.1:7701 [--addr 127.0.0.1:7600]
//!            [--supervise 'CMD --addr {addr}'] [--supervise-cell I:CMD]
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
//! With `--supervise`, the router *owns* its cells: the command template
//! (whitespace-split; `{addr}` substitutes the cell address) is spawned
//! once per `--cells` entry, dead cells respawn with exponential backoff,
//! and crash-looping cells (`SupervisorConfig::crash_loop_threshold` rapid
//! crashes, each within `CRASH_LOOP_WINDOW_MS` of its spawn) are
//! quarantined with their shard range remapped onto the survivors.
//! `--supervise-cell I:CMD` overrides the template for cell I (useful for
//! canaries). Respawn backoff stays at the `SupervisorConfig::new`
//! defaults; `fleet_failover.rs` sets it through the library.
//!
//! Prints `listening on <addr>` (scripts parse that line), serves until
//! `POST /shutdown`, then prints `drained and stopped` after the router
//! *and* any supervised cells have drained.

use mqo_service::shard::{MqoRouter, MqoRouterConfig};
use mqo_service::supervisor::SupervisorConfig;

fn parse_options() -> Result<MqoRouterConfig, String> {
    let mut cells: Vec<String> = Vec::new();
    let mut config = MqoRouterConfig::new(Vec::new());
    config.addr = "127.0.0.1:7600".to_string();
    // Supervision flags are collected first and assembled once the cell
    // list is known (flag order must not matter).
    let mut supervise_template: Option<Vec<String>> = None;
    let mut cell_overrides: Vec<(usize, Vec<String>)> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |flag: &str| args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--addr" => config.addr = value("--addr")?,
            "--cells" => {
                cells = value("--cells")?
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect()
            }
            "--supervise" => {
                supervise_template = Some(split_command(&value("--supervise")?, "--supervise")?)
            }
            "--supervise-cell" => {
                let spec = value("--supervise-cell")?;
                let (index, command) = spec
                    .split_once(':')
                    .ok_or_else(|| format!("--supervise-cell wants INDEX:COMMAND, got {spec:?}"))?;
                let index: usize = parse(index, "--supervise-cell index")?;
                cell_overrides.push((index, split_command(command, "--supervise-cell")?));
            }
            "--help" | "-h" => {
                println!(
                    "mqo_router: structure-sharded front for mqo_serve cells\n\
                     --cells A,B,...     upstream cell addresses (required)\n\
                     --addr A            bind address (default 127.0.0.1:7600)\n\
                     --supervise CMD     spawn each cell from this template ({{addr}} substituted)\n\
                     --supervise-cell I:CMD  override the template for cell I"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if cells.is_empty() {
        return Err("--cells is required (comma-separated mqo_serve addresses)".to_string());
    }
    if let Some(template) = supervise_template {
        let mut sup = SupervisorConfig::new(template, cells.clone());
        for (index, command) in cell_overrides {
            if index >= sup.commands.len() {
                return Err(format!(
                    "--supervise-cell index {index} out of range ({} cells)",
                    sup.commands.len()
                ));
            }
            sup.commands[index] = command;
        }
        config.supervisor = Some(sup);
    } else if !cell_overrides.is_empty() {
        return Err("--supervise-cell requires --supervise".to_string());
    }
    config.cells = cells;
    Ok(config)
}

/// Splits a command template on whitespace; `{addr}` placeholders survive
/// as their own tokens and are substituted per cell at spawn time.
fn split_command(spec: &str, flag: &str) -> Result<Vec<String>, String> {
    let tokens: Vec<String> = spec.split_whitespace().map(|s| s.to_string()).collect();
    if tokens.is_empty() {
        return Err(format!("{flag}: empty command"));
    }
    Ok(tokens)
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
            eprintln!("mqo_router: {e} (try --help)");
            std::process::exit(2);
        }
    };
    let supervised = config.supervisor.is_some();
    let router = match MqoRouter::start(config) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("mqo_router: cannot start: {e}");
            std::process::exit(1);
        }
    };
    if supervised {
        for cell in router
            .supervisor()
            .map(|s| s.snapshots())
            .unwrap_or_default()
        {
            println!("cell {}: supervised (alive: {})", cell.addr, cell.alive);
        }
    }
    println!("listening on {}", router.local_addr());
    router.wait();
    for line in router.supervisor_report() {
        println!("{line}");
    }
    println!("drained and stopped");
}
