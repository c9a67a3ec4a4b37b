//! `mqo_router` — structure-sharded front for a fleet of `mqo_serve` cells.
//!
//! ```text
//! mqo_router --cells 127.0.0.1:7700,127.0.0.1:7701 [--addr 127.0.0.1:7600]
//!            [--breaker-threshold N] [--breaker-open-ms N]
//!            [--supervise 'CMD --addr {addr}'] [--supervise-cell I:CMD]
//!            [--backoff-initial-ms N] [--backoff-max-ms N]
//!            [--chaos-kill-seed N] [--chaos-kills N]
//!            [--chaos-kill-min-ms N] [--chaos-kill-max-ms N]
//! ```
//!
//! Shards `POST /solve` requests across the cells by the instance's
//! structure key so each cell's embedding cache serves a consistent slice
//! of the workload; unreachable cells are skipped via per-cell circuit
//! breakers, and failed forwards replay transparently on healthy cells
//! inside the client's deadline budget (`FAILOVER_BUDGET_MS` for requests
//! without one). The rest runs at the library defaults of
//! [`MqoRouterConfig::new`] and the cells' event-loop front
//! (`LoopConfig::default()`).
//!
//! With `--supervise`, the router *owns* its cells: the command template
//! (whitespace-split; `{addr}` substitutes the cell address) is spawned
//! once per `--cells` entry, dead cells respawn with exponential backoff,
//! and crash-looping cells (`SupervisorConfig::crash_loop_threshold` rapid
//! crashes, each within `CRASH_LOOP_WINDOW_MS` of its spawn) are
//! quarantined with their shard range remapped onto the survivors.
//! `--supervise-cell I:CMD` overrides the template for cell I (useful for
//! canaries). The `--chaos-kill-*` flags arm a seeded kill schedule that
//! SIGKILLs supervised cells at deterministic times — the fleet-chaos
//! proof harness.
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
    // Supervision knobs are collected first and assembled once the cell
    // list is known (flag order must not matter).
    let mut supervise_template: Option<Vec<String>> = None;
    let mut cell_overrides: Vec<(usize, Vec<String>)> = Vec::new();
    let mut sup_defaults = SupervisorConfig::new(Vec::new(), Vec::new());
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
            "--breaker-threshold" => {
                config.breaker.failure_threshold =
                    parse(&value("--breaker-threshold")?, "--breaker-threshold")?
            }
            "--breaker-open-ms" => {
                config.breaker.open_ms = parse(&value("--breaker-open-ms")?, "--breaker-open-ms")?
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
            "--backoff-initial-ms" => {
                sup_defaults.backoff_initial_ms =
                    parse(&value("--backoff-initial-ms")?, "--backoff-initial-ms")?
            }
            "--backoff-max-ms" => {
                sup_defaults.backoff_max_ms =
                    parse(&value("--backoff-max-ms")?, "--backoff-max-ms")?
            }
            "--chaos-kill-seed" => {
                sup_defaults.kill_schedule.seed =
                    parse(&value("--chaos-kill-seed")?, "--chaos-kill-seed")?
            }
            "--chaos-kills" => {
                sup_defaults.kill_schedule.kills = parse(&value("--chaos-kills")?, "--chaos-kills")?
            }
            "--chaos-kill-min-ms" => {
                sup_defaults.kill_schedule.min_delay_ms =
                    parse(&value("--chaos-kill-min-ms")?, "--chaos-kill-min-ms")?
            }
            "--chaos-kill-max-ms" => {
                sup_defaults.kill_schedule.max_delay_ms =
                    parse(&value("--chaos-kill-max-ms")?, "--chaos-kill-max-ms")?
            }
            "--help" | "-h" => {
                println!(
                    "mqo_router: structure-sharded front for mqo_serve cells\n\
                     --cells A,B,...     upstream cell addresses (required)\n\
                     --addr A            bind address (default 127.0.0.1:7600)\n\
                     --breaker-threshold N  consecutive failures that open a cell breaker (5)\n\
                     --breaker-open-ms N    cell breaker cooling period (1000)\n\
                     --supervise CMD     spawn each cell from this template ({{addr}} substituted)\n\
                     --supervise-cell I:CMD  override the template for cell I\n\
                     --backoff-initial-ms N respawn backoff seed (100)\n\
                     --backoff-max-ms N     respawn backoff cap (5000)\n\
                     --chaos-kill-seed N / --chaos-kills N  seeded SIGKILL schedule (off)\n\
                     --chaos-kill-min-ms N / --chaos-kill-max-ms N  kill delay bounds (100/2000)"
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
        let mut sup = SupervisorConfig {
            commands: vec![template; cells.len()],
            cells: cells.clone(),
            ..sup_defaults
        };
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
