//! Minimal dependency-free flag parsing shared by the harness binaries.

use std::path::PathBuf;
use std::time::Duration;

/// Common harness options.
#[derive(Debug, Clone)]
pub struct HarnessOptions {
    /// Run the paper's full protocol instead of the fast default.
    pub full: bool,
    /// Instances per class (fast default 3; full 20).
    pub instances: usize,
    /// Classical per-algorithm budget (fast default 2 s; full 100 s).
    pub budget: Duration,
    /// Annealing reads (fast 1000 = the paper value; kept configurable).
    pub reads: usize,
    /// Output directory for CSV artifacts.
    pub out_dir: PathBuf,
    /// Base seed.
    pub seed: u64,
    /// Optional single class filter (plans per query).
    pub plans_filter: Option<usize>,
    /// Use the small 4×4 machine instead of the 12×12 paper machine.
    pub small: bool,
    /// Worker threads for device reads and instance batches
    /// (`0` = available parallelism).
    pub threads: usize,
    /// Audit recorded results against proven optima (exhaustive enumeration
    /// or branch-and-bound proofs) after each class.
    pub cross_check: bool,
}

impl Default for HarnessOptions {
    fn default() -> Self {
        HarnessOptions {
            full: false,
            instances: 3,
            budget: Duration::from_secs(2),
            reads: 1000,
            out_dir: PathBuf::from("results"),
            seed: 0,
            plans_filter: None,
            small: false,
            threads: 0,
            cross_check: false,
        }
    }
}

impl HarnessOptions {
    /// Parses `args` (without the program name). Returns `Err(help_text)`
    /// for `--help` or malformed input.
    pub fn parse(args: &[String]) -> Result<HarnessOptions, String> {
        let mut opts = HarnessOptions::default();
        let mut explicit_instances = false;
        let mut explicit_budget = false;
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--full" => opts.full = true,
                "--small" => opts.small = true,
                "--instances" => {
                    opts.instances = next_value(&mut it, arg)?;
                    explicit_instances = true;
                }
                "--budget-ms" => {
                    let ms: u64 = next_value(&mut it, arg)?;
                    opts.budget = Duration::from_millis(ms);
                    explicit_budget = true;
                }
                "--reads" => opts.reads = next_value(&mut it, arg)?,
                "--seed" => opts.seed = next_value(&mut it, arg)?,
                "--threads" => opts.threads = next_value(&mut it, arg)?,
                "--cross-check" => opts.cross_check = true,
                "--plans" => opts.plans_filter = Some(next_value(&mut it, arg)?),
                "--out" => {
                    opts.out_dir = PathBuf::from(
                        it.next()
                            .ok_or_else(|| help(format!("{arg} needs a value")))?,
                    )
                }
                "--help" | "-h" => return Err(help(String::new())),
                other => return Err(help(format!("unknown flag {other}"))),
            }
        }
        if opts.full {
            if !explicit_instances {
                opts.instances = 20;
            }
            if !explicit_budget {
                opts.budget = Duration::from_secs(100);
            }
        }
        Ok(opts)
    }

    /// Parses `std::env::args`, printing help and exiting on request/error.
    pub fn from_env() -> HarnessOptions {
        let args: Vec<String> = std::env::args().skip(1).collect();
        match HarnessOptions::parse(&args) {
            Ok(o) => o,
            Err(msg) => {
                eprintln!("{msg}");
                std::process::exit(if msg.starts_with("usage") { 0 } else { 2 });
            }
        }
    }
}

fn next_value<T: std::str::FromStr>(
    it: &mut std::slice::Iter<'_, String>,
    flag: &str,
) -> Result<T, String> {
    it.next()
        .ok_or_else(|| help(format!("{flag} needs a value")))?
        .parse()
        .map_err(|_| help(format!("{flag}: invalid value")))
}

fn help(prefix: String) -> String {
    let usage = "usage: <harness> [--full] [--small] [--instances N] [--budget-ms MS] \
                 [--reads N] [--seed S] [--threads N] [--plans L] [--out DIR] \
                 [--cross-check]\n\
                 --full       paper protocol (20 instances, 100 s budgets)\n\
                 --small      4x4 toy machine instead of the 12x12 D-Wave 2X\n\
                 --threads N  worker threads for device reads and instance \
                 batches (0 = all cores); results are thread-count invariant\n\
                 --plans L    run only the class with L plans per query\n\
                 --cross-check     audit every class against proven optima; \
                 any cost below a proven bound fails the run";
    if prefix.is_empty() {
        usage.to_string()
    } else {
        format!("{prefix}\n{usage}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<HarnessOptions, String> {
        let v: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        HarnessOptions::parse(&v)
    }

    #[test]
    fn defaults_are_fast_mode() {
        let o = parse(&[]).unwrap();
        assert!(!o.full);
        assert_eq!(o.instances, 3);
        assert_eq!(o.budget, Duration::from_secs(2));
        assert_eq!(o.reads, 1000);
    }

    #[test]
    fn full_mode_upgrades_protocol() {
        let o = parse(&["--full"]).unwrap();
        assert_eq!(o.instances, 20);
        assert_eq!(o.budget, Duration::from_secs(100));
    }

    #[test]
    fn explicit_values_override_full_defaults() {
        let o = parse(&["--full", "--instances", "5", "--budget-ms", "500"]).unwrap();
        assert_eq!(o.instances, 5);
        assert_eq!(o.budget, Duration::from_millis(500));
    }

    #[test]
    fn class_filter_and_seed() {
        let o = parse(&["--plans", "4", "--seed", "99", "--small"]).unwrap();
        assert_eq!(o.plans_filter, Some(4));
        assert_eq!(o.seed, 99);
        assert!(o.small);
    }

    #[test]
    fn threads_flag_defaults_to_auto() {
        assert_eq!(parse(&[]).unwrap().threads, 0);
        assert_eq!(parse(&["--threads", "4"]).unwrap().threads, 4);
        assert!(parse(&["--threads"]).unwrap_err().contains("needs a value"));
    }

    #[test]
    fn cross_check_is_opt_in() {
        assert!(!parse(&[]).unwrap().cross_check);
        assert!(parse(&["--cross-check"]).unwrap().cross_check);
    }

    #[test]
    fn help_and_errors() {
        assert!(parse(&["--help"]).unwrap_err().starts_with("usage"));
        assert!(parse(&["--bogus"]).unwrap_err().contains("unknown flag"));
        assert!(parse(&["--instances"])
            .unwrap_err()
            .contains("needs a value"));
        assert!(parse(&["--instances", "x"])
            .unwrap_err()
            .contains("invalid"));
    }
}
