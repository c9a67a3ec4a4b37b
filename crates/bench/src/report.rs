//! Rendering experiment results: markdown tables for the terminal /
//! EXPERIMENTS.md and CSV series for plotting.

use crate::harness::{mean_normalised_cost, ClassResult};
use std::fmt::Write as _;
use std::path::Path;
use std::time::Duration;

/// Chain-break and repair counters of one class, summed over its
/// instances' QA runs (rates are averaged).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ChainAggregate {
    /// QA runs that reported a summary.
    pub instances: usize,
    /// Total device reads.
    pub reads: usize,
    /// Reads with at least one broken chain.
    pub broken_chain_reads: usize,
    /// Reads whose decoded selection needed repair.
    pub repaired_reads: usize,
    /// Broken chains resolved by a strict majority vote.
    pub chain_majority_repairs: usize,
    /// Even-length chain ties resolved by the pinned rule.
    pub chain_tie_breaks: usize,
    /// Mean per-read-per-chain break rate across instances.
    pub mean_chain_break_rate: f64,
    /// Worst single-chain break rate seen on any instance.
    pub max_chain_break_rate: f64,
}

/// Sums the QA chain-break and repair counters of a class. `None` when no
/// instance carries a summary.
pub fn aggregate_chains(class: &ClassResult) -> Option<ChainAggregate> {
    let mut agg = ChainAggregate::default();
    for inst in &class.instances {
        for run in inst.runs.iter().filter(|r| r.name == "QA") {
            let Some(s) = run.resilience else { continue };
            agg.instances += 1;
            agg.reads += s.reads;
            agg.broken_chain_reads += s.broken_chain_reads;
            agg.repaired_reads += s.repaired_reads;
            agg.chain_majority_repairs += s.chain_majority_repairs;
            agg.chain_tie_breaks += s.chain_tie_breaks;
            agg.mean_chain_break_rate += s.chain_break_rate;
            agg.max_chain_break_rate = agg.max_chain_break_rate.max(s.max_chain_break_rate);
        }
    }
    if agg.instances == 0 {
        return None;
    }
    agg.mean_chain_break_rate /= agg.instances as f64;
    Some(agg)
}

/// Markdown table of the chain-break and repair accounting per class.
pub fn chain_table(classes: &[ClassResult]) -> String {
    let mut out = String::from("### Chain breaks and repairs (QA track)\n");
    let _ = writeln!(
        out,
        "| class | reads | broken chains | repaired | majority repairs | tie breaks | \
         break rate | max chain break rate |"
    );
    let _ = writeln!(out, "|---|---|---|---|---|---|---|---|");
    for class in classes {
        let Some(a) = aggregate_chains(class) else {
            continue;
        };
        let _ = writeln!(
            out,
            "| {} | {} | {} | {} | {} | {} | {:.4} | {:.4} |",
            class.label(),
            a.reads,
            a.broken_chain_reads,
            a.repaired_reads,
            a.chain_majority_repairs,
            a.chain_tie_breaks,
            a.mean_chain_break_rate,
            a.max_chain_break_rate
        );
    }
    out
}

/// CSV of the same counters, one row per class.
pub fn chain_csv(classes: &[ClassResult]) -> String {
    let mut out = String::from(
        "plans,queries,reads,broken_chain_reads,repaired_reads,chain_majority_repairs,\
         chain_tie_breaks,mean_chain_break_rate,max_chain_break_rate\n",
    );
    for class in classes {
        let Some(a) = aggregate_chains(class) else {
            continue;
        };
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{},{:.6},{:.6}",
            class.plans,
            class.queries,
            a.reads,
            a.broken_chain_reads,
            a.repaired_reads,
            a.chain_majority_repairs,
            a.chain_tie_breaks,
            a.mean_chain_break_rate,
            a.max_chain_break_rate
        );
    }
    out
}

/// The paper's measurement checkpoints: 1 ms … 100 s (Figures 4 and 5).
pub fn paper_checkpoints() -> Vec<Duration> {
    [1u64, 10, 100, 1_000, 10_000, 100_000]
        .into_iter()
        .map(Duration::from_millis)
        .collect()
}

/// Checkpoints truncated to a budget (fast mode drops the expensive tail).
pub fn checkpoints_up_to(budget: Duration) -> Vec<Duration> {
    let mut cps: Vec<Duration> = paper_checkpoints()
        .into_iter()
        .filter(|c| *c <= budget)
        .collect();
    if cps.last() != Some(&budget) {
        cps.push(budget);
    }
    cps
}

/// The competitor labels in figure order.
pub const ALGORITHMS: [&str; 6] = ["LIN-MQO", "LIN-QUB", "QA", "CLIMB", "GA(50)", "GA(200)"];

fn fmt_duration(d: Duration) -> String {
    let ms = d.as_secs_f64() * 1e3;
    if ms < 1.0 {
        format!("{:.3}ms", ms)
    } else if ms < 1000.0 {
        format!("{:.0}ms", ms)
    } else {
        format!("{:.0}s", ms / 1e3)
    }
}

/// Markdown table: mean normalised cost per competitor per checkpoint — the
/// textual equivalent of one panel of Figure 4/5.
pub fn checkpoint_table(class: &ClassResult, checkpoints: &[Duration]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "### {}", class.label());
    let _ = write!(out, "| algorithm |");
    for c in checkpoints {
        let _ = write!(out, " {} |", fmt_duration(*c));
    }
    let _ = writeln!(out);
    let _ = write!(out, "|---|");
    for _ in checkpoints {
        let _ = write!(out, "---|");
    }
    let _ = writeln!(out);
    for algo in ALGORITHMS {
        let _ = write!(out, "| {algo} |");
        for c in checkpoints {
            match mean_normalised_cost(class, algo, *c) {
                Some(v) => {
                    let _ = write!(out, " {v:.4} |");
                }
                None => {
                    let _ = write!(out, " — |");
                }
            }
        }
        let _ = writeln!(out);
    }
    out
}

/// CSV series of the same data: `plans,queries,algorithm,time_ms,mean_norm_cost`.
pub fn checkpoint_csv(class: &ClassResult, checkpoints: &[Duration]) -> String {
    let mut out = String::from("plans,queries,algorithm,time_ms,mean_norm_cost\n");
    for algo in ALGORITHMS {
        for c in checkpoints {
            let value =
                mean_normalised_cost(class, algo, *c).map_or(String::new(), |v| format!("{v:.6}"));
            let _ = writeln!(
                out,
                "{},{},{},{},{}",
                class.plans,
                class.queries,
                algo,
                c.as_secs_f64() * 1e3,
                value
            );
        }
    }
    out
}

/// Aggregates `min / median / max` of a sample (used for Table 1).
pub fn min_median_max(mut samples: Vec<f64>) -> Option<(f64, f64, f64)> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_by(f64::total_cmp);
    let min = samples[0];
    let max = *samples.last().unwrap();
    let n = samples.len();
    let median = if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2.0
    };
    Some((min, median, max))
}

/// Writes `content` under `results/` (created on demand), returning the
/// path; failures surface as a warning on stderr so harness runs never die
/// on IO.
pub fn write_result_file(dir: &Path, name: &str, content: &str) -> Option<std::path::PathBuf> {
    let path = dir.join(name);
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("warning: cannot create {}: {e}", dir.display());
        return None;
    }
    match std::fs::write(&path, content) {
        Ok(()) => Some(path),
        Err(e) => {
            eprintln!("warning: cannot write {}: {e}", path.display());
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::CompetitorConfig;
    use crate::harness::run_class;
    use mqo_chimera::graph::ChimeraGraph;

    fn tiny_class() -> ClassResult {
        run_class(
            &ChimeraGraph::new(2, 2),
            2,
            1,
            &CompetitorConfig {
                classical_budget: Duration::from_millis(30),
                qa_reads: 30,
                qa_gauges: 3,
                seed: 4,
                ..CompetitorConfig::default()
            },
        )
    }

    #[test]
    fn checkpoint_helpers_respect_the_budget() {
        let cps = checkpoints_up_to(Duration::from_millis(2_000));
        assert_eq!(
            cps,
            vec![
                Duration::from_millis(1),
                Duration::from_millis(10),
                Duration::from_millis(100),
                Duration::from_millis(1_000),
                Duration::from_millis(2_000),
            ]
        );
        assert_eq!(paper_checkpoints().len(), 6);
    }

    #[test]
    fn tables_contain_every_algorithm() {
        let class = tiny_class();
        let cps = checkpoints_up_to(Duration::from_millis(30));
        let md = checkpoint_table(&class, &cps);
        let csv = checkpoint_csv(&class, &cps);
        for algo in ALGORITHMS {
            assert!(md.contains(algo), "markdown missing {algo}");
            assert!(csv.contains(algo), "csv missing {algo}");
        }
        assert_eq!(
            csv.lines().count(),
            1 + ALGORITHMS.len() * cps.len(),
            "csv row count"
        );
    }

    #[test]
    fn chain_accounting_aggregates_the_qa_track() {
        let class = tiny_class();
        let agg = aggregate_chains(&class).expect("QA reports summaries");
        assert_eq!(agg.instances, 1);
        assert_eq!(agg.reads, 30);
        assert!(agg.broken_chain_reads <= agg.reads);
        assert!(agg.repaired_reads <= agg.reads);
        assert!((0.0..=1.0).contains(&agg.mean_chain_break_rate));
        assert!(agg.mean_chain_break_rate <= agg.max_chain_break_rate);

        let classes = [class];
        let md = chain_table(&classes);
        assert!(md.contains("Chain breaks and repairs"));
        assert_eq!(md.lines().count(), 3 + classes.len());
        let csv = chain_csv(&classes);
        assert_eq!(csv.lines().count(), 1 + classes.len());
        assert!(csv.starts_with("plans,queries,reads,broken_chain_reads,"));
        assert_eq!(
            csv.lines().nth(1).unwrap().split(',').count(),
            csv.lines().next().unwrap().split(',').count()
        );
    }

    #[test]
    fn min_median_max_handles_odd_even_and_empty() {
        assert_eq!(min_median_max(vec![]), None);
        assert_eq!(min_median_max(vec![3.0]), Some((3.0, 3.0, 3.0)));
        assert_eq!(min_median_max(vec![5.0, 1.0, 3.0]), Some((1.0, 3.0, 5.0)));
        assert_eq!(
            min_median_max(vec![4.0, 1.0, 2.0, 3.0]),
            Some((1.0, 2.5, 4.0))
        );
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_duration(Duration::from_micros(376)), "0.376ms");
        assert_eq!(fmt_duration(Duration::from_millis(100)), "100ms");
        assert_eq!(fmt_duration(Duration::from_secs(10)), "10s");
    }

    #[test]
    fn write_result_file_round_trips() {
        let dir = std::env::temp_dir().join("mqo-bench-test");
        let path = write_result_file(&dir, "probe.csv", "a,b\n1,2\n").unwrap();
        assert_eq!(std::fs::read_to_string(path).unwrap(), "a,b\n1,2\n");
    }
}
