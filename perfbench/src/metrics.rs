//! Metric names and units as `BENCHMARK.json` declares them, and the
//! result line every run ends with.

/// End-to-end metrics, printed with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("solves_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("cpu_ms_per_solve", "ms"),
    ("cost_vs_optimum_pct", "%"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed with `--trace 1`. Rows up to
/// `event_loop.wakeups_per_request` come from the untraced serving run
/// (`/metrics` counters and response fields); the rest from the staged
/// replay.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("cache.hit_ratio", "ratio"),
    ("cache.evictions_per_solve", "count"),
    ("queue.wait_p50_ms", "ms"),
    ("queue.wait_p99_ms", "ms"),
    ("engine.wall_ms", "ms"),
    ("front.overhead_ms", "ms"),
    ("event_loop.wakeups_per_request", "count"),
    ("shard.hop_ms", "ms"),
    ("http.parse_us", "us"),
    ("api.decode_us", "us"),
    ("api.encode_us", "us"),
    ("router.route_us", "us"),
    ("core.logical_map_us", "us"),
    ("chimera.embed_us", "us"),
    ("chimera.place_us", "us"),
    ("chimera.physical_map_us", "us"),
    ("annealer.program_us", "us"),
    ("annealer.read_us", "us"),
    ("annealer.reads_per_s", "1/s"),
    ("chimera.unembed_us", "us"),
    ("core.decode_us", "us"),
    ("core.repair_share", "ratio"),
    ("chimera.broken_chain_share", "ratio"),
    ("core.verify_us", "us"),
    ("shard.structure_key_us", "us"),
    ("engine.solve_us", "us"),
    ("ledger.unattributed_pct", "%"),
];

/// The unit `BENCHMARK.json` gives `name`.
pub fn unit(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

/// The last line of a run:
/// `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`, with
/// every value printed with all its digits.
pub fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    values: &[(&str, f64)],
) -> String {
    let metrics: Vec<String> = values
        .iter()
        .map(|(name, value)| {
            let unit = unit(name).unwrap_or_else(|| panic!("metric {name} is not declared"));
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        metrics.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_json_with_units() {
        let line = result_line(true, 10, 0, &[("latency_p50_ms", 1.25), ("setup_s", 2.0)]);
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":10,\"failed\":0,\"metrics\":{\
             \"latency_p50_ms\":{\"value\":1.25,\"unit\":\"ms\"},\
             \"setup_s\":{\"value\":2.0,\"unit\":\"s\"}}}"
        );
        let v: serde_json::Value = serde_json::from_str(&line).unwrap();
        assert_eq!(v["metrics"]["setup_s"]["value"].as_f64(), Some(2.0));
    }

    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let v: serde_json::Value = serde_json::from_str(&text).unwrap();
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let declared = &v[key];
            for (i, (name, unit)) in table.iter().enumerate() {
                assert_eq!(declared[i]["name"].as_str(), Some(*name), "{key}[{i}]");
                assert_eq!(declared[i]["unit"].as_str(), Some(*unit), "{key}[{i}]");
            }
            assert!(
                declared[table.len()].is_null(),
                "{key} declares extra metrics"
            );
        }
        for (i, w) in crate::workload::Workload::ALL.iter().enumerate() {
            assert_eq!(v["workloads"][i]["name"].as_str(), Some(w.name()));
        }
    }
}
