//! Where and from what a result was measured: host topology, kernel, the
//! git commit it was built from, the exact command, and the workload seed.

use std::path::Path;

/// Provenance of one run, rendered as one JSON object.
pub fn json(workload: &str, seed: u64) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string());
    let command: Vec<String> = std::env::args().collect();
    format!(
        "{{\"nproc\":{nproc},\"cpu\":{},\"kernel\":{},\"git_commit\":{},\"command\":{},\"workload\":{},\"seed\":{seed}}}",
        quote(&cpu),
        quote(&kernel),
        quote(&git_commit()),
        quote(&command.join(" ")),
        quote(workload),
    )
}

/// `HEAD` of the checkout when it is a git work tree, else `"none"`.
fn git_commit() -> String {
    if !Path::new(".git").exists() {
        return "none".to_string();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// A JSON string literal.
fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quoting_escapes_json_specials() {
        assert_eq!(quote("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }

    #[test]
    fn provenance_is_valid_json_with_every_field() {
        let v: serde_json::Value = serde_json::from_str(&json("fleet-small", 9)).unwrap();
        for key in ["nproc", "cpu", "kernel", "git_commit", "command"] {
            assert!(v.get(key).is_some(), "{key} missing");
        }
        assert_eq!(v["seed"].as_u64(), Some(9));
        assert_eq!(v["workload"].as_str(), Some("fleet-small"));
    }
}
