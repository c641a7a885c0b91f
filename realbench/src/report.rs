//! Result assembly: named metrics with units, the final JSON line, the
//! provenance line, and the process gauges read from `/proc/self/status`.

use std::process::Command;
use std::time::Instant;

use crate::stats::median;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Searches and gates run.
    pub attempted: u64,
    /// Searches and gates whose answer or accounting was wrong.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result (warnings, gates).
    pub notes: Vec<String>,
}

impl Report {
    /// Record a metric.
    pub fn put(&mut self, name: &str, unit: &'static str, value: f64) {
        self.metrics.push(Metric {
            name: name.to_string(),
            unit,
            value,
        });
    }

    /// Record one checked outcome.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(format!("FAILED: {}", what()));
        }
    }
}

fn json_string(s: &str) -> String {
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

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        // JSON has no NaN or infinity; a non-finite metric is a bug in the
        // benchmark, and the run is marked incorrect by the caller.
        "null".to_string()
    }
}

/// The result line: `correct`, `attempted`, `failed` and every metric.
pub fn result_line(report: &Report) -> String {
    let finite = report.metrics.iter().all(|m| m.value.is_finite());
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(&m.name),
                json_number(m.value),
                json_string(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0 && finite,
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

/// First line of a tool's output, or `"unknown"`.
fn tool_output(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// The git revision of the working directory, if it is the top of a git
/// checkout (a parent directory's repository does not count).
fn git_rev() -> String {
    let here = std::env::current_dir()
        .ok()
        .and_then(|d| d.canonicalize().ok());
    let top = tool_output("git", &["rev-parse", "--show-toplevel"]);
    let top = std::path::Path::new(&top).canonicalize().ok();
    if here.is_some() && here == top {
        tool_output("git", &["rev-parse", "HEAD"])
    } else {
        "unknown".to_string()
    }
}

/// The provenance line: seed, git revision, rustc version, nproc and the
/// command that produced the result.
pub fn provenance_line(seed: u64, nproc: usize) -> String {
    let command: Vec<String> = std::env::args().collect();
    format!(
        "provenance {{\"seed\": {seed}, \"git_rev\": {}, \"rustc\": {}, \"nproc\": {nproc}, \"command\": {}}}",
        json_string(&git_rev()),
        json_string(&tool_output("rustc", &["--version"])),
        json_string(&command.join(" "))
    )
}

/// A `kB` field of `/proc/self/status` (0 when unavailable).
fn status_field(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                line.strip_prefix(field)
                    .and_then(|rest| rest.split_whitespace().next())
                    .and_then(|v| v.parse().ok())
            })
        })
        .unwrap_or(0)
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM:") as f64 / 1024.0
}

/// Threads of this process.
pub fn threads() -> u64 {
    status_field("Threads:")
}

/// Median seconds of one set-up: `build` is repeated (and its product
/// handed to `teardown`, untimed) until a sample holds at least 20 ms of
/// set-up, and the per-set-up time of seven samples is reduced to their
/// median.
pub fn setup_seconds<T>(mut build: impl FnMut() -> T, mut teardown: impl FnMut(T)) -> f64 {
    const SAMPLES: usize = 7;
    const MIN_SAMPLE_S: f64 = 0.02;
    let samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let (mut total, mut count) = (0.0, 0u32);
            while total < MIN_SAMPLE_S {
                let start = Instant::now();
                let built = std::hint::black_box(build());
                total += start.elapsed().as_secs_f64();
                count += 1;
                teardown(built);
            }
            total / f64::from(count)
        })
        .collect();
    median(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_shape() {
        let mut report = Report::default();
        report.check(true, || "unused".into());
        report.put("latency_p50_ms", "ms", 1.25);
        report.put("setup_s", "s", 2e-7);
        assert_eq!(
            result_line(&report),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"latency_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \"setup_s\": {\"value\": 2e-7, \"unit\": \"s\"}}}"
        );
        report.check(false, || "wrong".into());
        assert!(result_line(&report)
            .starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1"));
    }
}
