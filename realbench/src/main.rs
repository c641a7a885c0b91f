//! Real-thread benchmark of the YewPar skeletons.
//!
//! ```text
//! realbench --workload <clique|enum|runtime> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Generates the workload's instances from the seed, runs it on real
//! threads (at most `nproc` search workers, at most `nproc` searches in
//! flight) for about `--seconds`, checks every answer, and prints as its
//! last line one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`.  `README.md` defines every metric.

mod clique;
mod enumerate;
mod flight;
mod ledger;
mod report;
mod runtime;
mod stats;
mod suite;
mod timed;

use std::process::ExitCode;

/// Command-line options.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload name.
    pub workload: String,
    /// Seed of every generated input.
    pub seed: u64,
    /// Measurement time in seconds.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end run.
    pub trace: bool,
    /// Search workers: the host's available parallelism.
    pub nproc: usize,
}

/// A sub-seed of `seed` for stream `a`, item `b` (splitmix64 finaliser).
pub fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut z = seed
        .wrapping_add(a.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(b.wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["clique", "enum", "runtime"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Options {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("realbench: {e}");
            eprintln!("usage: realbench --workload <clique|enum|runtime> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    println!("{}", report::provenance_line(opts.seed, opts.nproc));
    let report = match opts.workload.as_str() {
        "clique" => clique::run(&opts),
        "enum" => enumerate::run(&opts),
        _ => runtime::run(&opts),
    };
    for note in &report.notes {
        println!("# {note}");
    }
    println!(
        "# failed_frac {}",
        stats::ratio(report.failed as f64, report.attempted as f64)
    );
    println!("{}", report::result_line(&report));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let o = parse(&args("--workload enum --seed 3 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            (o.workload.as_str(), o.seed, o.seconds, o.trace),
            ("enum", 3, 10.0, true)
        );
        assert!(parse(&args("--workload bogus --seed 3 --seconds 10 --trace 0")).is_err());
        assert!(parse(&args("--workload enum --seed 3 --seconds 10 --trace 2")).is_err());
        assert!(parse(&args("--workload enum --seed 3 --trace 0")).is_err());
    }

    #[test]
    fn mix_is_deterministic_and_spreads() {
        assert_eq!(mix(1, 2, 3), mix(1, 2, 3));
        assert_ne!(mix(1, 2, 3), mix(1, 2, 4));
        assert_ne!(mix(1, 2, 3), mix(2, 2, 3));
    }
}
