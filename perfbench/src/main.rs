//! The lpbcast benchmark: one workload per process.
//!
//! ```text
//! perfbench --workload <sim_load|sim_churn|net_loopback> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints one line per metric and, as the last line of standard output,
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`. With
//! `--trace 0` the metrics are the end-to-end ones of an untraced run;
//! with `--trace 1` the per-layer ones of an instrumented run, next to
//! an untraced run of the same seed (see `perfbench/README.md`).
//!
//! `--setup-probe <k>` (used by the benchmark itself, see `setup.rs`)
//! times `k` builds of the workload and prints one time per line.

#![forbid(unsafe_code)]

mod net;
mod procfs;
mod report;
mod setup;
mod sim;
mod spans;
mod stats;
mod trace;

use report::Outcome;
use sim::SimWorkload;

const WORKLOADS: [&str; 3] = ["sim_load", "sim_churn", "net_loopback"];

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    setup_probe: Option<usize>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut setup_probe = None;
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=600).contains(&s) {
                    return Err("--seconds must be within 1..=600".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--setup-probe" => {
                let k: usize = value.parse().map_err(|e| format!("--setup-probe: {e}"))?;
                if !(1..=100).contains(&k) {
                    return Err("--setup-probe must be within 1..=100".into());
                }
                setup_probe = Some(k);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(20),
        trace: trace.unwrap_or(false),
        setup_probe,
    })
}

fn run(args: &Args) -> Result<Outcome, String> {
    let (seed, seconds, name) = (args.seed, args.seconds, args.workload.as_str());
    let sim = |w| {
        if args.trace {
            Ok(sim::run_traced(w, seed, name))
        } else {
            sim::run(w, seed, seconds, name)
        }
    };
    match name {
        "sim_load" => sim(SimWorkload::Load),
        "sim_churn" => sim(SimWorkload::Churn),
        _ if args.trace => net::run_traced(seed, seconds, name),
        _ => net::run(seed, seconds, name),
    }
}

/// Times `k` builds of the workload and prints one time per line.
fn setup_probe(args: &Args, k: usize) -> Result<(), String> {
    for _ in 0..k {
        let seconds = match args.workload.as_str() {
            "sim_load" => sim::setup_only(SimWorkload::Load, args.seed),
            "sim_churn" => sim::setup_only(SimWorkload::Churn, args.seed),
            _ => net::setup_only(args.seed).map_err(|e| format!("socket runtime: {e}"))?,
        };
        println!("{seconds}");
    }
    Ok(())
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let result = match args.setup_probe {
        Some(k) => setup_probe(&args, k),
        None => run(&args).and_then(|outcome| outcome.print(args.trace)),
    };
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = args("--workload sim_load --seed 7 --seconds 12 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("sim_load", 7, 12, true)
        );
        let p = args("--workload net_loopback --seed 3 --setup-probe 5").unwrap();
        assert_eq!(p.setup_probe, Some(5));
    }

    #[test]
    fn rejects_bad_arguments() {
        assert!(args("--workload nope --seed 1").is_err());
        assert!(args("--workload sim_load").is_err());
        assert!(args("--workload sim_load --seed 1 --trace 2").is_err());
        assert!(args("--workload sim_load --seed 1 --seconds 0").is_err());
        assert!(args("--workload sim_load --seed").is_err());
        assert!(args("--workload sim_load --seed 1 --setup-probe 0").is_err());
    }
}
