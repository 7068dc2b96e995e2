//! `setup_s`: set-up times sampled in fresh processes.
//!
//! How long a build takes depends on the process it runs in as much as
//! on the moment: much of a build is first touches of fresh memory, the
//! first few builds in a process take up to three times as long as the
//! later ones, and on a shared VM the later ones settle at a level that
//! differs by up to 1.6× from one process to the next while it holds
//! within one. Builds timed in the measuring process would report that
//! one process's level, and the level drifts with the host over tens of
//! seconds. So a run spawns probes — fresh processes of this program,
//! started with `--setup-probe <k>`, one at a time and spread over the
//! gaps between its trials or ladder steps; each times `k` builds and
//! prints one time per line, and `setup_s` is the median over every
//! build timed. With more warm builds than cold ones per probe, the
//! median is a warm build over several processes and moments.

use std::process::{Command, Stdio};

/// Probe processes per run (at least), and builds each of them times.
const PROBES: usize = 8;
const BUILDS_PER_PROBE: usize = 8;

/// The set-up probes of one run, shared out over its gaps.
pub struct Prober<'a> {
    workload: &'a str,
    seed: u64,
    per_gap: usize,
    /// Every build timed so far, in seconds.
    pub times: Vec<f64>,
}

impl<'a> Prober<'a> {
    /// Probes for a run with `gaps` gaps to fill.
    pub fn new(workload: &'a str, seed: u64, gaps: usize) -> Self {
        Prober {
            workload,
            seed,
            per_gap: PROBES.div_ceil(gaps.max(1)),
            times: Vec::with_capacity(PROBES * BUILDS_PER_PROBE),
        }
    }

    /// Runs this gap's share of the probes.
    pub fn gap(&mut self) -> Result<(), String> {
        for _ in 0..self.per_gap {
            self.times.extend(probe(self.workload, self.seed)?);
        }
        Ok(())
    }
}

/// Times `BUILDS_PER_PROBE` builds of `workload` in a fresh process and
/// waits for it to end.
fn probe(workload: &str, seed: u64) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("setup probe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--setup-probe", &BUILDS_PER_PROBE.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("setup probe: {e}"))?;
    if !out.status.success() {
        return Err(format!("setup probe exited with {}", out.status));
    }
    parse_times(&String::from_utf8_lossy(&out.stdout))
}

/// One time in seconds per line, as a probe prints them.
fn parse_times(text: &str) -> Result<Vec<f64>, String> {
    let times: Vec<f64> = text
        .lines()
        .map(|l| l.trim().parse::<f64>())
        .collect::<Result<_, _>>()
        .map_err(|e| format!("setup probe output: {e}"))?;
    if times.is_empty() || times.iter().any(|t| !t.is_finite() || *t <= 0.0) {
        return Err(format!("setup probe output: {times:?}"));
    }
    Ok(times)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_probe_output() {
        assert_eq!(parse_times("0.5\n0.25\n").unwrap(), vec![0.5, 0.25]);
        assert!(parse_times("").is_err());
        assert!(parse_times("0.5\nfast\n").is_err());
        assert!(parse_times("0\n").is_err());
    }
}
