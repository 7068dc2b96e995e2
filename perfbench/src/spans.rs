//! Writes a traced run's spans, kept in memory while it ran, to
//! `perfbench/out/` as one TSV row per span.

use std::fmt::Write as _;
use std::path::PathBuf;

use crate::net::ClusterSpan;
use crate::sim::StepSpan;
use crate::trace::{CoreAcc, KINDS};

fn core_header() -> String {
    let mut h = String::from("tick_calls\ttick_ns");
    for kind in KINDS {
        let _ = write!(h, "\t{kind}_calls\t{kind}_ns");
    }
    h
}

fn core_row(c: &CoreAcc) -> String {
    let mut row = format!("{}\t{}", c.tick_calls, c.tick_ns);
    for k in 0..KINDS.len() {
        let _ = write!(row, "\t{}\t{}", c.handle_calls[k], c.handle_ns[k]);
    }
    row
}

/// Writes `body` under `out/`, returning the path or the error as text.
fn write(file: &str, body: &str) -> String {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(file);
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, body)) {
        Ok(()) => path.display().to_string(),
        Err(e) => format!("(not written: {e})"),
    }
}

/// One row per `Engine::step`.
pub fn write_sim(workload: &str, seed: u64, spans: &[StepSpan]) -> String {
    let mut body = format!(
        "round\twall_ns\tself_ns\tcore_ns\tcore_cover_ns\tmeter_ns\t{}\n",
        core_header()
    );
    for s in spans {
        let _ = writeln!(
            body,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.round,
            s.wall_ns,
            s.self_ns(),
            s.core_ns,
            s.core_cover_ns,
            s.meter_ns,
            core_row(&s.core)
        );
    }
    write(&format!("spans-{workload}-seed{seed}.tsv"), &body)
}

/// One row per `Cluster::step`.
pub fn write_net(workload: &str, seed: u64, spans: &[ClusterSpan]) -> String {
    let mut body = format!("rate\tcluster\tstart_us\twall_ns\t{}\n", core_header());
    for s in spans {
        let _ = writeln!(
            body,
            "{}\t{}\t{}\t{}\t{}",
            s.rate,
            s.cluster,
            s.start_us,
            s.wall_ns,
            core_row(&s.core)
        );
    }
    write(&format!("spans-{workload}-seed{seed}.tsv"), &body)
}
