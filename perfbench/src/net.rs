//! `net_loopback`: the socket runtime and wire codec, driven through
//! `lpbcast_net::Cluster`'s public API only.
//!
//! One process, one driving thread, two clusters of 120 instances with
//! one UDP socket each on 127.0.0.1. The publication load is open-loop
//! in wall time: event `i` of a ladder step is due at `i / rate` after
//! the step's publication window opens, round-robin over all origins,
//! and is timed from when it was due. Every step starts on fresh
//! clusters.

use std::net::SocketAddr;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use lpbcast_core::{Config, Lpbcast, Message, ProcessStats};
use lpbcast_net::{Cluster, ClusterBuilder, NetError};
use lpbcast_types::{Event, EventId, FastMap, Payload, ProcessId};

use crate::report::{Metrics, Outcome};
use crate::sim::{push_core, Instance};
use crate::stats::{median, quantile};
use crate::trace::{codec_pass, CodecSample, CoreAcc, Sink, Traced};
use crate::{procfs, setup, spans};

const CLUSTERS: usize = 2;
const PER_CLUSTER: u64 = 120;
const N: u64 = CLUSTERS as u64 * PER_CLUSTER;
/// Gossip period `T`.
const PERIOD: Duration = Duration::from_millis(25);
const VIEW_SIZE: usize = 8;
/// The ladder: publication rate (events/s) and window of each step.
/// The top step publishes 800 ids, more than the Bounded history holds
/// (512), which is where it re-delivers. The lower steps' windows stay
/// short because digests grow with every id published, and with them
/// the datagrams that overflow the sockets' receive buffers (see
/// `net.udp.rcvbuf_errors`).
const LADDER: [(u32, Duration); 3] = [
    (25, Duration::from_secs(2)),
    (50, Duration::from_secs(2)),
    (100, Duration::from_secs(8)),
];
/// The step the latency and cost metrics are read at (50 events/s). It
/// runs as many times as the time budget holds, each on fresh clusters
/// (see `report_reps`); the other steps run once.
const REPORT_STEP: usize = 1;
/// Quiet gossip before the publication window (view mixing) and after
/// it (stragglers).
const WARMUP: Duration = Duration::from_millis(750);
const DRAIN: Duration = Duration::from_secs(1);
/// A step is OK when its p99 latency is within 20 T and at most one
/// expected delivery in a thousand failed.
const P99_LIMIT_MS: f64 = 500.0;
const FAIL_LIMIT: f64 = 0.001;
/// How many times the reported step runs within a budget of `seconds`:
/// as many as fit after the other steps, at least one. How many
/// datagrams the sockets drop (and so how many deliveries need a pull)
/// varies from one pair of clusters to the next and with the load on the
/// host, and drops only ever add latency: latency is reported from the
/// best repetition, the other metrics as medians.
fn report_reps(seconds: u64) -> u32 {
    let step = |window: Duration| (WARMUP + window + DRAIN).as_secs_f64();
    let others: f64 = LADDER
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != REPORT_STEP)
        .map(|(_, &(_, window))| step(window))
        .sum();
    let left = seconds as f64 - others;
    ((left / step(LADDER[REPORT_STEP].1)) as u32).max(1)
}

/// Longest a driving-loop poll may block.
const MAX_WAIT: Duration = Duration::from_micros(500);
const PAYLOAD: &[u8] = b"lpbcast-net-evt!";

/// The net harness's gossip configuration: Bounded history, pulls with
/// retry, buffers sized for many real-clock rounds.
fn gossip_config() -> Config {
    Config::builder()
        .view_size(VIEW_SIZE)
        .fanout(3)
        .event_ids_max(512)
        .events_max(512)
        .retransmit_request_max(16)
        .retransmit_retry_ticks(4)
        .archive_capacity(1024)
        .build()
}

/// An instance as the net harness bootstraps it: a ring view of the
/// three successors over the whole id space.
fn bootstrap(id: u64, seed: u64) -> Lpbcast {
    let view: Vec<ProcessId> = (1..=3).map(|d| ProcessId::new((id + d) % N)).collect();
    Lpbcast::with_initial_view(
        ProcessId::new(id),
        gossip_config(),
        seed ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        view,
    )
}

/// Two clusters with every instance registered in both address books.
fn build<P: Instance>(
    seed: u64,
    sink: Option<&Arc<Mutex<Sink<Message>>>>,
) -> Result<Vec<Cluster<P>>, NetError> {
    let payload = Payload::from_static(PAYLOAD);
    let mut clusters = Vec::with_capacity(CLUSTERS);
    for c in 0..CLUSTERS as u64 {
        let mut cluster: Cluster<P> = ClusterBuilder::new(PERIOD).sockets(1).build()?;
        for id in c * PER_CLUSTER..(c + 1) * PER_CLUSTER {
            cluster.add_instance(P::wrap(bootstrap(id, seed), &payload, sink))?;
        }
        clusters.push(cluster);
    }
    let addrs: Vec<SocketAddr> = clusters.iter().map(|c| c.local_addrs()[0]).collect();
    for (c, cluster) in clusters.iter().enumerate() {
        for (other, addr) in addrs.iter().enumerate() {
            if other != c {
                for id in other as u64 * PER_CLUSTER..(other as u64 + 1) * PER_CLUSTER {
                    cluster.register_peer(ProcessId::new(id), *addr);
                }
            }
        }
    }
    Ok(clusters)
}

/// Construction of a cluster pair alone, for `setup_s`.
pub fn setup_only(seed: u64) -> Result<f64, NetError> {
    let t = Instant::now();
    drop(build::<Lpbcast>(seed, None)?);
    Ok(t.elapsed().as_secs_f64())
}

/// One `Cluster::step` span with the core's work summed inside it.
#[derive(Debug, Clone, Copy)]
pub struct ClusterSpan {
    pub rate: u32,
    pub cluster: usize,
    pub start_us: u64,
    pub wall_ns: u64,
    pub core: CoreAcc,
}

/// Bit per instance id.
type IdSet = [u64; 4];

fn test_and_set(set: &mut IdSet, i: usize) -> bool {
    let was = set[i / 64] & (1 << (i % 64)) != 0;
    set[i / 64] |= 1 << (i % 64);
    was
}

/// One published event: when it was due, who has it, and who has had
/// it more than once.
struct Record {
    due: Instant,
    seen: IdSet,
    twice: IdSet,
}

/// Per-event delivery ledger, fed from every instance's deliveries.
#[derive(Default)]
struct Ledger {
    events: FastMap<EventId, Record>,
    unique: u64,
    /// Deliveries beyond the first, and the (event, instance) pairs
    /// they hit.
    dups: u64,
    dup_pairs: u64,
    foreign: u64,
    lat_ms: Vec<f64>,
}

impl Ledger {
    /// Records a publication; the origin already has its own event, so a
    /// later delivery to it counts as a duplicate.
    fn publish(&mut self, id: EventId, due: Instant) {
        let mut seen = IdSet::default();
        test_and_set(&mut seen, id.origin().as_u64() as usize);
        let twice = IdSet::default();
        self.events.insert(id, Record { due, seen, twice });
    }

    fn deliver(&mut self, instance: ProcessId, event: &Event, now: Instant) {
        let i = instance.as_u64() as usize;
        let Some(r) = self.events.get_mut(&event.id()) else {
            self.foreign += 1;
            return;
        };
        if event.payload().as_ref() != PAYLOAD || i >= N as usize {
            self.foreign += 1;
            return;
        }
        if test_and_set(&mut r.seen, i) {
            self.dups += 1;
            self.dup_pairs += u64::from(!test_and_set(&mut r.twice, i));
            return;
        }
        self.unique += 1;
        self.lat_ms
            .push(now.saturating_duration_since(r.due).as_secs_f64() * 1e3);
    }
}

/// Everything one ladder step measured.
#[derive(Debug)]
pub struct Step {
    pub rate: u32,
    pub wall_s: f64,
    pub events: u64,
    pub expected: u64,
    pub unique: u64,
    pub dups: u64,
    pub dup_pairs: u64,
    pub foreign: u64,
    /// Due-to-first-delivery latency of every unique delivery.
    pub lat_ms: Vec<f64>,
    /// How late the generator made each publication.
    pub late_ms: Vec<f64>,
    pub cpu_s: f64,
    pub ticks: u64,
    pub tx_bytes: u64,
    pub datagrams: u64,
    pub local_msgs: u64,
    pub cluster_steps: u64,
    /// Datagrams the kernel dropped for lack of receive-buffer space.
    pub rcvbuf_drops: u64,
    pub stats: ProcessStats,
    pub core: CoreAcc,
    pub spans: Vec<ClusterSpan>,
    pub codec_sample: Vec<Message>,
    /// The reported metrics of each repetition, for medians over them.
    pub reps: Vec<RepMetrics>,
}

/// What one repetition of a step reports.
#[derive(Debug, Clone, Copy)]
pub struct RepMetrics {
    pub p50_ms: f64,
    pub p99_ms: f64,
    pub ticks_per_s: f64,
    pub cpu_us_per_delivery: f64,
    pub wire_bytes_per_delivery: f64,
}

impl Step {
    fn rep_metrics(&self) -> RepMetrics {
        let unique = self.unique.max(1) as f64;
        RepMetrics {
            p50_ms: self.latency(0.5),
            p99_ms: self.latency(0.99),
            ticks_per_s: self.ticks as f64 / self.wall_s,
            cpu_us_per_delivery: self.cpu_s * 1e6 / unique,
            wire_bytes_per_delivery: self.tx_bytes as f64 / unique,
        }
    }

    /// Median over the repetitions of one reported metric.
    fn rep_median(&self, f: impl Fn(&RepMetrics) -> f64) -> f64 {
        let mut v: Vec<f64> = self.reps.iter().map(f).collect();
        median(&mut v).unwrap_or(f64::INFINITY)
    }

    /// The lowest value over the repetitions of one reported metric.
    fn rep_min(&self, f: impl Fn(&RepMetrics) -> f64) -> f64 {
        self.reps.iter().map(f).fold(f64::INFINITY, f64::min)
    }

    /// Adds a repetition of the same step.
    fn absorb(&mut self, o: Step) {
        self.wall_s += o.wall_s;
        self.events += o.events;
        self.expected += o.expected;
        self.unique += o.unique;
        self.dups += o.dups;
        self.dup_pairs += o.dup_pairs;
        self.foreign += o.foreign;
        self.lat_ms.extend(o.lat_ms);
        self.late_ms.extend(o.late_ms);
        self.cpu_s += o.cpu_s;
        self.ticks += o.ticks;
        self.tx_bytes += o.tx_bytes;
        self.datagrams += o.datagrams;
        self.local_msgs += o.local_msgs;
        self.cluster_steps += o.cluster_steps;
        self.rcvbuf_drops += o.rcvbuf_drops;
        crate::sim::add_stats(&mut self.stats, &o.stats);
        self.core.add(&o.core);
        self.spans.extend(o.spans);
        self.codec_sample.extend(o.codec_sample);
        self.reps.extend(o.reps);
    }

    /// Latency quantile over unique deliveries; infinite when nothing
    /// was delivered.
    fn latency(&self, q: f64) -> f64 {
        quantile(&mut self.lat_ms.clone(), q).unwrap_or(f64::INFINITY)
    }

    /// Expected deliveries that never happened or happened twice.
    fn missed_or_repeated(&self) -> u64 {
        self.expected - self.unique + self.dup_pairs
    }

    fn fail_ratio(&self) -> f64 {
        self.missed_or_repeated() as f64 / self.expected.max(1) as f64
    }

    fn ok(&self) -> bool {
        self.latency(0.99) <= P99_LIMIT_MS && self.fail_ratio() <= FAIL_LIMIT
    }
}

/// Runs one ladder step on fresh clusters.
fn run_step<P: Instance>(
    rate: u32,
    window: Duration,
    seed: u64,
    traced: bool,
) -> Result<Step, NetError> {
    let sink = traced.then(|| {
        Arc::new(Mutex::new(Sink {
            acc: CoreAcc::default(),
            sample: CodecSample::new(31, 2000),
        }))
    });
    let mut clusters = build::<P>(seed, sink.as_ref())?;

    let cpu0 = procfs::cpu_time();
    let drops0 = procfs::udp_rcvbuf_errors();
    let t0 = Instant::now();
    let open = t0 + WARMUP;
    let total = u64::from(rate) * window.as_secs();
    let gap = Duration::from_secs(1) / rate;
    let end = open + window + DRAIN;
    let mut ledger = Ledger::default();
    let mut late_ms: Vec<f64> = Vec::new();
    let mut spans: Vec<ClusterSpan> = Vec::new();
    let mut prev = CoreAcc::default();
    let mut next = 0u64;
    let mut cluster_steps = 0u64;
    let payload = Payload::from_static(PAYLOAD);
    loop {
        let now = Instant::now();
        if now >= end {
            break;
        }
        let mut due = open + gap * next as u32;
        while next < total && now >= due {
            let origin = ProcessId::new(next % N);
            let c = (origin.as_u64() / PER_CLUSTER) as usize;
            let id = clusters[c]
                .broadcast(origin, payload.clone())
                .expect("origin is hosted by its cluster");
            ledger.publish(id, due);
            late_ms.push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
            next += 1;
            due = open + gap * next as u32;
        }
        let wait = if next < total {
            due.saturating_duration_since(Instant::now()).min(MAX_WAIT)
        } else {
            MAX_WAIT
        };
        for (c, cluster) in clusters.iter_mut().enumerate() {
            let start = Instant::now();
            cluster.step(wait)?;
            let delivered = cluster.take_deliveries();
            let now = Instant::now();
            for (instance, event) in &delivered {
                ledger.deliver(*instance, event, now);
            }
            cluster_steps += 1;
            if let Some(sink) = &sink {
                let acc = sink.lock().expect("trace sink lock poisoned").acc;
                let mut core = acc;
                core.tick_calls -= prev.tick_calls;
                core.tick_ns -= prev.tick_ns;
                for k in 0..core.handle_ns.len() {
                    core.handle_calls[k] -= prev.handle_calls[k];
                    core.handle_ns[k] -= prev.handle_ns[k];
                }
                prev = acc;
                spans.push(ClusterSpan {
                    rate,
                    cluster: c,
                    start_us: start.duration_since(t0).as_micros() as u64,
                    wall_ns: (now - start).as_nanos() as u64,
                    core,
                });
            }
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = match (cpu0, procfs::cpu_time()) {
        (Some(a), Some(b)) => (b - a).as_secs_f64(),
        _ => 0.0,
    };
    let rcvbuf_drops = match (drops0, procfs::udp_rcvbuf_errors()) {
        (Some(a), Some(b)) => b.saturating_sub(a),
        _ => 0,
    };
    let mut stats = ProcessStats::default();
    let (mut ticks, mut tx_bytes, mut datagrams, mut local_msgs) = (0, 0, 0, 0);
    for cluster in &clusters {
        let s = cluster.stats();
        ticks += s.ticks;
        tx_bytes += s.wire_tx_bytes;
        datagrams += s.datagrams_tx;
        local_msgs += s.local_messages;
        for id in cluster.instance_ids() {
            cluster.with_instance(id, |p| crate::sim::add_stats(&mut stats, p.core().stats()));
        }
    }
    let (core, codec_sample) = match sink {
        Some(sink) => {
            let mut sink = sink.lock().expect("trace sink lock poisoned");
            (sink.acc, std::mem::take(&mut sink.sample.messages))
        }
        None => (CoreAcc::default(), Vec::new()),
    };
    let mut step = Step {
        rate,
        wall_s,
        events: next,
        expected: next * (N - 1),
        unique: ledger.unique,
        dups: ledger.dups,
        dup_pairs: ledger.dup_pairs,
        foreign: ledger.foreign + core.bad_payloads,
        lat_ms: ledger.lat_ms,
        late_ms,
        cpu_s,
        ticks,
        tx_bytes,
        datagrams,
        local_msgs,
        cluster_steps,
        rcvbuf_drops,
        stats,
        core,
        spans,
        codec_sample,
        reps: Vec::new(),
    };
    step.reps.push(step.rep_metrics());
    Ok(step)
}

/// Runs every step of the ladder within a budget of `seconds`, each
/// repetition on fresh clusters with its own seed and followed by the
/// `prober`'s share of set-up probes.
fn ladder<P: Instance>(
    seed: u64,
    seconds: u64,
    traced: bool,
    mut prober: Option<&mut setup::Prober>,
) -> Result<Vec<Step>, String> {
    let mut steps = Vec::with_capacity(LADDER.len());
    let mut run = 0u64;
    let mut measure = |rate, window, run| -> Result<Step, String> {
        let step = run_step::<P>(rate, window, seed.wrapping_add(run), traced)
            .map_err(|e| format!("socket runtime: {e}"))?;
        if let Some(prober) = prober.as_mut() {
            prober.gap()?;
        }
        Ok(step)
    };
    for (i, &(rate, window)) in LADDER.iter().enumerate() {
        let reps = if i == REPORT_STEP {
            report_reps(seconds)
        } else {
            1
        };
        let mut step = measure(rate, window, run)?;
        for _ in 1..reps {
            run += 1;
            step.absorb(measure(rate, window, run)?);
        }
        run += 1;
        steps.push(step);
    }
    Ok(steps)
}

fn report_steps(steps: &[Step]) {
    for s in steps {
        eprintln!(
            "perfbench: {:>3} ev/s: {} events, {} expected, {} missed, {} duplicate, p50 {:.1} ms, p99 {:.1} ms, tick ratio {:.3}, {} datagrams dropped by the kernel{}",
            s.rate,
            s.events,
            s.expected,
            s.expected - s.unique,
            s.dups,
            s.latency(0.5),
            s.latency(0.99),
            tick_ratio(s),
            s.rcvbuf_drops,
            if s.ok() { "" } else { "  (not ok)" }
        );
    }
}

fn tick_ratio(s: &Step) -> f64 {
    s.ticks as f64 / (N as f64 * s.wall_s / PERIOD.as_secs_f64())
}

/// Deliveries of unpublished ids or wrong payloads over the ladder.
fn foreign(steps: &[Step]) -> u64 {
    let foreign: u64 = steps.iter().map(|s| s.foreign).sum();
    if foreign > 0 {
        eprintln!("perfbench: {foreign} deliveries of unpublished ids or wrong payloads");
    }
    foreign
}

/// Runs the untraced ladder within a budget of `seconds`, with set-up
/// probes after each step run.
pub fn run(seed: u64, seconds: u64, name: &str) -> Result<Outcome, String> {
    let runs = LADDER.len() - 1 + report_reps(seconds) as usize;
    let mut prober = setup::Prober::new(name, seed, runs);
    let steps = ladder::<Lpbcast>(seed, seconds, false, Some(&mut prober))?;
    report_steps(&steps);
    let mut setups = prober.times;
    let at = &steps[REPORT_STEP];
    let attempted: u64 = steps.iter().map(|s| s.expected).sum();
    let missed_or_repeated: u64 = steps.iter().map(Step::missed_or_repeated).sum();
    let failed = foreign(&steps);
    let max_ok = steps
        .iter()
        .filter(|s| s.ok())
        .map(|s| f64::from(s.rate))
        .fold(0.0, f64::max);
    let period_ms = PERIOD.as_secs_f64() * 1e3;
    let mut m = Metrics::default();
    m.push("setup_s", median(&mut setups).expect("setups ran"), "s");
    m.push("node_rounds_per_s", at.rep_median(|r| r.ticks_per_s), "1/s");
    let (p50, p99) = (at.rep_min(|r| r.p50_ms), at.rep_min(|r| r.p99_ms));
    m.push("delivery_rounds_p50", p50 / period_ms, "rounds");
    m.push("delivery_rounds_p99", p99 / period_ms, "rounds");
    m.push("delivery_ms_p50", p50, "ms");
    m.push("delivery_ms_p99", p99, "ms");
    m.push("max_ok_rate", max_ok, "1/s");
    // CPU time comes in 10 ms ticks: about 60 of them per repetition.
    m.push(
        "cpu_us_per_delivery",
        at.rep_median(|r| r.cpu_us_per_delivery),
        "us",
    );
    m.push(
        "delivery_fail_ratio",
        missed_or_repeated as f64 / attempted.max(1) as f64,
        "ratio",
    );
    m.push(
        "wire_bytes_per_delivery",
        at.rep_median(|r| r.wire_bytes_per_delivery),
        "B",
    );
    m.push(
        "bytes_per_node",
        procfs::peak_rss_bytes().unwrap_or(0) as f64 / N as f64,
        "B",
    );
    Ok(Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics: m,
    })
}

/// The traced run: an untraced and a traced ladder of the same seed,
/// each within half the budget of `seconds`; per-layer metrics from the
/// traced one.
pub fn run_traced(seed: u64, seconds: u64, name: &str) -> Result<Outcome, String> {
    let plain = ladder::<Lpbcast>(seed, seconds / 2, false, None)?;
    let traced = ladder::<Traced>(seed, seconds / 2, true, None)?;
    report_steps(&traced);
    let failed = foreign(&plain).max(foreign(&traced));
    let mut ok = failed == 0;
    let at = &traced[REPORT_STEP];
    let codec = codec_pass(&at.codec_sample, 20);
    if codec.mismatches > 0 {
        eprintln!(
            "perfbench: {} sampled messages failed the codec round trip",
            codec.mismatches
        );
        ok = false;
    }
    let all_spans: Vec<ClusterSpan> = traced
        .iter()
        .flat_map(|s| s.spans.iter().copied())
        .collect();
    let spans_path = spans::write_net(name, seed, &all_spans);

    // Call and cost metrics at the 50 events/s step; delivery-quality
    // counts over the whole ladder, where the re-delivery shows.
    let mut quality = ProcessStats::default();
    for s in &traced {
        crate::sim::add_stats(&mut quality, &s.stats);
    }
    let mut at_stats = at.stats;
    at_stats.ids_purged = quality.ids_purged;
    at_stats.events_truncated = quality.events_truncated;
    at_stats.duplicate_events = quality.duplicate_events;
    at_stats.events_delivered = quality.events_delivered;
    at_stats.retransmit_requests_sent = quality.retransmit_requests_sent;
    at_stats.retransmits_served = quality.retransmits_served;
    at_stats.retransmit_misses = quality.retransmit_misses;
    let dups: u64 = traced.iter().map(|s| s.dups).sum();

    let mut m = Metrics::default();
    push_core(&mut m, &at.core, &at_stats, dups);
    let remote = at.core.outgoing.saturating_sub(at.local_msgs);
    m.push(
        "net.wire.bytes_per_msg",
        at.tx_bytes as f64 / remote.max(1) as f64,
        "B",
    );
    m.push("net.wire.encode_ns", codec.encode_ns, "ns");
    m.push("net.wire.decode_ns", codec.decode_ns, "ns");
    let core_s = at.core.core_ns() as f64 / 1e9;
    m.push(
        "net.cluster.step_us",
        at.wall_s * 1e6 / at.cluster_steps.max(1) as f64,
        "us",
    );
    m.push("net.cluster.cpu_util", at.cpu_s / at.wall_s, "ratio");
    m.push(
        "net.cluster.runtime_cpu_us_per_delivery",
        (at.cpu_s - core_s) * 1e6 / at.unique.max(1) as f64,
        "us",
    );
    m.push(
        "net.cluster.bytes_per_datagram",
        at.tx_bytes as f64 / at.datagrams.max(1) as f64,
        "B",
    );
    m.push(
        "net.cluster.msgs_per_datagram",
        remote as f64 / at.datagrams.max(1) as f64,
        "count",
    );
    m.push(
        "net.cluster.local_share",
        at.local_msgs as f64 / at.core.outgoing.max(1) as f64,
        "ratio",
    );
    m.push("net.cluster.tick_ratio", tick_ratio(at), "ratio");
    m.push(
        "net.udp.rcvbuf_errors",
        at.rcvbuf_drops as f64 / at.datagrams.max(1) as f64,
        "ratio",
    );
    m.push(
        "bench.gen_late_ms",
        quantile(&mut at.late_ms.clone(), 0.99).unwrap_or(0.0),
        "ms",
    );
    let cpu_per = |s: &Step| s.cpu_s / s.unique.max(1) as f64;
    m.push(
        "bench.trace_overhead",
        (cpu_per(at) / cpu_per(&plain[REPORT_STEP]) - 1.0) * 100.0,
        "%",
    );
    eprintln!(
        "perfbench: traced CPU per delivery {:.2} us vs untraced {:.2} us at {} ev/s; {} spans in {}",
        cpu_per(at) * 1e6,
        cpu_per(&plain[REPORT_STEP]) * 1e6,
        at.rate,
        all_spans.len(),
        spans_path
    );
    let attempted: u64 = traced.iter().map(|s| s.expected).sum();
    Ok(Outcome {
        correct: ok,
        attempted,
        failed,
        metrics: m,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_step_fills_the_budget() {
        // The other steps take 3.75 s and 9.75 s, a reported one 3.75 s.
        assert_eq!(report_reps(30), 4);
        assert_eq!(report_reps(40), 7);
        assert_eq!(report_reps(1), 1);
    }
}
