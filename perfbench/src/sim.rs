//! The two simulator workloads, `sim_load` and `sim_churn`, driven
//! through `lpbcast_sim::Engine`'s public API only.
//!
//! Both are open-loop in logical time: a fixed number of publications
//! per round whatever the progress. A *trial* builds one engine and runs
//! the whole schedule; a run repeats trials with the same seed as often
//! as its time budget holds, so the deterministic counts come from every
//! trial identically and the wall clocks are medians over trials.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use lpbcast_analysis::infection::{ExpectationModel, InfectionParams};
use lpbcast_core::{Lpbcast, Message, ProcessStats};
use lpbcast_net::wire_meter;
use lpbcast_sim::scale::scaled_params;
use lpbcast_sim::{
    sample_distinct, sample_view, ChurnParams, Engine, EngineBuilder, FaultPlane, NetworkModel,
    ScenarioProtocol, ScenarioSpec, SpecReport,
};
use lpbcast_types::{EventId, FastSet, Payload, ProcessId, Protocol};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::report::{Metrics, Outcome};
use crate::stats::{grouped_quantile, median};
use crate::trace::{
    codec_pass, timed_meter, CodecSample, CoreAcc, MeterAcc, Sink, Traced, KINDS, SECTIONS,
};
use crate::{procfs, setup, spans};

/// `sim_load`: system size, publication schedule and shard count.
const LOAD_N: usize = 10_000;
const LOAD_RATE: usize = 20;
const LOAD_PUBLISHERS: u64 = 16;
const LOAD_PUBLISH_ROUNDS: u64 = 40;
const LOAD_DRAIN_ROUNDS: u64 = 20;
const LOAD_SHARDS: usize = 2;

/// `sim_churn`: one cell of the scenario matrix (1% joins plus 1%
/// leaves per round for 30 rounds under `noisy_links`), run serially.
pub const CHURN_CELL: &str = "proto=lpbcast;gen=churn;n=10000;rate=5;fault.lossy_links=0.2;\
fault.link_loss=0.3;fault.duplicate=0.05;fault.delay=0.1;fault.delay_max=2";

/// Distinct gossip bodies sampled for the codec pass: every 97th, at
/// most 2000.
const SAMPLE_STRIDE: u64 = 97;
const SAMPLE_CAP: usize = 2000;

const LOAD_PAYLOAD: &[u8] = b"lpbcast-load-evt";
/// The payload the scenario generator itself publishes (payload size
/// feeds the wire bytes, so the churn loop must match it).
const CHURN_PAYLOAD: &[u8] = b"churn";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimWorkload {
    Load,
    Churn,
}

impl SimWorkload {
    fn payload(self) -> Payload {
        Payload::from_static(match self {
            SimWorkload::Load => LOAD_PAYLOAD,
            SimWorkload::Churn => CHURN_PAYLOAD,
        })
    }

    /// How many trials a run of `seconds` makes. The count comes from
    /// the budget and a trial's length on a 2-vCPU host (sim_load about
    /// 10 s, sim_churn about 18 s), not from the clock, so every run of a
    /// workload does the same work however fast the host is that minute.
    pub fn trials(self, seconds: u64) -> usize {
        let trial_s = match self {
            SimWorkload::Load => 10,
            SimWorkload::Churn => 18,
        };
        (seconds / trial_s).max(1) as usize
    }
}

/// What the workload loops need from an instance, plain or traced.
pub trait Instance: ScenarioProtocol<Msg = Message> + Send {
    /// Wraps a core that must deliver `payload`; a traced instance also
    /// reports into `sink` when given one.
    fn wrap(core: Lpbcast, payload: &Payload, sink: Option<&Arc<Mutex<Sink<Message>>>>) -> Self;
    fn set_payload(cfg: &mut Self::Cfg, payload: &Payload);
    fn core(&self) -> &Lpbcast;
    fn acc(&self) -> Option<&CoreAcc> {
        None
    }
    fn max_seq(&self) -> &[(ProcessId, u64)] {
        &[]
    }
}

impl Instance for Lpbcast {
    fn wrap(core: Lpbcast, _: &Payload, _: Option<&Arc<Mutex<Sink<Message>>>>) -> Self {
        core
    }
    fn set_payload(_: &mut Self::Cfg, _: &Payload) {}
    fn core(&self) -> &Lpbcast {
        self
    }
}

impl Instance for Traced {
    fn wrap(core: Lpbcast, payload: &Payload, sink: Option<&Arc<Mutex<Sink<Message>>>>) -> Self {
        let traced = Traced::new(core, payload.clone());
        match sink {
            Some(sink) => traced.with_sink(sink.clone()),
            None => traced,
        }
    }
    fn set_payload(cfg: &mut Self::Cfg, payload: &Payload) {
        cfg.1 = payload.clone();
    }
    fn core(&self) -> &Lpbcast {
        self.inner()
    }
    fn acc(&self) -> Option<&CoreAcc> {
        Some(&self.acc)
    }
    fn max_seq(&self) -> &[(ProcessId, u64)] {
        &self.max_seq
    }
}

/// Adds every counter of `b` into `a`.
pub fn add_stats(a: &mut ProcessStats, b: &ProcessStats) {
    a.gossips_sent += b.gossips_sent;
    a.gossips_received += b.gossips_received;
    a.events_delivered += b.events_delivered;
    a.duplicate_events += b.duplicate_events;
    a.events_published += b.events_published;
    a.ids_learned += b.ids_learned;
    a.ids_purged += b.ids_purged;
    a.events_truncated += b.events_truncated;
    a.unsubs_applied += b.unsubs_applied;
    a.subs_added += b.subs_added;
    a.retransmit_requests_sent += b.retransmit_requests_sent;
    a.retransmits_served += b.retransmits_served;
    a.retransmit_misses += b.retransmit_misses;
    a.join_requests_sent += b.join_requests_sent;
}

/// The deterministic outcome of one trial: a pure function of the seed.
/// A traced trial must reproduce it exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct Counts {
    pub rounds: u64,
    pub published: u64,
    /// Event × alive member other than its origin, at the end.
    pub expected: u64,
    /// Of those, the pairs where the member saw the event.
    pub unique: u64,
    /// Of those, the pairs where it saw it within the deadline.
    pub on_time: u64,
    /// Deliveries the protocol reported (payloads plus learnt ids).
    pub deliveries: u64,
    /// First sightings over every process that ever ran.
    pub sightings: u64,
    pub wire_messages: u64,
    pub wire_bytes: u64,
    pub dropped: u64,
    pub stats: ProcessStats,
    /// Churn only: joins, completed joins, leaves, refused leaves.
    pub membership: [u64; 4],
    /// Churn only: mean reliability as the scenario module defines it.
    pub reliability_mean: f64,
}

impl Counts {
    pub fn duplicates(&self) -> u64 {
        self.deliveries.saturating_sub(self.sightings)
    }

    /// Expected deliveries that did not happen within the deadline.
    pub fn missed(&self) -> u64 {
        self.expected - self.on_time
    }
}

/// One `Engine::step` span with its children summed inside it.
#[derive(Debug, Clone, Copy, Default)]
pub struct StepSpan {
    pub round: u64,
    pub wall_ns: u64,
    /// Σ core time of the step over all instances (all shards).
    pub core_ns: u64,
    /// The part of the step the core covers: the longest shard's tick
    /// time plus the longest shard's handling time.
    pub core_cover_ns: u64,
    pub meter_ns: u64,
    pub core: CoreAcc,
}

impl StepSpan {
    pub fn self_ns(&self) -> i64 {
        self.wall_ns as i64 - self.core_cover_ns as i64 - self.meter_ns as i64
    }
}

/// Everything one trial measured.
#[derive(Debug)]
pub struct Trial {
    pub build_s: f64,
    /// Wall time of the round loop (publications plus steps), to the
    /// end of the last step.
    pub wall_s: f64,
    /// Σ alive instances over the rounds run.
    pub node_rounds: u64,
    pub counts: Counts,
    /// Rounds from publication to first sighting, grouped by round.
    pub hist_rounds: Vec<u64>,
    /// Wall ms of each round (its publications plus its step), round 1
    /// first.
    pub round_ms: Vec<f64>,
    /// Per event: the round it was published at and its latency
    /// histogram over receivers (`hist[k]`: first sightings `k` rounds
    /// later).
    pub event_hists: Vec<(u64, Vec<u64>)>,
    pub cpu_s: f64,
    pub spans: Vec<StepSpan>,
    pub publish_ns: u64,
    pub meter: (u64, u64, u64),
    pub codec_sample: Vec<Message>,
    /// Sightings of ids no one published, or of bad payloads.
    pub foreign: u64,
}

/// Times steps and publications, and in a traced trial turns the
/// instances' accumulators into one span per step.
struct Stepper {
    t0: Instant,
    /// `step_end_ms[r]`: wall ms at which round `r` ended.
    step_end_ms: Vec<f64>,
    published: Vec<EventId>,
    publish_ns: u64,
    node_rounds: u64,
    traced: bool,
    probes: Probes,
    build_s: f64,
    cpu0: Option<Duration>,
    /// Per-shard accumulator totals after the previous step.
    prev: Vec<CoreAcc>,
    /// Accumulators of instances removed from the engine.
    departed: CoreAcc,
    spans: Vec<StepSpan>,
}

impl Stepper {
    /// Starts the clocks of a trial whose engine took `build_s` to build.
    fn new(traced: bool, probes: Probes, build_s: f64, cpu0: Option<Duration>) -> Self {
        Stepper {
            t0: Instant::now(),
            step_end_ms: vec![0.0],
            published: Vec::new(),
            publish_ns: 0,
            node_rounds: 0,
            traced,
            probes,
            build_s,
            cpu0,
            prev: Vec::new(),
            departed: CoreAcc::default(),
            spans: Vec::new(),
        }
    }

    fn publish<P: Instance>(
        &mut self,
        engine: &mut Engine<P>,
        origin: ProcessId,
        payload: &Payload,
    ) {
        let t = Instant::now();
        let id = engine.publish_from(origin, payload.clone());
        self.publish_ns += t.elapsed().as_nanos() as u64;
        self.published.push(id);
    }

    fn step<P: Instance>(&mut self, engine: &mut Engine<P>) {
        self.node_rounds += engine.alive_count() as u64;
        let meter_before = self.meter_ns();
        let t = Instant::now();
        engine.step();
        let wall = t.elapsed();
        self.step_end_ms.push(self.t0.elapsed().as_secs_f64() * 1e3);
        if self.traced {
            let meter_ns = self.meter_ns() - meter_before;
            self.record_span(engine, wall, meter_ns);
        }
    }

    /// Sums the accumulators per shard (the engine's contiguous slab
    /// ranges) and records the step's span from the deltas.
    fn record_span<P: Instance>(&mut self, engine: &Engine<P>, wall: Duration, meter_ns: u64) {
        let len = engine.nodes().count().max(1);
        let shards = engine.shards().clamp(1, len);
        let chunk = len.div_ceil(shards);
        let mut now = vec![CoreAcc::default(); shards];
        now[0].add(&self.departed);
        for (i, (_, node)) in engine.nodes().enumerate() {
            if let Some(acc) = node.acc() {
                now[i / chunk].add(acc);
            }
        }
        self.prev.resize(shards, CoreAcc::default());
        let mut span = StepSpan {
            round: engine.round(),
            wall_ns: wall.as_nanos() as u64,
            meter_ns,
            ..StepSpan::default()
        };
        let (mut max_tick, mut max_handle) = (0u64, 0u64);
        for (cur, prev) in now.iter().zip(&self.prev) {
            let delta = delta_acc(cur, prev);
            max_tick = max_tick.max(delta.tick_ns);
            max_handle = max_handle.max(delta.handle_ns.iter().sum());
            span.core_ns += delta.core_ns();
            span.core.add(&delta);
        }
        span.core_cover_ns = max_tick + max_handle;
        self.prev = now;
        self.spans.push(span);
    }

    fn meter_ns(&self) -> u64 {
        self.probes.meter.as_ref().map_or(0, |m| m.snapshot().1)
    }

    fn remove<P: Instance>(&mut self, engine: &mut Engine<P>, id: ProcessId) -> Option<P> {
        let node = engine.remove_node(id)?;
        if let Some(acc) = node.acc() {
            self.departed.add(acc);
        }
        Some(node)
    }
}

/// `cur − prev`, field by field. Slab swaps on removal can move an
/// instance to another shard, so a shard's total may shrink: clamp.
fn delta_acc(cur: &CoreAcc, prev: &CoreAcc) -> CoreAcc {
    let d = |a: u64, b: u64| a.saturating_sub(b);
    let mut out = CoreAcc {
        tick_calls: d(cur.tick_calls, prev.tick_calls),
        tick_ns: d(cur.tick_ns, prev.tick_ns),
        gossips: d(cur.gossips, prev.gossips),
        outgoing: d(cur.outgoing, prev.outgoing),
        bad_payloads: d(cur.bad_payloads, prev.bad_payloads),
        ..CoreAcc::default()
    };
    for k in 0..KINDS.len() {
        out.handle_calls[k] = d(cur.handle_calls[k], prev.handle_calls[k]);
        out.handle_ns[k] = d(cur.handle_ns[k], prev.handle_ns[k]);
    }
    for s in 0..SECTIONS.len() {
        out.sections[s] = d(cur.sections[s], prev.sections[s]);
    }
    out
}

/// What a traced trial's wire meter shares with the benchmark: its totals
/// and its sample of outgoing messages (both `None` when untraced).
#[derive(Debug, Default)]
struct Probes {
    meter: Option<Arc<MeterAcc>>,
    sample: Option<Arc<Mutex<CodecSample<Message>>>>,
}

/// Attaches the wire meter: the plain one, or the timed and sampling
/// shell around it.
fn with_meter<P: Instance>(builder: EngineBuilder<P>, traced: bool) -> (EngineBuilder<P>, Probes) {
    if !traced {
        return (builder.wire_meter(wire_meter()), Probes::default());
    }
    let acc = Arc::new(MeterAcc::default());
    let sample = Arc::new(Mutex::new(CodecSample::new(SAMPLE_STRIDE, SAMPLE_CAP)));
    let builder = builder.wire_meter(timed_meter(wire_meter(), acc.clone(), sample.clone()));
    let probes = Probes {
        meter: Some(acc),
        sample: Some(sample),
    };
    (builder, probes)
}

/// Node seeds and views exactly as the repository's engine builders
/// draw them.
fn node_seed(seed: u64, i: u64) -> u64 {
    seed.wrapping_mul(0x5851_F42D_4C95_7F2D).wrapping_add(i)
}

fn topology_rng(seed: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed ^ 0x746F_706F_6C6F_6779)
}

/// Builds the `sim_load` engine: n = 10⁴, §5-scaled parameters, no
/// crashes, dense, two shards.
fn build_load<P: Instance>(seed: u64, traced: bool) -> (Engine<P>, Probes) {
    let params = scaled_params(LOAD_N);
    let payload = SimWorkload::Load.payload();
    let mut rng = topology_rng(seed);
    let nodes: Vec<P> = (0..LOAD_N as u64)
        .map(|i| {
            let view = sample_view(&mut rng, i, LOAD_N, params.config.view_size);
            let core = Lpbcast::with_initial_view(
                ProcessId::new(i),
                params.config.clone(),
                node_seed(seed, i),
                view,
            );
            P::wrap(core, &payload, None)
        })
        .collect();
    let builder = Engine::builder(NetworkModel::new(params.loss_rate, seed))
        .shards(LOAD_SHARDS)
        .nodes(nodes);
    let (builder, probes) = with_meter(builder, traced);
    (builder.build(), probes)
}

fn churn_spec() -> ScenarioSpec {
    CHURN_CELL
        .parse()
        .expect("the churn cell is a valid scenario spec")
}

/// Builds the `sim_churn` engine exactly as the scenario module does,
/// serially.
fn build_churn<P: Instance>(
    params: &ChurnParams<P>,
    spec: &ScenarioSpec,
    seed: u64,
    traced: bool,
) -> (Engine<P>, Probes) {
    let mut rng = topology_rng(seed);
    let nodes: Vec<P> = (0..params.n0 as u64)
        .map(|i| {
            let view = sample_view(&mut rng, i, params.n0, P::view_size(&params.config));
            P::bootstrap(ProcessId::new(i), &params.config, node_seed(seed, i), view)
        })
        .collect();
    let mut builder = Engine::builder(NetworkModel::new(params.loss_rate, seed))
        .shards(1)
        .nodes(nodes);
    if let Some(fault) = spec.fault {
        builder = builder.fault_plane(FaultPlane::new(fault, seed));
    }
    let (builder, probes) = with_meter(builder, traced);
    (builder.build(), probes)
}

/// The scenario module's fixed publisher pool: round-robin over ids
/// `0..k`, skipping members that left.
struct Pool {
    size: u64,
    next: u64,
}

impl Pool {
    fn pick<P: Protocol>(&mut self, engine: &Engine<P>) -> Option<ProcessId> {
        for _ in 0..self.size {
            let candidate = ProcessId::new(self.next % self.size);
            self.next += 1;
            if engine.is_alive(candidate) {
                return Some(candidate);
            }
        }
        None
    }
}

/// One `sim_load` trial.
fn load_trial<P: Instance>(seed: u64, traced: bool) -> Trial {
    let cpu0 = procfs::cpu_time();
    let t = Instant::now();
    let (mut engine, probes) = build_load::<P>(seed, traced);
    let payload = SimWorkload::Load.payload();
    let mut stepper = Stepper::new(traced, probes, t.elapsed().as_secs_f64(), cpu0);
    let mut pool = Pool {
        size: LOAD_PUBLISHERS,
        next: 0,
    };
    for _ in 0..LOAD_PUBLISH_ROUNDS {
        for _ in 0..LOAD_RATE {
            let origin = pool.pick(&engine).expect("no crashes in sim_load");
            stepper.publish(&mut engine, origin, &payload);
        }
        stepper.step(&mut engine);
    }
    for _ in 0..LOAD_DRAIN_ROUNDS {
        stepper.step(&mut engine);
    }
    finish(engine, stepper, [0; 4], None)
}

/// One `sim_churn` trial: the scenario module's churn loop, step for
/// step, so its counts equal the library run's.
fn churn_trial<P: Instance>(seed: u64, traced: bool) -> Trial {
    let spec = churn_spec();
    let mut params = spec.churn_params::<P>();
    let payload = SimWorkload::Churn.payload();
    P::set_payload(&mut params.config, &payload);
    let cpu0 = procfs::cpu_time();
    let t = Instant::now();
    let (mut engine, probes) = build_churn::<P>(&params, &spec, seed, traced);
    let mut stepper = Stepper::new(traced, probes, t.elapsed().as_secs_f64(), cpu0);

    let mut rng = SmallRng::seed_from_u64(seed ^ 0x6368_7572_6E5F_7267);
    for _ in 0..params.warmup {
        stepper.step(&mut engine);
    }
    let window_start = engine.round();
    let mut next_id = params.n0 as u64;
    let mut pool = Pool {
        size: params.publishers as u64,
        next: 0,
    };
    let mut contact_scratch: Vec<u64> = Vec::new();
    let mut alive: Vec<ProcessId> = Vec::new();
    let mut departures: VecDeque<(u64, ProcessId)> = VecDeque::new();
    let mut departing: FastSet<ProcessId> = FastSet::default();
    let (mut joins, mut departed_joiners, mut leaves, mut refused) = (0u64, 0u64, 0u64, 0u64);
    let mut gone_stats = ProcessStats::default();

    for _ in 0..params.churn_rounds {
        alive.clear();
        alive.extend_from_slice(engine.alive_ids());
        for _ in 0..params.joins_per_round {
            sample_distinct(
                &mut rng,
                alive.len() as u64,
                3.min(alive.len()),
                &mut contact_scratch,
            );
            let contacts: Vec<ProcessId> =
                contact_scratch.iter().map(|&i| alive[i as usize]).collect();
            let id = ProcessId::new(next_id);
            next_id += 1;
            joins += 1;
            engine.add_node(P::joiner(
                id,
                &params.config,
                node_seed(seed, id.as_u64()),
                contacts,
            ));
        }
        for _ in 0..params.leaves_per_round {
            for _attempt in 0..8 {
                let candidate = alive[rng.gen_range(0..alive.len())];
                if departing.contains(&candidate) {
                    continue;
                }
                let Some(node) = engine.node_mut(candidate) else {
                    continue;
                };
                if node.leave_pending() || node.join_pending() {
                    continue;
                }
                match node.request_leave() {
                    Ok(()) => {
                        leaves += 1;
                        if candidate.as_u64() >= params.n0 as u64 {
                            departed_joiners += 1;
                        }
                        departing.insert(candidate);
                        departures.push_back((engine.round() + params.lame_duck, candidate));
                    }
                    Err(_) => refused += 1,
                }
                break;
            }
        }
        for _ in 0..params.rate {
            let Some(origin) = pool.pick(&engine) else {
                continue;
            };
            stepper.publish(&mut engine, origin, &payload);
        }
        stepper.step(&mut engine);
        retire(
            &mut engine,
            &mut stepper,
            &mut departures,
            &mut gone_stats,
            false,
        );
    }
    let window_end = engine.round();
    for _ in 0..params.drain {
        stepper.step(&mut engine);
        retire(
            &mut engine,
            &mut stepper,
            &mut departures,
            &mut gone_stats,
            false,
        );
    }
    retire(
        &mut engine,
        &mut stepper,
        &mut departures,
        &mut gone_stats,
        true,
    );

    let completed = departed_joiners
        + (params.n0 as u64..next_id)
            .filter(|&id| {
                engine
                    .node(ProcessId::new(id))
                    .is_some_and(|node| !node.join_pending())
            })
            .count() as u64;
    let population = engine.alive_count();
    let report = engine
        .tracker()
        .reliability_report(window_start..=window_end, population);
    let per_event: Vec<f64> = report.per_event.iter().map(|&r| r.min(1.0)).collect();
    let reliability_mean = per_event.iter().sum::<f64>() / per_event.len().max(1) as f64;
    let mut trial = finish(
        engine,
        stepper,
        [joins, completed, leaves, refused],
        Some(gone_stats),
    );
    trial.counts.reliability_mean = reliability_mean;
    trial
}

/// Removes every instance whose lame-duck window has ended (all of them
/// when `all`), keeping their counters.
fn retire<P: Instance>(
    engine: &mut Engine<P>,
    stepper: &mut Stepper,
    departures: &mut VecDeque<(u64, ProcessId)>,
    gone: &mut ProcessStats,
    all: bool,
) {
    while departures
        .front()
        .is_some_and(|&(due, _)| all || due <= engine.round())
    {
        let (_, id) = departures.pop_front().expect("front checked");
        if let Some(node) = stepper.remove(engine, id) {
            add_stats(gone, node.core().stats());
        }
    }
}

/// The delivery deadline of the simulator workloads, in rounds: the
/// round by which the Appendix-A expectation model (F = 3, ε = 0.05)
/// has 99.9% of `n` processes infected. With Compact digests every
/// member learns every id eventually, so "never" at the end of a finite
/// run would only measure how long the run drained; a fixed deadline
/// judges every event alike.
fn deadline_rounds(n: usize) -> u64 {
    ExpectationModel::new(InfectionParams::new(n.max(2), 3).loss_rate(0.05))
        .rounds_to_fraction(0.999, 400)
        .expect("the model reaches 99.9% coverage")
}

/// Turns a finished engine into a [`Trial`]: delivery accounting against
/// the tracker, latency distributions and the output checks.
fn finish<P: Instance>(
    engine: Engine<P>,
    stepper: Stepper,
    membership: [u64; 4],
    gone: Option<ProcessStats>,
) -> Trial {
    let cpu_s = match (stepper.cpu0, procfs::cpu_time()) {
        (Some(a), Some(b)) => (b - a).as_secs_f64(),
        _ => 0.0,
    };
    let tracker = engine.tracker();
    let mut stats = gone.unwrap_or_default();
    for (_, node) in engine.nodes() {
        add_stats(&mut stats, node.core().stats());
    }

    // Delivered ⊆ published: every id an instance saw must come from a
    // publication of this trial.
    let mut per_origin: Vec<(ProcessId, u64)> = Vec::new();
    for &id in &stepper.published {
        match per_origin.iter_mut().find(|(o, _)| *o == id.origin()) {
            Some((_, n)) => *n += 1,
            None => per_origin.push((id.origin(), 1)),
        }
    }
    let mut foreign = 0u64;
    let mut bad_payloads = stepper.departed.bad_payloads;
    for (_, node) in engine.nodes() {
        bad_payloads += node.acc().map_or(0, |a| a.bad_payloads);
        for &(origin, max) in node.max_seq() {
            let published = per_origin
                .iter()
                .find(|(o, _)| *o == origin)
                .map_or(0, |&(_, n)| n);
            if max >= published {
                foreign += 1;
            }
        }
    }
    foreign += bad_payloads;

    let alive = engine.alive_ids();
    let deadline = deadline_rounds(alive.len());
    let mut expected = 0u64;
    let mut unique = 0u64;
    let mut on_time = 0u64;
    let mut sightings = 0u64;
    let mut hist_rounds: Vec<u64> = Vec::new();
    let mut event_hists: Vec<(u64, Vec<u64>)> = Vec::new();
    for &id in &stepper.published {
        if tracker.published_at(id).is_none() {
            foreign += 1;
            continue;
        }
        let receivers = alive.iter().filter(|&&p| p != id.origin());
        for &p in receivers {
            expected += 1;
            if let Some(rounds) = tracker.delivery_latency(id, p) {
                unique += 1;
                on_time += u64::from(rounds <= deadline);
            }
        }
        let round0 = tracker.published_at(id).expect("checked above");
        // Index 0 holds the origin's own sighting at publication.
        let mut hist: Vec<u64> = tracker
            .latency_histogram(id)
            .iter()
            .map(|&c| c as u64)
            .collect();
        if let Some(origin) = hist.first_mut() {
            *origin = origin.saturating_sub(1);
        }
        if hist_rounds.len() < hist.len() {
            hist_rounds.resize(hist.len(), 0);
        }
        for (k, &count) in hist.iter().enumerate() {
            hist_rounds[k] += count;
        }
        event_hists.push((round0, hist));
        // The origin counts as infected at publication; only receivers
        // are sightings.
        sightings += (tracker.infected_count(id) as u64).saturating_sub(1);
    }
    let deliveries = stats.events_delivered + stats.ids_learned;
    if deliveries < sightings {
        // A sighting no protocol delivery accounts for.
        foreign += sightings - deliveries;
    }
    let wire = engine.wire_accounting().unwrap_or_default();
    let codec_sample = stepper
        .probes
        .sample
        .as_ref()
        .map(|s| std::mem::take(&mut s.lock().expect("codec sample lock poisoned").messages))
        .unwrap_or_default();
    Trial {
        build_s: stepper.build_s,
        wall_s: stepper.step_end_ms.last().copied().unwrap_or(0.0) / 1e3,
        node_rounds: stepper.node_rounds,
        counts: Counts {
            rounds: engine.round(),
            published: stepper.published.len() as u64,
            expected,
            unique,
            on_time,
            deliveries,
            sightings,
            wire_messages: wire.messages,
            wire_bytes: wire.bytes,
            dropped: engine.network().dropped_count(),
            stats,
            membership,
            reliability_mean: 0.0,
        },
        hist_rounds,
        round_ms: stepper
            .step_end_ms
            .windows(2)
            .map(|w| w[1] - w[0])
            .collect(),
        event_hists,
        cpu_s,
        spans: stepper.spans,
        publish_ns: stepper.publish_ns,
        meter: stepper
            .probes
            .meter
            .as_ref()
            .map_or((0, 0, 0), |m| m.snapshot()),
        codec_sample,
        foreign,
    }
}

fn trial<P: Instance>(workload: SimWorkload, seed: u64, traced: bool) -> Trial {
    match workload {
        SimWorkload::Load => load_trial::<P>(seed, traced),
        SimWorkload::Churn => churn_trial::<P>(seed, traced),
    }
}

/// Engine construction alone, for `setup_s`.
pub fn setup_only(workload: SimWorkload, seed: u64) -> f64 {
    let t = Instant::now();
    match workload {
        SimWorkload::Load => drop(build_load::<Lpbcast>(seed, false)),
        SimWorkload::Churn => {
            let spec = churn_spec();
            drop(build_churn::<Lpbcast>(
                &spec.churn_params::<Lpbcast>(),
                &spec,
                seed,
                false,
            ));
        }
    }
    t.elapsed().as_secs_f64()
}

/// Wall-clock delivery latencies on `timeline` (ms per round): an event
/// published before round `r0 + 1` and first seen by a receiver in round
/// `r0 + k` took rounds `r0 + 1 ..= r0 + k`. Returns
/// `(latency ms, receivers)` pairs.
fn latency_ms(event_hists: &[(u64, Vec<u64>)], timeline: &[f64]) -> Vec<(f64, u64)> {
    let mut ends = vec![0.0];
    for ms in timeline {
        ends.push(ends.last().copied().unwrap_or(0.0) + ms);
    }
    let mut out = Vec::new();
    for (round0, hist) in event_hists {
        let r0 = *round0 as usize;
        for (k, &count) in hist.iter().enumerate().filter(|&(_, &c)| c > 0) {
            out.push((ends[r0 + k] - ends[r0], count));
        }
    }
    out
}

/// Weighted quantile over `(value, weight)` pairs.
fn weighted_quantile(values: &mut [(f64, u64)], q: f64) -> f64 {
    values.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total: u64 = values.iter().map(|v| v.1).sum();
    let target = (q * total as f64).ceil().max(1.0) as u64;
    let mut cum = 0u64;
    for &(v, w) in values.iter() {
        cum += w;
        if cum >= target {
            return v;
        }
    }
    values.last().map_or(0.0, |v| v.0)
}

/// Runs the untraced measurement: as many trials as the budget of
/// `seconds` holds, with set-up probes after each.
pub fn run(workload: SimWorkload, seed: u64, seconds: u64, name: &str) -> Result<Outcome, String> {
    let count = workload.trials(seconds);
    let mut prober = setup::Prober::new(name, seed, count);
    let mut trials = vec![trial::<Lpbcast>(workload, seed, false)];
    // Peak memory of the first trial, before any other runs.
    let peak_rss = procfs::peak_rss_bytes().unwrap_or(0);
    prober.gap()?;
    for _ in 1..count {
        trials.push(trial::<Lpbcast>(workload, seed, false));
        prober.gap()?;
    }
    let mut setups = prober.times;
    let first = &trials[0];
    let failed = trials.iter().map(|t| t.foreign).max().unwrap_or(0);
    let mut correct = failed == 0;
    for t in &trials[1..] {
        if t.counts != first.counts {
            eprintln!(
                "perfbench: trials of one seed disagree: {:?} vs {:?}",
                t.counts, first.counts
            );
            correct = false;
        }
    }
    let c = &first.counts;
    let n_nodes = match workload {
        SimWorkload::Load => LOAD_N,
        SimWorkload::Churn => churn_spec().n,
    };
    let med = |f: &dyn Fn(&Trial) -> f64| {
        let mut v: Vec<f64> = trials.iter().map(f).collect();
        median(&mut v).expect("at least one trial")
    };
    // Every trial runs the same rounds, so take each round's median wall
    // time over the trials: a stall hits one trial's round, not all.
    let timeline: Vec<f64> = (0..first.round_ms.len())
        .map(|r| med(&|t| t.round_ms[r]))
        .collect();
    let wall_ms: f64 = timeline.iter().sum();
    let mut lat = latency_ms(&first.event_hists, &timeline);
    let mut m = Metrics::default();
    m.push("setup_s", median(&mut setups).expect("setups ran"), "s");
    m.push(
        "node_rounds_per_s",
        first.node_rounds as f64 * 1e3 / wall_ms,
        "1/s",
    );
    m.push(
        "delivery_rounds_p50",
        grouped_quantile(&first.hist_rounds, 0.5).unwrap_or(0.0),
        "rounds",
    );
    m.push(
        "delivery_rounds_p99",
        grouped_quantile(&first.hist_rounds, 0.99).unwrap_or(0.0),
        "rounds",
    );
    m.push("delivery_ms_p50", weighted_quantile(&mut lat, 0.5), "ms");
    m.push("delivery_ms_p99", weighted_quantile(&mut lat, 0.99), "ms");
    m.push("max_ok_rate", c.published as f64 * 1e3 / wall_ms, "1/s");
    m.push(
        "cpu_us_per_delivery",
        med(&|t| t.cpu_s * 1e6 / t.counts.unique.max(1) as f64),
        "us",
    );
    m.push(
        "delivery_fail_ratio",
        (c.missed() + c.duplicates()) as f64 / c.expected.max(1) as f64,
        "ratio",
    );
    m.push(
        "wire_bytes_per_delivery",
        c.wire_bytes as f64 / c.unique.max(1) as f64,
        "B",
    );
    m.push("bytes_per_node", peak_rss as f64 / n_nodes as f64, "B");
    eprintln!(
        "perfbench: {} trial(s), {} probed engine builds; published {} events, {} expected deliveries, {} not within {} rounds ({} never), {} duplicate",
        trials.len(),
        setups.len(),
        c.published,
        c.expected,
        c.missed(),
        deadline_rounds(n_nodes),
        c.expected - c.unique,
        c.duplicates()
    );
    Ok(Outcome {
        correct,
        attempted: c.expected,
        failed,
        metrics: m,
    })
}

/// The traced run: one untraced and one traced trial of the same seed,
/// their counts compared, per-layer metrics from the traced one.
pub fn run_traced(workload: SimWorkload, seed: u64, name: &str) -> Outcome {
    let plain = trial::<Lpbcast>(workload, seed, false);
    let traced = trial::<Traced>(workload, seed, true);
    let failed = plain.foreign.max(traced.foreign);
    let mut correct = failed == 0;
    if plain.counts != traced.counts {
        eprintln!(
            "perfbench: traced run changed protocol behaviour:\n  plain  {:?}\n  traced {:?}",
            plain.counts, traced.counts
        );
        correct = false;
    }
    if workload == SimWorkload::Churn {
        correct &= churn_matches_library(&plain, seed);
    }
    let codec = codec_pass(&traced.codec_sample, 20);
    if codec.mismatches > 0 {
        eprintln!(
            "perfbench: {} sampled messages failed the codec round trip",
            codec.mismatches
        );
        correct = false;
    }
    let spans_path = spans::write_sim(name, seed, &traced.spans);

    let c = &traced.counts;
    let s = &c.stats;
    let rounds = c.rounds.max(1) as f64;
    let mut core = CoreAcc::default();
    let mut step_ms: Vec<f64> = Vec::new();
    let mut self_ms: Vec<f64> = Vec::new();
    let (mut wall_ns, mut child_ns) = (0u64, 0u64);
    for sp in &traced.spans {
        core.add(&sp.core);
        step_ms.push(sp.wall_ns as f64 / 1e6);
        self_ms.push(sp.self_ns() as f64 / 1e6);
        wall_ns += sp.wall_ns;
        child_ns += sp.core_ns + sp.meter_ns;
    }
    let (meter_calls, meter_ns, meter_bytes) = traced.meter;
    let per_call = |ns: u64, calls: u64| ns as f64 / calls.max(1) as f64;
    let handled: u64 = core.handle_calls.iter().sum();
    let mut m = Metrics::default();
    m.push(
        "sim.engine.step_ms",
        median(&mut step_ms).unwrap_or(0.0),
        "ms",
    );
    m.push(
        "sim.engine.self_ms",
        median(&mut self_ms).unwrap_or(0.0),
        "ms",
    );
    m.push(
        "sim.engine.parallelism",
        child_ns as f64 / wall_ns.max(1) as f64,
        "ratio",
    );
    m.push(
        "sim.engine.publish_us",
        per_call(traced.publish_ns, c.published) / 1e3,
        "us",
    );
    m.push("sim.engine.build_s", traced.build_s, "s");
    m.push(
        "sim.engine.copies_offered",
        c.wire_messages as f64 / rounds,
        "1/round",
    );
    m.push(
        "sim.engine.handled_per_offered",
        handled as f64 / c.wire_messages.max(1) as f64,
        "ratio",
    );
    m.push("sim.network.dropped", c.dropped as f64 / rounds, "1/round");
    push_core(&mut m, &core, s, c.duplicates());
    m.push("net.wire.meter_ns", per_call(meter_ns, meter_calls), "ns");
    m.push(
        "net.wire.bytes_per_msg",
        meter_bytes as f64 / meter_calls.max(1) as f64,
        "B",
    );
    m.push("net.wire.encode_ns", codec.encode_ns, "ns");
    m.push("net.wire.decode_ns", codec.decode_ns, "ns");
    m.push(
        "bench.trace_overhead",
        (traced.wall_s / plain.wall_s - 1.0) * 100.0,
        "%",
    );
    eprintln!(
        "perfbench: traced trial {:.3} s vs untraced {:.3} s; {} spans in {}; codec pass over {} sampled bodies",
        traced.wall_s,
        plain.wall_s,
        traced.spans.len(),
        spans_path,
        codec.messages
    );
    Outcome {
        correct,
        attempted: c.expected,
        failed,
        metrics: m,
    }
}

/// The `core.*` metrics shared by the simulator and network workloads.
pub fn push_core(m: &mut Metrics, core: &CoreAcc, s: &ProcessStats, dup_deliveries: u64) {
    let per_call = |ns: u64, calls: u64| ns as f64 / calls.max(1) as f64;
    m.push("core.tick.calls", core.tick_calls as f64, "count");
    m.push(
        "core.tick.ns",
        per_call(core.tick_ns, core.tick_calls),
        "ns",
    );
    for (k, kind) in KINDS.iter().enumerate() {
        m.push(
            &format!("core.handle.{kind}.calls"),
            core.handle_calls[k] as f64,
            "count",
        );
        m.push(
            &format!("core.handle.{kind}.ns"),
            per_call(core.handle_ns[k], core.handle_calls[k]),
            "ns",
        );
    }
    for (i, section) in SECTIONS.iter().enumerate() {
        m.push(
            &format!("core.gossip.{section}"),
            core.sections[i] as f64 / core.gossips.max(1) as f64,
            "entries",
        );
    }
    m.push("core.redundancy", s.redundancy(), "ratio");
    m.push("core.ids_purged", s.ids_purged as f64, "count");
    m.push("core.events_truncated", s.events_truncated as f64, "count");
    m.push("core.dup_deliveries", dup_deliveries as f64, "count");
    m.push(
        "core.pull.requests",
        s.retransmit_requests_sent as f64,
        "count",
    );
    m.push("core.pull.served", s.retransmits_served as f64, "count");
    m.push("core.pull.misses", s.retransmit_misses as f64, "count");
    m.push(
        "core.pull.hit_ratio",
        if s.retransmit_requests_sent == 0 {
            0.0
        } else {
            1.0 - s.retransmit_misses as f64 / s.retransmit_requests_sent as f64
        },
        "ratio",
    );
    m.push("core.subs_added", s.subs_added as f64, "count");
    m.push("core.unsubs_applied", s.unsubs_applied as f64, "count");
    m.push("core.join_requests", s.join_requests_sent as f64, "count");
}

/// The churn loop must reproduce the scenario matrix cell it claims to
/// run: compare against the library's own run of the cell.
fn churn_matches_library(plain: &Trial, seed: u64) -> bool {
    let SpecReport::Churn(r) = lpbcast_sim::run_scenario_spec(&churn_spec(), seed) else {
        eprintln!("perfbench: the churn cell did not run the churn generator");
        return false;
    };
    let c = &plain.counts;
    let ours = (
        c.wire_bytes,
        c.wire_messages,
        c.rounds,
        c.membership,
        c.reliability_mean,
    );
    let theirs = (
        r.wire_bytes,
        r.wire_messages,
        r.rounds,
        [
            r.joins_attempted as u64,
            r.joins_completed as u64,
            r.leaves_completed as u64,
            r.leaves_refused as u64,
        ],
        r.mean_reliability,
    );
    if ours != theirs {
        eprintln!("perfbench: churn loop diverges from the scenario module:\n  ours   {ours:?}\n  theirs {theirs:?}");
        return false;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trial_count_follows_the_budget_not_the_clock() {
        assert_eq!(SimWorkload::Load.trials(36), 3);
        assert_eq!(SimWorkload::Churn.trials(36), 2);
        assert_eq!(SimWorkload::Churn.trials(10), 1);
    }
}
