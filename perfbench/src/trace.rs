//! Instrumentation that lives entirely on the benchmark side: a
//! [`Protocol`] wrapper that times every call into the protocol core and
//! counts what it emits, a timing shell around the wire meter, and a
//! sampler of distinct outgoing messages for the codec pass.
//!
//! Nothing here touches protocol state or randomness: the wrapper
//! delegates every trait method unchanged, so a traced run must produce
//! exactly the counts of the untraced one (checked by the benchmark).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use lpbcast_core::{Lpbcast, Message};
use lpbcast_net::WireMessage;
use lpbcast_sim::{LeaveRefused, ScenarioProtocol};
use lpbcast_types::{EventId, Output, Payload, ProcessId, Protocol};

/// Message kinds the core handles, as counted by [`CoreAcc`].
pub const KINDS: [&str; 3] = ["gossip", "pull", "subscribe"];

/// Gossip sections, as counted by [`CoreAcc::sections`].
pub const SECTIONS: [&str; 4] = ["events", "digest_ids", "subs", "unsubs"];

/// Index of `msg`'s kind in [`KINDS`].
fn kind(msg: &Message) -> usize {
    match msg {
        Message::Gossip(_) => 0,
        Message::RetransmitRequest { .. } | Message::RetransmitResponse { .. } => 1,
        Message::Subscribe { .. } => 2,
    }
}

/// Entry counts per [`SECTIONS`] when `msg` is a gossip emission.
fn sections(msg: &Message) -> Option<[u64; 4]> {
    match msg {
        Message::Gossip(g) => Some([
            g.events.len() as u64,
            g.event_ids.advertised_count(),
            g.subs.len() as u64,
            g.unsubs.record_count() as u64,
        ]),
        _ => None,
    }
}

/// Per-instance call totals. Kept inside each wrapper (no sharing, so
/// shard threads never contend) and summed by the benchmark after a step.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreAcc {
    pub tick_calls: u64,
    pub tick_ns: u64,
    pub handle_calls: [u64; 3],
    pub handle_ns: [u64; 3],
    /// Gossip emissions (one per body, not per fanout copy).
    pub gossips: u64,
    /// Entries per [`SECTIONS`], summed over emissions.
    pub sections: [u64; 4],
    /// Message copies handed to the engine or runtime.
    pub outgoing: u64,
    /// Delivered payloads that differ from what the workload published.
    pub bad_payloads: u64,
}

impl CoreAcc {
    /// Time spent inside the core, all kinds.
    pub fn core_ns(&self) -> u64 {
        self.tick_ns + self.handle_ns.iter().sum::<u64>()
    }

    pub fn add(&mut self, o: &CoreAcc) {
        self.tick_calls += o.tick_calls;
        self.tick_ns += o.tick_ns;
        for k in 0..KINDS.len() {
            self.handle_calls[k] += o.handle_calls[k];
            self.handle_ns[k] += o.handle_ns[k];
        }
        self.gossips += o.gossips;
        for s in 0..SECTIONS.len() {
            self.sections[s] += o.sections[s];
        }
        self.outgoing += o.outgoing;
        self.bad_payloads += o.bad_payloads;
    }
}

/// Distinct outgoing messages kept for the codec pass: every `stride`-th
/// distinct body, up to `cap` of them (a deterministic sample).
#[derive(Debug)]
pub struct CodecSample<M> {
    stride: u64,
    cap: usize,
    distinct: u64,
    last_key: Option<usize>,
    pub messages: Vec<M>,
}

impl<M: WireMessage> CodecSample<M> {
    pub fn new(stride: u64, cap: usize) -> Self {
        CodecSample {
            stride: stride.max(1),
            cap,
            distinct: 0,
            last_key: None,
            messages: Vec::new(),
        }
    }

    /// Offers one message copy; fanout copies of one body arrive back to
    /// back and count once.
    pub fn offer(&mut self, msg: &M) {
        let key = msg.body_key();
        if key.is_some() && key == self.last_key {
            return;
        }
        self.last_key = key;
        self.distinct += 1;
        if self.distinct.is_multiple_of(self.stride) && self.messages.len() < self.cap {
            self.messages.push(msg.clone());
        }
    }
}

/// Totals shared by every instance of a single-threaded runtime: the
/// summed accumulator and the codec sample of outgoing messages.
#[derive(Debug)]
pub struct Sink<M> {
    pub acc: CoreAcc,
    pub sample: CodecSample<M>,
}

/// An lpbcast instance with its calls timed and its outputs counted.
#[derive(Debug)]
pub struct Traced {
    inner: Lpbcast,
    pub acc: CoreAcc,
    /// Highest sequence number seen per origin, for the
    /// delivered ⊆ published check.
    pub max_seq: Vec<(ProcessId, u64)>,
    /// The payload every delivered notification must carry.
    payload: Payload,
    sink: Option<Arc<Mutex<Sink<Message>>>>,
}

impl Traced {
    pub fn new(inner: Lpbcast, payload: Payload) -> Self {
        Traced {
            inner,
            acc: CoreAcc::default(),
            max_seq: Vec::new(),
            payload,
            sink: None,
        }
    }

    /// Also adds every call's counts into `sink` and offers outgoing
    /// messages to its codec sample (for runtimes without a wire meter).
    pub fn with_sink(mut self, sink: Arc<Mutex<Sink<Message>>>) -> Self {
        self.sink = Some(sink);
        self
    }

    pub fn inner(&self) -> &Lpbcast {
        &self.inner
    }

    fn saw(&mut self, id: EventId) {
        let origin = id.origin();
        match self.max_seq.iter_mut().find(|(o, _)| *o == origin) {
            Some((_, max)) => *max = (*max).max(id.seq()),
            None => self.max_seq.push((origin, id.seq())),
        }
    }

    /// Completes one call's counts `d` from its output and adds them up.
    fn record(&mut self, mut d: CoreAcc, out: &Output<Message>) {
        d.outgoing = out.outgoing.len() as u64;
        for event in &out.delivered {
            if event.payload() != &self.payload {
                d.bad_payloads += 1;
            }
            self.saw(event.id());
        }
        for &id in &out.learned_ids {
            self.saw(id);
        }
        // One gossip body per emission; its fanout copies share it.
        if let Some(sections) = out.outgoing.iter().find_map(|(_, m)| sections(m)) {
            d.gossips = 1;
            d.sections = sections;
        }
        self.acc.add(&d);
        if let Some(sink) = &self.sink {
            let mut sink = sink.lock().expect("trace sink lock poisoned");
            sink.acc.add(&d);
            for (_, msg) in &out.outgoing {
                sink.sample.offer(msg);
            }
        }
    }
}

/// Every method goes through the inner instance's own `Protocol` impl.
impl Protocol for Traced {
    type Msg = Message;

    fn id(&self) -> ProcessId {
        Protocol::id(&self.inner)
    }

    fn tick(&mut self) -> Output<Message> {
        let t = Instant::now();
        let out = Protocol::tick(&mut self.inner);
        let d = CoreAcc {
            tick_ns: t.elapsed().as_nanos() as u64,
            tick_calls: 1,
            ..CoreAcc::default()
        };
        self.record(d, &out);
        out
    }

    fn wants_tick(&self) -> bool {
        Protocol::wants_tick(&self.inner)
    }

    fn handle_message(&mut self, from: ProcessId, msg: Message) -> Output<Message> {
        let kind = kind(&msg);
        let t = Instant::now();
        let out = Protocol::handle_message(&mut self.inner, from, msg);
        let mut d = CoreAcc::default();
        d.handle_ns[kind] = t.elapsed().as_nanos() as u64;
        d.handle_calls[kind] = 1;
        self.record(d, &out);
        out
    }

    fn broadcast(&mut self, payload: Payload) -> (EventId, Output<Message>) {
        let (id, out) = Protocol::broadcast(&mut self.inner, payload);
        self.record(CoreAcc::default(), &out);
        (id, out)
    }

    fn view_members(&self) -> Vec<ProcessId> {
        Protocol::view_members(&self.inner)
    }

    fn evict(&mut self, process: ProcessId) {
        Protocol::evict(&mut self.inner, process);
    }
}

/// The scenario hooks delegate too, so the churn loop runs plain and
/// traced instances through one code path.
impl ScenarioProtocol for Traced {
    type Cfg = (lpbcast_core::Config, Payload);

    const NAME: &'static str = "lpbcast";

    fn scaled_cfg(n: usize) -> Self::Cfg {
        (Lpbcast::scaled_cfg(n), Payload::new())
    }

    fn size_for_leave_rate(cfg: &mut Self::Cfg, leaves_per_round: usize) {
        Lpbcast::size_for_leave_rate(&mut cfg.0, leaves_per_round);
    }

    fn view_size(cfg: &Self::Cfg) -> usize {
        Lpbcast::view_size(&cfg.0)
    }

    fn bootstrap(id: ProcessId, cfg: &Self::Cfg, seed: u64, members: Vec<ProcessId>) -> Self {
        Traced::new(Lpbcast::bootstrap(id, &cfg.0, seed, members), cfg.1.clone())
    }

    fn joiner(id: ProcessId, cfg: &Self::Cfg, seed: u64, contacts: Vec<ProcessId>) -> Self {
        Traced::new(Lpbcast::joiner(id, &cfg.0, seed, contacts), cfg.1.clone())
    }

    fn request_leave(&mut self) -> Result<(), LeaveRefused> {
        self.inner.request_leave()
    }

    fn join_pending(&self) -> bool {
        self.inner.join_pending()
    }

    fn leave_pending(&self) -> bool {
        self.inner.leave_pending()
    }

    fn bridge(from: ProcessId) -> Message {
        Lpbcast::bridge(from)
    }

    fn withhold(msg: &mut Message) -> bool {
        Lpbcast::withhold(msg)
    }

    fn strict_delivery(cfg: &mut Self::Cfg) {
        Lpbcast::strict_delivery(&mut cfg.0);
    }
}

/// Totals of a timed wire meter, shared between the engine-owned closure
/// and the benchmark. The engine calls the meter from its serial passes
/// only, so the relaxed counters never contend.
#[derive(Debug, Default)]
pub struct MeterAcc {
    pub calls: AtomicU64,
    pub ns: AtomicU64,
    pub bytes: AtomicU64,
}

impl MeterAcc {
    pub fn snapshot(&self) -> (u64, u64, u64) {
        (
            self.calls.load(Ordering::Relaxed),
            self.ns.load(Ordering::Relaxed),
            self.bytes.load(Ordering::Relaxed),
        )
    }
}

/// Wraps a wire meter: times each call, totals its answers and offers
/// every copy to the codec sample.
pub fn timed_meter<M: WireMessage + Send + 'static>(
    mut inner: impl FnMut(&M) -> usize + Send + 'static,
    acc: Arc<MeterAcc>,
    sample: Arc<Mutex<CodecSample<M>>>,
) -> impl FnMut(&M) -> usize + Send + 'static {
    move |msg: &M| {
        let t = Instant::now();
        let bytes = inner(msg);
        acc.ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        acc.calls.fetch_add(1, Ordering::Relaxed);
        acc.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        sample
            .lock()
            .expect("codec sample lock poisoned")
            .offer(msg);
        bytes
    }
}

/// Result of passing a codec sample through `wire::encode`/`decode`.
#[derive(Debug, Clone, Copy, Default)]
pub struct CodecPass {
    pub messages: usize,
    pub encode_ns: f64,
    pub decode_ns: f64,
    /// Messages whose decoded form did not re-encode to the same bytes.
    pub mismatches: usize,
}

/// Times encode and decode over `messages` (each `reps` times, mean
/// nanoseconds per message) and checks that every message survives the
/// round trip byte for byte.
pub fn codec_pass<M: WireMessage>(messages: &[M], reps: usize) -> CodecPass {
    if messages.is_empty() {
        return CodecPass::default();
    }
    let reps = reps.max(1);
    let t = Instant::now();
    for _ in 0..reps {
        for m in messages {
            std::hint::black_box(lpbcast_net::wire::encode(m));
        }
    }
    let encode_ns = t.elapsed().as_nanos() as f64;
    let frames: Vec<_> = messages.iter().map(lpbcast_net::wire::encode).collect();
    let t = Instant::now();
    for _ in 0..reps {
        for f in &frames {
            let _ = std::hint::black_box(lpbcast_net::wire::decode::<M>(f));
        }
    }
    let decode_ns = t.elapsed().as_nanos() as f64;
    let mismatches = frames
        .iter()
        .filter(|f| {
            lpbcast_net::wire::decode::<M>(f).map_or(true, |m| lpbcast_net::wire::encode(&m) != **f)
        })
        .count();
    let calls = (messages.len() * reps) as f64;
    CodecPass {
        messages: messages.len(),
        encode_ns: encode_ns / calls,
        decode_ns: decode_ns / calls,
        mismatches,
    }
}
