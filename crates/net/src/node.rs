//! Threaded UDP node: the driver that turns any sans-IO [`Protocol`]
//! state machine into a networked process.
//!
//! [`NetNode<P>`] is generic over the protocol (defaulting to
//! [`Lpbcast`]); anything implementing [`Protocol`] whose message type
//! implements [`WireMessage`](crate::wire::WireMessage) — lpbcast and
//! pbcast in-tree — gets the same runtime: one event-loop thread parks
//! on a readiness poller ([`UdpPoller`](crate::poll::UdpPoller)) with
//! its timeout capped by the next gossip deadline, drains the
//! nonblocking socket when datagrams arrive, fires the periodic gossip
//! when the deadline passes, and streams deliveries to the application
//! through a channel. One protocol output batch costs one `send_to`
//! syscall per destination: the envelopes drained from an
//! [`Output`](lpbcast_types::Output) are grouped per peer into a single
//! multi-frame datagram, and fanout copies sharing an `Arc`'d gossip
//! body are encoded once (the frame bytes are reused per destination).
//!
//! One socket and one thread per node is faithful to the paper's
//! deployment but tops out around 10² nodes per host; the
//! [`Cluster`](crate::Cluster) runtime multiplexes thousands of
//! instances over a handful of sockets for testbed-scale runs.

use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::{Mutex, RwLock};

use lpbcast_core::{Config, Lpbcast, ProcessStats, UnsubscribeRefused};
use lpbcast_membership::View as _;
use lpbcast_types::{Event, EventId, FastMap, Payload, ProcessId, Protocol};

use crate::error::NetError;
use crate::poll::{drain_socket, UdpPoller};
use crate::wire::{self, WireMessage};

/// Keep batched datagrams under the 64 KiB UDP limit with headroom for
/// IP/UDP headers.
const MAX_DATAGRAM: usize = 60 * 1024;

/// Attempts to bind a socket, retrying transient failures with doubling
/// backoff. A port-0 (OS-assigned ephemeral) bind cannot collide with
/// another listener, so it gets exactly one attempt; only *fixed* ports
/// retry — under churny test suites a just-killed process's port can
/// linger momentarily (`EADDRINUSE` races, `ENOBUFS` under memory
/// pressure), and one late retry beats failing a whole cluster spawn.
const BIND_ATTEMPTS: u32 = 5;
const BIND_BACKOFF_START: Duration = Duration::from_millis(5);

/// Default bind target: loopback, OS-assigned port.
fn ephemeral_loopback() -> SocketAddr {
    SocketAddr::from(([127, 0, 0, 1], 0))
}

fn bind_with_retry(addr: SocketAddr) -> std::io::Result<UdpSocket> {
    if addr.port() == 0 {
        return UdpSocket::bind(addr);
    }
    let mut backoff = BIND_BACKOFF_START;
    for _ in 1..BIND_ATTEMPTS {
        match UdpSocket::bind(addr) {
            Ok(socket) => return Ok(socket),
            Err(_) => {
                std::thread::sleep(backoff);
                backoff *= 2;
            }
        }
    }
    UdpSocket::bind(addr)
}

/// Event-loop wake cap: the longest the loop parks in the poller before
/// re-checking the shutdown flag, even with no traffic and a distant
/// gossip deadline. Overridable through the
/// `LPBCAST_UDP_READ_TIMEOUT_MS` environment variable — lower values
/// tighten shutdown latency, higher values cut idle wakeups on
/// long-period deployments.
const DEFAULT_READ_TIMEOUT: Duration = Duration::from_millis(20);

fn parse_read_timeout(raw: Option<&str>) -> Duration {
    raw.and_then(|v| v.trim().parse::<u64>().ok())
        .filter(|&ms| ms > 0)
        .map(Duration::from_millis)
        .unwrap_or(DEFAULT_READ_TIMEOUT)
}

fn read_timeout_from_env() -> Duration {
    parse_read_timeout(std::env::var("LPBCAST_UDP_READ_TIMEOUT_MS").ok().as_deref())
}

/// Transport-level runtime options, protocol-agnostic: what
/// [`NetNode::spawn_protocol`] needs besides the machine itself.
#[derive(Debug, Clone)]
pub struct NetOpts {
    /// The gossip period `T` (§3.3; non-synchronized periodic gossips).
    pub gossip_interval: Duration,
    /// Artificial ingress loss ε (see [`NetConfig::ingress_loss`]).
    pub ingress_loss: f64,
    /// Seed of the ingress-loss RNG.
    pub loss_seed: u64,
    /// Address to bind; `None` (the default) binds `127.0.0.1:0` — an
    /// OS-assigned ephemeral port, immune to fixed-port collisions on
    /// busy runners. Port 0 in an explicit address keeps that property
    /// on a chosen interface.
    pub bind_addr: Option<SocketAddr>,
}

impl NetOpts {
    /// Creates options with no artificial loss.
    pub fn new(gossip_interval: Duration, loss_seed: u64) -> Self {
        NetOpts {
            gossip_interval,
            ingress_loss: 0.0,
            loss_seed,
            bind_addr: None,
        }
    }

    /// Binds the node's socket to `addr` instead of `127.0.0.1:0`.
    #[must_use]
    pub fn bind_addr(mut self, addr: SocketAddr) -> Self {
        self.bind_addr = Some(addr);
        self
    }

    /// Sets the artificial ingress-loss probability (the paper's ε).
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ loss < 1`.
    #[must_use]
    pub fn ingress_loss(mut self, loss: f64) -> Self {
        assert!((0.0..1.0).contains(&loss), "loss must be in [0, 1)");
        self.ingress_loss = loss;
        self
    }
}

/// Runtime configuration of a networked lpbcast node (protocol config +
/// transport options; the generic spawn path takes [`NetOpts`] and a
/// ready-made machine instead).
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Protocol configuration.
    pub core: Config,
    /// The gossip period `T` (§3.3; the paper used non-synchronized
    /// periodic gossips).
    pub gossip_interval: Duration,
    /// Seed for the node's deterministic protocol randomness.
    pub seed: u64,
    /// Artificial ingress loss: each received datagram is dropped with
    /// this probability *before* reaching the protocol. Localhost UDP
    /// rarely loses packets, so this re-introduces the paper's ε when
    /// exercising loss tolerance over real sockets. 0.0 disables.
    pub ingress_loss: f64,
}

impl NetConfig {
    /// Creates a configuration with no artificial loss.
    pub fn new(core: Config, gossip_interval: Duration, seed: u64) -> Self {
        NetConfig {
            core,
            gossip_interval,
            seed,
            ingress_loss: 0.0,
        }
    }

    /// Sets the artificial ingress-loss probability (the paper's ε).
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ loss < 1`.
    #[must_use]
    pub fn ingress_loss(mut self, loss: f64) -> Self {
        assert!((0.0..1.0).contains(&loss), "loss must be in [0, 1)");
        self.ingress_loss = loss;
        self
    }

    fn opts(&self) -> NetOpts {
        NetOpts {
            gossip_interval: self.gossip_interval,
            ingress_loss: self.ingress_loss,
            loss_seed: self.seed ^ 0x0069_6E67_7265_7373,
            bind_addr: None,
        }
    }
}

/// Shared, thread-safe process-id ↔ socket-address directory.
///
/// In the paper's deployment this knowledge came from the testbed
/// configuration; the protocol itself only ever names processes by id.
/// Nodes register themselves when spawned; sends to unregistered ids are
/// silently dropped (indistinguishable from message loss, which gossip
/// tolerates by design).
#[derive(Debug, Clone, Default)]
pub struct AddressBook {
    inner: Arc<RwLock<BookInner>>,
}

#[derive(Debug, Default)]
struct BookInner {
    by_id: FastMap<ProcessId, SocketAddr>,
    by_addr: FastMap<SocketAddr, ProcessId>,
}

impl AddressBook {
    /// Creates an empty book.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or updates) a process's address.
    pub fn register(&self, id: ProcessId, addr: SocketAddr) {
        let mut inner = self.inner.write();
        if let Some(old) = inner.by_id.insert(id, addr) {
            inner.by_addr.remove(&old);
        }
        inner.by_addr.insert(addr, id);
    }

    /// Address of `id`, if registered.
    pub fn lookup(&self, id: ProcessId) -> Option<SocketAddr> {
        self.inner.read().by_id.get(&id).copied()
    }

    /// Process at `addr`, if registered.
    pub fn reverse_lookup(&self, addr: SocketAddr) -> Option<ProcessId> {
        self.inner.read().by_addr.get(&addr).copied()
    }

    /// Number of registered processes.
    pub fn len(&self) -> usize {
        self.inner.read().by_id.len()
    }

    /// Whether the book is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A point-in-time view of a node's protocol state.
#[derive(Debug, Clone)]
pub struct NodeSnapshot {
    /// Current view members.
    pub view: Vec<ProcessId>,
    /// Lifetime counters.
    pub stats: ProcessStats,
    /// The logical clock: ticks elapsed, advanced to the newest
    /// unsubscription timestamp received.
    pub ticks: u64,
    /// Whether the §3.4 join handshake is still pending.
    pub joining: bool,
    /// Whether the node has unsubscribed.
    pub leaving: bool,
}

/// A running networked node: a nonblocking UDP socket and one
/// readiness-driven event-loop thread around one sans-IO [`Protocol`]
/// state machine (defaulting to [`Lpbcast`]).
#[derive(Debug)]
pub struct NetNode<P: Protocol = Lpbcast> {
    id: ProcessId,
    local_addr: SocketAddr,
    state: Arc<Mutex<P>>,
    socket: UdpSocket,
    book: AddressBook,
    deliveries: Receiver<Event>,
    /// Sender half kept for the broadcast path: a protocol may
    /// self-deliver at publish time, and those events must surface on
    /// [`deliveries`](NetNode::deliveries) like any other.
    deliveries_tx: Sender<Event>,
    shutdown: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl NetNode<Lpbcast> {
    /// Spawns a bootstrap member whose view starts as `initial_view`.
    /// Binds `127.0.0.1:0` and self-registers in `book`.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn spawn(
        id: ProcessId,
        config: NetConfig,
        book: AddressBook,
        initial_view: Vec<ProcessId>,
    ) -> Result<NetNode, NetError> {
        let machine =
            Lpbcast::with_initial_view(id, config.core.clone(), config.seed, initial_view);
        Self::spawn_protocol(machine, config.opts(), book)
    }

    /// Spawns a node that joins through `contacts` (§3.4 handshake).
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn spawn_joining(
        id: ProcessId,
        config: NetConfig,
        book: AddressBook,
        contacts: Vec<ProcessId>,
    ) -> Result<NetNode, NetError> {
        let machine = Lpbcast::joining(id, config.core.clone(), config.seed, contacts);
        Self::spawn_protocol(machine, config.opts(), book)
    }

    /// Requests departure (§3.4).
    ///
    /// # Errors
    ///
    /// See [`Lpbcast::unsubscribe`].
    pub fn unsubscribe(&self) -> Result<(), UnsubscribeRefused> {
        self.state.lock().unsubscribe()
    }

    /// A point-in-time snapshot of the protocol state.
    pub fn snapshot(&self) -> NodeSnapshot {
        let state = self.state.lock();
        NodeSnapshot {
            view: state.view().members(),
            stats: *state.stats(),
            ticks: state.now().as_u64(),
            joining: state.is_joining(),
            leaving: state.is_leaving(),
        }
    }
}

impl<P> NetNode<P>
where
    P: Protocol + Send + 'static,
    P::Msg: WireMessage,
{
    /// Spawns a node around an already-constructed protocol machine —
    /// the generic entry point: `NetNode::spawn_protocol(Pbcast::new(…),
    /// opts, book)` runs the pbcast baseline over the very same runtime.
    /// Binds `127.0.0.1:0` and self-registers in `book`.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn spawn_protocol(machine: P, opts: NetOpts, book: AddressBook) -> Result<Self, NetError> {
        let id = machine.id();
        let socket = bind_with_retry(opts.bind_addr.unwrap_or_else(ephemeral_loopback))?;
        let local_addr = socket.local_addr()?;
        book.register(id, local_addr);

        let state = Arc::new(Mutex::new(machine));
        let shutdown = Arc::new(AtomicBool::new(false));
        let (tx, rx) = unbounded::<Event>();

        // One event-loop thread: park on readiness (capped by the next
        // gossip deadline), drain datagrams, tick when due.
        let loop_socket = socket.try_clone()?;
        let loop_state = Arc::clone(&state);
        let loop_book = book.clone();
        let loop_shutdown = Arc::clone(&shutdown);
        let loop_tx = tx.clone();
        let ingress_loss = opts.ingress_loss;
        let loss_seed = opts.loss_seed;
        let interval = opts.gossip_interval;
        let wake_cap = read_timeout_from_env();
        let looper = std::thread::Builder::new()
            .name(format!("lpbcast-loop-{id}"))
            .spawn(move || {
                event_loop(
                    loop_socket,
                    loop_state,
                    loop_book,
                    loop_shutdown,
                    loop_tx,
                    interval,
                    ingress_loss,
                    loss_seed,
                    wake_cap,
                );
            })?;

        Ok(NetNode {
            id,
            local_addr,
            state,
            socket,
            book,
            deliveries: rx,
            deliveries_tx: tx,
            shutdown,
            threads: vec![looper],
        })
    }

    /// Publishes a notification (LPB-CAST). Immediate sends the protocol
    /// produces (pbcast's best-effort first phase) go out right away;
    /// buffered protocols piggyback on the next periodic gossip. Events
    /// a protocol self-delivers at publish time surface on
    /// [`deliveries`](NetNode::deliveries) like any other delivery.
    pub fn broadcast(&self, payload: impl Into<Payload>) -> EventId {
        let (id, output) = self.state.lock().broadcast(payload.into());
        for event in output.delivered {
            let _ = self.deliveries_tx.send(event);
        }
        send_outgoing(&self.socket, &self.book, &output.outgoing);
        id
    }

    /// Runs `f` against the locked protocol state (generic inspection;
    /// the lpbcast-specific [`snapshot`](NetNode::snapshot) is a
    /// convenience over this).
    pub fn with_state<R>(&self, f: impl FnOnce(&P) -> R) -> R {
        f(&self.state.lock())
    }

    /// Current membership view of the protocol.
    pub fn view(&self) -> Vec<ProcessId> {
        self.state.lock().view_members()
    }
}

impl<P: Protocol> NetNode<P> {
    /// This node's process id.
    pub fn id(&self) -> ProcessId {
        self.id
    }

    /// The bound UDP address.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The shared address book this node registered itself in.
    pub fn address_book(&self) -> &AddressBook {
        &self.book
    }

    /// The UDP socket (e.g. to inspect or reconfigure timeouts in tests).
    pub fn socket(&self) -> &UdpSocket {
        &self.socket
    }

    /// The channel on which delivered notifications arrive
    /// (LPB-DELIVER). Only payload-carrying deliveries
    /// (`Output::delivered`) are surfaced here: ids learnt from digests
    /// without payload (`Output::learned_ids`, the §5.2 measurement
    /// convention) have no event to deliver — a driver that needs them
    /// (e.g. pbcast in `deliver_on_digest` mode) inspects the protocol
    /// state via [`with_state`](NetNode::with_state) /
    /// [`Protocol::handle_message`] outputs instead.
    pub fn deliveries(&self) -> &Receiver<Event> {
        &self.deliveries
    }

    /// Stops the event loop and waits for it. Further datagrams to this
    /// node are lost (as any crash would look to its peers).
    pub fn shutdown(mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// The node's single event loop: readiness wait (capped by the gossip
/// deadline and the shutdown-latency knob), socket drain, periodic tick.
#[allow(clippy::too_many_arguments)]
fn event_loop<P: Protocol>(
    socket: UdpSocket,
    state: Arc<Mutex<P>>,
    book: AddressBook,
    shutdown: Arc<AtomicBool>,
    deliveries: Sender<Event>,
    interval: Duration,
    ingress_loss: f64,
    loss_seed: u64,
    wake_cap: Duration,
) where
    P::Msg: WireMessage,
{
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    let Ok(mut poller) = UdpPoller::new() else {
        return;
    };
    if poller.register(&socket, 0).is_err() {
        return;
    }
    let mut loss_rng = SmallRng::seed_from_u64(loss_seed);
    let mut buf = vec![0u8; 64 * 1024];
    let mut next_tick = Instant::now() + interval;
    while !shutdown.load(Ordering::Relaxed) {
        let now = Instant::now();
        if now >= next_tick {
            let output = state.lock().tick();
            for event in output.delivered {
                let _ = deliveries.send(event);
            }
            send_outgoing(&socket, &book, &output.outgoing);
            // Catch up without bursting: a stalled loop owes its peers
            // at most one gossip, not one per missed period.
            while next_tick <= now {
                next_tick += interval;
            }
        }
        let timeout = next_tick.saturating_duration_since(now).min(wake_cap);
        let ready = match poller.wait(Some(timeout)) {
            Ok(keys) => !keys.is_empty(),
            Err(_) => break,
        };
        if !ready {
            continue; // timer or shutdown check, handled at loop top
        }
        let drained = drain_socket(&socket, &mut buf, |datagram, from_addr| {
            let Ok(messages) = wire::decode_frames::<P::Msg>(datagram) else {
                return; // hostile or truncated datagram: drop it whole
            };
            // `from` is only consulted for retransmission replies; gossip
            // and subscriptions carry their sender in-band.
            let from = book
                .reverse_lookup(from_addr)
                .unwrap_or(ProcessId::new(u64::MAX));
            for message in messages {
                // The paper's ε, injected at ingress — drawn per
                // *message*, not per datagram, so frames batched into one
                // datagram still suffer independent Bernoulli loss.
                if ingress_loss > 0.0 && loss_rng.gen::<f64>() < ingress_loss {
                    continue;
                }
                let output = state.lock().handle_message(from, message);
                for event in output.delivered {
                    let _ = deliveries.send(event);
                }
                send_outgoing(&socket, &book, &output.outgoing);
            }
        });
        if drained.is_err() {
            break;
        }
    }
}

/// Transmits one output batch: envelopes are grouped per destination
/// into multi-frame datagrams (one `send_to` per peer per ≤60 KiB
/// batch), and messages sharing an `Arc`'d body
/// ([`WireMessage::body_key`]) are encoded once — the fanout reuses the
/// frame bytes instead of re-serializing the gossip `F` times.
fn send_outgoing<M: WireMessage>(
    socket: &UdpSocket,
    book: &AddressBook,
    outgoing: &[(ProcessId, M)],
) {
    use bytes::{Bytes, BytesMut};
    // Fanout is small (F ≈ 3-5 destinations): linear scans beat hashing.
    let mut batches: Vec<(ProcessId, SocketAddr, BytesMut)> = Vec::new();
    let mut cached: Option<(usize, Bytes)> = None;
    let mut scratch = BytesMut::new();
    for (to, msg) in outgoing {
        let Some(addr) = book.lookup(*to) else {
            continue; // unknown peer: indistinguishable from loss
        };
        let frame: &[u8] = match msg.body_key() {
            Some(key) => match &mut cached {
                Some((k, f)) if *k == key => f,
                slot => {
                    let mut f = BytesMut::with_capacity(256);
                    wire::encode_frame(msg, &mut f);
                    &slot.insert((key, f.freeze())).1
                }
            },
            None => {
                scratch.clear();
                wire::encode_frame(msg, &mut scratch);
                &scratch
            }
        };
        let idx = match batches.iter().position(|(p, _, _)| p == to) {
            Some(i) => i,
            None => {
                batches.push((*to, addr, BytesMut::new()));
                batches.len() - 1
            }
        };
        let Some(batch) = batches.get_mut(idx) else {
            continue; // idx was computed in-bounds just above
        };
        if !batch.2.is_empty() && batch.2.len() + frame.len() > MAX_DATAGRAM {
            let _ = socket.send_to(&batch.2, batch.1);
            batch.2.clear();
        }
        batch.2.extend_from_slice(frame);
    }
    for (_, addr, bytes) in &batches {
        if !bytes.is_empty() {
            let _ = socket.send_to(bytes, *addr);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn address_book_roundtrip() {
        let book = AddressBook::new();
        assert!(book.is_empty());
        let addr: SocketAddr = "127.0.0.1:9999".parse().unwrap();
        book.register(ProcessId::new(1), addr);
        assert_eq!(book.lookup(ProcessId::new(1)), Some(addr));
        assert_eq!(book.reverse_lookup(addr), Some(ProcessId::new(1)));
        assert_eq!(book.len(), 1);
        // Re-registration moves the address.
        let addr2: SocketAddr = "127.0.0.1:9998".parse().unwrap();
        book.register(ProcessId::new(1), addr2);
        assert_eq!(book.lookup(ProcessId::new(1)), Some(addr2));
        assert_eq!(book.reverse_lookup(addr), None, "old address unlinked");
    }

    #[test]
    fn unknown_ids_resolve_to_none() {
        let book = AddressBook::new();
        assert_eq!(book.lookup(ProcessId::new(5)), None);
    }

    #[test]
    fn read_timeout_knob_parses_and_falls_back() {
        assert_eq!(parse_read_timeout(None), DEFAULT_READ_TIMEOUT);
        assert_eq!(parse_read_timeout(Some("250")), Duration::from_millis(250));
        assert_eq!(parse_read_timeout(Some(" 7 ")), Duration::from_millis(7));
        // Zero would busy-spin recv_from; junk is ignored.
        assert_eq!(parse_read_timeout(Some("0")), DEFAULT_READ_TIMEOUT);
        assert_eq!(parse_read_timeout(Some("fast")), DEFAULT_READ_TIMEOUT);
        assert_eq!(parse_read_timeout(Some("")), DEFAULT_READ_TIMEOUT);
    }

    #[test]
    fn bind_with_retry_yields_a_usable_socket() {
        let socket = bind_with_retry(ephemeral_loopback()).expect("ephemeral bind succeeds");
        let addr = socket.local_addr().expect("bound address");
        assert!(addr.ip().is_loopback());
        assert_ne!(addr.port(), 0, "a concrete ephemeral port was assigned");
    }

    #[test]
    fn net_opts_thread_an_explicit_bind_addr() {
        let opts = NetOpts::new(Duration::from_millis(50), 1);
        assert_eq!(opts.bind_addr, None, "default stays OS-assigned");
        let addr: SocketAddr = "127.0.0.1:0".parse().expect("addr");
        let opts = opts.bind_addr(addr);
        assert_eq!(opts.bind_addr, Some(addr));
        let socket = bind_with_retry(addr).expect("port-0 bind is single-shot");
        assert_ne!(socket.local_addr().expect("addr").port(), 0);
    }
}
