//! Protocol messages and state-machine outputs.

use std::sync::Arc;

use lpbcast_types::{CompactDigest, Event, EventId, ProcessId};

use crate::time::LogicalTime;
use crate::unsub::{UnsubDigest, Unsubscription};

/// The digest of delivered notifications carried by every gossip message
/// (§3.2 "notification identifiers").
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Digest {
    /// Snapshot of the bounded `eventIds` buffer
    /// ([`HistoryMode::Bounded`](crate::HistoryMode::Bounded)).
    Ids(Vec<EventId>),
    /// Per-origin compact form
    /// ([`HistoryMode::Compact`](crate::HistoryMode::Compact)).
    Compact(CompactDigest),
}

impl Digest {
    /// An empty digest in the `Ids` representation.
    pub fn empty() -> Self {
        Digest::Ids(Vec::new())
    }

    /// Whether `id` is covered by the digest.
    pub fn contains(&self, id: EventId) -> bool {
        match self {
            Digest::Ids(ids) => ids.contains(&id),
            Digest::Compact(d) => d.contains(id),
        }
    }

    /// Number of ids the digest advertises (for `Compact`, the number of
    /// distinct ids it covers).
    pub fn advertised_count(&self) -> u64 {
        match self {
            Digest::Ids(ids) => ids.len() as u64,
            Digest::Compact(d) => d.seen_count(),
        }
    }

    /// Iterates over explicitly enumerable ids. For `Compact`, enumerates
    /// out-of-order ids and the in-sequence watermark boundaries are *not*
    /// expanded (callers needing set semantics use
    /// [`Digest::contains`] / [`crate::EventHistory::missing_from`]).
    pub fn explicit_ids(&self) -> Vec<EventId> {
        match self {
            Digest::Ids(ids) => ids.clone(),
            Digest::Compact(d) => {
                let mut out = Vec::new();
                for (origin, od) in d.iter() {
                    out.extend(od.out_of_order().iter().map(|&s| EventId::new(origin, s)));
                    if od.next_seq() > 0 {
                        // Represent the watermark by its newest id.
                        out.push(EventId::new(origin, od.next_seq() - 1));
                    }
                }
                out
            }
        }
    }
}

/// The unsubscription section of a gossip (§3.4 `gossip.unSubs`), in
/// either of two lossless representations.
///
/// Mirrors [`Digest`]'s flat/compact split: `Flat` is the paper's literal
/// record list (one `(process, issued_at)` pair per leaver, 16 wire bytes
/// each); `Digest` aggregates records by issue timestamp
/// ([`UnsubDigest`]), cutting the per-record wire cost roughly in half
/// under sustained churn where many leavers share a timestamp. Both
/// carry exactly the same records, so obsolescence and purge semantics
/// (§3.4) are representation-independent — proven by the churn A/B test
/// in `lpbcast-sim`.
#[derive(Debug, Clone, PartialEq)]
pub enum UnsubSection {
    /// The literal record list (order as drawn from the `unSubs` buffer).
    Flat(Vec<Unsubscription>),
    /// Per-timestamp aggregated records (canonical order).
    Digest(UnsubDigest),
}

impl UnsubSection {
    /// An empty section in the `Flat` representation.
    pub fn empty() -> Self {
        UnsubSection::Flat(Vec::new())
    }

    /// Number of unsubscription records carried.
    pub fn record_count(&self) -> usize {
        match self {
            UnsubSection::Flat(records) => records.len(),
            UnsubSection::Digest(d) => d.record_count(),
        }
    }

    /// The newest `issued_at` carried, or `None` for an empty section:
    /// the value a receiver advances its clock to before judging
    /// obsolescence (see [`Unsubscription`]). The digest's groups ascend
    /// by timestamp, so that form answers without a scan.
    pub fn newest(&self) -> Option<LogicalTime> {
        match self {
            UnsubSection::Flat(records) => records.iter().map(|u| u.issued_at()).max(),
            UnsubSection::Digest(d) => d.groups().last().map(|(t, _)| *t),
        }
    }

    /// Whether no records are carried.
    pub fn is_empty(&self) -> bool {
        self.record_count() == 0
    }

    /// Yields every record. Allocation-free — both representations back
    /// their records with a contiguous slice, and this runs once per
    /// received gossip on the hot path.
    pub fn iter(&self) -> impl Iterator<Item = Unsubscription> + '_ {
        let records = match self {
            UnsubSection::Flat(records) => records.as_slice(),
            UnsubSection::Digest(d) => d.records(),
        };
        records.iter().copied()
    }

    /// Whether a record for `process` is present (test helper).
    pub fn contains_process(&self, process: ProcessId) -> bool {
        self.iter().any(|u| u.process() == process)
    }
}

impl From<Vec<Unsubscription>> for UnsubSection {
    fn from(records: Vec<Unsubscription>) -> Self {
        UnsubSection::Flat(records)
    }
}

/// A gossip message (§3.2): the single message type that simultaneously
/// disseminates notifications, digests, unsubscriptions and subscriptions.
#[derive(Debug, Clone)]
pub struct Gossip {
    /// The emitting process.
    pub sender: ProcessId,
    /// Subscriptions to propagate; always contains the sender itself
    /// (Figure 1(b): `gossip.subs ← subs ∪ {pi}`).
    pub subs: Vec<ProcessId>,
    /// Unsubscriptions to propagate (flat records or the per-timestamp
    /// digest, per [`Config::digest_unsubs`](crate::Config)).
    pub unsubs: UnsubSection,
    /// Notifications received since the sender's last gossip.
    pub events: Vec<Event>,
    /// Digest of all notifications the sender has delivered.
    pub event_ids: Digest,
}

impl Gossip {
    /// Total wire-visible entry count (used by tests and load accounting).
    pub fn entry_count(&self) -> usize {
        self.subs.len()
            + self.unsubs.record_count()
            + self.events.len()
            + self.event_ids.advertised_count() as usize
    }
}

/// Messages exchanged by lpbcast processes.
///
/// The gossip body travels behind an [`Arc`]: one emission builds the
/// body once and every one of the `F` fanout copies clones the pointer,
/// not the payload. Simulator fan-out is therefore zero-copy; the wire
/// codec serializes through the pointer, so encoding is byte-identical
/// to carrying the body inline.
#[derive(Debug, Clone)]
pub enum Message {
    /// Periodic gossip (the only message required by the base protocol).
    Gossip(Arc<Gossip>),
    /// A joining process asks a known member to gossip its subscription on
    /// its behalf (§3.4).
    Subscribe {
        /// The joining process.
        subscriber: ProcessId,
    },
    /// Gossip-pull: ask the sender of a gossip for notifications whose ids
    /// appeared in its digest but were never delivered locally.
    RetransmitRequest {
        /// Ids requested.
        ids: Vec<EventId>,
    },
    /// Reply to a [`Message::RetransmitRequest`] with whatever the archive
    /// still holds.
    RetransmitResponse {
        /// The recovered notifications.
        events: Vec<Event>,
    },
}

impl Message {
    /// Wraps a gossip body into a [`Message::Gossip`], allocating its
    /// shared [`Arc`]. Fanout copies should clone the resulting message
    /// (pointer clone), not call this per copy.
    pub fn gossip(gossip: Gossip) -> Self {
        Message::Gossip(Arc::new(gossip))
    }

    /// Short human-readable kind tag (for logs and stats).
    pub fn kind(&self) -> &'static str {
        match self {
            Message::Gossip(_) => "gossip",
            Message::Subscribe { .. } => "subscribe",
            Message::RetransmitRequest { .. } => "retransmit-request",
            Message::RetransmitResponse { .. } => "retransmit-response",
        }
    }
}

/// Everything an lpbcast step produced: the workspace-wide unified
/// envelope ([`lpbcast_types::Output`]) instantiated at [`Message`].
///
/// `delivered` carries LPB-DELIVER notifications in delivery order;
/// `learned_ids` is non-empty only in the §5.2 measurement convention
/// (*"once a gossip receiver has received the identifier of a
/// notification, the notification itself is assumed to have been
/// received"*, i.e. when `retransmit_request_max == 0` the driver may
/// count these as received); `outgoing` is the `(destination, message)`
/// send batch; `membership` reports view joins/leaves applied by the
/// step.
pub type Output = lpbcast_types::Output<Message>;

#[cfg(test)]
mod tests {
    use super::*;
    use lpbcast_types::CompactDigest;

    fn pid(p: u64) -> ProcessId {
        ProcessId::new(p)
    }

    fn eid(p: u64, s: u64) -> EventId {
        EventId::new(pid(p), s)
    }

    #[test]
    fn digest_contains_both_forms() {
        let ids = Digest::Ids(vec![eid(1, 0), eid(1, 2)]);
        assert!(ids.contains(eid(1, 0)));
        assert!(!ids.contains(eid(1, 1)));
        assert_eq!(ids.advertised_count(), 2);

        let mut c = CompactDigest::new();
        c.extend([eid(1, 0), eid(1, 1), eid(2, 5)]);
        let compact = Digest::Compact(c);
        assert!(compact.contains(eid(1, 1)));
        assert!(!compact.contains(eid(2, 4)));
        assert_eq!(compact.advertised_count(), 3);
    }

    #[test]
    fn explicit_ids_cover_watermark_and_stragglers() {
        let mut c = CompactDigest::new();
        c.extend([eid(1, 0), eid(1, 1), eid(1, 5)]);
        let ids = Digest::Compact(c).explicit_ids();
        assert!(ids.contains(&eid(1, 1)), "watermark newest id");
        assert!(ids.contains(&eid(1, 5)), "out-of-order id");
        assert!(!ids.contains(&eid(1, 0)), "interior ids not enumerated");
    }

    #[test]
    fn gossip_entry_count_sums_sections() {
        let g = Gossip {
            sender: pid(0),
            subs: vec![pid(0), pid(1)],
            unsubs: vec![Unsubscription::new(pid(2), LogicalTime::ZERO)].into(),
            events: vec![Event::new(eid(3, 0), b"x".as_ref())],
            event_ids: Digest::Ids(vec![eid(3, 0)]),
        };
        assert_eq!(g.entry_count(), 2 + 1 + 1 + 1);
    }

    #[test]
    fn unsub_section_forms_agree() {
        let records = vec![
            Unsubscription::new(pid(1), LogicalTime::new(7)),
            Unsubscription::new(pid(2), LogicalTime::new(4)),
        ];
        let flat = UnsubSection::Flat(records.clone());
        let digest = UnsubSection::Digest(UnsubDigest::from_records(records));
        assert_eq!(flat.record_count(), 2);
        assert_eq!(digest.record_count(), 2);
        assert!(flat.contains_process(pid(2)) && digest.contains_process(pid(2)));
        assert!(!digest.contains_process(pid(9)));
        let mut a: Vec<_> = flat.iter().collect();
        let mut b: Vec<_> = digest.iter().collect();
        a.sort_by_key(|u| u.process());
        b.sort_by_key(|u| u.process());
        assert_eq!(a, b, "same records regardless of representation");
        assert_eq!(flat.newest(), Some(LogicalTime::new(7)));
        assert_eq!(digest.newest(), Some(LogicalTime::new(7)));
        assert!(UnsubSection::empty().is_empty());
        assert_eq!(UnsubSection::empty().newest(), None);
    }

    #[test]
    fn output_absorb_concatenates() {
        let mut a = Output::default();
        a.delivered.push(Event::new(eid(1, 0), b"".as_ref()));
        let mut b = Output::default();
        b.learned_ids.push(eid(2, 0));
        b.send(pid(5), Message::Subscribe { subscriber: pid(9) });
        assert!(!b.is_empty());
        a.absorb(b);
        assert_eq!(a.delivered.len(), 1);
        assert_eq!(a.learned_ids.len(), 1);
        assert_eq!(a.outgoing.len(), 1);
        assert_eq!(a.outgoing[0].1.kind(), "subscribe");
    }

    #[test]
    fn message_kinds() {
        assert_eq!(
            Message::RetransmitRequest { ids: vec![] }.kind(),
            "retransmit-request"
        );
        assert_eq!(
            Message::RetransmitResponse { events: vec![] }.kind(),
            "retransmit-response"
        );
    }
}
