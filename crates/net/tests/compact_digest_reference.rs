//! Differential tests pinning the flat [`CompactDigest`] to a reference
//! model: the per-origin `BTreeMap`/`BTreeSet` digest it replaced, kept
//! here verbatim in behaviour. Random `insert` / `set_origin` /
//! `from_parts` sequences must give equal membership, counts, iteration
//! order, gap lists, pull lists in exact output order (pull requests take
//! a prefix of that list, so the order is part of the protocol's
//! determinism) and byte-identical wire encodings. A second property
//! feeds the decoder non-canonical kind-1 digests (shuffled or repeated
//! origins, unsorted and repeated out-of-order ids) and checks it
//! canonicalises them exactly as the reference's `set_origin` merge does.

use std::collections::{BTreeMap, BTreeSet};

use lpbcast_core::{Digest, Gossip, Message, UnsubSection};
use lpbcast_net::wire;
use lpbcast_types::{CompactDigest, EventId, OriginDigest, ProcessId};
use proptest::collection::vec;
use proptest::prelude::*;

fn pid(p: u64) -> ProcessId {
    ProcessId::new(p)
}

/// The reference model: one `BTreeSet` of out-of-order ids per origin,
/// origins in a `BTreeMap`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct RefOrigin {
    next_seq: u64,
    out_of_order: BTreeSet<u64>,
}

impl RefOrigin {
    fn from_parts(next_seq: u64, out_of_order: impl IntoIterator<Item = u64>) -> Self {
        let mut d = RefOrigin {
            next_seq,
            out_of_order: BTreeSet::new(),
        };
        for seq in out_of_order {
            d.insert(seq);
        }
        d
    }

    fn contains(&self, seq: u64) -> bool {
        seq < self.next_seq || self.out_of_order.contains(&seq)
    }

    fn insert(&mut self, seq: u64) -> bool {
        if self.contains(seq) {
            return false;
        }
        if seq == self.next_seq {
            self.next_seq += 1;
            while self.out_of_order.remove(&self.next_seq) {
                self.next_seq += 1;
            }
        } else {
            self.out_of_order.insert(seq);
        }
        true
    }

    fn max_seen(&self) -> Option<u64> {
        self.out_of_order
            .iter()
            .next_back()
            .copied()
            .or_else(|| self.next_seq.checked_sub(1))
    }
}

#[derive(Debug, Clone, Default)]
struct RefDigest {
    origins: BTreeMap<ProcessId, RefOrigin>,
}

impl RefDigest {
    fn contains(&self, id: EventId) -> bool {
        self.origins
            .get(&id.origin())
            .is_some_and(|d| d.contains(id.seq()))
    }

    fn insert(&mut self, id: EventId) -> bool {
        self.origins
            .entry(id.origin())
            .or_default()
            .insert(id.seq())
    }

    fn set_origin(&mut self, origin: ProcessId, digest: RefOrigin) {
        let slot = self.origins.entry(origin).or_default();
        if slot.next_seq == 0 && slot.out_of_order.is_empty() {
            *slot = digest;
        } else {
            let (mut base, other) = if slot.next_seq >= digest.next_seq {
                (slot.clone(), digest)
            } else {
                (digest, slot.clone())
            };
            for seq in other.out_of_order {
                base.insert(seq);
            }
            *slot = base;
        }
    }

    fn seen_count(&self) -> u64 {
        self.origins
            .values()
            .map(|d| d.next_seq + d.out_of_order.len() as u64)
            .sum()
    }

    fn storage_entries(&self) -> usize {
        self.origins
            .values()
            .map(|d| 1 + d.out_of_order.len())
            .sum()
    }

    /// `(origin, next_seq, out_of_order)` in iteration order.
    fn entries(&self) -> Vec<(ProcessId, u64, Vec<u64>)> {
        self.origins
            .iter()
            .map(|(p, d)| (*p, d.next_seq, d.out_of_order.iter().copied().collect()))
            .collect()
    }

    fn missing(&self) -> Vec<EventId> {
        let mut out = Vec::new();
        for (origin, d) in &self.origins {
            if let Some(max) = d.max_seen() {
                out.extend(
                    (d.next_seq..max + 1)
                        .filter(|s| !d.out_of_order.contains(s))
                        .map(|s| EventId::new(*origin, s)),
                );
            }
        }
        out
    }

    fn missing_relative_to(&self, other: &RefDigest) -> Vec<EventId> {
        let mut out = Vec::new();
        for (origin, theirs) in &other.origins {
            let empty = RefOrigin::default();
            let ours = self.origins.get(origin).unwrap_or(&empty);
            for seq in ours.next_seq..theirs.next_seq {
                if !ours.out_of_order.contains(&seq) {
                    out.push(EventId::new(*origin, seq));
                }
            }
            for &seq in &theirs.out_of_order {
                if !ours.contains(seq) {
                    out.push(EventId::new(*origin, seq));
                }
            }
        }
        out
    }
}

fn entries(d: &CompactDigest) -> Vec<(ProcessId, u64, Vec<u64>)> {
    d.iter()
        .map(|(p, od)| (p, od.next_seq(), od.out_of_order().to_vec()))
        .collect()
}

/// A gossip frame with empty sections around a kind-1 digest whose
/// per-origin entries are written exactly as given.
fn frame_with_digest(digest_entries: &[(ProcessId, u64, Vec<u64>)]) -> Vec<u8> {
    let mut out = vec![wire::MAGIC, wire::VERSION, 0u8];
    out.extend_from_slice(&0u64.to_le_bytes()); // sender
    out.extend_from_slice(&0u16.to_le_bytes()); // subs
    out.push(0); // flat unSubs
    out.extend_from_slice(&0u16.to_le_bytes());
    out.extend_from_slice(&0u16.to_le_bytes()); // events
    out.push(1); // compact digest
    out.extend_from_slice(&(digest_entries.len() as u16).to_le_bytes());
    for (origin, next_seq, ooo) in digest_entries {
        out.extend_from_slice(&origin.as_u64().to_le_bytes());
        out.extend_from_slice(&next_seq.to_le_bytes());
        out.extend_from_slice(&(ooo.len() as u16).to_le_bytes());
        for s in ooo {
            out.extend_from_slice(&s.to_le_bytes());
        }
    }
    out
}

fn gossip_with(digest: CompactDigest) -> Message {
    Message::gossip(Gossip {
        sender: pid(0),
        subs: vec![],
        unsubs: UnsubSection::empty(),
        events: vec![],
        event_ids: Digest::Compact(digest),
    })
}

fn decode_digest(frame: &[u8]) -> CompactDigest {
    match wire::decode::<Message>(frame).expect("valid frame") {
        Message::Gossip(g) => match &g.event_ids {
            Digest::Compact(d) => d.clone(),
            Digest::Ids(_) => panic!("digest kind changed"),
        },
        _ => panic!("message kind changed"),
    }
}

#[derive(Debug, Clone)]
enum Op {
    Insert(u64, u64),
    SetOrigin(u64, u64, Vec<u64>),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..5, 0u64..24).prop_map(|(p, s)| Op::Insert(p, s)),
        (0u64..5, 0u64..16, vec(0u64..24, 0..6))
            .prop_map(|(p, next, ooo)| Op::SetOrigin(p, next, ooo)),
    ]
}

fn build(ops: &[Op]) -> (CompactDigest, RefDigest) {
    let mut flat = CompactDigest::new();
    let mut model = RefDigest::default();
    for op in ops {
        match op {
            Op::Insert(p, s) => {
                let id = EventId::new(pid(*p), *s);
                assert_eq!(flat.insert(id), model.insert(id), "insert {id:?}");
            }
            Op::SetOrigin(p, next, ooo) => {
                flat.set_origin(
                    pid(*p),
                    OriginDigest::from_parts(*next, ooo.iter().copied()),
                );
                model.set_origin(pid(*p), RefOrigin::from_parts(*next, ooo.iter().copied()));
            }
        }
    }
    (flat, model)
}

proptest! {
    /// Every observable of the flat digest equals the reference model's.
    #[test]
    fn flat_digest_matches_the_btree_reference(
        mine_ops in vec(arb_op(), 0..60),
        theirs_ops in vec(arb_op(), 0..60),
    ) {
        let (mine, mine_ref) = build(&mine_ops);
        let (theirs, theirs_ref) = build(&theirs_ops);
        for (flat, model) in [(&mine, &mine_ref), (&theirs, &theirs_ref)] {
            for p in 0..6u64 {
                for s in 0..30u64 {
                    let id = EventId::new(pid(p), s);
                    prop_assert_eq!(flat.contains(id), model.contains(id));
                }
            }
            prop_assert_eq!(flat.seen_count(), model.seen_count());
            prop_assert_eq!(flat.storage_entries(), model.storage_entries());
            prop_assert_eq!(flat.origin_count(), model.origins.len());
            prop_assert_eq!(entries(flat), model.entries());
            prop_assert_eq!(flat.missing(), model.missing());
            let frame = wire::encode(&gossip_with(flat.clone()));
            prop_assert_eq!(frame.to_vec(), frame_with_digest(&model.entries()));
            prop_assert_eq!(&decode_digest(&frame), flat);
        }
        let pull: Vec<EventId> = mine.missing_relative_to(&theirs).collect();
        prop_assert_eq!(pull, mine_ref.missing_relative_to(&theirs_ref));
        let back: Vec<EventId> = theirs.missing_relative_to(&mine).collect();
        prop_assert_eq!(back, theirs_ref.missing_relative_to(&mine_ref));
    }

    /// Non-canonical kind-1 digests decode to what the reference's
    /// `set_origin` merge makes of the same entries in the same order.
    #[test]
    fn decoder_canonicalises_like_set_origin(
        raw in vec((0u64..5, 0u64..16, vec(0u64..24, 0..6)), 0..12),
    ) {
        let raw: Vec<(ProcessId, u64, Vec<u64>)> =
            raw.into_iter().map(|(p, next, ooo)| (pid(p), next, ooo)).collect();
        let mut model = RefDigest::default();
        let mut merged = CompactDigest::new();
        for (origin, next_seq, ooo) in &raw {
            model.set_origin(*origin, RefOrigin::from_parts(*next_seq, ooo.iter().copied()));
            merged.set_origin(*origin, OriginDigest::from_parts(*next_seq, ooo.iter().copied()));
        }
        let decoded = decode_digest(&frame_with_digest(&raw));
        prop_assert_eq!(entries(&decoded), model.entries());
        prop_assert_eq!(&decoded, &merged);
        let reencoded = wire::encode(&gossip_with(decoded));
        prop_assert_eq!(reencoded.to_vec(), frame_with_digest(&model.entries()));
    }
}

/// A fully reversed kind-1 digest (descending origins, each with a
/// descending out-of-order list) decodes to the canonical digest.
#[test]
fn reversed_digest_decodes_canonically() {
    let ascending: Vec<(ProcessId, u64, Vec<u64>)> = (0..64u64)
        .map(|p| (pid(p), p, (p + 2..p + 200).step_by(2).collect()))
        .collect();
    let reversed: Vec<(ProcessId, u64, Vec<u64>)> = ascending
        .iter()
        .rev()
        .map(|(p, next, ooo)| (*p, *next, ooo.iter().rev().copied().collect()))
        .collect();
    let decoded = decode_digest(&frame_with_digest(&reversed));
    assert_eq!(decoded, decode_digest(&frame_with_digest(&ascending)));
    assert_eq!(entries(&decoded), ascending);
}
