//! Compact per-origin event-id digests.
//!
//! §3.2: *"We suppose that these identifiers are unique, and include the
//! identifier of the originator. That way, the buffer can be optimized by
//! only retaining for each sender the identifiers of notifications
//! delivered since the last one delivered in sequence."*
//!
//! [`CompactDigest`] implements exactly that optimisation: for every origin
//! it stores the next expected sequence number (everything below it has
//! been seen) plus the sequence numbers seen out of order above it.
//! It is used by the retransmission machinery (gossip pull) and offered by
//! `lpbcast-core` as an alternative to the bounded `eventIds` history.
//!
//! # Layout
//!
//! A digest is one contiguous array of `(origin, OriginDigest)` entries
//! sorted by origin, each origin at most once; lookups binary-search it.
//! An [`OriginDigest`] is the in-sequence watermark plus an optional boxed
//! list of out-of-order sequence numbers (sorted, distinct). The box is one
//! pointer wide and absent when nothing is out of order, so:
//!
//! * an origin seen strictly in sequence — the steady state — costs 24
//!   bytes of the shared array and no allocation of its own;
//! * an origin with `k` out-of-order ids adds one 24-byte list header and
//!   one `8·k`-byte buffer.
//!
//! Every emitted gossip clones its sender's digest, so a clone is one
//! array allocation (plus one per origin with out-of-order ids).
//! [`CompactDigest::iter`] walks ascending origins and each origin's
//! out-of-order ids ascend: the wire encoding and the order of
//! [`CompactDigest::missing_relative_to`] follow from that.

#[cfg(feature = "serde")]
use serde::{Deserialize, Serialize};

use crate::{EventId, ProcessId};

/// Digest of the notifications seen from a single origin.
///
/// Invariant: every sequence number `< next_seq` is contained; the
/// out-of-order list is sorted, distinct, never empty when present, and
/// every member is `> next_seq`. The one exception is `u64::MAX`, which no
/// watermark can cover: it stays listed when `next_seq == u64::MAX`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(Serialize, Deserialize))]
pub struct OriginDigest {
    next_seq: u64,
    // Boxed so the common empty case costs one null pointer, not a
    // three-word `Vec` header, in every entry of the origin array.
    #[allow(clippy::box_collection)]
    out_of_order: Option<Box<Vec<u64>>>,
}

impl OriginDigest {
    /// Creates an empty digest (nothing seen).
    pub fn new() -> Self {
        Self::default()
    }

    /// Reassembles a digest from its wire parts: the in-sequence watermark
    /// and the out-of-order ids, in any order and with repeats. Entries
    /// below the watermark are dropped and runs that continue it are
    /// absorbed, so the result always satisfies the struct invariant.
    /// Ascending input is taken as is; anything else is sorted once.
    pub fn from_parts(next_seq: u64, out_of_order: impl IntoIterator<Item = u64>) -> Self {
        let mut ooo: Vec<u64> = out_of_order.into_iter().collect();
        if !ooo.windows(2).all(|w| w[0] < w[1]) {
            ooo.sort_unstable();
            ooo.dedup();
        }
        let mut next_seq = next_seq;
        let below = ooo.partition_point(|&s| s < next_seq);
        let absorbed = below + absorb_run(&mut next_seq, &ooo[below..]);
        ooo.drain(..absorbed);
        OriginDigest {
            next_seq,
            out_of_order: (!ooo.is_empty()).then(|| Box::new(ooo)),
        }
    }

    /// The smallest sequence number not yet seen in sequence. All sequence
    /// numbers strictly below have been seen.
    pub const fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Sequence numbers seen out of order, ascending (each `> next_seq`).
    pub fn out_of_order(&self) -> &[u64] {
        self.out_of_order.as_deref().map_or(&[], Vec::as_slice)
    }

    /// Whether `seq` has been seen.
    pub fn contains(&self, seq: u64) -> bool {
        seq < self.next_seq || self.out_of_order().binary_search(&seq).is_ok()
    }

    /// Records `seq`; returns `true` if it was unseen. Absorbs any
    /// out-of-order run that becomes contiguous.
    pub fn insert(&mut self, seq: u64) -> bool {
        if seq < self.next_seq {
            return false;
        }
        if seq == self.next_seq && seq != u64::MAX {
            self.next_seq += 1;
            if let Some(ooo) = self.out_of_order.as_deref_mut() {
                let run = absorb_run(&mut self.next_seq, ooo);
                ooo.drain(..run);
                if ooo.is_empty() {
                    self.out_of_order = None;
                }
            }
            return true;
        }
        let ooo = self.out_of_order.get_or_insert_with(Box::default);
        match ooo.binary_search(&seq) {
            Ok(_) => false,
            Err(pos) => {
                ooo.insert(pos, seq);
                true
            }
        }
    }

    /// The union of two digests: the larger watermark subsumes the smaller
    /// one, and the out-of-order lists are merged with one sort.
    fn union(self, other: OriginDigest) -> OriginDigest {
        let next_seq = self.next_seq.max(other.next_seq);
        let mut ooo = self.out_of_order.map_or_else(Vec::new, |b| *b);
        ooo.extend_from_slice(other.out_of_order());
        OriginDigest::from_parts(next_seq, ooo)
    }

    /// Number of distinct sequence numbers seen (saturating: a peer's
    /// digest may claim a watermark at the end of the range).
    pub fn seen_count(&self) -> u64 {
        self.next_seq
            .saturating_add(self.out_of_order().len() as u64)
    }

    /// Storage cost of the digest in entries (1 for the in-sequence
    /// watermark + one per out-of-order id) — the quantity the §3.2
    /// optimisation minimises.
    pub fn storage_entries(&self) -> usize {
        1 + self.out_of_order().len()
    }

    /// Sequence numbers `< bound` that have **not** been seen — the gaps a
    /// retransmission pull would request.
    pub fn missing_below(&self, bound: u64) -> Vec<u64> {
        (self.next_seq..bound)
            .filter(|&s| !self.contains(s))
            .collect()
    }

    /// Highest sequence number seen, or `None` if nothing was seen.
    pub fn max_seen(&self) -> Option<u64> {
        self.out_of_order()
            .last()
            .copied()
            .or_else(|| self.next_seq.checked_sub(1))
    }

    /// Sequence numbers seen here but not in `ours` (`None`: nothing seen),
    /// lazily: first the in-sequence gap above `ours`' watermark, then the
    /// out-of-order extras, each ascending.
    fn missing_in<'a>(&'a self, ours: Option<&'a OriginDigest>) -> impl Iterator<Item = u64> + 'a {
        let start = ours.map_or(0, |d| d.next_seq);
        let ours_ooo = ours.map_or(&[][..], OriginDigest::out_of_order);
        let gap = (start..self.next_seq).filter(move |s| ours_ooo.binary_search(s).is_err());
        let extras = self
            .out_of_order()
            .iter()
            .copied()
            .filter(move |&s| !ours.is_some_and(|d| d.contains(s)));
        gap.chain(extras)
    }
}

/// Advances `next_seq` over the leading run of `sorted` that continues
/// it; returns the length of that run. `u64::MAX` is never absorbed.
fn absorb_run(next_seq: &mut u64, sorted: &[u64]) -> usize {
    let mut run = 0;
    for &seq in sorted {
        if seq != *next_seq || seq == u64::MAX {
            break;
        }
        *next_seq += 1;
        run += 1;
    }
    run
}

/// Compact digest over all origins: the optimised `eventIds` representation
/// of §3.2.
///
/// # Example
///
/// ```
/// use lpbcast_types::{CompactDigest, EventId, ProcessId};
///
/// let p = ProcessId::new(1);
/// let mut d = CompactDigest::new();
/// assert!(d.insert(EventId::new(p, 0)));
/// assert!(d.insert(EventId::new(p, 2))); // out of order
/// assert!(!d.insert(EventId::new(p, 0))); // duplicate
/// assert!(d.contains(EventId::new(p, 2)));
/// assert_eq!(d.missing(), vec![EventId::new(p, 1)]);
/// // Seeing seq 1 closes the gap and compacts storage.
/// d.insert(EventId::new(p, 1));
/// assert_eq!(d.origin(p).unwrap().next_seq(), 3);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(Serialize, Deserialize))]
pub struct CompactDigest {
    /// Sorted by origin, each origin at most once.
    origins: Vec<(ProcessId, OriginDigest)>,
}

impl CompactDigest {
    /// Creates an empty digest.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a digest from per-origin entries in any order (wire
    /// decoding). Entries for the same origin are merged as
    /// [`set_origin`](Self::set_origin) would merge them. Ascending
    /// input is taken as is; anything else is sorted and merged once.
    pub fn from_origins(entries: impl IntoIterator<Item = (ProcessId, OriginDigest)>) -> Self {
        let mut origins: Vec<(ProcessId, OriginDigest)> = entries.into_iter().collect();
        if !origins.windows(2).all(|w| w[0].0 < w[1].0) {
            origins.sort_by_key(|(origin, _)| *origin);
            let mut merged: Vec<(ProcessId, OriginDigest)> = Vec::with_capacity(origins.len());
            for (origin, digest) in origins {
                match merged.last_mut() {
                    Some((last, slot)) if *last == origin => {
                        *slot = std::mem::take(slot).union(digest);
                    }
                    _ => merged.push((origin, digest)),
                }
            }
            origins = merged;
        }
        CompactDigest { origins }
    }

    fn find(&self, origin: ProcessId) -> Result<usize, usize> {
        self.origins.binary_search_by_key(&origin, |(p, _)| *p)
    }

    /// Whether the notification id has been seen.
    pub fn contains(&self, id: EventId) -> bool {
        self.origin(id.origin())
            .is_some_and(|d| d.contains(id.seq()))
    }

    /// Records a notification id; returns `true` if it was unseen.
    pub fn insert(&mut self, id: EventId) -> bool {
        let i = match self.find(id.origin()) {
            Ok(i) => i,
            Err(i) => {
                self.origins.insert(i, (id.origin(), OriginDigest::new()));
                i
            }
        };
        self.origins[i].1.insert(id.seq())
    }

    /// Installs a whole per-origin digest. Merges with any digest already
    /// present for `origin`.
    pub fn set_origin(&mut self, origin: ProcessId, digest: OriginDigest) {
        match self.find(origin) {
            Ok(i) => {
                let slot = &mut self.origins[i].1;
                *slot = std::mem::take(slot).union(digest);
            }
            Err(i) => self.origins.insert(i, (origin, digest)),
        }
    }

    /// The per-origin digest for `origin`, if any notification from it has
    /// been seen.
    pub fn origin(&self, origin: ProcessId) -> Option<&OriginDigest> {
        self.find(origin).ok().map(|i| &self.origins[i].1)
    }

    /// Iterates over `(origin, digest)` pairs in ascending origin order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (ProcessId, &OriginDigest)> {
        self.origins.iter().map(|(p, d)| (*p, d))
    }

    /// Number of origins tracked.
    pub fn origin_count(&self) -> usize {
        self.origins.len()
    }

    /// Total distinct notification ids seen (saturating).
    pub fn seen_count(&self) -> u64 {
        self.origins
            .iter()
            .fold(0u64, |acc, (_, d)| acc.saturating_add(d.seen_count()))
    }

    /// Total storage entries (the quantity bounded by the §3.2
    /// optimisation).
    pub fn storage_entries(&self) -> usize {
        self.origins.iter().map(|(_, d)| d.storage_entries()).sum()
    }

    /// Internal gaps: ids below each origin's highest seen sequence number
    /// that have not been seen. These are the ids a process would solicit
    /// via gossip pull after observing the digest of its own history.
    pub fn missing(&self) -> Vec<EventId> {
        let mut out = Vec::new();
        for (origin, d) in &self.origins {
            if let Some(max) = d.max_seen() {
                out.extend(
                    d.missing_below(max)
                        .into_iter()
                        .map(|s| EventId::new(*origin, s)),
                );
            }
        }
        out
    }

    /// Ids present in `other` but absent here — what this process should
    /// request from the sender of `other` (gossip pull, §2.3 footnote 5).
    ///
    /// Lazy, a merge-join over the two sorted origin arrays: ascending
    /// origin, then per origin the in-sequence gap before `other`'s
    /// out-of-order extras. A peer may advertise a watermark anywhere in
    /// the `u64` range, so callers that need only a few ids take them
    /// from the front instead of collecting.
    pub fn missing_relative_to<'a>(
        &'a self,
        other: &'a CompactDigest,
    ) -> impl Iterator<Item = EventId> + 'a {
        let mut ours = self.origins.iter().peekable();
        other.origins.iter().flat_map(move |(origin, theirs)| {
            while ours.next_if(|(p, _)| p < origin).is_some() {}
            let mine = ours
                .peek()
                .copied()
                .filter(|(p, _)| p == origin)
                .map(|(_, d)| d);
            theirs
                .missing_in(mine)
                .map(move |seq| EventId::new(*origin, seq))
        })
    }
}

impl Extend<EventId> for CompactDigest {
    fn extend<I: IntoIterator<Item = EventId>>(&mut self, iter: I) {
        for id in iter {
            self.insert(id);
        }
    }
}

impl FromIterator<EventId> for CompactDigest {
    fn from_iter<I: IntoIterator<Item = EventId>>(iter: I) -> Self {
        let mut d = CompactDigest::new();
        d.extend(iter);
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(p: u64) -> ProcessId {
        ProcessId::new(p)
    }

    fn eid(p: u64, s: u64) -> EventId {
        EventId::new(pid(p), s)
    }

    #[test]
    fn in_sequence_insertions_compact_to_watermark() {
        let mut d = OriginDigest::new();
        for s in 0..100 {
            assert!(d.insert(s));
        }
        assert_eq!(d.next_seq(), 100);
        assert_eq!(d.storage_entries(), 1, "fully compacted");
        assert_eq!(d.seen_count(), 100);
        assert!(d.out_of_order.is_none(), "no list allocated");
    }

    #[test]
    fn out_of_order_is_tracked_then_absorbed() {
        let mut d = OriginDigest::new();
        d.insert(2);
        d.insert(4);
        assert_eq!(d.next_seq(), 0);
        assert_eq!(d.storage_entries(), 3);
        d.insert(0);
        assert_eq!(d.next_seq(), 1);
        d.insert(1);
        // 1 closes the gap; 2 absorbed, next gap at 3.
        assert_eq!(d.next_seq(), 3);
        assert_eq!(d.missing_below(5), vec![3]);
        d.insert(3);
        assert_eq!(d.next_seq(), 5);
        assert_eq!(d.storage_entries(), 1);
        assert!(d.out_of_order.is_none(), "emptied list is released");
    }

    #[test]
    fn duplicate_insertions_report_false() {
        let mut d = OriginDigest::new();
        assert!(d.insert(5));
        assert!(!d.insert(5));
        d.insert(0);
        assert!(!d.insert(0));
    }

    #[test]
    fn max_seen_handles_all_shapes() {
        let mut d = OriginDigest::new();
        assert_eq!(d.max_seen(), None);
        d.insert(0);
        assert_eq!(d.max_seen(), Some(0));
        d.insert(9);
        assert_eq!(d.max_seen(), Some(9));
    }

    #[test]
    fn from_parts_canonicalises_any_input() {
        let d = OriginDigest::from_parts(3, [9, 1, 4, 3, 9, 6, 5]);
        assert_eq!(d.next_seq(), 7, "3..=6 continue the watermark");
        assert_eq!(d.out_of_order(), &[9]);
        assert_eq!(d, OriginDigest::from_parts(7, [9]));
        assert_eq!(
            OriginDigest::from_parts(4, [1, 2]),
            OriginDigest::from_parts(4, [])
        );
    }

    #[test]
    fn end_of_range_sequence_numbers_do_not_overflow() {
        let mut d = OriginDigest::from_parts(u64::MAX, [u64::MAX]);
        assert_eq!(d.next_seq(), u64::MAX);
        assert_eq!(d.out_of_order(), &[u64::MAX]);
        assert!(d.contains(u64::MAX) && d.contains(0));
        assert!(!d.insert(u64::MAX));
        assert_eq!(d.seen_count(), u64::MAX, "saturates");
        let mut e = OriginDigest::from_parts(u64::MAX - 1, []);
        assert!(e.insert(u64::MAX - 1));
        assert!(e.insert(u64::MAX));
        assert_eq!(e, d);
    }

    #[test]
    fn compact_digest_tracks_multiple_origins() {
        let mut d = CompactDigest::new();
        d.insert(eid(1, 0));
        d.insert(eid(2, 0));
        d.insert(eid(2, 1));
        assert_eq!(d.origin_count(), 2);
        assert_eq!(d.seen_count(), 3);
        assert!(d.contains(eid(2, 1)));
        assert!(!d.contains(eid(3, 0)));
    }

    #[test]
    fn origins_stay_sorted_whatever_the_insertion_order() {
        let d: CompactDigest = [eid(9, 0), eid(2, 0), eid(5, 1), eid(2, 1)]
            .into_iter()
            .collect();
        let origins: Vec<u64> = d.iter().map(|(p, _)| p.as_u64()).collect();
        assert_eq!(origins, vec![2, 5, 9]);
    }

    #[test]
    fn from_origins_merges_like_set_origin() {
        let entries = [
            (pid(4), OriginDigest::from_parts(2, [7])),
            (pid(1), OriginDigest::from_parts(0, [3])),
            (pid(4), OriginDigest::from_parts(5, [6, 9])),
        ];
        let mut expected = CompactDigest::new();
        for (origin, digest) in entries.clone() {
            expected.set_origin(origin, digest);
        }
        let built = CompactDigest::from_origins(entries);
        assert_eq!(built, expected);
        assert_eq!(built.origin(pid(4)).unwrap().out_of_order(), &[6, 7, 9]);
    }

    #[test]
    fn missing_reports_internal_gaps_only() {
        let mut d = CompactDigest::new();
        d.insert(eid(1, 0));
        d.insert(eid(1, 3));
        d.insert(eid(2, 0));
        assert_eq!(d.missing(), vec![eid(1, 1), eid(1, 2)]);
    }

    #[test]
    fn missing_relative_to_finds_what_to_pull() {
        let mut mine = CompactDigest::new();
        mine.extend([eid(1, 0), eid(1, 1), eid(2, 5)]);
        let mut theirs = CompactDigest::new();
        theirs.extend([eid(1, 0), eid(1, 1), eid(1, 2), eid(2, 5), eid(3, 0)]);
        let pull: Vec<EventId> = mine.missing_relative_to(&theirs).collect();
        assert_eq!(pull, vec![eid(1, 2), eid(3, 0)]);
        // We only saw (2,5) out of order; they saw the same. Nothing due.
        assert_eq!(theirs.missing_relative_to(&mine).next(), None);
    }

    #[test]
    fn missing_relative_to_handles_out_of_order_prefixes() {
        // We saw seq 1 out of order; their prefix covers 0..3 and they saw
        // 5 out of order. We must pull 0, 2 then 5, not 1.
        let mut mine = CompactDigest::new();
        mine.insert(eid(7, 1));
        let mut theirs = CompactDigest::new();
        theirs.extend([eid(7, 0), eid(7, 1), eid(7, 2), eid(7, 5)]);
        let pull: Vec<EventId> = mine.missing_relative_to(&theirs).collect();
        assert_eq!(pull, vec![eid(7, 0), eid(7, 2), eid(7, 5)]);
    }

    #[test]
    fn missing_relative_to_is_lazy_for_end_of_range_watermarks() {
        let mut theirs = CompactDigest::new();
        theirs.set_origin(pid(3), OriginDigest::from_parts(u64::MAX, []));
        let mine: CompactDigest = [eid(3, 0)].into_iter().collect();
        let first: Vec<EventId> = mine.missing_relative_to(&theirs).take(3).collect();
        assert_eq!(first, vec![eid(3, 1), eid(3, 2), eid(3, 3)]);
    }

    #[test]
    fn from_iterator_equals_incremental() {
        let ids = [eid(1, 2), eid(1, 0), eid(1, 1), eid(4, 0)];
        let collected: CompactDigest = ids.into_iter().collect();
        let mut incremental = CompactDigest::new();
        for id in ids {
            incremental.insert(id);
        }
        assert_eq!(collected, incremental);
    }
}
