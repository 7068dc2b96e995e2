//! Unsubscriptions: timestamped leave records (§3.4).
//!
//! *"To avoid the situation where unsubscriptions remain in the system
//! forever (since unSubs is not purged), there is a timestamp attached to
//! every unsubscription. After a certain time, the unsubscription becomes
//! obsolete."*

use core::fmt;

use lpbcast_types::ProcessId;
use rand::Rng;

use crate::time::LogicalTime;

/// A record that `process` has left the system, stamped with the leaving
/// process's logical clock.
///
/// Identity (equality/hash) is by process only: the `unSubs` buffer keeps
/// at most one record per process, and a second record for a process it
/// already holds leaves the buffer unchanged (§3.2).
///
/// Clock rule: a process that receives a non-empty unsubscription section
/// first advances its clock to the newest `issued_at` in it, as a Lamport
/// clock does, and only then judges obsolescence. Every process therefore
/// ages a record on the same scale, including one that joined late and
/// started its clock at zero. Timestamps are not authenticated: a lying
/// sender can fast-forward its receivers' clocks (up to `u64::MAX`, where
/// the clock saturates), which makes every honest record look obsolete.
/// Defending against that belongs with the Byzantine tier, not here.
#[derive(Debug, Clone, Copy)]
pub struct Unsubscription {
    process: ProcessId,
    issued_at: LogicalTime,
}

impl Unsubscription {
    /// Creates an unsubscription for `process` issued at `issued_at`.
    pub const fn new(process: ProcessId, issued_at: LogicalTime) -> Self {
        Unsubscription { process, issued_at }
    }

    /// The process that unsubscribed.
    pub const fn process(&self) -> ProcessId {
        self.process
    }

    /// When the unsubscription was issued (issuer's logical clock).
    pub const fn issued_at(&self) -> LogicalTime {
        self.issued_at
    }

    /// Whether this record is obsolete at local time `now` given the
    /// configured obsolescence window (in ticks). Obsolete records are
    /// neither applied nor forwarded.
    pub const fn is_obsolete(&self, now: LogicalTime, window: u64) -> bool {
        now.since(self.issued_at) > window
    }
}

impl PartialEq for Unsubscription {
    fn eq(&self, other: &Self) -> bool {
        self.process == other.process
    }
}

impl Eq for Unsubscription {}

impl core::hash::Hash for Unsubscription {
    fn hash<H: core::hash::Hasher>(&self, state: &mut H) {
        self.process.hash(state);
    }
}

impl fmt::Display for Unsubscription {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unsub({} @ {})", self.process, self.issued_at)
    }
}

/// Unsubscription records aggregated by issue timestamp — the wire-cost
/// compaction of the `unSubs` gossip section.
///
/// §3.4 documents that unsubscription sections grow with the leave rate:
/// every membership gossip carries the whole live `unSubs` buffer, at 16
/// bytes per record on the wire. Under sustained churn the records
/// cluster on a handful of recent logical timestamps (every process that
/// left in round *t* stamped its record *t*), so grouping by timestamp
/// stores each `issued_at` once and the member list as bare process ids —
/// ~8 bytes per record plus a few bytes per distinct timestamp.
///
/// The digest is a pure *wire* compaction: [`iter`](UnsubDigest::iter)
/// yields the records in their **original order**, so a process handling
/// a digested section behaves bit-identically to one handling the flat
/// list (the churn-scenario A/B test pins that equivalence end-to-end —
/// even the incidental order of view removals is preserved, which
/// index-based random target selection is sensitive to). Only the wire
/// form ([`groups`](UnsubDigest::groups), built once at construction) is
/// canonical: groups sorted by timestamp, ids sorted within each group.
///
/// Scope of the bit-identity claim: it covers in-memory delivery (the
/// simulator and every deterministic harness). Wire *decoding*
/// reconstructs records in canonical group order — the original
/// sender-side order is not carried — so on the UDP runtime a digested
/// section is processed in a different order than a flat one. The
/// record set, obsolescence checks and purge outcomes are identical
/// either way; only incidental processing order differs, and the UDP
/// path has no run-level determinism for it to perturb (real timers and
/// sockets already reorder everything).
#[derive(Debug, Clone, Default)]
pub struct UnsubDigest {
    /// The aggregated records, original order (the iteration source).
    records: Vec<Unsubscription>,
    /// `(issued_at, leavers)` wire groups, sorted by timestamp with ids
    /// sorted within each group; built once at construction.
    groups: Vec<(LogicalTime, Vec<ProcessId>)>,
}

/// Builds the canonical per-timestamp groups of `records`.
fn canonical_groups(records: &[Unsubscription]) -> Vec<(LogicalTime, Vec<ProcessId>)> {
    let mut sorted: Vec<(LogicalTime, ProcessId)> = records
        .iter()
        .map(|u| (u.issued_at(), u.process()))
        .collect();
    sorted.sort_unstable();
    sorted.dedup();
    let mut groups: Vec<(LogicalTime, Vec<ProcessId>)> = Vec::new();
    for (t, p) in sorted {
        match groups.last_mut() {
            Some((gt, ids)) if *gt == t => ids.push(p),
            _ => groups.push((t, vec![p])),
        }
    }
    groups
}

impl UnsubDigest {
    /// An empty digest.
    pub fn new() -> Self {
        Self::default()
    }

    /// Aggregates `records`, preserving their order for iteration and
    /// precomputing the canonical wire groups.
    pub fn from_records<I>(records: I) -> Self
    where
        I: IntoIterator<Item = Unsubscription>,
    {
        let records: Vec<Unsubscription> = records.into_iter().collect();
        let groups = canonical_groups(&records);
        UnsubDigest { records, groups }
    }

    /// Rebuilds a group from its wire parts (wire decoding). The decoded
    /// records materialise in group order — over the wire the original
    /// sender-side order is not carried.
    pub fn push_group(&mut self, issued_at: LogicalTime, mut processes: Vec<ProcessId>) {
        processes.sort_unstable();
        processes.dedup();
        if processes.is_empty() {
            return;
        }
        self.records
            .extend(processes.iter().map(|&p| Unsubscription::new(p, issued_at)));
        // Sorted insertion: encoder-produced groups arrive ascending, so
        // the common case appends in O(1); only hostile out-of-order
        // input pays the memmove (never a whole-vector re-sort per call).
        let pos = self.groups.partition_point(|(t, _)| *t <= issued_at);
        self.groups.insert(pos, (issued_at, processes));
    }

    /// The aggregated records in original (sender buffer) order — the
    /// slice [`iter`](UnsubDigest::iter) walks.
    pub fn records(&self) -> &[Unsubscription] {
        &self.records
    }

    /// The `(issued_at, leavers)` wire groups, ascending by timestamp.
    pub fn groups(&self) -> &[(LogicalTime, Vec<ProcessId>)] {
        &self.groups
    }

    /// Number of distinct timestamps on the wire.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Total unsubscription records carried.
    pub fn record_count(&self) -> usize {
        self.records.len()
    }

    /// Whether the digest holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Yields every record in original (sender buffer) order.
    pub fn iter(&self) -> impl Iterator<Item = Unsubscription> + '_ {
        self.records.iter().copied()
    }
}

/// Equality is by the canonical wire form: two digests are equal when
/// they carry the same record set, regardless of iteration order.
impl PartialEq for UnsubDigest {
    fn eq(&self, other: &Self) -> bool {
        self.groups == other.groups
    }
}

impl Eq for UnsubDigest {}

/// The `unSubs` buffer (§3.2): at most one record per process, a maximum
/// size with random truncation, and expiry of obsolete records (§3.4).
///
/// It behaves exactly like a `BoundedSet<Unsubscription>`: the same item
/// order under insertion, random truncation and expiry, and the same
/// random draws, so swapping it in changes no deterministic output. In
/// place of that set's hash index it keeps a pid-sorted side index over
/// the insertion-ordered records. Membership is a binary search, and the
/// canonical wire groups of an [`UnsubDigest`] come out of one pass over
/// the index (ids arrive sorted; only the few distinct timestamps are
/// kept in order) instead of a sort of every record per gossip.
#[derive(Debug, Clone)]
pub struct UnsubBuffer {
    /// The records in `BoundedSet` order: appended on insert, removed by
    /// swap-remove. Gossip sections iterate this order.
    records: Vec<Unsubscription>,
    /// `(process, issued_at)` of every record, ascending by process.
    by_pid: Vec<(ProcessId, LogicalTime)>,
    max_len: usize,
}

impl UnsubBuffer {
    /// Creates an empty buffer with maximum size `max_len` (`|unSubs|m`).
    pub fn new(max_len: usize) -> Self {
        UnsubBuffer {
            records: Vec::new(),
            by_pid: Vec::new(),
            max_len,
        }
    }

    /// Number of records held.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the buffer holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Where `process` sits in the pid index, or where it would go.
    fn find(&self, process: ProcessId) -> Result<usize, usize> {
        self.by_pid.binary_search_by_key(&process, |&(p, _)| p)
    }

    /// Inserts `unsub`; returns `true` if no record for its process was
    /// held. A record for a held process leaves the buffer unchanged.
    pub fn insert(&mut self, unsub: Unsubscription) -> bool {
        let Err(at) = self.find(unsub.process()) else {
            return false;
        };
        self.by_pid.insert(at, (unsub.process(), unsub.issued_at()));
        self.records.push(unsub);
        true
    }

    /// Removes uniformly random records until the buffer respects its
    /// maximum size; returns how many were removed. Draws from `rng`
    /// exactly as `BoundedSet::truncate_random_count` does.
    pub fn truncate_random_count<R: Rng + ?Sized>(&mut self, rng: &mut R) -> usize {
        let mut evicted = 0;
        while self.records.len() > self.max_len {
            let pos = rng.gen_range(0..self.records.len());
            let unsub = self.records.swap_remove(pos);
            if let Ok(at) = self.find(unsub.process()) {
                self.by_pid.remove(at);
            }
            evicted += 1;
        }
        evicted
    }

    /// Drops every record obsolete at `now` under `window` (§3.4);
    /// returns how many were dropped.
    ///
    /// The records leave as a `BoundedSet` filter would remove them: one
    /// at a time in their original order, each by swap-remove. One pass
    /// replays that with a position table instead of a lookup per record.
    pub fn expire(&mut self, now: LogicalTime, window: u64) -> usize {
        let doomed: Vec<usize> = (0..self.records.len())
            .filter(|&i| self.records[i].is_obsolete(now, window))
            .collect();
        if doomed.is_empty() {
            return 0;
        }
        self.by_pid.retain(|&(_, t)| now.since(t) <= window);
        // `at[p]`: original index of the record now at position `p`;
        // `pos[i]`: current position of the record originally at `i`.
        let mut at: Vec<usize> = (0..self.records.len()).collect();
        let mut pos = at.clone();
        for &i in &doomed {
            let p = pos[i];
            let last = self.records.len() - 1;
            self.records.swap_remove(p);
            if p < last {
                at[p] = at[last];
                pos[at[p]] = p;
            }
        }
        doomed.len()
    }

    /// The records in buffer order (a flat gossip section).
    pub fn to_vec(&self) -> Vec<Unsubscription> {
        self.records.clone()
    }

    /// The records as a digested gossip section: buffer order for
    /// iteration, canonical wire groups built from the pid index.
    pub fn digest(&self) -> UnsubDigest {
        let mut groups: Vec<(LogicalTime, Vec<ProcessId>)> = Vec::new();
        for &(p, t) in &self.by_pid {
            match groups.binary_search_by_key(&t, |(gt, _)| *gt) {
                Ok(g) => groups[g].1.push(p),
                Err(g) => groups.insert(g, (t, vec![p])),
            }
        }
        let records = self.records.clone();
        debug_assert!(groups == canonical_groups(&records));
        UnsubDigest { records, groups }
    }
}

/// Error returned when a process's own unsubscription is refused.
///
/// §3.4: *"the unsubscription of any process is refused as long as the
/// local unsubscription buffer of the process exceeds a given size. This
/// increases the probability for a process to be successfully removed from
/// the system."* (A full buffer would risk the process's own record being
/// truncated away before ever being gossiped.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnsubscribeRefused {
    /// Current occupancy of the local `unSubs` buffer.
    pub buffered: usize,
    /// The configured refusal threshold that was exceeded.
    pub threshold: usize,
}

impl fmt::Display for UnsubscribeRefused {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unsubscription refused: unSubs buffer holds {} entries (threshold {})",
            self.buffered, self.threshold
        )
    }
}

impl std::error::Error for UnsubscribeRefused {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn pid(p: u64) -> ProcessId {
        ProcessId::new(p)
    }

    #[test]
    fn obsolescence_window() {
        let u = Unsubscription::new(pid(1), LogicalTime::new(10));
        assert!(!u.is_obsolete(LogicalTime::new(10), 5));
        assert!(!u.is_obsolete(LogicalTime::new(15), 5));
        assert!(u.is_obsolete(LogicalTime::new(16), 5));
        // Clock skew: issued "in the future" is never obsolete.
        assert!(!u.is_obsolete(LogicalTime::new(3), 5));
    }

    #[test]
    fn identity_is_by_process() {
        let a = Unsubscription::new(pid(1), LogicalTime::new(1));
        let b = Unsubscription::new(pid(1), LogicalTime::new(99));
        let c = Unsubscription::new(pid(2), LogicalTime::new(1));
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut set = HashSet::new();
        set.insert(a);
        assert!(!set.insert(b), "same process deduplicates");
        assert!(set.insert(c));
    }

    #[test]
    fn unsub_digest_is_canonical_and_lossless() {
        let records = [
            Unsubscription::new(pid(9), LogicalTime::new(3)),
            Unsubscription::new(pid(1), LogicalTime::new(7)),
            Unsubscription::new(pid(4), LogicalTime::new(3)),
            Unsubscription::new(pid(2), LogicalTime::new(7)),
        ];
        let digest = UnsubDigest::from_records(records);
        assert_eq!(digest.group_count(), 2, "two distinct timestamps");
        assert_eq!(digest.record_count(), 4);
        assert_eq!(
            digest.groups()[0],
            (LogicalTime::new(3), vec![pid(4), pid(9)]),
            "wire groups ascend by time, ids sorted within"
        );
        // Lossless AND order-preserving: iteration yields the records
        // exactly as given (a digested section must be behaviourally
        // indistinguishable from the flat list on the receive path).
        let out: Vec<Unsubscription> = digest.iter().collect();
        assert_eq!(out, records.to_vec());
        assert_eq!(
            out.iter().map(|u| u.issued_at()).collect::<Vec<_>>(),
            vec![
                LogicalTime::new(3),
                LogicalTime::new(7),
                LogicalTime::new(3),
                LogicalTime::new(7),
            ],
            "original interleaving preserved"
        );
        // Canonical wire form: any input order yields an equal digest.
        let mut reversed = records;
        reversed.reverse();
        assert_eq!(digest, UnsubDigest::from_records(reversed));
    }

    #[test]
    fn unsub_digest_push_group_canonicalises() {
        let mut digest = UnsubDigest::new();
        digest.push_group(LogicalTime::new(9), vec![pid(3), pid(1), pid(3)]);
        digest.push_group(LogicalTime::new(2), vec![pid(5)]);
        digest.push_group(LogicalTime::new(4), vec![]);
        assert_eq!(digest.group_count(), 2, "empty group dropped");
        assert_eq!(digest.groups()[0].0, LogicalTime::new(2));
        assert_eq!(
            digest.groups()[1].1,
            vec![pid(1), pid(3)],
            "sorted, deduped"
        );
        assert_eq!(digest.record_count(), 3);
        assert!(!digest.is_empty());
        assert!(UnsubDigest::new().is_empty());
    }

    #[test]
    fn refusal_error_is_descriptive() {
        let err = UnsubscribeRefused {
            buffered: 12,
            threshold: 8,
        };
        let text = err.to_string();
        assert!(text.contains("12") && text.contains('8'));
    }
}
