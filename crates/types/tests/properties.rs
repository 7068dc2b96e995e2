//! Property-based tests for the foundational buffers and digests.

use lpbcast_types::{BoundedSet, CompactDigest, EventId, OldestFirstBuffer, ProcessId};
use proptest::collection::vec;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::BTreeSet;

fn eid(p: u64, s: u64) -> EventId {
    EventId::new(ProcessId::new(p), s)
}

proptest! {
    /// After truncation a BoundedSet never exceeds its maximum size, never
    /// contains duplicates, and evicted ∪ kept equals the distinct inputs.
    #[test]
    fn bounded_set_invariants(
        items in vec(0u32..500, 0..200),
        max_len in 0usize..50,
        seed in any::<u64>(),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut set = BoundedSet::new(max_len);
        for &x in &items {
            set.insert(x);
        }
        let distinct: BTreeSet<u32> = items.iter().copied().collect();
        prop_assert_eq!(set.len(), distinct.len());

        let evicted = set.truncate_random(&mut rng);
        prop_assert!(set.len() <= max_len);
        let kept: BTreeSet<u32> = set.iter().copied().collect();
        let gone: BTreeSet<u32> = evicted.iter().copied().collect();
        prop_assert_eq!(kept.len(), set.len(), "no duplicates kept");
        prop_assert_eq!(gone.len(), evicted.len(), "no duplicates evicted");
        prop_assert!(kept.is_disjoint(&gone));
        let reunion: BTreeSet<u32> = kept.union(&gone).copied().collect();
        prop_assert_eq!(reunion, distinct);
    }

    /// Sampling k elements yields min(k, len) distinct members of the set.
    #[test]
    fn bounded_set_sample_is_distinct_subset(
        items in vec(0u32..200, 0..100),
        k in 0usize..150,
        seed in any::<u64>(),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut set = BoundedSet::new(usize::MAX);
        for &x in &items {
            set.insert(x);
        }
        let picked = set.sample(&mut rng, k);
        prop_assert_eq!(picked.len(), k.min(set.len()));
        let uniq: BTreeSet<u32> = picked.iter().copied().collect();
        prop_assert_eq!(uniq.len(), picked.len());
        prop_assert!(picked.iter().all(|x| set.contains(x)));
    }

    /// Interleaved inserts/removes keep the index consistent: contains()
    /// agrees with a model BTreeSet at every step.
    #[test]
    fn bounded_set_matches_model(
        ops in vec((any::<bool>(), 0u32..50), 0..300),
    ) {
        let mut set = BoundedSet::new(usize::MAX);
        let mut model = BTreeSet::new();
        for (is_insert, x) in ops {
            if is_insert {
                prop_assert_eq!(set.insert(x), model.insert(x));
            } else {
                prop_assert_eq!(set.remove(&x), model.remove(&x));
            }
            prop_assert_eq!(set.len(), model.len());
            prop_assert_eq!(set.contains(&x), model.contains(&x));
        }
        let mut have: Vec<u32> = set.iter().copied().collect();
        have.sort_unstable();
        let want: Vec<u32> = model.iter().copied().collect();
        prop_assert_eq!(have, want);
    }

    /// OldestFirstBuffer purges exactly the oldest distinct entries and
    /// never exceeds its bound after truncation.
    #[test]
    fn oldest_first_invariants(
        items in vec(0u32..100, 0..200),
        max_len in 0usize..40,
    ) {
        let mut buf = OldestFirstBuffer::new(max_len);
        let mut first_seen = Vec::new();
        let mut seen = BTreeSet::new();
        for &x in &items {
            if seen.insert(x) {
                first_seen.push(x);
            }
            buf.insert(x);
        }
        let purged = buf.truncate_oldest();
        prop_assert!(buf.len() <= max_len);
        let expected_purged: Vec<u32> = first_seen
            .iter()
            .copied()
            .take(first_seen.len().saturating_sub(max_len))
            .collect();
        prop_assert_eq!(purged, expected_purged);
        let expected_kept: Vec<u32> = first_seen
            .iter()
            .copied()
            .skip(first_seen.len().saturating_sub(max_len))
            .collect();
        prop_assert_eq!(buf.to_vec(), expected_kept);
    }

    /// CompactDigest::contains agrees with an explicit set of ids no matter
    /// the insertion order, and storage never exceeds what an explicit set
    /// would use.
    #[test]
    fn compact_digest_matches_explicit_set(
        raw in vec((0u64..5, 0u64..40), 0..200),
    ) {
        let ids: Vec<EventId> = raw.iter().map(|&(p, s)| eid(p, s)).collect();
        let mut digest = CompactDigest::new();
        let mut model: BTreeSet<EventId> = BTreeSet::new();
        for &id in &ids {
            prop_assert_eq!(digest.insert(id), model.insert(id));
        }
        prop_assert_eq!(digest.seen_count(), model.len() as u64);
        for p in 0..5u64 {
            for s in 0..41u64 {
                let id = eid(p, s);
                prop_assert_eq!(digest.contains(id), model.contains(&id));
            }
        }
        // The §3.2 optimisation: compact storage ≤ one entry per id + one
        // watermark per origin.
        prop_assert!(digest.storage_entries() <= model.len() + digest.origin_count());
    }

    /// missing_relative_to returns exactly the set difference other ∖ self.
    #[test]
    fn missing_relative_to_is_set_difference(
        mine_raw in vec((0u64..4, 0u64..20), 0..80),
        theirs_raw in vec((0u64..4, 0u64..20), 0..80),
    ) {
        let mine: CompactDigest = mine_raw.iter().map(|&(p, s)| eid(p, s)).collect();
        let theirs: CompactDigest = theirs_raw.iter().map(|&(p, s)| eid(p, s)).collect();
        let mine_set: BTreeSet<EventId> = mine_raw.iter().map(|&(p, s)| eid(p, s)).collect();
        let theirs_set: BTreeSet<EventId> = theirs_raw.iter().map(|&(p, s)| eid(p, s)).collect();

        let mut pull: Vec<EventId> = mine.missing_relative_to(&theirs).collect();
        pull.sort();
        let pull_set: BTreeSet<EventId> = pull.iter().copied().collect();
        prop_assert_eq!(pull_set.len(), pull.len(), "no duplicates");
        let expected: BTreeSet<EventId> =
            theirs_set.difference(&mine_set).copied().collect();
        prop_assert_eq!(pull_set, expected);
    }
}

proptest! {
    /// `EventId::sort_key` orders exactly like the derived lexicographic
    /// `Ord` — the simulator's batch recorder sorts by the key and relies
    /// on runs of equal ids being contiguous.
    #[test]
    fn event_id_sort_key_orders_like_ord(
        a in (any::<u64>(), any::<u64>()),
        b in (any::<u64>(), any::<u64>()),
    ) {
        let (x, y) = (eid(a.0, a.1), eid(b.0, b.1));
        prop_assert_eq!(x.cmp(&y), x.sort_key().cmp(&y.sort_key()));
        prop_assert_eq!(x == y, x.sort_key() == y.sort_key());
    }
}
