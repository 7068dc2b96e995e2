//! Differential test: [`UnsubBuffer`] against the `BoundedSet<Unsubscription>`
//! it replaced as the `unSubs` buffer. Any divergence in item order or in
//! random draws would change every deterministic churn result, so the two
//! are pinned step by step.

use lpbcast_core::{LogicalTime, UnsubBuffer, UnsubDigest, Unsubscription};
use lpbcast_types::{BoundedSet, ProcessId};
use proptest::collection::vec;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};

#[derive(Debug, Clone)]
enum Op {
    /// Insert a batch of `(process, issued_at)` records, then truncate to
    /// the bound (the tail of Figure 1(a) phase 1).
    Receive(Vec<(u64, u64)>),
    /// Drop the records obsolete at `now` under `window` (§3.4).
    Expire { now: u64, window: u64 },
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        vec((0u64..96, 0u64..40), 0..24).prop_map(Op::Receive),
        (0u64..48, 0u64..12).prop_map(|(now, window)| Op::Expire { now, window }),
    ]
}

/// The expiry the set used to run: each obsolete record, in buffer order,
/// removed by its own lookup and swap-remove.
fn reference_expire(set: &mut BoundedSet<Unsubscription>, now: LogicalTime, window: u64) {
    let stale: Vec<Unsubscription> = set
        .iter()
        .filter(|u| u.is_obsolete(now, window))
        .copied()
        .collect();
    for u in &stale {
        set.remove(u);
    }
}

/// Full record contents (`Unsubscription` equality looks at the process
/// only).
fn contents(records: &[Unsubscription]) -> Vec<(ProcessId, LogicalTime)> {
    records
        .iter()
        .map(|u| (u.process(), u.issued_at()))
        .collect()
}

proptest! {
    /// Random insert / expire / truncate sequences under one seed give
    /// the same item order, the same flat and digested sections and the
    /// same RNG state afterwards.
    #[test]
    fn unsub_buffer_matches_bounded_set(
        ops in vec(op(), 1..40),
        max_len in 0usize..64,
        seed in any::<u64>(),
    ) {
        let mut reference = BoundedSet::new(max_len);
        let mut buffer = UnsubBuffer::new(max_len);
        let mut rng_ref = SmallRng::seed_from_u64(seed);
        let mut rng_buf = SmallRng::seed_from_u64(seed);
        for op in &ops {
            match op {
                Op::Receive(batch) => {
                    for &(p, t) in batch {
                        let u = Unsubscription::new(ProcessId::new(p), LogicalTime::new(t));
                        prop_assert_eq!(reference.insert(u), buffer.insert(u));
                    }
                    prop_assert_eq!(
                        reference.truncate_random_count(&mut rng_ref),
                        buffer.truncate_random_count(&mut rng_buf)
                    );
                }
                Op::Expire { now, window } => {
                    let now = LogicalTime::new(*now);
                    let before = reference.len();
                    reference_expire(&mut reference, now, *window);
                    prop_assert_eq!(before - reference.len(), buffer.expire(now, *window));
                }
            }
            let flat = reference.to_vec();
            prop_assert_eq!(contents(&flat), contents(&buffer.to_vec()));
            prop_assert_eq!(buffer.len(), flat.len());
            let expected = UnsubDigest::from_records(flat);
            let digest = buffer.digest();
            prop_assert_eq!(contents(expected.records()), contents(digest.records()));
            prop_assert_eq!(expected.groups(), digest.groups());
        }
        prop_assert_eq!(rng_ref.next_u64(), rng_buf.next_u64());
    }
}
