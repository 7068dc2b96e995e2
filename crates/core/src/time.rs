//! Logical time: per-process tick counters.

use core::fmt;

/// A per-process logical clock value, counted in gossip periods (the
/// paper's `T`).
///
/// The analysis (§4.1) assumes synchronous rounds, and the simulator makes
/// every process's clock identical. The UDP runtime advances each node's
/// clock on its own (non-synchronized) gossip timer — the paper's actual
/// deployment model (§3.2: *"non-synchronized periodical gossips"*).
/// Unsubscription timestamps (§3.4) are expressed in this clock. Receiving
/// an unsubscription section advances the clock to the section's newest
/// timestamp, as a Lamport clock does, so a process that joined late (and
/// started counting at zero) judges obsolescence on the same scale as the
/// bootstrap members; without unsubscriptions the clock only moves by
/// ticks. On the UDP runtime the remaining skew between free-running
/// timers must still be absorbed by the obsolescence window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LogicalTime(u64);

impl LogicalTime {
    /// Time zero (process start).
    pub const ZERO: LogicalTime = LogicalTime(0);

    /// Creates a logical time from a raw tick count.
    pub const fn new(ticks: u64) -> Self {
        LogicalTime(ticks)
    }

    /// The raw tick count.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Advances by one tick, saturating at `u64::MAX`: a clock that a
    /// hostile timestamp fast-forwarded to the end of the range stays
    /// there instead of wrapping or panicking.
    #[must_use]
    pub const fn next(self) -> LogicalTime {
        LogicalTime(self.0.saturating_add(1))
    }

    /// Ticks elapsed since `earlier` (saturating: clock skew between
    /// processes can make `earlier` appear to be in the future).
    pub const fn since(self, earlier: LogicalTime) -> u64 {
        self.0.saturating_sub(earlier.0)
    }
}

impl fmt::Display for LogicalTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

impl From<u64> for LogicalTime {
    fn from(raw: u64) -> Self {
        LogicalTime(raw)
    }
}

impl From<LogicalTime> for u64 {
    fn from(t: LogicalTime) -> Self {
        t.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ticks_advance_monotonically() {
        let t = LogicalTime::ZERO;
        assert_eq!(t.next().as_u64(), 1);
        assert!(t < t.next());
    }

    #[test]
    fn next_saturates_at_the_end_of_the_range() {
        let end = LogicalTime::new(u64::MAX);
        assert_eq!(end.next(), end);
    }

    #[test]
    fn since_saturates_on_skew() {
        let early = LogicalTime::new(5);
        let late = LogicalTime::new(9);
        assert_eq!(late.since(early), 4);
        assert_eq!(early.since(late), 0, "future timestamps read as age 0");
    }
}
