//! Deadline busy-spinning: turning modeled nanosecond costs into real
//! CPU occupancy.
//!
//! Each pipeline stage's cost model says "this stage costs N ns of CPU"
//! — the worker must actually *occupy its core* for that long, or the
//! wall-clock comparison between serialized (vanilla) and pipelined
//! (Falcon) execution would measure nothing. Spinning against a
//! monotonic-clock deadline (rather than a calibrated iteration count)
//! is robust to frequency scaling and preemption: a worker that gets
//! descheduled mid-stage simply finishes its stage later, exactly like
//! a real softirq losing its core.

use std::time::{Duration, Instant};

/// A shared epoch for cross-thread timestamps. `Instant` is a monotonic
/// clock, so nanosecond offsets from one copied epoch are comparable
/// across worker threads — the property the post-run ordering merge
/// relies on.
#[derive(Debug, Clone, Copy)]
pub struct Epoch(Instant);

impl Epoch {
    /// Starts the clock.
    pub fn start() -> Self {
        Epoch(Instant::now())
    }

    /// Nanoseconds since the epoch.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }

    /// Busy-spins until epoch time `deadline_ns` and returns the time of
    /// the read that found it passed (≥ `deadline_ns`). A deadline
    /// already in the past costs exactly one clock read, so the caller
    /// gets its boundary timestamp from the spin instead of reading the
    /// clock again.
    #[inline]
    pub fn spin_until(&self, deadline_ns: u64) -> u64 {
        loop {
            let now = self.now_ns();
            if now >= deadline_ns {
                return now;
            }
            // A few pause hints between clock reads keep the loop polite
            // to SMT siblings without losing deadline precision.
            for _ in 0..8 {
                std::hint::spin_loop();
            }
        }
    }
}

impl Default for Epoch {
    fn default() -> Self {
        Epoch::start()
    }
}

/// Busy-spins the calling thread for `ns` nanoseconds of wall time and
/// returns the actually-elapsed duration (≥ `ns`; more if preempted).
#[inline]
pub fn spin_for_ns(ns: u64) -> u64 {
    if ns == 0 {
        return 0;
    }
    Epoch::start().spin_until(ns)
}

/// Which tier an idle step landed in. Ordered by escalation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum IdleTier {
    /// Busy spin-hint: cheapest, keeps the core hot for an imminent
    /// arrival.
    Spin,
    /// `yield_now`: gives the scheduler a chance (essential when
    /// producers share this core).
    Yield,
    /// Short timed park: stops burning the core entirely when the ring
    /// mesh has been dry for a while.
    Park,
}

/// Tiered idle backoff for the worker sweep loop: a run of spin-hints,
/// then a run of yields, then short timed parks until work reappears.
///
/// A bare `yield_now` loop (the previous idle strategy) is the worst of
/// both worlds: on a dedicated core it burns full power making syscalls
/// for nothing, and on a shared core it thrashes the run queue. The
/// tiers mirror what real busy-poll NAPI drivers do — stay hot while an
/// arrival is plausibly imminent, get politer as the idle stretch
/// grows. `reset()` on any work snaps straight back to the hot tier.
#[derive(Debug)]
pub struct Backoff {
    step: u32,
}

impl Backoff {
    /// Idle steps spent in the spin-hint tier before yielding.
    const SPIN_STEPS: u32 = 64;
    /// Further idle steps spent yielding before parking.
    const YIELD_STEPS: u32 = 64;
    /// Park duration once fully backed off. Short enough that a
    /// post-park sweep catches new arrivals well inside the injector's
    /// patience, long enough to actually rest the core.
    const PARK: Duration = Duration::from_micros(50);

    /// A fresh backoff, starting at the hot tier.
    pub fn new() -> Self {
        Backoff { step: 0 }
    }

    /// Work was found: snap back to the hot tier.
    #[inline]
    pub fn reset(&mut self) {
        self.step = 0;
    }

    /// One idle step: waits according to the current tier, escalates,
    /// and reports which tier this step used.
    #[inline]
    pub fn idle(&mut self) -> IdleTier {
        let tier = if self.step < Self::SPIN_STEPS {
            for _ in 0..32 {
                std::hint::spin_loop();
            }
            IdleTier::Spin
        } else if self.step < Self::SPIN_STEPS + Self::YIELD_STEPS {
            std::thread::yield_now();
            IdleTier::Yield
        } else {
            std::thread::park_timeout(Self::PARK);
            IdleTier::Park
        };
        self.step = self.step.saturating_add(1);
        tier
    }
}

impl Default for Backoff {
    fn default() -> Self {
        Backoff::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spin_meets_its_deadline() {
        let spent = spin_for_ns(200_000);
        assert!(spent >= 200_000, "returned early: {spent}ns");
        // Not absurdly late either (schedulers permitting); allow 50x
        // slack for loaded CI machines.
        assert!(spent < 10_000_000, "suspiciously long spin: {spent}ns");
    }

    #[test]
    fn zero_is_free() {
        assert_eq!(spin_for_ns(0), 0);
    }

    #[test]
    fn backoff_escalates_and_resets() {
        let mut b = Backoff::new();
        assert_eq!(b.idle(), IdleTier::Spin);
        for _ in 0..Backoff::SPIN_STEPS {
            b.idle();
        }
        assert_eq!(b.idle(), IdleTier::Yield);
        for _ in 0..Backoff::YIELD_STEPS {
            b.idle();
        }
        assert_eq!(b.idle(), IdleTier::Park);
        assert_eq!(b.idle(), IdleTier::Park, "stays parked while idle");
        b.reset();
        assert_eq!(b.idle(), IdleTier::Spin, "work snaps back to hot tier");
    }

    #[test]
    fn spin_until_meets_its_deadline() {
        let e = Epoch::start();
        let deadline = e.now_ns() + 200_000;
        let done = e.spin_until(deadline);
        assert!(done >= deadline, "returned early: {done} < {deadline}");
        assert!(e.now_ns() >= done, "returned a time from the future");
    }

    #[test]
    fn spin_until_a_past_deadline_returns_now() {
        let e = Epoch::start();
        spin_for_ns(50_000);
        let before = e.now_ns();
        let done = e.spin_until(10_000);
        let after = e.now_ns();
        // No spin toward the stale deadline: the one read lands between
        // the reads around it.
        assert!(
            (before..=after).contains(&done),
            "{before} <= {done} <= {after}"
        );
    }

    #[test]
    fn epoch_is_monotonic() {
        let e = Epoch::start();
        let a = e.now_ns();
        spin_for_ns(10_000);
        let b = e.now_ns();
        assert!(b > a);
    }
}
