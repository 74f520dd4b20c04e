//! Cooperative cancellation for long-running builds and selections.
//!
//! Building the neighbourhood graph of a large workload (the dual-tree
//! range self-join plus sharded CSR assembly) can take hundreds of
//! milliseconds to minutes, and a greedy selection sweep over a dense
//! graph is not instant either; a serving process must be able to
//! abandon either cleanly — on shutdown, on a request deadline, on
//! operator interrupt — without poisoning shared state. [`CancelToken`]
//! is the cooperative primitive the work loops poll: the graph build
//! (the M-tree self-join's `SelfJoinConfig::cancel`, the CSR assembly
//! and `build_sharded_with`) and every `*_checked` selection runner in
//! `disc-core` take one, which is how the `disc serve` worker pool
//! enforces per-request deadlines.
//!
//! * cancellation is **explicit** ([`CancelToken::cancel`]) or
//!   **deadline-driven** ([`CancelToken::with_deadline`]);
//! * the deterministic [`CancelToken::with_check_budget`] constructor
//!   trips after a fixed number of checkpoints — the fault-injection
//!   hook tests use to cancel mid-build reproducibly;
//! * a checkpoint is one relaxed atomic load (plus a clock read only
//!   when a deadline is armed), cheap enough to poll per work item;
//! * cancelled work returns [`Cancelled`] as a typed error. Counters
//!   stay exact — callers charge the work actually performed before
//!   surfacing the error — and no partially built output escapes.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Typed error returned by cancellable operations that were abandoned at
/// a checkpoint before completing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cancelled;

impl fmt::Display for Cancelled {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("operation cancelled before completion")
    }
}

impl std::error::Error for Cancelled {}

#[derive(Debug)]
struct Inner {
    cancelled: AtomicBool,
    /// Wall-clock deadline; checked lazily at checkpoints.
    deadline: Option<Instant>,
    /// Remaining checkpoint budget; `u64::MAX` means unlimited. Each
    /// [`CancelToken::checkpoint`] call consumes one unit, so a token
    /// built with `with_check_budget(k)` trips at the `k`-th checkpoint
    /// deterministically regardless of wall-clock speed.
    budget: Option<AtomicU64>,
}

/// A cloneable, thread-safe cancellation handle.
///
/// Clones share state: cancelling any clone cancels them all. Work loops
/// call [`CancelToken::checkpoint`] at item granularity and propagate the
/// resulting [`Cancelled`] error outward.
#[derive(Clone, Debug)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl Default for CancelToken {
    fn default() -> Self {
        Self::new()
    }
}

impl CancelToken {
    /// A token that only cancels when [`CancelToken::cancel`] is called.
    pub fn new() -> Self {
        Self::build(None, None)
    }

    /// A token that cancels once `timeout` has elapsed (checked lazily at
    /// checkpoints; work never runs longer than one work item past the
    /// deadline).
    pub fn with_deadline(timeout: Duration) -> Self {
        Self::build(Instant::now().checked_add(timeout), None)
    }

    /// A token that cancels at the `checks`-th [`CancelToken::checkpoint`]
    /// call. Deterministic — the test hook for cancelling mid-build at a
    /// reproducible point independent of machine speed.
    pub fn with_check_budget(checks: u64) -> Self {
        Self::build(None, Some(checks))
    }

    fn build(deadline: Option<Instant>, budget: Option<u64>) -> Self {
        Self {
            inner: Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                deadline,
                budget: budget.map(AtomicU64::new),
            }),
        }
    }

    /// Requests cancellation; every clone observes it at its next
    /// checkpoint.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Relaxed);
    }

    /// Whether the token has been cancelled or its deadline has passed.
    /// Does not consume check budget.
    pub fn is_cancelled(&self) -> bool {
        if self.inner.cancelled.load(Ordering::Relaxed) {
            return true;
        }
        match self.inner.deadline {
            Some(d) if Instant::now() >= d => {
                self.inner.cancelled.store(true, Ordering::Relaxed);
                true
            }
            _ => false,
        }
    }

    /// Polls the token from inside a work loop: consumes one unit of
    /// check budget and returns `Err(Cancelled)` if the token is
    /// cancelled, past its deadline, or out of budget.
    #[inline]
    pub fn checkpoint(&self) -> Result<(), Cancelled> {
        if let Some(budget) = &self.inner.budget {
            // Saturating decrement: stay at zero once exhausted.
            let prev = budget
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |b| b.checked_sub(1))
                .unwrap_or(0);
            if prev <= 1 {
                self.inner.cancelled.store(true, Ordering::Relaxed);
            }
        }
        if self.is_cancelled() {
            Err(Cancelled)
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_token_is_live() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        assert_eq!(t.checkpoint(), Ok(()));
    }

    #[test]
    fn explicit_cancel_is_seen_by_clones() {
        let t = CancelToken::new();
        let c = t.clone();
        t.cancel();
        assert!(c.is_cancelled());
        assert_eq!(c.checkpoint(), Err(Cancelled));
    }

    #[test]
    fn zero_deadline_cancels_immediately() {
        let t = CancelToken::with_deadline(Duration::ZERO);
        assert!(t.is_cancelled());
        assert_eq!(t.checkpoint(), Err(Cancelled));
    }

    #[test]
    fn long_deadline_stays_live() {
        let t = CancelToken::with_deadline(Duration::from_secs(3600));
        assert_eq!(t.checkpoint(), Ok(()));
    }

    #[test]
    fn check_budget_trips_at_exact_count() {
        let t = CancelToken::with_check_budget(3);
        assert_eq!(t.checkpoint(), Ok(()));
        assert_eq!(t.checkpoint(), Ok(()));
        assert_eq!(t.checkpoint(), Err(Cancelled));
        // Stays cancelled; no underflow.
        assert_eq!(t.checkpoint(), Err(Cancelled));
    }

    #[test]
    fn zero_budget_trips_on_first_check() {
        let t = CancelToken::with_check_budget(0);
        assert_eq!(t.checkpoint(), Err(Cancelled));
    }

    #[test]
    fn cancelled_error_displays() {
        let msg = Cancelled.to_string();
        assert!(msg.contains("cancelled"));
    }
}
