//! Cooperative run cancellation.
//!
//! A [`CancelToken`] is a shared flag a controller raises to ask a running
//! executor to stop at the next safe point. Cancellation is *cooperative*:
//! backends poll the token between work units (the simulator between events,
//! the pool in every scheduling quantum), wind down exactly like an event-cap abort, and report
//! [`crate::exec::ExecStatus::Cancelled`] with the partial node states and
//! metrics accumulated so far. Nothing is killed mid-handler, so the
//! snapshot a cancelled run returns is always internally consistent.
//!
//! The token is the control half of the `scenario serve` early-abort policy:
//! a watchdog observing streamed progress raises it when a run blows its
//! predicted budget, turning telemetry into control without any backend
//! learning about budgets or wall clocks.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A shared, clonable cancellation flag. All clones observe the same state;
/// once raised it never resets. The default token is inert (never raised
/// unless some clone calls [`CancelToken::cancel`]).
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, unraised token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Raises the flag. Idempotent; every clone observes it.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    /// Whether some clone has raised the flag.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_one_flag() {
        let token = CancelToken::new();
        let other = token.clone();
        assert!(!token.is_cancelled());
        assert!(!other.is_cancelled());
        other.cancel();
        assert!(token.is_cancelled());
        other.cancel(); // idempotent
        assert!(other.is_cancelled());
    }

    #[test]
    fn default_token_is_inert() {
        assert!(!CancelToken::default().is_cancelled());
    }
}
