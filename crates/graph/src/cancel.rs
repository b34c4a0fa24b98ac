//! Cooperative cancellation for long-running audit jobs.
//!
//! Risk-group computation is NP-hard in general; the paper reports
//! audits taking from milliseconds to 17 hours depending on topology.
//! A continuously-serving daemon therefore needs every algorithm to be
//! *cancellable*: the scheduler hands each job a [`CancelToken`]
//! (optionally carrying a deadline) and the inner loops of the
//! minimal-RG and sampling engines and of Pr(T)'s diagram poll it at
//! bounded intervals, unwinding with [`Cancelled`] instead of burning a
//! worker thread.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a job stopped early.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Cancelled {
    /// [`CancelToken::cancel`] was called (client disconnect, shutdown).
    ByRequest,
    /// The token's deadline passed.
    DeadlineExceeded,
}

impl std::fmt::Display for Cancelled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Cancelled::ByRequest => write!(f, "job cancelled"),
            Cancelled::DeadlineExceeded => write!(f, "job deadline exceeded"),
        }
    }
}

impl std::error::Error for Cancelled {}

/// Shared cancellation flag with an optional deadline.
///
/// Clones share the same flag: cancelling any clone cancels them all.
/// The default token can never be cancelled, which lets one-shot CLI
/// paths reuse the cancellable entry points for free.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A token that only cancels via [`CancelToken::cancel`].
    pub fn new() -> Self {
        Self::default()
    }

    /// A token that additionally expires `timeout` from now.
    pub fn with_deadline(timeout: Duration) -> Self {
        CancelToken {
            flag: Arc::new(AtomicBool::new(false)),
            deadline: Instant::now().checked_add(timeout),
        }
    }

    /// Requests cancellation; all clones observe it.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// The reason this token is cancelled, if it is.
    pub fn state(&self) -> Option<Cancelled> {
        if self.flag.load(Ordering::Relaxed) {
            return Some(Cancelled::ByRequest);
        }
        match self.deadline {
            Some(d) if Instant::now() >= d => Some(Cancelled::DeadlineExceeded),
            _ => None,
        }
    }

    /// Errors with the cancellation reason, for `?` in job inner loops.
    ///
    /// # Errors
    ///
    /// Returns the [`Cancelled`] reason when the token has tripped.
    pub fn check(&self) -> Result<(), Cancelled> {
        match self.state() {
            Some(reason) => Err(reason),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_token_never_cancels() {
        let t = CancelToken::new();
        assert!(t.state().is_none());
        t.check().unwrap();
    }

    #[test]
    fn cancel_is_shared_across_clones() {
        let t = CancelToken::new();
        let u = t.clone();
        t.cancel();
        assert_eq!(u.state(), Some(Cancelled::ByRequest));
        assert_eq!(u.check().unwrap_err(), Cancelled::ByRequest);
    }

    #[test]
    fn deadline_trips() {
        let t = CancelToken::with_deadline(Duration::ZERO);
        assert_eq!(t.state(), Some(Cancelled::DeadlineExceeded));
        // Explicit cancel wins over the deadline in reporting.
        t.cancel();
        assert_eq!(t.state(), Some(Cancelled::ByRequest));
    }

    #[test]
    fn future_deadline_does_not_trip() {
        let t = CancelToken::with_deadline(Duration::from_secs(3600));
        assert!(t.state().is_none());
    }
}
