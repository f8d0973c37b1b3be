//! Execution budgets and cooperative cancellation for the save pipeline.
//!
//! Saving an outlier is a search whose worst case is exponential (the
//! unrestricted Algorithm 1 visits `O(2^m)` attribute sets; the exact
//! saver enumerates `O(d^m)` value combinations). Robust-to-noise systems
//! budget such work and *degrade* rather than fail: a [`Budget`] carried by
//! `DiscSaver`/`ExactSaver` bounds a whole `save_all` run by a wall-clock
//! [`Budget::deadline`]. Each saver also bounds its own per-outlier
//! search: Algorithm 1 by its node budget, the exact saver by its
//! combination limit.
//!
//! Enforcement is cooperative. The pipeline materializes the deadline into
//! a shared [`CancelToken`]; the per-outlier search loops poll it every few
//! hundred steps and bail out with [`Cancelled`]. The pipeline then reports
//! the remaining outliers as `skipped` and flags the [`SaveReport`] as
//! `degraded` — partial, well-reported results instead of a run that never
//! returns. Adjustments are only ever applied for saves that *completed*,
//! so a cancelled run never leaves torn writes.
//!
//! [`SaveReport`]: crate::pipeline::SaveReport

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Process-wide default deadline in milliseconds, settable by binaries
/// (the `repro` harness exposes it as `--deadline-ms`). `0` means "no
/// deadline".
static GLOBAL_DEADLINE_MS: AtomicU64 = AtomicU64::new(0);

/// Sets the deadline [`Budget::auto`] resolves to, in milliseconds. Pass
/// `0` to clear the override.
pub fn set_global_deadline_ms(ms: u64) {
    GLOBAL_DEADLINE_MS.store(ms, Ordering::Relaxed);
}

/// The current global deadline override, if any.
pub fn global_deadline() -> Option<Duration> {
    match GLOBAL_DEADLINE_MS.load(Ordering::Relaxed) {
        0 => None,
        ms => Some(Duration::from_millis(ms)),
    }
}

/// Resource limits for one `save_all` run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Budget {
    /// Wall-clock limit for the whole save phase, measured from the start
    /// of `save_all`. On expiry, in-flight saves are cancelled and
    /// untried outliers are reported as skipped.
    pub deadline: Option<Duration>,
}

impl Budget {
    /// No limits: the pipeline behaves exactly as if no budget existed.
    pub fn unlimited() -> Self {
        Budget::default()
    }

    /// The default: the process-wide deadline override if one was set
    /// (see [`set_global_deadline_ms`]), else unlimited.
    pub fn auto() -> Self {
        Budget {
            deadline: global_deadline(),
        }
    }

    /// Sets the wall-clock deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// True when no limit is configured.
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none()
    }

    /// A token enforcing this budget's deadline from now on, shared by
    /// every worker of one pipeline run.
    pub fn start(&self) -> CancelToken {
        match self.deadline {
            Some(d) => CancelToken::with_deadline(Instant::now() + d),
            None => CancelToken::unlimited(),
        }
    }
}

/// The unit error of a cancelled save: the search was interrupted before
/// completing, so there is no trustworthy per-outlier answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cancelled;

impl std::fmt::Display for Cancelled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("save cancelled by budget")
    }
}

impl std::error::Error for Cancelled {}

struct TokenInner {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
}

/// A shared cooperative cancellation flag with an optional deadline.
///
/// Cloning is cheap (an `Arc` bump); clones observe the same flag. The
/// flag latches: once [`CancelToken::is_cancelled`] has returned `true`
/// (whether by [`CancelToken::cancel`] or by the deadline passing), every
/// later call returns `true` without consulting the clock again.
#[derive(Clone)]
pub struct CancelToken {
    inner: Arc<TokenInner>,
}

impl CancelToken {
    /// A token that never cancels on its own (but can still be cancelled
    /// explicitly).
    pub fn unlimited() -> Self {
        CancelToken {
            inner: Arc::new(TokenInner {
                cancelled: AtomicBool::new(false),
                deadline: None,
            }),
        }
    }

    /// A token that cancels once `deadline` passes.
    pub fn with_deadline(deadline: Instant) -> Self {
        CancelToken {
            inner: Arc::new(TokenInner {
                cancelled: AtomicBool::new(false),
                deadline: Some(deadline),
            }),
        }
    }

    /// Requests cancellation explicitly.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Relaxed);
    }

    /// True once cancellation was requested or the deadline passed.
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
}

impl std::fmt::Debug for CancelToken {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CancelToken")
            .field("cancelled", &self.inner.cancelled.load(Ordering::Relaxed))
            .field("deadline", &self.inner.deadline)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_token_never_cancels_by_itself() {
        let t = CancelToken::unlimited();
        assert!(!t.is_cancelled());
        t.cancel();
        assert!(t.is_cancelled());
    }

    #[test]
    fn expired_deadline_cancels_and_latches() {
        let t = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        assert!(t.is_cancelled());
        assert!(t.is_cancelled(), "cancellation latches");
    }

    #[test]
    fn future_deadline_does_not_cancel_yet() {
        let t = CancelToken::with_deadline(Instant::now() + Duration::from_secs(3600));
        assert!(!t.is_cancelled());
    }

    #[test]
    fn clones_share_the_flag() {
        let t = CancelToken::unlimited();
        let u = t.clone();
        t.cancel();
        assert!(u.is_cancelled());
    }

    #[test]
    fn budget_builders() {
        assert!(Budget::unlimited().is_unlimited());
        let b = Budget::unlimited().with_deadline(Duration::from_millis(5));
        assert!(!b.is_unlimited());
        // An expired-at-start deadline yields an already-cancelled token.
        let t = Budget::unlimited().with_deadline(Duration::ZERO).start();
        assert!(t.is_cancelled());
        assert!(!Budget::unlimited().start().is_cancelled());
    }

    #[test]
    fn global_deadline_roundtrip() {
        // A deliberately huge value: other tests in this binary may race a
        // Budget::auto() call against this window, and an hour-scale
        // deadline can never cancel them.
        set_global_deadline_ms(3_600_000);
        assert_eq!(Budget::auto().deadline, Some(Duration::from_secs(3600)));
        set_global_deadline_ms(0);
        assert_eq!(global_deadline(), None);
        assert!(Budget::auto().is_unlimited());
    }
}
