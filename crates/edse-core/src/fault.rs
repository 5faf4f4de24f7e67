//! The evaluation fault boundary: a panic guard, the retry policy, and
//! the permanent-failure record surfaced to the search.
//!
//! Long campaigns must survive a misbehaving mapper: a panic inside one
//! candidate's evaluation is caught at the per-layer mapping boundary,
//! retried with bounded exponential backoff, and — once retries are
//! exhausted — degraded into an [`EvalFault`] that the search records as
//! a failed attempt instead of aborting. See [`crate::evaluate`] for where
//! the guard is applied and [`crate::dse::Attempt::Failed`] for how
//! failures surface in results.

use std::time::Duration;

/// Retry policy of the evaluation fault boundary, configured on
/// [`crate::evaluate::EvalEngine`]. No part of it reads the clock, so
/// whether a mapping succeeds never depends on machine speed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPolicy {
    /// Retries after the first failed attempt.
    pub max_retries: u32,
    /// Sleep before retry `k` is `backoff * 2^k`; [`Duration::ZERO`]
    /// disables sleeping (useful in tests).
    pub backoff: Duration,
}

impl Default for FaultPolicy {
    fn default() -> Self {
        FaultPolicy {
            max_retries: 2,
            backoff: Duration::from_millis(10),
        }
    }
}

impl FaultPolicy {
    /// A policy that never retries and never sleeps — failures surface
    /// immediately (panics are still caught).
    pub fn fail_fast() -> Self {
        FaultPolicy {
            max_retries: 0,
            backoff: Duration::ZERO,
        }
    }

    /// The sleep before retry number `retry` (0-based).
    pub(crate) fn backoff_before(&self, retry: u32) -> Duration {
        self.backoff
            .saturating_mul(2u32.saturating_pow(retry.min(16)))
    }
}

/// A candidate evaluation that failed permanently: the fault boundary
/// exhausted its retries (or caught a non-retryable panic) and degraded
/// the candidate instead of aborting the search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvalFault {
    /// Human-readable cause: the panic message.
    pub error: String,
    /// How many retries were spent before giving up.
    pub retries: u32,
}

impl std::fmt::Display for EvalFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} (after {} retries)", self.error, self.retries)
    }
}

/// Runs `f`, converting a panic into `Err(message)`. The closure is
/// treated as unwind-safe: the evaluator's caches are only written through
/// [`std::sync::OnceLock`] initializers, which stay uninitialized when the
/// initializer unwinds, so no partially-written state is ever observed.
pub(crate) fn guard<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|payload| {
        if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "panic with non-string payload".to_string()
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guard_passes_values_and_catches_panics() {
        assert_eq!(guard(|| 7), Ok(7));
        assert_eq!(guard(|| panic!("boom")), Err::<(), _>("boom".into()));
        let msg = format!("fault {}", 42);
        assert_eq!(
            guard(move || panic!("{msg}")),
            Err::<(), _>("fault 42".into())
        );
    }

    #[test]
    fn backoff_doubles_per_retry() {
        let p = FaultPolicy {
            backoff: Duration::from_millis(5),
            ..FaultPolicy::default()
        };
        assert_eq!(p.backoff_before(0), Duration::from_millis(5));
        assert_eq!(p.backoff_before(1), Duration::from_millis(10));
        assert_eq!(p.backoff_before(2), Duration::from_millis(20));
        assert_eq!(FaultPolicy::fail_fast().backoff_before(3), Duration::ZERO);
    }
}
