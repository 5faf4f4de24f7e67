//! The evaluation fault boundary: a panic guard and the failure record
//! surfaced to the search.
//!
//! Long campaigns must survive a misbehaving mapper: a panic inside one
//! candidate's evaluation is caught once at the per-layer mapping
//! boundary and degraded into an [`EvalFault`] that the search records as
//! a failed attempt instead of aborting. A layer mapping is a pure
//! function of `(layer, config, seed)`, so a mapper that panicked on an
//! input panics again on it: the fault is cached for the life of the
//! evaluator and never retried within a process. See [`crate::evaluate`]
//! for where the guard is applied and [`crate::dse::Attempt::Failed`] for
//! how failures surface in results.

/// A candidate evaluation that failed: a layer mapping panicked at the
/// fault boundary, and the candidate was degraded instead of aborting the
/// search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvalFault {
    /// Human-readable cause: the panic message.
    pub error: String,
}

impl std::fmt::Display for EvalFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.error)
    }
}

/// Runs `f`, converting a panic into `Err(message)`: the payload when it
/// is a `&str` or a `String`, else `"panic with non-string payload"`.
///
/// The closure is treated as unwind-safe, so a caller must never observe
/// state it left half-written. The evaluator's caches are only written
/// through [`std::sync::OnceLock`] initializers, which stay uninitialized
/// when the initializer unwinds; `edse-serve` drops the driver of a job
/// whose step panicked.
pub fn guard<T>(f: impl FnOnce() -> T) -> Result<T, String> {
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
        assert_eq!(
            guard(|| std::panic::panic_any(42u8)),
            Err::<(), _>("panic with non-string payload".into())
        );
    }
}
