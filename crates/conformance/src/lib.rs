#![warn(missing_docs)]
//! Paper-fidelity conformance harness.
//!
//! This crate pins the reproduction's observable behavior three ways:
//!
//! * **Golden fixtures** ([`golden`], `golden/*.json`) — small,
//!   deterministic bench scenarios ([`scenarios`]) whose machine-readable
//!   reports are committed to the repository. `cargo test -p conformance`
//!   regenerates every scenario and compares it against its fixture with
//!   the tolerance-aware comparator ([`compare`]); a drift in any pinned
//!   metric fails with a diff naming the metric. Regenerate intentionally
//!   with `UPDATE_GOLDEN=1 cargo test -p conformance` (refused under CI).
//! * **Differential oracles** (`tests/oracles.rs`) — pairs of code paths
//!   the codebase promises are equivalent: serial vs parallel
//!   [`edse_core::EvalEngine`] batches, straight-through vs
//!   killed-and-resumed runs (the resume reruns the search over the
//!   killed run's disk tier), cold vs warm
//!   runs over a persistent [`edse_core::DiskCache`] (bit-identical, with
//!   a ≥ 99% disk hit rate when warm), and the evaluator's cached fast
//!   path vs the straight-line [`reference::NaiveReferenceEvaluator`].
//! * **Paper-bound assertions** (`tests/paper_bounds.rs`) — directional
//!   claims of the paper that must hold at toy scale: Explainable-DSE
//!   reaches the throughput target in fewer iterations than every
//!   black-box baseline (Fig. 4/11).

pub mod compare;
pub mod golden;
pub mod reference;
pub mod scenarios;

pub use compare::{diff, Mismatch, Tolerance};
pub use golden::{check_golden, golden_dir, pretty};
pub use reference::NaiveReferenceEvaluator;
pub use scenarios::{all_scenarios, iterations_to_target, Scenario};
