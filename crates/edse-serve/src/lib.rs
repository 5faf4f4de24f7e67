//! `edse-serve`: multi-tenant DSE-as-a-service.
//!
//! A zero-dependency HTTP+JSON front end over the stepwise search
//! driver: clients `POST` a [`JobSpec`](edse_core::JobSpec), the service
//! hosts the search as a parked [`driver::HostedSearch`], and a fixed
//! worker pool round-robins over all live jobs one evaluation batch at a
//! time. Because a batch boundary is also the driver's cancellation
//! point, pause/resume/cancel
//! are exact: a cancel takes effect within one batch and leaves a
//! resumable snapshot when the job configured a checkpoint.
//!
//! Concurrent jobs share one [`EvalEngine`](edse_core::evaluate::EvalEngine)
//! configuration and one [`DiskCache`](edse_core::DiskCache) while each
//! keeping a private evaluator, so per-job budgets count per-job work but
//! mapping results computed by one tenant are reused by all.
//!
//! The stack is `std`-only: hand-rolled HTTP/1.1 ([`http`]), a job
//! registry + fair scheduler ([`jobs`]), the job builder ([`driver`]),
//! and the route table ([`server`]).
#![warn(missing_docs)]

pub mod driver;
pub mod http;
pub mod jobs;
pub mod server;
