//! `pdw-serve`: a long-running batching plan server for PathDriver-Wash.
//!
//! The engine underneath ([`pathdriver_wash`]) already solves instances
//! fast — batched fan-out, a graceful-degradation ladder, incremental
//! repair. This crate is the serving layer ROADMAP item 1 asks for: a
//! [`PlanServer`] that takes heavy request traffic and turns it into as
//! few ladder runs as possible.
//!
//! The request path is **queue → batcher → ladder → caches**:
//!
//! - **Admission** ([`PlanServer::submit`]): a cost-budget gate sheds
//!   excess load with typed [`Rejected::Saturated`] instead of letting the
//!   queue grow without bound.
//! - **Batching**: worker threads drain the queue in batches, each request
//!   isolated behind its own panic boundary ([`ServeError::WorkerPanic`]).
//! - **Deadlines**: per-request budgets map onto the degradation ladder's
//!   `pipeline_budget` — a tight deadline degrades a solve rather than
//!   failing it, and an expired one returns a typed
//!   [`ServeError::DeadlineExpired`].
//! - **Caches**: a single-flight memo of verified plans (one solve per
//!   instance, no stampede — [`cache::MemoCache`]) and an LRU of warm
//!   context parts keyed by chip hash ([`cache::ContextLru`]).
//! - **Repair**: deltas route through a per-instance
//!   [`RepairSession`](pathdriver_wash::RepairSession) so a one-cell fault
//!   costs an invalidation, not a cold solve.
//!
//! Everything is built testable-first: time is an injectable [`Clock`]
//! ([`clock::ManualClock`] in tests), traffic comes from the seeded
//! [`pdw_gen::request_stream`], and a chaos [`Hook`] can crash workers at
//! chosen requests — so the stampede, deadline, shedding, LRU-churn, and
//! soak tests are deterministic at any worker count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod clock;
pub mod harness;
pub mod net;
pub mod proxy;
mod server;
pub mod store;

pub use cache::{CertifiedPlan, ServedPlan};
pub use clock::{Clock, ManualClock, WallClock};
pub use harness::{materialize, run_open_loop, LoadReport, LoadRun, Submission, TimedRequest};
pub use net::{
    run_socket_load, ClientConfig, ClientError, NetConfig, NetServeStats, PlanClient, RemotePlan,
    SocketJob, SocketLoadReport, SocketServer,
};
pub use proxy::{ChaosMode, ChaosProxy, ChaosSpec};
pub use server::{
    Hook, HookPoint, Instance, PlanServer, Rejected, Response, ServeConfig, ServeError,
    ServeRequest, ServeStats, Served, Ticket,
};
pub use store::{FileMemoStore, InMemoryMemoStore, MemoStore, StoreLoadReport};
