//! PathDriver-Wash: path-driven wash optimization for continuous-flow
//! lab-on-a-chip systems.
//!
//! This crate is the top of the reproduction stack: given a bioassay
//! benchmark and its synthesized chip + schedule (from [`pdw_synth`]), it
//! computes an optimized execution with wash operations.
//!
//! # Engine architecture
//!
//! The paper's two solvers are plain functions of a shared
//! [`PlanContext`]:
//!
//! - [`pdw_ctx`] — the paper's method: wash-necessity analysis
//!   (Types 1–3), wash/excess-removal integration (ψ), and ILP-optimized
//!   wash paths and time windows minimizing
//!   `α·N_wash + β·L_wash + γ·T_assay` (Eq. 26); with
//!   [`ilp: false`](PdwConfig::ilp) it stops at its deterministic greedy
//!   warm start;
//! - [`dawo_ctx`] — the delay-aware wash optimization baseline of TC'22
//!   \[10\]: per-spot washes with independently BFS-routed paths and
//!   sweep-line time assignment.
//!
//! The context owns the instance's expensive common prefix — necessity
//! analyses, port-reachability fields, warm routing scratch — so running
//! both solvers on one instance computes it once; the plans are
//! bit-identical to the one-shot wrappers [`pdw`] and [`dawo`].
//! [`plan_resilient`] runs them as a degradation ladder (PDW → greedy →
//! DAWO) and serves the first plan that passes the plan gate.
//!
//! Every solver returns a [`WashResult`] whose schedule is guaranteed
//! physically valid ([`pdw_sim::validate`]) and contamination-free
//! ([`pdw_contam::verify_clean`]).
//!
//! # Example
//!
//! DAWO and PDW sharing one context — the necessity analysis and routing
//! state are computed once, and the results match one-shot calls exactly.
//! The ILP runs here, on an instance small enough for it to prove its plan
//! optimal: a search the budget stops is anytime, and two such runs may
//! stop on different incumbents.
//!
//! ```
//! use pathdriver_wash::{dawo_ctx, pdw_ctx, PdwConfig, PlanContext};
//! use pdw_assay::synthetic::SyntheticSpec;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let spec = SyntheticSpec {
//!     name: "two-op".into(),
//!     ops: 2,
//!     edges: 4,
//!     devices: 6,
//!     seed: 0,
//!     grid: (15, 15),
//! };
//! let (bench, synthesis) = pdw_gen::instance(&spec).expect("spec synthesizes");
//! let config = PdwConfig { threads: 1, ..PdwConfig::default() };
//!
//! let mut ctx = PlanContext::new(&bench, &synthesis);
//! let baseline = dawo_ctx(&mut ctx)?;
//! let optimized = pdw_ctx(&mut ctx, &config)?;
//!
//! assert!(optimized.solver.used_ilp && optimized.solver.optimal);
//! assert!(optimized.metrics.n_wash <= baseline.metrics.n_wash);
//! assert_eq!(optimized.schedule, pathdriver_wash::pdw(&bench, &synthesis, &config)?.schedule);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
mod config;
mod context;
mod dawo;
mod deadline;
mod exact_path;
mod greedy;
mod groups;
mod model;
mod par;
mod partition;
mod pdw;
mod repair;
mod resilient;
mod stats;
mod timeline;
pub mod transport;
pub mod verify;

pub use codec::{
    chip_hash, config_fingerprint, instance_hash, memo_key, CodecError, GateRejection,
    OracleReplay, PlanArtifact, VerificationCertificate, SCHEMA_VERSION,
};
pub use config::{CandidatePolicy, PdwConfig, Weights};
pub use context::{ContextParts, FrontEndKey, PlanContext, RequirementOverrides};
pub use dawo::{dawo, dawo_ctx};
pub use deadline::Deadline;
pub use exact_path::exact_wash_path;
pub use greedy::{insert_washes, insert_washes_protected, GreedyOutcome, Placement};
pub use groups::{
    build_groups, enumerate_candidates, merge_groups, spot_cluster_groups, Candidate, WashGroup,
    WashPart,
};
pub use pdw::{pdw, pdw_ctx, PdwError, SolverReport, WashResult};
pub use pdw_ilp::{IncumbentEvent, SolverStats};
pub use repair::{PlanDelta, RepairSession};
pub use resilient::{
    plan_partitioned, plan_partitioned_ctx, plan_resilient, plan_resilient_ctx, PlanOutcome,
    RungAttempt, RungKind, RungRejection,
};
pub use stats::PipelineStats;
pub use transport::{
    ChaosMode, ChaosSpec, NetAddr, NetListener, NetRequest, NetResponse, NetStream, SolveRequest,
    TransportError, WireError,
};
