//! The `pdw worker` protocol: an out-of-process planning servant speaking
//! framed canonical codec on stdin/stdout.
//!
//! A worker is a loop: read one [`WorkerRequest`] frame, plan, write one
//! [`WorkerResponse`] frame, flush, repeat until stdin closes. Two request
//! kinds exist:
//!
//! - [`WorkerRequest::Region`] — one region front-end job from the
//!   partitioned pipeline (carved chip view + base schedule +
//!   requirements). The worker runs the *same* serial front end the
//!   in-process executor runs, so its groups are bit-identical; a front-end
//!   panic becomes a [`WorkerResponse::Error`] (the same refusal an
//!   in-process panic is), never a crash.
//! - [`WorkerRequest::Solve`] — a whole instance. The worker runs the full
//!   resilient ladder and returns a certified [`PlanArtifact`]: schedule,
//!   metrics, rung, and a verification certificate the consumer can (and
//!   should) re-check.
//!
//! Every frame carries the codec magic, [`SCHEMA_VERSION`], and an FNV
//! digest trailer, so a version-skewed or corrupted worker is detected at
//! the frame boundary and the parent falls back in-process with a typed
//! event — never a silently wrong plan.
//!
//! # Chaos injection
//!
//! For fault-tolerance tests the env var `PDW_WORKER_CHAOS` makes a worker
//! misbehave deterministically: `die:N` exits without replying to the Nth
//! request this process serves; `corrupt:N` answers the Nth request with a
//! frame whose digest trailer is flipped, then exits. Respawned workers
//! start a fresh count, so a chaotic fleet keeps failing until the parent's
//! fallback path absorbs the work.
//!
//! [`SCHEMA_VERSION`]: crate::codec::SCHEMA_VERSION

use std::io::{Read, Write};
use std::panic::AssertUnwindSafe;

use pdw_assay::benchmarks::Benchmark;
use pdw_biochip::{Chip, ScratchPool};
use pdw_contam::WashRequirement;
use pdw_sched::Schedule;
use pdw_synth::Synthesis;
use serde::{Deserialize, Serialize};

use crate::codec::{self, config_fingerprint, instance_hash, CodecError, FrameType, PlanArtifact};
use crate::config::PdwConfig;
use crate::groups::WashGroup;
use crate::par::panic_message;
use crate::partition::region_front_end;
use crate::resilient::plan_resilient;

/// One region front-end job, self-contained: region views preserve parent
/// coordinates and ids, so the planned groups are valid on the whole chip
/// with no translation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RegionRequest {
    /// The carved region/span view's chip.
    pub chip: Chip,
    /// The base schedule the requirements reference.
    pub schedule: Schedule,
    /// The wash requirements this job plans.
    pub requirements: Vec<WashRequirement>,
    /// Candidate wash paths to enumerate per group.
    pub candidates: usize,
    /// Whether in-bucket group merging runs.
    pub merging: bool,
}

/// A whole planning instance for the full resilient ladder.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SolveRequest {
    /// The bioassay benchmark.
    pub bench: Benchmark,
    /// The synthesized chip + base schedule.
    pub synthesis: Synthesis,
    /// The planner configuration.
    pub config: PdwConfig,
}

/// What a `pdw worker` can be asked to do.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum WorkerRequest {
    /// Plan one region front end (partitioned-pipeline fan-out).
    Region(Box<RegionRequest>),
    /// Solve a whole instance and return a certified artifact.
    Solve(Box<SolveRequest>),
}

/// What a `pdw worker` answers with.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum WorkerResponse {
    /// The region job's wash groups, bit-identical to in-process planning.
    Groups(Vec<WashGroup>),
    /// The solved instance's certified plan artifact.
    Artifact(Box<PlanArtifact>),
    /// The request was understood but planning refused (front-end panic,
    /// every ladder rung rejected). The worker itself is still healthy.
    Error(String),
}

/// Deterministic misbehavior for fault-tolerance tests, parsed from
/// `PDW_WORKER_CHAOS`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Chaos {
    None,
    /// Exit without replying to the `n`th request this process serves.
    Die(usize),
    /// Reply to the `n`th request with a digest-corrupted frame, then exit.
    Corrupt(usize),
}

impl Chaos {
    fn from_env() -> Self {
        let Ok(spec) = std::env::var("PDW_WORKER_CHAOS") else {
            return Chaos::None;
        };
        let parse = |rest: &str| rest.parse::<usize>().ok().filter(|&n| n > 0);
        if let Some(n) = spec.strip_prefix("die:").and_then(parse) {
            Chaos::Die(n)
        } else if let Some(n) = spec.strip_prefix("corrupt:").and_then(parse) {
            Chaos::Corrupt(n)
        } else {
            Chaos::None
        }
    }
}

/// Runs the worker loop until `reader` reaches a clean EOF (parent closed
/// the pipe): one request frame in, one response frame out, flushed.
///
/// Returns a [`CodecError`] when the request stream itself is unreadable —
/// truncated, version-skewed, corrupt — which a worker binary should
/// report on stderr and die from. Planning failures never tear down the
/// loop; they come back as [`WorkerResponse::Error`].
pub fn run_worker<R: Read, W: Write>(reader: &mut R, writer: &mut W) -> Result<(), CodecError> {
    let chaos = Chaos::from_env();
    let mut served = 0usize;
    loop {
        let Some(frame) = codec::read_frame(reader)? else {
            return Ok(());
        };
        let request: WorkerRequest = codec::decode_frame(FrameType::WorkerRequest, &frame)?;
        served += 1;
        match chaos {
            Chaos::Die(n) if served == n => std::process::exit(3),
            Chaos::Corrupt(n) if served == n => {
                let mut out = codec::encode_frame(
                    FrameType::WorkerResponse,
                    &WorkerResponse::Error("chaos".to_string()),
                );
                let last = out.len() - 1;
                out[last] ^= 0xff;
                let _ = writer.write_all(&out);
                let _ = writer.flush();
                std::process::exit(4);
            }
            _ => {}
        }
        let response = handle(request);
        let out = codec::encode_frame(FrameType::WorkerResponse, &response);
        codec::write_frame(writer, &out)?;
    }
}

/// Serves one request; a planning panic becomes a typed refusal, so the
/// worker process survives it.
fn handle(request: WorkerRequest) -> WorkerResponse {
    let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| match request {
        WorkerRequest::Region(r) => {
            let pool = ScratchPool::new();
            WorkerResponse::Groups(region_front_end(
                &r.chip,
                &r.schedule,
                &r.requirements,
                r.candidates,
                r.merging,
                1,
                &pool,
            ))
        }
        WorkerRequest::Solve(r) => {
            let outcome = plan_resilient(&r.bench, &r.synthesis, &r.config);
            match (outcome.served, outcome.rung) {
                (Some(result), Some(rung)) => {
                    WorkerResponse::Artifact(Box::new(PlanArtifact::certified(
                        instance_hash(&r.bench, &r.synthesis),
                        config_fingerprint(&r.config),
                        rung,
                        &r.bench,
                        &r.synthesis,
                        result,
                    )))
                }
                _ => WorkerResponse::Error("every ladder rung was rejected".to_string()),
            }
        }
    }));
    match outcome {
        Ok(response) => response,
        Err(payload) => WorkerResponse::Error(panic_message(payload)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdw_assay::benchmarks;
    use pdw_synth::synthesize;

    fn config() -> PdwConfig {
        PdwConfig {
            ilp: false,
            ..PdwConfig::default()
        }
    }

    /// Drives `run_worker` over in-memory pipes — the same loop the `pdw
    /// worker` binary runs, minus the process boundary (which
    /// `crates/cli/tests/worker.rs` covers for real).
    fn roundtrip(requests: &[WorkerRequest]) -> Vec<WorkerResponse> {
        let mut input = Vec::new();
        for req in requests {
            input.extend_from_slice(&codec::encode_frame(FrameType::WorkerRequest, req));
        }
        let mut reader = std::io::Cursor::new(input);
        let mut output = Vec::new();
        run_worker(&mut reader, &mut output).expect("worker loop runs clean");
        let mut responses = Vec::new();
        let mut r = std::io::Cursor::new(output);
        while let Some(frame) = codec::read_frame(&mut r).expect("response stream intact") {
            responses
                .push(codec::decode_frame(FrameType::WorkerResponse, &frame).expect("response"));
        }
        responses
    }

    #[test]
    fn solve_request_returns_a_verifying_artifact() {
        let bench = benchmarks::demo();
        let s = synthesize(&bench).unwrap();
        let responses = roundtrip(&[WorkerRequest::Solve(Box::new(SolveRequest {
            bench: bench.clone(),
            synthesis: s.clone(),
            config: config(),
        }))]);
        assert_eq!(responses.len(), 1);
        let WorkerResponse::Artifact(artifact) = &responses[0] else {
            panic!("expected an artifact, got {:?}", responses[0]);
        };
        artifact.verify(&bench, &s).expect("artifact verifies");
        let direct = plan_resilient(&bench, &s, &config());
        assert_eq!(
            artifact.result.schedule,
            direct.served.as_ref().unwrap().schedule
        );
        assert_eq!(Some(artifact.rung), direct.rung);
    }

    #[test]
    fn region_request_matches_the_in_process_front_end() {
        let bench = benchmarks::demo();
        let s = synthesize(&bench).unwrap();
        let analysis = pdw_contam::analyze(
            &s.chip,
            &bench.graph,
            &s.schedule,
            pdw_contam::NecessityOptions::full(),
        );
        let reqs = analysis.requirements.clone();
        assert!(!reqs.is_empty(), "demo instance has wash necessity");
        let responses = roundtrip(&[WorkerRequest::Region(Box::new(RegionRequest {
            chip: s.chip.clone(),
            schedule: s.schedule.clone(),
            requirements: reqs.clone(),
            candidates: 3,
            merging: true,
        }))]);
        let WorkerResponse::Groups(groups) = &responses[0] else {
            panic!("expected groups, got {:?}", responses[0]);
        };
        let pool = ScratchPool::new();
        let direct = region_front_end(&s.chip, &s.schedule, &reqs, 3, true, 1, &pool);
        assert_eq!(groups.len(), direct.len());
        for (a, b) in groups.iter().zip(&direct) {
            assert_eq!(a.parts, b.parts);
            assert_eq!(a.candidates, b.candidates);
        }
    }

    #[test]
    fn truncated_request_stream_is_a_typed_error() {
        let req = WorkerRequest::Solve(Box::new(SolveRequest {
            bench: benchmarks::demo(),
            synthesis: synthesize(&benchmarks::demo()).unwrap(),
            config: config(),
        }));
        let frame = codec::encode_frame(FrameType::WorkerRequest, &req);
        let mut reader = std::io::Cursor::new(frame[..frame.len() - 5].to_vec());
        let mut output = Vec::new();
        assert!(matches!(
            run_worker(&mut reader, &mut output),
            Err(CodecError::Truncated { .. })
        ));
        assert!(output.is_empty());
    }
}
