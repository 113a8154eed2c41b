//! The `pdw worker` protocol, both ends of it: the servant loop
//! ([`run_worker`]) and the client that deals region jobs out to workers
//! ([`StreamExecutor`]). Frames are the canonical codec over any byte
//! stream — a spawned child's stdin/stdout or a socket.
//!
//! A worker is a loop: read one [`WorkerRequest`] frame, plan, write one
//! [`WorkerResponse`] frame, flush, repeat until the stream closes. Two
//! request kinds exist:
//!
//! - [`WorkerRequest::Region`] — one region front-end job from the
//!   partitioned pipeline (carved chip view + base schedule +
//!   requirements). The worker runs the *same* serial front end the
//!   in-process path runs, so its groups are bit-identical; a front-end
//!   panic becomes a [`WorkerResponse::Error`] (the same refusal an
//!   in-process panic is), never a crash.
//! - [`WorkerRequest::Solve`] — a whole instance. The worker runs the full
//!   resilient ladder and returns a certified [`PlanArtifact`]: schedule,
//!   metrics, rung, and a verification certificate the consumer can (and
//!   should) re-check.
//!
//! Every frame carries the codec magic, [`SCHEMA_VERSION`], and an XXH64
//! digest trailer, so a version-skewed or corrupted worker is detected at
//! the frame boundary and the executor falls back in-process with a typed
//! event — never a silently wrong plan.
//!
//! # Chaos injection
//!
//! For fault-tolerance tests the env var `PDW_WORKER_CHAOS` makes a worker
//! misbehave deterministically. It holds a [`ChaosSpec`] in the one fault
//! grammar the chaos proxy also speaks ([`ChaosSpec::from_worker_env`]):
//! the worker answers the Nth request its loop serves through
//! [`send_faulted`], and exits when the fault closes the stream —
//! `disconnect:N` exits without replying, `corrupt:N` replies with a
//! flipped digest trailer and exits, `truncate:N:BYTES` sends a torn
//! frame and exits, `delay:N:MS` replies late and carries on. Respawned
//! workers start a fresh count, so a chaotic fleet keeps failing until
//! the executor's fallback path absorbs the work. A malformed spec, or
//! `blackhole`, is refused before the worker reads a frame.
//!
//! [`SCHEMA_VERSION`]: crate::codec::SCHEMA_VERSION

use std::io::{self, Read, Write};
use std::panic::AssertUnwindSafe;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::Mutex;
use std::time::Duration;

use pdw_assay::benchmarks::Benchmark;
use pdw_biochip::{Chip, ScratchPool};
use pdw_contam::WashRequirement;
use pdw_sched::Schedule;
use pdw_synth::Synthesis;
use serde::{Deserialize, Serialize};

use crate::codec::{self, config_fingerprint, instance_hash, CodecError, FrameType, PlanArtifact};
use crate::config::PdwConfig;
use crate::groups::WashGroup;
use crate::par::{panic_message, resolve_threads};
use crate::partition::{region_front_end, RegionJob};
use crate::resilient::plan_resilient;
use crate::transport::{send_faulted, AfterFault, ChaosSpec, NetAddr};

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

/// Runs the worker loop until `reader` reaches a clean EOF (the client
/// closed the stream): one request frame in, one response frame out,
/// flushed. `chaos` faults the answer to its `nth` request (see the
/// module docs); when that fault closes the stream, the process exits.
///
/// Returns a [`CodecError`] when the request stream itself is unreadable —
/// truncated, version-skewed, corrupt — which a worker binary should
/// report on stderr and die from. Planning failures never tear down the
/// loop; they come back as [`WorkerResponse::Error`].
pub fn run_worker<R: Read, W: Write>(
    reader: &mut R,
    writer: &mut W,
    chaos: Option<ChaosSpec>,
) -> Result<(), CodecError> {
    let mut served = 0usize;
    loop {
        let Some(frame) = codec::read_frame(reader)? else {
            return Ok(());
        };
        let request: WorkerRequest = codec::decode_frame(FrameType::WorkerRequest, &frame)?;
        served += 1;
        let out = codec::encode_frame(FrameType::WorkerResponse, &handle(request));
        match chaos {
            Some(spec) if spec.nth == served => {
                let after = send_faulted(writer, &out, spec.mode)
                    .map_err(|e| CodecError::Io(e.to_string()))?;
                if after == AfterFault::Close {
                    std::process::exit(3);
                }
            }
            _ => codec::write_frame(writer, &out)?,
        }
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

// ---------------------------------------------------------------------------
// Client side: region jobs dealt out to workers
// ---------------------------------------------------------------------------

/// Respawns (or redials) one lane may make per run after a failure; the
/// first connect is free.
const RESPAWN_BUDGET: usize = 3;
/// The wait before a lane's first respawn; it doubles per consecutive
/// failure, so an exhausted lane waits at most 25 + 50 + 100 ms.
const RESPAWN_BACKOFF: Duration = Duration::from_millis(25);
/// Deadline for dialing a peer.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(2);
/// Deadline for each read from a dialed peer.
const READ_TIMEOUT: Duration = Duration::from_secs(60);
/// Deadline for each write to a dialed peer.
const WRITE_TIMEOUT: Duration = Duration::from_secs(10);

/// One region job's front end: its groups, or the refusal (a front-end
/// panic, in any process) the pipeline replans as seam work.
type JobResult = Result<Vec<WashGroup>, String>;

/// A typed record of something the worker transport had to do — where
/// planning happened changed, what was planned did not.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ExecutorEvent {
    /// A worker failed mid-job (could not be reached, died, closed its
    /// stream, or returned a corrupt frame); the job was replanned
    /// in-process.
    WorkerFailed {
        /// The executor lane whose worker failed.
        worker: usize,
        /// The job index (input order) that hit the failure.
        job: usize,
        /// What the transport observed.
        detail: String,
    },
    /// A lane respawned (or redialed) its worker after a failure.
    WorkerRespawned {
        /// The executor lane that respawned.
        worker: usize,
    },
    /// A lane burned its whole per-run respawn budget and stopped
    /// respawning; its remaining jobs degrade to in-process planning.
    RespawnBudgetExhausted {
        /// The executor lane that gave up on its worker.
        worker: usize,
        /// The respawn budget that was exhausted.
        budget: usize,
    },
}

/// What one [`StreamExecutor`] run did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecutorReport {
    /// Jobs a worker answered (with groups or with a refusal).
    pub remote_jobs: usize,
    /// Jobs replanned in-process after a transport failure.
    pub fallbacks: usize,
    /// Lanes that exhausted their respawn budget.
    pub exhausted_lanes: usize,
    /// Transport events, lane by lane, each lane's in the order they
    /// happened.
    pub events: Vec<ExecutorEvent>,
}

/// How one executor lane reaches its worker.
#[derive(Debug, Clone)]
enum WorkerPeer {
    /// Spawn a `pdw worker` child with this argv; frames go over its stdio.
    Spawn(Vec<String>),
    /// Dial a `pdw worker --listen` peer.
    Dial(NetAddr),
}

/// A connected worker byte stream.
trait Duplex: Read + Write {}
impl<T: Read + Write> Duplex for T {}

/// A spawned worker's stdout and stdin as one stream; the child is killed
/// and reaped when the stream drops.
struct ChildStream {
    child: Child,
    stdin: ChildStdin,
    stdout: ChildStdout,
}

impl Read for ChildStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.stdout.read(buf)
    }
}

impl Write for ChildStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.stdin.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.stdin.flush()
    }
}

impl Drop for ChildStream {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl WorkerPeer {
    fn connect(&self) -> Result<Box<dyn Duplex>, String> {
        match self {
            WorkerPeer::Spawn(argv) => {
                let mut child = Command::new(&argv[0])
                    .args(&argv[1..])
                    .stdin(Stdio::piped())
                    .stdout(Stdio::piped())
                    .stderr(Stdio::null())
                    .spawn()
                    .map_err(|e| format!("spawn {}: {e}", argv[0]))?;
                let stdin = child.stdin.take().expect("stdin was piped");
                let stdout = child.stdout.take().expect("stdout was piped");
                Ok(Box::new(ChildStream {
                    child,
                    stdin,
                    stdout,
                }))
            }
            WorkerPeer::Dial(addr) => {
                let stream = addr.connect(CONNECT_TIMEOUT).map_err(|e| e.to_string())?;
                stream
                    .set_read_timeout(Some(READ_TIMEOUT))
                    .and_then(|()| stream.set_write_timeout(Some(WRITE_TIMEOUT)))
                    .map_err(|e| format!("{addr}: {e}"))?;
                Ok(Box::new(stream))
            }
        }
    }
}

/// One framed round trip. `Ok` is the worker's answer — its groups, or a
/// refusal that is the job's own `Err`; the worker is healthy either way.
/// `Err` is a transport failure: a broken stream, EOF, or a corrupt, stale
/// or oversized frame (`read_frame` checks the length cap before it
/// allocates).
fn call(stream: &mut Box<dyn Duplex>, req: &WorkerRequest) -> Result<JobResult, String> {
    let frame = codec::encode_frame(FrameType::WorkerRequest, req);
    codec::write_frame(stream, &frame).map_err(|e| e.to_string())?;
    let frame = codec::read_frame(stream)
        .map_err(|e| e.to_string())?
        .ok_or("worker closed the stream")?;
    match codec::decode_frame(FrameType::WorkerResponse, &frame).map_err(|e| e.to_string())? {
        WorkerResponse::Groups(groups) => Ok(Ok(groups)),
        WorkerResponse::Error(msg) => Ok(Err(msg)),
        WorkerResponse::Artifact(_) => Err("unexpected response kind".to_string()),
    }
}

/// One lane's worker stream and respawn bookkeeping for one run.
struct Lane<'a> {
    index: usize,
    peer: &'a WorkerPeer,
    stream: Option<Box<dyn Duplex>>,
    /// Whether this lane's worker has failed at all this run.
    failed: bool,
    /// Consecutive failures (reset by an answered job).
    streak: u32,
    respawns: usize,
    exhausted: bool,
    report: ExecutorReport,
}

impl Lane<'_> {
    /// Plans job `job` on the lane's worker, (re)connecting first when
    /// needed. `None` means the job must be planned in-process.
    fn remote(&mut self, job: usize, req: impl FnOnce() -> WorkerRequest) -> Option<JobResult> {
        if self.stream.is_none() {
            if self.exhausted {
                return None;
            }
            if self.failed {
                // A respawn after a failure draws on the budget and waits
                // out the backoff; a burned-out lane stops for good.
                if self.respawns == RESPAWN_BUDGET {
                    self.exhausted = true;
                    self.report.exhausted_lanes += 1;
                    self.report
                        .events
                        .push(ExecutorEvent::RespawnBudgetExhausted {
                            worker: self.index,
                            budget: RESPAWN_BUDGET,
                        });
                    return None;
                }
                std::thread::sleep(RESPAWN_BACKOFF * (1 << self.streak.saturating_sub(1)));
                self.respawns += 1;
            }
            match self.peer.connect() {
                Ok(stream) => {
                    self.stream = Some(stream);
                    if self.failed {
                        self.report
                            .events
                            .push(ExecutorEvent::WorkerRespawned { worker: self.index });
                    }
                }
                Err(detail) => {
                    self.fail(job, detail);
                    return None;
                }
            }
        }
        let stream = self.stream.as_mut()?;
        match call(stream, &req()) {
            Ok(answer) => {
                self.report.remote_jobs += 1;
                self.streak = 0;
                Some(answer)
            }
            Err(detail) => {
                self.stream = None;
                self.fail(job, detail);
                None
            }
        }
    }

    fn fail(&mut self, job: usize, detail: String) {
        self.failed = true;
        self.streak += 1;
        self.report.events.push(ExecutorEvent::WorkerFailed {
            worker: self.index,
            job,
            detail,
        });
    }
}

/// Plans region jobs in `pdw worker` processes: one lane per worker, jobs
/// dealt round-robin by input index, every lane running the same loop over
/// whatever byte stream its peer gives it — a spawned child's stdio
/// ([`spawn`](Self::spawn)) or a dialed socket ([`dial`](Self::dial)).
///
/// A lane whose worker fails mid-job records a typed
/// [`ExecutorEvent::WorkerFailed`], replans that job in-process (the same
/// pure front end — the plan is unchanged), and respawns or redials for
/// its next job after an exponential backoff. After three respawns in one
/// run the lane degrades to in-process planning
/// ([`ExecutorEvent::RespawnBudgetExhausted`]). Plans are bit-identical to
/// in-process planning under any combination of failures.
pub struct StreamExecutor {
    peers: Vec<WorkerPeer>,
    last: Mutex<ExecutorReport>,
}

impl StreamExecutor {
    /// `workers` lanes (0 = one per core), each spawning a child with
    /// `argv`, e.g. `["/path/to/pdw", "worker"]`.
    ///
    /// # Panics
    /// Panics if `argv` is empty.
    pub fn spawn(argv: Vec<String>, workers: usize) -> Self {
        assert!(!argv.is_empty(), "a spawning executor needs an argv");
        Self::with_peers(vec![WorkerPeer::Spawn(argv); resolve_threads(workers)])
    }

    /// One lane per `pdw worker --listen` address.
    ///
    /// # Panics
    /// Panics if `addrs` is empty.
    pub fn dial(addrs: Vec<NetAddr>) -> Self {
        assert!(
            !addrs.is_empty(),
            "a dialing executor needs at least one peer"
        );
        Self::with_peers(addrs.into_iter().map(WorkerPeer::Dial).collect())
    }

    fn with_peers(peers: Vec<WorkerPeer>) -> Self {
        StreamExecutor {
            peers,
            last: Mutex::default(),
        }
    }

    /// `"subprocess"` for spawned workers, `"socket"` for dialed peers.
    pub fn name(&self) -> &'static str {
        match self.peers[0] {
            WorkerPeer::Spawn(_) => "subprocess",
            WorkerPeer::Dial(_) => "socket",
        }
    }

    /// What the most recent run did.
    pub fn report(&self) -> ExecutorReport {
        self.last.lock().expect("executor report poisoned").clone()
    }

    /// Plans every job's front end; results come back in job order.
    pub(crate) fn run(
        &self,
        jobs: &[RegionJob<'_>],
        schedule: &Schedule,
        candidates: usize,
        merging: bool,
    ) -> Vec<JobResult> {
        let lanes = self.peers.len().min(jobs.len());
        let mut results: Vec<Option<JobResult>> = jobs.iter().map(|_| None).collect();
        let mut report = ExecutorReport::default();
        std::thread::scope(|scope| {
            let handles: Vec<_> = self.peers[..lanes]
                .iter()
                .enumerate()
                .map(|(index, peer)| {
                    scope.spawn(move || {
                        let pool = ScratchPool::new();
                        let mut lane = Lane {
                            index,
                            peer,
                            stream: None,
                            failed: false,
                            streak: 0,
                            respawns: 0,
                            exhausted: false,
                            report: ExecutorReport::default(),
                        };
                        let planned: Vec<(usize, JobResult)> = (index..jobs.len())
                            .step_by(lanes)
                            .map(|i| {
                                let job = &jobs[i];
                                let remote = lane.remote(i, || {
                                    WorkerRequest::Region(Box::new(RegionRequest {
                                        chip: job.chip.clone(),
                                        schedule: schedule.clone(),
                                        requirements: job.requirements.to_vec(),
                                        candidates,
                                        merging,
                                    }))
                                });
                                let answer = remote.unwrap_or_else(|| {
                                    lane.report.fallbacks += 1;
                                    plan_in_process(job, schedule, candidates, merging, &pool)
                                });
                                (i, answer)
                            })
                            .collect();
                        (lane.report, planned)
                    })
                })
                .collect();
            for handle in handles {
                let (lane, planned) = handle.join().expect("executor lane panicked");
                report.remote_jobs += lane.remote_jobs;
                report.fallbacks += lane.fallbacks;
                report.exhausted_lanes += lane.exhausted_lanes;
                report.events.extend(lane.events);
                for (i, answer) in planned {
                    results[i] = Some(answer);
                }
            }
        });
        *self.last.lock().expect("executor report poisoned") = report;
        results
            .into_iter()
            .map(|r| r.expect("every job planned"))
            .collect()
    }
}

/// In-process replanning of one job after a transport failure: the front
/// end the worker would have run, with a panic as the job's refusal.
fn plan_in_process(
    job: &RegionJob<'_>,
    schedule: &Schedule,
    candidates: usize,
    merging: bool,
    pool: &ScratchPool,
) -> JobResult {
    std::panic::catch_unwind(AssertUnwindSafe(|| {
        region_front_end(
            job.chip,
            schedule,
            job.requirements,
            candidates,
            merging,
            1,
            pool,
        )
    }))
    .map_err(panic_message)
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
        run_worker(&mut reader, &mut output, None).expect("worker loop runs clean");
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
    fn chaos_specs_parse_strictly() {
        assert_eq!(ChaosSpec::for_worker(""), Ok(None));
        assert_eq!(
            ChaosSpec::for_worker("disconnect:2"),
            Ok(ChaosSpec::parse("disconnect:2").ok())
        );
        for bad in [
            "disconnect:0",
            "dei:1",
            "corrupt:x",
            "disconnect:1:2",
            "disconnect",
            "blackhole:1",
        ] {
            let err = ChaosSpec::for_worker(bad).expect_err(bad);
            assert!(err.contains(&format!("'{bad}'")), "{err}");
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
            run_worker(&mut reader, &mut output, None),
            Err(CodecError::Truncated { .. })
        ));
        assert!(output.is_empty());
    }
}
