//! Deterministic load-test harness: replays a seeded
//! [`request_stream`](pdw_gen::request_stream) against a [`PlanServer`]
//! and summarizes latency/throughput.
//!
//! The harness replays traffic for the serve tests, the `pdw serve`
//! CLI demo and the serve workloads of the `benchmark` command:
//! [`materialize`] turns stream events into concrete requests over an
//! instance pool (sampling repair deltas with
//! [`pdw_gen::fault_delta`]), and [`run_open_loop`] submits them —
//! optionally paced to their arrival times — then waits out every ticket
//! and builds a [`LoadReport`]. Identical `(options, pool)` inputs replay
//! identical traffic.

use std::sync::Arc;
use std::time::{Duration, Instant};

use pdw_gen::{fault_delta, StreamEvent, StreamEventKind};

use crate::server::{PlanServer, Rejected, Response, ServeRequest};
use crate::Instance;

/// One concrete request with its open-loop arrival time.
pub struct TimedRequest {
    /// Arrival time, microseconds after stream start.
    pub at_us: u64,
    /// The request to submit.
    pub request: ServeRequest,
    /// Per-request deadline budget (`None` = server default).
    pub budget: Option<Duration>,
}

/// Turns stream events into concrete requests over `pool`. Repair events
/// sample a [`fault_delta`] against their instance; an instance with
/// nothing to mutate falls back to a plain solve. Pool indices wrap, so
/// any non-empty pool works with any stream.
pub fn materialize(
    events: &[StreamEvent],
    pool: &[Arc<Instance>],
    budget: Option<Duration>,
) -> Vec<TimedRequest> {
    assert!(!pool.is_empty(), "materialize needs a non-empty pool");
    events
        .iter()
        .map(|event| {
            let instance = Arc::clone(&pool[event.pool_index % pool.len()]);
            let request = match event.kind {
                StreamEventKind::Solve => ServeRequest::Solve { instance },
                StreamEventKind::Repair { delta_seed } => {
                    match fault_delta(instance.synthesis(), delta_seed) {
                        Some(fd) => ServeRequest::Repair {
                            instance,
                            delta: pathdriver_wash::PlanDelta::Fault(fd),
                        },
                        None => ServeRequest::Solve { instance },
                    }
                }
            };
            TimedRequest {
                at_us: event.at_us,
                request,
                budget,
            }
        })
        .collect()
}

/// How one submitted request ended, in submission order.
pub enum Submission {
    /// Refused admission (shed or shutting down).
    Shed(Rejected),
    /// Admitted and completed.
    Done {
        /// The server's response.
        response: Response,
        /// Queue-to-completion latency on the server's clock.
        latency: Duration,
    },
}

/// Aggregate results of one open-loop run.
#[derive(Debug, Clone, serde::Serialize)]
pub struct LoadReport {
    /// Requests submitted.
    pub requests: usize,
    /// Requests refused admission.
    pub shed: usize,
    /// Requests served a plan.
    pub served: usize,
    /// Admitted requests that resolved to a typed error.
    pub errors: usize,
    /// Served responses that hit the memo cache.
    pub memo_hits: usize,
    /// Served responses that came from a repair session.
    pub repairs: usize,
    /// Median queue-to-completion latency of served requests, ms.
    pub p50_ms: f64,
    /// 99th-percentile latency of served requests, ms.
    pub p99_ms: f64,
    /// Wall time of the whole run on the server's clock, seconds.
    pub wall_s: f64,
    /// Served plans per wall second.
    pub plans_per_sec: f64,
    /// Median service time of cold solves (leader, no memo), ms.
    pub cold_service_p50_ms: f64,
    /// Median service time of memo hits, ms.
    pub hit_service_p50_ms: f64,
    /// `cold_service_p50_ms / hit_service_p50_ms` (0 when either side is
    /// empty).
    pub memo_hit_speedup: f64,
}

/// The full outcome of [`run_open_loop`]: per-request rows (submission
/// order) plus the aggregate report.
pub struct LoadRun {
    /// One row per input request, in order.
    pub rows: Vec<Submission>,
    /// The aggregate summary.
    pub report: LoadReport,
}

/// Replays `requests` against `server`. With `pace`, submissions honor
/// each request's `at_us` against real wall time (open-loop: arrivals do
/// not wait for responses); without it, everything is submitted as fast
/// as possible — the right mode under a manual test clock, which would
/// otherwise never move the pacing forward. Blocks until every admitted
/// ticket completes.
pub fn run_open_loop(server: &PlanServer, requests: &[TimedRequest], pace: bool) -> LoadRun {
    let clock = server.clock();
    let t0 = clock.now();
    let wall0 = Instant::now();
    let mut tickets = Vec::with_capacity(requests.len());
    for req in requests {
        if pace {
            let target = Duration::from_micros(req.at_us);
            let elapsed = wall0.elapsed();
            if target > elapsed {
                std::thread::sleep(target - elapsed);
            }
        }
        tickets.push(server.submit_with_budget(req.request.clone(), req.budget));
    }
    let rows: Vec<Submission> = tickets
        .into_iter()
        .map(|ticket| match ticket {
            Err(rejected) => Submission::Shed(rejected),
            Ok(ticket) => {
                let response = ticket.wait();
                let latency = ticket.latency().unwrap_or_default();
                Submission::Done { response, latency }
            }
        })
        .collect();
    let wall_s = (clock.now().saturating_sub(t0)).as_secs_f64();

    let mut shed = 0;
    let mut served = 0;
    let mut errors = 0;
    let mut memo_hits = 0;
    let mut repairs = 0;
    let mut latencies_ms: Vec<f64> = Vec::new();
    let mut cold_ms: Vec<f64> = Vec::new();
    let mut hit_ms: Vec<f64> = Vec::new();
    for row in &rows {
        match row {
            Submission::Shed(_) => shed += 1,
            Submission::Done { response, latency } => match response {
                Err(_) => errors += 1,
                Ok(plan) => {
                    served += 1;
                    latencies_ms.push(latency.as_secs_f64() * 1e3);
                    if plan.memo_hit {
                        memo_hits += 1;
                        hit_ms.push(plan.service_s * 1e3);
                    } else if plan.repaired {
                        repairs += 1;
                    } else {
                        cold_ms.push(plan.service_s * 1e3);
                    }
                }
            },
        }
    }
    let cold_p50 = percentile(&mut cold_ms, 0.50);
    let hit_p50 = percentile(&mut hit_ms, 0.50);
    let report = LoadReport {
        requests: requests.len(),
        shed,
        served,
        errors,
        memo_hits,
        repairs,
        p50_ms: percentile(&mut latencies_ms, 0.50),
        p99_ms: percentile(&mut latencies_ms, 0.99),
        wall_s,
        plans_per_sec: if wall_s > 0.0 {
            served as f64 / wall_s
        } else {
            0.0
        },
        cold_service_p50_ms: cold_p50,
        hit_service_p50_ms: hit_p50,
        memo_hit_speedup: if hit_p50 > 0.0 && cold_p50 > 0.0 {
            cold_p50 / hit_p50
        } else {
            0.0
        },
    };
    LoadRun { rows, report }
}

/// Percentile over an unsorted sample (nearest-rank on the sorted data);
/// 0 for an empty sample.
pub(crate) fn percentile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let idx = ((samples.len() - 1) as f64 * q).round() as usize;
    samples[idx]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let mut s = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&mut s, 0.0), 1.0);
        assert_eq!(percentile(&mut s, 1.0), 4.0);
        assert_eq!(percentile(&mut s, 0.5), 3.0);
        assert_eq!(percentile(&mut [], 0.5), 0.0);
    }
}
