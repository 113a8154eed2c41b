//! What every workload shares: the run context, the measured window and
//! how its timings are read, the outcome handed to the report, set-up
//! repetition and the traced half.
//!
//! A window's latencies are percentiles over every operation it served, as
//! timed, and its throughput is completions over wall time. Every window
//! is preceded by a warm-up of the same work, which is checked but not
//! timed.

use std::time::Instant;

use crate::inputs::SetupLog;
use crate::layers::{self, Layers};
use crate::stats::mean;
use crate::trace::Tracer;

/// Every workload this build runs. `BENCHMARK.json` declares the ones a
/// run without `--workload` (and the regression check) measures, in this
/// order; `plan-mega` and `serve-repair` run only when named.
pub const ALL: [&str; 6] = [
    "plan-corpus",
    "plan-ilp",
    "plan-mega",
    "serve-solve",
    "serve-repair",
    "wire-hits",
];

/// The percentile `latency_tail_ms` reads on a workload: the highest that
/// leaves at least ten samples beyond it in a 20 s window, on the slower
/// machine speeds too. That is p99 on the serving workloads, which
/// complete thousands of requests a window, and p90 on the plan
/// workloads: `plan-ilp` and `plan-mega` make a few hundred plan calls a
/// window, and `plan-corpus` about 1 100–2 000, which in a slow run leaves
/// fewer than ten beyond p99. It is fixed per workload, so that a slower
/// run is not read at another percentile; the report flags a run with
/// fewer than ten samples beyond it, and prints the highest tail each run
/// allows.
pub fn tail_quantile(workload: &str) -> f64 {
    match workload {
        "plan-corpus" | "plan-ilp" | "plan-mega" => 0.90,
        _ => 0.99,
    }
}

/// Set-up runs once before the warm-up (its product is measured) and then
/// again, products dropped, until it has run [`SETUPS`] times and for
/// [`SETUP_S`] seconds in all; `setup_s` is their median. The repetitions
/// are spread over the window, between its passes or rounds (see
/// [`Setups::due`]): run back to back after it, a set-up of a few ms read
/// whichever of the machine's speeds held that second, and `plan-ilp`'s
/// set-up spread by 39% between seeds.
const SETUPS: usize = 3;
const SETUP_S: f64 = 1.0;

/// How long the warm-up runs; every workload completes the pass or round
/// in progress.
const WARM_UP_S: f64 = 1.5;

/// Failure messages kept verbatim per window (the count is always exact).
const KEPT_FAILURES: usize = 8;

/// One invocation's settings.
#[derive(Debug, Clone, Copy)]
pub struct RunCtx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What one measured window produced.
#[derive(Debug, Default)]
pub struct Window {
    /// Latency of every served operation as timed, ms.
    pub latencies_ms: Vec<f64>,
    /// Operations completed within [`Window::seconds`]: every served one,
    /// except on `serve-*`, whose rounds count up to their last submission
    /// (see `serve::rounds`).
    pub completed: usize,
    /// Wall time of the window, seconds (set-ups repeated between its
    /// passes or rounds left out).
    pub seconds: f64,
    /// Operations attempted (plans or requests).
    pub attempted: u64,
    /// Operations that failed: shed, typed error, unservable, invalid plan,
    /// or a plan differing from its cold reference.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
}

impl Window {
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.failures.len() < KEPT_FAILURES {
            self.failures.push(message);
        }
    }

    /// Completions per second of wall time.
    pub fn throughput(&self) -> f64 {
        self.completed as f64 / self.seconds.max(1e-9)
    }

    /// Counts the operations of `other` (a warm-up) as this window's own,
    /// so its failures are reported.
    fn absorb(&mut self, other: Window) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = KEPT_FAILURES.saturating_sub(self.failures.len());
        self.failures.extend(other.failures.into_iter().take(room));
    }
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Everything a workload run hands to the report.
pub struct Outcome {
    /// Duration of each set-up repetition, seconds.
    pub setup_s: Vec<f64>,
    /// The untraced window: the end-to-end metrics come from here.
    pub window: Window,
    /// See [`Windows::peak_rss_mb`].
    pub peak_rss_mb: f64,
    /// The traced window, in trace mode.
    pub traced: Option<Window>,
    /// Eq. 26 objective summed over the distinct instances served.
    pub objective_sum: f64,
    pub distinct_instances: usize,
    /// Per-layer values (trace mode only).
    pub layers: Layers,
    pub tracer: Option<Tracer>,
    /// Extra lines for the human report.
    pub notes: Vec<String>,
}

/// A workload's timed set-up and its repetitions.
pub struct Setups<'a> {
    /// Sets up again, dropping the product.
    again: Box<dyn FnMut() + 'a>,
    /// Duration of each set-up, seconds; `setup_s` is their median.
    times: Vec<f64>,
    /// Set-ups a run makes: at least [`SETUPS`], and enough to last
    /// [`SETUP_S`] at the first one's duration.
    target: usize,
}

impl<'a> Setups<'a> {
    /// Runs `setup` once, timed, and returns the record with the product,
    /// which the run measures.
    pub fn start<T>(setup: impl Fn() -> T + 'a) -> (Self, T) {
        let t = Instant::now();
        let product = setup();
        let first = t.elapsed().as_secs_f64();
        let setups = Setups {
            again: Box::new(move || drop(setup())),
            times: vec![first],
            target: SETUPS.max((SETUP_S / first.max(1e-6)).ceil() as usize),
        };
        (setups, product)
    }

    fn once(&mut self) -> f64 {
        let t = Instant::now();
        (self.again)();
        let took = t.elapsed().as_secs_f64();
        self.times.push(took);
        took
    }

    /// Runs the repetitions due once `share` of the window has passed, so
    /// that they spread evenly over it, and returns the seconds they took
    /// (which the window leaves out).
    pub fn due(&mut self, share: f64) -> f64 {
        let due = (self.target as f64 * share.min(1.0)).ceil() as usize;
        let mut took = 0.0;
        while self.times.len() < due {
            took += self.once();
        }
        took
    }

    /// Makes the repetitions still missing and returns every duration.
    pub fn finish(mut self) -> Vec<f64> {
        while self.times.len() < self.target || self.times.iter().sum::<f64>() < SETUP_S {
            self.once();
        }
        self.times
    }
}

/// The measured windows of one run: the untraced window and, in trace mode,
/// the traced one with its spans.
pub struct Windows<R> {
    pub untraced: (Window, R),
    /// [`peak_rss_mb`] after the first set-up and the warm-up: the inputs,
    /// the servers and a pass or round of the work, read before the window
    /// (see [`measure`]).
    pub peak_rss_mb: f64,
    pub traced: Option<(Window, R, Tracer)>,
}

/// Called by a window between its passes or rounds with the share of it
/// that has passed; returns the seconds it took, which the window leaves
/// out of its own time.
pub type Between<'b> = &'b mut dyn FnMut(f64) -> f64;

/// Runs `measure` for a warm-up, then for `ctx.seconds`, untraced; in
/// trace mode the window is instead an untraced half and then a traced
/// half, so the difference between the two is the tracing overhead. The
/// untraced window makes the set-up repetitions due between its passes or
/// rounds.
///
/// The peak resident set is read after the warm-up, not after the window.
/// On `wire-hits` it grows with every request served, about 15 KB each
/// (every connection of the socket server keeps each finished
/// per-request waiter thread unjoined, stack and all, until it closes),
/// so read after the window it counted the requests the window had time
/// for: it moved with throughput and spread by 13% in one set of ten
/// runs. The warm-up's growth still shows that cost.
pub fn measure<R>(
    ctx: &RunCtx,
    setups: &mut Setups,
    mut measure: impl FnMut(f64, Option<&Tracer>, Between) -> (Window, R),
) -> Windows<R> {
    let (warm_up, _) = measure(WARM_UP_S, None, &mut |_| 0.0);
    let peak_rss_mb = peak_rss_mb();
    let seconds = if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let (mut window, records) = measure(seconds, None, &mut |share| setups.due(share));
    window.absorb(warm_up);
    let traced = ctx.trace.then(|| {
        let tracer = Tracer::new();
        let (window, records) = measure(seconds, Some(&tracer), &mut |_| 0.0);
        (window, records, tracer)
    });
    Windows {
        untraced: (window, records),
        peak_rss_mb,
        traced,
    }
}

/// The `synth`/`gen` layer metrics of a set-up.
pub fn setup_layers(log: &SetupLog, layers: &mut Layers) {
    if !log.synth_ms.is_empty() {
        layers.insert(layers::SYNTH_MS, mean(&log.synth_ms));
    }
    if !log.gen_ms.is_empty() {
        layers.insert(layers::GEN_INSTANCE_MS, mean(&log.gen_ms));
        layers.insert(layers::GEN_UNSERVABLE, log.unservable.len() as f64);
    }
}

/// The note listing generated seeds set-up excluded.
pub fn unservable_note(log: &SetupLog) -> Option<String> {
    (!log.unservable.is_empty())
        .then(|| format!("gen.unservable: excluded seeds {:?}", log.unservable))
}

/// Runs the named workload.
pub fn run(name: &str, ctx: &RunCtx) -> Option<Outcome> {
    Some(match name {
        "plan-corpus" => crate::plan::corpus(ctx),
        "plan-ilp" => crate::plan::ilp(ctx),
        "plan-mega" => crate::plan::mega(ctx),
        "serve-solve" => crate::serve::solve(ctx),
        "serve-repair" => crate::serve::repair(ctx),
        "wire-hits" => crate::wire::hits(ctx),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_up_repetitions_spread_over_the_window() {
        let mut setups = Setups {
            again: Box::new(|| {}),
            times: vec![SETUP_S],
            target: 4,
        };
        // The second of four set-ups is due past a quarter of the window.
        assert_eq!(setups.due(0.25), 0.0);
        assert_eq!(setups.times.len(), 1);
        setups.due(0.3);
        assert_eq!(setups.times.len(), 2);
        setups.due(0.8);
        assert_eq!(setups.times.len(), 4);
        assert_eq!(setups.finish().len(), 4);
    }
}
