//! Command parsing and execution for the `pdw` binary.

use std::fmt;
use std::io::{self, Write};
use std::path::PathBuf;
use std::str::FromStr;
use std::sync::Arc;
use std::time::Duration;

use pathdriver_wash::codec::gate;
use pathdriver_wash::{
    dawo_ctx, pdw_ctx, plan_partitioned_ctx, verify, GateRejection, NetAddr, NetListener,
    PdwConfig, PlanContext, SCHEMA_VERSION,
};
use pdw_assay::benchmarks::{self, Benchmark};
use pdw_sim::Metrics;
use pdw_synth::{synthesize, Synthesis};

use CliError::{Runtime, Usage};

/// Usage text printed on errors and `pdw help`.
pub const USAGE: &str = "\
usage:
  pdw list                         list built-in benchmarks
  pdw show <benchmark>             print chip layout and ASCII schedule
  pdw run  <benchmark> [options]   run DAWO vs PathDriver-Wash
  pdw run  --assay <file> [opts]   run a custom assay (JSON Benchmark)
  pdw repair <benchmark> [options] plan once, then apply seeded chip-fault
                                   deltas and repair incrementally, diffing
                                   each repair against a cold solve
  pdw serve [options]              start an in-process plan server and replay
                                   a seeded open-loop request stream at it,
                                   reporting latency and cache behavior
  pdw serve --listen <addr>        expose the plan server on a socket (addr:
                                   host:port or unix:PATH) speaking the framed
                                   wire protocol; runs until drained
  pdw serve --drain <addr>         ask a listening server to drain gracefully
                                   (stop accepting, finish in-flight work)
  pdw verify [options]             differentially verify every solver
  pdw export <benchmark> <file>    write a benchmark as JSON (edit & re-run)

A command refuses, as a usage error, any argument this text does not list
for it.

options for `run`:
  --budget <seconds>   ILP wall-clock budget per run (default 5)
  --pipeline-budget <ms>
                       wall-clock deadline for the whole pipeline; expired
                       checkpoints degrade later stages instead of aborting
                       (default: unlimited)
  --threads <n>        worker threads for candidate enumeration and the ILP
                       solver (default 0 = all cores)
  --partitions <k>     cut the chip into k regions along low-traffic columns,
                       plan them in parallel, and stitch at the seams
                       (default 1 = whole-chip planning; clamped to the
                       number of viable cuts)
  --connect <addr>     client mode: send the solve to a `pdw serve --listen`
                       endpoint instead of planning locally; the served
                       artifact is certificate-verified before printing.
                       Uses the server's default planner config; retries
                       retryable transport faults with backoff
  --no-ilp             greedy placement only
  --validate           re-check results with the simulator validator and the
                       contamination-propagation oracle (default in debug
                       builds; --no-validate to disable)
  --json <file>        write metrics of both methods as JSON
  --svg <dir>          write chip.svg, base.svg, dawo.svg, pdw.svg Gantt charts
  --valves             also print control-layer (valve) statistics
  --stats              also print device utilization and parallelism
  --heatmap <file>     write an SVG contamination heatmap of the base schedule

options for `repair`:
  --steps <n>          seeded fault deltas to apply and repair (default 3)
  --seed <s>           delta-sampling seed (default 0)
  --delay <seconds>    also delay the first scheduled op by this much as a
                       final delta (default: off)
  --threads <n>, --partitions <k>, --pipeline-budget <ms>  as for `run`
                       (the repair ladder always runs without the ILP)

options for `serve`:
  --requests <n>       stream length (default 200)
  --pool <k>           distinct instances: the demo chip plus k-1 seeded
                       fault-injected variants (default 4)
  --workers <n>        server worker threads (default 2)
  --seed <s>           stream seed (default 0)
  --gap-us <us>        mean inter-arrival gap, microseconds (default 500;
                       arrivals are paced open-loop against wall time)
  --reuse <pct>        percent of requests re-targeting a touched instance
                       (default 70)
  --deltas <pct>       percent of re-targeting requests that are repair
                       deltas (default 15)
  --deadline-ms <ms>   per-request deadline budget (default: none)
  --shed-budget <c>    admission cost budget (default: unlimited)
  --memo-path <file>   persistent memo store: an append-only log of certified
                       plan artifacts, compacted on open; entries survive
                       restarts and are served only after their verification
                       certificate re-verifies against the request
  --json <file>        write the load report as JSON
  (--listen mode accepts --workers, --shed-budget, --memo-path, and
   --idle-ms <ms>, the per-connection idle eviction timeout)

options for `verify`:
  --smoke              fast CI profile: bundled suite + 25 seeds, greedy only
                       (with --faults: 8 chaos seeds)
  --faults             chaos mode: replay the degradation ladder on seeded
                       fault-injected chips under a sweep of deadlines and
                       thread counts; every served plan must be oracle-clean
                       on the faulted chip and bit-identical across threads
  --seeds <n>          number of seeded random instances (default 10)
  --seed <s>           verify one seed only; shrinks the instance on failure
  --partitions <list>  needs --faults: comma-separated partition counts to
                       sweep (default 1; counts > 1 drive the partitioned
                       planner under the same chaos contract)
  --no-ilp             skip the budget-bound ILP pipeline
  --budget <seconds>   ILP wall-clock budget per instance (default 2)
  --repro <file>       failure report target (default verify-repro.txt)";

/// A CLI-level error with a user-facing message.
#[derive(Debug)]
pub enum CliError {
    /// The command line itself is wrong: an unknown command, or a missing,
    /// unparsable or unlisted argument. The usage text belongs after the
    /// message.
    Usage(String),
    /// The command ran and failed; the message alone says why.
    Runtime(String),
    /// Stdout's reader went away (a broken pipe, as in `pdw list | head
    /// -1`): the command stops, and `pdw` exits 0 without a message.
    StdoutClosed,
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(msg) | CliError::Runtime(msg) => f.write_str(msg),
            CliError::StdoutClosed => f.write_str("stdout closed"),
        }
    }
}

impl std::error::Error for CliError {}

fn err<T>(msg: impl Into<String>) -> Result<T, CliError> {
    Err(Runtime(msg.into()))
}

fn usage_err<T>(msg: impl Into<String>) -> Result<T, CliError> {
    Err(Usage(msg.into()))
}

/// Writes `args` to stdout. A failed write (a full disk) is a
/// [`CliError::Runtime`] — exit code 1 — instead of `print!`'s panic; a
/// closed pipe is [`CliError::StdoutClosed`].
fn write_stdout(args: fmt::Arguments<'_>) -> Result<(), CliError> {
    let mut stdout = io::stdout().lock();
    stdout
        .write_fmt(args)
        .and_then(|()| stdout.flush())
        .map_err(|e| match e.kind() {
            io::ErrorKind::BrokenPipe => CliError::StdoutClosed,
            _ => Runtime(format!("cannot write to stdout: {e}")),
        })
}

/// `println!` through [`write_stdout`]: returns the write error from the
/// enclosing function.
macro_rules! out {
    ($($arg:tt)*) => {
        write_stdout(format_args!("{}\n", format_args!($($arg)*)))?
    };
}

/// Reads one command's arguments front to back. Every parser drives it the
/// same way: iteration yields each argument, [`ArgReader::value`] reads the
/// operand of the flag just seen, parsed to its type, and [`refuse`] turns
/// an argument the command does not list into a usage error.
struct ArgReader<'a>(std::slice::Iter<'a, String>);

impl<'a> Iterator for ArgReader<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        self.0.next().map(String::as_str)
    }
}

impl<'a> ArgReader<'a> {
    fn new(args: &'a [String]) -> Self {
        ArgReader(args.iter())
    }

    /// The operand of `flag`, parsed as a `T`.
    fn value<T: FromStr>(&mut self, flag: &str) -> Result<T, CliError> {
        let v = self
            .next()
            .ok_or_else(|| Usage(format!("{flag} needs a value")))?;
        v.parse()
            .map_err(|_| Usage(format!("bad {flag} value `{v}`")))
    }

    /// The next positional operand, taken as written; `needs` is the usage
    /// error when it is missing.
    fn operand(&mut self, needs: &str) -> Result<&'a str, CliError> {
        self.next().ok_or_else(|| Usage(needs.to_string()))
    }

    /// Refuses whatever argument is left.
    fn end(mut self) -> Result<(), CliError> {
        self.next().map_or(Ok(()), refuse)
    }
}

/// The usage error for an argument the command does not list.
fn refuse<T>(arg: &str) -> Result<T, CliError> {
    if arg.starts_with('-') {
        usage_err(format!("unknown option `{arg}`"))
    } else {
        usage_err(format!("unexpected argument `{arg}`"))
    }
}

fn builtin(name: &str) -> Option<Benchmark> {
    let all: Vec<Benchmark> = benchmarks::suite()
        .into_iter()
        .chain([benchmarks::demo()])
        .collect();
    all.into_iter().find(|b| b.name.eq_ignore_ascii_case(name))
}

/// Parses and executes a command line.
///
/// # Errors
///
/// Returns a [`CliError`] with a user-facing message on unknown commands,
/// missing arguments, I/O failures, or pipeline failures.
pub fn dispatch(args: &[String]) -> Result<(), CliError> {
    let rest = args.get(1..).unwrap_or_default();
    match args.first().map(String::as_str) {
        Some("list") => cmd_list(rest),
        Some("show") => cmd_show(rest),
        Some("run") => cmd_run(rest),
        Some("repair") => cmd_repair(rest),
        Some("serve") => cmd_serve(rest),
        Some("verify") => cmd_verify(rest),
        Some("export") => cmd_export(rest),
        Some("help") | None => {
            out!("{USAGE}");
            Ok(())
        }
        Some(other) => usage_err(format!("unknown command `{other}`")),
    }
}

fn cmd_list(args: &[String]) -> Result<(), CliError> {
    ArgReader::new(args).end()?;
    out!(
        "{:<14} {:>4} {:>4} {:>4}  grid",
        "name",
        "|O|",
        "|D|",
        "|E|"
    );
    for b in benchmarks::suite().into_iter().chain([benchmarks::demo()]) {
        out!(
            "{:<14} {:>4} {:>4} {:>4}  {}x{}",
            b.name,
            b.op_count(),
            b.device_count(),
            b.edge_count(),
            b.grid.0,
            b.grid.1
        );
    }
    Ok(())
}

fn cmd_show(args: &[String]) -> Result<(), CliError> {
    let mut a = ArgReader::new(args);
    let name = a.operand("`show` needs a benchmark name")?;
    a.end()?;
    let bench = builtin(name).ok_or_else(|| Usage(format!("no benchmark `{name}`")))?;
    let s = synthesize(&bench).map_err(|e| Runtime(format!("synthesis failed: {e}")))?;
    out!("{}", bench.graph);
    out!("{}", s.chip.grid());
    for d in s.chip.devices() {
        out!("  {}", d);
    }
    out!("\nwash-free schedule ({} s):", s.schedule.makespan());
    write_stdout(format_args!("{}", pdw_viz::ascii::gantt(&s.schedule, 80)))?;
    Ok(())
}

struct RunOptions {
    bench: Benchmark,
    budget: u64,
    pipeline_budget: Option<Duration>,
    threads: usize,
    partitions: usize,
    connect: Option<String>,
    ilp: bool,
    validate: bool,
    json: Option<String>,
    svg: Option<String>,
    valves: bool,
    stats: bool,
    heatmap: Option<String>,
}

/// The arguments `run` and `repair` share: the benchmark and how to plan
/// it.
struct PlanFlags {
    bench: Option<Benchmark>,
    threads: usize,
    partitions: usize,
    pipeline_budget: Option<Duration>,
}

impl PlanFlags {
    fn new() -> Self {
        PlanFlags {
            bench: None,
            threads: 0,
            partitions: 1,
            pipeline_budget: None,
        }
    }

    /// Takes `arg` (and its operand) when it is one of the shared flags or
    /// the benchmark name; `false` when it is not.
    fn take(&mut self, arg: &str, a: &mut ArgReader) -> Result<bool, CliError> {
        match arg {
            "--threads" => self.threads = a.value(arg)?,
            "--partitions" => {
                self.partitions = a.value(arg)?;
                if self.partitions == 0 {
                    return usage_err("--partitions needs at least 1");
                }
            }
            "--pipeline-budget" => {
                self.pipeline_budget = Some(Duration::from_millis(a.value(arg)?))
            }
            name if self.bench.is_none() && !name.starts_with('-') => {
                let bench = builtin(name).ok_or_else(|| Usage(format!("no benchmark `{name}`")))?;
                self.bench = Some(bench);
            }
            _ => return Ok(false),
        }
        Ok(true)
    }
}

fn parse_run(args: &[String]) -> Result<RunOptions, CliError> {
    let mut plan = PlanFlags::new();
    let mut budget = 5;
    let mut connect = None;
    let mut ilp = true;
    // Release runs are timing-sensitive; debug runs get the safety net.
    let mut validate = cfg!(debug_assertions);
    let (mut json, mut svg, mut heatmap) = (None, None, None);
    let (mut valves, mut stats) = (false, false);
    let mut a = ArgReader::new(args);
    while let Some(arg) = a.next() {
        match arg {
            "--assay" => {
                let path: String = a.value(arg)?;
                let text = std::fs::read_to_string(&path)
                    .map_err(|e| Runtime(format!("cannot read {path}: {e}")))?;
                let b: Benchmark = serde_json::from_str(&text)
                    .map_err(|e| Runtime(format!("invalid assay JSON: {e}")))?;
                // serde bypasses the builder's checks; re-validate.
                b.graph
                    .revalidate()
                    .map_err(|e| Runtime(format!("invalid assay graph: {e}")))?;
                plan.bench = Some(b);
            }
            "--budget" => budget = a.value(arg)?,
            "--connect" => connect = Some(a.value(arg)?),
            "--no-ilp" => ilp = false,
            "--validate" => validate = true,
            "--no-validate" => validate = false,
            "--json" => json = Some(a.value(arg)?),
            "--svg" => svg = Some(a.value(arg)?),
            "--valves" => valves = true,
            "--stats" => stats = true,
            "--heatmap" => heatmap = Some(a.value(arg)?),
            _ if plan.take(arg, &mut a)? => {}
            other => return refuse(other),
        }
    }
    Ok(RunOptions {
        bench: plan
            .bench
            .ok_or(Usage("`run` needs a benchmark name or --assay".into()))?,
        budget,
        pipeline_budget: plan.pipeline_budget,
        threads: plan.threads,
        partitions: plan.partitions,
        connect,
        ilp,
        validate,
        json,
        svg,
        valves,
        stats,
        heatmap,
    })
}

/// Prints every ladder attempt with its wall time — served rungs and typed
/// rejections alike.
fn print_ladder(outcome: &pathdriver_wash::PlanOutcome) -> Result<(), CliError> {
    for a in &outcome.attempts {
        match &a.rejection {
            None if outcome.rung == Some(a.rung) => {
                out!("ladder: {} served in {:.3}s", a.rung, a.wall_s);
            }
            None => out!("ladder: {} in {:.3}s", a.rung, a.wall_s),
            Some(r) => out!("ladder: {} rejected in {:.3}s: {r}", a.rung, a.wall_s),
        }
    }
    Ok(())
}

/// Prints the incremental-repair counters when the result came from a
/// [`RepairSession`](pathdriver_wash::RepairSession) repair.
fn print_repair_stats(ps: &pathdriver_wash::PipelineStats) -> Result<(), CliError> {
    if ps.repairs == 0 {
        return Ok(());
    }
    out!(
        "repair #{}: analyses {} invalidated / {} kept, front ends {} invalidated / {} kept, \
         reach fields {} recomputed / {} carried",
        ps.repairs,
        ps.repair_invalidated_analyses,
        ps.repair_kept_analyses,
        ps.repair_invalidated_front_ends,
        ps.repair_kept_front_ends,
        ps.repair_reach_recomputed,
        ps.repair_reach_carried,
    );
    out!(
        "repair #{}: {} prefix task(s) certified frozen{}",
        ps.repairs,
        ps.repair_prefix_frozen,
        if ps.repair_cache_served {
            "; cached plan re-served (no replan)"
        } else {
            ""
        }
    );
    Ok(())
}

struct RepairOptions {
    bench: Benchmark,
    steps: u64,
    seed: u64,
    delay: Option<u32>,
    threads: usize,
    partitions: usize,
    pipeline_budget: Option<Duration>,
}

fn parse_repair(args: &[String]) -> Result<RepairOptions, CliError> {
    let mut plan = PlanFlags::new();
    let (mut steps, mut seed, mut delay) = (3, 0, None);
    let mut a = ArgReader::new(args);
    while let Some(arg) = a.next() {
        match arg {
            "--steps" => steps = a.value(arg)?,
            "--seed" => seed = a.value(arg)?,
            "--delay" => delay = Some(a.value(arg)?),
            _ if plan.take(arg, &mut a)? => {}
            other => return refuse(other),
        }
    }
    Ok(RepairOptions {
        bench: plan
            .bench
            .ok_or(Usage("`repair` needs a benchmark name".into()))?,
        steps,
        seed,
        delay,
        threads: plan.threads,
        partitions: plan.partitions,
        pipeline_budget: plan.pipeline_budget,
    })
}

/// `pdw repair`: plan a benchmark once, then apply seeded chip-fault deltas
/// one by one, repairing incrementally and diffing every repaired plan
/// against a cold solve of the mutated instance. The repair ladder runs
/// without the ILP so cold and warm solves are deterministic and the diff
/// is meaningful bit for bit.
fn cmd_repair(args: &[String]) -> Result<(), CliError> {
    use pathdriver_wash::{PlanDelta, RepairSession};
    use std::time::Instant;

    let opts = parse_repair(args)?;
    let bench = opts.bench;
    let s: Synthesis = synthesize(&bench).map_err(|e| Runtime(format!("synthesis failed: {e}")))?;
    let config = PdwConfig {
        ilp: false,
        threads: opts.threads,
        pipeline_budget: opts.pipeline_budget,
        ..PdwConfig::default()
    };
    let mut session = RepairSession::new(bench.clone(), s, config).with_partitions(opts.partitions);

    let t = Instant::now();
    let first = session.plan();
    let cold_s = t.elapsed().as_secs_f64();
    print_ladder(&first)?;
    let Some(initial) = &first.served else {
        return err("initial plan served nothing");
    };
    out!(
        "{}: initial plan in {:.3}s ({} washes, makespan {}s)",
        bench.name,
        cold_s,
        initial.metrics.n_wash,
        initial.schedule.makespan()
    );

    // Deltas are drawn against the *evolving* chip, so a long run mixes
    // damage with healing of earlier damage.
    let total = opts.steps + u64::from(opts.delay.is_some());
    let mut applied = 0u64;
    for step in 0..total {
        let delta = if step < opts.steps {
            match pdw_gen::fault_delta(session.synthesis(), opts.seed ^ step) {
                Some(fd) => PlanDelta::Fault(fd),
                None => {
                    out!("step {step}: chip offers nothing left to mutate; stopping");
                    break;
                }
            }
        } else {
            let Some(op) = session.synthesis().schedule.ops().first() else {
                break;
            };
            PlanDelta::DelayOp {
                op: op.op,
                delay: opts.delay.expect("delay step only exists with --delay"),
            }
        };
        let delta = &delta;
        let t = Instant::now();
        let outcome = session.repair(delta);
        let repair_s = t.elapsed().as_secs_f64();
        print_ladder(&outcome)?;
        let Some(repaired) = &outcome.served else {
            return err(format!("step {step} ({delta}): repair served nothing"));
        };

        let t = Instant::now();
        let cold = session.cold_reference();
        let cold_s = t.elapsed().as_secs_f64();
        let matches = match &cold.served {
            Some(c) => c.schedule == repaired.schedule && c.metrics == repaired.metrics,
            None => false,
        };
        out!(
            "step {step}: {delta} — repaired in {:.4}s vs cold {:.4}s ({:.1}x), plan {}",
            repair_s,
            cold_s,
            cold_s / repair_s.max(1e-9),
            if matches {
                "bit-identical to cold solve"
            } else {
                "DIFFERS from cold solve"
            }
        );
        print_repair_stats(&repaired.pipeline)?;
        if !matches {
            return err(format!(
                "step {step} ({delta}): repaired plan differs from a cold solve"
            ));
        }
        applied += 1;
    }
    out!("repair: {applied} delta(s) applied, all repaired plans matched cold solves");
    Ok(())
}

/// The flags `serve` and `serve --listen` share: how the plan server runs.
struct ServerFlags {
    workers: usize,
    shed_budget: u64,
    memo_path: Option<PathBuf>,
}

impl ServerFlags {
    /// Takes `arg` and its operand when it is one of the shared flags;
    /// `false` when it is not.
    fn take(&mut self, arg: &str, a: &mut ArgReader) -> Result<bool, CliError> {
        match arg {
            "--workers" => self.workers = a.value::<usize>(arg)?.max(1),
            "--shed-budget" => self.shed_budget = a.value(arg)?,
            "--memo-path" => self.memo_path = Some(a.value(arg)?),
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Starts the plan server. The `--memo-path` store opens first, so a
    /// path that cannot be opened or created is an error naming it.
    fn start(&self) -> Result<pdw_serve::PlanServer, CliError> {
        use pdw_serve::{FileMemoStore, MemoStore, PlanServer, ServeConfig, WallClock};
        let store = match &self.memo_path {
            None => None,
            Some(path) => {
                let (store, _) = FileMemoStore::open(path).map_err(|e| {
                    Runtime(format!("cannot open memo store {}: {e}", path.display()))
                })?;
                Some(Arc::new(store) as Arc<dyn MemoStore>)
            }
        };
        Ok(PlanServer::start_with(
            ServeConfig {
                workers: self.workers,
                queue_cost_budget: self.shed_budget,
                ..ServeConfig::default()
            },
            Arc::new(WallClock::new()),
            None,
            store,
        ))
    }
}

/// What `pdw serve` was asked to do. `--listen` anywhere on the line picks
/// the socket mode, else `--drain` the drain request, else the replay.
enum ServeMode {
    /// The stream to replay, the per-request deadline and the `--json` file.
    Replay(pdw_gen::StreamOptions, Option<Duration>, Option<String>),
    /// The address to listen on and the `--idle-ms` eviction timeout.
    Listen(NetAddr, Option<u64>),
    /// The address of the server to drain.
    Drain(NetAddr),
}

fn parse_serve(args: &[String]) -> Result<(ServerFlags, ServeMode), CliError> {
    let listen = args.iter().any(|a| a == "--listen");
    let drain = !listen && args.iter().any(|a| a == "--drain");
    let replay = !listen && !drain;
    let mut server = ServerFlags {
        workers: 2,
        shed_budget: u64::MAX,
        memo_path: None,
    };
    let mut stream = pdw_gen::StreamOptions {
        seed: 0,
        requests: 200,
        pool: 4,
        mean_gap_us: 500,
        reuse: 0.70,
        delta_ratio: 0.15,
    };
    let (mut addr, mut idle_ms, mut deadline, mut json) = (None, None, None, None);
    let mut a = ArgReader::new(args);
    while let Some(arg) = a.next() {
        match arg {
            "--listen" if listen => addr = Some(a.value::<String>(arg)?),
            "--drain" if drain => addr = Some(a.value::<String>(arg)?),
            "--idle-ms" if listen => idle_ms = Some(a.value(arg)?),
            "--requests" if replay => stream.requests = a.value(arg)?,
            "--pool" if replay => stream.pool = a.value::<usize>(arg)?.max(1),
            "--seed" if replay => stream.seed = a.value(arg)?,
            "--gap-us" if replay => stream.mean_gap_us = a.value::<u64>(arg)?.max(1),
            "--reuse" if replay => stream.reuse = a.value::<u64>(arg)?.min(100) as f64 / 100.0,
            "--deltas" if replay => {
                stream.delta_ratio = a.value::<u64>(arg)?.min(100) as f64 / 100.0
            }
            "--deadline-ms" if replay => deadline = Some(Duration::from_millis(a.value(arg)?)),
            "--json" if replay => json = Some(a.value(arg)?),
            _ if !drain && server.take(arg, &mut a)? => {}
            other => return refuse(other),
        }
    }
    if replay {
        return Ok((server, ServeMode::Replay(stream, deadline, json)));
    }
    let flag = if listen { "--listen" } else { "--drain" };
    let addr = addr.ok_or_else(|| Usage(format!("{flag} needs a value")))?;
    let addr = NetAddr::parse(&addr).map_err(Usage)?;
    let mode = if listen {
        ServeMode::Listen(addr, idle_ms)
    } else {
        ServeMode::Drain(addr)
    };
    Ok((server, mode))
}

fn cmd_serve(args: &[String]) -> Result<(), CliError> {
    let (server, mode) = parse_serve(args)?;
    match mode {
        ServeMode::Replay(stream, deadline, json) => {
            cmd_serve_replay(&server, &stream, deadline, json)
        }
        ServeMode::Listen(addr, idle_ms) => cmd_serve_listen(&server, &addr, idle_ms),
        ServeMode::Drain(addr) => cmd_serve_drain(addr),
    }
}

/// `pdw serve --listen`: put a [`pdw_serve::PlanServer`] on a socket and
/// serve framed solve requests until a client sends the admin `Drain`
/// frame, then finish in-flight work and exit cleanly.
fn cmd_serve_listen(
    flags: &ServerFlags,
    addr: &NetAddr,
    idle_ms: Option<u64>,
) -> Result<(), CliError> {
    use pdw_serve::{NetConfig, SocketServer};

    let server = Arc::new(flags.start()?);
    let listener = NetListener::bind(addr).map_err(|e| Runtime(e.to_string()))?;
    let mut net_cfg = NetConfig::default();
    if let Some(ms) = idle_ms {
        net_cfg.idle_timeout = Duration::from_millis(ms.max(1));
    }
    let sock = SocketServer::start(Arc::clone(&server), listener, net_cfg);
    out!(
        "pdw serve: listening on {} (codec v{}, {} planner worker(s)) — \
         stop with `pdw serve --drain {}`",
        sock.local_addr(),
        SCHEMA_VERSION,
        flags.workers,
        sock.local_addr()
    );
    // The accept loop owns the work; this thread just waits for the drain
    // frame to land and the last in-flight solve to finish.
    while !(sock.is_draining() && sock.in_flight() == 0) {
        std::thread::sleep(Duration::from_millis(50));
    }
    sock.drain();
    let ns = sock.stats();
    out!(
        "pdw serve: drained — {} connection(s) accepted, {} solve(s) ({} answered by key), \
         {} ping(s), {} bad request(s), {} idle-evicted, {} refused during drain",
        ns.accepted,
        ns.solves,
        ns.key_hits,
        ns.pings,
        ns.bad_requests,
        ns.idle_evicted,
        ns.drain_refused
    );
    let stats = server.stats();
    out!(
        "pdw serve: planner did {} solve(s), {} memo hit(s), {} repair(s)",
        stats.solves,
        stats.memo_hits,
        stats.repairs
    );
    server.shutdown();
    Ok(())
}

/// `pdw serve --drain ADDR`: ask a listening server to drain and exit.
fn cmd_serve_drain(addr: NetAddr) -> Result<(), CliError> {
    use pdw_serve::{ClientConfig, PlanClient};
    let mut client = PlanClient::new(addr, ClientConfig::default());
    let in_flight = client
        .drain()
        .map_err(|e| Runtime(format!("drain failed: {e}")))?;
    out!("drain acknowledged; {in_flight} request(s) still in flight");
    Ok(())
}

/// `pdw serve`: replay a seeded open-loop request stream at an in-process
/// plan server and report latency and cache behaviour.
fn cmd_serve_replay(
    flags: &ServerFlags,
    stream: &pdw_gen::StreamOptions,
    deadline: Option<Duration>,
    json: Option<String>,
) -> Result<(), CliError> {
    use pdw_serve::{materialize, run_open_loop, Instance};

    let server = flags.start()?;

    // The pool: the demo instance plus seeded fault-injected variants, so
    // the stream exercises distinct chip hashes through the context LRU.
    let bench = benchmarks::demo();
    let base = synthesize(&bench).map_err(|e| Runtime(format!("synthesis failed: {e}")))?;
    let mut pool = vec![Arc::new(Instance::new(bench.clone(), base.clone()))];
    let mut fault_seed = stream.seed;
    while pool.len() < stream.pool {
        fault_seed += 1;
        let variant = pdw_gen::inject_faults(&base, fault_seed);
        let instance = Instance::new(bench.clone(), variant);
        if pool
            .iter()
            .all(|p: &Arc<Instance>| p.chip_hash() != instance.chip_hash())
        {
            pool.push(Arc::new(instance));
        }
    }

    let events = pdw_gen::request_stream(stream);
    let timed = materialize(&events, &pool, deadline);

    out!(
        "serve: {} requests over {} instance(s), {} worker(s), mean gap {}us",
        stream.requests,
        pool.len(),
        flags.workers,
        stream.mean_gap_us
    );
    let run = run_open_loop(&server, &timed, true);
    server.shutdown();

    let r = &run.report;
    out!(
        "  served {}/{} ({} shed, {} errors) in {:.3}s — {:.0} plans/s",
        r.served,
        r.requests,
        r.shed,
        r.errors,
        r.wall_s,
        r.plans_per_sec
    );
    out!("  latency p50 {:.3}ms  p99 {:.3}ms", r.p50_ms, r.p99_ms);
    out!(
        "  memo hits {} ({:.3}ms p50) vs cold solves ({:.3}ms p50): {:.1}x",
        r.memo_hits,
        r.hit_service_p50_ms,
        r.cold_service_p50_ms,
        r.memo_hit_speedup
    );
    let stats = server.stats();
    out!(
        "  caches: {} solves, {} repairs, LRU {} warm / {} pool / {} miss / {} evicted",
        stats.solves,
        stats.repairs,
        stats.lru_warm_hits,
        stats.lru_pool_hits,
        stats.lru_misses,
        stats.lru_evictions
    );
    if stats.persist_entries > 0 || stats.persist_hits > 0 || stats.persist_rejected > 0 {
        out!(
            "  persistent memo: {} entries, {} hits, {} rejected",
            stats.persist_entries,
            stats.persist_hits,
            stats.persist_rejected
        );
    }
    if let Some(path) = json {
        std::fs::write(
            &path,
            serde_json::to_string_pretty(r).expect("serializable"),
        )
        .map_err(|e| Runtime(format!("cannot write {path}: {e}")))?;
        out!("  report written to {path}");
    }
    Ok(())
}

/// `pdw run --connect`: ship the instance to a `pdw serve --listen` server
/// and print the served, certificate-verified plan. The request carries the
/// server's own planner configuration (clients of a listening server always
/// plan under [`pdw_serve::ServeConfig::default`] — the server rejects any
/// other fingerprint as a typed `BadRequest`).
fn cmd_run_connect(opts: &RunOptions, addr: &str) -> Result<(), CliError> {
    use pdw_serve::{ClientConfig, PlanClient};
    let bench = &opts.bench;
    let s: Synthesis = synthesize(bench).map_err(|e| Runtime(format!("synthesis failed: {e}")))?;
    let addr = NetAddr::parse(addr).map_err(Usage)?;
    let mut client = PlanClient::new(addr, ClientConfig::default());
    let config = pdw_serve::ServeConfig::default().planner;
    let remote = client
        .solve(bench, &s, &config, opts.pipeline_budget)
        .map_err(|e| Runtime(format!("remote solve failed: {e}")))?;
    let result = &remote.artifact.result;
    out!(
        "remote plan for {} via {}: rung {}, {} wash(es), makespan {} s",
        bench.name,
        client
            .rtt()
            .map(|r| format!("socket (rtt {:.2}ms)", r.as_secs_f64() * 1e3))
            .unwrap_or_else(|| "socket".into()),
        remote.artifact.rung,
        result.metrics.n_wash,
        result.metrics.t_assay
    );
    out!(
        "  memo hit: {}, degraded: {}, retries: {} — certificate verified",
        remote.memo_hit,
        remote.degraded,
        remote.retried.len()
    );
    Ok(())
}

fn cmd_run(args: &[String]) -> Result<(), CliError> {
    let opts = parse_run(args)?;
    if let Some(addr) = opts.connect.clone() {
        return cmd_run_connect(&opts, &addr);
    }
    let bench = &opts.bench;
    let s: Synthesis = synthesize(bench).map_err(|e| Runtime(format!("synthesis failed: {e}")))?;
    let base = Metrics::measure(&bench.graph, &s.schedule);
    let config = PdwConfig {
        ilp: opts.ilp,
        ilp_budget: Duration::from_secs(opts.budget),
        pipeline_budget: opts.pipeline_budget,
        threads: opts.threads,
        ..PdwConfig::default()
    };
    // Both solvers share one PlanContext, so the necessity analysis and
    // routing state are computed once for the instance.
    let mut ctx = PlanContext::new(bench, &s);
    let d = dawo_ctx(&mut ctx).map_err(|e| Runtime(format!("dawo failed: {e}")))?;
    let p = if opts.partitions > 1 {
        let outcome = plan_partitioned_ctx(&mut ctx, &config, opts.partitions);
        // Every rung reports its wall time, the Partitioned one included.
        print_ladder(&outcome)?;
        let rungs: Vec<String> = outcome
            .attempts
            .iter()
            .map(|a| format!("{} {:.3}s", a.rung, a.wall_s))
            .collect();
        outcome.served.ok_or_else(|| {
            Runtime(format!(
                "partitioned planner served no plan (rungs tried: {})",
                rungs.join(", ")
            ))
        })?
    } else {
        pdw_ctx(&mut ctx, &config).map_err(|e| Runtime(format!("pdw failed: {e}")))?
    };

    if opts.validate {
        for (name, sched) in [("dawo", &d.schedule), ("pdw", &p.schedule)] {
            gate(&s.chip, &bench.graph, sched).map_err(|e| {
                Runtime(match e {
                    GateRejection::Invalid(e) => format!("{name}: invalid schedule: {e}"),
                    GateRejection::Contaminated(_) => {
                        format!("{name}: contamination oracle found {e}")
                    }
                })
            })?;
        }
        out!("validate: both schedules physically valid and oracle-clean");
    }

    out!(
        "benchmark {} (|O|={}, |D|={}, |E|={})",
        bench.name,
        bench.op_count(),
        bench.device_count(),
        bench.edge_count()
    );
    out!(
        "{:<22} {:>10} {:>10} {:>10}",
        "metric",
        "base",
        "DAWO",
        "PDW"
    );
    out!(
        "{:<22} {:>10} {:>10} {:>10}",
        "N_wash",
        0,
        d.metrics.n_wash,
        p.metrics.n_wash
    );
    out!(
        "{:<22} {:>10.0} {:>10.0} {:>10.0}",
        "L_wash (mm)",
        0.0,
        d.metrics.l_wash_mm,
        p.metrics.l_wash_mm
    );
    out!(
        "{:<22} {:>10} {:>10} {:>10}",
        "T_assay (s)",
        base.t_assay,
        d.metrics.t_assay,
        p.metrics.t_assay
    );
    out!(
        "{:<22} {:>10} {:>10} {:>10}",
        "T_delay (s)",
        0,
        d.metrics.delay_vs(&base),
        p.metrics.delay_vs(&base)
    );
    out!(
        "{:<22} {:>10} {:>10} {:>10}",
        "total wash time (s)",
        0,
        d.metrics.total_wash_time,
        p.metrics.total_wash_time
    );
    out!(
        "{:<22} {:>10.2} {:>10.2} {:>10.2}",
        "avg op wait (s)",
        base.avg_wait,
        d.metrics.avg_wait,
        p.metrics.avg_wait
    );
    out!(
        "PDW: {} removals integrated, ILP used: {}",
        p.integrated,
        p.solver.used_ilp
    );
    let ps = &p.pipeline;
    out!(
        "pipeline: necessity {:.3}s, grouping {:.3}s, merge {:.3}s, greedy {:.3}s, \
         ilp {:.3}s (total {:.3}s, {} threads)",
        ps.necessity_s,
        ps.grouping_s,
        ps.merge_s,
        ps.greedy_s,
        ps.ilp_s,
        ps.total_s,
        ps.threads
    );
    out!(
        "pipeline: {} groups, {} candidate paths, {} route calls ({} BFS legs, {} scratch reuses)",
        ps.groups,
        ps.candidates,
        ps.route_calls,
        ps.bfs_runs,
        ps.scratch_reuses
    );
    if ps.partition_regions > 0 {
        out!(
            "pipeline: partitioned into {} region(s) ({} skipped, {} refused), {} seam group(s)",
            ps.partition_regions,
            ps.regions_skipped,
            ps.regions_refused,
            ps.seam_groups
        );
    }
    print_repair_stats(ps)?;
    let events = ps.degradation_events();
    if !events.is_empty() {
        out!("pipeline: degraded — {}", events.join("; "));
    }
    if let Some(st) = &p.solver.stats {
        out!(
            "solver: {}x{} model, {} nodes in {:.2}s ({:.0} nodes/s, {} threads), {} pivots, \
             warm/cold LPs {}/{} ({} fallbacks, {} rebuilds, {} repair pivots)",
            st.rows,
            st.cols,
            st.nodes,
            st.search_time_s,
            st.nodes_per_sec,
            st.threads,
            st.lp_pivots,
            st.warm_lps,
            st.cold_lps,
            st.warm_start_fallbacks,
            st.refactorizations,
            st.basis_repair_pivots
        );
        if let Some(t) = st.time_to_first_incumbent_s {
            out!("solver: first incumbent after {:.3}s, {} improvements, presolve removed {} rows / tightened {} bounds in {:.3}s",
                t,
                st.incumbent_timeline.len(),
                st.presolve.rows_removed,
                st.presolve.bounds_tightened,
                st.presolve_time_s
            );
        }
    }

    if let Some(path) = &opts.heatmap {
        let analysis = pdw_contam::analyze(
            &s.chip,
            &bench.graph,
            &s.schedule,
            pdw_contam::NecessityOptions::full(),
        );
        let svg =
            pdw_viz::heatmap::contamination(&s.chip, analysis.events.iter().map(|e| (e.cell, 1)));
        std::fs::write(path, svg).map_err(|e| Runtime(format!("cannot write {path}: {e}")))?;
        out!("wrote {path}");
    }

    if opts.stats {
        for (name, sched) in [
            ("base", &s.schedule),
            ("DAWO", &d.schedule),
            ("PDW", &p.schedule),
        ] {
            let st = pdw_sim::ScheduleStats::collect(&s.chip, sched);
            let busiest = st
                .devices
                .iter()
                .max_by(|a, b| a.utilization.partial_cmp(&b.utilization).expect("finite"))
                .expect("chips have devices");
            out!(
                "stats[{name}]: peak {} tasks, avg {:.2} tasks, busiest device {} at {:.0}%",
                st.peak_parallel_tasks,
                st.avg_parallel_tasks,
                s.chip.device(busiest.device).label(),
                busiest.utilization * 100.0
            );
        }
    }

    if opts.valves {
        for (name, sched) in [
            ("base", &s.schedule),
            ("DAWO", &d.schedule),
            ("PDW", &p.schedule),
        ] {
            let program = pdw_control::compile(&s.chip, sched);
            let stats = pdw_control::ControlStats::measure(&program);
            out!(
                "valves[{name}]: {} switches, peak {} open, {} events",
                stats.switches,
                stats.peak_open,
                stats.events
            );
        }
    }

    if let Some(path) = &opts.json {
        #[derive(serde::Serialize)]
        struct Out<'a> {
            benchmark: &'a str,
            base: &'a Metrics,
            dawo: &'a Metrics,
            pdw: &'a Metrics,
            integrated: usize,
        }
        let out = Out {
            benchmark: &bench.name,
            base: &base,
            dawo: &d.metrics,
            pdw: &p.metrics,
            integrated: p.integrated,
        };
        std::fs::write(
            path,
            serde_json::to_string_pretty(&out).expect("serializable"),
        )
        .map_err(|e| Runtime(format!("cannot write {path}: {e}")))?;
        out!("wrote {path}");
    }

    if let Some(dir) = &opts.svg {
        std::fs::create_dir_all(dir).map_err(|e| Runtime(format!("cannot create {dir}: {e}")))?;
        let writes = [
            ("chip.svg", pdw_viz::svg::chip(&s.chip, None)),
            ("base.svg", pdw_viz::svg::gantt(&s.chip, &s.schedule)),
            ("dawo.svg", pdw_viz::svg::gantt(&s.chip, &d.schedule)),
            ("pdw.svg", pdw_viz::svg::gantt(&s.chip, &p.schedule)),
        ];
        for (name, content) in writes {
            let path = format!("{dir}/{name}");
            std::fs::write(&path, content)
                .map_err(|e| Runtime(format!("cannot write {path}: {e}")))?;
            out!("wrote {path}");
        }
    }
    Ok(())
}

struct VerifyCliOptions {
    seeds: u64,
    seeds_explicit: bool,
    single_seed: Option<u64>,
    smoke: bool,
    faults: bool,
    partitions: Vec<usize>,
    opts: verify::VerifyOptions,
    repro: String,
}

fn parse_verify(args: &[String]) -> Result<VerifyCliOptions, CliError> {
    let mut o = VerifyCliOptions {
        seeds: 10,
        seeds_explicit: false,
        single_seed: None,
        smoke: false,
        faults: false,
        partitions: vec![1],
        opts: verify::VerifyOptions::default(),
        repro: "verify-repro.txt".to_string(),
    };
    let mut partitions_given = false;
    let mut a = ArgReader::new(args);
    while let Some(arg) = a.next() {
        match arg {
            "--smoke" => o.smoke = true,
            "--faults" => o.faults = true,
            "--partitions" => {
                let list: String = a.value(arg)?;
                o.partitions = list
                    .split(',')
                    .map(|p| {
                        p.trim()
                            .parse::<usize>()
                            .ok()
                            .filter(|&k| k >= 1)
                            .ok_or_else(|| Usage(format!("bad partition count `{p}`")))
                    })
                    .collect::<Result<Vec<usize>, CliError>>()?;
                partitions_given = true;
            }
            "--seeds" => {
                o.seeds = a.value(arg)?;
                o.seeds_explicit = true;
            }
            "--seed" => o.single_seed = Some(a.value(arg)?),
            "--no-ilp" => o.opts.ilp = false,
            "--budget" => o.opts.ilp_budget = Duration::from_secs(a.value(arg)?),
            "--repro" => o.repro = a.value(arg)?,
            other => return refuse(other),
        }
    }
    if partitions_given && !o.faults {
        return usage_err("--partitions needs --faults");
    }
    if o.smoke {
        o.opts.ilp = false;
        if !o.seeds_explicit {
            o.seeds = 25;
        }
    }
    Ok(o)
}

/// A seeded sweep, the part `verify` and `verify --faults` share: the
/// single-seed report, the skipped count, the failure list and the repro
/// file. The two differ in what one seed runs and in their wording.
struct SeedSweep<'a> {
    /// `verify` or `verify --faults`: heads the summary and the repro line.
    command: &'static str,
    /// `seed` or `chaos seed`: names each seed in its lines.
    label: &'static str,
    /// The line printed when every instance passed.
    passed: &'static str,
    /// Runs one seed: its report and its failures (none on a pass), or
    /// `None` when the seed's instance is infeasible.
    run: &'a dyn Fn(u64) -> Option<(String, Vec<String>)>,
    /// Shrinks a failing seed's instance: the smallest failing instance
    /// and the steps taken.
    shrink: Option<&'a dyn Fn(u64) -> (String, usize)>,
}

impl SeedSweep<'_> {
    /// Runs and reports one seed; a failing seed is an error.
    fn single(&self, seed: u64) -> Result<(), CliError> {
        let Some((report, failures)) = (self.run)(seed) else {
            out!("{} {seed}: skipped (infeasible instance)", self.label);
            return Ok(());
        };
        out!("{report}");
        if failures.is_empty() {
            return Ok(());
        }
        for f in &failures {
            out!("  {f}");
        }
        let failed = match self.shrink {
            Some(shrink) => {
                let (small, steps) = shrink(seed);
                out!("shrunk after {steps} step(s) to: {small}");
                "failed verification"
            }
            None => "failed",
        };
        err(format!("{} {seed} {failed}", self.label))
    }

    /// Runs seeds `0..n` on top of the `failures` found before. Any failure
    /// is written to `repro`, echoed to stderr and returned as an error.
    fn sweep(&self, n: u64, mut failures: Vec<String>, repro: &str) -> Result<(), CliError> {
        let label = self.label;
        let mut skipped = 0u64;
        for seed in 0..n {
            let Some((report, found)) = (self.run)(seed) else {
                skipped += 1;
                continue;
            };
            out!("{report}");
            if found.is_empty() {
                continue;
            }
            failures.extend(found.iter().map(|f| format!("{label} {seed}: {f}")));
            let shrunk = self.shrink.map_or(String::new(), |shrink| {
                let (small, steps) = shrink(seed);
                format!("shrunk after {steps} step(s) to {small}; ")
            });
            failures.push(format!(
                "{label} {seed}: {shrunk}repro: pdw {} --seed {seed}",
                self.command
            ));
        }
        if skipped > 0 {
            out!("({skipped}/{n} {label}s skipped as infeasible)");
        }
        if failures.is_empty() {
            out!("{}", self.passed);
            return Ok(());
        }
        let body = failures.join("\n");
        std::fs::write(repro, format!("{body}\n"))
            .map_err(|e| Runtime(format!("cannot write {repro}: {e}")))?;
        let _ = writeln!(io::stderr().lock(), "{body}");
        err(format!(
            "{}: {} failure(s); details in {repro}",
            self.command,
            failures.len()
        ))
    }
}

/// Chaos mode (`verify --faults`): replay the degradation ladder on seeded
/// fault-injected chips across a sweep of pipeline deadlines and thread
/// counts. A seed fails if any solve panics, serves a plan that is not
/// oracle-clean on the faulted chip, rejects a rung without a typed reason,
/// or differs bit-for-bit across thread counts.
fn cmd_chaos(cli: &VerifyCliOptions) -> Result<(), CliError> {
    let copts = verify::ChaosOptions {
        partitions: cli.partitions.clone(),
        ..verify::ChaosOptions::default()
    };
    let run = |seed| verify::chaos_seed(seed, &copts).map(|r| (r.to_string(), r.failures));
    let sweep = SeedSweep {
        command: "verify --faults",
        label: "chaos seed",
        passed: "verify --faults: all chaos instances passed",
        run: &run,
        shrink: None,
    };
    if let Some(seed) = cli.single_seed {
        return sweep.single(seed);
    }
    // The chaos sweep is budgets x threads per seed, so the smoke profile
    // trims the corpus rather than the sweep.
    let n = if cli.smoke && !cli.seeds_explicit {
        8
    } else {
        cli.seeds
    };
    sweep.sweep(n, Vec::new(), &cli.repro)
}

/// Differential verification: every solver on every bundled benchmark plus a
/// corpus of seeded random instances, each judged by the simulator validator,
/// the first-error cleanliness check, the contamination-propagation oracle,
/// an exact objective recompute, and 1/2/8-thread bit-identity.
fn cmd_verify(args: &[String]) -> Result<(), CliError> {
    let cli = parse_verify(args)?;
    if cli.faults {
        return cmd_chaos(&cli);
    }
    let run = |seed| verify::verify_seed(seed, &cli.opts).map(|r| (r.to_string(), r.failures()));
    let shrink = |seed| {
        let (small, steps) = verify::shrink_failure(seed, &cli.opts);
        (format!("{small:?}"), steps)
    };
    let sweep = SeedSweep {
        command: "verify",
        label: "seed",
        passed: "verify: all instances passed",
        run: &run,
        shrink: Some(&shrink),
    };
    // Single-seed repro mode: verify, and shrink on failure.
    if let Some(seed) = cli.single_seed {
        return sweep.single(seed);
    }

    let mut failures: Vec<String> = Vec::new();
    for bench in benchmarks::suite().into_iter().chain([benchmarks::demo()]) {
        let s = match synthesize(&bench) {
            Ok(s) => s,
            Err(e) => {
                failures.push(format!("{}: synthesis failed: {e}", bench.name));
                continue;
            }
        };
        let report = verify::verify_instance(&bench.name, &bench, &s, &cli.opts);
        out!("{report}");
        failures.extend(
            report
                .failures()
                .into_iter()
                .map(|f| format!("{}: {f}", bench.name)),
        );
    }
    sweep.sweep(cli.seeds, failures, &cli.repro)
}

fn cmd_export(args: &[String]) -> Result<(), CliError> {
    let mut a = ArgReader::new(args);
    let name = a.operand("`export` needs a benchmark")?;
    let path = a.operand("`export` needs a target file")?;
    a.end()?;
    let bench = builtin(name).ok_or_else(|| Usage(format!("no benchmark `{name}`")))?;
    std::fs::write(
        path,
        serde_json::to_string_pretty(&bench).expect("serializable"),
    )
    .map_err(|e| Runtime(format!("cannot write {path}: {e}")))?;
    out!("wrote {path}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_lookup_is_case_insensitive() {
        assert!(builtin("pcr").is_some());
        assert!(builtin("PCR").is_some());
        assert!(builtin("Demo").is_some());
        assert!(builtin("nope").is_none());
    }

    #[test]
    fn run_parsing_rejects_unknown_options() {
        let args = vec!["PCR".to_string(), "--frobnicate".to_string()];
        assert!(parse_run(&args).is_err());
    }

    #[test]
    fn run_parsing_accepts_full_option_set() {
        let args: Vec<String> = [
            "PCR",
            "--budget",
            "2",
            "--threads",
            "3",
            "--no-ilp",
            "--valves",
            "--stats",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let o = parse_run(&args).unwrap();
        assert_eq!(o.budget, 2);
        assert_eq!(o.threads, 3);
        assert!(!o.ilp);
        assert!(o.valves);
        assert!(o.stats);
        assert_eq!(o.bench.name, "PCR");
    }

    #[test]
    fn run_parsing_socket_options() {
        let args: Vec<String> = ["PCR", "--partitions", "4"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let o = parse_run(&args).unwrap();
        assert_eq!(o.partitions, 4);
        assert!(o.connect.is_none());

        let args: Vec<String> = ["PCR", "--connect", "127.0.0.1:7900"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let o = parse_run(&args).unwrap();
        assert_eq!(o.connect.as_deref(), Some("127.0.0.1:7900"));

        // --connect needs its operand.
        assert!(parse_run(&["PCR".into(), "--connect".into()]).is_err());
    }

    #[test]
    fn verify_parsing_smoke_profile() {
        let args = vec!["--smoke".to_string()];
        let o = parse_verify(&args).unwrap();
        assert_eq!(o.seeds, 25);
        assert!(!o.opts.ilp);
        assert!(o.single_seed.is_none());
    }

    #[test]
    fn verify_parsing_seed_and_budget() {
        let args: Vec<String> = ["--seed", "42", "--budget", "7", "--repro", "r.txt"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let o = parse_verify(&args).unwrap();
        assert_eq!(o.single_seed, Some(42));
        assert_eq!(o.opts.ilp_budget, Duration::from_secs(7));
        assert_eq!(o.repro, "r.txt");
    }

    #[test]
    fn verify_parsing_explicit_seeds_win_over_smoke() {
        for args in [["--seeds", "3", "--smoke"], ["--smoke", "--seeds", "3"]] {
            let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
            let o = parse_verify(&args).unwrap();
            assert_eq!((o.seeds, o.opts.ilp), (3, false), "{args:?}");
        }
    }

    #[test]
    fn verify_parsing_faults_mode() {
        let o = parse_verify(&["--faults".to_string(), "--smoke".to_string()]).unwrap();
        assert!(o.faults);
        assert!(o.smoke);
        assert!(!o.seeds_explicit);
        let o = parse_verify(&[
            "--faults".to_string(),
            "--seeds".to_string(),
            "3".to_string(),
        ])
        .unwrap();
        assert!(o.faults);
        assert!(o.seeds_explicit);
        assert_eq!(o.seeds, 3);
    }

    #[test]
    fn verify_parsing_partitions_sweep() {
        let o = parse_verify(&[
            "--faults".to_string(),
            "--partitions".to_string(),
            "1,2,4".to_string(),
        ])
        .unwrap();
        assert_eq!(o.partitions, vec![1, 2, 4]);
        let o = parse_verify(&["--faults".to_string()]).unwrap();
        assert_eq!(o.partitions, vec![1]);
        assert!(parse_verify(&[
            "--faults".to_string(),
            "--partitions".to_string(),
            "1,0".to_string()
        ])
        .is_err());
        assert!(parse_verify(&[
            "--faults".to_string(),
            "--partitions".to_string(),
            "two".to_string()
        ])
        .is_err());
    }

    #[test]
    fn run_parsing_partitions() {
        let args: Vec<String> = ["PCR", "--partitions", "4"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let o = parse_run(&args).unwrap();
        assert_eq!(o.partitions, 4);
        let o = parse_run(&["PCR".to_string()]).unwrap();
        assert_eq!(o.partitions, 1);
        assert!(parse_run(&[
            "PCR".to_string(),
            "--partitions".to_string(),
            "0".to_string()
        ])
        .is_err());
    }

    #[test]
    fn run_parsing_pipeline_budget() {
        let args: Vec<String> = ["PCR", "--pipeline-budget", "250"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let o = parse_run(&args).unwrap();
        assert_eq!(o.pipeline_budget, Some(Duration::from_millis(250)));
        let o = parse_run(&["PCR".to_string()]).unwrap();
        assert_eq!(o.pipeline_budget, None);
    }

    #[test]
    fn run_parsing_validate_toggle() {
        let on = parse_run(&["PCR".to_string(), "--validate".to_string()]).unwrap();
        assert!(on.validate);
        let off = parse_run(&["PCR".to_string(), "--no-validate".to_string()]).unwrap();
        assert!(!off.validate);
    }

    #[test]
    fn repair_parsing_defaults_and_full_option_set() {
        let o = parse_repair(&["PCR".to_string()]).unwrap();
        assert_eq!(o.bench.name, "PCR");
        assert_eq!(o.steps, 3);
        assert_eq!(o.seed, 0);
        assert_eq!(o.delay, None);
        assert_eq!(o.partitions, 1);
        let args: Vec<String> = [
            "demo",
            "--steps",
            "5",
            "--seed",
            "9",
            "--delay",
            "4",
            "--threads",
            "2",
            "--partitions",
            "3",
            "--pipeline-budget",
            "100",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let o = parse_repair(&args).unwrap();
        assert_eq!(o.steps, 5);
        assert_eq!(o.seed, 9);
        assert_eq!(o.delay, Some(4));
        assert_eq!(o.threads, 2);
        assert_eq!(o.partitions, 3);
        assert_eq!(o.pipeline_budget, Some(Duration::from_millis(100)));
        assert!(parse_repair(&["demo".to_string(), "--wat".to_string()]).is_err());
        assert!(parse_repair(&[]).is_err());
    }

    #[test]
    fn dispatch_reports_unknown_commands() {
        let e = dispatch(&["wibble".to_string()]).unwrap_err();
        assert!(e.to_string().contains("wibble"));
    }

    #[test]
    fn benchmark_json_roundtrip() {
        let b = benchmarks::pcr();
        let json = serde_json::to_string(&b).unwrap();
        let back: Benchmark = serde_json::from_str(&json).unwrap();
        assert_eq!(back.name, b.name);
        assert_eq!(back.op_count(), b.op_count());
        assert_eq!(back.edge_count(), b.edge_count());
    }
}
