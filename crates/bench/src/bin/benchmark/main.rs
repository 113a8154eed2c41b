//! The PathDriver-Wash benchmark: one command, six workloads, every metric
//! printed by name with its unit (see `README.md` beside this package).
//!
//! ```text
//! benchmark [--workload W] [--seed S] [--seconds T] [--trace [0|1]] [--repeat N]
//! ```
//!
//! With `--workload`, the workload runs in this process and the last line
//! of standard output is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics` (the end-to-end metrics, or with `--trace` the per-layer
//! ones). Without it, every workload `BENCHMARK.json` declares runs in a
//! child process of its own, so `peak_rss_mb` and `setup_s` stay per
//! workload; the others run only when named. `--repeat N` runs each
//! selected workload N times on the same seed and prints every end-to-end
//! metric's median, quartiles and spread against its regression bound.

mod inputs;
mod layers;
mod plan;
mod serve;
mod spec;
mod stats;
mod trace;
mod wire;
mod workloads;

use std::collections::BTreeMap;
use std::io::Read;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use serde::Value;

use crate::spec::Spec;
use crate::workloads::{Outcome, RunCtx};

const USAGE: &str =
    "usage: benchmark [--workload W] [--seed S] [--seconds T] [--trace [0|1]] [--repeat N]";

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    repeat: Option<usize>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        repeat: None,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => {
                let w = value("a workload name")?;
                if !workloads::ALL.contains(&w.as_str()) {
                    return Err(format!(
                        "unknown workload `{w}` (one of {})",
                        workloads::ALL.join(", ")
                    ));
                }
                args.workload = Some(w);
            }
            "--seed" => {
                let v = value("a number")?;
                args.seed = v.parse().map_err(|_| format!("bad --seed `{v}`"))?;
            }
            "--seconds" => {
                let v = value("a number")?;
                let s: f64 = v.parse().map_err(|_| format!("bad --seconds `{v}`"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds must be positive, got `{v}`"));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--repeat" => {
                let v = value("a count")?;
                let n: usize = v.parse().map_err(|_| format!("bad --repeat `{v}`"))?;
                if n < 2 {
                    return Err("--repeat needs at least 2 runs".to_string());
                }
                args.repeat = Some(n);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// One reported metric.
struct Reported {
    name: String,
    value: f64,
    unit: String,
    samples: usize,
    /// How the value was taken, when the name alone does not say.
    detail: String,
}

/// The end-to-end metrics of `workload`'s outcome, in declaration order.
fn end_to_end(spec: &Spec, workload: &str, o: &Outcome) -> Vec<Reported> {
    let w = &o.window;
    let served = w.latencies_ms.len();
    spec.end_to_end
        .iter()
        .map(|m| {
            let (value, samples, detail) = match m.name.as_str() {
                "setup_s" => (
                    stats::median(&o.setup_s),
                    o.setup_s.len(),
                    "median of set-ups".to_string(),
                ),
                "throughput_per_s" => (
                    w.throughput(),
                    w.completed,
                    format!("completions in {:.2} s", w.seconds),
                ),
                "latency_p50_ms" => (stats::median(&w.latencies_ms), served, String::new()),
                "latency_tail_ms" => {
                    let q = workloads::tail_quantile(workload);
                    let (value, beyond) = stats::percentile_beyond(&w.latencies_ms, q);
                    let mut detail = format!("{}, {beyond} samples beyond", stats::label(q));
                    if beyond < 10 {
                        detail.push_str(" (fewer than ten: this run is too short for it)");
                    }
                    (value, served, detail)
                }
                "objective_sum" => (
                    o.objective_sum,
                    o.distinct_instances,
                    "distinct instances".to_string(),
                ),
                "peak_rss_mb" => (o.peak_rss_mb, 1, "VmHWM after the warm-up".to_string()),
                other => {
                    panic!("BENCHMARK.json declares `{other}`, which this build does not measure")
                }
            };
            Reported {
                name: m.name.clone(),
                value,
                unit: m.unit.clone(),
                samples,
                detail,
            }
        })
        .collect()
}

/// The per-layer metrics, in declaration order; bypassed layers read 0.
fn per_layer(spec: &Spec, o: &Outcome) -> Vec<Reported> {
    if let Some(undeclared) = o
        .layers
        .keys()
        .find(|k| !spec.per_layer.iter().any(|m| m.name == **k))
    {
        panic!("layer metric `{undeclared}` is not declared in BENCHMARK.json");
    }
    spec.per_layer
        .iter()
        .map(|m| {
            let measured = o.layers.get(m.name.as_str());
            Reported {
                name: m.name.clone(),
                value: measured.copied().unwrap_or(0.0),
                unit: m.unit.clone(),
                samples: usize::from(measured.is_some()),
                detail: if measured.is_some() {
                    String::new()
                } else {
                    "bypassed".to_string()
                },
            }
        })
        .collect()
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`.
fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Reported]) -> String {
    let number = |v: f64| Value::Float(if v.is_finite() { v } else { 0.0 });
    let metrics = metrics
        .iter()
        .map(|m| {
            (
                m.name.clone(),
                Value::Object(vec![
                    ("value".to_string(), number(m.value)),
                    ("unit".to_string(), Value::Str(m.unit.clone())),
                ]),
            )
        })
        .collect();
    let doc = Value::Object(vec![
        ("correct".to_string(), Value::Bool(correct)),
        ("attempted".to_string(), Value::UInt(attempted)),
        ("failed".to_string(), Value::UInt(failed)),
        ("metrics".to_string(), Value::Object(metrics)),
    ]);
    serde_json::to_string(&doc).expect("a JSON value always serializes")
}

fn print_table(title: &str, rows: &[Reported], skip_bypassed: bool) {
    println!(
        "  {title:<30} {:>14}  {:<8} {:>8}",
        "value", "unit", "samples"
    );
    for r in rows {
        if skip_bypassed && r.samples == 0 {
            continue;
        }
        println!(
            "  {:<30} {:>14.4}  {:<8} {:>8}  {}",
            r.name, r.value, r.unit, r.samples, r.detail
        );
    }
}

/// Runs one workload in this process and prints its report.
fn run_one(spec: &Spec, name: &str, ctx: &RunCtx) -> ExitCode {
    let o = workloads::run(name, ctx).expect("workload names are validated at parse time");
    println!(
        "workload {name}: seed {}, {} s measured{}",
        ctx.seed,
        ctx.seconds,
        if ctx.trace {
            ", traced (untraced half, then traced half)"
        } else {
            ""
        }
    );
    let e2e = end_to_end(spec, name, &o);
    print_table("end-to-end metric", &e2e, false);
    let w = &o.window;
    let (mut attempted, mut failed) = (w.attempted, w.failed);
    let mut failures = w.failures.clone();
    if let Some(t) = &o.traced {
        attempted += t.attempted;
        failed += t.failed;
        failures.extend(t.failures.iter().cloned());
    }
    if let Some((q, value, beyond)) = stats::highest_tail(&w.latencies_ms) {
        println!(
            "  {:<30} {:>14.4}  {:<8} {:>8}  {}, {beyond} samples beyond (unbounded)",
            "latency, highest tail",
            value,
            "ms",
            w.latencies_ms.len(),
            stats::label(q),
        );
    }
    println!(
        "  {:<30} {:>14.4}  {:<8} {:>8}  failed/attempted",
        "error_rate",
        if attempted > 0 {
            failed as f64 / attempted as f64
        } else {
            0.0
        },
        "ratio",
        attempted
    );
    for note in &o.notes {
        println!("  {note}");
    }
    let mut metrics = e2e;
    if let (Some(traced), Some(tracer)) = (&o.traced, &o.tracer) {
        metrics = per_layer(spec, &o);
        print_table("per-layer metric", &metrics, true);
        let spans = tracer.spans();
        println!(
            "  {:<30} {:>8} {:>12} {:>12}",
            "span", "count", "total ms", "self ms"
        );
        for (span, t) in trace::self_times(&spans) {
            println!(
                "  {span:<30} {:>8} {:>12.3} {:>12.3}",
                t.spans, t.total_ms, t.self_ms
            );
        }
        let (p50_off, p50_on) = (
            stats::median(&w.latencies_ms),
            stats::median(&traced.latencies_ms),
        );
        println!(
            "  tracing overhead: latency p50 {p50_off:.4} -> {p50_on:.4} ms ({:+.1}%), throughput {:.2} -> {:.2} /s",
            (p50_on / p50_off - 1.0) * 100.0,
            w.throughput(),
            traced.throughput(),
        );
        let path = PathBuf::from("target/benchmark").join(format!("trace-{name}.json"));
        match trace::write_json(&path, name, ctx.seed, &spans) {
            Ok(()) => println!("  {} spans written to {}", spans.len(), path.display()),
            Err(e) => println!("  could not write {}: {e}", path.display()),
        }
    }
    let correct = failed == 0;
    if correct {
        println!("  correctness: ok ({attempted} attempted, 0 failed)");
    } else {
        println!("  correctness: FAILED ({failed} of {attempted} attempted)");
        for f in &failures {
            println!("    {f}");
        }
    }
    println!("{}", result_json(correct, attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// A child run's parsed result line.
struct ChildResult {
    correct: bool,
    metrics: BTreeMap<String, f64>,
}

/// Runs one workload in a child process of this binary and waits for it.
/// Returns the child's report lines and its parsed result (`None` when it
/// printed none).
fn run_child(
    name: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> (Vec<String>, Option<ChildResult>) {
    let exe = std::env::current_exe().expect("locate this executable");
    let mut child = Command::new(exe)
        .args([
            "--workload",
            name,
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn a workload process");
    let mut out = String::new();
    let read = child
        .stdout
        .take()
        .expect("stdout is piped")
        .read_to_string(&mut out);
    let status = child.wait().expect("wait for the workload process");
    let mut lines: Vec<String> = out.lines().map(str::to_string).collect();
    let parsed = read
        .ok()
        .and_then(|_| lines.last())
        .and_then(|last| serde_json::from_str::<Value>(last).ok())
        .and_then(|v| {
            let obj = v.as_object()?.clone();
            let get = |k: &str| obj.iter().find(|(key, _)| key == k).map(|(_, v)| v.clone());
            let correct = matches!(get("correct")?, Value::Bool(true)) && status.success();
            let metrics = get("metrics")?
                .as_object()?
                .iter()
                .filter_map(|(name, m)| {
                    let value = m.as_object()?.iter().find(|(k, _)| k == "value")?.1.clone();
                    match value {
                        Value::Float(f) => Some((name.clone(), f)),
                        Value::Int(i) => Some((name.clone(), i as f64)),
                        Value::UInt(u) => Some((name.clone(), u as f64)),
                        _ => None,
                    }
                })
                .collect();
            Some(ChildResult { correct, metrics })
        });
    if parsed.is_some() {
        lines.pop();
    }
    (lines, parsed)
}

/// `--repeat`: N child runs per workload on one seed, then each end-to-end
/// metric's median, quartiles and spread against its bound.
fn repeat(spec: &Spec, names: &[&str], seed: u64, seconds: f64, runs: usize) -> ExitCode {
    let mut ok = true;
    for name in names {
        let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for i in 1..=runs {
            let (_, result) = run_child(name, seed, seconds, false);
            match result {
                Some(r) => {
                    ok &= r.correct;
                    println!(
                        "{name} run {i}/{runs}: {}",
                        if r.correct { "correct" } else { "INCORRECT" }
                    );
                    for (k, v) in r.metrics {
                        values.entry(k).or_default().push(v);
                    }
                }
                None => {
                    ok = false;
                    println!("{name} run {i}/{runs}: no result");
                }
            }
        }
        println!("{name}: {runs} runs, seed {seed}");
        println!(
            "  {:<20} {:>12} {:>12} {:>12} {:>8} {:>7}",
            "metric", "median", "q1", "q3", "spread", "bound"
        );
        for m in &spec.end_to_end {
            let v = values.get(&m.name).cloned().unwrap_or_default();
            let (q1, q3) = stats::quartiles(&v);
            let spread = stats::spread(&v);
            let bound = m.bound.unwrap_or(0.0);
            let flag = if spread > bound {
                "  SPREAD EXCEEDS BOUND"
            } else if spread > bound / 3.0 {
                "  above a third of the bound"
            } else {
                ""
            };
            let bound_pct = format!("{:.4}", bound * 100.0);
            println!(
                "  {:<20} {:>12.4} {:>12.4} {:>12.4} {:>7.2}% {:>7}{flag}",
                m.name,
                stats::median(&v),
                q1,
                q3,
                spread * 100.0,
                format!("{}%", bound_pct.trim_end_matches('0').trim_end_matches('.')),
            );
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "-h" || a == "--help") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let spec = Spec::load();
    let seconds = args.seconds.unwrap_or(spec.run_seconds);
    let names: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => spec.workloads.iter().map(String::as_str).collect(),
    };
    if let Some(runs) = args.repeat {
        return repeat(&spec, &names, args.seed, seconds, runs);
    }
    if let Some(name) = &args.workload {
        let ctx = RunCtx {
            seed: args.seed,
            seconds,
            trace: args.trace,
        };
        return run_one(&spec, name, &ctx);
    }
    let mut ok = true;
    for name in names {
        let (lines, result) = run_child(name, args.seed, seconds, args.trace);
        for line in lines {
            println!("{line}");
        }
        ok &= result.is_some_and(|r| r.correct);
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Tracer;
    use crate::workloads::Window;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn command_line_arguments_parse() {
        let a = parse_args(&argv("--workload plan-ilp --seed 7 --seconds 10 --trace 0")).unwrap();
        assert_eq!(a.workload.as_deref(), Some("plan-ilp"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, Some(10.0), false));
        assert!(parse_args(&argv("--trace 1")).unwrap().trace);
        assert!(parse_args(&argv("--trace --seed 3")).unwrap().trace);
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--seconds 0")).is_err());
        assert_eq!(parse_args(&argv("--repeat 5")).unwrap().repeat, Some(5));
        assert!(parse_args(&argv("--repeat 1")).is_err());
    }

    fn outcome(traced: bool) -> Outcome {
        Outcome {
            setup_s: vec![0.2, 0.1, 0.3],
            window: Window {
                latencies_ms: vec![3.0, 1.0, 2.0],
                completed: 3,
                seconds: 1.5,
                attempted: 3,
                ..Window::default()
            },
            peak_rss_mb: 12.0,
            traced: traced.then(Window::default),
            objective_sum: 12.5,
            distinct_instances: 2,
            layers: [(layers::LADDER_MS, 4.0)].into_iter().collect(),
            tracer: traced.then(Tracer::new),
            notes: Vec::new(),
        }
    }

    /// Parses a result line back into `(name, unit)` pairs.
    fn named_units(line: &str) -> Vec<(String, String)> {
        let v: Value = serde_json::from_str(line).unwrap();
        let obj = v.as_object().unwrap();
        let keys: Vec<&str> = obj.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        obj[3]
            .1
            .as_object()
            .unwrap()
            .iter()
            .map(|(name, m)| {
                let m = m.as_object().unwrap();
                assert!(matches!(m[0], (ref k, Value::Float(_)) if k == "value"));
                match &m[1] {
                    (k, Value::Str(unit)) if k == "unit" => (name.clone(), unit.clone()),
                    other => panic!("unexpected {other:?}"),
                }
            })
            .collect()
    }

    #[test]
    fn result_line_names_every_declared_metric_with_its_unit() {
        let spec = Spec::load();
        let o = outcome(false);
        let line = result_json(true, 3, 0, &end_to_end(&spec, "plan-corpus", &o));
        let expect: Vec<(String, String)> = spec
            .end_to_end
            .iter()
            .map(|m| (m.name.clone(), m.unit.clone()))
            .collect();
        assert_eq!(named_units(&line), expect);
        let traced = outcome(true);
        let line = result_json(true, 3, 0, &per_layer(&spec, &traced));
        let expect: Vec<(String, String)> = spec
            .per_layer
            .iter()
            .map(|m| (m.name.clone(), m.unit.clone()))
            .collect();
        assert_eq!(named_units(&line), expect);
    }

    #[test]
    fn end_to_end_values_follow_their_definitions() {
        let spec = Spec::load();
        let rows = end_to_end(&spec, "plan-mega", &outcome(false));
        let get = |n: &str| rows.iter().find(|r| r.name == n).unwrap();
        // Three completions in 1.5 s.
        assert_eq!(get("setup_s").value, 0.2);
        assert_eq!(get("throughput_per_s").value, 2.0);
        assert_eq!(get("latency_p50_ms").value, 2.0);
        // plan-mega's tail is p90; three samples leave none beyond it.
        let tail = get("latency_tail_ms");
        assert_eq!(tail.value, 3.0);
        assert!(tail
            .detail
            .starts_with("p90, 0 samples beyond (fewer than ten"));
        assert_eq!(get("objective_sum").value, 12.5);
        assert_eq!(get("peak_rss_mb").value, 12.0);
    }
}
