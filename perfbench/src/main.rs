//! The FuseCU stack benchmark: three workloads, each measured in fresh
//! processes on one thread, reporting end-to-end metrics (untraced) or
//! per-layer metrics (traced) as one JSON line.
//!
//! ```text
//! perfbench --workload <plan_cold|validate_search|serve_mixed> --seed <n> --seconds <s> --trace <0|1>
//! perfbench steady [--runs <n>] [--seconds <s>] [--seed <n>]
//! ```
//!
//! The first form is a launcher. It builds the serve snapshot in a child
//! process when the workload needs one, times the set-up of several fresh
//! child processes, runs the measured child and prints the result. Every
//! child is waited for. `steady` repeats every workload with consecutive
//! seeds, alternating the workload order, and prints each end-to-end
//! metric's median, quartiles and spread.

mod check;
mod plan_cold;
mod run;
mod serve_mixed;
mod stats;
mod trace;
mod validate_search;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use run::Ctx;

/// Where runs keep their cache directories and span logs, relative to
/// the checkout the benchmark runs from.
const STATE_DIR: &str = ".perfbench_state";

/// Extra fresh processes whose set-up is timed besides the measured one.
const SETUP_PROBES: usize = 40;

const WORKLOADS: [&str; 3] = ["plan_cold", "validate_search", "serve_mixed"];

/// `(name, unit)` of every end-to-end metric.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("throughput_ops", "ops/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("peak_rss_mb", "MiB"),
];

#[derive(Debug, Clone)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    dir: Option<PathBuf>,
    runs: usize,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        dir: None,
        runs: 10,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?.clone(),
            "--seed" => a.seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|_| "bad --seconds")?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--dir" => a.dir = Some(PathBuf::from(value()?)),
            "--runs" => {
                a.runs = value()?.parse().map_err(|_| "bad --runs")?;
                if !(2..=100).contains(&a.runs) {
                    return Err("--runs must be in 2..=100".into());
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    // Set-up is timed from here: everything before the first timed
    // operation of a fresh process counts.
    let start = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("child") if argv.len() >= 2 => {
            parse_args(&argv[2..]).and_then(|a| child(&argv[1], &a, start))
        }
        Some("steady") => parse_args(&argv[1..]).and_then(|a| steady(&a)),
        _ => parse_args(&argv).and_then(|a| launch_and_print(&a)),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The result of one launched run.
#[derive(Debug)]
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, String)>,
}

fn launch_and_print(a: &Args) -> Result<(), String> {
    let r = launch(a)?;
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_num(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct,
        r.attempted,
        r.failed,
        metrics.join(", ")
    );
    Ok(())
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Runs one workload: snapshot (serve only), set-up probes, measured run.
fn launch(a: &Args) -> Result<Report, String> {
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    let dir = Path::new(STATE_DIR).join(format!(
        "{}-seed{}-pid{}",
        a.workload,
        a.seed,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let result = launch_in(a, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn launch_in(a: &Args, dir: &Path) -> Result<Report, String> {
    if a.workload == "serve_mixed" {
        spawn_child("snapshot", a, dir)?;
    }
    // Half the set-up probes run before the measured child and half
    // after, so they sample the host at both ends of the run.
    let mut setups = Vec::new();
    let probe = |setups: &mut Vec<f64>| -> Result<(), String> {
        if !a.trace {
            for _ in 0..SETUP_PROBES / 2 {
                setups.push(field(&spawn_child("probe", a, dir)?, "setup_s")?);
            }
        }
        Ok(())
    };
    probe(&mut setups)?;
    let lines = spawn_child("run", a, dir)?;
    probe(&mut setups)?;
    let mut report = Report {
        correct: field(&lines, "correct")? == 1.0,
        attempted: field(&lines, "attempted")? as u64,
        failed: field(&lines, "failed")? as u64,
        metrics: Vec::new(),
    };
    for line in &lines {
        let toks: Vec<&str> = line.split_whitespace().collect();
        if let ["metric", name, value, unit] = toks[..] {
            let value: f64 = value
                .parse()
                .map_err(|_| format!("bad metric line {line:?}"))?;
            report
                .metrics
                .push((name.to_string(), value, unit.to_string()));
        }
    }
    if !a.trace {
        setups.push(field(&lines, "setup_s")?);
        report
            .metrics
            .insert(0, ("setup_s".into(), stats::median(&setups), "s".into()));
    }
    Ok(report)
}

/// Runs this executable as a child in `phase` and returns its stdout
/// lines; a child that fails fails the run.
fn spawn_child(phase: &str, a: &Args, dir: &Path) -> Result<Vec<String>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate myself: {e}"))?;
    let out = Command::new(exe)
        .args(["child", phase, "--workload", &a.workload])
        .args([
            "--seed",
            &a.seed.to_string(),
            "--seconds",
            &a.seconds.to_string(),
        ])
        .args(["--trace", if a.trace { "1" } else { "0" }])
        .arg("--dir")
        .arg(dir)
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {phase} child: {e}"))?;
    if !out.status.success() {
        return Err(format!("the {phase} child failed ({})", out.status));
    }
    Ok(String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(str::to_string)
        .collect())
}

fn field(lines: &[String], key: &str) -> Result<f64, String> {
    lines
        .iter()
        .find_map(|l| l.strip_prefix(key).and_then(|r| r.strip_prefix(' ')))
        .and_then(|v| v.trim().parse().ok())
        .ok_or(format!("child reported no {key}"))
}

/// One workload's state, built during set-up.
enum Workload {
    Plan(plan_cold::PlanCold),
    Validate(validate_search::ValidateSearch),
    Serve(Box<serve_mixed::ServeMixed>),
}

impl Workload {
    fn round(&mut self, ctx: &mut Ctx) -> Result<(), String> {
        match self {
            Workload::Plan(w) => w.round(ctx),
            Workload::Validate(w) => w.round(ctx),
            Workload::Serve(w) => w.round(ctx)?,
        }
        Ok(())
    }

    /// Latency samples one operation stands for.
    fn weight(&self) -> u64 {
        match self {
            Workload::Serve(_) => serve_mixed::BATCH as u64,
            _ => 1,
        }
    }
}

/// The phases run in child processes.
fn child(phase: &str, a: &Args, start: Instant) -> Result<(), String> {
    let dir = a.dir.clone().ok_or("child needs --dir")?;
    if phase == "snapshot" {
        return serve_mixed::build_snapshot(a.seed, &dir);
    }
    // Plan and validate open the session for its set-up cost and hold it
    // to the end; serve keeps its own, which it flushes and reopens.
    let mut held = None;
    let mut open = |w: Workload| {
        let t0 = Instant::now();
        let session = fusecu::pipeline::DiskCacheSession::at(dir.clone());
        let open_s = t0.elapsed().as_secs_f64();
        let loaded = session.loaded();
        held = Some(session);
        (w, open_s, loaded)
    };
    let (mut workload, open_s, preloaded) = match a.workload.as_str() {
        "plan_cold" => open(Workload::Plan(plan_cold::PlanCold::new(a.seed))),
        "validate_search" => open(Workload::Validate(validate_search::ValidateSearch::new(
            a.seed,
        ))),
        "serve_mixed" => {
            let (w, open_s, loaded) = serve_mixed::ServeMixed::new(a.seed, &dir)?;
            (Workload::Serve(Box::new(w)), open_s, loaded)
        }
        other => return Err(format!("unknown workload {other}")),
    };
    let setup_s = start.elapsed().as_secs_f64();
    println!("setup_s {setup_s}");
    match phase {
        // A probe stops here, without the session's flush-on-drop: only
        // its set-up time is wanted.
        "probe" => std::process::exit(0),
        "run" => {}
        other => return Err(format!("unknown phase {other}")),
    }

    let mut ctx = Ctx::new(workload.weight());
    let mut round = 0u64;
    // A traced run needs at least one untraced and one traced round.
    while ctx.busy_s() < a.seconds || (a.trace && round < 2) {
        // A traced run alternates untraced and traced rounds, so the
        // tracing overhead is measured under the same host conditions.
        ctx.tracer.set_on(a.trace && round % 2 == 1);
        workload.round(&mut ctx)?;
        round += 1;
    }
    let rss = stats::peak_rss_mib().ok_or("VmHWM missing from /proc/self/status")?;
    // Nothing is persisted after the run: with the caches emptied, the
    // sessions' flush-on-drop writes no file.
    run::evict_all_caches();
    drop(held);
    drop(workload);
    println!("attempted {}", ctx.attempted);
    println!("failed {}", ctx.failed);
    println!("correct {}", u8::from(ctx.unexpected == 0));
    if a.trace {
        for (name, value, unit) in layer_metrics(&ctx, open_s, preloaded) {
            println!("metric {name} {value} {unit}");
        }
        write_spans(a, &ctx)?;
    } else {
        let l = &ctx.plain;
        for (name, value) in [
            ("throughput_ops", l.throughput()),
            ("latency_p50_us", l.percentile_us(0.5)),
            ("latency_p99_us", l.percentile_us(0.99)),
            ("peak_rss_mb", rss),
        ] {
            let unit = END_TO_END
                .iter()
                .find(|(n, _)| *n == name)
                .map_or("", |(_, u)| u);
            println!("metric {name} {value} {unit}");
        }
        eprintln!(
            "perfbench: {} {} samples, {:.2} s busy",
            a.workload,
            l.samples(),
            l.busy_s()
        );
    }
    Ok(())
}

/// Spans whose busy time per sample is reported as `<span>_us`.
const SPAN_METRICS: [&str; 14] = [
    "models.build_graph",
    "ir.mm_dag",
    "dataflow.principle",
    "fusion.plan_graph",
    "fusion.optimize_pair",
    "arch.evaluate_graph",
    "search.exhaustive",
    "search.genetic",
    "search.fused_exhaustive",
    "sim.replay",
    "server.parse",
    "server.eval",
    "server.batch",
    "persist.flush",
];

/// Counters reported as a mean per sample.
const COUNT_METRICS: [&str; 7] = [
    "dataflow.principle_calls",
    "fusion.fused_steps",
    "arch.evaluate_calls",
    "search.exhaustive_evals",
    "search.genetic_evals",
    "search.fused_exhaustive_evals",
    "sim.replay_macs",
];

/// Per-layer metrics read from the span log and counters. Every metric
/// is printed on every workload; a layer a workload does not exercise
/// reads 0. Busy times and counts are per timed sample: one operation,
/// or one batch of `serve_mixed`.
fn layer_metrics(ctx: &Ctx, open_s: f64, preloaded: usize) -> Vec<(String, f64, &'static str)> {
    let t = &ctx.tracer;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let rate =
        |count: u64, spans: &[&str]| ratio(count as f64, spans.iter().map(|n| t.busy_s(n)).sum());
    let ops = t.traced_ops() as f64;
    let mut out: Vec<(String, f64, &'static str)> = SPAN_METRICS
        .iter()
        .map(|s| (format!("{s}_us"), t.busy_us_per_op(s), "us"))
        .chain(
            COUNT_METRICS
                .iter()
                .map(|c| (c.to_string(), ratio(t.counter(c) as f64, ops), "count")),
        )
        .collect();
    let evals = t.counter("search.exhaustive_evals")
        + t.counter("search.genetic_evals")
        + t.counter("search.fused_exhaustive_evals");
    let lookups = (ctx.cache.hits + ctx.cache.misses) as f64;
    let p50 = |l: &stats::Latencies| l.percentile_us(0.5);
    for (name, value, unit) in [
        (
            "fusion.max_depth",
            t.counter("fusion.max_depth") as f64,
            "count",
        ),
        (
            "search.evals_per_s",
            rate(
                evals,
                &[
                    "search.exhaustive",
                    "search.genetic",
                    "search.fused_exhaustive",
                ],
            ),
            "1/s",
        ),
        (
            "sim.macs_per_s",
            rate(t.counter("sim.replay_macs"), &["sim.replay"]),
            "1/s",
        ),
        (
            "server.dedup_factor",
            ratio(
                t.counter("server.queries") as f64,
                t.counter("server.unique_queries") as f64,
            ),
            "ratio",
        ),
        ("persist.preload_us", open_s * 1e6, "us"),
        ("persist.preloaded_entries", preloaded as f64, "count"),
        (
            "persist.flush_entries",
            ratio(
                t.counter("persist.flush_entries") as f64,
                t.counter("persist.flushes") as f64,
            ),
            "count",
        ),
        (
            "cache.hit_ratio",
            ratio(ctx.cache.hits as f64, lookups),
            "ratio",
        ),
        ("cache.misses", ratio(ctx.cache.misses as f64, ops), "count"),
        ("cache.entries", ctx.max_entries as f64, "count"),
        (
            "trace.overhead_pct",
            (p50(&ctx.traced) / p50(&ctx.plain) - 1.0) * 100.0,
            "%",
        ),
    ] {
        out.push((name.to_string(), value, unit));
    }
    out
}

/// Writes the span log of a traced run next to the run directories.
fn write_spans(a: &Args, ctx: &Ctx) -> Result<(), String> {
    let dir = Path::new(STATE_DIR).join("spans");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(format!("{}-seed{}.tsv", a.workload, a.seed));
    std::fs::write(&path, ctx.tracer.render())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Steadiness mode: every workload `runs` times with seeds `seed`,
/// `seed + 1`, …, alternating the workload order between repetitions.
fn steady(a: &Args) -> Result<(), String> {
    let mut values: BTreeMap<(&str, &str), Vec<f64>> = BTreeMap::new();
    let mut shares: BTreeMap<&str, Vec<(u64, u64)>> = BTreeMap::new();
    for i in 0..a.runs {
        let mut order = WORKLOADS.to_vec();
        if i % 2 == 1 {
            order.reverse();
        }
        for w in order {
            let run = Args {
                workload: w.to_string(),
                seed: a.seed + i as u64,
                trace: false,
                ..a.clone()
            };
            let r = launch(&run)?;
            if !r.correct {
                return Err(format!("{w} seed {} reported incorrect output", run.seed));
            }
            eprintln!("steady: {w} seed {} done", run.seed);
            shares.entry(w).or_default().push((r.failed, r.attempted));
            for (name, v, _) in r.metrics {
                let (n, _) = END_TO_END
                    .iter()
                    .find(|(n, _)| *n == name)
                    .ok_or(format!("unexpected metric {name}"))?;
                values.entry((w, n)).or_default().push(v);
            }
        }
    }
    println!("workload metric median q1 q3 spread");
    for ((w, n), v) in &values {
        let med = stats::median(v);
        let [q1, _, q3] = stats::quartiles(v);
        println!("{w} {n} {med:.6} {q1:.6} {q3:.6} {:.4}", (q3 - q1) / med);
    }
    for (w, s) in &shares {
        let list: Vec<String> = s.iter().map(|(f, at)| format!("{f}/{at}")).collect();
        println!("{w} failed/attempted {}", list.join(" "));
    }
    Ok(())
}
