//! The mcsched benchmark: the paper's Figure 3 campaign cold and warm, and
//! the online scheduler just past its knee.
//!
//! ```text
//! mcsched-perfbench --workload <fig3-cold|fig3-warm|online-knee>
//!                   --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no tracing at all.
//! `--trace 1` first runs the same loop untraced in a child process, then
//! repeats exactly that work with the benchmark's spans around every call
//! into a layer, and reports the per-layer metrics. The last line of
//! standard output is the JSON result; the lines before it are the host
//! block, the tail's percentile and one line per check.

mod checks;
mod fig3;
mod host;
mod layers;
mod online;
mod stats;
mod trace;

use checks::Checks;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Self { name, value, unit }
    }
}

/// The end-to-end outcome of one untraced run.
#[derive(Debug)]
pub struct RunResult {
    pub metrics: Vec<Metric>,
    /// Operations attempted: cells, or online arrivals.
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
}

/// What the untraced child of a traced run reports: how many passes (or
/// runs) it made in its time budget, the time of one pass with every item
/// at its median, and a digest of its outcomes.
#[derive(Debug, Clone, PartialEq)]
pub struct Child {
    pub count: usize,
    pub wall_s: f64,
    pub digest: String,
}

impl Child {
    fn render(&self) -> String {
        format!(
            "child count {}\nchild wall_s {}\nchild digest {}\n",
            self.count, self.wall_s, self.digest
        )
    }

    fn parse(stdout: &str) -> Option<Self> {
        let field = |key: &str| {
            stdout.lines().find_map(|l| {
                l.strip_prefix("child ")?
                    .strip_prefix(key)?
                    .strip_prefix(' ')
            })
        };
        Some(Self {
            count: field("count")?.parse().ok()?,
            wall_s: field("wall_s")?.parse().ok()?,
            digest: field("digest")?.to_string(),
        })
    }
}

const WORKLOADS: [&str; 3] = ["fig3-cold", "fig3-warm", "online-knee"];

/// Spans a traced run writes out (the warm loop records about a million).
const SPANS_WRITTEN: usize = 100_000;

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set in the untraced child of a traced run: its work directory.
    child: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: checks::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        child: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                };
            }
            "--child" => args.child = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}, not `{}`",
            WORKLOADS.join(", "),
            args.workload
        ));
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Runs the untraced half of a traced run in a fresh process, so that
/// nothing the traced half switches on can touch it. It gets half the time
/// budget; the traced half repeats the same work.
fn spawn_child(args: &Args, work: &Path) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &(args.seconds / 2.0).to_string()])
        .args(["--trace", "0", "--child"])
        .arg(work)
        .output()
        .map_err(|e| format!("spawning the untraced child: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "untraced child failed ({}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    Child::parse(&stdout).ok_or_else(|| format!("unreadable child output: {stdout}"))
}

fn run_child(args: &Args, work: &Path) {
    let child = match args.workload.as_str() {
        "online-knee" => online::child(&online::Stream::knee(args.seed), args.seconds),
        w => fig3::child(w, &fig3::Fig3::paper(args.seed), args.seconds, work),
    };
    print!("{}", child.render());
}

/// Untraced run: every end-to-end metric.
fn run_untraced(args: &Args, work: &Path, checks: &mut Checks) -> RunResult {
    match args.workload.as_str() {
        "fig3-cold" => fig3::cold(&fig3::Fig3::paper(args.seed), args.seconds, checks),
        "fig3-warm" => fig3::warm(&fig3::Fig3::paper(args.seed), args.seconds, work, checks),
        _ => online::knee(&online::Stream::knee(args.seed), args.seconds, checks),
    }
}

/// Traced run: every per-layer metric.
fn run_traced(args: &Args, work: &Path, checks: &mut Checks) -> Result<RunResult, String> {
    let fig = fig3::Fig3::paper(args.seed);
    if args.workload == "fig3-warm" {
        fig3::prepare_warm(&fig, work);
    }
    let child = spawn_child(args, work)?;
    let mut layers = layers::Layers::default();
    let mut tracer = trace::Tracer::new();
    let (attempted, failed) = match args.workload.as_str() {
        "fig3-cold" => (
            fig3::cold_traced(&fig, &child, &mut layers, &mut tracer, checks),
            0,
        ),
        "fig3-warm" => fig3::warm_traced(&fig, &child, work, &mut layers, &mut tracer, checks),
        _ => online::knee_traced(
            &online::Stream::knee(args.seed),
            &child,
            &mut layers,
            &mut tracer,
            checks,
        ),
    };
    layers.set("obs.spans", tracer.spans().len() as f64);
    layers.set("checks_failed", checks.failed() as f64);
    layers.set("error_rate", failed as f64 / attempted.max(1) as f64);
    let spans = work
        .parent()
        .unwrap_or(work)
        .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
    if let Err(e) = tracer.write_jsonl(&spans, SPANS_WRITTEN) {
        eprintln!("warning: cannot write {}: {e}", spans.display());
    }
    Ok(RunResult {
        metrics: layers
            .all()
            .into_iter()
            .map(|(name, value, unit)| Metric::new(name, value, unit))
            .collect(),
        attempted,
        failed,
    })
}

fn result_json(correct: bool, result: &RunResult) -> String {
    let metrics: Vec<String> = result
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.attempted.max(1),
        result.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    mcsched_obs::sink::set_quiet(true);
    let work = match &args.child {
        Some(dir) => dir.clone(),
        None => PathBuf::from(".perfbench_work").join(format!(
            "{}-{}",
            args.workload,
            std::process::id()
        )),
    };
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("error: cannot create {}: {e}", work.display());
        return ExitCode::from(2);
    }
    if args.child.is_some() {
        run_child(&args, &work);
        return ExitCode::SUCCESS;
    }

    let host = host::Host::probe();
    println!("{}", host.to_json(&args.workload, args.seed, args.trace));
    let mut checks = Checks::new();
    let outcome = if args.trace {
        run_traced(&args, &work, &mut checks)
    } else {
        Ok(run_untraced(&args, &work, &mut checks))
    };
    let _ = std::fs::remove_dir_all(&work);
    let mut result = match outcome {
        Ok(result) => result,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let non_finite: Vec<&str> = result
        .metrics
        .iter()
        .filter(|m| !m.value.is_finite())
        .map(|m| m.name)
        .collect();
    checks.check(
        "every metric is finite",
        non_finite.is_empty(),
        format!("non-finite: {non_finite:?}"),
    );
    for m in &mut result.metrics {
        if !m.value.is_finite() {
            m.value = -1.0;
        }
    }
    checks.report();
    println!(
        "checks: {} failed of {} ({} outside known defects)",
        checks.failed(),
        checks.all().len(),
        checks
            .all()
            .iter()
            .filter(|c| !c.passed && c.known_defect.is_none())
            .count()
    );
    println!("{}", result_json(checks.correct(), &result));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests;
