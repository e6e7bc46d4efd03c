//! The `online-knee` workload: one online stream on Lille just past the
//! knee of the λ-sweep.

use crate::checks::{bits_equal, digest_f64s, Checks};
use crate::host::RefClock;
use crate::layers::{histogram_delta, Layers};
use crate::stats::{median, median_per_item, SetupClock};
use crate::trace::Tracer;
use crate::{host, Child, Metric, RunResult};
use mcsched_core::{ConstraintStrategy, ReferencePlatform, SchedError, Workload};
use mcsched_obs::metrics::counter;
use mcsched_obs::phase;
use mcsched_online::{run_campaign, CampaignSpec, OnlineConfig, OnlineReport, OnlineScheduler};
use mcsched_platform::{grid5000, Platform};
use mcsched_ptg::Ptg;
use mcsched_simx::Engine;
use mcsched_workload::{
    Arrival, JobStream, StreamRequest, WorkloadCatalog, WorkloadRequest, WorkloadSource,
};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The stream: DAGGEN graphs of 20 tasks, Poisson arrivals at λ = 0.05/s.
pub const SPEC: &str = "daggen@n=20/poisson@lambda=0.05";
/// Back-to-back set-ups per block; one block runs before the first run
/// and one after each run (see [`SetupClock`]).
const SETUP_PER_BLOCK: usize = 200;
/// Runs the 1-thread loop makes at least, whatever the time budget.
const MIN_RUNS: usize = 2;
/// Share of the time budget the 1-thread runs get; the `nproc` campaigns
/// get the rest.
const LOOP_SHARE: f64 = crate::fig3::LOOP_SHARE;
/// Named reason of the one known-defect check.
const UTILIZATION_DEFECT: &str =
    "ROADMAP item 5: virtual-restart re-plans overlap busy time, so utilization can exceed 1";

/// The run: `OnlineConfig` defaults (on-arrival re-planning, queue 32,
/// 8 in flight, 1000 arrivals) with ES, over `jobs` arrivals.
#[derive(Debug, Clone)]
pub struct Stream {
    pub seed: u64,
    pub jobs: usize,
}

impl Stream {
    /// The default 1000 arrivals: no seed from 1 to 30 sheds any, while
    /// 2000 arrivals shed at some seeds once the queue fills late in the
    /// stream.
    pub fn knee(seed: u64) -> Self {
        Self {
            seed,
            jobs: OnlineConfig::default().max_jobs,
        }
    }

    pub fn config(&self) -> OnlineConfig {
        let mut cfg = OnlineConfig {
            seed: self.seed,
            max_jobs: self.jobs,
            ..OnlineConfig::default()
        };
        cfg.base.strategy = ConstraintStrategy::EqualShare;
        cfg
    }
}

/// Every pull the scheduler makes (when it entered and left the pull, and
/// the wall-to-reference factor current then), and the size of every graph
/// it materialises.
#[derive(Debug, Default)]
struct StreamLog {
    pulls: Vec<(Instant, Instant, f64)>,
    clock: RefClock,
    /// Wall time the pulls spent timing the reference work, in ms.
    reference_ms: f64,
    tasks: u64,
    edges: u64,
}

/// Wraps a source so the benchmark sees the loop's pace from outside: the
/// time between two pulls is the time the loop spent serving one arrival
/// (its re-plan and the completions before the next arrival). A pull
/// re-times the reference work when it is stale; that time is left out.
#[derive(Debug)]
struct TimedSource {
    inner: Arc<dyn WorkloadSource>,
    log: Arc<Mutex<StreamLog>>,
}

struct TimedStream {
    inner: Box<dyn JobStream>,
    log: Arc<Mutex<StreamLog>>,
}

impl WorkloadSource for TimedSource {
    fn spec(&self) -> String {
        self.inner.spec()
    }

    fn generate(&self, request: &WorkloadRequest) -> Result<Workload, SchedError> {
        self.inner.generate(request)
    }

    fn stream(&self, request: &StreamRequest) -> Result<Box<dyn JobStream>, SchedError> {
        Ok(Box::new(TimedStream {
            inner: self.inner.stream(request)?,
            log: Arc::clone(&self.log),
        }))
    }
}

impl JobStream for TimedStream {
    fn next_arrival(&mut self) -> Option<Arrival> {
        let entered = Instant::now();
        let mut log = self.log.lock().expect("log lock");
        let scale = log.clock.scale();
        let left = Instant::now();
        log.reference_ms += (left - entered).as_secs_f64() * 1e3;
        log.pulls.push((entered, left, scale));
        drop(log);
        self.inner.next_arrival()
    }

    fn materialize(&self, arrival: &Arrival) -> Ptg {
        let ptg = self.inner.materialize(arrival);
        let mut log = self.log.lock().expect("log lock");
        log.tasks += ptg.num_tasks() as u64;
        log.edges += ptg.num_edges() as u64;
        ptg
    }
}

impl TimedSource {
    fn new() -> Self {
        Self {
            inner: source(),
            log: Arc::default(),
        }
    }

    /// Runs the scheduler once and splits its time at the pulls: start to
    /// first pull, each pull to the next, last pull to the end (all in
    /// reference ms).
    fn timed_run(&self, scheduler: &OnlineScheduler<'_>) -> (OnlineReport, Vec<f64>) {
        let mut scale = self.log.lock().expect("log lock").clock.scale();
        let start = Instant::now();
        let report = scheduler.run(self).expect("online run succeeds");
        let end = Instant::now();
        let pulls = std::mem::take(&mut self.log.lock().expect("log lock").pulls);
        let mut steps = Vec::with_capacity(pulls.len() + 1);
        let mut from = start;
        for (entered, left, pull_scale) in pulls {
            steps.push((entered - from).as_secs_f64() * 1e3 * scale);
            (from, scale) = (left, pull_scale);
        }
        steps.push((end - from).as_secs_f64() * 1e3 * scale);
        (report, steps)
    }
}

fn source() -> Arc<dyn WorkloadSource> {
    WorkloadCatalog::builtin()
        .resolve(SPEC)
        .expect("the knee stream spec resolves")
}

/// The platform, its engine and reference view, the stream source and the
/// scheduler: what a run builds before its first event.
fn setup(stream: &Stream) -> (Platform, Arc<dyn WorkloadSource>) {
    let platform = grid5000::lille();
    std::hint::black_box(Engine::new(&platform));
    std::hint::black_box(ReferencePlatform::new(&platform));
    let source = source();
    std::hint::black_box(OnlineScheduler::new(&platform, stream.config()).expect("valid config"));
    (platform, source)
}

/// Every value of a report that the digest and the equality checks cover.
fn report_bits(report: &OnlineReport) -> Vec<f64> {
    let c = &report.counters;
    let mut bits = vec![
        c.arrivals as f64,
        c.admitted as f64,
        c.shed as f64,
        c.completed as f64,
        report.elapsed,
        report.avg_queue_depth,
        report.busy_proc_seconds,
        report.utilization,
        report.reschedules as f64,
    ];
    for job in &report.jobs {
        bits.extend([
            job.index as f64,
            job.arrival,
            job.completion,
            job.dedicated,
            job.stretch,
        ]);
    }
    bits
}

/// The report's own consistency checks.
pub(crate) fn check_report(report: &OnlineReport, checks: &mut Checks) {
    let c = &report.counters;
    checks.check(
        "online arrivals == completed + shed",
        c.arrivals == c.completed + c.shed,
        format!(
            "{} arrivals, {} completed, {} shed",
            c.arrivals, c.completed, c.shed
        ),
    );
    checks.known_defect(
        "online utilization <= 1",
        report.utilization <= 1.0,
        format!("utilization {:.4}", report.utilization),
        UTILIZATION_DEFECT,
    );
}

/// Paper-style metrics of one report: Eq. 5 unfairness over the completed
/// jobs' slowdowns, the virtual makespan relative to the last arrival, and
/// the mean stretch.
fn quality(report: &OnlineReport) -> (f64, f64, f64) {
    let slowdowns: Vec<f64> = report.jobs.iter().map(|j| j.slowdown).collect();
    let last_arrival = report.jobs.iter().map(|j| j.arrival).fold(0.0, f64::max);
    (
        mcsched_core::unfairness(&slowdowns),
        report.elapsed / last_arrival,
        report.mean_stretch(),
    )
}

/// Repeated runs of the stream: their reports and, per step (start to
/// first pull, pull to pull, last pull to end), the median time over all
/// runs in reference time. Every run does the same work.
struct Runs {
    reports: Vec<OnlineReport>,
    best_steps_ms: Vec<f64>,
}

impl Runs {
    /// Runs the stream on one thread until `seconds` have passed and at
    /// least `min` runs are done, calling `between` after each run.
    fn measure(
        platform: &Platform,
        stream: &Stream,
        seconds: f64,
        min: usize,
        between: &mut dyn FnMut(),
    ) -> Self {
        let scheduler = OnlineScheduler::new(platform, stream.config()).expect("valid config");
        let timed = TimedSource::new();
        let (mut reports, mut steps) = (Vec::new(), Vec::new());
        let start = Instant::now();
        while reports.len() < min || start.elapsed().as_secs_f64() < seconds {
            let (report, run_steps) = timed.timed_run(&scheduler);
            reports.push(report);
            steps.push(run_steps);
            between();
        }
        Self {
            reports,
            best_steps_ms: median_per_item(&steps),
        }
    }

    /// The run's time with every step at its median, in seconds.
    fn best_s(&self) -> f64 {
        self.best_steps_ms.iter().sum::<f64>() / 1e3
    }

    /// The median time of each pull-to-pull step (ms): serving one
    /// arrival.
    fn arrival_ms(&self) -> &[f64] {
        &self.best_steps_ms[1..self.best_steps_ms.len() - 1]
    }

    fn digest(&self) -> String {
        digest_f64s("online-runs", self.reports.iter().flat_map(report_bits))
    }
}

/// `online-knee`, untraced: the end-to-end metrics.
pub fn knee(stream: &Stream, seconds: f64, checks: &mut Checks) -> RunResult {
    let mut clock = SetupClock::new(SETUP_PER_BLOCK);
    let (platform, source) = clock.block(|| setup(stream));
    let mut between = || {
        clock.block(|| setup(stream));
    };
    let runs = Runs::measure(
        &platform,
        stream,
        seconds * LOOP_SHARE,
        MIN_RUNS,
        &mut between,
    );
    let first = &runs.reports[0];
    check_report(first, checks);
    checks.check(
        "repeated online runs produce identical reports",
        runs.reports.iter().all(|r| r == first),
        format!("{} runs", runs.reports.len()),
    );

    let nproc = host::nproc();
    // The knee stream on nproc threads at once: nproc copies of ES with one
    // replication each all run the seed's stream. Derived replication seeds
    // would draw other streams, and some of those shed arrivals.
    let spec = CampaignSpec {
        replications: 1,
        threads: 0,
        base: stream.config(),
        ..CampaignSpec::new(vec![ConstraintStrategy::EqualShare; nproc])
    };
    let mut mt_times = Vec::new();
    let mut mt_reports = Vec::new();
    let (start, mut mt_runs, mut reference) = (Instant::now(), 0, RefClock::on_threads(nproc));
    while mt_runs < MIN_RUNS || start.elapsed().as_secs_f64() < seconds * (1.0 - LOOP_SHARE) {
        let (campaign, secs) = reference
            .time(|| run_campaign(&platform, &source, &spec).expect("online campaign runs"));
        mt_times.push(secs);
        mt_reports.extend(campaign.outcomes.into_iter().flat_map(|o| o.reports));
        mt_runs += 1;
        between();
    }
    checks.check(
        "every run of the nproc campaigns equals the 1-thread run bit for bit",
        mt_reports
            .iter()
            .all(|r| bits_equal(&report_bits(r), &report_bits(first))),
        format!("{} runs in {mt_runs} campaigns", mt_reports.len()),
    );
    let mt_reschedules: u64 = mt_reports[..nproc].iter().map(|r| r.reschedules).sum();
    checks.digest(
        "online-knee",
        stream.seed,
        &digest_f64s("online-knee", report_bits(first)),
    );

    let best_s = runs.best_s();
    let (unfairness, rel_makespan, stretch) = quality(first);
    let (p, tail) = crate::stats::tail(runs.arrival_ms());
    println!(
        "scenario_ms_tail is p{p} over {} arrivals ({} runs; median run per arrival); \
         {} reschedules, utilization {:.4}",
        runs.arrival_ms().len(),
        runs.reports.len(),
        first.reschedules,
        first.utilization
    );
    let all = runs.reports.iter().chain(&mt_reports);
    let (arrivals, shed) = all.fold((0, 0), |(a, s), r| {
        (a + r.counters.arrivals, s + r.counters.shed)
    });
    RunResult {
        metrics: vec![
            Metric::new("setup_s", clock.median_s(), "s"),
            Metric::new("cells_per_s", first.reschedules as f64 / best_s, "1/s"),
            Metric::new(
                "cells_per_s_mt",
                mt_reschedules as f64 / median(&mt_times),
                "1/s",
            ),
            Metric::new(
                "jobs_per_s",
                first.counters.completed as f64 / best_s,
                "1/s",
            ),
            Metric::new("scenario_ms_p50", median(runs.arrival_ms()), "ms"),
            Metric::new("scenario_ms_tail", tail, "ms"),
            Metric::new("unfairness", unfairness, "ratio"),
            Metric::new("rel_makespan", rel_makespan, "ratio"),
            Metric::new("stretch_mean", stretch, "ratio"),
            Metric::new("peak_rss_mb", host::peak_rss_mb(), "MB"),
        ],
        attempted: arrivals,
        failed: shed,
    }
}

/// The untraced half of a traced run, executed in a child process.
pub fn child(stream: &Stream, seconds: f64) -> Child {
    let runs = Runs::measure(&grid5000::lille(), stream, seconds, 1, &mut || {});
    Child {
        count: runs.reports.len(),
        wall_s: runs.best_s(),
        digest: runs.digest(),
    }
}

/// Phases of the program's own profile registry the online loop feeds.
const PHASES: [&str; 5] = [
    "online-loop",
    "beta+alloc",
    "mapping",
    "simx-execute",
    "workload-gen",
];

/// `online-knee`, traced: the per-layer metrics, per run. Returns the
/// arrivals attempted and refused.
pub fn knee_traced(
    stream: &Stream,
    child: &Child,
    layers: &mut Layers,
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> (u64, u64) {
    phase::enable_profiling();
    let platform = grid5000::lille();
    let timed = TimedSource::new();
    let scheduler = OnlineScheduler::new(&platform, stream.config()).expect("valid config");
    let before: Vec<f64> = PHASES.iter().map(|p| phase::totals(p).0).collect();
    let grants = mcsched_obs::metrics::histogram("alloc.grants").snapshot();
    let depth = mcsched_obs::metrics::histogram("online.queue_depth").snapshot();
    let events0 = counter("simx.events").get();
    let mut runs = Runs {
        reports: Vec::new(),
        best_steps_ms: Vec::new(),
    };
    let mut steps = Vec::new();
    for r in 0..child.count {
        let (report, run_steps) =
            tracer.span("online.run", r as u64, || timed.timed_run(&scheduler));
        runs.reports.push(report);
        steps.push(run_steps);
    }
    runs.best_steps_ms = median_per_item(&steps);
    let events = counter("simx.events").get() - events0;
    let runs_n = child.count as f64;
    let mut phase_ms: Vec<f64> = PHASES
        .iter()
        .zip(&before)
        .map(|(p, b)| (phase::totals(p).0 - b) * 1e3 / runs_n)
        .collect();
    let digest = runs.digest();
    checks.check(
        "traced outcomes equal untraced outcomes bit for bit",
        digest == child.digest,
        format!(
            "{} runs: traced {digest}, untraced {}",
            child.count, child.digest
        ),
    );
    for report in &runs.reports {
        check_report(report, checks);
    }
    // The pulls time the reference work inside the run span and inside
    // the loop phase; that time is the benchmark's, not the program's.
    let log = timed.log.lock().expect("log lock");
    let reference_ms = log.reference_ms / runs_n;
    phase_ms[0] -= reference_ms;
    let run_ms = tracer.total("online.run").0 / runs_n - reference_ms;
    let self_ms = run_ms - phase_ms.iter().sum::<f64>();
    checks.check(
        "profiled phases cover no more than the run span",
        self_ms >= 0.0,
        format!(
            "run {run_ms:.3} ms, phases {:.3} ms",
            phase_ms.iter().sum::<f64>()
        ),
    );
    let first = &runs.reports[0];
    layers.set("workload.gen_ms", phase_ms[4]);
    layers.set("workload.tasks", log.tasks as f64 / runs_n);
    layers.set("workload.edges", log.edges as f64 / runs_n);
    let (grants_mean, grants_p99) = histogram_delta(&grants, "alloc.grants");
    layers.set("core.alloc.grants_mean", grants_mean);
    layers.set("core.alloc.grants_p99", grants_p99);
    layers.set(
        "simx.events_per_s",
        events as f64 / runs_n / (phase_ms[3] / 1e3),
    );
    layers.set("online.run_ms", run_ms);
    layers.set("online.reschedules", first.reschedules as f64);
    layers.set(
        "online.reschedules_per_job",
        first.reschedules as f64 / first.counters.completed as f64,
    );
    layers.set(
        "online.ms_per_reschedule",
        run_ms / first.reschedules as f64,
    );
    layers.set("online.loop_ms", phase_ms[0]);
    layers.set("online.beta_alloc_ms", phase_ms[1]);
    layers.set("online.mapping_ms", phase_ms[2]);
    layers.set("online.simx_ms", phase_ms[3]);
    layers.set(
        "online.queue_depth_p99",
        histogram_delta(&depth, "online.queue_depth").1,
    );
    layers.set("online.shed", first.counters.shed as f64);
    layers.set("exp.self_ms", self_ms);
    layers.set(
        "obs.trace_overhead_frac",
        runs.best_s() / child.wall_s - 1.0,
    );
    let table = tracer.span("stats", 0, || {
        let samples = first.stretch_samples();
        (samples.len(), mcsched_online::report::table_run(first))
    });
    std::hint::black_box(table);
    layers.set("stats.ms", tracer.total("stats").0);
    let arrivals = runs.reports.iter().map(|r| r.counters.arrivals).sum();
    let shed = runs.reports.iter().map(|r| r.counters.shed).sum();
    (arrivals, shed)
}
