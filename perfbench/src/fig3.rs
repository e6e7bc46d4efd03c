//! The Figure 3 workloads: `fig3-cold` (every cell evaluated) and
//! `fig3-warm` (every cell served by the cell cache).
//!
//! Both loop over a fixed set of scenarios, pass after pass, until the time
//! budget is spent, and keep each scenario's median pass in reference time
//! (see [`RefClock`]): the host is shared and noisy.

use crate::checks::{bits_equal, digest_f64s, Checks};
use crate::host::RefClock;
use crate::layers::{histogram_delta, Layers};
use crate::stats::{mean, median, median_per_item, SetupClock};
use crate::trace::Tracer;
use crate::{host, Child, Metric, RunResult};
use mcsched_core::policy::ConstraintPolicy;
use mcsched_core::{ConcurrentScheduler, ReferencePlatform, ScheduleContext, SchedulerConfig};
use mcsched_exp::cells::scenario_digest;
use mcsched_exp::{
    evaluate_policies_cached, generate_scenarios_with, run_campaign, table_campaign,
    CampaignConfig, CampaignResult, CellSamples, Scenario, ScenarioOutcome, StrategyPoint,
};
use mcsched_obs::metrics::counter;
use mcsched_platform::grid5000;
use mcsched_ptg::gen::PtgClass;
use mcsched_runtime::CellCache;
use mcsched_simx::Engine;
use mcsched_workload::WorkloadSource;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Back-to-back set-ups per block; one block runs before the timed loop
/// and one after each pass or campaign (see [`SetupClock`]).
const SETUP_PER_BLOCK: usize = 5;
/// Share of the time budget the 1-thread loop gets; the `nproc` campaigns
/// get the rest.
pub const LOOP_SHARE: f64 = 2.0 / 3.0;
/// Passes and `nproc` campaigns a run makes at least, whatever the time
/// budget.
const MIN_PASSES: usize = 2;
/// The seed of the timed draw: the figure binaries' default, so the timed
/// grid is the one `fig3_random --full` evaluates.
pub const REFERENCE_SEED: u64 = 0x5EED;

/// The campaign grid of a fig3 workload.
#[derive(Debug, Clone)]
pub struct Grid {
    pub ptg_counts: Vec<usize>,
    pub combinations: usize,
    pub seed: u64,
}

/// The inputs of a fig3 run, all made from the benchmark seed.
///
/// The timed grid is the paper's own Figure 3 draw. Its cost is
/// heavy-tailed in the draw (on a 2-core Xeon, the same 10-combination
/// grid cost 5.1 to 11.1 s at 1 thread over eight seeds), so timing a fresh draw per seed
/// would measure the draw, not the program. The seed instead sets the
/// order the timed loop visits the scenarios in, and draws the side grid
/// the paper metrics (unfairness, relative makespan, stretch) and the
/// seed's share of the digest are computed on.
#[derive(Debug, Clone)]
pub struct Fig3 {
    pub timed: Grid,
    pub side: Grid,
    pub order_seed: u64,
}

impl Fig3 {
    /// Timed: 2..10 PTGs × the first 5 of the paper's 25 combinations ×
    /// 4 sites at the paper seed (small enough to repeat several times in
    /// a run). Side: 10 combinations of the same shape at `seed`.
    pub fn paper(seed: u64) -> Self {
        let counts = vec![2, 4, 6, 8, 10];
        Self {
            timed: Grid {
                ptg_counts: counts.clone(),
                combinations: 5,
                seed: REFERENCE_SEED,
            },
            side: Grid {
                ptg_counts: counts,
                combinations: 10,
                seed,
            },
            order_seed: seed,
        }
    }

    /// The timed scenarios' visiting order: a seeded Fisher-Yates shuffle.
    pub fn order(&self, len: usize) -> Vec<usize> {
        let mut state = self.order_seed;
        let mut next = || {
            // splitmix64
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut order: Vec<usize> = (0..len).collect();
        for i in (1..len).rev() {
            order.swap(i, (next() % (i as u64 + 1)) as usize);
        }
        order
    }
}

impl Grid {
    /// The campaign configuration `fig3_random --full` runs for this grid
    /// (with `--combinations` and `--seed` set to the grid's).
    pub fn config(&self, threads: usize, cache_dir: Option<PathBuf>) -> CampaignConfig {
        CampaignConfig {
            ptg_counts: self.ptg_counts.clone(),
            combinations: self.combinations,
            seed: self.seed,
            threads,
            cache_dir,
            ..CampaignConfig::paper(PtgClass::Random)
        }
    }
}

/// One scenario with its place in the grid.
#[derive(Debug)]
pub struct GridScenario {
    pub scenario: Scenario,
    pub num_ptgs: usize,
    /// Index of the scenario within its data point (the campaign's sample
    /// index).
    pub slot: usize,
}

/// Generates the grid's scenarios, data point by data point, in the
/// campaign's sample order.
fn generate(grid: &Grid, source: &dyn WorkloadSource) -> Vec<GridScenario> {
    grid.ptg_counts
        .iter()
        .flat_map(|&num_ptgs| {
            generate_scenarios_with(source, num_ptgs, grid.combinations, grid.seed)
                .expect("class-backed generator sources cannot fail")
                .into_iter()
                .enumerate()
                .map(move |(slot, scenario)| GridScenario {
                    scenario,
                    num_ptgs,
                    slot,
                })
        })
        .collect()
}

/// Builds every platform's engine and reference view and generates the
/// scenarios: the set-up a campaign pays before its first cell.
fn setup(grid: &Grid, config: &CampaignConfig) -> Vec<GridScenario> {
    for platform in grid5000::all_sites() {
        std::hint::black_box(Engine::new(&platform));
        std::hint::black_box(ReferencePlatform::new(&platform));
    }
    generate(grid, config.source.as_ref())
}

/// What a timed loop measured: the outcomes of its first pass, each
/// scenario's median time over all passes, and whether every pass
/// reproduced the first one.
#[derive(Debug, Default)]
pub struct Covered {
    pub outcomes: Vec<Vec<ScenarioOutcome>>,
    pub best_ms: Vec<f64>,
    pub passes: usize,
    pub repeatable: bool,
    pub failed: u64,
}

impl Covered {
    /// Sum of the median per-scenario times, in seconds.
    pub fn best_s(&self) -> f64 {
        self.best_ms.iter().sum::<f64>() / 1e3
    }

    pub fn digest(&self) -> String {
        digest_f64s("covered", outcome_bits(&self.outcomes))
    }
}

fn outcome_bits(outcomes: &[Vec<ScenarioOutcome>]) -> Vec<f64> {
    outcomes
        .iter()
        .flatten()
        .flat_map(|o| [o.unfairness, o.makespan, o.average_slowdown])
        .collect()
}

/// Runs `evaluate` over every scenario in `order`, pass after pass, until
/// `seconds` have passed and at least [`MIN_PASSES`] are done, calling
/// `between` after each pass. A scenario whose evaluation fails yields no
/// outcomes. Results stay indexed by scenario.
fn timed_passes(
    scenarios: &[GridScenario],
    order: &[usize],
    seconds: f64,
    between: &mut dyn FnMut(),
    mut evaluate: impl FnMut(&GridScenario) -> Option<Vec<ScenarioOutcome>>,
) -> Covered {
    let mut covered = Covered {
        repeatable: true,
        ..Covered::default()
    };
    let mut times = Vec::new();
    let mut clock = RefClock::new();
    let start = Instant::now();
    while covered.passes < MIN_PASSES || start.elapsed().as_secs_f64() < seconds {
        let mut pass_ms = vec![0.0; scenarios.len()];
        let mut pass = vec![Vec::new(); scenarios.len()];
        for &i in order {
            let (outcomes, secs) = clock.time(|| evaluate(&scenarios[i]));
            pass_ms[i] = secs * 1e3;
            pass[i] = outcomes.unwrap_or_default();
        }
        covered.failed += pass.iter().filter(|o| o.is_empty()).count() as u64;
        if covered.passes == 0 {
            covered.outcomes = pass;
        } else {
            covered.repeatable &=
                bits_equal(&outcome_bits(&pass), &outcome_bits(&covered.outcomes));
        }
        times.push(pass_ms);
        covered.passes += 1;
        between();
    }
    covered.best_ms = median_per_item(&times);
    covered
}

/// Evaluates every scenario on one thread through
/// `Scenario::evaluate_policies`, as the campaign does for a cell.
fn cold_loop(
    scenarios: &[GridScenario],
    order: &[usize],
    config: &CampaignConfig,
    seconds: f64,
    between: &mut dyn FnMut(),
) -> Covered {
    timed_passes(scenarios, order, seconds, between, |gs| {
        catch_unwind(AssertUnwindSafe(|| {
            gs.scenario
                .evaluate_policies(&config.base, &config.strategies)
        }))
        .ok()
    })
}

/// Serves every scenario from the cache through
/// `evaluate_policies_cached`, as a resumed campaign does.
fn warm_loop(
    scenarios: &[GridScenario],
    order: &[usize],
    config: &CampaignConfig,
    cache: &CellCache,
    seconds: f64,
    between: &mut dyn FnMut(),
) -> Covered {
    let spec = config.source.spec();
    let pipeline_key = config.base.pipeline_cache_key();
    timed_passes(scenarios, order, seconds, between, |gs| {
        Some(evaluate_policies_cached(
            &gs.scenario,
            &config.base,
            &config.strategies,
            Some(cache),
            &spec,
            &pipeline_key,
        ))
    })
}

/// Whether the per-scenario outcomes equal the campaign's samples bit for
/// bit.
fn matches_campaign(
    scenarios: &[GridScenario],
    outcomes: &[Vec<ScenarioOutcome>],
    result: &CampaignResult,
) -> Result<(), String> {
    for (gs, per_policy) in scenarios.iter().zip(outcomes) {
        if per_policy.is_empty() {
            return Err(format!("{} failed to evaluate", gs.scenario.name));
        }
        for o in per_policy {
            let point = result.point(gs.num_ptgs, &o.strategy).ok_or_else(|| {
                format!("campaign has no point ({}, {})", gs.num_ptgs, o.strategy)
            })?;
            let u = point.samples.unfairness.values()[gs.slot];
            let m = point.samples.makespan.values()[gs.slot];
            if !bits_equal(&[u, m], &[o.unfairness, o.makespan]) {
                return Err(format!(
                    "{} / {}: ({u}, {m}) vs ({}, {})",
                    gs.scenario.name, o.strategy, o.unfairness, o.makespan
                ));
            }
        }
    }
    Ok(())
}

fn check_matches(
    checks: &mut Checks,
    name: &str,
    scenarios: &[GridScenario],
    outcomes: &[Vec<ScenarioOutcome>],
    result: &CampaignResult,
) {
    let matches = matches_campaign(scenarios, outcomes, result);
    checks.check(
        name,
        matches.is_ok(),
        matches
            .err()
            .unwrap_or_else(|| format!("{} scenarios", scenarios.len())),
    );
}

/// Every sample of a campaign, in point order.
fn campaign_bits(result: &CampaignResult) -> Vec<f64> {
    result
        .points
        .iter()
        .flat_map(|p| {
            let s = &p.samples;
            [&s.unfairness, &s.makespan, &s.relative_makespan]
                .into_iter()
                .flat_map(|v| v.values().to_vec())
        })
        .collect()
}

/// Paper metrics over per-scenario outcomes: mean unfairness (Eq. 5),
/// mean relative makespan (against the best policy of the scenario, as
/// the campaign computes it) and mean cell stretch (1 ÷ the cell's average
/// slowdown).
fn quality(outcomes: &[Vec<ScenarioOutcome>]) -> (f64, f64, f64) {
    let mut unfair = Vec::new();
    let mut rel = Vec::new();
    let mut stretch = Vec::new();
    for per_policy in outcomes {
        let best = per_policy
            .iter()
            .map(|o| o.makespan)
            .filter(|m| *m > 0.0)
            .fold(f64::INFINITY, f64::min);
        for o in per_policy {
            unfair.push(o.unfairness);
            rel.push(if best.is_finite() {
                o.makespan / best
            } else {
                1.0
            });
            stretch.push(1.0 / o.average_slowdown);
        }
    }
    (mean(&unfair), mean(&rel), mean(&stretch))
}

/// Cells and applications of one pass over the scenarios.
fn cells_of(scenarios: &[GridScenario], config: &CampaignConfig) -> (u64, u64) {
    let policies = config.strategies.len() as u64;
    let cells = scenarios.len() as u64 * policies;
    let apps = scenarios.iter().map(|s| s.num_ptgs as u64).sum::<u64>() * policies;
    (cells, apps)
}

/// The end-to-end metrics shared by both fig3 workloads.
fn metrics(
    setup_s: f64,
    covered: &Covered,
    scenarios: &[GridScenario],
    config: &CampaignConfig,
    mt_s: f64,
    side: &[Vec<ScenarioOutcome>],
) -> Vec<Metric> {
    let (cells, apps) = cells_of(scenarios, config);
    let best_s = covered.best_s();
    let (p, tail) = crate::stats::tail(&covered.best_ms);
    let (unfairness, rel_makespan, stretch) = quality(side);
    println!(
        "scenario_ms_tail is p{p} over {} scenarios ({} passes; median pass per scenario)",
        covered.best_ms.len(),
        covered.passes
    );
    vec![
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("cells_per_s", cells as f64 / best_s, "1/s"),
        Metric::new("cells_per_s_mt", cells as f64 / mt_s, "1/s"),
        Metric::new("jobs_per_s", apps as f64 / best_s, "1/s"),
        Metric::new("scenario_ms_p50", median(&covered.best_ms), "ms"),
        Metric::new("scenario_ms_tail", tail, "ms"),
        Metric::new("unfairness", unfairness, "ratio"),
        Metric::new("rel_makespan", rel_makespan, "ratio"),
        Metric::new("stretch_mean", stretch, "ratio"),
        Metric::new("peak_rss_mb", host::peak_rss_mb(), "MB"),
    ]
}

/// The `nproc`-thread campaigns of a run.
struct MtCampaigns {
    first: CampaignResult,
    runs: usize,
    median_s: f64,
    repeatable: bool,
}

/// Runs the grid's campaign at `nproc` threads until `seconds` have passed
/// (at least [`MIN_PASSES`] times), calling `between` after each; keeps
/// the first result and the median time in reference seconds.
fn mt_campaigns(config: &CampaignConfig, seconds: f64, between: &mut dyn FnMut()) -> MtCampaigns {
    let mut times = Vec::new();
    let mut first: Option<CampaignResult> = None;
    let (mut runs, mut repeatable) = (0, true);
    let mut clock = RefClock::on_threads(host::nproc());
    let start = Instant::now();
    while runs < MIN_PASSES || start.elapsed().as_secs_f64() < seconds {
        let (result, secs) = clock.time(|| run_campaign(config).expect("fig3 campaign runs"));
        times.push(secs);
        match &first {
            Some(f) => repeatable &= bits_equal(&campaign_bits(f), &campaign_bits(&result)),
            None => first = Some(result),
        }
        runs += 1;
        between();
    }
    MtCampaigns {
        first: first.expect("at least one campaign"),
        runs,
        median_s: median(&times),
        repeatable,
    }
}

/// The seed's side grid, evaluated untimed at `nproc` threads through
/// `evaluate_policies_cached` (served from `cache` when given): the inputs
/// of the paper metrics.
fn side_outcomes(fig: &Fig3, cache: Option<Arc<CellCache>>) -> Vec<Vec<ScenarioOutcome>> {
    let config = fig.side.config(0, None);
    let scenarios = Arc::new(generate(&fig.side, config.source.as_ref()));
    let (spec, key) = (config.source.spec(), config.base.pipeline_cache_key());
    let (base, policies) = (config.base, config.strategies.clone());
    let shared = Arc::clone(&scenarios);
    mcsched_runtime::run_indexed(0, scenarios.len(), move |i| {
        evaluate_policies_cached(
            &shared[i].scenario,
            &base,
            &policies,
            cache.as_deref(),
            &spec,
            &key,
        )
    })
}

/// `fig3-cold`, untraced: the end-to-end metrics.
pub fn cold(fig: &Fig3, seconds: f64, checks: &mut Checks) -> RunResult {
    let grid = &fig.timed;
    let config = grid.config(1, None);
    let mut clock = SetupClock::new(SETUP_PER_BLOCK);
    let scenarios = clock.block(|| setup(grid, &config));
    let order = fig.order(scenarios.len());

    let runs_before = counter("simx.runs").get();
    let mut between = || {
        clock.block(|| setup(grid, &config));
    };
    let covered = cold_loop(
        &scenarios,
        &order,
        &config,
        seconds * LOOP_SHARE,
        &mut between,
    );
    let runs = counter("simx.runs").get() - runs_before;
    let expected_runs: u64 = scenarios
        .iter()
        .map(|s| (config.strategies.len() + s.num_ptgs) as u64)
        .sum::<u64>()
        * covered.passes as u64;
    checks.check(
        "simx.runs delta equals concurrent plus dedicated runs",
        runs == expected_runs,
        format!("{runs} runs, expected {expected_runs}"),
    );
    checks.check(
        "every 1-thread pass reproduces the first bit for bit",
        covered.repeatable,
        format!("{} passes", covered.passes),
    );
    let all_finite = outcome_bits(&covered.outcomes)
        .iter()
        .all(|v| v.is_finite());
    checks.check(
        "outcomes are finite",
        all_finite,
        format!("{} scenarios", scenarios.len()),
    );

    let mt = mt_campaigns(
        &grid.config(0, None),
        seconds * (1.0 - LOOP_SHARE),
        &mut between,
    );
    let campaign = &mt.first;
    check_matches(
        checks,
        "fig3-cold outcomes are identical at 1 and nproc threads",
        &scenarios,
        &covered.outcomes,
        campaign,
    );
    checks.check(
        "every nproc campaign reproduces the first bit for bit",
        mt.repeatable,
        format!("{} campaigns", mt.runs),
    );
    let side = side_outcomes(fig, None);
    let digest = digest_f64s(
        "fig3-cold",
        campaign_bits(campaign)
            .into_iter()
            .chain(outcome_bits(&covered.outcomes))
            .chain(outcome_bits(&side)),
    );
    checks.digest("fig3-cold", fig.order_seed, &digest);

    let (cells, _) = cells_of(&scenarios, &config);
    RunResult {
        metrics: metrics(
            clock.median_s(),
            &covered,
            &scenarios,
            &config,
            mt.median_s,
            &side,
        ),
        attempted: cells * (covered.passes + mt.runs) as u64,
        failed: covered.failed * config.strategies.len() as u64,
    }
}

/// Fills the cell cache with cold `run_campaign`s of the timed and the
/// side grid at `nproc` threads: the real program writes the shards the
/// warm workload reads. Returns the timed grid's campaign.
fn fill_cache(fig: &Fig3, dir: &Path) -> CampaignResult {
    if dir.exists() {
        std::fs::remove_dir_all(dir).expect("stale cache directory is removable");
    }
    let fill = |grid: &Grid| {
        run_campaign(&grid.config(0, Some(dir.to_path_buf()))).expect("cache-filling campaign runs")
    };
    fill(&fig.side);
    fill(&fig.timed)
}

/// `fig3-warm`, untraced: the end-to-end metrics.
pub fn warm(fig: &Fig3, seconds: f64, work: &Path, checks: &mut Checks) -> RunResult {
    let grid = &fig.timed;
    let dir = work.join("cells");
    let fill = fill_cache(fig, &dir);
    let config = grid.config(1, Some(dir.clone()));
    let set_up = || {
        let scenarios = setup(grid, &config);
        let cache = CellCache::open(&dir, true).expect("cache directory opens");
        (scenarios, Arc::new(cache))
    };
    let mut clock = SetupClock::new(SETUP_PER_BLOCK);
    let (scenarios, cache) = clock.block(set_up);
    let order = fig.order(scenarios.len());

    let (hits0, misses0) = (counter("cache.hit").get(), counter("cache.miss").get());
    let mut between = || {
        clock.block(set_up);
    };
    let covered = warm_loop(
        &scenarios,
        &order,
        &config,
        &cache,
        seconds * LOOP_SHARE,
        &mut between,
    );
    let hits = counter("cache.hit").get() - hits0;
    let misses = counter("cache.miss").get() - misses0;
    let (cells, _) = cells_of(&scenarios, &config);
    let served = cells * covered.passes as u64;
    checks.check(
        "fig3-warm serves every cell from the cache",
        hits == served && misses == 0,
        format!("{hits} hits, {misses} misses over {served} cells"),
    );
    checks.check(
        "every warm pass reproduces the first bit for bit",
        covered.repeatable,
        format!("{} passes", covered.passes),
    );
    check_matches(
        checks,
        "fig3-warm outcomes equal the cold campaign that filled the cache",
        &scenarios,
        &covered.outcomes,
        &fill,
    );
    let mt = mt_campaigns(
        &grid.config(0, Some(dir.clone())),
        seconds * (1.0 - LOOP_SHARE),
        &mut between,
    );
    checks.check(
        "warm campaigns at nproc threads reproduce the cold one bit for bit",
        mt.repeatable && bits_equal(&campaign_bits(&mt.first), &campaign_bits(&fill)),
        format!("{} warm campaigns", mt.runs),
    );
    let misses0 = counter("cache.miss").get();
    let side = side_outcomes(fig, Some(Arc::clone(&cache)));
    let side_misses = counter("cache.miss").get() - misses0;
    checks.check(
        "the side grid is served from the cache",
        side_misses == 0,
        format!("{side_misses} misses"),
    );
    let digest = digest_f64s(
        "fig3-warm",
        campaign_bits(&fill)
            .into_iter()
            .chain(outcome_bits(&covered.outcomes))
            .chain(outcome_bits(&side)),
    );
    checks.digest("fig3-warm", fig.order_seed, &digest);

    let _ = std::fs::remove_dir_all(&dir);
    RunResult {
        metrics: metrics(
            clock.median_s(),
            &covered,
            &scenarios,
            &config,
            mt.median_s,
            &side,
        ),
        attempted: served + cells * mt.runs as u64,
        failed: misses,
    }
}

/// The untraced half of a traced fig3 run, executed in a child process:
/// the untraced workload's 1-thread loop, reported as passes made, the
/// pass time with every scenario at its median, and an outcome digest.
pub fn child(workload: &str, fig: &Fig3, seconds: f64, work: &Path) -> Child {
    let dir = work.join("cells");
    let config = fig.timed.config(1, Some(dir.clone()));
    let scenarios = generate(&fig.timed, config.source.as_ref());
    let order = fig.order(scenarios.len());
    let covered = if workload == "fig3-warm" {
        let cache = CellCache::open(&dir, true).expect("cache directory opens");
        warm_loop(&scenarios, &order, &config, &cache, seconds, &mut || {})
    } else {
        cold_loop(&scenarios, &order, &config, seconds, &mut || {})
    };
    Child {
        count: covered.passes,
        wall_s: covered.best_s(),
        digest: covered.digest(),
    }
}

/// Counters of the traced replication of
/// `ScheduleContext::evaluate_policies`, over all passes.
#[derive(Debug, Default)]
struct ColdCounts {
    mapping_jobs: u64,
    mapping_transfers: u64,
    concurrent_events: u64,
    dedicated_events: u64,
    dedicated_requests: u64,
    ctx_concurrent: u64,
    ctx_dedicated: u64,
    apps: u64,
}

/// Evaluates one scenario step by step through the `ScheduleContext`
/// calls, each in its layer's span, reproducing
/// `ConcurrentScheduler::evaluate_in` (schedule, dedicated baselines,
/// fairness) for every policy.
fn evaluate_traced(
    tracer: &mut Tracer,
    id: u64,
    scenario: &Scenario,
    base: &SchedulerConfig,
    policies: &[Arc<dyn ConstraintPolicy>],
    counts: &mut ColdCounts,
) -> Vec<ScenarioOutcome> {
    let events = counter("simx.events");
    let outer = tracer.begin("exp.scenario", id);
    let workload = scenario.workload();
    let ctx = tracer.span("core.context.build", id, || {
        ScheduleContext::for_workload(&scenario.platform, &workload, *base)
    });
    let release = ctx.release_times().to_vec();
    let apps = ctx.ptgs().len();
    let mut outcomes = Vec::with_capacity(policies.len());
    for policy in policies {
        let scheduler = ConcurrentScheduler::builder()
            .constraint_policy(Arc::clone(policy))
            .allocation_procedure(base.allocation)
            .mapping_config(base.mapping)
            .build()
            .expect("paper policies build");
        tracer.span("core.beta", id, || ctx.betas_for(policy.as_ref()));
        let allocations = tracer.span("core.alloc", id, || {
            ctx.allocations_for(policy.as_ref(), scheduler.allocation_policy().as_ref())
        });
        let schedule = tracer.span("core.mapping", id, || {
            ctx.map_with(scheduler.mapping_policy().as_ref(), &allocations, &release)
        });
        counts.mapping_jobs += schedule.workload.jobs.len() as u64;
        counts.mapping_transfers += schedule.workload.transfers.len() as u64;
        let before = events.get();
        let run = tracer
            .span("simx.concurrent", id, || ctx.execute(&schedule.workload))
            .expect("scheduler produces valid workloads");
        counts.concurrent_events += events.get() - before;
        let makespans: Vec<f64> = (0..apps)
            .map(|i| (run.trace.makespan_of(schedule.app_jobs(i)) - release[i]).max(0.0))
            .collect();
        let before = events.get();
        let dedicated = tracer
            .span("core.dedicated", id, || ctx.dedicated_makespans())
            .expect("scheduler produces valid workloads");
        counts.dedicated_events += events.get() - before;
        counts.dedicated_requests += apps as u64;
        let fairness = mcsched_core::metrics::fairness_report(&dedicated, &makespans);
        outcomes.push(ScenarioOutcome {
            strategy: policy.name(),
            unfairness: fairness.unfairness,
            makespan: run.makespan,
            average_slowdown: fairness.average_slowdown,
        });
    }
    counts.ctx_concurrent += ctx.concurrent_simulations() as u64;
    counts.ctx_dedicated += ctx.dedicated_simulations() as u64;
    counts.apps += apps as u64;
    tracer.end(outer);
    outcomes
}

/// Aggregates per-scenario outcomes into the campaign table, as
/// `run_campaign` does, and renders it.
fn render_table(scenarios: &[GridScenario], outcomes: &[Vec<ScenarioOutcome>]) -> String {
    let mut cells: BTreeMap<(usize, usize), (String, CellSamples)> = BTreeMap::new();
    for (gs, per_policy) in scenarios.iter().zip(outcomes) {
        let best = per_policy
            .iter()
            .map(|o| o.makespan)
            .filter(|m| *m > 0.0)
            .fold(f64::INFINITY, f64::min);
        for (si, o) in per_policy.iter().enumerate() {
            let (_, cell) = cells
                .entry((gs.num_ptgs, si))
                .or_insert_with(|| (o.strategy.clone(), CellSamples::default()));
            cell.unfairness.push(o.unfairness);
            cell.makespan.push(o.makespan);
            cell.relative_makespan.push(if best.is_finite() {
                o.makespan / best
            } else {
                1.0
            });
        }
    }
    let points = cells
        .into_iter()
        .map(|((n, _), (name, samples))| StrategyPoint::from_samples(n, name, samples))
        .collect();
    table_campaign(&CampaignResult {
        class: "random".into(),
        points,
    })
}

/// The workload layer, shared by both traced fig3 workloads.
fn traced_setup(
    tracer: &mut Tracer,
    grid: &Grid,
    config: &CampaignConfig,
    layers: &mut Layers,
) -> Vec<GridScenario> {
    let scenarios = tracer.span("workload.gen", 0, || setup(grid, config));
    layers.set("workload.gen_ms", tracer.total("workload.gen").0);
    let sites = grid5000::all_sites().len();
    let (mut tasks, mut edges) = (0, 0);
    for gs in scenarios.iter().filter(|gs| gs.slot % sites == 0) {
        for ptg in &gs.scenario.ptgs {
            tasks += ptg.num_tasks();
            edges += ptg.num_edges();
        }
    }
    layers.set("workload.tasks", tasks as f64);
    layers.set("workload.edges", edges as f64);
    scenarios
}

/// Layers common to the end of both traced fig3 runs: scenario self time,
/// the tracing overhead and the statistics layer. `scales` holds the wall
/// to reference factor of each scenario span, in span order.
fn traced_finish(
    tracer: &mut Tracer,
    scenarios: &[GridScenario],
    outcomes: &[Vec<ScenarioOutcome>],
    scales: &[f64],
    child: &Child,
    layers: &mut Layers,
    checks: &mut Checks,
) {
    let passes = child.count as f64;
    let self_ms = tracer.self_times("exp.scenario");
    let negative = self_ms.iter().filter(|&&s| s < 0.0).count();
    checks.check(
        "child spans cover no more than their scenario span",
        negative == 0,
        format!(
            "{negative} of {} scenario spans with negative self time",
            self_ms.len()
        ),
    );
    layers.set("exp.self_ms", self_ms.iter().sum::<f64>() / passes);
    // Median traced pass per scenario against the median untraced one,
    // both in reference time.
    let scaled: Vec<f64> = tracer
        .durations("exp.scenario")
        .iter()
        .zip(scales)
        .map(|(ms, scale)| ms * scale)
        .collect();
    let per_pass: Vec<Vec<f64>> = scaled
        .chunks(scenarios.len())
        .map(<[f64]>::to_vec)
        .collect();
    let traced_best_s = median_per_item(&per_pass).iter().sum::<f64>() / 1e3;
    layers.set(
        "obs.trace_overhead_frac",
        traced_best_s / child.wall_s - 1.0,
    );
    let table = tracer.span("stats", 0, || render_table(scenarios, outcomes));
    std::hint::black_box(table);
    layers.set("stats.ms", tracer.total("stats").0);
}

/// Sets a layer's time (and call count), per pass.
fn set_span_totals(
    tracer: &Tracer,
    layers: &mut Layers,
    span: &str,
    ms: &'static str,
    calls: Option<&'static str>,
    passes: f64,
) {
    let (total_ms, count) = tracer.total(span);
    layers.set(ms, total_ms / passes);
    if let Some(calls) = calls {
        layers.set(calls, count as f64 / passes);
    }
}

/// `fig3-cold`, traced: the per-layer metrics, per pass over the
/// scenarios. Returns the cells evaluated.
pub fn cold_traced(
    fig: &Fig3,
    child: &Child,
    layers: &mut Layers,
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> u64 {
    let grid = &fig.timed;
    let config = grid.config(1, None);
    let scenarios = traced_setup(tracer, grid, &config, layers);
    let order = fig.order(scenarios.len());
    let grants = mcsched_obs::metrics::histogram("alloc.grants").snapshot();
    let runs_before = counter("simx.runs").get();
    let mut counts = ColdCounts::default();
    let mut outcomes = vec![Vec::new(); scenarios.len()];
    let (mut clock, mut scales) = (RefClock::new(), Vec::new());
    for _ in 0..child.count {
        for &i in &order {
            scales.push(clock.scale());
            outcomes[i] = evaluate_traced(
                tracer,
                i as u64,
                &scenarios[i].scenario,
                &config.base,
                &config.strategies,
                &mut counts,
            );
        }
    }
    let simx_runs = counter("simx.runs").get() - runs_before;

    let digest = digest_f64s("covered", outcome_bits(&outcomes));
    checks.check(
        "traced outcomes equal untraced outcomes bit for bit",
        digest == child.digest,
        format!(
            "{} scenarios: traced {digest}, untraced {}",
            scenarios.len(),
            child.digest
        ),
    );
    let concurrent_runs = tracer.total("simx.concurrent").1;
    checks.check(
        "simx.concurrent_runs equals the contexts' concurrent_simulations()",
        concurrent_runs == counts.ctx_concurrent,
        format!(
            "{concurrent_runs} spans, {} simulations",
            counts.ctx_concurrent
        ),
    );
    checks.check(
        "core.dedicated.runs equals dedicated_simulations(), one per PTG",
        counts.ctx_dedicated == counts.apps,
        format!("{} runs for {} PTGs", counts.ctx_dedicated, counts.apps),
    );
    checks.check(
        "simx.runs delta equals concurrent plus dedicated runs",
        simx_runs == concurrent_runs + counts.ctx_dedicated,
        format!(
            "{simx_runs} vs {concurrent_runs} + {}",
            counts.ctx_dedicated
        ),
    );

    let passes = child.count as f64;
    set_span_totals(
        tracer,
        layers,
        "core.context.build",
        "core.context.build_ms",
        None,
        passes,
    );
    set_span_totals(
        tracer,
        layers,
        "core.beta",
        "core.beta.ms",
        Some("core.beta.calls"),
        passes,
    );
    set_span_totals(
        tracer,
        layers,
        "core.alloc",
        "core.alloc.ms",
        Some("core.alloc.calls"),
        passes,
    );
    let (grants_mean, grants_p99) = histogram_delta(&grants, "alloc.grants");
    layers.set("core.alloc.grants_mean", grants_mean);
    layers.set("core.alloc.grants_p99", grants_p99);
    set_span_totals(
        tracer,
        layers,
        "core.mapping",
        "core.mapping.ms",
        Some("core.mapping.calls"),
        passes,
    );
    layers.set("core.mapping.jobs", counts.mapping_jobs as f64 / passes);
    layers.set(
        "core.mapping.transfers",
        counts.mapping_transfers as f64 / passes,
    );
    let concurrent = tracer.durations("simx.concurrent");
    let concurrent_ms: f64 = concurrent.iter().sum();
    set_span_totals(
        tracer,
        layers,
        "simx.concurrent",
        "simx.concurrent_ms",
        Some("simx.concurrent_runs"),
        passes,
    );
    layers.set("simx.concurrent_ms_tail", crate::stats::tail(&concurrent).1);
    layers.set(
        "simx.concurrent_events",
        counts.concurrent_events as f64 / passes,
    );
    layers.set(
        "simx.events_per_s",
        counts.concurrent_events as f64 / (concurrent_ms / 1e3),
    );
    set_span_totals(
        tracer,
        layers,
        "core.dedicated",
        "core.dedicated.ms",
        None,
        passes,
    );
    layers.set(
        "core.dedicated.requests",
        counts.dedicated_requests as f64 / passes,
    );
    layers.set("core.dedicated.runs", counts.ctx_dedicated as f64 / passes);
    layers.set(
        "core.dedicated.memo_ratio",
        1.0 - counts.ctx_dedicated as f64 / counts.dedicated_requests as f64,
    );
    layers.set(
        "simx.dedicated_events",
        counts.dedicated_events as f64 / passes,
    );
    traced_finish(
        tracer, &scenarios, &outcomes, &scales, child, layers, checks,
    );

    // The pool pass: the same grid at nproc threads, with the pool
    // counters read around it. Efficiency compares it with the untraced
    // 1-thread time of the same scenarios.
    let counters = ["pool.task", "pool.steal", "pool.park"];
    let before = counters.map(|c| counter(c).get());
    let (campaign, pool_s) = RefClock::on_threads(host::nproc())
        .time(|| run_campaign(&grid.config(0, None)).expect("fig3 campaign runs"));
    let names = [
        "runtime.pool.tasks",
        "runtime.pool.steals",
        "runtime.pool.parks",
    ];
    for ((name, c), b) in names.into_iter().zip(counters).zip(before) {
        layers.set(name, (counter(c).get() - b) as f64);
    }
    layers.set(
        "runtime.pool.efficiency",
        child.wall_s / (host::nproc() as f64 * pool_s),
    );
    check_matches(
        checks,
        "traced outcomes equal the nproc campaign's",
        &scenarios,
        &outcomes,
        &campaign,
    );
    (scenarios.len() * config.strategies.len() * child.count) as u64
}

/// `fig3-warm`, traced: the per-layer metrics, per pass over the
/// scenarios. Returns the cells served and the cells not found.
pub fn warm_traced(
    fig: &Fig3,
    child: &Child,
    work: &Path,
    layers: &mut Layers,
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> (u64, u64) {
    let grid = &fig.timed;
    let dir = work.join("cells");
    let config = grid.config(1, Some(dir.clone()));
    let scenarios = traced_setup(tracer, grid, &config, layers);
    let order = fig.order(scenarios.len());
    let cache = tracer.span("runtime.cache.open", 0, || {
        CellCache::open(&dir, true).expect("cache directory opens")
    });
    layers.set(
        "runtime.cache.open_ms",
        tracer.total("runtime.cache.open").0,
    );
    let bytes: u64 = std::fs::read_dir(&dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0);
    layers.set("runtime.cache.bytes", bytes as f64);

    let spec = config.source.spec();
    let pipeline_key = config.base.pipeline_cache_key();
    let (hits0, misses0) = (counter("cache.hit").get(), counter("cache.miss").get());
    let mut outcomes = vec![Vec::new(); scenarios.len()];
    let mut not_found = 0;
    let (mut clock, mut scales) = (RefClock::new(), Vec::new());
    for _ in 0..child.count {
        for &i in &order {
            let gs = &scenarios[i];
            let id = i as u64;
            scales.push(clock.scale());
            let outer = tracer.begin("exp.scenario", id);
            let keys: Vec<_> = tracer.span("exp.digest", id, || {
                let shared = scenario_digest(&spec, &pipeline_key, &gs.scenario);
                config
                    .strategies
                    .iter()
                    .map(|p| shared.clone().str(&p.cache_key()).finish())
                    .collect()
            });
            let found: Vec<_> = tracer.span("runtime.cache.lookup", id, || {
                keys.iter().map(|k| cache.lookup(*k)).collect()
            });
            let per_policy = config
                .strategies
                .iter()
                .zip(found)
                .map(|(p, m)| match m {
                    Some(m) => ScenarioOutcome {
                        strategy: p.name(),
                        unfairness: m.unfairness,
                        makespan: m.makespan,
                        average_slowdown: m.average_slowdown,
                    },
                    None => {
                        not_found += 1;
                        ScenarioOutcome::skipped(p.name())
                    }
                })
                .collect();
            outcomes[i] = per_policy;
            tracer.end(outer);
        }
    }
    let hits = counter("cache.hit").get() - hits0;
    let misses = counter("cache.miss").get() - misses0;
    let (cells, _) = cells_of(&scenarios, &config);
    let served = cells * child.count as u64;
    checks.check(
        "cache.hit delta equals the cells served and cache.miss is 0",
        hits == served && misses == 0,
        format!("{hits} hits, {misses} misses over {served} cells"),
    );
    let digest = digest_f64s("covered", outcome_bits(&outcomes));
    checks.check(
        "traced outcomes equal untraced outcomes bit for bit",
        digest == child.digest,
        format!("traced {digest}, untraced {}", child.digest),
    );
    let passes = child.count as f64;
    set_span_totals(tracer, layers, "exp.digest", "exp.digest_ms", None, passes);
    set_span_totals(
        tracer,
        layers,
        "runtime.cache.lookup",
        "runtime.cache.lookup_ms",
        None,
        passes,
    );
    layers.set("runtime.cache.hits", hits as f64 / passes);
    layers.set("runtime.cache.misses", misses as f64 / passes);
    layers.set(
        "runtime.cache.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    traced_finish(
        tracer, &scenarios, &outcomes, &scales, child, layers, checks,
    );
    (served, not_found)
}

/// Fills the warm workload's cache for a traced run (before the untraced
/// child reads it).
pub fn prepare_warm(fig: &Fig3, work: &Path) {
    fill_cache(fig, &work.join("cells"));
}
