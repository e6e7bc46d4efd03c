//! # mcsched-exp
//!
//! Experiment harness reproducing the evaluation of the paper (Section 7).
//!
//! The evaluation methodology is:
//!
//! * three application classes — random workflow-like PTGs, FFT PTGs and
//!   Strassen PTGs;
//! * for every number of concurrent PTGs in {2, 4, 6, 8, 10}, 25 random
//!   combinations of applications are drawn and scheduled on each of the four
//!   Grid'5000 subsets of Table 1, i.e. **100 runs per data point**;
//! * for every run and every strategy the harness records the *unfairness*
//!   (from the per-application slowdowns) and the *global makespan*; the
//!   makespan of each strategy is normalised by the best makespan achieved on
//!   the same run (average **relative** makespan);
//! * dedicated-platform makespans (`M_own`) are computed once per run and
//!   shared by all strategies.
//!
//! The [`campaign`] module runs such sweeps, [`mu_sweep`] reproduces the
//! µ-calibration of Figure 2, and [`report`] renders the aggregated numbers
//! as aligned text tables and CSV suitable for regenerating every figure of
//! the paper.
//!
//! Workload production is delegated to the `mcsched-workload` subsystem:
//! campaigns and sweeps consume any `WorkloadSource` (legacy class
//! generators, DAGGEN configurations, timed arrivals, replayed traces), and
//! the binaries expose it through `--workload <spec>`, `--trace <file>` and
//! `--export-trace <file>`.
//!
//! Both harnesses run on the persistent work-stealing pool of
//! `mcsched-runtime` (honouring the configs' `threads` fields): data points
//! fan out at the outer level, their scenarios nest within them, and every
//! strategy of a scenario is evaluated through one shared
//! [`mcsched_core::ScheduleContext`], so each dedicated baseline is
//! simulated exactly once per scenario. With `cache_dir` set (CLI
//! `--cache-dir`), every (scenario, policy) cell is stored in — and served
//! from — the content-addressed cell cache of `mcsched-runtime` (see
//! [`cells`]): re-runs skip finished work byte-identically, interrupted
//! runs resume from completed shards (`--no-resume` starts cold), and
//! `--progress` narrates data points on stderr.
//!
//! Point estimates at 100 runs per cell are too noisy to assert the paper's
//! strict orderings on, so both harnesses run **paired replications**: all
//! strategies see byte-identical workload draws per replication (common
//! random numbers, the `ScheduleContext::evaluate_policies` path), every
//! cell retains its per-run samples, and `mcsched-stats` turns aligned
//! sample vectors into bootstrap confidence intervals and sign-test ordering
//! verdicts. The binaries expose this through `--replications`/`--ci` and
//! print `mean ±ci` tables when intervals are requested; at one replication
//! the output stays byte-identical to the pre-statistics harness.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod campaign;
pub mod cells;
pub mod cli;
pub mod mu_sweep;
pub mod report;
pub mod scenario;

pub use campaign::{run_campaign, CampaignConfig, CampaignResult, CellSamples, StrategyPoint};
pub use cells::{cell_digest, evaluate_policies_cached, evaluate_policies_sharded};
pub use cli::CliOptions;
pub use mu_sweep::{paired_mu_unfairness, run_mu_sweep, MuSamples, MuSweepConfig, MuSweepPoint};
pub use report::{
    csv_campaign, csv_campaign_ci, csv_mu_sweep, csv_mu_sweep_ci, table_campaign,
    table_campaign_ci, table_mu_sweep, table_mu_sweep_ci,
};
pub use scenario::{
    combo_requests, generate_scenarios, generate_scenarios_with, replication_seed, Scenario,
    ScenarioOutcome,
};
