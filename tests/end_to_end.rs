//! End-to-end integration tests across all workspace crates: platform model,
//! PTG generators, constrained allocation, concurrent mapping, simulated
//! execution and fairness metrics — plus golden-figure snapshots pinning the
//! byte-identical-output guarantee of the experiment harness.

use mcsched::exp::{run_campaign, run_mu_sweep, CampaignConfig, MuSweepConfig};
use mcsched::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn sample_apps(class: PtgClass, n: usize, seed: u64) -> Vec<Ptg> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..n)
        .map(|i| class.sample(&mut rng, format!("{}-{i}", class.label())))
        .collect()
}

#[test]
fn every_strategy_schedules_every_class_on_every_site() {
    for platform in grid5000::all_sites() {
        for class in [PtgClass::Random, PtgClass::Fft, PtgClass::Strassen] {
            let apps = sample_apps(class, 3, 0xC0FFEE);
            for strategy in ConstraintStrategy::paper_set() {
                let run = ConcurrentScheduler::with_strategy(strategy)
                    .schedule(&platform, &apps)
                    .unwrap_or_else(|e| {
                        panic!(
                            "{} on {} ({}) failed: {e}",
                            strategy.name(),
                            platform.name(),
                            class.label()
                        )
                    });
                assert_eq!(run.apps.len(), 3);
                assert!(run.global_makespan > 0.0);
                for app in &run.apps {
                    assert!(app.makespan > 0.0);
                    assert!(app.makespan <= run.global_makespan + 1e-6);
                    assert!(app.beta > 0.0 && app.beta <= 1.0);
                }
            }
        }
    }
}

#[test]
fn simulated_trace_never_oversubscribes_processors() {
    let platform = grid5000::lille();
    let apps = sample_apps(PtgClass::Random, 4, 7);
    let run = ConcurrentScheduler::with_strategy(ConstraintStrategy::EqualShare)
        .schedule(&platform, &apps)
        .unwrap();
    let records: Vec<_> = run.trace.jobs.iter().flatten().collect();
    for (i, a) in records.iter().enumerate() {
        for b in records.iter().skip(i + 1) {
            if a.procs.intersects(&b.procs) {
                let overlap = a.start < b.finish - 1e-9 && b.start < a.finish - 1e-9;
                assert!(
                    !overlap,
                    "jobs {} and {} share processors and overlap in time",
                    a.job, b.job
                );
            }
        }
    }
}

#[test]
fn simulated_trace_respects_all_precedences() {
    let platform = grid5000::nancy();
    let apps = sample_apps(PtgClass::Fft, 3, 21);
    let run = ConcurrentScheduler::with_strategy(ConstraintStrategy::EqualShare)
        .schedule(&platform, &apps)
        .unwrap();
    for (app, ptg) in apps.iter().enumerate() {
        for e in ptg.edges() {
            let src_job = run.schedule.placements[app][e.src].job;
            let dst_job = run.schedule.placements[app][e.dst].job;
            let src = run.trace.job(src_job).expect("source job ran");
            let dst = run.trace.job(dst_job).expect("destination job ran");
            assert!(
                src.finish <= dst.start + 1e-9,
                "edge {}->{} of app {app} violated: {} > {}",
                e.src,
                e.dst,
                src.finish,
                dst.start
            );
        }
    }
}

#[test]
fn scrap_max_allocations_respect_their_betas() {
    let platform = grid5000::rennes();
    let reference = ReferencePlatform::new(&platform);
    let apps = sample_apps(PtgClass::Random, 5, 99);
    for strategy in [
        ConstraintStrategy::EqualShare,
        ConstraintStrategy::Weighted(Characteristic::Width, 0.5),
        ConstraintStrategy::Proportional(Characteristic::Work),
    ] {
        let betas = strategy.betas(&apps, &reference);
        let scheduler = ConcurrentScheduler::with_strategy(strategy);
        let allocations = scheduler.allocate(&platform, &apps);
        for ((app, alloc), beta) in apps.iter().zip(&allocations).zip(&betas) {
            // Per-level usage must stay within beta * reference processors
            // (with a one-processor-per-task floor: a level with many tasks
            // cannot go below one processor each).
            let structure = mcsched::ptg::analysis::structure(app);
            let budget = beta * reference.procs() as f64;
            for level_tasks in &structure.tasks_by_level {
                let usage: usize = level_tasks.iter().map(|&t| alloc.procs_of(t)).sum();
                let floor = level_tasks.len() as f64;
                assert!(
                    usage as f64 <= budget.max(floor) + 1e-9,
                    "{}: level usage {usage} exceeds budget {budget:.2}",
                    strategy.name()
                );
            }
        }
    }
}

#[test]
fn dedicated_runs_bound_concurrent_slowdowns() {
    let platform = grid5000::sophia();
    let apps = sample_apps(PtgClass::Random, 4, 3);
    let evaluation = ConcurrentScheduler::with_strategy(ConstraintStrategy::EqualShare)
        .evaluate(&platform, &apps)
        .unwrap();
    for s in &evaluation.fairness.slowdowns {
        assert!(*s > 0.0);
        assert!(
            *s <= 1.1,
            "slowdown {s} should not exceed 1 (plus tolerance)"
        );
    }
    assert!(evaluation.fairness.unfairness < 4.0);
}

#[test]
fn selfish_strategy_matches_dedicated_when_alone() {
    // With a single application, every strategy gives beta = 1 and the
    // concurrent makespan equals the dedicated makespan.
    let platform = grid5000::lille();
    let apps = sample_apps(PtgClass::Strassen, 1, 11);
    for strategy in ConstraintStrategy::paper_set() {
        let scheduler = ConcurrentScheduler::with_strategy(strategy);
        let run = scheduler.schedule(&platform, &apps).unwrap();
        let own = scheduler.dedicated_makespan(&platform, &apps[0]).unwrap();
        assert!(
            (run.apps[0].makespan - own).abs() < 1e-6,
            "{}: single application should behave as dedicated",
            strategy.name()
        );
    }
}

/// Compares `actual` against the committed reference under `tests/golden/`.
/// Regenerate deliberately with `MCSCHED_UPDATE_GOLDEN=1 cargo test --test
/// end_to_end golden` after an *intentional* output change.
fn golden_check(name: &str, actual: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var("MCSCHED_UPDATE_GOLDEN").is_ok_and(|v| v == "1") {
        std::fs::write(&path, actual).unwrap();
        eprintln!("golden file {} regenerated", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); regenerate with MCSCHED_UPDATE_GOLDEN=1",
            path.display()
        )
    });
    assert!(
        actual == expected,
        "{name} drifted from the committed reference — the figures are no longer \
         byte-identical. If the change is intentional, regenerate with \
         MCSCHED_UPDATE_GOLDEN=1.\n--- expected ---\n{expected}\n--- actual ---\n{actual}"
    );
}

#[test]
fn golden_fig2_mu_sweep_quick_table_is_byte_stable() {
    // The exact table a default `fig2_mu_sweep` run prints (quick config,
    // default seed): the PR 2/PR 3 "figures byte-identical" guarantee,
    // enforced mechanically.
    let points = run_mu_sweep(&MuSweepConfig::quick()).unwrap();
    golden_check(
        "fig2_mu_sweep_quick.txt",
        &mcsched::exp::table_mu_sweep(&points),
    );
}

#[test]
fn golden_fig3_random_quick_table_is_byte_stable() {
    // The exact table a default `fig3_random` run prints.
    let result = run_campaign(&CampaignConfig::quick(PtgClass::Random)).unwrap();
    golden_check(
        "fig3_random_quick.txt",
        &mcsched::exp::table_campaign(&result),
    );
}

#[test]
fn golden_fig4_fft_quick_table_is_byte_stable() {
    // The exact table a default `fig4_fft` run prints.
    let result = run_campaign(&CampaignConfig::quick(PtgClass::Fft)).unwrap();
    golden_check("fig4_fft_quick.txt", &mcsched::exp::table_campaign(&result));
}

#[test]
fn golden_fig5_strassen_quick_table_is_byte_stable() {
    // The exact table a default `fig5_strassen` run prints.
    let result = run_campaign(&CampaignConfig::quick(PtgClass::Strassen)).unwrap();
    golden_check(
        "fig5_strassen_quick.txt",
        &mcsched::exp::table_campaign(&result),
    );
}

#[test]
fn strassen_width_strategies_degenerate_to_equal_share() {
    // All Strassen PTGs have the same maximal width, so PS-width and
    // WPS-width produce exactly the ES betas (the reason Figure 5 omits them).
    let platform = grid5000::nancy();
    let reference = ReferencePlatform::new(&platform);
    let apps = sample_apps(PtgClass::Strassen, 4, 17);
    let es = ConstraintStrategy::EqualShare.betas(&apps, &reference);
    let ps_width = ConstraintStrategy::Proportional(Characteristic::Width).betas(&apps, &reference);
    let wps_width =
        ConstraintStrategy::Weighted(Characteristic::Width, 0.5).betas(&apps, &reference);
    for i in 0..apps.len() {
        assert!((es[i] - ps_width[i]).abs() < 1e-12);
        assert!((es[i] - wps_width[i]).abs() < 1e-12);
    }
}

#[test]
fn engine_matches_reference_on_a_real_fig3_concurrent_schedule() {
    // The concurrent schedule of one real Figure 3 cell: the first 0x5EED
    // draw of 10 random PTGs on Lille under Selfish, built the way the
    // campaign builds it. Many flows share the site's links here, which the
    // synthetic differential families do not exercise at this scale.
    let scenario = mcsched::exp::scenario::generate_scenarios(PtgClass::Random, 10, 1, 0x5EED)
        .into_iter()
        .find(|s| s.platform.name() == grid5000::lille().name())
        .expect("every Grid'5000 site has a scenario");
    let workload = scenario.workload();
    let ctx =
        ScheduleContext::for_workload(&scenario.platform, &workload, SchedulerConfig::default());
    let allocations = ctx.allocations_for(
        ConstraintStrategy::Selfish.to_policy().as_ref(),
        ctx.base_allocation().as_ref(),
    );
    let sim = ctx
        .map_with(
            ctx.base_mapping().as_ref(),
            &allocations,
            ctx.release_times(),
        )
        .workload;

    let fast = Engine::new(&scenario.platform).execute(&sim).unwrap();
    let reference = mcsched::simx::reference_execute(&scenario.platform, &sim).unwrap();
    assert_eq!(
        fast.makespan.to_bits(),
        reference.makespan.to_bits(),
        "makespan differs: {} vs {}",
        fast.makespan,
        reference.makespan
    );
    assert_eq!(fast.trace.jobs.len(), reference.trace.jobs.len());
    for (j, (a, b)) in fast
        .trace
        .jobs
        .iter()
        .zip(&reference.trace.jobs)
        .enumerate()
    {
        let (a, b) = (a.as_ref().expect("job ran"), b.as_ref().expect("job ran"));
        assert_eq!(a.start.to_bits(), b.start.to_bits(), "job {j} start");
        assert_eq!(a.finish.to_bits(), b.finish.to_bits(), "job {j} finish");
        assert_eq!(a.procs, b.procs, "job {j} procs");
    }
    assert_eq!(fast.trace.transfers.len(), reference.trace.transfers.len());
    assert!(
        !fast.trace.transfers.is_empty(),
        "the schedule redistributes data"
    );
    for (t, (a, b)) in fast
        .trace
        .transfers
        .iter()
        .zip(&reference.trace.transfers)
        .enumerate()
    {
        let (a, b) = (
            a.as_ref().expect("transfer delivered"),
            b.as_ref().expect("transfer delivered"),
        );
        assert_eq!(a.start.to_bits(), b.start.to_bits(), "transfer {t} start");
        assert_eq!(
            a.finish.to_bits(),
            b.finish.to_bits(),
            "transfer {t} finish"
        );
        assert_eq!(a.bytes.to_bits(), b.bytes.to_bits(), "transfer {t} bytes");
    }
}
