//! Self-test of the benchmark on a tiny grid (2 PTGs, 1 combination, 4
//! sites) and a short online stream: every check runs and passes on the
//! real program, and the checks that guard against silent corruption —
//! a wrong committed digest, a forced utilisation violation, a traced run
//! that disagrees with its untraced twin — are reported as failures.

use super::*;
use crate::checks::{Checks, DEFAULT_SEED};
use crate::fig3::{Fig3, Grid};
use crate::layers::Layers;
use crate::online::Stream;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};

/// The checks read process-global counters and the phase registry as
/// deltas around their own work, so tests that run the program take turns.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// 2 PTGs × 1 combination × 4 sites, timed and side grid alike.
fn tiny_grid() -> Fig3 {
    let grid = |seed| Grid {
        ptg_counts: vec![2],
        combinations: 1,
        seed,
    };
    Fig3 {
        timed: grid(fig3::REFERENCE_SEED),
        side: grid(7),
        order_seed: 7,
    }
}

fn short_stream() -> Stream {
    Stream { seed: 3, jobs: 30 }
}

/// A scratch directory inside the checkout, removed by the caller.
fn work_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join(".perfbench_work")
        .join(format!("test-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn assert_all_pass(checks: &Checks) {
    for c in checks.all() {
        assert!(
            c.passed || c.known_defect.is_some(),
            "check failed: {} ({})",
            c.name,
            c.detail
        );
    }
    assert!(checks.correct());
}

fn assert_metrics(result: &RunResult) {
    let names: Vec<&str> = result.metrics.iter().map(|m| m.name).collect();
    assert_eq!(
        names,
        [
            "setup_s",
            "cells_per_s",
            "cells_per_s_mt",
            "jobs_per_s",
            "scenario_ms_p50",
            "scenario_ms_tail",
            "unfairness",
            "rel_makespan",
            "stretch_mean",
            "peak_rss_mb"
        ]
    );
    for m in &result.metrics {
        assert!(
            m.value.is_finite() && m.value > 0.0,
            "{} = {}",
            m.name,
            m.value
        );
    }
    assert!(result.attempted > 0);
    assert_eq!(result.failed, 0);
}

#[test]
fn tiny_fig3_cold_passes_every_check() {
    let _serial = serial();
    let mut checks = Checks::new();
    let result = fig3::cold(&tiny_grid(), 0.0, &mut checks);
    assert_all_pass(&checks);
    assert!(checks.all().len() >= 4);
    assert_metrics(&result);
}

#[test]
fn tiny_fig3_warm_passes_every_check() {
    let _serial = serial();
    let work = work_dir("warm");
    let mut checks = Checks::new();
    let result = fig3::warm(&tiny_grid(), 0.0, &work, &mut checks);
    std::fs::remove_dir_all(&work).unwrap();
    assert_all_pass(&checks);
    assert_metrics(&result);
}

#[test]
fn short_online_stream_passes_every_check() {
    let _serial = serial();
    let mut checks = Checks::new();
    let result = online::knee(&short_stream(), 0.0, &mut checks);
    assert_all_pass(&checks);
    assert_metrics(&result);
}

#[test]
fn traced_fig3_cold_agrees_with_untraced_and_accounts_for_its_spans() {
    let _serial = serial();
    let grid = tiny_grid();
    let work = work_dir("cold-traced");
    let child = fig3::child("fig3-cold", &grid, 0.0, &work);
    let (mut layers, mut tracer, mut checks) =
        (Layers::default(), trace::Tracer::new(), Checks::new());
    fig3::cold_traced(&grid, &child, &mut layers, &mut tracer, &mut checks);
    std::fs::remove_dir_all(&work).unwrap();
    assert_all_pass(&checks);
    let value = |name: &str| {
        layers
            .all()
            .into_iter()
            .find(|(n, _, _)| *n == name)
            .unwrap()
            .1
    };
    // 4 scenarios × 8 policies concurrent runs; 2 PTGs × 4 scenarios
    // dedicated runs.
    assert_eq!(value("simx.concurrent_runs"), 32.0);
    assert_eq!(value("core.dedicated.runs"), 8.0);
    assert_eq!(value("core.dedicated.requests"), 64.0);
    assert!(value("exp.self_ms") >= 0.0);

    // A traced run that disagrees with its untraced twin is a failure.
    let wrong = Child {
        digest: "0".repeat(32),
        ..child
    };
    let mut checks = Checks::new();
    fig3::cold_traced(
        &grid,
        &wrong,
        &mut Layers::default(),
        &mut trace::Tracer::new(),
        &mut checks,
    );
    assert!(!checks.correct());
    assert_eq!(checks.failed(), 1);
}

#[test]
fn traced_fig3_warm_serves_every_cell_from_the_cache() {
    let _serial = serial();
    let grid = tiny_grid();
    let work = work_dir("warm-traced");
    fig3::prepare_warm(&grid, &work);
    let child = fig3::child("fig3-warm", &grid, 0.0, &work);
    let (mut layers, mut tracer, mut checks) =
        (Layers::default(), trace::Tracer::new(), Checks::new());
    fig3::warm_traced(&grid, &child, &work, &mut layers, &mut tracer, &mut checks);
    std::fs::remove_dir_all(&work).unwrap();
    assert_all_pass(&checks);
    let hits = layers
        .all()
        .into_iter()
        .find(|(n, _, _)| *n == "runtime.cache.hits")
        .unwrap()
        .1;
    // Per pass: 4 scenarios × 8 policies.
    assert_eq!(hits, 32.0);
}

#[test]
fn traced_online_run_agrees_with_untraced() {
    let _serial = serial();
    let stream = short_stream();
    let child = online::child(&stream, 0.0);
    let (mut layers, mut tracer, mut checks) =
        (Layers::default(), trace::Tracer::new(), Checks::new());
    let (arrivals, shed) =
        online::knee_traced(&stream, &child, &mut layers, &mut tracer, &mut checks);
    assert_all_pass(&checks);
    assert_eq!(arrivals, 30 * child.count as u64);
    assert_eq!(shed, 0);
}

#[test]
fn wrong_committed_digest_is_a_failure() {
    let table = format!("fig3-cold {DEFAULT_SEED} 00112233\n");
    let mut checks = Checks::new();
    checks.digest_against(&table, "fig3-cold", DEFAULT_SEED, "00112233");
    assert!(checks.correct() && checks.failed() == 0);
    checks.digest_against(&table, "fig3-cold", DEFAULT_SEED, "ffffffff");
    assert!(!checks.correct());
    assert_eq!(checks.failed(), 1);
    // A workload without a committed digest fails too.
    let mut checks = Checks::new();
    checks.digest_against(&table, "fig3-warm", DEFAULT_SEED, "00112233");
    assert_eq!(checks.failed(), 1);
    // Other seeds have nothing to compare against and are skipped.
    let mut checks = Checks::new();
    checks.digest_against(&table, "fig3-cold", DEFAULT_SEED + 1, "ffffffff");
    assert_eq!(checks.failed(), 0);
}

#[test]
fn committed_digests_cover_every_workload() {
    let mut checks = Checks::new();
    for w in WORKLOADS {
        checks.digest(w, DEFAULT_SEED, "not-a-digest");
    }
    // Each lookup found a committed value (and it differs from the probe).
    assert!(checks
        .all()
        .iter()
        .all(|c| c.detail.starts_with("expected ")));
}

#[test]
fn forced_utilization_violation_is_reported() {
    let _serial = serial();
    let stream = short_stream();
    let platform = mcsched_platform::grid5000::lille();
    let source = mcsched_workload::WorkloadCatalog::builtin()
        .resolve(online::SPEC)
        .unwrap();
    let mut report = mcsched_online::OnlineScheduler::new(&platform, stream.config())
        .unwrap()
        .run(source.as_ref())
        .unwrap();
    for (utilization, fails) in [(0.5, 0), (1.5, 1)] {
        report.utilization = utilization;
        let mut checks = Checks::new();
        online::check_report(&report, &mut checks);
        assert_eq!(checks.failed(), fails, "utilization {utilization}");
        let failed = checks.all().iter().find(|c| !c.passed);
        assert_eq!(failed.is_some(), fails == 1);
        if let Some(c) = failed {
            assert_eq!(c.name, "online utilization <= 1");
            assert!(c.known_defect.is_some());
        }
    }
}

#[test]
fn child_protocol_round_trips() {
    let child = Child {
        count: 3,
        wall_s: 1.25,
        digest: "abc".into(),
    };
    assert_eq!(Child::parse(&child.render()), Some(child));
}

#[test]
fn result_line_has_exactly_the_contract_keys() {
    let result = RunResult {
        metrics: vec![Metric::new("setup_s", 0.25, "s")],
        attempted: 4,
        failed: 0,
    };
    let line = result_json(true, &result);
    assert_eq!(
        line,
        "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \
         \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
    );
}
