//! Times the flat-arena simx kernel (`mcsched_simx::Engine`) against the
//! frozen pre-refactor reference (`mcsched_simx::reference_execute`) and
//! writes the measurements as machine-readable JSON — the simulation-kernel
//! companion of `BENCH_runtime.json`.
//!
//! Four workload families run on a real Grid'5000 site (Lille). Three are
//! synthetic and stress the three structures the kernel refactor rebuilt:
//!
//! * `wide-ready` — hundreds of independent jobs, no transfers: the
//!   incremental ready set and the priority dispatch order dominate;
//! * `layered-dag` — a layered DAG with mixed local / zero-byte / remote
//!   transfers: event-queue traffic plus route resolution dominate;
//! * `contended-links` — few jobs, many large cross-cluster transfers: the
//!   max-min fair flow network and its cached completion horizon dominate.
//!
//! The fourth, `fig3-concurrent`, is the concurrent schedule of one real
//! Figure 3 scenario: the campaign's first draw (seed `0x5EED`) of 10 random
//! PTGs on Lille under the Selfish strategy, allocated and mapped through
//! the `ScheduleContext` exactly as a campaign cell is. It keeps hundreds of
//! flows in flight on a handful of routes, the regime the figure campaigns
//! spend their simulation time in.
//!
//! Both implementations run the *same* workloads; before any timing each
//! family is checked bit-for-bit (makespans) so the speedup column never
//! compares diverging simulations. An "event" is one job start, job
//! completion, transfer start or transfer delivery — `events_per_sec` is
//! the kernel's sustained throughput over those.
//!
//! ```sh
//! cargo run --release -p mcsched-bench --bin bench_simx -- --out BENCH_simx.json
//! cargo run --release -p mcsched-bench --bin bench_simx -- --smoke
//! ```

use mcsched_core::{ConstraintStrategy, ScheduleContext, SchedulerConfig};
use mcsched_exp::scenario::generate_scenarios;
use mcsched_platform::{grid5000, Platform, ProcSet};
use mcsched_ptg::gen::PtgClass;
use mcsched_simx::{reference_execute, Engine, SimJob, SimWorkload};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::time::Instant;

struct Options {
    iterations: usize,
    batch: usize,
    smoke: bool,
    out: String,
}

fn bad(flag: &str, raw: &str) -> ! {
    eprintln!("error: flag `{flag}` got malformed value `{raw}`");
    std::process::exit(2);
}

impl Options {
    fn from_env() -> Self {
        let mut opts = Options {
            iterations: 5,
            batch: 32,
            smoke: false,
            out: "BENCH_simx.json".to_string(),
        };
        let mut it = std::env::args().skip(1);
        while let Some(arg) = it.next() {
            let mut value = |flag: &str| {
                it.next().unwrap_or_else(|| {
                    eprintln!("error: flag `{flag}` expects a value");
                    std::process::exit(2);
                })
            };
            match arg.as_str() {
                "--iterations" => {
                    let raw = value(&arg);
                    opts.iterations = raw.parse().unwrap_or_else(|_| bad(&arg, &raw));
                }
                "--batch" => {
                    let raw = value(&arg);
                    opts.batch = raw.parse().unwrap_or_else(|_| bad(&arg, &raw));
                }
                "--smoke" => opts.smoke = true,
                "--out" => opts.out = value(&arg),
                other => eprintln!("warning: ignoring unknown argument `{other}`"),
            }
        }
        opts.iterations = opts.iterations.max(1);
        opts.batch = opts.batch.max(1);
        if opts.smoke {
            // CI smoke: tiny batches, but still timing + bit-identity.
            opts.iterations = opts.iterations.min(2);
            opts.batch = opts.batch.min(4);
        }
        opts
    }
}

/// A deterministic pseudo-random job: a contiguous processor set on a random
/// cluster, a duration in [0.1, 10), a shared-priority band and a release
/// time drawn from a small discrete set (forcing simultaneity windows).
fn push_job(w: &mut SimWorkload, rng: &mut ChaCha8Rng, platform: &Platform, max_procs: usize) {
    let cluster = rng.gen_range(0..platform.num_clusters());
    let nprocs = platform.clusters()[cluster].num_procs().min(max_procs);
    let first = rng.gen_range(0..platform.clusters()[cluster].num_procs() - nprocs + 1);
    let count = rng.gen_range(1..=nprocs);
    let mut job = SimJob::new(
        format!("j{}", w.num_jobs()),
        ProcSet::contiguous(cluster, first, count),
        rng.gen_range(0.1..10.0),
        rng.gen_range(0..8),
    );
    job.release_time = [0.0, 0.0, 0.5, 1.0, 2.5][rng.gen_range(0..5)];
    w.add_job(job);
}

/// Builds one workload of the named family at roughly `n` jobs (`n` PTGs
/// for `fig3-concurrent`).
fn build_family(family: &str, n: usize, platform: &Platform, seed: u64) -> SimWorkload {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut w = SimWorkload::new();
    match family {
        "wide-ready" => {
            for _ in 0..n {
                push_job(&mut w, &mut rng, platform, 4);
            }
        }
        "layered-dag" => {
            for _ in 0..n {
                push_job(&mut w, &mut rng, platform, 8);
            }
            for j in 1..n {
                for _ in 0..rng.gen_range(0..=2.min(j)) {
                    let i = rng.gen_range(0..j);
                    let bytes = match rng.gen_range(0..4) {
                        0 => 0.0,
                        1 => 1.0e3,
                        2 => 1.0e7,
                        _ => rng.gen_range(1.0e6..2.0e8),
                    };
                    w.add_transfer(i, j, bytes);
                }
            }
        }
        "contended-links" => {
            for _ in 0..n {
                push_job(&mut w, &mut rng, platform, 16);
            }
            // Dense forward edges with large volumes: many concurrent flows
            // share the same backbone links.
            for j in 1..n {
                for _ in 0..rng.gen_range(1..=3.min(j)) {
                    let i = rng.gen_range(0..j);
                    w.add_transfer(i, j, rng.gen_range(1.0e8..8.0e8));
                }
            }
        }
        "fig3-concurrent" => return fig3_concurrent(n, platform),
        other => unreachable!("unknown family {other}"),
    }
    w
}

/// The concurrent workload of the first Figure 3 draw of `num_ptgs` random
/// PTGs on `platform`, scheduled under the Selfish strategy with the base
/// allocation and mapping policies.
fn fig3_concurrent(num_ptgs: usize, platform: &Platform) -> SimWorkload {
    let scenario = generate_scenarios(PtgClass::Random, num_ptgs, 1, 0x5EED)
        .into_iter()
        .find(|s| s.platform.name() == platform.name())
        .expect("every Grid'5000 site has a scenario");
    let workload = scenario.workload();
    let ctx =
        ScheduleContext::for_workload(&scenario.platform, &workload, SchedulerConfig::default());
    let allocations = ctx.allocations_for(
        ConstraintStrategy::Selfish.to_policy().as_ref(),
        ctx.base_allocation().as_ref(),
    );
    ctx.map_with(
        ctx.base_mapping().as_ref(),
        &allocations,
        ctx.release_times(),
    )
    .workload
}

struct Measurement {
    family: &'static str,
    implementation: &'static str,
    jobs: usize,
    transfers: usize,
    events: usize,
    mean_us: f64,
    min_us: f64,
    max_us: f64,
}

fn main() {
    let opts = Options::from_env();
    let mut sites = grid5000::all_sites();
    let platform = sites.swap_remove(0);
    let families: &[(&str, usize)] = if opts.smoke {
        &[
            ("wide-ready", 24),
            ("layered-dag", 24),
            ("contended-links", 16),
            ("fig3-concurrent", 4),
        ]
    } else {
        &[
            ("wide-ready", 256),
            ("layered-dag", 256),
            ("contended-links", 128),
            ("fig3-concurrent", 10),
        ]
    };
    eprintln!(
        "bench_simx: platform={}, families {:?}, {} iterations x batch {}{}",
        platform.name(),
        families.iter().map(|&(f, _)| f).collect::<Vec<_>>(),
        opts.iterations,
        opts.batch,
        if opts.smoke { " (smoke)" } else { "" }
    );

    let mut measurements: Vec<Measurement> = Vec::new();
    for &(family, n) in families {
        let workload = build_family(family, n, &platform, 0x51AF_0000 ^ n as u64);
        let engine = Engine::new(&platform);

        // Bit-identity gate: a speedup over a diverging simulation would be
        // meaningless, so check before timing.
        let fast = engine.execute(&workload).expect("engine runs");
        let reference = reference_execute(&platform, &workload).expect("reference runs");
        assert_eq!(
            fast.makespan.to_bits(),
            reference.makespan.to_bits(),
            "{family}: engine and reference makespans diverge"
        );

        let jobs = fast.trace.jobs.iter().flatten().count();
        let transfers = fast.trace.transfers.iter().flatten().count();
        // One start and one completion event per job and per transfer.
        let events = 2 * (jobs + transfers);

        for (implementation, run) in [
            (
                "engine",
                Box::new(|| {
                    std::hint::black_box(engine.execute(&workload).expect("engine runs"));
                }) as Box<dyn Fn()>,
            ),
            (
                "reference",
                Box::new(|| {
                    std::hint::black_box(
                        reference_execute(&platform, &workload).expect("reference runs"),
                    );
                }),
            ),
        ] {
            run(); // warm-up (fills the engine's scratch pool)
            let mut total = 0.0f64;
            let mut min = f64::INFINITY;
            let mut max = 0.0f64;
            for _ in 0..opts.iterations {
                let start = Instant::now();
                for _ in 0..opts.batch {
                    run();
                }
                let us = start.elapsed().as_secs_f64() * 1e6 / opts.batch as f64;
                total += us;
                min = min.min(us);
                max = max.max(us);
            }
            let mean_us = total / opts.iterations as f64;
            eprintln!(
                "{family:>16} {implementation:>9}  {mean_us:9.1} us/execute  {:>12.0} events/s",
                events as f64 / (mean_us * 1e-6)
            );
            measurements.push(Measurement {
                family,
                implementation,
                jobs,
                transfers,
                events,
                mean_us,
                min_us: min,
                max_us: max,
            });
        }
    }

    let mean_of = |family: &str, implementation: &str| -> f64 {
        measurements
            .iter()
            .find(|m| m.family == family && m.implementation == implementation)
            .map(|m| m.mean_us)
            .unwrap_or(f64::NAN)
    };

    // Machine-readable output, hand-rolled like the other bench snapshots
    // (the offline workspace has no serde_json).
    let mut json = String::from("{\n");
    json.push_str(&format!("  \"smoke\": {},\n", opts.smoke));
    json.push_str(&format!("  \"iterations\": {},\n", opts.iterations));
    json.push_str(&format!("  \"batch\": {},\n", opts.batch));
    json.push_str(&format!("  \"platform\": \"{}\",\n", platform.name()));
    json.push_str(&format!(
        "  \"host\": {},\n",
        mcsched_bench::host::host_json_string()
    ));
    json.push_str("  \"results\": [\n");
    for (i, m) in measurements.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"family\": \"{}\", \"impl\": \"{}\", \"jobs\": {}, \"transfers\": {}, \
             \"events_per_execute\": {}, \"per_execute_us\": {{\"mean\": {:.3}, \"min\": {:.3}, \
             \"max\": {:.3}}}, \"events_per_sec\": {:.0}}}{}\n",
            m.family,
            m.implementation,
            m.jobs,
            m.transfers,
            m.events,
            m.mean_us,
            m.min_us,
            m.max_us,
            m.events as f64 / (m.mean_us * 1e-6),
            if i + 1 == measurements.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"speedup_vs_reference\": [\n");
    for (i, &(family, _)) in families.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"family\": \"{}\", \"speedup\": {:.4}}}{}\n",
            family,
            mean_of(family, "reference") / mean_of(family, "engine"),
            if i + 1 == families.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");

    match std::fs::write(&opts.out, &json) {
        Ok(()) => println!("wrote {} measurements to {}", measurements.len(), opts.out),
        Err(e) => {
            eprintln!("error: could not write {}: {e}", opts.out);
            std::process::exit(1);
        }
    }
}
