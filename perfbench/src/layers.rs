//! The per-layer metric set of the traced pass.

use mcsched_obs::metrics::{bucket_upper_bound, HistogramSnapshot};
use std::collections::BTreeMap;

/// Every per-layer metric, with its unit. A traced run reports all of
/// them on every workload; a layer the workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 51] = [
    ("workload.gen_ms", "ms"),
    ("workload.tasks", "count"),
    ("workload.edges", "count"),
    ("core.context.build_ms", "ms"),
    ("core.beta.ms", "ms"),
    ("core.beta.calls", "count"),
    ("core.alloc.ms", "ms"),
    ("core.alloc.calls", "count"),
    ("core.alloc.grants_mean", "count"),
    ("core.alloc.grants_p99", "count"),
    ("core.mapping.ms", "ms"),
    ("core.mapping.calls", "count"),
    ("core.mapping.jobs", "count"),
    ("core.mapping.transfers", "count"),
    ("simx.concurrent_ms", "ms"),
    ("simx.concurrent_ms_tail", "ms"),
    ("simx.concurrent_runs", "count"),
    ("simx.concurrent_events", "count"),
    ("simx.events_per_s", "1/s"),
    ("core.dedicated.ms", "ms"),
    ("core.dedicated.requests", "count"),
    ("core.dedicated.runs", "count"),
    ("core.dedicated.memo_ratio", "ratio"),
    ("simx.dedicated_events", "count"),
    ("exp.digest_ms", "ms"),
    ("runtime.cache.open_ms", "ms"),
    ("runtime.cache.bytes", "bytes"),
    ("runtime.cache.lookup_ms", "ms"),
    ("runtime.cache.hits", "count"),
    ("runtime.cache.misses", "count"),
    ("runtime.cache.hit_ratio", "ratio"),
    ("runtime.pool.tasks", "count"),
    ("runtime.pool.steals", "count"),
    ("runtime.pool.parks", "count"),
    ("runtime.pool.efficiency", "ratio"),
    ("stats.ms", "ms"),
    ("online.run_ms", "ms"),
    ("online.reschedules", "count"),
    ("online.reschedules_per_job", "ratio"),
    ("online.ms_per_reschedule", "ms"),
    ("online.loop_ms", "ms"),
    ("online.beta_alloc_ms", "ms"),
    ("online.mapping_ms", "ms"),
    ("online.simx_ms", "ms"),
    ("online.queue_depth_p99", "count"),
    ("online.shed", "count"),
    ("exp.self_ms", "ms"),
    ("obs.trace_overhead_frac", "ratio"),
    ("obs.spans", "count"),
    ("checks_failed", "count"),
    ("error_rate", "ratio"),
];

/// The per-layer values one traced run measured.
#[derive(Debug, Default)]
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
}

impl Layers {
    /// Records `name`, which must be one of [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "{name} is not a per-layer metric"
        );
        self.values.insert(name, value);
    }

    /// Every per-layer metric as `(name, value, unit)`, 0 where unmeasured.
    pub fn all(&self) -> Vec<(&'static str, f64, &'static str)> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, self.values.get(name).copied().unwrap_or(0.0), unit))
            .collect()
    }
}

/// Mean and p99 (bucket upper bound) of what a registry histogram
/// recorded since `before` was taken.
pub fn histogram_delta(before: &HistogramSnapshot, name: &str) -> (f64, f64) {
    let after = mcsched_obs::metrics::histogram(name).snapshot();
    let count = after.count - before.count;
    if count == 0 {
        return (0.0, 0.0);
    }
    let mean = (after.sum - before.sum) as f64 / count as f64;
    let target = (count as f64 * 0.99).ceil() as u64;
    let mut seen = 0;
    for (i, (a, b)) in after.buckets.iter().zip(&before.buckets).enumerate() {
        seen += a - b;
        if seen >= target {
            return (mean, bucket_upper_bound(i) as f64);
        }
    }
    (mean, 0.0)
}
