//! Host and provenance block, and the process's peak memory.
//!
//! Everything is read from the CPU (`cpuid`) and the kernel (`getrusage`)
//! directly, so the benchmark reads no file outside its checkout.

use std::time::Instant;

/// Host and provenance facts printed with every result.
#[derive(Debug, Clone)]
pub struct Host {
    pub nproc: usize,
    pub cpu_model: String,
    pub l2_kb: u64,
    pub l3_kb: u64,
    pub rustc: &'static str,
    pub commit: &'static str,
    /// Cost of one disabled `mcsched_obs::span!` call site, in ns.
    pub disabled_span_ns: f64,
}

impl Host {
    pub fn probe() -> Self {
        let (cpu_model, l2_kb, l3_kb) = cpu();
        Self {
            nproc: nproc(),
            cpu_model,
            l2_kb,
            l3_kb,
            rustc: env!("PERFBENCH_RUSTC"),
            commit: env!("PERFBENCH_COMMIT"),
            disabled_span_ns: disabled_span_ns(),
        }
    }

    pub fn to_json(&self, workload: &str, seed: u64, trace: bool) -> String {
        format!(
            "{{\"host\":{{\"nproc\":{},\"cpu_model\":\"{}\",\"l2_kb\":{},\"l3_kb\":{},\
             \"rustc\":\"{}\",\"commit\":\"{}\",\"disabled_span_ns\":{:.3}}},\
             \"workload\":\"{workload}\",\"seed\":{seed},\"trace\":{trace}}}",
            self.nproc,
            self.cpu_model.replace('"', "'"),
            self.l2_kb,
            self.l3_kb,
            self.rustc,
            self.commit,
            self.disabled_span_ns
        )
    }
}

/// Worker count a `threads = 0` run resolves to.
pub fn nproc() -> usize {
    mcsched_runtime::resolve_threads(0)
}

/// Mean cost of a disabled span call site, over a million calls.
fn disabled_span_ns() -> f64 {
    const CALLS: u32 = 1_000_000;
    let start = Instant::now();
    for _ in 0..CALLS {
        let guard = mcsched_obs::span!("perfbench-probe");
        std::hint::black_box(&guard);
    }
    start.elapsed().as_nanos() as f64 / f64::from(CALLS)
}

#[cfg(target_arch = "x86_64")]
fn cpu() -> (String, u64, u64) {
    use std::arch::x86_64::{__cpuid, __cpuid_count};
    let max_ext = __cpuid(0x8000_0000).eax;
    let mut model = String::from("unknown");
    if max_ext >= 0x8000_0004 {
        let mut bytes = Vec::with_capacity(48);
        for leaf in 0x8000_0002u32..=0x8000_0004 {
            let r = __cpuid(leaf);
            for reg in [r.eax, r.ebx, r.ecx, r.edx] {
                bytes.extend_from_slice(&reg.to_le_bytes());
            }
        }
        model = String::from_utf8_lossy(&bytes)
            .trim_matches(char::from(0))
            .trim()
            .to_string();
    }
    // Deterministic cache parameters (leaf 4): level, ways, partitions,
    // line size and sets give each cache's size.
    let (mut l2, mut l3) = (0, 0);
    if __cpuid(0).eax >= 4 {
        for sub in 0..16 {
            let r = __cpuid_count(4, sub);
            if r.eax & 0x1f == 0 {
                break;
            }
            let level = (r.eax >> 5) & 0x7;
            let ways = u64::from((r.ebx >> 22) & 0x3ff) + 1;
            let parts = u64::from((r.ebx >> 12) & 0x3ff) + 1;
            let line = u64::from(r.ebx & 0xfff) + 1;
            let sets = u64::from(r.ecx) + 1;
            let kb = ways * parts * line * sets / 1024;
            match level {
                2 => l2 = kb,
                3 => l3 = kb,
                _ => {}
            }
        }
    }
    if l2 == 0 && max_ext >= 0x8000_0006 {
        let r = __cpuid(0x8000_0006);
        l2 = u64::from(r.ecx >> 16);
        l3 = u64::from(r.edx >> 18) * 512;
    }
    (model, l2, l3)
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu() -> (String, u64, u64) {
    ("unknown".into(), 0, 0)
}

/// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen longs.
#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    longs: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

/// Peak resident memory of this process, in MB (0 if unavailable).
pub fn peak_rss_mb() -> f64 {
    let mut usage = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        longs: [0; 14],
    };
    // SAFETY: `usage` is a writable, correctly sized `struct rusage`;
    // RUSAGE_SELF is 0.
    let rc = unsafe { getrusage(0, &mut usage) };
    if rc != 0 {
        return 0.0;
    }
    // ru_maxrss (the first long) is in KiB on Linux.
    usage.longs[0] as f64 / 1024.0
}

/// The reference time: about the fastest [`reference_s`] on the 2-core
/// Xeon host the committed numbers come from.
pub const REFERENCE_S: f64 = 0.2e-3;

/// How long a reference measurement stays current.
const REFERENCE_TTL_S: f64 = 0.01;

/// Times the benchmark's own reference work (sort 4096 pseudo-random keys,
/// then hash them into a map): the median of three runs, in seconds.
pub fn reference_s() -> f64 {
    let mut runs = [0.0; 3];
    for run in &mut runs {
        let t = Instant::now();
        let mut keys: Vec<u64> = Vec::with_capacity(4096);
        let mut x: u64 = 0x9E37_79B9;
        for _ in 0..4096 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            keys.push(x);
        }
        keys.sort_unstable();
        let map: std::collections::HashMap<u64, usize> = keys
            .iter()
            .enumerate()
            .map(|(i, k)| (k % 3000, i))
            .collect();
        std::hint::black_box((&keys, &map));
        *run = t.elapsed().as_secs_f64();
    }
    runs.sort_by(f64::total_cmp);
    runs[1]
}

/// [`reference_s`] on `threads` threads at once; the slowest thread
/// counts, as a parallel step waits for its slowest worker.
fn reference_on(threads: usize) -> f64 {
    if threads <= 1 {
        return reference_s();
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads).map(|_| scope.spawn(reference_s)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reference threads do not panic"))
            .fold(0.0, f64::max)
    })
}

/// Converts wall time into reference time.
///
/// The host is shared, and interference slows the program by up to 1.9×
/// for seconds at a time. Timed next to a program step, the reference work
/// shows how slow the host is at that moment, and `wall × REFERENCE_S /
/// reference` reads the step as if the host were quiet. Over eight runs of
/// the same fig3 grid, raw times spread ±15% and reference-scaled ones
/// ±3.5%. Every time-based end-to-end metric is reported in reference
/// seconds; the reference is re-timed once it is 10 ms old.
#[derive(Debug)]
pub struct RefClock {
    threads: usize,
    scale: f64,
    taken: Option<Instant>,
}

impl Default for RefClock {
    fn default() -> Self {
        Self::new()
    }
}

impl RefClock {
    pub fn new() -> Self {
        Self::on_threads(1)
    }

    /// A clock for work spread over `threads` threads: the reference runs
    /// on as many threads at once.
    pub fn on_threads(threads: usize) -> Self {
        Self {
            threads,
            scale: 1.0,
            taken: None,
        }
    }

    /// The factor from wall to reference seconds right now.
    pub fn scale(&mut self) -> f64 {
        if self
            .taken
            .is_none_or(|t| t.elapsed().as_secs_f64() >= REFERENCE_TTL_S)
        {
            self.scale = REFERENCE_S / reference_on(self.threads);
            self.taken = Some(Instant::now());
        }
        self.scale
    }

    /// Runs `work`; returns its result and its time in reference seconds.
    pub fn time<T>(&mut self, work: impl FnOnce() -> T) -> (T, f64) {
        let scale = self.scale();
        let t = Instant::now();
        let out = work();
        (out, t.elapsed().as_secs_f64() * scale)
    }
}
