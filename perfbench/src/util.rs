//! Shared measurement plumbing: the metric map and its JSON line,
//! percentiles, `/proc` readers and the host-drift probe.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

use revsynth_analysis::{random_perm, SplitMix64};
use revsynth_canon::Symmetries;
use revsynth_perm::Perm;

/// Metrics of one run, by name: value and unit. Later inserts overwrite.
#[derive(Default)]
pub struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.insert(name.to_string(), (value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|&(v, _)| v)
    }

    pub fn merge(&mut self, other: Metrics) {
        self.0.extend(other.0);
    }

    pub fn iter(&self) -> impl Iterator<Item = (&String, &(f64, &'static str))> {
        self.0.iter()
    }
}

/// Outcome of one workload run.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Human-readable problems found while verifying; empty when correct.
    pub errors: Vec<String>,
    pub metrics: Metrics,
    /// Work fingerprint: the counts and digests that must repeat exactly.
    pub fingerprint: Vec<(&'static str, u64)>,
    /// Engine work of the run's searches (traced runs only).
    pub engine: Option<crate::layers::EngineTotals>,
}

impl Outcome {
    /// Records one op's verification result.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.errors.len() < 8 {
                self.errors.push(what());
            }
        }
    }

    /// Sets the end-to-end metrics every workload reports (`rss_peak_mb`
    /// is read at exit).
    pub fn end_to_end<T: Copy + Ord + Into<u64>>(
        &mut self,
        setup_s: f64,
        ops_per_s: f64,
        lat_ns: &mut [T],
    ) {
        let m = &mut self.metrics;
        m.set("setup_s", setup_s, "s");
        m.set("ops_per_s", ops_per_s, "1/s");
        m.set("op_p50_ms", band_mean(lat_ns, P50_BAND) / 1e6, "ms");
        m.set("op_p90_ms", band_mean(lat_ns, P90_BAND) / 1e6, "ms");
    }

    /// Records a run-level check that is not an op.
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }
}

/// The run's last stdout line: `correct`, `attempted`, `failed` and the
/// metrics with their units.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, (value, unit))) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if value.is_finite() { *value } else { 0.0 };
        write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        )
        .expect("writing to a String cannot fail");
    }
    out.push_str("}}");
    out
}

/// Nearest-rank percentile of `values` (sorted in place); 0 when empty.
pub fn percentile<T: Copy + Ord + Into<u64>>(values: &mut [T], pct: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_unstable();
    let rank = ((pct / 100.0) * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1].into() as f64
}

/// The percentile bands behind `op_p50_ms` and `op_p90_ms`.
pub const P50_BAND: (f64, f64) = (40.0, 60.0);
pub const P90_BAND: (f64, f64) = (85.0, 95.0);

/// Mean of the values whose rank falls in the percentile band `(lo, hi)`
/// (sorted in place; nearest rank to the band's middle if none does). A
/// smoothed quantile: serve latencies are quantised by the event loop's
/// ticket polling, and a plain order statistic jumps a whole polling step
/// when the host speeds up or slows down a little.
pub fn band_mean<T: Copy + Ord + Into<u64>>(values: &mut [T], (lo, hi): (f64, f64)) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_unstable();
    let n = values.len() as f64;
    let band: Vec<f64> = values
        .iter()
        .enumerate()
        .filter(|&(i, _)| (lo..=hi).contains(&(100.0 * (i as f64 + 0.5) / n)))
        .map(|(_, &v)| v.into() as f64)
        .collect();
    if band.is_empty() {
        percentile(values, (lo + hi) / 2.0)
    } else {
        band.iter().sum::<f64>() / band.len() as f64
    }
}

/// Median of floating-point samples; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Nanoseconds since `start`, saturated to `u32` (about 4.3 s).
pub fn ns_u32(start: Instant) -> u32 {
    u32::try_from(start.elapsed().as_nanos()).unwrap_or(u32::MAX)
}

/// Nanoseconds since `start`, saturated to `u64`.
pub fn ns_u64(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// FNV-1a over a stream of words: the work-fingerprint digest.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Minor page faults of this process so far.
pub fn minor_faults() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Field 10 (1-based) is minflt; the command name may hold spaces, so
    // count from the closing parenthesis.
    stat.rsplit_once(')')
        .and_then(|(_, rest)| rest.split_whitespace().nth(7))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// A `kB` field of `/proc/self/status` (e.g. `VmHWM`), in MB.
pub fn status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU time (ns) and context switches of one thread of this process.
#[derive(Debug, Clone, Copy, Default)]
pub struct ThreadUsage {
    pub cpu_ns: u64,
    pub ctx_switches: u64,
}

impl ThreadUsage {
    /// Reads `/proc/<task>/{schedstat,status}` for a task directory.
    pub fn read(task_dir: &str) -> ThreadUsage {
        let cpu_ns = std::fs::read_to_string(format!("{task_dir}/schedstat"))
            .ok()
            .and_then(|s| s.split_whitespace().next()?.parse().ok())
            .unwrap_or(0);
        let status = std::fs::read_to_string(format!("{task_dir}/status")).unwrap_or_default();
        let ctx_switches = status
            .lines()
            .filter(|l| l.contains("ctxt_switches"))
            .filter_map(|l| l.split_whitespace().nth(1)?.parse::<u64>().ok())
            .sum();
        ThreadUsage {
            cpu_ns,
            ctx_switches,
        }
    }

    /// The calling thread's usage.
    pub fn current() -> ThreadUsage {
        ThreadUsage::read("/proc/thread-self")
    }

    pub fn delta(self, earlier: ThreadUsage) -> ThreadUsage {
        ThreadUsage {
            cpu_ns: self.cpu_ns.saturating_sub(earlier.cpu_ns),
            ctx_switches: self.ctx_switches.saturating_sub(earlier.ctx_switches),
        }
    }
}

/// Thread ids of this process.
pub fn thread_ids() -> Vec<u64> {
    let mut ids: Vec<u64> = std::fs::read_dir("/proc/self/task")
        .map(|dir| {
            dir.filter_map(|e| e.ok()?.file_name().to_str()?.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    ids.sort_unstable();
    ids
}

/// Summed usage of the given threads (threads that have exited read 0).
pub fn usage_of(tids: &[u64]) -> ThreadUsage {
    tids.iter()
        .map(|tid| ThreadUsage::read(&format!("/proc/self/task/{tid}")))
        .fold(ThreadUsage::default(), |a, b| ThreadUsage {
            cpu_ns: a.cpu_ns + b.cpu_ns,
            ctx_switches: a.ctx_switches + b.ctx_switches,
        })
}

/// The host-drift probe: ns per `canonicalize` over a fixed, cache-resident
/// set of 1024 permutations (median of 5 blocks after one warm-up block).
/// It depends on nothing the workloads do, so a shift between a run's
/// start and end reading is the host, not the code under test.
pub fn host_calib_ns() -> f64 {
    const PASSES: usize = 64;
    let sym = Symmetries::new(4);
    let mut rng = SplitMix64::new(0xCA11_B4A7);
    let perms: Vec<Perm> = (0..1024).map(|_| random_perm(4, &mut rng)).collect();
    let blocks: Vec<f64> = (0..6)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..PASSES {
                for &p in &perms {
                    black_box(sym.canonicalize(black_box(p)));
                }
            }
            start.elapsed().as_nanos() as f64 / (PASSES * perms.len()) as f64
        })
        .collect();
    median(&blocks[1..])
}
