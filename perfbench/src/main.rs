//! perfbench: the repository's layered benchmark.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! Run from the repository root. The last stdout line is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics untraced, the per-layer metrics traced. See
//! `perfbench/README.md` for the workloads, metrics and findings.

mod gen;
mod layers;
mod pins;
mod serve;
mod stores;
mod synth;
mod trace;
mod util;

use std::path::PathBuf;

use trace::Tracer;
use util::{Metrics, Outcome};

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = [
    "synth_random_k7",
    "serve_warm_k5",
    "serve_miss_k5",
    "tables_gen_k6",
];

/// End-to-end metrics (untraced runs) with their units.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("rss_peak_mb", "MB"),
];

/// Per-layer metrics (traced runs) with their units.
pub const PER_LAYER: [(&str, &str); 54] = [
    ("perm.then_ns", "ns"),
    ("perm.inverse_ns", "ns"),
    ("perm.conj_swap_ns", "ns"),
    ("canon.canonicalize_ns", "ns"),
    ("canon.replay_ns", "ns"),
    ("table.key_of_ns", "ns"),
    ("table.gate_k7_ns", "ns"),
    ("table.probe_hit_k7_ns", "ns"),
    ("table.probe_miss_k7_ns", "ns"),
    ("table.gate_k5_ns", "ns"),
    ("table.probe_hit_k5_ns", "ns"),
    ("table.probe_miss_k5_ns", "ns"),
    ("table.insert_ns", "ns"),
    ("core.considered_per_op", "count"),
    ("core.canonicalized_per_op", "count"),
    ("core.gate_selectivity", "ratio"),
    ("core.ns_per_candidate", "ns"),
    ("core.explained_pct", "%"),
    ("core.size10_p50_ms", "ms"),
    ("core.size11_p50_ms", "ms"),
    ("core.size12_p50_ms", "ms"),
    ("core.size13_p50_ms", "ms"),
    ("bfs.level1_s", "s"),
    ("bfs.level2_s", "s"),
    ("bfs.level3_s", "s"),
    ("bfs.level4_s", "s"),
    ("bfs.level5_s", "s"),
    ("bfs.level6_s", "s"),
    ("bfs.level6_classes_per_s", "1/s"),
    ("bfs.parallel_speedup", "ratio"),
    ("bfs.load_k7_ms", "ms"),
    ("bfs.fault_in_k7_ms", "ms"),
    ("bfs.load_k5_ms", "ms"),
    ("bfs.verify_k7_s", "s"),
    ("mmap.minflt_setup", "count"),
    ("mmap.minflt_per_op", "count"),
    ("serve.rtt_p50_us", "us"),
    ("serve.decode_ns", "ns"),
    ("serve.encode_ns", "ns"),
    ("serve.cache_get_ns", "ns"),
    ("serve.stage_write_us", "us"),
    ("serve.stage_queue_wait_us", "us"),
    ("serve.stage_batch_search_us", "us"),
    ("serve.unattributed_us", "us"),
    ("serve.server_cpu_us_per_req", "us"),
    ("serve.client_cpu_us_per_req", "us"),
    ("serve.ctx_switches_per_req", "count"),
    ("serve.searches", "count"),
    ("serve.hit_rate", "ratio"),
    ("serve.max_batch", "count"),
    ("obs.overhead_pct", "%"),
    ("host.calib_start_ns", "ns"),
    ("host.calib_end_ns", "ns"),
    ("trace.overhead_pct", "%"),
];

/// Store sizes of a run: the real benchmark or the k ≤ 4 smoke scale.
pub struct Scale {
    pub smoke: bool,
    /// Tables for `synth_random_k7` (k = 7; smoke k = 4).
    pub synth_k: usize,
    /// Tables behind the server (k = 5; smoke k = 3).
    pub serve_k: usize,
    /// Generation depth of `tables_gen_k6` (k = 6; smoke k = 4).
    pub gen_k: usize,
}

impl Scale {
    fn new(smoke: bool) -> Scale {
        if smoke {
            Scale {
                smoke,
                synth_k: 4,
                serve_k: 3,
                gen_k: 4,
            }
        } else {
            Scale {
                smoke,
                synth_k: 7,
                serve_k: 5,
                gen_k: 6,
            }
        }
    }
}

fn main() {
    if let Err(e) = real_main() {
        eprintln!("perfbench: error: {e}");
        std::process::exit(2);
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    traced: bool,
}

fn real_main() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| -> Option<&str> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    let scale = Scale::new(args.iter().any(|a| a == "--smoke"));
    if args.iter().any(|a| a == "--cold-gen") {
        return gen::cold_child(&scale);
    }
    if let Some(count) = flag("--print-pins") {
        let count = count.parse().map_err(|e| format!("--print-pins: {e}"))?;
        stores::prepare(scale.smoke, &[scale.synth_k, scale.serve_k])?;
        return synth::print_pins(&scale, count);
    }
    let parsed = Args {
        workload: flag("--workload").ok_or("missing --workload")?.to_string(),
        seed: flag("--seed")
            .unwrap_or("1")
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds: flag("--seconds")
            .unwrap_or("10")
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        traced: match flag("--trace").unwrap_or("0") {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, not {other}")),
        },
    };
    if !WORKLOADS.contains(&parsed.workload.as_str()) {
        return Err(format!("unknown workload {}", parsed.workload));
    }
    stores::prepare(scale.smoke, &[scale.synth_k, scale.serve_k])?;
    println!(
        "perfbench: workload={} seed={} seconds={} trace={} smoke={} threads_available={}",
        parsed.workload,
        parsed.seed,
        parsed.seconds,
        u8::from(parsed.traced),
        scale.smoke,
        std::thread::available_parallelism().map_or(1, usize::from),
    );
    let calib_start = util::host_calib_ns();
    let (out, metrics) = if parsed.traced {
        traced_run(&scale, &parsed)?
    } else {
        let out = run_workload(&scale, &parsed, &Tracer::new(false))?;
        let mut m = Metrics::default();
        for (name, unit) in END_TO_END {
            if let Some(v) = out.metrics.get(name) {
                m.set(name, v, unit);
            }
        }
        m.set("rss_peak_mb", util::status_mb("VmHWM"), "MB");
        (out, m)
    };
    let calib_end = util::host_calib_ns();
    let mut errors = out.errors;
    if let Some(want) = pins::fingerprint(&parsed.workload, parsed.seconds, scale.smoke) {
        if out.fingerprint.as_slice() != want {
            errors.push(format!("work fingerprint differs from the pinned {want:?}"));
        }
    }
    let fingerprint: Vec<String> = out
        .fingerprint
        .iter()
        .map(|(k, v)| format!("{k}={v:#x}"))
        .collect();
    println!("fingerprint: {}", fingerprint.join(" "));
    println!(
        "host: calib_start_ns={calib_start:.3} calib_end_ns={calib_end:.3} drift_pct={:.2}",
        100.0 * (calib_end / calib_start - 1.0)
    );
    let mut metrics = metrics;
    if parsed.traced {
        metrics.set("host.calib_start_ns", calib_start, "ns");
        metrics.set("host.calib_end_ns", calib_end, "ns");
    }
    let declared: &[(&str, &str)] = if parsed.traced {
        &PER_LAYER
    } else {
        &END_TO_END
    };
    for (name, _) in declared {
        if metrics.get(name).is_none() {
            errors.push(format!("metric {name} was not measured"));
        }
    }
    for e in &errors {
        eprintln!("perfbench: check failed: {e}");
    }
    let correct = errors.is_empty() && out.failed == 0;
    println!(
        "{}",
        util::result_line(correct, out.attempted, out.failed, &metrics)
    );
    Ok(())
}

fn run_workload(scale: &Scale, args: &Args, tracer: &Tracer) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "synth_random_k7" => synth::run(scale, args.seed, args.seconds, tracer),
        "serve_warm_k5" => serve::run_warm(scale, args.seed, args.seconds, tracer),
        "serve_miss_k5" => serve::run_miss(scale, args.seed, args.seconds, tracer),
        "tables_gen_k6" => gen::run(scale, args.seconds, tracer),
        other => Err(format!("unknown workload {other}")),
    }
}

/// The traced run: the workload untraced, then traced (their throughput
/// ratio is the tracing overhead), then the layer pass. Spans are written
/// to `<target>/perfbench-traces/<workload>.spans.csv` at the end.
fn traced_run(scale: &Scale, args: &Args) -> Result<(Outcome, Metrics), String> {
    let plain = run_workload(scale, args, &Tracer::new(false))?;
    let tracer = Tracer::new(true);
    let mut traced = run_workload(scale, args, &tracer)?;
    let rate = |o: &Outcome| o.metrics.get("ops_per_s").unwrap_or(0.0);
    let overhead = 100.0 * (rate(&plain) / rate(&traced).max(f64::MIN_POSITIVE) - 1.0);
    let own = std::mem::take(&mut traced.metrics);
    let engine = traced.engine.take();
    let layer = layers::run(scale, &tracer, own, engine)?;
    let mut m = Metrics::default();
    for (name, unit) in PER_LAYER {
        if let Some(v) = layer.get(name) {
            m.set(name, v, unit);
        }
    }
    m.set("trace.overhead_pct", overhead, "%");

    let spans = tracer.spans();
    println!(
        "spans: {} recorded; self time by name (count, total ms, self ms):",
        spans.len()
    );
    for (name, (count, total, own)) in trace::self_times(&spans) {
        println!("  {name:<28} {count:>9} {total:>12.3} {own:>12.3}");
    }
    let path: PathBuf = stores::target_dir()
        .join("perfbench-traces")
        .join(format!("{}.spans.csv", args.workload));
    trace::write_spans(&path, &spans).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("spans written to {}", path.display());

    let mut out = traced;
    out.attempted += plain.attempted;
    out.failed += plain.failed;
    out.errors.extend(plain.errors);
    if out.fingerprint != plain.fingerprint {
        out.errors
            .push("traced and untraced runs did different work".into());
    }
    Ok((out, m))
}
