//! `tables_gen_k6`: breadth-first table generation from scratch,
//! `SearchTables::generate_opts(GateLib::nct(4), 6, threads(2))`.
//!
//! Set-up is a process's first (cold) generation, so it runs in child
//! processes of this binary, one per sample; the timed ops are in-process
//! repeats. Generation takes no input, so `--seed` changes nothing here.

use std::process::Command;
use std::time::Instant;

use revsynth_bfs::{GenOptions, SearchTables};
use revsynth_circuit::GateLib;

use crate::pins;
use crate::trace::Tracer;
use crate::util::{self, median, Outcome};
use crate::Scale;

/// Classes per level of the n = 4 NCT tables (the paper's published
/// sequence).
pub const LEVEL_CLASSES: [u64; 7] = [1, 4, 33, 425, 6538, 101_983, 1_482_686];

/// Cold generations (child processes) per run, reported as their median.
const COLD_REPEATS: usize = 3;

/// Generation worker threads: both vCPUs of the reference host.
pub const THREADS: usize = 2;

/// Timed generations per 5 s of `--seconds`: a k = 6 generation takes
/// about 1.2 s on the reference host (2-vCPU KVM guest).
const OPS_PER_5_SECONDS: u64 = 4;

pub fn generate(k: usize) -> SearchTables {
    SearchTables::generate_opts(GateLib::nct(4), k, &GenOptions::new().threads(THREADS))
}

/// Checks a generation's per-level counts and content digest.
pub fn verify(tables: &SearchTables, smoke: bool, k: usize) -> Result<(), String> {
    let counts = tables.reduced_counts();
    if counts != LEVEL_CLASSES[..=k] {
        return Err(format!("level counts {counts:?}"));
    }
    let digest = tables.content_digest();
    if Some(digest) != pins::gen_content_digest(smoke) {
        return Err(format!(
            "content digest {digest:#018x} is not the pinned one"
        ));
    }
    Ok(())
}

/// The child side of a cold sample: one generation, its seconds on stdout.
pub fn cold_child(scale: &Scale) -> Result<(), String> {
    let start = Instant::now();
    let tables = generate(scale.gen_k);
    let seconds = util::secs(start);
    verify(&tables, scale.smoke, scale.gen_k)?;
    println!("{seconds}");
    Ok(())
}

fn cold_sample(scale: &Scale) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating perfbench: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("--cold-gen");
    if scale.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("cold generation child: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "cold generation child failed: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse()
        .map_err(|e| format!("cold generation child output: {e}"))
}

pub fn run(scale: &Scale, seconds: u64, tracer: &Tracer) -> Result<Outcome, String> {
    let mut cold = Vec::with_capacity(COLD_REPEATS);
    for _ in 0..COLD_REPEATS {
        cold.push(tracer.scope(0, "setup", |_| cold_sample(scale))?);
    }
    let ops = (seconds * OPS_PER_5_SECONDS / 5).max(2);
    let mut lat = Vec::with_capacity(ops as usize);
    let mut out = Outcome::default();
    let mut classes = 0;
    let mut digest = 0;
    tracer.scope(0, "ops", |parent| {
        for op in 1..=ops {
            let id = tracer.id();
            let start = Instant::now();
            let tables = generate(scale.gen_k);
            lat.push(util::ns_u64(start));
            tracer.record(id, parent, "bfs.generate_opts", op, start);
            let checked = verify(&tables, scale.smoke, scale.gen_k);
            out.check(checked.is_ok(), || format!("generation {op}: {checked:?}"));
            classes = tables.num_representatives() as u64;
            digest = tables.content_digest();
        }
    });
    // The timed phase is the generations themselves, not their checks.
    let wall = lat.iter().sum::<u64>() as f64 / 1e9;
    out.fingerprint = vec![
        ("ops", ops),
        ("classes", classes),
        ("content_digest", digest),
    ];
    out.end_to_end(median(&cold), ops as f64 / wall, &mut lat);
    Ok(out)
}
