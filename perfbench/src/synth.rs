//! `synth_random_k7`: optimal synthesis of random permutations against
//! the k = 7 tables (the paper's random-permutation experiment).
//!
//! The queries are a pinned sample of uniformly random permutations, each
//! conjugated by a wire relabeling drawn from `--seed`. A relabeled query
//! is itself uniformly random, and the engine's hoisted frames are the
//! same sorted set for every relabeling, so every seed scans the same
//! candidates in the same order: each query's optimal size and `considered`
//! count are pinned and checked on every run, and seeds differ only in the
//! permutations the engine is handed.

use std::time::Instant;

use revsynth_analysis::{random_perm, Rng, SplitMix64};
use revsynth_circuit::{Circuit, GateLib};
use revsynth_core::{SearchOptions, SearchStats, Synthesizer};
use revsynth_perm::{Perm, WirePerm};

use crate::layers::EngineTotals;
use crate::pins;
use crate::stores;
use crate::trace::Tracer;
use crate::util::{self, median, Metrics, Outcome};
use crate::Scale;

/// Base sample seed: the pinned random permutations.
const BASE_SEED: u64 = 0x5EED_0007;

/// Set-up repetitions (load plus fault-in), reported as their median.
const SETUP_REPEATS: usize = 5;

/// Passes over the op list. Each op's latency is the median of its
/// passes, so a burst of host noise during one pass does not move it.
const PASSES: usize = 3;

/// Search work per second of `--seconds`, in candidates considered over
/// all passes. The engine scans about 3.5 M per second on the reference
/// host (2-vCPU KVM guest), so a run measures for a little over
/// `--seconds`.
const CANDIDATES_PER_SECOND: u64 = 6_000_000;

/// The pinned base sample (real scale), before relabeling.
pub fn base_queries(count: usize) -> Vec<Perm> {
    let mut rng = SplitMix64::new(BASE_SEED);
    (0..count).map(|_| random_perm(4, &mut rng)).collect()
}

/// Smoke scale: random 4–8-gate circuits, all within the k = 4 reach.
fn smoke_queries(count: usize) -> Vec<Perm> {
    let gates: Vec<_> = GateLib::nct(4).iter().map(|(_, g, _)| g).collect();
    let mut rng = SplitMix64::new(BASE_SEED);
    (0..count)
        .map(|_| {
            let len = 4 + rng.next_u64() as usize % 5;
            Circuit::from_gates((0..len).map(|_| gates[rng.next_u64() as usize % gates.len()]))
                .perm(4)
        })
        .collect()
}

/// Each base query's pinned `(optimal size, considered)`.
pub type Pinned = Vec<(usize, u64)>;

/// The run's queries, one list per pass, and at real scale the pins of
/// their base queries. Every pass relabels the same base queries afresh,
/// so passes repeat identical work.
pub fn plan(scale: &Scale, seed: u64, seconds: u64) -> (Vec<Vec<Perm>>, Option<Pinned>) {
    let (base, pinned) = if scale.smoke {
        (smoke_queries(24), None)
    } else {
        let budget = seconds.max(1) * CANDIDATES_PER_SECOND / PASSES as u64;
        let mut spent = 0;
        let take = pins::K7_OPS
            .iter()
            .take_while(|&&(_, considered)| {
                spent += considered;
                spent <= budget
            })
            .count()
            .max(1);
        let pinned: Pinned = pins::K7_OPS[..take]
            .iter()
            .map(|&(size, considered)| (usize::from(size), considered))
            .collect();
        (base_queries(take), Some(pinned))
    };
    let relabelings = WirePerm::all();
    let mut rng = SplitMix64::new(seed);
    let passes = (0..PASSES)
        .map(|_| {
            base.iter()
                .map(|f| {
                    f.conjugate_by_wires(relabelings[rng.next_u64() as usize % relabelings.len()])
                })
                .collect()
        })
        .collect();
    (passes, pinned)
}

/// One finished op, kept for verification and per-layer figures.
pub struct OpRecord {
    pub query: Perm,
    pub circuit: Option<Circuit>,
    pub stats: SearchStats,
    pub ns: u64,
    pub minflt: u64,
}

/// Runs the op list serially (`threads(1)`) and records each op.
pub fn run_ops(
    synth: &Synthesizer,
    queries: &[Perm],
    tracer: &Tracer,
    parent: u64,
) -> Vec<OpRecord> {
    let opts = SearchOptions::new().threads(1);
    let mut records = Vec::with_capacity(queries.len());
    for (i, &query) in queries.iter().enumerate() {
        let faults = if tracer.on() { util::minor_faults() } else { 0 };
        let id = tracer.id();
        let start = Instant::now();
        let result = synth.synthesize_with(query, &opts);
        let ns = util::ns_u64(start);
        tracer.record(id, parent, "core.synthesize_with", i as u64 + 1, start);
        let minflt = if tracer.on() {
            util::minor_faults() - faults
        } else {
            0
        };
        let (circuit, stats) = match result {
            Ok(s) => (Some(s.circuit), s.stats),
            Err(_) => (None, SearchStats::default()),
        };
        records.push(OpRecord {
            query,
            circuit,
            stats,
            ns,
            minflt,
        });
    }
    records
}

pub fn run(scale: &Scale, seed: u64, seconds: u64, tracer: &Tracer) -> Result<Outcome, String> {
    let path = stores::open(scale.smoke, scale.synth_k)?;
    let (passes, pinned) = plan(scale, seed, seconds);

    let mut setup = Vec::with_capacity(SETUP_REPEATS);
    let mut minflt_setup = 0;
    let mut tables = None;
    for _ in 0..SETUP_REPEATS {
        drop(tables.take());
        let faults = util::minor_faults();
        let start = Instant::now();
        let loaded = tracer.scope(0, "setup", |id| {
            let t = tracer.scope(id, "bfs.load", |_| stores::load(&path));
            tracer.scope(id, "mmap.fault_in", |_| stores::fault_in(&t));
            t
        });
        setup.push(util::secs(start));
        minflt_setup = util::minor_faults() - faults;
        tables = Some(loaded);
    }
    let synth = Synthesizer::new(tables.expect("at least one set-up ran"));

    let runs: Vec<Vec<OpRecord>> = passes
        .iter()
        .map(|queries| tracer.scope(0, "ops", |id| run_ops(&synth, queries, tracer, id)))
        .collect();

    let mut out = Outcome::default();
    let mut digest = util::Fnv::new();
    let mut considered = 0;
    for (pass, records) in runs.iter().enumerate() {
        for (i, r) in records.iter().enumerate() {
            let len = r.circuit.as_ref().map_or(usize::MAX, Circuit::len);
            let computes = r.circuit.as_ref().is_some_and(|c| c.perm(4) == r.query);
            let pinned_ok = pinned
                .as_ref()
                .is_none_or(|p| p[i] == (len, r.stats.considered));
            out.check(computes && pinned_ok, || {
                format!(
                    "pass {pass} op {i}: circuit ok={computes}, size {len}, considered {} vs pinned {:?}",
                    r.stats.considered,
                    pinned.as_ref().map(|p| p[i])
                )
            });
            if pass == 0 {
                digest.word(len as u64);
                digest.word(r.stats.considered);
                considered += r.stats.considered;
            }
        }
    }
    out.fingerprint = vec![
        ("ops", runs[0].len() as u64),
        ("considered", considered),
        ("sizes_digest", digest.finish()),
    ];

    let mut lat: Vec<u64> = (0..runs[0].len())
        .map(|i| {
            let times: Vec<f64> = runs.iter().map(|r| r[i].ns as f64).collect();
            median(&times) as u64
        })
        .collect();
    let total_s = lat.iter().sum::<u64>() as f64 / 1e9;
    out.end_to_end(median(&setup), lat.len() as f64 / total_s, &mut lat);
    if tracer.on() {
        let all: Vec<OpRecord> = runs.into_iter().flatten().collect();
        out.metrics.merge(size_metrics(&all, scale.synth_k));
        out.metrics
            .set("mmap.minflt_setup", minflt_setup as f64, "count");
        out.engine = Some(EngineTotals::from_records(&all));
    }
    Ok(out)
}

/// Per-size median times and page faults per op of synthesis ops. Sizes
/// 10–13 at k = 7 are 3–6 gates past the table depth; at smoke scale
/// (k = 4) the same names cover sizes 4–7.
pub fn size_metrics(records: &[OpRecord], k: usize) -> Metrics {
    let mut m = Metrics::default();
    let shift = 2 * (7 - k);
    for size in 10..=13 {
        let mut ns: Vec<u64> = records
            .iter()
            .filter(|r| r.circuit.as_ref().is_some_and(|c| c.len() + shift == size))
            .map(|r| r.ns)
            .collect();
        if !ns.is_empty() {
            let p50 = util::percentile(&mut ns, 50.0) / 1e6;
            m.set(&format!("core.size{size}_p50_ms"), p50, "ms");
        }
    }
    let faults: u64 = records.iter().map(|r| r.minflt).sum();
    m.set(
        "mmap.minflt_per_op",
        faults as f64 / records.len().max(1) as f64,
        "count",
    );
    m
}

/// Maintenance mode: synthesizes the first `count` base queries and prints
/// the `K7_OPS` pin table, checking that a relabeled copy of each query
/// does identical work.
pub fn print_pins(scale: &Scale, count: usize) -> Result<(), String> {
    let path = stores::open(scale.smoke, scale.synth_k)?;
    let synth = Synthesizer::new(stores::load(&path));
    let opts = SearchOptions::new().threads(1);
    let sigma = WirePerm::all()[7];
    for (i, f) in base_queries(count).into_iter().enumerate() {
        let start = Instant::now();
        let a = synth.synthesize_with(f, &opts).map_err(|e| e.to_string())?;
        let ms = util::secs(start) * 1e3;
        let b = synth
            .synthesize_with(f.conjugate_by_wires(sigma), &opts)
            .map_err(|e| e.to_string())?;
        let same = a.circuit.len() == b.circuit.len() && a.stats == b.stats;
        println!(
            "    ({}, {}), // {i}: {ms:.1} ms{}",
            a.circuit.len(),
            a.stats.considered,
            if same { "" } else { " RELABELING DIFFERS" }
        );
    }
    Ok(())
}
