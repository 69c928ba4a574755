//! `bench_tables` — the maintained deep-table generation trajectory.
//!
//! Grows the n-wire gate-count tables **level by level** through
//! [`SearchTables::extend_to`] (the same extension path the
//! checkpoint/resume subsystem uses), timing each level and checking the
//! per-level class counts against the paper's published sequence
//! (Golubitsky/Falconer/Maslov, DAC 2010 — reduced-function counts
//! 1, 4, 33, 425, 6538, 101983, … for n = 4). Any count divergence
//! panics, so CI runs of this binary are a correctness gate as well as a
//! benchmark.
//!
//! Emits `BENCH_tables.json` (override with `--out`) including the
//! store's FNV-1a file digest — the committed baseline the `tables-deep`
//! CI job pins its generate / kill / resume runs against. The digest is
//! machine-independent and identical for every `--threads` setting.
//!
//! Flags: `--n` (default 4), `--k` (default 7, the 1-CPU-feasible CI
//! depth; `--quick` drops it to 5), `--threads`, `--store <FILE>` (keep
//! the generated store instead of a scratch file), `--out <FILE>`,
//! `--skip-single-shot` (drop the duplicate one-index-build generation —
//! the level-by-level counts are still asserted; use this for k ≥ 8
//! where a second full build would double a multi-hour run).
//!
//! Besides the v4 checkpoint store the run also writes the same tables
//! in store format v5 (zero-copy mmap layout) and times a cold
//! `SearchTables::load` of it; the report gains `save_v5_seconds`,
//! `v5_store_bytes`, `v5_store_digest`, `load_ms` (integer milliseconds
//! for the mmap load) and `format` (the store version `load_ms` was
//! measured against). `store_digest` stays the v4 digest the CI job
//! pins.
//!
//! Run with `cargo run --release -p revsynth-bench --bin bench_tables`.

use std::io::Write as _;
use std::time::Instant;

use revsynth_bench::arg_or;
use revsynth_bfs::{file_digest, GenOptions, SearchTables};
use revsynth_circuit::{CostModel, GateLib};

/// Published per-level reduced (class) counts for the 4-wire NCT
/// library, sizes 0..=9 (DAC 2010; the same sequence the search tables
/// pre-size against).
const PAPER_N4_REDUCED: [u64; 10] = [
    1,
    4,
    33,
    425,
    6_538,
    101_983,
    1_482_686,
    19_466_575,
    225_242_556,
    2_208_511_226,
];

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let skip_single_shot = std::env::args().any(|a| a == "--skip-single-shot");
    let n: usize = arg_or("--n", 4);
    let k: u64 = arg_or("--k", if quick { 5 } else { 7 });
    let threads: usize = arg_or("--threads", 1);
    let out_path: String = arg_or("--out", "BENCH_tables.json".to_owned());
    let store_path: String = arg_or("--store", String::new());

    let opts = GenOptions::new().threads(threads);

    eprintln!("[1/4] growing n = {n} tables level by level to k = {k} ...");
    let start_all = Instant::now();
    let mut tables = SearchTables::generate_opts(GateLib::nct(n), 0, &opts);
    let mut level_seconds: Vec<f64> = vec![0.0];
    for target in 1..=k {
        let start = Instant::now();
        tables.extend_to(target, &opts);
        let seconds = start.elapsed().as_secs_f64();
        level_seconds.push(seconds);
        let classes = tables.level(target as usize).len();
        eprintln!("      level {target}: {classes} classes in {seconds:.3}s");
        if n == 4 {
            let expected = PAPER_N4_REDUCED
                .get(target as usize)
                .copied()
                .expect("k ≤ 9 for the published sequence");
            assert_eq!(
                classes as u64, expected,
                "level {target} class count diverged from the paper's sequence"
            );
        }
    }
    let total_seconds = start_all.elapsed().as_secs_f64();

    // Growing one level at a time rebuilds the invariant index after
    // every level (extend_to's contract), so the per-level seconds above
    // slightly overstate raw expansion cost; a single extension pays one
    // rebuild. Measure that too, and check the two builds agree.
    let single_shot_seconds = if skip_single_shot {
        eprintln!("[2/4] single-shot generation skipped (--skip-single-shot)");
        None
    } else {
        eprintln!("[2/4] single-shot generation to k = {k} (one index build) ...");
        let start = Instant::now();
        let single = SearchTables::generate_opts(GateLib::nct(n), k as usize, &opts);
        let seconds = start.elapsed().as_secs_f64();
        assert_eq!(
            single.num_representatives(),
            tables.num_representatives(),
            "single-shot and level-by-level builds must agree"
        );
        drop(single);
        eprintln!("      {seconds:.3}s single-shot vs {total_seconds:.3}s level-by-level");
        Some(seconds)
    };

    eprintln!("[3/4] writing + digesting the checkpointable store ...");
    let scratch = store_path.is_empty();
    let store_file = if scratch {
        std::env::temp_dir()
            .join(format!(
                "revsynth-bench-tables-{}.rvtab",
                std::process::id()
            ))
            .to_string_lossy()
            .into_owned()
    } else {
        store_path
    };
    let start = Instant::now();
    tables.save(&store_file).expect("write store");
    let save_seconds = start.elapsed().as_secs_f64();
    let digest = file_digest(&store_file).expect("digest store");
    let store_bytes = std::fs::metadata(&store_file).expect("stat store").len();
    // The digest must be construction-path independent: reload and
    // compare against a checkpointed write of the loaded tables.
    let start = Instant::now();
    let reloaded = SearchTables::load(&store_file).expect("reload store");
    let load_seconds = start.elapsed().as_secs_f64();
    assert_eq!(reloaded.num_representatives(), tables.num_representatives());
    assert_eq!(*reloaded.model(), CostModel::unit());
    let content = reloaded.content_digest();
    drop(reloaded);

    // The same tables in store format v5, then a cold zero-copy load of
    // them — the number the serve tier cares about.
    let v5_file = format!("{store_file}.v5");
    let start = Instant::now();
    tables.save_v5(&v5_file).expect("write v5 store");
    let save_v5_seconds = start.elapsed().as_secs_f64();
    let v5_digest = file_digest(&v5_file).expect("digest v5 store");
    let v5_store_bytes = std::fs::metadata(&v5_file).expect("stat v5 store").len();
    let start = Instant::now();
    let mapped = SearchTables::load(&v5_file).expect("mmap v5 store");
    let load_ms = start.elapsed().as_millis();
    let v5_format = mapped.source_format().expect("loaded from a file");
    eprintln!("      v5 load: {load_ms} ms (v4 scan: {load_seconds:.3}s)");
    assert_eq!(v5_format, 5);
    assert_eq!(mapped.num_representatives(), tables.num_representatives());
    assert_eq!(
        mapped.content_digest(),
        content,
        "v4 and v5 stores must describe identical tables"
    );
    drop(mapped);
    if scratch {
        std::fs::remove_file(&store_file).ok();
        std::fs::remove_file(&v5_file).ok();
    }

    eprintln!("[4/4] writing {out_path} ...");
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"tables\",\n");
    json.push_str(&format!(
        "  \"config\": {{\"n\": {n}, \"k\": {k}, \"threads\": {threads}, \"quick\": {quick}}},\n"
    ));
    json.push_str("  \"levels\": [\n");
    for (i, &seconds) in level_seconds.iter().enumerate() {
        let classes = tables.level(i).len() as u64;
        let paper = if n == 4 {
            PAPER_N4_REDUCED
                .get(i)
                .map_or("null".to_owned(), |c| c.to_string())
        } else {
            "null".to_owned()
        };
        json.push_str(&format!(
            "    {{\"level\": {i}, \"classes\": {classes}, \"paper_classes\": {paper}, \
             \"seconds\": {seconds:.3}}}{}\n",
            if i == k as usize { "" } else { "," }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"total_classes\": {},\n",
        tables.num_representatives()
    ));
    json.push_str(&format!("  \"generate_seconds\": {total_seconds:.3},\n"));
    json.push_str(&format!(
        "  \"single_shot_generate_seconds\": {},\n",
        single_shot_seconds.map_or("null".to_owned(), |s| format!("{s:.3}"))
    ));
    json.push_str(&format!("  \"save_seconds\": {save_seconds:.3},\n"));
    json.push_str(&format!("  \"load_seconds\": {load_seconds:.3},\n"));
    json.push_str(&format!("  \"store_bytes\": {store_bytes},\n"));
    json.push_str(&format!("  \"store_digest\": \"{digest:#018x}\",\n"));
    json.push_str(&format!("  \"save_v5_seconds\": {save_v5_seconds:.3},\n"));
    json.push_str(&format!("  \"v5_store_bytes\": {v5_store_bytes},\n"));
    json.push_str(&format!("  \"v5_store_digest\": \"{v5_digest:#018x}\",\n"));
    json.push_str(&format!("  \"load_ms\": {load_ms},\n"));
    json.push_str(&format!("  \"format\": {v5_format},\n"));
    json.push_str(&format!(
        "  \"paper_check\": \"per-level class counts asserted against the published \
         DAC 2010 sequence (1, 4, 33, 425, 6538, ...) for all {} computed levels\"\n",
        if n == 4 { k + 1 } else { 0 }
    ));
    json.push_str("}\n");
    let mut file = std::fs::File::create(&out_path).expect("create report file");
    file.write_all(json.as_bytes()).expect("write report");
    println!("{json}");
}
