//! Subcommand dispatch and implementations.

use std::error::Error;
use std::path::PathBuf;
use std::time::Instant;

use revsynth_analysis::{sample_distribution_stats, HardSearch};
use revsynth_bfs::SearchTables;
use revsynth_circuit::CostKind;
use revsynth_core::{SearchOptions, SuiteConfig, SynthesisSuite, Synthesizer};
use revsynth_linear::{linear_only_distribution, PAPER_TABLE5};
use revsynth_perm::Perm;
use revsynth_specs::benchmarks;

type CliResult = Result<(), Box<dyn Error>>;

const USAGE: &str = "\
revsynth — optimal synthesis of 4-bit reversible circuits (DAC 2010 reproduction)

USAGE:
    revsynth <COMMAND> [OPTIONS]

COMMANDS:
    tables     generate --out <FILE> [--n <N>] [--k <K>] [--model unit|quantum]
                        [--budget <B>] [--threads <T>] [--resume]
                        [--format v4|v5]
               extend   --store <FILE> (--k <K> | --budget <B>) [--threads <T>]
               info     --store <FILE> [--json]
               verify   --store <FILE> [--expect-digest <HEX>]
               upgrade  --store <FILE>
               bench-load --store <FILE>
               Checkpointed deep-table builds (store format v4): generation
               streams every completed level to disk (write → fsync →
               update trailer), so a crash or kill loses only the in-flight
               level; `--resume` (or `extend`) continues from the deepest
               completed level and produces a store byte-identical to an
               uninterrupted run, in the store's own format (a v5 store
               is extended in RAM and atomically replaced). --threads
               never changes the output bytes, under either model.
               `info` is cheap enough to poll while a generation is
               writing; `verify` fully validates the store and prints its
               file and content digests.
               `upgrade` (or generate --format v5) rewrites a store in
               the v5 layout: page-aligned sections the loader mmaps and
               borrows zero-copy, turning an 8-second k = 7 load into
               milliseconds. `bench-load` times one load and prints
               {format, load_ms, classes} as JSON.
    synth      --spec <P0,..,P15> [--k <K>] [--tables <FILE>] [--threads <T>]
               [--cost gates|quantum|depth] [--cost-budget <B>]
               [--no-filter] [--probe-depth <W>] [--verbose]
               Synthesize a cost-minimal circuit for a permutation.
               --cost picks the model (default gates): quantum runs the
               same meet-in-the-middle scan over cost-bucketed tables
               generated to --cost-budget (default 13, covering every
               single gate); depth minimizes parallel time steps with
               --cost-budget layers (default 3). --threads shards the
               scan under gates and quantum (0 = all cores);
               --no-filter disables the invariant candidate gate and
               --probe-depth sets the probe-wavefront depth, both for
               A/B runs — results are identical; --verbose prints gate
               selectivity.
    benchmarks [--k <K>] [--tables <FILE>]
               Synthesize the paper's Table 6 benchmark suite.
    random     [--samples <N>] [--k <K>] [--seed <S>] [--tables <FILE>]
               [--threads <T>] [--cost gates|quantum|depth]
               [--cost-budget <B>] [--no-filter] [--probe-depth <W>]
               [--verbose]
               Cost distribution of random permutations (paper Table 3
               for gates; quantum-cost / depth histograms for the other
               models), measured through the batched search engine
               (--verbose adds gate-selectivity statistics).
    linear     Distribution of optimal sizes over all 322,560 linear
               reversible functions (paper Table 5).
    hard       [--seconds <S>] [--k <K>] [--seed <SEED>] [--tables <FILE>]
               Time-boxed search for a hard permutation (paper §4.5).
    stats      --k <K> [--n <N>]
               Hash-table statistics (paper Table 2).
    peephole   --circuit \"<GATES>\" [--k <K>] [--window <W>] [--tables <FILE>]
               Locally-optimal compression of a long circuit (paper §1).
    serve      [--port <P>] [--cores <N>|auto] [--portable-poll]
               [--workers <W>] [--cache-capacity <C>]
               [--linger-ms <L>] [--k <K>] [--n <N>] [--tables <FILE>]
               [--threads <T>] [--quantum-budget <B>] [--depth-budget <D>]
               [--max-queue <Q>] [--max-conns <C>] [--retry-after-ms <MS>]
               [--snapshot <FILE>] [--snapshot-interval-secs <S>]
               [--slow-query-us <US>]
               [--fault-search-delay-ms <MS>] [--fault-fail-every <N>]
               [--fault-panic-every <N>] [--fault-snapshot-delay-ms <MS>]
               [--fault-seed <S>]
               Run the synthesis service on 127.0.0.1:<P> (default 7878;
               0 picks a free port, printed on startup). Results are
               cached per equivalence class (--cache-capacity entries,
               default 65536) and served to every class member by
               witness replay; concurrent cache misses coalesce into
               batched searches on --workers scheduler threads (default
               1). --cores runs that many core-pinned event loops, each
               with its own SO_REUSEPORT listener and miss lane (`auto`
               = one per hardware CPU; default 1); --portable-poll
               forces the epoll-free readiness backend (testing knob). --linger-ms holds each batch open that long before
               searching (group commit: bigger batches and a guaranteed
               coalescing window, at that much added miss latency;
               default 0). Runs until a client sends a shutdown request
               (`revsynth query --shutdown`), then prints final stats.
               Queries carry a per-request cost model; the quantum and
               depth engines are generated lazily on first use
               (--quantum-budget, default 13; --depth-budget, default
               3), so gates-only traffic never pays for them.
               Overload control: --max-queue bounds the queued searches
               per cost model and --max-conns the concurrent
               connections (0 = unbounded, the default for both);
               excess load is shed with Overloaded frames carrying the
               --retry-after-ms hint (default 100).
               Warm restarts: --snapshot restores the class cache from
               FILE at boot (checksummed records; corrupt ones skipped,
               an unreadable snapshot quarantined to FILE.corrupt and
               the boot proceeds cold), snapshots back to FILE on
               graceful shutdown and, with --snapshot-interval-secs,
               periodically. Writes are atomic (temp + fsync + rename),
               so kill -9 never costs more than the interval.
               Observability: every request is traced through the
               pipeline stages into Prometheus-style metrics (scrape
               with `revsynth query --metrics`); --slow-query-us
               additionally captures full traces of requests slower
               than that many microseconds into a ring readable via
               `revsynth query --slow` (0, the default, captures none).
               The --fault-* flags inject deterministic chaos
               (per-search latency, forced failures, worker panics,
               slowed snapshot writes) for tests — never set them in
               production.
    query      [--port <P>] [--spec <P0,..,P15>] [--cost gates|quantum|depth]
               [--deadline-ms <MS>] [--json] [--stats] [--health]
               [--metrics] [--slow] [--traces] [--shutdown]
               Query a running server: --spec synthesizes a permutation
               under --cost (default gates), --stats (or no --spec)
               prints the ServeStats snapshot, --health prints the
               readiness probe (uptime, restored classes, live workers,
               snapshot age), --metrics prints the full Prometheus
               text exposition (every stats counter plus per-stage
               latency histograms, queue depths, shard occupancy and
               engine profiling), --slow prints the captured
               slow-query traces as JSON (see serve --slow-query-us),
               --traces prints the rolling ring of recent request
               traces as JSON (newest requests, slow or not),
               --shutdown stops the server.
               --deadline-ms asks the server to expire the request
               unstarted if it cannot begin the search in time.
               --json switches the output to single-line JSON.
    loadgen    [--port <P>] [--clients <C>] [--requests <R>]
               [--pool <B>] [--max-len <L>] [--seed <S>] [--quick]
               [--expect-coalesced] [--overload] [--expect-shed]
               [--deadline-ms <MS>] [--restart] [--expect-warm]
               Closed-loop load against a running server: C connections
               (default 4) × R requests (default 100) drawn from B
               classes (default 8). Verifies every response circuit,
               reports throughput and the server stats; exits nonzero
               on any error (and, with --expect-coalesced, when no
               request coalesced). --quick is the CI smoke scale.
               --overload switches to the saturation phase instead: the
               clients burst distinct cold classes (with --deadline-ms
               deadlines, default 50) at a server configured with a
               bounded queue and injected search latency, while warm
               traffic must keep being served; exits nonzero unless
               every shed/expiry counter reconciles exactly (and, with
               --expect-shed, unless saturation actually shed).
               --restart switches to the warm-restart phase: replays
               the seed's deterministic working set against a restarted
               server and verifies every circuit; with --expect-warm it
               additionally exits nonzero unless the server restored a
               snapshot and answered the whole set with ZERO new
               searches.
    help       Show this message.

Tables are regenerated on the fly unless --tables points at a file written
by `revsynth tables generate` (the paper's precompute-once workflow).";

/// Flags that take no value (presence alone means "on").
const SWITCHES: &[&str] = &[
    "portable-poll",
    "no-filter",
    "verbose",
    "json",
    "stats",
    "shutdown",
    "quick",
    "expect-coalesced",
    "overload",
    "expect-shed",
    "restart",
    "expect-warm",
    "health",
    "resume",
    "metrics",
    "slow",
    "traces",
];

/// Minimal flag parser: `--name value` pairs after the subcommand, plus
/// the valueless switches in [`SWITCHES`].
struct Opts {
    pairs: Vec<(String, String)>,
    switches: Vec<String>,
}

impl Opts {
    fn parse(args: &[String]) -> Result<Self, Box<dyn Error>> {
        let mut pairs = Vec::new();
        let mut switches = Vec::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let Some(name) = flag.strip_prefix("--") else {
                return Err(
                    format!("unexpected argument `{flag}` (flags are --name value)").into(),
                );
            };
            if SWITCHES.contains(&name) {
                switches.push(name.to_owned());
                continue;
            }
            let value = it
                .next()
                .ok_or_else(|| format!("flag --{name} needs a value"))?;
            pairs.push((name.to_owned(), value.clone()));
        }
        Ok(Opts { pairs, switches })
    }

    fn has(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn get_parse<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, Box<dyn Error>>
    where
        T::Err: Error + 'static,
    {
        match self.get(name) {
            Some(v) => Ok(v.parse()?),
            None => Ok(default),
        }
    }

    fn reject_unknown(&self, known: &[&str]) -> CliResult {
        for name in self
            .pairs
            .iter()
            .map(|(n, _)| n)
            .chain(self.switches.iter())
        {
            if !known.contains(&name.as_str()) {
                return Err(format!("unknown flag --{name}").into());
            }
        }
        Ok(())
    }
}

/// Parses the shared `--cost` flag (default gates).
fn cost_kind(opts: &Opts) -> Result<CostKind, Box<dyn Error>> {
    Ok(opts.get("cost").unwrap_or("gates").parse::<CostKind>()?)
}

/// Builds [`SearchOptions`] from the shared engine flags
/// (`--threads`, `--no-filter`, `--probe-depth`).
fn search_options(opts: &Opts) -> Result<SearchOptions, Box<dyn Error>> {
    let threads: usize = opts.get_parse("threads", 1)?;
    // probe_depth(0) means "use the engine default", matching the flag
    // being absent.
    let depth: usize = opts.get_parse("probe-depth", 0)?;
    Ok(SearchOptions::new()
        .threads(threads)
        .filter(!opts.has("no-filter"))
        .probe_depth(depth))
}

/// Prints the gate-selectivity line when `--verbose` was given.
fn print_selectivity(opts: &Opts, search: &SearchOptions, stats: &revsynth_core::SearchStats) {
    if !opts.has("verbose") {
        return;
    }
    println!(
        "gate     : {} considered, {} gated ({:.1}%), {} canonicalized, {} probed \
         (filter {}, probe depth {})",
        stats.considered,
        stats.gated,
        stats.gate_selectivity() * 100.0,
        stats.canonicalized,
        stats.probed,
        if search.filter_enabled() { "on" } else { "off" },
        search.effective_probe_depth()
    );
}

/// Parses arguments and runs the chosen subcommand.
pub fn dispatch(args: &[String]) -> CliResult {
    let Some(command) = args.first() else {
        println!("{USAGE}");
        return Ok(());
    };
    // `tables` takes an action word before its flags; dispatch it before
    // the flag parser sees the bare argument.
    if command == "tables" {
        return cmd_tables(&args[1..]);
    }
    let opts = Opts::parse(&args[1..])?;
    match command.as_str() {
        "synth" => cmd_synth(&opts),
        "benchmarks" => cmd_benchmarks(&opts),
        "random" => cmd_random(&opts),
        "linear" => cmd_linear(&opts),
        "hard" => cmd_hard(&opts),
        "stats" => cmd_stats(&opts),
        "peephole" => cmd_peephole(&opts),
        "serve" => cmd_serve(&opts),
        "query" => cmd_query(&opts),
        "loadgen" => cmd_loadgen(&opts),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`; try `revsynth help`").into()),
    }
}

/// Loads tables from `--tables`, or generates them at `--k` (default
/// `default_k`).
fn tables_from(opts: &Opts, default_k: usize) -> Result<SearchTables, Box<dyn Error>> {
    if let Some(path) = opts.get("tables") {
        let path = PathBuf::from(path);
        eprintln!("loading tables from {} ...", path.display());
        let start = Instant::now();
        let tables = SearchTables::load(&path)?;
        eprintln!(
            "  {} classes (n = {}, k = {}, store format {}) in {:.2?}",
            tables.num_representatives(),
            tables.wires(),
            tables.k(),
            tables
                .source_format()
                .map_or_else(|| "?".into(), |v| format!("v{v}")),
            start.elapsed()
        );
        if tables.source_format().is_some_and(|v| v < 5) {
            eprintln!(
                "  hint: `revsynth tables upgrade --store {}` converts the store \
                 to format v5 (zero-copy mmap, millisecond loads)",
                path.display()
            );
        }
        return Ok(tables);
    }
    let k = opts.get_parse("k", default_k)?;
    let n = opts.get_parse("n", 4usize)?;
    eprintln!("generating tables (n = {n}, k = {k}) ...");
    let start = Instant::now();
    let tables = SearchTables::generate(n, k);
    eprintln!(
        "  {} classes in {:.2?}",
        tables.num_representatives(),
        start.elapsed()
    );
    Ok(tables)
}

/// Builds [`revsynth_bfs::GenOptions`] from the `--threads` flag shared
/// by `tables generate` and `tables extend`.
fn gen_options(opts: &Opts) -> Result<revsynth_bfs::GenOptions, Box<dyn Error>> {
    Ok(revsynth_bfs::GenOptions::new().threads(opts.get_parse("threads", 1)?))
}

/// Resolves the `--model`/`--k`/`--budget` trio shared by `tables
/// generate` and `tables extend` into `(model, budget)`.
fn tables_target(opts: &Opts) -> Result<(revsynth_circuit::CostModel, u64), Box<dyn Error>> {
    let model = match opts.get("model").unwrap_or("unit") {
        "unit" => revsynth_circuit::CostModel::unit(),
        "quantum" => revsynth_circuit::CostModel::quantum(),
        other => return Err(format!("unknown table model `{other}` (unit|quantum)").into()),
    };
    let budget = if model == revsynth_circuit::CostModel::unit() {
        if opts.get("budget").is_some() {
            return Err("--budget applies to --model quantum; use --k for unit tables".into());
        }
        opts.get_parse("k", 6u64)?
    } else {
        if opts.get("k").is_some() {
            return Err("--k sizes unit tables; use --budget with --model quantum".into());
        }
        opts.get_parse("budget", 13u64)?
    };
    Ok((model, budget))
}

fn print_store_summary(tables: &SearchTables, path: &str, elapsed: std::time::Duration) {
    println!(
        "store    : {path} ({} levels, {} classes, model {:?})",
        tables.levels().len(),
        tables.num_representatives(),
        tables.model()
    );
    println!("max cost : {}", tables.max_cost());
    println!("runtime  : {elapsed:.2?}");
}

/// `tables <generate|extend|info|verify>` — the checkpointed deep-table
/// workflow (see the `tables` section of the usage text).
fn cmd_tables(args: &[String]) -> CliResult {
    let Some(action) = args.first() else {
        return Err(
            "tables needs an action: generate|extend|info|verify|upgrade|bench-load".into(),
        );
    };
    let opts = Opts::parse(&args[1..])?;
    match action.as_str() {
        "generate" => tables_generate(&opts),
        "extend" => tables_extend(&opts),
        "info" => tables_info(&opts),
        "verify" => tables_verify(&opts),
        "upgrade" => tables_upgrade(&opts),
        "bench-load" => tables_bench_load(&opts),
        other => Err(format!(
            "unknown tables action `{other}` (generate|extend|info|verify|upgrade|bench-load)"
        )
        .into()),
    }
}

fn tables_generate(opts: &Opts) -> CliResult {
    opts.reject_unknown(&[
        "out", "n", "k", "model", "budget", "threads", "resume", "format",
    ])?;
    let out = opts
        .get("out")
        .ok_or("tables generate needs --out <FILE>")?;
    let to_v5 = match opts.get("format").unwrap_or("v4") {
        "v4" => false,
        "v5" => true,
        other => return Err(format!("unknown store format `{other}` (v4|v5)").into()),
    };
    let n: usize = opts.get_parse("n", 4)?;
    let (model, budget) = tables_target(opts)?;
    let gen = gen_options(opts)?;
    let path = PathBuf::from(out);
    let start = Instant::now();
    // --resume: continue the store only when it actually holds completed
    // levels AND matches the requested parameters — validated *before*
    // any extension work mutates the file. A header-only store (killed
    // before the first level checkpointed) or an unreadable file left by
    // a dead run restarts from scratch, which is what --resume promises.
    let resumable = if opts.has("resume") && path.exists() {
        match SearchTables::peek(&path) {
            Ok(info) if !info.levels.is_empty() => {
                if info.wires != n {
                    return Err(format!(
                        "{} holds {}-wire tables, but --n {n} was requested",
                        path.display(),
                        info.wires
                    )
                    .into());
                }
                if info.model != model {
                    return Err(format!(
                        "{} holds {:?} tables, but --model asked for {:?}",
                        path.display(),
                        info.model,
                        model
                    )
                    .into());
                }
                true
            }
            _ => {
                eprintln!(
                    "{} has no completed levels; restarting from scratch",
                    path.display()
                );
                false
            }
        }
    } else {
        false
    };
    let kernel = revsynth_bfs::symmetries(n).kernel();
    let tables = if resumable {
        eprintln!(
            "resuming {} toward cost {budget} (kernel: {kernel}) ...",
            path.display()
        );
        SearchTables::resume_checkpointed(&path, budget, &gen)?
    } else {
        eprintln!(
            "generating checkpointed tables (n = {n}, model {:?}, cost ≤ {budget}, \
             kernel: {kernel}) ...",
            model
        );
        SearchTables::generate_checkpointed(
            revsynth_circuit::GateLib::nct(n),
            model,
            budget,
            &gen,
            &path,
        )?
    };
    if to_v5 && tables.source_format() != Some(5) {
        // Generation checkpoints through v4 (extendable in place);
        // --format v5 finishes by atomically replacing that file with the
        // v5 store of the tables still in RAM. A resumed v5 store was
        // already rewritten as v5.
        eprintln!("writing {} as store format v5 ...", path.display());
        tables.replace_with_v5(&path)?;
    }
    print_store_summary(&tables, out, start.elapsed());
    println!("digest   : {:#018x}", revsynth_bfs::file_digest(&path)?);
    Ok(())
}

fn tables_extend(opts: &Opts) -> CliResult {
    // No --model: the store names its own.
    opts.reject_unknown(&["store", "k", "budget", "threads"])?;
    let store = opts
        .get("store")
        .ok_or("tables extend needs --store <FILE>")?;
    let budget: u64 = match (opts.get("k"), opts.get("budget")) {
        (Some(k), None) => k.parse()?,
        (None, Some(b)) => b.parse()?,
        _ => return Err("tables extend needs exactly one of --k (unit) or --budget".into()),
    };
    let gen = gen_options(opts)?;
    let start = Instant::now();
    let tables = SearchTables::resume_checkpointed(store, budget, &gen)?;
    print_store_summary(&tables, store, start.elapsed());
    println!("digest   : {:#018x}", revsynth_bfs::file_digest(store)?);
    Ok(())
}

fn tables_info(opts: &Opts) -> CliResult {
    opts.reject_unknown(&["store", "json"])?;
    let store = opts
        .get("store")
        .ok_or("tables info needs --store <FILE>")?;
    let info = SearchTables::peek(store)?;
    let torn = info.file_len.saturating_sub(info.payload_end);
    if opts.has("json") {
        let levels: Vec<String> = info
            .levels
            .iter()
            .map(|l| format!("{{\"cost\": {}, \"classes\": {}}}", l.cost, l.classes))
            .collect();
        println!(
            "{{\"version\": {}, \"wires\": {}, \"levels_complete\": {}, \
             \"total_classes\": {}, \"payload_end\": {}, \"file_len\": {}, \
             \"torn_tail_bytes\": {}, \"levels\": [{}]}}",
            info.version,
            info.wires,
            info.levels.len(),
            info.total_classes(),
            info.payload_end,
            info.file_len,
            torn,
            levels.join(", ")
        );
        return Ok(());
    }
    println!("store    : {store} (format v{})", info.version);
    println!("wires    : {}", info.wires);
    println!("model    : {:?}", info.model);
    println!("levels   : {} completed", info.levels.len());
    for (i, level) in info.levels.iter().enumerate() {
        println!(
            "  level {i:>2}: cost {:>3}, {:>12} classes",
            level.cost, level.classes
        );
    }
    println!("classes  : {}", info.total_classes());
    if torn > 0 {
        println!("torn tail: {torn} bytes past the checkpoint (in-flight level; resume drops it)");
    }
    if info.version < 5 {
        println!(
            "hint     : `revsynth tables upgrade --store {store}` converts to \
             format v5 (zero-copy mmap, millisecond loads)"
        );
    }
    Ok(())
}

fn tables_verify(opts: &Opts) -> CliResult {
    opts.reject_unknown(&["store", "expect-digest"])?;
    let store = opts
        .get("store")
        .ok_or("tables verify needs --store <FILE>")?;
    let start = Instant::now();
    let tables = SearchTables::load_validated(store)?;
    let digest = revsynth_bfs::file_digest(store)?;
    println!(
        "verified : {store} (format {}, {} levels, {} classes, model {:?}) in {:.2?}",
        tables
            .source_format()
            .map_or_else(|| "?".into(), |v| format!("v{v}")),
        tables.levels().len(),
        tables.num_representatives(),
        tables.model(),
        start.elapsed()
    );
    println!("digest   : {digest:#018x}");
    println!("content  : {:#018x}", tables.content_digest());
    if let Some(expected) = opts.get("expect-digest") {
        let expected = expected.trim_start_matches("0x");
        let want = u64::from_str_radix(expected, 16)
            .map_err(|_| format!("--expect-digest `{expected}` is not a hex digest"))?;
        if digest != want {
            return Err(format!(
                "digest mismatch for {store}: got {digest:#018x}, expected {want:#018x}"
            )
            .into());
        }
        println!("matches  : expected digest");
    }
    Ok(())
}

/// `tables upgrade --store FILE` — convert any store to format v5 in
/// place (fully validates first; atomic rename, so a crash leaves either
/// the old or the new file intact).
fn tables_upgrade(opts: &Opts) -> CliResult {
    opts.reject_unknown(&["store"])?;
    let store = opts
        .get("store")
        .ok_or("tables upgrade needs --store <FILE>")?;
    let before = SearchTables::peek(store)?;
    let start = Instant::now();
    SearchTables::upgrade(store)?;
    let tables = SearchTables::load(store)?;
    println!(
        "upgraded : {store} (v{} -> v5) in {:.2?}",
        before.version,
        start.elapsed()
    );
    println!("classes  : {}", tables.num_representatives());
    println!("content  : {:#018x}", tables.content_digest());
    println!("digest   : {:#018x}", revsynth_bfs::file_digest(store)?);
    Ok(())
}

/// `tables bench-load --store FILE` — time a full load and report it as
/// one JSON object (the CI gate greps `load_ms`).
fn tables_bench_load(opts: &Opts) -> CliResult {
    opts.reject_unknown(&["store"])?;
    let store = opts
        .get("store")
        .ok_or("tables bench-load needs --store <FILE>")?;
    let start = Instant::now();
    let tables = SearchTables::load(store)?;
    let elapsed = start.elapsed();
    println!(
        "{{\"store\": \"{store}\", \"format\": {}, \"load_ms\": {}, \
         \"classes\": {}, \"levels\": {}}}",
        tables.source_format().unwrap_or(0),
        elapsed.as_millis(),
        tables.num_representatives(),
        tables.levels().len()
    );
    Ok(())
}

fn parse_spec(spec: &str) -> Result<Perm, Box<dyn Error>> {
    let vals: Result<Vec<u8>, _> = spec.split(',').map(|s| s.trim().parse::<u8>()).collect();
    Ok(Perm::from_values(&vals?)?)
}

fn cmd_synth(opts: &Opts) -> CliResult {
    opts.reject_unknown(&[
        "spec",
        "k",
        "n",
        "tables",
        "threads",
        "cost",
        "cost-budget",
        "no-filter",
        "probe-depth",
        "verbose",
    ])?;
    let spec = opts
        .get("spec")
        .ok_or("synth needs --spec 0,1,2,...,15 (a permutation value list)")?;
    let f = parse_spec(spec)?;
    let kind = cost_kind(opts)?;
    let search = search_options(opts)?.cost_model(kind);
    let synth = cost_synthesizer(opts, kind, 6)?;
    let start = Instant::now();
    let result = match &synth {
        CostEngine::Mitm(s) => s.synthesize_with(f, &search)?,
        CostEngine::Depth(suite) => suite.synthesize(f, CostKind::Depth)?,
    };
    let elapsed = start.elapsed();
    println!("function : {f}");
    println!(
        "cost     : {} {} (provably minimal)",
        result.cost,
        cost_unit(kind)
    );
    println!("size     : {} gates", result.circuit.len());
    println!("depth    : {}", result.circuit.depth());
    println!("circuit  : {}", result.circuit);
    println!(
        "runtime  : {elapsed:.2?} ({} lists scanned, {} candidates tested, {} threads)",
        result.lists_scanned,
        result.candidates_tested,
        search.effective_threads()
    );
    print_selectivity(opts, &search, &result.stats);
    Ok(())
}

/// The engine behind `--cost`: the batched meet-in-the-middle
/// synthesizer (gates or quantum tables), or the depth suite.
enum CostEngine {
    Mitm(Box<Synthesizer>),
    Depth(Box<SynthesisSuite>),
}

/// The human-readable unit of a cost value.
fn cost_unit(kind: CostKind) -> &'static str {
    match kind {
        CostKind::Gates => "gates",
        CostKind::Quantum => "quantum cost",
        CostKind::Depth => "time steps",
    }
}

/// Builds the engine for the selected cost model. Gates reuses the
/// standard tables (`--k`/`--tables`); quantum loads `--tables` (which
/// must be a quantum-cost store — formats v4 and v5 round-trip the model) or
/// generates cost-bucketed tables to `--cost-budget` (default 13);
/// depth generates the layer tables to `--cost-budget` layers (default
/// 3). Flags meaningless under the selected model are rejected instead
/// of silently ignored.
fn cost_synthesizer(
    opts: &Opts,
    kind: CostKind,
    default_k: usize,
) -> Result<CostEngine, Box<dyn Error>> {
    match kind {
        CostKind::Gates => {
            if opts.get("cost-budget").is_some() {
                return Err("--cost-budget applies to --cost quantum|depth; \
                     use --k for gate-count tables"
                    .into());
            }
            Ok(CostEngine::Mitm(Box::new(Synthesizer::new(tables_from(
                opts, default_k,
            )?))))
        }
        CostKind::Quantum => {
            if opts.get("k").is_some() {
                return Err(
                    "--k sizes gate-count tables; use --cost-budget with --cost quantum".into(),
                );
            }
            if let Some(path) = opts.get("tables") {
                eprintln!("loading quantum-cost tables from {path} ...");
                let tables = SearchTables::load(path)?;
                if *tables.model() != revsynth_circuit::CostModel::quantum() {
                    return Err(format!(
                        "{path} holds {:?} tables, not quantum-cost ones",
                        tables.model()
                    )
                    .into());
                }
                eprintln!(
                    "  {} classes (reach {})",
                    tables.num_representatives(),
                    tables.cost_reach()
                );
                return Ok(CostEngine::Mitm(Box::new(Synthesizer::new(tables))));
            }
            let n: usize = opts.get_parse("n", 4usize)?;
            let budget: u64 = opts.get_parse("cost-budget", 13u64)?;
            eprintln!("generating quantum-cost tables (n = {n}, budget {budget}) ...");
            let start = Instant::now();
            let tables = SearchTables::generate_weighted(
                revsynth_circuit::GateLib::nct(n),
                revsynth_circuit::CostModel::quantum(),
                budget,
            );
            eprintln!(
                "  {} classes (reach {}) in {:.2?}",
                tables.num_representatives(),
                tables.cost_reach(),
                start.elapsed()
            );
            Ok(CostEngine::Mitm(Box::new(Synthesizer::new(tables))))
        }
        CostKind::Depth => {
            if opts.get("k").is_some() || opts.get("tables").is_some() {
                return Err("--cost depth generates its own layer tables; \
                     --k/--tables do not apply (use --cost-budget for the layer budget)"
                    .into());
            }
            let n: usize = opts.get_parse("n", 4usize)?;
            let budget: usize = opts.get_parse("cost-budget", 3usize)?;
            eprintln!("generating depth tables (n = {n}, {budget} layers) ...");
            // A k=1 gate table keeps suite construction trivial; only
            // the depth engine is exercised.
            let suite = SynthesisSuite::new(
                Synthesizer::from_scratch(n, 1),
                SuiteConfig {
                    depth_budget: budget,
                    ..SuiteConfig::default()
                },
            );
            Ok(CostEngine::Depth(Box::new(suite)))
        }
    }
}

fn cmd_benchmarks(opts: &Opts) -> CliResult {
    opts.reject_unknown(&["k", "tables"])?;
    let synth = Synthesizer::new(tables_from(opts, 6)?);
    println!(
        "{:<10} {:>5} {:>4} {:>5} {:>12}  circuit",
        "name", "SBKC", "SOC", "ours", "time"
    );
    for b in benchmarks() {
        let sbkc = b
            .best_known_size
            .map_or("N/A".to_owned(), |s| s.to_string());
        if b.optimal_size > synth.max_size() {
            println!(
                "{:<10} {:>5} {:>4}     -            -  (needs k ≥ {})",
                b.name,
                sbkc,
                b.optimal_size,
                b.optimal_size.div_ceil(2)
            );
            continue;
        }
        let start = Instant::now();
        let c = synth.synthesize(b.perm())?;
        println!(
            "{:<10} {:>5} {:>4} {:>5} {:>11.1?}  {}",
            b.name,
            sbkc,
            b.optimal_size,
            c.len(),
            start.elapsed(),
            c
        );
    }
    Ok(())
}

fn cmd_random(opts: &Opts) -> CliResult {
    opts.reject_unknown(&[
        "samples",
        "k",
        "n",
        "seed",
        "tables",
        "threads",
        "cost",
        "cost-budget",
        "no-filter",
        "probe-depth",
        "verbose",
    ])?;
    let samples: usize = opts.get_parse("samples", 25)?;
    let seed: u64 = opts.get_parse("seed", 2010)?;
    let kind = cost_kind(opts)?;
    if kind != CostKind::Gates {
        return random_cost_distribution(opts, kind, samples, seed);
    }
    if opts.get("cost-budget").is_some() {
        return Err("--cost-budget applies to --cost quantum|depth;              use --k for gate-count tables"
            .into());
    }
    let synth = Synthesizer::new(tables_from(opts, 6)?);
    let search = search_options(opts)?;
    let start = Instant::now();
    let (dist, stats) = sample_distribution_stats(&synth, samples, seed, &search)?;
    println!(
        "{samples} random permutations in {:.2?} (seed {seed}, {} threads)",
        start.elapsed(),
        search.effective_threads()
    );
    print_selectivity(opts, &search, &stats);
    println!("{:>4} {:>10} {:>9}", "size", "count", "fraction");
    for (size, count) in dist.iter() {
        println!("{size:>4} {count:>10} {:>9.4}", dist.fraction(size));
    }
    if dist.unresolved() > 0 {
        println!(
            ">{:>3} {:>10}  (beyond the k-table search bound)",
            synth.max_size(),
            dist.unresolved()
        );
    }
    println!(
        "weighted average: {:.2} gates (paper: 11.94)",
        dist.weighted_average()
    );
    Ok(())
}

/// `random --cost quantum|depth`: a per-model cost histogram of random
/// permutations through the selected engine's batched entry point.
fn random_cost_distribution(opts: &Opts, kind: CostKind, samples: usize, seed: u64) -> CliResult {
    use revsynth_analysis::SplitMix64;
    let n: usize = opts.get_parse("n", 4usize)?;
    let engine = cost_synthesizer(opts, kind, 6)?;
    let search = search_options(opts)?.cost_model(kind);
    let mut rng = SplitMix64::new(seed);
    let fs: Vec<revsynth_perm::Perm> = (0..samples)
        .map(|_| revsynth_analysis::random_perm(n, &mut rng))
        .collect();
    let start = Instant::now();
    let results = match &engine {
        CostEngine::Mitm(s) => s.synthesize_many(&fs, &search),
        CostEngine::Depth(suite) => suite.synthesize_many(&fs, &search),
    };
    let mut dist: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
    let mut unresolved = 0u64;
    for result in &results {
        match result {
            Ok(syn) => *dist.entry(syn.cost).or_default() += 1,
            Err(_) => unresolved += 1,
        }
    }
    println!(
        "{samples} random permutations in {:.2?} (seed {seed}, model {kind})",
        start.elapsed()
    );
    println!("{:>6} {:>10} {:>9}", "cost", "count", "fraction");
    for (&cost, &count) in &dist {
        println!(
            "{cost:>6} {count:>10} {:>9.4}",
            count as f64 / samples as f64
        );
    }
    if unresolved > 0 {
        println!(
            "beyond {:>10}  (past the engine's reach; raise --cost-budget)",
            unresolved
        );
    }
    Ok(())
}

fn cmd_linear(opts: &Opts) -> CliResult {
    opts.reject_unknown(&[])?;
    let start = Instant::now();
    let hist = linear_only_distribution();
    println!(
        "all 322,560 linear reversible functions in {:.2?}",
        start.elapsed()
    );
    println!("{:>4} {:>10} {:>10}", "size", "ours", "paper");
    for (s, &count) in hist.iter().enumerate() {
        println!(
            "{s:>4} {count:>10} {:>10}",
            PAPER_TABLE5.get(s).copied().unwrap_or(0)
        );
    }
    Ok(())
}

fn cmd_hard(opts: &Opts) -> CliResult {
    opts.reject_unknown(&["seconds", "k", "n", "seed", "tables"])?;
    let seconds: u64 = opts.get_parse("seconds", 10)?;
    let seed: u64 = opts.get_parse("seed", 45)?;
    let synth = Synthesizer::new(tables_from(opts, 6)?);
    let outcome = HardSearch {
        budget: std::time::Duration::from_secs(seconds),
        seed,
        ..HardSearch::default()
    }
    .run(&synth);
    println!(
        "hardest found: size {} (witness {})",
        outcome.max_size, outcome.witness
    );
    println!(
        "measured {} candidates, {} beyond the size-{} bound",
        outcome.examined,
        outcome.unresolved,
        synth.max_size()
    );
    Ok(())
}

fn cmd_peephole(opts: &Opts) -> CliResult {
    opts.reject_unknown(&["circuit", "k", "window", "tables"])?;
    let text = opts
        .get("circuit")
        .ok_or("peephole needs --circuit \"NOT(a) CNOT(a,b) ...\"")?;
    let circuit: revsynth_circuit::Circuit = text.parse()?;
    let synth = Synthesizer::new(tables_from(opts, 4)?);
    let optimizer = match opts.get("window") {
        Some(w) => revsynth_core::PeepholeOptimizer::with_window(&synth, w.parse()?),
        None => revsynth_core::PeepholeOptimizer::new(&synth),
    };
    let start = Instant::now();
    let (out, before, after) = optimizer.optimize_with_stats(&circuit)?;
    println!("input   : {before} gates");
    println!("output  : {after} gates (saved {})", before - after);
    println!("circuit : {out}");
    println!(
        "runtime : {:.2?} (window {})",
        start.elapsed(),
        optimizer.window()
    );
    Ok(())
}

/// Default service port (rev-synth on a phone keypad, more or less).
const DEFAULT_PORT: u16 = 7878;

fn server_addr(opts: &Opts) -> Result<std::net::SocketAddr, Box<dyn Error>> {
    let port: u16 = opts.get_parse("port", DEFAULT_PORT)?;
    Ok(std::net::SocketAddr::from((
        std::net::Ipv4Addr::LOCALHOST,
        port,
    )))
}

fn cmd_serve(opts: &Opts) -> CliResult {
    opts.reject_unknown(&[
        "port",
        "cores",
        "portable-poll",
        "workers",
        "cache-capacity",
        "linger-ms",
        "k",
        "n",
        "tables",
        "threads",
        "quantum-budget",
        "depth-budget",
        "max-queue",
        "max-conns",
        "retry-after-ms",
        "snapshot",
        "snapshot-interval-secs",
        "slow-query-us",
        "fault-search-delay-ms",
        "fault-fail-every",
        "fault-panic-every",
        "fault-snapshot-delay-ms",
        "fault-seed",
    ])?;
    let fault_delay_ms: u64 = opts.get_parse("fault-search-delay-ms", 0)?;
    let fault_fail_every: u64 = opts.get_parse("fault-fail-every", 0)?;
    let fault_panic_every: u64 = opts.get_parse("fault-panic-every", 0)?;
    let fault_snapshot_delay_ms: u64 = opts.get_parse("fault-snapshot-delay-ms", 0)?;
    let faults = if fault_delay_ms > 0
        || fault_fail_every > 0
        || fault_panic_every > 0
        || fault_snapshot_delay_ms > 0
    {
        Some(std::sync::Arc::new(
            revsynth_serve::FaultPlan::new(opts.get_parse("fault-seed", 0)?)
                .with_search_delay(std::time::Duration::from_millis(fault_delay_ms))
                .with_fail_every(fault_fail_every)
                .with_panic_every(fault_panic_every)
                .with_snapshot_delay(std::time::Duration::from_millis(fault_snapshot_delay_ms)),
        ))
    } else {
        None
    };
    let snapshot_interval_secs: u64 = opts.get_parse("snapshot-interval-secs", 0)?;
    // --cores N pins that many event loops; `auto` asks the OS.
    let cores = match opts.get("cores") {
        None => 1,
        Some("auto") => std::thread::available_parallelism()?.get(),
        Some(v) => match v.parse::<usize>() {
            Ok(0) => return Err("--cores must be at least 1 (or `auto`)".into()),
            Ok(n) => n,
            Err(_) => return Err(format!("--cores takes a number or `auto`, got `{v}`").into()),
        },
    };
    let config = revsynth_serve::ServeConfig {
        port: opts.get_parse("port", DEFAULT_PORT)?,
        cores,
        portable_poll: opts.has("portable-poll"),
        workers: opts.get_parse("workers", 1)?,
        cache_capacity: opts.get_parse("cache-capacity", 1usize << 16)?,
        search: SearchOptions::new().threads(opts.get_parse("threads", 1)?),
        batch_linger: std::time::Duration::from_millis(opts.get_parse("linger-ms", 0u64)?),
        max_queue: opts.get_parse("max-queue", 0usize)?,
        max_conns: opts.get_parse("max-conns", 0usize)?,
        retry_after_ms: opts.get_parse("retry-after-ms", 100u32)?,
        faults,
        snapshot: opts.get("snapshot").map(std::path::PathBuf::from),
        snapshot_interval: (snapshot_interval_secs > 0)
            .then(|| std::time::Duration::from_secs(snapshot_interval_secs)),
        slow_query_us: opts.get_parse("slow-query-us", 0u64)?,
        instrumentation: true,
    };
    if config.snapshot.is_none() && config.snapshot_interval.is_some() {
        return Err("--snapshot-interval-secs needs --snapshot".into());
    }
    if config.workers == 0 {
        return Err("--workers must be at least 1".into());
    }
    if config.cache_capacity == 0 {
        return Err("--cache-capacity must be at least 1".into());
    }
    let suite_config = SuiteConfig {
        quantum_budget: opts.get_parse("quantum-budget", 13u64)?,
        depth_budget: opts.get_parse("depth-budget", 3usize)?,
    };
    let synth = Synthesizer::new(tables_from(opts, 4)?);
    let wires = synth.wires();
    let max_size = synth.max_size();
    let kernel = synth.tables().sym().kernel();
    let suite = std::sync::Arc::new(SynthesisSuite::new(synth, suite_config));
    let server = revsynth_serve::Server::bind(suite, &config)?;
    if let Some(path) = config.snapshot.as_deref() {
        let summary = server.restore_summary();
        if let Some(quarantine) = summary.quarantined.as_deref() {
            println!(
                "snapshot {} unreadable ({}); quarantined to {}, booting cold",
                path.display(),
                summary
                    .quarantine_reason
                    .as_deref()
                    .unwrap_or("unknown reason"),
                quarantine.display()
            );
        } else {
            println!(
                "snapshot {}: restored {} classes, skipped {} corrupt records{}",
                path.display(),
                summary.restored,
                summary.skipped,
                match config.snapshot_interval {
                    Some(every) => format!("; re-snapshotting every {} s", every.as_secs()),
                    None => "; snapshotting at shutdown".to_owned(),
                }
            );
        }
    }
    println!("listening on {}", server.local_addr());
    if config.max_queue > 0 || config.max_conns > 0 || config.faults.is_some() {
        println!(
            "overload control: max-queue {}, max-conns {}, retry-after {} ms{}",
            config.max_queue,
            config.max_conns,
            config.retry_after_ms,
            if config.faults.is_some() {
                " (fault injection ACTIVE)"
            } else {
                ""
            }
        );
    }
    println!(
        "serving n = {wires} functions up to {max_size} gates \
         ({} event-loop core{}, {} scheduler workers, {}-class cache; \
         quantum/depth engines lazy at budgets {}/{}; kernel: {})",
        config.cores,
        if config.cores == 1 { "" } else { "s" },
        config.workers,
        config.cache_capacity,
        suite_config.quantum_budget,
        suite_config.depth_budget,
        kernel
    );
    let stats = server.run()?;
    println!("final stats: {}", stats.to_json());
    Ok(())
}

fn cmd_query(opts: &Opts) -> CliResult {
    opts.reject_unknown(&[
        "port",
        "spec",
        "cost",
        "deadline-ms",
        "json",
        "stats",
        "health",
        "metrics",
        "slow",
        "traces",
        "shutdown",
    ])?;
    let addr = server_addr(opts)?;
    // Parse before connecting so a bad value fails cleanly even on the
    // stats/shutdown paths (which never send a deadline).
    let deadline_ms: Option<u32> = opts.get("deadline-ms").map(str::parse).transpose()?;
    let mut client = revsynth_serve::Client::connect(addr)?;
    if opts.has("shutdown") {
        client.shutdown_server()?;
        println!("server at {addr} is shutting down");
        return Ok(());
    }
    if opts.has("health") {
        let health = client.health()?;
        if opts.has("json") {
            println!("{}", health.to_json());
        } else {
            println!("uptime        : {} ms", health.uptime_ms);
            println!("restored      : {} classes from snapshot", health.restored);
            println!("live workers  : {}", health.live_workers);
            match health.snapshot_age() {
                Some(age) => println!("snapshot age  : {} ms", age),
                None => println!("snapshot age  : none written yet"),
            }
        }
        return Ok(());
    }
    if opts.has("metrics") {
        // The exposition is already line-oriented text; print verbatim
        // so `query --metrics > metrics.txt` is a valid scrape.
        print!("{}", client.metrics()?);
        return Ok(());
    }
    if opts.has("slow") {
        // Slow-query traces arrive as a JSON array either way; --json
        // just names the format explicitly.
        println!("{}", client.slow_queries()?);
        return Ok(());
    }
    if opts.has("traces") {
        println!("{}", client.traces()?);
        return Ok(());
    }
    if let Some(spec) = opts.get("spec") {
        let f = parse_spec(spec)?;
        let kind = cost_kind(opts)?;
        let start = Instant::now();
        let query_opts = revsynth_serve::QueryOptions {
            cost_model: kind,
            deadline_ms,
            retry: None,
        };
        let circuit = client.query_opts(f, &query_opts)?;
        let elapsed = start.elapsed();
        let cost = kind.measure(&circuit);
        if opts.has("json") {
            println!(
                "{{\"function\": \"{f}\", \"cost_model\": \"{kind}\", \"cost\": {cost}, \
                 \"size\": {}, \"depth\": {}, \
                 \"circuit\": \"{circuit}\", \"round_trip_us\": {}}}",
                circuit.len(),
                circuit.depth(),
                elapsed.as_micros()
            );
        } else {
            println!("function : {f}");
            println!("cost     : {cost} {} (provably minimal)", cost_unit(kind));
            println!("size     : {} gates", circuit.len());
            println!("depth    : {}", circuit.depth());
            println!("circuit  : {circuit}");
            println!("round    : {elapsed:.2?}");
        }
        return Ok(());
    }
    // No --spec: fetch the stats snapshot (--stats makes it explicit).
    let stats = client.stats()?;
    if opts.has("json") {
        println!("{}", stats.to_json());
    } else {
        println!("requests      : {}", stats.requests);
        println!(
            "cache         : {} hits / {} misses ({:.1}% hit rate), {}/{} classes, {} evictions",
            stats.cache_hits,
            stats.cache_misses,
            stats.hit_rate() * 100.0,
            stats.cached_classes,
            stats.cache_capacity,
            stats.evictions
        );
        println!(
            "scheduler     : {} searches in {} batches (max batch {}), {} coalesced",
            stats.searches, stats.batches, stats.max_batch, stats.coalesced
        );
        println!("errors        : {}", stats.errors);
        println!(
            "overload      : {} shed, {} expired, {} connections refused",
            stats.shed, stats.expired, stats.shed_conns
        );
        println!(
            "persistence   : {} restored, {} snapshots written, {} records skipped, \
             {} worker restarts",
            stats.restored, stats.snapshot_writes, stats.snapshot_skipped, stats.worker_restarts
        );
        println!(
            "latency       : p50 {} µs, p99 {} µs",
            stats.p50_latency_us, stats.p99_latency_us
        );
    }
    Ok(())
}

fn cmd_loadgen(opts: &Opts) -> CliResult {
    opts.reject_unknown(&[
        "port",
        "clients",
        "requests",
        "pool",
        "max-len",
        "seed",
        "quick",
        "expect-coalesced",
        "overload",
        "expect-shed",
        "restart",
        "expect-warm",
        "deadline-ms",
        "json",
    ])?;
    let addr = server_addr(opts)?;
    let seed: u64 = opts.get_parse("seed", 2010)?;
    if opts.has("overload") && opts.has("restart") {
        return Err("--overload and --restart are mutually exclusive".into());
    }
    if opts.has("overload") {
        return cmd_loadgen_overload(opts, addr, seed);
    }
    if opts.has("restart") {
        return cmd_loadgen_restart(opts, addr, seed);
    }
    if opts.has("expect-shed") || opts.get("deadline-ms").is_some() {
        return Err("--expect-shed/--deadline-ms only apply with --overload".into());
    }
    if opts.has("expect-warm") {
        return Err("--expect-warm only applies with --restart".into());
    }
    let defaults = if opts.has("quick") {
        revsynth_serve::loadgen::LoadgenConfig::quick(seed)
    } else {
        revsynth_serve::loadgen::LoadgenConfig {
            seed,
            ..revsynth_serve::loadgen::LoadgenConfig::default()
        }
    };
    let config = revsynth_serve::loadgen::LoadgenConfig {
        clients: opts.get_parse("clients", defaults.clients)?,
        requests_per_client: opts.get_parse("requests", defaults.requests_per_client)?,
        pool: opts.get_parse("pool", defaults.pool)?,
        max_len: opts.get_parse("max-len", defaults.max_len)?,
        seed,
    };
    // Ask the server for its wire count so the pool is built on the
    // right domain (a 4-wire pool against an n = 3 server would be
    // rejected wholesale).
    let wires = usize::try_from(revsynth_serve::Client::connect(addr)?.stats()?.wires)
        .map_err(|_| "server reported a nonsense wire count")?;
    if !(2..=4).contains(&wires) {
        return Err(format!("server reported unsupported wire count {wires}").into());
    }
    let report = revsynth_serve::loadgen::run(addr, wires, &config)?;
    if opts.has("json") {
        println!(
            "{{\"successes\": {}, \"errors\": {}, \"seconds\": {:.6}, \
             \"throughput_qps\": {:.1}, \"coalesced\": {}, \"stats\": {}}}",
            report.successes,
            report.errors,
            report.seconds,
            report.throughput(),
            report.coalesced,
            report.stats.to_json()
        );
    } else {
        println!(
            "{} requests ({} clients × {} + {} rendezvous rounds) in {:.2?}: \
             {} ok, {} errors, {:.1} q/s",
            report.successes + report.errors,
            config.clients,
            config.requests_per_client,
            config.pool,
            std::time::Duration::from_secs_f64(report.seconds),
            report.successes,
            report.errors,
            report.throughput()
        );
        println!("server stats: {}", report.stats.to_json());
    }
    if report.errors > 0 {
        return Err(format!("{} of the load requests failed", report.errors).into());
    }
    if opts.has("expect-coalesced") && report.coalesced == 0 {
        return Err("expected at least one coalesced request, saw none".into());
    }
    Ok(())
}

/// The `loadgen --overload` saturation phase: burst cold classes at a
/// bounded-queue server, demand warm traffic stays served, reconcile
/// every shed/expiry counter against what the clients observed.
fn cmd_loadgen_overload(opts: &Opts, addr: std::net::SocketAddr, seed: u64) -> CliResult {
    let defaults = revsynth_serve::loadgen::OverloadConfig::default();
    let config = revsynth_serve::loadgen::OverloadConfig {
        clients: opts.get_parse("clients", defaults.clients)?,
        per_client: opts.get_parse("requests", defaults.per_client)?,
        deadline_ms: Some(opts.get_parse("deadline-ms", 50u32)?),
        max_len: opts.get_parse("max-len", defaults.max_len)?,
        seed,
        ..defaults
    };
    let wires = usize::try_from(revsynth_serve::Client::connect(addr)?.stats()?.wires)
        .map_err(|_| "server reported a nonsense wire count")?;
    if !(2..=4).contains(&wires) {
        return Err(format!("server reported unsupported wire count {wires}").into());
    }
    let report = revsynth_serve::loadgen::run_overload(addr, wires, &config)?;
    if opts.has("json") {
        println!(
            "{{\"warm_hits\": {}, \"warm_failures\": {}, \"cold_successes\": {}, \
             \"overloaded\": {}, \"expired\": {}, \"injected_failures\": {}, \
             \"other_errors\": {}, \"recovered\": {}, \"seconds\": {:.6}, \
             \"stats\": {}}}",
            report.warm_hits,
            report.warm_failures,
            report.cold_successes,
            report.overloaded,
            report.expired,
            report.injected_failures,
            report.other_errors,
            report.recovered,
            report.seconds,
            report.stats.to_json()
        );
    } else {
        println!(
            "overload burst ({} clients × {} cold classes, {} warm queries) in {:.2?}",
            config.clients,
            config.per_client,
            report.warm_hits + report.warm_failures,
            std::time::Duration::from_secs_f64(report.seconds),
        );
        println!(
            "  cold: {} served, {} shed, {} expired, {} injected failures, {} other",
            report.cold_successes,
            report.overloaded,
            report.expired,
            report.injected_failures,
            report.other_errors
        );
        println!(
            "  warm: {}/{} cache hits served during saturation",
            report.warm_hits,
            report.warm_hits + report.warm_failures
        );
        println!(
            "  recovery via retry/backoff: {}",
            if report.recovered { "ok" } else { "FAILED" }
        );
        println!("server stats: {}", report.stats.to_json());
    }
    report.verify(opts.has("expect-shed"))?;
    println!("overload counters reconcile exactly");
    Ok(())
}

/// The `loadgen --restart` warm-restart phase: replay the seed's
/// deterministic working set against a restarted server and verify it —
/// with `--expect-warm`, demand a restored snapshot answered everything
/// with zero new searches.
fn cmd_loadgen_restart(opts: &Opts, addr: std::net::SocketAddr, seed: u64) -> CliResult {
    let defaults = if opts.has("quick") {
        revsynth_serve::loadgen::LoadgenConfig::quick(seed)
    } else {
        revsynth_serve::loadgen::LoadgenConfig {
            seed,
            ..revsynth_serve::loadgen::LoadgenConfig::default()
        }
    };
    let config = revsynth_serve::loadgen::LoadgenConfig {
        clients: opts.get_parse("clients", defaults.clients)?,
        requests_per_client: opts.get_parse("requests", defaults.requests_per_client)?,
        pool: opts.get_parse("pool", defaults.pool)?,
        max_len: opts.get_parse("max-len", defaults.max_len)?,
        seed,
    };
    let wires = usize::try_from(revsynth_serve::Client::connect(addr)?.stats()?.wires)
        .map_err(|_| "server reported a nonsense wire count")?;
    if !(2..=4).contains(&wires) {
        return Err(format!("server reported unsupported wire count {wires}").into());
    }
    let report = revsynth_serve::loadgen::run_restart(addr, wires, &config)?;
    if opts.has("json") {
        println!(
            "{{\"successes\": {}, \"errors\": {}, \"searches_delta\": {}, \
             \"restored\": {}, \"snapshot_skipped\": {}, \"seconds\": {:.6}, \
             \"health\": {}, \"stats\": {}}}",
            report.successes,
            report.errors,
            report.searches_delta,
            report.restored,
            report.snapshot_skipped,
            report.seconds,
            report.health.to_json(),
            report.stats.to_json()
        );
    } else {
        println!(
            "restart replay ({} working-set queries) in {:.2?}: {} ok, {} errors, \
             {} new searches",
            report.successes + report.errors,
            std::time::Duration::from_secs_f64(report.seconds),
            report.successes,
            report.errors,
            report.searches_delta
        );
        println!(
            "  restored {} classes ({} records skipped), {} live workers",
            report.restored, report.snapshot_skipped, report.health.live_workers
        );
        println!("server stats: {}", report.stats.to_json());
    }
    report.verify(opts.has("expect-warm"))?;
    println!(
        "restart verified{}",
        if opts.has("expect-warm") {
            ": warm, zero new searches"
        } else {
            ""
        }
    );
    Ok(())
}

fn cmd_stats(opts: &Opts) -> CliResult {
    opts.reject_unknown(&["k", "n"])?;
    let k: usize = opts.get_parse("k", 6)?;
    let n: usize = opts.get_parse("n", 4)?;
    let tables = SearchTables::generate(n, k);
    let stats = tables.table_stats();
    println!("k = {k}, n = {n}");
    println!("entries            : {}", stats.entries);
    println!("slots              : 2^{}", stats.capacity.trailing_zeros());
    println!("memory             : {}", stats.memory_display());
    println!("load factor        : {:.2}", stats.load_factor);
    println!("avg chain length   : {:.2}", stats.avg_cluster_len);
    println!("max chain length   : {}", stats.max_cluster_len);
    println!("avg displacement   : {:.2}", stats.avg_displacement);
    println!("max displacement   : {}", stats.max_displacement);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(args: &[&str]) -> Opts {
        Opts::parse(&args.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>()).expect("valid flags")
    }

    #[test]
    fn opts_parse_pairs() {
        let o = opts(&["--k", "7", "--seed", "42"]);
        assert_eq!(o.get("k"), Some("7"));
        assert_eq!(o.get("seed"), Some("42"));
        assert_eq!(o.get("missing"), None);
        assert_eq!(o.get_parse("k", 0usize).unwrap(), 7);
        assert_eq!(o.get_parse("absent", 9usize).unwrap(), 9);
    }

    #[test]
    fn opts_reject_bare_arguments_and_missing_values() {
        assert!(Opts::parse(&["7".to_owned()]).is_err());
        assert!(Opts::parse(&["--k".to_owned()]).is_err());
    }

    #[test]
    fn opts_reject_unknown_flags() {
        let o = opts(&["--k", "7"]);
        assert!(o.reject_unknown(&["k"]).is_ok());
        assert!(o.reject_unknown(&["seed"]).is_err());
    }

    #[test]
    fn spec_parsing_validates() {
        assert!(parse_spec("0,1,2,3").is_ok());
        assert!(parse_spec("3,2,1,0").is_ok());
        assert!(parse_spec("0,1,2").is_err(), "bad length");
        assert!(parse_spec("0,1,2,2").is_err(), "duplicate");
        assert!(parse_spec("0,1,2,x").is_err(), "not a number");
    }

    #[test]
    fn dispatch_help_and_unknown() {
        assert!(dispatch(&[]).is_ok());
        assert!(dispatch(&["help".into()]).is_ok());
        assert!(dispatch(&["frobnicate".into()]).is_err());
        assert!(dispatch(&["synth".into()]).is_err(), "synth needs --spec");
    }

    #[test]
    fn synth_command_end_to_end() {
        // Tiny tables; exercises the whole command path.
        let args: Vec<String> = [
            "synth",
            "--spec",
            "1,0,3,2,5,4,7,6,9,8,11,10,13,12,15,14",
            "--k",
            "1",
        ]
        .iter()
        .map(|s| (*s).to_owned())
        .collect();
        assert!(dispatch(&args).is_ok());
    }

    #[test]
    fn synth_and_random_accept_threads() {
        let synth: Vec<String> = [
            "synth",
            "--spec",
            "1,0,3,2,5,4,7,6,9,8,11,10,13,12,15,14",
            "--k",
            "2",
            "--threads",
            "2",
        ]
        .iter()
        .map(|s| (*s).to_owned())
        .collect();
        assert!(dispatch(&synth).is_ok());
        let random: Vec<String> = [
            "random",
            "--samples",
            "5",
            "--k",
            "2",
            "--n",
            "3",
            "--threads",
            "2",
        ]
        .iter()
        .map(|s| (*s).to_owned())
        .collect();
        assert!(dispatch(&random).is_ok());
    }

    #[test]
    fn switches_parse_without_values() {
        let o = opts(&["--no-filter", "--k", "2", "--verbose"]);
        assert!(o.has("no-filter"));
        assert!(o.has("verbose"));
        assert!(!o.has("quiet"));
        assert_eq!(o.get("k"), Some("2"));
        assert!(o.reject_unknown(&["k", "no-filter", "verbose"]).is_ok());
        assert!(
            o.reject_unknown(&["k"]).is_err(),
            "switches are checked too"
        );
    }

    #[test]
    fn synth_and_random_accept_gate_flags() {
        let synth: Vec<String> = [
            "synth",
            "--spec",
            "1,0,3,2,5,4,7,6,9,8,11,10,13,12,15,14",
            "--k",
            "2",
            "--no-filter",
            "--probe-depth",
            "4",
            "--verbose",
        ]
        .iter()
        .map(|s| (*s).to_owned())
        .collect();
        assert!(dispatch(&synth).is_ok());
        let random: Vec<String> = [
            "random",
            "--samples",
            "5",
            "--k",
            "2",
            "--n",
            "3",
            "--probe-depth",
            "2",
            "--verbose",
        ]
        .iter()
        .map(|s| (*s).to_owned())
        .collect();
        assert!(dispatch(&random).is_ok());
    }

    #[test]
    fn gate_flags_do_not_change_results() {
        // The same spec through gated and ungated paths must succeed both
        // ways (bit-identical results are asserted in the core crate; here
        // we exercise the CLI wiring end to end).
        for extra in [&[][..], &["--no-filter"][..]] {
            let mut args: Vec<String> = [
                "synth",
                "--spec",
                "0,1,2,3,4,5,6,8,7,9,10,11,12,13,14,15",
                "--k",
                "4",
            ]
            .iter()
            .map(|s| (*s).to_owned())
            .collect();
            args.extend(extra.iter().map(|s| (*s).to_owned()));
            assert!(dispatch(&args).is_ok(), "{args:?}");
        }
    }

    #[test]
    fn synth_and_random_accept_cost_models() {
        let quantum: Vec<String> = [
            "synth",
            "--spec",
            "1,0,3,2,5,4,7,6,9,8,11,10,13,12,15,14",
            "--cost",
            "quantum",
            "--cost-budget",
            "5",
        ]
        .iter()
        .map(|s| (*s).to_owned())
        .collect();
        assert!(dispatch(&quantum).is_ok());
        let depth: Vec<String> = [
            "synth",
            "--spec",
            "1,0,3,2,5,4,7,6,9,8,11,10,13,12,15,14",
            "--cost",
            "depth",
            "--cost-budget",
            "1",
        ]
        .iter()
        .map(|s| (*s).to_owned())
        .collect();
        assert!(dispatch(&depth).is_ok());
        let random: Vec<String> = [
            "random",
            "--samples",
            "4",
            "--n",
            "3",
            "--cost",
            "quantum",
            "--cost-budget",
            "8",
            "--seed",
            "7",
        ]
        .iter()
        .map(|s| (*s).to_owned())
        .collect();
        assert!(dispatch(&random).is_ok());
        let bogus: Vec<String> = [
            "synth",
            "--spec",
            "1,0,3,2,5,4,7,6,9,8,11,10,13,12,15,14",
            "--cost",
            "florins",
        ]
        .iter()
        .map(|s| (*s).to_owned())
        .collect();
        assert!(dispatch(&bogus).is_err(), "unknown cost model rejected");
    }

    #[test]
    fn serve_cores_flag_is_validated_before_binding() {
        let to_args =
            |args: &[&str]| -> Vec<String> { args.iter().map(|s| (*s).to_owned()).collect() };
        let err = dispatch(&to_args(&["serve", "--cores", "0"])).unwrap_err();
        assert!(err.to_string().contains("--cores"), "{err}");
        let err = dispatch(&to_args(&["serve", "--cores", "many"])).unwrap_err();
        assert!(err.to_string().contains("auto"), "{err}");
    }

    #[test]
    fn serve_query_loadgen_end_to_end() {
        // Serve on an ephemeral port from a background thread, then
        // exercise query (spec, stats, json) and loadgen against it,
        // finishing with a shutdown — the CI smoke flow in miniature.
        let suite = std::sync::Arc::new(SynthesisSuite::new(
            Synthesizer::from_scratch(4, 2),
            SuiteConfig {
                quantum_budget: 6,
                depth_budget: 2,
            },
        ));
        let server = revsynth_serve::Server::bind(suite, revsynth_serve::ServeConfig::default())
            .expect("bind");
        let port = server.local_addr().port().to_string();
        let handle = server.spawn();

        let to_args =
            |args: &[&str]| -> Vec<String> { args.iter().map(|s| (*s).to_owned()).collect() };
        assert!(dispatch(&to_args(&[
            "query",
            "--port",
            &port,
            "--spec",
            "1,0,3,2,5,4,7,6,9,8,11,10,13,12,15,14",
            "--json",
        ]))
        .is_ok());
        assert!(dispatch(&to_args(&["query", "--port", &port, "--stats"])).is_ok());
        assert!(dispatch(&to_args(&[
            "query",
            "--port",
            &port,
            "--spec",
            "1,0,3,2,5,4,7,6,9,8,11,10,13,12,15,14",
            "--cost",
            "quantum",
        ]))
        .is_ok());
        assert!(dispatch(&to_args(&[
            "query",
            "--port",
            &port,
            "--spec",
            "1,0,3,2,5,4,7,6,9,8,11,10,13,12,15,14",
            "--cost",
            "depth",
            "--json",
        ]))
        .is_ok());
        assert!(dispatch(&to_args(&["query", "--port", &port, "--json"])).is_ok());
        assert!(dispatch(&to_args(&[
            "loadgen",
            "--port",
            &port,
            "--quick",
            "--max-len",
            "4",
            "--json",
        ]))
        .is_ok());
        assert!(dispatch(&to_args(&["query", "--port", &port, "--shutdown"])).is_ok());
        handle.join().expect("clean shutdown");
    }

    #[test]
    fn query_metrics_and_slow_end_to_end() {
        // The observability surface through the dispatcher: a server
        // capturing every request as "slow" (1 µs threshold), scraped
        // and queried for traces via the CLI.
        let suite = std::sync::Arc::new(SynthesisSuite::new(
            Synthesizer::from_scratch(4, 2),
            SuiteConfig {
                quantum_budget: 6,
                depth_budget: 2,
            },
        ));
        let config = revsynth_serve::ServeConfig {
            slow_query_us: 1,
            ..revsynth_serve::ServeConfig::default()
        };
        let server = revsynth_serve::Server::bind(suite, &config).expect("bind");
        let port = server.local_addr().port().to_string();
        let handle = server.spawn();
        let to_args =
            |args: &[&str]| -> Vec<String> { args.iter().map(|s| (*s).to_owned()).collect() };
        assert!(dispatch(&to_args(&[
            "query",
            "--port",
            &port,
            "--spec",
            "1,0,3,2,5,4,7,6,9,8,11,10,13,12,15,14",
        ]))
        .is_ok());
        assert!(dispatch(&to_args(&["query", "--port", &port, "--metrics"])).is_ok());
        assert!(dispatch(&to_args(&["query", "--port", &port, "--slow"])).is_ok());
        assert!(dispatch(&to_args(&["query", "--port", &port, "--slow", "--json"])).is_ok());
        assert!(dispatch(&to_args(&["query", "--port", &port, "--traces"])).is_ok());
        assert!(dispatch(&to_args(&["query", "--port", &port, "--shutdown"])).is_ok());
        handle.join().expect("clean shutdown");
    }

    #[test]
    fn loadgen_overload_reconciles_against_chaos_server() {
        // The CI serve-chaos flow in miniature: a 1-worker server with a
        // bounded queue and injected search latency must shed the burst,
        // keep serving warm hits, and reconcile every counter.
        let suite = std::sync::Arc::new(SynthesisSuite::new(
            Synthesizer::from_scratch(4, 2),
            SuiteConfig {
                quantum_budget: 6,
                depth_budget: 2,
            },
        ));
        let config = revsynth_serve::ServeConfig {
            max_queue: 1,
            retry_after_ms: 20,
            faults: Some(std::sync::Arc::new(
                revsynth_serve::FaultPlan::new(99)
                    .with_search_delay(std::time::Duration::from_millis(250)),
            )),
            ..revsynth_serve::ServeConfig::default()
        };
        let server = revsynth_serve::Server::bind(suite, &config).expect("bind");
        let port = server.local_addr().port().to_string();
        let handle = server.spawn();
        let to_args =
            |args: &[&str]| -> Vec<String> { args.iter().map(|s| (*s).to_owned()).collect() };
        assert!(dispatch(&to_args(&[
            "loadgen",
            "--port",
            &port,
            "--overload",
            "--expect-shed",
            "--max-len",
            "4",
            "--json",
        ]))
        .is_ok());
        assert!(dispatch(&to_args(&["query", "--port", &port, "--shutdown"])).is_ok());
        let stats = handle.join().expect("clean shutdown");
        assert!(stats.shed > 0, "{stats:?}");
    }

    #[test]
    fn serve_rejects_unknown_flags() {
        assert!(dispatch(&["serve".to_owned(), "--bogus".to_owned(), "1".to_owned()]).is_err());
        assert!(dispatch(&["query".to_owned(), "--workers".to_owned(), "1".to_owned()]).is_err());
    }

    #[test]
    fn tables_command_end_to_end() {
        // generate → info → extend → verify (with digest assert) → resume
        // no-op, all through the dispatcher — the CI tables-deep flow in
        // miniature.
        let store = std::env::temp_dir().join(format!(
            "revsynth-cli-tables-test-{}.rvtab",
            std::process::id()
        ));
        let store_str = store.to_string_lossy().into_owned();
        let to_args =
            |args: &[&str]| -> Vec<String> { args.iter().map(|s| (*s).to_owned()).collect() };
        assert!(dispatch(&to_args(&[
            "tables", "generate", "--out", &store_str, "--n", "3", "--k", "2",
        ]))
        .is_ok());
        assert!(dispatch(&to_args(&["tables", "info", "--store", &store_str])).is_ok());
        assert!(dispatch(&to_args(&[
            "tables", "info", "--store", &store_str, "--json"
        ]))
        .is_ok());
        assert!(dispatch(&to_args(&[
            "tables", "extend", "--store", &store_str, "--k", "3"
        ]))
        .is_ok());
        let digest = format!(
            "{:#018x}",
            revsynth_bfs::file_digest(&store).expect("digest")
        );
        assert!(dispatch(&to_args(&[
            "tables",
            "verify",
            "--store",
            &store_str,
            "--expect-digest",
            &digest,
        ]))
        .is_ok());
        assert!(
            dispatch(&to_args(&[
                "tables",
                "verify",
                "--store",
                &store_str,
                "--expect-digest",
                "0xdeadbeefdeadbeef",
            ]))
            .is_err(),
            "digest mismatch must fail"
        );
        // --resume on an existing store at the same depth is a no-op run.
        assert!(dispatch(&to_args(&[
            "tables", "generate", "--out", &store_str, "--n", "3", "--k", "3", "--resume",
        ]))
        .is_ok());
        assert_eq!(
            format!("{:#018x}", revsynth_bfs::file_digest(&store).unwrap()),
            digest,
            "no-op resume must not rewrite the store"
        );
        std::fs::remove_file(&store).ok();
    }

    #[test]
    fn tables_generate_resumes_a_v5_store() {
        let store = std::env::temp_dir().join(format!(
            "revsynth-cli-resume-v5-test-{}.rvtab",
            std::process::id()
        ));
        let store_str = store.to_string_lossy().into_owned();
        let to_args =
            |args: &[&str]| -> Vec<String> { args.iter().map(|s| (*s).to_owned()).collect() };
        let generate = |k: &str, extra: &[&str]| {
            let mut args = to_args(&["tables", "generate", "--out", &store_str, "--n", "3"]);
            args.extend(to_args(&["--k", k]));
            args.extend(to_args(extra));
            dispatch(&args)
        };
        let want = std::env::temp_dir().join(format!(
            "revsynth-cli-resume-v5-want-{}.rvtab",
            std::process::id()
        ));
        let v5_of = |k| {
            SearchTables::generate(3, k).save_v5(&want).unwrap();
            std::fs::read(&want)
        };
        // A fresh --format v5 store is written from the tables in RAM over
        // the v4 checkpoint: the same bytes as `save_v5`, and the
        // temporary file is renamed away.
        generate("2", &["--format", "v5"]).unwrap();
        let mut tmp = store.clone().into_os_string();
        tmp.push(".v5-tmp");
        let (fresh, fresh_want) = (std::fs::read(&store), v5_of(2));
        let tmp_left = std::path::Path::new(&tmp).exists();
        generate("3", &["--resume"]).unwrap();
        generate("4", &["--resume", "--format", "v5"]).unwrap();
        let (got, want_bytes) = (std::fs::read(&store), v5_of(4));
        std::fs::remove_file(&store).ok();
        std::fs::remove_file(&want).ok();
        assert_eq!(
            fresh.unwrap(),
            fresh_want.unwrap(),
            "a fresh v5 store is the canonical v5 store"
        );
        assert!(!tmp_left, "the temporary v5 file was renamed away");
        assert_eq!(
            got.unwrap(),
            want_bytes.unwrap(),
            "a resumed v5 store stays the canonical v5 store"
        );
    }

    #[test]
    fn tables_resume_validates_before_touching_the_store() {
        let store = std::env::temp_dir().join(format!(
            "revsynth-cli-resume-test-{}.rvtab",
            std::process::id()
        ));
        let store_str = store.to_string_lossy().into_owned();
        let to_args =
            |args: &[&str]| -> Vec<String> { args.iter().map(|s| (*s).to_owned()).collect() };
        assert!(dispatch(&to_args(&[
            "tables", "generate", "--out", &store_str, "--n", "3", "--k", "2",
        ]))
        .is_ok());
        let before = std::fs::read(&store).unwrap();
        // Wrong wire count and wrong model are rejected up front — the
        // store must not be extended (or mutated at all) first.
        assert!(dispatch(&to_args(&[
            "tables", "generate", "--out", &store_str, "--n", "4", "--k", "3", "--resume",
        ]))
        .is_err());
        assert!(dispatch(&to_args(&[
            "tables", "generate", "--out", &store_str, "--n", "3", "--model", "quantum",
            "--budget", "4", "--resume",
        ]))
        .is_err());
        assert_eq!(
            std::fs::read(&store).unwrap(),
            before,
            "rejected resume must leave the store untouched"
        );
        // An unreadable leftover (e.g. killed before the first level
        // checkpointed) restarts from scratch instead of wedging.
        std::fs::write(&store, b"RVSYNTB4 but then garbage").unwrap();
        assert!(dispatch(&to_args(&[
            "tables", "generate", "--out", &store_str, "--n", "3", "--k", "2", "--resume",
        ]))
        .is_ok());
        assert_eq!(
            std::fs::read(&store).unwrap(),
            before,
            "restarted generation reproduces the deterministic bytes"
        );
        std::fs::remove_file(&store).ok();
    }

    #[test]
    fn tables_command_rejects_bad_usage() {
        assert!(dispatch(&["tables".to_owned()]).is_err(), "needs an action");
        assert!(
            dispatch(&["tables".to_owned(), "frobnicate".to_owned()]).is_err(),
            "unknown action"
        );
        let to_args =
            |args: &[&str]| -> Vec<String> { args.iter().map(|s| (*s).to_owned()).collect() };
        assert!(
            dispatch(&to_args(&["tables", "generate", "--n", "3"])).is_err(),
            "generate needs --out"
        );
        assert!(
            dispatch(&to_args(&[
                "tables", "generate", "--out", "/tmp/x", "--k", "2", "--budget", "5",
            ]))
            .is_err(),
            "--budget with unit model"
        );
        assert!(
            dispatch(&to_args(&[
                "tables",
                "extend",
                "--store",
                "/nonexistent/x",
                "--k",
                "3"
            ]))
            .is_err(),
            "missing store"
        );
        assert!(
            dispatch(&to_args(&["tables", "verify", "--store", "/nonexistent/x"])).is_err(),
            "missing store"
        );
        // Flags that do nothing are rejected, not ignored: the store names
        // its own model, and the expander has no shard knob.
        let store = std::env::temp_dir().join(format!(
            "revsynth-cli-flags-test-{}.rvtab",
            std::process::id()
        ));
        let store_str = store.to_string_lossy().into_owned();
        SearchTables::generate(2, 1).save(&store).unwrap();
        let before = std::fs::read(&store).unwrap();
        for (action, flag, value) in [
            ("extend", "--model", "quantum"),
            ("extend", "--shards", "4"),
            ("generate", "--shards", "4"),
        ] {
            let path_flag = if action == "extend" {
                "--store"
            } else {
                "--out"
            };
            let err = dispatch(&to_args(&[
                "tables", action, path_flag, &store_str, "--k", "2", flag, value,
            ]))
            .expect_err("unknown flag");
            assert_eq!(err.to_string(), format!("unknown flag {flag}"), "{action}");
        }
        assert_eq!(std::fs::read(&store).unwrap(), before, "store untouched");
        std::fs::remove_file(&store).ok();
    }

    #[test]
    fn peephole_command_end_to_end() {
        let args: Vec<String> = [
            "peephole",
            "--circuit",
            "NOT(a) NOT(a) CNOT(a,b)",
            "--k",
            "2",
        ]
        .iter()
        .map(|s| (*s).to_owned())
        .collect();
        assert!(dispatch(&args).is_ok());
    }
}
