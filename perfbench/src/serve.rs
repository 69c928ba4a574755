//! `serve_warm_k5` and `serve_miss_k5`: an in-process `Server` with
//! `ServeConfig::default()` (one event loop, one worker) on the k = 5
//! store, driven by closed-loop `Client` connections (`Client::query`
//! blocks until its answer arrives, so each connection is one caller with
//! at most one request in flight).
//!
//! Class pools are random 6–10-gate circuits of optimal size > 5 (one
//! function per class) from pinned seeds, so every run searches the same
//! classes; `--seed` picks which member of each class is sent (a wire
//! relabeling, possibly inverted). The server searches the class
//! representative, so the member sent changes the input but not the work.

use std::collections::HashSet;
use std::path::Path;
use std::sync::{Arc, Barrier};
use std::time::Instant;

use revsynth_analysis::{Rng, SplitMix64};
use revsynth_circuit::{Circuit, GateLib};
use revsynth_core::{SuiteConfig, SynthesisSuite, Synthesizer};
use revsynth_perm::{Perm, WirePerm};
use revsynth_serve::{Client, ServeConfig, Server, ServerHandle};

use crate::stores;
use crate::trace::{Span, Tracer};
use crate::util::{self, median, Metrics, Outcome, ThreadUsage};
use crate::Scale;

/// Pinned pool seeds.
const WARM_POOL_SEED: u64 = 0x5EED_0A57;
const MISS_PRIME_SEED: u64 = 0x5EED_0B1E;
const MISS_POOL_SEED: u64 = 0x5EED_0C01;

/// Classes primed (one miss each) before the warm phase.
pub const WARM_POOL: usize = 256;
/// Classes primed before the miss phase, disjoint from its pool.
const MISS_PRIME: usize = 64;

/// Set-up repetitions, reported as their median.
const SETUP_REPEATS: usize = 5;

/// Ops per second of `--seconds`: about what the reference host (2-vCPU
/// KVM guest) serves, so a run measures for about `--seconds`.
const WARM_OPS_PER_SECOND: u64 = 130_000;
const MISS_OPS_PER_SECOND: u64 = 1_300;

/// Warm-phase client connections: two callers keep the single event loop
/// busy; one caller would spend half of each round trip waking up.
const WARM_CLIENTS: usize = 2;

/// Functions of optimal size > k from random (k+1)…2k-gate circuits, one
/// per class and none in `exclude`'s classes.
pub fn class_pool(
    synth: &Synthesizer,
    count: usize,
    seed: u64,
    exclude: &HashSet<Perm>,
) -> Vec<Perm> {
    let gates: Vec<_> = GateLib::nct(4).iter().map(|(_, g, _)| g).collect();
    let tables = synth.tables();
    let k = tables.k();
    let mut rng = SplitMix64::new(seed);
    let mut seen = HashSet::new();
    let mut pool = Vec::with_capacity(count);
    while pool.len() < count {
        let len = k + 1 + rng.next_u64() as usize % k;
        let f = Circuit::from_gates((0..len).map(|_| gates[rng.next_u64() as usize % gates.len()]))
            .perm(4);
        if tables.size_of(f).is_some() {
            continue;
        }
        let rep = tables.sym().canonical(f);
        if !exclude.contains(&rep) && seen.insert(rep) {
            pool.push(f);
        }
    }
    pool
}

/// A seeded member of `f`'s class: a wire relabeling, inverted half the time.
pub fn member<R: Rng>(f: Perm, rng: &mut R, relabelings: &[WirePerm]) -> Perm {
    let word = rng.next_u64();
    let m = f.conjugate_by_wires(relabelings[word as usize % relabelings.len()]);
    if word >> 63 == 1 {
        m.inverse()
    } else {
        m
    }
}

/// A running server with primed classes and connected clients.
pub struct Rig {
    handle: Option<ServerHandle>,
    pub clients: Vec<Client>,
    /// Threads `Server::spawn` started (event loop, worker, ...).
    pub server_tids: Vec<u64>,
    /// Optimal size of each primed class, by pool index.
    pub cold_len: Vec<usize>,
}

impl Rig {
    /// Load, bind, spawn, connect, then one miss per pool class.
    pub fn start(
        store: &Path,
        config: ServeConfig,
        pool: &[Perm],
        clients: usize,
        tracer: &Tracer,
        parent: u64,
    ) -> Result<Rig, String> {
        let before = util::thread_ids();
        let tables = tracer.scope(parent, "bfs.load", |_| stores::load(store));
        let suite = Arc::new(SynthesisSuite::new(
            Synthesizer::new(tables),
            SuiteConfig::default(),
        ));
        let server = tracer
            .scope(parent, "serve.bind", |_| Server::bind(suite, config))
            .map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr();
        let handle = tracer.scope(parent, "serve.spawn", |_| server.spawn());
        let clients = tracer
            .scope(parent, "serve.connect", |_| {
                (0..clients)
                    .map(|_| Client::connect(addr))
                    .collect::<std::io::Result<Vec<Client>>>()
            })
            .map_err(|e| format!("connect: {e}"))?;
        let mut rig = Rig {
            handle: Some(handle),
            clients,
            server_tids: Vec::new(),
            cold_len: Vec::with_capacity(pool.len()),
        };
        tracer.scope(parent, "serve.prime", |id| -> Result<(), String> {
            for (i, &f) in pool.iter().enumerate() {
                let start = Instant::now();
                let circuit = rig.clients[0]
                    .query(f)
                    .map_err(|e| format!("priming query {i}: {e}"))?;
                tracer.record(tracer.id(), id, "serve.client_query", 0, start);
                if circuit.perm(4) != f {
                    return Err(format!("priming answer {i} does not compute its query"));
                }
                rig.cold_len.push(circuit.len());
            }
            Ok(())
        })?;
        // Answered queries prove the event loop and worker threads exist.
        rig.server_tids = util::thread_ids()
            .into_iter()
            .filter(|t| !before.contains(t))
            .collect();
        Ok(rig)
    }

    /// The metrics scrape.
    pub fn scrape(&mut self) -> Result<Scrape, String> {
        self.clients[0]
            .metrics()
            .map(Scrape)
            .map_err(|e| format!("metrics scrape: {e}"))
    }

    pub fn shutdown(mut self) -> Result<(), String> {
        self.clients[0]
            .shutdown_server()
            .map_err(|e| format!("shutdown: {e}"))?;
        if let Some(handle) = self.handle.take() {
            handle.join().map_err(|e| format!("server exit: {e}"))?;
        }
        Ok(())
    }
}

/// A Prometheus text scrape.
pub struct Scrape(String);

impl Scrape {
    /// The value of the series written exactly as `key` (0 when absent).
    pub fn value(&self, key: &str) -> f64 {
        self.0
            .lines()
            .find_map(|l| l.strip_prefix(key)?.strip_prefix(' '))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(0.0)
    }

    pub fn stage_sum_us(&self, stage: &str) -> f64 {
        self.value(&format!(
            "revsynth_stage_latency_us_sum{{stage=\"{stage}\"}}"
        ))
    }
}

/// An answer's size when it computes its query, else this marker.
pub const WRONG: u8 = u8::MAX;

/// One closed-loop phase: per-client query lists sent concurrently.
pub struct Phase {
    pub wall_s: f64,
    pub lat_ns: Vec<u32>,
    /// Per client, per query: the answer's gate count, or [`WRONG`] for an
    /// error or a circuit that does not compute the query.
    pub answers: Vec<Vec<u8>>,
    pub client_usage: ThreadUsage,
}

/// Sends each client's queries back to back, all clients released together.
pub fn closed_loop(
    clients: &mut [Client],
    queries: &[Vec<Perm>],
    tracer: &Tracer,
    parent: u64,
) -> Phase {
    let barrier = Barrier::new(clients.len() + 1);
    let (wall_s, results) = std::thread::scope(|scope| {
        let workers: Vec<_> = clients
            .iter_mut()
            .zip(queries)
            .enumerate()
            .map(|(c, (client, qs))| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut lat = Vec::with_capacity(qs.len());
                    let mut answers = Vec::with_capacity(qs.len());
                    let mut spans: Vec<Span> = Vec::new();
                    barrier.wait();
                    let usage = ThreadUsage::current();
                    for (i, &q) in qs.iter().enumerate() {
                        let start = Instant::now();
                        let answer = client.query(q);
                        lat.push(util::ns_u32(start));
                        if tracer.on() {
                            let op = (c * qs.len() + i) as u64 + 1;
                            spans.push(tracer.make(
                                tracer.id(),
                                parent,
                                "serve.client_query",
                                op,
                                start,
                            ));
                        }
                        answers.push(match answer {
                            Ok(c) if c.perm(4) == q => u8::try_from(c.len()).unwrap_or(WRONG),
                            _ => WRONG,
                        });
                    }
                    let usage = ThreadUsage::current().delta(usage);
                    tracer.absorb(spans);
                    (lat, answers, usage)
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        let results: Vec<_> = workers
            .into_iter()
            .map(|w| w.join().expect("client thread does not panic"))
            .collect();
        (util::secs(start), results)
    });
    let mut phase = Phase {
        wall_s,
        lat_ns: Vec::new(),
        answers: Vec::new(),
        client_usage: ThreadUsage::default(),
    };
    for (lat, answers, usage) in results {
        phase.lat_ns.extend(lat);
        phase.answers.push(answers);
        phase.client_usage.cpu_ns += usage.cpu_ns;
        phase.client_usage.ctx_switches += usage.ctx_switches;
    }
    phase
}

/// Starts the rig `SETUP_REPEATS` times (shutting down all but the last)
/// and returns it with the median set-up time.
fn setup(
    store: &Path,
    pool: &[Perm],
    clients: usize,
    tracer: &Tracer,
) -> Result<(Rig, f64), String> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut rig = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(old) = rig.take() {
            Rig::shutdown(old)?;
        }
        let start = Instant::now();
        let started = tracer.scope(0, "setup", |id| {
            Rig::start(store, ServeConfig::default(), pool, clients, tracer, id)
        })?;
        times.push(util::secs(start));
        rig = Some(started);
    }
    Ok((rig.expect("at least one set-up ran"), median(&times)))
}

/// The pooled class client `c` sends as its `j`-th warm query: the pool
/// round robin, each client starting half a pool after the previous one.
pub fn warm_class(c: usize, j: usize, pool: usize, clients: usize) -> usize {
    (c * pool / clients + j) % pool
}

/// Warm queries, per client: each a seeded member of its [`warm_class`].
pub fn warm_queries(pool: &[Perm], per_client: usize, clients: usize, seed: u64) -> Vec<Vec<Perm>> {
    let relabelings = WirePerm::all();
    let mut rng = SplitMix64::new(seed);
    (0..clients)
        .map(|c| {
            (0..per_client)
                .map(|j| {
                    let class = warm_class(c, j, pool.len(), clients);
                    member(pool[class], &mut rng, &relabelings)
                })
                .collect()
        })
        .collect()
}

/// Serve figures from a phase: round trip, CPU per request on both
/// sides, context switches and the scraped counters. Stage times are the
/// server's whole-life stage sums per request (the histograms record whole
/// µs, so sub-µs stages read low).
pub fn layer_metrics(
    m: &mut Metrics,
    phase: &Phase,
    ops: usize,
    server: ThreadUsage,
    scrape: &Scrape,
) {
    let ops = ops.max(1) as f64;
    let mut lat = phase.lat_ns.clone();
    m.set(
        "serve.rtt_p50_us",
        util::percentile(&mut lat, 50.0) / 1e3,
        "us",
    );
    m.set(
        "serve.server_cpu_us_per_req",
        server.cpu_ns as f64 / 1e3 / ops,
        "us",
    );
    m.set(
        "serve.client_cpu_us_per_req",
        phase.client_usage.cpu_ns as f64 / 1e3 / ops,
        "us",
    );
    m.set(
        "serve.ctx_switches_per_req",
        (server.ctx_switches + phase.client_usage.ctx_switches) as f64 / ops,
        "count",
    );
    let requests = scrape.value("revsynth_requests").max(1.0);
    m.set("serve.searches", scrape.value("revsynth_searches"), "count");
    m.set(
        "serve.hit_rate",
        scrape.value("revsynth_cache_hits") / requests,
        "ratio",
    );
    m.set(
        "serve.max_batch",
        scrape.value("revsynth_max_batch"),
        "count",
    );
    for (stage, name) in [
        ("write", "serve.stage_write_us"),
        ("queue_wait", "serve.stage_queue_wait_us"),
        ("batch_search", "serve.stage_batch_search_us"),
    ] {
        m.set(name, scrape.stage_sum_us(stage) / requests, "us");
    }
}

pub fn run_warm(
    scale: &Scale,
    seed: u64,
    seconds: u64,
    tracer: &Tracer,
) -> Result<Outcome, String> {
    let store = stores::open(scale.smoke, scale.serve_k)?;
    let pool = class_pool(
        &Synthesizer::new(stores::load(&store)),
        WARM_POOL,
        WARM_POOL_SEED,
        &HashSet::new(),
    );
    let per_client = (seconds.max(1) * WARM_OPS_PER_SECOND / if scale.smoke { 100 } else { 1 })
        as usize
        / WARM_CLIENTS;
    let queries = warm_queries(&pool, per_client, WARM_CLIENTS, seed);
    let (mut rig, setup_s) = setup(&store, &pool, WARM_CLIENTS, tracer)?;

    let server_before = util::usage_of(&rig.server_tids);
    let phase = tracer.scope(0, "ops", |id| {
        closed_loop(&mut rig.clients, &queries, tracer, id)
    });
    let server = util::usage_of(&rig.server_tids).delta(server_before);
    let scrape = rig.scrape()?;

    let mut out = Outcome::default();
    let mut digest = util::Fnv::new();
    for (c, answers) in phase.answers.iter().enumerate() {
        for (j, &len) in answers.iter().enumerate() {
            let class = warm_class(c, j, pool.len(), WARM_CLIENTS);
            let ok = len != WRONG && usize::from(len) == rig.cold_len[class];
            out.check(ok, || format!("warm answer for class {class}: size {len}"));
            digest.word(u64::from(len));
        }
    }
    let ops = out.attempted as usize;
    let searches = scrape.value("revsynth_searches") as u64;
    let hits = scrape.value("revsynth_cache_hits") as u64;
    out.require(searches == pool.len() as u64, || {
        format!("searches {searches} != pool size {}", pool.len())
    });
    out.require(hits == ops as u64, || {
        format!("cache hits {hits} != ops {ops}")
    });
    out.fingerprint = vec![
        ("ops", ops as u64),
        ("searches", searches),
        ("pool_sizes", rig.cold_len.iter().sum::<usize>() as u64),
        ("answers_digest", digest.finish()),
    ];

    let mut lat = phase.lat_ns.clone();
    out.end_to_end(setup_s, ops as f64 / phase.wall_s, &mut lat);
    if tracer.on() {
        layer_metrics(&mut out.metrics, &phase, ops, server, &scrape);
    }
    rig.shutdown()?;
    Ok(out)
}

pub fn run_miss(
    scale: &Scale,
    seed: u64,
    seconds: u64,
    tracer: &Tracer,
) -> Result<Outcome, String> {
    let store = stores::open(scale.smoke, scale.serve_k)?;
    let synth = Synthesizer::new(stores::load(&store));
    let prime = class_pool(&synth, MISS_PRIME, MISS_PRIME_SEED, &HashSet::new());
    let primed: HashSet<Perm> = prime
        .iter()
        .map(|&f| synth.tables().sym().canonical(f))
        .collect();
    let count = (seconds.max(1) * MISS_OPS_PER_SECOND / if scale.smoke { 20 } else { 1 }) as usize;
    let pool = class_pool(&synth, count, MISS_POOL_SEED, &primed);
    drop(synth);
    let relabelings = WirePerm::all();
    let mut rng = SplitMix64::new(seed);
    let queries: Vec<Perm> = pool
        .iter()
        .map(|&f| member(f, &mut rng, &relabelings))
        .collect();
    let (mut rig, setup_s) = setup(&store, &prime, 1, tracer)?;

    let before = rig.scrape()?;
    let server_before = util::usage_of(&rig.server_tids);
    let phase = tracer.scope(0, "ops", |id| {
        closed_loop(&mut rig.clients, std::slice::from_ref(&queries), tracer, id)
    });
    let server = util::usage_of(&rig.server_tids).delta(server_before);
    let scrape = rig.scrape()?;

    let mut out = Outcome::default();
    let mut digest = util::Fnv::new();
    let mut total_len = 0;
    for (&q, &len) in queries.iter().zip(&phase.answers[0]) {
        out.check(len != WRONG, || format!("miss answer for {q:?} is wrong"));
        digest.word(u64::from(len));
        total_len += u64::from(len);
    }
    let ops = out.attempted;
    let searches = (scrape.value("revsynth_searches") - before.value("revsynth_searches")) as u64;
    out.require(searches == ops, || {
        format!("searches {searches} != ops {ops}")
    });
    out.fingerprint = vec![
        ("ops", ops),
        ("searches", searches),
        ("answer_sizes", total_len),
        ("answers_digest", digest.finish()),
    ];

    let mut lat = phase.lat_ns.clone();
    out.end_to_end(setup_s, ops as f64 / phase.wall_s, &mut lat);
    if tracer.on() {
        layer_metrics(&mut out.metrics, &phase, ops as usize, server, &scrape);
        let delta = |key: &str| scrape.value(key) - before.value(key);
        out.engine = Some(crate::layers::EngineTotals {
            ops: ops as f64,
            considered: delta("revsynth_search_considered"),
            gated: delta("revsynth_search_gated"),
            canonicalized: delta("revsynth_search_canonicalized"),
            search_ns: delta("revsynth_batch_search_us_sum") * 1e3,
            small_tables: true,
        });
    }
    rig.shutdown()?;
    Ok(out)
}
