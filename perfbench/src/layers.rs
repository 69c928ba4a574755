//! The layer pass of a traced run: kernel and probe costs on the
//! benchmark's own stores, per-level generation times, the store
//! scrubber's price, and serve-side splits. It runs in every traced run,
//! so each traced run reports every per-layer metric; figures the named
//! workload measures on its own path (engine counts, serve splits)
//! replace the pass's stand-ins.

use std::collections::HashSet;
use std::hint::black_box;
use std::time::Instant;

use revsynth_analysis::{random_perm, Rng, SplitMix64};
use revsynth_bfs::{GenOptions, SearchTables};
use revsynth_canon::replay_for_witness;
use revsynth_circuit::{Circuit, CostKind, GateLib};
use revsynth_core::{SearchOptions, Synthesizer};
use revsynth_perm::{Perm, WirePerm};
use revsynth_serve::protocol::{self, Request, Response};
use revsynth_serve::{ClassCache, ServeConfig};
use revsynth_table::{FnTable, InvariantIndex};

use crate::gen;
use crate::serve::{self, Rig};
use crate::stores;
use crate::synth::{self, OpRecord};
use crate::trace::Tracer;
use crate::util::{self, median, Metrics};
use crate::Scale;

/// Engine work behind one set of searches, for the timing model.
pub struct EngineTotals {
    pub ops: f64,
    pub considered: f64,
    pub gated: f64,
    pub canonicalized: f64,
    pub search_ns: f64,
    /// Searches ran on the serve (k = 5) tables rather than k = 7.
    pub small_tables: bool,
}

impl EngineTotals {
    pub fn from_records(records: &[OpRecord]) -> EngineTotals {
        let searched: Vec<&OpRecord> = records.iter().filter(|r| r.stats.considered > 0).collect();
        let sum = |f: fn(&OpRecord) -> u64| searched.iter().map(|r| f(r)).sum::<u64>() as f64;
        EngineTotals {
            ops: searched.len() as f64,
            considered: sum(|r| r.stats.considered),
            gated: sum(|r| r.stats.gated),
            canonicalized: sum(|r| r.stats.canonicalized),
            search_ns: sum(|r| r.ns),
            small_tables: false,
        }
    }

    /// `core.*` counts plus the timing model: each candidate costs a
    /// compose and a gate; each survivor a canonicalization and a probe
    /// (nearly all misses).
    fn metrics(&self, m: &mut Metrics) {
        let ops = self.ops.max(1.0);
        let considered = self.considered.max(1.0);
        m.set("core.considered_per_op", self.considered / ops, "count");
        m.set(
            "core.canonicalized_per_op",
            self.canonicalized / ops,
            "count",
        );
        m.set("core.gate_selectivity", self.gated / considered, "ratio");
        m.set("core.ns_per_candidate", self.search_ns / considered, "ns");
        let tag = if self.small_tables { "k5" } else { "k7" };
        let kernel = |name: &str| m.get(name).unwrap_or(0.0);
        let predicted = self.considered
            * (kernel("perm.then_ns") + kernel(&format!("table.gate_{tag}_ns")))
            + self.canonicalized
                * (kernel("canon.canonicalize_ns") + kernel(&format!("table.probe_miss_{tag}_ns")));
        m.set(
            "core.explained_pct",
            100.0 * predicted / self.search_ns.max(1.0),
            "%",
        );
    }
}

/// Runs the layer pass. `own` holds the named workload's traced figures
/// (they override the pass's stand-ins) and `engine` its searches, if any.
pub fn run(
    scale: &Scale,
    tracer: &Tracer,
    own: Metrics,
    engine: Option<EngineTotals>,
) -> Result<Metrics, String> {
    let mut m = Metrics::default();
    let (client_codec_ns, stand_in) = tracer.scope(0, "layers", |root| {
        tracer.scope(root, "layers.kernels", |_| kernels(&mut m, scale));
        let serve_store = stores::open(scale.smoke, scale.serve_k)?;
        let synth = Synthesizer::new(stores::load(&serve_store));
        let pool = serve::class_pool(&synth, serve::WARM_POOL, 0x5EED_1A7E, &HashSet::new());
        let client_codec_ns = tracer.scope(root, "layers.serve_kernels", |_| {
            serve_kernels(&mut m, &synth, &pool, scale.smoke)
        });
        tracer.scope(root, "layers.probes_k5", |_| {
            store_probes(&mut m, synth.tables(), "k5", scale.smoke);
        });
        drop(synth);
        tracer.scope(root, "layers.stores", |id| {
            store_costs(&mut m, scale, tracer, id)
        })?;
        let tables = stores::load(&stores::open(scale.smoke, scale.synth_k)?);
        stores::fault_in(&tables);
        tracer.scope(root, "layers.probes_k7", |_| {
            store_probes(&mut m, &tables, "k7", scale.smoke);
        });
        let synth = Synthesizer::new(tables);
        let stand_in = tracer.scope(root, "layers.size_sample", |id| {
            size_sample(&mut m, scale, &synth, tracer, id)
        });
        drop(synth);
        tracer.scope(root, "layers.bfs_levels", |id| {
            bfs_levels(&mut m, scale, tracer, id)
        });
        tracer.scope(root, "layers.serve", |id| {
            serve_figures(&mut m, &serve_store, &pool, scale.smoke, tracer, id)
        })?;
        Ok::<_, String>((client_codec_ns, stand_in))
    })?;

    // The named workload's own figures win over the stand-ins.
    m.merge(own);
    engine.unwrap_or(stand_in).metrics(&mut m);
    // Warm-hit split: what the harness timed in-process on both sides,
    // plus the scraped write stage; the rest is loopback, syscalls and
    // wake-ups.
    let attributed_ns = [
        "serve.decode_ns",
        "canon.canonicalize_ns",
        "serve.cache_get_ns",
        "canon.replay_ns",
        "serve.encode_ns",
    ]
    .iter()
    .map(|k| m.get(k).unwrap_or(0.0))
    .sum::<f64>()
        + client_codec_ns;
    let unattributed = m.get("serve.rtt_p50_us").unwrap_or(0.0)
        - attributed_ns / 1e3
        - m.get("serve.stage_write_us").unwrap_or(0.0);
    m.set("serve.unattributed_us", unattributed, "us");
    Ok(m)
}

/// Median ns per call over 5 blocks of `calls` calls each.
fn ns_per_call(calls: usize, mut block: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            block();
            start.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    median(&samples)
}

fn random_perms(count: usize, seed: u64) -> Vec<Perm> {
    let mut rng = SplitMix64::new(seed);
    (0..count).map(|_| random_perm(4, &mut rng)).collect()
}

/// Permutation, canonicalization, invariant-key and insert kernels on
/// cache-resident random inputs (independent calls: the engine overlaps
/// them the same way).
fn kernels(m: &mut Metrics, scale: &Scale) {
    const N: usize = 4096;
    let reps = if scale.smoke { 1 } else { 64 };
    let a = random_perms(N, 0xA11CE);
    let b = random_perms(N, 0xB0B);
    let sym = revsynth_canon::Symmetries::new(4);
    let calls = N * reps;
    m.set(
        "perm.then_ns",
        ns_per_call(calls, || {
            for _ in 0..reps {
                for (&x, &y) in a.iter().zip(&b) {
                    black_box(black_box(x).then(y));
                }
            }
        }),
        "ns",
    );
    m.set(
        "perm.inverse_ns",
        ns_per_call(calls, || {
            for _ in 0..reps {
                for &x in &a {
                    black_box(black_box(x).inverse());
                }
            }
        }),
        "ns",
    );
    // Mask indices come from memory, as in the canonicalization walk.
    let masks: Vec<usize> = (0..N).map(|i| i % 6).collect();
    m.set(
        "perm.conj_swap_ns",
        ns_per_call(calls, || {
            for _ in 0..reps {
                for (&x, &mask) in a.iter().zip(&masks) {
                    black_box(black_box(x).conjugate_swap_indexed(mask));
                }
            }
        }),
        "ns",
    );
    m.set(
        "canon.canonicalize_ns",
        ns_per_call(N * 8, || {
            for _ in 0..8 {
                for &x in &a {
                    black_box(sym.canonical(black_box(x)));
                }
            }
        }),
        "ns",
    );
    m.set(
        "table.key_of_ns",
        ns_per_call(calls, || {
            for _ in 0..reps {
                for &x in &a {
                    black_box(InvariantIndex::key_of(black_box(x)));
                }
            }
        }),
        "ns",
    );
    // Inserts into a table sized for the generation, as many keys as its
    // deepest level holds.
    let levels = &gen::LEVEL_CLASSES[..=scale.gen_k];
    let expected: u64 = levels.iter().sum();
    let keys = random_perms(levels[scale.gen_k] as usize, 0x1A5E7);
    let insert: Vec<f64> = (0..3)
        .map(|_| {
            let mut table = FnTable::for_entries(expected as usize);
            let start = Instant::now();
            for &key in &keys {
                black_box(table.insert_if_absent(key, 1));
            }
            start.elapsed().as_nanos() as f64 / keys.len() as f64
        })
        .collect();
    m.set("table.insert_ns", median(&insert), "ns");
}

/// The warm hit path's in-process pieces: codec, cache lookup, replay.
fn serve_kernels(m: &mut Metrics, synth: &Synthesizer, pool: &[Perm], smoke: bool) -> f64 {
    let sym = synth.tables().sym();
    let opts = SearchOptions::new().threads(1);
    let circuits: Vec<Circuit> = pool
        .iter()
        .take(64)
        .map(|&f| synth.synthesize_with(f, &opts).map(|s| s.circuit))
        .collect::<Result<_, _>>()
        .expect("pool classes are within reach");
    let relabelings = WirePerm::all();
    let mut rng = SplitMix64::new(0x5E7);
    let members: Vec<(usize, Perm)> = (0..1024)
        .map(|i| {
            let c = i % circuits.len();
            (c, serve::member(pool[c], &mut rng, &relabelings))
        })
        .collect();
    let witnesses: Vec<_> = members
        .iter()
        .map(|&(c, f)| (c, sym.canonicalize(f)))
        .collect();
    let answers: Vec<Circuit> = witnesses
        .iter()
        .map(|(c, w)| replay_for_witness(&circuits[*c], w))
        .collect();
    let requests: Vec<Vec<u8>> = members
        .iter()
        .map(|&(_, f)| protocol::encode_request(&Request::Query(f, CostKind::Gates, None)))
        .collect();
    let responses: Vec<Vec<u8>> = answers
        .iter()
        .map(|c| protocol::encode_response(&Response::Circuit(c.clone())))
        .collect();
    let reps = if smoke { 1 } else { 16 };
    let calls = members.len() * reps;
    m.set(
        "serve.decode_ns",
        ns_per_call(calls, || {
            for _ in 0..reps {
                for r in &requests {
                    black_box(protocol::decode_request(black_box(r)).ok());
                }
            }
        }),
        "ns",
    );
    m.set(
        "serve.encode_ns",
        ns_per_call(calls, || {
            for _ in 0..reps {
                for c in &answers {
                    black_box(protocol::encode_response(&Response::Circuit(c.clone())));
                }
            }
        }),
        "ns",
    );
    let cache = ClassCache::with_shards(1 << 16, 8);
    for (f, c) in pool.iter().zip(&circuits) {
        cache.insert(CostKind::Gates, sym.canonical(*f), c.clone());
    }
    m.set(
        "serve.cache_get_ns",
        ns_per_call(calls, || {
            for _ in 0..reps {
                for (_, w) in &witnesses {
                    black_box(cache.get(CostKind::Gates, w.rep));
                }
            }
        }),
        "ns",
    );
    m.set(
        "canon.replay_ns",
        ns_per_call(calls, || {
            for _ in 0..reps {
                for (c, w) in &witnesses {
                    black_box(replay_for_witness(&circuits[*c], w));
                }
            }
        }),
        "ns",
    );
    // The client's half of the codec, for the warm-hit split.
    ns_per_call(calls, || {
        for _ in 0..reps {
            for ((_, f), r) in members.iter().zip(&responses) {
                black_box(protocol::encode_request(&Request::Query(
                    *f,
                    CostKind::Gates,
                    None,
                )));
                black_box(protocol::decode_response(black_box(r)).ok());
            }
        }
    })
}

/// Gate and probe costs on a loaded store. Hit keys are drawn across the
/// whole table (a small sample would stay in cache); gate inputs and miss
/// keys are random compositions with stored representatives, as the
/// engine's candidates are.
fn store_probes(m: &mut Metrics, tables: &SearchTables, tag: &str, smoke: bool) {
    let n = if smoke { 1 << 12 } else { 1 << 20 };
    let mut rng = SplitMix64::new(0x9E0BE);
    let total = tables.num_representatives() as u64;
    let levels: Vec<&[Perm]> = tables.levels().iter().collect();
    let rep_at = |rng: &mut SplitMix64| {
        let mut i = rng.next_u64() % total;
        for level in &levels {
            if (i as usize) < level.len() {
                return level[i as usize];
            }
            i -= level.len() as u64;
        }
        unreachable!("index below the total count")
    };
    let hits: Vec<Perm> = (0..n).map(|_| rep_at(&mut rng)).collect();
    let comps: Vec<Perm> = (0..n)
        .map(|_| random_perm(4, &mut rng).then(rep_at(&mut rng)))
        .collect();
    let table = tables.table();
    let misses: Vec<Perm> = comps
        .iter()
        .map(|&c| tables.sym().canonical(c))
        .filter(|&c| !table.contains(c))
        .collect();
    let index = tables.invariants();
    let k = tables.k();
    m.set(
        &format!("table.gate_{tag}_ns"),
        ns_per_call(comps.len(), || {
            for &c in &comps {
                black_box(index.admits(black_box(c), k));
            }
        }),
        "ns",
    );
    m.set(
        &format!("table.probe_hit_{tag}_ns"),
        ns_per_call(hits.len(), || {
            for &h in &hits {
                black_box(table.contains(black_box(h)));
            }
        }),
        "ns",
    );
    m.set(
        &format!("table.probe_miss_{tag}_ns"),
        ns_per_call(misses.len().max(1), || {
            for &x in &misses {
                black_box(table.contains(black_box(x)));
            }
        }),
        "ns",
    );
}

/// Load, fault-in and full-verification costs of the stores.
fn store_costs(m: &mut Metrics, scale: &Scale, tracer: &Tracer, parent: u64) -> Result<(), String> {
    let big = stores::open(scale.smoke, scale.synth_k)?;
    let small = stores::open(scale.smoke, scale.serve_k)?;
    let (mut load, mut fault, mut small_load) = (Vec::new(), Vec::new(), Vec::new());
    let mut minflt = 0;
    for _ in 0..3 {
        let faults = util::minor_faults();
        let start = Instant::now();
        let tables = tracer.scope(parent, "bfs.load", |_| stores::load(&big));
        load.push(util::secs(start) * 1e3);
        let start = Instant::now();
        tracer.scope(parent, "mmap.fault_in", |_| stores::fault_in(&tables));
        fault.push(util::secs(start) * 1e3);
        minflt = util::minor_faults() - faults;
        drop(tables);
        let start = Instant::now();
        black_box(stores::load(&small));
        small_load.push(util::secs(start) * 1e3);
    }
    m.set("bfs.load_k7_ms", median(&load), "ms");
    m.set("bfs.fault_in_k7_ms", median(&fault), "ms");
    m.set("bfs.load_k5_ms", median(&small_load), "ms");
    m.set("mmap.minflt_setup", minflt as f64, "count");
    let start = Instant::now();
    tracer
        .scope(parent, "bfs.load_validated", |_| {
            SearchTables::load_validated(&big)
        })
        .map_err(|e| format!("verifying {}: {e}", big.display()))?;
    m.set("bfs.verify_k7_s", util::secs(start), "s");
    Ok(())
}

/// One pinned query per optimal size 10–13 (the first of each size in the
/// `synth_random_k7` sample): the stand-in engine figures and per-size
/// times for traced runs of other workloads.
fn size_sample(
    m: &mut Metrics,
    scale: &Scale,
    synth: &Synthesizer,
    tracer: &Tracer,
    parent: u64,
) -> EngineTotals {
    let queries: Vec<Perm> = if scale.smoke {
        synth::plan(scale, 1, 1).0.swap_remove(0)
    } else {
        let base = synth::base_queries(crate::pins::K7_OPS.len());
        (10..=13)
            .filter_map(|size| {
                crate::pins::K7_OPS
                    .iter()
                    .position(|&(s, _)| usize::from(s) == size)
                    .map(|i| base[i])
            })
            .collect()
    };
    let records = synth::run_ops(synth, &queries, tracer, parent);
    m.merge(synth::size_metrics(&records, scale.synth_k));
    EngineTotals::from_records(&records)
}

/// Successive `extend_to` per level at the generation's thread count, and
/// level 6 again on one thread for the parallel speed-up.
fn bfs_levels(m: &mut Metrics, scale: &Scale, tracer: &Tracer, parent: u64) {
    let k = scale.gen_k;
    let lib = GateLib::nct(4);
    let two = GenOptions::new().threads(gen::THREADS);
    let mut tables = SearchTables::generate_opts(lib.clone(), 0, &two);
    let mut deepest = 0.0;
    // Smoke scale stops at k = 4; its deeper "levels" time no-op extends.
    for level in 1..=6 {
        let start = Instant::now();
        tracer.scope(parent, "bfs.extend_to", |_| {
            tables.extend_to(level.min(k) as u64, &two);
        });
        let seconds = util::secs(start);
        if level == k {
            deepest = seconds;
        }
        m.set(&format!("bfs.level{level}_s"), seconds, "s");
    }
    m.set(
        "bfs.level6_classes_per_s",
        gen::LEVEL_CLASSES[k] as f64 / deepest,
        "1/s",
    );
    let one = GenOptions::new().threads(1);
    let mut serial = SearchTables::generate_opts(lib, k - 1, &one);
    let start = Instant::now();
    tracer.scope(parent, "bfs.extend_to", |_| {
        serial.extend_to(k as u64, &one)
    });
    m.set("bfs.parallel_speedup", util::secs(start) / deepest, "ratio");
}

/// Stand-in serve figures (a short warm burst; the serve workloads replace
/// them with their own), and the instrumentation overhead: warm bursts
/// alternating between an instrumented and an uninstrumented server.
fn serve_figures(
    m: &mut Metrics,
    store: &std::path::Path,
    pool: &[Perm],
    smoke: bool,
    tracer: &Tracer,
    parent: u64,
) -> Result<(), String> {
    let burst = if smoke { 200 } else { 20_000 };
    let mut on = Rig::start(store, ServeConfig::default(), pool, 2, tracer, parent)?;
    let mut off = Rig::start(
        store,
        ServeConfig::default().instrumentation(false),
        pool,
        2,
        tracer,
        parent,
    )?;
    let (mut rate_on, mut rate_off) = (Vec::new(), Vec::new());
    let quiet = Tracer::new(false);
    for round in 0..6u64 {
        let queries = serve::warm_queries(pool, burst / 2, 2, round);
        let first_on = round % 2 == 0;
        for instrumented in [first_on, !first_on] {
            let rig = if instrumented { &mut on } else { &mut off };
            let phase = serve::closed_loop(&mut rig.clients, &queries, &quiet, 0);
            let rate = burst as f64 / phase.wall_s;
            if instrumented {
                rate_on.push(rate);
            } else {
                rate_off.push(rate);
            }
        }
    }
    m.set(
        "obs.overhead_pct",
        100.0 * (median(&rate_off) / median(&rate_on) - 1.0),
        "%",
    );
    let queries = serve::warm_queries(pool, burst, 2, 0xF00D);
    let server_before = util::usage_of(&on.server_tids);
    let phase = serve::closed_loop(&mut on.clients, &queries, tracer, parent);
    let server = util::usage_of(&on.server_tids).delta(server_before);
    let scrape = on.scrape()?;
    serve::layer_metrics(m, &phase, 2 * burst, server, &scrape);
    on.shutdown()?;
    off.shutdown()?;
    Ok(())
}
