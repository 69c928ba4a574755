//! Multi-core serving suite: the thread-per-core event loops must hold
//! every contract the single-threaded accept loop held — resumable
//! frame I/O against trickling and torn peers (on both readiness
//! backends), the shutdown drain order (no final snapshot while any
//! core still holds an in-flight ticket), the per-core metrics merge,
//! the stats conservation law under concurrent multi-core load, and
//! prompt ticket wake-ups (a lost wake costs a whole `epoll_wait`
//! timeout of 200 ms).

use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use revsynth_circuit::{Circuit, GateLib};
use revsynth_core::{SuiteConfig, SynthesisSuite, Synthesizer};
use revsynth_perm::Perm;
use revsynth_serve::fault::{DropAfter, TrickleStream};
use revsynth_serve::loadgen::{self, LoadgenConfig};
use revsynth_serve::snapshot::{self, RestoreOutcome};
use revsynth_serve::{Client, FaultPlan, ServeConfig, Server, ServerHandle};

/// Deep enough (`k = 3`) that the loadgen pool's up-to-5-gate circuits
/// all synthesize within reach, so zero errors is a meaningful gate.
fn suite() -> Arc<SynthesisSuite> {
    Arc::new(SynthesisSuite::new(
        Synthesizer::from_scratch(4, 3),
        SuiteConfig {
            quantum_budget: 7,
            depth_budget: 2,
        },
    ))
}

fn start_server(config: &ServeConfig) -> ServerHandle {
    Server::bind(suite(), config)
        .expect("bind loopback")
        .spawn()
}

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("revsynth-multicore-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A 17-byte query frame (len prefix + opcode + values) for `f`.
fn query_frame(f: Perm) -> Vec<u8> {
    let mut frame = Vec::new();
    frame.extend_from_slice(&17u32.to_le_bytes());
    frame.push(0x01);
    frame.extend_from_slice(&f.values());
    frame
}

const OP_CIRCUIT: u8 = 0x80;

fn read_response(stream: &mut impl std::io::Read) -> Option<Vec<u8>> {
    let mut len = [0u8; 4];
    stream.read_exact(&mut len).ok()?;
    let len = u32::from_le_bytes(len) as usize;
    assert!(len > 0 && len <= 1 << 16, "server frames are well-formed");
    let mut payload = vec![0u8; len];
    stream.read_exact(&mut payload).ok()?;
    Some(payload)
}

/// The satellite-4 contract on both readiness backends and both core
/// counts: a glacial writer (2 bytes per 60 ms, far slower than any
/// poll tick) must still reassemble into a served frame, and a peer
/// torn at **every** mid-frame cut point must never wedge an event
/// loop — the very next connection is served normally.
#[test]
fn trickled_and_torn_frames_on_every_readiness_backend() {
    let f = Perm::from_values(&[1, 0, 3, 2, 5, 4, 7, 6, 9, 8, 11, 10, 13, 12, 15, 14]).unwrap();
    let frame = query_frame(f);
    for (tag, config) in [
        ("epoll-1", ServeConfig::new()),
        ("scan-1", ServeConfig::new().portable_poll(true)),
        ("epoll-2", ServeConfig::new().cores(2)),
        ("scan-2", ServeConfig::new().cores(2).portable_poll(true)),
    ] {
        let handle = start_server(&config);
        let addr = handle.addr();

        // Glacial writer: the FrameReader must hold the partial frame
        // across readiness ticks and answer once it completes.
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut trickle = TrickleStream::new(stream, 2, Duration::from_millis(60));
        trickle.write_all(&frame).unwrap();
        let payload = read_response(&mut trickle).unwrap_or_else(|| {
            panic!("[{tag}] trickled query answered");
        });
        assert_eq!(payload[0], OP_CIRCUIT, "[{tag}]");
        drop(trickle);

        // Every possible mid-frame cut point: the loop must reap the
        // torn connection and keep serving.
        for budget in 1..frame.len() {
            let stream = TcpStream::connect(addr).unwrap();
            let mut dropper = DropAfter::new(stream, budget);
            let err = dropper.write_all(&frame).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::BrokenPipe, "[{tag}]");
            assert!(dropper.dropped(), "[{tag}]");
        }

        let mut client = Client::connect_with_timeout(addr, Duration::from_secs(10)).unwrap();
        let circuit = client.query(f).unwrap_or_else(|e| {
            panic!("[{tag}] server wedged after torn peers: {e}");
        });
        assert_eq!(circuit.perm(4), f, "[{tag}]");
        client.shutdown_server().unwrap();
        let stats = handle.join().unwrap();
        assert_eq!(
            stats.errors, 0,
            "[{tag}] client abuse is not a server error"
        );
    }
}

/// The satellite-3 drain-order contract: a shutdown racing an
/// in-flight slow search on a *sibling core's* connection must not cut
/// the final snapshot until that ticket resolves. The in-flight client
/// still gets its circuit, and the snapshot on disk contains the class
/// that was mid-search when shutdown was requested — a server that
/// snapshots per-core (while a sibling still holds tickets) fails the
/// restore assertion below.
#[test]
fn shutdown_drains_every_cores_tickets_before_the_final_snapshot() {
    let dir = tempdir("drain");
    let path = dir.join("classes.snap");
    // Every search takes 400 ms: plenty of window to land a shutdown
    // frame on one core while the other core's query is in flight.
    let plan = Arc::new(FaultPlan::new(0xD8A1).with_search_delay(Duration::from_millis(400)));
    let config = ServeConfig::new()
        .cores(2)
        .faults(Some(plan))
        .snapshot(Some(path.clone()));
    let handle = start_server(&config);
    let addr = handle.addr();

    let lib = GateLib::nct(4);
    let gates: Vec<_> = lib.iter().map(|(_, g, _)| g).collect();
    let f = Circuit::from_gates([gates[0], gates[1]]).perm(4);
    let inflight = std::thread::spawn(move || {
        let mut client = Client::connect_with_timeout(addr, Duration::from_secs(30)).unwrap();
        client.query(f)
    });
    // Let the slow search start, then shut down from another
    // connection (with SO_REUSEPORT accepts the kernel spreads the two
    // connections across cores; either way the ticket is in flight
    // when the flag flips).
    std::thread::sleep(Duration::from_millis(150));
    let mut killer = Client::connect(addr).unwrap();
    killer.shutdown_server().unwrap();

    let answer = inflight
        .join()
        .unwrap()
        .expect("in-flight query served across shutdown");
    assert_eq!(answer.perm(4), f, "the draining core answered exactly");
    let stats = handle.join().unwrap();
    assert_eq!(stats.searches, 1);
    assert_eq!(stats.errors, 0);

    // The final snapshot must hold the class searched during shutdown.
    let rep = suite().sym().canonical(f);
    match snapshot::restore(&path, 4) {
        RestoreOutcome::Restored { records, skipped } => {
            assert_eq!(skipped, 0);
            assert!(
                records.iter().any(|r| r.rep == rep),
                "final snapshot is missing the class that was in flight at shutdown"
            );
        }
        other => panic!("expected a restorable snapshot, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Concurrent load over two cores: the conservation law holds on the
/// merged stats, the per-core registries merge into one scrape with
/// every core's series present and family headers deduplicated, and
/// per-core request counters sum to the aggregate.
#[test]
fn multicore_load_conserves_stats_and_merges_per_core_metrics() {
    let handle = start_server(&ServeConfig::new().cores(2));
    let addr = handle.addr();
    let report = loadgen::run(addr, 4, &LoadgenConfig::quick(42)).expect("loadgen runs");
    assert_eq!(report.errors, 0, "all queries verified: {report:?}");

    let mut client = Client::connect(addr).unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(
        stats.cache_misses,
        stats.searches + stats.coalesced + stats.shed + stats.expired,
        "load conservation across cores"
    );

    let metrics = client.metrics().unwrap();
    for core in 0..2 {
        assert!(
            metrics.contains(&format!("revsynth_core_requests{{core=\"{core}\"}}")),
            "core {core} series missing from the merged scrape:\n{metrics}"
        );
        assert!(
            metrics.contains(&format!("revsynth_core_accepted{{core=\"{core}\"}}")),
            "core {core} accept series missing:\n{metrics}"
        );
    }
    assert_eq!(
        metrics
            .matches("# TYPE revsynth_core_requests counter")
            .count(),
        1,
        "family header must appear exactly once in the merged scrape"
    );
    let per_core: u64 = metrics
        .lines()
        .filter(|l| l.starts_with("revsynth_core_requests{"))
        .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
        .sum();
    assert_eq!(
        per_core, stats.requests,
        "per-core request counters must sum to the aggregate"
    );

    client.shutdown_server().unwrap();
    let final_stats = handle.join().unwrap();
    assert_eq!(final_stats.errors, 0);
    // Steals move work between lanes without creating or destroying
    // it, so the law stays exact whether or not any happened.
    assert_eq!(
        final_stats.cache_misses,
        final_stats.searches + final_stats.coalesced + final_stats.shed + final_stats.expired,
        "conservation still exact at shutdown"
    );
}

/// The first `count` classes of 3-gate strings, in a fixed order, none
/// of them the identity's: table lookups at `k = 3`, so a miss costs the
/// ticket round trip and next to no search.
fn fresh_classes(count: usize) -> Vec<Perm> {
    let gates: Vec<_> = GateLib::nct(4).iter().map(|(_, g, _)| g).collect();
    let sym = suite().sym().clone();
    let mut reps = std::collections::HashSet::from([Perm::identity()]);
    let mut classes = Vec::with_capacity(count);
    for &a in &gates {
        for &b in &gates {
            for &c in &gates {
                let f = Circuit::from_gates([a, b, c]).perm(4);
                if classes.len() < count && reps.insert(sym.canonical(f)) {
                    classes.push(f);
                }
            }
        }
    }
    assert_eq!(classes.len(), count, "not enough 3-gate classes");
    classes
}

/// This core's `revsynth_core_accepted` count in a metrics scrape.
fn accepted(metrics: &str, core: usize) -> u64 {
    let series = format!("revsynth_core_accepted{{core=\"{core}\"}} ");
    metrics
        .lines()
        .find_map(|line| line.strip_prefix(&series))
        .map_or(0, |count| count.parse().unwrap())
}

/// One client on each loop of a two-core server. Connects until both
/// loops have accepted one, telling which loop took each connection by
/// the accept counter that moved in the scrape that connection fetched.
fn client_per_core(addr: SocketAddr) -> [Client; 2] {
    let mut found: [Option<Client>; 2] = [None, None];
    let mut seen = [0u64; 2];
    for _ in 0..200 {
        let mut client = Client::connect_with_timeout(addr, Duration::from_secs(30)).unwrap();
        let metrics = client.metrics().unwrap();
        let now = [0, 1].map(|core| accepted(&metrics, core));
        let core = (0..2)
            .find(|&c| now[c] > seen[c])
            .expect("the accept is counted");
        seen = now;
        found[core].get_or_insert(client);
        if found.iter().all(Option::is_some) {
            return found.map(Option::unwrap);
        }
    }
    panic!("200 connections all landed on one core");
}

/// Wake-ups, sequential: 50 never-seen classes, one at a time, each a
/// miss that parks its connection on a ticket. Every answer must come
/// from the ticket's wake, not from the loop's 200 ms `epoll_wait`
/// timeout: the bound is loose for CI, yet 50 lost wakes would take 10 s.
#[test]
fn sequential_misses_are_answered_without_waiting_out_the_poll_interval() {
    let classes = fresh_classes(50);
    for (tag, config) in [
        ("epoll-1", ServeConfig::new()),
        ("scan-1", ServeConfig::new().portable_poll(true)),
    ] {
        let server = Server::bind(suite(), &config).expect("bind loopback");
        if config.portable_poll {
            assert_eq!(server.readiness(), "scan");
        } else if cfg!(target_os = "linux") {
            assert_eq!(server.readiness(), "epoll+eventfd");
        }
        let handle = server.spawn();
        let mut client =
            Client::connect_with_timeout(handle.addr(), Duration::from_secs(30)).unwrap();
        let start = Instant::now();
        for &f in &classes {
            assert_eq!(client.query(f).unwrap().perm(4), f, "[{tag}]");
        }
        let elapsed = start.elapsed();
        let stats = client.stats().unwrap();
        assert_eq!(stats.cache_misses, 50, "[{tag}] every query a miss");
        assert_eq!(stats.searches, 50, "[{tag}] every miss a ticket");
        assert!(
            elapsed < Duration::from_secs(5),
            "[{tag}] 50 misses took {elapsed:?}: ticket wake-ups are being lost"
        );
        client.shutdown_server().unwrap();
        assert_eq!(handle.join().unwrap().errors, 0, "[{tag}]");
    }
}

/// Wake-ups, coalesced across cores: each round one connection on each
/// of two loops asks for the same never-seen class, the second while
/// the first's search (held 50 ms by the fault plan) is in flight, so
/// both hold one ticket and both cores must be woken when it resolves.
/// Twenty rounds take about 1 s; twenty lost wakes would take over 4 s.
#[test]
fn a_coalesced_miss_wakes_every_core_that_holds_it() {
    let plan = Arc::new(FaultPlan::new(0xC0A1).with_search_delay(Duration::from_millis(50)));
    let handle = start_server(&ServeConfig::new().cores(2).faults(Some(plan)));
    let [mut first, mut second] = client_per_core(handle.addr());
    let classes = fresh_classes(20);
    let start = Instant::now();
    for &f in &classes {
        std::thread::scope(|s| {
            let early = s.spawn(|| first.query(f));
            std::thread::sleep(Duration::from_millis(5));
            assert_eq!(second.query(f).unwrap().perm(4), f);
            assert_eq!(early.join().unwrap().unwrap().perm(4), f);
        });
    }
    let elapsed = start.elapsed();
    let stats = first.stats().unwrap();
    assert_eq!(stats.searches, 20, "{stats:?}");
    assert_eq!(
        stats.coalesced, 20,
        "every second query rode the first's ticket"
    );
    assert!(
        elapsed < Duration::from_secs(3),
        "20 coalesced rounds took {elapsed:?}: a core's ticket wake-ups are being lost"
    );
    first.shutdown_server().unwrap();
    assert_eq!(handle.join().unwrap().errors, 0);
}
