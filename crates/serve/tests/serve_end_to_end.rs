//! End-to-end service behavior over real sockets: cache semantics
//! across class members, request coalescing under concurrent clients,
//! stats accounting, error paths and graceful shutdown.

use std::sync::{Arc, Barrier};
use std::time::Duration;

use revsynth_circuit::{Circuit, CostKind, CostModel};
use revsynth_core::{SuiteConfig, SynthesisSuite, Synthesizer};
use revsynth_perm::Perm;
use revsynth_serve::{Client, ClientError, QueryOptions, ServeConfig, Server, ServerHandle};

fn start_server(k: usize, workers: usize) -> ServerHandle {
    let suite = Arc::new(SynthesisSuite::new(
        Synthesizer::from_scratch(4, k),
        SuiteConfig {
            quantum_budget: 7,
            depth_budget: 2,
        },
    ));
    let config = ServeConfig {
        workers,
        ..ServeConfig::default()
    };
    Server::bind(suite, &config).expect("bind loopback").spawn()
}

#[test]
fn class_members_are_served_from_one_search() {
    let handle = start_server(2, 1);
    let mut client = Client::connect(handle.addr()).unwrap();

    // rd32 (4 gates) and several members of its class.
    let base: Circuit = "TOF(a,b,d) CNOT(a,b) TOF(b,c,d) CNOT(b,c)".parse().unwrap();
    let f = base.perm(4);
    let first = client.query(f).unwrap();
    assert_eq!(first.perm(4), f);
    assert_eq!(first.len(), 4, "provably minimal");
    let after_first = client.stats().unwrap();
    assert_eq!(after_first.searches, 1);
    assert_eq!(after_first.cache_misses, 1);

    // Distinct members: relabelings and the inverse. All must be
    // answered exactly, at the same cost, with zero further searches.
    let members = [
        f.inverse(),
        f.conjugate_by_wires(revsynth_perm::WirePerm::transposition(0, 2)),
        f.conjugate_by_wires(revsynth_perm::WirePerm::transposition(1, 3))
            .inverse(),
    ];
    for member in members {
        let circuit = client.query(member).unwrap();
        assert_eq!(circuit.perm(4), member);
        assert_eq!(circuit.len(), 4, "replay is cost-preserving");
    }
    let stats = client.stats().unwrap();
    assert_eq!(stats.searches, 1, "warm path must not search");
    assert_eq!(
        stats.cache_hits,
        after_first.cache_hits + members.len() as u64
    );
    assert_eq!(stats.requests, 1 + members.len() as u64);
    assert_eq!(stats.errors, 0);
    assert_eq!(stats.cached_classes, 1);

    client.shutdown_server().unwrap();
    let final_stats = handle.join().unwrap();
    assert_eq!(final_stats.searches, 1);
}

#[test]
fn concurrent_clients_coalesce_on_a_cold_class() {
    let handle = start_server(3, 1);
    let addr = handle.addr();

    // A size-6 function: the miss does real meet-in-the-middle work,
    // holding the in-flight window open while the other clients arrive.
    let base: Circuit = "TOF(a,b,d) CNOT(a,b) TOF(b,c,d) CNOT(b,c) NOT(a) TOF(a,c,b)"
        .parse()
        .unwrap();
    let f = base.perm(4);
    let clients = 4;
    let barrier = Barrier::new(clients);
    let circuits: Vec<Circuit> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    // Distinct members of one class, queried at once.
                    let member = if c % 2 == 0 { f } else { f.inverse() };
                    barrier.wait();
                    let circuit = client.query(member).unwrap();
                    assert_eq!(circuit.perm(4), member);
                    circuit
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for c in &circuits {
        assert_eq!(c.len(), circuits[0].len(), "one class, one cost");
    }

    let mut client = Client::connect(addr).unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(stats.requests, clients as u64);
    assert_eq!(stats.searches, 1, "one search served all four clients");
    assert_eq!(
        stats.cache_hits + stats.cache_misses,
        clients as u64,
        "every request either hit or missed"
    );
    // The misses beyond the first either coalesced onto the in-flight
    // ticket or arrived after the cache was filled; all outcomes are
    // search-free. coalesced counts the former.
    assert_eq!(stats.errors, 0);

    client.shutdown_server().unwrap();
    handle.join().unwrap();
}

#[test]
fn cost_models_get_distinct_cache_entries_and_correct_circuits() {
    let handle = start_server(2, 1);
    let mut client = Client::connect(handle.addr()).unwrap();

    // TOF(a,b,c) NOT(d): 2 gates, quantum cost 5 + 1, depth 1 (disjoint).
    let base: Circuit = "TOF(a,b,c) NOT(d)".parse().unwrap();
    let f = base.perm(4);

    let gates = client.query(f).unwrap();
    assert_eq!(gates.perm(4), f);
    assert_eq!(gates.len(), 2, "gate-count optimal");

    let quantum = client
        .query_opts(f, &QueryOptions::new().cost_model(CostKind::Quantum))
        .unwrap();
    assert_eq!(quantum.perm(4), f);
    assert_eq!(quantum.cost(&CostModel::quantum()), 6, "quantum optimal");

    let depth = client
        .query_opts(f, &QueryOptions::new().cost_model(CostKind::Depth))
        .unwrap();
    assert_eq!(depth.perm(4), f);
    assert_eq!(depth.depth(), 1, "the two gates share a time step");

    // Same function, three models ⇒ three cache entries, three
    // searches, zero coalescing across models.
    let stats = client.stats().unwrap();
    assert_eq!(stats.cached_classes, 3, "one entry per (model, class)");
    assert_eq!(stats.searches, 3);
    assert_eq!(stats.cache_misses, 3);
    assert_eq!(stats.coalesced, 0);

    // A different member of the same class under quantum is a warm hit
    // at identical cost: replay preserves every model's measure.
    let member = f.inverse();
    let replayed = client
        .query_opts(member, &QueryOptions::new().cost_model(CostKind::Quantum))
        .unwrap();
    assert_eq!(replayed.perm(4), member);
    assert_eq!(replayed.cost(&CostModel::quantum()), 6);
    let warm = client.stats().unwrap();
    assert_eq!(warm.searches, 3, "no further search");
    assert_eq!(warm.cache_hits, stats.cache_hits + 1);

    // Beyond-budget depth queries fail cleanly per model without
    // disturbing the others (SWAP(a,b) needs depth 3 > budget 2).
    let swap: Circuit = "CNOT(a,b) CNOT(b,a) CNOT(a,b)".parse().unwrap();
    match client.query_opts(
        swap.perm(4),
        &QueryOptions::new().cost_model(CostKind::Depth),
    ) {
        Err(ClientError::Server(_)) => {}
        other => panic!("expected a server error, got {other:?}"),
    }
    assert_eq!(
        client.query(swap.perm(4)).unwrap().len(),
        3,
        "gates still fine"
    );

    client.shutdown_server().unwrap();
    handle.join().unwrap();
}

#[test]
fn domain_and_reach_errors_are_reported_not_fatal() {
    let handle = start_server(2, 1);
    let mut client = Client::connect(handle.addr()).unwrap();

    // Beyond the k = 2 tables' reach (size > 4).
    let hard = Perm::from_values(&[15, 1, 12, 3, 5, 6, 8, 7, 0, 10, 13, 9, 2, 4, 14, 11]).unwrap();
    match client.query(hard) {
        Err(ClientError::Server(msg)) => {
            assert!(msg.contains("no circuit"), "{msg}");
        }
        other => panic!("expected a server error, got {other:?}"),
    }
    // The connection and the server survive; valid queries still work.
    let ok = Perm::from_values(&[1, 0, 3, 2, 5, 4, 7, 6, 9, 8, 11, 10, 13, 12, 15, 14]).unwrap();
    assert_eq!(client.query(ok).unwrap().len(), 1, "NOT(a) is one gate");
    let stats = client.stats().unwrap();
    assert_eq!(stats.errors, 1);
    assert_eq!(stats.requests, 2);
    assert!(stats.p99_latency_us >= stats.p50_latency_us);

    client.shutdown_server().unwrap();
    handle.join().unwrap();
}

#[test]
fn identity_and_single_gates_roundtrip() {
    let handle = start_server(2, 1);
    let mut client = Client::connect(handle.addr()).unwrap();
    let id = Perm::identity();
    let circuit = client.query(id).unwrap();
    assert!(circuit.is_empty(), "identity is the empty circuit");
    for (_, _, p) in revsynth_circuit::GateLib::nct(4).iter() {
        let c = client.query(p).unwrap();
        assert_eq!(c.len(), 1);
        assert_eq!(c.perm(4), p);
    }
    client.shutdown_server().unwrap();
    handle.join().unwrap();
}

#[test]
fn shutdown_is_graceful_and_final() {
    let handle = start_server(2, 2);
    let addr = handle.addr();
    let mut client = Client::connect(addr).unwrap();
    let f = Perm::from_values(&[1, 0, 3, 2, 5, 4, 7, 6, 9, 8, 11, 10, 13, 12, 15, 14]).unwrap();
    client.query(f).unwrap();
    client.shutdown_server().unwrap();
    let stats = handle.join().unwrap();
    assert_eq!(stats.requests, 1);
    assert_eq!(stats.errors, 0);
    // The listener is gone: a fresh connection must fail (immediately
    // or at first use), not hang.
    match Client::connect_with_timeout(addr, Duration::from_millis(500)) {
        Err(_) => {}
        Ok(mut c) => assert!(c.stats().is_err(), "server must be down"),
    }
}

#[test]
fn loadgen_quick_run_is_clean() {
    let handle = start_server(3, 1);
    let addr = handle.addr();
    let config = revsynth_serve::loadgen::LoadgenConfig::quick(7);
    let report = revsynth_serve::loadgen::run(addr, 4, &config).expect("loadgen runs");
    assert_eq!(report.errors, 0, "all queries verified: {report:?}");
    // At least the two configured phases ran; the bounded coalescing
    // retries may add extra rendezvous rounds on fresh classes.
    assert!(
        report.successes >= (config.clients * (config.requests_per_client + config.pool)) as u64
    );
    // The class pools are tiny: at most `pool` classes per attempt
    // (initial + up to 2 retries) are ever searched; hits dominate.
    assert!(report.stats.searches <= 3 * config.pool as u64);
    assert!(report.stats.cache_hits > report.stats.searches);
    assert!(report.throughput() > 0.0);

    Client::connect(addr).unwrap().shutdown_server().unwrap();
    handle.join().unwrap();
}
