//! The synthesis service layer: serve optimal-circuit queries at
//! traffic scale by paying for **one search per equivalence class**.
//!
//! The construction this whole repository reproduces (DAC 2010) hinges
//! on the ×48 class reduction: up to `2·n!` functions share a canonical
//! representative, and a minimal circuit for any of them is a wire
//! relabeling (plus possibly a gate-string reversal) of a minimal
//! circuit for the representative. PRs 1–2 made a *single* search fast;
//! this crate makes searches **rare**:
//!
//! * [`ClassCache`] — a sharded-LRU result cache keyed by canonical
//!   representative. Any member of a cached class is answered by
//!   *replaying* the stored circuit through the query's
//!   canonicalization witness ([`revsynth_canon::replay_for_witness`])
//!   — exact and cost-preserving, no search, no table probe.
//! * [`Scheduler`] — a request-coalescing batch scheduler. Concurrent
//!   cache misses for one class share a single search; queued misses
//!   for *different* classes are drained together into one
//!   [`Synthesizer::synthesize_many`] call, amortizing the
//!   meet-in-the-middle level scans across the batch.
//! * [`Server`] / [`Client`] — a std-only, length-prefixed binary
//!   protocol over `std::net` TCP ([`protocol`]), with a [`ServeStats`]
//!   snapshot endpoint (requests, coalesced, cache hits, searches,
//!   p50/p99 latency) and graceful shutdown. The server runs
//!   [`ServeConfig::cores`] pinned event loops (`SO_REUSEPORT`
//!   listeners + epoll where available, a portable scan loop
//!   elsewhere) over non-blocking connection state machines; cache
//!   misses park on scheduler tickets instead of blocking (an eventfd
//!   wakes the core the moment its ticket resolves), and each core
//!   feeds its own miss lane with cross-core stealing only on
//!   imbalance.
//! * [`loadgen`] — a deterministic closed-loop load generator used by
//!   the CLI `loadgen` command and the CI serve jobs.
//! * **Overload control** — the miss queue is bounded per cost model
//!   and saturation is shed with typed `Overloaded` frames (retry
//!   hint included) while cache hits keep being served; requests may
//!   carry deadlines that expire queued work *before* it is searched;
//!   a [`QueryOptions::retry`] policy backs off with jitter
//!   ([`RetryPolicy`]). The [`fault`] module injects deterministic
//!   latency, failures and torn connections so all of this is testable.
//! * **Warm restarts** — the cache persists across process deaths via
//!   the [`snapshot`] module: checksummed, atomically-written snapshots
//!   restored (and revalidated record by record) at boot, written
//!   periodically and at graceful shutdown. Scheduler workers are
//!   supervised — a panicking worker is respawned and its batch failed
//!   cleanly — and a `Health` probe ([`Client::health`],
//!   [`HealthReport`]) reports uptime, restore count, live workers and
//!   snapshot age.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use revsynth_core::{SuiteConfig, SynthesisSuite, Synthesizer};
//! use revsynth_serve::{Client, ServeConfig, Server};
//!
//! let suite = Arc::new(SynthesisSuite::new(
//!     Synthesizer::from_scratch(4, 2),
//!     SuiteConfig { quantum_budget: 6, depth_budget: 2 },
//! ));
//! let server = Server::bind(suite, ServeConfig::new())?;
//! let addr = server.local_addr();
//! let handle = server.spawn();
//!
//! let mut client = Client::connect(addr)?;
//! let rd32 = revsynth_perm::Perm::from_values(
//!     &[0, 7, 6, 9, 4, 11, 10, 13, 8, 15, 14, 1, 12, 3, 2, 5],
//! )?;
//! let circuit = client.query(rd32).unwrap();
//! assert_eq!(circuit.perm(4), rd32);
//! assert_eq!(circuit.len(), 4); // provably minimal
//!
//! // A second member of the same class is served from the cache.
//! let stats = client.stats().unwrap();
//! assert_eq!(stats.searches, 1);
//! client.shutdown_server().unwrap();
//! handle.join()?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! [`Synthesizer::synthesize_many`]: revsynth_core::Synthesizer::synthesize_many

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod client;
pub mod fault;
pub mod loadgen;
pub mod protocol;
mod scheduler;
mod server;
pub mod snapshot;
mod stats;

pub use cache::{CacheCounters, ClassCache};
pub use client::{Client, ClientError, QueryOptions, RetryPolicy};
pub use fault::{FaultCounters, FaultPlan};
pub use scheduler::{
    Scheduler, SchedulerCounters, SchedulerMetrics, SchedulerOptions, ServeError, Submission,
    TicketHandle,
};
pub use server::{RestoreSummary, ServeConfig, Server, ServerHandle};
pub use stats::{FieldKind, HealthReport, LatencyHistogram, ServeStats};
