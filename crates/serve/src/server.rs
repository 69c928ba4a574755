//! The TCP synthesis server: thread-per-core event loops, non-blocking
//! connection state machines, the stats endpoint and graceful shutdown.
//!
//! A query's hot path is: read frame → decode → canonicalize
//! ([`Symmetries::canonicalize`], the shuffle kernel) → [`ClassCache`]
//! lookup → replay the cached representative circuit through the
//! witness ([`replay_for_witness`]) → write frame. No search, no table
//! probe: the warm path's cost is two syscalls and a few microseconds of
//! CPU. Only cache misses reach the [`Scheduler`], where concurrent
//! misses for one class coalesce into a single batched search.
//!
//! # Horizontal structure
//!
//! The server runs [`ServeConfig::cores`] independent **event loops**,
//! each pinned to its CPU and owning its own listener. On Linux the
//! listeners share one port via `SO_REUSEPORT` (raw syscalls in
//! `revsynth_mmap::net`, same std-only pattern as the mmap path) so the
//! kernel load-balances accepts across cores; elsewhere the loops share
//! a single std listener. Readiness comes from `epoll(7)` where
//! available, with a portable scan-loop fallback over non-blocking
//! sockets ([`ServeConfig::portable_poll`] forces it for tests).
//!
//! Connections are non-blocking state machines, not threads: a
//! [`FrameReader`] reassembles trickled request frames across readiness
//! ticks, a [`FrameWriter`] resumes partially written responses, and a
//! cache miss parks the connection on a scheduler ticket
//! ([`Scheduler::submit`]) instead of blocking the loop — the core
//! keeps serving its other connections while the batch search runs.
//! Each core submits misses to its own scheduler lane; an idle worker
//! steals from the longest sibling lane only on imbalance.
//!
//! **Warm restarts**: with a snapshot path configured, [`Server::bind`]
//! restores the class cache from the checksummed on-disk snapshot
//! before accepting a single connection — every record is validated
//! (checksum, then replay against its representative) and corrupt ones
//! are skipped and counted; an unreadable snapshot is quarantined to
//! `<path>.corrupt` and the server boots cold. A background thread
//! re-snapshots the cache on an interval, and graceful shutdown writes
//! one final snapshot after the scheduler drains, so the next boot is
//! as warm as this one was. Every write is atomic (temp file + fsync +
//! rename), so a SIGKILL at any instant costs at most the work since
//! the previous snapshot — never the snapshot itself.
//!
//! Shutdown: any client may send a shutdown frame. The flag flips and
//! every core loop winds down: no new accepts, no new frames read,
//! in-flight tickets are served to completion and their responses
//! flushed. Only after **every** core's loop has exited — no core holds
//! a queued or in-flight ticket — does the scheduler drain and the
//! final snapshot get written, so the file on disk reflects every
//! search any core completed. [`Server::run`] then returns the final
//! [`ServeStats`].
//!
//! [`Symmetries::canonicalize`]: revsynth_canon::Symmetries::canonicalize
//! [`replay_for_witness`]: revsynth_canon::replay_for_witness

use std::io;
use std::net::{Ipv4Addr, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use revsynth_canon::{replay_for_witness, Canonicalized};
use revsynth_circuit::CostKind;
use revsynth_core::{SearchOptions, SynthesisSuite};
use revsynth_mmap::net;
use revsynth_obs::{Counter, Gauge, Histogram, Registry, SpanIds, Stage, Trace, TraceRing};
use revsynth_perm::Perm;

use crate::cache::ClassCache;
use crate::fault::FaultPlan;
use crate::protocol::{self, write_frame, FrameReader, FrameWriter, Request, Response};
use crate::scheduler::{
    Scheduler, SchedulerMetrics, SchedulerOptions, ServeError, Submission, TicketHandle,
};
use crate::snapshot::{self, RestoreOutcome, SnapshotRecord};
use crate::stats::{HealthReport, LatencyHistogram, ServeStats};

/// How long an idle event loop sleeps in `epoll_wait` before re-checking
/// the shutdown flag. Bounds shutdown latency; incoming traffic wakes
/// the loop immediately regardless.
const POLL_INTERVAL: Duration = Duration::from_millis(200);

/// Wait bound during shutdown wind-down: the loop must keep re-checking
/// the write-stall grace clock even with no readiness events.
const BUSY_WAIT_MS: i32 = 1;

/// Tick while any connection holds an in-flight ticket: tickets are
/// resolved by polling (they have no file descriptor epoll could watch),
/// and a millisecond-granularity `epoll_wait` timeout would add up to a
/// full millisecond of latency to every cache miss. Instead the loop
/// polls readiness without blocking and sleeps this long when idle —
/// short enough to keep miss latency close to the search time, long
/// enough that the poll steals only a few percent of the CPU a search
/// worker needs on a saturated host.
const TICKET_POLL_TICK: Duration = Duration::from_micros(100);

/// The scan-fallback tick: without epoll the loop cannot be woken by
/// readiness, so it polls every socket at this cadence.
const SCAN_TICK: Duration = Duration::from_millis(1);

/// Scan-fallback tick with no connections at all (accept latency only).
const SCAN_IDLE_TICK: Duration = Duration::from_millis(10);

/// How long shutdown waits for a write-stalled peer (queued response
/// bytes, no in-flight ticket) to drain before force-closing it. A
/// connection waiting on a ticket is never force-closed — searches
/// terminate, and its answer belongs in the final snapshot.
const SHUTDOWN_WRITE_GRACE: Duration = Duration::from_secs(5);

/// The readiness token registered for a core's listener.
const LISTENER_TOKEN: u64 = u64::MAX;

/// Capacity of the rolling all-requests trace ring (served by the
/// `Traces` frame; [`render_trace_json`] bounds the reply to the frame
/// cap, so the ring may hold more traces than one reply can carry).
const TRACE_RING_CAPACITY: usize = 1024;

/// Capacity of the slow-query trace ring (served by the `SlowQueries`
/// frame, bounded the same way).
const SLOW_RING_CAPACITY: usize = 256;

/// The unified server configuration: one builder covering core count,
/// listeners, cache, queues, deadlines, faults, snapshots and
/// observability.
///
/// Construct with [`ServeConfig::new`] (or `default()`) and chain
/// setters; every field is also public for struct-literal updates.
/// [`Server::bind`] accepts `&ServeConfig` or `ServeConfig`.
///
/// ```
/// # use revsynth_serve::ServeConfig;
/// let config = ServeConfig::new().cores(2).cache_capacity(1 << 16).max_queue(64);
/// assert_eq!(config.cores, 2);
/// ```
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Loopback port to bind (0 picks a free port; see
    /// [`Server::local_addr`]).
    pub port: u16,
    /// Core-pinned event loops, each with its own listener and its own
    /// scheduler miss lane. `1` (the default) serves everything from a
    /// single loop; values are clamped up to 1. See
    /// [`available_parallelism`](std::thread::available_parallelism)
    /// for a hardware-matched choice.
    pub cores: usize,
    /// Scheduler worker threads (each runs batched searches).
    pub workers: usize,
    /// Class-cache capacity in entries. The shard count scales with
    /// [`cores`](Self::cores) so per-core loops don't serialize on
    /// cache locks.
    pub cache_capacity: usize,
    /// Search options for the batched synthesizer calls (thread count,
    /// invariant gate, probe depth).
    pub search: SearchOptions,
    /// Scheduler group-commit window: a worker that finds a queued miss
    /// waits this long before draining, so near-simultaneous misses
    /// form one batch and same-class misses reliably coalesce. Zero
    /// (the default) drains immediately — lowest cold latency, batches
    /// only form under genuine queueing.
    pub batch_linger: Duration,
    /// Maximum queued (not yet drained) class searches per cost model;
    /// misses beyond this are shed with an `Overloaded` frame instead
    /// of queueing unboundedly. `0` (the default) = unbounded. Cache
    /// hits are unaffected — the warm path keeps serving at any queue
    /// depth.
    pub max_queue: usize,
    /// Maximum concurrently served connections across all cores;
    /// accepts beyond this are answered with one serialized
    /// `Overloaded` frame and closed. `0` (the default) = unbounded.
    pub max_conns: usize,
    /// The retry hint carried by `Overloaded` responses, milliseconds.
    pub retry_after_ms: u32,
    /// Deterministic fault injection at the scheduler's search boundary
    /// (chaos tests, `loadgen --overload`); `None` in production.
    pub faults: Option<Arc<FaultPlan>>,
    /// Snapshot path: restore the cache from it at boot (tolerating
    /// torn tails and bitflips), snapshot to it on graceful shutdown
    /// and, when [`snapshot_interval`](Self::snapshot_interval) is set,
    /// periodically. `None` (the default) disables persistence.
    pub snapshot: Option<PathBuf>,
    /// How often the background snapshotter re-writes the snapshot;
    /// `None` (the default) snapshots only at graceful shutdown.
    /// Ignored without a [`snapshot`](Self::snapshot) path.
    pub snapshot_interval: Option<Duration>,
    /// Requests whose total handling time reaches this many microseconds
    /// are copied into the slow-query ring (retrievable with a
    /// `SlowQueries` frame). `0` (the default) captures none. Has no
    /// effect when [`instrumentation`](Self::instrumentation) is off.
    pub slow_query_us: u64,
    /// Master switch for per-request observability: trace spans, the
    /// per-stage latency histograms, engine profiling counters and the
    /// trace rings. On by default; turning it off removes every
    /// per-request `Instant` read and ring write from the hot path
    /// (perfbench's `obs.overhead_pct` measures the difference). The
    /// metrics endpoint itself keeps working either way — the
    /// [`ServeStats`] view is maintained regardless.
    pub instrumentation: bool,
    /// Forces the portable scan-poll readiness backend even where epoll
    /// is available. The fallback is automatic on platforms without
    /// epoll; this knob exists so tests exercise that path everywhere.
    pub portable_poll: bool,
}

impl Default for ServeConfig {
    /// One core, one worker, a 64k-class cache, serial searches, no
    /// linger, unbounded queue and connections, a 100 ms retry hint, no
    /// fault injection, an ephemeral port.
    fn default() -> Self {
        ServeConfig {
            port: 0,
            cores: 1,
            workers: 1,
            cache_capacity: 1 << 16,
            search: SearchOptions::new().threads(1),
            batch_linger: Duration::ZERO,
            max_queue: 0,
            max_conns: 0,
            retry_after_ms: 100,
            faults: None,
            snapshot: None,
            snapshot_interval: None,
            slow_query_us: 0,
            instrumentation: true,
            portable_poll: false,
        }
    }
}

impl ServeConfig {
    /// The default configuration (see [`Default`]).
    #[must_use]
    pub fn new() -> Self {
        ServeConfig::default()
    }

    /// Sets the loopback port ([`port`](Self::port)).
    #[must_use]
    pub fn port(mut self, port: u16) -> Self {
        self.port = port;
        self
    }

    /// Sets the event-loop count ([`cores`](Self::cores)).
    #[must_use]
    pub fn cores(mut self, cores: usize) -> Self {
        self.cores = cores;
        self
    }

    /// Sets the scheduler worker count ([`workers`](Self::workers)).
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the class-cache capacity
    /// ([`cache_capacity`](Self::cache_capacity)).
    #[must_use]
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// Sets the search options ([`search`](Self::search)).
    #[must_use]
    pub fn search(mut self, search: SearchOptions) -> Self {
        self.search = search;
        self
    }

    /// Sets the group-commit window ([`batch_linger`](Self::batch_linger)).
    #[must_use]
    pub fn batch_linger(mut self, linger: Duration) -> Self {
        self.batch_linger = linger;
        self
    }

    /// Sets the per-model miss-queue bound ([`max_queue`](Self::max_queue)).
    #[must_use]
    pub fn max_queue(mut self, max_queue: usize) -> Self {
        self.max_queue = max_queue;
        self
    }

    /// Sets the connection cap ([`max_conns`](Self::max_conns)).
    #[must_use]
    pub fn max_conns(mut self, max_conns: usize) -> Self {
        self.max_conns = max_conns;
        self
    }

    /// Sets the overload retry hint ([`retry_after_ms`](Self::retry_after_ms)).
    #[must_use]
    pub fn retry_after_ms(mut self, ms: u32) -> Self {
        self.retry_after_ms = ms;
        self
    }

    /// Sets the fault-injection plan ([`faults`](Self::faults)).
    #[must_use]
    pub fn faults(mut self, faults: Option<Arc<FaultPlan>>) -> Self {
        self.faults = faults;
        self
    }

    /// Sets the snapshot path ([`snapshot`](Self::snapshot)).
    #[must_use]
    pub fn snapshot(mut self, path: Option<PathBuf>) -> Self {
        self.snapshot = path;
        self
    }

    /// Sets the periodic snapshot interval
    /// ([`snapshot_interval`](Self::snapshot_interval)).
    #[must_use]
    pub fn snapshot_interval(mut self, every: Option<Duration>) -> Self {
        self.snapshot_interval = every;
        self
    }

    /// Sets the slow-query capture threshold
    /// ([`slow_query_us`](Self::slow_query_us)).
    #[must_use]
    pub fn slow_query_us(mut self, us: u64) -> Self {
        self.slow_query_us = us;
        self
    }

    /// Toggles per-request observability
    /// ([`instrumentation`](Self::instrumentation)).
    #[must_use]
    pub fn instrumentation(mut self, on: bool) -> Self {
        self.instrumentation = on;
        self
    }

    /// Forces the scan-poll readiness backend
    /// ([`portable_poll`](Self::portable_poll)).
    #[must_use]
    pub fn portable_poll(mut self, on: bool) -> Self {
        self.portable_poll = on;
        self
    }
}

impl From<&ServeConfig> for ServeConfig {
    fn from(config: &ServeConfig) -> ServeConfig {
        config.clone()
    }
}

/// Observability state shared by every core: the metrics registry
/// and its handles, the trace rings and the span-id generator.
struct Observability {
    /// Per-request tracing on/off ([`ServeConfig::instrumentation`]).
    enabled: bool,
    /// Slow-query threshold, µs; `0` captures none.
    slow_query_us: u64,
    registry: Registry,
    /// Per-stage span durations, indexed by [`Stage::index`]. Only
    /// stages that actually ran (nonzero µs) are recorded, so a cache
    /// hit does not drag the search stages' quantiles to zero.
    stage_latency: [Histogram; Stage::COUNT],
    /// Snapshot write durations (one sample per completed write).
    snapshot_write_us: Histogram,
    /// Duration of the restore-at-boot pass, µs (0 = cold boot).
    snapshot_restore_us: Gauge,
    /// Admitted-but-undrained searches per cost model, refreshed at
    /// scrape time; indexed by [`CostKind::code`].
    queue_depth: [Gauge; CostKind::ALL.len()],
    /// Scheduler workers inside their supervised loop, refreshed at
    /// scrape time.
    live_workers: Gauge,
    /// Resident cache entries per shard, refreshed at scrape time.
    shard_entries: Vec<Gauge>,
    /// Rolling ring of the most recent request traces, slow or not
    /// (retrievable with a `Traces` frame).
    traces: TraceRing,
    /// Ring of requests that crossed the slow-query threshold.
    slow: TraceRing,
    span_ids: SpanIds,
}

impl Observability {
    fn new(config: &ServeConfig, shards: usize, seed: u64) -> Self {
        let registry = Registry::default();
        let stage_latency = Stage::ALL.map(|stage| {
            registry.histogram(
                "revsynth_stage_latency_us",
                &[("stage", stage.name())],
                "Per-request pipeline span duration by stage, microseconds",
            )
        });
        let queue_depth = CostKind::ALL.map(|kind| {
            registry.gauge(
                "revsynth_queue_depth",
                &[("model", kind.as_str())],
                "Admitted but not yet drained class searches per cost model",
            )
        });
        let shard_entries = (0..shards)
            .map(|i| {
                let shard = i.to_string();
                registry.gauge(
                    "revsynth_cache_shard_entries",
                    &[("shard", &shard)],
                    "Resident class-cache entries per shard",
                )
            })
            .collect();
        Observability {
            enabled: config.instrumentation,
            slow_query_us: config.slow_query_us,
            stage_latency,
            snapshot_write_us: registry.histogram(
                "revsynth_snapshot_write_us",
                &[],
                "Duration of each completed cache snapshot write, microseconds",
            ),
            snapshot_restore_us: registry.gauge(
                "revsynth_snapshot_restore_us",
                &[],
                "Duration of the restore-at-boot pass, microseconds (0 on a cold boot)",
            ),
            queue_depth,
            live_workers: registry.gauge(
                "revsynth_live_workers",
                &[],
                "Scheduler workers currently inside their supervised loop",
            ),
            shard_entries,
            traces: TraceRing::new(TRACE_RING_CAPACITY),
            slow: TraceRing::new(SLOW_RING_CAPACITY),
            span_ids: SpanIds::new(seed),
            registry,
        }
    }

    /// Registry handles for the scheduler's engine profiling, when
    /// instrumentation is on.
    fn scheduler_metrics(&self) -> Option<SchedulerMetrics> {
        self.enabled.then(|| SchedulerMetrics {
            considered: self.registry.counter(
                "revsynth_search_considered",
                &[],
                "Candidate circuits considered by the engine's frame scans",
            ),
            gated: self.registry.counter(
                "revsynth_search_gated",
                &[],
                "Candidates rejected by the invariant gate before canonicalization",
            ),
            canonicalized: self.registry.counter(
                "revsynth_search_canonicalized",
                &[],
                "Candidates canonicalized (survived the invariant gate)",
            ),
            probed: self.registry.counter(
                "revsynth_search_probed",
                &[],
                "Meet-in-the-middle table probes issued",
            ),
            batch_search_us: self.registry.histogram(
                "revsynth_batch_search_us",
                &[],
                "Wall-clock duration of each batched engine call, microseconds",
            ),
        })
    }

    /// Records a completed request trace: per-stage histograms, the
    /// rolling ring, and — past the threshold — the slow-query ring.
    fn finish(&self, trace: &Trace) {
        for stage in Stage::ALL {
            let us = trace.stage_us(stage);
            if us > 0 {
                self.stage_latency[stage.index()].record(us);
            }
        }
        self.traces.push(trace);
        if self.slow_query_us > 0 && trace.total_us >= self.slow_query_us {
            self.slow.push(trace);
        }
    }
}

/// Per-core metric handles, each in its **own** registry so the hot
/// path touches core-local atomics only; [`render_metrics`] merges the
/// per-core registries with the shared one at scrape time
/// ([`Registry::render_merged`]), deduplicating family headers.
struct CoreObs {
    registry: Registry,
    /// Query requests handled by this core's event loop.
    requests: Counter,
    /// Connections this core's listener accepted.
    accepted: Counter,
}

impl CoreObs {
    fn new(core: usize) -> Self {
        let registry = Registry::new();
        let label = core.to_string();
        let requests = registry.counter(
            "revsynth_core_requests",
            &[("core", &label)],
            "Query requests handled per event-loop core",
        );
        let accepted = registry.counter(
            "revsynth_core_accepted",
            &[("core", &label)],
            "Connections accepted per event-loop core",
        );
        CoreObs {
            registry,
            requests,
            accepted,
        }
    }
}

/// Microseconds elapsed since `start`, saturating.
fn elapsed_us(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// Microseconds from `a` to `b` (zero if `b` is not later), saturating.
/// Used to chain span boundaries without re-reading the clock.
fn us_between(a: Instant, b: Instant) -> u64 {
    u64::try_from(b.duration_since(a).as_micros()).unwrap_or(u64::MAX)
}

/// What restore-on-boot found at the snapshot path (for operator
/// display; the same numbers feed [`ServeStats::restored`] and
/// [`ServeStats::snapshot_skipped`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RestoreSummary {
    /// Records validated and inserted into the cache.
    pub restored: u64,
    /// Records rejected (torn tail, failed checksum, failed replay or
    /// canonicality validation) — skipped, never served.
    pub skipped: u64,
    /// Where an unreadable snapshot was quarantined, if it was; the
    /// server booted cold.
    pub quarantined: Option<PathBuf>,
    /// The rendered reason for quarantine, when one happened.
    pub quarantine_reason: Option<String>,
}

/// Shared state every core's event loop sees.
struct Shared {
    suite: Arc<SynthesisSuite>,
    cache: Arc<ClassCache>,
    scheduler: Scheduler,
    requests: AtomicU64,
    errors: AtomicU64,
    shed_conns: AtomicU64,
    /// Connections currently open across all cores (the `max_conns`
    /// accounting).
    open_conns: AtomicU64,
    max_conns: usize,
    retry_after_ms: u32,
    latency: LatencyHistogram,
    shutdown: AtomicBool,
    addr: SocketAddr,
    started: Instant,
    /// Snapshot path when persistence is on; `None` makes every
    /// snapshot call a no-op.
    snapshot_path: Option<PathBuf>,
    /// Fault plan, consulted for injected snapshot-write pauses.
    faults: Option<Arc<FaultPlan>>,
    restored: AtomicU64,
    snapshot_writes: AtomicU64,
    snapshot_skipped: AtomicU64,
    /// When the last successful snapshot write finished (`None` until
    /// the first one; restore-at-boot does not count — the probe
    /// reports the age of *this process's* persistence, not the
    /// previous incarnation's).
    last_snapshot: Mutex<Option<Instant>>,
    /// Metrics registry, trace rings and span-id state.
    obs: Observability,
    /// Per-core counters, one registry per event loop.
    core_obs: Vec<CoreObs>,
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Shared {
    fn snapshot(&self) -> ServeStats {
        let cache = self.cache.counters();
        let sched = self.scheduler.counters();
        ServeStats {
            wires: self.suite.wires() as u64,
            requests: self.requests.load(Ordering::Relaxed),
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            coalesced: sched.coalesced,
            searches: sched.searches,
            batches: sched.batches,
            max_batch: sched.max_batch,
            evictions: cache.evictions,
            errors: self.errors.load(Ordering::Relaxed),
            cached_classes: cache.len,
            cache_capacity: cache.capacity,
            p50_latency_us: self.latency.quantile(0.5),
            p99_latency_us: self.latency.quantile(0.99),
            shed: sched.shed_total(),
            expired: sched.expired_total(),
            shed_conns: self.shed_conns.load(Ordering::Relaxed),
            restored: self.restored.load(Ordering::Relaxed),
            snapshot_writes: self.snapshot_writes.load(Ordering::Relaxed),
            snapshot_skipped: self.snapshot_skipped.load(Ordering::Relaxed),
            worker_restarts: sched.worker_restarts,
            steals: sched.steals,
        }
    }

    fn health(&self) -> HealthReport {
        let snapshot_age_ms = lock(&self.last_snapshot).map_or(HealthReport::NO_SNAPSHOT, |t| {
            t.elapsed().as_millis().min(u128::from(u64::MAX)) as u64
        });
        HealthReport {
            uptime_ms: self.started.elapsed().as_millis().min(u128::from(u64::MAX)) as u64,
            restored: self.restored.load(Ordering::Relaxed),
            live_workers: self.scheduler.live_workers(),
            snapshot_age_ms,
        }
    }
}

/// Writes one snapshot of the current cache contents, if persistence is
/// on. A write failure is counted as a server error and the previous
/// snapshot (if any) stays in place — persistence degrades, serving
/// does not.
fn write_snapshot_now(shared: &Shared) {
    let Some(path) = shared.snapshot_path.as_deref() else {
        return;
    };
    let records: Vec<SnapshotRecord> = shared
        .cache
        .export()
        .into_iter()
        .map(|(kind, rep, circuit)| SnapshotRecord { kind, rep, circuit })
        .collect();
    let pause = shared
        .faults
        .as_deref()
        .and_then(FaultPlan::next_snapshot_delay);
    let write_start = Instant::now();
    match snapshot::write_snapshot_paced(path, shared.suite.wires(), &records, pause) {
        Ok(_) => {
            shared.obs.snapshot_write_us.record(elapsed_us(write_start));
            shared.snapshot_writes.fetch_add(1, Ordering::Relaxed);
            *lock(&shared.last_snapshot) = Some(Instant::now());
        }
        Err(_) => {
            shared.errors.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// A bound (not yet running) synthesis server.
pub struct Server {
    /// One listener per core: distinct `SO_REUSEPORT` sockets where
    /// available, clones of a single std listener otherwise.
    listeners: Vec<TcpListener>,
    shared: Arc<Shared>,
    snapshot_interval: Option<Duration>,
    portable_poll: bool,
    restore_summary: RestoreSummary,
}

/// Handle to a server running on a background thread
/// ([`Server::spawn`]); joining returns the final stats.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    thread: JoinHandle<io::Result<ServeStats>>,
}

impl ServerHandle {
    /// The server's bound address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Waits for the server to shut down and returns its final stats.
    ///
    /// # Errors
    ///
    /// Propagates a core loop's I/O error, if one died on it; a
    /// panicked server thread is reported as a typed I/O error (and
    /// counted), never re-panicked into the caller.
    pub fn join(self) -> io::Result<ServeStats> {
        match self.thread.join() {
            Ok(result) => result,
            Err(_) => {
                self.shared.errors.fetch_add(1, Ordering::Relaxed);
                Err(io::Error::other("server thread panicked"))
            }
        }
    }
}

/// Binds one listener per core. Multi-core servers try `SO_REUSEPORT`
/// first (kernel-balanced accepts, no shared accept lock); if any
/// listener in the set cannot be created that way — non-Linux, or the
/// kernel refused — every core falls back to a clone of one std
/// listener and shares its accept queue.
fn bind_listeners(port: u16, cores: usize) -> io::Result<(Vec<TcpListener>, SocketAddr)> {
    let mut listeners: Vec<TcpListener> = Vec::with_capacity(cores);
    if cores > 1 {
        if let Some(first) = net::reuseport_listener(port) {
            if let Ok(addr) = first.local_addr() {
                let mut rest = Vec::with_capacity(cores - 1);
                for _ in 1..cores {
                    match net::reuseport_listener(addr.port()) {
                        Some(l) => rest.push(l),
                        None => {
                            rest.clear();
                            break;
                        }
                    }
                }
                if rest.len() == cores - 1 {
                    listeners.push(first);
                    listeners.append(&mut rest);
                }
            }
        }
    }
    let addr = if listeners.is_empty() {
        let first = TcpListener::bind((Ipv4Addr::LOCALHOST, port))?;
        let addr = first.local_addr()?;
        for _ in 1..cores {
            listeners.push(first.try_clone()?);
        }
        listeners.insert(0, first);
        addr
    } else {
        listeners[0].local_addr()?
    };
    for listener in &listeners {
        listener.set_nonblocking(true)?;
    }
    Ok((listeners, addr))
}

impl Server {
    /// Binds one listener per configured core and starts the scheduler
    /// workers. Accepts a [`ServeConfig`] by value or reference.
    ///
    /// Queries carry a per-request cost model; the suite's quantum and
    /// depth engines are generated lazily on the first query that needs
    /// them, so a gates-only workload pays nothing for the siblings.
    ///
    /// # Errors
    ///
    /// Propagates bind failures (e.g. the port is taken).
    pub fn bind(suite: Arc<SynthesisSuite>, config: impl Into<ServeConfig>) -> io::Result<Server> {
        let config: ServeConfig = config.into();
        let cores = config.cores.max(1);
        let (listeners, addr) = bind_listeners(config.port, cores)?;
        // Cache shards scale with cores so per-core loops don't
        // serialize on shard mutexes (8 shards per core, the pre-PR-10
        // default at one core).
        let cache = Arc::new(ClassCache::with_shards(config.cache_capacity, cores * 8));
        // Restore before the first accept: a warm restart serves its
        // first query from the restored cache. Nothing here can fail
        // the boot — a missing snapshot is a cold start, an unreadable
        // one is quarantined and *then* a cold start.
        let obs = Observability::new(&config, cache.shard_lens().len(), u64::from(addr.port()));
        let mut restore_summary = RestoreSummary::default();
        let restore_start = Instant::now();
        if let Some(path) = config.snapshot.as_deref() {
            match snapshot::restore(path, suite.wires()) {
                RestoreOutcome::Missing => {}
                RestoreOutcome::Restored { records, skipped } => {
                    restore_summary.skipped = skipped;
                    for record in records {
                        // Belt over the format's suspenders: only
                        // canonical representatives are legal cache
                        // keys (a non-canonical key would never be
                        // looked up, and a *forged* one must not be).
                        if suite.sym().canonical(record.rep) == record.rep {
                            cache.insert(record.kind, record.rep, record.circuit);
                            restore_summary.restored += 1;
                        } else {
                            restore_summary.skipped += 1;
                        }
                    }
                }
                RestoreOutcome::Quarantined { error, quarantine } => {
                    restore_summary.quarantine_reason = Some(error.to_string());
                    restore_summary.quarantined = quarantine;
                }
            }
            obs.snapshot_restore_us.set(elapsed_us(restore_start));
        }
        let scheduler = Scheduler::with_options(
            Arc::clone(&suite),
            Arc::clone(&cache),
            config.workers,
            config.search,
            SchedulerOptions {
                linger: config.batch_linger,
                max_queue: config.max_queue,
                retry_after_ms: config.retry_after_ms,
                faults: config.faults.clone(),
                metrics: obs.scheduler_metrics(),
                // One miss lane per core: each event loop enqueues to
                // its own lane; workers steal across lanes only on
                // imbalance.
                shards: cores,
            },
        );
        Ok(Server {
            listeners,
            snapshot_interval: config.snapshot_interval,
            portable_poll: config.portable_poll,
            shared: Arc::new(Shared {
                suite,
                cache,
                scheduler,
                requests: AtomicU64::new(0),
                errors: AtomicU64::new(0),
                shed_conns: AtomicU64::new(0),
                open_conns: AtomicU64::new(0),
                max_conns: config.max_conns,
                retry_after_ms: config.retry_after_ms,
                latency: LatencyHistogram::new(),
                shutdown: AtomicBool::new(false),
                addr,
                started: Instant::now(),
                snapshot_path: config.snapshot.clone(),
                faults: config.faults.clone(),
                restored: AtomicU64::new(restore_summary.restored),
                snapshot_writes: AtomicU64::new(0),
                snapshot_skipped: AtomicU64::new(restore_summary.skipped),
                last_snapshot: Mutex::new(None),
                obs,
                core_obs: (0..cores).map(CoreObs::new).collect(),
            }),
            restore_summary,
        })
    }

    /// The bound address (useful with port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// What restore-on-boot found (all zeroes when no snapshot path was
    /// configured or no snapshot existed).
    #[must_use]
    pub fn restore_summary(&self) -> &RestoreSummary {
        &self.restore_summary
    }

    /// Runs the per-core event loops until a shutdown request arrives,
    /// then drains every core, the scheduler, and the snapshotter, and
    /// returns the final stats snapshot.
    ///
    /// # Errors
    ///
    /// Propagates a core loop's fatal I/O failure (per-connection
    /// errors are contained in their state machines).
    pub fn run(self) -> io::Result<ServeStats> {
        let Server {
            listeners,
            shared,
            snapshot_interval,
            portable_poll,
            restore_summary: _,
        } = self;
        // The background snapshotter: wakes every poll tick (so
        // shutdown is prompt), writes when the interval has elapsed.
        let snapshotter: Option<JoinHandle<()>> = match snapshot_interval {
            Some(every) if shared.snapshot_path.is_some() => {
                let shared = Arc::clone(&shared);
                Some(std::thread::spawn(move || {
                    let mut last = Instant::now();
                    loop {
                        std::thread::sleep(POLL_INTERVAL.min(every));
                        if shared.shutdown.load(Ordering::SeqCst) {
                            return;
                        }
                        if last.elapsed() >= every {
                            write_snapshot_now(&shared);
                            last = Instant::now();
                        }
                    }
                }))
            }
            _ => None,
        };
        let cores = listeners.len();
        let mut loops = Vec::with_capacity(cores);
        for (core, listener) in listeners.into_iter().enumerate() {
            let shared = Arc::clone(&shared);
            loops.push(std::thread::spawn(move || {
                core_loop(&shared, listener, core, cores, portable_poll)
            }));
        }
        let mut accept_error: Option<io::Error> = None;
        for handle in loops {
            match handle.join() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => accept_error = Some(e),
                Err(_) => {
                    shared.errors.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        // Drain order is the crash-safety contract: every core's loop
        // has exited — no core still holds an in-flight ticket or an
        // unread frame — before the scheduler drains and fails what
        // remains queued, and only THEN is the final snapshot cut. The
        // snapshot therefore sees every search any core completed, and
        // the file on disk is the warmest state this process ever had.
        shared.shutdown.store(true, Ordering::SeqCst);
        shared.scheduler.shutdown();
        debug_assert!(
            shared.scheduler.drained(),
            "scheduler still holds tickets after every core drained"
        );
        if let Some(handle) = snapshotter {
            let _ = handle.join();
        }
        write_snapshot_now(&shared);
        match accept_error {
            Some(e) => Err(e),
            None => Ok(shared.snapshot()),
        }
    }

    /// Runs the server on a background thread; the returned handle
    /// exposes the bound address and joins to the final stats.
    #[must_use]
    pub fn spawn(self) -> ServerHandle {
        let addr = self.local_addr();
        let shared = Arc::clone(&self.shared);
        ServerHandle {
            addr,
            shared,
            thread: std::thread::spawn(move || self.run()),
        }
    }
}

/// The raw descriptor for epoll registration (unix only; the epoll
/// backend cannot be constructed elsewhere, so the stub is never
/// meaningfully called).
#[cfg(unix)]
fn raw_fd<T: std::os::fd::AsRawFd>(t: &T) -> i32 {
    t.as_raw_fd()
}
#[cfg(not(unix))]
fn raw_fd<T>(_t: &T) -> i32 {
    -1
}

/// A cache miss parked on a scheduler ticket: everything needed to
/// finish the query when the batch search resolves.
struct PendingQuery {
    handle: TicketHandle,
    witness: Canonicalized,
    /// When the query frame finished decoding (latency epoch).
    start: Instant,
    /// When the miss was submitted (queue-wait epoch).
    submitted: Instant,
    trace: Option<Trace>,
}

/// One non-blocking connection state machine.
struct Conn {
    stream: TcpStream,
    reader: FrameReader<TcpStream>,
    writer: FrameWriter,
    /// The query parked on a scheduler ticket, if any. While set, no
    /// further frames are read — responses stay in request order and
    /// a flooding client cannot queue unbounded misses.
    inflight: Option<PendingQuery>,
    /// Close once the writer drains (protocol error or shutdown frame).
    closing: bool,
    /// Whether the epoll registration currently includes write
    /// interest (kept in sync with `writer.has_pending()`).
    want_write: bool,
}

impl Conn {
    /// Flushes queued response bytes until drained or the socket stops
    /// accepting. `Ok(true)` = fully drained.
    fn pump_write(&mut self) -> io::Result<bool> {
        let mut sink = &self.stream;
        self.writer.flush_into(&mut sink)
    }
}

/// What a query decode produced: an answer to deliver now, or a ticket
/// to park the connection on.
enum QueryOutcome {
    Ready(Response, Option<Trace>),
    Pending(PendingQuery),
}

/// One core's event loop: accept on this core's listener, pump every
/// connection's reader/writer on readiness, poll parked tickets, and
/// wind down gracefully on shutdown. Fatal listener errors flip the
/// global shutdown flag (so sibling cores exit too) and propagate.
fn core_loop(
    shared: &Shared,
    listener: TcpListener,
    core: usize,
    cores: usize,
    portable_poll: bool,
) -> io::Result<()> {
    if cores > 1 {
        // Best-effort: an unpinned loop is correct, just migratable.
        let _ = net::pin_to_cpu(core);
    }
    let poller = if portable_poll {
        None
    } else {
        net::Poller::new()
    };
    if let Some(p) = &poller {
        // A failed listener registration would mean never seeing
        // accepts; fall back to scanning in that case by dropping the
        // poller (registration failures are kernel-resource errors).
        if !p.add(raw_fd(&listener), LISTENER_TOKEN, false) {
            return core_loop_inner(shared, &listener, core, None);
        }
    }
    core_loop_inner(shared, &listener, core, poller.as_ref())
}

fn core_loop_inner(
    shared: &Shared,
    listener: &TcpListener,
    core: usize,
    poller: Option<&net::Poller>,
) -> io::Result<()> {
    let mut conns: Vec<Option<Conn>> = Vec::new();
    let mut events: Vec<net::Event> = Vec::new();
    let mut shutdown_seen: Option<Instant> = None;
    loop {
        let shutdown = shared.shutdown.load(Ordering::SeqCst);
        if shutdown {
            // Wind down: drop connections with nothing left to deliver;
            // give write-stalled peers a bounded grace, but wait
            // indefinitely on in-flight tickets — searches terminate,
            // and their answers belong in the final snapshot.
            let since = *shutdown_seen.get_or_insert_with(Instant::now);
            let grace_expired = since.elapsed() >= SHUTDOWN_WRITE_GRACE;
            for slot in &mut conns {
                let done = slot.as_ref().is_some_and(|c| {
                    c.inflight.is_none() && (!c.writer.has_pending() || grace_expired)
                });
                if done {
                    close_conn(shared, poller, slot);
                }
            }
            if conns.iter().all(Option::is_none) {
                return Ok(());
            }
        }
        // Write-stalled connections are watched by epoll (write
        // interest is reconciled below), so only ticket-holders force
        // the loop to tick: sub-millisecond via poll-then-nap, because
        // `epoll_wait`'s millisecond timeout floor would tax every
        // cache miss with up to 1 ms of resolution latency.
        let ticket_wait = conns.iter().flatten().any(|c| c.inflight.is_some());
        match poller {
            Some(p) => {
                let timeout = if ticket_wait {
                    0
                } else if shutdown {
                    BUSY_WAIT_MS
                } else {
                    POLL_INTERVAL.as_millis() as i32
                };
                if !p.wait(&mut events, timeout) {
                    // A broken epoll fd is unrecoverable for this loop.
                    shared.shutdown.store(true, Ordering::SeqCst);
                    return Err(io::Error::other("epoll wait failed"));
                }
                if ticket_wait && events.is_empty() {
                    std::thread::sleep(TICKET_POLL_TICK);
                }
            }
            None => {
                // Scan fallback: synthesize readiness for everything
                // each tick; non-blocking I/O makes spurious readiness
                // harmless (it costs one WouldBlock).
                let tick = if ticket_wait || conns.iter().any(Option::is_some) {
                    SCAN_TICK
                } else {
                    SCAN_IDLE_TICK
                };
                std::thread::sleep(tick);
                events.clear();
                events.push(net::Event {
                    token: LISTENER_TOKEN,
                    readable: true,
                    writable: false,
                });
                for (i, slot) in conns.iter().enumerate() {
                    if slot.is_some() {
                        events.push(net::Event {
                            token: i as u64,
                            readable: true,
                            writable: true,
                        });
                    }
                }
            }
        }
        for event in &events {
            if event.token == LISTENER_TOKEN {
                if !shutdown {
                    accept_ready(shared, listener, core, poller, &mut conns)?;
                }
                continue;
            }
            let idx = event.token as usize;
            let Some(Some(conn)) = conns.get_mut(idx) else {
                continue; // closed earlier this round
            };
            if event.readable {
                pump_read(shared, core, conn);
            }
        }
        // Poll parked tickets: a resolved batch search finishes its
        // query here, on the core that owns the connection.
        for slot in conns.iter_mut() {
            let Some(conn) = slot else { continue };
            let resolved = conn.inflight.as_ref().and_then(|p| p.handle.try_result());
            if let Some(result) = resolved {
                let pending = conn.inflight.take().expect("checked above");
                finish_query(shared, conn, pending, result);
                // A frame pipelined behind the parked query may already
                // sit in the reader's buffer — no readiness event will
                // ever re-announce it, so parse it now.
                pump_read(shared, core, conn);
            }
        }
        // Flush writers, reconcile epoll write interest, reap closed
        // connections.
        for (i, slot) in conns.iter_mut().enumerate() {
            let Some(conn) = slot.as_mut() else { continue };
            let mut dead = false;
            if conn.writer.has_pending() {
                dead = conn.pump_write().is_err();
            }
            let want = conn.writer.has_pending();
            if !dead && want != conn.want_write {
                if let Some(p) = poller {
                    let _ = p.modify(raw_fd(&conn.stream), i as u64, want);
                }
                conn.want_write = want;
            }
            if dead || (conn.closing && conn.inflight.is_none() && !conn.writer.has_pending()) {
                close_conn(shared, poller, slot);
            }
        }
    }
}

/// Accepts until the listener would block. Fatal accept errors flip the
/// global shutdown flag so sibling cores exit too.
fn accept_ready(
    shared: &Shared,
    listener: &TcpListener,
    core: usize,
    poller: Option<&net::Poller>,
    conns: &mut Vec<Option<Conn>>,
) -> io::Result<()> {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
            // Transient accept errors (e.g. a peer that reset before
            // the handshake finished) must not kill the server.
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::ConnectionAborted | io::ErrorKind::Interrupted
                ) =>
            {
                continue
            }
            Err(e) => {
                shared.shutdown.store(true, Ordering::SeqCst);
                return Err(e);
            }
        };
        shared.core_obs[core].accepted.inc();
        // The connection cap is global across cores: slots freed by any
        // core are immediately visible to every acceptor.
        if shared.max_conns > 0
            && shared.open_conns.load(Ordering::Relaxed) >= shared.max_conns as u64
        {
            shed_connection(shared, stream);
            continue;
        }
        let _ = stream.set_nodelay(true);
        let reader = match stream.set_nonblocking(true).and(stream.try_clone()) {
            Ok(clone) => FrameReader::new(clone),
            Err(_) => continue,
        };
        shared.open_conns.fetch_add(1, Ordering::Relaxed);
        let idx = conns.iter().position(Option::is_none).unwrap_or_else(|| {
            conns.push(None);
            conns.len() - 1
        });
        if let Some(p) = poller {
            if !p.add(raw_fd(&stream), idx as u64, false) {
                // Unregisterable: close rather than serve a socket the
                // loop would never hear from again.
                shared.open_conns.fetch_sub(1, Ordering::Relaxed);
                continue;
            }
        }
        conns[idx] = Some(Conn {
            stream,
            reader,
            writer: FrameWriter::new(),
            inflight: None,
            closing: false,
            want_write: false,
        });
    }
}

/// Deregisters and drops one connection, releasing its cap slot.
fn close_conn(shared: &Shared, poller: Option<&net::Poller>, slot: &mut Option<Conn>) {
    if let Some(conn) = slot.take() {
        if let Some(p) = poller {
            let _ = p.remove(raw_fd(&conn.stream));
        }
        shared.open_conns.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Sheds one accepted connection at the cap: writes a single serialized
/// `Overloaded` frame (bounded by a write timeout so a glacial peer
/// cannot stall the acceptor) and closes the socket.
fn shed_connection(shared: &Shared, stream: TcpStream) {
    shared.shed_conns.fetch_add(1, Ordering::Relaxed);
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_nodelay(true);
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    let mut writer = io::BufWriter::new(stream);
    let _ = write_frame(
        &mut writer,
        &protocol::encode_response(&Response::Overloaded {
            retry_after_ms: shared.retry_after_ms,
        }),
    );
}

/// Drains every complete frame currently buffered on `conn`. Reading
/// stops while a query is parked on a ticket (responses stay in
/// request order) and resumes when it resolves. Reading also stops on
/// a *short* read — the socket buffer is drained for now, and paying
/// the classic drain-until-would-block syscall per wakeup is wasted
/// work under level-triggered readiness (and under the scan fallback,
/// which synthesizes readiness every tick regardless).
fn pump_read(shared: &Shared, core: usize, conn: &mut Conn) {
    let mut socket_drained = false;
    loop {
        if conn.closing || conn.inflight.is_some() || shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match conn.reader.buffered_frame() {
            Ok(Some(payload)) => {
                handle_frame(shared, core, conn, &payload);
                continue;
            }
            Ok(None) => {}
            Err(e) => {
                // A hostile length prefix: the stream cannot be
                // resynchronized — answer and drop the connection.
                conn.writer
                    .queue(&protocol::encode_response(&Response::Error(e.to_string())));
                conn.closing = true;
                return;
            }
        }
        if socket_drained {
            return;
        }
        match conn.reader.fill() {
            Ok(protocol::Fill::Data { more_pending }) => socket_drained = !more_pending,
            // WouldBlock mid-frame is just a trickling peer — the
            // reader holds the partial frame for the next tick.
            Ok(protocol::Fill::Empty) => return,
            Err(e) => {
                // Truncated framing or a socket error: answer when the
                // peer may still be reading, then drop the connection.
                // A clean close between frames is just a hang-up.
                if !(e.is_clean_eof() && conn.reader.at_frame_boundary()) {
                    conn.writer
                        .queue(&protocol::encode_response(&Response::Error(e.to_string())));
                }
                conn.closing = true;
                return;
            }
        }
    }
}

/// Decodes and serves one request frame.
fn handle_frame(shared: &Shared, core: usize, conn: &mut Conn, payload: &[u8]) {
    // Decode is timed only when instrumentation is on, and the span is
    // attributed only if the frame turns out to be a query.
    let decode_start = shared.obs.enabled.then(Instant::now);
    let request = match protocol::decode_request(payload) {
        Ok(r) => r,
        Err(e) => {
            // The frame boundary is intact: report and keep serving.
            conn.writer
                .queue(&protocol::encode_response(&Response::Error(e.to_string())));
            return;
        }
    };
    let response = match request {
        Request::Query(f, kind, deadline_ms) => {
            shared.requests.fetch_add(1, Ordering::Relaxed);
            shared.core_obs[core].requests.inc();
            let start = Instant::now();
            // Spans are computed by *chaining* timestamps — one clock
            // read per stage boundary, with each boundary shared by the
            // stage it ends and the stage it starts — because on hosts
            // without a cheap vDSO clock the reads themselves are the
            // dominant tracing cost.
            let trace = decode_start.map(|decoded_at| {
                let mut t = Trace::new(shared.obs.span_ids.next_id());
                t.record(Stage::Decode, us_between(decoded_at, start));
                t
            });
            // The deadline clock starts when the frame is decoded — the
            // budget covers queueing and search, not network transit.
            let deadline = deadline_ms.map(|ms| start + Duration::from_millis(u64::from(ms)));
            match begin_query(shared, f, kind, start, deadline, trace, core) {
                QueryOutcome::Ready(response, trace) => {
                    deliver(shared, conn, response, start, trace);
                }
                QueryOutcome::Pending(pending) => {
                    conn.inflight = Some(pending);
                }
            }
            return;
        }
        Request::Stats => Response::Stats(shared.snapshot()),
        Request::Health => Response::Health(shared.health()),
        Request::Metrics => Response::Metrics(render_metrics(shared)),
        Request::SlowQueries => Response::SlowQueries(render_trace_json(&shared.obs.slow)),
        Request::Traces => Response::Traces(render_trace_json(&shared.obs.traces)),
        Request::Shutdown => {
            conn.writer
                .queue(&protocol::encode_response(&Response::ShuttingDown));
            conn.closing = true;
            initiate_shutdown(shared);
            return;
        }
    };
    conn.writer.queue(&protocol::encode_response(&response));
}

/// Books a finished query response: service latency, the error counter,
/// the Encode/Write trace spans (Write covers the synchronous flush
/// attempt; remaining bytes drain on later readiness ticks), and the
/// frame bytes into the connection's writer.
fn deliver(
    shared: &Shared,
    conn: &mut Conn,
    response: Response,
    start: Instant,
    trace: Option<Trace>,
) {
    let answered = Instant::now();
    shared.latency.record(us_between(start, answered));
    if matches!(response, Response::Error(_)) {
        shared.errors.fetch_add(1, Ordering::Relaxed);
    }
    let payload = protocol::encode_response(&response);
    conn.writer.queue(&payload);
    match trace {
        Some(mut trace) => {
            let encoded = Instant::now();
            trace.record(Stage::Encode, us_between(answered, encoded));
            let flush = conn.pump_write();
            let written = Instant::now();
            trace.record(Stage::Write, us_between(encoded, written));
            trace.total_us = us_between(start, written);
            shared.obs.finish(&trace);
            if flush.is_err() {
                conn.closing = true;
            }
        }
        None => {
            if conn.pump_write().is_err() {
                conn.closing = true;
            }
        }
    }
}

/// The query hot path: canonicalize, cache (keyed by cost model +
/// class), replay — scheduler only on a miss, and even then without
/// blocking: a genuine miss parks the connection on a ticket.
///
/// One canonicalization serves every model (all three cost kinds are
/// class functions), and witness replay is cost-preserving under all of
/// them, so the warm path is model-independent work plus a model-tagged
/// cache key.
///
/// The cache lookup runs *before* admission control ever gets a say:
/// that ordering is the graceful-degradation contract — a saturated
/// miss queue sheds new searches while cache hits keep being answered
/// at full speed.
fn begin_query(
    shared: &Shared,
    f: Perm,
    kind: CostKind,
    start: Instant,
    deadline: Option<Instant>,
    mut trace: Option<Trace>,
    lane: usize,
) -> QueryOutcome {
    let n = shared.suite.wires();
    for x in (1u8 << n)..16 {
        if f.apply(x) != x {
            let response = Response::Error(format!(
                "function moves point {x}, outside the {n}-wire domain"
            ));
            return QueryOutcome::Ready(response, trace);
        }
    }
    let w = shared.suite.sym().canonicalize(f);
    let cached = shared.cache.get(kind, w.rep);
    // Timestamp chain: `start` ends Decode, `probed` ends CacheProbe
    // (which therefore includes the domain check and canonicalization —
    // everything between decode and the cache's answer).
    let mut probed = None;
    if let Some(t) = trace.as_mut() {
        let now = Instant::now();
        t.model = kind.code();
        t.rep = w.rep.packed();
        t.cache_hit = cached.is_some();
        t.record(Stage::CacheProbe, us_between(start, now));
        probed = Some(now);
    }
    if let Some(circuit) = cached {
        let answer = replay_for_witness(&circuit, &w);
        if let (Some(t), Some(s)) = (trace.as_mut(), probed) {
            t.record(Stage::Replay, us_between(s, Instant::now()));
        }
        return QueryOutcome::Ready(Response::Circuit(answer), trace);
    }
    let submission = shared.scheduler.submit(kind, w.rep, deadline, lane);
    let admitted = Instant::now();
    if let (Some(t), Some(s)) = (trace.as_mut(), probed) {
        t.record(Stage::Admission, us_between(s, admitted));
    }
    match submission {
        // The admission re-check hit (another core's search landed
        // between our probe and the queue lock): answer immediately.
        Submission::Ready(Ok(circuit)) => {
            let answer = replay_for_witness(&circuit, &w);
            if let Some(t) = trace.as_mut() {
                t.record(Stage::Replay, us_between(admitted, Instant::now()));
            }
            QueryOutcome::Ready(Response::Circuit(answer), trace)
        }
        Submission::Ready(Err(ServeError::Overloaded { retry_after_ms })) => {
            QueryOutcome::Ready(Response::Overloaded { retry_after_ms }, trace)
        }
        Submission::Ready(Err(e)) => QueryOutcome::Ready(Response::Error(e.to_string()), trace),
        Submission::Pending(handle) => QueryOutcome::Pending(PendingQuery {
            handle,
            witness: w,
            start,
            submitted: admitted,
            trace,
        }),
    }
}

/// Finishes a query whose ticket resolved: splits the wait into
/// QueueWait/BatchSearch spans (the search time is the scheduler's own
/// measurement, clamped to the observed wait), replays the class
/// circuit for this witness, and delivers the response.
fn finish_query(
    shared: &Shared,
    conn: &mut Conn,
    pending: PendingQuery,
    result: Result<revsynth_circuit::Circuit, ServeError>,
) {
    let PendingQuery {
        handle,
        witness,
        start,
        submitted,
        mut trace,
    } = pending;
    let resolved = Instant::now();
    if let Some(t) = trace.as_mut() {
        let waited = us_between(submitted, resolved);
        let search = handle.search_us().min(waited);
        t.record(Stage::QueueWait, waited - search);
        t.record(Stage::BatchSearch, search);
    }
    let response = match result {
        Ok(circuit) => {
            let answer = replay_for_witness(&circuit, &witness);
            if let Some(t) = trace.as_mut() {
                t.record(Stage::Replay, us_between(resolved, Instant::now()));
            }
            Response::Circuit(answer)
        }
        Err(ServeError::Overloaded { retry_after_ms }) => Response::Overloaded { retry_after_ms },
        Err(e) => Response::Error(e.to_string()),
    };
    deliver(shared, conn, response, start, trace);
}

/// Renders the full metrics scrape: every [`ServeStats`] field as a
/// `revsynth_`-prefixed series (shared field-name table — the text
/// frame and this exposition cannot drift), then the shared registry —
/// per-stage latency histograms, engine profiling, snapshot timings,
/// the point-in-time gauges refreshed here — and finally the per-core
/// registries, merged so family headers appear exactly once.
fn render_metrics(shared: &Shared) -> String {
    let obs = &shared.obs;
    for (kind, depth) in CostKind::ALL.iter().zip(shared.scheduler.queued()) {
        obs.queue_depth[kind.code() as usize].set(depth as u64);
    }
    obs.live_workers.set(shared.scheduler.live_workers());
    for (gauge, len) in obs.shard_entries.iter().zip(shared.cache.shard_lens()) {
        gauge.set(len as u64);
    }
    let mut out = String::new();
    shared.snapshot().to_prometheus(&mut out);
    let mut parts: Vec<&Registry> = Vec::with_capacity(1 + shared.core_obs.len());
    parts.push(&obs.registry);
    parts.extend(shared.core_obs.iter().map(|c| &c.registry));
    Registry::render_merged(&parts, &mut out);
    out
}

/// Renders a trace ring as a JSON array, oldest first, bounded so the
/// encoded response frame (one opcode byte + the JSON) always fits
/// [`protocol::MAX_FRAME_LEN`]. A full ring of worst-case traces
/// overflows the frame cap (`write_frame` asserts on oversized
/// payloads), so traces are admitted newest-first until the budget is
/// spent and the oldest are dropped from the array.
fn render_trace_json(ring: &TraceRing) -> String {
    // Opcode byte plus the enclosing brackets come off the top.
    let budget = protocol::MAX_FRAME_LEN as usize - 1 - 2;
    let snapshot = ring.snapshot();
    let mut kept: Vec<String> = Vec::with_capacity(snapshot.len());
    let mut used = 0;
    for trace in snapshot.iter().rev() {
        let model = CostKind::from_code(trace.model).map_or("unknown", CostKind::as_str);
        let json = trace.to_json(model);
        let sep = usize::from(!kept.is_empty());
        if used + sep + json.len() > budget {
            break;
        }
        used += sep + json.len();
        kept.push(json);
    }
    kept.reverse();
    format!("[{}]", kept.join(","))
}

/// Flips the shutdown flag and nudges the acceptor with a
/// self-connection — every core loop also re-checks the flag on its
/// own wait timeout, so the nudge only sharpens latency.
fn initiate_shutdown(shared: &Shared) {
    shared.shutdown.store(true, Ordering::SeqCst);
    let _ = TcpStream::connect_timeout(&shared.addr, Duration::from_secs(1));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trace whose every numeric field renders at its widest (20
    /// decimal digits / 16 hex digits) with an unknown model byte.
    fn worst_case_trace() -> Trace {
        let mut t = Trace::new(u64::MAX);
        t.model = u8::MAX;
        t.rep = u64::MAX;
        t.total_us = u64::MAX;
        for s in Stage::ALL {
            t.record(s, u64::MAX);
        }
        t
    }

    #[test]
    fn full_worst_case_ring_renders_within_the_frame_cap() {
        // The regression: a full SLOW_RING_CAPACITY ring of wide traces
        // is ~95 KiB of JSON, past MAX_FRAME_LEN, and write_frame
        // asserts on oversized payloads — rendering must drop the
        // oldest traces instead of panicking the handler thread.
        let ring = TraceRing::new(SLOW_RING_CAPACITY);
        for _ in 0..SLOW_RING_CAPACITY {
            ring.push(&worst_case_trace());
        }
        let json = render_trace_json(&ring);
        let payload = protocol::encode_response(&Response::SlowQueries(json.clone()));
        assert!(
            payload.len() <= protocol::MAX_FRAME_LEN as usize,
            "payload is {} bytes",
            payload.len()
        );
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).expect("bounded frame writes");
        // The reply is still a well-formed, non-trivial array: a prefix
        // of the ring was dropped, not mangled.
        assert!(json.starts_with("[{") && json.ends_with("}]"), "{json}");
        let traces = json.matches("\"span_id\"").count();
        assert!(
            (1..SLOW_RING_CAPACITY).contains(&traces),
            "kept {traces} of {SLOW_RING_CAPACITY} worst-case traces"
        );
        assert!(json.contains("\"model\": \"unknown\""), "{json}");
    }

    #[test]
    fn trace_rendering_keeps_the_newest_and_stays_oldest_first() {
        let ring = TraceRing::new(SLOW_RING_CAPACITY);
        for i in 0..SLOW_RING_CAPACITY as u64 {
            let mut t = worst_case_trace();
            t.span_id = i;
            ring.push(&t);
        }
        let json = render_trace_json(&ring);
        // The newest trace always survives the bounding...
        let newest = format!("\"span_id\": \"{:016x}\"", SLOW_RING_CAPACITY as u64 - 1);
        assert!(json.contains(&newest), "newest trace dropped");
        // ...and the kept suffix renders oldest first.
        let mut last = None;
        for (pos, _) in json.match_indices("\"span_id\"") {
            assert!(last.is_none_or(|p| p < pos));
            last = Some(pos);
        }
    }

    #[test]
    fn small_rings_render_completely() {
        let ring = TraceRing::new(SLOW_RING_CAPACITY);
        assert_eq!(render_trace_json(&ring), "[]");
        ring.push(&worst_case_trace());
        ring.push(&worst_case_trace());
        let json = render_trace_json(&ring);
        assert_eq!(json.matches("\"span_id\"").count(), 2);
    }

    #[test]
    fn serve_config_builder_and_shims_agree() {
        let built = ServeConfig::new()
            .port(7878)
            .cores(4)
            .workers(2)
            .cache_capacity(512)
            .batch_linger(Duration::from_millis(3))
            .max_queue(9)
            .max_conns(17)
            .retry_after_ms(250)
            .slow_query_us(1_000)
            .instrumentation(false)
            .portable_poll(true);
        assert_eq!(built.port, 7878);
        assert_eq!(built.cores, 4);
        assert_eq!(built.workers, 2);
        assert_eq!(built.cache_capacity, 512);
        assert_eq!(built.batch_linger, Duration::from_millis(3));
        assert_eq!(built.max_queue, 9);
        assert_eq!(built.max_conns, 17);
        assert_eq!(built.retry_after_ms, 250);
        assert_eq!(built.slow_query_us, 1_000);
        assert!(!built.instrumentation);
        assert!(built.portable_poll);
    }
}
