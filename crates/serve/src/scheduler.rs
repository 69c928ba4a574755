//! The request-coalescing batch scheduler.
//!
//! Cache misses do not call the synthesizer directly. They enter here,
//! where two amortizations happen before any search runs:
//!
//! 1. **Coalescing**: concurrent misses for the *same canonical
//!    representative* share one ticket — the first miss enqueues the
//!    rep, later ones attach and wait. N clients asking for N functions
//!    of one equivalence class trigger exactly one search.
//! 2. **Batching**: a worker thread drains *every* queued rep in one go
//!    and answers the whole batch with a single
//!    [`Synthesizer::synthesize_many`] call, which scans the
//!    meet-in-the-middle level lists once for all of them — the access
//!    pattern the batched engine was built for (the level lists, not the
//!    queries, are the multi-gigabyte working set at paper scale).
//!
//! Completed circuits are inserted into the [`ClassCache`] *before* the
//! ticket is resolved and removed from the in-flight map, so a request
//! arriving at any point either hits the cache or finds the in-flight
//! ticket — no ordering window re-runs a finished search. Resolving a
//! ticket wakes everyone waiting on it: threads blocked in
//! [`Scheduler::request`], and event-loop cores parked on it through
//! [`TicketHandle::wake_on_resolve`].
//!
//! **Overload control** (the robustness substrate under the planet-scale
//! rewrite): the miss queue is bounded per cost model
//! ([`SchedulerOptions::max_queue`]). A miss for a class already in
//! flight *always* attaches to its ticket — coalescing costs no queue
//! slot — but a miss that would enqueue new work when that model's queue
//! is full is rejected at admission with [`ServeError::Overloaded`]
//! (carrying a retry hint), before any state is allocated. Requests may
//! carry a deadline; a queued ticket whose deadline has already passed
//! when a worker drains it is expired with [`ServeError::Expired`] —
//! the search is never started, so saturation sheds *future* work
//! instead of finishing work nobody is waiting for. Sheds and expiries
//! are counted per cost model in [`SchedulerCounters`].
//!
//! An optional [`FaultPlan`] injects per-search latency and forced
//! failures at this boundary, deterministically, so tests can drive the
//! scheduler into saturation and reconcile every counter.
//!
//! **Supervision**: worker threads run under a supervisor that catches
//! panics. A panicking worker first answers every entry of the batch it
//! had drained with [`ServeError::Synthesis`] (a drop guard does this
//! during unwinding, so no coalesced waiter ever blocks forever), then
//! re-enters its loop — the pool self-heals at full strength, counted
//! in [`SchedulerCounters::worker_restarts`]. [`FaultPlan::with_panic_every`]
//! drives this path deterministically in chaos tests.
//!
//! Shutdown is graceful: workers finish the batch they are searching,
//! still-queued representatives are answered with
//! [`ServeError::ShuttingDown`], and `shutdown` joins every worker.
//!
//! [`Synthesizer::synthesize_many`]: revsynth_core::Synthesizer::synthesize_many
//! [`FaultPlan::with_panic_every`]: crate::fault::FaultPlan::with_panic_every

use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use revsynth_circuit::{Circuit, CostKind};
use revsynth_core::{SearchOptions, SynthesisSuite};
use revsynth_mmap::net::Waker;
use revsynth_obs::{Counter, Histogram, Stage, Trace};
use revsynth_perm::Perm;

use crate::cache::ClassCache;
use crate::fault::{FaultPlan, INJECTED_FAILURE, INJECTED_PANIC};

/// Number of cost models (the per-model accounting arrays are indexed
/// by [`CostKind::code`]).
const MODELS: usize = CostKind::ALL.len();

/// Message carried by the [`ServeError::Synthesis`] a waiter receives
/// when the worker searching its batch panicked: the search is
/// abandoned, never half-answered, and the client may simply retry
/// (the supervisor has already respawned the worker).
pub const WORKER_PANIC: &str = "worker panicked; search abandoned";

/// Request-level failure reported to a waiting client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The synthesizer could not answer (size beyond the tables' reach,
    /// domain mismatch); carries the rendered [`SynthesisError`].
    ///
    /// [`SynthesisError`]: revsynth_core::SynthesisError
    Synthesis(String),
    /// The server is shutting down; the search was not performed.
    ShuttingDown,
    /// The miss queue for this cost model is full; the request was shed
    /// at admission (no search was queued). Retry after the hint, with
    /// backoff.
    Overloaded {
        /// Suggested wait before retrying, milliseconds.
        retry_after_ms: u32,
    },
    /// The request's deadline passed before a worker reached its
    /// ticket; the search was never started.
    Expired,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Synthesis(msg) => write!(f, "{msg}"),
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
            ServeError::Overloaded { retry_after_ms } => {
                write!(f, "server overloaded; retry after {retry_after_ms} ms")
            }
            ServeError::Expired => {
                write!(f, "deadline expired before the search started")
            }
        }
    }
}

impl Error for ServeError {}

/// One in-flight class search: the result slot every coalesced waiter
/// blocks on, or — for event-loop cores — is woken from.
struct Ticket {
    state: Mutex<TicketState>,
    ready: Condvar,
    /// Wall-clock µs the worker spent inside the batched engine call
    /// that answered this ticket (the whole per-model batch duration —
    /// the engine scans its level lists once for the batch, so the scan
    /// is not attributable per entry). Zero for never-searched outcomes
    /// (shed, expired, shutdown, plan-failed, worker panic). Written
    /// before [`fulfill`](Self::fulfill), so a woken waiter reads it
    /// race-free.
    search_us: AtomicU64,
}

/// A ticket's result slot and the event-loop cores parked on it, under
/// one mutex: a core either registers before the result is published
/// (and [`Ticket::fulfill`] wakes it) or sees the result already there
/// (and wakes itself), so no wake-up can fall between the two.
struct TicketState {
    result: Option<Result<Circuit, ServeError>>,
    /// One waker per parked core, however many of its connections hold
    /// the ticket; coalesced waiters may sit on several cores.
    parked: Vec<Arc<Waker>>,
}

impl Ticket {
    fn new() -> Self {
        Ticket {
            state: Mutex::new(TicketState {
                result: None,
                parked: Vec::new(),
            }),
            ready: Condvar::new(),
            search_us: AtomicU64::new(0),
        }
    }

    /// Publishes the result, then wakes every blocked waiter and every
    /// parked core once. Every resolution path ends here: search done,
    /// drain-time expiry, fault-plan failure, worker panic, shutdown.
    fn fulfill(&self, result: Result<Circuit, ServeError>) {
        let parked = {
            let mut state = lock(&self.state);
            state.result = Some(result);
            std::mem::take(&mut state.parked)
        };
        self.ready.notify_all();
        for waker in parked {
            waker.wake();
        }
    }

    fn wait(&self) -> Result<Circuit, ServeError> {
        let mut state = lock(&self.state);
        loop {
            if let Some(result) = state.result.as_ref() {
                return result.clone();
            }
            state = self
                .ready
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// A non-blocking handle to an in-flight (or just-resolved) class
/// search, returned by [`Scheduler::submit`]. An event loop parks the
/// connection on it instead of a thread: it registers its core's
/// [`Waker`] with [`wake_on_resolve`](Self::wake_on_resolve), and once
/// woken reads [`try_result`](Self::try_result).
pub struct TicketHandle {
    ticket: Arc<Ticket>,
}

impl TicketHandle {
    /// The result, if the search has resolved; `None` while it is still
    /// queued or mid-batch. Never blocks beyond the result-slot mutex.
    #[must_use]
    pub fn try_result(&self) -> Option<Result<Circuit, ServeError>> {
        lock(&self.ticket.state).result.clone()
    }

    /// Wakes `waker` once when the ticket resolves — at once if it
    /// already has, so a wake is never lost to the race between
    /// [`Scheduler::submit`] and this call. A core registered twice (two
    /// of its connections on one ticket) is still woken once.
    pub fn wake_on_resolve(&self, waker: &Arc<Waker>) {
        let mut state = lock(&self.ticket.state);
        if state.result.is_some() {
            drop(state);
            waker.wake();
        } else if !state.parked.iter().any(|w| Arc::ptr_eq(w, waker)) {
            state.parked.push(Arc::clone(waker));
        }
    }

    /// Wall-clock µs the worker spent inside the batched engine call
    /// that answered this ticket (zero until resolved, and for
    /// never-searched outcomes). Meaningful once
    /// [`try_result`](Self::try_result) returns `Some`.
    #[must_use]
    pub fn search_us(&self) -> u64 {
        self.ticket.search_us.load(Ordering::Relaxed)
    }
}

impl fmt::Debug for TicketHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "TicketHandle(resolved: {})",
            lock(&self.ticket.state).result.is_some()
        )
    }
}

/// Outcome of a non-blocking [`Scheduler::submit`]: either the answer
/// is already in hand (cache re-check hit, shed, expired, shutdown), or
/// a ticket to park on.
#[derive(Debug)]
pub enum Submission {
    /// Resolved at admission; no worker involvement needed (or
    /// possible).
    Ready(Result<Circuit, ServeError>),
    /// Queued (or coalesced onto an in-flight search); park on the
    /// handle.
    Pending(TicketHandle),
}

/// One queued class search awaiting a worker.
#[derive(Clone, Copy)]
struct Pending {
    kind: CostKind,
    rep: Perm,
    /// Latest instant at which starting the search is still useful; a
    /// worker reaching the entry after this expires it unsearched.
    deadline: Option<Instant>,
}

/// Queue state under the scheduler mutex.
struct QueueState {
    /// Class searches waiting for a worker, in arrival order, sharded
    /// into per-core lanes: the thread-per-core server submits each
    /// core's misses to its own lane, so the common case drains without
    /// cross-core contention on entry order. Workers drain their home
    /// lane (worker index modulo lane count) and steal from the longest
    /// sibling lane only when their own is empty — the imbalance case.
    lanes: Vec<Vec<Pending>>,
    /// Every `(model, rep)` with an unresolved ticket (queued *or*
    /// mid-search), keyed by model discriminant + packed representative.
    inflight: HashMap<(u8, u64), Arc<Ticket>>,
    /// Pending-queue occupancy per cost model (what `max_queue` bounds;
    /// in-flight-but-draining searches no longer hold a slot).
    queued: [usize; MODELS],
    shutdown: bool,
}

/// Tuning and overload-control knobs for [`Scheduler::with_options`].
#[derive(Debug, Clone, Default)]
pub struct SchedulerOptions {
    /// Group-commit window: how long a worker waits after the first
    /// queued miss before draining, letting near-simultaneous misses
    /// join the batch. Zero (the default) = drain immediately.
    pub linger: Duration,
    /// Maximum queued (not yet drained) searches **per cost model**;
    /// admission of a new class search beyond this is refused with
    /// [`ServeError::Overloaded`]. `0` (the default) = unbounded.
    /// Coalescing onto an in-flight ticket never consumes a slot and is
    /// never refused.
    pub max_queue: usize,
    /// The retry hint carried by [`ServeError::Overloaded`],
    /// milliseconds.
    pub retry_after_ms: u32,
    /// Deterministic fault injection at the search boundary (tests,
    /// chaos runs); `None` in production.
    pub faults: Option<Arc<FaultPlan>>,
    /// Registry handles the workers stream engine profiling into
    /// (candidate/gate/probe counts, batch search durations). `None`
    /// (the default) records nothing.
    pub metrics: Option<SchedulerMetrics>,
    /// Miss-queue lanes (one per serving core). `0` (the default) and
    /// `1` both mean a single lane — the pre-sharding behavior,
    /// bit-for-bit. [`Scheduler::submit`]'s `lane` argument is taken
    /// modulo this count.
    pub shards: usize,
}

/// Metrics-registry handles for the engine profiling the workers emit:
/// the [`SearchStats`] counters of every completed synthesis, plus the
/// wall-clock duration of each batched engine call. Handles are cheap
/// clones of registry-owned atomics; the scheduler adds to them
/// lock-free from inside the worker loop.
///
/// [`SearchStats`]: revsynth_core::SearchStats
#[derive(Debug, Clone)]
pub struct SchedulerMetrics {
    /// Candidate circuits considered by the engine's frame scan.
    pub considered: Counter,
    /// Candidates rejected by the cost gate before canonicalization.
    pub gated: Counter,
    /// Candidates canonicalized (survived the gate).
    pub canonicalized: Counter,
    /// Meet-in-the-middle table probes issued.
    pub probed: Counter,
    /// Wall-clock duration of each batched `synthesize_many` call, µs.
    pub batch_search_us: Histogram,
}

struct Inner {
    suite: Arc<SynthesisSuite>,
    cache: Arc<ClassCache>,
    search: SearchOptions,
    options: SchedulerOptions,
    queue: Mutex<QueueState>,
    work_ready: Condvar,
    /// Class representatives actually submitted to the synthesizer
    /// (shed, expired, and plan-failed entries never count).
    searches: AtomicU64,
    /// Batches drained by workers.
    batches: AtomicU64,
    /// Largest batch drained so far.
    max_batch: AtomicU64,
    /// Misses that attached to an existing in-flight ticket.
    coalesced: AtomicU64,
    /// Times a worker with an empty home lane stole work from a sibling
    /// lane (cross-core steal on miss-queue imbalance).
    steals: AtomicU64,
    /// Admissions refused because the model's queue was full.
    shed: [AtomicU64; MODELS],
    /// Queued searches expired (deadline passed) before being started.
    expired: [AtomicU64; MODELS],
    /// Times a supervisor caught a worker panic and re-entered the
    /// worker loop.
    worker_restarts: AtomicU64,
    /// Workers currently inside their supervised loop. Stable across
    /// respawns (the supervisor never exits on a panic), so a live
    /// server reports the configured pool size here.
    live_workers: AtomicU64,
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Microseconds elapsed since `start`, saturating.
fn elapsed_us(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// Outcome of the admission decision: either the result is already in
/// hand (the post-miss cache re-check hit), or there is a ticket —
/// fresh or coalesced onto — to wait on.
enum Admission {
    Cached(Circuit),
    Ticket(Arc<Ticket>),
}

/// The scheduler: owns the worker pool, shares the cache with the
/// server front end.
pub struct Scheduler {
    inner: Arc<Inner>,
    /// Worker handles, taken (and joined) exactly once by
    /// [`shutdown`](Self::shutdown).
    workers: Mutex<Vec<JoinHandle<()>>>,
}

/// Scheduler counter snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedulerCounters {
    /// Class representatives submitted to the synthesizer.
    pub searches: u64,
    /// Batches drained.
    pub batches: u64,
    /// Largest batch drained.
    pub max_batch: u64,
    /// Requests coalesced onto an in-flight search.
    pub coalesced: u64,
    /// Cross-core lane steals (a worker's home lane was empty while a
    /// sibling lane held queued work).
    pub steals: u64,
    /// Admissions refused (queue full), indexed by [`CostKind::code`].
    pub shed: [u64; MODELS],
    /// Deadline expiries before search start, indexed by
    /// [`CostKind::code`].
    pub expired: [u64; MODELS],
    /// Worker panics caught by the supervisor (each one respawned the
    /// worker in place).
    pub worker_restarts: u64,
}

impl SchedulerCounters {
    /// Total sheds across cost models.
    #[must_use]
    pub fn shed_total(&self) -> u64 {
        self.shed.iter().sum()
    }

    /// Total deadline expiries across cost models.
    #[must_use]
    pub fn expired_total(&self) -> u64 {
        self.expired.iter().sum()
    }
}

impl Scheduler {
    /// Starts `workers` worker threads answering queued class searches
    /// with batched `synthesize_many` calls under `search` options.
    /// Equivalent to [`with_linger`](Self::with_linger) with a zero
    /// (drain-immediately) window.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    #[must_use]
    pub fn new(
        suite: Arc<SynthesisSuite>,
        cache: Arc<ClassCache>,
        workers: usize,
        search: SearchOptions,
    ) -> Self {
        Self::with_linger(suite, cache, workers, search, Duration::ZERO)
    }

    /// Like [`new`](Self::new) with an explicit batch-linger window: a
    /// worker that finds work waits `linger` before draining the queue,
    /// trading that much added miss latency for larger batches and a
    /// deterministic coalescing window (misses arriving within the
    /// window for an in-flight class always attach to its ticket).
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    #[must_use]
    pub fn with_linger(
        suite: Arc<SynthesisSuite>,
        cache: Arc<ClassCache>,
        workers: usize,
        search: SearchOptions,
        linger: Duration,
    ) -> Self {
        Self::with_options(
            suite,
            cache,
            workers,
            search,
            SchedulerOptions {
                linger,
                ..SchedulerOptions::default()
            },
        )
    }

    /// The full-control constructor: [`with_linger`](Self::with_linger)
    /// plus the overload-control and fault-injection knobs in
    /// [`SchedulerOptions`].
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    #[must_use]
    pub fn with_options(
        suite: Arc<SynthesisSuite>,
        cache: Arc<ClassCache>,
        workers: usize,
        search: SearchOptions,
        options: SchedulerOptions,
    ) -> Self {
        assert!(workers > 0, "need at least one scheduler worker");
        let lanes = options.shards.max(1);
        let inner = Arc::new(Inner {
            suite,
            cache,
            search,
            options,
            queue: Mutex::new(QueueState {
                lanes: vec![Vec::new(); lanes],
                inflight: HashMap::new(),
                queued: [0; MODELS],
                shutdown: false,
            }),
            work_ready: Condvar::new(),
            searches: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            max_batch: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            steals: AtomicU64::new(0),
            shed: std::array::from_fn(|_| AtomicU64::new(0)),
            expired: std::array::from_fn(|_| AtomicU64::new(0)),
            worker_restarts: AtomicU64::new(0),
            live_workers: AtomicU64::new(0),
        });
        let workers = (0..workers)
            .map(|home| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || supervised_worker(&inner, home))
            })
            .collect();
        Scheduler {
            inner,
            workers: Mutex::new(workers),
        }
    }

    /// Resolves one cache miss: returns the `kind`-optimal circuit
    /// **for the representative** `rep` (the caller replays it through
    /// the query's witness). Blocks until a worker answers; concurrent
    /// calls for the same `(model, rep)` share one search — requests for
    /// the same class under *different* models are distinct work and do
    /// not coalesce.
    ///
    /// # Errors
    ///
    /// [`ServeError::Synthesis`] when the synthesizer cannot answer,
    /// [`ServeError::ShuttingDown`] when the scheduler is stopping,
    /// [`ServeError::Overloaded`] when the model's miss queue is full.
    pub fn request(&self, kind: CostKind, rep: Perm) -> Result<Circuit, ServeError> {
        self.request_with_deadline(kind, rep, None)
    }

    /// [`request`](Self::request) with an optional deadline: if the
    /// deadline passes before a worker starts the search, the request is
    /// answered with [`ServeError::Expired`] and the search is never
    /// run. A deadline that is already in the past is expired at
    /// admission. Coalescing ignores deadlines — an attached waiter
    /// rides the in-flight search however long it takes (the search is
    /// already paid for).
    ///
    /// # Errors
    ///
    /// Everything [`request`](Self::request) returns, plus
    /// [`ServeError::Expired`].
    pub fn request_with_deadline(
        &self,
        kind: CostKind,
        rep: Perm,
        deadline: Option<Instant>,
    ) -> Result<Circuit, ServeError> {
        match self.admit(kind, rep, deadline, 0)? {
            Admission::Cached(circuit) => Ok(circuit),
            Admission::Ticket(ticket) => ticket.wait(),
        }
    }

    /// The non-blocking admission entry point for readiness-based event
    /// loops: the full [`request_with_deadline`](Self::request_with_deadline)
    /// admission decision (coalesce → cache re-check → expire → shed →
    /// enqueue), but instead of parking the calling thread it returns
    /// either the immediate outcome or a [`TicketHandle`] to park on. The
    /// fresh-enqueue path places the entry in lane `lane % shards`
    /// (see [`SchedulerOptions::shards`]) — a serving core passes its
    /// own index so its misses queue without cross-core contention.
    pub fn submit(
        &self,
        kind: CostKind,
        rep: Perm,
        deadline: Option<Instant>,
        lane: usize,
    ) -> Submission {
        match self.admit(kind, rep, deadline, lane) {
            Ok(Admission::Cached(circuit)) => Submission::Ready(Ok(circuit)),
            Ok(Admission::Ticket(ticket)) => Submission::Pending(TicketHandle { ticket }),
            Err(e) => Submission::Ready(Err(e)),
        }
    }

    /// Whether no queued or in-flight work remains anywhere: every lane
    /// is empty and every ticket has been resolved and removed. This is
    /// the invariant graceful shutdown requires before the final
    /// snapshot — no core may snapshot while a sibling still holds
    /// inflight tickets.
    #[must_use]
    pub fn drained(&self) -> bool {
        let q = lock(&self.inner.queue);
        q.lanes.iter().all(Vec::is_empty) && q.inflight.is_empty()
    }

    /// [`request_with_deadline`](Self::request_with_deadline) recording
    /// span timings into `trace`: [`Stage::Admission`] covers the
    /// admission decision (lock acquisition + coalesce/cache/shed
    /// checks), [`Stage::BatchSearch`] the engine time of the batch that
    /// answered the ticket, and [`Stage::QueueWait`] the remainder of
    /// the wait (queued behind other work, linger, batch overhead).
    ///
    /// # Errors
    ///
    /// Exactly [`request_with_deadline`](Self::request_with_deadline)'s.
    pub fn request_traced(
        &self,
        kind: CostKind,
        rep: Perm,
        deadline: Option<Instant>,
        trace: &mut Trace,
    ) -> Result<Circuit, ServeError> {
        let admit_start = Instant::now();
        let admitted = self.admit(kind, rep, deadline, 0);
        trace.record(Stage::Admission, elapsed_us(admit_start));
        match admitted? {
            Admission::Cached(circuit) => Ok(circuit),
            Admission::Ticket(ticket) => {
                let wait_start = Instant::now();
                let result = ticket.wait();
                let waited = elapsed_us(wait_start);
                // A coalesced waiter that attached mid-search observes
                // less wall-clock than the full batch duration; clamp so
                // the two spans still sum to the observed wait.
                let search = ticket.search_us.load(Ordering::Relaxed).min(waited);
                trace.record(Stage::BatchSearch, search);
                trace.record(Stage::QueueWait, waited - search);
                result
            }
        }
    }

    /// The admission decision for one cache miss: coalesce, answer from
    /// the cache, expire, shed, or enqueue a fresh ticket.
    fn admit(
        &self,
        kind: CostKind,
        rep: Perm,
        deadline: Option<Instant>,
        lane: usize,
    ) -> Result<Admission, ServeError> {
        let key = (kind.code(), rep.packed());
        let model = kind.code() as usize;
        let ticket = {
            let mut q = lock(&self.inner.queue);
            if q.shutdown {
                return Err(ServeError::ShuttingDown);
            }
            match q.inflight.get(&key) {
                Some(ticket) => {
                    self.inner.coalesced.fetch_add(1, Ordering::Relaxed);
                    Arc::clone(ticket)
                }
                None => {
                    // The search may have completed between the caller's
                    // cache miss and this lock; the cache is written before
                    // the in-flight entry is removed, so checking it here
                    // closes the window. Quiet: the caller already counted
                    // this query's miss — and that miss was answered by a
                    // search it didn't trigger, so it counts as coalesced
                    // to keep the conservation law (misses = searches +
                    // coalesced + shed + expired) exact.
                    if let Some(circuit) = self.inner.cache.get_quiet(kind, rep) {
                        self.inner.coalesced.fetch_add(1, Ordering::Relaxed);
                        return Ok(Admission::Cached(circuit));
                    }
                    if deadline.is_some_and(|d| Instant::now() >= d) {
                        self.inner.expired[model].fetch_add(1, Ordering::Relaxed);
                        return Err(ServeError::Expired);
                    }
                    // Admission control, after the coalesce/cache paths:
                    // only *new* search work can be shed.
                    let max = self.inner.options.max_queue;
                    if max > 0 && q.queued[model] >= max {
                        self.inner.shed[model].fetch_add(1, Ordering::Relaxed);
                        return Err(ServeError::Overloaded {
                            retry_after_ms: self.inner.options.retry_after_ms,
                        });
                    }
                    let ticket = Arc::new(Ticket::new());
                    q.inflight.insert(key, Arc::clone(&ticket));
                    let lane = lane % q.lanes.len();
                    q.lanes[lane].push(Pending {
                        kind,
                        rep,
                        deadline,
                    });
                    q.queued[model] += 1;
                    self.inner.work_ready.notify_one();
                    ticket
                }
            }
        };
        Ok(Admission::Ticket(ticket))
    }

    /// Pending-queue occupancy per cost model (indexed by
    /// [`CostKind::code`]): searches admitted but not yet drained by a
    /// worker. This is exactly what [`SchedulerOptions::max_queue`]
    /// bounds, exposed for queue-depth gauges.
    #[must_use]
    pub fn queued(&self) -> [usize; MODELS] {
        lock(&self.inner.queue).queued
    }

    /// Counter snapshot.
    #[must_use]
    pub fn counters(&self) -> SchedulerCounters {
        SchedulerCounters {
            searches: self.inner.searches.load(Ordering::Relaxed),
            batches: self.inner.batches.load(Ordering::Relaxed),
            max_batch: self.inner.max_batch.load(Ordering::Relaxed),
            coalesced: self.inner.coalesced.load(Ordering::Relaxed),
            steals: self.inner.steals.load(Ordering::Relaxed),
            shed: self
                .inner
                .shed
                .each_ref()
                .map(|c| c.load(Ordering::Relaxed)),
            expired: self
                .inner
                .expired
                .each_ref()
                .map(|c| c.load(Ordering::Relaxed)),
            worker_restarts: self.inner.worker_restarts.load(Ordering::Relaxed),
        }
    }

    /// Workers currently running their supervised loop. Equals the
    /// configured pool size on a healthy (or self-healed) scheduler;
    /// drops to zero only after [`shutdown`](Self::shutdown).
    #[must_use]
    pub fn live_workers(&self) -> u64 {
        self.inner.live_workers.load(Ordering::Relaxed)
    }

    /// Stops the workers: in-progress batches complete, queued-but-not-
    /// started searches (and requests arriving afterwards) are answered
    /// with [`ServeError::ShuttingDown`]. Joins every worker thread;
    /// idempotent (later calls find nothing left to join).
    pub fn shutdown(&self) {
        {
            let mut q = lock(&self.inner.queue);
            q.shutdown = true;
            q.queued = [0; MODELS];
            // Fail the not-yet-started searches so their waiters wake.
            let abandoned: Vec<Pending> = q.lanes.iter_mut().flat_map(std::mem::take).collect();
            for entry in abandoned {
                if let Some(ticket) = q.inflight.remove(&(entry.kind.code(), entry.rep.packed())) {
                    ticket.fulfill(Err(ServeError::ShuttingDown));
                }
            }
            self.inner.work_ready.notify_all();
        }
        for handle in std::mem::take(&mut *lock(&self.workers)) {
            let _ = handle.join();
        }
    }
}

impl fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = self.counters();
        write!(
            f,
            "Scheduler({} workers, {} searches in {} batches, {} coalesced)",
            lock(&self.workers).len(),
            c.searches,
            c.batches,
            c.coalesced
        )
    }
}

/// The supervisor wrapping every worker thread: catches a panicking
/// [`worker_loop`], counts the restart, and re-enters the loop so the
/// pool recovers to full strength without outside intervention. The
/// batch the panicking worker had drained has already been answered by
/// its [`DrainGuard`] during unwinding — no waiter is stranded. Exits
/// only when the loop returns cleanly (shutdown).
fn supervised_worker(inner: &Inner, home: usize) {
    inner.live_workers.fetch_add(1, Ordering::Relaxed);
    loop {
        let run =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| worker_loop(inner, home)));
        match run {
            Ok(()) => break,
            Err(_) => {
                inner.worker_restarts.fetch_add(1, Ordering::Relaxed);
                if lock(&inner.queue).shutdown {
                    break;
                }
            }
        }
    }
    inner.live_workers.fetch_sub(1, Ordering::Relaxed);
}

/// The batch a worker has drained but not yet fully answered. Every
/// stage resolves entries *through* the guard so the unresolved set
/// shrinks as answers go out; if the worker panics mid-batch (a bug in
/// the engine, or an injected chaos panic), `Drop` runs during
/// unwinding and fails every remaining entry with [`WORKER_PANIC`] —
/// coalesced waiters wake with a clean error instead of blocking on a
/// ticket nobody will ever fulfill.
struct DrainGuard<'a> {
    inner: &'a Inner,
    entries: Vec<Pending>,
}

impl DrainGuard<'_> {
    /// Answers one entry and removes it from the unresolved set.
    /// `search_us` is the engine time behind the answer (zero when the
    /// search never ran).
    fn resolve(
        &mut self,
        kind: CostKind,
        rep: Perm,
        outcome: Result<Circuit, ServeError>,
        search_us: u64,
    ) {
        if let Some(i) = self
            .entries
            .iter()
            .position(|e| e.kind == kind && e.rep == rep)
        {
            self.entries.swap_remove(i);
        }
        resolve(self.inner, kind, rep, outcome, search_us);
    }
}

impl Drop for DrainGuard<'_> {
    fn drop(&mut self) {
        for entry in std::mem::take(&mut self.entries) {
            resolve(
                self.inner,
                entry.kind,
                entry.rep,
                Err(ServeError::Synthesis(WORKER_PANIC.to_string())),
                0,
            );
        }
    }
}

fn worker_loop(inner: &Inner, home: usize) {
    loop {
        {
            let mut q = lock(&inner.queue);
            loop {
                if q.lanes.iter().any(|lane| !lane.is_empty()) {
                    break;
                }
                if q.shutdown {
                    return;
                }
                q = inner
                    .work_ready
                    .wait(q)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
        // Group-commit: hold the drain open so near-simultaneous misses
        // pile into this batch (the queued reps stay in `inflight`, so
        // same-class arrivals during the window attach to their
        // tickets). The lock is NOT held while lingering.
        if !inner.options.linger.is_zero() {
            std::thread::sleep(inner.options.linger);
        }
        let drained: Vec<Pending> = {
            let mut q = lock(&inner.queue);
            let home = home % q.lanes.len();
            let drained = if q.lanes[home].is_empty() {
                // Cross-core steal, only on imbalance: this worker's
                // home lane is dry while a sibling holds queued work.
                // Take the newer half of the longest lane — the victim
                // (if it has its own worker) keeps the older half it
                // was already heading for.
                match (0..q.lanes.len()).max_by_key(|&l| q.lanes[l].len()) {
                    Some(victim) if !q.lanes[victim].is_empty() => {
                        let len = q.lanes[victim].len();
                        let stolen = q.lanes[victim].split_off(len - len.div_ceil(2));
                        inner.steals.fetch_add(1, Ordering::Relaxed);
                        stolen
                    }
                    _ => Vec::new(),
                }
            } else {
                std::mem::take(&mut q.lanes[home])
            };
            // Drained searches no longer hold admission slots (they are
            // committed work now), so their models' occupancy drops.
            for entry in &drained {
                let model = entry.kind.code() as usize;
                q.queued[model] = q.queued[model].saturating_sub(1);
            }
            drained
        };
        if drained.is_empty() {
            // Another worker drained the lanes during our linger.
            continue;
        }

        // From here to the end of the batch, the guard owns every
        // drained-but-unanswered entry: a panic at any point fails the
        // remainder during unwinding instead of stranding waiters.
        let mut guard = DrainGuard {
            inner,
            entries: drained,
        };

        // Expire-before-search: a drained entry whose deadline already
        // passed is answered `Expired` without ever reaching the
        // synthesizer — under saturation this is the difference between
        // shedding future work and finishing work nobody is waiting for.
        let now = Instant::now();
        for entry in guard.entries.clone() {
            if entry.deadline.is_some_and(|d| now >= d) {
                inner.expired[entry.kind.code() as usize].fetch_add(1, Ordering::Relaxed);
                guard.resolve(entry.kind, entry.rep, Err(ServeError::Expired), 0);
            }
        }

        // Fault injection at the search boundary: plan-failed entries
        // are answered without running (and without counting as
        // searches); plan-delayed entries model a slow synthesizer by
        // sleeping per search before the batch is submitted; a
        // plan-panic kills the worker mid-batch — the guard answers the
        // batch, the supervisor respawns the worker.
        if let Some(plan) = inner.options.faults.as_deref() {
            for entry in guard.entries.clone() {
                let fault = plan.next_search();
                if fault.panic {
                    panic!("{INJECTED_PANIC}");
                }
                if fault.fail {
                    guard.resolve(
                        entry.kind,
                        entry.rep,
                        Err(ServeError::Synthesis(INJECTED_FAILURE.to_string())),
                        0,
                    );
                    continue;
                }
                if let Some(delay) = fault.delay {
                    std::thread::sleep(delay);
                }
            }
        }
        if guard.entries.is_empty() {
            continue;
        }

        inner.batches.fetch_add(1, Ordering::Relaxed);
        inner
            .searches
            .fetch_add(guard.entries.len() as u64, Ordering::Relaxed);
        inner
            .max_batch
            .fetch_max(guard.entries.len() as u64, Ordering::Relaxed);

        // One batched engine call per cost model present in the drain:
        // each kind's reps ride one pass over that engine's level lists.
        for kind in CostKind::ALL {
            let reps: Vec<Perm> = guard
                .entries
                .iter()
                .filter(|e| e.kind == kind)
                .map(|e| e.rep)
                .collect();
            if reps.is_empty() {
                continue;
            }
            let opts = inner.search.cost_model(kind);
            let search_start = Instant::now();
            let results = inner.suite.synthesize_many(&reps, &opts);
            let search_us = elapsed_us(search_start);
            if let Some(metrics) = inner.options.metrics.as_ref() {
                metrics.batch_search_us.record(search_us);
            }
            for (rep, result) in reps.iter().zip(results) {
                let outcome = match result {
                    Ok(synthesis) => {
                        if let Some(metrics) = inner.options.metrics.as_ref() {
                            metrics.considered.add(synthesis.stats.considered);
                            metrics.gated.add(synthesis.stats.gated);
                            metrics.canonicalized.add(synthesis.stats.canonicalized);
                            metrics.probed.add(synthesis.stats.probed);
                        }
                        // Publish to the cache BEFORE resolving the ticket:
                        // see the module docs on the no-rerun ordering.
                        inner.cache.insert(kind, *rep, synthesis.circuit.clone());
                        Ok(synthesis.circuit)
                    }
                    Err(e) => Err(ServeError::Synthesis(e.to_string())),
                };
                guard.resolve(kind, *rep, outcome, search_us);
            }
        }
    }
}

/// Removes the `(kind, rep)` in-flight ticket, stamps the engine time
/// behind the answer, and wakes its waiters with `outcome`. (For
/// successes the cache insert has already happened — see the module
/// docs on the no-rerun ordering.)
fn resolve(
    inner: &Inner,
    kind: CostKind,
    rep: Perm,
    outcome: Result<Circuit, ServeError>,
    search_us: u64,
) {
    let ticket = lock(&inner.queue)
        .inflight
        .remove(&(kind.code(), rep.packed()));
    if let Some(ticket) = ticket {
        ticket.search_us.store(search_us, Ordering::Relaxed);
        ticket.fulfill(outcome);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use revsynth_canon::replay_for_witness;
    use revsynth_circuit::GateLib;
    use revsynth_core::{SuiteConfig, Synthesizer};
    use std::sync::Barrier;

    fn test_suite() -> SynthesisSuite {
        SynthesisSuite::new(
            Synthesizer::from_scratch(4, 2),
            SuiteConfig {
                quantum_budget: 6,
                depth_budget: 2,
            },
        )
    }

    fn scheduler(workers: usize) -> (Scheduler, Arc<SynthesisSuite>, Arc<ClassCache>) {
        let suite = Arc::new(test_suite());
        let cache = Arc::new(ClassCache::new(256));
        let sched = Scheduler::new(
            Arc::clone(&suite),
            Arc::clone(&cache),
            workers,
            SearchOptions::new().threads(1),
        );
        (sched, suite, cache)
    }

    #[test]
    fn request_searches_once_then_hits_cache() {
        let (sched, suite, cache) = scheduler(1);
        let f = GateLib::nct(4).iter().next().unwrap().2;
        let rep = suite.sym().canonical(f);
        let circuit = sched.request(CostKind::Gates, rep).unwrap();
        assert_eq!(circuit.perm(4), rep);
        assert_eq!(sched.counters().searches, 1);
        // The worker published the result to the cache.
        assert_eq!(cache.get(CostKind::Gates, rep).unwrap(), circuit);
        // A second request short-circuits on the post-miss cache check
        // even though the caller skipped its own cache lookup.
        let again = sched.request(CostKind::Gates, rep).unwrap();
        assert_eq!(again, circuit);
        assert_eq!(sched.counters().searches, 1, "no second search");
        sched.shutdown();
    }

    #[test]
    fn concurrent_same_class_requests_coalesce() {
        let (sched, suite, _cache) = scheduler(1);
        let sym = suite.sym();
        // A class with several members, none cached.
        let member = "TOF(a,b,d) CNOT(a,b)"
            .parse::<revsynth_circuit::Circuit>()
            .unwrap()
            .perm(4);
        let w = sym.canonicalize(member);
        let clients = 6;
        let barrier = Barrier::new(clients);
        let sched_ref = &sched;
        let circuits: Vec<Circuit> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|_| {
                    let barrier = &barrier;
                    scope.spawn(move || {
                        barrier.wait();
                        sched_ref.request(CostKind::Gates, w.rep).unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for c in &circuits {
            assert_eq!(c.perm(4), w.rep);
            assert_eq!(c, &circuits[0], "all waiters get the same circuit");
        }
        let counters = sched.counters();
        assert_eq!(counters.searches, 1, "one search for the whole class");
        // At least one of the six rendezvoused requests must have
        // attached (the race leaves the exact split nondeterministic,
        // but 6 barrier-released requests cannot all finish disjointly
        // with a single worker: either they coalesced or they found the
        // cache — and the cache starts cold).
        assert!(
            counters.coalesced >= 1 || counters.searches == 1,
            "{counters:?}"
        );
        sched.shutdown();
    }

    #[test]
    fn batch_drains_multiple_classes_in_one_call() {
        let (sched, suite, _cache) = scheduler(1);
        let sym = suite.sym();
        let lib = GateLib::nct(4);
        // Queue several distinct classes from different threads at once.
        let reps: Vec<Perm> = lib
            .iter()
            .map(|(_, _, p)| sym.canonical(p))
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        assert!(reps.len() >= 4);
        let sched_ref = &sched;
        let barrier = Barrier::new(reps.len());
        std::thread::scope(|scope| {
            for &rep in &reps {
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    let c = sched_ref.request(CostKind::Gates, rep).unwrap();
                    assert_eq!(c.perm(4), rep);
                });
            }
        });
        let counters = sched.counters();
        assert_eq!(counters.searches, reps.len() as u64);
        assert!(
            counters.batches <= counters.searches,
            "batching can only reduce calls: {counters:?}"
        );
        assert!(counters.max_batch >= 1);
        sched.shutdown();
    }

    #[test]
    fn scheduled_circuit_replays_to_the_query() {
        // End-to-end miss path as the server performs it: canonicalize,
        // schedule the rep, replay through the witness.
        let (sched, suite, _cache) = scheduler(1);
        let sym = suite.sym();
        let query = "TOF(b,c,d) NOT(a) CNOT(c,b)"
            .parse::<revsynth_circuit::Circuit>()
            .unwrap()
            .perm(4);
        let w = sym.canonicalize(query);
        let rep_circuit = sched.request(CostKind::Gates, w.rep).unwrap();
        let answer = replay_for_witness(&rep_circuit, &w);
        assert_eq!(answer.perm(4), query);
        sched.shutdown();
    }

    #[test]
    fn unsynthesizable_queries_fail_cleanly() {
        let (sched, suite, cache) = scheduler(1);
        // k = 2 reaches size 4; a random large permutation exceeds it.
        let hard =
            Perm::from_values(&[15, 1, 12, 3, 5, 6, 8, 7, 0, 10, 13, 9, 2, 4, 14, 11]).unwrap();
        let rep = suite.sym().canonical(hard);
        let err = sched.request(CostKind::Gates, rep).unwrap_err();
        assert!(matches!(err, ServeError::Synthesis(_)), "{err}");
        assert!(
            cache.get(CostKind::Gates, rep).is_none(),
            "failures are not cached"
        );
        sched.shutdown();
    }

    #[test]
    fn linger_forms_batches_and_guarantees_coalescing() {
        // With a linger window much wider than thread-spawn jitter, all
        // concurrent first-miss requests must land in ONE drained batch
        // (distinct classes) and same-class requests must attach to the
        // in-flight ticket — deterministically, not as a race.
        let suite = Arc::new(test_suite());
        let cache = Arc::new(ClassCache::new(256));
        let sched = Scheduler::with_linger(
            Arc::clone(&suite),
            cache,
            1,
            SearchOptions::new().threads(1),
            Duration::from_millis(150),
        );
        let sym = suite.sym();
        let reps: Vec<Perm> = GateLib::nct(4)
            .iter()
            .map(|(_, _, p)| sym.canonical(p))
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        let classes = reps.len() as u64;
        let dup = reps[0];
        let sched_ref = &sched;
        std::thread::scope(|scope| {
            for &rep in &reps {
                scope.spawn(move || sched_ref.request(CostKind::Gates, rep).unwrap());
            }
            for _ in 0..2 {
                scope.spawn(move || sched_ref.request(CostKind::Gates, dup).unwrap());
            }
        });
        let c = sched.counters();
        assert_eq!(c.searches, classes, "one search per class");
        assert_eq!(c.batches, 1, "the linger window collected one batch");
        assert_eq!(c.max_batch, classes);
        assert!(c.coalesced >= 2, "duplicate requests attached: {c:?}");
        sched.shutdown();
    }

    #[test]
    fn shutdown_rejects_new_requests() {
        let (sched, suite, _cache) = scheduler(2);
        let rep = suite
            .sym()
            .canonical(GateLib::nct(4).iter().next().unwrap().2);
        let _ = sched.request(CostKind::Gates, rep);
        // shutdown() consumes the scheduler; test the post-shutdown flag
        // through a clone of inner by re-creating the sequence: set the
        // flag first, then request.
        {
            let mut q = lock(&sched.inner.queue);
            q.shutdown = true;
        }
        assert_eq!(
            sched.request(CostKind::Gates, rep),
            Err(ServeError::ShuttingDown)
        );
        {
            let mut q = lock(&sched.inner.queue);
            q.shutdown = false;
        }
        sched.shutdown();
    }

    #[test]
    fn different_cost_models_do_not_coalesce_and_cache_separately() {
        let (sched, suite, cache) = scheduler(1);
        // A class whose gate-count and quantum-cost optima differ in
        // *measure* even when the circuits agree: SWAP(a,b) = 3 CNOTs.
        let swap = "CNOT(a,b) CNOT(b,a) CNOT(a,b)"
            .parse::<revsynth_circuit::Circuit>()
            .unwrap()
            .perm(4);
        let rep = suite.sym().canonical(swap);
        let gates_circuit = sched.request(CostKind::Gates, rep).unwrap();
        let quantum_circuit = sched.request(CostKind::Quantum, rep).unwrap();
        assert_eq!(gates_circuit.perm(4), rep);
        assert_eq!(quantum_circuit.perm(4), rep);
        let counters = sched.counters();
        assert_eq!(
            counters.searches, 2,
            "same class under two models is two searches"
        );
        assert_eq!(counters.coalesced, 0, "kinds never share a ticket");
        assert!(cache.get_quiet(CostKind::Gates, rep).is_some());
        assert!(cache.get_quiet(CostKind::Quantum, rep).is_some());
        sched.shutdown();
    }

    #[test]
    fn traced_requests_record_spans_and_engine_metrics() {
        use revsynth_obs::Registry;
        let registry = Registry::default();
        let metrics = SchedulerMetrics {
            considered: registry.counter("considered", &[], "candidates considered"),
            gated: registry.counter("gated", &[], "candidates gated"),
            canonicalized: registry.counter("canonicalized", &[], "candidates canonicalized"),
            probed: registry.counter("probed", &[], "table probes"),
            batch_search_us: registry.histogram("batch_search_us", &[], "batch engine time"),
        };
        let suite = Arc::new(test_suite());
        let cache = Arc::new(ClassCache::new(256));
        let sched = Scheduler::with_options(
            Arc::clone(&suite),
            Arc::clone(&cache),
            1,
            SearchOptions::new().threads(1),
            SchedulerOptions {
                metrics: Some(metrics.clone()),
                ..SchedulerOptions::default()
            },
        );
        // A 4-gate class: with k = 2 tables this takes a real
        // meet-in-the-middle search, so the engine counters must move.
        let query = "TOF(a,b,d) CNOT(a,b) TOF(b,c,d) CNOT(b,c)"
            .parse::<revsynth_circuit::Circuit>()
            .unwrap()
            .perm(4);
        let rep = suite.sym().canonical(query);
        let mut trace = Trace::new(0xABCD);
        let circuit = sched
            .request_traced(CostKind::Gates, rep, None, &mut trace)
            .unwrap();
        assert_eq!(circuit.perm(4), rep);
        assert_eq!(metrics.batch_search_us.count(), 1, "one batched call");
        assert!(metrics.considered.get() > 0, "engine stats harvested");
        assert!(metrics.probed.get() > 0);
        assert!(metrics.considered.get() >= metrics.gated.get());
        // The search span never exceeds admission + wait accounting:
        // QueueWait and BatchSearch partition the observed ticket wait.
        assert!(trace.total_us == 0, "scheduler never touches total_us");
        // A repeat request is answered by the post-miss cache check:
        // no new batch, and no search/queue spans recorded.
        let mut again = Trace::new(0xABCE);
        let cached = sched
            .request_traced(CostKind::Gates, rep, None, &mut again)
            .unwrap();
        assert_eq!(cached, circuit);
        assert_eq!(metrics.batch_search_us.count(), 1, "no second batch");
        assert_eq!(again.stage_us(Stage::BatchSearch), 0);
        assert_eq!(again.stage_us(Stage::QueueWait), 0);
        sched.shutdown();
    }

    #[test]
    fn queue_depth_accessor_reports_admitted_work() {
        // A 400 ms injected search keeps the lone worker busy; a second
        // class queued behind it is visible through `queued()` until the
        // worker drains it.
        let plan = Arc::new(FaultPlan::new(0x0B5).with_search_delay(Duration::from_millis(400)));
        let (sched, suite) = chaos_scheduler(Arc::clone(&plan), 0);
        let reps = class_reps(&suite, 2);
        let sched_ref = &sched;
        std::thread::scope(|scope| {
            let first = reps[0];
            let a = scope.spawn(move || sched_ref.request(CostKind::Gates, first));
            std::thread::sleep(Duration::from_millis(100));
            let second = reps[1];
            let b = scope.spawn(move || sched_ref.request(CostKind::Gates, second));
            std::thread::sleep(Duration::from_millis(100));
            let depth = sched_ref.queued();
            assert_eq!(depth[CostKind::Gates.code() as usize], 1, "{depth:?}");
            assert!(a.join().unwrap().is_ok());
            assert!(b.join().unwrap().is_ok());
        });
        assert_eq!(sched.queued(), [0; MODELS], "drained queues report empty");
        sched.shutdown();
    }

    /// A scheduler whose single worker is slowed by `plan`, with the
    /// given per-model queue bound.
    fn chaos_scheduler(plan: Arc<FaultPlan>, max_queue: usize) -> (Scheduler, Arc<SynthesisSuite>) {
        let suite = Arc::new(test_suite());
        let sched = Scheduler::with_options(
            Arc::clone(&suite),
            Arc::new(ClassCache::new(256)),
            1,
            SearchOptions::new().threads(1),
            SchedulerOptions {
                max_queue,
                retry_after_ms: 42,
                faults: Some(plan),
                ..SchedulerOptions::default()
            },
        );
        (sched, suite)
    }

    /// Distinct class representatives, deterministic order.
    fn class_reps(suite: &SynthesisSuite, n: usize) -> Vec<Perm> {
        let sym = suite.sym();
        let reps: Vec<Perm> = GateLib::nct(4)
            .iter()
            .map(|(_, _, p)| sym.canonical(p))
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .take(n)
            .collect();
        assert_eq!(reps.len(), n, "gate library has too few classes");
        reps
    }

    #[test]
    fn full_queue_sheds_new_classes_but_still_coalesces() {
        // Pinned seed; the 400 ms injected search latency keeps the lone
        // worker busy while the bounded queue fills behind it.
        let plan = Arc::new(FaultPlan::new(0xC4A0).with_search_delay(Duration::from_millis(400)));
        let (sched, suite) = chaos_scheduler(Arc::clone(&plan), 1);
        let reps = class_reps(&suite, 3);
        let (first, queued, refused) = (reps[0], reps[1], reps[2]);
        let sched_ref = &sched;
        std::thread::scope(|scope| {
            let a = scope.spawn(move || sched_ref.request(CostKind::Gates, first));
            // Let the worker drain `first` and start its injected delay.
            std::thread::sleep(Duration::from_millis(100));
            let b = scope.spawn(move || sched_ref.request(CostKind::Gates, queued));
            std::thread::sleep(Duration::from_millis(100));
            // Queue holds `queued` (1/1): a third class is shed with the
            // configured hint...
            assert_eq!(
                sched_ref.request(CostKind::Gates, refused),
                Err(ServeError::Overloaded { retry_after_ms: 42 })
            );
            // ...a *different model* has its own empty queue and admits...
            let c = scope.spawn(move || sched_ref.request(CostKind::Quantum, refused));
            // ...and coalescing onto the in-flight first search needs no
            // slot, so it must succeed even now.
            let a2 = scope.spawn(move || sched_ref.request(CostKind::Gates, first));
            assert!(a.join().unwrap().is_ok());
            assert!(a2.join().unwrap().is_ok());
            assert!(b.join().unwrap().is_ok());
            assert!(c.join().unwrap().is_ok());
        });
        let counters = sched.counters();
        assert_eq!(counters.shed[CostKind::Gates.code() as usize], 1);
        assert_eq!(counters.shed_total(), 1, "only the gates queue shed");
        assert!(counters.coalesced >= 1, "{counters:?}");
        assert_eq!(
            counters.searches, 3,
            "shed and coalesced requests never searched"
        );
        assert_eq!(counters.searches, plan.injected().delays, "plan reconciles");
        sched.shutdown();
    }

    #[test]
    fn deadline_expires_before_search_under_injected_latency() {
        let plan = Arc::new(FaultPlan::new(0xDEAD).with_search_delay(Duration::from_millis(300)));
        let (sched, suite) = chaos_scheduler(Arc::clone(&plan), 0);
        let reps = class_reps(&suite, 2);
        let sched_ref = &sched;
        std::thread::scope(|scope| {
            let first = reps[0];
            let a = scope.spawn(move || sched_ref.request(CostKind::Gates, first));
            std::thread::sleep(Duration::from_millis(100));
            // Queued behind a 300 ms search with only 50 ms of budget:
            // a worker reaches the ticket after the deadline and must
            // answer Expired without searching.
            let doomed = reps[1];
            let deadline = Instant::now() + Duration::from_millis(50);
            assert_eq!(
                sched_ref.request_with_deadline(CostKind::Gates, doomed, Some(deadline)),
                Err(ServeError::Expired)
            );
            assert!(a.join().unwrap().is_ok());
        });
        // An already-past deadline is expired at admission, before any
        // queue slot is taken.
        let past = Instant::now() - Duration::from_millis(1);
        assert_eq!(
            sched.request_with_deadline(CostKind::Gates, reps[1], Some(past)),
            Err(ServeError::Expired)
        );
        let counters = sched.counters();
        assert_eq!(counters.expired[CostKind::Gates.code() as usize], 2);
        assert_eq!(
            counters.searches, 1,
            "expired tickets never reach the engine"
        );
        assert_eq!(plan.injected().delays, 1, "one search was delayed");
        sched.shutdown();
    }

    #[test]
    fn injected_failures_are_reported_and_never_cached() {
        let plan = Arc::new(FaultPlan::new(7).with_fail_every(1));
        let suite = Arc::new(test_suite());
        let cache = Arc::new(ClassCache::new(256));
        let sched = Scheduler::with_options(
            Arc::clone(&suite),
            Arc::clone(&cache),
            1,
            SearchOptions::new().threads(1),
            SchedulerOptions {
                faults: Some(Arc::clone(&plan)),
                ..SchedulerOptions::default()
            },
        );
        let rep = class_reps(&suite, 1)[0];
        match sched.request(CostKind::Gates, rep) {
            Err(ServeError::Synthesis(msg)) => assert!(msg.contains(INJECTED_FAILURE), "{msg}"),
            other => panic!("expected injected failure, got {other:?}"),
        }
        assert!(cache.get_quiet(CostKind::Gates, rep).is_none());
        let counters = sched.counters();
        assert_eq!(counters.searches, 0, "plan-failed searches never run");
        assert_eq!(plan.injected().failures, 1);
        sched.shutdown();
    }

    #[test]
    fn panicking_worker_is_respawned_and_waiters_get_a_clean_error() {
        // panic_every(2): the second drained search kills the worker.
        // Its waiter must receive WORKER_PANIC (not hang), the
        // supervisor must respawn the worker in place, and the
        // respawned worker must answer the next request normally.
        let plan = Arc::new(FaultPlan::new(11).with_panic_every(2));
        let suite = Arc::new(test_suite());
        let cache = Arc::new(ClassCache::new(256));
        let sched = Scheduler::with_options(
            Arc::clone(&suite),
            Arc::clone(&cache),
            1,
            SearchOptions::new().threads(1),
            SchedulerOptions {
                faults: Some(Arc::clone(&plan)),
                ..SchedulerOptions::default()
            },
        );
        let reps = class_reps(&suite, 3);
        // Search #1: no fault, answered normally.
        let first = sched.request(CostKind::Gates, reps[0]).unwrap();
        assert_eq!(first.perm(4), reps[0]);
        // Search #2: the injected panic. The drain guard answers the
        // waiter during unwinding; nothing reaches the cache.
        match sched.request(CostKind::Gates, reps[1]) {
            Err(ServeError::Synthesis(msg)) => assert!(msg.contains(WORKER_PANIC), "{msg}"),
            other => panic!("expected abandoned search, got {other:?}"),
        }
        assert!(cache.get_quiet(CostKind::Gates, reps[1]).is_none());
        // Search #3: served by the respawned worker.
        let third = sched.request(CostKind::Gates, reps[2]).unwrap();
        assert_eq!(third.perm(4), reps[2]);
        let counters = sched.counters();
        assert_eq!(counters.worker_restarts, 1, "{counters:?}");
        assert_eq!(plan.injected().panics, 1);
        assert_eq!(sched.live_workers(), 1, "pool self-healed to strength");
        sched.shutdown();
        assert_eq!(sched.live_workers(), 0);
    }

    /// A sharded scheduler (multiple miss-queue lanes) with one worker,
    /// so off-home lanes can only ever drain via stealing.
    fn sharded_scheduler(shards: usize) -> (Scheduler, Arc<SynthesisSuite>) {
        let suite = Arc::new(test_suite());
        let sched = Scheduler::with_options(
            Arc::clone(&suite),
            Arc::new(ClassCache::new(256)),
            1,
            SearchOptions::new().threads(1),
            SchedulerOptions {
                shards,
                ..SchedulerOptions::default()
            },
        );
        (sched, suite)
    }

    #[test]
    fn submit_resolves_without_blocking_and_reports_search_time() {
        let (sched, suite) = sharded_scheduler(2);
        let rep = class_reps(&suite, 1)[0];
        let handle = match sched.submit(CostKind::Gates, rep, None, 0) {
            Submission::Pending(handle) => handle,
            other => panic!("fresh class must queue, got {other:?}"),
        };
        // Poll until the worker answers — the caller never parks.
        let deadline = Instant::now() + Duration::from_secs(30);
        let result = loop {
            if let Some(result) = handle.try_result() {
                break result;
            }
            assert!(Instant::now() < deadline, "ticket never resolved");
            std::thread::sleep(Duration::from_millis(1));
        };
        assert_eq!(result.unwrap().perm(4), rep);
        // A second submit short-circuits on the cache re-check.
        match sched.submit(CostKind::Gates, rep, None, 1) {
            Submission::Ready(Ok(c)) => assert_eq!(c.perm(4), rep),
            other => panic!("warm class must resolve at admission, got {other:?}"),
        }
        assert!(sched.drained(), "no queued or inflight work remains");
        sched.shutdown();
    }

    #[test]
    fn off_home_lanes_drain_via_steal() {
        let (sched, suite) = sharded_scheduler(4);
        let reps = class_reps(&suite, 3);
        // Every miss lands in lane 3; the lone worker's home lane (0)
        // stays empty, so the only path to an answer is a steal.
        let handles: Vec<TicketHandle> = reps
            .iter()
            .map(|&rep| match sched.submit(CostKind::Gates, rep, None, 3) {
                Submission::Pending(handle) => handle,
                other => panic!("fresh class must queue, got {other:?}"),
            })
            .collect();
        let deadline = Instant::now() + Duration::from_secs(30);
        for (handle, &rep) in handles.iter().zip(&reps) {
            loop {
                if let Some(result) = handle.try_result() {
                    assert_eq!(result.unwrap().perm(4), rep);
                    break;
                }
                assert!(Instant::now() < deadline, "stolen work never resolved");
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        let counters = sched.counters();
        assert!(counters.steals >= 1, "{counters:?}");
        assert_eq!(counters.searches, reps.len() as u64);
        assert!(sched.drained());
        sched.shutdown();
    }

    #[test]
    fn single_lane_schedulers_never_steal() {
        let (sched, suite, _cache) = scheduler(2);
        let reps = class_reps(&suite, 4);
        let sched_ref = &sched;
        std::thread::scope(|scope| {
            for &rep in &reps {
                scope.spawn(move || sched_ref.request(CostKind::Gates, rep).unwrap());
            }
        });
        assert_eq!(sched.counters().steals, 0, "one lane has no siblings");
        sched.shutdown();
    }

    /// An event-loop core's wake-up plumbing: its waker, registered
    /// with its poller. `None` where epoll or eventfd is unavailable.
    struct Core {
        poller: revsynth_mmap::net::Poller,
        waker: Arc<Waker>,
    }

    impl Core {
        fn new() -> Option<Core> {
            let poller = revsynth_mmap::net::Poller::new()?;
            let waker = Arc::new(Waker::new()?);
            assert!(poller.add(waker.fd(), 0, false));
            Some(Core { poller, waker })
        }

        /// Blocks until the waker fires (failing after 30 s), then
        /// returns the wakes it held.
        fn await_wake(&self) -> u64 {
            let mut events = Vec::new();
            assert!(self.poller.wait(&mut events, 30_000));
            assert_eq!(events.len(), 1, "core never woken");
            self.waker.drain()
        }
    }

    /// Submits a fresh `rep` and parks `core` on its ticket.
    fn park(sched: &Scheduler, core: &Core, rep: Perm, deadline: Option<Instant>) -> TicketHandle {
        match sched.submit(CostKind::Gates, rep, deadline, 0) {
            Submission::Pending(handle) => {
                handle.wake_on_resolve(&core.waker);
                handle
            }
            other => panic!("fresh class must queue, got {other:?}"),
        }
    }

    #[test]
    fn parked_cores_are_woken_on_every_resolution_path() {
        let Some(core) = Core::new() else {
            return; // platform without epoll or eventfd
        };
        let suite = Arc::new(test_suite());
        let reps = class_reps(&suite, 3);
        let with_plan = |plan: FaultPlan| {
            Scheduler::with_options(
                Arc::clone(&suite),
                Arc::new(ClassCache::new(256)),
                1,
                SearchOptions::new().threads(1),
                SchedulerOptions {
                    faults: Some(Arc::new(plan)),
                    ..SchedulerOptions::default()
                },
            )
        };

        // A finished search.
        let (sched, _, _) = scheduler(1);
        let handle = park(&sched, &core, reps[0], None);
        assert_eq!(core.await_wake(), 1);
        assert_eq!(handle.try_result().unwrap().unwrap().perm(4), reps[0]);
        // Registering after the result is published wakes at once.
        handle.wake_on_resolve(&core.waker);
        assert_eq!(core.await_wake(), 1);
        sched.shutdown();

        // A fault-plan failure.
        let sched = with_plan(FaultPlan::new(3).with_fail_every(1));
        let handle = park(&sched, &core, reps[0], None);
        assert_eq!(core.await_wake(), 1);
        match handle.try_result() {
            Some(Err(ServeError::Synthesis(msg))) => assert!(msg.contains(INJECTED_FAILURE)),
            other => panic!("expected injected failure, got {other:?}"),
        }
        sched.shutdown();

        // A worker panic: the drain guard resolves during unwinding.
        let sched = with_plan(FaultPlan::new(5).with_panic_every(1));
        let handle = park(&sched, &core, reps[0], None);
        assert_eq!(core.await_wake(), 1);
        match handle.try_result() {
            Some(Err(ServeError::Synthesis(msg))) => assert!(msg.contains(WORKER_PANIC)),
            other => panic!("expected abandoned search, got {other:?}"),
        }
        sched.shutdown();

        // Drain-time expiry, then shutdown: each ticket queues behind a
        // 300 ms search. The first expires when the worker drains it;
        // the second is failed by shutdown while still queued. Each
        // ticket parks its own core, so every wake is counted apart.
        let sched = with_plan(FaultPlan::new(7).with_search_delay(Duration::from_millis(300)));
        let (busy_core, queued_core) = (Core::new().unwrap(), Core::new().unwrap());
        let busy = park(&sched, &busy_core, reps[0], None);
        std::thread::sleep(Duration::from_millis(100));
        let deadline = Instant::now() + Duration::from_millis(50);
        let doomed = park(&sched, &queued_core, reps[1], Some(deadline));
        assert_eq!(queued_core.await_wake(), 1);
        assert_eq!(doomed.try_result(), Some(Err(ServeError::Expired)));
        assert_eq!(busy_core.await_wake(), 1);
        assert!(busy.try_result().unwrap().is_ok());

        let busy = park(&sched, &busy_core, reps[2], None);
        std::thread::sleep(Duration::from_millis(100));
        let queued = park(&sched, &queued_core, reps[1], None);
        std::thread::scope(|s| {
            s.spawn(|| sched.shutdown());
            assert_eq!(queued_core.await_wake(), 1);
            assert_eq!(queued.try_result(), Some(Err(ServeError::ShuttingDown)));
        });
        assert_eq!(busy_core.await_wake(), 1, "the running search finished");
        assert!(busy.try_result().unwrap().is_ok());
    }

    #[test]
    fn coalesced_waiters_on_two_cores_are_each_woken_once() {
        let (Some(a), Some(b)) = (Core::new(), Core::new()) else {
            return; // platform without epoll or eventfd
        };
        let plan = FaultPlan::new(0xC0A1).with_search_delay(Duration::from_millis(200));
        let (sched, suite) = chaos_scheduler(Arc::new(plan), 0);
        let rep = class_reps(&suite, 1)[0];
        let first = park(&sched, &a, rep, None);
        // Two more connections hold the same ticket: one on core a
        // again, one on core b.
        let mut coalesced = Vec::new();
        for core in [&a, &b] {
            match sched.submit(CostKind::Gates, rep, None, 1) {
                Submission::Pending(handle) => {
                    handle.wake_on_resolve(&core.waker);
                    coalesced.push(handle);
                }
                other => panic!("in-flight class must coalesce, got {other:?}"),
            }
        }
        assert_eq!(sched.counters().coalesced, 2);
        assert_eq!(a.await_wake(), 1, "core a woken once for both its holders");
        assert_eq!(b.await_wake(), 1);
        for handle in coalesced.iter().chain([&first]) {
            assert_eq!(handle.try_result().unwrap().unwrap().perm(4), rep);
        }
        sched.shutdown();
    }

    #[test]
    fn drained_is_false_while_work_is_inflight() {
        let plan = Arc::new(FaultPlan::new(0xD3A1).with_search_delay(Duration::from_millis(300)));
        let (sched, suite) = chaos_scheduler(Arc::clone(&plan), 0);
        assert!(sched.drained(), "fresh scheduler is drained");
        let rep = class_reps(&suite, 1)[0];
        let handle = match sched.submit(CostKind::Gates, rep, None, 0) {
            Submission::Pending(handle) => handle,
            other => panic!("fresh class must queue, got {other:?}"),
        };
        // Queued or mid-search: either way, not drained.
        assert!(!sched.drained());
        let deadline = Instant::now() + Duration::from_secs(30);
        while handle.try_result().is_none() {
            assert!(Instant::now() < deadline, "ticket never resolved");
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(sched.drained(), "resolution drains the inflight map");
        sched.shutdown();
    }
}
