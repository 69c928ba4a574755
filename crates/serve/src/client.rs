//! Blocking client for the synthesis service.
//!
//! One [`Client`] holds one TCP connection and issues requests
//! synchronously (the protocol is strictly request/response per
//! connection). Clients are cheap; open one per thread for concurrent
//! load.
//!
//! Overload handling: a server shedding load answers with an
//! `Overloaded` frame, surfaced as [`ClientError::Overloaded`] with the
//! server's retry hint; a [`QueryOptions::retry`] policy turns the hint
//! into capped exponential backoff with deterministic SplitMix64
//! jitter ([`RetryPolicy`]). A read that exhausts its timeout budget is
//! surfaced as [`ClientError::DeadlineExceeded`] — distinguishable from
//! a dead socket — after which the connection must be discarded (a late
//! response may still be in flight on the stream).

use std::error::Error;
use std::fmt;
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use revsynth_analysis::{Rng, SplitMix64};
use revsynth_circuit::{Circuit, CostKind};
use revsynth_perm::Perm;

use crate::protocol::{
    decode_response, encode_request, read_frame, write_frame, ProtocolError, Request, Response,
};
use crate::stats::{HealthReport, ServeStats};

/// Client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Socket or framing failure.
    Protocol(ProtocolError),
    /// The server answered with an error response (unsynthesizable
    /// function, shutdown in progress, malformed request…).
    Server(String),
    /// The server shed the request (queue or connection limit); retry
    /// after the hint, with backoff (a [`QueryOptions::retry`] policy
    /// does this automatically).
    Overloaded {
        /// The server's suggested wait before retrying, milliseconds.
        retry_after_ms: u32,
    },
    /// No response arrived within the connection's timeout budget. The
    /// server may still answer later — the connection is now
    /// desynchronized and must be discarded.
    DeadlineExceeded {
        /// Time waited before giving up.
        elapsed: Duration,
        /// The connection's configured timeout budget.
        budget: Duration,
    },
    /// The server answered with a response that does not match the
    /// request (e.g. stats for a query) — a protocol bug or a hostile
    /// server.
    UnexpectedResponse,
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Protocol(e) => write!(f, "protocol failure: {e}"),
            ClientError::Server(msg) => write!(f, "server error: {msg}"),
            ClientError::Overloaded { retry_after_ms } => {
                write!(f, "server overloaded; retry after {retry_after_ms} ms")
            }
            ClientError::DeadlineExceeded { elapsed, budget } => write!(
                f,
                "deadline exceeded: no response after {:.1} s of a {:.1} s budget",
                elapsed.as_secs_f64(),
                budget.as_secs_f64()
            ),
            ClientError::UnexpectedResponse => write!(f, "response does not match the request"),
        }
    }
}

impl Error for ClientError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ClientError::Protocol(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ProtocolError> for ClientError {
    fn from(e: ProtocolError) -> Self {
        ClientError::Protocol(e)
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Protocol(ProtocolError::Io(e))
    }
}

/// Capped exponential backoff with deterministic jitter, used by
/// [`Client::query_opts`] when [`QueryOptions::retry`] is set and the
/// server sheds load.
///
/// Attempt `k` (0-based) waits `max(server hint, jittered backoff)`
/// where the backoff doubles from `base` up to `cap` and the jitter
/// draws uniformly from `[delay/2, delay]` using a seeded
/// [`SplitMix64`] — deterministic per seed, decorrelated across
/// clients so a shed thundering herd does not reconverge on one retry
/// instant.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts (the first try plus retries); at least 1.
    pub attempts: u32,
    /// Backoff before the first retry (doubles each retry).
    pub base: Duration,
    /// Upper bound on any single backoff sleep.
    pub cap: Duration,
    /// Jitter seed (vary per client; determinism per seed is what chaos
    /// tests pin).
    pub seed: u64,
}

impl Default for RetryPolicy {
    /// 5 attempts, 10 ms doubling to a 1 s cap.
    fn default() -> Self {
        RetryPolicy {
            attempts: 5,
            base: Duration::from_millis(10),
            cap: Duration::from_secs(1),
            seed: 0x5EED,
        }
    }
}

impl RetryPolicy {
    /// The sleep before retry number `retry` (0-based), honoring the
    /// server's `retry_after_ms` hint as a floor.
    fn delay(&self, retry: u32, retry_after_ms: u32, rng: &mut SplitMix64) -> Duration {
        let doubled = self
            .base
            .saturating_mul(1u32 << retry.min(20))
            .min(self.cap);
        let nanos = doubled.as_nanos().min(u128::from(u64::MAX)) as u64;
        // Uniform in [delay/2, delay]: keeps a meaningful wait while
        // spreading clients across half the window.
        let jittered = Duration::from_nanos(nanos / 2 + rng.next_u64() % (nanos / 2 + 1));
        jittered.max(Duration::from_millis(u64::from(retry_after_ms)))
    }
}

/// Options for one query: cost model, server-side deadline, retry
/// policy — all taken by the single entry point [`Client::query_opts`].
///
/// ```
/// # use revsynth_serve::{QueryOptions, RetryPolicy};
/// # use revsynth_circuit::CostKind;
/// let opts = QueryOptions::new()
///     .cost_model(CostKind::Quantum)
///     .deadline_ms(250)
///     .retry(RetryPolicy::default());
/// assert_eq!(opts.cost_model, CostKind::Quantum);
/// ```
#[derive(Debug, Clone, Default)]
pub struct QueryOptions {
    /// The cost model to minimize ([`CostKind::Gates`] by default).
    pub cost_model: CostKind,
    /// Server-side deadline, milliseconds from the server decoding the
    /// request: if the search cannot *start* within the budget, the
    /// server expires the request instead of running it. `None` (the
    /// default) = no deadline.
    pub deadline_ms: Option<u32>,
    /// Retry shed requests with capped, jittered exponential backoff
    /// ([`RetryPolicy`]); `None` (the default) surfaces
    /// [`ClientError::Overloaded`] to the caller on the first shed.
    pub retry: Option<RetryPolicy>,
}

impl QueryOptions {
    /// The default options: gate count, no deadline, no retry.
    #[must_use]
    pub fn new() -> Self {
        QueryOptions::default()
    }

    /// Sets the cost model ([`cost_model`](Self::cost_model)).
    #[must_use]
    pub fn cost_model(mut self, kind: CostKind) -> Self {
        self.cost_model = kind;
        self
    }

    /// Sets the server-side deadline ([`deadline_ms`](Self::deadline_ms)).
    #[must_use]
    pub fn deadline_ms(mut self, ms: u32) -> Self {
        self.deadline_ms = Some(ms);
        self
    }

    /// Enables overload retry with `policy` ([`retry`](Self::retry)).
    #[must_use]
    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = Some(policy);
        self
    }
}

/// A blocking connection to a synthesis server.
pub struct Client {
    stream: TcpStream,
    /// The read/write timeout budget, kept for deadline reporting.
    timeout: Duration,
}

impl Client {
    /// Default per-request timeout: generous enough for a cold search
    /// on modest tables, finite so a dead server cannot hang a caller.
    pub const DEFAULT_TIMEOUT: Duration = Duration::from_secs(60);

    /// Connects with the [default timeout](Self::DEFAULT_TIMEOUT).
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        Self::connect_with_timeout(addr, Self::DEFAULT_TIMEOUT)
    }

    /// Connects with an explicit per-request read/write timeout.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect_with_timeout(addr: SocketAddr, timeout: Duration) -> io::Result<Client> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        Ok(Client { stream, timeout })
    }

    fn round_trip(&mut self, request: &Request) -> Result<Response, ClientError> {
        let start = Instant::now();
        if let Err(e) = write_frame(&mut self.stream, &encode_request(request)) {
            // A server shedding this connection answers *before* reading
            // the request and closes, so the write can fail with the
            // response already in our receive buffer. Drain one pending
            // frame before giving up — that is how the typed
            // `Overloaded` reaches callers of a shed connection.
            if let Ok(payload) = read_frame(&mut self.stream) {
                return Ok(decode_response(&payload)?);
            }
            return Err(ClientError::Protocol(ProtocolError::Io(e)));
        }
        let payload = read_frame(&mut self.stream).map_err(|e| match e {
            // An OS read timeout (reported as WouldBlock or TimedOut
            // depending on platform) is the request's budget running
            // out, not a dead socket — surface it as the typed deadline
            // error with the elapsed/budget evidence.
            ProtocolError::Io(io)
                if matches!(
                    io.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                ClientError::DeadlineExceeded {
                    elapsed: start.elapsed(),
                    budget: self.timeout,
                }
            }
            other => ClientError::Protocol(other),
        })?;
        Ok(decode_response(&payload)?)
    }

    /// Synthesizes a gate-count-optimal circuit for `f` on the server
    /// (shorthand for [`query_opts`](Self::query_opts) with default
    /// [`QueryOptions`]).
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] when the server declines the query,
    /// [`ClientError::Protocol`] on transport failure.
    pub fn query(&mut self, f: Perm) -> Result<Circuit, ClientError> {
        self.query_opts(f, &QueryOptions::new())
    }

    /// Synthesizes a cost-minimal circuit for `f` per `opts`: the
    /// selected cost model, an optional server-side deadline, and an
    /// optional overload-retry policy.
    ///
    /// With a retry policy set, a shed request ([`ClientError::
    /// Overloaded`]) sleeps per the policy (capped exponential backoff,
    /// jittered, floored at the server's hint) and retries on the same
    /// connection — a shed answer is a complete response, so the stream
    /// stays synchronized. All other errors are returned immediately.
    ///
    /// # Errors
    ///
    /// As [`query`](Self::query); additionally the server declines when
    /// the function is beyond the selected engine's reach;
    /// [`ClientError::Overloaded`] when the server sheds the request
    /// (and every configured retry was also shed).
    pub fn query_opts(&mut self, f: Perm, opts: &QueryOptions) -> Result<Circuit, ClientError> {
        let attempts = opts.retry.as_ref().map_or(1, |p| p.attempts.max(1));
        let mut rng = opts.retry.as_ref().map(|p| SplitMix64::new(p.seed));
        for retry in 0..attempts {
            let response = self.round_trip(&Request::Query(f, opts.cost_model, opts.deadline_ms));
            match response? {
                Response::Circuit(circuit) => return Ok(circuit),
                Response::Error(msg) => return Err(ClientError::Server(msg)),
                Response::Overloaded { retry_after_ms } => match (&opts.retry, &mut rng) {
                    (Some(policy), Some(rng)) if retry + 1 < attempts => {
                        std::thread::sleep(policy.delay(retry, retry_after_ms, rng));
                    }
                    _ => return Err(ClientError::Overloaded { retry_after_ms }),
                },
                _ => return Err(ClientError::UnexpectedResponse),
            }
        }
        unreachable!("the last attempt always returns")
    }

    /// One round trip with the error demultiplexing every non-query
    /// request shares: `Error` and `Overloaded` frames become their
    /// typed client errors (a connection shed at the accept gate
    /// answers *any* request with `Overloaded`, not just queries);
    /// anything else is handed to `expect` for request-specific
    /// matching.
    fn round_trip_demuxed<T>(
        &mut self,
        request: &Request,
        expect: impl FnOnce(Response) -> Option<T>,
    ) -> Result<T, ClientError> {
        match self.round_trip(request)? {
            Response::Error(msg) => Err(ClientError::Server(msg)),
            Response::Overloaded { retry_after_ms } => {
                Err(ClientError::Overloaded { retry_after_ms })
            }
            other => expect(other).ok_or(ClientError::UnexpectedResponse),
        }
    }

    /// Fetches the server's stats snapshot.
    ///
    /// # Errors
    ///
    /// As [`query`](Self::query); additionally
    /// [`ClientError::Overloaded`] when the connection itself was shed.
    pub fn stats(&mut self) -> Result<ServeStats, ClientError> {
        self.round_trip_demuxed(&Request::Stats, |r| match r {
            Response::Stats(stats) => Some(stats),
            _ => None,
        })
    }

    /// Fetches the server's health probe: uptime, snapshot-restore
    /// count, live worker count, and snapshot age.
    ///
    /// # Errors
    ///
    /// As [`stats`](Self::stats).
    pub fn health(&mut self) -> Result<HealthReport, ClientError> {
        self.round_trip_demuxed(&Request::Health, |r| match r {
            Response::Health(report) => Some(report),
            _ => None,
        })
    }

    /// Fetches the server's metrics registry rendered in Prometheus
    /// text exposition format: every [`ServeStats`] field as a
    /// `revsynth_`-prefixed series, the per-stage latency histograms,
    /// engine profiling counters, snapshot timings and occupancy gauges.
    ///
    /// # Errors
    ///
    /// As [`stats`](Self::stats).
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        self.round_trip_demuxed(&Request::Metrics, |r| match r {
            Response::Metrics(text) => Some(text),
            _ => None,
        })
    }

    /// Fetches the server's captured slow-query traces as a JSON array
    /// (oldest first; empty unless the server was started with a
    /// slow-query threshold).
    ///
    /// # Errors
    ///
    /// As [`stats`](Self::stats).
    pub fn slow_queries(&mut self) -> Result<String, ClientError> {
        self.round_trip_demuxed(&Request::SlowQueries, |r| match r {
            Response::SlowQueries(json) => Some(json),
            _ => None,
        })
    }

    /// Fetches the server's rolling ring of recent request traces
    /// (slow or not) as a JSON array, oldest first. Bounded by the
    /// frame cap: when the ring holds more than one frame can carry,
    /// the newest traces are returned.
    ///
    /// # Errors
    ///
    /// As [`stats`](Self::stats).
    pub fn traces(&mut self) -> Result<String, ClientError> {
        self.round_trip_demuxed(&Request::Traces, |r| match r {
            Response::Traces(json) => Some(json),
            _ => None,
        })
    }

    /// Asks the server to shut down gracefully.
    ///
    /// # Errors
    ///
    /// As [`stats`](Self::stats).
    pub fn shutdown_server(&mut self) -> Result<(), ClientError> {
        self.round_trip_demuxed(&Request::Shutdown, |r| match r {
            Response::ShuttingDown => Some(()),
            _ => None,
        })
    }
}

impl fmt::Debug for Client {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.stream.peer_addr() {
            Ok(addr) => write!(f, "Client({addr})"),
            Err(_) => write!(f, "Client(disconnected)"),
        }
    }
}
