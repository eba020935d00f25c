//! The event-driven connection core: one reactor thread multiplexing
//! every connection through epoll, parking idle keep-alive clients for
//! free and handing readable ones to the worker pool through a bounded
//! queue.
//!
//! This replaces the blocking accept loop that pushed every accepted
//! socket into an unbounded channel — the overload-collapse shape: with
//! all workers busy, connections queued without limit, their idle timeout
//! did not start ticking until a worker finally picked them up, and the
//! process ballooned memory while serving sockets whose clients had long
//! given up. The reactor inverts that:
//!
//! * **Admission at accept.** Beyond `--max-conns` open connections, new
//!   arrivals are answered `429 Too Many Requests` (with `retry-after`)
//!   and closed immediately — bounded connection state, never a silent
//!   backlog.
//! * **Bounded dispatch.** A readable connection is offered to the worker
//!   queue with a non-blocking `try_submit`; a full queue means the
//!   server is saturated *right now*, so the connection is shed with a
//!   429 instead of waiting unserved. Load sheds; it does not collapse.
//! * **Idle reaping from accept time.** Parked connections carry their
//!   park timestamp; the reactor sweeps anything idle past the configured
//!   timeout — which applies from the moment the connection was accepted,
//!   not from the moment a worker first touched it.
//! * **Parking is free.** A keep-alive client between requests costs one
//!   parked fd in the epoll set, not a blocked worker thread — the shape
//!   that scales to millions of mostly-idle connections.
//!
//! Workers return keep-alive connections through an (unbounded, never
//! blocking) return channel and ring the reactor's eventfd waker; the
//! reactor re-parks them. Level-triggered epoll closes the race: bytes
//! that arrived while the connection was with the worker re-fire the
//! moment it is re-registered.
//!
//! Admission is entirely upstream of the engine — it decides *whether* a
//! request is handled, never *what* the answer contains — so the
//! determinism contract (byte-identical results at any thread count) is
//! untouched by construction.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::unimplemented
)]

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Receiver;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tsexplain_epoll::{Event, Poller, Waker};

use crate::error::ApiError;
use crate::pool::{SubmitError, WorkerPool};
use crate::server::{next_request_id, ServerShared};

/// The epoll token of the listening socket.
const LISTENER_TOKEN: u64 = 0;
/// The epoll token of the eventfd waker.
const WAKER_TOKEN: u64 = 1;
/// First token handed to an accepted connection.
const FIRST_CONN_TOKEN: u64 = 2;

/// What a shed response tells the client about retrying: the queue
/// drains at worker speed, so "in about a second" is honest for both the
/// connection-limit and queue-full cases.
const SHED_RETRY_AFTER: Duration = Duration::from_secs(1);

/// A connection parked in the epoll set, waiting for bytes.
struct Parked {
    stream: TcpStream,
    /// When the connection entered the parked state — accept time for
    /// new connections, response time for keep-alive re-parks. The idle
    /// timeout measures from here.
    idle_since: Instant,
}

/// Everything the reactor thread owns. Built by `Server::bind` (so epoll
/// setup errors surface from `bind`, not from a background thread) and
/// consumed by [`Reactor::run`].
pub(crate) struct Reactor {
    pub(crate) poller: Poller,
    pub(crate) waker: Arc<Waker>,
    pub(crate) listener: TcpListener,
    pub(crate) pool: WorkerPool<TcpStream>,
    pub(crate) returns: Receiver<TcpStream>,
    pub(crate) shared: Arc<ServerShared>,
    pub(crate) stopping: Arc<AtomicBool>,
    pub(crate) max_conns: usize,
    pub(crate) idle_timeout: Duration,
}

/// Builds the epoll set for a reactor: listener + waker registered under
/// their fixed tokens. Runs in `Server::bind` so failures are bind errors.
pub(crate) fn build_poller(listener: &TcpListener, waker: &Waker) -> std::io::Result<Poller> {
    listener.set_nonblocking(true)?;
    let poller = Poller::new()?;
    poller.add(listener.as_raw_fd(), LISTENER_TOKEN)?;
    poller.add(waker.raw_fd(), WAKER_TOKEN)?;
    Ok(poller)
}

impl Reactor {
    /// The multiplexer loop: wait for readiness, accept/dispatch/re-park,
    /// sweep idle connections; on shutdown, drain workers and close
    /// everything parked.
    pub(crate) fn run(self) {
        let mut parked: HashMap<u64, Parked> = HashMap::new();
        let mut next_token = FIRST_CONN_TOKEN;
        let mut events: Vec<Event> = Vec::new();
        // Sweep cadence: often enough that reaping is timely against the
        // configured idle timeout, bounded so an idle server stays cheap.
        let sweep =
            (self.idle_timeout / 4).clamp(Duration::from_millis(10), Duration::from_millis(500));
        loop {
            let _ = self.poller.wait(&mut events, Some(sweep));
            if self.stopping.load(Ordering::SeqCst) {
                break;
            }
            for &event in &events {
                match event.token {
                    LISTENER_TOKEN => self.accept_ready(&mut parked, &mut next_token),
                    WAKER_TOKEN => self.waker.drain(),
                    token => self.conn_ready(event, token, &mut parked),
                }
            }
            // Reparks ride on waker events but are drained every pass:
            // wakes coalesce in the eventfd, and a cheap try_recv sweep
            // beats accounting for that.
            self.repark_returned(&mut parked, &mut next_token);
            self.reap_idle(&mut parked);
            self.publish_parked(&parked);
        }
        self.drain_on_shutdown(parked);
    }

    /// Accepts everything pending on the (non-blocking) listener,
    /// admitting up to `max_conns` open connections and shedding beyond.
    fn accept_ready(&self, parked: &mut HashMap<u64, Parked>, next_token: &mut u64) {
        let metrics = &self.shared.metrics;
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    metrics.connections.fetch_add(1, Ordering::Relaxed);
                    if metrics.open_connections.load(Ordering::Relaxed) >= self.max_conns as u64 {
                        self.shed(
                            stream,
                            format!(
                                "server is at its {}-connection limit; retry shortly",
                                self.max_conns
                            ),
                        );
                        continue;
                    }
                    metrics.open_connections.fetch_add(1, Ordering::Relaxed);
                    self.park(stream, parked, next_token);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                // Transient accept failures (aborted handshakes, fd
                // pressure): stop for this readiness round, retry on the
                // next event or sweep tick.
                Err(_) => break,
            }
        }
    }

    /// Registers a connection in the epoll set and parks it. On any
    /// registration failure the connection is closed and un-counted.
    fn park(&self, stream: TcpStream, parked: &mut HashMap<u64, Parked>, next_token: &mut u64) {
        let metrics = &self.shared.metrics;
        if stream.set_nonblocking(true).is_err() {
            metrics.open_connections.fetch_sub(1, Ordering::Relaxed);
            return;
        }
        let token = *next_token;
        *next_token += 1;
        if self.poller.add(stream.as_raw_fd(), token).is_err() {
            metrics.open_connections.fetch_sub(1, Ordering::Relaxed);
            return;
        }
        parked.insert(
            token,
            Parked {
                stream,
                idle_since: Instant::now(),
            },
        );
    }

    /// A parked connection became ready: unpark it and either dispatch
    /// (readable) or close (pure hangup). A full dispatch queue sheds.
    fn conn_ready(&self, event: Event, token: u64, parked: &mut HashMap<u64, Parked>) {
        let metrics = &self.shared.metrics;
        let Some(entry) = parked.remove(&token) else {
            return; // already unparked this pass (e.g. reaped)
        };
        let _ = self.poller.remove(entry.stream.as_raw_fd());
        if !event.readable {
            // Peer hung up with nothing to read: routine close.
            metrics.open_connections.fetch_sub(1, Ordering::Relaxed);
            return;
        }
        // Count the job *before* offering it: the worker that pops it
        // decrements on its own thread, and if it wins the race against a
        // post-submit increment the gauge would wrap below zero.
        metrics.queue_depth.fetch_add(1, Ordering::Relaxed);
        match self.pool.try_submit(entry.stream) {
            Ok(()) => {}
            Err(SubmitError::QueueFull(stream)) => {
                metrics.queue_depth.fetch_sub(1, Ordering::Relaxed);
                self.shed(
                    stream,
                    format!(
                        "server is saturated ({} pending requests queued); retry shortly",
                        self.pool.capacity()
                    ),
                );
                metrics.open_connections.fetch_sub(1, Ordering::Relaxed);
            }
            Err(SubmitError::Closed(_)) => {
                metrics.queue_depth.fetch_sub(1, Ordering::Relaxed);
                metrics.open_connections.fetch_sub(1, Ordering::Relaxed);
            }
        }
    }

    /// Answers an un-admitted connection with `429 Too Many Requests` +
    /// `retry-after` and closes it. The write is strictly best-effort and
    /// non-blocking: the reactor never stalls on a slow peer — a client
    /// that cannot take a ~200-byte response right now gets the close
    /// alone, which sheds just as well.
    fn shed(&self, stream: TcpStream, message: String) {
        let metrics = &self.shared.metrics;
        metrics.shed.fetch_add(1, Ordering::Relaxed);
        metrics.observe(429);
        let mut response = ApiError::too_many_requests("overloaded", message)
            .into_response_retry_after(SHED_RETRY_AFTER);
        response
            .headers
            .push(("x-request-id".into(), next_request_id()));
        let mut wire = Vec::with_capacity(256);
        let _ = response.write_to(&mut wire, false);
        // Belt and braces alongside the non-blocking mode below: even if
        // this socket were ever blocking, no shed write may stall the
        // reactor longer than the retry window it advertises.
        let _ = stream.set_write_timeout(Some(SHED_RETRY_AFTER));
        let _ = stream.set_nonblocking(true);
        let _ = (&stream).write(&wire);
        // Drain whatever request bytes already arrived before closing:
        // closing with unread data in the receive buffer resets the
        // connection, which can destroy the in-flight 429 before the
        // client reads it. Non-blocking, so this clears only what is
        // already buffered and never stalls the reactor.
        let mut scratch = [0u8; 4096];
        while matches!((&stream).read(&mut scratch), Ok(n) if n > 0) {}
        // Dropping the stream closes it.
    }

    /// Re-parks connections workers handed back after a keep-alive
    /// response. Their idle clock restarts now.
    fn repark_returned(&self, parked: &mut HashMap<u64, Parked>, next_token: &mut u64) {
        while let Ok(stream) = self.returns.try_recv() {
            self.park(stream, parked, next_token);
        }
    }

    /// Closes parked connections idle past the timeout. Because parking
    /// starts at accept, the cap binds from accept time — a connection
    /// can no longer wait out an unbounded queue before its clock starts.
    fn reap_idle(&self, parked: &mut HashMap<u64, Parked>) {
        let metrics = &self.shared.metrics;
        let now = Instant::now();
        let poller = &self.poller;
        let timeout = self.idle_timeout;
        parked.retain(|_, entry| {
            if now.duration_since(entry.idle_since) <= timeout {
                return true;
            }
            let _ = poller.remove(entry.stream.as_raw_fd());
            metrics.idle_reaped.fetch_add(1, Ordering::Relaxed);
            metrics.open_connections.fetch_sub(1, Ordering::Relaxed);
            false
        });
    }

    /// Publishes the parked-connection gauge (single-writer: only the
    /// reactor thread stores it).
    fn publish_parked(&self, parked: &HashMap<u64, Parked>) {
        self.shared
            .metrics
            .parked_connections
            .store(parked.len() as u64, Ordering::Relaxed);
    }

    /// Shutdown: stop accepting, close every parked connection, drain the
    /// worker pool (in-flight requests finish and answer with
    /// `connection: close`), then drop any conversations returned during
    /// the drain.
    fn drain_on_shutdown(self, mut parked: HashMap<u64, Parked>) {
        let metrics = &self.shared.metrics;
        let _ = self.poller.remove(self.listener.as_raw_fd());
        drop(self.listener);
        for (_, entry) in parked.drain() {
            let _ = self.poller.remove(entry.stream.as_raw_fd());
            metrics.open_connections.fetch_sub(1, Ordering::Relaxed);
        }
        metrics.parked_connections.store(0, Ordering::Relaxed);
        // Joining the pool drains queued jobs too: their requests are
        // parsed and answered (with `connection: close`, since the
        // stopping flag is already up) rather than dropped on the floor.
        self.pool.join();
        while let Ok(stream) = self.returns.try_recv() {
            drop(stream);
            metrics.open_connections.fetch_sub(1, Ordering::Relaxed);
        }
    }
}
