//! The TCP front end: JSON-lines over `std::net`, one connection
//! thread per client, responses written from the worker callbacks.

use crate::proto;
use crate::service::{AllocationService, ServeOutcome, ServiceConfig, SubmitError, SubmitOptions};
use crate::ServiceMetrics;
use lra_ir::textio;
use std::io::{self, BufRead as _, BufReader, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A running TCP allocation server. Dropping it (or calling
/// [`Server::wait`] after a client sent `shutdown`) drains the
/// underlying [`AllocationService`] losslessly.
pub struct Server {
    local_addr: SocketAddr,
    service: Arc<AllocationService>,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

/// Binds `addr` (e.g. `127.0.0.1:7411`, or port `0` for an ephemeral
/// port) and starts accepting JSON-lines clients on a background
/// thread. See [`crate::proto`] for the wire format.
///
/// # Errors
///
/// Propagates the bind failure.
pub fn serve(addr: &str, cfg: ServiceConfig) -> io::Result<Server> {
    let listener = TcpListener::bind(addr)?;
    let local_addr = listener.local_addr()?;
    let read_timeout = cfg.read_timeout;
    let service = Arc::new(AllocationService::start(cfg));
    let stop = Arc::new(AtomicBool::new(false));
    let accept = {
        let service = Arc::clone(&service);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || accept_loop(&listener, &service, &stop, read_timeout))
    };
    Ok(Server {
        local_addr,
        service,
        stop,
        accept: Some(accept),
    })
}

impl Server {
    /// The address the server actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A live metrics snapshot.
    pub fn metrics(&self) -> ServiceMetrics {
        self.service.metrics()
    }

    /// Counts of the faults injected so far, when the server was
    /// started with a fault plan (`None` otherwise).
    #[cfg(any(test, feature = "chaos"))]
    pub fn fault_report(&self) -> Option<crate::fault::FaultReport> {
        self.service.fault_report()
    }

    /// Asks the accept loop to stop, as the in-process equivalent of a
    /// client `shutdown` op. [`Server::wait`] then drains and joins.
    pub fn request_shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the blocking accept() with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
    }

    /// Blocks until shutdown is requested (by a client `shutdown` op
    /// or [`Server::request_shutdown`]), then drains every accepted
    /// request and returns the final metrics.
    pub fn wait(mut self) -> ServiceMetrics {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        self.service.shutdown()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.request_shutdown();
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        self.service.shutdown();
    }
}

fn accept_loop(
    listener: &TcpListener,
    service: &Arc<AllocationService>,
    stop: &Arc<AtomicBool>,
    read_timeout: Duration,
) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                let service = Arc::clone(service);
                let stop = Arc::clone(stop);
                let addr = listener.local_addr().ok();
                std::thread::spawn(move || {
                    let _ = handle_connection(stream, &service, &stop, addr, read_timeout);
                });
            }
            Err(_) => {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                // Persistent accept errors (fd exhaustion under the
                // thread-per-connection model) must not busy-spin the
                // accept thread against the allocation workers.
                std::thread::sleep(std::time::Duration::from_millis(50));
            }
        }
    }
}

/// The largest `values=` header an alloc request may carry. The
/// header legitimately exceeds the values mentioned in the body (the
/// codec round-trips sparse functions), but it also sizes every
/// per-value analysis table — without a lid, a 40-byte request
/// claiming four billion values would make a worker allocate
/// gigabytes. Far above any real corpus (~200 temporaries), far below
/// harm.
pub const MAX_REQUEST_VALUES: u32 = 1_000_000;

/// How long a worker callback may block writing a response before the
/// connection is declared dead. A client that stops *reading* would
/// otherwise wedge the worker mid-`write_all` forever — stalling the
/// whole pool and hanging shutdown drain.
const WRITE_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(30);

/// A connection's shared write side. `dead` latches on the first
/// write failure (including the [`WRITE_TIMEOUT`]) so later worker
/// callbacks return immediately instead of queueing up on a socket
/// nobody reads — a timed-out write may have left a partial line, so
/// the stream is unusable for framing anyway.
struct ConnWriter {
    stream: Mutex<TcpStream>,
    dead: AtomicBool,
}

/// Writes one response line (newline-terminated, flushed) under the
/// connection's write lock, so worker callbacks and the connection
/// thread never interleave partial lines. A dead peer is not an error
/// worth unwinding over: the request was served; only the
/// notification is lost.
fn write_line(writer: &ConnWriter, line: &str) {
    if writer.dead.load(Ordering::Relaxed) {
        return;
    }
    let mut w = writer.stream.lock().unwrap_or_else(PoisonError::into_inner);
    let ok = w
        .write_all(line.as_bytes())
        .and_then(|()| w.write_all(b"\n"))
        .and_then(|()| w.flush())
        .is_ok();
    if !ok {
        writer.dead.store(true, Ordering::Relaxed);
    }
}

fn handle_connection(
    stream: TcpStream,
    service: &Arc<AllocationService>,
    stop: &Arc<AtomicBool>,
    self_addr: Option<SocketAddr>,
    read_timeout: Duration,
) -> io::Result<()> {
    stream.set_nodelay(true).ok();
    stream.set_write_timeout(Some(WRITE_TIMEOUT)).ok();
    stream.set_read_timeout(Some(read_timeout)).ok();
    let reader = BufReader::new(stream.try_clone()?);
    let writer = Arc::new(ConnWriter {
        stream: Mutex::new(stream),
        dead: AtomicBool::new(false),
    });
    for line in reader.lines() {
        let line = match line {
            Ok(line) => line,
            // A peer silent past the read timeout is treated as gone
            // (the mirror of WRITE_TIMEOUT): the handler thread exits
            // instead of being pinned forever. In-flight responses
            // still flush — worker callbacks hold their own writer Arc.
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                break;
            }
            Err(e) => return Err(e),
        };
        if line.trim().is_empty() {
            continue;
        }
        let fields = match proto::parse_object(&line) {
            Ok(f) => f,
            Err(e) => {
                write_line(
                    &writer,
                    &proto::error_response(None, &format!("bad request: {e}")),
                );
                continue;
            }
        };
        let id = fields.get("id").and_then(proto::Json::as_u64);
        let op = fields.get("op").and_then(proto::Json::as_str).unwrap_or("");
        match (op, id) {
            ("alloc", Some(id)) => {
                let text = match fields.get("fn").and_then(proto::Json::as_str) {
                    Some(t) => t,
                    None => {
                        write_line(
                            &writer,
                            &proto::error_response(Some(id), "alloc without fn"),
                        );
                        continue;
                    }
                };
                let function = match textio::parse(text) {
                    Ok(f) => f,
                    Err(e) => {
                        write_line(
                            &writer,
                            &proto::error_response(Some(id), &format!("bad function: {e}")),
                        );
                        continue;
                    }
                };
                if function.value_count > MAX_REQUEST_VALUES {
                    write_line(
                        &writer,
                        &proto::error_response(
                            Some(id),
                            &format!(
                                "function too large: {} values exceeds the {} limit",
                                function.value_count, MAX_REQUEST_VALUES
                            ),
                        ),
                    );
                    continue;
                }
                // A request-carried relative deadline is anchored here,
                // at parse time: queue wait counts against it.
                let deadline = fields
                    .get("deadline_ms")
                    .and_then(proto::Json::as_u64)
                    .map(|ms| Instant::now() + Duration::from_millis(ms));
                // Optional trace extensions: a correlation id echoed
                // in every response to this request, and a per-request
                // tracing flag (the worker traces the run; the response
                // gains flat phase timings).
                let trace_id = fields
                    .get("trace_id")
                    .and_then(proto::Json::as_str)
                    .map(str::to_string);
                let trace = fields.get("trace").and_then(proto::Json::as_bool) == Some(true);
                let reject_trace_id = trace_id.clone();
                let cb_writer = Arc::clone(&writer);
                #[cfg(any(test, feature = "chaos"))]
                let cb_service = Arc::clone(service);
                let on_done = move |outcome| {
                    let line = match outcome {
                        ServeOutcome::Served(item) => proto::alloc_response(
                            id,
                            &item.row(),
                            trace_id.as_deref(),
                            // Timings only when this request asked for
                            // them — a globally traced server (LRA_TRACE)
                            // keeps its wire format unchanged.
                            if trace { item.trace.as_ref() } else { None },
                        ),
                        ServeOutcome::DeadlineExpired { .. } => proto::rejected_response(
                            id,
                            proto::RejectReason::DeadlineExceeded,
                            trace_id.as_deref(),
                        ),
                    };
                    #[cfg(any(test, feature = "chaos"))]
                    if cb_service
                        .fault_injector()
                        .is_some_and(|inj| inj.next_write_drops())
                    {
                        sever_mid_response(&cb_writer, &line);
                        return;
                    }
                    write_line(&cb_writer, &line);
                };
                match service.submit_with(function, SubmitOptions { deadline, trace }, on_done) {
                    Ok(()) => {}
                    Err(SubmitError::QueueFull { .. }) => {
                        write_line(
                            &writer,
                            &proto::rejected_response(
                                id,
                                proto::RejectReason::QueueFull,
                                reject_trace_id.as_deref(),
                            ),
                        );
                    }
                    Err(SubmitError::ShuttingDown { .. }) => {
                        write_line(
                            &writer,
                            &proto::error_response(Some(id), "service is shutting down"),
                        );
                    }
                }
            }
            ("stats", Some(id)) => {
                write_line(&writer, &stats_response(id, &service.metrics()));
            }
            ("metrics", Some(_id)) => {
                // Prometheus text exposition: a deliberately non-JSON,
                // multi-line payload ending in `# EOF`. One write_line
                // call keeps it contiguous under the connection's
                // write lock even while worker callbacks are writing
                // response lines.
                write_line(&writer, &service.metrics().render_prometheus());
            }
            ("shutdown", Some(id)) => {
                write_line(
                    &writer,
                    &format!("{{\"id\":{id},\"ok\":true,\"stopping\":true}}"),
                );
                stop.store(true, Ordering::SeqCst);
                if let Some(addr) = self_addr {
                    // Wake the accept loop so Server::wait can drain.
                    let _ = TcpStream::connect(addr);
                }
            }
            (_, None) => {
                write_line(&writer, &proto::error_response(None, "request without id"));
            }
            (other, Some(id)) => {
                write_line(
                    &writer,
                    &proto::error_response(Some(id), &format!("unknown op {other:?}")),
                );
            }
        }
    }
    Ok(())
}

/// The chaos drop fault: flush half the response line, then sever the
/// connection — the torn frame is what a client's resilience layer
/// must survive. The byte split cannot tear a UTF-8 char across the
/// cut because raw bytes are written, and the latched `dead` flag
/// keeps later callbacks off the corpse.
#[cfg(any(test, feature = "chaos"))]
fn sever_mid_response(writer: &ConnWriter, line: &str) {
    let mut w = writer.stream.lock().unwrap_or_else(PoisonError::into_inner);
    let cut = line.len() / 2;
    let _ = w.write_all(&line.as_bytes()[..cut]);
    let _ = w.flush();
    let _ = w.shutdown(std::net::Shutdown::Both);
    writer.dead.store(true, Ordering::Relaxed);
}

/// Serialises a metrics snapshot as the `stats` response line.
fn stats_response(id: u64, m: &ServiceMetrics) -> String {
    format!(
        "{{\"id\":{id},\"ok\":true,\"served\":{},\"rejected\":{},\"degraded\":{},\"deadline_exceeded\":{},\"queue_high_water\":{},\"queue_capacity\":{},\"workers\":{},\"cache_hits\":{},\"cache_misses\":{},\"cache_evictions\":{},\"p50_us\":{},\"p95_us\":{}}}",
        m.served,
        m.rejected,
        m.degraded,
        m.deadline_exceeded,
        m.queue_high_water,
        m.queue_capacity,
        m.workers,
        m.cache.hits,
        m.cache.misses,
        m.cache.evictions,
        m.p50.as_micros(),
        m.p95.as_micros(),
    )
}
