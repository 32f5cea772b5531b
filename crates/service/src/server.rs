//! The TCP front end: JSON-lines over `std::net`, one connection
//! thread per client, responses written from the worker callbacks.

use crate::proto;
use crate::service::{AllocationService, ServiceConfig, SubmitError, SubmitOptions};
use crate::ServiceMetrics;
use lra_core::batch::BatchItem;
use lra_ir::{textio, Function};
use std::io::{self, BufRead as _, BufReader, Read as _, Write as _};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

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

/// The most bytes of dense analysis tables one request may size (see
/// [`dense_table_bytes`]). A header may claim more values than the body
/// uses, and a failed allocation aborts the whole process: a 94-byte
/// `values=1000000` request would ask for a 125 GB matrix. The largest
/// corpus function at seed 2013 (jit-large, 194 values in 32 blocks)
/// needs 6,256 bytes; 16 MiB is 2,600× that (about 60× its values).
pub const MAX_REQUEST_TABLE_BYTES: u64 = 16 << 20;

/// The longest request line read, newline excluded: 160× the longest
/// corpus request. A longer line gets an in-band error and closes the
/// connection, since framing cannot resume inside it.
pub const MAX_REQUEST_LINE_BYTES: usize = 1 << 20;

/// The bytes of `f`'s dense tables: the interference matrix
/// (`values² / 8`) and each block's live-in and live-out sets
/// (`2 × blocks × values / 8`).
pub fn dense_table_bytes(f: &Function) -> u64 {
    let (values, blocks) = (u128::from(f.value_count), f.block_count() as u128);
    u64::try_from((values * values + 2 * blocks * values) / 8).unwrap_or(u64::MAX)
}

/// The in-band error for a function whose [`dense_table_bytes`] exceed
/// [`MAX_REQUEST_TABLE_BYTES`]; the server asks before queueing it.
pub fn admit(f: &Function) -> Result<(), String> {
    let bytes = dense_table_bytes(f);
    if bytes <= MAX_REQUEST_TABLE_BYTES {
        return Ok(());
    }
    Err(format!(
        "function too large: {} values in {} blocks need {bytes} bytes of dense tables, over the {MAX_REQUEST_TABLE_BYTES} byte limit",
        f.value_count,
        f.block_count()
    ))
}

/// How long a worker callback may block writing a response before the
/// connection is declared dead. A client that stops *reading* would
/// otherwise wedge the worker mid-`write_all` forever — stalling the
/// whole pool and hanging shutdown drain.
const WRITE_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(30);

/// How much of an over-long line's remainder the server reads, and for
/// how long, after answering it and before it closes the connection.
const DRAIN_BYTES: u64 = 4 * MAX_REQUEST_LINE_BYTES as u64;
const DRAIN_TIMEOUT: Duration = Duration::from_secs(1);

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
    let mut reader = BufReader::new(stream.try_clone()?);
    let writer = Arc::new(ConnWriter {
        stream: Mutex::new(stream),
        dead: AtomicBool::new(false),
    });
    let mut buf = Vec::new();
    loop {
        buf.clear();
        let limit = MAX_REQUEST_LINE_BYTES as u64 + 1;
        // EOF, a peer silent past the read timeout (the mirror of
        // WRITE_TIMEOUT) or a broken stream ends the connection, so the
        // handler thread is never pinned forever. In-flight responses
        // still flush — worker callbacks hold their own writer Arc.
        if matches!(
            reader.by_ref().take(limit).read_until(b'\n', &mut buf),
            Ok(0) | Err(_)
        ) {
            break;
        }
        if buf.last() != Some(&b'\n') && buf.len() > MAX_REQUEST_LINE_BYTES {
            write_line(
                &writer,
                &proto::error_response(None, "request line too long"),
            );
            // Closing a socket with unread input resets the connection,
            // and a reset can discard the error line before the client
            // reads it. So half-close (the client reads the error, then
            // EOF) and read what the client still sends, up to a bound,
            // before dropping the stream. Responses still queued for
            // this connection are lost with it.
            let stream = writer.stream.lock().unwrap_or_else(PoisonError::into_inner);
            stream.shutdown(Shutdown::Write).ok();
            stream.set_read_timeout(Some(DRAIN_TIMEOUT)).ok();
            drop(stream);
            io::copy(&mut reader.take(DRAIN_BYTES), &mut io::sink()).ok();
            break;
        }
        let Ok(line) = std::str::from_utf8(&buf) else {
            break;
        };
        let line = match line.strip_suffix('\n') {
            Some(line) => line.strip_suffix('\r').unwrap_or(line),
            None => line,
        };
        if line.trim().is_empty() {
            continue;
        }
        let fields = match proto::parse_object(line) {
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
                if let Err(e) = admit(&function) {
                    write_line(&writer, &proto::error_response(Some(id), &e));
                    continue;
                }
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
                let cb_service = Arc::clone(service);
                let on_done = move |item: BatchItem| {
                    let line = proto::alloc_response(
                        id,
                        &item.row(),
                        trace_id.as_deref(),
                        // Timings only when this request asked for them
                        // — a globally traced server (LRA_TRACE) keeps
                        // its wire format unchanged.
                        if trace { item.trace.as_ref() } else { None },
                    );
                    if cb_service
                        .fault_injector()
                        .is_some_and(|inj| inj.next_write_drops())
                    {
                        sever_mid_response(&cb_writer, &line);
                        return;
                    }
                    write_line(&cb_writer, &line);
                };
                match service.submit_with(function, SubmitOptions { trace }, on_done) {
                    Ok(()) => {}
                    Err(SubmitError::QueueFull { .. }) => {
                        write_line(
                            &writer,
                            &proto::rejected_response(id, reject_trace_id.as_deref()),
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
        "{{\"id\":{id},\"ok\":true,\"served\":{},\"rejected\":{},\"queue_high_water\":{},\"queue_capacity\":{},\"workers\":{},\"cache_hits\":{},\"cache_misses\":{},\"cache_evictions\":{},\"p50_us\":{},\"p95_us\":{}}}",
        m.served,
        m.rejected,
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
