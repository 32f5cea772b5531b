//! The service probe of a traced run: a batch workload's functions sent
//! open-loop to an in-process `lra-service` over one TCP connection.
//!
//! This is the only place the benchmark goes through the wire codec and
//! the request queue. Requests leave at a fixed light rate whether or
//! not earlier ones have been answered, so the probe prices the service
//! layer rather than queueing. Each answer is compared with the checked
//! batch reference of its function.

use crate::batch::{BatchWorkload, References};
use crate::metrics::{self, Report};
use crate::{Config, Reference};
use lra_core::batch::ReportRow;
use lra_core::portfolio::portfolio_cache;
use lra_ir::{textio, Function};
use lra_service::proto::{self, Response};
use lra_service::{serve, ServiceConfig, ServiceMetrics};
use std::io::{BufRead as _, BufReader, Write as _};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Requests the probe sends.
const PROBE_REQUESTS: usize = 200;

/// Offered rate of the probe, requests per second.
const PROBE_RATE_PER_S: f64 = 100.0;

/// How long the client waits for any one response before giving the
/// rest up as failed.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// What the open loop saw.
struct Served {
    /// Answer row per request (`None`: refused, errored or lost).
    rows: Vec<Option<ReportRow>>,
    /// Scheduled-send-to-response latency per answered request, ms.
    latencies_ms: Vec<f64>,
    /// How late the generator sent each request, ms.
    lags_ms: Vec<f64>,
    /// Raw response lines, for timing the decoder.
    lines: Vec<String>,
    metrics: ServiceMetrics,
}

/// Starts a server running `config` on `threads` workers, sends each of
/// `functions` once, in order, at `rate` requests per second, and
/// collects the answers. The connection closes before the server drains
/// and joins its workers.
fn open_loop(functions: &[Function], config: &Config, threads: usize, rate: f64) -> Served {
    let server = serve(
        "127.0.0.1:0",
        ServiceConfig::new(config.pipeline()).workers(threads),
    )
    .expect("bind a loopback port");
    let stream = TcpStream::connect(server.local_addr()).expect("connect to the local server");
    stream.set_nodelay(true).ok();
    let n = functions.len();
    let interval = Duration::from_secs_f64(1.0 / rate);
    let mut writer = stream.try_clone().expect("clone the client socket");
    writer.set_write_timeout(Some(READ_TIMEOUT)).ok();
    stream.set_read_timeout(Some(READ_TIMEOUT)).ok();
    let mut reader = BufReader::new(stream.try_clone().expect("clone the client socket"));
    let start = Instant::now() + Duration::from_millis(5);
    let due = |i: usize| start + interval.mul_f64(i as f64);

    let mut rows: Vec<Option<ReportRow>> = vec![None; n];
    let mut answered_at: Vec<Option<Instant>> = vec![None; n];
    let mut lines = Vec::with_capacity(n);
    let lags_ms = std::thread::scope(|s| {
        let sender = s.spawn(|| {
            let mut lags = Vec::with_capacity(n);
            for (i, f) in functions.iter().enumerate() {
                let at = due(i);
                let now = Instant::now();
                if at > now {
                    std::thread::sleep(at - now);
                }
                lags.push(crate::ms(Instant::now().saturating_duration_since(at)));
                let mut line = proto::alloc_request(i as u64, &textio::print(f));
                line.push('\n');
                if writer.write_all(line.as_bytes()).is_err() {
                    break;
                }
            }
            lags
        });
        let mut pending = n;
        let mut buf = String::new();
        while pending > 0 {
            buf.clear();
            match reader.read_line(&mut buf) {
                Ok(0) | Err(_) => break,
                Ok(_) => {}
            }
            let now = Instant::now();
            let line = buf.trim_end().to_string();
            let id = match proto::parse_response(&line) {
                Ok(Response::Row { id, row }) => {
                    let slot = usize::try_from(id).ok().filter(|&i| i < n);
                    if let Some(i) = slot.filter(|&i| rows[i].is_none()) {
                        rows[i] = Some(row);
                        answered_at[i] = Some(now);
                    }
                    slot
                }
                Ok(Response::Rejected { id, .. }) => usize::try_from(id).ok(),
                Ok(Response::Other { id, .. }) => id.and_then(|id| usize::try_from(id).ok()),
                Err(_) => None,
            };
            if id.is_some() {
                pending -= 1;
            }
            lines.push(line);
        }
        sender.join().expect("request generator")
    });
    let latencies_ms = answered_at
        .iter()
        .enumerate()
        .filter_map(|(i, at)| at.map(|at| crate::ms(at.saturating_duration_since(due(i)))))
        .collect();
    drop((reader, writer, stream));
    let metrics = server.metrics();
    drop(server);
    Served {
        rows,
        latencies_ms,
        lags_ms,
        lines,
        metrics,
    }
}

/// The `svc.*` budget of a batch workload's traced run: the first
/// [`PROBE_REQUESTS`] functions that share the first slice's pipeline,
/// sent open-loop to an in-process server running that pipeline, each
/// answer compared with the function's checked reference.
pub fn probe_service(w: &BatchWorkload, refs: &References, report: &mut Report) {
    let first = &w.slices[0];
    let (functions, references): (Vec<Function>, Vec<&Reference>) = w
        .slices
        .iter()
        .zip(refs)
        .filter(|(s, _)| s.suite == first.suite)
        .flat_map(|(s, r)| s.functions.iter().cloned().zip(r))
        .take(PROBE_REQUESTS)
        .unzip();
    if first.uses_portfolio() {
        portfolio_cache().clear();
    }
    let served = open_loop(&functions, &first.config, w.threads, PROBE_RATE_PER_S);
    let mut failed = 0;
    for (i, (row, reference)) in served.rows.iter().zip(&references).enumerate() {
        if !row
            .as_ref()
            .is_some_and(|row| reference.ok && *row == reference.row)
        {
            failed += 1;
            if failed <= 5 {
                report.line(format!(
                    "request {i} ({}) was refused, lost or differs from its reference",
                    functions[i].name
                ));
            }
        }
    }
    report.attempted += served.rows.len() as u64;
    report.failed += failed;
    report.line(format!(
        "service probe: {} {} functions at {PROBE_RATE_PER_S}/s, {} workers",
        served.rows.len(),
        first.suite,
        w.threads
    ));
    record_service(&functions, &served, report);
}

/// Records the `svc.*` metrics of the probe.
fn record_service(functions: &[Function], served: &Served, report: &mut Report) {
    let mut latencies = served.latencies_ms.clone();
    latencies.sort_by(f64::total_cmp);
    let client_p50 = metrics::percentile(&latencies, 50.0);
    let mut encode = Vec::new();
    for (k, f) in functions.iter().enumerate() {
        let t0 = Instant::now();
        let line = proto::alloc_request(k as u64, &textio::print(f));
        std::hint::black_box(line);
        encode.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    let mut decode = Vec::new();
    for line in &served.lines {
        let t0 = Instant::now();
        let _ = std::hint::black_box(proto::parse_response(line));
        decode.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    let encode_us = metrics::median(&encode);
    let decode_us = metrics::median(&decode);
    let server_p50 = served.metrics.latency.percentile_us(50) as f64 / 1e3;
    let server_p99 = served.metrics.latency.percentile_us(99) as f64 / 1e3;
    let wire_p50 = client_p50 - server_p50;
    report.set(
        "svc.encode_us",
        encode_us,
        format!(
            "median textio::print + proto::alloc_request over {} functions",
            encode.len()
        ),
    );
    report.set(
        "svc.decode_us",
        decode_us,
        format!(
            "median proto::parse_response over {} responses",
            decode.len()
        ),
    );
    let bucket = "server enqueue→completion, log2-bucket upper bound";
    report.set("svc.server_p50_ms", server_p50, bucket);
    report.set("svc.server_p99_ms", server_p99, bucket);
    report.set("svc.wire_p50_ms", wire_p50, "client p50 − server p50");
    report.set(
        "svc.queue_high_water",
        served.metrics.queue_high_water as f64,
        "most requests queued at once",
    );
    report.set(
        "svc.queue_full",
        served.metrics.rejected as f64,
        "requests refused with queue_full",
    );
    let mut lags = served.lags_ms.clone();
    lags.sort_by(f64::total_cmp);
    report.set(
        "svc.gen_lag_p99_ms",
        metrics::percentile(&lags, 99.0),
        format!("p99 of {} sends", lags.len()),
    );
    report.line(format!(
        "service budget: encode {:.3} ms + server p50 {server_p50:.3} ms + wire {wire_p50:.3} ms \
         + decode {:.3} ms = {:.3} ms; client-observed p50 {client_p50:.3} ms",
        encode_us / 1e3,
        decode_us / 1e3,
        encode_us / 1e3 + server_p50 + wire_p50 + decode_us / 1e3
    ));
}
