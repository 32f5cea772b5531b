//! Chaos soak harness: loadgen against a fault-injected server.
//!
//! Starts an in-process TCP server whose workers panic, stall, and
//! sever connections on a seeded [`FaultPlan`], then drives the
//! jit-large corpus through it with a resilient proto-level client
//! that reconnects and resubmits until every function has exactly one
//! clean answer. The harness asserts the overload-safety contract the
//! service advertises:
//!
//! * every accepted request is answered **exactly once** per attempt —
//!   no duplicated ids, no lost completions on a surviving connection;
//! * every pass's surviving report is **byte-identical** to the
//!   [`BatchAllocator`] reference on the same corpus — faults perturb
//!   scheduling and transport, never results;
//! * every fault kind enabled in the plan actually **fired** (a chaos
//!   run that injected nothing proves nothing);
//! * **oversized requests** (a function whose dense tables exceed the
//!   admission bound, and a line twice [`MAX_REQUEST_LINE_BYTES`]) get
//!   in-band errors on connections of their own, and the server still
//!   answers afterwards.
//!
//! The CLI front end (`lra-bench chaos`) prints each pass's report to
//! stdout in the exact `loadgen` format so CI can diff it against
//! `loadgen --local`, and the chaos log (reconnects, resubmits,
//! injected-fault counts) to stderr.

use lra_core::batch::{render_rows, BatchAllocator, ReportRow};
use lra_service::fault::{FaultPlan, FaultReport};
use lra_service::server::MAX_REQUEST_LINE_BYTES;
use lra_service::{proto, serve, ServiceConfig, ServiceMetrics};
use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead as _, BufReader, Write as _};
use std::net::TcpStream;
use std::time::Duration;

/// Requests kept in flight per connection. Deep enough to provoke
/// backpressure against small queues, small enough that one severed
/// connection never orphans most of the corpus.
const WINDOW: usize = 16;

/// Hard cap on reconnect-and-resubmit cycles per pass. A healthy run
/// over the 27-method corpus needs a handful; hitting this means the
/// server stopped making progress and the soak should fail loudly.
const MAX_CONNECTIONS: usize = 10_000;

/// A 94-byte request whose header asks for a million values: its dense
/// tables would need 125 GB, so admission must refuse it unsized.
const MILLION_VALUE_FN: &str = "fn dos values=1000000 entry=0 params=-\nbb0: succs=-\n  op\nend\n";

/// What one chaos soak observed (see [`run`]).
pub struct ChaosOutcome {
    /// Per-pass rendered reports, each in `loadgen` format.
    pub passes: Vec<String>,
    /// Faults the server actually injected.
    pub faults: FaultReport,
    /// Connections the client had to open beyond the first per pass.
    pub reconnects: u64,
    /// Requests resubmitted because the answer was an injected panic
    /// row or was lost to a severed connection.
    pub resubmits: u64,
    /// `queue_full` rejections that were retried.
    pub queue_full: u64,
    /// Final drained server metrics.
    pub metrics: ServiceMetrics,
}

/// Runs `repeat` passes of the jit-large corpus against a
/// fault-injected in-process server and checks the exactly-once and
/// byte-identity contracts.
///
/// # Panics
///
/// Panics when any contract is violated: a duplicated or unknown
/// response id, a surviving report that differs from the batch
/// reference, an enabled fault kind that never fired, a pass that
/// exhausts its reconnect budget, or an oversized request that is not
/// refused in band or leaves the server unresponsive.
pub fn run(
    seed: u64,
    threads: usize,
    queue: usize,
    repeat: usize,
    plan: FaultPlan,
) -> ChaosOutcome {
    let functions = crate::suites::jit_large_functions(seed);
    let reference = BatchAllocator::new(crate::batchrun::jit_large_pipeline())
        .threads(1)
        .run(&functions)
        .render();
    let texts: Vec<String> = functions.iter().map(lra_ir::textio::print).collect();
    let enabled = !plan.is_empty();
    let cfg = ServiceConfig::new(crate::batchrun::jit_large_pipeline())
        .workers(threads)
        .queue_capacity(queue)
        .faults(plan);
    let server = serve("127.0.0.1:0", cfg).expect("bind ephemeral chaos port");
    let addr = server.local_addr();

    let mut outcome = ChaosOutcome {
        passes: Vec::new(),
        faults: FaultReport::default(),
        reconnects: 0,
        resubmits: 0,
        queue_full: 0,
        metrics: server.metrics(),
    };
    for pass in 0..repeat.max(1) {
        let rows = chaos_pass(&addr.to_string(), &texts, &functions, &mut outcome);
        let rendered = render_rows(&rows);
        assert_eq!(
            rendered, reference,
            "pass {pass}: surviving responses must be byte-identical to the batch reference"
        );
        outcome.passes.push(rendered);
    }
    oversized_requests(&addr.to_string());

    outcome.faults = server
        .fault_report()
        .expect("the chaos server runs with a fault plan installed");
    if enabled {
        assert!(
            outcome.faults.panics > 0 || outcome.faults.latencies > 0 || outcome.faults.drops > 0,
            "an enabled fault plan must inject something: {:?}",
            outcome.faults
        );
    }
    server.request_shutdown();
    outcome.metrics = server.wait();
    outcome
}

/// Drives one full pass: connect, pipeline the unanswered functions,
/// resubmit injected-panic rows and everything orphaned by a severed
/// connection, until every function has exactly one clean row.
fn chaos_pass(
    addr: &str,
    texts: &[String],
    functions: &[lra_ir::Function],
    outcome: &mut ChaosOutcome,
) -> Vec<ReportRow> {
    let mut rows: Vec<Option<ReportRow>> = vec![None; texts.len()];
    let mut next_id: u64 = 1;
    let mut connections = 0usize;
    while rows.iter().any(Option::is_none) {
        connections += 1;
        assert!(
            connections <= MAX_CONNECTIONS,
            "chaos pass stopped converging after {MAX_CONNECTIONS} connections \
             ({} of {} functions answered)",
            rows.iter().filter(|r| r.is_some()).count(),
            rows.len()
        );
        if connections > 1 {
            outcome.reconnects += 1;
        }
        // A fresh connection resubmits exactly the unanswered tail;
        // whatever was in flight on a severed connection is counted as
        // resubmitted the moment we reissue it with a fresh id.
        drive_connection(
            addr,
            texts,
            functions,
            &mut rows,
            &mut next_id,
            connections,
            outcome,
        );
    }
    rows.into_iter().map(|r| r.expect("all answered")).collect()
}

/// Runs one connection until it has answered everything still pending
/// or died (severed, timed out, or torn mid-frame). Fills `rows` in
/// place; the caller decides whether another connection is needed.
fn drive_connection(
    addr: &str,
    texts: &[String],
    functions: &[lra_ir::Function],
    rows: &mut [Option<ReportRow>],
    next_id: &mut u64,
    connection: usize,
    outcome: &mut ChaosOutcome,
) {
    let Ok(stream) = TcpStream::connect(addr) else {
        // The accept loop was momentarily busy; back off and retry.
        std::thread::sleep(Duration::from_millis(2));
        return;
    };
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(Duration::from_secs(30))).ok();
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut writer = &stream;
    let mut pending: VecDeque<usize> = (0..rows.len()).filter(|&k| rows[k].is_none()).collect();
    if connection > 1 {
        outcome.resubmits += pending.len() as u64;
    }
    // id -> corpus index for requests in flight on *this* connection.
    let mut inflight: BTreeMap<u64, usize> = BTreeMap::new();
    loop {
        while inflight.len() < WINDOW {
            let Some(k) = pending.pop_front() else { break };
            let id = *next_id;
            *next_id += 1;
            let mut line = proto::alloc_request(id, &texts[k]);
            line.push('\n');
            if writer.write_all(line.as_bytes()).is_err() || writer.flush().is_err() {
                return; // severed while sending; reconnect
            }
            inflight.insert(id, k);
        }
        if inflight.is_empty() {
            return; // nothing left for this connection to do
        }
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => return, // EOF / reset / timeout: reconnect
            Ok(_) => {}
        }
        let resp = match proto::parse_response(line.trim_end()) {
            Ok(resp) => resp,
            Err(_) => return, // torn frame from a mid-response sever
        };
        match resp {
            proto::Response::Row { id, row } => {
                let k = inflight
                    .remove(&id)
                    .unwrap_or_else(|| panic!("response for unknown or already-answered id {id}"));
                let injected = matches!(&row.outcome,
                    Err(e) if e.contains("chaos: injected"));
                if injected {
                    // The fault schedule is positional, so the fresh
                    // attempt lands on a different cycle slot.
                    outcome.resubmits += 1;
                    pending.push_back(k);
                } else {
                    assert_eq!(row.function, functions[k].name, "row/function mismatch");
                    assert!(
                        rows[k].is_none(),
                        "function {} answered twice (id {id})",
                        row.function
                    );
                    rows[k] = Some(row);
                }
            }
            proto::Response::Rejected { id } => {
                let k = inflight
                    .remove(&id)
                    .unwrap_or_else(|| panic!("rejection for unknown id {id}"));
                outcome.queue_full += 1;
                pending.push_back(k);
                std::thread::sleep(Duration::from_micros(500));
            }
            proto::Response::Other { fields, .. } => {
                panic!("unexpected non-row response: {fields:?}")
            }
        }
    }
}

/// Sends the oversized requests, each on a connection of its own so
/// the passes' reports are untouched. The million-value function gets
/// `function too large` and its connection stays up; a line of twice
/// [`MAX_REQUEST_LINE_BYTES`] gets `request line too long` and an
/// orderly close. A fresh connection's `stats` request must then be
/// answered. Admission and over-long lines are refused before any
/// worker runs, so the fault plan cannot touch these answers.
fn oversized_requests(addr: &str) {
    let connect = || {
        let stream = TcpStream::connect(addr).expect("connect for oversized requests");
        stream.set_read_timeout(Some(Duration::from_secs(30))).ok();
        let reader = BufReader::new(stream.try_clone().expect("clone the stream"));
        (stream, reader)
    };
    let read = |reader: &mut BufReader<TcpStream>| {
        let mut line = String::new();
        reader.read_line(&mut line).expect("an answer, not a reset");
        line
    };
    let send = |mut stream: &TcpStream, line: &str| {
        stream
            .write_all(format!("{line}\n").as_bytes())
            .expect("send");
    };

    let (stream, mut reader) = connect();
    send(&stream, &proto::alloc_request(1, MILLION_VALUE_FN));
    let refused = read(&mut reader);
    assert!(
        refused.contains("\"ok\":false") && refused.contains("function too large"),
        "the million-value request: {refused:?}"
    );
    send(&stream, &proto::op_request(2, "stats"));
    let stats = read(&mut reader);
    assert!(
        stats.starts_with("{\"id\":2,\"ok\":true"),
        "same connection: {stats:?}"
    );

    let (mut stream, mut reader) = connect();
    stream
        .write_all(&vec![b' '; 2 * MAX_REQUEST_LINE_BYTES])
        .expect("the server reads the whole line");
    let refused = read(&mut reader);
    assert!(
        refused.contains("\"ok\":false") && refused.contains("request line too long"),
        "the over-long line: {refused:?}"
    );
    assert!(read(&mut reader).is_empty(), "an orderly close");

    let (stream, mut reader) = connect();
    send(&stream, &proto::op_request(3, "stats"));
    let stats = read(&mut reader);
    assert!(
        stats.starts_with("{\"id\":3,\"ok\":true"),
        "after the oversized requests: {stats:?}"
    );
}
