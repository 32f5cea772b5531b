//! End-to-end tests for the allocation service: batch byte-identity,
//! concurrent-submitter determinism, backpressure, lossless drain,
//! and the TCP front end.

use lra_core::batch::{render_rows, BatchAllocator, BatchItem};
use lra_core::driver::AllocationPipeline;
use lra_core::pipeline::InstanceKind;
use lra_core::portfolio::PortfolioConfig;
use lra_ir::genprog::{random_jit_function, random_ssa_function, JitConfig, SsaConfig};
use lra_ir::Function;
use lra_service::{serve, AllocationService, Client, ServiceConfig, SubmitError, SubmitOptions};
use lra_targets::{Target, TargetKind};
use rand::SeedableRng as _;
use rand_chacha::ChaCha8Rng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

fn ssa_corpus(n: u64) -> Vec<Function> {
    (0..n)
        .map(|seed| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let cfg = SsaConfig {
                target_instrs: 60,
                liveness_window: 10,
                ..SsaConfig::default()
            };
            random_ssa_function(&mut rng, &cfg, format!("svc::f{seed}"))
        })
        .collect()
}

fn jit_corpus(n: u64) -> Vec<Function> {
    (0..n)
        .map(|seed| {
            let mut rng = ChaCha8Rng::seed_from_u64(1000 + seed);
            let cfg = JitConfig {
                vars: 30,
                blocks: 12,
                ..JitConfig::default()
            };
            random_jit_function(&mut rng, &cfg, format!("svc::m{seed}"))
        })
        .collect()
}

fn pipeline() -> AllocationPipeline {
    AllocationPipeline::new(Target::new(TargetKind::St231)).registers(3)
}

fn portfolio_pipeline() -> AllocationPipeline {
    AllocationPipeline::new(Target::new(TargetKind::ArmCortexA8))
        .instance_kind(InstanceKind::PreciseGraph)
        .registers(4)
        .portfolio(PortfolioConfig::default())
}

#[test]
fn service_items_are_byte_identical_to_a_batch_run_at_any_worker_count() {
    let fs = ssa_corpus(8);
    let reference = BatchAllocator::new(pipeline()).threads(1).run(&fs).render();
    for workers in [1, 2, 4] {
        let service = AllocationService::start(ServiceConfig::new(pipeline()).workers(workers));
        let items = service.run_all(&fs);
        let rows: Vec<_> = items.iter().map(BatchItem::row).collect();
        assert_eq!(
            render_rows(&rows),
            reference,
            "{workers} workers must render like the batch path"
        );
        let metrics = service.shutdown();
        assert_eq!(metrics.served, fs.len() as u64);
        assert_eq!(metrics.workers, workers);
    }
}

#[test]
fn concurrent_submitters_get_deterministic_per_request_reports() {
    // The same request set pushed from several threads at several
    // worker counts must yield identical per-request reports — order
    // of arrival at the queue must not leak into any result.
    let fs = Arc::new(jit_corpus(10));
    let reference: Vec<String> = BatchAllocator::new(portfolio_pipeline())
        .threads(1)
        .run(&fs)
        .rows()
        .iter()
        .map(|r| format!("{r:?}"))
        .collect();
    for workers in [1, 3] {
        let service = Arc::new(AllocationService::start(
            ServiceConfig::new(portfolio_pipeline()).workers(workers),
        ));
        let mut submitters = Vec::new();
        for t in 0..2 {
            let service = Arc::clone(&service);
            let fs = Arc::clone(&fs);
            submitters.push(std::thread::spawn(move || {
                // Thread 0 takes even indices, thread 1 odd — together
                // they cover the set, interleaved on the queue.
                let mut got = Vec::new();
                for (k, f) in fs.iter().enumerate().filter(|(k, _)| k % 2 == t) {
                    let mut function = f.clone();
                    let ticket = loop {
                        match service.submit(function, SubmitOptions::default()) {
                            Ok(ticket) => break ticket,
                            Err(SubmitError::QueueFull { function: back, .. }) => {
                                function = back;
                                std::thread::sleep(Duration::from_micros(100));
                            }
                            Err(e) => panic!("unexpected rejection: {e}"),
                        }
                    };
                    got.push((k, ticket.wait()));
                }
                got
            }));
        }
        let mut results: Vec<(usize, BatchItem)> = submitters
            .into_iter()
            .flat_map(|h| h.join().expect("submitter thread"))
            .collect();
        results.sort_by_key(|&(k, _)| k);
        for (k, item) in &results {
            assert_eq!(
                format!("{:?}", item.row()),
                reference[*k],
                "request {k} at {workers} workers"
            );
        }
        service.shutdown();
    }
}

#[test]
fn full_queue_rejects_and_recovers() {
    // One worker, blocked inside a completion callback: the queue
    // fills deterministically, the next submission is rejected with
    // queue_full, and draining resumes once the callback releases.
    let fs = ssa_corpus(4);
    let service =
        AllocationService::start(ServiceConfig::new(pipeline()).workers(1).queue_capacity(2));
    let (entered_tx, entered_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel();
    service
        .submit_with(fs[0].clone(), SubmitOptions::default(), move |_| {
            entered_tx.send(()).unwrap();
            release_rx.recv().unwrap();
        })
        .expect("empty queue accepts");
    // Wait until the worker is inside the callback — the queue is now
    // empty and the only worker is pinned.
    entered_rx.recv_timeout(Duration::from_secs(10)).unwrap();
    let t1 = service
        .submit(fs[1].clone(), SubmitOptions::default())
        .expect("slot 1 of 2");
    let t2 = service
        .submit(fs[2].clone(), SubmitOptions::default())
        .expect("slot 2 of 2");
    match service.submit(fs[3].clone(), SubmitOptions::default()) {
        Err(SubmitError::QueueFull { capacity, function }) => {
            assert_eq!(capacity, 2);
            assert_eq!(function.name, fs[3].name, "the function comes back");
        }
        other => panic!("expected QueueFull, got {:?}", other.map(|_| "ticket")),
    }
    assert_eq!(service.queue_depth(), 2);
    release_tx.send(()).unwrap();
    assert!(t1.wait().outcome.is_ok());
    assert!(t2.wait().outcome.is_ok());
    let metrics = service.shutdown();
    assert_eq!(metrics.served, 3);
    assert_eq!(metrics.rejected, 1);
    assert_eq!(metrics.queue_high_water, 2);
}

#[test]
fn panicking_callback_does_not_kill_the_worker_or_the_drain_contract() {
    let fs = ssa_corpus(3);
    let service =
        AllocationService::start(ServiceConfig::new(pipeline()).workers(1).queue_capacity(8));
    service
        .submit_with(fs[0].clone(), SubmitOptions::default(), |_| {
            panic!("callback bug")
        })
        .expect("accepted");
    // The single worker must survive the panic and keep serving.
    let t1 = service
        .submit(fs[1].clone(), SubmitOptions::default())
        .expect("accepted");
    let t2 = service
        .submit(fs[2].clone(), SubmitOptions::default())
        .expect("accepted");
    assert!(t1.wait().outcome.is_ok());
    assert!(t2.wait().outcome.is_ok());
    let metrics = service.shutdown();
    assert_eq!(
        metrics.served, 3,
        "the panicking request still counts as served"
    );
}

#[test]
fn shutdown_drains_every_accepted_request() {
    let fs = ssa_corpus(6);
    let service =
        AllocationService::start(ServiceConfig::new(pipeline()).workers(2).queue_capacity(16));
    let tickets: Vec<_> = fs
        .iter()
        .map(|f| {
            service
                .submit(f.clone(), SubmitOptions::default())
                .expect("queue has room")
        })
        .collect();
    let metrics = service.shutdown();
    assert_eq!(metrics.served, 6, "no accepted request may be dropped");
    for t in tickets {
        assert!(t.wait().outcome.is_ok(), "drained results stay readable");
    }
    // After shutdown, new submissions are refused.
    match service.submit(fs[0].clone(), SubmitOptions::default()) {
        Err(SubmitError::ShuttingDown { .. }) => {}
        other => panic!("expected ShuttingDown, got {:?}", other.map(|_| "ticket")),
    }
}

#[test]
fn tcp_end_to_end_matches_batch_and_serves_repeats_from_cache() {
    let fs = jit_corpus(8);
    let reference = BatchAllocator::new(portfolio_pipeline())
        .threads(1)
        .run(&fs);
    let server = serve(
        "127.0.0.1:0",
        ServiceConfig::new(portfolio_pipeline())
            .workers(2)
            .queue_capacity(16),
    )
    .expect("bind ephemeral port");
    let addr = server.local_addr().to_string();
    let mut client = Client::connect_retry(&addr, 10, Duration::from_millis(50)).unwrap();

    let cold = client.allocate_all(&fs).unwrap();
    assert_eq!(
        cold.render(),
        reference.render(),
        "TCP round-trip must be byte-identical to the local batch"
    );

    // Second pass: identical output, served from the shared cache.
    let warm = client.allocate_all(&fs).unwrap();
    assert_eq!(
        warm.render(),
        cold.render(),
        "cache-warm must equal cache-cold"
    );

    let stats = client.stats().unwrap();
    let get = |k: &str| {
        stats[k]
            .as_u64()
            .unwrap_or_else(|| panic!("stats field {k}"))
    };
    assert_eq!(get("served"), 2 * fs.len() as u64);
    assert!(
        get("cache_hits") >= fs.len() as u64,
        "warm pass should hit the shared cache ({} hits)",
        get("cache_hits")
    );
    assert!(get("p50_us") > 0);

    client.shutdown().unwrap();
    let metrics = server.wait();
    assert_eq!(metrics.served, 2 * fs.len() as u64);
}

#[test]
fn tcp_backpressure_rejects_then_completes_the_whole_corpus() {
    // Queue capacity far below the corpus size with a single worker:
    // the pipelined client must see queue_full rejections and still
    // deliver every row, identical to the batch path.
    let fs = jit_corpus(12);
    let reference = BatchAllocator::new(portfolio_pipeline())
        .threads(1)
        .run(&fs);
    let server = serve(
        "127.0.0.1:0",
        ServiceConfig::new(portfolio_pipeline())
            .workers(1)
            .queue_capacity(2),
    )
    .expect("bind ephemeral port");
    let addr = server.local_addr().to_string();
    let mut client = Client::connect(&addr).unwrap();
    let result = client.allocate_all(&fs).unwrap();
    assert_eq!(result.render(), reference.render());
    assert!(
        result.retries > 0,
        "12 pipelined requests against capacity 2 must hit backpressure"
    );
    client.shutdown().unwrap();
    let metrics = server.wait();
    assert_eq!(metrics.served, fs.len() as u64);
    assert_eq!(metrics.rejected, result.retries);
    assert!(metrics.queue_high_water <= 2);
}

#[test]
fn bad_requests_get_error_responses_without_killing_the_connection() {
    use std::io::{BufRead as _, BufReader, Write as _};
    let server = serve(
        "127.0.0.1:0",
        ServiceConfig::new(pipeline()).workers(1).queue_capacity(4),
    )
    .unwrap();
    let stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut send = |line: &str| {
        let mut w = &stream;
        w.write_all(line.as_bytes()).unwrap();
        w.write_all(b"\n").unwrap();
        w.flush().unwrap();
        let mut resp = String::new();
        reader.read_line(&mut resp).unwrap();
        resp
    };
    assert!(send("not json").contains("bad request"));
    assert!(send("{\"op\":\"alloc\",\"id\":1}").contains("alloc without fn"));
    assert!(send("{\"op\":\"alloc\",\"id\":2,\"fn\":\"garbage\"}").contains("bad function"));
    assert!(send("{\"op\":\"frob\",\"id\":3}").contains("unknown op"));
    assert!(send("{\"op\":\"alloc\"}").contains("without id"));
    // A tiny request claiming four billion values must be refused
    // before any per-value table gets sized from it.
    let huge = "fn dos values=4000000000 entry=0 params=-\\nbb0: succs=-\\n  op\\nend\\n";
    assert!(
        send(&format!("{{\"op\":\"alloc\",\"id\":4,\"fn\":\"{huge}\"}}")).contains("too large")
    );
    // The connection still works after all that.
    let mut client_line =
        lra_service::proto::alloc_request(9, &lra_ir::textio::print(&ssa_corpus(1)[0]));
    client_line.push('\n');
    let mut w = &stream;
    w.write_all(client_line.as_bytes()).unwrap();
    w.flush().unwrap();
    let mut resp = String::new();
    reader.read_line(&mut resp).unwrap();
    assert!(
        resp.contains("\"ok\":true"),
        "healthy request still served: {resp}"
    );
}

#[test]
fn a_silent_client_cannot_pin_a_handler_thread() {
    // A connection that never sends a frame must be closed once the
    // read timeout lapses — otherwise one idle socket pins a handler
    // thread forever.
    let server = serve(
        "127.0.0.1:0",
        ServiceConfig::new(pipeline())
            .workers(1)
            .read_timeout(Duration::from_millis(100)),
    )
    .unwrap();
    let silent = std::net::TcpStream::connect(server.local_addr()).unwrap();
    silent
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let start = Instant::now();
    let mut reader = std::io::BufReader::new(silent);
    let mut line = String::new();
    let n = std::io::BufRead::read_line(&mut reader, &mut line).unwrap();
    assert_eq!(n, 0, "the server must hang up on us, got {line:?}");
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "hang-up must come from the read timeout, not test patience"
    );
    // The freed handler capacity still serves real clients.
    let mut client = Client::connect(&server.local_addr().to_string()).unwrap();
    let result = client.allocate_all(&ssa_corpus(1)).unwrap();
    assert!(result.rows[0].outcome.is_ok());
}

#[test]
fn malformed_frames_get_error_responses_without_killing_the_connection() {
    use std::io::{BufRead as _, BufReader, Write as _};
    let server = serve(
        "127.0.0.1:0",
        ServiceConfig::new(pipeline()).workers(1).queue_capacity(4),
    )
    .unwrap();
    let stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut send = |line: &str| {
        let mut w = &stream;
        w.write_all(line.as_bytes()).unwrap();
        w.write_all(b"\n").unwrap();
        w.flush().unwrap();
        let mut resp = String::new();
        reader.read_line(&mut resp).unwrap();
        resp
    };
    // Fuzz-ish corpus: every frame is valid UTF-8 (a non-UTF-8 byte
    // stream errors the buffered reader and closes the connection
    // before the parser sees it) but broken at the JSON layer in a
    // different way. Each must come back as an in-band error.
    let bad = [
        "{",                                                    // truncated object
        "\"just a string\"",                                    // non-object root
        "{\"op\":\"alloc\",\"id\":5,\"fn\":\"x\\u00\"}",        // truncated \u escape
        "{\"op\":\"alloc\",\"id\":6,\"fn\":\"\\q\"}",           // unknown escape
        "{\"op\":\"alloc\",\"id\":7,\"fn\":{}}",                // fn is not a string
        "{\"op\":[\"alloc\"],\"id\":8}",                        // op is not a string
        "{\"op\":\"alloc\",\"id\":-3}",                         // negative id
        "{\"op\":\"alloc\",\"id\":99999999999999999999999999}", // id overflows u64
        "{\"op\":\"alloc\",\"id\":9,\"fn\":\"fn\"} trailing",   // trailing garbage
    ];
    for frame in bad {
        let resp = send(frame);
        assert!(
            resp.contains("\"ok\":false"),
            "{frame:?} must get an error response, got {resp:?}"
        );
    }
    // And the connection survived all of the above.
    let text = lra_ir::textio::print(&ssa_corpus(1)[0]);
    assert!(send(&lra_service::proto::alloc_request(42, &text)).contains("\"ok\":true"));
}

#[test]
fn requests_from_clients_that_still_send_a_deadline_are_served_like_the_batch() {
    use lra_service::proto::{self, Response};
    use std::io::{BufRead as _, BufReader, Write as _};
    // Clients written against older servers may still attach a
    // per-request deadline field. The server ignores it, as it ignores
    // any field it does not know, so each request gets its batch row.
    let fs = ssa_corpus(2);
    let reference = BatchAllocator::new(pipeline()).threads(1).run(&fs).rows();
    let server = serve(
        "127.0.0.1:0",
        ServiceConfig::new(pipeline()).workers(1).queue_capacity(4),
    )
    .unwrap();
    let stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    for (k, (f, field)) in fs
        .iter()
        .zip([r#""deadline_ms":0"#, r#""deadline_ms":"soon""#])
        .enumerate()
    {
        let text = lra_ir::textio::print(f);
        let line = proto::alloc_request(k as u64, &text).replacen('{', &format!("{{{field},"), 1);
        let mut w = &stream;
        w.write_all(line.as_bytes()).unwrap();
        w.write_all(b"\n").unwrap();
        let mut resp = String::new();
        reader.read_line(&mut resp).unwrap();
        match proto::parse_response(resp.trim_end()).unwrap() {
            Response::Row { id, row } => {
                assert_eq!(id, k as u64);
                assert_eq!(row, reference[k], "{field}");
            }
            other => panic!("{field}: expected a row, got {other:?}"),
        }
    }
}

#[test]
fn shutdown_under_load_answers_every_accepted_request_exactly_once() {
    // Concurrent submitters race a mid-stream shutdown: whatever was
    // accepted before the queue closed must be answered exactly once,
    // at every worker count.
    for workers in [1, 2, 4] {
        let fs = Arc::new(ssa_corpus(12));
        let service = Arc::new(AllocationService::start(
            ServiceConfig::new(pipeline())
                .workers(workers)
                .queue_capacity(4),
        ));
        let answered = Arc::new(AtomicU64::new(0));
        let submitters: Vec<_> = (0..3)
            .map(|t| {
                let service = Arc::clone(&service);
                let fs = Arc::clone(&fs);
                let answered = Arc::clone(&answered);
                std::thread::spawn(move || {
                    let mut accepted = 0u64;
                    for f in fs.iter().cycle().skip(t).take(40) {
                        let answered = Arc::clone(&answered);
                        match service.submit_with(f.clone(), SubmitOptions::default(), move |_| {
                            answered.fetch_add(1, Ordering::SeqCst);
                        }) {
                            Ok(()) => accepted += 1,
                            Err(SubmitError::QueueFull { .. }) => {
                                std::thread::sleep(Duration::from_micros(200));
                            }
                            Err(SubmitError::ShuttingDown { .. }) => break,
                        }
                    }
                    accepted
                })
            })
            .collect();
        // Let the submitters get some work in flight, then pull the rug.
        std::thread::sleep(Duration::from_millis(20));
        let metrics = service.shutdown();
        let accepted: u64 = submitters
            .into_iter()
            .map(|h| h.join().expect("submitter thread"))
            .sum();
        assert!(accepted > 0, "the race must actually accept something");
        assert_eq!(
            answered.load(Ordering::SeqCst),
            accepted,
            "{workers} workers: accepted and answered must match exactly"
        );
        assert_eq!(metrics.served, accepted);
    }
}

#[test]
fn traced_submissions_return_traces_and_identical_rows() {
    let fs = jit_corpus(5);
    let reference: Vec<String> = BatchAllocator::new(portfolio_pipeline())
        .threads(1)
        .run(&fs)
        .rows()
        .iter()
        .map(|r| format!("{r:?}"))
        .collect();
    let service = AllocationService::start(ServiceConfig::new(portfolio_pipeline()).workers(2));
    for (k, f) in fs.iter().enumerate() {
        let item = service
            .submit(f.clone(), SubmitOptions { trace: true })
            .expect("queue has room")
            .wait();
        assert_eq!(
            format!("{:?}", item.row()),
            reference[k],
            "traced request {k} must produce the batch row"
        );
        let trace = item.trace.as_ref().expect("traced submission collects");
        assert_eq!(
            trace.phases[lra_core::trace::Phase::Pipeline as usize].count,
            1
        );
    }
    // Untraced submissions on the same service stay trace-free.
    let plain = service
        .submit(fs[0].clone(), SubmitOptions::default())
        .expect("accepted")
        .wait();
    assert!(
        plain.trace.is_none(),
        "untraced submissions collect nothing"
    );
    let metrics = service.shutdown();
    // The per-phase aggregates saw every traced request.
    let allocate = metrics.trace.phases[lra_core::trace::Phase::Allocate as usize];
    assert!(
        allocate.count >= fs.len() as u64,
        "allocate spans must aggregate into the service metrics"
    );
    assert!(allocate.self_ns > 0);
}

#[test]
fn traced_and_plain_submissions_running_together_trace_only_their_own_jobs() {
    // Tracing is decided per job: while traced jobs run on one worker,
    // plain jobs on the other must collect nothing. Every pass flips
    // which positions are traced and all passes are queued before any
    // answer is awaited, so the two kinds of job overlap.
    let fs = jit_corpus(6);
    let reference = BatchAllocator::new(portfolio_pipeline())
        .threads(1)
        .run(&fs)
        .rows();
    let service = AllocationService::start(ServiceConfig::new(portfolio_pipeline()).workers(2));
    let mut tickets = Vec::new();
    for pass in 0..4 {
        for (k, f) in fs.iter().enumerate() {
            let trace = (k + pass) % 2 == 0;
            let opts = SubmitOptions { trace };
            let ticket = service.submit(f.clone(), opts).expect("queue has room");
            tickets.push((k, trace, ticket));
        }
    }
    for (k, trace, ticket) in tickets {
        let item = ticket.wait();
        assert_eq!(item.row(), reference[k], "item {k} must match the batch");
        if trace {
            let t = item.trace.as_ref().expect("a traced job collects");
            let pipeline = t.phases[lra_core::trace::Phase::Pipeline as usize];
            assert_eq!(pipeline.count, 1, "item {k}");
        } else {
            assert!(item.trace.is_none(), "plain item {k} collected a trace");
        }
    }
    service.shutdown();
}

#[test]
fn tracing_armed_by_a_guard_is_byte_identical_and_stays_on_its_thread() {
    // The determinism contract of lra_core::trace: a batch submitted
    // from an armed thread renders the same bytes and carries one
    // pipeline span per item; batches from other threads stay untraced.
    let fs = jit_corpus(6);
    let batch = BatchAllocator::new(portfolio_pipeline()).threads(2);
    let reference = batch.run(&fs);
    assert!(
        reference.items.iter().all(|i| i.trace.is_none()),
        "tracing off: no traces collected"
    );
    let (armed, elsewhere) = {
        let _on = lra_core::trace::arm();
        let elsewhere = std::thread::scope(|s| s.spawn(|| batch.run(&fs)).join().unwrap());
        (batch.run(&fs), elsewhere)
    };
    assert_eq!(
        armed.render(),
        reference.render(),
        "armed tracing must not change the rendered report"
    );
    for item in &armed.items {
        let trace = item.trace.as_ref().expect("armed run collects per item");
        assert_eq!(
            trace.phases[lra_core::trace::Phase::Pipeline as usize].count,
            1
        );
        assert!(trace.total_self_ns() > 0);
    }
    assert!(
        elsewhere.items.iter().all(|i| i.trace.is_none()),
        "a guard arms only its own thread"
    );
}

#[test]
fn tcp_trace_requests_echo_ids_and_carry_flat_phase_timings() {
    use std::io::{BufRead as _, BufReader, Write as _};
    let fs = jit_corpus(2);
    let server = serve(
        "127.0.0.1:0",
        ServiceConfig::new(portfolio_pipeline())
            .workers(1)
            .queue_capacity(8),
    )
    .unwrap();
    let stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut send = |line: &str| {
        let mut w = &stream;
        w.write_all(line.as_bytes()).unwrap();
        w.write_all(b"\n").unwrap();
        w.flush().unwrap();
        let mut resp = String::new();
        reader.read_line(&mut resp).unwrap();
        resp
    };
    let text = lra_ir::textio::print(&fs[0]);

    // Baseline: the untraced response for the same function.
    let plain = send(&lra_service::proto::alloc_request(1, &text));
    assert!(plain.contains("\"ok\":true"));
    assert!(!plain.contains("trace_id"));

    // Traced request: id echoed, flat per-phase self-times appended.
    let traced = send(&lra_service::proto::alloc_request_full(
        2,
        &text,
        Some("req-abc/1"),
        true,
    ));
    assert!(traced.contains("\"ok\":true"), "traced response: {traced}");
    assert!(traced.contains("\"trace_id\":\"req-abc/1\""));
    assert!(traced.contains("\"trace_total_us\":"));
    assert!(traced.contains("\"phase_allocate_us\":"));
    assert!(traced.contains("\"trace_rounds\":"));
    // Still a flat JSON object the protocol parser accepts as a row,
    // and the row itself is byte-identical to the untraced one.
    let row_of = |resp: &str| match lra_service::proto::parse_response(resp.trim_end()).unwrap() {
        lra_service::proto::Response::Row { row, .. } => format!("{row:?}"),
        other => panic!("expected a row, got {other:?}"),
    };
    assert_eq!(row_of(&traced), row_of(&plain));

    // trace_id without trace:true echoes the id and nothing else.
    let tagged = send(&lra_service::proto::alloc_request_full(
        3,
        &text,
        Some("tag-only"),
        false,
    ));
    assert!(tagged.contains("\"trace_id\":\"tag-only\""));
    assert!(!tagged.contains("phase_allocate_us"));
    assert_eq!(row_of(&tagged), row_of(&plain));

    // The metrics op returns a Prometheus exposition ending in # EOF,
    // with the traced request's phases aggregated.
    let mut client = Client::connect(&server.local_addr().to_string()).unwrap();
    let exposition = client.metrics().unwrap();
    assert!(exposition.ends_with("# EOF\n"));
    assert!(exposition.contains("lra_requests_served_total 3"));
    assert!(exposition.contains("lra_service_time_us_bucket"));
    assert!(exposition.contains("lra_phase_self_us_total{phase=\"allocate\"}"));
    client.shutdown().unwrap();
    server.wait();
}
