//! Experiment CLI: regenerates every figure of the paper's evaluation
//! and drives the parallel batch allocator.
//!
//! ```text
//! cargo run --release -p lra-bench -- all              # every figure
//! cargo run --release -p lra-bench -- fig8             # one figure
//! cargo run --release -p lra-bench -- fig14 --seed 7
//! cargo run --release -p lra-bench -- batch --threads 4
//! cargo run --release -p lra-bench -- batch --policy portfolio
//! cargo run --release -p lra-bench -- portfolio --budget-nodes 100000
//! cargo run --release -p lra-bench -- portfolio --sweep  # fuel frontier
//! cargo run --release -p lra-bench -- paper            # BENCH_paper.json
//! cargo run --release -p lra-bench -- record           # BENCH_batch.json
//! cargo run --release -p lra-bench -- profile          # BENCH_phases.json
//! cargo run --release -p lra-bench -- chaos --seed 7   # fault-injected soak
//! ```
//!
//! Tables are printed to stdout; `paper` writes every figure and study
//! table to `BENCH_paper.json`, the one machine-readable form. `batch`
//! prints a **deterministic** report to stdout (identical at any
//! `--threads` setting; timings go to stderr); `record` persists
//! median wall-clock baselines to `BENCH_batch.json` at the repo root.
//! `--threads N` also sets the worker count every figure runner fans
//! out with.

use lra_bench::experiments;
use lra_bench::paper::{self, Suite, Suites};
use lra_bench::suites;

/// Every command `lra-bench` accepts besides `all`; `all` runs the
/// first [`ALL`] of them, in this order.
const COMMANDS: [&str; 20] = [
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "inclusion",
    "ssa",
    "stats",
    "pipeline",
    "batch",
    "portfolio",
    "paper",
    "serve",
    "loadgen",
    "chaos",
    "record",
    "profile",
];
const ALL: usize = 14;

fn usage() -> ! {
    eprintln!(
        "usage: lra-bench <{}|all> [--seed N] [--threads N] [--out PATH] [--chrome PATH] [--policy NAME] [--budget-nodes N] [--budget-ms N] [--sweep] [--addr HOST:PORT] [--queue N] [--repeat N] [--local] [--shutdown] [--panic-every N] [--latency-every N] [--latency-ms N] [--drop-every N]",
        COMMANDS.join("|")
    );
    std::process::exit(2)
}

/// The value following a flag, parsed; the usage line when it is
/// missing or does not parse.
fn arg<T: std::str::FromStr>(value: Option<&String>) -> T {
    arg_where(value, |_| true)
}

/// [`arg`], also rejecting a value `ok` refuses.
fn arg_where<T: std::str::FromStr>(value: Option<&String>, ok: impl Fn(&T) -> bool) -> T {
    value
        .and_then(|s| s.parse().ok())
        .filter(ok)
        .unwrap_or_else(|| usage())
}

/// `serve`: host the jit-large pipeline behind the TCP front end until
/// a client sends the `shutdown` op. Deterministic allocation output
/// is the client's concern; everything this prints goes to stderr.
fn run_serve(addr: &str, workers: usize, queue: usize) {
    use lra_service::ServiceConfig;
    // workers == 0 means "resolve the default" — the service does
    // that itself.
    let cfg = ServiceConfig::new(lra_bench::batchrun::jit_large_pipeline())
        .workers(workers)
        .queue_capacity(queue);
    let server = lra_service::serve(addr, cfg).unwrap_or_else(|e| {
        eprintln!("serve: cannot bind {addr}: {e}");
        std::process::exit(1);
    });
    eprintln!(
        "lra-service listening on {} (queue capacity {queue})",
        server.local_addr()
    );
    let metrics = server.wait();
    eprintln!("lra-service drained: {}", metrics.render());
}

/// `loadgen`: push the jit-large corpus through a running server
/// `repeat` times and print each pass's deterministic report to
/// stdout (timings and server stats go to stderr). `--local` skips
/// the network and prints the [`lra_core::batch::BatchAllocator`]
/// reference dump instead — CI diffs the two for byte-identity.
/// `--shutdown` asks the server to drain and exit afterwards.
fn run_loadgen(addr: &str, seed: u64, repeat: usize, local: bool, send_shutdown: bool) {
    let functions = lra_bench::suites::jit_large_functions(seed);
    if local {
        let batch = lra_core::batch::BatchAllocator::new(lra_bench::batchrun::jit_large_pipeline())
            .threads(1);
        for _ in 0..repeat.max(1) {
            print!("{}", batch.run(&functions).render());
            println!();
        }
        return;
    }
    let mut client =
        lra_service::Client::connect_retry(addr, 100, std::time::Duration::from_millis(100))
            .unwrap_or_else(|e| {
                eprintln!("loadgen: cannot connect to {addr}: {e}");
                std::process::exit(1);
            });
    let mut total_retries = 0u64;
    let mut total_deadline_rejections = 0u64;
    for pass in 0..repeat.max(1) {
        let result = client.allocate_all(&functions).unwrap_or_else(|e| {
            eprintln!("loadgen: pass {pass} failed: {e}");
            std::process::exit(1);
        });
        total_retries += result.retries;
        total_deadline_rejections += result.deadline_rejections;
        print!("{}", result.render());
        println!();
        eprintln!(
            "(pass {pass}: {} functions in {:.1} ms, {:.1}/s, {} backpressure retries)",
            result.rows.len(),
            result.elapsed.as_secs_f64() * 1e3,
            result.throughput(),
            result.retries
        );
    }
    // End-of-run overload summary: the client-side counters plus the
    // server's own shed/degrade totals. Stderr only — stdout carries
    // exclusively the deterministic reports CI diffs.
    let server_stat = |stats: &std::collections::BTreeMap<String, lra_service::proto::Json>,
                       key: &str| {
        stats
            .get(key)
            .and_then(lra_service::proto::Json::as_u64)
            .unwrap_or(0)
    };
    match client.stats() {
        Ok(stats) => {
            let fields: Vec<String> = stats.iter().map(|(k, v)| format!("{k}={v:?}")).collect();
            eprintln!("(server stats: {})", fields.join(" "));
            eprintln!(
                "(loadgen summary: {total_retries} backpressure retries, \
                 {total_deadline_rejections} deadline rejections; server degraded {} \
                 / deadline_exceeded {} / rejected {})",
                server_stat(&stats, "degraded"),
                server_stat(&stats, "deadline_exceeded"),
                server_stat(&stats, "rejected"),
            );
        }
        Err(e) => {
            eprintln!(
                "(loadgen summary: {total_retries} backpressure retries, \
                 {total_deadline_rejections} deadline rejections; server stats unavailable: {e})"
            );
        }
    }
    if send_shutdown {
        if let Err(e) = client.shutdown() {
            eprintln!("loadgen: shutdown request failed: {e}");
            std::process::exit(1);
        }
    }
}

/// `chaos`: soak the jit-large corpus against an in-process server
/// with seeded fault injection (worker panics, added latency, severed
/// connections). Each pass's surviving report goes to stdout in the
/// exact `loadgen` format — CI diffs it against `loadgen --local` —
/// and the chaos log (injected-fault and recovery counts) to stderr.
/// The harness itself asserts the exactly-once and byte-identity
/// contracts and panics on any violation.
fn run_chaos(
    seed: u64,
    threads: usize,
    queue: usize,
    repeat: usize,
    plan: lra_service::fault::FaultPlan,
) {
    let outcome = lra_bench::chaos::run(seed, threads, queue, repeat, plan);
    for pass in &outcome.passes {
        print!("{pass}");
        println!();
    }
    eprintln!(
        "(chaos: {} passes, faults injected: {} panics / {} latencies / {} drops; \
         client recovered with {} reconnects, {} resubmits, {} queue-full retries)",
        outcome.passes.len(),
        outcome.faults.panics,
        outcome.faults.latencies,
        outcome.faults.drops,
        outcome.reconnects,
        outcome.resubmits,
        outcome.queue_full
    );
    eprintln!("(server drained: {})", outcome.metrics.render());
}

/// `batch`: fan the standard corpora (lao-kernels + SPEC JVM98 +
/// jit-large) across the worker pool and print the deterministic
/// per-corpus reports. `--policy NAME` overrides every corpus's
/// allocator (`--policy portfolio` selects the budgeted portfolio).
fn run_batch(seed: u64, threads: usize, policy: Option<&str>) {
    for exp in lra_bench::batchrun::standard_experiments_with_policy(seed, policy) {
        let report = exp.run(threads);
        println!(
            "# Batch allocation: {} ({} functions)",
            exp.name,
            exp.functions.len()
        );
        print!("{}", report.render());
        println!();
        eprintln!(
            "({}: {} workers, {:.1} ms wall-clock)",
            exp.name,
            report.threads,
            report.elapsed.as_secs_f64() * 1e3
        );
    }
}

/// `portfolio`: run the budgeted portfolio policy over the large
/// non-SSA JIT corpus and print the per-program cheap-vs-portfolio
/// comparison. The node fuel is the deterministic cap: the default
/// 5,000 nodes per escalation, or `--budget-nodes`. The optional
/// `--budget-ms` wall-clock deadline is a latency guard whose
/// escalation outcomes are machine-dependent (noted on stderr).
fn run_portfolio(seed: u64, budget_nodes: Option<u64>, budget_ms: Option<u64>) {
    use lra_core::portfolio::PortfolioConfig;
    let mut cfg =
        PortfolioConfig::default().time_budget(budget_ms.map(std::time::Duration::from_millis));
    if let Some(nodes) = budget_nodes {
        cfg = cfg.node_budget(nodes);
    }
    let registers = 6;
    let ws = lra_bench::suites::jit_large(seed);
    let rows = lra_bench::experiments::portfolio_study(&ws, registers, &cfg);
    let deadline = cfg
        .time_budget
        .map_or(String::new(), |d| format!(" + {} ms", d.as_millis()));
    let budget_label = format!("{} nodes{deadline} per function", cfg.node_budget);
    if cfg.time_budget.is_some() {
        eprintln!("(wall-clock budget set: escalation outcomes depend on machine speed)");
    }
    print!(
        "{}",
        lra_bench::experiments::render_portfolio_table(
            &format!(
                "Portfolio policy on jit-large (R = {registers}, cheap = {}, budget = {budget_label})",
                cfg.cheap
            ),
            &rows
        )
    );
}

/// `portfolio --sweep`: the fuel frontier. Runs the standard corpora
/// on one traced worker at each [`FUEL_SWEEP`] fuel and prints, per
/// corpus, the final total spill cost, the converged count and the
/// `allocate` self-time — the data `standard_portfolio_config`'s fuel
/// is chosen from. Costs and counts are deterministic; times are not.
///
/// [`FUEL_SWEEP`]: lra_bench::batchrun::FUEL_SWEEP
fn run_fuel_sweep(seed: u64) {
    use lra_bench::batchrun::{
        standard_experiments_with_portfolio, standard_portfolio_config, FUEL_SWEEP,
    };
    use lra_core::trace::Phase;
    println!("# Fuel frontier, seed {seed}: standard corpora, 1 worker, tracing armed");
    println!(
        "{:>7} {:<24} {:>16} {:>9} {:>12}",
        "fuel", "corpus", "total_spill_cost", "converged", "allocate_ms"
    );
    for fuel in FUEL_SWEEP {
        let cfg = standard_portfolio_config().node_budget(fuel);
        let experiments = standard_experiments_with_portfolio(seed, cfg);
        for p in lra_bench::profile::profile(&experiments) {
            let allocate = p.trace.phases[Phase::Allocate as usize].self_ns;
            println!(
                "{fuel:>7} {:<24} {:>16} {:>9} {:>12.1}",
                p.name,
                p.summary.total_spill_cost,
                p.summary.converged,
                allocate as f64 / 1e6
            );
        }
    }
}

/// `record`: re-run the standard corpora at several worker counts and
/// persist the min/median wall-clock baselines (plus spill aggregates
/// and the service-throughput runs) as `BENCH_batch.json`.
fn run_record(seed: u64, out: &str) {
    // Threads {1, 2, 4} and workers {1, 2, 4} are recorded
    // unconditionally — the baseline's scaling rows must be comparable
    // across hosts, and oversubscription on a smaller machine is
    // itself a data point (the report stays byte-identical either
    // way; record asserts that).
    let thread_counts = [1usize, 2, 4];
    let recorded = lra_bench::batchrun::record(seed, &thread_counts, 5);
    let service = lra_bench::batchrun::record_service(seed, &[1, 2, 4]);
    for r in &service {
        eprintln!(
            "service jit-large: {} workers -> cold {:.1} ms ({:.1}/s, hit rate {:.2}), warm {:.1} ms ({:.1}/s, hit rate {:.2})",
            r.workers,
            r.cold_ms,
            r.throughput_cold,
            r.cache_hit_rate_cold,
            r.warm_ms,
            r.throughput_warm,
            r.cache_hit_rate_warm
        );
    }
    let host = lra_bench::host::stamp_json(std::path::Path::new("."));
    let json = lra_bench::batchrun::to_json(seed, &host, &recorded, &service);
    std::fs::write(out, &json).unwrap_or_else(|e| panic!("writing {out}: {e}"));
    for e in &recorded {
        let base = e.timings.first().map_or(0.0, |t| t.min_ms);
        for t in &e.timings {
            eprintln!(
                "{}: {} threads -> min {:.1} ms, median {:.1} ms (x{:.2})",
                e.name,
                t.threads,
                t.min_ms,
                t.median_ms,
                if t.min_ms > 0.0 { base / t.min_ms } else { 0.0 }
            );
        }
    }
    println!("baselines written to {out}");
}

/// `profile`: run the standard corpora single-worker with phase
/// tracing armed and persist the merged per-phase self-times as
/// `BENCH_phases.json` (schema `lra-bench/phases-v5`). `--chrome PATH`
/// additionally re-runs the heaviest jit-large function in span-event
/// detail and writes a chrome://tracing document to `PATH`.
fn run_profile(seed: u64, out: &str, chrome: Option<&str>) {
    let profiles = lra_bench::profile::run(seed);
    for p in &profiles {
        eprintln!(
            "{}: {} functions, wall {:.1} ms, attributed {:.1} ms ({:.1}% of allocation time)",
            p.name,
            p.functions,
            p.wall.as_secs_f64() * 1e3,
            std::time::Duration::from_nanos(p.trace.total_self_ns()).as_secs_f64() * 1e3,
            p.coverage() * 100.0
        );
        for phase in lra_core::trace::Phase::ALL {
            let st = p.trace.phases[phase as usize];
            if st.count > 0 {
                eprintln!(
                    "  {:>14}: {:>8} spans, self {:>9.3} ms, total {:>9.3} ms",
                    phase.name(),
                    st.count,
                    st.self_ns as f64 / 1e6,
                    st.total_ns as f64 / 1e6
                );
            }
        }
    }
    let host = lra_bench::host::stamp_json(std::path::Path::new("."));
    let json = lra_bench::profile::to_json(seed, &host, &profiles);
    std::fs::write(out, &json).unwrap_or_else(|e| panic!("writing {out}: {e}"));
    println!("phase profile written to {out}");
    if let Some(path) = chrome {
        let trace = lra_bench::profile::chrome_trace(seed);
        std::fs::write(path, &trace).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("chrome trace written to {path}");
    }
}

/// `pipeline`: run every registered allocator end to end (allocate →
/// spill-code rewrite → reanalyse → assign → verify) on one sample
/// function and print the report columns.
fn run_pipeline_demo(seed: u64) {
    use lra_core::driver::AllocationPipeline;
    use lra_core::registry::AllocatorRegistry;
    use lra_ir::genprog::{random_ssa_function, SsaConfig};
    use lra_targets::{Target, TargetKind};
    use rand::SeedableRng as _;

    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    let cfg = SsaConfig {
        target_instrs: 120,
        liveness_window: 16,
        ..SsaConfig::default()
    };
    let f = random_ssa_function(&mut rng, &cfg, "demo::kernel");
    let target = Target::new(TargetKind::St231);
    let registers = 6;
    println!(
        "# AllocationPipeline on {} ({} values), {target}, R = {registers}",
        f.name, f.value_count
    );
    println!(
        "{:>8} {:>7} {:>11} {:>7} {:>7} {:>7} {:>9} {:>9}",
        "alloc", "rounds", "spill cost", "stores", "loads", "live", "converged", "verified"
    );
    for spec in AllocatorRegistry::specs() {
        match AllocationPipeline::new(target)
            .allocator(spec.name)
            .instance_kind(spec.default_kind())
            .registers(registers)
            .run(&f)
        {
            Ok(report) => println!(
                "{:>8} {:>7} {:>11} {:>7} {:>7} {:>7} {:>9} {:>9}",
                report.allocator,
                report.rounds,
                report.spill_cost,
                report.stores,
                report.loads,
                format!("{}->{}", report.max_live_before, report.max_live_after),
                report.converged,
                report.verdict.is_feasible(),
            ),
            Err(e) => println!("{:>8} failed: {e}", spec.name),
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let mut seed = 2013u64; // CGO 2013
    let mut threads = 0usize; // 0 = auto (available_parallelism)
    let mut out: Option<String> = None;
    let mut chrome: Option<String> = None;
    let mut policy: Option<String> = None;
    let mut budget_nodes: Option<u64> = None;
    let mut budget_ms: Option<u64> = None;
    let mut addr = "127.0.0.1:7411".to_string();
    let mut queue = lra_service::DEFAULT_QUEUE_CAPACITY;
    let mut repeat = 1usize;
    let mut local = false;
    let mut sweep = false;
    let mut send_shutdown = false;
    let mut panic_every = 7u64;
    let mut latency_every = 5u64;
    let mut latency_ms = 2u64;
    let mut drop_every = 9u64;
    let mut which = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => seed = arg(it.next()),
            "--threads" => threads = arg(it.next()),
            "--out" => out = Some(arg(it.next())),
            "--chrome" => chrome = Some(arg(it.next())),
            "--policy" => policy = Some(arg(it.next())),
            "--budget-nodes" => budget_nodes = Some(arg(it.next())),
            "--budget-ms" => budget_ms = Some(arg(it.next())),
            "--addr" => addr = arg(it.next()),
            "--queue" => queue = arg_where(it.next(), |&n| n > 0),
            "--repeat" => repeat = arg_where(it.next(), |&n| n > 0),
            "--panic-every" => panic_every = arg_where(it.next(), |&n| n != 1),
            "--latency-every" => latency_every = arg(it.next()),
            "--latency-ms" => latency_ms = arg(it.next()),
            "--drop-every" => drop_every = arg_where(it.next(), |&n| n != 1),
            "--local" => local = true,
            "--sweep" => sweep = true,
            "--shutdown" => send_shutdown = true,
            "all" => which.extend(&COMMANDS[..ALL]),
            c if COMMANDS.contains(&c) => which.push(c),
            _ => usage(),
        }
    }

    // Every figure runner and suite sweep fans out through the batch
    // pool; --threads pins its worker count process-wide.
    lra_core::batch::set_default_threads(threads);

    // Each suite is generated on first use, once.
    let suites = Suites::new(seed);

    for f in which {
        match f {
            "inclusion" => print!("{}", paper::render_inclusion(&paper::inclusion(&suites))),
            "ssa" => {
                let rows = paper::ssa(&suites);
                print!(
                    "{}",
                    experiments::render_ssa_conversion_table(paper::SSA_TITLE, &rows)
                );
            }
            "paper" => {
                let out = out.as_deref().unwrap_or("BENCH_paper.json");
                let json = paper::reproduce(&suites);
                std::fs::write(out, json).unwrap_or_else(|e| panic!("writing {out}: {e}"));
                println!("paper reproduction written to {out}");
            }
            "pipeline" => run_pipeline_demo(seed),
            "batch" => run_batch(seed, threads, policy.as_deref()),
            "portfolio" if sweep => run_fuel_sweep(seed),
            "portfolio" => run_portfolio(seed, budget_nodes, budget_ms),
            "serve" => run_serve(&addr, threads, queue),
            "loadgen" => run_loadgen(&addr, seed, repeat, local, send_shutdown),
            "chaos" => run_chaos(
                seed,
                threads,
                queue,
                repeat,
                lra_service::fault::FaultPlan::new()
                    .seed(seed)
                    .panic_every(panic_every)
                    .latency_every(latency_every, std::time::Duration::from_millis(latency_ms))
                    .drop_every(drop_every),
            ),
            "record" => run_record(seed, out.as_deref().unwrap_or("BENCH_batch.json")),
            "profile" => run_profile(
                seed,
                out.as_deref().unwrap_or("BENCH_phases.json"),
                chrome.as_deref(),
            ),
            "stats" => {
                for suite in Suite::ALL {
                    let title = format!("{} workload shape", suite.name());
                    print!(
                        "{}",
                        experiments::render_suite_stats(&title, suites.get(suite))
                    );
                    println!();
                }
                print!(
                    "{}",
                    experiments::render_suite_stats(
                        "jit-large workload shape",
                        &suites::jit_large(seed)
                    )
                );
                println!();
            }
            name => {
                let fig = paper::FIGURES.iter().find(|f| f.name == name);
                let fig = fig.expect("every other command is a figure");
                print!("{}", fig.render(&fig.run(suites.get(fig.suite))));
            }
        }
        println!();
    }
}
