//! The in-process allocation service: a persistent worker pool over a
//! bounded request queue that answers overload with backpressure.
//!
//! A request enters through one of two calls that differ only in how
//! the answer comes back: [`AllocationService::submit`] returns a
//! [`Ticket`] to wait on, [`AllocationService::submit_with`] runs a
//! callback on the worker thread. Both take [`SubmitOptions`]
//! (per-request tracing), and `submit` is `submit_with` whose callback
//! feeds the ticket's channel.

use crate::fault::{FaultInjector, FaultPlan};
use crate::metrics::{MetricsInner, ServiceMetrics};
use crate::queue::{BoundedQueue, PushError};
use lra_core::batch::{self, BatchItem};
use lra_core::driver::AllocationPipeline;
use lra_core::portfolio::portfolio_cache;
use lra_ir::{AnalysisScratch, Function};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Configuration for [`AllocationService::start`].
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// The pipeline every request runs through (typically a
    /// `Portfolio`-policy pipeline, so the process-wide result cache
    /// serves repeat methods).
    pub pipeline: AllocationPipeline,
    /// Worker threads. `0` resolves via
    /// [`lra_core::batch::default_threads`].
    pub workers: usize,
    /// Request-queue capacity: submissions beyond it are rejected
    /// with [`SubmitError::QueueFull`] (explicit backpressure).
    pub queue_capacity: usize,
    /// Read timeout the TCP front end sets on accepted connections: a
    /// client silent for this long is treated as gone and its
    /// connection closed, so an idle peer cannot pin a handler thread.
    pub read_timeout: Duration,
    /// Deterministic fault schedule for chaos testing. `None` — the
    /// default — injects nothing.
    pub faults: Option<FaultPlan>,
}

/// Default queue capacity: deep enough that normal bursts never see a
/// rejection, shallow enough that a stalled worker pool surfaces as
/// backpressure (not as unbounded memory growth).
pub const DEFAULT_QUEUE_CAPACITY: usize = 256;

/// Default read timeout on accepted TCP connections (mirrors the write
/// timeout): generous against slow clients, finite against dead ones.
pub const DEFAULT_READ_TIMEOUT: Duration = Duration::from_secs(30);

impl ServiceConfig {
    /// A config running `pipeline` with the default worker count and
    /// queue capacity and no faults.
    pub fn new(pipeline: AllocationPipeline) -> Self {
        ServiceConfig {
            pipeline,
            workers: 0,
            queue_capacity: DEFAULT_QUEUE_CAPACITY,
            read_timeout: DEFAULT_READ_TIMEOUT,
            faults: None,
        }
    }

    /// Sets the worker-thread count (`0` = default).
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = n;
        self
    }

    /// Sets the queue capacity.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn queue_capacity(mut self, n: usize) -> Self {
        assert!(n > 0, "a zero-capacity queue rejects everything");
        self.queue_capacity = n;
        self
    }

    /// Sets the TCP read timeout — see
    /// [`ServiceConfig::read_timeout`].
    pub fn read_timeout(mut self, timeout: Duration) -> Self {
        self.read_timeout = timeout;
        self
    }

    /// Installs a deterministic fault schedule for chaos testing.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }
}

/// Why a submission was not accepted. The function is **not** lost —
/// both variants hand it back so the caller can retry or fail over.
#[derive(Debug)]
pub enum SubmitError {
    /// The request queue is at capacity — the server is saturated and
    /// the caller should back off and retry ([`AllocationService`]
    /// never blocks a submitter to hide overload).
    QueueFull {
        /// The rejected function, returned to the caller.
        function: Function,
        /// The configured queue capacity that was hit.
        capacity: usize,
    },
    /// The service is draining for shutdown; no new work is accepted.
    ShuttingDown {
        /// The rejected function, returned to the caller.
        function: Function,
    },
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull { capacity, .. } => {
                write!(f, "queue full (capacity {capacity})")
            }
            SubmitError::ShuttingDown { .. } => write!(f, "service is shutting down"),
        }
    }
}

/// Per-request options for [`AllocationService::submit`] and
/// [`AllocationService::submit_with`]. The default traces nothing.
#[derive(Clone, Copy, Debug, Default)]
pub struct SubmitOptions {
    /// Trace the run ([`lra_core::trace`]), so the item comes back with
    /// a populated [`lra_core::batch::BatchItem::trace`]. Output bytes
    /// are identical to an untraced submission. A service started with
    /// `LRA_TRACE` set traces every job.
    pub trace: bool,
}

/// A completion callback, run on the worker thread.
type OnDone = Box<dyn FnOnce(BatchItem) + Send>;

struct Job {
    function: Function,
    on_done: OnDone,
    enqueued: Instant,
    opts: SubmitOptions,
}

struct Shared {
    queue: BoundedQueue<Job>,
    pipeline: AllocationPipeline,
    /// `LRA_TRACE` as read at start: trace every job.
    trace_all: bool,
    metrics: MetricsInner,
    workers: usize,
    faults: Option<FaultInjector>,
}

/// A pending request's receipt: [`Ticket::wait`] blocks until the
/// worker pool finishes this request.
pub struct Ticket {
    rx: mpsc::Receiver<BatchItem>,
}

impl Ticket {
    /// Blocks until the request completes and returns its item. Items
    /// are identical to what [`lra_core::batch::BatchAllocator`]
    /// produces for the same function and pipeline.
    ///
    /// # Panics
    ///
    /// Panics if the service dropped the request without responding
    /// (a service bug; the drain contract promises every accepted
    /// request an answer).
    pub fn wait(self) -> BatchItem {
        self.rx.recv().expect("service dropped an accepted request")
    }
}

/// A long-lived allocation server: accepted [`Function`]s flow through
/// a bounded queue into a persistent worker pool running one
/// [`AllocationPipeline`]; results come back as [`BatchItem`]s.
///
/// # Contracts
///
/// * **Backpressure, not blocking**: [`AllocationService::submit`]
///   returns [`SubmitError::QueueFull`] instead of stalling.
/// * **Lossless shutdown**: every accepted request is answered before
///   [`AllocationService::shutdown`] returns.
/// * **Batch-identical output**: each item is produced by
///   [`lra_core::batch::allocate_item`] — the same per-item engine as
///   [`lra_core::batch::BatchAllocator`] — so reports are
///   byte-identical to a batch run at any worker count.
///
/// # Example
///
/// ```
/// use lra_core::driver::AllocationPipeline;
/// use lra_ir::builder::FunctionBuilder;
/// use lra_service::{AllocationService, ServiceConfig, SubmitOptions};
/// use lra_targets::{Target, TargetKind};
///
/// let pipeline = AllocationPipeline::new(Target::new(TargetKind::St231)).registers(2);
/// let service = AllocationService::start(ServiceConfig::new(pipeline).workers(2));
/// let mut b = FunctionBuilder::new("demo");
/// let e = b.entry_block();
/// let x = b.op(e, &[]);
/// b.op(e, &[x]);
/// let ticket = service
///     .submit(b.finish(), SubmitOptions::default())
///     .expect("queue has room");
/// assert!(ticket.wait().outcome.is_ok());
/// let metrics = service.shutdown();
/// assert_eq!(metrics.served, 1);
/// ```
pub struct AllocationService {
    shared: Arc<Shared>,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl AllocationService {
    /// Starts the worker pool and returns the running service.
    pub fn start(cfg: ServiceConfig) -> Self {
        let workers = if cfg.workers > 0 {
            cfg.workers
        } else {
            batch::default_threads()
        };
        let shared = Arc::new(Shared {
            queue: BoundedQueue::new(cfg.queue_capacity),
            pipeline: cfg.pipeline,
            trace_all: lra_core::trace::env_requested(),
            metrics: MetricsInner::new(portfolio_cache().stats(), workers),
            workers,
            faults: cfg.faults.map(FaultInjector::new),
        });
        let handles = (0..workers)
            .map(|index| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared, index))
            })
            .collect();
        AllocationService {
            shared,
            handles: Mutex::new(handles),
        }
    }

    /// Submits one function, returning a [`Ticket`] to wait on:
    /// [`AllocationService::submit_with`] whose callback feeds the
    /// ticket.
    ///
    /// # Errors
    ///
    /// [`SubmitError::QueueFull`] when the queue is at capacity,
    /// [`SubmitError::ShuttingDown`] after shutdown began. The
    /// function is returned inside the error either way.
    pub fn submit(&self, function: Function, opts: SubmitOptions) -> Result<Ticket, SubmitError> {
        let (tx, rx) = mpsc::channel();
        // A submitter that dropped its ticket no longer wants the
        // answer, so a dead channel is ignored.
        self.submit_with(function, opts, move |item| {
            let _ = tx.send(item);
        })?;
        Ok(Ticket { rx })
    }

    /// Submits one function with a completion callback instead of a
    /// ticket. The callback runs **on the worker thread** right after
    /// the pipeline finishes — keep it short (the TCP front end uses
    /// it to write one response line).
    ///
    /// # Errors
    ///
    /// Same rejections as [`AllocationService::submit`].
    pub fn submit_with(
        &self,
        function: Function,
        opts: SubmitOptions,
        on_done: impl FnOnce(BatchItem) + Send + 'static,
    ) -> Result<(), SubmitError> {
        let job = Job {
            function,
            on_done: Box::new(on_done),
            enqueued: Instant::now(),
            opts,
        };
        self.shared.queue.try_push(job).map_err(|e| {
            self.shared.metrics.record_rejected();
            match e {
                PushError::Full(job) => SubmitError::QueueFull {
                    function: job.function,
                    capacity: self.shared.queue.capacity(),
                },
                PushError::Closed(job) => SubmitError::ShuttingDown {
                    function: job.function,
                },
            }
        })
    }

    /// Convenience driver: pushes every function through the service
    /// (retrying `queue_full` rejections with a tiny backoff, so the
    /// call exercises real backpressure when the corpus exceeds the
    /// queue) and returns the items **in input order** — the shape
    /// [`lra_core::batch::BatchAllocator::run`] returns.
    ///
    /// # Panics
    ///
    /// Panics if the service shuts down while this call is submitting.
    pub fn run_all(&self, functions: &[Function]) -> Vec<BatchItem> {
        let mut tickets = Vec::with_capacity(functions.len());
        for f in functions {
            let mut function = f.clone();
            loop {
                match self.submit(function, SubmitOptions::default()) {
                    Ok(t) => {
                        tickets.push(t);
                        break;
                    }
                    Err(SubmitError::QueueFull { function: back, .. }) => {
                        function = back;
                        std::thread::sleep(std::time::Duration::from_micros(200));
                    }
                    Err(SubmitError::ShuttingDown { .. }) => {
                        panic!("service shut down mid-run_all")
                    }
                }
            }
        }
        tickets.into_iter().map(Ticket::wait).collect()
    }

    /// A snapshot of the server's counters.
    pub fn metrics(&self) -> ServiceMetrics {
        self.shared.metrics.snapshot(
            self.shared.queue.high_water(),
            self.shared.queue.capacity(),
            self.shared.workers,
            portfolio_cache().stats(),
        )
    }

    /// Requests currently queued (excluding in-flight work).
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.len()
    }

    /// Counts of the faults the configured [`FaultPlan`] actually
    /// injected so far (`None` when no plan is installed). A chaos
    /// harness asserts these are nonzero — a fault plan that never
    /// fires tests nothing.
    pub fn fault_report(&self) -> Option<crate::fault::FaultReport> {
        self.shared.faults.as_ref().map(FaultInjector::report)
    }

    /// The live injector, for the TCP front end's write-path faults.
    pub(crate) fn fault_injector(&self) -> Option<&FaultInjector> {
        self.shared.faults.as_ref()
    }

    /// Graceful shutdown: stops accepting work, serves everything
    /// already accepted, joins the workers, and returns the final
    /// metrics. Idempotent — later calls just return a fresh snapshot.
    pub fn shutdown(&self) -> ServiceMetrics {
        self.shared.queue.close();
        let handles =
            std::mem::take(&mut *self.handles.lock().unwrap_or_else(PoisonError::into_inner));
        for h in handles {
            let _ = h.join();
        }
        self.metrics()
    }
}

impl Drop for AllocationService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Most jobs one worker claims per queue-lock acquisition. Small
/// enough that a burst still spreads across the pool (and `pop_run`'s
/// half rule tightens that further), large enough that a backed-up
/// queue costs one lock round-trip per few jobs instead of per job.
const WORKER_CLAIM: usize = 4;

/// Delivers one item to its submitter, absorbing callback panics
/// (user code must not kill a worker — the queue behind it still holds
/// accepted requests the drain contract promises to serve; the panic
/// message still reaches stderr via the process panic hook).
fn respond(on_done: OnDone, item: BatchItem) {
    let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || on_done(item)));
}

/// A chaos-injected worker panic, caught exactly the way a pipeline
/// panic is, so the recovery path under test is the production one:
/// the job completes as an error item, the worker lives on.
fn chaos_panic_item(function: &Function) -> BatchItem {
    use lra_core::driver::{AllocatedFunction, PipelineError};
    let t0 = Instant::now();
    let outcome = std::panic::catch_unwind(|| -> Result<AllocatedFunction, PipelineError> {
        panic!("chaos: injected worker panic")
    })
    .unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "chaos: injected worker panic".to_string());
        Err(PipelineError::Panic(msg))
    });
    BatchItem {
        function: function.name.clone(),
        outcome,
        elapsed: t0.elapsed(),
        trace: None,
    }
}

fn worker_loop(shared: &Shared, worker_index: usize) {
    // One scratch per worker for its whole lifetime: analysis buffers
    // are recycled across every function this worker serves, with
    // output bits untouched (see [`lra_core::batch::allocate_item`]).
    let mut scratch = AnalysisScratch::new();
    loop {
        let run = shared.queue.pop_run(WORKER_CLAIM);
        if run.is_empty() {
            return; // closed and drained
        }
        for job in run {
            let fault = shared
                .faults
                .as_ref()
                .map(FaultInjector::next_job)
                .unwrap_or_default();
            if let Some(extra) = fault.latency {
                std::thread::sleep(extra);
            }

            let traced = job.opts.trace || shared.trace_all;
            let item = if fault.panic {
                chaos_panic_item(&job.function)
            } else {
                batch::allocate_item(&shared.pipeline, &job.function, &mut scratch, traced)
            };

            if let Some(trace) = &item.trace {
                shared.metrics.record_trace(trace);
            }
            shared
                .metrics
                .record_served(worker_index, job.enqueued.elapsed());
            respond(job.on_done, item);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use lra_core::batch::BatchAllocator;
    use lra_ir::genprog::{random_ssa_function, SsaConfig};
    use lra_targets::{Target, TargetKind};
    use rand::SeedableRng as _;
    use rand_chacha::ChaCha8Rng;

    fn corpus(n: u64) -> Vec<Function> {
        (0..n)
            .map(|seed| {
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                let cfg = SsaConfig {
                    target_instrs: 50,
                    liveness_window: 8,
                    ..SsaConfig::default()
                };
                random_ssa_function(&mut rng, &cfg, format!("chaos::f{seed}"))
            })
            .collect()
    }

    fn pipeline() -> AllocationPipeline {
        AllocationPipeline::new(Target::new(TargetKind::St231)).registers(3)
    }

    #[test]
    fn injected_faults_surface_as_error_rows_never_lost_requests() {
        let fs = corpus(12);
        let plan = FaultPlan::new()
            .seed(7)
            .panic_every(3)
            .latency_every(4, Duration::from_millis(1));
        let service = AllocationService::start(
            ServiceConfig::new(pipeline())
                .workers(2)
                .queue_capacity(16)
                .faults(plan),
        );
        let tickets: Vec<_> = fs
            .iter()
            .map(|f| {
                service
                    .submit(f.clone(), SubmitOptions::default())
                    .expect("queue has room")
            })
            .collect();
        let items: Vec<_> = tickets.into_iter().map(Ticket::wait).collect();
        let report = service.fault_report().expect("a fault plan is installed");
        let metrics = service.shutdown();
        assert_eq!(metrics.served, fs.len() as u64, "faults lose no requests");
        // 12 jobs: one panic per cycle of 3, one latency per cycle of 4.
        assert_eq!(report.panics, 4, "the enabled panic fault must fire");
        assert_eq!(report.latencies, 3, "the enabled latency fault must fire");
        let chaos_rows = items
            .iter()
            .filter(|item| {
                matches!(item.row().outcome.as_ref(),
                         Err(e) if e.contains("chaos: injected"))
            })
            .count() as u64;
        assert_eq!(
            chaos_rows, report.panics,
            "every injected panic is one error row, and nothing else is"
        );
        // Un-faulted requests are byte-identical to the batch path —
        // injection perturbs scheduling, never results.
        let reference = BatchAllocator::new(pipeline()).threads(1).run(&fs);
        for (item, reference) in items.iter().zip(reference.rows()) {
            if item.outcome.is_ok() {
                assert_eq!(format!("{:?}", item.row()), format!("{reference:?}"));
            }
        }
    }

    #[test]
    fn a_fault_free_service_reports_no_faults() {
        let fs = corpus(2);
        let service = AllocationService::start(ServiceConfig::new(pipeline()).workers(1));
        assert!(service.fault_report().is_none(), "no plan, no injector");
        for f in &fs {
            let ticket = service.submit(f.clone(), SubmitOptions::default());
            assert!(ticket.unwrap().wait().outcome.is_ok());
        }
        service.shutdown();
    }
}
