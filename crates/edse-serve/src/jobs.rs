//! Multi-tenant job registry and fair scheduler.
//!
//! Jobs are [`HostedSearch`]es parked in a table; a fixed pool of worker
//! threads round-robins over the runnable ones, advancing each by one
//! `step` (at most one evaluation batch) per turn. That batch boundary is
//! the service's unit of everything: fairness (no job holds a worker
//! longer than one batch), cancellation (a cancel takes effect at the
//! next boundary; a checkpointed job's checkpoint was written at submit
//! and its work is in the disk cache, so a cancel has nothing to save),
//! and pause/resume (a paused job is simply not re-queued until resumed).
//!
//! Every job gets its **own evaluator** (so per-job budgets count per-job
//! work) sharing the server's one [`EvalEngine`] configuration and one
//! [`DiskCache`]; and its own [`Collector`] with a `job<id>/` metric
//! prefix plus an [`EventBuffer`] sink, so iteration records stream to
//! `GET /jobs/:id/events` and `/metrics` can merge all tenants without
//! name collisions.

use crate::driver::{build_driver, HostedSearch};
use edse_core::evaluate::{CacheStats, EvalEngine};
use edse_core::{fault, CancelToken, DiskCache, JobSpec, StepOutcome};
use edse_telemetry::json::Json;
use edse_telemetry::{export, Collector, Event, HistogramSummary, Sink};
use std::collections::{BTreeMap, VecDeque};
use std::path::{Component, Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Parked in the run queue or being stepped right now.
    Running,
    /// Not scheduled until `POST /jobs/:id/resume`.
    Paused,
    /// Terminated by `POST /jobs/:id/cancel`; a checkpointed job can be
    /// resumed from its checkpoint.
    Cancelled,
    /// Ran to its own termination (budget, convergence, or stall).
    Completed,
    /// The driver panicked; see the status `error` field.
    Failed,
}

impl JobState {
    /// Lowercase wire label.
    pub fn label(self) -> &'static str {
        match self {
            JobState::Running => "running",
            JobState::Paused => "paused",
            JobState::Cancelled => "cancelled",
            JobState::Completed => "completed",
            JobState::Failed => "failed",
        }
    }

    /// Whether no further scheduling will happen.
    pub fn terminal(self) -> bool {
        matches!(
            self,
            JobState::Cancelled | JobState::Completed | JobState::Failed
        )
    }
}

/// The longest [`EventBuffer::wait_from`] blocks.
const WAIT_LIMIT: Duration = Duration::from_secs(1);

/// Append-only JSONL buffer of one job's iteration records, shared
/// between the job's telemetry sink and any number of `GET /events`
/// streamers. Closed exactly once, when the job reaches a terminal state.
pub struct EventBuffer {
    lines: Mutex<(Vec<String>, bool)>,
    grew: Condvar,
}

impl EventBuffer {
    fn new() -> Arc<EventBuffer> {
        Arc::new(EventBuffer {
            lines: Mutex::new((Vec::new(), false)),
            grew: Condvar::new(),
        })
    }

    fn push(&self, line: String) {
        let mut lines = self.lines.lock().expect("event buffer poisoned");
        lines.0.push(line);
        self.grew.notify_all();
    }

    fn close(&self) {
        let mut lines = self.lines.lock().expect("event buffer poisoned");
        lines.1 = true;
        self.grew.notify_all();
    }

    /// Lines `[from..]`, blocking until there is something new, the
    /// buffer is closed, or a second passes. Returns the new lines
    /// (none after a timeout) and whether the stream is over (closed and
    /// fully drained). The limit lets a streamer check on its client while
    /// a job writes nothing; a push still wakes it at once.
    pub fn wait_from(&self, from: usize) -> (Vec<String>, bool) {
        let lines = self.lines.lock().expect("event buffer poisoned");
        let (lines, _) = self
            .grew
            .wait_timeout_while(lines, WAIT_LIMIT, |(lines, closed)| {
                lines.len() <= from && !*closed
            })
            .expect("event buffer poisoned");
        let new: Vec<String> = lines.0[from.min(lines.0.len())..].to_vec();
        let over = lines.1;
        (new, over)
    }

    /// Non-blocking snapshot: all lines so far and the closed flag.
    pub fn snapshot(&self) -> (Vec<String>, bool) {
        let lines = self.lines.lock().expect("event buffer poisoned");
        (lines.0.clone(), lines.1)
    }
}

/// Telemetry sink feeding an [`EventBuffer`] with iteration records (one
/// JSON line each, the same schema as `--trace-out`).
struct EventSink {
    buffer: Arc<EventBuffer>,
}

impl Sink for EventSink {
    fn record(&self, event: &Event) {
        if matches!(event, Event::Iteration { .. }) {
            self.buffer.push(event.to_json_line());
        }
    }

    fn flush(&self) {}

    fn wants_metrics(&self) -> bool {
        true
    }
}

/// One hosted job. The driver is `None` while a worker has it leased (or
/// after it was consumed into `summary`).
struct Job {
    spec: JobSpec,
    state: JobState,
    driver: Option<HostedSearch>,
    queued: bool,
    cancel: CancelToken,
    collector: Collector,
    events: Arc<EventBuffer>,
    summary: Option<Json>,
    error: Option<String>,
    evaluations: usize,
    best_objective: Option<f64>,
    cache: CacheStats,
}

struct Inner {
    jobs: BTreeMap<u64, Job>,
    queue: VecDeque<u64>,
    next_id: u64,
    shutdown: bool,
}

/// The registry: job table + run queue + the worker pool's condition
/// variable. One per server; shared by the HTTP handlers and workers.
pub struct Registry {
    inner: Mutex<Inner>,
    work: Condvar,
    engine: EvalEngine,
    disk: Option<Arc<DiskCache>>,
    disk_error: Option<String>,
    server_telemetry: Collector,
}

impl Registry {
    /// A registry whose jobs share `engine` and `disk`. `disk_error`
    /// records why a *requested* disk cache is absent, so every job's
    /// status surfaces the degradation.
    pub fn new(
        engine: EvalEngine,
        disk: Option<Arc<DiskCache>>,
        disk_error: Option<String>,
        server_telemetry: Collector,
    ) -> Arc<Registry> {
        Arc::new(Registry {
            inner: Mutex::new(Inner {
                jobs: BTreeMap::new(),
                queue: VecDeque::new(),
                next_id: 1,
                shutdown: false,
            }),
            work: Condvar::new(),
            engine,
            disk,
            disk_error,
            server_telemetry,
        })
    }

    /// Validates `spec`, builds its driver, and enqueues it. Returns the
    /// job id; `Err` is a client error (HTTP 400).
    ///
    /// A served `checkpoint` names a checkpoint, never a place on the
    /// server's disk: it must be a bare file name, and it resolves to
    /// `<cache dir>/checkpoints/<name>`. The checkpoint is written here,
    /// before the job is queued; a checkpoint that cannot be written is a
    /// client error like a refused resume.
    pub fn submit(&self, mut spec: JobSpec) -> Result<u64, String> {
        if let Some(name) = &spec.checkpoint {
            spec.checkpoint = Some(self.checkpoint_path(name)?);
        }
        // Build outside the registry lock: constructing an evaluator
        // (resume loads, model setup) must not stall the scheduler.
        let id = {
            let mut inner = self.inner.lock().expect("registry poisoned");
            let id = inner.next_id;
            inner.next_id += 1;
            id
        };
        let events = EventBuffer::new();
        let collector = Collector::builder()
            .prefix(format!("job{id}/"))
            .sink(EventSink {
                buffer: Arc::clone(&events),
            })
            .build();
        let cancel = CancelToken::new();
        let driver = build_driver(
            &spec,
            self.engine,
            self.disk.clone(),
            self.disk_error.clone(),
            collector.clone(),
            cancel.clone(),
        )?;
        let cache = driver.cache_stats();
        let job = Job {
            spec,
            state: JobState::Running,
            driver: Some(driver),
            queued: true,
            cancel,
            collector,
            events,
            summary: None,
            error: None,
            evaluations: 0,
            best_objective: None,
            cache,
        };
        let mut inner = self.inner.lock().expect("registry poisoned");
        inner.jobs.insert(id, job);
        inner.queue.push_back(id);
        self.work.notify_one();
        self.server_telemetry.counter("serve/jobs_submitted", 1);
        Ok(id)
    }

    /// Where the checkpoint a job names `name` lives: in the `checkpoints`
    /// directory of the open disk cache, created on first use. A name
    /// with a separator, a `..`, a root or no characters is refused, and
    /// so is any name on a server without an open disk cache.
    fn checkpoint_path(&self, name: &Path) -> Result<PathBuf, String> {
        let text = name.to_string_lossy();
        let mut parts = name.components();
        let bare = !text.contains(['/', '\\'])
            && matches!(
                (parts.next(), parts.next()),
                (Some(Component::Normal(_)), None)
            );
        if !bare {
            return Err(format!(
                "`checkpoint` must be a bare file name (no directory, `..` or root), got {text:?}"
            ));
        }
        let disk = self.disk.as_ref().ok_or(
            "`checkpoint` needs a disk cache: start edse-serve with a working --cache-dir",
        )?;
        let dir = disk.dir().join("checkpoints");
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(dir.join(name))
    }

    /// Pauses a running job: it finishes its in-flight step (if a worker
    /// holds it) and is then not rescheduled. `Err` on unknown id or a
    /// terminal job.
    pub fn pause(&self, id: u64) -> Result<JobState, String> {
        let mut inner = self.inner.lock().expect("registry poisoned");
        let job = inner.jobs.get_mut(&id).ok_or(format!("no job {id}"))?;
        if job.state.terminal() {
            return Err(format!("job {id} is {}", job.state.label()));
        }
        job.state = JobState::Paused;
        inner.queue.retain(|&q| q != id);
        if let Some(job) = inner.jobs.get_mut(&id) {
            job.queued = false;
        }
        Ok(JobState::Paused)
    }

    /// Resumes a paused job. Idempotent on a running job; `Err` on
    /// unknown id or a terminal job.
    pub fn resume(&self, id: u64) -> Result<JobState, String> {
        let mut inner = self.inner.lock().expect("registry poisoned");
        let job = inner.jobs.get_mut(&id).ok_or(format!("no job {id}"))?;
        if job.state.terminal() {
            return Err(format!("job {id} is {}", job.state.label()));
        }
        job.state = JobState::Running;
        if !job.queued && job.driver.is_some() {
            job.queued = true;
            inner.queue.push_back(id);
            self.work.notify_one();
        }
        Ok(JobState::Running)
    }

    /// Requests cancellation: the token fires now, and the job's next
    /// scheduled step observes it, within one evaluation batch. A
    /// checkpointed job needs no save on the way out: its checkpoint was
    /// written at submit and its completed mappings are in the disk cache.
    /// Idempotent; `Err` on unknown id.
    pub fn cancel(&self, id: u64) -> Result<JobState, String> {
        let mut inner = self.inner.lock().expect("registry poisoned");
        let job = inner.jobs.get_mut(&id).ok_or(format!("no job {id}"))?;
        if job.state.terminal() {
            return Ok(job.state);
        }
        job.cancel.cancel();
        // A paused (or momentarily leased) job still needs one more step
        // to observe the token and finalize, so put it back in rotation.
        job.state = JobState::Running;
        if !job.queued && job.driver.is_some() {
            job.queued = true;
            inner.queue.push_back(id);
            self.work.notify_one();
        }
        Ok(JobState::Running)
    }

    /// The status document for `GET /jobs/:id`.
    pub fn status(&self, id: u64) -> Option<Json> {
        let inner = self.inner.lock().expect("registry poisoned");
        let job = inner.jobs.get(&id)?;
        let mut fields = vec![
            ("id", Json::Num(id as f64)),
            ("state", Json::Str(job.state.label().to_string())),
            ("technique", Json::Str(job.spec.technique.clone())),
            ("budget", Json::Num(job.spec.budget as f64)),
            ("evaluations", Json::Num(job.evaluations as f64)),
            (
                "best_objective",
                job.best_objective.map(Json::Num).unwrap_or(Json::Null),
            ),
            (
                "cache",
                Json::obj(vec![
                    (
                        "unique_evaluations",
                        Json::Num(job.cache.unique_evaluations as f64),
                    ),
                    ("disk_attached", Json::Bool(job.cache.disk.is_some())),
                    (
                        "disk_error",
                        job.cache
                            .disk_error
                            .clone()
                            .map(Json::Str)
                            .unwrap_or(Json::Null),
                    ),
                ]),
            ),
        ];
        if let Some(summary) = &job.summary {
            fields.push(("result", summary.clone()));
        }
        if let Some(error) = &job.error {
            fields.push(("error", Json::Str(error.clone())));
        }
        Some(Json::obj(fields))
    }

    /// The listing document for `GET /jobs`.
    pub fn list(&self) -> Json {
        let inner = self.inner.lock().expect("registry poisoned");
        Json::Arr(
            inner
                .jobs
                .iter()
                .map(|(&id, job)| {
                    Json::obj(vec![
                        ("id", Json::Num(id as f64)),
                        ("state", Json::Str(job.state.label().to_string())),
                        ("technique", Json::Str(job.spec.technique.clone())),
                        ("evaluations", Json::Num(job.evaluations as f64)),
                    ])
                })
                .collect(),
        )
    }

    /// The job's event buffer, for the streaming endpoint.
    pub fn events(&self, id: u64) -> Option<Arc<EventBuffer>> {
        let inner = self.inner.lock().expect("registry poisoned");
        inner.jobs.get(&id).map(|job| Arc::clone(&job.events))
    }

    /// Whether the job exists and is in a terminal state (used by
    /// streamers and tests).
    pub fn is_terminal(&self, id: u64) -> Option<bool> {
        let inner = self.inner.lock().expect("registry poisoned");
        inner.jobs.get(&id).map(|job| job.state.terminal())
    }

    /// Merged Prometheus exposition: the server collector plus every
    /// job's `job<id>/`-prefixed collector (terminal jobs included — a
    /// scrape after completion still sees the run's totals), plus the
    /// process-wide executor pool's, space memo's and mapping sweeps'
    /// cumulative counters (all shared by every tenant, so these are
    /// server-level series).
    pub fn prometheus_text(&self) -> String {
        let mut counters = self.server_telemetry.counters();
        let mut histograms: Vec<HistogramSummary> = self.server_telemetry.histograms();
        let inner = self.inner.lock().expect("registry poisoned");
        for job in inner.jobs.values() {
            counters.extend(job.collector.counters());
            histograms.extend(job.collector.histograms());
        }
        drop(inner);
        let pool = edse_executor::Executor::global().counters();
        counters.insert("executor/steals".to_string(), pool.steals);
        counters.insert("executor/spawn_avoided".to_string(), pool.spawn_avoided);
        counters.insert("executor/queue_depth".to_string(), pool.queue_depth);
        counters.insert("executor/idle_ns".to_string(), pool.idle_ns);
        counters.insert("executor/tasks".to_string(), pool.tasks);
        counters.insert("executor/workers_spawned".to_string(), pool.workers_spawned);
        let memo = mapper::space_cache_stats();
        counters.insert("space_memo/hits".to_string(), memo.hits);
        counters.insert("space_memo/misses".to_string(), memo.misses);
        counters.insert("space_memo/inflight_waits".to_string(), memo.inflight_waits);
        counters.insert("space_memo/evictions".to_string(), memo.evictions);
        let sweep = mapper::sweep_stats();
        counters.insert("sweep/sweeps".to_string(), sweep.sweeps);
        counters.insert("sweep/floor_stops".to_string(), sweep.floor_stops);
        counters.insert("sweep/tilings".to_string(), sweep.tilings);
        counters.insert("sweep/tilings_prepared".to_string(), sweep.tilings_prepared);
        export::prometheus_text(&counters, &histograms)
    }

    /// Asks the worker pool to exit once the queue drains of leases; used
    /// by tests and [`crate::server::Server::stop`].
    pub fn shutdown(&self) {
        let mut inner = self.inner.lock().expect("registry poisoned");
        inner.shutdown = true;
        self.work.notify_all();
    }

    /// Blocks until job `id` reaches a terminal state (a test helper;
    /// polls on the event buffer's close signal).
    pub fn wait_terminal(&self, id: u64) -> Option<JobState> {
        let events = self.events(id)?;
        loop {
            let (_, over) = events.wait_from(usize::MAX - 1);
            if over {
                break;
            }
        }
        let inner = self.inner.lock().expect("registry poisoned");
        inner.jobs.get(&id).map(|job| job.state)
    }

    /// Spawns `workers` scheduler threads round-robining over the run
    /// queue. Each turn advances one job by one step.
    pub fn spawn_workers(self: &Arc<Registry>, workers: usize) -> Vec<JoinHandle<()>> {
        (0..workers.max(1))
            .map(|i| {
                let registry = Arc::clone(self);
                std::thread::Builder::new()
                    .name(format!("edse-serve-worker-{i}"))
                    .spawn(move || registry.worker_loop())
                    .expect("spawn worker")
            })
            .collect()
    }

    fn worker_loop(&self) {
        loop {
            // Lease the next runnable job.
            let (id, mut driver) = {
                let mut inner = self.inner.lock().expect("registry poisoned");
                let leased = loop {
                    if inner.shutdown {
                        return;
                    }
                    if let Some(id) = inner.queue.pop_front() {
                        let Some(job) = inner.jobs.get_mut(&id) else {
                            continue;
                        };
                        job.queued = false;
                        if job.state != JobState::Running {
                            continue;
                        }
                        let Some(driver) = job.driver.take() else {
                            continue;
                        };
                        break (id, driver);
                    }
                    inner = self.work.wait(inner).expect("registry poisoned");
                };
                leased
            };

            // Step outside the lock: other workers keep scheduling.
            let stepped = fault::guard(|| {
                let outcome = driver.step();
                (outcome, driver)
            });

            let mut inner = self.inner.lock().expect("registry poisoned");
            let Some(job) = inner.jobs.get_mut(&id) else {
                continue;
            };
            match stepped {
                Ok((outcome, driver)) => {
                    job.evaluations = driver.evaluations();
                    job.best_objective = driver.best_objective();
                    job.cache = driver.cache_stats();
                    match outcome {
                        StepOutcome::Pending => {
                            job.driver = Some(driver);
                            if job.state == JobState::Running && !job.queued {
                                job.queued = true;
                                inner.queue.push_back(id);
                                self.work.notify_one();
                            }
                        }
                        StepOutcome::Done | StepOutcome::Cancelled => {
                            job.state = if outcome == StepOutcome::Done {
                                JobState::Completed
                            } else {
                                JobState::Cancelled
                            };
                            job.summary = Some(driver.finish());
                            job.collector.flush();
                            job.events.close();
                            self.server_telemetry.counter("serve/jobs_finished", 1);
                        }
                    }
                }
                Err(message) => {
                    job.state = JobState::Failed;
                    job.error = Some(message);
                    job.events.close();
                    self.server_telemetry.counter("serve/jobs_failed", 1);
                }
            }
        }
    }
}
