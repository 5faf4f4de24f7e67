//! A process-wide persistent worker pool shared by every parallel site in
//! the workspace: evaluation-engine batches (`edse-core::evaluate`),
//! intra-layer sweep chunks (`mapper::sweep`), and multi-tenant job steps
//! (`edse-serve`). Before this crate each of those sites spawned fresh
//! scoped threads per batch; now they submit index ranges to one pool that
//! is warmed once per process.
//!
//! # Task hierarchy and stealing
//!
//! A [`Executor::run`] call registers a *scope*: `n` tasks addressed by
//! index, a concurrency budget, and a borrowed closure. Scopes form the
//! natural hierarchy job step → layer job → sweep chunk because a pool
//! worker executing a layer job may itself submit a nested scope for its
//! sweep chunks. Pool workers pull **one task at a time** from a
//! round-robin cursor over all live scopes, so an idle worker that
//! finishes its layer job immediately steals sweep chunks from a sibling
//! scope, and two `edse-serve` tenants interleave at chunk granularity
//! rather than whole-step granularity.
//!
//! # Determinism contract
//!
//! The pool decides only *who* computes a task, never what the task
//! computes or how results merge. Callers keep their slot-indexed result
//! buffers and serial in-order merges, and every task index is claimed by
//! exactly one participant (an atomic counter per scope), so results are
//! bit-identical for every pool size and every claim interleaving. Tests
//! can force adversarial claim orders with [`set_claim_perturbation`],
//! which remaps the claim counter through a bijective stride permutation —
//! by the contract above this must never change any result.
//!
//! # Pool lifecycle
//!
//! [`Executor::global`] lazily spawns `default_parallelism() - 1` detached
//! workers (the submitting thread always participates, so a scope with
//! budget *b* runs on at most *b* threads). The pool is never torn down —
//! workers park on a condvar when the injector is empty. Private pools
//! from [`Executor::new`] are for tests and join their workers on drop.
//! A panicking task is caught on the worker, the scope still runs to
//! completion, and the first payload is re-raised on the submitting
//! thread — the same observable behaviour as `std::thread::scope`.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::ThreadId;
use std::time::Instant;

/// The process-wide parallelism default: `EDSE_TEST_THREADS` when set to a
/// positive integer (so CI on a 1-CPU container can keep parallel paths
/// live), otherwise the host's available parallelism. Cached per process.
pub fn default_parallelism() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        env_thread_override().unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
    })
}

/// The `EDSE_TEST_THREADS` override, if set to a positive integer.
fn env_thread_override() -> Option<usize> {
    std::env::var("EDSE_TEST_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
}

/// Cumulative pool counters, readable at any time via [`Executor::counters`].
/// Consumers (the evaluation engine, the serve Prometheus exporter) emit
/// deltas of these as `executor/*` telemetry series.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Tasks executed by a pool worker rather than the submitting thread.
    pub steals: u64,
    /// Threads the replaced scoped-spawn implementation would have spawned.
    pub spawn_avoided: u64,
    /// Sum over submits of how many scopes were already live in the
    /// injector (0 when a tenant has the pool to itself).
    pub queue_depth: u64,
    /// Total nanoseconds pool workers spent parked waiting for work.
    pub idle_ns: u64,
    /// Total tasks executed through the pool (stolen or not).
    pub tasks: u64,
    /// Worker threads spawned over the pool's lifetime. Constant after
    /// warm-up: the zero-spawns-per-batch acceptance check watches this.
    pub workers_spawned: u64,
}

/// Per-`run` statistics, shaped for the evaluation engine's batch records.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    /// Tasks pulled per participant slot: index 0 is the submitting
    /// thread, the rest are pool workers in first-claim order, zero-padded
    /// to exactly `min(budget, n)` entries (the worker count the scoped
    /// implementation used). Sums to `n`.
    pub per_worker: Vec<u64>,
    /// Tasks of this scope executed by pool workers.
    pub steals: u64,
    /// Threads a scoped-spawn implementation would have started here.
    pub spawn_avoided: u64,
    /// Scopes already live in the injector when this one was submitted.
    pub queue_depth: u64,
}

struct PoolCounters {
    steals: AtomicU64,
    spawn_avoided: AtomicU64,
    queue_depth: AtomicU64,
    idle_ns: AtomicU64,
    tasks: AtomicU64,
    workers_spawned: AtomicU64,
}

impl PoolCounters {
    fn new() -> Self {
        PoolCounters {
            steals: AtomicU64::new(0),
            spawn_avoided: AtomicU64::new(0),
            queue_depth: AtomicU64::new(0),
            idle_ns: AtomicU64::new(0),
            tasks: AtomicU64::new(0),
            workers_spawned: AtomicU64::new(0),
        }
    }
}

/// A bijective remap of claim order onto task indices: claim `k` executes
/// task `(offset + k * stride) mod n` with `gcd(stride, n) == 1`. Used
/// only under [`set_claim_perturbation`] to stress the determinism
/// contract; identity when no perturbation is armed.
#[derive(Clone, Copy)]
struct ClaimPerm {
    offset: usize,
    stride: usize,
}

impl ClaimPerm {
    fn derive(seed: u64, n: usize) -> Option<ClaimPerm> {
        if seed == 0 || n < 2 {
            return None;
        }
        let mut stride = (seed as usize % n).max(1);
        while gcd(stride, n) != 1 {
            stride = stride % n + 1;
        }
        Some(ClaimPerm {
            offset: (seed >> 32) as usize % n,
            stride,
        })
    }

    fn apply(&self, k: usize, n: usize) -> usize {
        (self.offset + k.wrapping_mul(self.stride)) % n
    }
}

fn gcd(mut a: usize, mut b: usize) -> usize {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

static CLAIM_PERTURBATION: AtomicU64 = AtomicU64::new(0);

/// Arm (nonzero) or clear (zero) a deterministic claim-order perturbation
/// applied to every scope created afterwards. Results must be bit-identical
/// under any seed — the conformance proptests sample seeds to prove it.
pub fn set_claim_perturbation(seed: u64) {
    CLAIM_PERTURBATION.store(seed, Ordering::Relaxed);
}

/// Tracks which participant pulled how many tasks of one scope.
struct PullLedger {
    submitter: u64,
    workers: Vec<(ThreadId, u64)>,
}

impl PullLedger {
    /// Pulls per participant slot (see [`RunStats::per_worker`]). A worker
    /// slot frees between tasks, so over one scope more distinct workers
    /// can take turns than there are slots; the extra workers' pulls go to
    /// the last slot, so the slots still sum to every task. `slots` is at
    /// least 1: the submitter's.
    fn per_slot(&self, slots: usize) -> Vec<u64> {
        let mut per_slot = vec![0; slots];
        per_slot[0] = self.submitter;
        for (i, (_, pulls)) in self.workers.iter().enumerate() {
            per_slot[(i + 1).min(slots - 1)] += pulls;
        }
        per_slot
    }
}

struct ScopeState {
    /// Borrowed task closure, lifetime-erased. SAFETY: `run` does not
    /// return until every claimed task has finished and no further claim
    /// can succeed, so the pointee outlives every dereference.
    work: *const (dyn Fn(usize) + Sync),
    n: usize,
    /// Pool workers admitted concurrently (the submitter is extra, so the
    /// scope runs on at most `max_workers + 1` threads total).
    max_workers: usize,
    next: AtomicUsize,
    completed: AtomicUsize,
    active: AtomicUsize,
    perm: Option<ClaimPerm>,
    ledger: Mutex<PullLedger>,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    done: Mutex<bool>,
    done_cv: Condvar,
}

// SAFETY: the raw `work` pointer targets a `Sync` closure borrowed for the
// duration of `run`; all other fields are synchronized.
unsafe impl Send for ScopeState {}
unsafe impl Sync for ScopeState {}

impl ScopeState {
    /// Claim the next task index, or `None` once the scope is drained.
    fn claim(&self) -> Option<usize> {
        let k = self.next.fetch_add(1, Ordering::AcqRel);
        if k >= self.n {
            return None;
        }
        Some(match self.perm {
            Some(p) => p.apply(k, self.n),
            None => k,
        })
    }

    fn drained(&self) -> bool {
        self.next.load(Ordering::Acquire) >= self.n
    }

    /// Execute one claimed task, record the pull, and signal completion if
    /// it was the last one. Returns true when this call completed the scope.
    fn execute(&self, index: usize, stolen_by: Option<ThreadId>) -> bool {
        // SAFETY: see the field comment — `run` blocks until completion.
        let work = unsafe { &*self.work };
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| work(index))) {
            let mut slot = self.panic.lock().unwrap();
            if slot.is_none() {
                *slot = Some(payload);
            }
        }
        {
            let mut ledger = self.ledger.lock().unwrap();
            match stolen_by {
                None => ledger.submitter += 1,
                Some(id) => match ledger.workers.iter_mut().find(|(w, _)| *w == id) {
                    Some((_, pulls)) => *pulls += 1,
                    None => ledger.workers.push((id, 1)),
                },
            }
        }
        let finished = self.completed.fetch_add(1, Ordering::AcqRel) + 1;
        if finished == self.n {
            let mut done = self.done.lock().unwrap();
            *done = true;
            self.done_cv.notify_all();
            true
        } else {
            false
        }
    }
}

struct Injector {
    scopes: Vec<Arc<ScopeState>>,
    rotation: usize,
    shutdown: bool,
}

struct Shared {
    injector: Mutex<Injector>,
    work_cv: Condvar,
    counters: PoolCounters,
}

impl Shared {
    /// Pick the next scope with available work under the round-robin
    /// cursor, reserving a worker slot in it. Returns the scope and the
    /// claimed task index.
    fn pick(&self) -> Option<(Arc<ScopeState>, usize)> {
        let mut inj = self.injector.lock().unwrap();
        self.pick_locked(&mut inj)
    }

    fn pick_locked(&self, inj: &mut Injector) -> Option<(Arc<ScopeState>, usize)> {
        let len = inj.scopes.len();
        for probe in 0..len {
            let at = (inj.rotation + probe) % len;
            let scope = &inj.scopes[at];
            if scope.drained() || scope.active.load(Ordering::Acquire) >= scope.max_workers {
                continue;
            }
            scope.active.fetch_add(1, Ordering::AcqRel);
            if let Some(index) = scope.claim() {
                let picked = Arc::clone(scope);
                // Advance past this scope so a sibling scope's tasks
                // interleave at task granularity (tenant fairness).
                inj.rotation = (at + 1) % len;
                return Some((picked, index));
            }
            scope.active.fetch_sub(1, Ordering::AcqRel);
        }
        None
    }

    fn remove(&self, scope: &Arc<ScopeState>) {
        let mut inj = self.injector.lock().unwrap();
        inj.scopes.retain(|s| !Arc::ptr_eq(s, scope));
    }

    fn worker_loop(&self) {
        let me = std::thread::current().id();
        loop {
            // Park until a scope has work (or shutdown), charging the wait
            // to the pool's idle account.
            let mut picked = {
                let mut inj = self.injector.lock().unwrap();
                loop {
                    if inj.shutdown {
                        return;
                    }
                    if let Some(picked) = self.pick_locked(&mut inj) {
                        break picked;
                    }
                    let parked = Instant::now();
                    inj = self.work_cv.wait(inj).unwrap();
                    self.counters
                        .idle_ns
                        .fetch_add(parked.elapsed().as_nanos() as u64, Ordering::Relaxed);
                }
            };
            // Execute tasks back to back, re-picking through the injector
            // after EACH one so a sibling tenant's scope gets its turn
            // before this scope's next chunk (chunk-granularity fairness).
            loop {
                let (scope, index) = picked;
                let completed = scope.execute(index, Some(me));
                self.counters.steals.fetch_add(1, Ordering::Relaxed);
                self.counters.tasks.fetch_add(1, Ordering::Relaxed);
                if completed {
                    self.remove(&scope);
                }
                scope.active.fetch_sub(1, Ordering::AcqRel);
                match self.pick() {
                    Some(next) => picked = next,
                    None => break,
                }
            }
        }
    }
}

/// A persistent pool of detached worker threads fed by a global injector.
pub struct Executor {
    shared: Arc<Shared>,
    workers: usize,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Executor {
    /// A private pool with exactly `workers` pool threads (tests). The
    /// global pool from [`Executor::global`] should be used everywhere else.
    pub fn new(workers: usize) -> Self {
        let shared = Arc::new(Shared {
            injector: Mutex::new(Injector {
                scopes: Vec::new(),
                rotation: 0,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            counters: PoolCounters::new(),
        });
        let handles = (0..workers)
            .map(|i| {
                shared
                    .counters
                    .workers_spawned
                    .fetch_add(1, Ordering::Relaxed);
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("edse-executor-{i}"))
                    .spawn(move || shared.worker_loop())
                    .expect("spawn executor worker")
            })
            .collect();
        Executor {
            shared,
            workers,
            handles: Mutex::new(handles),
        }
    }

    /// The process-wide shared pool: `default_parallelism() - 1` workers
    /// (the submitting thread is the remaining unit of parallelism), never
    /// torn down. On a 1-CPU host without `EDSE_TEST_THREADS` this is an
    /// empty pool and every scope runs inline on its submitter — still
    /// deterministic, still spawn-free.
    pub fn global() -> &'static Executor {
        static GLOBAL: OnceLock<Executor> = OnceLock::new();
        GLOBAL.get_or_init(|| Executor::new(default_parallelism().saturating_sub(1)))
    }

    /// Number of pool worker threads (excluding submitters).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The cumulative pool counters, read now.
    pub fn counters(&self) -> Counters {
        let c = &self.shared.counters;
        Counters {
            steals: c.steals.load(Ordering::Relaxed),
            spawn_avoided: c.spawn_avoided.load(Ordering::Relaxed),
            queue_depth: c.queue_depth.load(Ordering::Relaxed),
            idle_ns: c.idle_ns.load(Ordering::Relaxed),
            tasks: c.tasks.load(Ordering::Relaxed),
            workers_spawned: c.workers_spawned.load(Ordering::Relaxed),
        }
    }

    /// Run `n` index-addressed tasks with at most `budget` concurrent
    /// participants (submitter included), blocking until all complete.
    /// Replaces a `std::thread::scope` that would have spawned
    /// `min(budget, n)` threads. If a task panics the scope still drains
    /// and the first payload is re-raised here, on the submitting thread.
    pub fn run(&self, n: usize, budget: usize, work: &(dyn Fn(usize) + Sync)) -> RunStats {
        let budget = budget.max(1);
        if n == 0 {
            return RunStats::default();
        }
        let would_spawn = budget.min(n);
        self.shared
            .counters
            .spawn_avoided
            .fetch_add(would_spawn as u64, Ordering::Relaxed);
        let seed = CLAIM_PERTURBATION.load(Ordering::Relaxed);
        let scope = Arc::new(ScopeState {
            work: unsafe {
                // SAFETY: lifetime erasure only; `run` blocks until every
                // task has completed, after which no claim can succeed and
                // no worker dereferences the pointer again.
                std::mem::transmute::<*const (dyn Fn(usize) + Sync), *const (dyn Fn(usize) + Sync)>(
                    work as *const _,
                )
            },
            n,
            max_workers: would_spawn.saturating_sub(1),
            next: AtomicUsize::new(0),
            completed: AtomicUsize::new(0),
            active: AtomicUsize::new(0),
            perm: ClaimPerm::derive(seed, n),
            ledger: Mutex::new(PullLedger {
                submitter: 0,
                workers: Vec::new(),
            }),
            panic: Mutex::new(None),
            done: Mutex::new(false),
            done_cv: Condvar::new(),
        });
        let queue_depth = if self.workers > 0 && scope.max_workers > 0 {
            let mut inj = self.shared.injector.lock().unwrap();
            let depth = inj.scopes.len() as u64;
            inj.scopes.push(Arc::clone(&scope));
            drop(inj);
            self.shared.work_cv.notify_all();
            self.shared
                .counters
                .queue_depth
                .fetch_add(depth, Ordering::Relaxed);
            depth
        } else {
            0
        };
        // The submitter participates: drain our own scope's tasks (never a
        // sibling's — wandering onto another tenant's work would let that
        // tenant's panic or latency leak into this caller).
        while let Some(index) = scope.claim() {
            if scope.execute(index, None) {
                self.shared.counters.tasks.fetch_add(1, Ordering::Relaxed);
                self.shared.remove(&scope);
                break;
            }
            self.shared.counters.tasks.fetch_add(1, Ordering::Relaxed);
        }
        {
            let mut done = scope.done.lock().unwrap();
            while !*done {
                done = scope.done_cv.wait(done).unwrap();
            }
        }
        // Defensive: the completing participant already removed the scope.
        self.shared.remove(&scope);
        let ledger = scope.ledger.lock().unwrap();
        let per_worker = ledger.per_slot(would_spawn);
        let steals: u64 = ledger.workers.iter().map(|(_, pulls)| *pulls).sum();
        drop(ledger);
        let panicked = scope.panic.lock().unwrap().take();
        if let Some(payload) = panicked {
            resume_unwind(payload);
        }
        RunStats {
            per_worker,
            steals,
            spawn_avoided: would_spawn as u64,
            queue_depth,
        }
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        {
            let mut inj = self.shared.injector.lock().unwrap();
            inj.shutdown = true;
        }
        self.shared.work_cv.notify_all();
        for handle in self.handles.lock().unwrap().drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn runs_every_task_exactly_once() {
        let pool = Executor::new(2);
        for n in [0usize, 1, 2, 7, 64, 257] {
            let hits: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
            let stats = pool.run(n, 4, &|i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
            assert_eq!(stats.per_worker.iter().sum::<u64>(), n as u64);
            assert_eq!(stats.per_worker.len(), 4usize.min(n));
        }
    }

    #[test]
    fn per_worker_shape_matches_scoped_spawn_convention() {
        let pool = Executor::new(1);
        // budget 4 over 10 tasks: the scoped implementation spawned 4
        // threads, so stats must report 4 slots even though only 2
        // participants (submitter + 1 pool worker) exist here.
        let stats = pool.run(10, 4, &|_| {});
        assert_eq!(stats.per_worker.len(), 4);
        assert_eq!(stats.per_worker.iter().sum::<u64>(), 10);
    }

    #[test]
    fn inline_when_pool_is_empty_or_budget_is_one() {
        let pool = Executor::new(0);
        let stats = pool.run(5, 3, &|_| {});
        assert_eq!(stats.per_worker, vec![5, 0, 0]);
        assert_eq!(stats.steals, 0);
        let pool = Executor::new(2);
        let stats = pool.run(5, 1, &|_| {});
        assert_eq!(stats.per_worker, vec![5]);
        assert_eq!(stats.steals, 0);
    }

    #[test]
    fn panic_propagates_to_the_submitter_after_the_scope_drains() {
        let pool = Executor::new(2);
        let done = AtomicU32::new(0);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            pool.run(8, 4, &|i| {
                if i == 3 {
                    panic!("task 3 exploded");
                }
                done.fetch_add(1, Ordering::Relaxed);
            })
        }));
        assert!(outcome.is_err());
        // Every non-panicking task still ran: the scope drains fully.
        assert_eq!(done.load(Ordering::Relaxed), 7);
        // The pool survives a panicked scope.
        let stats = pool.run(4, 2, &|_| {});
        assert_eq!(stats.per_worker.iter().sum::<u64>(), 4);
    }

    #[test]
    fn per_worker_counts_every_pull_when_workers_take_turns() {
        // Three pool workers took turns in the one worker slot of a
        // budget-2 scope.
        let ids: Vec<ThreadId> = (0..3)
            .map(|_| std::thread::spawn(|| std::thread::current().id()))
            .map(|h| h.join().unwrap())
            .collect();
        let ledger = PullLedger {
            submitter: 0,
            workers: ids.into_iter().zip([1, 2, 3]).collect(),
        };
        assert_eq!(ledger.per_slot(2), vec![0, 6]);
        assert_eq!(ledger.per_slot(4), vec![0, 1, 2, 3]);
        assert_eq!(ledger.per_slot(6), vec![0, 1, 2, 3, 0, 0]);
    }

    #[test]
    fn counters_track_spawns_avoided_and_tasks() {
        let pool = Executor::new(1);
        let before = pool.counters();
        pool.run(6, 3, &|_| {});
        pool.run(2, 8, &|_| {});
        let after = pool.counters();
        assert_eq!(after.spawn_avoided - before.spawn_avoided, 3 + 2);
        assert_eq!(after.tasks - before.tasks, 8);
        assert_eq!(after.workers_spawned, 1);
    }

    #[test]
    fn claim_perturbation_is_a_bijection() {
        for seed in [1u64, 7, 0xdead_beef, u64::MAX] {
            for n in [2usize, 3, 16, 97] {
                let perm = ClaimPerm::derive(seed, n).unwrap();
                let mut seen = vec![false; n];
                for k in 0..n {
                    let idx = perm.apply(k, n);
                    assert!(!seen[idx], "seed {seed} n {n} repeats index {idx}");
                    seen[idx] = true;
                }
            }
        }
    }

    #[test]
    fn perturbed_claims_still_run_every_task_once() {
        let pool = Executor::new(2);
        set_claim_perturbation(0x1234_5678_9abc_def0);
        let hits: Vec<AtomicU32> = (0..33).map(|_| AtomicU32::new(0)).collect();
        pool.run(33, 4, &|i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        set_claim_perturbation(0);
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn two_scopes_share_the_pool_without_starvation() {
        use std::sync::mpsc;
        let pool: &'static Executor = Box::leak(Box::new(Executor::new(2)));
        let (tx, rx) = mpsc::channel();
        let long = std::thread::spawn(move || {
            pool.run(64, 2, &|_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            tx.send(()).unwrap();
        });
        // While the long scope runs, short scopes submitted by another
        // tenant must complete promptly: workers re-pick round-robin per
        // task, so the short scope's chunks interleave with the long one's.
        let mut short_done = 0;
        while rx.try_recv().is_err() {
            pool.run(4, 2, &|_| {});
            short_done += 1;
        }
        long.join().unwrap();
        assert!(short_done > 3, "short tenant starved: {short_done} runs");
    }
}
