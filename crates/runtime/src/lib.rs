//! Persistent crypto runtime for the CryptDB proxy (§3.5.2).
//!
//! The paper's latency optimisations — ciphertext pre-computing and
//! caching — move expensive cryptography *off the query critical path*.
//! PR 1 made the ciphers themselves fast (CRT Paillier, the Montgomery
//! kernel, the OPE batch cache); this crate supplies the runtime
//! machinery that keeps them off the hot path *permanently*:
//!
//! * [`WorkerPool`] — a long-lived, fixed-size worker pool fed by a
//!   **two-lane job queue**: a priority lane ([`WorkerPool::execute_high`],
//!   used by blinding refills) served ahead of the bulk lane
//!   ([`WorkerPool::execute`], used by the serving layer's session
//!   statement chains and cache warming), with an anti-starvation cap so
//!   neither lane can stall the other. Threads are spawned once at proxy
//!   construction and jobs are dispatched with one queue push.
//! * [`BlindingPool`] — the §3.5.2 "ciphertext pre-computing" pool with
//!   low/high-water marks and a *background* refill task. The paper
//!   pre-computes Paillier blinding factors `rⁿ mod n²` so INSERT pays
//!   one multiplication instead of an exponentiation; the seed refilled
//!   synchronously when the pool ran dry, which put the exponentiation
//!   burst right back on the INSERT that drew the last factor. Here a
//!   refill job is scheduled on the [`WorkerPool`]'s priority lane as
//!   soon as the pool drops below its low-water mark, generating in
//!   small batches *outside* the pool lock, so a steady-state INSERT
//!   never generates a blinding factor inline (p99 ≈ p50; the
//!   paillier crate's `crt_gates` test holds that bar). An empty pool
//!   falls back to synchronous generation — counted in
//!   [`BlindingStats::sync_refills`] so tests and benchmarks can assert
//!   the fallback never fires after warmup. The watermarks are *sized*
//!   from observed demand — take-rate EWMA × refill lead time plus a
//!   safety margin, clamped between configured floors and a ceiling —
//!   so a demand surge (e.g. a 10× INSERT step) grows the pool before
//!   it can run dry while calm periods settle back to the floors.
//!
//! The pool item type is generic (`BlindingPool<T>`): production wires
//! it to `Ubig` blinding factors via a generator closure that owns an
//! `Arc<PaillierPrivate>`; tests exercise the watermark/refill protocol
//! with cheap integer payloads.
//!
//! # Shutdown
//!
//! Dropping the last [`WorkerPool`] clone closes the job channel, lets
//! the workers drain what is already queued (e.g. an in-flight refill),
//! and joins every thread — so dropping the proxy never leaks threads or
//! aborts a refill mid-generation.
//!
//! # Deadlock freedom
//!
//! `BlindingPool::take` never blocks on the refill task: it pops under a
//! short lock and, on a dry pool, generates synchronously *outside* the
//! lock. The refill job likewise generates outside the lock and only
//! locks to splice results in. The only blocking wait in the crate,
//! [`BlindingPool::wait_ready`], is a test/bench convenience and is
//! never called from pool workers.
//!
//! Callers keep one rule: **no pool job blocks on another pool job.** A
//! job that joined a [`TaskHandle`] could wait on work queued behind
//! itself with every worker equally stuck; the proxy therefore decrypts
//! a result set on the thread that runs its statement.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Locks a mutex, ignoring poisoning (a panicked job must not wedge the
/// runtime — same semantics as `parking_lot`).
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

// ---------------------------------------------------------------------
// Worker pool
// ---------------------------------------------------------------------

/// Consecutive priority-lane pops a worker will serve while bulk work is
/// waiting before it takes one bulk job — the priority lane cannot
/// starve the bulk lane.
const HIGH_STREAK_MAX: usize = 8;

/// The two job lanes plus shutdown state, under one mutex.
struct JobQueues {
    /// Priority lane: blinding-pool refills and other latency-critical
    /// maintenance. Popped ahead of `bulk`.
    high: VecDeque<Job>,
    /// Bulk lane: session statement chains, cache warming — throughput
    /// work.
    bulk: VecDeque<Job>,
    /// Consecutive high-lane pops while bulk was non-empty.
    high_streak: usize,
    closed: bool,
}

impl JobQueues {
    /// Two-queue pop policy: priority first, but after
    /// [`HIGH_STREAK_MAX`] consecutive priority jobs with bulk work
    /// waiting, one bulk job is served (no starvation either way).
    fn pop(&mut self) -> Option<Job> {
        let serve_bulk =
            self.high.is_empty() || (!self.bulk.is_empty() && self.high_streak >= HIGH_STREAK_MAX);
        if serve_bulk {
            if let Some(job) = self.bulk.pop_front() {
                self.high_streak = 0;
                return Some(job);
            }
        }
        let job = self.high.pop_front();
        if job.is_some() {
            self.high_streak = if self.bulk.is_empty() {
                0
            } else {
                self.high_streak + 1
            };
        }
        job
    }
}

/// Queue state shared with the workers — kept separate from
/// [`PoolInner`] so worker threads do not keep the pool alive (its
/// `Drop` is what closes the queues and joins them).
struct PoolShared {
    queues: Mutex<JobQueues>,
    cond: Condvar,
}

struct PoolInner {
    shared: Arc<PoolShared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    threads: usize,
}

impl Drop for PoolInner {
    fn drop(&mut self) {
        // Mark closed and wake every worker; each drains what is already
        // queued, then exits, and we join them all.
        lock(&self.shared.queues).closed = true;
        self.shared.cond.notify_all();
        let me = std::thread::current().id();
        for h in lock(&self.workers).drain(..) {
            if h.thread().id() == me {
                // The last pool reference was dropped from *inside* a
                // pool job (e.g. a serving-layer session chain whose
                // final job outlived the caller's handle). A thread
                // cannot join itself — detach this worker's handle; the
                // worker exits on its own as soon as it observes the
                // closed queue.
                drop(h);
            } else {
                let _ = h.join();
            }
        }
    }
}

/// A long-lived, fixed-size worker pool fed by a two-lane job queue: a
/// priority lane for latency-critical maintenance (blinding refills —
/// [`WorkerPool::execute_high`]) that is served ahead of the bulk lane
/// (session statement chains — [`WorkerPool::execute`]), with an
/// anti-starvation cap so heavy refill traffic cannot stall bulk work
/// indefinitely.
///
/// Cloning is cheap (an `Arc` bump); the threads are joined when the
/// last clone is dropped. Jobs that panic are contained per-job — the
/// worker survives and keeps serving the queue.
#[derive(Clone)]
pub struct WorkerPool {
    inner: Arc<PoolInner>,
}

impl WorkerPool {
    /// Spawns a pool with `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(PoolShared {
            queues: Mutex::new(JobQueues {
                high: VecDeque::new(),
                bulk: VecDeque::new(),
                high_streak: 0,
                closed: false,
            }),
            cond: Condvar::new(),
        });
        let workers = (0..threads)
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("cryptdb-runtime-{i}"))
                    .spawn(move || loop {
                        let job = {
                            let mut q = lock(&shared.queues);
                            loop {
                                if let Some(job) = q.pop() {
                                    break Some(job);
                                }
                                if q.closed {
                                    break None;
                                }
                                q = shared.cond.wait(q).unwrap_or_else(|e| e.into_inner());
                            }
                        };
                        match job {
                            Some(job) => {
                                // A panicking job must not shrink the pool;
                                // waiters observe it as a dropped channel.
                                let _ = catch_unwind(AssertUnwindSafe(job));
                            }
                            None => break, // Pool dropped and queues drained.
                        }
                    })
                    .expect("spawn runtime worker")
            })
            .collect();
        WorkerPool {
            inner: Arc::new(PoolInner {
                shared,
                workers: Mutex::new(workers),
                threads,
            }),
        }
    }

    /// A pool sized to the machine (`available_parallelism`, capped at
    /// `cap` to avoid oversubscribing small proxies).
    pub fn with_default_size(cap: usize) -> Self {
        let n = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        WorkerPool::new(n.min(cap.max(1)))
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.inner.threads
    }

    /// Enqueues a fire-and-forget job on the bulk lane.
    pub fn execute(&self, job: impl FnOnce() + Send + 'static) {
        let mut q = lock(&self.inner.shared.queues);
        if !q.closed {
            q.bulk.push_back(Box::new(job));
            drop(q);
            self.inner.shared.cond.notify_one();
        }
    }

    /// Enqueues a fire-and-forget job on the priority lane: it is popped
    /// ahead of any queued bulk work (subject to the anti-starvation
    /// cap). Blinding-pool refills use this so queued session statements
    /// cannot delay the refill that keeps INSERTs off the
    /// synchronous fallback.
    pub fn execute_high(&self, job: impl FnOnce() + Send + 'static) {
        let mut q = lock(&self.inner.shared.queues);
        if !q.closed {
            q.high.push_back(Box::new(job));
            drop(q);
            self.inner.shared.cond.notify_one();
        }
    }

    /// Enqueues a bulk-lane job that may be abandoned before it starts.
    ///
    /// When the job is popped, the token is checked once: if it was
    /// cancelled in the meantime the job closure is dropped unrun and
    /// `on_abandon` runs instead (on the worker thread). `on_abandon`
    /// must be cheap and must restore whatever invariant the job was
    /// going to maintain (e.g. "this session's chain job is in flight").
    /// Jobs that have already started are never interrupted — this is
    /// queue-time cancellation only.
    pub fn execute_cancellable(
        &self,
        token: &CancelToken,
        job: impl FnOnce() + Send + 'static,
        on_abandon: impl FnOnce() + Send + 'static,
    ) {
        let token = token.clone();
        self.execute(move || {
            if token.is_cancelled() {
                on_abandon();
            } else {
                job();
            }
        });
    }

    /// Enqueues a job and returns a handle to its result.
    pub fn submit<T: Send + 'static>(
        &self,
        f: impl FnOnce() -> T + Send + 'static,
    ) -> TaskHandle<T> {
        let (tx, rx) = channel();
        self.execute(move || {
            let _ = tx.send(f());
        });
        TaskHandle { rx }
    }
}

/// Cooperative cancellation flag for [`WorkerPool::execute_cancellable`].
///
/// Cloning shares the flag; once cancelled it stays cancelled. The
/// serving layer hands one token per session to the pool so that a
/// closed session's still-queued chain jobs are abandoned at pop time
/// instead of burning a worker slot locking a dead queue.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    cancelled: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Marks the token cancelled (idempotent, lock-free).
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Release);
    }

    /// Whether [`CancelToken::cancel`] has been called on any clone.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Acquire)
    }
}

/// Handle to a [`WorkerPool::submit`] result.
pub struct TaskHandle<T> {
    rx: Receiver<T>,
}

impl<T> TaskHandle<T> {
    /// Blocks until the job finishes.
    ///
    /// # Panics
    ///
    /// Panics if the job panicked (its result sender was dropped).
    pub fn join(self) -> T {
        self.rx.recv().expect("runtime worker panicked")
    }
}

// ---------------------------------------------------------------------
// Blinding pool with background refills
// ---------------------------------------------------------------------

/// How many items a refill job generates per lock-splice, so takers see
/// factors landing incrementally instead of one big batch at the end.
const REFILL_CHUNK: usize = 16;
/// Synchronous fallback batch when the pool is caught empty (matches the
/// seed's dry-pool refill batch).
const SYNC_BATCH: usize = 8;

/// Extra pooled items the watermark sizing keeps beyond the projected
/// drain (absorbs scheduling jitter and the first-chunk generation
/// latency of a refill).
const HEADROOM: usize = 8;

/// Floor/ceiling clamps for demand-sized watermarks
/// ([`BlindingPool::new`]): `ceiling` bounds how far demand can grow
/// them.
struct Watermarks {
    floor_low: usize,
    floor_high: usize,
    ceiling: usize,
}

struct BlindState<T> {
    items: VecDeque<T>,
    /// Refill-to level; raised by [`BlindingPool::warm`] and resized
    /// from the demand estimate.
    target: usize,
    /// Refill trigger level, resized from the demand estimate.
    low_water: usize,
    /// `warm()`-requested level: watermark sizing never drops `target`
    /// below this.
    warm_floor: usize,
    refilling: bool,
    sync_refills: u64,
    async_refills: u64,
    // Demand telemetry.
    last_take: Option<Instant>,
    /// EWMA of take inter-arrival time.
    interarrival_ns: Option<f64>,
    /// When the in-flight refill was scheduled.
    refill_started: Option<Instant>,
    /// EWMA of refill lead time (schedule → pool back at target).
    lead_ns: Option<f64>,
}

impl<T> BlindState<T> {
    /// Watermark sizing: the pool must carry enough items to
    /// absorb the takes that arrive while a refill is in flight —
    /// take-rate EWMA × refill lead time, doubled for safety, plus fixed
    /// headroom — clamped to the configured floor/ceiling.
    fn resize_watermarks(&mut self, cfg: &Watermarks) {
        let (Some(ia), Some(lead)) = (self.interarrival_ns, self.lead_ns) else {
            return;
        };
        let expected = (lead / ia.max(1.0)).ceil() as usize;
        let low = (2 * expected + HEADROOM).clamp(cfg.floor_low, cfg.ceiling);
        let target = (2 * low)
            .max(cfg.floor_high)
            .min(cfg.ceiling)
            .max(self.warm_floor);
        self.low_water = low.min(target);
        self.target = target;
    }

    /// Records a take arrival for the demand EWMA.
    fn note_take(&mut self) {
        let now = Instant::now();
        if let Some(prev) = self.last_take {
            let dt = now.duration_since(prev).as_nanos() as f64;
            self.interarrival_ns = Some(match self.interarrival_ns {
                Some(e) => 0.75 * e + 0.25 * dt,
                None => dt,
            });
        }
        self.last_take = Some(now);
    }

    /// Splices `batch` in up to the current target and drops the rest.
    /// A refill sizes its batch before generating outside the lock, so a
    /// dry taker's synchronous batch can land in between; re-reading the
    /// room here keeps the pool at or below its target.
    fn splice(&mut self, batch: Vec<T>) {
        let room = self.target.saturating_sub(self.items.len());
        self.items.extend(batch.into_iter().take(room));
    }
}

struct BlindShared<T> {
    state: Mutex<BlindState<T>>,
    /// Signalled whenever a refill job makes progress or finishes.
    cond: Condvar,
    /// Generates `n` fresh items. Runs outside the state lock, possibly
    /// concurrently from several threads.
    generate: Box<dyn Fn(usize) -> Vec<T> + Send + Sync>,
    watermarks: Watermarks,
}

/// Watermark-managed pre-compute pool (§3.5.2 ciphertext pre-computing).
///
/// `take` pops under a short lock; dropping below the low-water mark
/// schedules a background refill (to the high-water target) on the
/// [`WorkerPool`]. Only a fully dry pool generates inline, and that
/// event is counted so callers can verify it never happens in steady
/// state.
pub struct BlindingPool<T: Send + 'static> {
    shared: Arc<BlindShared<T>>,
    pool: WorkerPool,
}

/// Observable [`BlindingPool`] counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlindingStats {
    /// Pooled items right now.
    pub len: usize,
    /// Current refill-to level.
    pub target: usize,
    /// Current refill trigger level (sized from demand).
    pub low_water: usize,
    /// Times a taker found the pool dry and generated inline.
    pub sync_refills: u64,
    /// Background refill jobs scheduled.
    pub async_refills: u64,
}

impl<T: Send + 'static> BlindingPool<T> {
    /// Creates a pool over `worker_pool` whose refill trigger and target
    /// are sized from the observed take-rate EWMA × refill lead time
    /// plus a safety margin, clamped between the floors (`floor_low` /
    /// `floor_high`, the levels before any demand is observed) and
    /// `ceiling`. A demand surge grows the pool toward the ceiling before
    /// it can run dry; when demand subsides the watermarks settle back to
    /// the floors. `ceiling == floor_high` pins the target at
    /// `floor_high` (or a higher [`Self::warm`] level).
    ///
    /// `generate(n)` must return `n` fresh items; it is called outside
    /// every lock and must be safe to run concurrently.
    ///
    /// # Panics
    ///
    /// Panics unless `floor_low ≤ floor_high ≤ ceiling`.
    pub fn new(
        worker_pool: &WorkerPool,
        floor_low: usize,
        floor_high: usize,
        ceiling: usize,
        generate: impl Fn(usize) -> Vec<T> + Send + Sync + 'static,
    ) -> Self {
        assert!(
            floor_low <= floor_high && floor_high <= ceiling,
            "watermarks need floor_low <= floor_high <= ceiling"
        );
        BlindingPool {
            shared: Arc::new(BlindShared {
                state: Mutex::new(BlindState {
                    items: VecDeque::new(),
                    target: floor_high,
                    low_water: floor_low,
                    warm_floor: 0,
                    refilling: false,
                    sync_refills: 0,
                    async_refills: 0,
                    last_take: None,
                    interarrival_ns: None,
                    refill_started: None,
                    lead_ns: None,
                }),
                cond: Condvar::new(),
                generate: Box::new(generate),
                watermarks: Watermarks {
                    floor_low,
                    floor_high,
                    ceiling,
                },
            }),
            pool: worker_pool.clone(),
        }
    }

    /// Pops one item. Schedules a background refill when the pool drops
    /// below the low-water mark; generates inline (outside the lock)
    /// only when the pool is completely dry.
    pub fn take(&self) -> T {
        let (item, schedule) = {
            let mut st = lock(&self.shared.state);
            st.note_take();
            st.resize_watermarks(&self.shared.watermarks);
            let item = st.items.pop_front();
            let schedule =
                !st.refilling && st.target > 0 && (st.items.len() < st.low_water || item.is_none());
            if schedule {
                st.refilling = true;
                st.async_refills += 1;
                st.refill_started = Some(Instant::now());
            }
            (item, schedule)
        };
        if schedule {
            self.schedule_refill();
        }
        match item {
            Some(t) => t,
            None => {
                // Dry pool: synchronous fallback so the caller always
                // makes progress, even if every worker is busy.
                let mut batch = (self.shared.generate)(SYNC_BATCH.max(1));
                let first = batch.pop().expect("generator returned no items");
                let mut st = lock(&self.shared.state);
                st.sync_refills += 1;
                st.splice(batch);
                first
            }
        }
    }

    fn schedule_refill(&self) {
        let shared = self.shared.clone();
        // Priority lane: session statements queued on the bulk lane
        // must not delay the refill that keeps INSERT-side
        // takers off the synchronous fallback.
        self.pool.execute_high(move || loop {
            // The deficit check and the `refilling` hand-off must share
            // one lock hold: takers that drain the pool between a
            // deficit-is-zero read and a separate flag-clearing section
            // would see `refilling == true`, skip scheduling, and leave
            // a below-low-water pool with no refill in flight.
            let deficit = {
                let mut st = lock(&shared.state);
                let mut d = st.target.saturating_sub(st.items.len());
                if d == 0 {
                    // Refill complete: fold the observed lead time into
                    // the EWMA and re-derive the watermarks — if demand
                    // grew mid-refill, the resize can raise the target,
                    // in which case this same job keeps generating.
                    if let Some(start) = st.refill_started.take() {
                        let lead = start.elapsed().as_nanos() as f64;
                        st.lead_ns = Some(match st.lead_ns {
                            Some(e) => 0.7 * e + 0.3 * lead,
                            None => lead,
                        });
                        st.resize_watermarks(&shared.watermarks);
                    }
                    d = st.target.saturating_sub(st.items.len());
                    if d == 0 {
                        st.refilling = false;
                        shared.cond.notify_all();
                        return;
                    }
                }
                d
            };
            // Generate outside the lock, splice in small batches so
            // concurrent takers see progress.
            let batch = (shared.generate)(deficit.min(REFILL_CHUNK));
            lock(&shared.state).splice(batch);
            shared.cond.notify_all();
        });
    }

    /// Synchronously fills the pool to at least `n` items and raises the
    /// refill target to `max(target, n)` (the proxy's `precompute_hom`).
    /// The demand-derived target never drops below `n` afterwards.
    pub fn warm(&self, n: usize) {
        let deficit = {
            let mut st = lock(&self.shared.state);
            st.target = st.target.max(n);
            st.warm_floor = st.warm_floor.max(n);
            n.saturating_sub(st.items.len())
        };
        if deficit > 0 {
            let batch = (self.shared.generate)(deficit);
            lock(&self.shared.state).splice(batch);
            self.shared.cond.notify_all();
        }
    }

    /// Pooled item count.
    pub fn len(&self) -> usize {
        lock(&self.shared.state).items.len()
    }

    /// True when no items are pooled.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counter snapshot.
    pub fn stats(&self) -> BlindingStats {
        let st = lock(&self.shared.state);
        BlindingStats {
            len: st.items.len(),
            target: st.target,
            low_water: st.low_water,
            sync_refills: st.sync_refills,
            async_refills: st.async_refills,
        }
    }

    /// Blocks until no refill job is in flight (test/bench convenience;
    /// never called from pool workers).
    pub fn wait_ready(&self) {
        let mut st = lock(&self.shared.state);
        while st.refilling {
            st = self.shared.cond.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    #[test]
    fn pool_runs_jobs_and_returns_results() {
        let pool = WorkerPool::new(4);
        let h = pool.submit(|| 6 * 7);
        assert_eq!(h.join(), 42);
    }

    #[test]
    #[should_panic(expected = "runtime worker panicked")]
    fn join_surfaces_worker_panics() {
        let pool = WorkerPool::new(1);
        pool.submit(|| panic!("job panic")).join();
    }

    #[test]
    fn panicking_job_does_not_kill_the_pool() {
        let pool = WorkerPool::new(1);
        pool.execute(|| panic!("job panic"));
        // The single worker must survive to run this:
        let h = pool.submit(|| 7);
        assert_eq!(h.join(), 7);
    }

    #[test]
    fn cancellable_job_runs_when_token_is_live() {
        let pool = WorkerPool::new(1);
        let token = CancelToken::new();
        let ran = Arc::new(AtomicUsize::new(0));
        let abandoned = Arc::new(AtomicUsize::new(0));
        let (r, a) = (ran.clone(), abandoned.clone());
        pool.execute_cancellable(
            &token,
            move || {
                r.fetch_add(1, Ordering::SeqCst);
            },
            move || {
                a.fetch_add(1, Ordering::SeqCst);
            },
        );
        drop(pool);
        assert_eq!(ran.load(Ordering::SeqCst), 1);
        assert_eq!(abandoned.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn cancelled_jobs_are_abandoned_at_pop_time() {
        let pool = WorkerPool::new(1);
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        // Park the single worker so the cancellable jobs stay queued.
        {
            let g = gate.clone();
            pool.execute(move || {
                let (lock, cv) = &*g;
                let mut open = lock.lock().unwrap();
                while !*open {
                    open = cv.wait(open).unwrap();
                }
            });
        }
        let token = CancelToken::new();
        let ran = Arc::new(AtomicUsize::new(0));
        let abandoned = Arc::new(AtomicUsize::new(0));
        for _ in 0..8 {
            let (r, a) = (ran.clone(), abandoned.clone());
            pool.execute_cancellable(
                &token,
                move || {
                    r.fetch_add(1, Ordering::SeqCst);
                },
                move || {
                    a.fetch_add(1, Ordering::SeqCst);
                },
            );
        }
        token.cancel();
        assert!(token.is_cancelled());
        {
            let (lock, cv) = &*gate;
            *lock.lock().unwrap() = true;
            cv.notify_all();
        }
        drop(pool);
        assert_eq!(ran.load(Ordering::SeqCst), 0, "cancelled jobs must not run");
        assert_eq!(abandoned.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn drop_joins_all_workers() {
        let counter = Arc::new(AtomicUsize::new(0));
        {
            let pool = WorkerPool::new(2);
            for _ in 0..64 {
                let c = counter.clone();
                pool.execute(move || {
                    std::thread::sleep(Duration::from_micros(200));
                    c.fetch_add(1, Ordering::SeqCst);
                });
            }
            // Dropping must drain the queue and join.
        }
        assert_eq!(counter.load(Ordering::SeqCst), 64);
    }

    fn counting_pool(
        workers: &WorkerPool,
        low: usize,
        high: usize,
    ) -> (BlindingPool<u64>, Arc<AtomicUsize>) {
        let generated = Arc::new(AtomicUsize::new(0));
        let g = generated.clone();
        let bp = BlindingPool::new(workers, low, high, high, move |n| {
            // Simulate a multi-ms exponentiation batch.
            std::thread::sleep(Duration::from_micros(50 * n as u64));
            (0..n)
                .map(|_| g.fetch_add(1, Ordering::SeqCst) as u64)
                .collect()
        });
        (bp, generated)
    }

    #[test]
    fn warm_fills_to_level() {
        let workers = WorkerPool::new(2);
        let (bp, _) = counting_pool(&workers, 4, 16);
        bp.warm(32);
        assert_eq!(bp.len(), 32);
        assert_eq!(bp.stats().target, 32);
        assert_eq!(bp.stats().sync_refills, 0);
    }

    #[test]
    fn refill_triggers_below_low_water_not_at_empty() {
        let workers = WorkerPool::new(2);
        let (bp, _) = counting_pool(&workers, 8, 32);
        bp.warm(32);
        // Draw down to just below the low-water mark.
        for _ in 0..25 {
            bp.take();
        }
        bp.wait_ready();
        let stats = bp.stats();
        assert!(stats.async_refills >= 1, "refill must have been scheduled");
        assert_eq!(stats.sync_refills, 0, "pool never ran dry");
        assert_eq!(stats.len, 32, "refilled back to target");
    }

    #[test]
    fn burst_of_takers_never_sees_dry_pool_after_warmup() {
        let workers = WorkerPool::new(4);
        let (bp, _) = counting_pool(&workers, 32, 128);
        let bp = Arc::new(bp);
        bp.warm(128);
        // 4 threads × 25 takes = 100 < 128 warmed: even with zero refill
        // progress nobody can observe an empty pool — but the drawdown
        // does cross the low-water mark (28 < 32), so a background
        // refill must restore the target.
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let bp = bp.clone();
                std::thread::spawn(move || {
                    for _ in 0..25 {
                        bp.take();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        bp.wait_ready();
        let stats = bp.stats();
        assert_eq!(stats.sync_refills, 0, "warmup must absorb the burst");
        assert_eq!(stats.len, 128, "background refill restored the target");
    }

    #[test]
    fn dry_pool_falls_back_synchronously() {
        let workers = WorkerPool::new(1);
        let (bp, _) = counting_pool(&workers, 2, 8);
        // Never warmed: the very first take finds it dry.
        bp.take();
        let stats = bp.stats();
        assert!(stats.sync_refills >= 1);
        bp.wait_ready();
        // The sync fallback batch and the racing background refill both
        // splice only up to the target, and the refill tops up the rest.
        assert_eq!(bp.len(), bp.stats().target);
    }

    #[test]
    fn refill_landing_after_sync_fallback_stays_within_target() {
        // The refill job sizes its batch from the empty pool, then a dry
        // taker's synchronous batch lands before the refill's does. The
        // generator forces that order: the refill (on the worker) signals
        // that it has sized its batch and waits for the gate; the taker's
        // fallback (on this thread) waits for that signal.
        let workers = WorkerPool::new(1);
        let taker = std::thread::current().id();
        let (sized_tx, sized_rx) = std::sync::mpsc::channel::<()>();
        let (gate_tx, gate_rx) = std::sync::mpsc::channel::<()>();
        let (sized_rx, gate_rx) = (Mutex::new(sized_rx), Mutex::new(gate_rx));
        let bp = BlindingPool::new(&workers, 2, 8, 8, move |n| {
            if std::thread::current().id() == taker {
                lock(&sized_rx).recv().expect("refill sized its batch");
            } else {
                let _ = sized_tx.send(());
                let _ = lock(&gate_rx).recv();
            }
            (0..n as u64).collect()
        });
        bp.take();
        assert_eq!(bp.stats().sync_refills, 1);
        gate_tx.send(()).unwrap();
        bp.wait_ready();
        assert!(bp.len() <= bp.stats().target);
    }

    #[test]
    fn no_deadlock_between_takers_and_refill() {
        // Hammer take() from many threads against a 1-worker pool so the
        // refill job contends with queued work; must terminate.
        let workers = WorkerPool::new(1);
        let (bp, _) = counting_pool(&workers, 4, 8);
        let bp = Arc::new(bp);
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let bp = bp.clone();
                std::thread::spawn(move || {
                    for _ in 0..16 {
                        bp.take();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        bp.wait_ready();
        assert!(bp.len() <= bp.stats().target);
    }

    /// Occupies `pool`'s (single) worker with a job that blocks until
    /// the returned sender fires, and — crucially — does not return
    /// until the worker has actually *started* the job: on a single
    /// hardware thread the worker may otherwise not be scheduled until
    /// after the test has queued everything, leaving the gate job in
    /// the bulk queue where it skews pop-order assertions.
    fn gate_worker(pool: &WorkerPool) -> std::sync::mpsc::Sender<()> {
        let (gate_tx, gate_rx) = std::sync::mpsc::channel::<()>();
        let (started_tx, started_rx) = std::sync::mpsc::channel::<()>();
        pool.execute(move || {
            started_tx.send(()).expect("test alive");
            let _ = gate_rx.recv();
        });
        started_rx.recv().expect("worker picked up the gate job");
        gate_tx
    }

    #[test]
    fn priority_refill_overtakes_bulk_batch() {
        // A refill enqueued *behind* a backlog of bulk work (queued
        // session statements) must complete first: with the single
        // worker blocked on a gate job, queue 64 bulk jobs, then one
        // priority job, then open the gate.
        let pool = WorkerPool::new(1);
        let gate_tx = gate_worker(&pool);
        let order = Arc::new(Mutex::new(Vec::<&'static str>::new()));
        for _ in 0..64 {
            let order = order.clone();
            pool.execute(move || lock(&order).push("bulk"));
        }
        {
            let order = order.clone();
            pool.execute_high(move || lock(&order).push("refill"));
        }
        gate_tx.send(()).unwrap();
        // Joining a sentinel submitted *after* everything guarantees the
        // queues drained (the sentinel is bulk, so it runs last).
        pool.submit(|| ()).join();
        let order = lock(&order);
        assert_eq!(order.len(), 65);
        assert_eq!(order[0], "refill", "priority job must run first");
    }

    #[test]
    fn bulk_lane_is_not_starved_by_priority_traffic() {
        let pool = WorkerPool::new(1);
        let gate_tx = gate_worker(&pool);
        let order = Arc::new(Mutex::new(Vec::<&'static str>::new()));
        // 5 bulk jobs queued first, then 40 priority jobs: the pop
        // policy must interleave bulk despite the priority backlog.
        for _ in 0..5 {
            let order = order.clone();
            pool.execute(move || lock(&order).push("bulk"));
        }
        for _ in 0..40 {
            let order = order.clone();
            pool.execute_high(move || lock(&order).push("high"));
        }
        gate_tx.send(()).unwrap();
        pool.submit(|| ()).join();
        let order = lock(&order);
        let first_bulk = order.iter().position(|s| *s == "bulk").unwrap();
        assert!(
            first_bulk <= HIGH_STREAK_MAX,
            "first bulk job ran at position {first_bulk}, starved past the streak cap"
        );
        assert_eq!(order.iter().filter(|s| **s == "bulk").count(), 5);
    }

    #[test]
    fn adaptive_pool_absorbs_demand_step_without_going_dry() {
        // Watermarks sized from take-rate EWMA × refill lead time: a 10×
        // demand step must never hit the dry-pool synchronous fallback,
        // and the target must grow from its floor to absorb the new rate.
        let workers = WorkerPool::new(2);
        let bp = BlindingPool::new(&workers, 4, 32, 1024, move |n| {
            // ~20 µs per item, far faster than either take rate below.
            std::thread::sleep(Duration::from_micros(20 * n as u64));
            (0..n as u64).collect::<Vec<u64>>()
        });
        // Warm well past the step's danger window: at the fast rate below
        // the warmed pool alone holds ~16 ms of demand, so a multi-ms CI
        // scheduler stall cannot drain it before the refill lands.
        bp.warm(32);
        // Phase A: slow demand (~5 ms between takes).
        for _ in 0..30 {
            bp.take();
            std::thread::sleep(Duration::from_millis(5));
        }
        let calm = bp.stats();
        assert_eq!(calm.sync_refills, 0, "slow phase must never run dry");
        // Phase B: 10× step (~500 µs between takes).
        for _ in 0..300 {
            bp.take();
            std::thread::sleep(Duration::from_micros(500));
        }
        let surged = bp.stats();
        assert_eq!(
            surged.sync_refills, 0,
            "10× demand step hit the dry-pool fallback (target {}, low {})",
            surged.target, surged.low_water
        );
        assert!(
            surged.target >= calm.target,
            "target must not shrink under a demand surge ({} -> {})",
            calm.target,
            surged.target
        );
        assert!(surged.target <= 1024, "ceiling must bound the target");
        assert!(surged.low_water >= 4, "floor must bound the trigger");
        bp.wait_ready();
    }

    #[test]
    fn adaptive_watermarks_respect_warm_floor() {
        let workers = WorkerPool::new(1);
        let bp = BlindingPool::new(&workers, 2, 8, 256, |n| (0..n as u64).collect());
        bp.warm(64);
        // Take a few (fast arrivals) so the resize logic runs.
        for _ in 0..16 {
            bp.take();
        }
        bp.wait_ready();
        assert!(
            bp.stats().target >= 64,
            "warm(64) floor violated: target {}",
            bp.stats().target
        );
    }

    #[test]
    fn pool_drains_and_shuts_down_on_drop() {
        let workers = WorkerPool::new(2);
        let (bp, generated) = counting_pool(&workers, 4, 16);
        bp.warm(16);
        for _ in 0..14 {
            bp.take(); // Leaves a refill in flight.
        }
        drop(bp);
        drop(workers); // Joins workers; the queued refill ran or was cut short.
        assert!(generated.load(Ordering::SeqCst) >= 16);
    }
}
