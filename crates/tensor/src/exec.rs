//! Pluggable execution backends for the workspace's parallel paths.
//!
//! Every compute layer in the MERCURY reproduction — the blocked GEMMs in
//! [`ops`](crate::ops), the per-channel conv sharding and banked-probe
//! fan-out in `mercury-core`, and the per-layer model simulator in
//! `mercury-bench` — schedules its independent work items through one
//! [`Executor`]. Two backends exist:
//!
//! * [`ExecutorKind::Serial`] — every item runs on the calling thread in
//!   index order. This is the *reference semantics*: all documented
//!   behaviour and all determinism suites are defined against it.
//! * [`ExecutorKind::Threaded`] — items are distributed over a
//!   **persistent worker pool**: the worker threads are created once
//!   (lazily, at the first dispatched region) and parked on a condvar
//!   between parallel regions, so a region dispatch costs a wakeup
//!   (~µs), not a `thread::spawn` (~tens of µs). Callers only hand the
//!   executor work whose results are reduced in a deterministic order,
//!   so the threaded backend is **bit-identical** to serial for every
//!   engine, session, and simulator path (pinned by
//!   `tests/parallel_determinism.rs`).
//!
//! The backend is chosen per [`MercuryConfig`] via
//! `MercuryConfig::builder().executor(..)`; the `MERCURY_EXECUTOR`
//! environment variable (`serial`, `threaded`, `threaded:<n>`, or a bare
//! thread count) overrides the default so whole test suites can be
//! re-run on either backend without source changes. An *invalid*
//! `MERCURY_EXECUTOR` value fails loudly (listing the accepted forms)
//! instead of silently falling back to the default.
//!
//! # Pool lifecycle
//!
//! A threaded [`Executor`] owns its pool behind an [`Arc`]: **cloning
//! the executor shares the pool** rather than spawning a second one,
//! which is how long-lived owners (`MercurySession`, the model-sim
//! runner) hand one pool to every engine and layer they drive. The
//! workers exit and are joined when the last clone drops.
//!
//! Three safeguards keep the pool cheap and deadlock-free:
//!
//! * **Inline short-circuit** — regions whose estimated total work is
//!   below the executor's tuned dispatch threshold
//!   ([`DispatchTuning::dispatch_min_work`], seeded by
//!   [`POOL_DISPATCH_MIN_WORK`] and host-calibrated via
//!   `MERCURY_TUNE_PROFILE` — see [`crate::tune`]), or with fewer than
//!   two items, run inline on the calling thread without waking any
//!   worker.
//! * **Nested regions** — a thread that is already executing region
//!   items (a pool worker, or the dispatching caller itself) runs any
//!   inner parallel region inline instead of re-entering a pool, so an
//!   engine that shards GEMMs or bank probes inside a `submit_batch`
//!   fan-out can never deadlock on its own pool — and never
//!   oversubscribes the machine.
//! * **Participation capping** — a region with fewer items than the
//!   pool has workers only recruits `items - 1` of them (the caller is
//!   always the extra runner).
//!
//! [`MercuryConfig`]: https://docs.rs/mercury-core
//!
//! # Examples
//!
//! ```
//! use mercury_tensor::exec::{Executor, ExecutorKind};
//!
//! let serial = Executor::from_kind(ExecutorKind::Serial);
//! let pool = Executor::from_kind(ExecutorKind::Threaded { threads: 4 });
//! let a = serial.map_indexed(8, |i| i * i);
//! let b = pool.map_indexed(8, |i| i * i);
//! assert_eq!(a, b); // scheduling never changes results
//! ```

use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use crate::tune::DispatchTuning;

/// Which execution backend to build — the [`Copy`] configuration-level
/// selector stored in `MercuryConfig` (and `ModelSimConfig`); resolve it
/// into a runnable [`Executor`] with [`Executor::from_kind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecutorKind {
    /// Run every work item on the calling thread, in index order (the
    /// reference semantics).
    Serial,
    /// Distribute work items over a persistent pool of `threads` workers.
    /// `threads: 0` means "size to the machine" (the available
    /// parallelism) — on a single-core host that collapses to serial
    /// scheduling, so the auto-sized kind never pays thread overhead a
    /// machine cannot recoup. Pin an explicit width to force a pool
    /// (determinism suites do, to exercise oversubscription).
    Threaded {
        /// Worker count; `0` = auto-size (see above).
        threads: usize,
    },
}

/// An executor spec that matches none of the accepted forms — the typed
/// rejection [`ExecutorKind::parse`] returns, whose `Display` lists every
/// accepted spelling so a typo'd `MERCURY_EXECUTOR` tells the operator
/// exactly what would have worked.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseExecutorError {
    spec: String,
}

impl fmt::Display for ParseExecutorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid executor spec {:?}; accepted forms: `serial`, `threaded`, `auto`, \
             `threaded:<n>`, or a bare thread count (`0` auto-sizes, `1` is serial)",
            self.spec
        )
    }
}

impl Error for ParseExecutorError {}

impl ExecutorKind {
    /// An auto-sized threaded backend.
    pub fn threaded_auto() -> Self {
        ExecutorKind::Threaded { threads: 0 }
    }

    /// Parses a backend spec: `serial`, `threaded` / `auto` (auto-sized),
    /// `threaded:<n>`, or a bare thread count (`1` parses as
    /// [`Serial`](Self::Serial)).
    ///
    /// # Errors
    ///
    /// Returns a [`ParseExecutorError`] — whose message lists the accepted
    /// forms — for anything else.
    pub fn parse(spec: &str) -> Result<Self, ParseExecutorError> {
        let trimmed = spec.trim().to_ascii_lowercase();
        match trimmed.as_str() {
            "serial" => Ok(ExecutorKind::Serial),
            "threaded" | "auto" => Ok(ExecutorKind::threaded_auto()),
            other => {
                let n: usize = other
                    .strip_prefix("threaded:")
                    .unwrap_or(other)
                    .parse()
                    .map_err(|_| ParseExecutorError {
                        spec: spec.trim().to_string(),
                    })?;
                if n == 1 {
                    Ok(ExecutorKind::Serial)
                } else {
                    Ok(ExecutorKind::Threaded { threads: n })
                }
            }
        }
    }

    /// The backend selected by the `MERCURY_EXECUTOR` environment
    /// variable, or `None` when unset.
    ///
    /// # Panics
    ///
    /// Panics — listing the accepted forms — when the variable is set to
    /// an invalid spec. A typo'd `MERCURY_EXECUTOR=thredded` must abort
    /// the run, not silently fall back to the default backend and taint
    /// whatever comparison the caller was running.
    pub fn from_env() -> Option<Self> {
        Some(Self::from_env_value(
            &std::env::var("MERCURY_EXECUTOR").ok()?,
        ))
    }

    /// Resolves one `MERCURY_EXECUTOR` value, panicking on invalid specs
    /// (see [`from_env`](Self::from_env)). Split out so the failure mode
    /// is testable without mutating the process environment.
    fn from_env_value(value: &str) -> Self {
        match Self::parse(value) {
            Ok(kind) => kind,
            Err(e) => panic!("MERCURY_EXECUTOR: {e}"),
        }
    }

    /// [`from_env`](Self::from_env) with a fallback for *unset* — the
    /// idiom config defaults use. An invalid value still fails loudly;
    /// only absence selects the fallback.
    pub fn from_env_or(fallback: Self) -> Self {
        Self::from_env().unwrap_or(fallback)
    }
}

/// The historical (1-core-calibrated) dispatch threshold: below this much
/// estimated total work (in abstract units of roughly one scalar FLOP —
/// i.e. very roughly a nanosecond of scalar compute), a region dispatched
/// through one of the `*_sized` scheduling variants runs inline on the
/// calling thread instead of waking pool workers, because the
/// wakeup/handoff cost (~µs) would exceed the parallel win. The plain
/// variants assume chunky items and always dispatch.
///
/// Since the autotuning pass landed this constant is only the **default
/// seed** for [`DispatchTuning::dispatch_min_work`] — the value an
/// executor actually gates on is resolved per process (profile file →
/// committed per-core defaults → this constant; see
/// [`DispatchTuning::resolved`]) and readable via [`Executor::tuning`].
pub const POOL_DISPATCH_MIN_WORK: usize = 32 * 1024;

/// The process-wide resolved tuning, computed once at the first executor
/// construction and reused for every later one: resolution can read a
/// profile file (`MERCURY_TUNE_PROFILE`), and hot paths construct
/// short-lived serial executors (e.g. per conv forward), so re-reading
/// the file per construction would put I/O on the forward path.
fn process_tuning() -> DispatchTuning {
    static TUNING: OnceLock<DispatchTuning> = OnceLock::new();
    *TUNING.get_or_init(DispatchTuning::resolved)
}

/// Snapshot of a pool's dispatch counters (see
/// [`Executor::pool_stats`]) — the observability hook the
/// assertion-backed CI smoke test uses to prove the threaded test leg
/// really exercises the pool rather than the inline short-circuit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Configured pool width (caller + parked workers).
    pub threads: usize,
    /// Regions actually handed to the worker pool.
    pub regions_dispatched: u64,
    /// Regions that short-circuited to inline execution (too little
    /// work, fewer than two items, or dispatched from inside another
    /// region).
    pub regions_inlined: u64,
    /// Dispatched regions that ended in a panic (on the caller or a
    /// recruited worker). The panic is re-raised on the dispatching
    /// thread after the region drains; the pool itself survives — its
    /// workers park and serve the next region — so this counter rising
    /// while `threads` stays constant is the expected fault signature,
    /// and a shrinking pool would show up as dispatch counters stalling.
    pub regions_panicked: u64,
}

/// A runnable execution backend: serial, or a handle to a persistent
/// worker pool of a fixed width. **Cloning shares the pool** — the clone
/// schedules onto the same parked workers — so long-lived owners resolve
/// one `Executor` and hand clones to everything they drive. The workers
/// are joined when the last clone drops.
///
/// All three scheduling primitives return (or apply) results in **item
/// index order**, regardless of which worker ran which item; callers get
/// determinism for free as long as the items themselves are independent.
#[derive(Debug, Clone, Default)]
pub struct Executor {
    backend: Backend,
    /// The dispatch knob set this executor gates regions with, fixed at
    /// construction. Clones carry the same values, so every engine a
    /// session hands a clone to sizes its work hints in the same units
    /// the dispatch gate compares against.
    tuning: DispatchTuning,
}

#[derive(Debug, Clone, Default)]
enum Backend {
    #[default]
    Serial,
    Pool(Arc<pool::WorkerPool>),
}

impl Executor {
    /// The serial backend, with the process-resolved tuning (see
    /// [`DispatchTuning::resolved`]).
    pub fn serial() -> Self {
        Executor::serial_tuned(process_tuning())
    }

    /// The serial backend with explicit tuning. Serial scheduling itself
    /// ignores the dispatch knobs, but engines still read
    /// [`tuning`](Self::tuning) back for their work-hint units, so the
    /// serial reference in an A/B comparison should carry the same
    /// values as the pool it is compared against.
    pub fn serial_tuned(tuning: DispatchTuning) -> Self {
        Executor {
            backend: Backend::Serial,
            tuning,
        }
    }

    /// A threaded backend with an explicit worker count (`0` = auto-size,
    /// `1` collapses to serial) and the process-resolved tuning. The
    /// pool's threads are spawned lazily at the first dispatched region,
    /// then parked between regions.
    pub fn threaded(threads: usize) -> Self {
        Executor::threaded_tuned(threads, process_tuning())
    }

    /// [`threaded`](Self::threaded) with explicit tuning. Auto-sizing
    /// (`threads: 0`) resolves to the available parallelism **capped by
    /// `tuning.max_pool_width`** — the widest pool that measured as
    /// useful on this host; an *explicit* width is never capped
    /// (determinism suites deliberately pin oversubscribed pools).
    pub fn threaded_tuned(threads: usize, tuning: DispatchTuning) -> Self {
        let threads = if threads == 0 {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
                .min(tuning.max_pool_width)
                .max(1)
        } else {
            threads
        };
        if threads <= 1 {
            return Executor::serial_tuned(tuning);
        }
        Executor {
            backend: Backend::Pool(Arc::new(pool::WorkerPool::new(threads))),
            tuning,
        }
    }

    /// Resolves a configuration-level [`ExecutorKind`] into a backend.
    /// Each call builds a *fresh* pool; owners that serve many requests
    /// should resolve once and clone the result (clones share the pool).
    pub fn from_kind(kind: ExecutorKind) -> Self {
        Executor::from_kind_tuned(kind, process_tuning())
    }

    /// [`from_kind`](Self::from_kind) with explicit tuning, for owners
    /// that resolve their own profile (e.g. `mercury-serve`'s config
    /// override) or tests pinning a tuning point.
    pub fn from_kind_tuned(kind: ExecutorKind, tuning: DispatchTuning) -> Self {
        match kind {
            ExecutorKind::Serial => Executor::serial_tuned(tuning),
            ExecutorKind::Threaded { threads } => Executor::threaded_tuned(threads, tuning),
        }
    }

    /// The dispatch tuning this executor was constructed with. Engines
    /// use this to size their work hints (probe costs, channel hints) in
    /// the same calibrated units the dispatch gate compares against.
    pub fn tuning(&self) -> DispatchTuning {
        self.tuning
    }

    /// Worker count (1 for the serial backend).
    pub fn threads(&self) -> usize {
        match &self.backend {
            Backend::Serial => 1,
            Backend::Pool(pool) => pool.width(),
        }
    }

    /// Whether this backend ever runs items off the calling thread.
    pub fn is_parallel(&self) -> bool {
        matches!(&self.backend, Backend::Pool(_))
    }

    /// Dispatch counters of the underlying pool (`None` for the serial
    /// backend). Counters are shared by every clone of this executor.
    pub fn pool_stats(&self) -> Option<PoolStats> {
        match &self.backend {
            Backend::Serial => None,
            Backend::Pool(pool) => Some(pool.stats()),
        }
    }

    /// Runs `f(0..n)`, returning the results in index order. Items are
    /// claimed dynamically (an atomic cursor), so heterogeneous item
    /// costs balance across workers; result order is index order either
    /// way. Assumes chunky items — see
    /// [`map_indexed_sized`](Self::map_indexed_sized) when a cheap
    /// per-item cost estimate exists.
    pub fn map_indexed<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        self.map_indexed_sized(n, self.tuning.dispatch_min_work, f)
    }

    /// [`map_indexed`](Self::map_indexed) with an estimated per-item cost
    /// (in dispatch-threshold units, roughly scalar FLOPs): the pooled
    /// backend runs the region inline when `n * item_work` falls below
    /// the tuned dispatch threshold, so tiny regions never pay a worker
    /// wakeup.
    pub fn map_indexed_sized<R, F>(&self, n: usize, item_work: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        match self.dispatch_pool(n, item_work) {
            None => (0..n).map(f).collect(),
            Some(pool) => {
                let cursor = AtomicUsize::new(0);
                let results = pool::ResultSlots::new(n);
                pool.run_region(n, &|| loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    results.put(i, f(i));
                });
                results.collect()
            }
        }
    }

    /// [`map_indexed`](Self::map_indexed) with per-worker scratch state:
    /// each participating runner builds one `S` with `init` and reuses it
    /// across all the items it claims (the serial backend builds exactly
    /// one). Use this when items need expensive scratch — per-channel
    /// caches, packed buffers — that would otherwise be reallocated per
    /// item.
    pub fn map_with<S, R, I, F>(&self, n: usize, init: I, f: F) -> Vec<R>
    where
        S: Send,
        R: Send,
        I: Fn() -> S + Sync,
        F: Fn(usize, &mut S) -> R + Sync,
    {
        self.map_with_sized(n, self.tuning.dispatch_min_work, init, f)
    }

    /// [`map_with`](Self::map_with) with an estimated per-item cost (see
    /// [`map_indexed_sized`](Self::map_indexed_sized)).
    pub fn map_with_sized<S, R, I, F>(&self, n: usize, item_work: usize, init: I, f: F) -> Vec<R>
    where
        S: Send,
        R: Send,
        I: Fn() -> S + Sync,
        F: Fn(usize, &mut S) -> R + Sync,
    {
        match self.dispatch_pool(n, item_work) {
            None => {
                let mut scratch = init();
                (0..n).map(|i| f(i, &mut scratch)).collect()
            }
            Some(pool) => {
                let cursor = AtomicUsize::new(0);
                let results = pool::ResultSlots::new(n);
                pool.run_region(n, &|| {
                    // Build the scratch only once this runner has claimed
                    // an item: a late-waking worker that finds the cursor
                    // drained must not pay for (possibly expensive) state
                    // it will never use.
                    let mut scratch: Option<S> = None;
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        results.put(i, f(i, scratch.get_or_insert_with(&init)));
                    }
                });
                results.collect()
            }
        }
    }

    /// Consumes `items`, running `f(index, item)` for each and returning
    /// results in item order. Items are claimed dynamically and move into
    /// whichever runner claims them — the primitive behind disjoint
    /// `&mut` fan-out (bank shards, per-layer session engines).
    pub fn map_owned<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        self.map_owned_sized(items, self.tuning.dispatch_min_work, f)
    }

    /// [`map_owned`](Self::map_owned) with an estimated per-item cost
    /// (see [`map_indexed_sized`](Self::map_indexed_sized)).
    pub fn map_owned_sized<T, R, F>(&self, items: Vec<T>, item_work: usize, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        let n = items.len();
        match self.dispatch_pool(n, item_work) {
            None => items
                .into_iter()
                .enumerate()
                .map(|(i, t)| f(i, t))
                .collect(),
            Some(pool) => {
                let cursor = AtomicUsize::new(0);
                let items = pool::ItemSlots::new(items);
                let results = pool::ResultSlots::new(n);
                pool.run_region(n, &|| loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    results.put(i, f(i, items.take(i)));
                });
                results.collect()
            }
        }
    }

    /// [`map_owned`](Self::map_owned) with a *per-item* cost estimate:
    /// `item_work[i]` is the work carried by `items[i]`, in the same
    /// units as [`map_owned_sized`](Self::map_owned_sized)'s uniform
    /// hint. Use this when items are genuinely uneven — e.g. banked probe
    /// jobs on a skewed batch — so the dispatch decision sees the real
    /// distribution instead of an average: the region goes to the pool
    /// only when at least **two** items carry nonzero work (a region with
    /// one hot item and the rest empty runs inline, however large the hot
    /// item — a second thread could not share its work) and the
    /// saturating total crosses the tuned dispatch threshold. Recruitment
    /// is likewise capped by the busy-item count, not the item count.
    ///
    /// # Panics
    ///
    /// Panics if `item_work.len() != items.len()`.
    pub fn map_owned_weighted<T, R, F>(&self, items: Vec<T>, item_work: &[usize], f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        let n = items.len();
        assert_eq!(item_work.len(), n, "one work hint per item");
        let total = item_work
            .iter()
            .fold(0usize, |acc, &w| acc.saturating_add(w));
        let busy = item_work.iter().filter(|&&w| w > 0).count();
        match self.dispatch_pool_weighted(n, busy, total) {
            None => items
                .into_iter()
                .enumerate()
                .map(|(i, t)| f(i, t))
                .collect(),
            Some(pool) => {
                let cursor = AtomicUsize::new(0);
                let items = pool::ItemSlots::new(items);
                let results = pool::ResultSlots::new(n);
                pool.run_region(busy, &|| loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    results.put(i, f(i, items.take(i)));
                });
                results.collect()
            }
        }
    }

    /// The pool to dispatch a region of `n` items (each costing roughly
    /// `item_work` units) to, or `None` when the region should run inline:
    /// serial backend, fewer than two items, estimated work below the
    /// tuned `dispatch_min_work` threshold, or the calling thread is
    /// already executing items of an outer region (nested regions run
    /// inline — never deadlock, never oversubscribe).
    fn dispatch_pool(&self, n: usize, item_work: usize) -> Option<&pool::WorkerPool> {
        match &self.backend {
            Backend::Serial => None,
            Backend::Pool(pool) => {
                if n >= 2
                    && n.saturating_mul(item_work) >= self.tuning.dispatch_min_work
                    && !pool::in_region()
                {
                    Some(pool)
                } else {
                    pool.count_inline();
                    None
                }
            }
        }
    }

    /// [`dispatch_pool`](Self::dispatch_pool) for per-item work hints:
    /// dispatches when `busy` (items with nonzero work) is at least two
    /// and the saturating `total_work` crosses the threshold. One busy
    /// item means the region is effectively serial no matter how large —
    /// waking workers for the empty items is pure overhead.
    fn dispatch_pool_weighted(
        &self,
        n: usize,
        busy: usize,
        total_work: usize,
    ) -> Option<&pool::WorkerPool> {
        match &self.backend {
            Backend::Serial => None,
            Backend::Pool(pool) => {
                if n >= 2
                    && busy >= 2
                    && total_work >= self.tuning.dispatch_min_work
                    && !pool::in_region()
                {
                    Some(pool)
                } else {
                    pool.count_inline();
                    None
                }
            }
        }
    }
}

/// The persistent worker pool and the pointer-erased region handoff.
///
/// Workers are spawned once (lazily) and parked on a condvar; each
/// parallel region publishes a borrowed runner closure, bumps an epoch,
/// wakes the workers it recruits, and blocks until every recruit checks
/// back in. The pointer erasure and the disjoint-index result slots are
/// the two places this crate needs `unsafe` — both are confined to this
/// module, with the invariants documented at each site (this is the same
/// technique `std::thread::scope` itself builds on, minus the per-region
/// spawn this pool exists to avoid).
#[allow(unsafe_code)]
mod pool {
    use std::cell::{Cell, UnsafeCell};
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Arc, Condvar, Mutex, OnceLock};

    use super::PoolStats;

    thread_local! {
        /// How many region runners are live on this thread. Non-zero on a
        /// pool worker mid-job and on a dispatching caller while it runs
        /// its own share of a region; any inner region started then must
        /// execute inline (see [`super::Executor::dispatch_pool`]).
        static REGION_DEPTH: Cell<usize> = const { Cell::new(0) };
    }

    /// Whether the current thread is already executing region items.
    pub(super) fn in_region() -> bool {
        REGION_DEPTH.with(|d| d.get()) > 0
    }

    /// RAII region-depth bump, so the counter unwinds correctly when a
    /// runner panics.
    struct DepthGuard;

    impl DepthGuard {
        fn enter() -> Self {
            REGION_DEPTH.with(|d| d.set(d.get() + 1));
            DepthGuard
        }
    }

    impl Drop for DepthGuard {
        fn drop(&mut self) {
            REGION_DEPTH.with(|d| d.set(d.get() - 1));
        }
    }

    /// A pointer-erased borrow of one region's runner closure. The
    /// dispatcher publishes it under the state lock and does not return
    /// from [`WorkerPool::run_region`] until every recruited worker has
    /// checked back in, so the pointee outlives every dereference.
    #[derive(Clone, Copy)]
    struct Job(*const (dyn Fn() + Sync));

    // SAFETY: the pointee is a `Sync` closure borrowed from the
    // dispatching thread's stack; `run_region` keeps that frame alive
    // (it blocks until `active == 0`) for as long as any worker can hold
    // this pointer, and `&(dyn Fn() + Sync)` is safe to share across
    // threads by definition.
    unsafe impl Send for Job {}

    impl Job {
        /// Runs the region closure.
        ///
        /// # Safety
        ///
        /// Must only be called between this job's publication and the
        /// dispatcher's `active == 0` handshake (the worker loop's
        /// protocol), while the dispatcher is still blocked in
        /// `run_region`.
        unsafe fn run(self) {
            // SAFETY: see above — the dispatcher's frame (and therefore
            // the closure and everything it borrows) is alive.
            unsafe { (*self.0)() }
        }
    }

    struct PoolState {
        /// Bumped once per dispatched region; workers use it to tell a
        /// fresh region from a spurious wakeup.
        epoch: u64,
        /// The current region's runner; `Some` exactly while a region is
        /// in flight.
        job: Option<Job>,
        /// Workers that may still join the current region (capped at
        /// `items - 1` so small regions recruit few workers).
        recruits_left: usize,
        /// Recruited workers that have not yet finished the region.
        active: usize,
        /// First panic payload raised by a worker this region.
        panic: Option<Box<dyn std::any::Any + Send>>,
        shutdown: bool,
    }

    struct SharedState {
        state: Mutex<PoolState>,
        /// Workers park here between regions.
        work_cv: Condvar,
        /// The dispatcher parks here until `active == 0`.
        done_cv: Condvar,
    }

    /// The threads and handoff state of one pool, created on the first
    /// dispatched region.
    struct PoolCore {
        shared: Arc<SharedState>,
        /// Serializes dispatchers: one region in flight per pool. Held
        /// across the whole region, so a second top-level thread simply
        /// queues behind the first (workers never take this lock).
        region_lock: Mutex<()>,
        workers: Vec<std::thread::JoinHandle<()>>,
    }

    /// A persistent pool of `width - 1` parked worker threads (the
    /// dispatching caller is always the `width`-th runner).
    pub(super) struct WorkerPool {
        width: usize,
        core: OnceLock<PoolCore>,
        regions_dispatched: AtomicU64,
        regions_inlined: AtomicU64,
        regions_panicked: AtomicU64,
    }

    impl std::fmt::Debug for WorkerPool {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("WorkerPool")
                .field("width", &self.width)
                .field("spawned", &self.core.get().is_some())
                .finish_non_exhaustive()
        }
    }

    impl WorkerPool {
        /// A pool of the given width (`>= 2`); threads spawn lazily.
        pub(super) fn new(width: usize) -> Self {
            debug_assert!(width >= 2, "width-1 pools are the serial backend");
            WorkerPool {
                width,
                core: OnceLock::new(),
                regions_dispatched: AtomicU64::new(0),
                regions_inlined: AtomicU64::new(0),
                regions_panicked: AtomicU64::new(0),
            }
        }

        pub(super) fn width(&self) -> usize {
            self.width
        }

        pub(super) fn count_inline(&self) {
            self.regions_inlined.fetch_add(1, Ordering::Relaxed);
        }

        pub(super) fn stats(&self) -> PoolStats {
            PoolStats {
                threads: self.width,
                regions_dispatched: self.regions_dispatched.load(Ordering::Relaxed),
                regions_inlined: self.regions_inlined.load(Ordering::Relaxed),
                regions_panicked: self.regions_panicked.load(Ordering::Relaxed),
            }
        }

        /// Runs one parallel region of `items` work items: publishes
        /// `runner` to the parked workers, recruits at most `items - 1`
        /// of them, runs `runner` on the calling thread too, and blocks
        /// until every recruit has finished. Worker panics are re-raised
        /// here after the region fully drains (so borrowed region state
        /// is never freed under a live worker).
        pub(super) fn run_region(&self, items: usize, runner: &(dyn Fn() + Sync)) {
            let core = self
                .core
                .get_or_init(|| PoolCore::spawn(self.width - 1, self.width));
            let region_guard = core
                .region_lock
                .lock()
                .expect("a pool dispatcher never panics while holding the region lock");
            self.regions_dispatched.fetch_add(1, Ordering::Relaxed);
            let recruits = core.workers.len().min(items.saturating_sub(1));
            {
                let mut state = core.shared.state.lock().unwrap();
                // SAFETY: pure lifetime erasure on a wide pointer (same
                // layout); validity across threads is enforced by the
                // region protocol documented on `Job`.
                let erased: *const (dyn Fn() + Sync) =
                    unsafe { std::mem::transmute(runner as *const (dyn Fn() + Sync + '_)) };
                state.job = Some(Job(erased));
                state.epoch += 1;
                state.recruits_left = recruits;
                state.active = recruits;
                if recruits == core.workers.len() {
                    core.shared.work_cv.notify_all();
                } else {
                    for _ in 0..recruits {
                        core.shared.work_cv.notify_one();
                    }
                }
            }
            let caller_result = {
                let _depth = DepthGuard::enter();
                catch_unwind(AssertUnwindSafe(runner))
            };
            let worker_panic = {
                let mut state = core.shared.state.lock().unwrap();
                while state.active > 0 {
                    state = core.shared.done_cv.wait(state).unwrap();
                }
                state.job = None;
                state.panic.take()
            };
            drop(region_guard);
            if caller_result.is_err() || worker_panic.is_some() {
                self.regions_panicked.fetch_add(1, Ordering::Relaxed);
            }
            if let Err(payload) = caller_result {
                resume_unwind(payload);
            }
            if let Some(payload) = worker_panic {
                resume_unwind(payload);
            }
        }
    }

    impl Drop for WorkerPool {
        fn drop(&mut self) {
            let Some(core) = self.core.take() else {
                return; // never dispatched — no threads to join
            };
            {
                let mut state = core.shared.state.lock().unwrap();
                state.shutdown = true;
                core.shared.work_cv.notify_all();
            }
            for handle in core.workers {
                handle
                    .join()
                    .expect("pool worker exits cleanly on shutdown");
            }
        }
    }

    impl PoolCore {
        fn spawn(worker_count: usize, width: usize) -> PoolCore {
            let shared = Arc::new(SharedState {
                state: Mutex::new(PoolState {
                    epoch: 0,
                    job: None,
                    recruits_left: 0,
                    active: 0,
                    panic: None,
                    shutdown: false,
                }),
                work_cv: Condvar::new(),
                done_cv: Condvar::new(),
            });
            let workers = (0..worker_count)
                .map(|i| {
                    let shared = Arc::clone(&shared);
                    std::thread::Builder::new()
                        .name(format!("mercury-exec-{width}w-{i}"))
                        .spawn(move || worker_loop(&shared))
                        .expect("spawn pool worker")
                })
                .collect();
            PoolCore {
                shared,
                region_lock: Mutex::new(()),
                workers,
            }
        }
    }

    /// The parked-worker protocol: wait for a fresh epoch, join its
    /// region if recruitment is still open, run the published job, check
    /// back in. A worker that wakes after recruitment closed just records
    /// the epoch and parks again.
    fn worker_loop(shared: &SharedState) {
        let mut seen_epoch = 0u64;
        loop {
            let job = {
                let mut state = shared.state.lock().unwrap();
                loop {
                    if state.shutdown {
                        return;
                    }
                    if state.epoch != seen_epoch {
                        seen_epoch = state.epoch;
                        if state.recruits_left > 0 {
                            state.recruits_left -= 1;
                            // `job` is `Some` whenever recruitment is
                            // open: the dispatcher clears it only after
                            // every recruit finished.
                            break state.job.expect("open region publishes a job");
                        }
                        // Region already fully recruited — park again.
                    }
                    state = shared.work_cv.wait(state).unwrap();
                }
            };
            let result = {
                let _depth = DepthGuard::enter();
                // SAFETY: this thread was recruited for the current
                // region under the state lock, so the dispatcher is
                // blocked in `run_region` until this thread decrements
                // `active` below — the closure and its borrows are alive.
                catch_unwind(AssertUnwindSafe(|| unsafe { job.run() }))
            };
            let mut state = shared.state.lock().unwrap();
            if let Err(payload) = result {
                state.panic.get_or_insert(payload);
            }
            state.active -= 1;
            if state.active == 0 {
                shared.done_cv.notify_all();
            }
        }
    }

    /// Result landing zone for one region: `n` disjoint slots, each
    /// written by exactly the runner that claimed its index.
    pub(super) struct ResultSlots<R> {
        slots: Vec<UnsafeCell<Option<R>>>,
    }

    // SAFETY: slot `i` is written only by the single runner that claimed
    // index `i` from the region's atomic cursor (`fetch_add` yields each
    // index exactly once), and only read after the region's completion
    // handshake (a lock acquire/release pair orders the writes before
    // the reads). `R: Send` moves the values across threads.
    unsafe impl<R: Send> Sync for ResultSlots<R> {}

    impl<R> ResultSlots<R> {
        pub(super) fn new(n: usize) -> Self {
            ResultSlots {
                slots: (0..n).map(|_| UnsafeCell::new(None)).collect(),
            }
        }

        /// Stores the result for claimed index `i`.
        pub(super) fn put(&self, i: usize, value: R) {
            // SAFETY: `i` was claimed from the region cursor by exactly
            // one runner (see the `Sync` impl), so no other thread holds
            // a reference into this slot.
            unsafe { *self.slots[i].get() = Some(value) };
        }

        /// Unwraps every slot in index order. Call only after the region
        /// completed without panicking.
        pub(super) fn collect(self) -> Vec<R> {
            self.slots
                .into_iter()
                .map(|slot| {
                    slot.into_inner()
                        .expect("every index computed exactly once")
                })
                .collect()
        }
    }

    /// Owned work items for `map_owned`: each is moved out by exactly
    /// the runner that claimed its index.
    pub(super) struct ItemSlots<T> {
        slots: Vec<UnsafeCell<Option<T>>>,
    }

    // SAFETY: same disjoint-claim argument as [`ResultSlots`]; item `i`
    // is taken once by the runner that claimed index `i`.
    unsafe impl<T: Send> Sync for ItemSlots<T> {}

    impl<T> ItemSlots<T> {
        pub(super) fn new(items: Vec<T>) -> Self {
            ItemSlots {
                slots: items
                    .into_iter()
                    .map(|t| UnsafeCell::new(Some(t)))
                    .collect(),
            }
        }

        /// Moves item `i` out to the runner that claimed it.
        pub(super) fn take(&self, i: usize) -> T {
            // SAFETY: `i` was claimed from the region cursor by exactly
            // one runner, so this is the only access to the slot.
            unsafe { (*self.slots[i].get()).take() }.expect("every item consumed exactly once")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_the_documented_spellings() {
        assert_eq!(ExecutorKind::parse("serial"), Ok(ExecutorKind::Serial));
        assert_eq!(ExecutorKind::parse(" Serial "), Ok(ExecutorKind::Serial));
        assert_eq!(
            ExecutorKind::parse("threaded"),
            Ok(ExecutorKind::Threaded { threads: 0 })
        );
        assert_eq!(
            ExecutorKind::parse("auto"),
            Ok(ExecutorKind::threaded_auto())
        );
        assert_eq!(
            ExecutorKind::parse("threaded:8"),
            Ok(ExecutorKind::Threaded { threads: 8 })
        );
        assert_eq!(
            ExecutorKind::parse("4"),
            Ok(ExecutorKind::Threaded { threads: 4 })
        );
        // One thread is the serial backend by definition.
        assert_eq!(ExecutorKind::parse("1"), Ok(ExecutorKind::Serial));
        assert_eq!(ExecutorKind::parse("threaded:1"), Ok(ExecutorKind::Serial));
    }

    #[test]
    fn parse_rejections_list_the_accepted_forms() {
        for bad in ["warp-speed", "", "thredded", "threaded:", "threaded:x"] {
            let err = ExecutorKind::parse(bad).unwrap_err();
            let msg = err.to_string();
            assert!(msg.contains("serial"), "{bad:?} -> {msg}");
            assert!(msg.contains("threaded:<n>"), "{bad:?} -> {msg}");
            assert!(msg.contains("auto"), "{bad:?} -> {msg}");
        }
        // The spec echoes back trimmed, so the operator sees what was read.
        assert!(ExecutorKind::parse(" thredded ")
            .unwrap_err()
            .to_string()
            .contains("\"thredded\""));
    }

    #[test]
    #[should_panic(expected = "accepted forms")]
    fn invalid_env_value_fails_loudly_not_silently() {
        // A typo'd MERCURY_EXECUTOR must abort, never silently select the
        // fallback backend.
        let _ = ExecutorKind::from_env_value("thredded");
    }

    #[test]
    fn resolution_rules() {
        assert_eq!(Executor::from_kind(ExecutorKind::Serial).threads(), 1);
        assert!(!Executor::serial().is_parallel());
        assert!(Executor::serial().pool_stats().is_none());
        let auto = Executor::from_kind(ExecutorKind::threaded_auto());
        let cores = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1);
        assert_eq!(
            auto.threads(),
            cores,
            "auto-sizing follows the machine (serial on one core)"
        );
        assert_eq!(
            Executor::from_kind(ExecutorKind::Threaded { threads: 3 }).threads(),
            3
        );
    }

    #[test]
    fn clones_share_one_pool() {
        let exec = Executor::threaded(4);
        let clone = exec.clone();
        let before = exec.pool_stats().unwrap().regions_dispatched;
        let out = clone.map_indexed(16, |i| i + 1);
        assert_eq!(out, (1..17).collect::<Vec<_>>());
        assert_eq!(
            exec.pool_stats().unwrap().regions_dispatched,
            before + 1,
            "the clone dispatched onto the original's pool"
        );
    }

    #[test]
    fn map_indexed_matches_serial_for_every_width() {
        let want: Vec<usize> = (0..37).map(|i| i * i + 1).collect();
        for threads in [1, 2, 3, 8] {
            let exec = Executor::threaded(threads);
            assert_eq!(
                exec.map_indexed(37, |i| i * i + 1),
                want,
                "{threads} threads"
            );
        }
        assert_eq!(
            Executor::serial().map_indexed(0, |i| i),
            Vec::<usize>::new()
        );
    }

    #[test]
    fn one_pool_serves_many_regions() {
        // The same pool instance runs many back-to-back regions of mixed
        // primitives — the lifecycle the long-lived owners rely on.
        let exec = Executor::threaded(4);
        for round in 0..50usize {
            let n = 1 + (round * 7) % 23;
            let a = exec.map_indexed(n, |i| i * round);
            assert_eq!(a, (0..n).map(|i| i * round).collect::<Vec<_>>());
            let b = exec.map_owned((0..n).collect::<Vec<_>>(), |i, item| i + item);
            assert_eq!(b, (0..n).map(|i| 2 * i).collect::<Vec<_>>());
        }
        let stats = exec.pool_stats().unwrap();
        assert!(stats.regions_dispatched > 0);
    }

    #[test]
    fn map_with_reuses_scratch_and_keeps_order() {
        // Scratch is per-worker: the sum of all per-item scratch counters
        // equals the item count, and results still land in index order.
        for threads in [1, 2, 8] {
            let exec = Executor::threaded(threads);
            let out = exec.map_with(
                20,
                || 0usize,
                |i, seen| {
                    *seen += 1;
                    (i, *seen)
                },
            );
            let indices: Vec<usize> = out.iter().map(|&(i, _)| i).collect();
            assert_eq!(indices, (0..20).collect::<Vec<_>>());
            let total: usize = {
                // Each worker's `seen` counts up; the per-item values are the
                // running count at that item, so the max over items per
                // worker sums to 20. Cheap cross-check: every item saw a
                // scratch that had processed at least itself.
                out.iter().map(|&(_, s)| s).filter(|&s| s >= 1).count()
            };
            assert_eq!(total, 20);
        }
    }

    #[test]
    fn map_owned_moves_items_and_keeps_order() {
        for threads in [1, 2, 5] {
            let exec = Executor::threaded(threads);
            let items: Vec<String> = (0..11).map(|i| format!("item{i}")).collect();
            let out = exec.map_owned(items, |i, s| format!("{i}:{s}"));
            for (i, s) in out.iter().enumerate() {
                assert_eq!(s, &format!("{i}:item{i}"));
            }
        }
    }

    #[test]
    fn heterogeneous_work_still_lands_in_order() {
        // Later items finish first under any real schedule; order must
        // come from the index, not completion time.
        let exec = Executor::threaded(4);
        let out = exec.map_indexed(16, |i| {
            if i < 2 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            i
        });
        assert_eq!(out, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn tiny_sized_regions_short_circuit_inline() {
        let exec = Executor::threaded(4);
        let before = exec.pool_stats().unwrap();
        // 4 items of ~1 unit each: far below POOL_DISPATCH_MIN_WORK.
        let out = exec.map_indexed_sized(4, 1, |i| i * 2);
        assert_eq!(out, vec![0, 2, 4, 6]);
        // A single item never dispatches either, whatever its size.
        let out = exec.map_indexed_sized(1, usize::MAX, |i| i);
        assert_eq!(out, vec![0]);
        let after = exec.pool_stats().unwrap();
        assert_eq!(after.regions_dispatched, before.regions_dispatched);
        assert_eq!(after.regions_inlined, before.regions_inlined + 2);
        // Enough declared work flips the same shape over to the pool.
        let out = exec.map_indexed_sized(4, POOL_DISPATCH_MIN_WORK, |i| i * 2);
        assert_eq!(out, vec![0, 2, 4, 6]);
        assert_eq!(
            exec.pool_stats().unwrap().regions_dispatched,
            before.regions_dispatched + 1
        );
    }

    #[test]
    fn weighted_map_matches_serial_and_gates_on_busy_items() {
        // Results must match the serial backend for any weight vector.
        let serial = Executor::serial();
        let weights = [0usize, 5, 0, POOL_DISPATCH_MIN_WORK, 7, 0, usize::MAX];
        let items: Vec<usize> = (0..weights.len()).collect();
        let want = serial.map_owned_weighted(items.clone(), &weights, |i, v| i * 100 + v);
        for threads in [2, 4] {
            let exec = Executor::threaded(threads);
            let got = exec.map_owned_weighted(items.clone(), &weights, |i, v| i * 100 + v);
            assert_eq!(got, want);
        }

        let exec = Executor::threaded(4);
        let before = exec.pool_stats().unwrap();
        // One hot item among empties: total is huge but only one item
        // carries work — a second thread could not help. Must inline.
        let skew = [usize::MAX, 0, 0, 0];
        let out = exec.map_owned_weighted(vec![1, 2, 3, 4], &skew, |_, v| v * 2);
        assert_eq!(out, vec![2, 4, 6, 8]);
        // Tiny totals inline too, even when spread across items.
        let tiny = [1usize, 1, 1, 1];
        exec.map_owned_weighted(vec![0; 4], &tiny, |_, v| v);
        let mid = exec.pool_stats().unwrap();
        assert_eq!(mid.regions_dispatched, before.regions_dispatched);
        assert_eq!(mid.regions_inlined, before.regions_inlined + 2);
        // Two busy items over the threshold dispatch; saturating totals
        // (two usize::MAX items) must not wrap back below it.
        let hot = [usize::MAX, usize::MAX, 0, 0];
        let out = exec.map_owned_weighted(vec![1, 2, 3, 4], &hot, |_, v| v + 1);
        assert_eq!(out, vec![2, 3, 4, 5]);
        assert_eq!(
            exec.pool_stats().unwrap().regions_dispatched,
            before.regions_dispatched + 1
        );
    }

    #[test]
    fn nested_regions_run_inline_without_deadlock() {
        // An item of an outer region that opens an inner region on the
        // same pool must complete (inline), not deadlock waiting for the
        // workers it is itself occupying — the submit_batch-fans-out-
        // engines-that-shard-GEMMs shape.
        let exec = Executor::threaded(2);
        let inner = exec.clone();
        let before = exec.pool_stats().unwrap();
        let out = exec.map_indexed(4, |i| {
            let inner_out = inner.map_indexed(8, move |j| i * 10 + j);
            inner_out.iter().sum::<usize>()
        });
        let want: Vec<usize> = (0..4).map(|i| (0..8).map(|j| i * 10 + j).sum()).collect();
        assert_eq!(out, want);
        let after = exec.pool_stats().unwrap();
        assert_eq!(
            after.regions_dispatched,
            before.regions_dispatched + 1,
            "only the outer region dispatched"
        );
        assert_eq!(
            after.regions_inlined,
            before.regions_inlined + 4,
            "every inner region short-circuited inline"
        );
    }

    #[test]
    fn worker_panics_propagate_after_the_region_drains() {
        let exec = Executor::threaded(4);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            exec.map_indexed(16, |i| {
                assert!(i != 11, "boom at {i}");
                i
            })
        }));
        assert!(result.is_err(), "the item panic must reach the caller");
        let stats = exec.pool_stats().unwrap();
        assert_eq!(stats.regions_panicked, 1, "the fault left an audit trail");
        // The pool survives a panicked region and serves the next one.
        assert_eq!(exec.map_indexed(8, |i| i), (0..8).collect::<Vec<_>>());
        let stats = exec.pool_stats().unwrap();
        assert_eq!(stats.threads, 4, "no worker died");
        assert_eq!(stats.regions_panicked, 1, "the clean region added nothing");
    }

    #[test]
    fn tuned_threshold_moves_the_dispatch_decision() {
        // The same region shape flips between inline and pooled purely by
        // the tuning it was constructed with — the contract a calibrated
        // profile relies on.
        let lax = DispatchTuning {
            dispatch_min_work: 8,
            ..DispatchTuning::default()
        };
        let exec = Executor::threaded_tuned(4, lax);
        assert_eq!(exec.tuning(), lax);
        assert_eq!(exec.map_indexed_sized(4, 2, |i| i), vec![0, 1, 2, 3]);
        assert_eq!(
            exec.pool_stats().unwrap().regions_dispatched,
            1,
            "8 units of declared work crossed the lax 8-unit threshold"
        );

        let strict = DispatchTuning {
            dispatch_min_work: usize::MAX,
            ..DispatchTuning::default()
        };
        let exec = Executor::threaded_tuned(4, strict);
        // The default (untuned) executor dispatches this exact shape —
        // see `tiny_sized_regions_short_circuit_inline`.
        let out = exec.map_indexed_sized(4, POOL_DISPATCH_MIN_WORK, |i| i * 2);
        assert_eq!(out, vec![0, 2, 4, 6]);
        let stats = exec.pool_stats().unwrap();
        assert_eq!(stats.regions_dispatched, 0, "strict threshold inlines it");
        assert_eq!(stats.regions_inlined, 1);

        // The weighted gate reads the same tuned threshold.
        let exec = Executor::threaded_tuned(4, lax);
        let out = exec.map_owned_weighted(vec![1, 2], &[4, 4], |_, v| v);
        assert_eq!(out, vec![1, 2]);
        assert_eq!(exec.pool_stats().unwrap().regions_dispatched, 1);
    }

    #[test]
    fn auto_sizing_respects_the_tuned_width_cap() {
        // A measured useful width caps auto-sizing…
        let capped = DispatchTuning {
            max_pool_width: 1,
            ..DispatchTuning::default()
        };
        let exec = Executor::threaded_tuned(0, capped);
        assert!(
            !exec.is_parallel(),
            "auto-size capped to width 1 collapses to serial"
        );
        // …but never a pinned width: determinism suites oversubscribe on
        // purpose.
        let exec = Executor::threaded_tuned(8, capped);
        assert_eq!(exec.threads(), 8);
        // Serial executors still carry their tuning for engines to read.
        assert_eq!(Executor::serial_tuned(capped).tuning(), capped);
    }

    #[test]
    fn plain_variants_still_always_dispatch_under_extreme_tuning() {
        // The unsized primitives assume chunky items; even a profile with
        // a saturating threshold must not flip them to inline (n ≥ 2
        // times the threshold itself saturates back to the threshold).
        let strict = DispatchTuning {
            dispatch_min_work: usize::MAX,
            ..DispatchTuning::default()
        };
        let exec = Executor::threaded_tuned(2, strict);
        assert_eq!(exec.map_indexed(4, |i| i), vec![0, 1, 2, 3]);
        assert_eq!(exec.pool_stats().unwrap().regions_dispatched, 1);
    }
}
