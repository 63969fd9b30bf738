use crate::cancel::{CancelToken, Cancelled};
use crate::fault::{FaultInjector, LaunchError};
use crate::sched::{self, Schedule};
use crate::stats::{LaunchStats, ScheduleCells, ScheduleStats, StatsCells};
use gmc_trace::{SpanGuard, Tracer};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, RwLock};
use std::thread::JoinHandle;
use std::time::Instant;

/// Kernel name charged for launches issued through the un-named entry
/// points ([`Executor::for_each_indexed`] and friends). Call the `_named`
/// variants to attribute launches in [`LaunchStats::per_kernel`] and traces.
pub const DEFAULT_KERNEL_NAME: &str = "unnamed";

/// Default for [`Executor::sequential_grid_limit`]: launches below this
/// element count run inline on the calling thread. Real GPU launches have a
/// fixed overhead that dwarfs tiny grids; here the analogue is condvar
/// wake-up latency, so small grids are executed sequentially. Results are
/// identical either way. The value was picked from a `micro_primitives`
/// sweep (`GMC_SEQ_GRID` ∈ {512, 1024, 2048, 4096, 8192} over the scan and
/// select groups): dispatch overhead still beats the pool below ~2k elements
/// on the benchmark machine, and larger limits start serialising grids that
/// would profit from workers.
pub const DEFAULT_SEQUENTIAL_GRID_LIMIT: usize = 2048;

/// Initial per-executor limit: the `GMC_SEQ_GRID` environment variable when
/// set, otherwise [`DEFAULT_SEQUENTIAL_GRID_LIMIT`]. An unparsable value
/// panics with a clear message (see [`gmc_trace::env`]) instead of being
/// silently ignored.
fn initial_sequential_grid_limit() -> usize {
    gmc_trace::env::parse_or("GMC_SEQ_GRID", DEFAULT_SEQUENTIAL_GRID_LIMIT)
}

/// A task dispatched to the pool: invoked once per worker with the worker's
/// index. Stored as a raw fat pointer so that borrowed captures are allowed;
/// the launcher blocks until every worker has finished, which keeps the
/// borrow alive for the full execution.
#[derive(Clone, Copy)]
struct TaskPtr(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` and the launch protocol guarantees it
// outlives every use (the launching thread blocks until `pending == 0`).
unsafe impl Send for TaskPtr {}

struct PoolState {
    task: Option<TaskPtr>,
    /// Incremented per launch; workers run each generation exactly once.
    generation: u64,
    /// Workers that have not yet finished the current generation.
    pending: usize,
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    work_ready: Condvar,
    work_done: Condvar,
    panicked: AtomicBool,
}

impl PoolShared {
    /// Locks the pool state. Worker panics are caught around the task call
    /// (never while the lock is held), so poisoning can only come from a
    /// panic in the launcher's own bookkeeping — recovering the guard is
    /// safe and keeps the pool usable after a propagated kernel panic.
    fn lock_state(&self) -> MutexGuard<'_, PoolState> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// Per-worker balance measurement for one pooled launch: how many work
/// units (static chunks or dynamic morsels) the worker executed and how
/// long it was busy. Written only by the owning worker during a launch and
/// read by the launcher after the closing barrier, so relaxed atomics
/// suffice; slots are reset by the launcher before each pooled launch.
#[derive(Debug, Default)]
struct BalanceSlot {
    claims: AtomicU64,
    busy_ns: AtomicU64,
}

/// Grid size at which the weighted-launch boundary planner switches from a
/// single sequential pass to the chunk-parallel two-phase shape. Both
/// planners implement the same exact integer crossing rule, so the switch
/// (and the worker count) never changes the cut.
const WEIGHT_PLAN_PARALLEL_THRESHOLD: usize = 1 << 16;

/// A launch's morsel decomposition, as consumed by the dynamic claim loop.
/// Uniform decompositions stay implicit (no allocation); guided and
/// cost-cut decompositions carry explicit boundaries where
/// `bounds[m]..bounds[m + 1]` is morsel `m`.
enum Boundaries<'a> {
    Uniform { grain: usize, count: usize },
    Explicit(&'a [usize]),
}

impl Boundaries<'_> {
    #[inline]
    fn count(&self) -> usize {
        match self {
            Boundaries::Uniform { count, .. } => *count,
            Boundaries::Explicit(bounds) => bounds.len() - 1,
        }
    }

    #[inline]
    fn range(&self, m: usize, n: usize) -> std::ops::Range<usize> {
        match self {
            Boundaries::Uniform { grain, .. } => {
                let start = m * grain;
                start..(start + grain).min(n)
            }
            Boundaries::Explicit(bounds) => bounds[m]..bounds[m + 1],
        }
    }
}

/// Encoding of [`Schedule`] into two lock-free cells so the pooled dispatch
/// path pays only relaxed loads (no enum behind a lock).
const SCHED_STATIC: u8 = 0;
const SCHED_MORSEL: u8 = 1;
const SCHED_GUIDED: u8 = 2;
const SCHED_AUTO: u8 = 3;

fn encode_schedule(schedule: Schedule) -> (u8, usize) {
    match schedule {
        Schedule::Static => (SCHED_STATIC, sched::DEFAULT_MORSEL_GRAIN),
        Schedule::Morsel { grain } => (SCHED_MORSEL, grain.max(1)),
        Schedule::Guided => (SCHED_GUIDED, sched::DEFAULT_MORSEL_GRAIN),
        Schedule::Auto => (SCHED_AUTO, sched::DEFAULT_MORSEL_GRAIN),
    }
}

fn decode_schedule(mode: u8, grain: usize) -> Schedule {
    match mode {
        SCHED_STATIC => Schedule::Static,
        SCHED_MORSEL => Schedule::Morsel { grain },
        SCHED_GUIDED => Schedule::Guided,
        _ => Schedule::Auto,
    }
}

struct ExecutorInner {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
    num_workers: usize,
    stats: StatsCells,
    /// Active [`Schedule`], split into a mode tag and a morsel grain so the
    /// dispatch fast path is two relaxed loads (see [`Executor::schedule`]).
    schedule_mode: AtomicU8,
    schedule_grain: AtomicUsize,
    /// Scheduling/balance counters (see [`Executor::schedule_stats`]).
    sched_stats: ScheduleCells,
    /// One balance slot per worker, reused across launches (launches never
    /// overlap — `run_on_pool` asserts `pending == 0`).
    balance: Vec<BalanceSlot>,
    /// Simulated fixed cost per launch, in nanoseconds (see
    /// [`Executor::set_launch_overhead`]).
    launch_overhead_ns: std::sync::atomic::AtomicU64,
    /// Grids at or below this size run inline (see
    /// [`Executor::set_sequential_grid_limit`]).
    sequential_grid_limit: AtomicUsize,
    /// Recording handle for launch spans (see [`Executor::set_tracer`]).
    tracer: RwLock<Tracer>,
    /// Cache of "is a live tracer installed": the disabled-tracing fast
    /// path is this one relaxed load and a branch per launch.
    trace_on: AtomicBool,
    /// Armed fault injector (see [`Executor::set_fault_injector`]);
    /// `fault_on` caches whether it can fail launches so the fault-free
    /// path of the `try_*` wrappers is one relaxed load and a branch.
    fault: RwLock<Option<FaultInjector>>,
    fault_on: AtomicBool,
    /// Installed cancellation token (see [`Executor::set_cancel_token`]);
    /// `cancel_on` caches whether one is present so the uncancellable path
    /// of [`Executor::check_cancelled`] is one relaxed load and a branch.
    cancel: RwLock<Option<CancelToken>>,
    cancel_on: AtomicBool,
}

/// Bulk-synchronous parallel executor: the reproduction's stand-in for a GPU.
///
/// Each launch models one CUDA kernel: a grid of `n` virtual threads, each
/// running the same closure on its own index, with an implicit barrier at the
/// end. Virtual threads are mapped onto a persistent pool of OS workers in
/// contiguous chunks, so output is deterministic and independent of the
/// worker count.
///
/// Cloning an `Executor` is cheap and shares the pool.
#[derive(Clone)]
pub struct Executor {
    inner: Arc<ExecutorInner>,
}

impl Executor {
    /// Creates an executor with `num_workers` OS worker threads (minimum 1).
    pub fn new(num_workers: usize) -> Self {
        let num_workers = num_workers.max(1);
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                task: None,
                generation: 0,
                pending: 0,
                shutdown: false,
            }),
            work_ready: Condvar::new(),
            work_done: Condvar::new(),
            panicked: AtomicBool::new(false),
        });
        let workers = (0..num_workers)
            .map(|id| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("gmc-dpp-worker-{id}"))
                    .spawn(move || worker_loop(&shared, id))
                    .expect("failed to spawn dpp worker thread")
            })
            .collect();
        let initial_schedule = Schedule::from_env();
        Self {
            inner: Arc::new(ExecutorInner {
                shared,
                workers,
                num_workers,
                stats: StatsCells::default(),
                schedule_mode: AtomicU8::new(encode_schedule(initial_schedule).0),
                schedule_grain: AtomicUsize::new(encode_schedule(initial_schedule).1),
                sched_stats: ScheduleCells::default(),
                balance: (0..num_workers).map(|_| BalanceSlot::default()).collect(),
                launch_overhead_ns: std::sync::atomic::AtomicU64::new(0),
                sequential_grid_limit: AtomicUsize::new(initial_sequential_grid_limit()),
                tracer: RwLock::new(Tracer::disabled()),
                trace_on: AtomicBool::new(false),
                fault: RwLock::new(None),
                fault_on: AtomicBool::new(false),
                cancel: RwLock::new(None),
                cancel_on: AtomicBool::new(false),
            }),
        }
    }

    /// Creates an executor sized to the machine's available parallelism.
    pub fn with_default_parallelism() -> Self {
        let n = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(4);
        Self::new(n)
    }

    /// Number of OS worker threads backing the pool.
    pub fn num_workers(&self) -> usize {
        self.inner.num_workers
    }

    /// Snapshot of launch counters accumulated so far.
    pub fn stats(&self) -> LaunchStats {
        self.inner.stats.snapshot()
    }

    /// Resets launch counters (including [`Executor::schedule_stats`]) to
    /// zero.
    pub fn reset_stats(&self) {
        self.inner.stats.reset();
        self.inner.sched_stats.reset();
    }

    /// Selects how pooled launches map virtual threads onto workers (see
    /// [`Schedule`]). Defaults to [`Schedule::Auto`], overridable at
    /// executor construction via the `GMC_SCHED` environment variable.
    /// Results are bit-identical under every schedule; this only tunes
    /// load balance versus dispatch overhead.
    ///
    /// Grids at or below [`Executor::sequential_grid_limit`] (and every
    /// launch on a single-worker executor) run inline regardless of the
    /// schedule — the inline check precedes the schedule load, so small
    /// grids never pay any scheduling cost.
    pub fn set_schedule(&self, schedule: Schedule) {
        let (mode, grain) = encode_schedule(schedule);
        self.inner.schedule_mode.store(mode, Ordering::Relaxed);
        self.inner.schedule_grain.store(grain, Ordering::Relaxed);
    }

    /// The active launch schedule — the exact pair of relaxed loads the
    /// pooled dispatch path pays per launch (probed by the
    /// `GMC_PERF_GATE=1` micro bench).
    #[inline]
    pub fn schedule(&self) -> Schedule {
        decode_schedule(
            self.inner.schedule_mode.load(Ordering::Relaxed),
            self.inner.schedule_grain.load(Ordering::Relaxed),
        )
    }

    /// Snapshot of scheduling and load-balance counters accumulated so far
    /// (see [`ScheduleStats`]); reset together with [`Executor::reset_stats`].
    pub fn schedule_stats(&self) -> ScheduleStats {
        self.inner.sched_stats.snapshot()
    }

    /// Installs a tracer: every subsequent launch records one span (kernel
    /// name, grid size, chunk count, inline-vs-pool path) into it. Pass
    /// [`Tracer::disabled`] to stop recording. With no (or a disabled)
    /// tracer installed, the per-launch cost is a single relaxed atomic
    /// load.
    pub fn set_tracer(&self, tracer: Tracer) {
        let on = tracer.is_enabled();
        *self.inner.tracer.write().unwrap() = tracer;
        self.inner.trace_on.store(on, Ordering::Relaxed);
    }

    /// The installed tracer (disabled when none was set). Primitives and
    /// solver phases use this to nest their own spans around launches.
    pub fn tracer(&self) -> Tracer {
        if !self.inner.trace_on.load(Ordering::Relaxed) {
            return Tracer::disabled();
        }
        self.inner.tracer.read().unwrap().clone()
    }

    /// Arms (or with `None` disarms) fault injection for the fallible
    /// `try_*` launch wrappers: each such launch first rolls the injector's
    /// launch fault and returns [`LaunchError`] — without running the
    /// kernel — when it fires. The infallible wrappers never consult the
    /// injector, so unplumbed call sites cannot panic while faults are
    /// armed; fault coverage is exactly the sites converted to `try_*`.
    pub fn set_fault_injector(&self, injector: Option<FaultInjector>) {
        let on = injector
            .as_ref()
            .is_some_and(|inj| inj.plan().launch_rate > 0.0);
        *self.inner.fault.write().unwrap() = injector;
        self.inner.fault_on.store(on, Ordering::Relaxed);
    }

    /// The armed fault injector, if any. Pipelines use this to reach the
    /// shared recovery counters without threading the injector by hand.
    pub fn fault_injector(&self) -> Option<FaultInjector> {
        self.inner.fault.read().unwrap().clone()
    }

    /// Whether a launch-faulting injector is armed — the exact relaxed load
    /// the `try_*` wrappers pay per launch when faults are disabled (probed
    /// by the `GMC_PERF_GATE=1` micro bench).
    #[inline]
    pub fn fault_armed(&self) -> bool {
        self.inner.fault_on.load(Ordering::Relaxed)
    }

    /// Installs (or with `None` removes) a cooperative cancellation token.
    /// Pipelines poll it at launch boundaries via
    /// [`Executor::check_cancelled`]; tripping the token makes the next
    /// poll fail with [`Cancelled`], which callers surface as
    /// `DeviceError::Cancelled` and unwind through the same RAII release
    /// path as device faults. With no token installed the poll is one
    /// relaxed load and a branch.
    pub fn set_cancel_token(&self, token: Option<CancelToken>) {
        let on = token.is_some();
        *self.inner.cancel.write().unwrap() = token;
        self.inner.cancel_on.store(on, Ordering::Relaxed);
    }

    /// The installed cancellation token, if any.
    pub fn cancel_token(&self) -> Option<CancelToken> {
        if !self.inner.cancel_on.load(Ordering::Relaxed) {
            return None;
        }
        self.inner.cancel.read().unwrap().clone()
    }

    /// Polls the installed cancellation token; `Err` means the caller must
    /// stop issuing launches and unwind. Pipelines call this at level and
    /// window boundaries — the bulk-synchronous points where control
    /// returns to the host — not inside kernels, mirroring how a host
    /// process can only stop *between* GPU launches.
    #[inline]
    pub fn check_cancelled(&self) -> Result<(), Cancelled> {
        if !self.inner.cancel_on.load(Ordering::Relaxed) {
            return Ok(());
        }
        self.poll_cancel_token()
    }

    /// Token-installed slow path, out of line so the uncancellable poll
    /// stays one relaxed load and a branch.
    #[cold]
    fn poll_cancel_token(&self) -> Result<(), Cancelled> {
        let guard = self.inner.cancel.read().unwrap();
        match guard.as_ref() {
            Some(token) => token.check(),
            None => Ok(()),
        }
    }

    /// Rolls one launch fault for `name`; `Err` means the launch must not
    /// run. The disabled path is one relaxed load and a branch. The `try_*`
    /// wrappers call this per launch; composite primitives (scan, select)
    /// call it once up front so a faulted call fails before mutating its
    /// output.
    #[inline]
    pub fn check_launch_fault(&self, name: &'static str) -> Result<(), LaunchError> {
        if !self.inner.fault_on.load(Ordering::Relaxed) {
            return Ok(());
        }
        self.roll_injected_launch(name)
    }

    /// Injected-launch slow path, out of line so the fault-free `try_*`
    /// launch stays one relaxed load and a branch.
    #[cold]
    fn roll_injected_launch(&self, name: &'static str) -> Result<(), LaunchError> {
        let guard = self.inner.fault.read().unwrap();
        let Some(step) = guard.as_ref().and_then(FaultInjector::roll_launch) else {
            return Ok(());
        };
        if self.inner.trace_on.load(Ordering::Relaxed) {
            let tracer = self.inner.tracer.read().unwrap();
            tracer.instant("fault_launch_injected", &[("step", step as i64)]);
        }
        Err(LaunchError { kernel: name, step })
    }

    /// Opens the per-launch span, or `None` on the disabled fast path. The
    /// chunk count is computed lazily so the traced-off path never pays for
    /// a morsel-count computation.
    #[inline]
    fn launch_span(
        &self,
        name: &'static str,
        n: usize,
        chunks: impl FnOnce() -> usize,
    ) -> Option<SpanGuard> {
        if !self.inner.trace_on.load(Ordering::Relaxed) {
            return None;
        }
        let tracer = self.inner.tracer.read().unwrap();
        if !tracer.is_enabled() {
            return None;
        }
        let chunks = chunks();
        Some(tracer.span_with(
            name,
            &[
                ("n", n as i64),
                ("chunks", chunks as i64),
                ("inline", i64::from(chunks == 1)),
            ],
        ))
    }

    /// Number of work units the active schedule will decompose an `n`-index
    /// launch into: `1` on the inline path, the worker count for static
    /// mappings, and the (worker-count-independent) morsel count for
    /// dynamic ones. Trace-span metadata only; [`Executor::num_chunks`]
    /// stays the contract for [`Executor::for_each_chunk`], which is always
    /// static (see the `crate::sched` module docs).
    fn planned_chunks(&self, n: usize, weighted: bool) -> usize {
        if n <= self.sequential_grid_limit() || self.inner.num_workers == 1 {
            return 1;
        }
        let schedule = self.schedule();
        match (schedule, weighted) {
            (Schedule::Static, _) | (Schedule::Auto, false) => self.inner.num_workers,
            (Schedule::Morsel { grain }, _) => sched::uniform_morsels(n, grain).1,
            (Schedule::Guided, false) => sched::guided_morsel_count(n),
            (Schedule::Guided | Schedule::Auto, true) => {
                sched::uniform_morsels(n, schedule.grain()).1
            }
        }
    }

    /// Models a fixed per-launch cost (CUDA kernel launch + synchronisation
    /// latency, typically a handful of microseconds). Zero by default.
    ///
    /// Real GPU programs pay this cost once per kernel; algorithms that
    /// multiply launch counts — like the paper's windowed search, which
    /// reruns the expansion loop per window — feel it directly. The
    /// experiment harness enables this so the windowed-vs-full runtime
    /// trade-off (paper §V-C2) has its physical cause represented.
    pub fn set_launch_overhead(&self, overhead: std::time::Duration) {
        self.inner
            .launch_overhead_ns
            .store(overhead.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Current simulated per-launch overhead.
    pub fn launch_overhead(&self) -> std::time::Duration {
        std::time::Duration::from_nanos(self.inner.launch_overhead_ns.load(Ordering::Relaxed))
    }

    /// Sets the grid size at or below which launches run inline on the
    /// calling thread instead of being dispatched to the worker pool.
    ///
    /// Defaults to [`DEFAULT_SEQUENTIAL_GRID_LIMIT`], overridable at
    /// executor construction via the `GMC_SEQ_GRID` environment variable.
    /// Results are identical either way; this only tunes dispatch overhead.
    pub fn set_sequential_grid_limit(&self, limit: usize) {
        self.inner
            .sequential_grid_limit
            .store(limit, Ordering::Relaxed);
    }

    /// Grid size at or below which launches run inline (see
    /// [`Executor::set_sequential_grid_limit`]).
    pub fn sequential_grid_limit(&self) -> usize {
        self.inner.sequential_grid_limit.load(Ordering::Relaxed)
    }

    /// Spin-waits the configured per-launch overhead (sleep granularity is
    /// far too coarse for microsecond costs).
    fn pay_launch_overhead(&self) {
        let ns = self.inner.launch_overhead_ns.load(Ordering::Relaxed);
        if ns == 0 {
            return;
        }
        let deadline = std::time::Instant::now() + std::time::Duration::from_nanos(ns);
        while std::time::Instant::now() < deadline {
            std::hint::spin_loop();
        }
    }

    /// Launches a grid of `n` virtual threads; virtual thread `i` runs
    /// `kernel(i)`. Blocks until all virtual threads complete (the kernel
    /// boundary barrier). The launch is attributed to
    /// [`DEFAULT_KERNEL_NAME`]; prefer [`Executor::for_each_indexed_named`]
    /// so stats and traces can tell kernels apart.
    pub fn for_each_indexed<F>(&self, n: usize, kernel: F)
    where
        F: Fn(usize) + Sync,
    {
        self.for_each_indexed_named(DEFAULT_KERNEL_NAME, n, kernel);
    }

    /// [`Executor::for_each_indexed`] with a kernel name for the per-kernel
    /// launch-stats breakdown and the trace span.
    pub fn for_each_indexed_named<F>(&self, name: &'static str, n: usize, kernel: F)
    where
        F: Fn(usize) + Sync,
    {
        self.inner.stats.record_launch(name, n);
        let _span = self.launch_span(name, n, || self.planned_chunks(n, false));
        self.dispatch_indexed(n, kernel);
    }

    /// Like [`Executor::for_each_indexed`] but records the launch as a
    /// *fused* one in [`LaunchStats::fused_launches`]: a kernel that folds
    /// the work of several logical pipeline stages (e.g. count + emit) into
    /// a single launch. Dispatch semantics are identical.
    pub fn for_each_indexed_fused<F>(&self, n: usize, kernel: F)
    where
        F: Fn(usize) + Sync,
    {
        self.for_each_indexed_fused_named(DEFAULT_KERNEL_NAME, n, kernel);
    }

    /// [`Executor::for_each_indexed_fused`] with a kernel name for the
    /// per-kernel launch-stats breakdown and the trace span.
    pub fn for_each_indexed_fused_named<F>(&self, name: &'static str, n: usize, kernel: F)
    where
        F: Fn(usize) + Sync,
    {
        self.inner.stats.record_fused_launch(name, n);
        let _span = self.launch_span(name, n, || self.planned_chunks(n, false));
        self.dispatch_indexed(n, kernel);
    }

    /// Fallible [`Executor::for_each_indexed_named`]: rolls the armed fault
    /// injector first and returns [`LaunchError`] — with the kernel not run
    /// and nothing recorded — when it fires. Production pipeline launch
    /// sites call this so injected launch faults surface as errors the
    /// solver recovers from instead of panics.
    pub fn try_for_each_indexed_named<F>(
        &self,
        name: &'static str,
        n: usize,
        kernel: F,
    ) -> Result<(), LaunchError>
    where
        F: Fn(usize) + Sync,
    {
        self.check_launch_fault(name)?;
        self.for_each_indexed_named(name, n, kernel);
        Ok(())
    }

    /// Fallible [`Executor::for_each_indexed_fused_named`]; see
    /// [`Executor::try_for_each_indexed_named`].
    pub fn try_for_each_indexed_fused_named<F>(
        &self,
        name: &'static str,
        n: usize,
        kernel: F,
    ) -> Result<(), LaunchError>
    where
        F: Fn(usize) + Sync,
    {
        self.check_launch_fault(name)?;
        self.for_each_indexed_fused_named(name, n, kernel);
        Ok(())
    }

    /// Fallible [`Executor::for_each_chunk_named`]; see
    /// [`Executor::try_for_each_indexed_named`].
    pub fn try_for_each_chunk_named<F>(
        &self,
        name: &'static str,
        n: usize,
        body: F,
    ) -> Result<(), LaunchError>
    where
        F: Fn(usize, std::ops::Range<usize>) + Sync,
    {
        self.check_launch_fault(name)?;
        self.for_each_chunk_named(name, n, body);
        Ok(())
    }

    /// Fallible [`Executor::fill_indexed_named`]; see
    /// [`Executor::try_for_each_indexed_named`]. On `Err` the output slice
    /// is untouched.
    pub fn try_fill_indexed_named<T, F>(
        &self,
        name: &'static str,
        out: &mut [T],
        kernel: F,
    ) -> Result<(), LaunchError>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        self.check_launch_fault(name)?;
        self.fill_indexed_named(name, out, kernel);
        Ok(())
    }

    /// Fallible [`Executor::map_indexed_named`]; see
    /// [`Executor::try_for_each_indexed_named`].
    pub fn try_map_indexed_named<T, F>(
        &self,
        name: &'static str,
        n: usize,
        kernel: F,
    ) -> Result<Vec<T>, LaunchError>
    where
        T: Send + Copy + Default,
        F: Fn(usize) -> T + Sync,
    {
        self.check_launch_fault(name)?;
        Ok(self.map_indexed_named(name, n, kernel))
    }

    /// [`Executor::for_each_indexed`] with per-entry cost hints: under a
    /// dynamic [`Schedule`] (including the default [`Schedule::Auto`]),
    /// morsel boundaries are cut where the summed cost crosses equal
    /// fractions of the total, so one expensive stretch of indices spreads
    /// over many claimable morsels instead of serialising one worker.
    ///
    /// `cost(i)` is a *hint* for virtual thread `i`'s relative expense
    /// (candidate-list length, CSR degree, …); it may be called more than
    /// once per index and must be cheap and pure. Results are bit-identical
    /// to the unweighted launch under every schedule and worker count — the
    /// decomposition is a pure function of `(n, grain, costs)`.
    pub fn for_each_weighted<C, F>(&self, n: usize, cost: C, kernel: F)
    where
        C: Fn(usize) -> u64 + Sync,
        F: Fn(usize) + Sync,
    {
        self.for_each_weighted_named(DEFAULT_KERNEL_NAME, n, cost, kernel);
    }

    /// [`Executor::for_each_weighted`] with a kernel name for the
    /// per-kernel launch-stats breakdown and the trace span.
    pub fn for_each_weighted_named<C, F>(&self, name: &'static str, n: usize, cost: C, kernel: F)
    where
        C: Fn(usize) -> u64 + Sync,
        F: Fn(usize) + Sync,
    {
        self.inner.stats.record_launch(name, n);
        let _span = self.launch_span(name, n, || self.planned_chunks(n, true));
        self.dispatch_weighted(n, &cost, kernel);
    }

    /// Fused-kernel variant of [`Executor::for_each_weighted_named`] (see
    /// [`Executor::for_each_indexed_fused`] for what "fused" counts).
    pub fn for_each_weighted_fused_named<C, F>(
        &self,
        name: &'static str,
        n: usize,
        cost: C,
        kernel: F,
    ) where
        C: Fn(usize) -> u64 + Sync,
        F: Fn(usize) + Sync,
    {
        self.inner.stats.record_fused_launch(name, n);
        let _span = self.launch_span(name, n, || self.planned_chunks(n, true));
        self.dispatch_weighted(n, &cost, kernel);
    }

    /// Fallible [`Executor::for_each_weighted_named`]; see
    /// [`Executor::try_for_each_indexed_named`]. Rolls the fault injector
    /// exactly once, before any planning pass runs — weighted launches
    /// consume the same number of fault steps as unweighted ones.
    pub fn try_for_each_weighted_named<C, F>(
        &self,
        name: &'static str,
        n: usize,
        cost: C,
        kernel: F,
    ) -> Result<(), LaunchError>
    where
        C: Fn(usize) -> u64 + Sync,
        F: Fn(usize) + Sync,
    {
        self.check_launch_fault(name)?;
        self.for_each_weighted_named(name, n, cost, kernel);
        Ok(())
    }

    /// Fallible [`Executor::for_each_weighted_fused_named`]; see
    /// [`Executor::try_for_each_weighted_named`].
    pub fn try_for_each_weighted_fused_named<C, F>(
        &self,
        name: &'static str,
        n: usize,
        cost: C,
        kernel: F,
    ) -> Result<(), LaunchError>
    where
        C: Fn(usize) -> u64 + Sync,
        F: Fn(usize) + Sync,
    {
        self.check_launch_fault(name)?;
        self.for_each_weighted_fused_named(name, n, cost, kernel);
        Ok(())
    }

    fn dispatch_indexed<F>(&self, n: usize, kernel: F)
    where
        F: Fn(usize) + Sync,
    {
        self.pay_launch_overhead();
        if n == 0 {
            return;
        }
        // The inline check runs before the schedule is even loaded: grids
        // at or below the sequential limit pay zero scheduling cost no
        // matter which `Schedule` is active.
        if n <= self.sequential_grid_limit() || self.inner.num_workers == 1 {
            for i in 0..n {
                kernel(i);
            }
            return;
        }
        match self.schedule() {
            // `Auto` without cost hints has no reason to pay claim traffic.
            Schedule::Static | Schedule::Auto => self.run_static(n, &kernel),
            Schedule::Morsel { grain } => {
                let (grain, count) = sched::uniform_morsels(n, grain);
                self.run_dynamic(n, Boundaries::Uniform { grain, count }, false, &kernel);
            }
            Schedule::Guided => {
                let bounds = sched::guided_boundaries(n);
                self.run_dynamic(n, Boundaries::Explicit(&bounds), false, &kernel);
            }
        }
    }

    fn dispatch_weighted<F, C>(&self, n: usize, cost: &C, kernel: F)
    where
        F: Fn(usize) + Sync,
        C: Fn(usize) -> u64 + Sync,
    {
        self.pay_launch_overhead();
        if n == 0 {
            return;
        }
        if n <= self.sequential_grid_limit() || self.inner.num_workers == 1 {
            for i in 0..n {
                kernel(i);
            }
            return;
        }
        let schedule = self.schedule();
        if schedule == Schedule::Static {
            // Static ignores cost hints entirely (the ablation baseline).
            self.run_static(n, &kernel);
            return;
        }
        // Every dynamic mode — `Auto` included — cuts morsel boundaries at
        // approximately equal cost, with the morsel *count* taken from the
        // uniform decomposition at the schedule's grain so it stays a pure
        // function of `(n, grain)`.
        let (grain, count) = sched::uniform_morsels(n, schedule.grain());
        match self.cost_boundaries(n, count, cost) {
            Some(bounds) => self.run_dynamic(n, Boundaries::Explicit(&bounds), true, &kernel),
            // All-zero costs carry no balance information: fall back to the
            // uniform decomposition at the same grain.
            None => self.run_dynamic(n, Boundaries::Uniform { grain, count }, true, &kernel),
        }
    }

    /// The historical one-contiguous-chunk-per-worker mapping, plus the
    /// per-worker balance measurement every pooled launch records.
    fn run_static<F>(&self, n: usize, kernel: &F)
    where
        F: Fn(usize) + Sync,
    {
        let workers = self.inner.num_workers;
        let chunk = n.div_ceil(workers);
        self.reset_balance();
        self.run_on_pool(&|worker_id: usize| {
            let start = worker_id * chunk;
            if start >= n {
                return;
            }
            let began = Instant::now();
            let end = (start + chunk).min(n);
            for i in start..end {
                kernel(i);
            }
            let slot = &self.inner.balance[worker_id];
            slot.claims.store(1, Ordering::Relaxed);
            slot.busy_ns
                .store(began.elapsed().as_nanos() as u64, Ordering::Relaxed);
        });
        self.record_balance(false, false, n.div_ceil(chunk));
    }

    /// Dynamic morsel claiming: workers pull morsel indices from a shared
    /// cursor until it runs past the (deterministic, worker-count
    /// independent) decomposition. Kernels write disjoint index ranges, so
    /// any claim order produces identical memory at the closing barrier.
    fn run_dynamic<F>(&self, n: usize, boundaries: Boundaries<'_>, weighted: bool, kernel: &F)
    where
        F: Fn(usize) + Sync,
    {
        let count = boundaries.count();
        let cursor = AtomicUsize::new(0);
        self.reset_balance();
        self.run_on_pool(&|worker_id: usize| {
            let began = Instant::now();
            let mut claims = 0u64;
            loop {
                let m = cursor.fetch_add(1, Ordering::Relaxed);
                if m >= count {
                    break;
                }
                claims += 1;
                for i in boundaries.range(m, n) {
                    kernel(i);
                }
            }
            if claims > 0 {
                let slot = &self.inner.balance[worker_id];
                slot.claims.store(claims, Ordering::Relaxed);
                slot.busy_ns
                    .store(began.elapsed().as_nanos() as u64, Ordering::Relaxed);
            }
        });
        self.record_balance(true, weighted, count);
    }

    /// Clears the per-worker balance slots before a pooled launch (launches
    /// never overlap, so the slots are safely reused).
    fn reset_balance(&self) {
        for slot in &self.inner.balance {
            slot.claims.store(0, Ordering::Relaxed);
            slot.busy_ns.store(0, Ordering::Relaxed);
        }
    }

    /// Aggregates the balance slots of the launch that just completed into
    /// [`ScheduleStats`] and — when tracing — a `sched_balance` instant plus
    /// a `sched_imbalance_x100` counter track.
    fn record_balance(&self, dynamic: bool, weighted: bool, morsels: usize) {
        let mut max_claims = 0u64;
        let mut makespan = 0u64;
        let mut busy_total = 0u64;
        let mut engaged = 0u64;
        for slot in &self.inner.balance {
            let claims = slot.claims.load(Ordering::Relaxed);
            if claims == 0 {
                continue;
            }
            let busy = slot.busy_ns.load(Ordering::Relaxed);
            max_claims = max_claims.max(claims);
            makespan = makespan.max(busy);
            busy_total += busy;
            engaged += 1;
        }
        let mean = busy_total.checked_div(engaged).unwrap_or(0);
        self.inner.sched_stats.record(
            dynamic,
            weighted,
            morsels as u64,
            max_claims,
            makespan,
            mean,
        );
        if self.inner.trace_on.load(Ordering::Relaxed) {
            let tracer = self.inner.tracer.read().unwrap();
            if tracer.is_enabled() {
                tracer.instant(
                    "sched_balance",
                    &[
                        ("morsels", morsels as i64),
                        ("max_worker_morsels", max_claims as i64),
                        ("makespan_ns", makespan as i64),
                        ("mean_chunk_ns", mean as i64),
                        ("dynamic", i64::from(dynamic)),
                    ],
                );
                if let Some(imbalance) = makespan.saturating_mul(100).checked_div(mean) {
                    tracer.counter("sched_imbalance_x100", imbalance as i64);
                }
            }
        }
    }

    /// Cuts `morsels` boundaries over `0..n` at approximately equal summed
    /// cost: boundary `k` is the smallest index whose inclusive cost prefix
    /// reaches `k/morsels` of the total (exact integer rule — see
    /// [`sched::emit_cost_crossings`]). Returns `None` when the costs sum
    /// to zero. The result is a pure function of `(n, morsels, costs)`:
    /// the sequential planner and the chunk-parallel planner (used past
    /// [`WEIGHT_PLAN_PARALLEL_THRESHOLD`]) produce bit-identical cuts for
    /// every worker count.
    ///
    /// The planner passes run through raw [`Executor::run_on_pool`]: they
    /// are internal to the launch, so they record no stats, open no spans,
    /// and never roll fault injection — `GMC_FAULTS` step counting is
    /// identical under every schedule.
    fn cost_boundaries<C>(&self, n: usize, morsels: usize, cost: &C) -> Option<Vec<usize>>
    where
        C: Fn(usize) -> u64 + Sync,
    {
        if morsels <= 1 {
            return None;
        }
        if n < WEIGHT_PLAN_PARALLEL_THRESHOLD {
            // Sequential planner: one summing pass, one crossing walk.
            let mut total = 0u64;
            for i in 0..n {
                total = total.saturating_add(cost(i));
            }
            if total == 0 {
                return None;
            }
            let mut bounds = vec![0usize; morsels + 1];
            bounds[morsels] = n;
            let total_wide = u128::from(total);
            let mut prefix = 0u64;
            let mut next_k = 1usize;
            for i in 0..n {
                let after = prefix.saturating_add(cost(i));
                sched::emit_cost_crossings(
                    morsels,
                    total_wide,
                    prefix,
                    after,
                    i,
                    &mut next_k,
                    |k, b| {
                        bounds[k] = b;
                    },
                );
                prefix = after;
            }
            return Some(bounds);
        }
        // Chunk-parallel planner (the executor's two-phase scan shape):
        // per-chunk partial sums, a host exclusive scan over them, then a
        // per-chunk crossing walk. Interior boundary `k` is written by
        // exactly one chunk (the one whose prefix range straddles
        // `k/morsels` of the total), so the writes are disjoint.
        let workers = self.inner.num_workers;
        let chunk = n.div_ceil(workers);
        let chunks = n.div_ceil(chunk);
        let mut partials = vec![0u64; chunks];
        {
            let shared = crate::SharedSlice::new(&mut partials);
            self.run_on_pool(&|worker_id: usize| {
                let start = worker_id * chunk;
                if start >= n {
                    return;
                }
                let end = (start + chunk).min(n);
                let mut sum = 0u64;
                for i in start..end {
                    sum = sum.saturating_add(cost(i));
                }
                // SAFETY: each worker writes exactly its own chunk slot.
                unsafe { shared.write(worker_id, sum) };
            });
        }
        let mut chunk_prefix = vec![0u64; chunks];
        let mut total = 0u64;
        for (slot, partial) in chunk_prefix.iter_mut().zip(&partials) {
            *slot = total;
            total = total.saturating_add(*partial);
        }
        if total == 0 {
            return None;
        }
        let mut bounds = vec![0usize; morsels + 1];
        bounds[morsels] = n;
        {
            let shared = crate::SharedSlice::new(&mut bounds);
            let total_wide = u128::from(total);
            self.run_on_pool(&|worker_id: usize| {
                let start = worker_id * chunk;
                if start >= n {
                    return;
                }
                let end = (start + chunk).min(n);
                let mut prefix = chunk_prefix[worker_id];
                let mut next_k = sched::first_crossing_k(morsels, total_wide, prefix);
                for i in start..end {
                    if next_k >= morsels {
                        break;
                    }
                    let after = prefix.saturating_add(cost(i));
                    sched::emit_cost_crossings(
                        morsels,
                        total_wide,
                        prefix,
                        after,
                        i,
                        &mut next_k,
                        // SAFETY: crossing `k` straddles exactly one chunk's
                        // prefix range, so each slot has a single writer.
                        |k, b| unsafe { shared.write(k, b) },
                    );
                    prefix = after;
                }
            });
        }
        Some(bounds)
    }

    /// Partitions `0..n` into one contiguous range per worker and runs
    /// `body(range)` on each. Used by primitives that need per-chunk partial
    /// results; `num_chunks(n)` gives the number of ranges produced.
    pub fn for_each_chunk<F>(&self, n: usize, body: F)
    where
        F: Fn(usize, std::ops::Range<usize>) + Sync,
    {
        self.for_each_chunk_named(DEFAULT_KERNEL_NAME, n, body);
    }

    /// [`Executor::for_each_chunk`] with a kernel name for the per-kernel
    /// launch-stats breakdown and the trace span.
    pub fn for_each_chunk_named<F>(&self, name: &'static str, n: usize, body: F)
    where
        F: Fn(usize, std::ops::Range<usize>) + Sync,
    {
        self.inner.stats.record_launch(name, n);
        let _span = self.launch_span(name, n, || self.num_chunks(n));
        self.pay_launch_overhead();
        if n == 0 {
            return;
        }
        let chunks = self.num_chunks(n);
        if chunks == 1 {
            body(0, 0..n);
            return;
        }
        let chunk = n.div_ceil(chunks);
        self.run_on_pool(&|worker_id: usize| {
            let start = worker_id * chunk;
            if start < n {
                let end = (start + chunk).min(n);
                body(worker_id, start..end);
            }
        });
    }

    /// Records a launch of `name` whose work a primitive ran inline on the
    /// calling thread because its grid fits one chunk. Launch counts then
    /// name the primitive's logical kernels, the same at every worker count
    /// and grid size, and the simulated launch overhead is paid alike.
    pub(crate) fn record_inline_launch(&self, name: &'static str, n: usize) {
        self.inner.stats.record_launch(name, n);
        self.pay_launch_overhead();
    }

    /// The number of chunks [`Executor::for_each_chunk`] will produce for an
    /// `n`-element problem.
    pub fn num_chunks(&self, n: usize) -> usize {
        if n <= self.sequential_grid_limit() || self.inner.num_workers == 1 {
            1
        } else {
            self.inner.num_workers
        }
    }

    /// Fills `out[i] = kernel(i)` for every `i`.
    pub fn fill_indexed<T, F>(&self, out: &mut [T], kernel: F)
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        self.fill_indexed_named(DEFAULT_KERNEL_NAME, out, kernel);
    }

    /// [`Executor::fill_indexed`] with a kernel name for the per-kernel
    /// launch-stats breakdown and the trace span.
    pub fn fill_indexed_named<T, F>(&self, name: &'static str, out: &mut [T], kernel: F)
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let shared = crate::SharedSlice::new(out);
        self.for_each_indexed_named(name, shared.len(), |i| {
            // SAFETY: each virtual thread writes exactly its own index.
            unsafe { shared.write(i, kernel(i)) };
        });
    }

    /// Allocates a vector of length `n` with `v[i] = kernel(i)`.
    pub fn map_indexed<T, F>(&self, n: usize, kernel: F) -> Vec<T>
    where
        T: Send + Copy + Default,
        F: Fn(usize) -> T + Sync,
    {
        self.map_indexed_named(DEFAULT_KERNEL_NAME, n, kernel)
    }

    /// [`Executor::map_indexed`] with a kernel name for the per-kernel
    /// launch-stats breakdown and the trace span.
    pub fn map_indexed_named<T, F>(&self, name: &'static str, n: usize, kernel: F) -> Vec<T>
    where
        T: Send + Copy + Default,
        F: Fn(usize) -> T + Sync,
    {
        let mut out = vec![T::default(); n];
        self.fill_indexed_named(name, &mut out, kernel);
        out
    }

    fn run_on_pool(&self, task: &(dyn Fn(usize) + Sync)) {
        let shared = &self.inner.shared;
        // SAFETY: the lifetime is erased here, but this function does not
        // return until every worker has finished running the task, so the
        // borrow outlives all uses.
        let ptr = TaskPtr(unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), *const (dyn Fn(usize) + Sync)>(task)
        });
        {
            let mut st = shared.lock_state();
            debug_assert_eq!(st.pending, 0, "overlapping launches are not allowed");
            st.task = Some(ptr);
            st.generation += 1;
            st.pending = self.inner.num_workers;
            shared.work_ready.notify_all();
            while st.pending > 0 {
                st = shared
                    .work_done
                    .wait(st)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
            st.task = None;
        }
        if shared.panicked.swap(false, Ordering::Relaxed) {
            panic!("a gmc-dpp worker thread panicked during a launch");
        }
    }
}

impl Drop for ExecutorInner {
    fn drop(&mut self) {
        {
            let mut st = self.shared.lock_state();
            st.shutdown = true;
            self.shared.work_ready.notify_all();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor")
            .field("num_workers", &self.inner.num_workers)
            .finish()
    }
}

fn worker_loop(shared: &PoolShared, worker_id: usize) {
    let mut last_generation = 0u64;
    loop {
        let task = {
            let mut st = shared.lock_state();
            loop {
                if st.shutdown {
                    return;
                }
                if let Some(task) = st.task {
                    if st.generation != last_generation {
                        last_generation = st.generation;
                        break task;
                    }
                }
                st = shared
                    .work_ready
                    .wait(st)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        // SAFETY: the launcher keeps the task alive until `pending == 0`,
        // which we only signal after the call returns.
        let call = AssertUnwindSafe(|| unsafe { (*task.0)(worker_id) });
        if std::panic::catch_unwind(call).is_err() {
            shared.panicked.store(true, Ordering::Relaxed);
        }
        let mut st = shared.lock_state();
        st.pending -= 1;
        if st.pending == 0 {
            shared.work_done.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn for_each_visits_every_index_once() {
        let exec = Executor::new(4);
        let n = 100_000;
        let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        exec.for_each_indexed(n, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn map_indexed_matches_sequential() {
        let exec = Executor::new(3);
        let out = exec.map_indexed(50_000, |i| (i * i) as u64);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, (i * i) as u64);
        }
    }

    #[test]
    fn small_grids_run_inline() {
        let exec = Executor::new(8);
        let before = exec.stats();
        let out = exec.map_indexed(10, |i| i as u32);
        assert_eq!(out, (0..10u32).collect::<Vec<_>>());
        let after = exec.stats();
        assert_eq!(after.since(&before).launches, 1);
        assert_eq!(after.since(&before).virtual_threads, 10);
    }

    #[test]
    fn repeated_launches_are_stable() {
        let exec = Executor::new(4);
        for round in 0..50 {
            let out = exec.map_indexed(10_000, |i| (i + round) as u64);
            assert_eq!(out[0], round as u64);
            assert_eq!(out[9999], (9999 + round) as u64);
        }
    }

    #[test]
    fn single_worker_executor_works() {
        let exec = Executor::new(1);
        let out = exec.map_indexed(5000, |i| i as u32 * 2);
        assert_eq!(out[4999], 9998);
    }

    #[test]
    fn chunks_cover_range_disjointly() {
        let exec = Executor::new(4);
        let n = 100_000;
        let covered: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        exec.for_each_chunk(n, |_, range| {
            for i in range {
                covered[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(covered.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn executor_clone_shares_stats() {
        let exec = Executor::new(2);
        let clone = exec.clone();
        exec.for_each_indexed(10, |_| {});
        assert_eq!(clone.stats().launches, 1);
    }

    #[test]
    fn launch_overhead_is_paid_per_launch() {
        let exec = Executor::new(1);
        exec.set_launch_overhead(std::time::Duration::from_micros(200));
        assert_eq!(
            exec.launch_overhead(),
            std::time::Duration::from_micros(200)
        );
        let start = std::time::Instant::now();
        for _ in 0..50 {
            exec.for_each_indexed(1, |_| {});
        }
        let elapsed = start.elapsed();
        assert!(
            elapsed >= std::time::Duration::from_millis(10),
            "50 launches at 200µs each should take ≥ 10ms, took {elapsed:?}"
        );
        exec.set_launch_overhead(std::time::Duration::ZERO);
    }

    #[test]
    fn launch_boundaries_are_barriers() {
        // The kernel-boundary contract `for_each_indexed` guarantees: every
        // write from launch k is visible to every virtual thread of launch
        // k+1, no matter how virtual threads map onto workers. A ping-pong
        // chain of dependent launches detects any missing barrier — a
        // single stale read would corrupt all subsequent iterations.
        let n = 50_000;
        for workers in [1, 2, 4, 7] {
            let exec = Executor::new(workers);
            let mut a: Vec<u64> = (0..n as u64).collect();
            let mut b = vec![0u64; n];
            for _ in 0..8 {
                let src = crate::SharedSlice::new(&mut a);
                let dst = crate::SharedSlice::new(&mut b);
                exec.for_each_indexed(n, |i| {
                    // Each element reads two locations written by the
                    // *previous* launch.
                    let left = unsafe { src.read(i) };
                    let right = unsafe { src.read((i + 1) % n) };
                    unsafe { dst.write(i, left.wrapping_add(right)) };
                });
                std::mem::swap(&mut a, &mut b);
            }
            // Reference: the same chain run sequentially.
            let mut ra: Vec<u64> = (0..n as u64).collect();
            let mut rb = vec![0u64; n];
            for _ in 0..8 {
                for i in 0..n {
                    rb[i] = ra[i].wrapping_add(ra[(i + 1) % n]);
                }
                std::mem::swap(&mut ra, &mut rb);
            }
            assert_eq!(a, ra, "workers {workers}: a launch boundary leaked");
        }
    }

    #[test]
    fn pool_matches_scoped_thread_execution() {
        // The pool's chunked dispatch must be observationally identical to
        // running the same contiguous chunks on plain `std::thread::scope`
        // threads — the scoped-thread semantics the executor stands in for.
        let n = 60_000;
        let exec = Executor::new(4);
        let pool_out = exec.map_indexed(n, |i| (i as u64).wrapping_mul(0x9E3779B97F4A7C15));

        let mut scoped_out = vec![0u64; n];
        let chunk = n.div_ceil(4);
        std::thread::scope(|scope| {
            for (w, slot) in scoped_out.chunks_mut(chunk).enumerate() {
                scope.spawn(move || {
                    for (k, out) in slot.iter_mut().enumerate() {
                        let i = w * chunk + k;
                        *out = (i as u64).wrapping_mul(0x9E3779B97F4A7C15);
                    }
                });
            }
        });
        assert_eq!(pool_out, scoped_out);
    }

    #[test]
    fn sequential_grid_limit_is_tunable() {
        let exec = Executor::new(4);
        assert_eq!(exec.sequential_grid_limit(), DEFAULT_SEQUENTIAL_GRID_LIMIT);
        assert_eq!(exec.num_chunks(DEFAULT_SEQUENTIAL_GRID_LIMIT + 1), 4);
        exec.set_sequential_grid_limit(0);
        assert_eq!(exec.sequential_grid_limit(), 0);
        assert_eq!(exec.num_chunks(1), 4);
        exec.set_sequential_grid_limit(usize::MAX);
        assert_eq!(exec.num_chunks(1 << 20), 1);
        // Results stay correct at both extremes.
        for limit in [0, usize::MAX] {
            exec.set_sequential_grid_limit(limit);
            let out = exec.map_indexed(10_000, |i| i as u32 + 1);
            assert_eq!(out[9999], 10_000);
        }
    }

    #[test]
    fn fused_launches_are_counted_separately() {
        let exec = Executor::new(2);
        let before = exec.stats();
        exec.for_each_indexed(100, |_| {});
        exec.for_each_indexed_fused(100, |_| {});
        exec.for_each_indexed_fused(100, |_| {});
        let delta = exec.stats().since(&before);
        assert_eq!(delta.launches, 3);
        assert_eq!(delta.fused_launches, 2);
        assert_eq!(delta.virtual_threads, 300);
    }

    #[test]
    fn named_launches_break_down_per_kernel() {
        let exec = Executor::new(2);
        let before = exec.stats();
        exec.for_each_indexed_named("alpha", 100, |_| {});
        exec.for_each_indexed_fused_named("beta", 50, |_| {});
        exec.for_each_indexed(25, |_| {});
        let delta = exec.stats().since(&before);
        assert_eq!(delta.kernel("alpha").launches, 1);
        assert_eq!(delta.kernel("alpha").virtual_threads, 100);
        assert_eq!(delta.kernel("beta").fused_launches, 1);
        assert_eq!(delta.kernel(DEFAULT_KERNEL_NAME).virtual_threads, 25);
    }

    #[test]
    fn launches_emit_spans_when_a_tracer_is_installed() {
        let session = gmc_trace::TraceSession::new();
        let exec = Executor::new(2);
        exec.set_tracer(session.tracer());
        exec.for_each_indexed_named("traced_kernel", 100, |_| {});
        exec.for_each_indexed_named("traced_kernel", 1 << 14, |_| {});
        exec.set_tracer(Tracer::disabled());
        exec.for_each_indexed_named("untraced_kernel", 10, |_| {});
        let timeline = session.finish();
        let spans: Vec<_> = timeline
            .spans
            .iter()
            .filter(|s| s.name == "traced_kernel")
            .collect();
        assert_eq!(spans.len(), 2);
        assert!(spans[0].args.contains(&("n", 100)));
        assert!(
            spans[0].args.contains(&("inline", 1)),
            "small grid is inline"
        );
        assert!(spans[1].args.contains(&("chunks", 2)));
        assert!(
            spans[1].args.contains(&("inline", 0)),
            "big grid uses the pool"
        );
        assert!(
            !timeline.spans.iter().any(|s| s.name == "untraced_kernel"),
            "no spans after the tracer is removed"
        );
    }

    #[test]
    fn fused_dispatch_matches_plain_dispatch() {
        let exec = Executor::new(4);
        let n = 50_000;
        let mut out = vec![0u64; n];
        let shared = crate::SharedSlice::new(&mut out);
        exec.for_each_indexed_fused(n, |i| unsafe { shared.write(i, (i * 3) as u64) });
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, (i * 3) as u64);
        }
    }

    #[test]
    fn armed_try_launches_fail_without_running_or_recording() {
        let exec = Executor::new(2);
        let plan: crate::fault::FaultPlan = "launch=1".parse().unwrap();
        let injector = crate::fault::FaultInjector::new(plan);
        exec.set_fault_injector(Some(injector.clone()));
        assert!(exec.fault_armed());
        let before = exec.stats();
        let ran = AtomicU64::new(0);
        let err = exec
            .try_for_each_indexed_named("faulted_kernel", 100, |_| {
                ran.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap_err();
        assert_eq!(err.kernel, "faulted_kernel");
        assert_eq!(ran.load(Ordering::Relaxed), 0, "kernel must not run");
        assert_eq!(
            exec.stats().since(&before).launches,
            0,
            "a failed launch is not a launch"
        );
        assert_eq!(injector.stats().injected_launches, 1);
        exec.set_fault_injector(None);
        assert!(!exec.fault_armed());
        assert!(exec.try_for_each_indexed_named("ok", 10, |_| {}).is_ok());
    }

    #[test]
    fn unarmed_try_launches_match_infallible_ones() {
        let exec = Executor::new(3);
        let mapped = exec
            .try_map_indexed_named("try_map", 10_000, |i| i as u64 * 3)
            .unwrap();
        assert_eq!(mapped[9999], 29_997);
        let mut filled = vec![0u32; 5000];
        exec.try_fill_indexed_named("try_fill", &mut filled, |i| i as u32)
            .unwrap();
        assert_eq!(filled[4999], 4999);
        let hits: Vec<AtomicU64> = (0..5000).map(|_| AtomicU64::new(0)).collect();
        exec.try_for_each_chunk_named("try_chunk", 5000, |_, range| {
            for i in range {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        })
        .unwrap();
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        exec.try_for_each_indexed_fused_named("try_fused", 100, |_| {})
            .unwrap();
    }

    #[test]
    fn alloc_only_plans_do_not_arm_the_executor() {
        let exec = Executor::new(2);
        let plan: crate::fault::FaultPlan = "alloc=1".parse().unwrap();
        exec.set_fault_injector(Some(crate::fault::FaultInjector::new(plan)));
        assert!(!exec.fault_armed());
        for _ in 0..50 {
            assert!(exec
                .try_for_each_indexed_named("never_fails", 8, |_| {})
                .is_ok());
        }
        assert!(
            exec.fault_injector().is_some(),
            "injector is still reachable"
        );
    }

    #[test]
    fn schedule_round_trips_through_accessor() {
        let exec = Executor::new(2);
        for schedule in [
            Schedule::Static,
            Schedule::Morsel { grain: 512 },
            Schedule::Morsel {
                grain: sched::DEFAULT_MORSEL_GRAIN,
            },
            Schedule::Guided,
            Schedule::Auto,
        ] {
            exec.set_schedule(schedule);
            assert_eq!(exec.schedule(), schedule);
        }
        exec.set_schedule(Schedule::Auto);
    }

    #[test]
    fn every_schedule_visits_every_index_once() {
        let n = 100_000;
        for workers in [1, 2, 8] {
            let exec = Executor::new(workers);
            for schedule in [
                Schedule::Static,
                Schedule::Morsel { grain: 777 },
                Schedule::Guided,
                Schedule::Auto,
            ] {
                exec.set_schedule(schedule);
                let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
                exec.for_each_indexed(n, |i| {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                });
                assert!(
                    hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                    "workers {workers}, schedule {schedule}"
                );
            }
        }
    }

    #[test]
    fn weighted_launches_visit_every_index_once_under_every_schedule() {
        let n = 60_000;
        // Adversarial skew: one stretch of indices carries almost all cost.
        let cost = |i: usize| if i < 500 { 10_000u64 } else { 1 };
        for workers in [1, 2, 8] {
            let exec = Executor::new(workers);
            for schedule in [
                Schedule::Static,
                Schedule::Morsel { grain: 1024 },
                Schedule::Guided,
                Schedule::Auto,
            ] {
                exec.set_schedule(schedule);
                let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
                exec.for_each_weighted(n, cost, |i| {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                });
                assert!(
                    hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                    "workers {workers}, schedule {schedule}"
                );
            }
        }
    }

    #[test]
    fn zero_and_degenerate_cost_weighted_launches_cover_the_grid() {
        let exec = Executor::new(4);
        exec.set_schedule(Schedule::Morsel { grain: 512 });
        for cost_fn in [
            (|_| 0u64) as fn(usize) -> u64,
            |_| u64::MAX,
            |i| i as u64 % 3,
        ] {
            let n = 50_000;
            let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
            exec.for_each_weighted(n, cost_fn, |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        }
    }

    #[test]
    fn cost_boundaries_are_identical_across_worker_counts() {
        // Both planner shapes (sequential below the threshold, chunked
        // above) and every worker count must produce the same cut: the
        // boundary rule is a pure function of `(n, morsels, costs)`.
        let cost = |i: usize| ((i as u64).wrapping_mul(0x9E3779B97F4A7C15) >> 56) + 1;
        for n in [10_000usize, WEIGHT_PLAN_PARALLEL_THRESHOLD + 12_345] {
            let morsels = 64;
            // Reference: the crossing rule evaluated naively.
            let total: u128 = (0..n).map(|i| u128::from(cost(i))).sum();
            let mut reference = vec![0usize; morsels + 1];
            reference[morsels] = n;
            let mut prefix: u128 = 0;
            let mut k = 1;
            for i in 0..n {
                prefix += u128::from(cost(i));
                while k < morsels && prefix * morsels as u128 >= k as u128 * total {
                    reference[k] = i + 1;
                    k += 1;
                }
            }
            for workers in [2, 3, 8] {
                let exec = Executor::new(workers);
                let bounds = exec.cost_boundaries(n, morsels, &cost).unwrap();
                assert_eq!(bounds, reference, "workers {workers}, n {n}");
            }
        }
    }

    #[test]
    fn dynamic_schedules_take_the_inline_path_on_small_grids() {
        let exec = Executor::new(8);
        exec.set_schedule(Schedule::Morsel { grain: 16 });
        let before = exec.schedule_stats();
        let out = exec.map_indexed(DEFAULT_SEQUENTIAL_GRID_LIMIT, |i| i as u32);
        assert_eq!(out[100], 100);
        exec.for_each_weighted(64, |_| 1, |_| {});
        let delta = exec.schedule_stats().since(&before);
        assert_eq!(delta.pool_launches, 0, "small grids never touch the pool");
        exec.set_schedule(Schedule::Auto);
    }

    #[test]
    fn schedule_stats_classify_launches() {
        let n = 100_000;
        let exec = Executor::new(4);
        exec.set_schedule(Schedule::Static);
        let before = exec.schedule_stats();
        exec.for_each_indexed(n, |_| {});
        let after_static = exec.schedule_stats().since(&before);
        assert_eq!(after_static.pool_launches, 1);
        assert_eq!(after_static.dynamic_launches, 0);
        assert_eq!(after_static.morsels, 4, "one chunk per worker");

        exec.set_schedule(Schedule::Morsel { grain: 1024 });
        let before = exec.schedule_stats();
        exec.for_each_indexed(n, |_| {});
        let dynamic = exec.schedule_stats().since(&before);
        assert_eq!(dynamic.pool_launches, 1);
        assert_eq!(dynamic.dynamic_launches, 1);
        assert_eq!(dynamic.weighted_launches, 0);
        assert_eq!(
            dynamic.morsels, 98,
            "100k at grain 1024, worker-independent"
        );
        assert!(dynamic.max_worker_morsels >= dynamic.morsels.div_ceil(4));
        assert!(dynamic.makespan_ns >= dynamic.mean_chunk_ns);
        assert!(dynamic.imbalance() >= 1.0);

        let before = exec.schedule_stats();
        exec.for_each_weighted(n, |i| i as u64, |_| {});
        let weighted = exec.schedule_stats().since(&before);
        assert_eq!(weighted.dynamic_launches, 1);
        assert_eq!(weighted.weighted_launches, 1);
        assert_eq!(weighted.morsels, 98, "cost cut keeps the uniform count");

        exec.reset_stats();
        assert_eq!(exec.schedule_stats(), ScheduleStats::default());
        exec.set_schedule(Schedule::Auto);
    }

    #[test]
    fn auto_schedule_is_static_for_unweighted_and_dynamic_for_weighted() {
        let n = 100_000;
        let exec = Executor::new(4);
        assert_eq!(exec.schedule(), Schedule::Auto);
        let before = exec.schedule_stats();
        exec.for_each_indexed(n, |_| {});
        exec.for_each_weighted(n, |_| 1, |_| {});
        let delta = exec.schedule_stats().since(&before);
        assert_eq!(delta.pool_launches, 2);
        assert_eq!(delta.dynamic_launches, 1, "only the weighted launch claims");
        assert_eq!(delta.weighted_launches, 1);
    }

    #[test]
    fn armed_weighted_try_launches_roll_exactly_one_fault_step() {
        let exec = Executor::new(2);
        let plan: crate::fault::FaultPlan = "launch=1".parse().unwrap();
        let injector = crate::fault::FaultInjector::new(plan);
        exec.set_fault_injector(Some(injector.clone()));
        let ran = AtomicU64::new(0);
        let err = exec
            .try_for_each_weighted_named(
                "weighted_faulted",
                100_000,
                |_| 1,
                |_| {
                    ran.fetch_add(1, Ordering::Relaxed);
                },
            )
            .unwrap_err();
        assert_eq!(err.kernel, "weighted_faulted");
        assert_eq!(ran.load(Ordering::Relaxed), 0, "kernel must not run");
        assert_eq!(injector.stats().injected_launches, 1);
        // The cost planner never rolls: an unarmed-rate injector sees the
        // same step count whether the launch is weighted or not.
        exec.set_fault_injector(None);
        exec.try_for_each_weighted_named("weighted_ok", 100_000, |i| i as u64, |_| {})
            .unwrap();
    }

    #[test]
    fn worker_panic_propagates() {
        let exec = Executor::new(2);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            exec.for_each_indexed(100_000, |i| {
                assert!(i < 50_000, "boom");
            });
        }));
        assert!(result.is_err());
        // The pool must still be usable afterwards.
        let out = exec.map_indexed(10_000, |i| i as u32);
        assert_eq!(out[123], 123);
    }
}
