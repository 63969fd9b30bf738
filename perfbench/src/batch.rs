//! Batch sweeps: every graph of the workload solved once per sweep through
//! `MaxCliqueSolver::solve`, each answer checked: at 1 worker for the
//! end-to-end metrics, at 2 workers (and once at 1) in the traced run.

use crate::inputs::{Graph, Reference};
use crate::layers::{Counters, LayerTimes};
use crate::stats::{calm, ms, quantile, Metrics, MIB};
use crate::workload::Workload;
use gmc_dpp::{Device, TraceSession};
use gmc_mce::{MaxCliqueSolver, SolveResult, SolverConfig};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Per-solve samples `solve_ms.p90.w1` needs at least.
const MIN_SOLVE_SAMPLES: usize = 100;

/// Sweeps a run makes at least.
const MIN_SWEEPS: usize = 3;

/// The largest share of a graph's solves the end-to-end solve times keep.
const CALM_SHARE: f64 = 0.25;

/// Events each thread's trace ring first holds per traced sweep. A sweep
/// whose ring overflows is run again with a ring sized to fit it; a run
/// whose rings still overflow fails rather than report partial layer times.
const TRACE_RING_EVENTS: usize = 1 << 18;

/// Operations attempted, failed (OOM, cancellation, fault give-up,
/// refusal, rejection, or over the latency limit) and answered wrongly.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub wrong: u64,
}

impl Tally {
    pub fn absorb(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
    }

    pub fn fail_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Prints the first few failures of a run; the tally counts them all.
pub fn log_failure(message: &str) {
    static LOGGED: AtomicUsize = AtomicUsize::new(0);
    if LOGGED.fetch_add(1, Ordering::Relaxed) < 5 {
        eprintln!("perfbench: {message}");
    }
}

/// Solves `graph`, checks the answer and tallies the outcome. Returns the
/// solve's wall time, ms, and the result when it succeeded.
fn solve_checked(
    solver: &MaxCliqueSolver,
    graph: &Graph,
    reference: &Reference,
    tally: &mut Tally,
) -> (f64, Option<SolveResult>) {
    tally.attempted += 1;
    let tracer = &solver.config().trace;
    let span = tracer.is_enabled().then(|| tracer.span("bench.solve"));
    let start = Instant::now();
    let outcome = solver.solve(std::hint::black_box(&graph.csr));
    let elapsed = ms(start.elapsed());
    drop(span);
    match outcome {
        Ok(result) => {
            let complete = result.complete_enumeration;
            let ok = reference.matches(result.clique_number, &result.cliques, complete)
                && (complete || gmc_mce::verify_result(&graph.csr, &result).is_ok());
            if !ok {
                tally.wrong += 1;
                eprintln!(
                    "perfbench: WRONG answer on {}: ω {} vs reference {}",
                    graph.name, result.clique_number, reference.omega
                );
            }
            (elapsed, Some(result))
        }
        Err(err) => {
            tally.failed += 1;
            log_failure(&format!("solve of {} failed: {err}", graph.name));
            (elapsed, None)
        }
    }
}

/// One sweep over every graph: per-solve wall times (ms) and the
/// successful results.
fn sweep(
    solver: &MaxCliqueSolver,
    graphs: &[Graph],
    reference: &[Reference],
    tally: &mut Tally,
) -> (Vec<f64>, Vec<(usize, SolveResult)>) {
    let mut times = Vec::new();
    let mut results = Vec::new();
    for (i, graph) in graphs.iter().enumerate() {
        let (elapsed, result) = solve_checked(solver, graph, &reference[i], tally);
        times.push(elapsed);
        results.extend(result.map(|r| (i, r)));
    }
    (times, results)
}

fn solvers(workload: &Workload) -> (MaxCliqueSolver, MaxCliqueSolver) {
    let config = workload.config();
    let at = |workers| {
        MaxCliqueSolver::with_config(Device::new(workers, workload.budget_bytes), config.clone())
    };
    (at(2), at(1))
}

/// Untraced 1-worker sweeps for the end-to-end metrics, taking turns with
/// the serve phase's rounds.
///
/// The end-to-end timings are taken at 1 worker: at 1 worker every launch
/// runs inline on the calling thread, while at 2 workers each pooled
/// launch hands work to another thread, and on a host with few cores that
/// hand-off takes as long as the scheduler makes it. The traced run
/// reports the 2-worker sweep as `dpp.sweep_s.w2`.
pub struct Sweeper {
    w1: MaxCliqueSolver,
    /// Per-solve wall times of each sweep, ms.
    solve_ms: Vec<Vec<f64>>,
    peak_bytes: usize,
    /// Wall time spent sweeping so far, s.
    busy_s: f64,
}

impl Sweeper {
    /// A 1-worker solver, warmed up by one checked and counted but untimed
    /// sweep.
    pub fn new(
        workload: &Workload,
        graphs: &[Graph],
        reference: &[Reference],
        tally: &mut Tally,
    ) -> Self {
        let (_, w1) = solvers(workload);
        let (_, warm) = sweep(&w1, graphs, reference, tally);
        let peak_bytes = warm
            .iter()
            .map(|(_, r)| r.stats.heuristic_peak_bytes.max(r.stats.peak_device_bytes))
            .sum();
        Sweeper {
            w1,
            solve_ms: Vec::new(),
            peak_bytes,
            busy_s: 0.0,
        }
    }

    /// Wall time spent sweeping so far, s.
    pub fn busy_s(&self) -> f64 {
        self.busy_s
    }

    /// Sweeps on until there are [`MIN_SWEEPS`] sweeps, [`MIN_SOLVE_SAMPLES`]
    /// solves, and [`CALM_SHARE`] of the sweeps hold each graph's
    /// [`calm_k`] fastest solves at most.
    pub fn top_up(&mut self, graphs: &[Graph], reference: &[Reference], tally: &mut Tally) {
        let min_sweeps = MIN_SWEEPS.max((calm_k(graphs.len()) as f64 / CALM_SHARE).ceil() as usize);
        while self.solve_ms.len() < min_sweeps || self.solves() < MIN_SOLVE_SAMPLES {
            self.sweep(graphs, reference, tally);
        }
        eprintln!(
            "perfbench: batch: {} sweeps at 1 worker ({} solves), {:.2} s",
            self.solve_ms.len(),
            self.solves(),
            self.busy_s
        );
    }

    /// One timed sweep over every graph.
    pub fn sweep(&mut self, graphs: &[Graph], reference: &[Reference], tally: &mut Tally) {
        let start = Instant::now();
        let (times, _) = sweep(&self.w1, graphs, reference, tally);
        self.solve_ms.push(times);
        self.busy_s += start.elapsed().as_secs_f64();
    }

    fn solves(&self) -> usize {
        self.solve_ms.iter().map(Vec::len).sum()
    }

    /// Each graph's solve times, ms, one per sweep.
    fn per_graph(&self) -> Vec<Vec<f64>> {
        let graphs = self.solve_ms.first().map_or(0, Vec::len);
        (0..graphs)
            .map(|g| self.solve_ms.iter().map(|s| s[g]).collect())
            .collect()
    }

    /// `sweep_s.w1` sums each graph's [`calm`] solve time over its
    /// [`calm_k`] fastest solves; `solve_ms.*` are quantiles of those
    /// fastest solves of all graphs pooled.
    pub fn report(&self, out: &mut Metrics) {
        let per_graph = self.per_graph();
        let k = calm_k(per_graph.len());
        let mut pooled = Vec::with_capacity(k * per_graph.len());
        for times in &per_graph {
            let mut sorted = times.clone();
            sorted.sort_by(f64::total_cmp);
            pooled.extend(sorted.into_iter().take(k));
        }
        eprintln!(
            "perfbench: solve_ms over the {k} fastest of each graph's {} solves ({} in all)",
            self.solve_ms.len(),
            pooled.len()
        );
        let sweep_ms: f64 = per_graph.iter().map(|t| calm(t, k)).sum();
        out.add("sweep_s.w1", sweep_ms / 1e3, "s");
        out.add("solve_ms.p50.w1", quantile(&pooled, 0.5), "ms");
        out.add("solve_ms.p90.w1", quantile(&pooled, 0.9), "ms");
        out.add("peak_device_mib", self.peak_bytes as f64 / MIB, "MiB");
    }
}

/// How many of each graph's solves the end-to-end solve times keep: its
/// fastest (see [`calm`]), as many as make [`MIN_SOLVE_SAMPLES`] over all
/// graphs. Keeping them per graph, rather than whole fastest sweeps, needs
/// a calm moment per solve instead of a calm sweep.
fn calm_k(graphs: usize) -> usize {
    MIN_SOLVE_SAMPLES.div_ceil(graphs.max(1))
}

/// Traced and untraced sweeps for the per-layer metrics.
pub struct Traced {
    pub untraced_s: Vec<f64>,
    pub traced_s: Vec<f64>,
    /// Span self times summed over the traced sweeps.
    pub layers: LayerTimes,
    /// Solver counters of the warm-up 2-worker sweep.
    pub counters: Counters,
    /// Launches of one sweep at 2 and at 1 worker.
    pub launches_w2: u64,
    pub launches_w1: u64,
    /// Direct `run_heuristic` and `preview_setup` calls, ms per sweep.
    pub heuristic_call_ms: Vec<f64>,
    pub preview_call_ms: Vec<f64>,
}

/// Alternates untraced and traced 2-worker sweeps until `seconds` have
/// passed and each kind has [`MIN_SWEEPS`] sweeps; one 1-worker sweep
/// gives the launch count at 1 worker.
pub fn traced(
    workload: &Workload,
    graphs: &[Graph],
    reference: &[Reference],
    seconds: f64,
    tally: &mut Tally,
) -> Traced {
    let (w2, w1) = solvers(workload);
    let config = workload.config();
    let (_, warm) = sweep(&w2, graphs, reference, tally);
    let (_, at_one) = sweep(&w1, graphs, reference, tally);
    let launches = |results: &[(usize, SolveResult)]| -> u64 {
        results.iter().map(|(_, r)| r.stats.launches.launches).sum()
    };
    let mut out = Traced {
        untraced_s: Vec::new(),
        traced_s: Vec::new(),
        layers: LayerTimes::default(),
        counters: Counters::default(),
        launches_w2: launches(&warm),
        launches_w1: launches(&at_one),
        heuristic_call_ms: Vec::new(),
        preview_call_ms: Vec::new(),
    };
    for (i, result) in &warm {
        out.counters.absorb(&result.stats, reference[*i].omega);
    }
    let mut ring_events = TRACE_RING_EVENTS;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds || out.traced_s.len() < MIN_SWEEPS {
        let (times, _) = sweep(&w2, graphs, reference, tally);
        out.untraced_s.push(times.iter().sum::<f64>() / 1e3);

        let mut attempt = |ring_events| {
            let session = TraceSession::with_capacity(ring_events);
            let traced_solver = w2.clone().trace(session.tracer());
            let (times, _) = sweep(&traced_solver, graphs, reference, tally);
            (times, session.finish())
        };
        let (mut times, mut timeline) = attempt(ring_events);
        if timeline.dropped > 0 {
            let events =
                timeline.spans.len() * 2 + timeline.instants.len() + timeline.counters.len();
            ring_events = (events + timeline.dropped).next_power_of_two();
            (times, timeline) = attempt(ring_events);
        }
        out.traced_s.push(times.iter().sum::<f64>() / 1e3);
        out.layers.absorb(&timeline);

        let (heuristic, preview) = direct_calls(w2.device(), &config, graphs);
        out.heuristic_call_ms.push(heuristic);
        out.preview_call_ms.push(preview);
    }
    eprintln!(
        "perfbench: traced batch: {} untraced and {} traced sweeps, {:.2} s",
        out.untraced_s.len(),
        out.traced_s.len(),
        start.elapsed().as_secs_f64()
    );
    out
}

/// Times `run_heuristic` and `preview_setup` (heuristic plus setup) called
/// directly on every swept graph; ms summed over the sweep.
fn direct_calls(device: &Device, config: &SolverConfig, graphs: &[Graph]) -> (f64, f64) {
    let mut heuristic = 0.0;
    let mut preview = 0.0;
    for graph in graphs {
        let start = Instant::now();
        let result = gmc_heuristic::run_heuristic(
            device,
            &graph.csr,
            config.heuristic,
            config.heuristic_seeds,
        );
        heuristic += ms(start.elapsed());
        std::hint::black_box(result.is_ok());
        let start = Instant::now();
        let result = gmc_mce::preview_setup(device, &graph.csr, config);
        preview += ms(start.elapsed());
        std::hint::black_box(result.is_ok());
    }
    (heuristic, preview)
}
