//! The serve phase: one submitter thread offers jobs to a `SolveService`
//! of one slot through `try_submit`, and one collector thread blocks on
//! the job handles in submission order and stamps each completion. The
//! single slot serves jobs in the order they were accepted, so waiting in
//! that order stamps every completion when it happens; neither thread
//! polls.
//!
//! Saturation rounds keep the queue full; the slot's time per job, from
//! picking it up to picking up the next (submission time plus the queue
//! wait the service reports), gives `serve_max_rps`. The traced run adds two fixed rates with seeded
//! Poisson arrivals, whose latency runs from each job's due time, so a
//! late submitter or a growing queue shows in every later job. A refused
//! (`QueueFull`), rejected, cancelled or failed job counts as infinite
//! latency. Each round starts its own service, so it begins with an empty
//! cache.

use crate::batch::{log_failure, Tally};
use crate::inputs::{start_service, Graph, Reference};
use crate::stats::{calm, median, ms, quantile, Metrics, MIB};
use crate::workload::{Role, Workload};
use gmc_dpp::Rng;
use gmc_serve::{JobHandle, ServeError, ServeStats, ServedSolve, SolveJob};
use gmc_trace::LogHistogram;
use std::collections::BTreeMap;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Share of the traced run's serve time of each fixed rate.
const FIXED_RATE_SHARE: f64 = 0.5;

/// A phase runs in rounds of about `ROUND_JOBS` jobs, at least
/// `MIN_ROUNDS` of them. `serve_ms.p99.*` is the median of the rounds'
/// p99, so a stall that hits one round cannot move it.
const MIN_ROUNDS: usize = 6;
const ROUND_JOBS: usize = 16;

/// Jobs a saturation round keeps outstanding: enough that the slot never
/// waits for the submitter.
const SATURATION_WINDOW: usize = 4;

/// `serve_max_rps` keeps the fastest `1 / CALM_PART` of each job kind's
/// service times (see [`calm`]).
const CALM_PART: usize = 10;

/// How a phase offers its jobs.
#[derive(Clone, Copy, PartialEq)]
enum Arrivals {
    /// A Poisson process of this many jobs/s, conditioned on the job
    /// count: due times uniform over the round, sorted, so the offered
    /// rate is exact.
    Poisson(f64),
    /// A new job as soon as one of [`SATURATION_WINDOW`] completes.
    Saturated,
}

/// One phase, run in one or more rounds.
struct Phase {
    arrivals: Arrivals,
    /// Rounds a fixed-rate phase runs; saturation rounds run on demand.
    rounds: usize,
    jobs_per_round: usize,
    /// Latency of every offered job from its due time, ms; infinite when
    /// the job was refused or failed.
    latency_ms: Vec<f64>,
    /// The p99 of each round.
    round_p99_ms: Vec<f64>,
    /// Saturated rounds: each served job's service time, ms, by kind
    /// (graph, cache hit): from the slot picking it up to the slot picking
    /// up the next job. Pick-up times come from the submission times and
    /// the queue waits the service reports, so no thread's wake-up enters
    /// them; host noise only ever adds to them.
    service_ms: BTreeMap<(usize, bool), Vec<f64>>,
    refused: u64,
    lag_max_ms: f64,
    stats: Vec<ServeStats>,
}

impl Phase {
    fn p50(&self) -> f64 {
        median(&self.latency_ms)
    }

    fn p99(&self) -> f64 {
        median(&self.round_p99_ms)
    }

    /// Jobs per second one slot completes when the host is calm: the
    /// served jobs over the sum of their kinds' [`calm`] service times.
    fn rps(&self) -> f64 {
        let mut jobs = 0;
        let mut total_ms = 0.0;
        for times in self.service_ms.values() {
            jobs += times.len();
            total_ms += times.len() as f64 * calm(times, times.len().div_ceil(CALM_PART));
        }
        jobs as f64 / total_ms * 1e3
    }
}

/// The serve phase of one run: the saturation rounds and, in the traced
/// run, two fixed Poisson rates.
pub struct Served {
    pub tally: Tally,
    rng: Rng,
    low: Phase,
    high: Phase,
    saturated: Phase,
    busy_s: f64,
}

impl Served {
    /// Plans the fixed-rate phases for `seconds` of serve time (none for
    /// none); runs nothing.
    pub fn new(workload: &Workload, graphs: &[Graph], seed: u64, seconds: f64) -> Self {
        let plan = &workload.serve;
        Served {
            tally: Tally::default(),
            rng: Rng::seed_from_u64(seed ^ 0x5e7e_5e7e),
            low: Phase::plan(
                workload,
                graphs,
                Arrivals::Poisson(plan.low_rps),
                seconds * FIXED_RATE_SHARE,
            ),
            high: Phase::plan(
                workload,
                graphs,
                Arrivals::Poisson(plan.high_rps),
                seconds * FIXED_RATE_SHARE,
            ),
            saturated: Phase::plan(workload, graphs, Arrivals::Saturated, 0.0),
            busy_s: 0.0,
        }
    }

    /// Steps [`Served::step`] takes to run both fixed-rate phases.
    pub fn steps(&self) -> usize {
        self.low.rounds.max(self.high.rounds)
    }

    /// Runs round `i` of each fixed-rate phase that has one.
    pub fn step(
        &mut self,
        i: usize,
        workload: &Workload,
        graphs: &[Graph],
        reference: &[Reference],
    ) {
        let start = Instant::now();
        for phase in [&mut self.low, &mut self.high] {
            if i < phase.rounds {
                phase.round(workload, graphs, reference, &mut self.rng, &mut self.tally);
            }
        }
        self.busy_s += start.elapsed().as_secs_f64();
    }

    /// Runs one more saturation round. The untraced run, which reports
    /// only `serve_max_rps`, runs these alone, as many as its time allows.
    pub fn saturated_round(
        &mut self,
        workload: &Workload,
        graphs: &[Graph],
        reference: &[Reference],
    ) {
        let start = Instant::now();
        self.saturated
            .round(workload, graphs, reference, &mut self.rng, &mut self.tally);
        self.busy_s += start.elapsed().as_secs_f64();
    }

    /// Wall time spent serving so far, s.
    pub fn busy_s(&self) -> f64 {
        self.busy_s
    }

    /// Counts the fixed-rate jobs over the latency limit as failed.
    pub fn finish(&mut self, workload: &Workload) {
        let limit_ms = workload.serve.limit_ms;
        self.tally.failed += [&self.low, &self.high]
            .iter()
            .flat_map(|p| &p.latency_ms)
            .filter(|l| l.is_finite() && **l > limit_ms)
            .count() as u64;
        for (name, phase) in [("low", &self.low), ("high", &self.high)] {
            if !phase.latency_ms.is_empty() {
                eprintln!(
                    "perfbench: serve: {name} rate {} jobs, p50 {:.2} ms, p99 {:.2} ms",
                    phase.latency_ms.len(),
                    phase.p50(),
                    phase.p99()
                );
            }
        }
        if !self.saturated.latency_ms.is_empty() {
            eprintln!(
                "perfbench: serve: saturated {} jobs, {:.1} jobs/s",
                self.saturated.latency_ms.len(),
                self.saturated.rps()
            );
        }
        eprintln!("perfbench: serve phase {:.2} s", self.busy_s);
    }
}

/// Picks the graph of each job of a round. Exactly `oversize_share` of
/// the jobs (rounded) take an oversize graph, at random positions, so
/// every round's tail holds the same number of them. Of the rest, each
/// repeats an earlier job of the round with the probability that makes
/// `repeat_share` of all jobs repeats, or else takes the next graph of the
/// pool, walked in order from a random start.
fn job_graphs(workload: &Workload, graphs: &[Graph], jobs: usize, rng: &mut Rng) -> Vec<usize> {
    let plan = &workload.serve;
    let pool: Vec<usize> = (0..graphs.len())
        .filter(|&i| graphs[i].role == Role::Pool)
        .collect();
    let oversize: Vec<usize> = (0..graphs.len())
        .filter(|&i| graphs[i].role == Role::Oversize)
        .collect();
    let mut next_pool = rng.gen_range(0..pool.len());
    let mut next_oversize = rng.gen_range(0..oversize.len().max(1));
    let oversize_jobs = if oversize.is_empty() {
        0
    } else {
        (jobs as f64 * plan.oversize_share).round() as usize
    };
    let mut is_oversize: Vec<bool> = (0..jobs).map(|j| j < oversize_jobs).collect();
    rng.shuffle(&mut is_oversize);
    let repeat_p = plan.repeat_share / (1.0 - plan.oversize_share);
    let mut picks: Vec<usize> = Vec::with_capacity(jobs);
    for oversized in is_oversize {
        let pick = if oversized {
            next_oversize = (next_oversize + 1) % oversize.len();
            oversize[next_oversize]
        } else if rng.gen_f64() < repeat_p && !picks.is_empty() {
            picks[rng.gen_range(0..picks.len())]
        } else {
            next_pool = (next_pool + 1) % pool.len();
            pool[next_pool]
        };
        picks.push(pick);
    }
    picks
}

/// Waits on each accepted job's handle in submission order and stamps its
/// completion, s since the round's start. Each completion also sends a
/// token on `done`, which the saturated submitter waits for.
fn collect(
    t0: Instant,
    handles: mpsc::Receiver<(usize, JobHandle)>,
    done: mpsc::Sender<()>,
) -> Vec<(usize, f64, Result<ServedSolve, ServeError>)> {
    let mut completions = Vec::new();
    for (j, handle) in handles {
        let outcome = handle.wait();
        completions.push((j, t0.elapsed().as_secs_f64(), outcome));
        // The submitter stops listening once it has offered every job.
        let _ = done.send(());
    }
    completions
}

impl Phase {
    /// Plans a fixed rate for about `seconds`, in rounds of about
    /// [`ROUND_JOBS`] jobs, at least [`MIN_ROUNDS`] of them (none for no
    /// time).
    fn plan(workload: &Workload, graphs: &[Graph], arrivals: Arrivals, seconds: f64) -> Phase {
        let plan = &workload.serve;
        let pool = graphs.iter().filter(|g| g.role == Role::Pool).count();
        // Every round offers the same mix of graphs: on a workload without
        // repeats whole passes over the pool, otherwise exactly one
        // oversize job per round.
        let round_jobs = if plan.oversize_share > 0.0 {
            (1.0 / plan.oversize_share).round() as usize
        } else {
            pool * (ROUND_JOBS / pool).max(1)
        };
        // With a result cache, a round's fresh jobs must all be distinct.
        let fresh = round_jobs as f64 * (1.0 - plan.repeat_share - plan.oversize_share);
        assert!(plan.cache_bytes == 0 || fresh <= pool as f64);
        let rounds = match arrivals {
            Arrivals::Poisson(_) if seconds <= 0.0 => 0,
            Arrivals::Poisson(rate) => {
                ((rate * seconds / round_jobs as f64).round() as usize).max(MIN_ROUNDS)
            }
            Arrivals::Saturated => 0,
        };
        Phase {
            arrivals,
            rounds,
            jobs_per_round: round_jobs,
            latency_ms: Vec::with_capacity(rounds * round_jobs),
            round_p99_ms: Vec::with_capacity(rounds),
            service_ms: BTreeMap::new(),
            refused: 0,
            lag_max_ms: 0.0,
            stats: Vec::with_capacity(rounds),
        }
    }

    /// Runs one round against a new service, so it begins with an empty
    /// cache.
    fn round(
        &mut self,
        workload: &Workload,
        graphs: &[Graph],
        reference: &[Reference],
        rng: &mut Rng,
        tally: &mut Tally,
    ) {
        let jobs = self.jobs_per_round;
        let picks = job_graphs(workload, graphs, jobs, rng);
        let mut due_s: Vec<f64> = match self.arrivals {
            Arrivals::Poisson(rate) => (0..jobs)
                .map(|_| rng.gen_f64() * jobs as f64 / rate)
                .collect(),
            // Set to the submission time as each job goes in.
            Arrivals::Saturated => vec![0.0; jobs],
        };
        due_s.sort_by(f64::total_cmp);

        let service = start_service(workload);
        let config = workload.config();
        let t0 = Instant::now();
        let completions = std::thread::scope(|scope| {
            let (handle_tx, handle_rx) = mpsc::channel();
            let (done_tx, done_rx) = mpsc::channel();
            let collector = scope.spawn(move || collect(t0, handle_rx, done_tx));
            let mut outstanding = 0usize;
            for j in 0..jobs {
                match self.arrivals {
                    Arrivals::Poisson(_) => {
                        let due = Duration::from_secs_f64(due_s[j]);
                        let now = t0.elapsed();
                        if now < due {
                            std::thread::sleep(due - now);
                        }
                        let lag = t0.elapsed().saturating_sub(due);
                        self.lag_max_ms = self.lag_max_ms.max(ms(lag));
                    }
                    Arrivals::Saturated => {
                        if outstanding == SATURATION_WINDOW {
                            // The collector holds the sender until every
                            // accepted job has completed.
                            done_rx.recv().expect("collector ended early");
                            outstanding -= 1;
                        }
                        due_s[j] = t0.elapsed().as_secs_f64();
                    }
                }
                tally.attempted += 1;
                let job = SolveJob::new(graphs[picks[j]].csr.clone()).config(config.clone());
                match service.try_submit(job) {
                    Ok(handle) => {
                        outstanding += 1;
                        handle_tx.send((j, handle)).expect("collector ended early");
                    }
                    Err(err) => {
                        if err == ServeError::QueueFull {
                            self.refused += 1;
                        }
                        tally.failed += 1;
                    }
                }
            }
            drop(handle_tx);
            collector.join().expect("collector panicked")
        });
        self.stats.push(service.shutdown());

        let mut latency_ms = vec![f64::INFINITY; jobs];
        for (j, done_s, outcome) in &completions {
            let g = picks[*j];
            match outcome {
                Ok(served) => {
                    latency_ms[*j] = (done_s - due_s[*j]).max(0.0) * 1e3;
                    let s = &served.solve;
                    if !reference[g].matches(s.clique_number, &s.cliques, s.complete_enumeration) {
                        tally.wrong += 1;
                        eprintln!("perfbench: WRONG served answer on {}", graphs[g].name);
                    }
                }
                Err(err) => {
                    tally.failed += 1;
                    log_failure(&format!("job on {} failed: {err}", graphs[g].name));
                }
            }
        }
        self.round_p99_ms.push(quantile(&latency_ms, 0.99));
        self.latency_ms.extend(latency_ms);
        if self.arrivals == Arrivals::Saturated {
            // When the slot picked each served job up, s since `t0`: its
            // submission plus the queue wait the service reports for it.
            let pickups: Vec<(usize, f64, bool)> = completions
                .iter()
                .filter_map(|(j, _, outcome)| {
                    let served = outcome.as_ref().ok()?;
                    Some((
                        *j,
                        due_s[*j] + served.queue_wait.as_secs_f64(),
                        served.cache_hit,
                    ))
                })
                .collect();
            for pair in pickups.windows(2) {
                let ((j, pickup_s, hit), (next, next_pickup_s, _)) = (pair[0], pair[1]);
                // The slot went straight on to the next job only if that
                // job was already queued when it picked this one up.
                if next == j + 1 && due_s[next] <= pickup_s {
                    let times = self.service_ms.entry((picks[j], hit)).or_default();
                    times.push((next_pickup_s - pickup_s) * 1e3);
                }
            }
        }
    }
}

impl Served {
    /// The end-to-end serve metric.
    pub fn report(&self, out: &mut Metrics) {
        out.add("serve_max_rps", self.saturated.rps(), "jobs/s");
    }

    /// The serve-side per-layer metrics, over both fixed-rate phases.
    pub fn report_layers(&self, out: &mut Metrics) {
        out.add("serve_ms.p50.low", self.low.p50(), "ms");
        out.add("serve_ms.p50.high", self.high.p50(), "ms");
        out.add("serve_ms.p99.low", self.low.p99(), "ms");
        out.add("serve_ms.p99.high", self.high.p99(), "ms");
        let stats: Vec<&ServeStats> = self.low.stats.iter().chain(&self.high.stats).collect();
        let mut wait = LogHistogram::new();
        for s in &stats {
            wait.merge(&s.queue_wait);
        }
        out.add("queue.wait_ms.p50", wait.quantile(0.5) as f64 / 1e6, "ms");
        out.add("queue.wait_ms.p99", wait.quantile(0.99) as f64 / 1e6, "ms");
        out.add(
            "queue.full",
            (self.low.refused + self.high.refused) as f64,
            "count",
        );
        let sum = |f: fn(&ServeStats) -> u64| stats.iter().map(|s| f(s)).sum::<u64>() as f64;
        out.add("admission.down_windows", sum(|s| s.down_windows), "count");
        out.add("admission.demotions", sum(|s| s.bitmap_demotions), "count");
        out.add("admission.rejections", sum(|s| s.rejections), "count");
        let lookups = sum(|s| s.cache_hits + s.cache_misses);
        out.add(
            "cache.hit_rate",
            sum(|s| s.cache_hits) / lookups.max(1.0),
            "ratio",
        );
        let cache_bytes = stats.iter().map(|s| s.cache_bytes).max().unwrap_or(0);
        out.add("cache.mib", cache_bytes as f64 / MIB, "MiB");
        let solved = sum(|s| s.cache_misses - s.rejections);
        let solve_ns = sum(|s| s.solve_time.as_nanos() as u64);
        out.add("serve.solve_ms", solve_ns / 1e6 / solved.max(1.0), "ms");
        let lag = self.low.lag_max_ms.max(self.high.lag_max_ms);
        out.add("loadgen.lag_ms.max", lag, "ms");
    }
}
