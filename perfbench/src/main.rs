//! `perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sparse|dense|windowed|serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One run generates the workload's graphs from the seed, writes them as
//! MatrixMarket files, and from then on uses only what it parses back from
//! those files. It times set-up (parse plus device and service start),
//! sweeps over every graph at 1 worker, and a service whose queue is kept
//! full. Every answer is checked against a `gmc_pmc` reference computed
//! before timing starts; a wrong answer makes the run exit nonzero.
//!
//! `--trace 0` reports the end-to-end metrics. `--trace 1` reports the
//! per-layer metrics from a separate run that alternates untraced and
//! traced sweeps (the solver's own spans plus a benchmark span around each
//! `solve` call), times direct `run_heuristic` and `preview_setup` calls,
//! and reads the counters the solver and the service already export; its
//! serve phase adds two fixed open-loop rates. The last line of standard
//! output is one JSON object: `{"correct", "attempted", "failed",
//! "metrics"}`.

mod batch;
mod inputs;
mod layers;
mod serve;
mod stats;
mod workload;

use stats::Metrics;
use std::process::ExitCode;
use std::time::Instant;
use workload::Workload;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} `{value}`: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let args = Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    };
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err(format!("--seconds {} out of (0, 600]", args.seconds));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = Workload::build(&args.workload, args.seed) else {
        eprintln!(
            "perfbench: unknown workload `{}` (one of {:?})",
            args.workload,
            workload::NAMES
        );
        return ExitCode::from(2);
    };
    match run(&workload, &args) {
        Ok(report) => {
            println!("{}", report.to_json());
            if report.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(err) => {
            eprintln!("perfbench: {err}");
            ExitCode::FAILURE
        }
    }
}

/// What one run prints as its last line.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

impl Report {
    fn to_json(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct,
            self.attempted,
            self.failed,
            self.metrics.to_json()
        )
    }
}

fn run(workload: &Workload, args: &Args) -> Result<Report, String> {
    let files = inputs::write(workload, args.seed);
    let report = files
        .as_ref()
        .map_err(Clone::clone)
        .and_then(|f| measure(workload, args, f));
    if let Ok(files) = &files {
        inputs::remove(files);
    }
    report
}

fn measure(
    workload: &Workload,
    args: &Args,
    files: &[inputs::InputFile],
) -> Result<Report, String> {
    let gen_start = Instant::now();
    let (mut setup, graphs) = inputs::Setup::new(workload, files)?;
    let reference = inputs::reference(&graphs);
    eprintln!(
        "perfbench: {} seed {}: {} graphs, {:.1} MB, set-up and reference in {:.2} s",
        workload.name,
        args.seed,
        graphs.len(),
        setup.bytes as f64 / 1e6,
        gen_start.elapsed().as_secs_f64()
    );
    let mut out = Metrics::default();
    let mut tally = batch::Tally::default();
    let batch_share = workload.batch_share;
    let graphs = &graphs;
    let start = Instant::now();
    if args.trace {
        let batch_seconds = args.seconds * batch_share;
        let traced = batch::traced(workload, graphs, &reference, batch_seconds, &mut tally);
        let coverage = traced.layers.coverage();
        if coverage < layers::MIN_COVERAGE || traced.layers.dropped > 0 {
            return Err(format!(
                "invalid trace: layers cover {coverage:.3} of solve time (need {}), {} events lost",
                layers::MIN_COVERAGE,
                traced.layers.dropped
            ));
        }
        setup.repeat_until(1.0, workload, files)?;
        layers::report(workload, &setup, &traced, &mut out);
        // The fixed rates get what is left of `--seconds`, and at least a
        // fifth of it.
        let serve_seconds = (args.seconds - start.elapsed().as_secs_f64()).max(args.seconds / 5.0);
        let mut served = serve::Served::new(workload, graphs, args.seed, serve_seconds);
        for i in 0..served.steps() {
            served.step(i, workload, graphs, &reference);
        }
        served.finish(workload);
        tally.absorb(&served.tally);
        served.report_layers(&mut out);
        out.add("fail_frac", tally.fail_frac(), "ratio");
    } else {
        // Sweeps, saturation rounds and set-up repetitions take turns until
        // `--seconds` have passed, sweeps and rounds each kept to their
        // share of the time, so a slow spell of the host touches a few
        // samples of every kind instead of all samples of one.
        let mut sweeper = batch::Sweeper::new(workload, graphs, &reference, &mut tally);
        let mut served = serve::Served::new(workload, graphs, args.seed, 0.0);
        loop {
            let share = start.elapsed().as_secs_f64() / args.seconds;
            if share >= 1.0 {
                break;
            }
            setup.repeat_until(share, workload, files)?;
            if sweeper.busy_s() * (1.0 - batch_share) <= served.busy_s() * batch_share {
                sweeper.sweep(graphs, &reference, &mut tally);
            } else {
                served.saturated_round(workload, graphs, &reference);
            }
        }
        setup.repeat_until(1.0, workload, files)?;
        out.add("setup_s", setup.setup_s(), "s");
        sweeper.top_up(graphs, &reference, &mut tally);
        served.finish(workload);
        sweeper.report(&mut out);
        tally.absorb(&served.tally);
        served.report(&mut out);
    }
    eprintln!(
        "perfbench: {} attempted, {} failed, {} wrong",
        tally.attempted, tally.failed, tally.wrong
    );
    Ok(Report {
        correct: tally.wrong == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: out,
    })
}
