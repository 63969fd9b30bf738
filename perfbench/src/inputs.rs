//! Input files, the timed set-up that parses them, and the untimed
//! reference answers.

use crate::stats::{calm, median};
use crate::workload::{Role, Workload, SERVE_SLOTS};
use gmc_dpp::Device;
use gmc_graph::{io, Csr};
use gmc_serve::{ServeConfig, SolveService};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Set-up repetitions; `setup_s` is the [`calm`] time of their fastest
/// `SETUP_CALM`.
const SETUP_REPS: usize = 81;
const SETUP_CALM: usize = 5;

/// Where a run writes its inputs, relative to the checkout it runs in.
const INPUT_DIR: &str = ".perfbench-inputs";

pub struct InputFile {
    pub name: String,
    pub role: Role,
    pub path: PathBuf,
}

pub struct Graph {
    pub name: String,
    pub role: Role,
    pub csr: Arc<Csr>,
}

/// The timed set-up: parse every input file, start the devices and the
/// service.
pub struct Setup {
    /// Total size of the input files.
    pub bytes: usize,
    /// Each repetition's whole set-up, seconds, and its summed
    /// `parse_matrix_market` calls, ms.
    totals_s: Vec<f64>,
    parses_ms: Vec<f64>,
}

/// The maximum-clique answer a timed result is checked against.
pub struct Reference {
    pub omega: u32,
    /// Every maximum clique, each sorted, the list sorted.
    pub cliques: Vec<Vec<u32>>,
}

impl Reference {
    /// Checks a result: the exact clique set for a complete enumeration,
    /// else ω and membership of every returned clique in the set.
    pub fn matches(&self, omega: u32, cliques: &[Vec<u32>], complete: bool) -> bool {
        if omega != self.omega {
            return false;
        }
        if complete {
            cliques == self.cliques.as_slice()
        } else {
            !cliques.is_empty()
                && cliques
                    .iter()
                    .all(|c| self.cliques.binary_search(c).is_ok())
        }
    }
}

/// Generates the workload's graphs and writes each as a MatrixMarket file.
pub fn write(workload: &Workload, seed: u64) -> Result<Vec<InputFile>, String> {
    let dir = Path::new(INPUT_DIR).join(format!("{}-{seed}-{}", workload.name, std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let mut files = Vec::with_capacity(workload.graphs.len());
    for spec in &workload.graphs {
        let graph = spec
            .recipe
            .build()
            .randomize_vertex_ids(spec.shuffle_seed)
            .0;
        let path = dir.join(format!("{}.mtx", spec.name));
        let mut bytes = Vec::new();
        io::write_matrix_market(&graph, &mut bytes).expect("writing to a Vec cannot fail");
        std::fs::write(&path, bytes).map_err(|e| format!("write {}: {e}", path.display()))?;
        files.push(InputFile {
            name: spec.name.clone(),
            role: spec.role,
            path,
        });
    }
    Ok(files)
}

/// Removes the run's input directory.
pub fn remove(files: &[InputFile]) {
    if let Some(dir) = files.first().and_then(|f| f.path.parent()) {
        let _ = std::fs::remove_dir_all(dir);
    }
    // Leaves the shared parent in place while another run still uses it.
    let _ = std::fs::remove_dir(INPUT_DIR);
}

impl Setup {
    /// The first set-up; returns the graphs the run solves.
    pub fn new(workload: &Workload, files: &[InputFile]) -> Result<(Setup, Vec<Graph>), String> {
        let mut setup = Setup {
            bytes: 0,
            totals_s: Vec::with_capacity(SETUP_REPS),
            parses_ms: Vec::with_capacity(SETUP_REPS),
        };
        let graphs = setup.rep(workload, files)?;
        Ok((setup, graphs))
    }

    /// Repeats the set-up until `share` (0..=1) of [`SETUP_REPS`] have
    /// run. Runs call this between their other phases, so the repetitions
    /// sample the host over the whole run rather than one burst at its
    /// start.
    pub fn repeat_until(
        &mut self,
        share: f64,
        workload: &Workload,
        files: &[InputFile],
    ) -> Result<(), String> {
        let target = (share.clamp(0.0, 1.0) * SETUP_REPS as f64).round() as usize;
        while self.totals_s.len() < target {
            self.rep(workload, files)?;
        }
        Ok(())
    }

    /// The whole set-up, seconds, over its fastest repetitions.
    pub fn setup_s(&self) -> f64 {
        calm(&self.totals_s, SETUP_CALM)
    }

    /// Median over the repetitions of the summed `parse_matrix_market`
    /// calls, ms.
    pub fn parse_ms(&self) -> f64 {
        median(&self.parses_ms)
    }

    /// One timed set-up; returns the parsed graphs.
    fn rep(&mut self, workload: &Workload, files: &[InputFile]) -> Result<Vec<Graph>, String> {
        let start = Instant::now();
        let mut parse_ns = 0u128;
        let mut graphs = Vec::with_capacity(files.len());
        self.bytes = 0;
        for file in files {
            let data = std::fs::read(&file.path)
                .map_err(|e| format!("read {}: {e}", file.path.display()))?;
            self.bytes += data.len();
            let parse_start = Instant::now();
            let csr = io::parse_matrix_market(std::hint::black_box(&data[..]))
                .map_err(|e| format!("parse {}: {e}", file.path.display()))?;
            parse_ns += parse_start.elapsed().as_nanos();
            graphs.push(Graph {
                name: file.name.clone(),
                role: file.role,
                csr: Arc::new(csr),
            });
        }
        let devices = [
            Device::new(2, workload.budget_bytes),
            Device::new(1, workload.budget_bytes),
        ];
        let service = start_service(workload);
        service.shutdown();
        drop(devices);
        self.totals_s.push(start.elapsed().as_secs_f64());
        self.parses_ms.push(parse_ns as f64 / 1e6);
        Ok(graphs)
    }
}

/// A service sized by the workload's serve plan.
pub fn start_service(workload: &Workload) -> SolveService {
    let plan = &workload.serve;
    SolveService::start(
        ServeConfig::default()
            .pool(SERVE_SLOTS)
            .workers_per_slot(1)
            .queue_depth(plan.queue_depth)
            .cache_bytes(plan.cache_bytes)
            .device_bytes(plan.device_bytes),
    )
}

/// Reference answers from Bron–Kerbosch maximal clique enumeration, on two
/// threads (the run's thread budget; nothing is timed meanwhile).
pub fn reference(graphs: &[Graph]) -> Vec<Reference> {
    let solve = |g: &Graph| {
        let maximal = gmc_pmc::MaximalCliques::enumerate(&g.csr);
        Reference {
            omega: maximal.clique_number(),
            cliques: maximal.maximum_cliques(),
        }
    };
    let (odd, even): (Vec<Reference>, Vec<Reference>) = std::thread::scope(|scope| {
        let odd = scope.spawn(|| graphs.iter().skip(1).step_by(2).map(solve).collect());
        let even = graphs.iter().step_by(2).map(solve).collect();
        (odd.join().expect("reference thread panicked"), even)
    });
    let mut odd = odd.into_iter();
    even.into_iter()
        .flat_map(|e| std::iter::once(e).chain(odd.next()))
        .collect()
}
