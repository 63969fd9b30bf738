//! # gmc-heuristic: greedy lower-bound heuristics (paper §IV-A)
//!
//! Before the exact breadth-first search, a greedy heuristic establishes a
//! lower bound `ω̄` on the maximum clique size. The bound drives all of the
//! paper's pruning: vertices whose degree (or core number) + 1 is below `ω̄`
//! are discarded, and candidate sublists that cannot reach `ω̄` are cut.
//! Because a breadth-first search never improves its bound mid-run, the
//! initial bound's quality decides whether the candidate lists fit in device
//! memory at all (Table I).
//!
//! Four variants are provided, exactly the four the paper evaluates:
//!
//! * [`HeuristicKind::SingleDegree`] / [`HeuristicKind::SingleCore`] — one
//!   greedy pass from the highest-degree (or highest-core) vertex (§IV-A1):
//!   the multi-run pipeline with a single seed.
//! * [`HeuristicKind::MultiDegree`] / [`HeuristicKind::MultiCore`] — `h`
//!   greedy instances run simultaneously as segments of one data-parallel
//!   computation (§IV-A2, Algorithm 1), seeded by the `h` best vertices.
//!
//! All variants return a *witness clique*, not just a size, so callers can
//! verify the bound and emit the clique directly when the exact search
//! confirms it is optimal. An optional [`polish_clique`] pass applies
//! (1,2)-interchange local search on top of any witness — the next rung of
//! the preprocessing-vs-quality ladder the paper describes in §II-B1.

#![warn(missing_docs)]

mod local_search;
mod multi;

pub use local_search::polish_clique;
pub use multi::multi_run;

use gmc_dpp::{Device, DeviceOom};
use gmc_graph::{kcore, Csr};
use std::time::Duration;

/// Which lower-bound heuristic to run before the exact search. The five
/// values correspond to the five rows of the paper's Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum HeuristicKind {
    /// No heuristic: the search starts with a trivial bound and relies on
    /// structural pruning only.
    None,
    /// One greedy run ordered by vertex degree.
    SingleDegree,
    /// One greedy run ordered by core number (requires a k-core pass).
    SingleCore,
    /// `h` parallel greedy runs ordered by degree — the paper's recommended
    /// default for unknown datasets (§V-B4).
    #[default]
    MultiDegree,
    /// `h` parallel greedy runs ordered by core number.
    MultiCore,
}

impl HeuristicKind {
    /// Whether this heuristic needs the k-core decomposition.
    pub fn uses_core_numbers(self) -> bool {
        matches!(self, HeuristicKind::SingleCore | HeuristicKind::MultiCore)
    }

    /// Whether this heuristic runs multiple seeded instances.
    pub fn is_multi_run(self) -> bool {
        matches!(self, HeuristicKind::MultiDegree | HeuristicKind::MultiCore)
    }

    /// Short stable name used in experiment tables.
    pub fn name(self) -> &'static str {
        match self {
            HeuristicKind::None => "none",
            HeuristicKind::SingleDegree => "single-degree",
            HeuristicKind::SingleCore => "single-core",
            HeuristicKind::MultiDegree => "multi-degree",
            HeuristicKind::MultiCore => "multi-core",
        }
    }

    /// All five variants in the paper's simplest-to-most-complex order.
    pub fn all() -> [HeuristicKind; 5] {
        [
            HeuristicKind::None,
            HeuristicKind::SingleDegree,
            HeuristicKind::SingleCore,
            HeuristicKind::MultiDegree,
            HeuristicKind::MultiCore,
        ]
    }
}

impl std::fmt::Display for HeuristicKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Outcome of a heuristic run.
#[derive(Debug, Clone)]
pub struct HeuristicResult {
    /// Which heuristic produced this result.
    pub kind: HeuristicKind,
    /// The witness clique found (empty for [`HeuristicKind::None`]).
    pub clique: Vec<u32>,
    /// Core numbers, when the heuristic computed them; the solver reuses
    /// these for its own pruning instead of running k-core twice.
    pub core_numbers: Option<Vec<u32>>,
    /// Total heuristic wall time, including any k-core pass.
    pub total_time: Duration,
    /// Portion of `total_time` spent in the k-core decomposition.
    pub core_time: Duration,
}

impl HeuristicResult {
    /// The lower bound `ω̄` this heuristic establishes.
    pub fn lower_bound(&self) -> u32 {
        self.clique.len() as u32
    }
}

/// Runs `kind` on `graph`. `h` caps the number of seeds for the multi-run
/// variants (`None` means all vertices, the paper's experimental setting).
///
/// ```
/// use gmc_dpp::Device;
/// use gmc_graph::generators;
/// use gmc_heuristic::{run_heuristic, HeuristicKind};
///
/// let graph = generators::complete(5);
/// let result = run_heuristic(&Device::unlimited(), &graph, HeuristicKind::MultiDegree, None)
///     .unwrap();
/// assert_eq!(result.lower_bound(), 5); // the greedy bound is exact on K5
/// assert!(graph.is_clique(&result.clique));
/// ```
///
/// The returned witness is always verified to be a clique; heuristic
/// buffers are charged against the device budget, so a pathological graph
/// can surface [`DeviceOom`] here rather than in the exact phase.
pub fn run_heuristic(
    device: &Device,
    graph: &Csr,
    kind: HeuristicKind,
    h: Option<usize>,
) -> Result<HeuristicResult, DeviceOom> {
    let start = std::time::Instant::now();
    let mut core_time = Duration::ZERO;
    let mut core_numbers = None;

    let tracer = device.exec().tracer();
    let mut run_span = tracer
        .is_enabled()
        .then(|| tracer.span_with("heuristic_run", &[("seeds", h.map_or(-1, |h| h as i64))]));
    let clique = match kind {
        HeuristicKind::None => Vec::new(),
        _ => {
            let ordering_keys: Vec<u32> = if kind.uses_core_numbers() {
                let core_start = std::time::Instant::now();
                let _kcore_span = tracer.is_enabled().then(|| tracer.span("kcore"));
                let cores = kcore::core_numbers_parallel(device.exec(), graph);
                drop(_kcore_span);
                core_time = core_start.elapsed();
                // Core numbers tie heavily (whole subgraphs share one core),
                // so break ties by degree: same greedy *bound* semantics,
                // much better pick quality on near-regular-core graphs.
                let exec = device.exec();
                let n = graph.num_vertices();
                let keys = exec.map_indexed_named("heuristic_core_keys", n, |v| {
                    (cores[v].min(0xF_FFFF) << 12) | (graph.degree(v as u32) as u32).min(0xFFF)
                });
                core_numbers = Some(cores);
                keys
            } else {
                graph.degrees()
            };
            let h = if kind.is_multi_run() {
                h.unwrap_or(graph.num_vertices())
            } else {
                1
            };
            multi_run(device, graph, &ordering_keys, h)?
        }
    };
    debug_assert!(graph.is_clique(&clique), "heuristic returned a non-clique");
    if let Some(span) = run_span.as_mut() {
        span.arg("lower_bound", clique.len() as i64);
    }
    drop(run_span);
    Ok(HeuristicResult {
        kind,
        clique,
        core_numbers,
        total_time: start.elapsed(),
        core_time,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmc_graph::generators;

    #[test]
    fn kind_metadata() {
        assert!(HeuristicKind::SingleCore.uses_core_numbers());
        assert!(!HeuristicKind::MultiDegree.uses_core_numbers());
        assert!(HeuristicKind::MultiCore.is_multi_run());
        assert!(!HeuristicKind::SingleDegree.is_multi_run());
        assert_eq!(HeuristicKind::all().len(), 5);
        assert_eq!(HeuristicKind::default(), HeuristicKind::MultiDegree);
    }

    #[test]
    fn none_heuristic_gives_zero_bound() {
        let device = Device::unlimited();
        let g = generators::complete(4);
        let r = run_heuristic(&device, &g, HeuristicKind::None, None).unwrap();
        assert_eq!(r.lower_bound(), 0);
        assert!(r.clique.is_empty());
        assert!(r.core_numbers.is_none());
    }

    #[test]
    fn all_heuristics_find_complete_graph() {
        let device = Device::unlimited();
        let g = generators::complete(7);
        for kind in [
            HeuristicKind::SingleDegree,
            HeuristicKind::SingleCore,
            HeuristicKind::MultiDegree,
            HeuristicKind::MultiCore,
        ] {
            let r = run_heuristic(&device, &g, kind, None).unwrap();
            assert_eq!(r.lower_bound(), 7, "{kind}");
            assert!(g.is_clique(&r.clique));
            assert_eq!(r.core_numbers.is_some(), kind.uses_core_numbers());
        }
    }

    #[test]
    fn planted_clique_found_by_multi_run() {
        let device = Device::unlimited();
        let base = generators::gnp(300, 0.03, 5);
        let (g, members) = generators::plant_clique(&base, 10, 6);
        let r = run_heuristic(&device, &g, HeuristicKind::MultiDegree, None).unwrap();
        assert!(
            r.lower_bound() >= members.len() as u32,
            "multi-run should find the planted clique, got {}",
            r.lower_bound()
        );
    }

    #[test]
    fn multi_run_at_least_as_good_as_single_run() {
        let device = Device::unlimited();
        for seed in 0..5 {
            let g = generators::gnp(200, 0.1, seed);
            let single = run_heuristic(&device, &g, HeuristicKind::SingleDegree, None).unwrap();
            let multi = run_heuristic(&device, &g, HeuristicKind::MultiDegree, None).unwrap();
            assert!(
                multi.lower_bound() >= single.lower_bound(),
                "seed {seed}: multi {} < single {}",
                multi.lower_bound(),
                single.lower_bound()
            );
        }
    }

    #[test]
    fn core_time_is_recorded() {
        let device = Device::unlimited();
        let g = generators::gnp(500, 0.05, 1);
        let r = run_heuristic(&device, &g, HeuristicKind::MultiCore, None).unwrap();
        assert!(r.core_time <= r.total_time);
        assert!(r.core_numbers.is_some());
    }

    #[test]
    fn empty_graph_handled() {
        let device = Device::unlimited();
        let g = gmc_graph::Csr::empty(0);
        for kind in HeuristicKind::all() {
            let r = run_heuristic(&device, &g, kind, None).unwrap();
            assert_eq!(r.lower_bound(), 0, "{kind}");
        }
    }

    #[test]
    fn isolated_vertices_give_singleton_clique() {
        let device = Device::unlimited();
        let g = gmc_graph::Csr::empty(5);
        let r = run_heuristic(&device, &g, HeuristicKind::MultiDegree, None).unwrap();
        assert_eq!(r.lower_bound(), 1);
    }
}
