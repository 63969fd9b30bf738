//! The four workloads: which graphs each one generates from the seed, the
//! device budget its solves run under, and the traffic its serve phase
//! offers.
//!
//! Graph families and size ratios follow `gmc_corpus`; sizes are scaled so
//! one run completes at least 100 timed solves within its time slice. The
//! recipes' generator seeds and index shuffles are derived from the
//! benchmark's `--seed`, so two seeds give different graphs of the same
//! shape and size.

use gmc_corpus::Recipe;
use gmc_mce::{SolverConfig, WindowConfig};

const MIB: usize = 1 << 20;

/// What a workload's graph is for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Solved in the sweeps; the serve phase walks these in order (on
    /// `serve`, each at most once per round, so it misses the cache).
    Pool,
    /// `serve` only: a graph whose full-search estimate exceeds a slot's
    /// partition, so admission control rewrites it to a windowed solve.
    Oversize,
}

/// One generated input graph.
pub struct GraphSpec {
    pub name: String,
    pub role: Role,
    pub recipe: Recipe,
    pub shuffle_seed: u64,
}

/// The serve phase of a workload.
pub struct ServePlan {
    /// Device bytes of the service's one slot.
    pub device_bytes: usize,
    /// Result-cache budget; 0 makes every job a real solve.
    pub cache_bytes: usize,
    /// Share of jobs that repeat a graph an earlier job of the same phase
    /// already submitted (cache hits when the cache is on).
    pub repeat_share: f64,
    /// Share of jobs drawn from the oversize graphs.
    pub oversize_share: f64,
    /// The traced run's two fixed arrival rates, jobs/s: about 0.3 and
    /// 0.6 of the service's capacity (`serve_max_rps`) on a 2-core host
    /// when the benchmark was added. Higher utilisation makes latency
    /// swing with the host's run-to-run speed drift.
    pub low_rps: f64,
    pub high_rps: f64,
    /// Latency limit, ms: a fixed-rate job served later counts as failed.
    pub limit_ms: f64,
    pub queue_depth: usize,
}

pub struct Workload {
    pub name: &'static str,
    /// Device budget of the batch solves.
    pub budget_bytes: usize,
    /// Windowed find-one mode (`WindowConfig::auto()`), else full BFS.
    pub windowed: bool,
    /// Share of a run's time spent in the batch sweeps; the serve phase
    /// gets the rest. The end-to-end solve times keep each graph's fastest
    /// of `--seconds × batch_share ÷ (graphs × solve time)` solves (about
    /// 100 in all), so a workload with slow solves needs more of the run
    /// to keep that share small.
    pub batch_share: f64,
    pub graphs: Vec<GraphSpec>,
    pub serve: ServePlan,
}

/// Executor slots of every service, each with one OS worker. One slot
/// serves jobs in the order they were accepted, and leaves the second
/// core to the submitter, the collector and the host.
pub const SERVE_SLOTS: usize = 1;

pub const NAMES: [&str; 4] = ["sparse", "dense", "windowed", "serve"];

impl Workload {
    /// The solver configuration of every timed solve and served job.
    pub fn config(&self) -> SolverConfig {
        SolverConfig {
            window: self.windowed.then(WindowConfig::auto),
            // The benchmark measures the default path; fault injection
            // from the environment would change what is measured.
            faults: None,
            ..SolverConfig::default()
        }
    }

    pub fn build(name: &str, seed: u64) -> Option<Workload> {
        let mut seeds = SeedStream::new(seed, name);
        let workload = match name {
            "sparse" => sparse(&mut seeds),
            "dense" => dense(&mut seeds),
            "windowed" => windowed(&mut seeds),
            "serve" => serve(&mut seeds),
            _ => return None,
        };
        Some(workload)
    }
}

/// Derives every generator and shuffle seed of a workload from the
/// benchmark seed and the workload name.
pub struct SeedStream(gmc_dpp::Rng);

impl SeedStream {
    pub fn new(seed: u64, name: &str) -> Self {
        let tag = name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
        SeedStream(gmc_dpp::Rng::seed_from_u64(seed ^ tag))
    }

    pub fn next(&mut self) -> u64 {
        self.0.next_u64()
    }

    fn spec(&mut self, name: String, role: Role, recipe: Recipe) -> GraphSpec {
        GraphSpec {
            name,
            role,
            recipe,
            shuffle_seed: self.next(),
        }
    }
}

/// Facebook-like: dense G(n, p) with p = c/√n and a clique planted just
/// above the background clique number (the `socfb` recipe of gmc-corpus).
fn socfb(s: &mut SeedStream, n: usize, c: f64, extra: usize) -> Recipe {
    let p = (c / (n as f64).sqrt()).min(0.45);
    let omega_bg = (2.0 * (n as f64).ln() / (1.0 / p).ln()).ceil() as usize;
    Recipe::Planted {
        base: Box::new(Recipe::Gnp {
            n,
            p,
            seed: s.next(),
        }),
        size: (omega_bg + extra).min(n / 4).max(3),
        seed: s.next(),
    }
}

/// Biological: random geometric graph with mean degree ≈ π·`degree` plus
/// planted protein complexes (the `bio-ppi` recipe of gmc-corpus).
fn bio(s: &mut SeedStream, n: usize, degree: f64, complexes: usize, max_size: usize) -> Recipe {
    Recipe::Communities {
        base: Box::new(Recipe::Geometric {
            n,
            radius: (degree / n as f64).sqrt(),
            seed: s.next(),
        }),
        count: complexes,
        min_size: 6,
        max_size,
        seed: s.next(),
    }
}

/// Road meshes, small-world (tech) and Holme–Kim (soc) graphs at full BFS.
/// The heuristic, setup and parse dominate; every core graph has more
/// than 2896 vertices, so the persistent core bitmap (gated at a quarter
/// of the 4 MiB budget) is never built and the expansion probes the CSR.
/// Twelve graphs of each family, so that no one graph's share of the
/// seed's randomness moves the totals.
fn sparse(s: &mut SeedStream) -> Workload {
    let mut graphs = Vec::new();
    for i in 0..12 {
        let rows = 57 + i;
        let recipe = Recipe::RoadMesh {
            rows,
            cols: rows + 6,
            seed: s.next(),
        };
        graphs.push(s.spec(format!("road-mesh-{i:02}"), Role::Pool, recipe));
    }
    for i in 0..12 {
        let recipe = Recipe::SmallWorld {
            n: 3600 + 100 * i,
            k: 4 + 2 * (i % 2),
            seed: s.next(),
        };
        graphs.push(s.spec(format!("tech-ring-{i:02}"), Role::Pool, recipe));
    }
    for i in 0..12 {
        let recipe = Recipe::HolmeKim {
            n: 3600 + 100 * i,
            m: 3 + i % 2,
            p_triad: 0.7,
            seed: s.next(),
        };
        graphs.push(s.spec(format!("soc-hk-{i:02}"), Role::Pool, recipe));
    }
    Workload {
        name: "sparse",
        budget_bytes: 4 * MIB,
        windowed: false,
        batch_share: 0.5,
        graphs,
        serve: ServePlan {
            device_bytes: 4 * MIB,
            cache_bytes: 0,
            repeat_share: 0.0,
            oversize_share: 0.0,
            low_rps: 110.0,
            high_rps: 220.0,
            limit_ms: 150.0,
            queue_depth: 64,
        },
    }
}

/// Facebook-like, collaboration and bio-like graphs at full BFS under a
/// budget every graph clears. Expansion dominates and the core bitmap
/// fits. On the sixteen small socfb graphs, planted just one above the
/// background clique number, the heuristic usually stops short (ω̄ < ω),
/// so pruning quality shows in `peak_device_mib`; whether it does is a
/// coin flip per graph, so there are sixteen of them to average it out.
/// The eight large ones are planted far enough above it (eight) that
/// ω̄ = ω.
fn dense(s: &mut SeedStream) -> Workload {
    let mut graphs = Vec::new();
    for i in 0..8 {
        let recipe = socfb(s, 560 + 20 * i, 3.0 + 0.025 * i as f64, 8);
        graphs.push(s.spec(format!("socfb-gnp-{i}"), Role::Pool, recipe));
    }
    for i in 0..16 {
        let recipe = socfb(s, 320 + 10 * i, 3.0, 1);
        graphs.push(s.spec(format!("socfb-small-{i:02}"), Role::Pool, recipe));
    }
    for i in 0..4 {
        let authors = 1000 + 250 * i;
        let recipe = Recipe::Collab {
            authors,
            papers: authors / 2,
            max_authors: 8 + 2 * (i % 2),
            seed: s.next(),
        };
        graphs.push(s.spec(format!("ca-papers-{i}"), Role::Pool, recipe));
    }
    for i in 0..4 {
        let recipe = bio(s, 1000 + 150 * i, 8.0, 4 + i, 10 + i % 2);
        graphs.push(s.spec(format!("bio-ppi-{i}"), Role::Pool, recipe));
    }
    Workload {
        name: "dense",
        budget_bytes: 64 * MIB,
        windowed: false,
        batch_share: 0.5,
        graphs,
        serve: ServePlan {
            device_bytes: 64 * MIB,
            cache_bytes: 0,
            repeat_share: 0.0,
            oversize_share: 0.0,
            low_rps: 65.0,
            high_rps: 130.0,
            limit_ms: 150.0,
            queue_depth: 64,
        },
    }
}

/// Facebook-like graphs whose full BFS runs out of a 0.75 MiB device
/// (it peaks at 0.88–1.8 MiB, by how far the heuristic falls short of ω)
/// but that solve in windowed find-one mode with automatic window sizing:
/// about one tiny window per vertex, whose BFS levels take most of the
/// solve time, so per-level overhead shows. The heuristic peaks near
/// 0.55 MiB. Planted more than two above the background clique number,
/// a graph of this size would fit when the heuristic finds ω.
fn windowed(s: &mut SeedStream) -> Workload {
    let mut graphs = Vec::new();
    for i in 0..16 {
        let recipe = socfb(s, 680 + 5 * i, 3.6 + 0.01 * i as f64, 2);
        graphs.push(s.spec(format!("socfb-gnp-{i:02}"), Role::Pool, recipe));
    }
    Workload {
        name: "windowed",
        budget_bytes: 3 * MIB / 4,
        windowed: true,
        batch_share: 0.7,
        graphs,
        serve: ServePlan {
            device_bytes: 3 * MIB / 4,
            cache_bytes: 0,
            repeat_share: 0.0,
            oversize_share: 0.0,
            low_rps: 22.0,
            high_rps: 44.0,
            limit_ms: 300.0,
            queue_depth: 64,
        },
    }
}

/// Many small graphs of every category, a known share of repeats (cache
/// hits) and a few graphs that oversize a slot's 2 MiB partition: their
/// full-search estimate (2-clique bytes × (degeneracy − 1)) is 3–5 MB,
/// while every small graph's stays below 1.2 MB.
fn serve(s: &mut SeedStream) -> Workload {
    let mut graphs = Vec::new();
    for i in 0..FRESH_GRAPHS {
        let recipe = match i % 6 {
            0 => socfb(s, 200 + 6 * (i / 6), 2.6, 6),
            1 => Recipe::RoadMesh {
                rows: 45 + i % 5,
                cols: 50,
                seed: s.next(),
            },
            2 => Recipe::Collab {
                authors: 1200 + 6 * (i / 6),
                papers: 600,
                max_authors: 6,
                seed: s.next(),
            },
            3 => bio(s, 700 + 6 * (i / 6), 10.0, 2, 7),
            4 => Recipe::HolmeKim {
                n: 2400 + 10 * (i / 6),
                m: 3,
                p_triad: 0.7,
                seed: s.next(),
            },
            _ => Recipe::SmallWorld {
                n: 3200 + 10 * (i / 6),
                k: 4,
                seed: s.next(),
            },
        };
        graphs.push(s.spec(format!("small-{i:03}"), Role::Pool, recipe));
    }
    for i in 0..OVERSIZE_GRAPHS {
        let recipe = socfb(s, 380 + 5 * i, 3.0, 6);
        graphs.push(s.spec(format!("oversize-{i:02}"), Role::Oversize, recipe));
    }
    Workload {
        name: "serve",
        budget_bytes: 64 * MIB,
        windowed: false,
        batch_share: 0.5,
        graphs,
        serve: ServePlan {
            device_bytes: 2 * MIB,
            cache_bytes: 64 * MIB,
            repeat_share: 0.3,
            oversize_share: 0.02,
            low_rps: 225.0,
            high_rps: 450.0,
            limit_ms: 100.0,
            queue_depth: 256,
        },
    }
}

const FRESH_GRAPHS: usize = 60;
const OVERSIZE_GRAPHS: usize = 8;
