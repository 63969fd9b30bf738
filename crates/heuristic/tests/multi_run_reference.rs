//! `multi_run` against a plain sequential reference of Algorithm 1: every
//! seed runs its own greedy instance one after another, and the longest
//! clique wins, the last such seed in rank order on ties. The data-parallel
//! rounds must return exactly the reference's witness for every graph
//! family, seed count `h` and worker count, and so must every heuristic
//! kind built on them.

use gmc_dpp::prop::{self, shrinks, Config};
use gmc_dpp::{Device, Rng};
use gmc_graph::{generators, kcore, Csr};
use gmc_heuristic::{multi_run, run_heuristic, HeuristicKind};
use std::cmp::Reverse;

/// Algorithm 1 run seed by seed: the `h` best-ranked vertices (highest
/// threshold, then lowest id) each grow a clique by repeatedly taking the
/// first highest-threshold candidate and keeping its neighbours.
fn reference(graph: &Csr, thresholds: &[u32], h: usize) -> Vec<u32> {
    let n = graph.num_vertices();
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_by_key(|&v| (Reverse(thresholds[v as usize]), v));
    let mut best: Vec<u32> = Vec::new();
    for &seed in order.iter().take(h.max(1)) {
        let mut clique = vec![seed];
        let mut candidates = graph.neighbors(seed).to_vec();
        while let Some(&first) = candidates.first() {
            let mut pick = first;
            for &u in &candidates {
                if thresholds[u as usize] > thresholds[pick as usize] {
                    pick = u;
                }
            }
            clique.push(pick);
            candidates.retain(|&u| graph.has_edge(u, pick));
        }
        if clique.len() >= best.len() {
            best = clique;
        }
    }
    best
}

/// The ordering keys `run_heuristic` documents for the core-number kinds:
/// core number, ties broken by degree.
fn core_keys(graph: &Csr) -> Vec<u32> {
    let cores = kcore::core_numbers(graph);
    (0..graph.num_vertices())
        .map(|v| (cores[v].min(0xF_FFFF) << 12) | (graph.degree(v as u32) as u32).min(0xFFF))
        .collect()
}

/// How a case ranks its vertices: by degree (the default), by a coarse
/// degree class (many ties), or all equal (every pick is a tie).
#[derive(Debug, Clone, Copy)]
enum Keys {
    Degree,
    Coarse,
    Flat,
}

/// A graph as raw parts, so shrinking can drop edges while the vertex set
/// (including isolated vertices) stays valid.
type Case = (usize, Vec<(u32, u32)>, Keys);

fn edges_of(graph: &Csr) -> Vec<(u32, u32)> {
    let mut edges = Vec::new();
    for u in 0..graph.num_vertices() as u32 {
        for &v in graph.neighbors(u) {
            if u < v {
                edges.push((u, v));
            }
        }
    }
    edges
}

fn arb_case(rng: &mut Rng) -> Case {
    let n = rng.gen_range(4usize..160);
    let seed = rng.next_u64();
    let graph = match rng.gen_range(0usize..5) {
        0 => generators::gnp(n, 0.02 + 0.3 * rng.gen_f64(), seed),
        1 => {
            let rows = rng.gen_range(2usize..12);
            generators::road_mesh(rows, n / rows + 1, 0.85, 0.3, seed)
        }
        2 => generators::watts_strogatz(n, 2 * rng.gen_range(1usize..4), 0.2, seed),
        3 => generators::holme_kim(n, rng.gen_range(1usize..5), 0.7, seed),
        _ => {
            let base = generators::gnp(n, 0.05, seed);
            generators::plant_clique(&base, rng.gen_range(2usize..=(n / 2).min(12)), seed ^ 1).0
        }
    };
    // Isolated vertices on top of the family's own.
    let isolated = rng.gen_range(0usize..4);
    let keys = *rng
        .choose(&[Keys::Degree, Keys::Coarse, Keys::Flat])
        .unwrap();
    (graph.num_vertices() + isolated, edges_of(&graph), keys)
}

fn shrink_case(case: &Case) -> Vec<Case> {
    shrinks::edges(&case.1)
        .into_iter()
        .map(|edges| (case.0, edges, case.2))
        .collect()
}

fn thresholds(graph: &Csr, keys: Keys) -> Vec<u32> {
    let degrees = graph.degrees();
    match keys {
        Keys::Degree => degrees,
        Keys::Coarse => degrees.iter().map(|d| d / 3).collect(),
        Keys::Flat => vec![0; degrees.len()],
    }
}

/// Devices at 1, 2 and 8 workers. The multi-worker ones launch every grid
/// on the pool, so small cases exercise the parallel path too.
fn devices() -> Vec<Device> {
    [1, 2, 8]
        .into_iter()
        .map(|workers| {
            let device = Device::new(workers, usize::MAX);
            device.exec().set_sequential_grid_limit(0);
            device
        })
        .collect()
}

fn config() -> Config {
    let mut config = Config::default();
    if std::env::var("GMC_PROP_CASES").is_err() {
        config.cases = 96;
    }
    config
}

fn same<T: PartialEq + std::fmt::Debug>(
    got: &T,
    expected: &T,
    context: impl Fn() -> String,
) -> Result<(), String> {
    if got == expected {
        Ok(())
    } else {
        Err(format!("{}: got {got:?}, expected {expected:?}", context()))
    }
}

fn check_graph(devices: &[Device], graph: &Csr, keys: &[u32]) -> Result<(), String> {
    let n = graph.num_vertices();
    for h in [1, 3, n / 2, n] {
        let expected = reference(graph, keys, h);
        for device in devices {
            let workers = device.exec().num_workers();
            let got = multi_run(device, graph, keys, h).map_err(|e| e.to_string())?;
            same(&got, &expected, || format!("h {h}, workers {workers}"))?;
            same(&device.memory().live(), &0, || format!("live bytes, h {h}"))?;
        }
    }
    Ok(())
}

#[test]
fn multi_run_matches_the_sequential_reference() {
    let devices = devices();
    prop::check_with(
        config(),
        "multi_run_matches_the_sequential_reference",
        arb_case,
        shrink_case,
        |(n, edges, keys)| {
            let graph = Csr::from_edges(*n, edges);
            check_graph(&devices, &graph, &thresholds(&graph, *keys))
        },
    );
}

#[test]
fn every_heuristic_kind_matches_the_sequential_reference() {
    let devices = devices();
    prop::check_with(
        config(),
        "every_heuristic_kind_matches_the_sequential_reference",
        arb_case,
        shrink_case,
        |(n, edges, _)| {
            let graph = Csr::from_edges(*n, edges);
            let degrees = graph.degrees();
            let cores = core_keys(&graph);
            for (kind, keys, h) in [
                (HeuristicKind::SingleDegree, &degrees, 1),
                (HeuristicKind::SingleCore, &cores, 1),
                (HeuristicKind::MultiDegree, &degrees, *n),
                (HeuristicKind::MultiCore, &cores, *n),
            ] {
                let expected = reference(&graph, keys, h);
                for device in &devices {
                    let workers = device.exec().num_workers();
                    let got = run_heuristic(device, &graph, kind, None)
                        .map_err(|e| e.to_string())?
                        .clique;
                    same(&got, &expected, || format!("{kind}, workers {workers}"))?;
                }
            }
            Ok(())
        },
    );
}

#[test]
fn degenerate_and_large_graphs_match_the_reference() {
    let devices = devices();
    let mut graphs = vec![
        Csr::empty(0),
        Csr::empty(1),
        Csr::empty(6),
        Csr::from_edges(5, &[(3, 4)]),
        generators::complete(8),
        // Regular graphs: every degree ties.
        generators::watts_strogatz(60, 4, 0.0, 1),
        generators::complete_multipartite(&[3, 3, 3]),
    ];
    // Thousands of seeds, as in the benchmark graphs.
    graphs.push(generators::road_mesh(50, 60, 0.9, 0.3, 7));
    graphs.push(generators::holme_kim(3000, 3, 0.7, 8));
    for graph in &graphs {
        for keys in [Keys::Degree, Keys::Coarse, Keys::Flat] {
            let n = graph.num_vertices();
            check_graph(&devices, graph, &thresholds(graph, keys))
                .unwrap_or_else(|e| panic!("{n} vertices, {keys:?}: {e}"));
        }
    }
}
