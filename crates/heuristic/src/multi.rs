//! The multi-run greedy heuristic (paper §IV-A2, Algorithm 1).
//!
//! `h` instances of the greedy heuristic run simultaneously, one per seed
//! vertex, as segments of a single data-parallel computation:
//!
//! 1. Seed segments with each seed's neighborhood (`SETUPNEIGHBORTHRESHOLDS`).
//!    Segment `s` owns the fixed span `offsets[s] .. offsets[s] + len[s]` of
//!    one packed `(threshold, vertex)` array for the whole run; the fill
//!    kernel also finds the segment's first pick.
//! 2. Each round is one cost-weighted kernel over the live segments
//!    (`CHECKCONNECTIONS`): every segment keeps the candidates adjacent to
//!    its pick by a stable in-place compaction of its own span, shrinks
//!    `len[s]`, and in the same pass finds its next pick — the first
//!    candidate with the maximum threshold. A small select over the list of
//!    live segments then drops the ones that ran empty.
//! 3. Iterate until no segment is live. Every segment grows its clique by
//!    one vertex per round, so the longest cliques belong to the segments
//!    live in the final round. The winner is the one among them whose seed
//!    ranks last, and its witness is rebuilt by one sequential greedy replay
//!    from that seed (like the paper, the rounds track no per-seed clique).
//!
//! With every vertex a seed (the paper's setting) the seed set needs no
//! ordering: segment `s` is vertex `s`, and only the winner rule looks at
//! seed ranks. A smaller `h` sorts the vertices to take the top `h`.

use gmc_dpp::{Device, DeviceOom, SharedSlice};
use gmc_graph::Csr;
use std::cmp::Reverse;

/// Packs a candidate as `threshold << 32 | vertex`, the 8 bytes per entry
/// the heuristic charges against the device budget.
fn pack(vertex: u32, threshold: u32) -> u64 {
    (u64::from(threshold) << 32) | u64::from(vertex)
}

fn vertex_of(pair: u64) -> u32 {
    pair as u32
}

fn threshold_of(pair: u64) -> u32 {
    (pair >> 32) as u32
}

/// The greedy pick rule: the first candidate with the maximum threshold.
fn first_max(best: Option<u64>, pair: u64) -> Option<u64> {
    match best {
        Some(b) if threshold_of(pair) <= threshold_of(b) => best,
        _ => Some(pair),
    }
}

/// Runs `h` parallel greedy instances seeded by the `h` highest-threshold
/// vertices (ties toward the lower vertex id). Returns the longest witness
/// clique; among equally long ones, the one whose seed ranks *last* —
/// the lowest threshold, then the highest vertex id.
pub fn multi_run(
    device: &Device,
    graph: &Csr,
    thresholds: &[u32],
    h: usize,
) -> Result<Vec<u32>, DeviceOom> {
    let exec = device.exec();
    let n = graph.num_vertices();
    assert_eq!(thresholds.len(), n, "one threshold per vertex");
    if n == 0 {
        return Ok(Vec::new());
    }
    let h = h.clamp(1, n);
    // Seed order: descending threshold, then ascending id.
    let rank = |v: u32| (Reverse(thresholds[v as usize]), v);

    let ids: Vec<u32> = exec.map_indexed_named("heuristic_iota", n, |v| v as u32);
    let seeds = if h == n {
        ids
    } else {
        // The h vertices with the highest thresholds (the stable sort keeps
        // ascending-id order within ties).
        let keys: Vec<u32> = exec.map_indexed_named("heuristic_sort_keys", n, |v| !thresholds[v]);
        let (_, mut sorted) = gmc_dpp::sort_pairs_u32(exec, &keys, &ids);
        sorted.truncate(h);
        sorted
    };

    // GETNEIGHBORCOUNTS + scan: segment layout.
    let mut lens: Vec<usize> =
        exec.map_indexed_named("heuristic_seed_degrees", h, |s| graph.degree(seeds[s]));
    let (offsets, total) = gmc_dpp::exclusive_scan(exec, &lens);

    // The candidate pairs are the only array that scales with the graph;
    // segments only shrink inside their spans, so this charge is the peak.
    let _charge = device
        .memory()
        .try_charge(total * std::mem::size_of::<u64>())?;

    // SETUPNEIGHBORTHRESHOLDS: one virtual thread per seed fills its span
    // and finds its first pick. Segment lengths are the seeds' degrees,
    // whose skew the cost-weighted launch spreads over the workers.
    let mut pairs = vec![0u64; total];
    let mut picks = vec![0u32; h];
    {
        let pairs_shared = SharedSlice::new(&mut pairs);
        let picks_shared = SharedSlice::new(&mut picks);
        exec.for_each_weighted_named(
            "heuristic_neighbor_thresholds",
            h,
            |s| lens[s] as u64,
            |s| {
                // SAFETY: segment `s`'s span and pick belong to virtual
                // thread `s` alone.
                let span = unsafe { pairs_shared.span(offsets[s]..offsets[s] + lens[s]) };
                let mut first = None;
                for (slot, &u) in span.iter_mut().zip(graph.neighbors(seeds[s])) {
                    *slot = pack(u, thresholds[u as usize]);
                    first = first_max(first, *slot);
                }
                if let Some(first) = first {
                    // SAFETY: as for the span.
                    unsafe { picks_shared.write(s, vertex_of(first)) };
                }
            },
        );
    }

    let mut live = gmc_dpp::select_indices(exec, &lens, |_, len| len > 0);
    let mut last_round = Vec::with_capacity(live.len());
    while !live.is_empty() {
        // CHECKCONNECTIONS: each live segment keeps the candidates adjacent
        // to its pick and picks again from the survivors in the same pass.
        {
            let pairs_shared = SharedSlice::new(&mut pairs);
            let lens_shared = SharedSlice::new(&mut lens);
            let picks_shared = SharedSlice::new(&mut picks);
            let live = &live;
            exec.for_each_weighted_named(
                "heuristic_round",
                live.len(),
                // SAFETY: a weighted launch plans its morsels from the costs
                // before any virtual thread runs, so no length is read here
                // while the kernel writes it.
                |i| unsafe { lens_shared.read(live[i]) } as u64,
                |i| {
                    let s = live[i];
                    // SAFETY: `live` holds distinct segments, and segment
                    // `s`'s span, length and pick belong to this thread.
                    unsafe {
                        let span = pairs_shared.span(offsets[s]..offsets[s] + lens_shared.read(s));
                        let (kept, next) = keep_adjacent(graph, picks_shared.read(s), span);
                        lens_shared.write(s, kept);
                        if let Some(next) = next {
                            picks_shared.write(s, vertex_of(next));
                        }
                    }
                },
            );
        }
        gmc_dpp::select_if_into(exec, &live, |_, s| lens[s] > 0, &mut last_round);
        std::mem::swap(&mut live, &mut last_round);
    }

    // `last_round` now holds the segments live in the final round; with no
    // round at all, every clique is its lone seed.
    let winner = if last_round.is_empty() {
        (0..h).max_by_key(|&s| rank(seeds[s]))
    } else {
        last_round.iter().copied().max_by_key(|&s| rank(seeds[s]))
    };
    let best = greedy_from(graph, thresholds, seeds[winner.expect("h >= 1")]);
    debug_assert!(graph.is_clique(&best));
    Ok(best)
}

/// Keeps the candidates in `span` that are adjacent to `v`, compacting them
/// in place in their order (the write cursor never passes the read
/// cursor), and returns how many were kept and the next pick among them.
/// `v` itself is not its own neighbour, so it drops out.
fn keep_adjacent(graph: &Csr, v: u32, span: &mut [u64]) -> (usize, Option<u64>) {
    let mut kept = 0;
    let mut best = None;
    for read in 0..span.len() {
        let pair = span[read];
        if graph.has_edge(vertex_of(pair), v) {
            span[kept] = pair;
            kept += 1;
            best = first_max(best, pair);
        }
    }
    (kept, best)
}

/// One sequential greedy instance from `seed` — the segment the parallel
/// rounds ran for that seed, replayed to recover its witness.
fn greedy_from(graph: &Csr, thresholds: &[u32], seed: u32) -> Vec<u32> {
    let mut clique = vec![seed];
    let mut candidates: Vec<u64> = graph
        .neighbors(seed)
        .iter()
        .map(|&u| pack(u, thresholds[u as usize]))
        .collect();
    let mut pick = candidates.iter().copied().fold(None, first_max);
    while let Some(v) = pick.map(vertex_of) {
        clique.push(v);
        let (kept, next) = keep_adjacent(graph, v, &mut candidates);
        candidates.truncate(kept);
        pick = next;
    }
    clique
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmc_graph::generators;

    #[test]
    fn finds_planted_clique_from_any_seed() {
        let device = Device::unlimited();
        let base = generators::gnp(120, 0.05, 1);
        let (g, members) = generators::plant_clique(&base, 9, 2);
        let clique = multi_run(&device, &g, &g.degrees(), g.num_vertices()).unwrap();
        assert!(clique.len() >= members.len());
        assert!(g.is_clique(&clique));
    }

    #[test]
    fn dominates_single_run_on_random_graphs() {
        let device = Device::unlimited();
        for seed in 0..8 {
            let g = generators::gnp(150, 0.15, seed);
            let degrees = g.degrees();
            let single = multi_run(&device, &g, &degrees, 1).unwrap().len();
            let multi = multi_run(&device, &g, &degrees, g.num_vertices())
                .unwrap()
                .len();
            assert!(multi >= single, "seed {seed}: {multi} < {single}");
        }
    }

    #[test]
    fn single_run_is_a_maximal_clique() {
        let device = Device::unlimited();
        for seed in 0..10 {
            let g = generators::gnp(150, 0.08, seed);
            let clique = multi_run(&device, &g, &g.degrees(), 1).unwrap();
            assert!(g.is_clique(&clique), "seed {seed}");
            for v in 0..g.num_vertices() as u32 {
                let extends = !clique.contains(&v) && clique.iter().all(|&c| g.has_edge(v, c));
                assert!(
                    !extends,
                    "seed {seed}: vertex {v} extends the greedy clique"
                );
            }
        }
    }

    #[test]
    fn single_run_starts_at_the_highest_threshold() {
        let device = Device::unlimited();
        // Vertex 2 has the highest degree and grows the triangle.
        let g = Csr::from_edges(4, &[(0, 1), (1, 2), (0, 2), (2, 3)]);
        assert_eq!(
            multi_run(&device, &g, &g.degrees(), 1).unwrap(),
            vec![2, 0, 1]
        );
        // Two disjoint triangles; thresholds force a start in the second.
        let g = Csr::from_edges(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]);
        let mut thresholds = vec![0u32; 6];
        thresholds[4] = 10;
        assert_eq!(
            multi_run(&device, &g, &thresholds, 1).unwrap(),
            vec![4, 3, 5]
        );
    }

    #[test]
    fn equal_cliques_go_to_the_last_ranked_seed() {
        let device = Device::unlimited();
        // Two disjoint triangles; vertex 0 is the first seed, vertex 4 the
        // second. Both runs find a triangle, and the tie goes to the
        // worse-seeded run.
        let g = Csr::from_edges(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]);
        let thresholds = [9, 1, 1, 1, 8, 1];
        assert_eq!(
            multi_run(&device, &g, &thresholds, 2).unwrap(),
            vec![4, 3, 5]
        );
        // With every vertex a seed the last seed in rank order, vertex 5
        // (threshold 1, highest id), wins.
        assert_eq!(
            multi_run(&device, &g, &thresholds, 6).unwrap(),
            vec![5, 4, 3]
        );
    }

    #[test]
    fn respects_memory_budget() {
        // A budget too small for the candidate array must fail, not panic.
        let device = Device::with_memory_budget(16);
        let g = generators::complete(20);
        let err = multi_run(&device, &g, &g.degrees(), 20).unwrap_err();
        assert!(err.capacity == 16);
        // And the failed run must not leak charges.
        assert_eq!(device.memory().live(), 0);
    }

    #[test]
    fn charges_eight_bytes_per_candidate() {
        let device = Device::unlimited();
        let g = generators::gnp(80, 0.2, 3);
        multi_run(&device, &g, &g.degrees(), 10).unwrap();
        let mut degrees = g.degrees();
        degrees.sort_unstable_by(|a, b| b.cmp(a));
        let total: u32 = degrees[..10].iter().sum();
        assert_eq!(device.memory().peak(), total as usize * 8);
        assert_eq!(device.memory().live(), 0);
    }

    #[test]
    fn disconnected_components_all_reached() {
        let device = Device::unlimited();
        // Triangle {0,1,2} and K4 {3,4,5,6}, disconnected.
        let mut edges = vec![(0u32, 1u32), (1, 2), (0, 2)];
        for u in 3..7u32 {
            for v in (u + 1)..7 {
                edges.push((u, v));
            }
        }
        let g = Csr::from_edges(7, &edges);
        let clique = multi_run(&device, &g, &g.degrees(), g.num_vertices()).unwrap();
        assert_eq!(clique.len(), 4);
        assert!(clique.iter().all(|&v| v >= 3));
    }

    #[test]
    fn deterministic() {
        let device_a = Device::new(1, usize::MAX);
        let device_b = Device::new(6, usize::MAX);
        let g = generators::gnp(200, 0.1, 9);
        let a = multi_run(&device_a, &g, &g.degrees(), 200).unwrap();
        let b = multi_run(&device_b, &g, &g.degrees(), 200).unwrap();
        assert_eq!(a, b, "worker count must not change the result");
    }

    #[test]
    fn empty_and_edgeless_graphs() {
        let device = Device::unlimited();
        assert!(multi_run(&device, &Csr::empty(0), &[], 1)
            .unwrap()
            .is_empty());
        // Every seed is isolated: the last seed's singleton wins.
        let g = Csr::empty(3);
        assert_eq!(multi_run(&device, &g, &g.degrees(), 3).unwrap(), vec![2]);
        assert_eq!(multi_run(&device, &g, &g.degrees(), 1).unwrap(), vec![0]);
    }

    #[test]
    #[should_panic(expected = "one threshold per vertex")]
    fn wrong_threshold_length_panics() {
        let device = Device::unlimited();
        let g = Csr::empty(3);
        let _ = multi_run(&device, &g, &[1, 2], 1);
    }
}
