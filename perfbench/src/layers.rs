//! Per-layer metrics: span self times from the traced sweeps, the counters
//! `SolveStats` exports, and the accounting check that the layers cover
//! the traced solve time.
//!
//! Each span is attributed to a layer by its name; a span whose name names
//! no layer (a launch or primitive) belongs to the layer of its parent.
//! A span's self time is its duration minus that of its children, so the
//! self times under one `bench.solve` span add up to its duration.

use crate::batch::Traced;
use crate::inputs::Setup;
use crate::stats::{median, Metrics, MIB};
use crate::workload::Workload;
use gmc_mce::SolveStats;
use gmc_trace::Timeline;
use std::collections::BTreeMap;

/// The named layers must cover at least this share of the solver's traced
/// wall time (the `solve` spans); the rest is the solver's own bookkeeping
/// between phases. A run below it fails: its layer split would mislead.
pub const MIN_COVERAGE: f64 = 0.9;

/// The layer a span opens, or `None` when it inherits its parent's.
fn layer_of(name: &str) -> Option<&'static str> {
    Some(match name {
        "bench.solve" => "bench",
        "solve" => "solve",
        "heuristic" => "heuristic",
        "setup" => "setup",
        "expansion" | "bfs_level" => "bfs",
        "windowed_search" | "window" => "window",
        n if n.starts_with("corebits_") => "corebits",
        _ => return None,
    })
}

/// Primitive families timed across layers (`dpp.*_ms`): the span of the
/// outermost primitive of the family.
fn primitive_of(name: &str) -> Option<&'static str> {
    if name.starts_with("scan_") || name.starts_with("exclusive_scan") || name == "reduce_partials"
    {
        Some("scan")
    } else if name.starts_with("select_") {
        Some("select")
    } else if name.starts_with("sort_") {
        Some("sort")
    } else {
        None
    }
}

/// Span times summed over traced sweeps, ns.
#[derive(Default)]
pub struct LayerTimes {
    /// Self time per layer.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Duration of the `solve` spans.
    pub solve_ns: u64,
    /// BFS count and emit kernels, and scans under the `bfs` layer.
    pub bfs_count_ns: u64,
    pub bfs_emit_ns: u64,
    pub bfs_scan_ns: u64,
    /// Outermost scan, select and sort primitives anywhere.
    pub primitive_ns: BTreeMap<&'static str, u64>,
    /// Events lost to full trace rings, and unpaired begin/end events.
    pub dropped: usize,
}

impl LayerTimes {
    pub fn absorb(&mut self, timeline: &Timeline) {
        self.dropped += timeline.dropped + timeline.unmatched;
        let spans = &timeline.spans;
        let mut child_ns = vec![0u64; spans.len()];
        for span in spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.dur_ns;
            }
        }
        // Spans are start-ordered per thread, so a parent's layer is known
        // before its children are visited.
        let mut layer: Vec<&'static str> = Vec::with_capacity(spans.len());
        let mut primitive: Vec<Option<&'static str>> = Vec::with_capacity(spans.len());
        for (i, span) in spans.iter().enumerate() {
            let inherited = span.parent.map_or("bench", |p| layer[p]);
            let own = layer_of(span.name).unwrap_or(inherited);
            layer.push(own);
            *self.self_ns.entry(own).or_default() += span.dur_ns.saturating_sub(child_ns[i]);
            if span.name == "solve" {
                self.solve_ns += span.dur_ns;
            }
            if span.name.starts_with("bfs_count_cliques") {
                self.bfs_count_ns += span.dur_ns;
            }
            if span.name == "bfs_emit_cliques_fused" || span.name == "bfs_output_new_cliques" {
                self.bfs_emit_ns += span.dur_ns;
            }
            let family = primitive_of(span.name);
            let outermost = family.is_some() && span.parent.is_none_or(|p| primitive[p] != family);
            primitive.push(family.or_else(|| span.parent.and_then(|p| primitive[p])));
            if let (true, Some(family)) = (outermost, family) {
                *self.primitive_ns.entry(family).or_default() += span.dur_ns;
                if family == "scan" && own == "bfs" {
                    self.bfs_scan_ns += span.dur_ns;
                }
            }
        }
    }

    fn ms(&self, layer: &str) -> f64 {
        self.self_ns.get(layer).copied().unwrap_or(0) as f64 / 1e6
    }

    /// Share of the `solve` spans' time that a named phase layer holds.
    pub fn coverage(&self) -> f64 {
        let named: f64 = ["heuristic", "setup", "corebits", "bfs", "window"]
            .iter()
            .map(|l| self.ms(l))
            .sum();
        named / (self.solve_ns as f64 / 1e6)
    }
}

/// Solver counters summed over one sweep.
#[derive(Default)]
pub struct Counters {
    pub graphs: u64,
    pub exact: u64,
    pub heuristic_peak: u64,
    pub oriented_edges: u64,
    pub entries: u64,
    pub corebits_built: u64,
    pub corebits_bytes: u64,
    pub levels: u64,
    pub level_entries: u64,
    pub oracle_queries: u64,
    pub persistent_probes: u64,
    pub peak_bytes: u64,
    pub windows: u64,
    pub splits: u64,
    pub recursions: u64,
    pub window_peak: u64,
    pub idle_ns: u64,
    pub pool_launches: u64,
    pub morsels: u64,
    pub makespan_ns: u64,
    pub mean_chunk_ns: u64,
}

impl Counters {
    pub fn absorb(&mut self, s: &SolveStats, omega: u32) {
        self.graphs += 1;
        self.exact += u64::from(s.lower_bound == omega);
        self.heuristic_peak += s.heuristic_peak_bytes as u64;
        self.oriented_edges += s.setup.total_oriented_edges as u64;
        self.entries += s.setup.initial_entries as u64;
        self.corebits_built += u64::from(s.local_bits.persistent_bytes > 0);
        self.corebits_bytes += s.local_bits.persistent_bytes;
        self.levels += s.level_entries.len() as u64;
        self.level_entries += s.level_entries.iter().sum::<usize>() as u64;
        self.oracle_queries += s.oracle_queries;
        self.persistent_probes += s.local_bits.persistent_probes;
        self.peak_bytes += s.peak_device_bytes as u64;
        if let Some(w) = &s.window {
            self.windows += w.num_windows as u64;
            self.splits += w.window_splits as u64;
            self.recursions += w.sublist_recursions as u64;
            self.window_peak += w.peak_window_bytes as u64;
            self.idle_ns += w.sweep_idle_ns;
        }
        self.pool_launches += s.sched.pool_launches;
        self.morsels += s.sched.morsels;
        self.makespan_ns += s.sched.makespan_ns;
        self.mean_chunk_ns += s.sched.mean_chunk_ns;
    }
}

/// Adds every batch-side per-layer metric. Times are ms per sweep of the
/// workload's graphs; counters are per sweep too.
pub fn report(workload: &Workload, setup: &Setup, traced: &Traced, out: &mut Metrics) {
    let sweeps = traced.traced_s.len() as f64;
    let t = &traced.layers;
    let c = &traced.counters;
    let per_sweep = |ns: u64| ns as f64 / 1e6 / sweeps;
    let layer_ms = |layer: &str| t.ms(layer) / sweeps;
    let solve_ms = per_sweep(t.solve_ns);

    out.add("io.parse_ms", setup.parse_ms(), "ms");
    out.add(
        "io.mb_per_s",
        setup.bytes as f64 / 1e6 / (setup.parse_ms() / 1e3),
        "MB/s",
    );

    out.add("heuristic.ms", layer_ms("heuristic"), "ms");
    out.add("heuristic.share", layer_ms("heuristic") / solve_ms, "ratio");
    out.add("heuristic.call_ms", median(&traced.heuristic_call_ms), "ms");
    out.add(
        "heuristic.exact_frac",
        c.exact as f64 / c.graphs as f64,
        "ratio",
    );
    out.add("heuristic.peak_mib", c.heuristic_peak as f64 / MIB, "MiB");

    out.add("setup.ms", layer_ms("setup"), "ms");
    out.add("setup.share", layer_ms("setup") / solve_ms, "ratio");
    let preview = median(&traced.preview_call_ms) - median(&traced.heuristic_call_ms);
    out.add("setup.call_ms", preview, "ms");
    let prune = 1.0 - c.entries as f64 / c.oriented_edges.max(1) as f64;
    out.add("setup.prune_frac", prune, "ratio");
    out.add("setup.entries", c.entries as f64, "count");

    out.add("corebits.ms", layer_ms("corebits"), "ms");
    out.add("corebits.share", layer_ms("corebits") / solve_ms, "ratio");
    out.add("corebits.mib", c.corebits_bytes as f64 / MIB, "MiB");
    out.add(
        "corebits.built_frac",
        c.corebits_built as f64 / c.graphs as f64,
        "ratio",
    );

    out.add("bfs.ms", layer_ms("bfs"), "ms");
    out.add("bfs.share", layer_ms("bfs") / solve_ms, "ratio");
    out.add("bfs.count_ms", per_sweep(t.bfs_count_ns), "ms");
    out.add("bfs.scan_ms", per_sweep(t.bfs_scan_ns), "ms");
    out.add("bfs.emit_ms", per_sweep(t.bfs_emit_ns), "ms");
    out.add("bfs.levels", c.levels as f64, "count");
    out.add("bfs.entries", c.level_entries as f64, "count");
    out.add("bfs.oracle_queries", c.oracle_queries as f64, "count");
    out.add("bfs.persistent_probes", c.persistent_probes as f64, "count");
    let bfs_peak = if workload.windowed { 0 } else { c.peak_bytes };
    out.add("bfs.peak_mib", bfs_peak as f64 / MIB, "MiB");

    out.add("window.ms", layer_ms("window"), "ms");
    out.add("window.share", layer_ms("window") / solve_ms, "ratio");
    out.add("window.count", c.windows as f64, "count");
    out.add("window.splits", c.splits as f64, "count");
    out.add("window.recursions", c.recursions as f64, "count");
    out.add("window.peak_mib", c.window_peak as f64 / MIB, "MiB");
    out.add("window.idle_ms", c.idle_ns as f64 / 1e6, "ms");

    out.add("solve.other_ms", layer_ms("solve"), "ms");
    out.add("trace.coverage", t.coverage(), "ratio");
    let overhead = median(&traced.traced_s) / median(&traced.untraced_s) - 1.0;
    out.add("trace.overhead_frac", overhead, "ratio");

    // The untraced 2-worker sweeps: the executor's hand-offs between
    // threads, against `sweep_s.w1`.
    out.add("dpp.sweep_s.w2", median(&traced.untraced_s), "s");
    // Launch counts above the sequential-grid limit depend on the worker
    // count, so the two are reported apart and never compared.
    out.add("dpp.launches.w2", traced.launches_w2 as f64, "count");
    out.add("dpp.launches.w1", traced.launches_w1 as f64, "count");
    out.add("dpp.pool_launches", c.pool_launches as f64, "count");
    out.add("dpp.morsels", c.morsels as f64, "count");
    let imbalance = c.makespan_ns as f64 / c.mean_chunk_ns.max(1) as f64;
    out.add("dpp.imbalance", imbalance, "ratio");
    for family in ["scan", "select", "sort"] {
        let ns = t.primitive_ns.get(family).copied().unwrap_or(0);
        out.add(format!("dpp.{family}_ms"), per_sweep(ns), "ms");
    }
}
