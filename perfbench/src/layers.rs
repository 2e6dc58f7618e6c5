//! Per-layer tallies of the traced run. Each traced op times the calls it
//! makes into a layer's public functions from the benchmark's own code
//! and reads the layer's public stat counters around each call; nothing
//! inside the program is instrumented.

use crate::harness::{metric as m, Metric};
use rfp_core::detector::{assess, DetectorConfig, MobilityVerdict};
use rfp_core::model::{extract_observation_into, AntennaObservation, ExtractConfig};
use rfp_core::{PruneStats, SolveStats, StepStats};
use rfp_dsp::preprocess::RawRead;
use rfp_dsp::FrontEndWorkspace;
use rfp_geom::AntennaPose;
use std::time::Instant;

/// Nanoseconds since `t`.
pub fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// The seven metric names of the 2-D and the 3-D solver.
const SOLVER_NAMES: [[&str; 7]; 2] = [
    [
        "solver.solve_us",
        "solver.solve_share",
        "solver.iterations_per_op",
        "solver.residual_evals_per_op",
        "solver.lambda_retries_per_op",
        "solver.seeds_refined_ratio",
        "solver.warm_hit_rate",
    ],
    [
        "solver3d.solve_us",
        "solver3d.solve_share",
        "solver3d.iterations_per_op",
        "solver3d.residual_evals_per_op",
        "solver3d.lambda_retries_per_op",
        "solver3d.seeds_refined_ratio",
        "solver3d.warm_hit_rate",
    ],
];

/// One solver's work across the traced ops.
#[derive(Debug, Default, Clone, Copy)]
pub struct SolverTally {
    pub ns: u64,
    pub iterations: u64,
    pub residual_evals: u64,
    pub lambda_retries: u64,
    pub prune: PruneStats,
}

impl SolverTally {
    /// Adds one solve's counter deltas.
    pub fn add(&mut self, ns: u64, work: SolveStats, step: StepStats, prune: PruneStats) {
        self.ns += ns;
        self.iterations += work.iterations;
        self.residual_evals += work.residual_evals;
        self.lambda_retries += step.lambda_retries;
        self.prune.seeds_total += prune.seeds_total;
        self.prune.seeds_refined += prune.seeds_refined;
        self.prune.warm_start_hits += prune.warm_start_hits;
        self.prune.warm_start_misses += prune.warm_start_misses;
    }
}

/// Everything the traced ops tallied.
#[derive(Debug, Default)]
pub struct Layers {
    /// Traced ops and their total wall time.
    pub ops: u64,
    pub op_ns: u64,
    /// Heap allocation events inside traced ops.
    pub allocs: u64,

    /// `model`: `extract_observation_into` per antenna.
    pub extract_ns: u64,
    pub reads: u64,
    pub channels: u64,
    pub extracted: u64,
    pub inlier_sum: f64,
    pub trig_table: u64,
    pub trig_total: u64,

    /// `detector`: `assess`.
    pub assess_ns: u64,
    pub assessed: u64,
    pub usable: u64,

    /// `solver` (2-D) and `solver3d`.
    pub solver: SolverTally,
    pub solver3d: SolverTally,

    /// `material`: feature extraction and classification.
    pub features_ns: u64,
    pub classify_ns: u64,

    /// `streaming`: pushes and advances of a session.
    pub push_ns: u64,
    pub advance_ns: u64,
    pub updates: u64,
    pub downdates: u64,
    pub rebuilds: u64,
    pub fallbacks: u64,
    pub antenna_windows: u64,
    pub retained_sum: u64,
}

impl Layers {
    /// Sum of the layer self times.
    pub fn attributed_ns(&self) -> u64 {
        self.extract_ns
            + self.assess_ns
            + self.solver.ns
            + self.solver3d.ns
            + self.features_ns
            + self.classify_ns
            + self.push_ns
            + self.advance_ns
    }

    /// Traced op time the layer spans do not cover (loop bookkeeping,
    /// observation-vector handling, the spans' own clock reads).
    pub fn unattributed_ns(&self) -> i64 {
        self.op_ns as i64 - self.attributed_ns() as i64
    }

    /// The per-layer metrics, every name on every workload (a layer a
    /// workload does not run reads 0).
    pub fn metrics(&self, untraced_p50_us: f64, traced_p50_us: f64) -> Vec<Metric> {
        let ops = self.ops.max(1) as f64;
        let per_op_us = |ns: u64| ns as f64 / 1e3 / ops;
        let share = |ns: u64| ns as f64 / self.op_ns.max(1) as f64;
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let mut out = vec![
            m("model.extract_us", per_op_us(self.extract_ns), "us"),
            m("model.extract_share", share(self.extract_ns), "ratio"),
            m("model.reads_per_op", self.reads as f64 / ops, "count"),
            m("model.channels_per_op", self.channels as f64 / ops, "count"),
            m(
                "model.inlier_fraction",
                if self.extracted == 0 {
                    0.0
                } else {
                    self.inlier_sum / self.extracted as f64
                },
                "ratio",
            ),
            m(
                "model.trig_table_fraction",
                ratio(self.trig_table, self.trig_total),
                "ratio",
            ),
            m("detector.assess_us", per_op_us(self.assess_ns), "us"),
            m(
                "detector.usable_rate",
                ratio(self.usable, self.assessed),
                "ratio",
            ),
        ];
        let solvers = [
            (SOLVER_NAMES[0], &self.solver),
            (SOLVER_NAMES[1], &self.solver3d),
        ];
        for (names, s) in solvers {
            let p = &s.prune;
            out.extend([
                m(names[0], per_op_us(s.ns), "us"),
                m(names[1], share(s.ns), "ratio"),
                m(names[2], s.iterations as f64 / ops, "count"),
                m(names[3], s.residual_evals as f64 / ops, "count"),
                m(names[4], s.lambda_retries as f64 / ops, "count"),
                m(names[5], ratio(p.seeds_refined, p.seeds_total), "ratio"),
                m(
                    names[6],
                    ratio(p.warm_start_hits, p.warm_start_hits + p.warm_start_misses),
                    "ratio",
                ),
            ]);
        }
        out.extend([
            m("material.features_us", per_op_us(self.features_ns), "us"),
            m("material.classify_us", per_op_us(self.classify_ns), "us"),
            m("streaming.push_us", per_op_us(self.push_ns), "us"),
            m("streaming.advance_us", per_op_us(self.advance_ns), "us"),
            m(
                "streaming.updates_per_op",
                self.updates as f64 / ops,
                "count",
            ),
            m(
                "streaming.downdates_per_op",
                self.downdates as f64 / ops,
                "count",
            ),
            m(
                "streaming.rebuilds_per_op",
                self.rebuilds as f64 / ops,
                "count",
            ),
            m(
                "streaming.fallback_rate",
                ratio(self.fallbacks, self.antenna_windows),
                "ratio",
            ),
            m(
                "streaming.retained_reads",
                self.retained_sum as f64 / ops,
                "count",
            ),
            m("trace.op_us", per_op_us(self.op_ns), "us"),
            m(
                "trace.unattributed_us",
                self.unattributed_ns() as f64 / 1e3 / ops,
                "us",
            ),
            m(
                "trace.overhead",
                traced_p50_us / untraced_p50_us - 1.0,
                "ratio",
            ),
            m("trace.allocs_per_op", self.allocs as f64 / ops, "count"),
        ]);
        out
    }
}

impl Layers {
    /// Closes a traced op that started at `t_op` with the allocator's
    /// event count at `allocs`.
    pub fn finish_op(&mut self, t_op: Instant, allocs: u64, lat_ns: &mut Vec<u64>) {
        let op_ns = ns_since(t_op);
        self.op_ns += op_ns;
        self.ops += 1;
        self.allocs += crate::alloc::events() - allocs;
        lat_ns.push(op_ns);
    }
}

/// The traced run's own front end: `extract_observation_into` per
/// antenna, then `assess`, with the observation slots recycled between
/// ops exactly as `sense_reusing` does.
#[derive(Default)]
pub struct FrontEnd {
    workspace: FrontEndWorkspace,
    /// The current op's usable observations.
    pub observations: Vec<AntennaObservation>,
    spare: Vec<AntennaObservation>,
}

impl FrontEnd {
    /// Extracts each antenna's observation, timing every call.
    pub fn extract(
        &mut self,
        poses: &[AntennaPose],
        reads: &[Vec<RawRead>],
        config: &ExtractConfig,
        layers: &mut Layers,
    ) {
        for (pose, reads) in poses.iter().zip(reads) {
            let mut slot = self
                .spare
                .pop()
                .unwrap_or_else(|| AntennaObservation::from_line(*pose, 0.0, 0.0));
            let t = Instant::now();
            let res =
                extract_observation_into(*pose, reads, config, &mut self.workspace, &mut slot);
            layers.extract_ns += ns_since(t);
            layers.reads += reads.len() as u64;
            let hits = self.workspace.trig_hits();
            layers.trig_table += hits[0];
            layers.trig_total += hits.iter().sum::<u64>();
            if res.is_ok() {
                layers.channels += slot.channels.len() as u64;
                layers.inlier_sum += slot.inlier_fraction;
                layers.extracted += 1;
                self.observations.push(slot);
            } else {
                self.spare.push(slot);
            }
        }
    }

    /// With at least `min` observations, times `assess`; returns whether
    /// the op goes on to the solve (not rejected as moving).
    pub fn assess(
        &self,
        min: usize,
        config: &DetectorConfig,
        reject_moving: bool,
        layers: &mut Layers,
    ) -> bool {
        if self.observations.len() < min {
            return false;
        }
        let t = Instant::now();
        let verdict = assess(&self.observations, config);
        layers.assess_ns += ns_since(t);
        layers.assessed += 1;
        layers.usable += u64::from(verdict.is_usable());
        !(reject_moving && matches!(verdict, MobilityVerdict::Moving { .. }))
    }

    /// Returns the op's observation slots to the pool.
    pub fn recycle(&mut self) {
        self.spare.append(&mut self.observations);
    }
}
