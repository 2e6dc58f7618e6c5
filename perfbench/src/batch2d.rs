//! The 2-D batch workloads. An op is one tag window through
//! `RfPrism::sense_reusing`, then material features and classification.
//!
//! * `inventory_cold`: distinct tags at random poses, sparse windows,
//!   each sensed once with no prior.
//! * `rescan_dense_warm`: a fixed population in a cluttered room, dense
//!   windows, re-read round after round; each tag is warm-started from its
//!   last estimate.

use crate::compact::Reads;
use crate::harness::{Accuracy, Floors, Record, Rng, Size, Workload, LAYOUT_SEED};
use crate::harness::{PAPER_LOC_CM, PAPER_MATERIAL_ACC, PAPER_ORIENT_DEG};
use crate::layers::{ns_since, FrontEnd, Layers};
use crate::material::{deployment, random_spec, windows, MaterialHead, Spec, TagPool, Window};
use rfp_core::solver::{solve_2d_seeded_warm, SolveSeeds, SolverWorkspace};
use rfp_core::{BatchCache, MaterialFeatures, RfPrism, SenseWorkspace, TagEstimate2D, WarmStart};
use rfp_dsp::preprocess::RawRead;
use rfp_geom::angle;
use rfp_phys::Material;
use rfp_sim::{MultipathEnvironment, ReaderConfig, Scene};
use std::time::Instant;

/// The cluttered room of `rescan_dense_warm`: part of the deployment, so
/// seeds vary the reads, not the building.
const ROOM_SEED: u64 = 17;

/// Seeded inputs of a 2-D batch workload.
pub struct Inputs {
    scene: Scene,
    pool: TagPool,
    train: Vec<Window>,
    /// `rescan_dense_warm`'s first round, sensed untimed to give every
    /// tag its prior; empty for the cold workload.
    priming: Vec<Window>,
    /// Windows in op order; op `i` is tag `i % priming.len()` when warm.
    ops: Vec<Window>,
    floors: Floors,
}

impl Inputs {
    /// Ops in one pass.
    pub fn ops_per_pass(&self) -> usize {
        self.ops.len()
    }

    /// `inventory_cold`: R420 with 2 reads per channel, the window a tag
    /// gets when a large population shares the slotted-ALOHA budget. The
    /// 2,000 distinct tags and their poses are the deployment's (the
    /// hardest few set a pass's p99, so they stay put across seeds); the
    /// seed draws the reads.
    pub fn inventory_cold(seed: u64, size: Size) -> Self {
        let scene =
            Scene::standard_2d().with_reader(ReaderConfig::impinj_r420().with_reads_per_channel(2));
        let (pool, train) = deployment(&scene, size, 1);
        let mut layout = Rng::new(LAYOUT_SEED, 2);
        let mut reads = Rng::new(seed, 2);
        let classes = Material::CLASSES.len();
        let specs: Vec<Spec> = (0..size.pick(2000, 24))
            .map(|i| random_spec(&scene, &pool, i % classes, &mut layout, &mut reads))
            .collect();
        let ops = windows(&scene, &pool, &specs);
        let floors = Floors {
            loc_p50_cm_max: 2.0 * PAPER_LOC_CM,
            orient_p50_deg_max: 3.0 * PAPER_ORIENT_DEG,
            material_acc_min: PAPER_MATERIAL_ACC - 0.25,
            estimate_rate_min: 0.95,
        };
        Inputs {
            scene,
            pool,
            train,
            priming: Vec::new(),
            ops,
            floors,
        }
    }

    /// `rescan_dense_warm`: the cluttered room, 24 reads per channel, a
    /// fixed population (poses from the deployment) read round after
    /// round with reads drawn from `seed`.
    pub fn rescan_dense_warm(seed: u64, size: Size) -> Self {
        let scene = Scene::standard_2d()
            .with_environment(MultipathEnvironment::cluttered(3, ROOM_SEED))
            .with_reader(ReaderConfig::impinj_r420().with_reads_per_channel(24));
        let (pool, train) = deployment(&scene, size, 3);
        let mut layout = Rng::new(LAYOUT_SEED, 4);
        let mut reads = Rng::new(seed, 4);
        let classes = Material::CLASSES.len();
        let tags: Vec<Spec> = (0..size.pick(256, 4))
            .map(|i| random_spec(&scene, &pool, i % classes, &mut layout, &mut reads))
            .collect();
        let mut round = |_| {
            let specs: Vec<Spec> = tags
                .iter()
                .map(|t| Spec {
                    seed: reads.next_u64(),
                    ..*t
                })
                .collect();
            windows(&scene, &pool, &specs)
        };
        let priming = round(0);
        let ops = (0..size.pick(6, 2)).flat_map(&mut round).collect();
        let floors = Floors {
            loc_p50_cm_max: 3.0 * PAPER_LOC_CM,
            orient_p50_deg_max: 3.0 * PAPER_ORIENT_DEG,
            material_acc_min: PAPER_MATERIAL_ACC - 0.35,
            estimate_rate_min: 0.95,
        };
        Inputs {
            scene,
            pool,
            train,
            priming,
            ops,
            floors,
        }
    }
}

/// Set-up state of a 2-D batch workload: the pipeline, its cache, the
/// material head, the untraced workspace and the traced run's own
/// workspaces.
pub struct Batch2d<'a> {
    inputs: &'a Inputs,
    prism: RfPrism,
    cache: BatchCache,
    head: MaterialHead,
    ws: SenseWorkspace,
    /// Each tag's last estimate this pass (warm workload only).
    warm: Vec<Option<WarmStart>>,
    /// The op's reads, unpacked just before the op.
    reads: Vec<Vec<RawRead>>,
    seeds: SolveSeeds,
    frontend: FrontEnd,
    solver: SolverWorkspace,
}

impl<'a> Batch2d<'a> {
    /// The set-up: pipeline, cache, device calibrations, classifier.
    pub fn setup(inputs: &'a Inputs) -> Self {
        let scene = &inputs.scene;
        let prism =
            RfPrism::new(scene.antenna_poses(), scene.reader().plan).with_region(scene.region());
        let cache = prism.batch_cache();
        let mut ws = SenseWorkspace::default();
        let head = MaterialHead::train(&prism, &cache, &mut ws, &inputs.pool, &inputs.train);
        let seeds = SolveSeeds::for_scene(prism.region(), &prism.config().solver, prism.poses());
        Batch2d {
            inputs,
            prism,
            cache,
            head,
            ws,
            warm: Vec::new(),
            reads: Vec::new(),
            seeds,
            frontend: FrontEnd::default(),
            solver: SolverWorkspace::default(),
        }
    }

    /// Unpacks `reads` into the op buffer.
    fn unpack(&mut self, reads: &Reads) {
        reads.unpack_into(self.prism.plan(), &mut self.reads);
    }

    /// The prior of op `i`: its tag's last estimate.
    fn prior(&self, i: usize) -> Option<WarmStart> {
        match self.warm.len() {
            0 => None,
            p => self.warm[i % p],
        }
    }

    fn remember(&mut self, i: usize, estimate: &TagEstimate2D) {
        if let Some(t) = i.checked_rem(self.warm.len()) {
            self.warm[t] = Some(WarmStart::from_estimate(estimate));
        }
    }
}

fn record(e: &TagEstimate2D, class: usize) -> Record {
    Record {
        estimate: Some([
            e.position.x,
            e.position.y,
            e.orientation,
            e.kt,
            e.bt,
            e.cost,
            e.residual_rms,
            e.position_std_m,
        ]),
        class: Some(class),
    }
}

impl Workload for Batch2d<'_> {
    /// Clears the priors; the warm workload then senses its first round
    /// (untimed) so every tag enters the timed rounds with one.
    fn reset(&mut self) {
        let priming = &self.inputs.priming;
        self.warm.clear();
        self.warm.resize(priming.len(), None);
        for (i, w) in priming.iter().enumerate() {
            self.unpack(&w.reads);
            if let Ok(r) = self
                .prism
                .sense_reusing(&self.cache, &self.reads, None, &mut self.ws)
            {
                self.remember(i, &r.estimate);
                self.ws.recycle(r);
            }
        }
    }

    fn pass(&mut self, lat_ns: &mut Vec<u64>, out: &mut Vec<Record>) {
        let inputs = self.inputs;
        for (i, w) in inputs.ops.iter().enumerate() {
            self.unpack(&w.reads);
            let t = Instant::now();
            let prior = self.prior(i);
            let sensed =
                self.prism
                    .sense_reusing(&self.cache, &self.reads, prior.as_ref(), &mut self.ws);
            let rec = match sensed {
                Ok(r) => {
                    let rec = record(&r.estimate, self.head.classify(&r, w.truth.tag));
                    self.remember(i, &r.estimate);
                    self.ws.recycle(r);
                    rec
                }
                Err(_) => Record::NONE,
            };
            lat_ns.push(ns_since(t));
            out.push(rec);
        }
    }

    /// The op recomposed in `sense_reusing`'s order: per-antenna extract,
    /// assess, solve, then material features and classification.
    fn traced_pass(&mut self, lat_ns: &mut Vec<u64>, out: &mut Vec<Record>, layers: &mut Layers) {
        let config = *self.prism.config();
        let inputs = self.inputs;
        for (i, w) in inputs.ops.iter().enumerate() {
            self.unpack(&w.reads);
            let allocs = crate::alloc::events();
            let t_op = Instant::now();
            let prior = self.prior(i);
            let mut rec = Record::NONE;
            self.frontend
                .extract(self.prism.poses(), &self.reads, &config.extract, layers);
            if self
                .frontend
                .assess(3, &config.detector, config.reject_moving, layers)
            {
                let observations = &self.frontend.observations;
                let (s0, p0, q0) = (
                    self.solver.stats(),
                    self.solver.prune_stats(),
                    self.solver.step_stats(),
                );
                let t = Instant::now();
                let solved = solve_2d_seeded_warm(
                    observations,
                    &self.seeds,
                    &config.solver,
                    &mut self.solver,
                    prior.as_ref(),
                );
                layers.solver.add(
                    ns_since(t),
                    self.solver.stats().since(s0),
                    self.solver.step_stats().since(q0),
                    self.solver.prune_stats().since(p0),
                );
                if let Ok(estimate) = solved {
                    let t = Instant::now();
                    let features = MaterialFeatures::extract(
                        observations,
                        &estimate,
                        self.head.calibration(w.truth.tag),
                        self.head.channels(),
                    );
                    layers.features_ns += ns_since(t);
                    let t = Instant::now();
                    let class = self.head.class_of(&features);
                    layers.classify_ns += ns_since(t);
                    rec = record(&estimate, class);
                    self.remember(i, &estimate);
                }
            }
            self.frontend.recycle();
            layers.finish_op(t_op, allocs, lat_ns);
            out.push(rec);
        }
    }

    fn accuracy(&mut self, reference: &[Record]) -> Accuracy {
        let mut acc = Accuracy::default();
        for (w, r) in self.inputs.ops.iter().zip(reference) {
            acc.ops += 1;
            let Some(e) = r.estimate else { continue };
            acc.estimates += 1;
            let truth = &w.truth;
            let (dx, dy) = (e[0] - truth.position.x, e[1] - truth.position.y);
            acc.loc_cm.push(dx.hypot(dy) * 100.0);
            acc.orient_deg
                .push(angle::dipole_distance(e[2], truth.alpha).to_degrees());
            if let Some(c) = r.class {
                acc.classified += 1;
                acc.class_correct += u64::from(c == truth.class);
            }
        }
        acc
    }

    fn floors(&self) -> Floors {
        self.inputs.floors
    }
}
