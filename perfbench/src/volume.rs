//! `volume_3d`: the six-antenna 3-D deployment, tags at random 3-D
//! positions with random dipole axes, each sensed once with no prior
//! through `RfPrism3D::sense_reusing` — the only workload that runs the
//! 3-D pipeline and solver.

use crate::compact::Reads;
use crate::harness::{par_map, Accuracy, Floors, Record, Rng, Size, Workload, LAYOUT_SEED};
use crate::harness::{PAPER_LOC_CM, PAPER_MATERIAL_ACC, PAPER_ORIENT_DEG};
use crate::layers::{ns_since, FrontEnd, Layers};
use crate::material::{CheckHead, CheckSet};
use rfp_core::solver3d::{solve_3d_seeded_warm, Solve3DSeeds, Solver3DWorkspace, TagEstimate3D};
use rfp_core::{BatchCache3D, RfPrism3D, RfPrism3DConfig, Sense3DWorkspace};
use rfp_dsp::preprocess::RawRead;
use rfp_geom::{AntennaPose, Vec3};
use rfp_phys::Material;
use rfp_sim::{Motion, Scene, SimTag};
use std::time::Instant;

/// Height search range of the 3-D pipeline, metres.
const Z_RANGE: (f64, f64) = (0.0, 1.5);

/// One 3-D window and its truth.
struct Window {
    position: Vec3,
    dipole: Vec3,
    reads: Reads,
}

/// Seeded inputs of `volume_3d`.
pub struct Inputs {
    scene: Scene,
    windows: Vec<Window>,
    check: CheckSet,
}

impl Inputs {
    /// Ops in one pass.
    pub fn ops_per_pass(&self) -> usize {
        self.windows.len()
    }

    /// The poses are the deployment's (the hardest few windows set a
    /// pass's p99, so they stay put across seeds); the seed draws the
    /// reads.
    pub fn generate(seed: u64, size: Size) -> Self {
        let scene = Scene::six_antenna_3d();
        let mut layout = Rng::new(LAYOUT_SEED, 6);
        let mut reads = Rng::new(seed, 6);
        let region = scene.region();
        let specs: Vec<(Vec3, Vec3, Material, u64, u64)> = (0..size.pick(2000, 12))
            .map(|_| {
                let position = Vec3::new(
                    layout.range(region.min().x, region.max().x),
                    layout.range(region.min().y, region.max().y),
                    layout.range(0.2, 1.3),
                );
                // Uniform on the sphere.
                let z = layout.range(-1.0, 1.0);
                let phi = layout.range(0.0, std::f64::consts::TAU);
                let r = (1.0 - z * z).sqrt();
                let dipole = Vec3::new(r * phi.cos(), r * phi.sin(), z);
                let material = Material::CLASSES[layout.below(Material::CLASSES.len())];
                (
                    position,
                    dipole,
                    material,
                    layout.next_u64() >> 16,
                    reads.next_u64(),
                )
            })
            .collect();
        let windows = par_map(specs.len(), |i| {
            let (position, dipole, material, device, survey) = specs[i];
            let tag = SimTag::with_seeded_diversity(device)
                .attached_to(material)
                .with_motion(Motion::Static { position, dipole });
            let per_antenna = scene.survey(&tag, survey).per_antenna;
            Window {
                position,
                dipole,
                reads: Reads::pack(&per_antenna, &scene.reader().plan),
            }
        });
        let check = CheckSet::generate(seed, size);
        Inputs {
            scene,
            windows,
            check,
        }
    }
}

/// Set-up state: the 3-D pipeline, its cache, the untraced workspace,
/// the traced run's own workspaces and the material check.
pub struct Volume<'a> {
    inputs: &'a Inputs,
    poses: Vec<AntennaPose>,
    config: RfPrism3DConfig,
    prism: RfPrism3D,
    cache: BatchCache3D,
    ws: Sense3DWorkspace,
    /// The op's reads, unpacked just before the op.
    reads: Vec<Vec<RawRead>>,
    seeds: Solve3DSeeds,
    frontend: FrontEnd,
    solver: Solver3DWorkspace,
    check: CheckHead,
}

impl<'a> Volume<'a> {
    pub fn setup(inputs: &'a Inputs) -> Self {
        let scene = &inputs.scene;
        let poses = scene.antenna_poses();
        let config = RfPrism3DConfig::paper();
        let prism = RfPrism3D::new(poses.clone(), scene.reader().plan, scene.region(), Z_RANGE)
            .with_config(config);
        let cache = prism.batch_cache();
        let seeds = Solve3DSeeds::for_scene(scene.region(), Z_RANGE, &config.solver, &poses);
        Volume {
            inputs,
            poses,
            config,
            prism,
            cache,
            ws: Sense3DWorkspace::default(),
            reads: Vec::new(),
            seeds,
            frontend: FrontEnd::default(),
            solver: Solver3DWorkspace::default(),
            check: inputs.check.setup(),
        }
    }
}

fn record(e: &TagEstimate3D) -> Record {
    Record {
        estimate: Some([
            e.position.x,
            e.position.y,
            e.position.z,
            e.dipole.x,
            e.dipole.y,
            e.dipole.z,
            e.kt,
            e.bt,
        ]),
        class: None,
    }
}

impl Workload for Volume<'_> {
    fn reset(&mut self) {}

    fn pass(&mut self, lat_ns: &mut Vec<u64>, out: &mut Vec<Record>) {
        for w in &self.inputs.windows {
            w.reads.unpack_into(self.prism.plan(), &mut self.reads);
            let t = Instant::now();
            let rec = match self
                .prism
                .sense_reusing(&self.cache, &self.reads, None, &mut self.ws)
            {
                Ok(r) => {
                    let rec = record(&r.estimate);
                    self.ws.recycle(r);
                    rec
                }
                Err(_) => Record::NONE,
            };
            lat_ns.push(ns_since(t));
            out.push(rec);
        }
    }

    /// The op recomposed in `RfPrism3D::sense_reusing`'s order.
    fn traced_pass(&mut self, lat_ns: &mut Vec<u64>, out: &mut Vec<Record>, layers: &mut Layers) {
        let config = self.config;
        for w in &self.inputs.windows {
            w.reads.unpack_into(self.prism.plan(), &mut self.reads);
            let allocs = crate::alloc::events();
            let t_op = Instant::now();
            let mut rec = Record::NONE;
            self.frontend
                .extract(&self.poses, &self.reads, &config.extract, layers);
            if self
                .frontend
                .assess(4, &config.detector, config.reject_moving, layers)
            {
                let (s0, p0, q0) = (
                    self.solver.stats(),
                    self.solver.prune_stats(),
                    self.solver.step_stats(),
                );
                let t = Instant::now();
                let solved = solve_3d_seeded_warm(
                    &self.frontend.observations,
                    &self.seeds,
                    &config.solver,
                    &mut self.solver,
                    None,
                );
                layers.solver3d.add(
                    ns_since(t),
                    self.solver.stats().since(s0),
                    self.solver.step_stats().since(q0),
                    self.solver.prune_stats().since(p0),
                );
                if let Ok(estimate) = solved {
                    rec = record(&estimate);
                }
            }
            self.frontend.recycle();
            layers.finish_op(t_op, allocs, lat_ns);
            out.push(rec);
        }
    }

    fn accuracy(&mut self, reference: &[Record]) -> Accuracy {
        let mut acc = Accuracy::default();
        for (w, r) in self.inputs.windows.iter().zip(reference) {
            acc.ops += 1;
            let Some(e) = r.estimate else { continue };
            acc.estimates += 1;
            let estimate = TagEstimate3D {
                position: Vec3::new(e[0], e[1], e[2]),
                dipole: Vec3::new(e[3], e[4], e[5]),
                kt: e[6],
                bt: e[7],
                cost: 0.0,
                residual_rms: 0.0,
            };
            acc.loc_cm
                .push(estimate.position.distance(w.position) * 100.0);
            acc.orient_deg
                .push(estimate.dipole_axis_error(w.dipole).to_degrees());
        }
        (acc.classified, acc.class_correct) = self.inputs.check.score(&mut self.check);
        acc
    }

    fn floors(&self) -> Floors {
        Floors {
            loc_p50_cm_max: 5.0 * PAPER_LOC_CM,
            orient_p50_deg_max: 3.0 * PAPER_ORIENT_DEG,
            material_acc_min: PAPER_MATERIAL_ACC - 0.25,
            estimate_rate_min: 0.95,
        }
    }
}
