//! The 2-D material head: a pool of tag devices with their one-time
//! calibrations (paper §V-B) and the paper's Decision-Tree classifier,
//! trained at set-up from generated training windows. Also the 2-D window
//! generator the batch workloads and the material check set share.

use crate::compact::Reads;
use crate::harness::{par_map, Rng, Size, LAYOUT_SEED};
use rfp_core::material::{ClassifierKind, MaterialIdentifier};
use rfp_core::model::{extract_observation, ExtractConfig};
use rfp_core::SensingResult;
use rfp_core::{BatchCache, DeviceCalibration, MaterialFeatures, RfPrism, SenseWorkspace};
use rfp_dsp::preprocess::RawRead;
use rfp_geom::Vec2;
use rfp_ml::dataset::Dataset;
use rfp_phys::Material;
use rfp_sim::{Motion, NoiseModel, ReaderConfig, Scene, SimTag};

/// Where and how a pool tag sits in the clean calibration booth.
const CAL_POSITION: Vec2 = Vec2::new(0.5, 1.0);
const CAL_ALPHA: f64 = 0.0;

/// What a 2-D window shows: a pool tag of one material at one pose, read
/// with one survey seed.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Index of the tag device in the pool.
    pub tag: usize,
    /// True material class index.
    pub class: usize,
    pub position: Vec2,
    pub alpha: f64,
    pub seed: u64,
}

/// Packed raw reads of one 2-D window and the truth behind them.
#[derive(Debug, Clone)]
pub struct Window {
    pub truth: Spec,
    pub reads: Reads,
}

/// The tag devices of a workload: their seeds and calibration-booth reads.
#[derive(Debug, Clone)]
pub struct TagPool {
    pub seeds: Vec<u64>,
    pub cal_reads: Vec<Vec<Vec<RawRead>>>,
}

impl TagPool {
    /// `n` devices drawn from `rng`, each surveyed once in the clean booth.
    pub fn generate(rng: &mut Rng, n: usize) -> Self {
        let booth = Scene::standard_2d()
            .with_noise(NoiseModel::clean())
            .with_reader(ReaderConfig::ideal());
        let seeds: Vec<u64> = (0..n).map(|_| rng.next_u64() >> 16).collect();
        let cal_reads = seeds
            .iter()
            .map(|&s| {
                let tag = SimTag::with_seeded_diversity(s)
                    .with_motion(Motion::planar_static(CAL_POSITION, CAL_ALPHA));
                booth.survey(&tag, rng.next_u64()).per_antenna
            })
            .collect();
        TagPool { seeds, cal_reads }
    }
}

/// A pool tag of `class`'s material at a random pose in `scene`'s working
/// region (drawn from `layout`), with a survey seed drawn from `reads`.
pub fn random_spec(
    scene: &Scene,
    pool: &TagPool,
    class: usize,
    layout: &mut Rng,
    reads: &mut Rng,
) -> Spec {
    let region = scene.region();
    let position = Vec2::new(
        layout.range(region.min().x, region.max().x),
        layout.range(region.min().y, region.max().y),
    );
    let alpha = layout.range(0.0, std::f64::consts::PI);
    let tag = layout.below(pool.seeds.len());
    Spec {
        tag,
        class,
        position,
        alpha,
        seed: reads.next_u64(),
    }
}

/// Surveys every spec (in parallel) and packs the reads.
pub fn windows(scene: &Scene, pool: &TagPool, specs: &[Spec]) -> Vec<Window> {
    par_map(specs.len(), |i| {
        let s = specs[i];
        let tag = SimTag::with_seeded_diversity(pool.seeds[s.tag])
            .attached_to(Material::CLASSES[s.class])
            .with_motion(Motion::planar_static(s.position, s.alpha));
        let reads = Reads::pack(
            &scene.survey(&tag, s.seed).per_antenna,
            &scene.reader().plan,
        );
        Window { truth: s, reads }
    })
}

/// The fixed deployment of a 2-D scene: its tag devices and the
/// training corpus of the classifier.
pub fn deployment(scene: &Scene, size: Size, stream: u64) -> (TagPool, Vec<Window>) {
    let mut layout = Rng::new(LAYOUT_SEED, stream);
    let mut reads = Rng::new(LAYOUT_SEED, stream + 100);
    let pool = TagPool::generate(&mut layout, size.pick(16, 3));
    let classes = Material::CLASSES.len();
    let specs: Vec<Spec> = (0..size.pick(40, 6) * classes)
        .map(|i| random_spec(scene, &pool, i % classes, &mut layout, &mut reads))
        .collect();
    let train = windows(scene, &pool, &specs);
    (pool, train)
}

/// A trained material head.
pub struct MaterialHead {
    calibrations: Vec<DeviceCalibration>,
    identifier: MaterialIdentifier,
    channels: usize,
}

impl MaterialHead {
    /// Calibrates every pool device and trains the classifier on the
    /// training windows sensed through `prism`.
    pub fn train(
        prism: &RfPrism,
        cache: &BatchCache,
        ws: &mut SenseWorkspace,
        pool: &TagPool,
        train: &[Window],
    ) -> Self {
        let extract = ExtractConfig::paper();
        let calibrations = pool
            .cal_reads
            .iter()
            .map(|reads| {
                let obs: Vec<_> = prism
                    .poses()
                    .iter()
                    .zip(reads)
                    .map(|(&p, r)| extract_observation(p, r, &extract).expect("clean booth survey"))
                    .collect();
                DeviceCalibration::from_observations(&obs, CAL_POSITION, CAL_ALPHA)
            })
            .collect::<Vec<_>>();
        let channels = prism.plan().channel_count();
        let mut data = Dataset::new(Material::CLASSES.len());
        let mut buf = Vec::new();
        for w in train {
            w.reads.unpack_into(prism.plan(), &mut buf);
            if let Ok(r) = prism.sense_reusing(cache, &buf, None, ws) {
                let features = r.material_features(&calibrations[w.truth.tag], channels);
                data.push(features.to_vector(), w.truth.class);
                ws.recycle(r);
            }
        }
        let identifier = MaterialIdentifier::train(&data, &ClassifierKind::paper_default());
        MaterialHead {
            calibrations,
            identifier,
            channels,
        }
    }

    /// The material class of a sensed window of pool tag `tag`.
    pub fn classify(&self, result: &SensingResult, tag: usize) -> usize {
        let features = result.material_features(&self.calibrations[tag], self.channels);
        self.class_of(&features)
    }

    /// Classifies extracted features.
    pub fn class_of(&self, features: &MaterialFeatures) -> usize {
        self.identifier
            .identify(features)
            .class_index()
            .expect("classifier returns a known class")
    }

    pub fn calibration(&self, tag: usize) -> &DeviceCalibration {
        &self.calibrations[tag]
    }

    pub fn channels(&self) -> usize {
        self.channels
    }
}

/// The material check of workloads whose ops classify nothing: standard
/// 2-D windows of a fixed pool and layout, read with the run's seed,
/// sensed and classified after timing.
pub struct CheckSet {
    scene: Scene,
    pool: TagPool,
    train: Vec<Window>,
    windows: Vec<Window>,
}

impl CheckSet {
    pub fn generate(seed: u64, size: Size) -> Self {
        let scene = Scene::standard_2d();
        let (pool, train) = deployment(&scene, size, 10);
        let mut layout = Rng::new(LAYOUT_SEED, 11);
        let mut reads = Rng::new(seed, 11);
        let classes = Material::CLASSES.len();
        let specs: Vec<Spec> = (0..size.pick(256, 16))
            .map(|i| random_spec(&scene, &pool, i % classes, &mut layout, &mut reads))
            .collect();
        let windows = windows(&scene, &pool, &specs);
        CheckSet {
            scene,
            pool,
            train,
            windows,
        }
    }

    /// The 2-D pipeline and a trained head (part of the set-up).
    pub fn setup(&self) -> CheckHead {
        let prism = RfPrism::new(self.scene.antenna_poses(), self.scene.reader().plan)
            .with_region(self.scene.region());
        let cache = prism.batch_cache();
        let mut ws = SenseWorkspace::default();
        let head = MaterialHead::train(&prism, &cache, &mut ws, &self.pool, &self.train);
        CheckHead {
            prism,
            cache,
            ws,
            head,
        }
    }

    /// `(classified, correct)` over the check windows.
    pub fn score(&self, h: &mut CheckHead) -> (u64, u64) {
        let (mut classified, mut correct) = (0, 0);
        let mut buf = Vec::new();
        for w in &self.windows {
            w.reads.unpack_into(h.prism.plan(), &mut buf);
            if let Ok(r) = h.prism.sense_reusing(&h.cache, &buf, None, &mut h.ws) {
                classified += 1;
                correct += u64::from(h.head.classify(&r, w.truth.tag) == w.truth.class);
                h.ws.recycle(r);
            }
        }
        (classified, correct)
    }
}

/// The set-up half of a [`CheckSet`].
pub struct CheckHead {
    prism: RfPrism,
    cache: BatchCache,
    ws: SenseWorkspace,
    head: MaterialHead,
}
