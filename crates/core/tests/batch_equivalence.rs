//! Batch-vs-sequential equivalence (the batch engine's core contract):
//! [`RfPrism::sense_batch`] must return, at every worker count, exactly the
//! element the sequential API returns for the same reads — compared down
//! to the bit pattern of every `f64`, not within a tolerance. The batch
//! path and the sequential path share one solver core, so any divergence
//! means shared mutable state leaked between solves.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rfp_core::{RfPrism, RfPrism3D, SenseError, SensingResult};
use rfp_geom::Vec2;
use rfp_phys::Material;
use rfp_sim::{Motion, Scene, SimTag};

/// Builds `n` tags' raw reads from a seeded random placement over the
/// scene's working region (mixed materials, some moving tags so the error
/// path is exercised too).
fn random_tag_reads(scene: &Scene, n: usize, seed: u64) -> Vec<Vec<Vec<rfp_dsp::preprocess::RawRead>>> {
    let materials = [
        Material::FreeSpace,
        Material::Wood,
        Material::Plastic,
        Material::Glass,
        Material::Water,
    ];
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let region = scene.region();
            let pos = Vec2::new(
                rng.gen_range(region.min().x..region.max().x),
                rng.gen_range(region.min().y..region.max().y),
            );
            let alpha = rng.gen_range(0.0..std::f64::consts::PI);
            let motion = if i % 7 == 3 {
                // A moving tag: must come back as Err(TagMoving) from both
                // paths identically.
                Motion::planar_linear(pos, Vec2::new(0.05, 0.04), alpha)
            } else {
                Motion::planar_static(pos, alpha)
            };
            let tag = SimTag::with_seeded_diversity(i as u64)
                .attached_to(materials[i % materials.len()])
                .with_motion(motion);
            scene.survey(&tag, seed ^ (i as u64).wrapping_mul(0x9e37)).per_antenna
        })
        .collect()
}

/// Bit-exact equality of two sensing outcomes.
fn assert_identical(a: &Result<SensingResult, SenseError>, b: &Result<SensingResult, SenseError>, i: usize) {
    match (a, b) {
        (Ok(x), Ok(y)) => {
            let fields = |r: &SensingResult| {
                let e = &r.estimate;
                let mut v = vec![
                    e.position.x,
                    e.position.y,
                    e.orientation,
                    e.kt,
                    e.bt,
                    e.cost,
                    e.residual_rms,
                    e.position_std_m,
                    e.orientation_std_rad,
                ];
                for row in e.position_cov {
                    v.extend(row);
                }
                for o in &r.observations {
                    v.extend([o.slope, o.intercept, o.residual_std]);
                }
                v
            };
            let (xa, xb) = (fields(x), fields(y));
            assert_eq!(xa.len(), xb.len(), "tag {i}: field count differs");
            for (j, (va, vb)) in xa.iter().zip(&xb).enumerate() {
                assert_eq!(
                    va.to_bits(),
                    vb.to_bits(),
                    "tag {i} field {j}: {va:?} != {vb:?} (bitwise)"
                );
            }
            assert_eq!(x.verdict, y.verdict, "tag {i}: verdict differs");
        }
        (Err(x), Err(y)) => assert_eq!(x, y, "tag {i}: errors differ"),
        (a, b) => panic!("tag {i}: outcome kind differs: {a:?} vs {b:?}"),
    }
}

#[test]
fn batch_matches_sequential_at_all_worker_counts() {
    let scene = Scene::standard_2d();
    let prism = RfPrism::new(scene.antenna_poses(), scene.reader().plan)
        .with_region(scene.region());
    for scene_seed in [1u64, 42] {
        let tags = random_tag_reads(&scene, 24, scene_seed);
        let sequential: Vec<_> = tags.iter().map(|reads| prism.sense(reads)).collect();
        for jobs in [1, 2, 8] {
            let batch = prism.sense_batch(&tags, jobs);
            assert_eq!(batch.len(), sequential.len());
            for (i, (b, s)) in batch.iter().zip(&sequential).enumerate() {
                assert_identical(b, s, i);
            }
        }
    }
}

#[test]
fn batch_cache_is_reusable_across_calls() {
    let scene = Scene::standard_2d();
    let prism = RfPrism::new(scene.antenna_poses(), scene.reader().plan)
        .with_region(scene.region());
    let cache = prism.batch_cache();
    let tags = random_tag_reads(&scene, 8, 7);
    let first = prism.sense_batch_with(&cache, &tags, 4);
    let second = prism.sense_batch_with(&cache, &tags, 4);
    for (i, (a, b)) in first.iter().zip(&second).enumerate() {
        assert_identical(a, b, i);
    }
}

#[test]
fn rounds_batch_matches_sequential() {
    let scene = Scene::standard_2d();
    let prism = RfPrism::new(scene.antenna_poses(), scene.reader().plan)
        .with_region(scene.region());
    let mut rng = StdRng::seed_from_u64(5);
    let tags: Vec<Vec<_>> = (0..10)
        .map(|i| {
            let pos = Vec2::new(rng.gen_range(-0.4..1.4), rng.gen_range(0.6..2.4));
            let alpha = rng.gen_range(0.0..std::f64::consts::PI);
            let tag = SimTag::with_seeded_diversity(100 + i)
                .with_motion(Motion::planar_static(pos, alpha));
            (0..3)
                .map(|r| scene.survey(&tag, 1000 + i * 10 + r).per_antenna)
                .collect()
        })
        .collect();
    let sequential: Vec<_> = tags.iter().map(|rounds| prism.sense_rounds(rounds)).collect();
    for jobs in [1, 2, 8] {
        let batch = prism.sense_rounds_batch(&tags, jobs);
        for (i, (b, s)) in batch.iter().zip(&sequential).enumerate() {
            assert_identical(b, s, i);
        }
    }
}

#[test]
fn batch_3d_matches_sequential() {
    use rfp_geom::Vec3;
    let scene = Scene::six_antenna_3d();
    let prism = RfPrism3D::new(
        scene.antenna_poses(),
        scene.reader().plan,
        scene.region(),
        (0.0, 1.5),
    );
    let mut rng = StdRng::seed_from_u64(11);
    let tags: Vec<_> = (0..6)
        .map(|i| {
            let position = Vec3::new(
                rng.gen_range(0.0..1.2),
                rng.gen_range(0.8..2.0),
                rng.gen_range(0.1..1.2),
            );
            let dipole = Vec3::new(
                rng.gen_range(-1.0..1.0),
                rng.gen_range(-1.0..1.0),
                rng.gen_range(0.1..1.0),
            )
            .normalized();
            let tag = SimTag::with_seeded_diversity(200 + i)
                .with_motion(Motion::Static { position, dipole });
            scene.survey(&tag, 300 + i).per_antenna
        })
        .collect();
    let sequential: Vec<_> = tags.iter().map(|reads| prism.sense(reads)).collect();
    for jobs in [1, 2, 8] {
        let batch = prism.sense_batch(&tags, jobs);
        for (i, (b, s)) in batch.iter().zip(&sequential).enumerate() {
            match (b, s) {
                (Ok(x), Ok(y)) => {
                    assert_eq!(x.estimate.position.x.to_bits(), y.estimate.position.x.to_bits());
                    assert_eq!(x.estimate.position.y.to_bits(), y.estimate.position.y.to_bits());
                    assert_eq!(x.estimate.position.z.to_bits(), y.estimate.position.z.to_bits());
                    assert_eq!(x.estimate.dipole.x.to_bits(), y.estimate.dipole.x.to_bits());
                    assert_eq!(x.estimate.kt.to_bits(), y.estimate.kt.to_bits());
                    assert_eq!(x.estimate.bt.to_bits(), y.estimate.bt.to_bits());
                    assert_eq!(x.estimate.cost.to_bits(), y.estimate.cost.to_bits());
                }
                (Err(x), Err(y)) => assert_eq!(x, y, "tag {i}"),
                (a, b) => panic!("tag {i}: outcome kind differs: {a:?} vs {b:?}"),
            }
        }
    }
}

/// The trig provider rides inside the pipeline config, so the batch
/// engine threads it to every worker for free — and because the `Table`
/// backend is bit-identical to libm on quantized (code-carrying) reads,
/// a table-backed *batch* must reproduce the libm *sequential* results
/// exactly. This crosses the two equivalence axes (backend × engine) in
/// one assertion.
#[test]
fn table_backed_batch_matches_libm_sequential() {
    use rfp_core::RfPrismConfig;
    use rfp_dsp::TrigProvider;
    let scene = Scene::standard_2d(); // default R420 reader: quantized phases
    let base = RfPrism::new(scene.antenna_poses(), scene.reader().plan)
        .with_region(scene.region());
    let libm_prism =
        base.clone().with_config(RfPrismConfig::paper().with_trig(TrigProvider::Libm));
    let table_prism =
        base.with_config(RfPrismConfig::paper().with_trig(TrigProvider::Table));
    let tags = random_tag_reads(&scene, 12, 23);
    let sequential: Vec<_> = tags.iter().map(|reads| libm_prism.sense(reads)).collect();
    for jobs in [1, 4] {
        let batch = table_prism.sense_batch(&tags, jobs);
        for (i, (b, s)) in batch.iter().zip(&sequential).enumerate() {
            assert_identical(b, s, i);
        }
    }
}

#[test]
fn errors_surface_at_the_right_index() {
    let scene = Scene::standard_2d();
    let prism = RfPrism::new(scene.antenna_poses(), scene.reader().plan)
        .with_region(scene.region());
    let mut tags = random_tag_reads(&scene, 5, 9);
    tags[2] = vec![Vec::new(), Vec::new()]; // wrong antenna count
    tags[4] = vec![Vec::new(), Vec::new(), Vec::new()]; // empty reads
    let out = prism.sense_batch(&tags, 3);
    assert!(matches!(
        out[2],
        Err(SenseError::AntennaCountMismatch { expected: 3, got: 2 })
    ));
    assert!(matches!(out[4], Err(SenseError::TooFewObservations { usable: 0, .. })));
    assert!(out[0].is_ok() || matches!(out[0], Err(SenseError::TagMoving { .. })));
}
