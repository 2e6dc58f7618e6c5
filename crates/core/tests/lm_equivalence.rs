//! Bit-identity suite for the const-generic LM facades (DESIGN.md §6).
//!
//! The 2-D (`LmCore<5>`/`LmCore<3>`) and 3-D (`LmCore<7>`/`LmCore<4>`)
//! solver facades must reproduce the frozen pre-refactor solvers in
//! `rfp_core::reference` bit-for-bit — same refinements, same sort
//! orders, same warm-gate decisions, same final estimate down to the last
//! ulp. Every configuration axis gets a pin: exhaustive vs pruned scans,
//! RSSI penalty on/off, geometry tables vs direct evaluation, and warm
//! starts both fresh (gate hit) and teleported-stale (gate miss
//! fallback). The exhaustive preset runs the facades' one seed-beam loop
//! with an unbounded beam, while the oracle still runs its legacy
//! exhaustive loop, so the exhaustive pins cross both of that loop's
//! arms (geometry tables and direct evaluation, cold and after a warm
//! miss) against the beam.

use proptest::prelude::*;
use rfp_core::model::{extract_observation, AntennaObservation, ExtractConfig};
use rfp_core::reference::{
    solve_2d_reference, solve_3d_reference, Reference2DWorkspace, Reference3DWorkspace,
};
use rfp_core::solver::{
    solve_2d_seeded_warm, solve_2d_tracking_warm, PruneStats, SolveSeeds, SolverConfig,
    SolverWorkspace, TagEstimate2D, WarmGate, WarmStart,
};
use rfp_core::solver3d::{
    solve_3d_seeded_warm, Solve3DSeeds, Solver3DConfig, Solver3DWorkspace, TagEstimate3D,
    WarmStart3D,
};
use rfp_geom::{Vec2, Vec3};
use rfp_phys::Material;
use rfp_sim::{Motion, MultipathEnvironment, Scene, SimTag};

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

fn observations_2d(
    x: f64,
    y: f64,
    alpha: f64,
    material_idx: usize,
    seed: u64,
    clutter: bool,
) -> Option<(Scene, Vec<AntennaObservation>)> {
    let mut scene = Scene::standard_2d();
    if clutter {
        scene = scene.with_environment(MultipathEnvironment::cluttered(3, seed ^ 0x5d));
    }
    let material = Material::CLASSES[material_idx % Material::CLASSES.len()];
    let tag = SimTag::with_seeded_diversity(seed)
        .attached_to(material)
        .with_motion(Motion::planar_static(Vec2::new(x, y), alpha));
    let survey = scene.survey(&tag, seed.wrapping_mul(0x9e37_79b9));
    let obs: Option<Vec<_>> = scene
        .antenna_poses()
        .iter()
        .zip(&survey.per_antenna)
        .map(|(&p, r)| extract_observation(p, r, &ExtractConfig::paper()).ok())
        .collect();
    obs.map(|o| (scene, o))
}

fn observations_3d(
    position: Vec3,
    dipole: Vec3,
    seed: u64,
) -> Option<(Scene, Vec<AntennaObservation>)> {
    let scene = Scene::six_antenna_3d();
    let tag = SimTag::nominal(1)
        .with_motion(Motion::Static { position, dipole: dipole.normalized() });
    let survey = scene.survey(&tag, seed);
    let obs: Option<Vec<_>> = scene
        .antenna_poses()
        .iter()
        .zip(&survey.per_antenna)
        .map(|(&p, r)| extract_observation(p, r, &ExtractConfig::paper()).ok())
        .collect();
    obs.map(|o| (scene, o))
}

/// Bit-pattern equality across every 2-D output field, uncertainty
/// propagation included.
fn assert_bits_2d(facade: &TagEstimate2D, oracle: &TagEstimate2D, what: &str) {
    let fields = |e: &TagEstimate2D| {
        [
            e.position.x,
            e.position.y,
            e.orientation,
            e.kt,
            e.bt,
            e.cost,
            e.residual_rms,
            e.position_std_m,
            e.orientation_std_rad,
            e.position_cov[0][0],
            e.position_cov[0][1],
            e.position_cov[1][0],
            e.position_cov[1][1],
        ]
    };
    for (i, (fa, fb)) in fields(facade).iter().zip(fields(oracle).iter()).enumerate() {
        assert_eq!(
            fa.to_bits(),
            fb.to_bits(),
            "{what} (field {i}): facade {facade:?} vs oracle {oracle:?}"
        );
    }
}

/// Bit-pattern equality across every 3-D output field.
fn assert_bits_3d(facade: &TagEstimate3D, oracle: &TagEstimate3D, what: &str) {
    let fields = |e: &TagEstimate3D| {
        [
            e.position.x,
            e.position.y,
            e.position.z,
            e.dipole.x,
            e.dipole.y,
            e.dipole.z,
            e.kt,
            e.bt,
            e.cost,
            e.residual_rms,
        ]
    };
    for (i, (fa, fb)) in fields(facade).iter().zip(fields(oracle).iter()).enumerate() {
        assert_eq!(
            fa.to_bits(),
            fb.to_bits(),
            "{what} (field {i}): facade {facade:?} vs oracle {oracle:?}"
        );
    }
}

/// Runs facade and oracle against the same scene/config/warm input and
/// pins the results bit-for-bit. `with_geometry` controls whether the
/// geometry tables are in play. Returns the facade's seed/warm-start
/// tallies of the solve.
fn pin_2d(
    obs: &[AntennaObservation],
    scene: &Scene,
    config: &SolverConfig,
    warm: Option<&WarmStart>,
    with_geometry: bool,
    what: &str,
) -> PruneStats {
    let seeds = if with_geometry {
        SolveSeeds::for_scene(scene.region(), config, &scene.antenna_poses())
    } else {
        SolveSeeds::new(scene.region(), config)
    };
    let mut ws = SolverWorkspace::default();
    let facade = solve_2d_seeded_warm(obs, &seeds, config, &mut ws, warm).expect("solvable");
    let mut oracle_ws = Reference2DWorkspace::default();
    let oracle =
        solve_2d_reference(obs, &seeds, config, &mut oracle_ws, warm).expect("solvable");
    assert_bits_2d(&facade, &oracle, what);
    ws.prune_stats()
}

fn pin_3d(
    obs: &[AntennaObservation],
    scene: &Scene,
    config: &Solver3DConfig,
    warm: Option<&WarmStart3D>,
    with_geometry: bool,
    what: &str,
) -> PruneStats {
    let z_range = (0.0, 1.0);
    let seeds = if with_geometry {
        Solve3DSeeds::for_scene(scene.region(), z_range, config, &scene.antenna_poses())
    } else {
        Solve3DSeeds::new(scene.region(), z_range, config)
    };
    let mut ws = Solver3DWorkspace::default();
    let facade = solve_3d_seeded_warm(obs, &seeds, config, &mut ws, warm).expect("solvable");
    let mut oracle_ws = Reference3DWorkspace::default();
    let oracle =
        solve_3d_reference(obs, &seeds, config, &mut oracle_ws, warm).expect("solvable");
    assert_bits_3d(&facade, &oracle, what);
    ws.prune_stats()
}

fn scene_2d() -> (Scene, Vec<AntennaObservation>) {
    observations_2d(0.45, 1.55, 0.7, 2, 41, true).expect("standard scene extracts")
}

fn scene_3d() -> (Scene, Vec<AntennaObservation>) {
    observations_3d(Vec3::new(0.7, 1.1, 0.5), Vec3::new(0.4, 0.6, 0.9), 21)
        .expect("3-D scene extracts")
}

// ---------------------------------------------------------------------------
// 2-D pins
// ---------------------------------------------------------------------------

#[test]
fn default_wide4_matches_reference_2d() {
    let (scene, obs) = scene_2d();
    pin_2d(&obs, &scene, &SolverConfig::default(), None, true, "default");
}

#[test]
fn exhaustive_matches_reference_2d() {
    let (scene, obs) = scene_2d();
    pin_2d(&obs, &scene, &SolverConfig::exhaustive(), None, true, "exhaustive");
}

/// The legacy loop's `geometry: None` arm (direct `k_t` seeds) against
/// the beam's direct coarse ranking.
#[test]
fn exhaustive_table_free_seeds_match_reference_2d() {
    let (scene, obs) = scene_2d();
    let config = SolverConfig::exhaustive();
    pin_2d(&obs, &scene, &config, None, false, "exhaustive, no geometry tables");
}

#[test]
fn rssi_disabled_matches_reference_2d() {
    let (scene, obs) = scene_2d();
    let config = SolverConfig { rssi_sigma_db: f64::INFINITY, ..SolverConfig::default() };
    pin_2d(&obs, &scene, &config, None, true, "rssi disabled");
}

#[test]
fn table_free_seeds_match_reference_2d() {
    let (scene, obs) = scene_2d();
    pin_2d(&obs, &scene, &SolverConfig::default(), None, false, "no geometry tables");
}

#[test]
fn fresh_warm_start_matches_reference_2d() {
    let (scene, obs) = scene_2d();
    let config = SolverConfig::default();
    let seeds = SolveSeeds::for_scene(scene.region(), &config, &scene.antenna_poses());
    let mut ws = SolverWorkspace::default();
    let cold = solve_2d_seeded_warm(&obs, &seeds, &config, &mut ws, None).expect("solvable");
    let warm = WarmStart::from_estimate(&cold);
    pin_2d(&obs, &scene, &config, Some(&warm), true, "fresh warm start");
}

/// A prior parked far outside the basin: the gate must miss in both
/// implementations and both must fall back to the identical cold scan.
fn teleported_2d() -> WarmStart {
    WarmStart { position: Vec2::new(-2.6, 5.4), orientation: 2.9, kt: 4.0e-8, bt: 0.3 }
}

#[test]
fn teleported_warm_start_matches_reference_2d() {
    let (scene, obs) = scene_2d();
    let stale = teleported_2d();
    let ps = pin_2d(&obs, &scene, &SolverConfig::default(), Some(&stale), true, "stale warm");
    assert_eq!(ps.warm_start_misses, 1, "the teleported prior must miss the gate");
}

/// A warm miss under the exhaustive preset falls through to the full
/// scan: the beam after the floor re-anchor against the oracle's legacy
/// loop, with and without geometry tables.
#[test]
fn exhaustive_teleported_warm_start_matches_reference_2d() {
    let (scene, obs) = scene_2d();
    let stale = teleported_2d();
    let config = SolverConfig::exhaustive();
    for with_geometry in [true, false] {
        let ps = pin_2d(&obs, &scene, &config, Some(&stale), with_geometry, "exhaustive stale");
        assert_eq!(ps.warm_start_misses, 1, "the teleported prior must miss the gate");
        assert_eq!(ps.seeds_refined, ps.seeds_total + 1, "every seed plus the floor seed");
    }
}

/// The twin-α disambiguation path: with only three antennas the wrapped
/// intercept system admits near-twin α solutions and the RSSI mode
/// penalty breaks the tie — the facade must take the identical branch.
#[test]
fn three_antenna_twin_alpha_matches_reference_2d() {
    let (scene, obs) = scene_2d();
    let obs3 = &obs[..3];
    let config = SolverConfig::default();
    // Geometry tables built for the full deployment do not match the
    // truncated observation set; both solvers must fall back identically.
    let seeds = SolveSeeds::for_scene(scene.region(), &config, &scene.antenna_poses());
    let mut ws = SolverWorkspace::default();
    let facade = solve_2d_seeded_warm(obs3, &seeds, &config, &mut ws, None).expect("3 antennas");
    let mut oracle_ws = Reference2DWorkspace::default();
    let oracle =
        solve_2d_reference(obs3, &seeds, &config, &mut oracle_ws, None).expect("3 antennas");
    assert_bits_2d(&facade, &oracle, "twin-α with 3 antennas");
}

/// The tracking entry with a period-1 gate re-anchors every solve, which
/// is by contract `solve_2d_seeded_warm` exactly — and therefore also the
/// reference, transitively.
#[test]
fn tracking_gate_period_one_matches_reference_2d() {
    let (scene, obs) = scene_2d();
    let config = SolverConfig::default();
    let seeds = SolveSeeds::for_scene(scene.region(), &config, &scene.antenna_poses());
    let mut ws = SolverWorkspace::default();
    let cold = solve_2d_seeded_warm(&obs, &seeds, &config, &mut ws, None).expect("solvable");
    let warm = WarmStart::from_estimate(&cold);

    let mut gate = WarmGate::with_period(1);
    let mut gated_ws = SolverWorkspace::default();
    let gated =
        solve_2d_tracking_warm(&obs, &seeds, &config, &mut gated_ws, Some(&warm), &mut gate)
            .expect("solvable");

    let mut oracle_ws = Reference2DWorkspace::default();
    let oracle = solve_2d_reference(&obs, &seeds, &config, &mut oracle_ws, Some(&warm))
        .expect("solvable");
    assert_bits_2d(&gated, &oracle, "tracking gate period 1");
}

/// Workspace reuse across solves must not perturb results: re-solving the
/// same input with a dirty workspace is bit-identical to a fresh one.
#[test]
fn dirty_workspace_reuse_is_bit_identical_2d() {
    let (scene, obs) = scene_2d();
    let (_, obs_other) =
        observations_2d(-0.8, 2.1, 2.2, 5, 77, false).expect("standard scene extracts");
    let config = SolverConfig::default();
    let seeds = SolveSeeds::for_scene(scene.region(), &config, &scene.antenna_poses());

    let mut fresh = SolverWorkspace::default();
    let clean = solve_2d_seeded_warm(&obs, &seeds, &config, &mut fresh, None).expect("solvable");

    let mut dirty = SolverWorkspace::default();
    solve_2d_seeded_warm(&obs_other, &seeds, &config, &mut dirty, None).expect("solvable");
    let reused = solve_2d_seeded_warm(&obs, &seeds, &config, &mut dirty, None).expect("solvable");
    assert_bits_2d(&reused, &clean, "dirty workspace reuse");
}

// ---------------------------------------------------------------------------
// 3-D pins
// ---------------------------------------------------------------------------

#[test]
fn default_wide4_matches_reference_3d() {
    let (scene, obs) = scene_3d();
    pin_3d(&obs, &scene, &Solver3DConfig::default(), None, true, "default 3-D");
}

#[test]
fn exhaustive_matches_reference_3d() {
    let (scene, obs) = scene_3d();
    pin_3d(&obs, &scene, &Solver3DConfig::exhaustive(), None, true, "exhaustive 3-D");
}

#[test]
fn exhaustive_table_free_seeds_match_reference_3d() {
    let (scene, obs) = scene_3d();
    let config = Solver3DConfig::exhaustive();
    pin_3d(&obs, &scene, &config, None, false, "exhaustive, no geometry tables 3-D");
}

#[test]
fn table_free_seeds_match_reference_3d() {
    let (scene, obs) = scene_3d();
    pin_3d(&obs, &scene, &Solver3DConfig::default(), None, false, "no geometry tables 3-D");
}

#[test]
fn fresh_warm_start_matches_reference_3d() {
    let (scene, obs) = scene_3d();
    let config = Solver3DConfig::default();
    let seeds =
        Solve3DSeeds::for_scene(scene.region(), (0.0, 1.0), &config, &scene.antenna_poses());
    let mut ws = Solver3DWorkspace::default();
    let cold = solve_3d_seeded_warm(&obs, &seeds, &config, &mut ws, None).expect("solvable");
    let warm = WarmStart3D::from_estimate(&cold);
    pin_3d(&obs, &scene, &config, Some(&warm), true, "fresh warm start 3-D");
}

fn teleported_3d() -> WarmStart3D {
    WarmStart3D {
        position: Vec3::new(-3.0, 6.0, 2.5),
        dipole: Vec3::new(0.1, -0.9, 0.2),
        kt: 5.0e-8,
        bt: 1.1,
    }
}

#[test]
fn teleported_warm_start_matches_reference_3d() {
    let (scene, obs) = scene_3d();
    let stale = teleported_3d();
    let config = Solver3DConfig::default();
    let ps = pin_3d(&obs, &scene, &config, Some(&stale), true, "stale warm 3-D");
    assert_eq!(ps.warm_start_misses, 1, "the teleported prior must miss the gate");
}

#[test]
fn exhaustive_teleported_warm_start_matches_reference_3d() {
    let (scene, obs) = scene_3d();
    let stale = teleported_3d();
    let config = Solver3DConfig::exhaustive();
    for with_geometry in [true, false] {
        let ps = pin_3d(&obs, &scene, &config, Some(&stale), with_geometry, "exhaustive stale 3-D");
        assert_eq!(ps.warm_start_misses, 1, "the teleported prior must miss the gate");
        assert_eq!(ps.seeds_refined, ps.seeds_total + 1, "every seed plus the floor seed");
    }
}

// ---------------------------------------------------------------------------
// Property sweeps
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Randomized scenes, pruned and exhaustive scans:
    /// the facade is the oracle bit-for-bit.
    #[test]
    fn facade_matches_reference_2d(
        x in -1.2f64..1.2,
        y in 0.8f64..2.4,
        alpha in 0.0f64..3.1,
        material_idx in 0usize..8,
        seed in 0u64..1000,
        clutter in proptest::bool::ANY,
        exhaustive in proptest::bool::ANY,
    ) {
        let Some((scene, obs)) = observations_2d(x, y, alpha, material_idx, seed, clutter)
        else { return Ok(()) };
        let config = if exhaustive { SolverConfig::exhaustive() } else { SolverConfig::default() };
        pin_2d(&obs, &scene, &config, None, true, "randomized 2-D");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Randomized 3-D scenes, pruned and exhaustive scans: the facade is
    /// the oracle bit-for-bit.
    #[test]
    fn facade_matches_reference_3d(
        x in 0.2f64..1.0,
        y in 0.6f64..1.8,
        z in 0.2f64..0.8,
        dx in -1.0f64..1.0,
        dy in -1.0f64..1.0,
        dz in 0.1f64..1.0,
        seed in 0u64..1000,
        exhaustive in proptest::bool::ANY,
    ) {
        let Some((scene, obs)) =
            observations_3d(Vec3::new(x, y, z), Vec3::new(dx, dy, dz), seed)
        else { return Ok(()) };
        let config =
            if exhaustive { Solver3DConfig::exhaustive() } else { Solver3DConfig::default() };
        pin_3d(&obs, &scene, &config, None, true, "randomized 3-D");
    }
}
