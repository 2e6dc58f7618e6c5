//! Frozen pre-lane-core solver implementations.
//!
//! These are the 2-D and 3-D disentangling solvers exactly as they stood
//! before the [`LmCore`](crate::lm::LmCore) refactor: dynamically-sized
//! parameter vectors recycled through a free-list, the shared
//! [`LmWorkspace`] cores, scalar residual
//! loops and non-hoisted `log10` RSSI penalties. They are kept for two
//! reasons:
//!
//! * the `solver_profile` bench measures the lane-parallel facades against
//!   this baseline, so the speedup claim is reproducible on any machine;
//! * the `lm_equivalence` suite uses them as an independent bit-exact
//!   oracle for the const-generic facades.
//!
//! The oracle also keeps the two paths the production solvers dropped:
//! the legacy exhaustive stage-1 loop (taken when the config has an
//! unbounded beam and no early exit) and the central-difference LM core,
//! selected per workspace with [`JacobianMode`] (for example
//! [`Reference2DWorkspace::numeric`]) — the independent check that the
//! analytic Jacobian converges to the same optimum.
//!
//! The only deliberate differences from the historical entry points are
//! that the observability spans/counters and the pruning tallies are
//! stripped (the oracle must not perturb the measured path's telemetry)
//! and that the [`WarmGate`](crate::solver::WarmGate) cached-floor fast
//! path is omitted — the gate only skips work, it never changes which
//! optimum wins, so the un-cached flow here is the semantic ground truth.
//!
//! Do not "improve" this module — its value is that it does not change.

use crate::model::AntennaObservation;
use crate::solver::{
    levenberg_marquardt_analytic_with, levenberg_marquardt_with, LmWorkspace, SeedGeometry,
    SolveError, SolveSeeds, SolverConfig, TagEstimate2D, WarmStart,
};
use crate::solver3d::{
    SeedGeometry3D, Solve3DError, Solve3DSeeds, Solver3DConfig, TagEstimate3D, WarmStart3D,
};
use rfp_geom::{angle, Vec2, Vec3};
use rfp_phys::polarization::{orientation_phase, planar_dipole, projection_magnitude};
use rfp_phys::propagation;

/// How the oracle's LM refinements obtain the Jacobian of the residuals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JacobianMode {
    /// Closed-form ∂r/∂p (DESIGN.md §6), evaluated fused with the
    /// residuals, normal equations solved by Cholesky — what the
    /// production solvers run.
    #[default]
    Analytic,
    /// Central-difference Jacobian through the numeric
    /// [`levenberg_marquardt_with`] core, with per-parameter step scales —
    /// the independent check on the analytic derivation.
    Numeric,
}

// ---------------------------------------------------------------------------
// 2-D reference solver
// ---------------------------------------------------------------------------

/// The oracle's LM scratch plus the [`JacobianMode`] its refinements run
/// (analytic by default).
#[derive(Debug, Default)]
struct OracleLm {
    ws: LmWorkspace,
    jacobian: JacobianMode,
}

impl OracleLm {
    fn numeric() -> Self {
        OracleLm { ws: LmWorkspace::default(), jacobian: JacobianMode::Numeric }
    }
}

/// Scratch buffers of the frozen 2-D solver — the pre-refactor
/// `SolverWorkspace` shape, parameter free-list included.
#[derive(Debug, Default)]
pub struct Reference2DWorkspace {
    lm: OracleLm,
    position_candidates: Vec<(Vec<f64>, f64, usize)>,
    coarse: Vec<(f64, usize, f64)>,
    alpha_ranked: Vec<(f64, f64, f64)>,
    dists: Vec<f64>,
    orient_row: Vec<f64>,
    proj_row: Vec<f64>,
    refined: Vec<(Vec<f64>, f64)>,
    params_pool: Vec<Vec<f64>>,
    uncert: UncertScratch,
}

/// Scratch buffers of [`estimate_uncertainty`].
#[derive(Debug, Default)]
struct UncertScratch {
    r: Vec<f64>,
    r_minus: Vec<f64>,
    work: Vec<f64>,
    jac: Vec<f64>,
    jtj: Vec<f64>,
    cov: Vec<f64>,
    e: Vec<f64>,
}

impl Reference2DWorkspace {
    /// A workspace whose solves refine with the central-difference core.
    pub fn numeric() -> Self {
        Reference2DWorkspace { lm: OracleLm::numeric(), ..Self::default() }
    }
}

/// Pops a recycled parameter vector off the free-list (or makes an empty
/// one), cleared and ready to be filled with a new seed.
fn pooled(pool: &mut Vec<Vec<f64>>) -> Vec<f64> {
    let mut v = pool.pop().unwrap_or_default();
    v.clear();
    v
}

/// True when the multi-start scan runs the legacy exhaustive loop.
fn is_exhaustive_2d(config: &SolverConfig) -> bool {
    config.refine_top_k.is_none() && config.early_exit_rel_tol <= 0.0
}

/// The frozen pre-lane-core
/// [`solve_2d_seeded_warm`](crate::solver::solve_2d_seeded_warm):
/// bit-exact oracle of the facade for identical inputs.
///
/// # Errors
///
/// [`SolveError::TooFewAntennas`] when fewer than 3 observations are given.
pub fn solve_2d_reference(
    observations: &[AntennaObservation],
    seeds: &SolveSeeds,
    config: &SolverConfig,
    workspace: &mut Reference2DWorkspace,
    warm: Option<&WarmStart>,
) -> Result<TagEstimate2D, SolveError> {
    if observations.len() < 3 {
        return Err(SolveError::TooFewAntennas { provided: observations.len() });
    }
    let n_obs = observations.len();
    let geometry = seeds.geometry.as_ref().filter(|g| g.matches(observations));
    let Reference2DWorkspace {
        lm,
        position_candidates,
        coarse,
        alpha_ranked,
        dists,
        orient_row,
        proj_row,
        refined,
        params_pool,
        uncert,
    } = workspace;

    // Recycle the previous solve's candidate parameter vectors before
    // anything claims a seed from the pool.
    params_pool.extend(position_candidates.drain(..).map(|(v, _, _)| v));
    params_pool.extend(refined.drain(..).map(|(v, _)| v));

    let admissible = seeds.admissible;

    // Coarse ranking shared by the pruned stage-1 beam and the warm-start
    // floor.
    coarse.clear();
    if warm.is_some() || !is_exhaustive_2d(config) {
        for (s, &seed_pos) in seeds.position_starts.iter().enumerate() {
            let (kt0, cost) = coarse_seed_cost_2d(observations, geometry, s, seed_pos, config);
            coarse.push((cost, s, kt0));
        }
        coarse.sort_unstable_by(|a, b| {
            a.0.partial_cmp(&b.0).expect("finite costs").then_with(|| a.1.cmp(&b.1))
        });
    }

    // Warm start: refine the prior first and gate the result against the
    // coarse-scan floor.
    if let Some(w) = warm {
        let mut wp0 = pooled(params_pool);
        wp0.extend_from_slice(&[w.position.x, w.position.y, w.orientation, w.kt, w.bt]);
        let (p, cost) = refine_joint_2d(lm, observations, config, wp0);
        let key = cost
            + rssi_mode_penalty(
                observations,
                Vec2::new(p[0], p[1]),
                p[2],
                config.rssi_sigma_db,
            );
        let in_region = admissible.contains(Vec2::new(p[0], p[1]));
        let (_, best_seed, best_kt) = coarse[0];
        let seed_pos = seeds.position_starts[best_seed];
        let mut sp0 = pooled(params_pool);
        sp0.extend_from_slice(&[seed_pos.x, seed_pos.y, best_kt]);
        let (sp, _) = refine_slope_2d(lm, observations, config, sp0);
        scan_alphas_2d(
            observations,
            geometry,
            config,
            seeds.alpha_steps,
            (sp[0], sp[1], sp[2]),
            dists,
            orient_row,
            proj_row,
            alpha_ranked,
        );
        params_pool.push(sp);
        let floor = alpha_ranked.first().map_or(f64::INFINITY, |&(_, _, c)| c);
        if in_region && key <= floor * (1.0 + config.warm_gate_rel_tol) + 1e-9 {
            let estimate = build_estimate_2d(observations, &p, cost, config, lm.jacobian, uncert);
            params_pool.push(p);
            return Ok(estimate);
        }
        params_pool.push(p);
    }

    // Stage 1: slope-only position solve.
    if is_exhaustive_2d(config) {
        for (s, &seed_pos) in seeds.position_starts.iter().enumerate() {
            let kt0 = match geometry {
                Some(g) => {
                    let base = s * n_obs;
                    let sum: f64 = observations
                        .iter()
                        .enumerate()
                        .map(|(i, o)| o.slope - g.seed_slopes[base + i])
                        .sum();
                    sum / n_obs as f64
                }
                None => seed_kt(observations, seed_pos),
            };
            let mut p0 = pooled(params_pool);
            p0.extend_from_slice(&[seed_pos.x, seed_pos.y, kt0]);
            let (p, cost) = refine_slope_2d(lm, observations, config, p0);
            position_candidates.push((p, cost, s));
        }
        position_candidates.sort_unstable_by(|a, b| {
            a.1.partial_cmp(&b.1).expect("finite costs").then_with(|| a.2.cmp(&b.2))
        });
    } else {
        let beam = config.refine_top_k.unwrap_or(usize::MAX).max(1);
        let mut best_refined = f64::INFINITY;
        for (rank, &(coarse_cost, s, kt0)) in coarse.iter().enumerate() {
            if rank >= beam {
                break;
            }
            if config.early_exit_rel_tol > 0.0
                && rank >= 2
                && coarse_cost > best_refined * (1.0 + config.early_exit_rel_tol)
            {
                break;
            }
            let seed_pos = seeds.position_starts[s];
            let mut p0 = pooled(params_pool);
            p0.extend_from_slice(&[seed_pos.x, seed_pos.y, kt0]);
            let (p, cost) = refine_slope_2d(lm, observations, config, p0);
            best_refined = best_refined.min(cost);
            position_candidates.push((p, cost, s));
        }
        position_candidates.sort_unstable_by(|a, b| {
            a.1.partial_cmp(&b.1).expect("finite costs").then_with(|| a.2.cmp(&b.2))
        });
    }
    // Keep the best in-region candidates by index (the overall best, at
    // index 0 after the sort, is the backup if none stayed inside).
    let mut stage1 = [0usize; 2];
    let mut stage1_len = 0usize;
    for (i, (p, _, _)) in position_candidates.iter().enumerate() {
        if admissible.contains(Vec2::new(p[0], p[1])) {
            stage1[stage1_len] = i;
            stage1_len += 1;
            if stage1_len == stage1.len() {
                break;
            }
        }
    }
    if stage1_len == 0 {
        stage1_len = 1;
    }

    // Stages 2 + 3: α scan then joint refinement, ranked by phase cost
    // plus the RSSI mode penalty.
    let mut best_inside: Option<(usize, f64)> = None;
    let mut best_any: Option<(usize, f64)> = None;
    for &ci in &stage1[..stage1_len] {
        let (cx, cy, ckt) = {
            let p = &position_candidates[ci].0;
            (p[0], p[1], p[2])
        };
        scan_alphas_2d(
            observations,
            geometry,
            config,
            seeds.alpha_steps,
            (cx, cy, ckt),
            dists,
            orient_row,
            proj_row,
            alpha_ranked,
        );
        for (rank, &(alpha0, bt0, scan_cost)) in alpha_ranked.iter().take(4).enumerate() {
            if config.early_exit_rel_tol > 0.0 && rank >= 2 {
                if let Some((_, k)) = best_any {
                    if scan_cost > k * (1.0 + config.early_exit_rel_tol) {
                        break;
                    }
                }
            }
            let mut p0 = pooled(params_pool);
            p0.extend_from_slice(&[cx, cy, alpha0, ckt, bt0]);
            let (p, cost) = refine_joint_2d(lm, observations, config, p0);
            let key = cost
                + rssi_mode_penalty(
                    observations,
                    Vec2::new(p[0], p[1]),
                    p[2],
                    config.rssi_sigma_db,
                );
            let idx = refined.len();
            if admissible.contains(Vec2::new(p[0], p[1]))
                && best_inside.is_none_or(|(_, k)| key < k)
            {
                best_inside = Some((idx, key));
            }
            if best_any.is_none_or(|(_, k)| key < k) {
                best_any = Some((idx, key));
            }
            refined.push((p, cost));
        }
    }

    let (best_idx, _) = best_inside.or(best_any).expect("at least one start");
    let (p, cost) = refined.swap_remove(best_idx);
    let estimate = build_estimate_2d(observations, &p, cost, config, lm.jacobian, uncert);
    params_pool.push(p);
    Ok(estimate)
}

/// The cheap stage-1 score of one grid seed: the closed-form `k_t` seed
/// and the unrefined slope cost at the seed position.
fn coarse_seed_cost_2d(
    observations: &[AntennaObservation],
    geometry: Option<&SeedGeometry>,
    s: usize,
    seed_pos: Vec2,
    config: &SolverConfig,
) -> (f64, f64) {
    let n_obs = observations.len();
    let mut cost = 0.0;
    let kt0 = match geometry {
        Some(g) => {
            let base = s * n_obs;
            let sum: f64 = observations
                .iter()
                .enumerate()
                .map(|(i, o)| o.slope - g.seed_slopes[base + i])
                .sum();
            let kt0 = sum / n_obs as f64;
            for (i, o) in observations.iter().enumerate() {
                let rs = (o.slope - g.seed_slopes[base + i] - kt0) / config.slope_sigma;
                cost += rs * rs;
            }
            kt0
        }
        None => {
            let kt0 = seed_kt(observations, seed_pos);
            let p3 = seed_pos.with_z(0.0);
            for o in observations {
                let d = o.pose.position().distance(p3);
                let rs =
                    (o.slope - propagation::slope_from_distance(d) - kt0) / config.slope_sigma;
                cost += rs * rs;
            }
            kt0
        }
    };
    (kt0, cost)
}

/// Stage 2 at one position candidate `(x, y, k_t)`: ranks every α seed by
/// the full cost and leaves `alpha_ranked` sorted best-first.
#[allow(clippy::too_many_arguments)]
fn scan_alphas_2d(
    observations: &[AntennaObservation],
    geometry: Option<&SeedGeometry>,
    config: &SolverConfig,
    alpha_steps: usize,
    candidate: (f64, f64, f64),
    dists: &mut Vec<f64>,
    orient_row: &mut Vec<f64>,
    proj_row: &mut Vec<f64>,
    alpha_ranked: &mut Vec<(f64, f64, f64)>,
) {
    let n_obs = observations.len();
    let (cx, cy, ckt) = candidate;
    let cand_pos = Vec2::new(cx, cy).with_z(0.0);
    dists.clear();
    let mut slope_cost = 0.0;
    for o in observations {
        let d = o.pose.position().distance(cand_pos);
        let rs = (o.slope - propagation::slope_from_distance(d) - ckt) / config.slope_sigma;
        slope_cost += rs * rs;
        dists.push(d);
    }
    alpha_ranked.clear();
    for a in 0..alpha_steps {
        let alpha0 = std::f64::consts::PI * a as f64 / alpha_steps as f64;
        let (orow, prow): (&[f64], &[f64]) = match geometry {
            Some(g) => (
                &g.orient[a * n_obs..(a + 1) * n_obs],
                &g.proj[a * n_obs..(a + 1) * n_obs],
            ),
            None => {
                let w = planar_dipole(alpha0);
                orient_row.clear();
                proj_row.clear();
                for o in observations {
                    orient_row.push(orientation_phase(&o.pose, w));
                    proj_row.push(projection_magnitude(&o.pose, w));
                }
                (orient_row.as_slice(), proj_row.as_slice())
            }
        };
        let bt0 = angle::circular_mean(
            observations.iter().zip(orow).map(|(o, &th)| o.intercept - th),
        )
        .unwrap_or(0.0);
        let mut cost = slope_cost;
        for (o, &th) in observations.iter().zip(orow) {
            let rb = angle::wrap_pi(o.intercept - th - bt0) / config.intercept_sigma;
            cost += rb * rb;
        }
        cost += rssi_penalty_precomputed(observations, dists, prow, config.rssi_sigma_db);
        alpha_ranked.push((alpha0, bt0, cost));
    }
    alpha_ranked.sort_unstable_by(|a, b| {
        a.2.partial_cmp(&b.2).expect("finite costs").then_with(|| {
            a.0.partial_cmp(&b.0).expect("finite alphas")
        })
    });
}

/// Final-estimate assembly: uncertainty propagation plus canonical
/// wrapping of the angular parameters.
fn build_estimate_2d(
    observations: &[AntennaObservation],
    p: &[f64],
    cost: f64,
    config: &SolverConfig,
    jacobian: JacobianMode,
    scratch: &mut UncertScratch,
) -> TagEstimate2D {
    let n_res = 2 * observations.len();
    let (position_std_m, orientation_std_rad, position_cov) =
        estimate_uncertainty(observations, p, config, jacobian, scratch);
    TagEstimate2D {
        position: Vec2::new(p[0], p[1]),
        orientation: p[2].rem_euclid(std::f64::consts::PI),
        kt: p[3],
        bt: angle::wrap_tau(p[4]),
        cost,
        residual_rms: (cost / n_res as f64).sqrt(),
        position_std_m,
        orientation_std_rad,
        position_cov,
    }
}

/// Finite-difference steps of the numeric-fallback joint solve:
/// x (m), y (m), α (rad), k_t (rad/Hz), b_t (rad).
const JOINT_STEPS_2D: [f64; 5] = [1e-4, 1e-4, 1e-4, 1e-13, 1e-4];
/// Steps of the numeric-fallback slope-only (stage-1) solve: x, y, k_t.
const SLOPE_STEPS_2D: [f64; 3] = [1e-4, 1e-4, 1e-13];

/// Joint 5-parameter LM refinement, dispatched on the workspace's
/// [`JacobianMode`].
fn refine_joint_2d(
    lm: &mut OracleLm,
    observations: &[AntennaObservation],
    config: &SolverConfig,
    p0: Vec<f64>,
) -> (Vec<f64>, f64) {
    match lm.jacobian {
        JacobianMode::Analytic => levenberg_marquardt_analytic_with(
            &mut lm.ws,
            &|p: &[f64], r: &mut Vec<f64>, jac: Option<&mut Vec<f64>>| {
                residuals_and_jacobian_2d(observations, p, config, r, jac)
            },
            p0,
            config.max_iterations,
            config.tolerance,
        ),
        JacobianMode::Numeric => levenberg_marquardt_with(
            &mut lm.ws,
            &|p: &[f64], out: &mut Vec<f64>| {
                residuals_and_jacobian_2d(observations, p, config, out, None)
            },
            p0,
            &JOINT_STEPS_2D,
            config.max_iterations,
            config.tolerance,
        ),
    }
}

/// Stage-1 slope-only LM refinement over `(x, y, k_t)`, dispatched on the
/// workspace's [`JacobianMode`].
fn refine_slope_2d(
    lm: &mut OracleLm,
    observations: &[AntennaObservation],
    config: &SolverConfig,
    p0: Vec<f64>,
) -> (Vec<f64>, f64) {
    match lm.jacobian {
        JacobianMode::Analytic => levenberg_marquardt_analytic_with(
            &mut lm.ws,
            &|p: &[f64], r: &mut Vec<f64>, jac: Option<&mut Vec<f64>>| {
                slope_residuals_and_jacobian_2d(observations, p, config, r, jac)
            },
            p0,
            config.max_iterations,
            config.tolerance,
        ),
        JacobianMode::Numeric => levenberg_marquardt_with(
            &mut lm.ws,
            &|p: &[f64], out: &mut Vec<f64>| {
                slope_residuals_and_jacobian_2d(observations, p, config, out, None)
            },
            p0,
            &SLOPE_STEPS_2D,
            config.max_iterations,
            config.tolerance,
        ),
    }
}

/// Gauss–Newton covariance at the solution — the frozen copy of the
/// facade's uncertainty propagation (identical today, pinned here so the
/// oracle stays closed under future changes).
#[allow(clippy::needless_range_loop)]
fn estimate_uncertainty(
    observations: &[AntennaObservation],
    p: &[f64],
    config: &SolverConfig,
    jacobian: JacobianMode,
    scratch: &mut UncertScratch,
) -> (f64, f64, [[f64; 2]; 2]) {
    let n = p.len();
    let UncertScratch { r, r_minus, work, jac, jtj, cov, e } = scratch;
    jac.clear();
    match jacobian {
        JacobianMode::Analytic => {
            residuals_and_jacobian_2d(observations, p, config, r, Some(jac));
        }
        JacobianMode::Numeric => {
            residuals_and_jacobian_2d(observations, p, config, r, None);
            let m = r.len();
            jac.resize(m * n, 0.0);
            work.clear();
            work.extend_from_slice(p);
            for j in 0..n {
                let h = JOINT_STEPS_2D[j];
                work[j] = p[j] + h;
                residuals_and_jacobian_2d(observations, work, config, r, None);
                work[j] = p[j] - h;
                residuals_and_jacobian_2d(observations, work, config, r_minus, None);
                work[j] = p[j];
                for i in 0..m {
                    jac[i * n + j] = (r[i] - r_minus[i]) / (2.0 * h);
                }
            }
        }
    }
    let m = jac.len() / n;
    jtj.clear();
    jtj.resize(n * n, 0.0);
    for i in 0..m {
        let row = &jac[i * n..(i + 1) * n];
        for a in 0..n {
            for b in a..n {
                jtj[a * n + b] += row[a] * row[b];
            }
        }
    }
    for a in 0..n {
        for b in 0..a {
            jtj[a * n + b] = jtj[b * n + a];
        }
    }
    let singular = (f64::INFINITY, f64::INFINITY, [[f64::INFINITY; 2]; 2]);
    if !cholesky_factor(jtj, n) {
        return singular;
    }
    cov.clear();
    cov.resize(n * n, 0.0);
    e.clear();
    e.resize(n, 0.0);
    for col in 0..n {
        e.fill(0.0);
        e[col] = 1.0;
        cholesky_solve(jtj, n, e);
        if !(e[col].is_finite() && e[col] >= 0.0) {
            return singular;
        }
        cov[col * n..(col + 1) * n].copy_from_slice(e);
    }
    let position_cov = [[cov[0], cov[n]], [cov[1], cov[n + 1]]];
    let position_std = (cov[0] + cov[n + 1]).sqrt();
    let orientation_std = cov[2 * n + 2].sqrt();
    (position_std, orientation_std, position_cov)
}

/// Mean `kᵢ − 4π dᵢ(pos)/c` over antennas — the closed-form `k_t` seed for
/// a hypothesised position.
fn seed_kt(observations: &[AntennaObservation], pos: Vec2) -> f64 {
    let sum: f64 = observations
        .iter()
        .map(|o| {
            let d = o.pose.position().distance(pos.with_z(0.0));
            o.slope - propagation::slope_from_distance(d)
        })
        .sum();
    sum / observations.len() as f64
}

/// RSSI-consistency penalty of a candidate 2-D mode `(pos, α)`.
fn rssi_mode_penalty(
    observations: &[AntennaObservation],
    pos: Vec2,
    alpha: f64,
    sigma_db: f64,
) -> f64 {
    if !sigma_db.is_finite() || sigma_db <= 0.0 {
        return 0.0;
    }
    let w = planar_dipole(alpha);
    rssi_penalty_core(
        observations.iter().map(|o| {
            let d = o.pose.position().distance(pos.with_z(0.0));
            (o.mean_rssi_dbm, d, projection_magnitude(&o.pose, w))
        }),
        sigma_db,
    )
}

/// RSSI penalty over distances and projections already in hand.
fn rssi_penalty_precomputed(
    observations: &[AntennaObservation],
    dists: &[f64],
    projs: &[f64],
    sigma_db: f64,
) -> f64 {
    rssi_penalty_core(
        observations
            .iter()
            .zip(dists)
            .zip(projs)
            .map(|((o, &d), &proj)| (o.mean_rssi_dbm, d, proj)),
        sigma_db,
    )
}

/// The penalty kernel over `(rssi dBm, distance, projection)` triples.
fn rssi_penalty_core<I>(items: I, sigma_db: f64) -> f64
where
    I: Iterator<Item = (f64, f64, f64)>,
{
    if !sigma_db.is_finite() || sigma_db <= 0.0 {
        return 0.0;
    }
    let mut sum = 0.0;
    let mut sum_sq = 0.0;
    let mut n = 0usize;
    for (rssi, d, proj) in items {
        if !rssi.is_finite() {
            return 0.0;
        }
        if proj < 1e-3 || d <= 0.0 {
            return 1e6;
        }
        let m = rssi + 40.0 * d.log10() - 20.0 * proj.log10();
        sum += m;
        sum_sq += m * m;
        n += 1;
    }
    if n == 0 {
        return 0.0;
    }
    let variance = (sum_sq - sum * sum / n as f64).max(0.0);
    variance / (sigma_db * sigma_db)
}

/// The 2N sigma-normalized residuals at `p = (x, y, α, k_t, b_t)` plus,
/// when `jac` is given, their row-major `2N × 5` analytic Jacobian — the
/// scalar pre-lane loop.
fn residuals_and_jacobian_2d(
    observations: &[AntennaObservation],
    p: &[f64],
    config: &SolverConfig,
    r: &mut Vec<f64>,
    jac: Option<&mut Vec<f64>>,
) {
    let pos = Vec2::new(p[0], p[1]).with_z(0.0);
    let alpha = p[2];
    let w = planar_dipole(alpha);
    let dw = Vec3::new(-alpha.sin(), 0.0, alpha.cos());
    let (kt, bt) = (p[3], p[4]);
    r.clear();
    let mut jac = jac;
    if let Some(j) = jac.as_deref_mut() {
        j.clear();
        j.resize(observations.len() * 2 * 5, 0.0);
    }
    let k1 = propagation::slope_from_distance(1.0); // 4π/c
    for (i, o) in observations.iter().enumerate() {
        let ap = o.pose.position();
        let d = ap.distance(pos);
        let k_model = propagation::slope_from_distance(d) + kt;
        r.push((o.slope - k_model) / config.slope_sigma);
        let uw = o.pose.u().dot(w);
        let vw = o.pose.v().dot(w);
        let denom = uw * uw + vw * vw;
        let theta = if denom < 1e-24 {
            0.0
        } else {
            (2.0 * uw * vw).atan2(uw * uw - vw * vw)
        };
        let b_model = theta + bt;
        r.push(angle::wrap_pi(o.intercept - b_model) / config.intercept_sigma);
        if let Some(j) = jac.as_deref_mut() {
            let rs = 2 * i * 5;
            let g = if d > 1e-12 { -k1 / (d * config.slope_sigma) } else { 0.0 };
            j[rs] = g * (pos.x - ap.x);
            j[rs + 1] = g * (pos.y - ap.y);
            j[rs + 3] = -1.0 / config.slope_sigma;
            let rb = rs + 5;
            let dtheta = if denom < 1e-24 {
                0.0
            } else {
                let uwp = o.pose.u().dot(dw);
                let vwp = o.pose.v().dot(dw);
                2.0 * (uw * vwp - vw * uwp) / denom
            };
            j[rb + 2] = -dtheta / config.intercept_sigma;
            j[rb + 4] = -1.0 / config.intercept_sigma;
        }
    }
}

/// The N sigma-normalized slope residuals at `p = (x, y, k_t)` and their
/// optional `N × 3` analytic Jacobian — the scalar pre-lane loop.
fn slope_residuals_and_jacobian_2d(
    observations: &[AntennaObservation],
    p: &[f64],
    config: &SolverConfig,
    r: &mut Vec<f64>,
    jac: Option<&mut Vec<f64>>,
) {
    let pos = Vec2::new(p[0], p[1]).with_z(0.0);
    let kt = p[2];
    r.clear();
    let mut jac = jac;
    if let Some(j) = jac.as_deref_mut() {
        j.clear();
        j.resize(observations.len() * 3, 0.0);
    }
    let k1 = propagation::slope_from_distance(1.0);
    for (i, o) in observations.iter().enumerate() {
        let ap = o.pose.position();
        let d = ap.distance(pos);
        r.push((o.slope - propagation::slope_from_distance(d) - kt) / config.slope_sigma);
        if let Some(j) = jac.as_deref_mut() {
            let g = if d > 1e-12 { -k1 / (d * config.slope_sigma) } else { 0.0 };
            j[i * 3] = g * (pos.x - ap.x);
            j[i * 3 + 1] = g * (pos.y - ap.y);
            j[i * 3 + 2] = -1.0 / config.slope_sigma;
        }
    }
}

/// In-place Cholesky factorization `A = LLᵀ` (frozen copy; see the solver
/// module's version for the contract).
#[allow(clippy::needless_range_loop)]
fn cholesky_factor(a: &mut [f64], n: usize) -> bool {
    for i in 0..n {
        for j in 0..=i {
            let mut s = a[i * n + j];
            for k in 0..j {
                s -= a[i * n + k] * a[j * n + k];
            }
            if i == j {
                if !s.is_finite() || s < 1e-300 {
                    return false;
                }
                a[i * n + i] = s.sqrt();
            } else {
                a[i * n + j] = s / a[j * n + j];
            }
        }
    }
    true
}

/// Solves `LLᵀ x = b` in place against a [`cholesky_factor`] factor.
fn cholesky_solve(l: &[f64], n: usize, b: &mut [f64]) {
    for i in 0..n {
        let mut s = b[i];
        for k in 0..i {
            s -= l[i * n + k] * b[k];
        }
        b[i] = s / l[i * n + i];
    }
    for i in (0..n).rev() {
        let mut s = b[i];
        for k in (i + 1)..n {
            s -= l[k * n + i] * b[k];
        }
        b[i] = s / l[i * n + i];
    }
}

// ---------------------------------------------------------------------------
// 3-D reference solver
// ---------------------------------------------------------------------------

/// Scratch buffers of the frozen 3-D solver — the pre-refactor
/// `Solver3DWorkspace` shape.
#[derive(Debug, Default)]
pub struct Reference3DWorkspace {
    lm: OracleLm,
    position_candidates: Vec<(Vec<f64>, f64, usize)>,
    coarse: Vec<(f64, usize, f64)>,
    dipole_ranked: Vec<(f64, f64, f64, f64)>,
    dists: Vec<f64>,
    orient_row: Vec<f64>,
    proj_row: Vec<f64>,
    refined: Vec<(Vec<f64>, f64)>,
}

impl Reference3DWorkspace {
    /// A workspace whose solves refine with the central-difference core.
    pub fn numeric() -> Self {
        Reference3DWorkspace { lm: OracleLm::numeric(), ..Self::default() }
    }
}

/// True when the multi-start scan runs the legacy exhaustive loop.
fn is_exhaustive_3d(config: &Solver3DConfig) -> bool {
    config.refine_top_k.is_none() && config.early_exit_rel_tol <= 0.0
}

fn dipole_from_angles(theta: f64, phi: f64) -> Vec3 {
    let (st, ct) = theta.sin_cos();
    let (sp, cp) = phi.sin_cos();
    Vec3::new(st * cp, st * sp, ct)
}

/// The frozen pre-lane-core
/// [`solve_3d_seeded_warm`](crate::solver3d::solve_3d_seeded_warm):
/// bit-exact oracle of the facade for identical inputs.
///
/// # Errors
///
/// [`Solve3DError::TooFewAntennas`] with fewer than 4 observations.
pub fn solve_3d_reference(
    observations: &[AntennaObservation],
    seeds: &Solve3DSeeds,
    config: &Solver3DConfig,
    workspace: &mut Reference3DWorkspace,
    warm: Option<&WarmStart3D>,
) -> Result<TagEstimate3D, Solve3DError> {
    if observations.len() < 4 {
        return Err(Solve3DError::TooFewAntennas { provided: observations.len() });
    }
    let n_obs = observations.len();
    let geometry = seeds.geometry.as_ref().filter(|g| g.matches(observations));
    let Reference3DWorkspace {
        lm,
        position_candidates,
        coarse,
        dipole_ranked,
        dists,
        orient_row,
        proj_row,
        refined,
    } = workspace;

    let admissible_xy = seeds.admissible_xy;
    let (z_lo_adm, z_hi_adm) = seeds.z_bounds;
    let inside = |p: &[f64]| {
        admissible_xy.contains(Vec2::new(p[0], p[1]))
            && p[2] >= z_lo_adm
            && p[2] <= z_hi_adm
    };
    let mode_penalty = |pos: Vec3, w: Vec3| {
        if !config.rssi_sigma_db.is_finite() || config.rssi_sigma_db <= 0.0 {
            return 0.0;
        }
        rssi_penalty_core(
            observations.iter().map(|o| {
                (
                    o.mean_rssi_dbm,
                    o.pose.position().distance(pos),
                    projection_magnitude(&o.pose, w),
                )
            }),
            config.rssi_sigma_db,
        )
    };

    // Coarse ranking of every (x, y, z) seed by its unrefined slope cost.
    coarse.clear();
    if warm.is_some() || !is_exhaustive_3d(config) {
        for (s, &pos) in seeds.position_starts.iter().enumerate() {
            let (kt0, cost) = coarse_seed_cost_3d(observations, geometry, s, pos, config);
            coarse.push((cost, s, kt0));
        }
        coarse.sort_by(|a, b| {
            a.0.partial_cmp(&b.0).expect("finite costs").then_with(|| a.1.cmp(&b.1))
        });
    }

    // Warm start: refine the prior first and gate against the coarse-scan
    // floor.
    if let Some(w) = warm {
        let wd = w.dipole.normalized();
        let theta = wd.z.clamp(-1.0, 1.0).acos();
        let phi = wd.y.atan2(wd.x);
        let wp0 =
            vec![w.position.x, w.position.y, w.position.z, theta, phi, w.kt, w.bt];
        let (p, cost) = refine_joint_3d(lm, observations, config, wp0);
        let key = cost
            + mode_penalty(Vec3::new(p[0], p[1], p[2]), dipole_from_angles(p[3], p[4]));
        let (_, best_seed, best_kt) = coarse[0];
        let pos = seeds.position_starts[best_seed];
        let (sp, _) = refine_slope_3d(
            lm,
            observations,
            config,
            vec![pos.x, pos.y, pos.z, best_kt],
        );
        scan_dipoles_3d(
            observations,
            geometry,
            config,
            seeds.rings,
            (sp[0], sp[1], sp[2], sp[3]),
            dists,
            orient_row,
            proj_row,
            dipole_ranked,
        );
        let floor = dipole_ranked.first().map_or(f64::INFINITY, |&(_, _, _, c)| c);
        if inside(&p) && key <= floor * (1.0 + config.warm_gate_rel_tol) + 1e-9 {
            return Ok(build_estimate_3d(observations, &p, cost));
        }
    }

    // Stage 1: slope-only position solve over (x, y, z, k_t).
    position_candidates.clear();
    if is_exhaustive_3d(config) {
        for (s, &pos) in seeds.position_starts.iter().enumerate() {
            let kt0 = match geometry {
                Some(g) => {
                    let base = s * n_obs;
                    observations
                        .iter()
                        .enumerate()
                        .map(|(i, o)| o.slope - g.seed_slopes[base + i])
                        .sum::<f64>()
                        / n_obs as f64
                }
                None => {
                    observations
                        .iter()
                        .map(|o| {
                            o.slope
                                - propagation::slope_from_distance(
                                    o.pose.position().distance(pos),
                                )
                        })
                        .sum::<f64>()
                        / n_obs as f64
                }
            };
            let (p, cost) =
                refine_slope_3d(lm, observations, config, vec![pos.x, pos.y, pos.z, kt0]);
            position_candidates.push((p, cost, s));
        }
        // Stable sort on cost alone: ties keep grid (push) order.
        position_candidates.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite costs"));
    } else {
        let beam = config.refine_top_k.unwrap_or(usize::MAX).max(1);
        let mut best_refined = f64::INFINITY;
        for (rank, &(coarse_cost, s, kt0)) in coarse.iter().enumerate() {
            if rank >= beam {
                break;
            }
            if config.early_exit_rel_tol > 0.0
                && rank >= 2
                && coarse_cost > best_refined * (1.0 + config.early_exit_rel_tol)
            {
                break;
            }
            let pos = seeds.position_starts[s];
            let (p, cost) =
                refine_slope_3d(lm, observations, config, vec![pos.x, pos.y, pos.z, kt0]);
            best_refined = best_refined.min(cost);
            position_candidates.push((p, cost, s));
        }
        position_candidates.sort_by(|a, b| {
            a.1.partial_cmp(&b.1).expect("finite costs").then_with(|| a.2.cmp(&b.2))
        });
    }
    // Keep every distinct in-volume candidate (deduplicated to 10 cm, by
    // index) and let the joint stage pick.
    let mut stage1 = [0usize; 6];
    let mut stage1_len = 0usize;
    for (i, (p, _, _)) in position_candidates.iter().enumerate() {
        if !inside(p) {
            continue;
        }
        let pos = Vec3::new(p[0], p[1], p[2]);
        let duplicate = stage1[..stage1_len].iter().any(|&j| {
            let q = &position_candidates[j].0;
            Vec3::new(q[0], q[1], q[2]).distance(pos) < 0.10
        });
        if !duplicate {
            stage1[stage1_len] = i;
            stage1_len += 1;
            if stage1_len == stage1.len() {
                break;
            }
        }
    }
    if stage1_len == 0 {
        stage1_len = 1;
    }

    // Stage 2: dipole scan with closed-form b_t, then stage 3: joint
    // 7-parameter refinement from the best seeds.
    refined.clear();
    let mut best_inside: Option<(usize, f64)> = None;
    let mut best_any: Option<(usize, f64)> = None;
    for &ci in &stage1[..stage1_len] {
        let (cx, cy, cz, ckt) = {
            let p = &position_candidates[ci].0;
            (p[0], p[1], p[2], p[3])
        };
        scan_dipoles_3d(
            observations,
            geometry,
            config,
            seeds.rings,
            (cx, cy, cz, ckt),
            dists,
            orient_row,
            proj_row,
            dipole_ranked,
        );
        for (rank, &(theta, phi, bt0, scan_cost)) in
            dipole_ranked.iter().take(3).enumerate()
        {
            if config.early_exit_rel_tol > 0.0 && rank >= 2 {
                if let Some((_, k)) = best_any {
                    if scan_cost > k * (1.0 + config.early_exit_rel_tol) {
                        break;
                    }
                }
            }
            let p0 = vec![cx, cy, cz, theta, phi, ckt, bt0];
            let (p, cost) = refine_joint_3d(lm, observations, config, p0);
            let key = cost
                + mode_penalty(
                    Vec3::new(p[0], p[1], p[2]),
                    dipole_from_angles(p[3], p[4]),
                );
            let idx = refined.len();
            if inside(&p) && best_inside.is_none_or(|(_, k)| key < k) {
                best_inside = Some((idx, key));
            }
            if best_any.is_none_or(|(_, k)| key < k) {
                best_any = Some((idx, key));
            }
            refined.push((p, cost));
        }
    }

    let (best_idx, _) = best_inside.or(best_any).expect("at least one start");
    let (p, cost) = refined.swap_remove(best_idx);
    Ok(build_estimate_3d(observations, &p, cost))
}

/// The cheap stage-1 score of one 3-D grid seed: closed-form `k_t` and the
/// unrefined slope cost.
fn coarse_seed_cost_3d(
    observations: &[AntennaObservation],
    geometry: Option<&SeedGeometry3D>,
    s: usize,
    pos: Vec3,
    config: &Solver3DConfig,
) -> (f64, f64) {
    let n_obs = observations.len();
    let mut cost = 0.0;
    let kt0 = match geometry {
        Some(g) => {
            let base = s * n_obs;
            let kt0 = observations
                .iter()
                .enumerate()
                .map(|(i, o)| o.slope - g.seed_slopes[base + i])
                .sum::<f64>()
                / n_obs as f64;
            for (i, o) in observations.iter().enumerate() {
                let rs = (o.slope - g.seed_slopes[base + i] - kt0) / config.slope_sigma;
                cost += rs * rs;
            }
            kt0
        }
        None => {
            let kt0 = observations
                .iter()
                .map(|o| {
                    o.slope
                        - propagation::slope_from_distance(o.pose.position().distance(pos))
                })
                .sum::<f64>()
                / n_obs as f64;
            for o in observations {
                let d = o.pose.position().distance(pos);
                let rs =
                    (o.slope - propagation::slope_from_distance(d) - kt0) / config.slope_sigma;
                cost += rs * rs;
            }
            kt0
        }
    };
    (kt0, cost)
}

/// Stage 2 at one position candidate `(x, y, z, k_t)`: ranks every
/// half-sphere scan direction by the full cost and leaves `dipole_ranked`
/// sorted best-first.
#[allow(clippy::too_many_arguments)]
fn scan_dipoles_3d(
    observations: &[AntennaObservation],
    geometry: Option<&SeedGeometry3D>,
    config: &Solver3DConfig,
    rings: usize,
    candidate: (f64, f64, f64, f64),
    dists: &mut Vec<f64>,
    orient_row: &mut Vec<f64>,
    proj_row: &mut Vec<f64>,
    dipole_ranked: &mut Vec<(f64, f64, f64, f64)>,
) {
    let n_obs = observations.len();
    let (cx, cy, cz, ckt) = candidate;
    let cand_pos = Vec3::new(cx, cy, cz);
    dists.clear();
    let mut slope_cost = 0.0;
    for o in observations {
        let d = o.pose.position().distance(cand_pos);
        let rs = (o.slope - propagation::slope_from_distance(d) - ckt) / config.slope_sigma;
        slope_cost += rs * rs;
        dists.push(d);
    }
    dipole_ranked.clear();
    for ti in 0..rings {
        // Polar rings from near-pole to equator.
        let theta = std::f64::consts::FRAC_PI_2 * (ti as f64 + 0.5) / rings as f64;
        for pi in 0..(2 * rings) {
            let phi = std::f64::consts::TAU * pi as f64 / (2 * rings) as f64;
            let dir = ti * 2 * rings + pi;
            let (orow, prow): (&[f64], &[f64]) = match geometry {
                Some(g) => (
                    &g.orient[dir * n_obs..(dir + 1) * n_obs],
                    &g.proj[dir * n_obs..(dir + 1) * n_obs],
                ),
                None => {
                    let w0 = dipole_from_angles(theta, phi);
                    orient_row.clear();
                    proj_row.clear();
                    for o in observations {
                        orient_row.push(orientation_phase(&o.pose, w0));
                        proj_row.push(projection_magnitude(&o.pose, w0));
                    }
                    (orient_row.as_slice(), proj_row.as_slice())
                }
            };
            let bt0 = angle::circular_mean(
                observations.iter().zip(orow).map(|(o, &th)| o.intercept - th),
            )
            .unwrap_or(0.0);
            let mut cost = slope_cost;
            for (o, &th) in observations.iter().zip(orow) {
                let rb = angle::wrap_pi(o.intercept - th - bt0) / config.intercept_sigma;
                cost += rb * rb;
            }
            cost += rssi_penalty_precomputed(observations, dists, prow, config.rssi_sigma_db);
            dipole_ranked.push((theta, phi, bt0, cost));
        }
    }
    dipole_ranked.sort_by(|a, b| a.3.partial_cmp(&b.3).expect("finite costs"));
}

/// Final-estimate assembly: dipole canonicalization (`z ≥ 0`) plus
/// wrapping of `b_t`.
fn build_estimate_3d(
    observations: &[AntennaObservation],
    p: &[f64],
    cost: f64,
) -> TagEstimate3D {
    let mut dipole = dipole_from_angles(p[3], p[4]);
    if dipole.z < 0.0 {
        dipole = -dipole;
    }
    let n_res = 2 * observations.len();
    TagEstimate3D {
        position: Vec3::new(p[0], p[1], p[2]),
        dipole,
        kt: p[5],
        bt: angle::wrap_tau(p[6]),
        cost,
        residual_rms: (cost / n_res as f64).sqrt(),
    }
}

/// Finite-difference steps of the numeric-fallback joint solve:
/// x, y, z (m), θ, φ (rad), k_t (rad/Hz), b_t (rad).
const JOINT_STEPS_3D: [f64; 7] = [1e-4, 1e-4, 1e-4, 1e-4, 1e-4, 1e-13, 1e-4];
/// Steps of the numeric-fallback slope-only (stage-1) solve: x, y, z, k_t.
const SLOPE_STEPS_3D: [f64; 4] = [1e-4, 1e-4, 1e-4, 1e-13];

/// Joint 7-parameter LM refinement, dispatched on the workspace's
/// [`JacobianMode`].
fn refine_joint_3d(
    lm: &mut OracleLm,
    observations: &[AntennaObservation],
    config: &Solver3DConfig,
    p0: Vec<f64>,
) -> (Vec<f64>, f64) {
    match lm.jacobian {
        JacobianMode::Analytic => levenberg_marquardt_analytic_with(
            &mut lm.ws,
            &|p: &[f64], r: &mut Vec<f64>, jac: Option<&mut Vec<f64>>| {
                residuals_and_jacobian_3d(observations, p, config, r, jac)
            },
            p0,
            config.max_iterations,
            config.tolerance,
        ),
        JacobianMode::Numeric => levenberg_marquardt_with(
            &mut lm.ws,
            &|p: &[f64], out: &mut Vec<f64>| {
                residuals_and_jacobian_3d(observations, p, config, out, None)
            },
            p0,
            &JOINT_STEPS_3D,
            config.max_iterations,
            config.tolerance,
        ),
    }
}

/// Stage-1 slope-only LM refinement over `(x, y, z, k_t)`, dispatched on
/// the workspace's [`JacobianMode`].
fn refine_slope_3d(
    lm: &mut OracleLm,
    observations: &[AntennaObservation],
    config: &Solver3DConfig,
    p0: Vec<f64>,
) -> (Vec<f64>, f64) {
    match lm.jacobian {
        JacobianMode::Analytic => levenberg_marquardt_analytic_with(
            &mut lm.ws,
            &|p: &[f64], r: &mut Vec<f64>, jac: Option<&mut Vec<f64>>| {
                slope_residuals_and_jacobian_3d(observations, p, config, r, jac)
            },
            p0,
            config.max_iterations,
            config.tolerance,
        ),
        JacobianMode::Numeric => levenberg_marquardt_with(
            &mut lm.ws,
            &|p: &[f64], out: &mut Vec<f64>| {
                slope_residuals_and_jacobian_3d(observations, p, config, out, None)
            },
            p0,
            &SLOPE_STEPS_3D,
            config.max_iterations,
            config.tolerance,
        ),
    }
}

/// The 2N sigma-normalized residuals at `p = (x, y, z, θ, φ, k_t, b_t)`
/// plus, when `jac` is given, their row-major `2N × 7` analytic Jacobian —
/// the scalar pre-lane loop.
fn residuals_and_jacobian_3d(
    observations: &[AntennaObservation],
    p: &[f64],
    config: &Solver3DConfig,
    r: &mut Vec<f64>,
    jac: Option<&mut Vec<f64>>,
) {
    let pos = Vec3::new(p[0], p[1], p[2]);
    let (st, ct) = p[3].sin_cos();
    let (sp, cp) = p[4].sin_cos();
    let w = Vec3::new(st * cp, st * sp, ct);
    let wt = Vec3::new(ct * cp, ct * sp, -st);
    let wp = Vec3::new(-st * sp, st * cp, 0.0);
    let (kt, bt) = (p[5], p[6]);
    r.clear();
    let mut jac = jac;
    if let Some(j) = jac.as_deref_mut() {
        j.clear();
        j.resize(observations.len() * 2 * 7, 0.0);
    }
    let k1 = propagation::slope_from_distance(1.0); // 4π/c
    for (i, o) in observations.iter().enumerate() {
        let ap = o.pose.position();
        let d = ap.distance(pos);
        r.push((o.slope - propagation::slope_from_distance(d) - kt) / config.slope_sigma);
        let uw = o.pose.u().dot(w);
        let vw = o.pose.v().dot(w);
        let denom = uw * uw + vw * vw;
        let theta = if denom < 1e-24 {
            0.0
        } else {
            (2.0 * uw * vw).atan2(uw * uw - vw * vw)
        };
        r.push(angle::wrap_pi(o.intercept - theta - bt) / config.intercept_sigma);
        if let Some(j) = jac.as_deref_mut() {
            let rs = 2 * i * 7;
            let g = if d > 1e-12 { -k1 / (d * config.slope_sigma) } else { 0.0 };
            j[rs] = g * (pos.x - ap.x);
            j[rs + 1] = g * (pos.y - ap.y);
            j[rs + 2] = g * (pos.z - ap.z);
            j[rs + 5] = -1.0 / config.slope_sigma;
            let rb = rs + 7;
            let (dtheta_t, dtheta_p) = if denom < 1e-24 {
                (0.0, 0.0)
            } else {
                let uwt = o.pose.u().dot(wt);
                let vwt = o.pose.v().dot(wt);
                let uwp = o.pose.u().dot(wp);
                let vwp = o.pose.v().dot(wp);
                (
                    2.0 * (uw * vwt - vw * uwt) / denom,
                    2.0 * (uw * vwp - vw * uwp) / denom,
                )
            };
            j[rb + 3] = -dtheta_t / config.intercept_sigma;
            j[rb + 4] = -dtheta_p / config.intercept_sigma;
            j[rb + 6] = -1.0 / config.intercept_sigma;
        }
    }
}

/// The N sigma-normalized slope residuals at `p = (x, y, z, k_t)` and
/// their optional `N × 4` analytic Jacobian — the scalar pre-lane loop.
fn slope_residuals_and_jacobian_3d(
    observations: &[AntennaObservation],
    p: &[f64],
    config: &Solver3DConfig,
    r: &mut Vec<f64>,
    jac: Option<&mut Vec<f64>>,
) {
    let pos = Vec3::new(p[0], p[1], p[2]);
    let kt = p[3];
    r.clear();
    let mut jac = jac;
    if let Some(j) = jac.as_deref_mut() {
        j.clear();
        j.resize(observations.len() * 4, 0.0);
    }
    let k1 = propagation::slope_from_distance(1.0);
    for (i, o) in observations.iter().enumerate() {
        let ap = o.pose.position();
        let d = ap.distance(pos);
        r.push((o.slope - propagation::slope_from_distance(d) - kt) / config.slope_sigma);
        if let Some(j) = jac.as_deref_mut() {
            let g = if d > 1e-12 { -k1 / (d * config.slope_sigma) } else { 0.0 };
            j[i * 4] = g * (pos.x - ap.x);
            j[i * 4 + 1] = g * (pos.y - ap.y);
            j[i * 4 + 2] = g * (pos.z - ap.z);
            j[i * 4 + 3] = -1.0 / config.slope_sigma;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{extract_observation, ExtractConfig};
    use rfp_geom::Region2;
    use rfp_sim::{Motion, Scene, SimTag};

    fn region() -> Region2 {
        Scene::standard_2d().region()
    }

    #[test]
    fn reference_2d_recovers_noisy_truth() {
        let scene = Scene::standard_2d();
        let truth = Vec2::new(0.6, 1.3);
        let tag = SimTag::with_seeded_diversity(3)
            .with_motion(Motion::planar_static(truth, 0.5));
        let survey = scene.survey(&tag, 11);
        let obs: Vec<AntennaObservation> = scene
            .antenna_poses()
            .iter()
            .zip(&survey.per_antenna)
            .map(|(&p, r)| extract_observation(p, r, &ExtractConfig::paper()).unwrap())
            .collect();
        let config = SolverConfig::default();
        let seeds = SolveSeeds::for_scene(region(), &config, &scene.antenna_poses());
        let mut ws = Reference2DWorkspace::default();
        let est = solve_2d_reference(&obs, &seeds, &config, &mut ws, None).unwrap();
        let err_cm = est.position.distance(truth) * 100.0;
        assert!(err_cm < 30.0, "error {err_cm} cm");
    }

    #[test]
    fn reference_3d_recovers_noisy_truth() {
        let scene = Scene::six_antenna_3d();
        let truth = Vec3::new(0.7, 1.1, 0.5);
        let dipole = Vec3::new(0.4, 0.6, 0.9).normalized();
        let tag = SimTag::nominal(1)
            .with_motion(Motion::Static { position: truth, dipole });
        let survey = scene.survey(&tag, 7);
        let obs: Vec<AntennaObservation> = scene
            .antenna_poses()
            .iter()
            .zip(&survey.per_antenna)
            .map(|(&p, r)| extract_observation(p, r, &ExtractConfig::paper()).unwrap())
            .collect();
        let config = Solver3DConfig::default();
        let seeds = Solve3DSeeds::for_scene(
            scene.region(),
            (0.0, 1.0),
            &config,
            &scene.antenna_poses(),
        );
        let mut ws = Reference3DWorkspace::default();
        let est = solve_3d_reference(&obs, &seeds, &config, &mut ws, None).unwrap();
        assert!(est.position.distance(truth) < 0.35, "pos {}", est.position);
    }
}
