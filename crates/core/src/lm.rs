//! Dimension-generic Levenberg–Marquardt core (DESIGN.md §6).
//!
//! The 2-D solver fits 5 parameters and the 3-D solver fits 7, but the LM
//! machinery between them — fused residual+Jacobian evaluation, normal
//! equations, Cholesky step, the λ damping/retry policy — is byte-for-byte
//! the same algorithm. [`LmCore`] is that algorithm, const-generic over the
//! parameter count `P`, with the problem physics abstracted behind
//! [`ResidualModel`]. Both solvers are thin facades over it, and a new
//! P-parameter sensing head gets the whole refinement stack by
//! implementing one trait method.
//!
//! Compared with the dynamic [`LmWorkspace`](crate::solver::LmWorkspace)
//! cores (kept public, frozen — they are the oracle the facades are tested
//! against), the const-generic core keeps the parameter vector, the `P×P`
//! normal equations, the factorization scratch and the step/trial buffers
//! in fixed-size arrays: no bounds checks in the `P`-indexed kernels, no
//! `clear`/`resize` churn per refinement, and loop trip counts the
//! compiler can fully unroll. Every floating-point operation runs in the
//! same order as the dynamic analytic core, so results are
//! **bit-identical**.
//!
//! # Lane accounting
//!
//! The residual models evaluate antenna rows in explicit 4-wide lanes
//! (each lane computes one independent row; rows are written in antenna
//! order, so the reduction order — and therefore every bit of the result —
//! matches the scalar loop). The normal-equation assembly (`JᵀJ`/`Jᵀr`)
//! runs the same discipline: 4 residual rows per pass, one independent
//! accumulator per matrix entry, lane products reduced in row order — so
//! the blocked assembly is bit-identical to the scalar `m×P` loop. The
//! core counts full 4-row blocks and leftover scalar rows per evaluation
//! into [`LaneStats`]; the solvers surface the tallies through the
//! `solver.lane_*` observability counters.
//!
//! # Damped step
//!
//! Each LM iteration solves the damped normal equations
//! `(JᵀJ + λ·diag(JᵀJ))δ = −Jᵀr`, and the λ retry policy may re-solve the
//! same system at several λ before a step is accepted. Every attempt
//! copies, damps and Cholesky-factors the `P×P` system, exactly as the
//! frozen dynamic analytic core does.

use crate::solver::SolveStats;

/// Lane-utilization counters of the 4-wide hot paths, accumulated
/// monotonically (snapshot and diff with [`LaneStats::since`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LaneStats {
    /// Full 4-seed blocks evaluated by the coarse seed ranking.
    pub seed_blocks: u64,
    /// Full 4-row blocks evaluated by residual/Jacobian passes.
    pub row_blocks: u64,
    /// Rows (or seeds) processed outside a full 4-wide block — the loop
    /// remainders.
    pub scalar_rows: u64,
}

impl LaneStats {
    /// The tallies accumulated since `earlier` was snapshotted.
    #[must_use]
    pub fn since(self, earlier: LaneStats) -> LaneStats {
        LaneStats {
            seed_blocks: self.seed_blocks - earlier.seed_blocks,
            row_blocks: self.row_blocks - earlier.row_blocks,
            scalar_rows: self.scalar_rows - earlier.scalar_rows,
        }
    }

    /// Element-wise sum of two tallies (for aggregating a workspace's
    /// cores into one snapshot).
    #[must_use]
    pub fn merged(self, other: LaneStats) -> LaneStats {
        LaneStats {
            seed_blocks: self.seed_blocks + other.seed_blocks,
            row_blocks: self.row_blocks + other.row_blocks,
            scalar_rows: self.scalar_rows + other.scalar_rows,
        }
    }
}

/// Work counters of the λ-retry step machinery, accumulated monotonically
/// (snapshot and diff with [`StepStats::since`]). These feed the
/// `solver.lambda_retries` / `solver.chol_failures` observability
/// counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepStats {
    /// Damped-step attempts beyond the first of each iteration — every λ
    /// escalation, whether from a factorization failure or a rejected
    /// (cost-increasing) trial step.
    pub lambda_retries: u64,
    /// Damped systems the Cholesky factorization rejected (not
    /// numerically SPD) — each one escalates λ ×10 and retries.
    pub chol_failures: u64,
}

impl StepStats {
    /// The counts accumulated since `earlier` was snapshotted.
    #[must_use]
    pub fn since(self, earlier: StepStats) -> StepStats {
        StepStats {
            lambda_retries: self.lambda_retries - earlier.lambda_retries,
            chol_failures: self.chol_failures - earlier.chol_failures,
        }
    }

    /// Element-wise sum of two tallies.
    #[must_use]
    pub fn merged(self, other: StepStats) -> StepStats {
        StepStats {
            lambda_retries: self.lambda_retries + other.lambda_retries,
            chol_failures: self.chol_failures + other.chol_failures,
        }
    }
}

/// A `P`-parameter nonlinear least-squares model: the problem physics the
/// dimension-generic [`LmCore`] refines against.
///
/// Implementations own (borrow) their observations and configuration; the
/// core owns the numerics. The solvers implement this for the 2-D joint
/// (`P = 5`), 2-D slope-only (`P = 3`), 3-D joint (`P = 7`) and 3-D
/// slope-only (`P = 4`) problems; a new sensing head needs exactly this
/// one method to inherit the refinement stack.
pub trait ResidualModel<const P: usize> {
    /// Fills `r` with the residuals at `p` and, when `jac` is given, the
    /// row-major `m × P` Jacobian `∂r/∂p` in the same fused pass.
    ///
    /// Must fully overwrite both buffers (`clear` + fill). When `jac` is
    /// `None` only the residuals are needed (trial-point evaluations).
    fn eval(&self, p: &[f64; P], r: &mut Vec<f64>, jac: Option<&mut Vec<f64>>);
}

/// The dimension-generic LM engine: scratch buffers plus the refinement
/// loop, const-generic over the parameter count.
///
/// The residual and Jacobian buffers grow to the model's row count on the
/// first refinement and are reused afterwards; everything `P`-sized lives
/// inline in the struct. A sized core performs **zero** heap allocations
/// per refinement — the property the counting-allocator suite pins.
#[derive(Debug, Clone)]
pub struct LmCore<const P: usize> {
    r: Vec<f64>,
    r_plus: Vec<f64>,
    /// Row-major `m × P` Jacobian.
    jac: Vec<f64>,
    /// Normal matrix `JᵀJ` and its damped factorization scratch.
    jtj: [[f64; P]; P],
    chol: [[f64; P]; P],
    /// Gradient, step and trial-point buffers.
    jtr: [f64; P],
    delta: [f64; P],
    candidate: [f64; P],
    stats: SolveStats,
    lanes: LaneStats,
    steps: StepStats,
}

impl<const P: usize> Default for LmCore<P> {
    fn default() -> Self {
        LmCore {
            r: Vec::new(),
            r_plus: Vec::new(),
            jac: Vec::new(),
            jtj: [[0.0; P]; P],
            chol: [[0.0; P]; P],
            jtr: [0.0; P],
            delta: [0.0; P],
            candidate: [0.0; P],
            stats: SolveStats::default(),
            lanes: LaneStats::default(),
            steps: StepStats::default(),
        }
    }
}

impl<const P: usize> LmCore<P> {
    /// Snapshot of the work counters accumulated by every refinement run
    /// against this core (diff with
    /// [`SolveStats::since`](crate::solver::SolveStats::since)).
    pub fn stats(&self) -> SolveStats {
        self.stats
    }

    /// Snapshot of the lane-utilization counters (diff with
    /// [`LaneStats::since`]).
    pub fn lane_stats(&self) -> LaneStats {
        self.lanes
    }

    /// Snapshot of the λ-retry step counters (diff with
    /// [`StepStats::since`]).
    pub fn step_stats(&self) -> StepStats {
        self.steps
    }

    /// Charges one model evaluation of `rows` residual rows to the lane
    /// tallies: full 4-row blocks plus the scalar remainder.
    fn charge_lanes(&mut self, rows: usize) {
        self.lanes.row_blocks += (rows / 4) as u64;
        self.lanes.scalar_rows += (rows % 4) as u64;
    }

    /// Assembles the normal equations `JᵀJ` / `Jᵀr` from the current
    /// residual and Jacobian buffers. The `m` residual rows are consumed
    /// 4 per pass; every `JᵀJ`/`Jᵀr` entry
    /// keeps its own independent accumulator and the four lane products
    /// are reduced in row order, so each partial sum — and therefore
    /// every bit of the result — matches the scalar loop. Assembly rows
    /// are charged to the lane tallies like model-evaluation rows.
    #[allow(clippy::needless_range_loop)] // index loops mirror the frozen core verbatim
    fn assemble_normal_equations(&mut self, m: usize) {
        self.jtj = [[0.0; P]; P];
        self.jtr = [0.0; P];
        let mut i = 0usize;
        while i + 4 <= m {
            let j0 = &self.jac[i * P..(i + 1) * P];
            let j1 = &self.jac[(i + 1) * P..(i + 2) * P];
            let j2 = &self.jac[(i + 2) * P..(i + 3) * P];
            let j3 = &self.jac[(i + 3) * P..(i + 4) * P];
            let (y0, y1, y2, y3) =
                (self.r[i], self.r[i + 1], self.r[i + 2], self.r[i + 3]);
            for a in 0..P {
                let mut g = self.jtr[a];
                g += j0[a] * y0;
                g += j1[a] * y1;
                g += j2[a] * y2;
                g += j3[a] * y3;
                self.jtr[a] = g;
                for b in a..P {
                    let mut s = self.jtj[a][b];
                    s += j0[a] * j0[b];
                    s += j1[a] * j1[b];
                    s += j2[a] * j2[b];
                    s += j3[a] * j3[b];
                    self.jtj[a][b] = s;
                }
            }
            i += 4;
        }
        for i in i..m {
            let row = &self.jac[i * P..(i + 1) * P];
            let ri = self.r[i];
            for a in 0..P {
                self.jtr[a] += row[a] * ri;
                for b in a..P {
                    self.jtj[a][b] += row[a] * row[b];
                }
            }
        }
        for a in 0..P {
            for b in 0..a {
                self.jtj[a][b] = self.jtj[b][a];
            }
        }
        self.charge_lanes(m);
    }

    /// The λ damping/retry policy of one iteration: up to 8 damped-step
    /// attempts, λ ×10 on a factorization failure, λ ×4 on a rejected
    /// (cost-increasing) trial, λ/3 (floored at 1e-12) on an accepted
    /// step. Identical floating-point behaviour to the frozen dynamic
    /// analytic core.
    fn lambda_retry<M: ResidualModel<P>>(
        &mut self,
        model: &M,
        m: usize,
        p: &mut [f64; P],
        cost: &mut f64,
        lambda: &mut f64,
        tolerance: f64,
    ) -> RetryOutcome {
        for attempt in 0..8 {
            if attempt > 0 {
                self.steps.lambda_retries += 1;
            }
            if !damped_step_cholesky(
                &self.jtj,
                &self.jtr,
                *lambda,
                &mut self.chol,
                &mut self.delta,
            ) {
                self.steps.chol_failures += 1;
                *lambda *= 10.0;
                continue;
            }
            for (a, pa) in p.iter().enumerate() {
                self.candidate[a] = pa + self.delta[a];
            }
            model.eval(&self.candidate, &mut self.r_plus, None);
            self.stats.residual_evals += 1;
            self.charge_lanes(m);
            let new_cost: f64 = self.r_plus.iter().map(|v| v * v).sum();
            if new_cost < *cost {
                let rel_drop = (*cost - new_cost) / (*cost).max(1e-300);
                *p = self.candidate;
                std::mem::swap(&mut self.r, &mut self.r_plus);
                *cost = new_cost;
                *lambda = (*lambda / 3.0).max(1e-12);
                if rel_drop < tolerance {
                    return RetryOutcome::Converged;
                }
                return RetryOutcome::Improved;
            }
            *lambda *= 4.0;
        }
        RetryOutcome::Exhausted
    }

    /// Levenberg–Marquardt with the model's fused analytic
    /// residual+Jacobian. The damping/retry policy and
    /// every floating-point operation match
    /// [`levenberg_marquardt_analytic_with`](crate::solver::levenberg_marquardt_analytic_with)
    /// exactly, so results are bit-identical to the dynamic core.
    pub fn refine<M: ResidualModel<P>>(
        &mut self,
        model: &M,
        mut p: [f64; P],
        max_iterations: usize,
        tolerance: f64,
    ) -> ([f64; P], f64) {
        model.eval(&p, &mut self.r, Some(&mut self.jac));
        self.stats.residual_evals += 1;
        self.stats.jacobian_evals += 1;
        let mut cost: f64 = self.r.iter().map(|v| v * v).sum();
        let m = self.r.len();
        self.charge_lanes(m);
        debug_assert_eq!(self.jac.len(), m * P);

        let mut lambda = 1e-3;
        // The Jacobian from the initial fused evaluation is current; after
        // an accepted step it goes stale and the next iteration re-fuses.
        let mut jac_fresh = true;

        for _ in 0..max_iterations {
            self.stats.iterations += 1;
            if !jac_fresh {
                model.eval(&p, &mut self.r, Some(&mut self.jac));
                self.stats.residual_evals += 1;
                self.stats.jacobian_evals += 1;
                self.charge_lanes(m);
            }
            // Assemble the normal equations once; the λ retries below
            // reuse them and only re-damp the diagonal.
            self.assemble_normal_equations(m);

            match self.lambda_retry(model, m, &mut p, &mut cost, &mut lambda, tolerance) {
                RetryOutcome::Converged => return (p, cost),
                RetryOutcome::Improved => jac_fresh = false,
                RetryOutcome::Exhausted => break,
            }
        }
        (p, cost)
    }
}

/// What one pass of the λ retry loop did to the running iterate.
enum RetryOutcome {
    /// A step was accepted and the relative cost drop fell under the
    /// tolerance — refinement is done.
    Converged,
    /// A step was accepted; the Jacobian is now stale.
    Improved,
    /// All 8 attempts failed to decrease the cost.
    Exhausted,
}

/// One damped normal-equation step
/// `(JᵀJ + λ·diag(JᵀJ)₊)δ = −Jᵀr` by copy + damp + Cholesky (exactly the
/// frozen dynamic analytic core's operations, in their order). `scratch`
/// receives the damped factor; `delta` the step. Returns `false` when the damped matrix is not
/// numerically SPD — the caller escalates λ and retries.
fn damped_step_cholesky<const P: usize>(
    jtj: &[[f64; P]; P],
    jtr: &[f64; P],
    lambda: f64,
    scratch: &mut [[f64; P]; P],
    delta: &mut [f64; P],
) -> bool {
    *scratch = *jtj;
    for d in 0..P {
        scratch[d][d] += lambda * jtj[d][d].max(1e-12);
    }
    if !cholesky_factor(scratch) {
        return false;
    }
    for a in 0..P {
        delta[a] = -jtr[a];
    }
    cholesky_solve(scratch, delta);
    true
}

/// In-place Cholesky factorization `A = LLᵀ`; on success the lower
/// triangle holds `L`. Same expressions (and failure guard) as the
/// dynamic [`solver`](crate::solver) routine, over fixed-size storage —
/// bit-identical factors.
#[allow(clippy::needless_range_loop)] // index loops mirror the frozen core verbatim
fn cholesky_factor<const P: usize>(a: &mut [[f64; P]; P]) -> bool {
    for i in 0..P {
        for j in 0..=i {
            let mut s = a[i][j];
            for k in 0..j {
                s -= a[i][k] * a[j][k];
            }
            if i == j {
                if !s.is_finite() || s < 1e-300 {
                    return false;
                }
                a[i][i] = s.sqrt();
            } else {
                a[i][j] = s / a[j][j];
            }
        }
    }
    true
}

/// Solves `LLᵀ x = b` in place against a [`cholesky_factor`] factor.
fn cholesky_solve<const P: usize>(l: &[[f64; P]; P], b: &mut [f64; P]) {
    for i in 0..P {
        let mut s = b[i];
        for k in 0..i {
            s -= l[i][k] * b[k];
        }
        b[i] = s / l[i][i];
    }
    for i in (0..P).rev() {
        let mut s = b[i];
        for k in (i + 1)..P {
            s -= l[k][i] * b[k];
        }
        b[i] = s / l[i][i];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::{levenberg_marquardt_analytic_with, LmWorkspace};

    /// Fit y = a·x + b over 10 points — a tiny 2-parameter model whose
    /// analytic Jacobian is exact.
    struct Line {
        data: Vec<(f64, f64)>,
    }

    impl ResidualModel<2> for Line {
        fn eval(&self, p: &[f64; 2], r: &mut Vec<f64>, jac: Option<&mut Vec<f64>>) {
            r.clear();
            let mut jac = jac;
            if let Some(j) = jac.as_deref_mut() {
                j.clear();
            }
            for &(x, y) in &self.data {
                r.push(y - (p[0] * x + p[1]));
                if let Some(j) = jac.as_deref_mut() {
                    j.push(-x);
                    j.push(-1.0);
                }
            }
        }
    }

    fn line_model() -> Line {
        Line {
            data: (0..10).map(|i| (i as f64, 2.0 * i as f64 - 3.0)).collect(),
        }
    }

    #[test]
    fn analytic_refine_matches_dynamic_core_bitwise() {
        let model = line_model();
        let mut core = LmCore::<2>::default();
        let (p, cost) = core.refine(&model, [0.0, 0.0], 100, 1e-14);

        let mut ws = LmWorkspace::default();
        let resjac = |p: &[f64], r: &mut Vec<f64>, jac: Option<&mut Vec<f64>>| {
            let pa = [p[0], p[1]];
            model.eval(&pa, r, jac);
        };
        let (pd, costd) =
            levenberg_marquardt_analytic_with(&mut ws, &resjac, vec![0.0, 0.0], 100, 1e-14);
        assert_eq!(p[0].to_bits(), pd[0].to_bits());
        assert_eq!(p[1].to_bits(), pd[1].to_bits());
        assert_eq!(cost.to_bits(), costd.to_bits());
        assert!((p[0] - 2.0).abs() < 1e-8 && (p[1] + 3.0).abs() < 1e-8);
        // Identical work accounting, too.
        assert_eq!(core.stats(), ws.stats());
    }

    #[test]
    fn lane_tallies_split_blocks_and_remainder() {
        let model = line_model();
        let mut core = LmCore::<2>::default();
        core.refine(&model, [0.0, 0.0], 100, 1e-14);
        let lanes = core.lane_stats();
        // 10 rows per evaluation → 2 full blocks + 2 scalar rows each.
        assert!(lanes.row_blocks > 0);
        assert_eq!(lanes.scalar_rows, lanes.row_blocks);
    }

    #[test]
    fn fixed_size_cholesky_round_trip() {
        let a = [[4.0, 2.0, 0.6], [2.0, 5.0, 1.0], [0.6, 1.0, 3.0]];
        let b = [1.0, -2.0, 0.5];
        let mut l = a;
        assert!(cholesky_factor(&mut l));
        let mut x = b;
        cholesky_solve(&l, &mut x);
        for i in 0..3 {
            let ax: f64 = (0..3).map(|j| a[i][j] * x[j]).sum();
            assert!((ax - b[i]).abs() < 1e-12, "row {i}: {ax} vs {}", b[i]);
        }
        let mut indef = [[1.0, 2.0], [2.0, 1.0]];
        assert!(!cholesky_factor(&mut indef));
    }
}
