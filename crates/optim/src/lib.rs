//! # choco-optim
//!
//! Derivative-free classical optimizers for the variational loop.
//!
//! The paper uses COBYLA ("constrained optimization by linear
//! approximation" \[39\]) for all designs; [`Cobyla`] implements it (in
//! the unconstrained, bound-free form the `{γ_l, β_l}` loop needs) and is
//! the default. A Nelder–Mead simplex ([`NelderMead`]) and SPSA
//! ([`Spsa`]) remain selectable — QAOA outcome quality is known to be
//! sensitive to the classical-optimizer choice, so the runner exposes the
//! selection as a spec key / CLI flag.
//!
//! Every optimizer records a per-iteration best-so-far history so the
//! convergence experiment can be regenerated, with the invariant that
//! `history.last() == Some(&best_value)` — the final history point is the
//! value the run actually achieved.
//!
//! ```
//! use choco_optim::Cobyla;
//!
//! // minimize the sphere function
//! let result = Cobyla::default().minimize(
//!     |x| x.iter().map(|v| v * v).sum(),
//!     &[1.0, -2.0],
//! );
//! assert!(result.best_value < 1e-6);
//! ```

#![warn(missing_docs)]

use std::fmt;

/// An objective function, with an optional batched evaluation path.
///
/// The optimizers call [`Objective::eval_batch`] wherever they hold a
/// group of *independent* candidate points — COBYLA's initial simplex and
/// degenerate-geometry rebuilds, Nelder–Mead's initial simplex and shrink
/// steps — and [`Objective::eval`] for the sequentially dependent probes
/// (reflection → expansion/contraction chains, trust-region candidate →
/// extended step). The default `eval_batch` evaluates sequentially, so a
/// plain closure behaves exactly as before; an objective backed by a
/// batched simulator (the variational loop's `SimWorkspace::run_batch`
/// and `SimWorkspace::run_forked` paths) overrides it to evaluate the
/// group in one pass.
///
/// Contract: `eval_batch` must return one value per point, and each value
/// must equal what `eval` would have returned for that point alone — the
/// optimizers' accounting (evaluation counts, best tracking, history)
/// folds batched results in index order, so a conforming objective makes
/// batched and serial runs produce identical [`OptimizeResult`]s.
pub trait Objective {
    /// Evaluates the objective at one point.
    fn eval(&mut self, x: &[f64]) -> f64;

    /// Evaluates a group of independent points, filling `out` with one
    /// value per point (in order). The default is a sequential loop over
    /// [`Objective::eval`].
    fn eval_batch(&mut self, xs: &[Vec<f64>], out: &mut Vec<f64>) {
        out.clear();
        for x in xs {
            out.push(self.eval(x));
        }
    }
}

/// Every plain closure is an objective with the sequential batch path.
impl<F: FnMut(&[f64]) -> f64> Objective for F {
    fn eval(&mut self, x: &[f64]) -> f64 {
        self(x)
    }
}

/// Outcome of an optimization run.
#[derive(Clone, Debug, PartialEq)]
pub struct OptimizeResult {
    /// Best parameter vector found.
    pub best_params: Vec<f64>,
    /// Objective at `best_params`.
    pub best_value: f64,
    /// Best-so-far objective after each iteration (for convergence plots).
    pub history: Vec<f64>,
    /// Total objective evaluations.
    pub evaluations: usize,
    /// Iterations executed.
    pub iterations: usize,
}

/// Which optimizer a solver should run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum OptimizerKind {
    /// COBYLA — linear-approximation trust region (the paper's
    /// optimizer \[39\]; the default).
    #[default]
    Cobyla,
    /// Nelder–Mead simplex.
    NelderMead,
    /// Simultaneous perturbation stochastic approximation.
    Spsa,
}

impl OptimizerKind {
    /// Every selectable optimizer, default first.
    pub const ALL: [OptimizerKind; 3] = [
        OptimizerKind::Cobyla,
        OptimizerKind::NelderMead,
        OptimizerKind::Spsa,
    ];

    /// Short stable label (`"cobyla"`, `"nelder-mead"`, `"spsa"`) — the
    /// spelling [`OptimizerKind::parse`] round-trips.
    pub fn label(&self) -> &'static str {
        match self {
            OptimizerKind::Cobyla => "cobyla",
            OptimizerKind::NelderMead => "nelder-mead",
            OptimizerKind::Spsa => "spsa",
        }
    }

    /// Parses an optimizer name, case-insensitively.
    ///
    /// # Errors
    ///
    /// Returns a message listing the valid choices.
    pub fn parse(text: &str) -> Result<OptimizerKind, String> {
        match text.to_ascii_lowercase().as_str() {
            "cobyla" => Ok(OptimizerKind::Cobyla),
            "nelder-mead" | "neldermead" | "nelder_mead" => Ok(OptimizerKind::NelderMead),
            "spsa" => Ok(OptimizerKind::Spsa),
            other => Err(format!(
                "unknown optimizer `{other}` (expected cobyla|nelder-mead|spsa)"
            )),
        }
    }

    /// Runs the chosen optimizer with `max_iters` iterations from `x0`.
    pub fn minimize<F: FnMut(&[f64]) -> f64>(
        &self,
        max_iters: usize,
        f: F,
        x0: &[f64],
    ) -> OptimizeResult {
        self.minimize_obj(max_iters, f, x0)
    }

    /// Like [`OptimizerKind::minimize`], but for any [`Objective`] —
    /// the entry point for callers with a batched evaluation path.
    pub fn minimize_obj<O: Objective>(&self, max_iters: usize, f: O, x0: &[f64]) -> OptimizeResult {
        match self {
            OptimizerKind::Cobyla => Cobyla {
                max_iters,
                ..Cobyla::default()
            }
            .minimize_obj(f, x0),
            OptimizerKind::NelderMead => NelderMead {
                max_iters,
                ..NelderMead::default()
            }
            .minimize_obj(f, x0),
            OptimizerKind::Spsa => Spsa {
                max_iters,
                ..Spsa::default()
            }
            .minimize_obj(f, x0),
        }
    }
}

impl fmt::Display for OptimizerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The Nelder–Mead downhill simplex method.
///
/// Standard coefficients (reflect 1, expand 2, contract ½, shrink ½) with a
/// size-based initial simplex and dual f/x tolerance termination.
#[derive(Clone, Debug)]
pub struct NelderMead {
    /// Maximum iterations (one reflection cycle each).
    pub max_iters: usize,
    /// Terminate when the simplex objective spread falls below this.
    pub f_tol: f64,
    /// Terminate when the simplex diameter falls below this.
    pub x_tol: f64,
    /// Step used to seed the initial simplex around `x0`.
    pub initial_step: f64,
}

impl Default for NelderMead {
    fn default() -> Self {
        NelderMead {
            max_iters: 200,
            f_tol: 1e-8,
            x_tol: 1e-8,
            initial_step: 0.4,
        }
    }
}

impl NelderMead {
    /// Minimizes `f` starting from `x0`.
    ///
    /// # Panics
    ///
    /// Panics if `x0` is empty or the objective returns NaN.
    pub fn minimize<F: FnMut(&[f64]) -> f64>(&self, f: F, x0: &[f64]) -> OptimizeResult {
        self.minimize_obj(f, x0)
    }

    /// Like [`NelderMead::minimize`], but for any [`Objective`]. The
    /// initial simplex and every shrink step — the groups of independent
    /// evaluations — go through [`Objective::eval_batch`].
    ///
    /// # Panics
    ///
    /// Panics if `x0` is empty or the objective returns NaN.
    pub fn minimize_obj<O: Objective>(&self, mut f: O, x0: &[f64]) -> OptimizeResult {
        assert!(!x0.is_empty(), "need at least one parameter");
        let n = x0.len();
        let mut evaluations = 0usize;
        let eval = |f: &mut O, x: &[f64], evals: &mut usize| {
            *evals += 1;
            f.eval(x)
        };
        let eval_batch = |f: &mut O, xs: &[Vec<f64>], out: &mut Vec<f64>, evals: &mut usize| {
            f.eval_batch(xs, out);
            assert_eq!(out.len(), xs.len(), "objective returned a short batch");
            *evals += out.len();
        };

        // Initial simplex: x0 and x0 + step·e_i — n+1 independent
        // evaluations, batched.
        let mut simplex: Vec<Vec<f64>> = Vec::with_capacity(n + 1);
        simplex.push(x0.to_vec());
        for i in 0..n {
            let mut v = x0.to_vec();
            v[i] += self.initial_step;
            simplex.push(v);
        }
        let mut values: Vec<f64> = Vec::with_capacity(n + 1);
        eval_batch(&mut f, &simplex, &mut values, &mut evaluations);

        let mut history = Vec::with_capacity(self.max_iters);
        let mut iterations = 0usize;

        for _ in 0..self.max_iters {
            iterations += 1;
            // Order the simplex.
            let mut order: Vec<usize> = (0..=n).collect();
            order.sort_by(|&a, &b| values[a].partial_cmp(&values[b]).expect("NaN objective"));
            let best = order[0];
            let worst = order[n];
            let second_worst = order[n - 1];

            // Termination.
            let spread = values[worst] - values[best];
            let diameter = simplex
                .iter()
                .map(|x| {
                    x.iter()
                        .zip(simplex[best].iter())
                        .map(|(a, b)| (a - b).abs())
                        .fold(0.0, f64::max)
                })
                .fold(0.0, f64::max);
            if spread.abs() < self.f_tol && diameter < self.x_tol {
                history.push(values[best]);
                break;
            }

            // Centroid of all but the worst.
            let mut centroid = vec![0.0; n];
            for (idx, x) in simplex.iter().enumerate() {
                if idx == worst {
                    continue;
                }
                for (c, v) in centroid.iter_mut().zip(x.iter()) {
                    *c += v / n as f64;
                }
            }
            let blend = |a: &[f64], b: &[f64], t: f64| -> Vec<f64> {
                a.iter()
                    .zip(b.iter())
                    .map(|(x, y)| x + t * (y - x))
                    .collect()
            };

            // Reflection → expansion/contraction: each probe depends on
            // the previous one's value, so these stay sequential.
            let reflected = blend(&centroid, &simplex[worst], -1.0);
            let fr = eval(&mut f, &reflected, &mut evaluations);
            if fr < values[best] {
                // Expansion.
                let expanded = blend(&centroid, &simplex[worst], -2.0);
                let fe = eval(&mut f, &expanded, &mut evaluations);
                if fe < fr {
                    simplex[worst] = expanded;
                    values[worst] = fe;
                } else {
                    simplex[worst] = reflected;
                    values[worst] = fr;
                }
            } else if fr < values[second_worst] {
                simplex[worst] = reflected;
                values[worst] = fr;
            } else {
                // Contraction (outside if the reflection helped, else inside).
                let t = if fr < values[worst] { -0.5 } else { 0.5 };
                let contracted = blend(&centroid, &simplex[worst], t);
                let fc = eval(&mut f, &contracted, &mut evaluations);
                if fc < values[worst].min(fr) {
                    simplex[worst] = contracted;
                    values[worst] = fc;
                } else {
                    // Shrink toward the best vertex: the n new vertices
                    // depend only on the pre-shrink simplex — independent,
                    // so batched.
                    let best_point = simplex[best].clone();
                    let shrink_idx: Vec<usize> = (0..=n).filter(|&i| i != best).collect();
                    let shrunk: Vec<Vec<f64>> = shrink_idx
                        .iter()
                        .map(|&i| blend(&best_point, &simplex[i], 0.5))
                        .collect();
                    let mut shrunk_values = Vec::with_capacity(n);
                    eval_batch(&mut f, &shrunk, &mut shrunk_values, &mut evaluations);
                    for ((&idx, x), v) in shrink_idx.iter().zip(shrunk).zip(shrunk_values) {
                        simplex[idx] = x;
                        values[idx] = v;
                    }
                }
            }

            // Best-so-far *after* this cycle's updates: an improvement
            // found in the final iteration must land in the history, so
            // `history.last()` always reports the achieved value.
            let cycle_best = values.iter().copied().fold(f64::INFINITY, f64::min);
            history.push(cycle_best);
        }

        let (best_idx, &best_value) = values
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).expect("NaN objective"))
            .expect("non-empty simplex");
        OptimizeResult {
            best_params: simplex[best_idx].clone(),
            best_value,
            history,
            evaluations,
            iterations,
        }
    }
}

/// Running evaluation accounting shared by the COBYLA loop: every
/// objective call updates the global best, so the returned
/// `best_params`/`best_value` cover *all* evaluated points (model steps,
/// geometry repairs, resets), not only simplex vertices.
struct EvalState {
    evaluations: usize,
    best_params: Vec<f64>,
    best_value: f64,
}

impl EvalState {
    fn record(&mut self, x: &[f64], v: f64) {
        self.evaluations += 1;
        assert!(!v.is_nan(), "NaN objective");
        if v < self.best_value {
            self.best_value = v;
            self.best_params.clear();
            self.best_params.extend_from_slice(x);
        }
    }

    fn eval<O: Objective>(&mut self, f: &mut O, x: &[f64]) -> f64 {
        let v = f.eval(x);
        self.record(x, v);
        v
    }

    /// Evaluates a group of independent points through the objective's
    /// batched path, then folds every value through the same accounting
    /// [`EvalState::eval`] applies — in index order, so the evaluation
    /// count and best tracking match a sequential run exactly.
    fn eval_batch<O: Objective>(&mut self, f: &mut O, xs: &[Vec<f64>], out: &mut Vec<f64>) {
        f.eval_batch(xs, out);
        assert_eq!(out.len(), xs.len(), "objective returned a short batch");
        for (x, &v) in xs.iter().zip(out.iter()) {
            self.record(x, v);
        }
    }
}

/// Solves `a · x = b` by Gaussian elimination with partial pivoting after
/// normalizing each row by its ∞-norm (the rows are simplex edges of
/// magnitude ~ρ, which shrinks over a run — without the scaling a late
/// system would look singular purely by magnitude). Returns `None` for a
/// degenerate (rank-deficient) system.
fn solve_linear(mut a: Vec<Vec<f64>>, mut b: Vec<f64>) -> Option<Vec<f64>> {
    let n = b.len();
    for (row, rhs) in a.iter_mut().zip(b.iter_mut()) {
        let scale = row.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        if scale == 0.0 {
            return None;
        }
        for v in row.iter_mut() {
            *v /= scale;
        }
        *rhs /= scale;
    }
    for col in 0..n {
        let pivot = (col..n).max_by(|&i, &j| {
            a[i][col]
                .abs()
                .partial_cmp(&a[j][col].abs())
                .expect("finite matrix")
        })?;
        if a[pivot][col].abs() < 1e-10 {
            return None;
        }
        a.swap(col, pivot);
        b.swap(col, pivot);
        for row in col + 1..n {
            let t = a[row][col] / a[col][col];
            if t != 0.0 {
                let (top, bottom) = a.split_at_mut(row);
                let pivot_row = &top[col];
                for (v, p) in bottom[0][col..].iter_mut().zip(&pivot_row[col..]) {
                    *v -= t * p;
                }
                b[row] -= t * b[col];
            }
        }
    }
    let mut x = vec![0.0; n];
    for col in (0..n).rev() {
        let mut acc = b[col];
        for k in col + 1..n {
            acc -= a[col][k] * x[k];
        }
        x[col] = acc / a[col][col];
    }
    Some(x)
}

/// COBYLA — "constrained optimization by linear approximation" (Powell
/// 1994), the paper's classical optimizer \[39\], in the unconstrained
/// form the variational loop needs (the `{γ_l, β_l}` box has no
/// constraints; Choco-Q's feasibility is enforced by the circuit, not the
/// optimizer).
///
/// The method maintains an `n+1`-point interpolation simplex. Each
/// iteration:
///
/// 1. **geometry** — a vertex further than `2ρ` (∞-norm) from the best
///    point is pulled back to distance `ρ` along its own direction and
///    re-evaluated, keeping the linear model local as the trust region
///    shrinks; a rank-deficient simplex is rebuilt on fresh axes,
/// 2. **model** — the unique linear interpolant through the simplex
///    yields a gradient estimate `g` (one `n×n` solve),
/// 3. **trust-region step** — the objective is evaluated at
///    `x_best − ρ·g/‖g‖`; a point better than the worst vertex replaces
///    it, and a step that fails to beat the best vertex by a fraction of
///    the predicted decrease halves `ρ` (from `rho_beg` down to
///    `rho_end`, which terminates the run).
///
/// Deterministic (no random draws), one to two objective evaluations
/// per iteration in the steady state (the trust-region point, plus an
/// expansion trial whenever it improves on the best vertex; a geometry
/// rebuild after a degenerate simplex costs `n`) — the same
/// per-iteration budget shape as [`NelderMead`], which matters when
/// every evaluation is a full quantum execution.
#[derive(Clone, Debug)]
pub struct Cobyla {
    /// Maximum iterations (≈ objective evaluations after the initial
    /// simplex).
    pub max_iters: usize,
    /// Initial trust-region radius (also the initial simplex edge).
    pub rho_beg: f64,
    /// Final trust-region radius: the run stops once ρ falls below this.
    pub rho_end: f64,
}

impl Default for Cobyla {
    fn default() -> Self {
        Cobyla {
            max_iters: 200,
            rho_beg: 0.4,
            rho_end: 1e-7,
        }
    }
}

impl Cobyla {
    /// Minimizes `f` starting from `x0`.
    ///
    /// # Panics
    ///
    /// Panics if `x0` is empty or the objective returns NaN.
    pub fn minimize<F: FnMut(&[f64]) -> f64>(&self, f: F, x0: &[f64]) -> OptimizeResult {
        self.minimize_obj(f, x0)
    }

    /// Like [`Cobyla::minimize`], but for any [`Objective`]. The initial
    /// simplex and every degenerate-geometry rebuild — the groups of
    /// independent evaluations — go through [`Objective::eval_batch`];
    /// the trust-region candidate/extended probes stay sequential.
    ///
    /// # Panics
    ///
    /// Panics if `x0` is empty or the objective returns NaN.
    pub fn minimize_obj<O: Objective>(&self, mut f: O, x0: &[f64]) -> OptimizeResult {
        assert!(!x0.is_empty(), "need at least one parameter");
        let n = x0.len();
        let mut state = EvalState {
            evaluations: 0,
            best_params: x0.to_vec(),
            best_value: f64::INFINITY,
        };

        // Initial simplex: x0 and x0 + ρ·e_i — n+1 independent
        // evaluations, batched.
        let mut simplex: Vec<Vec<f64>> = Vec::with_capacity(n + 1);
        simplex.push(x0.to_vec());
        for i in 0..n {
            let mut v = x0.to_vec();
            v[i] += self.rho_beg;
            simplex.push(v);
        }
        let mut values: Vec<f64> = Vec::with_capacity(n + 1);
        state.eval_batch(&mut f, &simplex, &mut values);

        let mut rho = self.rho_beg;
        let mut history = Vec::with_capacity(self.max_iters);
        let mut iterations = 0usize;

        for _ in 0..self.max_iters {
            iterations += 1;
            let best = (0..=n)
                .min_by(|&i, &j| values[i].partial_cmp(&values[j]).expect("NaN objective"))
                .expect("non-empty simplex");
            let worst = (0..=n)
                .max_by(|&i, &j| values[i].partial_cmp(&values[j]).expect("NaN objective"))
                .expect("non-empty simplex");

            // Geometry: pull the farthest vertex inside the 2ρ ball.
            let dist = |x: &[f64]| -> f64 {
                x.iter()
                    .zip(simplex[best].iter())
                    .map(|(a, b)| (a - b).abs())
                    .fold(0.0, f64::max)
            };
            let (far, far_dist) = (0..=n)
                .map(|i| (i, dist(&simplex[i])))
                .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite distances"))
                .expect("non-empty simplex");
            if far_dist > 2.0 * rho {
                let pulled: Vec<f64> = simplex[far]
                    .iter()
                    .zip(simplex[best].iter())
                    .map(|(x, c)| c + (x - c) * rho / far_dist)
                    .collect();
                values[far] = state.eval(&mut f, &pulled);
                simplex[far] = pulled;
                history.push(state.best_value);
                continue;
            }

            // Linear model: gradient of the interpolant through the
            // simplex (rows are edges from the best vertex).
            let rows: Vec<Vec<f64>> = (0..=n)
                .filter(|&i| i != best)
                .map(|i| {
                    simplex[i]
                        .iter()
                        .zip(simplex[best].iter())
                        .map(|(a, b)| a - b)
                        .collect()
                })
                .collect();
            let rhs: Vec<f64> = (0..=n)
                .filter(|&i| i != best)
                .map(|i| values[i] - values[best])
                .collect();
            let Some(gradient) = solve_linear(rows, rhs) else {
                // Degenerate simplex: rebuild on fresh axes around the
                // best point at the current radius — n independent
                // evaluations, batched.
                let center = simplex[best].clone();
                let center_value = values[best];
                let fresh: Vec<Vec<f64>> = (0..n)
                    .map(|i| {
                        let mut v = center.clone();
                        v[i] += rho;
                        v
                    })
                    .collect();
                let mut fresh_values = Vec::with_capacity(n);
                state.eval_batch(&mut f, &fresh, &mut fresh_values);
                simplex.clear();
                values.clear();
                simplex.push(center);
                values.push(center_value);
                simplex.extend(fresh);
                values.extend(fresh_values);
                history.push(state.best_value);
                continue;
            };
            let norm = gradient.iter().map(|g| g * g).sum::<f64>().sqrt();
            if norm > 0.0 {
                // Steepest-descent trust-region step of length ρ.
                let candidate: Vec<f64> = simplex[best]
                    .iter()
                    .zip(gradient.iter())
                    .map(|(x, g)| x - rho * g / norm)
                    .collect();
                let fc = state.eval(&mut f, &candidate);
                let improved = fc < values[best];
                if fc < values[worst] {
                    simplex[worst] = candidate.clone();
                    values[worst] = fc;
                }
                if improved {
                    // The model direction is paying off: try a doubled
                    // step before settling (the simplex-expansion idea —
                    // without it, a long curved valley is traversed in
                    // ρ-sized increments).
                    let extended: Vec<f64> = candidate
                        .iter()
                        .zip(gradient.iter())
                        .map(|(x, g)| x - rho * g / norm)
                        .collect();
                    let fe = state.eval(&mut f, &extended);
                    let worst = (0..=n)
                        .max_by(|&i, &j| values[i].partial_cmp(&values[j]).expect("NaN objective"))
                        .expect("non-empty simplex");
                    if fe < values[worst] {
                        simplex[worst] = extended;
                        values[worst] = fe;
                    }
                } else {
                    // No decrease at this radius: contract.
                    rho *= 0.5;
                }
            } else {
                // Flat interpolant: the model carries no direction at
                // this scale — contract and look closer.
                rho *= 0.5;
            }

            history.push(state.best_value);
            if rho < self.rho_end {
                break;
            }
        }

        let EvalState {
            evaluations,
            best_params,
            best_value,
        } = state;
        OptimizeResult {
            best_params,
            best_value,
            history,
            evaluations,
            iterations,
        }
    }
}

/// Simultaneous perturbation stochastic approximation (SPSA): two gradient
/// evaluations per iteration regardless of dimension — attractive when each
/// evaluation is a full quantum execution.
#[derive(Clone, Debug)]
pub struct Spsa {
    /// Iterations.
    pub max_iters: usize,
    /// Step-size numerator `a` in `a_k = a / (k + 1 + A)^α`.
    pub a: f64,
    /// Perturbation size numerator `c` in `c_k = c / (k + 1)^γ`.
    pub c: f64,
    /// Step-size decay exponent α.
    pub alpha: f64,
    /// Perturbation decay exponent γ.
    pub gamma: f64,
    /// Stability constant `A`.
    pub stability: f64,
    /// PRNG seed for the ±1 perturbation draws.
    pub seed: u64,
}

impl Default for Spsa {
    fn default() -> Self {
        Spsa {
            max_iters: 200,
            a: 0.3,
            c: 0.15,
            alpha: 0.602,
            gamma: 0.101,
            stability: 10.0,
            seed: 0x5EED,
        }
    }
}

impl Spsa {
    /// Minimizes `f` starting from `x0`.
    ///
    /// # Panics
    ///
    /// Panics if `x0` is empty.
    pub fn minimize<F: FnMut(&[f64]) -> f64>(&self, f: F, x0: &[f64]) -> OptimizeResult {
        self.minimize_obj(f, x0)
    }

    /// Like [`Spsa::minimize`], but for any [`Objective`]. Each
    /// iteration's ± perturbation pair is a group of two independent
    /// evaluations, so it goes through [`Objective::eval_batch`]; the
    /// post-step probe depends on the pair and stays sequential.
    ///
    /// # Panics
    ///
    /// Panics if `x0` is empty.
    pub fn minimize_obj<O: Objective>(&self, mut f: O, x0: &[f64]) -> OptimizeResult {
        assert!(!x0.is_empty(), "need at least one parameter");
        let n = x0.len();
        let mut rng = choco_mathkit::SplitMix64::new(self.seed);
        let mut x = x0.to_vec();
        let mut best_params = x.clone();
        let mut best_value = f.eval(&x);
        let mut evaluations = 1usize;
        let mut history = Vec::with_capacity(self.max_iters);
        let mut pair_values = Vec::with_capacity(2);

        for k in 0..self.max_iters {
            let ak = self.a / (k as f64 + 1.0 + self.stability).powf(self.alpha);
            let ck = self.c / (k as f64 + 1.0).powf(self.gamma);
            let delta: Vec<f64> = (0..n)
                .map(|_| if rng.gen_bool(0.5) { 1.0 } else { -1.0 })
                .collect();
            let plus: Vec<f64> = x.iter().zip(&delta).map(|(xi, d)| xi + ck * d).collect();
            let minus: Vec<f64> = x.iter().zip(&delta).map(|(xi, d)| xi - ck * d).collect();
            let pair = [plus, minus];
            f.eval_batch(&pair, &mut pair_values);
            assert_eq!(pair_values.len(), 2, "objective returned a short batch");
            let (fp, fm) = (pair_values[0], pair_values[1]);
            evaluations += 2;
            for (xi, d) in x.iter_mut().zip(&delta) {
                *xi -= ak * (fp - fm) / (2.0 * ck * d);
            }
            let fx = f.eval(&x);
            evaluations += 1;
            if fx < best_value {
                best_value = fx;
                best_params = x.clone();
            }
            history.push(best_value);
        }

        OptimizeResult {
            best_params,
            best_value,
            history,
            evaluations,
            iterations: self.max_iters,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sphere(x: &[f64]) -> f64 {
        x.iter().map(|v| v * v).sum()
    }

    fn rosenbrock(x: &[f64]) -> f64 {
        (1.0 - x[0]).powi(2) + 100.0 * (x[1] - x[0] * x[0]).powi(2)
    }

    #[test]
    fn nelder_mead_minimizes_sphere() {
        let r = NelderMead::default().minimize(sphere, &[2.0, -1.5, 0.7]);
        assert!(r.best_value < 1e-6, "value = {}", r.best_value);
        for p in &r.best_params {
            assert!(p.abs() < 1e-2);
        }
    }

    #[test]
    fn nelder_mead_handles_rosenbrock() {
        let nm = NelderMead {
            max_iters: 2000,
            ..NelderMead::default()
        };
        let r = nm.minimize(rosenbrock, &[-1.0, 1.0]);
        assert!(r.best_value < 1e-4, "value = {}", r.best_value);
        assert!((r.best_params[0] - 1.0).abs() < 0.05);
    }

    #[test]
    fn nelder_mead_history_is_monotone_nonincreasing() {
        let r = NelderMead::default().minimize(sphere, &[3.0, 3.0]);
        for w in r.history.windows(2) {
            assert!(w[1] <= w[0] + 1e-12);
        }
        assert_eq!(r.history.len(), r.iterations);
    }

    #[test]
    fn nelder_mead_history_ends_at_the_best_value() {
        // Regression: the best-so-far used to be recorded at the *top* of
        // each cycle, so an improvement found in the final iteration
        // never landed in the history and convergence plots under-reported
        // the final point. Early iterations of the sphere improve every
        // cycle, so any small budget exposes the off-by-one.
        for max_iters in [1usize, 2, 3, 7, 50] {
            let nm = NelderMead {
                max_iters,
                ..NelderMead::default()
            };
            let r = nm.minimize(sphere, &[2.0, -1.5, 0.7]);
            assert_eq!(
                r.history.last(),
                Some(&r.best_value),
                "max_iters={max_iters}: history {:?} vs best {}",
                r.history,
                r.best_value
            );
        }
    }

    #[test]
    fn cobyla_minimizes_sphere() {
        let r = Cobyla::default().minimize(sphere, &[2.0, -1.5, 0.7]);
        assert!(r.best_value < 1e-6, "value = {}", r.best_value);
        for p in &r.best_params {
            assert!(p.abs() < 1e-2);
        }
    }

    #[test]
    fn cobyla_handles_rosenbrock() {
        // A linear-model trust region zig-zags through the curved valley
        // (COBYLA's known weakness), but it must still converge to the
        // optimum given budget.
        let c = Cobyla {
            max_iters: 5000,
            ..Cobyla::default()
        };
        let r = c.minimize(rosenbrock, &[-1.0, 1.0]);
        assert!(r.best_value < 1e-2, "value = {}", r.best_value);
        assert!((r.best_params[0] - 1.0).abs() < 0.1);
    }

    #[test]
    fn cobyla_is_deterministic() {
        // No random draws anywhere in the method.
        let a = Cobyla::default().minimize(sphere, &[1.0, 2.0]);
        let b = Cobyla::default().minimize(sphere, &[1.0, 2.0]);
        assert_eq!(a.best_params, b.best_params);
        assert_eq!(a.history, b.history);
        assert_eq!(a.evaluations, b.evaluations);
    }

    #[test]
    fn cobyla_history_is_best_so_far_and_ends_at_best() {
        for max_iters in [1usize, 2, 5, 40] {
            let c = Cobyla {
                max_iters,
                ..Cobyla::default()
            };
            let r = c.minimize(sphere, &[3.0, -2.0]);
            for w in r.history.windows(2) {
                assert!(w[1] <= w[0] + 1e-12);
            }
            assert_eq!(r.history.len(), r.iterations);
            assert_eq!(r.history.last(), Some(&r.best_value));
        }
    }

    #[test]
    fn cobyla_respects_max_iters_and_counts_evaluations() {
        let mut calls = 0usize;
        let r = Cobyla {
            max_iters: 10,
            ..Cobyla::default()
        }
        .minimize(
            |x| {
                calls += 1;
                sphere(x)
            },
            &[1.0, 1.0],
        );
        assert!(r.iterations <= 10);
        assert_eq!(calls, r.evaluations);
    }

    #[test]
    fn cobyla_terminates_when_rho_collapses() {
        let c = Cobyla {
            max_iters: 100_000,
            rho_beg: 0.1,
            rho_end: 1e-3,
        };
        let r = c.minimize(sphere, &[0.2, 0.2]);
        assert!(r.iterations < 1000, "ρ floor must stop the run early");
    }

    #[test]
    fn cobyla_single_parameter() {
        let r = Cobyla::default().minimize(|x| (x[0] - 1.5).powi(2), &[0.0]);
        assert!((r.best_params[0] - 1.5).abs() < 1e-3);
    }

    #[test]
    fn solve_linear_recovers_gradients_and_rejects_singular() {
        // f(x) = 3x₀ − 2x₁ interpolated exactly.
        let rows = vec![vec![0.5, 0.0], vec![0.0, 0.5]];
        let rhs = vec![1.5, -1.0];
        let g = solve_linear(rows, rhs).expect("full rank");
        assert!((g[0] - 3.0).abs() < 1e-12 && (g[1] + 2.0).abs() < 1e-12);
        // Tiny edges must still solve (row scaling).
        let g = solve_linear(vec![vec![1e-8, 0.0], vec![0.0, 1e-8]], vec![3e-8, -2e-8])
            .expect("scaled full rank");
        assert!((g[0] - 3.0).abs() < 1e-6 && (g[1] + 2.0).abs() < 1e-6);
        // Rank-deficient: two parallel edges.
        assert!(solve_linear(vec![vec![1.0, 1.0], vec![2.0, 2.0]], vec![1.0, 2.0]).is_none());
        assert!(solve_linear(vec![vec![0.0, 0.0], vec![1.0, 0.0]], vec![0.0, 1.0]).is_none());
    }

    #[test]
    fn nelder_mead_respects_max_iters() {
        let nm = NelderMead {
            max_iters: 5,
            ..NelderMead::default()
        };
        let r = nm.minimize(sphere, &[1.0, 1.0]);
        assert!(r.iterations <= 5);
    }

    #[test]
    fn nelder_mead_terminates_early_at_optimum() {
        let nm = NelderMead {
            max_iters: 10_000,
            initial_step: 1e-9,
            ..NelderMead::default()
        };
        let r = nm.minimize(sphere, &[0.0, 0.0]);
        assert!(
            r.iterations < 100,
            "should stop early, took {}",
            r.iterations
        );
    }

    #[test]
    fn spsa_minimizes_sphere() {
        let spsa = Spsa {
            max_iters: 400,
            ..Spsa::default()
        };
        let r = spsa.minimize(sphere, &[1.0, -1.0]);
        assert!(r.best_value < 0.05, "value = {}", r.best_value);
    }

    #[test]
    fn spsa_is_deterministic_for_fixed_seed() {
        let spsa = Spsa::default();
        let a = spsa.minimize(sphere, &[1.0, 2.0]);
        let b = spsa.minimize(sphere, &[1.0, 2.0]);
        assert_eq!(a.best_params, b.best_params);
    }

    #[test]
    fn spsa_history_is_best_so_far() {
        let r = Spsa::default().minimize(sphere, &[2.0]);
        for w in r.history.windows(2) {
            assert!(w[1] <= w[0] + 1e-12);
        }
    }

    #[test]
    fn kind_dispatch_runs_all() {
        for kind in OptimizerKind::ALL {
            let r = kind.minimize(100, sphere, &[1.0, 1.0]);
            assert!(r.best_value < sphere(&[1.0, 1.0]), "{kind}");
            assert!(r.evaluations > 0, "{kind}");
        }
        assert_eq!(OptimizerKind::default(), OptimizerKind::Cobyla);
    }

    #[test]
    fn kind_display_parse_round_trips() {
        for kind in OptimizerKind::ALL {
            assert_eq!(OptimizerKind::parse(&format!("{kind}")), Ok(kind));
            // Case-insensitive, matching the engine key's behavior.
            assert_eq!(
                OptimizerKind::parse(&format!("{kind}").to_uppercase()),
                Ok(kind)
            );
        }
        assert_eq!(
            OptimizerKind::parse("Nelder_Mead"),
            Ok(OptimizerKind::NelderMead)
        );
        let err = OptimizerKind::parse("adam").unwrap_err();
        assert!(err.contains("unknown optimizer `adam`"), "{err}");
        assert!(err.contains("cobyla|nelder-mead|spsa"), "{err}");
    }

    /// An [`Objective`] that records every batch-group size it receives
    /// while evaluating through a plain function — lets the tests prove
    /// (a) the optimizers actually route independent groups through
    /// `eval_batch`, and (b) results are identical to the closure path.
    /// The counters live behind `Rc` so a clone can be handed to
    /// `minimize_obj` by value and inspected afterwards.
    #[derive(Clone)]
    struct GroupRecorder {
        f: fn(&[f64]) -> f64,
        groups: std::rc::Rc<std::cell::RefCell<Vec<usize>>>,
        singles: std::rc::Rc<std::cell::Cell<usize>>,
    }

    impl GroupRecorder {
        fn new(f: fn(&[f64]) -> f64) -> Self {
            GroupRecorder {
                f,
                groups: Default::default(),
                singles: Default::default(),
            }
        }

        fn groups(&self) -> Vec<usize> {
            self.groups.borrow().clone()
        }
    }

    impl Objective for GroupRecorder {
        fn eval(&mut self, x: &[f64]) -> f64 {
            self.singles.set(self.singles.get() + 1);
            (self.f)(x)
        }

        fn eval_batch(&mut self, xs: &[Vec<f64>], out: &mut Vec<f64>) {
            self.groups.borrow_mut().push(xs.len());
            out.clear();
            for x in xs {
                out.push((self.f)(x));
            }
        }
    }

    /// Sum of √|xᵢ|: the cusp at the origin defeats reflections and
    /// contractions, forcing Nelder–Mead into shrink steps.
    fn spiky(x: &[f64]) -> f64 {
        x.iter().map(|v| v.abs().sqrt()).sum()
    }

    #[test]
    fn nelder_mead_batches_simplex_and_shrinks_identically() {
        let nm = NelderMead {
            max_iters: 60,
            ..NelderMead::default()
        };
        let serial = nm.minimize(spiky, &[-1.0, 1.0]);
        let recorder = GroupRecorder::new(spiky);
        let batched = nm.minimize_obj(recorder.clone(), &[-1.0, 1.0]);
        assert_eq!(serial, batched);
        // Initial simplex (n+1 = 3) is always the first group; the cusp
        // objective also forces shrink steps (groups of n = 2).
        let groups = recorder.groups();
        assert_eq!(groups.first(), Some(&3));
        assert!(
            groups.iter().skip(1).all(|&g| g == 2),
            "shrink groups should have n points: {groups:?}"
        );
        assert!(groups.len() > 1, "expected shrink batches");
        let group_total: usize = groups.iter().sum();
        assert_eq!(group_total + recorder.singles.get(), batched.evaluations);
    }

    #[test]
    fn cobyla_batches_simplex_and_rebuilds_identically() {
        let c = Cobyla {
            max_iters: 120,
            ..Cobyla::default()
        };
        let serial = c.minimize(rosenbrock, &[-1.0, 1.0]);
        let recorder = GroupRecorder::new(rosenbrock);
        let batched = c.minimize_obj(recorder.clone(), &[-1.0, 1.0]);
        assert_eq!(serial, batched);
        let groups = recorder.groups();
        assert_eq!(groups.first(), Some(&3), "initial simplex batch");
        // Any further group is a degenerate-geometry rebuild of n points.
        assert!(
            groups.iter().skip(1).all(|&g| g == 2),
            "rebuild groups should have n points: {groups:?}"
        );
        let group_total: usize = groups.iter().sum();
        assert_eq!(group_total + recorder.singles.get(), batched.evaluations);
    }

    #[test]
    fn spsa_batches_perturbation_pairs_identically() {
        let spsa = Spsa {
            max_iters: 50,
            ..Spsa::default()
        };
        let serial = spsa.minimize(sphere, &[1.0, -1.0]);
        let recorder = GroupRecorder::new(sphere);
        let batched = spsa.minimize_obj(recorder.clone(), &[1.0, -1.0]);
        assert_eq!(serial, batched);
        let groups = recorder.groups();
        assert_eq!(groups.len(), 50, "one ± pair per iteration");
        assert!(groups.iter().all(|&g| g == 2));
        // x0 probe + per-iteration post-step probe stay sequential.
        assert_eq!(recorder.singles.get(), 51);
    }

    #[test]
    fn kind_minimize_obj_matches_closure_path() {
        for kind in OptimizerKind::ALL {
            let serial = kind.minimize(80, sphere, &[2.0, -1.0, 0.5]);
            let recorder = GroupRecorder::new(sphere);
            let batched = kind.minimize_obj(80, recorder.clone(), &[2.0, -1.0, 0.5]);
            assert_eq!(serial, batched, "{kind}");
            assert!(!recorder.groups().is_empty(), "{kind} never batched");
        }
    }

    #[test]
    fn evaluation_counter_counts() {
        let mut calls = 0usize;
        let r = NelderMead {
            max_iters: 10,
            ..NelderMead::default()
        }
        .minimize(
            |x| {
                calls += 1;
                sphere(x)
            },
            &[1.0, 1.0],
        );
        assert_eq!(calls, r.evaluations);
    }
}
