//! Exact classical solvers: the ground truth for every experiment.
//!
//! Two flavours:
//!
//! * [`solve_exact`] — enumerates the feasible set via the constraint DFS and
//!   evaluates the objective on each point. Exact and fast for the paper's
//!   problem scales; this is what "success rate" is measured against.
//! * [`BranchAndBound`] — a depth-first branch-and-bound with residual
//!   feasibility pruning and an optimistic objective bound; the classical
//!   baseline whose exponential worst case motivates the quantum approach in
//!   the first place (§II-A).

use crate::problem::{Problem, Sense};
use std::fmt;

/// The exact optimum of a problem.
#[derive(Clone, Debug, PartialEq)]
pub struct Optimum {
    /// Optimal objective value (in the problem's own sense).
    pub value: f64,
    /// Every optimal assignment (packed bits).
    pub solutions: Vec<u64>,
    /// Number of feasible assignments enumerated.
    pub n_feasible: usize,
}

impl Optimum {
    /// Is the assignment one of the optimal solutions?
    pub fn contains(&self, bits: u64) -> bool {
        self.solutions.contains(&bits)
    }
}

/// Errors from the classical solvers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClassicalError {
    /// No binary assignment satisfies the constraints.
    Infeasible,
    /// The feasible set exceeded the enumeration cap.
    TooLarge {
        /// The cap that was hit.
        cap: usize,
    },
}

impl fmt::Display for ClassicalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClassicalError::Infeasible => write!(f, "no feasible assignment exists"),
            ClassicalError::TooLarge { cap } => {
                write!(f, "feasible set exceeds the enumeration cap of {cap}")
            }
        }
    }
}

impl std::error::Error for ClassicalError {}

/// Default cap on feasible-set enumeration (2²² points).
pub const DEFAULT_ENUM_CAP: usize = 1 << 22;

/// Finds the exact optimum by enumerating the feasible set.
///
/// Two objective values within `1e-9` are treated as ties, so `solutions`
/// lists *all* optima — success rate counts a measurement as successful if
/// it hits any of them.
///
/// # Errors
///
/// [`ClassicalError::Infeasible`] when no assignment satisfies the
/// constraints; [`ClassicalError::TooLarge`] when the feasible set exceeds
/// `cap`.
pub fn solve_exact_capped(problem: &Problem, cap: usize) -> Result<Optimum, ClassicalError> {
    let feasible = problem.feasible_solutions(cap);
    if feasible.is_empty() {
        return Err(ClassicalError::Infeasible);
    }
    if feasible.len() >= cap {
        return Err(ClassicalError::TooLarge { cap });
    }
    let better = |a: f64, b: f64| match problem.sense() {
        Sense::Minimize => a < b - 1e-9,
        Sense::Maximize => a > b + 1e-9,
    };
    let mut best = problem.evaluate(feasible[0]);
    let mut solutions = vec![feasible[0]];
    for &bits in &feasible[1..] {
        let v = problem.evaluate(bits);
        if better(v, best) {
            best = v;
            solutions.clear();
            solutions.push(bits);
        } else if (v - best).abs() <= 1e-9 {
            solutions.push(bits);
        }
    }
    Ok(Optimum {
        value: best,
        solutions,
        n_feasible: feasible.len(),
    })
}

/// [`solve_exact_capped`] with the default cap.
pub fn solve_exact(problem: &Problem) -> Result<Optimum, ClassicalError> {
    solve_exact_capped(problem, DEFAULT_ENUM_CAP)
}

/// Statistics from a branch-and-bound run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BnbStats {
    /// Search-tree nodes expanded.
    pub nodes: u64,
    /// Nodes cut by the objective bound.
    pub bound_prunes: u64,
    /// Nodes cut by constraint-residual infeasibility.
    pub feasibility_prunes: u64,
}

/// Depth-first branch-and-bound over the binary variables.
///
/// Pruning: (1) per-equation residual intervals (as in the feasibility DFS),
/// and (2) an optimistic completion bound on the objective — each unassigned
/// linear term contributes its favourable extreme, each quadratic term with
/// any unassigned endpoint likewise.
#[derive(Clone, Debug, Default)]
pub struct BranchAndBound {
    stats: BnbStats,
}

impl BranchAndBound {
    /// Creates a solver.
    pub fn new() -> Self {
        BranchAndBound::default()
    }

    /// Statistics of the last [`BranchAndBound::solve`] call.
    pub fn stats(&self) -> BnbStats {
        self.stats
    }

    /// Finds one optimal assignment and its value.
    ///
    /// # Errors
    ///
    /// [`ClassicalError::Infeasible`] when the constraints admit no binary
    /// assignment.
    pub fn solve(&mut self, problem: &Problem) -> Result<(u64, f64), ClassicalError> {
        self.stats = BnbStats::default();
        let n = problem.n_vars();
        let m = problem.constraints().len();
        let coeff = problem.constraints().dense_matrix();
        let rhs: Vec<i64> = problem.constraints().eqs().iter().map(|e| e.rhs).collect();

        // Residual interval bounds per suffix (as in LinSystem's DFS).
        let mut suf_min = vec![vec![0i64; m]; n + 1];
        let mut suf_max = vec![vec![0i64; m]; n + 1];
        for i in (0..n).rev() {
            for e in 0..m {
                let c = coeff[e][i];
                suf_min[i][e] = suf_min[i + 1][e] + c.min(0);
                suf_max[i][e] = suf_max[i + 1][e] + c.max(0);
            }
        }

        // Optimistic completion bounds for the minimization-form cost:
        // every term whose variables are not all assigned contributes
        // min(0, w).
        let cost = problem.cost_poly();
        let mut opt_linear = vec![0.0f64; n + 1];
        for i in (0..n).rev() {
            opt_linear[i] = opt_linear[i + 1] + cost.linear()[i].min(0.0);
        }
        // Quadratic terms keyed by their *larger* variable: once both ends
        // are assigned the true value is added; before that the optimistic
        // extreme is part of the bound.
        let mut quad_bound_by_hi = vec![0.0f64; n + 1];
        for &(_, j, w) in cost.quadratic() {
            quad_bound_by_hi[j] += w.min(0.0);
        }
        let mut opt_quad = vec![0.0f64; n + 1];
        for i in (0..n).rev() {
            opt_quad[i] = opt_quad[i + 1] + quad_bound_by_hi[i];
        }

        struct Ctx<'a> {
            n: usize,
            m: usize,
            /// The full system: leaves must satisfy its `<=` rows too
            /// (the residual intervals only track equations).
            rows: &'a choco_mathkit::LinSystem,
            coeff: &'a [Vec<i64>],
            suf_min: &'a [Vec<i64>],
            suf_max: &'a [Vec<i64>],
            cost: &'a choco_qsim::PhasePoly,
            opt_linear: &'a [f64],
            opt_quad: &'a [f64],
            best_cost: f64,
            best_bits: Option<u64>,
            stats: BnbStats,
        }

        fn dfs(ctx: &mut Ctx<'_>, i: usize, bits: u64, partial_cost: f64, residual: &mut [i64]) {
            ctx.stats.nodes += 1;
            if i == ctx.n {
                if residual.iter().all(|&r| r == 0)
                    && partial_cost < ctx.best_cost - 1e-12
                    && ctx.rows.is_satisfied_bits(bits)
                {
                    ctx.best_cost = partial_cost;
                    ctx.best_bits = Some(bits);
                }
                return;
            }
            for (e, &res) in residual.iter().enumerate().take(ctx.m) {
                if res < ctx.suf_min[i][e] || res > ctx.suf_max[i][e] {
                    ctx.stats.feasibility_prunes += 1;
                    return;
                }
            }
            let bound = partial_cost + ctx.opt_linear[i] + ctx.opt_quad[i];
            if bound >= ctx.best_cost - 1e-12 {
                ctx.stats.bound_prunes += 1;
                return;
            }
            for val in [0u64, 1] {
                let mut delta = 0.0;
                if val == 1 {
                    delta += ctx.cost.linear()[i];
                    for &(a, b, w) in ctx.cost.quadratic() {
                        if b == i && (bits >> a) & 1 == 1 {
                            delta += w;
                        }
                    }
                    for (e, res) in residual.iter_mut().enumerate().take(ctx.m) {
                        *res -= ctx.coeff[e][i];
                    }
                }
                dfs(
                    ctx,
                    i + 1,
                    bits | (val << i),
                    partial_cost + delta,
                    residual,
                );
                if val == 1 {
                    for (e, res) in residual.iter_mut().enumerate().take(ctx.m) {
                        *res += ctx.coeff[e][i];
                    }
                }
            }
        }

        let mut residual = rhs;
        let mut ctx = Ctx {
            n,
            m,
            rows: problem.constraints(),
            coeff: &coeff,
            suf_min: &suf_min,
            suf_max: &suf_max,
            cost: &cost,
            opt_linear: &opt_linear,
            opt_quad: &opt_quad,
            best_cost: f64::INFINITY,
            best_bits: None,
            stats: BnbStats::default(),
        };
        dfs(&mut ctx, 0, 0, cost.constant(), &mut residual);
        self.stats = ctx.stats;
        match ctx.best_bits {
            Some(bits) => Ok((bits, problem.evaluate(bits))),
            None => Err(ClassicalError::Infeasible),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::Problem;

    fn paper_problem() -> Problem {
        Problem::builder(4)
            .maximize()
            .linear(0, 1.0)
            .linear(1, 2.0)
            .linear(2, 3.0)
            .linear(3, 1.0)
            .equality([(0, 1), (2, -1)], 0)
            .equality([(0, 1), (1, 1), (3, 1)], 1)
            .build()
            .unwrap()
    }

    #[test]
    fn exact_optimum_of_paper_example() {
        let opt = solve_exact(&paper_problem()).expect("solvable");
        // The paper: optimum is x = {1,0,1,0} with value 4.
        assert_eq!(opt.value, 4.0);
        assert_eq!(opt.solutions, vec![0b0101]);
        assert!(opt.contains(0b0101));
    }

    #[test]
    fn exact_detects_infeasible() {
        let p = Problem::builder(2)
            .equality([(0, 1), (1, 1)], 5)
            .build()
            .unwrap();
        assert_eq!(solve_exact(&p).unwrap_err(), ClassicalError::Infeasible);
    }

    #[test]
    fn exact_respects_cap() {
        let p = Problem::builder(10).linear(0, 1.0).build().unwrap();
        let err = solve_exact_capped(&p, 100).unwrap_err();
        assert_eq!(err, ClassicalError::TooLarge { cap: 100 });
    }

    #[test]
    fn exact_collects_ties() {
        // min x0 + x1 s.t. x0 + x1 = 1: two optimal solutions of value 1.
        let p = Problem::builder(2)
            .linear(0, 1.0)
            .linear(1, 1.0)
            .equality([(0, 1), (1, 1)], 1)
            .build()
            .unwrap();
        let opt = solve_exact(&p).unwrap();
        assert_eq!(opt.value, 1.0);
        assert_eq!(opt.solutions.len(), 2);
    }

    #[test]
    fn bnb_matches_exhaustive_linear() {
        let p = paper_problem();
        let mut bnb = BranchAndBound::new();
        let (bits, value) = bnb.solve(&p).unwrap();
        assert_eq!(value, 4.0);
        assert_eq!(bits, 0b0101);
        assert!(bnb.stats().nodes > 0);
    }

    #[test]
    fn bnb_matches_exhaustive_quadratic() {
        // min 3x0 − 2x0x1 − x1x2 + x2 s.t. x0 + x1 + x2 = 2
        let p = Problem::builder(3)
            .linear(0, 3.0)
            .quadratic(0, 1, -2.0)
            .quadratic(1, 2, -1.0)
            .linear(2, 1.0)
            .equality([(0, 1), (1, 1), (2, 1)], 2)
            .build()
            .unwrap();
        let exact = solve_exact(&p).unwrap();
        let (bits, value) = BranchAndBound::new().solve(&p).unwrap();
        assert!((value - exact.value).abs() < 1e-9);
        assert!(exact.contains(bits));
    }

    #[test]
    fn bnb_infeasible() {
        let p = Problem::builder(2).equality([(0, 1)], 3).build().unwrap();
        assert_eq!(
            BranchAndBound::new().solve(&p).unwrap_err(),
            ClassicalError::Infeasible
        );
    }

    #[test]
    fn bnb_respects_less_equal_rows() {
        // Maximize a + b + c under a + b + c <= 1: with the `<=` row
        // ignored the search would return all three items.
        let p = Problem::builder(3)
            .maximize()
            .linear(0, 1.0)
            .linear(1, 2.0)
            .linear(2, 3.0)
            .less_equal([(0, 1), (1, 1), (2, 1)], 1)
            .build()
            .unwrap();
        let (bits, value) = BranchAndBound::new().solve(&p).unwrap();
        assert_eq!((bits, value), (0b100, 3.0));
        assert!(p.constraints().is_satisfied_bits(bits));
        assert_eq!(value, solve_exact(&p).unwrap().value);
    }

    #[test]
    fn bnb_prunes_something_on_structured_instance() {
        // A wider instance where bounding matters.
        let mut b = Problem::builder(12).minimize();
        for i in 0..12 {
            b = b.linear(i, (i as f64) - 6.0);
        }
        let p = b
            .equality([(0, 1), (1, 1), (2, 1), (3, 1)], 2)
            .equality([(4, 1), (5, 1), (6, 1), (7, 1)], 2)
            .build()
            .unwrap();
        let exact = solve_exact(&p).unwrap();
        let mut bnb = BranchAndBound::new();
        let (_, value) = bnb.solve(&p).unwrap();
        assert!((value - exact.value).abs() < 1e-9);
        assert!(bnb.stats().bound_prunes + bnb.stats().feasibility_prunes > 0);
    }

    #[test]
    fn bnb_random_instances_agree_with_exhaustive() {
        let mut rng = choco_mathkit::SplitMix64::new(2024);
        for trial in 0..20 {
            let n = 6 + (trial % 3);
            let mut b = Problem::builder(n);
            if trial % 2 == 0 {
                b = b.maximize();
            }
            for i in 0..n {
                b = b.linear(i, rng.gen_range_f64(-5.0, 5.0));
            }
            for _ in 0..n / 2 {
                let i = rng.gen_range(0, n as u64) as usize;
                let j = rng.gen_range(0, n as u64) as usize;
                if i != j {
                    b = b.quadratic(i, j, rng.gen_range_f64(-3.0, 3.0));
                }
            }
            let k = rng.gen_range(1, n as u64 - 1) as i64;
            let p = b.equality((0..n).map(|i| (i, 1i64)), k).build().unwrap();
            let exact = solve_exact(&p).unwrap();
            let (bits, value) = BranchAndBound::new().solve(&p).unwrap();
            assert!(
                (value - exact.value).abs() < 1e-6,
                "trial {trial}: bnb {value} vs exact {}",
                exact.value
            );
            assert!(p.is_feasible(bits));
        }
    }
}
