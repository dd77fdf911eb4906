//! Phase polynomials: diagonal Hamiltonians as pseudo-Boolean functions.
//!
//! Every Hamiltonian built from `I` and `σ_z` operators is diagonal in the
//! computational basis, and its diagonal is a quadratic pseudo-Boolean
//! function of the bit assignment. Both the objective Hamiltonian `H_o`
//! (after `x_j → (I - Z_j)/2`) and penalty Hamiltonians have this form, so
//! the simulator can evolve `e^{-iγ H_o}` *exactly* by multiplying each
//! amplitude with `e^{-iγ f(x)}` — no gate decomposition, no Trotter error.

use std::fmt;

/// A quadratic pseudo-Boolean function
/// `f(x) = constant + Σ linear_i·x_i + Σ quad_{ij}·x_i·x_j`.
///
/// # Examples
///
/// ```
/// use choco_qsim::PhasePoly;
///
/// let mut f = PhasePoly::new(3);
/// f.add_linear(0, 2.0);
/// f.add_quadratic(0, 2, -1.5);
/// assert_eq!(f.eval_bits(0b101), 2.0 - 1.5);
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PhasePoly {
    n_vars: usize,
    constant: f64,
    linear: Vec<f64>,
    /// `(i, j, w)` with `i < j`; each unordered pair appears at most once.
    quadratic: Vec<(usize, usize, f64)>,
}

impl PhasePoly {
    /// The zero function over `n_vars` variables.
    pub fn new(n_vars: usize) -> Self {
        PhasePoly {
            n_vars,
            constant: 0.0,
            linear: vec![0.0; n_vars],
            quadratic: Vec::new(),
        }
    }

    /// Number of variables.
    #[inline]
    pub fn n_vars(&self) -> usize {
        self.n_vars
    }

    /// The constant term.
    #[inline]
    pub fn constant(&self) -> f64 {
        self.constant
    }

    /// The linear coefficients.
    #[inline]
    pub fn linear(&self) -> &[f64] {
        &self.linear
    }

    /// The quadratic terms `(i, j, w)` with `i < j`.
    #[inline]
    pub fn quadratic(&self) -> &[(usize, usize, f64)] {
        &self.quadratic
    }

    /// Adds to the constant term.
    pub fn add_constant(&mut self, w: f64) {
        self.constant += w;
    }

    /// Adds `w·x_i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= n_vars`.
    pub fn add_linear(&mut self, i: usize, w: f64) {
        assert!(i < self.n_vars, "variable x{i} out of range");
        self.linear[i] += w;
    }

    /// Adds `w·x_i·x_j`. For `i == j` this is `w·x_i` (booleans are
    /// idempotent).
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn add_quadratic(&mut self, i: usize, j: usize, w: f64) {
        assert!(i < self.n_vars && j < self.n_vars, "variable out of range");
        if w == 0.0 {
            return;
        }
        if i == j {
            self.linear[i] += w;
            return;
        }
        let (a, b) = if i < j { (i, j) } else { (j, i) };
        if let Some(entry) = self
            .quadratic
            .iter_mut()
            .find(|&&mut (x, y, _)| x == a && y == b)
        {
            entry.2 += w;
        } else {
            self.quadratic.push((a, b, w));
        }
    }

    /// Adds `scale · g` term-wise.
    ///
    /// # Panics
    ///
    /// Panics if the variable counts differ.
    pub fn add_scaled(&mut self, g: &PhasePoly, scale: f64) {
        assert_eq!(self.n_vars, g.n_vars, "variable count mismatch");
        self.constant += scale * g.constant;
        for (a, b) in self.linear.iter_mut().zip(g.linear.iter()) {
            *a += scale * b;
        }
        for &(i, j, w) in &g.quadratic {
            self.add_quadratic(i, j, scale * w);
        }
    }

    /// Materializes the per-basis diagonal `[f(0), f(1), …, f(dim-1)]` by
    /// strided term-wise accumulation — `O(dim·(1 + terms/2))` simple adds
    /// instead of `dim` branchy [`PhasePoly::eval_bits`] calls.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is not a power of two.
    pub fn values_table(&self, dim: usize) -> Vec<f64> {
        let mut values = vec![0.0f64; dim];
        crate::kernels::accumulate_poly_diag(&mut values, self);
        values
    }

    /// Evaluates `f` on a packed bit assignment (`x_i = (bits >> i) & 1`).
    pub fn eval_bits(&self, bits: u64) -> f64 {
        let mut acc = self.constant;
        for (i, &w) in self.linear.iter().enumerate() {
            if w != 0.0 && (bits >> i) & 1 == 1 {
                acc += w;
            }
        }
        for &(i, j, w) in &self.quadratic {
            if (bits >> i) & 1 == 1 && (bits >> j) & 1 == 1 {
                acc += w;
            }
        }
        acc
    }

    /// The variables with any non-zero coefficient (sorted).
    pub fn support(&self) -> Vec<usize> {
        let mut support = Vec::new();
        self.for_each_support(|i| support.push(i));
        support
    }

    /// Calls `f` on every variable of [`PhasePoly::support`], in order;
    /// allocation-free up to 64 variables.
    pub(crate) fn for_each_support(&self, mut f: impl FnMut(usize)) {
        if self.n_vars > 64 {
            let mut used = vec![false; self.n_vars];
            self.mark_support(|i| used[i] = true);
            (0..self.n_vars).filter(|&i| used[i]).for_each(f);
            return;
        }
        let mut used = 0u64;
        self.mark_support(|i| used |= 1 << i);
        while used != 0 {
            f(used.trailing_zeros() as usize);
            used &= used - 1;
        }
    }

    /// Calls `mark` on each variable of a non-zero term, repeats included.
    fn mark_support(&self, mut mark: impl FnMut(usize)) {
        for (i, &w) in self.linear.iter().enumerate() {
            if w != 0.0 {
                mark(i);
            }
        }
        for &(i, j, w) in &self.quadratic {
            if w != 0.0 {
                mark(i);
                mark(j);
            }
        }
    }

    /// Number of non-zero linear + quadratic terms.
    pub fn term_count(&self) -> usize {
        self.linear.iter().filter(|&&w| w != 0.0).count()
            + self.quadratic.iter().filter(|&&(_, _, w)| w != 0.0).count()
    }

    /// Largest absolute coefficient (useful for parameter scaling).
    pub fn max_abs_coeff(&self) -> f64 {
        let lin = self.linear.iter().map(|w| w.abs()).fold(0.0, f64::max);
        let quad = self
            .quadratic
            .iter()
            .map(|&(_, _, w)| w.abs())
            .fold(0.0, f64::max);
        lin.max(quad).max(self.constant.abs())
    }
}

impl fmt::Display for PhasePoly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.4}", self.constant)?;
        for (i, &w) in self.linear.iter().enumerate() {
            if w != 0.0 {
                write!(
                    f,
                    " {} {:.4}·x{}",
                    if w < 0.0 { "-" } else { "+" },
                    w.abs(),
                    i
                )?;
            }
        }
        for &(i, j, w) in &self.quadratic {
            if w != 0.0 {
                write!(
                    f,
                    " {} {:.4}·x{}x{}",
                    if w < 0.0 { "-" } else { "+" },
                    w.abs(),
                    i,
                    j
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_constant_only() {
        let mut f = PhasePoly::new(2);
        f.add_constant(3.5);
        assert_eq!(f.eval_bits(0), 3.5);
        assert_eq!(f.eval_bits(0b11), 3.5);
    }

    #[test]
    fn eval_linear_and_quadratic() {
        let mut f = PhasePoly::new(4);
        f.add_linear(1, 2.0);
        f.add_linear(3, -1.0);
        f.add_quadratic(0, 3, 4.0);
        assert_eq!(f.eval_bits(0b0010), 2.0);
        assert_eq!(f.eval_bits(0b1001), -1.0 + 4.0);
        assert_eq!(f.eval_bits(0b1010), 2.0 - 1.0);
    }

    #[test]
    fn quadratic_merges_and_orders() {
        let mut f = PhasePoly::new(3);
        f.add_quadratic(2, 0, 1.0);
        f.add_quadratic(0, 2, 2.0);
        assert_eq!(f.quadratic(), &[(0, 2, 3.0)]);
    }

    #[test]
    fn diagonal_square_term_folds_to_linear() {
        let mut f = PhasePoly::new(2);
        f.add_quadratic(1, 1, 5.0);
        assert_eq!(f.linear()[1], 5.0);
        assert!(f.quadratic().is_empty());
    }

    #[test]
    fn add_scaled_combines() {
        let mut f = PhasePoly::new(2);
        f.add_linear(0, 1.0);
        let mut g = PhasePoly::new(2);
        g.add_linear(0, 2.0);
        g.add_quadratic(0, 1, 1.0);
        g.add_constant(4.0);
        f.add_scaled(&g, 0.5);
        assert_eq!(f.eval_bits(0b11), 1.0 + 1.0 + 0.5 + 2.0);
    }

    #[test]
    fn support_and_term_count() {
        let mut f = PhasePoly::new(5);
        f.add_linear(1, 1.0);
        f.add_quadratic(2, 4, -1.0);
        assert_eq!(f.support(), vec![1, 2, 4]);
        assert_eq!(f.term_count(), 2);
    }

    #[test]
    fn values_table_matches_eval_bits() {
        let mut f = PhasePoly::new(4);
        f.add_constant(0.25);
        f.add_linear(1, 2.0);
        f.add_linear(3, -1.0);
        f.add_quadratic(0, 2, 4.0);
        let table = f.values_table(16);
        for (bits, &v) in table.iter().enumerate() {
            assert_eq!(v, f.eval_bits(bits as u64), "bits={bits}");
        }
    }

    #[test]
    fn max_abs_coeff() {
        let mut f = PhasePoly::new(2);
        f.add_constant(-9.0);
        f.add_linear(0, 3.0);
        assert_eq!(f.max_abs_coeff(), 9.0);
    }
}
