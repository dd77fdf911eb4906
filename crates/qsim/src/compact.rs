//! The rank-indexed compact engine's state representation.
//!
//! Choco-Q states never leave the feasible subspace, so the compact
//! engine stores a dense `Vec<Complex64>` of length `|F|`, indexed by the
//! *rank* of each feasible basis state in the sorted feasible basis `F`
//! that the gate-plan compiler enumerated at compile time. All per-gate work happens
//! through the plan's precomputed rank tables; this type only owns the
//! amplitude array and implements the solver-facing read operations
//! (amplitudes, expectations, sampling, support counting).
//!
//! Structural slots that are numerically zero hold exact complex zeros.
//! Every read operation either skips them (summing the non-zero entries
//! in basis order) or lets them contribute exact IEEE zeros (the
//! cumulative sampling table), which keeps amplitudes and sample streams
//! bit-identical to the dense engine.

use crate::counts::Counts;
use crate::phasepoly::PhasePoly;
use crate::simconfig::SimConfig;
use choco_mathkit::Complex64;
use rand::Rng;
use std::sync::Arc;

/// A pure quantum state over the feasible basis `F`, stored as one dense
/// amplitude per feasible-state rank.
///
/// Built and driven by [`crate::SimWorkspace`] when
/// [`crate::EngineKind::Compact`] is selected; the basis is shared
/// (`Arc`) with the compiled gate plan that produced it.
#[derive(Clone, Debug)]
pub struct CompactStateVector {
    n_qubits: usize,
    /// The sorted feasible basis `F`: `basis[rank]` is the basis-state
    /// bit pattern of `amps[rank]`. `basis[0] == 0` always (compilation
    /// starts from `|0…0⟩`).
    basis: Arc<Vec<u64>>,
    amps: Vec<Complex64>,
    config: SimConfig,
}

impl CompactStateVector {
    /// The state `|0…0⟩` over the given feasible basis.
    ///
    /// # Panics
    ///
    /// Panics if the basis does not start with the all-zeros state (every
    /// plan's basis does — compilation starts there).
    pub(crate) fn new(n_qubits: usize, basis: Arc<Vec<u64>>, config: SimConfig) -> Self {
        assert_eq!(basis.first(), Some(&0), "feasible basis must contain |0…0⟩");
        let mut amps = vec![Complex64::ZERO; basis.len()];
        amps[0] = Complex64::ONE;
        CompactStateVector {
            n_qubits,
            basis,
            amps,
            config,
        }
    }

    /// Re-targets this state at another plan's basis and resets to
    /// `|0…0⟩`, reusing the amplitude allocation (capacity permitting) —
    /// the workspace's zero-alloc-per-iteration path when one solve
    /// alternates between circuit shapes.
    pub(crate) fn reset_for_basis(&mut self, basis: &Arc<Vec<u64>>) {
        assert_eq!(basis.first(), Some(&0), "feasible basis must contain |0…0⟩");
        if !Arc::ptr_eq(&self.basis, basis) {
            self.basis = basis.clone();
        }
        self.amps.clear();
        self.amps.resize(self.basis.len(), Complex64::ZERO);
        self.amps[0] = Complex64::ONE;
    }

    /// Resets to `|0…0⟩` in place.
    pub fn reset_zero(&mut self) {
        self.amps.fill(Complex64::ZERO);
        self.amps[0] = Complex64::ONE;
    }

    /// The execution configuration.
    #[inline]
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Number of qubits.
    #[inline]
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// The sorted feasible basis this state is ranked over.
    #[inline]
    pub fn basis(&self) -> &[u64] {
        &self.basis
    }

    /// Mutable amplitude array for plan replay (rank-indexed).
    #[inline]
    pub(crate) fn amps_mut(&mut self) -> &mut [Complex64] {
        &mut self.amps
    }

    /// Number of exactly non-zero amplitudes. Equals the dense engine's
    /// occupancy (amplitudes are bit-identical across engines).
    pub fn occupancy(&self) -> usize {
        self.amps
            .iter()
            .filter(|a| a.re != 0.0 || a.im != 0.0)
            .count()
    }

    /// The non-zero entries `(basis index, amplitude)` in basis order —
    /// exactly the dense state's non-zero amplitudes for the same circuit.
    pub fn entries(&self) -> Vec<(u64, Complex64)> {
        self.basis
            .iter()
            .zip(self.amps.iter())
            .filter(|(_, a)| a.re != 0.0 || a.im != 0.0)
            .map(|(&bits, &a)| (bits, a))
            .collect()
    }

    /// The amplitude of basis state `bits` (zero off the feasible basis).
    pub fn amplitude(&self, bits: u64) -> Complex64 {
        match self.basis.binary_search(&bits) {
            Ok(rank) => self.amps[rank],
            Err(_) => Complex64::ZERO,
        }
    }

    /// Probability of measuring the basis state `bits`.
    pub fn probability(&self, bits: u64) -> f64 {
        self.amplitude(bits).norm_sqr()
    }

    /// Number of basis states with probability above `eps` (the fig. 9(b)
    /// support metric).
    pub fn support_size(&self, eps: f64) -> usize {
        self.amps.iter().filter(|a| a.norm_sqr() > eps).count()
    }

    /// Total probability (should be 1 up to rounding), summed over the
    /// non-zero entries in basis order.
    pub fn norm_sqr(&self) -> f64 {
        self.amps
            .iter()
            .filter(|a| a.re != 0.0 || a.im != 0.0)
            .map(|a| a.norm_sqr())
            .sum()
    }

    /// Expectation of a diagonal observable given a `2^n` value table,
    /// summed over the non-zero entries in basis order.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != 2^n`.
    pub fn expectation_diag_values(&self, values: &[f64]) -> f64 {
        assert_eq!(
            values.len(),
            1usize << self.n_qubits,
            "diagonal length mismatch"
        );
        self.basis
            .iter()
            .zip(self.amps.iter())
            .filter(|(_, a)| a.re != 0.0 || a.im != 0.0)
            .map(|(&bits, a)| a.norm_sqr() * values[bits as usize])
            .sum()
    }

    /// Expectation of a diagonal observable given as a polynomial —
    /// `O(|F| · terms)`, no table required.
    pub fn expectation_diag_poly(&self, poly: &PhasePoly) -> f64 {
        self.basis
            .iter()
            .zip(self.amps.iter())
            .filter(|(_, a)| a.re != 0.0 || a.im != 0.0)
            .map(|(&bits, a)| a.norm_sqr() * poly.eval_bits(bits))
            .sum()
    }

    /// Fills `out` with the cumulative probability over all `|F|` ranks
    /// (ascending basis index). Zero slots add exact IEEE zeros, so the
    /// values at occupied slots match the dense engine's table
    /// bit-for-bit — which keeps sample streams identical.
    pub fn fill_cumulative(&self, out: &mut Vec<f64>) {
        out.clear();
        out.reserve(self.amps.len());
        let mut acc = 0.0f64;
        for a in &self.amps {
            acc += a.norm_sqr();
            out.push(acc);
        }
    }

    /// Samples `shots` outcomes using a prebuilt rank-cumulative table
    /// (see [`CompactStateVector::fill_cumulative`]). One
    /// `rng.gen::<f64>()` per shot; tie handling mirrors the dense
    /// engine's `partition_point` endpoint exactly, so a shared seed
    /// yields identical histograms across engines.
    ///
    /// # Panics
    ///
    /// Panics if the table length does not match `|F|`.
    pub fn sample_with_cumulative<R: Rng>(
        &self,
        cumulative: &[f64],
        shots: u64,
        rng: &mut R,
    ) -> Counts {
        assert_eq!(cumulative.len(), self.amps.len(), "table length mismatch");
        let total = *cumulative.last().expect("non-empty state");
        let mut counts = Counts::new();
        for _ in 0..shots {
            let r: f64 = rng.gen::<f64>() * total;
            let bits = if r == 0.0 {
                // The dense table's partition_point lands on basis index 0
                // for r = 0; mirror that endpoint exactly.
                0
            } else {
                let slot = cumulative.partition_point(|&c| c < r);
                self.basis[slot.min(self.amps.len() - 1)]
            };
            counts.record(bits);
        }
        counts
    }

    /// Samples `shots` measurement outcomes, building the cumulative
    /// table on the fly (one-off calls; [`crate::SimWorkspace::sample`]
    /// caches the table across calls).
    pub fn sample<R: Rng>(&self, shots: u64, rng: &mut R) -> Counts {
        let mut cumulative = Vec::new();
        self.fill_cumulative(&mut cumulative);
        self.sample_with_cumulative(&cumulative, shots, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::Circuit;
    use crate::gate::UBlock;
    use crate::plan::GatePlan;
    use crate::state::StateVector;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn run_compact(circuit: &Circuit) -> CompactStateVector {
        let plan = GatePlan::compile(circuit, 1 << 12).unwrap();
        let mut state = CompactStateVector::new(
            circuit.n_qubits(),
            plan.basis().clone(),
            SimConfig::serial(),
        );
        plan.execute(circuit, state.amps_mut(), &SimConfig::serial());
        state
    }

    fn confined() -> Circuit {
        let mut poly = PhasePoly::new(4);
        poly.add_linear(0, 1.2);
        poly.add_quadratic(1, 3, -0.6);
        let mut c = Circuit::new(4);
        c.load_bits(0b0011);
        c.diag(Arc::new(poly), 0.8);
        c.ublock(UBlock::from_u_with_angle(&[1, -1, 1, 0], 0.8));
        c.ublock(UBlock::from_u_with_angle(&[0, 1, -1, 1], 0.4));
        c
    }

    /// The dense state's non-zero entries in basis order.
    fn dense_entries(dense: &StateVector) -> Vec<(u64, Complex64)> {
        (0..1u64 << dense.n_qubits())
            .map(|bits| (bits, dense.amplitude(bits)))
            .filter(|(_, a)| a.re != 0.0 || a.im != 0.0)
            .collect()
    }

    #[test]
    fn reads_match_dense_bitwise() {
        let circuit = confined();
        let compact = run_compact(&circuit);
        let dense = StateVector::run(&circuit);
        for bits in 0..16u64 {
            let (a, b) = (compact.amplitude(bits), dense.amplitude(bits));
            assert!(a.re == b.re && a.im == b.im, "bits={bits}");
        }
        assert_eq!(compact.occupancy(), dense.occupancy());
        assert_eq!(compact.entries(), dense_entries(&dense));
        assert_eq!(compact.support_size(1e-9), dense.support_size(1e-9));
        assert!((compact.norm_sqr() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn expectations_equal_the_dense_nonzero_sum() {
        // The reference sum runs over the dense state's non-zero entries
        // in basis order — the compact engine's term sequence.
        let circuit = confined();
        let compact = run_compact(&circuit);
        let entries = dense_entries(&StateVector::run(&circuit));
        let mut poly = PhasePoly::new(4);
        poly.add_linear(2, -1.5);
        poly.add_quadratic(0, 1, 0.7);
        let table: Vec<f64> = (0..16u64).map(|b| poly.eval_bits(b)).collect();
        let reference = |value: &dyn Fn(u64) -> f64| -> f64 {
            entries
                .iter()
                .map(|&(bits, a)| a.norm_sqr() * value(bits))
                .sum()
        };
        assert_eq!(
            compact.expectation_diag_values(&table),
            reference(&|bits| table[bits as usize])
        );
        assert_eq!(
            compact.expectation_diag_poly(&poly),
            reference(&|bits| poly.eval_bits(bits))
        );
    }

    #[test]
    fn sample_stream_is_identical_to_dense() {
        let circuit = confined();
        let compact = run_compact(&circuit);
        let dense = StateVector::run(&circuit);
        let mut ra = StdRng::seed_from_u64(17);
        let mut rb = StdRng::seed_from_u64(17);
        assert_eq!(compact.sample(5_000, &mut ra), dense.sample(5_000, &mut rb));
    }

    #[test]
    fn reset_reuses_the_allocation() {
        let circuit = confined();
        let mut compact = run_compact(&circuit);
        let ptr = compact.amps.as_ptr();
        compact.reset_zero();
        assert_eq!(compact.amps.as_ptr(), ptr);
        assert_eq!(compact.probability(0), 1.0);
        assert_eq!(compact.occupancy(), 1);
        // Re-targeting at the same basis keeps the allocation too.
        let basis = compact.basis.clone();
        compact.reset_for_basis(&basis);
        assert_eq!(compact.amps.as_ptr(), ptr);
    }
}
