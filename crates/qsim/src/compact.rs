//! The rank-indexed compact engine's state representation.
//!
//! Choco-Q states never leave the feasible subspace, so the compact
//! engine stores one amplitude per *rank* of each feasible basis state in
//! the sorted feasible basis `F` that the gate-plan compiler enumerated
//! at compile time. A state holds K **lanes** — K same-shape circuits
//! with different angles, replayed together — in rank-major order,
//! `amps[rank·K + lane]`, so the K lanes of one rank are contiguous and
//! the plan's one executor traverses its rank tables once for all of
//! them. A serial run is one lane; a batched optimizer step
//! ([`crate::SimWorkspace::run_batch`]) is K.
//!
//! Every read operation takes the lane it reads. Structural slots that
//! are numerically zero hold exact complex zeros: reads either skip them
//! (summing the non-zero entries in basis order) or let them contribute
//! exact IEEE zeros (the cumulative sampling table), which keeps each
//! lane's amplitudes and sample streams bit-identical to a dense run of
//! that lane's circuit, at any lane count and thread count.

use crate::circuit::Circuit;
use crate::counts::Counts;
use crate::phasepoly::PhasePoly;
use crate::plan::{GatePlan, LaneScratch};
use crate::simconfig::SimConfig;
use choco_mathkit::Complex64;
use rand::Rng;
use std::sync::Arc;

/// Pure quantum states over the feasible basis `F`: `lanes()` of them,
/// each one amplitude per feasible-state rank.
///
/// Built and driven by [`crate::SimWorkspace`] when
/// [`crate::EngineKind::Compact`] is selected; the basis is shared
/// (`Arc`) with the compiled gate plan that produced it.
#[derive(Clone, Debug)]
pub struct CompactStateVector {
    n_qubits: usize,
    /// The sorted feasible basis `F`: `basis[rank]` is the basis-state
    /// bit pattern of the amplitudes at `rank`. `basis[0] == 0` always
    /// (compilation starts from `|0…0⟩`).
    basis: Arc<Vec<u64>>,
    /// Rank-major lanes: `amps[rank * lanes + lane]`.
    amps: Vec<Complex64>,
    lanes: usize,
    config: SimConfig,
    scratch: LaneScratch,
}

impl CompactStateVector {
    /// An empty state (no lanes) that replays under `config`.
    pub(crate) fn new(config: SimConfig) -> Self {
        CompactStateVector {
            n_qubits: 0,
            basis: Arc::new(Vec::new()),
            amps: Vec::new(),
            lanes: 0,
            config,
            scratch: LaneScratch::default(),
        }
    }

    /// Re-targets this state at `plan`'s basis with one lane per circuit,
    /// each `|0…0⟩`, reusing the amplitude allocation when it is large
    /// enough. Returns `true` when the buffer had to grow.
    ///
    /// # Panics
    ///
    /// Panics if there are no circuits or the basis does not start with
    /// the all-zeros state (every plan's basis does).
    pub(crate) fn reset(&mut self, plan: &GatePlan, circuits: &[Circuit]) -> bool {
        let basis = plan.basis();
        assert_eq!(basis.first(), Some(&0), "feasible basis must contain |0…0⟩");
        assert!(!circuits.is_empty(), "empty batch");
        for c in circuits {
            assert_eq!(c.len(), plan.len(), "shape mismatch");
        }
        if !Arc::ptr_eq(&self.basis, basis) {
            self.basis = basis.clone();
        }
        self.n_qubits = circuits[0].n_qubits();
        self.lanes = circuits.len();
        let needed = self.lanes * basis.len();
        let grew = self.amps.capacity() < needed;
        self.amps.clear();
        self.amps.resize(needed, Complex64::ZERO);
        self.amps[..self.lanes].fill(Complex64::ONE); // rank 0 of every lane
        grew
    }

    /// Applies step `index` of `plan` to every lane (lane `k` reads its
    /// angles from `circuits[k]`). The circuits must be the ones the
    /// state was last [`reset`](CompactStateVector::reset) for.
    pub(crate) fn apply_step(&mut self, plan: &GatePlan, index: usize, circuits: &[Circuit]) {
        plan.apply_step(
            index,
            circuits,
            &mut self.amps,
            &mut self.scratch,
            &self.config,
        );
    }

    /// Resets to one lane per circuit and replays the whole plan. Returns
    /// `true` when the amplitude buffer had to grow.
    pub(crate) fn replay(&mut self, plan: &GatePlan, circuits: &[Circuit]) -> bool {
        let grew = self.reset(plan, circuits);
        for index in 0..plan.len() {
            self.apply_step(plan, index, circuits);
        }
        grew
    }

    /// The execution configuration.
    #[inline]
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Number of lanes (K) held by the last replay; 1 for a serial run.
    #[inline]
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Number of qubits.
    #[inline]
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// The sorted feasible basis the lanes are ranked over.
    #[inline]
    pub fn basis(&self) -> &[u64] {
        &self.basis
    }

    /// One lane's amplitudes in rank order.
    ///
    /// # Panics
    ///
    /// Panics if the lane is out of range.
    fn lane(&self, lane: usize) -> impl Iterator<Item = Complex64> + '_ {
        assert!(lane < self.lanes, "lane out of range");
        self.amps.iter().skip(lane).step_by(self.lanes).copied()
    }

    /// One lane's non-zero entries `(basis index, amplitude)` in basis
    /// order.
    fn lane_nonzero(&self, lane: usize) -> impl Iterator<Item = (u64, Complex64)> + '_ {
        self.basis
            .iter()
            .copied()
            .zip(self.lane(lane))
            .filter(|(_, a)| a.re != 0.0 || a.im != 0.0)
    }

    /// Number of exactly non-zero amplitudes on one lane. Equals the
    /// dense engine's occupancy (amplitudes are bit-identical across
    /// engines).
    pub fn occupancy(&self, lane: usize) -> usize {
        self.lane_nonzero(lane).count()
    }

    /// One lane's non-zero entries `(basis index, amplitude)` in basis
    /// order — exactly the dense state's non-zero amplitudes for the same
    /// circuit.
    pub fn entries(&self, lane: usize) -> Vec<(u64, Complex64)> {
        self.lane_nonzero(lane).collect()
    }

    /// The amplitude of basis state `bits` on one lane (zero off the
    /// feasible basis).
    pub fn amplitude(&self, lane: usize, bits: u64) -> Complex64 {
        assert!(lane < self.lanes, "lane out of range");
        match self.basis.binary_search(&bits) {
            Ok(rank) => self.amps[rank * self.lanes + lane],
            Err(_) => Complex64::ZERO,
        }
    }

    /// Probability of measuring the basis state `bits` on one lane.
    pub fn probability(&self, lane: usize, bits: u64) -> f64 {
        self.amplitude(lane, bits).norm_sqr()
    }

    /// Number of basis states with probability above `eps` on one lane
    /// (the fig. 9(b) support metric).
    pub fn support_size(&self, lane: usize, eps: f64) -> usize {
        self.lane(lane).filter(|a| a.norm_sqr() > eps).count()
    }

    /// One lane's total probability (should be 1 up to rounding), summed
    /// over the non-zero entries in basis order.
    pub fn norm_sqr(&self, lane: usize) -> f64 {
        self.lane_nonzero(lane).map(|(_, a)| a.norm_sqr()).sum()
    }

    /// One lane's expectation of a diagonal observable given a `2^n`
    /// value table, summed over the non-zero entries in basis order.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != 2^n` or the lane is out of range.
    pub fn expectation_diag_values(&self, lane: usize, values: &[f64]) -> f64 {
        assert_eq!(
            values.len(),
            1usize << self.n_qubits,
            "diagonal length mismatch"
        );
        self.lane_nonzero(lane)
            .map(|(bits, a)| a.norm_sqr() * values[bits as usize])
            .sum()
    }

    /// One lane's expectation of a diagonal observable given as a
    /// polynomial — `O(|F| · terms)`, no table required.
    pub fn expectation_diag_poly(&self, lane: usize, poly: &PhasePoly) -> f64 {
        self.lane_nonzero(lane)
            .map(|(bits, a)| a.norm_sqr() * poly.eval_bits(bits))
            .sum()
    }

    /// Fills `out` with one lane's cumulative probability over all `|F|`
    /// ranks (ascending basis index). Zero slots add exact IEEE zeros, so
    /// the values at occupied slots match the dense engine's table
    /// bit-for-bit — which keeps sample streams identical.
    pub fn fill_cumulative(&self, lane: usize, out: &mut Vec<f64>) {
        out.clear();
        out.reserve(self.basis.len());
        let mut acc = 0.0f64;
        for a in self.lane(lane) {
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
        assert_eq!(cumulative.len(), self.basis.len(), "table length mismatch");
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
                self.basis[slot.min(self.basis.len() - 1)]
            };
            counts.record(bits);
        }
        counts
    }

    /// Samples `shots` measurement outcomes from one lane, building the
    /// cumulative table on the fly (one-off calls;
    /// [`crate::SimWorkspace::sample`] caches the table across calls).
    pub fn sample<R: Rng>(&self, lane: usize, shots: u64, rng: &mut R) -> Counts {
        let mut cumulative = Vec::new();
        self.fill_cumulative(lane, &mut cumulative);
        self.sample_with_cumulative(&cumulative, shots, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::UBlock;
    use crate::state::StateVector;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn run_compact(circuit: &Circuit) -> CompactStateVector {
        let plan = GatePlan::compile(circuit, 1 << 12).unwrap();
        let mut state = CompactStateVector::new(SimConfig::serial());
        state.replay(&plan, std::slice::from_ref(circuit));
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
            let (a, b) = (compact.amplitude(0, bits), dense.amplitude(bits));
            assert!(a.re == b.re && a.im == b.im, "bits={bits}");
        }
        assert_eq!(compact.occupancy(0), dense.occupancy());
        assert_eq!(compact.entries(0), dense_entries(&dense));
        assert_eq!(compact.support_size(0, 1e-9), dense.support_size(1e-9));
        assert!((compact.norm_sqr(0) - 1.0).abs() < 1e-12);
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
            compact.expectation_diag_values(0, &table),
            reference(&|bits| table[bits as usize])
        );
        assert_eq!(
            compact.expectation_diag_poly(0, &poly),
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
        assert_eq!(
            compact.sample(0, 5_000, &mut ra),
            dense.sample(5_000, &mut rb)
        );
    }

    #[test]
    fn reset_reuses_the_allocation() {
        let circuit = confined();
        let plan = GatePlan::compile(&circuit, 1 << 12).unwrap();
        let mut compact = CompactStateVector::new(SimConfig::serial());
        assert!(compact.replay(&plan, std::slice::from_ref(&circuit)));
        let ptr = compact.amps.as_ptr();
        assert!(!compact.reset(&plan, std::slice::from_ref(&circuit)));
        assert_eq!(compact.amps.as_ptr(), ptr);
        assert_eq!(compact.probability(0, 0), 1.0);
        assert_eq!(compact.occupancy(0), 1);
        // A replay at the same width keeps the allocation too.
        assert!(!compact.replay(&plan, std::slice::from_ref(&circuit)));
        assert_eq!(compact.amps.as_ptr(), ptr);
    }
}
