//! The solver-facing result type: the state a [`crate::SimWorkspace`] run
//! left behind, held either in the dense strided [`StateVector`] or in
//! the rank-indexed [`CompactStateVector`].
//!
//! Everything above the kernels — the solvers' variational loop, the
//! experiment runner, and the CLI — reads a [`SimEngine`] and never names
//! a concrete representation. The two representations produce
//! bit-identical amplitudes, probabilities and sampling streams (see
//! [`crate::compact`]), so engine selection ([`SimConfig::engine`]) is
//! purely a performance decision:
//!
//! * [`EngineKind::Compact`] (the default) — the workspace compiles each
//!   circuit shape into a gate plan over its feasible basis and replays
//!   it. A shape whose structural support crosses the occupancy
//!   threshold runs on the dense engine instead, as long as the register
//!   is at most [`MAX_DENSIFY_QUBITS`] wide.
//! * [`EngineKind::Dense`] — always the `2^n` buffer; the reference the
//!   tests compare the compact engine against.
//!
//! Per-gate mutation exists only on the dense [`StateVector`]; a
//! [`SimEngine`] is read-only.

use crate::compact::CompactStateVector;
use crate::counts::Counts;
use crate::phasepoly::PhasePoly;
#[cfg(doc)]
use crate::simconfig::EngineKind;
use crate::simconfig::SimConfig;
use crate::state::StateVector;
use choco_mathkit::Complex64;
use rand::Rng;

/// Largest register the compact engine falls back to dense for: beyond
/// this the dense buffer itself is the bottleneck (2^26 amplitudes =
/// 1 GiB), so wider shapes always compile, whatever their support.
pub const MAX_DENSIFY_QUBITS: usize = 26;

/// Widest register the compact engine accepts: basis indices are `u64`
/// bit patterns and the circuit IR stops at 30 qubits, but the compact
/// representation has no `2^n` buffer, so it takes the IR's full width.
pub const MAX_COMPACT_QUBITS: usize = 30;

/// A quantum state behind one of the two amplitude representations.
///
/// # Examples
///
/// ```
/// use choco_qsim::{Circuit, SimConfig, SimWorkspace, UBlock};
///
/// let mut ws = SimWorkspace::new(SimConfig::serial());
/// let mut c = Circuit::new(3);
/// c.load_bits(0b001);
/// c.ublock(UBlock::from_u_with_angle(&[1, -1, -1], 0.8));
/// let state = ws.run(&c);
/// assert!(state.is_compact());
/// assert_eq!(state.occupancy(), 2); // |F|-confined, not 2^3
/// ```
#[derive(Clone, Debug)]
pub enum SimEngine {
    /// The dense strided engine.
    Dense(StateVector),
    /// The rank-indexed compact engine (built by
    /// [`crate::SimWorkspace`]'s plan replay).
    Compact(CompactStateVector),
}

impl SimEngine {
    /// The execution configuration.
    pub fn config(&self) -> &SimConfig {
        match self {
            SimEngine::Dense(s) => s.config(),
            SimEngine::Compact(s) => s.config(),
        }
    }

    /// Number of qubits.
    pub fn n_qubits(&self) -> usize {
        match self {
            SimEngine::Dense(s) => s.n_qubits(),
            SimEngine::Compact(s) => s.n_qubits(),
        }
    }

    /// `true` while the state is held in the compact (rank-indexed)
    /// representation.
    pub fn is_compact(&self) -> bool {
        matches!(self, SimEngine::Compact(_))
    }

    /// Short label of the representation (`"dense"`, `"compact"`) — what
    /// the run resolved to, as opposed to what was configured (a compact
    /// configuration runs register-filling shapes on the dense engine).
    pub fn representation_label(&self) -> &'static str {
        match self {
            SimEngine::Dense(_) => "dense",
            SimEngine::Compact(_) => "compact",
        }
    }

    /// The dense state, if that is the current representation.
    pub fn as_dense(&self) -> Option<&StateVector> {
        match self {
            SimEngine::Dense(s) => Some(s),
            SimEngine::Compact(_) => None,
        }
    }

    /// Number of occupied (exactly non-zero) basis entries.
    /// Engine-invariant: amplitudes are bit-identical across
    /// representations, so the count is too.
    pub fn occupancy(&self) -> usize {
        match self {
            SimEngine::Dense(s) => s.occupancy(),
            SimEngine::Compact(s) => s.occupancy(),
        }
    }

    /// The amplitude of basis state `bits`.
    pub fn amplitude(&self, bits: u64) -> Complex64 {
        match self {
            SimEngine::Dense(s) => s.amplitude(bits),
            SimEngine::Compact(s) => s.amplitude(bits),
        }
    }

    /// Probability of measuring the basis state `bits`.
    pub fn probability(&self, bits: u64) -> f64 {
        match self {
            SimEngine::Dense(s) => s.probability(bits),
            SimEngine::Compact(s) => s.probability(bits),
        }
    }

    /// Number of basis states with probability above `eps`.
    pub fn support_size(&self, eps: f64) -> usize {
        match self {
            SimEngine::Dense(s) => s.support_size(eps),
            SimEngine::Compact(s) => s.support_size(eps),
        }
    }

    /// Total probability (should be 1 up to rounding).
    pub fn norm_sqr(&self) -> f64 {
        match self {
            SimEngine::Dense(s) => s.norm_sqr(),
            SimEngine::Compact(s) => s.norm_sqr(),
        }
    }

    /// Fidelity `|⟨self|other⟩|²` against a dense reference state.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn fidelity_against_dense(&self, other: &StateVector) -> f64 {
        assert_eq!(self.n_qubits(), other.n_qubits(), "dimension mismatch");
        match self {
            SimEngine::Dense(s) => s.fidelity(other),
            SimEngine::Compact(s) => s
                .entries()
                .iter()
                .map(|&(bits, a)| a.conj() * other.amplitude(bits))
                .sum::<Complex64>()
                .norm_sqr(),
        }
    }

    /// Expectation of a diagonal observable given a `2^n` value table.
    ///
    /// # Panics
    ///
    /// Panics on table length mismatch.
    pub fn expectation_diag_values(&self, values: &[f64]) -> f64 {
        match self {
            SimEngine::Dense(s) => s.expectation_diag_values(values),
            SimEngine::Compact(s) => s.expectation_diag_values(values),
        }
    }

    /// Expectation of a diagonal observable given as a polynomial — the
    /// table-free path wide compact registers rely on.
    pub fn expectation_diag_poly(&self, poly: &PhasePoly) -> f64 {
        match self {
            SimEngine::Dense(s) => s.expectation_diag_poly(poly),
            SimEngine::Compact(s) => s.expectation_diag_poly(poly),
        }
    }

    /// Fills `out` with this engine's cumulative probability table
    /// (length `2^n` dense, `|F|` compact — pass it back to
    /// [`SimEngine::sample_with_cumulative`] on the *same* state).
    pub fn fill_cumulative(&self, out: &mut Vec<f64>) {
        match self {
            SimEngine::Dense(s) => s.fill_cumulative(out),
            SimEngine::Compact(s) => s.fill_cumulative(out),
        }
    }

    /// Samples `shots` outcomes using a table from
    /// [`SimEngine::fill_cumulative`]. Identical histograms across
    /// engines for a shared seed.
    ///
    /// # Panics
    ///
    /// Panics if the table does not match this engine's state.
    pub fn sample_with_cumulative<R: Rng>(
        &self,
        cumulative: &[f64],
        shots: u64,
        rng: &mut R,
    ) -> Counts {
        match self {
            SimEngine::Dense(s) => s.sample_with_cumulative(cumulative, shots, rng),
            SimEngine::Compact(s) => s.sample_with_cumulative(cumulative, shots, rng),
        }
    }

    /// Samples `shots` measurement outcomes in the computational basis.
    pub fn sample<R: Rng>(&self, shots: u64, rng: &mut R) -> Counts {
        match self {
            SimEngine::Dense(s) => s.sample(shots, rng),
            SimEngine::Compact(s) => s.sample(shots, rng),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::Circuit;
    use crate::gate::UBlock;
    use crate::simconfig::EngineKind;
    use crate::workspace::SimWorkspace;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn run_on(kind: EngineKind, circuit: &Circuit) -> SimEngine {
        let mut ws = SimWorkspace::new(SimConfig::serial().with_engine(kind));
        ws.run(circuit).clone()
    }

    fn confined() -> Circuit {
        let mut c = Circuit::new(3);
        c.load_bits(0b001);
        c.ublock(UBlock::from_u_with_angle(&[1, -1, 1], 0.7));
        c
    }

    #[test]
    fn engine_kind_selects_representation() {
        assert!(run_on(EngineKind::Compact, &confined()).is_compact());
        let dense = run_on(EngineKind::Dense, &confined());
        assert!(!dense.is_compact());
        assert_eq!(dense.representation_label(), "dense");
        assert!(dense.as_dense().is_some());
    }

    #[test]
    fn sample_streams_agree_across_engines() {
        let c = confined();
        let dense = run_on(EngineKind::Dense, &c);
        let compact = run_on(EngineKind::Compact, &c);
        assert!(compact.is_compact());
        let mut ra = StdRng::seed_from_u64(9);
        let mut rb = StdRng::seed_from_u64(9);
        assert_eq!(dense.sample(3_000, &mut ra), compact.sample(3_000, &mut rb));
    }

    fn mixer(n: usize) -> Circuit {
        let mut c = Circuit::new(n);
        for q in 0..n {
            c.h(q);
        }
        c
    }

    #[test]
    fn reset_after_fallback_stays_dense() {
        // A shape the compact engine refuses runs dense, and every later
        // run of it resets that dense buffer in place: no per-iteration
        // 2^n allocation, results equal a dense run.
        let mut ws = SimWorkspace::new(SimConfig::serial());
        let circuit = mixer(10);
        ws.run(&circuit);
        let buffer = ws
            .state()
            .and_then(|e| e.as_dense())
            .unwrap()
            .amplitudes()
            .as_ptr();
        let expected = StateVector::run(&circuit);
        for _ in 0..3 {
            let state = ws.run(&circuit);
            assert_eq!(state.representation_label(), "dense");
            assert!((state.fidelity_against_dense(&expected) - 1.0).abs() < 1e-12);
        }
        let state = ws.state().and_then(|e| e.as_dense()).unwrap();
        assert_eq!(
            state.amplitudes().as_ptr(),
            buffer,
            "buffer reused in place"
        );
        assert_eq!(ws.reallocations(), 1);
        assert_eq!(ws.plan_compilations(), 1, "refusal remembered");
    }

    #[test]
    fn densify_refuses_registers_beyond_the_dense_cap() {
        // Above MAX_DENSIFY_QUBITS no dense buffer can exist, so the
        // compact engine compiles any support instead of falling back:
        // a 30-qubit block runs on two amplitudes even at threshold 0.
        let n = 30;
        let u: Vec<i8> = (0..n).map(|i| if i % 2 == 0 { 1 } else { -1 }).collect();
        let v_bits = (0..n)
            .filter(|i| i % 2 == 0)
            .fold(0u64, |m, i| m | (1 << i));
        let mut c = Circuit::new(n);
        c.load_bits(v_bits);
        c.ublock(UBlock::from_u_with_angle(&u, 0.7));
        let config = SimConfig {
            density_threshold: 0.0,
            ..SimConfig::serial()
        };
        let mut ws = SimWorkspace::new(config);
        let state = ws.run(&c);
        assert!(state.is_compact());
        assert_eq!(state.occupancy(), 2);
        assert!((state.probability(v_bits) - 0.7f64.cos().powi(2)).abs() < 1e-12);
    }

    #[test]
    fn fidelity_against_dense_spans_representations() {
        let c = confined();
        let reference = StateVector::run(&c);
        for kind in [EngineKind::Dense, EngineKind::Compact] {
            let e = run_on(kind, &c);
            assert!((e.fidelity_against_dense(&reference) - 1.0).abs() < 1e-12);
        }
    }
}
