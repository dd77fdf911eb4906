//! # choco-qsim
//!
//! A self-contained quantum circuit simulator built for the Choco-Q
//! reproduction:
//!
//! * [`Circuit`] / [`Gate`] — an IR whose structured operations match the
//!   paper's building blocks: diagonal evolutions `e^{-iγH_o}`
//!   ([`Gate::DiagPhase`]), commute-Hamiltonian blocks `e^{-iβHc(u)}`
//!   ([`Gate::UBlock`]), and XY-mixer pairs ([`Gate::XyMix`]).
//! * [`StateVector`] — exact state-vector execution of every gate,
//!   including the structured ones (no Trotter error anywhere); the
//!   reference engine.
//! * [`SimWorkspace`] — the solvers' execution entry point. On the default
//!   [`EngineKind::Compact`] it compiles each circuit shape into a gate
//!   plan over the feasible subspace and replays it into a
//!   [`CompactStateVector`] of `|F|` amplitudes per lane — one lane for a
//!   serial run, K for a batch of same-shape candidates, one executor for
//!   both. Both engines apply the same pair kernels, so compact runs are
//!   bit-identical to the dense engine; shapes that fill the register run
//!   dense.
//! * [`transpile`] — lowering to deployable basic gates; implements the
//!   paper's Lemma 2 (`G† P(β) X₁ P(−β) X₁ G`) with linear circuit depth and
//!   two clean ancillas, plus ancilla-based MCX/MCPhase constructions.
//! * [`NoiseModel`] — Monte-Carlo Pauli + readout noise for the hardware
//!   experiments.
//! * [`two_level_decompose`] — the *conventional* exponential-cost unitary
//!   synthesis used by the Trotter baseline of Figure 12.
//!
//! ## Example
//!
//! ```
//! use choco_qsim::{transpile, Circuit, StateVector, TranspileOptions, UBlock};
//!
//! // One commute block on 3 qubits (+2 ancillas), both execution paths.
//! let mut c = Circuit::new(5);
//! c.load_bits(0b010);
//! c.ublock(UBlock::from_u_with_angle(&[-1, 1, -1], 0.8));
//!
//! let exact = StateVector::run(&c);
//! let lowered = transpile(&c, &TranspileOptions::with_ancillas(vec![3, 4]))?;
//! let gate_level = StateVector::run(&lowered);
//! assert!((exact.fidelity(&gate_level) - 1.0).abs() < 1e-9);
//! # Ok::<(), choco_qsim::TranspileError>(())
//! ```

#![warn(missing_docs)]

mod circuit;
pub mod compact;
mod counts;
mod draw;
mod engine;
mod gate;
mod kernels;
mod noise;
pub mod oracle;
mod phasepoly;
mod plan;
mod simconfig;
mod state;
mod synth;
mod transpile;
mod workspace;

pub use circuit::Circuit;
pub use compact::CompactStateVector;
pub use counts::Counts;
pub use draw::draw;
pub use engine::{SimEngine, MAX_COMPACT_QUBITS, MAX_DENSIFY_QUBITS};
pub use gate::{Gate, RegisterShift, ShiftBlock, UBlock};
pub use noise::NoiseModel;
pub use phasepoly::PhasePoly;
pub use simconfig::{EngineKind, SimConfig, DEFAULT_DENSITY_THRESHOLD, DEFAULT_PARALLEL_THRESHOLD};
pub use state::StateVector;
pub use synth::{
    circuit_unitary, two_level_decompose, SynthCost, TwoLevelDecomposition, TwoLevelOp,
};
pub use transpile::{transpile, zyz_decompose, TranspileError, TranspileOptions, TwoQubitBasis};
pub use workspace::{ForkedBatch, PlanCache, PlanCacheStats, SimWorkspace};
