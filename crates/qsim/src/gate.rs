//! The gate set.
//!
//! Besides the standard basic gates, the IR carries three *structured*
//! operations that this paper's algorithms are built from:
//!
//! * [`Gate::DiagPhase`] — `e^{-iθ·f(x)}` for a diagonal Hamiltonian given
//!   as a [`PhasePoly`] (objective/penalty evolution),
//! * [`Gate::UBlock`] — `e^{-iθ·Hc(u)}` for one commute Hamiltonian term
//!   `Hc(u) = |v⟩⟨v̄| + |v̄⟩⟨v|` (Eq. (5) of the paper),
//! * [`Gate::XyMix`] — `e^{-iθ(X_aX_b + Y_aY_b)}`, the cyclic-driver pair
//!   term \[47\], which equals `UBlock` on the `{|01⟩, |10⟩}` subspace.
//!
//! The simulator executes structured gates exactly; the transpiler lowers
//! them to basic gates for depth accounting and noisy execution.

use crate::phasepoly::PhasePoly;
use choco_mathkit::{c64, Complex64};
use std::f64::consts::FRAC_1_SQRT_2;
use std::fmt;
use std::sync::Arc;

/// One commute-Hamiltonian block `e^{-iθ·Hc(u)}`.
///
/// `Hc(u)` couples the two basis patterns `|v⟩` and `|v̄⟩` of the support
/// qubits, where `v_i = (1 + u_i)/2` for the non-zero entries of `u`.
#[derive(Clone, Debug, PartialEq)]
pub struct UBlock {
    /// Qubits in the support of `u` (strictly increasing).
    pub support: Vec<usize>,
    /// Pattern bits of `v` packed little-endian over `support`
    /// (`bit k` ↔ `support[k]`).
    pub pattern: u64,
    /// Rotation angle θ.
    pub angle: f64,
}

impl UBlock {
    /// Builds a block from a full-length ternary vector `u` over `n` qubits,
    /// mapped through `qubit_of` (identity for the common case).
    ///
    /// # Panics
    ///
    /// Panics if `u` is all-zero.
    pub fn from_u(u: &[i8]) -> Self {
        let mut support = Vec::new();
        let mut pattern = 0u64;
        for (i, &ui) in u.iter().enumerate() {
            if ui != 0 {
                if ui > 0 {
                    pattern |= 1 << support.len();
                }
                support.push(i);
            }
        }
        assert!(!support.is_empty(), "UBlock requires a non-zero u");
        UBlock {
            support,
            pattern,
            angle: 0.0,
        }
    }

    /// Same as [`UBlock::from_u`] with the rotation angle set.
    pub fn from_u_with_angle(u: &[i8], angle: f64) -> Self {
        let mut b = UBlock::from_u(u);
        b.angle = angle;
        b
    }

    /// Support size (number of qubits the block acts on).
    pub fn arity(&self) -> usize {
        self.support.len()
    }

    /// The eigenstate pattern `v` as bits over the support, and its
    /// complement.
    pub fn pattern_pair(&self) -> (u64, u64) {
        let mask = if self.support.len() == 64 {
            u64::MAX
        } else {
            (1u64 << self.support.len()) - 1
        };
        (self.pattern, self.pattern ^ mask)
    }
}

/// A bounded slack-register shift rider on a [`ShiftBlock`].
///
/// The register value is read little-endian over `qubits` (`bit k` ↔
/// `qubits[k]`). Crossing the block's coupling in the forward direction adds
/// `delta` to the value; states whose register reads above `max_value`
/// (binary-padding states) or whose shifted value would leave `[0, max_value]`
/// are not coupled at all.
#[derive(Clone, Debug, PartialEq)]
pub struct RegisterShift {
    /// Register qubits, strictly increasing, little-endian value order.
    pub qubits: Vec<usize>,
    /// Signed value shift applied on the forward coupling.
    pub delta: i64,
    /// Largest admissible register value (inclusive).
    pub max_value: u64,
}

impl RegisterShift {
    /// Bitmask over the register qubits.
    pub fn mask(&self) -> u64 {
        self.qubits.iter().fold(0u64, |m, &q| m | (1u64 << q))
    }

    /// Reads the register value out of a basis-state index.
    pub fn read(&self, bits: u64) -> u64 {
        let mut v = 0u64;
        for (k, &q) in self.qubits.iter().enumerate() {
            v |= ((bits >> q) & 1) << k;
        }
        v
    }

    /// Writes `value` into the register bits of `bits`.
    pub fn write(&self, bits: u64, value: u64) -> u64 {
        let mut out = bits & !self.mask();
        for (k, &q) in self.qubits.iter().enumerate() {
            out |= ((value >> k) & 1) << q;
        }
        out
    }
}

/// A generalized commute-Hamiltonian block: the [`UBlock`] pattern coupling
/// `|v⟩ ↔ |v̄⟩` on `support`, extended with bounded slack-register shifts.
///
/// The coupled pair is `|v, r⟩ ↔ |v̄, r+δ⟩` per attached [`RegisterShift`];
/// states where any register would leave `[0, max_value]` (in either
/// direction) are left untouched, which keeps the evolution confined to the
/// encoded feasible subspace. With `shifts` empty this is exactly a
/// [`UBlock`].
#[derive(Clone, Debug, PartialEq)]
pub struct ShiftBlock {
    /// Qubits in the support of `u` (strictly increasing, non-empty).
    pub support: Vec<usize>,
    /// Pattern bits of `v` packed little-endian over `support`.
    pub pattern: u64,
    /// Slack-register shifts riding on the coupling (register qubits must be
    /// disjoint from `support` and from each other).
    pub shifts: Vec<RegisterShift>,
    /// Rotation angle θ.
    pub angle: f64,
}

impl ShiftBlock {
    /// Bitmask over the support qubits.
    pub fn full_mask(&self) -> u64 {
        self.support.iter().fold(0u64, |m, &q| m | (1u64 << q))
    }

    /// The pattern `v` spread onto absolute qubit positions.
    pub fn pattern_abs(&self) -> u64 {
        let mut v = 0u64;
        for (k, &q) in self.support.iter().enumerate() {
            v |= ((self.pattern >> k) & 1) << q;
        }
        v
    }

    /// Support plus register qubits (the block's full footprint).
    pub fn arity(&self) -> usize {
        self.support.len() + self.shifts.iter().map(|s| s.qubits.len()).sum::<usize>()
    }

    /// Maps a *source* basis index (support bits equal to `v`) to its coupled
    /// partner, or `None` when any register makes the pair ineligible.
    ///
    /// Eligibility requires, per register with current value `r`: `r ≤
    /// max_value` (not a padding state) and `0 ≤ r+δ ≤ max_value` (the partner
    /// is also a valid encoded state).
    pub fn forward(&self, i: u64) -> Option<u64> {
        debug_assert_eq!(i & self.full_mask(), self.pattern_abs());
        let mut j = i ^ self.full_mask();
        for s in &self.shifts {
            let r = s.read(i);
            if r > s.max_value {
                return None;
            }
            let t = r as i64 + s.delta;
            if t < 0 || t as u64 > s.max_value {
                return None;
            }
            j = s.write(j, t as u64);
        }
        Some(j)
    }

    /// Canonicalizes either endpoint of a coupled pair to its source index:
    /// returns `Some(source)` when `bits` participates in an eligible pair
    /// (as source or target), `None` otherwise.
    pub fn source_of(&self, bits: u64) -> Option<u64> {
        let full = self.full_mask();
        let v_abs = self.pattern_abs();
        let f = bits & full;
        if f == v_abs {
            self.forward(bits).map(|_| bits)
        } else if f == v_abs ^ full {
            let mut src = bits ^ full;
            for s in &self.shifts {
                let r = s.read(bits);
                if r > s.max_value {
                    return None;
                }
                let back = r as i64 - s.delta;
                if back < 0 || back as u64 > s.max_value {
                    return None;
                }
                src = s.write(src, back as u64);
            }
            Some(src)
        } else {
            None
        }
    }
}

/// A quantum gate (or structured operation) in the circuit IR.
#[derive(Clone, Debug, PartialEq)]
pub enum Gate {
    /// Hadamard.
    H(usize),
    /// Pauli X.
    X(usize),
    /// Pauli Y.
    Y(usize),
    /// Pauli Z.
    Z(usize),
    /// Phase gate S = diag(1, i).
    S(usize),
    /// S† = diag(1, −i).
    Sdg(usize),
    /// T = diag(1, e^{iπ/4}).
    T(usize),
    /// T† gate.
    Tdg(usize),
    /// X-rotation `e^{-iθX/2}`.
    Rx(usize, f64),
    /// Y-rotation `e^{-iθY/2}`.
    Ry(usize, f64),
    /// Z-rotation `e^{-iθZ/2}`.
    Rz(usize, f64),
    /// Phase gate diag(1, e^{iθ}).
    Phase(usize, f64),
    /// Controlled-X (control, target).
    Cx(usize, usize),
    /// Controlled-Z.
    Cz(usize, usize),
    /// Controlled phase diag(1,1,1,e^{iθ}).
    Cp(usize, usize, f64),
    /// Swap two qubits.
    Swap(usize, usize),
    /// Toffoli (control, control, target).
    Ccx(usize, usize, usize),
    /// Multi-controlled X: flips `target` iff all `controls` are |1⟩.
    Mcx {
        /// Control qubits (all positive polarity).
        controls: Vec<usize>,
        /// Target qubit.
        target: usize,
    },
    /// Multi-controlled phase `P(θ)`: adds `e^{iθ}` on the all-ones state of
    /// `qubits` (Eq. (15) of the paper).
    McPhase {
        /// The qubits whose joint |1…1⟩ state acquires the phase.
        qubits: Vec<usize>,
        /// Phase angle θ.
        angle: f64,
    },
    /// An arbitrary single-qubit unitary controlled on every qubit of
    /// `controls` being |1⟩. Used by the exact two-level synthesis of the
    /// Trotter baseline.
    ControlledU {
        /// Positive-polarity control qubits.
        controls: Vec<usize>,
        /// Target qubit.
        target: usize,
        /// The 2×2 unitary applied to the target.
        matrix: [[Complex64; 2]; 2],
    },
    /// Structured: `e^{-iθ·Hc(u)}` commute-Hamiltonian block.
    UBlock(UBlock),
    /// Structured: generalized commute block with bounded slack-register
    /// shifts, `|v,r⟩ ↔ |v̄,r+δ⟩` (the native-inequality driver term).
    ShiftBlock(ShiftBlock),
    /// Structured: `e^{-iθ(XX+YY)}` on a pair (cyclic driver term).
    XyMix(usize, usize, f64),
    /// Structured: `e^{-iθ·f(x)}` for a diagonal pseudo-Boolean `f`.
    DiagPhase(Arc<PhasePoly>, f64),
}

impl Gate {
    /// The qubits this gate touches, in an unspecified order.
    pub fn qubits(&self) -> Vec<usize> {
        match self {
            Gate::H(q)
            | Gate::X(q)
            | Gate::Y(q)
            | Gate::Z(q)
            | Gate::S(q)
            | Gate::Sdg(q)
            | Gate::T(q)
            | Gate::Tdg(q)
            | Gate::Rx(q, _)
            | Gate::Ry(q, _)
            | Gate::Rz(q, _)
            | Gate::Phase(q, _) => vec![*q],
            Gate::Cx(a, b) | Gate::Cz(a, b) | Gate::Cp(a, b, _) | Gate::Swap(a, b) => {
                vec![*a, *b]
            }
            Gate::Ccx(a, b, c) => vec![*a, *b, *c],
            Gate::Mcx { controls, target } => {
                let mut qs = controls.clone();
                qs.push(*target);
                qs
            }
            Gate::McPhase { qubits, .. } => qubits.clone(),
            Gate::ControlledU {
                controls, target, ..
            } => {
                let mut qs = controls.clone();
                qs.push(*target);
                qs
            }
            Gate::UBlock(b) => b.support.clone(),
            Gate::ShiftBlock(b) => {
                let mut qs = b.support.clone();
                for s in &b.shifts {
                    qs.extend_from_slice(&s.qubits);
                }
                qs
            }
            Gate::XyMix(a, b, _) => vec![*a, *b],
            Gate::DiagPhase(poly, _) => poly.support(),
        }
    }

    /// Number of qubits touched.
    pub fn arity(&self) -> usize {
        self.qubits().len()
    }

    /// `true` for gates in the deployable basic set
    /// (1-qubit gates, CX, CZ) — what remains after transpilation.
    pub fn is_basic(&self) -> bool {
        matches!(
            self,
            Gate::H(_)
                | Gate::X(_)
                | Gate::Y(_)
                | Gate::Z(_)
                | Gate::S(_)
                | Gate::Sdg(_)
                | Gate::T(_)
                | Gate::Tdg(_)
                | Gate::Rx(..)
                | Gate::Ry(..)
                | Gate::Rz(..)
                | Gate::Phase(..)
                | Gate::Cx(..)
                | Gate::Cz(..)
        )
    }

    /// Bitwise gate equality: same kind and qubits, and every real
    /// parameter equal by `to_bits` (so `0.0` and `-0.0` differ, and a NaN
    /// angle never matches). Diagonal evolutions compare their polynomial
    /// by `Arc` identity, never by content. Two bit-equal gates apply the
    /// same floating-point operations to every amplitude, which is what
    /// lets a forked batch replay a shared prefix once (see
    /// [`crate::SimWorkspace::run_forked`]).
    pub(crate) fn bit_eq(&self, other: &Gate) -> bool {
        let same_kind = match (self, other) {
            (Gate::DiagPhase(a, _), Gate::DiagPhase(b, _)) => Arc::ptr_eq(a, b),
            _ => self == other,
        };
        same_kind && self.param_bits() == other.param_bits()
    }

    /// The bits of the gate's real parameters (angles, or the entries of a
    /// controlled unitary), zero-padded.
    fn param_bits(&self) -> [u64; 8] {
        let mut bits = [0u64; 8];
        match self {
            Gate::Rx(_, t)
            | Gate::Ry(_, t)
            | Gate::Rz(_, t)
            | Gate::Phase(_, t)
            | Gate::Cp(_, _, t)
            | Gate::XyMix(_, _, t)
            | Gate::DiagPhase(_, t)
            | Gate::McPhase { angle: t, .. }
            | Gate::UBlock(UBlock { angle: t, .. })
            | Gate::ShiftBlock(ShiftBlock { angle: t, .. }) => bits[0] = t.to_bits(),
            Gate::ControlledU { matrix, .. } => {
                for (slot, c) in bits.chunks_mut(2).zip(matrix.iter().flatten()) {
                    slot[0] = c.re.to_bits();
                    slot[1] = c.im.to_bits();
                }
            }
            _ => {}
        }
        bits
    }

    /// `true` for the structured (non-gate-level) operations.
    pub fn is_structured(&self) -> bool {
        matches!(
            self,
            Gate::UBlock(_) | Gate::ShiftBlock(_) | Gate::XyMix(..) | Gate::DiagPhase(..)
        )
    }

    /// The inverse gate.
    pub fn inverse(&self) -> Gate {
        match self {
            Gate::H(q) => Gate::H(*q),
            Gate::X(q) => Gate::X(*q),
            Gate::Y(q) => Gate::Y(*q),
            Gate::Z(q) => Gate::Z(*q),
            Gate::S(q) => Gate::Sdg(*q),
            Gate::Sdg(q) => Gate::S(*q),
            Gate::T(q) => Gate::Tdg(*q),
            Gate::Tdg(q) => Gate::T(*q),
            Gate::Rx(q, t) => Gate::Rx(*q, -t),
            Gate::Ry(q, t) => Gate::Ry(*q, -t),
            Gate::Rz(q, t) => Gate::Rz(*q, -t),
            Gate::Phase(q, t) => Gate::Phase(*q, -t),
            Gate::Cx(a, b) => Gate::Cx(*a, *b),
            Gate::Cz(a, b) => Gate::Cz(*a, *b),
            Gate::Cp(a, b, t) => Gate::Cp(*a, *b, -t),
            Gate::Swap(a, b) => Gate::Swap(*a, *b),
            Gate::Ccx(a, b, c) => Gate::Ccx(*a, *b, *c),
            Gate::Mcx { controls, target } => Gate::Mcx {
                controls: controls.clone(),
                target: *target,
            },
            Gate::McPhase { qubits, angle } => Gate::McPhase {
                qubits: qubits.clone(),
                angle: -angle,
            },
            Gate::ControlledU {
                controls,
                target,
                matrix,
            } => Gate::ControlledU {
                controls: controls.clone(),
                target: *target,
                // dagger of a 2×2
                matrix: [
                    [matrix[0][0].conj(), matrix[1][0].conj()],
                    [matrix[0][1].conj(), matrix[1][1].conj()],
                ],
            },
            Gate::UBlock(b) => Gate::UBlock(UBlock {
                support: b.support.clone(),
                pattern: b.pattern,
                angle: -b.angle,
            }),
            Gate::ShiftBlock(b) => Gate::ShiftBlock(ShiftBlock {
                support: b.support.clone(),
                pattern: b.pattern,
                shifts: b.shifts.clone(),
                angle: -b.angle,
            }),
            Gate::XyMix(a, b, t) => Gate::XyMix(*a, *b, -t),
            Gate::DiagPhase(poly, t) => Gate::DiagPhase(poly.clone(), -t),
        }
    }

    /// Short mnemonic for display and gate-count maps.
    pub fn name(&self) -> &'static str {
        match self {
            Gate::H(_) => "h",
            Gate::X(_) => "x",
            Gate::Y(_) => "y",
            Gate::Z(_) => "z",
            Gate::S(_) => "s",
            Gate::Sdg(_) => "sdg",
            Gate::T(_) => "t",
            Gate::Tdg(_) => "tdg",
            Gate::Rx(..) => "rx",
            Gate::Ry(..) => "ry",
            Gate::Rz(..) => "rz",
            Gate::Phase(..) => "p",
            Gate::Cx(..) => "cx",
            Gate::Cz(..) => "cz",
            Gate::Cp(..) => "cp",
            Gate::Swap(..) => "swap",
            Gate::Ccx(..) => "ccx",
            Gate::Mcx { .. } => "mcx",
            Gate::McPhase { .. } => "mcp",
            Gate::ControlledU { .. } => "cu",
            Gate::UBlock(_) => "ublock",
            Gate::ShiftBlock(_) => "shiftblock",
            Gate::XyMix(..) => "xy",
            Gate::DiagPhase(..) => "diag",
        }
    }

    /// The 2×2 matrix of a single-qubit gate, or `None` for anything else.
    pub fn matrix_1q(&self) -> Option<[[Complex64; 2]; 2]> {
        let m = match self {
            Gate::H(_) => [
                [c64(FRAC_1_SQRT_2, 0.0), c64(FRAC_1_SQRT_2, 0.0)],
                [c64(FRAC_1_SQRT_2, 0.0), c64(-FRAC_1_SQRT_2, 0.0)],
            ],
            Gate::X(_) => [
                [Complex64::ZERO, Complex64::ONE],
                [Complex64::ONE, Complex64::ZERO],
            ],
            Gate::Y(_) => [
                [Complex64::ZERO, c64(0.0, -1.0)],
                [c64(0.0, 1.0), Complex64::ZERO],
            ],
            Gate::Z(_) => [
                [Complex64::ONE, Complex64::ZERO],
                [Complex64::ZERO, c64(-1.0, 0.0)],
            ],
            Gate::S(_) => [
                [Complex64::ONE, Complex64::ZERO],
                [Complex64::ZERO, Complex64::I],
            ],
            Gate::Sdg(_) => [
                [Complex64::ONE, Complex64::ZERO],
                [Complex64::ZERO, c64(0.0, -1.0)],
            ],
            Gate::T(_) => [
                [Complex64::ONE, Complex64::ZERO],
                [Complex64::ZERO, Complex64::cis(std::f64::consts::FRAC_PI_4)],
            ],
            Gate::Tdg(_) => [
                [Complex64::ONE, Complex64::ZERO],
                [
                    Complex64::ZERO,
                    Complex64::cis(-std::f64::consts::FRAC_PI_4),
                ],
            ],
            Gate::Rx(_, t) => {
                let (c, s) = ((t / 2.0).cos(), (t / 2.0).sin());
                [[c64(c, 0.0), c64(0.0, -s)], [c64(0.0, -s), c64(c, 0.0)]]
            }
            Gate::Ry(_, t) => {
                let (c, s) = ((t / 2.0).cos(), (t / 2.0).sin());
                [[c64(c, 0.0), c64(-s, 0.0)], [c64(s, 0.0), c64(c, 0.0)]]
            }
            Gate::Rz(_, t) => [
                [Complex64::cis(-t / 2.0), Complex64::ZERO],
                [Complex64::ZERO, Complex64::cis(t / 2.0)],
            ],
            Gate::Phase(_, t) => [
                [Complex64::ONE, Complex64::ZERO],
                [Complex64::ZERO, Complex64::cis(*t)],
            ],
            _ => return None,
        };
        Some(m)
    }
}

impl fmt::Display for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Gate::Rx(q, t) | Gate::Ry(q, t) | Gate::Rz(q, t) | Gate::Phase(q, t) => {
                write!(f, "{}({:.4}) q{}", self.name(), t, q)
            }
            Gate::Cp(a, b, t) => write!(f, "cp({t:.4}) q{a},q{b}"),
            Gate::Cx(a, b) | Gate::Cz(a, b) | Gate::Swap(a, b) => {
                write!(f, "{} q{},q{}", self.name(), a, b)
            }
            Gate::Ccx(a, b, c) => write!(f, "ccx q{a},q{b},q{c}"),
            Gate::Mcx { controls, target } => write!(f, "mcx {controls:?} -> q{target}"),
            Gate::McPhase { qubits, angle } => write!(f, "mcp({angle:.4}) {qubits:?}"),
            Gate::ControlledU {
                controls, target, ..
            } => write!(f, "cu {controls:?} -> q{target}"),
            Gate::UBlock(b) => write!(
                f,
                "ublock({:.4}) support={:?} v={:#b}",
                b.angle, b.support, b.pattern
            ),
            Gate::ShiftBlock(b) => {
                write!(
                    f,
                    "shiftblock({:.4}) support={:?} v={:#b}",
                    b.angle, b.support, b.pattern
                )?;
                for s in &b.shifts {
                    write!(f, " reg{:?}{:+}<={}", s.qubits, s.delta, s.max_value)?;
                }
                Ok(())
            }
            Gate::XyMix(a, b, t) => write!(f, "xy({t:.4}) q{a},q{b}"),
            Gate::DiagPhase(_, t) => write!(f, "diag({t:.4})"),
            other => write!(f, "{} q{}", other.name(), other.qubits()[0]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use choco_mathkit::CMatrix;

    fn as_cmatrix(m: [[Complex64; 2]; 2]) -> CMatrix {
        CMatrix::from_rows(&[vec![m[0][0], m[0][1]], vec![m[1][0], m[1][1]]])
    }

    #[test]
    fn all_1q_matrices_are_unitary() {
        let gates = [
            Gate::H(0),
            Gate::X(0),
            Gate::Y(0),
            Gate::Z(0),
            Gate::S(0),
            Gate::Sdg(0),
            Gate::T(0),
            Gate::Tdg(0),
            Gate::Rx(0, 0.7),
            Gate::Ry(0, -1.2),
            Gate::Rz(0, 2.1),
            Gate::Phase(0, 0.3),
        ];
        for g in gates {
            let m = as_cmatrix(g.matrix_1q().expect("1q"));
            assert!(m.is_unitary(1e-12), "{g} not unitary");
        }
    }

    #[test]
    fn inverse_matrices_are_daggers() {
        let gates = [
            Gate::S(0),
            Gate::T(0),
            Gate::Rx(0, 0.9),
            Gate::Ry(0, -0.4),
            Gate::Rz(0, 1.5),
            Gate::Phase(0, 2.2),
        ];
        for g in gates {
            let m = as_cmatrix(g.matrix_1q().unwrap());
            let mi = as_cmatrix(g.inverse().matrix_1q().unwrap());
            assert!(mi.approx_eq(&m.dagger(), 1e-12), "{g}");
        }
    }

    #[test]
    fn qubits_and_arity() {
        assert_eq!(Gate::H(3).qubits(), vec![3]);
        assert_eq!(Gate::Cx(1, 4).qubits(), vec![1, 4]);
        assert_eq!(
            Gate::Mcx {
                controls: vec![0, 2],
                target: 5
            }
            .arity(),
            3
        );
    }

    #[test]
    fn ublock_from_u_pattern() {
        // u = (-1, 0, +1, -1): support {0, 2, 3}, v = (0, 1, 0) → pattern 0b010.
        let b = UBlock::from_u(&[-1, 0, 1, -1]);
        assert_eq!(b.support, vec![0, 2, 3]);
        assert_eq!(b.pattern, 0b010);
        let (v, vbar) = b.pattern_pair();
        assert_eq!(v, 0b010);
        assert_eq!(vbar, 0b101);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn ublock_rejects_zero_u() {
        let _ = UBlock::from_u(&[0, 0]);
    }

    #[test]
    fn structured_gates_flagged() {
        assert!(Gate::UBlock(UBlock::from_u(&[1, -1])).is_structured());
        assert!(Gate::XyMix(0, 1, 0.5).is_structured());
        assert!(!Gate::Cx(0, 1).is_structured());
        assert!(Gate::Cx(0, 1).is_basic());
        assert!(!Gate::Ccx(0, 1, 2).is_basic());
    }

    #[test]
    fn mcphase_inverse_negates_angle() {
        let g = Gate::McPhase {
            qubits: vec![0, 1, 2],
            angle: 0.8,
        };
        match g.inverse() {
            Gate::McPhase { angle, .. } => assert_eq!(angle, -0.8),
            other => panic!("unexpected inverse {other}"),
        }
    }

    #[test]
    fn shiftblock_forward_and_source_of() {
        // Support {0,1}, pattern v = |11⟩; 2-bit register on {2,3} with
        // delta = +1 and max_value = 2 (values 0..=2 valid, 3 is padding).
        let b = ShiftBlock {
            support: vec![0, 1],
            pattern: 0b11,
            shifts: vec![RegisterShift {
                qubits: vec![2, 3],
                delta: 1,
                max_value: 2,
            }],
            angle: 0.3,
        };
        // Source |v=11, r=0⟩ = 0b0011 couples to |v̄=00, r=1⟩ = 0b0100.
        assert_eq!(b.forward(0b0011), Some(0b0100));
        assert_eq!(b.source_of(0b0011), Some(0b0011));
        assert_eq!(b.source_of(0b0100), Some(0b0011));
        // r = 2 would shift to 3 > max_value: ineligible.
        assert_eq!(b.forward(0b1011), None);
        assert_eq!(b.source_of(0b1011), None);
        // Padding state r = 3: ineligible from either side.
        assert_eq!(b.forward(0b1111), None);
        assert_eq!(b.source_of(0b1100), None);
        // Support bits neither v nor v̄: not part of any pair.
        assert_eq!(b.source_of(0b0001), None);
    }

    #[test]
    fn shiftblock_inverse_negates_angle() {
        let b = ShiftBlock {
            support: vec![0],
            pattern: 0b1,
            shifts: vec![],
            angle: 0.8,
        };
        match Gate::ShiftBlock(b).inverse() {
            Gate::ShiftBlock(inv) => assert_eq!(inv.angle, -0.8),
            other => panic!("unexpected inverse {other}"),
        }
    }

    #[test]
    fn register_shift_read_write_roundtrip() {
        let s = RegisterShift {
            qubits: vec![1, 3, 4],
            delta: -2,
            max_value: 7,
        };
        assert_eq!(s.mask(), 0b11010);
        let bits = s.write(0b00101, 0b110);
        assert_eq!(s.read(bits), 0b110);
        assert_eq!(bits & !s.mask(), 0b00101 & !s.mask());
    }

    #[test]
    fn diagphase_support_comes_from_poly() {
        let mut poly = PhasePoly::new(4);
        poly.add_linear(1, 1.0);
        poly.add_quadratic(0, 3, 2.0);
        let g = Gate::DiagPhase(Arc::new(poly), 0.5);
        assert_eq!(g.qubits(), vec![0, 1, 3]);
    }
}
