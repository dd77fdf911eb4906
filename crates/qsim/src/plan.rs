//! Gate-plan compilation for the compact engine.
//!
//! A Choco-Q variational loop replays one circuit *shape* — the same gate
//! sequence with different angles — hundreds of times. The support
//! trajectory of that state depends only on the circuit's **structure**
//! (masks, patterns, polynomial identities), never on its angles.
//! [`GatePlan::compile`] walks that structure once:
//!
//! 1. a forward pass simulates support growth gate by gate (pair
//!    partners are materialized, phases never grow support), producing
//!    the final feasible basis `F` (sorted),
//! 2. every gate is lowered to a [`PlanStep`] of precomputed rank tables
//!    into `F` — scatter/gather pair lists, subspace rank lists, the
//!    distinct values of a diagonal polynomial and each rank's index
//!    into them.
//!
//! Replay ([`GatePlan::apply_step`], the one executor) then walks K
//! same-shape circuits in lockstep with the steps, reading each lane's
//! angles/matrices from its own gates and ranks from the plan. The
//! amplitudes live rank-major (`amps[rank·K + lane]`, see
//! [`crate::CompactStateVector`]), so every rank table is traversed once
//! per step whatever K is; a serial run is K = 1. Loops are threaded
//! through [`SimConfig::effective_threads`], with zero map operations and
//! zero allocations once warm. Pair steps evaluate the same
//! [`PairKernel`] the dense engine uses, so the two engines stay
//! bit-identical — structurally-supported slots that are numerically zero
//! hold exact zeros here and contribute exact IEEE no-ops to every kernel.
//!
//! Compilation *fails over* instead of compiling pathological shapes:
//! once the structural support crosses [`SimConfig::density_threshold`]
//! of the register, [`PlanError`] is returned and [`crate::SimWorkspace`]
//! runs the circuit on the dense engine instead.

use crate::circuit::Circuit;
use crate::gate::Gate;
use crate::kernels::{self, dispatch, AmpPtr, PairKernel};
use crate::phasepoly::PhasePoly;
use crate::simconfig::SimConfig;
use choco_mathkit::Complex64;
use std::sync::{Arc, Weak};

/// Why a circuit shape could not be compiled into a plan.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum PlanError {
    /// Structural support crossed the caller's occupancy cap — the shape
    /// is not subspace-confined enough for the compact engine to win.
    TooDense {
        /// Support size when the cap was crossed.
        support: usize,
    },
}

/// One gate of a circuit shape, with everything angle-like erased.
///
/// Two circuits share a plan iff their atom sequences match: same gate
/// kinds on the same qubits/masks, the same `Arc<PhasePoly>` identities
/// for diagonal evolutions, and the same frozen matrices for synthesized
/// controlled-unitaries. Angles are deliberately excluded — they are what
/// the optimizer varies between replays.
#[derive(Clone, Debug)]
enum ShapeAtom {
    /// Any gate fully described by its discriminant and up to three
    /// qubit/mask words (1q gates, CX/CZ/CP/Swap/CCX, MCX, MCPhase,
    /// XY-mixer; UBlock as `(support_mask, v_mask)`).
    Masks(u8, u64, u64, u64),
    /// A diagonal evolution, identified by its polynomial allocation.
    Diag(Weak<PhasePoly>),
    /// A controlled unitary with its matrix frozen into the shape (these
    /// come from synthesis, not from the optimizer).
    CtrlU(u64, u64, [u64; 8]),
    /// A generalized commute block: `(support_mask, v_mask)` plus the
    /// frozen register shifts `(register_mask, delta, max_value)` — the
    /// pairing structure depends on all of them (register qubits are
    /// strictly increasing, so the mask determines the value order).
    Shift(u64, u64, Vec<(u64, i64, u64)>),
}

/// The angle-erased structure of a circuit (see [`ShapeAtom`]).
#[derive(Clone, Debug)]
pub(crate) struct CircuitShape {
    n_qubits: usize,
    atoms: Vec<ShapeAtom>,
}

/// Stable discriminant for [`ShapeAtom::Masks`].
fn gate_tag(gate: &Gate) -> u8 {
    match gate {
        Gate::H(_) => 0,
        Gate::X(_) => 1,
        Gate::Y(_) => 2,
        Gate::Z(_) => 3,
        Gate::S(_) => 4,
        Gate::Sdg(_) => 5,
        Gate::T(_) => 6,
        Gate::Tdg(_) => 7,
        Gate::Rx(..) => 8,
        Gate::Ry(..) => 9,
        Gate::Rz(..) => 10,
        Gate::Phase(..) => 11,
        Gate::Cx(..) => 12,
        Gate::Cz(..) => 13,
        Gate::Cp(..) => 14,
        Gate::Swap(..) => 15,
        Gate::Ccx(..) => 16,
        Gate::Mcx { .. } => 17,
        Gate::McPhase { .. } => 18,
        Gate::ControlledU { .. } => 19,
        Gate::UBlock(_) => 20,
        Gate::XyMix(..) => 21,
        Gate::DiagPhase(..) => 22,
        Gate::ShiftBlock(_) => 23,
    }
}

fn mask_of(qubits: &[usize]) -> u64 {
    qubits.iter().fold(0u64, |m, &q| m | (1 << q))
}

fn shape_atom(gate: &Gate) -> ShapeAtom {
    let tag = gate_tag(gate);
    match gate {
        Gate::DiagPhase(poly, _) => ShapeAtom::Diag(Arc::downgrade(poly)),
        Gate::ControlledU {
            controls,
            target,
            matrix,
        } => {
            let mut bits = [0u64; 8];
            for (slot, c) in bits.chunks_mut(2).zip(matrix.iter().flatten()) {
                slot[0] = c.re.to_bits();
                slot[1] = c.im.to_bits();
            }
            ShapeAtom::CtrlU(mask_of(controls), 1u64 << target, bits)
        }
        Gate::UBlock(b) => {
            let mut full = 0u64;
            let mut v = 0u64;
            for (k, &q) in b.support.iter().enumerate() {
                full |= 1 << q;
                if (b.pattern >> k) & 1 == 1 {
                    v |= 1 << q;
                }
            }
            ShapeAtom::Masks(tag, full, v, 0)
        }
        Gate::ShiftBlock(b) => ShapeAtom::Shift(
            b.full_mask(),
            b.pattern_abs(),
            b.shifts
                .iter()
                .map(|s| (s.mask(), s.delta, s.max_value))
                .collect(),
        ),
        Gate::Cx(a, b) | Gate::Cz(a, b) | Gate::Cp(a, b, _) | Gate::Swap(a, b) => {
            ShapeAtom::Masks(tag, 1u64 << a, 1u64 << b, 0)
        }
        Gate::Ccx(c1, c2, t) => ShapeAtom::Masks(tag, (1u64 << c1) | (1u64 << c2), 1u64 << t, 0),
        Gate::Mcx { controls, target } => {
            ShapeAtom::Masks(tag, mask_of(controls), 1u64 << target, 0)
        }
        Gate::McPhase { qubits, .. } => ShapeAtom::Masks(tag, mask_of(qubits), 0, 0),
        Gate::XyMix(a, b, _) => ShapeAtom::Masks(tag, 1u64 << a, 1u64 << b, 0),
        g1q => ShapeAtom::Masks(tag, 1u64 << qubit_1q(g1q), 0, 0),
    }
}

/// The qubit of a one-qubit gate (without the `Vec` of
/// [`Gate::qubits`], so shape matching stays allocation-free).
fn qubit_1q(gate: &Gate) -> usize {
    match gate {
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
        | Gate::Phase(q, _) => *q,
        other => unreachable!("gate {other} is not a one-qubit gate"),
    }
}

fn atom_matches(atom: &ShapeAtom, gate: &Gate) -> bool {
    match (atom, gate) {
        (ShapeAtom::Diag(weak), Gate::DiagPhase(poly, _)) => {
            weak.upgrade().is_some_and(|live| Arc::ptr_eq(&live, poly))
        }
        (ShapeAtom::Diag(_), _) | (_, Gate::DiagPhase(..)) => false,
        // Compared field by field: building the gate's atom would collect
        // its shifts into a fresh `Vec` on every lookup.
        (ShapeAtom::Shift(full, v, shifts), Gate::ShiftBlock(b)) => {
            (*full, *v) == (b.full_mask(), b.pattern_abs())
                && shifts.len() == b.shifts.len()
                && shifts
                    .iter()
                    .zip(&b.shifts)
                    .all(|(atom, s)| *atom == (s.mask(), s.delta, s.max_value))
        }
        (ShapeAtom::Shift(..), _) | (_, Gate::ShiftBlock(_)) => false,
        (atom, gate) => match (atom, shape_atom(gate)) {
            (ShapeAtom::Masks(t0, a0, b0, c0), ShapeAtom::Masks(t1, a1, b1, c1)) => {
                (*t0, *a0, *b0, *c0) == (t1, a1, b1, c1)
            }
            (ShapeAtom::CtrlU(c0, t0, m0), ShapeAtom::CtrlU(c1, t1, m1)) => {
                (*c0, *t0, *m0) == (c1, t1, m1)
            }
            _ => false,
        },
    }
}

impl CircuitShape {
    /// The shape of a circuit.
    pub(crate) fn of(circuit: &Circuit) -> CircuitShape {
        CircuitShape {
            n_qubits: circuit.n_qubits(),
            atoms: circuit.iter().map(shape_atom).collect(),
        }
    }

    /// `true` when `circuit` has exactly this structure (angles may
    /// differ). Dead diagonal-polynomial weaks never match, so a plan can
    /// never be replayed against a recycled allocation.
    pub(crate) fn matches(&self, circuit: &Circuit) -> bool {
        self.n_qubits == circuit.n_qubits()
            && self.atoms.len() == circuit.len()
            && self
                .atoms
                .iter()
                .zip(circuit.iter())
                .all(|(atom, gate)| atom_matches(atom, gate))
    }

    /// `true` while every diagonal polynomial this shape references is
    /// still alive (dead shapes can never match again and should be
    /// evicted from caches).
    pub(crate) fn is_live(&self) -> bool {
        self.atoms.iter().all(|a| match a {
            ShapeAtom::Diag(weak) => weak.strong_count() > 0,
            _ => true,
        })
    }
}

/// The structural class a gate compiles to (see [`step_spec`]).
enum StepSpec {
    /// Degenerate gate (target among its own controls, `swap(q, q)`).
    Noop,
    /// Phase multiplication on `index & mask == value` (the phase factor
    /// itself comes from the gate at replay time).
    Phase { mask: u64, value: u64 },
    /// A diagonal 2×2 on `target` under `controls`: two independent
    /// subspace scalings.
    DiagPair { controls: u64, target: u64 },
    /// A pair kernel: `(i, i ^ xor)` for `i & fixed == value`.
    Pairs { fixed: u64, value: u64, xor: u64 },
    /// A register-gated pair kernel (generalized commute block): the
    /// partner map comes from the gate's [`crate::gate::ShiftBlock`] at
    /// compile time.
    GatedPairs,
    /// A diagonal polynomial evolution.
    DiagPoly,
}

/// Maps a gate to its structural class, resolved by gate *kind* so the
/// classification is stable under angle changes: `Rz(0)` still
/// compiles as a diagonal, `Rx(0)` still compiles as a general pair
/// (replay applies the identity matrix through the pair expressions,
/// which is an exact IEEE no-op on the amplitudes).
fn step_spec(gate: &Gate) -> StepSpec {
    let pair_1q = |q: usize| StepSpec::Pairs {
        fixed: 1u64 << q,
        value: 0,
        xor: 1u64 << q,
    };
    let diag_1q = |q: usize| StepSpec::DiagPair {
        controls: 0,
        target: 1u64 << q,
    };
    let mcx = |controls: u64, target: usize| {
        let t = 1u64 << target;
        if controls & t != 0 {
            StepSpec::Noop
        } else {
            StepSpec::Pairs {
                fixed: controls | t,
                value: controls,
                xor: t,
            }
        }
    };
    match gate {
        Gate::Cx(c, t) => mcx(1u64 << c, *t),
        Gate::Ccx(c1, c2, t) => mcx((1u64 << c1) | (1u64 << c2), *t),
        Gate::Mcx { controls, target } => mcx(mask_of(controls), *target),
        Gate::Cz(a, b) | Gate::Cp(a, b, _) => {
            let mask = (1u64 << a) | (1u64 << b);
            StepSpec::Phase { mask, value: mask }
        }
        Gate::McPhase { qubits, .. } => {
            let mask = mask_of(qubits);
            StepSpec::Phase { mask, value: mask }
        }
        Gate::Swap(a, b) => {
            if a == b {
                StepSpec::Noop
            } else {
                let (ma, mb) = (1u64 << a, 1u64 << b);
                StepSpec::Pairs {
                    fixed: ma | mb,
                    value: ma,
                    xor: ma | mb,
                }
            }
        }
        Gate::ControlledU {
            controls,
            target,
            matrix,
        } => {
            let mask = mask_of(controls);
            let t = 1u64 << target;
            if mask & t != 0 {
                return StepSpec::Noop;
            }
            // Frozen matrix (part of the shape key): classify by value,
            // exactly like the dense dispatch.
            if matrix[0][1] == Complex64::ZERO && matrix[1][0] == Complex64::ZERO {
                StepSpec::DiagPair {
                    controls: mask,
                    target: t,
                }
            } else {
                StepSpec::Pairs {
                    fixed: mask | t,
                    value: mask,
                    xor: t,
                }
            }
        }
        Gate::UBlock(b) => {
            let ShapeAtom::Masks(_, full, v, _) = shape_atom(gate) else {
                unreachable!("ublock shapes as masks");
            };
            if b.support.is_empty() {
                // Empty support: a global phase e^{-iθ} on every entry.
                StepSpec::Phase { mask: 0, value: 0 }
            } else {
                StepSpec::Pairs {
                    fixed: full,
                    value: v,
                    xor: full,
                }
            }
        }
        Gate::ShiftBlock(b) => {
            if b.shifts.is_empty() {
                // No registers: exactly the UBlock pair step (or the
                // empty-support global phase).
                if b.support.is_empty() {
                    StepSpec::Phase { mask: 0, value: 0 }
                } else {
                    let full = b.full_mask();
                    StepSpec::Pairs {
                        fixed: full,
                        value: b.pattern_abs(),
                        xor: full,
                    }
                }
            } else {
                StepSpec::GatedPairs
            }
        }
        Gate::XyMix(a, b, _) => {
            let full = (1u64 << a) | (1u64 << b);
            StepSpec::Pairs {
                fixed: full,
                value: 1u64 << a,
                xor: full,
            }
        }
        Gate::DiagPhase(..) => StepSpec::DiagPoly,
        // 1q gates, by kind: Z/S/Sdg/T/Tdg/Rz/Phase are diagonal for
        // every angle; H/X/Y/Rx/Ry couple the pair for (almost) every
        // angle and are compiled as pairs unconditionally.
        Gate::Z(q) | Gate::S(q) | Gate::Sdg(q) | Gate::T(q) | Gate::Tdg(q) => diag_1q(*q),
        Gate::Rz(q, _) | Gate::Phase(q, _) => diag_1q(*q),
        Gate::H(q) | Gate::X(q) | Gate::Y(q) => pair_1q(*q),
        Gate::Rx(q, _) | Gate::Ry(q, _) => pair_1q(*q),
    }
}

/// One compiled gate: the precomputed rank tables its replay needs.
#[derive(Debug)]
enum PlanStep {
    /// Degenerate gate: nothing to do.
    Noop,
    /// Multiply `amps[rank]` for every listed rank by a gate-derived
    /// phase factor.
    Phase { ranks: Vec<u32> },
    /// A diagonal 2×2: `ranks0` (target bit 0, controls satisfied) scaled
    /// by `m[0][0]`, `ranks1` (target bit 1) by `m[1][1]`.
    DiagPair { ranks0: Vec<u32>, ranks1: Vec<u32> },
    /// Disjoint rank pairs `(i, j)` for the pair kernels; the 2×2
    /// arithmetic comes from the gate at replay time.
    Pairs { pairs: Vec<[u32; 2]> },
    /// Diagonal polynomial over the ranks where it is non-zero, baked at
    /// compile time (the polynomial never changes under a stable shape —
    /// only the angle θ does). `distinct` / `value_idx` are the
    /// bit-deduplicated value table and each rank's index into it:
    /// structured cost polynomials repeat the same sum over many feasible
    /// states, so replay computes `e^{-iθ·f}` once per *distinct* `f` per
    /// lane instead of once per rank — bit-identical, because equal `f`
    /// bits give an equal `-θ·f` product and therefore equal `cis` bits.
    DiagPoly {
        ranks: Vec<u32>,
        distinct: Vec<f64>,
        value_idx: Vec<u32>,
    },
}

/// Interim step representation during compilation: basis-index (`u64`)
/// lists, converted to ranks once the final basis is known.
enum BitsStep {
    Noop,
    Phase(Vec<u64>),
    DiagPair(Vec<u64>, Vec<u64>),
    Pairs(Vec<[u64; 2]>),
    DiagPoly(Vec<u64>, Vec<f64>),
}

/// A compiled circuit shape: the feasible basis and one [`PlanStep`] per
/// gate. Owned (and cached across optimizer iterations) by
/// [`crate::SimWorkspace`].
#[derive(Debug)]
pub(crate) struct GatePlan {
    shape: CircuitShape,
    basis: Arc<Vec<u64>>,
    steps: Vec<PlanStep>,
}

impl GatePlan {
    /// The shape this plan was compiled from.
    pub(crate) fn shape(&self) -> &CircuitShape {
        &self.shape
    }

    /// The sorted feasible basis `F` the plan's ranks index into.
    pub(crate) fn basis(&self) -> &Arc<Vec<u64>> {
        &self.basis
    }

    /// Compiles a circuit's structure into a replayable plan, aborting
    /// with [`PlanError::TooDense`] as soon as the structural support
    /// exceeds `max_support` entries.
    pub(crate) fn compile(circuit: &Circuit, max_support: usize) -> Result<GatePlan, PlanError> {
        // The forward support pass. `support` stays strictly sorted; it
        // only ever grows (phases keep it, pair kernels add partners).
        let mut support: Vec<u64> = vec![0];
        let mut steps: Vec<BitsStep> = Vec::with_capacity(circuit.len());
        for gate in circuit.iter() {
            let step = match step_spec(gate) {
                StepSpec::Noop => BitsStep::Noop,
                StepSpec::Phase { mask, value } => BitsStep::Phase(
                    support
                        .iter()
                        .copied()
                        .filter(|bits| bits & mask == value)
                        .collect(),
                ),
                StepSpec::DiagPair { controls, target } => {
                    let fixed = controls | target;
                    let pick = |want: u64| -> Vec<u64> {
                        support
                            .iter()
                            .copied()
                            .filter(|bits| bits & fixed == want)
                            .collect()
                    };
                    BitsStep::DiagPair(pick(controls), pick(fixed))
                }
                StepSpec::Pairs { fixed, value, xor } => {
                    // Canonicalize: every touched entry maps to the
                    // pair's `value`-side index; sort+dedup yields each
                    // pair once.
                    let mut canon: Vec<u64> = support
                        .iter()
                        .filter_map(|&bits| {
                            let f = bits & fixed;
                            if f == value {
                                Some(bits)
                            } else if f == value ^ xor {
                                Some(bits ^ xor)
                            } else {
                                None
                            }
                        })
                        .collect();
                    canon.sort_unstable();
                    canon.dedup();
                    let pairs: Vec<[u64; 2]> = canon.iter().map(|&i| [i, i ^ xor]).collect();
                    // Support growth: both members of every pair become
                    // structurally occupied.
                    let mut grown: Vec<u64> =
                        pairs.iter().flat_map(|p| p.iter().copied()).collect();
                    grown.sort_unstable();
                    support = merge_sorted(&support, &grown);
                    if support.len() > max_support {
                        return Err(PlanError::TooDense {
                            support: support.len(),
                        });
                    }
                    BitsStep::Pairs(pairs)
                }
                StepSpec::GatedPairs => {
                    let Gate::ShiftBlock(b) = gate else {
                        unreachable!("GatedPairs spec only from ShiftBlock");
                    };
                    assert!(
                        !b.support.is_empty(),
                        "register-gated block needs support bits"
                    );
                    // Same canonicalization for register-gated pairs:
                    // every eligible touched entry maps to its pair's
                    // source index; sort+dedup yields each pair once.
                    let mut canon: Vec<u64> = support
                        .iter()
                        .filter_map(|&bits| b.source_of(bits))
                        .collect();
                    canon.sort_unstable();
                    canon.dedup();
                    let pairs: Vec<[u64; 2]> = canon
                        .iter()
                        .map(|&i| [i, b.forward(i).expect("canonical source is eligible")])
                        .collect();
                    let mut grown: Vec<u64> =
                        pairs.iter().flat_map(|p| p.iter().copied()).collect();
                    grown.sort_unstable();
                    support = merge_sorted(&support, &grown);
                    if support.len() > max_support {
                        return Err(PlanError::TooDense {
                            support: support.len(),
                        });
                    }
                    BitsStep::Pairs(pairs)
                }
                StepSpec::DiagPoly => {
                    let Gate::DiagPhase(poly, _) = gate else {
                        unreachable!("DiagPoly spec only from DiagPhase");
                    };
                    let mut ranks = Vec::new();
                    let mut values = Vec::new();
                    for &bits in &support {
                        let f = poly.eval_bits(bits);
                        if f != 0.0 {
                            ranks.push(bits);
                            values.push(f);
                        }
                    }
                    BitsStep::DiagPoly(ranks, values)
                }
            };
            steps.push(step);
        }

        // Rank conversion against the final basis.
        let basis = Arc::new(support);
        let rank = |bits: u64| -> u32 {
            basis
                .binary_search(&bits)
                .expect("every recorded index is in the final basis") as u32
        };
        let ranks = |bits: Vec<u64>| -> Vec<u32> { bits.into_iter().map(rank).collect() };
        let steps = steps
            .into_iter()
            .map(|s| match s {
                BitsStep::Noop => PlanStep::Noop,
                BitsStep::Phase(bits) => PlanStep::Phase { ranks: ranks(bits) },
                BitsStep::DiagPair(b0, b1) => PlanStep::DiagPair {
                    ranks0: ranks(b0),
                    ranks1: ranks(b1),
                },
                BitsStep::Pairs(pairs) => PlanStep::Pairs {
                    pairs: pairs.into_iter().map(|[i, j]| [rank(i), rank(j)]).collect(),
                },
                BitsStep::DiagPoly(bits, values) => {
                    let (distinct, value_idx) = kernels::dedup_values(&values);
                    PlanStep::DiagPoly {
                        ranks: ranks(bits),
                        distinct,
                        value_idx,
                    }
                }
            })
            .collect();
        Ok(GatePlan {
            shape: CircuitShape::of(circuit),
            basis,
            steps,
        })
    }

    /// Number of steps: one per gate of the compiled shape.
    pub(crate) fn len(&self) -> usize {
        self.steps.len()
    }

    /// Applies step `index` of the plan to `K = circuits.len()` amplitude
    /// lanes, reading each lane's angles and matrices from gate `index` of
    /// its own circuit. `amps` is the rank-major layout
    /// `amps[rank * K + lane]` of length `K·|F|`: the K lanes of one basis
    /// rank are contiguous, so the step's rank tables are traversed once
    /// while the inner loops run over the lanes. A serial run is the
    /// one-lane case.
    ///
    /// Every lane resolves its own kernel from its own gate's values (an
    /// `Rx(0)` lane takes the diagonal branch while an `Rx(0.5)` lane of
    /// the same step takes the general one) and evaluates the same
    /// [`PairKernel`] expressions as the dense engine, so a lane's
    /// amplitudes depend on neither the other lanes, the lane count nor the
    /// thread count. The caller must have verified
    /// `self.shape().matches(c)` for every circuit.
    ///
    /// # Panics
    ///
    /// Panics if `index` is past the plan, the batch is empty, the
    /// amplitude length is not `K·|F|`, or a gate is not the kind its step
    /// was compiled from.
    pub(crate) fn apply_step(
        &self,
        index: usize,
        circuits: &[Circuit],
        amps: &mut [Complex64],
        scratch: &mut LaneScratch,
        config: &SimConfig,
    ) {
        let lanes = circuits.len();
        assert!(lanes > 0, "empty batch");
        assert_eq!(
            amps.len(),
            lanes * self.basis.len(),
            "amplitude length mismatch"
        );
        let gates = circuits.iter().map(|c| &c.gates()[index]);
        match &self.steps[index] {
            PlanStep::Noop => {}
            PlanStep::Phase { ranks } => {
                scratch.factors.clear();
                scratch.factors.extend(gates.map(phase_factor));
                scale_ranks(amps, ranks, &scratch.factors, config, |a, f| a * f);
            }
            PlanStep::DiagPair { ranks0, ranks1 } => {
                scratch.factors.clear();
                scratch.factors1.clear();
                for gate in gates {
                    let m = gate_matrix_1q(gate);
                    scratch.factors.push(m[0][0]);
                    scratch.factors1.push(m[1][1]);
                }
                for (diag, ranks) in [(&scratch.factors, ranks0), (&scratch.factors1, ranks1)] {
                    if diag.iter().any(|d| *d != Complex64::ONE) {
                        scale_ranks(amps, ranks, diag, config, kernels::scale_unless_one);
                    }
                }
            }
            PlanStep::Pairs { pairs } => {
                scratch.kernels.clear();
                scratch.sins.clear();
                scratch.coss.clear();
                for gate in gates {
                    let kernel = pair_kernel(gate);
                    if let PairKernel::Rot { sin, cos } = kernel {
                        scratch.sins.push(sin);
                        scratch.coss.push(cos);
                    }
                    scratch.kernels.push(kernel);
                }
                // The hot Choco-Q case — every lane a commute-block
                // rotation — runs on flat sin/cos lane arrays instead of
                // per-lane kernel dispatch.
                if scratch.sins.len() == lanes {
                    apply_rotations(amps, pairs, &scratch.sins, &scratch.coss, config);
                } else {
                    apply_pairs(amps, pairs, &scratch.kernels, config);
                }
            }
            PlanStep::DiagPoly {
                ranks,
                distinct,
                value_idx,
            } => {
                scratch.thetas.clear();
                scratch.thetas.extend(gates.map(|gate| {
                    let Gate::DiagPhase(_, theta) = gate else {
                        panic!("shape mismatch: expected a diagonal evolution, got {gate}");
                    };
                    *theta
                }));
                apply_diag(
                    amps,
                    ranks,
                    distinct,
                    value_idx,
                    &scratch.thetas,
                    &mut scratch.factor_table,
                    config,
                );
            }
        }
    }
}

/// Merges two sorted, deduplicated index lists (the second may contain
/// duplicates of the first).
fn merge_sorted(a: &[u64], b: &[u64]) -> Vec<u64> {
    let mut out: Vec<u64> = Vec::with_capacity(a.len() + b.len());
    let push = |out: &mut Vec<u64>, x: u64| {
        if out.last() != Some(&x) {
            out.push(x);
        }
    };
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i] <= b[j] {
            push(&mut out, a[i]);
            i += 1;
        } else {
            push(&mut out, b[j]);
            j += 1;
        }
    }
    for &x in &a[i..] {
        push(&mut out, x);
    }
    for &x in &b[j..] {
        push(&mut out, x);
    }
    out
}

/// The phase factor of a [`PlanStep::Phase`] gate — the same expressions
/// the dense engine's phase kernels use.
fn phase_factor(gate: &Gate) -> Complex64 {
    match gate {
        Gate::Cz(..) => Complex64::cis(std::f64::consts::PI),
        Gate::Cp(_, _, theta) => Complex64::cis(*theta),
        Gate::McPhase { angle, .. } => Complex64::cis(*angle),
        // Empty-support commute block: the global phase e^{-iθ}.
        Gate::UBlock(b) => Complex64::cis(-b.angle),
        Gate::ShiftBlock(b) => Complex64::cis(-b.angle),
        other => panic!("gate {other} is not a phase step"),
    }
}

/// The 2×2 matrix a [`PlanStep::DiagPair`] / 1q [`PlanStep::Pairs`] step
/// reads at replay.
fn gate_matrix_1q(gate: &Gate) -> [[Complex64; 2]; 2] {
    match gate {
        Gate::ControlledU { matrix, .. } => *matrix,
        g1q => g1q
            .matrix_1q()
            .unwrap_or_else(|| panic!("gate {g1q} has no 2×2 matrix")),
    }
}

/// The kernel a [`PlanStep::Pairs`] gate applies, resolved from its
/// current values exactly as the dense engine resolves it.
fn pair_kernel(gate: &Gate) -> PairKernel {
    match gate {
        Gate::Cx(..) | Gate::Ccx(..) | Gate::Mcx { .. } | Gate::Swap(..) => PairKernel::Swap,
        Gate::UBlock(b) => PairKernel::rotation(b.angle),
        Gate::ShiftBlock(b) => PairKernel::rotation(b.angle),
        // XX+YY = 2(|01⟩⟨10| + |10⟩⟨01|): the doubled angle.
        Gate::XyMix(_, _, theta) => PairKernel::rotation(2.0 * theta),
        g => PairKernel::of_matrix(gate_matrix_1q(g)),
    }
}

/// Reusable per-step lane-parameter buffers for [`GatePlan::apply_step`]:
/// after the first replay of a shape at a lane count, no replay
/// allocates.
#[derive(Clone, Debug, Default)]
pub(crate) struct LaneScratch {
    /// Per-lane phase factors, or `m[0][0]` of a diagonal 2×2.
    factors: Vec<Complex64>,
    /// Per-lane `m[1][1]` of a diagonal 2×2.
    factors1: Vec<Complex64>,
    thetas: Vec<f64>,
    kernels: Vec<PairKernel>,
    /// Flat per-lane rotation parameters for the all-rotation pair loop.
    sins: Vec<f64>,
    coss: Vec<f64>,
    /// The `distinct × lanes` diagonal factor table (`value`-major, lane
    /// contiguous) rebuilt per diagonal step.
    factor_table: Vec<Complex64>,
}

/// Updates every listed rank's K lanes to `op(amp, factor)` with the
/// per-lane factors. Ranks within one list are distinct and workers chunk
/// over ranks, so every `rank × lane` slot has exactly one writer.
fn scale_ranks(
    amps: &mut [Complex64],
    ranks: &[u32],
    factors: &[Complex64],
    config: &SimConfig,
    op: impl Fn(Complex64, Complex64) -> Complex64 + Sync,
) {
    let lanes = factors.len();
    let ptr = AmpPtr(amps.as_mut_ptr());
    dispatch(config, ranks.len(), |range| {
        let base = ptr.get();
        for &r in &ranks[range] {
            // SAFETY: ranks in-bounds and distinct within the list;
            // worker chunks partition the rank list, and each worker owns
            // all K lanes of its ranks.
            unsafe {
                let row = base.add(r as usize * lanes);
                for (lane, &f) in factors.iter().enumerate() {
                    let a = row.add(lane);
                    *a = op(*a, f);
                }
            }
        }
    });
}

/// Applies `e^{-iθ_lane·f}` to every listed rank's lanes (the `f != 0`
/// filter already happened at compile time, mirroring the dense engine's
/// per-amplitude branch).
///
/// The transcendental work is hoisted out of the rank loop: `e^{-iθ·f}`
/// is computed once per *distinct* polynomial value per lane into
/// `table` (value-major, lanes contiguous), and the rank loop becomes a
/// contiguous row-by-row complex multiply. Structured cost polynomials
/// repeat a handful of sums across the whole feasible set, so this
/// replaces `|F|` sin/cos evaluations per lane with `|distinct|` — the
/// factor bits are unchanged (equal `f` bits ⇒ equal `-θ·f` ⇒ equal
/// `cis`), so every lane stays bit-identical to the dense engine.
fn apply_diag(
    amps: &mut [Complex64],
    ranks: &[u32],
    distinct: &[f64],
    value_idx: &[u32],
    thetas: &[f64],
    table: &mut Vec<Complex64>,
    config: &SimConfig,
) {
    debug_assert_eq!(ranks.len(), value_idx.len());
    let lanes = thetas.len();
    table.clear();
    table.reserve(distinct.len() * lanes);
    for &f in distinct {
        for &theta in thetas {
            table.push(Complex64::cis(-theta * f));
        }
    }
    let table = &*table;
    let ptr = AmpPtr(amps.as_mut_ptr());
    dispatch(config, ranks.len(), |range| {
        let base = ptr.get();
        for (&r, &fi) in ranks[range.clone()].iter().zip(value_idx[range].iter()) {
            let factors = &table[fi as usize * lanes..fi as usize * lanes + lanes];
            // SAFETY: as in `scale_ranks`.
            unsafe {
                let row = base.add(r as usize * lanes);
                for (lane, &factor) in factors.iter().enumerate() {
                    *row.add(lane) *= factor;
                }
            }
        }
    });
}

/// The all-rotation pair step: every lane is a commute-block rotation
/// ([`kernels::rotate`]). The lane dimension is tiled in blocks of up to
/// four: a tile's `sin`/`cos` values stay register-resident across the
/// whole pair-table pass (a lane-minor loop over all K spills them every
/// iteration), while each pass still consumes contiguous quarter-rows of
/// the rank-major layout (a fully lane-major loop would stream every cache
/// line K times for one lane's worth of work).
fn apply_rotations(
    amps: &mut [Complex64],
    pairs: &[[u32; 2]],
    sins: &[f64],
    coss: &[f64],
    config: &SimConfig,
) {
    let lanes = sins.len();
    let ptr = AmpPtr(amps.as_mut_ptr());
    dispatch(config, pairs.len(), |range| {
        let (base, pairs) = (ptr.get(), &pairs[range]);
        let mut start = 0;
        while start < lanes {
            let width = (lanes - start).min(4);
            let (s, c) = (&sins[start..start + width], &coss[start..start + width]);
            // SAFETY: pairs disjoint, ranks in-bounds; worker chunks
            // partition the pair list and own all K lanes of their pairs,
            // and `start + width <= lanes`.
            unsafe {
                match width {
                    4 => rotate_tile::<4>(base, pairs, lanes, start, s, c),
                    3 => rotate_tile::<3>(base, pairs, lanes, start, s, c),
                    2 => rotate_tile::<2>(base, pairs, lanes, start, s, c),
                    _ => rotate_tile::<1>(base, pairs, lanes, start, s, c),
                }
            }
            start += width;
        }
    });
}

/// One pass of the pair table over lanes `start..start + W`, with the
/// tile's `W` rotations held in fixed-size arrays.
///
/// # Safety
///
/// `base` must point at a rank-major buffer of `lanes` lanes holding every
/// rank in `pairs`, the pairs must be disjoint, no other thread may touch
/// their slots, and `start + W <= lanes`.
#[inline(always)]
unsafe fn rotate_tile<const W: usize>(
    base: *mut Complex64,
    pairs: &[[u32; 2]],
    lanes: usize,
    start: usize,
    sins: &[f64],
    coss: &[f64],
) {
    let s: [f64; W] = sins.try_into().expect("tile width");
    let c: [f64; W] = coss.try_into().expect("tile width");
    for p in pairs {
        let row_a = base.add(p[0] as usize * lanes + start);
        let row_b = base.add(p[1] as usize * lanes + start);
        for lane in 0..W {
            let (pa, pb) = (row_a.add(lane), row_b.add(lane));
            let (a, b) = kernels::rotate(s[lane], c[lane], *pa, *pb);
            *pa = a;
            *pb = b;
        }
    }
}

/// The general pair step: one traversal of the pair table updates all K
/// lanes, each through its own [`PairKernel`] (all-rotation steps take
/// [`apply_rotations`] instead).
fn apply_pairs(
    amps: &mut [Complex64],
    pairs: &[[u32; 2]],
    kernels: &[PairKernel],
    config: &SimConfig,
) {
    let lanes = kernels.len();
    let ptr = AmpPtr(amps.as_mut_ptr());
    dispatch(config, pairs.len(), |range| {
        let base = ptr.get();
        for p in &pairs[range] {
            // SAFETY: pairs disjoint, ranks in-bounds; worker chunks
            // partition the pair list and own all K lanes of their pairs.
            unsafe {
                let row_a = base.add(p[0] as usize * lanes);
                let row_b = base.add(p[1] as usize * lanes);
                for (lane, k) in kernels.iter().enumerate() {
                    let (pa, pb) = (row_a.add(lane), row_b.add(lane));
                    let (a, b) = k.apply(*pa, *pb);
                    *pa = a;
                    *pb = b;
                }
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::UBlock;
    use crate::state::StateVector;

    fn test_poly() -> Arc<PhasePoly> {
        let mut poly = PhasePoly::new(4);
        poly.add_linear(1, 0.7);
        poly.add_quadratic(0, 3, -0.4);
        Arc::new(poly)
    }

    fn confined_circuit_with(poly: &Arc<PhasePoly>, theta: f64) -> Circuit {
        let mut c = Circuit::new(4);
        c.load_bits(0b0101);
        c.diag(poly.clone(), theta);
        c.ublock(UBlock::from_u_with_angle(&[1, -1, 0, 1], 0.5));
        c.ublock(UBlock::from_u_with_angle(&[0, 1, -1, -1], theta));
        c
    }

    fn confined_circuit(theta: f64) -> Circuit {
        confined_circuit_with(&test_poly(), theta)
    }

    /// Replays `plan` from `|0…0⟩` over one lane per circuit and returns
    /// the rank-major amplitudes.
    fn replay(circuits: &[Circuit], plan: &GatePlan, config: &SimConfig) -> Vec<Complex64> {
        let k = circuits.len();
        let mut amps = vec![Complex64::ZERO; k * plan.basis().len()];
        amps[..k].fill(Complex64::ONE); // rank 0, every lane
        let mut scratch = LaneScratch::default();
        for index in 0..plan.len() {
            plan.apply_step(index, circuits, &mut amps, &mut scratch, config);
        }
        amps
    }

    fn run_plan(circuit: &Circuit, plan: &GatePlan) -> Vec<Complex64> {
        replay(std::slice::from_ref(circuit), plan, &SimConfig::serial())
    }

    /// Asserts the plan replay equals the dense engine bit for bit on
    /// the feasible basis, and that the dense state is zero off it.
    fn assert_matches_dense(circuit: &Circuit, plan: &GatePlan, amps: &[Complex64]) {
        let dense = StateVector::run(circuit);
        for (rank, &bits) in plan.basis().iter().enumerate() {
            let (a, b) = (amps[rank], dense.amplitude(bits));
            assert!(a.re == b.re && a.im == b.im, "bits={bits}: {a} vs {b}");
        }
        let off_basis = (0..1u64 << circuit.n_qubits())
            .filter(|bits| plan.basis().binary_search(bits).is_err())
            .all(|bits| dense.amplitude(bits) == Complex64::ZERO);
        assert!(off_basis, "dense state leaves the compiled basis");
    }

    #[test]
    fn plan_replay_is_bit_identical_to_dense() {
        let circuit = confined_circuit(0.9);
        let plan = GatePlan::compile(&circuit, 1 << 10).unwrap();
        let amps = run_plan(&circuit, &plan);
        assert_matches_dense(&circuit, &plan, &amps);
    }

    /// Compiles and replays `circuit` from `|0…0⟩`, asserting bit-identity
    /// with the dense engine; returns the plan and its amplitudes.
    fn replay_matches_dense(circuit: &Circuit) -> (GatePlan, Vec<Complex64>) {
        let plan = GatePlan::compile(circuit, 1 << 12).unwrap();
        let amps = run_plan(circuit, &plan);
        assert_matches_dense(circuit, &plan, &amps);
        (plan, amps)
    }

    #[test]
    fn mixed_circuit_matches_dense_engine() {
        // Every gate kind the IR has, on one register.
        let mut poly = PhasePoly::new(5);
        poly.add_constant(0.3);
        poly.add_linear(0, 1.0);
        poly.add_linear(4, -0.8);
        poly.add_quadratic(1, 3, 0.6);
        let mut c = Circuit::new(5);
        c.h(0)
            .h(3)
            .ry(1, 0.7)
            .rx(2, -0.4)
            .rz(0, 1.2)
            .p(4, 0.8)
            .cx(0, 1)
            .cz(1, 2)
            .cp(2, 4, -0.6)
            .ccx(0, 1, 4)
            .mcx(vec![0, 2], 3)
            .mcphase(vec![1, 2, 4], 0.9)
            .xy(1, 4, 0.35)
            .ublock(UBlock::from_u_with_angle(&[1, 0, -1, 1, -1], 0.55))
            .diag(Arc::new(poly), 0.75)
            .push(Gate::Swap(0, 4))
            .push(Gate::Y(2));
        replay_matches_dense(&c);
    }

    #[test]
    fn controlled_u_and_all_1q_shapes_match_oracle() {
        let mut c = Circuit::new(3);
        c.h(0).h(2);
        c.push(Gate::S(0)); // diagonal
        c.push(Gate::X(1)); // anti-diagonal
        c.push(Gate::Ry(2, 0.9)); // real
        c.push(Gate::ControlledU {
            controls: vec![0],
            target: 2,
            matrix: Gate::Rx(2, 0.4).matrix_1q().unwrap(), // general complex
        });
        let (plan, amps) = replay_matches_dense(&c);
        let oracle = crate::oracle::ScalarStateVector::run(&c);
        for (bits, &a) in oracle.amplitudes().iter().enumerate() {
            let got = match plan.basis().binary_search(&(bits as u64)) {
                Ok(rank) => amps[rank],
                Err(_) => Complex64::ZERO,
            };
            assert!(got.approx_eq(a, 1e-12), "bits={bits}");
        }
    }

    #[test]
    fn ublock_stays_in_pattern_pair() {
        // On the block's pattern the state spreads over the pair; off it
        // the block touches nothing.
        for (start, occupied) in [(0b101u64, 2usize), (0b111, 1)] {
            let mut c = Circuit::new(3);
            c.load_bits(start);
            c.ublock(UBlock::from_u_with_angle(&[1, -1, 1], 1.3));
            let (_, amps) = replay_matches_dense(&c);
            let nonzero = amps.iter().filter(|a| **a != Complex64::ZERO).count();
            assert_eq!(nonzero, occupied, "start={start:03b}");
            let norm: f64 = amps.iter().map(|a| a.norm_sqr()).sum();
            assert!((norm - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn empty_support_ublock_is_a_global_phase() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        c.ublock(UBlock {
            support: vec![],
            pattern: 0,
            angle: 0.3,
        });
        let (_, amps) = replay_matches_dense(&c);
        let want = Complex64::cis(-0.3).scale(std::f64::consts::FRAC_1_SQRT_2);
        assert!(amps[0].approx_eq(want, 1e-12));
    }

    #[test]
    fn rotation_transfers_amplitude_to_inserted_partner() {
        let mut c = Circuit::new(2);
        c.load_bits(0b01);
        // Quarter turn: all amplitude transfers to the partner |10⟩.
        c.ublock(UBlock::from_u_with_angle(
            &[1, -1],
            std::f64::consts::FRAC_PI_2,
        ));
        let (plan, amps) = replay_matches_dense(&c);
        let rank = plan.basis().binary_search(&0b10).unwrap();
        assert!(amps[rank].approx_eq(Complex64::new(0.0, -1.0), 1e-12));
    }

    #[test]
    fn one_plan_replays_many_angle_sets() {
        // The point of the compile-once design: the same plan serves
        // every iteration's angles (the polynomial Arc — part of the
        // shape identity — is shared, as the solver's build closure does).
        let poly = test_poly();
        let plan = GatePlan::compile(&confined_circuit_with(&poly, 0.1), 1 << 10).unwrap();
        for theta in [0.0, 0.3, -1.2, 2.8] {
            let circuit = confined_circuit_with(&poly, theta);
            assert!(plan.shape().matches(&circuit), "theta={theta}");
            let amps = run_plan(&circuit, &plan);
            assert_matches_dense(&circuit, &plan, &amps);
        }
    }

    #[test]
    fn shape_mismatch_is_detected() {
        let circuit = confined_circuit(0.4);
        let plan = GatePlan::compile(&circuit, 1 << 10).unwrap();
        // Different structure: one more gate.
        let mut longer = confined_circuit(0.4);
        longer.x(0);
        assert!(!plan.shape().matches(&longer));
        // Different polynomial allocation with identical values.
        let other = confined_circuit(0.4);
        assert!(
            !plan.shape().matches(&other),
            "distinct Arc allocations must not share a plan"
        );
        // Same circuit object still matches.
        assert!(plan.shape().matches(&circuit));
    }

    #[test]
    fn dense_shapes_abort_compilation() {
        let mut c = Circuit::new(6);
        for q in 0..6 {
            c.h(q);
        }
        let err = GatePlan::compile(&c, 8).unwrap_err();
        let PlanError::TooDense { support } = err;
        assert!(support > 8, "support {support}");
    }

    #[test]
    fn degenerate_gates_compile_to_noops() {
        let mut c = Circuit::new(2);
        c.h(0).h(1);
        c.push(Gate::Cx(0, 0));
        c.push(Gate::Swap(1, 1));
        c.push(Gate::Ccx(0, 1, 1));
        let (plan, _) = replay_matches_dense(&c);
        for step in 2..5 {
            assert!(matches!(plan.steps[step], PlanStep::Noop), "step {step}");
        }
    }

    #[test]
    fn basis_permutations_keep_occupancy_one() {
        let mut c = Circuit::new(3);
        c.load_bits(0b011);
        c.x(2).cx(0, 1);
        c.push(Gate::Swap(0, 2));
        let (_, amps) = replay_matches_dense(&c);
        let nonzero = amps.iter().filter(|a| **a != Complex64::ZERO).count();
        assert_eq!(nonzero, 1, "permutations never spread amplitude");
    }

    #[test]
    fn hadamard_grows_support_on_demand() {
        // H·H interferes back to |0⟩: the plan's basis keeps the partner
        // slots, but they hold exact zeros, so per-gate support counts
        // equal the dense engine's.
        let mut c = Circuit::new(3);
        c.h(0).h(1).h(1).h(0);
        let (plan, amps) = replay_matches_dense(&c);
        assert_eq!(plan.basis().len(), 4);
        assert!(amps[0].approx_eq(Complex64::ONE, 1e-12));
        assert!(amps[1..].iter().all(|a| *a == Complex64::ZERO));
    }

    #[test]
    fn merge_sorted_handles_overlap() {
        assert_eq!(merge_sorted(&[1, 3, 5], &[2, 3, 3, 6]), vec![1, 2, 3, 5, 6]);
        assert_eq!(merge_sorted(&[], &[4, 4]), vec![4]);
        assert_eq!(merge_sorted(&[7], &[]), vec![7]);
    }

    /// Replays the batch and asserts every lane is bit-identical to a
    /// one-lane replay of its own circuit, which matches the dense engine.
    fn assert_batch_matches_serial(circuits: &[Circuit], plan: &GatePlan, config: &SimConfig) {
        let k = circuits.len();
        let f = plan.basis().len();
        let batched = replay(circuits, plan, config);
        for (lane, circuit) in circuits.iter().enumerate() {
            let serial = run_plan(circuit, plan);
            assert_matches_dense(circuit, plan, &serial);
            for rank in 0..f {
                let (a, b) = (batched[rank * k + lane], serial[rank]);
                assert!(
                    a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits(),
                    "lane={lane} rank={rank}: batched {a} vs serial {b}"
                );
            }
        }
    }

    #[test]
    fn batched_replay_is_bit_identical_per_lane() {
        let poly = test_poly();
        let plan = GatePlan::compile(&confined_circuit_with(&poly, 0.1), 1 << 10).unwrap();
        let circuits: Vec<Circuit> = [0.0, 0.3, -1.2, 2.8, 0.9]
            .iter()
            .map(|&t| confined_circuit_with(&poly, t))
            .collect();
        for threads in [1, 2, 4] {
            let config = SimConfig {
                threads,
                parallel_threshold: 1,
                ..SimConfig::default()
            };
            assert_batch_matches_serial(&circuits, &plan, &config);
        }
    }

    #[test]
    fn mixed_kernel_lanes_take_their_own_serial_branches() {
        // One shape, three angle sets: θ = 0 resolves Rx to the diagonal
        // identity branch, θ = π to the anti-diagonal branch, anything
        // else to the generic complex branch — all inside one batch, next
        // to Ry's real branch, H's fixed real matrix, and phase steps.
        let build = |theta: f64| {
            let mut c = Circuit::new(3);
            c.h(0);
            c.rx(1, theta);
            c.ry(2, theta * 0.5);
            c.rz(0, theta);
            c.cz(0, 1);
            c.cx(1, 2);
            c.p(2, theta);
            c
        };
        let plan = GatePlan::compile(&build(0.7), 1 << 10).unwrap();
        let circuits: Vec<Circuit> = [0.0, std::f64::consts::PI, 0.7]
            .iter()
            .map(|&t| build(t))
            .collect();
        for c in &circuits {
            assert!(plan.shape().matches(c));
        }
        for threads in [1, 2] {
            let config = SimConfig {
                threads,
                parallel_threshold: 1,
                ..SimConfig::default()
            };
            assert_batch_matches_serial(&circuits, &plan, &config);
        }
    }

    #[test]
    fn batch_wider_than_the_basis_is_fine() {
        // K = 17 lanes on a tiny feasible subspace (K > |F|) — the lane
        // layout is rank-major, so nothing special happens; the loops just
        // run more lanes than ranks.
        let poly = test_poly();
        let plan = GatePlan::compile(&confined_circuit_with(&poly, 0.1), 1 << 10).unwrap();
        let circuits: Vec<Circuit> = (0..17)
            .map(|i| confined_circuit_with(&poly, 0.05 * i as f64 - 0.4))
            .collect();
        assert!(circuits.len() > plan.basis().len());
        assert_batch_matches_serial(&circuits, &plan, &SimConfig::serial());
    }
}
