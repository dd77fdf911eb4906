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
//!    into `F` — scatter/gather pair lists, subspace rank lists, per-rank
//!    diagonal polynomial values.
//!
//! Replay ([`GatePlan::apply_step`], gate by gate) then walks the
//! *current* circuit in lockstep with the steps, reading angles/matrices
//! from the gates and ranks from the plan: cache-friendly strided loops
//! over a flat `Vec<Complex64>` of length `|F|`, threaded through
//! [`SimConfig::effective_threads`], with zero map operations and zero
//! allocations. Every arithmetic expression mirrors the dense engine
//! operand for operand, so the two engines stay bit-identical —
//! structurally-supported slots that are numerically zero hold exact
//! zeros here and contribute exact IEEE no-ops to every kernel.
//!
//! Compilation *fails over* instead of compiling pathological shapes:
//! once the structural support crosses [`SimConfig::density_threshold`]
//! of the register, [`PlanError`] is returned and [`crate::SimWorkspace`]
//! runs the circuit on the dense engine instead.

use crate::circuit::Circuit;
use crate::gate::Gate;
use crate::kernels::{dispatch, AmpPtr};
use crate::phasepoly::PhasePoly;
use crate::simconfig::SimConfig;
use choco_mathkit::Complex64;
use std::collections::HashMap;
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
        g1q => ShapeAtom::Masks(tag, 1u64 << g1q.qubits()[0], 0, 0),
    }
}

fn atom_matches(atom: &ShapeAtom, gate: &Gate) -> bool {
    match (atom, gate) {
        (ShapeAtom::Diag(weak), Gate::DiagPhase(poly, _)) => {
            weak.upgrade().is_some_and(|live| Arc::ptr_eq(&live, poly))
        }
        (ShapeAtom::Diag(_), _) | (_, Gate::DiagPhase(..)) => false,
        (atom, gate) => match (atom, shape_atom(gate)) {
            (ShapeAtom::Masks(t0, a0, b0, c0), ShapeAtom::Masks(t1, a1, b1, c1)) => {
                (*t0, *a0, *b0, *c0) == (t1, a1, b1, c1)
            }
            (ShapeAtom::CtrlU(c0, t0, m0), ShapeAtom::CtrlU(c1, t1, m1)) => {
                (*c0, *t0, *m0) == (c1, t1, m1)
            }
            (ShapeAtom::Shift(f0, v0, s0), ShapeAtom::Shift(f1, v1, s1)) => {
                (*f0, *v0) == (f1, v1) && *s0 == s1
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
    /// Diagonal polynomial: per-rank non-zero values, baked at compile
    /// time (the polynomial never changes under a stable shape — only the
    /// angle θ does). `distinct` / `value_idx` are the bit-deduplicated
    /// value table and each rank's index into it: structured cost
    /// polynomials repeat the same sum over many feasible states, so the
    /// batched replay computes `e^{-iθ·f}` once per *distinct* `f` per
    /// lane instead of once per rank — bit-identical, because equal `f`
    /// bits give an equal `-θ·f` product and therefore equal `cis` bits.
    DiagPoly {
        ranks: Vec<u32>,
        values: Vec<f64>,
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
                    let mut distinct: Vec<f64> = Vec::new();
                    let mut slot_of: HashMap<u64, u32> = HashMap::new();
                    let value_idx: Vec<u32> = values
                        .iter()
                        .map(|&f| {
                            *slot_of.entry(f.to_bits()).or_insert_with(|| {
                                distinct.push(f);
                                (distinct.len() - 1) as u32
                            })
                        })
                        .collect();
                    PlanStep::DiagPoly {
                        ranks: ranks(bits),
                        values,
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

    /// Replays the plan over `amps` (length `|F|`), reading angles and
    /// matrices from `circuit`'s gates. The caller must have verified
    /// `self.shape().matches(circuit)`.
    ///
    /// # Panics
    ///
    /// Panics if the gate count or amplitude length disagree with the
    /// plan (a shape-match violation).
    #[cfg(test)]
    pub(crate) fn execute(&self, circuit: &Circuit, amps: &mut [Complex64], config: &SimConfig) {
        assert_eq!(circuit.len(), self.steps.len(), "shape mismatch");
        for (index, gate) in circuit.iter().enumerate() {
            self.apply_step(index, gate, amps, config);
        }
    }

    /// Applies step `index` of the plan to `amps` (length `|F|`), reading
    /// angles and matrices from `gate` — gate `index` of a circuit whose
    /// shape matches this plan. [`crate::SimWorkspace`] replays a circuit
    /// by calling this for every gate in order.
    ///
    /// # Panics
    ///
    /// Panics if `index` is past the plan, the amplitude length is not
    /// `|F|`, or `gate` is not the kind the step was compiled from.
    pub(crate) fn apply_step(
        &self,
        index: usize,
        gate: &Gate,
        amps: &mut [Complex64],
        config: &SimConfig,
    ) {
        assert_eq!(amps.len(), self.basis.len(), "basis length mismatch");
        match &self.steps[index] {
            PlanStep::Noop => {}
            PlanStep::Phase { ranks } => {
                let phase = phase_factor(gate);
                scale_ranks(amps, ranks, phase, config);
            }
            PlanStep::DiagPair { ranks0, ranks1 } => {
                let m = gate_matrix_1q(gate);
                for (d, ranks) in [(m[0][0], ranks0), (m[1][1], ranks1)] {
                    if d != Complex64::ONE {
                        scale_ranks(amps, ranks, d, config);
                    }
                }
            }
            PlanStep::Pairs { pairs } => apply_pairs(amps, pairs, gate, config),
            PlanStep::DiagPoly { ranks, values, .. } => {
                let Gate::DiagPhase(_, theta) = gate else {
                    panic!("shape mismatch: expected a diagonal evolution, got {gate}");
                };
                apply_diag(amps, ranks, values, *theta, config);
            }
        }
    }

    /// Replays the plan over `K = circuits.len()` amplitude lanes in a
    /// single pass over the rank tables. `amps` is the rank-major SoA
    /// layout `amps[rank * K + lane]` of length `K·|F|` — all K candidates
    /// for one basis rank are contiguous, so the rank/pair tables are
    /// traversed once while the inner loops run over the K lanes.
    ///
    /// Every lane evaluates *exactly* the arithmetic expression sequence
    /// the serial replay ([`GatePlan::apply_step`]) would apply to it
    /// alone — including the value-based kernel dispatch per lane (an `Rx(0)` lane takes the
    /// diagonal branch while an `Rx(0.5)` lane takes the real-matrix
    /// branch of the same step) — so batched amplitudes are bit-identical
    /// to K sequential replays at any thread count. The caller must have
    /// verified `self.shape().matches(c)` for every circuit.
    ///
    /// # Panics
    ///
    /// Panics if the batch is empty, a gate count disagrees with the
    /// plan, or the amplitude length is not `K·|F|`.
    pub(crate) fn execute_batch(
        &self,
        circuits: &[Circuit],
        amps: &mut [Complex64],
        scratch: &mut BatchScratch,
        config: &SimConfig,
    ) {
        let lanes = circuits.len();
        assert!(lanes > 0, "empty batch");
        assert_eq!(
            amps.len(),
            lanes * self.basis.len(),
            "batch amplitude length mismatch"
        );
        for c in circuits {
            assert_eq!(c.len(), self.steps.len(), "shape mismatch");
        }
        for (gi, step) in self.steps.iter().enumerate() {
            let gate_of = |lane: usize| &circuits[lane].gates()[gi];
            match step {
                PlanStep::Noop => {}
                PlanStep::Phase { ranks } => {
                    scratch.factors.clear();
                    scratch
                        .factors
                        .extend((0..lanes).map(|lane| phase_factor(gate_of(lane))));
                    scale_ranks_batch(amps, ranks, &scratch.factors, config);
                }
                PlanStep::DiagPair { ranks0, ranks1 } => {
                    scratch.diag0.clear();
                    scratch.diag1.clear();
                    for lane in 0..lanes {
                        let m = gate_matrix_1q(gate_of(lane));
                        scratch.diag0.push(m[0][0]);
                        scratch.diag1.push(m[1][1]);
                    }
                    for (diag, ranks) in [(&scratch.diag0, ranks0), (&scratch.diag1, ranks1)] {
                        // The serial path skips the scaling when the
                        // diagonal entry is exactly one (a multiply by one
                        // is not an IEEE no-op once `-0.0` is in play);
                        // the skip moves inside the lane loop here.
                        if diag.iter().any(|d| *d != Complex64::ONE) {
                            scale_ranks_batch_skip_one(amps, ranks, diag, config);
                        }
                    }
                }
                PlanStep::Pairs { pairs } => {
                    scratch.kernels.clear();
                    scratch
                        .kernels
                        .extend((0..lanes).map(|lane| LaneKernel::of(gate_of(lane))));
                    // The hot Choco-Q case — every lane a commute-block
                    // rotation — runs on flat sin/cos lane arrays, which
                    // the specialized loop turns into dense per-row
                    // arithmetic instead of per-lane enum dispatch.
                    if scratch
                        .kernels
                        .iter()
                        .all(|k| matches!(k, LaneKernel::Rot { .. }))
                    {
                        scratch.sins.clear();
                        scratch.coss.clear();
                        for k in &scratch.kernels {
                            let LaneKernel::Rot { sin, cos } = *k else {
                                unreachable!("checked all-rotation above");
                            };
                            scratch.sins.push(sin);
                            scratch.coss.push(cos);
                        }
                        apply_pairs_batch_rot(amps, pairs, &scratch.sins, &scratch.coss, config);
                    } else {
                        apply_pairs_batch(amps, pairs, &scratch.kernels, config);
                    }
                }
                PlanStep::DiagPoly {
                    ranks,
                    distinct,
                    value_idx,
                    ..
                } => {
                    scratch.thetas.clear();
                    scratch.thetas.extend((0..lanes).map(|lane| {
                        let Gate::DiagPhase(_, theta) = gate_of(lane) else {
                            panic!("shape mismatch: expected a diagonal evolution");
                        };
                        *theta
                    }));
                    apply_diag_batch(
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

/// Multiplies the listed ranks by `factor`, fanning out across workers
/// above the parallel threshold. Ranks within one list are distinct, so
/// chunked workers write disjoint slots.
fn scale_ranks(amps: &mut [Complex64], ranks: &[u32], factor: Complex64, config: &SimConfig) {
    let ptr = AmpPtr(amps.as_mut_ptr());
    dispatch(config, ranks.len(), |range| {
        let base = ptr.get();
        for &r in &ranks[range] {
            // SAFETY: ranks are in-bounds by construction and distinct
            // within the list; workers own disjoint chunks.
            unsafe {
                let a = base.add(r as usize);
                *a *= factor;
            }
        }
    });
}

/// Applies the diagonal phase `e^{-iθ·f}` per listed rank (the `f != 0`
/// filter already happened at compile time, mirroring the dense
/// engine's per-amplitude branch).
fn apply_diag(
    amps: &mut [Complex64],
    ranks: &[u32],
    values: &[f64],
    theta: f64,
    config: &SimConfig,
) {
    debug_assert_eq!(ranks.len(), values.len());
    let ptr = AmpPtr(amps.as_mut_ptr());
    dispatch(config, ranks.len(), |range| {
        let base = ptr.get();
        for (&r, &f) in ranks[range.clone()].iter().zip(values[range].iter()) {
            // SAFETY: in-bounds, distinct ranks, disjoint worker chunks.
            unsafe {
                let a = base.add(r as usize);
                *a *= Complex64::cis(-theta * f);
            }
        }
    });
}

/// Applies a pair step with the gate's 2×2 arithmetic, dispatching on the
/// *values* exactly like the dense engine's kernels, so degenerate angles
/// reproduce its expressions.
fn apply_pairs(amps: &mut [Complex64], pairs: &[[u32; 2]], gate: &Gate, config: &SimConfig) {
    match gate {
        // Permutations: swap the two slots.
        Gate::Cx(..) | Gate::Ccx(..) | Gate::Mcx { .. } | Gate::Swap(..) => {
            pair_loop(amps, pairs, config, |a, b| (b, a));
        }
        // Commute-block rotation (XY-mixer = doubled angle).
        Gate::UBlock(_) | Gate::ShiftBlock(_) | Gate::XyMix(..) => {
            let theta = match gate {
                Gate::UBlock(b) => b.angle,
                Gate::ShiftBlock(b) => b.angle,
                Gate::XyMix(_, _, t) => 2.0 * t,
                _ => unreachable!(),
            };
            let (sin, cos) = theta.sin_cos();
            pair_loop(amps, pairs, config, move |a, b| {
                (
                    Complex64::new(cos * a.re + sin * b.im, cos * a.im - sin * b.re),
                    Complex64::new(cos * b.re + sin * a.im, cos * b.im - sin * a.re),
                )
            });
        }
        // 1q / controlled-1q: shape dispatch on the current matrix.
        g => {
            let m = gate_matrix_1q(g);
            let diagonal = m[0][1] == Complex64::ZERO && m[1][0] == Complex64::ZERO;
            if diagonal {
                // A kind-pair gate momentarily diagonal (e.g. `Rx(0)`):
                // the pair's low slot is the controls-side subspace, the
                // high slot the fixed side — the same two scalings the
                // dense engine would perform.
                for (d, side) in [(m[0][0], 0usize), (m[1][1], 1usize)] {
                    if d != Complex64::ONE {
                        let ptr = AmpPtr(amps.as_mut_ptr());
                        dispatch(config, pairs.len(), |range| {
                            let base = ptr.get();
                            for p in &pairs[range] {
                                // SAFETY: disjoint pairs, in-bounds ranks.
                                unsafe {
                                    let a = base.add(p[side] as usize);
                                    *a *= d;
                                }
                            }
                        });
                    }
                }
                return;
            }
            let anti_diagonal = m[0][0] == Complex64::ZERO && m[1][1] == Complex64::ZERO;
            if anti_diagonal {
                let (m01, m10) = (m[0][1], m[1][0]);
                pair_loop(amps, pairs, config, move |a, b| (m01 * b, m10 * a));
                return;
            }
            let real = m.iter().flatten().all(|c| c.im == 0.0);
            if real {
                let (r00, r01, r10, r11) = (m[0][0].re, m[0][1].re, m[1][0].re, m[1][1].re);
                pair_loop(amps, pairs, config, move |a, b| {
                    (a.scale(r00) + b.scale(r01), a.scale(r10) + b.scale(r11))
                });
                return;
            }
            pair_loop(amps, pairs, config, move |a, b| {
                (m[0][0] * a + m[0][1] * b, m[1][0] * a + m[1][1] * b)
            });
        }
    }
}

/// Runs `op` over every rank pair, threaded per the configuration. Pairs
/// are disjoint (each rank appears in at most one pair of a step), so
/// chunked workers touch disjoint slots.
fn pair_loop<Op>(amps: &mut [Complex64], pairs: &[[u32; 2]], config: &SimConfig, op: Op)
where
    Op: Fn(Complex64, Complex64) -> (Complex64, Complex64) + Sync,
{
    let ptr = AmpPtr(amps.as_mut_ptr());
    dispatch(config, pairs.len(), |range| {
        let base = ptr.get();
        for p in &pairs[range] {
            // SAFETY: ranks in-bounds; pairs disjoint; worker chunks
            // partition the pair list.
            unsafe {
                let pa = base.add(p[0] as usize);
                let pb = base.add(p[1] as usize);
                let (a, b) = op(*pa, *pb);
                *pa = a;
                *pb = b;
            }
        }
    });
}

/// Reusable per-gate lane-parameter buffers for
/// [`GatePlan::execute_batch`]: after the first replay of a shape no
/// batched iteration allocates (mirroring the serial path's
/// zero-allocation contract).
#[derive(Debug, Default)]
pub(crate) struct BatchScratch {
    factors: Vec<Complex64>,
    thetas: Vec<f64>,
    diag0: Vec<Complex64>,
    diag1: Vec<Complex64>,
    kernels: Vec<LaneKernel>,
    /// Flat per-lane rotation parameters for the all-rotation pair loop.
    sins: Vec<f64>,
    coss: Vec<f64>,
    /// The `distinct × lanes` diagonal factor table (`value`-major, lane
    /// contiguous) rebuilt per diagonal step.
    factor_table: Vec<Complex64>,
}

/// The per-lane 2×2 kernel a [`PlanStep::Pairs`] gate resolved to — the
/// same value-based dispatch [`apply_pairs`] performs, frozen per lane so
/// the batched pair loop replays each lane's exact serial branch.
#[derive(Clone, Copy, Debug)]
enum LaneKernel {
    /// Permutation gates: swap the two slots.
    Swap,
    /// Commute-block rotation (XY-mixer = doubled angle).
    Rot { sin: f64, cos: f64 },
    /// Momentarily diagonal kind-pair gate (e.g. `Rx(0)`): two subspace
    /// scalings, each skipped when its entry is exactly one.
    Diag { d0: Complex64, d1: Complex64 },
    /// Momentarily anti-diagonal matrix (e.g. `X`, `Rx(π)` up to phase).
    AntiDiag { m01: Complex64, m10: Complex64 },
    /// All-real matrix (e.g. `H`, `Ry`): four real scalings.
    Real {
        r00: f64,
        r01: f64,
        r10: f64,
        r11: f64,
    },
    /// The general complex 2×2.
    Full { m: [[Complex64; 2]; 2] },
}

impl LaneKernel {
    /// Classifies one lane's gate exactly like [`apply_pairs`].
    fn of(gate: &Gate) -> LaneKernel {
        match gate {
            Gate::Cx(..) | Gate::Ccx(..) | Gate::Mcx { .. } | Gate::Swap(..) => LaneKernel::Swap,
            Gate::UBlock(_) | Gate::ShiftBlock(_) | Gate::XyMix(..) => {
                let theta = match gate {
                    Gate::UBlock(b) => b.angle,
                    Gate::ShiftBlock(b) => b.angle,
                    Gate::XyMix(_, _, t) => 2.0 * t,
                    _ => unreachable!(),
                };
                let (sin, cos) = theta.sin_cos();
                LaneKernel::Rot { sin, cos }
            }
            g => {
                let m = gate_matrix_1q(g);
                if m[0][1] == Complex64::ZERO && m[1][0] == Complex64::ZERO {
                    LaneKernel::Diag {
                        d0: m[0][0],
                        d1: m[1][1],
                    }
                } else if m[0][0] == Complex64::ZERO && m[1][1] == Complex64::ZERO {
                    LaneKernel::AntiDiag {
                        m01: m[0][1],
                        m10: m[1][0],
                    }
                } else if m.iter().flatten().all(|c| c.im == 0.0) {
                    LaneKernel::Real {
                        r00: m[0][0].re,
                        r01: m[0][1].re,
                        r10: m[1][0].re,
                        r11: m[1][1].re,
                    }
                } else {
                    LaneKernel::Full { m }
                }
            }
        }
    }

    /// Applies this lane's kernel to one `(low, high)` slot pair — the
    /// exact expression [`apply_pairs`] would evaluate for this lane.
    #[inline]
    fn apply(self, a: Complex64, b: Complex64) -> (Complex64, Complex64) {
        match self {
            LaneKernel::Swap => (b, a),
            LaneKernel::Rot { sin, cos } => (
                Complex64::new(cos * a.re + sin * b.im, cos * a.im - sin * b.re),
                Complex64::new(cos * b.re + sin * a.im, cos * b.im - sin * a.re),
            ),
            LaneKernel::Diag { d0, d1 } => (
                if d0 != Complex64::ONE { a * d0 } else { a },
                if d1 != Complex64::ONE { b * d1 } else { b },
            ),
            LaneKernel::AntiDiag { m01, m10 } => (m01 * b, m10 * a),
            LaneKernel::Real { r00, r01, r10, r11 } => {
                (a.scale(r00) + b.scale(r01), a.scale(r10) + b.scale(r11))
            }
            LaneKernel::Full { m } => (m[0][0] * a + m[0][1] * b, m[1][0] * a + m[1][1] * b),
        }
    }
}

/// Batched [`scale_ranks`]: multiplies every listed rank's K lanes by the
/// per-lane factors, unconditionally (the phase-step contract). Workers
/// chunk over ranks, so every `rank × lane` slot has exactly one writer.
fn scale_ranks_batch(
    amps: &mut [Complex64],
    ranks: &[u32],
    factors: &[Complex64],
    config: &SimConfig,
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
                    *row.add(lane) *= f;
                }
            }
        }
    });
}

/// Batched diagonal scaling with the serial path's per-gate `d != 1`
/// skip applied per lane (see [`GatePlan::apply_step`]'s `DiagPair` arm).
fn scale_ranks_batch_skip_one(
    amps: &mut [Complex64],
    ranks: &[u32],
    factors: &[Complex64],
    config: &SimConfig,
) {
    let lanes = factors.len();
    let ptr = AmpPtr(amps.as_mut_ptr());
    dispatch(config, ranks.len(), |range| {
        let base = ptr.get();
        for &r in &ranks[range] {
            // SAFETY: as in `scale_ranks_batch`.
            unsafe {
                let row = base.add(r as usize * lanes);
                for (lane, &f) in factors.iter().enumerate() {
                    if f != Complex64::ONE {
                        *row.add(lane) *= f;
                    }
                }
            }
        }
    });
}

/// Batched [`apply_diag`]: per rank, every lane multiplies by its own
/// `e^{-iθ_lane·f}` — the identical expression the serial replay applies.
///
/// The transcendental work is hoisted out of the rank loop: `e^{-iθ·f}`
/// is computed once per *distinct* polynomial value per lane into
/// `table` (value-major, lanes contiguous), and the rank loop becomes a
/// contiguous row-by-row complex multiply. Structured cost polynomials
/// repeat a handful of sums across the whole feasible set, so this
/// replaces `|F|` sin/cos evaluations per lane with `|distinct|` — the
/// factor bits are unchanged (equal `f` bits ⇒ equal `-θ·f` ⇒ equal
/// `cis`), so every lane stays bit-identical to its serial replay.
fn apply_diag_batch(
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
            // SAFETY: as in `scale_ranks_batch`.
            unsafe {
                let row = base.add(r as usize * lanes);
                for (lane, &factor) in factors.iter().enumerate() {
                    *row.add(lane) *= factor;
                }
            }
        }
    });
}

/// The all-rotation specialization of [`apply_pairs_batch`]: every lane
/// is a commute-block rotation, evaluated with exactly the serial
/// rotation expression. The lane dimension is tiled in blocks of four:
/// a block's eight `sin`/`cos` values stay register-resident across the
/// whole pair-table pass (a lane-minor loop over all K spills them every
/// iteration), while each pass still consumes contiguous quarter-rows of
/// the SoA layout (a fully lane-major loop would stream every cache line
/// K times for one lane's worth of work).
fn apply_pairs_batch_rot(
    amps: &mut [Complex64],
    pairs: &[[u32; 2]],
    sins: &[f64],
    coss: &[f64],
    config: &SimConfig,
) {
    const BLOCK: usize = 4;
    let lanes = sins.len();
    let ptr = AmpPtr(amps.as_mut_ptr());
    dispatch(config, pairs.len(), |range| {
        let base = ptr.get();
        let mut start = 0;
        while start < lanes {
            let width = BLOCK.min(lanes - start);
            if width == BLOCK {
                let s: [f64; BLOCK] = sins[start..start + BLOCK].try_into().expect("block");
                let c: [f64; BLOCK] = coss[start..start + BLOCK].try_into().expect("block");
                for p in &pairs[range.clone()] {
                    // SAFETY: pairs disjoint, ranks in-bounds; worker
                    // chunks partition the pair list and own all K lanes
                    // of their pairs.
                    unsafe {
                        let row_a = base.add(p[0] as usize * lanes + start);
                        let row_b = base.add(p[1] as usize * lanes + start);
                        for lane in 0..BLOCK {
                            rot_one_lane(row_a.add(lane), row_b.add(lane), s[lane], c[lane]);
                        }
                    }
                }
            } else {
                let (s, c) = (&sins[start..start + width], &coss[start..start + width]);
                for p in &pairs[range.clone()] {
                    // SAFETY: as above.
                    unsafe {
                        let row_a = base.add(p[0] as usize * lanes + start);
                        let row_b = base.add(p[1] as usize * lanes + start);
                        for lane in 0..width {
                            rot_one_lane(row_a.add(lane), row_b.add(lane), s[lane], c[lane]);
                        }
                    }
                }
            }
            start += width;
        }
    });
}

/// One lane of the commute-block rotation — the exact expression the
/// serial [`apply_pairs`] rotation closure evaluates.
///
/// # Safety
///
/// `pa` and `pb` must be valid, distinct amplitude slots.
#[inline(always)]
unsafe fn rot_one_lane(pa: *mut Complex64, pb: *mut Complex64, sin: f64, cos: f64) {
    let (a, b) = (*pa, *pb);
    *pa = Complex64::new(cos * a.re + sin * b.im, cos * a.im - sin * b.re);
    *pb = Complex64::new(cos * b.re + sin * a.im, cos * b.im - sin * a.re);
}

/// Batched [`apply_pairs`] for mixed batches: one traversal of the pair
/// table updates all K lanes, each through its own frozen [`LaneKernel`]
/// (all-rotation batches take [`apply_pairs_batch_rot`] instead). Every
/// lane evaluates the same per-lane expression as its serial replay.
fn apply_pairs_batch(
    amps: &mut [Complex64],
    pairs: &[[u32; 2]],
    kernels: &[LaneKernel],
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

    fn run_plan(circuit: &Circuit, plan: &GatePlan) -> Vec<Complex64> {
        let mut amps = vec![Complex64::ZERO; plan.basis().len()];
        amps[0] = Complex64::ONE;
        plan.execute(circuit, &mut amps, &SimConfig::serial());
        amps
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

    /// Runs the batch through `execute_batch` and asserts every lane is
    /// bit-identical to its own serial `execute` replay.
    fn assert_batch_matches_serial(circuits: &[Circuit], plan: &GatePlan, config: &SimConfig) {
        let k = circuits.len();
        let f = plan.basis().len();
        let mut batched = vec![Complex64::ZERO; k * f];
        for slot in batched.iter_mut().take(k) {
            *slot = Complex64::ONE; // rank 0, every lane
        }
        let mut scratch = BatchScratch::default();
        plan.execute_batch(circuits, &mut batched, &mut scratch, config);
        for (lane, circuit) in circuits.iter().enumerate() {
            let serial = run_plan(circuit, plan);
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
        // K = 17 lanes on a tiny feasible subspace (K > |F|) — the SoA
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
