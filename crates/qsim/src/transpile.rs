//! Lowering structured operations to deployable basic gates.
//!
//! The deployable basis is {1-qubit gates} ∪ {CX or CZ}. The passes here
//! implement:
//!
//! * **Lemma 2 of the paper** — each commute block `e^{-iβHc(u)}` becomes
//!   `G† · P(β) · X₁ · P(−β) · X₁ · G`, where `G` is the converting circuit
//!   of Algorithm 1 (a CX chain with X fix-ups and one H) and `P` is a
//!   multi-controlled phase. Linear time, linear depth.
//! * **Multi-controlled phase** via one clean ancilla:
//!   `MCX(q₁…q_{k−1} → a); CP(a, q_k); MCX undo` (the paper's reformulation
//!   of `P(β)` as an ancilla-assisted controlled-RZ).
//! * **Multi-controlled X** via a clean-ancilla Toffoli chain when enough
//!   ancillas are free, else the Barenco borrowed-qubit split
//!   (`C^m X = A·B·A·B` with `A = C^{⌈m/2⌉}X` onto a borrowed qubit): works
//!   even when the borrowed qubit carries data.
//! * Diagonal evolutions `e^{-iθf(x)}` into `Phase` / `CP` gates (one per
//!   non-zero term of `f`).
//!
//! Every lowering is exact (no Trotter error); equivalence against the
//! structured simulator path is enforced by tests.
//!
//! One loop does all the lowering and hands each basic gate to a sink:
//! [`transpile`] collects the gates into a [`Circuit`], and
//! [`transpiled_stats`] only counts them (depth, gates, two-qubit gates)
//! without holding any.

use crate::circuit::{schedule, Circuit};
use crate::gate::{Gate, ShiftBlock};
use choco_mathkit::{c64, Complex64};
use std::fmt;

/// Which entangling gate the target device supports natively.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TwoQubitBasis {
    /// CX (ECR-style devices: Osaka, Sherbrooke).
    #[default]
    Cx,
    /// CZ (IBM Heron devices: Fez).
    Cz,
}

/// Transpilation options.
#[derive(Clone, Debug, Default)]
pub struct TranspileOptions {
    /// Native two-qubit gate.
    pub two_qubit: TwoQubitBasis,
    /// Clean (|0⟩, restored-after-use) ancilla qubits available to the
    /// lowering passes. Choco-Q circuits allocate two, following the paper.
    pub ancillas: Vec<usize>,
}

impl TranspileOptions {
    /// Options with a CX basis and the given clean ancillas.
    pub fn with_ancillas(ancillas: Vec<usize>) -> Self {
        TranspileOptions {
            two_qubit: TwoQubitBasis::Cx,
            ancillas,
        }
    }
}

/// Errors from [`transpile`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TranspileError {
    /// A multi-controlled gate could not be lowered because no spare qubit
    /// (clean or borrowed) exists.
    NeedsAncilla {
        /// Display form of the gate that failed.
        gate: String,
    },
}

impl fmt::Display for TranspileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TranspileError::NeedsAncilla { gate } => {
                write!(f, "gate `{gate}` needs a spare ancilla qubit to lower")
            }
        }
    }
}

impl std::error::Error for TranspileError {}

/// Lowers a circuit to the deployable basis.
///
/// # Errors
///
/// Returns [`TranspileError::NeedsAncilla`] if a multi-controlled gate
/// covers every qubit of the circuit and no ancilla was provided.
///
/// # Examples
///
/// ```
/// use choco_qsim::{transpile, Circuit, TranspileOptions, UBlock};
///
/// // 3-qubit commute block + 2 clean ancillas (the paper's layout).
/// let mut c = Circuit::new(5);
/// c.ublock(UBlock::from_u_with_angle(&[-1, 1, -1], 0.8));
/// let lowered = transpile(&c, &TranspileOptions::with_ancillas(vec![3, 4])).unwrap();
/// assert!(lowered.is_basic());
/// ```
pub fn transpile(circuit: &Circuit, opts: &TranspileOptions) -> Result<Circuit, TranspileError> {
    let mut out = Circuit::new(circuit.n_qubits());
    lower(circuit, opts, |g| {
        out.push(g);
    })?;
    Ok(out)
}

/// Size figures of a lowered circuit: what [`Circuit::depth`],
/// [`Circuit::len`] and [`Circuit::multi_qubit_gate_count`] report on the
/// output of [`transpile`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TranspiledStats {
    /// ASAP-scheduled depth.
    pub depth: usize,
    /// Number of basic gates.
    pub gates: usize,
    /// Number of two-qubit (CX or CZ) gates.
    pub two_qubit_gates: usize,
}

/// The [`TranspiledStats`] of `transpile(circuit, opts)` without building
/// the lowered circuit: the same lowering streams every basic gate into a
/// per-qubit depth frontier and two counters, so memory stays
/// `O(n_qubits)` however many gates the lowering emits.
///
/// # Errors
///
/// Exactly those of [`transpile`].
///
/// # Examples
///
/// ```
/// use choco_qsim::{transpile, transpiled_stats, Circuit, TranspileOptions, UBlock};
///
/// let mut c = Circuit::new(5);
/// c.ublock(UBlock::from_u_with_angle(&[-1, 1, -1], 0.8));
/// let opts = TranspileOptions::with_ancillas(vec![3, 4]);
/// let stats = transpiled_stats(&c, &opts).unwrap();
/// let lowered = transpile(&c, &opts).unwrap();
/// assert_eq!(stats.depth, lowered.depth());
/// assert_eq!(stats.gates, lowered.len());
/// assert_eq!(stats.two_qubit_gates, lowered.multi_qubit_gate_count());
/// ```
pub fn transpiled_stats(
    circuit: &Circuit,
    opts: &TranspileOptions,
) -> Result<TranspiledStats, TranspileError> {
    let mut level = vec![0usize; circuit.n_qubits()];
    let mut stats = TranspiledStats::default();
    lower(circuit, opts, |g| {
        stats.depth = stats.depth.max(schedule(&mut level, &g));
        stats.gates += 1;
        if g.arity() >= 2 {
            stats.two_qubit_gates += 1;
        }
    })?;
    Ok(stats)
}

/// The lowering loop behind both [`transpile`] and [`transpiled_stats`]:
/// expands each gate of `circuit` depth-first, in order, and hands every
/// basic gate to `emit`. Expansions go through one reused buffer onto a
/// work stack, so the loop allocates only for the index lists that
/// intermediate multi-qubit gates carry.
fn lower(
    circuit: &Circuit,
    opts: &TranspileOptions,
    mut emit: impl FnMut(Gate),
) -> Result<(), TranspileError> {
    let n = circuit.n_qubits();
    let mut stack: Vec<Gate> = Vec::new();
    let mut expansion: Vec<Gate> = Vec::new();
    for gate in circuit.gates() {
        stack.push(gate.clone());
        while let Some(g) = stack.pop() {
            if is_target_basic(&g, opts.two_qubit) {
                emit(g);
                continue;
            }
            expand_one(&g, n, opts, &mut expansion)?;
            // A basic prefix goes straight to the sink; the rest waits on
            // the stack, last gate deepest.
            let prefix = expansion
                .iter()
                .position(|g| !is_target_basic(g, opts.two_qubit))
                .unwrap_or(expansion.len());
            expansion.drain(..prefix).for_each(&mut emit);
            stack.extend(expansion.drain(..).rev());
        }
    }
    Ok(())
}

fn is_target_basic(g: &Gate, basis: TwoQubitBasis) -> bool {
    match g {
        Gate::Cx(..) => basis == TwoQubitBasis::Cx,
        Gate::Cz(..) => basis == TwoQubitBasis::Cz,
        other => other.is_basic(),
    }
}

/// Appends the expansion of one non-basic gate (possibly into still
/// non-basic gates) to `out`.
fn expand_one(
    g: &Gate,
    n_qubits: usize,
    opts: &TranspileOptions,
    out: &mut Vec<Gate>,
) -> Result<(), TranspileError> {
    match g {
        Gate::Cx(c, t) => {
            // CZ basis: CX = H(t) · CZ · H(t)
            out.push(Gate::H(*t));
            out.push(Gate::Cz(*c, *t));
            out.push(Gate::H(*t));
        }
        Gate::Cz(a, b) => {
            out.push(Gate::H(*b));
            out.push(Gate::Cx(*a, *b));
            out.push(Gate::H(*b));
        }
        Gate::Cp(a, b, theta) => {
            out.push(Gate::Phase(*a, theta / 2.0));
            out.push(Gate::Cx(*a, *b));
            out.push(Gate::Phase(*b, -theta / 2.0));
            out.push(Gate::Cx(*a, *b));
            out.push(Gate::Phase(*b, theta / 2.0));
        }
        Gate::Swap(a, b) => {
            out.push(Gate::Cx(*a, *b));
            out.push(Gate::Cx(*b, *a));
            out.push(Gate::Cx(*a, *b));
        }
        Gate::Ccx(c1, c2, t) => emit_ccx(out, *c1, *c2, *t),
        Gate::Mcx { controls, target } => {
            emit_mcx(out, controls, *target, n_qubits, opts)?;
        }
        Gate::McPhase { qubits, angle } => {
            emit_mcphase(out, qubits, *angle, n_qubits, opts)?;
        }
        Gate::ControlledU {
            controls,
            target,
            matrix,
        } => emit_controlled_u(out, controls, *target, *matrix, n_qubits, opts)?,
        Gate::UBlock(b) => emit_ublock(out, &b.support, b.pattern, b.angle),
        Gate::ShiftBlock(b) => emit_shiftblock(out, b),
        Gate::XyMix(a, b, theta) => {
            // XX+YY pair term = UBlock on {|01⟩,|10⟩} with doubled angle.
            let (lo, hi) = if a < b { (*a, *b) } else { (*b, *a) };
            emit_ublock(out, &[lo, hi], 0b01, 2.0 * theta);
        }
        Gate::DiagPhase(poly, theta) => {
            for (i, &w) in poly.linear().iter().enumerate() {
                if w != 0.0 {
                    out.push(Gate::Phase(i, -theta * w));
                }
            }
            for &(i, j, w) in poly.quadratic() {
                if w != 0.0 {
                    out.push(Gate::Cp(i, j, -theta * w));
                }
            }
            // The constant term is a global phase: dropped.
        }
        basic => out.push(basic.clone()),
    }
    Ok(())
}

/// Appends the inverses of `out[start..end]` in reverse order: the
/// uncompute half of a conjugation `V · core · V†`.
fn push_inverse(out: &mut Vec<Gate>, start: usize, end: usize) {
    for i in (start..end).rev() {
        let inv = out[i].inverse();
        out.push(inv);
    }
}

/// Lemma 2: `e^{-iβHc(u)} = G† P(β) X₁ P(−β) X₁ G` with `G` from
/// Algorithm 1, for the block coupling `pattern` (over `support`) with
/// its complement. Single-qubit blocks reduce to `Rx(2β)` since `Hc = X`.
fn emit_ublock(out: &mut Vec<Gate>, support: &[usize], pattern: u64, angle: f64) {
    let k = support.len();
    if k == 1 {
        out.push(Gate::Rx(support[0], 2.0 * angle));
        return;
    }
    let v = |idx: usize| (pattern >> idx) & 1;
    // --- G (Algorithm 1): walk i = k-1 .. 1, CX(s[i-1] → s[i]), X fix-up
    // when v_i == v_{i-1}; finish with H on the first support qubit.
    let g_start = out.len();
    for i in (1..k).rev() {
        out.push(Gate::Cx(support[i - 1], support[i]));
        if v(i) == v(i - 1) {
            out.push(Gate::X(support[i]));
        }
    }
    out.push(Gate::H(support[0]));
    let g_end = out.len();
    // --- core: X₁ P(−β) X₁ P(β)  (applied left-to-right).
    out.push(Gate::X(support[0]));
    out.push(Gate::McPhase {
        qubits: support.to_vec(),
        angle: -angle,
    });
    out.push(Gate::X(support[0]));
    out.push(Gate::McPhase {
        qubits: support.to_vec(),
        angle,
    });
    // --- G†: reversed inverses.
    push_inverse(out, g_start, g_end);
}

/// Generalized commute block with slack registers: one exact two-level
/// rotation per eligible register source-value combination. The coupled
/// `{|p⟩, |q⟩}` pairs are disjoint across combinations, so the two-level
/// rotations commute and their sequential product equals `e^{-iθHc}`
/// exactly (no Trotter error).
fn emit_shiftblock(out: &mut Vec<Gate>, b: &ShiftBlock) {
    if b.shifts.is_empty() {
        emit_ublock(out, &b.support, b.pattern, b.angle);
        return;
    }
    let mut footprint: Vec<usize> = b.support.clone();
    for s in &b.shifts {
        footprint.extend_from_slice(&s.qubits);
    }
    footprint.sort_unstable();
    let full = b.full_mask();
    let v_abs = b.pattern_abs();
    // Expand the (source, target) pattern per register value combination.
    let mut combos: Vec<(u64, u64)> = vec![(v_abs, v_abs ^ full)];
    for s in &b.shifts {
        let mut next = Vec::new();
        for &(p, q) in &combos {
            for r in 0..=s.max_value {
                let shifted = r as i64 + s.delta;
                if shifted < 0 || shifted as u64 > s.max_value {
                    continue;
                }
                next.push((s.write(p, r), s.write(q, shifted as u64)));
            }
        }
        combos = next;
    }
    let (sin, cos) = b.angle.sin_cos();
    let matrix = [
        [c64(cos, 0.0), c64(0.0, -sin)],
        [c64(0.0, -sin), c64(cos, 0.0)],
    ];
    for (p, q) in combos {
        emit_two_level(out, &footprint, p, q, matrix);
    }
}

/// An exact two-level unitary acting as `matrix` on `span{|p⟩, |q⟩}` over
/// the `footprint` qubits (absolute bit patterns, `p ≠ q`) and as identity
/// on every other footprint pattern: a CX-conjugation aligns the pair onto
/// a single differing qubit, X-conjugation fixes zero-valued controls, and
/// one [`Gate::ControlledU`] applies the 2×2. Requires a symmetric
/// `matrix` (the rotation used here), since the conjugation does not track
/// the pair's orientation.
fn emit_two_level(
    out: &mut Vec<Gate>,
    footprint: &[usize],
    p: u64,
    q: u64,
    matrix: [[Complex64; 2]; 2],
) {
    let diff = p ^ q;
    debug_assert_ne!(diff, 0, "two-level states must differ");
    let t = diff.trailing_zeros() as usize;
    let p_t = (p >> t) & 1;
    // After CX(t → d) on every other differing bit d, the images of p and
    // q agree everywhere except on t; differing bits then carry
    // `p_d ^ p_t`, common bits keep `p_d`.
    let pre_start = out.len();
    for &d in footprint {
        if d != t && (diff >> d) & 1 == 1 {
            out.push(Gate::Cx(t, d));
        }
    }
    let mut controls: Vec<usize> = Vec::with_capacity(footprint.len());
    for &d in footprint {
        if d == t {
            continue;
        }
        let val = if (diff >> d) & 1 == 1 {
            ((p >> d) & 1) ^ p_t
        } else {
            (p >> d) & 1
        };
        if val == 0 {
            out.push(Gate::X(d));
        }
        controls.push(d);
    }
    let pre_end = out.len();
    out.push(Gate::ControlledU {
        controls,
        target: t,
        matrix,
    });
    push_inverse(out, pre_start, pre_end);
}

/// Standard exact Toffoli: 6 CX + 9 single-qubit T/H gates.
fn emit_ccx(out: &mut Vec<Gate>, c1: usize, c2: usize, t: usize) {
    out.push(Gate::H(t));
    out.push(Gate::Cx(c2, t));
    out.push(Gate::Tdg(t));
    out.push(Gate::Cx(c1, t));
    out.push(Gate::T(t));
    out.push(Gate::Cx(c2, t));
    out.push(Gate::Tdg(t));
    out.push(Gate::Cx(c1, t));
    out.push(Gate::T(c2));
    out.push(Gate::T(t));
    out.push(Gate::H(t));
    out.push(Gate::Cx(c1, c2));
    out.push(Gate::T(c1));
    out.push(Gate::Tdg(c2));
    out.push(Gate::Cx(c1, c2));
}

/// Bitmask of `qubits`.
fn mask_of(qubits: &[usize]) -> u64 {
    qubits.iter().fold(0, |m, &q| m | 1 << q)
}

/// The qubits a multi-controlled lowering may use besides the gate's own
/// (`used`): the clean ancillas of `opts` first, in order and each once,
/// then every other qubit, which can only be borrowed (any state, restored
/// after use). Held inline: circuits have at most 30 qubits.
struct Spares {
    qubits: [usize; 64],
    clean: usize,
    len: usize,
}

impl Spares {
    fn new(used: u64, n_qubits: usize, opts: &TranspileOptions) -> Spares {
        let mut spares = Spares {
            qubits: [0; 64],
            clean: 0,
            len: 0,
        };
        let mut taken = used;
        let mut take = |spares: &mut Spares, q: usize| {
            if (taken >> q) & 1 == 0 {
                taken |= 1 << q;
                spares.qubits[spares.len] = q;
                spares.len += 1;
            }
        };
        for &a in opts.ancillas.iter().filter(|&&a| a < n_qubits) {
            take(&mut spares, a);
        }
        spares.clean = spares.len;
        for q in 0..n_qubits {
            take(&mut spares, q);
        }
        spares
    }

    /// The clean ancillas.
    fn clean(&self) -> &[usize] {
        &self.qubits[..self.clean]
    }

    /// Clean ancillas, then borrowable qubits.
    fn all(&self) -> &[usize] {
        &self.qubits[..self.len]
    }
}

/// Multi-controlled X. Chooses between the clean-ancilla Toffoli chain
/// (`2(m−2)+1` CCX) and the Barenco borrowed-qubit split (recursive,
/// correct for arbitrary borrowed-qubit state).
fn emit_mcx(
    out: &mut Vec<Gate>,
    controls: &[usize],
    target: usize,
    n_qubits: usize,
    opts: &TranspileOptions,
) -> Result<(), TranspileError> {
    let m = controls.len();
    match m {
        0 => {
            out.push(Gate::X(target));
            return Ok(());
        }
        1 => {
            out.push(Gate::Cx(controls[0], target));
            return Ok(());
        }
        2 => {
            out.push(Gate::Ccx(controls[0], controls[1], target));
            return Ok(());
        }
        _ => {}
    }
    let spares = Spares::new(mask_of(controls) | 1 << target, n_qubits, opts);

    if spares.clean().len() >= m - 2 {
        // Toffoli chain with clean ancillas: compute the AND cascade,
        // flip the target, uncompute. 2(m−2)+1 CCX.
        let anc = &spares.clean()[..m - 2];
        let start = out.len();
        out.push(Gate::Ccx(controls[0], controls[1], anc[0]));
        for i in 2..m - 1 {
            out.push(Gate::Ccx(controls[i], anc[i - 2], anc[i - 1]));
        }
        let end = out.len();
        out.push(Gate::Ccx(controls[m - 1], anc[m - 3], target));
        push_inverse(out, start, end);
        Ok(())
    } else if spares.all().len() >= m - 2 {
        // V-chain with *borrowed* ancillas (arbitrary state, restored):
        // the doubled-wedge network, 4(m−2) CCX — this is what keeps the
        // commute-block decomposition linear even with only the paper's two
        // clean ancillas, by borrowing idle problem qubits.
        emit_mcx_dirty_vchain(out, controls, target, &spares.all()[..m - 2]);
        Ok(())
    } else if let Some(&borrow) = spares.all().first() {
        // Barenco split: C^m X = A·B·A·B with A = C^{m1}X(first half → borrow)
        // and B = C^{m2+1}X(second half + borrow → target). Works for any
        // state of `borrow` and restores it.
        let m1 = m.div_ceil(2);
        let first: Vec<usize> = controls[..m1].to_vec();
        let mut second: Vec<usize> = controls[m1..].to_vec();
        second.push(borrow);
        for _ in 0..2 {
            out.push(Gate::Mcx {
                controls: first.clone(),
                target: borrow,
            });
            out.push(Gate::Mcx {
                controls: second.clone(),
                target,
            });
        }
        Ok(())
    } else {
        Err(TranspileError::NeedsAncilla {
            gate: format!("mcx {controls:?} -> q{target}"),
        })
    }
}

/// The borrowed-ancilla V-chain (`m ≥ 3` controls, `m−2` ancillas in
/// arbitrary states, all restored): a doubled wedge of `4(m−2)` Toffolis.
fn emit_mcx_dirty_vchain(out: &mut Vec<Gate>, controls: &[usize], target: usize, anc: &[usize]) {
    let m = controls.len();
    debug_assert!(m >= 3 && anc.len() == m - 2);
    let top = |out: &mut Vec<Gate>| {
        out.push(Gate::Ccx(controls[m - 1], anc[m - 3], target));
    };
    let down = |out: &mut Vec<Gate>| {
        for i in (2..m - 1).rev() {
            out.push(Gate::Ccx(controls[i], anc[i - 2], anc[i - 1]));
        }
    };
    let bottom = |out: &mut Vec<Gate>| {
        out.push(Gate::Ccx(controls[0], controls[1], anc[0]));
    };
    let up = |out: &mut Vec<Gate>| {
        for i in 2..m - 1 {
            out.push(Gate::Ccx(controls[i], anc[i - 2], anc[i - 1]));
        }
    };
    // wedge = down · bottom · up ; network = top wedge top wedge.
    top(out);
    down(out);
    bottom(out);
    up(out);
    top(out);
    down(out);
    bottom(out);
    up(out);
}

/// Beyond this arity the recursive CP construction's quadratic growth
/// loses to the ancilla route.
const MCPHASE_RECURSION_LIMIT: usize = 6;

/// Multi-controlled phase on the all-ones state of `qubits`.
///
/// Small arities use the ancilla-free recursion
/// `C^k P(θ) = CP(c_k, t, θ/2) · C^{k−1}X · CP(c_k, t, −θ/2) · C^{k−1}X ·
/// C^{k−1}P(θ/2)` (the k = 2 base case is the textbook CCP identity);
/// large arities collapse the controls onto a clean ancilla first.
fn emit_mcphase(
    out: &mut Vec<Gate>,
    qubits: &[usize],
    angle: f64,
    n_qubits: usize,
    opts: &TranspileOptions,
) -> Result<(), TranspileError> {
    match qubits.len() {
        0 => return Ok(()), // global phase
        1 => {
            out.push(Gate::Phase(qubits[0], angle));
            return Ok(());
        }
        2 => {
            out.push(Gate::Cp(qubits[0], qubits[1], angle));
            return Ok(());
        }
        _ => {}
    }
    let k = qubits.len();
    if k <= MCPHASE_RECURSION_LIMIT {
        // Recursive, ancilla-free: phase fires iff *all* qubits are |1⟩.
        // C^{k−1}P(c…, pivot → t) = CP(pivot,t,θ/2) · MCX(c→pivot) ·
        // CP(pivot,t,−θ/2) · MCX(c→pivot) · C^{k−2}P(c… → t, θ/2).
        let t = qubits[k - 1];
        let pivot = qubits[k - 2];
        let rest: Vec<usize> = qubits[..k - 2].to_vec();
        out.push(Gate::Cp(pivot, t, angle / 2.0));
        out.push(Gate::Mcx {
            controls: rest.clone(),
            target: pivot,
        });
        out.push(Gate::Cp(pivot, t, -angle / 2.0));
        out.push(Gate::Mcx {
            controls: rest.clone(),
            target: pivot,
        });
        let mut recursive = rest;
        recursive.push(t);
        out.push(Gate::McPhase {
            qubits: recursive,
            angle: angle / 2.0,
        });
        return Ok(());
    }
    let spares = Spares::new(mask_of(qubits), n_qubits, opts);
    let Some(&a) = spares.clean().first() else {
        return Err(TranspileError::NeedsAncilla {
            gate: format!("mcp({angle:.4}) {qubits:?}"),
        });
    };
    let controls: Vec<usize> = qubits[..k - 1].to_vec();
    let last = qubits[k - 1];
    out.push(Gate::Mcx {
        controls: controls.clone(),
        target: a,
    });
    out.push(Gate::Cp(a, last, angle));
    out.push(Gate::Mcx {
        controls,
        target: a,
    });
    Ok(())
}

/// ZYZ Euler angles of a 2×2 unitary: `U = e^{iα} Rz(β) Ry(γ) Rz(δ)`.
pub fn zyz_decompose(m: [[Complex64; 2]; 2]) -> (f64, f64, f64, f64) {
    let det = m[0][0] * m[1][1] - m[0][1] * m[1][0];
    let alpha = det.arg() / 2.0;
    let inv_phase = Complex64::cis(-alpha);
    let v00 = m[0][0] * inv_phase;
    let v10 = m[1][0] * inv_phase;
    let v11 = m[1][1] * inv_phase;
    let gamma = 2.0 * v10.abs().atan2(v00.abs());
    // V00 = cos(γ/2) e^{-i(β+δ)/2}; V10 = sin(γ/2) e^{i(β-δ)/2}
    let sum = if v00.abs() > 1e-12 {
        -2.0 * v00.arg()
    } else {
        0.0
    };
    let sum = if v11.abs() > 1e-12 {
        2.0 * v11.arg()
    } else {
        sum
    };
    let diff = if v10.abs() > 1e-12 {
        2.0 * v10.arg()
    } else {
        0.0
    };
    let beta = (sum + diff) / 2.0;
    let delta = (sum - diff) / 2.0;
    (alpha, beta, gamma, delta)
}

/// Controlled arbitrary single-qubit unitary.
///
/// A single control uses the textbook ABC construction
/// (`U = e^{iα} A X B X C`, `ABC = I`); more controls first collapse to one
/// clean ancilla via MCX.
fn emit_controlled_u(
    out: &mut Vec<Gate>,
    controls: &[usize],
    target: usize,
    matrix: [[Complex64; 2]; 2],
    n_qubits: usize,
    opts: &TranspileOptions,
) -> Result<(), TranspileError> {
    match controls.len() {
        0 => {
            let (alpha, beta, gamma, delta) = zyz_decompose(matrix);
            out.push(Gate::Rz(target, delta));
            out.push(Gate::Ry(target, gamma));
            out.push(Gate::Rz(target, beta));
            // global phase e^{iα} dropped
            let _ = alpha;
            Ok(())
        }
        1 => {
            let c = controls[0];
            let (alpha, beta, gamma, delta) = zyz_decompose(matrix);
            // C: Rz((δ-β)/2)   B: Rz(-(δ+β)/2) Ry(-γ/2)   A: Ry(γ/2) Rz(β)
            out.push(Gate::Phase(c, alpha));
            out.push(Gate::Rz(target, (delta - beta) / 2.0));
            out.push(Gate::Cx(c, target));
            out.push(Gate::Rz(target, -(delta + beta) / 2.0));
            out.push(Gate::Ry(target, -gamma / 2.0));
            out.push(Gate::Cx(c, target));
            out.push(Gate::Ry(target, gamma / 2.0));
            out.push(Gate::Rz(target, beta));
            Ok(())
        }
        _ => {
            let spares = Spares::new(mask_of(controls) | 1 << target, n_qubits, opts);
            let Some(&a) = spares.clean().first() else {
                return Err(TranspileError::NeedsAncilla {
                    gate: format!("cu {controls:?} -> q{target}"),
                });
            };
            out.push(Gate::Mcx {
                controls: controls.to_vec(),
                target: a,
            });
            out.push(Gate::ControlledU {
                controls: vec![a],
                target,
                matrix,
            });
            out.push(Gate::Mcx {
                controls: controls.to_vec(),
                target: a,
            });
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::UBlock;
    use crate::phasepoly::PhasePoly;
    use crate::state::StateVector;
    use choco_mathkit::c64;
    use std::sync::Arc;

    /// Checks that `circuit` and its transpiled form act identically on all
    /// basis states of the *first* `data_qubits` qubits (ancillas stay |0⟩)
    /// AND on a uniform superposition of them. The superposition input is
    /// essential: basis-state fidelity is blind to relative *diagonal*
    /// phase errors.
    fn assert_equivalent(circuit: &Circuit, opts: &TranspileOptions, data_qubits: usize) {
        let lowered = transpile(circuit, opts).expect("transpile");
        assert!(lowered.is_basic(), "not fully lowered:\n{lowered}");
        for bits in 0..(1u64 << data_qubits) {
            let mut a = StateVector::from_bits(circuit.n_qubits(), bits);
            a.apply_circuit(circuit);
            let mut b = StateVector::from_bits(circuit.n_qubits(), bits);
            b.apply_circuit(&lowered);
            let fid = a.fidelity(&b);
            assert!(
                (fid - 1.0).abs() < 1e-9,
                "fidelity {fid} on input {bits:b}\noriginal:\n{circuit}\nlowered:\n{lowered}"
            );
        }
        // Phase-sensitive check on |+…+⟩ over the data qubits.
        let mut prep = Circuit::new(circuit.n_qubits());
        for q in 0..data_qubits {
            prep.h(q);
        }
        let mut a = StateVector::run(&prep);
        a.apply_circuit(circuit);
        let mut b = StateVector::run(&prep);
        b.apply_circuit(&lowered);
        let fid = a.fidelity(&b);
        assert!(
            (fid - 1.0).abs() < 1e-9,
            "superposition fidelity {fid}\noriginal:\n{circuit}\nlowered:\n{lowered}"
        );
    }

    #[test]
    fn cp_lowering_equivalent() {
        let mut c = Circuit::new(2);
        c.cp(0, 1, 0.9);
        assert_equivalent(&c, &TranspileOptions::default(), 2);
    }

    #[test]
    fn swap_lowering_equivalent() {
        let mut circuit = Circuit::new(2);
        circuit.h(0).push(Gate::Swap(0, 1));
        assert_equivalent(&circuit, &TranspileOptions::default(), 2);
    }

    #[test]
    fn ccx_lowering_equivalent() {
        let mut c = Circuit::new(3);
        c.ccx(0, 1, 2);
        assert_equivalent(&c, &TranspileOptions::default(), 3);
    }

    #[test]
    fn shiftblock_lowering_equivalent() {
        use crate::gate::{RegisterShift, ShiftBlock};
        // 2 support qubits + a 2-bit slack register (values 0..=2), with
        // two clean ancillas for the multi-controlled lowering.
        let mut c = Circuit::new(6);
        c.push(Gate::ShiftBlock(ShiftBlock {
            support: vec![0, 1],
            pattern: 0b01,
            shifts: vec![RegisterShift {
                qubits: vec![2, 3],
                delta: 1,
                max_value: 2,
            }],
            angle: 0.7,
        }));
        assert_equivalent(&c, &TranspileOptions::with_ancillas(vec![4, 5]), 4);
    }

    #[test]
    fn shiftblock_without_registers_lowers_like_ublock() {
        use crate::gate::ShiftBlock;
        let mut c = Circuit::new(5);
        c.push(Gate::ShiftBlock(ShiftBlock {
            support: vec![0, 1, 2],
            pattern: 0b010,
            shifts: vec![],
            angle: -0.4,
        }));
        assert_equivalent(&c, &TranspileOptions::with_ancillas(vec![3, 4]), 3);
    }

    #[test]
    fn cz_basis_round_trip() {
        let mut c = Circuit::new(2);
        c.cx(0, 1);
        let opts = TranspileOptions {
            two_qubit: TwoQubitBasis::Cz,
            ancillas: vec![],
        };
        let lowered = transpile(&c, &opts).unwrap();
        assert!(lowered.gates().iter().all(|g| !matches!(g, Gate::Cx(..))));
        assert_equivalent(&c, &opts, 2);
    }

    #[test]
    fn mcx_clean_chain_equivalent() {
        // 4 controls + target + 2 clean ancillas = 7 qubits.
        let mut c = Circuit::new(7);
        c.mcx(vec![0, 1, 2, 3], 4);
        let opts = TranspileOptions::with_ancillas(vec![5, 6]);
        assert_equivalent(&c, &opts, 5);
    }

    #[test]
    fn mcx_dirty_vchain_equivalent() {
        // 4 controls + target + two spare dirty qubits: uses the V-chain.
        // data_qubits = 7 exercises every borrowed-ancilla state.
        let mut c = Circuit::new(7);
        c.mcx(vec![0, 1, 2, 3], 4);
        let opts = TranspileOptions::with_ancillas(vec![]);
        assert_equivalent(&c, &opts, 7);
    }

    #[test]
    fn mcx_dirty_vchain_larger_control_counts() {
        for m in 3..=5usize {
            let n = 2 * m - 1; // m controls + target + (m-2) dirty spares
            let mut c = Circuit::new(n);
            c.mcx((0..m).collect(), m);
            let opts = TranspileOptions::with_ancillas(vec![]);
            assert_equivalent(&c, &opts, n);
        }
    }

    #[test]
    fn mcx_borrowed_split_equivalent() {
        // 4 controls + target + only ONE spare qubit: forces the Barenco
        // A·B·A·B split. data_qubits = 6 exercises the borrowed qubit in
        // |1⟩ too.
        let mut c = Circuit::new(6);
        c.mcx(vec![0, 1, 2, 3], 4);
        let opts = TranspileOptions::with_ancillas(vec![]);
        assert_equivalent(&c, &opts, 6);
    }

    #[test]
    fn mcx_without_spare_fails() {
        let mut c = Circuit::new(4);
        c.mcx(vec![0, 1, 2], 3);
        let err = transpile(&c, &TranspileOptions::default()).unwrap_err();
        assert!(matches!(err, TranspileError::NeedsAncilla { .. }));
    }

    #[test]
    fn mcphase_with_ancilla_equivalent() {
        let mut c = Circuit::new(5);
        c.mcphase(vec![0, 1, 2], 0.77);
        let opts = TranspileOptions::with_ancillas(vec![3, 4]);
        assert_equivalent(&c, &opts, 3);
    }

    #[test]
    fn mcphase_small_cases_no_ancilla() {
        let mut c = Circuit::new(2);
        c.mcphase(vec![0], 0.4).mcphase(vec![0, 1], -0.9);
        assert_equivalent(&c, &TranspileOptions::default(), 2);
    }

    #[test]
    fn ublock_lemma2_equivalent() {
        // The paper's Fig. 5 example: u = (-1, +1, -1) plus 2 ancillas.
        let mut c = Circuit::new(5);
        c.ublock(UBlock::from_u_with_angle(&[-1, 1, -1], 0.8));
        let opts = TranspileOptions::with_ancillas(vec![3, 4]);
        assert_equivalent(&c, &opts, 3);
    }

    #[test]
    fn ublock_all_patterns_equivalent() {
        // Every v-pattern on a 3-qubit support must decompose correctly.
        for pattern_bits in 0..8i32 {
            let u: Vec<i8> = (0..3)
                .map(|k| if (pattern_bits >> k) & 1 == 1 { 1 } else { -1 })
                .collect();
            let mut c = Circuit::new(5);
            c.ublock(UBlock::from_u_with_angle(&u, 0.61));
            let opts = TranspileOptions::with_ancillas(vec![3, 4]);
            assert_equivalent(&c, &opts, 3);
        }
    }

    #[test]
    fn ublock_single_qubit_is_rx() {
        let mut c = Circuit::new(1);
        c.ublock(UBlock::from_u_with_angle(&[1], 0.5));
        let lowered = transpile(&c, &TranspileOptions::default()).unwrap();
        assert_eq!(lowered.gates(), &[Gate::Rx(0, 1.0)]);
    }

    #[test]
    fn ublock_two_qubit_and_xymix_equivalent() {
        let mut c = Circuit::new(3);
        c.xy(0, 1, 0.35)
            .ublock(UBlock::from_u_with_angle(&[1, -1], 0.2));
        // 2-qubit MCPhase needs no ancilla.
        assert_equivalent(&c, &TranspileOptions::default(), 2);
    }

    #[test]
    fn diag_phase_lowering_equivalent() {
        let mut poly = PhasePoly::new(3);
        poly.add_linear(0, 1.5);
        poly.add_linear(2, -0.5);
        poly.add_quadratic(0, 1, 2.0);
        poly.add_quadratic(1, 2, -1.0);
        let mut c = Circuit::new(3);
        c.h(0).h(1).h(2).diag(Arc::new(poly), 0.37);
        assert_equivalent(&c, &TranspileOptions::default(), 3);
    }

    #[test]
    fn diag_constant_is_dropped() {
        let mut poly = PhasePoly::new(1);
        poly.add_constant(42.0);
        let mut c = Circuit::new(1);
        c.diag(Arc::new(poly), 1.0);
        let lowered = transpile(&c, &TranspileOptions::default()).unwrap();
        assert!(lowered.is_empty());
    }

    #[test]
    fn zyz_reconstructs_unitaries() {
        let cases = [
            Gate::H(0).matrix_1q().unwrap(),
            Gate::T(0).matrix_1q().unwrap(),
            Gate::Rx(0, 1.234).matrix_1q().unwrap(),
            Gate::Ry(0, -0.7).matrix_1q().unwrap(),
            [
                [c64(0.6, 0.0), c64(0.0, 0.8)],
                [c64(0.0, 0.8), c64(0.6, 0.0)],
            ],
        ];
        for m in cases {
            let (alpha, beta, gamma, delta) = zyz_decompose(m);
            // Rebuild e^{iα} Rz(β) Ry(γ) Rz(δ) and compare.
            let rz = |t: f64| {
                [
                    [Complex64::cis(-t / 2.0), Complex64::ZERO],
                    [Complex64::ZERO, Complex64::cis(t / 2.0)],
                ]
            };
            let ry = |t: f64| {
                [
                    [c64((t / 2.0).cos(), 0.0), c64(-(t / 2.0).sin(), 0.0)],
                    [c64((t / 2.0).sin(), 0.0), c64((t / 2.0).cos(), 0.0)],
                ]
            };
            let mul = |a: [[Complex64; 2]; 2], b: [[Complex64; 2]; 2]| {
                let mut r = [[Complex64::ZERO; 2]; 2];
                for i in 0..2 {
                    for j in 0..2 {
                        for (k, bk) in b.iter().enumerate() {
                            r[i][j] += a[i][k] * bk[j];
                        }
                    }
                }
                r
            };
            let mut rebuilt = mul(rz(beta), mul(ry(gamma), rz(delta)));
            let phase = Complex64::cis(alpha);
            for row in rebuilt.iter_mut() {
                for entry in row.iter_mut() {
                    *entry *= phase;
                }
            }
            for i in 0..2 {
                for j in 0..2 {
                    assert!(
                        rebuilt[i][j].approx_eq(m[i][j], 1e-9),
                        "mismatch at ({i},{j}): {} vs {}",
                        rebuilt[i][j],
                        m[i][j]
                    );
                }
            }
        }
    }

    #[test]
    fn controlled_u_single_control_equivalent() {
        let m = Gate::Ry(0, 0.9).matrix_1q().unwrap();
        let mut c = Circuit::new(2);
        c.push(Gate::ControlledU {
            controls: vec![0],
            target: 1,
            matrix: m,
        });
        assert_equivalent(&c, &TranspileOptions::default(), 2);
    }

    #[test]
    fn controlled_u_multi_control_equivalent() {
        let m = Gate::T(0).matrix_1q().unwrap();
        let mut c = Circuit::new(6);
        c.push(Gate::ControlledU {
            controls: vec![0, 1, 2],
            target: 3,
            matrix: m,
        });
        let opts = TranspileOptions::with_ancillas(vec![4, 5]);
        assert_equivalent(&c, &opts, 4);
    }

    #[test]
    fn transpiled_depth_is_linear_in_support() {
        // The headline claim of Lemma 2: UBlock depth grows *linearly* with
        // the support size once the construction settles (small supports use
        // cheaper special cases). Measured on a wide register so borrowed
        // ancillas are plentiful, as in real problem circuits.
        let depths: Vec<usize> = (5..=9)
            .map(|k| {
                let u: Vec<i8> = (0..k).map(|i| if i % 2 == 0 { 1 } else { -1 }).collect();
                let mut c = Circuit::new(16);
                c.ublock(UBlock::from_u_with_angle(&u, 0.4));
                let opts = TranspileOptions::with_ancillas(vec![14, 15]);
                transpile(&c, &opts).unwrap().depth()
            })
            .collect();
        let increments: Vec<i64> = depths
            .windows(2)
            .map(|w| w[1] as i64 - w[0] as i64)
            .collect();
        for &inc in &increments {
            assert!(inc > 0, "depth must grow: {depths:?}");
        }
        // Linearity: per-qubit increments stay within 2× of each other
        // (an exponential construction would double them every step).
        let min = *increments.iter().min().unwrap() as f64;
        let max = *increments.iter().max().unwrap() as f64;
        assert!(
            max <= 2.0 * min,
            "increments not linear: {increments:?} from depths {depths:?}"
        );
    }
}
