//! Parity of the two transpiler sinks.
//!
//! [`transpile`] collects the lowered gates into a circuit;
//! [`transpiled_stats`] streams the same lowering into a depth frontier and
//! two counters. Over random circuits that mix every non-basic gate kind,
//! both two-qubit bases and every ancilla situation, the statistics must
//! equal `transpile` followed by `depth()`, `len()` and
//! `multi_qubit_gate_count()` — and a lowering that needs a missing
//! ancilla must fail with the same error through both sinks.
//!
//! Release builds run many more random cases than debug builds.

use choco_q::mathkit::{c64, SplitMix64};
use choco_q::qsim::{
    transpile, transpiled_stats, Circuit, Gate, PhasePoly, RegisterShift, ShiftBlock,
    TranspileError, TranspileOptions, TranspiledStats, TwoQubitBasis, UBlock,
};
use proptest::prelude::*;
use std::sync::Arc;

/// The statistics of the materialized lowering, or its error.
fn via_circuit(c: &Circuit, opts: &TranspileOptions) -> Result<TranspiledStats, TranspileError> {
    transpile(c, opts).map(|lowered| TranspiledStats {
        depth: lowered.depth(),
        gates: lowered.len(),
        two_qubit_gates: lowered.multi_qubit_gate_count(),
    })
}

/// `k` distinct qubits of `0..n` in random order.
fn distinct(rng: &mut SplitMix64, n: usize, k: usize) -> Vec<usize> {
    let mut qs: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut qs);
    qs.truncate(k);
    qs
}

fn angle(rng: &mut SplitMix64) -> f64 {
    rng.gen_range_f64(-3.0, 3.0)
}

/// A random register-gated commute block over the data qubits `0..d`.
fn random_shift_block(rng: &mut SplitMix64, d: usize) -> Gate {
    let s = 1 + rng.gen_range(0, (d - 1).min(3) as u64) as usize;
    let mut qs = distinct(rng, d, d);
    let mut support: Vec<usize> = qs.drain(..s).collect();
    support.sort_unstable();
    let mut shifts = Vec::new();
    while !qs.is_empty() && shifts.len() < 2 {
        let r = 1 + rng.gen_range(0, qs.len().min(3) as u64) as usize;
        let mut qubits: Vec<usize> = qs.drain(..r).collect();
        qubits.sort_unstable();
        let max_value = rng.gen_range(0, 1 << r);
        let delta = rng.gen_range(0, 5) as i64 - 2;
        shifts.push(RegisterShift {
            qubits,
            delta,
            max_value,
        });
        if rng.gen_bool(0.5) {
            break;
        }
    }
    Gate::ShiftBlock(ShiftBlock {
        support,
        pattern: rng.gen_range(0, 1 << s),
        shifts,
        angle: angle(rng),
    })
}

/// One random gate over the data qubits `0..d` (`d ≥ 2`), of kind `kind`.
fn random_gate(rng: &mut SplitMix64, d: usize, kind: u64) -> Gate {
    match kind {
        0 => {
            let q = rng.gen_range(0, d as u64) as usize;
            [Gate::H(q), Gate::X(q), Gate::T(q), Gate::Sdg(q)][rng.gen_range(0, 4) as usize].clone()
        }
        1 => {
            let (q, t) = (rng.gen_range(0, d as u64) as usize, angle(rng));
            [
                Gate::Rx(q, t),
                Gate::Ry(q, t),
                Gate::Rz(q, t),
                Gate::Phase(q, t),
            ][rng.gen_range(0, 4) as usize]
                .clone()
        }
        2 => {
            let q = distinct(rng, d, 2);
            [
                Gate::Cx(q[0], q[1]),
                Gate::Cz(q[0], q[1]),
                Gate::Swap(q[0], q[1]),
            ][rng.gen_range(0, 3) as usize]
                .clone()
        }
        3 => {
            let q = distinct(rng, d, 2);
            Gate::Cp(q[0], q[1], angle(rng))
        }
        4 if d >= 3 => {
            let q = distinct(rng, d, 3);
            Gate::Ccx(q[0], q[1], q[2])
        }
        5 => {
            let k = 1 + rng.gen_range(0, d as u64) as usize;
            let mut q = distinct(rng, d, k);
            let target = q.pop().expect("at least one qubit");
            Gate::Mcx {
                controls: q,
                target,
            }
        }
        6 => {
            let k = rng.gen_range(0, d as u64 + 1) as usize;
            Gate::McPhase {
                qubits: distinct(rng, d, k),
                angle: angle(rng),
            }
        }
        7 => {
            let k = 1 + rng.gen_range(0, d as u64) as usize;
            let mut q = distinct(rng, d, k);
            let target = q.pop().expect("at least one qubit");
            let m = [
                Gate::Rx(0, angle(rng)),
                Gate::H(0),
                Gate::T(0),
                Gate::Ry(0, angle(rng)),
            ][rng.gen_range(0, 4) as usize]
                .matrix_1q()
                .expect("one-qubit matrix");
            Gate::ControlledU {
                controls: q,
                target,
                matrix: m,
            }
        }
        8 => {
            let u: Vec<i8> = (0..d)
                .map(|_| [-1i8, 0, 1][rng.gen_range(0, 3) as usize])
                .collect();
            if u.iter().all(|&x| x == 0) {
                return Gate::UBlock(UBlock::from_u_with_angle(&[1], angle(rng)));
            }
            Gate::UBlock(UBlock::from_u_with_angle(&u, angle(rng)))
        }
        9 => random_shift_block(rng, d),
        10 => {
            let k = 1 + rng.gen_range(0, d as u64) as usize;
            let mut support = distinct(rng, d, k);
            support.sort_unstable();
            Gate::ShiftBlock(ShiftBlock {
                pattern: rng.gen_range(0, 1 << support.len()),
                support,
                shifts: vec![],
                angle: angle(rng),
            })
        }
        11 => {
            let q = distinct(rng, d, 2);
            Gate::XyMix(q[0], q[1], angle(rng))
        }
        _ => {
            let mut poly = PhasePoly::new(d);
            for i in 0..d {
                if rng.gen_bool(0.5) {
                    poly.add_linear(i, rng.gen_range_f64(-2.0, 2.0));
                }
            }
            for _ in 0..rng.gen_range(0, 4) {
                let q = distinct(rng, d, 2);
                poly.add_quadratic(q[0], q[1], rng.gen_range_f64(-2.0, 2.0));
            }
            poly.add_constant(1.5);
            Gate::DiagPhase(Arc::new(poly), angle(rng))
        }
    }
}

/// A random circuit of `n` qubits whose last `clean` qubits are the clean
/// ancillas (the paper's layout when `clean == 2`), with a random basis.
fn random_case(seed: u64) -> (Circuit, TranspileOptions) {
    let mut rng = SplitMix64::new(seed);
    let n = 3 + rng.gen_range(0, 8) as usize; // 3..=10
    let clean = rng.gen_range(0, 3).min(n as u64 - 2) as usize;
    let d = n - clean;
    let mut c = Circuit::new(n);
    for _ in 0..1 + rng.gen_range(0, 5) {
        let kind = rng.gen_range(0, 13);
        c.push(random_gate(&mut rng, d, kind));
    }
    let opts = TranspileOptions {
        two_qubit: if rng.gen_bool(0.5) {
            TwoQubitBasis::Cx
        } else {
            TwoQubitBasis::Cz
        },
        ancillas: (d..n).collect(),
    };
    (c, opts)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 128 } else { 4096 }))]

    /// The streaming statistics equal the materialized lowering's, and a
    /// lowering that fails fails identically through both sinks.
    #[test]
    fn transpiled_stats_match_the_materialized_lowering(seed in any::<u64>()) {
        let (c, opts) = random_case(seed);
        let streamed = transpiled_stats(&c, &opts);
        prop_assert_eq!(&streamed, &via_circuit(&c, &opts), "circuit:\n{}\n{:?}", c, opts);
    }
}

/// Every lowering branch, in both bases, one circuit each: the
/// multi-controlled X on its clean chain, borrowed V-chain and Barenco
/// split; multi-controlled phase by recursion and by ancilla; controlled
/// unitaries with 0, 1 and several controls; and every `NeedsAncilla`.
#[test]
fn transpiled_stats_match_on_every_lowering_branch() {
    let mcx = |n: usize, controls: Vec<usize>, target: usize| {
        let mut c = Circuit::new(n);
        c.mcx(controls, target);
        c
    };
    let cu = |n: usize, controls: Vec<usize>, target: usize| {
        let mut c = Circuit::new(n);
        c.push(Gate::ControlledU {
            controls,
            target,
            matrix: [
                [c64(0.6, 0.0), c64(0.0, 0.8)],
                [c64(0.0, 0.8), c64(0.6, 0.0)],
            ],
        });
        c
    };
    let mcp = |n: usize, k: usize| {
        let mut c = Circuit::new(n);
        c.mcphase((0..k).collect(), 0.7);
        c
    };
    let with = TranspileOptions::with_ancillas;
    let cases: Vec<(&str, Circuit, TranspileOptions, bool)> = vec![
        (
            "mcx clean chain",
            mcx(7, vec![0, 1, 2, 3], 4),
            with(vec![5, 6]),
            true,
        ),
        (
            "mcx dirty v-chain",
            mcx(7, vec![0, 1, 2, 3], 4),
            with(vec![]),
            true,
        ),
        (
            "mcx barenco",
            mcx(6, vec![0, 1, 2, 3], 4),
            with(vec![]),
            true,
        ),
        (
            "mcx no spare",
            mcx(4, vec![0, 1, 2], 3),
            with(vec![]),
            false,
        ),
        ("mcp recursion", mcp(6, 6), with(vec![]), true),
        ("mcp ancilla", mcp(9, 8), with(vec![8]), true),
        ("mcp no ancilla", mcp(8, 8), with(vec![]), false),
        ("cu 0 controls", cu(1, vec![], 0), with(vec![]), true),
        ("cu 1 control", cu(2, vec![0], 1), with(vec![]), true),
        (
            "cu 3 controls",
            cu(6, vec![0, 1, 2], 3),
            with(vec![4, 5]),
            true,
        ),
        (
            "cu no ancilla",
            cu(5, vec![0, 1, 2], 3),
            with(vec![]),
            false,
        ),
    ];
    for (name, c, opts, lowers) in cases {
        for basis in [TwoQubitBasis::Cx, TwoQubitBasis::Cz] {
            let opts = TranspileOptions {
                two_qubit: basis,
                ..opts.clone()
            };
            let streamed = transpiled_stats(&c, &opts);
            assert_eq!(streamed, via_circuit(&c, &opts), "{name} ({basis:?})");
            if lowers {
                assert!(streamed.expect("lowers").gates > 0, "{name}");
            } else {
                assert!(
                    matches!(streamed, Err(TranspileError::NeedsAncilla { .. })),
                    "{name}"
                );
            }
        }
    }
}
