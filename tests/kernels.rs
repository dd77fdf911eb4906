//! Property tests for the state-vector fast path: random circuits of mixed
//! gates must agree between the strided/parallel kernels
//! ([`choco_q::qsim::StateVector`]) and the retained scan-and-mask oracle
//! ([`choco_q::qsim::oracle::ScalarStateVector`]) to 1e-10 fidelity, across
//! 1–12 qubits and 1–4 worker threads (with the parallel threshold forced
//! to 1 so threading engages even on small states).

use choco_q::mathkit::SplitMix64;
use choco_q::qsim::oracle::ScalarStateVector;
use choco_q::qsim::{
    Circuit, EngineKind, Gate, PhasePoly, SimConfig, SimWorkspace, StateVector, UBlock,
};
use proptest::prelude::*;
use std::sync::Arc;

/// Draws `k` distinct qubits of an `n`-qubit register.
fn distinct_qubits(rng: &mut SplitMix64, n: usize, k: usize) -> Vec<usize> {
    let mut all: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut all);
    all.truncate(k);
    all
}

/// A random quadratic phase polynomial over `n` variables.
fn random_poly(rng: &mut SplitMix64, n: usize) -> PhasePoly {
    let mut poly = PhasePoly::new(n);
    poly.add_constant(rng.gen_range_f64(-1.0, 1.0));
    for i in 0..n {
        if rng.gen_bool(0.7) {
            poly.add_linear(i, rng.gen_range_f64(-2.0, 2.0));
        }
    }
    for _ in 0..n {
        let i = rng.gen_range(0, n as u64) as usize;
        let j = rng.gen_range(0, n as u64) as usize;
        if i != j {
            poly.add_quadratic(i, j, rng.gen_range_f64(-1.5, 1.5));
        }
    }
    poly
}

/// A random non-zero ternary vector over `n` entries (UBlock pattern).
fn random_u(rng: &mut SplitMix64, n: usize) -> Vec<i8> {
    loop {
        let u: Vec<i8> = (0..n)
            .map(|_| match rng.gen_range(0, 3) {
                0 => -1i8,
                1 => 0,
                _ => 1,
            })
            .collect();
        if u.iter().any(|&x| x != 0) {
            return u;
        }
    }
}

/// A random circuit exercising every kernel shape the engine dispatches
/// on: diagonal / anti-diagonal / real / general 1-qubit matrices,
/// controlled and multi-controlled flips and phases, swaps, XY mixers,
/// commute blocks, and diagonal polynomial evolutions.
fn random_circuit(seed: u64, n: usize, gates: usize) -> Circuit {
    let mut rng = SplitMix64::new(seed);
    let mut c = Circuit::new(n);
    // A couple of Hadamards guarantee superposition so phase-only bugs
    // cannot hide in an unentangled basis state.
    for q in 0..n.min(3) {
        c.h(q);
    }
    for _ in 0..gates {
        let q = rng.gen_range(0, n as u64) as usize;
        let theta = rng.gen_range_f64(-2.0, 2.0);
        match rng.gen_range(0, if n >= 2 { 14 } else { 7 }) {
            0 => {
                c.h(q);
            }
            1 => {
                c.push(if rng.gen_bool(0.5) {
                    Gate::X(q)
                } else {
                    Gate::Y(q)
                });
            }
            2 => {
                c.push(if rng.gen_bool(0.5) {
                    Gate::S(q)
                } else {
                    Gate::Tdg(q)
                });
            }
            3 => {
                c.rx(q, theta);
            }
            4 => {
                c.ry(q, theta);
            }
            5 => {
                c.rz(q, theta);
            }
            6 => {
                let poly = random_poly(&mut rng, n);
                c.diag(Arc::new(poly), theta);
            }
            7 => {
                let qs = distinct_qubits(&mut rng, n, 2);
                c.cx(qs[0], qs[1]);
            }
            8 => {
                let qs = distinct_qubits(&mut rng, n, 2);
                c.cp(qs[0], qs[1], theta);
            }
            9 => {
                let qs = distinct_qubits(&mut rng, n, 2);
                c.push(Gate::Swap(qs[0], qs[1]));
            }
            10 => {
                let qs = distinct_qubits(&mut rng, n, 2);
                c.xy(qs[0], qs[1], theta);
            }
            11 => {
                c.ublock(UBlock::from_u_with_angle(&random_u(&mut rng, n), theta));
            }
            12 => {
                let k = 2 + rng.gen_range(0, (n - 1).min(4) as u64) as usize;
                let mut qs = distinct_qubits(&mut rng, n, k);
                let target = qs.pop().expect("k >= 2");
                c.mcx(qs, target);
            }
            _ => {
                let k = 2 + rng.gen_range(0, (n - 1).min(4) as u64) as usize;
                c.mcphase(distinct_qubits(&mut rng, n, k), theta);
            }
        }
    }
    c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Strided/parallel kernels match the scan-and-mask oracle on random
    /// mixed circuits at every thread count.
    #[test]
    fn fast_engine_matches_oracle(
        seed in any::<u64>(),
        n in 1usize..13,
        threads in 1usize..5,
    ) {
        let circuit = random_circuit(seed, n, 24);
        let oracle = ScalarStateVector::run(&circuit);
        let config = SimConfig {
            threads,
            parallel_threshold: 1,
            ..SimConfig::default()
        };
        let fast = StateVector::run_with(&circuit, config);
        let fidelity = oracle.fidelity_against(&fast);
        prop_assert!(
            (fidelity - 1.0).abs() < 1e-10,
            "seed={seed} n={n} threads={threads}: fidelity={fidelity}"
        );
        // Per-amplitude agreement is stronger than fidelity: catch global
        // phase drift too.
        for (a, b) in oracle.amplitudes().iter().zip(fast.amplitudes()) {
            prop_assert!(a.approx_eq(*b, 1e-10), "amplitude mismatch");
        }
    }

    /// The workspace path (cached diagonals, reused buffers) is equivalent
    /// to the oracle as well, including when the same workspace replays
    /// circuits of different shapes — on the dense engine, and on the
    /// compact engine (which compiles or refuses each random shape).
    #[test]
    fn workspace_matches_oracle(
        seed in any::<u64>(),
        n in 2usize..10,
        threads in 1usize..5,
    ) {
        let config = SimConfig {
            threads,
            parallel_threshold: 1,
            ..SimConfig::default()
        };
        let mut dense_ws = SimWorkspace::new(config.with_engine(EngineKind::Dense));
        let mut compact_ws = SimWorkspace::new(config);
        for round in 0..3u64 {
            let circuit = random_circuit(seed.wrapping_add(round), n, 16);
            let oracle = ScalarStateVector::run(&circuit);
            for ws in [&mut dense_ws, &mut compact_ws] {
                let state = ws.run(&circuit);
                let fidelity = oracle.fidelity_against_engine(state);
                prop_assert!(
                    (fidelity - 1.0).abs() < 1e-10,
                    "seed={seed} n={n} threads={threads} round={round} {}: fidelity={fidelity}",
                    state.representation_label()
                );
            }
        }
        prop_assert!(dense_ws.reallocations() == 1, "same width must not reallocate");
    }

    /// Unitarity: the fast path preserves the norm at any thread count.
    #[test]
    fn fast_engine_preserves_norm(
        seed in any::<u64>(),
        n in 1usize..13,
        threads in 1usize..5,
    ) {
        let circuit = random_circuit(seed, n, 24);
        let config = SimConfig {
            threads,
            parallel_threshold: 1,
            ..SimConfig::default()
        };
        let state = StateVector::run_with(&circuit, config);
        prop_assert!((state.norm_sqr() - 1.0).abs() < 1e-9);
    }
}
