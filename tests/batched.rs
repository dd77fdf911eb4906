//! Differential tests for the batched multi-angle plan replay.
//!
//! A batched replay evaluates K candidate angle sets of one circuit
//! shape in a single pass over the cached gate plan
//! ([`SimWorkspace::run_batch`]). The contract it must keep — proved here
//! across all six problem families, register widths 4..=14, batch widths
//! K ∈ {1, 2, 3, 8, 17} (non-powers of two and K > |F| included), and
//! 1/2/4 worker threads — is **bit-identity**: every lane's amplitudes,
//! expectations, and deterministic sample histograms equal those of a
//! serial (one-lane) compact run of that lane's circuit, byte for byte,
//! and that serial run's amplitudes equal the dense engine's. The
//! second half locks the resource story: one plan compilation across
//! serial runs × batches × workers sharing a cache, and zero K-lane buffer
//! allocations after warmup.
//!
//! Shapes that run dense are batched differently: a forked batch
//! ([`SimWorkspace::run_forked`]) replays the gate prefix the lanes share
//! once on a trunk state and forks each lane off it. The same
//! bit-identity contract holds there, lane by lane, against a serial
//! [`SimWorkspace::run`] and the bare dense engine.

use choco_q::core::{ChocoQSolver, CommuteDriver};
use choco_q::mathkit::{Complex64, SplitMix64};
use choco_q::model::Problem;
use choco_q::qsim::{
    Circuit, EngineKind, Gate, PhasePoly, PlanCache, SimConfig, SimWorkspace, StateVector,
};
use choco_q::runner::ProblemRef;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

/// The system allocator, counting the allocations each thread makes so
/// the zero-allocation contracts can be checked directly.
struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: defers every operation to `System`; the counter is a
// const-initialized thread-local without a destructor, so touching it
// never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made by the current thread so far.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// The family shapes of `tests/engines.rs`, kept in 4..=14 qubits.
const FAMILY_SHAPES: [&[&str]; 5] = [
    &["flp:2x1", "flp:2x2"],
    &["gcp:2x1x2", "gcp:3x2x2", "gcp:3x3x2"],
    &["kpp:4x3x2", "kpp:4x4x2", "kpp:6x5x2"],
    &["cover:4x6", "cover:5x8", "cover:6x12"],
    &["knapsack:4x6", "knapsack:5x8", "knapsack:6x10"],
];

/// A random summation-constrained builder instance (family index 5).
fn random_instance(seed: u64) -> Problem {
    let mut rng = SplitMix64::new(seed ^ 0xFEED);
    let n = 4 + (rng.gen_range(0, 11) as usize); // 4..=14
    let mut b = Problem::builder(n);
    for i in 0..n {
        b = b.linear(i, rng.gen_range_f64(-3.0, 3.0));
    }
    let half = n / 2;
    let k1 = 1 + rng.gen_range(0, half as u64 - 1) as i64;
    b = b.equality((0..half).map(|i| (i, 1i64)), k1.min(half as i64));
    b.build().expect("valid random instance")
}

fn family_instance(family: usize, seed: u64) -> Problem {
    if family == 5 {
        return random_instance(seed);
    }
    let shapes = FAMILY_SHAPES[family];
    let shape = shapes[(seed % shapes.len() as u64) as usize];
    ProblemRef::parse(shape)
        .expect("valid shape")
        .build(1 + seed % 5)
        .expect("instance generates")
}

/// K same-shape Choco-Q circuits differing only in their angle sets —
/// exactly what an optimizer's simplex batch looks like.
fn candidate_circuits(problem: &Problem, seed: u64, k: usize) -> Option<Vec<Circuit>> {
    let driver = CommuteDriver::build(problem.constraints()).ok()?;
    let initial = problem.first_feasible()?;
    let ordered = driver.ordered_terms(initial);
    let poly = Arc::new(problem.cost_poly());
    let circuits = (0..k)
        .map(|lane| {
            let mut rng = SplitMix64::new(seed ^ 0xC1AC ^ (lane as u64) << 32);
            let params: Vec<f64> = (0..ChocoQSolver::n_params(1, ordered.len()))
                .map(|_| rng.gen_range_f64(-1.5, 1.5))
                .collect();
            ChocoQSolver::build_circuit(&driver, &poly, &ordered, initial, 1, &params)
        })
        .collect();
    Some(circuits)
}

fn compact_threaded(threads: usize) -> SimConfig {
    SimConfig {
        threads,
        parallel_threshold: 1, // force fan-out even on small states
        ..SimConfig::default()
    }
    .with_engine(EngineKind::Compact)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(36))]

    /// The batched-vs-serial differential matrix: each lane of a K-wide
    /// replay is byte-identical (==, not approx) to its own serial
    /// compact run — amplitudes, expectations, and 2000-shot sample
    /// histograms — at every batch width and worker count.
    #[test]
    fn batched_lanes_match_serial_replays_bitwise(
        family in 0usize..6,
        seed in any::<u64>(),
        k_idx in 0usize..5,
    ) {
        let k = [1usize, 2, 3, 8, 17][k_idx];
        let problem = family_instance(family, seed);
        prop_assert!(problem.n_vars() <= 14);
        let Some(circuits) = candidate_circuits(&problem, seed, k) else {
            return Ok(());
        };
        let cost = problem.cost_poly();

        // Serial references, one compact run per lane.
        let mut serial_ws = SimWorkspace::new(compact_threaded(1));
        let mut reference = Vec::with_capacity(k);
        for circuit in &circuits {
            let state = serial_ws.run(circuit);
            if !state.is_compact() {
                // Shape fell back (|F| over the cap): batching declines
                // it too — checked below, nothing lane-wise to compare.
                prop_assert!(
                    SimWorkspace::new(compact_threaded(1)).run_batch(&circuits).is_none(),
                    "family={family}: batch accepted a shape serial replay refused"
                );
                return Ok(());
            }
            let amps: Vec<_> = (0..(1u64 << problem.n_vars()))
                .map(|bits| state.amplitude(bits))
                .collect();
            // A serial run is the one-lane case of the same executor, so
            // pin it to the independent dense engine as well.
            let dense = StateVector::run_with(circuit, SimConfig::serial());
            prop_assert!(
                dense.amplitudes() == amps.as_slice(),
                "family={family}: one-lane replay diverged from dense"
            );
            let expectation = state.expectation_diag_poly(&cost);
            let mut rng = StdRng::seed_from_u64(seed);
            let histogram = serial_ws.sample(2_000, &mut rng);
            reference.push((amps, expectation, histogram));
        }

        for threads in [1usize, 2, 4] {
            let mut ws = SimWorkspace::new(compact_threaded(threads));
            let batch = ws.run_batch(&circuits).expect("compilable batch");
            prop_assert_eq!(batch.lanes(), k);
            for (lane, (amps, expectation, histogram)) in reference.iter().enumerate() {
                for (bits, expect) in amps.iter().enumerate() {
                    let got = batch.amplitude(lane, bits as u64);
                    prop_assert!(
                        got.re == expect.re && got.im == expect.im,
                        "family={family} threads={threads} K={k} lane={lane} \
                         bits={bits}: batched {got} serial {expect}"
                    );
                }
                prop_assert_eq!(
                    batch.expectation_diag_poly(lane, &cost),
                    *expectation,
                    "family={} threads={} K={} lane={}: expectation diverged",
                    family, threads, k, lane
                );
                let mut rng = StdRng::seed_from_u64(seed);
                prop_assert!(
                    batch.sample(lane, 2_000, &mut rng) == *histogram,
                    "family={family} threads={threads} K={k} lane={lane}: \
                     sample histogram diverged"
                );
            }
            prop_assert_eq!(ws.plan_compilations(), 1, "one compile per workspace");
        }
    }
}

/// One gate slot of a random dense circuit template; parametric slots
/// take their angle from the next entry of the lane's parameter vector.
#[derive(Clone, Copy, Debug)]
enum Slot {
    H(usize),
    Rx(usize),
    Ry(usize),
    Rz(usize),
    Cx(usize, usize),
    Cz(usize, usize),
    Cp(usize, usize),
    /// A controlled `Ry` (control, target) as a general controlled unitary.
    CtrlRy(usize, usize),
    Xy(usize, usize),
    Diag,
}

impl Slot {
    fn is_parametric(self) -> bool {
        !matches!(self, Slot::H(_) | Slot::Cx(..) | Slot::Cz(..))
    }
}

/// A random register-filling template over `n` qubits: a Hadamard layer
/// first, then random slots, always including a rotation on qubit 0 and
/// controlled gates whose control is bit 0.
fn dense_template(rng: &mut SplitMix64, n: usize) -> Vec<Slot> {
    let mut slots: Vec<Slot> = (0..n).map(Slot::H).collect();
    slots.extend([
        Slot::Rx(0),
        Slot::CtrlRy(0, 1),
        Slot::Cx(0, n - 1),
        Slot::Diag,
    ]);
    for _ in 0..4 + rng.gen_range(0, 16) {
        let a = rng.gen_range(0, n as u64) as usize;
        let b = (a + 1 + rng.gen_range(0, n as u64 - 1) as usize) % n;
        slots.push(match rng.gen_range(0, 10) {
            0 => Slot::H(a),
            1 => Slot::Rx(a),
            2 => Slot::Ry(a),
            3 => Slot::Rz(a),
            4 => Slot::Cx(a, b),
            5 => Slot::Cz(a, b),
            6 => Slot::Cp(a, b),
            7 => Slot::CtrlRy(a, b),
            8 => Slot::Xy(a, b),
            _ => Slot::Diag,
        });
    }
    slots
}

fn template_params(slots: &[Slot]) -> usize {
    slots.iter().filter(|s| s.is_parametric()).count()
}

fn build_template(n: usize, slots: &[Slot], poly: &Arc<PhasePoly>, params: &[f64]) -> Circuit {
    let mut c = Circuit::new(n);
    let mut next = params.iter().copied();
    for &slot in slots {
        let mut angle = || next.next().expect("one parameter per parametric slot");
        match slot {
            Slot::H(q) => c.h(q),
            Slot::Rx(q) => c.rx(q, angle()),
            Slot::Ry(q) => c.ry(q, angle()),
            Slot::Rz(q) => c.rz(q, angle()),
            Slot::Cx(a, b) => c.cx(a, b),
            Slot::Cz(a, b) => c.cz(a, b),
            Slot::Cp(a, b) => c.cp(a, b, angle()),
            Slot::CtrlRy(a, b) => {
                let (sin, cos) = (angle() / 2.0).sin_cos();
                let real = |x: f64| Complex64::new(x, 0.0);
                c.push(Gate::ControlledU {
                    controls: vec![a],
                    target: b,
                    matrix: [[real(cos), real(-sin)], [real(sin), real(cos)]],
                })
            }
            Slot::Xy(a, b) => c.xy(a, b, angle()),
            Slot::Diag => c.diag(poly.clone(), angle()),
        };
    }
    c
}

/// The candidate groups optimizers send: an axis-perturbed simplex
/// (center plus `center + ρ·e_i`), SPSA-style `±Δ` pairs that share no
/// parameter, a group with lanes identical to the center, and lanes that
/// flip an exact `0.0` angle to `-0.0`.
fn candidate_params(rng: &mut SplitMix64, p: usize, mode: usize) -> Vec<Vec<f64>> {
    let mut center: Vec<f64> = (0..p).map(|_| rng.gen_range_f64(-1.5, 1.5)).collect();
    match mode {
        0 => std::iter::once(center.clone())
            .chain((0..p).map(|i| {
                let mut x = center.clone();
                x[i] += 0.3;
                x
            }))
            .collect(),
        1 => (0..4)
            .flat_map(|_| {
                let delta: Vec<f64> = (0..p)
                    .map(|_| if rng.gen_range(0, 2) == 0 { 0.1 } else { -0.1 })
                    .collect();
                let plus = center.iter().zip(&delta).map(|(c, d)| c + d).collect();
                let minus = center.iter().zip(&delta).map(|(c, d)| c - d).collect();
                [plus, minus]
            })
            .collect(),
        2 => {
            let mut tail = center.clone();
            tail[p - 1] -= 0.2;
            vec![center.clone(), tail, center.clone(), center]
        }
        _ => {
            for (i, x) in center.iter_mut().enumerate() {
                if i % 2 == 0 {
                    *x = 0.0;
                }
            }
            std::iter::once(center.clone())
                .chain((0..p).step_by(2).map(|i| {
                    let mut x = center.clone();
                    x[i] = -0.0;
                    x
                }))
                .collect()
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every lane of a forked dense batch equals a per-lane
    /// `SimWorkspace::run` bit for bit — amplitudes by `to_bits` and the
    /// expectation — and the bare dense engine too, at 1 and 2 worker
    /// threads, on the dense engine and on compact-refused shapes. Some
    /// lanes carry a distinct `Arc` of equal content for the diagonal,
    /// which must diverge (pointer identity), not be shared.
    #[test]
    fn forked_lanes_match_serial_runs_bitwise(
        seed in any::<u64>(),
        n in 2usize..9,
        mode in 0usize..4,
    ) {
        let mut rng = SplitMix64::new(seed);
        let slots = dense_template(&mut rng, n);
        let mut poly = PhasePoly::new(n);
        for q in 0..n {
            poly.add_linear(q, (1 + rng.gen_range(0, 3)) as f64);
        }
        poly.add_quadratic(0, n - 1, -1.0);
        let shared = Arc::new(poly);
        let params = candidate_params(&mut rng, template_params(&slots), mode);
        let circuits: Vec<Circuit> = params
            .iter()
            .map(|x| {
                let poly = if rng.gen_range(0, 4) == 0 {
                    Arc::new(PhasePoly::clone(&shared))
                } else {
                    shared.clone()
                };
                build_template(n, &slots, &poly, x)
            })
            .collect();
        let table: Vec<f64> = (0..1u64 << n).map(|b| shared.eval_bits(b)).collect();

        let mut reference = SimWorkspace::new(SimConfig::serial().with_engine(EngineKind::Dense));
        let expected: Vec<(Vec<Complex64>, f64)> = circuits
            .iter()
            .map(|c| {
                let state = reference.run(c);
                let amps: Vec<Complex64> = (0..1u64 << n).map(|b| state.amplitude(b)).collect();
                (amps, state.expectation_diag_values(&table))
            })
            .collect();
        for (circuit, (amps, _)) in circuits.iter().zip(&expected) {
            let bare = StateVector::run_with(circuit, SimConfig::serial());
            prop_assert!(
                bare.amplitudes().iter().zip(amps).all(|(a, b)| {
                    a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits()
                }),
                "workspace run diverged from the bare dense engine"
            );
        }

        let configs = [
            SimConfig::serial().with_engine(EngineKind::Dense),
            SimConfig { threads: 2, parallel_threshold: 1, ..SimConfig::serial() }
                .with_engine(EngineKind::Dense),
            SimConfig::serial(),
        ];
        for config in configs {
            let mut ws = SimWorkspace::new(config);
            let Some(mut forked) = ws.run_forked(&circuits) else {
                // Only the compact engine declines, on shapes it compiles.
                prop_assert!(config.engine == EngineKind::Compact);
                continue;
            };
            let mut visits = vec![0usize; circuits.len()];
            while let Some((lane, state)) = forked.next_lane() {
                visits[lane] += 1;
                let (amps, expectation) = &expected[lane];
                for (bits, want) in amps.iter().enumerate() {
                    let got = state.amplitude(bits as u64);
                    prop_assert!(
                        got.re.to_bits() == want.re.to_bits()
                            && got.im.to_bits() == want.im.to_bits(),
                        "mode={mode} lane={lane} bits={bits}: forked {got} serial {want}"
                    );
                }
                prop_assert_eq!(
                    state.expectation_diag_values(&table).to_bits(),
                    expectation.to_bits(),
                    "mode={} lane={}: expectation diverged", mode, lane
                );
            }
            prop_assert!(visits.iter().all(|&v| v == 1), "each lane exactly once: {visits:?}");
        }
    }
}

#[test]
fn batch_wider_than_the_feasible_set_is_exact() {
    // K = 17 lanes on a tiny instance whose |F| is far smaller than K:
    // the rank-major lane layout must not care which side is wider.
    let problem = family_instance(0, 0); // flp:2x1 — a handful of feasible states
    let circuits = candidate_circuits(&problem, 7, 17).expect("circuits build");
    let mut ws = SimWorkspace::new(compact_threaded(1));
    let batch = ws.run_batch(&circuits).expect("compilable batch");
    assert!(
        batch.lanes() > batch.basis().len(),
        "want K = {} > |F| = {} for this edge case",
        batch.lanes(),
        batch.basis().len()
    );
    let mut serial = SimWorkspace::new(compact_threaded(1));
    for (lane, circuit) in circuits.iter().enumerate() {
        let state = serial.run(circuit);
        for bits in 0..(1u64 << problem.n_vars()) {
            let (a, b) = (batch.amplitude(lane, bits), state.amplitude(bits));
            assert!(a.re == b.re && a.im == b.im, "lane={lane} bits={bits}");
        }
    }
}

#[test]
fn shared_cache_compiles_once_across_workers_and_batches() {
    // The PR-5 compile-once guarantee extended to batching: scoped
    // workers sharing one `Arc<PlanCache>`, each interleaving batched and
    // serial replays of the same shape, still compile it exactly once.
    let problem = family_instance(1, 3);
    let n = problem.n_vars();
    let circuits = candidate_circuits(&problem, 11, 4).expect("circuits build");
    let shared = Arc::new(PlanCache::new());
    std::thread::scope(|scope| {
        for w in 0..4 {
            let shared = Arc::clone(&shared);
            let circuits = &circuits;
            scope.spawn(move || {
                let mut ws = SimWorkspace::with_plan_cache(compact_threaded(1), shared);
                for round in 0..3 {
                    // Worker w cross-checks lane w % K against a serial
                    // run through the same shared cache.
                    let lane = w % circuits.len();
                    let probes: Vec<_> = {
                        let batch = ws.run_batch(circuits).expect("compilable batch");
                        (0..(1u64 << n))
                            .map(|bits| batch.amplitude(lane, bits))
                            .collect()
                    };
                    let state = ws.run(&circuits[lane]);
                    for (bits, probe) in probes.iter().enumerate() {
                        let serial = state.amplitude(bits as u64);
                        assert_eq!(probe.re, serial.re, "worker={w} round={round} bits={bits}");
                        assert_eq!(probe.im, serial.im, "worker={w} round={round} bits={bits}");
                    }
                }
            });
        }
    });
    assert_eq!(
        shared.compilations(),
        1,
        "4 workers × 3 rounds × (batched + serial) must share one compile"
    );
}

#[test]
fn batched_iterations_are_zero_alloc_after_warmup() {
    // The batched analog of the serial engine's zero-alloc contract:
    // after the first replay of a (shape, K), iterating never grows the
    // K-lane buffer — and a *narrower* batch reuses the wide allocation.
    let problem = family_instance(2, 5);
    let circuits = candidate_circuits(&problem, 13, 8).expect("circuits build");
    let mut ws = SimWorkspace::new(compact_threaded(1));
    for _ in 0..10 {
        ws.run_batch(&circuits).expect("compilable batch");
    }
    assert_eq!(ws.batch_reallocations(), 1, "one warmup allocation");
    for _ in 0..5 {
        ws.run_batch(&circuits[..3]).expect("narrower batch");
    }
    assert_eq!(ws.batch_reallocations(), 1, "narrower K reuses the buffer");
    assert_eq!(ws.plan_compilations(), 1, "iteration never recompiles");
    // The serial engine was never disturbed by any of it.
    assert_eq!(ws.reallocations(), 0, "serial path untouched");
}

#[test]
fn warm_serial_and_batched_replays_allocate_nothing() {
    // Once a shape is compiled and its buffers sized, a serial run (the
    // one-lane replay), a K-lane batch and the reads a solver makes on
    // either allocate nothing at all.
    let problem = family_instance(2, 5);
    let circuits = candidate_circuits(&problem, 17, 6).expect("circuits build");
    let cost = problem.cost_poly();
    let mut ws = SimWorkspace::new(compact_threaded(1));
    for circuit in &circuits {
        assert!(ws.run(circuit).is_compact());
    }
    ws.run_batch(&circuits).expect("compilable batch");
    let before = allocations();
    let mut total = 0.0;
    for _ in 0..3 {
        for circuit in &circuits {
            total += ws.run(circuit).expectation_diag_poly(&cost);
        }
        let batch = ws.run_batch(&circuits).expect("compilable batch");
        total += (0..batch.lanes())
            .map(|lane| batch.expectation_diag_poly(lane, &cost))
            .sum::<f64>();
    }
    assert_eq!(allocations() - before, 0, "warm replays allocated");
    assert!(total.is_finite());

    // The warm dense fork path: trunk, fork state, diagonal cache and the
    // lane-order scratch all stay allocated between groups.
    let n = 8;
    let mut rng = SplitMix64::new(23);
    let slots = dense_template(&mut rng, n);
    let mut poly = PhasePoly::new(n);
    for q in 0..n {
        poly.add_linear(q, 1.0);
    }
    let poly = Arc::new(poly);
    let table: Vec<f64> = (0..1u64 << n).map(|b| poly.eval_bits(b)).collect();
    let circuits: Vec<Circuit> = candidate_params(&mut rng, template_params(&slots), 0)
        .iter()
        .map(|x| build_template(n, &slots, &poly, x))
        .collect();
    let mut dense_ws = SimWorkspace::new(SimConfig::serial().with_engine(EngineKind::Dense));
    let mut forked = dense_ws.run_forked(&circuits).expect("dense group forks");
    while forked.next_lane().is_some() {}
    let before = allocations();
    let mut total = 0.0;
    for _ in 0..3 {
        let mut forked = dense_ws.run_forked(&circuits).expect("dense group forks");
        while let Some((_, state)) = forked.next_lane() {
            total += state.expectation_diag_values(&table);
        }
    }
    assert_eq!(allocations() - before, 0, "warm forked batches allocated");
    assert!(total.is_finite());
}
