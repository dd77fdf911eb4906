//! Criterion bench: state-vector engine throughput — the quantum-execution
//! cost that dominates every solver's iteration loop (Fig. 11's `execute`
//! share).
//!
//! Three engines are measured on the same layer circuit so the fast-path
//! speedup is tracked against the retained scan-and-mask baseline:
//!
//! * `statevector_layer` — the production engine (strided subspace
//!   kernels, shape-specialized 2×2 arithmetic, threading per
//!   [`SimConfig`]),
//! * `statevector_layer_scalar` — the [`choco_qsim::oracle`] baseline that
//!   scans all `2^n` indices per gate,
//! * `statevector_layer_workspace` — the engine as the solvers drive it:
//!   a [`SimWorkspace`] reusing the amplitude buffer and cached diagonals
//!   across iterations (the per-optimizer-iteration cost).
//!
//! `bench_json` (in `src/bin`) runs the same circuits headlessly and
//! writes `BENCH_simulation.json` for machine-readable tracking.

use choco_bench::{
    choco_layer_circuit, choco_onehot_candidates, choco_onehot_stack, layer_circuit,
};
use choco_qsim::oracle::ScalarStateVector;
use choco_qsim::{EngineKind, SimConfig, SimWorkspace, StateVector};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

/// The dense engine on the confined Choco-Q layer (`choco_layer_dense` in
/// `BENCH_simulation.json`).
fn bench_choco_layer(c: &mut Criterion) {
    let mut group = c.benchmark_group("choco_layer");
    group.sample_size(10);
    for n in [14usize, 18, 22] {
        let circuit = choco_layer_circuit(n);
        group.bench_with_input(BenchmarkId::new("dense", n), &circuit, |b, circuit| {
            b.iter(|| StateVector::run(std::hint::black_box(circuit)));
        });
    }
    group.finish();
}

/// End-to-end optimizer-iteration cost: one warmed `SimWorkspace::run`
/// of a two-layer multi-one-hot Choco-Q stack per engine — the group
/// behind `BENCH_simulation.json`'s `compact_speedup_vs_dense`.
fn bench_choco_iteration(c: &mut Criterion) {
    let mut group = c.benchmark_group("choco_iteration");
    group.sample_size(10);
    for n in [14usize, 18] {
        let stack = choco_onehot_stack(n, 2);
        for (label, engine) in [
            ("dense", EngineKind::Dense),
            ("compact", EngineKind::Compact),
        ] {
            let mut ws = SimWorkspace::new(SimConfig::default().with_engine(engine));
            ws.run(&stack); // warmup: allocate buffers, compile the plan
            group.bench_with_input(BenchmarkId::new(label, n), &stack, |b, stack| {
                b.iter(|| {
                    ws.run(std::hint::black_box(stack));
                });
            });
        }
    }
    group.finish();
}

/// Batched multi-angle replay: K candidates of the onehot stack in one
/// pass over the cached plan. One bench "op" is the whole K-wide batch,
/// so divide by K for the per-candidate cost `bench_json` reports in
/// `BENCH_simulation.json`'s `batched_speedup_per_candidate`.
fn bench_choco_iteration_batched(c: &mut Criterion) {
    let mut group = c.benchmark_group("choco_iteration_batched");
    group.sample_size(10);
    for n in [14usize, 18] {
        let candidates = choco_onehot_candidates(n, 2, 16);
        for k in [1usize, 4, 8, 16] {
            let mut ws = SimWorkspace::new(SimConfig::default().with_engine(EngineKind::Compact));
            ws.run_batch(&candidates[..k]).expect("compact batch"); // warmup
            group.bench_with_input(
                BenchmarkId::new(format!("k{k}"), n),
                &candidates,
                |b, cs| {
                    b.iter(|| {
                        std::hint::black_box(ws.run_batch(&cs[..k]));
                    });
                },
            );
        }
    }
    group.finish();
}

fn bench_statevector(c: &mut Criterion) {
    let mut group = c.benchmark_group("statevector_layer");
    group.sample_size(20);
    for n in [10usize, 14, 18] {
        let circuit = layer_circuit(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &circuit, |b, circuit| {
            b.iter(|| StateVector::run(std::hint::black_box(circuit)));
        });
    }
    group.finish();
}

fn bench_statevector_scalar(c: &mut Criterion) {
    let mut group = c.benchmark_group("statevector_layer_scalar");
    group.sample_size(20);
    for n in [10usize, 14, 18] {
        let circuit = layer_circuit(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &circuit, |b, circuit| {
            b.iter(|| ScalarStateVector::run(std::hint::black_box(circuit)));
        });
    }
    group.finish();
}

fn bench_statevector_workspace(c: &mut Criterion) {
    let mut group = c.benchmark_group("statevector_layer_workspace");
    group.sample_size(20);
    for n in [10usize, 14, 18] {
        let circuit = layer_circuit(n);
        let mut ws = SimWorkspace::new(SimConfig::default().with_engine(EngineKind::Dense));
        ws.run(&circuit); // warmup: allocate the buffer, expand the diagonal
        group.bench_with_input(BenchmarkId::from_parameter(n), &circuit, |b, circuit| {
            b.iter(|| {
                ws.run(std::hint::black_box(circuit));
            });
        });
    }
    group.finish();
}

fn bench_sampling(c: &mut Criterion) {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut group = c.benchmark_group("sampling_10k_shots");
    group.sample_size(20);
    for n in [10usize, 16] {
        let circuit = layer_circuit(n);
        let state = StateVector::run(&circuit);
        group.bench_with_input(BenchmarkId::from_parameter(n), &state, |b, state| {
            let mut rng = StdRng::seed_from_u64(7);
            b.iter(|| state.sample(10_000, &mut rng));
        });
        // The workspace path amortizes the prefix-table build across calls.
        let mut ws = SimWorkspace::new(SimConfig::default().with_engine(EngineKind::Dense));
        ws.run(&circuit);
        let mut rng = StdRng::seed_from_u64(7);
        ws.sample(1, &mut rng); // build the table once
        group.bench_function(format!("cached/{n}"), |b| {
            b.iter(|| ws.sample(10_000, &mut rng));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_statevector,
    bench_statevector_scalar,
    bench_statevector_workspace,
    bench_choco_layer,
    bench_choco_iteration,
    bench_choco_iteration_batched,
    bench_sampling
);
criterion_main!(benches);
