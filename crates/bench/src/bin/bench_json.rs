//! Headless simulation microbenchmarks with machine-readable output.
//!
//! Runs the state-vector kernels at n ∈ {10, 14, 18, 20} on three engines
//! (scan-and-mask scalar baseline, strided fast path, workspace-backed
//! solver path) plus per-kernel micro-measurements, the dense engine on a
//! subspace-confined Choco-Q layer at n ∈ {18, 22, 24}, and an
//! **end-to-end optimizer-iteration group** (`choco_iteration_*`: one
//! warmed `SimWorkspace::run` of a two-layer multi-one-hot Choco-Q stack
//! on the dense and compact engines — the `ns_per_iteration` behind
//! `compact_speedup_vs_dense`),
//! and writes `BENCH_simulation.json` so the perf trajectory stays
//! comparable across PRs.
//!
//! ```text
//! cargo run --release -p choco-bench --bin bench_json [-- --out PATH] [--quick]
//! ```
//!
//! `--quick` (or `CHOCO_QUICK=1`) caps the register at n = 14.

use choco_bench::{
    choco_layer_circuit, choco_onehot_candidates, choco_onehot_stack, layer_circuit, quick_mode,
};
use choco_core::{ChocoQConfig, ChocoQSolver, CommuteDriver};
use choco_qsim::oracle::ScalarStateVector;
use choco_qsim::{EngineKind, SimConfig, SimWorkspace, StateVector, UBlock};
use std::fmt::Write as _;
use std::time::Instant;

/// One measured case.
struct Entry {
    group: &'static str,
    n: usize,
    ns_per_op: f64,
}

/// Median ns/op over `samples` timed samples, each sized to ~`budget_ms`.
fn measure<F: FnMut()>(mut op: F, samples: usize, budget_ms: f64) -> f64 {
    // Calibrate.
    let t0 = Instant::now();
    op();
    let per_iter = t0.elapsed().as_secs_f64().max(1e-9);
    let iters = ((budget_ms / 1e3 / samples as f64) / per_iter).clamp(1.0, 1e7) as u64;
    let mut timings: Vec<f64> = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t0 = Instant::now();
        for _ in 0..iters {
            op();
        }
        timings.push(t0.elapsed().as_nanos() as f64 / iters as f64);
    }
    timings.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    timings[timings.len() / 2]
}

fn main() {
    let mut out_path = String::from("BENCH_simulation.json");
    let args: Vec<String> = std::env::args().collect();
    if let Some(i) = args.iter().position(|a| a == "--out") {
        out_path = args
            .get(i + 1)
            .unwrap_or_else(|| panic!("--out needs a path"))
            .clone();
    }
    let sizes: &[usize] = if quick_mode() {
        &[10, 14]
    } else {
        &[10, 14, 18, 20]
    };
    let samples = 7;
    let budget_ms = 700.0;
    // Kernel groups measure the dense engine; engine comparisons opt in
    // to compact explicitly.
    let config = SimConfig::default().with_engine(EngineKind::Dense);
    let mut entries: Vec<Entry> = Vec::new();

    for &n in sizes {
        eprintln!("measuring n = {n} …");
        let layer = layer_circuit(n);

        entries.push(Entry {
            group: "statevector_layer_scalar",
            n,
            ns_per_op: measure(
                || {
                    std::hint::black_box(ScalarStateVector::run(&layer));
                },
                samples,
                budget_ms,
            ),
        });
        entries.push(Entry {
            group: "statevector_layer",
            n,
            ns_per_op: measure(
                || {
                    std::hint::black_box(StateVector::run_with(&layer, config));
                },
                samples,
                budget_ms,
            ),
        });
        let mut ws = SimWorkspace::new(config);
        ws.run(&layer);
        entries.push(Entry {
            group: "statevector_layer_workspace",
            n,
            ns_per_op: measure(
                || {
                    std::hint::black_box(ws.run(&layer));
                },
                samples,
                budget_ms,
            ),
        });

        // Per-kernel micro benches: a gate and its inverse applied to a
        // persistent superposition state (no per-op clone), halved to give
        // per-gate cost.
        let mut fast_state = StateVector::run_with(&layer, config);
        let mut scalar_state = ScalarStateVector::run(&layer);
        let block = {
            let mut u = vec![0i8; n];
            u[0] = 1;
            u[n / 2] = -1;
            u[n - 1] = 1;
            u
        };
        let fwd = UBlock::from_u_with_angle(&block, 0.5);
        let rev = UBlock::from_u_with_angle(&block, -0.5);
        entries.push(Entry {
            group: "ublock_scalar",
            n,
            ns_per_op: measure(
                || {
                    scalar_state.apply_ublock(&fwd);
                    scalar_state.apply_ublock(&rev);
                },
                samples,
                budget_ms / 2.0,
            ) / 2.0,
        });
        entries.push(Entry {
            group: "ublock",
            n,
            ns_per_op: measure(
                || {
                    fast_state.apply_ublock(&fwd);
                    fast_state.apply_ublock(&rev);
                },
                samples,
                budget_ms / 2.0,
            ) / 2.0,
        });
        let mcp = |angle: f64| choco_qsim::Gate::McPhase {
            qubits: vec![0, n / 2, n - 1],
            angle,
        };
        entries.push(Entry {
            group: "mcphase",
            n,
            ns_per_op: measure(
                || {
                    fast_state.apply_gate(&mcp(0.3));
                    fast_state.apply_gate(&mcp(-0.3));
                },
                samples,
                budget_ms / 2.0,
            ) / 2.0,
        });
        entries.push(Entry {
            group: "hadamard",
            n,
            ns_per_op: measure(
                || {
                    fast_state.apply_gate(&choco_qsim::Gate::H(n / 2));
                    fast_state.apply_gate(&choco_qsim::Gate::H(n / 2));
                },
                samples,
                budget_ms / 2.0,
            ) / 2.0,
        });
    }

    // The dense engine on the confined Choco-Q layer. Bigger registers
    // than the generic group: this is exactly where the dense engine
    // starts paying for the 2^n it does not need. A small sample count —
    // one n = 24 run already costs seconds.
    let choco_sizes: &[usize] = if quick_mode() { &[14] } else { &[18, 22, 24] };
    for &n in choco_sizes {
        eprintln!("measuring choco layer n = {n} (dense) …");
        let layer = choco_layer_circuit(n);
        entries.push(Entry {
            group: "choco_layer_dense",
            n,
            ns_per_op: measure(
                || {
                    std::hint::black_box(StateVector::run_with(&layer, config));
                },
                3,
                budget_ms,
            ),
        });
    }

    // Whole-iteration cost per engine: what one optimizer evaluation
    // pays, workspace-warmed (buffers allocated, plans compiled) — so
    // dense measures buffer-reuse replay and compact measures plan replay.
    for &n in choco_sizes {
        eprintln!("measuring choco iteration n = {n} (dense vs compact) …");
        let stack = choco_onehot_stack(n, 2);
        for (group, engine, samples_here) in [
            ("choco_iteration_dense", EngineKind::Dense, 3),
            ("choco_iteration_compact", EngineKind::Compact, samples),
        ] {
            let mut ws = SimWorkspace::new(config.with_engine(engine));
            ws.run(&stack); // warmup: allocate, compile the plan
            entries.push(Entry {
                group,
                n,
                ns_per_op: measure(
                    || {
                        std::hint::black_box(ws.run(&stack));
                    },
                    samples_here,
                    budget_ms / 2.0,
                ),
            });
        }
    }

    // Batched replay: K candidate angle sets of the same onehot stack in
    // one pass over the cached plan (`SimWorkspace::run_batch`). Each
    // `choco_iteration_batched_k*` entry reports the per-iteration
    // **per-candidate** cost (batch time / K), so K = 1 is directly
    // comparable to `choco_iteration_compact` and the K = 8 ratio is the
    // headline `batched_speedup_per_candidate` number.
    let batch_n = if quick_mode() { 14 } else { 18 };
    let batch_widths: [(&str, usize); 4] = [
        ("choco_iteration_batched_k1", 1),
        ("choco_iteration_batched_k4", 4),
        ("choco_iteration_batched_k8", 8),
        ("choco_iteration_batched_k16", 16),
    ];
    {
        eprintln!("measuring batched choco iteration n = {batch_n} (K = 1, 4, 8, 16) …");
        let candidates = choco_onehot_candidates(batch_n, 2, 16);
        let mut ws = SimWorkspace::new(config.with_engine(EngineKind::Compact));
        for &(group, k) in &batch_widths {
            ws.run_batch(&candidates[..k])
                .expect("onehot stack must stay on the compact engine");
            entries.push(Entry {
                group,
                n: batch_n,
                ns_per_op: measure(
                    || {
                        std::hint::black_box(ws.run_batch(&candidates[..k]));
                    },
                    samples,
                    budget_ms / 2.0,
                ) / k as f64,
            });
        }
        assert_eq!(ws.plan_compilations(), 1, "one compile across all widths");
    }

    // Driver synthesis: the ternary fast path (equality-only constraints —
    // the slack-encoded knapsack budget) vs the generalized path (native
    // `≤` rows: slack-register sizing, kernel extension, delta
    // attachment), plus the cost of one serialized driver pass on each
    // formulation of the *same seeded items* — native runs the wider
    // encoded register with register-shifting couplings, slack runs plain
    // UBlocks over explicit slack variables.
    let synth = {
        let (items, cap) = if quick_mode() {
            (4usize, 6u64)
        } else {
            (8, 10)
        };
        eprintln!("measuring driver synthesis ({items} items, ternary vs generalized) …");
        let slack = choco_problems::knapsack_random_with(
            items,
            cap,
            1,
            choco_problems::KnapsackEncoding::Slack,
        )
        .expect("slack instance");
        let native = choco_problems::knapsack_random_with(
            items,
            cap,
            1,
            choco_problems::KnapsackEncoding::Native,
        )
        .expect("native instance");
        let ternary_build_ns = measure(
            || {
                std::hint::black_box(CommuteDriver::build(slack.constraints()).expect("driver"));
            },
            samples,
            budget_ms / 2.0,
        );
        let generalized_build_ns = measure(
            || {
                std::hint::black_box(CommuteDriver::build(native.constraints()).expect("driver"));
            },
            samples,
            budget_ms / 2.0,
        );
        // One serialized driver pass per formulation (load + every term).
        let layer_of = |problem: &choco_model::Problem| {
            let driver = CommuteDriver::build(problem.constraints()).expect("driver");
            let initial = driver.encode_state(problem.first_feasible().expect("feasible"));
            let mut c = choco_qsim::Circuit::new(driver.encoded_qubits().max(1));
            c.load_bits(initial);
            for gate in driver.gates_ordered(0.37, initial) {
                c.push(gate);
            }
            (c, driver.encoded_qubits())
        };
        let (slack_layer, slack_width) = layer_of(&slack);
        let (native_layer, native_width) = layer_of(&native);
        let mut ws = SimWorkspace::new(config);
        ws.run(&slack_layer); // warm buffers
        let slack_layer_ns = measure(
            || {
                std::hint::black_box(ws.run(&slack_layer));
            },
            samples,
            budget_ms / 2.0,
        );
        ws.run(&native_layer);
        let native_layer_ns = measure(
            || {
                std::hint::black_box(ws.run(&native_layer));
            },
            samples,
            budget_ms / 2.0,
        );
        for (group, n, ns) in [
            ("driver_synthesis_ternary", slack.n_vars(), ternary_build_ns),
            (
                "driver_synthesis_generalized",
                native_width,
                generalized_build_ns,
            ),
            ("driver_layer_slack_encoding", slack_width, slack_layer_ns),
            (
                "driver_layer_native_encoding",
                native_width,
                native_layer_ns,
            ),
        ] {
            entries.push(Entry {
                group,
                n,
                ns_per_op: ns,
            });
        }
        (
            items,
            slack.n_vars(),
            native.n_vars(),
            native_width,
            ternary_build_ns,
            generalized_build_ns,
            slack_layer_ns,
            native_layer_ns,
        )
    };

    // Multi-start solve scaling: the whole restart scheduler end to end —
    // every `(branch × restart)` variational loop pre-seeded from its
    // coordinates and fanned out over 1/2/4 restart workers, compact
    // engine, worker workspaces sharing one plan cache. One op = one full
    // `ChocoQSolver::solve_with_workspace`. (On a single-core host the
    // worker counts measure scheduler overhead, not speedup; the JSON
    // records `host_parallelism` alongside.)
    let solve_problem = if quick_mode() {
        choco_problems::instance("F1", 1)
    } else {
        choco_problems::instance("G2", 1)
    };
    let solve_restarts = 8usize;
    let solve_config = |workers: usize| ChocoQConfig {
        restarts: solve_restarts,
        restart_workers: workers,
        max_iters: 10,
        shots: 2_048,
        transpiled_stats: false,
        ..ChocoQConfig::default()
    };
    let solve_n = solve_problem.n_vars();
    for (group, workers) in [
        ("choco_solve_w1", 1usize),
        ("choco_solve_w2", 2),
        ("choco_solve_w4", 4),
    ] {
        eprintln!("measuring choco solve n = {solve_n} ({workers} restart workers) …");
        let solver = ChocoQSolver::new(solve_config(workers));
        let mut ws = SimWorkspace::new(config.with_engine(EngineKind::Compact));
        entries.push(Entry {
            group,
            n: solve_n,
            ns_per_op: measure(
                || {
                    std::hint::black_box(
                        solver
                            .solve_with_workspace(&solve_problem, &mut ws)
                            .expect("solve"),
                    );
                },
                3,
                budget_ms,
            ),
        });
    }
    // Compile-once accounting for the summary: on a fresh shared cache,
    // one parallel solve compiles each distinct circuit shape exactly
    // once across all restarts × workers.
    let (solve_plan_compiles, solve_shapes) = {
        let mut ws = SimWorkspace::new(config.with_engine(EngineKind::Compact));
        ChocoQSolver::new(solve_config(4))
            .solve_with_workspace(&solve_problem, &mut ws)
            .expect("solve");
        (ws.plan_compilations(), ws.cached_plans() as u64)
    };
    assert_eq!(
        solve_plan_compiles, solve_shapes,
        "shared plan cache must compile each shape exactly once"
    );

    // Solve-as-a-service latency: one in-process `choco-serve` session
    // over OS pipes. The first job pays plan compilation (cold cache);
    // an identically-shaped second job replays the daemon-global plan
    // cache (warm). Measured: submission→first-record latency and mean
    // per-cell latency, each cold vs warm.
    let serve_stats = {
        eprintln!("measuring choco-serve latency (cold vs warm plan cache) …");
        let state_dir =
            std::env::temp_dir().join(format!("choco_bench_serve_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&state_dir);
        let opts = choco_runner::ServeOptions {
            state_dir: state_dir.clone(),
            queue_cap: 256,
            run: choco_runner::RunOptions {
                workers: 1,
                engine: Some(EngineKind::Compact),
                ..choco_runner::RunOptions::default()
            },
            ..choco_runner::ServeOptions::default()
        };
        let serve_cells = 4usize;
        let submit = |name: &str| {
            format!(
                "{{\"op\": \"submit\", \"job\": {{\"name\": \"{name}\", \"problems\": [\"F1\"], \
                 \"solvers\": [\"choco-q\"], \"seeds\": [1, 2, 3, 4], \"shots\": 2048, \
                 \"max_iters\": 10, \"restarts\": 2, \"transpiled_stats\": false}}}}\n"
            )
        };
        let (req_read, req_write) = std::io::pipe().expect("request pipe");
        let (event_read, event_write) = std::io::pipe().expect("event pipe");
        let stats = std::thread::scope(|scope| {
            scope.spawn(|| {
                choco_runner::serve::serve(&opts, std::io::BufReader::new(req_read), event_write)
                    .expect("serve session");
            });
            use std::io::{BufRead, Write as _};
            let mut requests = req_write;
            let mut events = std::io::BufReader::new(event_read).lines();
            // (first_record_ns, total_ns, plan compilations so far).
            let mut run_job = |name: &str| -> (f64, f64, u64) {
                let t0 = Instant::now();
                requests.write_all(submit(name).as_bytes()).expect("submit");
                requests.flush().expect("flush");
                let mut first_record = None;
                loop {
                    let line = events.next().expect("event stream").expect("event line");
                    if line.contains("\"event\": \"record\"") && first_record.is_none() {
                        first_record = Some(t0.elapsed().as_nanos() as f64);
                    }
                    if line.contains("\"event\": \"done\"") {
                        break;
                    }
                    assert!(
                        !line.contains("\"event\": \"rejected\""),
                        "bench job rejected: {line}"
                    );
                }
                let total = t0.elapsed().as_nanos() as f64;
                requests.write_all(b"{\"op\": \"stats\"}\n").expect("stats");
                let compilations = loop {
                    let line = events.next().expect("event stream").expect("stats line");
                    if line.contains("\"event\": \"stats\"") {
                        let at = line.find("\"compilations\": ").expect("compilations field");
                        break line[at + "\"compilations\": ".len()..]
                            .chars()
                            .take_while(char::is_ascii_digit)
                            .collect::<String>()
                            .parse::<u64>()
                            .expect("compilation count");
                    }
                };
                (
                    first_record.expect("at least one record"),
                    total,
                    compilations,
                )
            };
            let (cold_first, cold_total, cold_compilations) = run_job("cold");
            // Two warm passes; keep the faster (one-shot latency is noisy).
            let (warm_first_a, warm_total_a, _) = run_job("warm-a");
            let (warm_first_b, warm_total_b, warm_compilations) = run_job("warm-b");
            assert_eq!(
                warm_compilations, cold_compilations,
                "identically-shaped jobs must compile zero new plans"
            );
            requests
                .write_all(b"{\"op\": \"shutdown\"}\n")
                .expect("shutdown");
            drop(requests);
            (
                cold_first,
                cold_total,
                warm_first_a.min(warm_first_b),
                warm_total_a.min(warm_total_b),
                cold_compilations,
            )
        });
        let _ = std::fs::remove_dir_all(&state_dir);
        let (cold_first, cold_total, warm_first, warm_total, cold_compilations) = stats;
        for (group, ns) in [
            ("choco_serve_first_record_cold", cold_first),
            ("choco_serve_first_record_warm", warm_first),
            ("choco_serve_per_cell_cold", cold_total / serve_cells as f64),
            ("choco_serve_per_cell_warm", warm_total / serve_cells as f64),
        ] {
            entries.push(Entry {
                group,
                n: serve_cells,
                ns_per_op: ns,
            });
        }
        (
            serve_cells,
            cold_first,
            warm_first,
            cold_total,
            warm_total,
            cold_compilations,
        )
    };

    // Assemble JSON by hand (no serde in the workspace).
    let mut json = String::new();
    json.push_str("{\n  \"bench\": \"simulation\",\n");
    let _ = writeln!(
        json,
        "  \"sim_threads\": {},\n  \"host_parallelism\": {},",
        config.threads,
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    );
    json.push_str("  \"unit\": \"ns_per_op\",\n  \"entries\": [\n");
    for (i, e) in entries.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"group\": \"{}\", \"n\": {}, \"ns_per_op\": {:.1}}}",
            e.group, e.n, e.ns_per_op
        );
        json.push_str(if i + 1 < entries.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n  \"speedup_vs_scalar\": {\n");
    let mut lines = Vec::new();
    for &n in sizes {
        let find = |g: &str| {
            entries
                .iter()
                .find(|e| e.group == g && e.n == n)
                .map(|e| e.ns_per_op)
        };
        if let (Some(scalar), Some(fast), Some(ws)) = (
            find("statevector_layer_scalar"),
            find("statevector_layer"),
            find("statevector_layer_workspace"),
        ) {
            lines.push(format!(
                "    \"statevector_layer/{n}\": {{\"fast\": {:.2}, \"workspace\": {:.2}}}",
                scalar / fast,
                scalar / ws
            ));
        }
    }
    json.push_str(&lines.join(",\n"));
    json.push_str("\n  },\n  \"compact_speedup_vs_dense\": {\n");
    let mut lines = Vec::new();
    for &n in choco_sizes {
        let find = |g: &str| {
            entries
                .iter()
                .find(|e| e.group == g && e.n == n)
                .map(|e| e.ns_per_op)
        };
        if let (Some(dense), Some(compact)) = (
            find("choco_iteration_dense"),
            find("choco_iteration_compact"),
        ) {
            lines.push(format!(
                "    \"choco_iteration/{n}\": {{\"compact_vs_dense\": {:.1}}}",
                dense / compact
            ));
        }
    }
    json.push_str(&lines.join(",\n"));
    json.push_str("\n  },\n  \"batched_speedup_per_candidate\": {\n");
    {
        let find = |g: &str| {
            entries
                .iter()
                .find(|e| e.group == g && e.n == batch_n)
                .map(|e| e.ns_per_op)
                .expect("batched group measured")
        };
        let serial = find("choco_iteration_compact");
        let mut lines = vec![format!("    \"n\": {batch_n}")];
        for &(group, k) in &batch_widths {
            let per_candidate = find(group);
            lines.push(format!(
                "    \"k{k}\": {{\"ns_per_candidate\": {:.1}, \"vs_serial_compact\": {:.2}}}",
                per_candidate,
                serial / per_candidate
            ));
        }
        json.push_str(&lines.join(",\n"));
    }
    json.push_str("\n  },\n  \"choco_driver_synthesis\": {\n");
    {
        let (
            items,
            slack_vars,
            native_vars,
            encoded_qubits,
            ternary_build_ns,
            generalized_build_ns,
            slack_layer_ns,
            native_layer_ns,
        ) = synth;
        let _ = writeln!(
            json,
            "    \"items\": {items},\n    \"slack_vars\": {slack_vars},\n    \
             \"native_vars\": {native_vars},\n    \"encoded_qubits\": {encoded_qubits},\n    \
             \"ternary_build_ns\": {ternary_build_ns:.1},\n    \
             \"generalized_build_ns\": {generalized_build_ns:.1},\n    \
             \"generalized_vs_ternary_build\": {:.2},\n    \
             \"slack_layer_ns\": {slack_layer_ns:.1},\n    \
             \"native_layer_ns\": {native_layer_ns:.1},\n    \
             \"native_vs_slack_layer\": {:.2}",
            generalized_build_ns / ternary_build_ns,
            native_layer_ns / slack_layer_ns
        );
    }
    json.push_str("  },\n  \"choco_solve_multistart\": {\n");
    {
        let find = |g: &str| {
            entries
                .iter()
                .find(|e| e.group == g && e.n == solve_n)
                .map(|e| e.ns_per_op)
        };
        let w1 = find("choco_solve_w1").expect("solve group measured");
        let w2 = find("choco_solve_w2").expect("solve group measured");
        let w4 = find("choco_solve_w4").expect("solve group measured");
        let _ = writeln!(
            json,
            "    \"n\": {solve_n},\n    \"restarts\": {solve_restarts},\n    \
             \"speedup_w2\": {:.2},\n    \"speedup_w4\": {:.2},\n    \
             \"plan_compilations_per_solve\": {solve_plan_compiles},\n    \
             \"circuit_shapes\": {solve_shapes}",
            w1 / w2,
            w1 / w4
        );
    }
    json.push_str("  },\n  \"choco_serve_latency\": {\n");
    {
        let (cells, cold_first, warm_first, cold_total, warm_total, compilations) = serve_stats;
        let _ = writeln!(
            json,
            "    \"cells\": {cells},\n    \
             \"first_record_cold_ms\": {:.3},\n    \
             \"first_record_warm_ms\": {:.3},\n    \
             \"per_cell_cold_ms\": {:.3},\n    \
             \"per_cell_warm_ms\": {:.3},\n    \
             \"cold_plan_compilations\": {compilations},\n    \
             \"warm_plan_compilations\": 0,\n    \
             \"first_record_speedup_warm\": {:.2}",
            cold_first / 1e6,
            warm_first / 1e6,
            cold_total / cells as f64 / 1e6,
            warm_total / cells as f64 / 1e6,
            cold_first / warm_first
        );
    }
    json.push_str("  }\n}\n");

    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("write {out_path}: {e}"));
    println!("{json}");
    eprintln!("wrote {out_path}");
}
