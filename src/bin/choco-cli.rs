//! `choco-cli` — solve a constrained binary optimization problem from a
//! text file, or run a batched experiment spec.
//!
//! ```text
//! USAGE: choco-cli <file | -> [--solver choco|penalty|cyclic|hea]
//!                  [--layers N] [--shots N] [--iters N] [--eliminate K]
//!                  [--noise fez|osaka|sherbrooke] [--top N] [--seed N]
//!                  [--threads N] [--engine dense|compact]
//!                  [--batch K] [--optimizer cobyla|nelder-mead|spsa]
//!                  [--restart-workers N] [--timeout SECS]
//!        choco-cli run <spec.toml> [--workers N] [--quick] [--out PATH|-]
//!                  [--csv PATH] [--sim-threads N] [--engine dense|compact]
//!                  [--batch K] [--optimizer cobyla|nelder-mead|spsa]
//!                  [--restart-workers N] [--no-table] [--checkpoint PATH] [--resume]
//!                  [--cell-timeout SECS] [--retries N]
//!        choco-cli serve [--state-dir DIR] [--queue-cap N] [--socket PATH]
//!                  [--workers N] [--sim-threads N] [--engine dense|compact]
//!                  [--batch K] [--optimizer cobyla|nelder-mead|spsa]
//!                  [--restart-workers N] [--cell-timeout SECS] [--retries N]
//!                  [--mem-budget BYTES[K|M|G]] [--gc-done] [--drain-timeout SECS]
//!
//! `--threads` sets the state-vector engine's worker-thread count
//! (0 = auto-detect; also settable via the `CHOCO_SIM_THREADS` env var).
//! `--optimizer` picks the classical optimizer of the variational loop
//! (COBYLA — the paper's choice — by default). `--restart-workers` fans
//! the Choco-Q multistart restarts out over a worker pool (0 = one per
//! core; results are byte-identical at any setting).
//! `--engine` picks the amplitude representation: `compact` (the
//! default: the feasible subspace is enumerated once per circuit shape
//! and every optimizer iteration replays a precompiled gate plan over a
//! rank-indexed flat array; Choco-Q circuits never leave the feasible
//! subspace, so this scales to registers the dense engine cannot
//! allocate, and register-filling circuits run dense) or `dense` (the
//! 2^n strided reference buffer).
//! `--batch` sets the batched-replay width: the variational loop hands
//! K candidate angle sets at a time to the compact engine, which
//! evaluates them in one pass over the cached plan (bit-identical to K
//! serial replays; a pure performance knob, like `--engine`).
//! `--timeout` arms a cooperative wall-clock deadline on the solve: it
//! is checked at every objective evaluation and an expired solve fails
//! with a timeout error instead of running away. The `run` subcommand's
//! fault-tolerance flags (`--checkpoint`, `--resume`, `--cell-timeout`,
//! `--retries`, and the `CHOCO_FAULT_INJECT` test hook) are documented
//! in `docs/operations.md`.
//! ```
//!
//! The `run` subcommand executes an experiment spec (see
//! `choco_runner::ExperimentSpec` and the checked-in specs under
//! `experiments/`) and writes a deterministic JSON report; every paper
//! table and figure is reproduced this way (`docs/reproducing.md`).
//!
//! The single-problem input format (see `choco_model::parse_problem`):
//!
//! ```text
//! maximize x0 + 2 x1 + 3 x2 + x3
//! s.t. x0 - x2 = 0
//! s.t. x0 + x1 + x3 = 1
//! ```

use choco_q::prelude::*;
use std::io::Read;
use std::process::ExitCode;

struct Args {
    path: String,
    solver: String,
    layers: Option<usize>,
    shots: Option<u64>,
    iters: Option<usize>,
    eliminate: usize,
    noise: Option<Device>,
    top: usize,
    seed: u64,
    threads: Option<usize>,
    engine: Option<choco_q::qsim::EngineKind>,
    optimizer: Option<choco_q::optim::OptimizerKind>,
    restart_workers: usize,
    timeout: Option<std::time::Duration>,
    batch: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        path: String::new(),
        solver: "choco".into(),
        layers: None,
        shots: None,
        iters: None,
        eliminate: 0,
        noise: None,
        top: 5,
        seed: 42,
        threads: None,
        engine: None,
        optimizer: None,
        restart_workers: 1,
        timeout: None,
        batch: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        match arg.as_str() {
            "--solver" => args.solver = value("--solver")?,
            "--layers" => {
                args.layers = Some(
                    value("--layers")?
                        .parse()
                        .map_err(|e| format!("--layers: {e}"))?,
                )
            }
            "--shots" => {
                args.shots = Some(
                    value("--shots")?
                        .parse()
                        .map_err(|e| format!("--shots: {e}"))?,
                )
            }
            "--iters" => {
                args.iters = Some(
                    value("--iters")?
                        .parse()
                        .map_err(|e| format!("--iters: {e}"))?,
                )
            }
            "--eliminate" => {
                args.eliminate = value("--eliminate")?
                    .parse()
                    .map_err(|e| format!("--eliminate: {e}"))?
            }
            "--top" => args.top = value("--top")?.parse().map_err(|e| format!("--top: {e}"))?,
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--threads" => {
                args.threads = Some(
                    value("--threads")?
                        .parse()
                        .map_err(|e| format!("--threads: {e}"))?,
                )
            }
            "--engine" => {
                args.engine = Some(
                    choco_q::qsim::EngineKind::parse(&value("--engine")?)
                        .map_err(|e| format!("--engine: {e}"))?,
                )
            }
            "--optimizer" => {
                args.optimizer = Some(
                    choco_q::optim::OptimizerKind::parse(&value("--optimizer")?)
                        .map_err(|e| format!("--optimizer: {e}"))?,
                )
            }
            "--restart-workers" => {
                args.restart_workers = value("--restart-workers")?
                    .parse()
                    .map_err(|e| format!("--restart-workers: {e}"))?
            }
            "--batch" => {
                let k: usize = value("--batch")?
                    .parse()
                    .map_err(|e| format!("--batch: {e}"))?;
                if k == 0 {
                    return Err("--batch: expected a width of at least 1 (1 = serial)".into());
                }
                args.batch = Some(k);
            }
            "--timeout" => {
                let secs: f64 = value("--timeout")?
                    .parse()
                    .map_err(|e| format!("--timeout: {e}"))?;
                if !secs.is_finite() || secs <= 0.0 {
                    return Err(format!(
                        "--timeout: expected a positive number of seconds, got {secs}"
                    ));
                }
                args.timeout = Some(std::time::Duration::from_secs_f64(secs));
            }
            "--noise" => {
                args.noise = Some(match value("--noise")?.as_str() {
                    "fez" => Device::Fez,
                    "osaka" => Device::Osaka,
                    "sherbrooke" => Device::Sherbrooke,
                    other => return Err(format!("unknown device `{other}`")),
                })
            }
            "--help" | "-h" => return Err("help".into()),
            other if args.path.is_empty() => args.path = other.to_string(),
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    if args.path.is_empty() {
        return Err("no input file (use `-` for stdin)".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    // `choco-cli run <spec>`: the batched experiment runner.
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("run") {
        return match choco_q::runner::cli::run_command(&raw[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(msg) => {
                eprintln!("error: {msg}\n{}", choco_q::runner::cli::RUN_USAGE);
                ExitCode::from(2)
            }
        };
    }

    // `choco-cli serve`: the solve-as-a-service daemon.
    if raw.first().map(String::as_str) == Some("serve") {
        return match choco_q::runner::cli::serve_command(&raw[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(msg) => {
                eprintln!("error: {msg}\n{}", choco_q::runner::cli::SERVE_USAGE);
                ExitCode::from(2)
            }
        };
    }

    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            if msg != "help" {
                eprintln!("error: {msg}\n");
            }
            eprintln!(
                "usage: choco-cli <file | -> [--solver choco|penalty|cyclic|hea] \
                 [--layers N] [--shots N] [--iters N] [--eliminate K] \
                 [--noise fez|osaka|sherbrooke] [--top N] [--seed N] [--threads N] \
                 [--engine dense|compact] [--batch K] \
                 [--optimizer cobyla|nelder-mead|spsa] \
                 [--restart-workers N] [--timeout SECS]\n\
                 usage: choco-cli run <spec.toml> [--workers N] [--quick] [--out PATH|-] \
                 [--csv PATH] [--sim-threads N] [--engine dense|compact] \
                 [--batch K] [--optimizer cobyla|nelder-mead|spsa] [--restart-workers N] \
                 [--no-table] [--checkpoint PATH] [--resume] [--cell-timeout SECS] \
                 [--retries N]\n\
                 usage: choco-cli serve [--state-dir DIR] [--queue-cap N] [--socket PATH] \
                 [--workers N] [--sim-threads N] [--engine dense|compact] \
                 [--batch K] [--optimizer cobyla|nelder-mead|spsa] [--restart-workers N] \
                 [--cell-timeout SECS] [--retries N] [--mem-budget BYTES[K|M|G]] \
                 [--gc-done] [--drain-timeout SECS]"
            );
            return ExitCode::from(2);
        }
    };

    let text = if args.path == "-" {
        let mut buf = String::new();
        if std::io::stdin().read_to_string(&mut buf).is_err() {
            eprintln!("error: cannot read stdin");
            return ExitCode::FAILURE;
        }
        buf
    } else {
        match std::fs::read_to_string(&args.path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: cannot read {}: {e}", args.path);
                return ExitCode::FAILURE;
            }
        }
    };

    let problem = match choco_q::model::parse_problem(&text) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("parse error: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("{problem}");

    let noise = args.noise.map(|d| d.model().noise());
    let outcome = match args.solver.as_str() {
        "choco" => {
            let mut cfg = ChocoQConfig::default();
            if let Some(l) = args.layers {
                cfg.layers = l;
            }
            if let Some(s) = args.shots {
                cfg.shots = s;
            }
            if let Some(i) = args.iters {
                cfg.max_iters = i;
            }
            cfg.eliminate = args.eliminate;
            cfg.seed = args.seed;
            cfg.noise = noise;
            cfg.restart_workers = args.restart_workers;
            cfg.deadline = args.timeout.map(|t| std::time::Instant::now() + t);
            if let Some(o) = args.optimizer {
                cfg.optimizer = o;
            }
            if let Some(t) = args.threads {
                cfg.sim = choco_q::qsim::SimConfig::with_threads(t);
            }
            if let Some(engine) = args.engine {
                cfg.sim = cfg.sim.with_engine(engine);
            }
            if let Some(k) = args.batch {
                cfg.sim = cfg.sim.with_batch(k);
            }
            ChocoQSolver::new(cfg).solve(&problem)
        }
        name @ ("penalty" | "cyclic" | "hea") => {
            let mut cfg = QaoaConfig::default();
            if let Some(l) = args.layers {
                cfg.layers = l;
            }
            if let Some(s) = args.shots {
                cfg.shots = s;
            }
            if let Some(i) = args.iters {
                cfg.max_iters = i;
            }
            cfg.seed = args.seed;
            cfg.noise = noise;
            cfg.deadline = args.timeout.map(|t| std::time::Instant::now() + t);
            if let Some(o) = args.optimizer {
                cfg.optimizer = o;
            }
            if let Some(t) = args.threads {
                cfg.sim = choco_q::qsim::SimConfig::with_threads(t);
            }
            if let Some(engine) = args.engine {
                cfg.sim = cfg.sim.with_engine(engine);
            }
            if let Some(k) = args.batch {
                cfg.sim = cfg.sim.with_batch(k);
            }
            match name {
                "penalty" => PenaltyQaoaSolver::new(cfg).solve(&problem),
                "cyclic" => CyclicQaoaSolver::new(cfg).solve(&problem),
                _ => HeaSolver::new(cfg).solve(&problem),
            }
        }
        other => {
            eprintln!("error: unknown solver `{other}`");
            return ExitCode::from(2);
        }
    };

    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("solver error: {e}");
            return ExitCode::FAILURE;
        }
    };

    match outcome.metrics(&problem) {
        Ok(m) => println!("{m}"),
        Err(e) => println!("(no exact reference: {e})"),
    }
    println!(
        "iterations: {}   circuit: {} qubits, logical depth {}{}",
        outcome.iterations,
        outcome.circuit.qubits,
        outcome.circuit.logical_depth,
        outcome
            .circuit
            .transpiled_depth
            .map(|d| format!(", transpiled depth {d}"))
            .unwrap_or_default()
    );
    println!("\ntop outcomes:");
    for (bits, count) in outcome.counts.sorted().into_iter().take(args.top) {
        println!(
            "  {:0width$b}  p={:.4}  f={}  {}",
            bits,
            count as f64 / outcome.counts.shots() as f64,
            problem.evaluate(bits),
            if problem.is_feasible(bits) {
                "feasible"
            } else {
                "INFEASIBLE"
            },
            width = problem.n_vars()
        );
    }
    ExitCode::SUCCESS
}
