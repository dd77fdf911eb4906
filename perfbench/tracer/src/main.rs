//! Traced replay of a benchmark workload.
//!
//! `choco-cli run` is a black box to the benchmark: its reports carry no
//! timings. This program replays the same grid from outside the runner,
//! calling each layer's public function in the order the runner does and
//! timing every call, so the benchmark can attribute wall time to layers
//! without any tracing inside the program.
//!
//! ```text
//! perfbench-tracer setup <spec.toml> [--quick] [--repeat K]
//! perfbench-tracer trace [--quick] --spec <spec.toml> --report <report.json> [--spec … --report …]
//! ```
//!
//! `setup` times the work `choco-cli run` does before its first solve
//! (spec load, cell expansion, instance generation, exact optimum) `K`
//! times. `trace` replays each spec, checks the replay against the
//! untraced report of the same spec, then probes the simulator layer on
//! the replay's own Choco-Q circuits. Both print one JSON object.

use choco_core::{plan_elimination, ChocoQConfig, ChocoQSolver, CommuteDriver};
use choco_model::{solve_exact, Optimum, Problem, SolveOutcome};
use choco_qsim::{Circuit, EngineKind, SimConfig, SimWorkspace, TranspileOptions};
use choco_runner::{
    scaled_choco, scaled_qaoa, Cell, ExperimentSpec, Field, Record, RunKind, RunOptions, RunReport,
    SolverKind,
};
use choco_solvers::shared::{check_size_for, sample_transpiled_noisy};
use choco_solvers::{CyclicQaoaSolver, HeaSolver, PenaltyQaoaSolver, QaoaConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// Warm repetitions per simulator probe; the median is kept.
const PROBE_REPEATS: usize = 5;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("setup") => setup_command(&args[1..]),
        Some("trace") => trace_command(&args[1..]),
        _ => Err("usage: perfbench-tracer setup|trace … (see the module docs)".to_string()),
    };
    match result {
        Ok(json) => println!("{json}"),
        Err(e) => {
            eprintln!("perfbench-tracer: {e}");
            std::process::exit(2);
        }
    }
}

/// Accumulated seconds per span name and totals per counter name, in
/// name order so the output is stable.
#[derive(Default)]
struct Trace {
    spans: BTreeMap<String, f64>,
    counts: BTreeMap<String, f64>,
}

impl Trace {
    fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.add_span(name, start.elapsed().as_secs_f64());
        out
    }

    fn add_span(&mut self, name: &str, secs: f64) {
        *self.spans.entry(name.to_string()).or_default() += secs;
    }

    fn count(&mut self, name: &str, n: f64) {
        *self.counts.entry(name.to_string()).or_default() += n;
    }
}

fn setup_command(args: &[String]) -> Result<String, String> {
    let mut spec_path = None;
    let mut quick = false;
    let mut repeat = 5usize;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--repeat" => {
                repeat = it
                    .next()
                    .ok_or("missing value for --repeat")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?
            }
            other if spec_path.is_none() => spec_path = Some(other.to_string()),
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    let spec_path = spec_path.ok_or("no spec given")?;
    let mut samples = Vec::with_capacity(repeat);
    for _ in 0..repeat.max(1) {
        let start = Instant::now();
        let spec = ExperimentSpec::load(&spec_path)?;
        let cells = grid_cells(&spec, quick)?;
        let instances = choco_runner::build_instances(&cells)?;
        std::hint::black_box(&instances);
        samples.push(start.elapsed().as_secs_f64());
    }
    Ok(format!("{{\"setup_s\": {}}}", json_floats(&samples)))
}

/// The grid's cells as `choco-cli run` expands them. The `--quick`
/// variable cap is not replayed: no benchmark workload uses it.
fn grid_cells(spec: &ExperimentSpec, quick: bool) -> Result<Vec<Cell>, String> {
    if !matches!(spec.kind, RunKind::Grid) {
        return Err(format!("only grid specs replay (`{}`)", spec.name));
    }
    if quick && spec.quick_max_vars.is_some() {
        return Err("--quick with `quick_max_vars` is not replayed".to_string());
    }
    Ok(spec.expand_cells(quick))
}

fn trace_command(args: &[String]) -> Result<String, String> {
    let mut quick = false;
    let mut pairs: Vec<(String, String)> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--spec" => {
                let spec = it.next().ok_or("missing value for --spec")?.clone();
                if it.next().map(String::as_str) != Some("--report") {
                    return Err("each --spec must be followed by --report".to_string());
                }
                let report = it.next().ok_or("missing value for --report")?.clone();
                pairs.push((spec, report));
            }
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    if pairs.is_empty() {
        return Err("no --spec given".to_string());
    }
    // Workspaces persist across specs, one per engine configuration, like
    // the daemon keeps one plan cache per configuration across jobs.
    let mut workspaces: Vec<SimWorkspace> = Vec::new();
    let mut probe = Probe::new();
    let mut out = String::from("{\"specs\": [");
    for (i, (spec_path, report_path)) in pairs.iter().enumerate() {
        let report_text = std::fs::read_to_string(report_path)
            .map_err(|e| format!("cannot read {report_path}: {e}"))?;
        let report = report_from_json(&report_text)?;
        let replay = replay(spec_path, quick, &report, &mut workspaces, &mut probe)?;
        let render_identical = replay.rendered == report_text;
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "{{\"spec\": {}, \"wall_s\": {}, \"spans\": {}, \"counts\": {}, \
             \"rates_match\": {}, \"render_identical\": {}, \"mismatches\": {}}}",
            json_str(spec_path),
            replay.wall_s,
            json_map(&replay.trace.spans),
            json_map(&replay.trace.counts),
            replay.mismatches.is_empty(),
            render_identical,
            json_strs(&replay.mismatches),
        );
    }
    // Counters of the workspaces the replay's solves ran in; an engine
    // that keeps no plan cache reads 0 there.
    let mut counts = Trace::default();
    for workspace in &workspaces {
        let stats = workspace.plan_cache().stats();
        counts.count("qsim.reallocations", workspace.reallocations() as f64);
        counts.count("qsim.plan_compilations", stats.compilations as f64);
        counts.count("qsim.plan_hits", stats.hits as f64);
    }
    let _ = write!(
        out,
        "], \"probe_spans\": {}, \"workspace_counts\": {}}}",
        json_map(&probe.trace.spans),
        json_map(&counts.counts)
    );
    Ok(out)
}

struct Replay {
    wall_s: f64,
    trace: Trace,
    mismatches: Vec<String>,
    /// The replay's rendering of the untraced report.
    rendered: String,
}

/// Replays one spec the way `choco-cli run --workers 1` executes it.
/// Every layer call between the clock reads is a span; the remainder of
/// `wall_s` is the runner's own work (scheduling, record assembly).
fn replay(
    spec_path: &str,
    quick: bool,
    report: &RunReport,
    workspaces: &mut Vec<SimWorkspace>,
    probe: &mut Probe,
) -> Result<Replay, String> {
    let mut trace = Trace::default();
    let start = Instant::now();
    let spec = trace.time("runner.spec_load_s", || ExperimentSpec::load(spec_path))?;
    let cells = trace.time("runner.spec_load_s", || grid_cells(&spec, quick))?;

    let mut instances: BTreeMap<(String, u64), (Problem, Result<Optimum, String>)> =
        BTreeMap::new();
    for cell in &cells {
        let key = (cell.problem.as_str().to_string(), cell.instance_seed);
        if instances.contains_key(&key) {
            continue;
        }
        let problem = trace.time("problems.build_s", || {
            cell.problem.build(cell.instance_seed)
        })?;
        let optimum = trace.time("model.optimum_s", || {
            solve_exact(&problem).map_err(|e| e.to_string())
        });
        instances.insert(key, (problem, optimum));
    }

    let opts = RunOptions {
        workers: 1,
        ..RunOptions::default()
    };
    let sim = opts.effective_sim(&spec);
    let index = match workspaces.iter().position(|w| *w.config() == sim) {
        Some(index) => index,
        None => {
            workspaces.push(SimWorkspace::new(sim));
            workspaces.len() - 1
        }
    };
    let workspace = &mut workspaces[index];

    let mut mismatches = Vec::new();
    for cell in &cells {
        let key = (cell.problem.as_str().to_string(), cell.instance_seed);
        let (problem, optimum) = &instances[&key];
        let Ok(optimum) = optimum else {
            mismatches.push(format!("cell {}: no exact optimum", cell.index));
            continue;
        };
        workspace.reset_engine();
        let design = cell.solver.label();
        let outcome = trace.time(&format!("solve.{design}.s"), || {
            solve(&spec, &opts, cell, problem, workspace)
        });
        let outcome = match outcome {
            Ok(outcome) => outcome,
            Err(e) => {
                mismatches.push(format!("cell {}: {e}", cell.index));
                continue;
            }
        };
        trace.add_span(
            &format!("solve.{design}.compile_s"),
            outcome.timing.compile.as_secs_f64(),
        );
        trace.add_span(
            &format!("solve.{design}.execute_s"),
            outcome.timing.execute.as_secs_f64(),
        );
        trace.add_span(
            &format!("solve.{design}.classical_s"),
            outcome.timing.classical.as_secs_f64(),
        );
        trace.count(
            &format!("solve.{design}.iterations"),
            outcome.iterations as f64,
        );
        let metrics = outcome.metrics_with(problem, optimum);
        compare_rates(report, cell.index, &metrics, &mut mismatches);

        if cell.solver == SolverKind::ChocoQ {
            // Elimination planning and driver synthesis per branch, as
            // the solver runs them (the runner's record assembly repeats
            // both for the report's `branches` and `delta_nonzeros`).
            let plan = trace.time("core.elimination_s", || {
                plan_elimination(problem, cell.eliminate)
            });
            let plan = plan.map_err(|e| format!("cell {}: {e}", cell.index))?;
            trace.count("core.branches", plan.branches.len() as f64);
            for branch in &plan.branches {
                let driver = trace.time("core.driver_build_s", || {
                    CommuteDriver::build(branch.problem.constraints())
                });
                let driver = driver.map_err(|e| format!("cell {}: {e}", cell.index))?;
                trace.count("core.driver_terms", driver.terms().len() as f64);
                trace.count("core.encoded_qubits", driver.encoded_qubits() as f64);
            }
        }
    }
    let rendered = trace.time("runner.report_render_s", || report.to_json());
    let wall_s = start.elapsed().as_secs_f64();

    // Simulator probes run after the replay's clock stopped: they time
    // the replay's own Choco-Q circuits, outside the workload.
    for cell in cells.iter().filter(|c| c.solver == SolverKind::ChocoQ) {
        let (problem, _) = &instances[&(cell.problem.as_str().to_string(), cell.instance_seed)];
        probe.cell(&spec, cell, problem)?;
    }

    Ok(Replay {
        wall_s,
        trace,
        mismatches,
        rendered,
    })
}

/// Runs one cell's solver with the configuration the runner gives it.
fn solve(
    spec: &ExperimentSpec,
    opts: &RunOptions,
    cell: &Cell,
    problem: &Problem,
    workspace: &mut SimWorkspace,
) -> Result<SolveOutcome, String> {
    let cell_seed = spec.cell_seed(cell);
    let optimizer = opts.effective_optimizer(spec);
    let noise = match (spec.noisy, cell.device) {
        (true, Some(device)) => Some(device.model().noise()),
        _ => None,
    };
    let c = &spec.config;
    let result = match cell.solver {
        SolverKind::ChocoQ => {
            let base = scaled_choco(problem.n_vars());
            let config = ChocoQConfig {
                layers: cell.layers.unwrap_or(base.layers),
                shots: c.shots.unwrap_or(base.shots),
                max_iters: c.max_iters.unwrap_or(base.max_iters),
                restarts: c.restarts.unwrap_or(base.restarts),
                restart_workers: opts.restart_workers,
                optimizer,
                noise_trajectories: c.noise_trajectories.unwrap_or(base.noise_trajectories),
                transpiled_stats: c.transpiled_stats.unwrap_or(base.transpiled_stats),
                eliminate: cell.eliminate,
                seed: cell_seed,
                noise,
                ..base
            };
            ChocoQSolver::new(config).solve_with_workspace(problem, workspace)
        }
        baseline => {
            let base = scaled_qaoa(problem.n_vars());
            let config = QaoaConfig {
                layers: cell.layers.unwrap_or(base.layers),
                shots: c.shots.unwrap_or(base.shots),
                max_iters: c.max_iters.unwrap_or(base.max_iters),
                optimizer,
                noise_trajectories: c.noise_trajectories.unwrap_or(base.noise_trajectories),
                transpiled_stats: c.transpiled_stats.unwrap_or(base.transpiled_stats),
                seed: cell_seed,
                noise,
                ..base
            };
            match baseline {
                SolverKind::Penalty => {
                    PenaltyQaoaSolver::new(config).solve_with_workspace(problem, workspace)
                }
                SolverKind::Cyclic => {
                    CyclicQaoaSolver::new(config).solve_with_workspace(problem, workspace)
                }
                SolverKind::Hea => HeaSolver::new(config).solve_with_workspace(problem, workspace),
                SolverKind::ChocoQ => unreachable!("handled above"),
            }
        }
    };
    result.map_err(|e| e.to_string())
}

/// Records a mismatch unless the report's cell `index` carries exactly
/// the replay's success and in-constraints rates.
fn compare_rates(
    report: &RunReport,
    index: usize,
    metrics: &choco_model::Metrics,
    mismatches: &mut Vec<String>,
) {
    let Some(record) = report.records.get(index) else {
        mismatches.push(format!("cell {index}: missing from the report"));
        return;
    };
    for (key, replayed) in [
        ("success_rate", metrics.success_rate),
        ("in_constraints_rate", metrics.in_constraints_rate),
    ] {
        let reported = match record.get(key) {
            Some(Field::Float(f)) => Some(*f),
            Some(Field::UInt(u)) => Some(*u as f64),
            _ => None,
        };
        if reported.map(f64::to_bits) != Some(replayed.to_bits()) {
            mismatches.push(format!(
                "cell {index}: {key} replayed {replayed}, reported {reported:?}"
            ));
        }
    }
}

/// Simulator-layer probes on each Choco-Q cell's circuit at its initial
/// parameters: the same circuit runs on all three engines, so the
/// replay times are engine-matched.
struct Probe {
    trace: Trace,
    dense: SimWorkspace,
    sparse: SimWorkspace,
    compact: SimWorkspace,
    rng: StdRng,
}

impl Probe {
    fn new() -> Probe {
        let engine = |kind| SimWorkspace::new(SimConfig::serial().with_engine(kind));
        Probe {
            trace: Trace::default(),
            dense: engine(EngineKind::Dense),
            sparse: engine(EngineKind::Sparse),
            compact: engine(EngineKind::Compact),
            rng: StdRng::seed_from_u64(0x7ACE),
        }
    }

    fn cell(
        &mut self,
        spec: &ExperimentSpec,
        cell: &Cell,
        problem: &Problem,
    ) -> Result<(), String> {
        let base = scaled_choco(problem.n_vars());
        let layers = cell.layers.unwrap_or(base.layers);
        let shots = spec.config.shots.unwrap_or(base.shots);
        let plan = plan_elimination(problem, cell.eliminate).map_err(|e| e.to_string())?;
        for branch in &plan.branches {
            let Some(&feasible) = branch.problem.feasible_solutions(1).first() else {
                continue;
            };
            let driver =
                CommuteDriver::build(branch.problem.constraints()).map_err(|e| e.to_string())?;
            let cost = Arc::new(branch.problem.cost_poly());
            let initial = driver.encode_state(feasible);
            let terms = driver.ordered_terms(initial);
            let params = ChocoQSolver::initial_params(layers, terms.len());
            let circuit =
                ChocoQSolver::build_circuit(&driver, &cost, &terms, initial, layers, &params);
            let n = circuit.n_qubits();
            let fits_all = [EngineKind::Dense, EngineKind::Sparse, EngineKind::Compact]
                .iter()
                .all(|&kind| check_size_for(n, kind).is_ok());
            if fits_all {
                self.replay(&circuit, shots);
            }

            let mut wide = Circuit::new(n + 2);
            for gate in circuit.gates() {
                wide.push(gate.clone());
            }
            let options = TranspileOptions::with_ancillas(vec![n, n + 1]);
            let lowered = self.trace.time("qsim.transpile_s", || {
                choco_qsim::transpile(&wide, &options)
            });
            lowered.map_err(|e| e.to_string())?;

            if let (true, Some(device)) = (spec.noisy, cell.device) {
                let noise = device.model().noise();
                let trajectories = spec
                    .config
                    .noise_trajectories
                    .unwrap_or(base.noise_trajectories);
                let rng = &mut self.rng;
                let counts = self.trace.time("qsim.noisy_sample_s", || {
                    sample_transpiled_noisy(
                        SimConfig::serial(),
                        &circuit,
                        &noise,
                        shots,
                        trajectories,
                        rng,
                    )
                });
                counts.map_err(|e| e.to_string())?;
            }
        }
        Ok(())
    }

    /// Warm replays on every engine (median of [`PROBE_REPEATS`]), the
    /// compact engine's plan compilation (its cold run minus its warm
    /// run), and sampling from the dense state.
    fn replay(&mut self, circuit: &Circuit, shots: u64) {
        let cold = timed(|| {
            self.compact.run(circuit);
        });
        let warm = median_time(|| {
            self.compact.run(circuit);
        });
        self.trace.add_span("qsim.replay_compact_s", warm);
        self.trace
            .add_span("qsim.plan_compile_s", (cold - warm).max(0.0));
        for (name, workspace) in [
            ("qsim.replay_sparse_s", &mut self.sparse),
            ("qsim.replay_dense_s", &mut self.dense),
        ] {
            workspace.run(circuit);
            let warm = median_time(|| {
                workspace.run(circuit);
            });
            self.trace.add_span(name, warm);
        }
        let rng = &mut self.rng;
        let dense = &mut self.dense;
        let sample = median_time(|| {
            std::hint::black_box(dense.sample(shots, rng));
        });
        self.trace.add_span("qsim.sample_s", sample);
    }
}

fn timed(f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64()
}

fn median_time(mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..PROBE_REPEATS).map(|_| timed(&mut f)).collect();
    samples.sort_by(f64::total_cmp);
    samples[PROBE_REPEATS / 2]
}

// ------------------------------------------------------------ report JSON

/// A parsed JSON value; numbers keep their text so they convert to the
/// report's own field types losslessly.
enum Json {
    Null,
    Bool(bool),
    Num(String),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

/// Rebuilds a [`RunReport`] from the JSON `choco-cli run` wrote, so the
/// replay can time [`RunReport::to_json`] on the very report the
/// untraced run produced (and check that it renders the same bytes).
fn report_from_json(text: &str) -> Result<RunReport, String> {
    let mut parser = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let Json::Obj(top) = parser.value()? else {
        return Err("report: expected an object".to_string());
    };
    let get = |key: &str| {
        top.iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("report: missing `{key}`"))
    };
    let string = |key: &str| match get(key)? {
        Json::Str(s) => Ok(s.clone()),
        _ => Err(format!("report: `{key}` is not a string")),
    };
    let kind: &'static str = match string("kind")?.as_str() {
        "grid" => "grid",
        other => return Err(format!("report: only grid reports replay (`{other}`)")),
    };
    let spec_seed = match get("spec_seed")? {
        Json::Num(n) => n.parse().map_err(|e| format!("report: spec_seed: {e}"))?,
        _ => return Err("report: `spec_seed` is not a number".to_string()),
    };
    let quick = matches!(get("quick")?, Json::Bool(true));
    let Json::Arr(cells) = get("cells")? else {
        return Err("report: `cells` is not an array".to_string());
    };
    let records = cells
        .iter()
        .map(record_from_json)
        .collect::<Result<_, _>>()?;
    Ok(RunReport {
        name: string("experiment")?,
        description: string("description")?,
        kind,
        spec_seed,
        quick,
        records,
        summary: record_from_json(get("summary")?)?,
    })
}

fn record_from_json(value: &Json) -> Result<Record, String> {
    let Json::Obj(entries) = value else {
        return Err("report: a record is not an object".to_string());
    };
    let mut record = Record::new();
    for (key, value) in entries {
        let field = match value {
            Json::Null => Field::Null,
            Json::Bool(b) => Field::Bool(*b),
            Json::Num(n) => number_field(n)?,
            Json::Str(s) => Field::Str(s.clone()),
            Json::Arr(xs) => Field::Floats(
                xs.iter()
                    .map(|x| match x {
                        Json::Num(n) => n.parse().map_err(|e| format!("report: {n}: {e}")),
                        _ => Ok(f64::NAN),
                    })
                    .collect::<Result<_, String>>()?,
            ),
            Json::Obj(_) => return Err(format!("report: `{key}` is a nested object")),
        };
        record.push(key.clone(), field);
    }
    Ok(record)
}

/// Unsigned integers stay `UInt`; everything else is a float. Both
/// render back to the same text (`f64` prints integral values without a
/// fraction).
fn number_field(text: &str) -> Result<Field, String> {
    if let Ok(u) = text.parse::<u64>() {
        return Ok(Field::UInt(u));
    }
    text.parse::<f64>()
        .map(Field::Float)
        .map_err(|e| format!("report: {text}: {e}"))
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(u8::is_ascii_whitespace)
        {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "report: expected `{}` at byte {}",
                byte as char, self.pos
            ))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        let rest = &self.bytes[self.pos..];
        match rest.first() {
            Some(b'{') => {
                self.pos += 1;
                let mut entries = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.pos) == Some(&b'}') {
                    self.pos += 1;
                    return Ok(Json::Obj(entries));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.expect(b':')?;
                    entries.push((key, self.value()?));
                    self.skip_ws();
                    match self.bytes.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Json::Obj(entries));
                        }
                        _ => return Err(format!("report: bad object at byte {}", self.pos)),
                    }
                }
            }
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.pos) == Some(&b']') {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.skip_ws();
                    match self.bytes.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("report: bad array at byte {}", self.pos)),
                    }
                }
            }
            Some(b'"') => self.string().map(Json::Str),
            _ if rest.starts_with(b"null") => {
                self.pos += 4;
                Ok(Json::Null)
            }
            _ if rest.starts_with(b"true") => {
                self.pos += 4;
                Ok(Json::Bool(true))
            }
            _ if rest.starts_with(b"false") => {
                self.pos += 5;
                Ok(Json::Bool(false))
            }
            _ => {
                let len = rest
                    .iter()
                    .take_while(|b| b.is_ascii_digit() || b"+-.eE".contains(b))
                    .count();
                if len == 0 {
                    return Err(format!("report: unexpected byte at {}", self.pos));
                }
                self.pos += len;
                Ok(Json::Num(
                    String::from_utf8_lossy(&rest[..len]).into_owned(),
                ))
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let rest = &self.bytes[self.pos..];
            let plain = rest
                .iter()
                .take_while(|&&b| b != b'"' && b != b'\\')
                .count();
            out.push_str(std::str::from_utf8(&rest[..plain]).map_err(|e| e.to_string())?);
            self.pos += plain;
            match self.bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    let escape = self.bytes.get(self.pos + 1).copied();
                    self.pos += 2;
                    match escape {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or("report: bad \\u escape")?;
                            out.push(hex);
                            self.pos += 4;
                        }
                        _ => return Err(format!("report: bad escape at byte {}", self.pos)),
                    }
                }
                _ => return Err("report: unterminated string".to_string()),
            }
        }
    }
}

// ------------------------------------------------------------ output JSON

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_strs(items: &[String]) -> String {
    let quoted: Vec<String> = items.iter().map(|s| json_str(s)).collect();
    format!("[{}]", quoted.join(", "))
}

fn json_floats(xs: &[f64]) -> String {
    let items: Vec<String> = xs.iter().map(|x| format!("{x}")).collect();
    format!("[{}]", items.join(", "))
}

fn json_map(map: &BTreeMap<String, f64>) -> String {
    let items: Vec<String> = map
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    format!("{{{}}}", items.join(", "))
}
