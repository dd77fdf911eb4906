//! The non-grid experiment kinds: decomposition scaling (Fig. 12), the
//! optimization-pass ablation (Fig. 14), and circuit support growth
//! (Fig. 9b).
//!
//! These harnesses run serially — their cell counts are tiny and the
//! Trotter baseline's timeout handling wants one case at a time. Measured
//! wall-clock goes to stderr; the report keeps only deterministic
//! quantities (depths, memory, support counts, metrics).

use crate::report::{Field, Record, RunReport};
use crate::run::{build_instances, scaled_choco, RunOptions};
use crate::spec::{ExperimentSpec, SolverKind};
use choco_core::{
    lemma2_stats, plan_elimination, support_profile_with, trotter_decompose, ChocoQConfig,
    ChocoQSolver, CommuteDriver, TrotterConfig,
};
use choco_mathkit::{expm, Complex64, LinEq, LinSystem};
use choco_model::Problem;
use choco_qsim::two_level_decompose;
use std::sync::Arc;
use std::time::Duration;

/// One summation constraint over `n` variables: the driver every
/// decomposition method has to implement (Fig. 12's scaling axis).
fn ring_driver(n: usize) -> CommuteDriver {
    let mut sys = LinSystem::new(n);
    sys.push(LinEq::new((0..n).map(|i| (i, 1i64)), 1));
    CommuteDriver::build(&sys).expect("ring driver")
}

/// Fig. 12: Trotter + exact synthesis vs the Lemma-2 lowering, as the
/// register grows.
pub(crate) fn execute_decomposition(
    spec: &ExperimentSpec,
    opts: &RunOptions,
) -> Result<RunReport, String> {
    let d = &spec.decomposition;
    let (trotter_max, lemma2_max) = if opts.quick {
        (d.quick_trotter_max, d.quick_lemma2_max)
    } else {
        (d.trotter_max, d.lemma2_max)
    };
    let timeout = Duration::from_secs(d.timeout_secs);
    let mut records = Vec::new();
    let mut index = 0u64;
    for n in 2..=lemma2_max {
        let driver = ring_driver(n);
        if n <= trotter_max {
            let report = trotter_decompose(
                &driver,
                d.angle,
                &TrotterConfig {
                    slices: d.slices,
                    timeout,
                },
            );
            eprintln!(
                "trotter n={n}: {:.3}s{}",
                report.total_time().as_secs_f64(),
                if report.timed_out { " (TIMEOUT)" } else { "" }
            );
            let mut record = Record::new();
            record
                .push("index", Field::UInt(index))
                .push("method", Field::Str("trotter".into()))
                .push("n_qubits", Field::UInt(n as u64))
                .push(
                    "depth",
                    if report.timed_out {
                        Field::Null
                    } else {
                        Field::Float(report.depth as f64)
                    },
                )
                .push("memory_bytes", Field::UInt(report.memory_bytes as u64))
                .push("timed_out", Field::Bool(report.timed_out));
            records.push(record);
            index += 1;
        }
        let l2 = lemma2_stats(&driver, d.angle);
        eprintln!("choco-q n={n}: {:.4}s", l2.time.as_secs_f64());
        let mut record = Record::new();
        record
            .push("index", Field::UInt(index))
            .push("method", Field::Str("choco-q".into()))
            .push("n_qubits", Field::UInt(n as u64))
            .push("depth", Field::Float(l2.depth as f64))
            .push("memory_bytes", Field::UInt(l2.memory_bytes as u64))
            .push("timed_out", Field::Bool(false));
        records.push(record);
        index += 1;
    }
    let mut summary = Record::new();
    summary
        .push("cells", Field::UInt(records.len() as u64))
        .push("trotter_max", Field::UInt(trotter_max as u64))
        .push("lemma2_max", Field::UInt(lemma2_max as u64));
    Ok(RunReport {
        name: spec.name.clone(),
        description: spec.description.clone(),
        kind: spec.kind.label(),
        spec_seed: spec.seed,
        quick: opts.quick,
        records,
        summary,
    })
}

/// Depth of the serialized driver when each block is lowered by *generic*
/// two-level synthesis instead of Lemma 2 (the Opt2 ablation). Blocks are
/// independent, so depths add.
fn generic_block_depth(problem: &Problem) -> Option<f64> {
    let driver = CommuteDriver::build(problem.constraints()).ok()?;
    let mut total = 0f64;
    for t in driver.terms() {
        let u = &t.u;
        let support: Vec<usize> = (0..u.len()).filter(|&i| u[i] != 0).collect();
        let k = support.len();
        // Dense e^{-iβ Hc} on the support qubits only.
        let compressed: Vec<i8> = support.iter().map(|&i| u[i]).collect();
        let h = CommuteDriver::term_matrix(&compressed);
        let unitary = expm(&h.scale(Complex64::new(0.0, -0.8)));
        let cost = two_level_decompose(&unitary).cost_estimate(k);
        total += cost.depth_estimate as f64;
    }
    Some(total)
}

/// Fig. 14: the Opt1/Opt2/Opt3 ablation under the spec's device noise.
pub(crate) fn execute_ablation(
    spec: &ExperimentSpec,
    opts: &RunOptions,
) -> Result<RunReport, String> {
    let device = spec.devices.iter().flatten().next().copied();
    let eliminate = spec.eliminate.iter().copied().max().unwrap_or(2);
    let cells = spec.expand_cells(opts.quick);
    let instances = build_instances(&cells)?;
    let mut workspace = choco_qsim::SimWorkspace::new(opts.effective_sim(spec));
    let mut records = Vec::new();
    let mut index = 0u64;
    for problem_ref in spec.effective_problems(opts.quick) {
        for &instance_seed in &spec.seeds {
            let key = (problem_ref.as_str().to_string(), instance_seed);
            let instance = &instances[&key];
            let problem = &instance.problem;

            // Opt1 (serialization + generic synthesis): depth analytically;
            // success is not simulatable at that depth on NISQ hardware —
            // the paper's point.
            let mut push_analytic = |label: &str, depth: Option<f64>, idx: &mut u64| {
                let mut record = Record::new();
                record
                    .push("index", Field::UInt(*idx))
                    .push("problem", Field::Str(problem_ref.as_str().to_string()))
                    .push("instance_seed", Field::UInt(instance_seed))
                    .push("config", Field::Str(label.to_string()))
                    .push("depth", Field::opt_float(depth))
                    .push("success_rate", Field::Null)
                    .push("deployable", Field::Bool(false));
                records.push(record);
                *idx += 1;
            };
            push_analytic("Opt1", generic_block_depth(problem), &mut index);
            let opt13 = plan_elimination(problem, eliminate).ok().and_then(|plan| {
                plan.branches
                    .first()
                    .and_then(|b| generic_block_depth(&b.problem))
            });
            push_analytic("Opt1+3", opt13, &mut index);

            // Opt1+2 and Opt1+2+3: the real solver under noise.
            for (label, elim) in [("Opt1+2", 0usize), ("Opt1+2+3", eliminate)] {
                let base = scaled_choco(problem.n_vars());
                let config = ChocoQConfig {
                    eliminate: elim,
                    optimizer: opts.effective_optimizer(spec),
                    restart_workers: opts.restart_workers,
                    max_iters: spec.config.max_iters.unwrap_or(60),
                    restarts: spec.config.restarts.unwrap_or(2),
                    shots: spec.config.shots.unwrap_or(4_000),
                    noise: device.map(|dev| dev.model().noise()),
                    noise_trajectories: spec.config.noise_trajectories.unwrap_or(12),
                    transpiled_stats: true,
                    seed: spec.cell_seed(&crate::spec::Cell {
                        index: 0,
                        problem: problem_ref.clone(),
                        instance_seed,
                        solver: SolverKind::ChocoQ,
                        layers: None,
                        eliminate: elim,
                        device,
                    }),
                    ..base
                };
                let mut record = Record::new();
                record
                    .push("index", Field::UInt(index))
                    .push("problem", Field::Str(problem_ref.as_str().to_string()))
                    .push("instance_seed", Field::UInt(instance_seed))
                    .push("config", Field::Str(label.to_string()));
                match ChocoQSolver::new(config).solve_with_workspace(problem, &mut workspace) {
                    Ok(outcome) => {
                        let success = instance
                            .optimum
                            .as_ref()
                            .ok()
                            .map(|opt| outcome.metrics_with(problem, opt).success_rate);
                        record
                            .push(
                                "depth",
                                Field::opt_float(
                                    outcome.circuit.transpiled_depth.map(|x| x as f64),
                                ),
                            )
                            .push("success_rate", Field::opt_float(success))
                            .push("deployable", Field::Bool(true));
                    }
                    Err(e) => {
                        eprintln!("{label} on {}: {e}", problem.name());
                        record
                            .push("depth", Field::Null)
                            .push("success_rate", Field::Null)
                            .push("deployable", Field::Bool(false));
                    }
                }
                records.push(record);
                index += 1;
            }
        }
    }
    let mut summary = Record::new();
    summary
        .push("cells", Field::UInt(records.len() as u64))
        .push(
            "device",
            Field::opt_str(device.map(|d| d.model().name.to_string())),
        );
    Ok(RunReport {
        name: spec.name.clone(),
        description: spec.description.clone(),
        kind: spec.kind.label(),
        spec_seed: spec.seed,
        quick: opts.quick,
        records,
        summary,
    })
}

/// Fig. 9(b): the number of basis states supporting the state through the
/// Choco-Q circuit (quantum parallelism growth).
///
/// The profile runs on the engine the spec/CLI selects. On the default
/// compact engine the harness never allocates a `2^n` buffer, which is
/// what lets `experiments/scaling_sparse.toml` profile registers the
/// dense engine cannot hold (the counts themselves are
/// engine-independent).
/// Record keys for the five support sample points.
const QUARTER_KEYS: [&str; 5] = [
    "support_at_0pct",
    "support_at_25pct",
    "support_at_50pct",
    "support_at_75pct",
    "support_at_100pct",
];

/// The indices of the 0/25/50/75/100% sample points into a support
/// profile with `len` snapshots. Errors on an empty profile instead of
/// underflowing `len - 1` (a zero-iteration solve produces no snapshots).
pub(crate) fn quarter_indices(len: usize) -> Result<[usize; 5], String> {
    if len == 0 {
        return Err("support profile is empty (the solve recorded no snapshots)".into());
    }
    let mut out = [0usize; 5];
    for (quarter, slot) in out.iter_mut().enumerate() {
        *slot = (len - 1) * quarter / 4;
    }
    Ok(out)
}

pub(crate) fn execute_support(
    spec: &ExperimentSpec,
    opts: &RunOptions,
) -> Result<RunReport, String> {
    let cells = spec.expand_cells(opts.quick);
    let instances = build_instances(&cells)?;
    let sim = opts.effective_sim(spec);
    let mut records = Vec::new();
    let mut index = 0u64;
    for problem_ref in spec.effective_problems(opts.quick) {
        for &instance_seed in &spec.seeds {
            let key = (problem_ref.as_str().to_string(), instance_seed);
            let problem = &instances[&key].problem;
            let driver = CommuteDriver::build(problem.constraints())
                .map_err(|e| format!("{}: {e}", problem.name()))?;
            let initial = problem
                .first_feasible()
                .map(|x| driver.encode_state(x))
                .ok_or_else(|| format!("{}: infeasible", problem.name()))?;
            let ordered = driver.ordered_terms(initial);
            let poly = Arc::new(problem.cost_poly());
            let params = ChocoQSolver::initial_params(1, ordered.len());
            let circuit =
                ChocoQSolver::build_circuit(&driver, &poly, &ordered, initial, 1, &params);
            let profile = support_profile_with(&circuit, 1e-9, sim);
            let mut record = Record::new();
            record
                .push("index", Field::UInt(index))
                .push("problem", Field::Str(problem_ref.as_str().to_string()))
                .push("instance_seed", Field::UInt(instance_seed))
                .push("n_vars", Field::UInt(problem.n_vars() as u64))
                .push("gates", Field::UInt(circuit.len() as u64));
            match quarter_indices(profile.len()) {
                Ok(quarters) => {
                    record.push("status", Field::Str("ok".into()));
                    for (idx, key) in quarters.into_iter().zip(QUARTER_KEYS) {
                        record.push(key, Field::UInt(profile[idx] as u64));
                    }
                }
                Err(e) => {
                    // A zero-iteration solve (e.g. under a tight cell
                    // timeout) yields an empty profile; emit an error
                    // record rather than underflowing `len() - 1`.
                    record.push("status", Field::Str("error".into())).push(
                        "error",
                        Field::Str(format!("{}: {e}", problem_ref.as_str())),
                    );
                    for key in QUARTER_KEYS {
                        record.push(key, Field::Null);
                    }
                }
            }
            records.push(record);
            index += 1;
        }
    }
    let mut summary = Record::new();
    summary.push("cells", Field::UInt(records.len() as u64));
    Ok(RunReport {
        name: spec.name.clone(),
        description: spec.description.clone(),
        kind: spec.kind.label(),
        spec_seed: spec.seed,
        quick: opts.quick,
        records,
        summary,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::execute;
    use crate::spec::ExperimentSpec;

    #[test]
    fn decomposition_report_has_both_methods() {
        let spec = ExperimentSpec::parse_str(
            r#"
name = "decomp"
kind = "decomposition"
[decomposition]
trotter_max = 4
lemma2_max = 6
slices = 8
timeout_secs = 5
"#,
        )
        .unwrap();
        let report = execute(&spec, &RunOptions::default()).unwrap();
        // n = 2..=4 twice + n = 5..=6 lemma2-only.
        assert_eq!(report.records.len(), 3 * 2 + 2);
        let choco_depths: Vec<f64> = report
            .records
            .iter()
            .filter(|r| r.get("method") == Some(&Field::Str("choco-q".into())))
            .filter_map(|r| match r.get("depth") {
                Some(Field::Float(d)) => Some(*d),
                _ => None,
            })
            .collect();
        assert_eq!(choco_depths.len(), 5);
        assert!(choco_depths.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn support_grows_through_the_circuit() {
        let spec = ExperimentSpec::parse_str(
            r#"
name = "support"
kind = "support"
[grid]
problems = ["F1"]
"#,
        )
        .unwrap();
        let report = execute(&spec, &RunOptions::default()).unwrap();
        assert_eq!(report.records.len(), 1);
        let r = &report.records[0];
        let at = |k: &str| match r.get(k) {
            Some(Field::UInt(u)) => *u,
            other => panic!("{k}: {other:?}"),
        };
        assert_eq!(at("support_at_0pct"), 1, "feasible initial state");
        assert!(at("support_at_100pct") > 1, "driver spreads the state");
        assert_eq!(r.get("status"), Some(&Field::Str("ok".into())));
    }

    /// Regression: `(profile.len() - 1) * quarter / 4` used to underflow
    /// and panic on an empty profile (zero-iteration solve under a tight
    /// cell timeout). It must now be a structured error.
    #[test]
    fn empty_support_profile_is_an_error_not_a_panic() {
        let e = quarter_indices(0).unwrap_err();
        assert!(e.contains("empty"), "{e}");
        assert_eq!(quarter_indices(1).unwrap(), [0; 5]);
        assert_eq!(quarter_indices(2).unwrap(), [0, 0, 0, 0, 1]);
        assert_eq!(quarter_indices(9).unwrap(), [0, 2, 4, 6, 8]);
    }
}
