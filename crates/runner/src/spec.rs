//! Experiment specifications: what to run, declared as data.
//!
//! An [`ExperimentSpec`] names a grid of
//! `{problem × instance seed × solver × layers × eliminate × device}`
//! cells (or one of the special experiment kinds), deserialized from the
//! TOML subset in [`crate::minitoml`]. Checked-in specs live under
//! `experiments/`; `choco-cli run <spec>` executes them.

use crate::minitoml::{self, Document, Value};
use choco_device::Device;
use choco_mathkit::SplitMix64;
use choco_model::Problem;
use choco_optim::OptimizerKind;
use choco_problems as problems;
use choco_qsim::EngineKind;

/// Which experiment harness a spec drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunKind {
    /// The default solver grid (tables I/II, figs. 7–11, 13).
    Grid,
    /// Trotter-vs-Lemma-2 decomposition scaling (fig. 12).
    Decomposition,
    /// The Opt1/Opt2/Opt3 ablation (fig. 14).
    Ablation,
    /// Support growth through the Choco-Q circuit (fig. 9b).
    Support,
}

impl RunKind {
    /// The kind's spec-file name.
    pub fn label(&self) -> &'static str {
        match self {
            RunKind::Grid => "grid",
            RunKind::Decomposition => "decomposition",
            RunKind::Ablation => "ablation",
            RunKind::Support => "support",
        }
    }

    fn parse(text: &str) -> Result<RunKind, String> {
        match text {
            "grid" => Ok(RunKind::Grid),
            "decomposition" => Ok(RunKind::Decomposition),
            "ablation" => Ok(RunKind::Ablation),
            "support" => Ok(RunKind::Support),
            other => Err(format!(
                "unknown kind `{other}` (expected grid|decomposition|ablation|support)"
            )),
        }
    }
}

/// The four designs of the paper's evaluation, in Table II column order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SolverKind {
    /// Penalty-based QAOA (soft constraints).
    Penalty,
    /// Cyclic-Hamiltonian QAOA (XY rings on summation constraints).
    Cyclic,
    /// Hardware-efficient ansatz.
    Hea,
    /// Choco-Q (commute driver, hard constraints).
    ChocoQ,
}

impl SolverKind {
    /// All four solvers in table order.
    pub const ALL: [SolverKind; 4] = [
        SolverKind::Penalty,
        SolverKind::Cyclic,
        SolverKind::Hea,
        SolverKind::ChocoQ,
    ];

    /// Short column label (`"penalty"`, … `"choco-q"`).
    pub fn label(&self) -> &'static str {
        match self {
            SolverKind::Penalty => "penalty",
            SolverKind::Cyclic => "cyclic",
            SolverKind::Hea => "hea",
            SolverKind::ChocoQ => "choco-q",
        }
    }

    /// Stable small id used for per-cell seed derivation.
    pub fn seed_id(&self) -> u64 {
        match self {
            SolverKind::Penalty => 1,
            SolverKind::Cyclic => 2,
            SolverKind::Hea => 3,
            SolverKind::ChocoQ => 4,
        }
    }

    fn parse(text: &str) -> Result<SolverKind, String> {
        match text {
            "penalty" => Ok(SolverKind::Penalty),
            "cyclic" => Ok(SolverKind::Cyclic),
            "hea" => Ok(SolverKind::Hea),
            "choco-q" | "choco" => Ok(SolverKind::ChocoQ),
            other => Err(format!(
                "unknown solver `{other}` (expected penalty|cyclic|hea|choco-q)"
            )),
        }
    }
}

/// A reference to one problem instance family, resolvable with a seed.
///
/// Two forms are accepted:
///
/// * a suite class id (`"F1"` … `"K4"`, `"X1"` … `"B4"`, plus the
///   native-inequality classes `"B1n"` … `"B4n"`, `"M1"`/`"M2"`,
///   `"A1"`/`"A2"`), or
/// * an explicit family shape: `"flp:2x1"`, `"gcp:3x2x3"`,
///   `"kpp:6x7x2"` / `"kpp:6x7x2:unbal"`, `"cover:6x10"`,
///   `"knapsack:5x8"` / `"knapsack:5x8:native"` (the encoding suffix is
///   a grid axis: `slack` is the default equality-budget formulation,
///   `native` keeps the budget a first-class `≤` row),
///   `"mdknap:5x2"` (items × dimensions), `"assign:2x3"`
///   (agents × tasks).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProblemRef(String);

impl ProblemRef {
    /// Parses and validates a problem reference.
    ///
    /// # Errors
    ///
    /// Returns a description of the malformed reference.
    pub fn parse(text: &str) -> Result<ProblemRef, String> {
        let r = ProblemRef(text.to_string());
        r.build(1).map(|_| r)
    }

    /// The reference text as written in the spec.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Builds the instance of this family for `seed`.
    ///
    /// # Errors
    ///
    /// Returns a message for unknown families, malformed or degenerate
    /// shapes (each generator's preconditions are validated here, so a
    /// bad spec reports an error instead of tripping a generator
    /// assertion), or oversized instances.
    pub fn build(&self, seed: u64) -> Result<Problem, String> {
        let text = self.0.as_str();
        if problems::EXTENDED_CLASSES.contains(&text) || problems::NATIVE_CLASSES.contains(&text) {
            return Ok(problems::instance(text, seed));
        }
        let (family, rest) = text.split_once(':').ok_or_else(|| {
            format!("unknown problem `{text}` (not a suite class and no `family:shape` form)")
        })?;
        let (shape, suffix) = match rest.split_once(':') {
            Some((shape, suffix)) => (shape, Some(suffix)),
            None => (rest, None),
        };
        // Only kpp (`:unbal`) and knapsack (`:slack`/`:native`) take a
        // shape suffix; anything else is a typo, not a silent no-op.
        if let Some(suffix) = suffix {
            let valid = match family {
                "kpp" => suffix == "unbal",
                "knapsack" | "knap" => problems::KnapsackEncoding::parse(suffix).is_some(),
                _ => false,
            };
            if !valid {
                return Err(format!(
                    "bad suffix `:{suffix}` in `{text}` (valid: `kpp:VxExB:unbal`, \
                     `knapsack:IxW:slack`, `knapsack:IxW:native`)"
                ));
            }
        }
        let dims: Vec<&str> = shape.split('x').collect();
        let parse_dim = |i: usize| -> Result<usize, String> {
            dims.get(i)
                .and_then(|d| d.parse::<usize>().ok())
                .filter(|&d| d > 0)
                .ok_or_else(|| format!("bad shape `{shape}` for family `{family}`"))
        };
        let require = |ok: bool, why: &str| -> Result<(), String> {
            if ok {
                Ok(())
            } else {
                Err(format!("degenerate shape `{text}`: {why}"))
            }
        };
        let max_edges = |v: usize| v * v.saturating_sub(1) / 2;
        let built = match family {
            "flp" => {
                check_dims(&dims, 2, family)?;
                problems::flp(parse_dim(0)?, parse_dim(1)?, seed)
            }
            "gcp" => {
                check_dims(&dims, 3, family)?;
                let (v, e, k) = (parse_dim(0)?, parse_dim(1)?, parse_dim(2)?);
                require(k >= 2, "need at least 2 colors")?;
                require(e <= max_edges(v), "too many edges for a simple graph")?;
                problems::gcp_random(v, e, k, seed)
            }
            "kpp" => {
                check_dims(&dims, 3, family)?;
                let (v, e, b) = (parse_dim(0)?, parse_dim(1)?, parse_dim(2)?);
                let balanced = suffix.is_none();
                require(v >= 2 && b >= 2, "need at least 2 vertices and 2 blocks")?;
                require(e <= max_edges(v), "too many edges for a simple graph")?;
                require(
                    !balanced || v % b == 0,
                    "balanced partition needs V divisible by B (append `:unbal`)",
                )?;
                problems::kpp_random(v, e, b, balanced, seed)
            }
            "cover" => {
                check_dims(&dims, 2, family)?;
                let (elements, subsets) = (parse_dim(0)?, parse_dim(1)?);
                require(
                    elements >= 2 && subsets >= 2,
                    "need at least 2 elements and 2 subsets",
                )?;
                problems::cover_random(elements, subsets, seed)
            }
            "knapsack" | "knap" => {
                check_dims(&dims, 2, family)?;
                let encoding = suffix
                    .and_then(problems::KnapsackEncoding::parse)
                    .unwrap_or_default();
                problems::knapsack_random_with(parse_dim(0)?, parse_dim(1)? as u64, seed, encoding)
            }
            "mdknap" => {
                check_dims(&dims, 2, family)?;
                problems::mdknap_random(parse_dim(0)?, parse_dim(1)?, seed)
            }
            "assign" | "assigncap" => {
                check_dims(&dims, 2, family)?;
                problems::assigncap_random(parse_dim(0)?, parse_dim(1)?, seed)
            }
            other => return Err(format!("unknown problem family `{other}`")),
        };
        built.map_err(|e| format!("{text}: {e}"))
    }
}

fn check_dims(dims: &[&str], expect: usize, family: &str) -> Result<(), String> {
    if dims.len() == expect {
        Ok(())
    } else {
        Err(format!(
            "family `{family}` needs {expect} `x`-separated dimensions, got {}",
            dims.len()
        ))
    }
}

fn parse_device(text: &str) -> Result<Device, String> {
    match text {
        "fez" => Ok(Device::Fez),
        "osaka" => Ok(Device::Osaka),
        "sherbrooke" => Ok(Device::Sherbrooke),
        other => Err(format!(
            "unknown device `{other}` (expected fez|osaka|sherbrooke)"
        )),
    }
}

/// Solver-configuration knobs a spec may pin; anything left `None` falls
/// back to the register-size-scaled defaults
/// ([`crate::scaled_choco`] / [`crate::scaled_qaoa`]).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ConfigOverrides {
    /// Measurement shots.
    pub shots: Option<u64>,
    /// Optimizer iteration budget.
    pub max_iters: Option<usize>,
    /// Choco-Q multistart count.
    pub restarts: Option<usize>,
    /// Monte-Carlo trajectories for noisy sampling.
    pub noise_trajectories: Option<u32>,
    /// Record transpiled statistics.
    pub transpiled_stats: Option<bool>,
}

/// Decomposition-kind parameters (fig. 12).
#[derive(Clone, Debug, PartialEq)]
pub struct DecompositionSpec {
    /// Largest register the Trotter baseline attempts.
    pub trotter_max: usize,
    /// Largest register the Lemma-2 path reports.
    pub lemma2_max: usize,
    /// Trotter slice count.
    pub slices: usize,
    /// Per-decomposition timeout in seconds.
    pub timeout_secs: u64,
    /// Evolution angle β.
    pub angle: f64,
    /// `trotter_max` under `--quick`.
    pub quick_trotter_max: usize,
    /// `lemma2_max` under `--quick`.
    pub quick_lemma2_max: usize,
}

impl Default for DecompositionSpec {
    fn default() -> Self {
        DecompositionSpec {
            trotter_max: 10,
            lemma2_max: 16,
            slices: 128,
            timeout_secs: 60,
            angle: 0.7,
            quick_trotter_max: 7,
            quick_lemma2_max: 12,
        }
    }
}

/// A complete experiment specification.
#[derive(Clone, Debug)]
pub struct ExperimentSpec {
    /// Experiment name (used for default output paths).
    pub name: String,
    /// One-line description, echoed into reports.
    pub description: String,
    /// Which harness runs this spec.
    pub kind: RunKind,
    /// Master seed mixed into every per-cell seed.
    pub seed: u64,
    /// Problem axis.
    pub problems: Vec<ProblemRef>,
    /// Substitute problem axis under `--quick` (defaults to `problems`).
    pub quick_problems: Option<Vec<ProblemRef>>,
    /// Skip instances above this variable count under `--quick`.
    pub quick_max_vars: Option<usize>,
    /// Solver axis.
    pub solvers: Vec<SolverKind>,
    /// Instance-seed axis.
    pub seeds: Vec<u64>,
    /// Layer axis (`None` = solver default / size-scaled).
    pub layers: Vec<Option<usize>>,
    /// Elimination axis (Choco-Q only; baselines ignore it).
    pub eliminate: Vec<usize>,
    /// Device axis (`None` = ideal).
    pub devices: Vec<Option<Device>>,
    /// Simulation engine the whole grid runs on (`None` = the runner's
    /// default, overridable by `choco-cli run --engine`). Not a grid axis:
    /// engines are bit-identical, so sweeping them would duplicate every
    /// record.
    pub engine: Option<EngineKind>,
    /// Batched-replay width for the compact engine (`None` = the runner's
    /// default, overridable by `choco-cli run --batch`). Like the engine
    /// key it is not a grid axis: batched replays are bit-identical to
    /// serial ones, so the setting changes wall-clock, never report bytes.
    pub batch: Option<usize>,
    /// Classical optimizer every solver in the grid runs (`None` = the
    /// workspace default, COBYLA; overridable by
    /// `choco-cli run --optimizer`). Unlike the engine key this *does*
    /// change outcomes — QAOA quality is sensitive to the optimizer — but
    /// it is a configuration knob, not a grid axis, mirroring how the
    /// paper fixes one optimizer for all designs.
    pub optimizer: Option<OptimizerKind>,
    /// Whether a device cell applies the device's noise model (otherwise
    /// the device only drives latency estimation).
    pub noisy: bool,
    /// Emit per-iteration cost histories in the report.
    pub history: bool,
    /// Configuration overrides.
    pub config: ConfigOverrides,
    /// Decomposition-kind parameters.
    pub decomposition: DecompositionSpec,
    /// Default report path (`results/<name>.json` when unset).
    pub output: Option<String>,
}

/// One cell of the experiment grid.
#[derive(Clone, Debug)]
pub struct Cell {
    /// Position in the report (stable under any worker count).
    pub index: usize,
    /// The problem family.
    pub problem: ProblemRef,
    /// Instance seed.
    pub instance_seed: u64,
    /// The solver to run.
    pub solver: SolverKind,
    /// Layer override.
    pub layers: Option<usize>,
    /// Variables to eliminate (Choco-Q).
    pub eliminate: usize,
    /// Device (noise and/or latency model).
    pub device: Option<Device>,
}

/// Validates an integer key against its documented lower bound. An
/// out-of-range value is a hard parse error naming the key, the given
/// value, and the valid range — never a silent clamp into a different
/// experiment than the one the spec author wrote down.
fn int_at_least(key: &str, v: i64, min: i64) -> Result<i64, String> {
    if v < min {
        Err(format!(
            "`{key}`: must be at least {min} (got {v}) — out-of-range \
             values are rejected rather than silently clamped"
        ))
    } else {
        Ok(v)
    }
}

/// Like [`int_at_least`], applied to every element of an integer array
/// key.
fn ints_at_least(key: &str, xs: &[i64], min: i64) -> Result<Vec<i64>, String> {
    xs.iter().map(|&x| int_at_least(key, x, min)).collect()
}

impl ExperimentSpec {
    /// Parses a spec from TOML text.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending key or line.
    pub fn parse_str(text: &str) -> Result<ExperimentSpec, String> {
        let doc = minitoml::parse(text)?;
        Self::from_document(&doc)
    }

    /// Loads and parses a spec file.
    ///
    /// # Errors
    ///
    /// Returns I/O and parse failures as messages prefixed with the path.
    pub fn load(path: &str) -> Result<ExperimentSpec, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        Self::parse_str(&text).map_err(|e| format!("{path}: {e}"))
    }

    fn from_document(doc: &Document) -> Result<ExperimentSpec, String> {
        let mut known = KnownKeys::default();
        let name = known
            .str_key(doc, "name")?
            .ok_or("missing required key `name`")?;
        let description = known.str_key(doc, "description")?.unwrap_or_default();
        let kind = match known.str_key(doc, "kind")? {
            Some(k) => RunKind::parse(&k)?,
            None => RunKind::Grid,
        };
        let seed = match known.int_key(doc, "seed")? {
            Some(v) => int_at_least("seed", v, 0)? as u64,
            None => 1,
        };
        let noisy = known.bool_key(doc, "grid.noisy")?.unwrap_or(false);
        let history = known.bool_key(doc, "grid.history")?.unwrap_or(false);
        let output = known.str_key(doc, "output")?;

        let problems = match known.str_array(doc, "grid.problems")? {
            Some(refs) => refs
                .iter()
                .map(|r| ProblemRef::parse(r))
                .collect::<Result<Vec<_>, _>>()?,
            None => Vec::new(),
        };
        let quick_problems = match known.str_array(doc, "grid.quick_problems")? {
            Some(refs) => Some(
                refs.iter()
                    .map(|r| ProblemRef::parse(r))
                    .collect::<Result<Vec<_>, _>>()?,
            ),
            None => None,
        };
        let quick_max_vars = known
            .int_key(doc, "grid.quick_max_vars")?
            .map(|v| int_at_least("[grid] quick_max_vars", v, 1).map(|v| v as usize))
            .transpose()?;
        let solvers = match known.str_array(doc, "grid.solvers")? {
            Some(names) => names
                .iter()
                .map(|n| SolverKind::parse(n))
                .collect::<Result<Vec<_>, _>>()?,
            None => SolverKind::ALL.to_vec(),
        };
        let seeds = match known.int_array(doc, "grid.seeds")? {
            Some(xs) => ints_at_least("[grid] seeds", &xs, 0)?
                .into_iter()
                .map(|x| x as u64)
                .collect(),
            None => vec![1],
        };
        let layers = match known.int_array(doc, "grid.layers")? {
            Some(xs) => ints_at_least("[grid] layers", &xs, 1)?
                .into_iter()
                .map(|x| Some(x as usize))
                .collect(),
            None => vec![None],
        };
        let eliminate = match known.int_array(doc, "grid.eliminate")? {
            Some(xs) => ints_at_least("[grid] eliminate", &xs, 0)?
                .into_iter()
                .map(|x| x as usize)
                .collect(),
            None => vec![0],
        };
        let devices = match known.str_array(doc, "grid.devices")? {
            Some(names) => names
                .iter()
                .map(|n| parse_device(n).map(Some))
                .collect::<Result<Vec<_>, _>>()?,
            None => vec![None],
        };
        let engine = match known.str_key(doc, "grid.engine")? {
            Some(name) => Some(EngineKind::parse(&name).map_err(|e| {
                format!(
                    "`[grid] engine`: {e} — pick `compact` (the default) for the \
                         plan-compiled feasible-subspace engine, or `dense` for the \
                         2^n strided reference engine"
                )
            })?),
            None => None,
        };
        let batch = match known.int_key(doc, "grid.batch")? {
            Some(v) if v < 1 => {
                return Err(format!(
                    "`[grid] batch`: must be at least 1 (got {v}) — the batched \
                         compact replay evaluates that many candidate angle sets \
                         per plan traversal; 1 is the serial path"
                ));
            }
            Some(v) => Some(v as usize),
            None => None,
        };
        let optimizer = match known.str_key(doc, "grid.optimizer")? {
            Some(name) => Some(OptimizerKind::parse(&name).map_err(|e| {
                format!(
                    "`[grid] optimizer`: {e} — pick `cobyla` for the paper's \
                         linear-approximation trust region (the default), \
                         `nelder-mead` for the downhill simplex, or `spsa` for \
                         simultaneous perturbation stochastic approximation"
                )
            })?),
            None => None,
        };

        let config = ConfigOverrides {
            shots: known
                .int_key(doc, "config.shots")?
                .map(|v| int_at_least("[config] shots", v, 1).map(|v| v as u64))
                .transpose()?,
            max_iters: known
                .int_key(doc, "config.max_iters")?
                .map(|v| int_at_least("[config] max_iters", v, 1).map(|v| v as usize))
                .transpose()?,
            restarts: known
                .int_key(doc, "config.restarts")?
                .map(|v| int_at_least("[config] restarts", v, 1).map(|v| v as usize))
                .transpose()?,
            noise_trajectories: known
                .int_key(doc, "config.noise_trajectories")?
                .map(|v| {
                    let v = int_at_least("[config] noise_trajectories", v, 1)?;
                    u32::try_from(v).map_err(|_| {
                        format!(
                            "`[config] noise_trajectories`: must be at most {} (got {v})",
                            u32::MAX
                        )
                    })
                })
                .transpose()?,
            transpiled_stats: known.bool_key(doc, "config.transpiled_stats")?,
        };

        let d = DecompositionSpec::default();
        let decomp_usize = |known: &mut KnownKeys, key: &'static str, default: usize, min: i64| {
            known
                .int_key(doc, key)?
                .map(|v| {
                    int_at_least(
                        &format!("[decomposition] {}", &key["decomposition.".len()..]),
                        v,
                        min,
                    )
                    .map(|v| v as usize)
                })
                .transpose()
                .map(|v| v.unwrap_or(default))
        };
        let decomposition = DecompositionSpec {
            trotter_max: decomp_usize(&mut known, "decomposition.trotter_max", d.trotter_max, 2)?,
            lemma2_max: decomp_usize(&mut known, "decomposition.lemma2_max", d.lemma2_max, 2)?,
            slices: decomp_usize(&mut known, "decomposition.slices", d.slices, 1)?,
            timeout_secs: known
                .int_key(doc, "decomposition.timeout_secs")?
                .map(|v| int_at_least("[decomposition] timeout_secs", v, 1).map(|v| v as u64))
                .transpose()?
                .unwrap_or(d.timeout_secs),
            angle: known
                .float_key(doc, "decomposition.angle")?
                .unwrap_or(d.angle),
            quick_trotter_max: decomp_usize(
                &mut known,
                "decomposition.quick_trotter_max",
                d.quick_trotter_max,
                2,
            )?,
            quick_lemma2_max: decomp_usize(
                &mut known,
                "decomposition.quick_lemma2_max",
                d.quick_lemma2_max,
                2,
            )?,
        };

        known.reject_unknown(doc)?;

        let spec = ExperimentSpec {
            name,
            description,
            kind,
            seed,
            problems,
            quick_problems,
            quick_max_vars,
            solvers,
            seeds,
            layers,
            eliminate,
            devices,
            engine,
            batch,
            optimizer,
            noisy,
            history,
            config,
            decomposition,
            output,
        };
        if spec.kind != RunKind::Decomposition && spec.problems.is_empty() {
            return Err("`[grid] problems` must list at least one problem".into());
        }
        Ok(spec)
    }

    /// The problem axis, after `--quick` substitution.
    pub fn effective_problems(&self, quick: bool) -> &[ProblemRef] {
        match (&self.quick_problems, quick) {
            (Some(qs), true) => qs,
            _ => &self.problems,
        }
    }

    /// Expands the grid axes into cells in deterministic report order.
    pub fn expand_cells(&self, quick: bool) -> Vec<Cell> {
        let mut cells = Vec::new();
        let mut index = 0usize;
        for problem in self.effective_problems(quick) {
            for &instance_seed in &self.seeds {
                for &layers in &self.layers {
                    for &eliminate in &self.eliminate {
                        for &device in &self.devices {
                            for &solver in &self.solvers {
                                cells.push(Cell {
                                    index,
                                    problem: problem.clone(),
                                    instance_seed,
                                    solver,
                                    layers,
                                    eliminate,
                                    device,
                                });
                                index += 1;
                            }
                        }
                    }
                }
            }
        }
        cells
    }

    /// The deterministic sampling seed of one cell.
    ///
    /// Derived only from the spec's master seed and the cell's own
    /// coordinates — never from the flat cell index or worker id — so any
    /// cell can be re-run in isolation and still reproduce its in-grid
    /// result. The device coordinate is mixed in only when it affects the
    /// computation (noisy runs), so latency-model-only sweeps measure the
    /// *same* solve on every device, matching Fig. 11's methodology.
    pub fn cell_seed(&self, cell: &Cell) -> u64 {
        let mut s = splitmix_step(self.seed ^ 0x5EED_CE11);
        s = splitmix_step(s ^ fnv1a(cell.problem.as_str().as_bytes()));
        s = splitmix_step(s ^ cell.instance_seed);
        s = splitmix_step(s ^ cell.solver.seed_id());
        s = splitmix_step(s ^ cell.layers.map_or(0, |l| l as u64 + 1));
        s = splitmix_step(s ^ (cell.eliminate as u64).wrapping_add(0xE1).rotate_left(8));
        if self.noisy {
            let device_id = cell.device.map_or(0u64, |d| match d {
                Device::Fez => 1,
                Device::Osaka => 2,
                Device::Sherbrooke => 3,
            });
            s = splitmix_step(s ^ device_id);
        }
        s
    }
}

/// One SplitMix64 scramble step (stateless).
fn splitmix_step(x: u64) -> u64 {
    SplitMix64::new(x).next_u64()
}

/// FNV-1a over bytes, for stable string coordinates in seeds (and for
/// the checkpoint journal's spec fingerprint).
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Tracks which keys a spec consumed so typos are rejected, not ignored.
#[derive(Default)]
struct KnownKeys {
    seen: Vec<&'static str>,
}

impl KnownKeys {
    fn get<'d>(&mut self, doc: &'d Document, key: &'static str) -> Option<&'d Value> {
        self.seen.push(key);
        doc.get(key)
    }

    fn str_key(&mut self, doc: &Document, key: &'static str) -> Result<Option<String>, String> {
        match self.get(doc, key) {
            None => Ok(None),
            Some(v) => v
                .as_str()
                .map(|s| Some(s.to_string()))
                .ok_or_else(|| format!("`{key}` must be a string, got {v}")),
        }
    }

    fn int_key(&mut self, doc: &Document, key: &'static str) -> Result<Option<i64>, String> {
        match self.get(doc, key) {
            None => Ok(None),
            Some(v) => v
                .as_int()
                .map(Some)
                .ok_or_else(|| format!("`{key}` must be an integer, got {v}")),
        }
    }

    fn float_key(&mut self, doc: &Document, key: &'static str) -> Result<Option<f64>, String> {
        match self.get(doc, key) {
            None => Ok(None),
            Some(v) => v
                .as_float()
                .map(Some)
                .ok_or_else(|| format!("`{key}` must be a number, got {v}")),
        }
    }

    fn bool_key(&mut self, doc: &Document, key: &'static str) -> Result<Option<bool>, String> {
        match self.get(doc, key) {
            None => Ok(None),
            Some(v) => v
                .as_bool()
                .map(Some)
                .ok_or_else(|| format!("`{key}` must be a boolean, got {v}")),
        }
    }

    fn str_array(
        &mut self,
        doc: &Document,
        key: &'static str,
    ) -> Result<Option<Vec<String>>, String> {
        match self.get(doc, key) {
            None => Ok(None),
            Some(v) => {
                let items = v
                    .as_array()
                    .ok_or_else(|| format!("`{key}` must be an array, got {v}"))?;
                items
                    .iter()
                    .map(|x| {
                        x.as_str()
                            .map(|s| s.to_string())
                            .ok_or_else(|| format!("`{key}` must contain strings, got {x}"))
                    })
                    .collect::<Result<Vec<_>, _>>()
                    .map(Some)
            }
        }
    }

    fn int_array(&mut self, doc: &Document, key: &'static str) -> Result<Option<Vec<i64>>, String> {
        match self.get(doc, key) {
            None => Ok(None),
            Some(v) => {
                let items = v
                    .as_array()
                    .ok_or_else(|| format!("`{key}` must be an array, got {v}"))?;
                items
                    .iter()
                    .map(|x| {
                        x.as_int()
                            .ok_or_else(|| format!("`{key}` must contain integers, got {x}"))
                    })
                    .collect::<Result<Vec<_>, _>>()
                    .map(Some)
            }
        }
    }

    fn reject_unknown(&self, doc: &Document) -> Result<(), String> {
        for key in doc.keys() {
            if !self.seen.contains(&key.as_str()) {
                return Err(format!("unknown spec key `{key}`"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINIMAL: &str = r#"
name = "t"
[grid]
problems = ["F1"]
"#;

    #[test]
    fn minimal_spec_defaults() {
        let spec = ExperimentSpec::parse_str(MINIMAL).unwrap();
        assert_eq!(spec.kind, RunKind::Grid);
        assert_eq!(spec.solvers, SolverKind::ALL.to_vec());
        assert_eq!(spec.seeds, vec![1]);
        assert_eq!(spec.layers, vec![None]);
        assert_eq!(spec.devices, vec![None]);
        assert!(!spec.noisy);
        assert_eq!(spec.expand_cells(false).len(), 4);
    }

    #[test]
    fn axes_multiply_in_stable_order() {
        let spec = ExperimentSpec::parse_str(
            r#"
name = "axes"
[grid]
problems = ["F1", "K1"]
solvers = ["choco-q", "penalty"]
seeds = [1, 2, 3]
layers = [1, 2]
"#,
        )
        .unwrap();
        let cells = spec.expand_cells(false);
        assert_eq!(cells.len(), 2 * 2 * 3 * 2);
        assert_eq!(cells[0].problem.as_str(), "F1");
        assert_eq!(cells[0].solver, SolverKind::ChocoQ);
        assert_eq!(cells[1].solver, SolverKind::Penalty);
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(c.index, i);
        }
    }

    #[test]
    fn cell_seeds_are_coordinate_stable() {
        let spec = ExperimentSpec::parse_str(
            r#"
name = "seeds"
[grid]
problems = ["F1", "K1"]
solvers = ["choco-q"]
"#,
        )
        .unwrap();
        let wide = spec.expand_cells(false);
        let narrow = ExperimentSpec::parse_str(
            r#"
name = "seeds"
[grid]
problems = ["K1"]
solvers = ["choco-q"]
"#,
        )
        .unwrap();
        let k1_wide = spec.cell_seed(&wide[1]);
        let k1_narrow = narrow.cell_seed(&narrow.expand_cells(false)[0]);
        // Same coordinates → same seed, regardless of grid shape.
        assert_eq!(k1_wide, k1_narrow);
        assert_ne!(spec.cell_seed(&wide[0]), k1_wide);
    }

    #[test]
    fn device_only_affects_seed_when_noisy() {
        let base = r#"
name = "d"
[grid]
problems = ["F1"]
solvers = ["choco-q"]
devices = ["fez", "osaka"]
"#;
        let latency_only = ExperimentSpec::parse_str(base).unwrap();
        let cells = latency_only.expand_cells(false);
        assert_eq!(
            latency_only.cell_seed(&cells[0]),
            latency_only.cell_seed(&cells[1])
        );
        let noisy = ExperimentSpec::parse_str(&format!("{base}noisy = true\n")).unwrap();
        let cells = noisy.expand_cells(false);
        assert_ne!(noisy.cell_seed(&cells[0]), noisy.cell_seed(&cells[1]));
    }

    #[test]
    fn quick_substitutes_problem_axis() {
        let spec = ExperimentSpec::parse_str(
            r#"
name = "q"
[grid]
problems = ["F1", "G4"]
quick_problems = ["F1"]
"#,
        )
        .unwrap();
        assert_eq!(spec.effective_problems(false).len(), 2);
        assert_eq!(spec.effective_problems(true).len(), 1);
    }

    #[test]
    fn explicit_family_refs_build() {
        for r in [
            "flp:2x1",
            "gcp:3x2x3",
            "kpp:4x3x2",
            "cover:4x6",
            "knapsack:4x6",
            "mdknap:4x2",
            "assign:2x2",
        ] {
            let p = ProblemRef::parse(r).unwrap().build(1).unwrap();
            assert!(p.n_vars() > 0, "{r}");
            assert!(p.first_feasible().is_some(), "{r}");
        }
        assert_eq!(
            ProblemRef::parse("X1").unwrap().build(2).unwrap().n_vars(),
            6
        );
    }

    #[test]
    fn knapsack_encoding_suffix_is_a_grid_axis() {
        // Same items either way; the axis only changes the formulation.
        let slack = ProblemRef::parse("knapsack:4x6:slack")
            .unwrap()
            .build(1)
            .unwrap();
        let native = ProblemRef::parse("knapsack:4x6:native")
            .unwrap()
            .build(1)
            .unwrap();
        let default = ProblemRef::parse("knapsack:4x6").unwrap().build(1).unwrap();
        assert_eq!(format!("{slack}"), format!("{default}"));
        assert!(native.n_vars() < slack.n_vars());
        assert!(native.has_inequalities());
        assert!(!slack.has_inequalities());
        assert!(ProblemRef::parse("knapsack:4x6:penalty").is_err());
        assert!(ProblemRef::parse("mdknap:4x2:native").is_err());
    }

    #[test]
    fn native_suite_classes_resolve() {
        for id in ["B1n", "M1", "A2"] {
            let p = ProblemRef::parse(id).unwrap().build(1).unwrap();
            assert!(p.has_inequalities(), "{id}");
        }
    }

    #[test]
    fn degenerate_shapes_error_instead_of_panicking() {
        for bad in [
            "cover:1x6",  // < 2 elements
            "cover:4x1",  // < 2 subsets
            "gcp:3x9x3",  // more edges than a simple 3-vertex graph
            "gcp:3x2x1",  // < 2 colors
            "kpp:1x1x2",  // < 2 vertices
            "kpp:5x4x2",  // balanced but 5 % 2 != 0
            "kpp:4x99x2", // too many edges
        ] {
            let err = ProblemRef::parse(bad).unwrap_err();
            assert!(
                err.contains("shape") || err.contains("degenerate"),
                "{bad}: {err}"
            );
        }
        // The unbalanced escape hatch lifts the divisibility requirement.
        assert!(ProblemRef::parse("kpp:5x4x2:unbal").is_ok());
    }

    #[test]
    fn trailing_suffixes_are_rejected_except_kpp_unbal() {
        for bad in ["cover:4x6:unbal", "flp:2x1:extra", "kpp:6x7x2:unbaI"] {
            let err = ProblemRef::parse(bad).unwrap_err();
            assert!(err.contains("suffix"), "{bad}: {err}");
        }
        assert!(ProblemRef::parse("kpp:6x7x2:unbal").is_ok());
    }

    #[test]
    fn engine_key_parses_and_defaults_to_none() {
        assert_eq!(ExperimentSpec::parse_str(MINIMAL).unwrap().engine, None);
        for (name, kind) in [
            ("dense", EngineKind::Dense),
            ("compact", EngineKind::Compact),
            // Case-insensitive: specs written by hand shouldn't care.
            ("Compact", EngineKind::Compact),
            ("DENSE", EngineKind::Dense),
        ] {
            let spec = ExperimentSpec::parse_str(&format!(
                "name = \"e\"\n[grid]\nproblems = [\"F1\"]\nengine = \"{name}\""
            ))
            .unwrap();
            assert_eq!(spec.engine, Some(kind));
        }
    }

    #[test]
    fn removed_engines_are_rejected_with_guidance() {
        for name in ["sparse", "auto"] {
            let err = ExperimentSpec::parse_str(&format!(
                "name = \"e\"\n[grid]\nproblems = [\"F1\"]\nengine = \"{name}\""
            ))
            .unwrap_err();
            assert!(err.contains("`[grid] engine`"), "{err}");
            assert!(
                err.contains(&format!("engine `{name}` was removed")),
                "{err}"
            );
            assert!(err.contains("dense|compact"), "{err}");
        }
    }

    #[test]
    fn unknown_engine_is_rejected_with_guidance() {
        let err = ExperimentSpec::parse_str(
            "name = \"e\"\n[grid]\nproblems = [\"F1\"]\nengine = \"gpu\"",
        )
        .unwrap_err();
        assert!(err.contains("unknown engine `gpu`"), "{err}");
        assert!(err.contains("dense|compact"), "{err}");
        assert!(
            err.contains("feasible-subspace"),
            "error must explain the choices: {err}"
        );
        // Wrong type is also caught, not silently ignored.
        let err =
            ExperimentSpec::parse_str("name = \"e\"\n[grid]\nproblems = [\"F1\"]\nengine = 3")
                .unwrap_err();
        assert!(err.contains("engine"), "{err}");
    }

    #[test]
    fn batch_key_parses_and_defaults_to_none() {
        assert_eq!(ExperimentSpec::parse_str(MINIMAL).unwrap().batch, None);
        for (text, want) in [("1", 1usize), ("8", 8), ("17", 17)] {
            let spec = ExperimentSpec::parse_str(&format!(
                "name = \"b\"\n[grid]\nproblems = [\"F1\"]\nbatch = {text}"
            ))
            .unwrap();
            assert_eq!(spec.batch, Some(want), "batch = {text}");
        }
    }

    #[test]
    fn nonpositive_batch_is_rejected_with_guidance() {
        for bad in ["0", "-3"] {
            let err = ExperimentSpec::parse_str(&format!(
                "name = \"b\"\n[grid]\nproblems = [\"F1\"]\nbatch = {bad}"
            ))
            .unwrap_err();
            assert!(err.contains("batch"), "{bad}: {err}");
            assert!(err.contains("at least 1"), "{bad}: {err}");
        }
        // Wrong type is also caught, not silently ignored.
        let err = ExperimentSpec::parse_str(
            "name = \"b\"\n[grid]\nproblems = [\"F1\"]\nbatch = \"wide\"",
        )
        .unwrap_err();
        assert!(err.contains("batch"), "{err}");
    }

    #[test]
    fn optimizer_key_parses_case_insensitively_and_defaults_to_none() {
        assert_eq!(ExperimentSpec::parse_str(MINIMAL).unwrap().optimizer, None);
        for (name, kind) in [
            ("cobyla", OptimizerKind::Cobyla),
            ("nelder-mead", OptimizerKind::NelderMead),
            ("spsa", OptimizerKind::Spsa),
            // Case-insensitive: specs written by hand shouldn't care.
            ("COBYLA", OptimizerKind::Cobyla),
            ("Nelder-Mead", OptimizerKind::NelderMead),
        ] {
            let spec = ExperimentSpec::parse_str(&format!(
                "name = \"o\"\n[grid]\nproblems = [\"F1\"]\noptimizer = \"{name}\""
            ))
            .unwrap();
            assert_eq!(spec.optimizer, Some(kind));
        }
        // Display/parse round-trip through the spec key.
        for kind in OptimizerKind::ALL {
            let spec = ExperimentSpec::parse_str(&format!(
                "name = \"o\"\n[grid]\nproblems = [\"F1\"]\noptimizer = \"{kind}\""
            ))
            .unwrap();
            assert_eq!(spec.optimizer, Some(kind));
        }
    }

    #[test]
    fn unknown_optimizer_is_rejected_with_guidance() {
        let err = ExperimentSpec::parse_str(
            "name = \"o\"\n[grid]\nproblems = [\"F1\"]\noptimizer = \"adam\"",
        )
        .unwrap_err();
        assert!(err.contains("unknown optimizer `adam`"), "{err}");
        assert!(err.contains("cobyla|nelder-mead|spsa"), "{err}");
        assert!(
            err.contains("trust region"),
            "error must explain the choices: {err}"
        );
        // Wrong type is also caught, not silently ignored.
        let err =
            ExperimentSpec::parse_str("name = \"o\"\n[grid]\nproblems = [\"F1\"]\noptimizer = 3")
                .unwrap_err();
        assert!(err.contains("optimizer"), "{err}");
    }

    #[test]
    fn bad_specs_are_rejected_with_context() {
        assert!(ExperimentSpec::parse_str("").unwrap_err().contains("name"));
        let e = ExperimentSpec::parse_str("name = \"x\"\n[grid]\nproblems = [\"Q9\"]").unwrap_err();
        assert!(e.contains("Q9"), "{e}");
        let e = ExperimentSpec::parse_str(&format!("{MINIMAL}typo_key = 3")).unwrap_err();
        assert!(e.contains("typo_key"), "{e}");
        let e = ExperimentSpec::parse_str(
            "name = \"x\"\n[grid]\nproblems = [\"F1\"]\nsolvers = [\"vqe\"]",
        )
        .unwrap_err();
        assert!(e.contains("vqe"), "{e}");
    }

    /// Regression for the silent-clamp bug: out-of-range integers used to
    /// be clamped (`.max(0)`, `.max(1)`, `.max(2)`), silently running a
    /// *different* experiment than the spec asked for. They must now be
    /// hard parse errors naming the key, the given value, and the bound.
    #[test]
    fn out_of_range_values_are_rejected_not_clamped() {
        let cases: &[(&str, &str, &str, &str)] = &[
            ("seed = -5", "seed", "-5", "at least 0"),
            (
                "[grid]\nproblems = [\"F1\"]\nseeds = [3, -1]",
                "seeds",
                "-1",
                "at least 0",
            ),
            (
                "[grid]\nproblems = [\"F1\"]\nlayers = [0]",
                "layers",
                "0",
                "at least 1",
            ),
            (
                "[grid]\nproblems = [\"F1\"]\nlayers = [-3]",
                "layers",
                "-3",
                "at least 1",
            ),
            (
                "[grid]\nproblems = [\"F1\"]\neliminate = [-2]",
                "eliminate",
                "-2",
                "at least 0",
            ),
            (
                "[grid]\nproblems = [\"F1\"]\nquick_max_vars = 0",
                "quick_max_vars",
                "0",
                "at least 1",
            ),
            ("[config]\nshots = 0", "shots", "0", "at least 1"),
            ("[config]\nmax_iters = -3", "max_iters", "-3", "at least 1"),
            ("[config]\nrestarts = 0", "restarts", "0", "at least 1"),
            (
                "[config]\nnoise_trajectories = 0",
                "noise_trajectories",
                "0",
                "at least 1",
            ),
            (
                "[decomposition]\ntrotter_max = 1",
                "trotter_max",
                "1",
                "at least 2",
            ),
            (
                "[decomposition]\nlemma2_max = 0",
                "lemma2_max",
                "0",
                "at least 2",
            ),
            (
                "[decomposition]\nquick_trotter_max = 1",
                "quick_trotter_max",
                "1",
                "at least 2",
            ),
            (
                "[decomposition]\nquick_lemma2_max = -1",
                "quick_lemma2_max",
                "-1",
                "at least 2",
            ),
            ("[decomposition]\nslices = 0", "slices", "0", "at least 1"),
            (
                "[decomposition]\ntimeout_secs = 0",
                "timeout_secs",
                "0",
                "at least 1",
            ),
        ];
        for (snippet, key, value, range) in cases {
            let toml = if snippet.contains("[grid]") {
                format!("name = \"t\"\n{snippet}\n")
            } else {
                format!("name = \"t\"\n{snippet}\n[grid]\nproblems = [\"F1\"]\n")
            };
            let e = ExperimentSpec::parse_str(&toml)
                .expect_err(&format!("accepted out-of-range `{snippet}`"));
            assert!(e.contains(key), "error for `{snippet}` lacks key: {e}");
            assert!(e.contains(value), "error for `{snippet}` lacks value: {e}");
            assert!(e.contains(range), "error for `{snippet}` lacks range: {e}");
        }
        // In-range values still parse (boundary check: the minimum itself).
        let spec = ExperimentSpec::parse_str(
            "name = \"t\"\nseed = 0\n[grid]\nproblems = [\"F1\"]\nlayers = [1]\neliminate = [0]\n\
             [config]\nshots = 1\n[decomposition]\ntrotter_max = 2\nslices = 1\n",
        )
        .unwrap();
        assert_eq!(spec.seed, 0);
    }
}
