//! Reusable simulation workspace for iteration-heavy callers.
//!
//! Every variational solver replays a structured circuit hundreds of times
//! with different parameters. A bare [`StateVector::run`] pays three
//! avoidable costs per iteration: allocating a fresh `2^n` amplitude
//! buffer, re-evaluating each [`PhasePoly`] diagonal per basis state, and
//! (for sampling) rebuilding the `O(2^n)` cumulative-probability table per
//! call. [`SimWorkspace`] owns all three buffers across iterations,
//! restarts, and elimination branches:
//!
//! * the amplitude state is an engine ([`SimEngine`]) reset in place
//!   (`reallocations()` counts how often it had to be rebuilt — the
//!   zero-alloc-per-iteration invariant the solvers assert in their
//!   tests),
//! * diagonals are cached per `Arc<PhasePoly>` identity on the dense
//!   engine, so a polynomial shared across iterations is expanded
//!   exactly once per register width (the compact engine bakes its
//!   distinct values into the plan instead),
//! * the sampling prefix table is built lazily per final state and reused
//!   across repeated `sample` calls (`2^n` slots dense, `|F|` slots
//!   compact),
//! * compiled **gate plans** are cached per circuit *shape* when
//!   [`crate::EngineKind::Compact`] (the default) is selected: the
//!   feasible subspace is enumerated and lowered to rank tables once, and
//!   every subsequent iteration replays the plan with that iteration's
//!   angles as flat-array loops. A serial [`SimWorkspace::run`] replays
//!   one lane; [`SimWorkspace::run_batch`] replays K candidates in the
//!   same pass, into a second [`CompactStateVector`] so the serial state
//!   stays untouched. Shapes that refuse compilation (structural support
//!   above the occupancy threshold) are remembered and run straight on
//!   the dense engine,
//! * K candidates of a shape that runs dense are replayed as a **forked
//!   batch** ([`SimWorkspace::run_forked`]): the gates the lanes share are
//!   applied once to a trunk state, and each lane forks off it where its
//!   own gates begin — one extra `2^n` buffer, whatever K is.
//!
//! Which engine runs is [`SimConfig::engine`]'s choice — the workspace is
//! where that selection takes effect for every solver.

use crate::circuit::Circuit;
use crate::compact::CompactStateVector;
use crate::counts::Counts;
use crate::engine::{SimEngine, MAX_DENSIFY_QUBITS};
use crate::gate::Gate;
use crate::kernels;
use crate::phasepoly::PhasePoly;
use crate::plan::{CircuitShape, GatePlan, PlanError};
use crate::simconfig::{EngineKind, SimConfig};
use crate::state::{StateVector, DIAG_SKIP};
use choco_mathkit::Complex64;
use rand::Rng;
use std::sync::{Arc, Mutex, Weak};

/// One cached diagonal: the polynomial it came from (kept weakly so cache
/// identity can be verified against live `Arc`s) and its per-basis values.
struct CachedDiag {
    poly: Weak<PhasePoly>,
    values: Vec<f64>,
    /// The bit-distinct values and each basis state's index into them
    /// ([`DIAG_SKIP`] where the value is zero), so an application evaluates
    /// `cis` once per distinct value. Both are empty when the diagonal has
    /// more than `2^n / 4` distinct values: then `values` is applied
    /// directly.
    distinct: Vec<f64>,
    index: Vec<u32>,
    /// Scratch for the per-application factors `cis(-θ·distinct[k])`.
    factors: Vec<Complex64>,
}

impl CachedDiag {
    fn new(poly: &Arc<PhasePoly>, dim: usize) -> Self {
        let mut values = vec![0.0f64; dim];
        kernels::accumulate_poly_diag(&mut values, poly);
        let (mut distinct, mut index) = kernels::dedup_values(&values);
        if distinct.len() <= dim / 4 {
            for k in &mut index {
                if distinct[*k as usize] == 0.0 {
                    *k = DIAG_SKIP;
                }
            }
        } else {
            (distinct, index) = (Vec::new(), Vec::new());
        }
        CachedDiag {
            poly: Arc::downgrade(poly),
            values,
            factors: Vec::with_capacity(distinct.len()),
            distinct,
            index,
        }
    }

    /// Applies `e^{-iθ·f}` to `state` — bit-identical to
    /// [`StateVector::apply_diag_values`] on `values`.
    fn apply(&mut self, state: &mut StateVector, theta: f64) {
        if self.index.is_empty() {
            state.apply_diag_values(&self.values, theta);
            return;
        }
        self.factors.clear();
        self.factors
            .extend(self.distinct.iter().map(|&f| Complex64::cis(-theta * f)));
        state.apply_diag_indexed(&self.factors, &self.index);
    }
}

/// Most plans a workspace keeps: enough for a solve's Δ policies and
/// elimination branch widths, bounded so a long-lived worker workspace
/// cannot accumulate rank tables across unrelated cells.
const PLAN_CACHE_CAP: usize = 8;

/// One cached compilation outcome for a circuit shape.
enum PlanEntry {
    /// The shape compiled: replay it.
    Compiled(Arc<GatePlan>),
    /// The shape refused compilation (structural support too dense):
    /// remember that, so iterations skip the recompile attempt and go
    /// straight to the dense engine.
    Fallback(CircuitShape),
}

impl PlanEntry {
    fn shape(&self) -> &CircuitShape {
        match self {
            PlanEntry::Compiled(plan) => plan.shape(),
            PlanEntry::Fallback(shape) => shape,
        }
    }
}

/// A shareable cache of compiled gate plans, keyed by circuit *shape*
/// (see [`crate::EngineKind::Compact`]).
///
/// Every [`SimWorkspace`] owns one behind an `Arc`; workspaces built with
/// [`SimWorkspace::with_plan_cache`] share it, so a multi-start scheduler
/// whose workers each own a workspace still compiles **each circuit shape
/// exactly once** — the first worker to reach a shape compiles it (under
/// the cache lock, so concurrent workers on the same shape wait instead
/// of duplicating the work) and every other worker replays the shared
/// plan. Replays only take the lock for the shape lookup; the plan itself
/// is handed out as an `Arc` and executed lock-free.
#[derive(Default)]
pub struct PlanCache {
    inner: Mutex<PlanCacheInner>,
}

#[derive(Default)]
struct PlanCacheInner {
    /// Compilation outcomes, most recently used last.
    entries: Vec<PlanEntry>,
    /// Total compilations (successful or refused) ever run.
    compilations: u64,
    /// Total shape lookups served from a cached entry.
    hits: u64,
    /// Content-interned diagonal polynomials, most recently used last.
    /// Circuit shapes hold their `PhasePoly` weakly and match by `Arc`
    /// pointer identity, so a caller that rebuilds an equal polynomial
    /// per solve would never hit the cache across solves; interning
    /// through here gives equal-content polynomials one canonical `Arc`
    /// (and keeps it alive, so the shape stays matchable).
    interned: Vec<Arc<PhasePoly>>,
}

/// Most canonical polynomials [`PlanCache::intern_poly`] keeps alive:
/// enough for the distinct cost/penalty polynomials of the shapes a
/// bounded plan cache can hold, without letting a long-lived daemon
/// accumulate dead problems' polynomials.
const INTERN_CAP: usize = 2 * PLAN_CACHE_CAP;

/// A point-in-time snapshot of a [`PlanCache`]'s counters — the stats
/// hook `choco-serve` reports so cross-request plan reuse is observable
/// (a second same-shape job must add `hits`, not `compilations`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Circuit shapes with a cached compilation outcome right now.
    pub shapes: usize,
    /// Plan compilations (successful or refused) ever run.
    pub compilations: u64,
    /// Shape lookups served from a cached entry.
    pub hits: u64,
}

impl PlanCache {
    /// An empty cache.
    pub fn new() -> Self {
        PlanCache::default()
    }

    /// Locks the cache, recovering from a poisoned mutex. A worker that
    /// panics while holding the lock (the experiment runner isolates
    /// per-cell panics with `catch_unwind` and keeps its siblings alive)
    /// would otherwise take every workspace sharing this cache down on
    /// their next lookup. Compilation happens *before* the entry insert,
    /// so a poisoned cache holds no partially-built plan — but it may
    /// have missed LRU/eviction bookkeeping mid-update, so recovery
    /// conservatively drops the cached entries (they recompile on demand;
    /// the compilation counter survives) and clears the poison flag.
    fn lock_inner(&self) -> std::sync::MutexGuard<'_, PlanCacheInner> {
        match self.inner.lock() {
            Ok(guard) => guard,
            Err(poisoned) => {
                self.inner.clear_poison();
                let mut guard = poisoned.into_inner();
                guard.entries.clear();
                guard
            }
        }
    }

    /// Number of circuit shapes with a cached compilation outcome
    /// (compiled plan or remembered fallback).
    pub fn len(&self) -> usize {
        self.lock_inner().entries.len()
    }

    /// `true` when no shape has been compiled yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// How many plan compilations (successful or refused) have run across
    /// every workspace sharing this cache. Stays at the number of
    /// distinct circuit shapes across any number of iterations, restarts,
    /// and workers — the compile-once invariant of the compact engine.
    pub fn compilations(&self) -> u64 {
        self.lock_inner().compilations
    }

    /// A snapshot of the cache counters (shape count, compilations,
    /// hits) — the observability hook behind `choco-serve`'s `stats`
    /// request.
    pub fn stats(&self) -> PlanCacheStats {
        let inner = self.lock_inner();
        PlanCacheStats {
            shapes: inner.entries.len(),
            compilations: inner.compilations,
            hits: inner.hits,
        }
    }

    /// Returns the canonical `Arc` for a polynomial with `poly`'s
    /// content, registering it if none exists yet (bounded, LRU).
    ///
    /// Circuit shapes ([`crate::EngineKind::Compact`]) identify their
    /// diagonal polynomials by `Arc` pointer, so two solves that each
    /// build an equal `PhasePoly` from scratch produce shapes that never
    /// match. Callers that want plan reuse **across** solves — the
    /// `choco-serve` daemon sharing one cache over all requests — intern
    /// their cost/penalty polynomials here so equal content maps to one
    /// pointer and the compiled plan is replayed instead of recompiled.
    pub fn intern_poly(&self, poly: PhasePoly) -> Arc<PhasePoly> {
        let mut inner = self.lock_inner();
        if let Some(idx) = inner.interned.iter().position(|p| **p == poly) {
            // LRU promotion, same policy as the plan entries.
            let found = inner.interned.remove(idx);
            inner.interned.push(found.clone());
            return found;
        }
        if inner.interned.len() >= INTERN_CAP {
            inner.interned.remove(0);
        }
        let canonical = Arc::new(poly);
        inner.interned.push(canonical.clone());
        canonical
    }

    /// Finds the plan for `circuit`'s shape, compiling it on a miss.
    /// Returns `None` when the shape is a (fresh or remembered) fallback:
    /// the caller then runs the dense engine.
    pub(crate) fn lookup_or_compile(
        &self,
        circuit: &Circuit,
        max_support: usize,
    ) -> Option<Arc<GatePlan>> {
        let mut inner = self.lock_inner();
        if let Some(idx) = inner
            .entries
            .iter()
            .position(|e| e.shape().matches(circuit))
        {
            // LRU promotion: eviction drops the front, so a hit must
            // refresh recency or a rotation over more shapes than the
            // cache holds would thrash into per-iteration recompiles.
            inner.hits += 1;
            let entry = inner.entries.remove(idx);
            let found = match &entry {
                PlanEntry::Compiled(plan) => Some(plan.clone()),
                PlanEntry::Fallback(_) => None,
            };
            inner.entries.push(entry);
            return found;
        }
        // Miss: compile while holding the lock — a concurrent worker on
        // the same shape blocks here and then *hits*, which is exactly
        // the compile-once guarantee a shared cache exists to give.
        inner.compilations += 1;
        let entry = match GatePlan::compile(circuit, max_support) {
            Ok(plan) => PlanEntry::Compiled(Arc::new(plan)),
            Err(PlanError::TooDense { .. }) => PlanEntry::Fallback(CircuitShape::of(circuit)),
        };
        // Entries whose diagonal polynomials died can never match again;
        // drop them first, then bound the cache.
        inner.entries.retain(|e| e.shape().is_live());
        if inner.entries.len() >= PLAN_CACHE_CAP {
            inner.entries.remove(0);
        }
        let found = match &entry {
            PlanEntry::Compiled(plan) => Some(plan.clone()),
            PlanEntry::Fallback(_) => None,
        };
        inner.entries.push(entry);
        found
    }
}

/// The structural-support cap above which plan compilation gives up and
/// the shape runs dense: [`SimConfig::density_threshold`] of the register
/// (floored so tiny registers always compile). Above
/// [`MAX_DENSIFY_QUBITS`] there is no dense fallback, so compilation
/// never refuses there.
fn plan_support_cap(config: &SimConfig, n_qubits: usize) -> usize {
    if n_qubits <= MAX_DENSIFY_QUBITS {
        let dim = (1u64 << n_qubits) as f64;
        ((config.density_threshold * dim) as usize).max(64)
    } else {
        usize::MAX
    }
}

/// Reusable buffers for repeated circuit execution (see module docs).
///
/// # Examples
///
/// ```
/// use choco_qsim::{Circuit, SimConfig, SimWorkspace};
///
/// let mut ws = SimWorkspace::new(SimConfig::serial());
/// let mut bell = Circuit::new(2);
/// bell.h(0).cx(0, 1);
/// for _ in 0..10 {
///     let state = ws.run(&bell);
///     assert!((state.probability(0b00) - 0.5).abs() < 1e-12);
/// }
/// assert_eq!(ws.reallocations(), 1, "buffer allocated once, reused 9×");
/// ```
///
/// # Unwind safety
///
/// A workspace is **not** [`std::panic::UnwindSafe`]: a panic mid-`run`
/// can leave the engine state, diagonal cache, or sampling table
/// logically inconsistent (never memory-unsafe). Callers that isolate
/// panics with `catch_unwind(AssertUnwindSafe(..))` — the experiment
/// runner's per-cell fault isolation — must **discard the workspace
/// afterwards** and build a fresh one rather than reuse it. The shared [`PlanCache`]
/// is the exception: it recovers from lock poisoning on its own (entries
/// are rebuilt on demand), so sibling workspaces sharing the cache of a
/// panicked worker keep working.
pub struct SimWorkspace {
    config: SimConfig,
    engine: Option<SimEngine>,
    diag_cache: Vec<CachedDiag>,
    /// Compiled gate plans (and fallback markers), keyed by circuit shape
    /// ([`crate::EngineKind::Compact`] only). Shareable: workspaces built
    /// with [`SimWorkspace::with_plan_cache`] compile each shape once
    /// between them.
    plans: Arc<PlanCache>,
    cumulative: Vec<f64>,
    /// Monotone run counter; `cumulative_for` marks which run (if any) the
    /// sampling table was built from.
    run_stamp: u64,
    cumulative_for: u64,
    reallocations: u64,
    /// The K-lane state for batched compact replay
    /// ([`SimWorkspace::run_batch`]), allocated on first use and reused
    /// across iterations.
    batch: Option<CompactStateVector>,
    batch_reallocations: u64,
    /// The shared-prefix state of a forked dense batch
    /// ([`SimWorkspace::run_forked`]), allocated on first use.
    trunk: Option<StateVector>,
    /// Per gate position, the lane whose gate the trunk applies there.
    trunk_src: Vec<usize>,
    /// The forked batch's lanes as `(divergence position, lane)`, sorted.
    fork_order: Vec<(usize, usize)>,
}

impl SimWorkspace {
    /// An empty workspace; buffers are sized on first use.
    pub fn new(config: SimConfig) -> Self {
        Self::with_plan_cache(config, Arc::new(PlanCache::new()))
    }

    /// An empty workspace that shares `plans` with other workspaces: a
    /// circuit shape compiled by any of them serves all of them. This is
    /// how a parallel multi-start scheduler keeps the compile-once
    /// invariant across worker-owned workspaces.
    ///
    /// Share a cache only between workspaces running the **same
    /// `SimConfig`**: cached outcomes are keyed by circuit shape alone,
    /// so the compile-or-fallback decision (which depends on the
    /// config's occupancy threshold) is made by whichever workspace
    /// reaches a shape first and then inherited by every sharer.
    pub fn with_plan_cache(config: SimConfig, plans: Arc<PlanCache>) -> Self {
        SimWorkspace {
            config,
            engine: None,
            diag_cache: Vec::new(),
            plans,
            cumulative: Vec::new(),
            run_stamp: 0,
            cumulative_for: u64::MAX,
            reallocations: 0,
            batch: None,
            batch_reallocations: 0,
            trunk: None,
            trunk_src: Vec::new(),
            fork_order: Vec::new(),
        }
    }

    /// The plan cache this workspace compiles into — pass it to
    /// [`SimWorkspace::with_plan_cache`] to share compiled shapes with
    /// another workspace.
    pub fn plan_cache(&self) -> Arc<PlanCache> {
        self.plans.clone()
    }

    /// Interns `poly` in this workspace's (possibly shared) plan cache —
    /// see [`PlanCache::intern_poly`]. Solvers route every freshly built
    /// cost/penalty polynomial through this so equal-content polynomials
    /// share one `Arc` and compiled plans survive across solves (and, in
    /// `choco-serve`, across requests).
    pub fn intern_poly(&self, poly: PhasePoly) -> Arc<PhasePoly> {
        self.plans.intern_poly(poly)
    }

    /// The execution configuration used for kernels run through this
    /// workspace.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// How many times the engine state was (re)allocated. Stays at 1
    /// across any number of same-width runs — the solvers' zero-alloc
    /// invariant.
    pub fn reallocations(&self) -> u64 {
        self.reallocations
    }

    /// Number of distinct diagonals currently cached (dense engine only;
    /// the compact engine never materializes a `2^n` diagonal).
    pub fn cached_diagonals(&self) -> usize {
        self.diag_cache.len()
    }

    /// Number of circuit shapes with a cached compilation outcome
    /// (compiled plan or remembered fallback; compact engine only).
    /// Counted on the (possibly shared) plan cache.
    pub fn cached_plans(&self) -> usize {
        self.plans.len()
    }

    /// How many plan compilations (successful or refused) have run on
    /// this workspace's (possibly shared) plan cache. Stays at the number
    /// of distinct circuit shapes across any number of iterations,
    /// restarts, and sharing workers — the compile-once invariant of the
    /// compact engine.
    pub fn plan_compilations(&self) -> u64 {
        self.plans.compilations()
    }

    /// Drops the engine state, so the next run allocates afresh. Every
    /// run resolves its representation from the configuration and the
    /// circuit's shape alone; this only releases the buffers. Plan and
    /// diagonal caches survive.
    pub fn reset_engine(&mut self) {
        self.engine = None;
    }

    /// Runs `circuit` from `|0…0⟩` reusing the workspace buffers, and
    /// returns the resulting engine state (borrowed — it stays inside the
    /// workspace for sampling / expectation calls).
    pub fn run(&mut self, circuit: &Circuit) -> &SimEngine {
        self.run_observed(circuit, |_| {})
    }

    /// [`SimWorkspace::run`] that hands the state to `observe` before the
    /// first gate and after every gate — the per-gate view the fig. 9(b)
    /// support profile needs. On the compact engine this steps the one
    /// plan executor a step at a time; slots a gate has not reached yet
    /// hold exact zeros, so per-gate reads equal the dense engine's.
    pub fn run_observed(
        &mut self,
        circuit: &Circuit,
        mut observe: impl FnMut(&SimEngine),
    ) -> &SimEngine {
        self.run_stamp += 1;
        let n = circuit.n_qubits();
        let plan = match self.config.engine {
            EngineKind::Compact => self
                .plans
                .lookup_or_compile(circuit, plan_support_cap(&self.config, n)),
            EngineKind::Dense => None,
        };
        if let Some(plan) = plan {
            let lanes = std::slice::from_ref(circuit);
            self.reset_compact(&plan, lanes);
            observe(self.engine.as_ref().expect("compact engine prepared"));
            for index in 0..plan.len() {
                let Some(SimEngine::Compact(state)) = &mut self.engine else {
                    unreachable!("engine prepared as compact");
                };
                state.apply_step(&plan, index, lanes);
                observe(self.engine.as_ref().expect("compact engine prepared"));
            }
        } else {
            self.dense_slot(n).reset_zero();
            observe(self.engine.as_ref().expect("dense engine prepared"));
            for gate in circuit.iter() {
                let Some(SimEngine::Dense(state)) = &mut self.engine else {
                    unreachable!("engine prepared as dense");
                };
                apply_dense_gate(state, &mut self.diag_cache, gate);
                observe(self.engine.as_ref().expect("dense engine prepared"));
            }
        }
        self.engine.as_ref().expect("engine prepared")
    }

    /// The state left by the last [`SimWorkspace::run`], if any.
    pub fn state(&self) -> Option<&SimEngine> {
        self.engine.as_ref()
    }

    /// Samples from the last run's state, building the cumulative table at
    /// most once per run (repeat calls reuse it).
    ///
    /// # Panics
    ///
    /// Panics if nothing has been run yet.
    pub fn sample<R: Rng>(&mut self, shots: u64, rng: &mut R) -> Counts {
        let engine = self.engine.as_ref().expect("run a circuit before sampling");
        if self.cumulative_for != self.run_stamp {
            engine.fill_cumulative(&mut self.cumulative);
            self.cumulative_for = self.run_stamp;
        }
        engine.sample_with_cumulative(&self.cumulative, shots, rng)
    }

    /// Expectation of a diagonal observable on the last run's state.
    ///
    /// # Panics
    ///
    /// Panics if nothing has been run yet.
    pub fn expectation_diag_values(&self, values: &[f64]) -> f64 {
        self.engine
            .as_ref()
            .expect("run a circuit before measuring")
            .expectation_diag_values(values)
    }

    /// Replays K same-shape circuits in one pass over the cached gate
    /// plan, one lane each (see [`CompactStateVector`]). Returns the
    /// lane-addressable K-lane state, or `None` when batching
    /// does not apply: a non-compact engine selection or a shape that
    /// refused compilation (replay those with
    /// [`SimWorkspace::run_forked`]), an empty batch, or circuits of
    /// differing shapes (replay those with K [`SimWorkspace::run`] calls).
    ///
    /// The serial engine state ([`SimWorkspace::state`], sampling caches)
    /// is untouched — a batched evaluation never disturbs what a
    /// subsequent serial run and `sample` will see.
    ///
    /// Bit-identity contract: lane `i` of the result reads exactly what
    /// `self.run(&circuits[i])` would produce, at any batch size and
    /// thread count.
    pub fn run_batch(&mut self, circuits: &[Circuit]) -> Option<&CompactStateVector> {
        if circuits.is_empty() || self.config.engine != EngineKind::Compact {
            return None;
        }
        let cap = plan_support_cap(&self.config, circuits[0].n_qubits());
        let plan = self.plans.lookup_or_compile(&circuits[0], cap)?;
        if !circuits.iter().all(|c| plan.shape().matches(c)) {
            return None;
        }
        let config = self.config;
        let batch = self
            .batch
            .get_or_insert_with(|| CompactStateVector::new(config));
        if batch.replay(&plan, circuits) {
            self.batch_reallocations += 1;
        }
        Some(&*batch)
    }

    /// Replays K circuits whose shape runs dense — the
    /// [`EngineKind::Dense`] selection, or a shape the compact engine
    /// refused — sharing every gate prefix the lanes have in common.
    ///
    /// The trunk circuit takes, at each gate position, the gate most
    /// lanes agree on; gates count as equal only bitwise (angles by
    /// `to_bits`, diagonal evolutions by `Arc` identity and θ bits). Each
    /// lane diverges from the trunk at its first differing gate. The
    /// returned [`ForkedBatch`] visits the lanes in order of divergence:
    /// one trunk state is advanced once, and at each lane's divergence
    /// point it is copied into the serial engine state, which then runs
    /// the lane's remaining gates. A lane sharing no prefix with the trunk
    /// replays in full from `|0…0⟩`. Memory is one extra `2^n` buffer
    /// (the trunk), whatever K is.
    ///
    /// Returns `None` when the group should not fork: an empty group,
    /// circuits of differing widths, or a shape the compact engine
    /// compiles (replay those with [`SimWorkspace::run_batch`]).
    ///
    /// Bit-identity contract: each lane reads exactly what
    /// `self.run(&circuits[lane])` would produce. The trunk applies the
    /// lane's own gates, bit for bit, up to the divergence point, so every
    /// amplitude sees the same floating-point operations in the same
    /// order. Each visited lane's state is left as the serial engine
    /// state, exactly as a [`SimWorkspace::run`] of that lane leaves it.
    pub fn run_forked<'a>(&'a mut self, circuits: &'a [Circuit]) -> Option<ForkedBatch<'a>> {
        let n = circuits.first()?.n_qubits();
        if circuits.iter().any(|c| c.n_qubits() != n) {
            return None;
        }
        if self.config.engine == EngineKind::Compact
            && self
                .plans
                .lookup_or_compile(&circuits[0], plan_support_cap(&self.config, n))
                .is_some()
        {
            return None;
        }
        let gate = |lane: usize, pos: usize| &circuits[lane].gates()[pos];
        // Majority vote per position (Boyer–Moore): when more than half
        // the lanes agree on a gate — every position of an axis-perturbed
        // simplex — it is the one chosen. Any choice stays exact.
        let len = circuits.iter().map(Circuit::len).max().unwrap_or(0);
        self.trunk_src.clear();
        for pos in 0..len {
            let (mut candidate, mut votes) = (0, 0usize);
            for lane in (0..circuits.len()).filter(|&lane| pos < circuits[lane].len()) {
                if votes == 0 {
                    (candidate, votes) = (lane, 1);
                } else if gate(lane, pos).bit_eq(gate(candidate, pos)) {
                    votes += 1;
                } else {
                    votes -= 1;
                }
            }
            self.trunk_src.push(candidate);
        }
        self.fork_order.clear();
        for (lane, circuit) in circuits.iter().enumerate() {
            let diverge = (0..circuit.len())
                .find(|&pos| !gate(lane, pos).bit_eq(gate(self.trunk_src[pos], pos)))
                .unwrap_or(circuit.len());
            self.fork_order.push((diverge, lane));
        }
        self.fork_order.sort_unstable();
        Some(ForkedBatch {
            ws: self,
            circuits,
            next: 0,
            trunk_at: None,
        })
    }

    /// How many times a batch buffer had to be (re)allocated: the K-lane
    /// compact buffer grown, or the forked batch's trunk state sized.
    /// Stays flat once the workspace has warmed up on a shape/batch size
    /// — the batched analog of [`SimWorkspace::reallocations`]; 0 before
    /// the first batch.
    pub fn batch_reallocations(&self) -> u64 {
        self.batch_reallocations
    }

    /// Points the one-lane compact state at `plan`'s basis and resets it
    /// to `|0…0⟩`, reusing the allocation when the width matches.
    fn reset_compact(&mut self, plan: &GatePlan, lanes: &[Circuit]) {
        let n_qubits = lanes[0].n_qubits();
        let state = match &mut self.engine {
            Some(SimEngine::Compact(c)) if c.n_qubits() == n_qubits => c,
            slot => {
                self.reallocations += 1;
                let fresh = SimEngine::Compact(CompactStateVector::new(self.config));
                let SimEngine::Compact(c) = slot.insert(fresh) else {
                    unreachable!("just inserted a compact engine");
                };
                c
            }
        };
        state.reset(plan, lanes);
    }

    /// The dense engine state, reused when the width matches and
    /// allocated (counting a reallocation) otherwise. Its contents are
    /// whatever the last run left: callers reset or overwrite it.
    fn dense_slot(&mut self, n_qubits: usize) -> &mut StateVector {
        if !matches!(&self.engine, Some(SimEngine::Dense(s)) if s.n_qubits() == n_qubits) {
            self.engine = Some(SimEngine::Dense(StateVector::new_with(
                n_qubits,
                self.config,
            )));
            self.reallocations += 1;
            // Cached diagonals are per-width; drop other widths'.
            let dim = 1usize << n_qubits;
            self.diag_cache.retain(|e| e.values.len() == dim);
        }
        let Some(SimEngine::Dense(state)) = &mut self.engine else {
            unreachable!("engine prepared as dense");
        };
        state
    }
}

/// A forked dense batch in progress (see [`SimWorkspace::run_forked`]):
/// [`ForkedBatch::next_lane`] computes one lane per call, so a caller can
/// stop between lanes (a deadline, a cancellation) and never blocks for
/// more than one lane's work.
pub struct ForkedBatch<'a> {
    ws: &'a mut SimWorkspace,
    circuits: &'a [Circuit],
    /// Position in the workspace's sorted lane order.
    next: usize,
    /// Gates the trunk has applied in this batch (`None` until the first
    /// lane that forks off it).
    trunk_at: Option<usize>,
}

impl ForkedBatch<'_> {
    /// Runs the next lane in divergence order and returns its index into
    /// the circuits and its final state (the workspace's serial engine
    /// state), or `None` once every lane has been visited.
    pub fn next_lane(&mut self) -> Option<(usize, &SimEngine)> {
        let ws = &mut *self.ws;
        let &(diverge, lane) = ws.fork_order.get(self.next)?;
        self.next += 1;
        ws.run_stamp += 1;
        let circuit = &self.circuits[lane];
        let n = circuit.n_qubits();
        if diverge == 0 {
            ws.dense_slot(n).reset_zero();
        } else {
            let mut trunk = ws
                .trunk
                .take()
                .filter(|t| t.n_qubits() == n)
                .unwrap_or_else(|| {
                    ws.batch_reallocations += 1;
                    StateVector::new_with(n, ws.config)
                });
            if self.trunk_at.is_none() {
                trunk.reset_zero();
            }
            for pos in self.trunk_at.unwrap_or(0)..diverge {
                let gate = &self.circuits[ws.trunk_src[pos]].gates()[pos];
                apply_dense_gate(&mut trunk, &mut ws.diag_cache, gate);
            }
            self.trunk_at = Some(diverge);
            ws.dense_slot(n).copy_from(&trunk);
            ws.trunk = Some(trunk);
        }
        let Some(SimEngine::Dense(state)) = &mut ws.engine else {
            unreachable!("engine prepared as dense");
        };
        for gate in &circuit.gates()[diverge..] {
            apply_dense_gate(state, &mut ws.diag_cache, gate);
        }
        Some((lane, ws.engine.as_ref().expect("engine prepared")))
    }
}

/// Applies one gate on the dense engine, routing diagonal evolutions
/// through the per-`Arc` diagonal cache.
fn apply_dense_gate(state: &mut StateVector, diag_cache: &mut Vec<CachedDiag>, gate: &Gate) {
    match gate {
        Gate::DiagPhase(poly, theta) => apply_cached_diag(state, diag_cache, poly, *theta),
        g => state.apply_gate(g),
    }
}

/// Applies a diagonal evolution on the dense engine using (and
/// populating) the per-`Arc` diagonal cache.
fn apply_cached_diag(
    state: &mut StateVector,
    diag_cache: &mut Vec<CachedDiag>,
    poly: &Arc<PhasePoly>,
    theta: f64,
) {
    let dim = 1usize << state.n_qubits();
    let hit = diag_cache.iter().position(|entry| {
        entry.values.len() == dim
            && entry
                .poly
                .upgrade()
                .is_some_and(|live| Arc::ptr_eq(&live, poly))
    });
    let idx = match hit {
        Some(idx) => idx,
        None => {
            // Drop entries whose polynomial is gone: they can never
            // match again, and each holds a 2^n-element Vec — a
            // long-lived workspace would otherwise grow per solve.
            diag_cache.retain(|e| e.poly.strong_count() > 0);
            diag_cache.push(CachedDiag::new(poly, dim));
            diag_cache.len() - 1
        }
    };
    diag_cache[idx].apply(state, theta);
}
#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn dense() -> SimConfig {
        SimConfig::serial().with_engine(EngineKind::Dense)
    }

    fn layer_circuit(n: usize, poly: &Arc<PhasePoly>, theta: f64) -> Circuit {
        let mut c = Circuit::new(n);
        for q in 0..n {
            c.h(q);
        }
        c.diag(poly.clone(), theta);
        c.cx(0, 1);
        c
    }

    fn test_poly(n: usize) -> Arc<PhasePoly> {
        let mut poly = PhasePoly::new(n);
        for i in 0..n {
            poly.add_linear(i, 0.2 * (i + 1) as f64);
        }
        poly.add_quadratic(0, n - 1, -0.4);
        Arc::new(poly)
    }

    #[test]
    fn run_matches_bare_statevector() {
        let poly = test_poly(4);
        let mut ws = SimWorkspace::new(SimConfig::serial());
        for theta in [0.2, 0.9, 1.7] {
            let circuit = layer_circuit(4, &poly, theta);
            let expected = StateVector::run(&circuit);
            let got = ws.run(&circuit);
            assert!(
                (got.fidelity_against_dense(&expected) - 1.0).abs() < 1e-12,
                "theta={theta}"
            );
        }
    }

    #[test]
    fn amplitude_buffer_allocated_once_across_iterations() {
        let poly = test_poly(5);
        let mut ws = SimWorkspace::new(dense());
        for i in 0..50 {
            let circuit = layer_circuit(5, &poly, 0.1 * i as f64);
            ws.run(&circuit);
        }
        assert_eq!(ws.reallocations(), 1);
        assert_eq!(ws.cached_diagonals(), 1, "shared poly expanded once");
    }

    #[test]
    fn width_change_reallocates_and_clears_diag_cache() {
        let p4 = test_poly(4);
        let p6 = test_poly(6);
        let mut ws = SimWorkspace::new(dense());
        ws.run(&layer_circuit(4, &p4, 0.3));
        ws.run(&layer_circuit(6, &p6, 0.3));
        assert_eq!(ws.reallocations(), 2);
        ws.run(&layer_circuit(6, &p6, 0.7));
        assert_eq!(ws.reallocations(), 2, "same width reuses the buffer");
    }

    #[test]
    fn distinct_polys_cache_separately() {
        let a = test_poly(4);
        let b = test_poly(4);
        let mut ws = SimWorkspace::new(dense());
        let mut c = Circuit::new(4);
        c.diag(a.clone(), 0.5)
            .diag(b.clone(), 0.25)
            .diag(a.clone(), 0.1);
        ws.run(&c);
        assert_eq!(ws.cached_diagonals(), 2);
        // Equivalence against the uncached engine.
        let expected = StateVector::run(&c);
        assert!((ws.state().unwrap().fidelity_against_dense(&expected) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sampling_reuses_the_cumulative_table_per_run() {
        let poly = test_poly(4);
        let circuit = layer_circuit(4, &poly, 0.8);
        let mut ws = SimWorkspace::new(SimConfig::serial());
        ws.run(&circuit);
        let mut rng = StdRng::seed_from_u64(9);
        let a = ws.sample(2_000, &mut rng);
        let table_ptr = ws.cumulative.as_ptr();
        let b = ws.sample(2_000, &mut rng);
        assert_eq!(ws.cumulative.as_ptr(), table_ptr, "table not rebuilt");
        assert_eq!(a.shots() + b.shots(), 4_000);
        // A fresh run invalidates the table.
        ws.run(&circuit);
        let stamp = ws.run_stamp;
        ws.sample(100, &mut rng);
        assert_eq!(ws.cumulative_for, stamp);
    }

    #[test]
    fn workspace_sampling_matches_direct_sampling() {
        let poly = test_poly(4);
        let circuit = layer_circuit(4, &poly, 0.8);
        let mut ws = SimWorkspace::new(SimConfig::serial());
        ws.run(&circuit);
        let direct = {
            let mut rng = StdRng::seed_from_u64(33);
            StateVector::run(&circuit).sample(3_000, &mut rng)
        };
        let mut rng = StdRng::seed_from_u64(33);
        let cached = ws.sample(3_000, &mut rng);
        assert_eq!(direct, cached);
    }

    #[test]
    fn compact_workspace_compiles_once_and_matches_dense_bitwise() {
        let poly = test_poly(4);
        let confined = |theta: f64| {
            let mut c = Circuit::new(4);
            c.load_bits(0b0110);
            c.diag(poly.clone(), theta);
            c.ublock(crate::gate::UBlock::from_u_with_angle(&[1, -1, 1, -1], 0.5));
            c.ublock(crate::gate::UBlock::from_u_with_angle(
                &[0, 1, -1, 1],
                theta,
            ));
            c
        };
        let mut compact_ws = SimWorkspace::new(SimConfig::serial());
        let mut dense_ws = SimWorkspace::new(dense());
        for (i, theta) in [0.3, 1.1, -0.7, 0.0, 2.2].into_iter().enumerate() {
            let c = confined(theta);
            let dense_amps: Vec<_> = {
                let e = dense_ws.run(&c);
                (0..16u64).map(|b| e.amplitude(b)).collect()
            };
            let state = compact_ws.run(&c);
            assert!(state.is_compact(), "iteration {i} lost the compact path");
            for (bits, d) in dense_amps.iter().enumerate() {
                let a = state.amplitude(bits as u64);
                assert!(
                    a.re == d.re && a.im == d.im,
                    "theta={theta} bits={bits}: {a} vs {d}"
                );
            }
        }
        assert_eq!(compact_ws.cached_plans(), 1, "one shape, one plan");
        assert_eq!(compact_ws.plan_compilations(), 1, "compiled exactly once");
        assert_eq!(compact_ws.reallocations(), 1, "iterations reuse the array");
        assert_eq!(
            compact_ws.cached_diagonals(),
            0,
            "the compact path bakes diagonals into the plan"
        );
    }

    #[test]
    fn compact_workspace_sampling_matches_dense_stream() {
        let mut c = Circuit::new(4);
        c.load_bits(0b0011);
        c.ublock(crate::gate::UBlock::from_u_with_angle(&[1, -1, 1, 0], 0.8));
        let mut compact_ws = SimWorkspace::new(SimConfig::serial());
        let mut dense_ws = SimWorkspace::new(dense());
        assert!(compact_ws.run(&c).is_compact());
        dense_ws.run(&c);
        let mut ra = StdRng::seed_from_u64(21);
        let mut rb = StdRng::seed_from_u64(21);
        assert_eq!(
            compact_ws.sample(4_000, &mut ra),
            dense_ws.sample(4_000, &mut rb)
        );
    }

    #[test]
    fn compact_workspace_falls_back_cleanly_on_dense_shapes() {
        // A register-filling mixer: compilation refuses the shape, the
        // run goes straight to the dense engine, and the refusal is
        // remembered (no recompile attempts).
        let mut mixer = Circuit::new(10);
        for q in 0..10 {
            mixer.h(q);
        }
        let mut ws = SimWorkspace::new(SimConfig::serial());
        for _ in 0..3 {
            let state = ws.run(&mixer);
            assert!(state.as_dense().is_some(), "dense shape runs dense");
            let expected = StateVector::run(&mixer);
            assert!((state.fidelity_against_dense(&expected) - 1.0).abs() < 1e-12);
        }
        assert_eq!(ws.cached_plans(), 1, "fallback shape cached");
        assert_eq!(ws.plan_compilations(), 1, "refusal remembered");
        // A confined shape afterwards still gets the compact fast path.
        let mut confined = Circuit::new(10);
        confined.load_bits(0b101);
        let u: Vec<i8> = (0..10).map(|i| if i % 2 == 0 { 1 } else { -1 }).collect();
        confined.ublock(crate::gate::UBlock::from_u_with_angle(&u, 0.4));
        assert!(ws.run(&confined).is_compact());
        assert_eq!(ws.cached_plans(), 2);
    }

    #[test]
    fn compact_plan_cache_holds_multiple_shapes_without_reallocating() {
        // Alternating Δ policies (two circuit shapes over one register)
        // must each keep their compiled plan and share the amplitude
        // allocation.
        let poly = test_poly(4);
        let shape_a = |theta: f64| {
            let mut c = Circuit::new(4);
            c.load_bits(0b0011);
            c.diag(poly.clone(), theta);
            c.ublock(crate::gate::UBlock::from_u_with_angle(&[1, -1, 0, 0], 0.5));
            c
        };
        let shape_b = |theta: f64| {
            let mut c = Circuit::new(4);
            c.load_bits(0b0011);
            c.diag(poly.clone(), theta);
            c.ublock(crate::gate::UBlock::from_u_with_angle(&[1, -1, 0, 0], 0.5));
            c.ublock(crate::gate::UBlock::from_u_with_angle(&[0, 0, 1, -1], 0.2));
            c
        };
        let mut ws = SimWorkspace::new(SimConfig::serial());
        for i in 0..6 {
            let theta = 0.1 * i as f64;
            assert!(ws.run(&shape_a(theta)).is_compact());
            assert!(ws.run(&shape_b(theta)).is_compact());
        }
        assert_eq!(ws.cached_plans(), 2);
        assert_eq!(ws.plan_compilations(), 2, "one compile per shape");
        assert_eq!(ws.reallocations(), 1, "shapes share the amplitude array");
    }

    #[test]
    fn compact_plan_cache_promotes_hits_over_fifo_eviction() {
        // Fill the cache to capacity, touch the oldest shape, then force
        // one eviction: the promoted shape must survive (LRU), so
        // re-running it is a cache hit, not a recompile.
        let shape = |k: usize, theta: f64| {
            let mut c = Circuit::new(4);
            c.load_bits(0b0001);
            for _ in 0..k + 1 {
                c.ublock(crate::gate::UBlock::from_u_with_angle(
                    &[1, -1, 0, 0],
                    theta,
                ));
            }
            c
        };
        let mut ws = SimWorkspace::new(SimConfig::serial());
        for k in 0..8 {
            ws.run(&shape(k, 0.3));
        }
        assert_eq!(ws.plan_compilations(), 8);
        ws.run(&shape(0, 0.7)); // hit on the oldest shape → promoted
        assert_eq!(ws.plan_compilations(), 8, "hit must not recompile");
        ws.run(&shape(8, 0.3)); // ninth shape → one eviction
        assert_eq!(ws.plan_compilations(), 9);
        assert_eq!(ws.cached_plans(), 8, "cache stays at capacity");
        ws.run(&shape(0, 1.1)); // the promoted shape must still be cached
        assert_eq!(
            ws.plan_compilations(),
            9,
            "promoted shape was evicted: cache is FIFO, not LRU"
        );
    }

    #[test]
    fn shared_plan_cache_compiles_each_shape_once_across_workspaces() {
        // The parallel multi-start contract: worker-owned workspaces
        // sharing one PlanCache must compile a shape exactly once between
        // them, and every worker's replay must be bit-identical to a
        // private-cache run.
        let poly = test_poly(4);
        let confined = |theta: f64| {
            let mut c = Circuit::new(4);
            c.load_bits(0b0110);
            c.diag(poly.clone(), theta);
            c.ublock(crate::gate::UBlock::from_u_with_angle(&[1, -1, 1, -1], 0.5));
            c
        };
        let config = SimConfig::serial();
        let mut reference = SimWorkspace::new(config);
        let expected: Vec<_> = {
            let e = reference.run(&confined(0.8));
            (0..16u64).map(|b| e.amplitude(b)).collect()
        };

        let shared = Arc::new(PlanCache::new());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let shared = shared.clone();
                let expected = &expected;
                let confined = &confined;
                scope.spawn(move || {
                    let mut ws = SimWorkspace::with_plan_cache(config, shared);
                    for _ in 0..8 {
                        let state = ws.run(&confined(0.8));
                        assert!(state.is_compact());
                        for (bits, want) in expected.iter().enumerate() {
                            let got = state.amplitude(bits as u64);
                            assert!(got.re == want.re && got.im == want.im);
                        }
                    }
                });
            }
        });
        assert_eq!(shared.compilations(), 1, "one compile serves all workers");
        assert_eq!(shared.len(), 1);
        // A workspace joining afterwards hits the shared plan too.
        let mut late = SimWorkspace::with_plan_cache(config, shared.clone());
        late.run(&confined(1.3));
        assert_eq!(late.plan_compilations(), 1, "late joiner reuses the plan");
        assert_eq!(shared.compilations(), 1);
    }

    fn confined_4q(poly: &Arc<PhasePoly>, theta: f64) -> Circuit {
        let mut c = Circuit::new(4);
        c.load_bits(0b0110);
        c.diag(poly.clone(), theta);
        c.ublock(crate::gate::UBlock::from_u_with_angle(&[1, -1, 1, -1], 0.5));
        c.ublock(crate::gate::UBlock::from_u_with_angle(
            &[0, 1, -1, 1],
            theta,
        ));
        c
    }

    #[test]
    fn run_batch_lanes_match_serial_runs_bitwise() {
        let poly = test_poly(4);
        let thetas = [0.3, 1.1, -0.7, 0.0, 2.2];
        let circuits: Vec<Circuit> = thetas.iter().map(|&t| confined_4q(&poly, t)).collect();
        let config = SimConfig::serial();
        let mut batch_ws = SimWorkspace::new(config);
        let mut serial_ws = SimWorkspace::new(config);
        let batch = batch_ws.run_batch(&circuits).expect("compact batch runs");
        assert_eq!(batch.lanes(), circuits.len());
        let table: Vec<f64> = (0..16u64).map(|b| poly.eval_bits(b)).collect();
        for (lane, circuit) in circuits.iter().enumerate() {
            let state = serial_ws.run(circuit);
            assert!(state.is_compact());
            for bits in 0..16u64 {
                let (a, b) = (batch.amplitude(lane, bits), state.amplitude(bits));
                assert!(
                    a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits(),
                    "lane={lane} bits={bits}: {a} vs {b}"
                );
            }
            assert_eq!(
                batch.expectation_diag_values(lane, &table),
                serial_ws.expectation_diag_values(&table),
                "lane={lane} expectation"
            );
            let mut ra = StdRng::seed_from_u64(19);
            let mut rb = StdRng::seed_from_u64(19);
            assert_eq!(
                batch.sample(lane, 2_000, &mut ra),
                serial_ws.sample(2_000, &mut rb),
                "lane={lane} histogram"
            );
        }
        // The batch and the serial runs share one plan per workspace; the
        // batched path keeps the compile-once invariant.
        assert_eq!(batch_ws.plan_compilations(), 1);
        assert_eq!(serial_ws.plan_compilations(), 1);
    }

    #[test]
    fn run_batch_declines_when_batching_does_not_apply() {
        let poly = test_poly(4);
        let circuits = vec![confined_4q(&poly, 0.3), confined_4q(&poly, 0.9)];
        // Non-compact engine selection.
        let mut dense_ws = SimWorkspace::new(dense());
        assert!(dense_ws.run_batch(&circuits).is_none());
        // Empty batch.
        let config = SimConfig::serial();
        let mut ws = SimWorkspace::new(config);
        assert!(ws.run_batch(&[]).is_none());
        // Mixed shapes.
        let mut longer = confined_4q(&poly, 0.3);
        longer.x(0);
        let mixed = vec![confined_4q(&poly, 0.3), longer];
        assert!(ws.run_batch(&mixed).is_none());
        // Fallback shape (refuses compilation).
        let mut mixer = Circuit::new(10);
        for q in 0..10 {
            mixer.h(q);
        }
        assert!(ws.run_batch(&[mixer.clone(), mixer]).is_none());
        // A well-formed batch afterwards still works.
        assert!(ws.run_batch(&circuits).is_some());
    }

    #[test]
    fn batched_iterations_are_zero_alloc_after_warmup() {
        let poly = test_poly(4);
        let config = SimConfig::serial();
        let mut ws = SimWorkspace::new(config);
        assert_eq!(ws.batch_reallocations(), 0);
        for i in 0..20 {
            let circuits: Vec<Circuit> = (0..4)
                .map(|k| confined_4q(&poly, 0.05 * (i * 4 + k) as f64))
                .collect();
            ws.run_batch(&circuits).expect("compact batch runs");
        }
        assert_eq!(ws.batch_reallocations(), 1, "SoA buffer allocated once");
        // A narrower batch fits the existing capacity; a wider one grows.
        let narrow: Vec<Circuit> = (0..2).map(|k| confined_4q(&poly, 0.1 * k as f64)).collect();
        ws.run_batch(&narrow).unwrap();
        assert_eq!(ws.batch_reallocations(), 1);
        let wide: Vec<Circuit> = (0..16)
            .map(|k| confined_4q(&poly, 0.1 * k as f64))
            .collect();
        ws.run_batch(&wide).unwrap();
        assert_eq!(ws.batch_reallocations(), 2);
        // The serial engine state was never touched by batched runs.
        assert!(ws.state().is_none());
        assert_eq!(ws.reallocations(), 0);
    }

    #[test]
    fn shared_plan_cache_compiles_once_across_workers_and_batches() {
        // The PR-5 compile-once invariant extended over the batched path:
        // worker-owned workspaces sharing one PlanCache, each mixing
        // serial runs and batched replays of the same shape, still compile
        // it exactly once between them.
        let poly = test_poly(4);
        let config = SimConfig::serial();
        let shared = Arc::new(PlanCache::new());
        std::thread::scope(|scope| {
            for w in 0..4 {
                let shared = shared.clone();
                let poly = poly.clone();
                scope.spawn(move || {
                    let mut ws = SimWorkspace::with_plan_cache(config, shared);
                    for i in 0..4 {
                        let circuits: Vec<Circuit> = (0..3)
                            .map(|k| confined_4q(&poly, 0.1 * (w * 16 + i * 3 + k) as f64))
                            .collect();
                        let batch = ws.run_batch(&circuits).expect("compact batch runs");
                        let want: Vec<_> = (0..16u64).map(|b| batch.amplitude(0, b)).collect();
                        let state = ws.run(&circuits[0]);
                        for (bits, w) in want.iter().enumerate() {
                            let got = state.amplitude(bits as u64);
                            assert!(got.re == w.re && got.im == w.im);
                        }
                    }
                });
            }
        });
        assert_eq!(
            shared.compilations(),
            1,
            "one compile across workers × batches"
        );
        assert_eq!(shared.len(), 1);
    }

    fn mixer(n: usize) -> Circuit {
        let mut c = Circuit::new(n);
        for q in 0..n {
            c.h(q);
        }
        c
    }

    #[test]
    fn reset_engine_redoes_representation_resolution() {
        // Each run resolves its representation from the shape alone: a
        // refused shape runs dense, the next confined one compact again.
        let mut ws = SimWorkspace::new(SimConfig::serial());
        assert!(ws.run(&mixer(10)).as_dense().is_some());
        let mut confined = Circuit::new(10);
        confined.load_bits(0b0101);
        assert!(ws.run(&confined).is_compact());
        // A reset only drops the buffers.
        ws.reset_engine();
        assert!(ws.state().is_none());
        assert!(ws.run(&confined).is_compact());
        assert_eq!(ws.reallocations(), 3);
    }

    #[test]
    fn observed_runs_match_dense_gate_by_gate() {
        // The per-gate view (fig. 9(b)) on the compact path and on a
        // refused shape equals the dense engine's after every gate.
        let poly = test_poly(4);
        for circuit in [confined_4q(&poly, 0.6), mixer(10)] {
            let mut per_gate = Vec::new();
            let mut ws = SimWorkspace::new(SimConfig::serial());
            let last = ws
                .run_observed(&circuit, |state| {
                    let amps: Vec<_> = (0..1u64 << state.n_qubits())
                        .map(|b| state.amplitude(b))
                        .collect();
                    per_gate.push(amps);
                })
                .clone();
            assert_eq!(per_gate.len(), circuit.len() + 1);
            let mut reference = StateVector::new(circuit.n_qubits());
            for (step, amps) in per_gate.iter().enumerate() {
                if step > 0 {
                    reference.apply_gate(&circuit.gates()[step - 1]);
                }
                for (bits, a) in amps.iter().enumerate() {
                    let d = reference.amplitude(bits as u64);
                    assert!(a.re == d.re && a.im == d.im, "step={step} bits={bits}");
                }
            }
            // The observed run leaves the same state a plain run does.
            let plain = ws.run(&circuit);
            assert_eq!(plain.is_compact(), last.is_compact());
            for bits in 0..1u64 << circuit.n_qubits() {
                assert_eq!(plain.amplitude(bits), last.amplitude(bits));
            }
        }
    }

    /// A dense circuit with a shared diagonal: every parameter feeds one
    /// gate, so a lane with `params[i]` perturbed diverges there.
    fn dense_layer(n: usize, poly: &Arc<PhasePoly>, params: &[f64]) -> Circuit {
        let mut c = Circuit::new(n);
        for q in 0..n {
            c.h(q);
        }
        c.diag(poly.clone(), params[0]);
        for q in 0..n {
            c.ry(q, params[1 + q]);
        }
        c.cz(0, 1);
        c
    }

    #[test]
    fn run_forked_declines_compact_shapes_mixed_widths_and_empty_groups() {
        let poly = test_poly(4);
        let mut ws = SimWorkspace::new(SimConfig::serial());
        let confined = vec![confined_4q(&poly, 0.3), confined_4q(&poly, 0.9)];
        assert!(ws.run_forked(&confined).is_none(), "compact shape");
        assert!(ws.run_forked(&[]).is_none(), "empty group");
        assert!(
            ws.run_forked(&[mixer(10), mixer(11)]).is_none(),
            "mixed widths"
        );
        // A shape compact refuses forks; on the dense engine every shape does.
        assert!(ws.run_forked(&[mixer(10), mixer(10)]).is_some());
        assert!(SimWorkspace::new(dense()).run_forked(&confined).is_some());
    }

    #[test]
    fn warm_forked_batches_reuse_one_trunk_buffer() {
        let poly = test_poly(5);
        let mut ws = SimWorkspace::new(dense());
        for round in 0..5 {
            let circuits: Vec<Circuit> = (0..6)
                .map(|i| {
                    let mut x = vec![0.1 * round as f64; 6];
                    x[i] += 0.5;
                    dense_layer(5, &poly, &x)
                })
                .collect();
            let mut forked = ws.run_forked(&circuits).unwrap();
            while forked.next_lane().is_some() {}
        }
        assert_eq!(ws.batch_reallocations(), 1, "trunk allocated once");
        assert_eq!(ws.reallocations(), 1, "fork state allocated once");
        assert_eq!(ws.cached_diagonals(), 1);
    }

    #[test]
    fn indexed_diagonal_matches_the_uncached_engine_bitwise() {
        // Few distinct values (the cis-per-distinct-value path, zeros
        // skipped) and many (the per-amplitude path): both bit-identical
        // to the bare engine's per-amplitude `cis`.
        let mut few = PhasePoly::new(6);
        for i in 0..6 {
            few.add_linear(i, 1.0);
        }
        let mut many = PhasePoly::new(6);
        for i in 0..6 {
            many.add_linear(i, 0.37 * (1u64 << i) as f64);
        }
        for (poly, indexed) in [(few, true), (many, false)] {
            let poly = Arc::new(poly);
            let mut ws = SimWorkspace::new(dense());
            for theta in [0.3, -1.7, 0.0, -0.0] {
                let mut c = mixer(6);
                c.diag(poly.clone(), theta)
                    .ry(0, 0.4)
                    .diag(poly.clone(), 2.0 * theta);
                let want = StateVector::run_with(&c, SimConfig::serial());
                let got = ws.run(&c).as_dense().unwrap().clone();
                for (a, b) in got.amplitudes().iter().zip(want.amplitudes()) {
                    assert!(a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits());
                }
            }
            assert_eq!(!ws.diag_cache[0].index.is_empty(), indexed);
        }
    }

    /// The cross-request reuse scenario behind `choco-serve`: two "solves"
    /// each rebuild an equal-content polynomial from scratch. Without
    /// interning the second shape can never match (shapes hold their poly
    /// by `Arc` pointer); with interning the second solve replays the
    /// compiled plan — zero new compilations, observable via `stats()`.
    #[test]
    fn interning_keeps_plans_replayable_across_rebuilt_polys() {
        let cache = Arc::new(PlanCache::new());
        let config = SimConfig::serial();
        let solve = |cache: &Arc<PlanCache>| {
            // A fresh workspace per solve, like a fresh request; only the
            // plan cache is shared.
            let mut ws = SimWorkspace::with_plan_cache(config, cache.clone());
            let rebuilt = PhasePoly::clone(&test_poly(4));
            let poly = ws.intern_poly(rebuilt);
            let mut c = Circuit::new(4);
            c.load_bits(0b0011);
            c.diag(poly, 0.8);
            c.ublock(crate::gate::UBlock::from_u_with_angle(&[1, -1, 1, 0], 0.8));
            assert!(ws.run(&c).is_compact());
        };
        solve(&cache);
        let cold = cache.stats();
        assert_eq!(cold.compilations, 1);
        solve(&cache);
        let warm = cache.stats();
        assert_eq!(warm.compilations, 1, "second solve must not recompile");
        assert!(warm.hits > cold.hits, "second solve hits the cached plan");
        assert_eq!(warm.shapes, 1);
        // Interning is content-keyed: equal polynomials share one Arc.
        let a = cache.intern_poly(PhasePoly::clone(&test_poly(4)));
        let b = cache.intern_poly(PhasePoly::clone(&test_poly(4)));
        assert!(Arc::ptr_eq(&a, &b));
    }
}
