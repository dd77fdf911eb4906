//! Low-level amplitude-update kernels: strided subspace enumeration and
//! multi-threaded execution.
//!
//! Every structured gate of the IR touches only a *subspace* of the `2^n`
//! basis states — the indices whose bits under a `fixed_mask` equal a
//! `fixed_value`. The kernels here enumerate exactly those `2^(n-k)`
//! indices (instead of scanning all `2^n` and filtering, as the retained
//! [`crate::oracle`] reference does) as **contiguous runs**: every bit
//! below the lowest fixed bit is free, so the subspace is a sequence of
//! aligned runs of `2^low` consecutive indices. Each run is a plain slice
//! loop; the step from one run to the next is a carry-propagation
//! increment over the free bits above `low`:
//!
//! ```text
//! next = ((current | fixed_ext | low_mask) + 1) & !fixed_ext
//! ```
//!
//! where `fixed_ext` extends the fixed mask with all bits above the state
//! dimension so the carry wraps cleanly. Chunk starts for worker threads
//! are seeded with a bit-scatter ([`expand_index`]).
//!
//! Threading uses `std::thread::scope` — no external dependencies — and
//! kicks in only above a configurable subspace-size threshold so small
//! states stay serial. Safety for the raw-pointer fan-out rests on a
//! disjointness argument documented on [`pair_map`] / [`subspace_map`].

use crate::simconfig::SimConfig;
use choco_mathkit::Complex64;

/// Scatters the low bits of `m` into the zero-bit positions of
/// `fixed_mask`: the `m`-th index (in increasing order) whose fixed bits
/// are all zero.
#[inline]
pub(crate) fn expand_index(m: u64, fixed_mask: u64) -> u64 {
    let mut out = 0u64;
    let mut remaining = m;
    let mut pos = 0u32;
    while remaining != 0 {
        if (fixed_mask >> pos) & 1 == 0 {
            out |= (remaining & 1) << pos;
            remaining >>= 1;
        }
        pos += 1;
        debug_assert!(pos < 64, "expand_index ran out of free bits");
    }
    out
}

/// Serial enumeration of the subspace indices whose ranks (positions in
/// increasing index order) lie in `ranks`, as contiguous runs: calls
/// `f(first_index, len)` once per run, with the fixed value OR-ed in.
/// Runs are aligned blocks of `2^low` indices, `low` being the lowest
/// fixed bit, cut at the ends of `ranks`.
#[inline]
fn for_each_run<F: FnMut(usize, usize)>(
    ranks: std::ops::Range<usize>,
    fixed_ext: u64,
    fixed_value: u64,
    mut f: F,
) {
    let run = 1usize << fixed_ext.trailing_zeros();
    let low_mask = run as u64 - 1;
    let mut rank = ranks.start;
    let mut free = expand_index(rank as u64, fixed_ext);
    while rank < ranks.end {
        let len = (run - (rank & (run - 1))).min(ranks.end - rank);
        f((free | fixed_value) as usize, len);
        rank += len;
        free = (free | fixed_ext | low_mask).wrapping_add(1) & !fixed_ext;
    }
}

/// Raw amplitude-buffer handle shared across scoped worker threads.
///
/// # Safety
///
/// Each worker must touch a set of indices disjoint from every other
/// worker's. The kernels below guarantee that by partitioning the free-bit
/// pattern range: distinct free patterns map to distinct indices
/// (the fixed bits are identical across the subspace), and the pair
/// kernels additionally require the partner index to leave the subspace
/// (see [`pair_map`]).
pub(crate) struct AmpPtr(pub(crate) *mut Complex64);

unsafe impl Send for AmpPtr {}
unsafe impl Sync for AmpPtr {}

impl AmpPtr {
    /// Accessor that keeps closures capturing the `Sync` wrapper rather
    /// than the raw pointer field (edition-2021 disjoint capture).
    pub(crate) fn get(&self) -> *mut Complex64 {
        self.0
    }
}

/// Splits `count` work items across the configured workers and runs
/// `work(range)` on each, serially when below the parallel threshold.
/// Shared by the strided kernels here and the compact engine's plan
/// replay ([`crate::plan`]).
pub(crate) fn dispatch<W>(config: &SimConfig, count: usize, work: W)
where
    W: Fn(std::ops::Range<usize>) + Sync,
{
    let threads = config.effective_threads(count);
    if threads <= 1 {
        work(0..count);
        return;
    }
    let chunk = count.div_ceil(threads);
    std::thread::scope(|scope| {
        for t in 0..threads {
            let lo = t * chunk;
            let hi = (lo + chunk).min(count);
            if lo >= hi {
                break;
            }
            let work = &work;
            scope.spawn(move || work(lo..hi));
        }
    });
}

fn check_subspace(dim: usize, fixed_mask: u64, fixed_value: u64) -> (usize, u64) {
    // Hard asserts, not debug: the callers write through raw pointers, so
    // an out-of-register mask in a release build would be silent UB
    // instead of a panic. Cost is once per gate, not per index.
    assert!(dim.is_power_of_two(), "dimension must be a power of two");
    let index_mask = (dim - 1) as u64;
    assert_eq!(
        fixed_mask & !index_mask,
        0,
        "fixed mask outside the register"
    );
    assert_eq!(fixed_value & !fixed_mask, 0, "value outside fixed mask");
    let count = dim >> fixed_mask.count_ones();
    // Extend the fixed mask with every bit above the register so the
    // carry-increment wraps to zero at the end of the subspace.
    let fixed_ext = fixed_mask | !index_mask;
    (count, fixed_ext)
}

/// Applies `op` to the amplitude of every index matching
/// `index & fixed_mask == fixed_value`.
///
/// Disjointness (threading safety): every enumerated index has the same
/// fixed bits, so distinct free patterns give distinct indices, and the
/// free-pattern range is partitioned across workers.
pub(crate) fn subspace_map<Op>(
    amps: &mut [Complex64],
    config: &SimConfig,
    fixed_mask: u64,
    fixed_value: u64,
    op: Op,
) where
    Op: Fn(Complex64) -> Complex64 + Sync,
{
    let (count, fixed_ext) = check_subspace(amps.len(), fixed_mask, fixed_value);
    let ptr = AmpPtr(amps.as_mut_ptr());
    dispatch(config, count, |range| {
        let base = ptr.get();
        for_each_run(range, fixed_ext, fixed_value, |start, len| {
            // SAFETY: the run lies below `dim` by construction and each
            // worker's index set is disjoint (see `AmpPtr`).
            let run = unsafe { std::slice::from_raw_parts_mut(base.add(start), len) };
            for a in run {
                *a = op(*a);
            }
        });
    });
}

/// Hands `$run` the pair operation of `$kernel` as a closure whose
/// variant is a compile-time constant, so the kernels branch on the gate
/// kind once per gate instead of once per pair.
macro_rules! with_pair_op {
    ($kernel:expr, |$op:ident| $run:expr) => {
        match $kernel {
            PairKernel::Swap => {
                let $op = move |a, b| PairKernel::Swap.apply(a, b);
                $run
            }
            PairKernel::Rot { sin, cos } => {
                let $op = move |a, b| PairKernel::Rot { sin, cos }.apply(a, b);
                $run
            }
            PairKernel::Diag { d0, d1 } => {
                let $op = move |a, b| PairKernel::Diag { d0, d1 }.apply(a, b);
                $run
            }
            PairKernel::AntiDiag { m01, m10 } => {
                let $op = move |a, b| PairKernel::AntiDiag { m01, m10 }.apply(a, b);
                $run
            }
            PairKernel::Real { r00, r01, r10, r11 } => {
                let $op = move |a, b| PairKernel::Real { r00, r01, r10, r11 }.apply(a, b);
                $run
            }
            PairKernel::Full { m } => {
                let $op = move |a, b| PairKernel::Full { m }.apply(a, b);
                $run
            }
        }
    };
}

/// Applies `kernel` to every amplitude pair `(i, j)` where
/// `i & fixed_mask == fixed_value` and `j = i ^ partner_xor`.
///
/// Disjointness (threading safety): `partner_xor` must be a non-empty
/// subset of `fixed_mask`, so `j`'s fixed bits differ from `fixed_value` —
/// no `j` ever collides with another pair's `i`, and distinct free
/// patterns keep distinct `(i, j)` pairs. Because the partner bits are
/// fixed bits, they all lie at or above the lowest fixed bit, so a run of
/// sources maps onto a run of partners and both sides are plain slices.
pub(crate) fn pair_map(
    amps: &mut [Complex64],
    config: &SimConfig,
    fixed_mask: u64,
    fixed_value: u64,
    partner_xor: u64,
    kernel: PairKernel,
) {
    assert_ne!(partner_xor, 0, "pair kernel needs a partner");
    assert_eq!(
        partner_xor & !fixed_mask,
        0,
        "partner bits must be fixed bits"
    );
    with_pair_op!(kernel, |op| pair_loop(
        amps,
        config,
        fixed_mask,
        fixed_value,
        partner_xor as usize,
        op
    ))
}

/// The loop behind [`pair_map`], monomorphized per pair operation.
fn pair_loop<Op>(
    amps: &mut [Complex64],
    config: &SimConfig,
    fixed_mask: u64,
    fixed_value: u64,
    partner_xor: usize,
    op: Op,
) where
    Op: Fn(Complex64, Complex64) -> (Complex64, Complex64) + Sync,
{
    let (count, fixed_ext) = check_subspace(amps.len(), fixed_mask, fixed_value);
    let ptr = AmpPtr(amps.as_mut_ptr());
    dispatch(config, count, |range| {
        let base = ptr.get();
        for_each_run(range, fixed_ext, fixed_value, |start, len| {
            // SAFETY: both runs lie below `dim`; the partner run has fixed
            // bits other than `fixed_value`, so it is disjoint from every
            // source run, and sources are partitioned across workers.
            let (sources, partners) = unsafe {
                (
                    std::slice::from_raw_parts_mut(base.add(start), len),
                    std::slice::from_raw_parts_mut(base.add(start ^ partner_xor), len),
                )
            };
            for (pa, pb) in sources.iter_mut().zip(partners) {
                (*pa, *pb) = op(*pa, *pb);
            }
        });
    });
}

/// Gated variant of [`pair_map`] for the generalized commute couplings:
/// enumerates every *source* index `i` with `i & fixed_mask == fixed_value`
/// and applies `kernel` to the pair `(i, partner(i))` — skipping indices
/// where `partner` returns `None` (register-ineligible states stay
/// untouched).
///
/// Disjointness (threading safety): the caller must guarantee that
/// `partner(i) & fixed_mask != fixed_value` for every source (the partner
/// leaves the source subspace, so it never collides with another worker's
/// source) and that `partner` is injective over the sources (so no two pairs
/// share a target). [`crate::gate::ShiftBlock::forward`] satisfies both: the
/// partner carries the complement support pattern, and the register shift is
/// a fixed translation.
pub(crate) fn gated_pair_map<P>(
    amps: &mut [Complex64],
    config: &SimConfig,
    fixed_mask: u64,
    fixed_value: u64,
    partner: P,
    kernel: PairKernel,
) where
    P: Fn(u64) -> Option<u64> + Sync,
{
    assert_ne!(fixed_mask, 0, "gated pair kernel needs support bits");
    with_pair_op!(kernel, |op| gated_pair_loop(
        amps,
        config,
        fixed_mask,
        fixed_value,
        &partner,
        op
    ))
}

/// The loop behind [`gated_pair_map`], monomorphized per pair operation.
fn gated_pair_loop<P, Op>(
    amps: &mut [Complex64],
    config: &SimConfig,
    fixed_mask: u64,
    fixed_value: u64,
    partner: &P,
    op: Op,
) where
    P: Fn(u64) -> Option<u64> + Sync,
    Op: Fn(Complex64, Complex64) -> (Complex64, Complex64) + Sync,
{
    let (count, fixed_ext) = check_subspace(amps.len(), fixed_mask, fixed_value);
    let dim = amps.len() as u64;
    let ptr = AmpPtr(amps.as_mut_ptr());
    dispatch(config, count, |range| {
        let base = ptr.get();
        for_each_run(range, fixed_ext, fixed_value, |start, len| {
            for i in start..start + len {
                let Some(j) = partner(i as u64) else {
                    continue;
                };
                debug_assert!(j < dim, "partner index outside the register");
                debug_assert_ne!(
                    j & fixed_mask,
                    fixed_value,
                    "partner must leave the source subspace"
                );
                let j = j as usize;
                // SAFETY: `i`, `j` < dim; sources are partitioned across
                // workers, and the caller guarantees partners leave the
                // source subspace and are injective, so every touched
                // index belongs to at most one pair.
                unsafe {
                    let pa = base.add(i);
                    let pb = base.add(j);
                    let (a, b) = op(*pa, *pb);
                    *pa = a;
                    *pb = b;
                }
            }
        });
    });
}

/// The 2×2 update one gate applies to an amplitude pair `(a, b)`: target
/// bit 0 and 1 of a (controlled) one-qubit gate, or the `|v⟩`/`|v̄⟩` sides
/// of a commute block. It is resolved from the gate's current *values*
/// once per gate (once per lane on the compact engine) and then applied to
/// every pair. The dense engine and the compact plan replay both evaluate
/// these expressions and no others, so their amplitudes are bit-identical
/// by construction — including degenerate angles, where `Rx(0)` takes the
/// diagonal branch and every other `Rx` the rotation one.
#[derive(Clone, Copy, Debug)]
pub(crate) enum PairKernel {
    /// Permutation gates: swap the two slots.
    Swap,
    /// Commute-block rotation `[[cos θ, −i sin θ], [−i sin θ, cos θ]]`.
    Rot { sin: f64, cos: f64 },
    /// Diagonal matrix: two independent scalings, each skipped when its
    /// entry is exactly one (a multiply by one is not an IEEE no-op once
    /// `-0.0` is in play).
    Diag { d0: Complex64, d1: Complex64 },
    /// Anti-diagonal matrix (e.g. `X`, `Rx(π)` up to phase).
    AntiDiag { m01: Complex64, m10: Complex64 },
    /// All-real matrix (e.g. `H`, `Ry`): four real scalings.
    Real {
        r00: f64,
        r01: f64,
        r10: f64,
        r11: f64,
    },
    /// The general complex 2×2.
    Full { m: [[Complex64; 2]; 2] },
}

impl PairKernel {
    /// The commute-block rotation by `theta`.
    #[inline]
    pub(crate) fn rotation(theta: f64) -> PairKernel {
        let (sin, cos) = theta.sin_cos();
        PairKernel::Rot { sin, cos }
    }

    /// Classifies a 2×2 matrix by its values: diagonal, anti-diagonal,
    /// the rotation `[[c, −is], [−is, c]]` (e.g. `Rx`, a commute block's
    /// two-level synthesis), all-real or general. The rotation expression
    /// equals the general one on every non-zero output; only the sign of an
    /// exact zero can differ.
    #[inline]
    pub(crate) fn of_matrix(m: [[Complex64; 2]; 2]) -> PairKernel {
        if m[0][1] == Complex64::ZERO && m[1][0] == Complex64::ZERO {
            PairKernel::Diag {
                d0: m[0][0],
                d1: m[1][1],
            }
        } else if m[0][0] == Complex64::ZERO && m[1][1] == Complex64::ZERO {
            PairKernel::AntiDiag {
                m01: m[0][1],
                m10: m[1][0],
            }
        } else if m[0][0] == m[1][1] && m[0][1] == m[1][0] && m[0][0].im == 0.0 && m[0][1].re == 0.0
        {
            PairKernel::Rot {
                sin: -m[0][1].im,
                cos: m[0][0].re,
            }
        } else if m.iter().flatten().all(|c| c.im == 0.0) {
            PairKernel::Real {
                r00: m[0][0].re,
                r01: m[0][1].re,
                r10: m[1][0].re,
                r11: m[1][1].re,
            }
        } else {
            PairKernel::Full { m }
        }
    }

    /// Applies the kernel to one `(a, b)` slot pair.
    #[inline(always)]
    pub(crate) fn apply(self, a: Complex64, b: Complex64) -> (Complex64, Complex64) {
        match self {
            PairKernel::Swap => (b, a),
            PairKernel::Rot { sin, cos } => rotate(sin, cos, a, b),
            PairKernel::Diag { d0, d1 } => (scale_unless_one(a, d0), scale_unless_one(b, d1)),
            PairKernel::AntiDiag { m01, m10 } => (m01 * b, m10 * a),
            PairKernel::Real { r00, r01, r10, r11 } => {
                (a.scale(r00) + b.scale(r01), a.scale(r10) + b.scale(r11))
            }
            PairKernel::Full { m } => (m[0][0] * a + m[0][1] * b, m[1][0] * a + m[1][1] * b),
        }
    }
}

/// The commute-block rotation of one pair — the exact expression every
/// engine evaluates for `e^{-iθ·(|v⟩⟨v̄| + |v̄⟩⟨v|)}`.
#[inline(always)]
pub(crate) fn rotate(sin: f64, cos: f64, a: Complex64, b: Complex64) -> (Complex64, Complex64) {
    (
        Complex64::new(cos * a.re + sin * b.im, cos * a.im - sin * b.re),
        Complex64::new(cos * b.re + sin * a.im, cos * b.im - sin * a.re),
    )
}

/// One diagonal-matrix entry applied to one amplitude, skipped when the
/// entry is exactly one.
#[inline(always)]
pub(crate) fn scale_unless_one(a: Complex64, d: Complex64) -> Complex64 {
    if d != Complex64::ONE {
        a * d
    } else {
        a
    }
}

/// Applies `op(amp, value)` element-wise over the full array, in parallel
/// chunks (safe `split_at_mut` slicing — no raw pointers needed).
pub(crate) fn zip_map_values<T, Op>(
    amps: &mut [Complex64],
    config: &SimConfig,
    values: &[T],
    op: Op,
) where
    T: Copy + Sync,
    Op: Fn(&mut Complex64, T) + Sync,
{
    debug_assert_eq!(amps.len(), values.len());
    let threads = config.effective_threads(amps.len());
    if threads <= 1 {
        for (a, &v) in amps.iter_mut().zip(values.iter()) {
            op(a, v);
        }
        return;
    }
    let chunk = amps.len().div_ceil(threads);
    std::thread::scope(|scope| {
        for (achunk, vchunk) in amps.chunks_mut(chunk).zip(values.chunks(chunk)) {
            let op = &op;
            scope.spawn(move || {
                for (a, &v) in achunk.iter_mut().zip(vchunk.iter()) {
                    op(a, v);
                }
            });
        }
    });
}

/// Bit-deduplicates a diagonal's values: the distinct values (by
/// `to_bits`) in first-seen order, and each value's index into them.
/// Equal bits give an equal `-θ·f` product and so equal `cis` bits, which
/// makes a factor table over the distinct values exact.
pub(crate) fn dedup_values(values: &[f64]) -> (Vec<f64>, Vec<u32>) {
    let mut distinct = Vec::new();
    let mut slot_of: std::collections::HashMap<u64, u32> = std::collections::HashMap::new();
    let index = values
        .iter()
        .map(|&f| {
            *slot_of.entry(f.to_bits()).or_insert_with(|| {
                distinct.push(f);
                (distinct.len() - 1) as u32
            })
        })
        .collect();
    (distinct, index)
}

/// Accumulates the per-basis diagonal of a phase polynomial into `values`
/// by strided term-wise addition: `O(2^n · (1 + terms/2))` simple adds
/// instead of `O(2^n · terms)` branchy per-index evaluation.
pub(crate) fn accumulate_poly_diag(values: &mut [f64], poly: &crate::phasepoly::PhasePoly) {
    let dim = values.len();
    debug_assert!(dim.is_power_of_two());
    let index_mask = (dim - 1) as u64;
    values.fill(poly.constant());
    let mut add_on_subspace = |fixed_mask: u64, w: f64| {
        let (count, fixed_ext) = check_subspace(dim, fixed_mask, fixed_mask);
        for_each_run(0..count, fixed_ext, fixed_mask, |start, len| {
            for v in &mut values[start..start + len] {
                *v += w;
            }
        });
    };
    for (i, &w) in poly.linear().iter().enumerate() {
        let bit = 1u64 << i;
        if w != 0.0 && bit & index_mask != 0 {
            add_on_subspace(bit, w);
        }
    }
    for &(i, j, w) in poly.quadratic() {
        let bits = (1u64 << i) | (1u64 << j);
        if w != 0.0 && bits & !index_mask == 0 {
            add_on_subspace(bits, w);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::Gate;
    use crate::phasepoly::PhasePoly;
    use choco_mathkit::c64;
    use std::f64::consts::PI;

    fn test_config(threads: usize) -> SimConfig {
        SimConfig {
            threads,
            parallel_threshold: 1, // force threading even on tiny states
            ..SimConfig::default()
        }
    }

    #[test]
    fn rx_rotation_kernel_matches_the_full_expression() {
        // `Rx` classifies as `Rot`; on every non-zero output component it
        // must equal the general complex 2×2 bit for bit (zeros may differ
        // in sign only).
        let mut rng = choco_mathkit::SplitMix64::new(7);
        let mut angles = vec![0.0, -0.0, PI, -PI, 2.0 * PI, PI / 2.0];
        angles.extend((0..200).map(|_| rng.gen_range_f64(-10.0, 10.0)));
        let amp = |rng: &mut choco_mathkit::SplitMix64| {
            let mut part = || match rng.gen_range(0, 4) {
                0 => 0.0,
                1 => -0.0,
                _ => rng.gen_range_f64(-1.0, 1.0),
            };
            c64(part(), part())
        };
        for theta in angles {
            let m = Gate::Rx(0, theta).matrix_1q().unwrap();
            let kernel = PairKernel::of_matrix(m);
            if theta == 0.0 {
                assert!(matches!(kernel, PairKernel::Diag { .. }), "{theta}");
                continue;
            }
            assert!(matches!(kernel, PairKernel::Rot { .. }), "{theta}");
            for _ in 0..50 {
                let (a, b) = (amp(&mut rng), amp(&mut rng));
                let (r0, r1) = kernel.apply(a, b);
                let (f0, f1) = PairKernel::Full { m }.apply(a, b);
                for (got, want) in [
                    (r0.re, f0.re),
                    (r0.im, f0.im),
                    (r1.re, f1.re),
                    (r1.im, f1.im),
                ] {
                    if want == 0.0 {
                        assert_eq!(got, 0.0, "theta={theta} a={a} b={b}");
                    } else {
                        assert_eq!(got.to_bits(), want.to_bits(), "theta={theta} a={a} b={b}");
                    }
                }
            }
        }
    }

    #[test]
    fn expand_index_scatters_into_free_positions() {
        // fixed bits {1, 3}: free positions are 0, 2, 4, 5, …
        assert_eq!(expand_index(0b000, 0b1010), 0b00000);
        assert_eq!(expand_index(0b001, 0b1010), 0b00001);
        assert_eq!(expand_index(0b010, 0b1010), 0b00100);
        assert_eq!(expand_index(0b011, 0b1010), 0b00101);
        assert_eq!(expand_index(0b100, 0b1010), 0b10000);
    }

    #[test]
    fn subspace_enumeration_matches_scan_and_mask() {
        let dim = 1usize << 6;
        let fixed_mask = 0b10010u64;
        let fixed_value = 0b10000u64;
        let (count, fixed_ext) = check_subspace(dim, fixed_mask, fixed_value);
        let expected: Vec<usize> = (0..dim)
            .filter(|&i| i as u64 & fixed_mask == fixed_value)
            .collect();
        // Every split of the rank range (as thread chunks cut it) yields
        // the same indices in the same order, in runs of 2^low.
        for (lo, hi) in [(0, count), (0, 1), (1, count), (3, 7), (5, count)] {
            let mut seen = Vec::new();
            for_each_run(lo..hi, fixed_ext, fixed_value, |start, len| {
                assert!(len <= 2, "lowest fixed bit is bit 1");
                seen.extend(start..start + len);
            });
            assert_eq!(seen, expected[lo..hi], "ranks {lo}..{hi}");
        }
        // No fixed bits: one run over the whole register.
        let (count, fixed_ext) = check_subspace(dim, 0, 0);
        let mut runs = Vec::new();
        for_each_run(0..count, fixed_ext, 0, |start, len| runs.push((start, len)));
        assert_eq!(runs, [(0, dim)]);
    }

    #[test]
    fn subspace_map_multiplies_only_matching_indices() {
        for threads in [1, 2, 4] {
            let mut amps = vec![Complex64::ONE; 32];
            subspace_map(&mut amps, &test_config(threads), 0b11, 0b01, |a| {
                a.scale(2.0)
            });
            for (i, a) in amps.iter().enumerate() {
                let expect = if i & 0b11 == 0b01 { 2.0 } else { 1.0 };
                assert_eq!(a.re, expect, "threads={threads} i={i}");
            }
        }
    }

    #[test]
    fn pair_map_swaps_partner_amplitudes() {
        for threads in [1, 3] {
            let mut amps: Vec<Complex64> = (0..16).map(|i| c64(i as f64, 0.0)).collect();
            // Swap |x0⟩ ↔ |x1⟩ on bit 0 (an X gate on qubit 0).
            pair_map(
                &mut amps,
                &test_config(threads),
                0b1,
                0b0,
                0b1,
                PairKernel::Swap,
            );
            for i in (0..16).step_by(2) {
                assert_eq!(amps[i].re, (i + 1) as f64);
                assert_eq!(amps[i + 1].re, i as f64);
            }
        }
    }

    #[test]
    fn gated_pair_map_skips_ineligible_sources() {
        for threads in [1, 3] {
            let mut amps: Vec<Complex64> = (0..16).map(|i| c64(i as f64, 0.0)).collect();
            // Swap |x0⟩ ↔ |x1⟩ on bit 0, but only when bit 3 is clear.
            gated_pair_map(
                &mut amps,
                &test_config(threads),
                0b1,
                0b0,
                |i| (i & 0b1000 == 0).then_some(i ^ 0b1),
                PairKernel::Swap,
            );
            for i in (0..16).step_by(2) {
                if i & 0b1000 == 0 {
                    assert_eq!(amps[i].re, (i + 1) as f64, "threads={threads}");
                    assert_eq!(amps[i + 1].re, i as f64);
                } else {
                    assert_eq!(amps[i].re, i as f64, "threads={threads}");
                    assert_eq!(amps[i + 1].re, (i + 1) as f64);
                }
            }
        }
    }

    #[test]
    fn accumulate_poly_diag_matches_eval_bits() {
        let mut poly = PhasePoly::new(5);
        poly.add_constant(0.5);
        poly.add_linear(0, 1.0);
        poly.add_linear(3, -2.0);
        poly.add_quadratic(1, 4, 0.25);
        let mut values = vec![0.0; 32];
        accumulate_poly_diag(&mut values, &poly);
        for (bits, &v) in values.iter().enumerate() {
            assert!(
                (v - poly.eval_bits(bits as u64)).abs() < 1e-12,
                "bits={bits}"
            );
        }
    }

    #[test]
    fn zip_map_values_covers_every_element() {
        for threads in [1, 4] {
            let values: Vec<f64> = (0..24).map(|i| i as f64).collect();
            let mut amps = vec![Complex64::ZERO; 24];
            zip_map_values(&mut amps, &test_config(threads), &values, |a, v| {
                *a += c64(v, 0.0)
            });
            for (i, a) in amps.iter().enumerate() {
                assert_eq!(a.re, i as f64, "threads={threads}");
            }
        }
    }
}
