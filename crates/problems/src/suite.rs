//! The benchmark suite: the paper's 12 scale classes F1–F4, G1–G4, K1–K4.
//!
//! The paper evaluates 400 literature-derived cases grouped into four scale
//! classes per domain (6–28 variables, 3–16 constraints). This reproduction
//! generates seeded instances with the same structure per class, re-scaled
//! so the largest class stays within CPU state-vector reach (≤ 24 qubits;
//! see DESIGN.md §6). Use [`BenchmarkSuite::standard`] for single
//! representatives and [`instances`] for per-class samples.

use crate::assigncap::assigncap_random;
use crate::cover::cover_random;
use crate::flp::flp;
use crate::gcp::gcp_random;
use crate::knapsack::{knapsack_random, knapsack_random_with, KnapsackEncoding};
use crate::kpp::kpp_random;
use crate::mdknap::mdknap_random;
use choco_model::Problem;

/// Which application domain a case belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Domain {
    /// Facility location problem.
    Flp,
    /// Graph coloring problem.
    Gcp,
    /// K-partition problem.
    Kpp,
    /// Exact cover / set partitioning (extended suite).
    Cover,
    /// Bounded knapsack with an equality budget (extended suite).
    Knapsack,
    /// Multi-dimensional knapsack with native `≤` rows (native suite).
    MdKnapsack,
    /// Assignment with agent capacities — mixed `=`/`≤` rows (native suite).
    AssignCap,
}

impl Domain {
    /// Domain mnemonic (`"FLP"`, ...).
    pub fn label(&self) -> &'static str {
        match self {
            Domain::Flp => "FLP",
            Domain::Gcp => "GCP",
            Domain::Kpp => "KPP",
            Domain::Cover => "COVER",
            Domain::Knapsack => "KNAP",
            Domain::MdKnapsack => "MDKNAP",
            Domain::AssignCap => "ASSIGN",
        }
    }
}

/// One benchmark case: a scale-class id plus a generated instance.
#[derive(Clone, Debug)]
pub struct BenchmarkCase {
    /// Class id (`"F1"` … `"K4"`).
    pub id: &'static str,
    /// Scale label in the paper's notation (`"2F-1D"`, `"3V-1E-3C"` …).
    pub scale: &'static str,
    /// Domain.
    pub domain: Domain,
    /// The generated instance.
    pub problem: Problem,
}

/// Generates the instance of class `id` with the given seed.
///
/// # Panics
///
/// Panics on an unknown class id (valid: F1–F4, G1–G4, K1–K4) — generation
/// itself cannot fail for these fixed shapes.
pub fn instance(id: &str, seed: u64) -> Problem {
    match id {
        // FLP: facilities × demands (vars = F(1+2D)).
        "F1" => flp(2, 1, seed).expect("F1"),
        "F2" => flp(2, 2, seed).expect("F2"),
        "F3" => flp(3, 2, seed).expect("F3"),
        "F4" => flp(3, 3, seed).expect("F4"),
        // GCP: vertices-edges-colors (vars = (V+E)·K).
        "G1" => gcp_random(3, 1, 3, seed).expect("G1"),
        "G2" => gcp_random(4, 2, 3, seed).expect("G2"),
        "G3" => gcp_random(3, 3, 3, seed).expect("G3"),
        "G4" => gcp_random(4, 4, 3, seed).expect("G4"),
        // KPP: vertices-edges-blocks (vars = V·B), balanced.
        "K1" => kpp_random(4, 3, 2, true, seed).expect("K1"),
        "K2" => kpp_random(6, 7, 2, true, seed).expect("K2"),
        "K3" => kpp_random(8, 10, 2, true, seed).expect("K3"),
        "K4" => kpp_random(6, 7, 3, true, seed).expect("K4"),
        // Exact cover: elements × subsets (vars = S).
        "X1" => cover_random(4, 6, seed).expect("X1"),
        "X2" => cover_random(6, 10, seed).expect("X2"),
        "X3" => cover_random(8, 14, seed).expect("X3"),
        "X4" => cover_random(10, 18, seed).expect("X4"),
        // Bounded knapsack: items × budget (vars = I + ⌈log₂(W+1)⌉).
        "B1" => knapsack_random(4, 6, seed).expect("B1"),
        "B2" => knapsack_random(6, 8, seed).expect("B2"),
        "B3" => knapsack_random(8, 10, seed).expect("B3"),
        "B4" => knapsack_random(10, 12, seed).expect("B4"),
        // Native-encoding knapsack: the same seeded items as B1–B4 with the
        // budget as a first-class ≤ row (vars = I; slack lives in the driver).
        "B1n" => knapsack_random_with(4, 6, seed, KnapsackEncoding::Native).expect("B1n"),
        "B2n" => knapsack_random_with(6, 8, seed, KnapsackEncoding::Native).expect("B2n"),
        "B3n" => knapsack_random_with(8, 10, seed, KnapsackEncoding::Native).expect("B3n"),
        "B4n" => knapsack_random_with(10, 12, seed, KnapsackEncoding::Native).expect("B4n"),
        // Multi-dimensional knapsack: items × dimensions (vars = I).
        "M1" => mdknap_random(4, 2, seed).expect("M1"),
        "M2" => mdknap_random(6, 2, seed).expect("M2"),
        // Assignment with capacities: agents × tasks (vars = A·T).
        "A1" => assigncap_random(2, 2, seed).expect("A1"),
        "A2" => assigncap_random(2, 3, seed).expect("A2"),
        other => panic!("unknown benchmark class `{other}`"),
    }
}

/// Scale label of a class in the paper's notation.
pub fn scale_label(id: &str) -> &'static str {
    match id {
        "F1" => "2F-1D",
        "F2" => "2F-2D",
        "F3" => "3F-2D",
        "F4" => "3F-3D",
        "G1" => "3V-1E-3C",
        "G2" => "4V-2E-3C",
        "G3" => "3V-3E-3C",
        "G4" => "4V-4E-3C",
        "K1" => "4V-3E-2B",
        "K2" => "6V-7E-2B",
        "K3" => "8V-10E-2B",
        "K4" => "6V-7E-3B",
        "X1" => "4U-6S",
        "X2" => "6U-10S",
        "X3" => "8U-14S",
        "X4" => "10U-18S",
        "B1" => "4I-6W",
        "B2" => "6I-8W",
        "B3" => "8I-10W",
        "B4" => "10I-12W",
        "B1n" => "4I-6W-nat",
        "B2n" => "6I-8W-nat",
        "B3n" => "8I-10W-nat",
        "B4n" => "10I-12W-nat",
        "M1" => "4I-2D",
        "M2" => "6I-2D",
        "A1" => "2A-2T",
        "A2" => "2A-3T",
        other => panic!("unknown benchmark class `{other}`"),
    }
}

/// Domain of a class id.
pub fn domain_of(id: &str) -> Domain {
    match id.as_bytes()[0] {
        b'F' => Domain::Flp,
        b'G' => Domain::Gcp,
        b'K' => Domain::Kpp,
        b'X' => Domain::Cover,
        b'B' => Domain::Knapsack,
        b'M' => Domain::MdKnapsack,
        b'A' => Domain::AssignCap,
        _ => panic!("unknown benchmark class `{id}`"),
    }
}

/// `count` seeded instances of class `id` (seeds 1..=count).
pub fn instances(id: &str, count: usize) -> Vec<Problem> {
    (1..=count as u64).map(|seed| instance(id, seed)).collect()
}

/// All 12 class ids of the paper's suite, in table order.
pub const ALL_CLASSES: [&str; 12] = [
    "F1", "F2", "F3", "F4", "G1", "G2", "G3", "G4", "K1", "K2", "K3", "K4",
];

/// The paper's 12 classes plus the extended exact-cover (X1–X4) and
/// knapsack (B1–B4) classes.
pub const EXTENDED_CLASSES: [&str; 20] = [
    "F1", "F2", "F3", "F4", "G1", "G2", "G3", "G4", "K1", "K2", "K3", "K4", "X1", "X2", "X3", "X4",
    "B1", "B2", "B3", "B4",
];

/// The native-inequality classes: knapsack re-encoded with first-class
/// `≤` budget rows (B1n–B4n), multi-dimensional knapsack (M1–M2), and
/// assignment with agent capacities (A1–A2). Slack synthesis for all of
/// these happens inside the driver layer, not in the problem definition.
pub const NATIVE_CLASSES: [&str; 8] = ["B1n", "B2n", "B3n", "B4n", "M1", "M2", "A1", "A2"];

/// The small classes used for hardware-style (noisy) experiments.
pub const SMALL_CLASSES: [&str; 3] = ["F1", "G1", "K1"];

/// A named collection of benchmark cases.
#[derive(Clone, Debug, Default)]
pub struct BenchmarkSuite {
    cases: Vec<BenchmarkCase>,
}

impl BenchmarkSuite {
    /// One representative per class (seed 1), all 12 paper classes.
    pub fn standard() -> Self {
        Self::from_ids(&ALL_CLASSES, 1)
    }

    /// One representative per class (seed 1), all 20 extended classes.
    pub fn extended() -> Self {
        Self::from_ids(&EXTENDED_CLASSES, 1)
    }

    /// One representative per class (seed 1), all 8 native-inequality
    /// classes.
    pub fn native() -> Self {
        Self::from_ids(&NATIVE_CLASSES, 1)
    }

    /// The small suite (F1, G1, K1) used on noisy devices.
    pub fn small() -> Self {
        Self::from_ids(&SMALL_CLASSES, 1)
    }

    /// Builds a suite from explicit class ids and a seed.
    pub fn from_ids(ids: &[&'static str], seed: u64) -> Self {
        let cases = ids
            .iter()
            .map(|&id| BenchmarkCase {
                id,
                scale: scale_label(id),
                domain: domain_of(id),
                problem: instance(id, seed),
            })
            .collect();
        BenchmarkSuite { cases }
    }

    /// The cases in order.
    pub fn cases(&self) -> &[BenchmarkCase] {
        &self.cases
    }

    /// Looks up a case by id.
    pub fn case(&self, id: &str) -> Option<&BenchmarkCase> {
        self.cases.iter().find(|c| c.id == id)
    }

    /// Number of cases.
    pub fn len(&self) -> usize {
        self.cases.len()
    }

    /// `true` when the suite has no cases.
    pub fn is_empty(&self) -> bool {
        self.cases.is_empty()
    }

    /// Iterates over the cases.
    pub fn iter(&self) -> std::slice::Iter<'_, BenchmarkCase> {
        self.cases.iter()
    }
}

impl<'a> IntoIterator for &'a BenchmarkSuite {
    type Item = &'a BenchmarkCase;
    type IntoIter = std::slice::Iter<'a, BenchmarkCase>;
    fn into_iter(self) -> Self::IntoIter {
        self.cases.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_suite_has_twelve_cases() {
        let suite = BenchmarkSuite::standard();
        assert_eq!(suite.len(), 12);
        assert!(suite.case("F1").is_some());
        assert!(suite.case("K4").is_some());
        assert!(suite.case("Z9").is_none());
    }

    #[test]
    fn variable_counts_grow_within_each_domain() {
        let suite = BenchmarkSuite::standard();
        for domain in ["F", "G", "K"] {
            let sizes: Vec<usize> = (1..=4)
                .map(|k| {
                    suite
                        .case(&format!("{domain}{k}"))
                        .unwrap()
                        .problem
                        .n_vars()
                })
                .collect();
            for w in sizes.windows(2) {
                assert!(w[1] >= w[0], "{domain}: {sizes:?}");
            }
        }
    }

    #[test]
    fn all_cases_are_feasible_and_fit_the_simulator() {
        for case in BenchmarkSuite::standard().iter() {
            assert!(
                case.problem.first_feasible().is_some(),
                "{} infeasible",
                case.id
            );
            assert!(
                case.problem.n_vars() <= 24,
                "{} too large: {} vars",
                case.id,
                case.problem.n_vars()
            );
        }
    }

    #[test]
    fn constraint_counts_span_paper_range() {
        let suite = BenchmarkSuite::standard();
        let counts: Vec<usize> = suite
            .iter()
            .map(|c| c.problem.constraints().n_rows())
            .collect();
        assert_eq!(*counts.iter().min().unwrap(), 3); // F1
        assert!(*counts.iter().max().unwrap() >= 12); // G4-scale

        // Native classes count their `<=` rows too (B*n has no equation).
        for case in BenchmarkSuite::native().iter() {
            let rows = case.problem.constraints();
            assert!(rows.n_rows() > 0, "{}", case.id);
            assert_eq!(
                rows.n_rows(),
                rows.len() + rows.ineqs().len(),
                "{}",
                case.id
            );
        }
    }

    #[test]
    fn instances_are_deterministic_and_seed_varied() {
        let a = instance("G2", 4);
        let b = instance("G2", 4);
        let c = instance("G2", 5);
        assert_eq!(format!("{a}"), format!("{b}"));
        assert_ne!(format!("{a}"), format!("{c}"));
        assert_eq!(instances("F1", 3).len(), 3);
    }

    #[test]
    fn domains_and_labels() {
        assert_eq!(domain_of("F3"), Domain::Flp);
        assert_eq!(domain_of("G1"), Domain::Gcp);
        assert_eq!(domain_of("K2"), Domain::Kpp);
        assert_eq!(domain_of("X1"), Domain::Cover);
        assert_eq!(domain_of("B4"), Domain::Knapsack);
        assert_eq!(Domain::Kpp.label(), "KPP");
        assert_eq!(Domain::Cover.label(), "COVER");
        assert_eq!(Domain::Knapsack.label(), "KNAP");
        assert_eq!(scale_label("K1"), "4V-3E-2B");
        assert_eq!(scale_label("X2"), "6U-10S");
        assert_eq!(scale_label("B1"), "4I-6W");
    }

    #[test]
    fn extended_suite_is_feasible_and_fits_the_simulator() {
        let suite = BenchmarkSuite::extended();
        assert_eq!(suite.len(), 20);
        for case in suite.iter() {
            assert!(
                case.problem.first_feasible().is_some(),
                "{} infeasible",
                case.id
            );
            assert!(
                case.problem.n_vars() <= 24,
                "{} too large: {} vars",
                case.id,
                case.problem.n_vars()
            );
        }
    }

    #[test]
    fn native_suite_is_feasible_and_inequality_constrained() {
        let suite = BenchmarkSuite::native();
        assert_eq!(suite.len(), 8);
        for case in suite.iter() {
            assert!(
                case.problem.first_feasible().is_some(),
                "{} infeasible",
                case.id
            );
            assert!(
                case.problem.has_inequalities(),
                "{} has no native ≤ row",
                case.id
            );
            assert!(
                case.problem.n_vars() <= 24,
                "{} too large: {} vars",
                case.id,
                case.problem.n_vars()
            );
        }
        assert_eq!(domain_of("B2n"), Domain::Knapsack);
        assert_eq!(domain_of("M1"), Domain::MdKnapsack);
        assert_eq!(domain_of("A2"), Domain::AssignCap);
        assert_eq!(Domain::MdKnapsack.label(), "MDKNAP");
        assert_eq!(Domain::AssignCap.label(), "ASSIGN");
        assert_eq!(scale_label("B1n"), "4I-6W-nat");
    }

    #[test]
    fn native_knapsack_classes_share_items_with_slack_anchors() {
        // B{k}n draws the identical generator stream as B{k}: fewer
        // problem variables, same item weights in the budget row.
        for (nat, anchor) in [("B1n", "B1"), ("B2n", "B2")] {
            let n = instance(nat, 3);
            let a = instance(anchor, 3);
            assert!(n.n_vars() < a.n_vars(), "{nat} vs {anchor}");
            let row = &n.constraints().ineqs()[0];
            let eq = &a.constraints().eqs()[0];
            for &(v, c) in &row.terms {
                assert_eq!(eq.terms[v], (v, c), "{nat} item {v}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "unknown benchmark class")]
    fn unknown_class_panics() {
        let _ = instance("Q7", 1);
    }
}
