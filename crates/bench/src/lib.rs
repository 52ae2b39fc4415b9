//! # gam-bench
//!
//! The paper-reproduction harness: shared code used by the `fig18`, `table1`,
//! `table2`, `table3` and `ablation` binaries.
//!
//! The harness runs the synthetic workload suite
//! ([`gam_uarch::WorkloadSuite::paper`]) under the four memory-model policies
//! of Section V on identical traces, collects [`gam_uarch::SimStats`] per
//! (workload, policy) pair, and renders the same rows the paper reports:
//!
//! * Figure 18 — uPC of ARM, GAM0 and Alpha\* normalized to GAM, per
//!   workload, plus the average;
//! * Table II — kills and stalls caused by same-address load-load ordering,
//!   per 1K uOPs, average and maximum across workloads;
//! * Table III — load-load forwardings per 1K uOPs in Alpha\* and the
//!   reduction in L1 load misses over GAM, average and maximum.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::collections::BTreeMap;
use std::fmt::Write as _;

use gam_uarch::config::{MemoryModelPolicy, SimConfig};
use gam_uarch::workload::{WorkloadSpec, WorkloadSuite};
use gam_uarch::{SimStats, Simulator};

/// Simulation results of one workload under every policy.
#[derive(Debug, Clone)]
pub struct WorkloadResult {
    /// Workload name.
    pub workload: String,
    /// Statistics per policy.
    pub stats: BTreeMap<MemoryModelPolicy, SimStats>,
}

impl WorkloadResult {
    /// The statistics of one policy.
    ///
    /// # Panics
    ///
    /// Panics if the policy was not simulated.
    #[must_use]
    pub fn of(&self, policy: MemoryModelPolicy) -> &SimStats {
        &self.stats[&policy]
    }

    /// uPC of `policy` normalized to the GAM baseline (the y-axis of Figure 18).
    #[must_use]
    pub fn normalized_upc(&self, policy: MemoryModelPolicy) -> f64 {
        let baseline = self.of(MemoryModelPolicy::Gam).upc();
        if baseline == 0.0 {
            0.0
        } else {
            self.of(policy).upc() / baseline
        }
    }
}

/// Runs one workload under every policy on the same generated trace.
#[must_use]
pub fn run_workload(spec: &WorkloadSpec, ops: usize, seed: u64) -> WorkloadResult {
    let trace = spec.generate(ops, seed);
    let stats = MemoryModelPolicy::ALL
        .iter()
        .map(|&policy| {
            let simulator = Simulator::new(SimConfig::haswell_like(policy));
            (policy, simulator.run(&trace))
        })
        .collect();
    WorkloadResult { workload: spec.name().to_string(), stats }
}

/// Runs a whole suite; `ops` micro-ops per workload, one deterministic seed.
#[must_use]
pub fn run_suite(suite: &WorkloadSuite, ops: usize, seed: u64) -> Vec<WorkloadResult> {
    suite.specs().iter().map(|spec| run_workload(spec, ops, seed)).collect()
}

/// Average of a slice of f64 (0.0 for an empty slice).
#[must_use]
pub fn average(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Maximum of a slice of f64 (0.0 for an empty slice).
#[must_use]
pub fn maximum(values: &[f64]) -> f64 {
    values.iter().copied().fold(0.0, f64::max)
}

/// Renders Figure 18: normalized uPC of ARM, GAM0 and Alpha\* (GAM = 1.00).
#[must_use]
pub fn render_fig18(results: &[WorkloadResult]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 18 — uPC normalized to GAM (higher than 1.000 means faster than GAM)"
    );
    let _ = writeln!(
        out,
        "{:<22} {:>8} {:>8} {:>8} {:>10}",
        "benchmark", "ARM", "GAM0", "Alpha*", "GAM uPC"
    );
    let compared = [MemoryModelPolicy::Arm, MemoryModelPolicy::Gam0, MemoryModelPolicy::AlphaStar];
    let mut sums = [0.0f64; 3];
    for result in results {
        let _ = write!(out, "{:<22}", result.workload);
        for (i, &policy) in compared.iter().enumerate() {
            let normalized = result.normalized_upc(policy);
            sums[i] += normalized;
            let _ = write!(out, " {normalized:>8.4}");
        }
        let _ = writeln!(out, " {:>10.3}", result.of(MemoryModelPolicy::Gam).upc());
    }
    let n = results.len().max(1) as f64;
    let _ = write!(out, "{:<22}", "average");
    for sum in sums {
        let _ = write!(out, " {:>8.4}", sum / n);
    }
    let _ = writeln!(out);
    out
}

/// The aggregate rows of Table II.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table2 {
    /// Average kills per 1K uOPs under GAM.
    pub kills_gam_avg: f64,
    /// Maximum kills per 1K uOPs under GAM.
    pub kills_gam_max: f64,
    /// Average stalls per 1K uOPs under GAM.
    pub stalls_gam_avg: f64,
    /// Maximum stalls per 1K uOPs under GAM.
    pub stalls_gam_max: f64,
    /// Average stalls per 1K uOPs under ARM.
    pub stalls_arm_avg: f64,
    /// Maximum stalls per 1K uOPs under ARM.
    pub stalls_arm_max: f64,
}

/// Computes Table II from suite results.
#[must_use]
pub fn table2(results: &[WorkloadResult]) -> Table2 {
    let kills_gam: Vec<f64> =
        results.iter().map(|r| r.of(MemoryModelPolicy::Gam).kills_per_kilo_uop()).collect();
    let stalls_gam: Vec<f64> =
        results.iter().map(|r| r.of(MemoryModelPolicy::Gam).stalls_per_kilo_uop()).collect();
    let stalls_arm: Vec<f64> =
        results.iter().map(|r| r.of(MemoryModelPolicy::Arm).stalls_per_kilo_uop()).collect();
    Table2 {
        kills_gam_avg: average(&kills_gam),
        kills_gam_max: maximum(&kills_gam),
        stalls_gam_avg: average(&stalls_gam),
        stalls_gam_max: maximum(&stalls_gam),
        stalls_arm_avg: average(&stalls_arm),
        stalls_arm_max: maximum(&stalls_arm),
    }
}

/// Renders Table II in the paper's layout.
#[must_use]
pub fn render_table2(results: &[WorkloadResult]) -> String {
    let t = table2(results);
    let mut out = String::new();
    let _ = writeln!(out, "Table II — kills and stalls caused by same-address load-load ordering");
    let _ = writeln!(out, "{:<22} {:>10} {:>10}", "events per 1K uOPs", "Average", "Max");
    let _ =
        writeln!(out, "{:<22} {:>10.3} {:>10.3}", "Kills in GAM", t.kills_gam_avg, t.kills_gam_max);
    let _ = writeln!(
        out,
        "{:<22} {:>10.3} {:>10.3}",
        "Stalls in GAM", t.stalls_gam_avg, t.stalls_gam_max
    );
    let _ = writeln!(
        out,
        "{:<22} {:>10.3} {:>10.3}",
        "Stalls in ARM", t.stalls_arm_avg, t.stalls_arm_max
    );
    out
}

/// The aggregate rows of Table III.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table3 {
    /// Average load-load forwardings per 1K uOPs in Alpha\*.
    pub forwardings_avg: f64,
    /// Maximum load-load forwardings per 1K uOPs in Alpha\*.
    pub forwardings_max: f64,
    /// Average reduction in L1 load misses per 1K uOPs of Alpha\* over GAM.
    pub reduced_misses_avg: f64,
    /// Maximum reduction in L1 load misses per 1K uOPs of Alpha\* over GAM.
    pub reduced_misses_max: f64,
}

/// Computes Table III from suite results.
#[must_use]
pub fn table3(results: &[WorkloadResult]) -> Table3 {
    let forwardings: Vec<f64> = results
        .iter()
        .map(|r| r.of(MemoryModelPolicy::AlphaStar).load_load_forwardings_per_kilo_uop())
        .collect();
    let reduced: Vec<f64> = results
        .iter()
        .map(|r| {
            let gam = r.of(MemoryModelPolicy::Gam).l1_misses_per_kilo_uop();
            let alpha = r.of(MemoryModelPolicy::AlphaStar).l1_misses_per_kilo_uop();
            (gam - alpha).max(0.0)
        })
        .collect();
    Table3 {
        forwardings_avg: average(&forwardings),
        forwardings_max: maximum(&forwardings),
        reduced_misses_avg: average(&reduced),
        reduced_misses_max: maximum(&reduced),
    }
}

/// Renders Table III in the paper's layout.
#[must_use]
pub fn render_table3(results: &[WorkloadResult]) -> String {
    let t = table3(results);
    let mut out = String::new();
    let _ = writeln!(out, "Table III — effects of load-load forwardings in Alpha*");
    let _ = writeln!(out, "{:<36} {:>10} {:>10}", "events per 1K uOPs", "Average", "Max");
    let _ = writeln!(
        out,
        "{:<36} {:>10.3} {:>10.3}",
        "Load-load forwardings", t.forwardings_avg, t.forwardings_max
    );
    let _ = writeln!(
        out,
        "{:<36} {:>10.3} {:>10.3}",
        "Reduced L1 load misses over GAM", t.reduced_misses_avg, t.reduced_misses_max
    );
    out
}

/// Parses a `--flag value` style option from a raw argument list.
#[must_use]
pub fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).cloned()
}

/// Validates the formal-model foundation through the parallel engine facade
/// before a long simulation run: every paper litmus test under every model,
/// checked against the paper's expectation table.
///
/// Every experiment binary calls this first, so a regression in the memory
/// models can never hide behind hours of timing simulation.
///
/// # Panics
///
/// Panics if any verdict disagrees with the expectation table.
#[must_use]
pub fn validate_models_via_engine() -> String {
    use gam_verify::matrix::{diff_reports, run_matrix};
    let tests = gam_isa::litmus::library::paper_tests();
    let models = gam_core::ModelKind::ALL;
    let workers = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let reports =
        run_matrix(&tests, "paper", &models, &[gam_engine::Backend::Axiomatic], workers, 1)
            .expect("the axiomatic backend supports every model");
    let mismatches = diff_reports(&tests, &models, &reports, |test, model| {
        gam_verify::expectations::expectation_for(test).map(|row| row.allowed(model))
    });
    assert!(
        mismatches.is_empty(),
        "litmus verdicts disagree with the paper: {:?}",
        mismatches.iter().map(ToString::to_string).collect::<Vec<_>>()
    );
    format!(
        "model sanity (engine facade): {} litmus tests x {} models match the paper",
        tests.len(),
        models.len()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_results() -> Vec<WorkloadResult> {
        run_suite(&WorkloadSuite::small(), 5_000, 7)
    }

    #[test]
    fn every_policy_is_simulated_per_workload() {
        let results = small_results();
        assert_eq!(results.len(), 3);
        for result in &results {
            assert_eq!(result.stats.len(), 4);
            for policy in MemoryModelPolicy::ALL {
                assert!(result.of(policy).committed_uops > 0);
            }
        }
    }

    #[test]
    fn normalized_upc_is_close_to_one() {
        for result in small_results() {
            for policy in
                [MemoryModelPolicy::Arm, MemoryModelPolicy::Gam0, MemoryModelPolicy::AlphaStar]
            {
                let normalized = result.normalized_upc(policy);
                assert!(
                    (normalized - 1.0).abs() < 0.10,
                    "{}: {policy} normalized uPC {normalized}",
                    result.workload
                );
            }
        }
    }

    #[test]
    fn rendered_tables_contain_their_rows() {
        let results = small_results();
        let fig18 = render_fig18(&results);
        assert!(fig18.contains("average"));
        assert!(fig18.contains("Alpha*"));
        let t2 = render_table2(&results);
        assert!(t2.contains("Kills in GAM"));
        assert!(t2.contains("Stalls in ARM"));
        let t3 = render_table3(&results);
        assert!(t3.contains("Load-load forwardings"));
        assert!(t3.contains("Reduced L1 load misses"));
    }

    #[test]
    fn table2_numbers_are_small_and_consistent() {
        let results = small_results();
        let t = table2(&results);
        assert!(t.kills_gam_avg <= t.kills_gam_max + 1e-12);
        assert!(t.stalls_gam_avg <= t.stalls_gam_max + 1e-12);
        assert!(t.kills_gam_avg < 10.0, "kills must stay rare: {}", t.kills_gam_avg);
    }

    #[test]
    fn helpers_average_and_maximum() {
        assert_eq!(average(&[]), 0.0);
        assert_eq!(maximum(&[]), 0.0);
        assert!((average(&[1.0, 2.0, 3.0]) - 2.0).abs() < 1e-12);
        assert!((maximum(&[1.0, 5.0, 3.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn arg_value_parses_flags() {
        let args: Vec<String> =
            ["prog", "--ops", "1000", "--seed", "9"].iter().map(ToString::to_string).collect();
        assert_eq!(arg_value(&args, "--ops"), Some("1000".into()));
        assert_eq!(arg_value(&args, "--seed"), Some("9".into()));
        assert_eq!(arg_value(&args, "--missing"), None);
    }

    #[test]
    fn model_validation_passes_and_summarizes() {
        let summary = validate_models_via_engine();
        assert!(summary.contains("match the paper"));
    }
}
