//! Regenerates Figure 5: correlation between mutual information gain and
//! flow-specification coverage over all candidate message combinations,
//! per usage scenario.
//!
//! The paper's claim: coverage increases monotonically with information
//! gain, validating gain as the selection metric. We print the
//! (gain, coverage) series sorted by gain and a rank-correlation summary.

use pstrace_core::{enumerate_combinations, flow_spec_coverage, rank_combinations};
use pstrace_infogain::MiCache;
use pstrace_obs::{render_profile_table, Registry};
use pstrace_soc::{SocModel, UsageScenario};

fn main() {
    let model = SocModel::t2();
    let registry = Registry::new();
    println!("Figure 5 — mutual information gain vs flow-spec coverage (32-bit buffer)\n");

    for scenario in UsageScenario::all_paper_scenarios() {
        let product = registry.time("interleave", || {
            scenario.interleaving(&model).expect("scenario interleaves")
        });
        let combos = registry.time("enumerate", || {
            enumerate_combinations(model.catalog(), &product.message_alphabet(), 32, 2_000_000)
                .expect("enumeration fits the limit")
        });
        let mut ranked = registry.time("rank", || {
            rank_combinations(&product, &combos, &MiCache::new(&product))
        });
        ranked.reverse(); // ascending gain for the series

        let series: Vec<(f64, f64)> = registry.time("coverage", || {
            ranked
                .iter()
                .map(|c| (c.gain, flow_spec_coverage(&product, &c.messages)))
                .collect()
        });

        // Spearman rank correlation between gain and coverage.
        let rho = registry.time("spearman", || spearman(&series));

        println!(
            "{}: {} candidate combinations, spearman(gain, coverage) = {:.3}",
            scenario.name(),
            series.len(),
            rho
        );
        // Print a decile summary of the series (full dump would be huge).
        let n = series.len();
        for decile in 0..=10 {
            let idx = ((n - 1) * decile) / 10;
            let (gain, cov) = series[idx];
            println!(
                "   p{:>3}: gain {:>7.4}  coverage {:>7.4}",
                decile * 10,
                gain,
                cov
            );
        }
        println!();
    }
    println!("paper: coverage increases monotonically with gain in all three scenarios");
    println!("\nphase timings over all scenarios (wall clock):");
    print!("{}", render_profile_table(&registry));
}

/// Spearman rank correlation of y against x.
fn spearman(series: &[(f64, f64)]) -> f64 {
    let n = series.len();
    if n < 2 {
        return 1.0;
    }
    let rank = |values: Vec<f64>| -> Vec<f64> {
        let mut idx: Vec<usize> = (0..values.len()).collect();
        idx.sort_by(|&a, &b| values[a].partial_cmp(&values[b]).expect("finite"));
        let mut ranks = vec![0.0; values.len()];
        for (r, &i) in idx.iter().enumerate() {
            ranks[i] = r as f64;
        }
        ranks
    };
    let rx = rank(series.iter().map(|s| s.0).collect());
    let ry = rank(series.iter().map(|s| s.1).collect());
    let mean = (n as f64 - 1.0) / 2.0;
    let mut num = 0.0;
    let mut dx = 0.0;
    let mut dy = 0.0;
    for i in 0..n {
        let a = rx[i] - mean;
        let b = ry[i] - mean;
        num += a * b;
        dx += a * a;
        dy += b * b;
    }
    num / (dx.sqrt() * dy.sqrt())
}
