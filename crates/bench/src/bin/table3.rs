//! Regenerates paper Table 3: optimal-size distribution of uniform random
//! 4-bit permutations.
//!
//! ```text
//! cargo run --release -p revsynth-bench --bin table3 -- [--samples 60] [--k 7] [--seed 2010]
//! ```
//!
//! The paper's run: 10,000,000 samples, k = 9, 29 hours, weighted average
//! 11.94 gates, sizes 5..14 observed. This regenerator runs the identical
//! experiment with a smaller sample; the distribution shape (peak at 12,
//! ~3:1 ratio of 12s to 11s, rare ≤ 9 and 14) and the weighted average
//! are directly comparable.

use revsynth_analysis::sample_distribution;
use revsynth_bench::{arg_or, env_k, load_or_generate};
use revsynth_core::Synthesizer;

/// Paper Table 3 (out of 10M samples).
const PAPER: [(usize, u64); 10] = [
    (5, 3),
    (6, 24),
    (7, 455),
    (8, 5_269),
    (9, 50_861),
    (10, 392_108),
    (11, 2_051_507),
    (12, 5_110_943),
    (13, 2_371_039),
    (14, 17_191),
];

fn main() {
    let samples: usize = arg_or("--samples", 60);
    let k = arg_or("--k", env_k(7));
    let seed: u64 = arg_or("--seed", 2010);

    let synth = Synthesizer::new(load_or_generate(4, k));
    eprintln!("synthesizing {samples} random permutations (seed {seed}) ...");
    let start = std::time::Instant::now();
    let dist =
        sample_distribution(&synth, samples, seed).expect("domain is correct by construction");
    let elapsed = start.elapsed();

    println!("# Table 3 — sizes of {samples} random 4-bit permutations (paper: 10,000,000)");
    println!(
        "{:>4} {:>10} {:>10} {:>14} {:>10}",
        "size", "count", "fraction", "paper count", "paper frac"
    );
    for (size, count) in dist.iter() {
        let paper = PAPER
            .iter()
            .find(|&&(s, _)| s == size)
            .map_or(0, |&(_, c)| c);
        println!(
            "{size:>4} {count:>10} {:>10.4} {paper:>14} {:>10.4}",
            dist.fraction(size),
            paper as f64 / 1e7
        );
    }
    if dist.unresolved() > 0 {
        println!(
            ">{:>3} {:>10}  (beyond the k = {k} search bound of {} gates)",
            synth.max_size(),
            dist.unresolved(),
            synth.max_size()
        );
    }
    println!(
        "\nweighted average: {:.2} gates (paper: 11.94); wall time {elapsed:.2?} \
         ({:.3} s/sample)",
        dist.weighted_average(),
        elapsed.as_secs_f64() / samples as f64
    );
}
