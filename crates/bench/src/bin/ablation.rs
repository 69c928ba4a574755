//! Ablation studies for the design choices called out in DESIGN.md and
//! the paper's §5 variations.
//!
//! ```text
//! cargo run --release -p revsynth-bench --bin ablation -- [--k 5]
//! ```
//!
//! Three studies:
//!
//! 1. **Restricted architecture** (§5): optimal sizes under the
//!    linear-nearest-neighbour library vs the fully-connected one, on the
//!    Table 6 benchmarks — how much does connectivity cost? (LNN is not
//!    relabeling-closed, so its column is optimal *up to input/output
//!    relabeling* — the paper's §5 restricted-architecture regime.)
//! 2. **Weighted costs** (§5): gate-count-optimal vs quantum-cost-optimal
//!    circuits over all 3-wire functions of size ≤ 6 — how often does the
//!    cheapest circuit differ from the shortest?
//! 3. **Depth** (§5): the exhaustive 3-wire depth census vs the size
//!    census, plus depth-optimal figures for 4-wire functions of depth ≤ 3.

use revsynth_bench::{arg_or, load_or_generate};
use revsynth_circuit::{CostModel, GateLib};
use revsynth_core::{DepthSynthesizer, Synthesizer};
use revsynth_specs::benchmarks;

fn main() {
    let k = arg_or("--k", 5usize);

    // ---- 1. Linear nearest-neighbour connectivity ----
    println!(
        "# Ablation 1 — nearest-neighbour architecture (k = {k}, sizes ≤ {})",
        2 * k
    );
    let full = Synthesizer::new(load_or_generate(4, k));
    eprintln!("generating nearest-neighbour tables (20 gates, k = {k}) ...");
    let lnn = Synthesizer::new(revsynth_bfs::SearchTables::generate_with(
        GateLib::nearest_neighbor(4),
        k,
    ));
    println!(
        "{:<10} {:>9} {:>9} {:>10}   (LNN = up to I/O relabeling)",
        "name", "full SOC", "LNN size", "inflation"
    );
    for b in benchmarks() {
        let full_size = (b.optimal_size <= full.max_size())
            .then(|| full.size(b.perm()).ok())
            .flatten();
        let lnn_size = lnn.size(b.perm()).ok();
        println!(
            "{:<10} {:>9} {:>9} {:>10}",
            b.name,
            full_size.map_or("-".into(), |s| s.to_string()),
            lnn_size.map_or("-".into(), |s| s.to_string()),
            match (full_size, lnn_size) {
                (Some(f), Some(l)) => format!("+{}", l - f),
                _ => "-".into(),
            }
        );
    }

    // ---- 2. Gate count vs quantum cost ----
    println!("\n# Ablation 2 — gate-count optimum vs quantum-cost optimum (n = 3)");
    let model = CostModel::quantum();
    // Budget 9 reaches quantum cost 2·9 − 5 + 1 = 14.
    let cost_synth = Synthesizer::new(revsynth_bfs::SearchTables::generate_weighted(
        GateLib::nct(3),
        model,
        9,
    ));
    let gate_synth = Synthesizer::from_scratch(3, 3);
    let (mut classes, mut cheaper, mut cost_sum_gate, mut cost_sum_cheap) =
        (0u64, 0u64, 0u64, 0u64);
    // Walk every class the gate synthesizer can reach (size ≤ 6).
    for level in 0..=gate_synth.tables().k() {
        for &rep in gate_synth.tables().level(level) {
            let Ok(small) = gate_synth.synthesize(rep) else {
                continue;
            };
            let Ok(cheap) = cost_synth.synthesize(rep) else {
                continue;
            };
            classes += 1;
            cost_sum_gate += small.cost(&model);
            cost_sum_cheap += cheap.cost(&model);
            if cheap.cost(&model) < small.cost(&model) {
                cheaper += 1;
            }
        }
    }
    println!(
        "classes compared: {classes}; cost-optimal strictly cheaper on {cheaper} \
         ({:.1}%)",
        100.0 * cheaper as f64 / classes as f64
    );
    println!(
        "mean quantum cost: gate-count-optimal {:.2}, cost-optimal {:.2}",
        cost_sum_gate as f64 / classes as f64,
        cost_sum_cheap as f64 / classes as f64
    );

    // ---- 3. Depth vs size ----
    println!("\n# Ablation 3 — depth census (layer alphabet) vs size census");
    let depth3 = DepthSynthesizer::generate(GateLib::nct(3), 9);
    let size3 = Synthesizer::from_scratch(3, 4);
    println!(
        "n = 3 exhaustive: {:>5} {:>12} {:>12}",
        "d", "classes", "functions"
    );
    for (d, classes, functions) in depth3.counts() {
        println!("                  {d:>5} {classes:>12} {functions:>12}");
    }
    let l_depth = depth3.counts().last().map(|&(d, _, _)| d).unwrap_or(0);
    println!("maximal 3-wire depth: {l_depth} (vs maximal size L(3) = 8)");
    // Depth never exceeds size — sample check across the whole space.
    let mut checked = 0u64;
    for level in 0..=size3.tables().k() {
        for &rep in size3.tables().level(level).iter().step_by(13) {
            let s = size3.size(rep).expect("within tables");
            let d = depth3.depth_of(rep).expect("depth census is exhaustive");
            assert!(d <= s, "depth {d} > size {s}");
            checked += 1;
        }
    }
    println!("checked depth ≤ size on {checked} class representatives");

    let depth4 = DepthSynthesizer::generate(GateLib::nct(4), 3);
    println!(
        "\nn = 4 to depth 3: {:>5} {:>12} {:>12}",
        "d", "classes", "functions"
    );
    for (d, classes, functions) in depth4.counts() {
        println!("                  {d:>5} {classes:>12} {functions:>12}");
    }
}
