//! Regenerates Table I and Figs. 2(b)/3 for the running example: the demo
//! assay's chip, complete flow paths, the wash-free schedule, and the
//! PDW-optimized schedule with its wash operations.
//!
//! Usage: `cargo run -p pdw-bench --bin table1 --release`

use pathdriver_wash::{pdw, PdwConfig};
use pdw_assay::benchmarks;
use pdw_sched::TaskKind;
use pdw_synth::synthesize;

fn main() {
    let bench = benchmarks::demo();
    let s = synthesize(&bench).expect("demo synthesizes");

    println!("== chip layout (Fig. 2(a) analogue) ==");
    println!("{}", s.chip.grid());
    for d in s.chip.devices() {
        println!(
            "  {} at {} .. {}",
            d.label(),
            s.chip.describe(d.inlet_end()),
            s.chip.describe(d.outlet_end())
        );
    }

    println!("\n== complete flow paths (Table I analogue) ==");
    let describe = |p: &pdw_biochip::FlowPath| -> String {
        p.iter()
            .map(|&c| s.chip.describe(c))
            .collect::<Vec<_>>()
            .join(" -> ")
    };
    for (id, t) in s.schedule.tasks() {
        println!(
            "  {:<3} {:<7} {}",
            id.to_string(),
            t.kind().tag(),
            describe(t.path())
        );
    }

    println!("\n== wash-free schedule (Fig. 2(b) analogue) ==");
    println!("{}", s.schedule);

    let r = pdw(&bench, &s, &PdwConfig::default()).expect("pdw succeeds");
    println!("== optimized schedule with washes (Fig. 3 analogue) ==");
    println!("{}", r.schedule);
    println!("wash paths:");
    for (id, t) in r.schedule.tasks() {
        if let TaskKind::Wash { targets } = t.kind() {
            println!(
                "  {:<3} [{}..{}) covers {} targets: {}",
                id.to_string(),
                t.start(),
                t.end(),
                targets.len(),
                describe(t.path())
            );
        }
    }
    println!(
        "integrated removals (psi=1): {}   N_wash: {}   T_assay: {} s (wash-free: {} s)",
        r.integrated,
        r.metrics.n_wash,
        r.metrics.t_assay,
        s.schedule.makespan()
    );
}
