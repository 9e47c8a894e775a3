//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro <experiment> [options]
//!
//! experiments:
//!   table1      the prototype workload configuration
//!   fig3        execution-time breakdown (compute vs communication)
//!   fig4        pack vs spread speedup across batch sizes
//!   fig5        NVLink bandwidth traces (AlexNet, batch 1/4/64/128)
//!   fig6        collocation slowdown matrix
//!   fig7        the physical topology graphs as Graphviz DOT
//!   fig8        the 6-job prototype scenario under all four policies
//!   fig9        prototype vs simulation validation
//!   fig10       scenario 1: 100 jobs / 5 machines
//!   fig11       scenario 2: 10k jobs / 1k machines  [--scale N to shrink]
//!   overhead    scheduler decision-latency comparison (§5.5.3)
//!   pcie        NVLink vs PCIe machine speedups (§3.2)
//!   ablation    utility-weight sweep (A1)
//!   modelpar    model-parallel placement sensitivity (M1, ours)
//!   hetero      heterogeneous Minsky+DGX-1 fleet (H1, ours)
//!   spill       disaggregated multi-node jobs on a racked cluster (D1, ours)
//!   failures    resilience to machine failures (F1, ours)
//!   validate    the reproduction scorecard: every paper claim, PASS/FAIL
//!   all         everything above (fig11 at 1/10 scale)
//!
//! options: --scale N (fig11), --json (fig10/fig11 machine-readable)
//! ```

use gts_bench::experiments as exp;
use std::env;
use std::process::ExitCode;

fn usage() -> &'static str {
    "usage: repro <table1|fig3|fig4|fig5|fig6|fig7|fig8|fig9|fig10|fig11|overhead|pcie|ablation|modelpar|hetero|all> [--scale N]\n\
     run `repro all` to regenerate every table and figure (fig11 scaled 1/10)."
}

fn wants_json(args: &[String]) -> bool {
    args.iter().any(|a| a == "--json")
}

fn parse_scale(args: &[String]) -> usize {
    args.iter()
        .position(|a| a == "--scale")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
}

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    let scale = parse_scale(&args);

    match cmd.as_str() {
        "table1" => print!("{}", exp::table1::render()),
        "fig3" => print!("{}", exp::fig3::render()),
        "fig4" => print!("{}", exp::fig4::render()),
        "fig5" => print!("{}", exp::fig5::render()),
        "fig6" => print!("{}", exp::fig6::render()),
        "fig7" => print!("{}", exp::fig7::render()),
        "fig8" => print!("{}", exp::fig8::render()),
        "fig9" => print!("{}", exp::fig9::render()),
        "fig10" => {
            if wants_json(&args) {
                let s = exp::fig10::run(100, 5, 1001);
                println!("{}", serde_json::to_string_pretty(&s).expect("serialize"));
            } else {
                print!("{}", exp::fig10::render());
            }
        }
        "fig11" => {
            if wants_json(&args) {
                let s = if scale <= 1 {
                    exp::fig11::run_full()
                } else {
                    exp::fig11::run_scaled(scale)
                };
                println!("{}", serde_json::to_string_pretty(&s).expect("serialize"));
            } else {
                print!("{}", exp::fig11::render(scale));
            }
        }
        "overhead" => print!("{}", exp::overhead::render(&[5, 50, 200], 40)),
        "pcie" => print!("{}", exp::pcie::render()),
        "ablation" => print!("{}", exp::ablation::render()),
        "modelpar" => print!("{}", exp::modelpar::render()),
        "hetero" => print!("{}", exp::hetero::render()),
        "spill" => print!("{}", exp::spill::render()),
        "failures" => print!("{}", exp::failures::render()),
        "validate" => print!("{}", exp::validate::render()),
        "all" => {
            print!("{}", exp::table1::render());
            println!();
            print!("{}", exp::fig3::render());
            println!();
            print!("{}", exp::fig4::render());
            println!();
            print!("{}", exp::fig5::render());
            println!();
            print!("{}", exp::fig6::render());
            println!();
            print!("{}", exp::fig8::render());
            println!();
            print!("{}", exp::fig9::render());
            println!();
            print!("{}", exp::fig10::render());
            println!();
            print!(
                "{}",
                exp::fig11::render(if scale == 1 { 10 } else { scale })
            );
            println!();
            print!("{}", exp::overhead::render(&[5, 50, 200], 40));
            println!();
            print!("{}", exp::pcie::render());
            println!();
            print!("{}", exp::ablation::render());
            println!();
            print!("{}", exp::modelpar::render());
            println!();
            print!("{}", exp::hetero::render());
            println!();
            print!("{}", exp::spill::render());
            println!();
            print!("{}", exp::failures::render());
            println!();
            print!("{}", exp::validate::render());
        }
        other => {
            eprintln!("unknown experiment '{other}'\n{}", usage());
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
