//! Experiment runner: regenerates the paper's tables and figures.
//!
//! ```text
//! experiments <name>    run one experiment (fig5, fig8a, ..., losses)
//! experiments all       run everything
//! experiments help      list experiments
//! ```

use joinboost_bench::experiments;

fn main() {
    let arg = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "help".to_string());
    if arg == "help" || arg == "--help" || arg == "-h" {
        println!("usage: experiments <name|all>\n\navailable experiments:");
        for (name, desc, _) in experiments::EXPERIMENTS {
            println!("  {name:<8} {desc}");
        }
        return;
    }
    if let Err(e) = experiments::run(&arg) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
