//! The paper's figures and tables: `paper <name> --key value …` runs
//! one of them (see `firm_bench::paper`).
//!
//! ```sh
//! cargo run --release -p firm-bench --bin paper -- fig10 --seconds 10
//! ```
//!
//! A missing or unknown name exits 2 and lists the names.

use firm_bench::paper::FIGURES;
use firm_bench::Args;

fn main() {
    let mut raw = std::env::args().skip(1);
    let name = raw.next().unwrap_or_default();
    let Some((_, run)) = FIGURES.iter().find(|(n, _)| *n == name) else {
        let names: Vec<&str> = FIGURES.iter().map(|(n, _)| *n).collect();
        eprintln!("usage: paper <name> [--key value ...]");
        eprintln!("names: {}", names.join(" "));
        std::process::exit(2)
    };
    run(&Args::parse(raw));
}
