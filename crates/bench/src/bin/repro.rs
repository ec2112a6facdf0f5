//! Reproduces one table or figure of the paper's evaluation; see
//! [`sgr_bench::repro`]. Usage:
//!
//! ```text
//! repro --artifact table2|table3|table4|table5|fig3|fig4|ablation
//!       [--runs N] [--rc X] [--scale X] [--out DIR] [--seed N]
//!       [--exact-threshold N] [--pivots N]
//! ```

use sgr_bench::repro;

fn main() {
    match repro::parse(std::env::args().skip(1)) {
        Ok((artifact, args)) => {
            artifact(&args);
            eprintln!("wrote {}", args.out_dir.display());
        }
        Err(msg) => {
            eprintln!("repro: {msg}\n{}", repro::USAGE);
            std::process::exit(2);
        }
    }
}
