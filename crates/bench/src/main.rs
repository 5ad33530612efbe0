//! `sparch-bench`: reproduces every figure and table of the SpArch
//! paper's evaluation from one sweep.
//!
//! ```text
//! cargo run --release -p sparch-bench -- [--scale X] [--threads N] [--json PATH]
//! ```

use sparch_bench::{catalog, figures, parse_args, runner, sweep};
use sparch_exec::ShardPool;

fn main() {
    let args = parse_args();
    let pool = ShardPool::with_override(args.threads);
    let record = sweep::run(&catalog(), args.scale, pool);
    for (_, render) in figures::ALL {
        for table in render(&record) {
            table.print();
        }
    }
    if let Some(path) = &args.json {
        if let Err(e) = runner::write_json(path, &record) {
            eprintln!("sparch-bench: {e}");
            std::process::exit(2);
        }
        eprintln!("record written to {}", path.display());
    }
}
