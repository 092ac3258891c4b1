//! Thread-scaling benchmark for the sharded decision sweep and sharded cut
//! recount; writes `BENCH_scaling.json` next to the
//! working directory.
//!
//! Default (quick) scale already runs the ≥100k-vertex power-law
//! configuration; `--scale paper` raises it to one million vertices and
//! `--scale xl` to ten million (single repetition). The
//! `APG_SCALING_SCALE` environment variable overrides the flag (CI uses
//! `APG_SCALING_SCALE=tiny` as a smoke cap so the binary cannot rot
//! without slowing the pipeline; `APG_SCALING_SCALE=xl` opts into the
//! stress run).

use apg_bench::experiments::scaling;
use apg_bench::scale::RunArgs;
use apg_bench::Scale;

fn main() {
    let mut args = RunArgs::from_env();
    if let Some(scale) = std::env::var("APG_SCALING_SCALE")
        .ok()
        .as_deref()
        .and_then(Scale::parse)
    {
        args.scale = scale;
    }
    let result = scaling::run(args.scale, args.reps(), args.seed);
    scaling::print(&result);

    // Determinism and layout equivalence are the contracts this bench
    // exists to witness: divergence is a bug, not a data point, so fail
    // loudly instead of shipping a JSON a CI grep might misread.
    if !result.deterministic_across_threads() {
        eprintln!("FATAL: iteration history varies across thread counts");
        std::process::exit(1);
    }
    if !result.layout_equals_reference {
        eprintln!("FATAL: slab adjacency diverged from the boxed reference layout");
        std::process::exit(1);
    }

    let path = "BENCH_scaling.json";
    match std::fs::write(path, scaling::to_json(&result)) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => {
            eprintln!("could not write {path}: {e}");
            std::process::exit(1);
        }
    }
}
