//! Active-set sweep benchmark (the optimised partitioner against the naive
//! reference model on the 100k-vertex power-law scenario); writes
//! `BENCH_sweep.json` next to the working directory.
//!
//! `--scale tiny|quick|paper` sizes the run; the `APG_SWEEP_SCALE`
//! environment variable overrides it (CI uses `APG_SWEEP_SCALE=tiny` as a
//! smoke cap so the binary cannot rot without slowing the pipeline).

use apg_bench::experiments::sweep;
use apg_bench::scale::RunArgs;
use apg_bench::Scale;

fn main() {
    let mut args = RunArgs::from_env();
    if let Some(scale) = std::env::var("APG_SWEEP_SCALE")
        .ok()
        .as_deref()
        .and_then(Scale::parse)
    {
        args.scale = scale;
    }
    let result = sweep::run(args.scale, args.seed);
    sweep::print(&result);

    // The exactness contract is the point of this bench: divergence is a
    // bug, not a data point, so fail loudly instead of shipping a JSON a
    // CI grep might read from a stale checkout.
    if !result.identical_trajectories() {
        eprintln!("FATAL: active-set sweep diverged from the reference model");
        std::process::exit(1);
    }

    let path = "BENCH_sweep.json";
    match std::fs::write(path, sweep::to_json(&result)) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => {
            eprintln!("could not write {path}: {e}");
            std::process::exit(1);
        }
    }
}
