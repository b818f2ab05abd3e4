//! Regenerate the paper's tables and figures.
//!
//! ```text
//! cargo run -p avt-bench --release --bin run_experiments -- all
//! cargo run -p avt-bench --release --bin run_experiments -- fig3 --scale 0.05
//! ```
//!
//! Results print to stdout and are written as CSV under `results/`. The
//! exit status is nonzero when an argument is bad, the experiment unknown,
//! or any CSV could not be written.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use avt_bench::experiments;
use avt_bench::report::Table;
use avt_bench::{datasets, Context};

const USAGE: &str = "\
usage: run_experiments <experiment> [options]

experiments:
  all       every table and figure
  table2    dataset statistics
  fig3 fig4 time / visited vertices vs k
  fig5 fig6 time / visited vertices vs T
  fig7 fig8 time / visited vertices vs l
  fig9      followers vs T
  fig10     followers vs l
  fig11     followers vs k
  fig12     case study vs brute force
  table4    anchor/follower detail

options:
  --quick        smoke mode: tiny datasets, few snapshots (CI harness
                 check); explicit flags below override it, in any order
  --scale S      dataset scale in (0, 1]   (default 0.02)
  --snapshots T  snapshot count            (default 30)
  --l L          anchor budget             (default 10)
  --seed N       generation seed           (default 42)
  --threads N    engine workers per tracking run: 1 = sequential, 0 = one
                 per core (default: AVT_ENGINE_THREADS, else 1); results
                 are identical at any setting, only wall time moves
  --frame-source {resident,mmap}
                 where the engine's frames come from (default:
                 AVT_FRAME_SOURCE, else resident). mmap spills each stream
                 once to $AVT_DATA_DIR/cache/ as .csrbin files and replays
                 zero-copy mapped frames; results are identical at either
                 setting, only memory residency and wall time move
  --no-cache     bypass the $AVT_DATA_DIR/cache/ spill cache (equivalent
                 to AVT_NO_CACHE=1): mmap runs spill fresh frames to tmp
                 instead of reusing — the knob for ruling out stale caches
                 when results look wrong
  --out DIR      CSV output directory      (default results/); the run
                 exits nonzero if any CSV cannot be written there

Real data: place SNAP downloads under $AVT_DATA_DIR (default data/) and
the matching experiments run on them instead of the synthetic stand-ins.
";

struct Args {
    experiment: String,
    ctx: Context,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut args = raw.iter().filter(|a| *a != "--quick" && *a != "--no-cache").cloned();
    let experiment = args.next().ok_or_else(|| USAGE.to_string())?;
    // --quick selects the tiny baseline context regardless of its position;
    // every explicit flag overrides it (it is filtered out of `args` above
    // so the main loop never sees it). --no-cache is positionless too.
    let quick = raw.iter().any(|a| a == "--quick");
    if raw.iter().any(|a| a == "--no-cache") {
        avt_datasets::loader::set_cache_bypass(true);
    }
    let mut ctx = if quick { Context::tiny() } else { Context::default() };
    let mut out = PathBuf::from("results");
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("missing value for {flag}"));
        match flag.as_str() {
            "--scale" => ctx.scale = value()?.parse().map_err(|e| format!("--scale: {e}"))?,
            "--snapshots" => {
                ctx.snapshots = value()?.parse().map_err(|e| format!("--snapshots: {e}"))?
            }
            "--l" => ctx.l = value()?.parse().map_err(|e| format!("--l: {e}"))?,
            "--seed" => ctx.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--threads" => {
                let threads = value()?.parse().map_err(|e| format!("--threads: {e}"))?;
                avt_core::engine::set_default_threads(threads);
            }
            "--frame-source" => {
                let v = value()?;
                ctx.frame_source = avt_bench::FrameMode::parse(&v).ok_or(format!(
                    "--frame-source: expected \"resident\" or \"mmap\", got {v:?}"
                ))?;
            }
            "--out" => out = PathBuf::from(value()?),
            other => return Err(format!("unknown option {other}\n{USAGE}")),
        }
    }
    if !(ctx.scale > 0.0 && ctx.scale <= 1.0) {
        return Err("--scale must be in (0, 1]".into());
    }
    Ok(Args { experiment, ctx, out })
}

/// Print `table` and write it to `out/<slug>.csv`; false if the write
/// failed.
fn emit(table: &Table, out: &Path, slug: &str) -> bool {
    println!("{}", table.to_text());
    match table.write_csv(out, slug) {
        Ok(()) => true,
        Err(e) => {
            eprintln!("error: could not write {slug}.csv: {e}");
            false
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let ctx = &args.ctx;
    let all = datasets();
    eprintln!(
        "# running '{}' at scale {} (T = {}, l = {}, seed = {}, engine threads = {}, \
         frames = {})",
        args.experiment,
        ctx.scale,
        ctx.snapshots,
        ctx.l,
        ctx.seed,
        avt_core::engine::default_threads(),
        ctx.frame_source
    );

    // Whether every CSV of the experiment was written; None when the name
    // is unknown. Both tables of a pair are emitted even if one write fails.
    let run_one = |name: &str| -> Option<bool> {
        let out = &args.out;
        Some(match name {
            "table2" => emit(&experiments::table2(ctx, &all), out, "table2"),
            "fig3" | "fig4" => {
                let (t3, t4) = experiments::fig3_4(ctx, &all);
                emit(&t3, out, "fig3") & emit(&t4, out, "fig4")
            }
            "fig5" | "fig6" => {
                let (t5, t6) = experiments::fig5_6(ctx, &all);
                emit(&t5, out, "fig5") & emit(&t6, out, "fig6")
            }
            "fig7" | "fig8" => {
                let (t7, t8) = experiments::fig7_8(ctx, &all);
                emit(&t7, out, "fig7") & emit(&t8, out, "fig8")
            }
            "fig9" => emit(&experiments::fig9(ctx, &all), out, "fig9"),
            "fig10" => emit(&experiments::fig10(ctx, &all), out, "fig10"),
            "fig11" => emit(&experiments::fig11(ctx, &all), out, "fig11"),
            "fig12" => emit(&experiments::fig12(ctx), out, "fig12"),
            "table4" => emit(&experiments::table4(ctx), out, "table4"),
            _ => return None,
        })
    };

    let written = match args.experiment.as_str() {
        "all" => {
            let mut written = true;
            for name in
                ["table2", "fig3", "fig5", "fig7", "fig9", "fig10", "fig11", "fig12", "table4"]
            {
                written &= run_one(name) == Some(true);
            }
            Some(written)
        }
        other => run_one(other),
    };

    match written {
        Some(true) => ExitCode::SUCCESS,
        Some(false) => {
            eprintln!("error: not every CSV was written under {}", args.out.display());
            ExitCode::FAILURE
        }
        None => {
            eprintln!("unknown experiment '{}'\n{USAGE}", args.experiment);
            ExitCode::FAILURE
        }
    }
}
