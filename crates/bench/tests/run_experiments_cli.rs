//! The `run_experiments` binary end to end: its exit status reports every
//! CSV it could not write, because the golden-file diff reads those files,
//! and every option it does not know or cannot use; and one experiment
//! name writes every CSV of the sweep it belongs to.

use std::process::Command;

#[test]
fn unwritable_out_exits_nonzero() {
    // No directory can be created below a regular file, so a run that got
    // past its options could not write anywhere.
    let blocker =
        std::env::temp_dir().join(format!("avt_run_experiments_blocker_{}", std::process::id()));
    std::fs::write(&blocker, b"").unwrap();
    let cases = [
        (&["table2", "--quick"][..], "could not write table2.csv"),
        // The spill cache has no bypass: deleting it rules out staleness.
        (&["table2", "--quick", "--no-cache"][..], "unknown option --no-cache"),
        // A stream has at least one snapshot, and a sweep at least one
        // anchor: both are refused before any dataset is built.
        (&["fig5", "--quick", "--snapshots", "0"][..], "--snapshots must be at least 1"),
        (&["fig7", "--quick", "--l", "0"][..], "--l must be at least 1"),
    ];
    let runs: Vec<_> = cases
        .iter()
        .map(|(args, _)| {
            Command::new(env!("CARGO_BIN_EXE_run_experiments"))
                .args(*args)
                .arg("--out")
                .arg(blocker.join("csv"))
                .output()
                .expect("run_experiments starts")
        })
        .collect();
    std::fs::remove_file(&blocker).unwrap();
    for ((args, expected), run) in cases.iter().zip(runs) {
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert!(!run.status.success(), "{args:?}: exit status {:?}, stderr:\n{stderr}", run.status);
        assert!(stderr.contains(expected), "{args:?}: stderr:\n{stderr}");
    }
}

#[test]
fn one_figure_name_writes_its_whole_sweep() {
    // Figure 11 plots the first three k of Figure 3's sweep: asking for it
    // runs that sweep once and writes all three of its tables.
    let out =
        std::env::temp_dir().join(format!("avt_run_experiments_fig11_{}", std::process::id()));
    let run = Command::new(env!("CARGO_BIN_EXE_run_experiments"))
        .args(["fig11", "--quick", "--out"])
        .arg(&out)
        .output()
        .expect("run_experiments starts");
    let read = |slug: &str| std::fs::read(out.join(format!("{slug}.csv")));
    let (fig3, fig4, fig11) = (read("fig3"), read("fig4"), read("fig11"));
    let _ = std::fs::remove_dir_all(&out);
    assert!(run.status.success(), "stderr:\n{}", String::from_utf8_lossy(&run.stderr));
    assert!(fig3.is_ok() && fig4.is_ok(), "fig3.csv and fig4.csv are written with fig11.csv");
    let golden = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden/quick/fig11.csv");
    assert_eq!(fig11.expect("fig11.csv is written"), std::fs::read(golden).unwrap());
}

#[test]
fn a_one_snapshot_stream_plots_its_only_snapshot() {
    // The T axis ends at the last snapshot, so even a stream of one
    // snapshot fills Figures 5, 6 and 9: one row per dataset and
    // algorithm, all at T = 1.
    let out = std::env::temp_dir().join(format!("avt_run_experiments_t1_{}", std::process::id()));
    let run = Command::new(env!("CARGO_BIN_EXE_run_experiments"))
        .args(["fig5", "--quick", "--snapshots", "1", "--out"])
        .arg(&out)
        .output()
        .expect("run_experiments starts");
    let read = |slug: &str| std::fs::read_to_string(out.join(format!("{slug}.csv")));
    let figures = [read("fig5"), read("fig6"), read("fig9")];
    let _ = std::fs::remove_dir_all(&out);
    assert!(run.status.success(), "stderr:\n{}", String::from_utf8_lossy(&run.stderr));
    for csv in figures {
        let csv = csv.expect("each figure of the sweep is written");
        let rows: Vec<&str> = csv.lines().skip(2).collect();
        assert!(!rows.is_empty(), "no rows below the header:\n{csv}");
        assert!(rows.iter().all(|row| row.split(',').nth(1) == Some("1")), "{csv}");
    }
}
