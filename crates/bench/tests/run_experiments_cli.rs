//! The `run_experiments` binary end to end: its exit status reports every
//! CSV it could not write, because the golden-file diff reads those files,
//! and every option it does not know.

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
