//! The `run_experiments` binary end to end: its exit status reports every
//! CSV it could not write, because the golden-file diff reads those files.

use std::process::Command;

#[test]
fn unwritable_out_exits_nonzero() {
    // No directory can be created below a regular file.
    let blocker =
        std::env::temp_dir().join(format!("avt_run_experiments_blocker_{}", std::process::id()));
    std::fs::write(&blocker, b"").unwrap();
    let run = Command::new(env!("CARGO_BIN_EXE_run_experiments"))
        .args(["table2", "--quick", "--out"])
        .arg(blocker.join("csv"))
        .output()
        .expect("run_experiments starts");
    std::fs::remove_file(&blocker).unwrap();
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(!run.status.success(), "exit status {:?}, stderr:\n{stderr}", run.status);
    assert!(stderr.contains("could not write table2.csv"), "stderr:\n{stderr}");
}
