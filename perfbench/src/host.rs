//! Run labels: the host, the commit, and the runtime axes in effect.

use std::path::Path;

/// The runtime axes and the default every benchmark figure is taken at.
/// Figures under another value measure another program, so such runs are
/// refused rather than reported.
const AXES: [(&str, &str); 6] = [
    ("AVT_KERNEL", "scalar"),
    ("AVT_WRITE_SHARDS", "1"),
    ("AVT_SCHED", "fifo"),
    ("AVT_OBS", "off"),
    ("AVT_ENGINE_THREADS", "1"),
    ("AVT_FRAME_SOURCE", "resident"),
];

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `nproc`, kernel release, commit and axis values, as one label line.
pub fn stamp() -> String {
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string());
    let axes: Vec<String> = AXES
        .iter()
        .map(|(name, default)| {
            format!("{name}={}", std::env::var(name).unwrap_or_else(|_| default.to_string()))
        })
        .collect();
    format!(
        "# host nproc={} kernel={kernel} commit={} {}",
        nproc(),
        commit().unwrap_or_else(|| "unknown".to_string()),
        axes.join(" ")
    )
}

/// Refuse a run with any runtime axis set away from its default.
pub fn check_axes() -> Result<(), String> {
    for (name, default) in AXES {
        if let Ok(value) = std::env::var(name) {
            if value.trim() != default {
                return Err(format!(
                    "{name}={value:?} is not the default {default:?}; \
                     benchmark figures are defined at the default axes"
                ));
            }
        }
    }
    Ok(())
}

/// The checked-out commit, read from `.git` in the working directory
/// (absent in an exported tree).
fn commit() -> Option<String> {
    let git = Path::new(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|line| {
        let (id, name) = line.split_once(' ')?;
        (name == reference).then(|| id.to_string())
    })
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}
