//! What the harness asks of the operating system: CPU time and peak
//! memory of itself and of the daemon it drives, child processes that
//! cannot outlive it, a scratch directory that is removed on every exit
//! path, and the check that the `figures` binary is not older than the
//! sources it was built from.

use std::fs;
use std::io::Read;
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::SystemTime;

/// `struct rusage` of Linux on a 64-bit target: two `timeval`s and
/// fourteen `long`s.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss_kib: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
}

/// CPU time (user + system, µs) and peak resident set (MiB).
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    pub cpu_us: f64,
    pub peak_rss_mb: f64,
}

/// `Usage` of this process.
pub fn usage() -> Usage {
    const RUSAGE_SELF: i32 = 0;
    let mut ru = RUsage::default();
    // SAFETY: `getrusage` writes one `struct rusage` through the pointer;
    // `RUsage` has that struct's size and layout on 64-bit Linux (checked
    // by `rusage_layout` below), is fully initialised, and outlives the call.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage cannot fail for RUSAGE_SELF");
    Usage {
        cpu_us: (ru.utime[0] + ru.stime[0]) as f64 * 1e6 + (ru.utime[1] + ru.stime[1]) as f64,
        peak_rss_mb: ru.maxrss_kib as f64 / 1024.0,
    }
}

/// `usage` of a live process that is not ours to wait for yet (the
/// daemon), from `/proc`.  CPU time is the scheduler's own account of the
/// time each thread spent on a CPU (`schedstat`, ns); where the kernel
/// keeps none, `stat`'s user + system time, which has clock-tick
/// resolution (10 ms).
pub fn proc_usage(pid: u32) -> Result<Usage, String> {
    let status = fs::read_to_string(format!("/proc/{pid}/status")).map_err(|e| e.to_string())?;
    let hwm_kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc status")?;
    let cpu_us = match on_cpu_ns(pid) {
        Some(ns) => ns / 1e3,
        None => stat_cpu_us(pid)?,
    };
    Ok(Usage {
        cpu_us,
        peak_rss_mb: hwm_kib / 1024.0,
    })
}

/// Time the live threads of `pid` have spent on a CPU, ns: the first field
/// of each `/proc/<pid>/task/<tid>/schedstat`.
fn on_cpu_ns(pid: u32) -> Option<f64> {
    let mut ns = 0.0;
    for task in fs::read_dir(format!("/proc/{pid}/task")).ok()? {
        let schedstat = fs::read_to_string(task.ok()?.path().join("schedstat")).ok()?;
        ns += schedstat.split_whitespace().next()?.parse::<f64>().ok()?;
    }
    Some(ns)
}

fn stat_cpu_us(pid: u32) -> Result<f64, String> {
    let stat = fs::read_to_string(format!("/proc/{pid}/stat")).map_err(|e| e.to_string())?;
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th of the line, i.e. the 12th and 13th after it.
    let after = stat.rsplit_once(')').ok_or("malformed /proc stat line")?.1;
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .ok_or_else(|| "malformed /proc stat line".to_string())
    };
    // Linux reports these in USER_HZ, which is 100 on every supported
    // architecture.
    Ok((ticks(11)? + ticks(12)?) * 1e4)
}

/// Have the kernel kill the child `command` starts when this process dies,
/// however it dies.  For children that would otherwise outlive a killed
/// harness: the daemon, and the harness's own per-workload children.  (The
/// short CLI runs go without: the hook makes `Command` fork where it could
/// `posix_spawn`, and a fork write-protects every page of the harness,
/// which the reference kernel of `calib` then pays for.)
pub fn die_with_parent(command: &mut Command) {
    const PR_SET_PDEATHSIG: i32 = 1;
    const SIGKILL: u64 = 9;
    // SAFETY: the closure runs in the forked child before `exec` and makes
    // one async-signal-safe system call that touches no memory of the
    // parent.
    unsafe {
        command.pre_exec(|| {
            prctl(PR_SET_PDEATHSIG, SIGKILL, 0, 0, 0);
            Ok(())
        });
    }
}

/// A child process that is killed and waited for when dropped, so a failed
/// check or a panic never leaves a daemon behind.
pub struct ChildGuard(pub Child);

impl ChildGuard {
    pub fn spawn(command: &mut Command) -> Result<Self, String> {
        command
            .spawn()
            .map(ChildGuard)
            .map_err(|e| format!("cannot start {:?}: {e}", command.get_program()))
    }

    pub fn id(&self) -> u32 {
        self.0.id()
    }
}

impl Drop for ChildGuard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Output of a CLI child that ran to completion.
pub struct Finished {
    pub stdout: Vec<u8>,
    pub success: bool,
}

/// Run `command` to completion (killed if the harness unwinds first),
/// capturing stdout and discarding stderr.
pub fn run_to_end(command: &mut Command) -> Result<Finished, String> {
    command
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    let mut child = ChildGuard::spawn(command)?;
    let mut stdout = Vec::new();
    child
        .0
        .stdout
        .take()
        .expect("stdout was piped")
        .read_to_end(&mut stdout)
        .map_err(|e| format!("reading child output: {e}"))?;
    let status = child
        .0
        .wait()
        .map_err(|e| format!("waiting for child: {e}"))?;
    Ok(Finished {
        stdout,
        success: status.success(),
    })
}

/// A directory under `benchmark/out/` for sockets and store files, removed
/// with everything in it when dropped.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn new(out_dir: &Path) -> Result<Self, String> {
        // A harness that was killed outright could not remove its own.
        for entry in fs::read_dir(out_dir).into_iter().flatten().flatten() {
            let name = entry.file_name();
            let dead = name
                .to_str()
                .and_then(|n| n.strip_prefix("run-"))
                .is_some_and(|pid| !Path::new("/proc").join(pid).exists());
            if dead {
                let _ = fs::remove_dir_all(entry.path());
            }
        }
        let dir = out_dir.join(format!("run-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// Where cargo put the release binaries: `$CARGO_TARGET_DIR` or `target`,
/// relative to the checkout root the harness runs from.
pub fn release_dir() -> PathBuf {
    PathBuf::from(std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into()))
        .join("release")
}

fn newest_source(dir: &Path, newest: &mut Option<(SystemTime, PathBuf)>) -> Result<(), String> {
    let entries = fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| e.to_string())?;
        let path = entry.path();
        let meta = entry.metadata().map_err(|e| e.to_string())?;
        if meta.is_dir() {
            if path.file_name().is_some_and(|n| n != "target") {
                newest_source(&path, newest)?;
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            let modified = meta.modified().map_err(|e| e.to_string())?;
            if newest.as_ref().is_none_or(|(t, _)| modified > *t) {
                *newest = Some((modified, path));
            }
        }
    }
    Ok(())
}

/// The `figures` binary to drive, refused if any `crates/**/*.rs` is newer
/// than it: numbers from a stale binary would be credited to the sources.
pub fn fresh_figures() -> Result<PathBuf, String> {
    let figures = release_dir().join("figures");
    let built = fs::metadata(&figures)
        .and_then(|m| m.modified())
        .map_err(|e| {
            format!(
                "{}: {e} (run benchmark/run.sh, which builds it)",
                figures.display()
            )
        })?;
    let mut newest = None;
    newest_source(Path::new("crates"), &mut newest)?;
    match newest {
        Some((modified, path)) if modified > built => Err(format!(
            "{} is older than {}; rebuild (benchmark/run.sh does) before measuring",
            figures.display(),
            path.display()
        )),
        _ => Ok(figures),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rusage_layout() {
        assert_eq!(std::mem::size_of::<RUsage>(), 144);
        let me = usage();
        assert!(me.peak_rss_mb > 0.5, "{me:?}");
        let again = usage();
        assert!(again.cpu_us >= me.cpu_us);
        // The other source of the same two numbers (`ru_maxrss` may also
        // count what the process held before `exec`, so only their order
        // of magnitude is comparable).
        let via_proc = proc_usage(std::process::id()).unwrap();
        assert!(via_proc.peak_rss_mb > 0.5, "{via_proc:?}");
        assert!(via_proc.cpu_us <= again.cpu_us + 1e6);
        let ticks = stat_cpu_us(std::process::id()).unwrap();
        assert!(
            (ticks - via_proc.cpu_us).abs() <= 1e6,
            "{ticks} {via_proc:?}"
        );
    }

    #[test]
    fn guards_clean_up() {
        // `cargo test` runs in the package directory; `out/` is git-ignored.
        let out = PathBuf::from("out").join(format!("selftest-{}", std::process::id()));
        let kept;
        {
            let scratch = Scratch::new(&out).unwrap();
            kept = scratch.path("x.sock");
            fs::write(&kept, b"x").unwrap();
            let child = ChildGuard::spawn(Command::new("sleep").arg("60")).unwrap();
            let pid = child.id();
            drop(child);
            assert!(!Path::new(&format!("/proc/{pid}/stat")).exists());
        }
        assert!(!kept.exists());
        let _ = fs::remove_dir_all(&out);
        let done = run_to_end(Command::new("sh").args(["-c", "echo hi; exit 3"])).unwrap();
        assert_eq!(done.stdout, b"hi\n");
        assert!(!done.success);
    }
}
