//! The built `figures` binary, end to end: what it prints, what it says on
//! stderr and how it exits.  `figures sweep` and the `figures serve` daemon
//! are one service behind two front ends, so their bytes are compared
//! here, on the binary a user runs, and the exit-code table is one list.

use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

fn figures(args: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args.split_whitespace())
        .stdin(Stdio::null())
        .output()
        .expect("figures runs")
}

/// `figures serve <flags>` fed `requests` on stdin, run to its end.
fn serve(flags: &str, requests: &str) -> Output {
    let mut daemon = Command::new(env!("CARGO_BIN_EXE_figures"))
        .arg("serve")
        .args(flags.split_whitespace())
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("figures serve starts");
    let mut stdin = daemon.stdin.take().expect("piped stdin");
    stdin.write_all(requests.as_bytes()).expect("requests sent");
    drop(stdin);
    daemon.wait_with_output().expect("figures serve ends")
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8(bytes.to_vec()).expect("utf-8 output")
}

/// A scratch directory of this test process, emptied.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("clover-cli-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch directory");
    dir
}

/// The quad-core CVA6 preset: its co-run is a few milliseconds of
/// simulation where the Ice Lake LLC takes seconds in a debug build.
const THRASH: &str = "--machine cva6-nowa --ranks 1..4 --aggressor thrash --jobs 1";

/// Every command line that is a usage error: exit 2, nothing on stdout, a
/// `figures…: <message>` line on stderr.
const USAGE_ERRORS: [&str; 40] = [
    "serve --store",
    "serve --socket",
    "serve --bogus",
    "serve --workers",
    "serve --socket /tmp/s.sock --workers 0",
    "serve --socket /tmp/s.sock --workers two",
    "serve --socket /tmp/s.sock --workers 2 --workers 3",
    "serve --workers 2",
    "serve --response-cache 8",
    "serve --store-cap 5",
    "serve --store /tmp/s.store --store-cap 0",
    "serve --store --socket /tmp/s.sock",
    "sweep --machine icx-8360y --ranks 1..4 --store",
    "sweep --machine icx-8360y --ranks 1..4 --store --json",
    "sweep --machine icx-8360y --ranks 1..4 --store-cap 5",
    "sweep --machine icx-8360y --ranks 1..4 --store s --store-cap 0",
    "sweep --machine no-such-machine --ranks 1..4",
    "sweep --machine icx-8360y --ranks 5..4",
    "sweep --machine icx-8360y --ranks 1..104",
    "sweep --machine icx-8360y --ranks 1..4 --jobs 0",
    "sweep --machine icx-8360y --ranks 1..3 --grid 18446744073709551615",
    "sweep --machine icx-8360y --ranks 1..4 --replacement fifo",
    "sweep --machine icx-8360y --ranks 1..4 --replacement lru --replacement all",
    "sweep --machine icx-8360y --ranks 1..4 --write-policy write-back",
    "sweep --machine icx-8360y --ranks 1..4 --write-policy all --write-policy allocate",
    "sweep --machine icx-8360y --ranks 1..4 --layer-condition maybe",
    "sweep --machine icx-8360y --ranks 1..4 --layer-condition ok --layer-condition ok",
    "sweep --machine icx-8360y --ranks 1..4 --aggressor rowhammer",
    "sweep --machine icx-8360y --ranks 1..4 --aggressor thrash --aggressor thrash",
    "sweep --machine icx-8360y --ranks 1..4 --aggressor all --aggressor stream",
    "sweep --machine icx-8360y --ranks 1..4 --interleave 0",
    "sweep --machine icx-8360y --ranks 1..4 --interleave 8 --interleave 8",
    "sweep --machine icx-8360y --ranks 1..4 --json --json",
    "interfere interfere-bogus",
    "interfere --quick",
    "bench",
    "--perturb NaN --check all",
    "--perturb inf table1",
    "--perturb -200 table1",
    "--check",
];

#[test]
fn exit_codes_are_0_1_for_out_of_tolerance_and_2_for_usage() {
    let listed = figures("list");
    assert_eq!(listed.status.code(), Some(0));
    assert!(text(&listed.stdout).contains("  table1\n"));
    let perturbed = figures("--perturb 10 --check table1");
    assert_eq!(perturbed.status.code(), Some(1), "a 10 % model error fails");
    for line in USAGE_ERRORS {
        let refused = figures(line);
        let stderr = text(&refused.stderr);
        assert_eq!(refused.status.code(), Some(2), "`{line}`: {stderr}");
        assert!(refused.stdout.is_empty(), "`{line}` printed to stdout");
        assert!(stderr.starts_with("figures"), "`{line}`: {stderr}");
    }
}

#[test]
fn a_path_flag_does_not_swallow_the_next_flag() {
    // `--store --json` used to exit 0, print CSV and write a store file
    // named `--json` into the working directory.
    let dir = scratch("swallow");
    let refused = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args("sweep --machine cva6-nowa --ranks 1..2 --store --json".split_whitespace())
        .current_dir(&dir)
        .output()
        .expect("figures runs");
    assert_eq!(refused.status.code(), Some(2));
    assert!(text(&refused.stderr).starts_with("figures sweep: --store needs a file path\n"));
    assert!(!dir.join("--json").exists(), "a store named `--json`");
    let refused = figures("serve --store --socket p");
    assert!(text(&refused.stderr).starts_with("figures serve: --store needs a file path\n"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sweep_prints_the_payload_the_daemon_frames() {
    let analytic = "--machine icx-8360y --grid 2000 --ranks 1..18 --stage all --jobs 2";
    for flags in [analytic.into(), format!("{analytic} --json"), THRASH.into()] {
        let cli = figures(&format!("sweep {flags}"));
        assert_eq!(cli.status.code(), Some(0), "{}", text(&cli.stderr));
        let daemon = serve("", &format!("sweep {flags}\nquit\n"));
        assert_eq!(daemon.status.code(), Some(0));
        let framed = format!("ok {}\n{}ok bye\n", cli.stdout.len(), text(&cli.stdout));
        assert_eq!(text(&daemon.stdout), framed, "sweep {flags}");
    }
}

#[test]
fn a_store_moves_when_a_co_run_is_simulated_never_a_byte_of_stdout() {
    let dir = scratch("store");
    let store = dir.join("sweeps.store");
    let storeless = figures(&format!("sweep {THRASH}"));
    let with_store = format!("sweep {THRASH} --store {}", store.display());
    let cold = figures(&with_store);
    let warm = figures(&with_store);
    assert_eq!(cold.stdout, storeless.stdout);
    assert_eq!(warm.stdout, storeless.stdout);
    let says = |run: &Output, what: &str| {
        let stderr = text(&run.stderr);
        assert!(stderr.contains(what), "`{what}` not in: {stderr}");
    };
    says(&cold, ": 2 co-run simulations saved (2 simulated now)");
    says(&warm, ": 2 co-run simulations warm");
    says(&warm, ": 2 co-run simulations saved (0 simulated now)");
    // The daemon over the same store answers the same bytes, warm.
    let flags = format!("--store {}", store.display());
    let daemon = serve(&flags, &format!("sweep {THRASH}\nstats\nquit\n"));
    let replies = text(&daemon.stdout);
    assert!(replies.contains("sim-hits 2 sim-misses 0 "), "{replies}");
    assert!(replies.ends_with("ok bye saved 2\n"), "{replies}");
    let payload: String = replies
        .split_inclusive('\n')
        .filter(|line| !line.starts_with("ok "))
        .collect();
    assert_eq!(payload, text(&storeless.stdout));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_store_that_cannot_be_saved_is_exit_1_and_a_line_on_stderr() {
    // A store path under a regular file: nothing can be written there.
    let dir = scratch("unwritable");
    let file = dir.join("file");
    std::fs::write(&file, "not a directory").expect("scratch file");
    let store = file.join("store");
    let failed = "save failed: ";
    let one_shot = figures(&format!("sweep {THRASH} --store {}", store.display()));
    assert_eq!(one_shot.status.code(), Some(1));
    assert!(text(&one_shot.stderr).contains(failed));
    assert_eq!(one_shot.stdout, figures(&format!("sweep {THRASH}")).stdout);
    // The daemon at EOF used to lose the failure without a word, exit 0.
    let flags = format!("--store {}", store.display());
    let at_eof = serve(&flags, &format!("sweep {THRASH}\n"));
    assert_eq!(at_eof.status.code(), Some(1));
    let stderr = text(&at_eof.stderr);
    assert!(stderr.contains("figures serve: save failed: "), "{stderr}");
    // Behind `quit` somebody reads the reply, so the reply says it.
    let at_quit = serve(&flags, "quit\n");
    assert_eq!(at_quit.status.code(), Some(0));
    assert!(text(&at_quit.stdout).starts_with("error save failed: "));
    let _ = std::fs::remove_dir_all(&dir);
}
