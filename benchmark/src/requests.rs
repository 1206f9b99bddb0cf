//! The seeded request mix of `serve_socket_mix` and the reader of the
//! daemon's framed responses.
//!
//! Same seed, same request list, byte for byte: the generator draws from
//! its own splitmix64 stream and nothing else.

use std::io::{self, BufRead};

/// The four machines every sweep workload spans; `--ranks 1..72` is valid
/// on each.
pub const MACHINES: [&str; 4] = [
    "icx-8360y",
    "spr-8470-sncon",
    "spr-8470-sncoff",
    "spr-8480plus",
];
const STAGES: [&str; 3] = ["original", "speci2m-off", "optimized"];
const REPLACEMENTS: [&str; 4] = ["lru", "plru", "srrip", "random"];
const WRITE_POLICIES: [&str; 3] = ["allocate", "no-allocate", "non-temporal"];
const LAYER_CONDITIONS: [&str; 2] = ["ok", "broken"];

/// Axis flags of the 20 736-point plan: `sweep_grid_cold` runs it, and
/// `serve_socket_mix` pre-computes it into the daemon's store so that every
/// point any request of the mix asks for is a `SweepMemo` hit.
pub fn wide_plan_flags() -> String {
    let machines: Vec<String> = MACHINES.iter().map(|m| format!("--machine {m}")).collect();
    format!("{} {WIDE_AXES}", machines.join(" "))
}

/// The Ice Lake quarter of the wide plan (5 184 points): what the store
/// probes save, load and sweep from the command line.
pub fn icx_plan_flags() -> String {
    format!("--machine icx-8360y {WIDE_AXES}")
}

const WIDE_AXES: &str =
    "--ranks 1..72 --stage all --replacement all --write-policy all --layer-condition all";

/// The two `tenancy` requests: one co-run identity, two response keys.
pub const TENANCY_RANGES: [&str; 2] = ["1..36", "37..72"];

pub fn tenancy_flags(range: &str) -> String {
    format!("--machine icx-8360y --ranks {range} --aggressor thrash")
}

pub fn words(flags: &str) -> Vec<String> {
    flags.split_whitespace().map(str::to_string).collect()
}

/// splitmix64: a full-period 64-bit generator in three lines, so the
/// request list depends on nothing outside this file.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    /// Independent stream for `(seed, a, b)`.
    pub fn stream(seed: u64, a: u64, b: u64) -> Self {
        let mut r = Rng(seed ^ a.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ b.rotate_left(32));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
        items[self.below(items.len())]
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// A hot-set request: a response-cache hit once the cache is warm.
    Repeat,
    /// A random sub-range request: a response-cache miss and a re-render.
    Overlap,
    /// `Overlap` with `--json`.
    Json,
    /// `ping` / `stats`.
    Control,
    /// A request the daemon must refuse with the `error sweep: …` line.
    Reject,
}

impl Class {
    pub fn name(self) -> &'static str {
        match self {
            Class::Repeat => "repeat",
            Class::Overlap => "overlap",
            Class::Json => "json",
            Class::Control => "control",
            Class::Reject => "reject",
        }
    }
}

/// What a correct answer to a request looks like.
#[derive(Debug, Clone, PartialEq)]
pub enum Expect {
    /// The payload of hot-set entry `i`, byte for byte.
    Hot(usize),
    /// One scenario on `machine` over `rows` rank counts starting at
    /// `first`; `check_reference` marks the sampled 1 % that is recomputed
    /// on the un-memoized `evaluate` path.
    Sweep {
        machine: &'static str,
        first: usize,
        rows: usize,
        json: bool,
        check_reference: bool,
    },
    /// A response line starting with this prefix.
    LinePrefix(&'static str),
    /// The `error sweep: …` line for this request (index into the
    /// generator's reject table).
    Rejected(usize),
}

#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    pub class: Class,
    /// The request line, without the newline.
    pub line: String,
    pub expect: Expect,
}

impl Request {
    /// Scaling points a correct answer carries.
    pub fn points(&self) -> u64 {
        match &self.expect {
            Expect::Hot(i) => hot_points(*i),
            Expect::Sweep { rows, .. } => *rows as u64,
            _ => 0,
        }
    }
}

pub const HOT_SET: usize = 32;
const HOT_RANGES: [(usize, usize); 4] = [(1, 72), (1, 36), (37, 72), (1, 18)];

fn hot_axes(i: usize) -> (&'static str, (usize, usize), bool) {
    (MACHINES[i % 4], HOT_RANGES[(i / 4) % 4], i < 16)
}

fn hot_points(i: usize) -> u64 {
    let (_, (a, b), all_stages) = hot_axes(i);
    ((b - a + 1) * if all_stages { 3 } else { 1 }) as u64
}

/// Request line of hot-set entry `i` (4 machines × 4 rank ranges × {all
/// stages, original only}).  `spelling` 0 is the canonical line; 1 spells
/// the stages out one by one, 2 pins every defaulted axis to its default,
/// 3 asks for other `--jobs` — all four must hit the same response-cache
/// entry.
pub fn hot_line(i: usize, spelling: usize) -> String {
    let (machine, (a, b), all_stages) = hot_axes(i);
    let stage = match (all_stages, spelling) {
        (true, 1) => " --stage original --stage speci2m-off --stage optimized",
        (true, _) => " --stage all",
        (false, 1) => " --stage original",
        (false, _) => "",
    };
    let pinned = if spelling == 2 {
        " --grid 15360 --replacement lru --write-policy allocate --layer-condition ok \
         --aggressor none --interleave 64"
    } else {
        ""
    };
    let jobs = if spelling == 3 { 2 } else { 1 };
    format!("sweep --machine {machine} --ranks {a}..{b}{stage}{pinned} --jobs {jobs}")
}

/// Requests the daemon must refuse: an unknown machine and an empty range.
pub const REJECT_LINES: [&str; 2] = [
    "sweep --machine epyc-9654 --ranks 1..8 --jobs 1",
    "sweep --machine icx-8360y --ranks 9..8 --jobs 1",
];

/// `n` requests of the mix for connection `conn` in block `block`:
/// 70 % repeat (Zipf over the hot set, a quarter respelled), 24 % overlap,
/// 4 % json, 1 % control, 1 % reject.
pub fn generate(seed: u64, block: u64, conn: u64, n: usize) -> Vec<Request> {
    let mut rng = Rng::stream(seed, block, conn);
    // Zipf(1) over the hot set: cumulative weights 1/k.
    let mut cumulative = Vec::with_capacity(HOT_SET);
    let mut total = 0.0;
    for k in 1..=HOT_SET {
        total += 1.0 / k as f64;
        cumulative.push(total);
    }
    (0..n)
        .map(|_| {
            let u = rng.unit();
            if u < 0.70 {
                let z = rng.unit() * total;
                let i = cumulative.partition_point(|&c| c <= z).min(HOT_SET - 1);
                let spelling = if rng.below(4) == 0 {
                    1 + rng.below(3)
                } else {
                    0
                };
                Request {
                    class: Class::Repeat,
                    line: hot_line(i, spelling),
                    expect: Expect::Hot(i),
                }
            } else if u < 0.98 {
                let json = u >= 0.94;
                let machine = rng.pick(&MACHINES);
                let first = 1 + rng.below(72);
                let rows = 1 + rng.below(72 - first + 1);
                let line = format!(
                    "sweep --machine {machine} --ranks {first}..{} --stage {} --replacement {} \
                     --write-policy {} --layer-condition {} --jobs 1{}",
                    first + rows - 1,
                    rng.pick(&STAGES),
                    rng.pick(&REPLACEMENTS),
                    rng.pick(&WRITE_POLICIES),
                    rng.pick(&LAYER_CONDITIONS),
                    if json { " --json" } else { "" },
                );
                Request {
                    class: if json { Class::Json } else { Class::Overlap },
                    line,
                    expect: Expect::Sweep {
                        machine,
                        first,
                        rows,
                        json,
                        check_reference: rng.below(100) == 0,
                    },
                }
            } else if u < 0.99 {
                let (line, prefix) = if rng.below(2) == 0 {
                    ("ping", "ok pong")
                } else {
                    ("stats", "ok stats sweep-hits ")
                };
                Request {
                    class: Class::Control,
                    line: line.to_string(),
                    expect: Expect::LinePrefix(prefix),
                }
            } else {
                let i = rng.below(REJECT_LINES.len());
                Request {
                    class: Class::Reject,
                    line: REJECT_LINES[i].to_string(),
                    expect: Expect::Rejected(i),
                }
            }
        })
        .collect()
}

/// One response of the daemon.
#[derive(Debug, PartialEq, Eq)]
pub enum Reply {
    /// `ok <n>\n` followed by exactly `n` payload bytes.
    Payload(Vec<u8>),
    /// Any other single line (`ok pong`, `ok stats …`, `error …`), without
    /// its newline.
    Line(String),
}

/// Read one framed response.  A header of exactly `ok <digits>` announces
/// a payload of that many bytes; anything else is a one-line response.
/// A connection closed before the frame is complete is an error.
pub fn read_reply(reader: &mut impl BufRead) -> io::Result<Reply> {
    let mut header = String::new();
    if reader.read_line(&mut header)? == 0 || !header.ends_with('\n') {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed inside a response header",
        ));
    }
    header.pop();
    let announced = header
        .strip_prefix("ok ")
        .filter(|n| !n.is_empty() && n.bytes().all(|b| b.is_ascii_digit()))
        .and_then(|n| n.parse::<usize>().ok());
    match announced {
        // The largest payload any workload asks for is under 1 MiB; a
        // header announcing far more is a broken daemon, not a buffer size.
        Some(n) if n > (64 << 20) => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("response announces {n} bytes"),
        )),
        Some(n) => {
            let mut payload = vec![0; n];
            reader.read_exact(&mut payload)?;
            Ok(Reply::Payload(payload))
        }
        None => Ok(Reply::Line(header)),
    }
}

/// Check the shape of a sweep payload that is not compared byte for byte:
/// the scenario id of the requested machine and range, and one line per
/// rank count (text) or the closing bracket (JSON).
pub fn sweep_shape_ok(
    payload: &[u8],
    machine: &str,
    first: usize,
    rows: usize,
    json: bool,
) -> bool {
    let id = format!("sweep-{machine}-g15360-r{first}..{}-", first + rows - 1);
    if json {
        payload.starts_with(format!("[{{\"id\":\"{id}").as_bytes()) && payload.ends_with(b"}]\n")
    } else {
        // header, column names, one line per rank count, note, blank line
        payload.starts_with(format!("==== {id}").as_bytes())
            && payload.iter().filter(|&&b| b == b'\n').count() == rows + 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    /// A reader that hands out one byte per `read`, like a slow socket.
    struct Trickle<'a>(&'a [u8]);

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            match (self.0.split_first(), buf.first_mut()) {
                (Some((&b, rest)), Some(slot)) => {
                    *slot = b;
                    self.0 = rest;
                    Ok(1)
                }
                _ => Ok(0),
            }
        }
    }

    fn replies(bytes: &[u8]) -> Vec<io::Result<Reply>> {
        // Capacity 1 forces a refill per byte: every short-read path runs.
        let mut reader = io::BufReader::with_capacity(1, Trickle(bytes));
        let mut out = Vec::new();
        loop {
            let reply = read_reply(&mut reader);
            let done = reply.is_err();
            out.push(reply);
            if done {
                return out;
            }
        }
    }

    #[test]
    fn framed_reader_handles_payloads_lines_and_short_reads() {
        let got = replies(
            b"ok 5\nab\ncdok pong\nerror sweep: no\nok 0\nok saved 12\nok stats sweep-hits 3\n",
        );
        let ok: Vec<Reply> = got
            .iter()
            .filter_map(|r| r.as_ref().ok())
            .map(|r| match r {
                Reply::Payload(p) => Reply::Payload(p.clone()),
                Reply::Line(l) => Reply::Line(l.clone()),
            })
            .collect();
        assert_eq!(
            ok,
            vec![
                Reply::Payload(b"ab\ncd".to_vec()),
                Reply::Line("ok pong".into()),
                Reply::Line("error sweep: no".into()),
                Reply::Payload(Vec::new()),
                Reply::Line("ok saved 12".into()),
                Reply::Line("ok stats sweep-hits 3".into()),
            ]
        );
        // The stream then ends cleanly between frames: still an error to
        // the caller, who was waiting for a response.
        assert_eq!(got.len(), 7);
        assert!(got[6].is_err());
    }

    #[test]
    fn truncated_frames_are_errors() {
        assert!(replies(b"ok 10\nshort")[0].is_err());
        assert!(replies(b"ok pon")[0].is_err());
        assert!(replies(b"ok 99999999999\n")[0].is_err());
    }

    #[test]
    fn same_seed_same_request_list() {
        let a = generate(7, 3, 1, 2000);
        assert_eq!(a, generate(7, 3, 1, 2000));
        assert_ne!(a, generate(8, 3, 1, 2000));
        assert_ne!(a, generate(7, 4, 1, 2000));
        assert_ne!(a, generate(7, 3, 0, 2000));
        let lines = |reqs: &[Request]| {
            reqs.iter()
                .map(|r| r.line.clone())
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(lines(&a), lines(&generate(7, 3, 1, 2000)));
    }

    #[test]
    fn mix_has_the_stated_shares_and_valid_ranges() {
        let reqs = generate(1, 0, 0, 20_000);
        let share =
            |c: Class| reqs.iter().filter(|r| r.class == c).count() as f64 / reqs.len() as f64;
        assert!((share(Class::Repeat) - 0.70).abs() < 0.02);
        assert!((share(Class::Overlap) - 0.24).abs() < 0.02);
        assert!((share(Class::Json) - 0.04).abs() < 0.01);
        assert!((share(Class::Control) - 0.01).abs() < 0.005);
        assert!((share(Class::Reject) - 0.01).abs() < 0.005);
        for r in &reqs {
            if let Expect::Sweep { first, rows, .. } = r.expect {
                assert!(
                    first >= 1 && rows >= 1 && first + rows - 1 <= 72,
                    "{}",
                    r.line
                );
            }
        }
        // Zipf: the hottest entry is asked for far more often than the coldest.
        let hot = |i: usize| reqs.iter().filter(|r| r.expect == Expect::Hot(i)).count();
        assert!(hot(0) > 8 * hot(HOT_SET - 1));
        assert!(hot(HOT_SET - 1) > 0);
        // About a quarter of the repeats are respelled.
        let canonical: Vec<String> = (0..HOT_SET).map(|i| hot_line(i, 0)).collect();
        let respelled = reqs
            .iter()
            .filter(|r| r.class == Class::Repeat && !canonical.contains(&r.line))
            .count() as f64;
        let repeats = reqs.iter().filter(|r| r.class == Class::Repeat).count() as f64;
        assert!((respelled / repeats - 0.25).abs() < 0.03);
    }

    #[test]
    fn shape_check_accepts_the_cli_format_only() {
        let text = b"==== sweep-icx-8360y-g15360-r3..4-original ====\nranks,prime\n3,1\n4,0\n# machine: x\n\n";
        assert!(sweep_shape_ok(text, "icx-8360y", 3, 2, false));
        assert!(!sweep_shape_ok(text, "icx-8360y", 3, 3, false));
        assert!(!sweep_shape_ok(text, "spr-8480plus", 3, 2, false));
        let json = b"[{\"id\":\"sweep-icx-8360y-g15360-r3..4-original\",\"rows\":[]}]\n";
        assert!(sweep_shape_ok(json, "icx-8360y", 3, 2, true));
        assert!(!sweep_shape_ok(text, "icx-8360y", 3, 2, true));
    }
}
