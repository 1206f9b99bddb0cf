//! Bit-exact on-disk persistence of the co-run simulations.
//!
//! A store file holds what costs more to recompute than to load: the
//! `CoRunKey → Vec<TenantReport>` table of a [`SimMemo`] — one entry per
//! pass over a shared LLC (a victim beside an aggressor, or alone as the
//! baseline every aggressor shares), up to hundreds of milliseconds each.
//! Analytic scaling points are *not* persisted: evaluating one is cheaper
//! than parsing the line that would hold it.  The file is versioned by the
//! [`model_hash`] of the binary that wrote it;
//! the format is a line-based text codec (a `corun` record is one line):
//!
//! ```text
//! cloverstore 5 <model-hash hex>
//! corun <9 environment tokens> <cores> <n> <n kernels>
//!       <interleave lines> <n × 9 report tokens>
//! end <entry count>
//! ```
//!
//! A report is the six counters, LLC hits, LLC misses and occupancy; the
//! interleave of a one-tenant line is `u64::MAX` (its key carries none).
//! Every `f64` is written as the hex rendering of its IEEE-754 bit
//! pattern, so a load restores the exact value bit for bit — the property
//! that keeps warm-start sweep output byte-identical to a cold run.
//! Strings (machine ids) are percent-escaped so the whitespace tokenizer
//! cannot be confused.  The `end <count>` trailer detects truncated files
//! (a crash mid-write, though the atomic temp-file + rename in
//! [`PersistentStore::save`] makes that unlikely).
//!
//! Loading is *tolerant*: a missing, stale or corrupt file yields no
//! entries plus a [`LoadOutcome`] explaining why — never an error, because
//! the memo contents are pure caches that can always be rebuilt.  Stale
//! covers a model-hash mismatch and a file of a retired format
//! (`cloverstore 1` to `4`) alike: neither is parsed, and the next save
//! replaces it.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use clover_cachesim::memo::{Accounting, CoRunKey, Dynamics, KernelSpec, RankBase, SpecOperand};
use clover_cachesim::{AccessKind, MemCounters, SimMemo, TenantReport};
use clover_core::SweepMemo;
use clover_machine::WritePolicyKind;

use crate::model::model_hash;

/// Result of loading a store file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadOutcome {
    /// The store was valid: this many entries were loaded.
    Warm(usize),
    /// No store file exists yet (first run).
    ColdMissing,
    /// The store was written under a different model hash — the presets,
    /// policies or schema changed, so every entry is untrusted — or in a
    /// retired format (`cloverstore 1` to `4`).
    ColdStale,
    /// The store exists but is unreadable, truncated or malformed.
    ColdCorrupt,
}

impl LoadOutcome {
    /// Number of entries actually loaded (0 for every cold outcome).
    pub fn loaded(&self) -> usize {
        match self {
            LoadOutcome::Warm(n) => *n,
            _ => 0,
        }
    }
}

/// What a front end tells its user about a load, behind its own `figures
/// <verb>: store <path>: ` prefix.
impl std::fmt::Display for LoadOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadOutcome::Warm(n) => write!(f, "{n} co-run simulations warm"),
            LoadOutcome::ColdMissing => f.write_str("starting cold"),
            LoadOutcome::ColdStale => f.write_str("model hash or format changed, rebuilding"),
            LoadOutcome::ColdCorrupt => f.write_str("unreadable or truncated, rebuilding"),
        }
    }
}

/// One persisted co-run pass: its identity and the per-tenant reports in
/// the key's canonical tenant order.
pub type CoRunEntry = (CoRunKey, Vec<TenantReport>);

/// A versioned on-disk memo store at a fixed path.
#[derive(Debug, Clone)]
pub struct PersistentStore {
    path: PathBuf,
    model_hash: u64,
}

impl PersistentStore {
    /// A store at `path`, versioned by the current [`model_hash`].
    pub fn new(path: impl Into<PathBuf>) -> Self {
        Self {
            path: path.into(),
            model_hash: model_hash(),
        }
    }

    /// A store versioned by an explicit hash — lets tests write a store
    /// "from the past" and watch the invalidation path rebuild it.
    pub fn with_hash(path: impl Into<PathBuf>, model_hash: u64) -> Self {
        Self {
            path: path.into(),
            model_hash,
        }
    }

    /// The store file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The model hash this store reads and writes under.
    pub fn model_hash(&self) -> u64 {
        self.model_hash
    }

    /// Load the store file.  Never fails: a missing, stale or corrupt
    /// file yields no entries and the matching [`LoadOutcome`].
    pub fn load(&self) -> (Vec<CoRunEntry>, LoadOutcome) {
        let text = match fs::read_to_string(&self.path) {
            Ok(text) => text,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                return (Vec::new(), LoadOutcome::ColdMissing)
            }
            Err(_) => return (Vec::new(), LoadOutcome::ColdCorrupt),
        };
        match parse_store(&text, self.model_hash) {
            Ok(entries) => {
                let n = entries.len();
                (entries, LoadOutcome::Warm(n))
            }
            Err(cold) => (Vec::new(), cold),
        }
    }

    /// Load the store file and publish its entries into `sim`'s co-run
    /// table (via `corun_preload`, which never clobbers existing entries
    /// and never touches hit/miss statistics).
    ///
    /// `_sweep` is unread: analytic points are not persisted.  The
    /// parameter stays, here and on the two saves, until the `benchmark/`
    /// harness that passes it can change with it (ROADMAP item 1).
    pub fn warm_load(&self, sim: &SimMemo, _sweep: &SweepMemo) -> LoadOutcome {
        let (entries, outcome) = self.load();
        sim.corun_preload(entries);
        outcome
    }

    /// Atomically write the co-run table of `sim` to the store file: the
    /// snapshot is rendered to a temp file in the same directory and
    /// renamed over the target, so a crash mid-write leaves either the old
    /// store or the new one, never a torn file.  Entries are written in
    /// sorted line order, so equal memo contents produce a byte-identical
    /// file.
    pub fn save(&self, sim: &SimMemo, sweep: &SweepMemo) -> io::Result<usize> {
        self.save_capped(sim, sweep, usize::MAX).map(|r| r.written)
    }

    /// [`save`](Self::save) bounded to at most `cap` entries: when the
    /// memo holds more, the *least recently touched* entries (lowest
    /// access stamp — preloaded-and-never-used entries sort first, see
    /// `FlightMemo::entries_stamped`) are evicted from the written file.
    /// The memo itself is untouched; compaction only bounds what the
    /// next process warm-loads, so an unbounded corpus stops growing the
    /// store and its load cost forever.  The write path is the same
    /// atomic temp-file + rename codec as an uncapped save.
    pub fn save_capped(
        &self,
        sim: &SimMemo,
        _sweep: &SweepMemo,
        cap: usize,
    ) -> io::Result<SaveReport> {
        let mut stamped: Vec<(u64, String)> = sim
            .corun_entries_stamped()
            .into_iter()
            .map(|(key, reports, stamp)| (stamp, encode_corun(&key, &reports)))
            .collect();
        let evicted = stamped.len().saturating_sub(cap);
        if evicted > 0 {
            // Keep the `cap` most recently touched entries; equal stamps
            // tie-break on the encoded line so the kept set (and thus the
            // file) stays deterministic for equal memo states.
            stamped.sort_unstable_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
            stamped.truncate(cap);
        }
        let mut lines: Vec<String> = stamped.into_iter().map(|(_, line)| line).collect();
        lines.sort_unstable();
        let count = lines.len();

        let mut text = format!("cloverstore 5 {:016x}\n", self.model_hash);
        for line in &lines {
            text.push_str(line);
            text.push('\n');
        }
        let _ = writeln!(text, "end {count}");

        if let Some(dir) = self.path.parent().filter(|d| !d.as_os_str().is_empty()) {
            fs::create_dir_all(dir)?;
        }
        // A temp name of its own per save: concurrent saves (pool workers
        // whose clients disconnect together, a daemon beside a `figures
        // sweep --store`) must never write one temp file at once.  Same
        // directory, so the rename stays atomic.
        static SAVE_SEQ: AtomicU64 = AtomicU64::new(0);
        let mut tmp = self.path.clone().into_os_string();
        tmp.push(format!(
            ".tmp.{}.{}",
            std::process::id(),
            SAVE_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        if let Err(e) = fs::write(&tmp, &text).and_then(|()| fs::rename(&tmp, &self.path)) {
            let _ = fs::remove_file(&tmp);
            return Err(e);
        }
        Ok(SaveReport {
            written: count,
            evicted,
        })
    }
}

/// What a capped save did (see [`PersistentStore::save_capped`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SaveReport {
    /// Entries written to the store file.
    pub written: usize,
    /// Entries the cap evicted from the written file (0 when everything
    /// fit — the save was an ordinary uncapped one).
    pub evicted: usize,
}

/// The entries of a store file's `text`, or the cold outcome it loads as.
fn parse_store(text: &str, expected_hash: u64) -> Result<Vec<CoRunEntry>, LoadOutcome> {
    use LoadOutcome::{ColdCorrupt as Corrupt, ColdStale as Stale};
    let mut lines = text.lines();
    let header = lines.next().ok_or(Corrupt)?;
    let mut head = header.split_whitespace();
    if head.next() != Some("cloverstore") {
        return Err(Corrupt);
    }
    match head.next() {
        Some("5") => {}
        // A retired format, whatever its hash: nothing below the header
        // is read, the next save rebuilds the file.
        Some("1" | "2" | "3" | "4") => return Err(Stale),
        _ => return Err(Corrupt),
    }
    let hash = head
        .next()
        .and_then(|t| u64::from_str_radix(t, 16).ok())
        .ok_or(Corrupt)?;
    if head.next().is_some() {
        return Err(Corrupt);
    }
    if hash != expected_hash {
        return Err(Stale);
    }

    let mut entries = Vec::new();
    let mut ended = false;
    for line in lines {
        if ended {
            // Trailing garbage after the `end` trailer.
            return Err(Corrupt);
        }
        let tokens: Vec<&str> = line.split_whitespace().collect();
        match tokens.first() {
            Some(&"corun") => {
                let mut cur = Cursor::new(&tokens[1..]);
                let entry = decode_corun(&mut cur).ok_or(Corrupt)?;
                if !cur.done() {
                    return Err(Corrupt);
                }
                entries.push(entry);
            }
            Some(&"end") => {
                let count: usize = tokens.get(1).and_then(|t| t.parse().ok()).ok_or(Corrupt)?;
                if tokens.len() != 2 || count != entries.len() {
                    return Err(Corrupt);
                }
                ended = true;
            }
            _ => return Err(Corrupt),
        }
    }
    if !ended {
        // Truncated: the `end <count>` trailer never arrived.
        return Err(Corrupt);
    }
    Ok(entries)
}

// ---------------------------------------------------------------------------
// Token-level codec

/// Percent-escape a string so it survives the whitespace tokenizer.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '%' => out.push_str("%25"),
            ' ' => out.push_str("%20"),
            '\t' => out.push_str("%09"),
            '\n' => out.push_str("%0A"),
            '\r' => out.push_str("%0D"),
            c => out.push(c),
        }
    }
    // An empty string still needs a token on the line.
    if out.is_empty() {
        out.push_str("%00");
    }
    out
}

fn unesc(token: &str) -> Option<String> {
    if token == "%00" {
        return Some(String::new());
    }
    let mut out = String::with_capacity(token.len());
    let mut chars = token.chars();
    while let Some(c) = chars.next() {
        if c != '%' {
            out.push(c);
            continue;
        }
        let hi = chars.next()?;
        let lo = chars.next()?;
        let byte = u8::from_str_radix(&format!("{hi}{lo}"), 16).ok()?;
        out.push(byte as char);
    }
    Some(out)
}

struct Cursor<'a, 'b> {
    tokens: &'a [&'b str],
    pos: usize,
}

impl<'a, 'b> Cursor<'a, 'b> {
    fn new(tokens: &'a [&'b str]) -> Self {
        Self { tokens, pos: 0 }
    }

    fn done(&self) -> bool {
        self.pos == self.tokens.len()
    }

    fn next(&mut self) -> Option<&'b str> {
        let t = self.tokens.get(self.pos)?;
        self.pos += 1;
        Some(t)
    }

    fn string(&mut self) -> Option<String> {
        unesc(self.next()?)
    }

    fn usize(&mut self) -> Option<usize> {
        self.next()?.parse().ok()
    }

    /// A count of items that follow on the line.  Each item is at least
    /// one token, so a count beyond the tokens left is a lie — refused
    /// here, before anything is allocated for it.
    fn count(&mut self) -> Option<usize> {
        let n = self.usize()?;
        (n <= self.tokens.len() - self.pos).then_some(n)
    }

    fn u64(&mut self) -> Option<u64> {
        self.next()?.parse().ok()
    }

    fn u32(&mut self) -> Option<u32> {
        self.next()?.parse().ok()
    }

    fn i64(&mut self) -> Option<i64> {
        self.next()?.parse().ok()
    }

    fn bits(&mut self) -> Option<u64> {
        u64::from_str_radix(self.next()?, 16).ok()
    }

    fn f64(&mut self) -> Option<f64> {
        Some(f64::from_bits(self.bits()?))
    }

    fn bool(&mut self) -> Option<bool> {
        match self.next()? {
            "0" => Some(false),
            "1" => Some(true),
            _ => None,
        }
    }

    fn write_policy(&mut self) -> Option<WritePolicyKind> {
        WritePolicyKind::parse(self.next()?)
    }
}

fn bool_token(b: bool) -> &'static str {
    if b {
        "1"
    } else {
        "0"
    }
}

fn kind_name(k: AccessKind) -> &'static str {
    match k {
        AccessKind::Load => "load",
        AccessKind::Store => "store",
        AccessKind::StoreNT => "store-nt",
    }
}

fn parse_kind(token: &str) -> Option<AccessKind> {
    match token {
        "load" => Some(AccessKind::Load),
        "store" => Some(AccessKind::Store),
        "store-nt" => Some(AccessKind::StoreNT),
        _ => None,
    }
}

fn encode_kernel(out: &mut String, kernel: &KernelSpec) {
    match kernel.rank_base {
        RankBase::Shared => out.push_str(" shared"),
        RankBase::Shifted { shift, plus } => {
            let _ = write!(out, " shifted {shift} {plus}");
        }
    }
    let _ = write!(out, " {}", kernel.operands.len());
    for op in &kernel.operands {
        let _ = write!(out, " {} {}", op.offset, op.points.len());
        for (di, dk) in &op.points {
            let _ = write!(out, " {di} {dk}");
        }
        let _ = write!(out, " {}", kind_name(op.kind));
    }
    let _ = write!(
        out,
        " {} {} {} {} {}",
        kernel.row_stride, kernel.i0, kernel.inner, kernel.k0, kernel.rows
    );
}

fn decode_kernel(cur: &mut Cursor) -> Option<KernelSpec> {
    let rank_base = match cur.next()? {
        "shared" => RankBase::Shared,
        "shifted" => RankBase::Shifted {
            shift: cur.u32()?,
            plus: cur.u64()?,
        },
        _ => return None,
    };
    let n_ops = cur.count()?;
    let mut operands = Vec::with_capacity(n_ops);
    for _ in 0..n_ops {
        let offset = cur.u64()?;
        let n_points = cur.count()?;
        let mut points = Vec::with_capacity(n_points);
        for _ in 0..n_points {
            points.push((cur.i64()?, cur.i64()?));
        }
        let kind = parse_kind(cur.next()?)?;
        operands.push(SpecOperand {
            offset,
            points,
            kind,
        });
    }
    Some(KernelSpec {
        rank_base,
        operands,
        row_stride: cur.u64()?,
        i0: cur.u64()?,
        inner: cur.u64()?,
        k0: cur.u64()?,
        rows: cur.u64()?,
    })
}

fn encode_counters(out: &mut String, c: &MemCounters) {
    for v in [
        c.read_lines,
        c.write_lines,
        c.itom_lines,
        c.write_allocate_lines,
        c.prefetch_lines,
        c.speculative_read_lines,
    ] {
        let _ = write!(out, " {:016x}", v.to_bits());
    }
}

fn decode_counters(cur: &mut Cursor) -> Option<MemCounters> {
    Some(MemCounters {
        read_lines: cur.f64()?,
        write_lines: cur.f64()?,
        itom_lines: cur.f64()?,
        write_allocate_lines: cur.f64()?,
        prefetch_lines: cur.f64()?,
        speculative_read_lines: cur.f64()?,
    })
}

fn encode_corun(key: &CoRunKey, reports: &[TenantReport]) -> String {
    let (d, a) = (&key.dynamics, &key.accounting);
    let mut out = String::from("corun ");
    out.push_str(&esc(&d.machine));
    let _ = write!(
        out,
        " {:016x} {} {} {} {} {:016x} {} {} {} {}",
        a.utilization_bits,
        a.active_domains,
        a.total_domains,
        bool_token(a.speci2m_enabled),
        bool_token(d.adjacent_line),
        a.pf_off_evasion_bits,
        d.l3_sharers,
        d.write_policy.name(),
        key.cores,
        key.tenants.len(),
    );
    for kernel in &key.tenants {
        encode_kernel(&mut out, kernel);
    }
    let _ = write!(out, " {}", key.interleave_lines);
    for r in reports {
        encode_counters(&mut out, &r.counters);
        let _ = write!(
            out,
            " {} {} {}",
            r.llc_hits, r.llc_misses, r.occupancy_lines
        );
    }
    out
}

fn decode_corun(cur: &mut Cursor) -> Option<CoRunEntry> {
    // Token order is the line format, not the key's structure: dynamics
    // and accounting fields interleave.
    let machine = cur.string()?;
    let utilization_bits = cur.bits()?;
    let active_domains = cur.usize()?;
    let total_domains = cur.usize()?;
    let speci2m_enabled = cur.bool()?;
    let adjacent_line = cur.bool()?;
    let pf_off_evasion_bits = cur.bits()?;
    let l3_sharers = cur.usize()?;
    let write_policy = cur.write_policy()?;
    let cores = cur.usize()?;
    // One report per tenant: the one count sizes both lists.
    let n = cur.count()?;
    let mut tenants = Vec::with_capacity(n);
    for _ in 0..n {
        tenants.push(decode_kernel(cur)?);
    }
    let interleave_lines = cur.u64()?;
    let mut reports = Vec::with_capacity(n);
    for _ in 0..n {
        reports.push(TenantReport {
            counters: decode_counters(cur)?,
            llc_hits: cur.u64()?,
            llc_misses: cur.u64()?,
            occupancy_lines: cur.u64()?,
        });
    }
    Some((
        CoRunKey {
            dynamics: Dynamics {
                machine,
                adjacent_line,
                l3_sharers,
                write_policy,
            },
            accounting: Accounting {
                utilization_bits,
                active_domains,
                total_domains,
                speci2m_enabled,
                pf_off_evasion_bits,
            },
            cores,
            tenants,
            interleave_lines,
        },
        reports,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A two-tenant co-run in canonical tenant order: a rank-shifted
    /// kernel with a two-point load operand and a `store-nt` one, next to
    /// a one-operand reuse kernel; no two values of a report are equal.
    fn sample_corun_entry() -> CoRunEntry {
        let stencil = KernelSpec {
            rank_base: RankBase::Shifted { shift: 36, plus: 1 },
            operands: vec![
                SpecOperand {
                    offset: 0,
                    points: vec![(0, 0), (-1, 1)],
                    kind: AccessKind::Load,
                },
                SpecOperand {
                    offset: 1 << 30,
                    points: vec![(0, 0)],
                    kind: AccessKind::StoreNT,
                },
            ],
            row_stride: 221,
            i0: 2,
            inner: 216,
            k0: 1,
            rows: 4,
        };
        let reuse = KernelSpec {
            rank_base: RankBase::Shifted { shift: 40, plus: 0 },
            operands: vec![SpecOperand {
                offset: 0,
                points: vec![(0, 0)],
                kind: AccessKind::Load,
            }],
            row_stride: 0,
            i0: 0,
            inner: 1_769_472,
            k0: 0,
            rows: 3,
        };
        let key = CoRunKey {
            dynamics: Dynamics {
                machine: "spr 8470".into(),
                adjacent_line: true,
                l3_sharers: 26,
                write_policy: WritePolicyKind::NoAllocate,
            },
            accounting: Accounting {
                utilization_bits: 0.75f64.to_bits(),
                active_domains: 3,
                total_domains: 8,
                speci2m_enabled: false,
                pf_off_evasion_bits: 0.55f64.to_bits(),
            },
            cores: 3,
            tenants: vec![stencil, reuse],
            interleave_lines: 64,
        };
        let counters = |v: [f64; 6]| MemCounters {
            read_lines: v[0],
            write_lines: v[1],
            itom_lines: v[2],
            write_allocate_lines: v[3],
            prefetch_lines: v[4],
            speculative_read_lines: v[5],
        };
        let reports = vec![
            TenantReport {
                // 0.1 + 0.2 is deliberately not exactly 0.3.
                counters: counters([1234.5, 0.1 + 0.2, f64::MIN_POSITIVE, 1e300, 0.0, -0.0]),
                llc_hits: 7,
                llc_misses: 11,
                occupancy_lines: 19,
            },
            TenantReport {
                counters: counters([4.0, 5.0, 6.0, 7.0, 8.0, 9.0]),
                llc_hits: 1,
                llc_misses: 2,
                occupancy_lines: 5,
            },
        ];
        (key, reports)
    }

    /// The sample entry under another interleave: a distinct identity.
    fn sample_with_interleave(interleave_lines: u64) -> CoRunEntry {
        let (key, reports) = sample_corun_entry();
        (
            CoRunKey {
                interleave_lines,
                ..key
            },
            reports,
        )
    }

    /// The sample entry as a literal `cloverstore 5` line.
    const CORUN_LINE: &str = "corun spr%208470 3fe8000000000000 3 8 0 1 3fe199999999999a 26 \
        no-allocate 3 2 \
        shifted 36 1 2 0 2 0 0 -1 1 load 1073741824 1 0 0 store-nt 221 2 216 1 4 \
        shifted 40 0 1 0 1 0 0 load 0 0 1769472 0 3 \
        64 \
        40934a0000000000 3fd3333333333334 0010000000000000 7e37e43c8800759c \
        0000000000000000 8000000000000000 \
        7 11 19 \
        4010000000000000 4014000000000000 4018000000000000 401c000000000000 \
        4020000000000000 4022000000000000 \
        1 2 5";

    fn decode_line(line: &str) -> Option<CoRunEntry> {
        let tokens: Vec<&str> = line.split_whitespace().collect();
        assert_eq!(tokens[0], "corun");
        let mut cur = Cursor::new(&tokens[1..]);
        let entry = decode_corun(&mut cur)?;
        cur.done().then_some(entry)
    }

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cloverstore-test-{name}"));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn corun_entries_round_trip_bit_exactly() {
        let (mut key, reports) = sample_corun_entry();
        // The one free-form string of a line must survive escaping.
        key.dynamics.machine = "spr 8470%".into();
        let line = encode_corun(&key, &reports);
        assert!(line.starts_with("corun spr%208470%25 "), "{line}");
        let (rk, rr) = decode_line(&line).expect("decodes");
        assert_eq!(rk, key);
        assert_eq!(rr, reports);
        // Bit-for-bit, including -0.0 (PartialEq would say -0.0 == 0.0).
        let (got, want) = (&rr[0].counters, &reports[0].counters);
        assert_eq!(got.write_lines.to_bits(), want.write_lines.to_bits());
        assert_eq!(
            got.speculative_read_lines.to_bits(),
            want.speculative_read_lines.to_bits()
        );
        // A baseline: one tenant, one report, the interleave every
        // one-tenant key stores.
        let alone = CoRunKey {
            tenants: key.tenants[1..].to_vec(),
            interleave_lines: u64::MAX,
            ..key
        };
        let line = encode_corun(&alone, &reports[1..]);
        assert!(line.contains(" 3 18446744073709551615 "), "{line}");
        assert_eq!(decode_line(&line), Some((alone, reports[1..].to_vec())));
    }

    #[test]
    fn corun_line_fixture_decodes_to_the_expected_key_and_encodes_back() {
        // A literal line: round trips alone would also pass a symmetric
        // reorder of two fields in encode and decode.
        let (expected_key, expected_reports) = sample_corun_entry();
        let (key, reports) = decode_line(CORUN_LINE).expect("the fixture decodes");
        assert_eq!(key, expected_key);
        assert_eq!(reports, expected_reports);
        assert!(reports[0]
            .counters
            .speculative_read_lines
            .is_sign_negative());
        assert!(reports[0].counters.prefetch_lines.is_sign_positive());
        assert_eq!(reports[0].counters.itom_lines, f64::MIN_POSITIVE);
        let tokens: Vec<&str> = CORUN_LINE.split_whitespace().collect();
        assert_eq!(encode_corun(&key, &reports), tokens.join(" "));
    }

    #[test]
    fn counts_beyond_the_line_are_corrupt_before_they_allocate() {
        let line = CORUN_LINE.split_whitespace().collect::<Vec<_>>().join(" ");
        assert!(decode_line(&line).is_some());
        for (from, to) in [
            // Tenants, operands of a kernel, points of an operand.
            (" no-allocate 3 2 ", " no-allocate 3 18446744073709551615 "),
            (" shifted 36 1 2 ", " shifted 36 1 9999999999999999 "),
            (
                " shifted 40 0 1 0 1 ",
                " shifted 40 0 1 0 8888888888888888 ",
            ),
            // One tenant short of its reports, and one report short.
            (" no-allocate 3 2 ", " no-allocate 3 1 "),
            (" 1 2 5", ""),
        ] {
            let lied = line.replace(from, to);
            assert_ne!(lied, line, "{from:?} must occur in the fixture");
            assert!(decode_line(&lied).is_none(), "{from:?} -> {to:?}");
        }
    }

    /// A `point` line exactly as a `cloverstore 1` binary wrote it.
    const POINT_LINE: &str = "point icx-8360y 1920 19 optimized 19 0 srrip non-temporal 19 1 101 \
        3fb55c0a330bd911 0000000000000000 4233a6d42f0ab27a 41fa3c0248c376cc 22 \
        am00 404a7cc5c8d82a92 am01 404a7cc5c8d82a92 am02 4046319ddba225e0 \
        am03 4041e675ee6c212e am04 403a7cc5c8d82a92 am05 404ec7edb60e2f44 \
        am06 4041898ad1a219fc am07 40455233ab731523 am08 403a7cc5c8d82a92 \
        am09 4051898ad1a219fc am10 404a1fdaac0e2361 am11 40499d5b98a919d5 \
        ac00 404a7cc5c8d82a92 ac01 4041e675ee6c212e ac02 404a7cc5c8d82a92 \
        ac03 4051070bbe3d1071 ac04 404a7cc5c8d82a92 ac05 4046319ddba225e0 \
        ac06 4055d4b2bed81eae ac07 405777c7a20e177c pdv00 405e6b0299442813 \
        pdv01 406380a939d818bd";

    /// A one-entry file of the retired format `version`, valid under the
    /// *current* model hash, is stale by format alone; nothing below its
    /// header is read; the next save rebuilds it as `cloverstore 5`.
    fn retired_format_is_stale_and_rebuilt(version: u32, line: &str) {
        let dir = temp_dir(&format!("v{version}"));
        let store = PersistentStore::new(dir.join("store.txt"));
        let line = line.split_whitespace().collect::<Vec<_>>().join(" ");
        let record = line.split(' ').next().unwrap();
        let old = format!(
            "cloverstore {version} {:016x}\n{line}\nend 1\n",
            model_hash()
        );
        fs::write(store.path(), &old).unwrap();
        let (entries, outcome) = store.load();
        assert_eq!(outcome, LoadOutcome::ColdStale);
        assert!(entries.is_empty());
        fs::write(store.path(), old.replace(record, "\u{0}garbage")).unwrap();
        assert_eq!(store.load().1, LoadOutcome::ColdStale);

        let sim = SimMemo::new();
        assert_eq!(
            store.warm_load(&sim, &SweepMemo::new()),
            LoadOutcome::ColdStale
        );
        sim.corun_preload([sample_corun_entry()]);
        assert_eq!(store.save(&sim, &SweepMemo::new()).unwrap(), 1);
        let text = fs::read_to_string(store.path()).unwrap();
        assert!(text.starts_with("cloverstore 5 "), "{text}");
        assert!(!text.contains(&line), "{text}");
        assert_eq!(store.load().1, LoadOutcome::Warm(1));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_cloverstore_1_file_is_stale_and_the_next_save_rebuilds_it() {
        retired_format_is_stale_and_rebuilt(1, POINT_LINE);
    }

    /// The one `corun` line of the store the PR 19 binary wrote for
    /// `figures sweep --machine cva6-nowa --ranks 1..2 --aggressor thrash`:
    /// eighteen tokens per tenant, no tenancy size.
    const CORUN_LINE_V2: &str = "corun cva6-nowa 3feae89f995ad3ad 1 1 1 1 1 8 3fe199999999999a 2 \
        lru allocate 2 \
        shifted 40 0 1 0 1 0 0 load 0 0 65536 0 3 \
        shifted 40 0 1 0 1 0 0 load 0 0 262144 0 2 \
        64 \
        40c0000000000000 0000000000000000 0000000000000000 0000000000000000 \
        40b0000000000000 0000000000000000 \
        40c0000000000000 0000000000000000 0000000000000000 0000000000000000 \
        40b0000000000000 0000000000000000 \
        4096 4096 4096 4096 0 8192 \
        40e3000000000000 0000000000000000 0000000000000000 0000000000000000 \
        40d3000000000000 0000000000000000 \
        40e0000000000000 0000000000000000 0000000000000000 0000000000000000 \
        40d0000000000000 0000000000000000 \
        46080 19456 49152 16384 32768 32768";

    #[test]
    fn a_cloverstore_2_file_is_stale_and_the_next_save_rebuilds_it() {
        retired_format_is_stale_and_rebuilt(2, CORUN_LINE_V2);
        // The same line under the current header is not a `cloverstore 5`
        // record either: the format number is what keeps it from being
        // misread.
        assert!(decode_line(CORUN_LINE_V2).is_none());
    }

    /// The contended `corun` line of the store the last `cloverstore 3`
    /// binary wrote for `figures sweep --machine cva6-nowa --ranks 1..2
    /// --aggressor thrash`: a replacement token (`lru`) before the
    /// store-miss policy.
    const CORUN_LINE_V3: &str = "corun cva6-nowa 3feae89f995ad3ad 1 1 1 1 1 8 3fe199999999999a 2 \
        lru allocate 2 2 \
        shifted 40 0 1 0 1 0 0 load 0 0 65536 0 3 \
        shifted 40 0 1 0 1 0 0 load 0 0 262144 0 2 \
        64 \
        40c0000000000000 0000000000000000 0000000000000000 0000000000000000 \
        40b0000000000000 0000000000000000 \
        4096 4096 0 \
        40e3000000000000 0000000000000000 0000000000000000 0000000000000000 \
        40d3000000000000 0000000000000000 \
        46080 19456 32768";

    #[test]
    fn a_cloverstore_3_file_is_stale_and_the_next_save_rebuilds_it() {
        retired_format_is_stale_and_rebuilt(3, CORUN_LINE_V3);
        // Under the current header the replacement token is one too many.
        assert!(decode_line(CORUN_LINE_V3).is_none());
    }

    /// The sample entry as the last `cloverstore 4` binary wrote it: a
    /// stream-prefetcher switch (`0`) and distance (`12`) after the
    /// adjacent-line switch.
    const CORUN_LINE_V4: &str =
        "corun spr%208470 3fe8000000000000 3 8 0 1 0 12 3fe199999999999a 26 \
        no-allocate 3 2 \
        shifted 36 1 2 0 2 0 0 -1 1 load 1073741824 1 0 0 store-nt 221 2 216 1 4 \
        shifted 40 0 1 0 1 0 0 load 0 0 1769472 0 3 \
        64 \
        40934a0000000000 3fd3333333333334 0010000000000000 7e37e43c8800759c \
        0000000000000000 8000000000000000 \
        7 11 19 \
        4010000000000000 4014000000000000 4018000000000000 401c000000000000 \
        4020000000000000 4022000000000000 \
        1 2 5";

    #[test]
    fn a_cloverstore_4_file_is_stale_and_the_next_save_rebuilds_it() {
        retired_format_is_stale_and_rebuilt(4, CORUN_LINE_V4);
        // Under the current header the stream-prefetcher tokens are two
        // too many.
        assert!(decode_line(CORUN_LINE_V4).is_none());
    }

    #[test]
    fn escaping_round_trips_hostile_strings() {
        for s in [
            "",
            "plain",
            "two words",
            "a%20b",
            "tab\there",
            "line\nbreak",
            "%",
        ] {
            assert_eq!(unesc(&esc(s)).as_deref(), Some(s), "{s:?}");
        }
    }

    #[test]
    fn save_load_round_trip() {
        let dir = temp_dir("roundtrip");
        // A directory that does not exist yet is created by the save.
        let store = PersistentStore::with_hash(dir.join("nested").join("store.txt"), 0xdead_beef);
        let sim = SimMemo::new();
        let sweep = SweepMemo::new();
        let entry = sample_corun_entry();
        sim.corun_preload([entry.clone()]);
        assert_eq!(store.save(&sim, &sweep).unwrap(), 1);

        let (entries, outcome) = store.load();
        assert_eq!(outcome, LoadOutcome::Warm(1));
        assert_eq!(entries, vec![entry.clone()]);

        // A warm load publishes the entry as a hit-to-be, not as a hit.
        let warm = SimMemo::new();
        assert_eq!(store.warm_load(&warm, &sweep), LoadOutcome::Warm(1));
        assert_eq!(warm.corun_len(), 1);
        assert_eq!((warm.corun_stats().hits, warm.corun_stats().misses), (0, 0));
        let served = warm.corun_get_or_insert_with(entry.0, || unreachable!("preloaded"));
        assert_eq!(served, entry.1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn save_is_deterministic() {
        let dir = temp_dir("determinism");
        let store_a = PersistentStore::with_hash(dir.join("a.txt"), 7);
        let store_b = PersistentStore::with_hash(dir.join("b.txt"), 7);
        // The same entries, published in opposite orders.
        let (sim_a, sim_b) = (SimMemo::new(), SimMemo::new());
        let entries: Vec<CoRunEntry> = (1..=5).map(sample_with_interleave).collect();
        sim_a.corun_preload(entries.iter().cloned());
        sim_b.corun_preload(entries.iter().rev().cloned());
        let sweep = SweepMemo::new();
        store_a.save(&sim_a, &sweep).unwrap();
        store_b.save(&sim_b, &sweep).unwrap();
        assert_eq!(
            fs::read(store_a.path()).unwrap(),
            fs::read(store_b.path()).unwrap()
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn capped_save_evicts_least_recently_touched_entries() {
        let dir = temp_dir("capped");
        let store = PersistentStore::with_hash(dir.join("store.txt"), 11);
        let sim = SimMemo::new();
        let sweep = SweepMemo::new();
        // Preloaded and never touched: stamp 0, first eviction candidates.
        sim.corun_preload((1..=3).map(sample_with_interleave));
        assert!(sim.corun_entries_stamped().iter().all(|(_, _, s)| *s == 0));
        // Touch only one entry (a memo hit): it becomes the most recent
        // entry and the only survivor of a cap of 1.
        let (recent, _) = sample_with_interleave(2);
        let _ = sim.corun_get_or_insert_with(recent.clone(), || unreachable!("preloaded"));

        let report = store.save_capped(&sim, &sweep, 1).unwrap();
        assert_eq!(
            report,
            SaveReport {
                written: 1,
                evicted: 2
            }
        );
        let (entries, outcome) = store.load();
        assert_eq!(outcome, LoadOutcome::Warm(1));
        assert_eq!(entries[0].0, recent, "most recent entry survives");
        assert_eq!(sim.corun_len(), 3, "the memo itself is untouched");

        // A cap that fits everything is byte-identical to an uncapped save.
        let report = store.save_capped(&sim, &sweep, 10).unwrap();
        assert_eq!(report.evicted, 0);
        let capped_bytes = fs::read(store.path()).unwrap();
        assert_eq!(store.save(&sim, &sweep).unwrap(), report.written);
        assert_eq!(fs::read(store.path()).unwrap(), capped_bytes);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_stale_and_corrupt_stores_load_cold() {
        let dir = temp_dir("cold");
        let path = dir.join("store.txt");

        // Missing file.
        let store = PersistentStore::with_hash(&path, 1);
        let (entries, outcome) = store.load();
        assert_eq!(outcome, LoadOutcome::ColdMissing);
        assert!(entries.is_empty());

        // Stale: written under hash 1, read under hash 2.
        let sim = SimMemo::new();
        let sweep = SweepMemo::new();
        sim.corun_preload([sample_corun_entry()]);
        store.save(&sim, &sweep).unwrap();
        let (_, outcome) = PersistentStore::with_hash(&path, 2).load();
        assert_eq!(outcome, LoadOutcome::ColdStale);
        // Same hash still loads warm.
        assert_eq!(store.load().1, LoadOutcome::Warm(1));

        // Truncated: drop the trailer line.
        let full = fs::read_to_string(&path).unwrap();
        let truncated = full.strip_suffix("end 1\n").expect("the trailer ends it");
        fs::write(&path, truncated).unwrap();
        let (entries, outcome) = store.load();
        assert_eq!(outcome, LoadOutcome::ColdCorrupt);
        assert!(entries.is_empty());

        // Anything after the trailer.
        fs::write(&path, format!("{full}corun\n")).unwrap();
        assert_eq!(store.load().1, LoadOutcome::ColdCorrupt);

        // Garbage bytes, an empty file, a format from the future.
        fs::write(&path, "not a store at all\n").unwrap();
        assert_eq!(store.load().1, LoadOutcome::ColdCorrupt);
        fs::write(&path, "").unwrap();
        assert_eq!(store.load().1, LoadOutcome::ColdCorrupt);
        fs::write(&path, full.replace("cloverstore 5", "cloverstore 6")).unwrap();
        assert_eq!(store.load().1, LoadOutcome::ColdCorrupt);

        // Mid-line corruption: an unknown record kind, a mangled token.
        fs::write(&path, full.replace("corun", "cxrun")).unwrap();
        assert_eq!(store.load().1, LoadOutcome::ColdCorrupt);
        fs::write(&path, full.replace(" no-allocate ", " no-alxocate ")).unwrap();
        assert_eq!(store.load().1, LoadOutcome::ColdCorrupt);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn wrong_entry_count_is_corrupt() {
        let dir = temp_dir("count");
        let path = dir.join("store.txt");
        let store = PersistentStore::with_hash(&path, 1);
        let sim = SimMemo::new();
        sim.corun_preload([sample_corun_entry()]);
        store.save(&sim, &SweepMemo::new()).unwrap();
        let lied = fs::read_to_string(&path).unwrap().replace("end 1", "end 5");
        fs::write(&path, lied).unwrap();
        assert_eq!(store.load().1, LoadOutcome::ColdCorrupt);
        let _ = fs::remove_dir_all(&dir);
    }
}
