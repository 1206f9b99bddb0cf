//! Bit-exact on-disk persistence of the memo stores.
//!
//! A store file holds a snapshot of a [`SimMemo`] (representative-core
//! simulations) and a [`SweepMemo`] (analytic scaling points), versioned
//! by the [`model_hash`](crate::model::model_hash) of the binary that
//! wrote it.  The format is a line-based text codec:
//!
//! ```text
//! cloverstore 1 <model-hash hex>
//! sim <key tokens ...> <6 counter f64s as hex bit patterns>
//! point <key tokens ...> <point tokens ...>
//! end <entry count>
//! ```
//!
//! Every `f64` is written as the hex rendering of its IEEE-754 bit
//! pattern, so a load restores the exact value bit for bit — the property
//! that keeps warm-start sweep output byte-identical to a cold run.
//! Strings (machine ids, loop names) are percent-escaped so the
//! whitespace tokenizer cannot be confused.  The `end <count>` trailer
//! detects truncated files (a crash mid-write, though the atomic
//! temp-file + rename in [`PersistentStore::save`] makes that unlikely).
//!
//! Loading is *tolerant*: a missing, stale (hash mismatch) or corrupt
//! file yields an empty snapshot plus a [`LoadOutcome`] explaining why —
//! never an error, because the memo contents are pure caches that can
//! always be rebuilt.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use clover_cachesim::memo::{Accounting, Dynamics, KernelSpec, RankBase, SimKey, SpecOperand};
use clover_cachesim::{AccessKind, MemCounters, SimMemo};
use clover_core::engine::PointKey;
use clover_core::{loop_catalogue, CodeVariant, ScalingPoint, SweepMemo, TrafficOptions};
use clover_machine::{ReplacementPolicyKind, WritePolicyKind};

use crate::model::model_hash;

/// Result of loading a store file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadOutcome {
    /// The store was valid: this many entries were loaded.
    Warm(usize),
    /// No store file exists yet (first run).
    ColdMissing,
    /// The store was written under a different model hash — the presets,
    /// policies or schema changed, so every entry is untrusted.
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

/// An in-memory snapshot of a store file's entries.
#[derive(Debug, Default)]
pub struct StoreSnapshot {
    /// Simulation entries.
    pub sims: Vec<(SimKey, MemCounters)>,
    /// Scaling-point entries.
    pub points: Vec<(PointKey, ScalingPoint)>,
}

impl StoreSnapshot {
    /// Total entry count.
    pub fn len(&self) -> usize {
        self.sims.len() + self.points.len()
    }

    /// True when the snapshot holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

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
    /// file yields an empty snapshot and the matching [`LoadOutcome`].
    pub fn load(&self) -> (StoreSnapshot, LoadOutcome) {
        let text = match fs::read_to_string(&self.path) {
            Ok(text) => text,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                return (StoreSnapshot::default(), LoadOutcome::ColdMissing)
            }
            Err(_) => return (StoreSnapshot::default(), LoadOutcome::ColdCorrupt),
        };
        match parse_store(&text, self.model_hash) {
            Ok(snapshot) => {
                let n = snapshot.len();
                (snapshot, LoadOutcome::Warm(n))
            }
            Err(ParseError::Stale) => (StoreSnapshot::default(), LoadOutcome::ColdStale),
            Err(ParseError::Corrupt) => (StoreSnapshot::default(), LoadOutcome::ColdCorrupt),
        }
    }

    /// Load the store file and publish its entries into `sim` and
    /// `sweep` (via their `preload`, which never clobbers existing
    /// entries and never touches hit/miss statistics).
    pub fn warm_load(&self, sim: &SimMemo, sweep: &SweepMemo) -> LoadOutcome {
        let (snapshot, outcome) = self.load();
        sim.preload(snapshot.sims);
        sweep.preload(snapshot.points);
        outcome
    }

    /// Atomically write the current contents of `sim` and `sweep` to the
    /// store file: the snapshot is rendered to a temp file in the same
    /// directory and renamed over the target, so a crash mid-write leaves
    /// either the old store or the new one, never a torn file.  Entries
    /// are written in sorted line order, so equal memo contents produce a
    /// byte-identical file.
    pub fn save(&self, sim: &SimMemo, sweep: &SweepMemo) -> io::Result<usize> {
        self.save_capped(sim, sweep, usize::MAX).map(|r| r.written)
    }

    /// [`save`](Self::save) bounded to at most `cap` entries: when the
    /// memos hold more, the *least recently touched* entries (lowest
    /// access stamp — preloaded-and-never-used entries sort first, see
    /// `FlightMemo::entries_stamped`) are evicted from the written file.
    /// The memos themselves are untouched; compaction only bounds what the
    /// next process warm-loads, so an unbounded corpus stops growing the
    /// store and its load cost forever.  The write path is the same
    /// atomic temp-file + rename codec as an uncapped save.
    pub fn save_capped(
        &self,
        sim: &SimMemo,
        sweep: &SweepMemo,
        cap: usize,
    ) -> io::Result<SaveReport> {
        let mut stamped: Vec<(u64, String)> = Vec::new();
        for (key, counters, stamp) in sim.entries_stamped() {
            stamped.push((stamp, encode_sim(&key, &counters)));
        }
        for (key, point, stamp) in sweep.entries_stamped() {
            stamped.push((stamp, encode_point(&key, &point)));
        }
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

        let mut text = format!("cloverstore 1 {:016x}\n", self.model_hash);
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

enum ParseError {
    Stale,
    Corrupt,
}

fn parse_store(text: &str, expected_hash: u64) -> Result<StoreSnapshot, ParseError> {
    let mut lines = text.lines();
    let header = lines.next().ok_or(ParseError::Corrupt)?;
    let mut head = header.split_whitespace();
    if head.next() != Some("cloverstore") || head.next() != Some("1") {
        return Err(ParseError::Corrupt);
    }
    let hash = head
        .next()
        .and_then(|t| u64::from_str_radix(t, 16).ok())
        .ok_or(ParseError::Corrupt)?;
    if head.next().is_some() {
        return Err(ParseError::Corrupt);
    }
    if hash != expected_hash {
        return Err(ParseError::Stale);
    }

    let mut snapshot = StoreSnapshot::default();
    let mut ended = false;
    for line in lines {
        if ended {
            // Trailing garbage after the `end` trailer.
            return Err(ParseError::Corrupt);
        }
        let tokens: Vec<&str> = line.split_whitespace().collect();
        match tokens.first() {
            Some(&"sim") => {
                let mut cur = Cursor::new(&tokens[1..]);
                let entry = decode_sim(&mut cur).ok_or(ParseError::Corrupt)?;
                if !cur.done() {
                    return Err(ParseError::Corrupt);
                }
                snapshot.sims.push(entry);
            }
            Some(&"point") => {
                let mut cur = Cursor::new(&tokens[1..]);
                let entry = decode_point(&mut cur).ok_or(ParseError::Corrupt)?;
                if !cur.done() {
                    return Err(ParseError::Corrupt);
                }
                snapshot.points.push(entry);
            }
            Some(&"end") => {
                let count: usize = tokens
                    .get(1)
                    .and_then(|t| t.parse().ok())
                    .ok_or(ParseError::Corrupt)?;
                if tokens.len() != 2 || count != snapshot.len() {
                    return Err(ParseError::Corrupt);
                }
                ended = true;
            }
            _ => return Err(ParseError::Corrupt),
        }
    }
    if !ended {
        // Truncated: the `end <count>` trailer never arrived.
        return Err(ParseError::Corrupt);
    }
    Ok(snapshot)
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

fn f64_hex(v: f64) -> String {
    format!("{:016x}", v.to_bits())
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

    fn replacement(&mut self) -> Option<ReplacementPolicyKind> {
        ReplacementPolicyKind::parse(self.next()?)
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

fn variant_name(v: CodeVariant) -> &'static str {
    match v {
        CodeVariant::Original => "original",
        CodeVariant::SpecI2MOff => "speci2m-off",
        CodeVariant::Optimized => "optimized",
    }
}

fn parse_variant(token: &str) -> Option<CodeVariant> {
    match token {
        "original" => Some(CodeVariant::Original),
        "speci2m-off" => Some(CodeVariant::SpecI2MOff),
        "optimized" => Some(CodeVariant::Optimized),
        _ => None,
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
    let n_ops = cur.usize()?;
    let mut operands = Vec::with_capacity(n_ops);
    for _ in 0..n_ops {
        let offset = cur.u64()?;
        let n_points = cur.usize()?;
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

fn encode_sim(key: &SimKey, c: &MemCounters) -> String {
    let (d, a) = (&key.dynamics, &key.accounting);
    let mut out = String::from("sim ");
    out.push_str(&esc(&d.machine));
    let _ = write!(
        out,
        " {:016x} {} {} {} {} {} {} {:016x} {} {} {}",
        a.utilization_bits,
        a.active_domains,
        a.total_domains,
        bool_token(a.speci2m_enabled),
        bool_token(d.adjacent_line),
        bool_token(d.streamer),
        d.streamer_distance,
        a.pf_off_evasion_bits,
        d.l3_sharers,
        d.replacement.name(),
        d.write_policy.name(),
    );
    encode_kernel(&mut out, &key.kernel);
    let _ = write!(
        out,
        " {} {} {} {} {} {}",
        f64_hex(c.read_lines),
        f64_hex(c.write_lines),
        f64_hex(c.itom_lines),
        f64_hex(c.write_allocate_lines),
        f64_hex(c.prefetch_lines),
        f64_hex(c.speculative_read_lines),
    );
    out
}

fn decode_sim(cur: &mut Cursor) -> Option<(SimKey, MemCounters)> {
    // Token order is the `cloverstore 1` line format, not the key's
    // structure: dynamics and accounting fields interleave.
    let machine = cur.string()?;
    let utilization_bits = cur.bits()?;
    let active_domains = cur.usize()?;
    let total_domains = cur.usize()?;
    let speci2m_enabled = cur.bool()?;
    let adjacent_line = cur.bool()?;
    let streamer = cur.bool()?;
    let streamer_distance = cur.u64()?;
    let pf_off_evasion_bits = cur.bits()?;
    let l3_sharers = cur.usize()?;
    let replacement = cur.replacement()?;
    let write_policy = cur.write_policy()?;
    let kernel = decode_kernel(cur)?;
    let counters = MemCounters {
        read_lines: cur.f64()?,
        write_lines: cur.f64()?,
        itom_lines: cur.f64()?,
        write_allocate_lines: cur.f64()?,
        prefetch_lines: cur.f64()?,
        speculative_read_lines: cur.f64()?,
    };
    Some((
        SimKey {
            dynamics: Dynamics {
                machine,
                adjacent_line,
                streamer,
                streamer_distance,
                l3_sharers,
                replacement,
                write_policy,
            },
            accounting: Accounting {
                utilization_bits,
                active_domains,
                total_domains,
                speci2m_enabled,
                pf_off_evasion_bits,
            },
            kernel,
        },
        counters,
    ))
}

fn encode_point(key: &PointKey, p: &ScalingPoint) -> String {
    let mut out = String::from("point ");
    out.push_str(&esc(&key.machine));
    let _ = write!(
        out,
        " {} {} {} {} {} {} {}",
        key.grid,
        key.ranks,
        variant_name(key.opts.variant),
        key.opts.ranks,
        bool_token(key.opts.layer_condition_ok),
        key.opts.replacement.name(),
        key.opts.write_policy.name(),
    );
    let _ = write!(
        out,
        " {} {} {} {} {} {} {} {}",
        p.ranks,
        bool_token(p.prime),
        p.local_inner,
        f64_hex(p.time_per_step),
        f64_hex(p.speedup),
        f64_hex(p.memory_bandwidth),
        f64_hex(p.volume_per_step),
        p.loop_balances.len(),
    );
    // The balances are nameless in memory; the line keeps naming them.
    for (spec, balance) in loop_catalogue().iter().zip(&p.loop_balances) {
        let _ = write!(out, " {} {}", esc(&spec.name), f64_hex(*balance));
    }
    out
}

fn decode_point(cur: &mut Cursor) -> Option<(PointKey, ScalingPoint)> {
    let machine = cur.string()?;
    let grid = cur.usize()?;
    let ranks = cur.usize()?;
    let opts = TrafficOptions {
        variant: parse_variant(cur.next()?)?,
        ranks: cur.usize()?,
        layer_condition_ok: cur.bool()?,
        replacement: cur.replacement()?,
        write_policy: cur.write_policy()?,
    };
    let p_ranks = cur.usize()?;
    let prime = cur.bool()?;
    let local_inner = cur.usize()?;
    let time_per_step = cur.f64()?;
    let speedup = cur.f64()?;
    let memory_bandwidth = cur.f64()?;
    let volume_per_step = cur.f64()?;
    // A point is the catalogue's loops, by name and in order: any other
    // count or name is a line this model cannot have written.
    let catalogue = loop_catalogue();
    if cur.usize()? != catalogue.len() {
        return None;
    }
    let mut loop_balances = Vec::with_capacity(catalogue.len());
    for spec in catalogue {
        if cur.string()? != spec.name {
            return None;
        }
        loop_balances.push(cur.f64()?);
    }
    Some((
        PointKey {
            machine,
            grid,
            ranks,
            opts,
        },
        ScalingPoint {
            ranks: p_ranks,
            prime,
            local_inner,
            time_per_step,
            speedup,
            memory_bandwidth,
            volume_per_step,
            loop_balances,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use clover_cachesim::hierarchy::CoreSimOptions;
    use clover_cachesim::OccupancyContext;
    use clover_machine::icelake_sp_8360y;

    fn sample_sim_entry() -> (SimKey, MemCounters) {
        let m = icelake_sp_8360y();
        let kernel = KernelSpec {
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
            i0: 0,
            inner: 216,
            k0: 0,
            rows: 4,
        };
        let key = SimKey::for_policies(
            &m,
            OccupancyContext::compact(&m, 18),
            CoreSimOptions::default(),
            &kernel,
            ReplacementPolicyKind::Lru,
            WritePolicyKind::Allocate,
        );
        let counters = MemCounters {
            read_lines: 1234.5,
            write_lines: 0.1 + 0.2, // deliberately not exactly 0.3
            itom_lines: f64::MIN_POSITIVE,
            write_allocate_lines: 1e300,
            prefetch_lines: 0.0,
            speculative_read_lines: -0.0,
        };
        (key, counters)
    }

    fn sample_point_entry() -> (PointKey, ScalingPoint) {
        let key = PointKey {
            machine: "icx-8360y".into(),
            grid: 15_360,
            ranks: 19,
            opts: TrafficOptions::optimized(19)
                .with_layer_condition(false)
                .with_replacement(ReplacementPolicyKind::Srrip)
                .with_write_policy(WritePolicyKind::NonTemporal),
        };
        let point = ScalingPoint {
            ranks: 19,
            prime: true,
            local_inner: 809,
            time_per_step: 0.123456789,
            speedup: 0.0,
            memory_bandwidth: 1.5e11,
            volume_per_step: 3.7e9,
            // One balance per catalogue loop, none a short decimal.
            loop_balances: (1..=loop_catalogue().len())
                .map(|i| 56.25 / i as f64)
                .collect(),
        };
        (key, point)
    }

    #[test]
    fn sim_entries_round_trip_bit_exactly() {
        let (key, counters) = sample_sim_entry();
        let line = encode_sim(&key, &counters);
        let tokens: Vec<&str> = line.split_whitespace().collect();
        assert_eq!(tokens[0], "sim");
        let mut cur = Cursor::new(&tokens[1..]);
        let (rk, rc) = decode_sim(&mut cur).expect("decodes");
        assert!(cur.done());
        assert_eq!(rk, key);
        // Bit-for-bit, including -0.0 (PartialEq would say -0.0 == 0.0).
        assert_eq!(rc.read_lines.to_bits(), counters.read_lines.to_bits());
        assert_eq!(
            rc.speculative_read_lines.to_bits(),
            counters.speculative_read_lines.to_bits()
        );
        assert_eq!(rc, counters);
    }

    #[test]
    fn sim_line_fixture_decodes_to_the_expected_key_and_encodes_back() {
        // A literal `cloverstore 1` line: round trips alone would also pass
        // a symmetric reorder of two fields in encode and decode.
        let line = "sim spr%208470 3fe8000000000000 3 8 0 1 0 12 3fe199999999999a 26 srrip \
                    no-allocate shifted 36 1 2 0 2 0 0 -1 1 load 1073741824 1 0 0 store-nt \
                    221 2 216 1 4 40934a0000000000 3fd3333333333334 0010000000000000 \
                    7e37e43c8800759c 0000000000000000 8000000000000000";
        let (sample_key, expected_counters) = sample_sim_entry();
        let expected_key = SimKey {
            dynamics: Dynamics {
                machine: "spr 8470".into(),
                adjacent_line: true,
                streamer: false,
                streamer_distance: 12,
                l3_sharers: 26,
                replacement: ReplacementPolicyKind::Srrip,
                write_policy: WritePolicyKind::NoAllocate,
            },
            accounting: Accounting {
                utilization_bits: 0.75f64.to_bits(),
                active_domains: 3,
                total_domains: 8,
                speci2m_enabled: false,
                pf_off_evasion_bits: 0.55f64.to_bits(),
            },
            // The sample kernel: rank-shifted, a two-point load operand
            // and a `store-nt` one.
            kernel: KernelSpec {
                i0: 2,
                k0: 1,
                ..sample_key.kernel
            },
        };
        let tokens: Vec<&str> = line.split_whitespace().collect();
        let mut cur = Cursor::new(&tokens[1..]);
        let (key, counters) = decode_sim(&mut cur).expect("the fixture decodes");
        assert!(cur.done());
        assert_eq!(key, expected_key);
        assert_eq!(counters, expected_counters);
        assert!(counters.speculative_read_lines.is_sign_negative());
        assert_eq!(encode_sim(&key, &counters), tokens.join(" "));
    }

    #[test]
    fn point_entries_round_trip_bit_exactly() {
        let (mut key, point) = sample_point_entry();
        // The one free-form string of a point line must survive escaping.
        key.machine = "icx 8360y%".into();
        let line = encode_point(&key, &point);
        let tokens: Vec<&str> = line.split_whitespace().collect();
        assert_eq!(tokens[0], "point");
        let mut cur = Cursor::new(&tokens[1..]);
        let (rk, rp) = decode_point(&mut cur).expect("decodes");
        assert!(cur.done());
        assert_eq!(rk, key);
        assert_eq!(
            rp.time_per_step.to_bits(),
            point.time_per_step.to_bits(),
            "f64 round trip must be bit-exact"
        );
        assert_eq!(rp, point);
        assert_eq!(tokens[1], "icx%208360y%25");
    }

    /// A `point` line exactly as the binary before the nameless balances
    /// wrote it (`figures sweep --machine icx-8360y --ranks 19..19 --grid
    /// 1920 --stage optimized --replacement srrip --write-policy
    /// non-temporal --layer-condition broken --store …`).
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

    #[test]
    fn point_line_fixture_decodes_to_the_expected_entry_and_encodes_back() {
        let expected_key = PointKey {
            machine: "icx-8360y".into(),
            grid: 1920,
            ranks: 19,
            opts: TrafficOptions::optimized(19)
                .with_layer_condition(false)
                .with_replacement(ReplacementPolicyKind::Srrip)
                .with_write_policy(WritePolicyKind::NonTemporal),
        };
        let tokens: Vec<&str> = POINT_LINE.split_whitespace().collect();
        let mut cur = Cursor::new(&tokens[1..]);
        let (key, point) = decode_point(&mut cur).expect("the fixture decodes");
        assert!(cur.done());
        assert_eq!(key, expected_key);
        // The line is what the model computes for its key, to the bit.
        let engine = clover_core::ScalingEngine::new(icelake_sp_8360y(), key.grid);
        assert_eq!(point, engine.point(key.ranks, &key.opts));
        assert_eq!(
            (point.ranks, point.prime, point.local_inner),
            (19, true, 101)
        );
        assert_eq!(point.time_per_step.to_bits(), 0x3fb55c0a330bd911);
        assert_eq!(point.loop_balances.len(), 22);
        assert_eq!(point.loop_balances[4].to_bits(), 0x403a7cc5c8d82a92, "am04");
        assert_eq!(point.loop_balances[21].to_bits(), 0x406380a939d818bd);
        assert_eq!(encode_point(&key, &point), tokens.join(" "));
    }

    #[test]
    fn point_lines_that_disagree_with_the_catalogue_are_corrupt() {
        let dir = std::env::temp_dir().join("cloverstore-test-catalogue");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let store = PersistentStore::with_hash(dir.join("store.txt"), 7);
        let outcome = |line: &str| {
            let text = format!("cloverstore 1 {:016x}\n{line}\nend 1\n", 7);
            fs::write(store.path(), text).unwrap();
            store.load().1
        };
        let line = POINT_LINE.split_whitespace().collect::<Vec<_>>().join(" ");
        assert_eq!(outcome(&line), LoadOutcome::Warm(1));
        // Two names swapped (their balances stay put).
        let swapped = line
            .replace(" am02 ", " am?? ")
            .replace(" am03 ", " am02 ")
            .replace(" am?? ", " am03 ");
        assert_ne!(swapped, line);
        assert_eq!(outcome(&swapped), LoadOutcome::ColdCorrupt);
        // One loop renamed.
        assert_eq!(
            outcome(&line.replace(" pdv01 ", " pdv02 ")),
            LoadOutcome::ColdCorrupt
        );
        // A wrong loop count: one loop short, and one too many.
        let short = line
            .replace(" 22 am00 ", " 21 am00 ")
            .replace(" pdv01 406380a939d818bd", "");
        assert_eq!(outcome(&short), LoadOutcome::ColdCorrupt);
        let long = line.replace(" 22 am00 ", " 23 am00 ") + " pdv02 406380a939d818bd";
        assert_eq!(outcome(&long), LoadOutcome::ColdCorrupt);
        let _ = fs::remove_dir_all(&dir);
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
        let dir = std::env::temp_dir().join("cloverstore-test-roundtrip");
        let _ = fs::remove_dir_all(&dir);
        let path = dir.join("store.txt");
        let store = PersistentStore::with_hash(&path, 0xdead_beef);

        let sim = SimMemo::new();
        let sweep = SweepMemo::new();
        let (sk, sc) = sample_sim_entry();
        let (pk, pp) = sample_point_entry();
        sim.preload([(sk.clone(), sc)]);
        sweep.preload([(pk.clone(), pp.clone())]);
        assert_eq!(store.save(&sim, &sweep).unwrap(), 2);

        let (snapshot, outcome) = store.load();
        assert_eq!(outcome, LoadOutcome::Warm(2));
        assert_eq!(snapshot.sims, vec![(sk, sc)]);
        assert_eq!(snapshot.points, vec![(pk, pp)]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn save_is_deterministic() {
        let dir = std::env::temp_dir().join("cloverstore-test-determinism");
        let _ = fs::remove_dir_all(&dir);
        let store_a = PersistentStore::with_hash(dir.join("a.txt"), 7);
        let store_b = PersistentStore::with_hash(dir.join("b.txt"), 7);
        let sim = SimMemo::new();
        let sweep = SweepMemo::new();
        let (sk, sc) = sample_sim_entry();
        let (pk, pp) = sample_point_entry();
        sim.preload([(sk, sc)]);
        sweep.preload([(pk, pp)]);
        store_a.save(&sim, &sweep).unwrap();
        store_b.save(&sim, &sweep).unwrap();
        assert_eq!(
            fs::read(store_a.path()).unwrap(),
            fs::read(store_b.path()).unwrap()
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn capped_save_evicts_least_recently_touched_entries() {
        let dir = std::env::temp_dir().join("cloverstore-test-capped");
        let _ = fs::remove_dir_all(&dir);
        let path = dir.join("store.txt");
        let store = PersistentStore::with_hash(&path, 11);

        let sim = SimMemo::new();
        let sweep = SweepMemo::new();
        let (sk, sc) = sample_sim_entry();
        // Preloaded and never touched: stamp 0, first eviction candidate.
        sim.preload([(sk.clone(), sc)]);
        let (pk, pp) = sample_point_entry();
        let old_key = PointKey {
            ranks: 3,
            ..pk.clone()
        };
        let new_key = PointKey {
            ranks: 5,
            ..pk.clone()
        };
        sweep.preload([(old_key.clone(), pp.clone()), (new_key.clone(), pp.clone())]);
        assert!(sweep.entries_stamped().iter().all(|(_, _, s)| *s == 0));
        // Touch only `new_key` (a memo hit): it becomes the most recent
        // entry and the only survivor of a cap of 1.
        let engine = clover_core::ScalingEngine::new(icelake_sp_8360y(), new_key.grid);
        let _ = engine.point_memo(new_key.ranks, &new_key.opts, &sweep);

        let report = store.save_capped(&sim, &sweep, 1).unwrap();
        assert_eq!(
            report,
            SaveReport {
                written: 1,
                evicted: 2
            }
        );
        let (snapshot, outcome) = store.load();
        assert_eq!(outcome, LoadOutcome::Warm(1));
        assert!(snapshot.sims.is_empty(), "stamp-0 sim entry evicted");
        assert_eq!(snapshot.points.len(), 1);
        assert_eq!(snapshot.points[0].0, new_key, "most recent entry survives");

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
        let dir = std::env::temp_dir().join("cloverstore-test-cold");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.txt");

        // Missing file.
        let store = PersistentStore::with_hash(&path, 1);
        let (snapshot, outcome) = store.load();
        assert_eq!(outcome, LoadOutcome::ColdMissing);
        assert!(snapshot.is_empty());

        // Stale: written under hash 1, read under hash 2.
        let sim = SimMemo::new();
        let sweep = SweepMemo::new();
        let (pk, pp) = sample_point_entry();
        sweep.preload([(pk, pp)]);
        store.save(&sim, &sweep).unwrap();
        let (_, outcome) = PersistentStore::with_hash(&path, 2).load();
        assert_eq!(outcome, LoadOutcome::ColdStale);
        // Same hash still loads warm.
        assert_eq!(store.load().1, LoadOutcome::Warm(1));

        // Truncated: drop the trailer line.
        let full = fs::read_to_string(&path).unwrap();
        let truncated: String =
            full.lines()
                .take(full.lines().count() - 1)
                .fold(String::new(), |mut acc, line| {
                    acc.push_str(line);
                    acc.push('\n');
                    acc
                });
        fs::write(&path, truncated).unwrap();
        let (snapshot, outcome) = store.load();
        assert_eq!(outcome, LoadOutcome::ColdCorrupt);
        assert!(snapshot.is_empty());

        // Garbage bytes.
        fs::write(&path, "not a store at all\n").unwrap();
        assert_eq!(store.load().1, LoadOutcome::ColdCorrupt);

        // Mid-line corruption.
        store.save(&sim, &sweep).unwrap();
        let mangled = fs::read_to_string(&path).unwrap().replace("point", "pxint");
        fs::write(&path, mangled).unwrap();
        assert_eq!(store.load().1, LoadOutcome::ColdCorrupt);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn wrong_entry_count_is_corrupt() {
        let dir = std::env::temp_dir().join("cloverstore-test-count");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.txt");
        let store = PersistentStore::with_hash(&path, 1);
        let sweep = SweepMemo::new();
        let (pk, pp) = sample_point_entry();
        sweep.preload([(pk, pp)]);
        store.save(&SimMemo::new(), &sweep).unwrap();
        let lied = fs::read_to_string(&path).unwrap().replace("end 1", "end 5");
        fs::write(&path, lied).unwrap();
        assert_eq!(store.load().1, LoadOutcome::ColdCorrupt);
        let _ = fs::remove_dir_all(&dir);
    }
}
