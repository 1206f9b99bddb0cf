//! Differential-replay traces: the [`Event`] the dynamics emit is the entry
//! a trace stores, the [`TraceRecorder`] merges equal consecutive events
//! into runs and a counted core's repeated periods into one entry each,
//! and [`replay_trace`] weighs a trace under a neighbour's accounting.

use std::sync::Arc;

use clover_machine::SpecI2MParams;

use crate::accountant::{Accountant, Weight, PERIOD_EVENTS};
use crate::counters::MemCounters;
use crate::hierarchy::{CoreSimOptions, OccupancyContext};

/// One counter-affecting event of a simulation, with what its weight needs
/// and nothing a replay must recompute — or, in a trace only, a run of the
/// event before it or a repeat of the period before it.
///
/// The cache *dynamics* of a simulation (which lines hit, miss, evict,
/// prefetch or coalesce) depend only on the machine geometry, the
/// prefetcher configuration, the L3 sharer count, the policies and the
/// kernel — **not** on the occupancy context, the SpecI2M MSR switch or
/// the prefetch-off evasion factor, which only weight the events.  The
/// event sequence of one simulation therefore stands for every "neighbour"
/// that differs in those axes alone.  This is the foundation of
/// [`SimMemo`]'s differential re-simulation.
///
/// [`SimMemo`]: crate::memo::SimMemo
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Event {
    /// A demand-miss memory read.
    DemandRead,
    /// A prefetch fill.
    PrefetchRead,
    /// One dirty-line write-back.
    Writeback,
    /// A write-allocate store miss.
    WaStore {
        /// Whether the finalized line was fully covered by stores.
        full: bool,
        /// Store streams open at finalization: at most the eight a core's
        /// coalescer follows.
        streams: u32,
        /// The bits of the line's streak response, the one factor of its
        /// weight that the occupancy cannot change.
        response: u64,
    },
    /// A non-temporal store line.
    NtLine {
        /// Whether the line was fully covered (partial flush fraction)
        /// or partial (a whole read-modify-write).
        full: bool,
    },
    /// The final write-back accounting of a flush.
    WritebackBulk {
        /// Distinct dirty lines drained across all levels.
        distinct: u64,
    },
    /// The previous event that is not a `Repeat`, `count` more times.
    Repeat { count: u32 },
    /// The last `entries` entries, which are one measured period of a
    /// counted core's sweep row (at most [`PERIOD_EVENTS`] events, none a
    /// `Period`, the first not a `Repeat`), `count` more times: the
    /// periods the core repeated instead of stepping them.
    Period { entries: u32, count: u64 },
}

// An entry's size times the entries is the recording's whole memory cost.
const _: () = assert!(std::mem::size_of::<Event>() == 16);

/// Cap on trace entries (events, runs and periods): a recording that would
/// outgrow it is abandoned (the memo falls back to plain re-simulation for
/// that dynamics class).  2^19 entries cover every in-tree kernel with
/// room to spare while bounding worst-case memory per class to 8 MiB.
pub(crate) const TRACE_OP_CAP: usize = 1 << 19;

/// A recorded trace, replayable under any neighbour context in
/// O(entries).  The memo keeps `None` for a class whose recording was
/// abandoned: its neighbours re-simulate from scratch.
pub(crate) type Trace = Arc<[Event]>;

/// Opt-in recorder of the [`Event`]s a core emits.  An event equal to the
/// one the trailing entries repeat extends their run instead of taking an
/// entry.  A counted core that repeats a measured period of a sweep row
/// records the period's events as entries of their own
/// ([`begin_period`](Self::begin_period)) and the repeat as one
/// [`Event::Period`] after them ([`repeat_period`](Self::repeat_period)),
/// unless the period is one event and its run, which the repeat extends.
/// The buffer outlives a recording (a pooled core records every leader
/// into the same allocation); a finished trace is copied out once,
/// exactly sized.
#[derive(Debug, Clone, Default)]
pub(crate) struct TraceRecorder {
    events: Vec<Event>,
    /// The event a next equal one extends: the last that is not a
    /// [`Event::Repeat`], none past an [`Event::Period`].
    run: Option<Event>,
    recording: bool,
    /// The first entry of the period measured last, and the run its first
    /// event did not extend.
    period: (usize, Option<Event>),
    /// In a debug build, the events that stepping the periods a repeat
    /// recorded must emit, which are checked instead of recorded.
    check: Option<PeriodCheck>,
}

/// The events of a repeated period that a debug build steps, in order.
#[derive(Debug, Clone)]
struct PeriodCheck {
    events: [Event; PERIOD_EVENTS],
    len: usize,
    /// Events emitted so far, and how many the repeat stands for.
    seen: u64,
    total: u64,
}

impl TraceRecorder {
    /// Begin a fresh recording into the retained buffer.
    pub(crate) fn start(&mut self) {
        self.events.clear();
        self.run = None;
        self.check = None;
        self.recording = true;
    }

    /// Whether a recording is active.
    #[inline]
    pub(crate) fn is_recording(&self) -> bool {
        self.recording
    }

    /// End the recording; the trace, unless none was active or it was
    /// abandoned.
    pub(crate) fn finish(&mut self) -> Option<Trace> {
        let complete = std::mem::take(&mut self.recording);
        debug_assert!(
            !complete || self.check.is_none(),
            "a recording ended inside a repeat"
        );
        let trace = complete.then(|| self.events.as_slice().into());
        self.events.clear();
        self.check = None;
        trace
    }

    /// Append `event` to the active recording, as one more round of the
    /// current run when it equals the run's event.  A run whose count is
    /// full starts a new `Repeat`.  A new entry past [`TRACE_OP_CAP`]
    /// abandons the recording and frees the buffer.  Out of line, so that
    /// emitting an event stays one predictable branch when nothing
    /// records.
    #[cold]
    #[inline(never)]
    pub(crate) fn push(&mut self, event: Event) {
        if let Some(check) = &mut self.check {
            return check.step(event);
        }
        if self.run == Some(event) {
            self.extend_run(1);
        } else {
            self.run = Some(event);
            self.entry(event);
        }
    }

    /// `n` more rounds of the current run.
    fn extend_run(&mut self, mut n: u64) {
        while n > 0 && self.recording {
            match self.events.last_mut() {
                Some(Event::Repeat { count }) if *count < u32::MAX => {
                    let more = n.min(u64::from(u32::MAX - *count));
                    *count += more as u32;
                    n -= more;
                }
                _ => {
                    let more = n.min(u64::from(u32::MAX));
                    self.entry(Event::Repeat { count: more as u32 });
                    n -= more;
                }
            }
        }
    }

    /// Append one entry, or abandon the recording at the cap.
    fn entry(&mut self, entry: Event) {
        if self.events.len() < TRACE_OP_CAP {
            self.events.push(entry);
        } else {
            self.recording = false;
            self.events = Vec::new();
        }
    }

    /// A period of a counted core's sweep row is measured from here: its
    /// events take entries of their own, the first not extending the run
    /// before it, so that [`repeat_period`](Self::repeat_period) can name
    /// them.
    pub(crate) fn begin_period(&mut self) {
        self.period = (self.events.len(), self.run.take());
    }

    /// The period measured last, which has just ended, `count` more times:
    /// one [`Event::Period`] after its entries, which nothing extends.  A
    /// period of one event and its run instead extends that run, and the
    /// run before the period too if it is that event's: the entries
    /// stepping it would have recorded.
    pub(crate) fn repeat_period(&mut self, count: u64) {
        if !self.recording {
            return;
        }
        let (first, before) = self.period;
        let period = &self.events[first..];
        let uniform = match *period {
            // Nothing to repeat: the run goes on.
            [] => return self.run = before,
            [event] => Some((event, 1)),
            [event, Event::Repeat { count }] => Some((event, 1 + u64::from(count))),
            _ => None,
        };
        let Some((event, len)) = uniform else {
            let entries = period.len() as u32;
            self.run = None;
            return self.entry(Event::Period { entries, count });
        };
        let mut rounds = len.saturating_mul(count.saturating_add(1));
        self.events.truncate(first);
        if before != Some(event) {
            self.entry(event);
            rounds -= 1;
        }
        self.run = Some(event);
        self.extend_run(rounds);
    }

    /// [`repeat_period`](Self::repeat_period) in a debug build, which
    /// steps the periods it stands for: their events are checked against
    /// the period's, `count` times over, and not recorded, until
    /// [`end_check`](Self::end_check).
    pub(crate) fn check_period(&mut self, count: u64) {
        if !self.recording {
            return;
        }
        let mut check = PeriodCheck {
            events: [Event::DemandRead; PERIOD_EVENTS],
            len: 0,
            seen: 0,
            total: 0,
        };
        for event in period_events(&self.events[self.period.0..]) {
            check.events[check.len] = event;
            check.len += 1;
        }
        check.total = check.len as u64 * count;
        self.repeat_period(count);
        self.check = Some(check);
    }

    /// The end of the periods [`check_period`](Self::check_period) checks:
    /// they emitted all of their events.
    pub(crate) fn end_check(&mut self) {
        if let Some(check) = self.check.take() {
            assert_eq!(
                check.seen, check.total,
                "the repeated periods emitted other events than the recorded period"
            );
        }
    }
}

impl PeriodCheck {
    fn step(&mut self, event: Event) {
        assert!(
            self.seen < self.total,
            "the repeated periods emitted more events than the recorded period"
        );
        let expected = self.events[(self.seen % self.len as u64) as usize];
        assert_eq!(
            event, expected,
            "event {} of the repeated periods is not the recorded period's",
            self.seen
        );
        self.seen += 1;
    }
}

/// The events a period's entries stand for, in order: each event, and
/// each `Repeat` as the event before it that many times.
fn period_events(entries: &[Event]) -> impl Iterator<Item = Event> + '_ {
    let mut run = None;
    entries.iter().flat_map(move |&entry| {
        let (event, times) = match entry {
            Event::Repeat { count } => (run.expect("a period opens with an event"), count),
            Event::Period { .. } => unreachable!("a period holds no period"),
            event => (event, 1),
        };
        run = Some(event);
        std::iter::repeat(event).take(times as usize)
    })
}

/// Recompute [`MemCounters`] from a recorded trace under a (possibly
/// different) neighbour configuration: occupancy context, SpecI2M MSR
/// switch and prefetcher evasion factor.  `speci2m` is the machine's raw
/// parameter block.  A single event is weighed as the live one was, a run
/// adds its event's weight through [`Accountant::apply_repeated`] and a
/// period's repeat its events' weights through
/// [`Accountant::add_periods`]; the result is bit-identical to the live
/// simulation's.
pub(crate) fn replay_trace(
    speci2m: &SpecI2MParams,
    ctx: OccupancyContext,
    options: CoreSimOptions,
    trace: &[Event],
) -> MemCounters {
    let mut account = Accountant::new(speci2m, ctx, options);
    let mut run = None;
    for (at, &event) in trace.iter().enumerate() {
        match event {
            Event::Repeat { count } => {
                account.apply_repeated(run.expect("a trace opens with an event"), count);
            }
            Event::Period { entries, count } => {
                let mut weights = [Weight::Read; PERIOD_EVENTS];
                let mut len = 0;
                for event in period_events(&trace[at - entries as usize..at]) {
                    weights[len] = account.weigh(event);
                    len += 1;
                }
                Accountant::add_periods(&mut account.counters, &weights[..len], count);
                run = None;
            }
            event => {
                let weight = account.weigh(event);
                account.apply_weight(weight);
                run = Some(weight);
            }
        }
    }
    account.counters
}

/// The events a trace stands for: a run counts its rounds, and a period's
/// repeat its events that many times.
#[cfg(test)]
pub(crate) fn events_in(trace: &[Event]) -> u64 {
    trace
        .iter()
        .enumerate()
        .map(|(at, event)| match *event {
            Event::Repeat { count } => u64::from(count),
            Event::Period { entries, count } => {
                period_events(&trace[at - entries as usize..at]).count() as u64 * count
            }
            _ => 1,
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use clover_machine::icelake_sp_8360y;

    #[test]
    fn trace_overflow_discards_the_recording() {
        // A run of one event is two entries whatever its length, so the
        // cap is reached with alternating events.
        let alternating = |i: usize| [Event::DemandRead, Event::Writeback][i % 2];
        let mut rec = TraceRecorder::default();
        rec.start();
        for i in 0..TRACE_OP_CAP - 1 {
            rec.push(alternating(i));
        }
        // The cap's last entry opens a run; extending it takes none.
        let last = alternating(TRACE_OP_CAP - 2);
        for _ in 0..3 {
            rec.push(last);
        }
        assert!(rec.recording);
        assert_eq!(rec.events.len(), TRACE_OP_CAP);
        assert_eq!(rec.events.last(), Some(&Event::Repeat { count: 3 }));
        rec.push(alternating(TRACE_OP_CAP - 1));
        assert!(!rec.recording);
        assert_eq!(
            rec.events.capacity(),
            0,
            "an abandoned trace frees its buffer"
        );
        assert!(rec.finish().is_none());
        // The next recording starts clean.
        rec.start();
        rec.push(Event::Writeback);
        assert_eq!(rec.finish().as_deref(), Some(&[Event::Writeback][..]));
    }

    #[test]
    fn a_full_run_starts_a_new_repeat() {
        let mut rec = TraceRecorder::default();
        rec.start();
        rec.push(Event::DemandRead);
        rec.push(Event::DemandRead);
        // Fast-forward the run to a full count.
        rec.events[1] = Event::Repeat { count: u32::MAX };
        for _ in 0..2 {
            rec.push(Event::DemandRead);
        }
        rec.push(Event::Writeback);
        let trace = rec.finish().expect("recorded");
        assert_eq!(
            *trace,
            [
                Event::DemandRead,
                Event::Repeat { count: u32::MAX },
                Event::Repeat { count: 2 },
                Event::Writeback,
            ]
        );
        // Both runs repeat the read.
        let m = icelake_sp_8360y();
        let c = replay_trace(
            &m.speci2m,
            OccupancyContext::serial(&m),
            CoreSimOptions::default(),
            &trace,
        );
        assert_eq!((c.read_lines, c.write_lines), (2f64.powi(32) + 2.0, 1.0));
    }
    #[test]
    fn a_repeated_period_is_one_entry_and_replays_to_the_bits_of_its_events() {
        // A recorder that repeats periods against one that steps them:
        // a head run, a period of four events repeated five more times
        // (one `Period` entry after them), a period of one event and its
        // run repeated seven more times, which extends the run instead,
        // and another such period, of the run before it, which extends
        // that run.  Replayed under every accounting, both give the same
        // bits.
        let m = icelake_sp_8360y();
        let store = |streak: f64| Event::WaStore {
            full: true,
            streams: 2,
            response: m.speci2m.streak_response(streak).to_bits(),
        };
        let nt = Event::NtLine { full: true };
        let period = [
            Event::DemandRead,
            Event::PrefetchRead,
            store(3.0),
            store(3.0),
        ];
        let (mut repeated, mut stepped) = (TraceRecorder::default(), TraceRecorder::default());
        for rec in [&mut repeated, &mut stepped] {
            rec.start();
            rec.push(store(3.0));
            rec.push(store(3.0));
        }
        repeated.begin_period();
        period.iter().for_each(|&event| repeated.push(event));
        repeated.repeat_period(5);
        for _ in 0..6 {
            period.iter().for_each(|&event| stepped.push(event));
        }
        for uniform in [[nt, nt].as_slice(), &[nt]] {
            repeated.begin_period();
            uniform.iter().for_each(|&event| repeated.push(event));
            repeated.repeat_period(7);
            for _ in 0..8 * uniform.len() {
                stepped.push(nt);
            }
        }
        for rec in [&mut repeated, &mut stepped] {
            rec.push(nt);
            rec.push(Event::WritebackBulk { distinct: 9 });
        }
        let (repeated, stepped) = (repeated.finish().unwrap(), stepped.finish().unwrap());
        assert_eq!(
            *repeated,
            [
                store(3.0),
                Event::Repeat { count: 1 },
                Event::DemandRead,
                Event::PrefetchRead,
                store(3.0),
                Event::Repeat { count: 1 },
                Event::Period {
                    entries: 4,
                    count: 5
                },
                nt,
                Event::Repeat { count: 24 },
                Event::WritebackBulk { distinct: 9 },
            ]
        );
        assert_eq!(stepped.len(), 2 + 6 * 4 + 3);
        assert_eq!(events_in(&repeated), events_in(&stepped));
        for ranks in [1, 18, 72] {
            for speci2m_enabled in [true, false] {
                let ctx = OccupancyContext::compact(&m, ranks);
                let options = CoreSimOptions {
                    speci2m_enabled,
                    ..CoreSimOptions::default()
                };
                let replay = |trace| replay_trace(&m.speci2m, ctx, options, trace).bits();
                assert_eq!(
                    replay(&repeated),
                    replay(&stepped),
                    "{ranks} {speci2m_enabled}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "not the recorded period's")]
    fn a_stepped_repeat_that_strays_from_its_period_panics() {
        // A debug build steps the periods a repeat recorded and checks
        // their events against the period's.
        let mut rec = TraceRecorder::default();
        rec.start();
        rec.begin_period();
        rec.push(Event::DemandRead);
        rec.push(Event::Writeback);
        rec.check_period(2);
        for event in [Event::DemandRead, Event::Writeback, Event::DemandRead] {
            rec.push(event);
        }
        rec.push(Event::DemandRead);
    }

    #[test]
    fn a_checked_repeat_records_what_a_repeat_records() {
        let record = |check: bool| {
            let mut rec = TraceRecorder::default();
            rec.start();
            rec.begin_period();
            rec.push(Event::DemandRead);
            rec.push(Event::Writeback);
            if check {
                rec.check_period(3);
                for _ in 0..3 {
                    rec.push(Event::DemandRead);
                    rec.push(Event::Writeback);
                }
                rec.end_check();
            } else {
                rec.repeat_period(3);
            }
            rec.push(Event::Writeback);
            rec.finish().unwrap()
        };
        assert_eq!(record(true), record(false));
        assert_eq!(
            *record(false),
            [
                Event::DemandRead,
                Event::Writeback,
                Event::Period {
                    entries: 2,
                    count: 3
                },
                Event::Writeback
            ]
        );
    }
}
