//! Differential-replay traces: the [`Event`] the dynamics emit is the entry
//! a trace stores, the [`TraceRecorder`] merges equal consecutive events
//! into runs, and [`replay_trace`] weighs a trace under a neighbour's
//! accounting.

use std::sync::Arc;

use clover_machine::SpecI2MParams;

use crate::accountant::Accountant;
use crate::counters::MemCounters;
use crate::hierarchy::{CoreSimOptions, OccupancyContext};

/// One counter-affecting event of a simulation, with what its weight needs
/// and nothing a replay must recompute — or, in a trace only, a run of the
/// event before it.
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
}

// An entry's size times the entries is the recording's whole memory cost.
const _: () = assert!(std::mem::size_of::<Event>() == 16);

/// Cap on trace entries (events and runs): a recording that would outgrow
/// it is abandoned (the memo falls back to plain re-simulation for that
/// dynamics class).  2^19 entries cover every in-tree kernel with room to
/// spare while bounding worst-case memory per class to 8 MiB.
pub(crate) const TRACE_OP_CAP: usize = 1 << 19;

/// A recorded trace, replayable under any neighbour context in
/// O(entries).  The memo keeps `None` for a class whose recording was
/// abandoned: its neighbours re-simulate from scratch.
pub(crate) type Trace = Arc<[Event]>;

/// Opt-in recorder of the [`Event`]s a core emits.  An event equal to the
/// one the trailing entries repeat extends their run instead of taking an
/// entry.  The buffer outlives a recording (a pooled core records every
/// leader into the same allocation); a finished trace is copied out once,
/// exactly sized.
#[derive(Debug, Clone, Default)]
pub(crate) struct TraceRecorder {
    events: Vec<Event>,
    /// The event a next equal one extends: the last that is not a
    /// [`Event::Repeat`].
    run: Option<Event>,
    recording: bool,
}

impl TraceRecorder {
    /// Begin a fresh recording into the retained buffer.
    pub(crate) fn start(&mut self) {
        self.events.clear();
        self.run = None;
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
        let trace = complete.then(|| self.events.as_slice().into());
        self.events.clear();
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
        let entry = if self.run == Some(event) {
            if let Some(Event::Repeat { count }) = self.events.last_mut() {
                if *count < u32::MAX {
                    *count += 1;
                    return;
                }
            }
            Event::Repeat { count: 1 }
        } else {
            self.run = Some(event);
            event
        };
        if self.events.len() < TRACE_OP_CAP {
            self.events.push(entry);
        } else {
            self.recording = false;
            self.events = Vec::new();
        }
    }
}

/// Recompute [`MemCounters`] from a recorded trace under a (possibly
/// different) neighbour configuration: occupancy context, SpecI2M MSR
/// switch and prefetcher evasion factor.  `speci2m` is the machine's raw
/// parameter block.  A single event is weighed as the live one was, and a
/// run adds its event's weight through [`Accountant::apply_repeated`]; the
/// result is bit-identical to the live simulation's.
pub(crate) fn replay_trace(
    speci2m: &SpecI2MParams,
    ctx: OccupancyContext,
    options: CoreSimOptions,
    trace: &[Event],
) -> MemCounters {
    let mut account = Accountant::new(speci2m, ctx, options);
    let mut run = None;
    for &event in trace {
        match event {
            Event::Repeat { count } => {
                account.apply_repeated(run.expect("a trace opens with an event"), count);
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

/// The events a trace stands for: a run counts its rounds.
#[cfg(test)]
pub(crate) fn events_in(trace: &[Event]) -> u64 {
    trace
        .iter()
        .map(|event| match event {
            Event::Repeat { count } => u64::from(*count),
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
}
