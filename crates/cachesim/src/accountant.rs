//! How SpecI2M weighs what the caches did: the [`Accountant`] turns each
//! [`Event`] the dynamics emit (or a trace replays) into [`MemCounters`],
//! and [`repeat_add`] adds a run of equal events bit for bit what adding
//! them one by one gives.

use clover_machine::speci2m::SpecI2MResponse;
use clover_machine::SpecI2MParams;

use crate::counters::MemCounters;
use crate::hierarchy::{CoreSimOptions, OccupancyContext};
use crate::trace::Event;

/// What one event adds to the counters: the fields it adds to, each with
/// its increments in the order [`Accountant::apply_weight`] adds them.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Weight {
    /// `read_lines` += 1.
    Read,
    /// `read_lines` += 1, `prefetch_lines` += 1.
    Prefetch,
    /// `write_lines` += the lines written back.
    Write(f64),
    /// A write-allocate store line, `evaded` of it claimed by ITOM and
    /// `spec_read` of a line read speculatively.
    Store { evaded: f64, spec_read: f64 },
    /// A non-temporal line: `write_lines` += 1, `read_lines` += `read`.
    Nt { read: f64 },
}

/// What decides a [`Event::WaStore`]'s weight under one arming: its
/// `full`, `streams` and `response` bits.
type StoreKey = (bool, u32, u64);

/// Everything that turns [`Event`]s into [`MemCounters`]: the accounting
/// environment of one simulation (or one replay) and the counters it has
/// accumulated.  [`apply_weight`](Self::apply_weight) is the only place a
/// counter field is added to one event at a time, and
/// [`apply_repeated`](Self::apply_repeated), through [`repeat_add`], the
/// only place it is added to a run at a time — so a live simulation and a
/// replay of its trace perform the same float additions per field.
#[derive(Debug, Clone)]
pub(crate) struct Accountant {
    /// The machine's SpecI2M block, its `enabled` flag and-ed with the MSR
    /// switch of the options (the one field that switch clears).
    speci2m: SpecI2MParams,
    /// `speci2m.enabled` as the machine has it: what a re-arm switches
    /// from.
    machine_enabled: bool,
    ctx: OccupancyContext,
    /// [`PrefetcherConfig::evasion_factor`] of the options.
    ///
    /// [`PrefetcherConfig::evasion_factor`]: crate::prefetch::PrefetcherConfig::evasion_factor
    pf_factor: f64,
    /// How far SpecI2M has kicked in at `ctx` (its activation ramp).
    ramp: f64,
    /// `speci2m`'s node-population factor at `ctx`.
    node: f64,
    /// What a fully covered NT line reads at `ctx` (the partial-flush
    /// fraction).
    nt_flush: f64,
    /// The last store line's streak bits and their streak response.
    streak: Option<(u64, f64)>,
    /// The last write-allocate store line's `full`, stream count and
    /// response bits, and its weight.
    store: Option<(StoreKey, Weight)>,
    pub(crate) counters: MemCounters,
}

impl Accountant {
    /// Zeroed counters under `ctx` and `options`; `speci2m` is the
    /// machine's raw parameter block.
    pub(crate) fn new(
        speci2m: &SpecI2MParams,
        ctx: OccupancyContext,
        options: CoreSimOptions,
    ) -> Self {
        let mut account = Self {
            speci2m: speci2m.clone(),
            machine_enabled: speci2m.enabled,
            ctx,
            pf_factor: 0.0,
            ramp: 0.0,
            node: 0.0,
            nt_flush: 0.0,
            streak: None,
            store: None,
            counters: MemCounters::new(),
        };
        account.arm(ctx, options);
        account
    }

    /// Zero the counters for a fresh measurement under a (possibly
    /// different) occupancy and option set, and compute the factors of a
    /// line's weight that only the occupancy decides.
    pub(crate) fn arm(&mut self, ctx: OccupancyContext, options: CoreSimOptions) {
        let p = &mut self.speci2m;
        p.enabled = self.machine_enabled && options.speci2m_enabled;
        self.ramp = p.activation_ramp(ctx.domain_utilization);
        self.node = p.node_population_factor(ctx.active_domains, ctx.total_domains);
        // Under heavy load a fraction of write-combine buffers is flushed
        // early, causing a read-modify-write.  The model ignores the MSR
        // switch: it never reads `enabled`.
        self.nt_flush = p.nt_partial_flush_fraction(
            ctx.domain_utilization,
            ctx.active_domains,
            ctx.total_domains,
        );
        self.ctx = ctx;
        self.pf_factor = options.prefetchers.evasion_factor();
        self.streak = None;
        self.store = None;
        self.counters = MemCounters::new();
    }

    /// The occupancy context of the last [`arm`](Self::arm).
    pub(crate) fn context(&self) -> OccupancyContext {
        self.ctx
    }

    /// The streak response of a store line at `streak` lines (raw; floored
    /// at one line, as the evasion context always was): what its
    /// [`Event::WaStore`] carries.  Kept while the streak's bits repeat:
    /// consecutive lines of a steady-state row share one `exp()`.
    #[inline]
    pub(crate) fn streak_response(&mut self, streak: f64) -> f64 {
        let bits = streak.to_bits();
        match self.streak {
            Some((at, response)) if at == bits => response,
            _ => {
                let response = self.speci2m.streak_response(streak.max(1.0));
                self.streak = Some((bits, response));
                response
            }
        }
    }

    /// Whether every store line of a streak of `streak` lines or more has
    /// the streak response 1.0, to the bit.  The response is `1 −
    /// e^(−s/scale)`, and from `s / scale >= 38.5` on, `e^(−s/scale) <=
    /// e^(−38.5) < 2^-55`: any `exp` within an ulp of it returns less than
    /// 2^-54, half the spacing of the doubles below 1.0, so the difference
    /// rounds to 1.0 (the quotient, correctly rounded, stays at or above
    /// the representable 38.5 for every larger streak).
    fn saturated(speci2m: &SpecI2MParams, streak: u64) -> bool {
        streak as f64 / speci2m.streak_scale_lines >= 38.5
    }

    /// The least streak from which every streak is
    /// [`saturated`](Self::saturated) (`u64::MAX` if none below 2^53 is),
    /// under the machine's raw parameter block: it depends on its
    /// `streak_scale_lines` alone, not on an arming, so that the periods
    /// a trace holds are dynamics.  `saturated` grows with the streak (the
    /// quotient of a larger one is no smaller), so it is a bisection away.
    pub(crate) fn saturation(speci2m: &SpecI2MParams) -> u64 {
        let saturated = |streak| Self::saturated(speci2m, streak);
        let (mut below, mut at) = (0, 1 << 53);
        if saturated(0) {
            return 0;
        } else if !saturated(at) {
            return u64::MAX;
        }
        while at - below > 1 {
            let mid = below + (at - below) / 2;
            match saturated(mid) {
                true => at = mid,
                false => below = mid,
            }
        }
        at
    }

    /// Account one event.  A write-allocate store line is weighed once
    /// while its `full`, stream count and response repeat: consecutive
    /// lines of a steady-state row share one weight.
    // `always`: every live site passes a literal event, so the match folds
    // to that site's one arm.  Left to the inliner's size heuristics this
    // stayed a call and figs. 5–11 took 8–25 % longer.
    #[inline(always)]
    pub(crate) fn apply(&mut self, event: Event) -> Weight {
        let weight = match event {
            Event::WaStore {
                full,
                streams,
                response,
            } => {
                let key = (full, streams, response);
                match self.store {
                    Some((at, weight)) if at == key => weight,
                    _ => {
                        let weight = self.weigh(event);
                        self.store = Some((key, weight));
                        weight
                    }
                }
            }
            event => self.weigh(event),
        };
        self.apply_weight(weight);
        weight
    }

    /// The weight of an event that is not a run.
    #[inline(always)]
    pub(crate) fn weigh(&self, event: Event) -> Weight {
        match event {
            Event::DemandRead => Weight::Read,
            Event::PrefetchRead => Weight::Prefetch,
            Event::Writeback => Weight::Write(1.0),
            Event::WaStore {
                full,
                streams,
                response,
            } => self.store_weight(full, streams as usize, f64::from_bits(response)),
            Event::NtLine { full } => self.nt_weight(full),
            Event::WritebackBulk { distinct } => Weight::Write(distinct as f64),
            Event::Repeat { .. } | Event::Period { .. } => {
                unreachable!("a run or a period is weighed by the events it repeats")
            }
        }
    }

    /// The weight of a write-allocate store line with `streams` streams
    /// open (the stream response floors a count below one) and streak
    /// response `streak`.
    #[inline(always)]
    fn store_weight(&self, full: bool, streams: usize, streak: f64) -> Weight {
        let response = SpecI2MResponse::with_streak(self.ramp, self.node, streak);
        let spec_read = self.speci2m.speculative_reads_at(&response);
        let evaded = if full {
            let evaded = self.speci2m.evasion_at(&response, streams);
            (evaded * self.pf_factor).clamp(0.0, 1.0)
        } else {
            // Partially written lines can never be claimed without a read;
            // under load they still trigger speculative activity.
            0.0
        };
        Weight::Store { evaded, spec_read }
    }

    /// The weight of a non-temporal line: a partial one is a whole
    /// read-modify-write.
    #[inline(always)]
    fn nt_weight(&self, full: bool) -> Weight {
        let read = if full { self.nt_flush } else { 1.0 };
        Weight::Nt { read }
    }

    /// Add one event's weight.
    #[inline(always)]
    pub(crate) fn apply_weight(&mut self, weight: Weight) {
        let c = &mut self.counters;
        match weight {
            Weight::Read => c.read_lines += 1.0,
            Weight::Prefetch => {
                c.read_lines += 1.0;
                c.prefetch_lines += 1.0;
            }
            Weight::Write(lines) => c.write_lines += lines,
            Weight::Store { evaded, spec_read } => {
                c.itom_lines += evaded;
                c.write_allocate_lines += 1.0 - evaded;
                c.read_lines += 1.0 - evaded;
                c.read_lines += spec_read;
                c.speculative_read_lines += spec_read;
            }
            Weight::Nt { read } => {
                c.write_lines += 1.0;
                c.read_lines += read;
            }
        }
    }

    /// [`apply_weight`](Self::apply_weight) `n` times over: each field
    /// through [`repeat_add`] with its increments in `apply_weight`'s order.
    pub(crate) fn apply_repeated(&mut self, weight: Weight, n: u32) {
        let n = u64::from(n);
        let c = &mut self.counters;
        let run = |sum: &mut f64, increments: &[f64]| *sum = repeat_add(*sum, increments, n);
        match weight {
            Weight::Read => run(&mut c.read_lines, &[1.0]),
            Weight::Prefetch => {
                run(&mut c.read_lines, &[1.0]);
                run(&mut c.prefetch_lines, &[1.0]);
            }
            Weight::Write(lines) => run(&mut c.write_lines, &[lines]),
            Weight::Store { evaded, spec_read } => {
                run(&mut c.itom_lines, &[evaded]);
                run(&mut c.write_allocate_lines, &[1.0 - evaded]);
                run(&mut c.read_lines, &[1.0 - evaded, spec_read]);
                run(&mut c.speculative_read_lines, &[spec_read]);
            }
            Weight::Nt { read } => {
                run(&mut c.write_lines, &[1.0]);
                run(&mut c.read_lines, &[read]);
            }
        }
    }

    /// What `n` rounds of [`apply_weight`](Self::apply_weight) over
    /// `weights` (at most [`PERIOD_EVENTS`]) add to `counters`: each field
    /// through [`repeat_add`] with its increments of one round, in
    /// `apply_weight`'s order, which is the same additions per field as the
    /// rounds one weight at a time.
    pub(crate) fn add_periods(counters: &mut MemCounters, weights: &[Weight], n: u64) {
        // The fields, in `MemCounters`' order.
        const READ: usize = 0;
        const WRITE: usize = 1;
        const ITOM: usize = 2;
        const WRITE_ALLOCATE: usize = 3;
        const PREFETCH: usize = 4;
        const SPECULATIVE: usize = 5;
        let c = counters;
        let sums = [
            &mut c.read_lines,
            &mut c.write_lines,
            &mut c.itom_lines,
            &mut c.write_allocate_lines,
            &mut c.prefetch_lines,
            &mut c.speculative_read_lines,
        ];
        let mut increments = [0.0; 2 * PERIOD_EVENTS];
        for (field, sum) in sums.into_iter().enumerate() {
            let mut len = 0;
            let mut add = |a| {
                increments[len] = a;
                len += 1;
            };
            for &weight in weights {
                match (weight, field) {
                    (Weight::Read | Weight::Prefetch, READ) => add(1.0),
                    (Weight::Prefetch, PREFETCH) => add(1.0),
                    (Weight::Write(lines), WRITE) => add(lines),
                    (Weight::Store { evaded, .. }, ITOM) => add(evaded),
                    (Weight::Store { evaded, .. }, WRITE_ALLOCATE) => add(1.0 - evaded),
                    (Weight::Store { evaded, spec_read }, READ) => {
                        add(1.0 - evaded);
                        add(spec_read);
                    }
                    (Weight::Store { spec_read, .. }, SPECULATIVE) => add(spec_read),
                    (Weight::Nt { .. }, WRITE) => add(1.0),
                    (Weight::Nt { read }, READ) => add(read),
                    _ => {}
                }
            }
            *sum = repeat_add(*sum, &increments[..len], n);
        }
    }
}

/// The most weights [`Accountant::add_periods`] repeats: the events of two
/// lines of each of the at most 8 operands a counted core's kernel has,
/// each line at most two (a load miss and its buddy prefetch).
pub(crate) const PERIOD_EVENTS: usize = 32;

/// What `n` rounds of `for a in increments { x += a }` return, bit for
/// bit, in O(binades crossed) additions instead of O(n).
///
/// The doubles of a binade `[2^e, 2^(e+1))` are the multiples of one ulp
/// `u`, so while a sum stays inside one, `x += a` moves `x` by exactly
/// `round(a / u) · u` — unless `a / u` is a half-integer, whose rounding
/// goes to the even neighbour and so depends on `x`.  Whole rounds
/// therefore jump, in integer units of `u`, for as long as the round after
/// them cannot reach the binade's top; the round that may cross it, every
/// round with a tie or with a summand of a binade or more, and all rounds
/// of a run of at most 8 (where the arithmetic costs more than it saves)
/// are added as written.  The subnormals and the lowest normal binade share
/// one ulp and count as one binade.  A negative, NaN or infinite `x`, or a
/// summand that is negative or NaN, takes the plain loop.
fn repeat_add(mut x: f64, increments: &[f64], mut n: u64) -> f64 {
    let round = |x: f64| increments.iter().fold(x, |x, &a| x + a);
    if n <= 8 || !(x.is_finite() && x.is_sign_positive() && increments.iter().all(|&a| a >= 0.0)) {
        for _ in 0..n {
            x = round(x);
        }
        return x;
    }
    // Every double of a binade is `units · u` with `units < TOP`.
    const TOP: u64 = 1 << 53;
    while n > 0 {
        if x.is_infinite() {
            // ∞ plus any non-negative summand is ∞.
            return x;
        }
        let bits = x.to_bits();
        let biased = bits >> 52;
        let units = (bits & (TOP / 2 - 1)) | if biased > 0 { TOP / 2 } else { 0 };
        let scale = biased.max(1);
        let u = if scale > 52 {
            f64::from_bits((scale - 52) << 52)
        } else {
            f64::from_bits(1 << (scale - 1))
        };
        // Units one round moves `x` while inside the binade, exact unless a
        // summand ties or outgrows the binade.
        let (mut step, mut exact) = (0u64, true);
        for &a in increments {
            let ratio = a / u;
            // `ratio` is not negative, so its truncation is its floor, and
            // below 2^53 the fraction left is exact: a tie is 0.5, and the
            // rounding of anything else is the floor or the one above it.
            let whole = ratio as u64;
            let fraction = ratio - whole as f64;
            exact &= ratio < TOP as f64 && fraction != 0.5;
            step = step.saturating_add(whole.saturating_add(u64::from(fraction > 0.5)));
        }
        if !exact {
            let before = x;
            x = round(x);
            n -= 1;
            if x.to_bits() == before.to_bits() {
                // A round that leaves `x` as it is always will.
                return x;
            }
            continue;
        }
        if step == 0 {
            // Every summand rounds away.
            return x;
        }
        let rounds = ((TOP - 1 - units) / step).min(n);
        if rounds == 0 {
            // The round that crosses into the next binade.
            x = round(x);
            n -= 1;
        } else {
            x = (units + rounds * step) as f64 * u;
            n -= rounds;
        }
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use clover_machine::icelake_sp_8360y;

    /// Seeded splitmix64: the oracle's inputs, with no code of its own
    /// shared with `repeat_add`.
    struct Draw(u64);

    impl Draw {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        /// Uniform in `[0, 1)`.
        fn unit(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// The evasion fractions fig. 5's store lines produce on the ICX: every
    /// domain load and populated-domain count, one to three streams, streak
    /// responses from one line to saturation.
    fn fig5_evasion_fractions() -> Vec<f64> {
        let m = icelake_sp_8360y();
        let mut fractions = Vec::new();
        for cores in 1..=18 {
            for domains in 1..=4 {
                let ctx = OccupancyContext::domain_load(&m, cores, domains);
                let account = Accountant::new(&m.speci2m, ctx, CoreSimOptions::default());
                for streams in 1..=3 {
                    for streak in [1.0, 2.0, 7.0, 27.0, 240.0, 973.0, 4096.0] {
                        let response = m.speci2m.streak_response(streak);
                        if let Weight::Store { evaded, .. } =
                            account.store_weight(true, streams, response)
                        {
                            fractions.push(evaded);
                        }
                    }
                }
            }
        }
        fractions.retain(|&e| e > 0.0);
        fractions.sort_by(f64::total_cmp);
        fractions.dedup();
        assert!(fractions.len() > 100, "{} fractions", fractions.len());
        fractions
    }

    /// `cases` draws of `(x, summands, n)` against `n` rounds of the plain
    /// loop, by bits.
    fn repeat_add_sweep(cases: u64, seed: u64) {
        let fractions = fig5_evasion_fractions();
        let mut draw = Draw(seed);
        for case in 0..cases {
            let x = match draw.below(6) {
                0 => 0.0,
                1 => f64::from_bits(draw.below(1 << 52)),
                2 => draw.below(1 << 40) as f64,
                3 => (1.0 + draw.unit()) * 2f64.powi(draw.below(40) as i32),
                // The last ulps below a power of two, 2^-1022 to 2^64.
                _ => {
                    let biased_power = 1 + draw.below(1087);
                    f64::from_bits((biased_power << 52) - 1 - draw.below(4))
                }
            };
            let ulp = f64::from_bits(x.to_bits() + 1) - x;
            let second = draw.below(2);
            let mut summand = || match draw.below(9) {
                0 => 0.0,
                1 => 1.0,
                2 => (1 + draw.below(63)) as f64 / f64::from(1u32 << draw.below(16)),
                3 => fractions[draw.below(fractions.len() as u64) as usize],
                4 => 1.0 - fractions[draw.below(fractions.len() as u64) as usize],
                // An exact half-ulp tie of `x`'s binade.
                5 => (draw.below(4) as f64 + 0.5) * ulp,
                // At least 2^52 ulps: one add leaves the binade.
                6 => ulp * 2f64.powi(52) * (1.0 + 3.0 * draw.unit()),
                // A few ulps and a fraction.
                7 => ulp * 3.0 * draw.unit(),
                _ => draw.unit(),
            };
            let summands: Vec<f64> = (0..=second).map(|_| summand()).collect();
            let n = if draw.below(8) == 0 {
                10f64.powf(6.0 * draw.unit()) as u64
            } else {
                draw.below(21)
            };
            let mut naive = x;
            for _ in 0..n {
                for &a in &summands {
                    naive += a;
                }
            }
            assert_eq!(
                repeat_add(x, &summands, n).to_bits(),
                naive.to_bits(),
                "case {case}: x = {x:e} ({:#x}), summands {summands:?}, n = {n}",
                x.to_bits()
            );
        }
    }

    /// The bits of a store line's weight.
    fn store_bits(weight: Weight) -> [u64; 2] {
        match weight {
            Weight::Store { evaded, spec_read } => [evaded.to_bits(), spec_read.to_bits()],
            other => panic!("not a store line's weight: {other:?}"),
        }
    }

    #[test]
    fn a_store_line_weighs_what_a_fresh_weighing_gives() {
        // `apply` keeps the last store line's weight for as long as its
        // `full`, stream count and response repeat.  Each line below
        // repeats the one before or changes one of the three, and a re-arm
        // to another occupancy starts with the line the first arming ended
        // on: the counters must be a fresh `store_weight` per line, bit for
        // bit.
        let m = icelake_sp_8360y();
        let options = CoreSimOptions::default();
        let [short, long] = [3.0, 240.0].map(|s| m.speci2m.streak_response(s).to_bits());
        let lines = [
            (true, 1, short),
            (true, 1, short),
            (true, 2, short),
            (false, 2, short),
            (false, 2, long),
            (true, 2, long),
            (true, 3, long),
            (true, 1, long),
            (true, 1, long),
        ];
        let contexts = [
            OccupancyContext::compact(&m, m.total_cores()),
            OccupancyContext::domain_load(&m, 12, 2),
        ];
        let mut live = Accountant::new(&m.speci2m, contexts[0], options);
        // Each line's key and the bits of its fresh weight, in order.
        let mut weighed = Vec::new();
        for (pass, ctx) in contexts.into_iter().enumerate() {
            live.arm(ctx, options);
            let mut fresh = Accountant::new(&m.speci2m, ctx, options);
            let order: Vec<_> = match pass {
                0 => lines.to_vec(),
                _ => lines.iter().rev().copied().collect(),
            };
            for (full, streams, response) in order {
                let weight = fresh.store_weight(full, streams as usize, f64::from_bits(response));
                weighed.push(((full, streams, response), store_bits(weight)));
                fresh.apply_weight(weight);
                live.apply(Event::WaStore {
                    full,
                    streams,
                    response,
                });
                assert_eq!(
                    live.counters.bits(),
                    fresh.counters.bits(),
                    "pass {pass}: {full} {streams} {response:#x}"
                );
            }
        }
        // Where a field changes, or the arming does, so does the weight: a
        // key without that field, or a weight kept over the re-arm, would
        // have counted the line before's.
        let rearm = lines.len();
        for i in 1..weighed.len() {
            let ((key, weight), (before, weight_before)) = (weighed[i], weighed[i - 1]);
            if key != before || i == rearm {
                assert_ne!(weight, weight_before, "line {i}: {key:?} after {before:?}");
            }
        }
    }

    #[test]
    fn repeat_add_is_the_naive_loop_bit_for_bit() {
        repeat_add_sweep(20_000, 25);
    }

    #[test]
    #[ignore = "a million cases: CI runs it in release"]
    fn repeat_add_is_the_naive_loop_over_a_million_cases() {
        repeat_add_sweep(1_000_000, 2311_0427);
    }
}
