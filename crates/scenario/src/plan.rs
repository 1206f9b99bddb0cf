//! Scenario and sweep-plan types.

use std::fmt;

use clover_core::{CodeVariant, TrafficOptions};
use clover_machine::{MachinePreset, ReplacementPolicyKind, WritePolicyKind};

/// A sweep axis whose values have names on the command line.  The parser,
/// its messages and the usage line read an axis only through this trait,
/// so a value's name is written once: in its axis's `named_axis!` table
/// below, or in `clover-machine` for the two cache-policy axes.
pub trait NamedAxis: Copy + PartialEq + 'static {
    /// Every value, in canonical order: what `all` on the command line spans.
    fn all() -> Vec<Self>;

    /// The value's stable name.
    fn name(&self) -> &'static str;
}

/// `named_axis!(Axis { "name" => Variant, … })` is the axis's table: its
/// `all()` (table order), `name()`, `Display` and [`NamedAxis`] all derive
/// from the rows.  `named_axis!(Type)` joins a type that has `all` and
/// `name` already.
macro_rules! named_axis {
    ($axis:ty) => {
        impl NamedAxis for $axis {
            fn all() -> Vec<Self> {
                <$axis>::all()
            }

            fn name(&self) -> &'static str {
                <$axis>::name(self)
            }
        }
    };
    ($axis:ident { $($name:literal => $variant:ident),* $(,)? }) => {
        impl $axis {
            /// Every value, in canonical order (a default comes first).
            pub fn all() -> Vec<$axis> {
                vec![$($axis::$variant),*]
            }

            /// Stable name used in artifact ids and on the command line.
            pub fn name(&self) -> &'static str {
                match self {
                    $($axis::$variant => $name),*
                }
            }
        }

        impl fmt::Display for $axis {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str(self.name())
            }
        }

        named_axis!($axis);
    };
}

named_axis!(ReplacementPolicyKind);
named_axis!(WritePolicyKind);

/// Code stage of a scenario: which variant of CloverLeaf the traffic model
/// evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// The unmodified code (hardware SpecI2M where applicable).
    Original,
    /// The unmodified code with SpecI2M disabled via the MSR bit.
    SpecI2MOff,
    /// The paper's optimized code (NT stores + ac01/ac05 restructuring).
    Optimized,
}

impl Stage {
    /// The traffic-model code variant this stage maps to.
    pub fn variant(&self) -> CodeVariant {
        match self {
            Stage::Original => CodeVariant::Original,
            Stage::SpecI2MOff => CodeVariant::SpecI2MOff,
            Stage::Optimized => CodeVariant::Optimized,
        }
    }

    /// Traffic-model options of this stage on `ranks` ranks.
    pub fn options(&self, ranks: usize) -> TrafficOptions {
        TrafficOptions::for_variant(self.variant(), ranks)
    }
}

named_axis!(Stage {
    "original" => Original,
    "speci2m-off" => SpecI2MOff,
    "optimized" => Optimized,
});

/// Layer-condition axis of a sweep: whether the stencil rows of the local
/// grid fit the caches.  `Ok` is the condition as evaluated on the Tiny
/// grid for every loop, preset and rank count (see
/// `tests/integration.rs::layer_condition_holds_at_every_rank_count_of_every_preset`);
/// `Broken` exposes the what-if hook of the traffic model as a sweepable
/// axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LayerCondition {
    /// Stencil rows fit: reads follow the LC-fulfilled balance (default).
    #[default]
    Ok,
    /// Rows evicted between uses: reads follow the LC-broken balance.
    Broken,
}

impl LayerCondition {
    /// The flag value the traffic model consumes.
    pub fn is_ok(&self) -> bool {
        matches!(self, LayerCondition::Ok)
    }
}

named_axis!(LayerCondition {
    "ok" => Ok,
    "broken" => Broken,
});

/// Lines each co-scheduled tenant streams per turn at the shared LLC when
/// a scenario runs against an aggressor; the paper-faithful solo scenarios
/// never consult it.
pub const DEFAULT_INTERLEAVE: u64 = 64;

/// Multi-tenant interference axis: which competing kernel stream (if any)
/// is co-scheduled against the scenario's CloverLeaf ranks on the shared
/// last-level cache.
///
/// The aggressor's intensity is folded into the variant: `Stream` is a
/// single read stream, `StreamHeavy` doubles the streamed volume with a
/// non-temporal write stream, and `Thrash` cycles a reused footprint the
/// size of the whole shared LLC — the LRU worst case for a reuse victim.
/// Note that "heavy" means memory-bandwidth-heavy, not LLC-hostile: the
/// NT-store half of `StreamHeavy` bypasses the cache, so it spends half of
/// every co-run turn on traffic that allocates nothing — on an LLC-capacity
/// view it is *gentler* than `Stream`, which the interference artifacts
/// make visible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Aggressor {
    /// No co-tenant: the paper's exclusive-node setup (default).
    #[default]
    None,
    /// One streaming read tenant (one pass over the LLC capacity).
    Stream,
    /// A read + non-temporal-write streaming tenant at twice the volume.
    StreamHeavy,
    /// A capacity-thrashing tenant cycling an LLC-sized reused footprint.
    Thrash,
}

named_axis!(Aggressor {
    "none" => None,
    "stream" => Stream,
    "stream-heavy" => StreamHeavy,
    "thrash" => Thrash,
});

/// An inclusive rank range, written `start..end` on the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RankRange {
    /// First rank count (inclusive).
    pub start: usize,
    /// Last rank count (inclusive).
    pub end: usize,
}

impl RankRange {
    /// Inclusive range from `start` to `end`.
    pub fn new(start: usize, end: usize) -> Self {
        Self { start, end }
    }

    /// Parse `"A..B"` (also accepted: `"A..=B"`); both bounds inclusive.
    pub fn parse(s: &str) -> Option<Self> {
        let (a, b) = s.split_once("..")?;
        let b = b.strip_prefix('=').unwrap_or(b);
        let start: usize = a.trim().parse().ok()?;
        let end: usize = b.trim().parse().ok()?;
        Some(Self { start, end })
    }

    /// Number of rank counts in the range (0 when empty).
    pub fn len(&self) -> usize {
        if self.start > self.end {
            0
        } else {
            self.end - self.start + 1
        }
    }

    /// True when the range contains no rank count.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The range as the iterator the scaling model consumes.
    pub fn iter(&self) -> std::ops::RangeInclusive<usize> {
        self.start..=self.end
    }
}

impl fmt::Display for RankRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}..{}", self.start, self.end)
    }
}

/// One evaluation point of a sweep: every axis pinned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scenario {
    /// Machine the scenario runs on.
    pub machine: MachinePreset,
    /// Square grid size (cells per dimension).
    pub grid: usize,
    /// Rank counts to evaluate.
    pub ranks: RankRange,
    /// Code stage.
    pub stage: Stage,
    /// Cache replacement policy of the analytic traffic model.  It does
    /// not reach the co-run behind [`aggressor`](Self::aggressor), which
    /// the simulator runs under true LRU.
    pub replacement: ReplacementPolicyKind,
    /// Store-miss policy of the analytic traffic model; a plan's empty
    /// write-policy axis pins the machine's declared one.  It does not
    /// reach the co-run behind [`aggressor`](Self::aggressor) either, which
    /// is simulated under the declared policy.
    pub write_policy: WritePolicyKind,
    /// Layer-condition assumption of the traffic model.
    pub layer_condition: LayerCondition,
    /// Co-scheduled interference tenant on the shared LLC.
    pub aggressor: Aggressor,
    /// Shared-LLC interleave granularity of a contended run (lines per
    /// tenant turn); inert when [`aggressor`](Self::aggressor) is `None`.
    pub interleave: u64,
}

impl Scenario {
    /// Stable identifier, used as the artifact id of the default evaluator.
    /// Policy axes append a suffix only when they deviate from the paper's
    /// defaults — the write policy from the one the machine declares — so
    /// every pre-existing artifact id is unchanged.
    pub fn id(&self) -> String {
        let mut id = format!(
            "sweep-{}-g{}-r{}-{}",
            self.machine.name(),
            self.grid,
            self.ranks,
            self.stage
        );
        if self.replacement != ReplacementPolicyKind::default() {
            id.push('-');
            id.push_str(self.replacement.name());
        }
        if self.write_policy != self.machine.write_policy() {
            id.push('-');
            id.push_str(self.write_policy.name());
        }
        if self.layer_condition != LayerCondition::default() {
            id.push_str("-lc-");
            id.push_str(self.layer_condition.name());
        }
        if self.aggressor != Aggressor::default() {
            id.push_str("-vs-");
            id.push_str(self.aggressor.name());
        }
        if self.interleave != DEFAULT_INTERLEAVE {
            id.push_str(&format!("-il{}", self.interleave));
        }
        id
    }

    /// Traffic-model options of this scenario at `ranks` ranks: the stage's
    /// options refined by the policy and layer-condition axes.
    pub fn options(&self, ranks: usize) -> TrafficOptions {
        self.stage
            .options(ranks)
            .with_layer_condition(self.layer_condition.is_ok())
            .with_replacement(self.replacement)
            .with_write_policy(self.write_policy)
    }

    /// Human-readable artifact title.
    pub fn title(&self) -> String {
        format!(
            "scaling sweep on {}: {g}x{g} grid, ranks {}, {} code",
            self.machine.name(),
            self.ranks,
            self.stage,
            g = self.grid,
        )
    }

    /// Check the scenario is evaluable; the error text is suitable for a
    /// command-line usage message.
    pub fn validate(&self) -> Result<(), String> {
        if self.grid == 0 {
            return Err(format!("{}: grid size must be >= 1", self.id()));
        }
        if self.ranks.is_empty() {
            return Err(format!(
                "{}: empty rank range {} (start must be <= end)",
                self.id(),
                self.ranks
            ));
        }
        if self.ranks.start == 0 {
            return Err(format!("{}: rank counts start at 1", self.id()));
        }
        let cores = self.machine.machine().total_cores();
        if self.ranks.end > cores {
            return Err(format!(
                "{}: rank range {} exceeds the {} cores of {}",
                self.id(),
                self.ranks,
                cores,
                self.machine.name()
            ));
        }
        if self.interleave == 0 {
            return Err(format!(
                "{}: interleave granularity must be >= 1 line",
                self.id()
            ));
        }
        Ok(())
    }
}

/// A cartesian grid of scenarios: every machine × grid × rank range × stage
/// (× replacement × write policy × layer condition × aggressor ×
/// interleave) combination.  The policy and tenancy axes are optional:
/// leaving one empty pins it to the paper's default instead of emptying the
/// plan.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SweepPlan {
    /// Machine axis.
    pub machines: Vec<MachinePreset>,
    /// Grid-size axis.
    pub grids: Vec<usize>,
    /// Rank-range axis.
    pub rank_ranges: Vec<RankRange>,
    /// Code-stage axis.
    pub stages: Vec<Stage>,
    /// Replacement-policy axis (empty = the default LRU).
    pub replacements: Vec<ReplacementPolicyKind>,
    /// Write-policy axis (empty = each machine's declared policy).
    pub write_policies: Vec<WritePolicyKind>,
    /// Layer-condition axis (empty = the default fulfilled).
    pub layer_conditions: Vec<LayerCondition>,
    /// Interference-tenant axis (empty = the default exclusive node).
    pub aggressors: Vec<Aggressor>,
    /// Interleave-granularity axis (empty = [`DEFAULT_INTERLEAVE`]).
    pub interleaves: Vec<u64>,
}

impl SweepPlan {
    /// Empty plan; fill the axes with the builder methods.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a machine to the machine axis.
    pub fn machine(mut self, preset: MachinePreset) -> Self {
        self.machines.push(preset);
        self
    }

    /// Add a grid size to the grid axis.
    pub fn grid(mut self, grid: usize) -> Self {
        self.grids.push(grid);
        self
    }

    /// Add a rank range to the rank axis.
    pub fn ranks(mut self, range: RankRange) -> Self {
        self.rank_ranges.push(range);
        self
    }

    /// Add a code stage to the stage axis.
    pub fn stage(mut self, stage: Stage) -> Self {
        self.stages.push(stage);
        self
    }

    /// Add a replacement policy to the (optional) replacement axis.
    pub fn replacement(mut self, replacement: ReplacementPolicyKind) -> Self {
        self.replacements.push(replacement);
        self
    }

    /// Add a write policy to the (optional) write-policy axis.
    pub fn write_policy(mut self, write_policy: WritePolicyKind) -> Self {
        self.write_policies.push(write_policy);
        self
    }

    /// Add a layer condition to the (optional) layer-condition axis.
    pub fn layer_condition(mut self, layer_condition: LayerCondition) -> Self {
        self.layer_conditions.push(layer_condition);
        self
    }

    /// Add an aggressor to the (optional) interference axis.
    pub fn aggressor(mut self, aggressor: Aggressor) -> Self {
        self.aggressors.push(aggressor);
        self
    }

    /// Add an interleave granularity to the (optional) interleave axis.
    pub fn interleave(mut self, interleave: u64) -> Self {
        self.interleaves.push(interleave);
        self
    }

    /// Number of scenarios the plan expands to (the product of the axis
    /// lengths; the optional policy axes count 1 when left empty).
    pub fn len(&self) -> usize {
        self.machines.len()
            * self.grids.len()
            * self.rank_ranges.len()
            * self.stages.len()
            * self.replacements.len().max(1)
            * self.write_policies.len().max(1)
            * self.layer_conditions.len().max(1)
            * self.aggressors.len().max(1)
            * self.interleaves.len().max(1)
    }

    /// True when any mandatory axis is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Expand the cartesian product in deterministic order: machines
    /// outermost, then grids, rank ranges, stages, and the optional axes
    /// innermost (replacement, write policy, layer condition, aggressor,
    /// interleave).
    pub fn expand(&self) -> Vec<Scenario> {
        fn or_default<T: Copy + Default>(axis: &[T]) -> Vec<T> {
            if axis.is_empty() {
                vec![T::default()]
            } else {
                axis.to_vec()
            }
        }
        let replacements = or_default(&self.replacements);
        let layer_conditions = or_default(&self.layer_conditions);
        let aggressors = or_default(&self.aggressors);
        let interleaves = if self.interleaves.is_empty() {
            vec![DEFAULT_INTERLEAVE]
        } else {
            self.interleaves.clone()
        };
        let mut scenarios = Vec::with_capacity(self.len());
        for &machine in &self.machines {
            let write_policies = if self.write_policies.is_empty() {
                vec![machine.write_policy()]
            } else {
                self.write_policies.clone()
            };
            for &grid in &self.grids {
                for &ranks in &self.rank_ranges {
                    for &stage in &self.stages {
                        for &replacement in &replacements {
                            for &write_policy in &write_policies {
                                for &layer_condition in &layer_conditions {
                                    for &aggressor in &aggressors {
                                        for &interleave in &interleaves {
                                            scenarios.push(Scenario {
                                                machine,
                                                grid,
                                                ranks,
                                                stage,
                                                replacement,
                                                write_policy,
                                                layer_condition,
                                                aggressor,
                                                interleave,
                                            });
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        scenarios
    }

    /// Validate every scenario of the plan (first error wins).
    pub fn validate(&self) -> Result<(), String> {
        for scenario in self.expand() {
            scenario.validate()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_range_parses_both_syntaxes() {
        assert_eq!(RankRange::parse("1..72"), Some(RankRange::new(1, 72)));
        assert_eq!(RankRange::parse("9..=18"), Some(RankRange::new(9, 18)));
        assert_eq!(RankRange::parse("7..7"), Some(RankRange::new(7, 7)));
        assert_eq!(RankRange::parse("72"), None);
        assert_eq!(RankRange::parse("a..b"), None);
        assert_eq!(RankRange::parse("1..-3"), None);
    }

    #[test]
    fn rank_range_length_and_emptiness() {
        assert_eq!(RankRange::new(1, 72).len(), 72);
        assert_eq!(RankRange::new(7, 7).len(), 1);
        assert!(RankRange::new(5, 4).is_empty());
        assert_eq!(RankRange::new(5, 4).len(), 0);
    }

    /// The names `all` yields, in order.
    fn names<T>(all: Vec<T>, name: fn(&T) -> &'static str) -> Vec<&'static str> {
        all.iter().map(name).collect()
    }

    #[test]
    fn stage_parsing_covers_all_and_rejects_unknown() {
        // The names are artifact ids and cache keys: pinned to their
        // variants here, which a round trip through the table cannot do.
        assert_eq!(
            names(Stage::all(), Stage::name),
            ["original", "speci2m-off", "optimized"]
        );
        assert_eq!(Stage::SpecI2MOff.name(), "speci2m-off");
        assert_eq!(Stage::Optimized.to_string(), "optimized");
    }

    #[test]
    fn expansion_count_is_the_cartesian_product() {
        let plan = SweepPlan::new()
            .machine(MachinePreset::IceLakeSp8360y)
            .machine(MachinePreset::SapphireRapids8480)
            .grid(1920)
            .grid(4000)
            .grid(15_360)
            .ranks(RankRange::new(1, 18))
            .ranks(RankRange::new(36, 72))
            .stage(Stage::Original)
            .stage(Stage::Optimized);
        assert_eq!(plan.len(), 2 * 3 * 2 * 2);
        let scenarios = plan.expand();
        assert_eq!(scenarios.len(), plan.len());
        // Deterministic order: machines outermost, stages innermost.
        assert_eq!(scenarios[0].machine, MachinePreset::IceLakeSp8360y);
        assert_eq!(scenarios[0].stage, Stage::Original);
        assert_eq!(scenarios[1].stage, Stage::Optimized);
        assert_eq!(scenarios[11].machine, MachinePreset::IceLakeSp8360y);
        assert_eq!(scenarios[12].machine, MachinePreset::SapphireRapids8480);
        // Ids are unique across the expansion.
        let mut ids: Vec<String> = scenarios.iter().map(|s| s.id()).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), scenarios.len());
    }

    #[test]
    fn policy_axes_multiply_the_expansion_and_suffix_the_ids() {
        let plan = SweepPlan::new()
            .machine(MachinePreset::IceLakeSp8360y)
            .grid(1920)
            .ranks(RankRange::new(1, 4))
            .stage(Stage::Original)
            .replacement(ReplacementPolicyKind::Lru)
            .replacement(ReplacementPolicyKind::Plru)
            .write_policy(WritePolicyKind::Allocate)
            .write_policy(WritePolicyKind::NoAllocate)
            .layer_condition(LayerCondition::Broken);
        assert_eq!(plan.len(), 2 * 2);
        let scenarios = plan.expand();
        assert_eq!(scenarios.len(), 4);
        // Innermost nesting: replacement, then write policy, then LC.
        assert_eq!(scenarios[0].replacement, ReplacementPolicyKind::Lru);
        assert_eq!(scenarios[0].write_policy, WritePolicyKind::Allocate);
        assert_eq!(scenarios[1].write_policy, WritePolicyKind::NoAllocate);
        assert_eq!(scenarios[2].replacement, ReplacementPolicyKind::Plru);
        // Ids carry suffixes only for the non-default choices.
        assert_eq!(
            scenarios[0].id(),
            "sweep-icx-8360y-g1920-r1..4-original-lc-broken"
        );
        assert_eq!(
            scenarios[3].id(),
            "sweep-icx-8360y-g1920-r1..4-original-plru-no-allocate-lc-broken"
        );
        let mut ids: Vec<String> = scenarios.iter().map(|s| s.id()).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), scenarios.len());
    }

    #[test]
    fn default_scenario_ids_are_byte_stable() {
        // Plans that never touch the policy axes must keep their pre-policy
        // artifact ids so `figures all --check` stays byte-identical.
        let plan = SweepPlan::new()
            .machine(MachinePreset::IceLakeSp8360y)
            .grid(1920)
            .ranks(RankRange::new(1, 18))
            .stage(Stage::Original);
        let scenarios = plan.expand();
        assert_eq!(scenarios.len(), 1);
        assert_eq!(scenarios[0].id(), "sweep-icx-8360y-g1920-r1..18-original");
    }

    #[test]
    fn layer_condition_parses_names_and_all() {
        assert_eq!(
            names(LayerCondition::all(), LayerCondition::name),
            ["ok", "broken"]
        );
        assert_eq!(LayerCondition::Broken.name(), "broken");
        assert!(LayerCondition::Ok.is_ok());
        assert!(!LayerCondition::Broken.is_ok());
    }

    #[test]
    fn empty_axis_empties_the_plan() {
        let plan = SweepPlan::new().grid(1920).ranks(RankRange::new(1, 4));
        assert!(plan.is_empty());
        assert!(plan.expand().is_empty());
    }

    #[test]
    fn validation_catches_boundary_mistakes() {
        let base = Scenario {
            machine: MachinePreset::IceLakeSp8360y,
            grid: 1920,
            ranks: RankRange::new(1, 72),
            stage: Stage::Original,
            replacement: ReplacementPolicyKind::default(),
            write_policy: WritePolicyKind::default(),
            layer_condition: LayerCondition::default(),
            aggressor: Aggressor::default(),
            interleave: DEFAULT_INTERLEAVE,
        };
        assert!(base.validate().is_ok());
        let mut s = base.clone();
        s.grid = 0;
        assert!(s.validate().unwrap_err().contains("grid"));
        let mut s = base.clone();
        s.ranks = RankRange::new(5, 4);
        assert!(s.validate().unwrap_err().contains("empty rank range"));
        let mut s = base.clone();
        s.ranks = RankRange::new(0, 4);
        assert!(s.validate().unwrap_err().contains("start at 1"));
        let mut s = base.clone();
        s.ranks = RankRange::new(1, 104);
        assert!(s.validate().unwrap_err().contains("exceeds"));
        // SPR 8470 has 104 cores, so the same range is fine there.
        s.machine = MachinePreset::SapphireRapids8470 { snc: true };
        assert!(s.validate().is_ok());
        let mut s = base.clone();
        s.interleave = 0;
        assert!(s.validate().unwrap_err().contains("interleave"));
    }

    #[test]
    fn aggressor_parses_names_and_all() {
        assert_eq!(
            names(Aggressor::all(), Aggressor::name),
            ["none", "stream", "stream-heavy", "thrash"]
        );
        assert_eq!(Aggressor::StreamHeavy.name(), "stream-heavy");
        assert_eq!(Aggressor::Thrash.to_string(), "thrash");
    }

    #[test]
    fn tenancy_axes_multiply_the_expansion_and_suffix_the_ids() {
        let plan = SweepPlan::new()
            .machine(MachinePreset::IceLakeSp8360y)
            .grid(1920)
            .ranks(RankRange::new(1, 4))
            .stage(Stage::Original)
            .aggressor(Aggressor::None)
            .aggressor(Aggressor::Thrash)
            .interleave(DEFAULT_INTERLEAVE)
            .interleave(8);
        assert_eq!(plan.len(), 2 * 2);
        let scenarios = plan.expand();
        assert_eq!(scenarios.len(), 4);
        // Innermost nesting: aggressor, then interleave; defaults keep the
        // pre-tenancy id bytes.
        assert_eq!(scenarios[0].id(), "sweep-icx-8360y-g1920-r1..4-original");
        assert_eq!(
            scenarios[1].id(),
            "sweep-icx-8360y-g1920-r1..4-original-il8"
        );
        assert_eq!(
            scenarios[2].id(),
            "sweep-icx-8360y-g1920-r1..4-original-vs-thrash"
        );
        assert_eq!(
            scenarios[3].id(),
            "sweep-icx-8360y-g1920-r1..4-original-vs-thrash-il8"
        );
        let mut ids: Vec<String> = scenarios.iter().map(|s| s.id()).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), scenarios.len());
    }
}
