//! The `Machine`: clocked execution of segments with energy integration.
//!
//! A [`Machine`] owns the four substrate models (CPU, memory timing, power,
//! switch costs) plus the live clock state, and exposes the primitive moves
//! the engines compose: run a segment, switch the clock, idle in a
//! low-power state. Time advances and energy accumulates as a side effect,
//! tagged per phase so experiments can report breakdowns.

use std::sync::{Arc, OnceLock};

use stm32_power::{EnergyMeter, Joules, PowerModel, PowerState, Watts};
use stm32_rcc::{Hertz, PllConfig, SwitchCostModel, SysclkConfig};

use crate::clock::ClockTree;
use crate::cpu::CpuModel;
use crate::memory::MemoryTiming;
use crate::segment::Segment;
use crate::trace::{Timeline, TraceKind};

/// Idle strategy while waiting (e.g. for a QoS deadline).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IdleMode {
    /// Spin at the current clock (TinyEngine's default iso-latency idle).
    BusyRun,
    /// WFI sleep at the current clock.
    Wfi,
    /// Aggressive clock gating + regulator low power (the paper's
    /// "TinyEngine with clock gating" baseline).
    ClockGated,
    /// Stop mode.
    Stop,
}

/// A simulated STM32F767 executing segment traces.
///
/// # Examples
///
/// ```
/// use mcu_sim::{IdleMode, Machine, OpCounts, MemoryTraffic, Segment};
/// use stm32_rcc::{ClockSource, Hertz, PllConfig, SysclkConfig};
///
/// # fn main() -> Result<(), stm32_rcc::RccError> {
/// let hfo = SysclkConfig::Pll(PllConfig::new(
///     ClockSource::hse(Hertz::mhz(50)), 25, 216, 2)?);
/// let mut machine = Machine::new(hfo);
///
/// let seg = Segment::compute(
///     "kernel",
///     OpCounts { mac: 216_000, ..OpCounts::ZERO },
///     MemoryTraffic::ZERO,
/// );
/// machine.run_segment(&seg);
/// // 216k MACs at 216 MHz is one millisecond.
/// assert!((machine.elapsed_secs() - 1e-3).abs() < 1e-9);
/// assert!(machine.energy().as_f64() > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Machine {
    cpu: CpuModel,
    memory: MemoryTiming,
    power: Arc<PowerModel>,
    /// The live clock state and the switching rules.
    clocks: ClockTree,
    meter: EnergyMeter,
    elapsed: f64,
    switches: u64,
    relocks: u64,
    trace: Option<Timeline>,
}

impl Machine {
    /// Creates a machine with default STM32F767 models, starting at `clock`.
    ///
    /// If `clock` uses the PLL, the PLL starts locked (boot code paid that
    /// cost before our measurement window, as in the paper's setup).
    pub fn new(clock: SysclkConfig) -> Self {
        // The default power model is shared process-wide: constructing a
        // machine per DSE point must not re-allocate it.
        static DEFAULT_POWER: OnceLock<Arc<PowerModel>> = OnceLock::new();
        Machine {
            cpu: CpuModel::cortex_m7(),
            memory: MemoryTiming::stm32f767(),
            power: Arc::clone(DEFAULT_POWER.get_or_init(|| Arc::new(PowerModel::nucleo_f767zi()))),
            clocks: ClockTree::new(clock, SwitchCostModel::default()),
            meter: EnergyMeter::new(),
            elapsed: 0.0,
            switches: 0,
            relocks: 0,
            trace: None,
        }
    }

    /// Enables timeline recording (builder style). Every segment, clock
    /// switch and idle phase is appended to a [`Timeline`] retrievable via
    /// [`Machine::timeline`] / [`Machine::take_timeline`].
    pub fn with_tracing(mut self) -> Self {
        self.trace = Some(Timeline::new());
        self
    }

    /// The recorded timeline, if tracing is enabled.
    pub fn timeline(&self) -> Option<&Timeline> {
        self.trace.as_ref()
    }

    /// Takes the recorded timeline, leaving tracing enabled with a fresh
    /// one.
    pub fn take_timeline(&mut self) -> Option<Timeline> {
        self.trace.replace(Timeline::new())
    }

    fn record_trace(&mut self, start: f64, dt: f64, kind: TraceKind, label: &str, power_mw: f64) {
        let mhz = self.sysclk().as_mhz_f64();
        if let Some(trace) = &mut self.trace {
            trace.push(start, dt, kind, label, mhz, power_mw);
        }
    }

    /// Replaces the CPU model (builder style).
    pub fn with_cpu(mut self, cpu: CpuModel) -> Self {
        self.cpu = cpu;
        self
    }

    /// Replaces the memory timing (builder style).
    pub fn with_memory(mut self, memory: MemoryTiming) -> Self {
        self.memory = memory;
        self
    }

    /// Replaces the power model (builder style).
    ///
    /// Accepts either an owned [`PowerModel`] or a shared
    /// `Arc<PowerModel>`; passing an `Arc` lets many machines (e.g. one per
    /// DSE point) share a single allocation instead of cloning the model.
    pub fn with_power(mut self, power: impl Into<Arc<PowerModel>>) -> Self {
        self.power = power.into();
        self
    }

    /// Replaces the switch-cost model (builder style).
    pub fn with_switch_model(mut self, model: SwitchCostModel) -> Self {
        self.clocks = self.clocks.with_switch_model(model);
        self
    }

    /// Controls whether leaving a PLL keeps it locked in the background
    /// (the paper's warm-PLL LFO/HFO scheme; default `true`). With `false`,
    /// every PLL re-entry pays the full re-lock penalty but LFO segments
    /// avoid the PLL's standby draw.
    pub fn with_keep_pll_warm(mut self, keep: bool) -> Self {
        self.clocks = self.clocks.with_keep_pll_warm(keep);
        self
    }

    /// The active clock configuration.
    pub fn clock(&self) -> &SysclkConfig {
        self.clocks.clock()
    }

    /// The PLL currently locked (active or warm), if any.
    pub fn warm_pll(&self) -> Option<&PllConfig> {
        self.clocks.warm_pll()
    }

    /// The active SYSCLK frequency.
    pub fn sysclk(&self) -> Hertz {
        self.clocks.clock().sysclk()
    }

    /// Seconds elapsed since construction.
    pub fn elapsed_secs(&self) -> f64 {
        self.elapsed
    }

    /// Total energy consumed.
    pub fn energy(&self) -> Joules {
        self.meter.total_energy()
    }

    /// The full tagged energy meter.
    pub fn meter(&self) -> &EnergyMeter {
        &self.meter
    }

    /// Number of clock switches performed.
    pub fn switch_count(&self) -> u64 {
        self.switches
    }

    /// Number of switches that required a PLL re-lock.
    pub fn relock_count(&self) -> u64 {
        self.relocks
    }

    /// The CPU model in use.
    pub fn cpu(&self) -> &CpuModel {
        &self.cpu
    }

    /// The memory timing in use.
    pub fn memory(&self) -> &MemoryTiming {
        &self.memory
    }

    /// The power model in use.
    pub fn power_model(&self) -> &PowerModel {
        &self.power
    }

    /// The shared handle to the power model (cheap to clone into another
    /// machine via [`Machine::with_power`]).
    pub fn power_model_shared(&self) -> &Arc<PowerModel> {
        &self.power
    }

    /// Starts re-programming the main PLL to `target` in the background
    /// while SYSCLK keeps running from a *direct* source — the overlap
    /// trick that makes per-layer HFO changes affordable: the ≈ 200 µs
    /// re-lock proceeds during the LFO memory segment, and the subsequent
    /// [`Machine::switch_clock`] onto the PLL only stalls for whatever lock
    /// time is still outstanding.
    ///
    /// No-ops (returning `false`) when the PLL already holds `target`, a
    /// re-lock to `target` is already pending, or SYSCLK is currently
    /// driven by the PLL (the hardware cannot re-program the PLL that
    /// feeds SYSCLK).
    pub fn prepare_pll(&mut self, target: PllConfig) -> bool {
        let started = self.clocks.prepare_pll(target, self.elapsed);
        if started {
            self.relocks += 1;
        }
        started
    }

    /// The instantaneous executing power draw. A PLL that is locked in the
    /// background *or still locking* draws its full power.
    pub fn run_power(&self) -> Watts {
        self.power.power(&self.clocks.run_state())
    }

    /// Wall time `segment` would take at frequency `sysclk` (pure query, no
    /// state change). Exposed so DSE code can price candidate configurations
    /// without executing them.
    pub fn segment_time_at(&self, segment: &Segment, sysclk: Hertz) -> f64 {
        let cycles = self.cpu.cycles(&segment.ops);
        sysclk.cycles_to_secs(cycles) + segment.traffic.time(&self.memory, sysclk)
    }

    /// Executes `segment` at the current clock, tagging energy with the
    /// segment label. Returns the wall time consumed.
    pub fn run_segment(&mut self, segment: &Segment) -> f64 {
        self.run_segment_tagged(segment, &segment.label)
    }

    /// Executes `segment`, tagging energy with an explicit `tag`.
    pub fn run_segment_tagged(&mut self, segment: &Segment, tag: impl AsRef<str>) -> f64 {
        let dt = self.segment_time_at(segment, self.sysclk());
        let p = self.run_power();
        let start = self.elapsed;
        self.meter.record(tag, p, dt);
        self.elapsed += dt;
        self.record_trace(start, dt, TraceKind::Segment, &segment.label, p.as_mw());
        dt
    }

    /// Switches the clock to `to`, paying the modelled cost. Returns the
    /// switch latency.
    ///
    /// The rules live in [`ClockTree::switch`]: if the target PLL
    /// parameters match the locked (active or warm) PLL, only the mux
    /// toggle is paid; a target still re-locking in the background stalls
    /// for the outstanding lock time; otherwise the re-lock penalty applies
    /// and the newly locked PLL becomes the warm one. Leaving a PLL for a
    /// direct source keeps it warm when [`Machine::with_keep_pll_warm`] is
    /// enabled (default).
    pub fn switch_clock(&mut self, to: SysclkConfig) -> f64 {
        let from = *self.clocks.clock();
        let Some(switch) = self.clocks.switch(to, self.elapsed) else {
            return 0.0;
        };
        let p_during = self.power.power(&switch.state);
        let start = self.elapsed;
        self.meter.record("clock-switch", p_during, switch.secs);
        self.elapsed += switch.secs;
        self.switches += 1;
        if switch.relock {
            self.relocks += 1;
        }
        // The label is built only while recording; the timeline files a
        // switch under the clock it leaves.
        if let Some(trace) = &mut self.trace {
            let label = format!("switch -> {to}");
            let mhz = from.sysclk().as_mhz_f64();
            trace.push(
                start,
                switch.secs,
                TraceKind::ClockSwitch,
                &label,
                mhz,
                p_during.as_mw(),
            );
        }
        switch.secs
    }

    /// Idles for `duration_secs` in `mode`, tagging energy as `tag`.
    ///
    /// # Panics
    ///
    /// Panics if `duration_secs` is negative or non-finite.
    pub fn idle(&mut self, duration_secs: f64, mode: IdleMode, tag: impl Into<String>) {
        assert!(
            duration_secs.is_finite() && duration_secs >= 0.0,
            "idle duration must be a non-negative finite time"
        );
        let state = match mode {
            IdleMode::BusyRun => self.clocks.run_state(),
            IdleMode::Wfi => PowerState::SleepWfi(*self.clock()),
            IdleMode::ClockGated => PowerState::ClockGated,
            IdleMode::Stop => PowerState::Stop,
        };
        let p = self.power.power(&state);
        let tag = tag.into();
        let start = self.elapsed;
        self.meter.record(&tag, p, duration_secs);
        self.elapsed += duration_secs;
        self.record_trace(start, duration_secs, TraceKind::Idle, &tag, p.as_mw());
    }

    /// Resets elapsed time and energy, keeping the clock state. Useful for
    /// measuring a window after a warm-up phase.
    pub fn reset_counters(&mut self) {
        self.clocks.rebase(self.elapsed);
        self.meter = EnergyMeter::new();
        self.elapsed = 0.0;
        self.switches = 0;
        self.relocks = 0;
        if self.trace.is_some() {
            self.trace = Some(Timeline::new());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::OpCounts;
    use crate::memory::MemoryTraffic;
    use stm32_rcc::ClockSource;

    fn hfo(n: u32) -> SysclkConfig {
        SysclkConfig::Pll(PllConfig::new(ClockSource::hse(Hertz::mhz(50)), 25, n, 2).unwrap())
    }

    fn lfo() -> SysclkConfig {
        SysclkConfig::hse_direct(Hertz::mhz(50))
    }

    fn mac_segment(macs: u64) -> Segment {
        Segment::compute(
            "mac",
            OpCounts {
                mac: macs,
                ..OpCounts::ZERO
            },
            MemoryTraffic::ZERO,
        )
    }

    #[test]
    fn compute_time_scales_with_frequency() {
        let seg = mac_segment(1_000_000);
        let mut fast = Machine::new(hfo(216));
        let mut slow = Machine::new(hfo(100));
        let tf = fast.run_segment(&seg);
        let ts = slow.run_segment(&seg);
        assert!((ts / tf - 2.16).abs() < 1e-6);
    }

    #[test]
    fn energy_is_power_times_time() {
        let seg = mac_segment(216_000);
        let mut m = Machine::new(hfo(216));
        let p = m.run_power();
        let dt = m.run_segment(&seg);
        assert!((m.energy().as_f64() - p.as_f64() * dt).abs() < 1e-15);
    }

    #[test]
    fn warm_pll_switch_is_cheap_relock_is_not() {
        let mut m = Machine::new(hfo(216));
        // HFO -> LFO: mux toggle, PLL stays warm.
        let down = m.switch_clock(lfo());
        assert!(down < 10e-6);
        assert_eq!(m.relock_count(), 0);
        assert!(m.warm_pll().is_some());
        // LFO -> same HFO: mux toggle again.
        let up = m.switch_clock(hfo(216));
        assert!(up < 10e-6);
        assert_eq!(m.relock_count(), 0);
        // HFO(216) -> HFO(150): divider change, re-lock.
        let relock = m.switch_clock(hfo(150));
        assert!((relock - 200e-6).abs() < 1e-12);
        assert_eq!(m.relock_count(), 1);
        assert_eq!(m.switch_count(), 3);
    }

    #[test]
    fn switch_to_same_clock_is_free() {
        let mut m = Machine::new(hfo(216));
        assert_eq!(m.switch_clock(hfo(216)), 0.0);
        assert_eq!(m.switch_count(), 0);
        assert_eq!(m.elapsed_secs(), 0.0);
    }

    #[test]
    fn lfo_run_power_includes_warm_pll() {
        let mut m = Machine::new(hfo(216));
        m.switch_clock(lfo());
        let warm_power = m.run_power();

        let cold = Machine::new(lfo());
        let cold_power = cold.run_power();
        assert!(
            warm_power > cold_power,
            "warm PLL must add standby power during LFO"
        );
    }

    #[test]
    fn without_warm_pll_reentry_relocks() {
        let mut m = Machine::new(hfo(216)).with_keep_pll_warm(false);
        m.switch_clock(lfo());
        assert!(m.warm_pll().is_none());
        let up = m.switch_clock(hfo(216));
        assert!((up - 200e-6).abs() < 1e-12, "cold re-entry must re-lock");
        assert_eq!(m.relock_count(), 1);
    }

    #[test]
    fn idle_modes_ordered_by_power() {
        let dur = 0.01;
        let energies: Vec<f64> = [
            IdleMode::BusyRun,
            IdleMode::Wfi,
            IdleMode::ClockGated,
            IdleMode::Stop,
        ]
        .into_iter()
        .map(|mode| {
            let mut m = Machine::new(hfo(216));
            m.idle(dur, mode, "idle");
            m.energy().as_f64()
        })
        .collect();
        for w in energies.windows(2) {
            assert!(
                w[0] > w[1],
                "idle energy must strictly decrease: {energies:?}"
            );
        }
    }

    #[test]
    fn memory_segment_cheaper_at_lfo_in_energy() {
        // The core DAE trade: a fill-dominated segment at LFO must cost
        // less energy than at HFO, with only a modest time penalty.
        let seg = Segment::memory(
            "stage",
            OpCounts {
                load: 1000,
                alu: 500,
                ..OpCounts::ZERO
            },
            MemoryTraffic {
                sram_line_fills: 2000,
                flash_line_fills: 500,
                cache_hits: 0,
                sram_uncached: 0,
            },
        );
        let mut hi = Machine::new(hfo(216));
        let t_hi = hi.run_segment(&seg);
        let e_hi = hi.energy().as_f64();

        let mut lo = Machine::new(hfo(216));
        lo.switch_clock(lfo());
        lo.reset_counters();
        let t_lo = lo.run_segment(&seg);
        let e_lo = lo.energy().as_f64();

        assert!(e_lo < e_hi, "LFO energy {e_lo} must undercut HFO {e_hi}");
        assert!(t_lo / t_hi < 2.5, "time penalty must stay modest");
    }

    #[test]
    fn elapsed_accumulates_across_moves() {
        let mut m = Machine::new(hfo(216));
        m.run_segment(&mac_segment(216_000));
        m.switch_clock(lfo());
        m.idle(1e-3, IdleMode::ClockGated, "wait");
        let expected = 1e-3 + SwitchCostModel::DEFAULT_MUX_TOGGLE + 1e-3;
        assert!((m.elapsed_secs() - expected).abs() < 1e-9);
    }

    #[test]
    fn reset_counters_keeps_clock_state() {
        let mut m = Machine::new(hfo(216));
        m.switch_clock(lfo());
        m.run_segment(&mac_segment(1000));
        m.reset_counters();
        assert_eq!(m.elapsed_secs(), 0.0);
        assert_eq!(m.energy(), Joules::ZERO);
        assert_eq!(m.clock(), &lfo());
        assert!(m.warm_pll().is_some());
    }

    #[test]
    fn tracing_records_everything() {
        let mut m = Machine::new(hfo(216)).with_tracing();
        m.run_segment(&mac_segment(216_000));
        m.switch_clock(lfo());
        m.idle(1e-3, IdleMode::ClockGated, "wait");
        let tl = m.timeline().expect("tracing enabled");
        assert_eq!(tl.len(), 3);
        assert!((tl.time_in(crate::trace::TraceKind::Segment) - 1e-3).abs() < 1e-9);
        assert!(tl.to_csv().contains("wait"));
        let switch = &tl.events()[1];
        assert_eq!(switch.kind, TraceKind::ClockSwitch);
        assert_eq!(switch.label, format!("switch -> {}", lfo()));
        assert_eq!(switch.sysclk_mhz, 216.0, "filed under the clock it leaves");
        // take_timeline leaves a fresh recorder behind.
        let taken = m.take_timeline().expect("taken");
        assert_eq!(taken.len(), 3);
        assert_eq!(m.timeline().map(|t| t.len()), Some(0));
    }

    #[test]
    fn tracing_disabled_by_default() {
        let mut m = Machine::new(hfo(216));
        m.run_segment(&mac_segment(1000));
        assert!(m.timeline().is_none());
    }

    #[test]
    fn segment_time_query_matches_execution() {
        let seg = Segment::compute(
            "q",
            OpCounts {
                mac: 50_000,
                alu: 10_000,
                ..OpCounts::ZERO
            },
            MemoryTraffic {
                cache_hits: 5_000,
                sram_line_fills: 100,
                ..MemoryTraffic::ZERO
            },
        );
        let mut m = Machine::new(hfo(150));
        let predicted = m.segment_time_at(&seg, Hertz::mhz(150));
        let actual = m.run_segment(&seg);
        assert!((predicted - actual).abs() < 1e-15);
    }
}
