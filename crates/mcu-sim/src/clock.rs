//! The SYSCLK switching rules: mux toggles, background PLL re-locks and
//! full re-locks.
//!
//! A [`ClockTree`] is the clock state of one replay — the active SYSCLK,
//! the PLL locked in the background, a re-lock in flight — plus the rules
//! that price a move between clocks. It is the single home of those rules:
//! the [`crate::Machine`] drives it while executing segments, and compiled
//! replays that never build a machine drive the same type, so both
//! observe identical switch latencies and power states.
//!
//! Time is passed in by the caller (`now`, seconds on the replay's own
//! clock); the tree keeps no time of its own.

use stm32_power::PowerState;
use stm32_rcc::{PllConfig, SwitchCostModel, SysclkConfig};

/// The cost of one SYSCLK switch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClockSwitch {
    /// Switch latency, seconds: a mux toggle, the outstanding lock time of
    /// a background re-lock plus the toggle, or a full re-lock.
    pub secs: f64,
    /// The power state the board draws for the whole switch.
    pub state: PowerState,
    /// Whether the switch paid a full PLL re-lock.
    pub relock: bool,
}

/// The live clock state of one replay and the rules that move it.
///
/// # Examples
///
/// ```
/// use mcu_sim::ClockTree;
/// use stm32_rcc::{ClockSource, Hertz, PllConfig, SwitchCostModel, SysclkConfig};
///
/// # fn main() -> Result<(), stm32_rcc::RccError> {
/// let pll = |n| PllConfig::new(ClockSource::hse(Hertz::mhz(50)), 25, n, 2);
/// let lfo = SysclkConfig::hse_direct(Hertz::mhz(50));
/// let mut tree = ClockTree::new(SysclkConfig::Pll(pll(216)?), SwitchCostModel::default());
///
/// // Dropping to the LFO keeps the PLL warm: a mux toggle.
/// let down = tree.switch(lfo, 0.0).expect("clock changes");
/// assert!(!down.relock && down.secs < 10e-6);
/// // Re-programming the PLL under LFO work hides the re-lock...
/// assert!(tree.prepare_pll(pll(150)?, 0.0));
/// // ...so 150 µs later only the 50 µs residue stalls, plus the toggle.
/// let up = tree.switch(SysclkConfig::Pll(pll(150)?), 150e-6).expect("clock changes");
/// assert!((up.secs - 51e-6).abs() < 1e-12);
/// // Switching to the active clock is free.
/// assert!(tree.switch(SysclkConfig::Pll(pll(150)?), 1e-3).is_none());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClockTree {
    switch_model: SwitchCostModel,
    clock: SysclkConfig,
    warm_pll: Option<PllConfig>,
    /// A PLL re-lock in flight: `(target, ready_at)`.
    pending_pll: Option<(PllConfig, f64)>,
    keep_pll_warm: bool,
}

impl ClockTree {
    /// A tree running at `clock`. If `clock` uses the PLL, the PLL starts
    /// locked (boot code paid that cost before the measurement window).
    pub fn new(clock: SysclkConfig, switch_model: SwitchCostModel) -> Self {
        ClockTree {
            switch_model,
            warm_pll: clock.pll().copied(),
            pending_pll: None,
            clock,
            keep_pll_warm: true,
        }
    }

    /// Replaces the switch-cost model (builder style).
    pub fn with_switch_model(mut self, switch_model: SwitchCostModel) -> Self {
        self.switch_model = switch_model;
        self
    }

    /// Controls whether leaving a PLL keeps it locked in the background
    /// (default `true`). With `false`, a PLL not driving SYSCLK is
    /// dropped, so every re-entry pays the full re-lock.
    pub fn with_keep_pll_warm(mut self, keep: bool) -> Self {
        self.keep_pll_warm = keep;
        if !keep && !self.clock.uses_pll() {
            self.warm_pll = None;
        }
        self
    }

    /// The active clock configuration.
    pub fn clock(&self) -> &SysclkConfig {
        &self.clock
    }

    /// The PLL currently locked (active or warm), if any.
    pub fn warm_pll(&self) -> Option<&PllConfig> {
        self.warm_pll.as_ref()
    }

    /// The power state while executing. A PLL that is locked in the
    /// background *or still locking* draws its full power.
    pub fn run_state(&self) -> PowerState {
        let background = self.warm_pll.or(self.pending_pll.map(|(p, _)| p));
        match (background, &self.clock) {
            (Some(w), SysclkConfig::Pll(p)) if *p == w => PowerState::Run(self.clock),
            (Some(w), _) => PowerState::RunWarmPll {
                sysclk: self.clock,
                warm_pll: w,
            },
            (None, _) => PowerState::Run(self.clock),
        }
    }

    /// Starts re-locking the PLL to `target` at time `now` while SYSCLK
    /// keeps running from a direct source; the next switch onto `target`
    /// stalls only for the lock time still outstanding.
    ///
    /// Returns `false` (and changes nothing) when the PLL already holds
    /// `target`, a re-lock to `target` is already in flight, or SYSCLK is
    /// driven by the PLL (the hardware cannot re-program the PLL that
    /// feeds SYSCLK). Returns `true` when a re-lock started.
    pub fn prepare_pll(&mut self, target: PllConfig, now: f64) -> bool {
        if self.clock.uses_pll() {
            return false;
        }
        if self.warm_pll == Some(target) {
            return false;
        }
        if let Some((pending, _)) = self.pending_pll {
            if pending == target {
                return false;
            }
        }
        self.warm_pll = None;
        self.pending_pll = Some((target, now + self.switch_model.pll_relock_secs()));
        true
    }

    /// Switches SYSCLK to `to` at time `now`, or returns `None` when `to`
    /// is already active (a free non-switch).
    ///
    /// A background re-lock that has matured by `now` settles first. Then:
    /// a target matching the locked PLL (or any direct source) costs a mux
    /// toggle; a target matching the re-lock in flight stalls for its
    /// outstanding lock time plus the toggle; any other PLL target pays a
    /// full re-lock. Entering a PLL makes it the warm one; leaving it for a
    /// direct source keeps it warm unless
    /// [`ClockTree::with_keep_pll_warm`] disabled that.
    pub fn switch(&mut self, to: SysclkConfig, now: f64) -> Option<ClockSwitch> {
        if to == self.clock {
            return None;
        }
        if let Some((pending, ready_at)) = self.pending_pll {
            if now >= ready_at {
                self.warm_pll = Some(pending);
                self.pending_pll = None;
            }
        }
        let mut relock = false;
        let secs = match (&to, self.warm_pll, self.pending_pll) {
            (SysclkConfig::Pll(target), Some(warm), _) if *target == warm => {
                self.switch_model.mux_toggle_secs()
            }
            (SysclkConfig::Pll(target), _, Some((pending, ready_at))) if *target == pending => {
                self.warm_pll = Some(pending);
                self.pending_pll = None;
                (ready_at - now).max(0.0) + self.switch_model.mux_toggle_secs()
            }
            (SysclkConfig::Pll(_), _, _) => {
                relock = true;
                self.switch_model.pll_relock_secs()
            }
            _ => self.switch_model.mux_toggle_secs(),
        };
        // The board draws the source-side state for the whole switch: the
        // clock it leaves, with whatever PLL has locked by now.
        let state = self.run_state();
        match &to {
            SysclkConfig::Pll(p) => self.warm_pll = Some(*p),
            _ if self.keep_pll_warm => { /* keep previous warm PLL */ }
            _ => self.warm_pll = None,
        }
        self.clock = to;
        Some(ClockSwitch {
            secs,
            state,
            relock,
        })
    }

    /// Re-expresses the in-flight re-lock's ready time against a time
    /// origin moved `secs` later (the owner reset its clock to zero).
    pub fn rebase(&mut self, secs: f64) {
        if let Some((_, ready_at)) = &mut self.pending_pll {
            *ready_at -= secs;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stm32_rcc::{ClockSource, Hertz};

    fn pll(n: u32) -> PllConfig {
        PllConfig::new(ClockSource::hse(Hertz::mhz(50)), 25, n, 2).unwrap()
    }

    fn lfo() -> SysclkConfig {
        SysclkConfig::hse_direct(Hertz::mhz(50))
    }

    #[test]
    fn full_relock_counts_and_warms_the_target() {
        let mut tree = ClockTree::new(SysclkConfig::Pll(pll(216)), SwitchCostModel::default());
        let sw = tree.switch(SysclkConfig::Pll(pll(150)), 0.0).unwrap();
        assert!(sw.relock);
        assert_eq!(sw.secs, SwitchCostModel::DEFAULT_PLL_RELOCK);
        assert_eq!(sw.state, PowerState::Run(SysclkConfig::Pll(pll(216))));
        assert_eq!(tree.warm_pll(), Some(&pll(150)));
    }

    #[test]
    fn stall_switch_draws_the_locking_pll() {
        let mut tree = ClockTree::new(SysclkConfig::Pll(pll(216)), SwitchCostModel::default());
        tree.switch(lfo(), 0.0);
        assert!(tree.prepare_pll(pll(150), 1e-6));
        assert!(!tree.prepare_pll(pll(150), 2e-6), "already in flight");
        let locking = PowerState::RunWarmPll {
            sysclk: lfo(),
            warm_pll: pll(150),
        };
        assert_eq!(tree.run_state(), locking);
        let sw = tree.switch(SysclkConfig::Pll(pll(150)), 101e-6).unwrap();
        assert!(!sw.relock);
        assert!((sw.secs - 101e-6).abs() < 1e-15);
        assert_eq!(sw.state, locking);
    }

    #[test]
    fn rebase_shifts_the_pending_ready_time() {
        let mut tree = ClockTree::new(lfo(), SwitchCostModel::default());
        tree.prepare_pll(pll(150), 1e-3);
        tree.rebase(1e-3);
        let sw = tree.switch(SysclkConfig::Pll(pll(150)), 0.0).unwrap();
        assert!((sw.secs - 201e-6).abs() < 1e-15);
    }
}
