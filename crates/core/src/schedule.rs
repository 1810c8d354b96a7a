//! Compiled segment schedules: lower once, replay many times.
//!
//! The DAE lowering of a layer ([`dae_segments`]) depends only on the
//! triple `(layer profile, granularity, cache geometry)` — *not* on the
//! HFO frequency being priced. The straight-line pipeline nevertheless
//! re-lowered every layer for every DSE point and for every replay of a
//! candidate schedule, rebuilding the same `Vec<Segment>` (labels
//! included) thousands of times per plan.
//!
//! This module is the cache layer that removes that waste:
//!
//! * [`CompiledLayer`] lowers one layer once per explorable granularity
//!   and stores the schedules as shared `Arc<[Segment]>` slices;
//! * [`evaluate_schedule`] prices one `(g, f)` point against a borrowed
//!   schedule — the exact machine replay of `dse::evaluate_point`, minus
//!   the lowering;
//! * [`explore_compiled`] / [`explore_model`] run the full DSE sweep
//!   against the cache, fanning layers out across OS threads with
//!   `std::thread::scope` when more than one core is available;
//! * [`replay_decisions`] replays a deployment decision sequence (with
//!   full inter-layer switching costs) against the cache;
//! * `CostStreams` compiles every `(layer, Pareto point)` into a cost
//!   stream once, so the planner prices a candidate selection by folding
//!   streams instead of replaying segments on a fresh machine.
//!
//! ## Invalidation rules
//!
//! A compiled schedule is immutable. It is valid for exactly the
//! `(profile, cache)` pair it was compiled from; changing the model, the
//! cache geometry, or the granularity universe requires recompiling (the
//! [`crate::Planner`] therefore owns its `DseConfig` and never mutates
//! it). Frequencies, switch costs and power models are *not* baked into
//! schedules — they are priced at replay time, so one compiled schedule
//! serves every HFO candidate.
//!
//! All replays here are bit-identical to the uncached path: the segments
//! are the same values `dae_segments` produces, and the machine arithmetic
//! does not depend on how the segment list was obtained.
//!
//! ## Why the fold equals the replay, bit for bit
//!
//! A machine replay of a decision sequence does three things per segment:
//! it switches SYSCLK (to the LFO for memory segments, re-programming the
//! layer's PLL underneath; to the layer's HFO otherwise), it times the
//! segment at the clock it now runs on, and it adds `dt` to elapsed time
//! and `P·dt` to energy, where `P` is the power of the clock state. A cost
//! stream stores the one input that depends on the segment — its class
//! and its [`Machine::segment_time_at`] duration at the clock it runs on,
//! the LFO or the point's HFO — and `CostStreams::price` drives the same
//! [`ClockTree`] the machine drives, in the same order, with the same
//! additions. Powers are memoized per exact [`PowerState`], which cannot
//! change a bit because the power model is a pure function of the state.
//! The pins `fold_matches_replay_bit_for_bit` (random choice vectors on
//! several planners, including one that stalls on every re-lock) and
//! `tests/plan_goldens.rs` (served plan hashes) hold the two together.

use std::sync::Arc;

use mcu_sim::cache::CacheConfig;
use mcu_sim::{ClockTree, Machine, Segment, SegmentClass};
use stm32_power::{Joules, PowerModel, PowerState};
use stm32_rcc::{PllConfig, SwitchCostModel, SysclkConfig};
use tinyengine::KernelProfile;
use tinynn::LayerKind;

use crate::dae::{dae_segments, Granularity};
use crate::dse::{DseConfig, DsePoint};
use crate::pipeline::LayerDecision;

/// One layer's segment schedules, compiled once per explorable
/// granularity.
///
/// DAE-capable layers (depthwise / pointwise) carry one schedule per
/// granularity in the configured set; rest layers carry only the `g = 0`
/// baseline schedule (they get frequency scaling but no decoupling).
#[derive(Debug, Clone)]
pub struct CompiledLayer {
    profile: KernelProfile,
    /// `(g, schedule)` pairs in the configuration's exploration order.
    schedules: Vec<(Granularity, Arc<[Segment]>)>,
}

impl CompiledLayer {
    /// Lowers `profile` into its schedule cache under `config`'s
    /// granularity set and cache geometry.
    pub fn compile(profile: KernelProfile, config: &DseConfig) -> Self {
        let dae_capable = matches!(profile.kind, LayerKind::Depthwise | LayerKind::Pointwise);
        let gs: &[Granularity] = if dae_capable {
            &config.granularities
        } else {
            &[Granularity(0)]
        };
        let schedules = gs
            .iter()
            .map(|&g| (g, dae_segments(&profile, g, &config.cache).into()))
            .collect();
        CompiledLayer { profile, schedules }
    }

    /// The layer profile the schedules were compiled from.
    pub fn profile(&self) -> &KernelProfile {
        &self.profile
    }

    /// The cached schedule for granularity `g`, if compiled.
    pub fn schedule(&self, g: Granularity) -> Option<&Arc<[Segment]>> {
        self.schedules
            .iter()
            .find(|(sg, _)| *sg == g)
            .map(|(_, s)| s)
    }

    /// The schedule for `g`, falling back to a fresh lowering when `g` is
    /// outside the compiled set (e.g. replaying a plan produced under a
    /// different granularity universe).
    pub fn schedule_for(&self, g: Granularity, cache: &CacheConfig) -> Arc<[Segment]> {
        match self.schedule(g) {
            Some(s) => Arc::clone(s),
            None => dae_segments(&self.profile, g, cache).into(),
        }
    }

    /// The granularities this layer explores, in exploration order.
    pub fn granularities(&self) -> impl Iterator<Item = Granularity> + '_ {
        self.schedules.iter().map(|(g, _)| *g)
    }

    /// Prices one `(g, f)` point of this layer (cached lowering, fresh
    /// machine replay). Equivalent to [`crate::dse::evaluate_point`].
    pub fn evaluate(
        &self,
        g: Granularity,
        hfo: &PllConfig,
        config: &DseConfig,
        power: &Arc<PowerModel>,
    ) -> DsePoint {
        evaluate_schedule(&self.schedule_for(g, &config.cache), g, hfo, config, power)
    }
}

/// Prices one `(g, f)` configuration by replaying a compiled schedule on a
/// fresh machine: memory segments at LFO (with the point's PLL re-locking
/// in the background), compute segments at the point's HFO.
///
/// This is the single pricing kernel behind the DSE; it is bit-identical
/// to lowering freshly and replaying, because segments carry all the
/// information the machine prices.
pub fn evaluate_schedule(
    segments: &[Segment],
    g: Granularity,
    hfo: &PllConfig,
    config: &DseConfig,
    power: &Arc<PowerModel>,
) -> DsePoint {
    let hfo_cfg = SysclkConfig::Pll(*hfo);
    let mut machine = Machine::new(hfo_cfg)
        .with_cpu(config.cpu)
        .with_memory(config.memory)
        .with_switch_model(config.switch_model)
        .with_power(Arc::clone(power));
    let mut first_stage_secs = 0.0;
    let mut first_seen = false;
    for seg in segments {
        match seg.class {
            SegmentClass::Memory => {
                machine.switch_clock(config.modes.lfo);
                // Re-program the PLL (if needed) under the memory segment.
                machine.prepare_pll(*hfo);
            }
            SegmentClass::Compute | SegmentClass::Other => {
                machine.switch_clock(hfo_cfg);
            }
        }
        let dt = machine.run_segment(seg);
        if !first_seen && seg.class == SegmentClass::Memory {
            first_stage_secs = dt;
        }
        first_seen = true;
    }
    DsePoint {
        granularity: g,
        hfo: *hfo,
        latency_secs: machine.elapsed_secs(),
        energy: machine.energy(),
        switches: machine.switch_count(),
        first_stage_secs,
    }
}

/// Explores the full `(g, f)` grid of one compiled layer.
///
/// Point order matches `dse::explore_layer` exactly (HFO outer,
/// granularity inner), so downstream Pareto fronts are identical.
pub fn explore_compiled(
    layer: &CompiledLayer,
    config: &DseConfig,
    power: &Arc<PowerModel>,
) -> Vec<DsePoint> {
    let mut points = Vec::with_capacity(config.modes.hfo.len() * layer.schedules.len());
    for hfo in &config.modes.hfo {
        for (g, segments) in &layer.schedules {
            points.push(evaluate_schedule(segments, *g, hfo, config, power));
        }
    }
    points
}

/// Runs the per-layer DSE sweep for a whole model against the schedule
/// cache, spreading layers across OS threads.
///
/// The sweep is embarrassingly parallel (every point is an independent
/// machine replay of immutable segments), so layers are striped over
/// `available_parallelism` scoped threads — no extra dependencies, no
/// shared mutable state. Results are returned in layer order and are
/// identical to the sequential sweep.
pub fn explore_model(
    layers: &[CompiledLayer],
    config: &DseConfig,
    power: &Arc<PowerModel>,
) -> Vec<Vec<DsePoint>> {
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(layers.len());
    if threads <= 1 {
        return layers
            .iter()
            .map(|l| explore_compiled(l, config, power))
            .collect();
    }
    let mut results: Vec<Vec<DsePoint>> = vec![Vec::new(); layers.len()];
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                s.spawn(move || {
                    layers
                        .iter()
                        .enumerate()
                        .skip(t)
                        .step_by(threads)
                        .map(|(i, l)| (i, explore_compiled(l, config, power)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for handle in handles {
            for (i, points) in handle.join().expect("DSE worker thread panicked") {
                results[i] = points;
            }
        }
    });
    results
}

/// Replays a decision sequence on a fresh machine using the compiled
/// schedules, returning the measured `(latency, energy)` including all
/// inter-layer switching costs.
///
/// # Panics
///
/// Panics if `decisions` is empty or its length differs from `layers` —
/// the callers ([`crate::Planner`] and the pipeline wrappers) validate
/// model shape before replaying.
pub fn replay_decisions(
    layers: &[CompiledLayer],
    decisions: &[LayerDecision],
    config: &DseConfig,
    power: &Arc<PowerModel>,
) -> (f64, Joules) {
    assert_eq!(
        layers.len(),
        decisions.len(),
        "decision sequence does not match the compiled model"
    );
    let first_hfo = SysclkConfig::Pll(decisions[0].point.hfo);
    let mut machine = Machine::new(first_hfo)
        .with_cpu(config.cpu)
        .with_memory(config.memory)
        .with_switch_model(config.switch_model)
        .with_power(Arc::clone(power));
    for (layer, decision) in layers.iter().zip(decisions) {
        let hfo_cfg = SysclkConfig::Pll(decision.point.hfo);
        for seg in layer
            .schedule_for(decision.point.granularity, &config.cache)
            .iter()
        {
            match seg.class {
                SegmentClass::Memory => {
                    machine.switch_clock(config.modes.lfo);
                    // Layer boundaries with an HFO change re-program the
                    // PLL under the staging segment (see
                    // `mcu_sim::Machine::prepare_pll`).
                    machine.prepare_pll(decision.point.hfo);
                }
                SegmentClass::Compute | SegmentClass::Other => {
                    machine.switch_clock(hfo_cfg);
                }
            }
            machine.run_segment(seg);
        }
    }
    (machine.elapsed_secs(), machine.energy())
}

/// One segment of a cost stream: whether it runs at the LFO, and for how
/// long at the clock it runs on.
#[derive(Debug, Clone, Copy)]
struct CostStep {
    memory: bool,
    secs: f64,
}

/// One `(layer, Pareto point)`'s replay cost, compiled once: the point's
/// HFO and, per segment, its class and its duration at the clock it runs
/// on.
#[derive(Debug, Clone)]
struct CostStream {
    hfo: PllConfig,
    steps: Box<[CostStep]>,
    /// The states the stream's compute and memory segments run in once
    /// the layer's PLL has locked, with their power in watts.
    hot: [(PowerState, f64); 2],
}

impl CostStream {
    /// Compiles `point` of `layer`, timing segments with `timer`'s CPU and
    /// memory models.
    fn compile(
        layer: &CompiledLayer,
        point: &DsePoint,
        config: &DseConfig,
        timer: &Machine,
        power: &PowerModel,
    ) -> Self {
        let lfo = config.modes.lfo;
        let steps = layer
            .schedule_for(point.granularity, &config.cache)
            .iter()
            .map(|seg| {
                let memory = seg.class == SegmentClass::Memory;
                let clock = if memory {
                    lfo
                } else {
                    SysclkConfig::Pll(point.hfo)
                };
                CostStep {
                    memory,
                    secs: timer.segment_time_at(seg, clock.sysclk()),
                }
            })
            .collect();
        // The settled states, derived by the clock rules themselves: the
        // HFO active, and the LFO active with the HFO's PLL warm behind it.
        let mut clocks = ClockTree::new(SysclkConfig::Pll(point.hfo), config.switch_model);
        let compute = clocks.run_state();
        clocks.switch(lfo, 0.0);
        clocks.prepare_pll(point.hfo, 0.0);
        let staging = clocks.run_state();
        CostStream {
            hfo: point.hfo,
            steps,
            hot: [compute, staging].map(|s| (s, power.power(&s).as_f64())),
        }
    }

    /// The power of `state`: from the stream's own states when it is one
    /// of them (the common case), from the power model otherwise.
    fn watts(&self, state: &PowerState, power: &PowerModel) -> f64 {
        match self.hot.iter().find(|(s, _)| s == state) {
            Some(&(_, watts)) => watts,
            None => power.power(state).as_f64(),
        }
    }
}

/// Every `(layer, Pareto point)` cost stream of a model, and the clock and
/// power models they are folded against — the replay-free pricing behind
/// the planner's candidate search.
///
/// [`CostStreams::price`] returns exactly what [`replay_decisions`]
/// returns for the same selection, bit for bit (see the module docs).
#[derive(Debug, Clone)]
pub(crate) struct CostStreams {
    lfo: SysclkConfig,
    switch_model: SwitchCostModel,
    power: Arc<PowerModel>,
    /// Indexed `[layer][point]`, parallel to the fronts compiled from.
    layers: Vec<Vec<CostStream>>,
}

impl CostStreams {
    /// Compiles one stream per point of every layer's `front`.
    ///
    /// # Panics
    ///
    /// Panics if `fronts` and `layers` differ in length.
    pub(crate) fn compile(
        layers: &[CompiledLayer],
        fronts: &[Vec<DsePoint>],
        config: &DseConfig,
        power: &Arc<PowerModel>,
    ) -> Self {
        assert_eq!(layers.len(), fronts.len(), "one front per compiled layer");
        // Only the timing models matter for `segment_time_at`.
        let timer = Machine::new(config.modes.lfo)
            .with_cpu(config.cpu)
            .with_memory(config.memory);
        let streams = layers
            .iter()
            .zip(fronts)
            .map(|(layer, front)| {
                front
                    .iter()
                    .map(|point| CostStream::compile(layer, point, config, &timer, power))
                    .collect()
            })
            .collect();
        CostStreams {
            lfo: config.modes.lfo,
            switch_model: config.switch_model,
            power: Arc::clone(power),
            layers: streams,
        }
    }

    /// Prices a selection (`choices[l]` indexes layer `l`'s front) as
    /// `(latency, energy)` including every inter-layer switching cost:
    /// the fold of the selected streams through the machine's clock rules,
    /// equal bit for bit to [`replay_decisions`] of the same decisions.
    ///
    /// # Panics
    ///
    /// Panics if `choices` does not have one in-range index per layer.
    pub(crate) fn price(&self, choices: &[usize]) -> (f64, Joules) {
        assert_eq!(
            self.layers.len(),
            choices.len(),
            "choice vector does not match the compiled model"
        );
        let first = &self.layers[0][choices[0]];
        let mut clocks = ClockTree::new(SysclkConfig::Pll(first.hfo), self.switch_model);
        let mut elapsed = 0.0f64;
        let mut energy = 0.0f64;
        for (streams, &choice) in self.layers.iter().zip(choices) {
            let stream = &streams[choice];
            let hfo = SysclkConfig::Pll(stream.hfo);
            for step in stream.steps.iter() {
                let to = if step.memory { self.lfo } else { hfo };
                if let Some(switch) = clocks.switch(to, elapsed) {
                    energy += stream.watts(&switch.state, &self.power) * switch.secs;
                    elapsed += switch.secs;
                }
                if step.memory {
                    clocks.prepare_pll(stream.hfo, elapsed);
                }
                energy += stream.watts(&clocks.run_state(), &self.power) * step.secs;
                elapsed += step.secs;
            }
        }
        (elapsed, Joules::new(energy))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dse::evaluate_point;
    use stm32_rcc::Hertz;
    use tinynn::models::vww_sized;

    fn profiles() -> Vec<KernelProfile> {
        let model = vww_sized(32);
        let plan = model.plan().unwrap();
        model
            .layers()
            .zip(plan.iter())
            .map(|(nl, info)| tinyengine::layer_profile(&nl.layer, info))
            .collect()
    }

    #[test]
    fn compiled_schedules_match_fresh_lowering() {
        let cfg = DseConfig::paper();
        for p in profiles() {
            let compiled = CompiledLayer::compile(p.clone(), &cfg);
            for g in compiled.granularities().collect::<Vec<_>>() {
                let fresh = dae_segments(&p, g, &cfg.cache);
                assert_eq!(
                    compiled.schedule(g).unwrap().as_ref(),
                    fresh.as_slice(),
                    "{}: schedule mismatch at {g}",
                    p.name
                );
            }
        }
    }

    #[test]
    fn rest_layers_compile_only_baseline() {
        let cfg = DseConfig::paper();
        for p in profiles() {
            let dae_capable = p.dae_capable();
            let compiled = CompiledLayer::compile(p, &cfg);
            let gs: Vec<_> = compiled.granularities().collect();
            if dae_capable {
                assert_eq!(gs, cfg.granularities);
            } else {
                assert_eq!(gs, vec![Granularity(0)]);
            }
        }
    }

    #[test]
    fn schedule_for_falls_back_outside_compiled_set() {
        let cfg = DseConfig::paper();
        let p = profiles()
            .into_iter()
            .find(|p| p.dae_capable())
            .expect("vww has DAE layers");
        let compiled = CompiledLayer::compile(p.clone(), &cfg);
        let odd = Granularity(7); // not in the paper set
        assert!(compiled.schedule(odd).is_none());
        let via_fallback = compiled.schedule_for(odd, &cfg.cache);
        assert_eq!(via_fallback.as_ref(), dae_segments(&p, odd, &cfg.cache));
    }

    #[test]
    fn compiled_evaluation_is_bit_identical_to_fresh() {
        let cfg = DseConfig::paper();
        let power = Arc::new(cfg.power.clone());
        let f150 = cfg.modes.hfo_at(Hertz::mhz(150)).copied().unwrap();
        for p in profiles() {
            let compiled = CompiledLayer::compile(p.clone(), &cfg);
            for g in [Granularity(0), Granularity(8)] {
                let fresh = evaluate_point(&p, g, &f150, &cfg);
                let cached = compiled.evaluate(g, &f150, &cfg, &power);
                assert_eq!(fresh, cached, "{} diverged at {g}", p.name);
            }
        }
    }

    #[test]
    fn parallel_sweep_matches_sequential() {
        let cfg = DseConfig::paper();
        let power = Arc::new(cfg.power.clone());
        let layers: Vec<CompiledLayer> = profiles()
            .into_iter()
            .map(|p| CompiledLayer::compile(p, &cfg))
            .collect();
        let parallel = explore_model(&layers, &cfg, &power);
        let sequential: Vec<Vec<DsePoint>> = layers
            .iter()
            .map(|l| explore_compiled(l, &cfg, &power))
            .collect();
        assert_eq!(parallel, sequential);
    }

    /// Background re-locks the fold of `choices` stalls on: switches onto
    /// a PLL still locking that wait longer than a bare mux toggle.
    fn stalls(costs: &CostStreams, choices: &[usize]) -> usize {
        let mux = costs.switch_model.mux_toggle_secs();
        let first = SysclkConfig::Pll(costs.layers[0][choices[0]].hfo);
        let mut clocks = ClockTree::new(first, costs.switch_model);
        let (mut elapsed, mut stalls) = (0.0, 0);
        for (streams, &choice) in costs.layers.iter().zip(choices) {
            let stream = &streams[choice];
            for step in stream.steps.iter() {
                let to = if step.memory {
                    costs.lfo
                } else {
                    SysclkConfig::Pll(stream.hfo)
                };
                if let Some(switch) = clocks.switch(to, elapsed) {
                    stalls += usize::from(!switch.relock && switch.secs > mux);
                    elapsed += switch.secs;
                }
                if step.memory {
                    clocks.prepare_pll(stream.hfo, elapsed);
                }
                elapsed += step.secs;
            }
        }
        stalls
    }

    #[test]
    fn fold_matches_replay_bit_for_bit() {
        use crate::pipeline::LayerDecision;
        use crate::target::{GenericCortexMTarget, Stm32F767Target};
        use crate::{OperatingModes, Planner};
        use stm32_rcc::SwitchCostModel;
        use tinynn::models::{self, synth::SplitMix64};

        const VECTORS: usize = 1_000;
        let lean = || {
            let modes = OperatingModes::from_sysclks(
                Hertz::mhz(50),
                Hertz::mhz(50),
                &[Hertz::mhz(80), Hertz::mhz(120), Hertz::mhz(160)],
            )
            .expect("lean ladder reachable");
            GenericCortexMTarget::new("cortex-m-lean").with_modes(modes)
        };
        // A 1 ms re-lock outlasts every staging segment of VWW-32, so each
        // HFO change stalls on the re-lock still in flight.
        let slow_relock = DseConfig::paper().with_switch_model(SwitchCostModel::new(1e-3, 1e-6));
        let planners = [
            Planner::new(&models::vww(), &DseConfig::paper()),
            Planner::new(&models::person_detection(), &DseConfig::paper()),
            Planner::new(&models::mobilenet_v2(), &DseConfig::paper()),
            Planner::for_target(lean(), &models::vww_sized(32)),
            Planner::for_target(lean(), &models::person_detection_sized(32)),
            Planner::for_target(Stm32F767Target::with_config(slow_relock), &vww_sized(32)),
        ];
        let mut rng = SplitMix64::new(0xf01d);
        let mut total_stalls = Vec::new();
        for planner in planners {
            let planner = planner.expect("planner builds");
            let (layers, fronts) = (planner.layers(), planner.fronts());
            let costs = CostStreams::compile(layers, fronts, planner.config(), planner.power());
            let mut stalled = 0;
            for _ in 0..VECTORS {
                let choices: Vec<usize> = fronts
                    .iter()
                    .map(|f| (rng.next_u64() % f.len() as u64) as usize)
                    .collect();
                let decisions: Vec<LayerDecision> = layers
                    .iter()
                    .zip(fronts)
                    .zip(&choices)
                    .map(|((layer, front), &c)| LayerDecision {
                        name: layer.profile().name.clone(),
                        kind: layer.profile().kind,
                        point: front[c].clone(),
                    })
                    .collect();
                let replayed =
                    replay_decisions(layers, &decisions, planner.config(), planner.power());
                let folded = costs.price(&choices);
                assert_eq!(
                    (folded.0.to_bits(), folded.1.as_f64().to_bits()),
                    (replayed.0.to_bits(), replayed.1.as_f64().to_bits()),
                    "{}: fold {folded:?} != replay {replayed:?} for {choices:?}",
                    planner.model().name
                );
                stalled += stalls(&costs, &choices);
            }
            total_stalls.push(stalled);
        }
        assert!(
            total_stalls[5] > 0,
            "the slow re-lock planner must exercise the stall branch: {total_stalls:?}"
        );
    }
}
