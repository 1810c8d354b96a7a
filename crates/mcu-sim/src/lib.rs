//! Operation-level timing simulator of the STM32F767 (ARM Cortex-M7).
//!
//! The paper's evaluation runs on real silicon; this crate is the simulated
//! stand-in. It models exactly the effects the DAE+DVFS methodology
//! exploits:
//!
//! * compute time scales ~linearly with SYSCLK ([`cpu`]);
//! * memory time is latency-dominated and barely scales ([`memory`]),
//!   because flash wait states grow with frequency and AXI SRAM pays a
//!   fixed bus latency;
//! * the 16 KB L1 D-cache rewards bounded DAE buffers and punishes
//!   oversized ones ([`cache`]);
//! * clock switches cost 200 µs for a PLL re-lock but almost nothing for a
//!   mux toggle against a warm PLL ([`clock`]);
//! * idle strategies (busy spin / WFI / clock gating / stop) differ by
//!   orders of magnitude in power ([`machine::IdleMode`]).
//!
//! The central type is [`Machine`]: engines lower CNN layers into
//! [`Segment`]s and replay them, getting wall time and tagged energy back.
//!
//! # Examples
//!
//! ```
//! use mcu_sim::{Machine, MemoryTraffic, OpCounts, Segment};
//! use stm32_rcc::{Hertz, SysclkConfig};
//!
//! let mut machine = Machine::new(SysclkConfig::hse_direct(Hertz::mhz(50)));
//! let stage = Segment::memory(
//!     "stage-buffers",
//!     OpCounts { load: 256, ..OpCounts::ZERO },
//!     MemoryTraffic { sram_line_fills: 64, ..MemoryTraffic::ZERO },
//! );
//! machine.run_segment(&stage);
//! assert!(machine.elapsed_secs() > 0.0);
//! ```

pub mod cache;
pub mod clock;
pub mod cpu;
pub mod machine;
pub mod memory;
pub mod segment;
pub mod timer;
pub mod trace;

pub use cache::{reuse_hit_ratio, Cache, CacheConfig, CacheStats};
pub use clock::{ClockSwitch, ClockTree};
pub use cpu::{CpuModel, OpCounts};
pub use machine::{IdleMode, Machine};
pub use memory::{MemoryTiming, MemoryTraffic};
pub use segment::{Segment, SegmentClass};
pub use timer::HardwareTimer;
pub use trace::{Timeline, TraceEvent, TraceKind};
