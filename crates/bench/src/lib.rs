//! Experiment harness reproducing every table and figure of
//! *"Providing Reliable FIB Update Acknowledgments in SDN"* (CoNEXT 2014),
//! plus the correctness gates recorded in `BENCH_results.json`.
//!
//! Each experiment in the paper maps to one runner function here and one
//! name of the `figures` binary, which prints its virtual-time output as
//! [`figures`] renders it (`figures all [n]` prints the seven in turn).
//!
//! | Paper artefact | Runner | `figures` |
//! |---|---|---|
//! | Figure 1b (broken time CDF)        | [`experiments::run_end_to_end`]        | `fig1` |
//! | Figure 6 (control-plane techniques)| [`experiments::run_end_to_end`]        | `fig6` |
//! | Figure 7 (probing techniques)      | [`experiments::run_end_to_end`]        | `fig7` |
//! | Figure 8 (activation delay)        | [`experiments::run_activation_delay`]  | `fig8` |
//! | Table 1 (usable update rate)       | [`experiments::run_update_rate`]       | `table1` |
//! | §5.1 barrier-layer overhead        | [`experiments::run_barrier_layer`]     | `barrier` |
//! | §5.2 PacketIn/PacketOut rates      | [`experiments::run_pktio_rates`]       | `pktio` |
//!
//! The gates — run by `bench_results`, checked by `validate_results` — are
//! one experiment shape (controller, RUM proxy layer, misbehaving switches,
//! every acknowledgment joined against data-plane ground truth) on both
//! drivers, so they share one private harness:
//!
//! | Module | What it is |
//! |---|---|
//! | `fleet` (private) | the harness: chain/ring topology from one link list, one stand-up per driver around the caller's controller, one tear-down (on TCP also on unwind), one ground-truth join |
//! | [`scenario_matrix`] | adds the technique × fault sweep, the single-session cell and the `restart_resync` verdict |
//! | [`session_soak`] | adds the tenant population through one mux and the confirm-latency percentiles |
//! | [`scale`] | adds fleet size: the `n`-switch ring plan, sharding and per-switch confirm orders |
//!
//! The two ratio workloads in [`throughput`] (indexed-vs-linear install,
//! telemetry cost) complete the gate set.  Wall-clock throughput and latency
//! of the proxy chain are not measured here: that is the repository
//! benchmark's job (`benchmark/README.md`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod figures;
mod fleet;
pub mod observer;
pub mod report;
pub mod scale;
pub mod scenario_matrix;
pub mod session_soak;
pub mod throughput;

pub use experiments::{
    ActivationSample, EndToEndResult, EndToEndTechnique, PktIoResult, UpdateRateResult,
};
pub use report::{SessionSoakRecord, ThroughputRecord};
pub use scenario_matrix::{MatrixCell, MatrixTechnique};
pub use session_soak::{SoakConfig, SoakOutcome};

#[cfg(test)]
mod golden;
