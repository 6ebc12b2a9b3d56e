//! Experiment harness reproducing every table and figure of
//! *"Providing Reliable FIB Update Acknowledgments in SDN"* (CoNEXT 2014),
//! plus the correctness gates recorded in `BENCH_results.json`.
//!
//! Each experiment in the paper maps to one runner function here and one
//! binary under `src/bin/`; their product is virtual-time output, which the
//! binaries print.
//!
//! | Paper artefact | Runner | Binary |
//! |---|---|---|
//! | Figure 1b (broken time CDF)        | [`experiments::run_end_to_end`]        | `fig1_broken_time` |
//! | Figure 6 (control-plane techniques)| [`experiments::run_end_to_end`]        | `fig6_controlplane` |
//! | Figure 7 (probing techniques)      | [`experiments::run_end_to_end`]        | `fig7_probing` |
//! | Figure 8 (activation delay)        | [`experiments::run_activation_delay`]  | `fig8_activation_delay` |
//! | Table 1 (usable update rate)       | [`experiments::run_update_rate`]       | `table1_update_rate` |
//! | §5.1 barrier-layer overhead        | [`experiments::run_barrier_layer`]     | `barrier_layer_overhead` |
//! | §5.2 PacketIn/PacketOut rates      | [`experiments::run_pktio_rates`]       | `pktio_rates` |
//!
//! The gates — the technique × fault [`scenario_matrix`], the multi-tenant
//! [`session_soak`], the fleet-size [`scale`] rows and the two ratio
//! workloads in [`throughput`] (indexed-vs-linear install, telemetry cost) —
//! are run by `bench_results` and checked by `validate_results`.  Wall-clock
//! throughput and latency of the proxy chain are not measured here: that is
//! the repository benchmark's job (`benchmark/README.md`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod observer;
pub mod report;
pub mod scale;
pub mod scenario_matrix;
pub mod session_soak;
pub mod throughput;

pub use experiments::{
    ActivationSample, EndToEndResult, EndToEndTechnique, PktIoResult, UpdateRateResult,
};
pub use report::{ExperimentRecord, SessionSoakRecord, ThroughputRecord};
pub use scenario_matrix::{MatrixCell, MatrixTechnique};
pub use session_soak::{SoakConfig, SoakOutcome};
