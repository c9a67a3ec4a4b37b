//! Support shared by the benchmark's two binaries: `load` drives the shipped
//! serving stack end to end, `stages` replays the same requests stage by
//! stage through each layer's public functions. See `perfbench/README.md`.

pub mod ledger;
pub mod metrics;
pub mod provenance;
pub mod stats;
pub mod workload;
