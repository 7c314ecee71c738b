//! # tinyadc-xbar
//!
//! ReRAM crossbar simulator for the TinyADC reproduction: the mixed-signal
//! substrate the paper's accelerator evaluation rests on.
//!
//! What it models, following the paper §II-B and §III-C:
//!
//! * **Weight quantisation and bit slicing** — weights are quantised to
//!   signed fixed point and their magnitudes sliced across multiple 2-bit
//!   MLC ReRAM cells; signs use differential (positive/negative) column
//!   pairs ([`quant`], [`cell`]).
//! * **Tiled mapping** — a layer's 2-D weight matrix is tiled into
//!   crossbar-sized blocks, ragged edges included ([`mapping`]).
//! * **Bit-serial analog MVM** — inputs stream through 1-bit DACs cycle by
//!   cycle; column currents are digitised by ADCs and recombined with
//!   shift-and-add ([`tile`]). The arithmetic is carried on integer
//!   lattices, so the paper's "no computational inaccuracy" claim is
//!   checkable with `==`. The hot path runs on a bit-plane-packed
//!   popcount kernel (cell levels and DAC bits packed into `u64` row
//!   bitmasks) that is bitwise identical to the reference loop —
//!   [`tile::Tile::matvec_loop`] — including ADC saturation. Packed
//!   batches carry a word-granular occupancy index ([`PackedInputs`]),
//!   so mostly-zero post-ReLU activations dispatch to an
//!   occupancy-indexed kernel ([`PackedKernel`]) that skips all-zero
//!   planes and words while remaining bitwise identical.
//! * **The ADC resolution rule (Eq. 1)** — and its exact counterpart
//!   derived from the worst-case column sum ([`adc`]).
//! * **Stuck-at faults and device variation** — SA0/SA1 cell faults and
//!   lognormal conductance variation ([`fault`], [`cell`]).
//! * **Fault repair** — per-tile fault triage, spare-column remapping and
//!   CP-slack redistribution masks ([`repair`]).
//!
//! # Example: lossless ADC reduction on a CP-pruned block
//!
//! ```
//! use tinyadc_prune::{CpConstraint, CrossbarShape};
//! use tinyadc_xbar::adc::required_adc_bits_paper;
//!
//! // 128-row crossbar, 1-bit DAC, 2-bit cells: 9 bits required unpruned.
//! assert_eq!(required_adc_bits_paper(1, 2, 128), 9);
//! // 32x column-proportional pruning leaves 4 active rows: 4 bits suffice.
//! assert_eq!(required_adc_bits_paper(1, 2, 4), 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod exact;
mod obs;
mod packed;

pub mod activity;
pub mod adc;
pub mod cell;
pub mod engine;
pub mod fault;
pub mod infer;
pub mod mapping;
pub mod noise;
pub mod program;
pub mod quant;
pub mod repair;
pub mod snapshot;
pub mod tile;

pub use error::XbarError;
pub use packed::{packed_kernel, set_packed_kernel, PackedInputs, PackedKernel};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, XbarError>;
