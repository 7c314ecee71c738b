//! Crate-local observability handles (`tinyadc-obs` metrics).
//!
//! Most counters here record *modeled hardware events* — the events the
//! bit-serial datapath would perform on silicon (per
//! [`crate::activity::tile_activity`]), not the software shortcuts the
//! packed kernel takes. Zero-valued column sums that the popcount kernel
//! skips still count as conversions: the ADC would have sampled them.
//! The `xbar.packed.*` sparsity metrics are the exception: they are
//! *software observability* for the occupancy-indexed kernels (work
//! skipped, input occupancy) and deliberately do not feed the hw energy
//! roll-up. All values — hardware-modeled and software alike — are
//! thread-count-invariant because every skip decision derives from
//! packed data, never from scheduling; see `docs/observability.md`.

use tinyadc_obs::{LazyCounter, LazyGauge, LazyHistogram};

/// One per executed tile MVM (batch entry points count each input).
pub(crate) static MATVECS: LazyCounter = LazyCounter::new("xbar.matvecs");
/// Modeled ADC conversions: 2 polarities × slices × columns × cycles per MVM.
pub(crate) static ADC_CONVERSIONS: LazyCounter = LazyCounter::new("xbar.adc.conversions");
/// Conversions whose pre-ADC column sum exceeded the ADC full scale.
pub(crate) static ADC_SATURATIONS: LazyCounter = LazyCounter::new("xbar.adc.saturations");
/// Modeled DAC bit-drive events: rows × cycles per MVM.
pub(crate) static DAC_EVENTS: LazyCounter = LazyCounter::new("xbar.dac.events");
/// Modeled crossbar column read-outs (one per conversion).
pub(crate) static COLUMN_READS: LazyCounter = LazyCounter::new("xbar.column.reads");
/// Modeled shift-and-add operations (one per conversion).
pub(crate) static SHIFT_ADDS: LazyCounter = LazyCounter::new("xbar.shift_adds");
/// Bit-plane (re)pack operations: tile construction and cell mutation.
pub(crate) static TILE_PACKS: LazyCounter = LazyCounter::new("xbar.tile.packs");
/// Stuck-at faults forced into cells.
pub(crate) static FAULTS_INJECTED: LazyCounter = LazyCounter::new("xbar.faults.injected");
/// SA0 faults that landed on already-zero cells.
pub(crate) static FAULTS_SA0_HARMLESS: LazyCounter = LazyCounter::new("xbar.faults.sa0_harmless");
/// Columns rerouted to spare hardware during repair.
pub(crate) static REPAIR_REMAPPED: LazyCounter = LazyCounter::new("xbar.repair.remapped_columns");
/// Harmful-fault columns left unrepaired (spares exhausted).
pub(crate) static REPAIR_UNREPAIRED: LazyCounter =
    LazyCounter::new("xbar.repair.unrepaired_columns");

/// Tile MVMs executed through the non-ideal (IR-drop / read-noise) packed
/// kernel — the subset of `xbar.matvecs` that ran degraded.
pub(crate) static NOISE_MVMS: LazyCounter = LazyCounter::new("xbar.noise.mvms");
/// Tile MVMs executed through the exact integer path that Eq. 1 licenses
/// (no ADC read can clip, see `crate::exact`) — the subset of
/// `xbar.matvecs` that skipped the bit-serial kernel.
pub(crate) static EXACT_MVMS: LazyCounter = LazyCounter::new("xbar.exact.mvms");
/// Gaussian read-noise samples drawn inside non-ideal MVMs (zero when the
/// policy has no noise term). Data-derived, so thread-count-invariant.
pub(crate) static NOISE_DRAWS: LazyCounter = LazyCounter::new("xbar.noise.draws");

/// Programs built by `CompiledModel::compile` / `from_conv`.
pub(crate) static PROGRAM_COMPILES: LazyCounter = LazyCounter::new("program.compiles");
/// Samples executed through a compiled program (batch entry points count
/// each sample).
pub(crate) static PROGRAM_RUNS: LazyCounter = LazyCounter::new("program.runs");
/// Bytes held by the workspace buffer(s) of the most recent program run —
/// constant once steady state is reached (the zero-allocation contract).
/// Set only from the serial entry points.
pub(crate) static WORKSPACE_BYTES: LazyGauge = LazyGauge::new("program.workspace.bytes");

/// Worst-case activated rows of the tile, observed once per MVM — the
/// paper's Eq. 1 quantity that sizes the ADC.
pub(crate) static ROWS_ACTIVATED: LazyHistogram =
    LazyHistogram::new("xbar.rows.activated", &[1, 2, 4, 8, 16, 32, 64, 128]);
/// Stored bit planes per (re)packed tile — shrinks with CP sparsity.
pub(crate) static PACKED_PLANES: LazyHistogram =
    LazyHistogram::new("xbar.packed.planes", &[2, 4, 8, 12, 16]);

/// All-zero input DAC planes the sparsity-aware packed kernels skipped
/// (software observability, not a modeled hardware event — the silicon
/// DAC would still stream those zero bits). Counted once per column
/// evaluation that consumed the input.
pub(crate) static PACKED_INPUT_PLANES_SKIPPED: LazyCounter =
    LazyCounter::new("xbar.packed.input_planes_skipped");
/// `u64` plane words the packed kernels skipped via the occupancy index
/// (empty level columns plus words outside the input∩level intersection).
/// Software observability, not a modeled hardware event.
pub(crate) static PACKED_WORDS_SKIPPED: LazyCounter = LazyCounter::new("xbar.packed.words_skipped");
/// Percent of plane words non-zero per packed batch input — the pack-time
/// occupancy the kernel dispatch is decided from (post-ReLU activations
/// cluster near the low buckets).
pub(crate) static PACKED_OCCUPANCY: LazyHistogram =
    LazyHistogram::new("xbar.packed.occupancy", &[5, 10, 25, 50, 75, 90, 100]);
