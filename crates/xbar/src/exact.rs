//! The exact integer MVM path, licensed by the paper's Eq. 1.
//!
//! A bit-serial crossbar MVM digitises, per input cycle, bit slice and
//! polarity, the column sum `Σ_r bits_r · level_r`. Eq. 1 sizes the ADC
//! so that this sum can never exceed its full scale when at most
//! `activated_rows` rows carry a non-zero level. When every tile of a
//! layer meets that bound ([`licensed`]), no read clips, and the
//! shift-and-add recombination telescopes to the integer product of the
//! input codes and the signed weight codes
//! `Σ_s (pos_s − neg_s) · 2^(s · bits_per_cell)`:
//!
//! ```text
//! Σ_c Σ_s (Σ_r b_{c,r} p_{s,r} − Σ_r b_{c,r} n_{s,r}) · 2^(c·dac + s·cell)
//!     = Σ_r x_r · w_r
//! ```
//!
//! That product is one integer GEMM per tile
//! ([`matvec_codes_batch_into`]) instead of input-bits × slices ×
//! level-planes popcounts per 64 rows, and it is bitwise equal to the
//! packed kernel — the equivalence suite in `tests/exact_path.rs` pins it.
//! The identity holds for any cell levels, so baked stuck-at faults and
//! spare-column repair keep the licence as long as the re-counted
//! activated rows stay within the ADC. The check runs per call from the
//! cached per-tile `activated_rows`, so no stale flag can outlive a
//! mutation.
//!
//! Every modelled hardware counter is charged exactly as the packed
//! kernel charges it (`xbar.matvecs`, conversions, DAC events, column
//! reads, shift-adds, activated rows; zero saturations, which the
//! licence guarantees). The packed kernel's software counters
//! (`xbar.packed.*` skips and occupancy) are not touched: nothing is
//! packed here. `xbar.exact.mvms` counts the tile MVMs that ran this path.

use crate::adc::{required_adc_bits_exact, Adc};
use crate::mapping::{BatchScratch, MappedLayer};
use crate::Result;
use std::ops::{AddAssign, Mul};

/// One tile's signed weight codes, row-major `rows × cols`, in the form
/// the exact path multiplies.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ExactCodes {
    codes: Vec<i16>,
    /// `rows · input_max · max|code|` fits `i32` (and inputs fit `i16`),
    /// so the tile accumulates in `i32`; otherwise in `i64`.
    narrow: bool,
}

impl ExactCodes {
    /// Narrows a tile's signed codes. `None` when a code does not fit
    /// `i16` — only a baked fault on a 16-bit weight can push one there —
    /// and the tile then always takes the packed kernel.
    pub(crate) fn new(codes: &[i64], rows: usize, input_max: u64) -> Option<Self> {
        let codes = codes
            .iter()
            .map(|&c| i16::try_from(c).ok())
            .collect::<Option<Vec<i16>>>()?;
        let max_abs = codes.iter().map(|c| u64::from(c.unsigned_abs())).max();
        let narrow = input_max <= i16::MAX as u64
            && (rows as u64)
                .checked_mul(input_max)
                .and_then(|v| v.checked_mul(max_abs.unwrap_or(0)))
                .is_some_and(|v| v <= i32::MAX as u64);
        Some(Self { codes, narrow })
    }
}

/// Whether Eq. 1 licenses the exact path for `mapped` read through
/// `adc`: every tile's ADC resolves the worst-case column sum of its
/// activated rows, and every tile holds `i16` codes. O(tiles).
pub(crate) fn licensed(mapped: &MappedLayer, adc: &Adc) -> bool {
    let cfg = mapped.config();
    mapped.tiles().iter().all(|tile| {
        tile.exact_codes().is_some()
            && adc.bits()
                >= required_adc_bits_exact(
                    cfg.dac_bits,
                    cfg.cell.bits_per_cell,
                    tile.activated_rows().max(1),
                )
    })
}

/// Exact counterpart of [`MappedLayer::matvec_codes_batch_into`]: same
/// im2col input layout, same input-major output, same row-block merge,
/// bitwise equal results whenever [`licensed`] holds. The caller checks
/// the licence; this function only computes.
///
/// # Errors
///
/// The input-shape errors of [`MappedLayer::matvec_codes_batch_into`].
pub(crate) fn matvec_codes_batch_into(
    mapped: &MappedLayer,
    inputs: &[u64],
    n_inputs: usize,
    scratch: &mut BatchScratch,
    out: &mut Vec<i64>,
) -> Result<()> {
    out.clear();
    if n_inputs == 0 {
        return Ok(());
    }
    mapped.check_batch_inputs(inputs, n_inputs)?;
    let (matrix_rows, matrix_cols) = mapped.matrix_dims();
    let (row_blocks, col_blocks) = mapped.block_grid();
    let m = mapped.config().shape.rows();
    let n = mapped.config().shape.cols();
    out.resize(n_inputs * matrix_cols, 0);
    for rb in 0..row_blocks {
        let r0 = rb * m;
        let r1 = (r0 + m).min(matrix_rows);
        let block = &inputs[r0 * n_inputs..r1 * n_inputs];
        for cb in 0..col_blocks {
            let tile = &mapped.tiles()[rb * col_blocks + cb];
            let codes = tile.exact_codes().expect("licensed tiles hold exact codes");
            let dst = &mut out[cb * n..];
            if codes.narrow {
                tile_gemm::<i32>(
                    &codes.codes,
                    tile.cols(),
                    block,
                    n_inputs,
                    &mut scratch.tile_y32,
                );
                merge(&scratch.tile_y32, tile.cols(), matrix_cols, dst);
            } else {
                tile_gemm::<i64>(
                    &codes.codes,
                    tile.cols(),
                    block,
                    n_inputs,
                    &mut scratch.tile_y,
                );
                merge(&scratch.tile_y, tile.cols(), matrix_cols, dst);
            }
            tile.record_mvm_events(n_inputs as u64, 0);
            crate::obs::EXACT_MVMS.add(n_inputs as u64);
        }
    }
    Ok(())
}

/// Accumulator of one tile's exact partial sums.
trait Acc: Copy + Default + Send + AddAssign + Mul<Output = Self> + From<i16> + Into<i64> {
    /// Widens an input code (validated against `input_max`).
    fn from_input(x: u64) -> Self;
}

impl Acc for i32 {
    fn from_input(x: u64) -> Self {
        // Narrow tiles have `input_max <= i16::MAX`.
        i32::from(x as i16)
    }
}

impl Acc for i64 {
    fn from_input(x: u64) -> Self {
        x as i64
    }
}

/// `y[i, j] = Σ_r x[r, i] · w[r, j]` for one tile: `inputs` holds the
/// tile's rows in im2col layout (`x[r, i]` at `r * n_inputs + i`), `y` is
/// input-major. Chunks of whole inputs fan out over the pool; each chunk
/// streams the weight rows once and skips zero input codes. Integer
/// addition is exact, so chunking cannot change a value.
fn tile_gemm<T: Acc>(codes: &[i16], cols: usize, inputs: &[u64], n_inputs: usize, y: &mut Vec<T>) {
    let rows = inputs.len() / n_inputs;
    y.clear();
    y.resize(n_inputs * cols, T::default());
    let grain = tinyadc_par::grain_for_cost(n_inputs, (rows * cols) as u64);
    tinyadc_par::for_each_chunk_mut(y, grain * cols, |chunk, y_span| {
        let i0 = chunk * grain;
        let here = y_span.len() / cols;
        for (r, w_row) in codes.chunks_exact(cols).enumerate() {
            let xs = &inputs[r * n_inputs + i0..][..here];
            for (&x, y_i) in xs.iter().zip(y_span.chunks_exact_mut(cols)) {
                if x == 0 {
                    continue;
                }
                let x = T::from_input(x);
                for (acc, &w) in y_i.iter_mut().zip(w_row) {
                    *acc += x * T::from(w);
                }
            }
        }
    });
}

/// Adds a tile's input-major partial sums into the layer output, whose
/// rows are `matrix_cols` wide and start at the tile's first column.
fn merge<T: Acc>(tile_y: &[T], cols: usize, matrix_cols: usize, dst: &mut [i64]) {
    for (i, y_row) in tile_y.chunks_exact(cols).enumerate() {
        for (d, &v) in dst[i * matrix_cols..][..cols].iter_mut().zip(y_row) {
            *d += v.into();
        }
    }
}
