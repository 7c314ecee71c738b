//! Layer → crossbar mapping (paper §III-C and Fig. 3).
//!
//! A prunable parameter is flattened to its 2-D crossbar matrix (columns =
//! filters; `tinyadc_prune::layout`), quantised once per layer, and tiled
//! into crossbar-sized blocks — ragged edge blocks get their own arrays,
//! exactly as the paper specifies.

use crate::adc::{required_adc_bits_exact, required_adc_bits_paper, Adc};
use crate::packed::PackedInputs;
use crate::quant::{quantize_input, quantize_weights, Quantized};
use crate::tile::{Tile, XbarConfig};
use crate::{Result, XbarError};
use tinyadc_nn::ParamKind;
use tinyadc_prune::layout;
use tinyadc_tensor::Tensor;

/// Reusable scratch for [`MappedLayer::matvec_codes_batch_into`]: the
/// shared packed input planes (with occupancy index) of the row block
/// currently executing, plus per-tile partial outputs. Buffers grow to
/// the largest batch seen and keep their capacity across calls.
#[derive(Debug, Clone, Default)]
pub struct BatchScratch {
    /// Packed input bit planes + occupancy index of the row block
    /// currently executing — packed **once per row block** and shared by
    /// every column block's tile (they all read the same input rows).
    pub(crate) packed: PackedInputs,
    /// Input-major partial outputs of the tile currently executing.
    pub(crate) tile_y: Vec<i64>,
    /// The same in `i32`, for tiles the exact path accumulates narrowly
    /// ([`crate::exact`]).
    pub(crate) tile_y32: Vec<i32>,
}

impl BatchScratch {
    /// Bytes currently held across the scratch buffers.
    pub fn bytes(&self) -> usize {
        self.packed.bytes()
            + self.tile_y.len() * std::mem::size_of::<i64>()
            + self.tile_y32.len() * std::mem::size_of::<i32>()
    }
}

/// A layer's weights mapped onto a grid of crossbar tiles.
///
/// # Example
///
/// ```
/// use tinyadc_nn::ParamKind;
/// use tinyadc_tensor::{Tensor, rng::SeededRng};
/// use tinyadc_xbar::mapping::MappedLayer;
/// use tinyadc_xbar::tile::XbarConfig;
///
/// # fn main() -> Result<(), tinyadc_xbar::XbarError> {
/// let mut rng = SeededRng::new(0);
/// let weights = Tensor::randn(&[128, 32, 3, 3], 0.5, &mut rng);
/// let mapped = MappedLayer::from_param(
///     &weights, ParamKind::ConvWeight, XbarConfig::paper_default())?;
/// // matrix [288, 128] tiles into 3x1 blocks of 128x128
/// assert_eq!(mapped.block_count(), 3);
/// assert_eq!(mapped.required_adc_bits(), 9); // dense: all 128 rows active
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MappedLayer {
    tiles: Vec<Tile>,
    row_blocks: usize,
    col_blocks: usize,
    matrix_rows: usize,
    matrix_cols: usize,
    weight_scale: f32,
    kind: ParamKind,
    param_dims: Vec<usize>,
    config: XbarConfig,
}

impl MappedLayer {
    /// Maps a parameter tensor (conv/linear weight) onto crossbars.
    ///
    /// # Errors
    ///
    /// Propagates layout errors for unsupported kinds and configuration
    /// errors from tiling.
    pub fn from_param(value: &Tensor, kind: ParamKind, config: XbarConfig) -> Result<Self> {
        config.validate()?;
        let matrix = layout::to_matrix(value, kind)?;
        let (rows, cols) = (matrix.dims()[0], matrix.dims()[1]);
        let q = quantize_weights(&matrix, &config.quant)?;
        let m = config.shape.rows();
        let n = config.shape.cols();
        let row_blocks = rows.div_ceil(m);
        let col_blocks = cols.div_ceil(n);
        let mut tiles = Vec::with_capacity(row_blocks * col_blocks);
        for rb in 0..row_blocks {
            let r0 = rb * m;
            let r1 = (r0 + m).min(rows);
            for cb in 0..col_blocks {
                let c0 = cb * n;
                let c1 = (c0 + n).min(cols);
                let mut block = Vec::with_capacity((r1 - r0) * (c1 - c0));
                for r in r0..r1 {
                    for c in c0..c1 {
                        block.push(q.codes[r * cols + c]);
                    }
                }
                tiles.push(Tile::new(&block, r1 - r0, c1 - c0, config)?);
            }
        }
        Ok(Self {
            tiles,
            row_blocks,
            col_blocks,
            matrix_rows: rows,
            matrix_cols: cols,
            weight_scale: q.scale,
            kind,
            param_dims: value.dims().to_vec(),
            config,
        })
    }

    /// Reassembles a mapped layer from snapshot-decoded parts: already
    /// rebuilt tiles plus the block-grid and matrix geometry. Used by the
    /// snapshot codec ([`crate::snapshot`]); [`Tile::new`] packing is a
    /// pure function of codes + config, so a layer rebuilt from persisted
    /// codes runs bitwise identical to the one that was saved.
    ///
    /// # Errors
    ///
    /// Returns [`XbarError::InvalidConfig`] when the tile count disagrees
    /// with the block grid or the grid cannot cover the matrix extents.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        tiles: Vec<Tile>,
        row_blocks: usize,
        col_blocks: usize,
        matrix_rows: usize,
        matrix_cols: usize,
        weight_scale: f32,
        kind: ParamKind,
        param_dims: Vec<usize>,
        config: XbarConfig,
    ) -> Result<Self> {
        config.validate()?;
        if tiles.len() != row_blocks * col_blocks {
            return Err(XbarError::InvalidConfig(format!(
                "snapshot layer holds {} tiles for a {row_blocks}x{col_blocks} grid",
                tiles.len()
            )));
        }
        let (m, n) = (config.shape.rows(), config.shape.cols());
        if matrix_rows.div_ceil(m) != row_blocks || matrix_cols.div_ceil(n) != col_blocks {
            return Err(XbarError::InvalidConfig(format!(
                "snapshot block grid {row_blocks}x{col_blocks} cannot tile a \
                 {matrix_rows}x{matrix_cols} matrix on {m}x{n} crossbars"
            )));
        }
        Ok(Self {
            tiles,
            row_blocks,
            col_blocks,
            matrix_rows,
            matrix_cols,
            weight_scale,
            kind,
            param_dims,
            config,
        })
    }

    /// The mapping configuration.
    pub fn config(&self) -> &XbarConfig {
        &self.config
    }

    /// The kind of the mapped parameter (conv or linear weight).
    pub fn kind(&self) -> ParamKind {
        self.kind
    }

    /// The original parameter dims (e.g. `[f, c, kh, kw]` for a conv).
    pub fn param_dims(&self) -> &[usize] {
        &self.param_dims
    }

    /// The layer's weight quantisation scale.
    pub fn weight_scale(&self) -> f32 {
        self.weight_scale
    }

    /// Matrix extents `[rows, cols]` of the mapped layer.
    pub fn matrix_dims(&self) -> (usize, usize) {
        (self.matrix_rows, self.matrix_cols)
    }

    /// Number of logical crossbar blocks (weight-matrix tiles).
    pub fn block_count(&self) -> usize {
        self.tiles.len()
    }

    /// Block grid extents `(row_blocks, col_blocks)`; tile `t` covers
    /// matrix rows starting at `(t / col_blocks) * shape.rows()` and
    /// columns starting at `(t % col_blocks) * shape.cols()`.
    pub fn block_grid(&self) -> (usize, usize) {
        (self.row_blocks, self.col_blocks)
    }

    /// Number of physical arrays (blocks × differential pairs × slices).
    pub fn array_count(&self) -> usize {
        self.block_count() * self.config.arrays_per_block()
    }

    /// Immutable tile access.
    pub fn tiles(&self) -> &[Tile] {
        &self.tiles
    }

    /// Mutable tile access (fault injection).
    pub fn tiles_mut(&mut self) -> &mut [Tile] {
        &mut self.tiles
    }

    /// Worst-case activated rows across every tile — the quantity that
    /// sizes the layer's ADCs.
    pub fn activated_rows(&self) -> usize {
        self.tiles
            .iter()
            .map(Tile::activated_rows)
            .max()
            .unwrap_or(0)
    }

    /// ADC resolution required by the paper's Eq. 1 for this layer as
    /// mapped (based on the worst-case activated rows).
    pub fn required_adc_bits(&self) -> u32 {
        let rows = self.activated_rows().max(1);
        required_adc_bits_paper(self.config.dac_bits, self.config.cell.bits_per_cell, rows)
    }

    /// Exact ADC resolution requirement for this layer as mapped.
    pub fn required_adc_bits_exact(&self) -> u32 {
        let rows = self.activated_rows().max(1);
        required_adc_bits_exact(self.config.dac_bits, self.config.cell.bits_per_cell, rows)
    }

    /// Crossbar MVM on integer input codes (length = matrix rows) through
    /// the given ADC; returns integer outputs (length = matrix cols),
    /// accumulating partial sums across row blocks digitally.
    ///
    /// # Errors
    ///
    /// Returns [`XbarError::InputLengthMismatch`] for wrong input length.
    pub fn matvec_codes(&self, input: &[u64], adc: &Adc) -> Result<Vec<i64>> {
        self.run_matvec(input, |tile, slice| tile.matvec(slice, adc))
    }

    /// Ideal integer MVM (no ADC), for reference comparisons.
    ///
    /// # Errors
    ///
    /// Returns [`XbarError::InputLengthMismatch`] for wrong input length.
    pub fn matvec_codes_ideal(&self, input: &[u64]) -> Result<Vec<i64>> {
        self.run_matvec(input, |tile, slice| tile.matvec_ideal(slice))
    }

    /// Batched crossbar MVM: `n_inputs` integer input vectors in im2col
    /// layout — element `(matrix row r, input i)` at
    /// `inputs[r * n_inputs + i]` — through the given ADC. Returns
    /// input-major outputs, `out[i * matrix_cols + j]`, with partial sums
    /// accumulated digitally across row blocks.
    ///
    /// Bitwise identical to calling [`MappedLayer::matvec_codes`] once
    /// per input; the batch's DAC bit planes are packed **once per row
    /// block** and shared by every column block's tile
    /// ([`Tile::matvec_batch_prepacked_into`]) instead of once per tile,
    /// and pool parallelism runs over the flat (input × column) grid of
    /// each tile — so even a batch of one fans its output columns out.
    ///
    /// # Errors
    ///
    /// Returns [`XbarError::InputLengthMismatch`] when `inputs` is not
    /// `matrix_rows × n_inputs` long.
    pub fn matvec_codes_batch(
        &self,
        inputs: &[u64],
        n_inputs: usize,
        adc: &Adc,
    ) -> Result<Vec<i64>> {
        let mut scratch = BatchScratch::default();
        let mut out = Vec::new();
        self.matvec_codes_batch_into(inputs, n_inputs, adc, &mut scratch, &mut out)?;
        Ok(out)
    }

    /// Workspace-reusing variant of [`MappedLayer::matvec_codes_batch`]:
    /// the shared packed input planes of each row block and the per-tile
    /// partial outputs live in `scratch` and the accumulated input-major
    /// outputs in `out`; all buffers are resized but keep their capacity,
    /// so repeat calls at a fixed batch geometry perform no heap
    /// allocation. Results are bitwise identical to
    /// [`MappedLayer::matvec_codes_batch`].
    ///
    /// # Errors
    ///
    /// Returns [`XbarError::InputLengthMismatch`] when `inputs` is not
    /// `matrix_rows × n_inputs` long, [`XbarError::InvalidConfig`] for
    /// codes exceeding the input range.
    pub fn matvec_codes_batch_into(
        &self,
        inputs: &[u64],
        n_inputs: usize,
        adc: &Adc,
        scratch: &mut BatchScratch,
        out: &mut Vec<i64>,
    ) -> Result<()> {
        if n_inputs == 0 {
            out.clear();
            return Ok(());
        }
        self.check_batch_inputs(inputs, n_inputs)?;
        let m = self.config.shape.rows();
        let n = self.config.shape.cols();
        let n_planes = self.config.cycles() * self.config.dac_bits;
        out.clear();
        out.resize(n_inputs * self.matrix_cols, 0);
        // Row-block-outer order: every tile of a row block consumes the
        // same input rows, so the batch's DAC bit planes (and their
        // occupancy index) are packed once per row block and shared
        // read-only across the block's column tiles. Tiles merge serially
        // in tile order: row blocks accumulate into the *same* output
        // columns, so fanning tiles out would race. The pool fan-out
        // instead happens inside `Tile::matvec_batch_prepacked_into`,
        // whose tasks are chunks of the flat (input × column) grid —
        // whole output columns each — and the digital merge here is
        // integer-exact, so tile order cannot change results.
        for rb in 0..self.row_blocks {
            let r0 = rb * m;
            let r1 = (r0 + m).min(self.matrix_rows);
            scratch.packed.pack(
                &inputs[r0 * n_inputs..r1 * n_inputs],
                n_inputs,
                n_planes,
                (r1 - r0).div_ceil(64),
            );
            for cb in 0..self.col_blocks {
                let tile = &self.tiles[rb * self.col_blocks + cb];
                let c0 = cb * n;
                tile.matvec_batch_prepacked_into(&scratch.packed, adc, &mut scratch.tile_y)?;
                for (i, y_row) in scratch.tile_y.chunks(tile.cols()).enumerate() {
                    let dst = &mut out[i * self.matrix_cols + c0..][..tile.cols()];
                    for (d, v) in dst.iter_mut().zip(y_row) {
                        *d += v;
                    }
                }
            }
        }
        Ok(())
    }

    /// Non-ideal variant of [`MappedLayer::matvec_codes_batch_into`]:
    /// identical row-block-outer shared-pack structure, but every tile
    /// runs the noise-aware kernel under a per-tile split of the given
    /// noise context (`ctx.with_salt(tile_index)`), so two tiles never
    /// share a noise stream and the digital merge stays integer-exact.
    /// Each tile's IR attenuation uses its own geometry (ragged edge
    /// blocks are shorter wires). With an identity context the result is
    /// bitwise identical to the clean entry point.
    ///
    /// # Errors
    ///
    /// Same contract as [`MappedLayer::matvec_codes_batch_into`].
    pub(crate) fn matvec_codes_batch_nonideal_into(
        &self,
        inputs: &[u64],
        n_inputs: usize,
        adc: &Adc,
        ctx: &crate::noise::NoiseCtx,
        scratch: &mut BatchScratch,
        out: &mut Vec<i64>,
    ) -> Result<()> {
        if n_inputs == 0 {
            out.clear();
            return Ok(());
        }
        self.check_batch_inputs(inputs, n_inputs)?;
        let m = self.config.shape.rows();
        let n = self.config.shape.cols();
        let n_planes = self.config.cycles() * self.config.dac_bits;
        out.clear();
        out.resize(n_inputs * self.matrix_cols, 0);
        for rb in 0..self.row_blocks {
            let r0 = rb * m;
            let r1 = (r0 + m).min(self.matrix_rows);
            scratch.packed.pack(
                &inputs[r0 * n_inputs..r1 * n_inputs],
                n_inputs,
                n_planes,
                (r1 - r0).div_ceil(64),
            );
            for cb in 0..self.col_blocks {
                let t = rb * self.col_blocks + cb;
                let tile = &self.tiles[t];
                let c0 = cb * n;
                let tile_ctx = ctx.with_salt(t as u64);
                tile.matvec_batch_prepacked_nonideal_into(
                    &scratch.packed,
                    adc,
                    &tile_ctx,
                    &mut scratch.tile_y,
                )?;
                for (i, y_row) in scratch.tile_y.chunks(tile.cols()).enumerate() {
                    let dst = &mut out[i * self.matrix_cols + c0..][..tile.cols()];
                    for (d, v) in dst.iter_mut().zip(y_row) {
                        *d += v;
                    }
                }
            }
        }
        Ok(())
    }

    /// Validates a batched im2col input: `matrix_rows × n_inputs` codes,
    /// each within the input range.
    ///
    /// # Errors
    ///
    /// [`XbarError::InputLengthMismatch`] for a wrong length,
    /// [`XbarError::InvalidConfig`] for a code above the input range.
    pub(crate) fn check_batch_inputs(&self, inputs: &[u64], n_inputs: usize) -> Result<()> {
        if inputs.len() != self.matrix_rows * n_inputs {
            return Err(XbarError::InputLengthMismatch {
                expected: self.matrix_rows * n_inputs,
                actual: inputs.len(),
            });
        }
        let max = self.config.quant.input_max();
        if inputs.iter().any(|&x| x > max) {
            return Err(XbarError::InvalidConfig(format!(
                "input code exceeds {max}"
            )));
        }
        Ok(())
    }

    fn run_matvec(
        &self,
        input: &[u64],
        f: impl Fn(&Tile, &[u64]) -> Result<Vec<i64>> + Sync,
    ) -> Result<Vec<i64>> {
        if input.len() != self.matrix_rows {
            return Err(XbarError::InputLengthMismatch {
                expected: self.matrix_rows,
                actual: input.len(),
            });
        }
        let m = self.config.shape.rows();
        let n = self.config.shape.cols();
        // Tiles run concurrently (they only read the shared input); partial
        // sums merge serially in tile order. The digital accumulation is
        // integer-exact, so the merge order cannot change results.
        let results = tinyadc_par::map(self.tiles.len(), |t| {
            let r0 = (t / self.col_blocks) * m;
            let r1 = (r0 + m).min(self.matrix_rows);
            f(&self.tiles[t], &input[r0..r1])
        });
        let mut out = vec![0i64; self.matrix_cols];
        for (t, result) in results.into_iter().enumerate() {
            let y = result?;
            let c0 = (t % self.col_blocks) * n;
            for (k, v) in y.iter().enumerate() {
                out[c0 + k] += v;
            }
        }
        Ok(out)
    }

    /// Real-valued forward: quantise a non-negative input vector, run the
    /// crossbar MVM through an ADC of `adc_bits` (or the layer's required
    /// resolution when `None`), and dequantise.
    ///
    /// # Errors
    ///
    /// Propagates quantisation and length errors.
    pub fn forward(&self, input: &Tensor, adc_bits: Option<u32>) -> Result<Tensor> {
        let q = quantize_input(input, &self.config.quant)?;
        let adc = Adc::new(adc_bits.unwrap_or_else(|| self.required_adc_bits()))?;
        let codes: Vec<u64> = q.codes.iter().map(|&c| c as u64).collect();
        let y = self.matvec_codes(&codes, &adc)?;
        let scale = self.weight_scale * q.scale;
        let data = y.iter().map(|&v| v as f32 * scale).collect();
        Ok(Tensor::from_vec(data, &[self.matrix_cols])?)
    }

    /// Reconstructs the (dequantised) weights currently stored in the
    /// cells, in the original parameter layout. After fault injection this
    /// returns the *faulted* weights.
    ///
    /// # Errors
    ///
    /// Propagates layout errors.
    pub fn unmap(&self) -> Result<Tensor> {
        let mut matrix = vec![0.0f32; self.matrix_rows * self.matrix_cols];
        let m = self.config.shape.rows();
        let n = self.config.shape.cols();
        for rb in 0..self.row_blocks {
            for cb in 0..self.col_blocks {
                let tile = &self.tiles[rb * self.col_blocks + cb];
                let codes = tile.codes();
                let (r0, c0) = (rb * m, cb * n);
                for r in 0..tile.rows() {
                    for c in 0..tile.cols() {
                        matrix[(r0 + r) * self.matrix_cols + c0 + c] =
                            codes[r * tile.cols() + c] as f32 * self.weight_scale;
                    }
                }
            }
        }
        let matrix = Tensor::from_vec(matrix, &[self.matrix_rows, self.matrix_cols])?;
        Ok(layout::from_matrix(&matrix, self.kind, &self.param_dims)?)
    }

    /// The quantised view of the layer's weights (matrix layout).
    pub fn quantized(&self) -> Quantized {
        let mut codes = vec![0i64; self.matrix_rows * self.matrix_cols];
        let m = self.config.shape.rows();
        let n = self.config.shape.cols();
        for rb in 0..self.row_blocks {
            for cb in 0..self.col_blocks {
                let tile = &self.tiles[rb * self.col_blocks + cb];
                let tcodes = tile.codes();
                let (r0, c0) = (rb * m, cb * n);
                for r in 0..tile.rows() {
                    for c in 0..tile.cols() {
                        codes[(r0 + r) * self.matrix_cols + c0 + c] = tcodes[r * tile.cols() + c];
                    }
                }
            }
        }
        Quantized {
            codes,
            scale: self.weight_scale,
            dims: vec![self.matrix_rows, self.matrix_cols],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tinyadc_prune::{CpConstraint, CrossbarShape};
    use tinyadc_tensor::rng::SeededRng;

    fn small_config() -> XbarConfig {
        XbarConfig {
            shape: CrossbarShape::new(8, 8).unwrap(),
            cell: crate::cell::CellConfig::default(),
            quant: crate::quant::QuantConfig {
                weight_bits: 6,
                input_bits: 4,
            },
            dac_bits: 1,
        }
    }

    #[test]
    fn block_count_includes_ragged_edges() {
        let mut rng = SeededRng::new(1);
        // Conv [10, 2, 3, 3] -> matrix [18, 10] -> blocks 3x2 on 8x8.
        let w = Tensor::randn(&[10, 2, 3, 3], 0.5, &mut rng);
        let mapped = MappedLayer::from_param(&w, ParamKind::ConvWeight, small_config()).unwrap();
        assert_eq!(mapped.matrix_dims(), (18, 10));
        assert_eq!(mapped.block_count(), 3 * 2);
        // 6 blocks x 2 polarities x ceil(5/2)=3 slices = 36 arrays.
        assert_eq!(mapped.array_count(), 36);
    }

    #[test]
    fn unmap_round_trips_quantised_weights() {
        let mut rng = SeededRng::new(2);
        let w = Tensor::randn(&[6, 3, 3, 3], 0.5, &mut rng);
        let cfg = small_config();
        let mapped = MappedLayer::from_param(&w, ParamKind::ConvWeight, cfg).unwrap();
        let back = mapped.unmap().unwrap();
        assert_eq!(back.dims(), w.dims());
        // Equal to the quantise->dequantise of the original.
        let matrix = tinyadc_prune::layout::to_matrix(&w, ParamKind::ConvWeight).unwrap();
        let q = quantize_weights(&matrix, &cfg.quant).unwrap();
        let deq = q.dequantize().unwrap();
        let back_m = tinyadc_prune::layout::to_matrix(&back, ParamKind::ConvWeight).unwrap();
        for (a, b) in back_m.as_slice().iter().zip(deq.as_slice()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn layer_matvec_matches_ideal_with_required_adc() {
        let mut rng = SeededRng::new(3);
        let w = Tensor::randn(&[9, 17], 0.5, &mut rng); // linear [out=9, in=17]
        let mapped = MappedLayer::from_param(&w, ParamKind::LinearWeight, small_config()).unwrap();
        let adc = Adc::new(mapped.required_adc_bits()).unwrap();
        let input: Vec<u64> = (0..17).map(|i| (i % 16) as u64).collect();
        assert_eq!(
            mapped.matvec_codes(&input, &adc).unwrap(),
            mapped.matvec_codes_ideal(&input).unwrap()
        );
    }

    #[test]
    fn cp_pruned_layer_needs_fewer_bits_and_stays_exact() {
        let mut rng = SeededRng::new(4);
        let cfg = small_config();
        let cp = CpConstraint::new(cfg.shape, 2).unwrap();
        let w = Tensor::randn(&[16, 3, 3, 3], 0.5, &mut rng); // matrix [27, 16]
        let pruned = cp.project_param(&w, ParamKind::ConvWeight).unwrap();
        let dense_map = MappedLayer::from_param(&w, ParamKind::ConvWeight, cfg).unwrap();
        let cp_map = MappedLayer::from_param(&pruned, ParamKind::ConvWeight, cfg).unwrap();
        assert!(cp_map.activated_rows() <= 2);
        assert!(cp_map.required_adc_bits() < dense_map.required_adc_bits());
        // The reduced ADC is still lossless for the pruned layer.
        let adc = Adc::new(cp_map.required_adc_bits()).unwrap();
        let input: Vec<u64> = (0..27).map(|i| (15 - i % 16) as u64).collect();
        assert_eq!(
            cp_map.matvec_codes(&input, &adc).unwrap(),
            cp_map.matvec_codes_ideal(&input).unwrap()
        );
        // ...but would corrupt the dense layer.
        let dense_out = dense_map.matvec_codes(&input, &adc).unwrap();
        assert_ne!(dense_out, dense_map.matvec_codes_ideal(&input).unwrap());
    }

    #[test]
    fn forward_approximates_f32_matvec() {
        let mut rng = SeededRng::new(5);
        let w = Tensor::randn(&[7, 12], 0.3, &mut rng);
        let cfg = XbarConfig {
            quant: crate::quant::QuantConfig::default(), // 8/8 bits
            ..small_config()
        };
        let mapped = MappedLayer::from_param(&w, ParamKind::LinearWeight, cfg).unwrap();
        let x = Tensor::uniform(&[12], 0.0, 1.0, &mut rng);
        let y_sim = mapped.forward(&x, None).unwrap();
        let y_ref = w.matvec(&x).unwrap();
        for (a, b) in y_sim.as_slice().iter().zip(y_ref.as_slice()) {
            assert!((a - b).abs() < 0.05 * (1.0 + b.abs()), "{a} vs {b}");
        }
    }

    #[test]
    fn wrong_input_length_rejected() {
        let mut rng = SeededRng::new(6);
        let w = Tensor::randn(&[4, 4], 0.5, &mut rng);
        let mapped = MappedLayer::from_param(&w, ParamKind::LinearWeight, small_config()).unwrap();
        let adc = Adc::new(8).unwrap();
        assert!(matches!(
            mapped.matvec_codes(&[1, 2, 3], &adc),
            Err(XbarError::InputLengthMismatch { .. })
        ));
    }
}
