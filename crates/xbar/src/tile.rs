//! A single crossbar tile: bit-sliced, differentially encoded weights and
//! the bit-serial MVM datapath (DAC → analog accumulate → ADC → shift-add).

use crate::adc::Adc;
use crate::cell::{CellConfig, DeviceModel};
use crate::exact::ExactCodes;
use crate::packed::{self, KernelPath, PackedInputs, PackedTile};
use crate::quant::QuantConfig;
use crate::{Result, XbarError};
use std::sync::atomic::{AtomicU64, Ordering};
use tinyadc_prune::CrossbarShape;
use tinyadc_tensor::rng::SeededRng;

/// Worst-case active rows over all columns of a packed tile.
fn compute_activated_rows(packed: &PackedTile, cols: usize) -> usize {
    let mut scratch = vec![0u64; packed.words_per_col()];
    (0..cols)
        .map(|j| packed.column_active_rows(j, &mut scratch))
        .max()
        .unwrap_or(0)
}

/// Full crossbar configuration shared by tiles and layer mappings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct XbarConfig {
    /// Crossbar array shape (paper: 128×128).
    pub shape: CrossbarShape,
    /// Cell (MLC) configuration (paper: 2-bit).
    pub cell: CellConfig,
    /// Weight/input quantisation widths (paper/ISAAC: 8/8).
    pub quant: QuantConfig,
    /// DAC bits per streaming cycle (paper: 1).
    pub dac_bits: u32,
}

impl XbarConfig {
    /// The paper's evaluation configuration: 128×128 arrays, 2-bit MLC,
    /// 8-bit weights and inputs, 1-bit DACs.
    pub fn paper_default() -> Self {
        Self {
            shape: CrossbarShape::PAPER_128,
            cell: CellConfig::default(),
            quant: QuantConfig::default(),
            dac_bits: 1,
        }
    }

    /// Validates all sub-configurations.
    ///
    /// # Errors
    ///
    /// Returns [`XbarError::InvalidConfig`] for invalid widths or a DAC
    /// wider than the input.
    pub fn validate(&self) -> Result<()> {
        self.cell.validate()?;
        self.quant.validate()?;
        if self.dac_bits == 0 || self.dac_bits > self.quant.input_bits {
            return Err(XbarError::InvalidConfig(format!(
                "dac_bits {} must be in 1..=input_bits ({})",
                self.dac_bits, self.quant.input_bits
            )));
        }
        Ok(())
    }

    /// Streaming cycles per MVM: `⌈input_bits / dac_bits⌉`.
    pub fn cycles(&self) -> u32 {
        self.quant.input_bits.div_ceil(self.dac_bits)
    }

    /// Cells per weight magnitude (`⌈(weight_bits−1) / bits_per_cell⌉`;
    /// the sign bit is carried by the differential pair).
    pub fn cells_per_weight(&self) -> usize {
        self.cell.cells_per_weight(self.quant.weight_bits - 1)
    }

    /// Physical arrays one logical (weight-matrix) block expands to:
    /// two differential polarities × the bit slices.
    pub fn arrays_per_block(&self) -> usize {
        2 * self.cells_per_weight()
    }
}

/// One crossbar tile holding a `rows × cols` block of quantised weights.
///
/// Weights are stored as cell levels: `pos` and `neg` polarities, each
/// with `cells_per_weight` slices laid out `[slice][row * cols + col]`.
/// A bit-plane-packed mirror of the levels (the private `packed` module) is built
/// at construction time and drives the popcount MVM kernels; it is
/// rebuilt whenever the cells are mutated (fault injection).
#[derive(Debug, Clone, PartialEq)]
pub struct Tile {
    rows: usize,
    cols: usize,
    pos: Vec<Vec<u64>>,
    neg: Vec<Vec<u64>>,
    packed: PackedTile,
    /// Cached worst-case activated rows, recomputed on cell mutation, so
    /// the per-MVM histogram observation is O(1).
    activated_rows: usize,
    /// Signed codes for the exact integer path, rebuilt with the packed
    /// planes; `None` when a code does not fit `i16`.
    exact: Option<ExactCodes>,
    config: XbarConfig,
}

impl Tile {
    /// Builds a tile from a block of signed weight codes, row-major
    /// `rows × cols`.
    ///
    /// # Errors
    ///
    /// Returns [`XbarError::InvalidConfig`] when the block exceeds the
    /// crossbar shape, a code exceeds the quantised range, or the config
    /// is invalid.
    pub fn new(codes: &[i64], rows: usize, cols: usize, config: XbarConfig) -> Result<Self> {
        config.validate()?;
        if rows == 0 || cols == 0 || rows > config.shape.rows() || cols > config.shape.cols() {
            return Err(XbarError::InvalidConfig(format!(
                "block {rows}x{cols} exceeds crossbar {}",
                config.shape
            )));
        }
        if codes.len() != rows * cols {
            return Err(XbarError::InvalidConfig(format!(
                "expected {} codes, got {}",
                rows * cols,
                codes.len()
            )));
        }
        let qmax = config.quant.weight_max();
        let n_slices = config.cells_per_weight();
        let mut pos = vec![vec![0u64; rows * cols]; n_slices];
        let mut neg = vec![vec![0u64; rows * cols]; n_slices];
        for (i, &code) in codes.iter().enumerate() {
            // `unsigned_abs`: `i64::MIN.abs()` wraps to itself in release
            // builds and would slip past the range check.
            if code.unsigned_abs() > qmax.unsigned_abs() {
                return Err(XbarError::InvalidConfig(format!(
                    "weight code {code} exceeds magnitude limit {qmax}"
                )));
            }
            let magnitude = code.unsigned_abs();
            let slices = config.cell.slice(magnitude, n_slices);
            let target = if code >= 0 { &mut pos } else { &mut neg };
            for (s, &level) in slices.iter().enumerate() {
                target[s][i] = level;
            }
        }
        let packed = PackedTile::pack(&pos, &neg, rows, cols, config.cell.bits_per_cell);
        crate::obs::TILE_PACKS.inc();
        crate::obs::PACKED_PLANES.observe(packed.stored_planes() as u64);
        let activated_rows = compute_activated_rows(&packed, cols);
        let exact = ExactCodes::new(codes, rows, config.quant.input_max());
        Ok(Self {
            rows,
            cols,
            pos,
            neg,
            packed,
            activated_rows,
            exact,
            config,
        })
    }

    /// Block extent in rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Block extent in columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The tile's configuration.
    pub fn config(&self) -> &XbarConfig {
        &self.config
    }

    /// Reconstructs the signed weight codes stored in the tile by a
    /// shift-accumulate scan over the stored slices (no per-element
    /// allocation).
    pub fn codes(&self) -> Vec<i64> {
        let mut out = vec![0i64; self.rows * self.cols];
        let cell_bits = self.config.cell.bits_per_cell;
        for (s, (pos, neg)) in self.pos.iter().zip(&self.neg).enumerate() {
            let shift = s as u32 * cell_bits;
            for ((v, &p), &n) in out.iter_mut().zip(pos).zip(neg) {
                *v += (p as i64 - n as i64) << shift;
            }
        }
        out
    }

    /// Worst-case activated rows over all columns: the paper's quantity
    /// that sizes the ADC. A row is activated for a column when the stored
    /// weight code there is non-zero. Computed from the packed planes —
    /// the OR of every stored plane's column mask, popcounted — at pack
    /// time and cached (mutation recomputes it).
    pub fn activated_rows(&self) -> usize {
        self.activated_rows
    }

    /// Direct integer reference MVM: `y_j = Σ_r x_r · w_{r,j}`, computed
    /// on the packed bit planes (exact: every input-bit × level-bit cross
    /// term accumulates as an integer).
    ///
    /// # Errors
    ///
    /// Returns [`XbarError::InputLengthMismatch`] for wrong input length.
    pub fn matvec_ideal(&self, input: &[u64]) -> Result<Vec<i64>> {
        self.check_input(input)?;
        let in_bits = self.config.quant.input_bits;
        let cell_bits = self.config.cell.bits_per_cell;
        let planes = packed::pack_bit_planes(input, in_bits, self.packed.words_per_col());
        let mut y = vec![0i64; self.cols];
        let grain = tinyadc_par::default_grain(self.cols);
        tinyadc_par::for_each_chunk_mut(&mut y, grain, |chunk, y_cols| {
            for (jj, yv) in y_cols.iter_mut().enumerate() {
                let j = chunk * grain + jj;
                *yv = self.packed.column_ideal(j, &planes, in_bits, cell_bits);
            }
        });
        Ok(y)
    }

    /// Bit-serial crossbar MVM through the given ADC: inputs stream
    /// `dac_bits` per cycle, every polarity/slice column is digitised each
    /// cycle, and the digital results are recombined by shift-and-add.
    ///
    /// Runs on the packed popcount kernel (the private `packed` module), which feeds
    /// the ADC the same integer column sums as the reference loop
    /// ([`Tile::matvec_loop`]) and is therefore bitwise identical to it,
    /// ADC saturation included.
    ///
    /// With an ADC of at least the required resolution the result equals
    /// [`Tile::matvec_ideal`] exactly; with fewer bits the ADC saturates
    /// and the result degrades — the paper's core trade-off.
    ///
    /// # Errors
    ///
    /// Returns [`XbarError::InputLengthMismatch`] for wrong input length
    /// or codes exceeding the input range.
    pub fn matvec(&self, input: &[u64], adc: &Adc) -> Result<Vec<i64>> {
        self.check_input(input)?;
        let dac = self.config.dac_bits;
        let cycles = self.config.cycles();
        let cell_bits = self.config.cell.bits_per_cell;
        let planes = packed::pack_bit_planes(input, cycles * dac, self.packed.words_per_col());
        // Columns are independent ADC channels; each thread digitises its
        // own span of columns against the shared read-only planes, so the
        // output is bitwise identical for every thread count.
        let mut y = vec![0i64; self.cols];
        let grain = tinyadc_par::default_grain(self.cols);
        let saturations = AtomicU64::new(0);
        let words_skipped = AtomicU64::new(0);
        tinyadc_par::for_each_chunk_mut(&mut y, grain, |chunk, y_cols| {
            let mut sats = 0u64;
            let mut skipped = 0u64;
            for (jj, yv) in y_cols.iter_mut().enumerate() {
                let j = chunk * grain + jj;
                let (acc, s) = self.packed.column_bit_serial(
                    j,
                    &planes,
                    dac,
                    cycles,
                    cell_bits,
                    adc,
                    &mut skipped,
                );
                *yv = acc;
                sats += s;
            }
            saturations.fetch_add(sats, Ordering::Relaxed);
            words_skipped.fetch_add(skipped, Ordering::Relaxed);
        });
        self.record_mvm_events(1, saturations.into_inner());
        crate::obs::PACKED_WORDS_SKIPPED.add(words_skipped.into_inner());
        Ok(y)
    }

    /// Bit-serial MVM for a batch of inputs sharing this tile.
    ///
    /// `inputs` holds `n_inputs` column vectors in im2col layout —
    /// element `(row r, input i)` at `inputs[r * n_inputs + i]` — so an
    /// unfolded activation matrix can be streamed without per-patch
    /// gathering. The output is input-major: `out[i * cols + j]`.
    ///
    /// Bitwise identical to calling [`Tile::matvec`] once per input; the
    /// input bit-plane packing is amortised across the whole batch and
    /// the batch is chunked over the flat (input × column) element grid
    /// (disjoint output spans, boundaries derived from the element count
    /// alone), so the result is thread-count-invariant and a single
    /// input still fans its columns over the pool.
    ///
    /// # Errors
    ///
    /// Returns [`XbarError::InputLengthMismatch`] when `inputs` is not
    /// `rows × n_inputs` long, [`XbarError::InvalidConfig`] for codes
    /// exceeding the input range.
    pub fn matvec_batch(&self, inputs: &[u64], n_inputs: usize, adc: &Adc) -> Result<Vec<i64>> {
        let mut packed_inputs = PackedInputs::default();
        let mut y = Vec::new();
        self.matvec_batch_into(inputs, n_inputs, adc, &mut packed_inputs, &mut y)?;
        Ok(y)
    }

    /// Workspace-reusing variant of [`Tile::matvec_batch`]: packs the
    /// input bit planes (and their occupancy index) into `packed_inputs`
    /// and writes the input-major outputs into `y`, resizing both but
    /// reusing their capacity, so repeat calls at a fixed batch geometry
    /// perform no heap allocation. Results are bitwise identical to
    /// [`Tile::matvec_batch`].
    ///
    /// Callers mapping several tiles over the same input rows should pack
    /// once with [`PackedInputs::pack`] and run
    /// [`Tile::matvec_batch_prepacked_into`] per tile instead.
    ///
    /// # Errors
    ///
    /// Returns [`XbarError::InputLengthMismatch`] when `inputs` is not
    /// `rows × n_inputs` long, [`XbarError::InvalidConfig`] for codes
    /// exceeding the input range.
    pub fn matvec_batch_into(
        &self,
        inputs: &[u64],
        n_inputs: usize,
        adc: &Adc,
        packed_inputs: &mut PackedInputs,
        y: &mut Vec<i64>,
    ) -> Result<()> {
        if n_inputs == 0 {
            y.clear();
            return Ok(());
        }
        if inputs.len() != self.rows * n_inputs {
            return Err(XbarError::InputLengthMismatch {
                expected: self.rows * n_inputs,
                actual: inputs.len(),
            });
        }
        let max = self.config.quant.input_max();
        if inputs.iter().any(|&x| x > max) {
            return Err(XbarError::InvalidConfig(format!(
                "input code exceeds {max}"
            )));
        }
        let n_planes = self.config.cycles() * self.config.dac_bits;
        packed_inputs.pack(inputs, n_inputs, n_planes, self.packed.words_per_col());
        self.matvec_batch_prepacked_into(packed_inputs, adc, y)
    }

    /// Bit-serial MVM over an already-packed input batch — the shared-pack
    /// entry point: callers that map several tiles over the same input
    /// rows (a mapped layer's row block) pack once and run every tile of
    /// the block against the same read-only [`PackedInputs`].
    ///
    /// Per input, the kernel is chosen at pack time from the occupancy
    /// index (see [`PackedKernel`](crate::PackedKernel)): all-zero inputs
    /// short-circuit to zero outputs, sparse inputs run the
    /// occupancy-indexed kernel, dense inputs the widened dense kernel.
    /// Every path feeds the ADC identical integer column sums, so the
    /// output, the saturation count, and all modeled hardware counters
    /// (charged per executed MVM regardless of software skips) are
    /// bitwise identical across kernels and thread
    /// counts; only the `xbar.packed.*_skipped` software counters and
    /// wall-clock time vary with the kernel choice — and those skip
    /// totals are data-derived, so they too are thread-count-invariant.
    ///
    /// # Errors
    ///
    /// Returns [`XbarError::InvalidConfig`] when `packed_inputs` was
    /// packed for a different geometry than this tile expects (row count,
    /// words per column, or DAC plane count mismatch) — the guard that
    /// catches stale shared packs after a shape or DAC change.
    pub fn matvec_batch_prepacked_into(
        &self,
        packed_inputs: &PackedInputs,
        adc: &Adc,
        y: &mut Vec<i64>,
    ) -> Result<()> {
        let n_inputs = packed_inputs.n_inputs();
        if n_inputs == 0 {
            y.clear();
            return Ok(());
        }
        let dac = self.config.dac_bits;
        let cycles = self.config.cycles();
        let cell_bits = self.config.cell.bits_per_cell;
        let wpc = self.packed.words_per_col();
        let n_planes = cycles * dac;
        if packed_inputs.rows() != self.rows
            || packed_inputs.words_per_col() != wpc
            || packed_inputs.plane_count() != n_planes
        {
            return Err(XbarError::InvalidConfig(format!(
                "packed inputs ({} rows, {} planes, {} words/col) do not match tile \
                 ({} rows, {} planes, {} words/col): stale shared pack",
                packed_inputs.rows(),
                packed_inputs.plane_count(),
                packed_inputs.words_per_col(),
                self.rows,
                n_planes,
                wpc,
            )));
        }
        y.clear();
        y.resize(n_inputs * self.cols, 0);
        // Chunk over the flat (input × column) element grid: every output
        // element `f = i·cols + j` is one independent ADC channel read, so
        // a single input's columns already spread over the pool (the
        // compiled Linear step runs with `n_inputs == 1`) and chunk
        // boundaries may fall mid-input without affecting values. The
        // grain derives from the element count and the modeled per-column
        // popcount cost (polarities × weight planes × input planes ×
        // words) — shape quantities only, so boundaries stay reproducible
        // — and saturations/skip totals merge by commutative addition.
        let cols = self.cols;
        let col_cost = 2 * self.config.cells_per_weight() as u64 * u64::from(n_planes) * wpc as u64;
        let grain = tinyadc_par::grain_for_cost(n_inputs * cols, col_cost);
        let mode = packed::packed_kernel();
        let saturations = AtomicU64::new(0);
        let planes_skipped = AtomicU64::new(0);
        let words_skipped = AtomicU64::new(0);
        tinyadc_par::for_each_chunk_mut(y, grain, |chunk, y_span| {
            let mut sats = 0u64;
            let mut skips = packed::SkipStats::default();
            for (k, yv) in y_span.iter_mut().enumerate() {
                let f = chunk * grain + k;
                let (i, j) = (f / cols, f % cols);
                match packed_inputs.path(mode, i) {
                    KernelPath::Zero => {
                        // All input planes empty: every pre-ADC sum is 0
                        // and sample(0) == 0, so the output element is 0
                        // and no saturation can occur.
                        *yv = 0;
                        skips.input_planes += u64::from(n_planes);
                    }
                    KernelPath::Dense => {
                        let (acc, s) = self.packed.column_bit_serial(
                            j,
                            packed_inputs.input_planes(i),
                            dac,
                            cycles,
                            cell_bits,
                            adc,
                            &mut skips.words,
                        );
                        *yv = acc;
                        sats += s;
                    }
                    KernelPath::Indexed => {
                        let zero_planes = packed_inputs.zero_plane_count(i);
                        let (acc, s) = self.packed.column_bit_serial_indexed(
                            j,
                            packed_inputs.input_planes(i),
                            packed_inputs.input_occ(i),
                            n_planes - zero_planes,
                            dac,
                            cycles,
                            cell_bits,
                            adc,
                            &mut skips,
                        );
                        *yv = acc;
                        sats += s;
                        skips.input_planes += u64::from(zero_planes);
                    }
                }
            }
            saturations.fetch_add(sats, Ordering::Relaxed);
            planes_skipped.fetch_add(skips.input_planes, Ordering::Relaxed);
            words_skipped.fetch_add(skips.words, Ordering::Relaxed);
        });
        self.record_mvm_events(n_inputs as u64, saturations.into_inner());
        crate::obs::PACKED_INPUT_PLANES_SKIPPED.add(planes_skipped.into_inner());
        crate::obs::PACKED_WORDS_SKIPPED.add(words_skipped.into_inner());
        Ok(())
    }

    /// Non-ideal variant of [`Tile::matvec_batch_prepacked_into`]: every
    /// output element runs the noise-aware packed kernel
    /// ([`crate::packed::PackedTile::column_bit_serial_nonideal`]), which
    /// scales each pre-ADC column sum by the column-mean IR attenuation
    /// and adds Gaussian read noise before the ADC samples it.
    ///
    /// Determinism: the noise RNG is derived *per output element* from the
    /// context's stream seed (`mix(stream, i·cols + j)`), never consumed
    /// across elements, so chunk boundaries — and therefore thread counts
    /// — cannot change any value. There is no zero-input short-circuit:
    /// the ADC samples noise on all-zero columns too, exactly as the
    /// silicon would.
    ///
    /// With an identity context (no IR model, sigma 0) the output is
    /// bitwise identical to the clean entry point.
    ///
    /// # Errors
    ///
    /// Returns the same stale-shared-pack [`XbarError::InvalidConfig`] as
    /// the clean entry point.
    pub(crate) fn matvec_batch_prepacked_nonideal_into(
        &self,
        packed_inputs: &PackedInputs,
        adc: &Adc,
        ctx: &crate::noise::NoiseCtx,
        y: &mut Vec<i64>,
    ) -> Result<()> {
        let n_inputs = packed_inputs.n_inputs();
        if n_inputs == 0 {
            y.clear();
            return Ok(());
        }
        let dac = self.config.dac_bits;
        let cycles = self.config.cycles();
        let cell_bits = self.config.cell.bits_per_cell;
        let wpc = self.packed.words_per_col();
        let n_planes = cycles * dac;
        if packed_inputs.rows() != self.rows
            || packed_inputs.words_per_col() != wpc
            || packed_inputs.plane_count() != n_planes
        {
            return Err(XbarError::InvalidConfig(format!(
                "packed inputs ({} rows, {} planes, {} words/col) do not match tile \
                 ({} rows, {} planes, {} words/col): stale shared pack",
                packed_inputs.rows(),
                packed_inputs.plane_count(),
                packed_inputs.words_per_col(),
                self.rows,
                n_planes,
                wpc,
            )));
        }
        y.clear();
        y.resize(n_inputs * self.cols, 0);
        // Same flat (input × column) grid and shape-derived grain as the
        // clean path; saturation/draw totals merge by commutative addition.
        let cols = self.cols;
        let rows = self.rows;
        let col_cost = 2 * self.config.cells_per_weight() as u64 * u64::from(n_planes) * wpc as u64;
        let grain = tinyadc_par::grain_for_cost(n_inputs * cols, col_cost);
        let saturations = AtomicU64::new(0);
        let noise_draws = AtomicU64::new(0);
        let words_skipped = AtomicU64::new(0);
        tinyadc_par::for_each_chunk_mut(y, grain, |chunk, y_span| {
            let mut sats = 0u64;
            let mut draws = 0u64;
            let mut skipped = 0u64;
            for (k, yv) in y_span.iter_mut().enumerate() {
                let f = chunk * grain + k;
                let (i, j) = (f / cols, f % cols);
                let att = ctx.column_attenuation(j, rows, cols);
                let mut rng = SeededRng::new(crate::noise::mix(ctx.stream, f as u64));
                let (acc, s, d) = self.packed.column_bit_serial_nonideal(
                    j,
                    packed_inputs.input_planes(i),
                    dac,
                    cycles,
                    cell_bits,
                    adc,
                    att,
                    ctx.sigma,
                    &mut rng,
                    &mut skipped,
                );
                *yv = acc;
                sats += s;
                draws += d;
            }
            saturations.fetch_add(sats, Ordering::Relaxed);
            noise_draws.fetch_add(draws, Ordering::Relaxed);
            words_skipped.fetch_add(skipped, Ordering::Relaxed);
        });
        self.record_mvm_events(n_inputs as u64, saturations.into_inner());
        crate::obs::NOISE_MVMS.add(n_inputs as u64);
        crate::obs::NOISE_DRAWS.add(noise_draws.into_inner());
        crate::obs::PACKED_WORDS_SKIPPED.add(words_skipped.into_inner());
        Ok(())
    }

    /// The reference bit-serial MVM: the original column × cycle × slice
    /// × row loop over the stored cell levels. Kept as the equivalence
    /// oracle for the packed kernel (and for benchmarking it); production
    /// paths use [`Tile::matvec`].
    ///
    /// # Errors
    ///
    /// Returns [`XbarError::InputLengthMismatch`] for wrong input length
    /// or codes exceeding the input range.
    pub fn matvec_loop(&self, input: &[u64], adc: &Adc) -> Result<Vec<i64>> {
        self.check_input(input)?;
        let dac = self.config.dac_bits;
        let dac_mask = (1u64 << dac) - 1;
        let cycles = self.config.cycles();
        let cell_bits = self.config.cell.bits_per_cell;
        // Columns are independent ADC channels; each thread digitises its
        // own span of columns. The per-column shift-add runs over the same
        // (cycle, slice) sequence as the serial datapath, and the digital
        // accumulation is integer-exact, so parallel output is bitwise
        // identical for every thread count.
        let mut y = vec![0i64; self.cols];
        let grain = tinyadc_par::default_grain(self.cols);
        tinyadc_par::for_each_chunk_mut(&mut y, grain, |chunk, y_cols| {
            for (jj, yv) in y_cols.iter_mut().enumerate() {
                let j = chunk * grain + jj;
                let mut acc = 0i64;
                for cycle in 0..cycles {
                    let shift_in = cycle * dac;
                    for (s, (pos, neg)) in self.pos.iter().zip(&self.neg).enumerate() {
                        let shift = shift_in + s as u32 * cell_bits;
                        let mut pos_sum = 0u64;
                        let mut neg_sum = 0u64;
                        for r in 0..self.rows {
                            let bits = (input[r] >> shift_in) & dac_mask;
                            if bits == 0 {
                                continue;
                            }
                            pos_sum += bits * pos[r * self.cols + j];
                            neg_sum += bits * neg[r * self.cols + j];
                        }
                        let p = adc.sample(pos_sum) as i64;
                        let n = adc.sample(neg_sum) as i64;
                        acc += (p - n) << shift;
                    }
                }
                *yv = acc;
            }
        });
        Ok(y)
    }

    /// Analog-domain MVM: cell conductances carry the levels (with the
    /// device model's process variation), column currents are converted
    /// back to level units and digitised. With `variation = 0` this equals
    /// [`Tile::matvec`].
    ///
    /// # Errors
    ///
    /// Returns [`XbarError::InputLengthMismatch`] for wrong input length.
    pub fn matvec_analog(
        &self,
        input: &[u64],
        adc: &Adc,
        device: &DeviceModel,
        rng: &mut SeededRng,
    ) -> Result<Vec<i64>> {
        self.check_input(input)?;
        let dac = self.config.dac_bits;
        let dac_mask = (1u64 << dac) - 1;
        let cycles = self.config.cycles();
        let cell_bits = self.config.cell.bits_per_cell;
        let level_max = self.config.cell.level_max() as f64;
        let unit = (device.g_on - device.g_off) / level_max;
        // Pre-draw varied conductances per cell (one draw per cell, reused
        // across cycles — variation is static, not per-read noise).
        let vary = |levels: &[u64], rng: &mut SeededRng| -> Vec<f64> {
            levels
                .iter()
                .map(|&l| device.conductance_with_variation(l, &self.config.cell, rng))
                .collect()
        };
        // The conductance draw consumes the rng stream sequentially and must
        // stay serial; only the column loop below parallelises.
        let pos_g: Vec<Vec<f64>> = self.pos.iter().map(|s| vary(s, rng)).collect();
        let neg_g: Vec<Vec<f64>> = self.neg.iter().map(|s| vary(s, rng)).collect();

        // Per column, the float current sums accumulate over rows in the
        // same order as the serial loop, so parallelism over columns keeps
        // results bitwise identical.
        let mut y = vec![0i64; self.cols];
        let grain = tinyadc_par::default_grain(self.cols);
        tinyadc_par::for_each_chunk_mut(&mut y, grain, |chunk, y_cols| {
            for (jj, yv) in y_cols.iter_mut().enumerate() {
                let j = chunk * grain + jj;
                let mut acc = 0i64;
                for cycle in 0..cycles {
                    let shift_in = cycle * dac;
                    for s in 0..pos_g.len() {
                        let shift = shift_in + s as u32 * cell_bits;
                        let mut pos_i = 0.0f64;
                        let mut neg_i = 0.0f64;
                        let mut active = 0u64;
                        for r in 0..self.rows {
                            let bits = (input[r] >> shift_in) & dac_mask;
                            if bits == 0 {
                                continue;
                            }
                            active += bits;
                            pos_i += bits as f64 * pos_g[s][r * self.cols + j];
                            neg_i += bits as f64 * neg_g[s][r * self.cols + j];
                        }
                        // Remove the g_off pedestal contributed by active rows.
                        let pedestal = active as f64 * device.g_off;
                        let p = adc.sample_analog((pos_i - pedestal) / unit) as i64;
                        let n = adc.sample_analog((neg_i - pedestal) / unit) as i64;
                        acc += (p - n) << shift;
                    }
                }
                *yv = acc;
            }
        });
        Ok(y)
    }

    /// Total cells in the tile (both polarities, all slices).
    pub fn cell_count(&self) -> usize {
        2 * self.pos.len() * self.rows * self.cols
    }

    /// Number of bit slices per polarity.
    pub(crate) fn slice_count(&self) -> usize {
        self.pos.len()
    }

    /// Stored level of one cell; `polarity` 0 = positive, 1 = negative,
    /// `index` is the flat `row * cols + col` position.
    pub(crate) fn cell_level(&self, polarity: usize, slice: usize, index: usize) -> u64 {
        let target = if polarity == 0 { &self.pos } else { &self.neg };
        target[slice][index]
    }

    /// Bit planes the packed kernel actually stores (out of
    /// `2 · slices · bits_per_cell` possible): all-zero planes are
    /// dropped at pack time, so this shrinks with slice-level sparsity —
    /// the structure column-proportional pruning creates.
    pub fn packed_plane_count(&self) -> usize {
        self.packed.stored_planes()
    }

    /// Mutates the raw cell levels (`f` receives the positive and
    /// negative polarity slices, each `[slice][row * cols + col]`) and
    /// rebuilds the packed bit planes afterwards so the popcount kernels
    /// stay consistent. Used by fault injection.
    pub(crate) fn mutate_cells(&mut self, f: impl FnOnce(&mut Vec<Vec<u64>>, &mut Vec<Vec<u64>>)) {
        f(&mut self.pos, &mut self.neg);
        self.packed = PackedTile::pack(
            &self.pos,
            &self.neg,
            self.rows,
            self.cols,
            self.config.cell.bits_per_cell,
        );
        crate::obs::TILE_PACKS.inc();
        crate::obs::PACKED_PLANES.observe(self.packed.stored_planes() as u64);
        self.activated_rows = compute_activated_rows(&self.packed, self.cols);
        self.exact = ExactCodes::new(&self.codes(), self.rows, self.config.quant.input_max());
    }

    /// The signed codes the exact integer path multiplies, if they fit
    /// `i16`.
    pub(crate) fn exact_codes(&self) -> Option<&ExactCodes> {
        self.exact.as_ref()
    }

    /// Records the modeled hardware events of `n_mvms` executed MVMs plus
    /// the observed ADC saturations (already summed over the batch). Event
    /// counts follow [`crate::activity::tile_activity`] — they model what
    /// the silicon datapath performs, including the zero-sum samples the
    /// packed kernel software-skips — so the hw roll-up built from these
    /// counters matches the analytic activity model exactly.
    pub(crate) fn record_mvm_events(&self, n_mvms: u64, saturations: u64) {
        let a = crate::activity::tile_activity(self);
        crate::obs::MATVECS.add(n_mvms);
        crate::obs::ADC_CONVERSIONS.add(a.adc_conversions * n_mvms);
        crate::obs::DAC_EVENTS.add(a.dac_events * n_mvms);
        crate::obs::COLUMN_READS.add(a.column_reads * n_mvms);
        crate::obs::SHIFT_ADDS.add(a.shift_adds * n_mvms);
        crate::obs::ADC_SATURATIONS.add(saturations);
        crate::obs::ROWS_ACTIVATED.observe_n(self.activated_rows as u64, n_mvms);
    }

    fn check_input(&self, input: &[u64]) -> Result<()> {
        if input.len() != self.rows {
            return Err(XbarError::InputLengthMismatch {
                expected: self.rows,
                actual: input.len(),
            });
        }
        let max = self.config.quant.input_max();
        if input.iter().any(|&x| x > max) {
            return Err(XbarError::InvalidConfig(format!(
                "input code exceeds {max}"
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adc::{required_adc_bits_exact, required_adc_bits_paper};

    fn small_config() -> XbarConfig {
        XbarConfig {
            shape: CrossbarShape::new(8, 8).unwrap(),
            cell: CellConfig::default(),
            quant: QuantConfig {
                weight_bits: 5, // magnitude 4 bits -> 2 cells
                input_bits: 4,
            },
            dac_bits: 1,
        }
    }

    fn demo_codes() -> Vec<i64> {
        // 4x3 block with mixed signs and zeros.
        vec![
            3, -7, 0, //
            0, 15, -1, //
            -15, 0, 8, //
            2, 4, 0,
        ]
    }

    #[test]
    fn codes_round_trip_through_cells() {
        let tile = Tile::new(&demo_codes(), 4, 3, small_config()).unwrap();
        assert_eq!(tile.codes(), demo_codes());
    }

    #[test]
    fn activated_rows_counts_nonzeros_per_column() {
        let tile = Tile::new(&demo_codes(), 4, 3, small_config()).unwrap();
        // Column nonzeros: col0 = {3,-15,2} = 3, col1 = 3, col2 = 2.
        assert_eq!(tile.activated_rows(), 3);
    }

    #[test]
    fn matvec_with_sufficient_adc_is_exact() {
        let cfg = small_config();
        let tile = Tile::new(&demo_codes(), 4, 3, cfg).unwrap();
        let bits = required_adc_bits_paper(cfg.dac_bits, cfg.cell.bits_per_cell, 4);
        let adc = Adc::new(bits).unwrap();
        let input = vec![5u64, 0, 15, 9];
        assert_eq!(
            tile.matvec(&input, &adc).unwrap(),
            tile.matvec_ideal(&input).unwrap()
        );
    }

    #[test]
    fn matvec_with_reduced_adc_is_exact_after_pruning() {
        // Column-proportionally pruned block: at most 1 nonzero per column.
        let cfg = small_config();
        let codes = vec![
            0, -7, 0, //
            0, 0, 0, //
            -15, 0, 8, //
            0, 0, 0,
        ];
        let tile = Tile::new(&codes, 4, 3, cfg).unwrap();
        assert_eq!(tile.activated_rows(), 1);
        // 1 activated row, 1-bit DAC, 2-bit cells -> 2 bits suffice.
        let bits = required_adc_bits_exact(1, 2, 1);
        assert_eq!(bits, 2);
        let adc = Adc::new(bits).unwrap();
        for input in [vec![15u64, 15, 15, 15], vec![1, 2, 3, 4], vec![0, 0, 0, 0]] {
            assert_eq!(
                tile.matvec(&input, &adc).unwrap(),
                tile.matvec_ideal(&input).unwrap(),
                "input {input:?}"
            );
        }
    }

    #[test]
    fn undersized_adc_saturates_unpruned_block() {
        let cfg = small_config();
        // Dense column of maximal weights and inputs.
        let codes = vec![15i64; 8];
        let tile = Tile::new(&codes, 8, 1, cfg).unwrap();
        let input = vec![15u64; 8];
        let small = Adc::new(2).unwrap();
        let exact = tile.matvec_ideal(&input).unwrap();
        let lossy = tile.matvec(&input, &small).unwrap();
        assert!(lossy[0] < exact[0], "{lossy:?} vs {exact:?}");
    }

    #[test]
    fn multibit_dac_matches_ideal() {
        let cfg = XbarConfig {
            dac_bits: 2,
            ..small_config()
        };
        let tile = Tile::new(&demo_codes(), 4, 3, cfg).unwrap();
        let adc = Adc::new(required_adc_bits_paper(2, 2, 4)).unwrap();
        let input = vec![11u64, 3, 15, 6];
        assert_eq!(
            tile.matvec(&input, &adc).unwrap(),
            tile.matvec_ideal(&input).unwrap()
        );
    }

    #[test]
    fn analog_mode_without_variation_is_exact() {
        let cfg = small_config();
        let tile = Tile::new(&demo_codes(), 4, 3, cfg).unwrap();
        let adc = Adc::new(required_adc_bits_paper(1, 2, 4)).unwrap();
        let device = DeviceModel {
            variation: 0.0,
            ..DeviceModel::default()
        };
        let mut rng = SeededRng::new(1);
        let input = vec![7u64, 2, 13, 15];
        assert_eq!(
            tile.matvec_analog(&input, &adc, &device, &mut rng).unwrap(),
            tile.matvec_ideal(&input).unwrap()
        );
    }

    #[test]
    fn analog_variation_perturbs_but_tracks() {
        let cfg = small_config();
        let tile = Tile::new(&demo_codes(), 4, 3, cfg).unwrap();
        let adc = Adc::new(required_adc_bits_paper(1, 2, 4)).unwrap();
        let device = DeviceModel::default(); // 10% variation
        let mut rng = SeededRng::new(5);
        let input = vec![15u64, 15, 15, 15];
        let ideal = tile.matvec_ideal(&input).unwrap();
        let noisy = tile.matvec_analog(&input, &adc, &device, &mut rng).unwrap();
        for (a, b) in noisy.iter().zip(&ideal) {
            let denom = (b.abs() as f64).max(16.0);
            assert!(
                ((a - b).abs() as f64) / denom < 0.5,
                "noisy {a} too far from ideal {b}"
            );
        }
    }

    #[test]
    fn packed_matvec_matches_reference_loop() {
        let cfg = small_config();
        let tile = Tile::new(&demo_codes(), 4, 3, cfg).unwrap();
        let input = vec![5u64, 0, 15, 9];
        // Generous and deliberately starved ADCs: packed must track the
        // loop bit for bit in both regimes.
        for bits in [1, 2, 4, 8] {
            let adc = Adc::new(bits).unwrap();
            assert_eq!(
                tile.matvec(&input, &adc).unwrap(),
                tile.matvec_loop(&input, &adc).unwrap(),
                "adc {bits} bits"
            );
        }
    }

    #[test]
    fn matvec_batch_matches_per_input_matvec() {
        let cfg = small_config();
        let tile = Tile::new(&demo_codes(), 4, 3, cfg).unwrap();
        let adc = Adc::new(3).unwrap();
        let inputs = [
            vec![5u64, 0, 15, 9],
            vec![0u64, 0, 0, 0],
            vec![15u64, 15, 15, 15],
        ];
        // im2col layout: (row r, input i) at r * n_inputs + i.
        let n = inputs.len();
        let mut batch = vec![0u64; 4 * n];
        for (i, input) in inputs.iter().enumerate() {
            for (r, &x) in input.iter().enumerate() {
                batch[r * n + i] = x;
            }
        }
        let y = tile.matvec_batch(&batch, n, &adc).unwrap();
        for (i, input) in inputs.iter().enumerate() {
            assert_eq!(
                &y[i * 3..(i + 1) * 3],
                &tile.matvec(input, &adc).unwrap()[..],
                "input {i}"
            );
        }
        assert!(tile.matvec_batch(&[], 0, &adc).unwrap().is_empty());
        assert!(tile.matvec_batch(&batch[..7], n, &adc).is_err());
    }

    #[test]
    fn zero_plane_skipping_shrinks_pruned_tiles() {
        let cfg = small_config();
        let dense = Tile::new(&demo_codes(), 4, 3, cfg).unwrap();
        // Only small-magnitude weights: the high slice stores nothing.
        let low = Tile::new(&[1, -2, 0, 3, 0, -1, 2, 0, 1, 0, 3, -3], 4, 3, cfg).unwrap();
        assert!(low.packed_plane_count() < dense.packed_plane_count());
        let empty = Tile::new(&[0; 12], 4, 3, cfg).unwrap();
        assert_eq!(empty.packed_plane_count(), 0);
        assert_eq!(empty.activated_rows(), 0);
    }

    #[test]
    fn validation_rejects_bad_blocks() {
        let cfg = small_config();
        assert!(Tile::new(&[0; 72], 9, 8, cfg).is_err()); // too many rows
        assert!(Tile::new(&[0; 8], 4, 3, cfg).is_err()); // wrong length
        assert!(Tile::new(&[99], 1, 1, cfg).is_err()); // code out of range
        assert!(Tile::new(&[-99], 1, 1, cfg).is_err());
        assert!(Tile::new(&[], 0, 1, cfg).is_err());
    }

    #[test]
    fn most_negative_code_is_a_typed_error_not_a_panic() {
        // `i64::MIN.abs()` wraps to `i64::MIN` in release builds; the
        // range check must still reject it before `CellConfig::slice`
        // asserts on the magnitude.
        for cfg in [small_config(), XbarConfig::paper_default()] {
            let err = Tile::new(&[i64::MIN], 1, 1, cfg).unwrap_err();
            assert!(matches!(err, XbarError::InvalidConfig(_)), "{err}");
            assert!(Tile::new(&[i64::MIN + 1], 1, 1, cfg).is_err());
        }
    }

    #[test]
    fn cycles_and_arrays_accounting() {
        let cfg = XbarConfig::paper_default();
        assert_eq!(cfg.cycles(), 8);
        assert_eq!(cfg.cells_per_weight(), 4); // 7 magnitude bits, 2-bit cells
        assert_eq!(cfg.arrays_per_block(), 8);
    }
}
