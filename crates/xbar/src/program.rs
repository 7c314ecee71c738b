//! Compile-once/run-many execution engine for the crossbar datapath.
//!
//! ISAAC-style accelerators program their crossbars once and then stream
//! inputs through fixed peripherals; re-mapping weights per request (what
//! calling [`crate::mapping::MappedLayer::from_param`] before every
//! [`crate::infer`] call amounts to) has no hardware analogue. This
//! module captures that split:
//!
//! * **Compile** ([`CompiledModel::compile`]) walks a trained
//!   [`Network`]'s [`LayerSpec`] graph once, maps every conv/linear
//!   weight onto crossbar tiles with packed bit planes, folds batch-norm
//!   into per-channel scale/shift, sizes a per-layer [`Adc`], optionally
//!   bakes in stuck-at faults and spare-column repair, and emits a flat
//!   program of steps over activation *slots*.
//! * **Run** ([`CompiledModel::run`] / [`CompiledModel::run_batch`])
//!   executes that program. All scratch — the im2col buffer, quantised
//!   code buffers, packed DAC bit planes, per-slot activations — lives in
//!   a caller-owned [`Workspace`], so once buffer capacities have grown
//!   to the model's high-water mark (the first call), steady-state runs
//!   perform **zero heap allocation**.
//!
//! Negative inputs (the raw image fed to the first layer) are handled by
//! differential input streaming: the positive and negated-negative halves
//! share one quantisation scale and run as two unsigned MVMs whose
//! digitised results are subtracted — the input-side analogue of the
//! differential column pairs that carry weight signs. Post-ReLU layers
//! take the ordinary single-pass path, bitwise identical to
//! [`crate::infer`].
//!
//! Batched runs fan samples out over `tinyadc-par` with one workspace per
//! sample; chunk boundaries depend only on the batch size and per-sample
//! execution is exact integer arithmetic, so results are bitwise
//! invariant under the worker-thread count.

use crate::adc::Adc;
use crate::exact;
use crate::fault::{FaultModel, FaultReport, LayerFaultMap};
use crate::mapping::{BatchScratch, MappedLayer};
use crate::noise::{NoiseCtx, NonIdealPolicy};
use crate::quant::{quantize_input_codes_into, quantize_input_signed_into};
use crate::repair;
use crate::tile::XbarConfig;
use crate::{Result, XbarError};
use tinyadc_nn::{LayerSpec, Network, Param, ParamKind};
use tinyadc_tensor::rng::SeededRng;
use tinyadc_tensor::{im2col_slice_into, Conv2dGeometry, Tensor};

/// Stuck-at-fault state to bake into a compiled program: every crossbar
/// layer samples faults from `model` (deterministically from `seed`) at
/// compile time, optionally repairing harmful columns with per-tile
/// spares, exactly as the offline resilience campaign does.
#[derive(Debug, Clone)]
pub struct FaultPolicy {
    /// Stuck-at rates.
    pub model: FaultModel,
    /// Spare columns per tile for repair; `0` leaves faults unrepaired.
    pub spares_per_tile: usize,
    /// RNG seed for fault placement (one stream across all layers).
    pub seed: u64,
}

/// Compile-time options for [`CompiledModel::compile`].
#[derive(Debug, Clone, Default)]
pub struct CompileOptions {
    /// Fixed ADC resolution for every layer; `None` sizes each layer's
    /// ADC to its own worst-case activated rows (the paper's Eq. 1).
    pub adc_bits: Option<u32>,
    /// Optional stuck-at faults (and repair) baked into the tiles.
    pub faults: Option<FaultPolicy>,
    /// Optional device non-idealities (IR drop / read noise) the instance
    /// runs under; composes with `faults` (faults change what is
    /// programmed, the non-ideal policy perturbs every read) and can be
    /// changed later per instance via [`CompiledModel::set_non_ideal`].
    pub non_ideal: Option<NonIdealPolicy>,
}

/// One crossbar layer of a compiled program, for reporting.
#[derive(Debug, Clone)]
pub struct CrossbarSummary {
    /// Source parameter name.
    pub name: String,
    /// Crossbar blocks the mapped matrix occupies.
    pub blocks: usize,
    /// ADC resolution the program samples this layer at.
    pub adc_bits: u32,
}

/// Scratch for one crossbar MVM: quantised code buffers (differential
/// pair), packed bit planes, and integer outputs. Every buffer is resized
/// in place, so capacities persist across calls.
#[derive(Debug, Default)]
pub(crate) struct StepScratch {
    /// im2col unfold of the layer input.
    pub(crate) cols: Vec<f32>,
    /// Positive-half input codes.
    codes: Vec<u64>,
    /// Negated-negative-half input codes (differential streaming).
    neg_codes: Vec<u64>,
    /// Shared packed DAC planes + occupancy index (packed once per row
    /// block and reused by every column tile; the signed differential
    /// path packs the pos and neg halves through the same buffers) +
    /// per-tile partial sums.
    batch: BatchScratch,
    /// Integer MVM outputs, input-major.
    y: Vec<i64>,
    /// Integer MVM outputs of the negative half.
    y_neg: Vec<i64>,
}

impl StepScratch {
    fn bytes(&self) -> usize {
        self.cols.len() * 4
            + (self.codes.len() + self.neg_codes.len()) * 8
            + self.batch.bytes()
            + (self.y.len() + self.y_neg.len()) * 8
    }
}

/// Reusable per-sample execution state: crossbar scratch plus one
/// activation buffer per program slot. Create once, pass to every
/// [`CompiledModel::run`]; after the first call all buffers have reached
/// the model's high-water capacity and later runs allocate nothing.
#[derive(Debug, Default)]
pub struct Workspace {
    step: StepScratch,
    acts: Vec<Vec<f32>>,
    error: Option<XbarError>,
}

impl Workspace {
    /// An empty workspace (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes currently held by the live portions of all buffers —
    /// constant in steady state, which is what the
    /// `program.workspace.bytes` gauge reports.
    pub fn bytes(&self) -> usize {
        self.step.bytes() + self.acts.iter().map(|a| a.len() * 4).sum::<usize>()
    }
}

/// Per-sample workspaces for [`CompiledModel::run_batch`]; grows to the
/// largest batch seen and is reused across calls.
#[derive(Debug, Default)]
pub struct BatchWorkspace {
    samples: Vec<Workspace>,
}

impl BatchWorkspace {
    /// An empty batch workspace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total bytes across all per-sample workspaces.
    pub fn bytes(&self) -> usize {
        self.samples.iter().map(Workspace::bytes).sum()
    }
}

/// A crossbar conv/linear step: the mapped tiles, the peripheral ADC, and
/// the digital bias. Crate-visible so the snapshot codec
/// ([`crate::snapshot`]) can persist and rebuild programs field by field.
#[derive(Debug)]
pub(crate) struct CrossbarStep {
    pub(crate) mapped: MappedLayer,
    pub(crate) adc: Adc,
    pub(crate) bias: Option<Vec<f32>>,
    pub(crate) in_slot: usize,
    pub(crate) out_slot: usize,
}

/// One instruction of a compiled program. Crossbar steps run on the
/// bit-serial datapath; the rest run in the digital domain, as they do in
/// ISAAC-style accelerators. Crate-visible for the snapshot codec.
#[derive(Debug)]
pub(crate) enum Step {
    /// `to = from` (protects a residual input from in-place ops).
    Copy {
        from: usize,
        to: usize,
    },
    Conv {
        step: Box<CrossbarStep>,
        geometry: Conv2dGeometry,
    },
    Linear {
        step: Box<CrossbarStep>,
    },
    /// In-place `max(x, 0)`.
    Relu {
        slot: usize,
    },
    /// In-place folded batch-norm: `x * scale[c] + shift[c]` per channel
    /// of `plane` spatial elements.
    BatchNorm {
        slot: usize,
        plane: usize,
        scale: Vec<f32>,
        shift: Vec<f32>,
    },
    MaxPool {
        in_slot: usize,
        out_slot: usize,
        channels: usize,
        in_h: usize,
        in_w: usize,
        window: usize,
    },
    GlobalAvgPool {
        in_slot: usize,
        out_slot: usize,
        channels: usize,
        plane: usize,
    },
    /// `a = relu(a + b)` (residual join).
    AddRelu {
        a: usize,
        b: usize,
    },
}

/// A network compiled for the crossbar datapath: crossbars programmed,
/// peripherals fixed, ready to stream any number of inputs through
/// [`Self::run`] / [`Self::run_batch`].
#[derive(Debug)]
pub struct CompiledModel {
    name: String,
    input_dims: Vec<usize>,
    input_vol: usize,
    output_len: usize,
    steps: Vec<Step>,
    n_slots: usize,
    out_slot: usize,
    config: XbarConfig,
    crossbar: Vec<CrossbarSummary>,
    fault_report: FaultReport,
    remapped_columns: usize,
    unrepaired_columns: usize,
    /// Modeled ADC conversions one sample performs (compile-time, ≥ 1).
    sample_cost: u64,
    /// Modeled SAR ADC cycles one sample performs (conversions × bits, ≥ 1).
    sample_sar_cycles: u64,
    /// Per-instance device non-idealities (None ⇒ ideal reads).
    non_ideal: Option<NonIdealPolicy>,
}

/// Modeled ADC conversions one sample streams through `steps` — the same
/// quantity the `xbar.adc.conversions` counter charges at run time, but
/// computed from shapes alone (tiles × cycles × columns, scaled by the
/// conv patch count). Digital steps are free next to the bit-serial
/// datapath and contribute nothing. Clamped to ≥ 1 so it can divide.
pub(crate) fn modeled_sample_conversions(steps: &[Step]) -> u64 {
    steps
        .iter()
        .map(|s| match s {
            Step::Conv { step, geometry } => {
                crate::activity::layer_activity(&step.mapped).adc_conversions
                    * geometry.patch_count() as u64
            }
            Step::Linear { step } => crate::activity::layer_activity(&step.mapped).adc_conversions,
            _ => 0,
        })
        .sum::<u64>()
        .max(1)
}

/// Modeled SAR ADC cycles one sample streams through `steps`: each
/// conversion costs one internal cycle per resolved bit (`tinyadc-hw`'s
/// latency model), so a CP-pruned program with smaller per-layer ADCs is
/// proportionally faster than its dense sibling *per conversion* — the
/// request-level latency lever the serving front-end prices batches
/// with. Clamped to ≥ 1 so it can divide.
pub(crate) fn modeled_sample_sar_cycles(steps: &[Step]) -> u64 {
    steps
        .iter()
        .map(|s| match s {
            Step::Conv { step, geometry } => {
                crate::activity::layer_activity(&step.mapped).adc_conversions
                    * geometry.patch_count() as u64
                    * u64::from(step.adc.bits())
            }
            Step::Linear { step } => {
                crate::activity::layer_activity(&step.mapped).adc_conversions
                    * u64::from(step.adc.bits())
            }
            _ => 0,
        })
        .sum::<u64>()
        .max(1)
}

struct Compiler<'a> {
    config: XbarConfig,
    options: &'a CompileOptions,
    rng: Option<SeededRng>,
    steps: Vec<Step>,
    n_slots: usize,
    crossbar: Vec<CrossbarSummary>,
    fault_report: FaultReport,
    remapped_columns: usize,
    unrepaired_columns: usize,
}

impl Compiler<'_> {
    fn alloc_slot(&mut self) -> usize {
        self.n_slots += 1;
        self.n_slots - 1
    }

    /// Returns a slot safe to mutate in place: `slot` itself when the
    /// caller owns it, otherwise a fresh slot filled by a `Copy` step.
    fn writable(&mut self, slot: usize, mutable: bool) -> usize {
        if mutable {
            return slot;
        }
        let to = self.alloc_slot();
        self.steps.push(Step::Copy { from: slot, to });
        to
    }

    /// Maps a weight parameter onto tiles, bakes in the fault policy, and
    /// sizes its ADC.
    fn map_weight(&mut self, weight: &Param) -> Result<(MappedLayer, Adc)> {
        let mut mapped = MappedLayer::from_param(&weight.value, weight.kind, self.config)?;
        if let Some(policy) = &self.options.faults {
            let rng = self.rng.as_mut().expect("rng exists when faults are set");
            let map = LayerFaultMap::sample(&mapped, &policy.model, rng);
            if policy.spares_per_tile > 0 {
                let outcome = repair::apply_with_spares(&mut mapped, &map, policy.spares_per_tile);
                self.fault_report.merge(&outcome.faults);
                self.remapped_columns += outcome.remapped_columns;
                self.unrepaired_columns += outcome.unrepaired_columns;
            } else {
                self.fault_report.merge(&map.apply(&mut mapped));
            }
        }
        let bits = self
            .options
            .adc_bits
            .unwrap_or_else(|| mapped.required_adc_bits());
        let adc = Adc::new(bits)?;
        self.crossbar.push(CrossbarSummary {
            name: weight.name.clone(),
            blocks: mapped.block_count(),
            adc_bits: adc.bits(),
        });
        Ok((mapped, adc))
    }

    /// Lowers `spec` starting from activations in `slot` of `shape`;
    /// returns the output (slot, shape, whether the caller may mutate the
    /// output slot in place). `mutable == false` protects `slot` — any
    /// in-place op copies to a fresh slot first — which residual blocks
    /// use to keep their join input alive across the main branch.
    fn lower(
        &mut self,
        spec: &LayerSpec<'_>,
        slot: usize,
        shape: Vec<usize>,
        mutable: bool,
    ) -> Result<(usize, Vec<usize>, bool)> {
        match spec {
            LayerSpec::Chain(children) => {
                let (mut s, mut sh, mut m) = (slot, shape, mutable);
                for child in children {
                    (s, sh, m) = self.lower(child, s, sh, m)?;
                }
                Ok((s, sh, m))
            }
            LayerSpec::Identity => Ok((slot, shape, mutable)),
            LayerSpec::Flatten => Ok((slot, vec![shape.iter().product()], mutable)),
            LayerSpec::Relu => {
                let slot = self.writable(slot, mutable);
                self.steps.push(Step::Relu { slot });
                Ok((slot, shape, true))
            }
            LayerSpec::BatchNorm2d {
                gamma,
                beta,
                running_mean,
                running_var,
                eps,
            } => {
                let [c, h, w] = expect_chw(&shape, "BatchNorm2d")?;
                if gamma.value.dims() != [c] {
                    return Err(XbarError::InvalidConfig(format!(
                        "batch-norm expects {c} channels, got {:?}",
                        gamma.value.dims()
                    )));
                }
                // Fold the eval-mode affine transform into one per-channel
                // scale/shift: y = gamma * (x - mean) * inv_std + beta.
                let (g, b) = (gamma.value.as_slice(), beta.value.as_slice());
                let (mean, var) = (running_mean.value.as_slice(), running_var.value.as_slice());
                let mut scale = Vec::with_capacity(c);
                let mut shift = Vec::with_capacity(c);
                for ci in 0..c {
                    let inv_std = 1.0 / (var[ci] + eps).sqrt();
                    scale.push(g[ci] * inv_std);
                    shift.push(b[ci] - mean[ci] * g[ci] * inv_std);
                }
                let slot = self.writable(slot, mutable);
                self.steps.push(Step::BatchNorm {
                    slot,
                    plane: h * w,
                    scale,
                    shift,
                });
                Ok((slot, shape, true))
            }
            LayerSpec::Conv2d {
                weight,
                bias,
                stride,
                padding,
            } => {
                let [c, h, w] = expect_chw(&shape, "Conv2d")?;
                let &[f, wc, kh, kw] = weight.value.dims() else {
                    return Err(XbarError::InvalidConfig(format!(
                        "conv weight must be [f, c, kh, kw], got {:?}",
                        weight.value.dims()
                    )));
                };
                if wc != c {
                    return Err(XbarError::InvalidConfig(format!(
                        "conv '{}' expects {wc} input channels, activations have {c}",
                        weight.name
                    )));
                }
                let geometry = Conv2dGeometry::new(c, h, w, kh, kw, *stride, *padding)?;
                let (mapped, adc) = self.map_weight(weight)?;
                check_matrix_dims(&mapped, geometry.patch_len(), f, &weight.name)?;
                let bias = bias_vec(*bias, f)?;
                let out_slot = self.alloc_slot();
                let out_shape = vec![f, geometry.out_h, geometry.out_w];
                self.steps.push(Step::Conv {
                    step: Box::new(CrossbarStep {
                        mapped,
                        adc,
                        bias,
                        in_slot: slot,
                        out_slot,
                    }),
                    geometry,
                });
                Ok((out_slot, out_shape, true))
            }
            LayerSpec::Linear { weight, bias } => {
                let &[out_f, in_f] = weight.value.dims() else {
                    return Err(XbarError::InvalidConfig(format!(
                        "linear weight must be [out, in], got {:?}",
                        weight.value.dims()
                    )));
                };
                if shape != [in_f] {
                    return Err(XbarError::InvalidConfig(format!(
                        "linear '{}' expects flat [{in_f}] input, activations are {shape:?} \
                         (missing Flatten/GlobalAvgPool?)",
                        weight.name
                    )));
                }
                let (mapped, adc) = self.map_weight(weight)?;
                check_matrix_dims(&mapped, in_f, out_f, &weight.name)?;
                let bias = bias_vec(*bias, out_f)?;
                let out_slot = self.alloc_slot();
                self.steps.push(Step::Linear {
                    step: Box::new(CrossbarStep {
                        mapped,
                        adc,
                        bias,
                        in_slot: slot,
                        out_slot,
                    }),
                });
                Ok((out_slot, vec![out_f], true))
            }
            LayerSpec::MaxPool2d { window } => {
                let [c, h, w] = expect_chw(&shape, "MaxPool2d")?;
                let k = *window;
                if k == 0 || h < k || w < k {
                    return Err(XbarError::InvalidConfig(format!(
                        "max-pool window {k} does not fit input {h}x{w}"
                    )));
                }
                let out_slot = self.alloc_slot();
                self.steps.push(Step::MaxPool {
                    in_slot: slot,
                    out_slot,
                    channels: c,
                    in_h: h,
                    in_w: w,
                    window: k,
                });
                Ok((out_slot, vec![c, h / k, w / k], true))
            }
            LayerSpec::GlobalAvgPool => {
                let [c, h, w] = expect_chw(&shape, "GlobalAvgPool")?;
                let out_slot = self.alloc_slot();
                self.steps.push(Step::GlobalAvgPool {
                    in_slot: slot,
                    out_slot,
                    channels: c,
                    plane: h * w,
                });
                Ok((out_slot, vec![c], true))
            }
            LayerSpec::Residual { main, shortcut } => {
                // Both branches read `slot`, so neither may mutate it.
                let (a, a_shape, _) = self.lower(main, slot, shape.clone(), false)?;
                let (b, b_shape, _) = match shortcut {
                    Some(s) => self.lower(s, slot, shape, false)?,
                    None => (slot, shape, false),
                };
                if a_shape != b_shape {
                    return Err(XbarError::InvalidConfig(format!(
                        "residual branch shapes disagree: {a_shape:?} vs {b_shape:?}"
                    )));
                }
                // The join writes into the main branch's output; if that
                // is still the protected input (degenerate identity main),
                // copy out first.
                let a = if a == slot {
                    let to = self.alloc_slot();
                    self.steps.push(Step::Copy { from: a, to });
                    to
                } else {
                    a
                };
                self.steps.push(Step::AddRelu { a, b });
                Ok((a, a_shape, true))
            }
            LayerSpec::Opaque => Err(XbarError::InvalidConfig(
                "network contains a layer the program compiler cannot lower".into(),
            )),
        }
    }
}

fn expect_chw(shape: &[usize], what: &str) -> Result<[usize; 3]> {
    match shape {
        &[c, h, w] => Ok([c, h, w]),
        _ => Err(XbarError::InvalidConfig(format!(
            "{what} expects [c, h, w] activations, got {shape:?}"
        ))),
    }
}

fn check_matrix_dims(mapped: &MappedLayer, rows: usize, cols: usize, name: &str) -> Result<()> {
    let (m_rows, m_cols) = mapped.matrix_dims();
    if m_rows != rows || m_cols != cols {
        return Err(XbarError::InvalidConfig(format!(
            "mapped matrix for '{name}' is {m_rows}x{m_cols}, datapath needs {rows}x{cols}"
        )));
    }
    Ok(())
}

fn bias_vec(bias: Option<&Param>, len: usize) -> Result<Option<Vec<f32>>> {
    match bias {
        None => Ok(None),
        Some(p) => {
            if p.value.dims() != [len] {
                return Err(XbarError::InvalidConfig(format!(
                    "bias '{}' must be [{len}], got {:?}",
                    p.name,
                    p.value.dims()
                )));
            }
            Ok(Some(p.value.as_slice().to_vec()))
        }
    }
}

/// Disjoint (source, destination) borrows of two activation slots.
fn two_slots(acts: &mut [Vec<f32>], src: usize, dst: usize) -> (&[f32], &mut Vec<f32>) {
    debug_assert_ne!(src, dst);
    if src < dst {
        let (lo, hi) = acts.split_at_mut(dst);
        (lo[src].as_slice(), &mut hi[0])
    } else {
        let (lo, hi) = acts.split_at_mut(src);
        (hi[0].as_slice(), &mut lo[dst])
    }
}

/// Stream salt splitting the negated-negative half of a differential
/// signed MVM off the positive half's noise stream (the two halves are
/// separate physical read passes, so they must not share noise).
const NEG_HALF_SALT: u64 = 0x4E4547;

/// Quantises `real` (a `rows x n_inputs` im2col-layout matrix), streams
/// it through the mapped tiles, and leaves integer outputs in `s.y`
/// (input-major); returns the total dequantisation scale. Non-negative
/// inputs take the single-pass path (bitwise identical to the per-call
/// [`crate::infer`] entry points); signed inputs run differentially.
///
/// Without a noise context, a layer whose ADC Eq. 1 proves non-clipping
/// on every tile ([`exact::licensed`], checked per call) runs the exact
/// integer GEMM; otherwise the packed bit-serial kernel runs. The two are
/// bitwise equal and charge the same modelled hardware counters. With a
/// noise context the tiles run the non-ideal kernel; the signed path
/// splits the context so the two differential halves draw from distinct
/// streams.
pub(crate) fn mvm_into(
    mapped: &MappedLayer,
    adc: &Adc,
    n_inputs: usize,
    real: &[f32],
    s: &mut StepScratch,
    ctx: Option<NoiseCtx>,
) -> Result<f32> {
    let quant = mapped.config().quant;
    let signed = !real.iter().all(|&x| x >= 0.0);
    let in_scale = if signed {
        quantize_input_signed_into(real, &quant, &mut s.codes, &mut s.neg_codes)?
    } else {
        quantize_input_codes_into(real, &quant, &mut s.codes)?
    };
    let exact = ctx.is_none() && exact::licensed(mapped, adc);
    let StepScratch {
        codes,
        neg_codes,
        batch,
        y,
        y_neg,
        ..
    } = s;
    let mut half = |codes: &[u64], ctx: Option<NoiseCtx>, y: &mut Vec<i64>| match ctx {
        None if exact => exact::matvec_codes_batch_into(mapped, codes, n_inputs, batch, y),
        None => mapped.matvec_codes_batch_into(codes, n_inputs, adc, batch, y),
        Some(c) => mapped.matvec_codes_batch_nonideal_into(codes, n_inputs, adc, &c, batch, y),
    };
    half(codes, ctx, y)?;
    if signed {
        half(neg_codes, ctx.map(|c| c.with_salt(NEG_HALF_SALT)), y_neg)?;
        for (p, n) in y.iter_mut().zip(y_neg.iter()) {
            *p -= n;
        }
    }
    Ok(mapped.weight_scale() * in_scale)
}

/// Datapath convolution into `out` (`[f, oh*ow]` channel-major), reusing
/// every buffer in `s`. Shared by [`Step::Conv`] and the thin
/// [`crate::infer::conv2d`] wrapper.
#[allow(clippy::too_many_arguments)]
pub(crate) fn conv_forward(
    mapped: &MappedLayer,
    geometry: &Conv2dGeometry,
    adc: &Adc,
    bias: Option<&[f32]>,
    input: &[f32],
    s: &mut StepScratch,
    out: &mut Vec<f32>,
    ctx: Option<NoiseCtx>,
) -> Result<()> {
    im2col_slice_into(input, geometry, &mut s.cols)?;
    let patches = geometry.patch_count();
    let scale = mvm_with_cols(mapped, adc, patches, s, ctx)?;
    let f = mapped.matrix_dims().1;
    out.clear();
    out.resize(f * patches, 0.0);
    for (p, y_row) in s.y.chunks(f).enumerate() {
        for (fi, &v) in y_row.iter().enumerate() {
            out[fi * patches + p] = v as f32 * scale;
        }
    }
    if let Some(b) = bias {
        for (fi, row) in out.chunks_mut(patches).enumerate() {
            for x in row {
                *x += b[fi];
            }
        }
    }
    Ok(())
}

/// As [`mvm_into`] but reads the real-valued matrix from `s.cols`
/// (avoiding a simultaneous borrow of two `StepScratch` fields).
fn mvm_with_cols(
    mapped: &MappedLayer,
    adc: &Adc,
    n_inputs: usize,
    s: &mut StepScratch,
    ctx: Option<NoiseCtx>,
) -> Result<f32> {
    let cols = std::mem::take(&mut s.cols);
    let result = mvm_into(mapped, adc, n_inputs, &cols, s, ctx);
    s.cols = cols;
    result
}

/// Datapath fully-connected layer into `out` (`[out_features]`), reusing
/// every buffer in `s`. Shared by [`Step::Linear`] and the thin
/// [`crate::infer::linear`] wrapper.
pub(crate) fn linear_forward(
    mapped: &MappedLayer,
    adc: &Adc,
    bias: Option<&[f32]>,
    input: &[f32],
    s: &mut StepScratch,
    out: &mut Vec<f32>,
    ctx: Option<NoiseCtx>,
) -> Result<()> {
    // A single vector is a batch of one: same memory layout either way.
    let scale = mvm_into(mapped, adc, 1, input, s, ctx)?;
    out.clear();
    out.extend(s.y.iter().map(|&v| v as f32 * scale));
    if let Some(b) = bias {
        for (x, bv) in out.iter_mut().zip(b) {
            *x += bv;
        }
    }
    Ok(())
}

impl CompiledModel {
    /// Compiles `net` (in eval mode) for the crossbar datapath under
    /// `config`: one pass of weight mapping, bit-plane packing, ADC
    /// sizing, batch-norm folding, and optional fault baking.
    ///
    /// # Errors
    ///
    /// Returns [`XbarError::InvalidConfig`] when the network contains a
    /// layer the compiler cannot lower ([`LayerSpec::Opaque`]), when
    /// layer shapes are inconsistent, or for invalid `config`s;
    /// propagates mapping errors.
    pub fn compile(net: &Network, config: XbarConfig, options: &CompileOptions) -> Result<Self> {
        let _span = tinyadc_obs::span("program.compile");
        config.validate()?;
        if let Some(policy) = &options.non_ideal {
            policy.validate()?;
        }
        let input_dims = net.input_dims().to_vec();
        let mut compiler = Compiler {
            config,
            options,
            rng: options.faults.as_ref().map(|p| SeededRng::new(p.seed)),
            steps: Vec::new(),
            n_slots: 1, // slot 0 holds the sample input
            crossbar: Vec::new(),
            fault_report: FaultReport::default(),
            remapped_columns: 0,
            unrepaired_columns: 0,
        };
        let (out_slot, out_shape, _) = compiler.lower(&net.spec(), 0, input_dims.clone(), true)?;
        if out_shape.len() != 1 {
            return Err(XbarError::InvalidConfig(format!(
                "program output must be a flat logits vector, got {out_shape:?}"
            )));
        }
        if compiler.crossbar.is_empty() {
            return Err(XbarError::InvalidConfig(
                "network has no crossbar-mappable layers".into(),
            ));
        }
        crate::obs::PROGRAM_COMPILES.inc();
        let sample_cost = modeled_sample_conversions(&compiler.steps);
        let sample_sar_cycles = modeled_sample_sar_cycles(&compiler.steps);
        Ok(Self {
            name: net.name().to_owned(),
            input_vol: input_dims.iter().product(),
            input_dims,
            output_len: out_shape[0],
            steps: compiler.steps,
            n_slots: compiler.n_slots,
            out_slot,
            config,
            crossbar: compiler.crossbar,
            fault_report: compiler.fault_report,
            remapped_columns: compiler.remapped_columns,
            unrepaired_columns: compiler.unrepaired_columns,
            sample_cost,
            sample_sar_cycles,
            non_ideal: options.non_ideal,
        })
    }

    /// Compiles a single already-mapped conv layer into a one-step
    /// program (`input [c, h, w]` → flat `[f * oh * ow]` output). Used by
    /// benches to measure compiled-reuse against per-call mapping; the
    /// caller owns any fault injection on `mapped`.
    ///
    /// # Errors
    ///
    /// Returns [`XbarError::InvalidConfig`] when `mapped` is not a conv
    /// weight or geometry and matrix dimensions disagree.
    pub fn from_conv(
        mapped: MappedLayer,
        input_dims: [usize; 3],
        stride: usize,
        padding: usize,
        adc_bits: Option<u32>,
    ) -> Result<Self> {
        let _span = tinyadc_obs::span("program.compile");
        let &[f, c, kh, kw] = mapped.param_dims() else {
            return Err(XbarError::InvalidConfig(format!(
                "from_conv needs a conv weight [f, c, kh, kw], got {:?}",
                mapped.param_dims()
            )));
        };
        let [ic, h, w] = input_dims;
        if mapped.kind() != ParamKind::ConvWeight || ic != c {
            return Err(XbarError::InvalidConfig(format!(
                "from_conv: mapped {:?} with {c} channels cannot consume [{ic}, {h}, {w}]",
                mapped.kind()
            )));
        }
        let geometry = Conv2dGeometry::new(c, h, w, kh, kw, stride, padding)?;
        check_matrix_dims(&mapped, geometry.patch_len(), f, "from_conv")?;
        let adc = Adc::new(adc_bits.unwrap_or_else(|| mapped.required_adc_bits()))?;
        let config = *mapped.config();
        let summary = CrossbarSummary {
            name: "from_conv".into(),
            blocks: mapped.block_count(),
            adc_bits: adc.bits(),
        };
        let output_len = f * geometry.patch_count();
        crate::obs::PROGRAM_COMPILES.inc();
        let steps = vec![Step::Conv {
            step: Box::new(CrossbarStep {
                mapped,
                adc,
                bias: None,
                in_slot: 0,
                out_slot: 1,
            }),
            geometry,
        }];
        let sample_cost = modeled_sample_conversions(&steps);
        let sample_sar_cycles = modeled_sample_sar_cycles(&steps);
        Ok(Self {
            name: "from_conv".into(),
            input_dims: input_dims.to_vec(),
            input_vol: c * h * w,
            output_len,
            steps,
            n_slots: 2,
            out_slot: 1,
            config,
            crossbar: vec![summary],
            fault_report: FaultReport::default(),
            remapped_columns: 0,
            unrepaired_columns: 0,
            sample_cost,
            sample_sar_cycles,
            non_ideal: None,
        })
    }

    /// Reassembles a model from snapshot-decoded parts. The modeled
    /// sample costs are recomputed from the steps (they are pure
    /// functions of the mapped shapes and ADC programme), so a loaded
    /// model prices batches identically to the instance that was saved.
    ///
    /// # Errors
    ///
    /// Returns [`XbarError::InvalidConfig`] when the parts are internally
    /// inconsistent (a step references a slot outside `n_slots`, or the
    /// program has no crossbar steps).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        name: String,
        input_dims: Vec<usize>,
        output_len: usize,
        steps: Vec<Step>,
        n_slots: usize,
        out_slot: usize,
        config: XbarConfig,
        crossbar: Vec<CrossbarSummary>,
        fault_report: FaultReport,
        remapped_columns: usize,
        unrepaired_columns: usize,
        non_ideal: Option<NonIdealPolicy>,
    ) -> Result<Self> {
        config.validate()?;
        if let Some(p) = &non_ideal {
            p.validate()?;
        }
        if crossbar.is_empty() {
            return Err(XbarError::InvalidConfig(
                "snapshot program has no crossbar layers".into(),
            ));
        }
        let slot_ok = |s: usize| s < n_slots;
        for step in &steps {
            let ok = match step {
                Step::Copy { from, to } => slot_ok(*from) && slot_ok(*to),
                Step::Conv { step, .. } | Step::Linear { step } => {
                    slot_ok(step.in_slot) && slot_ok(step.out_slot)
                }
                Step::Relu { slot } | Step::BatchNorm { slot, .. } => slot_ok(*slot),
                Step::MaxPool {
                    in_slot, out_slot, ..
                }
                | Step::GlobalAvgPool {
                    in_slot, out_slot, ..
                } => slot_ok(*in_slot) && slot_ok(*out_slot),
                Step::AddRelu { a, b } => slot_ok(*a) && slot_ok(*b),
            };
            if !ok {
                return Err(XbarError::InvalidConfig(format!(
                    "snapshot step references a slot outside 0..{n_slots}"
                )));
            }
        }
        if !slot_ok(out_slot) {
            return Err(XbarError::InvalidConfig(format!(
                "snapshot output slot {out_slot} outside 0..{n_slots}"
            )));
        }
        let sample_cost = modeled_sample_conversions(&steps);
        let sample_sar_cycles = modeled_sample_sar_cycles(&steps);
        Ok(Self {
            name,
            input_vol: input_dims.iter().product(),
            input_dims,
            output_len,
            steps,
            n_slots,
            out_slot,
            config,
            crossbar,
            fault_report,
            remapped_columns,
            unrepaired_columns,
            sample_cost,
            sample_sar_cycles,
            non_ideal,
        })
    }

    /// The step program, for the snapshot codec.
    pub(crate) fn steps(&self) -> &[Step] {
        &self.steps
    }

    /// The output slot index, for the snapshot codec.
    pub(crate) fn out_slot(&self) -> usize {
        self.out_slot
    }

    /// Per-sample input shape.
    pub fn input_dims(&self) -> &[usize] {
        &self.input_dims
    }

    /// Length of the flat output vector (the class count for networks).
    pub fn output_len(&self) -> usize {
        self.output_len
    }

    /// Source network name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of program steps.
    pub fn step_count(&self) -> usize {
        self.steps.len()
    }

    /// Number of activation slots a workspace holds for this program.
    pub fn slot_count(&self) -> usize {
        self.n_slots
    }

    /// The crossbar configuration the program was compiled for.
    pub fn config(&self) -> &XbarConfig {
        &self.config
    }

    /// Per-layer crossbar summaries, in execution order.
    pub fn crossbar_layers(&self) -> &[CrossbarSummary] {
        &self.crossbar
    }

    /// Total crossbar blocks across all layers.
    pub fn total_blocks(&self) -> usize {
        self.crossbar.iter().map(|l| l.blocks).sum()
    }

    /// Largest per-layer ADC resolution in the program.
    pub fn max_adc_bits(&self) -> u32 {
        self.crossbar.iter().map(|l| l.adc_bits).max().unwrap_or(0)
    }

    /// Faults baked in at compile time (all zeros without a policy).
    pub fn fault_report(&self) -> &FaultReport {
        &self.fault_report
    }

    /// Columns rerouted to spares at compile time.
    pub fn remapped_columns(&self) -> usize {
        self.remapped_columns
    }

    /// Harmful-fault columns left unrepaired at compile time.
    pub fn unrepaired_columns(&self) -> usize {
        self.unrepaired_columns
    }

    /// The device non-ideality policy this instance runs under.
    pub fn non_ideal(&self) -> Option<&NonIdealPolicy> {
        self.non_ideal.as_ref()
    }

    /// Installs (or clears, with `None`) the per-instance non-ideality
    /// policy without recompiling: the programmed tiles are untouched,
    /// only run-time reads change. The health monitor uses this to probe
    /// one instance under different stress levels.
    ///
    /// # Errors
    ///
    /// Returns [`XbarError::InvalidConfig`] when the policy holds a
    /// negative or non-finite value; the previous policy stays installed.
    pub fn set_non_ideal(&mut self, policy: Option<NonIdealPolicy>) -> Result<()> {
        if let Some(p) = &policy {
            p.validate()?;
        }
        self.non_ideal = policy;
        Ok(())
    }

    /// Modeled ADC conversions one sample performs — the static cost the
    /// batch scheduler autotunes its grain from, and the value the
    /// `xbar.adc.conversions` counter grows by per sample at run time.
    pub fn sample_conversions(&self) -> u64 {
        self.sample_cost
    }

    /// Modeled SAR ADC cycles one sample performs (conversions × per-step
    /// ADC bits). This is the quantity the serving layer prices virtual
    /// service time from: CP pruning leaves the conversion count alone
    /// (the ADC still samples every column) but shrinks the resolved bits
    /// per conversion, so a CP-compiled program serves the same request in
    /// proportionally fewer cycles.
    pub fn sample_sar_cycles(&self) -> u64 {
        self.sample_sar_cycles
    }

    /// Samples per pool task for [`Self::run_batch`]: enough samples that
    /// one task carries ~2 M modeled conversions, so pool dispatch is
    /// amortised for feather-light programs, while any sample at or above
    /// the budget gets a task of its own (maximum fan-out for real CNNs).
    /// Derived from the compile-time cost and `n` only — never from the
    /// thread count — so chunk boundaries, and therefore results, are
    /// identical on every pool size.
    fn batch_grain(&self, n: usize) -> usize {
        const CONVERSIONS_PER_TASK: u64 = 1 << 21;
        let per_task =
            usize::try_from(CONVERSIONS_PER_TASK / self.sample_cost).unwrap_or(usize::MAX);
        per_task.clamp(1, n.max(1))
    }

    /// Runs one sample through the program, returning its flat output
    /// (borrowed from the workspace — no allocation in steady state).
    ///
    /// # Errors
    ///
    /// Returns [`XbarError::InvalidConfig`] for wrong input shape;
    /// propagates step errors.
    pub fn run<'w>(&self, input: &Tensor, ws: &'w mut Workspace) -> Result<&'w [f32]> {
        let _span = tinyadc_obs::span("program.run");
        if input.dims() != self.input_dims {
            return Err(XbarError::InvalidConfig(format!(
                "program input must be {:?}, got {:?}",
                self.input_dims,
                input.dims()
            )));
        }
        self.exec(input.as_slice(), ws, 0)?;
        crate::obs::WORKSPACE_BYTES.set(ws.bytes() as f64);
        Ok(&ws.acts[self.out_slot])
    }

    /// Runs a batch `[n, ...input_dims]` through the program, fanning
    /// samples out across `tinyadc-par` workers (one workspace each) and
    /// gathering `[n, output_len]` outputs. Results are bitwise invariant
    /// under the worker-thread count.
    ///
    /// # Errors
    ///
    /// As [`Self::run`]; the first failing sample's error (in sample
    /// order) is returned.
    pub fn run_batch(&self, inputs: &Tensor, ws: &mut BatchWorkspace) -> Result<Tensor> {
        let mut out = Vec::new();
        self.run_batch_into(inputs, ws, &mut out)?;
        let n = out.len() / self.output_len.max(1);
        Ok(Tensor::from_vec(out, &[n, self.output_len])?)
    }

    /// As [`Self::run_batch`], writing the flat `[n * output_len]`
    /// outputs into `out` (capacity reused — the zero-allocation batch
    /// entry point).
    ///
    /// # Errors
    ///
    /// As [`Self::run_batch`].
    pub fn run_batch_into(
        &self,
        inputs: &Tensor,
        ws: &mut BatchWorkspace,
        out: &mut Vec<f32>,
    ) -> Result<()> {
        let dims = inputs.dims();
        if dims.len() != self.input_dims.len() + 1 || dims[1..] != self.input_dims[..] {
            return Err(XbarError::InvalidConfig(format!(
                "batch input must be [n{}], got {dims:?}",
                self.input_dims
                    .iter()
                    .map(|d| format!(", {d}"))
                    .collect::<String>()
            )));
        }
        self.run_packed_into(inputs.as_slice(), ws, out)
    }

    /// As [`Self::run_batch_into`], but taking the batch as a flat shared
    /// input pack (`n × input_vol` floats, sample-major) instead of a
    /// [`Tensor`] — the serving front-end's batch-assembly entry point.
    /// A flush copies queued request payloads into one reusable pack and
    /// runs them here as a single fan-out, so steady-state serving never
    /// constructs a tensor (no allocation). `n` is inferred from the pack
    /// length; results are bitwise identical to [`Self::run_batch_into`]
    /// on the same samples.
    ///
    /// # Errors
    ///
    /// Returns [`XbarError::InvalidConfig`] when the pack length is not a
    /// multiple of the per-sample input volume; otherwise as
    /// [`Self::run_batch`].
    pub fn run_packed_into(
        &self,
        pack: &[f32],
        ws: &mut BatchWorkspace,
        out: &mut Vec<f32>,
    ) -> Result<()> {
        let _span = tinyadc_obs::span("program.run");
        let vol = self.input_vol;
        if vol == 0 || !pack.len().is_multiple_of(vol) {
            return Err(XbarError::InvalidConfig(format!(
                "input pack of {} floats is not a multiple of the sample volume {vol}",
                pack.len()
            )));
        }
        let n = pack.len() / vol;
        if ws.samples.len() < n {
            ws.samples.resize_with(n, Workspace::default);
        }
        // One workspace per sample; chunk boundaries depend only on `n`
        // and the compile-time sample cost, and per-sample execution is
        // exact integer arithmetic, so the gathered outputs are bitwise
        // thread-count-invariant. Nested parallelism inside the tiles
        // degrades to serial in workers.
        let grain = self.batch_grain(n);
        tinyadc_par::for_each_chunk_mut(&mut ws.samples[..n], grain, |chunk, block| {
            for (k, sample) in block.iter_mut().enumerate() {
                let i = chunk * grain + k;
                sample.error = self
                    .exec(&pack[i * vol..(i + 1) * vol], sample, i as u64)
                    .err();
            }
        });
        out.clear();
        for sample in &mut ws.samples[..n] {
            if let Some(e) = sample.error.take() {
                return Err(e);
            }
            out.extend_from_slice(&sample.acts[self.out_slot]);
        }
        crate::obs::WORKSPACE_BYTES.set(ws.bytes() as f64);
        Ok(())
    }

    /// As [`Self::run_batch_into`], but assembling the batch from
    /// independently-owned per-request input slices instead of one packed
    /// tensor — the serving front-end's batch-assembly entry point, which
    /// lets queued requests run as one fan-out without first copying them
    /// into a contiguous staging tensor. Outputs land in request order;
    /// results are bitwise identical to packing the same slices into a
    /// tensor and calling [`Self::run_batch_into`].
    ///
    /// # Errors
    ///
    /// Returns [`XbarError::InvalidConfig`] when any slice's length is
    /// not the per-sample input volume; otherwise as [`Self::run_batch`].
    pub fn run_gather_into(
        &self,
        inputs: &[&[f32]],
        ws: &mut BatchWorkspace,
        out: &mut Vec<f32>,
    ) -> Result<()> {
        let _span = tinyadc_obs::span("program.run");
        let vol = self.input_vol;
        for (i, x) in inputs.iter().enumerate() {
            if x.len() != vol {
                return Err(XbarError::InvalidConfig(format!(
                    "gather input {i} has {} elements, program needs {vol}",
                    x.len()
                )));
            }
        }
        let n = inputs.len();
        if ws.samples.len() < n {
            ws.samples.resize_with(n, Workspace::default);
        }
        // Same determinism argument as run_batch_into: the grain depends
        // only on `n` and compile-time cost, and each sample's noise
        // stream is keyed by its batch-global index, not its worker.
        let grain = self.batch_grain(n);
        tinyadc_par::for_each_chunk_mut(&mut ws.samples[..n], grain, |chunk, block| {
            for (k, sample) in block.iter_mut().enumerate() {
                let i = chunk * grain + k;
                sample.error = self.exec(inputs[i], sample, i as u64).err();
            }
        });
        out.clear();
        for sample in &mut ws.samples[..n] {
            if let Some(e) = sample.error.take() {
                return Err(e);
            }
            out.extend_from_slice(&sample.acts[self.out_slot]);
        }
        crate::obs::WORKSPACE_BYTES.set(ws.bytes() as f64);
        Ok(())
    }

    /// Executes the step program for one sample (no spans/gauges — safe
    /// inside parallel workers). `sample` is the batch-global sample
    /// index; together with the step index it selects the non-ideal
    /// noise stream, so results do not depend on which worker ran the
    /// sample.
    fn exec(&self, input: &[f32], ws: &mut Workspace, sample: u64) -> Result<()> {
        crate::obs::PROGRAM_RUNS.inc();
        if ws.acts.len() < self.n_slots {
            ws.acts.resize(self.n_slots, Vec::new());
        }
        let slot0 = &mut ws.acts[0];
        slot0.clear();
        slot0.extend_from_slice(input);
        for (idx, step) in self.steps.iter().enumerate() {
            let ctx = match step {
                Step::Conv { .. } | Step::Linear { .. } => self
                    .non_ideal
                    .as_ref()
                    .map(|p| NoiseCtx::from_policy(p, idx as u64, sample)),
                _ => None,
            };
            Self::exec_step(step, ws, ctx)?;
        }
        Ok(())
    }

    fn exec_step(step: &Step, ws: &mut Workspace, ctx: Option<NoiseCtx>) -> Result<()> {
        let Workspace {
            step: scratch,
            acts,
            ..
        } = ws;
        match step {
            Step::Copy { from, to } => {
                let (src, dst) = two_slots(acts, *from, *to);
                dst.clear();
                dst.extend_from_slice(src);
            }
            Step::Conv { step, geometry } => {
                let (src, dst) = two_slots(acts, step.in_slot, step.out_slot);
                conv_forward(
                    &step.mapped,
                    geometry,
                    &step.adc,
                    step.bias.as_deref(),
                    src,
                    scratch,
                    dst,
                    ctx,
                )?;
            }
            Step::Linear { step } => {
                let (src, dst) = two_slots(acts, step.in_slot, step.out_slot);
                linear_forward(
                    &step.mapped,
                    &step.adc,
                    step.bias.as_deref(),
                    src,
                    scratch,
                    dst,
                    ctx,
                )?;
            }
            Step::Relu { slot } => {
                for x in acts[*slot].iter_mut() {
                    *x = x.max(0.0);
                }
            }
            Step::BatchNorm {
                slot,
                plane,
                scale,
                shift,
            } => {
                for (ci, chunk) in acts[*slot].chunks_mut(*plane).enumerate() {
                    let (s, b) = (scale[ci], shift[ci]);
                    for x in chunk {
                        *x = *x * s + b;
                    }
                }
            }
            Step::MaxPool {
                in_slot,
                out_slot,
                channels,
                in_h,
                in_w,
                window,
            } => {
                let (src, dst) = two_slots(acts, *in_slot, *out_slot);
                let (k, h, w) = (*window, *in_h, *in_w);
                let (oh, ow) = (h / k, w / k);
                dst.clear();
                dst.resize(channels * oh * ow, 0.0);
                for ci in 0..*channels {
                    for oy in 0..oh {
                        for ox in 0..ow {
                            let mut m = f32::NEG_INFINITY;
                            for ky in 0..k {
                                for kx in 0..k {
                                    m = m.max(src[(ci * h + oy * k + ky) * w + ox * k + kx]);
                                }
                            }
                            dst[(ci * oh + oy) * ow + ox] = m;
                        }
                    }
                }
            }
            Step::GlobalAvgPool {
                in_slot,
                out_slot,
                channels,
                plane,
            } => {
                let (src, dst) = two_slots(acts, *in_slot, *out_slot);
                dst.clear();
                dst.extend(
                    src.chunks(*plane)
                        .take(*channels)
                        .map(|ch| ch.iter().sum::<f32>() / *plane as f32),
                );
            }
            Step::AddRelu { a, b } => {
                if a == b {
                    for x in acts[*a].iter_mut() {
                        *x = (*x + *x).max(0.0);
                    }
                } else {
                    let (src, dst) = two_slots(acts, *b, *a);
                    for (x, s) in dst.iter_mut().zip(src) {
                        *x = (*x + s).max(0.0);
                    }
                }
            }
        }
        Ok(())
    }
}
