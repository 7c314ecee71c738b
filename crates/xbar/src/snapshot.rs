//! Exact binary persistence for compiled programs.
//!
//! Extends the `TADC` parameter-snapshot idiom of
//! `tinyadc_nn::serialize` to the compiled execution engine: a
//! [`CompiledModel`] serialises to a small, versioned, little-endian
//! `TADP` stream holding everything [`CompiledModel::compile`] produced —
//! the per-tile quantised weight codes (the packed level planes are
//! rebuilt bit-for-bit by [`Tile::new`], which is a pure function of
//! codes + config), the per-layer ADC programme, the folded bias /
//! batch-norm constants, the digital step list, and the baked fault /
//! non-ideal policy state.
//!
//! The round-trip guarantee is **exact**: `load(save(m))` produces a
//! model whose inference outputs are bitwise identical to `m`'s and
//! whose modeled hardware counters (conversions, SAR cycles, activated
//! rows…) are equal — so a serving restart can skip compilation
//! entirely and promote a loaded variant straight into a registry.
//! Pinned by `tests/registry.rs` at `TINYADC_THREADS` ∈ {1, 2, 4, 7}.
//!
//! Readers share the hardened wire helpers of
//! [`tinyadc_nn::serialize::wire`]: every header-supplied count is
//! bounded *before* any allocation and truncation surfaces as a typed
//! error naming the field, never a panic.

use crate::adc::Adc;
use crate::cell::CellConfig;
use crate::fault::FaultReport;
use crate::mapping::MappedLayer;
use crate::noise::{IrDropModel, NonIdealPolicy, ReadNoise};
use crate::program::{CompiledModel, CrossbarStep, CrossbarSummary, Step};
use crate::quant::QuantConfig;
use crate::tile::{Tile, XbarConfig};
use crate::{Result, XbarError};
use std::io::{Read, Write};
use tinyadc_nn::serialize::wire::{
    self, read_count, read_f32, read_f64, read_i64, read_string, read_u32, read_u64, read_u8,
};
use tinyadc_nn::ParamKind;
use tinyadc_prune::CrossbarShape;
use tinyadc_tensor::Conv2dGeometry;

/// Magic prefix: `TADC` is the parameter snapshot, `TADP` the program.
const MAGIC: &[u8; 4] = b"TADP";
/// Format version; bump on any layout change.
const VERSION: u32 = 1;

/// Bound on list counts a header may claim (steps, layers, dims, tiles).
const MAX_ITEMS: usize = 1 << 16;
/// Bound on per-step float constant lengths (bias, scale, shift).
const MAX_CONSTS: usize = 1 << 24;

/// Step tags on the wire.
const TAG_COPY: u8 = 0;
const TAG_CONV: u8 = 1;
const TAG_LINEAR: u8 = 2;
const TAG_RELU: u8 = 3;
const TAG_BATCH_NORM: u8 = 4;
const TAG_MAX_POOL: u8 = 5;
const TAG_GLOBAL_AVG_POOL: u8 = 6;
const TAG_ADD_RELU: u8 = 7;

impl From<wire::WireError> for XbarError {
    fn from(e: wire::WireError) -> Self {
        XbarError::InvalidConfig(format!("program snapshot read failed: {e}"))
    }
}

fn io_err(e: std::io::Error) -> XbarError {
    XbarError::InvalidConfig(format!("program snapshot write failed: {e}"))
}

// ---------------------------------------------------------------- write

fn put_u8<W: Write>(w: &mut W, v: u8) -> Result<()> {
    w.write_all(&[v]).map_err(io_err)
}

fn put_u32<W: Write>(w: &mut W, v: u32) -> Result<()> {
    w.write_all(&v.to_le_bytes()).map_err(io_err)
}

fn put_u64<W: Write>(w: &mut W, v: u64) -> Result<()> {
    w.write_all(&v.to_le_bytes()).map_err(io_err)
}

fn put_usize<W: Write>(w: &mut W, v: usize) -> Result<()> {
    put_u64(w, v as u64)
}

fn put_i64<W: Write>(w: &mut W, v: i64) -> Result<()> {
    w.write_all(&v.to_le_bytes()).map_err(io_err)
}

fn put_f32<W: Write>(w: &mut W, v: f32) -> Result<()> {
    w.write_all(&v.to_le_bytes()).map_err(io_err)
}

fn put_f64<W: Write>(w: &mut W, v: f64) -> Result<()> {
    w.write_all(&v.to_le_bytes()).map_err(io_err)
}

fn put_str<W: Write>(w: &mut W, s: &str) -> Result<()> {
    put_u32(w, s.len() as u32)?;
    w.write_all(s.as_bytes()).map_err(io_err)
}

fn put_f32s<W: Write>(w: &mut W, xs: &[f32]) -> Result<()> {
    put_u32(w, xs.len() as u32)?;
    for &x in xs {
        put_f32(w, x)?;
    }
    Ok(())
}

fn write_config<W: Write>(w: &mut W, c: &XbarConfig) -> Result<()> {
    put_u32(w, c.shape.rows() as u32)?;
    put_u32(w, c.shape.cols() as u32)?;
    put_u32(w, c.cell.bits_per_cell)?;
    put_u32(w, c.quant.weight_bits)?;
    put_u32(w, c.quant.input_bits)?;
    put_u32(w, c.dac_bits)
}

fn write_mapped<W: Write>(w: &mut W, m: &MappedLayer, model_config: &XbarConfig) -> Result<()> {
    if m.config() != model_config {
        return Err(XbarError::InvalidConfig(
            "snapshot requires every mapped layer to share the model's crossbar config".into(),
        ));
    }
    let (rows, cols) = m.matrix_dims();
    let (rb, cb) = m.block_grid();
    put_u64(w, rows as u64)?;
    put_u64(w, cols as u64)?;
    put_u32(w, rb as u32)?;
    put_u32(w, cb as u32)?;
    put_f32(w, m.weight_scale())?;
    let kind = match m.kind() {
        ParamKind::ConvWeight => 0u8,
        ParamKind::LinearWeight => 1u8,
        other => {
            return Err(XbarError::InvalidConfig(format!(
                "snapshot cannot persist a mapped {other:?}"
            )))
        }
    };
    put_u8(w, kind)?;
    put_u32(w, m.param_dims().len() as u32)?;
    for &d in m.param_dims() {
        put_u64(w, d as u64)?;
    }
    for tile in m.tiles() {
        put_u32(w, tile.rows() as u32)?;
        put_u32(w, tile.cols() as u32)?;
        // The post-fault, post-repair cell state: `Tile::codes()` reads
        // the programmed levels back exactly, so baked faults and spare
        // remaps survive the round trip.
        for code in tile.codes() {
            put_i64(w, code)?;
        }
    }
    Ok(())
}

fn write_crossbar_step<W: Write>(
    w: &mut W,
    s: &CrossbarStep,
    model_config: &XbarConfig,
) -> Result<()> {
    write_mapped(w, &s.mapped, model_config)?;
    put_u32(w, s.adc.bits())?;
    match &s.bias {
        None => put_u8(w, 0)?,
        Some(b) => {
            put_u8(w, 1)?;
            put_f32s(w, b)?;
        }
    }
    put_usize(w, s.in_slot)?;
    put_usize(w, s.out_slot)
}

fn write_step<W: Write>(w: &mut W, step: &Step, model_config: &XbarConfig) -> Result<()> {
    match step {
        Step::Copy { from, to } => {
            put_u8(w, TAG_COPY)?;
            put_usize(w, *from)?;
            put_usize(w, *to)
        }
        Step::Conv { step, geometry } => {
            put_u8(w, TAG_CONV)?;
            write_crossbar_step(w, step, model_config)?;
            // out_h/out_w are derived; Conv2dGeometry::new recomputes
            // them deterministically at load.
            for v in [
                geometry.in_channels,
                geometry.in_h,
                geometry.in_w,
                geometry.kernel_h,
                geometry.kernel_w,
                geometry.stride,
                geometry.padding,
            ] {
                put_usize(w, v)?;
            }
            Ok(())
        }
        Step::Linear { step } => {
            put_u8(w, TAG_LINEAR)?;
            write_crossbar_step(w, step, model_config)
        }
        Step::Relu { slot } => {
            put_u8(w, TAG_RELU)?;
            put_usize(w, *slot)
        }
        Step::BatchNorm {
            slot,
            plane,
            scale,
            shift,
        } => {
            put_u8(w, TAG_BATCH_NORM)?;
            put_usize(w, *slot)?;
            put_usize(w, *plane)?;
            put_f32s(w, scale)?;
            put_f32s(w, shift)
        }
        Step::MaxPool {
            in_slot,
            out_slot,
            channels,
            in_h,
            in_w,
            window,
        } => {
            put_u8(w, TAG_MAX_POOL)?;
            for v in [*in_slot, *out_slot, *channels, *in_h, *in_w, *window] {
                put_usize(w, v)?;
            }
            Ok(())
        }
        Step::GlobalAvgPool {
            in_slot,
            out_slot,
            channels,
            plane,
        } => {
            put_u8(w, TAG_GLOBAL_AVG_POOL)?;
            for v in [*in_slot, *out_slot, *channels, *plane] {
                put_usize(w, v)?;
            }
            Ok(())
        }
        Step::AddRelu { a, b } => {
            put_u8(w, TAG_ADD_RELU)?;
            put_usize(w, *a)?;
            put_usize(w, *b)
        }
    }
}

/// Writes `model` as a versioned `TADP` stream to any [`Write`] sink.
///
/// # Errors
///
/// Returns [`XbarError::InvalidConfig`] wrapping I/O failures, or when
/// the model holds state the format cannot carry (a mapped layer whose
/// config differs from the model's).
pub fn write_model<W: Write>(mut sink: W, model: &CompiledModel) -> Result<()> {
    sink.write_all(MAGIC).map_err(io_err)?;
    put_u32(&mut sink, VERSION)?;
    put_str(&mut sink, model.name())?;
    put_u32(&mut sink, model.input_dims().len() as u32)?;
    for &d in model.input_dims() {
        put_u64(&mut sink, d as u64)?;
    }
    put_usize(&mut sink, model.output_len())?;
    put_usize(&mut sink, model.slot_count())?;
    put_usize(&mut sink, model.out_slot())?;
    write_config(&mut sink, model.config())?;
    let layers = model.crossbar_layers();
    put_u32(&mut sink, layers.len() as u32)?;
    for l in layers {
        put_str(&mut sink, &l.name)?;
        put_usize(&mut sink, l.blocks)?;
        put_u32(&mut sink, l.adc_bits)?;
    }
    let fr = model.fault_report();
    for v in [fr.cells, fr.sa0, fr.sa1, fr.sa0_harmless] {
        put_usize(&mut sink, v)?;
    }
    put_usize(&mut sink, model.remapped_columns())?;
    put_usize(&mut sink, model.unrepaired_columns())?;
    match model.non_ideal() {
        None => put_u8(&mut sink, 0)?,
        Some(p) => {
            put_u8(&mut sink, 1)?;
            match &p.ir {
                None => put_u8(&mut sink, 0)?,
                Some(ir) => {
                    put_u8(&mut sink, 1)?;
                    put_f64(&mut sink, ir.wire_resistance_ohm)?;
                    put_f64(&mut sink, ir.load_conductance_s)?;
                }
            }
            match &p.noise {
                None => put_u8(&mut sink, 0)?,
                Some(n) => {
                    put_u8(&mut sink, 1)?;
                    put_f64(&mut sink, n.sigma_levels)?;
                }
            }
            put_u64(&mut sink, p.seed)?;
        }
    }
    let steps = model.steps();
    put_u32(&mut sink, steps.len() as u32)?;
    for step in steps {
        write_step(&mut sink, step, model.config())?;
    }
    Ok(())
}

// ----------------------------------------------------------------- read

fn read_usize<R: Read>(r: &mut R, what: &'static str) -> Result<usize> {
    Ok(read_u64(r, what)? as usize)
}

fn read_f32s<R: Read>(r: &mut R, what: &'static str) -> Result<Vec<f32>> {
    let n = read_count(r, what, MAX_CONSTS)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(read_f32(r, what)?);
    }
    Ok(out)
}

fn read_config<R: Read>(r: &mut R) -> Result<XbarConfig> {
    let rows = read_u32(r, "crossbar rows")? as usize;
    let cols = read_u32(r, "crossbar cols")? as usize;
    let shape = CrossbarShape::new(rows, cols)?;
    let cell = CellConfig {
        bits_per_cell: read_u32(r, "bits per cell")?,
    };
    let quant = QuantConfig {
        weight_bits: read_u32(r, "weight bits")?,
        input_bits: read_u32(r, "input bits")?,
    };
    let dac_bits = read_u32(r, "dac bits")?;
    let config = XbarConfig {
        shape,
        cell,
        quant,
        dac_bits,
    };
    config.validate()?;
    Ok(config)
}

fn read_mapped<R: Read>(r: &mut R, config: XbarConfig) -> Result<MappedLayer> {
    let matrix_rows = read_usize(r, "matrix rows")?;
    let matrix_cols = read_usize(r, "matrix cols")?;
    let row_blocks = read_count(r, "row blocks", MAX_ITEMS)?;
    let col_blocks = read_count(r, "col blocks", MAX_ITEMS)?;
    let weight_scale = read_f32(r, "weight scale")?;
    let kind = match read_u8(r, "param kind")? {
        0 => ParamKind::ConvWeight,
        1 => ParamKind::LinearWeight,
        other => {
            return Err(XbarError::InvalidConfig(format!(
                "unknown mapped-parameter kind tag {other}"
            )))
        }
    };
    let rank = read_count(r, "param rank", 8)?;
    let mut param_dims = Vec::with_capacity(rank);
    for _ in 0..rank {
        param_dims.push(read_usize(r, "param dim")?);
    }
    let n_tiles = row_blocks
        .checked_mul(col_blocks)
        .filter(|&n| n <= MAX_ITEMS)
        .ok_or_else(|| XbarError::InvalidConfig("implausible snapshot tile grid".into()))?;
    let mut tiles = Vec::with_capacity(n_tiles);
    let mut codes = Vec::new();
    for _ in 0..n_tiles {
        // Tile extents are re-validated against the crossbar shape by
        // Tile::new; the count bound here only caps the staging buffer.
        let rows = read_count(r, "tile rows", MAX_ITEMS)?;
        let cols = read_count(r, "tile cols", MAX_ITEMS)?;
        let n = rows
            .checked_mul(cols)
            .filter(|&n| n <= MAX_CONSTS)
            .ok_or_else(|| XbarError::InvalidConfig("implausible snapshot tile size".into()))?;
        codes.clear();
        codes.reserve(n);
        for _ in 0..n {
            codes.push(read_i64(r, "tile code")?);
        }
        tiles.push(Tile::new(&codes, rows, cols, config)?);
    }
    MappedLayer::from_parts(
        tiles,
        row_blocks,
        col_blocks,
        matrix_rows,
        matrix_cols,
        weight_scale,
        kind,
        param_dims,
        config,
    )
}

fn read_crossbar_step<R: Read>(r: &mut R, config: XbarConfig) -> Result<Box<CrossbarStep>> {
    let mapped = read_mapped(r, config)?;
    let adc = Adc::new(read_u32(r, "adc bits")?)?;
    let bias = match read_u8(r, "bias flag")? {
        0 => None,
        _ => Some(read_f32s(r, "bias constants")?),
    };
    let in_slot = read_usize(r, "step input slot")?;
    let out_slot = read_usize(r, "step output slot")?;
    Ok(Box::new(CrossbarStep {
        mapped,
        adc,
        bias,
        in_slot,
        out_slot,
    }))
}

fn read_step<R: Read>(r: &mut R, config: XbarConfig) -> Result<Step> {
    match read_u8(r, "step tag")? {
        TAG_COPY => Ok(Step::Copy {
            from: read_usize(r, "copy source slot")?,
            to: read_usize(r, "copy destination slot")?,
        }),
        TAG_CONV => {
            let step = read_crossbar_step(r, config)?;
            let c = read_usize(r, "conv channels")?;
            let h = read_usize(r, "conv input height")?;
            let w = read_usize(r, "conv input width")?;
            let kh = read_usize(r, "conv kernel height")?;
            let kw = read_usize(r, "conv kernel width")?;
            let stride = read_usize(r, "conv stride")?;
            let padding = read_usize(r, "conv padding")?;
            let geometry = Conv2dGeometry::new(c, h, w, kh, kw, stride, padding)?;
            Ok(Step::Conv { step, geometry })
        }
        TAG_LINEAR => Ok(Step::Linear {
            step: read_crossbar_step(r, config)?,
        }),
        TAG_RELU => Ok(Step::Relu {
            slot: read_usize(r, "relu slot")?,
        }),
        TAG_BATCH_NORM => {
            let slot = read_usize(r, "batch-norm slot")?;
            let plane = read_usize(r, "batch-norm plane")?;
            let scale = read_f32s(r, "batch-norm scale")?;
            let shift = read_f32s(r, "batch-norm shift")?;
            if scale.len() != shift.len() {
                return Err(XbarError::InvalidConfig(
                    "batch-norm scale/shift lengths disagree in snapshot".into(),
                ));
            }
            Ok(Step::BatchNorm {
                slot,
                plane,
                scale,
                shift,
            })
        }
        TAG_MAX_POOL => Ok(Step::MaxPool {
            in_slot: read_usize(r, "max-pool input slot")?,
            out_slot: read_usize(r, "max-pool output slot")?,
            channels: read_usize(r, "max-pool channels")?,
            in_h: read_usize(r, "max-pool input height")?,
            in_w: read_usize(r, "max-pool input width")?,
            window: read_usize(r, "max-pool window")?,
        }),
        TAG_GLOBAL_AVG_POOL => Ok(Step::GlobalAvgPool {
            in_slot: read_usize(r, "avg-pool input slot")?,
            out_slot: read_usize(r, "avg-pool output slot")?,
            channels: read_usize(r, "avg-pool channels")?,
            plane: read_usize(r, "avg-pool plane")?,
        }),
        TAG_ADD_RELU => Ok(Step::AddRelu {
            a: read_usize(r, "add-relu main slot")?,
            b: read_usize(r, "add-relu branch slot")?,
        }),
        other => Err(XbarError::InvalidConfig(format!(
            "unknown program step tag {other}"
        ))),
    }
}

/// Reads a compiled model back from a `TADP` stream.
///
/// # Errors
///
/// Returns [`XbarError::InvalidConfig`] for bad magic, an unsupported
/// version, truncation (typed, naming the field), implausible counts
/// (bounded before allocation), or internally inconsistent programs.
pub fn read_model<R: Read>(mut source: R) -> Result<CompiledModel> {
    let mut magic = [0u8; 4];
    wire::read_bytes(&mut source, &mut magic, "program snapshot magic").map_err(XbarError::from)?;
    if &magic != MAGIC {
        return Err(XbarError::InvalidConfig(
            "not a TADP program snapshot".into(),
        ));
    }
    let version = read_u32(&mut source, "program snapshot version")?;
    if version != VERSION {
        return Err(XbarError::InvalidConfig(format!(
            "unsupported program snapshot version {version}"
        )));
    }
    let name = read_string(&mut source, "model name", 4096)?;
    let rank = read_count(&mut source, "input rank", 8)?;
    let mut input_dims = Vec::with_capacity(rank);
    for _ in 0..rank {
        input_dims.push(read_usize(&mut source, "input dim")?);
    }
    let output_len = read_usize(&mut source, "output length")?;
    let n_slots = read_usize(&mut source, "slot count")?;
    let out_slot = read_usize(&mut source, "output slot")?;
    let config = read_config(&mut source)?;
    let n_layers = read_count(&mut source, "crossbar layer count", MAX_ITEMS)?;
    let mut crossbar = Vec::with_capacity(n_layers);
    for _ in 0..n_layers {
        crossbar.push(CrossbarSummary {
            name: read_string(&mut source, "layer name", 4096)?,
            blocks: read_usize(&mut source, "layer blocks")?,
            adc_bits: read_u32(&mut source, "layer adc bits")?,
        });
    }
    let fault_report = FaultReport {
        cells: read_usize(&mut source, "fault cells")?,
        sa0: read_usize(&mut source, "sa0 faults")?,
        sa1: read_usize(&mut source, "sa1 faults")?,
        sa0_harmless: read_usize(&mut source, "harmless sa0 faults")?,
    };
    let remapped_columns = read_usize(&mut source, "remapped columns")?;
    let unrepaired_columns = read_usize(&mut source, "unrepaired columns")?;
    let non_ideal = match read_u8(&mut source, "non-ideal flag")? {
        0 => None,
        _ => {
            let ir = match read_u8(&mut source, "ir-drop flag")? {
                0 => None,
                _ => Some(IrDropModel {
                    wire_resistance_ohm: read_f64(&mut source, "wire resistance")?,
                    load_conductance_s: read_f64(&mut source, "load conductance")?,
                }),
            };
            let noise = match read_u8(&mut source, "read-noise flag")? {
                0 => None,
                _ => Some(ReadNoise {
                    sigma_levels: read_f64(&mut source, "noise sigma")?,
                }),
            };
            let seed = read_u64(&mut source, "non-ideal seed")?;
            Some(NonIdealPolicy { ir, noise, seed })
        }
    };
    let n_steps = read_count(&mut source, "step count", MAX_ITEMS)?;
    let mut steps = Vec::with_capacity(n_steps);
    for _ in 0..n_steps {
        steps.push(read_step(&mut source, config)?);
    }
    CompiledModel::from_parts(
        name,
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
        non_ideal,
    )
}

/// Saves a compiled model to a file (buffered).
///
/// # Errors
///
/// As [`write_model`], plus file-creation failures.
pub fn save_model(model: &CompiledModel, path: &std::path::Path) -> Result<()> {
    let file = std::fs::File::create(path)
        .map_err(|e| XbarError::InvalidConfig(format!("cannot create {}: {e}", path.display())))?;
    let mut sink = std::io::BufWriter::new(file);
    write_model(&mut sink, model)?;
    sink.flush().map_err(io_err)
}

/// Loads a compiled model from a file (buffered).
///
/// # Errors
///
/// As [`read_model`], plus file-open failures.
pub fn load_model(path: &std::path::Path) -> Result<CompiledModel> {
    let file = std::fs::File::open(path)
        .map_err(|e| XbarError::InvalidConfig(format!("cannot open {}: {e}", path.display())))?;
    read_model(std::io::BufReader::new(file))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::BatchWorkspace;
    use tinyadc_tensor::rng::SeededRng;
    use tinyadc_tensor::Tensor;

    fn conv_model(adc_bits: Option<u32>) -> CompiledModel {
        let mut rng = SeededRng::new(77);
        let w = Tensor::randn(&[8, 4, 3, 3], 0.4, &mut rng);
        let mapped =
            MappedLayer::from_param(&w, ParamKind::ConvWeight, XbarConfig::paper_default())
                .unwrap();
        CompiledModel::from_conv(mapped, [4, 6, 6], 1, 1, adc_bits).unwrap()
    }

    fn outputs_bits(model: &CompiledModel, inputs: &[f32]) -> Vec<u32> {
        let mut ws = BatchWorkspace::new();
        let mut out = Vec::new();
        model.run_packed_into(inputs, &mut ws, &mut out).unwrap();
        out.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn round_trip_is_bitwise_exact() {
        let model = conv_model(Some(5));
        let mut buf = Vec::new();
        write_model(&mut buf, &model).unwrap();
        let loaded = read_model(buf.as_slice()).unwrap();

        assert_eq!(loaded.name(), model.name());
        assert_eq!(loaded.input_dims(), model.input_dims());
        assert_eq!(loaded.output_len(), model.output_len());
        assert_eq!(loaded.sample_conversions(), model.sample_conversions());
        assert_eq!(loaded.sample_sar_cycles(), model.sample_sar_cycles());
        assert_eq!(loaded.max_adc_bits(), model.max_adc_bits());
        assert_eq!(loaded.total_blocks(), model.total_blocks());

        let mut rng = SeededRng::new(3);
        let inputs = Tensor::uniform(&[3, 4 * 6 * 6], -1.0, 1.0, &mut rng);
        assert_eq!(
            outputs_bits(&loaded, inputs.as_slice()),
            outputs_bits(&model, inputs.as_slice())
        );

        // Save → load → save is byte-stable (canonical encoding).
        let mut buf2 = Vec::new();
        write_model(&mut buf2, &loaded).unwrap();
        assert_eq!(buf, buf2);
    }

    #[test]
    fn non_ideal_policy_survives_the_round_trip() {
        let mut model = conv_model(Some(6));
        model
            .set_non_ideal(Some(NonIdealPolicy {
                ir: Some(IrDropModel::with_wire_resistance(2.0).unwrap()),
                noise: Some(ReadNoise::new(0.25).unwrap()),
                seed: 99,
            }))
            .unwrap();
        let mut buf = Vec::new();
        write_model(&mut buf, &model).unwrap();
        let loaded = read_model(buf.as_slice()).unwrap();
        assert_eq!(loaded.non_ideal(), model.non_ideal());

        // Non-ideal runs draw per-(step, sample) noise streams — loaded
        // and original instances must agree bitwise there too.
        let mut rng = SeededRng::new(4);
        let inputs = Tensor::uniform(&[2, 4 * 6 * 6], 0.0, 1.0, &mut rng);
        assert_eq!(
            outputs_bits(&loaded, inputs.as_slice()),
            outputs_bits(&model, inputs.as_slice())
        );
    }

    #[test]
    fn most_negative_tile_code_is_a_typed_error() {
        // Two images that differ in exactly one tile code (0 vs 1) locate
        // that code's eight little-endian bytes; XOR-ing 0x80 into the
        // zero code's top byte makes it `i64::MIN`, whose `abs()` wraps
        // in release builds. Decoding must reject it with a typed error,
        // not panic while slicing it into cells.
        let image = |second: f32| {
            // Dense weights, so one code cannot move the ADC programme.
            let mut w = vec![1.0f32; 8 * 4 * 3 * 3];
            w[1] = second;
            let w = Tensor::from_vec(w, &[8, 4, 3, 3]).unwrap();
            let mapped =
                MappedLayer::from_param(&w, ParamKind::ConvWeight, XbarConfig::paper_default())
                    .unwrap();
            let model = CompiledModel::from_conv(mapped, [4, 6, 6], 1, 1, None).unwrap();
            let mut buf = Vec::new();
            write_model(&mut buf, &model).unwrap();
            buf
        };
        let (zero, one) = (image(0.0), image(1.0 / 127.0));
        assert_eq!(zero.len(), one.len());
        let diff: Vec<usize> = (0..zero.len()).filter(|&i| zero[i] != one[i]).collect();
        assert_eq!(diff.len(), 1, "images differ in more than one code byte");
        let mut bad = zero.clone();
        bad[diff[0] + 7] ^= 0x80;
        let err = read_model(bad.as_slice()).unwrap_err();
        assert!(matches!(err, XbarError::InvalidConfig(_)), "{err}");
        assert!(err.to_string().contains("exceeds magnitude limit"), "{err}");
    }

    #[test]
    fn corrupt_streams_are_typed_errors() {
        let model = conv_model(None);
        let mut buf = Vec::new();
        write_model(&mut buf, &model).unwrap();

        // Bad magic.
        let mut bad = buf.clone();
        bad[0] = b'X';
        assert!(read_model(bad.as_slice()).is_err());

        // Bad version.
        let mut bad = buf.clone();
        bad[4] = 9;
        assert!(read_model(bad.as_slice()).is_err());

        // Truncation at every prefix must error (never panic) with a
        // typed message.
        for cut in [5, buf.len() / 2, buf.len() - 1] {
            let err = read_model(&buf[..cut]).unwrap_err();
            let msg = err.to_string();
            assert!(
                msg.contains("snapshot") || msg.contains("truncated"),
                "untyped error at cut {cut}: {msg}"
            );
        }

        // An absurd length claim is bounded before allocation: corrupt
        // the name length field (offset 8) to u32::MAX.
        let mut bad = buf.clone();
        bad[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        let msg = read_model(bad.as_slice()).unwrap_err().to_string();
        assert!(msg.contains("exceeds bound"), "unbounded count: {msg}");
    }
}
