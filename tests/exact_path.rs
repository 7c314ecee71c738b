//! Equivalence matrix for the exact integer path that Eq. 1 licenses.
//!
//! When a layer's ADC resolves the worst-case column sum of every tile's
//! activated rows, the compiled program replaces the bit-serial packed
//! kernel by an integer GEMM of input codes against signed weight codes.
//! The claim is *bitwise identity* with the reference loop
//! (`Tile::matvec_loop`) and the packed batch kernel
//! (`MappedLayer::matvec_codes_batch`), with every modelled hardware
//! counter charged identically and no saturation. These tests pin that
//! over the `tests/packed_equivalence.rs` shape × DAC × cell matrix at
//! 1/2/4/7 threads, and pin the fallbacks: an ADC one bit below the proof,
//! a baked fault that lifts activated rows past the ADC, and an identity
//! non-ideal policy all run the packed kernels.
//!
//! The metrics registry and the thread count are process-global, so the
//! tests in this binary serialise on a mutex.

use std::sync::Mutex;
use tinyadc_nn::ParamKind;
use tinyadc_prune::CrossbarShape;
use tinyadc_tensor::rng::SeededRng;
use tinyadc_tensor::Tensor;
use tinyadc_xbar::adc::{required_adc_bits_exact, Adc};
use tinyadc_xbar::cell::CellConfig;
use tinyadc_xbar::fault::{CellFault, LayerFaultMap, StuckAt, TileFaultMap};
use tinyadc_xbar::mapping::MappedLayer;
use tinyadc_xbar::noise::NonIdealPolicy;
use tinyadc_xbar::program::{CompiledModel, Workspace};
use tinyadc_xbar::quant::QuantConfig;
use tinyadc_xbar::tile::XbarConfig;

static GLOBAL: Mutex<()> = Mutex::new(());

const SHAPES: [(usize, usize); 4] = [(1, 1), (7, 3), (64, 64), (128, 128)];
const DAC_BITS: [u32; 3] = [1, 2, 4];
const CELL_BITS: [u32; 3] = [1, 2, 3];
const THREADS: [usize; 4] = [1, 2, 4, 7];

/// The modelled hardware counters both paths must charge identically.
const COUNTERS: [&str; 6] = [
    "xbar.matvecs",
    "xbar.adc.conversions",
    "xbar.dac.events",
    "xbar.column.reads",
    "xbar.shift_adds",
    "xbar.adc.saturations",
];
const ROWS_ACTIVATED_EDGES: [u64; 8] = [1, 2, 4, 8, 16, 32, 64, 128];

fn config(rows: usize, cols: usize, dac: u32, cell_bits: u32) -> XbarConfig {
    XbarConfig {
        shape: CrossbarShape::new(rows, cols).unwrap(),
        cell: CellConfig {
            bits_per_cell: cell_bits,
        },
        quant: QuantConfig {
            weight_bits: 8,
            input_bits: 8,
        },
        dac_bits: dac,
    }
}

/// Seeded codes in [-127, 127] with an all-zero row and column forced
/// (as in `tests/packed_equivalence.rs`), and code 127 at (0, 0) so the
/// weight scale is exactly 1 and the mapped codes are these codes.
fn random_codes(rows: usize, cols: usize, rng: &mut SeededRng) -> Vec<i64> {
    let mut codes: Vec<i64> = (0..rows * cols)
        .map(|_| rng.sample_range_inclusive(-127, 127) as i64)
        .collect();
    if rows > 2 && cols > 2 {
        let (zr, zc) = (rows / 2, cols / 2);
        for c in 0..cols {
            codes[zr * cols + c] = 0;
        }
        for r in 0..rows {
            codes[r * cols + zc] = 0;
        }
    }
    codes[0] = 127;
    codes
}

/// Maps `codes` (row-major `rows × cols`) as a 1×1 conv weight
/// `[cols, rows, 1, 1]`, whose crossbar matrix is exactly `codes`.
fn map_codes(codes: &[i64], rows: usize, cols: usize, cfg: XbarConfig) -> MappedLayer {
    let mut w = vec![0.0f32; rows * cols];
    for r in 0..rows {
        for j in 0..cols {
            w[j * rows + r] = codes[r * cols + j] as f32;
        }
    }
    let w = Tensor::from_vec(w, &[cols, rows, 1, 1]).unwrap();
    let mapped = MappedLayer::from_param(&w, ParamKind::ConvWeight, cfg).unwrap();
    assert_eq!(mapped.weight_scale(), 1.0);
    assert_eq!(mapped.quantized().codes, codes);
    mapped
}

/// Input code vectors: seeded random with a forced zero, all-zero,
/// all-maximal, and ~70 %-zero post-ReLU-like. The all-maximal vector
/// pins the input quantisation scale at exactly 1.
fn test_inputs(rows: usize, rng: &mut SeededRng) -> Vec<Vec<u64>> {
    let mut random: Vec<u64> = (0..rows).map(|_| rng.next_u64() % 256).collect();
    random[rows / 2] = 0;
    let relu70 = (0..rows)
        .map(|_| {
            if rng.next_u64() % 10 < 7 {
                0
            } else {
                1 + rng.next_u64() % 255
            }
        })
        .collect();
    vec![random, vec![0u64; rows], vec![255u64; rows], relu70]
}

/// im2col batch layout, `(r, i) -> r * n + i`.
fn to_batch(inputs: &[Vec<u64>], rows: usize) -> Vec<u64> {
    let n = inputs.len();
    let mut batch = vec![0u64; rows * n];
    for (i, input) in inputs.iter().enumerate() {
        for (r, &x) in input.iter().enumerate() {
            batch[r * n + i] = x;
        }
    }
    batch
}

/// The 1×1 conv program input `[rows, 1, n]` whose im2col matrix is the
/// batch of code vectors (the quantisation scale is 1, see
/// [`test_inputs`]).
fn program_input(inputs: &[Vec<u64>], rows: usize) -> Tensor {
    let batch = to_batch(inputs, rows);
    let real = batch.iter().map(|&x| x as f32).collect();
    Tensor::from_vec(real, &[rows, 1, inputs.len()]).unwrap()
}

/// Counter values, then the rows-activated histogram (buckets, sum).
fn snapshot() -> Vec<u64> {
    let mut v: Vec<u64> = COUNTERS
        .iter()
        .map(|n| tinyadc_obs::counter(n).get())
        .collect();
    let h = tinyadc_obs::histogram("xbar.rows.activated", &ROWS_ACTIVATED_EDGES);
    v.extend(h.counts());
    v.push(h.sum());
    v
}

fn exact_mvms() -> u64 {
    tinyadc_obs::counter("xbar.exact.mvms").get()
}

/// Runs `f` and returns the deltas of [`snapshot`] and of
/// `xbar.exact.mvms` it caused.
fn deltas<T>(f: impl FnOnce() -> T) -> (T, Vec<u64>, u64) {
    let (before, exact_before) = (snapshot(), exact_mvms());
    let out = f();
    let after = snapshot();
    let d = after.iter().zip(&before).map(|(a, b)| a - b).collect();
    (out, d, exact_mvms() - exact_before)
}

/// One run of the compiled program; output bits in `[n, cols]`
/// (input-major) order, like the integer references.
fn run_program(model: &CompiledModel, input: &Tensor, n: usize, cols: usize) -> Vec<u32> {
    let mut ws = Workspace::new();
    let out = model.run(input, &mut ws).unwrap();
    (0..n * cols)
        .map(|f| out[(f % cols) * n + f / cols].to_bits())
        .collect()
}

fn as_bits(y: &[i64]) -> Vec<u32> {
    y.iter().map(|&v| (v as f32).to_bits()).collect()
}

#[test]
fn exact_path_equals_loop_and_packed_across_the_matrix() {
    let _guard = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut below_saturations = 0u64;
    for &(rows, cols) in &SHAPES {
        for &dac in &DAC_BITS {
            for &cell_bits in &CELL_BITS {
                let ctx = format!("{rows}x{cols} dac={dac} cell={cell_bits}");
                let mut rng =
                    SeededRng::new(rows as u64 * 1000 + dac as u64 * 10 + cell_bits as u64);
                let cfg = config(rows, cols, dac, cell_bits);
                let codes = random_codes(rows, cols, &mut rng);
                let inputs = test_inputs(rows, &mut rng);
                let (n, batch, x) = (
                    inputs.len(),
                    to_batch(&inputs, rows),
                    program_input(&inputs, rows),
                );

                let mapped = map_codes(&codes, rows, cols, cfg);
                let tile = &mapped.tiles()[0];
                let proof = required_adc_bits_exact(dac, cell_bits, tile.activated_rows().max(1));
                let adc = Adc::new(proof).unwrap();
                let looped: Vec<i64> = inputs
                    .iter()
                    .flat_map(|x| tile.matvec_loop(x, &adc).unwrap())
                    .collect();
                let (packed, packed_d, packed_exact) =
                    deltas(|| mapped.matvec_codes_batch(&batch, n, &adc).unwrap());
                assert_eq!(packed, looped, "{ctx}: packed vs loop");
                assert_eq!(
                    packed_exact, 0,
                    "{ctx}: the public batch entry point ran exact"
                );

                // ADC exactly at the proof: the compiled step runs exact.
                let model =
                    CompiledModel::from_conv(mapped.clone(), [rows, 1, n], 1, 0, Some(proof))
                        .unwrap();
                for &t in &THREADS {
                    tinyadc_par::set_threads_exact(t);
                    let (out, d, exact) = deltas(|| run_program(&model, &x, n, cols));
                    assert_eq!(out, as_bits(&looped), "{ctx} threads={t}: exact vs loop");
                    assert_eq!(d, packed_d, "{ctx} threads={t}: counter deltas");
                    assert_eq!(d[5], 0, "{ctx} threads={t}: saturations");
                    assert_eq!(exact, d[0], "{ctx} threads={t}: every MVM ran exact");
                }
                tinyadc_par::set_threads(0);

                // One bit below the proof: the packed kernel runs and
                // charges (possibly non-zero) saturations.
                if proof > 1 {
                    let low = Adc::new(proof - 1).unwrap();
                    let looped_low: Vec<i64> = inputs
                        .iter()
                        .flat_map(|x| tile.matvec_loop(x, &low).unwrap())
                        .collect();
                    let (_, packed_low_d, _) =
                        deltas(|| mapped.matvec_codes_batch(&batch, n, &low).unwrap());
                    let model_low = CompiledModel::from_conv(
                        mapped.clone(),
                        [rows, 1, n],
                        1,
                        0,
                        Some(proof - 1),
                    )
                    .unwrap();
                    let (out, d, exact) = deltas(|| run_program(&model_low, &x, n, cols));
                    assert_eq!(out, as_bits(&looped_low), "{ctx}: below-proof vs loop");
                    assert_eq!(d, packed_low_d, "{ctx}: below-proof counter deltas");
                    assert_eq!(exact, 0, "{ctx}: below-proof ran exact");
                    below_saturations += d[5];
                }
            }
        }
    }
    assert!(
        below_saturations > 0,
        "no below-proof ADC saturated — the fallback was never exercised"
    );
}

#[test]
fn signed_inputs_run_both_differential_halves_exactly() {
    let _guard = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    let (rows, cols) = (64, 24);
    let mut rng = SeededRng::new(4242);
    let cfg = config(rows, cols, 1, 2);
    let mapped = map_codes(&random_codes(rows, cols, &mut rng), rows, cols, cfg);
    let proof = required_adc_bits_exact(1, 2, mapped.tiles()[0].activated_rows());
    // A raw (pre-ReLU) input: the compiled step streams the positive and
    // the negated-negative halves separately.
    let x = Tensor::uniform(&[rows, 3, 3], -1.0, 1.0, &mut rng);
    let exact_model =
        CompiledModel::from_conv(mapped.clone(), [rows, 3, 3], 1, 0, Some(proof)).unwrap();
    let mut reference = CompiledModel::from_conv(mapped, [rows, 3, 3], 1, 0, Some(proof)).unwrap();
    reference
        .set_non_ideal(Some(NonIdealPolicy::ideal(1)))
        .unwrap();
    let run = |m: &CompiledModel| -> Vec<u32> {
        let mut ws = Workspace::new();
        m.run(&x, &mut ws)
            .unwrap()
            .iter()
            .map(|v| v.to_bits())
            .collect()
    };
    let (exact_out, exact_d, exact_n) = deltas(|| run(&exact_model));
    let (packed_out, packed_d, packed_n) = deltas(|| run(&reference));
    assert_eq!(exact_out, packed_out);
    assert_eq!(exact_d, packed_d);
    assert_eq!(exact_n, 2 * 9, "two halves × 9 patches");
    assert_eq!(packed_n, 0);
}

#[test]
fn faults_keep_or_revoke_the_licence_by_activated_rows() {
    let _guard = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    // A column-proportionally sparse 64×16 tile: 4 non-zero rows per
    // column, so Eq. 1 sizes a 4-bit ADC (1-bit DAC, 2-bit cells).
    let (rows, cols) = (64, 16);
    let cfg = config(rows, cols, 1, 2);
    let mut rng = SeededRng::new(9);
    let mut codes = vec![0i64; rows * cols];
    for j in 0..cols {
        for k in 0..4 {
            codes[(j + 16 * k) * cols + j] = rng.sample_range_inclusive(1, 127) as i64;
        }
    }
    codes[0] = 127;
    let clean = map_codes(&codes, rows, cols, cfg);
    assert_eq!(clean.tiles()[0].activated_rows(), 4);
    let bits = required_adc_bits_exact(1, 2, 4);
    let inputs = vec![
        vec![255u64; rows],
        (0..rows as u64).map(|r| r * 3 % 256).collect(),
    ];
    let (n, x) = (inputs.len(), program_input(&inputs, rows));

    let faulted = |faults: Vec<CellFault>| {
        let mut layer = clean.clone();
        LayerFaultMap::from_tiles(vec![TileFaultMap::from_faults(rows, cols, faults)])
            .apply(&mut layer);
        layer
    };
    // SA1 on the high slice of 8 zero cells in column 1: 12 activated
    // rows, beyond what the 4-bit ADC resolves.
    let lifting: Vec<CellFault> = (20..28)
        .map(|r| CellFault {
            polarity: 0,
            slice: 3,
            index: r * cols + 1,
            stuck: StuckAt::Max,
        })
        .collect();
    // SA0 on a cell of a programmed row: activated rows can only fall.
    let clearing = vec![CellFault {
        polarity: 0,
        slice: 0,
        index: cols + 1,
        stuck: StuckAt::Zero,
    }];
    for (faults, licensed) in [(lifting, false), (clearing, true)] {
        let layer = faulted(faults);
        let tile = &layer.tiles()[0];
        assert_eq!(tile.activated_rows() <= 4, licensed);
        let adc = Adc::new(bits).unwrap();
        let looped: Vec<i64> = inputs
            .iter()
            .flat_map(|x| tile.matvec_loop(x, &adc).unwrap())
            .collect();
        let model = CompiledModel::from_conv(layer, [rows, 1, n], 1, 0, Some(bits)).unwrap();
        let (out, d, exact) = deltas(|| run_program(&model, &x, n, cols));
        assert_eq!(out, as_bits(&looped), "licensed={licensed}");
        assert_eq!(exact, if licensed { d[0] } else { 0 });
        if !licensed {
            assert!(d[5] > 0, "lifted rows must saturate the 4-bit ADC");
        }
    }
}

#[test]
fn identity_non_ideal_policy_falls_back_bitwise_equal() {
    let _guard = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    let (rows, cols) = (128, 32);
    let mut rng = SeededRng::new(31);
    let cfg = config(rows, cols, 1, 2);
    let mapped = map_codes(&random_codes(rows, cols, &mut rng), rows, cols, cfg);
    let inputs = test_inputs(rows, &mut rng);
    let (n, x) = (inputs.len(), program_input(&inputs, rows));
    let mut model = CompiledModel::from_conv(mapped, [rows, 1, n], 1, 0, None).unwrap();
    let (clean, clean_d, clean_exact) = deltas(|| run_program(&model, &x, n, cols));
    assert_eq!(clean_exact, clean_d[0]);
    model.set_non_ideal(Some(NonIdealPolicy::ideal(5))).unwrap();
    let noise_before = tinyadc_obs::counter("xbar.noise.mvms").get();
    let (ideal, ideal_d, ideal_exact) = deltas(|| run_program(&model, &x, n, cols));
    assert_eq!(ideal, clean);
    assert_eq!(ideal_d, clean_d);
    assert_eq!(ideal_exact, 0);
    assert_eq!(
        tinyadc_obs::counter("xbar.noise.mvms").get() - noise_before,
        clean_d[0]
    );
}
