//! Thread-scaling, pool-dispatch and loop-vs-packed micro-benchmarks for
//! the workspace hot kernels.
//!
//! ```text
//! cargo run --release -p tinyadc-bench --bin perf [-- --quick]
//! ```
//!
//! Three families of measurements, all written to `BENCH_parallel.json`
//! in the current directory (the workspace root under `cargo run`):
//!
//! * **Thread-scaling sweep** — dense matmul, im2col convolution, CP
//!   projection, datapath conv inference, and compiled `run_batch`, each
//!   timed at 1 / 2 / 4 / 8 pool workers. Every mode's checksum is
//!   asserted bitwise equal to the serial run (the determinism contract
//!   doubles as a correctness oracle), and per-mode speedups versus one
//!   worker are recorded. `host_cores` goes into the JSON so consumers
//!   (e.g. the `scripts/check.sh` perf gate) can tell real scaling from
//!   an oversubscribed single-core container, where speedups honestly
//!   sit near 1.0×.
//! * **Pool dispatch latency** — the round-trip cost of one
//!   `for_each_chunk_mut` fan-out over the persistent pool (post + wake +
//!   drain + join) at each worker count, amortised over many dispatches.
//!   At 1 worker this is the serial fast path and reports the no-dispatch
//!   baseline.
//! * **Datapath kernel comparisons** — single-threaded loop-vs-packed
//!   `tile_matvec` on dense and CP-pruned paper-default 128×128 tiles
//!   (exercising the widened 4-plane popcount kernel), per-patch-vs-
//!   batched `datapath_conv2d`, and compile-once-vs-per-call
//!   `compiled_vs_percall`; these record algorithmic speedups
//!   independent of threading. The sparsity columns
//!   (`datapath_conv2d_relu70`, `datapath_conv2d_dense`,
//!   `run_batch_relu70`) force the packed kernel mode: occupancy-indexed
//!   dispatch vs the dense kernel on a post-ReLU-realistic ~70 %-zero
//!   activation map and on a fully dense control input — the
//!   `scripts/check.sh` sparsity gates read these. `run_batch_relu70`
//!   compiles its program one ADC bit below the Eq. 1 proof, since a
//!   clean program at or above it runs the exact integer GEMM instead of
//!   either packed kernel; `run_batch_exact` (informational) times that
//!   packed program against the Eq. 1-sized exact one.
//!   `run_batch_nonideal` times the clean compiled program (exact path)
//!   vs the same program with a non-ideal device policy attached (IR
//!   drop + read noise, packed non-ideal kernel): the steady-state
//!   overhead of degraded-mode serving.
//!
//! Pure std: `std::time::Instant`, one warmup run per mode, then
//! interleaved repeats (cancels slow machine-load drift) reporting the
//! best of N (robust to scheduling noise). The `datapath_conv2d_dense`
//! control instead reports the median of many interleaved pairs (its two
//! sides do equal work, so best-of-few readings swing with VM noise);
//! each datapath row records its statistic in `"stat"`. `--quick` cuts
//! the repeat count for CI smoke runs and writes
//! `BENCH_parallel.quick.json` so the committed full-run numbers are
//! never clobbered.

use std::time::Instant;
use tinyadc_nn::ParamKind;
use tinyadc_prune::{CpConstraint, CrossbarShape};
use tinyadc_tensor::rng::SeededRng;
use tinyadc_tensor::{im2col, Conv2dGeometry, Tensor};
use tinyadc_xbar::adc::Adc;
use tinyadc_xbar::infer::conv2d;
use tinyadc_xbar::mapping::MappedLayer;
use tinyadc_xbar::noise::{IrDropModel, NonIdealPolicy, ReadNoise};
use tinyadc_xbar::program::{BatchWorkspace, CompiledModel, Workspace};
use tinyadc_xbar::quant::quantize_input;
use tinyadc_xbar::tile::{Tile, XbarConfig};
use tinyadc_xbar::{set_packed_kernel, PackedKernel};

/// Worker counts every kernel is swept over.
const SWEEP: [usize; 4] = [1, 2, 4, 8];

/// One timed run of `f`; returns (seconds, checksum). The checksum keeps
/// the work observable so it cannot be optimised away.
fn timed<F: FnMut() -> f64>(f: &mut F) -> (f64, f64) {
    let t0 = Instant::now();
    let c = f();
    (t0.elapsed().as_secs_f64(), c)
}

/// Best-of-N seconds for one kernel at every sweep worker count.
struct SweepResult {
    name: &'static str,
    secs: [f64; SWEEP.len()],
}

impl SweepResult {
    /// Speedup of `threads` workers over one worker.
    fn speedup_at(&self, threads: usize) -> f64 {
        let k = SWEEP.iter().position(|&t| t == threads).expect("in sweep");
        speedup(self.secs[0], self.secs[k])
    }
}

struct CompareResult {
    name: &'static str,
    baseline: &'static str,
    optimized: &'static str,
    baseline_s: f64,
    optimized_s: f64,
    /// Baseline over optimized time, summarised per [`Stat`].
    speedup: f64,
    stat: Stat,
}

/// How a comparison summarises its interleaved repeats.
#[derive(Clone, Copy)]
enum Stat {
    /// Best time of each side; speedup is their ratio.
    BestOf,
    /// Median time of each side; speedup is the median of the per-pair
    /// ratios, so one lucky or unlucky repeat cannot move the gate
    /// reading it.
    MedianRatio,
}

impl Stat {
    fn label(self) -> &'static str {
        match self {
            Stat::BestOf => "best_of",
            Stat::MedianRatio => "median_ratio",
        }
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

fn speedup(slow: f64, fast: f64) -> f64 {
    if fast > 0.0 {
        slow / fast
    } else {
        f64::INFINITY
    }
}

/// Runs `f` at every sweep worker count with interleaved repeats, checks
/// all outputs agree bitwise with the 1-worker run, and keeps the best
/// time per mode.
fn bench_sweep<F: FnMut() -> f64>(name: &'static str, reps: usize, mut f: F) -> SweepResult {
    // `set_threads_exact`: the sweep deliberately oversubscribes small
    // hosts, so it must bypass the host-core clamp that plain
    // `set_threads` applies when `TINYADC_THREADS` is unset.
    tinyadc_par::set_threads_exact(1);
    let reference = f();
    // Warm caches/allocator/pool in every mode, verifying determinism.
    for &t in &SWEEP {
        tinyadc_par::set_threads_exact(t);
        assert_eq!(
            tinyadc_par::current_threads(),
            t,
            "worker count did not take effect"
        );
        let c = f();
        assert_eq!(
            c.to_bits(),
            reference.to_bits(),
            "{name}: output diverged at {t} workers"
        );
    }
    let mut secs = [f64::INFINITY; SWEEP.len()];
    for _ in 0..reps {
        for (k, &t) in SWEEP.iter().enumerate() {
            tinyadc_par::set_threads_exact(t);
            let (dt, c) = timed(&mut f);
            assert_eq!(
                c.to_bits(),
                reference.to_bits(),
                "{name}: run unstable at {t} workers"
            );
            secs[k] = secs[k].min(dt);
        }
    }
    tinyadc_par::set_threads(0);
    let r = SweepResult { name, secs };
    let cells: String = SWEEP
        .iter()
        .zip(&r.secs)
        .map(|(t, s)| format!("  {t}t {:8.3} ms ({:.2}x)", s * 1e3, speedup(r.secs[0], *s)))
        .collect();
    eprintln!("  {name:<16}{cells}");
    r
}

/// Amortised cost of one pool fan-out (post + wake + drain + join) at
/// `threads` workers: a minimal parallel region dispatched `iters`
/// times. At 1 worker the serial fast path runs — the no-pool baseline.
fn dispatch_latency_us(threads: usize, iters: usize) -> f64 {
    tinyadc_par::set_threads_exact(threads);
    // Enough one-element chunks that `workers_for` engages all workers.
    let mut v = vec![0u64; (threads * 2).max(4)];
    for _ in 0..iters / 10 + 1 {
        tinyadc_par::for_each_chunk_mut(&mut v, 1, |ci, c| c[0] = ci as u64);
    }
    let t0 = Instant::now();
    for _ in 0..iters {
        tinyadc_par::for_each_chunk_mut(&mut v, 1, |ci, c| c[0] = ci as u64);
    }
    let dt = t0.elapsed().as_secs_f64() / iters as f64;
    tinyadc_par::set_threads(0);
    std::hint::black_box(&v);
    dt * 1e6
}

/// Times two implementations of the same computation at **one** worker,
/// asserting their checksums agree bitwise, interleaved, best of `reps`.
fn compare<A, B>(
    name: &'static str,
    labels: (&'static str, &'static str),
    reps: usize,
    baseline: A,
    optimized: B,
) -> CompareResult
where
    A: FnMut() -> f64,
    B: FnMut() -> f64,
{
    compare_with(name, labels, reps, Stat::BestOf, baseline, optimized)
}

/// [`compare`] with the summary statistic chosen by `stat`.
fn compare_with<A, B>(
    name: &'static str,
    labels: (&'static str, &'static str),
    reps: usize,
    stat: Stat,
    mut baseline: A,
    mut optimized: B,
) -> CompareResult
where
    A: FnMut() -> f64,
    B: FnMut() -> f64,
{
    tinyadc_par::set_threads_exact(1);
    let reference = baseline();
    let check = optimized();
    assert_eq!(
        reference.to_bits(),
        check.to_bits(),
        "{name}: {} output diverged from {}",
        labels.1,
        labels.0
    );
    let (mut baseline_t, mut optimized_t) = (Vec::new(), Vec::new());
    for _ in 0..reps {
        let (dt, c) = timed(&mut baseline);
        assert_eq!(
            c.to_bits(),
            reference.to_bits(),
            "{name}: baseline unstable"
        );
        baseline_t.push(dt);
        let (dt, c) = timed(&mut optimized);
        assert_eq!(
            c.to_bits(),
            reference.to_bits(),
            "{name}: optimized unstable"
        );
        optimized_t.push(dt);
    }
    tinyadc_par::set_threads(0);
    let (baseline_s, optimized_s, speedup) = match stat {
        Stat::BestOf => {
            let best = |t: &[f64]| t.iter().copied().fold(f64::INFINITY, f64::min);
            let (b, o) = (best(&baseline_t), best(&optimized_t));
            (b, o, speedup(b, o))
        }
        Stat::MedianRatio => {
            let ratios = baseline_t
                .iter()
                .zip(&optimized_t)
                .map(|(&b, &o)| speedup(b, o))
                .collect();
            (median(baseline_t), median(optimized_t), median(ratios))
        }
    };
    let r = CompareResult {
        name,
        baseline: labels.0,
        optimized: labels.1,
        baseline_s,
        optimized_s,
        speedup,
        stat,
    };
    report(&r);
    r
}

fn report(r: &CompareResult) {
    eprintln!(
        "  {:<16} {} {:8.3} ms  {} {:8.3} ms  speedup {:.2}x ({}, 1 thread)",
        r.name,
        r.baseline,
        r.baseline_s * 1e3,
        r.optimized,
        r.optimized_s * 1e3,
        r.speedup,
        r.stat.label()
    );
}

fn checksum(slice: &[f32]) -> f64 {
    slice.iter().map(|&v| v as f64).sum()
}

fn checksum_i64(slice: &[i64]) -> f64 {
    // Column sums are far below 2^53, so the f64 accumulation is exact.
    slice.iter().map(|&v| v as f64).sum()
}

/// Paper-default 128×128 tile (8-bit weights/inputs, 2-bit cells, 1-bit
/// DAC) with seeded random codes; `cp_rate > 1` keeps only
/// `128 / cp_rate` non-zero rows per column (column-proportional
/// sparsity).
fn paper_tile(cp_rate: usize, rng: &mut SeededRng) -> Tile {
    let cfg = XbarConfig::paper_default();
    let n = 128;
    let codes: Vec<i64> = (0..n * n)
        .map(|i| {
            let (r, j) = (i / n, i % n);
            if cp_rate > 1 && r % cp_rate != j % cp_rate {
                0
            } else {
                // Non-zero signed codes in [-127, 127].
                let m = 1 + (rng.next_u64() % 127) as i64;
                if rng.next_u64().is_multiple_of(2) {
                    m
                } else {
                    -m
                }
            }
        })
        .collect();
    Tile::new(&codes, n, n, cfg).expect("paper tile")
}

/// Post-ReLU-realistic activation map (~70–80 % zeros): ReLU silenced
/// the top three quarters of every channel — zeros cluster spatially, as
/// they do after real activations, so whole im2col patches go dark — and
/// ~30 % scattered zeros thin the live band. The last two dims are
/// treated as (h, w); leading dims are batch/channel planes.
fn relu_sparse(dims: &[usize], rng: &mut SeededRng) -> Tensor {
    let h = dims[dims.len() - 2];
    let w = dims[dims.len() - 1];
    let planes: usize = dims[..dims.len() - 2].iter().product();
    let live_from = h - h / 4;
    let mut v = vec![0.0f32; planes * h * w];
    for p in 0..planes {
        for r in live_from..h {
            for c in 0..w {
                if rng.next_u64() % 10 < 7 {
                    v[(p * h + r) * w + c] = (1 + rng.next_u64() % 999) as f32 / 1000.0;
                }
            }
        }
    }
    Tensor::from_vec(v, dims).expect("sparse activation map")
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let quick = std::env::args().any(|a| a == "--quick");
    let reps = if quick { 2 } else { 9 };
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    eprintln!(
        "perf: thread sweep over {SWEEP:?} workers on {host_cores} host core(s), \
         best of {reps} interleaved{}",
        if quick { " (quick)" } else { "" }
    );
    if host_cores < 4 {
        eprintln!(
            "perf: WARNING only {host_cores} host core(s) — sweep speedups are \
             oversubscription numbers, not real scaling"
        );
    }

    let mut rng = SeededRng::new(7_2021);
    let mut results = Vec::new();

    // 1. Dense matmul: [192, 384] x [384, 192].
    let a = Tensor::randn(&[192, 384], 1.0, &mut rng);
    let b = Tensor::randn(&[384, 192], 1.0, &mut rng);
    results.push(bench_sweep("matmul", reps, || {
        checksum(a.matmul(&b).expect("matmul").as_slice())
    }));

    // 2. Convolution lowering: im2col + filter matmul on a 16x32x32 map.
    let x = Tensor::uniform(&[16, 32, 32], 0.0, 1.0, &mut rng);
    let w = Tensor::randn(&[32, 16, 3, 3], 0.3, &mut rng);
    let g = Conv2dGeometry::new(16, 32, 32, 3, 3, 1, 1)?;
    let w2d = w.reshape(&[32, g.patch_len()])?;
    results.push(bench_sweep("conv_im2col", reps, || {
        let cols = im2col(&x, &g).expect("im2col");
        checksum(w2d.matmul(&cols).expect("matmul").as_slice())
    }));

    // 3. CP projection of a large linear weight at 4x.
    let shape = CrossbarShape::new(16, 8)?;
    let cp = CpConstraint::new(shape, 4)?;
    let big = Tensor::randn(&[256, 512], 1.0, &mut rng);
    results.push(bench_sweep("cp_projection", reps, || {
        checksum(
            cp.project_param(&big, ParamKind::LinearWeight)
                .expect("projection")
                .as_slice(),
        )
    }));

    // 4. Bit-serial tile inference: a small conv on the datapath.
    let cfg = XbarConfig {
        shape,
        ..XbarConfig::paper_default()
    };
    let wc = Tensor::randn(&[8, 4, 3, 3], 0.4, &mut rng);
    let xc = Tensor::uniform(&[4, 12, 12], 0.0, 1.0, &mut rng);
    let mapped = MappedLayer::from_param(&wc, ParamKind::ConvWeight, cfg)?;
    let adc = Adc::new(mapped.required_adc_bits())?;
    results.push(bench_sweep("tile_inference", reps, || {
        checksum(conv2d(&mapped, &xc, 1, 1, &adc).expect("conv2d").as_slice())
    }));

    // 5. Compiled batch inference: whole samples fan out over the pool
    // (the tentpole batch grain), paper-default 128×128 crossbars.
    let cfg_full = XbarConfig::paper_default();
    let ws_w = Tensor::randn(&[128, 16, 3, 3], 0.3, &mut rng);
    let batch_n = 8;
    let batch_x = Tensor::uniform(&[batch_n, 16, 8, 8], 0.0, 1.0, &mut rng);
    let batch_mapped = MappedLayer::from_param(&ws_w, ParamKind::ConvWeight, cfg_full)?;
    let compiled = CompiledModel::from_conv(batch_mapped, [16, 8, 8], 1, 1, None)?;
    let mut batch_ws = BatchWorkspace::new();
    eprintln!(
        "perf: run_batch program costs {} modeled conversions per sample",
        compiled.sample_conversions()
    );
    results.push(bench_sweep("run_batch", reps, || {
        let y = compiled.run_batch(&batch_x, &mut batch_ws).expect("batch");
        checksum(y.as_slice())
    }));

    // --- Pool dispatch latency ---
    eprintln!("perf: pool dispatch latency (one fan-out, amortised)");
    let dispatch_iters = if quick { 200 } else { 2000 };
    let dispatch_us: Vec<(usize, f64)> = SWEEP
        .iter()
        .map(|&t| (t, dispatch_latency_us(t, dispatch_iters)))
        .collect();
    for (t, us) in &dispatch_us {
        eprintln!("  dispatch          {t}t {us:10.3} us");
    }

    // --- Datapath kernel comparisons (single-threaded, algorithmic) ---
    eprintln!("perf: datapath kernels, loop vs packed at 1 thread");
    let mut comparisons = Vec::new();

    // 6. tile_matvec on the paper-default 128×128 config: the widened
    // packed popcount kernel vs the reference quadruple loop, dense and
    // CP-pruned (rate 8: 16 active rows per column).
    let input: Vec<u64> = (0..128).map(|_| rng.next_u64() % 256).collect();
    for (name, cp_rate) in [("tile_matvec_dense", 1usize), ("tile_matvec_cp8", 8)] {
        let tile = paper_tile(cp_rate, &mut rng);
        let tile_adc = Adc::new(9)?; // Eq. 1 for 128 dense rows
        comparisons.push(compare(
            name,
            ("loop", "packed"),
            reps,
            || checksum_i64(&tile.matvec_loop(&input, &tile_adc).expect("loop")),
            || checksum_i64(&tile.matvec(&input, &tile_adc).expect("packed")),
        ));
    }

    // 7. datapath_conv2d: batched MVM (one packing pass per tile) vs the
    // old per-patch streaming, at the codes level on the same layer.
    let gq = Conv2dGeometry::new(4, 12, 12, 3, 3, 1, 1)?;
    let cols_q = im2col(&xc, &gq)?;
    let q = quantize_input(&cols_q, &mapped.config().quant)?;
    let codes: Vec<u64> = q.codes.iter().map(|&c| c as u64).collect();
    let (rows, _) = mapped.matrix_dims();
    let patches = gq.patch_count();
    comparisons.push(compare(
        "datapath_conv2d",
        ("per_patch", "batched"),
        reps,
        || {
            let mut acc = 0.0f64;
            let mut column = vec![0u64; rows];
            for p in 0..patches {
                for (r, slot) in column.iter_mut().enumerate() {
                    *slot = codes[r * patches + p];
                }
                acc += checksum_i64(&mapped.matvec_codes(&column, &adc).expect("mvm"));
            }
            acc
        },
        || {
            checksum_i64(
                &mapped
                    .matvec_codes_batch(&codes, patches, &adc)
                    .expect("mvm"),
            )
        },
    ));

    // 8. Sparsity-aware kernel dispatch, same layer and geometry as #7:
    // the occupancy-indexed path (kernel mode Auto — zero patches
    // short-circuit, sparse patches walk the occupancy intersection)
    // against the dense packed kernel forced on, first on a post-ReLU-
    // realistic ~70 %-zero activation map, then on the fully dense input
    // as the no-regression control. Outputs are asserted bitwise equal —
    // only the software skip counters and wall-clock differ.
    let x_sparse = relu_sparse(&[4, 12, 12], &mut rng);
    let cols_sparse = im2col(&x_sparse, &gq)?;
    let q_sparse = quantize_input(&cols_sparse, &mapped.config().quant)?;
    let codes_sparse: Vec<u64> = q_sparse.codes.iter().map(|&c| c as u64).collect();
    //
    // The dense control reads the median of many interleaved pairs: the
    // two kernels do the same work there, so best-of-a-few readings swing
    // with VM noise across the gate's floor while the median does not.
    let median_pairs = if quick { 21 } else { 41 };
    for (name, bench_codes, pairs, stat) in [
        ("datapath_conv2d_relu70", &codes_sparse, reps, Stat::BestOf),
        (
            "datapath_conv2d_dense",
            &codes,
            median_pairs,
            Stat::MedianRatio,
        ),
    ] {
        comparisons.push(compare_with(
            name,
            ("dense_kernel", "occupancy_kernel"),
            pairs,
            stat,
            || {
                set_packed_kernel(PackedKernel::Dense);
                checksum_i64(
                    &mapped
                        .matvec_codes_batch(bench_codes, patches, &adc)
                        .expect("mvm"),
                )
            },
            || {
                set_packed_kernel(PackedKernel::Auto);
                checksum_i64(
                    &mapped
                        .matvec_codes_batch(bench_codes, patches, &adc)
                        .expect("mvm"),
                )
            },
        ));
        set_packed_kernel(PackedKernel::Auto);
    }

    // 9. The same dispatch through the whole compiled engine: `run_batch`
    // on a post-ReLU-sparse batch (im2col + quantisation + MVM +
    // dequantisation included), dense kernel forced vs Auto. The program
    // is compiled one ADC bit below the Eq. 1 proof, because a clean
    // program at or above it runs the exact integer path, which neither
    // kernel mode touches.
    let packed_mapped = MappedLayer::from_param(&ws_w, ParamKind::ConvWeight, cfg_full)?;
    let below_proof = packed_mapped.required_adc_bits_exact() - 1;
    let compiled_packed =
        CompiledModel::from_conv(packed_mapped, [16, 8, 8], 1, 1, Some(below_proof))?;
    let batch_sparse = relu_sparse(&[batch_n, 16, 8, 8], &mut rng);
    let mut ws_dense_mode = BatchWorkspace::new();
    let mut ws_auto_mode = BatchWorkspace::new();
    comparisons.push(compare(
        "run_batch_relu70",
        ("dense_kernel", "occupancy_kernel"),
        reps,
        || {
            set_packed_kernel(PackedKernel::Dense);
            let y = compiled_packed
                .run_batch(&batch_sparse, &mut ws_dense_mode)
                .expect("batch");
            checksum(y.as_slice())
        },
        || {
            set_packed_kernel(PackedKernel::Auto);
            let y = compiled_packed
                .run_batch(&batch_sparse, &mut ws_auto_mode)
                .expect("batch");
            checksum(y.as_slice())
        },
    ));
    set_packed_kernel(PackedKernel::Auto);

    // 9b. Packed against exact (informational): the below-proof program
    // (occupancy kernel) vs the Eq. 1-sized one (exact integer GEMM) on
    // the same sparse batch. No column sum of this batch reaches the
    // lower ADC's full scale, so the outputs agree bitwise, which
    // `compare` asserts.
    let mut ws_packed = BatchWorkspace::new();
    let mut ws_exact = BatchWorkspace::new();
    comparisons.push(compare(
        "run_batch_exact",
        ("packed_kernel", "exact_gemm"),
        reps,
        || {
            let y = compiled_packed
                .run_batch(&batch_sparse, &mut ws_packed)
                .expect("batch");
            checksum(y.as_slice())
        },
        || {
            let y = compiled
                .run_batch(&batch_sparse, &mut ws_exact)
                .expect("batch");
            checksum(y.as_slice())
        },
    ));

    // 10. Compile-once/run-many: a pre-compiled conv program with a reused
    // workspace vs re-mapping the layer (`MappedLayer::from_param`) and
    // calling the per-call `infer::conv2d` wrapper on every request — the
    // steady-state serving cost the execution engine exists to remove.
    let ws_x = Tensor::uniform(&[16, 8, 8], 0.0, 1.0, &mut rng);
    let premapped = MappedLayer::from_param(&ws_w, ParamKind::ConvWeight, cfg_full)?;
    let compiled_one = CompiledModel::from_conv(premapped, [16, 8, 8], 1, 1, None)?;
    let mut workspace = Workspace::new();
    comparisons.push(compare(
        "compiled_vs_percall",
        ("per_call_map", "compiled_reuse"),
        reps,
        || {
            let m = MappedLayer::from_param(&ws_w, ParamKind::ConvWeight, cfg_full).expect("map");
            let a = Adc::new(m.required_adc_bits()).expect("adc");
            checksum(conv2d(&m, &ws_x, 1, 1, &a).expect("conv2d").as_slice())
        },
        || checksum(compiled_one.run(&ws_x, &mut workspace).expect("run")),
    ));

    // 11. Degraded-mode serving overhead: the same program compiled clean
    // vs with a `NonIdealPolicy` attached — IR drop plus read noise
    // through the noise-aware packed fast path. The outputs legitimately
    // differ, so this block times by hand instead of `compare`; each side
    // must still be self-deterministic across repeats.
    let mapped_noisy = MappedLayer::from_param(&ws_w, ParamKind::ConvWeight, cfg_full)?;
    let mut compiled_noisy = CompiledModel::from_conv(mapped_noisy, [16, 8, 8], 1, 1, None)?;
    compiled_noisy.set_non_ideal(Some(NonIdealPolicy {
        ir: Some(IrDropModel::with_wire_resistance(2.0)?),
        noise: Some(ReadNoise::new(0.1)?),
        seed: 7_2021,
    }))?;
    tinyadc_par::set_threads_exact(1);
    let mut ws_clean = BatchWorkspace::new();
    let mut ws_noisy = BatchWorkspace::new();
    let mut clean_run = || {
        let y = compiled.run_batch(&batch_x, &mut ws_clean).expect("batch");
        checksum(y.as_slice())
    };
    let mut noisy_run = || {
        let y = compiled_noisy
            .run_batch(&batch_x, &mut ws_noisy)
            .expect("batch");
        checksum(y.as_slice())
    };
    let (clean_ref, noisy_ref) = (clean_run(), noisy_run());
    let (mut clean_s, mut noisy_s) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..reps {
        let (dt, c) = timed(&mut clean_run);
        assert_eq!(
            c.to_bits(),
            clean_ref.to_bits(),
            "run_batch_nonideal: clean unstable"
        );
        clean_s = clean_s.min(dt);
        let (dt, c) = timed(&mut noisy_run);
        assert_eq!(
            c.to_bits(),
            noisy_ref.to_bits(),
            "run_batch_nonideal: nonideal unstable"
        );
        noisy_s = noisy_s.min(dt);
    }
    tinyadc_par::set_threads(0);
    let r = CompareResult {
        name: "run_batch_nonideal",
        baseline: "clean",
        optimized: "nonideal",
        baseline_s: clean_s,
        optimized_s: noisy_s,
        speedup: speedup(clean_s, noisy_s),
        stat: Stat::BestOf,
    };
    report(&r);
    comparisons.push(r);

    // Hand-rolled JSON (std-only policy: no serde in the workspace).
    let mut json = String::from("{\n");
    json.push_str(&format!("  \"host_cores\": {host_cores},\n"));
    json.push_str(&format!("  \"reps\": {reps},\n"));
    json.push_str(&format!(
        "  \"threads\": [{}],\n",
        SWEEP.map(|t| t.to_string()).join(", ")
    ));
    json.push_str("  \"kernels\": [\n");
    for (i, r) in results.iter().enumerate() {
        let ms: String = SWEEP
            .iter()
            .zip(&r.secs)
            .map(|(t, s)| format!("{{\"threads\": {t}, \"ms\": {:.3}}}", s * 1e3))
            .collect::<Vec<_>>()
            .join(", ");
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"sweep\": [{ms}], \"speedup_2t\": {:.3}, \
             \"speedup_4t\": {:.3}, \"speedup_8t\": {:.3}}}{}\n",
            r.name,
            r.speedup_at(2),
            r.speedup_at(4),
            r.speedup_at(8),
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"pool_dispatch_us\": [\n");
    for (i, (t, us)) in dispatch_us.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"threads\": {t}, \"us\": {us:.3}}}{}\n",
            if i + 1 < dispatch_us.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"datapath\": [\n");
    for (i, r) in comparisons.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"baseline\": \"{}\", \"optimized\": \"{}\", \
             \"baseline_ms\": {:.3}, \"optimized_ms\": {:.3}, \"speedup\": {:.3}, \"stat\": \"{}\", \
             \"threads\": 1}}{}\n",
            r.name,
            r.baseline,
            r.optimized,
            r.baseline_s * 1e3,
            r.optimized_s * 1e3,
            r.speedup,
            r.stat.label(),
            if i + 1 < comparisons.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    // Quick smoke runs go to a scratch file so they never clobber the
    // committed full-run numbers.
    let out = if quick {
        "BENCH_parallel.quick.json"
    } else {
        "BENCH_parallel.json"
    };
    std::fs::write(out, &json)?;
    println!("{json}");
    eprintln!("wrote {out}");
    Ok(())
}
