//! Matmul-kernel and op micro-benchmarks for the tensor engine's hot
//! loop.
//!
//! Four measurements, written to `results/tensor_kernels.json`:
//!
//! 1. **Kernel sweep** — square-matmul GFLOP-rate of the blocked,
//!    B-packed forward kernel vs the naive reference and both backward
//!    accumulation kernels, at n ∈ {16, 32, 64, 128, 256}. `perf_gate`
//!    checks these 20 numbers against the baseline.
//! 2. **Row-vector products** — `kernels::matmul` vs `matmul_naive` on
//!    the one-row shapes every decoder step multiplies (LSTM gates and
//!    the attention query of the served configuration), in ns per
//!    call. Recorded, not gated.
//! 3. **Op timings** — per-call cost of the two non-matmul ops the
//!    decoders lean on (masked row softmax, one LSTM step), each on one
//!    tape cleared between calls, output allocation included as in a
//!    real forward.
//! 4. **Op profile** — the per-op call/flop/byte counters the tensor
//!    layer publishes to the global metrics registry, accumulated over
//!    a batch of real end-to-end predictions, so the bench records
//!    *where* the model's arithmetic actually goes.

use rtp_bench::{bench_dataset, bench_meta_json, bench_model};
use rtp_tensor::nn::LstmCell;
use rtp_tensor::{kernels, ParamStore, Tape};
use std::time::Instant;

/// Deterministic pseudo-random fill (no rand dependency needed here).
fn fill(v: &mut [f32], mut seed: u32) {
    for x in v.iter_mut() {
        seed = seed.wrapping_mul(1664525).wrapping_add(1013904223);
        *x = ((seed >> 8) as f32 / (1 << 24) as f32) * 2.0 - 1.0;
    }
}

/// Times `f` over enough repetitions to exceed ~80ms, best of three
/// rounds (shields against scheduler noise on the shared core),
/// returns seconds per call.
fn time_per_call(mut f: impl FnMut()) -> f64 {
    // warm-up
    f();
    let mut reps = 1usize;
    let dt = loop {
        let t0 = Instant::now();
        for _ in 0..reps {
            f();
        }
        let dt = t0.elapsed().as_secs_f64();
        if dt > 0.08 {
            break dt;
        }
        reps *= 2;
    };
    let mut best = dt;
    for _ in 0..2 {
        let t0 = Instant::now();
        for _ in 0..reps {
            f();
        }
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best / reps as f64
}

struct KernelRow {
    n: usize,
    naive_gflops: f64,
    blocked_gflops: f64,
    grad_a_gflops: f64,
    grad_b_gflops: f64,
    speedup: f64,
}

fn kernel_sweep() -> Vec<KernelRow> {
    [16usize, 32, 64, 128, 256]
        .iter()
        .map(|&n| {
            let mut a = vec![0.0f32; n * n];
            let mut b = vec![0.0f32; n * n];
            let mut out = vec![0.0f32; n * n];
            let mut acc = vec![0.0f32; n * n];
            fill(&mut a, 1 + n as u32);
            fill(&mut b, 2 + n as u32);
            let flops = 2.0 * (n as f64).powi(3);

            let naive = time_per_call(|| kernels::matmul_naive(&a, &b, &mut out, n, n, n));
            let blocked = time_per_call(|| kernels::matmul(&a, &b, &mut out, n, n, n));
            let grad_a = time_per_call(|| {
                acc.iter_mut().for_each(|x| *x = 0.0);
                kernels::matmul_grad_a(&a, &b, &mut acc, n, n, n);
            });
            let grad_b = time_per_call(|| {
                acc.iter_mut().for_each(|x| *x = 0.0);
                kernels::matmul_grad_b(&a, &b, &mut acc, n, n, n);
            });
            let row = KernelRow {
                n,
                naive_gflops: flops / naive / 1e9,
                blocked_gflops: flops / blocked / 1e9,
                grad_a_gflops: flops / grad_a / 1e9,
                grad_b_gflops: flops / grad_b / 1e9,
                speedup: naive / blocked,
            };
            println!(
                "n={:>3}: naive {:>6.2} GF/s  blocked {:>6.2} GF/s  ({:.2}x)  gA {:>6.2}  gB {:>6.2}",
                row.n, row.naive_gflops, row.blocked_gflops, row.speedup, row.grad_a_gflops,
                row.grad_b_gflops
            );
            row
        })
        .collect()
}

/// The decoders' row-vector products `[1,k] @ [k,c]` in the served
/// configuration (d_loc = d_aoi = 48, d_pos = 8): LSTM gates over the
/// recurrent state (k = 48), the SortLSTM inputs (k = 56, 65), the
/// location route decoder's input (k = 57), all with c = 4·48, and the
/// attention query `W_query [h‖u]` (k = 59, c = 48).
const ROW_VECTOR_SHAPES: [(usize, usize); 5] =
    [(48, 192), (56, 192), (57, 192), (65, 192), (59, 48)];

struct RowVectorRow {
    k: usize,
    c: usize,
    naive_ns: f64,
    kernel_ns: f64,
}

fn row_vector_sweep() -> Vec<RowVectorRow> {
    ROW_VECTOR_SHAPES
        .iter()
        .map(|&(k, c)| {
            let mut a = vec![0.0f32; k];
            let mut b = vec![0.0f32; k * c];
            let mut out = vec![0.0f32; c];
            fill(&mut a, 3 + k as u32);
            fill(&mut b, 4 + c as u32);
            let naive = time_per_call(|| kernels::matmul_naive(&a, &b, &mut out, 1, k, c));
            let kernel = time_per_call(|| kernels::matmul(&a, &b, &mut out, 1, k, c));
            let row = RowVectorRow { k, c, naive_ns: naive * 1e9, kernel_ns: kernel * 1e9 };
            println!(
                "[1,{k}] x [{k},{c}]: naive {:>7.1} ns  kernel {:>7.1} ns  ({:.2}x)",
                row.naive_ns,
                row.kernel_ns,
                naive / kernel
            );
            row
        })
        .collect()
}

/// Microseconds per call of `masked_softmax_rows` on an n×n block
/// (n ∈ {10, 20, 40}, a third of the entries masked) and of one 32-wide
/// LSTM step. Inputs live in a `ParamStore` and are loaded with
/// `Tape::param`, which copies them into a fresh buffer as every
/// forward pass does.
fn op_timings() -> Vec<(String, f64)> {
    let mut store = ParamStore::new(3);
    let mut rows = Vec::new();
    let mut tape = Tape::new();
    for n in [10usize, 20, 40] {
        let mut vals = vec![0.0f32; n * n];
        fill(&mut vals, 5 + n as u32);
        let x = store.add_param(&format!("softmax{n}"), n, n, vals);
        let mask: Vec<bool> = (0..n * n).map(|i| i % 3 != 0).collect();
        let secs = time_per_call(|| {
            tape.clear();
            let xt = tape.param(&store, x);
            std::hint::black_box(tape.masked_softmax_rows(xt, &mask));
        });
        rows.push((format!("masked_softmax_rows_n{n}_us"), secs * 1e6));
    }
    let cell = LstmCell::new(&mut store, "lstm", 32, 32);
    let input = store.add_param("lstm_in", 1, 32, vec![0.3; 32]);
    let secs = time_per_call(|| {
        tape.clear();
        let x = tape.param(&store, input);
        let state = cell.zero_state(&mut tape);
        std::hint::black_box(cell.step(&mut tape, &store, x, state));
    });
    rows.push(("lstm_step_32_us".to_string(), secs * 1e6));
    for (name, us) in &rows {
        println!("{name}: {us:.3}");
    }
    rows
}

/// Runs a batch of real predictions on a fresh inference tape and
/// returns the `tensor.*` counter deltas from the global registry as
/// formatted JSON lines. This is the per-op profile: calls, flops and
/// bytes for gather/softmax/add_outer/LSTM plus matmul kernel calls.
fn op_profile() -> (usize, Vec<String>) {
    let dataset = bench_dataset();
    let model = bench_model(&dataset);
    let before = rtp_obs::metrics::global().snapshot();
    let mut tape = Tape::inference();
    let queries = dataset.test.len().min(32);
    for s in dataset.test.iter().take(queries) {
        let courier = &dataset.couriers[s.query.courier_id];
        let g = model.build_graph(&dataset.city, courier, &s.query);
        model.predict_into(&mut tape, &g);
    }
    let after = rtp_obs::metrics::global().snapshot();
    let lines: Vec<String> = after
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("tensor."))
        .filter_map(|(name, &v)| {
            let delta = v - before.counters.get(name).copied().unwrap_or(0);
            (delta > 0).then(|| format!("    \"{name}\": {delta}"))
        })
        .collect();
    for l in &lines {
        println!("{}", l.trim_start());
    }
    (queries, lines)
}

fn main() {
    println!("== matmul kernel sweep ==");
    let rows = kernel_sweep();
    println!("== row-vector products ==");
    let row_vectors = row_vector_sweep();
    println!("== op timings ==");
    let ops = op_timings();
    println!("== op profile ==");
    let (profile_queries, profile_lines) = op_profile();

    let entries: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"n\": {}, \"naive_gflops\": {:.3}, \"blocked_gflops\": {:.3}, \"speedup\": {:.3}, \"grad_a_gflops\": {:.3}, \"grad_b_gflops\": {:.3}}}",
                r.n, r.naive_gflops, r.blocked_gflops, r.speedup, r.grad_a_gflops,
                r.grad_b_gflops
            )
        })
        .collect();
    let row_vector_entries: Vec<String> = row_vectors
        .iter()
        .map(|r| {
            format!(
                "    {{\"k\": {}, \"c\": {}, \"naive_ns\": {:.1}, \"kernel_ns\": {:.1}, \"speedup\": {:.3}}}",
                r.k,
                r.c,
                r.naive_ns,
                r.kernel_ns,
                r.naive_ns / r.kernel_ns
            )
        })
        .collect();
    let op_entries: Vec<String> =
        ops.iter().map(|(name, us)| format!("    \"{name}\": {us:.3}")).collect();
    let json = format!(
        "{{\n  \"bench\": \"tensor_kernels\",\n  \"bench_meta\": {},\n  \"matmul_sweep\": [\n{}\n  ],\n  \"row_vector\": [\n{}\n  ],\n  \"op_timings\": {{\n{}\n  }},\n  \"op_profile\": {{\n    \"queries\": {profile_queries},\n{}\n  }}\n}}\n",
        bench_meta_json(),
        entries.join(",\n"),
        row_vector_entries.join(",\n"),
        op_entries.join(",\n"),
        profile_lines.join(",\n"),
    );
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    std::fs::create_dir_all(&out).expect("create results dir");
    let path = out.join("tensor_kernels.json");
    rtp_obs::fsio::write_atomic_str(&path, &json).expect("write results JSON");
    println!("wrote {}", path.display());
}
