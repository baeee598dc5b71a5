//! Benchmarks the group-encode kernel and the offline encode search on it.
//!
//! Three questions:
//!
//! 1. Per group (Sec. V-C trade-off): MSE coefficient search vs the
//!    real-time variance lookup — search is accurate but "intolerable in a
//!    real-time scenario"; variance lookup is streaming-cheap.
//! 2. What the kernel buys: the search of one 64-element group timed three
//!    ways in one process — the per-element oracle loop
//!    (`GroupDtype::quantize_value` per candidate per element, what every
//!    encode path ran before the kernel), the kernel's scalar arm, and the
//!    detected tier as `select_group_dtype` runs it — plus what the same
//!    kernel makes of a K-row and a V-row push. The three searches must
//!    agree to the bit, and the sweep must beat the oracle loop by the
//!    floors asserted at the bottom. Written to `BENCH_encode.json`.
//! 3. At batch scale: the serial vs thread-parallel encode engine over a
//!    full weight matrix (the per-group candidate search is embarrassingly
//!    parallel; the parallel path is bit-identical by construction and is
//!    verified to be so below). Run with `MANT_THREADS=<n>` to pin the
//!    worker count; the speedup line reports the measured ratio.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Instant;

use mant_numerics::{kernels, EncodeTable, KernelDispatch};
use mant_quant::{
    par_select_group_dtypes_batch, select_group_dtype, select_group_dtypes_batch, CandidateSet,
    GroupDtype, KvCachePool, MantQuantizedMatrix, PagedKvCache, PoolConfig, VarianceMap,
};
use mant_tensor::{abs_max, par, Matrix, RunningGroupStats, TensorGenerator};

const GROUP: usize = 64;

fn bench_encode_search(c: &mut Criterion) {
    let mut gen = TensorGenerator::new(1002);
    let group: Vec<f32> = (0..GROUP).map(|_| gen.standard_normal() * 0.3).collect();
    let set = CandidateSet::paper();
    let vmap = VarianceMap::analytic(&set).expect("paper set is non-empty");

    let mut g = c.benchmark_group("dtype_selection_per_group64");
    g.bench_function("mse_search", |b| {
        b.iter(|| black_box(select_group_dtype(black_box(&group), &set).expect("non-empty set")))
    });
    g.bench_function("variance_map", |b| {
        b.iter(|| {
            let mut stats = RunningGroupStats::new();
            stats.extend_from_slice(black_box(&group));
            black_box(vmap.select_for(&stats))
        })
    });
    g.finish();
}

/// The search as every encode path ran it before the group-encode kernel:
/// per candidate, the per-element `quantize_value` loop; first minimum wins.
fn oracle_search(group: &[f32], set: &CandidateSet) -> (GroupDtype, f64) {
    let amax = abs_max(group);
    let mut best = (set.candidates()[0], f64::INFINITY);
    for &cand in set.candidates() {
        let scale = cand.scale_for(amax);
        let mut acc = 0.0f64;
        for &x in group {
            let e = f64::from(x - cand.quantize_value(x, scale));
            acc += e * e;
        }
        let err = if amax == 0.0 {
            0.0
        } else {
            acc / group.len() as f64
        };
        if err < best.1 {
            best = (cand, err);
        }
    }
    best
}

/// The search on one named kernel tier, from the kernel's public entry —
/// `select_group_dtype` with the tier made explicit.
fn search_on(
    tier: KernelDispatch,
    group: &[f32],
    set: &CandidateSet,
    tables: &[EncodeTable],
) -> (GroupDtype, f64) {
    let amax = tier.abs_max(group);
    let scales: Vec<f32> = set.candidates().iter().map(|c| c.scale_for(amax)).collect();
    let mut sums = vec![0.0f64; tables.len()];
    if amax != 0.0 {
        tier.encode_errors(tables, &scales, group, None, &mut sums);
    }
    let mut best = (set.candidates()[0], f64::INFINITY);
    for (&cand, &sum) in set.candidates().iter().zip(&sums) {
        let err = sum / group.len() as f64;
        if err < best.1 {
            best = (cand, err);
        }
    }
    best
}

/// Quickest of `rounds` runs of `f`, in seconds.
fn best_of(rounds: usize, mut f: impl FnMut()) -> f64 {
    (0..rounds)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// The kernel against its oracle: search per group three ways, K-row and
/// V-row pushes, floors asserted, `BENCH_encode.json` written.
fn bench_encode_kernel(w: &Matrix) {
    const ROUNDS: usize = 5;
    const GROUPS: usize = 512;
    let set = CandidateSet::paper();
    let tables: Vec<EncodeTable> = set.candidates().iter().map(|c| c.encode_table()).collect();
    let groups: Vec<&[f32]> = w.as_slice().chunks_exact(GROUP).take(GROUPS).collect();
    let tier = kernels();

    for g in &groups {
        let (dtype, err) = oracle_search(g, &set);
        let scalar = search_on(KernelDispatch::Scalar, g, &set, &tables);
        let real = select_group_dtype(g, &set).expect("non-empty set");
        assert_eq!((scalar.0, scalar.1.to_bits()), (dtype, err.to_bits()));
        assert_eq!((real.0, real.1.to_bits()), (dtype, err.to_bits()));
    }

    let per_group = |f: &dyn Fn(&[f32]) -> (GroupDtype, f64)| -> f64 {
        best_of(ROUNDS, || {
            for g in &groups {
                black_box(f(black_box(g)));
            }
        }) / GROUPS as f64
    };
    let t_oracle = per_group(&|g| oracle_search(g, &set));
    let t_scalar = per_group(&|g| search_on(KernelDispatch::Scalar, g, &set, &tables));
    let t_tier = per_group(&|g| select_group_dtype(g, &set).expect("non-empty set"));
    let scalar_speedup = t_oracle / t_scalar;
    let tier_speedup = t_oracle / t_tier;
    println!(
        "search per {GROUP}-element group: oracle loop {:.2} us / scalar arm {:.2} us ({scalar_speedup:.2}x) / {} {:.2} us ({tier_speedup:.2}x)",
        t_oracle * 1e6,
        t_scalar * 1e6,
        tier.name(),
        t_tier * 1e6,
    );

    // sim_llama's cache geometry: 256 wide, windows of 64 rows, 64-token
    // blocks. 512 rows are eight V commits; a push encodes the K row and
    // stages the V row. The cache sees the rows once before it is timed, so
    // its channel scales have settled (no prefill set them; a cut to zero
    // keeps them) and a timed push is the steady state: no bootstrap, no
    // widening.
    const KV_DIM: usize = 256;
    const ROWS: usize = 512;
    let vmap = VarianceMap::analytic(&set).expect("paper set is non-empty");
    let mut gen = TensorGenerator::new(2002);
    let keys = gen.group_diverse_matrix(ROWS, KV_DIM, GROUP, 0.5);
    let values = gen.group_diverse_matrix(ROWS, KV_DIM, GROUP, 0.5);
    let mut pool = KvCachePool::new(PoolConfig {
        kv_dim: KV_DIM,
        group_size: GROUP,
        block_tokens: 64,
        blocks: ROWS / 64,
    })
    .expect("64 divides 256 and the block");
    let mut cache = PagedKvCache::new(&pool, vmap.clone(), vmap);
    let mut push_all = || {
        cache.truncate(&mut pool, 0);
        for r in 0..ROWS {
            cache
                .push(&mut pool, black_box(keys.row(r)), black_box(values.row(r)))
                .expect("the pool holds every row");
        }
    };
    push_all();
    let t_kv = best_of(ROUNDS, &mut push_all) / ROWS as f64;
    println!(
        "kv push per {KV_DIM}-wide K+V row pair: {:.2} us (K encode, V staging, commits included)",
        t_kv * 1e6
    );

    // The vector floor binds only where the vector arm runs.
    let tier_threshold = if tier == KernelDispatch::Avx2 {
        4.0
    } else {
        1.5
    };
    let json = format!(
        "{{\n  \"bench\": \"encode_search\",\n  \"tier\": \"{}\",\n  \"group\": {GROUP},\n  \"candidates\": {},\n  \"search_oracle_ns\": {:.0},\n  \"search_scalar_ns\": {:.0},\n  \"search_tier_ns\": {:.0},\n  \"scalar_speedup\": {scalar_speedup:.3},\n  \"tier_speedup\": {tier_speedup:.3},\n  \"scalar_threshold\": 1.5,\n  \"tier_threshold\": {tier_threshold:.1},\n  \"kv_push_ns\": {:.0},\n  \"bit_identical\": true\n}}\n",
        tier.name(),
        set.len(),
        t_oracle * 1e9,
        t_scalar * 1e9,
        t_tier * 1e9,
        t_kv * 1e9,
    );
    // Same anchoring as the other BENCH_*.json artifacts: the workspace root.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_encode.json");
    std::fs::write(path, &json).expect("write BENCH_encode.json");
    println!("wrote BENCH_encode.json (workspace root)");

    assert!(
        scalar_speedup >= 1.5,
        "the kernel's scalar arm must beat the per-element oracle loop by >= 1.5x, got {scalar_speedup:.2}x"
    );
    assert!(
        tier_speedup >= tier_threshold,
        "the {} sweep must beat the per-element oracle loop by >= {tier_threshold}x, got {tier_speedup:.2}x",
        tier.name()
    );
}

/// Serial vs parallel batched encode over a projection-sized weight
/// matrix, group size 64.
fn bench_batched_encode(c: &mut Criterion) {
    let mut gen = TensorGenerator::new(1005);
    let w = gen.group_diverse_matrix(1024, 4096, GROUP, 0.02);
    let set = CandidateSet::paper();

    bench_encode_kernel(&w);

    // Bare batch selection (no encoding), serial vs parallel, over the
    // first 2048 groups.
    let groups: Vec<&[f32]> = w.as_slice().chunks_exact(GROUP).take(2048).collect();
    let mut g = c.benchmark_group("batch_dtype_selection_2048_groups");
    g.bench_function("serial", |b| {
        b.iter(|| {
            black_box(select_group_dtypes_batch(black_box(&groups), &set).expect("non-empty"))
        })
    });
    g.bench_function("parallel", |b| {
        b.iter(|| {
            black_box(par_select_group_dtypes_batch(black_box(&groups), &set).expect("non-empty"))
        })
    });
    g.finish();
    assert_eq!(
        select_group_dtypes_batch(&groups, &set).expect("non-empty"),
        par_select_group_dtypes_batch(&groups, &set).expect("non-empty"),
        "batch selection diverged between serial and parallel"
    );

    let mut g = c.benchmark_group("batched_encode_1024x4096_g64");
    g.bench_function("serial", |b| {
        b.iter(|| {
            black_box(
                MantQuantizedMatrix::quantize(black_box(&w), GROUP, &set).expect("valid group"),
            )
        })
    });
    g.bench_function("parallel", |b| {
        b.iter(|| {
            black_box(
                MantQuantizedMatrix::par_quantize(black_box(&w), GROUP, &set).expect("valid group"),
            )
        })
    });
    g.finish();

    // Explicit speedup report (best of 3 one-shot runs each, interleaved),
    // plus a bit-identical check between the two paths.
    let time_best = |f: &dyn Fn() -> MantQuantizedMatrix| -> (f64, MantQuantizedMatrix) {
        let mut best = f64::INFINITY;
        let mut out = None;
        for _ in 0..3 {
            let t0 = Instant::now();
            let q = f();
            best = best.min(t0.elapsed().as_secs_f64());
            out = Some(q);
        }
        (best, out.expect("ran at least once"))
    };
    let (t_ser, q_ser) =
        time_best(&|| MantQuantizedMatrix::quantize(&w, GROUP, &set).expect("valid group"));
    let (t_par, q_par) =
        time_best(&|| MantQuantizedMatrix::par_quantize(&w, GROUP, &set).expect("valid group"));
    let identical = {
        let a = q_ser.dequantize();
        let b = q_par.dequantize();
        a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
    };
    println!(
        "batched_encode speedup: serial {:.1} ms / parallel {:.1} ms = {:.2}x on {} thread(s); bit-identical: {}",
        t_ser * 1e3,
        t_par * 1e3,
        t_ser / t_par,
        par::max_threads(),
        identical,
    );
    assert!(identical, "parallel encode diverged from serial");
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_millis(800)).warm_up_time(std::time::Duration::from_millis(300));
    targets = bench_encode_search, bench_batched_encode
}
criterion_main!(benches);
