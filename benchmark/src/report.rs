//! The metric registry (names, units, directions, bounds — mirrored in
//! `BENCHMARK.json`), result files, and `--compare`.

use std::collections::BTreeMap;

use mant_gateway::Json;

use crate::stats::{median, spread, Better};

pub struct E2eDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline's median by which the metric may worsen.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> E2eDef {
    E2eDef {
        name,
        unit,
        better,
        bound,
    }
}

/// The end-to-end metrics, every one reported for every workload. A bound
/// has to exceed the spread between runs of one tree, or every comparison
/// reads `unresolved`: the timing bounds are the widest the contract allows
/// (quartile spreads of ten runs are 6-20 % on the reference box), and the
/// two shares read against a latency limit get a bound that one request of
/// a round does not exceed (see the README).
pub const E2E: [E2eDef; 11] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("ttft_p50_ms", "ms", Better::Lower, 0.25),
    e2e("itl_p50_ms", "ms", Better::Lower, 0.25),
    e2e("e2e_p50_ms", "ms", Better::Lower, 0.25),
    e2e("tok_per_s", "tok/s", Better::Higher, 0.25),
    e2e("slo_share", "share", Better::Higher, 0.05),
    e2e("smooth_share", "share", Better::Higher, 0.01),
    e2e("done_share", "share", Better::Higher, 0.001),
    e2e("match_share", "share", Better::Higher, 0.001),
    e2e("kv_bits_per_elem", "bits", Better::Lower, 0.001),
    e2e("weight_bits_per_param", "bits", Better::Lower, 0.001),
];

pub struct LayerDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lo(name: &'static str, unit: &'static str) -> LayerDef {
    LayerDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> LayerDef {
    LayerDef {
        name,
        unit,
        better: Better::Higher,
    }
}

/// The per-layer metrics a traced run reports, `layer.metric`.
pub const PER_LAYER: [LayerDef; 75] = [
    lo("gateway.parse_us", "us"),
    lo("gateway.healthz_ms", "ms"),
    lo("gateway.wire_overhead_ms", "ms"),
    hi("gateway.accepted", "count"),
    lo("gateway.rejected_busy", "count"),
    lo("gateway.rejected_other", "count"),
    lo("serve.submit_us", "us"),
    lo("serve.tick_ms_p50", "ms"),
    lo("serve.tick_ms_p99", "ms"),
    lo("serve.overhead_share", "share"),
    lo("serve.queue_wait_ms_p50", "ms"),
    hi("serve.batch_occupancy", "seq/step"),
    lo("serve.iterations", "count"),
    lo("serve.ttft_iters_p50", "count"),
    hi("serve.prefix_hit_rate", "share"),
    lo("serve.preemptions", "count"),
    lo("serve.recomputed_tokens", "count"),
    lo("serve.peak_used_blocks", "count"),
    lo("serve.ladder_shed_ticks", "count"),
    hi("serve.useful_row_share", "share"),
    lo("model.step_b1_ctx64_us", "us"),
    lo("model.step_b2_ctx64_us", "us"),
    lo("model.step_b4_ctx64_us", "us"),
    lo("model.step_b8_ctx64_us", "us"),
    lo("model.step_b1_ctx1024_us", "us"),
    lo("model.step_multi_k8_us", "us"),
    lo("model.prefill512_ms", "ms"),
    lo("model.runner_step_us", "us"),
    lo("model.kernel_gemm_share", "share"),
    lo("model.kernel_attn_share", "share"),
    lo("model.kernel_kv_quant_share", "share"),
    lo("model.kernel_gemv_share", "share"),
    lo("model.kernel_other_share", "share"),
    lo("quant.gemv_512x256_us", "us"),
    lo("quant.gemv_batch4_512x256_us", "us"),
    lo("quant.gemm_m32_512x256_us", "us"),
    lo("quant.gemv_4096x4096_us", "us"),
    hi("quant.gemv_4096_gbps", "GB/s"),
    hi("quant.gemv_4096_roofline_share", "share"),
    lo("quant.kv_push_us", "us"),
    lo("quant.attn_ctx64_us", "us"),
    lo("quant.attn_ctx1024_us", "us"),
    hi("quant.attn_ctx1024_gbps", "GB/s"),
    lo("quant.fork_truncate_us", "us"),
    hi("quant.encode_mgroups_per_s", "Mgroup/s"),
    hi("numerics.kernel_tier", "tier"),
    lo("numerics.dot_packed_ns", "ns"),
    lo("numerics.quantize_i8_ns", "ns"),
    lo("tensor.lm_head_matvec_us", "us"),
    lo("trace.disabled_span_ns", "ns"),
    lo("trace.replay_overhead_ratio", "ratio"),
    lo("trace.dropped_events", "count"),
    lo("replay.parse_share", "share"),
    lo("replay.submit_share", "share"),
    lo("replay.tick_share", "share"),
    lo("replay.drain_share", "share"),
    lo("replay.idle_share", "share"),
    lo("replay.unattributed_share", "share"),
    hi("loadgen.sent", "count"),
    lo("loadgen.fail_share", "share"),
    lo("loadgen.stall_share", "share"),
    lo("loadgen.late_ms_p99", "ms"),
    lo("loadgen.ttft_p90_ms", "ms"),
    lo("loadgen.itl_p99_ms", "ms"),
    lo("loadgen.e2e_p90_ms", "ms"),
    lo("loadgen.max_gap_ms", "ms"),
    hi("loadgen.req_tail_q", "quantile"),
    hi("loadgen.gap_tail_q", "quantile"),
    lo("loadgen.mixed.stream_ttft_p50_ms", "ms"),
    lo("loadgen.mixed.prompt_itl_p50_ms", "ms"),
    hi("host.nproc", "count"),
    hi("host.stream_gbps", "GB/s"),
    lo("host.probe_ms_min", "ms"),
    lo("host.probe_spread", "ratio"),
    lo("host.peak_rss_mb", "MB"),
];

/// One reported number. `per_round` holds the values a best-of-rounds
/// headline was chosen from.
#[derive(Clone, Debug)]
pub struct Value {
    pub value: f64,
    pub unit: &'static str,
    pub per_round: Vec<f64>,
}

/// Metric name → value, in registry order when printed.
pub type Metrics = BTreeMap<&'static str, Value>;

fn num(x: f64) -> String {
    assert!(x.is_finite(), "metric values are finite measurements");
    // Rust prints the shortest text that reads back to the same f64.
    format!("{x}")
}

fn list(xs: &[f64]) -> String {
    let items: Vec<String> = xs.iter().map(|&x| num(x)).collect();
    format!("[{}]", items.join(","))
}

/// `{"name":{"value":..,"unit":".."},..}` — the shape the acceptance
/// harness reads; `detail` adds the per-round values with their median
/// and quartile spread.
pub fn metrics_json(metrics: &Metrics, detail: bool) -> String {
    let items: Vec<String> = metrics
        .iter()
        .map(|(name, v)| {
            let mut s = format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{}\"",
                num(v.value),
                v.unit
            );
            if detail && !v.per_round.is_empty() {
                s.push_str(&format!(
                    ",\"rounds\":{},\"median\":{},\"spread\":{}",
                    list(&v.per_round),
                    num(median(&v.per_round).expect("non-empty")),
                    num(spread(&v.per_round)),
                ));
            }
            s.push('}');
            s
        })
        .collect();
    format!("{{{}}}", items.join(","))
}

/// Aligned `name value unit (better)` lines in registry order.
pub fn print_table(
    title: &str,
    order: impl Iterator<Item = (&'static str, Better)>,
    metrics: &Metrics,
) {
    println!("{title}");
    for (name, better) in order {
        if let Some(v) = metrics.get(name) {
            let better = match better {
                Better::Lower => "lower",
                Better::Higher => "higher",
            };
            println!(
                "  {name:<36} {:>14.6} {:<9} ({better} is better)",
                v.value, v.unit
            );
        }
    }
}

/// Verdict of one workload × metric row of `--compare`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// The run-to-run spread is wider than the bound, so the medians
    /// cannot tell (unless every B value beats every A value).
    Unresolved,
}

/// One row of `--compare`.
#[derive(Clone, Copy, Debug)]
pub struct Judged {
    pub median_a: f64,
    pub median_b: f64,
    /// How much worse B's median is, as a share of A's (negative: better).
    pub worse_by: f64,
    /// The wider of the two sides' quartile spreads.
    pub spread: f64,
    pub verdict: Verdict,
}

/// Compares two sets of values of one metric under its bound.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> Judged {
    let (median_a, median_b) = (
        median(a).expect("values on side A"),
        median(b).expect("values on side B"),
    );
    let worse_by = match better {
        Better::Lower => (median_b - median_a) / median_a.abs(),
        Better::Higher => (median_a - median_b) / median_a.abs(),
    };
    let wide = spread(a).max(spread(b));
    let b_always_better = match better {
        Better::Lower => b.iter().all(|&y| a.iter().all(|&x| y < x)),
        Better::Higher => b.iter().all(|&y| a.iter().all(|&x| y > x)),
    };
    // A tiny tolerance so equal constants pass a bound of exactly 0.
    let verdict = if wide > bound + 1e-12 && !b_always_better {
        Verdict::Unresolved
    } else if worse_by > bound + 1e-12 {
        Verdict::Worse
    } else {
        Verdict::Ok
    };
    Judged {
        median_a,
        median_b,
        worse_by,
        spread: wide,
        verdict,
    }
}

/// `workload → metric → one value per run` from a result file written by
/// `--all --out`. With a single run in the file the per-round values
/// stand in for runs, so a spread can still be judged.
pub fn values_by_metric(
    doc: &Json,
) -> Result<BTreeMap<String, BTreeMap<String, Vec<f64>>>, String> {
    let Some(Json::Arr(runs)) = doc.get("runs") else {
        return Err("no \"runs\" array".to_owned());
    };
    let mut out: BTreeMap<String, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    for run in runs {
        let Some(Json::Obj(workloads)) = run.get("workloads") else {
            return Err("a run without \"workloads\"".to_owned());
        };
        for (workload, body) in workloads {
            let Some(Json::Obj(metrics)) = body.get("end_to_end") else {
                return Err(format!("{workload}: no \"end_to_end\""));
            };
            for (metric, v) in metrics {
                let values = out
                    .entry(workload.clone())
                    .or_default()
                    .entry(metric.clone())
                    .or_default();
                match (runs.len(), v.get("rounds"), v.get("value")) {
                    (1, Some(Json::Arr(rounds)), _) => {
                        values.extend(rounds.iter().filter_map(|r| {
                            if let Json::Num(x) = r {
                                Some(*x)
                            } else {
                                None
                            }
                        }))
                    }
                    (_, _, Some(Json::Num(x))) => values.push(*x),
                    _ => return Err(format!("{workload}.{metric}: no value")),
                }
            }
        }
    }
    Ok(out)
}

/// Prints one row per workload × end-to-end metric; returns how many rows
/// are not `ok`.
pub fn compare(a: &Json, b: &Json) -> Result<usize, String> {
    let (a, b) = (values_by_metric(a)?, values_by_metric(b)?);
    println!(
        "{:<13} {:<22} {:>12} {:>12} {:>8} {:>8} {:>8}  verdict",
        "workload", "metric", "A", "B", "worse", "spread", "bound"
    );
    let mut bad = 0;
    for (workload, metrics) in &a {
        for def in &E2E {
            let (Some(va), Some(vb)) = (
                metrics.get(def.name),
                b.get(workload).and_then(|m| m.get(def.name)),
            ) else {
                return Err(format!("{workload}.{} missing on one side", def.name));
            };
            let row = judge(va, vb, def.better, def.bound);
            bad += usize::from(row.verdict != Verdict::Ok);
            println!(
                "{workload:<13} {:<22} {:>12.5} {:>12.5} {:>7.2}% {:>7.2}% {:>7.2}%  {}",
                def.name,
                row.median_a,
                row.median_b,
                row.worse_by * 100.0,
                row.spread * 100.0,
                def.bound * 100.0,
                match row.verdict {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    Ok(bad)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_tells_ok_worse_and_unresolved_apart() {
        let a = [10.0, 10.1, 9.9, 10.0, 10.05];
        let near = [10.3, 10.2, 10.4, 10.3, 10.25];
        let far = [11.5, 11.6, 11.4, 11.5, 11.55];
        assert_eq!(judge(&a, &near, Better::Lower, 0.10).verdict, Verdict::Ok);
        assert_eq!(judge(&a, &far, Better::Lower, 0.10).verdict, Verdict::Worse);
        // The same shift in the good direction is never worse.
        assert_eq!(judge(&far, &a, Better::Lower, 0.10).verdict, Verdict::Ok);
        assert_eq!(judge(&a, &far, Better::Higher, 0.10).verdict, Verdict::Ok);
        // A spread wider than the bound cannot resolve a small shift ...
        let wide = [8.0, 12.0, 9.0, 11.0, 10.0];
        assert_eq!(
            judge(&wide, &near, Better::Lower, 0.10).verdict,
            Verdict::Unresolved
        );
        // ... unless every B value beats every A value.
        let clear = [5.0, 5.1, 5.2];
        assert_eq!(
            judge(&wide, &clear, Better::Lower, 0.10).verdict,
            Verdict::Ok
        );
        // Equal constants pass the tightest bound.
        assert_eq!(
            judge(&[4.375; 3], &[4.375; 3], Better::Lower, 0.0).verdict,
            Verdict::Ok
        );
    }

    #[test]
    fn the_registry_matches_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("valid JSON");
        let rows = |key: &str| -> Vec<(String, String, String, Option<f64>)> {
            let Some(Json::Arr(items)) = doc.get(key) else {
                panic!("no {key}")
            };
            items
                .iter()
                .map(|m| {
                    let s = |k: &str| match m.get(k) {
                        Some(Json::Str(s)) => s.clone(),
                        _ => panic!("{key}: missing {k}"),
                    };
                    let bound = match m.get("bound") {
                        Some(Json::Num(b)) => Some(*b),
                        _ => None,
                    };
                    (s("name"), s("unit"), s("better"), bound)
                })
                .collect()
        };
        let word = |b: Better| match b {
            Better::Lower => "lower",
            Better::Higher => "higher",
        };
        let want: Vec<_> = E2E
            .iter()
            .map(|d| {
                (
                    d.name.to_owned(),
                    d.unit.to_owned(),
                    word(d.better).to_owned(),
                    Some(d.bound),
                )
            })
            .collect();
        assert_eq!(rows("end_to_end"), want);
        let want: Vec<_> = PER_LAYER
            .iter()
            .map(|d| {
                (
                    d.name.to_owned(),
                    d.unit.to_owned(),
                    word(d.better).to_owned(),
                    None,
                )
            })
            .collect();
        assert_eq!(rows("per_layer"), want);
        let Some(Json::Arr(workloads)) = doc.get("workloads") else {
            panic!("no workloads")
        };
        let names: Vec<&Json> = workloads.iter().filter_map(|w| w.get("name")).collect();
        let want: Vec<Json> = crate::workload::SPECS
            .iter()
            .map(|s| Json::Str(s.name.to_owned()))
            .collect();
        assert_eq!(names, want.iter().collect::<Vec<_>>());
    }

    #[test]
    fn result_files_round_trip_through_compare() {
        let file = |ttft: &[f64]| {
            let runs: Vec<String> = ttft
                .iter()
                .map(|t| {
                    let mut m = Metrics::new();
                    for def in &E2E {
                        m.insert(
                            def.name,
                            Value {
                                value: if def.name == "ttft_p50_ms" { *t } else { 1.0 },
                                unit: def.unit,
                                per_round: Vec::new(),
                            },
                        );
                    }
                    format!(
                        "{{\"workloads\":{{\"short_chat\":{{\"end_to_end\":{}}}}}}}",
                        metrics_json(&m, true)
                    )
                })
                .collect();
            Json::parse(&format!("{{\"runs\":[{}]}}", runs.join(","))).unwrap()
        };
        let a = file(&[14.0, 14.2, 14.1, 14.3, 14.0]);
        assert_eq!(compare(&a, &a), Ok(0));
        let b = file(&[19.0, 19.2, 19.1, 19.3, 19.0]);
        assert_eq!(compare(&a, &b), Ok(1));
        assert_eq!(compare(&b, &a), Ok(0));
    }
}
