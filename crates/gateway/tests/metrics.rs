//! Observability acceptance over real loopback sockets, in its own binary
//! because tracing is process-global: one traced gateway run covering all
//! four request outcomes, then assertions on the live Prometheus scrape,
//! the enriched `/healthz`, the final report's aggregate, the latency
//! breakdown, and the Chrome trace dump.

use std::io::Write;
use std::net::SocketAddr;
use std::thread;
use std::time::{Duration, Instant};

use mant_gateway::{client, GatewayConfig, Json, Terminal};
use mant_model::{ActMode, KvMode, ModelConfig, TransformerModel};
use mant_serve::{AdmissionPolicy, ServeConfig};
use mant_trace::Series;

fn serve_cfg(max_batch: usize) -> ServeConfig {
    ServeConfig {
        max_batch,
        pool_blocks: 64,
        block_tokens: 16,
        act: ActMode::None,
        kv: KvMode::Int4 { group: 16 },
        admission: AdmissionPolicy::Watermark {
            watermark_blocks: 2,
        },
        prefix_sharing: false,
        speculative: None,
    }
}

fn prompt(seed: usize, len: usize) -> Vec<usize> {
    (0..len).map(|t| (seed * 131 + t * 29 + 1) % 512).collect()
}

fn body(prompt: &[usize], max_new: usize, deadline_ms: Option<u64>) -> String {
    let toks: Vec<String> = prompt.iter().map(|t| t.to_string()).collect();
    match deadline_ms {
        None => format!(
            "{{\"prompt\":[{}],\"max_new_tokens\":{max_new}}}",
            toks.join(",")
        ),
        Some(ms) => format!(
            "{{\"prompt\":[{}],\"max_new_tokens\":{max_new},\"deadline_ms\":{ms}}}",
            toks.join(",")
        ),
    }
}

fn wait_accepted(addr: SocketAddr, n: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (status, metrics) = client::get(addr, "/metrics").unwrap();
        assert_eq!(status, 200);
        if metrics.contains(&format!("mant_gateway_accepted_total {n}\n")) {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "gateway never accepted {n} submissions: {metrics}"
        );
        thread::sleep(Duration::from_millis(5));
    }
}

/// The value of the series `name` whose labels include `label`, if any.
fn value(series: &[Series], name: &str, label: Option<(&str, &str)>) -> Option<f64> {
    series
        .iter()
        .find(|s| {
            s.name == name
                && match label {
                    None => true,
                    Some((k, v)) => s.label(k) == Some(v),
                }
        })
        .map(|s| s.value)
}

/// A histogram family is structurally sound: `_count` present and equal to
/// the `+Inf` bucket, buckets cumulative (non-decreasing in `le`), `_sum`
/// present. Returns the sample count.
fn check_hist(series: &[Series], base: &str) -> u64 {
    let count = value(series, &format!("{base}_count"), None)
        .unwrap_or_else(|| panic!("{base}_count missing"));
    assert!(
        value(series, &format!("{base}_sum"), None).is_some(),
        "{base}_sum missing"
    );
    let buckets: Vec<&Series> = series
        .iter()
        .filter(|s| s.name == format!("{base}_bucket"))
        .collect();
    assert!(!buckets.is_empty(), "{base}_bucket series missing");
    // Buckets render in ascending `le` order; counts must be cumulative.
    let mut prev = 0.0;
    for b in &buckets {
        assert!(
            b.value >= prev,
            "{base} bucket counts must be cumulative: {} < {prev}",
            b.value
        );
        prev = b.value;
    }
    let inf = buckets
        .iter()
        .find(|b| b.label("le") == Some("+Inf"))
        .unwrap_or_else(|| panic!("{base} has no +Inf bucket"));
    assert_eq!(inf.value, count, "{base}: +Inf bucket must equal _count");
    count as u64
}

/// One traced run covering done / expired / cancelled (plus the always-
/// exported shed counter): a pinned lane whose client disappears, a queued
/// request that expires on its wall deadline, and two normal completions.
#[test]
fn metrics_endpoint_serves_the_full_observability_surface() {
    let cfg = ModelConfig::sim_llama();
    let model = TransformerModel::synthesize(&cfg, 56);
    let packed = model.pack_weights(64).unwrap();
    let gw_cfg = GatewayConfig {
        trace: true,
        ..GatewayConfig::new(serve_cfg(1))
    };

    let ((health, prom), report) = mant_gateway::serve(&model, &packed, gw_cfg, |gw| {
        let addr = gw.addr();

        // The enriched health probe carries live capacity facts.
        let (status, health) = client::get(addr, "/healthz").unwrap();
        assert_eq!(status, 200);

        // Pin the single lane with a long generation whose client never
        // reads; dropping the socket later exercises the cancel path.
        let pin_body = body(&prompt(0, 8), 400, None);
        let mut pin = std::net::TcpStream::connect(addr).unwrap();
        write!(
            pin,
            "POST /v1/generate HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{pin_body}",
            pin_body.len()
        )
        .unwrap();
        pin.flush().unwrap();
        wait_accepted(addr, 1);

        // Queued behind the pin with a 30 ms wall deadline: expires in the
        // scheduler without ever being ticked.
        let doomed = client::generate(addr, &body(&prompt(1, 6), 8, Some(30))).unwrap();
        assert_eq!(doomed.terminal, Terminal::Expired);

        // Two normal requests, then release the lane so they can run.
        let a_body = body(&prompt(2, 6), 5, None);
        let t_a = thread::spawn(move || client::generate(addr, &a_body).unwrap());
        wait_accepted(addr, 3);
        let b_body = body(&prompt(3, 6), 5, None);
        let t_b = thread::spawn(move || client::generate(addr, &b_body).unwrap());
        wait_accepted(addr, 4);
        drop(pin);
        assert_eq!(t_a.join().unwrap().terminal, Terminal::Done);
        assert_eq!(t_b.join().unwrap().terminal, Terminal::Done);

        // Scrape after both completions retired.
        let (status, prom) = client::get(addr, "/metrics").unwrap();
        assert_eq!(status, 200);
        (health, prom)
    })
    .unwrap();

    // ---- /healthz: kernel tier, pool capacity, live occupancy ----
    let h = Json::parse(&health).expect("healthz is valid JSON");
    assert_eq!(h.get("status"), Some(&Json::Str("ok".to_owned())));
    assert!(
        matches!(h.get("kernel"), Some(Json::Str(k)) if !k.is_empty()),
        "healthz must name the dispatched kernel tier: {health}"
    );
    assert_eq!(h.get("pool_blocks").and_then(Json::as_usize), Some(64));
    for key in [
        "used_blocks",
        "free_blocks",
        "queue_depth",
        "active_sequences",
    ] {
        assert!(
            h.get(key).and_then(Json::as_usize).is_some(),
            "healthz missing {key}: {health}"
        );
    }

    // ---- The live scrape is well-formed Prometheus exposition text ----
    let series = mant_trace::parse_text(&prom)
        .unwrap_or_else(|e| panic!("scrape must parse as Prometheus text: {e}\n{prom}"));

    // Request counters by outcome: done, expired, cancelled observed;
    // shed exported even at zero.
    let outcome = |o| value(&series, "mant_requests_total", Some(("outcome", o)));
    assert_eq!(outcome("done"), Some(2.0), "{prom}");
    assert_eq!(outcome("expired"), Some(1.0), "{prom}");
    assert_eq!(outcome("cancelled"), Some(1.0), "{prom}");
    assert_eq!(outcome("shed"), Some(0.0), "shed exported even when zero");

    // Transport counters and the always-exported drop counter.
    assert_eq!(
        value(&series, "mant_gateway_accepted_total", None),
        Some(4.0)
    );
    assert!(value(&series, "mant_tokens_generated_total", None).unwrap() > 0.0);
    assert_eq!(
        value(&series, "mant_trace_dropped_events_total", None),
        Some(0.0)
    );

    // Latency histograms: TTFT (pin + 2 done), E2E (2 done), queue wait
    // (3 admissions; the expired request never admitted).
    assert_eq!(check_hist(&series, "mant_ttft_seconds"), 3);
    assert_eq!(check_hist(&series, "mant_e2e_seconds"), 2);
    assert_eq!(check_hist(&series, "mant_queue_wait_seconds"), 3);

    // Tick-phase histograms, all five phases plus the whole tick.
    for phase in [
        "mant_tick_seconds",
        "mant_tick_expire_seconds",
        "mant_tick_admit_seconds",
        "mant_tick_compose_seconds",
        "mant_tick_step_seconds",
        "mant_tick_advance_seconds",
    ] {
        assert!(check_hist(&series, phase) > 0, "{phase} never recorded");
    }

    // Per-tick kernel buckets from inside BatchRunner::step.
    for kernel in [
        "mant_kernel_gemm_seconds",
        "mant_kernel_attn_seconds",
        "mant_kernel_gemv_seconds",
        "mant_kernel_kv_quant_seconds",
    ] {
        assert!(check_hist(&series, kernel) > 0, "{kernel} never recorded");
    }

    // Row counters: every stepped row is a logit row or a KV-only one
    // (prompts of 6-8 tokens have mid-prompt rows, so some are). The
    // engine is idle by now, so the three counts are of the same ticks.
    let rows = |kind: &str| {
        value(&series, &format!("mant_rows_{kind}_total"), None)
            .unwrap_or_else(|| panic!("mant_rows_{kind}_total missing: {prom}"))
    };
    assert!(rows("kv_only") > 0.0, "{prom}");
    assert_eq!(rows("stepped"), rows("logits") + rows("kv_only"), "{prom}");

    for gauge in [
        "mant_queue_depth",
        "mant_sequences_active",
        "mant_pool_used_blocks",
        "mant_pool_free_blocks",
    ] {
        assert!(
            value(&series, gauge, None).is_some(),
            "{gauge} missing: {prom}"
        );
    }

    // ---- The final report carries the same aggregate plus raw events ----
    assert_eq!(report.accepted, 4);
    assert_eq!(report.metrics.counters.get("requests.done"), Some(&2));
    assert_eq!(report.metrics.counters.get("requests.expired"), Some(&1));
    assert_eq!(report.metrics.counters.get("requests.cancelled"), Some(&1));
    let bd = &report.serve.breakdown;
    assert_eq!(bd.ttft.count, 3);
    assert_eq!(bd.e2e.count, 2);
    assert_eq!(bd.queue_wait.count, 3);
    assert!(bd.tick.count > 0 && bd.step.count > 0);
    // Phase durations nest inside the tick by construction.
    assert!(bd.step.sum <= bd.tick.sum, "step time exceeds tick time");

    // ---- Chrome trace: spans nest exactly; the dump is valid JSON ----
    assert!(
        !report.trace_events.is_empty(),
        "traced run kept raw events"
    );
    let spans = mant_trace::validate_spans(&report.trace_events)
        .unwrap_or_else(|e| panic!("spans must nest: {e}"));
    assert!(spans > 0);
    let dump = mant_trace::chrome_trace_json(&report.trace_events);
    let parsed = Json::parse(&dump).expect("chrome dump is valid JSON");
    let Some(Json::Arr(events)) = parsed.get("traceEvents").cloned() else {
        panic!("chrome dump must carry a traceEvents array");
    };
    let name_of = |e: &Json| match e.get("name") {
        Some(Json::Str(s)) => s.clone(),
        _ => String::new(),
    };
    let ph_of = |e: &Json| match e.get("ph") {
        Some(Json::Str(s)) => s.clone(),
        _ => String::new(),
    };
    assert!(
        events.iter().any(|e| ph_of(e) == "M"),
        "thread_name metadata events present"
    );
    for expected in ["tick", "tick.step", "kernel.gemm", "request"] {
        assert!(
            events
                .iter()
                .any(|e| ph_of(e) == "X" && name_of(e) == expected),
            "chrome dump missing an X event named {expected}"
        );
    }
}
