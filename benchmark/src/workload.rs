//! The four serving workloads: what each sends, how it arrives, and the
//! latency limits a request must meet. Shapes are constants of the
//! benchmark (the reference box has two cores: the generator is at most
//! two blocking client connections), never derived from the host.

use crate::rng::{arrivals, poisson_gaps, stratified_lengths, Rng};

/// Which statistics a request contributes to on `mixed_long`; every other
/// workload has the single class `Prompt`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// TTFT and E2E statistics are taken over these.
    Prompt,
    /// Inter-token and stall statistics are taken over these (long
    /// decodes co-running with the prompts).
    Stream,
}

/// How requests reach the engine.
#[derive(Clone, Debug, PartialEq)]
pub enum Arrival {
    /// Open loop: request `i` is due `due_s[i]` seconds after the round
    /// starts whether or not earlier ones finished; at most
    /// [`CLIENTS`] are in flight.
    Open { due_s: Vec<f64> },
    /// Closed loop: each lane sends its next request when its previous
    /// stream ends.
    Closed { lanes: Vec<Vec<usize>> },
    /// Offline batch: everything is submitted before the first tick.
    Batch,
}

/// Concurrent blocking client connections (and gateway workers).
pub const CLIENTS: usize = 2;
/// A gap between two tokens of one stream longer than this is a stall.
pub const STALL_MS: f64 = 10.0;

#[derive(Clone, Debug)]
pub struct Request {
    pub prompt: Vec<usize>,
    pub max_new_tokens: usize,
    pub class: Class,
    /// The JSON body a client posts for this request.
    pub body: String,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    ShortChat,
    LongPrompt,
    MixedLong,
    PrefixBatch,
}

/// One workload: constants plus the reason it exists (mirrored in
/// `BENCHMARK.json`).
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub kind: Kind,
    pub name: &'static str,
    /// Over loopback sockets through the gateway, or `ServeEngine`
    /// in-process.
    pub via_gateway: bool,
    pub pool_blocks: usize,
    pub prefix_sharing: bool,
    /// A request meets its limit when TTFT and mean inter-token gap are
    /// both within these (3–4× the quiet-box values).
    pub slo_ttft_ms: f64,
    pub slo_gap_ms: f64,
}

pub const SPECS: [Spec; 4] = [
    Spec {
        kind: Kind::ShortChat,
        name: "short_chat",
        via_gateway: true,
        pool_blocks: 96,
        prefix_sharing: false,
        slo_ttft_ms: 150.0,
        slo_gap_ms: 3.0,
    },
    Spec {
        kind: Kind::LongPrompt,
        name: "long_prompt",
        via_gateway: true,
        pool_blocks: 96,
        prefix_sharing: false,
        slo_ttft_ms: 1500.0,
        slo_gap_ms: 5.0,
    },
    Spec {
        kind: Kind::MixedLong,
        name: "mixed_long",
        via_gateway: true,
        pool_blocks: 96,
        prefix_sharing: false,
        slo_ttft_ms: 1500.0,
        slo_gap_ms: 5.0,
    },
    Spec {
        kind: Kind::PrefixBatch,
        name: "prefix_batch",
        via_gateway: false,
        pool_blocks: 32,
        prefix_sharing: true,
        slo_ttft_ms: 15_000.0,
        slo_gap_ms: 10.0,
    },
];

pub fn spec_by_name(name: &str) -> Option<Spec> {
    SPECS.iter().copied().find(|s| s.name == name)
}

/// A workload's fixed request set and arrival discipline for one seed.
#[derive(Clone, Debug)]
pub struct RequestSet {
    pub requests: Vec<Request>,
    pub arrival: Arrival,
}

pub const VOCAB: usize = 512;

fn request(prompt: Vec<usize>, max_new_tokens: usize, class: Class) -> Request {
    let toks: Vec<String> = prompt.iter().map(|t| t.to_string()).collect();
    let body = format!(
        "{{\"prompt\":[{}],\"max_new_tokens\":{max_new_tokens}}}",
        toks.join(",")
    );
    Request {
        prompt,
        max_new_tokens,
        class,
        body,
    }
}

/// The generator that lays out every workload's traffic pattern: which
/// length, output length and inter-arrival gap follow which. One pattern
/// for every seed. Which requests meet in a batch follows from it, and a
/// median latency moved 5–8 % between patterns drawn per seed (112 to 32
/// requests a round), as much as the host moves it between quiet runs.
const PATTERN: u64 = 0x6d61_6e74;

fn rotated<T>(mut v: Vec<T>, by: usize) -> Vec<T> {
    let n = v.len();
    v.rotate_left(by % n);
    v
}

/// Builds the request set: the workload's traffic pattern entered at a
/// request the seed picks (and going round), with token contents the seed
/// draws. `shrink` divides the request counts (1 for a real run, 8 for
/// `--smoke`); lengths and rates never shrink.
pub fn build(kind: Kind, seed: u64, shrink: usize) -> RequestSet {
    let pattern = Rng::new(PATTERN).fork(kind as u64 + 1);
    let (mut lens, mut outs, mut sched) = (pattern.fork(1), pattern.fork(2), pattern.fork(4));
    let seeded = Rng::new(seed).fork(kind as u64 + 1);
    let (mut toks, start) = (seeded.fork(3), seeded.fork(5).next_u64() as usize);
    let count = |n: usize| (n / shrink).max(1);
    match kind {
        Kind::ShortChat => {
            let n = count(32);
            let prompts = rotated(stratified_lengths(&mut lens, n, 16, 48), start);
            let outputs = rotated(stratified_lengths(&mut outs, n, 16, 48), start);
            RequestSet {
                requests: prompts
                    .iter()
                    .zip(&outputs)
                    .map(|(&p, &o)| request(toks.tokens(p, VOCAB), o, Class::Prompt))
                    .collect(),
                arrival: Arrival::Open {
                    due_s: arrivals(&rotated(poisson_gaps(&mut sched, n, 16.0), start)),
                },
            }
        }
        Kind::LongPrompt => {
            let n = count(6);
            let prompts = rotated(stratified_lengths(&mut lens, n, 384, 512), start);
            RequestSet {
                requests: prompts
                    .iter()
                    .map(|&p| request(toks.tokens(p, VOCAB), 8, Class::Prompt))
                    .collect(),
                arrival: Arrival::Closed {
                    lanes: (0..CLIENTS)
                        .map(|c| (c..n).step_by(CLIENTS).collect())
                        .collect(),
                },
            }
        }
        Kind::MixedLong => {
            let (streams, prompts) = (count(3), count(6));
            let plens = rotated(stratified_lengths(&mut lens, prompts, 384, 512), start);
            let mut requests: Vec<Request> = (0..streams)
                .map(|_| request(toks.tokens(32, VOCAB), 736, Class::Stream))
                .collect();
            requests.extend(
                plens
                    .iter()
                    .map(|&p| request(toks.tokens(p, VOCAB), 8, Class::Prompt)),
            );
            RequestSet {
                requests,
                arrival: Arrival::Closed {
                    lanes: vec![
                        (0..streams).collect(),
                        (streams..streams + prompts).collect(),
                    ],
                },
            }
        }
        Kind::PrefixBatch => {
            let personas = 4;
            let per_persona = count(12);
            let n = personas * per_persona;
            let system = toks.tokens(128, VOCAB);
            let persona_chains: Vec<Vec<usize>> =
                (0..personas).map(|_| toks.tokens(64, VOCAB)).collect();
            let uniques = rotated(stratified_lengths(&mut lens, n, 8, 32), start);
            let outputs = rotated(stratified_lengths(&mut outs, n, 24, 72), start);
            let mut order: Vec<usize> = (0..n).map(|i| i % personas).collect();
            sched.shuffle(&mut order);
            let order = rotated(order, start);
            RequestSet {
                requests: (0..n)
                    .map(|i| {
                        let mut prompt = system.clone();
                        prompt.extend_from_slice(&persona_chains[order[i]]);
                        prompt.extend(toks.tokens(uniques[i], VOCAB));
                        request(prompt, outputs[i], Class::Prompt)
                    })
                    .collect(),
                arrival: Arrival::Batch,
            }
        }
    }
}

/// The bytes a gateway worker reads off the socket for this request.
pub fn wire_bytes(r: &Request) -> Vec<u8> {
    format!(
        "POST /v1/generate HTTP/1.1\r\nHost: gateway\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{}",
        r.body.len(),
        r.body
    )
    .into_bytes()
}

/// The fixed sample of requests checked against `sequential_generate`:
/// up to eight indices spread evenly over the set.
pub fn oracle_sample(n: usize) -> Vec<usize> {
    let k = n.min(8);
    (0..k).map(|i| i * n / k).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_sets_are_a_function_of_the_seed() {
        for spec in SPECS {
            let (a, b, c) = (
                build(spec.kind, 11, 1),
                build(spec.kind, 11, 1),
                build(spec.kind, 12, 1),
            );
            let prompts = |s: &RequestSet| -> Vec<Vec<usize>> {
                s.requests.iter().map(|r| r.prompt.clone()).collect()
            };
            assert_eq!(prompts(&a), prompts(&b), "{}", spec.name);
            assert_eq!(a.arrival, b.arrival, "{}", spec.name);
            assert_ne!(prompts(&a), prompts(&c), "{}", spec.name);
        }
    }

    #[test]
    fn every_seed_enters_one_pattern_at_another_request() {
        let shape = |s: &RequestSet| -> Vec<(usize, usize)> {
            s.requests
                .iter()
                .map(|r| (r.prompt.len(), r.max_new_tokens))
                .collect()
        };
        for spec in SPECS {
            let (mut a, mut b) = (
                shape(&build(spec.kind, 11, 1)),
                shape(&build(spec.kind, 12, 1)),
            );
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "{}", spec.name);
        }
        // On the open loop a request keeps its lengths, the gap before it
        // and its neighbours, so the same requests meet in a batch.
        let triples = |seed: u64| -> Vec<(usize, usize, u64)> {
            let set = build(Kind::ShortChat, seed, 1);
            let Arrival::Open { due_s } = &set.arrival else {
                panic!("short_chat is open loop")
            };
            let gaps = due_s.iter().scan(0.0, |at, &due| {
                let gap = due - *at;
                *at = due;
                Some((gap * 1e9).round() as u64)
            });
            shape(&set)
                .into_iter()
                .zip(gaps)
                .map(|((p, o), g)| (p, o, g))
                .collect()
        };
        let (a, b) = (triples(11), triples(12));
        assert_ne!(a, b);
        assert!((0..a.len()).any(|by| rotated(b.clone(), by) == a));
    }

    #[test]
    fn shapes_match_the_stated_workloads() {
        let chat = build(Kind::ShortChat, 1, 1);
        assert_eq!(chat.requests.len(), 32);
        assert!(chat
            .requests
            .iter()
            .all(|r| (16..=48).contains(&r.prompt.len()) && (16..=48).contains(&r.max_new_tokens)));
        let Arrival::Open { due_s } = &chat.arrival else {
            panic!("short_chat is open loop")
        };
        assert_eq!(due_s.len(), 32);

        let long = build(Kind::LongPrompt, 1, 1);
        assert_eq!(long.requests.len(), 6);
        assert!(long
            .requests
            .iter()
            .all(|r| (384..=512).contains(&r.prompt.len()) && r.max_new_tokens == 8));

        let mixed = build(Kind::MixedLong, 1, 1);
        let streams = mixed
            .requests
            .iter()
            .filter(|r| r.class == Class::Stream)
            .count();
        assert_eq!((streams, mixed.requests.len()), (3, 9));
        let Arrival::Closed { lanes } = &mixed.arrival else {
            panic!("mixed_long is closed loop")
        };
        assert!(lanes[0]
            .iter()
            .all(|&i| mixed.requests[i].class == Class::Stream));
        assert!(lanes[1]
            .iter()
            .all(|&i| mixed.requests[i].class == Class::Prompt));

        let batch = build(Kind::PrefixBatch, 1, 1);
        assert_eq!(batch.requests.len(), 48);
        assert!(batch.requests.iter().all(|r| {
            r.prompt[..128] == batch.requests[0].prompt[..128]
                && (200..=224).contains(&r.prompt.len())
        }));
        assert_eq!(build(Kind::PrefixBatch, 1, 8).requests.len(), 4);
    }

    #[test]
    fn bodies_parse_back_to_the_request() {
        let set = build(Kind::ShortChat, 9, 8);
        for r in &set.requests {
            let parsed = mant_gateway::GenerateBody::parse(r.body.as_bytes()).unwrap();
            assert_eq!(parsed.prompt, r.prompt);
            assert_eq!(parsed.max_new_tokens, r.max_new_tokens);
        }
    }

    #[test]
    fn oracle_sample_is_fixed_and_in_range() {
        assert_eq!(oracle_sample(24), vec![0, 3, 6, 9, 12, 15, 18, 21]);
        assert_eq!(oracle_sample(3), vec![0, 1, 2]);
    }
}
