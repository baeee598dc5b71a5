//! Serving requests, their completed records, and typed submission
//! rejections.

use std::fmt;

use mant_sim::{SharedPrefixRequest, TraceRequest};
use mant_tensor::TensorGenerator;

/// One generation request: a prompt to prefill and a number of tokens to
/// decode greedily.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GenRequest {
    /// Caller-chosen identifier, echoed in the [`Completion`].
    pub id: u64,
    /// Prompt token ids (non-empty).
    pub prompt: Vec<usize>,
    /// Tokens to generate after the prompt (≥ 1).
    pub max_new_tokens: usize,
    /// Arrival time in engine iterations; the scheduler will not admit the
    /// request earlier.
    pub arrival_iter: u64,
    /// Engine-clock deadline: the request must finish *before* this
    /// iteration. Once the clock reaches it the request is cancelled —
    /// while still queued it is removed without ever being ticked, and a
    /// running sequence releases its pool blocks mid-generation. `None`
    /// means no deadline. The clock counts engine iterations, and an
    /// iteration advances a sequence by up to a run of prompt tokens, not
    /// by one. (Wall-clock deadlines — the gateway's
    /// `deadline_ms` — are enforced by the caller via
    /// [`ServeEngine::expire`](crate::ServeEngine::expire) instead.)
    pub deadline_iter: Option<u64>,
}

impl GenRequest {
    /// Total tokens the request pushes through the engine over its
    /// lifetime (prompt + generated) — the admission-control quantity.
    pub fn total_tokens(&self) -> usize {
        self.prompt.len() + self.max_new_tokens
    }
}

/// Why a request was refused at submission time. Work that can never
/// produce a token is rejected here — with a reason the caller can turn
/// into an error reply — instead of being admitted to deadlock or panic
/// the queue later.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The prompt holds no tokens; there is nothing to prefill.
    EmptyPrompt {
        /// The offending request's id.
        id: u64,
    },
    /// `max_new_tokens` is 0; the request could never produce a token.
    ZeroNewTokens {
        /// The offending request's id.
        id: u64,
    },
    /// A prompt token is outside the model's vocabulary.
    TokenOutOfVocab {
        /// The offending request's id.
        id: u64,
        /// The out-of-range token.
        token: usize,
        /// The model's vocabulary size.
        vocab: usize,
    },
    /// The request's lifetime block demand exceeds the whole pool — it
    /// could never be admitted, and waiting for it would deadlock the
    /// FCFS queue behind it.
    ExceedsPool {
        /// The offending request's id.
        id: u64,
        /// Blocks the request's lifetime needs.
        need: usize,
        /// Total blocks the pool holds.
        capacity: usize,
    },
    /// A request with this id is already in flight; ids key the
    /// preemption carry state, so a duplicate would cross-wire two
    /// requests' progress.
    DuplicateId {
        /// The duplicated id.
        id: u64,
    },
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            SubmitError::EmptyPrompt { id } => write!(f, "request {id} has an empty prompt"),
            SubmitError::ZeroNewTokens { id } => write!(f, "request {id} asks for zero tokens"),
            SubmitError::TokenOutOfVocab { id, token, vocab } => write!(
                f,
                "request {id} holds out-of-vocabulary token {token} (vocab {vocab})"
            ),
            SubmitError::ExceedsPool { id, need, capacity } => write!(
                f,
                "request {id} needs {need} blocks but the pool holds only {capacity}; \
                 enlarge the pool or shorten the request"
            ),
            SubmitError::DuplicateId { id } => write!(
                f,
                "request id {id} is already in flight; ids must be unique until completion"
            ),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Materializes a [`mant_sim::trace`] workload into concrete requests:
/// prompt token ids are drawn deterministically from `seed`, so equal
/// `(trace, vocab, seed)` always yield identical requests.
pub fn requests_from_trace(trace: &[TraceRequest], vocab: usize, seed: u64) -> Vec<GenRequest> {
    let mut gen = TensorGenerator::new(seed);
    trace
        .iter()
        .enumerate()
        .map(|(i, t)| GenRequest {
            id: i as u64,
            prompt: (0..t.prompt_len).map(|_| gen.token(vocab)).collect(),
            max_new_tokens: t.output_len,
            arrival_iter: t.arrival_iter,
            deadline_iter: None,
        })
        .collect()
}

/// Materializes a shared-prefix workload ([`mant_sim::shared_prefix_trace`])
/// into concrete requests whose prompts really share token contents:
/// every prompt is `system ++ persona ++ unique` with one system chain
/// common to all requests, one chain per persona, and a per-request
/// unique tail — all drawn deterministically from `seed`, so equal
/// `(cfg, trace, vocab, seed)` yield identical requests (and identical
/// shareable prefixes).
///
/// # Panics
///
/// Panics if `trace` was not generated from `cfg` (a request's persona
/// index or prompt split disagrees with the config).
pub fn requests_from_shared_trace(
    cfg: &mant_sim::SharedPrefixConfig,
    trace: &[SharedPrefixRequest],
    vocab: usize,
    seed: u64,
) -> Vec<GenRequest> {
    let mut gen = TensorGenerator::new(seed);
    let system: Vec<usize> = (0..cfg.system_prompt_len)
        .map(|_| gen.token(vocab))
        .collect();
    let personas: Vec<Vec<usize>> = (0..cfg.personas)
        .map(|_| {
            (0..cfg.persona_prompt_len)
                .map(|_| gen.token(vocab))
                .collect()
        })
        .collect();
    trace
        .iter()
        .enumerate()
        .map(|(i, r)| {
            assert!(
                r.persona < cfg.personas
                    && r.trace.prompt_len
                        == cfg.system_prompt_len + cfg.persona_prompt_len + r.unique_len,
                "trace request {i} does not match the shared-prefix config"
            );
            let mut prompt = system.clone();
            prompt.extend_from_slice(&personas[r.persona]);
            prompt.extend((0..r.unique_len).map(|_| gen.token(vocab)));
            GenRequest {
                id: i as u64,
                prompt,
                max_new_tokens: r.trace.output_len,
                arrival_iter: r.trace.arrival_iter,
                deadline_iter: None,
            }
        })
        .collect()
}

/// A finished request: what was generated and when.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Completion {
    /// The request's id.
    pub id: u64,
    /// Prompt length, for accounting.
    pub prompt_len: usize,
    /// The greedily generated tokens (`max_new_tokens` of them).
    pub tokens: Vec<usize>,
    /// When the request arrived (engine iterations).
    pub arrival_iter: u64,
    /// Iteration at which the request was first admitted into the running
    /// batch (queueing delay ends here; preemptions do not reset it).
    pub admitted_iter: u64,
    /// Iteration at which the first generated token was produced.
    pub first_token_iter: u64,
    /// Iteration at which the last generated token was produced.
    pub finish_iter: u64,
}

impl Completion {
    /// Queueing delay — submit to first admission, in engine iterations.
    pub fn queue_iters(&self) -> u64 {
        self.admitted_iter - self.arrival_iter
    }

    /// Time to first token, in engine iterations (queueing + prefill).
    pub fn ttft_iters(&self) -> u64 {
        self.first_token_iter - self.arrival_iter
    }

    /// End-to-end latency, in engine iterations.
    pub fn e2e_iters(&self) -> u64 {
        self.finish_iter - self.arrival_iter
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_materialization_is_deterministic_and_in_vocab() {
        let trace = [
            TraceRequest {
                arrival_iter: 0,
                prompt_len: 5,
                output_len: 3,
            },
            TraceRequest {
                arrival_iter: 7,
                prompt_len: 2,
                output_len: 9,
            },
        ];
        let a = requests_from_trace(&trace, 512, 42);
        let b = requests_from_trace(&trace, 512, 42);
        assert_eq!(a, b);
        assert_ne!(a, requests_from_trace(&trace, 512, 43));
        assert_eq!(a[0].prompt.len(), 5);
        assert_eq!(a[1].arrival_iter, 7);
        assert_eq!(a[1].total_tokens(), 11);
        assert!(a.iter().all(|r| r.prompt.iter().all(|&t| t < 512)));
    }

    #[test]
    fn latency_accessors() {
        let c = Completion {
            id: 0,
            prompt_len: 4,
            tokens: vec![1, 2],
            arrival_iter: 10,
            admitted_iter: 12,
            first_token_iter: 14,
            finish_iter: 16,
        };
        assert_eq!(c.queue_iters(), 2);
        assert_eq!(c.ttft_iters(), 4);
        assert_eq!(c.e2e_iters(), 6);
    }

    #[test]
    fn shared_trace_materialization_really_shares_prefixes() {
        use mant_sim::{shared_prefix_trace, LengthDist, SharedPrefixConfig};
        let cfg = SharedPrefixConfig {
            personas: 2,
            requests_per_persona: 3,
            system_prompt_len: 8,
            persona_prompt_len: 4,
            unique_prompt_len: LengthDist::Uniform { lo: 1, hi: 5 },
            output: LengthDist::Fixed(3),
            arrivals_per_iter: 0.5,
            seed: 5,
        };
        let trace = shared_prefix_trace(&cfg);
        let reqs = requests_from_shared_trace(&cfg, &trace, 512, 6);
        assert_eq!(reqs, requests_from_shared_trace(&cfg, &trace, 512, 6));
        assert_eq!(reqs.len(), 6);
        // All requests share the 8-token system prefix; same-persona
        // requests share 12 tokens; cross-persona pairs diverge at 8.
        for r in &reqs {
            assert_eq!(&r.prompt[..8], &reqs[0].prompt[..8]);
            assert!(r.prompt.iter().all(|&t| t < 512));
        }
        assert_eq!(&reqs[0].prompt[..12], &reqs[2].prompt[..12]);
        assert_ne!(&reqs[0].prompt[8..12], &reqs[1].prompt[8..12]);
        // Unique tails differ even within a persona.
        assert_ne!(reqs[0].prompt, reqs[2].prompt);
    }
}
