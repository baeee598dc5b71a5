//! Batch-capable execution over the quantized backend — the model-side
//! engine of the continuous-batching serving runtime.
//!
//! A [`BatchRunner`] owns one paged KV-cache pool (`mant_quant::pool`) and
//! a slab of per-sequence sessions. It has **one** forward pass,
//! [`BatchRunner::step_runs`], over a ragged batch of [`Run`]s — each a
//! session and the consecutive tokens it is fed: one for a decode step
//! ([`BatchRunner::step`] is that adapter), a chunk of a prompt or of a
//! post-preemption replay, the candidates of a speculative verify
//! ([`BatchRunner::step_multi`]; drafting, acceptance and rollback are the
//! caller's — rollback is [`BatchRunner::truncate_session`]):
//!
//! - linear projections run the **multi-query packed GEMM**
//!   ([`crate::QuantizedLinear::matmul`]) over every row of every run:
//!   each weight tile is decoded to integer operands once and swept across
//!   all rows' INT8 activations, so a prefill chunk is matrix–matrix work
//!   and not one GEMV per token;
//! - attention runs per run over the session's pooled packed cache —
//!   ragged context lengths batch naturally because `Q·Kᵀ`/`P·V` never
//!   materialize a rectangular score matrix. Within a run each row is
//!   pushed, then attends; the rows cached before the run began are swept
//!   once for all its queries ([`mant_quant::pool::RunAttention`]), and a
//!   run too short to pay for that attends one query at a time
//!   ([`mant_quant::pool::attention_incremental_paged`]);
//! - the **last layer is demand-driven**: every row's K/V projections and
//!   cache push run, but the query projection, attention, `wo` and the FFN
//!   run only for the rows whose logits the caller asks for
//!   ([`Run::logit_rows`]), and so does the f32 LM head
//!   ([`mant_tensor::matvec_batch`]). A row's K/V depend only on the
//!   layer's input, and nothing reads the last layer's hidden state of a
//!   row without logits — so a mid-prompt chunk pays for one layer's K/V
//!   work less than `layers` whole layers, and nothing observable moves.
//!
//! Every per-sequence floating-point operation is executed in the same
//! order as the sequential [`crate::ModelRunner`] on the same backend —
//! which stays a separate implementation because it is the oracle this
//! one is tested against — so every row of every run is **bit-identical**
//! to feeding the same tokens through independent single-sequence runs,
//! however a stream is cut into runs; sequences can join and leave the
//! batch at any iteration without perturbing the others.
//!
//! # Prefix sharing
//!
//! Packed KV blocks are immutable once full, so the runner can snapshot a
//! session's cache state at a block boundary ([`BatchRunner::register_prefix`])
//! and later open new sessions **on top of those very blocks**
//! ([`BatchRunner::create_session_with_prefix`]): requests with a common
//! system prompt skip recomputing the shared prefill entirely, and the
//! continuation is bit-identical to a from-scratch run because the
//! snapshot captures exactly the deterministic per-sequence state (block
//! list + V staging scales) a fresh prefill of the same tokens would
//! reach. [`BatchRunner::fork_session`] is the general primitive: a live
//! session forked at *any* length, copy-on-write on the trailing partial
//! block.

use std::collections::HashMap;

use mant_quant::pool::{
    attention_incremental_paged, KvCachePool, PagedKvCache, PoolConfig, RunAttention,
};
use mant_quant::{quantize_vector_int8, QuantizedVector, VarianceMap};
use mant_tensor::matvec_batch;
use mant_tensor::ops::{gelu, rmsnorm, silu};

use crate::backend::PackedWeights;
use crate::config::FfnKind;
use crate::layers::{ActMode, KvMode, TransformerModel};

/// Handle to one generation session inside a [`BatchRunner`]. Carries a
/// nonce so a handle kept past [`BatchRunner::end_session`] is detected
/// rather than silently aliasing a recycled slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SessionId {
    slot: usize,
    nonce: u64,
}

/// One session's share of a [`BatchRunner::step_runs`] forward pass:
/// consecutive tokens fed to the session in one go.
#[derive(Clone, Copy, Debug)]
pub struct Run<'a> {
    /// The session the tokens extend.
    pub id: SessionId,
    /// The tokens, in feed order; at least one.
    pub tokens: &'a [usize],
    /// How many of the run's **last** rows get next-token logits: 0 for a
    /// mid-prompt chunk, 1 for a decode step or the chunk that ends a
    /// prompt, all of them for a speculative verify pass. The other rows
    /// are **KV-only**: they are cached in every layer, but the last layer
    /// stops after their K/V projections — no query, attention, `wo`, FFN
    /// or LM head.
    pub logit_rows: usize,
}

/// Per-sequence state: one pooled KV cache per layer.
struct Session {
    nonce: u64,
    caches: Vec<PagedKvCache>,
    seq_len: usize,
}

/// One registered prompt prefix: the exact token chain (hash collisions
/// are verified away) plus per-layer cache snapshots holding the shared
/// blocks alive. Snapshots are taken at block boundaries, where the V
/// staging window is empty and the only carried per-sequence state is the
/// deterministic channel-scale vector — which is why a session forked
/// from a snapshot continues bit-identically to a from-scratch prefill.
struct PrefixEntry {
    tokens: Vec<usize>,
    caches: Vec<PagedKvCache>,
    /// Last-used tick for LRU eviction under pool pressure.
    lru: u64,
}

/// FNV-1a over a token chain — the prefix-trie key.
fn prefix_hash(tokens: &[usize]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &t in tokens {
        h ^= t as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Continuous-batching executor over the quantized backend: shared packed
/// weights, a paged KV-cache pool, and a session slab. See the module docs
/// for the execution contract.
pub struct BatchRunner<'m> {
    model: &'m TransformerModel,
    packed: &'m PackedWeights,
    kmap: VarianceMap,
    vmap: VarianceMap,
    kv_group: usize,
    pool: KvCachePool,
    slots: Vec<Option<Session>>,
    free_slots: Vec<usize>,
    next_nonce: u64,
    /// Prefix trie: hash of a block-aligned token chain → shared blocks.
    prefixes: HashMap<u64, PrefixEntry>,
    /// Monotone clock for prefix LRU bookkeeping.
    prefix_clock: u64,
}

impl TransformerModel {
    /// Creates a batch runner over the quantized execution backend with a
    /// paged KV pool of `blocks` blocks of `block_tokens` token slots
    /// (per sequence, per layer). Mode validation is exactly
    /// [`TransformerModel::packed_runner`]'s; additionally `kv` must be a
    /// quantized cache mode ([`KvMode::Int4`] / [`KvMode::Mant4`]) — the
    /// paged pool stores packed groups, not f32 rows. For
    /// [`KvMode::Mant4`] the self-calibrated variance maps are shared with
    /// the sequential runner (cached per model instance), so both engines
    /// quantize identically.
    ///
    /// # Panics
    ///
    /// Panics on any shape/mode mismatch [`TransformerModel::packed_runner`]
    /// rejects, on `kv == KvMode::Fp16`, or on an invalid pool geometry
    /// (`block_tokens` must be a positive multiple of the KV group size).
    pub fn batch_runner<'m>(
        &'m self,
        packed: &'m PackedWeights,
        act: ActMode,
        kv: KvMode,
        blocks: usize,
        block_tokens: usize,
    ) -> BatchRunner<'m> {
        self.validate_packed_setup(packed, act, kv);
        let (kv_group, kmap, vmap) = match kv {
            KvMode::Fp16 => panic!(
                "the batch runner serves packed caches only; pick a quantized KV mode \
                 (KvMode::Int4 / KvMode::Mant4)"
            ),
            KvMode::Int4 { group } => {
                let map = crate::layers::int4_kv_map();
                (group, map.clone(), map)
            }
            KvMode::Mant4 { group } => {
                let (kmap, vmap) = self.kv_maps(group);
                (group, kmap, vmap)
            }
        };
        let pool = KvCachePool::new(PoolConfig {
            kv_dim: self.config.kv_dim(),
            group_size: kv_group,
            block_tokens,
            blocks,
        })
        .expect("valid paged-pool geometry");
        BatchRunner {
            model: self,
            packed,
            kmap,
            vmap,
            kv_group,
            pool,
            slots: Vec::new(),
            free_slots: Vec::new(),
            next_nonce: 0,
            prefixes: HashMap::new(),
            prefix_clock: 0,
        }
    }
}

impl BatchRunner<'_> {
    /// Opens a session. No pool block is reserved until its first step.
    pub fn create_session(&mut self) -> SessionId {
        let caches = (0..self.model.config.layers)
            .map(|_| PagedKvCache::new(&self.pool, self.kmap.clone(), self.vmap.clone()))
            .collect();
        self.insert_session(caches, 0)
    }

    fn insert_session(&mut self, caches: Vec<PagedKvCache>, seq_len: usize) -> SessionId {
        let nonce = self.next_nonce;
        self.next_nonce += 1;
        let session = Session {
            nonce,
            caches,
            seq_len,
        };
        let slot = match self.free_slots.pop() {
            Some(slot) => {
                self.slots[slot] = Some(session);
                slot
            }
            None => {
                self.slots.push(Some(session));
                self.slots.len() - 1
            }
        };
        SessionId { slot, nonce }
    }

    /// Forks a live session at its current length: the child shares every
    /// cache block (copy-on-write past the fork point) and continues
    /// bit-identically to an independent sequence fed the same tokens.
    /// Allocates no pool block.
    ///
    /// # Panics
    ///
    /// Panics if `parent` is stale or unknown.
    pub fn fork_session(&mut self, parent: SessionId) -> SessionId {
        self.check(parent);
        let (slots, pool) = (&self.slots, &mut self.pool);
        let p = slots[parent.slot].as_ref().expect("checked above");
        let caches: Vec<PagedKvCache> = p.caches.iter().map(|c| c.fork(pool)).collect();
        let seq_len = p.seq_len;
        self.insert_session(caches, seq_len)
    }

    /// Registers `id`'s current cache state as a shareable prompt prefix
    /// for `tokens` — the session must have processed exactly those
    /// tokens, and their count must be a positive multiple of the pool's
    /// block size (so every shared block is full and immutable, and the V
    /// staging window is empty). The snapshot holds the blocks alive (via
    /// refcounts) even after the donor session ends. Returns `false` if
    /// the prefix was already registered (nothing is re-snapshotted).
    ///
    /// # Panics
    ///
    /// Panics if `id` is stale/unknown, if `tokens.len()` differs from the
    /// session's length, or if the length is not block-aligned.
    pub fn register_prefix(&mut self, id: SessionId, tokens: &[usize]) -> bool {
        self.check(id);
        let bt = self.pool.block_tokens();
        assert!(
            !tokens.is_empty() && tokens.len().is_multiple_of(bt),
            "a shareable prefix must be a positive multiple of the block size ({bt} tokens), \
             got {}",
            tokens.len()
        );
        let session = self.slots[id.slot].as_ref().expect("checked above");
        assert_eq!(
            session.seq_len,
            tokens.len(),
            "prefix registration must happen exactly at the boundary the session sits on"
        );
        let h = prefix_hash(tokens);
        if let Some(entry) = self.prefixes.get(&h) {
            assert_eq!(entry.tokens, tokens, "prefix hash collision");
            return false;
        }
        let (slots, pool) = (&self.slots, &mut self.pool);
        let caches: Vec<PagedKvCache> = slots[id.slot]
            .as_ref()
            .expect("checked above")
            .caches
            .iter()
            .map(|c| c.fork(pool))
            .collect();
        self.prefix_clock += 1;
        self.prefixes.insert(
            h,
            PrefixEntry {
                tokens: tokens.to_vec(),
                caches,
                lru: self.prefix_clock,
            },
        );
        true
    }

    /// Length of the longest registered prefix of `tokens` (0 if none).
    /// Only block-aligned lengths can match, and the stored token chain is
    /// compared exactly, so a hash collision can never alias prefixes.
    pub fn cached_prefix_len(&self, tokens: &[usize]) -> usize {
        let bt = self.pool.block_tokens();
        let mut k = (tokens.len() / bt) * bt;
        while k > 0 {
            if let Some(entry) = self.prefixes.get(&prefix_hash(&tokens[..k])) {
                if entry.tokens == tokens[..k] {
                    return k;
                }
            }
            k -= bt;
        }
        0
    }

    /// Opens a session seeded from the longest registered prefix of
    /// `tokens`: the new session starts at that length, sharing the
    /// prefix's physical blocks (no pool allocation, no recompute), and is
    /// bit-identical from there on to a fresh session fed the same
    /// tokens. Returns the session and the number of tokens already
    /// cached (0 when nothing matched — then this is exactly
    /// [`BatchRunner::create_session`]).
    pub fn create_session_with_prefix(&mut self, tokens: &[usize]) -> (SessionId, usize) {
        let k = self.cached_prefix_len(tokens);
        if k == 0 {
            return (self.create_session(), 0);
        }
        self.prefix_clock += 1;
        let clock = self.prefix_clock;
        let entry = self
            .prefixes
            .get_mut(&prefix_hash(&tokens[..k]))
            .expect("lookup just matched");
        entry.lru = clock;
        let pool = &mut self.pool;
        let caches: Vec<PagedKvCache> = entry.caches.iter().map(|c| c.fork(pool)).collect();
        (self.insert_session(caches, k), k)
    }

    /// Drops the least-recently-used prefix snapshot **whose eviction
    /// frees at least one block** (it solely holds some block); snapshots
    /// that only alias blocks still held by live sessions or longer
    /// snapshots cost nothing and are kept — they are what makes
    /// preemption recovery cheap. Returns `false` when no registered
    /// snapshot would free memory. The serving engine calls this under
    /// pool pressure before resorting to preempting a running sequence;
    /// once nothing is running, every remaining snapshot is a sole holder,
    /// so repeated calls always drain the cache completely.
    pub fn evict_lru_prefix(&mut self) -> bool {
        let mut candidates: Vec<(u64, u64)> = self
            .prefixes
            .iter()
            .filter(|(_, e)| e.caches.iter().any(|c| c.holds_sole_reference(&self.pool)))
            .map(|(&h, e)| (e.lru, h))
            .collect();
        candidates.sort_unstable();
        let Some(&(_, h)) = candidates.first() else {
            return false;
        };
        let mut entry = self.prefixes.remove(&h).expect("key just found");
        for cache in &mut entry.caches {
            cache.release(&mut self.pool);
        }
        true
    }

    /// Registered prefix snapshots.
    pub fn prefix_entries(&self) -> usize {
        self.prefixes.len()
    }

    /// Free blocks the next one-token step will consume for session `id` —
    /// fresh boundary blocks plus copy-on-write copies, summed over
    /// layers. The watermark scheduler sums this across the batch to
    /// decide whether an iteration can proceed or must preempt. A longer
    /// run that stays inside the session's current block needs exactly as
    /// many ([`BatchRunner::blocks_needed_for_run`]).
    ///
    /// # Panics
    ///
    /// Panics if `id` is stale or unknown.
    pub fn blocks_needed_for_step(&self, id: SessionId) -> usize {
        self.blocks_needed_for_run(id, 1)
    }

    /// Free blocks a run of `n` tokens will consume for session `id`: a
    /// fresh block per boundary crossed plus the copy-on-write copy of a
    /// shared partial block, summed over layers.
    ///
    /// # Panics
    ///
    /// Panics if `id` is stale or unknown.
    pub fn blocks_needed_for_run(&self, id: SessionId, n: usize) -> usize {
        self.check(id);
        let session = self.slots[id.slot].as_ref().expect("checked above");
        session
            .caches
            .iter()
            .map(|c| c.blocks_needed_for_pushes(&self.pool, n))
            .sum()
    }

    /// Closes a session, returning every cache block it held to the pool.
    ///
    /// # Panics
    ///
    /// Panics if `id` is stale or unknown.
    pub fn end_session(&mut self, id: SessionId) {
        self.check(id);
        let mut session = self.slots[id.slot].take().expect("checked above");
        for cache in &mut session.caches {
            cache.release(&mut self.pool);
        }
        self.free_slots.push(id.slot);
    }

    /// Number of open sessions.
    pub fn active_sessions(&self) -> usize {
        self.slots.iter().flatten().count()
    }

    /// Tokens processed so far by session `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is stale or unknown.
    pub fn seq_len(&self, id: SessionId) -> usize {
        self.check(id);
        self.slots[id.slot].as_ref().expect("checked above").seq_len
    }

    /// The shared paged KV-cache pool (free/used blocks, bit accounting).
    pub fn pool(&self) -> &KvCachePool {
        &self.pool
    }

    /// Pool blocks one sequence needs over its whole lifetime to cache
    /// `tokens` tokens — one paged cache per layer: what submission checks
    /// against the whole pool, and admission against its free list.
    pub fn blocks_for_request(&self, tokens: usize) -> usize {
        self.model.config.layers * self.pool.blocks_for_tokens(tokens)
    }

    /// One forward pass over a ragged batch of **runs**: each [`Run`] feeds
    /// consecutive tokens to one session — one token for a decode step,
    /// a chunk of a prompt, a replayed span, the candidates of a
    /// speculative verify — and all rows of all runs share every linear
    /// layer's multi-query GEMM. Returns the logits of each run's last
    /// [`Run::logit_rows`] rows, run after run, in order (no row at all
    /// when no run asks for one). Rows that ask for none leave the last
    /// layer after their K/V are cached: its query projection, attention,
    /// `wo` and FFN, and the LM head, never see them.
    ///
    /// Every row is bit-identical to feeding the same tokens one at a time
    /// through the sequential [`TransformerModel::packed_runner`]. Within a
    /// layer each run's rows push and attend in order, so row `i` attends
    /// over exactly the rows a sequential run would hold and every
    /// V-window commit fires at the same row count; the cached rows a run
    /// found when it began are swept once for all its queries
    /// ([`RunAttention`]); a last-layer run with KV-only rows pushes them
    /// all and attends its few live rows one query at a time. Layer-major
    /// order changes nothing a causal transformer can observe.
    ///
    /// # Panics
    ///
    /// Panics if `runs` is empty, a run has no tokens or asks for more
    /// logit rows than it has, a session is listed twice, a [`SessionId`]
    /// is stale or a token out of vocabulary — or if the pool runs out of
    /// blocks mid-step, which the caller's budget
    /// ([`BatchRunner::blocks_needed_for_run`]) must prevent.
    pub fn step_runs(&mut self, runs: &[Run<'_>]) -> Vec<Vec<f32>> {
        // Chaos seam: the induced panic lands before any session or pool
        // mutation, so a catch_unwind caller sees fully consistent state.
        #[cfg(feature = "fault-inject")]
        if mant_trace::fault::fire(mant_trace::fault::site::BATCH_STEP) {
            panic!("injected fault: batch.step");
        }
        assert!(!runs.is_empty(), "empty batch");
        let cfg = &self.model.config;
        for (i, run) in runs.iter().enumerate() {
            self.check(run.id);
            assert!(!run.tokens.is_empty(), "empty token run");
            assert!(
                run.logit_rows <= run.tokens.len(),
                "a run of {} tokens cannot yield {} logit rows",
                run.tokens.len(),
                run.logit_rows
            );
            for &token in run.tokens {
                assert!(token < cfg.vocab, "token {token} out of vocabulary");
            }
            assert!(
                runs[..i].iter().all(|other| other.id != run.id),
                "session listed twice in one batch iteration"
            );
        }
        let w = &self.model.weights;
        let g = self.packed.group_size();

        // Per-tick aggregate kernel buckets: when tracing is on, each
        // kernel family accumulates nanoseconds across all layers and one
        // span per bucket is emitted at the end of the step — never one
        // per call.
        let prof = mant_trace::enabled();
        let (mut t_gemm, mut t_attn, mut t_kv, mut t_gemv) = (0u64, 0u64, 0u64, 0u64);

        let mut xs: Vec<Vec<f32>> = runs
            .iter()
            .flat_map(|run| run.tokens.iter())
            .map(|&token| w.embedding.row(token).to_vec())
            .collect();
        let (slots, pool) = (&mut self.slots, &mut self.pool);
        let (heads, kv_heads, head_dim) = (cfg.heads, cfg.kv_heads, cfg.head_dim());

        for (li, layer) in w.layers.iter().enumerate() {
            let pl = &self.packed.layers()[li];
            let last = li + 1 == w.layers.len();
            // Rows of `run` whose hidden state this layer must produce, its
            // last ones: a next layer reads every row, but after the last
            // layer only the rows that get logits are read, and a row's
            // K/V — all it leaves behind — come from the layer's input.
            let live_rows = |run: &Run<'_>| {
                if last {
                    run.logit_rows
                } else {
                    run.tokens.len()
                }
            };

            // --- Attention block ---
            let mut xqs = quantize_batch(xs.iter().map(|x| rmsnorm(x, &layer.attn_norm, 1e-5)), g);
            let (ks, vs) = timed(prof, &mut t_gemm, || {
                (pl.wk.matmul(&xqs), pl.wv.matmul(&xqs))
            });
            if last {
                // From here on `xs` and `xqs` hold the live rows only.
                let keep: Vec<bool> = runs
                    .iter()
                    .flat_map(|run| {
                        let dead = run.tokens.len() - live_rows(run);
                        (0..run.tokens.len()).map(move |j| j >= dead)
                    })
                    .collect();
                retain_rows(&mut xs, &keep);
                retain_rows(&mut xqs, &keep);
            }
            // An all-dead last layer has no query: a matmul over no rows
            // would still sweep every weight tile.
            let qs = if xqs.is_empty() {
                Vec::new()
            } else {
                timed(prof, &mut t_gemm, || pl.wq.matmul(&xqs))
            };
            let mut attns: Vec<Vec<f32>> = Vec::with_capacity(xs.len());
            let mut row0 = 0usize;
            for run in runs {
                let rows = row0..row0 + run.tokens.len();
                row0 = rows.end;
                // The run's live rows are `qs[q0..q0 + live]`.
                let (q0, live) = (attns.len(), live_rows(run));
                let dead = rows.len() - live;
                let cache = &mut slots[run.id.slot].as_mut().expect("validated above").caches[li];
                let mut push = |cache: &mut PagedKvCache, pool: &mut KvCachePool, r: usize| {
                    timed(prof, &mut t_kv, || {
                        if let Err(e) = cache.push(pool, &ks[r], &vs[r]) {
                            panic!(
                                "{e} during a forward step; the caller must budget the step's \
                                 blocks (blocks_needed_for_run) before scheduling it"
                            );
                        }
                    });
                };
                if dead > 0 || live < RunAttention::MIN_ROWS {
                    // Every row is pushed, in order; the live ones attend
                    // right after their own push, one query at a time.
                    for (j, r) in rows.enumerate() {
                        push(cache, pool, r);
                        if j >= dead {
                            attns.push(timed(prof, &mut t_attn, || {
                                attention_incremental_paged(
                                    &qs[q0 + j - dead],
                                    cache,
                                    pool,
                                    heads,
                                    kv_heads,
                                    head_dim,
                                )
                            }));
                        }
                    }
                } else {
                    let mut sweep = timed(prof, &mut t_attn, || {
                        RunAttention::begin(
                            &qs[q0..q0 + live],
                            cache,
                            pool,
                            heads,
                            kv_heads,
                            head_dim,
                        )
                    });
                    for (i, r) in rows.enumerate() {
                        push(cache, pool, r);
                        timed(prof, &mut t_attn, || sweep.attend_pushed(i, cache, pool));
                    }
                    attns.extend(timed(prof, &mut t_attn, || sweep.finish(cache, pool)));
                }
            }
            if attns.is_empty() {
                // Nothing reads this (last) layer's output.
                break;
            }
            let attns_q = quantize_batch(attns.into_iter(), g);
            let os = timed(prof, &mut t_gemm, || pl.wo.matmul(&attns_q));
            for (x, o) in xs.iter_mut().zip(os.iter()) {
                for (xi, oi) in x.iter_mut().zip(o.iter()) {
                    *xi += oi;
                }
            }

            // --- FFN block ---
            let xnq = quantize_batch(xs.iter().map(|x| rmsnorm(x, &layer.ffn_norm, 1e-5)), g);
            let hs: Vec<Vec<f32>> = match cfg.ffn_kind {
                FfnKind::GatedSilu => {
                    let gate_w = pl.w_gate.as_ref().expect("gated model packs a gate");
                    let (gates, ups) = timed(prof, &mut t_gemm, || {
                        (gate_w.matmul(&xnq), pl.w_up.matmul(&xnq))
                    });
                    gates
                        .iter()
                        .zip(ups.iter())
                        .map(|(gate, up)| {
                            gate.iter()
                                .zip(up.iter())
                                .map(|(&gv, &uv)| silu(gv) * uv)
                                .collect()
                        })
                        .collect()
                }
                FfnKind::PlainGelu => {
                    let ups = timed(prof, &mut t_gemm, || pl.w_up.matmul(&xnq));
                    ups.iter()
                        .map(|up| up.iter().map(|&u| gelu(u)).collect())
                        .collect()
                }
            };
            let hs_q = quantize_batch(hs.into_iter(), g);
            let ffs = timed(prof, &mut t_gemm, || pl.w_down.matmul(&hs_q));
            for (x, ff) in xs.iter_mut().zip(ffs.iter()) {
                for (xi, fi) in x.iter_mut().zip(ff.iter()) {
                    *xi += fi;
                }
            }
        }

        for run in runs {
            slots[run.id.slot]
                .as_mut()
                .expect("validated above")
                .seq_len += run.tokens.len();
        }
        // The rows the last layer kept are the rows somebody will read, in
        // order: only they go through the LM head.
        let logits = if xs.is_empty() {
            Vec::new()
        } else {
            let finals: Vec<Vec<f32>> =
                xs.iter().map(|x| rmsnorm(x, &w.final_norm, 1e-5)).collect();
            let final_refs: Vec<&[f32]> = finals.iter().map(Vec::as_slice).collect();
            timed(prof, &mut t_gemv, || matvec_batch(&w.lm_head, &final_refs))
        };
        if prof {
            // Laid end-to-end ending now, so the buckets nest inside the
            // caller's enclosing step span.
            mant_trace::tail_spans(&[
                ("kernel.gemm", t_gemm),
                ("kernel.attn", t_attn),
                ("kernel.kv_quant", t_kv),
                ("kernel.gemv", t_gemv),
            ]);
        }
        logits
    }

    /// [`BatchRunner::step_runs`] with one token per session and its logits
    /// back: the plain continuous-batching decode iteration.
    ///
    /// # Panics
    ///
    /// As [`BatchRunner::step_runs`].
    pub fn step(&mut self, batch: &[(SessionId, usize)]) -> Vec<Vec<f32>> {
        let runs: Vec<Run<'_>> = batch
            .iter()
            .map(|(id, token)| Run {
                id: *id,
                tokens: std::slice::from_ref(token),
                logit_rows: 1,
            })
            .collect();
        self.step_runs(&runs)
    }

    /// [`BatchRunner::step_runs`] with one run and one logit row per token.
    ///
    /// # Panics
    ///
    /// As [`BatchRunner::step_runs`].
    pub fn step_multi(&mut self, id: SessionId, tokens: &[usize]) -> Vec<Vec<f32>> {
        self.step_runs(&[Run {
            id,
            tokens,
            logit_rows: tokens.len(),
        }])
    }

    /// Rolls one session back to its first `len` tokens — every layer
    /// cache (CoW-aware, staging replayed bit-exactly per
    /// [`PagedKvCache::truncate`]) plus the session length.
    ///
    /// # Panics
    ///
    /// Panics if `id` is stale/unknown, `len` exceeds the session
    /// length, or the cut lands strictly inside a committed V window.
    pub fn truncate_session(&mut self, id: SessionId, len: usize) {
        self.check(id);
        let (slots, pool) = (&mut self.slots, &mut self.pool);
        let session = slots[id.slot].as_mut().expect("checked above");
        assert!(
            len <= session.seq_len,
            "truncate length {len} exceeds session length {}",
            session.seq_len
        );
        for cache in &mut session.caches {
            cache.truncate(pool, len);
        }
        session.seq_len = len;
    }

    /// The KV quantization group size.
    pub fn kv_group(&self) -> usize {
        self.kv_group
    }

    fn check(&self, id: SessionId) {
        let live = self
            .slots
            .get(id.slot)
            .and_then(Option::as_ref)
            .is_some_and(|s| s.nonce == id.nonce);
        assert!(live, "stale or unknown session {id:?}");
    }
}

/// Quantizes a batch of activation vectors to group-wise INT8 at the
/// packed group size — the same per-vector call the sequential runner
/// makes.
fn quantize_batch(xs: impl Iterator<Item = Vec<f32>>, group: usize) -> Vec<QuantizedVector> {
    xs.map(|x| quantize_vector_int8(&x, group).expect("group size divides the activation length"))
        .collect()
}

/// Keeps `rows[i]` where `keep[i]`, in order.
fn retain_rows<T>(rows: &mut Vec<T>, keep: &[bool]) {
    let mut keep = keep.iter();
    rows.retain(|_| *keep.next().expect("one flag per row"));
}

/// Runs `f`, adding its wall nanoseconds into `acc` when `prof` is on —
/// the accumulator behind the per-tick kernel buckets. With profiling off
/// this is a plain call: no clock reads.
#[inline]
fn timed<T>(prof: bool, acc: &mut u64, f: impl FnOnce() -> T) -> T {
    if !prof {
        return f();
    }
    let t0 = std::time::Instant::now();
    let out = f();
    *acc += t0.elapsed().as_nanos() as u64;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use crate::layers::run_sequence_packed;

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn batch_step_bit_identical_to_sequential_runs() {
        let m = TransformerModel::synthesize(&ModelConfig::sim_llama(), 31);
        let packed = m.pack_weights(64).unwrap();
        let kv = KvMode::Mant4 { group: 64 };
        let streams: [Vec<usize>; 3] = [
            (0..12).map(|i| (i * 37) % 512).collect(),
            (0..12).map(|i| (i * 53 + 7) % 512).collect(),
            (0..12).map(|i| (i * 11 + 100) % 512).collect(),
        ];
        let mut br = m.batch_runner(&packed, ActMode::None, kv, 64, 64);
        let ids: Vec<SessionId> = (0..3).map(|_| br.create_session()).collect();
        let mut batched_logits: Vec<Vec<Vec<f32>>> = vec![Vec::new(); 3];
        for t in 0..12 {
            let batch: Vec<(SessionId, usize)> = ids
                .iter()
                .zip(streams.iter())
                .map(|(&id, s)| (id, s[t]))
                .collect();
            for (i, logits) in br.step(&batch).into_iter().enumerate() {
                batched_logits[i].push(logits);
            }
        }
        for (stream, got) in streams.iter().zip(batched_logits.iter()) {
            let solo = run_sequence_packed(&m, &packed, ActMode::None, kv, stream);
            for (t, logits) in got.iter().enumerate() {
                assert_eq!(
                    bits(logits),
                    bits(solo.row(t)),
                    "batch diverged from sequential at step {t}"
                );
            }
        }
    }

    #[test]
    fn sessions_join_and_leave_without_perturbing_others() {
        let m = TransformerModel::synthesize(&ModelConfig::sim_llama(), 32);
        let packed = m.pack_weights(64).unwrap();
        let kv = KvMode::Mant4 { group: 64 };
        let a_stream: Vec<usize> = (0..10).map(|i| (i * 29) % 512).collect();
        let b_stream: Vec<usize> = (0..6).map(|i| (i * 31 + 3) % 512).collect();
        let c_stream: Vec<usize> = (0..5).map(|i| (i * 41 + 9) % 512).collect();

        let mut br = m.batch_runner(&packed, ActMode::None, kv, 64, 64);
        let a = br.create_session();
        let b = br.create_session();
        let mut a_got = Vec::new();
        // A and B run together for 4 steps …
        for t in 0..4 {
            let out = br.step(&[(a, a_stream[t]), (b, b_stream[t])]);
            a_got.push(out[0].clone());
        }
        // … B leaves mid-decode, C joins (recycling B's blocks), A carries on.
        for t in 4..6 {
            let out = br.step(&[(a, a_stream[t]), (b, b_stream[t])]);
            a_got.push(out[0].clone());
        }
        br.end_session(b);
        let c = br.create_session();
        for t in 6..10 {
            let out = br.step(&[(c, c_stream[t - 6]), (a, a_stream[t])]);
            a_got.push(out[1].clone());
        }
        let solo = run_sequence_packed(&m, &packed, ActMode::None, kv, &a_stream);
        for (t, logits) in a_got.iter().enumerate() {
            assert_eq!(
                bits(logits),
                bits(solo.row(t)),
                "ragged batch broke A at {t}"
            );
        }
        assert_eq!(br.active_sessions(), 2);
        assert_eq!(br.seq_len(c), 4);
    }

    #[test]
    #[should_panic(expected = "stale or unknown session")]
    fn stale_session_detected() {
        let m = TransformerModel::synthesize(&ModelConfig::sim_llama(), 33);
        let packed = m.pack_weights(64).unwrap();
        let mut br = m.batch_runner(&packed, ActMode::None, KvMode::Mant4 { group: 64 }, 8, 64);
        let a = br.create_session();
        br.end_session(a);
        let _ = br.create_session(); // recycles the slot with a new nonce
        let _ = br.step(&[(a, 1)]);
    }

    #[test]
    #[should_panic(expected = "listed twice")]
    fn duplicate_session_rejected() {
        let m = TransformerModel::synthesize(&ModelConfig::sim_llama(), 34);
        let packed = m.pack_weights(64).unwrap();
        let mut br = m.batch_runner(&packed, ActMode::None, KvMode::Mant4 { group: 64 }, 8, 64);
        let a = br.create_session();
        let _ = br.step(&[(a, 1), (a, 2)]);
    }

    #[test]
    #[should_panic(expected = "quantized KV mode")]
    fn fp16_kv_rejected() {
        let m = TransformerModel::synthesize(&ModelConfig::sim_llama(), 35);
        let packed = m.pack_weights(64).unwrap();
        let _ = m.batch_runner(&packed, ActMode::None, KvMode::Fp16, 8, 64);
    }

    #[test]
    fn forked_session_diverges_bit_identically_to_independent_runs() {
        // Fork a live session mid-block and continue parent and child on
        // different tokens: each must match a from-scratch sequential run
        // of its own full stream, bit for bit (copy-on-write isolation).
        let m = TransformerModel::synthesize(&ModelConfig::sim_llama(), 40);
        let packed = m.pack_weights(64).unwrap();
        let kv = KvMode::Mant4 { group: 64 };
        let prefix: Vec<usize> = (0..7).map(|i| (i * 43 + 3) % 512).collect();
        let a_tail: Vec<usize> = (0..5).map(|i| (i * 17 + 1) % 512).collect();
        let b_tail: Vec<usize> = (0..5).map(|i| (i * 59 + 8) % 512).collect();

        let mut br = m.batch_runner(&packed, ActMode::None, kv, 64, 64);
        let a = br.create_session();
        for &t in &prefix {
            br.step(&[(a, t)]);
        }
        let used_before = br.pool().used_blocks();
        let b = br.fork_session(a);
        assert_eq!(
            br.pool().used_blocks(),
            used_before,
            "fork allocates nothing"
        );
        assert_eq!(br.seq_len(b), prefix.len());

        let mut a_got = Vec::new();
        let mut b_got = Vec::new();
        for t in 0..5 {
            let out = br.step(&[(a, a_tail[t]), (b, b_tail[t])]);
            a_got.push(out[0].clone());
            b_got.push(out[1].clone());
        }
        for (tail, got) in [(&a_tail, &a_got), (&b_tail, &b_got)] {
            let full: Vec<usize> = prefix.iter().chain(tail.iter()).copied().collect();
            let solo = run_sequence_packed(&m, &packed, ActMode::None, kv, &full);
            for (t, logits) in got.iter().enumerate() {
                assert_eq!(
                    bits(logits),
                    bits(solo.row(prefix.len() + t)),
                    "fork diverged from independent run at step {t}"
                );
            }
        }
    }

    #[test]
    fn prefix_snapshot_skips_prefill_bit_exactly() {
        // Register block-aligned prefixes from a donor session, then open
        // a new session on top of the longest match: it starts at the
        // shared length with zero new blocks and continues bit-identically
        // to a from-scratch run of the whole stream. Int4 KV at group 16
        // keeps blocks 16 tokens, so the test stays fast.
        let m = TransformerModel::synthesize(&ModelConfig::sim_llama(), 41);
        let packed = m.pack_weights(64).unwrap();
        let kv = KvMode::Int4 { group: 16 };
        let bt = 16usize;
        let shared: Vec<usize> = (0..2 * bt).map(|i| (i * 13 + 5) % 512).collect();
        let tail: Vec<usize> = (0..6).map(|i| (i * 7 + 2) % 512).collect();

        let mut br = m.batch_runner(&packed, ActMode::None, kv, 64, bt);
        let donor = br.create_session();
        for (i, &t) in shared.iter().enumerate() {
            br.step(&[(donor, t)]);
            let done = i + 1;
            if done.is_multiple_of(bt) {
                assert!(br.register_prefix(donor, &shared[..done]));
                assert!(
                    !br.register_prefix(donor, &shared[..done]),
                    "re-register is a no-op"
                );
            }
        }
        br.end_session(donor);
        assert_eq!(br.prefix_entries(), 2);
        assert!(
            br.pool().used_blocks() > 0,
            "snapshots keep the shared blocks alive past the donor"
        );

        let full: Vec<usize> = shared.iter().chain(tail.iter()).copied().collect();
        assert_eq!(br.cached_prefix_len(&full), 2 * bt);
        let used_before = br.pool().used_blocks();
        let (sid, cached) = br.create_session_with_prefix(&full);
        assert_eq!(cached, 2 * bt);
        assert_eq!(br.seq_len(sid), 2 * bt);
        assert_eq!(
            br.pool().used_blocks(),
            used_before,
            "hit allocates nothing"
        );

        let solo = run_sequence_packed(&m, &packed, ActMode::None, kv, &full);
        for (t, &tok) in tail.iter().enumerate() {
            let logits = br.step(&[(sid, tok)]);
            assert_eq!(
                bits(&logits[0]),
                bits(solo.row(2 * bt + t)),
                "prefix-seeded session diverged at step {t}"
            );
        }
        br.end_session(sid);

        // A miss (different tokens) shares nothing.
        let other: Vec<usize> = (0..40).map(|i| (i * 31 + 9) % 512).collect();
        assert_eq!(br.cached_prefix_len(&other), 0);

        // LRU eviction releases the snapshots' hold block by block.
        assert!(br.evict_lru_prefix());
        assert!(br.evict_lru_prefix());
        assert!(!br.evict_lru_prefix());
        assert_eq!(br.pool().used_blocks(), 0);
    }

    #[test]
    fn step_need_accounting_covers_boundaries() {
        let m = TransformerModel::synthesize(&ModelConfig::sim_llama(), 42);
        let packed = m.pack_weights(64).unwrap();
        let mut br = m.batch_runner(&packed, ActMode::None, KvMode::Int4 { group: 16 }, 16, 16);
        let a = br.create_session();
        assert_eq!(
            br.blocks_needed_for_step(a),
            2,
            "first step: one block per layer"
        );
        br.step(&[(a, 1)]);
        assert_eq!(br.blocks_needed_for_step(a), 0, "mid-block steps are free");
        for t in 1..16 {
            br.step(&[(a, t % 512)]);
        }
        assert_eq!(
            br.blocks_needed_for_step(a),
            2,
            "boundary: one per layer again"
        );
    }

    #[test]
    fn step_multi_bit_identical_to_sequential_steps() {
        // A 5-token run from row 14 crosses the 16-row V window boundary,
        // so a commit fires mid-run; the fused pass must still match
        // token-by-token stepping bit for bit.
        let m = TransformerModel::synthesize(&ModelConfig::sim_llama(), 50);
        let packed = m.pack_weights(64).unwrap();
        let kv = KvMode::Int4 { group: 16 };
        let mut br = m.batch_runner(&packed, ActMode::None, kv, 64, 16);
        let a = br.create_session();
        let b = br.create_session();
        let prefix: Vec<usize> = (0..14).map(|i| (i * 23 + 1) % 512).collect();
        let run: Vec<usize> = (0..5).map(|i| (i * 61 + 4) % 512).collect();
        for &t in &prefix {
            br.step(&[(a, t), (b, t)]);
        }
        let multi = br.step_multi(a, &run);
        assert_eq!(multi.len(), run.len());
        for (t, &tok) in run.iter().enumerate() {
            let solo = br.step(&[(b, tok)]);
            assert_eq!(
                bits(&multi[t]),
                bits(&solo[0]),
                "step_multi diverged at token {t}"
            );
        }
        assert_eq!(br.seq_len(a), prefix.len() + run.len());
        // Both sessions continue identically afterwards.
        let am = br.step(&[(a, 9)]);
        let bm = br.step(&[(b, 9)]);
        assert_eq!(bits(&am[0]), bits(&bm[0]));
    }

    /// SplitMix64: the seeded stream behind the ragged-run property test.
    fn next(state: &mut u64) -> usize {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) >> 33) as usize
    }

    /// Asserts session `got` of `br` holds bit for bit what session `want`
    /// of `twin` holds: length, every layer's K and V rows, bit accounting.
    fn assert_same_caches(
        br: &BatchRunner<'_>,
        got: SessionId,
        twin: &BatchRunner<'_>,
        want: SessionId,
        what: &str,
    ) {
        let got = br.slots[got.slot].as_ref().unwrap();
        let want = twin.slots[want.slot].as_ref().unwrap();
        assert_eq!(got.seq_len, want.seq_len, "{what}: seq_len");
        for (g, w) in got.caches.iter().zip(want.caches.iter()) {
            assert_eq!(
                bits(g.dequantize_k(&br.pool).as_slice()),
                bits(w.dequantize_k(&twin.pool).as_slice()),
                "{what}: K cache"
            );
            assert_eq!(
                bits(g.dequantize_v(&br.pool).as_slice()),
                bits(w.dequantize_v(&twin.pool).as_slice()),
                "{what}: V cache"
            );
            assert_eq!(g.used_bits(), w.used_bits(), "{what}: used_bits");
        }
    }

    #[test]
    fn ragged_runs_bit_identical_to_the_one_token_oracle() {
        // Three sessions — the third a mid-block fork of the first, so its
        // first run copies a shared block — take random streams through
        // random run partitions: random subsets per step, run lengths that
        // stay inside, end on and cross the 32-row blocks and 16-row V
        // windows, logits for no row (KV-only), the last row, every row, or
        // a tail of the run shorter and longer than the run-attention
        // break-even. After every step every logit row must equal the
        // sequential `ModelRunner`'s, and every stepped cache the one a twin
        // session reaches one token at a time. The step after the fork is
        // fixed: a KV-only run, a decode row and an all-logits run together,
        // then a decode row on top of the KV-only chunk.
        let m = TransformerModel::synthesize(&ModelConfig::sim_llama(), 70);
        let packed = m.pack_weights(64).unwrap();
        let kv = KvMode::Int4 { group: 16 };
        let (mut mixed_steps, mut short_tails, mut long_tails) = (0, 0, 0);
        for seed in 1..=4u64 {
            let mut rng = seed;
            let fork_at = 5 + next(&mut rng) % 40;
            let mut streams: Vec<Vec<usize>> = (0..3)
                .map(|_| {
                    let len = 50 + next(&mut rng) % 45;
                    (0..len).map(|_| next(&mut rng) % 512).collect()
                })
                .collect();
            let shared = streams[0][..fork_at].to_vec();
            streams[2].splice(..fork_at, shared);
            let oracle: Vec<_> = streams
                .iter()
                .map(|s| run_sequence_packed(&m, &packed, ActMode::None, kv, s))
                .collect();

            let mut br = m.batch_runner(&packed, ActMode::None, kv, 32, 32);
            let mut twin = m.batch_runner(&packed, ActMode::None, kv, 32, 32);
            let mut ids = [Some(br.create_session()), Some(br.create_session()), None];
            let twins: Vec<SessionId> = (0..3).map(|_| twin.create_session()).collect();
            for &tok in &streams[2][..fork_at] {
                twin.step(&[(twins[2], tok)]);
            }
            let mut pos = [0usize, 0, fork_at];
            // Steps composed by hand, taken before any random one.
            let mut fixed: Vec<Vec<(usize, usize, usize)>> = Vec::new();
            while (0..3).any(|i| pos[i] < streams[i].len()) {
                let left = |pos: &[usize; 3], i: usize| streams[i].len() - pos[i];
                // (session, run length, logit rows): a fixed step if one
                // is due, otherwise a random subset.
                let picks: Vec<(usize, usize, usize)> = fixed.pop().unwrap_or_else(|| {
                    let mut picks = Vec::new();
                    for (i, id) in ids.iter().enumerate() {
                        if id.is_none() || left(&pos, i) == 0 || next(&mut rng).is_multiple_of(4) {
                            continue;
                        }
                        let mut len = 1 + next(&mut rng) % left(&pos, i).min(40);
                        if i == 0 && pos[0] < fork_at {
                            len = len.min(fork_at - pos[0]);
                        }
                        let tail = 1 + next(&mut rng) % len;
                        picks.push((i, len, [0, 1, len, tail][next(&mut rng) % 4]));
                    }
                    picks
                });
                if picks.is_empty() {
                    continue;
                }
                for &(_, len, logit_rows) in &picks {
                    if 0 < logit_rows && logit_rows < len {
                        if logit_rows < RunAttention::MIN_ROWS {
                            short_tails += 1;
                        } else {
                            long_tails += 1;
                        }
                    }
                }
                let runs: Vec<Run<'_>> = picks
                    .iter()
                    .map(|&(i, len, logit_rows)| Run {
                        id: ids[i].unwrap(),
                        tokens: &streams[i][pos[i]..pos[i] + len],
                        logit_rows,
                    })
                    .collect();
                let mut logits = br.step_runs(&runs).into_iter();
                for &(i, len, logit_rows) in &picks {
                    for &tok in &streams[i][pos[i]..pos[i] + len] {
                        twin.step(&[(twins[i], tok)]);
                    }
                    pos[i] += len;
                    for t in pos[i] - logit_rows..pos[i] {
                        assert_eq!(
                            bits(&logits.next().unwrap()),
                            bits(oracle[i].row(t)),
                            "seed {seed}: session {i} row {t} diverged from the oracle"
                        );
                    }
                    let what = format!("seed {seed}: session {i} at {}", pos[i]);
                    assert_same_caches(&br, ids[i].unwrap(), &twin, twins[i], &what);
                }
                assert!(logits.next().is_none(), "seed {seed}: stray logit rows");
                if ids[2].is_none() && pos[0] == fork_at {
                    ids[2] = Some(br.fork_session(ids[0].unwrap()));
                    if left(&pos, 1) > 0 {
                        let (kv_only, all) = ((left(&pos, 0) - 1).min(7), left(&pos, 2).min(5));
                        // Popped back to front.
                        fixed.push(vec![(0, 1, 1)]);
                        fixed.push(vec![(0, kv_only, 0), (1, 1, 1), (2, all, all)]);
                        mixed_steps += 1;
                    }
                }
            }
        }
        assert!(mixed_steps > 0, "no seed took the fixed mixed step");
        assert!(
            short_tails > 0 && long_tails > 0,
            "partly live runs must fall on both sides of the run-attention break-even \
             ({short_tails} below, {long_tails} at or above)"
        );
    }

    #[test]
    fn all_kv_only_step_returns_no_logits_and_caches_every_row() {
        // Every run asks for no logits: the last layer has no live row, so
        // there is no query to project and no LM head to run — yet every
        // row must be cached in every layer, and a decode step on top must
        // read the oracle's logits.
        let m = TransformerModel::synthesize(&ModelConfig::sim_llama(), 72);
        let packed = m.pack_weights(64).unwrap();
        let kv = KvMode::Int4 { group: 16 };
        let streams: [Vec<usize>; 2] = [
            (0..21).map(|i| (i * 19 + 3) % 512).collect(),
            (0..2).map(|i| (i * 47 + 8) % 512).collect(),
        ];
        let mut br = m.batch_runner(&packed, ActMode::None, kv, 16, 32);
        let mut twin = m.batch_runner(&packed, ActMode::None, kv, 16, 32);
        let ids = [br.create_session(), br.create_session()];
        let twins = [twin.create_session(), twin.create_session()];
        let runs: Vec<Run<'_>> = (0..2)
            .map(|i| Run {
                id: ids[i],
                tokens: &streams[i][..streams[i].len() - 1],
                logit_rows: 0,
            })
            .collect();
        assert!(br.step_runs(&runs).is_empty(), "nobody asked for logits");
        for i in 0..2 {
            let fed = streams[i].len() - 1;
            for &tok in &streams[i][..fed] {
                twin.step(&[(twins[i], tok)]);
            }
            assert_same_caches(&br, ids[i], &twin, twins[i], &format!("session {i}"));
            let solo = run_sequence_packed(&m, &packed, ActMode::None, kv, &streams[i]);
            let logits = br.step(&[(ids[i], streams[i][fed])]);
            assert_eq!(
                bits(&logits[0]),
                bits(solo.row(fed)),
                "session {i}: decode after a KV-only chunk diverged from the oracle"
            );
        }
    }

    #[test]
    #[should_panic(expected = "cannot yield")]
    fn more_logit_rows_than_tokens_rejected() {
        let m = TransformerModel::synthesize(&ModelConfig::sim_llama(), 71);
        let packed = m.pack_weights(64).unwrap();
        let mut br = m.batch_runner(&packed, ActMode::None, KvMode::Mant4 { group: 64 }, 8, 64);
        let a = br.create_session();
        let _ = br.step_runs(&[Run {
            id: a,
            tokens: &[1, 2],
            logit_rows: 3,
        }]);
    }

    #[test]
    fn session_lifecycle_frees_blocks() {
        let m = TransformerModel::synthesize(&ModelConfig::sim_llama(), 36);
        let packed = m.pack_weights(64).unwrap();
        let mut br = m.batch_runner(&packed, ActMode::None, KvMode::Mant4 { group: 64 }, 8, 64);
        assert_eq!(br.blocks_for_request(65), 4); // 2 layers × ⌈65/64⌉ blocks
        let a = br.create_session();
        assert_eq!(br.pool().used_blocks(), 0, "no block before the first step");
        let _ = br.step(&[(a, 5)]);
        assert_eq!(br.pool().used_blocks(), 2); // one per layer
        br.end_session(a);
        assert_eq!(br.pool().used_blocks(), 0);
        assert_eq!(br.active_sessions(), 0);
    }
}
