//! The continuous-batching serving engine.
//!
//! Each [`ServeEngine::tick`] is one iteration — one forward pass over a
//! ragged batch of runs:
//!
//! 1. **Admit** — FCFS, while the batch has a free lane and the admission
//!    policy clears the candidate (see [`AdmissionPolicy`]). With prefix
//!    sharing on, a candidate whose prompt prefix is already cached opens
//!    its session directly on the shared physical blocks and skips that
//!    part of prefill entirely.
//! 2. **Relieve** — if this iteration's block demand (boundary
//!    allocations + copy-on-write) exceeds the free list, drop prefix
//!    snapshots, then preempt the **youngest** running sequence: its
//!    blocks are released, the request requeued, and its tokens recomputed
//!    on readmission — byte-identical, since re-encoding a prefix is
//!    deterministic.
//! 3. **Compose** — every active sequence contributes at most one *run* of
//!    consecutive tokens. A decoding sequence feeds its last generated
//!    token: one row, always, never deferred. A sequence still feeding
//!    known tokens — its prompt, or the tail a preemption makes it replay
//!    — feeds
//!    - **one token** in a tick where any sequence decodes: that tick is
//!      somebody's inter-token gap, and it stays what a one-token step
//!      costs;
//!    - otherwise **as many as the tick's row budget has left**
//!      ([`PREFILL_ROWS_PER_TICK`], filled oldest admission first, so the
//!      oldest prefilling sequence always advances and leftover rows go
//!      to the next), a run never reaching past the end of the sequence's
//!      current KV block nor past its last known token.
//!
//!    Block-bounded runs keep the rest of the engine as it was: a run
//!    needs exactly the blocks one push needs (so the pressure valve's
//!    arithmetic holds), a prompt still sits exactly on every block
//!    boundary it crosses (so every shareable prefix is registered), and
//!    every V window commits at a run end.
//! 4. **Step** — one [`BatchRunner::step_runs`] over the quantized
//!    backend: every row of every run through the multi-query packed
//!    GEMMs, paged attention per run (cached rows swept once for all of a
//!    run's queries), and the last layer past its K/V projections, and the
//!    LM head, only for rows whose logits are read — the row after a
//!    sequence's last known token; every other prompt or replay row is
//!    **KV-only** there ([`ServeReport::kv_only_rows`]). With speculation
//!    enabled, a decode-phase sequence's run is a **verify run**
//!    `[cur, d₁..d_{k−1}]` with a logit row per token: its candidates are
//!    drafted first, inside the tick, as `k` one-row steps of the draft
//!    runner batched across every speculating sequence; the draft runner
//!    is fed the other runs too, for their KV only, so its caches stay in
//!    lockstep. A round never drafts across a V-window commit (the one
//!    cache mutation a truncate cannot undo), so its rejected tail is
//!    rolled back with [`BatchRunner::truncate_session`].
//! 5. **Advance** — greedy argmax over each finished run's logits (a verify
//!    run keeps the longest prefix its candidates agree with, plus the
//!    target's own token at the first disagreement);
//!    sequences that produced their last token retire, releasing their
//!    block holds. Block-aligned prompt prefixes are registered in the
//!    runner's prefix cache as prefill reaches each boundary.
//!
//! The row budget is a constant, not a [`ServeConfig`] field: one value is
//! in use. It buys GEMM-shaped prefill — from [`PREFILL_ROWS_PER_TICK`]
//! rows a row costs what it costs in a 64-row run, about half a one-token
//! step — in exactly the ticks no token is waiting on, and it bounds how
//! long such a tick keeps a new arrival from being admitted: full-budget
//! ticks at contexts up to 512 measured 4.5–5.6 ms at the median (13 ms
//! with a 64-row budget) on the two-core reference box when it was sized,
//! and about 3 ms since mid-prompt rows are KV-only in the last layer —
//! under the 10 ms the benchmark counts as a stall. The engine clock
//! ([`GenRequest::deadline_iter`], [`Completion`]'s iteration stamps)
//! still counts iterations; an iteration now advances a sequence by up to
//! a run.
//!
//! Because the batch runner is bit-identical to sequential execution —
//! and prefix forks and preemption recompute are too — the engine's
//! greedy outputs equal [`sequential_generate`]'s exactly under every
//! policy: the serving layer changes *when* work happens, never *what*
//! is computed.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use mant_model::{ActMode, BatchRunner, KvMode, PackedWeights, Run, SessionId, TransformerModel};
use mant_trace::Hist;

pub use mant_model::argmax;

use crate::metrics::{DegradationStats, ServeReport, SpeculationStats};
use crate::request::{Completion, GenRequest, SubmitError};
use crate::scheduler::FcfsScheduler;

/// Something observable a tick produced, for callers that stream results
/// as they happen (the gateway's SSE path) instead of waiting for
/// [`ServeEngine::run_to_completion`]. Recording is opt-in via
/// [`ServeEngine::enable_events`]; events accumulate until
/// [`ServeEngine::drain_events`] takes them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EngineEvent {
    /// A request produced one greedy token.
    Token {
        /// The request's id.
        id: u64,
        /// The generated token.
        token: usize,
    },
    /// A request produced its last token and retired.
    Finished {
        /// The request's id.
        id: u64,
    },
    /// A request's deadline passed: it was cancelled (queued requests
    /// without ever being ticked) and its blocks were released.
    Expired {
        /// The request's id.
        id: u64,
    },
    /// A request was cancelled by the caller ([`ServeEngine::cancel`]).
    Cancelled {
        /// The request's id.
        id: u64,
    },
    /// A request's sequence was quarantined: the batched step it was part
    /// of kept panicking, so its sessions were torn down and every pool
    /// block it held was released.
    Poisoned {
        /// The request's id.
        id: u64,
    },
}

/// How the scheduler decides a candidate fits the paged KV pool. There is
/// one discipline; the enum and [`ServeConfig::admission`] keep their shape
/// only because the frozen `benchmark/` package spells both in a struct
/// literal — flattening them to a `watermark_blocks` field is left to a
/// `[benchmark]` PR.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// On-demand (vLLM-style): admit while the free list covers the
    /// candidate's remaining *prefill* plus `watermark_blocks` of decode
    /// headroom; blocks are allocated as tokens arrive, and pool pressure
    /// is relieved by evicting prefix snapshots, then preempting the
    /// youngest running sequence (recompute on readmission).
    Watermark {
        /// Free-block headroom admission keeps for running sequences'
        /// decode growth; a few blocks per batch lane is plenty.
        watermark_blocks: usize,
    },
}

/// Speculative-decoding knobs ([`ServeConfig::speculative`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpeculativeConfig {
    /// Draft tokens proposed per draft-and-verify round (`>= 1`). The
    /// verify pass is one `draft_k`-token batched target step, so this is
    /// also the GEMM row count speculation recovers for decode.
    pub draft_k: usize,
}

/// Engine shape: batch lane count, pool geometry, execution modes,
/// scheduling policy.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Maximum sequences per iteration (batch lanes).
    pub max_batch: usize,
    /// Paged KV pool capacity in blocks (shared by all layers/sequences).
    pub pool_blocks: usize,
    /// Token slots per pool block (multiple of the KV group size).
    pub block_tokens: usize,
    /// Activation mode ([`ActMode::None`] or the packed-group INT8 mode).
    pub act: ActMode,
    /// KV-cache mode; must be quantized ([`KvMode::Int4`]/[`KvMode::Mant4`]).
    pub kv: KvMode,
    /// Admission discipline: the watermark's decode headroom.
    pub admission: AdmissionPolicy,
    /// Share identical block-aligned prompt prefixes across requests via
    /// the runner's copy-on-write prefix cache.
    pub prefix_sharing: bool,
    /// Speculative decoding: decode-phase sequences run draft-and-verify
    /// rounds against a cheap draft model instead of one-token steps.
    /// Requires [`ServeEngine::new_with_draft`] (the engine needs the
    /// draft's packed weights). `None` keeps plain one-token decode.
    pub speculative: Option<SpeculativeConfig>,
}

/// The draft side of speculative decoding: a second [`BatchRunner`] over
/// the draft model's packed weights with its own paged KV pool (same
/// geometry as the target's), kept in per-sequence lockstep with the
/// target runner.
struct DraftState<'m> {
    runner: BatchRunner<'m>,
    /// Candidates per draft-and-verify round ([`SpeculativeConfig::draft_k`]).
    k: usize,
}

impl DraftState<'_> {
    /// The draft runner's share of a tick's step, over the tick's `plan`
    /// of `(index into active, rows, verify)` runs. Pass `j` feeds every
    /// verify run longer than `j` its latest token — the pending one, then
    /// each greedy candidate — and appends the next candidate, read off
    /// its logits, to the run's entry in `feeds`: `k` one-row passes
    /// batched across every speculating sequence. The first pass also
    /// carries the plain runs, for their KV only, so every draft session
    /// stays in lockstep with its target session.
    fn step(
        &mut self,
        active: &[ActiveSeq],
        plan: &[(usize, usize, bool)],
        feeds: &mut [Vec<usize>],
    ) {
        // Chaos seam: the induced panic precedes every mutation of either
        // runner.
        #[cfg(feature = "fault-inject")]
        if plan.iter().any(|&(_, _, verify)| verify)
            && mant_trace::fault::fire(mant_trace::fault::site::SPEC_STEP)
        {
            panic!("injected fault: batch.spec_step");
        }
        // Passes a run takes part in: a verify run one per row, a plain run
        // the first.
        let passes = |&(_, len, verify): &(usize, usize, bool)| if verify { len } else { 1 };
        for j in 0..plan.iter().map(passes).max().unwrap_or(0) {
            let fed: Vec<usize> = (0..plan.len()).filter(|&p| passes(&plan[p]) > j).collect();
            let runs: Vec<Run<'_>> = fed
                .iter()
                .map(|&p| {
                    let (i, _, verify) = plan[p];
                    Run {
                        id: active[i]
                            .draft_sid
                            .expect("speculation opens draft sessions"),
                        tokens: if verify { &feeds[p][j..=j] } else { &feeds[p] },
                        logit_rows: usize::from(verify),
                    }
                })
                .collect();
            let rows = self.runner.step_runs(&runs);
            for (&p, row) in fed.iter().filter(|&&p| plan[p].2).zip(rows) {
                let candidate = argmax(&row);
                // Chaos seam: corrupt the candidate *after* the draft
                // argmax. Safe by construction — the verify row's argmax is
                // compared against it, so a corrupted draft can only shrink
                // the accepted prefix, never change emitted tokens.
                #[cfg(feature = "fault-inject")]
                let candidate =
                    match mant_trace::fault::payload(mant_trace::fault::site::SPEC_DRAFT_CORRUPT) {
                        Some(off) => (candidate + 1 + off as usize % (row.len() - 1)) % row.len(),
                        None => candidate,
                    };
                feeds[p].push(candidate);
            }
        }
    }
}

/// One running sequence.
struct ActiveSeq {
    sid: SessionId,
    /// The sequence's session in the draft runner (speculation only),
    /// fed every token the target session is fed.
    draft_sid: Option<SessionId>,
    req: GenRequest,
    /// Tokens fed so far (prompt + generated feedback); starts at the
    /// prefix-cache hit length, not 0, when admission shared blocks.
    pos: usize,
    /// Generated tokens, including any carried over a preemption.
    generated: Vec<usize>,
    /// Feed positions below this replay known tokens (prompt, plus
    /// carried generated tokens after a preemption); new tokens are
    /// produced only from here on.
    replay_until: usize,
    /// High-water mark of prompt positions stepped for the first time
    /// (survives preemption), so replayed prompt tokens count as
    /// recompute, not prompt work.
    prompt_fed: usize,
    first_token_iter: Option<u64>,
    /// Iteration of the request's *first* admission.
    admitted_iter: u64,
    /// Monotone admission stamp; the preemption victim is the largest.
    admit_seq: u64,
}

impl ActiveSeq {
    /// The next `len` tokens to feed from position `pos` (prompt, then
    /// generated).
    fn feed(&self, len: usize) -> Vec<usize> {
        self.req
            .prompt
            .iter()
            .chain(self.generated.iter())
            .skip(self.pos)
            .take(len)
            .copied()
            .collect()
    }

    /// How many of the last rows of a run of `len` tokens from `pos` get
    /// logits: a verify run reads every row; any other, only the row after
    /// the last known token.
    fn logit_rows(&self, len: usize, verify: bool) -> usize {
        if verify {
            len
        } else {
            usize::from(self.pos + len >= self.replay_until)
        }
    }
}

/// State carried across a preemption so readmission recomputes the exact
/// same sequence and latency accounting stays truthful.
struct ResumeState {
    generated: Vec<usize>,
    prompt_fed: usize,
    first_token_iter: Option<u64>,
    admitted_iter: u64,
}

/// The continuous-batching inference engine over one model's packed
/// weights. See the module docs for the iteration contract.
pub struct ServeEngine<'m> {
    runner: BatchRunner<'m>,
    /// Draft model runner + round size when speculation is on.
    draft: Option<DraftState<'m>>,
    /// Draft-and-verify outcome counters (all zero without speculation).
    spec: SpeculationStats,
    scheduler: FcfsScheduler,
    active: Vec<ActiveSeq>,
    max_batch: usize,
    /// Free-block headroom admission keeps for decode growth
    /// ([`AdmissionPolicy::Watermark`]).
    watermark_blocks: usize,
    prefix_sharing: bool,
    iter: u64,
    /// Preempted requests' carry state, keyed by request id.
    resume: HashMap<u64, ResumeState>,
    admit_counter: u64,
    /// The run so far, accumulated in the shape it is reported in: every
    /// count, the completions and the always-on latency histograms land
    /// here directly; [`ServeEngine::report`] clones it and fills in what
    /// only a snapshot can know.
    totals: ServeReport,
    /// Consecutive ticks whose batched step panicked; crossing
    /// [`STEP_PANIC_QUARANTINE_AFTER`] escalates rollback to quarantine.
    consecutive_step_panics: u32,
    ladder: Ladder,
    /// Runs stepped, summed over busy iterations (the occupancy numerator).
    occupancy_sum: u64,
    vocab: usize,
    events_enabled: bool,
    events: Vec<EngineEvent>,
    /// Wall-clock submission instants of in-flight requests, for
    /// queue-wait / TTFT / E2E samples. Entries leave on completion,
    /// cancellation, and expiry.
    submit_times: HashMap<u64, Instant>,
}

/// Why a request leaves the engine; [`ServeEngine::retire`] holds what each
/// reason does. The first four are terminal; `RollBack` and `Preempt`
/// requeue the request with its progress carried.
#[derive(Clone, Copy)]
enum Leave {
    Finish,
    Cancel,
    Expire,
    Poison,
    RollBack,
    Preempt,
}

/// Prompt and replay rows one tick feeds on top of its decode rows (see
/// the module docs on the iteration contract for how it was sized and why
/// it is not configurable).
pub const PREFILL_ROWS_PER_TICK: usize = 32;

/// Ladder rung at which `draft_k` is halved.
const RUNG_HALVE_DRAFT: u8 = 1;
/// Ladder rung at which speculation is disabled entirely.
const RUNG_NO_SPEC: u8 = 2;
/// Ladder rung at which the effective batch width is halved.
const RUNG_HALVE_BATCH: u8 = 3;
/// Ladder rung at which new admissions are shed (the gateway answers
/// 429 + `Retry-After` while the engine reports this rung).
const RUNG_SHED: u8 = 4;
/// Consecutive pressured ticks before the ladder climbs one rung.
const LADDER_ENGAGE_TICKS: u32 = 2;
/// Consecutive relaxed ticks before the ladder descends one rung (the
/// hysteresis gap keeps it from flapping around the threshold).
const LADDER_RELEASE_TICKS: u32 = 6;
/// Free-block fraction below which a tick counts as pressured.
const LADDER_ENGAGE_FRAC: f64 = 0.20;
/// Free-block fraction above which a tick counts as relaxed; between the
/// two thresholds the ladder holds its rung.
const LADDER_RELEASE_FRAC: f64 = 0.40;
/// Consecutive batched-step panics tolerated (each one rolls the whole
/// batch back to the queue for byte-identical recompute) before the
/// batch is quarantined instead — the persistent-fault backstop that
/// turns a livelock into bounded poisonings.
const STEP_PANIC_QUARANTINE_AFTER: u32 = 3;

/// Graceful-degradation ladder state (see [`DegradationStats`] for the
/// reported view). `update` is called once per tick with the tick's
/// pressure verdict; transitions are counted and traced.
#[derive(Default)]
struct Ladder {
    rung: u8,
    /// Consecutive pressured ticks (reset by any non-pressured tick).
    over: u32,
    /// Consecutive relaxed ticks (reset by any non-relaxed tick).
    under: u32,
    stats: DegradationStats,
}

impl Ladder {
    /// Advances the hysteresis counters with this tick's verdict and
    /// walks the rung when either threshold is crossed.
    fn update(&mut self, pressured: bool, relaxed: bool) {
        if pressured {
            self.over += 1;
            self.under = 0;
            if self.over >= LADDER_ENGAGE_TICKS && self.rung < RUNG_SHED {
                self.rung += 1;
                self.over = 0;
                self.stats.engaged[usize::from(self.rung) - 1] += 1;
                mant_trace::counter("ladder.engage", 1);
            }
        } else if relaxed {
            self.under += 1;
            self.over = 0;
            if self.under >= LADDER_RELEASE_TICKS && self.rung > 0 {
                self.stats.released[usize::from(self.rung) - 1] += 1;
                self.rung -= 1;
                self.under = 0;
                mant_trace::counter("ladder.release", 1);
            }
        } else {
            // Between thresholds: hold the rung, restart both streaks.
            self.over = 0;
            self.under = 0;
        }
        if self.rung >= RUNG_SHED {
            self.stats.shed_ticks += 1;
        }
        mant_trace::gauge("ladder.rung", u64::from(self.rung));
    }

    /// The reported view of the ladder.
    fn stats(&self) -> DegradationStats {
        DegradationStats {
            rung: self.rung,
            ..self.stats.clone()
        }
    }
}

impl<'m> ServeEngine<'m> {
    /// Builds an engine over `model`'s packed weights.
    ///
    /// # Panics
    ///
    /// Panics on the shape/mode mismatches
    /// [`TransformerModel::batch_runner`] rejects, if `max_batch` is 0, or
    /// if `cfg.speculative` is set — speculation needs a draft model, so it
    /// goes through [`ServeEngine::new_with_draft`].
    pub fn new(model: &'m TransformerModel, packed: &'m PackedWeights, cfg: ServeConfig) -> Self {
        assert!(
            cfg.speculative.is_none(),
            "ServeConfig::speculative requires ServeEngine::new_with_draft (the engine needs \
             the draft model's packed weights)"
        );
        Self::build(model, packed, None, cfg)
    }

    /// [`ServeEngine::new`] with speculative decoding: decode-phase
    /// sequences run draft-and-verify rounds — `draft_k` cheap draft
    /// steps, one `draft_k`-token batched target verify, accept the
    /// longest agreeing prefix — instead of one-token target steps. The
    /// draft runner gets its own KV pool of the same geometry and is kept
    /// in per-sequence lockstep (same sessions, same fed tokens, mirrored
    /// prefix registrations), so greedy outputs stay byte-identical to
    /// non-speculative serving.
    ///
    /// # Panics
    ///
    /// Panics on everything [`ServeEngine::new`] rejects, plus: a missing
    /// `cfg.speculative`, `draft_k == 0`, or a draft/target vocabulary
    /// mismatch.
    pub fn new_with_draft(
        model: &'m TransformerModel,
        packed: &'m PackedWeights,
        draft_model: &'m TransformerModel,
        draft_packed: &'m PackedWeights,
        cfg: ServeConfig,
    ) -> Self {
        let spec = cfg
            .speculative
            .expect("ServeEngine::new_with_draft requires cfg.speculative");
        assert!(spec.draft_k >= 1, "draft_k must be at least 1");
        assert_eq!(
            model.config.vocab, draft_model.config.vocab,
            "draft and target models must share a vocabulary"
        );
        let draft_runner = draft_model.batch_runner(
            draft_packed,
            cfg.act,
            cfg.kv,
            cfg.pool_blocks,
            cfg.block_tokens,
        );
        let draft = DraftState {
            runner: draft_runner,
            k: spec.draft_k,
        };
        Self::build(model, packed, Some(draft), cfg)
    }

    fn build(
        model: &'m TransformerModel,
        packed: &'m PackedWeights,
        draft: Option<DraftState<'m>>,
        cfg: ServeConfig,
    ) -> Self {
        assert!(cfg.max_batch > 0, "max_batch must be at least 1");
        let AdmissionPolicy::Watermark { watermark_blocks } = cfg.admission;
        let runner = model.batch_runner(packed, cfg.act, cfg.kv, cfg.pool_blocks, cfg.block_tokens);
        ServeEngine {
            runner,
            draft,
            spec: SpeculationStats::default(),
            scheduler: FcfsScheduler::new(),
            active: Vec::new(),
            max_batch: cfg.max_batch,
            watermark_blocks,
            prefix_sharing: cfg.prefix_sharing,
            iter: 0,
            resume: HashMap::new(),
            admit_counter: 0,
            totals: ServeReport::default(),
            consecutive_step_panics: 0,
            ladder: Ladder::default(),
            occupancy_sum: 0,
            vocab: model.config.vocab,
            events_enabled: false,
            events: Vec::new(),
            submit_times: HashMap::new(),
        }
    }

    /// Enqueues a request, or explains why it never could run.
    ///
    /// # Errors
    ///
    /// Returns the typed [`SubmitError`] for work that can never produce a
    /// token: an empty prompt, `max_new_tokens == 0`, out-of-vocabulary
    /// prompt tokens, a lifetime block demand exceeding the whole pool
    /// (admitting it would deadlock the FCFS queue behind it), or an id
    /// already in flight (ids key the preemption carry state, so a
    /// duplicate would cross-wire two requests' progress).
    pub fn try_submit(&mut self, req: GenRequest) -> Result<(), SubmitError> {
        if let Some(&token) = req.prompt.iter().find(|&&t| t >= self.vocab) {
            return Err(SubmitError::TokenOutOfVocab {
                id: req.id,
                token,
                vocab: self.vocab,
            });
        }
        let need = self.runner.blocks_for_request(req.total_tokens());
        let capacity = self.runner.pool().total_blocks();
        if need > capacity {
            return Err(SubmitError::ExceedsPool {
                id: req.id,
                need,
                capacity,
            });
        }
        if self.active.iter().any(|s| s.req.id == req.id)
            || self.resume.contains_key(&req.id)
            || self.scheduler.contains(req.id)
        {
            return Err(SubmitError::DuplicateId { id: req.id });
        }
        let id = req.id;
        self.scheduler.submit(req)?;
        self.submit_times.insert(id, Instant::now());
        Ok(())
    }

    /// Enqueues a request.
    ///
    /// # Panics
    ///
    /// Panics on any rejection [`ServeEngine::try_submit`] reports.
    pub fn submit(&mut self, req: GenRequest) {
        if let Err(e) = self.try_submit(req) {
            panic!("{e}");
        }
    }

    /// Starts recording [`EngineEvent`]s. Off by default so
    /// [`ServeEngine::run_to_completion`] callers — who never drain — do
    /// not accumulate one event per generated token.
    pub fn enable_events(&mut self) {
        self.events_enabled = true;
    }

    /// Takes every event recorded since the last drain, in occurrence
    /// order (empty unless [`ServeEngine::enable_events`] was called).
    pub fn drain_events(&mut self) -> Vec<EngineEvent> {
        std::mem::take(&mut self.events)
    }

    fn push_event(&mut self, ev: EngineEvent) {
        if self.events_enabled {
            self.events.push(ev);
        }
    }

    /// Cancels an in-flight request: removes it from the waiting queue, or
    /// — if it is running — ends its session so every pool block it held
    /// (including its share of copy-on-write prefix blocks) returns to the
    /// refcounted free list immediately. Returns `false` when no request
    /// with this id is in flight (it may have just completed). Cancelled
    /// requests never appear in [`ServeReport::completions`]; they count
    /// in [`ServeReport::cancelled_requests`].
    pub fn cancel(&mut self, id: u64) -> bool {
        self.remove_request(id, Leave::Cancel)
    }

    /// Cancels an in-flight request because its *wall-clock* deadline
    /// passed — same reclamation as [`ServeEngine::cancel`], but counted
    /// in [`ServeReport::expired_requests`]. (Engine-clock deadlines,
    /// [`GenRequest::deadline_iter`], are enforced internally every tick;
    /// this entry point is for callers tracking deadlines in a clock the
    /// engine cannot see, like the gateway's `deadline_ms`.)
    pub fn expire(&mut self, id: u64) -> bool {
        self.remove_request(id, Leave::Expire)
    }

    /// Takes request `id` out of the waiting queue or the batch for the
    /// terminal reason `how`; `false` when it is in neither.
    fn remove_request(&mut self, id: u64, how: Leave) -> bool {
        if self.scheduler.remove(id).is_some() {
            self.note_exit(id, how);
        } else if let Some(idx) = self.active.iter().position(|s| s.req.id == id) {
            self.retire(idx, how);
        } else {
            return false;
        }
        true
    }

    /// The one way out of the batch: takes sequence `idx` off `active`, ends
    /// its session on both runners — every block it held, its share of
    /// copy-on-write prefix blocks included, returns to the pools — and does
    /// what `how` asks. A finished request becomes a [`Completion`]; a
    /// rolled-back or preempted one is requeued with its progress carried, so
    /// readmission replays (never re-emits) every token produced so far and
    /// the stream stays byte-identical; the rest are dropped.
    fn retire(&mut self, idx: usize, how: Leave) {
        let s = self.active.remove(idx);
        self.runner.end_session(s.sid);
        if let (Some(d), Some(dsid)) = (self.draft.as_mut(), s.draft_sid) {
            d.runner.end_session(dsid);
        }
        let id = s.req.id;
        match how {
            Leave::Finish => {
                if let Some(t0) = self.submit_times.get(&id) {
                    let ns = t0.elapsed().as_nanos() as u64;
                    self.totals.breakdown.e2e.record(ns);
                    mant_trace::sample("e2e", ns);
                }
                self.totals.completions.push(Completion {
                    id,
                    prompt_len: s.req.prompt.len(),
                    tokens: s.generated,
                    arrival_iter: s.req.arrival_iter,
                    admitted_iter: s.admitted_iter,
                    first_token_iter: s.first_token_iter.expect("finished implies first token"),
                    finish_iter: self.iter,
                });
            }
            Leave::RollBack | Leave::Preempt => {
                self.resume.insert(
                    id,
                    ResumeState {
                        generated: s.generated,
                        prompt_fed: s.prompt_fed,
                        first_token_iter: s.first_token_iter,
                        admitted_iter: s.admitted_iter,
                    },
                );
                self.scheduler
                    .submit(s.req)
                    .expect("a running request was valid at first submission");
            }
            Leave::Cancel | Leave::Expire | Leave::Poison => {}
        }
        self.note_exit(id, how);
    }

    /// The bookkeeping of an exit, for a running sequence ([`Self::retire`])
    /// or a queued request alike: one counter and trace counter per reason,
    /// and for a terminal one the event its caller streams and the end of
    /// the request's carry state and submission instant.
    fn note_exit(&mut self, id: u64, how: Leave) {
        let t = &mut self.totals;
        let (count, label, event) = match how {
            // Counted by its `Completion`.
            Leave::Finish => (None, "requests.done", Some(EngineEvent::Finished { id })),
            Leave::Cancel => (
                Some(&mut t.cancelled_requests),
                "requests.cancelled",
                Some(EngineEvent::Cancelled { id }),
            ),
            Leave::Expire => (
                Some(&mut t.expired_requests),
                "requests.expired",
                Some(EngineEvent::Expired { id }),
            ),
            Leave::Poison => (
                Some(&mut t.poisoned_requests),
                "requests.poisoned",
                Some(EngineEvent::Poisoned { id }),
            ),
            Leave::RollBack => (Some(&mut t.step_rollbacks), "step.rollbacks", None),
            Leave::Preempt => (Some(&mut t.preemptions), "preemptions", None),
        };
        if let Some(count) = count {
            *count += 1;
        }
        mant_trace::counter(label, 1);
        if let Some(event) = event {
            self.resume.remove(&id);
            self.submit_times.remove(&id);
            self.push_event(event);
        }
    }

    /// Enforces engine-clock deadlines ([`GenRequest::deadline_iter`]):
    /// expired queued requests leave the scheduler without ever being
    /// ticked, and expired running sequences release their blocks
    /// mid-generation. Runs at the top of every tick.
    fn expire_due(&mut self) {
        // Chaos seam: the deadline sweep may see a clock skewed forward
        // by the plan's payload, expiring requests early. The rest of the
        // engine keeps the true clock, so only deadline enforcement —
        // the thing this fault exercises — is perturbed.
        #[cfg(feature = "fault-inject")]
        let sweep_iter = self.iter
            + mant_trace::fault::payload(mant_trace::fault::site::ENGINE_CLOCK_SKEW).unwrap_or(0);
        #[cfg(not(feature = "fault-inject"))]
        let sweep_iter = self.iter;
        for req in self.scheduler.take_expired(sweep_iter) {
            self.note_exit(req.id, Leave::Expire);
        }
        let due: Vec<u64> = self
            .active
            .iter()
            .filter(|s| s.req.deadline_iter.is_some_and(|d| sweep_iter >= d))
            .map(|s| s.req.id)
            .collect();
        for id in due {
            self.remove_request(id, Leave::Expire);
        }
    }

    /// Completed iterations (the engine clock).
    pub fn iterations(&self) -> u64 {
        self.iter
    }

    /// Requests not yet finished (waiting + running).
    pub fn pending(&self) -> usize {
        self.scheduler.waiting() + self.active.len()
    }

    /// Sequences currently in the batch.
    pub fn running(&self) -> usize {
        self.active.len()
    }

    /// Requests preempted and awaiting readmission.
    pub fn preempted_waiting(&self) -> usize {
        self.resume.len()
    }

    /// Requests waiting in the scheduler queue (not yet admitted).
    pub fn queued(&self) -> usize {
        self.scheduler.waiting()
    }

    /// Free blocks in the paged KV pool right now — what cancellation
    /// returns blocks to.
    pub fn free_blocks(&self) -> usize {
        self.runner.pool().free_blocks()
    }

    /// Pool blocks currently held (running sequences + prefix snapshots).
    pub fn used_blocks(&self) -> usize {
        self.runner.pool().used_blocks()
    }

    /// Free blocks in the draft runner's pool, when speculation is
    /// configured — lets tests assert the draft pool drains to baseline
    /// after cancellations mid-round.
    pub fn draft_free_blocks(&self) -> Option<usize> {
        self.draft.as_ref().map(|d| d.runner.pool().free_blocks())
    }

    /// The graceful-degradation rung currently engaged (0 = full service,
    /// 4 = shedding new work). See [`DegradationStats`] for the rungs.
    pub fn degradation_rung(&self) -> u8 {
        self.ladder.rung
    }

    /// True while the ladder sits at its top rung: the engine wants the
    /// transport to shed new submissions (429 + `Retry-After`) until
    /// pressure clears. Admission from the already-accepted queue
    /// continues — shedding protects the pool from *new* work only.
    pub fn shedding(&self) -> bool {
        self.ladder.rung >= RUNG_SHED
    }

    /// Batch-width cap after ladder effects (rung 3+ halves it).
    fn effective_max_batch(&self) -> usize {
        if self.ladder.rung >= RUNG_HALVE_BATCH {
            (self.max_batch / 2).max(1)
        } else {
            self.max_batch
        }
    }

    /// One engine iteration (admit → relieve → compose → step → advance;
    /// see the module docs); returns the number of tokens generated this
    /// iteration. With
    /// nothing runnable, the clock still advances by one (an idle
    /// iteration). Busy ticks record their phase timings into the
    /// always-on [`ServeReport::breakdown`] and, when global tracing is
    /// enabled, emit the matching `tick.*` spans.
    pub fn tick(&mut self) -> usize {
        let t_tick = Instant::now();
        self.expire_due();
        let t_expired = Instant::now();
        self.admit();
        // The rung this tick budgets with is the rung it plans with: the
        // verdict below applies from the next tick, or a release would plan
        // longer rounds than the pressure valve just made room for.
        let rung = self.ladder.rung;
        let preempted_before = self.totals.preemptions;
        self.relieve_pressure(rung);
        // Degradation-ladder verdict for this tick: pressured when the
        // pool just had to preempt or the free list is nearly drained,
        // relaxed only once it has clearly recovered. Updated before the
        // idle early-exit so a drained engine walks back down the ladder.
        let free_frac = self.runner.pool().free_blocks() as f64
            / self.runner.pool().total_blocks().max(1) as f64;
        let preempted_now = self.totals.preemptions > preempted_before;
        self.ladder.update(
            preempted_now || free_frac < LADDER_ENGAGE_FRAC,
            !preempted_now && free_frac > LADDER_RELEASE_FRAC,
        );
        let t_admitted = Instant::now();
        // Sampled after the pressure valve, so a sequence admitted and
        // preempted in the same tick (which never ran a step) does not
        // inflate the concurrency peak.
        self.totals.peak_running = self.totals.peak_running.max(self.active.len());
        if self.active.is_empty() {
            self.iter += 1;
            return 0;
        }
        // Plan one run per sequence: `(index, rows, verify)`. A
        // decode-phase sequence that speculates takes a verify run of its
        // round size; any other decode sequence its one pending token; a
        // sequence still feeding known tokens (prompt, or the replayed
        // tail after a preemption) one token too while anything in the
        // batch decodes — a tick is some sequence's inter-token gap then —
        // and otherwise as many as the tick's row budget has left, oldest
        // admission first, never past the end of its current KV block and
        // never past `replay_until`. A sequence the budget leaves no rows
        // for sits the tick out.
        let bt = self.runner.pool().block_tokens();
        let decoding = self.active.iter().any(|s| s.pos >= s.replay_until);
        let mut budget = PREFILL_ROWS_PER_TICK;
        let mut plan: Vec<(usize, usize, bool)> = Vec::new();
        debug_assert!(
            self.active.is_sorted_by_key(|s| s.admit_seq),
            "active sequences are kept oldest admission first"
        );
        for (i, s) in self.active.iter().enumerate() {
            let round = self.spec_k(s, rung);
            let len = if let Some(k) = round {
                k
            } else if decoding || s.pos >= s.replay_until {
                1
            } else {
                let len = (s.replay_until - s.pos).min(bt - s.pos % bt).min(budget);
                budget -= len;
                len
            };
            if len > 0 {
                // A known-token run stays inside one block, so it needs
                // exactly the blocks one push needs.
                debug_assert!(
                    round.is_some()
                        || self.runner.blocks_needed_for_run(s.sid, len)
                            == self.runner.blocks_needed_for_step(s.sid),
                    "a run crossed a block boundary"
                );
                plan.push((i, len, round.is_some()));
            }
        }
        // A plain run's tokens are known now. A verify run's are its
        // pending token and the candidates the draft phase appends: it ends
        // up one longer than the run, the last candidate being compared but
        // never fed.
        let mut feeds: Vec<Vec<usize>> = plan
            .iter()
            .map(|&(i, len, verify)| self.active[i].feed(if verify { 1 } else { len }))
            .collect();
        debug_assert!(
            self.blocks_fit(plan.iter().map(|&(i, len, _)| (i, len))),
            "the planned runs need more blocks than the pressure valve left free"
        );
        let t_composed = Instant::now();
        // Sequences leaving the batch this tick, and why: finished, or — the
        // whole stepped batch at once — rolled back or quarantined after a
        // panic. In `active` order, as `plan` is; retired back-to-front at
        // tick end so indices stay valid throughout.
        let mut leaving: Vec<(usize, Leave)> = Vec::new();
        // The step — draft passes, then the one target pass — mutates every
        // session it feeds as it goes, so a panic inside it cannot be
        // retried per-sequence: recovery is a whole-batch rollback through
        // the proven preemption machinery (sessions torn down on both
        // runners, requests requeued, tokens recomputed byte-identically on
        // readmission). A *persistent* panic would turn that into a
        // livelock, so after a few consecutive failures the batch is
        // quarantined instead.
        let mut draft_ns = 0u64;
        let step_result = {
            let (runner, active) = (&mut self.runner, &self.active);
            let (draft, feeds, draft_ns) = (self.draft.as_mut(), &mut feeds, &mut draft_ns);
            catch_unwind(AssertUnwindSafe(|| {
                if let Some(d) = draft {
                    let t_draft = Instant::now();
                    d.step(active, &plan, feeds);
                    *draft_ns = t_draft.elapsed().as_nanos() as u64;
                }
                let runs: Vec<Run<'_>> = plan
                    .iter()
                    .zip(feeds.iter())
                    .map(|(&(i, len, verify), feed)| Run {
                        id: active[i].sid,
                        tokens: &feed[..len],
                        logit_rows: active[i].logit_rows(len, verify),
                    })
                    .collect();
                runner.step_runs(&runs)
            }))
        };
        self.occupancy_sum += plan.len() as u64;
        let logits = match step_result {
            Ok(logits) => {
                self.consecutive_step_panics = 0;
                logits
            }
            Err(_) => {
                self.consecutive_step_panics += 1;
                mant_trace::counter("step.panics", 1);
                let how = if self.consecutive_step_panics < STEP_PANIC_QUARANTINE_AFTER {
                    Leave::RollBack
                } else {
                    self.consecutive_step_panics = 0;
                    Leave::Poison
                };
                // The batch's sequences neither emit nor finish this tick:
                // no run is advanced, they are already marked to leave.
                leaving.extend(plan.drain(..).map(|(i, _, _)| (i, how)));
                Vec::new()
            }
        };
        let t_stepped = Instant::now();
        self.iter += 1;
        self.totals.busy_iterations += 1;
        self.totals.peak_used_blocks = self.totals.peak_used_blocks.max(self.used_blocks());

        let mut produced = 0usize;
        let mut stepped_rows = 0usize;
        let mut logit_rows = 0usize;
        let mut kv_only_rows = 0usize;
        let mut rollback_ns = 0u64;
        let mut first_tokens: Vec<u64> = Vec::new();
        let mut token_events: Vec<EngineEvent> = Vec::new();
        let mut logits = logits.into_iter();
        for (&(i, len, verify), feed) in plan.iter().zip(feeds.iter()) {
            let s = &mut self.active[i];
            let (start, end) = (s.pos, s.pos + len);
            // Prompt rows stepped for the first time (rows below
            // `prompt_fed` were stepped before a preemption; rows below
            // the prefix-hit length are never stepped at all); the
            // other rows below `replay_until` are recompute.
            let prompt_len = s.req.prompt.len();
            let fresh = end.min(prompt_len).saturating_sub(start.max(s.prompt_fed));
            if fresh > 0 {
                s.prompt_fed = end.min(prompt_len);
            }
            self.totals.prompt_tokens += fresh;
            self.totals.recomputed_tokens += end.min(s.replay_until).saturating_sub(start) - fresh;
            // The rest of the run's rows left the last layer after their K/V
            // were cached.
            let read = s.logit_rows(len, verify);
            stepped_rows += len;
            logit_rows += read;
            kv_only_rows += len - read;
            // Row `r` holds the target's next token after the run's first
            // `r + 1` tokens: the greedy token, as long as every candidate
            // before it was confirmed. A plain run reads at most one row.
            let (mut emitted, mut accepted, mut agreed) = (0usize, 0u64, true);
            for (r, row) in logits.by_ref().take(read).enumerate() {
                if !agreed {
                    continue;
                }
                let token = argmax(&row);
                emitted += 1;
                agreed = verify && token == feed[r + 1];
                accepted += u64::from(agreed);
                s.generated.push(token);
                if s.first_token_iter.is_none() {
                    s.first_token_iter = Some(self.iter);
                    first_tokens.push(s.req.id);
                }
                if self.events_enabled {
                    token_events.push(EngineEvent::Token {
                        id: s.req.id,
                        token,
                    });
                }
            }
            produced += emitted;
            self.totals.generated_tokens += emitted;
            s.pos = end;
            if verify {
                self.spec.rounds += 1;
                self.spec.drafted += len as u64;
                self.spec.accepted += accepted;
                self.spec.emitted += emitted as u64;
                mant_trace::counter("spec.drafted", len as u64);
                mant_trace::counter("spec.accepted", accepted);
                if emitted < len {
                    // Both caches hold the whole round; the stream keeps the
                    // pending token and the confirmed candidates. The window
                    // cap keeps the cut above every V window the round
                    // committed, so the truncate is bit-exact.
                    s.pos = start + emitted;
                    let t_rollback = Instant::now();
                    self.runner.truncate_session(s.sid, s.pos);
                    let d = self.draft.as_mut().expect("a verify run has a draft");
                    d.runner.truncate_session(
                        s.draft_sid.expect("speculation opens draft sessions"),
                        s.pos,
                    );
                    rollback_ns += t_rollback.elapsed().as_nanos() as u64;
                }
            }
            if s.generated.len() == s.req.max_new_tokens {
                leaving.push((i, Leave::Finish));
            }
            if self.prefix_sharing && s.pos <= prompt_len && s.pos.is_multiple_of(bt) {
                // Prefill just reached a block boundary (a run never
                // crosses one): the blocks behind it are immutable, so
                // the snapshot is free to share.
                self.runner.register_prefix(s.sid, &s.req.prompt[..s.pos]);
                // Mirror on the draft runner: its prefix cache must see
                // the same registration sequence so shared admissions
                // hit both caches at the same length.
                if let (Some(d), Some(dsid)) = (self.draft.as_mut(), s.draft_sid) {
                    d.runner.register_prefix(dsid, &s.req.prompt[..s.pos]);
                }
            }
        }
        if plan.iter().any(|&(_, _, verify)| verify) {
            self.spec.draft_ns.record(draft_ns);
            self.spec.rollback_ns.record(rollback_ns);
            mant_trace::sample("spec.draft_ns", draft_ns);
            mant_trace::sample("spec.rollback_ns", rollback_ns);
        }
        self.events.extend(token_events);
        for id in first_tokens {
            if let Some(t0) = self.submit_times.get(&id) {
                let ns = t0.elapsed().as_nanos() as u64;
                self.totals.breakdown.ttft.record(ns);
                mant_trace::sample("ttft", ns);
            }
        }
        for &(i, how) in leaving.iter().rev() {
            self.retire(i, how);
        }
        let t_advanced = Instant::now();
        let b = &mut self.totals.breakdown;
        note_phase(&mut b.expire, "tick.expire", t_tick, t_expired);
        note_phase(&mut b.admit, "tick.admit", t_expired, t_admitted);
        note_phase(&mut b.compose, "tick.compose", t_admitted, t_composed);
        note_phase(&mut b.step, "tick.step", t_composed, t_stepped);
        note_phase(&mut b.advance, "tick.advance", t_stepped, t_advanced);
        note_phase(&mut b.tick, "tick", t_tick, t_advanced);
        if produced > 0 {
            mant_trace::counter("tokens.generated", produced as u64);
        }
        self.totals.stepped_rows += stepped_rows;
        self.totals.logit_rows += logit_rows;
        self.totals.kv_only_rows += kv_only_rows;
        mant_trace::counter("rows.stepped", stepped_rows as u64);
        mant_trace::counter("rows.logits", logit_rows as u64);
        mant_trace::counter("rows.kv_only", kv_only_rows as u64);
        mant_trace::gauge("queue.depth", self.scheduler.waiting() as u64);
        mant_trace::gauge("sequences.active", self.active.len() as u64);
        mant_trace::gauge("pool.used_blocks", self.runner.pool().used_blocks() as u64);
        mant_trace::gauge("pool.free_blocks", self.runner.pool().free_blocks() as u64);
        produced
    }

    /// Drives the engine until every submitted request completes (or
    /// expires), and reports aggregate throughput and latency. Idle gaps
    /// before the next arrival fast-forward the clock instead of spinning
    /// the model.
    pub fn run_to_completion(&mut self) -> ServeReport {
        let t0 = Instant::now();
        while self.pending() > 0 {
            if self.active.is_empty() {
                if let Some(next) = self.scheduler.next_arrival() {
                    self.iter = self.iter.max(next);
                }
            }
            self.tick();
        }
        self.report(t0.elapsed().as_secs_f64())
    }

    /// Snapshot of the run so far as a [`ServeReport`], for callers that
    /// drive [`ServeEngine::tick`] themselves (the gateway's ticker
    /// thread) and own the wall clock. `wall_seconds` is whatever span the
    /// caller measured; [`ServeReport::rejected_requests`] starts at 0 —
    /// the engine returns submit rejections to the caller instead of
    /// counting them, so the transport layer adds its own sheds.
    pub fn report(&self, wall_seconds: f64) -> ServeReport {
        ServeReport {
            iterations: self.iter,
            wall_seconds,
            mean_batch_occupancy: self.occupancy_sum as f64
                / self.totals.busy_iterations.max(1) as f64,
            pool_blocks: self.runner.pool().total_blocks(),
            block_bits: self.runner.pool().block_bits(),
            degradation: self.ladder.stats(),
            speculation: self.draft.as_ref().map(|_| self.spec.clone()),
            ..self.totals.clone()
        }
    }

    /// Records the submit → first-admission wait for `id` into the
    /// breakdown (no-op when the submit instant is unknown, e.g. a request
    /// injected by tests around `try_submit`).
    fn note_queue_wait(&mut self, id: u64) {
        if let Some(t0) = self.submit_times.get(&id) {
            let ns = t0.elapsed().as_nanos() as u64;
            self.totals.breakdown.queue_wait.record(ns);
            mant_trace::sample("queue_wait", ns);
        }
    }

    /// FCFS admission under the watermark (head-of-line: a request that
    /// does not fit yet is waited for, never skipped).
    fn admit(&mut self) {
        while self.active.len() < self.effective_max_batch() {
            let Some(candidate) = self.scheduler.peek_ready(self.iter) else {
                break;
            };
            // The feed stream a (re)admission must have cached before
            // producing new tokens: the prompt, plus any generated tokens
            // carried over a preemption.
            let carried = self
                .resume
                .get(&candidate.id)
                .map_or(0, |r| r.generated.len());
            let feed_len = candidate.prompt.len() + carried;
            // Only the first feed_len - 1 tokens are shareable: the last
            // token must be stepped to yield logits.
            let lookup: Vec<usize> = candidate
                .prompt
                .iter()
                .copied()
                .chain(
                    self.resume
                        .get(&candidate.id)
                        .into_iter()
                        .flat_map(|r| r.generated.iter().copied()),
                )
                .take(feed_len - 1)
                .collect();
            let shared = if self.prefix_sharing {
                self.runner.cached_prefix_len(&lookup)
            } else {
                0
            };
            let need =
                self.runner.blocks_for_request(feed_len) - self.runner.blocks_for_request(shared);
            let free = self.runner.pool().free_blocks();
            // With speculation, the draft pool must clear the same
            // discipline (its per-request demand is smaller — fewer layers —
            // but it is a separate pool).
            let draft_fits = self.draft.as_ref().is_none_or(|d| {
                let d_need =
                    d.runner.blocks_for_request(feed_len) - d.runner.blocks_for_request(shared);
                let d_free = d.runner.pool().free_blocks();
                d_free >= d_need + self.watermark_blocks
                    || (self.active.is_empty() && d_free >= d_need)
            });
            let admissible = (free >= need + self.watermark_blocks
                || (self.active.is_empty() && free >= need))
                && draft_fits;
            if !admissible {
                // With nothing running, snapshots are the only holders: drop
                // them until the head fits (the submit-time sizing check
                // guarantees it will).
                if self.active.is_empty() {
                    assert!(
                        self.evict_lru_prefix_everywhere(),
                        "head request needs {need} blocks but only {free} exist and \
                         nothing holds the rest; submit-time sizing should prevent this"
                    );
                    continue; // re-evaluate (the hit may be gone)
                }
                break;
            }
            let req = self.scheduler.pop().expect("peeked above");
            if !self.resume.contains_key(&req.id) {
                // First admission only: a readmission after preemption is
                // not queueing delay.
                self.note_queue_wait(req.id);
            }
            let prefix_sharing = self.prefix_sharing;
            let (sid, cached) = if prefix_sharing {
                self.runner.create_session_with_prefix(&lookup)
            } else {
                (self.runner.create_session(), 0)
            };
            debug_assert_eq!(cached, shared);
            let draft_sid = self.draft.as_mut().map(|d| {
                if prefix_sharing {
                    let (dsid, d_cached) = d.runner.create_session_with_prefix(&lookup);
                    debug_assert_eq!(
                        d_cached, cached,
                        "draft prefix cache diverged from the target's"
                    );
                    dsid
                } else {
                    d.runner.create_session()
                }
            });
            let carry = self.resume.remove(&req.id);
            self.totals.prefill_tokens += feed_len;
            self.totals.prefix_cached_tokens += cached;
            self.admit_counter += 1;
            self.active.push(ActiveSeq {
                sid,
                draft_sid,
                pos: cached,
                generated: carry
                    .as_ref()
                    .map_or_else(Vec::new, |r| r.generated.clone()),
                replay_until: feed_len,
                prompt_fed: carry.as_ref().map_or(0, |r| r.prompt_fed),
                first_token_iter: carry.as_ref().and_then(|r| r.first_token_iter),
                admitted_iter: carry.as_ref().map_or(self.iter, |r| r.admitted_iter),
                admit_seq: self.admit_counter,
                req,
            });
        }
    }

    /// The pressure valve, run before every step: if the iteration's block
    /// demand (boundary allocations + copy-on-write) exceeds the free list,
    /// drop prefix snapshots first — they are pure cache — then preempt the
    /// youngest running sequence: release its blocks, requeue the request,
    /// and recompute its tokens on readmission (byte-identical by
    /// determinism). The oldest sequence is never preempted, so the engine
    /// always makes progress.
    fn relieve_pressure(&mut self, rung: u8) {
        loop {
            // Per-sequence demand for the run each will actually take this
            // tick: a verify run pushes its whole round on *both* pools
            // before the rejected tail is rolled back.
            let runs = self.active.iter().enumerate();
            if self.blocks_fit(runs.map(|(i, s)| (i, self.spec_k(s, rung).unwrap_or(1)))) {
                return;
            }
            if self.evict_lru_prefix_everywhere() {
                continue;
            }
            assert!(
                self.active.len() > 1,
                "a lone running sequence exhausted the pool; submit-time sizing should \
                 prevent this"
            );
            let youngest = (0..self.active.len())
                .max_by_key(|&i| self.active[i].admit_seq)
                .expect("more than one sequence is running");
            self.retire(youngest, Leave::Preempt);
        }
    }

    /// Whether the free lists of both pools cover `runs` together, each an
    /// `(index into active, rows)` pair: the draft runner is fed every row
    /// the target is.
    fn blocks_fit(&self, runs: impl Iterator<Item = (usize, usize)>) -> bool {
        let (mut need_target, mut need_draft) = (0usize, 0usize);
        for (i, len) in runs {
            let s = &self.active[i];
            need_target += self.runner.blocks_needed_for_run(s.sid, len);
            if let (Some(d), Some(dsid)) = (self.draft.as_ref(), s.draft_sid) {
                need_draft += d.runner.blocks_needed_for_run(dsid, len);
            }
        }
        self.runner.pool().free_blocks() >= need_target
            && self
                .draft
                .as_ref()
                .is_none_or(|d| d.runner.pool().free_blocks() >= need_draft)
    }

    /// The draft-and-verify round size sequence `s` would run at ladder
    /// rung `rung`, or `None` when it takes a plain step: speculation off,
    /// still in prefill/replay, fewer than two tokens left to generate (a
    /// round always emits at least one token of the target's own, so the
    /// last token is never worth drafting for), or a V window about to
    /// fill.
    fn spec_k(&self, s: &ActiveSeq, rung: u8) -> Option<usize> {
        let d = self.draft.as_ref()?;
        // Ladder rung 2+ turns speculation off entirely; rung 1 halves the
        // round size. Both only change how many drafts are attempted, and
        // verification guarantees emitted tokens equal plain greedy decode
        // — so degradation never changes any sequence's output bytes.
        if rung >= RUNG_NO_SPEC {
            return None;
        }
        s.draft_sid?;
        if s.pos < s.replay_until {
            return None;
        }
        let remaining = s.req.max_new_tokens - s.generated.len();
        if remaining < 2 {
            return None;
        }
        let k = if rung >= RUNG_HALVE_DRAFT {
            d.k.div_ceil(2)
        } else {
            d.k
        };
        // A request's last token always takes a plain step.
        let k = k.min(remaining - 1);
        // A round the window cap cuts to one candidate is a plain step
        // with a dearer draft pass.
        let capped = window_cap(s.pos, k, self.runner.kv_group());
        (capped == k || capped >= 2).then_some(capped)
    }

    /// Evicts the LRU prefix snapshot from the target runner and, in
    /// lockstep, from the draft runner. The two prefix caches see the
    /// identical registration/hit/eviction sequence, so their LRU orders
    /// coincide and the same prefix leaves both.
    fn evict_lru_prefix_everywhere(&mut self) -> bool {
        let evicted = self.runner.evict_lru_prefix();
        if let Some(d) = self.draft.as_mut() {
            let d_evicted = d.runner.evict_lru_prefix();
            debug_assert_eq!(d_evicted, evicted, "draft prefix cache diverged");
        }
        evicted
    }
}

/// The longest speculative round, at most `k` rows, a cache of `n` rows and
/// V windows of `g` can roll back with a truncate. Filling a window
/// re-encodes it to 4 bits — lossy, so no cut below it can be replayed —
/// and the only window a round may fill is the one its first row fills:
/// that row is the pending token, which every outcome keeps. So the round
/// must end before the next window does: `(n + k') / g * g <= n + 1`.
fn window_cap(n: usize, k: usize, g: usize) -> usize {
    // The first window end past `n + 1`, which the round stops short of.
    let next_commit = (n + 1) / g * g + g;
    k.min(next_commit - 1 - n)
}

/// Records one tick phase: the duration lands in the always-on breakdown
/// histogram and, when tracing is enabled, as a wall-positioned span.
fn note_phase(hist: &mut Hist, label: &'static str, start: Instant, end: Instant) {
    let ns = end.duration_since(start).as_nanos() as u64;
    hist.record(ns);
    mant_trace::span_at(label, start, ns);
}

/// The one-request-at-a-time baseline the serving runtime is measured
/// against: each request runs alone on a sequential
/// [`TransformerModel::packed_runner`] (prompt steps, then greedy decode).
/// Returns the per-request token streams in input order plus the total
/// wall seconds — the same computation as the engine, minus batching.
///
/// # Panics
///
/// Panics if a request has an empty prompt or asks for zero tokens (the
/// same requests [`ServeEngine::submit`] rejects).
pub fn sequential_generate(
    model: &TransformerModel,
    packed: &PackedWeights,
    act: ActMode,
    kv: KvMode,
    requests: &[GenRequest],
) -> (Vec<Vec<usize>>, f64) {
    let t0 = Instant::now();
    let outputs = requests
        .iter()
        .map(|req| {
            assert!(
                !req.prompt.is_empty(),
                "request {} has an empty prompt",
                req.id
            );
            assert!(
                req.max_new_tokens > 0,
                "request {} asks for zero tokens",
                req.id
            );
            let mut runner = model.packed_runner(packed, act, kv);
            let mut logits = Vec::new();
            for &t in &req.prompt {
                logits = runner.step(t);
            }
            let mut tokens = Vec::with_capacity(req.max_new_tokens);
            tokens.push(argmax(&logits));
            while tokens.len() < req.max_new_tokens {
                let logits = runner.step(*tokens.last().expect("non-empty"));
                tokens.push(argmax(&logits));
            }
            tokens
        })
        .collect();
    (outputs, t0.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::requests_from_shared_trace;
    use mant_model::{synthesize_speculative_pair, DraftConfig, ModelConfig};
    use mant_sim::{shared_prefix_trace, LengthDist, SharedPrefixConfig};
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// Conservation and drain — what [`ServeEngine::retire`] owns. One seeded
    /// run with a draft model, prefix sharing and a pool tight enough to
    /// preempt, in which requests finish, are cancelled (running and
    /// queued), expire by `deadline_iter` and are preempted — and, with
    /// fault injection, three consecutive `batch.step` panics roll the batch
    /// back twice and then quarantine it. Every accepted request ends exactly
    /// one way, nothing is left pending, and once the prefix cache is dropped
    /// both pools are all free.
    #[test]
    fn every_request_leaves_exactly_one_way_and_both_pools_drain() {
        const SEED: u64 = 24;
        let cfg = ModelConfig::sim_llama();
        let draft_cfg = DraftConfig {
            layers: 1,
            tail_block_ratio: 0.02,
        };
        let (target, draft) = synthesize_speculative_pair(&cfg, SEED, &draft_cfg);
        let packed = target.pack_weights(64).unwrap();
        let draft_packed = draft.pack_weights(64).unwrap();
        let shared_cfg = SharedPrefixConfig {
            personas: 2,
            requests_per_persona: 6,
            system_prompt_len: 16,
            persona_prompt_len: 0,
            unique_prompt_len: LengthDist::Uniform { lo: 1, hi: 4 },
            output: LengthDist::Fixed(20),
            arrivals_per_iter: 0.3,
            seed: SEED,
        };
        let trace = shared_prefix_trace(&shared_cfg);
        let mut requests = requests_from_shared_trace(&shared_cfg, &trace, cfg.vocab, SEED ^ 1);
        // A quarter of the requests cannot make their deadline.
        for r in requests.iter_mut().skip(1).step_by(4) {
            r.deadline_iter = Some(r.arrival_iter + 10);
        }
        // A 40-token lifetime is 3 blocks in each of the target's 2 layers:
        // four lanes want 24 of the pool's 14.
        let mut engine = ServeEngine::new_with_draft(
            &target,
            &packed,
            &draft,
            &draft_packed,
            ServeConfig {
                max_batch: 4,
                pool_blocks: 14,
                block_tokens: 16,
                act: ActMode::None,
                kv: KvMode::Int4 { group: 16 },
                admission: AdmissionPolicy::Watermark {
                    watermark_blocks: 2,
                },
                prefix_sharing: true,
                speculative: Some(SpeculativeConfig { draft_k: 4 }),
            },
        );
        engine.enable_events();
        let totals = (engine.free_blocks(), engine.draft_free_blocks());
        for r in &requests {
            engine.submit(r.clone());
        }
        #[cfg(feature = "fault-inject")]
        mant_trace::fault::install(mant_trace::fault::FaultPlan::new().with_site(
            mant_trace::fault::site::BATCH_STEP,
            mant_trace::fault::SiteRule {
                after: 60,
                every: 1,
                limit: 3,
                payload: 0,
            },
        ));
        let mut ticks = 0;
        while engine.pending() > 0 && ticks < 10_000 {
            if ticks == 6 {
                let running = engine.active.last().expect("a busy tick").req.id;
                let queued = requests.last().expect("non-empty").id;
                assert!(
                    engine.cancel(running) && engine.cancel(queued),
                    "seed {SEED}"
                );
            }
            engine.tick();
            ticks += 1;
        }
        #[cfg(feature = "fault-inject")]
        mant_trace::fault::clear();

        let report = engine.report(0.0);
        let mut outcomes: BTreeMap<u64, EngineEvent> = BTreeMap::new();
        // Finished, cancelled, expired, poisoned.
        let mut seen = [0usize; 4];
        for e in engine.drain_events() {
            let (id, kind) = match e {
                EngineEvent::Token { .. } => continue,
                EngineEvent::Finished { id } => (id, 0),
                EngineEvent::Cancelled { id } => (id, 1),
                EngineEvent::Expired { id } => (id, 2),
                EngineEvent::Poisoned { id } => (id, 3),
            };
            seen[kind] += 1;
            if let Some(first) = outcomes.insert(id, e.clone()) {
                panic!("seed {SEED}: request {id} left twice: {first:?}, then {e:?}");
            }
        }
        assert_eq!(engine.pending(), 0, "seed {SEED}: hung after {ticks} ticks");
        assert_eq!(
            seen,
            [
                report.completions.len(),
                report.cancelled_requests,
                report.expired_requests,
                report.poisoned_requests,
            ],
            "seed {SEED}: counters disagree with events"
        );
        assert_eq!(
            outcomes.len(),
            requests.len(),
            "seed {SEED}: a request vanished"
        );
        assert!(
            !report.completions.is_empty()
                && report.cancelled_requests == 2
                && report.expired_requests > 0
                && report.preemptions > 0
                && report.prefix_cached_tokens > 0,
            "seed {SEED}: a way out went unexercised: {report:?}"
        );
        #[cfg(feature = "fault-inject")]
        assert!(
            report.step_rollbacks > 0 && report.poisoned_requests > 0,
            "seed {SEED}: {} rollbacks, {} poisoned",
            report.step_rollbacks,
            report.poisoned_requests
        );
        assert!(engine.submit_times.is_empty() && engine.resume.is_empty());
        while engine.evict_lru_prefix_everywhere() {}
        assert_eq!(
            (engine.free_blocks(), engine.draft_free_blocks()),
            totals,
            "seed {SEED}: a pool leaked blocks"
        );
    }

    proptest! {
        /// The capped round is a round (`>= 1`), no longer than asked for,
        /// fills no V window past the one its first row may fill, and is
        /// the longest such.
        #[test]
        fn window_cap_is_the_longest_round_a_truncate_can_undo(
            n in 0usize..4096,
            k in 1usize..40,
            g in 1usize..130,
        ) {
            let commits_by = |rows: usize| (n + rows) / g * g;
            let capped = window_cap(n, k, g);
            prop_assert!((1..=k).contains(&capped), "{capped} outside 1..={k}");
            prop_assert!(commits_by(capped) <= n + 1, "a {capped}-row round fills a window");
            prop_assert!(
                capped == k || commits_by(capped + 1) > n + 1,
                "a {}-row round would fit too",
                capped + 1
            );
        }
    }
}
