//! FCFS admission queue for the continuous-batching engine.
//!
//! Requests wait here until (a) their arrival time has passed, (b) the
//! running batch has a free lane, and (c) the paged KV pool's free list
//! covers the request's prefill plus the engine's watermark. Admission is
//! strictly first-come-first-served with head-of-line blocking: a large
//! request that does not fit yet is *waited for*, not skipped, so no
//! request can be starved by a stream of small ones.
//!
//! Submission is validating: work that can never produce a token — an
//! empty prompt, `max_new_tokens == 0` — is refused with a typed
//! [`SubmitError`] instead of being enqueued to stall or panic later.
//! (Checks that need the model or pool — vocabulary range, lifetime block
//! demand, duplicate in-flight ids — live in
//! [`ServeEngine::try_submit`](crate::ServeEngine::try_submit), which sees
//! both.)

use std::collections::VecDeque;

use crate::request::{GenRequest, SubmitError};

/// Arrival-ordered waiting queue.
#[derive(Debug, Default)]
pub struct FcfsScheduler {
    waiting: VecDeque<GenRequest>,
}

impl FcfsScheduler {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enqueues a request, keeping the queue sorted by arrival time
    /// (stable for equal arrivals: earlier submissions first). The queue
    /// is always sorted, so the insertion point is a binary search
    /// (`partition_point`), not a linear scan — submit stays O(log n)
    /// comparisons even under the serving engine's preemption requeues.
    ///
    /// # Errors
    ///
    /// Refuses requests that could never produce a token: an empty
    /// prompt ([`SubmitError::EmptyPrompt`]) or `max_new_tokens == 0`
    /// ([`SubmitError::ZeroNewTokens`]).
    pub fn submit(&mut self, req: GenRequest) -> Result<(), SubmitError> {
        if req.prompt.is_empty() {
            return Err(SubmitError::EmptyPrompt { id: req.id });
        }
        if req.max_new_tokens == 0 {
            return Err(SubmitError::ZeroNewTokens { id: req.id });
        }
        let pos = self
            .waiting
            .partition_point(|r| r.arrival_iter <= req.arrival_iter);
        self.waiting.insert(pos, req);
        Ok(())
    }

    /// Requests still waiting.
    pub fn waiting(&self) -> usize {
        self.waiting.len()
    }

    /// Whether a request with this id is waiting (duplicate-id guard).
    pub fn contains(&self, id: u64) -> bool {
        self.waiting.iter().any(|r| r.id == id)
    }

    /// The head request if it has arrived by `now`.
    pub fn peek_ready(&self, now: u64) -> Option<&GenRequest> {
        self.waiting.front().filter(|r| r.arrival_iter <= now)
    }

    /// Removes and returns the head request (the one `peek_ready` showed).
    pub fn pop(&mut self) -> Option<GenRequest> {
        self.waiting.pop_front()
    }

    /// Removes the waiting request with this id (cancellation), wherever
    /// it sits in the queue — cancelled work must not occupy a head-of-line
    /// slot it will never use.
    pub fn remove(&mut self, id: u64) -> Option<GenRequest> {
        let pos = self.waiting.iter().position(|r| r.id == id)?;
        self.waiting.remove(pos)
    }

    /// Removes and returns every waiting request whose deadline has passed
    /// by `now` — expired work is *cancelled, not ticked*: it leaves the
    /// queue here, before admission can ever feed it to the model.
    pub fn take_expired(&mut self, now: u64) -> Vec<GenRequest> {
        let mut expired = Vec::new();
        let mut i = 0;
        while i < self.waiting.len() {
            if self.waiting[i].deadline_iter.is_some_and(|d| now >= d) {
                expired.push(self.waiting.remove(i).expect("index in bounds"));
            } else {
                i += 1;
            }
        }
        expired
    }

    /// The earliest waiting arrival time, for idle-clock fast-forwarding.
    pub fn next_arrival(&self) -> Option<u64> {
        self.waiting.front().map(|r| r.arrival_iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(id: u64, arrival: u64) -> GenRequest {
        GenRequest {
            id,
            prompt: vec![1],
            max_new_tokens: 1,
            arrival_iter: arrival,
            deadline_iter: None,
        }
    }

    #[test]
    fn submit_keeps_queue_sorted_and_stable_under_churn() {
        // Adversarial interleaving (ascending, descending, duplicates —
        // the patterns a preemption requeue produces): the queue must stay
        // sorted by arrival with equal arrivals in submission order.
        let mut s = FcfsScheduler::new();
        let arrivals = [5u64, 2, 9, 2, 5, 0, 9, 5, 7, 2];
        for (i, &a) in arrivals.iter().enumerate() {
            s.submit(req(i as u64, a)).unwrap();
        }
        let mut drained = Vec::new();
        while let Some(r) = s.pop() {
            drained.push((r.arrival_iter, r.id));
        }
        let mut expect: Vec<(u64, u64)> = arrivals
            .iter()
            .enumerate()
            .map(|(i, &a)| (a, i as u64))
            .collect();
        // Stable sort by arrival == FCFS with submission-order tie-break.
        expect.sort_by_key(|&(a, _)| a);
        assert_eq!(drained, expect);
    }

    #[test]
    fn fcfs_order_with_out_of_order_submission() {
        let mut s = FcfsScheduler::new();
        s.submit(req(0, 5)).unwrap();
        s.submit(req(1, 2)).unwrap();
        s.submit(req(2, 5)).unwrap(); // equal arrival: after id 0
        assert_eq!(s.waiting(), 3);
        assert_eq!(s.next_arrival(), Some(2));
        assert!(s.peek_ready(1).is_none());
        assert_eq!(s.peek_ready(2).unwrap().id, 1);
        assert_eq!(s.pop().unwrap().id, 1);
        assert_eq!(s.pop().unwrap().id, 0);
        assert_eq!(s.pop().unwrap().id, 2);
        assert!(s.pop().is_none());
    }

    #[test]
    fn degenerate_requests_get_typed_rejections() {
        let mut s = FcfsScheduler::new();
        let empty = GenRequest {
            prompt: Vec::new(),
            ..req(7, 0)
        };
        assert_eq!(s.submit(empty), Err(SubmitError::EmptyPrompt { id: 7 }));
        let zero = GenRequest {
            max_new_tokens: 0,
            ..req(8, 0)
        };
        assert_eq!(s.submit(zero), Err(SubmitError::ZeroNewTokens { id: 8 }));
        assert_eq!(s.waiting(), 0, "rejected requests must not enqueue");
    }

    #[test]
    fn remove_cancels_mid_queue_without_disturbing_order() {
        let mut s = FcfsScheduler::new();
        for id in 0..4 {
            s.submit(req(id, id)).unwrap();
        }
        assert_eq!(s.remove(2).unwrap().id, 2);
        assert!(s.remove(2).is_none(), "already removed");
        assert!(!s.contains(2));
        let drained: Vec<u64> = std::iter::from_fn(|| s.pop()).map(|r| r.id).collect();
        assert_eq!(drained, [0, 1, 3]);
    }

    #[test]
    fn take_expired_removes_only_past_deadlines() {
        let mut s = FcfsScheduler::new();
        s.submit(GenRequest {
            deadline_iter: Some(5),
            ..req(0, 0)
        })
        .unwrap();
        s.submit(GenRequest {
            deadline_iter: Some(20),
            ..req(1, 1)
        })
        .unwrap();
        s.submit(req(2, 2)).unwrap(); // no deadline
        assert!(s.take_expired(4).is_empty(), "nothing due yet");
        let expired = s.take_expired(5);
        assert_eq!(expired.len(), 1);
        assert_eq!(expired[0].id, 0);
        assert_eq!(s.waiting(), 2);
        let expired = s.take_expired(1_000);
        assert_eq!(expired.len(), 1);
        assert_eq!(expired[0].id, 1);
        assert_eq!(s.waiting(), 1, "deadline-free requests never expire");
    }
}
