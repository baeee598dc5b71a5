//! The benchmark's own span recorder: one span around every call into
//! the program during a traced replay, kept in memory, written out at the
//! end. Spans come from this file, not from inside the program, so the
//! program under test is unchanged.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub id: usize,
    /// The span that was open when this one started.
    pub parent: Option<usize>,
    pub name: &'static str,
    /// The request the call served, when it served exactly one.
    pub request_id: Option<u64>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Records nested spans on one thread. A disabled recorder reads no
/// clock and stores nothing, so the untraced replay runs the same code.
pub struct Recorder {
    enabled: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, request_id: Option<u64>) {
        if !self.enabled {
            return;
        }
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            request_id,
            start_ns: now,
            end_ns: now,
        });
        self.open.push(id);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let id = self.open.pop().expect("exit without a matching enter");
        self.spans[id].end_ns = self.now_ns();
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time per span name: a span's duration minus the part its direct
/// children cover. Summed over every span the parts equal the root's
/// duration exactly, so shares of the root sum to 1.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            covered[p] += s.end_ns - s.start_ns;
        }
    }
    let mut out = BTreeMap::new();
    for s in spans {
        *out.entry(s.name).or_insert(0) += (s.end_ns - s.start_ns).saturating_sub(covered[s.id]);
    }
    out
}

/// The spans as a JSON array, one object per span.
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let opt = |v: Option<u64>| v.map_or("null".to_owned(), |v| v.to_string());
        out.push_str(&format!(
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"request_id\":{},\"start_ns\":{},\"end_ns\":{}}}{}\n",
            s.id,
            opt(s.parent.map(|p| p as u64)),
            s.name,
            opt(s.request_id),
            s.start_ns,
            s.end_ns,
            if i + 1 == spans.len() { "" } else { "," },
        ));
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            request_id: None,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn children_are_subtracted_and_parts_sum_to_the_whole() {
        // replay [0,100): tick [10,40) holding step [15,35); tick [50,70);
        // drain [70,75).
        let spans = vec![
            span(0, None, "replay", 0, 100),
            span(1, Some(0), "tick", 10, 40),
            span(2, Some(1), "step", 15, 35),
            span(3, Some(0), "tick", 50, 70),
            span(4, Some(0), "drain", 70, 75),
        ];
        let t = self_times(&spans);
        assert_eq!(t["step"], 20);
        assert_eq!(t["tick"], 10 + 20, "the nested step is not counted twice");
        assert_eq!(t["drain"], 5);
        assert_eq!(t["replay"], 100 - 30 - 20 - 5, "unattributed remainder");
        assert_eq!(t.values().sum::<u64>(), 100);
    }

    #[test]
    fn recorder_nests_and_a_disabled_one_records_nothing() {
        let mut r = Recorder::new(true);
        r.enter("replay", None);
        r.enter("tick", None);
        r.exit();
        r.enter("submit", Some(7));
        r.exit();
        r.exit();
        let s = r.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[1].parent, s[2].parent), (Some(0), Some(0)));
        assert_eq!(s[2].request_id, Some(7));
        assert!(s[0].end_ns >= s[2].end_ns && s[1].end_ns <= s[2].start_ns);
        let parts: u64 = self_times(s).values().sum();
        assert_eq!(parts, s[0].end_ns - s[0].start_ns);
        assert!(to_json(s).contains("\"request_id\":7"));

        let mut off = Recorder::new(false);
        off.enter("replay", None);
        off.exit();
        assert!(off.spans().is_empty());
    }
}
