//! Incremental line framing for socket readers.
//!
//! The serving tier (`lof-serve`) reads NDJSON off sockets in arbitrary
//! chunks: a line may arrive split across many reads, and a hostile or
//! broken client may send an unbounded "line" that never ends. This
//! buffer turns raw chunks into complete lines while holding both
//! properties:
//!
//! * **partial lines survive across reads** — bytes without a newline
//!   stay buffered until the rest arrives;
//! * **oversized lines are rejected, not truncated** — once a line
//!   exceeds the cap, the buffer switches to discard mode, reports one
//!   [`Line::Oversized`] marker (the serve loops answer it with an
//!   in-band error record), and silently drops bytes until the next
//!   newline resynchronizes the stream. Nothing of the overlong line is
//!   ever delivered as if it were the client's event.

/// Default per-line cap: far above any realistic event (a 1000-d point
/// in JSON is ~25 KiB) but small enough that one bad client cannot
/// balloon the server's memory.
pub const DEFAULT_MAX_LINE: usize = 256 * 1024;

/// One framing outcome from [`LineBuffer::next_line`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Line {
    /// A complete line (newline stripped, `\r\n` tolerated), decoded
    /// UTF-8-lossily — invalid sequences become U+FFFD and then fail
    /// event parsing with a readable message instead of killing the
    /// connection.
    Complete(String),
    /// A line exceeded the cap and was discarded up to the next newline.
    Oversized {
        /// The configured cap the line overran.
        limit: usize,
    },
}

/// Reassembles newline-delimited lines from arbitrary read chunks.
#[derive(Debug)]
pub struct LineBuffer {
    buf: Vec<u8>,
    /// Consumed prefix of `buf` (compacted lazily).
    start: usize,
    /// True while dropping the remainder of an overlong line.
    discarding: bool,
    max_line: usize,
}

impl LineBuffer {
    /// A buffer enforcing `max_line` bytes per line (0 means
    /// [`DEFAULT_MAX_LINE`]).
    pub fn new(max_line: usize) -> Self {
        let max_line = if max_line == 0 { DEFAULT_MAX_LINE } else { max_line };
        LineBuffer { buf: Vec::new(), start: 0, discarding: false, max_line }
    }

    /// Appends one read chunk.
    pub fn push(&mut self, chunk: &[u8]) {
        // Compact before growing: the consumed prefix is dead weight.
        if self.start > 0 && (self.start >= self.buf.len() || self.start > 4096) {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(chunk);
    }

    /// Bytes currently buffered and not yet delivered.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Drains the next framed line, if a complete one (or an overflow
    /// verdict) is available. Call repeatedly after each
    /// [`push`](Self::push) until it returns `None`.
    pub fn next_line(&mut self) -> Option<Line> {
        loop {
            let pending = &self.buf[self.start..];
            match pending.iter().position(|&b| b == b'\n') {
                Some(pos) => {
                    let line_end = self.start + pos;
                    let line_start = self.start;
                    self.start = line_end + 1;
                    if self.discarding {
                        // The tail of an already-reported overlong line:
                        // drop it and resynchronize.
                        self.discarding = false;
                        continue;
                    }
                    let mut line = &self.buf[line_start..line_end];
                    if line.last() == Some(&b'\r') {
                        line = &line[..line.len() - 1];
                    }
                    if line.len() > self.max_line {
                        return Some(Line::Oversized { limit: self.max_line });
                    }
                    return Some(Line::Complete(String::from_utf8_lossy(line).into_owned()));
                }
                None => {
                    if self.discarding {
                        // Still inside the overlong line: drop everything.
                        self.buf.clear();
                        self.start = 0;
                        return None;
                    }
                    if self.pending() > self.max_line {
                        // The partial line already overran the cap; report
                        // once and discard until the newline arrives.
                        self.buf.clear();
                        self.start = 0;
                        self.discarding = true;
                        return Some(Line::Oversized { limit: self.max_line });
                    }
                    return None;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_survive_arbitrary_chunking() {
        let mut lb = LineBuffer::new(64);
        lb.push(b"1.0,");
        assert_eq!(lb.next_line(), None, "partial line stays buffered");
        lb.push(b"2.0\n3.0");
        assert_eq!(lb.next_line(), Some(Line::Complete("1.0,2.0".to_owned())));
        assert_eq!(lb.next_line(), None);
        lb.push(b",4.0\r\n\n");
        assert_eq!(lb.next_line(), Some(Line::Complete("3.0,4.0".to_owned())));
        assert_eq!(lb.next_line(), Some(Line::Complete(String::new())));
        assert_eq!(lb.next_line(), None);
    }

    #[test]
    fn single_byte_chunks_work() {
        let mut lb = LineBuffer::new(64);
        for &b in b"a,b\nc,d\n" {
            lb.push(&[b]);
        }
        assert_eq!(lb.next_line(), Some(Line::Complete("a,b".to_owned())));
        assert_eq!(lb.next_line(), Some(Line::Complete("c,d".to_owned())));
        assert_eq!(lb.next_line(), None);
    }

    #[test]
    fn oversized_complete_line_is_rejected_not_truncated() {
        let mut lb = LineBuffer::new(8);
        lb.push(b"0123456789ABCDEF\nok\n");
        assert_eq!(lb.next_line(), Some(Line::Oversized { limit: 8 }));
        assert_eq!(lb.next_line(), Some(Line::Complete("ok".to_owned())));
    }

    #[test]
    fn oversized_partial_line_reports_once_and_resynchronizes() {
        let mut lb = LineBuffer::new(8);
        lb.push(b"0123456789");
        assert_eq!(lb.next_line(), Some(Line::Oversized { limit: 8 }), "cap overrun mid-line");
        // More of the same overlong line: silently discarded.
        lb.push(b"ABCDEFGHIJ");
        assert_eq!(lb.next_line(), None);
        assert_eq!(lb.pending(), 0, "discard mode must not buffer");
        // The newline ends the bad line; the next one is delivered.
        lb.push(b"tail\nfresh\n");
        assert_eq!(lb.next_line(), Some(Line::Complete("fresh".to_owned())));
        assert_eq!(lb.next_line(), None);
    }

    #[test]
    fn zero_cap_means_default() {
        let lb = LineBuffer::new(0);
        assert_eq!(lb.max_line, DEFAULT_MAX_LINE);
    }

    #[test]
    fn invalid_utf8_is_delivered_lossily() {
        let mut lb = LineBuffer::new(64);
        lb.push(b"1.0,\xFF\xFE\n");
        match lb.next_line() {
            Some(Line::Complete(s)) => assert!(s.contains('\u{FFFD}')),
            other => panic!("expected a lossy line, got {other:?}"),
        }
    }
}
