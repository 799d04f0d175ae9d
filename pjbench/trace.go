package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one operation
// share Op; Parent is the enclosing span's ID (0 for the operation's root).
// Derived spans are not timed by a clock of their own: they place a
// duration the program returned (a server's reported execution time, say)
// inside their parent, so the parent's self time excludes it.
type span struct {
	ID      int    `json:"id"`
	Op      int    `json:"op"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Derived bool   `json:"derived,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// tracer keeps spans in memory; they are written out when the run ends.
// A nil tracer records nothing, which is how untraced passes run.
type tracer struct {
	mu     sync.Mutex
	epoch  time.Time
	spans  []span // span ID i is spans[i-1]
	byOp   map[int][]int
	nextOp int
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), byOp: map[int][]int{}} }

// push appends a span under t.mu and returns its ID.
func (t *tracer) push(s span) int {
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	t.byOp[s.Op] = append(t.byOp[s.Op], s.ID)
	return s.ID
}

// newOp allocates an operation ID.
func (t *tracer) newOp() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextOp++
	return t.nextOp
}

// begin opens a span and returns its ID; end closes it.
func (t *tracer) begin(op, parent int, name string) int {
	if t == nil {
		return 0
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	start := now.Sub(t.epoch).Nanoseconds()
	return t.push(span{Op: op, Parent: parent, Name: name, StartNS: start, EndNS: start})
}

func (t *tracer) end(id int) time.Duration {
	if t == nil {
		return 0
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.EndNS = now.Sub(t.epoch).Nanoseconds()
	return s.dur()
}

// timed runs fn inside a span and returns the span's duration.
func (t *tracer) timed(op, parent int, name string, fn func()) time.Duration {
	id := t.begin(op, parent, name)
	fn()
	return t.end(id)
}

// derived records a span whose duration the program reported rather than
// a clock measured, placed at start inside its parent.
func (t *tracer) derived(op, parent int, name string, startNS int64, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.push(span{Op: op, Parent: parent, Name: name, StartNS: startNS, EndNS: startNS + d.Nanoseconds(), Derived: true})
}

// spanAt returns a copy of the span with the given ID.
func (t *tracer) spanAt(id int) span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id-1]
}

// opSpans returns the spans of one operation.
func (t *tracer) opSpans(op int) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	ids := t.byOp[op]
	out := make([]span, len(ids))
	for i, id := range ids {
		out[i] = t.spans[id-1]
	}
	return out
}

// selfTimes maps span ID to self time: the span's duration minus the part
// of its interval that its children cover (overlapping children count
// once, and a child reaching outside its parent is clipped to it).
func selfTimes(spans []span) map[int]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		var covered int64
		cur, curEnd := int64(-1), int64(-1)
		for _, k := range kids {
			lo, hi := max(k.StartNS, s.StartNS), min(k.EndNS, s.EndNS)
			if hi <= lo {
				continue
			}
			if lo > curEnd {
				if curEnd > cur {
					covered += curEnd - cur
				}
				cur, curEnd = lo, hi
			} else if hi > curEnd {
				curEnd = hi
			}
		}
		if curEnd > cur {
			covered += curEnd - cur
		}
		out[s.ID] = s.dur() - time.Duration(covered)
	}
	return out
}

// writeJSONL writes every span, with its self time, one per line.
func (t *tracer) writeJSONL(path string) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	self := selfTimes(spans)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		rec := struct {
			span
			SelfNS int64 `json:"self_ns"`
		}{s, int64(self[s.ID])}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
