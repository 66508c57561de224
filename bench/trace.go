package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/apps"
)

// span is one timed call the benchmark made into a layer. Spans are
// recorded from the benchmark's own files only, around calls into each
// layer's public API; spans inside internal/ are a later change
// (ROADMAP item 1(b)).
type span struct {
	ID       int              `json:"id"`
	Parent   int              `json:"parent"` // 0 = root
	Name     string           `json:"name"`
	Layer    string           `json:"layer"`
	Workload string           `json:"workload"`
	StartNS  int64            `json:"start_ns"`
	EndNS    int64            `json:"end_ns"`
	Counts   map[string]int64 `json:"counts,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is
// tracing off: every method is a no-op, so the untraced run pays one nil
// check per boundary and nothing else.
type tracer struct {
	workload string
	mu       sync.Mutex
	spans    []span
}

func newTracer(workload string) *tracer { return &tracer{workload: workload} }

// begin opens a span under parent and returns its id (0 when off).
func (t *tracer) begin(parent int, layer, name string) int {
	if t == nil {
		return 0
	}
	start := nowNS()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Layer: layer, Workload: t.workload, StartNS: start})
	return id
}

// end closes span id, attaching the counts read at the same boundary.
func (t *tracer) end(id int, counts map[string]int64) {
	if t == nil || id == 0 {
		return
	}
	end := nowNS()
	t.mu.Lock()
	t.spans[id-1].EndNS = end
	t.spans[id-1].Counts = counts
	t.mu.Unlock()
}

// resultCounts is the count set attached to a cell or job span.
func (t *tracer) resultCounts(r apps.Result) map[string]int64 {
	if t == nil {
		return nil
	}
	return map[string]int64{"messages": r.Messages, "bytes": r.Bytes, "frames": r.Frames, "virtual_ns": int64(r.Time)}
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval that its direct children cover. Children may overlap one
// another (served jobs run four wide), so coverage is the union of their
// intervals clipped to the parent, never their sum.
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		var covered int64
		edge := s.StartNS
		for _, k := range kids {
			lo, hi := max(k.StartNS, edge), min(k.EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.EndNS - s.StartNS - covered
	}
	return self
}

// selfShare is a span's self time as a percentage of its duration: the
// harness and scheduler overhead figures.
func selfShare(spans []span, id int) float64 {
	s := spans[id-1]
	if d := s.EndNS - s.StartNS; d > 0 {
		return 100 * float64(selfTimes(spans)[id]) / float64(d)
	}
	return 0
}

// writeTrace stores the run's spans (with self times) as JSON.
func writeTrace(path string, spans []span) error {
	type outSpan struct {
		span
		SelfNS int64 `json:"self_ns"`
	}
	self := selfTimes(spans)
	out := make([]outSpan, len(spans))
	for i, s := range spans {
		out[i] = outSpan{span: s, SelfNS: self[s.ID]}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
