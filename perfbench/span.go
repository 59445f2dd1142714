package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Span clocks. Host spans are wall-clock nanoseconds since the recorder
// was made; sim spans are simulated cycles, used for the per-query wait
// and execution children of a serve_mix stream.
const (
	clockHost = "host"
	clockSim  = "sim"
)

// span is one timed call into a layer. Parent is the ID of the span that
// caused it (0 for a root); Run numbers the repetition it belongs to.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Run    int    `json:"run"`
	Name   string `json:"name"`
	Clock  string `json:"clock"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory; they are written out only when the run
// ends, so recording costs one append per layer call.
type recorder struct {
	epoch time.Time
	run   int
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// begin opens a host span under parent and returns its ID.
func (r *recorder) begin(name string, parent int) int {
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Run: r.run,
		Name: name, Clock: clockHost, Start: r.now()})
	return len(r.spans)
}

// end closes a host span and returns its duration in seconds.
func (r *recorder) end(id int) float64 {
	s := &r.spans[id-1]
	s.End = r.now()
	return float64(s.dur()) / 1e9
}

// do runs fn inside a host span.
func (r *recorder) do(name string, parent int, fn func() error) error {
	id := r.begin(name, parent)
	err := fn()
	r.end(id)
	return err
}

// add records a finished span on the given clock.
func (r *recorder) add(name string, parent int, clock string, start, end int64) int {
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Run: r.run,
		Name: name, Clock: clock, Start: start, End: end})
	return len(r.spans)
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover (children clipped to the parent, overlaps
// counted once), indexed by span ID - 1.
func selfTimes(spans []span) []int64 {
	kids := make([][]span, len(spans)+1)
	for _, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	self := make([]int64, len(spans))
	for i, p := range spans {
		ch := kids[p.ID]
		sort.Slice(ch, func(a, b int) bool { return ch[a].Start < ch[b].Start })
		covered, reach := int64(0), p.Start
		for _, c := range ch {
			lo, hi := max(c.Start, reach), min(c.End, p.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = p.dur() - covered
	}
	return self
}

// phaseCoverage returns the smallest share of a repetition's wall time
// that its phase spans cover, over every "rep" span.
func phaseCoverage(spans []span) float64 {
	self := selfTimes(spans)
	cover := 1.0
	for i, s := range spans {
		if s.Name == "rep" && s.dur() > 0 {
			cover = min(cover, 1-float64(self[i])/float64(s.dur()))
		}
	}
	return cover
}

// writeSpans writes the spans as one JSON array.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
