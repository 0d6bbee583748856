package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer of dmmkit. Spans
// of one session share Session; probes outside any session carry -1.
// Lane 0 is the goroutine that drives the session; calls observed on
// other goroutines (exploration workers) get lanes of their own, so a
// parent's self time subtracts only the children on its own lane.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Session int    `json:"session"`
	Lane    int    `json:"lane"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Self    int64  `json:"self_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	lanes map[uint64]int // goroutine id -> lane

	units   map[string]int64     // work done under a span name: events, operations
	samples map[string][]float64 // values observed outside spans
}

// newTracer starts a tracer; the calling goroutine drives the sessions
// and is lane 0.
func newTracer() *tracer {
	return &tracer{
		t0:      time.Now(),
		lanes:   map[uint64]int{goroutineID(): 0},
		units:   map[string]int64{},
		samples: map[string][]float64{},
	}
}

// count adds n units of work done under the named span.
func (t *tracer) count(name string, n int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.units[name] += n
}

// note records one value of a quantity no span measures directly.
func (t *tracer) note(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.samples[name] = append(t.samples[name], v)
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span and returns its ID (-1 on a nil tracer).
func (t *tracer) begin(name string, parent, session, lane int) int {
	if t == nil {
		return -1
	}
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Session: session, Lane: lane, Name: name, Start: now})
	return len(t.spans) - 1
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
}

// do runs fn inside a lane-0 span.
func (t *tracer) do(name string, parent, session int, fn func() error) error {
	id := t.begin(name, parent, session, 0)
	err := fn()
	t.end(id)
	return err
}

// lane returns the lane of the calling goroutine, numbering goroutines
// other than the session driver from 1 in the order they are first seen.
func (t *tracer) lane() int {
	id := goroutineID()
	t.mu.Lock()
	defer t.mu.Unlock()
	l, ok := t.lanes[id]
	if !ok {
		l = len(t.lanes)
		t.lanes[id] = l
	}
	return l
}

// goroutineID parses the calling goroutine's number from its stack
// header ("goroutine 42 [running]:"). It costs about a microsecond, paid
// twice per candidate evaluation in traced runs only.
func goroutineID() uint64 {
	var buf [64]byte
	s := string(buf[:runtime.Stack(buf[:], false)])
	s = strings.TrimPrefix(s, "goroutine ")
	if i := strings.IndexByte(s, ' '); i > 0 {
		s = s[:i]
	}
	id, _ := strconv.ParseUint(s, 10, 64) // the runtime's own header always parses
	return id
}

// finish computes every span's self time: its duration minus the union of
// the intervals its same-lane children cover.
func (t *tracer) finish() {
	kids := map[int][]int{}
	for _, s := range t.spans {
		if s.Parent >= 0 && t.spans[s.Parent].Lane == s.Lane {
			kids[s.Parent] = append(kids[s.Parent], s.ID)
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		ch := kids[s.ID]
		sort.Slice(ch, func(a, b int) bool { return t.spans[ch[a]].Start < t.spans[ch[b]].Start })
		covered, reach := int64(0), s.Start
		for _, c := range ch {
			lo, hi := max(t.spans[c].Start, reach), min(t.spans[c].End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		s.Self = s.End - s.Start - covered
	}
}

// agg sums spans by name.
type agg struct {
	self int64   // total self time, ns
	durs []int64 // each span's duration, ns
}

// byName aggregates the spans by name.
func (t *tracer) byName() map[string]*agg {
	out := map[string]*agg{}
	for _, s := range t.spans {
		a := out[s.Name]
		if a == nil {
			a = &agg{}
			out[s.Name] = a
		}
		a.self += s.Self
		a.durs = append(a.durs, s.End-s.Start)
	}
	return out
}

// laneZeroSelf is the self time of lane-0 session spans outside the
// benchmark's own "bench" layer: the time the session driver spent inside
// dmmkit's layers.
func (t *tracer) laneZeroSelf() int64 {
	var sum int64
	for _, s := range t.spans {
		if s.Session >= 0 && s.Lane == 0 && !strings.HasPrefix(s.Name, "bench.") {
			sum += s.Self
		}
	}
	return sum
}

// write stores the spans as JSON.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("creating span directory: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	if err := json.NewEncoder(f).Encode(t.spans); err != nil {
		_ = f.Close() // the encode error is the one to report
		return fmt.Errorf("writing spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
