package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"

	"dmmkit/internal/core"
	"dmmkit/internal/heap"
	"dmmkit/internal/mm"
	"dmmkit/internal/profile"
	"dmmkit/internal/registry"
	"dmmkit/internal/replay"
	"dmmkit/internal/trace"
)

// refManagers are the paper's four reference managers, by registry name.
var refManagers = []string{"kingsley", "lea", "regions", "obstack"}

// nullManager hands out consecutive addresses and does no other work, so
// a replay against it costs the replay loop and its live-ID table alone.
type nullManager struct{ next heap.Addr }

func (m *nullManager) Alloc(req mm.Request) (heap.Addr, error) {
	m.next++
	if m.next == heap.Nil {
		m.next++
	}
	return m.next, nil
}

func (m *nullManager) Free(heap.Addr) error { return nil }
func (m *nullManager) Footprint() int64     { return 0 }
func (m *nullManager) MaxFootprint() int64  { return 0 }
func (m *nullManager) Stats() mm.Stats      { return mm.Stats{} }
func (m *nullManager) Name() string         { return "null" }

// op is one pre-decoded manager call: an allocation into slot, or a free
// of the address held in slot.
type op struct {
	size  int64
	slot  int32
	tag   int32
	phase int32
	free  bool
}

// ref is what the benchmark computes about a trace on its own, apart from
// dmmkit: the event count and the peak of live requested bytes, and, for
// traced runs, the events as manager calls.
type ref struct {
	name    string
	events  int
	maxLive int64
	ops     []op
	slots   int
}

// reference makes one pass over the events. withOps also records them as
// manager calls for the manager-only loop.
func reference(name string, evs []trace.Event, withOps bool) (ref, error) {
	r := ref{name: name, events: len(evs)}
	type alloc struct {
		slot int32
		size int64
	}
	live := map[int64]alloc{}
	var cur int64
	if withOps {
		r.ops = make([]op, 0, len(evs))
	}
	for i := range evs {
		e := &evs[i]
		switch e.Kind {
		case trace.KindAlloc:
			a := alloc{slot: int32(r.slots), size: e.Size}
			r.slots++
			live[e.ID] = a
			cur += e.Size
			r.maxLive = max(r.maxLive, cur)
			if withOps {
				r.ops = append(r.ops, op{size: e.Size, slot: a.slot, tag: e.Tag, phase: e.Phase})
			}
		case trace.KindFree:
			a, ok := live[e.ID]
			if !ok {
				return r, fmt.Errorf("%s: event %d frees unknown id %d", name, i, e.ID)
			}
			delete(live, e.ID)
			cur -= a.size
			if withOps {
				r.ops = append(r.ops, op{slot: a.slot, free: true})
			}
		default:
			return r, fmt.Errorf("%s: event %d has kind %d", name, i, e.Kind)
		}
	}
	return r, nil
}

// runOps makes the manager calls of r and nothing else.
func runOps(m mm.Manager, r *ref) error {
	addrs := make([]heap.Addr, r.slots)
	for i := range r.ops {
		o := &r.ops[i]
		if o.free {
			if err := m.Free(addrs[o.slot]); err != nil {
				return fmt.Errorf("%s on %s: op %d: %w", r.name, m.Name(), i, err)
			}
			continue
		}
		p, err := m.Alloc(mm.Request{Size: o.size, Tag: int(o.tag), Phase: int(o.phase)})
		if err != nil {
			return fmt.Errorf("%s on %s: op %d: %w", r.name, m.Name(), i, err)
		}
		addrs[o.slot] = p
	}
	return nil
}

// checkReplay holds every replay to what the benchmark knows of its trace.
func checkReplay(res trace.Result, r *ref) error {
	switch {
	case res.Events != r.events:
		return fmt.Errorf("%s on %s: replayed %d events, the trace has %d", r.name, res.Manager, res.Events, r.events)
	case res.MaxLive != r.maxLive:
		return fmt.Errorf("%s on %s: max live %d, the trace peaks at %d", r.name, res.Manager, res.MaxLive, r.maxLive)
	case res.MaxFootprint < res.MaxLive:
		return fmt.Errorf("%s on %s: footprint %d below max live %d", r.name, res.Manager, res.MaxFootprint, res.MaxLive)
	case res.Work <= 0:
		return fmt.Errorf("%s on %s: no work recorded", r.name, res.Manager)
	}
	return nil
}

// eventsSource serves pre-decoded events in batches. It is not the
// in-memory trace's own source, so a replay over it takes the streaming
// loop with its sparse live-ID table.
type eventsSource struct {
	name string
	evs  []trace.Event
	i    int
}

func (s *eventsSource) Name() string { return s.name }

func (s *eventsSource) Next() (trace.Event, bool, error) {
	if s.i >= len(s.evs) {
		return trace.Event{}, false, nil
	}
	s.i++
	return s.evs[s.i-1], true, nil
}

func (s *eventsSource) NextBatch(dst []trace.Event) (int, error) {
	n := copy(dst, s.evs[s.i:])
	s.i += n
	return n, nil
}

// decodeAll reads a DMMT2 stream to its end, checking its framing and
// checksum, and appends the events to dst when dst is not nil.
func decodeAll(src trace.Source, dst *[]trace.Event) (int, error) {
	buf := make([]trace.Event, trace.BatchLen)
	total := 0
	for {
		n, err := trace.ReadBatch(src, buf)
		total += n
		if dst != nil {
			*dst = append(*dst, buf[:n]...)
		}
		if err != nil {
			_ = trace.Close(src) // the decode error is the one to report
			return total, err
		}
		if n == 0 {
			return total, trace.Close(src)
		}
	}
}

// probeEvents is the least work one layer probe does, so that a probe on
// a small trace is still long enough to time.
const probeEvents = 1_000_000

// probeLayers times, on one trace, each layer the workload's sessions did
// not already measure, repeating each probe until it has covered
// minEvents events. Every probe checks what it can against r.
func probeLayers(ctx context.Context, tr *tracer, t *trace.Trace, r *ref, minEvents int) error {
	reps := max(1, (minEvents+r.events-1)/r.events)
	n := int64(r.events)
	measured := func(name string) bool {
		tr.mu.Lock()
		defer tr.mu.Unlock()
		return tr.units[name] > 0
	}
	probe := func(name string, units int64, fn func() error) error {
		if measured(name) {
			return nil
		}
		for i := 0; i < reps; i++ {
			if err := tr.do(name, -1, -1, fn); err != nil {
				return fmt.Errorf("probe %s: %w", name, err)
			}
			tr.count(name, units)
		}
		return nil
	}

	var enc bytes.Buffer
	if err := probe("trace.encode", n, func() error {
		enc.Reset()
		return t.EncodeBinary2(&enc)
	}); err != nil {
		return err
	}
	if enc.Len() == 0 {
		if err := t.EncodeBinary2(&enc); err != nil {
			return err
		}
	}
	if err := probe("trace.decode", n, func() error {
		src, err := trace.DecodeBinarySource(bytes.NewReader(enc.Bytes()))
		if err != nil {
			return err
		}
		got, err := decodeAll(src, nil)
		if err == nil && got != r.events {
			err = fmt.Errorf("decoded %d events, encoded %d", got, r.events)
		}
		return err
	}); err != nil {
		return err
	}
	nullRun := func(src trace.Source) error {
		res, err := trace.RunSource(ctx, &nullManager{}, src, trace.RunOpts{})
		if err == nil && res.Events != r.events {
			err = fmt.Errorf("replayed %d events, want %d", res.Events, r.events)
		}
		return err
	}
	if err := probe("trace.replay_dense", n, func() error { return nullRun(t.Source()) }); err != nil {
		return err
	}
	if err := probe("trace.replay_sparse", n, func() error {
		return nullRun(&eventsSource{name: t.Name, evs: t.Events})
	}); err != nil {
		return err
	}
	var prof *profile.Profile
	if err := probe("profile", n, func() error {
		prof = profile.FromTrace(t)
		if prof.Events != r.events || prof.MaxLiveBytes != r.maxLive {
			return fmt.Errorf("profile counts %d events peaking at %d, want %d and %d", prof.Events, prof.MaxLiveBytes, r.events, r.maxLive)
		}
		return nil
	}); err != nil {
		return err
	}
	if prof == nil {
		prof = profile.FromTrace(t)
	}
	for _, name := range refManagers {
		if err := probe("alloc."+name, n, func() error {
			m, err := registry.NewManager(name, heap.New(heap.Config{}), prof)
			if err != nil {
				return err
			}
			return runOps(m, r)
		}); err != nil {
			return err
		}
	}
	var design core.Design
	if err := probe("core.design", 1, func() error {
		design = core.DesignFor(prof)
		return nil
	}); err != nil {
		return err
	}
	if err := probe("core.custom", n, func() error {
		m, err := design.Build(heap.New(heap.Config{}))
		if err != nil {
			return err
		}
		return runOps(m, r)
	}); err != nil {
		return err
	}
	var phases *replay.Phases
	var seq trace.Result
	if err := probe("replay.build", n, func() error {
		m, err := registry.NewManager("kingsley", heap.New(heap.Config{}), prof)
		if err != nil {
			return err
		}
		phases, seq, err = replay.Build(ctx, m, t, replay.Options{})
		return err
	}); err != nil {
		return err
	}
	if phases == nil {
		return nil
	}
	return probe("replay.sharded", n, func() error {
		res, err := phases.Replay(ctx, runtime.NumCPU(), trace.RunOpts{})
		if err == nil && (res.MaxFootprint != seq.MaxFootprint || res.Work != seq.Work) {
			err = fmt.Errorf("sharded replay gave footprint %d work %d, sequential %d and %d", res.MaxFootprint, res.Work, seq.MaxFootprint, seq.Work)
		}
		return err
	})
}
