package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"

	"dmmkit/internal/heap"
	"dmmkit/internal/netsim"
	"dmmkit/internal/profile"
	"dmmkit/internal/registry"
	"dmmkit/internal/trace"
	"dmmkit/internal/workloads/drr"
)

// streamManagers are the managers the stream workload replays off disk.
var streamManagers = []string{"kingsley", "lea"}

// streamWorkload is the out-of-core path: netsim DRR captures of about a
// third of a million events each, one per instance seed, written as
// DMMT2 during set-up, then per session, for every capture, a full
// validating decode, a streamed profile and streamed Kingsley and Lea
// replays. DMMT2 decoding, the sparse live-ID table and the profile pass
// do most of the work.
type streamWorkload struct {
	o       options
	caps    []*capture
	decoded []trace.Event // the last traced session's events of the first capture, for the probes
}

// capture is one DMMT2 file of the stream workload and what its checks
// compare with.
type capture struct {
	path    string
	t       *trace.Trace // the generated trace, dropped once the checks are prepared
	encoded int          // events the encoder wrote
	file    *trace.File

	ref   ref
	prof  *profile.Profile        // profile.FromTrace of the in-memory trace
	inMem map[string]trace.Result // trace.Run of the in-memory trace
}

// config is the netsim configuration of dmmbench -exp stream (50 Mb/s,
// six traffic-mix phases) over 2 s instead of 6 s, so that a session over
// three instances does as much work as one over the full capture.
func (w *streamWorkload) config(seed int64) drr.Config {
	if w.o.tiny {
		return drr.Config{Seed: seed, Net: netsim.Config{Phases: 1, PhaseMs: 100}}
	}
	return drr.Config{Seed: seed, Net: netsim.Config{RateMbps: 50, Phases: 6, PhaseMs: 1000.0 / 3}}
}

func (w *streamWorkload) setup(ctx context.Context, tr *tracer) error {
	if err := w.close(); err != nil {
		return err
	}
	if err := os.MkdirAll(w.o.dir, 0o755); err != nil {
		return err
	}
	for i, seed := range w.o.seeds() {
		id := tr.begin("workloads.gen", -1, -1, 0)
		built, err := drr.BuildTrace(w.config(seed))
		tr.end(id)
		if err != nil {
			return err
		}
		c := &capture{t: built.Trace}
		w.caps = append(w.caps, c)
		tr.count("workloads.gen", int64(len(c.t.Events)))

		c.path = filepath.Join(w.o.dir, fmt.Sprintf("stream-%d-%d.dmmt2", os.Getpid(), i))
		id = tr.begin("trace.encode", -1, -1, 0)
		c.encoded, err = writeTrace(c.path, c.t)
		tr.end(id)
		if err != nil {
			return err
		}
		tr.count("trace.encode", int64(c.encoded))
		if c.file, err = trace.OpenFile(c.path); err != nil {
			return err
		}
	}
	return nil
}

// writeTrace encodes t as DMMT2 into a new file at path, event by event.
func writeTrace(path string, t *trace.Trace) (int, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	bw := bufio.NewWriter(f)
	enc := trace.NewEncoder(bw)
	err = enc.Begin(t.Name)
	for i := 0; err == nil && i < len(t.Events); i++ {
		err = enc.WriteEvent(t.Events[i])
	}
	if err == nil {
		err = enc.Close()
	}
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, fmt.Errorf("writing %s: %w", path, err)
	}
	return enc.Count(), nil
}

func (w *streamWorkload) prepare(ctx context.Context, traced bool) error {
	for _, c := range w.caps {
		if err := c.prepare(ctx, traced); err != nil {
			return err
		}
	}
	return nil
}

func (c *capture) prepare(ctx context.Context, traced bool) error {
	var err error
	if c.ref, err = reference(c.t.Name, c.t.Events, traced); err != nil {
		return err
	}
	c.prof = profile.FromTrace(c.t)
	c.inMem = map[string]trace.Result{}
	for _, name := range streamManagers {
		m, err := registry.NewManager(name, heap.New(heap.Config{}), c.prof)
		if err != nil {
			return err
		}
		if c.inMem[name], err = trace.Run(ctx, m, c.t, trace.RunOpts{}); err != nil {
			return err
		}
	}
	c.t = nil
	return nil
}

// session decodes, profiles and replays every capture. Traced, each step
// decodes on its own and then runs its layer over the decoded events, so
// decoding, profiling, the sparse replay loop and the managers are timed
// apart.
func (w *streamWorkload) session(ctx context.Context, tr *tracer, root, id int) (work, func() error, error) {
	var wk work
	var checks []func() error
	var errs []error
	for i, c := range w.caps {
		var cw work
		var check func() error
		var err error
		if tr != nil {
			var evs []trace.Event
			cw, evs, check, err = c.tracedSession(ctx, tr, root, id)
			if i == 0 && evs != nil {
				w.decoded = evs
			}
		} else {
			cw, check, err = c.session(ctx)
		}
		wk.events += cw.events
		wk.candidates += cw.candidates
		wk.ops += cw.ops
		wk.failed += cw.failed
		if check != nil {
			checks = append(checks, check)
		}
		if err != nil {
			errs = append(errs, err)
		}
	}
	check := func() error {
		for _, check := range checks {
			if err := check(); err != nil {
				return err
			}
		}
		return nil
	}
	return wk, check, errors.Join(errs...)
}

func (c *capture) session(ctx context.Context) (work, func() error, error) {
	var wk work
	var errs []error
	n := int64(c.ref.events)
	var decoded int
	var prof *profile.Profile
	results := map[string]trace.Result{}

	step := func(fn func() error) {
		wk.ops++
		if err := fn(); err != nil {
			wk.failed++
			errs = append(errs, err)
			return
		}
		wk.events += n
	}
	step(func() error {
		src, err := c.file.Open()
		if err != nil {
			return err
		}
		decoded, err = decodeAll(src, nil)
		return err
	})
	step(func() error {
		src, err := c.file.Open()
		if err != nil {
			return err
		}
		prof, err = profile.FromSource(src)
		if cerr := trace.Close(src); err == nil {
			err = cerr
		}
		return err
	})
	for _, name := range streamManagers {
		step(func() error {
			m, err := registry.NewManager(name, heap.New(heap.Config{}), c.prof)
			if err != nil {
				return err
			}
			src, err := c.file.Open()
			if err != nil {
				return err
			}
			res, err := trace.RunSource(ctx, m, src, trace.RunOpts{})
			results[name] = res
			wk.candidates++
			return err
		})
	}
	check := func() error {
		if decoded != c.encoded {
			return fmt.Errorf("%s: decoded %d events, the encoder wrote %d", c.ref.name, decoded, c.encoded)
		}
		if !reflect.DeepEqual(prof, c.prof) {
			return fmt.Errorf("%s: streamed profile differs from profile.FromTrace", c.ref.name)
		}
		for name, res := range results {
			if err := checkReplay(res, &c.ref); err != nil {
				return err
			}
			if want := c.inMem[name]; !sameReplay(res, want) {
				return fmt.Errorf("%s on %s: streamed replay gave footprint %d work %d, in memory %d and %d",
					c.ref.name, name, res.MaxFootprint, res.Work, want.MaxFootprint, want.Work)
			}
		}
		return nil
	}
	return wk, check, errors.Join(errs...)
}

// sameReplay compares everything two replays of one trace must share.
func sameReplay(a, b trace.Result) bool {
	return a.Events == b.Events && a.MaxFootprint == b.MaxFootprint && a.MaxLive == b.MaxLive &&
		a.Final == b.Final && a.Work == b.Work && a.Stats == b.Stats
}

// tracedSession is session with every layer timed apart. It also returns
// the decoded events, for the probes.
func (c *capture) tracedSession(ctx context.Context, tr *tracer, root, id int) (work, []trace.Event, func() error, error) {
	wk := work{ops: 2 + len(streamManagers)}
	n := int64(c.ref.events)
	evs := make([]trace.Event, 0, c.ref.events)
	decode := func(dst *[]trace.Event) error {
		return tr.do("trace.decode", root, id, func() error {
			src, err := c.file.Open()
			if err != nil {
				return err
			}
			got, err := decodeAll(src, dst)
			if err == nil && got != c.encoded {
				err = fmt.Errorf("%s: decoded %d events, the encoder wrote %d", c.ref.name, got, c.encoded)
			}
			tr.count("trace.decode", int64(got))
			return err
		})
	}
	if err := decode(&evs); err != nil {
		wk.failed = wk.ops // the traced pass stops at its first error
		return wk, nil, nil, err
	}
	var prof *profile.Profile
	err := decode(nil)
	if err == nil {
		err = tr.do("profile", root, id, func() error {
			var err error
			prof, err = profile.FromSource(&eventsSource{name: c.prof.Name, evs: evs})
			return err
		})
		tr.count("profile", n)
	}
	if err != nil {
		wk.failed = wk.ops // the traced pass stops at its first error
		return wk, nil, nil, err
	}
	results := map[string]trace.Result{}
	for _, name := range streamManagers {
		err := decode(nil)
		if err == nil {
			err = tr.do("trace.replay_sparse", root, id, func() error {
				_, err := trace.RunSource(ctx, &nullManager{}, &eventsSource{name: c.prof.Name, evs: evs}, trace.RunOpts{})
				return err
			})
			tr.count("trace.replay_sparse", n)
		}
		if err == nil {
			err = tr.do("alloc."+name, root, id, func() error {
				m, err := registry.NewManager(name, heap.New(heap.Config{}), c.prof)
				if err != nil {
					return err
				}
				if err := runOps(m, &c.ref); err != nil {
					return err
				}
				results[name] = trace.Result{MaxFootprint: m.MaxFootprint(), Work: m.Stats().Work}
				return nil
			})
			tr.count("alloc."+name, int64(len(c.ref.ops)))
		}
		if err != nil {
			wk.failed = wk.ops // the traced pass stops at its first error
			return wk, nil, nil, err
		}
	}
	wk.events = int64(wk.ops) * n
	wk.candidates = int64(len(streamManagers))
	check := func() error {
		if !reflect.DeepEqual(prof, c.prof) {
			return fmt.Errorf("%s: profile of the decoded events differs from profile.FromTrace", c.ref.name)
		}
		for name, res := range results {
			if want := c.inMem[name]; res.MaxFootprint != want.MaxFootprint || res.Work != want.Work {
				return fmt.Errorf("%s on %s: manager calls alone gave footprint %d work %d, replay %d and %d",
					c.ref.name, name, res.MaxFootprint, res.Work, want.MaxFootprint, want.Work)
			}
		}
		return nil
	}
	return wk, evs, check, nil
}

// probe times the remaining layers on the first decoded capture.
func (w *streamWorkload) probe(ctx context.Context, tr *tracer) error {
	c := w.caps[0]
	return probeLayers(ctx, tr, &trace.Trace{Name: c.prof.Name, Events: w.decoded}, &c.ref, w.o.probeEvents())
}

// close removes the captures' files.
func (w *streamWorkload) close() error {
	var errs []error
	for _, c := range w.caps {
		if err := os.Remove(c.path); err != nil && !os.IsNotExist(err) {
			errs = append(errs, err)
		}
	}
	w.caps = nil
	return errors.Join(errs...)
}
