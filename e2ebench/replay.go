package main

import (
	"context"
	"errors"
	"fmt"

	"dmmkit/internal/heap"
	"dmmkit/internal/profile"
	"dmmkit/internal/registry"
	"dmmkit/internal/trace"
)

// replayWorkload is the paper's Table 1 path: the three full-size case
// studies replayed in memory against the four reference managers. The
// managers and the dense replay loop do almost all the work; nothing is
// decoded, designed or searched.
type replayWorkload struct {
	o      options
	traces []*trace.Trace
	profs  []*profile.Profile // the regions manager sizes its blocks from the profile
	refs   []ref
	first  map[string]trace.Result // the first session's results, by trace index and manager
}

var caseStudies = []string{"drr", "recon3d", "render3d"}

func (w *replayWorkload) setup(ctx context.Context, tr *tracer) error {
	w.traces, w.profs = nil, nil
	for _, seed := range w.o.seeds() {
		for _, name := range caseStudies {
			id := tr.begin("workloads.gen", -1, -1, 0)
			t, err := registry.BuildWorkload(name, registry.WorkloadOpts{Seed: seed, Quick: w.o.tiny})
			tr.end(id)
			if err != nil {
				return err
			}
			tr.count("workloads.gen", int64(len(t.Events)))
			w.traces = append(w.traces, t)
			w.profs = append(w.profs, profile.FromTrace(t))
		}
	}
	return nil
}

func (w *replayWorkload) prepare(ctx context.Context, traced bool) error {
	for _, t := range w.traces {
		r, err := reference(t.Name, t.Events, traced)
		if err != nil {
			return err
		}
		w.refs = append(w.refs, r)
	}
	w.first = map[string]trace.Result{}
	return nil
}

// session replays every trace against every manager. Traced, it replays
// each trace against the null manager and makes each manager's calls
// alone instead, so the loop and the managers are timed apart; the
// manager-only results must equal the full replays'.
func (w *replayWorkload) session(ctx context.Context, tr *tracer, root, id int) (work, func() error, error) {
	var wk work
	type done struct {
		key string
		r   *ref
		res trace.Result
	}
	var results []done
	var errs []error
	for i, t := range w.traces {
		r := &w.refs[i]
		for _, name := range refManagers {
			wk.ops++
			res, err := w.replayOne(ctx, tr, root, id, t, w.profs[i], r, name)
			if err != nil {
				wk.failed++
				errs = append(errs, err)
				continue
			}
			wk.events += int64(res.Events)
			wk.candidates++
			results = append(results, done{fmt.Sprintf("%d/%s", i, name), r, res})
		}
	}
	check := func() error {
		for _, d := range results {
			if tr == nil {
				if err := checkReplay(d.res, d.r); err != nil {
					return err
				}
			}
			first, ok := w.first[d.key]
			if !ok {
				w.first[d.key] = d.res
				continue
			}
			if d.res.MaxFootprint != first.MaxFootprint || d.res.Work != first.Work {
				return fmt.Errorf("%s on %s: footprint %d work %d, earlier session %d and %d",
					d.r.name, d.res.Manager, d.res.MaxFootprint, d.res.Work, first.MaxFootprint, first.Work)
			}
		}
		return nil
	}
	return wk, check, errors.Join(errs...)
}

func (w *replayWorkload) replayOne(ctx context.Context, tr *tracer, root, id int, t *trace.Trace, prof *profile.Profile, r *ref, name string) (trace.Result, error) {
	if tr == nil {
		m, err := registry.NewManager(name, heap.New(heap.Config{}), prof)
		if err != nil {
			return trace.Result{}, err
		}
		return trace.Run(ctx, m, t, trace.RunOpts{})
	}
	if err := tr.do("trace.replay_dense", root, id, func() error {
		_, err := trace.Run(ctx, &nullManager{}, t, trace.RunOpts{})
		return err
	}); err != nil {
		return trace.Result{}, err
	}
	tr.count("trace.replay_dense", int64(r.events))
	res := trace.Result{TraceName: t.Name, Events: r.events}
	err := tr.do("alloc."+name, root, id, func() error {
		m, err := registry.NewManager(name, heap.New(heap.Config{}), prof)
		if err != nil {
			return err
		}
		if err := runOps(m, r); err != nil {
			return err
		}
		res.Manager, res.MaxFootprint, res.Work = m.Name(), m.MaxFootprint(), m.Stats().Work
		return nil
	})
	tr.count("alloc."+name, int64(len(r.ops)))
	return res, err
}

// probe times the remaining layers on the first DRR case study.
func (w *replayWorkload) probe(ctx context.Context, tr *tracer) error {
	return probeLayers(ctx, tr, w.traces[0], &w.refs[0], w.o.probeEvents())
}

func (w *replayWorkload) close() error { return nil }
