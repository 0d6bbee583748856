package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"

	"dmmkit/internal/core"
	"dmmkit/internal/dspace"
	"dmmkit/internal/heap"
	"dmmkit/internal/netsim"
	"dmmkit/internal/registry"
	"dmmkit/internal/search"
	"dmmkit/internal/server/jobs"
	"dmmkit/internal/trace"
	"dmmkit/internal/workloads/drr"
)

// exploreWorkload explores the design space of the quick DRR trace in
// memory at parallelism nproc: a stride sample of the space plus the
// methodology's designed candidate, once per instance. The custom
// manager, the strategy and the worker pool do almost all the work, over
// the dense replay loop; nothing is decoded. The sample is the same on
// every trace, so the work does not depend on where an adaptive search
// happens to wander: the quartiles of a seeded GA's exploration time over
// five trace seeds lay 46% of the median apart.
type exploreWorkload struct {
	o     options
	ts    []*trace.Trace
	refs  []ref
	first string // digest of the first session's candidate streams
}

// exploreBudget is the stride sample of one exploration; with the
// designed candidate it evaluates exploreBudget+1 managers.
func (w *exploreWorkload) exploreBudget() int {
	if w.o.tiny {
		return 6
	}
	return 48
}

func (w *exploreWorkload) setup(ctx context.Context, tr *tracer) error {
	w.ts = nil
	for _, seed := range w.o.seeds() {
		t, err := genDRR(tr, seed, w.o.tiny)
		if err != nil {
			return err
		}
		w.ts = append(w.ts, t)
	}
	return nil
}

// genDRR generates the quick DRR trace inside a workloads.gen span; tiny
// runs get a tenth of a second of traffic instead.
func genDRR(tr *tracer, seed int64, tiny bool) (*trace.Trace, error) {
	id := tr.begin("workloads.gen", -1, -1, 0)
	var t *trace.Trace
	var err error
	if tiny {
		var b *drr.Result
		if b, err = drr.BuildTrace(drr.Config{Seed: seed, Net: netsim.Config{Phases: 1, PhaseMs: 100}}); err == nil {
			t = b.Trace
		}
	} else {
		t, err = registry.BuildWorkload("drr", registry.WorkloadOpts{Seed: seed, Quick: true})
	}
	tr.end(id)
	if err != nil {
		return nil, err
	}
	tr.count("workloads.gen", int64(len(t.Events)))
	return t, nil
}

func (w *exploreWorkload) prepare(ctx context.Context, traced bool) error {
	for _, t := range w.ts {
		r, err := reference(t.Name, t.Events, traced)
		if err != nil {
			return err
		}
		w.refs = append(w.refs, r)
	}
	return nil
}

func (w *exploreWorkload) session(ctx context.Context, tr *tracer, root, id int) (work, func() error, error) {
	par := runtime.NumCPU()
	var wk work
	var errs []error
	all := make([][]core.Candidate, len(w.ts))
	for i, t := range w.ts {
		opts := core.ExploreOpts{
			Strategy:        search.NewExhaustive(w.exploreBudget()),
			MaxCandidates:   w.exploreBudget(),
			IncludeDesigned: true,
			Parallelism:     par,
		}
		explore := func() error {
			var err error
			all[i], err = core.NewEngine(par).Explore(ctx, t, opts)
			return err
		}
		var err error
		if tr == nil {
			err = explore()
		} else {
			err = exploreTraced(tr, root, id, par, &opts, explore)
		}
		wk.ops += len(all[i])
		wk.events += int64(len(all[i])+1) * int64(w.refs[i].events)
		for _, c := range all[i] {
			if c.Err != nil {
				wk.failed++
			} else {
				wk.candidates++
			}
		}
		if err != nil {
			wk.ops++
			wk.failed++
			errs = append(errs, err)
		}
	}
	check := func() error {
		var digests []string
		for i, cands := range all {
			if err := checkCandidates(ctx, w.ts[i], &w.refs[i], cands); err != nil {
				return err
			}
			digests = append(digests, candidateDigest(cands))
		}
		d := strings.Join(digests, "-")
		if w.first == "" {
			w.first = d
		} else if d != w.first {
			return fmt.Errorf("candidate streams %s differ from the first session's %s", d, w.first)
		}
		return nil
	}
	return wk, check, errors.Join(errs...)
}

// candidateDigest hashes a candidate stream in its wire form.
func candidateDigest(cands []core.Candidate) string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, c := range cands {
		_ = enc.Encode(jobs.WireCandidate(c)) // a hash never fails to write
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// digest reports the first session's candidate stream, so runs with one
// seed can be compared.
func (w *exploreWorkload) digest() string { return w.first }

// rebuildStride is the spacing of the candidates that are rebuilt and
// replayed again by the checks, besides the best and the designed one.
const rebuildStride = 32

// checkCandidates holds an exploration to what must be true of it: no
// candidate failed, none undercuts the trace's peak live bytes, and the
// best, the designed and every rebuildStride-th candidate give the same
// footprint and work when rebuilt and replayed on a fresh heap.
func checkCandidates(ctx context.Context, t *trace.Trace, r *ref, cands []core.Candidate) error {
	if len(cands) == 0 {
		return fmt.Errorf("exploration returned no candidates")
	}
	sample := map[int]bool{}
	best, bestAt := cands[0], 0
	for i, c := range cands {
		if c.Err != nil {
			return fmt.Errorf("candidate %d (%s): %w", i, c.Vector, c.Err)
		}
		if c.MaxFootprint < r.maxLive {
			return fmt.Errorf("candidate %d (%s): footprint %d below the trace's peak live %d", i, c.Vector, c.MaxFootprint, r.maxLive)
		}
		if c.MaxFootprint < best.MaxFootprint || (c.MaxFootprint == best.MaxFootprint && c.Work < best.Work) {
			best, bestAt = c, i
		}
		if c.Designed || i%rebuildStride == 0 {
			sample[i] = true
		}
	}
	sample[bestAt] = true
	for i := range cands {
		if !sample[i] {
			continue
		}
		c := cands[i]
		m, err := core.NewCustom(heap.New(heap.Config{}), c.Vector, c.Params)
		if err != nil {
			return fmt.Errorf("rebuilding candidate %d: %w", i, err)
		}
		res, err := trace.Run(ctx, m, t, trace.RunOpts{})
		if err != nil {
			return fmt.Errorf("replaying candidate %d: %w", i, err)
		}
		if res.MaxFootprint != c.MaxFootprint || int64(res.Work) != c.Work {
			return fmt.Errorf("candidate %d (%s): rebuilt footprint %d work %d, explored %d and %d",
				i, c.Vector, res.MaxFootprint, res.Work, c.MaxFootprint, c.Work)
		}
	}
	return nil
}

// exploreTraced runs explore with spans on the exploration's timeline:
// the engine's opening profile pass, each strategy call, each generation
// on the pool, and each candidate evaluation on its worker's lane. The
// evaluations are seen through the engine's evaluation hook (start) and
// progress callback (end), both of which run on the evaluating goroutine.
// The hook is process-wide, so it is installed only while no other
// exploration runs: sessions are sequential, and serve's jobs have ended.
func exploreTraced(tr *tracer, root, id, par int, opts *core.ExploreOpts, explore func() error) error {
	h := &exploreHooks{tr: tr, session: id, par: par, inner: opts.Strategy, gen: -1, evals: map[int]int{}, seen: map[string]bool{}}
	opts.Strategy = h
	opts.OnProgress = h.progress
	h.span = tr.begin("core.explore", root, id, 0)
	h.phase = tr.begin("core.profile_pass", h.span, id, 0)
	restore := core.SetEvalHook(h.evalStart)
	err := explore()
	restore()
	h.mu.Lock()
	h.endGeneration()
	h.mu.Unlock()
	tr.end(h.phase)
	tr.end(h.span)
	tr.count("search.explorations", 1)
	tr.count("search.generations", int64(h.generations))
	tr.count("search.evaluations", int64(h.evaluated))
	tr.count("search.unique", int64(len(h.seen)))
	return err
}

// exploreHooks wraps a search strategy and observes the engine around it.
type exploreHooks struct {
	tr      *tracer
	session int
	par     int
	inner   search.Strategy

	mu          sync.Mutex
	span        int         // the exploration
	phase       int         // the profile pass until the first proposal, then -1
	gen         int         // the generation in flight, or -1
	genN        int         // its candidates
	genStart    int64       // its start, ns
	busy        int64       // evaluation time in it, ns
	evals       map[int]int // lane -> open evaluation span
	seen        map[string]bool
	evaluated   int
	generations int
}

// Next implements search.Strategy.
func (h *exploreHooks) Next() []dspace.Vector {
	h.mu.Lock()
	if h.phase >= 0 {
		h.tr.end(h.phase)
		h.phase = -1
	}
	h.endGeneration()
	h.mu.Unlock()
	s := h.tr.begin("search.next", h.span, h.session, 0)
	batch := h.inner.Next()
	h.tr.end(s)
	h.mu.Lock()
	defer h.mu.Unlock()
	n := len(batch)
	if n == 0 {
		n = 1 // the designed candidate, when the exploration includes it
	} else {
		h.generations++
	}
	h.gen = h.tr.begin("pool.generation", h.span, h.session, 0)
	h.genN, h.genStart, h.busy = n, h.tr.now(), 0
	return batch
}

// Observe implements search.Strategy.
func (h *exploreHooks) Observe(results []search.Result) {
	h.mu.Lock()
	h.endGeneration()
	h.mu.Unlock()
	s := h.tr.begin("search.observe", h.span, h.session, 0)
	h.inner.Observe(results)
	h.tr.end(s)
}

// endGeneration closes the generation in flight and books its worker
// time: the pool runs min(par, candidates) workers for its duration.
func (h *exploreHooks) endGeneration() {
	if h.gen < 0 {
		return
	}
	h.tr.end(h.gen)
	workers := int64(min(h.par, h.genN))
	total := workers * (h.tr.now() - h.genStart)
	h.tr.count("pool.worker_ns", total)
	h.tr.count("pool.idle_ns", max(0, total-h.busy))
	h.gen = -1
}

func (h *exploreHooks) evalStart(v dspace.Vector, designed bool) {
	lane := h.tr.lane()
	h.mu.Lock()
	defer h.mu.Unlock()
	h.evals[lane] = h.tr.begin("core.eval", h.gen, h.session, lane)
	h.seen[v.String()] = true
	h.evaluated++
}

func (h *exploreHooks) progress(done, total int) {
	lane := h.tr.lane()
	h.mu.Lock()
	defer h.mu.Unlock()
	s, ok := h.evals[lane]
	if !ok {
		return
	}
	delete(h.evals, lane)
	h.tr.end(s)
	h.tr.mu.Lock()
	d := h.tr.spans[s].End - h.tr.spans[s].Start
	h.tr.mu.Unlock()
	h.busy += d
}

func (w *exploreWorkload) probe(ctx context.Context, tr *tracer) error {
	return probeLayers(ctx, tr, w.ts[0], &w.refs[0], w.o.probeEvents())
}

func (w *exploreWorkload) close() error { return nil }
