package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"dmmkit/internal/core"
	"dmmkit/internal/profile"
	"dmmkit/internal/search"
	"dmmkit/internal/server/api"
	"dmmkit/internal/server/jobs"
	"dmmkit/internal/trace"
)

// serveWorkload drives dmmserve's handler on a loopback listener in this
// process with one client in a closed loop. A session uploads the quick
// DRR trace as DMMT2, runs a profile job and a small exhaustive explore
// job at parallelism 1, reads each job's NDJSON events to the end and
// fetches its result. Unlike explore, the trace layer writes the spool
// and streams DMMT2 from it for every candidate.
type serveWorkload struct {
	o      options
	in     []*serveInput
	spool  string
	mgr    *jobs.Manager
	srv    *http.Server
	served chan error
	base   string
	client *http.Client

	jobs int // jobs run so far
}

// serveInput is one instance's trace and what its jobs must return.
type serveInput struct {
	t       *trace.Trace
	body    []byte // the DMMT2 upload
	ref     ref
	profile jobs.ProfileSummary
	cands   []jobs.Candidate // a direct Engine.Explore with the job's options
	path    string           // the spool file of its last upload
}

// serveBudget is the explore job's exhaustive sample; with the designed
// candidate it evaluates serveBudget+1 managers.
const serveBudget = 8

func (w *serveWorkload) exploreOpts() core.ExploreOpts {
	return core.ExploreOpts{Strategy: search.NewExhaustive(serveBudget), MaxCandidates: serveBudget, IncludeDesigned: true, Parallelism: 1}
}

func (w *serveWorkload) setup(ctx context.Context, tr *tracer) error {
	if err := w.close(); err != nil {
		return err
	}
	w.in = nil
	for _, seed := range w.o.seeds() {
		t, err := genDRR(tr, seed, w.o.tiny)
		if err != nil {
			return err
		}
		var enc bytes.Buffer
		id := tr.begin("trace.encode", -1, -1, 0)
		err = t.EncodeBinary2(&enc)
		tr.end(id)
		if err != nil {
			return err
		}
		tr.count("trace.encode", int64(len(t.Events)))
		w.in = append(w.in, &serveInput{t: t, body: enc.Bytes()})
	}

	w.spool = filepath.Join(w.o.dir, fmt.Sprintf("serve-spool-%d", os.Getpid()))
	w.mgr = jobs.New(jobs.Config{SpoolDir: w.spool})
	s, err := api.New(api.Config{Manager: w.mgr, SpoolDir: w.spool})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.srv = &http.Server{Handler: s.Handler(), ReadHeaderTimeout: time.Minute}
	w.served = make(chan error, 1)
	go func() { w.served <- w.srv.Serve(ln) }()
	w.base = "http://" + ln.Addr().String()
	w.client = &http.Client{}
	var reg json.RawMessage
	return w.call(http.MethodGet, "/v1/registry", nil, http.StatusOK, &reg)
}

func (w *serveWorkload) prepare(ctx context.Context, traced bool) error {
	for _, in := range w.in {
		var err error
		if in.ref, err = reference(in.t.Name, in.t.Events, traced); err != nil {
			return err
		}
		src, err := trace.DecodeBinarySource(bytes.NewReader(in.body))
		if err != nil {
			return err
		}
		p, err := profile.FromSource(src)
		if err != nil {
			return err
		}
		in.profile = jobs.ProfileSummary{
			Name: p.Name, Events: p.Events, Allocs: p.Allocs, Frees: p.Frees, DistinctSizes: p.DistinctSizes,
			MaxSize: p.MaxSize, MeanSize: p.MeanSize, MaxLiveBytes: p.MaxLiveBytes, Phases: len(p.Phases),
		}
		cands, err := core.NewEngine(1).Explore(ctx, in.t, w.exploreOpts())
		if err != nil {
			return err
		}
		for _, c := range cands {
			in.cands = append(in.cands, jobs.WireCandidate(c))
		}
	}
	return nil
}

// call makes one request and decodes a JSON answer into out.
func (w *serveWorkload) call(method, path string, body []byte, want int, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, w.base+path, rd)
	if err != nil {
		return err
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return err
	}
	defer func() { _ = resp.Body.Close() }() // a read path: the decode reports what matters
	if resp.StatusCode != want {
		msg, _ := io.ReadAll(resp.Body) // best effort: the status is the error
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(msg))
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	return nil
}

// runJob submits a job, reads its NDJSON events to the end and fetches
// the finished job.
func (w *serveWorkload) runJob(req map[string]any) (jobs.Snapshot, error) {
	var snap jobs.Snapshot
	body, err := json.Marshal(req)
	if err != nil {
		return snap, err
	}
	var created struct{ ID string }
	if err := w.call(http.MethodPost, "/v1/jobs", body, http.StatusAccepted, &created); err != nil {
		return snap, err
	}
	resp, err := w.client.Get(w.base + "/v1/jobs/" + created.ID + "/events")
	if err != nil {
		return snap, err
	}
	var last jobs.Event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			_ = resp.Body.Close() // the decode error is the one to report
			return snap, fmt.Errorf("job %s events: %w", created.ID, err)
		}
	}
	err = sc.Err()
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return snap, fmt.Errorf("job %s events: %w", created.ID, err)
	}
	if last.Type != "state" || !last.State.Terminal() {
		return snap, fmt.Errorf("job %s: event stream ended on %q, not a terminal state", created.ID, last.Type)
	}
	err = w.call(http.MethodGet, "/v1/jobs/"+created.ID, nil, http.StatusOK, &snap)
	return snap, err
}

// session makes one closed-loop client session: per instance, upload,
// profile job, explore job.
func (w *serveWorkload) session(ctx context.Context, tr *tracer, root, id int) (work, func() error, error) {
	var wk work
	var checks []func() error
	var errs []error
	for _, in := range w.in {
		one, check, err := w.runInstance(tr, root, id, in)
		wk.events += one.events
		wk.candidates += one.candidates
		wk.ops += one.ops
		wk.failed += one.failed
		if err != nil {
			errs = append(errs, err)
		}
		if check != nil {
			checks = append(checks, check)
		}
	}
	check := func() error {
		for _, c := range checks {
			if err := c(); err != nil {
				return err
			}
		}
		return nil
	}
	return wk, check, errors.Join(errs...)
}

// runInstance runs one instance through the server: upload, profile
// job, explore job.
func (w *serveWorkload) runInstance(tr *tracer, root, id int, in *serveInput) (work, func() error, error) {
	const ops = 3
	n := int64(in.ref.events)
	wk := work{ops: ops}
	var up struct {
		ID     string `json:"id"`
		Name   string `json:"name"`
		Events int    `json:"events"`
	}
	if err := tr.do("server.upload", root, id, func() error {
		return w.call(http.MethodPost, "/v1/traces", in.body, http.StatusCreated, &up)
	}); err != nil {
		wk.failed = ops
		return wk, nil, err
	}
	wk.events += n
	var prof, expl jobs.Snapshot
	err := tr.do("server.profile_job", root, id, func() error {
		var err error
		prof, err = w.runJob(map[string]any{"kind": "profile", "trace": map[string]string{"id": up.ID}})
		return err
	})
	if err != nil {
		wk.failed = ops - 1
		return wk, nil, err
	}
	wk.events += n
	err = tr.do("server.explore_job", root, id, func() error {
		var err error
		expl, err = w.runJob(map[string]any{
			"kind": "explore", "trace": map[string]string{"id": up.ID}, "strategy": "exhaustive",
			"budget": serveBudget, "parallelism": 1, "include_designed": true,
		})
		return err
	})
	if err != nil {
		wk.failed = 1
		return wk, nil, err
	}
	w.jobs += 2
	in.path = filepath.Join(w.spool, up.ID+".trace")
	for _, s := range []jobs.Snapshot{prof, expl} {
		if s.Started != nil {
			tr.note("server.queue_ms", float64(s.Started.Sub(s.Created))/1e6)
		}
	}
	if expl.Result != nil {
		wk.candidates = int64(len(expl.Result.Candidates))
		wk.events += n * (1 + wk.candidates)
	}
	check := func() error {
		if up.Events != in.ref.events || up.Name != in.ref.name {
			return fmt.Errorf("upload validated %q with %d events, want %q with %d", up.Name, up.Events, in.ref.name, in.ref.events)
		}
		for _, s := range []jobs.Snapshot{prof, expl} {
			if s.State != jobs.StateDone || s.Result == nil {
				return fmt.Errorf("%s job %s ended %s: %s", s.Kind, s.ID, s.State, s.Error)
			}
		}
		if prof.Result.Profile == nil || *prof.Result.Profile != in.profile {
			return fmt.Errorf("profile job summary %+v, direct profile %+v", prof.Result.Profile, in.profile)
		}
		if !reflect.DeepEqual(expl.Result.Candidates, in.cands) {
			return fmt.Errorf("explore job candidates differ from a direct Engine.Explore")
		}
		return nil
	}
	return wk, check, nil
}

// probe runs each instance's profile and explore directly in the process
// on its spool file, so the server's own share of a session shows, and
// then times the remaining layers on the first trace.
func (w *serveWorkload) probe(ctx context.Context, tr *tracer) error {
	var direct float64 // ms
	for _, in := range w.in {
		f, err := trace.OpenFile(in.path)
		if err != nil {
			return err
		}
		var runs []float64
		for i := 0; i < 3; i++ {
			t0 := time.Now()
			err := tr.do("bench.direct_profile", -1, -1, func() error {
				src, err := f.Open()
				if err != nil {
					return err
				}
				_, err = profile.FromSource(src)
				if cerr := trace.Close(src); err == nil {
					err = cerr
				}
				return err
			})
			if err != nil {
				return err
			}
			opts := w.exploreOpts()
			err = exploreTraced(tr, -1, -1, 1, &opts, func() error {
				cands, err := core.NewEngine(1).ExploreSource(ctx, f, opts)
				if err == nil && len(cands) != len(in.cands) {
					err = fmt.Errorf("direct exploration gave %d candidates, want %d", len(cands), len(in.cands))
				}
				return err
			})
			if err != nil {
				return err
			}
			runs = append(runs, time.Since(t0).Seconds()*1e3)
		}
		direct += median(runs)
	}
	for _, s := range tr.byName()["bench.session"].durs {
		tr.note("server.overhead_ms", float64(s)/1e6-direct)
	}
	return probeLayers(ctx, tr, w.in[0].t, &w.in[0].ref, w.o.probeEvents())
}

// retainedPerJob is the live heap the sessions left behind, per job: job event logs and results are held until their TTL expires.
func (w *serveWorkload) retainedPerJob(held, base uint64) float64 {
	if w.jobs == 0 {
		return 0
	}
	return (float64(held) - float64(base)) / 1024 / float64(w.jobs)
}

// close stops the server and its job manager and removes the spool.
func (w *serveWorkload) close() error {
	if w.srv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := w.srv.Shutdown(ctx)
	if serr := <-w.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	err = errors.Join(err, w.mgr.Shutdown(ctx))
	w.client.CloseIdleConnections()
	err = errors.Join(err, os.RemoveAll(w.spool))
	w.srv = nil
	return err
}
