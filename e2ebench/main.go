// Command e2ebench is dmmkit's end-to-end benchmark. One run executes one
// workload in this process and prints, as the last line of its standard
// output, one JSON object with the keys correct, attempted, failed and
// metrics. With -trace 0 the metrics are the end-to-end ones; with
// -trace 1 the run times each layer from spans the benchmark records
// around its calls into dmmkit, and the metrics are the per-layer ones.
// See README.md for the workloads, the metrics and how to run it.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	_ "dmmkit/internal/alloc/kingsley"
	_ "dmmkit/internal/alloc/lea"
	_ "dmmkit/internal/alloc/obstack"
	_ "dmmkit/internal/alloc/region"
	_ "dmmkit/internal/workloads/drr"
	_ "dmmkit/internal/workloads/recon3d"
	_ "dmmkit/internal/workloads/render3d"
)

// work is what one session did.
type work struct {
	events     int64 // trace events the session's calls consumed
	candidates int64 // manager replays: reference managers or design-space candidates
	ops        int   // operations attempted
	failed     int   // operations that returned an error
}

// workload is one input set and the session run on it.
type workload interface {
	// setup makes the inputs from the seed. It is timed as setup_s and
	// runs several times; each call replaces the previous inputs.
	setup(ctx context.Context, tr *tracer) error
	// prepare computes, untimed and once, what the checks compare with.
	prepare(ctx context.Context, traced bool) error
	// session runs one unit of identical work. On a non-nil tracer it
	// records spans under root and runs the layers apart where a call
	// would otherwise hide them. The returned check verifies the
	// session's outputs; it runs outside the timed part.
	session(ctx context.Context, tr *tracer, root, id int) (work, func() error, error)
	// probe times, on a traced run, the layers the sessions do not reach.
	probe(ctx context.Context, tr *tracer) error
	close() error
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  int
	traced   bool
	tiny     bool   // small inputs, for the benchmark's own tests
	dir      string // scratch files and spans
}

// perSession is the nominal wall time of one session of each workload on
// the reference machine. A run does seconds/perSession sessions, so the
// amount of work depends only on the arguments, never on the speed of
// the code measured.
var perSession = map[string]float64{
	"replay":  1.25,
	"stream":  0.75,
	"explore": 10,
	"serve":   2.0,
}

// instances is how many consecutive seeds, from -seed on, each workload
// draws its inputs from. The paper averages its case studies over ten
// seeds; a run likewise spreads its work over several instances, so that
// one unusual instance moves its figures less.
var instances = map[string]int{"replay": 2, "stream": 3, "explore": 4, "serve": 4}

// seeds returns the seeds of the run's instances.
func (o options) seeds() []int64 {
	k := instances[o.workload]
	if o.tiny {
		k = 1
	}
	s := make([]int64, k)
	for i := range s {
		s[i] = o.seed + int64(i)
	}
	return s
}

// A run sets up at least minSetups times and until setupSeconds have
// passed, at most maxSetups times, and reports the median: a set-up of a
// few milliseconds is too short to time once.
const (
	minSetups    = 3
	maxSetups    = 25
	setupSeconds = 2.0
)

func newWorkload(o options) (workload, error) {
	switch o.workload {
	case "replay":
		return &replayWorkload{o: o}, nil
	case "stream":
		return &streamWorkload{o: o}, nil
	case "explore":
		return &exploreWorkload{o: o}, nil
	case "serve":
		return &serveWorkload{o: o}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want replay, stream, explore or serve)", o.workload)
}

func main() {
	var o options
	var traced int
	flag.StringVar(&o.workload, "workload", "", "workload: replay, stream, explore or serve")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	flag.IntVar(&o.seconds, "seconds", 20, "nominal measured seconds; sets the number of sessions")
	flag.IntVar(&traced, "trace", 0, "1 times each layer and prints the per-layer metrics")
	flag.StringVar(&o.dir, "dir", ".bench_build", "directory for scratch files and spans")
	flag.Parse()
	o.traced = traced == 1
	if flag.NArg() > 0 || (traced != 0 && traced != 1) || o.seconds < 1 {
		fmt.Fprintln(os.Stderr, "usage: e2ebench -workload <name> [-seed n] [-seconds n] [-trace 0|1]")
		os.Exit(2)
	}
	if err := run(context.Background(), o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

// metric is one printed figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of the output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// machine describes where the run took place; it is printed on the line
// before the result.
type machine struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Sessions   int    `json:"sessions"`
	Traced     bool   `json:"traced"`
	Digest     string `json:"digest,omitempty"` // the first session's candidate stream, where there is one
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// probeEvents is how many events each layer probe covers at least.
func (o options) probeEvents() int {
	if o.tiny {
		return 0
	}
	return probeEvents
}

// sessions returns how many sessions a run of o makes. A traced run makes
// that many untraced and traced sessions together, half of each, so that
// it too takes about as long as the nominal seconds.
func sessions(o options) int {
	n := 2
	if !o.tiny {
		n = max(2, int(math.Round(float64(o.seconds)/perSession[o.workload])))
	}
	if o.traced {
		n = max(1, n/2)
	}
	return n
}

// timed is the outcome of a sequence of sessions.
type timed struct {
	work
	walls      []float64 // seconds per session
	allocBytes uint64
	correct    bool
}

func (t timed) wall() float64 {
	var s float64
	for _, w := range t.walls {
		s += w
	}
	return s
}

// runSession runs session i, timing it, checks it and adds it to t.
func (t *timed) runSession(ctx context.Context, w workload, tr *tracer, i int, log io.Writer) {
	// Every session starts on a collected heap, so the collector's pacing
	// does not carry over from one session to the next.
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	root := tr.begin("bench.session", -1, i, 0)
	wk, check, err := w.session(ctx, tr, root, i)
	tr.end(root)
	dt := time.Since(t0).Seconds()
	runtime.ReadMemStats(&m1)
	t.allocBytes += m1.TotalAlloc - m0.TotalAlloc
	t.walls = append(t.walls, dt)
	t.events += wk.events
	t.candidates += wk.candidates
	t.ops += wk.ops
	t.failed += wk.failed
	if err != nil {
		fmt.Fprintf(log, "session %d: %v\n", i, err)
	}
	if check != nil {
		if err := check(); err != nil {
			fmt.Fprintf(log, "session %d: check failed: %v\n", i, err)
			t.correct = false
		}
	}
}

// run executes one benchmark run and prints its result.
func run(ctx context.Context, o options, stdout io.Writer) (err error) {
	w, err := newWorkload(o)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := w.close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	var tr *tracer
	if o.traced {
		tr = newTracer()
	}
	var setupS []float64
	for spent := 0.0; len(setupS) < minSetups || (!o.tiny && spent < setupSeconds && len(setupS) < maxSetups); {
		runtime.GC() // each set-up starts on a collected heap, as each session does
		t0 := time.Now()
		if err := w.setup(ctx, tr); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		spent += setupS[len(setupS)-1]
	}
	if err := w.prepare(ctx, o.traced); err != nil {
		return fmt.Errorf("preparing checks: %w", err)
	}

	n := sessions(o)
	runtime.GC()
	var base runtime.MemStats
	runtime.ReadMemStats(&base)
	// A traced run alternates untraced and traced sessions, so that the
	// two walls it compares see the machine in the same state.
	plain, traced := timed{correct: true}, timed{correct: true}
	for i := 0; i < n; i++ {
		plain.runSession(ctx, w, nil, i, os.Stderr)
		if o.traced {
			traced.runSession(ctx, w, tr, i, os.Stderr)
		}
	}
	res := result{
		Correct:   plain.correct && traced.correct,
		Attempted: plain.ops + traced.ops,
		Failed:    plain.failed + traced.failed,
	}
	runtime.GC()
	var held runtime.MemStats
	runtime.ReadMemStats(&held)

	if !o.traced {
		// Sessions are identical, so the rates are a session's work over
		// the median session's wall time: one slow session moves them no
		// more than it moves the median.
		wall := median(plain.walls) * float64(n)
		res.Metrics = map[string]metric{
			"setup_s":               {median(setupS), "s"},
			"events_per_s":          {float64(plain.events) / wall, "1/s"},
			"candidates_per_s":      {float64(plain.candidates) / wall, "1/s"},
			"session_ms_p50":        {median(plain.walls) * 1e3, "ms"},
			"alloc_bytes_per_event": {float64(plain.allocBytes) / float64(plain.events), "B"},
			"retained_mb":           {float64(held.HeapAlloc) / (1 << 20), "MB"},
		}
	} else {
		if err := w.probe(ctx, tr); err != nil {
			fmt.Fprintf(os.Stderr, "probe: %v\n", err)
			res.Correct = false
		}
		tr.finish()
		res.Metrics = layerMetrics(tr, plain, traced)
		if w, ok := w.(interface {
			retainedPerJob(held, base uint64) float64
		}); ok {
			res.Metrics["server.retained_kb_per_job"] = metric{w.retainedPerJob(held.HeapAlloc, base.HeapAlloc), "KB"}
		}
		path := filepath.Join(o.dir, fmt.Sprintf("spans-%s-seed%d.json", o.workload, o.seed))
		if err := tr.write(path); err != nil {
			return err
		}
	}

	info := machine{
		CPU: cpuModel(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		Workload: o.workload, Seed: o.seed, Sessions: n, Traced: o.traced,
	}
	if d, ok := w.(interface{ digest() string }); ok {
		info.Digest = d.digest()
	}
	meta, err := json.Marshal(info)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(stdout, "%s\n%s\n", meta, line); err != nil {
		return fmt.Errorf("printing the result: %w", err)
	}
	return nil
}

// median returns the middle value (the mean of the two middle ones for an
// even count).
func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile interpolates linearly between order statistics.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// tail returns the q-quantile when at least ten samples lie beyond it,
// and 0 when there are too few for it to describe a tail.
func tail(v []float64, q float64) float64 {
	if float64(len(v))*(1-q) < 10 {
		return 0
	}
	return quantile(v, q)
}
