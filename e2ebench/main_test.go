package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

// declared reads the metric names BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// runTiny runs one workload in tiny mode and returns its two output lines.
func runTiny(t *testing.T, workload string, seed int64, traced bool) (machine, result) {
	t.Helper()
	var out bytes.Buffer
	o := options{workload: workload, seed: seed, seconds: 1, traced: traced, tiny: true, dir: t.TempDir()}
	if err := run(context.Background(), o, &out); err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) < 2 {
		t.Fatalf("%s: output %q", workload, out.String())
	}
	var info machine
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &info); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	return info, res
}

func names(m map[string]metric) []string {
	var s []string
	for k := range m {
		s = append(s, k)
	}
	sort.Strings(s)
	return s
}

// TestTinyWorkloads runs every workload end to end, untraced and traced,
// with all of its output checks, and holds the printed metrics to the
// names and units BENCHMARK.json declares.
func TestTinyWorkloads(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, w := range []string{"replay", "stream", "explore", "serve"} {
		for _, traced := range []bool{false, true} {
			info, res := runTiny(t, w, 3, traced)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w, traced, res.Correct, res.Attempted, res.Failed)
			}
			if info.NProc == 0 || info.Go == "" || info.CPU == "" {
				t.Errorf("%s: machine metadata missing: %+v", w, info)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: printed %v, declared %d metrics", w, traced, names(res.Metrics), len(want))
			}
			for name, unit := range want {
				m, ok := res.Metrics[name]
				if !ok || m.Unit != unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", w, traced, name, m, unit)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, name, m.Value)
				}
			}
		}
	}
}

// TestExploreRepeatsAcrossRuns pins the candidate stream of one seed
// across two runs.
func TestExploreRepeatsAcrossRuns(t *testing.T) {
	a, _ := runTiny(t, "explore", 5, false)
	b, _ := runTiny(t, "explore", 5, false)
	if a.Digest == "" || a.Digest != b.Digest {
		t.Errorf("candidate streams %q and %q differ", a.Digest, b.Digest)
	}
}

// TestSelfTimes checks the self-time arithmetic on a hand-built tree: a
// parent's self time excludes its same-lane children, overlapping or not,
// and ignores children on other lanes.
func TestSelfTimes(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 0, Parent: -1, Lane: 0, Start: 0, End: 100},
		{ID: 1, Parent: 0, Lane: 0, Start: 10, End: 40},
		{ID: 2, Parent: 0, Lane: 0, Start: 30, End: 50},
		{ID: 3, Parent: 0, Lane: 1, Start: 0, End: 100},
	}}
	tr.finish()
	want := []int64{60, 30, 20, 100}
	for i, s := range tr.spans {
		if s.Self != want[i] {
			t.Errorf("span %d: self %d, want %d", i, s.Self, want[i])
		}
	}
}
