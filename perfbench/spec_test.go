package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

type spec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// sameMetrics checks that the result line carries exactly the metrics
// BENCHMARK.json declares, with the same units.
func sameMetrics(t *testing.T, kind string, declared []specMetric, got []metric, traced bool) {
	t.Helper()
	reported := map[string]string{}
	for _, m := range got {
		if inResult(m.Name, traced) {
			reported[m.Name] = m.Unit
		}
	}
	for _, d := range declared {
		unit, ok := reported[d.Name]
		switch {
		case !ok:
			t.Errorf("%s metric %s is declared but not reported", kind, d.Name)
		case unit != d.Unit:
			t.Errorf("%s metric %s: declared unit %q, reported %q", kind, d.Name, d.Unit, unit)
		}
		delete(reported, d.Name)
	}
	for name := range reported {
		t.Errorf("%s metric %s is reported but not declared", kind, name)
	}
}

func TestSpecMatchesProgram(t *testing.T) {
	s := loadSpec(t)
	// BENCHMARK.json lists exactly the program's workloads.
	declared := map[string]bool{}
	for _, w := range s.Workloads {
		declared[w.Name] = true
		if _, err := lookupWorkload(w.Name); err != nil {
			t.Error(err)
		}
	}
	for _, w := range workloads {
		if !declared[w.Name] {
			t.Errorf("workload %s is not in BENCHMARK.json", w.Name)
		}
		if w.Why == "" || w.Bypasses == "" {
			t.Errorf("workload %s must record why it exists and what it bypasses", w.Name)
		}
	}
	empty := &runResult{elapsed: time.Second}
	sameMetrics(t, "end-to-end", s.EndToEnd, endToEnd(empty), false)
	layers, _ := layerMetrics(empty, empty, replayTimes{})
	sameMetrics(t, "per-layer", s.PerLayer, layers, true)
	for _, m := range s.EndToEnd {
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s needs a bound in (0, 0.25]", m.Name)
		}
	}
}
