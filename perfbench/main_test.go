package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
)

// BENCHMARK.json at the repository root declares the metrics this command
// prints; the two lists must not drift apart.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	pairs := func(us []unit) [][2]string {
		out := make([][2]string, len(us))
		for i, u := range us {
			out[i] = [2]string{u.name, u.unit}
		}
		return out
	}
	var e2e, layers [][2]string
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, [2]string{m.Name, m.Unit})
	}
	for _, m := range spec.PerLayer {
		layers = append(layers, [2]string{m.Name, m.Unit})
	}
	if want := pairs(endToEnd); !reflect.DeepEqual(e2e, want) {
		t.Errorf("end_to_end in BENCHMARK.json = %v, command prints %v", e2e, want)
	}
	if want := pairs(perLayer); !reflect.DeepEqual(layers, want) {
		t.Errorf("per_layer in BENCHMARK.json = %v, command prints %v", layers, want)
	}
	var names, want []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	for name := range workloads {
		want = append(want, name)
	}
	sort.Strings(names)
	sort.Strings(want)
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads in BENCHMARK.json = %v, command runs %v", names, want)
	}
}
