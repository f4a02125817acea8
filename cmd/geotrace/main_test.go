package main

import (
	"strings"
	"testing"
	"time"
)

// TestCheckFlagsRejects covers every value checkFlags turns into exit 2.
// Each row changes one flag from its default; the error must name it.
func TestCheckFlagsRejects(t *testing.T) {
	type flags struct {
		duration          time.Duration
		packets           int
		workload, atkMode string
		set               []string // flags given on the command line
	}
	defaults := flags{duration: 30 * time.Second, packets: 3, workload: "inter-area", atkMode: "none"}
	check := func(f flags) error {
		set := make(map[string]bool)
		for _, name := range f.set {
			set[name] = true
		}
		return checkFlags(f.duration, f.packets, f.workload, f.atkMode, set)
	}
	if err := check(defaults); err != nil {
		t.Fatalf("defaults rejected: %v", err)
	}
	for _, tc := range []struct {
		name string
		edit func(*flags)
		want string
	}{
		{"duration zero", func(f *flags) { f.duration = 0 }, "-duration"},
		{"duration negative", func(f *flags) { f.duration = -time.Second }, "-duration"},
		{"packets negative", func(f *flags) { f.packets = -1 }, "-packets"},
		{"workload unknown", func(f *flags) { f.workload = "foo" }, "-workload"},
		{"workload empty", func(f *flags) { f.workload = "" }, "-workload"},
		{"attack unknown", func(f *flags) { f.atkMode = "blackhole" }, "-attack"},
		{"attack empty", func(f *flags) { f.atkMode = "" }, "-attack"},
		// A flag the chosen mode would ignore is an error, not a no-op.
		{"validate with duration", func(f *flags) { f.set = []string{"validate", "duration"} }, "-duration"},
		{"validate with quiet", func(f *flags) { f.set = []string{"validate", "quiet"} }, "-quiet"},
		{"detect with attack", func(f *flags) { f.set = []string{"detect", "attack"} }, "-attack"},
		{"detect with jsonl", func(f *flags) { f.set = []string{"jsonl", "detect"} }, "-jsonl"},
		{"detect with seed", func(f *flags) { f.set = []string{"detect", "seed"} }, "-seed"},
		{"validate with detect", func(f *flags) { f.set = []string{"validate", "detect"} }, "separate modes"},
		{"attacker without detect", func(f *flags) { f.set = []string{"attacker"} }, "-attacker"},
		{"attacker with validate", func(f *flags) { f.set = []string{"validate", "attacker"} }, "-attacker"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := defaults
			tc.edit(&f)
			err := check(f)
			if err == nil {
				t.Fatalf("%+v accepted", f)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not name %s", err, tc.want)
			}
		})
	}
	// Zero packets is a beacon-only run; both workloads and attacks pass.
	// -quiet serves run and detect mode, -attacker detect mode.
	for _, f := range []flags{
		{duration: time.Second, packets: 0, workload: "intra-area", atkMode: "intra-area",
			set: []string{"duration", "packets", "workload", "attack", "range", "seed", "beacons", "jsonl", "quiet"}},
		{duration: time.Second, packets: 5, workload: "inter-area", atkMode: "inter-area"},
		{duration: 30 * time.Second, packets: 3, workload: "inter-area", atkMode: "none", set: []string{"detect", "attacker", "quiet"}},
		{duration: 30 * time.Second, packets: 3, workload: "inter-area", atkMode: "none", set: []string{"validate"}},
	} {
		if err := check(f); err != nil {
			t.Fatalf("%+v rejected: %v", f, err)
		}
	}
}
