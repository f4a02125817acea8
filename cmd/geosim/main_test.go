package main

import (
	"strings"
	"testing"
)

// TestCheckFlagsRejects covers every value checkFlags turns into exit 2.
// Each row changes one flag from its default; the error must name it.
func TestCheckFlagsRejects(t *testing.T) {
	type flags struct {
		format                                 string
		runs, showcaseSeeds, workers, maxCells int
		forwarder                              string
	}
	defaults := flags{format: "table", runs: 10, showcaseSeeds: 5}
	check := func(f flags) error {
		return checkFlags(f.format, f.runs, f.showcaseSeeds, f.workers, f.maxCells, f.forwarder)
	}
	if err := check(defaults); err != nil {
		t.Fatalf("defaults rejected: %v", err)
	}
	for _, tc := range []struct {
		name string
		edit func(*flags)
		want string
	}{
		{"format", func(f *flags) { f.format = "xml" }, "-format"},
		{"format empty", func(f *flags) { f.format = "" }, "-format"},
		{"runs zero", func(f *flags) { f.runs = 0 }, "-runs"},
		{"runs negative", func(f *flags) { f.runs = -1 }, "-runs"},
		{"showcase-seeds zero", func(f *flags) { f.showcaseSeeds = 0 }, "-showcase-seeds"},
		{"workers negative", func(f *flags) { f.workers = -3 }, "-workers"},
		{"max-cells negative", func(f *flags) { f.maxCells = -1 }, "-max-cells"},
		{"forwarder unknown", func(f *flags) { f.forwarder = "no-such-strategy" }, "unknown forwarder"},
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
	// The zero values keep their meaning: CPUs-1 workers, no cell limit.
	for _, f := range []flags{
		{format: "json", runs: 1, showcaseSeeds: 1},
		{format: "csv", runs: 1, showcaseSeeds: 1, workers: 4, maxCells: 2, forwarder: "gpsr"},
	} {
		if err := check(f); err != nil {
			t.Fatalf("%+v rejected: %v", f, err)
		}
	}
}
