package main

import (
	"net"
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
		set                                    []string // flags given on the command line
	}
	defaults := flags{format: "table", runs: 10, showcaseSeeds: 5}
	check := func(f flags) error {
		set := make(map[string]bool)
		for _, name := range f.set {
			set[name] = true
		}
		return checkFlags(f.format, f.runs, f.showcaseSeeds, f.workers, f.maxCells, f.forwarder, set)
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
		// A flag the chosen mode would ignore is an error, not a no-op.
		{"campaign with runs", func(f *flags) { f.set = []string{"campaign", "runs"} }, "-runs"},
		{"campaign with format", func(f *flags) { f.set = []string{"campaign", "format"} }, "-format"},
		{"campaign with showcase-seeds", func(f *flags) { f.set = []string{"showcase-seeds", "campaign"} }, "-showcase-seeds"},
		{"campaign with forwarder", func(f *flags) { f.set = []string{"campaign", "forwarder"} }, "-forwarder"},
		{"campaign with experiment", func(f *flags) { f.set = []string{"campaign", "experiment"} }, "-experiment"},
		{"experiment with resume", func(f *flags) { f.set = []string{"experiment", "resume"} }, "-resume"},
		{"experiment with results", func(f *flags) { f.set = []string{"experiment", "results"} }, "-results"},
		{"experiment with max-cells", func(f *flags) { f.set = []string{"experiment", "max-cells"} }, "-max-cells"},
		{"experiment with workers", func(f *flags) { f.set = []string{"experiment", "workers"} }, "-workers"},
		{"experiment with detect", func(f *flags) { f.set = []string{"experiment", "detect"} }, "-detect"},
		{"experiment with cells", func(f *flags) { f.set = []string{"experiment", "cells"} }, "-cells"},
		{"experiment with merge", func(f *flags) { f.set = []string{"experiment", "merge"} }, "-merge"},
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
	// Flags both modes read (-trace, -listen, -progress) pass in either.
	for _, f := range []flags{
		{format: "json", runs: 1, showcaseSeeds: 1, set: []string{"experiment", "format", "runs", "showcase-seeds", "trace"}},
		{format: "csv", runs: 1, showcaseSeeds: 1, forwarder: "gpsr", set: []string{"experiment", "forwarder", "listen", "progress"}},
		{format: "table", runs: 10, showcaseSeeds: 5, workers: 4, maxCells: 2,
			set: []string{"campaign", "resume", "results", "max-cells", "workers", "detect", "cells", "merge", "trace", "listen", "progress"}},
	} {
		if err := check(f); err != nil {
			t.Fatalf("%+v rejected: %v", f, err)
		}
	}
}

// TestRunFiguresReturnsExitCode: a failing figure run returns exit 1
// through runFigures, so its deferred telemetry shutdown runs and frees
// the -listen address.
func TestRunFiguresReturnsExitCode(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	if code := runFigures("nosuchfig", 1, "table", 1, "", "", addr, true); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	ln, err = net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("telemetry listener still bound after exit: %v", err)
	}
	ln.Close()
}
