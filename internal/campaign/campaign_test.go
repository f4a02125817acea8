package campaign

import (
	"context"
	"errors"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/vanetsec/georoute/internal/attack"
	"github.com/vanetsec/georoute/internal/experiment"
	"github.com/vanetsec/georoute/internal/metrics"
	"github.com/vanetsec/georoute/internal/showcase"
)

func fig7aSpec(name string, runs int) Spec {
	return Spec{Name: name, Runs: runs, Figures: []string{"fig7a"}}
}

func TestSpecValidate(t *testing.T) {
	for _, bad := range []Spec{
		{Runs: 1, Figures: []string{"fig7a"}},                 // no name
		{Name: "a/b", Runs: 1, Figures: []string{"fig7a"}},    // path in name
		{Name: "x", Runs: 1, Figures: []string{"no-such-id"}}, // unknown figure
		{Name: "x", Runs: 1},                                  // no cells at all
		{Name: "x", HazardSeeds: -1},                          // negative seeds enumerate nothing
		{Name: "x", Runs: -1, Figures: []string{"fig7a"}},     // negative runs
	} {
		sp := bad
		if err := sp.Validate(); err == nil {
			t.Errorf("Validate accepted %+v", bad)
		}
	}
	sp := Spec{Name: "ok", Figures: []string{"fig7a"}}
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
	if sp.Runs != 1 {
		t.Fatalf("Runs not defaulted: %d", sp.Runs)
	}
}

func TestSpecCellsEnumeration(t *testing.T) {
	sp := Spec{Name: "x", Runs: 2, Figures: []string{"fig7a"}, HazardSeeds: 2, Curve: true}
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
	cells, err := sp.Cells()
	if err != nil {
		t.Fatal(err)
	}
	arms := len(experiment.Figures()["fig7a"].Arms)
	want := arms*2 + /*hazard*/ 2*2*2 + /*curve*/ 2
	if len(cells) != want {
		t.Fatalf("enumerated %d cells, want %d", len(cells), want)
	}
	seen := make(map[string]bool)
	for _, c := range cells {
		if seen[c.Key()] {
			t.Fatalf("duplicate key %s", c.Key())
		}
		seen[c.Key()] = true
	}
	if !seen["fig12a/af/1"] || !seen["fig12b/atk/2"] || !seen["fig13/af/1"] {
		t.Fatal("showcase cells missing")
	}
	// "all" resolves to the whole registry.
	all := Spec{Name: "x", Runs: 1, Figures: []string{"all"}}
	ids, err := all.figureIDs()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != len(experiment.FigureIDs()) {
		t.Fatalf("all resolved to %d figures", len(ids))
	}
}

func TestSpecHashStable(t *testing.T) {
	a := fig7aSpec("x", 2)
	b := fig7aSpec("x", 2)
	if a.Hash() != b.Hash() {
		t.Fatal("identical specs hash differently")
	}
	c := fig7aSpec("x", 3)
	if a.Hash() == c.Hash() {
		t.Fatal("different runs count must change the hash")
	}
}

// syntheticResult builds a random but shape-correct RunResult for a
// fig7a-family cell.
func syntheticResult(rng *rand.Rand) CellResult {
	s := metrics.NewBinSeries(200*time.Second, 5*time.Second)
	for i := 0; i < 50+rng.IntN(100); i++ {
		s.Add(time.Duration(rng.IntN(200))*time.Second, rng.Float64())
	}
	return CellResult{Run: &experiment.RunResult{
		Series:        s,
		PacketsSent:   50 + rng.IntN(100),
		AttackerStats: attack.Stats{BeaconsReplayed: uint64(rng.IntN(1000))},
	}}
}

func TestJournalRoundTripProperty(t *testing.T) {
	// Property: for random result payloads, writing a journal and
	// replaying it recovers every cell exactly (series bit-for-bit).
	for trial := 0; trial < 5; trial++ {
		rng := rand.New(rand.NewPCG(uint64(trial), 99))
		sp := fig7aSpec("prop", 3)
		if err := sp.Validate(); err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		path := filepath.Join(dir, "journal.jsonl")
		j, replayed, err := OpenJournal(path, sp)
		if err != nil {
			t.Fatal(err)
		}
		if len(replayed) != 0 {
			t.Fatal("fresh journal replayed cells")
		}
		cells, _ := sp.Cells()
		// Record a random subset in a random order.
		perm := rng.Perm(len(cells))
		n := 1 + rng.IntN(len(cells))
		want := make(map[string]CellResult, n)
		for _, i := range perm[:n] {
			res := syntheticResult(rng)
			want[cells[i].Key()] = res
			if err := j.Record(cells[i].Key(), res); err != nil {
				t.Fatal(err)
			}
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		j2, got, err := OpenJournal(path, sp)
		if err != nil {
			t.Fatal(err)
		}
		j2.Close()
		if len(got) != len(want) {
			t.Fatalf("trial %d: replayed %d cells, want %d", trial, len(got), len(want))
		}
		for k, w := range want {
			g, ok := got[k]
			if !ok {
				t.Fatalf("trial %d: %s missing from replay", trial, k)
			}
			if !reflect.DeepEqual(g.Run.Series, w.Run.Series) ||
				g.Run.PacketsSent != w.Run.PacketsSent ||
				g.Run.AttackerStats != w.Run.AttackerStats {
				t.Fatalf("trial %d: %s replayed differently", trial, k)
			}
		}
	}
}

func TestJournalTornTailRecovery(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	sp := fig7aSpec("torn", 1)
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.jsonl")
	j, _, err := OpenJournal(path, sp)
	if err != nil {
		t.Fatal(err)
	}
	cells, _ := sp.Cells()
	if err := j.Record(cells[0].Key(), syntheticResult(rng)); err != nil {
		t.Fatal(err)
	}
	j.Close()

	// Simulate a hard kill mid-append: a torn, newline-less JSON prefix.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"type":"cell","key":"fig7a/atk_wN/1","result":{"run":{"packets`)
	f.Close()

	j2, replayed, err := OpenJournal(path, sp)
	if err != nil {
		t.Fatalf("torn journal rejected: %v", err)
	}
	if len(replayed) != 1 {
		t.Fatalf("replayed %d cells, want 1 (torn tail discarded)", len(replayed))
	}
	// The truncated tail must be overwritten cleanly by the next append.
	if err := j2.Record(cells[1].Key(), syntheticResult(rng)); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	_, replayed, err = OpenJournal(path, sp)
	if err != nil {
		t.Fatal(err)
	}
	if len(replayed) != 2 {
		t.Fatalf("after recovery replayed %d cells, want 2", len(replayed))
	}
}

func TestJournalTornHeaderRecovery(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 2))
	sp := fig7aSpec("tornhead", 1)
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
	cells, _ := sp.Cells()
	for _, tc := range []struct {
		name    string
		content string
	}{
		// A hard kill during the very first append leaves a newline-less
		// JSON prefix of the header itself.
		{"torn mid-write", `{"type":"header","campaign":"tornhead","spec_ha`},
		// Header-line corruption: complete line, unreadable JSON.
		{"corrupt json", "{\"type\":\x00garbage\n"},
		// A complete, valid line that is not a header (no spec anchor).
		{"wrong type", `{"type":"cell","key":"fig7a/af_mN/1"}` + "\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "journal.jsonl")
			if err := os.WriteFile(path, []byte(tc.content), 0o644); err != nil {
				t.Fatal(err)
			}
			j, replayed, err := OpenJournal(path, sp)
			if err != nil {
				t.Fatalf("torn header wedged the journal: %v", err)
			}
			if len(replayed) != 0 {
				t.Fatalf("replayed %d cells from an unreadable journal", len(replayed))
			}
			// The unreadable bytes are preserved for forensics…
			backup, err := os.ReadFile(path + ".corrupt")
			if err != nil {
				t.Fatalf("no backup of the corrupt journal: %v", err)
			}
			if string(backup) != tc.content {
				t.Fatal("backup does not hold the original bytes")
			}
			// …and the fresh journal works end to end.
			if err := j.Record(cells[0].Key(), syntheticResult(rng)); err != nil {
				t.Fatal(err)
			}
			j.Close()
			j2, replayed, err := OpenJournal(path, sp)
			if err != nil {
				t.Fatal(err)
			}
			j2.Close()
			if len(replayed) != 1 {
				t.Fatalf("fresh journal replayed %d cells, want 1", len(replayed))
			}
		})
	}
	// An empty (or absent) journal is the ordinary fresh path — no backup.
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.jsonl")
	j, _, err := OpenJournal(path, sp)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if _, err := os.Stat(path + ".corrupt"); err == nil {
		t.Fatal("fresh journal spuriously backed up")
	}
}

func TestJournalRejectsForeignSpec(t *testing.T) {
	sp := fig7aSpec("mine", 2)
	sp.Validate()
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.jsonl")
	j, _, err := OpenJournal(path, sp)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	other := fig7aSpec("mine", 3) // same name, different protocol
	other.Validate()
	if _, _, err := OpenJournal(path, other); err == nil || !strings.Contains(err.Error(), "different spec") {
		t.Fatalf("foreign spec accepted: %v", err)
	}
}

// readArtifacts returns name → contents of every .json artifact in dir.
func readArtifacts(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string)
	for _, e := range entries {
		if filepath.Ext(e.Name()) != ".json" {
			continue
		}
		if e.Name() == "resources.json" {
			// Wall-clock measurements: intentionally not byte-identical.
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = string(b)
	}
	return out
}

func TestAggregatorOrderIndependent(t *testing.T) {
	// The same cell results fed in canonical vs shuffled order must
	// finalize to byte-identical artifacts — the property that makes
	// journal-replay order irrelevant.
	sp := fig7aSpec("order", 3)
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
	cells, _ := sp.Cells()
	rng := rand.New(rand.NewPCG(5, 6))
	results := make(map[string]CellResult, len(cells))
	for _, c := range cells {
		results[c.Key()] = syntheticResult(rng)
	}

	finalize := func(order []int) map[string]string {
		agg, err := NewAggregator(sp)
		if err != nil {
			t.Fatal(err)
		}
		for _, i := range order {
			if err := agg.Feed(cells[i], results[cells[i].Key()]); err != nil {
				t.Fatal(err)
			}
		}
		dir := t.TempDir()
		if err := agg.Finalize(dir); err != nil {
			t.Fatal(err)
		}
		return readArtifacts(t, dir)
	}

	canonical := make([]int, len(cells))
	for i := range canonical {
		canonical[i] = i
	}
	a := finalize(canonical)
	b := finalize(rng.Perm(len(cells)))
	if len(a) == 0 {
		t.Fatal("no artifacts written")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("shuffled feeding order changed the artifacts")
	}
}

func TestAggregatorRejectsDuplicateAndIncomplete(t *testing.T) {
	sp := fig7aSpec("dup", 1)
	sp.Validate()
	cells, _ := sp.Cells()
	rng := rand.New(rand.NewPCG(8, 9))
	agg, err := NewAggregator(sp)
	if err != nil {
		t.Fatal(err)
	}
	res := syntheticResult(rng)
	if err := agg.Feed(cells[0], res); err != nil {
		t.Fatal(err)
	}
	if err := agg.Feed(cells[0], res); err == nil {
		t.Fatal("duplicate cell accepted")
	}
	if err := agg.Finalize(t.TempDir()); err == nil || !strings.Contains(err.Error(), "missing") {
		t.Fatalf("incomplete campaign finalized: %v", err)
	}
}

func TestHazardAggregation(t *testing.T) {
	h := &hazardArmAgg{}
	h.feed(&showcase.HazardResult{VehicleCount: []int{10, 20}, GateClosedAt: 60 * time.Second})
	h.feed(&showcase.HazardResult{VehicleCount: []int{20, 40, 60}})
	a := &Aggregator{
		spec:   Spec{HazardSeeds: 2},
		hazard: map[string]map[string]*hazardArmAgg{hazardGFID: {"af": h, "atk": {}}},
	}
	art := a.hazardArtifact(hazardGFID)
	af := art.Arms["af"]
	want := []float64{15, 30, 30}
	if !reflect.DeepEqual(af.MeanVehicleCount, want) {
		t.Fatalf("MeanVehicleCount = %v, want %v", af.MeanVehicleCount, want)
	}
	if af.GateClosedRuns != 1 || af.MeanGateCloseSeconds != 60 {
		t.Fatalf("gate stats: %+v", af)
	}
}

// TestResumeDeterminism is the acceptance check: interrupting a campaign
// and resuming it produces byte-identical artifacts to running it
// uninterrupted.
func TestResumeDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real fig7a cells")
	}
	base := t.TempDir()
	ctx := context.Background()

	// Uninterrupted reference run.
	ref := fig7aSpec("camp", 1)
	if _, err := Run(ctx, ref, Options{ResultsDir: filepath.Join(base, "ref")}); err != nil {
		t.Fatal(err)
	}

	// Interrupted run: budget of 2 cells, then resume.
	sp := fig7aSpec("camp", 1)
	info, err := Run(ctx, sp, Options{ResultsDir: filepath.Join(base, "res"), MaxCells: 2})
	if err == nil || !strings.Contains(err.Error(), "interrupted") {
		t.Fatalf("MaxCells run: err = %v", err)
	}
	if info.Executed != 2 {
		t.Fatalf("executed %d cells, want 2", info.Executed)
	}
	// Re-running without -resume must refuse.
	if _, err := Run(ctx, sp, Options{ResultsDir: filepath.Join(base, "res")}); err == nil {
		t.Fatal("second run without Resume accepted")
	}
	info, err = Run(ctx, sp, Options{ResultsDir: filepath.Join(base, "res"), Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if info.Replayed != 2 {
		t.Fatalf("resume replayed %d cells, want 2", info.Replayed)
	}

	want := readArtifacts(t, filepath.Join(base, "ref", "camp"))
	if len(want) == 0 {
		t.Fatal("reference run wrote no artifacts")
	}
	sameArtifacts := func(dir, how string) {
		t.Helper()
		got := readArtifacts(t, filepath.Join(base, dir, "camp"))
		if !reflect.DeepEqual(got, want) {
			for name := range want {
				if got[name] != want[name] {
					t.Errorf("artifact %s differs between %s and uninterrupted runs", name, how)
				}
			}
			t.FailNow()
		}
	}
	sameArtifacts("res", "resumed")

	// Partitioned run: part 0/3 runs in full, part 1/3 is interrupted
	// after one cell, and part 2/3 never runs. Merging the two journals
	// finishes the missing cells locally.
	info, err = Run(ctx, sp, Options{ResultsDir: filepath.Join(base, "p0"), Part: Part{Index: 0, Count: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if info.Executed != 2 {
		t.Fatalf("part 0/3 executed %d cells, want 2", info.Executed)
	}
	if arts := readArtifacts(t, filepath.Join(base, "p0", "camp")); len(arts) != 0 {
		t.Fatalf("a finished part finalized %d artifacts", len(arts))
	}
	_, err = Run(ctx, sp, Options{ResultsDir: filepath.Join(base, "p1"), Part: Part{Index: 1, Count: 3}, MaxCells: 1})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("interrupted part: err = %v", err)
	}
	info, err = Run(ctx, sp, Options{ResultsDir: filepath.Join(base, "merged"), Merge: []string{
		filepath.Join(base, "p0", "camp", "journal.jsonl"),
		filepath.Join(base, "p1", "camp", "journal.jsonl"),
	}})
	if err != nil {
		t.Fatal(err)
	}
	if info.Merged != 3 || info.Executed != 3 {
		t.Fatalf("merge imported %d and executed %d cells, want 3 and 3", info.Merged, info.Executed)
	}
	sameArtifacts("merged", "merged partitioned")
}

func TestCampaignCancelAndResume(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real fig7a and fig13 cells")
	}
	base := t.TempDir()
	sp := Spec{Name: "cancel", Runs: 1, Figures: []string{"fig7a"}, Curve: true}
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
	// Cancel after the first completed cell; everything journaled so far
	// must be replayed by the resume.
	ctx, cancel := context.WithCancel(context.Background())
	info, err := Run(ctx, sp, Options{
		ResultsDir: base,
		Workers:    1,
		Progress: func(done, total, replayed int, key string) {
			if key != "" {
				cancel()
			}
		},
	})
	if err == nil {
		t.Fatal("cancelled campaign reported success")
	}
	if info.Executed == 0 {
		t.Fatal("no cells journaled before cancellation took effect")
	}
	info, err = Run(context.Background(), sp, Options{ResultsDir: base, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if info.Replayed == 0 || info.Replayed+info.Executed != info.Total {
		t.Fatalf("resume accounting: %+v", info)
	}
	arts := readArtifacts(t, filepath.Join(base, sp.Name))
	if _, ok := arts["fig7a.json"]; !ok {
		t.Fatal("fig7a artifact missing")
	}
	if _, ok := arts["fig13.json"]; !ok {
		t.Fatal("curve artifact missing")
	}
	if _, ok := arts["summary.json"]; !ok {
		t.Fatal("summary artifact missing")
	}
}

// TestCampaignMatchesDirectFigureRun pins the cross-path determinism
// claim: a campaign over a figure finalizes the exact artifact a direct
// Figure.Run produces.
func TestCampaignMatchesDirectFigureRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real fig7a cells")
	}
	base := t.TempDir()
	sp := fig7aSpec("direct", 1)
	if _, err := Run(context.Background(), sp, Options{ResultsDir: base}); err != nil {
		t.Fatal(err)
	}
	fromCampaign, err := os.ReadFile(filepath.Join(base, "direct", "fig7a.json"))
	if err != nil {
		t.Fatal(err)
	}
	res := experiment.Figures()["fig7a"].Run(1)
	direct, err := marshalArtifact(BuildFigureArtifact(res))
	if err != nil {
		t.Fatal(err)
	}
	if string(fromCampaign) != string(direct) {
		t.Fatal("campaign artifact differs from direct Figure.Run artifact")
	}
}
