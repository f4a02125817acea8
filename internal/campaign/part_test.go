package campaign

import (
	"bytes"
	"context"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/vanetsec/georoute/internal/experiment"
)

func TestParsePart(t *testing.T) {
	for s, want := range map[string]Part{"0/1": {0, 1}, "2/3": {2, 3}} {
		got, err := ParsePart(s)
		if err != nil || got != want {
			t.Errorf("ParsePart(%q) = %+v, %v; want %+v", s, got, err, want)
		}
	}
	for _, bad := range []string{"0/0", "3/3", "-1/2", "1", "a/b", "1/2/3", "", "+1/2", "1/"} {
		if p, err := ParsePart(bad); err == nil {
			t.Errorf("ParsePart(%q) accepted as %+v", bad, p)
		}
	}
}

// TestPartsPartitionCells checks that the n parts of a campaign are
// disjoint and together cover every cell, for n = 1..5.
func TestPartsPartitionCells(t *testing.T) {
	sp := Spec{Name: "x", Runs: 2, Figures: []string{"fig7a"}, HazardSeeds: 2, Curve: true}
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
	cells, err := sp.Cells()
	if err != nil {
		t.Fatal(err)
	}
	for n := 1; n <= 5; n++ {
		owners := make([]int, len(cells))
		for i := 0; i < n; i++ {
			p := Part{Index: i, Count: n}
			if err := p.validate(); err != nil {
				t.Fatal(err)
			}
			for idx := range cells {
				if p.has(idx) {
					owners[idx]++
				}
			}
		}
		for idx, k := range owners {
			if k != 1 {
				t.Fatalf("n=%d: cell %s is in %d parts", n, cells[idx].Key(), k)
			}
		}
	}
	for _, p := range []Part{{-1, 2}, {2, 2}, {0, -1}, {1, 0}} {
		if p.validate() == nil {
			t.Errorf("part %+v accepted", p)
		}
	}
}

// writePart writes a journal for sp holding the given cells, then appends
// tail verbatim (a torn write, when non-empty). It returns the file bytes.
func writePart(t testing.TB, path string, sp Spec, cells []experiment.Cell, results map[string]CellResult, tail string) []byte {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	j, _, err := OpenJournal(path, sp)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		if err := j.Record(c.Key(), results[c.Key()]); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(tail)
	f.Close()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func syntheticResults(sp Spec, seed uint64) ([]experiment.Cell, map[string]CellResult) {
	cells, _ := sp.Cells()
	rng := rand.New(rand.NewPCG(seed, 3))
	results := make(map[string]CellResult, len(cells))
	for _, c := range cells {
		res := syntheticResult(rng)
		res.Resources = &CellResources{WallSeconds: rng.Float64(), Events: uint64(rng.IntN(1000))}
		results[c.Key()] = res
	}
	return cells, results
}

// noSeries returns results with c's run result stripped of its series.
func noSeries(c experiment.Cell, results map[string]CellResult) map[string]CellResult {
	res := results[c.Key()]
	run := *res.Run
	run.Series = nil
	res.Run = &run
	return map[string]CellResult{c.Key(): res}
}

const tornTail = `{"type":"cell","key":"fig7a/atk_wN/1","result":{"run":{"pack`

// TestMergeFinalizesFromParts merges part journals that hold every cell
// between them: the run executes nothing, finalizes the artifacts a
// direct fold of the same results gives, and leaves the part files as
// they were, torn tail included.
func TestMergeFinalizesFromParts(t *testing.T) {
	sp := fig7aSpec("merge", 2)
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
	cells, results := syntheticResults(sp, 1)
	dir := t.TempDir()
	p0, p1 := filepath.Join(dir, "p0.jsonl"), filepath.Join(dir, "p1.jsonl")
	// p1 overlaps p0 on its first cell, with a different measurement.
	var even, odd []experiment.Cell
	for i, c := range cells {
		if i%2 == 0 {
			even = append(even, c)
		} else {
			odd = append(odd, c)
		}
	}
	b0 := writePart(t, p0, sp, even, results, "")
	p1Results := make(map[string]CellResult, len(results))
	for k, v := range results {
		p1Results[k] = v
	}
	overlap := results[even[0].Key()]
	overlap.Resources = &CellResources{WallSeconds: 99}
	p1Results[even[0].Key()] = overlap
	b1 := writePart(t, p1, sp, append([]experiment.Cell{even[0]}, odd...), p1Results, tornTail)

	info, err := Run(context.Background(), sp, Options{ResultsDir: filepath.Join(dir, "res"), Merge: []string{p0, p1}})
	if err != nil {
		t.Fatal(err)
	}
	if info.Merged != len(cells) || info.Executed != 0 {
		t.Fatalf("merged %d, executed %d; want %d, 0", info.Merged, info.Executed, len(cells))
	}
	for path, want := range map[string][]byte{p0: b0, p1: b1} {
		if got, _ := os.ReadFile(path); !bytes.Equal(got, want) {
			t.Fatalf("merge changed part journal %s", path)
		}
	}
	agg, err := NewAggregator(sp)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		if err := agg.Feed(c, results[c.Key()]); err != nil {
			t.Fatal(err)
		}
	}
	direct := t.TempDir()
	if err := agg.Finalize(direct); err != nil {
		t.Fatal(err)
	}
	if got, want := readArtifacts(t, filepath.Join(dir, "res", "merge")), readArtifacts(t, direct); !reflect.DeepEqual(got, want) {
		t.Fatal("merged artifacts differ from a direct fold of the same results")
	}
	// Merging again into the finished journal is a no-op resume.
	info, err = Run(context.Background(), sp, Options{ResultsDir: filepath.Join(dir, "res"), Resume: true, Merge: []string{p0, p1}})
	if err != nil || info.Merged != 0 || info.Replayed != len(cells) {
		t.Fatalf("re-merge: %+v, %v", info, err)
	}
}

func TestMergeRejectsBadParts(t *testing.T) {
	sp := fig7aSpec("bad", 2)
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
	cells, results := syntheticResults(sp, 2)
	for _, tc := range []struct {
		name string
		// part writes the part journal; the run's own journal holds
		// cells[0] with its synthetic result.
		part func(path string) []byte
		want string
	}{
		{"foreign spec hash", func(path string) []byte {
			other := fig7aSpec("bad", 3)
			other.Validate()
			return writePart(t, path, other, cells[1:2], results, tornTail)
		}, "different spec"},
		{"different result", func(path string) []byte {
			conflict := map[string]CellResult{cells[0].Key(): results[cells[1].Key()]}
			return writePart(t, path, sp, cells[:1], conflict, tornTail)
		}, "different result"},
		{"run without a series", func(path string) []byte {
			return writePart(t, path, sp, cells[2:3], noSeries(cells[2], results), "")
		}, "does not fit its arm"},
		{"torn header", func(path string) []byte {
			b := []byte(`{"type":"header","campaign":"bad","spec_ha`)
			os.WriteFile(path, b, 0o644)
			return b
		}, "no readable header"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			res := filepath.Join(dir, "res")
			writePart(t, filepath.Join(res, "bad", "journal.jsonl"), sp, cells[:1], results, "")
			part := filepath.Join(dir, "part.jsonl")
			before := tc.part(part)
			info, err := Run(context.Background(), sp, Options{ResultsDir: res, Resume: true, Merge: []string{part}})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want it to mention %q", err, tc.want)
			}
			if info.Executed != 0 {
				t.Fatalf("a rejected merge executed %d cells", info.Executed)
			}
			if after, _ := os.ReadFile(part); !bytes.Equal(after, before) {
				t.Fatal("a rejected merge changed the part journal")
			}
		})
	}
}

// FuzzJournalMerge feeds arbitrary bytes as a part journal. The import
// must return an error or entries that are cells of the spec the run
// lacks, must never write the part file, and whatever it returns must
// go through the aggregator and the run's journal without a panic.
func FuzzJournalMerge(f *testing.F) {
	sp := fig7aSpec("fuzz", 2)
	if err := sp.Validate(); err != nil {
		f.Fatal(err)
	}
	cells, results := syntheticResults(sp, 4)
	seedDir := f.TempDir()
	valid := writePart(f, filepath.Join(seedDir, "a.jsonl"), sp, cells[:3], results, "")
	f.Add(valid)
	f.Add(append(append([]byte{}, valid...), tornTail...))
	f.Add([]byte{})
	f.Add([]byte("\n\n"))
	f.Add([]byte("{\"type\":\x00garbage\n"))
	f.Add(writePart(f, filepath.Join(seedDir, "b.jsonl"), sp, cells[2:3], noSeries(cells[2], results), ""))
	f.Add(bytes.Replace(valid, []byte(`"key":"fig7a/af`), []byte(`"key":"fig9a/af`), 1))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		part := filepath.Join(dir, "part.jsonl")
		if err := os.WriteFile(part, data, 0o644); err != nil {
			t.Fatal(err)
		}
		have := map[string]CellResult{cells[0].Key(): results[cells[0].Key()]}
		merged, err := importParts([]string{part}, sp, cells, have)
		if after, _ := os.ReadFile(part); !bytes.Equal(after, data) {
			t.Fatal("import wrote the part journal")
		}
		if err != nil {
			return
		}
		agg, err := NewAggregator(sp)
		if err != nil {
			t.Fatal(err)
		}
		j, _, err := OpenJournal(filepath.Join(dir, "journal.jsonl"), sp)
		if err != nil {
			t.Fatal(err)
		}
		isCell := make(map[string]bool, len(cells))
		for _, c := range cells {
			isCell[c.Key()] = true
		}
		recorded := 0
		for _, c := range cells {
			res, ok := merged[c.Key()]
			if !ok || agg.Feed(c, res) != nil {
				continue
			}
			if err := j.Record(c.Key(), res); err != nil {
				t.Fatal(err)
			}
			recorded++
		}
		j.Close()
		for key := range merged {
			if !isCell[key] {
				t.Fatalf("imported %q, not a cell of the spec", key)
			}
			if _, held := have[key]; held {
				t.Fatalf("imported %q, which the run already held", key)
			}
		}
		j, replayed, err := OpenJournal(filepath.Join(dir, "journal.jsonl"), sp)
		if err != nil {
			t.Fatal(err)
		}
		j.Close()
		if len(replayed) != recorded {
			t.Fatalf("journal replays %d of %d recorded cells", len(replayed), recorded)
		}
	})
}
