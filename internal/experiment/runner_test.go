package experiment

import (
	"testing"
	"time"

	"github.com/vanetsec/georoute/internal/attack"
	"github.com/vanetsec/georoute/internal/metrics"
	"github.com/vanetsec/georoute/internal/radio"
)

// tinyScenario is the smallest useful arm: a short generation window on
// the full road, enough to emit a handful of packets.
func tinyScenario() Scenario {
	s := Default()
	s.Duration = 10 * time.Second
	s.Drain = 5 * time.Second
	return s
}

func TestMaxParallelAtLeastOne(t *testing.T) {
	if MaxParallel() < 1 {
		t.Fatalf("MaxParallel() = %d", MaxParallel())
	}
}

func TestRunJobsFewerJobsThanWorkers(t *testing.T) {
	// One job on an N-core pool: the worker cap must shrink to the job
	// count and still execute everything exactly once.
	s := tinyScenario()
	out := make([]RunResult, 1)
	runJobs(armJobs(nil, s, out), nil)
	if out[0].Series == nil || out[0].PacketsSent == 0 {
		t.Fatalf("single job not executed: %+v", out[0])
	}
}

func TestRunJobsEmpty(t *testing.T) {
	runJobs(nil, nil) // must not deadlock or panic
}

func TestArmJobsSeedsAndSlots(t *testing.T) {
	s := tinyScenario()
	s.Seed = 40
	out := make([]RunResult, 3)
	jobs := armJobs(nil, s, out)
	if len(jobs) != 3 {
		t.Fatalf("len(jobs) = %d", len(jobs))
	}
	for i, j := range jobs {
		if j.seed != 40+uint64(i) {
			t.Errorf("job %d seed = %d, want %d", i, j.seed, 40+uint64(i))
		}
		if j.out != &out[i] {
			t.Errorf("job %d writes to the wrong slot", i)
		}
	}
	// Appending a second arm extends, not replaces.
	out2 := make([]RunResult, 2)
	jobs = armJobs(jobs, s.withoutAttack(), out2)
	if len(jobs) != 5 || jobs[3].out != &out2[0] {
		t.Fatalf("armJobs append broken: %d jobs", len(jobs))
	}
}

func TestMergeRunsFolds(t *testing.T) {
	mk := func(v float64, packets int, replayed uint64) RunResult {
		series := metrics.NewBinSeries(10*time.Second, 5*time.Second)
		series.Add(time.Second, v)
		return RunResult{
			Series:        series,
			PacketsSent:   packets,
			AttackerStats: attack.Stats{BeaconsReplayed: replayed},
		}
	}
	out := []RunResult{mk(1, 3, 5), mk(0, 4, 7)}
	m := mergeRuns(out)
	if m.PacketsSent != 7 {
		t.Errorf("PacketsSent = %d, want 7", m.PacketsSent)
	}
	if m.AttackerStats.BeaconsReplayed != 12 {
		t.Errorf("BeaconsReplayed = %d, want 12", m.AttackerStats.BeaconsReplayed)
	}
	if r, ok := m.Series.Rate(0); !ok || r != 0.5 {
		t.Errorf("merged rate = %v (ok=%v), want 0.5", r, ok)
	}
	// Single-run merge is the identity.
	single := mergeRuns([]RunResult{mk(1, 2, 1)})
	if single.PacketsSent != 2 {
		t.Errorf("single merge PacketsSent = %d", single.PacketsSent)
	}
}

func TestRunArmZeroAndOneRuns(t *testing.T) {
	s := tinyScenario()
	zero := RunArm(s, 0) // must clamp to one run, not panic or hang
	one := RunArm(s, 1)
	if zero.PacketsSent == 0 || one.PacketsSent == 0 {
		t.Fatalf("empty results: zero=%d one=%d", zero.PacketsSent, one.PacketsSent)
	}
	if zero.PacketsSent != one.PacketsSent {
		t.Fatalf("runs=0 must equal runs=1: %d vs %d", zero.PacketsSent, one.PacketsSent)
	}
}

func TestRunABSpreads(t *testing.T) {
	s := tinyScenario()
	s.AttackMode = attack.InterArea
	s.AttackRange = radio.Range(radio.DSRC, radio.LoSMedian)
	const runs = 3
	ab := RunAB(s, runs)
	for name, sp := range map[string]metrics.Spread{
		"free": ab.FreeSpread, "attacked": ab.AttackedSpread, "drop": ab.DropSpread,
	} {
		if sp.Runs != runs {
			t.Errorf("%s spread runs = %d, want %d", name, sp.Runs, runs)
		}
		if sp.CILow > sp.Mean || sp.CIHigh < sp.Mean {
			t.Errorf("%s CI (%v, %v) does not bracket mean %v", name, sp.CILow, sp.CIHigh, sp.Mean)
		}
	}
	// The per-run drop mean and the merged drop measure the same effect;
	// with a near-total mL interception both sit near 1.
	if ab.DropSpread.Mean < 0.5 || ab.DropRate() < 0.5 {
		t.Errorf("mL interception too weak: per-run %v, merged %v", ab.DropSpread.Mean, ab.DropRate())
	}
	// Single-run spread degenerates cleanly.
	ab1 := RunAB(s, 1)
	if ab1.DropSpread.Runs != 1 || ab1.DropSpread.Stddev != 0 {
		t.Errorf("runs=1 spread = %+v", ab1.DropSpread)
	}
	if ab1.DropSpread.CILow != ab1.DropSpread.Mean || ab1.DropSpread.CIHigh != ab1.DropSpread.Mean {
		t.Errorf("runs=1 CI must collapse onto the mean: %+v", ab1.DropSpread)
	}
}

// TestCellKeyRoundTrip checks that cell keys are unique and that every
// enumerated seed maps back to its run index.
func TestCellKeyRoundTrip(t *testing.T) {
	figs := Figures()
	fig := figs["fig7a"]
	cells := fig.Cells(2)
	if want := len(fig.Arms) * 2; len(cells) != want {
		t.Fatalf("Cells(2) = %d cells, want %d", len(cells), want)
	}
	seen := make(map[string]bool)
	for _, c := range cells {
		key := c.Key()
		if seen[key] {
			t.Fatalf("duplicate cell key %s", key)
		}
		seen[key] = true
		idx, err := fig.RunIndex(c)
		if err != nil {
			t.Fatal(err)
		}
		if idx != 0 && idx != 1 {
			t.Fatalf("run index %d for %s", idx, key)
		}
	}
}

func TestRunCellMatchesRunOnce(t *testing.T) {
	fig := Figure{
		ID:    "test",
		Title: "cell entry point",
		Arms:  []Arm{{Label: "af", Scenario: tinyScenario()}},
		Pairs: []Pair{{Label: "p", Free: "af", Attacked: "af", PaperDrop: -1}},
	}
	c := Cell{Figure: "test", Arm: "af", Seed: 1}
	got, err := fig.RunCell(c)
	if err != nil {
		t.Fatal(err)
	}
	want := RunOnce(tinyScenario(), 1)
	if got.PacketsSent != want.PacketsSent || got.Series.Overall() != want.Series.Overall() {
		t.Fatalf("RunCell diverges from RunOnce: %d/%v vs %d/%v",
			got.PacketsSent, got.Series.Overall(), want.PacketsSent, want.Series.Overall())
	}
	if _, err := fig.RunCell(Cell{Figure: "test", Arm: "nope", Seed: 1}); err == nil {
		t.Fatal("unknown arm accepted")
	}
	if _, err := fig.RunCell(Cell{Figure: "other", Arm: "af", Seed: 1}); err == nil {
		t.Fatal("foreign figure accepted")
	}
}

func TestFigureRunReportsSpread(t *testing.T) {
	s := tinyScenario()
	s.AttackMode = attack.InterArea
	s.AttackRange = radio.Range(radio.DSRC, radio.LoSMedian)
	fig := Figure{
		ID:    "test",
		Title: "spread",
		Arms: []Arm{
			{Label: "af", Scenario: s.withoutAttack()},
			{Label: "atk", Scenario: s},
		},
		Pairs: []Pair{{Label: "p", Free: "af", Attacked: "atk", PaperDrop: -1}},
	}
	res := fig.Run(2)
	if res.Runs != 2 {
		t.Fatalf("Runs = %d", res.Runs)
	}
	for _, arm := range []string{"af", "atk"} {
		if res.ArmSpread[arm].Runs != 2 {
			t.Errorf("%s: ArmSpread.Runs = %d", arm, res.ArmSpread[arm].Runs)
		}
		if res.Packets[arm] == 0 {
			t.Errorf("%s: no packets recorded", arm)
		}
	}
	if res.DropSpread["p"].Runs != 2 {
		t.Errorf("DropSpread.Runs = %d", res.DropSpread["p"].Runs)
	}
	if res.Attacker["atk"].BeaconsReplayed == 0 {
		t.Error("attacked arm recorded no attacker activity")
	}
	if res.Attacker["af"].BeaconsReplayed != 0 {
		t.Error("attack-free arm recorded attacker activity")
	}
}
